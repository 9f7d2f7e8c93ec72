//! The query surface of the disconnection set approach.
//!
//! The paper's phase one needs "neither communication nor
//! synchronization" (§2.1), so *where* a fragment's subquery runs — on the
//! calling thread or on a thread of its own — is a placement laid over one
//! evaluator ([`crate::executor::ExecutionMode`]), not a second engine.
//! [`TcEngine`] is the surface examples and benchmarks drive that
//! evaluator through, whatever the placement; the umbrella crate's
//! `System` facade — an [`EngineSnapshot`] plus the scratch kernel its
//! reads run on — is its one implementor.
//!
//! The module also hosts the structural edit rule, [`apply_edit`] — the
//! one place a [`NetworkUpdate`] changes the fragmented relation that
//! everything else is derived from — and the evaluator's pieces:
//!
//! * [`run_batch_bounded`] — the batch driver ([`run_batch`] is the same
//!   call without deadlines or tracing), and through it the one routine
//!   that evaluates a query over its chains. The chains themselves are
//!   the planner's, enumerated once per pair of endpoint fragment sets
//!   for the life of the fragmentation ([`Planner::chain_set`]). Per
//!   query it does only what depends on the query: one subquery from `x`
//!   per distinct start fragment and one to `y` per distinct end
//!   fragment, shared by every chain through them, then one vector fold
//!   per chain. The interior relations of the chains mention no
//!   endpoint; they are read from the per-site, per-epoch [`SiteMemo`]
//!   and evaluated only when a slot is still empty. A query over chains
//!   with `s` distinct start and `e` distinct end fragments costs `s + e`
//!   site subqueries once the memo is warm, however many chains it has
//!   and however long they are.
//!
//! What a subquery costs is the site's business
//! ([`crate::local::border_matrix_with`]): over a snapshot it is a
//! product of the endpoint's memoized access set with rows of the site's
//! border matrix, plus one read of a memoized border-free row for a pair
//! of non-border nodes of one fragment — no Dijkstra sweep once those are
//! filled. The evaluator here neither knows nor cares; its own tests run
//! it over plain forward sweeps. Nor does it allocate once warm: every
//! vector an evaluation fills is kept by its thread from one query to
//! the next, so a warm query costs lookups, folds and the answer it
//! returns.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use ds_fragment::{FragmentId, Fragmentation};
use ds_graph::{Cost, Edge, NodeId, INFINITE_COST};
use ds_obs::{ChainEval, EvalTrace, TraceId};

use crate::assemble::{self, FoldBuffers};
use crate::bulk::max_edge_cost;
use crate::complementary::PrecomputeStats;
use crate::engine::{QueryAnswer, QueryStats, Route};
use crate::error::ClosureError;
use crate::local::SegmentMatrix;
use crate::memo::SiteMemo;
use crate::planner::{Planner, SiteQueryRef};
use crate::snapshot::EngineSnapshot;
use crate::updates::{UpdateBatchReport, UpdateReport};

/// One shortest-path request of a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    pub source: NodeId,
    pub target: NodeId,
}

impl QueryRequest {
    pub fn new(source: NodeId, target: NodeId) -> Self {
        QueryRequest { source, target }
    }
}

impl From<(NodeId, NodeId)> for QueryRequest {
    fn from((source, target): (NodeId, NodeId)) -> Self {
        QueryRequest { source, target }
    }
}

/// Amortization accounting for one [`TcEngine::query_batch`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Requests in the batch.
    pub queries: usize,
    /// Queries whose chain set this batch enumerated: the first query
    /// between nodes of a pair of fragment sets fills the planner's slot
    /// for it ([`Planner::chain_set`]), in whichever batch asks first.
    pub plans_computed: usize,
    /// Queries that read a chain set enumerated before.
    pub plans_reused: usize,
    /// Segment relations evaluated at a site.
    pub segments_computed: usize,
    /// Interior segment relations read from the sites' memos (no site
    /// work).
    pub segments_reused: usize,
}

impl BatchStats {
    /// Fraction of per-query work avoided: reused / (computed + reused),
    /// over plans and segments combined. 0.0 for a batch with no sharing.
    pub fn amortization(&self) -> f64 {
        let reused = (self.plans_reused + self.segments_reused) as f64;
        let total = reused + (self.plans_computed + self.segments_computed) as f64;
        if total == 0.0 {
            0.0
        } else {
            reused / total
        }
    }
}

/// Result of a batch: one [`QueryAnswer`] per request, in request order,
/// plus the batch-level amortization stats. Per-answer [`QueryStats`]
/// count only the site work actually performed *for that query* — work
/// served from the planner's chain table or the segment memos shows up
/// in [`BatchStats`] instead.
#[derive(Clone, Debug)]
pub struct BatchAnswer {
    pub answers: Vec<QueryAnswer>,
    pub stats: BatchStats,
}

impl BatchAnswer {
    /// The costs, in request order.
    pub fn costs(&self) -> Vec<Option<Cost>> {
        self.answers.iter().map(|a| a.cost).collect()
    }
}

/// A network change, expressed backend-independently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetworkUpdate {
    /// Insert a connection into fragment `owner`, plus the reverse
    /// direction on symmetric networks. Both endpoints must already
    /// belong to the owner: inserting within a region never changes the
    /// fragmentation's node sets, so the disconnection sets (and with
    /// them the border pairs each site's table has a slot for) stay
    /// fixed and only costs can improve, a missing tuple counting as
    /// infinite.
    Insert { edge: Edge, owner: FragmentId },
    /// Remove every connection `src -> dst` (and the reverse on symmetric
    /// networks) from fragment `owner`.
    Remove {
        src: NodeId,
        dst: NodeId,
        owner: FragmentId,
    },
}

/// The transitive closure query surface, whatever the placement of the
/// site subqueries.
///
/// Implementations answer exactly like the centralized baseline
/// (`crate::baseline`) on the default complementary scope — that is the
/// paper's correctness contract, and `tests/properties.rs` asserts it for
/// every backend. Methods take `&mut self` because the implementor owns
/// the scratch kernel its reads run on.
pub trait TcEngine {
    /// Short backend identifier ("inline", "site-threads", …).
    fn backend_name(&self) -> &'static str;

    /// Number of sites (fragments = processors).
    fn site_count(&self) -> usize;

    /// The fragmentation this engine serves.
    fn fragmentation(&self) -> &Fragmentation;

    /// Shortest-path cost from `x` to `y`, with chain/stats detail.
    /// Endpoints outside every fragment yield an unreachable answer.
    fn shortest_path(&mut self, x: NodeId, y: NodeId) -> QueryAnswer;

    /// Connection query — "is `x` connected to `y`?".
    fn connected(&mut self, x: NodeId, y: NodeId) -> bool;

    /// Reconstruct the full cheapest route (see
    /// [`crate::EngineSnapshot::route`]). Errs when an endpoint is in no
    /// fragment; `Ok(None)` when `y` is unreachable.
    fn route(&mut self, x: NodeId, y: NodeId) -> Result<Option<Route>, ClosureError>;

    /// Apply a network update, keeping answers exact afterwards.
    fn update(&mut self, update: &NetworkUpdate) -> Result<UpdateReport, ClosureError>;

    /// Per-phase timing of the pre-processing that deployed this engine
    /// (the paper's dominant cost): local sweeps, skeleton closure, table
    /// assembly. After a deletion that re-closed some pairs, reflects
    /// that re-close (its local-sweep phase is the skeleton patch).
    fn precompute_stats(&self) -> PrecomputeStats;

    /// An immutable, `Send + Sync` snapshot of this engine's current
    /// state (tables, per-site evaluation state, planner), ready to be shared
    /// across reader threads — the input to the `ds_serve` worker pool.
    /// The snapshot is independent of the engine: later updates to either
    /// side do not affect the other.
    fn snapshot(&self) -> EngineSnapshot;

    /// Apply a sequence of updates in order, collecting per-update
    /// reports. Stops at (and returns) the first error; updates applied
    /// before it remain applied.
    fn update_batch(
        &mut self,
        updates: &[NetworkUpdate],
    ) -> Result<UpdateBatchReport, ClosureError> {
        let mut reports = Vec::with_capacity(updates.len());
        for u in updates {
            reports.push(self.update(u)?);
        }
        Ok(UpdateBatchReport { reports })
    }

    /// Answer many shortest-path requests, amortizing chain planning (and
    /// interior segment evaluation) across the batch. Semantically
    /// equivalent to calling [`TcEngine::shortest_path`] per request.
    fn query_batch(&mut self, requests: &[QueryRequest]) -> BatchAnswer;
}

/// The structural edit rule — the one place a [`NetworkUpdate`] changes
/// the fragmented relation. Validates (the owner must exist, and an
/// insert's endpoints must already belong to it), edits the owner
/// fragment, and says whether the edge set changed: `false` only for a
/// removal that matched nothing. That verdict is the *effective update*
/// rule: an epoch is one effective update, whether it is counted by the
/// serve writer (through `crate::updates::maintain`, which reports a
/// no-op exactly when this returns `false`) or by `ds_durability::recover`
/// folding a log into a checkpoint's relation. Everything derived — the
/// closure graph ([`Fragmentation::closure_graph`]), the complementary
/// tables, the sites — follows from the edited relation.
pub fn apply_edit(
    frag: &mut Fragmentation,
    symmetric: bool,
    update: &NetworkUpdate,
) -> Result<bool, ClosureError> {
    validate(frag, update)?;
    match *update {
        NetworkUpdate::Insert { edge, owner } => {
            frag.fragment_mut(owner).add_edge(edge);
            Ok(true)
        }
        NetworkUpdate::Remove { src, dst, owner } => {
            let matches = |e: &Edge| e.connects(src, dst, symmetric);
            Ok(frag.fragment_mut(owner).remove_edges_matching(matches) > 0)
        }
    }
}

/// What [`apply_edit`] refuses: an owner that does not exist, an insert
/// with an endpoint outside the owner (growing a fragment's node set
/// would move the disconnection sets — a re-fragmentation, not an
/// update), or an insert whose cost is over
/// [`crate::bulk::max_edge_cost`] of the network's node count. Separate
/// so `crate::updates::maintain` can refuse an update *before* it
/// detaches a shared fragmentation (`Arc::make_mut`).
pub(crate) fn validate(frag: &Fragmentation, update: &NetworkUpdate) -> Result<(), ClosureError> {
    match *update {
        NetworkUpdate::Insert { edge, owner } => {
            if owner >= frag.fragment_count() {
                return Err(ClosureError::NodeNotInAnyFragment(edge.src));
            }
            for v in [edge.src, edge.dst] {
                if !frag.fragment(owner).contains_node(v) {
                    return Err(ClosureError::NodeNotInAnyFragment(v));
                }
            }
            let limit = max_edge_cost(frag.node_count());
            if edge.cost > limit {
                let cost = edge.cost;
                return Err(ClosureError::EdgeCostOverLimit { cost, limit });
            }
        }
        NetworkUpdate::Remove { src, owner, .. } => {
            if owner >= frag.fragment_count() {
                return Err(ClosureError::NodeNotInAnyFragment(src));
            }
        }
    }
    Ok(())
}

/// Where the evaluator's site subqueries run: the snapshot runs them on
/// the calling thread or one scoped thread each
/// ([`crate::executor::ExecutionMode`]); the evaluator's own tests count
/// them.
pub trait SiteEvaluator {
    /// Evaluate independent site subqueries, appending each one's costs —
    /// row-major over its sources and targets — to `out` in order, and
    /// adding the site accounting (site queries run, tuples produced,
    /// busy time) to `stats`.
    fn eval_sites<'q>(
        &mut self,
        queries: impl Iterator<Item = SiteQueryRef<'q>>,
        out: &mut Vec<Cost>,
        stats: &mut QueryStats,
    );

    /// The interior-segment memo of `site`, valid for the graph that
    /// site currently evaluates on.
    fn memo(&self, site: FragmentId) -> &SiteMemo;
}

/// The batch driver without deadlines or tracing: every request is
/// answered. See [`run_batch_bounded`], which it runs.
pub fn run_batch<E: SiteEvaluator>(
    planner: &Planner,
    eval: &mut E,
    requests: &[QueryRequest],
) -> BatchAnswer {
    let bounded = run_batch_bounded(planner, eval, requests, &[], None, &[]);
    BatchAnswer {
        answers: bounded
            .answers
            .into_iter()
            // Without deadlines no request can be cancelled; keep this
            // total anyway (an unanswered slot degrades to "unreachable",
            // never to a panic).
            .map(|a| a.unwrap_or_else(QueryAnswer::unreachable))
            .collect(),
        stats: bounded.stats,
    }
}

/// Result of a deadline-bounded batch ([`run_batch_bounded`]): `None`
/// marks a request abandoned at a deadline check instead of answered.
#[derive(Clone, Debug)]
pub struct BoundedBatchAnswer {
    pub answers: Vec<Option<QueryAnswer>>,
    pub stats: BatchStats,
}

/// The batch driver.
///
/// Per request: look the chain set up in the planner's table
/// ([`Planner::chain_set`]; enumerated once per fragment-set pair for the
/// life of the fragmentation), then evaluate it with the shared routine
/// described in the module documentation, over the calling thread's
/// working vectors.
///
/// *Tracing:* `traces[i]` is request `i`'s [`TraceId`] (an empty slice
/// means untraced), and when `sink` is given, one [`EvalTrace`] per
/// request is appended to it carrying the request's total evaluation time
/// and the assembly time of each chain. The untraced path takes no
/// timestamps and performs no extra work beyond one branch per request.
///
/// *Cooperative cancellation:* `deadlines[i]` is request `i`'s absolute
/// deadline (an empty slice, or `None` at a position, means unbounded).
/// The driver checks the clock between requests and — inside a request —
/// before the site subqueries are dispatched and between fragment chains.
/// A cancelled request yields `None`; work already performed for it
/// (plans, memoized interior segments) keeps benefiting the remaining
/// requests. The serve tier threads each job's admission-stamped deadline
/// through here and resolves `None` slots with
/// [`ClosureError::DeadlineExceeded`].
pub fn run_batch_bounded<E: SiteEvaluator>(
    planner: &Planner,
    eval: &mut E,
    requests: &[QueryRequest],
    traces: &[TraceId],
    mut sink: Option<&mut Vec<EvalTrace>>,
    deadlines: &[Option<Instant>],
) -> BoundedBatchAnswer {
    let mut stats = BatchStats {
        queries: requests.len(),
        ..BatchStats::default()
    };
    let mut answers = Vec::with_capacity(requests.len());
    BUFFERS.with_borrow_mut(|buf| {
        for (i, req) in requests.iter().enumerate() {
            let trace = traces.get(i).copied().unwrap_or(TraceId::NONE);
            let mut et = sink.as_ref().map(|_| EvalTrace {
                trace,
                ..EvalTrace::default()
            });
            let t0 = sink.as_ref().map(|_| Instant::now());
            let mut on = Evaluation {
                planner,
                qstats: &mut QueryStats::default(),
                bstats: &mut stats,
                trace: et.as_mut(),
                deadline: deadlines.get(i).copied().flatten(),
            };
            answers.push(one_query(eval, req, &mut on, buf));
            if let (Some(sink), Some(mut et), Some(t0)) = (sink.as_deref_mut(), et, t0) {
                et.eval_ns = t0.elapsed().as_nanos() as u64;
                sink.push(et);
            }
        }
    });
    BoundedBatchAnswer { answers, stats }
}

fn one_query<E: SiteEvaluator>(
    eval: &mut E,
    req: &QueryRequest,
    on: &mut Evaluation<'_>,
    buf: &mut Buffers,
) -> Option<QueryAnswer> {
    let (x, y) = (req.source, req.target);
    if x == y {
        return Some(QueryAnswer {
            cost: Some(0),
            best_chain: on.planner.fragments_of(x).first().map(|&f| Arc::from([f])),
            stats: QueryStats::default(),
        });
    }
    // Cooperative cancellation, checked before planning and again inside
    // the evaluation: a request whose deadline has passed is abandoned,
    // not evaluated.
    if expired(on.deadline) {
        return None;
    }
    // Endpoint in no fragment: unreachable, like shortest_path.
    let Ok((set, filled)) = on.planner.chain_set(x, y) else {
        return Some(QueryAnswer::unreachable());
    };
    if filled {
        on.bstats.plans_computed += 1;
    } else {
        on.bstats.plans_reused += 1;
    }
    on.qstats.enumerated = set.enumerated;
    let best = evaluate_chains(eval, &set.chains, (x, y), on, buf)?;
    Some(QueryAnswer {
        cost: best.map(|(cost, _)| cost),
        best_chain: best.map(|(_, i)| Arc::clone(&set.chains[i])),
        stats: std::mem::take(on.qstats),
    })
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// What one evaluation reads besides the chains, and where it accounts.
struct Evaluation<'a> {
    planner: &'a Planner,
    qstats: &'a mut QueryStats,
    bstats: &'a mut BatchStats,
    trace: Option<&'a mut EvalTrace>,
    deadline: Option<Instant>,
}

thread_local! {
    /// The evaluator's working vectors, one set per thread: a batch call
    /// borrows them for its queries, so they grow to the largest query a
    /// thread has evaluated and a warm query allocates nothing.
    static BUFFERS: RefCell<Buffers> = RefCell::new(Buffers::default());
}

/// Everything one query's evaluation fills, cleared at its start (see
/// [`BUFFERS`]).
#[derive(Debug, Default)]
struct Buffers {
    /// The chain ends through each endpoint site, deduplicated.
    legs: Vec<Leg>,
    /// Interior memo slots still empty, `[prev, site, next]`.
    fills: Vec<[FragmentId; 3]>,
    /// The subqueries' node lists, back to back: `x`, `y`, then each
    /// subquery's own.
    nodes: Vec<NodeId>,
    /// The subqueries, over ranges of `nodes`: one per endpoint site,
    /// then one per fill.
    jobs: Vec<Job>,
    /// The subqueries' costs, back to back in `jobs` order.
    costs: Vec<Cost>,
    fold: FoldBuffers,
}

/// One end of the chains through an endpoint site: the costs between the
/// query endpoint and the disconnection set shared with `other` — or, for
/// a chain of one fragment, between `x` and `y`, filed under
/// `other == site`. Every leg at one site and end is read out of a
/// single subquery from `x` (or to `y`).
#[derive(Debug)]
struct Leg {
    /// A chain's first fragment (costs from `x`) or its last (to `y`).
    from_x: bool,
    site: FragmentId,
    other: FragmentId,
    /// Where the leg's costs sit in `Buffers::costs`.
    costs: Range<usize>,
}

/// One site subquery over ranges of `Buffers::nodes`.
#[derive(Debug)]
struct Job {
    site: FragmentId,
    sources: Range<usize>,
    targets: Range<usize>,
}

/// Evaluate one query over its fragment chains: the one place a best
/// chain is chosen, as its cost and its index in `chains`. `None` is a
/// deadline cancellation; `Some(None)` means no chain connects `x` to
/// `y`. Among equally cheap chains the first in `chains` wins.
fn evaluate_chains<E: SiteEvaluator>(
    eval: &mut E,
    chains: &[Arc<[FragmentId]>],
    (x, y): (NodeId, NodeId),
    on: &mut Evaluation<'_>,
    buf: &mut Buffers,
) -> Option<Option<(Cost, usize)>> {
    let planner = on.planner;
    let Buffers {
        legs,
        fills,
        nodes,
        jobs,
        costs,
        fold: fold_buf,
    } = buf;
    legs.clear();
    fills.clear();
    // What depends on the query: one subquery per distinct first
    // fragment, one per distinct last fragment. What does not: the interior
    // relations, looked up in (and on first use evaluated into) the memos.
    let mut add_leg = |from_x, site, other| {
        if !(legs.iter()).any(|l| (l.from_x, l.site, l.other) == (from_x, site, other)) {
            legs.push(Leg {
                from_x,
                site,
                other,
                costs: 0..0,
            });
        }
    };
    for c in chains {
        let (first, last) = (c[0], c[c.len() - 1]);
        if c.len() == 1 {
            // Both endpoints in one fragment: the "junction" is `y`
            // itself, filed under the fragment's own id.
            add_leg(true, first, first);
            continue;
        }
        add_leg(true, first, c[1]);
        add_leg(false, last, c[c.len() - 2]);
        for w in c.windows(3) {
            let slot = [w[0], w[1], w[2]];
            if eval.memo(w[1]).get(w[0], w[2]).is_some() || fills.contains(&slot) {
                on.bstats.segments_reused += 1;
            } else {
                fills.push(slot);
            }
        }
    }
    // One subquery per site and end, over every leg there; a leg's costs
    // are its nodes' stretch of the subquery's single row (or column).
    nodes.clear();
    nodes.extend([x, y]);
    jobs.clear();
    let mut evaluated = 0;
    for i in 0..legs.len() {
        let (from_x, site) = (legs[i].from_x, legs[i].site);
        let same_job = |l: &Leg| (l.from_x, l.site) == (from_x, site);
        if legs[..i].iter().any(same_job) {
            continue;
        }
        let start = nodes.len();
        for leg in legs[i..].iter_mut().filter(|l| same_job(l)) {
            let at = evaluated + nodes.len() - start;
            if leg.other == site {
                nodes.push(y);
            } else {
                nodes.extend_from_slice(planner.ds_between(site, leg.other));
            }
            leg.costs = at..evaluated + nodes.len() - start;
        }
        let (sources, targets) = if from_x {
            (0..1, start..nodes.len())
        } else {
            (start..nodes.len(), 1..2)
        };
        evaluated += nodes.len() - start;
        jobs.push(Job {
            site,
            sources,
            targets,
        });
    }
    for &[prev, site, next] in fills.iter() {
        let start = nodes.len();
        nodes.extend_from_slice(planner.ds_between(prev, site));
        let mid = nodes.len();
        nodes.extend_from_slice(planner.ds_between(site, next));
        jobs.push(Job {
            site,
            sources: start..mid,
            targets: mid..nodes.len(),
        });
    }
    if expired(on.deadline) {
        return None;
    }
    costs.clear();
    let queries = jobs.iter().map(|j| SiteQueryRef {
        site: j.site,
        sources: &nodes[j.sources.clone()],
        targets: &nodes[j.targets.clone()],
    });
    eval.eval_sites(queries, costs, on.qstats);
    on.bstats.segments_computed += jobs.len();
    let mut rest = &costs[evaluated..];
    for (&[prev, site, next], job) in fills.iter().zip(&jobs[jobs.len() - fills.len()..]) {
        let (rows, cols) = (job.sources.len(), job.targets.len());
        let (m, later) = rest.split_at(rows * cols);
        rest = later;
        eval.memo(site)
            .fill(prev, next, SegmentMatrix::new(rows, cols, m.to_vec()));
    }

    let eval: &E = eval;
    let memo = move |w: &[FragmentId]| {
        eval.memo(w[1])
            .get(w[0], w[2])
            .expect("filled before the fold")
    };
    let leg = |from_x, site, other| {
        let leg = (legs.iter())
            .find(|l| (l.from_x, l.site, l.other) == (from_x, site, other))
            .expect("every chain end was given a leg");
        leg.costs.clone()
    };
    // A chain's cost if below `bound`.
    let mut fold = |c: &[FragmentId], bound: Cost| {
        if c.len() == 1 {
            let cost = costs[leg(true, c[0], c[0]).start];
            return (cost < bound).then_some(cost);
        }
        assemble::fold_chain(
            &costs[leg(true, c[0], c[1])],
            c.windows(3).map(memo),
            &costs[leg(false, c[c.len() - 1], c[c.len() - 2])],
            bound,
            fold_buf,
        )
    };
    let mut best: Option<(Cost, usize)> = None;
    for (i, c) in chains.iter().enumerate() {
        if expired(on.deadline) {
            return None;
        }
        let t0 = on.trace.as_ref().map(|_| Instant::now());
        on.qstats.chains_evaluated += 1;
        // Only a chain strictly cheaper than the best so far replaces it.
        let bound = best.map_or(INFINITE_COST, |(b, _)| b);
        if let Some(cost) = fold(c, bound) {
            best = Some((cost, i));
        }
        if let (Some(tr), Some(t0)) = (on.trace.as_deref_mut(), t0) {
            tr.chains.push(ChainEval {
                chain: i as u32,
                ns: t0.elapsed().as_nanos() as u64,
            });
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run_chain, ExecutionMode};
    use crate::local::{augmented_graph, forward_matrix};
    use crate::planner::tests::{four_fragment_ring, three_fragment_path};
    use ds_fragment::Membership;
    use ds_graph::{CsrGraph, ScratchDijkstra};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs
            .iter()
            .map(|&(a, b)| Edge::unit(NodeId(a), NodeId(b)))
            .collect()
    }

    /// Plain forward sweeps over the fragments' own graphs (no shortcuts),
    /// counting the subqueries asked for.
    struct CountingEval {
        augmented: Vec<Arc<CsrGraph>>,
        memos: Vec<SiteMemo>,
        evaluated: usize,
    }

    impl SiteEvaluator for CountingEval {
        fn eval_sites<'q>(
            &mut self,
            queries: impl Iterator<Item = SiteQueryRef<'q>>,
            out: &mut Vec<Cost>,
            stats: &mut QueryStats,
        ) {
            let mut scratch = ScratchDijkstra::new();
            for q in queries {
                self.evaluated += 1;
                stats.site_queries += 1;
                let m = forward_matrix(&self.augmented[q.site], q.sources, q.targets, &mut scratch);
                out.extend_from_slice(m.costs());
            }
        }

        fn memo(&self, site: FragmentId) -> &SiteMemo {
            &self.memos[site]
        }
    }

    fn counting_eval(frag: &Fragmentation, symmetric: bool) -> CountingEval {
        let fg = frag.fragmentation_graph();
        CountingEval {
            augmented: frag
                .fragments()
                .iter()
                .map(|f| Arc::new(augmented_graph(frag.node_count(), f.edges(), symmetric, [])))
                .collect(),
            memos: (0..frag.fragment_count())
                .map(|f| SiteMemo::new(fg.neighbors(f)))
                .collect(),
            evaluated: 0,
        }
    }

    /// The reference evaluation: every chain as planned, swept forward
    /// source by source, folded by hash joins.
    fn reference_cost(
        planner: &Planner,
        eval: &CountingEval,
        x: NodeId,
        y: NodeId,
    ) -> Option<Cost> {
        let mut scratch = ScratchDijkstra::new();
        let plan = planner.plan(x, y).unwrap();
        plan.chains
            .iter()
            .filter_map(|chain| {
                let (segments, _) = run_chain(
                    &eval.augmented,
                    chain,
                    ExecutionMode::Sequential,
                    &mut scratch,
                );
                assemble::chain_cost_refs(&segments.iter().collect::<Vec<_>>(), x, y)
            })
            .min()
    }

    /// Chain sets are the planner's: enumerated once per pair of
    /// endpoint fragment sets, they outlive the batch that enumerated
    /// them, as the interior segments do.
    #[test]
    fn batch_planner_caches_chain_sets() {
        let frag = three_fragment_path();
        let planner = Planner::new(Membership::new(&frag), 16, 8, None);
        let (set, filled) = planner.chain_set(n(0), n(6)).unwrap();
        assert_eq!(set.chains, vec![Arc::from([0, 1, 2])]);
        assert!(filled, "first plan computes");
        let (again, filled) = planner.chain_set(n(1), n(5)).unwrap();
        assert!(!filled, "same fragment pair reuses the chain set");
        assert!(std::ptr::eq(set, again), "the very same set");
        let (_, filled) = planner.chain_set(n(0), n(1)).unwrap();
        assert!(filled, "different fragment pair computes");
        assert_eq!(
            planner.chain_set(n(0), n(9)).unwrap_err(),
            ClosureError::NodeNotInAnyFragment(n(9))
        );
        // A batch reads the table: nothing left to plan for these pairs.
        let mut eval = counting_eval(&frag, true);
        let requests = [QueryRequest::new(n(0), n(5)), QueryRequest::new(n(6), n(0))];
        let batch = run_batch(&planner, &mut eval, &requests);
        assert_eq!(
            (batch.stats.plans_computed, batch.stats.plans_reused),
            (1, 1)
        );
        let batch = run_batch(&planner, &mut eval, &requests);
        assert_eq!(
            (batch.stats.plans_computed, batch.stats.plans_reused),
            (0, 2)
        );
        assert_eq!(planner.plans_filled(), 3);
        // An answer's chain is the table's, shared by pointer.
        let best = batch.answers[0].best_chain.as_ref().unwrap();
        assert!(Arc::ptr_eq(best, &set.chains[0]));
    }

    #[test]
    fn interior_segments_are_evaluated_once_and_outlive_the_batch() {
        let frag = three_fragment_path();
        let planner = Planner::new(Membership::new(&frag), 16, 8, None);
        let mut eval = counting_eval(&frag, true);
        // Three cross-chain queries share the one interior subquery of the
        // length-3 chain: 1 interior + 2 endpoints x 3 queries = 7 evals,
        // not 9.
        let requests: Vec<QueryRequest> = [(0, 6), (1, 5), (0, 5)]
            .iter()
            .map(|&(a, b)| (n(a), n(b)).into())
            .collect();
        let batch = run_batch(&planner, &mut eval, &requests);
        assert_eq!(batch.costs(), vec![Some(6), Some(4), Some(5)]);
        assert_eq!(eval.evaluated, 7, "interior segment computed once");
        assert_eq!(batch.answers[0].stats.site_queries, 3);
        assert_eq!(batch.answers[1].stats.site_queries, 2);
        assert_eq!(batch.stats.plans_computed, 1);
        assert_eq!(batch.stats.plans_reused, 2);
        assert_eq!(batch.stats.segments_computed, 7);
        assert_eq!(batch.stats.segments_reused, 2);
        assert!(batch.stats.amortization() > 0.3);
        // The memo belongs to the sites, not to the batch: a later batch
        // pays for its two endpoint sweeps only.
        let again = run_batch(&planner, &mut eval, &requests[..1]);
        assert_eq!(again.costs(), vec![Some(6)]);
        assert_eq!(eval.evaluated, 9);
        assert_eq!(again.stats.segments_computed, 2);
        assert_eq!(again.stats.segments_reused, 1);
    }

    #[test]
    fn endpoint_sweeps_are_shared_by_every_chain_through_the_site() {
        for symmetric in [true, false] {
            let frag = four_fragment_ring();
            let planner = Planner::new(Membership::new(&frag), 16, 8, None);
            let mut eval = counting_eval(&frag, symmetric);
            // 1 is in fragments 0 and 1, 4 in fragment 2 only: chains
            // [0,1,2], [0,3,2], [1,2] and [1,0,3,2].
            let req = [QueryRequest::new(n(1), n(4))];
            let first = run_batch(&planner, &mut eval, &req);
            let a = &first.answers[0];
            assert_eq!(a.stats.chains_evaluated, 4);
            assert!(a.stats.enumerated);
            assert_eq!(a.cost, reference_cost(&planner, &eval, n(1), n(4)));
            assert_eq!(a.cost, Some(3));
            assert_eq!(
                a.best_chain.as_deref(),
                Some(&[0, 1, 2][..]),
                "first cheapest chain"
            );
            // Two sweeps from x (sites 0 and 1), one from y (site 2),
            // three distinct interior slots — [0,3,2] and [1,0,3,2] cross
            // site 3 the same way.
            assert_eq!(eval.evaluated, 6);
            assert_eq!(a.stats.site_queries, 6);
            assert_eq!(first.stats.segments_computed, 6);
            assert_eq!(first.stats.segments_reused, 1);
            // Warm: only what depends on the query is evaluated.
            let warm = run_batch(&planner, &mut eval, &req);
            assert_eq!(warm.answers[0].cost, a.cost);
            assert_eq!(warm.answers[0].stats.site_queries, 3);
            assert_eq!(warm.stats.segments_reused, 4);
            // Every pair, against the reference, both ways.
            let all: Vec<QueryRequest> = (0..8)
                .flat_map(|x| (0..8).map(move |y| QueryRequest::new(n(x), n(y))))
                .collect();
            let batch = run_batch(&planner, &mut eval, &all);
            for (r, a) in all.iter().zip(&batch.answers) {
                let want = if r.source == r.target {
                    Some(0)
                } else {
                    reference_cost(&planner, &eval, r.source, r.target)
                };
                assert_eq!(a.cost, want, "symmetric={symmetric} {r:?}");
            }
        }
    }

    #[test]
    fn batch_same_node_and_unknown_node() {
        let frag = Fragmentation::new(3, vec![edges(&[(0, 1)])], vec![vec![]]);
        let planner = Planner::new(Membership::new(&frag), 16, 8, None);
        let mut eval = counting_eval(&frag, true);
        let requests = vec![QueryRequest::new(n(1), n(1)), QueryRequest::new(n(0), n(2))];
        let batch = run_batch(&planner, &mut eval, &requests);
        assert_eq!(batch.answers[0].cost, Some(0));
        assert_eq!(
            batch.answers[1].cost, None,
            "node 2 in no fragment: unreachable"
        );
    }

    #[test]
    fn an_expired_deadline_cancels_before_any_site_work() {
        let frag = three_fragment_path();
        let planner = Planner::new(Membership::new(&frag), 16, 8, None);
        let mut eval = counting_eval(&frag, true);
        let requests = vec![QueryRequest::new(n(0), n(6)), QueryRequest::new(n(1), n(5))];
        let bounded = run_batch_bounded(
            &planner,
            &mut eval,
            &requests,
            &[],
            None,
            &[Some(Instant::now()), None],
        );
        assert!(bounded.answers[0].is_none(), "deadline already passed");
        assert_eq!(bounded.answers[1].as_ref().unwrap().cost, Some(4));
        assert_eq!(eval.evaluated, 3, "only the second request was evaluated");
    }

    #[test]
    fn traced_batch_matches_untraced_and_times_chains() {
        let frag = three_fragment_path();
        let planner = Planner::new(Membership::new(&frag), 16, 8, None);
        let requests: Vec<QueryRequest> = [(0, 6), (1, 5), (3, 3)]
            .iter()
            .map(|&(a, b)| (n(a), n(b)).into())
            .collect();
        let plain = run_batch(&planner, &mut counting_eval(&frag, true), &requests);
        let traces: Vec<TraceId> = (1..=3).map(TraceId).collect();
        let mut sink = Vec::new();
        let traced = run_batch_bounded(
            &planner,
            &mut counting_eval(&frag, true),
            &requests,
            &traces,
            Some(&mut sink),
            &[],
        );
        let traced: Vec<Option<Cost>> = (traced.answers.iter())
            .map(|a| a.as_ref().expect("no deadline, no cancellation").cost)
            .collect();
        assert_eq!(plain.costs(), traced, "tracing changes no answer");
        assert_eq!(sink.len(), 3, "one EvalTrace per request");
        for (i, et) in sink.iter().enumerate() {
            assert_eq!(et.trace, traces[i]);
        }
        // Cross-fragment queries evaluated at least one chain; the
        // same-node request (3,3) short-circuits with none.
        assert!(!sink[0].chains.is_empty());
        assert!(sink[2].chains.is_empty());
        assert!(sink[0].eval_ns >= sink[0].chains.iter().map(|c| c.ns).sum::<u64>());
    }
}
