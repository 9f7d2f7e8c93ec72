//! The engine: everything queries read, nothing they write, derived
//! from the fragmented relation alone.
//!
//! The paper's data model is one thing — a relation partitioned into
//! fragments — and everything else is derived from it:
//! [`EngineSnapshot::build`] takes the [`Fragmentation`], the symmetry
//! flag and the [`EngineConfig`] (exactly what a durable checkpoint
//! stores) and derives the closure graph, the complementary information,
//! the sites and the planner — and, for the first `connected` that asks,
//! the reachability index.
//!
//! The paper's phase-one independence is a statement about *data*: query
//! evaluation only ever reads the precomputed complementary information,
//! the per-site evaluation state ([`Site`]: the fragment's own graph, the
//! border index, the access sets and border-free rows) read against the
//! epoch's hub, and the planner with its chain table. The mutable pieces — the Dijkstra
//! scratch, the evaluator's working vectors — are per-*execution* state,
//! not engine state: the caller owns the scratch, and each thread keeps
//! its own working vectors (see [`crate::api`]):
//!
//! * a snapshot is `Send + Sync` and can be shared across any number of
//!   reader threads behind an `Arc` (the `ds_serve` crate does exactly
//!   that: one snapshot, one worker pool, per-worker scratch);
//! * every query method takes `&self` plus a caller-owned
//!   [`ScratchDijkstra`], so concurrent readers never contend;
//! * updates go through [`EngineSnapshot::maintain`], which mutates in
//!   place — an exclusive owner (the `System` facade, the serve writer
//!   thread working on a private clone) applies the incremental
//!   maintenance of [`crate::updates`] and republishes.
//!
//! ## Structural sharing
//!
//! A site is one thing: everything an epoch holds per fragment — its own
//! graph, the access sets and border-free rows filled so far, the
//! augmented graph once something asked for it — is one [`Site`] behind
//! one `Arc`; its border distances are the epoch's one [`Hub`], which
//! every site and every chain fold reads and none copies. The whole-graph pieces
//! (global graph, fragmentation, planner, reachability index) have an
//! `Arc` each; an update detaches the fragmentation once per shared
//! epoch ([`std::sync::Arc::make_mut`]). Cloning a
//! snapshot therefore costs O(sites) refcount bumps, not a deep copy:
//! that is what makes the serve writer's per-epoch publication cheap. [`EngineSnapshot::maintain`] preserves
//! the sharing — it replaces exactly one `Arc<Site>` per site an update
//! touched (the owner, and every site holding both borders of a hub
//! entry the update changed) and leaves every other site
//! pointer-shared with the previous epoch. `tests/properties.rs` asserts
//! `Arc::ptr_eq` for untouched sites across consecutive epochs on both
//! fragmenter families.
//!
//! ## No augmented graph on the build or publication path
//!
//! A site answers its subqueries from the hub and the access sets
//! ([`crate::local`]), so neither [`EngineSnapshot::build`] nor
//! [`EngineSnapshot::maintain_cow`] lays the shortcut clique over a
//! fragment. [`EngineSnapshot::augmented_handle`] hands the augmented
//! graph out to those who sweep it — the reference evaluator
//! [`crate::executor::run_chain`], benches — and builds it on first use,
//! inside the `Arc`-shared site.

use std::sync::{Arc, OnceLock};

use ds_fragment::{FragmentId, Fragmentation, Membership};
use ds_graph::{Cost, CsrGraph, NodeId, ReachIndex, ScratchDijkstra};

use ds_relation::bulk::{MaterializeConfig, MaterializeError, MaterializeStats};
use ds_relation::{PathTuple, Relation};

use crate::api::{run_batch, BatchAnswer, NetworkUpdate, QueryRequest, SiteEvaluator};
use crate::bulk::{assert_admitted, BorderRows, Hub};
use crate::complementary::{local_graphs, ComplementaryInfo, PrecomputeStats};
use crate::engine::{EngineConfig, QueryAnswer, QueryStats, Route};
use crate::error::ClosureError;
use crate::executor::{run_sites, ExecutionMode};
use crate::local::{augmented_graph, border_matrix_with, Site};
use crate::planner::{Planner, SiteQueryRef};
use crate::updates::{ConnectivityEffect, UpdateReport};

/// The deployed engine — immutable and shareable: the fragmentation and,
/// derived from it, the global closure graph, the complementary
/// information, the per-site evaluation state and the chain planner.
///
/// A snapshot answers queries through `&self` methods that borrow a
/// caller-owned scratch kernel; it never locks and never allocates
/// per-query beyond the answer itself. Sharing is by `Arc`: the serve
/// subsystem publishes a snapshot per *epoch* and lets in-flight readers
/// finish on whatever epoch they started with.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    graph: Arc<CsrGraph>,
    frag: Arc<Fragmentation>,
    symmetric: bool,
    cfg: EngineConfig,
    comp: ComplementaryInfo,
    /// Per site, behind its own `Arc`: everything valid for exactly this
    /// fragment and its borders' hub entries — the fragment's own graph,
    /// the border index, the access sets and border-free rows filled so
    /// far (see [`crate::local`]).
    sites: Vec<Arc<Site>>,
    planner: Arc<Planner>,
    /// SCC/chain reachability index over the global closure graph, the
    /// answer behind [`EngineSnapshot::connected`]: built by the first
    /// reader that asks (Tarjan plus the chain DP, no Dijkstra), once per
    /// epoch. An update keeps a built index when it provably left
    /// reachability alone and empties the slot otherwise. Arc-shared
    /// across epochs like every other component: a kept index costs one
    /// refcount bump per publication.
    reach: OnceLock<Arc<ReachIndex>>,
    /// The hub folded into the exit sets ([`BorderRows`]), what a
    /// materialized source reads: each row filled by the first
    /// materialization of the epoch that needs it, shared by the clones
    /// of this epoch, emptied by every write that replaces a site.
    border_rows: Arc<BorderRows>,
}

/// What one [`EngineSnapshot::maintain_cow`] call replaced: the update
/// report plus the concrete per-site sharing outcome, so callers (and the
/// structural-sharing property tests) know exactly which sites' Arcs were
/// detached from the previous epoch.
#[derive(Clone, Debug)]
pub struct CowMaintenance {
    pub report: UpdateReport,
    /// The fragment whose edge set changed (`None` for a no-op removal):
    /// its [`Site`] was replaced.
    pub owner: Option<FragmentId>,
    /// Sites holding both borders of a hub entry the update changed,
    /// whose [`Site`] was replaced: their access sets were pruned by it.
    pub shortcut_sites: Vec<FragmentId>,
    /// Union of `owner` and `shortcut_sites`, sorted: the sites whose
    /// [`Site`] is *not* shared with the pre-update snapshot. Every
    /// other site remains `Arc::ptr_eq` with it.
    pub touched_sites: Vec<FragmentId>,
    /// Whether a built reachability index survived this update. `false`
    /// means there was none, or it was dropped as stale; the next
    /// `connected` builds it afresh.
    pub reach_kept: bool,
}

/// One end of a route: the endpoint's fragment, `None` for a border, and
/// the borders it enters or leaves the skeleton by.
struct RouteEnd {
    site: Option<FragmentId>,
    borders: Vec<RouteBorder>,
}

/// A border a route end touches: its skeleton id, its cost from or to
/// the endpoint, and the path between the two, in travel order.
type RouteBorder = (usize, Cost, Vec<NodeId>);

/// What [`EngineSnapshot::memory_bytes`] reports: heap bytes per
/// component of one epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotBytes {
    /// The global closure graph.
    pub graph: usize,
    /// The complementary information but the hub: the kept skeleton and
    /// every fragment's kept local sweeps
    /// ([`ComplementaryInfo::memory_bytes`]).
    pub complementary: usize,
    /// Per site: the fragment's own graph (and transpose), node list,
    /// access-set slots and — once asked for — the augmented graph.
    pub site_graphs: usize,
    /// Per site: the border index (local, global and skeleton ids); the
    /// distances between the borders are the hub's.
    pub border_matrices: usize,
    /// Per site: the access sets and border-free rows filled so far.
    pub access_sets: usize,
    /// The reachability index, once a reader has built it.
    pub reach_index: usize,
    /// The planner's membership table and chain table, the chain sets filled
    /// so far included ([`Planner::memory_bytes`]).
    pub planner: usize,
    /// The hub ([`ComplementaryInfo::hub`]): B² 32-bit words, 4·B²
    /// bytes.
    pub hub: usize,
    /// The materializer's border rows filled so far: n 32-bit words
    /// each.
    pub border_rows: usize,
}

impl SnapshotBytes {
    /// Every component with its name, in declaration order.
    pub fn components(&self) -> [(&'static str, usize); 9] {
        [
            ("graph", self.graph),
            ("complementary", self.complementary),
            ("site_graphs", self.site_graphs),
            ("border_matrices", self.border_matrices),
            ("access_sets", self.access_sets),
            ("reach_index", self.reach_index),
            ("planner", self.planner),
            ("hub", self.hub),
            ("border_rows", self.border_rows),
        ]
    }

    /// All components together.
    pub fn total(&self) -> usize {
        self.components().iter().map(|&(_, bytes)| bytes).sum()
    }
}

impl EngineSnapshot {
    /// Build the engine from its only input, the fragmented relation:
    /// derive the closure graph ([`Fragmentation::closure_graph`];
    /// `symmetric` declares that each fragment tuple stands for both
    /// travel directions), compute the complementary information (the
    /// paper's pre-processing phase, whose skeleton closure is the epoch's
    /// [`Hub`]), then the planner and the per-site evaluation state (each
    /// reading the hub). The reachability index waits for the
    /// first [`EngineSnapshot::connected`].
    ///
    /// # Panics
    ///
    /// If an edge costs more than [`crate::bulk::max_edge_cost`] of the
    /// fragmentation's node count — `(n − 1) · c ≥ u32::MAX / 4` — since
    /// the hub and the border rows hold distances in 32-bit words. The
    /// builder (`discset::SystemBuilder::build`) and every insert refuse
    /// such an edge with a typed error instead.
    pub fn build(frag: Fragmentation, symmetric: bool, cfg: EngineConfig) -> Self {
        assert_admitted(&frag);
        let graph = frag.closure_graph(symmetric);
        let membership = Membership::new(&frag);
        let locals = local_graphs(&frag, symmetric);
        let comp = ComplementaryInfo::compute_with(&graph, &frag, &membership, &locals);
        let (chains, chain_len) = (cfg.max_chains, cfg.max_chain_len);
        let planner = Arc::new(Planner::new(membership, chains, chain_len));
        let sites = (locals.into_iter().enumerate())
            .map(|(f, local)| Arc::new(Site::build(local, comp.site_borders(f))))
            .collect();
        let border_rows = Arc::new(BorderRows::new(comp.border_count()));
        EngineSnapshot {
            graph: Arc::new(graph),
            frag: Arc::new(frag),
            symmetric,
            cfg,
            comp,
            sites,
            planner,
            reach: OnceLock::new(),
            border_rows,
        }
    }

    /// A deep copy that shares **nothing** with `self`: every component —
    /// global graph, fragmentation, planner, every site, the
    /// complementary information and its hub, a built reachability index,
    /// the materializer's border rows — gets a fresh allocation. The
    /// copy's planner starts with an empty chain table, so no chain is
    /// shared with this lineage's answers.
    ///
    /// This is exactly what a per-epoch publication cost before
    /// structural sharing; the gates bench uses it as the baseline of the
    /// publication-cost ratio. It is also the right tool to detach
    /// a snapshot from a long-lived shared lineage (e.g. to archive one
    /// epoch without pinning another epoch's memory).
    pub fn unshared_clone(&self) -> Self {
        let comp = self.comp.unshared_clone();
        let sites = (self.sites.iter())
            .map(|s| Arc::new(s.unshared_clone()))
            .collect();
        let reach = OnceLock::new();
        if let Some(r) = self.reach.get() {
            let _ = reach.set(Arc::new((**r).clone()));
        }
        EngineSnapshot {
            graph: Arc::new((*self.graph).clone()),
            frag: Arc::new((*self.frag).clone()),
            symmetric: self.symmetric,
            cfg: self.cfg.clone(),
            comp,
            sites,
            planner: Arc::new(self.planner.unshared_clone()),
            reach,
            border_rows: Arc::new((*self.border_rows).clone()),
        }
    }

    // --- accessors -----------------------------------------------------

    /// The global closure graph this snapshot answers for.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The fragmentation this snapshot serves.
    pub fn fragmentation(&self) -> &Fragmentation {
        &self.frag
    }

    /// Number of sites (fragments = processors).
    pub fn site_count(&self) -> usize {
        self.frag.fragment_count()
    }

    /// Whether fragment tuples stand for both travel directions.
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// The engine configuration the snapshot was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The precomputed complementary information.
    pub fn complementary(&self) -> &ComplementaryInfo {
        &self.comp
    }

    /// The chain planner over this snapshot's fragmentation.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    // --- structural-sharing handles ------------------------------------

    /// The shared handle behind site `f`: its own graph, border index,
    /// access sets and border-free rows. Two
    /// snapshots whose handles are `Arc::ptr_eq` physically share all of
    /// it — the structural-sharing contract across epochs.
    pub fn site_handle(&self, f: FragmentId) -> &Arc<Site> {
        &self.sites[f]
    }

    /// The shared handle behind site `f`'s augmented graph (fragment
    /// edges plus one edge per finite hub entry between two of its
    /// borders, over global node ids).
    /// Neither queries nor routes sweep it, so it is built on the first
    /// call — by the reference evaluator
    /// ([`crate::executor::run_chain`]) or by a bench — inside the shared
    /// [`Site`]: untouched sites keep returning the same `Arc` across
    /// epochs.
    pub fn augmented_handle(&self, f: FragmentId) -> &Arc<CsrGraph> {
        self.sites[f].augmented_or_build(|| {
            augmented_graph(
                self.graph.node_count(),
                self.frag.fragment(f).edges(),
                self.symmetric,
                self.comp.shortcuts(f),
            )
        })
    }

    /// Heap bytes this epoch holds, by component — "how much memory does
    /// epoch N hold". Components shared with another epoch are counted
    /// in every epoch that holds them.
    pub fn memory_bytes(&self) -> SnapshotBytes {
        let mut bytes = SnapshotBytes {
            graph: self.graph.memory_bytes(),
            complementary: self.comp.memory_bytes(),
            reach_index: self.reach.get().map_or(0, |r| r.memory_bytes()),
            planner: self.planner.memory_bytes(),
            hub: self.comp.hub().memory_bytes(),
            border_rows: self.border_rows.memory_bytes(),
            ..SnapshotBytes::default()
        };
        for site in &self.sites {
            let s = site.memory_bytes();
            bytes.site_graphs += s.graph;
            bytes.border_matrices += s.border_matrix;
            bytes.access_sets += s.access_sets;
        }
        bytes
    }

    /// The shared handle behind the global closure graph.
    pub fn graph_handle(&self) -> &Arc<CsrGraph> {
        &self.graph
    }

    /// The shared handle behind the chain planner.
    pub fn planner_handle(&self) -> &Arc<Planner> {
        &self.planner
    }

    /// The reachability index, built on this call if no reader of this
    /// epoch has built it yet (linear in the graph; concurrent first
    /// readers wait for one build).
    pub fn reach_index(&self) -> &ReachIndex {
        self.reach
            .get_or_init(|| Arc::new(ReachIndex::build(&self.graph)))
    }

    /// The shared handle behind the reachability index, if built (for the
    /// structural-sharing property tests: a kept index stays
    /// `Arc::ptr_eq` across epochs).
    pub fn reach_handle(&self) -> Option<&Arc<ReachIndex>> {
        self.reach.get()
    }

    /// Build the reachability index now unless it is built — what the
    /// first [`EngineSnapshot::connected`] would do, for a caller that
    /// wants to time the build or take it off a reader's path.
    pub fn ensure_reach(&self) {
        self.reach_index();
    }

    /// Take `other`'s built reachability index into this snapshot's
    /// empty slot when both answer for the same closure graph
    /// (`Arc::ptr_eq`): the index is a function of the graph alone. A
    /// writer that maintains a private copy of the snapshot its readers
    /// build the index in calls this before each update, so an update
    /// that leaves reachability alone keeps the readers' index.
    pub fn adopt_reach(&self, other: &EngineSnapshot) {
        if let Some(r) = other.reach.get() {
            if Arc::ptr_eq(&self.graph, &other.graph) {
                let _ = self.reach.set(Arc::clone(r));
            }
        }
    }

    /// The shared handle behind the hub ([`ComplementaryInfo::hub`]),
    /// which every epoch holds: made by the build and kept exact by every
    /// write, it stays `Arc::ptr_eq` across a write that changed none of
    /// its entries.
    pub fn hub_handle(&self) -> &Arc<Hub> {
        self.comp.hub()
    }

    /// The materializer's border rows: the ones a materialization of
    /// this epoch filled, by skeleton id.
    pub fn border_rows(&self) -> &BorderRows {
        &self.border_rows
    }

    /// Materialize the transitive closure — every minimum-cost
    /// `(src, dst, cost)` path tuple from [`MaterializeConfig::sources`]
    /// (all nodes when `None`), sorted — from the epoch's complementary
    /// information ([`crate::bulk`]): one min-plus fold per source of
    /// its access set with the epoch's border rows, plus its border-free
    /// row, in blocks of node ids whose rows are written once, in place,
    /// into the returned relation. The first call of an epoch fills the
    /// sites' exit sets and then the border rows its sources read, on its
    /// own workers, folding the hub the epoch holds — it closes nothing;
    /// a later call folds nothing the epoch already holds. The result is
    /// tuple-identical to [`ds_relation::tc::seminaive_closure`] over the
    /// fragments' union.
    ///
    /// Errors with [`MaterializeError::WorkerPanicked`] when a task
    /// panics or an injected fault kills it; every worker has joined by
    /// then, and what the run left in the epoch is exact, so a retry
    /// finishes the job.
    pub fn materialize(
        &self,
        config: &MaterializeConfig,
    ) -> Result<(Relation<PathTuple>, MaterializeStats), MaterializeError> {
        crate::bulk::engine::materialize(self, config)
    }

    /// Per-phase timing of the precompute that built (or last re-closed)
    /// the hub this snapshot serves.
    pub fn precompute_stats(&self) -> PrecomputeStats {
        self.comp.precompute_stats()
    }

    // --- queries (&self + caller-owned scratch) ------------------------

    /// Shortest-path cost from `x` to `y` on `scratch` — a batch of one.
    /// Nodes outside every fragment yield an unreachable answer.
    pub fn shortest_path(
        &self,
        x: NodeId,
        y: NodeId,
        scratch: &mut ScratchDijkstra,
    ) -> QueryAnswer {
        self.query_batch(&[QueryRequest::new(x, y)], scratch)
            .answers
            .pop()
            .expect("one answer per request")
    }

    /// Connection query — "is `x` connected to `y`?".
    ///
    /// Answered by the SCC/chain reachability index — one component
    /// comparison plus at most one binary search, no Dijkstra sweep. The
    /// first call of an epoch builds the index ([`EngineSnapshot::reach_index`]).
    /// A node outside the graph reaches nothing but itself.
    pub fn connected(&self, x: NodeId, y: NodeId) -> bool {
        if x == y {
            return true;
        }
        let reach = self.reach_index();
        x.index() < reach.node_count() && y.index() < reach.node_count() && reach.reaches(x, y)
    }

    /// Answer many shortest-path requests on `scratch`, amortizing chain
    /// planning across the batch and reading interior segments off this
    /// epoch's hub (see [`crate::api::run_batch_bounded`]).
    pub fn query_batch(
        &self,
        requests: &[QueryRequest],
        scratch: &mut ScratchDijkstra,
    ) -> BatchAnswer {
        run_batch(&self.planner, &mut self.evaluator(scratch), requests)
    }

    fn evaluator<'a>(&'a self, scratch: &'a mut ScratchDijkstra) -> SnapshotEval<'a> {
        SnapshotEval {
            sites: &self.sites,
            hub: self.comp.hub(),
            mode: self.cfg.mode,
            scratch,
        }
    }

    /// [`EngineSnapshot::query_batch`] with request tracing and
    /// cooperative cancellation. `traces[i]` is request `i`'s id, and
    /// per-request evaluation timings (total plus per-chain segments) are
    /// appended to `sink`; pass an empty slice and `None` on the untraced
    /// path. `deadlines[i]` is request `i`'s absolute deadline (empty
    /// slice or `None` = unbounded), checked between requests, before a
    /// request's sweeps and between its chains. A request that blows its
    /// deadline mid-evaluation comes back as `None` instead of an answer;
    /// the serve tier resolves those with
    /// [`ClosureError::DeadlineExceeded`]. Answers are otherwise
    /// identical to [`EngineSnapshot::query_batch`].
    pub fn query_batch_bounded(
        &self,
        requests: &[QueryRequest],
        scratch: &mut ScratchDijkstra,
        traces: &[ds_obs::TraceId],
        sink: Option<&mut Vec<ds_obs::EvalTrace>>,
        deadlines: &[Option<std::time::Instant>],
    ) -> crate::api::BoundedBatchAnswer {
        let mut eval = self.evaluator(scratch);
        crate::api::run_batch_bounded(&self.planner, &mut eval, requests, traces, sink, deadlines)
    }

    /// A cheapest route from `x` to `y`, read at request time off what
    /// every epoch keeps — no path is stored anywhere:
    ///
    /// 1. a non-border `x` sweeps its cell — its site's graph, blocked at
    ///    the borders — for its costs to its fragment's borders, and for
    ///    the border-free path when `y` is a non-border node of the same
    ///    fragment; a border `x` enters the skeleton itself, at 0;
    /// 2. a non-border `y` sweeps its cell backward (on the site's
    ///    transpose on a one-way network) for the borders that reach it;
    /// 3. one multi-source sweep of the kept skeleton
    ///    ([`ComplementaryInfo::skeleton`]) from `x`'s borders at their
    ///    costs, stopped once `y`'s borders settle;
    /// 4. each skeleton hop is a connection between its two borders of
    ///    its cost, or one point sweep of the interior of the fragment
    ///    that realizes it.
    ///
    /// The skeleton's distances are global, so the route is exact under
    /// any chain cap. Where the capped chain evaluator is not — more
    /// chains, or longer ones, than the caps let it try — `route` may
    /// beat [`EngineSnapshot::shortest_path`]. [`Route::chain`] lists
    /// the fragments the route's hops belong to and [`Route::waypoints`]
    /// the borders where it changes fragment. Errs when an endpoint is
    /// in no fragment; `Ok(None)` when `y` is unreachable.
    pub fn route(
        &self,
        x: NodeId,
        y: NodeId,
        scratch: &mut ScratchDijkstra,
    ) -> Result<Option<Route>, ClosureError> {
        if x == y {
            let chain = self.planner.fragments_of(x).first().map(|&f| vec![f]);
            return Ok(Some(Route {
                cost: 0,
                nodes: vec![x],
                chain: chain.unwrap_or_default(),
                waypoints: Vec::new(),
            }));
        }
        let from = self.route_end(x, false, scratch)?;
        // The border-free path, read before the next sweep replaces x's.
        let mut best = from.site.and_then(|f| {
            let (cost, path) = self.sites[f].swept_path(y, scratch)?;
            Some((cost, vec![(f, path)]))
        });
        let to = self.route_end(y, true, scratch)?;
        if !from.borders.is_empty() && !to.borders.is_empty() {
            let at = |&(s, cost, _): &RouteBorder| (NodeId::from_index(s), cost);
            let seeds: Vec<(NodeId, Cost)> = from.borders.iter().map(at).collect();
            let exits: Vec<NodeId> = to.borders.iter().map(|e| at(e).0).collect();
            scratch.sweep_to_targets(self.comp.skeleton(), &seeds, &exits);
            let reached = (to.borders.iter())
                .filter_map(|exit| Some((scratch.cost(at(exit).0)? + exit.1, exit)))
                .min_by_key(|&(cost, _)| cost);
            if let Some((cost, exit)) = reached.filter(|r| best.as_ref().is_none_or(|b| r.0 < b.0))
            {
                best = Some((cost, self.skeleton_legs(&from, (exit, to.site), scratch)));
            }
        }
        let Some((cost, legs)) = best else {
            return Ok(None);
        };
        // Each leg's path starts where the one before it ended.
        let (mut nodes, mut hops) = (vec![x], Vec::new());
        for (f, path) in legs {
            hops.extend(std::iter::repeat_n(f, path.len() - 1));
            nodes.extend_from_slice(&path[1..]);
        }
        let mut chain = hops.clone();
        chain.dedup();
        let waypoints = (1..hops.len())
            .filter(|&i| hops[i - 1] != hops[i])
            .map(|i| nodes[i])
            .collect();
        Ok(Some(Route {
            cost,
            nodes,
            chain,
            waypoints,
        }))
    }

    /// One end of a route (see [`EngineSnapshot::route`]): a border is
    /// its own skeleton node at 0; any other node sweeps its cell, and
    /// each border the cell touches comes with its cost and the path
    /// between it and `v` — from `v` on the way out, to `v` on the way
    /// in (`backward`).
    fn route_end(
        &self,
        v: NodeId,
        backward: bool,
        scratch: &mut ScratchDijkstra,
    ) -> Result<RouteEnd, ClosureError> {
        if let Some(s) = self.comp.skeleton_id(v) {
            let borders = vec![(s, 0, vec![v])];
            return Ok(RouteEnd {
                site: None,
                borders,
            });
        }
        // A node that is no border lies in one fragment only.
        let &[f] = self.planner.fragments_of(v) else {
            return Err(ClosureError::NodeNotInAnyFragment(v));
        };
        let site = &self.sites[f];
        let cell = site.sweep_cell(v, backward, scratch);
        let borders = (cell.into_iter())
            .map(|(b, cost)| {
                let (_, mut path) = site.swept_path(b, scratch).expect("the cell reached it");
                if backward {
                    path.reverse();
                }
                let s = self.comp.skeleton_id(b).expect("a border");
                (s, cost, path)
            })
            .collect();
        Ok(RouteEnd {
            site: Some(f),
            borders,
        })
    }

    /// The legs of a route through the skeleton that the latest skeleton
    /// sweep on `scratch` left: from the border of `from` it entered at,
    /// hop by hop, to `exit` and on to the route's end (in fragment `to`,
    /// unless the end is that border) — each as its fragment and path.
    fn skeleton_legs(
        &self,
        from: &RouteEnd,
        (exit, to): (&RouteBorder, Option<FragmentId>),
        scratch: &mut ScratchDijkstra,
    ) -> Vec<(FragmentId, Vec<NodeId>)> {
        let at = scratch
            .path_to(NodeId::from_index(exit.0))
            .expect("reached");
        let cost = |v: NodeId| scratch.cost(v).expect("on the path");
        let hops: Vec<(usize, usize, Cost)> = (at.windows(2))
            .map(|w| (w[0].index(), w[1].index(), cost(w[1]) - cost(w[0])))
            .collect();
        let entry = from.borders.iter().find(|e| e.0 == at[0].index());
        let head = &entry.expect("a seed of the sweep").2;
        let mut legs: Vec<_> = from.site.map(|f| (f, head.clone())).into_iter().collect();
        let borders = self.comp.borders();
        for (p, t, cost) in hops {
            let (bp, bt) = (borders[p], borders[t]);
            let holders = self.planner.fragments_of(bp);
            // A connection between the two borders, as it stands...
            let holding = |f: &&FragmentId| self.sites[**f].has_edge(bp, bt, cost);
            if let Some(&f) = holders.iter().find(holding) {
                legs.push((f, vec![bp, bt]));
                continue;
            }
            // ...or a path through the interior of a fragment holding both.
            let realizing = |f: &&FragmentId| self.comp.interior_cost(**f, p, t) == cost;
            let &f = (holders.iter().find(realizing))
                .expect("a skeleton edge is a connection or an interior path");
            let interior = self.sites[f].interior_path(bp, bt, scratch);
            legs.push((f, interior.expect("the interior realizes the hop")));
        }
        legs.extend(to.map(|f| (f, exit.2.clone())));
        legs
    }

    // --- maintenance (exclusive owner only) ----------------------------

    /// Apply a network update in place, keeping answers exact afterwards:
    /// runs the shared maintenance path ([`crate::updates::maintain`]),
    /// then rebuilds the touched sites. See
    /// [`EngineSnapshot::maintain_cow`] for the variant that also reports
    /// *which* sites were touched.
    ///
    /// A snapshot shared behind an `Arc` cannot (and must not) be
    /// maintained through the `Arc` — clone it first (O(sites): every
    /// component is `Arc`-shared) and republish the maintained clone,
    /// which is exactly what the `ds_serve` writer thread does. The
    /// maintenance replaces only the touched sites' Arcs; everything else
    /// stays physically shared with the pre-update snapshot.
    pub fn maintain(
        &mut self,
        update: &NetworkUpdate,
        scratch: &mut ScratchDijkstra,
    ) -> Result<UpdateReport, ClosureError> {
        self.maintain_cow(update, scratch).map(|m| m.report)
    }

    /// [`EngineSnapshot::maintain`] with the copy-on-write outcome made
    /// explicit: which sites were detached from the previous epoch, and
    /// which remain shared.
    pub fn maintain_cow(
        &mut self,
        update: &NetworkUpdate,
        scratch: &mut ScratchDijkstra,
    ) -> Result<CowMaintenance, ClosureError> {
        let m = crate::updates::maintain(
            &mut self.graph,
            &mut self.frag,
            self.symmetric,
            &mut self.comp,
            &self.sites,
            update,
            scratch,
        )?;
        // Keep-vs-drop for a built reachability index, decided *after*
        // the maintenance succeeded (an erring update leaves it
        // untouched), while `self.reach` still holds the pre-update index
        // — the rules of [`ConnectivityEffect`]:
        let keep = self.reach.get().is_some_and(|r| match m.connectivity {
            ConnectivityEffect::Unchanged => true,
            ConnectivityEffect::Inserted { src, dst } => {
                r.reaches(src, dst) && (!self.symmetric || src == dst || r.reaches(dst, src))
            }
            ConnectivityEffect::Removed { parallel_remains } => parallel_remains,
        });
        if !keep {
            self.reach = OnceLock::new();
        }
        // Nothing at all after a no-op removal.
        let sites: std::collections::BTreeSet<FragmentId> =
            m.shortcut_sites.iter().copied().chain(m.owner).collect();
        // A border row folds every site's exit sets: a replaced site may
        // have changed some.
        if !sites.is_empty() {
            self.border_rows = Arc::new(BorderRows::new(self.comp.border_count()));
        }
        for &f in &sites {
            // A touched site starts over — new graph or new border
            // distances, no access set, no row; every other site stays
            // the `Arc` the pre-update snapshot holds. Only the owner's
            // graph is new.
            let local = match &m.owner_graph {
                Some(g) if m.owner == Some(f) => Arc::clone(g),
                _ => Arc::clone(&self.sites[f].graph),
            };
            self.sites[f] = Arc::new(Site::build(local, self.comp.site_borders(f)));
        }
        Ok(CowMaintenance {
            report: m.report,
            owner: m.owner,
            shortcut_sites: m.shortcut_sites,
            touched_sites: sites.into_iter().collect(),
            reach_kept: keep,
        })
    }
}

/// Site evaluation over a snapshot: subqueries run on the calling thread
/// or one scoped thread each, per [`EngineConfig::mode`], against the
/// caller's scratch.
struct SnapshotEval<'a> {
    sites: &'a [Arc<Site>],
    hub: &'a Hub,
    mode: ExecutionMode,
    scratch: &'a mut ScratchDijkstra,
}

impl SiteEvaluator for SnapshotEval<'_> {
    fn eval_sites<'q>(
        &mut self,
        queries: impl Iterator<Item = SiteQueryRef<'q>>,
        out: &mut Vec<Cost>,
        stats: &mut QueryStats,
    ) {
        let (sites, hub) = (self.sites, self.hub);
        run_sites(
            queries,
            self.mode,
            self.scratch,
            out,
            |run| stats.record_site_run(run.tuples, run.busy),
            |q, scratch, out| {
                border_matrix_with(&sites[q.site], hub, q.sources, q.targets, scratch, out)
            },
        );
    }

    fn hub(&self) -> &Hub {
        self.hub
    }
}

/// Compile-time `Send + Sync` guarantees for everything the serve layer
/// shares across threads. A future `Rc`/`RefCell`/raw-pointer regression
/// in any of these types fails *here*, in the crate that owns the
/// invariant, rather than as a confusing trait-bound error in `ds_serve`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ComplementaryInfo>();
    assert_send_sync::<Fragmentation>();
    assert_send_sync::<EngineSnapshot>();
    assert_send_sync::<Planner>();
};

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::baseline;
    use ds_fragment::linear::{linear_sweep, LinearConfig};
    use ds_gen::deterministic::grid;
    use ds_graph::Cost;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// The fixture this crate's engine tests share: a `w` x `h` grid in
    /// four linear-sweep fragments.
    pub(crate) fn grid_snapshot(
        w: usize,
        h: usize,
        cfg: EngineConfig,
    ) -> (ds_gen::GeneratedGraph, EngineSnapshot) {
        let g = grid(w, h);
        let sweep = LinearConfig {
            fragments: 4,
            ..Default::default()
        };
        let frag = linear_sweep(&g.edge_list(), &sweep).unwrap().fragmentation;
        let snap = EngineSnapshot::build(frag, true, cfg);
        (g, snap)
    }

    fn snapshot() -> (ds_gen::GeneratedGraph, EngineSnapshot) {
        grid_snapshot(10, 4, EngineConfig::default())
    }

    #[test]
    fn concurrent_readers_share_one_snapshot() {
        let (g, snap) = snapshot();
        let csr = g.closure_graph();
        let snap = std::sync::Arc::new(snap);
        let answers: Vec<Vec<Option<Cost>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u32)
                .map(|t| {
                    let snap = std::sync::Arc::clone(&snap);
                    s.spawn(move || {
                        let mut scratch = ScratchDijkstra::new();
                        (0..40u32)
                            .map(|i| {
                                snap.shortest_path(n((i + t) % 40), n(39 - i), &mut scratch)
                                    .cost
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, row) in answers.iter().enumerate() {
            for (i, got) in row.iter().enumerate() {
                let want = baseline::shortest_path_cost(
                    &csr,
                    n(((i as u32) + t as u32) % 40),
                    n(39 - i as u32),
                );
                assert_eq!(*got, want, "thread {t} query {i}");
            }
        }
    }

    /// The first `connected` of an epoch builds the index — `connected`
    /// takes no scratch, so it cannot sweep — and every later one reads
    /// the same `Arc`.
    #[test]
    fn connected_answers_from_the_index_without_sweeps() {
        let (g, snap) = snapshot();
        let csr = g.closure_graph();
        assert!(
            snap.reach_handle().is_none(),
            "build leaves the index to readers"
        );
        assert_eq!(snap.memory_bytes().reach_index, 0);
        for x in 0..40u32 {
            for y in 0..40u32 {
                let got = snap.connected(n(x), n(y));
                let want = x == y || baseline::shortest_path_cost(&csr, n(x), n(y)).is_some();
                assert_eq!(got, want, "connected({x}, {y})");
            }
        }
        let built = Arc::clone(snap.reach_handle().expect("built by the first connected"));
        assert!(snap.memory_bytes().reach_index > 0);
        assert!(!snap.connected(n(0), n(40)), "a node outside the graph");
        snap.ensure_reach();
        assert!(
            Arc::ptr_eq(&built, snap.reach_handle().unwrap()),
            "built once"
        );
        assert!(Arc::ptr_eq(&built, snap.clone().reach_handle().unwrap()));
    }

    /// An update that could have changed reachability empties the index
    /// slot; the next `connected` builds the successor's index, which
    /// answers the updated network.
    #[test]
    fn a_stale_index_falls_back_and_stays_correct() {
        let (_, mut snap) = snapshot();
        let mut scratch = ScratchDijkstra::new();
        snap.ensure_reach();
        let e = snap.fragmentation().fragment(0).edges()[0];
        let remove = NetworkUpdate::Remove {
            src: e.src,
            dst: e.dst,
            owner: 0,
        };
        assert!(!snap.maintain_cow(&remove, &mut scratch).unwrap().reach_kept);
        assert!(snap.reach_handle().is_none());
        assert!(snap.connected(n(0), n(39)));
        assert!(snap.reach_handle().is_some(), "rebuilt on demand");
    }

    #[test]
    fn redundant_insert_keeps_the_index_shared() {
        let (_, mut snap) = snapshot();
        let mut scratch = ScratchDijkstra::new();
        snap.ensure_reach();
        let before = Arc::clone(snap.reach_handle().unwrap());
        // The grid is connected, so any insert between existing nodes is
        // inside the reachability relation: the index must survive —
        // pointer-shared, not rebuilt.
        let f0 = snap.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        let insert = NetworkUpdate::Insert {
            edge: ds_graph::Edge::new(a, b, 1),
            owner: 0,
        };
        let cow = snap.maintain_cow(&insert, &mut scratch).unwrap();
        assert!(cow.reach_kept);
        assert!(
            Arc::ptr_eq(&before, snap.reach_handle().unwrap()),
            "kept index must stay pointer-shared with the previous epoch"
        );
        // An index nobody built is not built by an update either.
        let (_, mut unbuilt) = snapshot();
        assert!(
            !unbuilt
                .maintain_cow(&insert, &mut scratch)
                .unwrap()
                .reach_kept
        );
        assert!(unbuilt.reach_handle().is_none());
    }

    /// A copy taken before a reader built the index adopts it while both
    /// hold the same graph, and only then.
    #[test]
    fn a_copy_adopts_an_index_built_over_its_graph() {
        let (_, published) = snapshot();
        let mut working = published.clone();
        let (_, other) = snapshot();
        other.ensure_reach();
        working.adopt_reach(&other);
        assert!(working.reach_handle().is_none(), "another graph's index");
        published.ensure_reach();
        working.adopt_reach(&published);
        let built = published.reach_handle().unwrap();
        assert!(Arc::ptr_eq(built, working.reach_handle().unwrap()));
        // Once the copy's graph moved on, the published index is not its.
        let e = working.fragmentation().fragment(0).edges()[0];
        let remove = NetworkUpdate::Remove {
            src: e.src,
            dst: e.dst,
            owner: 0,
        };
        working
            .maintain_cow(&remove, &mut ScratchDijkstra::new())
            .unwrap();
        working.adopt_reach(&published);
        assert!(working.reach_handle().is_none(), "a stale index adopted");
    }

    #[test]
    fn removal_without_parallel_drops_the_index_until_rebuilt() {
        let (_, mut snap) = snapshot();
        let mut scratch = ScratchDijkstra::new();
        snap.ensure_reach();
        // Remove a real grid edge with no parallel connection: the index
        // is dropped as stale, and the next reader rebuilds it.
        let f0 = snap.fragmentation().fragment(0).clone();
        let e = f0.edges()[0];
        let cow = snap
            .maintain_cow(
                &NetworkUpdate::Remove {
                    src: e.src,
                    dst: e.dst,
                    owner: 0,
                },
                &mut scratch,
            )
            .unwrap();
        assert!(!cow.reach_kept);
        assert!(snap.reach_handle().is_none(), "stale index dropped");
        for x in 0..40u32 {
            for y in 0..40u32 {
                assert_eq!(
                    snap.connected(n(x), n(y)),
                    x == y || baseline::shortest_path_cost(snap.graph(), n(x), n(y)).is_some(),
                    "rebuilt connected({x}, {y})"
                );
            }
        }
        assert!(snap.reach_handle().is_some(), "rebuilt on demand");
    }

    /// Right after a delete that cuts the network in two, the successor's
    /// first `connected` builds an index over the cut graph.
    #[test]
    fn a_delete_that_cuts_reachability_is_answered_by_a_fresh_index() {
        // Path 0-1-2-3-4 in two fragments sharing node 2.
        let unit = |pairs: &[(u32, u32)]| -> Vec<ds_graph::Edge> {
            (pairs.iter())
                .map(|&(a, b)| ds_graph::Edge::unit(n(a), n(b)))
                .collect()
        };
        let frag = Fragmentation::new(
            5,
            vec![unit(&[(0, 1), (1, 2)]), unit(&[(2, 3), (3, 4)])],
            vec![vec![], vec![]],
        );
        let mut snap = EngineSnapshot::build(frag, true, EngineConfig::default());
        assert!(snap.connected(n(0), n(4)));
        let cut = NetworkUpdate::Remove {
            src: n(3),
            dst: n(4),
            owner: 1,
        };
        let cow = snap
            .maintain_cow(&cut, &mut ScratchDijkstra::new())
            .unwrap();
        assert!(!cow.report.full_recompute && !cow.reach_kept, "{cow:?}");
        assert!(snap.reach_handle().is_none());
        assert!(!snap.connected(n(0), n(4)) && !snap.connected(n(4), n(3)));
        assert!(snap.connected(n(0), n(3)) && snap.connected(n(4), n(4)));
    }

    /// A general graph in four center-grown fragments whose fragmentation
    /// graph has a cycle: queries have several chains each.
    fn cyclic_snapshot() -> (CsrGraph, EngineSnapshot, Vec<QueryRequest>) {
        cyclic_snapshot_with(EngineConfig::default())
    }

    fn cyclic_snapshot_with(cfg: EngineConfig) -> (CsrGraph, EngineSnapshot, Vec<QueryRequest>) {
        use ds_fragment::center::{center_based, CenterConfig};
        use ds_gen::{generate_general, GeneralConfig};
        let g = generate_general(
            &GeneralConfig {
                nodes: 80,
                target_edges: 240,
                ..Default::default()
            },
            5,
        );
        let frag = center_based(
            &g.edge_list(),
            &CenterConfig {
                fragments: 4,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        assert!(!frag.fragmentation_graph().is_acyclic());
        let csr = g.closure_graph();
        let snap = EngineSnapshot::build(frag, true, cfg);
        let requests = (0..64u32)
            .map(|i| QueryRequest::new(n((i * 7) % 80), n((i * 13 + 5) % 80)))
            .collect();
        (csr, snap, requests)
    }

    /// On a cyclic fragmentation, with one chain of at most two
    /// fragments per query, the chain evaluator misses some shortest
    /// paths; a route misses none: the skeleton it is read off holds
    /// global distances.
    #[test]
    fn routes_are_exact_where_the_capped_chain_evaluator_is_not() {
        let (csr, snap, _) = cyclic_snapshot_with(EngineConfig {
            max_chains: 1,
            max_chain_len: 2,
            ..EngineConfig::default()
        });
        let mut scratch = ScratchDijkstra::new();
        let mut missed = 0;
        let held: Vec<NodeId> = (0..80)
            .map(n)
            .filter(|&v| !snap.planner().fragments_of(v).is_empty())
            .collect();
        for (&x, &y) in held.iter().flat_map(|x| held.iter().map(move |y| (x, y))) {
            let want = baseline::shortest_path_cost(&csr, x, y);
            missed += usize::from(snap.shortest_path(x, y, &mut scratch).cost != want);
            let route = snap.route(x, y, &mut scratch).unwrap();
            assert_eq!(route.as_ref().map(|r| r.cost), want, "{x}->{y}");
            let Some(route) = route else { continue };
            let hop = |w: &[NodeId]| {
                let costs = csr.neighbors(w[0]).filter(|&(t, _)| t == w[1]);
                costs.map(|(_, c)| c).min().expect("a real edge")
            };
            let total: Cost = route.nodes.windows(2).map(hop).sum();
            assert_eq!((route.nodes[0], *route.nodes.last().unwrap()), (x, y));
            assert_eq!(total, route.cost, "{x}->{y}: {:?}", route.nodes);
            assert_eq!(route.waypoints.len() + 1, route.chain.len().max(1));
        }
        assert!(missed > 0, "the capped evaluator is exact here");
    }

    /// On a cyclic fragmentation, with one chain per query, every point
    /// answer equals Dijkstra's and the materialized closure's: each site
    /// reads its border distances off the hub, which holds every pair of
    /// its borders, not only the pairs within its disconnection sets.
    #[test]
    fn point_answers_are_exact_on_a_cyclic_fragmentation_with_one_chain() {
        let (csr, snap, _) = cyclic_snapshot_with(EngineConfig {
            max_chains: 1,
            ..EngineConfig::default()
        });
        let (closure, _) = snap
            .materialize(&MaterializeConfig::with_threads(1))
            .expect("no fault plan");
        let closure: std::collections::HashMap<(NodeId, NodeId), Cost> = (closure.rows().iter())
            .map(|t| ((t.src, t.dst), t.cost))
            .collect();
        let mut scratch = ScratchDijkstra::new();
        let held: Vec<NodeId> = (0..80)
            .map(n)
            .filter(|&v| !snap.planner().fragments_of(v).is_empty())
            .collect();
        for (&x, &y) in held.iter().flat_map(|x| held.iter().map(move |y| (x, y))) {
            let got = snap.shortest_path(x, y, &mut scratch).cost;
            let want = baseline::shortest_path_cost(&csr, x, y);
            assert_eq!(got, want, "{x}->{y}: Dijkstra");
            // The closure holds paths of one edge or more: (x, x) is the
            // cheapest closed walk, which a point query answers as 0.
            if x != y {
                assert_eq!(got, closure.get(&(x, y)).copied(), "{x}->{y}: materialize");
            }
        }
    }

    /// A write rebuilds, and its report counts, every site holding both
    /// borders of a hub entry it changed: a warm site's access sets were
    /// pruned through every pair of its borders. In a triangle of
    /// fragments whose disconnection sets are single borders, the delete
    /// of `0 - 3` raises `dist(0, 1)` from 2 to 22 and `dist(0, 2)` from 4
    /// (through fragments 0 and 2) to 20 (through fragment 1), the hub
    /// entry the chain `0, 1, 2` reads at site 1.
    #[test]
    fn a_write_rebuilds_and_counts_every_site_holding_a_changed_pair() {
        let e = |a, b, cost| ds_graph::Edge::new(n(a), n(b), cost);
        let frag = Fragmentation::new(
            6,
            vec![
                vec![e(0, 3, 1), e(3, 1, 1)],
                vec![e(0, 4, 10), e(4, 2, 10)],
                vec![e(1, 5, 1), e(5, 2, 1)],
            ],
            vec![Vec::new(); 3],
        );
        let mut snap = EngineSnapshot::build(frag, true, EngineConfig::default());
        assert_eq!(
            snap.complementary().pair_count(),
            6,
            "one pair each way per site"
        );
        let requests: Vec<QueryRequest> = (0..6)
            .flat_map(|x| (0..6).map(move |y| QueryRequest::new(n(x), n(y))))
            .collect();
        let mut scratch = ScratchDijkstra::new();
        let mut assert_exact = |snap: &EngineSnapshot, what: &str| {
            let got = snap.query_batch(&requests, &mut scratch).costs();
            for (q, got) in requests.iter().zip(got) {
                let want = baseline::shortest_path_cost(snap.graph(), q.source, q.target);
                assert_eq!(got, want, "{what}: {}->{}", q.source, q.target);
            }
        };
        assert_exact(&snap, "built");
        let delete = NetworkUpdate::Remove {
            src: n(0),
            dst: n(3),
            owner: 0,
        };
        let cow = snap
            .maintain_cow(&delete, &mut ScratchDijkstra::new())
            .unwrap();
        assert_eq!(
            cow.report.shortcuts_repaired, 4,
            "0 - 1 at site 0 and 0 - 2 at site 1, each way"
        );
        assert_eq!(
            cow.shortcut_sites,
            [0, 1],
            "0 - 1 at site 0, 0 - 2 at site 1"
        );
        assert_exact(&snap, "after the delete");
    }

    /// Once the endpoints' access sets and the border-free rows are
    /// filled, a query is lookups: no sweep at all, whether its endpoints
    /// lie in different fragments or are two non-border nodes of one
    /// fragment. Cold or warm, a query asks its endpoint sites only.
    #[test]
    fn warm_queries_sweep_only_inside_one_fragment() {
        let (csr, snap, requests) = cyclic_snapshot();
        let mut scratch = ScratchDijkstra::new();
        let cold = snap.query_batch(&requests, &mut scratch);
        assert!(
            scratch.stats().sweeps > 0,
            "the cold batch fills access sets"
        );
        assert!(cold.answers.iter().any(|a| a.stats.chains_evaluated > 2));
        assert!(snap.memory_bytes().access_sets > 0);

        let planner = snap.planner();
        let endpoint_sites = |r: &QueryRequest| {
            planner.fragments_of(r.source).len() + planner.fragments_of(r.target).len()
        };
        for (r, a) in requests.iter().zip(&cold.answers) {
            assert!(a.stats.site_queries <= endpoint_sites(r), "{r:?}: cold");
        }
        let cold_queries: usize = cold.answers.iter().map(|a| a.stats.site_queries).sum();
        assert_eq!(cold.stats.segments_computed, cold_queries);
        assert!(
            cold.stats.segments_reused > 0,
            "interior segments read off the hub"
        );
        let inside_one_fragment = |r: &QueryRequest| {
            let (fx, fy) = (
                planner.fragments_of(r.source),
                planner.fragments_of(r.target),
            );
            r.source != r.target && fx.len() == 1 && fx == fy
        };
        assert!(requests.iter().any(inside_one_fragment));
        assert!(!requests.iter().all(inside_one_fragment));
        let before = scratch.stats().sweeps;
        for r in &requests {
            let a = snap.shortest_path(r.source, r.target, &mut scratch);
            assert_eq!(
                a.cost,
                baseline::shortest_path_cost(&csr, r.source, r.target),
                "{r:?}"
            );
            assert_eq!(scratch.stats().sweeps, before, "{r:?}: swept warm");
            // A subquery answered by lookup is still a subquery: one from
            // x per fragment x is in, one to y per fragment y is in —
            // whatever the number of chains.
            assert!(
                a.stats.site_queries <= endpoint_sites(r),
                "{r:?}: {} site queries over {} chains",
                a.stats.site_queries,
                a.stats.chains_evaluated
            );
        }
        let warm = snap.query_batch(&requests, &mut scratch);
        assert_eq!(warm.costs(), cold.costs());
        let site_queries: usize = warm.answers.iter().map(|a| a.stats.site_queries).sum();
        assert_eq!(warm.stats.segments_computed, site_queries);
        assert_eq!(warm.stats.plans_computed, 0, "plans outlive the batch");
        assert_eq!(scratch.stats().sweeps, before);
    }

    /// Node sets never change under maintenance, so the planner — and
    /// with it every chain set enumerated so far — is shared by every
    /// epoch of a lineage: a successor plans nothing its predecessor
    /// planned.
    #[test]
    fn the_chain_table_survives_maintenance() {
        let (_, snap, requests) = cyclic_snapshot();
        let mut scratch = ScratchDijkstra::new();
        let cold = snap.query_batch(&requests, &mut scratch);
        assert!(cold.stats.plans_computed > 0);
        let filled = snap.planner().plans_filled();
        assert_eq!(filled, cold.stats.plans_computed);
        let mut successor = snap.clone();
        let f0 = snap.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        let insert = NetworkUpdate::Insert {
            edge: ds_graph::Edge::new(a, b, 1),
            owner: 0,
        };
        let e = f0.edges()[0];
        let remove = NetworkUpdate::Remove {
            src: e.src,
            dst: e.dst,
            owner: 0,
        };
        for update in [insert, remove] {
            let cow = successor.maintain_cow(&update, &mut scratch).unwrap();
            assert!(cow.touched_sites.contains(&0));
            assert!(Arc::ptr_eq(
                snap.planner_handle(),
                successor.planner_handle()
            ));
            assert_eq!(successor.planner().plans_filled(), filled);
            let warm = successor.query_batch(&requests, &mut scratch);
            assert_eq!(warm.stats.plans_computed, 0);
            let planned = cold.stats.plans_computed + cold.stats.plans_reused;
            assert_eq!(warm.stats.plans_reused, planned);
            assert_eq!(
                warm.costs(),
                (requests.iter())
                    .map(|r| baseline::shortest_path_cost(successor.graph(), r.source, r.target))
                    .collect::<Vec<_>>()
            );
        }
    }

    /// Nothing on the build, publication, query or route path lays the
    /// shortcut clique over a fragment: a site's augmented graph exists
    /// only once somebody asks for it through `augmented_handle`.
    #[test]
    fn the_augmented_graph_is_built_only_on_demand() {
        let (_, mut snap) = grid_snapshot(10, 4, EngineConfig::default());
        let built = |snap: &EngineSnapshot| -> Vec<bool> {
            (0..snap.site_count())
                .map(|f| snap.site_handle(f).augmented_is_built())
                .collect()
        };
        assert_eq!(built(&snap), [false; 4], "after build");
        let mut scratch = ScratchDijkstra::new();
        let f3 = snap.fragmentation().fragment(3).clone();
        let (a, b) = (f3.nodes()[0], *f3.nodes().last().unwrap());
        let insert = NetworkUpdate::Insert {
            edge: ds_graph::Edge::new(a, b, 1),
            owner: 3,
        };
        let cow = snap.maintain_cow(&insert, &mut scratch).unwrap();
        assert!(cow.touched_sites.contains(&3));
        assert_eq!(built(&snap), [false; 4], "after a maintained update");
        let requests: Vec<QueryRequest> = (0..40u32)
            .map(|i| QueryRequest::new(n(i), n((i * 7 + 3) % 40)))
            .collect();
        let batch = snap.query_batch(&requests, &mut scratch);
        let site_queries: usize = batch.answers.iter().map(|a| a.stats.site_queries).sum();
        assert!(site_queries > 0 && batch.stats.segments_reused > 0);
        assert_eq!(batch.stats.segments_computed, site_queries);
        assert_eq!(built(&snap), [false; 4], "after a query_batch");

        // A route reads the kept skeleton and the sites' own graphs.
        let route = snap.route(n(0), n(39), &mut scratch).unwrap().unwrap();
        assert_eq!(
            Some(route.cost),
            baseline::shortest_path_cost(snap.graph(), n(0), n(39))
        );
        assert_eq!(route.chain, [0, 1, 2, 3]);
        assert_eq!(built(&snap), [false; 4], "after route");
        // The handle builds them — once, for every epoch sharing the
        // site.
        let successor = snap.clone();
        for f in 0..4 {
            let aug = snap.augmented_handle(f);
            assert!(aug.edge_count() > snap.fragmentation().fragment(f).edges().len());
            assert!(Arc::ptr_eq(aug, successor.augmented_handle(f)));
        }
        assert_eq!(built(&successor), [true; 4]);
    }

    /// Two readers released together onto a snapshot whose memos — the
    /// sites' access sets and border-free rows — are all empty fill the
    /// same slots concurrently: both get the oracle's answers, and the
    /// memos end up as one reader alone leaves them.
    #[test]
    fn readers_racing_to_fill_the_memos_agree() {
        let (csr, snap, requests) = cyclic_snapshot();
        let alone = snap.unshared_clone();
        alone.query_batch(&requests, &mut ScratchDijkstra::new());
        let barrier = std::sync::Barrier::new(2);
        let costs: Vec<Vec<Option<Cost>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut scratch = ScratchDijkstra::new();
                        barrier.wait();
                        snap.query_batch(&requests, &mut scratch).costs()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let want: Vec<Option<Cost>> = requests
            .iter()
            .map(|r| baseline::shortest_path_cost(&csr, r.source, r.target))
            .collect();
        assert_eq!(costs[0], want);
        assert_eq!(costs[1], want);
        for f in 0..snap.site_count() {
            assert_eq!(
                snap.site_handle(f).memory_bytes(),
                alone.site_handle(f).memory_bytes()
            );
        }
        assert!(snap.memory_bytes().access_sets > 0);
    }

    /// Every site reads its border distances off the one hub: the
    /// breakdown counts it once, under `hub`, and `border_matrices` holds
    /// only the sites' border indexes, no copy of a distance.
    #[test]
    fn memory_bytes_count_a_shared_table_once() {
        let (_, snap, requests) = cyclic_snapshot();
        snap.query_batch(&requests, &mut ScratchDijkstra::new());
        assert!(snap.connected(n(0), n(1)));
        let bytes = snap.memory_bytes();
        let mut walked = snap.graph().memory_bytes()
            + snap.reach_index().memory_bytes()
            + snap.planner().memory_bytes()
            + snap.hub_handle().memory_bytes();
        let mut border_index = 0;
        for f in 0..snap.site_count() {
            let site = snap.site_handle(f);
            let s = site.memory_bytes();
            walked += s.graph + s.border_matrix + s.access_sets;
            border_index += site.border_nodes().count()
                * (2 * std::mem::size_of::<NodeId>() + std::mem::size_of::<(u32, Cost)>());
        }
        let kept_sweeps = snap.complementary().memory_bytes();
        assert!(kept_sweeps > 0, "the local sweeps are retained");
        assert_eq!(bytes.total(), walked + kept_sweeps);
        assert_eq!(bytes.complementary, snap.complementary().memory_bytes());
        assert_eq!(bytes.border_matrices, border_index);
        assert!(bytes.access_sets > 0 && bytes.complementary > bytes.border_matrices);
    }

    #[test]
    fn maintained_clone_leaves_the_original_untouched() {
        let (_, snap) = snapshot();
        let mut scratch = ScratchDijkstra::new();
        let before = snap.shortest_path(n(0), n(39), &mut scratch).cost.unwrap();
        let held = |snap: &EngineSnapshot, f| snap.site_handle(f).memory_bytes().access_sets;
        let filled: Vec<usize> = (0..4).map(|f| held(&snap, f)).collect();
        assert!(
            filled[0] > 0 && filled[3] > 0,
            "0 -> 39 asks its endpoint sites 0 and 3"
        );
        assert_eq!(
            (filled[1], filled[2]),
            (0, 0),
            "and reads sites 1 and 2 off the hub"
        );
        let mut successor = snap.clone();
        let f3 = snap.fragmentation().fragment(3).clone();
        let (a, b) = (f3.nodes()[0], *f3.nodes().last().unwrap());
        let cow = successor
            .maintain_cow(
                &NetworkUpdate::Insert {
                    edge: ds_graph::Edge::new(a, b, 1),
                    owner: 3,
                },
                &mut scratch,
            )
            .unwrap();
        // Copy-on-write, access sets included: a touched site starts the
        // new epoch as a new site holding none, an untouched site is the
        // very site — access sets and all — the predecessor filled.
        assert!(cow.touched_sites.contains(&3));
        assert!(!cow.touched_sites.contains(&1), "{:?}", cow.touched_sites);
        for (f, &filled) in filled.iter().enumerate() {
            let shared = Arc::ptr_eq(snap.site_handle(f), successor.site_handle(f));
            assert_eq!(shared, !cow.touched_sites.contains(&f), "site {f}");
            if !shared {
                assert_eq!(held(&successor, f), 0, "site {f}");
            }
            assert_eq!(held(&snap, f), filled, "site {f}");
        }
        // The published (old) snapshot still answers the pre-update
        // network off its own hub; the successor reflects the insert.
        // Both ask the endpoint sites only.
        let again = snap.shortest_path(n(0), n(39), &mut scratch);
        assert_eq!(again.cost, Some(before));
        assert_eq!(again.stats.site_queries, 2);
        assert_eq!(
            Some(before),
            baseline::shortest_path_cost(snap.graph(), n(0), n(39))
        );
        let after = successor.shortest_path(n(0), n(39), &mut scratch);
        assert!(after.cost.unwrap() <= before);
        assert_eq!(
            after.cost,
            baseline::shortest_path_cost(successor.graph(), n(0), n(39))
        );
        assert_eq!(after.stats.site_queries, 2);
    }
}
