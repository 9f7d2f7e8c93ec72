//! Phase-one execution: run a round of site subqueries, sequentially or
//! with one OS thread per site — the one site-thread placement there is.
//!
//! "Note that neither communication nor synchronization is required
//! during the first phase of the computation … Only at the end of the
//! computation, communication is required for computing the final joins"
//! (§2.1). The parallel mode exploits exactly that independence: every
//! [`SiteQuery`] reads only its own site's state.
//!
//! `run_sites` is the placement the engine's evaluator runs its
//! subqueries through, whatever kernel answers them. [`run_chain`] is the
//! *reference* phase one: every subquery of one chain as planned, by
//! forward Dijkstra sweeps over the sites' augmented graphs — the
//! definition the engine's border-matrix kernel
//! ([`crate::local::border_matrix_with`]) is tested against, and what
//! the benchmark's layer probes time as `graph.sweep_chain`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_graph::{Cost, CsrGraph, ScratchDijkstra, INFINITE_COST};
use ds_relation::{PathTuple, Relation};

use crate::local::forward_matrix;
use crate::planner::{ChainPlan, SiteQuery, SiteQueryRef};

/// Sequential or site-parallel phase one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// All subqueries on the calling thread (the centralized-machine
    /// view; also the baseline for speed-up measurements).
    #[default]
    Sequential,
    /// One thread per site subquery (`std::thread::scope`), the paper's
    /// one-fragment-per-processor model.
    Parallel,
}

impl ExecutionMode {
    /// The backend name engines, the `System` facade and the serve stats
    /// report for this placement: `"inline"` or `"site-threads"`.
    pub fn backend_name(self) -> &'static str {
        match self {
            ExecutionMode::Sequential => "inline",
            ExecutionMode::Parallel => "site-threads",
        }
    }
}

/// Accounting for one site's subquery.
#[derive(Clone, Debug)]
pub struct SiteRun {
    pub site: usize,
    /// Time the site spent on its subquery.
    pub busy: Duration,
    /// Tuples in the site's result relation ("very small relations" that
    /// get shipped for the final joins).
    pub tuples: usize,
}

/// Run independent site subqueries with `kernel`, which appends a
/// subquery's costs (row-major over its sources and targets) to the
/// buffer it is handed. Every subquery's costs land in `out`, in order,
/// and its accounting goes to `record`, in the same order.
///
/// Sequential mode runs every subquery on `scratch` straight into `out`,
/// so a caller that keeps one scratch and one buffer across queries
/// performs no per-subquery allocation; it reads the clock once per
/// subquery plus once, a subquery's busy time ending where the next
/// one's begins. Parallel mode runs the first subquery there too and
/// gives every other one a scoped thread with its own fresh scratch and
/// buffer (stamped arrays cannot be shared across threads — exactly as
/// each real site owns its memory), re-raising a site's panic in the
/// caller with the site's own payload. So a round of one subquery (every
/// same-fragment query) spawns nothing, whatever the mode.
pub(crate) fn run_sites<'q, K>(
    queries: impl Iterator<Item = SiteQueryRef<'q>>,
    mode: ExecutionMode,
    scratch: &mut ScratchDijkstra,
    out: &mut Vec<Cost>,
    mut record: impl FnMut(SiteRun),
    kernel: K,
) where
    K: Fn(&SiteQueryRef<'_>, &mut ScratchDijkstra, &mut Vec<Cost>) + Sync,
{
    // One subquery begun at `start`: its accounting, and when it ended.
    let run_one = |q: &SiteQueryRef<'_>,
                   scratch: &mut ScratchDijkstra,
                   out: &mut Vec<Cost>,
                   start: Instant| {
        let from = out.len();
        kernel(q, scratch, out);
        let end = Instant::now();
        let run = SiteRun {
            site: q.site,
            busy: end - start,
            tuples: out[from..].iter().filter(|&&c| c < INFINITE_COST).count(),
        };
        (run, end)
    };
    if mode == ExecutionMode::Sequential {
        let mut start = Instant::now();
        for q in queries {
            let (run, end) = run_one(&q, scratch, out, start);
            record(run);
            start = end;
        }
        return;
    }
    let queries: Vec<SiteQueryRef<'q>> = queries.collect();
    let Some((first, rest)) = queries.split_first() else {
        return;
    };
    std::thread::scope(|s| {
        let run_one = &run_one;
        let handles: Vec<_> = rest
            .iter()
            .map(|q| {
                s.spawn(move || {
                    let mut costs = Vec::new();
                    let start = Instant::now();
                    let (run, _) = run_one(q, &mut ScratchDijkstra::new(), &mut costs, start);
                    (costs, run)
                })
            })
            .collect();
        record(run_one(first, scratch, out, Instant::now()).0);
        for h in handles {
            let (costs, run) = h
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            out.extend_from_slice(&costs);
            record(run);
        }
    })
}

/// Evaluate every subquery of a chain exactly as planned — one forward
/// sweep of the site's augmented graph
/// ([`crate::EngineSnapshot::augmented_handle`]) per source node, nothing
/// shared between chains. Returns the segment relations (in chain order)
/// and per-site accounting.
///
/// This is the reference phase one: the engine's evaluator
/// ([`crate::api::run_batch`]) answers the same queries without
/// sweeping those graphs and is tested against this plus
/// [`crate::assemble::chain_cost_refs`].
pub fn run_chain(
    augmented: &[Arc<CsrGraph>],
    chain: &ChainPlan,
    mode: ExecutionMode,
    scratch: &mut ScratchDijkstra,
) -> (Vec<Relation<PathTuple>>, Vec<SiteRun>) {
    let queries = chain.queries.iter().map(SiteQuery::as_ref);
    let (mut costs, mut runs) = (Vec::new(), Vec::new());
    run_sites(
        queries.clone(),
        mode,
        scratch,
        &mut costs,
        |run| runs.push(run),
        |q, scratch, out| {
            out.extend(forward_matrix(
                &augmented[q.site],
                q.sources,
                q.targets,
                scratch,
            ));
        },
    );
    let mut rest = &costs[..];
    let segments = queries
        .map(|q| {
            let (mine, later) = rest.split_at(q.sources.len() * q.targets.len());
            rest = later;
            relation(q, mine)
        })
        .collect();
    (segments, runs)
}

/// A subquery's costs, row-major, as `(source, target, cost)` tuples,
/// unreachable pairs dropped.
fn relation(q: SiteQueryRef<'_>, costs: &[Cost]) -> Relation<PathTuple> {
    let pairs = (q.sources.iter()).flat_map(|&u| q.targets.iter().map(move |&v| (u, v)));
    let rows = (pairs.zip(costs))
        .filter(|&(_, &cost)| cost < INFINITE_COST)
        .map(|((u, v), &cost)| PathTuple::new(u, v, cost))
        .collect();
    Relation::from_rows("border", rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::{Edge, NodeId};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn setup() -> (Vec<Arc<CsrGraph>>, ChainPlan) {
        // Two sites: site 0 owns 0-1-2 (unit path), site 1 owns 2-3-4.
        let site0 = CsrGraph::from_edges(5, &[Edge::unit(n(0), n(1)), Edge::unit(n(1), n(2))]);
        let site1 = CsrGraph::from_edges(5, &[Edge::unit(n(2), n(3)), Edge::unit(n(3), n(4))]);
        let chain = ChainPlan {
            fragments: vec![0, 1],
            queries: vec![
                SiteQuery {
                    site: 0,
                    sources: vec![n(0)],
                    targets: vec![n(2)],
                },
                SiteQuery {
                    site: 1,
                    sources: vec![n(2)],
                    targets: vec![n(4)],
                },
            ],
        };
        (vec![Arc::new(site0), Arc::new(site1)], chain)
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let (aug, chain) = setup();
        let mut scratch = ScratchDijkstra::new();
        let (seq, seq_runs) = run_chain(&aug, &chain, ExecutionMode::Sequential, &mut scratch);
        let (par, par_runs) = run_chain(&aug, &chain, ExecutionMode::Parallel, &mut scratch);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0].rows(), par[0].rows());
        assert_eq!(seq[1].rows(), par[1].rows());
        assert_eq!(seq_runs.len(), par_runs.len());
        assert_eq!(seq_runs[0].tuples, 1);
        assert_eq!(seq_runs[1].tuples, 1);
        assert_eq!(seq_runs[0].site, 0);
        assert_eq!(par_runs[1].site, 1);
    }

    #[test]
    fn a_round_of_one_subquery_runs_on_the_callers_scratch() {
        let (aug, chain) = setup();
        let queries = || chain.queries.iter().map(SiteQuery::as_ref);
        let kernel = |q: &SiteQueryRef<'_>, scratch: &mut ScratchDijkstra, out: &mut Vec<Cost>| {
            out.extend(forward_matrix(&aug[q.site], q.sources, q.targets, scratch))
        };
        let (mut scratch, mut out, mut runs) = (ScratchDijkstra::new(), Vec::new(), Vec::new());
        let mode = ExecutionMode::Parallel;
        run_sites(
            queries().take(1),
            mode,
            &mut scratch,
            &mut out,
            |r| runs.push(r),
            kernel,
        );
        assert_eq!(scratch.stats().sweeps, 1, "no thread, no fresh scratch");
        run_sites(
            queries(),
            mode,
            &mut scratch,
            &mut out,
            |r| runs.push(r),
            kernel,
        );
        assert_eq!(
            scratch.stats().sweeps,
            2,
            "two sites: the second on a thread"
        );
        // Costs and accounting in query order, the threaded site's too.
        assert_eq!(out, [2, 2, 2]);
        let sites: Vec<usize> = runs.iter().map(|r| r.site).collect();
        assert_eq!(sites, [0, 0, 1]);
    }

    #[test]
    fn a_site_panic_reaches_the_caller_with_its_own_payload() {
        let (aug, chain) = setup();
        let caught = std::panic::catch_unwind(|| {
            run_sites(
                chain.queries.iter().map(SiteQuery::as_ref),
                ExecutionMode::Parallel,
                &mut ScratchDijkstra::new(),
                &mut Vec::new(),
                |_| {},
                |q, scratch, out| {
                    assert_eq!(q.site, 0, "site {} kernel failed", q.site);
                    out.extend(forward_matrix(&aug[q.site], q.sources, q.targets, scratch));
                },
            )
        });
        let payload = caught.expect_err("the site thread's panic propagates");
        let message = payload.downcast_ref::<String>().expect("formatted panic");
        assert!(message.contains("site 1 kernel failed"), "{message}");
    }

    #[test]
    fn segment_costs_are_local_shortest_paths() {
        let (aug, chain) = setup();
        let mut scratch = ScratchDijkstra::new();
        let (segs, _) = run_chain(&aug, &chain, ExecutionMode::Sequential, &mut scratch);
        assert_eq!(segs[0].cost_of(n(0), n(2)), Some(2));
        assert_eq!(segs[1].cost_of(n(2), n(4)), Some(2));
        // Site 0 does not reach 4: no tuple.
        let far = SiteQuery {
            site: 0,
            sources: vec![n(0)],
            targets: vec![n(2), n(4)],
        };
        let rel = relation(
            far.as_ref(),
            &forward_matrix(&aug[0], &[n(0)], &[n(2), n(4)], &mut scratch),
        );
        assert_eq!((rel.len(), rel.cost_of(n(0), n(2))), (1, Some(2)));
    }
}
