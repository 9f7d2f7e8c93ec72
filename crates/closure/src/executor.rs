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

use ds_graph::{CsrGraph, ScratchDijkstra};
use ds_relation::{PathTuple, Relation};

use crate::local::{forward_matrix, SegmentMatrix};
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

/// Run independent site subqueries with `kernel`, returning each one's
/// result and accounting in order.
///
/// Sequential mode runs every subquery on `scratch`, so a caller that
/// keeps one scratch across queries performs no per-subquery O(V)
/// allocations. Parallel mode runs the first subquery there too and gives
/// every other one a scoped thread with its own fresh scratch (stamped
/// arrays cannot be shared across threads — exactly as each real site
/// owns its memory), re-raising a site's panic in the caller with the
/// site's own payload. So a round of one subquery (every same-fragment
/// query) spawns nothing, whatever the mode.
pub(crate) fn run_sites<K>(
    queries: &[SiteQueryRef<'_>],
    mode: ExecutionMode,
    scratch: &mut ScratchDijkstra,
    kernel: K,
) -> Vec<(SegmentMatrix, SiteRun)>
where
    K: Fn(&SiteQueryRef<'_>, &mut ScratchDijkstra) -> SegmentMatrix + Sync,
{
    let run_one = |q: &SiteQueryRef<'_>, scratch: &mut ScratchDijkstra| {
        let start = Instant::now();
        let m = kernel(q, scratch);
        let run = SiteRun {
            site: q.site,
            busy: start.elapsed(),
            tuples: m.tuples(),
        };
        (m, run)
    };
    if mode == ExecutionMode::Sequential {
        return queries.iter().map(|q| run_one(q, scratch)).collect();
    }
    let Some((first, rest)) = queries.split_first() else {
        return Vec::new();
    };
    std::thread::scope(|s| {
        let run_one = &run_one;
        let handles: Vec<_> = rest
            .iter()
            .map(|q| s.spawn(move || run_one(q, &mut ScratchDijkstra::new())))
            .collect();
        let mut runs = Vec::with_capacity(queries.len());
        runs.push(run_one(first, scratch));
        runs.extend(handles.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        }));
        runs
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
    let queries: Vec<SiteQueryRef<'_>> = chain.queries.iter().map(SiteQuery::as_ref).collect();
    run_sites(&queries, mode, scratch, |q, scratch| {
        forward_matrix(&augmented[q.site], q.sources, q.targets, scratch)
    })
    .into_iter()
    .zip(&queries)
    .map(|((m, run), q)| (m.to_relation(q.sources, q.targets), run))
    .unzip()
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
        let queries: Vec<SiteQueryRef<'_>> = chain.queries.iter().map(SiteQuery::as_ref).collect();
        let kernel = |q: &SiteQueryRef<'_>, scratch: &mut ScratchDijkstra| {
            forward_matrix(&aug[q.site], q.sources, q.targets, scratch)
        };
        let mut scratch = ScratchDijkstra::new();
        run_sites(&queries[..1], ExecutionMode::Parallel, &mut scratch, kernel);
        assert_eq!(scratch.stats().sweeps, 1, "no thread, no fresh scratch");
        run_sites(&queries, ExecutionMode::Parallel, &mut scratch, kernel);
        assert_eq!(
            scratch.stats().sweeps,
            2,
            "two sites: the second on a thread"
        );
    }

    #[test]
    fn a_site_panic_reaches_the_caller_with_its_own_payload() {
        let (aug, chain) = setup();
        let queries: Vec<SiteQueryRef<'_>> = chain.queries.iter().map(SiteQuery::as_ref).collect();
        let caught = std::panic::catch_unwind(|| {
            run_sites(
                &queries,
                ExecutionMode::Parallel,
                &mut ScratchDijkstra::new(),
                |q, scratch| {
                    assert_eq!(q.site, 0, "site {} kernel failed", q.site);
                    forward_matrix(&aug[q.site], q.sources, q.targets, scratch)
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
    }
}
