//! What the engine ([`crate::snapshot::EngineSnapshot`]) is configured
//! with and what it answers: [`EngineConfig`], [`QueryAnswer`] with its
//! [`QueryStats`], and [`Route`].

use std::sync::Arc;
use std::time::Duration;

use ds_fragment::FragmentId;
use ds_graph::{Cost, NodeId};

use crate::executor::ExecutionMode;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Chain enumeration caps for cyclic fragmentation graphs.
    pub max_chains: usize,
    pub max_chain_len: usize,
    /// Where phase one's site subqueries run: on the calling thread, or
    /// one scoped thread each (what the facade calls the site-threads
    /// backend). The engine's `backend_name` is derived from it.
    pub mode: ExecutionMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_chains: 64,
            max_chain_len: 16,
            mode: ExecutionMode::Sequential,
        }
    }
}

/// Per-query accounting.
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// Chains of fragments evaluated.
    pub chains_evaluated: usize,
    /// Site subqueries run: one from `x` per distinct first fragment of
    /// its chains, one to `y` per distinct last fragment. The chains'
    /// interior segments are read off the hub and run none.
    pub site_queries: usize,
    /// Total tuples in the relations those subqueries shipped.
    pub tuples_shipped: usize,
    /// Longest single site subquery — the phase-one wall time under full
    /// parallelism.
    pub max_site_busy: Duration,
    /// Total site work — the phase-one wall time on one processor.
    pub total_site_busy: Duration,
    /// Whether multi-chain enumeration was needed (cyclic G').
    pub enumerated: bool,
}

/// Result of a shortest-path query.
#[derive(Clone, Debug)]
pub struct QueryAnswer {
    /// Cheapest cost, `None` if unreachable.
    pub cost: Option<Cost>,
    /// The chain of fragments that achieved it — the planner's own copy,
    /// shared by every answer and cache entry it wins.
    pub best_chain: Option<Arc<[FragmentId]>>,
    pub stats: QueryStats,
}

impl QueryAnswer {
    /// The answer for a pair no chain connects.
    pub fn unreachable() -> Self {
        QueryAnswer {
            cost: None,
            best_chain: None,
            stats: QueryStats::default(),
        }
    }
}

impl QueryStats {
    /// Account one site subquery performed for this query.
    pub fn record_site_run(&mut self, tuples: usize, busy: Duration) {
        self.site_queries += 1;
        self.tuples_shipped += tuples;
        self.total_site_busy += busy;
        self.max_site_busy = self.max_site_busy.max(busy);
    }
}

/// A fully reconstructed route.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    pub cost: Cost,
    /// Every node of the path, source to destination.
    pub nodes: Vec<NodeId>,
    /// The fragments the path's hops belong to, in order, each once per
    /// visit.
    pub chain: Vec<FragmentId>,
    /// The border cities where the path changes fragment: one between
    /// each two neighbours of `chain`.
    pub waypoints: Vec<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::QueryRequest;
    use crate::baseline;
    use crate::snapshot::tests::grid_snapshot;
    use crate::snapshot::EngineSnapshot;
    use ds_gen::deterministic::two_triangles_bridge;
    use ds_graph::ScratchDijkstra;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn grid_engine(cfg: EngineConfig) -> (ds_gen::GeneratedGraph, EngineSnapshot) {
        grid_snapshot(10, 4, cfg)
    }

    #[test]
    fn matches_global_dijkstra_everywhere() {
        let (g, engine) = grid_engine(EngineConfig::default());
        let csr = g.closure_graph();
        let mut scratch = ScratchDijkstra::new();
        for x in (0..40).step_by(7) {
            for y in (0..40).step_by(5) {
                let got = engine.shortest_path(n(x), n(y), &mut scratch).cost;
                let want = baseline::shortest_path_cost(&csr, n(x), n(y));
                assert_eq!(got, want, "query {x}->{y}");
            }
        }
    }

    #[test]
    fn same_fragment_fast_path_uses_one_site() {
        let (_, engine) = grid_engine(EngineConfig::default());
        // Nodes 0 and 1 are in the first sweep fragment.
        let a = engine.shortest_path(n(0), n(1), &mut ScratchDijkstra::new());
        assert_eq!(a.cost, Some(1));
        assert_eq!(a.best_chain.as_deref(), Some(&[0][..]));
        assert_eq!(a.stats.site_queries, 1);
    }

    #[test]
    fn self_query_is_zero() {
        let (_, engine) = grid_engine(EngineConfig::default());
        let mut scratch = ScratchDijkstra::new();
        let a = engine.shortest_path(n(17), n(17), &mut scratch);
        assert_eq!(a.cost, Some(0));
        assert!(engine.connected(n(17), n(17)));
    }

    /// The steady-state `query_batch` path performs zero O(V) heap
    /// allocations: the caller's scratch grows while the first batch
    /// fills the endpoints' access sets and border-free rows (at most
    /// once per site — a site sweeps its own fragment, not the network);
    /// from then on no request sweeps at all.
    #[test]
    fn query_batch_steady_state_is_allocation_free() {
        let (_, engine) = grid_engine(EngineConfig::default());
        let requests: Vec<QueryRequest> = (0..8u32)
            .map(|i| QueryRequest::new(n(i), n(39 - i)))
            .chain([QueryRequest::new(n(1), n(2))])
            .collect();
        let planner = engine.planner();
        assert!(requests
            .iter()
            .any(|r| planner.fragments_of(r.source) == planner.fragments_of(r.target)));
        let mut scratch = ScratchDijkstra::new();
        assert_eq!(scratch.stats(), ds_graph::ScratchStats::default());
        let first = engine.query_batch(&requests, &mut scratch);
        let warm = scratch.stats();
        assert!(
            (1..=engine.site_count() as u64).contains(&warm.grows),
            "arrays grow to the largest fragment swept: {warm:?}"
        );
        assert!(warm.sweeps > 0);
        let second = engine.query_batch(&requests, &mut scratch);
        assert_eq!(scratch.stats(), warm, "steady state: no sweep, no growth");
        assert_eq!(first.costs(), second.costs());
    }

    /// Per-phase precompute timing is exposed by the engine (it is what
    /// `TcEngine::precompute_stats` hands on) so callers can see where
    /// build time goes.
    #[test]
    fn precompute_stats_exposed_through_the_trait() {
        let (_, mut engine) = grid_engine(EngineConfig::default());
        let stats = engine.precompute_stats();
        assert_eq!(
            stats.strategy,
            crate::complementary::PrecomputeStrategy::Skeleton
        );
        assert!(stats.local_sweeps_ns > 0, "{stats:?}");
        assert!(stats.total_ns() >= stats.local_sweeps_ns);
        // Stats survive (and reflect) update maintenance.
        let f0 = engine.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        let insert = crate::api::NetworkUpdate::Insert {
            edge: ds_graph::Edge::new(a, b, 1),
            owner: 0,
        };
        engine
            .maintain(&insert, &mut ScratchDijkstra::new())
            .unwrap();
        assert!(engine.precompute_stats().total_ns() > 0);
    }

    #[test]
    fn parallel_mode_agrees_with_sequential() {
        let (_, seq_engine) = grid_engine(EngineConfig::default());
        let (_, par_engine) = grid_engine(EngineConfig {
            mode: ExecutionMode::Parallel,
            ..EngineConfig::default()
        });
        assert_eq!(seq_engine.config().mode.backend_name(), "inline");
        assert_eq!(par_engine.config().mode.backend_name(), "site-threads");
        let mut scratch = ScratchDijkstra::new();
        for (x, y) in [(0u32, 39u32), (5, 33), (12, 27), (39, 0)] {
            assert_eq!(
                seq_engine.shortest_path(n(x), n(y), &mut scratch).cost,
                par_engine.shortest_path(n(x), n(y), &mut scratch).cost,
                "query {x}->{y}"
            );
        }
    }

    #[test]
    fn route_reconstruction_is_a_real_path() {
        let (g, engine) = grid_engine(EngineConfig::default());
        let csr = g.closure_graph();
        let route = engine
            .route(n(0), n(39), &mut ScratchDijkstra::new())
            .unwrap()
            .expect("reachable");
        assert_eq!(
            Some(route.cost),
            baseline::shortest_path_cost(&csr, n(0), n(39))
        );
        assert_eq!(*route.nodes.first().unwrap(), n(0));
        assert_eq!(*route.nodes.last().unwrap(), n(39));
        // Every hop must be a real edge; costs must sum to the total.
        let mut total = 0;
        for hop in route.nodes.windows(2) {
            let cost = csr
                .neighbors(hop[0])
                .filter(|(t, _)| *t == hop[1])
                .map(|(_, c)| c)
                .min()
                .unwrap_or_else(|| panic!("hop {}->{} is not a real edge", hop[0], hop[1]));
            total += cost;
        }
        assert_eq!(total, route.cost);
    }

    #[test]
    fn unreachable_is_none_not_error() {
        // Two disconnected triangles fragmented apart.
        let g = two_triangles_bridge();
        // Remove the bridge connection (2,3) to disconnect.
        let mut connections = g.connections.clone();
        connections.retain(|e| !(e.src == n(2) && e.dst == n(3)));
        let frag = ds_fragment::semantic::by_labels(
            6,
            &connections,
            &[0, 0, 0, 1, 1, 1],
            2,
            ds_fragment::CrossingPolicy::LowerBlock,
        )
        .unwrap();
        let engine = EngineSnapshot::build(frag, true, EngineConfig::default());
        let mut scratch = ScratchDijkstra::new();
        let a = engine.shortest_path(n(0), n(4), &mut scratch);
        assert_eq!(a.cost, None);
        assert!(!engine.connected(n(0), n(4)));
        assert_eq!(engine.route(n(0), n(4), &mut scratch), Ok(None));
        // A node in no fragment is an error, not an unreachable answer.
        assert_eq!(
            engine.route(n(0), n(6), &mut scratch),
            Err(crate::error::ClosureError::NodeNotInAnyFragment(n(6)))
        );
        let stay = engine.route(n(4), n(4), &mut scratch).unwrap().unwrap();
        assert_eq!(
            (stay.cost, stay.nodes, stay.chain),
            (0, vec![n(4)], vec![1])
        );
    }

    #[test]
    fn stats_reflect_chain_structure() {
        let (_, engine) = grid_engine(EngineConfig::default());
        // Corner to corner crosses all 4 sweep fragments.
        let a = engine.shortest_path(n(0), n(39), &mut ScratchDijkstra::new());
        assert!(a.stats.chains_evaluated >= 1);
        assert_eq!(
            a.stats.site_queries, 2,
            "one query per endpoint site; the two interior sites are hub reads"
        );
        assert!(a.stats.tuples_shipped > 0);
        assert!(
            !a.stats.enumerated,
            "linear fragmentation is loosely connected"
        );
    }
}
