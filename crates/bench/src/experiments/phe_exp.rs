//! Parallel Hierarchical Evaluation (§5 / ref \[12\]): on a cyclic
//! fragmentation graph, compare plain chain enumeration against routing
//! through a mandatory high-speed-network hub.

use ds_closure::baseline;
use ds_closure::phe::hub_fragmentation;
use ds_closure::{EngineConfig, EngineSnapshot};
use ds_fragment::{semantic, CrossingPolicy};
use ds_gen::{generate_transportation, ClusterTopology, TransportationConfig};
use ds_graph::{NodeId, ScratchDijkstra};

/// One row of the PHE experiment.
#[derive(Clone, Debug)]
pub struct PheRow {
    pub mode: String,
    /// Mean chains evaluated per query.
    pub chains: f64,
    /// Mean site subqueries per query.
    pub site_queries: f64,
    /// Queries matching the centralized baseline.
    pub correct: usize,
    pub queries: usize,
}

/// Run the PHE experiment on a ring of clusters (cyclic fragmentation
/// graph without a hub).
pub fn phe(clusters: usize, nodes_per_cluster: usize, seed: u64) -> Vec<PheRow> {
    let cfg = TransportationConfig {
        clusters,
        nodes_per_cluster,
        target_edges_per_cluster: nodes_per_cluster * 3,
        topology: ClusterTopology::Ring,
        ..TransportationConfig::default()
    };
    let g = generate_transportation(&cfg, seed);
    let labels = g.cluster_of.clone().expect("labels present");
    let csr = g.closure_graph();
    let n = g.nodes as u32;
    let queries: Vec<(NodeId, NodeId)> = (0..20u32)
        .map(|i| (NodeId(i * 5 % n), NodeId((i * 11 + n / 2) % n)))
        .collect();

    let mut rows = Vec::new();

    // Plain semantic fragmentation: the fragmentation graph is the ring.
    let plain = semantic::by_labels(
        g.nodes,
        &g.connections,
        &labels,
        clusters,
        CrossingPolicy::LowerBlock,
    )
    .expect("non-empty");
    let plain_engine = EngineSnapshot::build(plain, true, EngineConfig::default());
    rows.push(run_mode(
        "chain enumeration (ring)",
        &plain_engine,
        &csr,
        &queries,
    ));

    // PHE: hub fragmentation, star-shaped fragmentation graph, whose one
    // chain per pair of fragments runs through the hub.
    let (hub_frag, _) =
        hub_fragmentation(g.nodes, &g.connections, &labels, clusters).expect("non-empty");
    let hub_engine = EngineSnapshot::build(hub_frag, true, EngineConfig::default());
    rows.push(run_mode("PHE hub routing", &hub_engine, &csr, &queries));

    rows
}

fn run_mode(
    label: &str,
    engine: &EngineSnapshot,
    csr: &ds_graph::CsrGraph,
    queries: &[(NodeId, NodeId)],
) -> PheRow {
    let mut scratch = ScratchDijkstra::new();
    let mut chains = 0.0;
    let mut site_queries = 0.0;
    let mut correct = 0;
    for &(x, y) in queries {
        let a = engine.shortest_path(x, y, &mut scratch);
        chains += a.stats.chains_evaluated as f64;
        site_queries += a.stats.site_queries as f64;
        if a.cost == baseline::shortest_path_cost(csr, x, y) {
            correct += 1;
        }
    }
    PheRow {
        mode: label.to_string(),
        chains: chains / queries.len() as f64,
        site_queries: site_queries / queries.len() as f64,
        correct,
        queries: queries.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_modes_are_exact_and_hub_bounds_work() {
        let rows = phe(4, 12, 2);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.correct, r.queries, "{} answered wrongly", r.mode);
        }
        // PHE should not evaluate more chains than ring enumeration.
        assert!(
            rows[1].chains <= rows[0].chains,
            "hub chains {} > ring chains {}",
            rows[1].chains,
            rows[0].chains
        );
    }

    /// The PHE table `repro` prints, at its seed. A query asks its
    /// endpoint sites only (interior segments are hub reads), so both
    /// modes run about two site subqueries per query, whatever their
    /// chain counts.
    #[test]
    fn the_phe_rows_read_3_45_against_1_20_chains() {
        use crate::table::{f1, f2};
        let rows: Vec<String> = (phe(6, 15, 1).iter())
            .map(|r| {
                let (chains, sites) = (f2(r.chains), f1(r.site_queries));
                format!("{}: {chains} {sites} {}/{}", r.mode, r.correct, r.queries)
            })
            .collect();
        let want = [
            "chain enumeration (ring): 3.45 2.0 20/20",
            "PHE hub routing: 1.20 2.1 20/20",
        ];
        assert_eq!(rows, want);
    }
}
