//! Parallel Hierarchical Evaluation (PHE) — the extension the paper
//! points to for complex fragmentation graphs (§5, ref \[12\]):
//!
//! "It introduces the concept of a 'high-speed network'; this is a
//! separate fragment that mandatorily has to be traversed when going to a
//! non-adjacent fragment."
//!
//! The construction here mirrors the transportation archetype: the
//! inter-cluster connections (fast intercity lines, optic fibres) become
//! their own *hub* fragment. Every cluster fragment is then adjacent only
//! to the hub, the fragmentation graph is a star, and any query needs at
//! most the chain `[cluster, hub, cluster]` — chain enumeration cost
//! stops depending on the number of fragments.
//!
//! PHE is therefore the plain planner on a star fragmentation: a star is
//! loosely connected, so [`ds_fragment::FragmentationGraph::unique_chain`]
//! already yields the one chain through the hub, and the engine needs no
//! setting of its own to route there.

use ds_fragment::{FragError, FragmentId, Fragmentation};
use ds_graph::{Edge, NodeId};

/// Build a hub fragmentation from a cluster labeling: in-cluster edges go
/// to their cluster's fragment, every cross-cluster edge goes to the hub
/// fragment. Returns the fragmentation and the hub's fragment id (always
/// `cluster_count`).
pub fn hub_fragmentation(
    node_count: usize,
    edges: &[Edge],
    cluster_of: &[u32],
    cluster_count: usize,
) -> Result<(Fragmentation, FragmentId), FragError> {
    if edges.is_empty() {
        return Err(FragError::EmptyRelation);
    }
    if cluster_of.len() != node_count {
        return Err(FragError::LabelLengthMismatch {
            labels: cluster_of.len(),
            node_count,
        });
    }
    if let Some(&bad) = cluster_of.iter().find(|&&c| c as usize >= cluster_count) {
        return Err(FragError::InvalidConfig(format!(
            "cluster label {bad} out of range 0..{cluster_count}"
        )));
    }
    let hub = cluster_count;
    let mut sets: Vec<Vec<Edge>> = vec![Vec::new(); cluster_count + 1];
    for e in edges {
        let (a, b) = (
            cluster_of[e.src.index()] as usize,
            cluster_of[e.dst.index()] as usize,
        );
        let owner = if a == b { a } else { hub };
        sets[owner].push(*e);
    }
    // Seed nodes into their cluster fragments so every node has a home.
    let mut seeds: Vec<Vec<NodeId>> = vec![Vec::new(); cluster_count + 1];
    for (v, &c) in cluster_of.iter().enumerate() {
        seeds[c as usize].push(NodeId::from_index(v));
    }
    Ok((Fragmentation::new(node_count, sets, seeds), hub))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::engine::EngineConfig;
    use crate::snapshot::EngineSnapshot;
    use ds_gen::{generate_transportation, ClusterTopology, TransportationConfig};
    use ds_graph::ScratchDijkstra;

    #[test]
    fn hub_fragmentation_is_a_star() {
        let cfg = TransportationConfig {
            topology: ClusterTopology::Ring, // cyclic without a hub!
            ..TransportationConfig::table1()
        };
        let g = generate_transportation(&cfg, 5);
        let labels = g.cluster_of.clone().unwrap();
        let (frag, hub) = hub_fragmentation(g.nodes, &g.connections, &labels, 4).unwrap();
        assert_eq!(hub, 4);
        frag.validate(&g.connections).unwrap();
        let fg = frag.fragmentation_graph();
        // Every link involves the hub: clusters never share nodes.
        for &(a, b) in fg.links() {
            assert!(a == hub || b == hub, "link ({a},{b}) bypasses the hub");
        }
        assert!(fg.is_acyclic(), "a star is loosely connected");
    }

    #[test]
    fn hub_engine_matches_baseline_on_ring_topology() {
        // The ring topology makes plain cluster fragmentation cyclic; the
        // hub construction removes the cycle and stays exact.
        let cfg = TransportationConfig {
            clusters: 4,
            nodes_per_cluster: 12,
            target_edges_per_cluster: 30,
            topology: ClusterTopology::Ring,
            ..TransportationConfig::default()
        };
        let g = generate_transportation(&cfg, 9);
        let labels = g.cluster_of.clone().unwrap();
        let (frag, hub) = hub_fragmentation(g.nodes, &g.connections, &labels, 4).unwrap();
        let csr = g.closure_graph();
        let engine = EngineSnapshot::build(frag, true, EngineConfig::default());
        let mut scratch = ScratchDijkstra::new();
        for (x, y) in [(0u32, 40u32), (3, 25), (13, 47), (30, 2), (45, 20)] {
            let got = engine.shortest_path(NodeId(x), NodeId(y), &mut scratch);
            let want = baseline::shortest_path_cost(&csr, NodeId(x), NodeId(y));
            assert_eq!(got.cost, want, "query {x}->{y}");
            if let Some(chain) = &got.best_chain {
                assert!(chain.len() <= 3, "PHE chains are bounded: {chain:?}");
                assert!(
                    chain.len() < 3 || chain[1] == hub,
                    "through the hub: {chain:?}"
                );
            }
        }
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            hub_fragmentation(2, &[], &[0, 0], 1),
            Err(FragError::EmptyRelation)
        ));
        let e = [Edge::unit(NodeId(0), NodeId(1))];
        assert!(matches!(
            hub_fragmentation(2, &e, &[0], 1),
            Err(FragError::LabelLengthMismatch { .. })
        ));
        assert!(matches!(
            hub_fragmentation(2, &e, &[0, 9], 1),
            Err(FragError::InvalidConfig(_))
        ));
    }
}
