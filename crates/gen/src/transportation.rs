//! Transportation graphs (Fig. 3): "clusters of nodes with a rather high
//! internal connectivity rate, while these clusters are loosely
//! interconnected".
//!
//! §4.1: "For transportation graphs, the abovementioned procedure was
//! first used to generate the required number of fragments. Then, these
//! fragments were connected following the requirements given by the user."

use ds_graph::{Coord, Edge, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::TransportationConfig;
use crate::general::{connection_cost, draw_edges};
use crate::output::GeneratedGraph;
use crate::probability::calibrate_c1;
use crate::spatial::{cluster_origins, uniform_square};

/// Generate a transportation graph. Node ids are laid out cluster by
/// cluster: cluster `c` owns ids `c·m .. (c+1)·m` where `m` is
/// `nodes_per_cluster`. The returned `cluster_of` records that.
pub fn generate_transportation(cfg: &TransportationConfig, seed: u64) -> GeneratedGraph {
    assert!(cfg.clusters > 0, "need at least one cluster");
    assert!(
        cfg.nodes_per_cluster > 1,
        "clusters need at least two nodes"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let m = cfg.nodes_per_cluster;
    let origins = cluster_origins(cfg.clusters, cfg.cluster_extent, cfg.cluster_gap);

    let mut coords: Vec<Coord> = Vec::with_capacity(cfg.total_nodes());
    let mut connections: Vec<Edge> = Vec::new();
    let mut cluster_of = Vec::with_capacity(cfg.total_nodes());

    // Per-cluster internal structure, exactly the general-graph recipe on
    // the cluster's own coordinate patch.
    for (c, &(x0, y0)) in origins.iter().enumerate() {
        let patch = uniform_square(&mut rng, m, x0, y0, cfg.cluster_extent);
        let c1 = calibrate_c1(&patch, cfg.c2, cfg.target_edges_per_cluster);
        connections.extend(draw_edges(
            &mut rng,
            &patch,
            c1,
            cfg.c2,
            cfg.unit_costs,
            (c * m) as u32,
        ));
        coords.extend(patch);
        cluster_of.extend(std::iter::repeat_n(c as u32, m));
    }

    // Inter-cluster connections: for each requested link, the k
    // geometrically closest cross pairs become the connecting edges —
    // border cities sit on facing edges of the two patches, as in a real
    // transportation network.
    let mut pairs = Vec::new();
    for (a, b, k) in cfg.links() {
        assert!(
            a < cfg.clusters && b < cfg.clusters && a != b,
            "bad link ({a},{b})"
        );
        closest_cross_pairs(&coords, m, (a, b), k, &mut pairs);
        let link = pairs.iter().map(|&(d, i, j)| {
            let cost = connection_cost(d, cfg.unit_costs);
            Edge::new(NodeId(i as u32), NodeId(j as u32), cost)
        });
        connections.extend(link);
    }

    GeneratedGraph {
        nodes: cfg.total_nodes(),
        connections,
        coords,
        cluster_of: Some(cluster_of),
        symmetric: true,
    }
}

/// A cross pair `(distance, i, j)`: node `i` of one cluster, node `j` of
/// the other.
type CrossPair = (f64, usize, usize);

/// The order links pick their pairs in: by distance, ties by `(i, j)` —
/// the order a stable sort by distance leaves pairs pushed in `(i, j)`
/// order in.
fn by_distance(x: &CrossPair, y: &CrossPair) -> std::cmp::Ordering {
    let d = x.0.partial_cmp(&y.0).expect("distances are finite");
    d.then((x.1, x.2).cmp(&(y.1, y.2)))
}

/// The `k` closest (by Euclidean distance) node pairs between clusters
/// `a` and `b`, in `by_distance` order, into `pairs` (whose allocation
/// the links share). Pairs are distinct; endpoints may repeat (one
/// border city can anchor several links, as Fig. 3 shows). The `k`
/// smallest are selected, not sorted out of all `m²` pairs.
fn closest_cross_pairs(
    coords: &[Coord],
    nodes_per_cluster: usize,
    (a, b): (usize, usize),
    k: usize,
    pairs: &mut Vec<CrossPair>,
) {
    let range_a = (a * nodes_per_cluster)..((a + 1) * nodes_per_cluster);
    let range_b = (b * nodes_per_cluster)..((b + 1) * nodes_per_cluster);
    pairs.clear();
    for i in range_a {
        for j in range_b.clone() {
            pairs.push((coords[i].distance(&coords[j]), i, j));
        }
    }
    if k < pairs.len() {
        if k > 0 {
            pairs.select_nth_unstable_by(k - 1, by_distance);
        }
        pairs.truncate(k);
    }
    pairs.sort_unstable_by(by_distance);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterTopology;
    use ds_graph::traverse;

    fn small_cfg() -> TransportationConfig {
        TransportationConfig {
            clusters: 4,
            nodes_per_cluster: 25,
            target_edges_per_cluster: 105,
            connections_per_link: 2,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = small_cfg();
        let a = generate_transportation(&cfg, 42);
        let b = generate_transportation(&cfg, 42);
        assert_eq!(a.connections, b.connections);
    }

    #[test]
    fn cluster_labels_match_layout() {
        let g = generate_transportation(&small_cfg(), 1);
        let labels = g.cluster_of.as_ref().unwrap();
        assert_eq!(labels.len(), 100);
        assert_eq!(labels[0], 0);
        assert_eq!(labels[24], 0);
        assert_eq!(labels[25], 1);
        assert_eq!(labels[99], 3);
    }

    #[test]
    fn intra_cluster_edges_stay_in_cluster_except_links() {
        let cfg = small_cfg();
        let g = generate_transportation(&cfg, 7);
        let labels = g.cluster_of.as_ref().unwrap();
        let crossing: Vec<&Edge> = g
            .connections
            .iter()
            .filter(|e| labels[e.src.index()] != labels[e.dst.index()])
            .collect();
        // Chain topology with 2 connections per link: exactly 6 crossing
        // connections (links are chosen deterministically from coords).
        assert_eq!(crossing.len(), 6);
        for e in crossing {
            let (ca, cb) = (labels[e.src.index()], labels[e.dst.index()]);
            assert_eq!(
                (ca as i32 - cb as i32).abs(),
                1,
                "chain links only adjacent clusters"
            );
        }
    }

    #[test]
    fn edge_count_near_paper_average() {
        // Table 1: "the average number of edges in these graphs was 429".
        let cfg = small_cfg();
        let mean: f64 = (0..10)
            .map(|s| generate_transportation(&cfg, s).connection_count() as f64)
            .sum::<f64>()
            / 10.0;
        assert!(
            (mean - 426.0).abs() < 45.0,
            "mean {mean} not near 426 (=4×105+6)"
        );
    }

    #[test]
    fn graph_is_connected_across_clusters() {
        let g = generate_transportation(&small_cfg(), 3);
        let csr = g.closure_graph();
        let (_, count) = traverse::weak_components(&csr);
        // Clusters are internally dense and chained; with ~105 expected
        // edges on 25 nodes isolated nodes are vanishingly rare for this
        // seed.
        assert_eq!(count, 1, "expected a single weak component");
    }

    #[test]
    fn ring_topology_produces_cycle_links() {
        let cfg = TransportationConfig {
            topology: ClusterTopology::Ring,
            ..small_cfg()
        };
        let g = generate_transportation(&cfg, 5);
        let labels = g.cluster_of.as_ref().unwrap();
        let has_wraparound = g.connections.iter().any(|e| {
            let (a, b) = (labels[e.src.index()], labels[e.dst.index()]);
            (a, b) == (3, 0) || (a, b) == (0, 3)
        });
        assert!(has_wraparound, "ring must link last cluster back to first");
    }

    #[test]
    fn explicit_topology_respected() {
        let cfg = TransportationConfig {
            topology: ClusterTopology::Explicit(vec![(0, 3, 4)]),
            ..small_cfg()
        };
        let g = generate_transportation(&cfg, 5);
        let labels = g.cluster_of.as_ref().unwrap();
        let crossing: Vec<_> = g
            .connections
            .iter()
            .filter(|e| labels[e.src.index()] != labels[e.dst.index()])
            .collect();
        assert_eq!(crossing.len(), 4);
        for e in crossing {
            let mut pair = [labels[e.src.index()], labels[e.dst.index()]];
            pair.sort();
            assert_eq!(pair, [0, 3]);
        }
    }

    #[test]
    fn cross_links_are_geometrically_short() {
        // Link edges connect facing borders, so they should be much
        // shorter than the patch pitch (extent + gap).
        let cfg = small_cfg();
        let g = generate_transportation(&cfg, 9);
        let labels = g.cluster_of.as_ref().unwrap();
        for e in &g.connections {
            if labels[e.src.index()] != labels[e.dst.index()] {
                let d = g.coords[e.src.index()].distance(&g.coords[e.dst.index()]);
                assert!(d < cfg.cluster_extent + cfg.cluster_gap);
            }
        }
    }

    /// Every link's pairs, by selection, equal the `k` first of a stable
    /// sort of all its cross pairs by distance — on the pinned 12 x 100
    /// graph, on Table 1's over several seeds, and on coordinates with
    /// ties (a grid, where many pairs share a distance).
    #[test]
    fn selected_pairs_equal_the_full_sort() {
        let reference = |coords: &[Coord], m: usize, (a, b): (usize, usize), k: usize| {
            let mut all: Vec<CrossPair> = Vec::new();
            for i in (a * m)..((a + 1) * m) {
                for j in (b * m)..((b + 1) * m) {
                    all.push((coords[i].distance(&coords[j]), i, j));
                }
            }
            all.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
            all.truncate(k);
            all
        };
        let pinned = TransportationConfig {
            clusters: 12,
            nodes_per_cluster: 100,
            target_edges_per_cluster: 400,
            ..TransportationConfig::default()
        };
        let mut cases: Vec<(TransportationConfig, Vec<Coord>)> = Vec::new();
        for seed in [1993, 0, 1, 2, 3, 4] {
            for cfg in [pinned.clone(), TransportationConfig::table1()] {
                let coords = generate_transportation(&cfg, seed).coords;
                cases.push((cfg, coords));
            }
        }
        // Ties: two 5 x 5 unit grids side by side.
        let grid: Vec<Coord> = (0..2)
            .flat_map(|c| (0..25).map(move |i| Coord::new((c * 6 + i % 5) as f64, (i / 5) as f64)))
            .collect();
        let ties = TransportationConfig {
            clusters: 2,
            ..TransportationConfig::table1()
        };
        cases.push((ties, grid));
        let mut pairs = Vec::new();
        for (cfg, coords) in &cases {
            let m = cfg.nodes_per_cluster;
            for (a, b, k) in cfg
                .links()
                .into_iter()
                .chain([(0, 1, 0), (0, 1, 7), (0, 1, m * m)])
            {
                closest_cross_pairs(coords, m, (a, b), k, &mut pairs);
                assert_eq!(
                    pairs,
                    reference(coords, m, (a, b), k),
                    "link ({a}, {b}) k={k}"
                );
            }
        }
    }
}
