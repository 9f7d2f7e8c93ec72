//! Transportation graphs (Fig. 3): "clusters of nodes with a rather high
//! internal connectivity rate, while these clusters are loosely
//! interconnected".
//!
//! §4.1: "For transportation graphs, the abovementioned procedure was
//! first used to generate the required number of fragments. Then, these
//! fragments were connected following the requirements given by the user."

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use ds_graph::{Coord, Edge, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::TransportationConfig;
use crate::general::{connection_cost, draw_edges, draw_edges_reference, Draw};
use crate::output::GeneratedGraph;
use crate::probability::calibrate_c1;
use crate::spatial::{cluster_origins, uniform_square};

/// The signature of [`closest_cross_pairs`] and
/// [`closest_cross_pairs_reference`].
type Link = fn(&[Coord], usize, (usize, usize), usize, &mut Vec<CrossPair>);

/// Generate a transportation graph. Node ids are laid out cluster by
/// cluster: cluster `c` owns ids `c·m .. (c+1)·m` where `m` is
/// `nodes_per_cluster`. The returned `cluster_of` records that.
pub fn generate_transportation(cfg: &TransportationConfig, seed: u64) -> GeneratedGraph {
    transportation_with(cfg, seed, draw_edges, closest_cross_pairs)
}

/// [`generate_transportation`] by the reference recipe
/// ([`draw_edges_reference`], [`closest_cross_pairs_reference`]): the
/// same graph, bit for bit, for the tests and the gates bench to hold
/// the kernels to.
pub fn generate_transportation_reference(cfg: &TransportationConfig, seed: u64) -> GeneratedGraph {
    transportation_with(
        cfg,
        seed,
        draw_edges_reference,
        closest_cross_pairs_reference,
    )
}

/// [`generate_transportation`] drawing each cluster with `draw` and
/// picking each link's pairs with `link`.
fn transportation_with(
    cfg: &TransportationConfig,
    seed: u64,
    draw: Draw,
    link: Link,
) -> GeneratedGraph {
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
        connections.extend(draw(
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
        link(&coords, m, (a, b), k, &mut pairs);
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
pub type CrossPair = (f64, usize, usize);

/// The order links pick their pairs in: by distance, ties by `(i, j)` —
/// the order a stable sort by distance leaves pairs pushed in `(i, j)`
/// order in.
fn by_distance(x: &CrossPair, y: &CrossPair) -> Ordering {
    let d = x.0.partial_cmp(&y.0).expect("distances are finite");
    d.then((x.1, x.2).cmp(&(y.1, y.2)))
}

/// A [`CrossPair`] ordered by [`by_distance`], so a max-heap of them
/// keeps its worst on top.
struct Ranked(CrossPair);

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        by_distance(&self.0, &other.0)
    }
}

/// `1 − 2⁻⁵⁰`: [`closest_cross_pairs`] stops a walk once `|Δx|` shrunk by
/// this exceeds the `k`-th best distance. The computed distance of a
/// pair is at least `|Δx|·(1 − 2⁻⁵¹)` (three roundings of at most 2⁻⁵³
/// each), so such a pair is strictly farther, and cannot win a tie.
const SHRINK: f64 = 1.0 - 1.0 / (1u64 << 50) as f64;

/// Below this `k`-th best distance no walk stops early: a `|Δx|` that
/// small could square into the subnormal range, where the relative
/// bound behind [`SHRINK`] does not hold. Just above `√MIN_POSITIVE`
/// (2⁻⁵¹¹ ≈ 1.49e-154).
const PRUNE_FROM: f64 = 1.5e-154;

/// The `k` closest (by Euclidean distance) node pairs between clusters
/// `a` and `b`, in `by_distance` order, into `pairs` (whose allocation
/// the links share). Pairs are distinct; endpoints may repeat (one
/// border city can anchor several links, as Fig. 3 shows).
///
/// The same pairs as [`closest_cross_pairs_reference`], without listing
/// all `m²`: `b`'s nodes are sorted by x, and from each node of `a` the
/// scan walks outward from its x position in both directions, offering
/// each pair to a max-heap of the `k` best. A direction stops once
/// `|Δx|·(1 − 2⁻⁵⁰)` exceeds the heap's worst distance: a computed
/// distance is at least `|Δx|·(1 − 2⁻⁵¹)`, so that pair and every pair
/// further out is strictly farther. A pair tied with the worst is never
/// skipped, so the `(i, j)` tie-break decides as in the
/// reference. Memory is O(m + k).
pub fn closest_cross_pairs(
    coords: &[Coord],
    nodes_per_cluster: usize,
    (a, b): (usize, usize),
    k: usize,
    pairs: &mut Vec<CrossPair>,
) {
    let m = nodes_per_cluster;
    pairs.clear();
    if k == 0 {
        return;
    }
    let mut by_x: Vec<(f64, usize)> = ((b * m)..((b + 1) * m)).map(|j| (coords[j].x, j)).collect();
    by_x.sort_unstable_by(|p, q| p.0.total_cmp(&q.0));
    let mut best: BinaryHeap<Ranked> = BinaryHeap::with_capacity(k.min(m * m));
    // Once the heap is full: the worst distance kept, which a pair must
    // not exceed to enter.
    let mut limit = f64::INFINITY;
    for i in (a * m)..((a + 1) * m) {
        let xi = coords[i].x;
        // Offers pair (i, j); false once j, and every node further out
        // in its direction, is too far.
        let mut offer = |&(xj, j): &(f64, usize)| {
            if (xj - xi).abs() * SHRINK > limit {
                return false;
            }
            let pair = (coords[i].distance(&coords[j]), i, j);
            if best.len() < k {
                best.push(Ranked(pair));
            } else {
                let mut worst = best.peek_mut().expect("k > 0");
                if by_distance(&pair, &worst.0) == Ordering::Less {
                    *worst = Ranked(pair);
                }
            }
            if best.len() == k {
                let worst = best.peek().expect("k > 0").0 .0;
                limit = if worst >= PRUNE_FROM {
                    worst
                } else {
                    f64::INFINITY
                };
            }
            true
        };
        let split = by_x.partition_point(|&(xj, _)| xj < xi);
        for j in &by_x[split..] {
            if !offer(j) {
                break;
            }
        }
        for j in by_x[..split].iter().rev() {
            if !offer(j) {
                break;
            }
        }
    }
    pairs.extend(best.into_sorted_vec().into_iter().map(|r| r.0));
}

/// [`closest_cross_pairs`] by listing all `m²` cross pairs, selecting the
/// `k` smallest and sorting them: the reference the scan is tested and
/// timed against.
pub fn closest_cross_pairs_reference(
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

    /// Every link's pairs, by the scan and by the reference's selection,
    /// equal the `k` first of a stable sort of all its cross pairs by
    /// distance — on the pinned 12 x 100 graph (ring links too), on
    /// Table 1's over several seeds, and on coordinates full of ties
    /// (two grids side by side or interleaved, some points coincident),
    /// both ways round, for every `k` up to 40 and up to all pairs.
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
        // (nodes per cluster, coordinates, links)
        type Links = Vec<(usize, usize, usize)>;
        let mut cases: Vec<(usize, Vec<Coord>, Links)> = Vec::new();
        for seed in [1993, 0, 1, 2, 3, 4] {
            let ring = TransportationConfig {
                topology: ClusterTopology::Ring,
                ..pinned.clone()
            };
            for cfg in [ring, TransportationConfig::table1()] {
                let m = cfg.nodes_per_cluster;
                let coords = generate_transportation(&cfg, seed).coords;
                let mut links = cfg.links();
                links.extend([(0, 1, 0), (0, 1, 7), (0, 1, m * m)]);
                cases.push((m, coords, links));
            }
        }
        let grids: [fn(usize, usize) -> Coord; 3] = [
            |c, i| Coord::new((c * 6 + i % 5) as f64, (i / 5) as f64),
            |c, i| Coord::new((2 * (i % 5) + c) as f64, (i / 5) as f64),
            |c, i| Coord::new((i % 3) as f64, (c + i / 3 % 2) as f64),
        ];
        for grid in grids {
            let coords = (0..2).flat_map(|c| (0..25).map(move |i| grid(c, i)));
            let ks = (0..=40).chain([624, 625, 626]);
            let links = ks.flat_map(|k| [(0, 1, k), (1, 0, k)]).collect();
            cases.push((25, coords.collect(), links));
        }
        let mut pairs = Vec::new();
        for (m, coords, links) in &cases {
            for &(a, b, k) in links {
                let sorted = reference(coords, *m, (a, b), k);
                for pick in [closest_cross_pairs, closest_cross_pairs_reference] {
                    pick(coords, *m, (a, b), k, &mut pairs);
                    assert_eq!(pairs, sorted, "link ({a}, {b}) k={k}");
                }
            }
        }
    }
}
