//! General (unstructured) random graphs — §4.1 / §4.2.2.

use ds_graph::{Coord, Edge, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::GeneralConfig;
use crate::output::GeneratedGraph;
use crate::probability::{calibrate_c1, edge_probability};
use crate::spatial::uniform_square;

/// The signature of [`draw_edges`] and [`draw_edges_reference`], so the
/// generators can run either.
pub(crate) type Draw = fn(&mut StdRng, &[Coord], f64, f64, bool, u32) -> Vec<Edge>;

/// Generate a general random graph per the paper's recipe: coordinates
/// first, then one Bernoulli draw per node pair with
/// `P(p,q) = (c1/n²)·e^(−c2·d(p,q))`.
pub fn generate_general(cfg: &GeneralConfig, seed: u64) -> GeneratedGraph {
    general_with(cfg, seed, draw_edges)
}

/// [`generate_general`] drawing its edges with `draw`.
pub(crate) fn general_with(cfg: &GeneralConfig, seed: u64, draw: Draw) -> GeneratedGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let coords = uniform_square(&mut rng, cfg.nodes, 0.0, 0.0, cfg.extent);
    let c1 = effective_c1(cfg, &coords);
    let connections = draw(&mut rng, &coords, c1, cfg.c2, cfg.unit_costs, 0);
    GeneratedGraph {
        nodes: cfg.nodes,
        connections,
        coords,
        cluster_of: None,
        symmetric: true,
    }
}

/// The `c1` actually used: calibrated from `target_edges` when requested,
/// otherwise the configured raw value.
pub fn effective_c1(cfg: &GeneralConfig, coords: &[Coord]) -> f64 {
    if cfg.target_edges > 0 {
        calibrate_c1(coords, cfg.c2, cfg.target_edges)
    } else {
        cfg.c1
    }
}

/// Relative slack of [`draw_edges`]' rejection bound: far above the few
/// roundings on either side of the comparison (each at most 2⁻⁵³), far
/// below any probability a draw can tell apart (draws are multiples of
/// 2⁻⁵³).
const BOUND_MARGIN: f64 = 1.0 / (1u64 << 40) as f64;

/// One Bernoulli draw per unordered pair; the resulting connection carries
/// the rounded Euclidean distance as cost (or 1 in unit mode).
/// `id_offset` shifts node ids, so cluster generators can reuse this for
/// each patch.
///
/// Draws the same edges as [`draw_edges_reference`], bit for bit: one
/// `rng.gen::<f64>()` per pair in `(i, j)` order, and a pair is accepted
/// when the draw `u` is below [`edge_probability`]. Most pairs are
/// rejected without evaluating `exp`: for `x = c2·d ≥ 0`,
/// `e^x ≥ 1 + x + x²/2`, so `P ≤ (c1/n²) / (1 + x + x²/2)`, and a pair
/// whose `u · (1 + x + x²/2)` reaches `(c1/n²)·(1 + 2⁻⁴⁰)` is certainly
/// rejected. The margin covers the rounding of both sides (the bound's
/// few operations and `exp`'s last bit). Where `exp` underflows, `x` is
/// above 700 and the bound exceeds `P` by hundreds of orders of
/// magnitude; a draw is 0 or at least 2⁻⁵³, so a subnormal `c1/n²`
/// cannot be misjudged either. Any other pair — and every pair when
/// `c2 < 0` (or NaN), where the bound does not hold — is decided by
/// `edge_probability` itself. Nothing is cached: memory stays
/// O(edges), not O(pairs).
pub fn draw_edges(
    rng: &mut StdRng,
    coords: &[Coord],
    c1: f64,
    c2: f64,
    unit_costs: bool,
    id_offset: u32,
) -> Vec<Edge> {
    let n = coords.len();
    let bounded = c2 >= 0.0;
    let ceiling = c1 / (n as f64 * n as f64) * (1.0 + BOUND_MARGIN);
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let d = coords[i].distance(&coords[j]);
            let u = rng.gen::<f64>();
            if bounded {
                let x = c2 * d;
                if u * (1.0 + x + 0.5 * x * x) >= ceiling {
                    continue;
                }
            }
            if u < edge_probability(c1, c2, n, d) {
                edges.push(Edge::new(
                    NodeId(id_offset + i as u32),
                    NodeId(id_offset + j as u32),
                    connection_cost(d, unit_costs),
                ));
            }
        }
    }
    edges
}

/// [`draw_edges`] as the paper states it: `edge_probability` (one `exp`)
/// for every pair. The reference the kernel is tested and timed against.
pub fn draw_edges_reference(
    rng: &mut StdRng,
    coords: &[Coord],
    c1: f64,
    c2: f64,
    unit_costs: bool,
    id_offset: u32,
) -> Vec<Edge> {
    let n = coords.len();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let d = coords[i].distance(&coords[j]);
            let p = edge_probability(c1, c2, n, d);
            if rng.gen::<f64>() < p {
                edges.push(Edge::new(
                    NodeId(id_offset + i as u32),
                    NodeId(id_offset + j as u32),
                    connection_cost(d, unit_costs),
                ));
            }
        }
    }
    edges
}

/// Cost of a connection of geometric length `d`.
pub fn connection_cost(d: f64, unit_costs: bool) -> u64 {
    if unit_costs {
        1
    } else {
        (d.round() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let cfg = GeneralConfig {
            nodes: 40,
            target_edges: 100,
            ..Default::default()
        };
        let a = generate_general(&cfg, 11);
        let b = generate_general(&cfg, 11);
        assert_eq!(a.connections, b.connections);
        assert_eq!(a.coords, b.coords);
        let c = generate_general(&cfg, 12);
        assert_ne!(
            a.connections, c.connections,
            "different seed, different graph"
        );
    }

    #[test]
    fn edge_count_near_target() {
        let cfg = GeneralConfig {
            nodes: 100,
            target_edges: 280,
            ..Default::default()
        };
        // Average over seeds: expectation is exactly 280, so the mean of
        // 10 draws should be well within 15%.
        let mean: f64 = (0..10)
            .map(|s| generate_general(&cfg, s).connection_count() as f64)
            .sum::<f64>()
            / 10.0;
        assert!(
            (mean - 280.0).abs() < 42.0,
            "mean edge count {mean} too far from calibrated target 280"
        );
    }

    #[test]
    fn locality_bias() {
        // With strong decay, generated edges should be on average much
        // shorter than random pairs.
        let cfg = GeneralConfig {
            nodes: 120,
            target_edges: 300,
            c2: 0.2,
            ..Default::default()
        };
        let g = generate_general(&cfg, 5);
        let mean_edge_len: f64 = g
            .connections
            .iter()
            .map(|e| g.coords[e.src.index()].distance(&g.coords[e.dst.index()]))
            .sum::<f64>()
            / g.connection_count().max(1) as f64;
        // Mean distance of uniform pairs in a 100x100 square is ~52.
        assert!(
            mean_edge_len < 35.0,
            "edges not local: mean length {mean_edge_len}"
        );
    }

    #[test]
    fn costs_are_distances() {
        let cfg = GeneralConfig {
            nodes: 50,
            target_edges: 120,
            ..Default::default()
        };
        let g = generate_general(&cfg, 3);
        for e in &g.connections {
            let d = g.coords[e.src.index()].distance(&g.coords[e.dst.index()]);
            assert_eq!(e.cost, (d.round() as u64).max(1));
        }
    }

    #[test]
    fn unit_cost_mode() {
        let cfg = GeneralConfig {
            nodes: 50,
            target_edges: 120,
            unit_costs: true,
            ..Default::default()
        };
        let g = generate_general(&cfg, 3);
        assert!(g.connections.iter().all(|e| e.cost == 1));
    }

    #[test]
    fn raw_c1_mode_respected() {
        let cfg = GeneralConfig {
            nodes: 30,
            target_edges: 0,
            c1: 0.0,
            ..Default::default()
        };
        let g = generate_general(&cfg, 3);
        assert_eq!(g.connection_count(), 0, "c1 = 0 generates nothing");
    }

    #[test]
    fn no_self_loops_or_duplicate_pairs() {
        let cfg = GeneralConfig {
            nodes: 60,
            target_edges: 200,
            ..Default::default()
        };
        let g = generate_general(&cfg, 8);
        let mut seen = std::collections::HashSet::new();
        for e in &g.connections {
            assert!(!e.is_loop());
            assert!(seen.insert(e.undirected_key()), "duplicate pair {e}");
        }
    }
}
