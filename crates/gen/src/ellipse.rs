//! Ellipse-shaped graphs for the Fig. 8 experiment: "the ellipses
//! represent the same graph, fragmented into 3 fragments … starting on the
//! left side of the graph and going to the right is preferable to starting
//! at the top and going down" (§3.3).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::EllipseConfig;
use crate::general::{draw_edges, Draw};
use crate::output::GeneratedGraph;
use crate::probability::calibrate_c1;
use crate::spatial::uniform_ellipse;

/// Generate an elongated random graph whose node cloud fills an ellipse
/// with semi-axes `a` (x) and `b` (y).
pub fn generate_ellipse(cfg: &EllipseConfig, seed: u64) -> GeneratedGraph {
    ellipse_with(cfg, seed, draw_edges)
}

/// [`generate_ellipse`] drawing its edges with `draw`.
pub(crate) fn ellipse_with(cfg: &EllipseConfig, seed: u64, draw: Draw) -> GeneratedGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let coords = uniform_ellipse(&mut rng, cfg.nodes, cfg.a, cfg.b);
    let c1 = calibrate_c1(&coords, cfg.c2, cfg.target_edges);
    let connections = draw(&mut rng, &coords, c1, cfg.c2, cfg.unit_costs, 0);
    GeneratedGraph {
        nodes: cfg.nodes,
        connections,
        coords,
        cluster_of: None,
        symmetric: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_elongated() {
        let cfg = EllipseConfig::default();
        let a = generate_ellipse(&cfg, 4);
        let b = generate_ellipse(&cfg, 4);
        assert_eq!(a.connections, b.connections);
        let xspread = a.coords.iter().map(|c| c.x.abs()).fold(0.0, f64::max);
        let yspread = a.coords.iter().map(|c| c.y.abs()).fold(0.0, f64::max);
        assert!(xspread > 2.0 * yspread, "ellipse must be elongated along x");
    }

    #[test]
    fn edge_count_near_target() {
        let cfg = EllipseConfig {
            nodes: 120,
            target_edges: 360,
            ..Default::default()
        };
        let mean: f64 = (0..8)
            .map(|s| generate_ellipse(&cfg, s).connection_count() as f64)
            .sum::<f64>()
            / 8.0;
        assert!((mean - 360.0).abs() < 60.0, "mean {mean} not near 360");
    }
}
