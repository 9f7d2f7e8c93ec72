//! The paper's edge probability function and the `c1` calibration.
//!
//! §4.1: "Edges were generated w.r.t. a particular probability function …
//! `P(p,q) = (c1/n²)·e^(−c2·d(p,q))`. By changing c1 we could influence
//! the number of edges generated (and thereby the connectivity), and by
//! changing c2 we could influence the probability of generating edges
//! between nodes that are far apart."

use ds_graph::Coord;

/// `P(p, q)` — probability of a connection between nodes at distance `d`,
/// for an `n`-node graph. Clamped to `[0, 1]`.
pub fn edge_probability(c1: f64, c2: f64, n: usize, d: f64) -> f64 {
    debug_assert!(n > 0, "probability undefined for empty graph");
    let p = (c1 / (n as f64 * n as f64)) * (-c2 * d).exp();
    p.clamp(0.0, 1.0)
}

/// Solve for `c1` so that the *expected* number of connections over the
/// given coordinate set equals `target_edges`.
///
/// The expected count is `Σ_{p<q} P(p,q) = (c1/n²)·Σ e^(−c2·d(p,q))`, so
/// `c1 = target · n² / Σ e^(−c2·d)`. This reproduces the paper's "by
/// changing c1 we could influence the number of edges" knob while letting
/// experiments state edge counts directly (the tables report averages like
/// 429 and 279.5). Returns 0 when no pair exists.
///
/// One `sqrt` and one `exp` per pair, summed in `(i, j)` order: the sum,
/// and so `c1`, is the same bit for bit on every call.
pub fn calibrate_c1(coords: &[Coord], c2: f64, target_edges: usize) -> f64 {
    let n = coords.len();
    if n < 2 {
        return 0.0;
    }
    let mut sum = 0.0f64;
    for i in 0..n {
        for j in (i + 1)..n {
            sum += (-c2 * coords[i].distance(&coords[j])).exp();
        }
    }
    if sum <= 0.0 {
        return 0.0;
    }
    target_edges as f64 * (n as f64 * n as f64) / sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_decays_with_distance() {
        let near = edge_probability(5000.0, 0.1, 10, 1.0);
        let far = edge_probability(5000.0, 0.1, 10, 50.0);
        assert!(near > far);
        assert!(near <= 1.0 && far >= 0.0);
    }

    #[test]
    fn probability_clamped_to_one() {
        assert_eq!(edge_probability(1e12, 0.0, 10, 0.0), 1.0);
    }

    #[test]
    fn zero_c1_gives_zero_probability() {
        assert_eq!(edge_probability(0.0, 0.1, 10, 5.0), 0.0);
    }

    #[test]
    fn calibration_hits_expected_count() {
        // Grid of 20 points; calibrate for 30 expected edges, then verify
        // the analytic expectation is 30.
        let coords: Vec<Coord> = (0..20)
            .map(|i| Coord::new((i % 5) as f64 * 10.0, (i / 5) as f64 * 10.0))
            .collect();
        let c2 = 0.05;
        let c1 = calibrate_c1(&coords, c2, 30);
        let n = coords.len();
        let mut expected = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                expected += edge_probability(c1, c2, n, coords[i].distance(&coords[j]));
            }
        }
        assert!(
            (expected - 30.0).abs() < 1e-6,
            "expected {expected}, want 30"
        );
    }

    #[test]
    fn calibration_degenerate_inputs() {
        assert_eq!(calibrate_c1(&[], 0.1, 10), 0.0);
        assert_eq!(calibrate_c1(&[Coord::new(0.0, 0.0)], 0.1, 10), 0.0);
    }
}
