//! The generators' kernels against their references, over a seed sweep:
//! `draw_edges` against [`draw_edges_reference`] and
//! `closest_cross_pairs` against `closest_cross_pairs_reference`,
//! compared as whole [`GeneratedGraph`]s. A release build sweeps ten
//! times the seeds of a debug one.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{ClusterTopology, EllipseConfig, GeneralConfig, TransportationConfig};
use crate::ellipse::{ellipse_with, generate_ellipse};
use crate::general::{draw_edges_reference, general_with, generate_general};
use crate::output::GeneratedGraph;
use crate::transportation::{generate_transportation, generate_transportation_reference};

const SEEDS: u64 = if cfg!(debug_assertions) { 8 } else { 80 };

fn same(what: &str, kernel: GeneratedGraph, reference: GeneratedGraph) {
    assert_eq!(
        kernel.connections.len(),
        reference.connections.len(),
        "{what}: connection counts"
    );
    assert!(kernel == reference, "{what}: the graphs differ");
}

/// A general config drawn from `seed`: 0 to 79 nodes, calibrated or raw
/// `c1` (some raw values large enough to clamp `P` at 1), a decay from
/// none (`c2 = 0`) to steep, or negative, where the bound is skipped.
fn general_config(seed: u64) -> GeneralConfig {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6E4E);
    let nodes = match seed {
        0..=2 => seed as usize,
        _ => 3 + rng.gen_index(77),
    };
    let calibrated = rng.gen_index(2) == 0;
    GeneralConfig {
        nodes,
        target_edges: if calibrated {
            1 + rng.gen_index(3 * nodes + 1)
        } else {
            0
        },
        c1: [0.0, 40.0, 2_000.0, 1e6][rng.gen_index(4)],
        c2: [0.0, 0.02, 0.05, 0.15, 0.6, -0.01][rng.gen_index(6)],
        extent: [1.0, 100.0, 1_000.0][rng.gen_index(3)],
        unit_costs: rng.gen_index(2) == 0,
    }
}

#[test]
fn general_kernel_equals_the_reference() {
    for seed in 0..SEEDS * 8 {
        let cfg = general_config(seed);
        same(
            &format!("seed {seed}: {cfg:?}"),
            generate_general(&cfg, seed),
            general_with(&cfg, seed, draw_edges_reference),
        );
    }
}

#[test]
fn ellipse_kernel_equals_the_reference() {
    for seed in 0..SEEDS {
        let pinned = EllipseConfig {
            nodes: 600,
            target_edges: 1800,
            c2: 0.15,
            a: 500.0,
            b: 22.0,
            ..EllipseConfig::default()
        };
        let small = EllipseConfig {
            unit_costs: seed % 2 == 1,
            ..EllipseConfig::default()
        };
        for cfg in [pinned, small] {
            same(
                &format!("seed {seed}: {cfg:?}"),
                generate_ellipse(&cfg, seed),
                ellipse_with(&cfg, seed, draw_edges_reference),
            );
        }
    }
}

/// Chain, ring and explicit links (non-adjacent, either direction, and
/// one pair linked twice) with 0, 1, 2 and more than `m²` connections
/// per link.
#[test]
fn transportation_kernel_equals_the_reference() {
    for seed in 0..SEEDS {
        let m = 25;
        for k in [0, 1, 2, m * m + 1] {
            let topologies = [
                ClusterTopology::Chain,
                ClusterTopology::Ring,
                ClusterTopology::Explicit(vec![(0, 2, k), (3, 1, k), (2, 0, k + 1), (0, 3, 3)]),
            ];
            for topology in topologies {
                let cfg = TransportationConfig {
                    nodes_per_cluster: m,
                    topology,
                    connections_per_link: k,
                    unit_costs: seed % 2 == 1,
                    ..TransportationConfig::table1()
                };
                same(
                    &format!("seed {seed}: {cfg:?}"),
                    generate_transportation(&cfg, seed),
                    generate_transportation_reference(&cfg, seed),
                );
            }
        }
    }
}
