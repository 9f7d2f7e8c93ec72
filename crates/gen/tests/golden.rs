//! Golden fingerprints of the generators' output.
//!
//! Each test pins a 64-bit FNV-1a hash of one generated graph: the node
//! count, every connection's `(src, dst, cost)`, every coordinate's bit
//! pattern and the cluster labels. The four benchmark graphs (configs and
//! seeds as in `examples/benchmark/src/{pinned,workload}.rs`) and the
//! paper's Table 1 and Table 2 presets are covered, so any change to a
//! generator that moves one bit of a graph fails here — the benchmark's
//! figures are only comparable across commits while these hold.

use ds_gen::{
    generate_ellipse, generate_general, generate_transportation, EllipseConfig, GeneralConfig,
    GeneratedGraph, TransportationConfig,
};

/// The benchmark's graph seed (`GRAPH_SEED`).
const GRAPH_SEED: u64 = 1993;

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The hash of everything a generator decides, each section prefixed by
/// its length.
fn fingerprint(g: &GeneratedGraph) -> u64 {
    let mut h = Fnv::new();
    h.u64(g.nodes as u64);
    h.u64(g.connections.len() as u64);
    for e in &g.connections {
        h.u64(u64::from(e.src.0));
        h.u64(u64::from(e.dst.0));
        h.u64(e.cost);
    }
    h.u64(g.coords.len() as u64);
    for c in &g.coords {
        h.u64(c.x.to_bits());
        h.u64(c.y.to_bits());
    }
    match &g.cluster_of {
        None => h.u64(0),
        Some(labels) => {
            h.u64(1 + labels.len() as u64);
            for &c in labels {
                h.u64(u64::from(c));
            }
        }
    }
    h.0
}

fn check(what: &str, g: &GeneratedGraph, pinned: u64) {
    let got = fingerprint(g);
    assert_eq!(
        got,
        pinned,
        "{what}: fingerprint {got:#018x}, pinned {pinned:#018x} \
         ({} connections)",
        g.connections.len()
    );
}

#[test]
fn benchmark_transportation_graph_is_pinned() {
    let cfg = TransportationConfig {
        clusters: 12,
        nodes_per_cluster: 100,
        target_edges_per_cluster: 400,
        ..TransportationConfig::default()
    };
    let g = generate_transportation(&cfg, GRAPH_SEED);
    check("transportation 12 x 100 x 400", &g, 0xb7bf_067d_8152_cfd7);
}

#[test]
fn benchmark_ellipse_graph_is_pinned() {
    let cfg = EllipseConfig {
        nodes: 600,
        target_edges: 1800,
        c2: 0.15,
        a: 500.0,
        b: 22.0,
        ..EllipseConfig::default()
    };
    let g = generate_ellipse(&cfg, GRAPH_SEED ^ 0xE111_95E0);
    check("ellipse 600 / 1800", &g, 0xbb7b_b3d2_a7b4_8579);
}

#[test]
fn benchmark_general_graph_is_pinned() {
    let cfg = GeneralConfig {
        nodes: 300,
        target_edges: 900,
        c2: 0.15,
        ..GeneralConfig::default()
    };
    let g = generate_general(&cfg, GRAPH_SEED ^ 0x6E4E_7A10);
    check("general 300 / 900", &g, 0x5b3d_7ff6_16dc_bd7d);
}

#[test]
fn table_presets_are_pinned() {
    let g = generate_transportation(&TransportationConfig::table1(), GRAPH_SEED);
    check("table1", &g, 0x77d7_aa2b_344f_0425);
    let g = generate_transportation(&TransportationConfig::table2(), GRAPH_SEED);
    check("table2", &g, 0x7650_6a9d_2b58_be3c);
}
