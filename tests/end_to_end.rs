//! End-to-end integration: every generator × every fragmenter × every
//! backend must answer every query exactly like the centralized
//! baseline. This is the paper's correctness contract: the disconnection
//! set approach computes the *same* transitive closure, just fragmented.
//!
//! Both backends are driven through the `System` facade and the
//! `TcEngine` trait — one code path per experiment.

use discset::closure::baseline;
use discset::closure::{EngineConfig, EngineSnapshot};
use discset::fragment::bond_energy::{bond_energy, BondEnergyConfig, SplitRule};
use discset::fragment::center::{center_based, CenterConfig, CenterSelection, Growth};
use discset::fragment::linear::{linear_sweep, LinearConfig};
use discset::fragment::{semantic, CrossingPolicy, Fragmentation};
use discset::gen::{
    generate_general, generate_transportation, GeneralConfig, GeneratedGraph, TransportationConfig,
};
use discset::graph::{NodeId, ScratchDijkstra};
use discset::{Backend, Fragmenter, QueryRequest, System, TcEngine};

fn fragmenters(g: &GeneratedGraph) -> Vec<(&'static str, Fragmentation)> {
    let el = g.edge_list();
    let mut out = vec![(
        "center-based",
        center_based(
            &el,
            &CenterConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation,
    )];
    out.push((
        "center-smallest-first",
        center_based(
            &el,
            &CenterConfig {
                fragments: 3,
                growth: Growth::SmallestFirst,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation,
    ));
    out.push((
        "distributed-centers",
        center_based(
            &el,
            &CenterConfig {
                fragments: 3,
                selection: CenterSelection::Distributed { pool_factor: 6.0 },
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation,
    ));
    out.push((
        "bond-energy",
        bond_energy(
            &el,
            &BondEnergyConfig {
                split: SplitRule::CutQuantile(0.15),
                min_block_edges: 10,
                max_restarts: Some(6),
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation,
    ));
    out.push((
        "linear",
        linear_sweep(
            &el,
            &LinearConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation,
    ));
    if let Some(labels) = &g.cluster_of {
        let parts = (*labels.iter().max().unwrap() + 1) as usize;
        out.push((
            "semantic",
            semantic::by_labels(
                g.nodes,
                &g.connections,
                labels,
                parts,
                CrossingPolicy::Balance,
            )
            .unwrap(),
        ));
    }
    out
}

/// Both backends, deployed through the `System` facade from one
/// fragmentation.
fn backends(g: &GeneratedGraph, frag: &Fragmentation) -> Vec<(Backend, System)> {
    [Backend::Inline, Backend::SiteThreads]
        .into_iter()
        .map(|backend| {
            let sys = System::builder()
                .graph(g)
                .fragmenter(Fragmenter::Prebuilt(frag.clone()))
                .backend(backend)
                .build()
                .unwrap();
            (backend, sys)
        })
        .collect()
}

fn check_graph(g: &GeneratedGraph, label: &str) {
    let csr = g.closure_graph();
    let n = g.nodes as u32;
    let queries: Vec<(NodeId, NodeId)> = (0..15u32)
        .map(|i| (NodeId((i * 13) % n), NodeId((i * 29 + n / 2) % n)))
        .collect();
    for (name, frag) in fragmenters(g) {
        frag.validate(&g.connections)
            .unwrap_or_else(|e| panic!("{label}/{name}: {e}"));
        // "These joins will have relatively small operands (since the
        // disconnection sets are small)" (§2.1): what a query ships for
        // its final joins is bounded by the disconnection sets alone — a
        // DS x DS relation per interior site, a 1 x DS row per endpoint
        // sweep, one tuple per same-fragment chain — never by fragment
        // sizes.
        let ds: usize = frag.disconnection_sets().values().map(|v| v.len()).sum();
        let small = ds * ds + 4 * ds + frag.fragment_count();
        for (backend, mut sys) in backends(g, &frag) {
            for &(x, y) in &queries {
                let answer = sys.shortest_path(x, y);
                let got = answer.cost;
                let want = baseline::shortest_path_cost(&csr, x, y);
                assert_eq!(
                    got, want,
                    "{label}/{name}/{backend}: query {x}->{y} mismatch"
                );
                assert!(
                    answer.stats.tuples_shipped <= small,
                    "{label}/{name}/{backend}: {x}->{y} shipped {} tuples, DS total {ds}",
                    answer.stats.tuples_shipped
                );
                assert_eq!(sys.connected(x, y), want.is_some() || x == y);
            }
            // The batch path must agree with the single-query path.
            let requests: Vec<QueryRequest> = queries
                .iter()
                .map(|&(x, y)| QueryRequest::new(x, y))
                .collect();
            let batch = sys.query_batch(&requests);
            for (&(x, y), answer) in queries.iter().zip(&batch.answers) {
                assert_eq!(
                    answer.cost,
                    baseline::shortest_path_cost(&csr, x, y),
                    "{label}/{name}/{backend}: batch query {x}->{y} mismatch"
                );
            }
        }
    }
}

#[test]
fn transportation_graph_all_fragmenters_match_baseline() {
    let cfg = TransportationConfig {
        clusters: 3,
        nodes_per_cluster: 15,
        target_edges_per_cluster: 40,
        ..TransportationConfig::default()
    };
    for seed in 0..3 {
        check_graph(&generate_transportation(&cfg, seed), "transportation");
    }
}

#[test]
fn general_graph_all_fragmenters_match_baseline() {
    let cfg = GeneralConfig {
        nodes: 45,
        target_edges: 110,
        ..Default::default()
    };
    for seed in 0..3 {
        check_graph(&generate_general(&cfg, seed), "general");
    }
}

#[test]
fn ring_topology_cyclic_fragmentation_still_exact() {
    // The hard case: cyclic fragmentation graph, multi-chain enumeration.
    let cfg = TransportationConfig {
        clusters: 4,
        nodes_per_cluster: 12,
        target_edges_per_cluster: 30,
        topology: discset::gen::ClusterTopology::Ring,
        ..TransportationConfig::default()
    };
    for seed in 0..2 {
        let g = generate_transportation(&cfg, seed);
        let labels = g.cluster_of.clone().unwrap();
        let frag = semantic::by_labels(
            g.nodes,
            &g.connections,
            &labels,
            4,
            CrossingPolicy::LowerBlock,
        )
        .unwrap();
        assert!(
            !frag.fragmentation_graph().is_acyclic(),
            "ring must be cyclic"
        );
        let csr = g.closure_graph();
        for (backend, mut sys) in backends(&g, &frag) {
            for i in 0..12u32 {
                let (x, y) = (NodeId(i * 4 % 48), NodeId((i * 7 + 24) % 48));
                assert_eq!(
                    sys.shortest_path(x, y).cost,
                    baseline::shortest_path_cost(&csr, x, y),
                    "{backend}, seed {seed}, query {x}->{y}"
                );
            }
        }
    }
}

#[test]
fn routes_are_real_paths_across_fragmenters() {
    let cfg = TransportationConfig {
        clusters: 3,
        nodes_per_cluster: 12,
        target_edges_per_cluster: 30,
        ..TransportationConfig::default()
    };
    let g = generate_transportation(&cfg, 5);
    let csr = g.closure_graph();
    for (name, frag) in fragmenters(&g) {
        let mut sys = System::builder()
            .graph(&g)
            .fragmenter(Fragmenter::Prebuilt(frag))
            .backend(Backend::Inline)
            .build()
            .unwrap();
        for (x, y) in [(0u32, 35u32), (2, 30), (14, 20)] {
            let (x, y) = (NodeId(x), NodeId(y));
            let Some(route) = sys.route(x, y).unwrap() else {
                assert_eq!(baseline::shortest_path_cost(&csr, x, y), None);
                continue;
            };
            assert_eq!(
                Some(route.cost),
                baseline::shortest_path_cost(&csr, x, y),
                "{name}"
            );
            assert_eq!(route.nodes.first(), Some(&x));
            assert_eq!(route.nodes.last(), Some(&y));
            let mut total = 0;
            for hop in route.nodes.windows(2) {
                let c = csr
                    .neighbors(hop[0])
                    .filter(|(t, _)| *t == hop[1])
                    .map(|(_, c)| c)
                    .min()
                    .unwrap_or_else(|| panic!("{name}: fake hop {}->{}", hop[0], hop[1]));
                total += c;
            }
            assert_eq!(total, route.cost, "{name}: route cost mismatch");
        }
    }
}

#[test]
fn full_closure_equivalence_small_graph() {
    // Exhaustive all-pairs check against Floyd–Warshall on one graph.
    let cfg = GeneralConfig {
        nodes: 24,
        target_edges: 55,
        ..Default::default()
    };
    let g = generate_general(&cfg, 9);
    let csr = g.closure_graph();
    let fw = baseline::all_pairs(&csr);
    let frag = linear_sweep(
        &g.edge_list(),
        &LinearConfig {
            fragments: 3,
            ..Default::default()
        },
    )
    .unwrap()
    .fragmentation;
    let engine = EngineSnapshot::build(frag, true, EngineConfig::default());
    let mut scratch = ScratchDijkstra::new();
    for x in csr.nodes() {
        for y in csr.nodes() {
            let want = discset::graph::matrix::fw_cost(&fw, x, y);
            let got = engine.shortest_path(x, y, &mut scratch).cost;
            assert_eq!(got, want, "{x}->{y}");
        }
    }
}

#[test]
fn answers_are_exact_on_a_ring_of_fragments() {
    // Every site reads all its border pairs off the hub, not only the
    // pairs within one disconnection set: an excursion that returns
    // through a different DS is still there, so answers on a ring of
    // fragments equal the baseline.
    let cfg = TransportationConfig {
        clusters: 4,
        nodes_per_cluster: 12,
        target_edges_per_cluster: 30,
        topology: discset::gen::ClusterTopology::Ring,
        ..TransportationConfig::default()
    };
    for seed in 0..3 {
        let g = generate_transportation(&cfg, seed);
        let labels = g.cluster_of.clone().unwrap();
        let frag = semantic::by_labels(
            g.nodes,
            &g.connections,
            &labels,
            4,
            CrossingPolicy::LowerBlock,
        )
        .unwrap();
        let csr = g.closure_graph();
        let engine = EngineSnapshot::build(frag, true, EngineConfig::default());
        let mut scratch = ScratchDijkstra::new();
        for i in 0..16u32 {
            let (x, y) = (NodeId(i * 3 % 48), NodeId((i * 5 + 20) % 48));
            let got = engine.shortest_path(x, y, &mut scratch).cost;
            let want = baseline::shortest_path_cost(&csr, x, y);
            assert_eq!(got, want, "seed {seed}: {x}->{y}");
        }
    }
}

#[test]
fn updates_stay_exact_on_every_backend() {
    use discset::graph::Edge;
    use discset::NetworkUpdate;
    let g = generate_transportation(
        &TransportationConfig {
            clusters: 3,
            nodes_per_cluster: 12,
            target_edges_per_cluster: 30,
            ..TransportationConfig::default()
        },
        2,
    );
    let labels = g.cluster_of.clone().unwrap();
    let frag = semantic::by_labels(
        g.nodes,
        &g.connections,
        &labels,
        3,
        CrossingPolicy::LowerBlock,
    )
    .unwrap();
    for (backend, mut sys) in backends(&g, &frag) {
        // Insert a cheap connection inside fragment 0 and check a
        // cross-network query against a fresh baseline on the updated
        // network.
        let f0 = sys.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        let edge = Edge::new(a, b, 1);
        sys.update(&NetworkUpdate::Insert { edge, owner: 0 })
            .unwrap();
        let mut connections = g.connections.clone();
        connections.push(edge);
        let updated = discset::graph::CsrGraph::from_edges(
            g.nodes,
            &discset::gen::output::expand_connections(&connections, true),
        );
        for (x, y) in [(0u32, 35u32), (3, 30), (20, 8)] {
            let (x, y) = (NodeId(x), NodeId(y));
            assert_eq!(
                sys.shortest_path(x, y).cost,
                baseline::shortest_path_cost(&updated, x, y),
                "{backend}: post-update query {x}->{y}"
            );
        }
    }
}
