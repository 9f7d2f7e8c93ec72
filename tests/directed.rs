//! One-way networks, end to end.
//!
//! A query's last site subquery is swept backwards from the target over
//! the site's transposed graph, so edge direction is load-bearing in the
//! evaluator: every surface must agree with a forward Dijkstra over the
//! directed closure graph, in both directions of every sampled pair
//! (on a one-way network the two directions are different questions).

use discset::closure::baseline;
use discset::fragment::center::CenterConfig;
use discset::fragment::linear::LinearConfig;
use discset::fragment::CrossingPolicy;
use discset::gen::{
    generate_general, generate_transportation, GeneralConfig, GeneratedGraph, TransportationConfig,
};
use discset::graph::{CsrGraph, Edge, NodeId};
use discset::{Backend, Fragmenter, QueryRequest, System, TcEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Turn every connection one-way: kept as generated, reversed, or kept
/// with a costlier way back.
fn one_way(mut g: GeneratedGraph, rng: &mut StdRng) -> GeneratedGraph {
    let mut connections = Vec::with_capacity(g.connections.len() * 2);
    for e in &g.connections {
        match rng.gen_index(4) {
            0 => connections.push(e.reversed()),
            1 => {
                connections.push(*e);
                let back = e.cost + 1 + rng.gen_index(9) as u64;
                connections.push(Edge::new(e.dst, e.src, back));
            }
            _ => connections.push(*e),
        }
    }
    g.connections = connections;
    g.symmetric = false;
    g
}

fn assert_real_path(csr: &CsrGraph, nodes: &[NodeId], cost: u64, ctx: &str) {
    let mut total = 0;
    for hop in nodes.windows(2) {
        let step = csr
            .neighbors(hop[0])
            .filter(|&(t, _)| t == hop[1])
            .map(|(_, c)| c)
            .min()
            .unwrap_or_else(|| panic!("{ctx}: no edge {} -> {}", hop[0], hop[1]));
        total += step;
    }
    assert_eq!(total, cost, "{ctx}: route cost");
}

#[test]
fn directed_networks_match_forward_dijkstra_both_ways() {
    let (mut cyclic, mut loose, mut one_direction_only) = (0, 0, 0);
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xD1EC ^ seed);
        let generated = if seed % 2 == 0 {
            generate_general(
                &GeneralConfig {
                    nodes: 36,
                    target_edges: 90,
                    ..Default::default()
                },
                seed,
            )
        } else {
            generate_transportation(
                &TransportationConfig {
                    clusters: 4,
                    nodes_per_cluster: 9,
                    target_edges_per_cluster: 22,
                    ..TransportationConfig::default()
                },
                seed,
            )
        };
        let g = one_way(generated, &mut rng);
        let csr = g.closure_graph();
        assert!(!csr.is_symmetric(), "seed {seed}: the network is one-way");
        // Endpoints of connections: every one lies in some fragment.
        let mut node = || g.connections[rng.gen_index(g.connections.len())].src;
        let pairs: Vec<(NodeId, NodeId)> = (0..12)
            .map(|_| (node(), node()))
            .flat_map(|(x, y)| [(x, y), (y, x)])
            .collect();
        let requests: Vec<QueryRequest> = pairs
            .iter()
            .map(|&(x, y)| QueryRequest::new(x, y))
            .collect();
        let want: Vec<Option<u64>> = pairs
            .iter()
            .map(|&(x, y)| baseline::shortest_path_cost(&csr, x, y))
            .collect();
        one_direction_only += want
            .chunks(2)
            .filter(|w| w[0].is_some() != w[1].is_some())
            .count();

        let mut fragmenters = vec![
            Fragmenter::Linear(LinearConfig {
                fragments: 3,
                ..Default::default()
            }),
            Fragmenter::Center(CenterConfig {
                fragments: 4,
                ..Default::default()
            }),
        ];
        if let Some(labels) = &g.cluster_of {
            fragmenters.push(Fragmenter::ByLabels {
                labels: labels.clone(),
                parts: 4,
                policy: CrossingPolicy::LowerBlock,
            });
        }
        for fragmenter in fragmenters {
            for backend in [Backend::Inline, Backend::SiteThreads] {
                let mut sys = System::builder()
                    .graph(&g)
                    .fragmenter(fragmenter.clone())
                    .backend(backend)
                    .build()
                    .unwrap();
                if sys.fragmentation().fragmentation_graph().is_acyclic() {
                    loose += 1;
                } else {
                    cyclic += 1;
                }
                // Twice: the second batch reads the interior segments the
                // first one evaluated.
                for round in 0..2 {
                    let batch = sys.query_batch(&requests);
                    assert_eq!(
                        batch.costs(),
                        want,
                        "seed {seed}, {} batch round {round}",
                        sys.backend_name()
                    );
                }
                for (&(x, y), &want) in pairs.iter().zip(&want) {
                    let ctx = format!("seed {seed}, {}, {x}->{y}", sys.backend_name());
                    assert_eq!(sys.shortest_path(x, y).cost, want, "{ctx}");
                    let route = sys.route(x, y).unwrap();
                    assert_eq!(route.as_ref().map(|r| r.cost), want, "{ctx}: route");
                    if let Some(r) = route {
                        assert_eq!(
                            (r.nodes.first(), r.nodes.last()),
                            (Some(&x), Some(&y)),
                            "{ctx}"
                        );
                        assert_real_path(&csr, &r.nodes, r.cost, &ctx);
                    }
                }
            }
        }
    }
    assert!(cyclic > 0 && loose > 0, "cyclic {cyclic}, loose {loose}");
    assert!(
        one_direction_only > 0,
        "some sampled pair must be reachable one way only"
    );
}
