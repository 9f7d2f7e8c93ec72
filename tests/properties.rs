//! Property-based tests over the workspace invariants.
//!
//! The build environment is offline, so instead of `proptest` these
//! properties run over many deterministic seeds: each case derives a
//! random-ish structure from the vendored seeded RNG and asserts the
//! invariant. Failures print the offending seed, which reproduces the
//! case exactly.

mod common;

use common::{arb_update, arb_update_or_dud, stream_case, update_network};
use discset::closure::baseline;
use discset::closure::{EngineConfig, EngineSnapshot};
use discset::fragment::center::{center_based, CenterConfig};
use discset::fragment::linear::{linear_sweep, LinearConfig};
use discset::gen::{
    generate_general, generate_transportation, GeneralConfig, TransportationConfig,
};
use discset::graph::{Coord, CsrGraph, Edge, EdgeList, NodeId, ScratchDijkstra};
use discset::relation::join::compose_min_plus;
use discset::relation::{tc, PathTuple, Relation};
use discset::{Backend, Fragmenter, QueryRequest, System, TcEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

/// A random connected-ish symmetric graph as (node_count, connection
/// list, coords): random edges over node pairs plus a backbone path so
/// reachability cases stay interesting rather than mostly-unreachable.
fn arb_graph(seed: u64) -> (usize, Vec<Edge>, Vec<Coord>) {
    let mut rng = StdRng::seed_from_u64(0x9E37 ^ seed.wrapping_mul(0x85EB_CA6B));
    let n = 4 + rng.gen_index(20); // 4..24 nodes
    let attempts = n + rng.gen_index(2 * n);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for _ in 0..attempts {
        let a = rng.gen_index(n) as u32;
        let b = rng.gen_index(n) as u32;
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        let cost = 1 + rng.gen_index(49) as u64;
        if seen.insert(key) {
            out.push(Edge::new(NodeId(key.0), NodeId(key.1), cost));
        }
    }
    for i in 0..(n as u32 - 1) {
        let key = (i, i + 1);
        if seen.insert(key) {
            out.push(Edge::new(NodeId(i), NodeId(i + 1), 10));
        }
    }
    let coords: Vec<Coord> = (0..n)
        .map(|i| Coord::new(i as f64 * 3.0, (i % 5) as f64))
        .collect();
    (n, out, coords)
}

fn closure_graph(n: usize, connections: &[Edge]) -> CsrGraph {
    let mut edges = Vec::with_capacity(connections.len() * 2);
    for e in connections {
        edges.push(*e);
        edges.push(e.reversed());
    }
    CsrGraph::from_edges(n, &edges)
}

/// Every fragmenter must partition the relation exactly.
#[test]
fn fragmenters_partition_the_relation() {
    for seed in 0..CASES {
        let (n, conns, coords) = arb_graph(seed);
        let el = EdgeList::new(n, conns.clone()).with_coords(coords);
        let lin = linear_sweep(
            &el,
            &LinearConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        assert!(lin.validate(&conns).is_ok(), "seed {seed}: linear");
        let cen = center_based(
            &el,
            &CenterConfig {
                fragments: 2,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        assert!(cen.validate(&conns).is_ok(), "seed {seed}: center");
    }
}

/// The linear sweep's fragmentation graph is always acyclic (§3.3).
#[test]
fn linear_sweep_always_loosely_connected() {
    for seed in 0..CASES {
        let (n, conns, coords) = arb_graph(seed);
        let el = EdgeList::new(n, conns).with_coords(coords);
        for f in [2usize, 3, 5] {
            let out = linear_sweep(
                &el,
                &LinearConfig {
                    fragments: f,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(
                out.fragmentation.fragmentation_graph().is_acyclic(),
                "seed {seed}, {f} fragments"
            );
        }
    }
}

/// Disconnection sets are symmetric node intersections.
#[test]
fn disconnection_sets_are_intersections() {
    for seed in 0..CASES {
        let (n, conns, coords) = arb_graph(seed);
        let el = EdgeList::new(n, conns).with_coords(coords);
        let frag = linear_sweep(
            &el,
            &LinearConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        for ((i, j), nodes) in frag.disconnection_sets() {
            for v in nodes {
                assert!(frag.fragment(i).contains_node(v), "seed {seed}");
                assert!(frag.fragment(j).contains_node(v), "seed {seed}");
            }
        }
    }
}

/// The one membership table every node-set derivation reads equals the
/// brute force over the fragments' node sets: the disconnection sets
/// and the fragmentation graph are the non-empty pairwise
/// intersections, and the planner's membership classes group the nodes
/// by the fragments holding them (class 0 the empty set, the others
/// numbered by first node) — for seeded outputs of all four fragmenters,
/// and for a node in three fragments beside a node in none.
#[test]
fn the_membership_table_reproduces_pairwise_intersections() {
    use discset::closure::planner::Planner;
    use discset::fragment::bond_energy::{bond_energy, BondEnergyConfig};
    use discset::fragment::{semantic, CrossingPolicy, Fragmentation, Membership};
    use std::collections::{BTreeMap, BTreeSet};

    fn assert_membership(frag: &Fragmentation, label: &str) {
        let sets: Vec<BTreeSet<NodeId>> = (frag.fragments().iter())
            .map(|f| f.nodes().iter().copied().collect())
            .collect();
        let mut ds = BTreeMap::new();
        for i in 0..sets.len() {
            for j in i + 1..sets.len() {
                let both: Vec<NodeId> = sets[i].intersection(&sets[j]).copied().collect();
                if !both.is_empty() {
                    ds.insert((i, j), both);
                }
            }
        }
        assert_eq!(frag.disconnection_sets(), ds, "{label}: DS");
        let links: Vec<(usize, usize)> = ds.keys().copied().collect();
        assert_eq!(frag.fragmentation_graph().links(), links, "{label}: G'");
        let planner = Planner::new(Membership::new(frag), 16, 8);
        let mut classes: BTreeMap<Vec<usize>, u32> = BTreeMap::from([(Vec::new(), 0)]);
        for v in (0..frag.node_count()).map(NodeId::from_index) {
            let holders: Vec<usize> = (0..sets.len()).filter(|&f| sets[f].contains(&v)).collect();
            assert_eq!(planner.fragments_of(v), holders, "{label}: {v}");
            let next = classes.len() as u32;
            let class = *classes.entry(holders).or_insert(next);
            assert_eq!(planner.membership_class(v), class, "{label}: class of {v}");
        }
    }

    for seed in 0..6 {
        let g = generate_transportation(
            &TransportationConfig {
                clusters: 3,
                nodes_per_cluster: 10,
                target_edges_per_cluster: 25,
                ..TransportationConfig::default()
            },
            seed,
        );
        let el = g.edge_list();
        let lin = linear_sweep(&el, &LinearConfig::default());
        assert_membership(&lin.unwrap().fragmentation, &format!("seed {seed} linear"));
        let cen = center_based(
            &el,
            &CenterConfig {
                fragments: 3,
                ..Default::default()
            },
        );
        assert_membership(&cen.unwrap().fragmentation, &format!("seed {seed} center"));
        let bea = BondEnergyConfig {
            max_restarts: Some(4),
            ..BondEnergyConfig::default()
        };
        let bea = bond_energy(&el, &bea).unwrap().fragmentation;
        assert_membership(&bea, &format!("seed {seed} bond energy"));
        let labels = g.cluster_of.as_ref().unwrap();
        let policy = CrossingPolicy::LowerBlock;
        let sem = semantic::by_labels(g.nodes, &g.connections, labels, 3, policy).unwrap();
        assert_membership(&sem, &format!("seed {seed} semantic"));
    }
    // Node 0 in three fragments, node 5 in none.
    let star = Fragmentation::new(
        6,
        (1..4)
            .map(|i| vec![Edge::unit(NodeId(0), NodeId(i))])
            .collect(),
        vec![vec![], vec![NodeId(4)], vec![]],
    );
    assert_eq!(Membership::new(&star).fragments_of(NodeId(0)), [0, 1, 2]);
    assert!(Membership::new(&star).fragments_of(NodeId(5)).is_empty());
    assert_membership(&star, "star");
}

/// The crown jewel: disconnection-set answers equal global Dijkstra.
#[test]
fn engine_matches_global_dijkstra() {
    for seed in 0..CASES {
        let (n, conns, coords) = arb_graph(seed);
        let el = EdgeList::new(n, conns.clone()).with_coords(coords);
        let frag = linear_sweep(
            &el,
            &LinearConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        let csr = closure_graph(n, &conns);
        let engine = EngineSnapshot::build(frag, true, EngineConfig::default());
        let mut scratch = ScratchDijkstra::new();
        for x in 0..(n as u32).min(6) {
            for y in 0..(n as u32).min(6) {
                let got = engine
                    .shortest_path(NodeId(x), NodeId(y), &mut scratch)
                    .cost;
                let want = baseline::shortest_path_cost(&csr, NodeId(x), NodeId(y));
                assert_eq!(got, want, "seed {seed}, query {x}->{y}");
            }
        }
    }
}

/// Backend equivalence: the evaluator answers random queries identically
/// to the centralized baseline on both placements of its site subqueries
/// (calling thread, one thread each), via both the single-query and the
/// batch path, across generators × fragmenters. This is the contract
/// that makes backends swappable.
#[test]
fn all_backends_match_baseline_on_random_workloads() {
    for seed in 0..12 {
        // Alternate the two random generators of §4.1.
        let g = if seed % 2 == 0 {
            generate_general(
                &GeneralConfig {
                    nodes: 30,
                    target_edges: 70,
                    ..Default::default()
                },
                seed,
            )
        } else {
            generate_transportation(
                &TransportationConfig {
                    clusters: 3,
                    nodes_per_cluster: 10,
                    target_edges_per_cluster: 25,
                    ..TransportationConfig::default()
                },
                seed,
            )
        };
        let csr = g.closure_graph();
        let n = g.nodes as u32;
        let mut rng = StdRng::seed_from_u64(seed);
        let queries: Vec<(NodeId, NodeId)> = (0..10)
            .map(|_| {
                (
                    NodeId(rng.gen_index(n as usize) as u32),
                    NodeId(rng.gen_index(n as usize) as u32),
                )
            })
            .collect();

        let mut fragmenters = vec![
            Fragmenter::Linear(LinearConfig {
                fragments: 3,
                ..Default::default()
            }),
            Fragmenter::Center(CenterConfig {
                fragments: 3,
                ..Default::default()
            }),
        ];
        if let Some(labels) = &g.cluster_of {
            fragmenters.push(Fragmenter::ByLabels {
                labels: labels.clone(),
                parts: (*labels.iter().max().unwrap() + 1) as usize,
                policy: discset::fragment::CrossingPolicy::LowerBlock,
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
                for &(x, y) in &queries {
                    assert_eq!(
                        sys.shortest_path(x, y).cost,
                        baseline::shortest_path_cost(&csr, x, y),
                        "seed {seed}, {}, {x}->{y}",
                        sys.backend_name()
                    );
                }
                let requests: Vec<QueryRequest> = queries
                    .iter()
                    .map(|&(x, y)| QueryRequest::new(x, y))
                    .collect();
                let batch = sys.query_batch(&requests);
                for (&(x, y), a) in queries.iter().zip(&batch.answers) {
                    assert_eq!(
                        a.cost,
                        baseline::shortest_path_cost(&csr, x, y),
                        "seed {seed}, {} batch, {x}->{y}",
                        sys.backend_name()
                    );
                }
            }
        }
    }
}

/// Update-equivalence: an engine maintained through ≥ 20 random mixed
/// inserts/deletes answers every `shortest_path`/`connected` query
/// identically to an engine rebuilt from scratch on the final graph —
/// for every generator × fragmenter × backend — and every sampled
/// reachable pair's `route` is a real path of the Dijkstra cost.
#[test]
fn maintained_engine_equals_rebuilt_from_scratch() {
    use discset::gen::output::expand_connections;
    let mut case = 0u64;
    // Bridges deleted and put back, per fragmenter family.
    let mut bridges = [0usize; 3];
    for seed in 0..6u64 {
        let g = update_network(seed);
        let mut fragmenters = vec![
            Fragmenter::Linear(LinearConfig {
                fragments: 3,
                ..Default::default()
            }),
            Fragmenter::Center(CenterConfig {
                fragments: 3,
                ..Default::default()
            }),
        ];
        if let Some(labels) = &g.cluster_of {
            fragmenters.push(Fragmenter::ByLabels {
                labels: labels.clone(),
                parts: (*labels.iter().max().unwrap() + 1) as usize,
                policy: discset::fragment::CrossingPolicy::LowerBlock,
            });
        }
        for (family, fragmenter) in fragmenters.into_iter().enumerate() {
            for backend in [Backend::Inline, Backend::SiteThreads] {
                case += 1;
                let mut rng = StdRng::seed_from_u64(0xA11CE ^ case);
                let mut sys = System::builder()
                    .graph(&g)
                    .fragmenter(fragmenter.clone())
                    .backend(backend)
                    .build()
                    .unwrap();
                let (mut applied, mut pending) = (0, None);
                for _ in 0..300 {
                    if applied >= 20 {
                        break;
                    }
                    let Some(update) =
                        arb_update(&mut rng, sys.fragmentation(), true, &mut pending)
                    else {
                        continue;
                    };
                    bridges[family] += pending.is_some() as usize;
                    let report = sys.update(&update).unwrap();
                    assert_eq!(
                        edge_multiset(sys.engine().graph()),
                        edge_multiset(&sys.fragmentation().closure_graph(true)),
                        "seed {seed} case {case}: the edited closure graph"
                    );
                    assert_eq!(
                        report.full_recompute,
                        report.fallback_reason.is_some(),
                        "seed {seed} case {case}: report invariant ({report:?})"
                    );
                    applied += 1;
                }
                assert!(applied >= 20, "seed {seed}: not enough applicable updates");

                // Rebuild from scratch on the final graph: the maintained
                // fragmentation *is* the final network.
                let final_frag = sys.fragmentation().clone();
                let connections: Vec<Edge> = final_frag
                    .fragments()
                    .iter()
                    .flat_map(|f| f.edges().iter().copied())
                    .collect();
                let csr = CsrGraph::from_edges(g.nodes, &expand_connections(&connections, true));
                let mut fresh = System::builder()
                    .network(g.nodes, connections)
                    .fragmenter(Fragmenter::Prebuilt(final_frag))
                    .backend(Backend::Inline)
                    .build()
                    .unwrap();
                // The hub, and so each site's shortcuts, are exactly what a
                // precompute on the final network gives.
                let (kept, rebuilt) =
                    (sys.engine().complementary(), fresh.engine().complementary());
                assert_eq!(kept.hub(), rebuilt.hub(), "seed {seed} case {case}: hub");
                for f in 0..sys.fragmentation().fragment_count() {
                    assert_eq!(
                        kept.shortcuts(f).collect::<Vec<_>>(),
                        rebuilt.shortcuts(f).collect::<Vec<_>>(),
                        "seed {seed} case {case}: site {f}'s shortcuts"
                    );
                }
                for _ in 0..40 {
                    let x = NodeId(rng.gen_index(g.nodes) as u32);
                    let y = NodeId(rng.gen_index(g.nodes) as u32);
                    let want = baseline::shortest_path_cost(&csr, x, y);
                    assert_eq!(
                        sys.shortest_path(x, y).cost,
                        want,
                        "seed {seed} case {case} {}: maintained {x}->{y}",
                        sys.backend_name()
                    );
                    assert_eq!(
                        fresh.shortest_path(x, y).cost,
                        want,
                        "seed {seed} case {case}: rebuilt {x}->{y}"
                    );
                    assert_eq!(
                        sys.connected(x, y),
                        x == y || want.is_some(),
                        "seed {seed} case {case}: connected {x}->{y}"
                    );
                    if x != y && want.is_some() {
                        let label = format!("seed {seed} case {case}: route {x}->{y}");
                        let r = sys.route(x, y).unwrap().expect(&label);
                        assert_eq!(Some(r.cost), want, "{label}");
                        assert_eq!((r.nodes[0], r.nodes[r.nodes.len() - 1]), (x, y));
                        assert_real_path(&csr, &r.nodes, r.cost, &label);
                    }
                }
            }
        }
    }
    assert!(
        bridges[0] > 0 && bridges[1] > 0,
        "a bridge deleted and put back under linear and center fragmenters: {bridges:?}"
    );
}

/// The column grid of `tests/update_maintenance.rs` — a 9 x 3 grid cut
/// into three fragments by columns 0..=3, 3..=6 and 6..=8, so columns 3
/// and 6 are the borders — with two additions: fragment 2's node set also
/// holds `3` and `21` (seeds), so a connection between them is held by
/// all three fragments; and fragment 1 holds a component `{27, 28, 29}`
/// apart from every border, its tuple `27 - 28` included. One-way
/// networks keep the rightward and downward directions only.
fn crossing_fixture() -> discset::fragment::Fragmentation {
    let mut sets = vec![Vec::new(); 3];
    for r in 0..3u32 {
        for c in 0..9u32 {
            let owner = (c / 3).min(2) as usize;
            if c + 1 < 9 {
                sets[owner].push(Edge::unit(NodeId(r * 9 + c), NodeId(r * 9 + c + 1)));
            }
            if r + 1 < 3 {
                sets[owner].push(Edge::unit(NodeId(r * 9 + c), NodeId((r + 1) * 9 + c)));
            }
        }
    }
    sets[1].push(Edge::new(NodeId(27), NodeId(28), 2));
    let seeds = vec![vec![], vec![NodeId(29)], vec![NodeId(3), NodeId(21)]];
    discset::fragment::Fragmentation::new(30, sets, seeds)
}

/// An update weighted toward connections between two borders: inserts
/// and deletes of them, twins of one inserted by another fragment that
/// holds both endpoints; otherwise an insert or delete with a non-border
/// endpoint, or one inside `apart` — nodes of fragment `apart_owner`
/// whose cells touch no border.
fn arb_crossing_update(
    rng: &mut StdRng,
    frag: &discset::fragment::Fragmentation,
    (apart, apart_owner): (&[NodeId], usize),
) -> Option<discset::NetworkUpdate> {
    use discset::NetworkUpdate::{Insert, Remove};
    let border = |v: NodeId| frag.fragments_of_node(v).len() >= 2;
    let pick = |rng: &mut StdRng, nodes: &[NodeId]| nodes[rng.gen_index(nodes.len())];
    let owned = |keep: &dyn Fn(&Edge) -> bool| -> Vec<(usize, Edge)> {
        (frag.fragments().iter())
            .flat_map(|f| f.edges().iter().map(move |e| (f.id(), *e)))
            .filter(|(_, e)| keep(e))
            .collect()
    };
    let crossing = |e: &Edge| border(e.src) && border(e.dst);
    let cost = 1 + rng.gen_index(6) as u64;
    let owner = rng.gen_index(frag.fragment_count());
    let nodes = frag.fragment(owner).nodes();
    let borders: Vec<NodeId> = nodes.iter().copied().filter(|&v| border(v)).collect();
    match rng.gen_index(10) {
        0..=2 if borders.len() >= 2 => {
            let (a, b) = (pick(rng, &borders), pick(rng, &borders));
            let edge = Edge::new(a, b, cost);
            (a != b).then_some(Insert { edge, owner })
        }
        3..=5 => {
            let cut = owned(&crossing);
            let (owner, e) = *cut.get(rng.gen_index(cut.len().max(1)))?;
            Some(Remove {
                src: e.src,
                dst: e.dst,
                owner,
            })
        }
        6 => {
            let cut = owned(&crossing);
            let (from, edge) = *cut.get(rng.gen_index(cut.len().max(1)))?;
            let other = (frag.fragments().iter()).find(|f| {
                f.id() != from && f.contains_node(edge.src) && f.contains_node(edge.dst)
            })?;
            Some(Insert {
                edge,
                owner: other.id(),
            })
        }
        7 => {
            let (a, b) = (pick(rng, nodes), pick(rng, nodes));
            let edge = Edge::new(a, b, cost);
            (!border(a) || !border(b)).then_some(Insert { edge, owner })
        }
        8 => {
            let inner = owned(&|e: &Edge| !crossing(e));
            let (owner, e) = *inner.get(rng.gen_index(inner.len().max(1)))?;
            Some(Remove {
                src: e.src,
                dst: e.dst,
                owner,
            })
        }
        _ if apart.len() >= 2 => {
            let (a, b) = (pick(rng, apart), pick(rng, apart));
            Some(if rng.gen_index(2) == 0 {
                Insert {
                    edge: Edge::new(a, b, cost),
                    owner: apart_owner,
                }
            } else {
                Remove {
                    src: a,
                    dst: b,
                    owner: apart_owner,
                }
            })
        }
        _ => None,
    }
}

/// Crossing edits in maintenance streams: on the crossing fixture and on
/// the update networks, symmetric and one-way, a stream weighted toward
/// inserts and deletes between two
/// borders — connections three fragments hold, twins another fragment
/// owns — beside interior edits and edits in a component whose cells
/// touch no border. After every update the kept skeleton equals the one
/// a rebuild derives (the cheapest entry per ordered border pair), the
/// hub equals the rebuild's entry for entry, every table is that hub
/// restricted to its site's border pairs and equals the rebuild's, and
/// sampled routes are real paths of the Dijkstra cost. An edit between
/// two borders re-sweeps no fragment, and neither does one whose cells
/// touch no border: every fragment's kept local sweeps stay the `Arc`
/// the previous epoch holds.
#[test]
fn crossing_edit_streams_keep_the_skeleton_a_rebuild_derives() {
    let mut scratch = ScratchDijkstra::new();
    let (mut crossing, mut third, mut twins, mut apart_edits) = (0, 0, 0, 0);
    let mut networks = vec![(crossing_fixture(), vec![NodeId(27), NodeId(28), NodeId(29)])];
    for seed in 0..3u64 {
        let g = update_network(seed);
        let config = LinearConfig {
            fragments: 3,
            ..Default::default()
        };
        let frag = linear_sweep(&g.edge_list(), &config).unwrap().fragmentation;
        networks.push((frag, Vec::new()));
    }
    for (case, (frag, apart)) in networks.iter().enumerate() {
        for symmetric in [true, false] {
            let cfg = EngineConfig::default;
            let mut engine = EngineSnapshot::build(frag.clone(), symmetric, cfg());
            let mut rng = StdRng::seed_from_u64(0xC2055 ^ case as u64);
            for step in 0..120 {
                let Some(u) = arb_crossing_update(&mut rng, engine.fragmentation(), (apart, 1))
                else {
                    continue;
                };
                let label = format!("case {case} symmetric={symmetric} step {step} {u:?}");
                let (src, dst) = match u {
                    discset::NetworkUpdate::Insert { edge, .. } => (edge.src, edge.dst),
                    discset::NetworkUpdate::Remove { src, dst, .. } => (src, dst),
                };
                let holders = |v: NodeId| engine.fragmentation().fragments_of_node(v);
                let is_crossing = holders(src).len() >= 2 && holders(dst).len() >= 2;
                let is_apart = apart.contains(&src) && apart.contains(&dst);
                let held = (engine.fragmentation().fragments().iter())
                    .filter(|f| f.contains_node(src) && f.contains_node(dst))
                    .count();
                let twin = matches!(u, discset::NetworkUpdate::Insert { edge, owner }
                    if (engine.fragmentation().fragments().iter()).any(|f| f.id() != owner && f.edges().contains(&edge)));
                let before = engine.clone();
                let report = engine.maintain(&u, &mut scratch).expect(&label);
                if report.effective() {
                    crossing += is_crossing as usize;
                    third += (is_crossing && held >= 3) as usize;
                    twins += (is_crossing && twin) as usize;
                    apart_edits += is_apart as usize;
                }
                let (was, now) = (before.complementary(), engine.complementary());
                if is_crossing || is_apart {
                    for f in 0..frag.fragment_count() {
                        assert!(
                            std::sync::Arc::ptr_eq(was.local_sweeps(f), now.local_sweeps(f)),
                            "{label}: fragment {f} re-swept"
                        );
                    }
                }
                let rebuilt =
                    EngineSnapshot::build(engine.fragmentation().clone(), symmetric, cfg());
                let fresh = rebuilt.complementary();
                assert_eq!(
                    now.skeleton_edges(),
                    fresh.skeleton_edges(),
                    "{label}: skeleton"
                );
                assert_eq!(engine.hub_handle(), rebuilt.hub_handle(), "{label}: hub");
                assert_shortcuts_are_the_hub_over_border_pairs(&engine, &label);
                for f in 0..frag.fragment_count() {
                    let (now, fresh) = (now.shortcuts(f), fresh.shortcuts(f));
                    let fresh: Vec<Edge> = fresh.collect();
                    assert_eq!(
                        now.collect::<Vec<_>>(),
                        fresh,
                        "{label}: site {f}'s shortcuts"
                    );
                }
                let csr = engine.graph().clone();
                for _ in 0..6 {
                    let x = NodeId(rng.gen_index(csr.node_count()) as u32);
                    let y = NodeId(rng.gen_index(csr.node_count()) as u32);
                    let want = baseline::shortest_path_cost(&csr, x, y);
                    let got = engine.shortest_path(x, y, &mut scratch).cost;
                    assert_eq!(got, want, "{label}: {x}->{y}");
                    if x != y && want.is_some() {
                        let r = engine.route(x, y, &mut scratch).unwrap().expect(&label);
                        assert_eq!(Some(r.cost), want, "{label}: route {x}->{y}");
                        assert_eq!((r.nodes[0], r.nodes[r.nodes.len() - 1]), (x, y));
                        assert_real_path(&csr, &r.nodes, r.cost, &label);
                    }
                }
            }
        }
    }
    assert!(
        crossing > 300 && third > 15 && twins > 30 && apart_edits > 5,
        "{crossing} crossing edits, {third} held by three fragments, {twins} twins, \
         {apart_edits} apart from every border"
    );
}

/// Every table of `engine` is its hub's finite entries over the ordered
/// pairs of the site's borders, and no tuple elsewhere.
fn assert_shortcuts_are_the_hub_over_border_pairs(engine: &EngineSnapshot, label: &str) {
    use discset::graph::INFINITE_COST;
    let frag = engine.fragmentation();
    let holders = |v: NodeId| frag.fragments_of_node(v);
    let borders: Vec<NodeId> = (0..frag.node_count())
        .map(|v| NodeId(v as u32))
        .filter(|&v| holders(v).len() >= 2)
        .collect();
    let id = |v: &NodeId| borders.binary_search(v).expect("a border");
    let hub = engine.hub_handle();
    for f in 0..frag.fragment_count() {
        let site: Vec<NodeId> = (frag.fragment(f).nodes().iter().copied())
            .filter(|&v| holders(v).len() >= 2)
            .collect();
        let mut want = Vec::new();
        for u in &site {
            for v in site.iter().filter(|&v| v != u) {
                let cost = hub.cost(id(u), id(v));
                if cost < INFINITE_COST {
                    want.push(Edge::new(*u, *v, cost));
                }
            }
        }
        let got: Vec<Edge> = engine.complementary().shortcuts(f).collect();
        assert_eq!(got, want, "{label}: site {f}'s shortcuts");
    }
}

/// The hops of `nodes` are edges of `csr`, and their cheapest costs add
/// up to `cost`.
fn assert_real_path(csr: &CsrGraph, nodes: &[NodeId], cost: u64, label: &str) {
    let mut total = 0;
    for hop in nodes.windows(2) {
        let step = (csr.neighbors(hop[0]))
            .filter(|&(t, _)| t == hop[1])
            .map(|(_, c)| c)
            .min();
        total += step.unwrap_or_else(|| panic!("{label}: no edge {} -> {}", hop[0], hop[1]));
    }
    assert_eq!(total, cost, "{label}: route cost");
}

/// Reachability-index equivalence: `connected` answered through the
/// SCC/chain index of an engine *maintained* through a 20-step mixed
/// insert/delete stream equals (a) plain Dijkstra connectivity on the
/// final graph and (b) an engine rebuilt from scratch on that graph
/// (whose index is built fresh, never maintained) — exhaustively over
/// all node pairs, for every generator × {linear, center} fragmenter ×
/// backend. This pins the keep/drop/rebuild rules of
/// `ConnectivityEffect`: the index is built before every update, and an
/// index an update kept is checked against the edited graph at once, so
/// a stale index kept alive by a wrong rule shows up here as a
/// connectivity answer diverging from the oracle.
#[test]
fn reachability_index_equals_dijkstra_connected() {
    use discset::gen::output::expand_connections;

    let (mut case, mut kept) = (0u64, 0usize);
    for seed in 0..6u64 {
        let g = update_network(seed);
        for fragmenter in [
            Fragmenter::Linear(LinearConfig {
                fragments: 3,
                ..Default::default()
            }),
            Fragmenter::Center(CenterConfig {
                fragments: 3,
                ..Default::default()
            }),
        ] {
            for backend in [Backend::Inline, Backend::SiteThreads] {
                case += 1;
                let mut rng = StdRng::seed_from_u64(0x2EAC4 ^ case);
                let mut sys = System::builder()
                    .graph(&g)
                    .fragmenter(fragmenter.clone())
                    .backend(backend)
                    .build()
                    .unwrap();
                let (mut applied, mut pending) = (0, None);
                for _ in 0..300 {
                    if applied >= 20 {
                        break;
                    }
                    let Some(update) =
                        arb_update(&mut rng, sys.fragmentation(), true, &mut pending)
                    else {
                        continue;
                    };
                    // Built before every update, so each one is maintained
                    // against a built index and the keep rules decide.
                    sys.engine().ensure_reach();
                    sys.update(&update).unwrap();
                    applied += 1;
                    // A kept index must still answer for the edited graph.
                    let engine = sys.engine();
                    if engine.reach_handle().is_some() {
                        kept += 1;
                        for x in 0..g.nodes as u32 {
                            for y in 0..g.nodes as u32 {
                                let (x, y) = (NodeId(x), NodeId(y));
                                assert_eq!(
                                    engine.connected(x, y),
                                    x == y || baseline::reachable(engine.graph(), x, y),
                                    "case {case}: index kept across {update:?}, {x}->{y}"
                                );
                            }
                        }
                    }
                }
                assert!(applied >= 20, "case {case}: not enough applicable updates");

                // Oracle graph + from-scratch engine on the final network.
                let final_frag = sys.fragmentation().clone();
                let connections: Vec<Edge> = final_frag
                    .fragments()
                    .iter()
                    .flat_map(|f| f.edges().iter().copied())
                    .collect();
                let csr = CsrGraph::from_edges(g.nodes, &expand_connections(&connections, true));
                let mut fresh = System::builder()
                    .network(g.nodes, connections)
                    .fragmenter(Fragmenter::Prebuilt(final_frag))
                    .backend(Backend::Inline)
                    .build()
                    .unwrap();
                for x in 0..g.nodes as u32 {
                    for y in 0..g.nodes as u32 {
                        let (x, y) = (NodeId(x), NodeId(y));
                        let want = x == y || baseline::shortest_path_cost(&csr, x, y).is_some();
                        assert_eq!(
                            sys.connected(x, y),
                            want,
                            "case {case} {}: maintained index {x}->{y}",
                            sys.backend_name()
                        );
                        assert_eq!(
                            fresh.connected(x, y),
                            want,
                            "case {case}: rebuilt index {x}->{y}"
                        );
                    }
                }
            }
        }
    }
    assert!(kept > 0, "no update kept a built index");
}

/// Pure-insert sequences never fall back to a full recompute, on either
/// backend (the acceptance contract of incremental insert maintenance).
#[test]
fn pure_insert_sequences_never_recompute() {
    for seed in 0..6u64 {
        let g = generate_general(
            &GeneralConfig {
                nodes: 24,
                target_edges: 50,
                ..Default::default()
            },
            seed,
        );
        for backend in [Backend::Inline, Backend::SiteThreads] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sys = System::builder()
                .graph(&g)
                .fragmenter(Fragmenter::Linear(LinearConfig {
                    fragments: 3,
                    ..Default::default()
                }))
                .backend(backend)
                .build()
                .unwrap();
            let mut applied = 0;
            for _ in 0..200 {
                if applied >= 15 {
                    break;
                }
                let frag = sys.fragmentation();
                let owner = rng.gen_index(frag.fragment_count());
                let nodes = frag.fragment(owner).nodes();
                if nodes.len() < 2 {
                    continue;
                }
                let a = nodes[rng.gen_index(nodes.len())];
                let b = nodes[rng.gen_index(nodes.len())];
                let report = sys
                    .update(&discset::NetworkUpdate::Insert {
                        edge: Edge::new(a, b, 1 + rng.gen_index(20) as u64),
                        owner,
                    })
                    .unwrap();
                assert!(
                    !report.full_recompute,
                    "seed {seed} {}: inserts are always incremental ({report:?})",
                    sys.backend_name()
                );
                applied += 1;
            }
            assert!(applied >= 15, "seed {seed}: not enough inserts");
        }
    }
}

/// The edges of a graph as a sorted multiset.
fn edge_multiset(g: &CsrGraph) -> Vec<(NodeId, NodeId, u64)> {
    let mut edges: Vec<_> = g.edges().map(|e| (e.src, e.dst, e.cost)).collect();
    edges.sort_unstable();
    edges
}

/// One time in six, an exact copy of some fragment's tuple, inserted by a
/// fragment holding both its endpoints — another fragment when one does,
/// so identical tuples with different owners are common.
fn arb_twin(
    rng: &mut StdRng,
    frag: &discset::fragment::Fragmentation,
) -> Option<discset::NetworkUpdate> {
    if rng.gen_index(6) > 0 {
        return None;
    }
    let from = frag.fragment(rng.gen_index(frag.fragment_count()));
    let edge = *from.edges().get(rng.gen_index(from.edges().len().max(1)))?;
    let holds = |f: &&discset::fragment::Fragment| {
        f.id() != from.id() && f.contains_node(edge.src) && f.contains_node(edge.dst)
    };
    let owner = frag
        .fragments()
        .iter()
        .find(holds)
        .map_or(from.id(), |f| f.id());
    Some(discset::NetworkUpdate::Insert { edge, owner })
}

/// One definition of "effective": for every update the generator draws —
/// bridges deleted and put back, removals that match nothing, inserts the
/// rule refuses, twins of existing tuples — on symmetric and one-way
/// networks, the structural edit rule says the edge set
/// changed exactly when maintenance reports an effective update, both
/// refuse the same updates, and the relation the rule folds is the
/// relation the engine holds. The serve writer counts epochs by the
/// report, recovery by the rule. After every update, the closure graph
/// maintenance edited equals the one the relation derives, as an edge
/// multiset: a removal drops one entry per tuple its owner held, and a
/// twin another fragment owns keeps its own.
#[test]
fn the_edit_rule_and_maintenance_agree_on_effective() {
    use discset::closure::api::apply_edit;

    let mut scratch = ScratchDijkstra::new();
    let (mut effective, mut noops, mut refused, mut twins) = (0, 0, 0, 0);
    for seed in 0..8u64 {
        let g = update_network(seed);
        let frag = linear_sweep(
            &g.edge_list(),
            &LinearConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        let symmetric = stream_case(seed);
        let mut folded = frag.clone();
        let mut engine = EngineSnapshot::build(frag, symmetric, EngineConfig::default());
        let mut rng = StdRng::seed_from_u64(0xEFFEC7 ^ seed);
        let mut pending = None;
        for step in 0..40 {
            let twin = pending
                .is_none()
                .then(|| arb_twin(&mut rng, &folded))
                .flatten();
            twins += twin.is_some() as usize;
            let Some(u) =
                twin.or_else(|| arb_update_or_dud(&mut rng, &folded, symmetric, &mut pending))
            else {
                continue;
            };
            let label = format!("seed {seed} step {step} {u:?}");
            let edit = apply_edit(&mut folded, symmetric, &u);
            let report = engine.maintain(&u, &mut scratch);
            match (&edit, &report) {
                (Ok(changed), Ok(r)) => {
                    assert_eq!(*changed, r.sites_touched > 0 || r.full_recompute, "{label}");
                    assert_eq!(*changed, r.effective(), "{label}");
                    effective += *changed as usize;
                    noops += !*changed as usize;
                }
                (Err(e), Err(m)) => {
                    assert_eq!(e, m, "{label}");
                    refused += 1;
                }
                _ => panic!("{label}: rule {edit:?}, maintenance {report:?}"),
            }
            for (ours, held) in folded
                .fragments()
                .iter()
                .zip(engine.fragmentation().fragments())
            {
                assert_eq!(
                    ours.edges(),
                    held.edges(),
                    "{label}: fragment {}",
                    ours.id()
                );
            }
            assert_eq!(
                edge_multiset(engine.graph()),
                edge_multiset(&folded.closure_graph(symmetric)),
                "{label}: the edited closure graph"
            );
        }
    }
    assert!(
        effective > 100 && noops > 10 && refused > 10 && twins > 20,
        "{effective} effective, {noops} no-ops, {refused} refused, {twins} twins"
    );
}

/// The transpose holds every edge flipped, parallel edges and loops
/// included, on one-way graphs (the skeleton transpose a one-way
/// network's first write makes), and transposing twice gives the graph
/// back.
#[test]
fn the_transpose_flips_every_edge() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7A5 ^ seed);
        let n = 1 + rng.gen_index(30);
        let edges: Vec<Edge> = (0..rng.gen_index(4 * n))
            .map(|_| {
                let (a, b) = (rng.gen_index(n) as u32, rng.gen_index(n) as u32);
                Edge::new(NodeId(a), NodeId(b), rng.gen_index(5) as u64)
            })
            .collect();
        let g = CsrGraph::from_edges(n, &edges);
        let flipped: Vec<Edge> = edges.iter().map(|e| e.reversed()).collect();
        let t = g.reversed();
        assert_eq!(
            edge_multiset(&t),
            edge_multiset(&CsrGraph::from_edges(n, &flipped)),
            "seed {seed}"
        );
        assert_eq!(
            edge_multiset(&t.reversed()),
            edge_multiset(&g),
            "seed {seed}"
        );
    }
}

/// The skeleton-overlay precompute (fragment-local sweeps + border
/// skeleton closure) produces *identical* complementary information to
/// the global-sweep reference — same `pair_count`, same per-site
/// shortcut tables, tuple for tuple — for every generator × fragmenter.
#[test]
fn skeleton_precompute_equals_global_sweep() {
    use discset::closure::ComplementaryInfo;
    use discset::fragment::Fragmentation;

    fn assert_equal(frag: &Fragmentation, symmetric: bool, label: &str) {
        let skel = ComplementaryInfo::compute(frag, symmetric);
        let glob = ComplementaryInfo::compute_global_sweep(frag, symmetric);
        assert_eq!(
            skel.border_count(),
            glob.border_count(),
            "{label}: border count"
        );
        assert_eq!(skel.pair_count(), glob.pair_count(), "{label}: pair count");
        assert_eq!(skel.hub(), glob.hub(), "{label}: hub");
        for f in 0..frag.fragment_count() {
            assert_eq!(
                skel.shortcuts(f).collect::<Vec<_>>(),
                glob.shortcuts(f).collect::<Vec<_>>(),
                "{label}: site {f} shortcuts"
            );
        }
    }

    for seed in 0..8u64 {
        let g = if seed % 2 == 0 {
            generate_general(
                &GeneralConfig {
                    nodes: 30,
                    target_edges: 70,
                    ..Default::default()
                },
                seed,
            )
        } else {
            generate_transportation(
                &TransportationConfig {
                    clusters: 3,
                    nodes_per_cluster: 10,
                    target_edges_per_cluster: 25,
                    ..TransportationConfig::default()
                },
                seed,
            )
        };
        let el = g.edge_list();
        let lin = linear_sweep(
            &el,
            &LinearConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        assert_equal(&lin, g.symmetric, &format!("seed {seed} linear"));
        let cen = center_based(
            &el,
            &CenterConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        assert_equal(&cen, g.symmetric, &format!("seed {seed} center"));
        if let Some(labels) = &g.cluster_of {
            let sem = discset::fragment::semantic::by_labels(
                g.nodes,
                &g.connections,
                labels,
                (*labels.iter().max().unwrap() + 1) as usize,
                discset::fragment::CrossingPolicy::LowerBlock,
            )
            .unwrap();
            assert_equal(&sem, g.symmetric, &format!("seed {seed} semantic"));
        }
    }

    // A *cyclic* fragmentation graph (three fragments in a triangle):
    // border pairs can be locally disconnected yet globally connected
    // through the third fragment — the skeleton closure, not a global
    // re-sweep, must supply those distances under `PerFragmentBorder`.
    let edges = |pairs: &[(u32, u32)]| -> Vec<Edge> {
        pairs
            .iter()
            .flat_map(|&(a, b)| {
                [
                    Edge::unit(NodeId(a), NodeId(b)),
                    Edge::unit(NodeId(b), NodeId(a)),
                ]
            })
            .collect()
    };
    let all = edges(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
    let csr = CsrGraph::from_edges(6, &all);
    let tri = Fragmentation::new(
        6,
        vec![
            edges(&[(0, 1), (1, 2)]),
            edges(&[(2, 3), (3, 4)]),
            edges(&[(4, 5), (5, 0)]),
        ],
        vec![vec![], vec![], vec![]],
    );
    assert!(
        !tri.fragmentation_graph().is_acyclic(),
        "triangle fragmentation graph is cyclic"
    );
    // Each fragment holds both directions of its connections.
    assert_equal(&tri, false, "triangle");
    // And the deployed engine still answers exactly on it.
    let engine = EngineSnapshot::build(tri, true, EngineConfig::default());
    let mut scratch = ScratchDijkstra::new();
    for x in 0..6u32 {
        for y in 0..6u32 {
            assert_eq!(
                engine
                    .shortest_path(NodeId(x), NodeId(y), &mut scratch)
                    .cost,
                baseline::shortest_path_cost(&csr, NodeId(x), NodeId(y)),
                "triangle {x}->{y}"
            );
        }
    }
}

/// The build's hub is the closure of the kept skeleton: entry for entry
/// what one `ScratchDijkstra::sweep` per border over `comp.skeleton()`
/// reaches (`INFINITE_COST` where it reaches nothing) — over seeded
/// linear, center, bond-energy and semantic fragmentations, on symmetric
/// and one-way networks, a one-way fixture with unreachable border pairs
/// and graphs with no border and with one.
#[test]
fn the_build_hub_equals_one_sweep_per_border() {
    use discset::fragment::bond_energy::{bond_energy, BondEnergyConfig};
    use discset::fragment::{semantic, CrossingPolicy, Fragmentation};
    use discset::graph::INFINITE_COST;

    /// Check the hub of a build of `frag`; returns its borders and the
    /// ordered border pairs no path joins.
    fn assert_hub(frag: &Fragmentation, symmetric: bool, label: &str) -> (usize, usize) {
        let snap = EngineSnapshot::build(frag.clone(), symmetric, EngineConfig::default());
        let skeleton = snap.complementary().skeleton();
        let hub = snap.hub_handle();
        let nb = snap.complementary().border_count();
        assert_eq!(
            (hub.border_count(), skeleton.node_count()),
            (nb, nb),
            "{label}"
        );
        let mut scratch = ScratchDijkstra::new();
        let mut unreachable = 0;
        for s in skeleton.nodes() {
            scratch.sweep(skeleton, &[(s, 0)]);
            let swept: Vec<u64> = (skeleton.nodes())
                .map(|t| scratch.cost(t).unwrap_or(INFINITE_COST))
                .collect();
            let row: Vec<u64> = hub.row(s.index()).collect();
            assert_eq!(row, swept, "{label}: row {s:?}");
            unreachable += swept.iter().filter(|&&c| c == INFINITE_COST).count();
        }
        (nb, unreachable)
    }

    let (mut one_way_unreachable, mut closed) = (0, std::collections::BTreeSet::new());
    for seed in 0..6u64 {
        let g = if seed % 2 == 0 {
            generate_general(
                &GeneralConfig {
                    nodes: 30,
                    target_edges: 70,
                    ..Default::default()
                },
                seed,
            )
        } else {
            generate_transportation(
                &TransportationConfig {
                    clusters: 3,
                    nodes_per_cluster: 10,
                    target_edges_per_cluster: 25,
                    ..TransportationConfig::default()
                },
                seed,
            )
        };
        let el = g.edge_list();
        let three = LinearConfig {
            fragments: 3,
            ..Default::default()
        };
        let center = CenterConfig {
            fragments: 3,
            ..Default::default()
        };
        let bea = BondEnergyConfig {
            max_restarts: Some(4),
            ..BondEnergyConfig::default()
        };
        let mut fragmentations = vec![
            ("linear", linear_sweep(&el, &three).unwrap().fragmentation),
            ("center", center_based(&el, &center).unwrap().fragmentation),
            ("bond energy", bond_energy(&el, &bea).unwrap().fragmentation),
        ];
        if let Some(labels) = &g.cluster_of {
            let policy = CrossingPolicy::LowerBlock;
            let sem = semantic::by_labels(g.nodes, &g.connections, labels, 3, policy);
            fragmentations.push(("semantic", sem.unwrap()));
        }
        for (family, frag) in &fragmentations {
            for symmetric in [true, false] {
                let label = format!("seed {seed} {family} symmetric={symmetric}");
                let (nb, unreachable) = assert_hub(frag, symmetric, &label);
                if nb > 1 {
                    closed.insert(*family);
                }
                if !symmetric {
                    one_way_unreachable += unreachable;
                }
            }
        }
    }
    assert_eq!(
        closed.len(),
        4,
        "every family closed a skeleton: {closed:?}"
    );
    assert!(
        one_way_unreachable > 0,
        "a one-way border pair no path joins"
    );

    let unit = |pairs: &[(u32, u32)]| -> Vec<Edge> {
        (pairs.iter())
            .map(|&(a, b)| Edge::unit(NodeId(a), NodeId(b)))
            .collect()
    };
    // One way along 0 -> 1 -> 2 -> 3 -> 4: borders 1, 2 and 3, each
    // reaching only the ones after it.
    let chain = Fragmentation::new(
        5,
        vec![
            unit(&[(0, 1)]),
            unit(&[(1, 2)]),
            unit(&[(2, 3)]),
            unit(&[(3, 4)]),
        ],
        vec![vec![]; 4],
    );
    assert_eq!(assert_hub(&chain, false, "one-way chain"), (3, 3));
    assert_eq!(assert_hub(&chain, true, "two-way chain"), (3, 0));
    // One fragment: no border, an empty hub; two split at node 2: one.
    let whole = Fragmentation::new(3, vec![unit(&[(0, 1), (1, 2)])], vec![vec![]]);
    let split = Fragmentation::new(
        5,
        vec![unit(&[(0, 1), (1, 2)]), unit(&[(2, 3), (3, 4)])],
        vec![vec![]; 2],
    );
    for symmetric in [true, false] {
        assert_eq!(assert_hub(&whole, symmetric, "no border"), (0, 0));
        assert_eq!(assert_hub(&split, symmetric, "one border"), (1, 0));
    }
}

/// One reader-thread observation: query endpoints, served cost, epoch.
type EpochObservation = (NodeId, NodeId, Option<u64>, u64);

/// Concurrent consistency of the serve subsystem: reader threads run
/// against a live update stream, and every answer must match the
/// centralized oracle for the *epoch it was served at* — i.e. the
/// network state after exactly `epoch` updates. Answers are never torn
/// between a pre- and post-update state, across generators × fragmenter
/// families.
#[test]
fn concurrent_readers_match_their_epoch_oracle() {
    use discset::closure::api::apply_edit;
    use discset::gen::output::expand_connections;

    const UPDATES: usize = 10;
    const READERS: u32 = 3;

    let mut case = 0u64;
    for seed in 0..2u64 {
        let g = update_network(seed);
        for fragmenter in [
            Fragmenter::Linear(LinearConfig {
                fragments: 3,
                ..Default::default()
            }),
            Fragmenter::Center(CenterConfig {
                fragments: 3,
                ..Default::default()
            }),
        ] {
            case += 1;
            let sys = System::builder()
                .graph(&g)
                .fragmenter(fragmenter)
                .build()
                .unwrap();

            // Script the update stream up front and precompute the
            // oracle graph for every epoch prefix: epoch e == the
            // network after the first e updates.
            let mut rng = StdRng::seed_from_u64(0x5EB7E ^ case);
            let mut frag_sim = sys.fragmentation().clone();
            let mut updates = Vec::with_capacity(UPDATES);
            let mut oracles = vec![frag_sim.closure_graph(true)];
            let mut pending = None;
            for _ in 0..400 {
                if updates.len() >= UPDATES {
                    break;
                }
                let Some(u) = arb_update(&mut rng, &frag_sim, true, &mut pending) else {
                    continue;
                };
                // Skip structural no-ops so each scripted update
                // advances the epoch by exactly one.
                if apply_edit(&mut frag_sim, true, &u) == Ok(true) {
                    updates.push(u);
                    oracles.push(frag_sim.closure_graph(true));
                }
            }
            assert_eq!(updates.len(), UPDATES, "case {case}: script too short");
            {
                // The engine's graph is derived from the fragment union;
                // it must agree with the input network's own expansion
                // at epoch 0.
                let direct =
                    CsrGraph::from_edges(g.nodes, &expand_connections(&g.connections, true));
                for x in 0..4u32 {
                    assert_eq!(
                        baseline::shortest_path_cost(&oracles[0], NodeId(x), NodeId(x + 1)),
                        baseline::shortest_path_cost(&direct, NodeId(x), NodeId(x + 1)),
                        "case {case}: epoch-0 oracle"
                    );
                }
            }

            let server = sys.serve(READERS as usize);
            let stop = std::sync::atomic::AtomicBool::new(false);
            let records: Vec<Vec<EpochObservation>> = std::thread::scope(|s| {
                let server = &server;
                let stop = &stop;
                let handles: Vec<_> = (0..READERS)
                    .map(|t| {
                        s.spawn(move || {
                            let mut rng = StdRng::seed_from_u64(0xBEEF ^ (case << 8) ^ t as u64);
                            let mut out = Vec::new();
                            let mut one = |out: &mut Vec<EpochObservation>| {
                                let x = NodeId(rng.gen_index(g.nodes) as u32);
                                let y = NodeId(rng.gen_index(g.nodes) as u32);
                                if rng.gen_index(4) == 0 {
                                    // Batch path: all answers of a job
                                    // share one epoch.
                                    let reqs =
                                        vec![QueryRequest::new(x, y), QueryRequest::new(y, x)];
                                    let served = server.query_batch(&reqs).expect("healthy pool");
                                    for (r, a) in reqs.iter().zip(&served.answers) {
                                        out.push((r.source, r.target, a.cost, served.epoch));
                                    }
                                } else {
                                    let served = server.query(x, y).expect("healthy pool");
                                    out.push((x, y, served.answer.cost, served.epoch));
                                }
                            };
                            // Race phase: query until the update stream
                            // is done, however long scheduling lets it
                            // take (bounded only by a safety valve).
                            while !stop.load(std::sync::atomic::Ordering::Relaxed)
                                && out.len() < 100_000
                            {
                                one(&mut out);
                            }
                            // Settled phase: a deterministic tail of
                            // queries guaranteed to observe the final
                            // epoch.
                            for _ in 0..20 {
                                one(&mut out);
                            }
                            out
                        })
                    })
                    .collect();
                // The update stream runs while the readers hammer away.
                for u in &updates {
                    let served = server.update(u).unwrap();
                    assert!(
                        served.epoch >= 1 && served.epoch <= UPDATES as u64,
                        "case {case}: epoch {} out of range",
                        served.epoch
                    );
                }
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(server.epoch(), UPDATES as u64, "case {case}");
            let stats = server.shutdown();
            assert_eq!(stats.updates, UPDATES as u64, "case {case}");

            let mut checked = 0usize;
            let mut post_update = 0usize;
            for (t, rows) in records.iter().enumerate() {
                for &(x, y, cost, epoch) in rows {
                    assert!(
                        (epoch as usize) < oracles.len(),
                        "case {case} reader {t}: epoch {epoch} never published"
                    );
                    let want = if x == y {
                        Some(0)
                    } else {
                        baseline::shortest_path_cost(&oracles[epoch as usize], x, y)
                    };
                    assert_eq!(
                        cost, want,
                        "case {case} reader {t}: {x}->{y} at epoch {epoch}"
                    );
                    checked += 1;
                    if epoch > 0 {
                        post_update += 1;
                    }
                }
            }
            assert!(checked >= 30, "case {case}: only {checked} answers checked");
            // The race is only interesting if some answers really were
            // served from a post-update epoch.
            assert!(
                post_update > 0,
                "case {case}: no reader ever observed an updated epoch"
            );
        }
    }
}

/// Structural sharing across snapshot epochs: after maintaining a cloned
/// successor snapshot, a site is the predecessor epoch's very site —
/// `Arc::ptr_eq`: graph, border index, access sets — exactly when the
/// update did not touch it, on both fragmenter families (linear sweep and
/// center growth); and a touched site carries a new table exactly when
/// its entries changed. This is the invariant that makes the serve
/// writer's per-epoch publication O(touched sites).
#[test]
fn untouched_sites_stay_arc_shared_across_epochs() {
    use discset::closure::snapshot::EngineSnapshot;
    use discset::graph::ScratchDijkstra;
    use std::sync::Arc;

    let mut scratch = ScratchDijkstra::new();
    for seed in 0..6u64 {
        let g = update_network(seed);
        let el = g.edge_list();
        let fragmentations = [
            (
                "linear",
                linear_sweep(
                    &el,
                    &LinearConfig {
                        fragments: 4,
                        ..Default::default()
                    },
                )
                .unwrap()
                .fragmentation,
            ),
            (
                "center",
                center_based(
                    &el,
                    &CenterConfig {
                        fragments: 4,
                        ..Default::default()
                    },
                )
                .unwrap()
                .fragmentation,
            ),
        ];
        for (family, frag) in fragmentations {
            let label = format!("seed {seed} {family}");
            let base = EngineSnapshot::build(frag, true, EngineConfig::default());
            let mut rng = StdRng::seed_from_u64(0x5AA6 ^ seed << 4);
            let mut prev = base;
            let (mut applied, mut pending) = (0, None);
            for _ in 0..200 {
                if applied >= 10 {
                    break;
                }
                let Some(update) = arb_update(&mut rng, prev.fragmentation(), true, &mut pending)
                else {
                    continue;
                };
                // The successor epoch, exactly as the serve writer makes
                // one: clone (O(sites)) then maintain in place.
                let mut next = prev.clone();
                let m = match next.maintain_cow(&update, &mut scratch) {
                    Ok(m) => m,
                    Err(_) => continue, // e.g. degenerate insert target
                };
                if m.owner.is_none() {
                    continue; // structural no-op: nothing to check
                }
                applied += 1;
                for f in 0..prev.site_count() {
                    assert_eq!(
                        Arc::ptr_eq(prev.site_handle(f), next.site_handle(f)),
                        !m.touched_sites.contains(&f),
                        "{label}: site {f} after {update:?} (touched {:?})",
                        m.touched_sites
                    );
                }
                // A write that changes no hub entry keeps the shared hub
                // and rebuilds no site but the owner.
                if Arc::ptr_eq(prev.hub_handle(), next.hub_handle()) {
                    assert!(m.shortcut_sites.is_empty(), "{label}: {update:?}");
                }
                prev = next;
            }
            assert!(applied >= 10, "{label}: not enough applicable updates");
        }
    }
}

/// The site kernel against its reference, shape by shape and end to end.
///
/// For {symmetric, one-way} networks × {a hand-made chain of fragments,
/// an acyclic linear sweep, a cyclic center growth}, before and after a
/// maintained insert and a maintained delete:
///
/// * every subquery a site can be asked — each fragment node alone, each
///   of the site's disconnection sets, all its borders, in every
///   source/target combination — reads from `border_matrix_with` exactly
///   what `forward_matrix` sweeps out of the site's augmented graph;
/// * the hub's block over two of a site's disconnection sets, read at
///   the planner's skeleton ids — the interior segment a chain's fold
///   reads there — is that same sweep;
/// * whole answers equal the reference evaluation (`run_chain` +
///   `chain_cost_refs` over every planned chain) and the centralized
///   Dijkstra, on a cyclic fragmentation too;
/// * two readers released together onto empty access sets agree with
///   each other and with a reader that had the snapshot to itself.
///
/// The hand-made network pins the corner cases: a fragment with a single
/// border node, a zero-cost edge, an island no other node reaches.
#[test]
fn site_kernel_equals_sweeps_of_the_augmented_graph() {
    use discset::closure::assemble::chain_cost_refs;
    use discset::closure::executor::{run_chain, ExecutionMode};
    use discset::closure::local::{border_matrix_with, forward_matrix};
    use discset::closure::EngineSnapshot;
    use discset::fragment::Fragmentation;
    use discset::graph::{Cost, ScratchDijkstra};
    use discset::NetworkUpdate;
    use std::sync::Arc;

    /// 0 -2- 1 -0- 2 | 2 -1- 3 -2- 4, 2 -5- 4 | 4 -1- 5 -1- 6 -4- 7, 4 -1- 7,
    /// and an island 8 -3- 9 in the first fragment.
    fn chain_of_three() -> (usize, Fragmentation) {
        let e = |a: u32, b: u32, c: u64| Edge::new(NodeId(a), NodeId(b), c);
        let sets = vec![
            vec![e(0, 1, 2), e(1, 2, 0), e(8, 9, 3)],
            vec![e(2, 3, 1), e(3, 4, 2), e(2, 4, 5)],
            vec![e(4, 5, 1), e(5, 6, 1), e(6, 7, 4), e(4, 7, 1)],
        ];
        (10, Fragmentation::new(10, sets, vec![vec![]; 3]))
    }

    /// Everything one snapshot must satisfy; returns its answers.
    fn check(snap: &EngineSnapshot, label: &str) -> Vec<Option<Cost>> {
        let mut scratch = ScratchDijkstra::new();
        let planner = snap.planner();
        let frag = snap.fragmentation();
        for f in frag.fragments() {
            let site = snap.site_handle(f.id());
            let borders: Vec<NodeId> = site.border_nodes().collect();
            let mut lists: Vec<&[NodeId]> = f.nodes().iter().map(std::slice::from_ref).collect();
            lists.push(&borders);
            lists.extend(
                planner
                    .fragmentation_graph()
                    .neighbors(f.id())
                    .iter()
                    .map(|&g| planner.ds_between(f.id(), g)),
            );
            let augmented = snap.augmented_handle(f.id());
            let hub = snap.hub_handle();
            let neighbors = planner.fragmentation_graph().neighbors(f.id());
            for (&g, &h) in neighbors
                .iter()
                .flat_map(|g| neighbors.iter().map(move |h| (g, h)))
            {
                let (entering, leaving) = (
                    planner.ds_skeleton_ids(g, f.id()),
                    planner.ds_skeleton_ids(f.id(), h),
                );
                let block: Vec<Cost> = (entering.iter())
                    .flat_map(|&b| {
                        leaving
                            .iter()
                            .map(move |&b2| hub.cost(b as usize, b2 as usize))
                    })
                    .collect();
                let (sources, targets) =
                    (planner.ds_between(g, f.id()), planner.ds_between(f.id(), h));
                assert_eq!(
                    block,
                    forward_matrix(augmented, sources, targets, &mut scratch),
                    "{label}: the hub block {g} -> {} -> {h}",
                    f.id()
                );
            }
            for sources in &lists {
                for targets in &lists {
                    let mut costs = Vec::new();
                    border_matrix_with(site, hub, sources, targets, &mut scratch, &mut costs);
                    assert_eq!(
                        costs,
                        forward_matrix(augmented, sources, targets, &mut scratch),
                        "{label}: site {} {sources:?} -> {targets:?}",
                        f.id()
                    );
                }
            }
        }
        let augmented: Vec<_> = (0..snap.site_count())
            .map(|f| Arc::clone(snap.augmented_handle(f)))
            .collect();
        let n = frag.node_count() as u32;
        let mut answers = Vec::new();
        for x in 0..n {
            for y in [(x + 1) % n, (x * 7 + 3) % n, n - 1 - x] {
                let (x, y) = (NodeId(x), NodeId(y));
                let got = snap.shortest_path(x, y, &mut scratch).cost;
                let reference = if x == y {
                    Some(0)
                } else {
                    planner.plan(x, y).ok().and_then(|plan| {
                        plan.chains
                            .iter()
                            .filter_map(|chain| {
                                let (segments, _) = run_chain(
                                    &augmented,
                                    chain,
                                    ExecutionMode::Sequential,
                                    &mut scratch,
                                );
                                chain_cost_refs(&segments.iter().collect::<Vec<_>>(), x, y)
                            })
                            .min()
                    })
                };
                assert_eq!(got, reference, "{label}: {x}->{y} against run_chain");
                let want = baseline::shortest_path_cost(snap.graph(), x, y);
                assert_eq!(got, want, "{label}: {x}->{y} against Dijkstra");
                answers.push(got);
            }
        }
        answers
    }

    let (mut cyclic, mut single_border, mut unreachable) = (0, 0, 0);
    for symmetric in [true, false] {
        let mut rng = StdRng::seed_from_u64(0x517E ^ symmetric as u64);
        let mut g = generate_general(
            &GeneralConfig {
                nodes: 30,
                target_edges: 80,
                ..Default::default()
            },
            11,
        );
        g.connections[0].cost = 0;
        if !symmetric {
            // One-way: kept, reversed, or kept with a costlier way back.
            g.symmetric = false;
            g.connections = g
                .connections
                .iter()
                .flat_map(|e| match rng.gen_index(4) {
                    0 => vec![e.reversed()],
                    1 => vec![*e, Edge::new(e.dst, e.src, e.cost + 3)],
                    _ => vec![*e],
                })
                .collect();
        }
        let el = g.edge_list();
        let linear = LinearConfig {
            fragments: 4,
            ..Default::default()
        };
        let center = CenterConfig {
            fragments: 4,
            ..Default::default()
        };
        let networks = [
            ("chain of three", chain_of_three()),
            (
                "linear",
                (g.nodes, linear_sweep(&el, &linear).unwrap().fragmentation),
            ),
            (
                "center",
                (g.nodes, center_based(&el, &center).unwrap().fragmentation),
            ),
        ];
        for (family, (n, frag)) in networks {
            let acyclic = frag.fragmentation_graph().is_acyclic();
            cyclic += !acyclic as usize;
            let label = format!("symmetric={symmetric} {family}");
            let mut snap = EngineSnapshot::build(frag, symmetric, EngineConfig::default());
            for f in 0..snap.site_count() {
                let site = snap.site_handle(f);
                let borders = site.border_nodes().count();
                single_border += (borders == 1) as usize;
            }

            // Two readers race to fill the access sets and border-free
            // rows a third fills alone.
            let requests: Vec<QueryRequest> = (0..n as u32)
                .map(|x| QueryRequest::new(NodeId(x), NodeId((x * 7 + 3) % n as u32)))
                .collect();
            let alone = snap.unshared_clone();
            let want = alone
                .query_batch(&requests, &mut ScratchDijkstra::new())
                .costs();
            let barrier = std::sync::Barrier::new(2);
            let raced: Vec<Vec<Option<Cost>>> = std::thread::scope(|s| {
                let readers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            let mut scratch = ScratchDijkstra::new();
                            barrier.wait();
                            snap.query_batch(&requests, &mut scratch).costs()
                        })
                    })
                    .collect();
                readers.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(raced[0], want, "{label}: first reader");
            assert_eq!(raced[1], want, "{label}: second reader");
            let (raced, solo) = (snap.memory_bytes(), alone.memory_bytes());
            assert_eq!(raced.access_sets, solo.access_sets, "{label}");
            assert!(raced.access_sets > 0, "{label}");

            let before = check(&snap, &label);
            unreachable += before.iter().filter(|c| c.is_none()).count();

            // A maintained insert between two nodes of one fragment
            // the network already connects, then a maintained delete.
            let mut scratch = ScratchDijkstra::new();
            let (owner, a, b) = (0..200)
                .find_map(|_| {
                    let owner = rng.gen_index(snap.site_count());
                    let nodes = snap.fragmentation().fragment(owner).nodes();
                    let a = nodes[rng.gen_index(nodes.len())];
                    let b = nodes[rng.gen_index(nodes.len())];
                    let joined = baseline::shortest_path_cost(snap.graph(), a, b);
                    (a != b && joined.is_some_and(|c| c > 1)).then_some((owner, a, b))
                })
                .expect("some fragment holds a connected pair");
            let insert = NetworkUpdate::Insert {
                edge: Edge::new(a, b, 1),
                owner,
            };
            snap.maintain(&insert, &mut scratch).unwrap();
            check(&snap, &format!("{label} after {insert:?}"));
            assert_eq!(snap.shortest_path(a, b, &mut scratch).cost, Some(1));

            let owner = rng.gen_index(snap.site_count());
            let edges = snap.fragmentation().fragment(owner).edges();
            let gone = edges[rng.gen_index(edges.len())];
            let remove = NetworkUpdate::Remove {
                src: gone.src,
                dst: gone.dst,
                owner,
            };
            snap.maintain(&remove, &mut scratch).unwrap();
            check(&snap, &format!("{label} after {remove:?}"));
        }
    }
    assert!(cyclic > 0, "a cyclic fragmentation graph was covered");
    assert!(single_border > 0, "a site with a single border node");
    assert!(unreachable > 0, "an unreachable pair");
}

/// Complementary shortcut costs obey the triangle inequality with the
/// global metric (they ARE global distances).
#[test]
fn shortcut_costs_are_global_distances() {
    for seed in 0..CASES {
        let (n, conns, coords) = arb_graph(seed);
        let el = EdgeList::new(n, conns.clone()).with_coords(coords);
        let frag = linear_sweep(
            &el,
            &LinearConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        let csr = closure_graph(n, &conns);
        let comp = discset::closure::ComplementaryInfo::compute(&frag, true);
        for f in 0..frag.fragment_count() {
            for e in comp.shortcuts(f) {
                assert_eq!(
                    Some(e.cost),
                    baseline::shortest_path_cost(&csr, e.src, e.dst),
                    "seed {seed}"
                );
            }
        }
    }
}

/// Min-plus composition is associative.
#[test]
fn min_plus_composition_is_associative() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rel = |name: &'static str, lo: u32, hi: u32| {
            let rows: Vec<PathTuple> = (0..1 + rng.gen_index(11))
                .map(|_| {
                    PathTuple::new(
                        NodeId(lo + rng.gen_index(4) as u32),
                        NodeId(hi + rng.gen_index(4) as u32),
                        1 + rng.gen_index(19) as u64,
                    )
                })
                .collect();
            Relation::from_rows(name, rows)
        };
        let (a, b, c) = (rel("a", 0, 4), rel("b", 4, 8), rel("c", 8, 12));
        let left = compose_min_plus(&compose_min_plus(&a, &b), &c);
        let right = compose_min_plus(&a, &compose_min_plus(&b, &c));
        assert_eq!(left.rows(), right.rows(), "seed {seed}");
    }
}

/// Semi-naive and naive closure agree.
#[test]
fn seminaive_equals_naive() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xC2B2_AE35));
        let rows: Vec<PathTuple> = (0..1 + rng.gen_index(19))
            .map(|_| {
                PathTuple::new(
                    NodeId(rng.gen_index(8) as u32),
                    NodeId(rng.gen_index(8) as u32),
                    1 + rng.gen_index(8) as u64,
                )
            })
            .collect();
        let rel = Relation::from_rows("R", rows);
        let (a, _) = tc::seminaive_closure(&rel, None);
        let (b, _) = tc::naive_closure(&rel, None);
        assert_eq!(a.rows(), b.rows(), "seed {seed}");
    }
}

/// Closure-strategy equivalence: naive iteration, semi-naive iteration
/// and the epoch's materialization all give the *identical* relation —
/// tuple for tuple — across generators × {linear, center} fragmenters ×
/// {symmetric, directed} × {full, keyhole of 1, keyhole of ~n/3, keyholes
/// of 7, 8, 9 and 17 around the source block, with a duplicate and an
/// id outside the graph} × thread counts, on a cold epoch (site memos
/// and border rows empty, the hub the build made) and on a warm one, whose repeated call sweeps
/// nothing; the fold and sweep counters do not depend on the thread
/// count. And the materialized tuples are true distances: on sampled
/// pairs they equal the per-query engine's `query_batch` answers.
#[test]
fn all_closure_strategies_materialize_the_same_relation() {
    use discset::relation::bulk::{FragmentPartition, MaterializeConfig, MaterializeStats};

    for seed in 0..6u64 {
        let g = if seed % 2 == 0 {
            generate_general(
                &GeneralConfig {
                    nodes: 18,
                    target_edges: 40,
                    ..Default::default()
                },
                seed,
            )
        } else {
            generate_transportation(
                &TransportationConfig {
                    clusters: 3,
                    nodes_per_cluster: 7,
                    target_edges_per_cluster: 16,
                    ..TransportationConfig::default()
                },
                seed,
            )
        };
        let el = g.edge_list();
        let fragmentations = [
            (
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
            ),
            (
                "center",
                center_based(
                    &el,
                    &CenterConfig {
                        fragments: 3,
                        ..Default::default()
                    },
                )
                .unwrap()
                .fragmentation,
            ),
        ];
        for (family, frag) in fragmentations {
            let label = format!("seed {seed} {family}");
            // Full closure, a keyhole of one source and one of ~n/3.
            let mut rng = StdRng::seed_from_u64(0xB01C ^ seed);
            let mut pick = |k: usize| -> Option<Vec<NodeId>> {
                Some(
                    (0..k)
                        .map(|_| NodeId(rng.gen_index(g.nodes) as u32))
                        .collect(),
                )
            };
            let mut selections = vec![None, pick(1), pick(g.nodes / 3)];
            // Keyholes around the source block of 8 (one short, one full,
            // one over, two and one over): distinct ids in shuffled order,
            // so several fragments, each with a duplicate and an id
            // outside the graph.
            let mut order: Vec<u32> = (0..g.nodes as u32).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_index(i + 1));
            }
            for k in [7, 8, 9, 17] {
                let mut keyhole: Vec<NodeId> = order[..k].iter().map(|&v| NodeId(v)).collect();
                keyhole.extend([keyhole[k / 2], NodeId(g.nodes as u32 + 3)]);
                selections.push(Some(keyhole));
            }
            let mut seminaive = None;
            for symmetric in [true, false] {
                let union = FragmentPartition::new(&frag, symmetric).union_relation();
                let build =
                    || EngineSnapshot::build(frag.clone(), symmetric, EngineConfig::default());
                let warm = build();
                for sources in &selections {
                    let label = format!(
                        "{label} symmetric={symmetric} sources={:?}",
                        sources.as_ref().map(Vec::len)
                    );
                    let (expected, _) = tc::seminaive_closure(&union, sources.as_deref());
                    if sources.is_none() {
                        let (naive, _) = tc::naive_closure(&union, None);
                        assert_eq!(expected.rows(), naive.rows(), "{label}: naive");
                    }
                    // The counters are the formula's: per source, whatever
                    // the thread count.
                    let counters = |s: &MaterializeStats| {
                        let t = &s.tc;
                        let folds = (s.exchanged_tuples, s.kept_local, t.tuples_generated);
                        (folds, s.fragment_sweeps, s.border_rows)
                    };
                    let mut counted = Vec::new();
                    for threads in [1usize, 2, 3] {
                        let config = MaterializeConfig {
                            threads,
                            sources: sources.clone(),
                            ..Default::default()
                        };
                        let runs = [build().materialize(&config), warm.materialize(&config)];
                        for (epoch, run) in ["cold", "warm"].into_iter().zip(runs) {
                            let (bulk, stats) = run.unwrap();
                            let label = format!("{label}: {epoch} with {threads} threads");
                            if epoch == "cold" {
                                counted.push(counters(&stats));
                            }
                            assert_eq!(bulk.rows(), expected.rows(), "{label}");
                            assert_eq!(stats.tc.result_tuples, expected.len(), "{label}");
                            assert!(stats.rounds <= 1, "{label}: {stats}");
                            assert_eq!(stats.network_sweeps, 0, "{label}");
                        }
                        // The same call again reads what the epoch holds.
                        let (_, again) = warm.materialize(&config).unwrap();
                        assert_eq!(again.fragment_sweeps, 0, "{label}: {again}");
                        assert_eq!(again.border_rows, 0, "{label}: {again}");
                        counted.push(counters(&again));
                    }
                    // The build made the hub: B² 32-bit words, no slack.
                    let nb = warm.complementary().border_count();
                    assert_eq!(warm.memory_bytes().hub, nb * nb * 4, "{label}");
                    // Cold, warm; cold, warm; … for threads 1, 2 and 3.
                    for (i, c) in counted.iter().enumerate().skip(2) {
                        assert_eq!(
                            *c,
                            counted[i % 2],
                            "{label}: counters at {} threads",
                            1 + i / 2
                        );
                    }
                    if sources.is_none() && symmetric == g.symmetric {
                        seminaive = Some(expected);
                    }
                }
            }
            let seminaive = seminaive.expect("the generator's own orientation ran");

            // Oracle: the materialized tuples are the per-query engine's
            // distances on sampled distinct pairs.
            let mut sys = System::builder()
                .graph(&g)
                .fragmenter(Fragmenter::Prebuilt(frag))
                .build()
                .unwrap();
            let mut rng = StdRng::seed_from_u64(0xD15C ^ (seed << 3));
            let mut pairs = Vec::new();
            while pairs.len() < 12 {
                let x = NodeId(rng.gen_index(g.nodes) as u32);
                let y = NodeId(rng.gen_index(g.nodes) as u32);
                if x != y {
                    pairs.push((x, y));
                }
            }
            let requests: Vec<QueryRequest> = pairs
                .iter()
                .map(|&(x, y)| QueryRequest::new(x, y))
                .collect();
            let batch = sys.query_batch(&requests);
            for (&(x, y), answer) in pairs.iter().zip(&batch.answers) {
                assert_eq!(
                    seminaive.cost_of(x, y),
                    answer.cost,
                    "{label}: materialized {x}->{y} vs query_batch"
                );
            }
        }
    }
}

/// Two materializations of different keyholes on one cold epoch at once
/// fill the sites' exit sets and the border rows side by side:
/// both give the semi-naive closure of their sources, and a third call
/// over both keyholes then fills no row and sweeps nothing.
#[test]
fn concurrent_cold_keyholes_share_one_epoch() {
    use discset::relation::bulk::{FragmentPartition, MaterializeConfig};

    for seed in 0..4u64 {
        let g = generate_transportation(
            &TransportationConfig {
                clusters: 4,
                nodes_per_cluster: 12,
                target_edges_per_cluster: 26,
                ..TransportationConfig::default()
            },
            seed,
        );
        let frag = linear_sweep(
            &g.edge_list(),
            &LinearConfig {
                fragments: 4,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        let union = FragmentPartition::new(&frag, true).union_relation();
        let snap = EngineSnapshot::build(frag, true, EngineConfig::default());
        let keyholes: [Vec<NodeId>; 2] = [
            (0..g.nodes as u32).step_by(3).map(NodeId).collect(),
            (1..g.nodes as u32).step_by(4).map(NodeId).collect(),
        ];
        std::thread::scope(|scope| {
            let calls: Vec<_> = (keyholes.iter().enumerate())
                .map(|(i, sources)| {
                    let snap = &snap;
                    scope.spawn(move || {
                        let config = MaterializeConfig {
                            threads: 1 + i,
                            sources: Some(sources.clone()),
                            ..Default::default()
                        };
                        snap.materialize(&config).unwrap().0
                    })
                })
                .collect();
            for (call, sources) in calls.into_iter().zip(&keyholes) {
                let (want, _) = tc::seminaive_closure(&union, Some(sources));
                assert_eq!(call.join().unwrap().rows(), want.rows(), "seed {seed}");
            }
        });
        let both: Vec<NodeId> = keyholes.concat();
        let config = MaterializeConfig {
            sources: Some(both.clone()),
            ..MaterializeConfig::with_threads(2)
        };
        let (bulk, stats) = snap.materialize(&config).unwrap();
        let (want, _) = tc::seminaive_closure(&union, Some(&both));
        assert_eq!(bulk.rows(), want.rows(), "seed {seed}");
        let swept = stats.network_sweeps + stats.fragment_sweeps;
        assert_eq!((stats.border_rows, swept), (0, 0), "seed {seed}: {stats}");
        assert!(snap.border_rows().filled() > 0);
    }
}

/// Generators are deterministic per seed.
#[test]
fn generator_determinism() {
    for seed in (0..500).step_by(7) {
        let cfg = GeneralConfig {
            nodes: 30,
            target_edges: 60,
            ..Default::default()
        };
        let a = generate_general(&cfg, seed);
        let b = generate_general(&cfg, seed);
        assert_eq!(a.connections, b.connections, "seed {seed}");
        assert_eq!(a.coords, b.coords, "seed {seed}");
    }
}
