//! Update maintenance contracts, pinned on hand-built topologies:
//! adversarial deletions (bridges, disconnection-set crossings, last
//! parallel edges) must carry the right label and stay exact,
//! and the `UpdateReport` / `BatchStats` accounting must produce *exact*
//! counts on a 3-fragment line graph — on both backends.

use discset::closure::{baseline, ComplementaryInfo};
use discset::fragment::Fragmentation;
use discset::graph::{CsrGraph, Edge, NodeId};
use discset::{
    Backend, FallbackReason, Fragmenter, NetworkUpdate, QueryRequest, System, TcEngine,
    UpdateReport,
};

fn n(i: u32) -> NodeId {
    NodeId(i)
}

fn edges(list: &[(u32, u32, u64)]) -> Vec<Edge> {
    list.iter()
        .map(|&(a, b, c)| Edge::new(NodeId(a), NodeId(b), c))
        .collect()
}

/// Deploy both backends over an explicit fragment list.
fn both_backends(node_count: usize, fragments: Vec<Vec<Edge>>) -> Vec<System> {
    [Backend::Inline, Backend::SiteThreads]
        .into_iter()
        .map(|backend| {
            let frag =
                Fragmentation::new(node_count, fragments.clone(), vec![vec![]; fragments.len()]);
            System::builder()
                .network(node_count, fragments.concat())
                .fragmenter(Fragmenter::Prebuilt(frag))
                .backend(backend)
                .build()
                .unwrap()
        })
        .collect()
}

/// The current global closure graph of a maintained system (union of its
/// fragments, symmetric expansion).
fn current_graph(sys: &System) -> CsrGraph {
    let connections: Vec<Edge> = sys
        .fragmentation()
        .fragments()
        .iter()
        .flat_map(|f| f.edges().iter().copied())
        .collect();
    CsrGraph::from_edges(
        sys.fragmentation().node_count(),
        &discset::gen::output::expand_connections(&connections, true),
    )
}

fn assert_exact_everywhere(sys: &mut System, label: &str) {
    let csr = current_graph(sys);
    let count = csr.node_count() as u32;
    for x in 0..count {
        for y in 0..count {
            assert_eq!(
                sys.shortest_path(n(x), n(y)).cost,
                baseline::shortest_path_cost(&csr, n(x), n(y)),
                "{label}: {x}->{y}"
            );
        }
    }
}

/// Line 0-1-2-3-4-5-6 (unit costs) in three fragments sharing nodes 2
/// and 4 — the hand-built accounting fixture. Site 1 stores exactly two
/// shortcuts: (2,4) and (4,2).
fn three_fragment_line() -> Vec<Vec<Edge>> {
    vec![
        edges(&[(0, 1, 1), (1, 2, 1)]),
        edges(&[(2, 3, 1), (3, 4, 1)]),
        edges(&[(4, 5, 1), (5, 6, 1)]),
    ]
}

/// Like the line, but fragment 1 has a costlier parallel corridor
/// 2-8-4, so deleting 3-4 re-routes instead of disconnecting.
fn line_with_detour() -> Vec<Vec<Edge>> {
    vec![
        edges(&[(0, 1, 1), (1, 2, 1)]),
        edges(&[(2, 3, 1), (3, 4, 1), (2, 8, 2), (8, 4, 2)]),
        edges(&[(4, 5, 1), (5, 6, 1)]),
    ]
}

#[test]
fn bridge_deletion_disconnects_and_falls_back() {
    for mut sys in both_backends(7, three_fragment_line()) {
        let name = sys.backend_name();
        assert!(sys.connected(n(0), n(6)), "{name}: connected before");
        // (3,4) is a bridge: its removal cuts fragments 0/1 off from 2.
        let report = sys
            .update(&NetworkUpdate::Remove {
                src: n(3),
                dst: n(4),
                owner: 1,
            })
            .unwrap();
        assert!(report.full_recompute, "{name}: {report:?}");
        assert_eq!(
            report.fallback_reason,
            Some(FallbackReason::Disconnected),
            "{name}"
        );
        // The owner, whose table lost (2,4) and (4,2): sites 0 and 2 hold
        // one border each, so their tables cannot change.
        assert_eq!(
            report.sites_touched, 1,
            "{name}: the owner plus the sites whose table changed"
        );
        assert_eq!(report.tuples_shipped, 0, "{name}: site 1 has none left");
        assert!(!sys.connected(n(0), n(6)), "{name}: disconnected after");
        assert!(sys.connected(n(0), n(3)), "{name}: left half intact");
        assert!(sys.connected(n(4), n(6)), "{name}: right half intact");
        assert_exact_everywhere(&mut sys, name);
    }
}

/// An insert can *add* a tuple: a border pair that a disconnecting
/// delete dropped — or that a one-way network never joined — and a later
/// insert connects is written at *every* site holding both borders, not
/// just closed locally at the insert's owner.
///
/// Fragments `{0-1, 2-3}` / `{1-4, 4-2}` / `{3-5}`: borders 1 and 2 are
/// joined through node 4 only. Symmetric: remove `4-2` (a `Disconnected`
/// recompute drops the pair everywhere), put it back. One-way: the tuple
/// `4 -> 2` starts out as `2 -> 4`, so `1` has never reached `2`; insert
/// it. Either way `0 -> 3` costs 4 afterwards (it answered `None` before
/// the tables were dense), and every site's table equals a from-scratch
/// precompute entry for entry.
#[test]
fn an_insert_restores_a_border_pair_at_every_site_holding_it() {
    let deploy = |fragments: &[Vec<Edge>], symmetric, backend| {
        let frag = Fragmentation::new(6, fragments.to_vec(), vec![vec![]; fragments.len()]);
        System::builder()
            .network(6, fragments.concat())
            .symmetric(symmetric)
            .fragmenter(Fragmenter::Prebuilt(frag))
            .backend(backend)
            .build()
            .unwrap()
    };
    let back = NetworkUpdate::Insert {
        edge: Edge::new(n(4), n(2), 1),
        owner: 1,
    };
    for symmetric in [true, false] {
        for backend in [Backend::Inline, Backend::SiteThreads] {
            let label = format!("symmetric={symmetric} {backend:?}");
            let through_4 = if symmetric { (4, 2, 1) } else { (2, 4, 1) };
            let fragments = [
                edges(&[(0, 1, 1), (2, 3, 1)]),
                edges(&[(1, 4, 1), through_4]),
                edges(&[(3, 5, 1)]),
            ];
            let mut sys = deploy(&fragments, symmetric, backend);
            if symmetric {
                let gone = NetworkUpdate::Remove {
                    src: n(4),
                    dst: n(2),
                    owner: 1,
                };
                let report = sys.update(&gone).unwrap();
                assert_eq!(
                    report.fallback_reason,
                    Some(FallbackReason::Disconnected),
                    "{label}"
                );
            }
            assert_eq!(sys.shortest_path(n(0), n(3)).cost, None, "{label}: cut");

            let report = sys.update(&back).unwrap();
            assert!(!report.full_recompute, "{label}: {report:?}");
            assert!(report.shortcuts_improved > 0, "{label}: {report:?}");
            assert_eq!(
                report.sites_touched, 2,
                "{label}: the owner and site 0, which holds both borders"
            );
            assert_eq!(sys.shortest_path(n(0), n(3)).cost, Some(4), "{label}");
            assert_eq!(sys.shortest_path(n(0), n(5)).cost, Some(5), "{label}");

            let now: Vec<Vec<Edge>> = (sys.fragmentation().fragments().iter())
                .map(|f| f.edges().to_vec())
                .collect();
            let fresh = deploy(&now, symmetric, Backend::Inline);
            let (kept, rebuilt) = (sys.engine().complementary(), fresh.engine().complementary());
            assert_shortcuts_equal(kept, rebuilt, 3, &label);
        }
    }
}

/// A 9 x 3 unit grid cut into three fragments by columns: 0..=3, 3..=6
/// and 6..=8 (node `r * 9 + c`). Columns 3 and 6 are the borders; the
/// vertical edges of column 3 belong to fragment 1, yet both their
/// endpoints lie in fragment 0's node set too. One-way networks keep the
/// rightward and downward directions only.
fn column_grid() -> Vec<Vec<Edge>> {
    let mut sets = vec![Vec::new(); 3];
    for r in 0..3u32 {
        for c in 0..9u32 {
            let owner = (c / 3).min(2) as usize;
            if c + 1 < 9 {
                sets[owner].push(Edge::unit(n(r * 9 + c), n(r * 9 + c + 1)));
            }
            if r + 1 < 3 {
                sets[owner].push(Edge::unit(n(r * 9 + c), n((r + 1) * 9 + c)));
            }
        }
    }
    sets
}

fn deploy_columns(fragments: &[Vec<Edge>], symmetric: bool) -> System {
    let frag = Fragmentation::new(27, fragments.to_vec(), vec![vec![]; fragments.len()]);
    System::builder()
        .network(27, fragments.concat())
        .symmetric(symmetric)
        .fragmenter(Fragmenter::Prebuilt(frag))
        .build()
        .unwrap()
}

/// The hub and every site's shortcuts equal a precompute on the
/// system's current relation, entry for entry.
fn assert_tables_rebuilt(sys: &System, symmetric: bool, label: &str) {
    let now: Vec<Vec<Edge>> = (sys.fragmentation().fragments().iter())
        .map(|f| f.edges().to_vec())
        .collect();
    let fresh = deploy_columns(&now, symmetric);
    let (kept, rebuilt) = (sys.engine().complementary(), fresh.engine().complementary());
    assert_shortcuts_equal(kept, rebuilt, now.len(), label);
}

/// `kept` holds `rebuilt`'s hub, and each of its `sites` the same
/// shortcuts.
fn assert_shortcuts_equal(
    kept: &ComplementaryInfo,
    rebuilt: &ComplementaryInfo,
    sites: usize,
    label: &str,
) {
    assert_eq!(kept.hub(), rebuilt.hub(), "{label}: hub");
    for f in 0..sites {
        let (a, b) = (kept.shortcuts(f), rebuilt.shortcuts(f));
        assert_eq!(
            a.collect::<Vec<_>>(),
            b.collect::<Vec<_>>(),
            "{label}: site {f}"
        );
    }
}

/// Crossing edits between borders that two fragments hold keep every
/// table equal to a rebuild's. Fragment 1 inserts `X = 3 -> 21` (column
/// 3, top to bottom, cost 1), whose endpoints fragment 0 holds too: a
/// skeleton edge of its own, patched in without re-sweeping either
/// fragment. Fragment 0 inserts a costly twin `Y` of the vertical
/// `12 -> 21` and deletes it again. Deleting `X` must then re-derive the
/// skeleton pair `3 -> 21` from what remains — the fragments' interior
/// paths and the connections between the two borders: a patch that left
/// `X`'s skeleton edge of cost 1 in place leaves the `(3, 21)` entries
/// wrong. (The test's name is the staleness rule it pinned before the
/// skeleton was kept.)
#[test]
fn a_fallback_resweeps_every_fragment_holding_both_endpoints() {
    let x = Edge::new(n(3), n(21), 1);
    let y = Edge::new(n(12), n(21), 7);
    let steps = [
        (NetworkUpdate::Insert { edge: x, owner: 1 }, false),
        (NetworkUpdate::Insert { edge: y, owner: 0 }, false),
        (
            NetworkUpdate::Remove {
                src: y.src,
                dst: y.dst,
                owner: 0,
            },
            true,
        ),
        (
            NetworkUpdate::Remove {
                src: x.src,
                dst: x.dst,
                owner: 1,
            },
            true,
        ),
    ];
    for symmetric in [true, false] {
        let mut sys = deploy_columns(&column_grid(), symmetric);
        for (step, (update, falls_back)) in steps.iter().enumerate() {
            let label = format!("symmetric={symmetric} step {step} {update:?}");
            let report = sys.update(update).unwrap();
            assert!(report.effective(), "{label}");
            assert_eq!(report.full_recompute, *falls_back, "{label}: {report:?}");
            if *falls_back {
                assert_eq!(
                    report.fallback_reason,
                    Some(FallbackReason::DisconnectionSetCrossing),
                    "{label}"
                );
            }
            assert_tables_rebuilt(&sys, symmetric, &label);
        }
        assert_eq!(
            sys.shortest_path(n(3), n(21)).cost,
            Some(2),
            "symmetric={symmetric}"
        );
    }
}

/// A crossing delete that changes no table still changed the network: it is
/// effective, touches its owner (whose edges changed) and ships nothing,
/// and every table — with every site but the owner's — stays the `Arc`
/// the previous epoch holds.
#[test]
fn a_fallback_that_changes_no_table_touches_only_its_owner() {
    use discset::graph::ScratchDijkstra;
    use std::sync::Arc;

    for symmetric in [true, false] {
        let mut fragments = column_grid();
        // A costly twin of the vertical 12 -> 21, owned by fragment 0:
        // deleting it falls back (both endpoints are borders) and changes
        // no distance.
        fragments[0].push(Edge::new(n(12), n(21), 7));
        let sys = deploy_columns(&fragments, symmetric);
        let before = sys.engine().clone();
        let mut after = before.clone();
        let cow = after
            .maintain_cow(
                &NetworkUpdate::Remove {
                    src: n(12),
                    dst: n(21),
                    owner: 0,
                },
                &mut ScratchDijkstra::new(),
            )
            .unwrap();
        let label = format!("symmetric={symmetric}: {cow:?}");
        assert!(
            cow.report.full_recompute && cow.report.effective(),
            "{label}"
        );
        assert_eq!(cow.report.sites_touched, 1, "{label}");
        assert_eq!(cow.report.tuples_shipped, 0, "{label}");
        assert!(cow.shortcut_sites.is_empty(), "{label}");
        assert_eq!(cow.touched_sites, [0], "{label}");
        assert!(
            Arc::ptr_eq(before.hub_handle(), after.hub_handle()),
            "{label}"
        );
        for f in 0..3 {
            let site_shared = Arc::ptr_eq(before.site_handle(f), after.site_handle(f));
            assert_eq!(site_shared, f != 0, "{label}: site {f}");
        }
        assert_eq!(after.fragmentation().fragment(0).edge_count(), 15);
    }
}

/// A delete that affects no source closes nothing, so it leaves the
/// precompute stats as the build wrote them: a costly chord `3 - 21` of
/// column 3, inserted and deleted again, carries no shortest route.
#[test]
fn a_delete_that_closes_no_source_keeps_the_precompute_stats() {
    for symmetric in [true, false] {
        let mut sys = deploy_columns(&column_grid(), symmetric);
        let built = sys.engine().precompute_stats();
        assert!(built.sources_closed > 0 && built.total_ns() > 0);
        let chord = Edge::new(n(3), n(21), 1000);
        let updates = [
            NetworkUpdate::Insert {
                edge: chord,
                owner: 1,
            },
            NetworkUpdate::Remove {
                src: chord.src,
                dst: chord.dst,
                owner: 1,
            },
        ];
        for update in &updates {
            let report = sys.update(update).unwrap();
            let label = format!("symmetric={symmetric} {update:?}: {report:?}");
            assert_eq!(report.shortcuts_repaired, 0, "{label}");
            assert_eq!(sys.engine().precompute_stats(), built, "{label}");
        }
    }
}

/// A crossing delete re-closes the skeleton only from the sources the
/// repair rule names and rewrites only their rows: every site outside
/// `touched_sites` stays the `Arc` the previous epoch holds, and every
/// table equals a rebuild entry for entry. Deleting the vertical
/// `3 -> 12` of column 3 also lengthens rows neither endpoint owns — on
/// the symmetric grid `21 -> 3` goes from 2 to 4 — so closing only the
/// deleted edge's endpoints leaves a wrong entry behind.
#[test]
fn a_crossing_delete_rewrites_only_the_rows_it_affects() {
    use discset::graph::ScratchDijkstra;
    use std::sync::Arc;

    for symmetric in [true, false] {
        let sys = deploy_columns(&column_grid(), symmetric);
        let before = sys.engine().clone();
        let mut after = before.clone();
        let cow = after
            .maintain_cow(
                &NetworkUpdate::Remove {
                    src: n(3),
                    dst: n(12),
                    owner: 1,
                },
                &mut ScratchDijkstra::new(),
            )
            .unwrap();
        let label = format!("symmetric={symmetric}: {cow:?}");
        assert_eq!(
            cow.report.fallback_reason,
            Some(FallbackReason::DisconnectionSetCrossing),
            "{label}"
        );
        assert_eq!(cow.touched_sites, [0, 1], "{label}");
        for f in 0..3 {
            let shared = Arc::ptr_eq(before.site_handle(f), after.site_handle(f));
            assert_eq!(shared, !cow.touched_sites.contains(&f), "{label}: site {f}");
        }
        let now: Vec<Vec<Edge>> = (after.fragmentation().fragments().iter())
            .map(|f| f.edges().to_vec())
            .collect();
        let fresh = deploy_columns(&now, symmetric);
        let rebuilt = fresh.engine().complementary();
        assert_shortcuts_equal(after.complementary(), rebuilt, 3, &label);
    }
}

#[test]
fn disconnection_set_crossing_deletion_falls_back() {
    // Fragment 1 connects border 2 to border 4 both via node 3 and via a
    // direct (costlier) edge; deleting the direct edge changes nothing
    // except removing a DS-crossing connection.
    let mut frags = three_fragment_line();
    frags[1].push(Edge::new(n(2), n(4), 5));
    for mut sys in both_backends(7, frags) {
        let name = sys.backend_name();
        let report = sys
            .update(&NetworkUpdate::Remove {
                src: n(2),
                dst: n(4),
                owner: 1,
            })
            .unwrap();
        assert!(report.full_recompute, "{name}: {report:?}");
        assert_eq!(
            report.fallback_reason,
            Some(FallbackReason::DisconnectionSetCrossing),
            "{name}"
        );
        assert_eq!(sys.shortest_path(n(0), n(6)).cost, Some(6), "{name}");
        assert_exact_everywhere(&mut sys, name);
    }
}

#[test]
fn deleting_last_parallel_edge_between_border_nodes_falls_back() {
    // Fragment 1 is nothing but two parallel 2-4 connections; removing
    // the pair (one call removes every matching tuple) severs the only
    // crossing and must report the crossing fallback, with answers exact.
    let frags = vec![
        edges(&[(0, 1, 1), (1, 2, 1)]),
        edges(&[(2, 4, 5), (2, 4, 7)]),
        edges(&[(4, 5, 1), (5, 6, 1)]),
    ];
    for mut sys in both_backends(7, frags) {
        let name = sys.backend_name();
        assert_eq!(sys.shortest_path(n(0), n(6)).cost, Some(9), "{name}");
        let report = sys
            .update(&NetworkUpdate::Remove {
                src: n(2),
                dst: n(4),
                owner: 1,
            })
            .unwrap();
        assert!(report.full_recompute, "{name}: {report:?}");
        assert_eq!(
            report.fallback_reason,
            Some(FallbackReason::DisconnectionSetCrossing),
            "{name}"
        );
        assert!(!sys.connected(n(2), n(4)), "{name}: crossing severed");
        assert!(!sys.connected(n(0), n(6)), "{name}");
        assert_exact_everywhere(&mut sys, name);
    }
}

#[test]
fn exact_accounting_on_the_line_graph() {
    // Fragment 1 stores the only shortcuts: (2,4) and (4,2), both cost 2.
    for mut sys in both_backends(9, line_with_detour()) {
        let name = sys.backend_name();
        assert_eq!(sys.shortest_path(n(0), n(6)).cost, Some(6), "{name}");

        // Deleting 3-4 re-routes through 2-8-4: both shortcuts repaired
        // upward (2 -> 4), only site 1 touched, its 2 tuples reshipped.
        let report = sys
            .update(&NetworkUpdate::Remove {
                src: n(3),
                dst: n(4),
                owner: 1,
            })
            .unwrap();
        assert_eq!(
            report,
            UpdateReport {
                shortcuts_improved: 0,
                shortcuts_repaired: 2,
                full_recompute: false,
                fallback_reason: None,
                sites_touched: 1,
                tuples_shipped: 2,
            },
            "{name}: delete accounting"
        );
        assert_eq!(sys.shortest_path(n(0), n(6)).cost, Some(8), "{name}");

        // Re-inserting 3-4 improves both shortcuts back down (4 -> 2).
        let report = sys
            .update(&NetworkUpdate::Insert {
                edge: Edge::new(n(3), n(4), 1),
                owner: 1,
            })
            .unwrap();
        assert_eq!(
            report,
            UpdateReport {
                shortcuts_improved: 2,
                shortcuts_repaired: 0,
                full_recompute: false,
                fallback_reason: None,
                sites_touched: 1,
                tuples_shipped: 2,
            },
            "{name}: insert accounting"
        );
        assert_eq!(sys.shortest_path(n(0), n(6)).cost, Some(6), "{name}");

        // Removing a connection that never existed is a no-op.
        let report = sys
            .update(&NetworkUpdate::Remove {
                src: n(0),
                dst: n(6),
                owner: 0,
            })
            .unwrap();
        assert_eq!(report, UpdateReport::noop(), "{name}");
        assert_exact_everywhere(&mut sys, name);
    }
}

#[test]
fn non_fallback_sequences_never_recompute() {
    // A delete/insert ping-pong on the detour line: every step must stay
    // incremental (the acceptance contract for non-fallback deletes).
    for mut sys in both_backends(9, line_with_detour()) {
        let name = sys.backend_name();
        for round in 0..4 {
            let report = sys
                .update(&NetworkUpdate::Remove {
                    src: n(3),
                    dst: n(4),
                    owner: 1,
                })
                .unwrap();
            assert!(!report.full_recompute, "{name} round {round}: {report:?}");
            let report = sys
                .update(&NetworkUpdate::Insert {
                    edge: Edge::new(n(3), n(4), 1),
                    owner: 1,
                })
                .unwrap();
            assert!(!report.full_recompute, "{name} round {round}: {report:?}");
        }
        assert_eq!(sys.shortest_path(n(0), n(6)).cost, Some(6), "{name}");
    }
}

#[test]
fn batch_stats_amortization_exact_counts() {
    // Three cross-line queries share one fragment pair: 1 plan computed
    // + 2 reused; each runs its two endpoint subqueries and reads its
    // one interior segment off the hub: 6 segments computed + 3 reused,
    // amortization (2 + 3) / (3 + 9) = 5/12.
    for mut sys in both_backends(7, three_fragment_line()) {
        let name = sys.backend_name();
        let requests: Vec<QueryRequest> = [(0u32, 6u32), (1, 5), (0, 5)]
            .iter()
            .map(|&(a, b)| QueryRequest::new(n(a), n(b)))
            .collect();
        let batch = sys.query_batch(&requests);
        assert_eq!(batch.answers[0].cost, Some(6), "{name}");
        assert_eq!(batch.answers[1].cost, Some(4), "{name}");
        assert_eq!(batch.answers[2].cost, Some(5), "{name}");
        let s = batch.stats;
        assert_eq!(s.queries, 3, "{name}");
        assert_eq!(s.plans_computed, 1, "{name}");
        assert_eq!(s.plans_reused, 2, "{name}");
        assert_eq!(s.segments_computed, 6, "{name}");
        assert_eq!(s.segments_reused, 3, "{name}");
        assert!(
            (s.amortization() - 5.0 / 12.0).abs() < 1e-12,
            "{name}: amortization {}",
            s.amortization()
        );

        // The plan outlives the batch that enumerated it: a later single
        // query reads it and the hub and runs its two endpoint subqueries
        // only — amortization (1 + 1) / (1 + 1 + 2).
        let single = sys.query_batch(&[QueryRequest::new(n(0), n(6))]);
        assert_eq!(single.stats.plans_computed, 0, "{name}");
        assert_eq!(single.stats.plans_reused, 1, "{name}");
        assert_eq!(single.stats.segments_computed, 2, "{name}");
        assert_eq!(single.stats.segments_reused, 1, "{name}");
        assert_eq!(single.stats.amortization(), 0.5, "{name}");

        // An update to the middle fragment rebuilds that site; the next
        // query still asks its endpoint sites only and reads the interior
        // segment off the maintained hub. Node sets did not change, so
        // its plan is still the one enumerated above.
        sys.update(&NetworkUpdate::Insert {
            edge: Edge::new(n(2), n(4), 5),
            owner: 1,
        })
        .unwrap();
        let after = sys.query_batch(&[QueryRequest::new(n(0), n(6))]);
        assert_eq!(after.answers[0].cost, Some(6), "{name}");
        assert_eq!(after.stats.plans_computed, 0, "{name}");
        assert_eq!(after.stats.segments_computed, 2, "{name}");
        assert_eq!(after.stats.segments_reused, 1, "{name}");

        // An empty batch divides nothing by nothing and reports 0.
        let empty = sys.query_batch(&[]);
        assert_eq!(empty.stats.amortization(), 0.0, "{name}");
        assert!(empty.answers.is_empty(), "{name}");
    }
}

/// The epoch's materialization follows every write, on a symmetric and
/// a one-way network: the column grid plus a pendant node 27 behind
/// node 8, through interior, crossing and disconnecting writes and their
/// undoing. Every epoch holds the hub. After each write the relation
/// equals semi-naive closure of the edited relation, the hub equals a
/// fresh build's, and it is the previous epoch's `Arc` exactly when the
/// write changed none of its entries.
#[test]
fn materialize_follows_every_write_and_every_epoch_holds_the_exact_hub() {
    use discset::closure::{EngineConfig, EngineSnapshot};
    use discset::relation::bulk::FragmentPartition;
    use discset::relation::tc::seminaive_closure;
    use discset::MaterializeConfig;
    use std::sync::Arc;

    let insert = |src, dst, cost, owner| NetworkUpdate::Insert {
        edge: Edge::new(n(src), n(dst), cost),
        owner,
    };
    let remove = |src, dst, owner| NetworkUpdate::Remove {
        src: n(src),
        dst: n(dst),
        owner,
    };
    let writes = [
        // Interior: a costly twin of 4 - 5 changes no distance.
        insert(4, 5, 50, 1),
        remove(4, 5, 1),
        // The twin's delete took 4 - 5 as well; put it back.
        insert(4, 5, 1, 1),
        // Interior: 4 - 23 shortens border pairs (3 -> 24 and more).
        insert(4, 23, 1, 1),
        remove(4, 23, 1),
        // Crossing: both endpoints are borders of fragments 0 and 1.
        insert(3, 21, 1, 1),
        remove(3, 21, 1),
        // Disconnecting: the pendant's only edge, then back.
        remove(8, 27, 2),
        insert(8, 27, 3, 2),
    ];
    for symmetric in [true, false] {
        let mut fragments = column_grid();
        fragments[2].push(Edge::new(n(8), n(27), 3));
        let frag = Fragmentation::new(28, fragments, vec![vec![]; 3]);
        let mut snap = EngineSnapshot::build(frag, symmetric, EngineConfig::default());
        let mut scratch = discset::graph::ScratchDijkstra::new();
        let full = MaterializeConfig::with_threads(2);
        let (mut kept, mut changed) = (0, 0);
        for (i, write) in writes.iter().enumerate() {
            let label = format!("symmetric={symmetric} write {i} {write:?}");
            snap.materialize(&full).unwrap();
            let hub = Arc::clone(snap.hub_handle());
            assert!(snap.border_rows().filled() > 0, "{label}");
            let cow = snap.maintain_cow(write, &mut scratch).unwrap();
            let now = Arc::clone(snap.hub_handle());
            let fresh = EngineSnapshot::build(
                snap.fragmentation().clone(),
                symmetric,
                EngineConfig::default(),
            );
            assert_eq!(now, *fresh.hub_handle(), "{label}");
            let same = *hub == *now;
            assert_eq!(Arc::ptr_eq(&hub, &now), same, "{label}");
            if same {
                kept += 1;
            } else {
                changed += 1;
            }
            // The border rows fold every site's exit sets: a write that
            // replaced a site empties them, and the next call refills.
            let replaced = !cow.touched_sites.is_empty();
            assert!(replaced, "{label}: every write here changes a fragment");
            assert_eq!(snap.border_rows().filled(), 0, "{label}");
            assert_eq!(snap.memory_bytes().border_rows, 0, "{label}");
            let (bulk, stats) = snap.materialize(&full).unwrap();
            assert!(Arc::ptr_eq(&now, snap.hub_handle()), "{label}: closed");
            assert!(stats.border_rows > 0, "{label}: {stats}");
            assert_eq!(stats.border_rows, snap.border_rows().filled(), "{label}");
            let union = FragmentPartition::new(snap.fragmentation(), symmetric).union_relation();
            let (want, _) = seminaive_closure(&union, None);
            assert_eq!(bulk.rows(), want.rows(), "{label}");
        }
        assert!(
            kept > 0 && changed > 0,
            "symmetric={symmetric}: {kept} kept, {changed} changed"
        );
    }
}
