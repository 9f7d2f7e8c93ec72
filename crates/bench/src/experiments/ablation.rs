//! Ablations for the design choices DESIGN.md calls out: the
//! crossing-edge policy, the center-growth variant, and the complementary
//! information scope.

use std::collections::BTreeSet;

use ds_closure::baseline;
use ds_closure::{EngineConfig, EngineSnapshot};
use ds_fragment::bond_energy::{bond_energy, BondEnergyConfig};
use ds_fragment::center::{center_based, CenterConfig, Growth};
use ds_fragment::linear::{linear_sweep, LinearConfig};
use ds_fragment::{CrossingPolicy, Fragmentation, Membership};
use ds_gen::{generate_transportation, TransportationConfig};
use ds_graph::{NodeId, ScratchDijkstra, INFINITE_COST};

use super::tables::bea_transportation;
use super::{average_row, AveragedRow};

/// Crossing-edge policy ablation: BEA on transportation graphs with
/// `LowerBlock` vs `Balance` ownership.
pub fn crossing_policy(seeds: u64) -> Vec<AveragedRow> {
    let cfg = TransportationConfig::table1();
    [CrossingPolicy::LowerBlock, CrossingPolicy::Balance]
        .into_iter()
        .map(|policy| {
            let frags: Vec<Fragmentation> = (0..seeds)
                .map(|s| {
                    let g = generate_transportation(&cfg, s);
                    let bea = BondEnergyConfig {
                        crossing_policy: policy,
                        ..bea_transportation()
                    };
                    bond_energy(&g.edge_list(), &bea)
                        .expect("non-empty")
                        .fragmentation
                })
                .collect();
            average_row(&format!("bond-energy / {policy:?}"), &frags)
        })
        .collect()
}

/// Center-growth ablation: the two §3.1 variants.
pub fn center_growth(seeds: u64) -> Vec<AveragedRow> {
    let cfg = TransportationConfig::table1();
    [Growth::RoundRobin, Growth::SmallestFirst]
        .into_iter()
        .map(|growth| {
            let frags: Vec<Fragmentation> = (0..seeds)
                .map(|s| {
                    let g = generate_transportation(&cfg, s);
                    center_based(
                        &g.edge_list(),
                        &CenterConfig {
                            fragments: 4,
                            growth,
                            ..Default::default()
                        },
                    )
                    .expect("non-empty")
                    .fragmentation
                })
                .collect();
            average_row(&format!("center-based / {growth:?}"), &frags)
        })
        .collect()
}

/// One row of the complementary-scope ablation.
#[derive(Clone, Debug)]
pub struct ScopeRow {
    pub scope: String,
    /// Shortcut tuples the scope counts (the paper's storage cost).
    pub shortcut_tuples: usize,
    /// Queries answered identically to the global baseline.
    pub correct: usize,
    pub queries: usize,
}

/// The paper's count of the complementary information (§2.1: stored per
/// disconnection set, at both sites): per site, the finite hub entries
/// over the ordered pairs within a `DS_ij` next to it, a pair within
/// two such sets once. The engine counts every pair of a site's borders
/// ([`ds_closure::ComplementaryInfo::pair_count`]), a superset.
pub fn per_ds_shortcut_count(snap: &EngineSnapshot) -> usize {
    let membership = Membership::new(snap.fragmentation());
    let borders = membership.borders();
    let id = |v: &NodeId| borders.binary_search(v).expect("a border");
    let hub = snap.hub_handle();
    let mut counted = vec![BTreeSet::new(); snap.site_count()];
    for ((i, j), nodes) in membership.disconnection_sets() {
        let ids: Vec<usize> = nodes.iter().map(id).collect();
        for &u in &ids {
            for &v in ids
                .iter()
                .filter(|&&v| v != u && hub.cost(u, v) < INFINITE_COST)
            {
                counted[i].insert((u, v));
                counted[j].insert((u, v));
            }
        }
    }
    counted.iter().map(BTreeSet::len).sum()
}

/// Complementary-scope ablation on a loosely connected fragmentation
/// (linear sweep): what the paper's per-DS rule and the engine's
/// per-fragment-border rule count on one engine, whose answers are
/// exact whichever count is reported.
pub fn complementary_scope(seed: u64) -> Vec<ScopeRow> {
    let cfg = TransportationConfig::table1();
    let g = generate_transportation(&cfg, seed);
    let frag = linear_sweep(
        &g.edge_list(),
        &LinearConfig {
            fragments: 4,
            ..Default::default()
        },
    )
    .expect("coords present")
    .fragmentation;
    let csr = g.closure_graph();

    let queries: Vec<(NodeId, NodeId)> = (0..30u32)
        .map(|i| (NodeId(i * 3 % 100), NodeId((i * 7 + 50) % 100)))
        .collect();

    let engine = EngineSnapshot::build(frag, true, EngineConfig::default());
    let mut scratch = ScratchDijkstra::new();
    let correct = queries
        .iter()
        .filter(|&&(x, y)| {
            engine.shortest_path(x, y, &mut scratch).cost
                == baseline::shortest_path_cost(&csr, x, y)
        })
        .count();
    [
        ("PerDisconnectionSet", per_ds_shortcut_count(&engine)),
        ("PerFragmentBorder", engine.complementary().pair_count()),
    ]
    .into_iter()
    .map(|(scope, shortcut_tuples)| ScopeRow {
        scope: scope.to_string(),
        shortcut_tuples,
        correct,
        queries: queries.len(),
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_policies_both_partition() {
        let rows = crossing_policy(2);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.f > 0.0, "{}: empty fragments", r.algorithm);
        }
    }

    #[test]
    fn growth_variants_reported() {
        let rows = center_growth(2);
        assert_eq!(rows.len(), 2);
        // Both aim at 4 fragments.
        for r in &rows {
            assert!((r.fragments - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn per_ds_scope_is_exact_on_loose_fragmentations() {
        let rows = complementary_scope(3);
        let per_ds = &rows[0];
        let per_border = &rows[1];
        assert_eq!(per_ds.correct, per_ds.queries, "paper scope exact on trees");
        assert_eq!(per_border.correct, per_border.queries);
        assert!(
            per_ds.shortcut_tuples <= per_border.shortcut_tuples,
            "per-DS stores no more than per-border"
        );
    }

    /// The scope ablation `repro` prints, at its seed.
    #[test]
    fn the_scope_ablation_reads_920_against_1514_tuples() {
        let rows: Vec<String> = (complementary_scope(1).iter())
            .map(|r| {
                format!(
                    "{}: {} {}/{}",
                    r.scope, r.shortcut_tuples, r.correct, r.queries
                )
            })
            .collect();
        assert_eq!(
            rows,
            [
                "PerDisconnectionSet: 920 30/30",
                "PerFragmentBorder: 1514 30/30"
            ]
        );
    }

    /// Path 0-…-6 in three fragments sharing nodes 2 and 4: site 1's
    /// borders lie in two disconnection sets, {2} and {4}, so the paper
    /// counts no pair where the engine counts 2 - 4 each way.
    #[test]
    fn the_per_ds_count_leaves_cross_ds_pairs_out() {
        let path = |pairs: &[(u32, u32)]| -> Vec<ds_graph::Edge> {
            (pairs.iter())
                .map(|&(a, b)| ds_graph::Edge::unit(NodeId(a), NodeId(b)))
                .collect()
        };
        let sets = vec![
            path(&[(0, 1), (1, 2)]),
            path(&[(2, 3), (3, 4)]),
            path(&[(4, 5), (5, 6)]),
        ];
        let frag = Fragmentation::new(7, sets, vec![Vec::new(); 3]);
        let snap = EngineSnapshot::build(frag, true, EngineConfig::default());
        assert_eq!(per_ds_shortcut_count(&snap), 0);
        assert_eq!(snap.complementary().pair_count(), 2);
    }
}
