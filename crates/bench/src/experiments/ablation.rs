//! Ablations for the design choices DESIGN.md calls out: the
//! crossing-edge policy, the center-growth variant, and the complementary
//! information scope.

use ds_closure::baseline;
use ds_closure::complementary::{ComplementaryInfo, ComplementaryScope};
use ds_closure::{EngineConfig, EngineSnapshot};
use ds_fragment::bond_energy::{bond_energy, BondEnergyConfig};
use ds_fragment::center::{center_based, CenterConfig, Growth};
use ds_fragment::linear::{linear_sweep, LinearConfig};
use ds_fragment::{CrossingPolicy, Fragmentation};
use ds_gen::{generate_transportation, TransportationConfig};
use ds_graph::{NodeId, ScratchDijkstra};

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
    /// Precomputed shortcut tuples (storage cost).
    pub shortcut_tuples: usize,
    /// Queries answered identically to the global baseline.
    pub correct: usize,
    pub queries: usize,
}

/// Complementary-scope ablation on a loosely connected fragmentation
/// (linear sweep): the paper's per-DS scope must already be exact there,
/// at lower storage than the per-fragment-border scope.
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

    [
        ComplementaryScope::PerDisconnectionSet,
        ComplementaryScope::PerFragmentBorder,
    ]
    .into_iter()
    .map(|scope| {
        let comp = ComplementaryInfo::compute(&frag, true, scope);
        let engine = EngineSnapshot::build(
            frag.clone(),
            true,
            EngineConfig {
                scope,
                ..EngineConfig::default()
            },
        );
        let mut scratch = ScratchDijkstra::new();
        let correct = queries
            .iter()
            .filter(|&&(x, y)| {
                engine.shortest_path(x, y, &mut scratch).cost
                    == baseline::shortest_path_cost(&csr, x, y)
            })
            .count();
        ScopeRow {
            scope: format!("{scope:?}"),
            shortcut_tuples: comp.pair_count(),
            correct,
            queries: queries.len(),
        }
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
}
