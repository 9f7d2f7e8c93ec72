//! Fragmentation quality metrics — the columns of Tables 1–3.
//!
//! §4.2: "The characteristics of the fragmentations that we show are:
//! average size of the fragments F (i.e., number of edges), average size
//! of the disconnection sets DS (i.e., number of nodes), average deviation
//! ΔF from F, and average deviation ΔDS from DS."

use std::fmt;

use crate::fragmentation::{Fragmentation, Membership};

/// Summary statistics of one fragmentation.
#[derive(Clone, Debug, PartialEq)]
pub struct FragmentationMetrics {
    /// Number of fragments produced (may differ from the requested count
    /// for the bond-energy and linear algorithms — §4.2.1).
    pub fragment_count: usize,
    /// Number of non-empty disconnection sets (links of G').
    pub ds_count: usize,
    /// F̄ — mean fragment size in edges.
    pub avg_fragment_edges: f64,
    /// ΔF — mean absolute deviation of fragment size.
    pub dev_fragment_edges: f64,
    /// D̄S — mean disconnection set size in nodes (non-empty sets only).
    pub avg_ds_nodes: f64,
    /// ΔDS — mean absolute deviation of disconnection set size.
    pub dev_ds_nodes: f64,
    /// Whether the fragmentation graph is acyclic ("loosely connected").
    pub loosely_connected: bool,
    /// Total border nodes (nodes in ≥ 2 fragments).
    pub border_nodes: usize,
}

impl FragmentationMetrics {
    /// Compute the metrics of a fragmentation.
    pub fn compute(frag: &Fragmentation) -> Self {
        let sizes: Vec<f64> = frag
            .fragments()
            .iter()
            .map(|f| f.edge_count() as f64)
            .collect();
        let membership = Membership::new(frag);
        let ds = membership.disconnection_sets();
        let ds_sizes: Vec<f64> = ds.values().map(|v| v.len() as f64).collect();

        FragmentationMetrics {
            fragment_count: sizes.len(),
            ds_count: ds_sizes.len(),
            avg_fragment_edges: mean(&sizes),
            dev_fragment_edges: mean_abs_dev(&sizes),
            avg_ds_nodes: mean(&ds_sizes),
            dev_ds_nodes: mean_abs_dev(&ds_sizes),
            loosely_connected: membership.fragmentation_graph().is_acyclic(),
            border_nodes: membership.borders().len(),
        }
    }
}

impl fmt::Display for FragmentationMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "F={:.1} DS={:.1} dF={:.1} dDS={:.1} ({} fragments, {} DS, {})",
            self.avg_fragment_edges,
            self.avg_ds_nodes,
            self.dev_fragment_edges,
            self.dev_ds_nodes,
            self.fragment_count,
            self.ds_count,
            if self.loosely_connected {
                "acyclic"
            } else {
                "cyclic"
            },
        )
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Mean absolute deviation from the mean — the paper's "average
/// deviation".
fn mean_abs_dev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).abs()).sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::{Edge, NodeId};

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs
            .iter()
            .map(|&(a, b)| Edge::unit(NodeId(a), NodeId(b)))
            .collect()
    }

    #[test]
    fn metrics_of_balanced_path_split() {
        // 0-1-2-3-4 split into two 2-edge fragments sharing node 2.
        let frag = Fragmentation::new(
            5,
            vec![edges(&[(0, 1), (1, 2)]), edges(&[(2, 3), (3, 4)])],
            vec![vec![], vec![]],
        );
        let m = frag.metrics();
        assert_eq!(m.fragment_count, 2);
        assert_eq!(m.ds_count, 1);
        assert_eq!(m.avg_fragment_edges, 2.0);
        assert_eq!(m.dev_fragment_edges, 0.0);
        assert_eq!(m.avg_ds_nodes, 1.0);
        assert_eq!(m.dev_ds_nodes, 0.0);
        assert!(m.loosely_connected);
        assert_eq!(m.border_nodes, 1);
    }

    #[test]
    fn metrics_of_unbalanced_split() {
        // Sizes 1 and 3 -> F̄ = 2, ΔF = 1.
        let frag = Fragmentation::new(
            5,
            vec![edges(&[(0, 1)]), edges(&[(1, 2), (2, 3), (3, 4)])],
            vec![vec![], vec![]],
        );
        let m = frag.metrics();
        assert_eq!(m.avg_fragment_edges, 2.0);
        assert_eq!(m.dev_fragment_edges, 1.0);
    }

    #[test]
    fn display_is_compact() {
        let frag = Fragmentation::new(2, vec![edges(&[(0, 1)])], vec![vec![]]);
        let s = frag.metrics().to_string();
        assert!(s.contains("F=1.0"));
        assert!(s.contains("acyclic"));
    }

    #[test]
    fn mean_abs_dev_hand_check() {
        assert_eq!(mean_abs_dev(&[1.0, 3.0]), 1.0);
        assert_eq!(mean_abs_dev(&[5.0]), 0.0);
        assert_eq!(mean_abs_dev(&[]), 0.0);
    }
}
