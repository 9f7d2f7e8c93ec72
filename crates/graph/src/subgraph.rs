//! Induced-subgraph views with a dense local id space.
//!
//! Fragment-local computations (the skeleton precompute's border sweeps,
//! per-fragment measures) want to run over the fragment's node set only,
//! with scratch arrays sized to the fragment rather than the whole
//! network. A [`SubgraphView`] relabels a node subset to `0..k` and keeps
//! the induced edges in CSR form, plus the global↔local id mapping.

use crate::types::{Edge, NodeId};
use crate::CsrGraph;

/// The subgraph of a [`CsrGraph`] induced by a node subset, relabeled to
/// a dense local id space (`0..len()`); locals are assigned in ascending
/// global order.
#[derive(Clone, Debug)]
pub struct SubgraphView {
    graph: CsrGraph,
    /// Sorted, deduplicated global ids; index = local id.
    globals: Vec<NodeId>,
}

impl SubgraphView {
    /// Build the induced subgraph of `g` on `nodes`: every edge of `g`
    /// with both endpoints in the set, relabeled.
    pub fn induced(g: &CsrGraph, nodes: &[NodeId]) -> Self {
        let mut globals: Vec<NodeId> = nodes.to_vec();
        globals.sort_unstable();
        globals.dedup();
        let mut edges = Vec::new();
        for (li, &v) in globals.iter().enumerate() {
            for (t, c) in g.neighbors(v) {
                if let Ok(lt) = globals.binary_search(&t) {
                    edges.push(Edge::new(NodeId::from_index(li), NodeId::from_index(lt), c));
                }
            }
        }
        SubgraphView {
            graph: CsrGraph::from_edges(globals.len(), &edges),
            globals,
        }
    }

    /// The relabeled graph (node ids are local).
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Number of nodes in the view.
    pub fn len(&self) -> usize {
        self.globals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.globals.is_empty()
    }

    /// Local id of a global node, if it is in the view.
    pub fn local_of(&self, global: NodeId) -> Option<NodeId> {
        self.globals
            .binary_search(&global)
            .ok()
            .map(NodeId::from_index)
    }

    /// The sorted global node ids backing the view.
    pub fn globals(&self) -> &[NodeId] {
        &self.globals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Path 0-1-2-3-4 (directed both ways) over 5 nodes.
    fn path5() -> CsrGraph {
        let mut edges = Vec::new();
        for i in 0..4u32 {
            edges.push(Edge::unit(n(i), n(i + 1)));
            edges.push(Edge::unit(n(i + 1), n(i)));
        }
        CsrGraph::from_edges(5, &edges)
    }

    #[test]
    fn induced_keeps_only_inner_edges() {
        let g = path5();
        let view = SubgraphView::induced(&g, &[n(1), n(2), n(3)]);
        assert_eq!(view.len(), 3);
        assert_eq!(view.graph().node_count(), 3);
        // Edges 1-2 and 2-3 in both directions; 0-1 and 3-4 are cut.
        assert_eq!(view.graph().edge_count(), 4);
        assert_eq!(view.globals()[0], n(1));
        assert_eq!(view.local_of(n(3)), Some(n(2)));
        assert_eq!(view.local_of(n(4)), None);
    }

    #[test]
    fn local_distances_match_global_within_the_set() {
        let g = path5();
        let view = SubgraphView::induced(&g, &[n(1), n(2), n(3)]);
        let local_src = view.local_of(n(1)).unwrap();
        let sp = dijkstra::single_source(view.graph(), local_src);
        assert_eq!(sp.cost(view.local_of(n(3)).unwrap()), Some(2));
    }

    #[test]
    fn unsorted_and_duplicated_input_is_normalized() {
        let g = path5();
        let view = SubgraphView::induced(&g, &[n(3), n(1), n(3), n(2)]);
        assert_eq!(view.globals(), &[n(1), n(2), n(3)]);
    }

    #[test]
    fn empty_view_is_fine() {
        let g = path5();
        let view = SubgraphView::induced(&g, &[]);
        assert!(view.is_empty());
        assert_eq!(view.graph().edge_count(), 0);
    }
}
