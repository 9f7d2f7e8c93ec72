//! Partitioning the edge relation by a [`Fragmentation`].
//!
//! §2.1: "R is partitioned into n fragments R_i, each stored at a
//! different computer or processor." The fragmentation already owns the
//! edge partition; this module lifts it into per-fragment *relations*
//! (symmetric expansion included, both directions staying with the owner
//! fragment so the partition property is preserved on the expanded
//! relation) and precomputes the border structure the materializer
//! joins through: which fragments contain each node, and each fragment's
//! border node set (the union of its disconnection sets with every
//! neighbour).

use ds_fragment::{FragmentId, Fragmentation};
use ds_graph::{CsrGraph, Edge, NodeId};

use crate::relation::Relation;
use crate::tuple::PathTuple;

/// The edge relation split per fragment, plus the shared-node structure
/// the materializer joins fragment sweeps through.
#[derive(Clone, Debug)]
pub struct FragmentPartition {
    node_count: usize,
    symmetric: bool,
    relations: Vec<Relation<PathTuple>>,
    /// Sorted border nodes per fragment (nodes shared with ≥ 1 other
    /// fragment — the union of the fragment's disconnection sets).
    borders: Vec<Vec<NodeId>>,
    /// Fragments containing each node (≥ 2 entries ⇔ border node).
    members: Vec<Vec<FragmentId>>,
}

impl FragmentPartition {
    /// Partition by `frag`'s edge ownership. With `symmetric`, each
    /// connection tuple also contributes its reverse direction (to the
    /// same fragment), mirroring how the closure graph is built.
    pub fn new(frag: &Fragmentation, symmetric: bool) -> Self {
        let relations = frag
            .fragments()
            .iter()
            .map(|f| {
                let mut rows: Vec<PathTuple> =
                    Vec::with_capacity(f.edge_count() * if symmetric { 2 } else { 1 });
                for e in f.edges() {
                    rows.push(PathTuple::from(*e));
                    if symmetric && !e.is_loop() {
                        rows.push(PathTuple::from(e.reversed()));
                    }
                }
                Relation::from_rows(format!("R{}", f.id()), rows)
            })
            .collect();

        let mut members: Vec<Vec<FragmentId>> = vec![Vec::new(); frag.node_count()];
        for f in frag.fragments() {
            for &v in f.nodes() {
                members[v.index()].push(f.id());
            }
        }
        let borders = frag
            .fragments()
            .iter()
            .map(|f| {
                f.nodes()
                    .iter()
                    .copied()
                    .filter(|v| members[v.index()].len() >= 2)
                    .collect()
            })
            .collect();

        FragmentPartition {
            node_count: frag.node_count(),
            symmetric,
            relations,
            borders,
            members,
        }
    }

    /// Number of nodes in the underlying graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Whether every connection tuple was expanded in both directions,
    /// i.e. the union relation equals its own transpose.
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// Number of fragments.
    pub fn fragment_count(&self) -> usize {
        self.relations.len()
    }

    /// One fragment's edge relation.
    pub fn relation(&self, id: FragmentId) -> &Relation<PathTuple> {
        &self.relations[id]
    }

    /// All per-fragment edge relations.
    pub fn relations(&self) -> &[Relation<PathTuple>] {
        &self.relations
    }

    /// Sorted border nodes of fragment `id`.
    pub fn borders(&self, id: FragmentId) -> &[NodeId] {
        &self.borders[id]
    }

    /// Fragments containing `v` (≥ 2 entries means `v` is shared).
    pub fn fragments_of(&self, v: NodeId) -> &[FragmentId] {
        &self.members[v.index()]
    }

    /// Whether `v` sits on fragment `id`'s border (shared with another
    /// fragment).
    pub fn is_border(&self, id: FragmentId, v: NodeId) -> bool {
        self.borders[id].binary_search(&v).is_ok()
    }

    /// The whole (expanded) edge relation as one union — the input the
    /// sequential baselines run on, guaranteed tuple-equal to what the
    /// fragmented engine sees.
    pub fn union_relation(&self) -> Relation<PathTuple> {
        let mut rows = Vec::with_capacity(self.relations.iter().map(Relation::len).sum());
        for rel in &self.relations {
            rows.extend_from_slice(rel.rows());
        }
        Relation::from_rows("R", rows)
    }

    /// [`FragmentPartition::union_relation`] as a graph: every fragment's
    /// edges over the global node ids.
    pub fn union_graph(&self) -> CsrGraph {
        let tuples = self.relations.iter().flat_map(Relation::rows);
        let edges: Vec<Edge> = tuples.map(|&t| Edge::from(t)).collect();
        CsrGraph::from_edges(self.node_count, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::Edge;

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs
            .iter()
            .map(|&(a, b)| Edge::unit(NodeId(a), NodeId(b)))
            .collect()
    }

    /// Path 0-1-2-3-4 split into [0-1, 1-2] and [2-3, 3-4]: DS = {2}.
    fn path_split() -> Fragmentation {
        Fragmentation::new(
            5,
            vec![edges(&[(0, 1), (1, 2)]), edges(&[(2, 3), (3, 4)])],
            vec![vec![], vec![]],
        )
    }

    #[test]
    fn symmetric_expansion_stays_with_the_owner() {
        let p = FragmentPartition::new(&path_split(), true);
        assert_eq!(p.fragment_count(), 2);
        assert_eq!(p.relation(0).len(), 4, "2 connections x 2 directions");
        assert_eq!(p.relation(1).len(), 4);
        assert_eq!(p.union_relation().len(), 8);
        assert_eq!(p.union_graph().edge_count(), 8);
        assert!(p.is_symmetric());
        let directed = FragmentPartition::new(&path_split(), false);
        assert_eq!(directed.relation(0).len(), 2);
        assert!(!directed.is_symmetric());
    }

    #[test]
    fn borders_are_the_shared_nodes() {
        let p = FragmentPartition::new(&path_split(), true);
        assert_eq!(p.borders(0), &[NodeId(2)]);
        assert_eq!(p.borders(1), &[NodeId(2)]);
        assert!(p.is_border(0, NodeId(2)) && p.is_border(1, NodeId(2)));
        assert!(!p.is_border(0, NodeId(1)));
        assert_eq!(p.fragments_of(NodeId(2)), &[0, 1]);
        assert_eq!(p.fragments_of(NodeId(0)), &[0]);
    }

    #[test]
    fn three_way_shared_node() {
        // Star: node 0 shared by three fragments.
        let frag = Fragmentation::new(
            4,
            vec![edges(&[(0, 1)]), edges(&[(0, 2)]), edges(&[(0, 3)])],
            vec![vec![], vec![], vec![]],
        );
        let p = FragmentPartition::new(&frag, true);
        assert_eq!(p.fragments_of(NodeId(0)), &[0, 1, 2]);
        for id in 0..3 {
            assert_eq!(p.borders(id), &[NodeId(0)]);
        }
    }
}
