//! Compressed sparse row (CSR) directed graph.
//!
//! The indexed, read-optimized form of the connection relation. All query
//! kernels (Dijkstra, BFS, semi-naive closure) run on this; the
//! fragmentation algorithms mostly work on [`crate::EdgeList`]s and convert
//! when they need traversals.

use crate::error::GraphError;
use crate::types::{Coord, Cost, Edge, NodeId};

/// A directed graph in CSR form, with optional node coordinates.
///
/// Parallel edges and self-loops are allowed (the relation may contain
/// them); algorithms that care filter them out.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `targets`/`costs` for node `v`.
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    costs: Vec<Cost>,
    /// Optional node coordinates (required by the linear sweep and the
    /// distributed-centers refinement).
    coords: Option<Vec<Coord>>,
}

impl CsrGraph {
    /// Build from an edge list over nodes `0..node_count`.
    ///
    /// # Panics
    /// Panics if an edge references a node outside `0..node_count`; use
    /// [`CsrGraph::try_from_edges`] for a fallible build.
    pub fn from_edges(node_count: usize, edges: &[Edge]) -> Self {
        Self::try_from_edges(node_count, edges).expect("edge references out-of-range node")
    }

    /// Fallible CSR construction; counting sort by source node, O(V + E).
    pub fn try_from_edges(node_count: usize, edges: &[Edge]) -> Result<Self, GraphError> {
        for e in edges {
            if e.src.index() >= node_count {
                return Err(GraphError::NodeOutOfRange {
                    node: e.src,
                    node_count,
                });
            }
            if e.dst.index() >= node_count {
                return Err(GraphError::NodeOutOfRange {
                    node: e.dst,
                    node_count,
                });
            }
        }
        let mut offsets = vec![0u32; node_count + 1];
        for e in edges {
            offsets[e.src.index() + 1] += 1;
        }
        for i in 0..node_count {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![NodeId(0); edges.len()];
        let mut costs = vec![0 as Cost; edges.len()];
        for e in edges {
            let slot = cursor[e.src.index()] as usize;
            targets[slot] = e.dst;
            costs[slot] = e.cost;
            cursor[e.src.index()] += 1;
        }
        Ok(CsrGraph {
            offsets,
            targets,
            costs,
            coords: None,
        })
    }

    /// Build a unit-cost graph from raw `(src, dst)` pairs — the
    /// memory-lean path for very large synthetic graphs (no 16-byte
    /// [`Edge`] intermediary; a million-node, multi-million-edge graph
    /// stays within a few flat u32/u64 vectors). Same counting-sort
    /// construction as [`CsrGraph::try_from_edges`].
    ///
    /// # Panics
    /// Panics if a pair references a node outside `0..node_count`.
    pub fn from_unit_pairs(node_count: usize, pairs: &[(u32, u32)]) -> Self {
        let n = node_count as u32;
        assert!(
            pairs.iter().all(|&(s, d)| s < n && d < n),
            "pair references out-of-range node"
        );
        let mut offsets = vec![0u32; node_count + 1];
        for &(s, _) in pairs {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..node_count {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![NodeId(0); pairs.len()];
        for &(s, d) in pairs {
            let slot = cursor[s as usize] as usize;
            targets[slot] = NodeId(d);
            cursor[s as usize] += 1;
        }
        CsrGraph {
            offsets,
            targets,
            costs: vec![1; pairs.len()],
            coords: None,
        }
    }

    /// Attach node coordinates. Fails if the table length differs from the
    /// node count.
    pub fn with_coords(mut self, coords: Vec<Coord>) -> Result<Self, GraphError> {
        if coords.len() != self.node_count() {
            return Err(GraphError::CoordLengthMismatch {
                coords: coords.len(),
                node_count: self.node_count(),
            });
        }
        self.coords = Some(coords);
        Ok(self)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (relation cardinality).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Heap bytes held (offsets, targets, costs and coordinates).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.len() * size_of::<u32>()
            + self.targets.len() * (size_of::<NodeId>() + size_of::<Cost>())
            + self.coords.as_ref().map_or(0, |c| c.len()) * size_of::<Coord>()
    }

    /// Out-degree of `v` — the paper's `grade(v)` for symmetric graphs.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Outgoing `(target, cost)` pairs of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Cost)> + '_ {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.costs[lo..hi].iter().copied())
    }

    /// Outgoing target nodes of `v` (no costs).
    #[inline]
    pub fn out_targets(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.targets[lo..hi]
    }

    /// All nodes, in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// All edges, grouped by source.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |v| {
            self.neighbors(v)
                .map(move |(dst, cost)| Edge { src: v, dst, cost })
        })
    }

    /// The graph with every edge reversed (same coordinates): in-degrees
    /// counted over `targets`, then every edge scattered to its target's
    /// row in one pass — no intermediate edge list.
    pub fn reversed(&self) -> CsrGraph {
        let n = self.node_count();
        let mut offsets = vec![0u32; n + 1];
        for t in &self.targets {
            offsets[t.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![NodeId(0); self.targets.len()];
        let mut costs = vec![0 as Cost; self.costs.len()];
        for v in self.nodes() {
            for (t, c) in self.neighbors(v) {
                let slot = &mut cursor[t.index()];
                targets[*slot as usize] = v;
                costs[*slot as usize] = c;
                *slot += 1;
            }
        }
        CsrGraph {
            offsets,
            targets,
            costs,
            coords: self.coords.clone(),
        }
    }

    /// This graph with one entry dropped per edge of `remove` (matched on
    /// source, target and cost, so a parallel twin survives) and every
    /// edge of `add` appended to its source's row. Rows no edit touches
    /// are copied wholesale: O(V + E) memory traffic, no sort.
    ///
    /// # Panics
    /// Panics if an edge of `add` references a node outside the graph.
    pub fn edited(&self, add: &[Edge], remove: &[Edge]) -> CsrGraph {
        let n = self.node_count();
        assert!(
            add.iter().all(|e| e.src.index() < n && e.dst.index() < n),
            "edge references out-of-range node"
        );
        let mut rows: Vec<NodeId> = add.iter().chain(remove).map(|e| e.src).collect();
        rows.sort_unstable();
        rows.dedup();
        let len = self.edge_count() + add.len();
        let mut out = CsrGraph {
            offsets: Vec::with_capacity(n + 1),
            targets: Vec::with_capacity(len),
            costs: Vec::with_capacity(len),
            coords: self.coords.clone(),
        };
        let mut next = 0;
        for &v in &rows {
            out.copy_rows(self, next, v.index());
            out.offsets.push(out.targets.len() as u32);
            let mut drop: Vec<(NodeId, Cost)> = (remove.iter())
                .filter(|e| e.src == v)
                .map(|e| (e.dst, e.cost))
                .collect();
            for (t, c) in self.neighbors(v) {
                match drop.iter().position(|&d| d == (t, c)) {
                    Some(i) => {
                        drop.swap_remove(i);
                    }
                    None => {
                        out.targets.push(t);
                        out.costs.push(c);
                    }
                }
            }
            debug_assert!(
                drop.is_empty(),
                "removed edges {drop:?} of {v} not in the graph"
            );
            for e in add.iter().filter(|e| e.src == v) {
                out.targets.push(e.dst);
                out.costs.push(e.cost);
            }
            next = v.index() + 1;
        }
        out.copy_rows(self, next, n);
        out.offsets.push(out.targets.len() as u32);
        out
    }

    /// Append the rows `from..to` of `src` unchanged, their offsets
    /// shifted to where they land here.
    fn copy_rows(&mut self, src: &CsrGraph, from: usize, to: usize) {
        let (lo, hi) = (src.offsets[from] as usize, src.offsets[to] as usize);
        let shift = (self.targets.len() as u32).wrapping_sub(lo as u32);
        let moved = src.offsets[from..to].iter().map(|o| o.wrapping_add(shift));
        self.offsets.extend(moved);
        self.targets.extend_from_slice(&src.targets[lo..hi]);
        self.costs.extend_from_slice(&src.costs[lo..hi]);
    }

    /// Node coordinates, if attached.
    pub fn coords(&self) -> Option<&[Coord]> {
        self.coords.as_deref()
    }

    /// Coordinate of one node, if coordinates are attached.
    pub fn coord(&self, v: NodeId) -> Option<Coord> {
        self.coords.as_ref().map(|c| c[v.index()])
    }

    /// True if for every edge `(u, v, c)` the edge `(v, u, c)` also exists —
    /// the transportation graphs of the paper are symmetric in this sense.
    pub fn is_symmetric(&self) -> bool {
        use std::collections::HashMap;
        let mut want: HashMap<(NodeId, NodeId, Cost), i64> = HashMap::new();
        for e in self.edges() {
            if e.is_loop() {
                continue;
            }
            *want.entry((e.src, e.dst, e.cost)).or_insert(0) += 1;
            *want.entry((e.dst, e.src, e.cost)).or_insert(0) -= 1;
        }
        want.values().all(|&v| v == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> CsrGraph {
        // 0 -> 1 -> 2 -> 3, plus a parallel edge 0 -> 1.
        CsrGraph::from_edges(
            4,
            &[
                Edge::new(NodeId(0), NodeId(1), 1),
                Edge::new(NodeId(1), NodeId(2), 2),
                Edge::new(NodeId(2), NodeId(3), 3),
                Edge::new(NodeId(0), NodeId(1), 10),
            ],
        )
    }

    #[test]
    fn counts_and_degrees() {
        let g = path_graph();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.out_degree(NodeId(3)), 0);
    }

    #[test]
    fn neighbors_and_edges_roundtrip() {
        let g = path_graph();
        let nbrs: Vec<_> = g.neighbors(NodeId(0)).collect();
        assert_eq!(nbrs.len(), 2);
        assert!(nbrs.contains(&(NodeId(1), 1)));
        assert!(nbrs.contains(&(NodeId(1), 10)));
        assert_eq!(g.edges().count(), 4);
        // Rebuilding from edges() yields an equal graph.
        let edges: Vec<Edge> = g.edges().collect();
        let g2 = CsrGraph::from_edges(4, &edges);
        assert_eq!(g, g2);
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let err = CsrGraph::try_from_edges(2, &[Edge::unit(NodeId(0), NodeId(2))]).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: NodeId(2),
                node_count: 2
            }
        );
    }

    fn sorted_edges(g: &CsrGraph) -> Vec<(NodeId, NodeId, Cost)> {
        let mut out: Vec<_> = g.edges().map(|e| (e.src, e.dst, e.cost)).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn reversed_flips_all_edges() {
        let g = path_graph();
        let r = g.reversed();
        assert_eq!(r.edge_count(), g.edge_count());
        assert_eq!(r.out_degree(NodeId(1)), 2); // two reversed parallel edges
        assert_eq!(r.out_degree(NodeId(0)), 0);
        let flipped: Vec<Edge> = g.edges().map(|e| e.reversed()).collect();
        assert_eq!(r, CsrGraph::from_edges(4, &flipped), "rows in source order");
        assert_eq!(r.reversed(), g, "the transpose of the transpose");
        let coords = vec![Coord::new(1.0, 2.0); 4];
        let with = g.with_coords(coords.clone()).unwrap().reversed();
        assert_eq!(with.coords(), Some(&coords[..]));
    }

    #[test]
    fn edited_drops_one_entry_per_removal_and_appends_inserts() {
        // Parallel 0 -> 1 edges of cost 1 and 10, plus a twin of the cheap one.
        let mut edges: Vec<Edge> = path_graph().edges().collect();
        edges.push(Edge::new(NodeId(0), NodeId(1), 1));
        let g = CsrGraph::from_edges(4, &edges);
        let remove = [
            Edge::new(NodeId(0), NodeId(1), 1),
            Edge::new(NodeId(2), NodeId(3), 3),
        ];
        let add = [
            Edge::new(NodeId(3), NodeId(0), 4),
            Edge::new(NodeId(0), NodeId(2), 2),
        ];
        let got = g.edited(&add, &remove);
        let mut want: Vec<Edge> = vec![
            Edge::new(NodeId(0), NodeId(1), 1), // the twin survives
            Edge::new(NodeId(0), NodeId(1), 10),
            Edge::new(NodeId(1), NodeId(2), 2),
        ];
        want.extend(add);
        assert_eq!(
            sorted_edges(&got),
            sorted_edges(&CsrGraph::from_edges(4, &want))
        );
        assert_eq!(
            got.out_targets(NodeId(0)),
            [NodeId(1), NodeId(1), NodeId(2)]
        );
        assert_eq!(got.out_degree(NodeId(2)), 0);
        // No edit at all is a copy, and undoing an edit restores the rows.
        assert_eq!(g.edited(&[], &[]), g);
        let back = got.edited(&remove, &add);
        assert_eq!(sorted_edges(&back), sorted_edges(&g));
    }

    #[test]
    fn coords_attach_and_validate() {
        let g = path_graph();
        let coords = vec![Coord::new(0.0, 0.0); 4];
        let g = g.with_coords(coords).unwrap();
        assert!(g.coords().is_some());
        assert_eq!(g.coord(NodeId(2)), Some(Coord::new(0.0, 0.0)));
        let g2 = path_graph();
        assert!(matches!(
            g2.with_coords(vec![Coord::default(); 3]),
            Err(GraphError::CoordLengthMismatch { .. })
        ));
    }

    #[test]
    fn symmetry_detection() {
        let asym = path_graph();
        assert!(!asym.is_symmetric());
        let sym = CsrGraph::from_edges(
            2,
            &[
                Edge::new(NodeId(0), NodeId(1), 4),
                Edge::new(NodeId(1), NodeId(0), 4),
            ],
        );
        assert!(sym.is_symmetric());
        // Symmetry requires matching costs.
        let cost_mismatch = CsrGraph::from_edges(
            2,
            &[
                Edge::new(NodeId(0), NodeId(1), 4),
                Edge::new(NodeId(1), NodeId(0), 5),
            ],
        );
        assert!(!cost_mismatch.is_symmetric());
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn self_loops_allowed() {
        let g = CsrGraph::from_edges(1, &[Edge::unit(NodeId(0), NodeId(0))]);
        assert_eq!(g.edge_count(), 1);
        assert!(g.is_symmetric(), "self-loops are ignored by symmetry check");
    }

    #[test]
    fn unit_pairs_match_edge_construction() {
        let pairs = [(0u32, 1u32), (1, 2), (0, 2), (2, 0)];
        let via_pairs = CsrGraph::from_unit_pairs(3, &pairs);
        let edges: Vec<Edge> = pairs
            .iter()
            .map(|&(s, d)| Edge::unit(NodeId(s), NodeId(d)))
            .collect();
        assert_eq!(via_pairs, CsrGraph::from_edges(3, &edges));
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn unit_pairs_reject_out_of_range() {
        CsrGraph::from_unit_pairs(2, &[(0, 5)]);
    }
}
