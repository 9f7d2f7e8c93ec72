//! The edge-list ("relation") view of a graph.
//!
//! The fragmentation algorithms of §3 are specified as manipulations of an
//! edge set `E` — edges are repeatedly removed from `E` and added to
//! fragments `E_k`. [`EdgeList`] is that working set, with the incidence
//! index the inner loops need.

use crate::types::{Coord, Cost, Edge, NodeId};
use crate::CsrGraph;

/// A mutable multiset of directed edges over nodes `0..node_count`, with
/// optional coordinates, supporting the operations Fig. 4 and Fig. 7 of
/// the paper perform on `E`.
#[derive(Clone, Debug)]
pub struct EdgeList {
    node_count: usize,
    edges: Vec<Edge>,
    /// `alive[i]` — whether `edges[i]` is still in the working set.
    alive: Vec<bool>,
    /// For each node, indices into `edges` of incident (in- or out-) edges.
    incidence: Vec<Vec<u32>>,
    alive_count: usize,
    coords: Option<Vec<Coord>>,
}

impl EdgeList {
    /// Build a working edge set.
    pub fn new(node_count: usize, edges: Vec<Edge>) -> Self {
        let mut incidence = vec![Vec::new(); node_count];
        for (i, e) in edges.iter().enumerate() {
            assert!(e.src.index() < node_count, "edge {e} out of range");
            assert!(e.dst.index() < node_count, "edge {e} out of range");
            incidence[e.src.index()].push(i as u32);
            if e.src != e.dst {
                incidence[e.dst.index()].push(i as u32);
            }
        }
        let alive_count = edges.len();
        EdgeList {
            node_count,
            alive: vec![true; edges.len()],
            edges,
            incidence,
            alive_count,
            coords: None,
        }
    }

    /// Build from a CSR graph (copies edges; carries coordinates over).
    pub fn from_graph(g: &CsrGraph) -> Self {
        let mut el = EdgeList::new(g.node_count(), g.edges().collect());
        el.coords = g.coords().map(|c| c.to_vec());
        el
    }

    /// Attach coordinates (must match node count).
    pub fn with_coords(mut self, coords: Vec<Coord>) -> Self {
        assert_eq!(
            coords.len(),
            self.node_count,
            "coordinate table length mismatch"
        );
        self.coords = Some(coords);
        self
    }

    /// Total nodes (alive or not — node set is fixed).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges still in the working set.
    pub fn remaining(&self) -> usize {
        self.alive_count
    }

    /// True if no edges remain (`E = ∅`, the outer-loop exit of Figs. 4/7).
    pub fn is_exhausted(&self) -> bool {
        self.alive_count == 0
    }

    /// Node coordinates, if present.
    pub fn coords(&self) -> Option<&[Coord]> {
        self.coords.as_deref()
    }

    /// The edge with internal index `i` (alive or not).
    pub fn edge(&self, i: u32) -> Edge {
        self.edges[i as usize]
    }

    /// Whether working-set entry `i` is still alive.
    pub fn is_alive(&self, i: u32) -> bool {
        self.alive[i as usize]
    }

    /// Indices of alive edges incident to `v` (either direction).
    pub fn alive_incident(&self, v: NodeId) -> impl Iterator<Item = u32> + '_ {
        self.incidence[v.index()]
            .iter()
            .copied()
            .filter(move |&i| self.alive[i as usize])
    }

    /// Remove edge `i` from the working set. Returns the edge.
    /// Panics if already removed — the partition invariant ("each tuple is
    /// computed at exactly one processor") depends on single assignment.
    pub fn take(&mut self, i: u32) -> Edge {
        assert!(self.alive[i as usize], "edge {i} taken twice");
        self.alive[i as usize] = false;
        self.alive_count -= 1;
        self.edges[i as usize]
    }

    /// Take all alive edges incident to any node in `frontier`; returns
    /// their indices. This is the `new_e` step of the linear algorithm
    /// (Fig. 7) and the expansion step of the center-based one (Fig. 4).
    pub fn take_incident_to(&mut self, frontier: impl IntoIterator<Item = NodeId>) -> Vec<u32> {
        let mut taken = Vec::new();
        for v in frontier {
            for &i in &self.incidence[v.index()] {
                if self.alive[i as usize] {
                    self.alive[i as usize] = false;
                    taken.push(i);
                }
            }
        }
        self.alive_count -= taken.len();
        taken
    }

    /// Iterate over the alive edges.
    pub fn alive_edges(&self) -> impl Iterator<Item = (u32, Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(i, _)| self.alive[*i])
            .map(|(i, e)| (i as u32, *e))
    }

    /// Endpoints of all alive edges (each node once, sorted).
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        let mut endpoint = vec![false; self.node_count];
        for (_, e) in self.alive_edges() {
            endpoint[e.src.index()] = true;
            endpoint[e.dst.index()] = true;
        }
        (0..self.node_count)
            .filter(|&v| endpoint[v])
            .map(NodeId::from_index)
            .collect()
    }

    /// The alive node with the smallest key under `key` — used to re-seed
    /// the linear sweep on disconnected graphs (documented deviation #1 in
    /// DESIGN.md).
    pub fn min_alive_node_by<K: PartialOrd>(&self, key: impl Fn(NodeId) -> K) -> Option<NodeId> {
        let mut best: Option<(NodeId, K)> = None;
        for (_, e) in self.alive_edges() {
            for v in [e.src, e.dst] {
                let k = key(v);
                match &best {
                    Some((_, bk)) if *bk <= k => {}
                    _ => best = Some((v, k)),
                }
            }
        }
        best.map(|(v, _)| v)
    }

    /// Degree of `v` counting only alive edges.
    pub fn alive_degree(&self, v: NodeId) -> usize {
        self.alive_incident(v).count()
    }
}

/// Deduplicate edges that represent the same symmetric connection: keeps
/// one `(u, v)` and one `(v, u)` per undirected pair, choosing the cheapest
/// cost seen. Useful when generators emit duplicates.
pub fn dedup_symmetric(edges: &[Edge]) -> Vec<Edge> {
    use std::collections::HashMap;
    let mut best: HashMap<(NodeId, NodeId), Cost> = HashMap::new();
    for e in edges {
        let entry = best.entry((e.src, e.dst)).or_insert(e.cost);
        if e.cost < *entry {
            *entry = e.cost;
        }
    }
    let mut out: Vec<Edge> = best
        .into_iter()
        .map(|((s, d), c)| Edge::new(s, d, c))
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> EdgeList {
        EdgeList::new(
            3,
            vec![
                Edge::unit(NodeId(0), NodeId(1)),
                Edge::unit(NodeId(1), NodeId(2)),
                Edge::unit(NodeId(2), NodeId(0)),
            ],
        )
    }

    #[test]
    fn take_removes_once() {
        let mut el = triangle();
        assert_eq!(el.remaining(), 3);
        let e = el.take(0);
        assert_eq!(e.src, NodeId(0));
        assert_eq!(el.remaining(), 2);
        assert!(!el.is_alive(0));
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn double_take_panics() {
        let mut el = triangle();
        el.take(1);
        el.take(1);
    }

    #[test]
    fn take_incident_consumes_frontier_edges() {
        let mut el = triangle();
        let taken = el.take_incident_to([NodeId(0)]);
        // Node 0 touches edges 0 (0->1) and 2 (2->0).
        assert_eq!(taken.len(), 2);
        assert_eq!(el.remaining(), 1);
        let (_, last) = el.alive_edges().next().unwrap();
        assert_eq!(last, Edge::unit(NodeId(1), NodeId(2)));
    }

    #[test]
    fn take_incident_handles_overlapping_frontier() {
        let mut el = triangle();
        // Both endpoints of every edge are in the frontier; each edge must
        // still be taken exactly once.
        let taken = el.take_incident_to([NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(taken.len(), 3);
        assert!(el.is_exhausted());
    }

    #[test]
    fn alive_nodes_shrinks() {
        let mut el = triangle();
        el.take_incident_to([NodeId(0)]);
        assert_eq!(el.alive_nodes(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn min_alive_node_by_key() {
        let el = triangle();
        let min = el.min_alive_node_by(|v| v.0).unwrap();
        assert_eq!(min, NodeId(0));
        let max = el.min_alive_node_by(|v| std::cmp::Reverse(v.0)).unwrap();
        assert_eq!(max, NodeId(2));
    }

    #[test]
    fn from_graph_roundtrip() {
        let g = CsrGraph::from_edges(
            3,
            &[
                Edge::unit(NodeId(0), NodeId(1)),
                Edge::unit(NodeId(1), NodeId(2)),
            ],
        );
        let el = EdgeList::from_graph(&g);
        assert_eq!(el.remaining(), 2);
        assert_eq!(el.node_count(), 3);
    }

    #[test]
    fn self_loop_incidence_not_doubled() {
        let el = EdgeList::new(2, vec![Edge::unit(NodeId(0), NodeId(0))]);
        assert_eq!(el.alive_degree(NodeId(0)), 1);
    }

    #[test]
    fn dedup_symmetric_keeps_cheapest() {
        let edges = vec![
            Edge::new(NodeId(0), NodeId(1), 5),
            Edge::new(NodeId(0), NodeId(1), 3),
            Edge::new(NodeId(1), NodeId(0), 4),
        ];
        let out = dedup_symmetric(&edges);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&Edge::new(NodeId(0), NodeId(1), 3)));
        assert!(out.contains(&Edge::new(NodeId(1), NodeId(0), 4)));
    }
}
