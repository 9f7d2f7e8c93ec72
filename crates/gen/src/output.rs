//! The common output type of all generators.

use ds_graph::{Coord, CsrGraph, Edge, EdgeList};

/// A generated graph: connection tuples, coordinates, and (for
/// transportation graphs) the ground-truth cluster of each node.
///
/// **Edge counting convention.** The paper counts *connections*: Table 1's
/// "average number of edges … was 429" counts each railway-style link
/// once. `connections` follows that convention — one tuple per link. For
/// query processing on symmetric networks each connection stands for both
/// travel directions; [`GeneratedGraph::closure_graph`] expands them.
/// Fragmentation operates on the single-tuple view
/// ([`GeneratedGraph::edge_list`]), matching the paper's counting, and the
/// incidence tests in Figs. 4/7 are direction-agnostic anyway
/// (`x ∈ V_k ∨ y ∈ V_k`).
#[derive(Clone, Debug, PartialEq)]
pub struct GeneratedGraph {
    /// Number of nodes.
    pub nodes: usize,
    /// One tuple per connection (see struct docs for the convention).
    pub connections: Vec<Edge>,
    /// Node coordinates (always produced; §4.1 generates them first).
    pub coords: Vec<Coord>,
    /// Ground-truth cluster id per node, for transportation graphs.
    pub cluster_of: Option<Vec<u32>>,
    /// Whether connections are symmetric (both travel directions exist).
    pub symmetric: bool,
}

impl GeneratedGraph {
    /// Number of connections (the paper's edge count).
    pub fn connection_count(&self) -> usize {
        self.connections.len()
    }

    /// The directed graph used by closure/query algorithms: symmetric
    /// graphs get both directions of every connection; directed graphs are
    /// used as-is. Coordinates are attached.
    pub fn closure_graph(&self) -> CsrGraph {
        let edges = expand_connections(&self.connections, self.symmetric);
        CsrGraph::from_edges(self.nodes, &edges)
            .with_coords(self.coords.clone())
            .expect("coords generated alongside nodes")
    }

    /// The single-tuple working set for the fragmentation algorithms,
    /// with coordinates attached.
    pub fn edge_list(&self) -> EdgeList {
        EdgeList::new(self.nodes, self.connections.clone()).with_coords(self.coords.clone())
    }

    /// Average `grade` (undirected degree over connections).
    pub fn average_degree(&self) -> f64 {
        if self.nodes == 0 {
            return 0.0;
        }
        2.0 * self.connections.len() as f64 / self.nodes as f64
    }
}

/// Expand connection tuples to the directed edge set: for symmetric
/// graphs each connection yields both directions.
pub fn expand_connections(connections: &[Edge], symmetric: bool) -> Vec<Edge> {
    if !symmetric {
        return connections.to_vec();
    }
    let mut out = Vec::with_capacity(connections.len() * 2);
    for e in connections {
        out.push(*e);
        if !e.is_loop() {
            out.push(e.reversed());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::NodeId;

    fn sample() -> GeneratedGraph {
        GeneratedGraph {
            nodes: 3,
            connections: vec![
                Edge::new(NodeId(0), NodeId(1), 5),
                Edge::new(NodeId(1), NodeId(2), 7),
            ],
            coords: vec![Coord::default(); 3],
            cluster_of: None,
            symmetric: true,
        }
    }

    #[test]
    fn closure_graph_expands_symmetric() {
        let g = sample().closure_graph();
        assert_eq!(g.edge_count(), 4);
        assert!(g.is_symmetric());
        assert!(g.coords().is_some());
    }

    #[test]
    fn directed_graph_not_expanded() {
        let mut s = sample();
        s.symmetric = false;
        let g = s.closure_graph();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn edge_list_uses_single_tuples() {
        let el = sample().edge_list();
        assert_eq!(el.remaining(), 2);
    }

    #[test]
    fn average_degree() {
        assert!((sample().average_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn self_loop_not_doubled_on_expansion() {
        let out = expand_connections(&[Edge::unit(NodeId(0), NodeId(0))], true);
        assert_eq!(out.len(), 1);
    }
}
