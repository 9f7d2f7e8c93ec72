//! Small deterministic graphs for tests, examples and worked paper
//! figures. All carry coordinates so every fragmenter can run on them.

use ds_graph::{Coord, Edge, NodeId};

use crate::output::GeneratedGraph;

/// A path `0 - 1 - … - n-1` with unit costs, nodes on the x-axis.
pub fn path(n: usize) -> GeneratedGraph {
    let connections = (0..n.saturating_sub(1))
        .map(|i| Edge::unit(NodeId(i as u32), NodeId(i as u32 + 1)))
        .collect();
    GeneratedGraph {
        nodes: n,
        connections,
        coords: (0..n).map(|i| Coord::new(i as f64, 0.0)).collect(),
        cluster_of: None,
        symmetric: true,
    }
}

/// A cycle over `n` nodes with unit costs, nodes on a circle.
pub fn cycle(n: usize) -> GeneratedGraph {
    assert!(n >= 3, "cycle needs at least 3 nodes");
    let connections = (0..n)
        .map(|i| Edge::unit(NodeId(i as u32), NodeId(((i + 1) % n) as u32)))
        .collect();
    let coords = (0..n)
        .map(|i| {
            let t = i as f64 / n as f64 * std::f64::consts::TAU;
            Coord::new(t.cos() * 10.0, t.sin() * 10.0)
        })
        .collect();
    GeneratedGraph {
        nodes: n,
        connections,
        coords,
        cluster_of: None,
        symmetric: true,
    }
}

/// A `w × h` grid with unit costs; node `(r, c)` has id `r·w + c` and
/// coordinate `(c, r)`.
pub fn grid(w: usize, h: usize) -> GeneratedGraph {
    assert!(w >= 1 && h >= 1, "grid must be non-empty");
    let id = |r: usize, c: usize| NodeId((r * w + c) as u32);
    let mut connections = Vec::new();
    for r in 0..h {
        for c in 0..w {
            if c + 1 < w {
                connections.push(Edge::unit(id(r, c), id(r, c + 1)));
            }
            if r + 1 < h {
                connections.push(Edge::unit(id(r, c), id(r + 1, c)));
            }
        }
    }
    let coords = (0..h)
        .flat_map(|r| (0..w).map(move |c| Coord::new(c as f64, r as f64)))
        .collect();
    GeneratedGraph {
        nodes: w * h,
        connections,
        coords,
        cluster_of: None,
        symmetric: true,
    }
}

/// The complete graph on `n` nodes, unit costs, nodes on a circle.
pub fn complete(n: usize) -> GeneratedGraph {
    let mut connections = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            connections.push(Edge::unit(NodeId(i as u32), NodeId(j as u32)));
        }
    }
    let coords = (0..n)
        .map(|i| {
            let t = i as f64 / n.max(1) as f64 * std::f64::consts::TAU;
            Coord::new(t.cos() * 10.0, t.sin() * 10.0)
        })
        .collect();
    GeneratedGraph {
        nodes: n,
        connections,
        coords,
        cluster_of: None,
        symmetric: true,
    }
}

/// The archetype of Fig. 1: two triangle clusters joined by one bridge
/// edge through border nodes 2 and 3. Useful for hand-checked
/// disconnection-set tests (`DS = {2}` or `{3}` depending on edge
/// ownership).
pub fn two_triangles_bridge() -> GeneratedGraph {
    let pairs = [(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)];
    let connections = pairs
        .iter()
        .map(|&(a, b)| Edge::unit(NodeId(a), NodeId(b)))
        .collect();
    let coords = vec![
        Coord::new(0.0, 0.0),
        Coord::new(0.0, 2.0),
        Coord::new(1.0, 1.0),
        Coord::new(3.0, 1.0),
        Coord::new(4.0, 0.0),
        Coord::new(4.0, 2.0),
    ];
    GeneratedGraph {
        nodes: 6,
        connections,
        coords,
        cluster_of: Some(vec![0, 0, 0, 1, 1, 1]),
        symmetric: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::{matrix, traverse};

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.connection_count(), 4);
        let csr = g.closure_graph();
        assert_eq!(traverse::diameter(&csr), 4);
    }

    #[test]
    fn path_degenerate_cases() {
        assert_eq!(path(0).connection_count(), 0);
        assert_eq!(path(1).connection_count(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!(g.connection_count(), 6);
        let csr = g.closure_graph();
        assert_eq!(traverse::diameter(&csr), 3);
        // Every ordered pair is reachable.
        assert_eq!(matrix::closure_cardinality(&csr), 30);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 2);
        // Horizontal: 2 per row × 2 rows; vertical: 3.
        assert_eq!(g.connection_count(), 7);
        assert_eq!(g.nodes, 6);
        let csr = g.closure_graph();
        assert_eq!(traverse::diameter(&csr), 3); // corner to corner
    }

    #[test]
    fn complete_shape() {
        let g = complete(5);
        assert_eq!(g.connection_count(), 10);
        let csr = g.closure_graph();
        assert_eq!(traverse::diameter(&csr), 1);
    }

    #[test]
    fn two_triangles_bridge_is_one_component_held_by_its_bridge() {
        let mut g = two_triangles_bridge();
        assert_eq!(traverse::weak_components(&g.closure_graph()).1, 1);
        // Without the 2-3 connection the triangles fall apart.
        g.connections
            .retain(|e| !e.connects(NodeId(2), NodeId(3), true));
        let (component, count) = traverse::weak_components(&g.closure_graph());
        assert_eq!(count, 2);
        assert_eq!(component[..3], [component[0]; 3]);
        assert_eq!(component[3..], [component[3]; 3]);
    }
}
