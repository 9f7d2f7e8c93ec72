//! Fundamental types: node identifiers, edge tuples, costs and coordinates.

use std::fmt;

/// A node (vertex) identifier.
///
/// Nodes are dense `u32` indices into the graph's node table; the paper's
/// relations store them as city/part identifiers. `NodeId` is a newtype so
/// node indices cannot be confused with fragment ids or costs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a `usize` index (panics on overflow in debug builds).
    #[inline]
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize, "node index overflows u32");
        NodeId(i as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Edge cost / weight.
///
/// Costs are non-negative integers. Generators produce scaled, rounded
/// Euclidean distances; unit costs model plain reachability. Integer costs
/// keep [`Ord`] total (no NaN hazards) so they can live in binary heaps.
///
/// The engine (`ds_closure`) admits a network of `n` nodes only when
/// every edge cost `c` has `(n − 1) · c < u32::MAX / 4`: its dense
/// per-epoch matrices of border distances hold 32-bit words, and a
/// shortest path, being simple, has at most `n − 1` edges, so under this
/// rule every distance fits one. The builder and every insert refuse an
/// edge over it with a typed error (`ds_closure::bulk::max_edge_cost`
/// gives the limit); a `Cost` itself, the answers and the on-disk
/// formats stay 64-bit.
pub type Cost = u64;

/// Sentinel for "unreachable". Large enough to never be produced by a real
/// path, small enough that `INFINITE_COST + any edge cost` cannot wrap.
/// The engine's 32-bit border distances have an infinity of their own,
/// `u32::MAX / 4`, which every read widens to this one.
pub const INFINITE_COST: Cost = Cost::MAX / 4;

/// A point in the plane. The paper assumes "each node has an associated
/// coordinate-pair (x, y)" (§3.3) — used by the linear fragmentation sweep,
/// the distributed-centers refinement and the generators.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Coord {
    pub x: f64,
    pub y: f64,
}

impl Coord {
    pub fn new(x: f64, y: f64) -> Self {
        Coord { x, y }
    }

    /// Euclidean distance to another point — the `d(p, q)` of the paper's
    /// edge probability function (§4.1).
    pub fn distance(&self, other: &Coord) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// One tuple of the connection relation `R(src, dst, cost)`: a directed,
/// weighted edge (§2.1: "each tuple represents an edge of the graph,
/// possibly with an associated weight").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Edge {
    pub src: NodeId,
    pub dst: NodeId,
    pub cost: Cost,
}

impl Edge {
    pub fn new(src: NodeId, dst: NodeId, cost: Cost) -> Self {
        Edge { src, dst, cost }
    }

    /// Unit-cost edge, for pure reachability problems.
    pub fn unit(src: NodeId, dst: NodeId) -> Self {
        Edge { src, dst, cost: 1 }
    }

    /// The same connection in the opposite direction.
    pub fn reversed(&self) -> Edge {
        Edge {
            src: self.dst,
            dst: self.src,
            cost: self.cost,
        }
    }

    /// The unordered endpoint pair, smaller id first. Two directed edges
    /// that represent one symmetric connection share the same key.
    pub fn undirected_key(&self) -> (NodeId, NodeId) {
        if self.src <= self.dst {
            (self.src, self.dst)
        } else {
            (self.dst, self.src)
        }
    }

    /// Whether this edge is a self-loop.
    pub fn is_loop(&self) -> bool {
        self.src == self.dst
    }

    /// Whether this edge represents the connection `src -> dst` — in
    /// either direction when `symmetric`. The one matching rule every
    /// update path shares (coordinator fragmentation, deletion repair,
    /// machine sites), so removals can never desynchronize them.
    pub fn connects(&self, src: NodeId, dst: NodeId, symmetric: bool) -> bool {
        (self.src == src && self.dst == dst) || (symmetric && self.src == dst && self.dst == src)
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{} ({})", self.src, self.dst, self.cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::from_index(42);
        assert_eq!(n.index(), 42);
        assert_eq!(n, NodeId(42));
        assert_eq!(format!("{n}"), "42");
        assert_eq!(format!("{n:?}"), "n42");
    }

    #[test]
    fn edge_reversed_swaps_endpoints_keeps_cost() {
        let e = Edge::new(NodeId(1), NodeId(2), 7);
        let r = e.reversed();
        assert_eq!(r.src, NodeId(2));
        assert_eq!(r.dst, NodeId(1));
        assert_eq!(r.cost, 7);
        assert_eq!(r.reversed(), e);
    }

    #[test]
    fn undirected_key_is_order_independent() {
        let a = Edge::new(NodeId(3), NodeId(1), 5);
        let b = Edge::new(NodeId(1), NodeId(3), 9);
        assert_eq!(a.undirected_key(), b.undirected_key());
        assert_eq!(a.undirected_key(), (NodeId(1), NodeId(3)));
    }

    #[test]
    fn coord_distance_is_euclidean() {
        let a = Coord::new(0.0, 0.0);
        let b = Coord::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((b.distance(&a) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn loops_detected() {
        assert!(Edge::unit(NodeId(4), NodeId(4)).is_loop());
        assert!(!Edge::unit(NodeId(4), NodeId(5)).is_loop());
    }

    #[test]
    fn infinite_cost_does_not_wrap_when_added_to_edge_cost() {
        let sum = INFINITE_COST.saturating_add(1_000_000);
        assert!(sum >= INFINITE_COST);
        assert!(sum < Cost::MAX, "headroom remains before wrap");
    }
}
