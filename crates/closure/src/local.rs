//! Local subquery evaluation: the per-site work of phase one.
//!
//! Each site evaluates its recursive subquery on its fragment *augmented*
//! with the complementary shortcuts stored at that site ("including all
//! complementary information about disconnection sets stored at that
//! fragment", §2.1). The disconnection sets act as the selection — the
//! "keyhole" of §2.2: evaluation starts only from the entry border set
//! and only the exit border set is reported.
//!
//! The output of one subquery is a *very small relation* of
//! `(entry, exit, cost)` tuples, held densely as a [`SegmentMatrix`] over
//! the entry and exit node lists, ready for the final joins. It costs one
//! Dijkstra sweep per node of the *smaller* of the two lists: a site keeps
//! its graph's transpose ([`SiteGraph`]) so it can sweep from the exits.

use std::sync::{Arc, OnceLock};

use ds_graph::{dijkstra, Cost, CsrGraph, Edge, NodeId, ScratchDijkstra, INFINITE_COST};
use ds_relation::{PathTuple, Relation};

/// A site's augmented local graph: fragment edges (symmetric expansion if
/// the network is symmetric) plus the site's complementary shortcuts.
pub fn augmented_graph(
    node_count: usize,
    fragment_edges: &[Edge],
    symmetric: bool,
    shortcuts: &[Edge],
) -> CsrGraph {
    let mut edges = Vec::with_capacity(fragment_edges.len() * 2 + shortcuts.len());
    for e in fragment_edges {
        edges.push(*e);
        if symmetric && !e.is_loop() {
            edges.push(e.reversed());
        }
    }
    edges.extend_from_slice(shortcuts);
    CsrGraph::from_edges(node_count, &edges)
}

/// A site's augmented graph together with its transpose, so a subquery
/// can be swept from whichever side has fewer nodes. The transpose is
/// built on first use; on a symmetric network the augmented graph is its
/// own transpose (fragment tuples stand for both directions and the
/// shortcut distances are equal both ways) and none is ever built.
#[derive(Clone, Debug)]
pub struct SiteGraph {
    forward: Arc<CsrGraph>,
    symmetric: bool,
    reverse: OnceLock<CsrGraph>,
}

impl SiteGraph {
    /// Build a site's augmented graph (see [`augmented_graph`]).
    pub fn build(
        node_count: usize,
        fragment_edges: &[Edge],
        symmetric: bool,
        shortcuts: &[Edge],
    ) -> Self {
        let forward = augmented_graph(node_count, fragment_edges, symmetric, shortcuts);
        SiteGraph::new(Arc::new(forward), symmetric)
    }

    /// Wrap an already built augmented graph.
    pub fn new(forward: Arc<CsrGraph>, symmetric: bool) -> Self {
        debug_assert!(!symmetric || forward.is_symmetric());
        SiteGraph {
            forward,
            symmetric,
            reverse: OnceLock::new(),
        }
    }

    /// The augmented graph.
    pub fn forward(&self) -> &Arc<CsrGraph> {
        &self.forward
    }

    /// The augmented graph with every edge reversed.
    pub fn reverse(&self) -> &CsrGraph {
        if self.symmetric {
            &self.forward
        } else {
            self.reverse.get_or_init(|| self.forward.reversed())
        }
    }
}

/// The result of one site subquery in dense form: the local shortest
/// distance from the `i`-th source to the `j`-th target at
/// `costs[i * cols + j]`, [`INFINITE_COST`] where there is no path.
/// Sources and targets are identified by position, so a relation over a
/// disconnection set is read against the planner's node list for it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentMatrix {
    rows: usize,
    cols: usize,
    costs: Vec<Cost>,
}

impl SegmentMatrix {
    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// All costs, row-major. A one-source subquery's costs are its row
    /// vector, a one-target subquery's its column vector.
    pub fn costs(&self) -> &[Cost] {
        &self.costs
    }

    /// The distances from the `i`-th source.
    pub fn row(&self, i: usize) -> &[Cost] {
        &self.costs[i * self.cols..(i + 1) * self.cols]
    }

    /// Connected (source, target) pairs — the cardinality of the "very
    /// small relation" a site ships.
    pub fn tuples(&self) -> usize {
        self.costs.iter().filter(|&&c| c < INFINITE_COST).count()
    }

    /// Heap bytes held.
    pub fn memory_bytes(&self) -> usize {
        self.costs.capacity() * std::mem::size_of::<Cost>()
    }

    /// The same result as `(source, target, cost)` tuples, unreachable
    /// pairs dropped.
    pub fn to_relation(&self, sources: &[NodeId], targets: &[NodeId]) -> Relation<PathTuple> {
        let mut rows = Vec::with_capacity(self.costs.len());
        for (i, &u) in sources.iter().enumerate() {
            for (&v, &cost) in targets.iter().zip(self.row(i)) {
                if cost < INFINITE_COST {
                    rows.push(PathTuple::new(u, v, cost));
                }
            }
        }
        Relation::from_rows("border", rows)
    }
}

/// Evaluate one local subquery — shortest distances from every node of
/// `sources` to every node of `targets` — with one sweep of `g` per
/// source. Sweeps early-exit once every target is settled and reuse the
/// caller's stamped arrays, so the steady state performs no O(V)
/// allocations.
pub fn forward_matrix(
    g: &CsrGraph,
    sources: &[NodeId],
    targets: &[NodeId],
    scratch: &mut ScratchDijkstra,
) -> SegmentMatrix {
    let mut costs = Vec::with_capacity(sources.len() * targets.len());
    for &u in sources {
        scratch.sweep_to_targets(g, &[(u, 0)], targets);
        costs.extend(
            targets
                .iter()
                .map(|&v| scratch.cost(v).unwrap_or(INFINITE_COST)),
        );
    }
    SegmentMatrix {
        rows: sources.len(),
        cols: targets.len(),
        costs,
    }
}

/// [`forward_matrix`] from the narrow side: when there are fewer targets
/// than sources the sweeps run from the targets over the site's
/// transposed graph, so the subquery costs `min(|sources|, |targets|)`
/// sweeps. The last subquery of a chain (`DS -> y`) is one sweep from
/// `y` instead of one per border node.
pub fn border_matrix_with(
    site: &SiteGraph,
    sources: &[NodeId],
    targets: &[NodeId],
    scratch: &mut ScratchDijkstra,
) -> SegmentMatrix {
    if targets.len() >= sources.len() {
        return forward_matrix(site.forward(), sources, targets, scratch);
    }
    let (rows, cols) = (sources.len(), targets.len());
    let mut costs = vec![INFINITE_COST; rows * cols];
    for (j, &v) in targets.iter().enumerate() {
        scratch.sweep_to_targets(site.reverse(), &[(v, 0)], sources);
        for (i, &u) in sources.iter().enumerate() {
            if let Some(c) = scratch.cost(u) {
                costs[i * cols + j] = c;
            }
        }
    }
    SegmentMatrix { rows, cols, costs }
}

/// Point evaluation within a single fragment (the same-fragment fast
/// path: "queries about the shortest path of two cities in Holland can be
/// answered by the Dutch railway computer system alone", §2.1).
pub fn point_query(aug: &CsrGraph, src: NodeId, dst: NodeId) -> Option<Cost> {
    dijkstra::point_to_point(aug, src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn augmented_graph_merges_fragment_and_shortcuts() {
        let frag = vec![Edge::new(n(0), n(1), 2)];
        let shortcuts = vec![Edge::new(n(1), n(2), 7)];
        let aug = augmented_graph(3, &frag, true, &shortcuts);
        assert_eq!(aug.edge_count(), 3); // 0->1, 1->0, shortcut 1->2
        assert_eq!(point_query(&aug, n(0), n(2)), Some(9));
        assert_eq!(
            point_query(&aug, n(2), n(0)),
            None,
            "shortcuts are directed"
        );
    }

    /// Diamond fragment: 0->1 (1), 0->2 (5), 1->3 (1), 2->3 (1).
    fn diamond() -> CsrGraph {
        let frag = vec![
            Edge::new(n(0), n(1), 1),
            Edge::new(n(0), n(2), 5),
            Edge::new(n(1), n(3), 1),
            Edge::new(n(2), n(3), 1),
        ];
        augmented_graph(4, &frag, false, &[])
    }

    #[test]
    fn forward_matrix_shape() {
        let m = forward_matrix(
            &diamond(),
            &[n(0), n(1)],
            &[n(3)],
            &mut ScratchDijkstra::new(),
        );
        assert_eq!((m.rows(), m.cols()), (2, 1));
        assert_eq!(m.costs(), &[2, 1]);
        assert_eq!(m.tuples(), 2);
    }

    #[test]
    fn unreachable_pairs_are_infinite_and_not_tuples() {
        let frag = vec![Edge::unit(n(0), n(1))];
        let aug = augmented_graph(3, &frag, false, &[]);
        let m = forward_matrix(&aug, &[n(0)], &[n(1), n(2)], &mut ScratchDijkstra::new());
        assert_eq!(m.row(0), &[1, INFINITE_COST]);
        assert_eq!(m.tuples(), 1);
        let rel = m.to_relation(&[n(0)], &[n(1), n(2)]);
        assert_eq!(rel.len(), 1, "node 2 unreachable, no tuple");
        assert_eq!(rel.cost_of(n(0), n(1)), Some(1));
    }

    #[test]
    fn narrow_side_sweeps_agree_with_forward_sweeps_on_a_directed_graph() {
        let site = SiteGraph::new(Arc::new(diamond()), false);
        let mut scratch = ScratchDijkstra::new();
        let all = [n(0), n(1), n(2), n(3)];
        for targets in [&all[3..], &all[1..3], &all[..]] {
            let before = scratch.stats().sweeps;
            let narrow = border_matrix_with(&site, &all, targets, &mut scratch);
            assert_eq!(
                scratch.stats().sweeps - before,
                targets.len() as u64,
                "one sweep per node of the smaller side"
            );
            assert_eq!(
                narrow,
                forward_matrix(site.forward(), &all, targets, &mut scratch),
                "targets {targets:?}"
            );
        }
        // 3 -> 0 does not exist forwards: the reverse sweep must not
        // invent it.
        let m = border_matrix_with(&site, &[n(3), n(1)], &[n(0)], &mut scratch);
        assert_eq!(m.costs(), &[INFINITE_COST, INFINITE_COST]);
    }

    #[test]
    fn symmetric_site_is_its_own_transpose() {
        let frag = vec![Edge::unit(n(0), n(1)), Edge::unit(n(1), n(2))];
        let site = SiteGraph::new(Arc::new(augmented_graph(3, &frag, true, &[])), true);
        assert!(std::ptr::eq(site.reverse(), &**site.forward()));
        let m = border_matrix_with(&site, &[n(0), n(1)], &[n(2)], &mut ScratchDijkstra::new());
        assert_eq!(m.costs(), &[2, 1]);
    }

    #[test]
    fn symmetric_expansion_only_when_asked() {
        let frag = vec![Edge::unit(n(0), n(1))];
        let asym = augmented_graph(2, &frag, false, &[]);
        assert_eq!(point_query(&asym, n(1), n(0)), None);
        let sym = augmented_graph(2, &frag, true, &[]);
        assert_eq!(point_query(&sym, n(1), n(0)), Some(1));
    }
}
