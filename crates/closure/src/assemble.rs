//! Final assembly: "a sequence of binary joins between a number of very
//! small relations" (§2.1).
//!
//! Phase one leaves one small relation per site on the chain. A query has
//! a single source, so the min-plus fold of those relations is a row
//! vector (the costs from `x` to the first junction) carried through each
//! interior relation's matrix and met with the column vector of costs
//! from the last junction to `y` — [`fold_chain`].

use ds_graph::{Cost, NodeId, INFINITE_COST};
use ds_relation::join::compose_min_plus;
use ds_relation::{PathTuple, Relation};

use crate::local::SegmentMatrix;

/// The working vectors of [`fold_chain`], kept by the caller: once they
/// have grown to the widest junction folded, a fold allocates nothing.
#[derive(Debug, Default)]
pub struct FoldBuffers {
    /// Costs from `x` to each node of the current junction.
    at: Vec<Cost>,
    /// The same at the next junction, while it is being relaxed.
    next: Vec<Cost>,
}

/// Fold one chain for one `(x, y)`: `start[j]` is the cost from `x` to
/// the `j`-th node of the first junction, each interior relation maps the
/// costs at one junction to the next, and `end[j]` is the cost from the
/// `j`-th node of the last junction to `y`. Returns the cheapest total
/// if it is below `bound` — costs only grow along a chain, so a partial
/// path already at `bound` is dropped where it stands, and a caller that
/// passes the best cost found so far pays little for the chains that
/// cannot beat it. [`INFINITE_COST`] bounds nothing.
pub fn fold_chain<'m>(
    start: &[Cost],
    interiors: impl IntoIterator<Item = &'m SegmentMatrix>,
    end: &[Cost],
    bound: Cost,
    buf: &mut FoldBuffers,
) -> Option<Cost> {
    let FoldBuffers { at, next } = buf;
    // Until the first interior is folded, the costs at the junction are
    // `start` itself.
    let mut folded = false;
    for m in interiors {
        let so_far: &[Cost] = if folded { at } else { start };
        debug_assert_eq!(m.rows(), so_far.len());
        next.clear();
        next.resize(m.cols(), INFINITE_COST);
        for (i, &cost) in so_far.iter().enumerate() {
            if cost >= bound {
                continue;
            }
            for (j, &step) in m.row(i).iter().enumerate() {
                // Both terms are at most INFINITE_COST: the sum cannot wrap.
                next[j] = next[j].min(cost + step);
            }
        }
        std::mem::swap(at, next);
        folded = true;
    }
    let so_far: &[Cost] = if folded { at } else { start };
    debug_assert_eq!(so_far.len(), end.len());
    let best = (so_far.iter().zip(end)).fold(bound, |best, (&cost, &rest)| best.min(cost + rest));
    (best < bound).then_some(best)
}

/// Fold the chain's segment relations by hash joins into an end-to-end
/// relation and read the `(x, y)` cost — the reference for
/// [`fold_chain`].
pub fn chain_cost_refs(segments: &[&Relation<PathTuple>], x: NodeId, y: NodeId) -> Option<Cost> {
    let mut acc = (*segments.first()?).clone();
    for seg in &segments[1..] {
        acc = compose_min_plus(&acc, seg);
        if acc.is_empty() {
            return None;
        }
    }
    acc.cost_of(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::{augmented_graph, forward_matrix};
    use ds_graph::{Edge, ScratchDijkstra};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn seg(name: &str, rows: &[(u32, u32, u64)]) -> Relation<PathTuple> {
        Relation::from_rows(
            name,
            rows.iter()
                .map(|&(s, d, c)| PathTuple::new(n(s), n(d), c))
                .collect(),
        )
    }

    /// The dense form of a relation given as direct edges.
    fn matrix(rows: &[(u32, u32, u64)], sources: &[u32], targets: &[u32]) -> SegmentMatrix {
        let edges: Vec<Edge> = rows
            .iter()
            .map(|&(s, d, c)| Edge::new(n(s), n(d), c))
            .collect();
        let ids = |v: &[u32]| v.iter().map(|&i| n(i)).collect::<Vec<_>>();
        forward_matrix(
            &augmented_graph(10, &edges, false, []),
            &ids(sources),
            &ids(targets),
            &mut ScratchDijkstra::new(),
        )
    }

    #[test]
    fn two_segment_chain_picks_cheaper_junction() {
        let mut buf = FoldBuffers::default();
        // Junctions 5 and 6; route via 6 is cheaper in total.
        let s1 = seg("s1", &[(0, 5, 1), (0, 6, 2)]);
        let s2 = seg("s2", &[(5, 9, 10), (6, 9, 3)]);
        assert_eq!(chain_cost_refs(&[&s1, &s2], n(0), n(9)), Some(5));
        assert_eq!(
            fold_chain(&[1, 2], [], &[10, 3], INFINITE_COST, &mut buf),
            Some(5)
        );
    }

    #[test]
    fn broken_chain_is_none() {
        let s1 = seg("s1", &[(0, 5, 1)]);
        let s2 = seg("s2", &[(6, 9, 1)]); // junction mismatch
        assert_eq!(chain_cost_refs(&[&s1, &s2], n(0), n(9)), None);
        // The same chain densely, over the junction [5, 6].
        assert_eq!(
            fold_chain(
                &[1, INFINITE_COST],
                [],
                &[INFINITE_COST, 1],
                INFINITE_COST,
                &mut FoldBuffers::default()
            ),
            None
        );
    }

    #[test]
    fn fold_matches_the_join_on_three_segments() {
        let rows1 = [(0, 1, 2), (0, 2, 1)];
        let rows2 = [(1, 3, 1), (2, 3, 5), (2, 4, 1)];
        let rows3 = [(3, 9, 1), (4, 9, 4)];
        let (s1, s2, s3) = (seg("s1", &rows1), seg("s2", &rows2), seg("s3", &rows3));
        let joined = chain_cost_refs(&[&s1, &s2, &s3], n(0), n(9));
        assert_eq!(joined, Some(4)); // 0-1 (2), 1-3 (1), 3-9 (1)
        let start = matrix(&rows1, &[0], &[1, 2]);
        let interior = matrix(&rows2, &[1, 2], &[3, 4]);
        let end = matrix(&rows3, &[3, 4], &[9]);
        let mut buf = FoldBuffers::default();
        let mut fold = |bound| fold_chain(start.costs(), [&interior], end.costs(), bound, &mut buf);
        assert_eq!(fold(INFINITE_COST), joined);
        assert_eq!(fold(5), joined, "a bound above the cost changes nothing");
        assert_eq!(fold(4), None, "the cost must be strictly below the bound");
    }

    #[test]
    fn empty_segment_list() {
        assert_eq!(chain_cost_refs(&[], n(0), n(1)), None);
        let mut buf = FoldBuffers::default();
        assert_eq!(fold_chain(&[], [], &[], INFINITE_COST, &mut buf), None);
    }
}
