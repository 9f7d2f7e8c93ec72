//! Final assembly: "a sequence of binary joins between a number of very
//! small relations" (§2.1).
//!
//! Phase one leaves one small relation per site on the chain. A query has
//! a single source, so the min-plus fold of those relations is a row
//! vector (the costs from `x` to the first junction) carried from each
//! junction to the next and met with the column vector of costs from the
//! last junction to `y` — [`fold_chain`]. The relation an intermediate
//! site contributes, `DS(prev, site) -> DS(site, next)`, names no query
//! endpoint: it is the global distance between two borders, which the
//! epoch's [`Hub`] holds for every pair, so the fold reads it there, at
//! the junctions' skeleton ids, and no site evaluates or keeps it.

use ds_graph::{Cost, NodeId, INFINITE_COST};
use ds_relation::join::compose_min_plus;
use ds_relation::{PathTuple, Relation};

use crate::bulk::{Hub, WORD_INF};

/// The working vectors of [`fold_chain`], kept by the caller: once they
/// have grown to the widest junction folded, a fold allocates nothing.
#[derive(Debug, Default)]
pub struct FoldBuffers {
    /// Costs from `x` to each node of the current junction.
    at: Vec<Cost>,
    /// The same at the next junction, while it is being relaxed.
    next: Vec<Cost>,
}

/// Fold one chain for one `(x, y)`. `junctions` are the skeleton ids of
/// the chain's disconnection sets in chain order; `start[j]` is the cost
/// from `x` to the `j`-th node of the first, the costs at each junction
/// are carried to the next through `hub`, and `end[j]` is the cost from
/// the `j`-th node of the last to `y`. Returns the cheapest total if it
/// is below `bound` — costs only grow along a chain, so a partial path
/// already at `bound` is dropped where it stands, and a caller that
/// passes the best cost found so far pays little for the chains that
/// cannot beat it. [`INFINITE_COST`] bounds nothing; `None` without a
/// junction.
///
/// Every true distance of an admitted network lies below the hub word's
/// infinity ([`crate::bulk`]), so a sum at or above it has an
/// unreachable term: the fold adds the words as they are and drops such a
/// sum as it drops one at `bound`, as [`crate::local::border_matrix_with`]
/// clamps once per answer.
pub fn fold_chain<'j>(
    start: &[Cost],
    junctions: impl IntoIterator<Item = &'j [u32]>,
    end: &[Cost],
    hub: &Hub,
    bound: Cost,
    buf: &mut FoldBuffers,
) -> Option<Cost> {
    let FoldBuffers { at, next } = buf;
    let limit = bound.min(Cost::from(WORD_INF));
    let mut junctions = junctions.into_iter();
    let mut from = junctions.next()?;
    debug_assert_eq!(from.len(), start.len());
    // Until the first hop is folded, the costs at the junction are
    // `start` itself.
    let mut folded = false;
    for to in junctions {
        let so_far: &[Cost] = if folded { at } else { start };
        next.clear();
        next.resize(to.len(), INFINITE_COST);
        for (&b, &cost) in from.iter().zip(so_far) {
            if cost >= limit {
                continue;
            }
            let row = hub.words(b as usize);
            for (best, &b2) in next.iter_mut().zip(to) {
                // A cost below the word's infinity plus a word: no wrap.
                *best = (*best).min(cost + Cost::from(row[b2 as usize]));
            }
        }
        std::mem::swap(at, next);
        folded = true;
        from = to;
    }
    let so_far: &[Cost] = if folded { at } else { start };
    debug_assert_eq!(so_far.len(), end.len());
    // Both terms are at most INFINITE_COST: the sum cannot wrap.
    let best = (so_far.iter().zip(end)).fold(INFINITE_COST, |best, (&c, &rest)| best.min(c + rest));
    (best < limit).then_some(best)
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
    use ds_graph::{CsrGraph, Edge};

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

    /// The hub of `borders` borders joined by the one-way `edges` over
    /// skeleton ids.
    fn hub(borders: usize, edges: &[(u32, u32, u64)]) -> Hub {
        let edges: Vec<Edge> = (edges.iter())
            .map(|&(s, d, c)| Edge::new(n(s), n(d), c))
            .collect();
        Hub::close(&CsrGraph::from_edges(borders, &edges))
    }

    #[test]
    fn two_segment_chain_picks_cheaper_junction() {
        let mut buf = FoldBuffers::default();
        // Junctions 5 and 6; route via 6 is cheaper in total.
        let s1 = seg("s1", &[(0, 5, 1), (0, 6, 2)]);
        let s2 = seg("s2", &[(5, 9, 10), (6, 9, 3)]);
        assert_eq!(chain_cost_refs(&[&s1, &s2], n(0), n(9)), Some(5));
        // One junction: no hub read.
        let (h, junction) = (hub(2, &[]), &[0, 1][..]);
        assert_eq!(
            fold_chain(&[1, 2], [junction], &[10, 3], &h, INFINITE_COST, &mut buf),
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
                [&[0, 1][..]],
                &[INFINITE_COST, 1],
                &hub(2, &[]),
                INFINITE_COST,
                &mut FoldBuffers::default()
            ),
            None
        );
    }

    /// The interior relation `{1, 2} -> {3, 4}` is the hub's block over
    /// the two junctions (skeleton ids 0, 1 and 2, 3).
    #[test]
    fn fold_matches_the_join_on_three_segments() {
        let rows1 = [(0, 1, 2), (0, 2, 1)];
        let rows2 = [(1, 3, 1), (2, 3, 5), (2, 4, 1)];
        let rows3 = [(3, 9, 1), (4, 9, 4)];
        let (s1, s2, s3) = (seg("s1", &rows1), seg("s2", &rows2), seg("s3", &rows3));
        let joined = chain_cost_refs(&[&s1, &s2, &s3], n(0), n(9));
        assert_eq!(joined, Some(4)); // 0-1 (2), 1-3 (1), 3-9 (1)
        let h = hub(4, &[(0, 2, 1), (1, 2, 5), (1, 3, 1)]);
        let junctions = [&[0, 1][..], &[2, 3]];
        let mut buf = FoldBuffers::default();
        let mut fold = |bound| fold_chain(&[2, 1], junctions, &[1, 4], &h, bound, &mut buf);
        assert_eq!(fold(INFINITE_COST), joined);
        assert_eq!(fold(5), joined, "a bound above the cost changes nothing");
        assert_eq!(fold(4), None, "the cost must be strictly below the bound");
        // No path between the junctions: the word's infinity is no answer.
        let cut = hub(4, &[]);
        let far = fold_chain(&[2, 1], junctions, &[1, 4], &cut, INFINITE_COST, &mut buf);
        assert_eq!(far, None);
    }

    /// A sum at the word's infinity has an unreachable term: dropped, one
    /// below it kept.
    #[test]
    fn a_sum_at_the_words_infinity_is_no_answer() {
        let (h, mut buf) = (hub(2, &[(0, 1, 1)]), FoldBuffers::default());
        let almost = Cost::from(WORD_INF) - 1;
        let mut fold = |to: u32| {
            fold_chain(
                &[almost],
                [&[0][..], &[to]],
                &[0],
                &h,
                INFINITE_COST,
                &mut buf,
            )
        };
        assert_eq!(fold(0), Some(almost), "H[0][0] = 0");
        assert_eq!(fold(1), None, "H[0][1] = 1 reaches the infinity");
    }

    #[test]
    fn empty_segment_list() {
        assert_eq!(chain_cost_refs(&[], n(0), n(1)), None);
        let mut buf = FoldBuffers::default();
        assert_eq!(
            fold_chain(&[], [], &[], &hub(0, &[]), INFINITE_COST, &mut buf),
            None
        );
    }
}
