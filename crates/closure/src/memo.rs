//! Interior chain segments, evaluated once per epoch.
//!
//! The subquery an intermediate site runs for a chain,
//! `DS(prev, site) -> DS(site, next)`, mentions neither query endpoint:
//! it depends only on the site's fragment and its borders' hub entries —
//! it is a gather from the hub through the site's borders
//! ([`crate::local::border_matrix_with`] over two lists of borders). A
//! [`SiteMemo`] keeps those relations for one site in the shape the fold
//! reads, one slot per ordered pair of neighbouring fragments, filled the
//! first time a query's chain crosses the site that way.
//!
//! A memo is valid for exactly one [`crate::local::Site`], so it is a
//! field of it ([`crate::local::Site::memo`]): the maintenance that gives
//! a touched site new evaluation state thereby gives it an empty memo,
//! and every untouched site keeps sharing its filled memo with the
//! previous epoch — and with every reader thread, which is why filling
//! goes through [`OnceLock`].

use std::sync::OnceLock;

use ds_fragment::FragmentId;

use crate::local::SegmentMatrix;

/// The interior segment relations of one site for one epoch.
#[derive(Clone, Debug)]
pub struct SiteMemo {
    /// The site's neighbours in the fragmentation graph, ascending.
    neighbors: Vec<FragmentId>,
    /// `neighbors.len()²` slots: entering from `neighbors[i]` and leaving
    /// to `neighbors[j]` is slot `i * neighbors.len() + j`.
    slots: Vec<OnceLock<SegmentMatrix>>,
}

impl SiteMemo {
    /// An empty memo for a site adjacent to `neighbors`.
    pub fn new(neighbors: &[FragmentId]) -> Self {
        let mut neighbors = neighbors.to_vec();
        neighbors.sort_unstable();
        let slots = vec![OnceLock::new(); neighbors.len() * neighbors.len()];
        SiteMemo { neighbors, slots }
    }

    fn slot(&self, prev: FragmentId, next: FragmentId) -> &OnceLock<SegmentMatrix> {
        let pos = |f| {
            self.neighbors
                .binary_search(&f)
                .expect("a chain only joins adjacent fragments")
        };
        &self.slots[pos(prev) * self.neighbors.len() + pos(next)]
    }

    /// The relation `DS(prev, site) -> DS(site, next)`, if already
    /// evaluated.
    pub fn get(&self, prev: FragmentId, next: FragmentId) -> Option<&SegmentMatrix> {
        self.slot(prev, next).get()
    }

    /// Store the evaluated relation and return the slot's content. When
    /// two threads evaluate the same slot concurrently the first store
    /// wins and both read it; the evaluation is deterministic, so they
    /// computed the same relation anyway.
    pub fn fill(&self, prev: FragmentId, next: FragmentId, m: SegmentMatrix) -> &SegmentMatrix {
        self.slot(prev, next).get_or_init(|| m)
    }

    /// Slots evaluated so far.
    pub fn filled(&self) -> usize {
        self.slots.iter().filter(|s| s.get().is_some()).count()
    }

    /// Heap bytes held by the evaluated slots.
    pub fn memory_bytes(&self) -> usize {
        self.slots
            .iter()
            .filter_map(OnceLock::get)
            .map(|m| std::mem::size_of::<SegmentMatrix>() + m.memory_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::{augmented_graph, forward_matrix};
    use ds_graph::{Edge, NodeId, ScratchDijkstra};

    fn matrix(cost: u64) -> SegmentMatrix {
        let g = augmented_graph(2, &[Edge::new(NodeId(0), NodeId(1), cost)], false, []);
        forward_matrix(&g, &[NodeId(0)], &[NodeId(1)], &mut ScratchDijkstra::new())
    }

    #[test]
    fn slots_are_directional_and_fill_once() {
        let memo = SiteMemo::new(&[3, 1]);
        assert_eq!(memo.filled(), 0);
        assert_eq!(memo.memory_bytes(), 0);
        assert!(memo.get(1, 3).is_none());
        assert_eq!(memo.fill(1, 3, matrix(7)).costs(), &[7]);
        assert!(
            memo.get(3, 1).is_none(),
            "the opposite crossing is its own slot"
        );
        // A second fill of the same slot keeps the first relation.
        assert_eq!(memo.fill(1, 3, matrix(9)).costs(), &[7]);
        assert_eq!(memo.filled(), 1);
        assert!(memo.memory_bytes() >= std::mem::size_of::<u64>());
    }

    /// Two threads released together onto the same empty slot: whichever
    /// store wins, both read the same relation afterwards.
    #[test]
    fn racing_fills_agree() {
        for _ in 0..50 {
            let memo = SiteMemo::new(&[0, 2]);
            let barrier = std::sync::Barrier::new(2);
            let seen: Vec<SegmentMatrix> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            let m = matrix(5);
                            barrier.wait();
                            memo.fill(0, 2, m).clone()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(seen[0], seen[1]);
            assert_eq!(memo.get(0, 2), Some(&seen[0]));
            assert_eq!(memo.filled(), 1);
        }
    }
}
