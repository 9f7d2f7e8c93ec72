//! Bulk materialization from the epoch: every query at once, answered
//! from the complementary information the engine already keeps.
//!
//! §2.1 keeps complementary information so that each fragment finishes
//! its part "without need for communication", and a materialization is
//! nothing but every query of a source set. Three per-site memos of
//! [`crate::local::Site`] and one per-epoch table answer all of them:
//!
//! * the *access set* of a source `s` — the borders `s` reaches inside
//!   its fragment, with their costs;
//! * the *exit set* of a destination `d` — the borders that reach `d`
//!   inside its fragment, with their costs;
//! * the *border-free row* of `s` — its distances to its fragment's
//!   nodes along paths that touch no border;
//! * the [`Hub`]: the B×B closure of the border skeleton
//!   ([`crate::ComplementaryInfo::skeleton`]), B the number of borders —
//!   every global border-to-border distance. Under the default scope
//!   each site's complementary table is the hub restricted to that
//!   site's borders, so the hub is closed over the skeleton less the
//!   edges a table beats (`ComplementaryInfo::tight_skeleton`).
//!
//! A path from `s` that touches a border enters its first one through
//! `s`'s access set and leaves its last one through `d`'s exit set, so
//!
//! ```text
//! r_s      = access(s) ⊗ H                 (a border source: its hub row)
//! row(s)[d] = min over b' in exit(d) of  r_s[b'] + exit(d)[b']
//!             and, when d shares s's fragment, its border-free row
//! ```
//!
//! in the min-plus sense. [`engine`] runs it: the first call of an epoch
//! builds the hub (one sweep of the skeleton per border) and fills every
//! site's exit sets (at most one blocked sweep per border of the site,
//! none for a node whose border-free row the call sweeps anyway on a
//! symmetric network), as tasks on the call's own workers; every later
//! call of the epoch sweeps nothing. The result is tuple-identical to
//! [`ds_relation::tc::seminaive_closure`] over the union of the
//! fragments.
//!
//! The hub is per-epoch state, held by the snapshot like the
//! reachability index: [`crate::EngineSnapshot::maintain_cow`] keeps a
//! built hub across a write that leaves the skeleton `Arc` as it was and
//! empties the slot after any other.

pub mod engine;

use ds_graph::Cost;

/// The closure of the border skeleton: the global shortest distance
/// between every ordered pair of borders, over skeleton ids (a border's
/// position among every border, ascending).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hub {
    borders: usize,
    /// Row-major: 0 on the diagonal, `INFINITE_COST` where no path runs.
    costs: Vec<Cost>,
}

impl Hub {
    /// The hub from its rows, in skeleton-id order.
    pub(crate) fn from_rows(borders: usize, costs: Vec<Cost>) -> Self {
        debug_assert_eq!(costs.len(), borders * borders);
        Hub { borders, costs }
    }

    /// Number of borders (B).
    pub fn border_count(&self) -> usize {
        self.borders
    }

    /// The distances from the border with skeleton id `i`.
    pub fn row(&self, i: usize) -> &[Cost] {
        &self.costs[i * self.borders..][..self.borders]
    }

    /// Heap bytes held.
    pub fn memory_bytes(&self) -> usize {
        self.costs.capacity() * std::mem::size_of::<Cost>()
    }
}
