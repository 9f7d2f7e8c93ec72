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
//!   every global border-to-border distance. It is complementary
//!   information ([`crate::ComplementaryInfo::hub`]): the precompute
//!   closes the skeleton once, densely ([`Hub::close`]), and gathers
//!   every site's table from it, and every write keeps it exact, so every
//!   epoch holds it.
//!
//! A path from `s` that touches a border enters its first one through
//! `s`'s access set and leaves its last one through `d`'s exit set.
//! Min-plus is associative, so the epoch folds the hub into the exit
//! sets once, border by border, and every source reads the result:
//!
//! ```text
//! R[b][d]   = min over b' in exit(d) of  H[b][b'] + exit(d)[b']
//!             (a border row: dist(b, ·), 0 at b itself)
//! row(s)    = access(s) ⊗ R               (a border source: its own row)
//!             and, over s's fragment, its border-free row
//! ```
//!
//! in the min-plus sense. [`engine`] runs it: the first call of an epoch
//! fills every site's exit sets (at most one blocked sweep per border of
//! the site, none for a node whose border-free row the call sweeps
//! anyway on a symmetric network), then the [`BorderRows`] its sources
//! read — the borders in their access sets, and the border sources
//! themselves — as tasks on the call's own workers. It closes no hub: the
//! epoch's is exact. A later call folds nothing the epoch already holds:
//! a warm call sweeps nothing and gathers no exit set, and a source is
//! |access(s)| passes over kept rows. The sources run in blocks of node
//! ids, each writing its rows once, in place, into
//! the vector that becomes the result — tuple-identical to
//! [`ds_relation::tc::seminaive_closure`] over the fragments' union.
//!
//! The border rows are per-epoch state, held by the snapshot like the
//! reachability index: [`crate::EngineSnapshot::maintain_cow`] empties
//! them after every write that replaced a site, since an exit set may
//! have changed with it.

pub mod engine;

use std::sync::OnceLock;

use ds_graph::{Cost, CsrGraph, INFINITE_COST};

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

    /// The closure of `skeleton` (over skeleton ids): one dense min-plus
    /// pass (Floyd–Warshall) over its B×B matrix. Iteration `k` relaxes
    /// every row `i` that reaches `k` by `k`'s own row — a row that does
    /// not is skipped, and since a finite cost plus [`INFINITE_COST`]
    /// (`Cost::MAX / 4`) cannot overflow, no entry leaves `[0, INF]`. A
    /// symmetric matrix (equal to its transpose) closes on its upper
    /// triangle: iteration `k` reads column `k` out of it and row `i`
    /// relaxes only the columns `j > i`; the lower triangle is mirrored
    /// at the end.
    pub fn close(skeleton: &CsrGraph) -> Self {
        let nb = skeleton.node_count();
        let mut costs = vec![INFINITE_COST; nb * nb];
        for e in skeleton.edges() {
            let slot = &mut costs[e.src.index() * nb + e.dst.index()];
            *slot = (*slot).min(e.cost);
        }
        for i in 0..nb {
            costs[i * nb + i] = 0;
        }
        let symmetric = (0..nb).all(|i| (0..i).all(|j| costs[i * nb + j] == costs[j * nb + i]));
        // Row `k` — on a symmetric matrix read as column `k`, the same
        // costs — which iteration `k` leaves as it is (its diagonal is 0).
        let mut via = vec![INFINITE_COST; nb];
        for k in 0..nb {
            if symmetric {
                for (j, cost) in via.iter_mut().enumerate() {
                    *cost = costs[j.min(k) * nb + j.max(k)];
                }
            } else {
                via.copy_from_slice(&costs[k * nb..][..nb]);
            }
            for i in 0..nb {
                let to = if symmetric { via[i] } else { costs[i * nb + k] };
                if to == INFINITE_COST {
                    continue;
                }
                let from = if symmetric { i + 1 } else { 0 };
                let row = &mut costs[i * nb + from..(i + 1) * nb];
                for (best, &rest) in row.iter_mut().zip(&via[from..]) {
                    *best = (*best).min(to + rest);
                }
            }
        }
        if symmetric {
            for i in 0..nb {
                for j in 0..i {
                    costs[i * nb + j] = costs[j * nb + i];
                }
            }
        }
        Hub { borders: nb, costs }
    }

    /// Number of borders (B).
    pub fn border_count(&self) -> usize {
        self.borders
    }

    /// The distances from the border with skeleton id `i`.
    pub fn row(&self, i: usize) -> &[Cost] {
        &self.costs[i * self.borders..][..self.borders]
    }

    /// The whole matrix, row-major: slot `i * B + j` is `dist(i, j)`.
    pub(crate) fn costs(&self) -> &[Cost] {
        &self.costs
    }

    /// The matrix, for the writes that keep it the closure.
    pub(crate) fn costs_mut(&mut self) -> &mut [Cost] {
        &mut self.costs
    }

    /// Heap bytes held.
    pub fn memory_bytes(&self) -> usize {
        self.costs.capacity() * std::mem::size_of::<Cost>()
    }
}

/// The hub folded into the exit sets: per skeleton id `b`, once a
/// materialization needed it, `dist(b, ·)` over every node of the
/// network — 0 at `b` itself, `INFINITE_COST` where no path runs. A
/// non-border node `x` reaches `d` at the cheapest `reach + row(b)[d]`
/// over `(b, reach)` in its access set, or along its border-free row.
#[derive(Clone, Debug, Default)]
pub struct BorderRows {
    rows: Box<[OnceLock<Box<[Cost]>>]>,
}

impl BorderRows {
    /// `borders` empty slots.
    pub(crate) fn new(borders: usize) -> Self {
        BorderRows {
            rows: (0..borders).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The row of the border with skeleton id `b`, if a call filled it.
    pub fn row(&self, b: usize) -> Option<&[Cost]> {
        self.rows.get(b)?.get().map(|row| &**row)
    }

    /// Fill the empty slot of `b`; `false` when a concurrent call filled
    /// it first (with the same row: it is a function of the epoch).
    pub(crate) fn set(&self, b: usize, row: Box<[Cost]>) -> bool {
        self.rows[b].set(row).is_ok()
    }

    /// Rows filled so far.
    pub fn filled(&self) -> usize {
        self.rows.iter().filter(|slot| slot.get().is_some()).count()
    }

    /// Heap bytes of the filled rows.
    pub fn memory_bytes(&self) -> usize {
        let rows = self.rows.iter().filter_map(OnceLock::get);
        rows.map(|row| std::mem::size_of_val(&**row)).sum()
    }
}
