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
//!
//! ## Border distances in 32-bit words
//!
//! The hub (B×B) and the border rows (B·n) hold their distances in a
//! crate-private `u32` word whose infinity is `u32::MAX / 4`, half the
//! bytes of a [`Cost`]: the close, the write repair
//! ([`crate::updates`]) and the materializer's fold run on the words,
//! and every public read ([`Hub::cost`], [`Hub::row`],
//! [`BorderRows::row`]) widens them to [`Cost`], the word's infinity to
//! [`INFINITE_COST`]. Narrowing is exact because a network is admitted
//! only when `(n − 1) · c < u32::MAX / 4` for each edge cost `c`
//! ([`max_edge_cost`]): a shortest path is simple, so it has at most
//! n − 1 edges and every distance fits below the word's infinity, and
//! the sum of any two words at most that infinity cannot wrap. The
//! build asserts it ([`crate::EngineSnapshot::build`]); the builder and
//! every insert refuse an edge over it with a typed error.

pub mod engine;

use std::sync::OnceLock;

use ds_fragment::Fragmentation;
use ds_graph::{Cost, CsrGraph, INFINITE_COST};

/// What the hub and the border rows hold a distance in.
pub(crate) type Word = u32;

/// The word's "no path": sums of two words at most this cannot wrap.
pub(crate) const WORD_INF: Word = Word::MAX / 4;

/// A distance read as a [`Cost`]; anything at or above the word's
/// infinity (a sum with an unreachable term) is [`INFINITE_COST`].
#[inline(always)]
pub(crate) fn widen(word: Word) -> Cost {
    if word >= WORD_INF {
        INFINITE_COST
    } else {
        Cost::from(word)
    }
}

/// A distance stored as a word: [`INFINITE_COST`] (or above) is the
/// word's infinity, and every finite distance of an admitted network
/// (see [`max_edge_cost`]) fits below it.
#[inline(always)]
pub(crate) fn narrow(cost: Cost) -> Word {
    if cost >= INFINITE_COST {
        return WORD_INF;
    }
    debug_assert!(cost < Cost::from(WORD_INF), "distance {cost} over the word");
    cost as Word
}

/// The largest edge cost a network of `nodes` nodes admits: the largest
/// `c` with `(nodes − 1) · c < u32::MAX / 4`, so that every distance —
/// a simple path, at most `nodes − 1` edges — fits the hub's and the
/// border rows' 32-bit words. A network of at most one node has no path
/// of two edges and admits any cost.
pub fn max_edge_cost(nodes: usize) -> Cost {
    match nodes.saturating_sub(1) {
        0 => Cost::MAX,
        edges => (Cost::from(WORD_INF) - 1) / edges as Cost,
    }
}

/// The first edge cost of `frag` over [`max_edge_cost`] of its node
/// count, if there is one: a network the engine does not admit.
pub fn cost_over_limit(frag: &Fragmentation) -> Option<Cost> {
    let limit = max_edge_cost(frag.node_count());
    let mut costs = (frag.fragments().iter()).flat_map(|f| f.edges().iter().map(|e| e.cost));
    costs.find(|&cost| cost > limit)
}

/// Panics unless the engine admits `frag` (see [`max_edge_cost`]).
pub(crate) fn assert_admitted(frag: &Fragmentation) {
    if let Some(cost) = cost_over_limit(frag) {
        let (nodes, limit) = (frag.node_count(), max_edge_cost(frag.node_count()));
        panic!("an edge costs {cost}, over {limit}, the most a network of {nodes} nodes admits");
    }
}

/// The closure of the border skeleton: the global shortest distance
/// between every ordered pair of borders, over skeleton ids (a border's
/// position among every border, ascending). Held in 32-bit words (see
/// the module docs) and read as [`Cost`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hub {
    borders: usize,
    /// Row-major: 0 on the diagonal, the word's infinity where no path
    /// runs.
    words: Vec<Word>,
}

impl Hub {
    /// The hub from its rows, in skeleton-id order.
    pub(crate) fn from_rows(borders: usize, costs: impl Iterator<Item = Cost>) -> Self {
        let words: Vec<Word> = costs.map(narrow).collect();
        debug_assert_eq!(words.len(), borders * borders);
        Hub { borders, words }
    }

    /// The closure of `skeleton` (over skeleton ids): one dense min-plus
    /// pass (Floyd–Warshall) over its B×B matrix of words. Iteration `k`
    /// relaxes every row `i` that reaches `k` by `k`'s own row — a row
    /// that does not is skipped, and since a finite word plus the word's
    /// infinity (`u32::MAX / 4`) cannot overflow, no entry leaves `[0,
    /// INF]`. A symmetric matrix (equal to its transpose) closes on its
    /// upper triangle: iteration `k` reads column `k` out of it and row
    /// `i` relaxes only the columns `j > i`; the lower triangle is
    /// mirrored at the end.
    ///
    /// # Panics
    ///
    /// If a skeleton edge costs `u32::MAX / 4` or more: no admitted
    /// network (see [`max_edge_cost`]) has one.
    pub fn close(skeleton: &CsrGraph) -> Self {
        let nb = skeleton.node_count();
        let mut costs = vec![WORD_INF; nb * nb];
        for e in skeleton.edges() {
            assert!(
                e.cost < Cost::from(WORD_INF),
                "skeleton edge cost {} over the word",
                e.cost
            );
            let slot = &mut costs[e.src.index() * nb + e.dst.index()];
            *slot = (*slot).min(e.cost as Word);
        }
        for i in 0..nb {
            costs[i * nb + i] = 0;
        }
        let symmetric = (0..nb).all(|i| (0..i).all(|j| costs[i * nb + j] == costs[j * nb + i]));
        // Row `k` — on a symmetric matrix read as column `k`, the same
        // costs — which iteration `k` leaves as it is (its diagonal is 0).
        let mut via = vec![WORD_INF; nb];
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
                if to == WORD_INF {
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
        Hub {
            borders: nb,
            words: costs,
        }
    }

    /// Number of borders (B).
    pub fn border_count(&self) -> usize {
        self.borders
    }

    /// `dist(i, j)` between the borders with skeleton ids `i` and `j`
    /// ([`INFINITE_COST`] where no path runs).
    pub fn cost(&self, i: usize, j: usize) -> Cost {
        widen(self.words[i * self.borders + j])
    }

    /// The distances from the border with skeleton id `i`, widened.
    pub fn row(&self, i: usize) -> impl ExactSizeIterator<Item = Cost> + '_ {
        self.words(i).iter().map(|&word| widen(word))
    }

    /// Row `i` as stored.
    pub(crate) fn words(&self, i: usize) -> &[Word] {
        &self.words[i * self.borders..][..self.borders]
    }

    /// The whole matrix as stored, row-major: slot `i * B + j` is
    /// `dist(i, j)`.
    pub(crate) fn all_words(&self) -> &[Word] {
        &self.words
    }

    /// The matrix, for the writes that keep it the closure.
    pub(crate) fn words_mut(&mut self) -> &mut [Word] {
        &mut self.words
    }

    /// Heap bytes held: 4·B².
    pub fn memory_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<Word>()
    }
}

/// The hub folded into the exit sets: per skeleton id `b`, once a
/// materialization needed it, `dist(b, ·)` over every node of the
/// network — 0 at `b` itself, no path where none runs. A non-border node
/// `x` reaches `d` at the cheapest `reach + row(b)[d]` over `(b, reach)`
/// in its access set, or along its border-free row. Held in 32-bit
/// words, like the hub, and read as [`Cost`]s.
#[derive(Clone, Debug, Default)]
pub struct BorderRows {
    rows: Box<[OnceLock<Box<[Word]>>]>,
}

impl BorderRows {
    /// `borders` empty slots.
    pub(crate) fn new(borders: usize) -> Self {
        BorderRows {
            rows: (0..borders).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The row of the border with skeleton id `b`, if a call filled it,
    /// widened: [`INFINITE_COST`] where no path runs.
    pub fn row(&self, b: usize) -> Option<impl ExactSizeIterator<Item = Cost> + '_> {
        Some(self.words(b)?.iter().map(|&word| widen(word)))
    }

    /// Row `b` as stored, if a call filled it.
    pub(crate) fn words(&self, b: usize) -> Option<&[Word]> {
        self.rows.get(b)?.get().map(|row| &**row)
    }

    /// Fill the empty slot of `b`; `false` when a concurrent call filled
    /// it first (with the same row: it is a function of the epoch).
    pub(crate) fn set(&self, b: usize, row: Box<[Word]>) -> bool {
        self.rows[b].set(row).is_ok()
    }

    /// Rows filled so far.
    pub fn filled(&self) -> usize {
        self.rows.iter().filter(|slot| slot.get().is_some()).count()
    }

    /// Heap bytes of the filled rows: 4·n each.
    pub fn memory_bytes(&self) -> usize {
        let rows = self.rows.iter().filter_map(OnceLock::get);
        rows.map(|row| std::mem::size_of_val(&**row)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::NetworkUpdate;
    use crate::{baseline, EngineConfig, EngineSnapshot};
    use ds_fragment::Fragmentation;
    use ds_graph::{Edge, NodeId, ScratchDijkstra};
    use ds_relation::bulk::{FragmentPartition, MaterializeConfig};
    use ds_relation::tc;

    #[test]
    fn the_cost_limit_is_the_largest_cost_whose_paths_fit_the_word() {
        let word = Cost::from(WORD_INF);
        assert_eq!(max_edge_cost(0), Cost::MAX);
        assert_eq!(max_edge_cost(1), Cost::MAX);
        assert_eq!(max_edge_cost(2), word - 1);
        for n in [3, 12, 1_000, 1 << 20] {
            let (edges, c) = (n as Cost - 1, max_edge_cost(n));
            assert!(edges * c < word && edges * (c + 1) >= word, "{n} nodes");
        }
    }

    /// `n` nodes `0..n` in a line, every link of cost `cost`, cut into
    /// three fragments whose borders are `1` and `n - 2`, the farthest
    /// apart borders can be; `ring` closes it by `n - 1 -> 0` in the
    /// first fragment, which makes `n - 1` a border too.
    fn line(n: u32, cost: Cost, ring: bool) -> Fragmentation {
        let link = |a: u32, b: u32| Edge::new(NodeId(a), NodeId(b), cost);
        let mut first = vec![link(0, 1)];
        first.extend(ring.then(|| link(n - 1, 0)));
        let middle = (1..n - 2).map(|a| link(a, a + 1)).collect();
        let last = vec![link(n - 2, n - 1)];
        Fragmentation::new(n as usize, vec![first, middle, last], vec![vec![]; 3])
    }

    /// The hub, the border rows, the materialized relation and every
    /// point answer of `snap` equal Dijkstra over its closure graph (and
    /// semi-naive closure over the fragments' union), in `Cost`s.
    fn assert_exact(snap: &EngineSnapshot, label: &str) {
        let graph = snap.graph();
        let borders = snap.complementary().borders();
        let dijkstra = |x: NodeId, y: NodeId| {
            let cost = baseline::shortest_path_cost(graph, x, y);
            if x == y {
                Some(0)
            } else {
                cost
            }
        };
        let hub = snap.hub_handle();
        for (i, &a) in borders.iter().enumerate() {
            for (j, &b) in borders.iter().enumerate() {
                let want = dijkstra(a, b).unwrap_or(INFINITE_COST);
                assert_eq!(hub.cost(i, j), want, "{label}: hub {a:?} -> {b:?}");
            }
        }
        let (closure, _) = snap.materialize(&MaterializeConfig::default()).unwrap();
        let union = FragmentPartition::new(snap.fragmentation(), snap.is_symmetric());
        let (expected, _) = tc::seminaive_closure(&union.union_relation(), None);
        assert_eq!(closure.rows(), expected.rows(), "{label}: relation");
        for (b, &border) in borders.iter().enumerate() {
            let Some(row) = snap.border_rows().row(b) else {
                continue;
            };
            for (d, cost) in row.enumerate() {
                let want = dijkstra(border, NodeId(d as u32)).unwrap_or(INFINITE_COST);
                assert_eq!(cost, want, "{label}: border row {border:?} -> {d}");
            }
        }
        let mut scratch = ScratchDijkstra::new();
        for x in graph.nodes() {
            for y in graph.nodes().filter(|&y| y != x) {
                let got = snap.shortest_path(x, y, &mut scratch).cost;
                let want = baseline::shortest_path_cost(graph, x, y);
                assert_eq!(got, want, "{label}: {x:?} -> {y:?}");
            }
        }
    }

    /// A network whose every edge costs exactly the limit builds, and its
    /// longest distance, `(n − 1) · c`, lies just below the word's
    /// infinity: one more per edge would reach it. The hub, the border
    /// rows, the relation and the point answers equal Dijkstra's — on a
    /// line, and on a one-way ring whose closed walks cost `n · c`, more
    /// than a word holds — and stay so through an insert at the limit
    /// and its delete.
    #[test]
    fn a_network_at_the_cost_limit_closes_folds_and_answers_exactly() {
        let n = 12u32;
        let c = max_edge_cost(n as usize);
        let longest = Cost::from(n - 1) * c;
        assert!(
            longest < Cost::from(WORD_INF) && longest + Cost::from(n - 1) >= Cost::from(WORD_INF)
        );
        for (ring, symmetric) in [(false, true), (false, false), (true, false), (true, true)] {
            let label = format!("ring={ring} symmetric={symmetric}");
            let mut snap =
                EngineSnapshot::build(line(n, c, ring), symmetric, EngineConfig::default());
            let borders = snap.hub_handle().border_count();
            assert_eq!(borders, 2 + usize::from(ring), "{label}");
            assert_exact(&snap, &label);
            if !(ring && symmetric) {
                let far = snap.shortest_path(NodeId(0), NodeId(n - 1), &mut ScratchDijkstra::new());
                assert_eq!(far.cost, Some(longest), "{label}");
            }
            if ring && !symmetric {
                let (closure, _) = snap.materialize(&MaterializeConfig::default()).unwrap();
                let walk = Cost::from(n) * c;
                assert!(
                    walk >= Cost::from(WORD_INF),
                    "{label}: a walk over the word"
                );
                assert_eq!(closure.cost_of(NodeId(3), NodeId(3)), Some(walk), "{label}");
            }
            let mut scratch = ScratchDijkstra::new();
            let chord = Edge::new(NodeId(2), NodeId(n - 3), c);
            let insert = NetworkUpdate::Insert {
                edge: chord,
                owner: 1,
            };
            snap.maintain(&insert, &mut scratch).unwrap();
            assert_exact(&snap, &format!("{label}, chord inserted"));
            let remove = NetworkUpdate::Remove {
                src: chord.src,
                dst: chord.dst,
                owner: 1,
            };
            snap.maintain(&remove, &mut scratch).unwrap();
            assert_exact(&snap, &format!("{label}, chord deleted"));
        }
    }

    #[test]
    #[should_panic(expected = "the most a network of 12 nodes admits")]
    fn a_build_over_the_cost_limit_panics() {
        let c = max_edge_cost(12) + 1;
        EngineSnapshot::build(line(12, c, false), true, EngineConfig::default());
    }
}
