//! Dijkstra shortest paths (non-negative integer costs).
//!
//! Used as: the per-fragment local evaluator (any "suitable
//! single-processor algorithm" may be chosen per §2.1), the global
//! baseline the disconnection set engine is validated against, and the
//! precomputation kernel for complementary information.
//!
//! Two forms are provided:
//!
//! * the one-shot functions [`single_source`] / [`multi_source`] /
//!   [`point_to_point`], which return an owned [`ShortestPaths`] tree —
//!   convenient, but each call allocates O(V). They keep the textbook
//!   lazy-deletion binary heap on purpose: they are the independent
//!   reference the scratch kernel is tested against (and the oracle of
//!   the global baseline);
//! * the reusable [`ScratchDijkstra`] kernel, whose generation-stamped
//!   arrays and indexed 4-ary heap persist across sweeps. Hot paths
//!   (per-query site subqueries, batch evaluation, update repair sweeps,
//!   the skeleton precompute, bulk materialization) hold one scratch and
//!   run allocation-free in the steady state; [`ScratchStats`] counts
//!   reuse so tests can assert it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::types::{Cost, NodeId, INFINITE_COST};
use crate::CsrGraph;

/// Result of a single-source shortest-path computation.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    source: NodeId,
    dist: Vec<Cost>,
    /// `parent[v]` is the predecessor of `v` on a shortest path from the
    /// source, or `u32::MAX` if `v` is a seed / unreachable.
    parent: Vec<u32>,
}

impl ShortestPaths {
    /// A representative source node of this tree (for multi-seed sweeps,
    /// the last seed; every seed is a root of the forest).
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Cost to `v`, or `None` if unreachable.
    pub fn cost(&self, v: NodeId) -> Option<Cost> {
        let d = self.dist[v.index()];
        (d < INFINITE_COST).then_some(d)
    }

    /// Raw distance array (`INFINITE_COST` marks unreachable).
    pub fn costs(&self) -> &[Cost] {
        &self.dist
    }

    /// The shortest path from the nearest seed to `v` as a node sequence
    /// (inclusive of both endpoints), or `None` if unreachable.
    ///
    /// For multi-seed sweeps the walk stops at whichever seed reached `v`
    /// cheapest — seeds are the parentless roots of the forest — not at
    /// the representative [`ShortestPaths::source`].
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[v.index()] >= INFINITE_COST {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        loop {
            let p = self.parent[cur.index()];
            if p == u32::MAX {
                break; // reached a seed
            }
            cur = NodeId(p);
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Reuse accounting for a [`ScratchDijkstra`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Sweeps run on this scratch.
    pub sweeps: u64,
    /// Times the stamped arrays had to grow (0 growths between two
    /// readings = every sweep in between ran allocation-free).
    pub grows: u64,
}

impl ScratchStats {
    /// Accumulate another scratch's counters — aggregating a pool of
    /// per-worker kernels into one report.
    pub fn merge(&mut self, other: ScratchStats) {
        self.sweeps += other.sweeps;
        self.grows += other.grows;
    }
}

/// What a sweep does with its target nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Targets {
    /// Stop once every target is settled.
    Settle,
    /// Stop once every target is settled, and expand none of them.
    Absorb,
    /// Expand none of them, and sweep on until the heap runs dry.
    Block,
}

/// Children per slot of [`ScratchDijkstra`]'s heap: half the depth of a
/// binary heap, and a slot's children sit side by side in memory.
const ARITY: usize = 4;

/// A reusable Dijkstra kernel: generation-stamped per-node state (cost,
/// parent, heap slot) plus a persistent indexed 4-ary heap.
///
/// Resetting between sweeps costs O(1) — the generation counter is bumped
/// and entries of older generations are simply ignored — so a scratch
/// held across many sweeps performs zero heap allocations once its arrays
/// have grown to the largest graph seen. The heap holds each reached,
/// unsettled node once, keyed by its `dist` alone: a cheaper path moves
/// the node up in place (decrease-key), so nothing stale is ever popped.
/// Among equal-cost nodes the settle order is the heap's, so parent trees
/// may pick any of several equal-cost paths; costs never depend on it.
/// [`ScratchDijkstra::sweep_to_targets`] adds a target-set early exit:
/// the sweep stops as soon as every target node is settled, which is what
/// fragment-local border sweeps and site subqueries need.
#[derive(Clone, Debug, Default)]
pub struct ScratchDijkstra {
    /// Per node, read and written together on every relaxation.
    mark: Vec<Mark>,
    /// Target membership for the current sweep (same stamping scheme;
    /// cleared to 0 as each target settles).
    target_stamp: Vec<u32>,
    generation: u32,
    /// Queued nodes, a 4-ary min-heap on `dist`. Each slot carries a copy
    /// of its node's `dist`, so a sift compares within this array.
    heap: Vec<(Cost, u32)>,
    stats: ScratchStats,
}

/// A node's state in one sweep: `dist` and `parent` are valid iff
/// `stamp == generation`, `pos` only while the node is queued.
#[derive(Clone, Copy, Debug, Default)]
struct Mark {
    dist: Cost,
    stamp: u32,
    /// Slot in the heap while the node is queued.
    pos: u32,
    /// Predecessor on the cheapest path found, `u32::MAX` for a seed.
    parent: u32,
}

impl ScratchDijkstra {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reuse accounting (sweeps run, array growths).
    pub fn stats(&self) -> ScratchStats {
        self.stats
    }

    /// Grow the arrays to cover `n` nodes and start a new generation.
    fn prepare(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, Mark::default());
            self.target_stamp.resize(n, 0);
            self.stats.grows += 1;
        }
        if self.generation == u32::MAX {
            // Generation wrap: clear the stamps once, then restart.
            self.mark.fill(Mark::default());
            self.target_stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.heap.clear();
        self.stats.sweeps += 1;
    }

    /// Offer `v` the cost `d` through `parent`. The common case — `v`
    /// already holds a cost no dearer — is one compare inlined into the
    /// caller's arc loop; anything else goes to [`Self::improve`].
    #[inline(always)]
    fn relax(&mut self, v: u32, d: Cost, parent: u32, gen: u32) {
        let mark = &self.mark[v as usize];
        if mark.stamp != gen || d < mark.dist {
            self.improve(v, d, parent, gen);
        }
    }

    /// Give `v` the cost `d` through `parent`: queue it when this
    /// generation first reaches it, else move it up in place. A settled
    /// node is never offered less than its cost (costs are non-negative),
    /// so a node whose cost falls is always queued.
    fn improve(&mut self, v: u32, d: Cost, parent: u32, gen: u32) {
        let mark = &mut self.mark[v as usize];
        let slot = if mark.stamp != gen {
            mark.stamp = gen;
            self.heap.push((d, v));
            self.heap.len() - 1
        } else {
            mark.pos as usize
        };
        mark.dist = d;
        mark.parent = parent;
        self.sift_up(v, d, slot);
    }

    /// Move `v` (cost `d`), whose slot is `i`, up past every dearer
    /// ancestor.
    #[inline]
    fn sift_up(&mut self, v: u32, d: Cost, mut i: usize) {
        while i > 0 {
            let up = (i - 1) / ARITY;
            let (ud, u) = self.heap[up];
            if ud <= d {
                break;
            }
            self.heap[i] = (ud, u);
            self.mark[u as usize].pos = i as u32;
            i = up;
        }
        self.heap[i] = (d, v);
        self.mark[v as usize].pos = i as u32;
    }

    /// Settle the cheapest queued node: take it off the heap, refill the
    /// root with the last slot and sift that down.
    #[inline]
    fn pop(&mut self) -> Option<(Cost, u32)> {
        let top = *self.heap.first()?;
        let (d, last) = self.heap.pop().expect("the heap is not empty");
        let n = self.heap.len();
        if n == 0 {
            return Some(top);
        }
        let mut i = 0;
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            let children = &self.heap[first..n.min(first + ARITY)];
            let mut child = first;
            let mut child_d = children[0].0;
            for (c, &(cd, _)) in children.iter().enumerate().skip(1) {
                if cd < child_d {
                    child = first + c;
                    child_d = cd;
                }
            }
            if child_d >= d {
                break;
            }
            let (_, u) = self.heap[child];
            self.heap[i] = (child_d, u);
            self.mark[u as usize].pos = i as u32;
            i = child;
        }
        self.heap[i] = (d, last);
        self.mark[last as usize].pos = i as u32;
        Some(top)
    }

    /// Full sweep from the `(node, initial_cost)` seed frontier.
    pub fn sweep(&mut self, g: &CsrGraph, seeds: &[(NodeId, Cost)]) {
        self.sweep_inner(g, seeds, &[], Targets::Settle);
    }

    /// Sweep with early exit: stops as soon as every node of `targets`
    /// is settled (or the reachable set is exhausted). Costs and paths of
    /// the targets are final; other nodes may be left half-relaxed.
    pub fn sweep_to_targets(&mut self, g: &CsrGraph, seeds: &[(NodeId, Cost)], targets: &[NodeId]) {
        self.sweep_inner(g, seeds, targets, Targets::Settle);
    }

    /// Like [`ScratchDijkstra::sweep_to_targets`], but targets are
    /// *absorbing*: when one settles, its outgoing edges are not relaxed.
    /// The resulting target costs are the shortest distances over paths
    /// whose interior avoids every target — the building block of
    /// skeleton/overlay constructions, where paths *through* another
    /// border node are recovered by composition instead. Seeds must not
    /// appear in `targets` (a seed's own edges must expand).
    pub fn sweep_to_targets_absorbing(
        &mut self,
        g: &CsrGraph,
        seeds: &[(NodeId, Cost)],
        targets: &[NodeId],
    ) {
        self.sweep_inner(g, seeds, targets, Targets::Absorb);
    }

    /// Full sweep in which the `blocked` nodes are settled but never
    /// expanded: every other node's cost is the cheapest path to it that
    /// enters no blocked node (a blocked node's own cost is the cheapest
    /// way *to* it). Seeds must not be blocked.
    pub fn sweep_blocked(&mut self, g: &CsrGraph, seeds: &[(NodeId, Cost)], blocked: &[NodeId]) {
        self.sweep_inner(g, seeds, blocked, Targets::Block);
    }

    fn sweep_inner(
        &mut self,
        g: &CsrGraph,
        seeds: &[(NodeId, Cost)],
        targets: &[NodeId],
        mode: Targets,
    ) {
        self.prepare(g.node_count());
        let gen = self.generation;
        let has_targets = !targets.is_empty();
        let mut remaining = 0usize;
        for &t in targets {
            let ti = t.index();
            if self.target_stamp[ti] != gen {
                self.target_stamp[ti] = gen;
                remaining += 1;
            }
        }
        for &(s, c) in seeds {
            self.relax(s.0, c, u32::MAX, gen);
        }
        while let Some((d, v)) = self.pop() {
            let vi = v as usize;
            if has_targets && self.target_stamp[vi] == gen {
                self.target_stamp[vi] = 0;
                remaining -= 1;
                if remaining == 0 && mode != Targets::Block {
                    break; // all targets settled; their entries are final
                }
                if mode != Targets::Settle {
                    continue; // settle the target but do not expand it
                }
            }
            for (t, w) in g.neighbors(NodeId(v)) {
                self.relax(t.0, d + w, v, gen);
            }
        }
    }

    /// Point-to-point sweep that keeps clear of `blocked` nodes and gives
    /// up at `bound`: the cost of the cheapest path from `src` to `dst`
    /// that enters no blocked node, if that cost is below `bound`.
    /// Blocked nodes are never relaxed into (`src` itself is exempt), and
    /// the sweep stops as soon as `dst` settles or the frontier reaches
    /// `bound` — so a caller that already holds an upper bound pays only
    /// for the region that could beat it.
    pub fn sweep_point_bounded(
        &mut self,
        g: &CsrGraph,
        src: NodeId,
        dst: NodeId,
        bound: Cost,
        blocked: impl Fn(NodeId) -> bool,
    ) -> Option<Cost> {
        self.prepare(g.node_count());
        let gen = self.generation;
        self.relax(src.0, 0, u32::MAX, gen);
        while let Some((d, v)) = self.pop() {
            if d >= bound {
                return None; // nothing left on the heap is cheaper
            }
            if v == dst.0 {
                return Some(d);
            }
            for (t, w) in g.neighbors(NodeId(v)) {
                let nd = d + w;
                if nd >= bound || blocked(t) {
                    continue;
                }
                self.relax(t.0, nd, v, gen);
            }
        }
        None
    }

    /// Cost to `v` in the latest sweep, or `None` if unreached.
    pub fn cost(&self, v: NodeId) -> Option<Cost> {
        let i = v.index();
        let mark = self.mark.get(i)?;
        (mark.stamp == self.generation && mark.dist < INFINITE_COST).then_some(mark.dist)
    }

    /// Path from the nearest seed to `v` in the latest sweep. Only valid
    /// for nodes whose cost is final (any node after a full sweep; the
    /// targets after [`ScratchDijkstra::sweep_to_targets`]).
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        self.cost(v)?;
        let mut path = vec![v];
        let mut cur = v;
        loop {
            let p = self.mark[cur.index()].parent;
            if p == u32::MAX {
                break;
            }
            cur = NodeId(p);
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Snapshot the parent pointers of the latest sweep over nodes
    /// `0..n` (`u32::MAX` for seeds and unreached nodes). Parent chains
    /// of settled nodes are final even after an early-exited sweep —
    /// every parent points at a node settled earlier.
    pub fn snapshot_parents(&self, n: usize) -> Vec<u32> {
        (0..n)
            .map(|i| match self.mark.get(i) {
                Some(m) if m.stamp == self.generation => m.parent,
                _ => u32::MAX,
            })
            .collect()
    }
}

/// Dijkstra from a single source over the whole graph.
pub fn single_source(g: &CsrGraph, src: NodeId) -> ShortestPaths {
    multi_source(g, &[(src, 0)])
}

/// Dijkstra seeded with several `(node, initial_cost)` pairs.
///
/// This is what a fragment subquery runs: the entry disconnection set is
/// the seed frontier, each border node carrying the best cost found so far
/// upstream ("disconnection sets act as some sort of keyhole", §2.2).
///
/// Deliberately a direct implementation rather than a throwaway
/// [`ScratchDijkstra`]: the one-shot form allocates exactly the two
/// arrays the returned tree owns, and its lazy-deletion binary heap
/// shares no code with the scratch kernel's indexed heap — it is the
/// reference that kernel is tested against, so a bug in one cannot hide
/// behind the other.
pub fn multi_source(g: &CsrGraph, seeds: &[(NodeId, Cost)]) -> ShortestPaths {
    let n = g.node_count();
    let mut dist = vec![INFINITE_COST; n];
    let mut parent = vec![u32::MAX; n];
    let mut heap: BinaryHeap<Reverse<(Cost, u32)>> = BinaryHeap::new();
    let mut source = NodeId(0);
    for &(s, c) in seeds {
        if c < dist[s.index()] {
            dist[s.index()] = c;
            heap.push(Reverse((c, s.0)));
        }
        source = s; // representative source
    }
    while let Some(Reverse((d, v))) = heap.pop() {
        let v = NodeId(v);
        if d > dist[v.index()] {
            continue; // stale heap entry
        }
        for (t, w) in g.neighbors(v) {
            let nd = d + w;
            if nd < dist[t.index()] {
                dist[t.index()] = nd;
                parent[t.index()] = v.0;
                heap.push(Reverse((nd, t.0)));
            }
        }
    }
    ShortestPaths {
        source,
        dist,
        parent,
    }
}

/// Dijkstra with early exit: stops as soon as `dst` is settled.
/// Returns the cost, or `None` if unreachable.
pub fn point_to_point(g: &CsrGraph, src: NodeId, dst: NodeId) -> Option<Cost> {
    let n = g.node_count();
    let mut dist = vec![INFINITE_COST; n];
    let mut heap: BinaryHeap<Reverse<(Cost, u32)>> = BinaryHeap::new();
    dist[src.index()] = 0;
    heap.push(Reverse((0, src.0)));
    while let Some(Reverse((d, v))) = heap.pop() {
        let v = NodeId(v);
        if v == dst {
            return Some(d);
        }
        if d > dist[v.index()] {
            continue;
        }
        for (t, w) in g.neighbors(v) {
            let nd = d + w;
            if nd < dist[t.index()] {
                dist[t.index()] = nd;
                heap.push(Reverse((nd, t.0)));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    /// Classic diamond: 0->1 (1), 0->2 (4), 1->2 (2), 1->3 (7), 2->3 (1).
    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(
            4,
            &[
                Edge::new(NodeId(0), NodeId(1), 1),
                Edge::new(NodeId(0), NodeId(2), 4),
                Edge::new(NodeId(1), NodeId(2), 2),
                Edge::new(NodeId(1), NodeId(3), 7),
                Edge::new(NodeId(2), NodeId(3), 1),
            ],
        )
    }

    #[test]
    fn single_source_costs() {
        let sp = single_source(&diamond(), NodeId(0));
        assert_eq!(sp.cost(NodeId(0)), Some(0));
        assert_eq!(sp.cost(NodeId(1)), Some(1));
        assert_eq!(sp.cost(NodeId(2)), Some(3)); // via 1, not direct 4
        assert_eq!(sp.cost(NodeId(3)), Some(4)); // 0-1-2-3
    }

    #[test]
    fn path_reconstruction() {
        let sp = single_source(&diamond(), NodeId(0));
        assert_eq!(
            sp.path_to(NodeId(3)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(sp.path_to(NodeId(0)).unwrap(), vec![NodeId(0)]);
    }

    #[test]
    fn unreachable_is_none() {
        let g = CsrGraph::from_edges(3, &[Edge::new(NodeId(0), NodeId(1), 1)]);
        let sp = single_source(&g, NodeId(0));
        assert_eq!(sp.cost(NodeId(2)), None);
        assert_eq!(sp.path_to(NodeId(2)), None);
        assert_eq!(point_to_point(&g, NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn point_to_point_matches_single_source() {
        let g = diamond();
        for dst in 0..4u32 {
            assert_eq!(
                point_to_point(&g, NodeId(0), NodeId(dst)),
                single_source(&g, NodeId(0)).cost(NodeId(dst))
            );
        }
    }

    #[test]
    fn multi_source_takes_best_seed() {
        let g = diamond();
        // Seed node 1 with cost 10 and node 2 with cost 0: node 3 should be
        // reached via node 2 at cost 1.
        let sp = multi_source(&g, &[(NodeId(1), 10), (NodeId(2), 0)]);
        assert_eq!(sp.cost(NodeId(3)), Some(1));
        assert_eq!(sp.cost(NodeId(1)), Some(10));
    }

    #[test]
    fn multi_source_duplicate_seeds_keep_min() {
        let g = diamond();
        let sp = multi_source(&g, &[(NodeId(0), 5), (NodeId(0), 2)]);
        assert_eq!(sp.cost(NodeId(0)), Some(2));
        assert_eq!(sp.cost(NodeId(3)), Some(6));
    }

    /// Regression: `path_to` for a node reached from a seed other than
    /// the representative source must stop at *that* seed instead of
    /// walking past a `u32::MAX` parent.
    #[test]
    fn multi_source_path_stops_at_nearest_seed() {
        let g = diamond();
        // Representative source is the last seed (node 1, cost 10), but
        // node 3 is reached from seed 2 at cost 1.
        let sp = multi_source(&g, &[(NodeId(2), 0), (NodeId(1), 10)]);
        assert_eq!(sp.source(), NodeId(1));
        assert_eq!(sp.cost(NodeId(3)), Some(1));
        assert_eq!(sp.path_to(NodeId(3)).unwrap(), vec![NodeId(2), NodeId(3)]);
        // A seed is its own (single-node) path.
        assert_eq!(sp.path_to(NodeId(2)).unwrap(), vec![NodeId(2)]);
    }

    #[test]
    fn zero_cost_edges_are_fine() {
        let g = CsrGraph::from_edges(
            3,
            &[
                Edge::new(NodeId(0), NodeId(1), 0),
                Edge::new(NodeId(1), NodeId(2), 0),
            ],
        );
        let sp = single_source(&g, NodeId(0));
        assert_eq!(sp.cost(NodeId(2)), Some(0));
    }

    #[test]
    fn scratch_matches_one_shot_across_reuses() {
        let g = diamond();
        let mut scratch = ScratchDijkstra::new();
        for src in 0..4u32 {
            scratch.sweep(&g, &[(NodeId(src), 0)]);
            let sp = single_source(&g, NodeId(src));
            for v in 0..4u32 {
                assert_eq!(scratch.cost(NodeId(v)), sp.cost(NodeId(v)), "{src}->{v}");
                assert_eq!(
                    scratch.path_to(NodeId(v)),
                    sp.path_to(NodeId(v)),
                    "{src}->{v}"
                );
            }
        }
        let stats = scratch.stats();
        assert_eq!(stats.sweeps, 4);
        assert_eq!(stats.grows, 1, "arrays grow once, then are reused");
    }

    #[test]
    fn scratch_early_exit_settles_targets() {
        let g = diamond();
        let mut scratch = ScratchDijkstra::new();
        scratch.sweep_to_targets(&g, &[(NodeId(0), 0)], &[NodeId(1), NodeId(2)]);
        assert_eq!(scratch.cost(NodeId(1)), Some(1));
        assert_eq!(scratch.cost(NodeId(2)), Some(3));
        assert_eq!(
            scratch.path_to(NodeId(2)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
        // Unreachable target: the sweep exhausts and reports None.
        let h = CsrGraph::from_edges(3, &[Edge::unit(NodeId(0), NodeId(1))]);
        scratch.sweep_to_targets(&h, &[(NodeId(0), 0)], &[NodeId(2)]);
        assert_eq!(scratch.cost(NodeId(2)), None);
        // The previous generation's entries are invisible now.
        assert_eq!(scratch.cost(NodeId(1)), Some(1));
    }

    #[test]
    fn bounded_point_sweep_avoids_blocked_nodes_and_respects_the_bound() {
        let g = diamond();
        let mut scratch = ScratchDijkstra::new();
        let open = |_: NodeId| false;
        // 0-1-2-3 costs 4; a bound at or below that finds nothing.
        assert_eq!(
            scratch.sweep_point_bounded(&g, NodeId(0), NodeId(3), INFINITE_COST, open),
            Some(4)
        );
        assert_eq!(
            scratch.sweep_point_bounded(&g, NodeId(0), NodeId(3), 5, open),
            Some(4)
        );
        assert_eq!(
            scratch.sweep_point_bounded(&g, NodeId(0), NodeId(3), 4, open),
            None
        );
        // Without node 2 the only way is 0-1-3 (8); without 1 it is 0-2-3 (5).
        let not = |b: u32| move |v: NodeId| v == NodeId(b);
        assert_eq!(
            scratch.sweep_point_bounded(&g, NodeId(0), NodeId(3), INFINITE_COST, not(2)),
            Some(8)
        );
        assert_eq!(
            scratch.sweep_point_bounded(&g, NodeId(0), NodeId(3), INFINITE_COST, not(1)),
            Some(5)
        );
        // The source is exempt, a blocked destination is never entered.
        assert_eq!(
            scratch.sweep_point_bounded(&g, NodeId(1), NodeId(3), INFINITE_COST, not(1)),
            Some(3)
        );
        assert_eq!(
            scratch.sweep_point_bounded(&g, NodeId(0), NodeId(3), INFINITE_COST, not(3)),
            None
        );
        assert_eq!(
            scratch.sweep_point_bounded(&g, NodeId(2), NodeId(2), INFINITE_COST, open),
            Some(0)
        );
        assert_eq!(scratch.stats().sweeps, 8);
    }

    #[test]
    fn blocked_sweep_settles_blocked_nodes_without_expanding_them() {
        let g = diamond();
        let mut scratch = ScratchDijkstra::new();
        let costs = |scratch: &ScratchDijkstra| -> Vec<Option<Cost>> {
            (0..4).map(|v| scratch.cost(NodeId(v))).collect()
        };
        // Nothing blocked: a full sweep.
        scratch.sweep_blocked(&g, &[(NodeId(0), 0)], &[]);
        assert_eq!(costs(&scratch), [Some(0), Some(1), Some(3), Some(4)]);
        // Node 2 is reached (0-1-2, 3) but leads nowhere: 3 only by 0-1-3.
        scratch.sweep_blocked(&g, &[(NodeId(0), 0)], &[NodeId(2)]);
        assert_eq!(costs(&scratch), [Some(0), Some(1), Some(3), Some(8)]);
        // Without passing 1 the way is 0-2-3; the sweep goes on past the
        // last blocked node it settles.
        scratch.sweep_blocked(&g, &[(NodeId(0), 0)], &[NodeId(1)]);
        assert_eq!(costs(&scratch), [Some(0), Some(1), Some(4), Some(5)]);
        // A blocked node is still the cheapest way to itself.
        scratch.sweep_blocked(&g, &[(NodeId(0), 0)], &[NodeId(1), NodeId(2)]);
        assert_eq!(costs(&scratch), [Some(0), Some(1), Some(4), None]);
        // The stamps of the blocked set do not leak into the next sweep.
        scratch.sweep_to_targets(&g, &[(NodeId(0), 0)], &[NodeId(3)]);
        assert_eq!(scratch.cost(NodeId(3)), Some(4));
        assert_eq!(scratch.stats().sweeps, 5);
        assert_eq!(scratch.stats().grows, 1);
    }

    /// SplitMix64: the seeded stream behind the differential tests.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn node(&mut self, n: usize) -> NodeId {
            NodeId::from_index(self.below(n))
        }

        fn subset(&mut self, n: usize, from: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
            let picked = (0..n).map(NodeId::from_index).filter(|&v| from(v));
            picked.filter(|_| self.below(3) == 0).collect()
        }
    }

    /// A random graph with zero-cost and parallel edges and self-loops,
    /// and the bound `split` of its seed region: a node below `split`
    /// has edges only to nodes below it, so whatever lies above is
    /// unreachable from a seed drawn below.
    fn random_graph(mix: &mut Mix) -> (CsrGraph, usize) {
        let n = 1 + mix.below(40);
        let split = 1 + mix.below(n);
        let mut edges = Vec::new();
        for _ in 0..mix.below(4 * n + 1) {
            let a = mix.node(n);
            let b = mix.node(if a.index() < split { split } else { n });
            let cost = |mix: &mut Mix| {
                if mix.below(3) == 0 {
                    0
                } else {
                    mix.below(9) as Cost
                }
            };
            edges.push(Edge::new(a, b, cost(mix)));
            if mix.below(6) == 0 {
                edges.push(Edge::new(a, b, cost(mix)));
            }
            if mix.below(12) == 0 {
                edges.push(Edge::new(a, a, cost(mix)));
            }
        }
        (CsrGraph::from_edges(n, &edges), split)
    }

    /// `g` without the edges `keep` refuses.
    fn filtered(g: &CsrGraph, keep: impl Fn(&Edge) -> bool) -> CsrGraph {
        let edges: Vec<Edge> = g.edges().filter(|e| keep(e)).collect();
        CsrGraph::from_edges(g.node_count(), &edges)
    }

    /// `v`'s parent chain in the latest sweep is a real path of its
    /// cost: it starts at a seed at that seed's cost, every step is an
    /// edge that adds exactly its cost, and no step leaves a node of
    /// `unexpanded`. The snapshot agrees with the chain.
    fn assert_chain(
        g: &CsrGraph,
        scratch: &ScratchDijkstra,
        seeds: &[(NodeId, Cost)],
        v: NodeId,
        unexpanded: &[NodeId],
    ) {
        let path = scratch.path_to(v).expect("reached");
        let cost = |u: NodeId| scratch.cost(u).expect("on a chain, so reached");
        let seed_cost = seeds.iter().filter(|&&(s, _)| s == path[0]);
        assert_eq!(seed_cost.map(|&(_, c)| c).min(), Some(cost(path[0])));
        for step in path.windows(2) {
            let (a, b) = (step[0], step[1]);
            assert!(!unexpanded.contains(&a), "{a:?} was expanded on {path:?}");
            let edge = g
                .neighbors(a)
                .any(|(t, w)| t == b && cost(a) + w == cost(b));
            assert!(
                edge,
                "no edge {a:?} -> {b:?} of the step's cost on {path:?}"
            );
        }
        let parents = scratch.snapshot_parents(g.node_count());
        let parent = path.len().checked_sub(2).map_or(u32::MAX, |i| path[i].0);
        assert_eq!(parents[v.index()], parent);
    }

    /// Every mode of one scratch against the lazy-heap reference
    /// [`multi_source`] on a graph edited to mean the same thing: an
    /// absorbed or blocked node loses its out-edges, a node a point sweep
    /// keeps clear of loses its in-edges.
    fn check_every_mode(scratch: &mut ScratchDijkstra, mix: &mut Mix) {
        let (g, split) = random_graph(mix);
        let n = g.node_count();
        let mut seeds: Vec<(NodeId, Cost)> = (0..1 + mix.below(3))
            .map(|_| (mix.node(split), mix.below(5) as Cost))
            .collect();
        if mix.below(4) == 0 {
            seeds.push((seeds[0].0, mix.below(5) as Cost)); // a duplicate seed
        }
        let nodes = || (0..n).map(NodeId::from_index);
        let is_seed = |v: NodeId| seeds.iter().any(|&(s, _)| s == v);

        scratch.sweep(&g, &seeds);
        let reference = multi_source(&g, &seeds);
        for v in nodes() {
            assert_eq!(scratch.cost(v), reference.cost(v), "sweep, {v:?}");
            if reference.cost(v).is_some() {
                assert_chain(&g, scratch, &seeds, v, &[]);
            }
        }

        let targets = mix.subset(n, |_| true);
        scratch.sweep_to_targets(&g, &seeds, &targets);
        for &t in &targets {
            assert_eq!(scratch.cost(t), reference.cost(t), "targets, {t:?}");
            if reference.cost(t).is_some() {
                assert_chain(&g, scratch, &seeds, t, &[]);
            }
        }

        let stops = mix.subset(n, |v| !is_seed(v));
        let cut = filtered(&g, |e| !stops.contains(&e.src));
        let reference = multi_source(&cut, &seeds);
        scratch.sweep_to_targets_absorbing(&g, &seeds, &stops);
        for &t in &stops {
            assert_eq!(scratch.cost(t), reference.cost(t), "absorbing, {t:?}");
            if reference.cost(t).is_some() {
                assert_chain(&g, scratch, &seeds, t, &stops);
            }
        }
        scratch.sweep_blocked(&g, &seeds, &stops);
        for v in nodes() {
            assert_eq!(scratch.cost(v), reference.cost(v), "blocked, {v:?}");
            if reference.cost(v).is_some() {
                assert_chain(&g, scratch, &seeds, v, &stops);
            }
        }

        let (src, dst) = (mix.node(n), mix.node(n));
        let avoid = mix.subset(n, |_| true);
        let bound = [INFINITE_COST, mix.below(12) as Cost][mix.below(2)];
        let clear = filtered(&g, |e| !avoid.contains(&e.dst));
        let reference = multi_source(&clear, &[(src, 0)]).cost(dst);
        assert_eq!(
            scratch.sweep_point_bounded(&g, src, dst, bound, |v| avoid.contains(&v)),
            reference.filter(|&c| c < bound),
            "point {src:?} -> {dst:?} below {bound}"
        );
    }

    #[test]
    fn every_scratch_mode_equals_the_lazy_heap_reference() {
        let mut mix = Mix(0x5EED);
        let mut scratch = ScratchDijkstra::new();
        for _ in 0..400 {
            check_every_mode(&mut scratch, &mut mix);
        }
        assert_eq!(scratch.stats().sweeps, 400 * 5);
    }

    /// A wrap restarts the generation at 1, which the first sweeps of
    /// this scratch stamped too: every slot they left (cost, parent,
    /// heap position, target mark) must stay invisible after the wrap.
    #[test]
    fn a_generation_wrap_leaves_no_stale_slot_visible() {
        let mut mix = Mix(0x3A9);
        let mut scratch = ScratchDijkstra::new();
        for _ in 0..20 {
            check_every_mode(&mut scratch, &mut mix);
        }
        scratch.generation = u32::MAX - 7;
        for _ in 0..20 {
            check_every_mode(&mut scratch, &mut mix);
        }
        assert!(scratch.generation < 100, "the generation wrapped");
    }

    #[test]
    fn scratch_shrinking_graphs_reuse_arrays() {
        let big = diamond();
        let small = CsrGraph::from_edges(2, &[Edge::unit(NodeId(0), NodeId(1))]);
        let mut scratch = ScratchDijkstra::new();
        scratch.sweep(&big, &[(NodeId(0), 0)]);
        scratch.sweep(&small, &[(NodeId(0), 0)]);
        assert_eq!(scratch.cost(NodeId(1)), Some(1));
        assert_eq!(scratch.stats().grows, 1, "smaller graph reuses arrays");
        // Entries of the bigger graph's generation are invisible now.
        assert_eq!(scratch.cost(NodeId(3)), None);
        assert_eq!(scratch.snapshot_parents(2), vec![u32::MAX, 0]);
    }
}
