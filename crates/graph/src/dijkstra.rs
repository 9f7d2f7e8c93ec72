//! Dijkstra shortest paths (binary heap, non-negative integer costs).
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
//!   convenient, but each call allocates O(V);
//! * the reusable [`ScratchDijkstra`] kernel, whose generation-stamped
//!   arrays and heap persist across sweeps. Hot paths (per-query site
//!   subqueries, batch evaluation, update repair sweeps, the skeleton
//!   precompute) hold one scratch and run allocation-free in the steady
//!   state; [`ScratchStats`] counts reuse so tests can assert it.

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

/// A reusable Dijkstra kernel: generation-stamped `dist`/`parent` arrays
/// plus a persistent binary heap.
///
/// Resetting between sweeps costs O(1) — the generation counter is bumped
/// and stale entries are simply ignored — so a scratch held across many
/// sweeps performs zero heap allocations once its arrays have grown to
/// the largest graph seen. [`ScratchDijkstra::sweep_to_targets`] adds a
/// target-set early exit: the sweep stops as soon as every target node is
/// settled, which is what fragment-local border sweeps and site
/// subqueries need.
#[derive(Clone, Debug, Default)]
pub struct ScratchDijkstra {
    dist: Vec<Cost>,
    parent: Vec<u32>,
    /// `dist[v]`/`parent[v]` are valid iff `stamp[v] == generation`.
    stamp: Vec<u32>,
    /// Target membership for the current sweep (same stamping scheme;
    /// cleared to 0 as each target settles).
    target_stamp: Vec<u32>,
    generation: u32,
    heap: BinaryHeap<Reverse<(Cost, u32)>>,
    stats: ScratchStats,
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
        if self.dist.len() < n {
            self.dist.resize(n, 0);
            self.parent.resize(n, u32::MAX);
            self.stamp.resize(n, 0);
            self.target_stamp.resize(n, 0);
            self.stats.grows += 1;
        }
        if self.generation == u32::MAX {
            // Generation wrap: clear the stamps once, then restart.
            self.stamp.fill(0);
            self.target_stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.heap.clear();
        self.stats.sweeps += 1;
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
            let si = s.index();
            if self.stamp[si] != gen || c < self.dist[si] {
                self.stamp[si] = gen;
                self.dist[si] = c;
                self.parent[si] = u32::MAX;
                self.heap.push(Reverse((c, s.0)));
            }
        }
        while let Some(Reverse((d, v))) = self.heap.pop() {
            let vi = v as usize;
            if d > self.dist[vi] {
                continue; // stale heap entry
            }
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
                let ti = t.index();
                let nd = d + w;
                if self.stamp[ti] != gen || nd < self.dist[ti] {
                    self.stamp[ti] = gen;
                    self.dist[ti] = nd;
                    self.parent[ti] = v;
                    self.heap.push(Reverse((nd, t.0)));
                }
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
        self.stamp[src.index()] = gen;
        self.dist[src.index()] = 0;
        self.parent[src.index()] = u32::MAX;
        self.heap.push(Reverse((0, src.0)));
        while let Some(Reverse((d, v))) = self.heap.pop() {
            if d >= bound {
                return None; // nothing left on the heap is cheaper
            }
            if v == dst.0 {
                return Some(d);
            }
            if d > self.dist[v as usize] {
                continue; // stale heap entry
            }
            for (t, w) in g.neighbors(NodeId(v)) {
                let ti = t.index();
                let nd = d + w;
                if nd >= bound || blocked(t) {
                    continue;
                }
                if self.stamp[ti] != gen || nd < self.dist[ti] {
                    self.stamp[ti] = gen;
                    self.dist[ti] = nd;
                    self.parent[ti] = v;
                    self.heap.push(Reverse((nd, t.0)));
                }
            }
        }
        None
    }

    /// Cost to `v` in the latest sweep, or `None` if unreached.
    pub fn cost(&self, v: NodeId) -> Option<Cost> {
        let i = v.index();
        (i < self.dist.len() && self.stamp[i] == self.generation && self.dist[i] < INFINITE_COST)
            .then(|| self.dist[i])
    }

    /// Path from the nearest seed to `v` in the latest sweep. Only valid
    /// for nodes whose cost is final (any node after a full sweep; the
    /// targets after [`ScratchDijkstra::sweep_to_targets`]).
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        self.cost(v)?;
        let mut path = vec![v];
        let mut cur = v;
        loop {
            let p = self.parent[cur.index()];
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
            .map(|i| {
                if i < self.stamp.len() && self.stamp[i] == self.generation {
                    self.parent[i]
                } else {
                    u32::MAX
                }
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
/// arrays the returned tree owns.
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
