//! Breadth-first traversals and the structural measures built on them:
//! hop distances, reachability, connected components, eccentricity and
//! diameter.
//!
//! The paper uses the *diameter* as the iteration bound of semi-naive
//! transitive closure ("the number of iterations required before reaching
//! a fixpoint is given by the maximum diameter of the graph", §2.1) and as
//! the workload proxy of the center-based algorithm (§3.1).
//!
//! The center-based algorithm's status score needs, for every node, the
//! grade sums of the nodes 1, 2 and 3 hops away. [`grade_sums_within`]
//! computes them for all nodes with one bit-parallel BFS per 64 sources,
//! stopped at the score's depth; [`grade_sums_by_distance`], one
//! whole-graph BFS per source, is the reference it is tested against.

use std::collections::VecDeque;

use crate::bitset::BitSet;
use crate::types::NodeId;
use crate::unionfind::UnionFind;
use crate::CsrGraph;

/// Hop distance (unweighted BFS) from `src` to every node.
/// `u32::MAX` marks unreachable nodes.
pub fn hop_distances(g: &CsrGraph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.node_count()];
    let mut queue = VecDeque::new();
    dist[src.index()] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for &t in g.out_targets(v) {
            if dist[t.index()] == u32::MAX {
                dist[t.index()] = dv + 1;
                queue.push_back(t);
            }
        }
    }
    dist
}

/// The set of nodes reachable from `src` (including `src` itself).
pub fn reachable_set(g: &CsrGraph, src: NodeId) -> BitSet {
    let mut seen = BitSet::new(g.node_count());
    let mut stack = vec![src];
    seen.insert(src.index());
    while let Some(v) = stack.pop() {
        for &t in g.out_targets(v) {
            if !seen.contains(t.index()) {
                seen.insert(t.index());
                stack.push(t);
            }
        }
    }
    seen
}

/// Whether `dst` can be reached from `src` by directed edges.
pub fn is_reachable(g: &CsrGraph, src: NodeId, dst: NodeId) -> bool {
    if src == dst {
        return true;
    }
    let mut seen = BitSet::new(g.node_count());
    let mut stack = vec![src];
    seen.insert(src.index());
    while let Some(v) = stack.pop() {
        for &t in g.out_targets(v) {
            if t == dst {
                return true;
            }
            if !seen.contains(t.index()) {
                seen.insert(t.index());
                stack.push(t);
            }
        }
    }
    false
}

/// Weakly connected components (edges treated as undirected).
/// Returns `(component_id_per_node, component_count)`.
pub fn weak_components(g: &CsrGraph) -> (Vec<u32>, usize) {
    let mut uf = UnionFind::new(g.node_count());
    for e in g.edges() {
        uf.union(e.src.index(), e.dst.index());
    }
    let mut label = vec![u32::MAX; g.node_count()];
    let mut next = 0u32;
    for v in 0..g.node_count() {
        let root = uf.find(v);
        if label[root] == u32::MAX {
            label[root] = next;
            next += 1;
        }
        label[v] = label[root];
    }
    (label, next as usize)
}

/// Eccentricity of `src`: the maximum finite hop distance from it.
/// Unreachable nodes are ignored (so this is the eccentricity within the
/// reachable component).
pub fn eccentricity(g: &CsrGraph, src: NodeId) -> u32 {
    hop_distances(g, src)
        .into_iter()
        .filter(|&d| d != u32::MAX)
        .max()
        .unwrap_or(0)
}

/// Exact diameter in hops: max over all nodes of [`eccentricity`].
///
/// O(V·(V+E)) — acceptable for the paper's graph sizes (≤ a few hundred
/// nodes). The paper uses the diameter both as the fixpoint iteration
/// bound and as a fragment workload measure.
pub fn diameter(g: &CsrGraph) -> u32 {
    g.nodes().map(|v| eccentricity(g, v)).max().unwrap_or(0)
}

/// Double-sweep lower bound on the diameter: BFS from `seed`, then BFS
/// from the farthest node found. Exact on trees; a fast, good lower bound
/// in general. Used where the exact diameter would dominate runtime.
pub fn diameter_double_sweep(g: &CsrGraph, seed: NodeId) -> u32 {
    let d1 = hop_distances(g, seed);
    let far = d1
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != u32::MAX)
        .max_by_key(|(_, &d)| d)
        .map(|(i, _)| NodeId::from_index(i))
        .unwrap_or(seed);
    eccentricity(g, far)
}

/// Sum of grades of nodes at exactly `d` hops from `i`, for d = 1..=depth:
/// the Σ nb(j, d) terms of the center-based status score (§3.1).
///
/// One whole-graph BFS from `i`: the reference [`grade_sums_within`] is
/// tested against.
pub fn grade_sums_by_distance(g: &CsrGraph, i: NodeId, depth: u32) -> Vec<u64> {
    let dist = hop_distances(g, i);
    let mut sums = vec![0u64; depth as usize];
    for v in g.nodes() {
        let d = dist[v.index()];
        if d >= 1 && d <= depth {
            sums[(d - 1) as usize] += g.out_degree(v) as u64;
        }
    }
    sums
}

/// [`grade_sums_by_distance`] of every node at once, row-major: the sums
/// of node `i` at 1..=`depth` hops are
/// `sums[i * depth..(i + 1) * depth]`.
///
/// A multi-source BFS in the style of Then et al., "The More the Merrier"
/// (VLDB 2015): 64 sources run at once as the bits of one `u64` per node,
/// only the nodes on a level's frontier are expanded, the search stops at
/// `depth`, and between batches only the words the batch touched are
/// cleared. A batch therefore costs the arcs out of the union of its 64
/// balls of radius `depth - 1`, and the whole kernel is linear in the
/// node count when the degree is bounded.
pub fn grade_sums_within(g: &CsrGraph, depth: u32) -> Vec<u64> {
    let n = g.node_count();
    let depth = depth as usize;
    let mut sums = vec![0u64; n * depth];
    if depth == 0 {
        return sums;
    }
    // Per node, the batch's sources that have reached it (`seen`), and
    // those that reached it on the current level (`level`) and the next.
    let mut seen = vec![0u64; n];
    let mut level = vec![0u64; n];
    let mut next = vec![0u64; n];
    let mut frontier: Vec<NodeId> = Vec::new();
    let mut next_frontier: Vec<NodeId> = Vec::new();
    // Every node `seen` holds bits for, cleared when the batch ends.
    let mut touched: Vec<NodeId> = Vec::new();
    for first in (0..n).step_by(64) {
        let batch = first..n.min(first + 64);
        for (bit, s) in batch.clone().enumerate() {
            seen[s] = 1 << bit;
            level[s] = 1 << bit;
            frontier.push(NodeId::from_index(s));
        }
        touched.extend_from_slice(&frontier);
        for d in 0..depth {
            for &v in &frontier {
                let bits = std::mem::take(&mut level[v.index()]);
                for &t in g.out_targets(v) {
                    let fresh = bits & !seen[t.index()];
                    if fresh != 0 {
                        if next[t.index()] == 0 {
                            next_frontier.push(t);
                        }
                        seen[t.index()] |= fresh;
                        next[t.index()] |= fresh;
                    }
                }
            }
            let mut level_sums = [0u64; 64];
            for &t in &next_frontier {
                let grade = g.out_degree(t) as u64;
                let mut bits = next[t.index()];
                while bits != 0 {
                    level_sums[bits.trailing_zeros() as usize] += grade;
                    bits &= bits - 1;
                }
            }
            for (s, &sum) in batch.clone().zip(&level_sums) {
                sums[s * depth + d] = sum;
            }
            touched.extend_from_slice(&next_frontier);
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next_frontier);
            std::mem::swap(&mut level, &mut next);
            if frontier.is_empty() {
                break;
            }
        }
        // The last level was never expanded: its bits are still set.
        for &v in &frontier {
            level[v.index()] = 0;
        }
        frontier.clear();
        for &v in &touched {
            seen[v.index()] = 0;
        }
        touched.clear();
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    /// 0 - 1 - 2 - 3 path (symmetric), plus isolated node 4.
    fn path4() -> CsrGraph {
        let mut edges = Vec::new();
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 3)] {
            edges.push(Edge::unit(NodeId(a), NodeId(b)));
            edges.push(Edge::unit(NodeId(b), NodeId(a)));
        }
        CsrGraph::from_edges(5, &edges)
    }

    #[test]
    fn hop_distances_on_path() {
        let g = path4();
        let d = hop_distances(&g, NodeId(0));
        assert_eq!(&d[..4], &[0, 1, 2, 3]);
        assert_eq!(d[4], u32::MAX, "isolated node unreachable");
    }

    #[test]
    fn reachability() {
        let g = path4();
        assert!(is_reachable(&g, NodeId(0), NodeId(3)));
        assert!(is_reachable(&g, NodeId(3), NodeId(0)));
        assert!(!is_reachable(&g, NodeId(0), NodeId(4)));
        assert!(
            is_reachable(&g, NodeId(4), NodeId(4)),
            "trivially reachable from self"
        );
        let set = reachable_set(&g, NodeId(1));
        assert_eq!(set.count_ones(), 4);
        assert!(!set.contains(4));
    }

    #[test]
    fn directed_reachability_is_one_way() {
        let g = CsrGraph::from_edges(2, &[Edge::unit(NodeId(0), NodeId(1))]);
        assert!(is_reachable(&g, NodeId(0), NodeId(1)));
        assert!(!is_reachable(&g, NodeId(1), NodeId(0)));
    }

    #[test]
    fn components() {
        let g = path4();
        let (labels, count) = weak_components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[3]);
        assert_ne!(labels[0], labels[4]);
    }

    #[test]
    fn diameter_of_path_is_length() {
        let g = path4();
        assert_eq!(diameter(&g), 3);
        assert_eq!(eccentricity(&g, NodeId(1)), 2);
        assert_eq!(
            diameter_double_sweep(&g, NodeId(1)),
            3,
            "double sweep exact on trees"
        );
    }

    #[test]
    fn diameter_of_empty_and_singleton() {
        assert_eq!(diameter(&CsrGraph::from_edges(0, &[])), 0);
        assert_eq!(diameter(&CsrGraph::from_edges(1, &[])), 0);
    }

    #[test]
    fn grade_sums_match_hand_computation() {
        let g = path4();
        // From node 0: d=1 -> node 1 (grade 2); d=2 -> node 2 (grade 2);
        // d=3 -> node 3 (grade 1).
        let sums = grade_sums_by_distance(&g, NodeId(0), 3);
        assert_eq!(sums, vec![2, 2, 1]);
        let all = grade_sums_within(&g, 3);
        assert_eq!(&all[..3], &[2, 2, 1]);
        assert_eq!(&all[12..], &[0, 0, 0], "the isolated node reaches nothing");
    }

    #[test]
    fn batched_grade_sums_equal_the_one_source_reference() {
        // Deterministic xorshift over sparse random digraphs of 1 to 200
        // nodes (one to four batches, and exactly one and two full ones):
        // self-loops, parallel arcs, isolated nodes and one-way arcs.
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let sizes = [1usize, 2, 63, 64, 65, 127, 128, 129, 200];
        for trial in 0..400usize {
            let nodes = match trial % 4 {
                0 => sizes[(trial / 4) % sizes.len()],
                _ => 1 + (next() % 200) as usize,
            };
            // Arcs only among the first `wired` nodes: the rest stay
            // isolated.
            let wired = 1 + (next() % nodes as u64);
            let mut edges = Vec::new();
            for _ in 0..next() % (3 * wired + 1) {
                let a = NodeId((next() % wired) as u32);
                let b = match next() % 8 {
                    0 => a,
                    _ => NodeId((next() % wired) as u32),
                };
                edges.push(Edge::unit(a, b));
                match next() % 4 {
                    0 => edges.push(Edge::unit(a, b)),
                    1 | 2 => edges.push(Edge::unit(b, a)),
                    _ => {}
                }
            }
            let g = CsrGraph::from_edges(nodes, &edges);
            let depth = (trial % 6) as u32;
            let all = grade_sums_within(&g, depth);
            assert_eq!(all.len(), nodes * depth as usize);
            for v in g.nodes() {
                let d = depth as usize;
                assert_eq!(
                    &all[v.index() * d..(v.index() + 1) * d],
                    &grade_sums_by_distance(&g, v, depth)[..],
                    "trial {trial}: {nodes} nodes, {} arcs, depth {depth}, node {v:?}",
                    edges.len()
                );
            }
        }
    }
}
