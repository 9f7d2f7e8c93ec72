//! The fragmentation graph G' (§2.1): "a node N_i for each fragment G_i
//! and an edge E_ij = (N_i, N_j) for each nonempty disconnection set
//! DS_ij."
//!
//! Its key property is *loose connectivity* — acyclicity — which makes the
//! chain of fragments between any two nodes unique. When the property does
//! not hold, "it is required to consider all possible chains of fragments
//! independently" (§2.1); [`FragmentationGraph::chains`] enumerates them.

use crate::fragmentation::FragmentId;
use ds_graph::UnionFind;

/// Undirected graph over fragments.
#[derive(Clone, Debug)]
pub struct FragmentationGraph {
    n: usize,
    /// Sorted `(i, j)` pairs with `i < j`, one per non-empty DS.
    links: Vec<(FragmentId, FragmentId)>,
    adj: Vec<Vec<FragmentId>>,
    /// Whether the links form a forest, decided once in
    /// [`FragmentationGraph::new`].
    acyclic: bool,
}

impl FragmentationGraph {
    /// Build from the number of fragments and the linked pairs.
    pub fn new(n: usize, mut links: Vec<(FragmentId, FragmentId)>) -> Self {
        for l in &mut links {
            if l.0 > l.1 {
                *l = (l.1, l.0);
            }
            assert!(l.1 < n, "link {l:?} references fragment >= {n}");
            assert_ne!(l.0, l.1, "self-link in fragmentation graph");
        }
        links.sort_unstable();
        links.dedup();
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &links {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut uf = UnionFind::new(n);
        let acyclic = links.iter().all(|&(a, b)| uf.union(a, b));
        FragmentationGraph {
            n,
            links,
            adj,
            acyclic,
        }
    }

    /// Number of fragments (nodes of G').
    pub fn fragment_count(&self) -> usize {
        self.n
    }

    /// The linked fragment pairs (edges of G'), sorted, `i < j`.
    pub fn links(&self) -> &[(FragmentId, FragmentId)] {
        &self.links
    }

    /// Fragments adjacent to `f`.
    pub fn neighbors(&self, f: FragmentId) -> &[FragmentId] {
        &self.adj[f]
    }

    /// "Loosely connected": the undirected fragmentation graph is a forest.
    /// This is the paper's precondition for the unique-chain property.
    pub fn is_acyclic(&self) -> bool {
        self.acyclic
    }

    /// All simple paths (chains of fragments) from `from` to `to`,
    /// capped at `max_chains` results and `max_len` fragments per chain.
    ///
    /// "For any two nodes in G there is only one chain of fragments"
    /// when G' is acyclic; otherwise every chain must be evaluated
    /// independently (§2.1). The caps keep pathological fragmentation
    /// graphs from exploding — the paper's prescribed escape hatch for
    /// that case is Parallel Hierarchical Evaluation (ref \[12\]).
    pub fn chains(
        &self,
        from: FragmentId,
        to: FragmentId,
        max_chains: usize,
        max_len: usize,
    ) -> Vec<Vec<FragmentId>> {
        let mut out = Vec::new();
        if from == to {
            out.push(vec![from]);
            return out;
        }
        let mut on_path = vec![false; self.n];
        let mut path = vec![from];
        on_path[from] = true;
        self.dfs_chains(to, max_chains, max_len, &mut path, &mut on_path, &mut out);
        out
    }

    fn dfs_chains(
        &self,
        to: FragmentId,
        max_chains: usize,
        max_len: usize,
        path: &mut Vec<FragmentId>,
        on_path: &mut [bool],
        out: &mut Vec<Vec<FragmentId>>,
    ) {
        if out.len() >= max_chains || path.len() > max_len {
            return;
        }
        let cur = *path.last().expect("path never empty");
        for &next in &self.adj[cur] {
            if on_path[next] {
                continue;
            }
            if next == to {
                if path.len() < max_len {
                    let mut chain = path.clone();
                    chain.push(to);
                    out.push(chain);
                    if out.len() >= max_chains {
                        return;
                    }
                }
                continue;
            }
            if path.len() + 1 > max_len {
                continue;
            }
            on_path[next] = true;
            path.push(next);
            self.dfs_chains(to, max_chains, max_len, path, on_path, out);
            path.pop();
            on_path[next] = false;
        }
    }

    /// The unique chain between two fragments if the graph is a forest and
    /// they are connected; `None` otherwise. BFS parent-chasing, O(V+E).
    pub fn unique_chain(&self, from: FragmentId, to: FragmentId) -> Option<Vec<FragmentId>> {
        if !self.acyclic {
            return None;
        }
        if from == to {
            return Some(vec![from]);
        }
        let mut parent = vec![usize::MAX; self.n];
        let mut queue = std::collections::VecDeque::from([from]);
        parent[from] = from;
        while let Some(v) = queue.pop_front() {
            for &w in &self.adj[v] {
                if parent[w] == usize::MAX {
                    parent[w] = v;
                    if w == to {
                        let mut chain = vec![to];
                        let mut cur = to;
                        while cur != from {
                            cur = parent[cur];
                            chain.push(cur);
                        }
                        chain.reverse();
                        return Some(chain);
                    }
                    queue.push_back(w);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_graph_is_acyclic_with_unique_chain() {
        // G1 - G2 - G3 - G4, the Fig. 2 shape.
        let fg = FragmentationGraph::new(4, vec![(0, 1), (1, 2), (2, 3)]);
        assert!(fg.is_acyclic());
        assert_eq!(fg.unique_chain(0, 3), Some(vec![0, 1, 2, 3]));
        assert_eq!(fg.chains(0, 3, 10, 10), vec![vec![0, 1, 2, 3]]);
        assert_eq!(fg.unique_chain(2, 2), Some(vec![2]));
    }

    #[test]
    fn cycle_detected_and_both_chains_found() {
        let fg = FragmentationGraph::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(!fg.is_acyclic());
        assert_eq!(
            fg.unique_chain(0, 2),
            None,
            "no unique chain in a cyclic graph"
        );
        let mut chains = fg.chains(0, 2, 10, 10);
        chains.sort();
        assert_eq!(chains, vec![vec![0, 1, 2], vec![0, 3, 2]]);
    }

    #[test]
    fn chains_respect_caps() {
        let fg = FragmentationGraph::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(fg.chains(0, 2, 1, 10).len(), 1);
        // Max length 2 fragments: no chain of 3 fragments fits.
        assert!(fg.chains(0, 2, 10, 2).is_empty());
    }

    #[test]
    fn disconnected_fragments_have_no_chain() {
        let fg = FragmentationGraph::new(4, vec![(0, 1), (2, 3)]);
        assert!(fg.is_acyclic());
        assert_eq!(fg.unique_chain(0, 3), None);
        assert!(fg.chains(0, 3, 10, 10).is_empty());
    }

    #[test]
    fn duplicate_and_reversed_links_deduplicated() {
        let fg = FragmentationGraph::new(3, vec![(1, 0), (0, 1), (1, 2)]);
        assert_eq!(fg.links(), &[(0, 1), (1, 2)]);
        assert_eq!(fg.neighbors(1), &[0, 2]);
    }

    #[test]
    fn same_fragment_chain_is_singleton() {
        let fg = FragmentationGraph::new(2, vec![(0, 1)]);
        assert_eq!(fg.chains(1, 1, 10, 10), vec![vec![1]]);
    }
}
