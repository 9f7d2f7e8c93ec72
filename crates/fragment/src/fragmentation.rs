//! The fragmentation model: fragments, shared border nodes, and the
//! partition invariant.
//!
//! §2.1: "R is partitioned into n fragments R_i, each stored at a
//! different computer or processor. This fragmentation induces a
//! partitioning of G into n subgraphs G_i. Disconnection sets DS_ij are
//! given by G_i ∩ G_j (they are thus sets of nodes)."
//!
//! Edges are *partitioned* (each tuple lives in exactly one fragment — the
//! "no redundant computation" property); nodes on fragment borders are
//! *shared*, and those shared nodes are the disconnection sets.

use std::collections::{BTreeMap, HashMap};

use ds_graph::{CsrGraph, Edge, NodeId};

use crate::error::FragError;
use crate::frag_graph::FragmentationGraph;
use crate::metrics::FragmentationMetrics;

/// Index of a fragment within a [`Fragmentation`].
pub type FragmentId = usize;

/// One fragment: an edge set plus its node set (edge endpoints and any
/// seed nodes the algorithm planted, e.g. centers or sweep starts).
#[derive(Clone, Debug)]
pub struct Fragment {
    id: FragmentId,
    edges: Vec<Edge>,
    /// Sorted, deduplicated node set.
    nodes: Vec<NodeId>,
}

impl Fragment {
    /// Build a fragment; the node set is the edge endpoints plus `seeds`.
    pub fn new(id: FragmentId, edges: Vec<Edge>, seeds: &[NodeId]) -> Self {
        let mut nodes = Vec::with_capacity(seeds.len() + 2 * edges.len());
        nodes.extend_from_slice(seeds);
        nodes.extend(edges.iter().flat_map(|e| [e.src, e.dst]));
        nodes.sort_unstable();
        nodes.dedup();
        Fragment { id, edges, nodes }
    }

    /// Fragment id.
    pub fn id(&self) -> FragmentId {
        self.id
    }

    /// The fragment's tuples.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of tuples — the paper's fragment-size measure `F`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Sorted node set.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Whether `v` belongs to this fragment.
    pub fn contains_node(&self, v: NodeId) -> bool {
        self.nodes.binary_search(&v).is_ok()
    }

    /// Add an edge to this fragment. Endpoints are inserted into the node
    /// set if new (note that growing the node set can change the
    /// disconnection sets — callers that must keep them fixed, like the
    /// engine's incremental updates, restrict to existing nodes).
    pub fn add_edge(&mut self, edge: Edge) {
        for v in [edge.src, edge.dst] {
            if let Err(pos) = self.nodes.binary_search(&v) {
                self.nodes.insert(pos, v);
            }
        }
        self.edges.push(edge);
    }

    /// Remove every edge matching the predicate; returns how many were
    /// removed. The node set is kept (nodes act like seeds), so
    /// disconnection sets are unaffected.
    pub fn remove_edges_matching(&mut self, pred: impl Fn(&Edge) -> bool) -> usize {
        let before = self.edges.len();
        self.edges.retain(|e| !pred(e));
        before - self.edges.len()
    }

    /// Local subgraph over the *global* node id space (symmetric
    /// expansion if requested), used for per-fragment measures.
    pub fn local_graph(&self, node_count: usize, symmetric: bool) -> CsrGraph {
        let mut edges = self.edges.clone();
        if symmetric {
            let rev: Vec<Edge> = self
                .edges
                .iter()
                .filter(|e| !e.is_loop())
                .map(|e| e.reversed())
                .collect();
            edges.extend(rev);
        }
        CsrGraph::from_edges(node_count, &edges)
    }

    /// The fragment's own graph over local ids — a node's id is its
    /// position in [`Fragment::nodes`] — with each tuple's reverse on
    /// `symmetric` networks (loops once).
    pub fn relabeled_graph(&self, symmetric: bool) -> CsrGraph {
        let local_of = |v| NodeId::from_index(self.nodes.binary_search(&v).expect("a node"));
        let mut edges = Vec::with_capacity(self.edges.len() * 2);
        for e in &self.edges {
            let e = Edge::new(local_of(e.src), local_of(e.dst), e.cost);
            edges.push(e);
            if symmetric && !e.is_loop() {
                edges.push(e.reversed());
            }
        }
        CsrGraph::from_edges(self.nodes.len(), &edges)
    }

    /// Diameter of this fragment in hops (symmetric view), the iteration
    /// bound of the paper's recursive subqueries: "if the graph is
    /// fragmented in n fragments of equal size, the diameter of each
    /// subgraph is highly reduced" (§2.1).
    ///
    /// Computed on the relabeled graph so cost is O(|V_i|·|E_i|).
    pub fn diameter(&self) -> u32 {
        ds_graph::traverse::diameter(&self.relabeled_graph(true))
    }
}

/// A complete fragmentation of a relation: the fragments plus the node
/// universe they live in.
#[derive(Clone, Debug)]
pub struct Fragmentation {
    node_count: usize,
    fragments: Vec<Fragment>,
}

impl Fragmentation {
    /// Assemble from per-fragment edge vectors and seed nodes.
    /// `seeds[i]` may be empty.
    pub fn new(node_count: usize, edge_sets: Vec<Vec<Edge>>, seeds: Vec<Vec<NodeId>>) -> Self {
        assert_eq!(edge_sets.len(), seeds.len(), "one seed list per fragment");
        let fragments = edge_sets
            .into_iter()
            .zip(seeds)
            .enumerate()
            .map(|(id, (edges, s))| Fragment::new(id, edges, &s))
            .collect();
        Fragmentation {
            node_count,
            fragments,
        }
    }

    /// Number of nodes in the underlying graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The fragments.
    pub fn fragments(&self) -> &[Fragment] {
        &self.fragments
    }

    /// Number of fragments.
    pub fn fragment_count(&self) -> usize {
        self.fragments.len()
    }

    /// One fragment by id.
    pub fn fragment(&self, id: FragmentId) -> &Fragment {
        &self.fragments[id]
    }

    /// Mutable access to one fragment (for update maintenance).
    pub fn fragment_mut(&mut self, id: FragmentId) -> &mut Fragment {
        &mut self.fragments[id]
    }

    /// The directed closure graph of the fragment union: every tuple of
    /// every fragment, plus its reverse on `symmetric` networks (loops
    /// once) — the global counterpart of [`Fragment::local_graph`].
    /// Parallel tuples owned by different fragments stay parallel edges.
    pub fn closure_graph(&self, symmetric: bool) -> CsrGraph {
        let tuples: usize = self.fragments.iter().map(Fragment::edge_count).sum();
        let mut edges = Vec::with_capacity(tuples * if symmetric { 2 } else { 1 });
        for e in self.fragments.iter().flat_map(Fragment::edges) {
            edges.push(*e);
            if symmetric && !e.is_loop() {
                edges.push(e.reversed());
            }
        }
        CsrGraph::from_edges(self.node_count, &edges)
    }

    /// Verify the partition invariant against the original relation:
    /// every input edge appears in exactly one fragment (as a multiset).
    pub fn validate(&self, original: &[Edge]) -> Result<(), FragError> {
        use std::collections::HashMap;
        let mut counts: HashMap<Edge, i64> = HashMap::new();
        for e in original {
            *counts.entry(*e).or_insert(0) += 1;
        }
        for f in &self.fragments {
            for e in f.edges() {
                *counts.entry(*e).or_insert(0) -= 1;
            }
        }
        let missing = counts
            .values()
            .filter(|&&c| c > 0)
            .map(|&c| c as usize)
            .sum();
        let duplicated = counts
            .values()
            .filter(|&&c| c < 0)
            .map(|&c| (-c) as usize)
            .sum();
        if missing > 0 || duplicated > 0 {
            return Err(FragError::NotAPartition {
                missing,
                duplicated,
            });
        }
        Ok(())
    }

    /// All fragments containing node `v` (≥ 2 entries means `v` is a
    /// border node).
    pub fn fragments_of_node(&self, v: NodeId) -> Vec<FragmentId> {
        self.fragments
            .iter()
            .filter(|f| f.contains_node(v))
            .map(|f| f.id())
            .collect()
    }

    /// The disconnection sets `DS_ij = V_i ∩ V_j` for `i < j`, non-empty
    /// only. Node lists are sorted.
    pub fn disconnection_sets(&self) -> BTreeMap<(FragmentId, FragmentId), Vec<NodeId>> {
        Membership::new(self).disconnection_sets()
    }

    /// The fragmentation graph G' (§2.1): one node per fragment, one edge
    /// per non-empty disconnection set.
    pub fn fragmentation_graph(&self) -> FragmentationGraph {
        Membership::new(self).fragmentation_graph()
    }

    /// Quality metrics (the columns of Tables 1–3).
    pub fn metrics(&self) -> FragmentationMetrics {
        FragmentationMetrics::compute(self)
    }
}

/// Which fragments hold each node, as one table: per node, the index of
/// its fragment set among the distinct sets (membership classes), each
/// set ascending. Class 0 is the empty set (a node in no fragment); the
/// others are numbered in order of their first node. The disconnection
/// sets, the fragmentation graph, the border list and a query
/// endpoint's fragments are all read off it.
#[derive(Clone, Debug)]
pub struct Membership {
    fragment_count: usize,
    /// Per node, its class.
    class_of: Vec<u32>,
    /// Class `c`'s fragments are `members[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    members: Vec<FragmentId>,
}

impl Membership {
    /// The table of `frag`'s node sets.
    pub fn new(frag: &Fragmentation) -> Self {
        let (n, fragments) = (frag.node_count(), frag.fragments());
        // Per node its fragments, ascending: a counting sort by node.
        let mut at = vec![0u32; n + 1];
        for &v in fragments.iter().flat_map(Fragment::nodes) {
            at[v.index() + 1] += 1;
        }
        for v in 0..n {
            at[v + 1] += at[v];
        }
        let (mut held, mut next) = (vec![0; at[n] as usize], at.clone());
        for f in fragments {
            for &v in f.nodes() {
                held[next[v.index()] as usize] = f.id();
                next[v.index()] += 1;
            }
        }
        let mut table = Membership {
            fragment_count: fragments.len(),
            class_of: Vec::with_capacity(n),
            starts: vec![0, 0],
            members: Vec::new(),
        };
        // Most nodes lie in one fragment: their class is found by
        // fragment id (0: none yet), the rest by their set.
        let mut single = vec![0; fragments.len()];
        let mut multi: HashMap<&[FragmentId], u32> = HashMap::new();
        for v in 0..n {
            let set = &held[at[v] as usize..at[v + 1] as usize];
            let class = match *set {
                [] => 0,
                [f] if single[f] > 0 => single[f],
                [f] => {
                    single[f] = table.push(set);
                    single[f]
                }
                _ => *multi.entry(set).or_insert_with(|| table.push(set)),
            };
            table.class_of.push(class);
        }
        table
    }

    /// Add a class holding `set`; returns its index.
    fn push(&mut self, set: &[FragmentId]) -> u32 {
        self.members.extend_from_slice(set);
        self.starts.push(self.members.len() as u32);
        (self.starts.len() - 2) as u32
    }

    /// The membership class of `v` (0 for a node in no fragment, or out
    /// of range): two nodes share a class exactly when
    /// [`Membership::fragments_of`] agrees on them.
    pub fn class_of(&self, v: NodeId) -> u32 {
        self.class_of.get(v.index()).copied().unwrap_or(0)
    }

    /// Number of classes, the empty one included.
    pub fn class_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// The fragments of class `c`, ascending.
    pub fn class(&self, c: u32) -> &[FragmentId] {
        let c = c as usize;
        &self.members[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// The fragments holding `v`, ascending.
    pub fn fragments_of(&self, v: NodeId) -> &[FragmentId] {
        self.class(self.class_of(v))
    }

    /// Whether `v` lies in two fragments or more.
    pub fn is_border(&self, v: NodeId) -> bool {
        self.fragments_of(v).len() >= 2
    }

    /// Every border node, ascending.
    pub fn borders(&self) -> Vec<NodeId> {
        (0..self.class_of.len())
            .map(NodeId::from_index)
            .filter(|&v| self.is_border(v))
            .collect()
    }

    /// The disconnection sets `DS_ij = V_i ∩ V_j` for `i < j`, non-empty
    /// only. Node lists are sorted.
    pub fn disconnection_sets(&self) -> BTreeMap<(FragmentId, FragmentId), Vec<NodeId>> {
        let mut ds: BTreeMap<_, Vec<NodeId>> = BTreeMap::new();
        for v in self.borders() {
            for pair in pairs(self.fragments_of(v)) {
                ds.entry(pair).or_default().push(v);
            }
        }
        ds
    }

    /// The fragmentation graph G' (§2.1): one node per fragment, one edge
    /// per non-empty disconnection set — read off the classes, not the
    /// nodes.
    pub fn fragmentation_graph(&self) -> FragmentationGraph {
        let classes = 0..self.class_count() as u32;
        let links = classes.flat_map(|c| pairs(self.class(c))).collect();
        FragmentationGraph::new(self.fragment_count, links)
    }

    /// Heap bytes held.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.class_of[..])
            + size_of_val(&self.starts[..])
            + size_of_val(&self.members[..])
    }
}

/// The pairs `(a, b)`, `a < b`, of an ascending fragment set.
fn pairs(set: &[FragmentId]) -> impl Iterator<Item = (FragmentId, FragmentId)> + '_ {
    let after = |k: usize| set[k + 1..].iter();
    (set.iter().enumerate()).flat_map(move |(k, &a)| after(k).map(move |&b| (a, b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs
            .iter()
            .map(|&(a, b)| Edge::unit(NodeId(a), NodeId(b)))
            .collect()
    }

    /// Path 0-1-2-3-4 split into [0-1, 1-2] and [2-3, 3-4]: DS_01 = {2}.
    fn path_split() -> Fragmentation {
        Fragmentation::new(
            5,
            vec![edges(&[(0, 1), (1, 2)]), edges(&[(2, 3), (3, 4)])],
            vec![vec![], vec![]],
        )
    }

    #[test]
    fn nodes_derived_from_edges_and_seeds() {
        let f = Fragment::new(0, edges(&[(0, 1)]), &[NodeId(7)]);
        assert_eq!(f.nodes(), &[NodeId(0), NodeId(1), NodeId(7)]);
        assert!(f.contains_node(NodeId(7)));
        assert!(!f.contains_node(NodeId(2)));
    }

    /// The node set is what an ordered set of the edge endpoints and the
    /// seeds gives: duplicates, loops and unsorted seeds included.
    #[test]
    fn nodes_equal_the_ordered_set_of_endpoints_and_seeds() {
        for case in 0..24u32 {
            let at = |k: u32| NodeId((k * 7919 + case * 31) % (5 + case));
            let edges: Vec<Edge> = (0..3 * case)
                .map(|k| Edge::new(at(2 * k), at(2 * k + 1), 1 + u64::from(k)))
                .collect();
            let seeds: Vec<NodeId> = (0..case % 4).map(|k| at(100 + k)).collect();
            let mut set: std::collections::BTreeSet<NodeId> = seeds.iter().copied().collect();
            set.extend(edges.iter().flat_map(|e| [e.src, e.dst]));
            let f = Fragment::new(0, edges, &seeds);
            assert!(f.nodes().iter().eq(&set), "case {case}");
        }
    }

    #[test]
    fn disconnection_sets_are_node_intersections() {
        let frag = path_split();
        let ds = frag.disconnection_sets();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[&(0, 1)], vec![NodeId(2)]);
        assert_eq!(frag.fragments_of_node(NodeId(2)), vec![0, 1]);
        assert_eq!(frag.fragments_of_node(NodeId(0)), vec![0]);
    }

    #[test]
    fn validate_accepts_exact_partition() {
        let frag = path_split();
        let all = edges(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert!(frag.validate(&all).is_ok());
    }

    #[test]
    fn validate_detects_missing_and_duplicates() {
        let frag = path_split();
        let with_extra = edges(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let err = frag.validate(&with_extra).unwrap_err();
        assert_eq!(
            err,
            FragError::NotAPartition {
                missing: 1,
                duplicated: 0
            }
        );

        let dup = Fragmentation::new(
            5,
            vec![edges(&[(0, 1), (1, 2)]), edges(&[(1, 2), (2, 3), (3, 4)])],
            vec![vec![], vec![]],
        );
        let all = edges(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let err = dup.validate(&all).unwrap_err();
        assert_eq!(
            err,
            FragError::NotAPartition {
                missing: 0,
                duplicated: 1
            }
        );
    }

    #[test]
    fn fragment_diameter_uses_symmetric_view() {
        let f = Fragment::new(0, edges(&[(0, 1), (1, 2)]), &[]);
        assert_eq!(f.diameter(), 2);
        let empty = Fragment::new(1, vec![], &[]);
        assert_eq!(empty.diameter(), 0);
    }

    #[test]
    fn three_way_shared_node() {
        // Star: node 0 shared by three fragments.
        let frag = Fragmentation::new(
            4,
            vec![edges(&[(0, 1)]), edges(&[(0, 2)]), edges(&[(0, 3)])],
            vec![vec![], vec![], vec![]],
        );
        let ds = frag.disconnection_sets();
        assert_eq!(ds.len(), 3);
        for key in [(0, 1), (0, 2), (1, 2)] {
            assert_eq!(ds[&key], vec![NodeId(0)], "DS{key:?}");
        }
    }

    #[test]
    fn fragmentation_graph_of_path_split_is_single_edge() {
        let fg = path_split().fragmentation_graph();
        assert_eq!(fg.fragment_count(), 2);
        assert!(fg.is_acyclic());
    }

    #[test]
    fn closure_graph_is_the_expanded_fragment_union() {
        let mut frag = path_split();
        assert_eq!(frag.closure_graph(false).edge_count(), 4);
        assert_eq!(frag.closure_graph(true).edge_count(), 8);
        // A loop has no reverse; a tuple two fragments own stays parallel.
        frag.fragment_mut(0)
            .add_edge(Edge::unit(NodeId(1), NodeId(1)));
        frag.fragment_mut(0)
            .add_edge(Edge::unit(NodeId(2), NodeId(3)));
        let g = frag.closure_graph(true);
        assert_eq!((g.node_count(), g.edge_count()), (5, 11));
        assert_eq!(g.out_targets(NodeId(2)), [NodeId(1), NodeId(3), NodeId(3)]);
    }

    #[test]
    fn local_graph_symmetric_expansion() {
        let f = Fragment::new(0, edges(&[(0, 1)]), &[]);
        assert_eq!(f.local_graph(2, false).edge_count(), 1);
        assert_eq!(f.local_graph(2, true).edge_count(), 2);
    }
}
