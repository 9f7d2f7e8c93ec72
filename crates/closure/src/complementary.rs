//! Complementary information: the precomputed border-to-border shortest
//! distances that make fragment-local evaluation exact.
//!
//! §2.1: "it is required to store in addition some complementary
//! information about the identity of border cities and the properties of
//! their connections … for the shortest path problem it is required to
//! precompute the shortest path among any two cities on the border
//! between two fragments. Complementary information about the
//! disconnection set DS_ij is stored at both sites storing the fragments
//! R_i and R_j."
//!
//! The distances are *global* shortest-path distances — that is what makes
//! a chain evaluation exact even when the true shortest path briefly
//! leaves the chain: "the shortest path might include nodes outside the
//! chain, however, their contribution is precomputed in the complementary
//! information" (footnote 3).
//!
//! ## The skeleton-overlay precompute
//!
//! The paper warns that "the pre-processing required for building the
//! complementary information" dominates the disconnection-set approach.
//! The naive precompute ([`ComplementaryInfo::compute_global_sweep`],
//! kept as the reference implementation) runs one **whole-graph**
//! Dijkstra per border node — O(B · (E + V log V)). The default
//! ([`ComplementaryInfo::compute`]) exploits the fragmentation structure
//! instead:
//!
//! 1. **Local sweeps** — per fragment, one Dijkstra *per border node of
//!    that fragment* over the fragment's induced subgraph only, with
//!    early exit once the fragment's other border nodes are settled.
//! 2. **Skeleton closure** — a tiny border-skeleton graph (one node per
//!    border city, one edge per locally connected border pair, weighted
//!    with the local distance) is closed with Dijkstra per skeleton
//!    node, yielding **exact** global border-to-border distances.
//! 3. **Lazy paths** — when paths are requested, shortcut routes are not
//!    materialized eagerly; they are stitched on demand from the
//!    skeleton hops and the fragment-local parent trees of step 1.
//!
//! Step 1's output is kept per fragment, behind its own `Arc`: the
//! skeleton edges its sweeps realize (and, with paths, their parent
//! trees). An effective edit marks *stale* every fragment whose node set
//! holds both of its endpoints — the sweeps run on the induced subgraph of
//! the global graph, so each such fragment sees the edge, not only its
//! owner. A maintenance fallback ([`crate::updates`]) then re-sweeps the
//! stale fragments alone, re-closes the skeleton and re-assembles the
//! tables; a site whose table comes out unchanged keeps its `Arc`. The
//! build is the same routine with every fragment stale: there is one
//! precompute path.
//!
//! Exactness: every global edge belongs to exactly one fragment and both
//! its endpoints lie in that fragment's node set, so any global shortest
//! path between border nodes decomposes at its border-node visits into
//! segments that each stay inside one fragment's induced subgraph — and
//! each segment is dominated by a skeleton edge of that fragment. A
//! border pair disconnected *locally* but connected globally is simply
//! served by the skeleton closure through other fragments; no global
//! re-sweep is ever needed, and the resulting shortcut tables are
//! bit-identical to the global-sweep reference (asserted per-tuple by
//! `tests/properties.rs`).
//!
//! Two scopes are provided:
//! * [`ComplementaryScope::PerDisconnectionSet`] — exactly the paper's
//!   rule: pairs within each `DS_ij`. Exact when the fragmentation graph
//!   is loosely connected (acyclic), the paper's stated assumption.
//! * [`ComplementaryScope::PerFragmentBorder`] — pairs over *all* border
//!   nodes of each fragment. A strict superset that stays exact on
//!   *cyclic* fragmentation graphs too (an excursion out of a fragment can
//!   then return through a different disconnection set; covering all
//!   border pairs of the fragment closes that hole). This is the default,
//!   and the extra storage is measured in the `ablation-crossing`
//!   experiments.
//!
//! ## One dense table per site
//!
//! What a site stores is a [`BorderTable`]: its fragment's border nodes
//! and a row-major cost matrix over them (diagonal 0, `INFINITE_COST`
//! where there is no tuple) — the form a site evaluates its subqueries
//! from, so [`crate::local::Site`] reads the same allocation in place.
//! The tuple view ([`ComplementaryInfo::shortcuts`]) is derived from it.
//! Because the slot of a pair exists whether or not a tuple does, insert
//! maintenance can *add* a tuple: a pair a disconnecting deletion dropped
//! (or a one-way network never joined) and a later insertion reconnects
//! is written at every site holding both borders, so each site keeps
//! exactly the tuples a from-scratch precompute would give it.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use ds_fragment::{FragmentId, Fragmentation};
use ds_graph::{
    dijkstra, Cost, CsrGraph, Edge, NodeId, ScratchDijkstra, SubgraphView, INFINITE_COST,
};

/// Which border pairs get a precomputed shortcut.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ComplementaryScope {
    /// Pairs within each disconnection set (the paper's rule; exact for
    /// loosely connected fragmentations).
    PerDisconnectionSet,
    /// All border-node pairs of each fragment (exact for any
    /// fragmentation).
    #[default]
    PerFragmentBorder,
}

/// Which precompute algorithm produced the tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PrecomputeStrategy {
    /// Fragment-local sweeps + border-skeleton closure (the default).
    #[default]
    Skeleton,
    /// One whole-graph Dijkstra per border node (the reference).
    GlobalSweep,
}

/// Per-phase wall-time accounting of one precompute, exposed through
/// `TcEngine::precompute_stats` so benches and tests can assert where
/// build time goes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrecomputeStats {
    pub strategy: PrecomputeStrategy,
    /// Time in the per-fragment local border sweeps (for the global-sweep
    /// reference: the whole-graph sweeps).
    pub local_sweeps_ns: u64,
    /// Time closing the border-skeleton graph (0 on the reference path).
    pub skeleton_close_ns: u64,
    /// Time assembling the per-site shortcut tables.
    pub assemble_ns: u64,
}

impl PrecomputeStats {
    /// Total accounted precompute time.
    pub fn total_ns(&self) -> u64 {
        self.local_sweeps_ns + self.skeleton_close_ns + self.assemble_ns
    }
}

/// One directed edge of the border-skeleton graph: a locally realized
/// border-to-border distance, remembering which fragment realizes it.
#[derive(Clone, Copy, Debug)]
struct SkelEdge {
    /// Skeleton (border-list) indices.
    src: u32,
    dst: u32,
    cost: Cost,
    frag: u32,
}

/// The per-fragment leftovers of the local-sweep phase that lazy path
/// stitching needs: the induced subgraph view, the fragment's border
/// nodes (sorted), and one parent tree per border source.
#[derive(Clone, Debug)]
struct FragTrees {
    view: SubgraphView,
    /// Sorted global ids of this fragment's border nodes; parallel to
    /// `parents`.
    borders: Vec<NodeId>,
    /// `parents[i]` is the local-id parent tree of the sweep rooted at
    /// `borders[i]` (`u32::MAX` = root / unreached).
    parents: Vec<Vec<u32>>,
}

impl FragTrees {
    fn memory_bytes(&self) -> usize {
        let ids = std::mem::size_of::<NodeId>();
        let trees: usize = self.parents.iter().map(|p| p.capacity()).sum();
        self.view.graph().memory_bytes()
            + (self.view.len() + self.borders.capacity()) * ids
            + trees * std::mem::size_of::<u32>()
    }
}

/// One fragment's local-sweep output, kept until an edit changes the
/// fragment's induced subgraph: the skeleton edges its sweeps realize
/// and, when paths are stored, the parent trees they left.
#[derive(Clone, Debug, Default)]
struct LocalSweeps {
    edges: Vec<SkelEdge>,
    trees: Option<FragTrees>,
}

impl LocalSweeps {
    fn memory_bytes(&self) -> usize {
        self.edges.capacity() * std::mem::size_of::<SkelEdge>()
            + self.trees.as_ref().map_or(0, FragTrees::memory_bytes)
    }
}

/// What the fragmentation's node sets fix — and no update changes a node
/// set — derived once by [`ComplementaryInfo::compute`] and shared by
/// every epoch of the lineage.
#[derive(Clone, Debug)]
struct Layout {
    /// Every border node, ascending; index = skeleton id.
    borders: Vec<NodeId>,
    /// Per site, the groups of borders whose pairs get a tuple (see
    /// `site_border_sets`).
    groups: Vec<Vec<Vec<NodeId>>>,
    /// Per site, the skeleton id of each border of its table, in table
    /// order.
    at: Vec<Vec<usize>>,
    /// Per skeleton node, the skeleton nodes its closure sweep must
    /// settle: its partners in some site group — the pairs the tables
    /// store.
    targets: Vec<Vec<u32>>,
}

impl Layout {
    fn new(frag: &Fragmentation, scope: ComplementaryScope) -> Self {
        let (groups, borders) = site_border_sets(frag, scope);
        let mut target_sets: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); borders.len()];
        for group in groups.iter().flatten() {
            let idx: Vec<u32> = group.iter().map(|v| position(&borders, v) as u32).collect();
            for &u in &idx {
                let partners = idx.iter().filter(|&&v| v != u);
                target_sets[u as usize].extend(partners);
            }
        }
        let at = (groups.iter())
            .map(|g| {
                (table_borders(g).iter())
                    .map(|v| position(&borders, v))
                    .collect()
            })
            .collect();
        Layout {
            borders,
            groups,
            at,
            targets: target_sets
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect(),
        }
    }
}

/// Lazy path storage for the skeleton strategy: shortcut routes are
/// stitched from skeleton hops and fragment-local parent trees on
/// demand. `overrides` holds routes replaced by update maintenance
/// (which must not consult the stale build-time trees).
#[derive(Clone, Debug)]
struct SkeletonPaths {
    /// The border list (index = skeleton id).
    layout: Arc<Layout>,
    /// Per fragment, the sweeps whose trees expand its skeleton hops.
    frags: Vec<Arc<LocalSweeps>>,
    edges: Vec<SkelEdge>,
    /// `via[s][t]` — index into `edges` of the skeleton edge that settles
    /// `t` in the closure sweep rooted at `s` (`u32::MAX` = none).
    via: Vec<Vec<u32>>,
    overrides: HashMap<(NodeId, NodeId), Vec<NodeId>>,
}

impl SkeletonPaths {
    fn stitch(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        if let Some(p) = self.overrides.get(&(u, v)) {
            return Some(p.clone());
        }
        let borders = &self.layout.borders;
        let su = borders.binary_search(&u).ok()?;
        let sv = borders.binary_search(&v).ok()?;
        if su == sv {
            // Self-pairs are never stored as shortcuts; answer exactly
            // like the eager (global-sweep) store does.
            return None;
        }
        // Walk the closure tree rooted at `su` back from `sv`, collecting
        // the skeleton hops in reverse.
        let mut hops: Vec<&SkelEdge> = Vec::new();
        let mut cur = sv;
        while cur != su {
            let idx = self.via[su][cur];
            if idx == u32::MAX {
                return None; // unreachable
            }
            let e = &self.edges[idx as usize];
            hops.push(e);
            cur = e.src as usize;
        }
        hops.reverse();
        // Expand each hop inside its providing fragment.
        let mut out = vec![u];
        for e in hops {
            let ft = (self.frags[e.frag as usize].trees.as_ref())
                .expect("a fragment that realizes a skeleton edge kept its trees");
            let src_global = borders[e.src as usize];
            let dst_global = borders[e.dst as usize];
            let bi = ft
                .borders
                .binary_search(&src_global)
                .expect("skeleton edge source is a border of its fragment");
            let tree = &ft.parents[bi];
            let src_local = ft.view.local_of(src_global).expect("border in view");
            let mut lc = ft.view.local_of(dst_global).expect("border in view");
            let mut seg = Vec::new();
            while lc != src_local {
                seg.push(ft.view.global_of(lc));
                lc = NodeId(tree[lc.index()]);
            }
            seg.reverse();
            out.extend(seg);
        }
        Some(out)
    }
}

/// Concrete routes backing the shortcut tuples, when requested.
#[derive(Clone, Debug)]
enum PathData {
    /// Every route materialized eagerly (global-sweep reference).
    Eager(HashMap<(NodeId, NodeId), Vec<NodeId>>),
    /// Routes stitched lazily from the skeleton (default).
    Lazy(SkeletonPaths),
}

impl PathData {
    fn get(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        match self {
            PathData::Eager(map) => map.get(&(u, v)).cloned(),
            PathData::Lazy(skel) => skel.stitch(u, v),
        }
    }

    fn set(&mut self, u: NodeId, v: NodeId, path: Vec<NodeId>) {
        match self {
            PathData::Eager(map) => {
                map.insert((u, v), path);
            }
            PathData::Lazy(skel) => {
                skel.overrides.insert((u, v), path);
            }
        }
    }
}

/// One site's complementary information in its only stored form: the
/// fragment's border nodes — as the fragmentation defines them, so a lone
/// border has a 1x1 table and a fragment without borders an empty one —
/// and the global shortest distances between them as a dense matrix.
/// [`ComplementaryInfo`] fills it, update maintenance rewrites its
/// entries, and the site ([`crate::local::Site`]) evaluates its
/// subqueries from the very same allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BorderTable {
    /// The border nodes (global ids), ascending.
    borders: Vec<NodeId>,
    /// Row-major over `borders`: diagonal 0, [`INFINITE_COST`] where no
    /// tuple is stored.
    costs: Vec<Cost>,
    /// Row-major like `costs`: the pairs the scope stores a tuple for.
    /// Empty when that is every pair — always on
    /// [`ComplementaryScope::PerFragmentBorder`]. An entry outside the
    /// scope stays `INFINITE_COST` for good: whatever maintenance wrote
    /// there would have to be kept a global distance by every later
    /// deletion repair, which only looks at stored tuples.
    in_scope: Vec<bool>,
}

impl BorderTable {
    /// The table, no tuple stored yet, of a site whose scope is the pairs
    /// within each of `groups` (each ascending): one group of all its
    /// borders covers every pair; several — one per adjacent
    /// disconnection set — leave the cross-set pairs out.
    fn for_groups(groups: &[Vec<NodeId>]) -> Self {
        let borders = table_borders(groups);
        let nb = borders.len();
        let mut costs = vec![INFINITE_COST; nb * nb];
        for i in 0..nb {
            costs[i * nb + i] = 0;
        }
        BorderTable {
            borders,
            costs,
            in_scope: vec![false; if groups.len() > 1 { nb * nb } else { 0 }],
        }
    }

    /// Store `cost` for the pair of the `i`-th and `j`-th border — which
    /// is what puts the pair in scope, connected or not.
    fn store(&mut self, i: usize, j: usize, cost: Cost) {
        let slot = i * self.borders.len() + j;
        self.costs[slot] = cost;
        if let Some(covered) = self.in_scope.get_mut(slot) {
            *covered = true;
        }
    }

    /// A table over `borders` (ascending) holding exactly `tuples`.
    #[cfg(test)]
    pub(crate) fn from_edges(borders: Vec<NodeId>, tuples: &[Edge]) -> Self {
        let mut table = BorderTable::for_groups(&[borders]);
        for e in tuples {
            let at = |v| position(&table.borders, v);
            table.store(at(&e.src), at(&e.dst), e.cost);
        }
        table
    }

    /// The border nodes (global ids), ascending.
    pub fn borders(&self) -> &[NodeId] {
        &self.borders
    }

    /// The whole matrix, row-major.
    pub fn costs(&self) -> &[Cost] {
        &self.costs
    }

    /// The distances from the `i`-th border.
    pub fn row(&self, i: usize) -> &[Cost] {
        let nb = self.borders.len();
        &self.costs[i * nb..(i + 1) * nb]
    }

    /// The stored tuples as shortcut edges, in (row, column) order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.borders.iter().enumerate().flat_map(move |(i, &u)| {
            (self.borders.iter().zip(self.row(i)).enumerate())
                .filter(move |&(j, (_, &cost))| j != i && cost < INFINITE_COST)
                .map(move |(_, (&v, &cost))| Edge::new(u, v, cost))
        })
    }

    /// Number of stored tuples.
    pub fn pair_count(&self) -> usize {
        self.edges().count()
    }

    /// Heap bytes held.
    pub fn memory_bytes(&self) -> usize {
        self.borders.capacity() * std::mem::size_of::<NodeId>()
            + self.costs.capacity() * std::mem::size_of::<Cost>()
            + self.in_scope.capacity()
    }

    fn covers(&self, slot: usize) -> bool {
        self.in_scope.get(slot).copied().unwrap_or(true)
    }
}

/// The precomputed complementary information: one [`BorderTable`] per
/// site, plus what a fallback needs to redo only part of the precompute.
///
/// Every table lives behind its own [`Arc`], which the site's evaluation
/// state holds too; so does every fragment's local-sweep output. Cloning
/// the whole structure (the serve writer's per-epoch copy-on-write
/// publication) costs a few refcount bumps per site, and update
/// maintenance — which goes through [`Arc::make_mut`], or replaces a
/// table only when its entries changed — detaches only the tables it
/// actually changes. Untouched sites stay pointer-shared with every
/// previous epoch (asserted by the structural-sharing property in
/// `tests/properties.rs`).
#[derive(Clone, Debug)]
pub struct ComplementaryInfo {
    tables: Vec<Arc<BorderTable>>,
    /// Per fragment, the output of its latest local sweeps; `None` while
    /// the fragment is *stale* — an edit changed its induced subgraph
    /// since (or it was never swept).
    local: Vec<Option<Arc<LocalSweeps>>>,
    layout: Arc<Layout>,
    /// Concrete global paths backing each shortcut (for route
    /// reconstruction), when requested. One shared block: path lookups
    /// are read-mostly, and maintenance detaches it at most once per
    /// epoch via `Arc::make_mut`.
    paths: Option<Arc<PathData>>,
    store_paths: bool,
    stats: PrecomputeStats,
}

/// Run the local border sweeps of one fragment: from each border node,
/// Dijkstra over the fragment's induced subgraph with early exit once
/// the fragment's other border nodes are settled.
fn local_sweeps_for_fragment(
    graph: &CsrGraph,
    frag: &Fragmentation,
    f: usize,
    borders: &[NodeId],
    store_trees: bool,
    scratch: &mut ScratchDijkstra,
) -> LocalSweeps {
    // The fragment's border nodes: its node set ∩ the global border set
    // (both sorted).
    let nodes = frag.fragment(f).nodes();
    let fborders: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|v| borders.binary_search(v).is_ok())
        .collect();
    if fborders.is_empty() {
        return LocalSweeps::default();
    }
    let view = SubgraphView::induced(graph, nodes);
    let local_borders: Vec<NodeId> = fborders
        .iter()
        .map(|&b| view.local_of(b).expect("border is a fragment node"))
        .collect();
    let skel_ids: Vec<u32> = fborders
        .iter()
        .map(|b| borders.binary_search(b).expect("border") as u32)
        .collect();
    let mut edges = Vec::new();
    let mut parents = Vec::new();
    let mut targets: Vec<NodeId> = Vec::with_capacity(local_borders.len());
    for (bi, _) in fborders.iter().enumerate() {
        // The other borders absorb: a local path through another border
        // contributes nothing the skeleton closure cannot compose, so
        // sweeps stop there. This keeps the sweeps shallow *and* the
        // skeleton sparse — only interior-adjacent border pairs become
        // skeleton edges.
        targets.clear();
        targets.extend(
            local_borders
                .iter()
                .enumerate()
                .filter(|&(ti, _)| ti != bi)
                .map(|(_, &t)| t),
        );
        if targets.is_empty() {
            // A lone border node yields no pairs and no skeleton edges.
            if store_trees {
                parents.push(vec![u32::MAX; view.len()]);
            }
            continue;
        }
        scratch.sweep_to_targets_absorbing(view.graph(), &[(local_borders[bi], 0)], &targets);
        for (ti, &t) in local_borders.iter().enumerate() {
            if ti == bi {
                continue;
            }
            if let Some(cost) = scratch.cost(t) {
                edges.push(SkelEdge {
                    src: skel_ids[bi],
                    dst: skel_ids[ti],
                    cost,
                    frag: f as u32,
                });
            }
        }
        if store_trees {
            parents.push(scratch.snapshot_parents(view.len()));
        }
    }
    let trees = store_trees.then_some(FragTrees {
        view,
        borders: fborders,
        parents,
    });
    LocalSweeps { edges, trees }
}

/// Close the skeleton graph: Dijkstra per skeleton node over `edges`
/// (sorted by source), remembering the realizing edge index.
/// `targets[s]` lists the skeleton nodes whose distance from `s` the
/// shortcut tables actually need (the borders sharing a site group with
/// `s`); each sweep stops as soon as all of them are settled. Returns the
/// distance matrix and, when requested, the `via` edge matrix for path
/// stitching — rows are final for every settled node, which includes
/// every needed pair and every intermediate skeleton hop on their paths.
fn close_skeleton(
    border_count: usize,
    edges: &[SkelEdge],
    targets: &[Vec<u32>],
    want_via: bool,
) -> (Vec<Vec<Cost>>, Vec<Vec<u32>>) {
    // `edges` is sorted by source: a node's out-edges are one range.
    let mut offsets = vec![0usize; border_count + 1];
    for e in edges {
        offsets[e.src as usize + 1] += 1;
    }
    for i in 0..border_count {
        offsets[i + 1] += offsets[i];
    }
    let mut dist_matrix = Vec::with_capacity(border_count);
    let mut via_matrix = Vec::with_capacity(if want_via { border_count } else { 0 });
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(Cost, u32)>> =
        std::collections::BinaryHeap::new();
    let mut is_target = vec![false; border_count];
    for s in 0..border_count {
        let mut remaining = 0usize;
        for &t in &targets[s] {
            if t as usize != s && !is_target[t as usize] {
                is_target[t as usize] = true;
                remaining += 1;
            }
        }
        if remaining == 0 {
            // No table pair needs this source (e.g. singleton
            // disconnection sets): skip the sweep entirely.
            dist_matrix.push(vec![INFINITE_COST; border_count]);
            if want_via {
                via_matrix.push(vec![u32::MAX; border_count]);
            }
            continue;
        }
        let mut dist = vec![INFINITE_COST; border_count];
        let mut via = vec![u32::MAX; border_count];
        dist[s] = 0;
        heap.clear();
        heap.push(std::cmp::Reverse((0, s as u32)));
        while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            if is_target[v as usize] {
                is_target[v as usize] = false;
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
            let (lo, hi) = (offsets[v as usize], offsets[v as usize + 1]);
            for (idx, e) in (lo..hi).zip(&edges[lo..hi]) {
                let nd = d + e.cost;
                if nd < dist[e.dst as usize] {
                    dist[e.dst as usize] = nd;
                    via[e.dst as usize] = idx as u32;
                    heap.push(std::cmp::Reverse((nd, e.dst)));
                }
            }
        }
        // Unsettled targets are unreachable; clear their marks for the
        // next source.
        for &t in &targets[s] {
            is_target[t as usize] = false;
        }
        dist_matrix.push(dist);
        if want_via {
            via_matrix.push(via);
        }
    }
    (dist_matrix, via_matrix)
}

/// Where `v` sits in the ascending border list `borders`.
fn position(borders: &[NodeId], v: &NodeId) -> usize {
    borders.binary_search(v).expect("a border of the list")
}

/// The borders of a site's table: the union of its groups, ascending.
fn table_borders(groups: &[Vec<NodeId>]) -> Vec<NodeId> {
    match groups {
        [all] => all.clone(),
        _ => (groups.iter().flatten().copied())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect(),
    }
}

/// The assemble phase of either strategy: per site, the table over the
/// union of its border groups, each ordered pair of each group filled
/// from `dist`, which is asked by position in `all_borders` (sorted).
fn assemble_tables<'a>(
    site_groups: &'a [Vec<Vec<NodeId>>],
    all_borders: &'a [NodeId],
    dist: impl Fn(usize, usize) -> Cost + 'a,
) -> impl Iterator<Item = BorderTable> + 'a {
    site_groups.iter().map(move |groups| {
        let mut table = BorderTable::for_groups(groups);
        for group in groups {
            // Per member: where it sits in the table, and in `all_borders`.
            let at: Vec<(usize, usize)> = group
                .iter()
                .map(|v| (position(&table.borders, v), position(all_borders, v)))
                .collect();
            for &(i, gi) in &at {
                for &(j, gj) in at.iter().filter(|&&(j, _)| j != i) {
                    table.store(i, j, dist(gi, gj));
                }
            }
        }
        table
    })
}

impl ComplementaryInfo {
    /// Precompute the complementary information for a fragmentation over
    /// `graph` (the directed closure graph) with the skeleton-overlay
    /// strategy (see the module docs).
    ///
    /// `store_paths` additionally retains the fragment-local parent trees
    /// and skeleton hop structure so full routes can be reconstructed
    /// later (lazily, per request).
    pub fn compute(
        graph: &CsrGraph,
        frag: &Fragmentation,
        scope: ComplementaryScope,
        store_paths: bool,
    ) -> Self {
        let mut comp = ComplementaryInfo::unswept(frag, scope, store_paths);
        comp.refresh(graph, frag, &mut ScratchDijkstra::new());
        comp
    }

    /// No table and no sweep yet: every fragment stale.
    fn unswept(frag: &Fragmentation, scope: ComplementaryScope, store_paths: bool) -> Self {
        let n = frag.fragment_count();
        ComplementaryInfo {
            tables: Vec::new(),
            local: vec![None; n],
            layout: Arc::new(Layout::new(frag, scope)),
            paths: None,
            store_paths,
            stats: PrecomputeStats::default(),
        }
    }

    /// The precompute over the stale fragments: re-sweep each locally
    /// (phase 1), close the skeleton of every fragment's kept sweeps
    /// (phase 2) and assemble every table (phase 3), rebuilding the lazy
    /// path structure as a build does. A site whose table comes out as it
    /// was keeps its `Arc`; returns the sites whose table changed (every
    /// site on the first call). The sweeps run on `scratch`.
    pub(crate) fn refresh(
        &mut self,
        graph: &CsrGraph,
        frag: &Fragmentation,
        scratch: &mut ScratchDijkstra,
    ) -> Vec<FragmentId> {
        let layout = Arc::clone(&self.layout);

        // Phase 1: fragment-local border sweeps, stale fragments only.
        let t0 = Instant::now();
        let mut local = Vec::with_capacity(self.local.len());
        for (f, kept) in self.local.iter_mut().enumerate() {
            let swept = kept.get_or_insert_with(|| {
                let out = local_sweeps_for_fragment(
                    graph,
                    frag,
                    f,
                    &layout.borders,
                    self.store_paths,
                    scratch,
                );
                Arc::new(out)
            });
            local.push(Arc::clone(swept));
        }
        // Every fragment containing both endpoints realizes a direct
        // border-border edge (induced subgraphs overlap on borders), so
        // parallel skeleton edges are common: keep only the cheapest per
        // (src, dst) — the sort makes the choice deterministic.
        let mut skel_edges: Vec<SkelEdge> = (local.iter())
            .flat_map(|l| l.edges.iter().copied())
            .collect();
        skel_edges.sort_by_key(|e| (e.src, e.dst, e.cost, e.frag));
        skel_edges.dedup_by_key(|e| (e.src, e.dst));
        let local_sweeps_ns = t0.elapsed().as_nanos() as u64;

        // Phase 2: close the border skeleton. Each closure sweep needs
        // only the source's group partners — the pairs the tables store.
        let t1 = Instant::now();
        let (dist_matrix, via) = close_skeleton(
            layout.borders.len(),
            &skel_edges,
            &layout.targets,
            self.store_paths,
        );
        let skeleton_close_ns = t1.elapsed().as_nanos() as u64;

        // Phase 3: assemble the per-site tables from the closed skeleton.
        let t2 = Instant::now();
        let mut changed = Vec::new();
        let tables = assemble_tables(&layout.groups, &layout.borders, |u, v| dist_matrix[u][v]);
        for (f, table) in tables.enumerate() {
            match self.tables.get_mut(f) {
                Some(kept) if **kept == table => continue,
                Some(kept) => *kept = Arc::new(table),
                None => self.tables.push(Arc::new(table)),
            }
            changed.push(f);
        }
        let assemble_ns = t2.elapsed().as_nanos() as u64;

        self.paths = self.store_paths.then(|| {
            Arc::new(PathData::Lazy(SkeletonPaths {
                layout,
                frags: local,
                edges: skel_edges,
                via,
                overrides: HashMap::new(),
            }))
        });
        self.stats = PrecomputeStats {
            strategy: PrecomputeStrategy::Skeleton,
            local_sweeps_ns,
            skeleton_close_ns,
            assemble_ns,
        };
        changed
    }

    /// Mark stale every fragment an effective edit between `u` and `v`
    /// reaches: each whose node set holds both endpoints, because its
    /// local sweeps ran on the induced subgraph of the global graph —
    /// which holds the edge whichever fragment owns it.
    pub(crate) fn mark_stale(&mut self, frag: &Fragmentation, u: NodeId, v: NodeId) {
        for f in frag.fragments() {
            if f.contains_node(u) && f.contains_node(v) {
                self.local[f.id()] = None;
            }
        }
    }

    /// The reference precompute: one whole-graph Dijkstra per border
    /// node, paths materialized eagerly. Produces tables identical to
    /// [`ComplementaryInfo::compute`]; kept for equivalence tests. It
    /// keeps no local sweeps, so every fragment stays stale.
    pub fn compute_global_sweep(
        graph: &CsrGraph,
        frag: &Fragmentation,
        scope: ComplementaryScope,
        store_paths: bool,
    ) -> Self {
        let mut comp = ComplementaryInfo::unswept(frag, scope, store_paths);
        let layout = Arc::clone(&comp.layout);
        let border_list = &layout.borders;

        // One global Dijkstra per border node, reused across all sets the
        // node appears in.
        let t0 = Instant::now();
        let dist_from: Vec<dijkstra::ShortestPaths> = border_list
            .iter()
            .map(|&b| dijkstra::single_source(graph, b))
            .collect();
        let local_sweeps_ns = t0.elapsed().as_nanos() as u64;

        let t2 = Instant::now();
        let tables = assemble_tables(&layout.groups, border_list, |u, v| {
            dist_from[u].cost(border_list[v]).unwrap_or(INFINITE_COST)
        });
        comp.tables = tables.map(Arc::new).collect();
        comp.paths = store_paths.then(|| {
            let mut paths = HashMap::new();
            for e in comp.tables.iter().flat_map(|t| t.edges()) {
                paths.entry((e.src, e.dst)).or_insert_with(|| {
                    let from = position(border_list, &e.src);
                    dist_from[from].path_to(e.dst).expect("cost is finite")
                });
            }
            Arc::new(PathData::Eager(paths))
        });
        let assemble_ns = t2.elapsed().as_nanos() as u64;
        comp.stats = PrecomputeStats {
            strategy: PrecomputeStrategy::GlobalSweep,
            local_sweeps_ns,
            skeleton_close_ns: 0,
            assemble_ns,
        };
        comp
    }

    /// Site `f`'s table, behind the handle its [`crate::local::Site`]
    /// holds as well. Two `ComplementaryInfo` values that return
    /// `Arc::ptr_eq` handles for a site physically share that site's
    /// table (structural sharing across snapshot epochs).
    pub fn table(&self, f: usize) -> &Arc<BorderTable> {
        &self.tables[f]
    }

    /// The tuples stored at site `f` as shortcut edges
    /// `(u, v, global_dist)`, in (row, column) order of its table.
    pub fn shortcuts(&self, f: usize) -> impl Iterator<Item = Edge> + '_ {
        self.tables[f].edges()
    }

    /// A deep copy that shares nothing with `self`: every per-site table,
    /// every fragment's kept sweeps and the path store get a fresh
    /// allocation. This is what a full
    /// per-epoch snapshot copy used to cost before structural sharing —
    /// kept as the baseline of the publication-cost bench, and useful to
    /// detach a snapshot from a shared lineage entirely.
    pub fn unshared_clone(&self) -> Self {
        ComplementaryInfo {
            tables: self
                .tables
                .iter()
                .map(|t| Arc::new((**t).clone()))
                .collect(),
            local: (self.local.iter())
                .map(|l| l.as_ref().map(|l| Arc::new((**l).clone())))
                .collect(),
            layout: Arc::new((*self.layout).clone()),
            paths: self.paths.as_ref().map(|p| Arc::new((**p).clone())),
            store_paths: self.store_paths,
            stats: self.stats,
        }
    }

    /// The concrete path behind shortcut `(u, v)`, if paths were stored.
    /// With the skeleton strategy the route is stitched on demand from
    /// the fragment-local parent trees (unless update maintenance has
    /// overridden it).
    pub fn path(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        self.paths.as_ref()?.get(u, v)
    }

    /// Whether concrete paths were stored.
    pub fn has_paths(&self) -> bool {
        self.paths.is_some()
    }

    /// Number of distinct border nodes.
    pub fn border_count(&self) -> usize {
        self.layout.borders.len()
    }

    /// Every border node, ascending: the order the repair rule's border
    /// distances are kept in (see [`ComplementaryInfo::refine`]).
    pub(crate) fn borders(&self) -> &[NodeId] {
        &self.layout.borders
    }

    /// Total shortcut tuples across all sites (the paper's "pre-computed
    /// information" volume): the finite off-diagonal entries.
    pub fn pair_count(&self) -> usize {
        self.tables.iter().map(|t| t.pair_count()).sum()
    }

    /// Heap bytes held by the tables.
    pub fn table_bytes(&self) -> usize {
        self.tables.iter().map(|t| t.memory_bytes()).sum()
    }

    /// Heap bytes held: the tables plus every fragment's kept local
    /// sweeps (their skeleton edges, and the parent trees with their
    /// subgraph views when paths are stored). The lazy path structure's
    /// skeleton hops and overrides are not counted.
    pub fn memory_bytes(&self) -> usize {
        let swept = self.local.iter().flatten().map(|l| l.memory_bytes());
        self.table_bytes() + swept.sum::<usize>()
    }

    /// Per-phase timing of the precompute that built these tables.
    pub fn precompute_stats(&self) -> PrecomputeStats {
        self.stats
    }

    /// Apply a refinement to every ordered border pair the scope covers,
    /// stored or not: `f((i, u), (j, v), cost)` — `i` and `j` the
    /// positions of `u` and `v` in [`ComplementaryInfo::borders`],
    /// `INFINITE_COST` = no tuple yet — returns the new cost (plus, when
    /// paths are stored, the new concrete path) or `None` to keep the
    /// entry. Returns per-site counts of entries that changed. Used by
    /// incremental insert maintenance (`dist' = min(dist, dist(a,u) + c +
    /// dist(v,b))`) — a pair the new connection joins for the first time
    /// gets its tuple at every site holding both borders.
    ///
    /// Sites with no changed entry keep their shared table untouched —
    /// `Arc::make_mut` detaches only the tables this refinement writes.
    pub(crate) fn refine(
        &mut self,
        f: impl Fn((usize, NodeId), (usize, NodeId), Cost) -> Option<(Cost, Option<Vec<NodeId>>)>,
    ) -> Vec<usize> {
        let mut changed = vec![0usize; self.tables.len()];
        let mut updates: Vec<(usize, Cost, Option<Vec<NodeId>>)> = Vec::new();
        for (site, changed_slot) in changed.iter_mut().enumerate() {
            let (table, at) = (&self.tables[site], &self.layout.at[site]);
            let nb = table.borders.len();
            updates.clear();
            for (i, &u) in table.borders.iter().enumerate() {
                for (j, &v) in table.borders.iter().enumerate() {
                    let slot = i * nb + j;
                    if i == j || !table.covers(slot) {
                        continue;
                    }
                    let cost = table.costs[slot];
                    if let Some((new_cost, new_path)) = f((at[i], u), (at[j], v), cost) {
                        debug_assert!(new_cost <= cost, "insertions only shorten paths");
                        if new_cost != cost {
                            updates.push((slot, new_cost, new_path));
                        }
                    }
                }
            }
            if updates.is_empty() {
                continue;
            }
            *changed_slot = updates.len();
            let table = Arc::make_mut(&mut self.tables[site]);
            for (slot, new_cost, new_path) in updates.drain(..) {
                if let (Some(data), Some(p)) = (self.paths.as_mut(), new_path) {
                    Arc::make_mut(data).set(table.borders[slot / nb], table.borders[slot % nb], p);
                }
                table.costs[slot] = new_cost;
            }
        }
        changed
    }

    /// Every row of every table, site by site: its border `u`, the
    /// position of `u` in [`ComplementaryInfo::borders`], the positions
    /// of the table's borders (its column order), and the row's costs.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (NodeId, usize, &[usize], &[Cost])> + '_ {
        (self.tables.iter().zip(&self.layout.at)).flat_map(|(table, at)| {
            (table.borders.iter().zip(at).enumerate())
                .map(move |(i, (&u, &gi))| (u, gi, &at[..], table.row(i)))
        })
    }

    /// Re-derive every tuple rooted at one of `sources` from the
    /// post-update `graph` (deletion repair: distances may have grown).
    ///
    /// One scratch sweep per source, read by that source's row at every
    /// site holding it; sources iterate in sorted order and the sweep
    /// state is reused. Returns per-site counts of tuples changed, or the
    /// first border pair that became unreachable — the caller must then
    /// fall back ([`crate::updates`]). All table writes are deferred until
    /// every sweep succeeded, so on `Err` the tables are untouched and
    /// untouched sites keep their shared (`Arc`) tables in every case.
    pub fn repair_sources(
        &mut self,
        graph: &CsrGraph,
        sources: &BTreeSet<NodeId>,
        scratch: &mut ScratchDijkstra,
    ) -> Result<Vec<usize>, (NodeId, NodeId)> {
        let mut changed = vec![0usize; self.tables.len()];
        let store = self.paths.is_some();
        let mut cost_changes: Vec<(usize, usize, Cost)> = Vec::new();
        let mut path_changes: Vec<(NodeId, NodeId, Vec<NodeId>)> = Vec::new();
        // The same (u, v) route backs every site storing that pair; one
        // replacement path per pair is enough.
        let mut path_seen: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for &s in sources {
            scratch.sweep(graph, &[(s, 0)]);
            for (site, table) in self.tables.iter().enumerate() {
                let Ok(i) = table.borders.binary_search(&s) else {
                    continue;
                };
                for (j, (&dst, &old)) in table.borders.iter().zip(table.row(i)).enumerate() {
                    if j == i || old == INFINITE_COST {
                        continue;
                    }
                    let Some(cost) = scratch.cost(dst) else {
                        return Err((s, dst));
                    };
                    if cost != old {
                        cost_changes.push((site, i * table.borders.len() + j, cost));
                    }
                    if store && path_seen.insert((s, dst)) {
                        // Even when the cost is unchanged, the stored path may
                        // have used the deleted connection (it was *a* shortest
                        // path); replace it with a currently valid one.
                        path_changes.push((s, dst, scratch.path_to(dst).expect("cost is finite")));
                    }
                }
            }
        }
        for (site, slot, cost) in cost_changes {
            Arc::make_mut(&mut self.tables[site]).costs[slot] = cost;
            changed[site] += 1;
        }
        if let Some(data) = self.paths.as_mut() {
            if !path_changes.is_empty() {
                let data = Arc::make_mut(data);
                for (u, v, p) in path_changes {
                    data.set(u, v, p);
                }
            }
        }
        Ok(changed)
    }
}

/// For each site, the groups of border nodes whose pairs get shortcuts:
/// one group per adjacent DS (paper scope) or a single group of all the
/// fragment's border nodes (fragment scope) — and all border nodes,
/// ascending.
fn site_border_sets(
    frag: &Fragmentation,
    scope: ComplementaryScope,
) -> (Vec<Vec<Vec<NodeId>>>, Vec<NodeId>) {
    let n = frag.fragment_count();
    let mut out: Vec<Vec<Vec<NodeId>>> = vec![Vec::new(); n];
    let ds = frag.disconnection_sets();
    match scope {
        ComplementaryScope::PerDisconnectionSet => {
            for (&(i, j), nodes) in &ds {
                out[i].push(nodes.clone());
                out[j].push(nodes.clone());
            }
        }
        ComplementaryScope::PerFragmentBorder => {
            let mut border_of: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); n];
            for (&(i, j), nodes) in &ds {
                border_of[i].extend(nodes.iter().copied());
                border_of[j].extend(nodes.iter().copied());
            }
            for (site, set) in border_of.into_iter().enumerate() {
                if !set.is_empty() {
                    out[site].push(set.into_iter().collect());
                }
            }
        }
    }
    let all: BTreeSet<NodeId> = ds.into_values().flatten().collect();
    (out, all.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_gen::deterministic::path;
    use ds_graph::Edge as GEdge;

    /// Path 0-1-2-3-4 fragmented [0-1,1-2] / [2-3,3-4]: border node 2.
    fn setup() -> (CsrGraph, Fragmentation) {
        let g = path(5);
        let edges = |pairs: &[(u32, u32)]| -> Vec<GEdge> {
            pairs
                .iter()
                .map(|&(a, b)| GEdge::unit(NodeId(a), NodeId(b)))
                .collect()
        };
        let frag = Fragmentation::new(
            5,
            vec![edges(&[(0, 1), (1, 2)]), edges(&[(2, 3), (3, 4)])],
            vec![vec![], vec![]],
        );
        (g.closure_graph(), frag)
    }

    #[test]
    fn single_border_node_yields_no_pairs() {
        let (g, frag) = setup();
        let comp =
            ComplementaryInfo::compute(&g, &frag, ComplementaryScope::PerDisconnectionSet, false);
        assert_eq!(comp.border_count(), 1);
        assert_eq!(comp.pair_count(), 0, "a singleton DS has no pairs");
        assert_eq!(comp.shortcuts(0).count(), 0);
        assert_eq!(comp.table(0).borders(), [NodeId(2)], "still a border");
    }

    #[test]
    fn two_border_nodes_get_global_distances() {
        // Cycle of 6 split into two halves sharing nodes 0 and 3.
        let g = ds_gen::deterministic::cycle(6);
        let edges = |pairs: &[(u32, u32)]| -> Vec<GEdge> {
            pairs
                .iter()
                .map(|&(a, b)| GEdge::unit(NodeId(a), NodeId(b)))
                .collect()
        };
        let frag = Fragmentation::new(
            6,
            vec![
                edges(&[(0, 1), (1, 2), (2, 3)]),
                edges(&[(3, 4), (4, 5), (5, 0)]),
            ],
            vec![vec![], vec![]],
        );
        let csr = g.closure_graph();
        let comp =
            ComplementaryInfo::compute(&csr, &frag, ComplementaryScope::PerDisconnectionSet, true);
        assert_eq!(comp.border_count(), 2);
        // Pairs (0,3) and (3,0) at both sites.
        assert_eq!(comp.pair_count(), 4);
        let shortcut = comp
            .shortcuts(0)
            .find(|e| e.src == NodeId(0) && e.dst == NodeId(3))
            .unwrap();
        assert_eq!(shortcut.cost, 3, "global distance around the cycle");
        let p = comp.path(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.len(), 4, "3 hops = 4 nodes");
        assert_eq!(p[0], NodeId(0));
        assert_eq!(p[3], NodeId(3));
    }

    #[test]
    fn fragment_border_scope_covers_cross_ds_pairs() {
        // Three fragments in a triangle of paths: fragment 0 borders both
        // 1 (node 2) and 2 (node 4). Fragment scope must add the (2,4)
        // pair at site 0; the per-DS scope must not.
        let edges = |pairs: &[(u32, u32)]| -> Vec<GEdge> {
            pairs
                .iter()
                .flat_map(|&(a, b)| {
                    [
                        GEdge::unit(NodeId(a), NodeId(b)),
                        GEdge::unit(NodeId(b), NodeId(a)),
                    ]
                })
                .collect()
        };
        let all = edges(&[(0, 2), (2, 3), (3, 4), (4, 0), (2, 4)]);
        let g = CsrGraph::from_edges(5, &all);
        let frag = Fragmentation::new(
            5,
            vec![
                edges(&[(0, 2), (4, 0)]),
                edges(&[(2, 3)]),
                edges(&[(3, 4), (2, 4)]),
            ],
            vec![vec![], vec![], vec![]],
        );
        let per_ds =
            ComplementaryInfo::compute(&g, &frag, ComplementaryScope::PerDisconnectionSet, false);
        let per_border =
            ComplementaryInfo::compute(&g, &frag, ComplementaryScope::PerFragmentBorder, false);
        let has_cross = |c: &ComplementaryInfo| {
            c.shortcuts(0)
                .any(|e| e.src == NodeId(2) && e.dst == NodeId(4))
        };
        assert!(per_border.pair_count() >= per_ds.pair_count());
        assert!(
            has_cross(&per_border),
            "fragment scope covers cross-DS border pairs"
        );
    }

    #[test]
    fn skeleton_matches_global_sweep_tables_and_paths() {
        let g = ds_gen::generate_transportation(&ds_gen::TransportationConfig::table1(), 5);
        let frag = ds_fragment::semantic::by_labels(
            g.nodes,
            &g.connections,
            g.cluster_of.as_ref().unwrap(),
            4,
            ds_fragment::CrossingPolicy::LowerBlock,
        )
        .unwrap();
        let csr = g.closure_graph();
        for scope in [
            ComplementaryScope::PerDisconnectionSet,
            ComplementaryScope::PerFragmentBorder,
        ] {
            let skel = ComplementaryInfo::compute(&csr, &frag, scope, true);
            let glob = ComplementaryInfo::compute_global_sweep(&csr, &frag, scope, true);
            assert_eq!(skel.border_count(), glob.border_count(), "{scope:?}");
            assert_eq!(skel.pair_count(), glob.pair_count(), "{scope:?}");
            for f in 0..frag.fragment_count() {
                assert_eq!(skel.table(f), glob.table(f), "{scope:?} site {f}");
                // Stitched paths are real paths of the right cost.
                for e in skel.shortcuts(f) {
                    let p = skel.path(e.src, e.dst).expect("path stored");
                    assert_eq!(*p.first().unwrap(), e.src);
                    assert_eq!(*p.last().unwrap(), e.dst);
                    let mut total = 0;
                    for hop in p.windows(2) {
                        total += csr
                            .neighbors(hop[0])
                            .filter(|(t, _)| *t == hop[1])
                            .map(|(_, c)| c)
                            .min()
                            .unwrap_or_else(|| panic!("{:?}->{:?} not an edge", hop[0], hop[1]));
                    }
                    assert_eq!(total, e.cost, "{scope:?} stitched path cost");
                }
            }
        }
    }

    #[test]
    fn precompute_stats_report_phases() {
        let (g, frag) = setup();
        let skel = ComplementaryInfo::compute(&g, &frag, ComplementaryScope::default(), false);
        assert_eq!(
            skel.precompute_stats().strategy,
            PrecomputeStrategy::Skeleton
        );
        assert!(skel.precompute_stats().total_ns() > 0);
        let glob = ComplementaryInfo::compute_global_sweep(
            &g,
            &frag,
            ComplementaryScope::default(),
            false,
        );
        assert_eq!(
            glob.precompute_stats().strategy,
            PrecomputeStrategy::GlobalSweep
        );
        assert_eq!(glob.precompute_stats().skeleton_close_ns, 0);
    }

    #[test]
    fn unreachable_border_pairs_are_skipped() {
        // Directed path 0 -> 1 -> 2; fragments [0->1] and [1->2]; border 1.
        // Add node 3 shared but unreachable: fragments [0->1, 3 seeded].
        let e01 = vec![GEdge::unit(NodeId(0), NodeId(1))];
        let e12 = vec![GEdge::unit(NodeId(1), NodeId(2))];
        let g = CsrGraph::from_edges(4, &[e01[0], e12[0]]);
        let frag = Fragmentation::new(4, vec![e01, e12], vec![vec![NodeId(3)], vec![NodeId(3)]]);
        let comp =
            ComplementaryInfo::compute(&g, &frag, ComplementaryScope::PerFragmentBorder, false);
        // Border nodes are 1 and 3; only pairs with finite global distance
        // are stored; 1 and 3 are mutually unreachable.
        assert_eq!(comp.border_count(), 2);
        assert_eq!(comp.pair_count(), 0);
    }
}
