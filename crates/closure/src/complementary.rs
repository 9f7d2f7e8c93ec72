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
//!    skeleton hops and the fragment-local parent trees of step 1. One
//!    store serves every route: maintenance writes the routes it changes
//!    into the same store as overrides, and the reference writes all of
//!    its routes there.
//!
//! Step 1's output is kept per fragment, behind its own `Arc`: the
//! skeleton edges its sweeps realize (and, with paths, their parent
//! trees). An effective edit marks *stale* every fragment whose node set
//! holds both of its endpoints — the sweeps run on the induced subgraph of
//! the global graph, so each such fragment sees the edge, not only its
//! owner. Every deletion ([`crate::updates`]) then re-sweeps the stale
//! fragments alone — only when some source is affected — re-closes the
//! skeleton from the sources the deletion affects and rewrites their rows;
//! a site whose table comes out unchanged keeps its `Arc`. The build is
//! the same routine with every fragment stale and every source affected:
//! there is one precompute path, and one deletion repair.
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

use ds_fragment::Fragmentation;
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

/// Per-phase wall-time accounting of one precompute — the build, or the
/// last deletion's refresh that redid part of it — exposed through
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
    /// Time writing the closed rows into the per-site shortcut tables
    /// (and, on a deletion's refresh with stored paths, their routes).
    pub assemble_ns: u64,
    /// Skeleton sources the skeleton was closed from: every border on a
    /// build, the sources the deleted edge could have carried on a
    /// deletion's refresh (0 on the reference path).
    pub sources_closed: usize,
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

/// The route store: shortcut routes are stitched from skeleton hops and
/// fragment-local parent trees on demand. `overrides` holds routes
/// written since (by update maintenance, which must not consult the
/// stale build-time trees, or by the global-sweep reference, which keeps
/// no skeleton hops and writes every route there).
#[derive(Clone, Debug)]
struct SkeletonPaths {
    /// The border list (index = skeleton id).
    layout: Arc<Layout>,
    /// Per fragment, the sweeps whose trees expand its skeleton hops.
    frags: Vec<Arc<LocalSweeps>>,
    edges: Vec<SkelEdge>,
    /// `via[s][t]` — index into `edges` of the skeleton edge that settles
    /// `t` in the closure sweep rooted at `s` (`u32::MAX` = none). Empty
    /// when there are no skeleton hops.
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
            // Self-pairs are never stored as shortcuts.
            return None;
        }
        stitch(borders, &self.frags, &self.edges, self.via.get(su)?, su, sv)
    }
}

/// The route from skeleton node `su` to `sv` along the closure sweep
/// rooted at `su` (`via`, its row of realizing edge indices into
/// `edges`), each skeleton hop expanded inside its providing fragment
/// from that fragment's local parent trees. `None` when `sv` was not
/// reached.
fn stitch(
    borders: &[NodeId],
    frags: &[Arc<LocalSweeps>],
    edges: &[SkelEdge],
    via: &[u32],
    su: usize,
    sv: usize,
) -> Option<Vec<NodeId>> {
    // Walk the closure tree back from `sv`, collecting the skeleton hops
    // in reverse.
    let mut hops: Vec<&SkelEdge> = Vec::new();
    let mut cur = sv;
    while cur != su {
        let idx = via[cur];
        if idx == u32::MAX {
            return None; // unreachable
        }
        let e = &edges[idx as usize];
        hops.push(e);
        cur = e.src as usize;
    }
    hops.reverse();
    // Expand each hop inside its providing fragment.
    let mut out = vec![borders[su]];
    for e in hops {
        let ft = (frags[e.frag as usize].trees.as_ref())
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
        let mut in_scope = Vec::new();
        if groups.len() > 1 {
            in_scope = vec![false; nb * nb];
            for group in groups {
                let at: Vec<usize> = group.iter().map(|v| position(&borders, v)).collect();
                for &i in &at {
                    for &j in at.iter().filter(|&&j| j != i) {
                        in_scope[i * nb + j] = true;
                    }
                }
            }
        }
        BorderTable {
            borders,
            costs,
            in_scope,
        }
    }

    /// A table over `borders` (ascending) holding exactly `tuples`.
    #[cfg(test)]
    pub(crate) fn from_edges(borders: Vec<NodeId>, tuples: &[Edge]) -> Self {
        let mut table = BorderTable::for_groups(&[borders]);
        let nb = table.borders.len();
        for e in tuples {
            let at = |v| position(&table.borders, v);
            table.costs[at(&e.src) * nb + at(&e.dst)] = e.cost;
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
/// site, plus what a deletion's refresh needs to redo only part of the
/// precompute.
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
    paths: Option<Arc<SkeletonPaths>>,
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

/// Close the skeleton graph from each of `sources`: Dijkstra over
/// `edges` (sorted by source), remembering the realizing edge index.
/// `targets[s]` lists the skeleton nodes whose distance from `s` the
/// shortcut tables actually need (the borders sharing a site group with
/// `s`); each sweep stops as soon as all of them are settled. Returns,
/// per source in order, its distance row and, when requested, its `via`
/// row for path stitching (empty otherwise) — final for every settled
/// node, which includes every needed pair and every intermediate
/// skeleton hop on their paths.
fn close_skeleton(
    border_count: usize,
    edges: &[SkelEdge],
    targets: &[Vec<u32>],
    sources: &[usize],
    want_via: bool,
) -> Vec<(Vec<Cost>, Vec<u32>)> {
    // `edges` is sorted by source: a node's out-edges are one range.
    let mut offsets = vec![0usize; border_count + 1];
    for e in edges {
        offsets[e.src as usize + 1] += 1;
    }
    for i in 0..border_count {
        offsets[i + 1] += offsets[i];
    }
    let mut rows = Vec::with_capacity(sources.len());
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(Cost, u32)>> =
        std::collections::BinaryHeap::new();
    let mut is_target = vec![false; border_count];
    for &s in sources {
        let mut remaining = 0usize;
        for &t in &targets[s] {
            if t as usize != s && !is_target[t as usize] {
                is_target[t as usize] = true;
                remaining += 1;
            }
        }
        let mut dist = vec![INFINITE_COST; border_count];
        let mut via = vec![u32::MAX; border_count];
        if remaining == 0 {
            // No table pair needs this source (e.g. singleton
            // disconnection sets): skip the sweep entirely.
            rows.push((dist, if want_via { via } else { Vec::new() }));
            continue;
        }
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
        rows.push((dist, if want_via { via } else { Vec::new() }));
    }
    rows
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

/// Write the distances `dist` from skeleton node `s` (indexed by
/// skeleton id) into `s`'s row at every site holding it, in-scope
/// columns only. A table is detached (`Arc::make_mut`) only when an
/// entry differs, so a site whose row comes out as it was keeps its
/// shared table; the differing entries are added to `changed`, per site.
/// Returns whether a stored tuple was dropped: its pair became
/// unreachable.
fn write_row(
    tables: &mut [Arc<BorderTable>],
    layout: &Layout,
    s: usize,
    dist: &[Cost],
    changed: &mut [usize],
) -> bool {
    let mut dropped = false;
    for (site, at) in layout.at.iter().enumerate() {
        let Ok(i) = at.binary_search(&s) else {
            continue;
        };
        let nb = at.len();
        let stale = |table: &BorderTable, j: usize| {
            let slot = i * nb + j;
            j != i && table.covers(slot) && table.costs[slot] != dist[at[j]]
        };
        if !(0..nb).any(|j| stale(&tables[site], j)) {
            continue;
        }
        let table = Arc::make_mut(&mut tables[site]);
        for j in 0..nb {
            if stale(table, j) {
                dropped |= dist[at[j]] == INFINITE_COST;
                table.costs[i * nb + j] = dist[at[j]];
                changed[site] += 1;
            }
        }
    }
    dropped
}

/// The positions in `at` (a table's borders, by skeleton id) whose
/// distance in `dist` is finite, into `out`.
fn reached(at: &[usize], dist: &[Cost], out: &mut Vec<usize>) {
    out.clear();
    out.extend((0..at.len()).filter(|&k| dist[at[k]] < INFINITE_COST));
}

/// One directed entry `u -> v` of cost `cost` that an update adds or
/// drops, with the distances the repair rule reads for it, indexed like
/// [`ComplementaryInfo::borders`] (`INFINITE_COST` = unreachable):
/// `to[s] = dist(s, u)` and `from[s] = dist(v, s)`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Through<'a> {
    pub(crate) to: &'a [Cost],
    pub(crate) cost: Cost,
    pub(crate) from: &'a [Cost],
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
        let every: Vec<usize> = (0..comp.border_count()).collect();
        comp.refresh(graph, frag, &every, &mut ScratchDijkstra::new());
        comp
    }

    /// No tuple and no sweep yet: every table empty, every fragment
    /// stale.
    fn unswept(frag: &Fragmentation, scope: ComplementaryScope, store_paths: bool) -> Self {
        let layout = Layout::new(frag, scope);
        ComplementaryInfo {
            tables: (layout.groups.iter())
                .map(|groups| Arc::new(BorderTable::for_groups(groups)))
                .collect(),
            local: vec![None; frag.fragment_count()],
            layout: Arc::new(layout),
            paths: None,
            store_paths,
            stats: PrecomputeStats::default(),
        }
    }

    /// The precompute for `sources` (skeleton ids, ascending): re-sweep
    /// the stale fragments locally (phase 1), close the skeleton of every
    /// fragment's kept sweeps from each source (phase 2) and rewrite the
    /// sources' rows at every site holding them (phase 3). Closing nothing
    /// sweeps nothing: stale fragments stay stale until a refresh needs
    /// them.
    ///
    /// Exact whenever every other row already holds its global distances
    /// — a build (every source), and a deletion that re-closes the
    /// sources the repair rule names (the one deletion repair,
    /// [`crate::updates`]). With paths, closing every source builds the
    /// route store afresh; closing some writes their routes as overrides.
    /// A site whose table comes out as it was keeps its `Arc`. Returns
    /// per-site counts of the entries that changed, and whether a stored
    /// tuple was dropped (its pair became unreachable). The stats are
    /// this refresh's, unless it closed nothing. The sweeps run on
    /// `scratch`.
    pub(crate) fn refresh(
        &mut self,
        graph: &CsrGraph,
        frag: &Fragmentation,
        sources: &[usize],
        scratch: &mut ScratchDijkstra,
    ) -> (Vec<usize>, bool) {
        let layout = Arc::clone(&self.layout);
        let mut changed = vec![0usize; self.tables.len()];
        let every = sources.len() == layout.borders.len();
        if !every && sources.is_empty() {
            return (changed, false);
        }

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

        // Phase 2: close the border skeleton from the sources. Each
        // closure sweep needs only the source's group partners — the
        // pairs the tables store.
        let t1 = Instant::now();
        let closed = close_skeleton(
            layout.borders.len(),
            &skel_edges,
            &layout.targets,
            sources,
            self.store_paths,
        );
        let skeleton_close_ns = t1.elapsed().as_nanos() as u64;

        // Phase 3: rewrite the sources' rows from the closed skeleton.
        let t2 = Instant::now();
        let mut dropped = false;
        for (&s, (dist, _)) in sources.iter().zip(&closed) {
            dropped |= write_row(&mut self.tables, &layout, s, dist, &mut changed);
        }
        if self.store_paths && every {
            self.paths = Some(Arc::new(SkeletonPaths {
                layout: Arc::clone(&layout),
                frags: local,
                edges: skel_edges,
                via: closed.into_iter().map(|(_, via)| via).collect(),
                overrides: HashMap::new(),
            }));
        } else if let Some(data) = self.paths.as_mut() {
            // Every stored pair of a source is one of its targets.
            let data = Arc::make_mut(data);
            for (&s, (dist, via)) in sources.iter().zip(&closed) {
                for t in layout.targets[s].iter().map(|&t| t as usize) {
                    if dist[t] < INFINITE_COST {
                        let route = stitch(&layout.borders, &local, &skel_edges, via, s, t)
                            .expect("a settled target has a route");
                        data.overrides
                            .insert((layout.borders[s], layout.borders[t]), route);
                    }
                }
            }
        }
        self.stats = PrecomputeStats {
            strategy: PrecomputeStrategy::Skeleton,
            local_sweeps_ns,
            skeleton_close_ns,
            assemble_ns: t2.elapsed().as_nanos() as u64,
            sources_closed: sources.len(),
        };
        (changed, dropped)
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
    /// node, every route written eagerly as an override of a store with
    /// no skeleton hops. Produces tables identical to
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
        let mut changed = vec![0usize; comp.tables.len()];
        for (s, from) in dist_from.iter().enumerate() {
            let dist: Vec<Cost> = (border_list.iter())
                .map(|&b| from.cost(b).unwrap_or(INFINITE_COST))
                .collect();
            write_row(&mut comp.tables, &layout, s, &dist, &mut changed);
        }
        comp.paths = store_paths.then(|| {
            let mut overrides = HashMap::new();
            for e in comp.tables.iter().flat_map(|t| t.edges()) {
                overrides.entry((e.src, e.dst)).or_insert_with(|| {
                    let from = position(border_list, &e.src);
                    dist_from[from].path_to(e.dst).expect("cost is finite")
                });
            }
            Arc::new(SkeletonPaths {
                layout: Arc::clone(&layout),
                frags: Vec::new(),
                edges: Vec::new(),
                via: Vec::new(),
                overrides,
            })
        });
        let assemble_ns = t2.elapsed().as_nanos() as u64;
        comp.stats = PrecomputeStats {
            strategy: PrecomputeStrategy::GlobalSweep,
            local_sweeps_ns,
            assemble_ns,
            ..PrecomputeStats::default()
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
        self.paths.as_ref()?.stitch(u, v)
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
    /// distances are kept in (see [`Through`]); a border's position here
    /// is its skeleton id.
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

    /// Per-phase timing of the precompute that built these tables, or of
    /// the last deletion whose refresh closed a source (one that closes
    /// none leaves it as it was).
    pub fn precompute_stats(&self) -> PrecomputeStats {
        self.stats
    }

    /// Insert maintenance: lower every in-scope entry `(a, b)` of every
    /// table — a missing tuple counting as infinite — to
    /// `min(cost, to[a] + c + from[b])` over the inserted `entries`, so a
    /// pair the new connection joins for the first time gets its tuple at
    /// every site holding both borders. One row/column loop per site and
    /// entry visits only the rows whose border reaches `u` and the
    /// columns `v` reaches: an insert whose endpoints reach no border
    /// reads no table. When paths are stored, `splice(k, a, b)` is the
    /// route of a pair lowered through `entries[k]`.
    ///
    /// Returns per-site counts of the entries lowered; a site with none
    /// keeps its shared table — `Arc::make_mut` detaches only the tables
    /// this writes.
    pub(crate) fn lower_through(
        &mut self,
        entries: &[Through<'_>],
        splice: impl Fn(usize, NodeId, NodeId) -> Vec<NodeId>,
    ) -> Vec<usize> {
        let mut changed = vec![0usize; self.tables.len()];
        let (mut rows, mut cols, mut lowered) = (Vec::new(), Vec::new(), Vec::new());
        for (site, at) in self.layout.at.iter().enumerate() {
            let (table, nb) = (&self.tables[site], at.len());
            lowered.clear();
            for (k, e) in entries.iter().enumerate() {
                reached(at, e.to, &mut rows);
                reached(at, e.from, &mut cols);
                for &i in &rows {
                    let through = e.to[at[i]] + e.cost;
                    for &j in &cols {
                        let (slot, cand) = (i * nb + j, through + e.from[at[j]]);
                        if j != i && cand < table.costs[slot] && table.covers(slot) {
                            lowered.push((slot, cand, k));
                        }
                    }
                }
            }
            if lowered.is_empty() {
                continue;
            }
            // Both directions of a symmetric insert can lower one entry:
            // the cheaper wins.
            lowered.sort_unstable();
            lowered.dedup_by_key(|&mut (slot, _, _)| slot);
            changed[site] = lowered.len();
            let table = Arc::make_mut(&mut self.tables[site]);
            let mut paths = self.paths.as_mut().map(Arc::make_mut);
            for &(slot, cost, k) in &lowered {
                table.costs[slot] = cost;
                if let Some(data) = paths.as_deref_mut() {
                    let (a, b) = (table.borders[slot / nb], table.borders[slot % nb]);
                    data.overrides.insert((a, b), splice(k, a, b));
                }
            }
        }
        changed
    }

    /// Deletion detection, the repair rule over the pre-deletion tables:
    /// the borders (skeleton ids, ascending) with a stored tuple `(a, b)`
    /// that one of the removed `entries` could carry —
    /// `to[a] + c + from[b] == cost`. The row/column loop of
    /// [`ComplementaryInfo::lower_through`]: rows whose border does not
    /// reach `u`, and columns `v` does not reach, are never read.
    pub(crate) fn sources_through(&self, entries: &[Through<'_>]) -> Vec<usize> {
        let mut affected = vec![false; self.layout.borders.len()];
        let (mut rows, mut cols) = (Vec::new(), Vec::new());
        for (table, at) in self.tables.iter().zip(&self.layout.at) {
            for e in entries {
                reached(at, e.from, &mut cols);
                if cols.is_empty() {
                    continue;
                }
                reached(at, e.to, &mut rows);
                for &i in &rows {
                    let (through, row) = (e.to[at[i]] + e.cost, table.row(i));
                    affected[at[i]] = affected[at[i]]
                        || cols.iter().any(|&j| {
                            j != i && row[j] < INFINITE_COST && through + e.from[at[j]] == row[j]
                        });
                }
            }
        }
        (0..affected.len()).filter(|&s| affected[s]).collect()
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
