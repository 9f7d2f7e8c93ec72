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
//!    that fragment*, seeded at the border's interior neighbours and
//!    absorbed by the fragment's borders: the cheapest path between two
//!    of its borders whose interior is the fragment's own interior.
//! 2. **The kept skeleton** — one [`CsrGraph`] over skeleton ids (a
//!    border's position in the border list) with the cheapest edge per
//!    ordered border pair among two kinds: a connection between two
//!    borders, as it stands, and a fragment's local-sweep distance. It
//!    is closed with one [`ScratchDijkstra`] sweep per skeleton node,
//!    yielding **exact** global border-to-border distances, and kept.
//! 3. **Lazy paths** — when paths are requested, shortcut routes are not
//!    materialized eagerly; they are stitched on demand from the
//!    skeleton hops and the fragment-local parent trees of step 1. One
//!    store serves every route: maintenance writes the routes it changes
//!    into the same store as overrides, and the reference writes all of
//!    its routes there.
//!
//! Exactness: a global shortest path between two borders splits at its
//! border visits into segments, each either one connection between two
//! borders — a skeleton edge as it stands — or a run through non-border
//! nodes. A non-border node lies in exactly one fragment, and so does
//! every edge touching it, so such a run stays inside one fragment's
//! interior and is dominated by that fragment's local-sweep edge. A
//! border pair disconnected *locally* but connected globally is served by
//! the skeleton closure through other fragments; no global re-sweep is
//! ever needed, and the resulting shortcut tables are bit-identical to
//! the global-sweep reference (asserted per-tuple by
//! `tests/properties.rs`).
//!
//! ## Maintenance patches the kept skeleton
//!
//! Every fragment's local-sweep output is kept behind its own `Arc`, and
//! the skeleton is edited, never re-gathered ([`crate::updates`]):
//!
//! * a *crossing* edit — both endpoints borders — changes one skeleton
//!   edge: the pair's cheapest connection or local-sweep edge is
//!   re-derived, and no fragment is re-swept;
//! * any other edit has a non-border endpoint, whose *cell* — the nodes
//!   it reaches without entering a border — lies inside its fragment.
//!   The fragment is *stale*, and re-swept, only when the edit changes
//!   one of its local-sweep edges: over the borders of the two endpoint
//!   cells, the fragment-level form of the repair rule (an edit whose
//!   cell touches no border re-sweeps nothing).
//!
//! Every skeleton sweep runs on the caller's [`ScratchDijkstra`] over the
//! kept skeleton (a one-way network's transpose of it for distances *to*
//! a node): the build's closure, a deletion's re-close — from each
//! affected source, stopped once its *affected* partners settle — and
//! the repair rules' endpoint distances. A site whose table comes out
//! unchanged keeps its `Arc`.
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

/// Per-phase wall-time accounting of one precompute — the build, or the
/// last deletion's re-close that redid part of it — exposed through
/// `TcEngine::precompute_stats` so benches and tests can assert where
/// build time goes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrecomputeStats {
    pub strategy: PrecomputeStrategy,
    /// Time in the per-fragment local border sweeps and the skeleton
    /// they give (for the global-sweep reference: the whole-graph sweeps;
    /// on a deletion: patching the kept skeleton).
    pub local_sweeps_ns: u64,
    /// Time closing the border-skeleton graph (0 on the reference path).
    pub skeleton_close_ns: u64,
    /// Time writing the closed rows into the per-site shortcut tables
    /// (and, on a deletion's re-close with stored paths, their routes).
    pub assemble_ns: u64,
    /// Skeleton sources the skeleton was closed from: every border on a
    /// build, the sources the deleted edge could have carried on a
    /// deletion's re-close (0 on the reference path).
    pub sources_closed: usize,
}

impl PrecomputeStats {
    /// Total accounted precompute time.
    pub fn total_ns(&self) -> u64 {
        self.local_sweeps_ns + self.skeleton_close_ns + self.assemble_ns
    }
}

/// One skeleton edge a fragment's local sweeps realize: the cheapest
/// path from border `src` to border `dst` (skeleton ids) through the
/// fragment's interior.
#[derive(Clone, Copy, Debug)]
struct SkelEdge {
    src: u32,
    dst: u32,
    cost: Cost,
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
    /// `parents[i]` is the local-id parent tree of the sweep from
    /// `borders[i]` (`u32::MAX` = one of its seeds, the border's interior
    /// neighbours, or unreached).
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

/// One fragment's local-sweep output, kept until an edit changes one of
/// its edges: the skeleton edges its interior realizes, sorted by
/// (source, target), and, when paths are stored, the parent trees its
/// sweeps left.
#[derive(Clone, Debug, Default)]
pub struct LocalSweeps {
    edges: Vec<SkelEdge>,
    trees: Option<FragTrees>,
}

impl LocalSweeps {
    fn memory_bytes(&self) -> usize {
        self.edges.capacity() * std::mem::size_of::<SkelEdge>()
            + self.trees.as_ref().map_or(0, FragTrees::memory_bytes)
    }

    /// The cost this fragment's interior realizes from skeleton node `s`
    /// to `t` ([`INFINITE_COST`] if none).
    fn cost(&self, s: usize, t: usize) -> Cost {
        let key = (s as u32, t as u32);
        (self.edges.binary_search_by_key(&key, |e| (e.src, e.dst)))
            .map_or(INFINITE_COST, |k| self.edges[k].cost)
    }

    /// Number of skeleton edges the fragment's interior realizes.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
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
    /// Per skeleton node, the skeleton nodes (ascending) its closure
    /// sweep must settle: its partners in some site group — the pairs the
    /// tables store.
    targets: Vec<Vec<NodeId>>,
}

impl Layout {
    fn new(frag: &Fragmentation, scope: ComplementaryScope) -> Self {
        let (groups, borders) = site_border_sets(frag, scope);
        let mut targets: Vec<Vec<NodeId>> = vec![Vec::new(); borders.len()];
        for group in groups.iter().flatten() {
            let idx: Vec<NodeId> = (group.iter())
                .map(|v| NodeId::from_index(position(&borders, v)))
                .collect();
            for &u in &idx {
                targets[u.index()].extend(idx.iter().filter(|&&v| v != u));
            }
        }
        for partners in &mut targets {
            partners.sort_unstable();
            partners.dedup();
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
            targets,
        }
    }
}

/// What expands a skeleton hop into network nodes: the skeleton a tree
/// was swept over and the fragment sweeps behind its interior edges.
#[derive(Clone, Debug)]
struct Hops {
    layout: Arc<Layout>,
    skeleton: Arc<CsrGraph>,
    frags: Vec<Arc<LocalSweeps>>,
}

impl Hops {
    /// Append the network nodes of the skeleton hop `p -> t` after `p`:
    /// the interior of the fragment path that realizes it, then `t` — or
    /// `t` alone when a connection between the two borders does.
    fn expand(&self, p: usize, t: usize, out: &mut Vec<NodeId>) {
        let borders = &self.layout.borders;
        let cost = entry(&self.skeleton, p, t).expect("a tree hop is a skeleton edge");
        let Some(sweeps) = self.frags.iter().find(|f| f.cost(p, t) == cost) else {
            out.push(borders[t]);
            return;
        };
        let ft = (sweeps.trees.as_ref()).expect("a fragment realizing a hop kept its trees");
        let tree = &ft.parents[position(&ft.borders, &borders[p])];
        let mut lc = ft.view.local_of(borders[t]).expect("border in view");
        let from = out.len();
        loop {
            out.push(ft.view.global_of(lc));
            match tree[lc.index()] {
                u32::MAX => break, // an interior neighbour of `p`
                up => lc = NodeId(up),
            }
        }
        out[from..].reverse();
    }

    /// The network path from the root of the skeleton tree `parents` to
    /// `w`, which the tree reached.
    fn route_to(&self, parents: &[u32], w: usize) -> Vec<NodeId> {
        let mut hops = Vec::new();
        let mut cur = w;
        while parents[cur] != u32::MAX {
            let up = parents[cur] as usize;
            hops.push((up, cur));
            cur = up;
        }
        let mut out = vec![self.layout.borders[cur]];
        for &(p, t) in hops.iter().rev() {
            self.expand(p, t, &mut out);
        }
        out
    }
}

/// The route store: shortcut routes are stitched from the build's
/// skeleton closure trees on demand. `overrides` holds routes written
/// since (by update maintenance, which must not consult the build-time
/// trees, or by the global-sweep reference, which keeps no trees and
/// writes every route there).
#[derive(Clone, Debug)]
struct SkeletonPaths {
    /// The build's skeleton and fragment sweeps.
    hops: Hops,
    /// `via[s]` — the parent tree of the build's closure sweep from
    /// skeleton node `s`; empty when no pair needed it.
    via: Vec<Vec<u32>>,
    overrides: HashMap<(NodeId, NodeId), Vec<NodeId>>,
}

impl SkeletonPaths {
    fn stitch(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        if let Some(p) = self.overrides.get(&(u, v)) {
            return Some(p.clone());
        }
        let borders = &self.hops.layout.borders;
        let su = borders.binary_search(&u).ok()?;
        let sv = borders.binary_search(&v).ok()?;
        let parents = self.via.get(su).filter(|p| !p.is_empty())?;
        // Self-pairs are never stored; an unreached node has no parent.
        if su == sv || parents[sv] == u32::MAX {
            return None;
        }
        Some(self.hops.route_to(parents, sv))
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
/// site, plus the kept skeleton and local sweeps that update maintenance
/// patches instead of redoing the precompute.
///
/// Every table lives behind its own [`Arc`], which the site's evaluation
/// state holds too; so do every fragment's local-sweep output and the
/// skeleton. Cloning the whole structure (the serve writer's per-epoch
/// copy-on-write publication) costs a few refcount bumps per site, and
/// update maintenance — which goes through [`Arc::make_mut`], or replaces
/// a table only when its entries changed — detaches only the tables it
/// actually changes. Untouched sites stay pointer-shared with every
/// previous epoch (asserted by the structural-sharing property in
/// `tests/properties.rs`).
#[derive(Clone, Debug)]
pub struct ComplementaryInfo {
    tables: Vec<Arc<BorderTable>>,
    /// Per fragment, the output of its latest local sweeps.
    local: Vec<Arc<LocalSweeps>>,
    /// The border skeleton over skeleton ids: per ordered border pair,
    /// the cheapest of their connections and of the fragments' local-sweep
    /// edges (one entry per pair).
    skeleton: Arc<CsrGraph>,
    /// The skeleton's transpose: made by the first write of a one-way
    /// network, and edited with the skeleton since.
    transpose: Option<Arc<CsrGraph>>,
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
/// Dijkstra over the fragment's induced subgraph seeded at the border's
/// non-border neighbours and absorbed by every border of the fragment —
/// the paths through the fragment's interior. A connection between two
/// borders is a skeleton edge of its own, so it is left to the skeleton.
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
        .map(|b| position(borders, b) as u32)
        .collect();
    let mut edges = Vec::new();
    let mut parents = Vec::new();
    let mut seeds: Vec<(NodeId, Cost)> = Vec::new();
    for (bi, &b) in local_borders.iter().enumerate() {
        seeds.clear();
        seeds.extend(
            (view.graph().neighbors(b)).filter(|(x, _)| local_borders.binary_search(x).is_err()),
        );
        if seeds.is_empty() {
            // No interior neighbour: no path through the interior.
            if store_trees {
                parents.push(vec![u32::MAX; view.len()]);
            }
            continue;
        }
        scratch.sweep_to_targets_absorbing(view.graph(), &seeds, &local_borders);
        for (ti, &t) in local_borders.iter().enumerate() {
            if let Some(cost) = scratch.cost(t).filter(|_| ti != bi) {
                edges.push(SkelEdge {
                    src: skel_ids[bi],
                    dst: skel_ids[ti],
                    cost,
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

/// The cost of the skeleton entry `s -> t`, if there is one.
fn entry(skeleton: &CsrGraph, s: usize, t: usize) -> Option<Cost> {
    (skeleton.neighbors(NodeId::from_index(s)))
        .find(|&(x, _)| x.index() == t)
        .map(|(_, c)| c)
}

/// Write the distances `new` gives from skeleton node `s` (by skeleton
/// id; `None` = leave the entry as it is) into `s`'s row at every site
/// holding it, in-scope columns only. A table is detached
/// (`Arc::make_mut`) only when an entry differs, so a site whose row
/// comes out as it was keeps its shared table; the differing entries are
/// added to `changed`, per site. Returns whether a stored tuple was
/// dropped: its pair became unreachable.
fn write_row(
    tables: &mut [Arc<BorderTable>],
    layout: &Layout,
    s: usize,
    new: impl Fn(usize) -> Option<Cost>,
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
            let covered = j != i && table.covers(slot);
            covered
                .then(|| new(at[j]))
                .flatten()
                .filter(|&c| c != table.costs[slot])
        };
        if !(0..nb).any(|j| stale(&tables[site], j).is_some()) {
            continue;
        }
        let table = Arc::make_mut(&mut tables[site]);
        for j in 0..nb {
            if let Some(cost) = stale(table, j) {
                dropped |= cost == INFINITE_COST;
                table.costs[i * nb + j] = cost;
                changed[site] += 1;
            }
        }
    }
    dropped
}

/// The rows of `table` (over the borders `at`, by skeleton id) whose
/// border reaches the entry `e`, with their positions; `cols` is set to
/// `e.from` in table order ([`INFINITE_COST`] where `v` does not reach
/// the column's border, which no sum through the entry then matches or
/// beats).
fn rows_through<'t>(
    table: &'t BorderTable,
    at: &'t [usize],
    e: &'t Through<'_>,
    cols: &mut Vec<Cost>,
) -> impl Iterator<Item = (usize, &'t [Cost])> + 't {
    cols.clear();
    cols.extend(at.iter().map(|&s| e.from[s]));
    let rows = table.costs.chunks(at.len().max(1)).enumerate();
    rows.filter(move |&(i, _)| e.to[at[i]] < INFINITE_COST)
}

/// One directed entry `u -> v` of cost `cost` that an update adds or
/// drops, with the distances the repair rule reads for it, indexed by
/// skeleton id (`INFINITE_COST` = unreachable):
/// `to[s] = dist(s, u)` and `from[s] = dist(v, s)`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Through<'a> {
    pub(crate) to: &'a [Cost],
    pub(crate) cost: Cost,
    pub(crate) from: &'a [Cost],
}

/// Pairs of skeleton nodes, per source: a skeleton id and its partners
/// (skeleton ids, ascending) — the pairs a deletion affects, or an insert
/// lowered.
pub(crate) type Affected = Vec<(usize, Vec<NodeId>)>;

/// What [`ComplementaryInfo::close_pairs`] swept: every pair's distance
/// as (source, partner, cost), sorted; the roots swept from, with their
/// partners; and, when paths are stored, each root's tree.
struct Closed {
    pairs: Vec<(usize, NodeId, Cost)>,
    roots: Affected,
    via: Vec<Vec<u32>>,
}

impl ComplementaryInfo {
    /// Precompute the complementary information for a fragmentation over
    /// `graph` (the directed closure graph) with the skeleton-overlay
    /// strategy (see the module docs).
    ///
    /// `store_paths` additionally retains the fragment-local parent trees
    /// and the skeleton closure trees so full routes can be reconstructed
    /// later (lazily, per request).
    pub fn compute(
        graph: &CsrGraph,
        frag: &Fragmentation,
        scope: ComplementaryScope,
        store_paths: bool,
    ) -> Self {
        let (layout, mut scratch) = (Layout::new(frag, scope), ScratchDijkstra::new());
        let t0 = Instant::now();
        let mut comp = ComplementaryInfo::swept(graph, frag, layout, store_paths, &mut scratch);
        let local_sweeps_ns = t0.elapsed().as_nanos() as u64;

        // Close the skeleton from every border: each sweep needs only the
        // source's group partners — the pairs the tables store, which
        // every in-scope column of its rows is one of.
        let layout = Arc::clone(&comp.layout);
        let nb = layout.borders.len();
        let (mut skeleton_close_ns, mut assemble_ns) = (0, 0);
        let mut via = Vec::new();
        let mut changed = vec![0usize; comp.tables.len()];
        for (s, targets) in layout.targets.iter().enumerate() {
            if targets.is_empty() {
                // No table pair needs this source (e.g. singleton
                // disconnection sets): no sweep.
                via.extend(store_paths.then(Vec::new));
                continue;
            }
            let t1 = Instant::now();
            scratch.sweep_to_targets(&comp.skeleton, &[(NodeId::from_index(s), 0)], targets);
            via.extend(store_paths.then(|| scratch.snapshot_parents(nb)));
            let t2 = Instant::now();
            let reached = |t| Some(scratch.cost(NodeId::from_index(t)).unwrap_or(INFINITE_COST));
            write_row(&mut comp.tables, &layout, s, reached, &mut changed);
            skeleton_close_ns += (t2 - t1).as_nanos() as u64;
            assemble_ns += t2.elapsed().as_nanos() as u64;
        }
        let t3 = Instant::now();
        comp.paths = store_paths.then(|| {
            Arc::new(SkeletonPaths {
                hops: comp.hops(),
                via,
                overrides: HashMap::new(),
            })
        });
        comp.stats = PrecomputeStats {
            strategy: PrecomputeStrategy::Skeleton,
            local_sweeps_ns,
            skeleton_close_ns,
            assemble_ns: assemble_ns + t3.elapsed().as_nanos() as u64,
            sources_closed: nb,
        };
        comp
    }

    /// No tuple yet, every fragment swept and the skeleton assembled: the
    /// connections between two borders and every fragment's local-sweep
    /// edges, the cheapest per ordered pair.
    fn swept(
        graph: &CsrGraph,
        frag: &Fragmentation,
        layout: Layout,
        store_paths: bool,
        scratch: &mut ScratchDijkstra,
    ) -> Self {
        let borders = &layout.borders;
        let local: Vec<Arc<LocalSweeps>> = (0..frag.fragment_count())
            .map(|f| {
                let out = local_sweeps_for_fragment(graph, frag, f, borders, store_paths, scratch);
                Arc::new(out)
            })
            .collect();
        let mut edges = Vec::new();
        for (s, &b) in borders.iter().enumerate() {
            for (x, cost) in graph.neighbors(b).filter(|&(x, _)| x != b) {
                if let Ok(t) = borders.binary_search(&x) {
                    edges.push(Edge::new(
                        NodeId::from_index(s),
                        NodeId::from_index(t),
                        cost,
                    ));
                }
            }
        }
        for e in local.iter().flat_map(|l| &l.edges) {
            edges.push(Edge::new(NodeId(e.src), NodeId(e.dst), e.cost));
        }
        // The fragments' edges come in sorted runs, which a merge sort
        // takes in one pass each.
        edges.sort();
        edges.dedup_by_key(|e| (e.src, e.dst));
        ComplementaryInfo {
            tables: (layout.groups.iter())
                .map(|groups| Arc::new(BorderTable::for_groups(groups)))
                .collect(),
            local,
            skeleton: Arc::new(CsrGraph::from_edges(borders.len(), &edges)),
            transpose: None,
            layout: Arc::new(layout),
            paths: None,
            store_paths,
            stats: PrecomputeStats::default(),
        }
    }

    /// The current skeleton and fragment sweeps, for expanding hops.
    fn hops(&self) -> Hops {
        Hops {
            layout: Arc::clone(&self.layout),
            skeleton: Arc::clone(&self.skeleton),
            frags: self.local.clone(),
        }
    }

    /// The skeleton a sweep for distances *from* a node runs on
    /// (`backward` false), or its transpose, for distances *to* one —
    /// made on first use. A symmetric network's skeleton is its own
    /// transpose: its callers never ask for the transpose.
    pub(crate) fn skeleton_for(&mut self, backward: bool) -> &CsrGraph {
        if !backward {
            return &self.skeleton;
        }
        let skeleton = &self.skeleton;
        self.transpose
            .get_or_insert_with(|| Arc::new(skeleton.reversed()))
    }

    /// The cost fragment `f`'s interior realizes from skeleton node `s` to
    /// `t` ([`INFINITE_COST`] if none): what the fragment-level repair
    /// rule compares an edit's candidates against.
    pub(crate) fn interior_cost(&self, f: FragmentId, s: usize, t: usize) -> Cost {
        self.local[f].cost(s, t)
    }

    /// Bring the kept skeleton up to date with `graph` after an edit:
    /// re-sweep the fragment `stale` names, if any, then re-derive every
    /// skeleton pair its sweeps realized before or realize now, and every
    /// pair in `crossing` (skeleton ids of an edited connection between
    /// two borders) — the cheapest of the pair's connections in `graph`
    /// and of every fragment's local-sweep edges. The skeleton (and its
    /// transpose, if made) is edited only where a pair's cost changed.
    pub(crate) fn patch(
        &mut self,
        graph: &CsrGraph,
        frag: &Fragmentation,
        stale: Option<FragmentId>,
        crossing: &[(usize, usize)],
        scratch: &mut ScratchDijkstra,
    ) {
        let borders = &self.layout.borders;
        let mut pairs: Vec<(usize, usize)> = crossing.to_vec();
        if let Some(f) = stale {
            let fresh =
                local_sweeps_for_fragment(graph, frag, f, borders, self.store_paths, scratch);
            let old = std::mem::replace(&mut self.local[f], Arc::new(fresh));
            let realized = old.edges.iter().chain(&self.local[f].edges);
            pairs.extend(realized.map(|e| (e.src as usize, e.dst as usize)));
        }
        pairs.sort_unstable();
        pairs.dedup();
        let (mut add, mut remove) = (Vec::new(), Vec::new());
        for (s, t) in pairs {
            let direct = (graph.neighbors(borders[s]))
                .filter(|&(x, _)| x == borders[t])
                .map(|(_, c)| c);
            let interior = self.local.iter().map(|l| l.cost(s, t));
            let want = direct.chain(interior).min().filter(|&c| c < INFINITE_COST);
            let kept = entry(&self.skeleton, s, t);
            if kept != want {
                let at = |cost| Edge::new(NodeId::from_index(s), NodeId::from_index(t), cost);
                remove.extend(kept.map(at));
                add.extend(want.map(at));
            }
        }
        if add.is_empty() && remove.is_empty() {
            return;
        }
        self.skeleton = Arc::new(self.skeleton.edited(&add, &remove));
        if let Some(transpose) = self.transpose.as_mut() {
            let back = |edges: &[Edge]| edges.iter().map(Edge::reversed).collect::<Vec<_>>();
            *transpose = Arc::new(transpose.edited(&back(&add), &back(&remove)));
        }
    }

    /// A deletion's re-close over the patched skeleton: the affected
    /// pairs' distances ([`ComplementaryInfo::close_pairs`]) are written
    /// into their entries at every site holding them — every other pair
    /// kept its shortest path and keeps its cost — and, with paths, their
    /// routes as overrides. A site whose table comes out as it was keeps
    /// its `Arc`. Returns per-site counts of the entries that changed,
    /// and whether a stored tuple was dropped (its pair became
    /// unreachable). Closing nothing leaves the stats alone; otherwise
    /// they are this re-close's, `patch_ns` the skeleton patch before it.
    pub(crate) fn reclose(
        &mut self,
        affected: &Affected,
        symmetric: bool,
        patch_ns: u64,
        scratch: &mut ScratchDijkstra,
    ) -> (Vec<usize>, bool) {
        let mut changed = vec![0usize; self.tables.len()];
        if affected.is_empty() {
            return (changed, false);
        }
        let t1 = Instant::now();
        let closed = self.close_pairs(affected, symmetric, scratch);
        let skeleton_close_ns = t1.elapsed().as_nanos() as u64;

        let t2 = Instant::now();
        let layout = Arc::clone(&self.layout);
        let mut dropped = false;
        for row in closed.pairs.chunk_by(|a, b| a.0 == b.0) {
            let new = |t| {
                let k = row.binary_search_by_key(&t, |c| c.1.index());
                k.ok().map(|k| row[k].2)
            };
            dropped |= write_row(&mut self.tables, &layout, row[0].0, new, &mut changed);
        }
        self.write_routes(&closed, symmetric);
        self.stats = PrecomputeStats {
            strategy: PrecomputeStrategy::Skeleton,
            local_sweeps_ns: patch_ns,
            skeleton_close_ns,
            assemble_ns: t2.elapsed().as_nanos() as u64,
            sources_closed: closed.roots.len(),
        };
        (changed, dropped)
    }

    /// With paths stored, write the routes of `pairs` — an insert's
    /// lowered pairs — as overrides, from sweeps of the patched skeleton
    /// ([`ComplementaryInfo::close_pairs`]).
    pub(crate) fn reroute(
        &mut self,
        pairs: &Affected,
        symmetric: bool,
        scratch: &mut ScratchDijkstra,
    ) {
        if self.paths.is_some() && !pairs.is_empty() {
            let closed = self.close_pairs(pairs, symmetric, scratch);
            self.write_routes(&closed, symmetric);
        }
    }

    /// The current distances of `pairs` (grouped by source): from each
    /// source one skeleton sweep, stopped once its partners settle. On a
    /// `symmetric` network every pair comes with its reverse, of the same
    /// distance, so the sweeps run from a cover of the pairs instead (see
    /// `cover`).
    fn close_pairs(
        &self,
        pairs: &Affected,
        symmetric: bool,
        scratch: &mut ScratchDijkstra,
    ) -> Closed {
        let nb = self.border_count();
        let roots = if symmetric {
            cover(pairs, nb)
        } else {
            pairs.clone()
        };
        let mut closed = Closed {
            pairs: Vec::new(),
            via: Vec::new(),
            roots,
        };
        for (r, partners) in &closed.roots {
            scratch.sweep_to_targets(&self.skeleton, &[(NodeId::from_index(*r), 0)], partners);
            for (&t, cost) in partners.iter().zip(costs_at(scratch, partners)) {
                closed.pairs.push((*r, t, cost));
                if symmetric {
                    closed.pairs.push((t.index(), NodeId::from_index(*r), cost));
                }
            }
            (closed.via).extend(self.store_paths.then(|| scratch.snapshot_parents(nb)));
        }
        closed.pairs.sort_unstable();
        closed
    }

    /// Write the route of every pair `closed` reached as an override
    /// (and its reverse's, reversed, on a `symmetric` network), if paths
    /// are stored.
    fn write_routes(&mut self, closed: &Closed, symmetric: bool) {
        let hops = self.paths.is_some().then(|| self.hops());
        let (Some(hops), Some(data)) = (hops, self.paths.as_mut()) else {
            return;
        };
        let data = Arc::make_mut(data);
        let border = |s: usize| hops.layout.borders[s];
        for ((r, partners), parents) in closed.roots.iter().zip(&closed.via) {
            for t in partners.iter().map(|t| t.index()) {
                if parents[t] == u32::MAX {
                    continue; // unreachable: no tuple, no route
                }
                let route = hops.route_to(parents, t);
                if symmetric {
                    let back = route.iter().rev().copied().collect();
                    data.overrides.insert((border(t), border(*r)), back);
                }
                data.overrides.insert((border(*r), border(t)), route);
            }
        }
    }

    /// The reference precompute: one whole-graph Dijkstra per border
    /// node, every route written eagerly as an override of a store with
    /// no closure trees. Produces tables identical to
    /// [`ComplementaryInfo::compute`]; kept for equivalence tests. It
    /// derives the same kept skeleton (outside its timing), so it
    /// maintains like any other.
    pub fn compute_global_sweep(
        graph: &CsrGraph,
        frag: &Fragmentation,
        scope: ComplementaryScope,
        store_paths: bool,
    ) -> Self {
        let (layout, mut scratch) = (Layout::new(frag, scope), ScratchDijkstra::new());
        let mut comp = ComplementaryInfo::swept(graph, frag, layout, store_paths, &mut scratch);
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
            write_row(
                &mut comp.tables,
                &layout,
                s,
                |t| Some(dist[t]),
                &mut changed,
            );
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
                hops: comp.hops(),
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

    /// Fragment `f`'s kept local-sweep output. An update that leaves it
    /// `Arc::ptr_eq` with the previous epoch's did not re-sweep the
    /// fragment.
    pub fn local_sweeps(&self, f: usize) -> &Arc<LocalSweeps> {
        &self.local[f]
    }

    /// The kept skeleton's edges over global border ids, one per ordered
    /// pair, sorted: what a precompute of the current network derives.
    pub fn skeleton_edges(&self) -> Vec<Edge> {
        let borders = &self.layout.borders;
        let mut edges: Vec<Edge> = (self.skeleton.edges())
            .map(|e| Edge::new(borders[e.src.index()], borders[e.dst.index()], e.cost))
            .collect();
        edges.sort_unstable();
        edges
    }

    /// The tuples stored at site `f` as shortcut edges
    /// `(u, v, global_dist)`, in (row, column) order of its table.
    pub fn shortcuts(&self, f: usize) -> impl Iterator<Item = Edge> + '_ {
        self.tables[f].edges()
    }

    /// A deep copy that shares nothing with `self`: every per-site table,
    /// every fragment's kept sweeps, the skeleton and the path store get
    /// a fresh allocation. This is what a full per-epoch snapshot copy
    /// used to cost before structural sharing — kept as the baseline of
    /// the publication-cost bench, and useful to detach a snapshot from a
    /// shared lineage entirely.
    pub fn unshared_clone(&self) -> Self {
        let deep = |g: &Arc<CsrGraph>| Arc::new((**g).clone());
        ComplementaryInfo {
            tables: self
                .tables
                .iter()
                .map(|t| Arc::new((**t).clone()))
                .collect(),
            local: (self.local.iter())
                .map(|l| Arc::new((**l).clone()))
                .collect(),
            skeleton: deep(&self.skeleton),
            transpose: self.transpose.as_ref().map(deep),
            layout: Arc::new((*self.layout).clone()),
            paths: self.paths.as_ref().map(|p| Arc::new((**p).clone())),
            store_paths: self.store_paths,
            stats: self.stats,
        }
    }

    /// The concrete path behind shortcut `(u, v)`, if paths were stored.
    /// With the skeleton strategy the route is stitched on demand from
    /// the build's closure and fragment-local parent trees (unless update
    /// maintenance has overridden it).
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

    /// The kept skeleton over skeleton ids — the graph the materializer's
    /// hub is the closure of. A write that leaves the handle
    /// `Arc::ptr_eq` with its predecessor's left every border distance
    /// alone.
    pub fn skeleton(&self) -> &Arc<CsrGraph> {
        &self.skeleton
    }

    /// The kept skeleton less every edge that some table holds a cheaper
    /// cost for. A table entry is the cost of a real path between its
    /// two borders, which the skeleton realizes too, so the closure is
    /// the same over fewer edges: the graph the hub is closed over.
    pub(crate) fn tight_skeleton(&self) -> CsrGraph {
        // Per border, the sites holding it and its position in each.
        let mut held: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.border_count()];
        for (f, ids) in self.layout.at.iter().enumerate() {
            for (i, &id) in ids.iter().enumerate() {
                held[id].push((f, i));
            }
        }
        let shorter = |e: &Edge| {
            let (u, v) = (&held[e.src.index()], &held[e.dst.index()]);
            u.iter().any(|&(f, i)| {
                let row = self.tables[f].row(i);
                v.iter().any(|&(g, j)| g == f && row[j] < e.cost)
            })
        };
        let edges: Vec<Edge> = self.skeleton.edges().filter(|e| !shorter(e)).collect();
        CsrGraph::from_edges(self.border_count(), &edges)
    }

    /// Every border node, ascending: skeleton id `i` is `borders()[i]`.
    pub(crate) fn borders(&self) -> &[NodeId] {
        &self.layout.borders
    }

    /// The skeleton ids of site `f`'s borders, in the order of its table.
    pub(crate) fn skeleton_ids(&self, f: FragmentId) -> &[usize] {
        &self.layout.at[f]
    }

    /// The skeleton id of `v`, if it is a border: its position among
    /// every border node, ascending — the order the repair rule's border
    /// distances are kept in (see [`Through`]).
    pub(crate) fn skeleton_id(&self, v: NodeId) -> Option<usize> {
        self.layout.borders.binary_search(&v).ok()
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

    /// Heap bytes held: the tables, the kept skeleton (and its transpose)
    /// plus every fragment's kept local sweeps (their skeleton edges, and
    /// the parent trees with their subgraph views when paths are stored).
    /// The lazy path structure's closure trees and overrides are not
    /// counted.
    pub fn memory_bytes(&self) -> usize {
        let swept = self.local.iter().map(|l| l.memory_bytes());
        let skeleton =
            self.skeleton.memory_bytes() + self.transpose.as_ref().map_or(0, |t| t.memory_bytes());
        self.table_bytes() + skeleton + swept.sum::<usize>()
    }

    /// Per-phase timing of the precompute that built these tables, or of
    /// the last deletion whose re-close closed a source (one that closes
    /// none leaves it as it was).
    pub fn precompute_stats(&self) -> PrecomputeStats {
        self.stats
    }

    /// Insert maintenance: lower every in-scope entry `(a, b)` of every
    /// table — a missing tuple counting as infinite — to
    /// `min(cost, to[a] + c + from[b])` over the inserted `entries`, so a
    /// pair the new connection joins for the first time gets its tuple at
    /// every site holding both borders. One dense row loop per site and
    /// entry visits only the rows whose border reaches `u`: an insert
    /// whose endpoints reach no border reads no table row.
    ///
    /// Returns per-site counts of the entries lowered — a site with none
    /// keeps its shared table: `Arc::make_mut` detaches only the tables
    /// this writes — and, when paths are stored, the pairs lowered, whose
    /// routes [`ComplementaryInfo::reroute`] writes once the skeleton is
    /// patched.
    pub(crate) fn lower_through(&mut self, entries: &[Through<'_>]) -> (Vec<usize>, Affected) {
        let mut changed = vec![0usize; self.tables.len()];
        let (mut cols, mut lowered, mut pairs) = (Vec::new(), Vec::new(), Vec::new());
        for (site, at) in self.layout.at.iter().enumerate() {
            let (table, nb) = (&self.tables[site], at.len());
            lowered.clear();
            for e in entries {
                for (i, row) in rows_through(table, at, e, &mut cols) {
                    let through = e.to[at[i]] + e.cost;
                    for (j, (&kept, &from)) in row.iter().zip(&cols).enumerate() {
                        let (slot, cand) = (i * nb + j, through + from);
                        if cand < kept && j != i && table.covers(slot) {
                            lowered.push((slot, cand));
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
            lowered.dedup_by_key(|&mut (slot, _)| slot);
            changed[site] = lowered.len();
            let table = Arc::make_mut(&mut self.tables[site]);
            for &(slot, cost) in &lowered {
                table.costs[slot] = cost;
            }
            if self.paths.is_some() {
                pairs.extend(
                    lowered
                        .iter()
                        .map(|&(slot, _)| (at[slot / nb], at[slot % nb])),
                );
            }
        }
        (changed, group(pairs))
    }

    /// Deletion detection, the repair rule over the pre-deletion tables:
    /// the stored tuples `(a, b)` that one of the removed `entries` could
    /// carry — `to[a] + c + from[b] == cost` — grouped by source. The
    /// row loop of [`ComplementaryInfo::lower_through`]: rows whose
    /// border does not reach `u` are never read.
    pub(crate) fn pairs_through(&self, entries: &[Through<'_>]) -> Affected {
        let (mut pairs, mut cols) = (Vec::new(), Vec::new());
        for (table, at) in self.tables.iter().zip(&self.layout.at) {
            for e in entries {
                for (i, row) in rows_through(table, at, e, &mut cols) {
                    let through = e.to[at[i]] + e.cost;
                    let carried =
                        (row.iter().zip(&cols).enumerate()).filter(|&(j, (&kept, &from))| {
                            through + from == kept && j != i && kept < INFINITE_COST
                        });
                    pairs.extend(carried.map(|(j, _)| (at[i], at[j])));
                }
            }
        }
        group(pairs)
    }
}

/// `pairs` of skeleton ids, deduplicated and grouped by source.
fn group(mut pairs: Vec<(usize, usize)>) -> Affected {
    pairs.sort_unstable();
    pairs.dedup();
    let mut grouped: Affected = Vec::new();
    for (s, t) in pairs {
        let t = NodeId::from_index(t);
        match grouped.last_mut() {
            Some((last, partners)) if *last == s => partners.push(t),
            _ => grouped.push((s, vec![t])),
        }
    }
    grouped
}

/// A cover of the symmetric pair set `affected` (over `nb` skeleton
/// nodes): roots, each with the partners no root before it took, so that
/// every pair has one endpoint among the roots and the other among its
/// targets. Greedy by partner count, ties by skeleton id.
fn cover(affected: &Affected, nb: usize) -> Affected {
    let mut order: Vec<&(usize, Vec<NodeId>)> = affected.iter().collect();
    order.sort_by_key(|(s, partners)| (std::cmp::Reverse(partners.len()), *s));
    let mut root = vec![false; nb];
    let mut roots = Vec::new();
    for (s, partners) in order {
        let targets: Vec<NodeId> = (partners.iter().copied())
            .filter(|t| !root[t.index()])
            .collect();
        if !targets.is_empty() {
            root[*s] = true;
            roots.push((*s, targets));
        }
    }
    roots
}

/// The costs the latest sweep on `scratch` reached `targets` at
/// ([`INFINITE_COST`] where it did not).
fn costs_at(scratch: &ScratchDijkstra, targets: &[NodeId]) -> Vec<Cost> {
    (targets.iter())
        .map(|&t| scratch.cost(t).unwrap_or(INFINITE_COST))
        .collect()
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

    /// A cover of a symmetric pair set puts one endpoint of every pair
    /// among the roots and the other among that root's targets, and takes
    /// no pair twice.
    #[test]
    fn a_cover_takes_every_pair_once() {
        let ids = |v: &[usize]| v.iter().map(|&i| NodeId::from_index(i)).collect::<Vec<_>>();
        // A star 3 - {21, 24}, a pair 6 - 21, and a triangle 0 - 1 - 2.
        let affected: Affected = vec![
            (0, ids(&[1, 2])),
            (1, ids(&[0, 2])),
            (2, ids(&[0, 1])),
            (3, ids(&[21, 24])),
            (6, ids(&[21])),
            (21, ids(&[3, 6])),
            (24, ids(&[3])),
        ];
        let roots = cover(&affected, 25);
        let mut taken: Vec<(usize, usize)> = (roots.iter())
            .flat_map(|&(r, ref ts)| ts.iter().map(move |t| (r.min(t.index()), r.max(t.index()))))
            .collect();
        taken.sort_unstable();
        let want = [(0, 1), (0, 2), (1, 2), (3, 21), (3, 24), (6, 21)];
        assert_eq!(taken, want);
        assert_eq!(roots.len(), 4, "{roots:?}");
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
