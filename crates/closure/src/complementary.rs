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
//!    of its borders whose interior is the fragment's own interior. They
//!    run on the fragment's own graph ([`LocalGraph`]), the very one its
//!    [`crate::local::Site`] evaluates on, built once per version of the
//!    fragment. A connection between two of its borders that another
//!    fragment owns is not in it; an absorbing sweep never relaxes an
//!    edge out of a border, so the sweeps cannot tell.
//! 2. **The kept skeleton** — one [`CsrGraph`] over skeleton ids (a
//!    border's position in the border list) with the cheapest edge per
//!    ordered border pair among two kinds: a connection between two
//!    borders, as it stands, and a fragment's local-sweep distance. It
//!    is kept, and closed once by one dense min-plus pass over its B×B
//!    matrix ([`Hub::close`], Floyd–Warshall on the upper triangle when
//!    the matrix is symmetric), yielding **exact** global
//!    border-to-border distances: the [`Hub`]. It is kept too, as the one
//!    copy of every such distance: every site's table is gathered from
//!    it, the materializer folds it, and no write drops it.
//! 3. **No stored paths** — a route is read off the kept skeleton when
//!    it is asked for ([`crate::EngineSnapshot::route`]): one sweep of
//!    the skeleton between the endpoints' cells, and one point sweep of
//!    a fragment's interior per skeleton hop that fragment realizes.
//!    Nothing here keeps a tree or a route, so no write has one to
//!    maintain.
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
//! ## Maintenance keeps the hub exact and patches the kept skeleton
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
//! The hub is repaired by one rule, and the tables never on their own.
//! The rule reads an edit's endpoint distances off the pre-edit hub (a
//! border's row or column; any other endpoint's cell borders, each
//! folded with its row or column); an insert lowers the hub entries a
//! new entry shortens; a deletion names the hub pairs the deleted entry
//! could carry and re-closes them by sweeps of the patched skeleton on
//! the caller's [`ScratchDijkstra`] — from each affected source, stopped
//! once its *affected* partners settle. The rule compares its candidates
//! in [`Cost`] against the hub's widened words and narrows what it
//! writes (see [`crate::bulk`]). Then every changed hub entry `(s, t)`
//! is written into the tables that hold both borders in scope, and no
//! other table entry is read. A table none of them reaches keeps its
//! `Arc`, and a write that changes no hub entry keeps the shared hub.
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

use std::sync::Arc;
use std::time::Instant;

use ds_fragment::{FragmentId, Fragmentation, Membership};
use ds_graph::{dijkstra, Cost, CsrGraph, Edge, NodeId, ScratchDijkstra, INFINITE_COST};

use crate::bulk::{assert_admitted, narrow, widen, Hub, Word};
use crate::local::LocalGraph;

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
    /// Time closing the border skeleton: the build's dense close into
    /// the hub, a deletion's partial re-close sweeps (0 on the reference
    /// path).
    pub skeleton_close_ns: u64,
    /// Time gathering the per-site shortcut tables from the hub (on a
    /// deletion, after writing the re-closed pairs into it).
    pub assemble_ns: u64,
    /// Skeleton sources the skeleton was closed from: every border on a
    /// build, on a deletion's re-close the roots it swept from — the
    /// sources of the hub pairs the deleted edge could have carried, or
    /// on a symmetric network the roots of their cover (0 on the
    /// reference path).
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

/// One fragment's local-sweep output, kept until an edit changes one of
/// its edges: the skeleton edges its interior realizes, sorted by
/// (source, target).
#[derive(Clone, Debug, Default)]
pub struct LocalSweeps {
    edges: Vec<SkelEdge>,
}

impl LocalSweeps {
    fn memory_bytes(&self) -> usize {
        self.edges.capacity() * std::mem::size_of::<SkelEdge>()
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
/// set — derived once per build from its [`Membership`] table and shared
/// by every epoch of the lineage.
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
    /// Per skeleton id, the sites whose table holds the border, each with
    /// the border's position in it, by site.
    holders: Vec<Vec<(FragmentId, usize)>>,
}

impl Layout {
    fn new(frag: &Fragmentation, membership: &Membership, scope: ComplementaryScope) -> Self {
        let (groups, borders) = site_border_sets(frag, membership, scope);
        let at = (groups.iter())
            .map(|g| {
                (table_borders(g).iter())
                    .map(|v| position(&borders, v))
                    .collect()
            })
            .collect::<Vec<Vec<usize>>>();
        let mut holders = vec![Vec::new(); borders.len()];
        for (f, ids) in at.iter().enumerate() {
            for (i, &s) in ids.iter().enumerate() {
                holders[s].push((f, i));
            }
        }
        Layout {
            borders,
            groups,
            at,
            holders,
        }
    }
}

/// One site's complementary information in its only stored form: the
/// fragment's border nodes — as the fragmentation defines them, so a lone
/// border has a 1x1 table and a fragment without borders an empty one —
/// and the global shortest distances between them as a dense matrix.
/// [`ComplementaryInfo`] gathers it from the [`Hub`], widened to
/// [`Cost`]s, and writes it again wherever a write changes a hub entry it
/// holds; the site
/// ([`crate::local::Site`]) evaluates its subqueries from the very same
/// allocation.
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
    /// scope stays `INFINITE_COST` for good: the gather skips it.
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

/// The precomputed complementary information: the [`Hub`] — every
/// global border-to-border distance — and one [`BorderTable`] per site
/// gathered from it, plus the kept skeleton and local sweeps that update
/// maintenance patches instead of redoing the precompute.
///
/// Every table lives behind its own [`Arc`], which the site's evaluation
/// state holds too; so do the hub, every fragment's local-sweep output
/// and the skeleton. Cloning the whole structure (the serve writer's
/// per-epoch copy-on-write publication) costs a few refcount bumps per
/// site, and update maintenance — which goes through [`Arc::make_mut`]
/// only when an entry changes — detaches only the hub and the tables it
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
    /// The closure of the skeleton, which every table entry is gathered
    /// from: closed by the build, kept exact by every write.
    hub: Arc<Hub>,
    layout: Arc<Layout>,
    stats: PrecomputeStats,
}

/// Run the local border sweeps of one fragment, whose own graph is
/// `local` and whose borders have the skeleton ids `ids` (ascending):
/// from each border, Dijkstra seeded at the border's non-border
/// neighbours and absorbed by every border of the fragment — the paths
/// through the fragment's interior. A connection between two borders is
/// a skeleton edge of its own, so it is left to the skeleton.
fn local_sweeps_for_fragment(
    local: &LocalGraph,
    ids: &[usize],
    borders: &[NodeId],
    scratch: &mut ScratchDijkstra,
) -> LocalSweeps {
    // Ascending like the skeleton ids, since local ids keep the order.
    let local_of = |&s: &usize| local.local_id(borders[s]).expect("a fragment node");
    let local_borders: Vec<NodeId> = ids.iter().map(local_of).collect();
    let (graph, mut edges, mut seeds) = (&local.local, Vec::new(), Vec::new());
    for (bi, &b) in local_borders.iter().enumerate() {
        seeds.clear();
        seeds.extend((graph.neighbors(b)).filter(|(x, _)| local_borders.binary_search(x).is_err()));
        if seeds.is_empty() {
            continue; // no interior neighbour: no path through the interior
        }
        scratch.sweep_to_targets_absorbing(graph, &seeds, &local_borders);
        for (ti, &t) in local_borders.iter().enumerate() {
            if let Some(cost) = scratch.cost(t).filter(|_| ti != bi) {
                edges.push(SkelEdge {
                    src: ids[bi] as u32,
                    dst: ids[ti] as u32,
                    cost,
                });
            }
        }
    }
    LocalSweeps { edges }
}

/// Every fragment swept and the skeleton assembled from `graph`'s
/// connections between two borders and the fragments' local-sweep edges,
/// the cheapest per ordered pair.
fn sweep_skeleton(
    graph: &CsrGraph,
    locals: &[Arc<LocalGraph>],
    layout: &Layout,
    scratch: &mut ScratchDijkstra,
) -> (Vec<Arc<LocalSweeps>>, CsrGraph) {
    let borders = &layout.borders;
    let local: Vec<Arc<LocalSweeps>> = (locals.iter().zip(&layout.at))
        .map(|(g, ids)| Arc::new(local_sweeps_for_fragment(g, ids, borders, scratch)))
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
    (local, CsrGraph::from_edges(borders.len(), &edges))
}

/// Where `v` sits in the ascending border list `borders`.
fn position(borders: &[NodeId], v: &NodeId) -> usize {
    borders.binary_search(v).expect("a border of the list")
}

/// The borders of a site's table: the union of its groups, ascending.
fn table_borders(groups: &[Vec<NodeId>]) -> Vec<NodeId> {
    let mut all = groups.concat();
    all.sort_unstable();
    all.dedup();
    all
}

/// The cost of the skeleton entry `s -> t`, if there is one.
fn entry(skeleton: &CsrGraph, s: usize, t: usize) -> Option<Cost> {
    (skeleton.neighbors(NodeId::from_index(s)))
        .find(|&(x, _)| x.index() == t)
        .map(|(_, c)| c)
}

/// One directed entry `u -> v` of cost `cost` that an update adds or
/// drops, with the distances the repair rule reads for it, indexed by
/// skeleton id (`INFINITE_COST` = unreachable):
/// `to[s] = dist(s, u)` and `from[s] = dist(v, s)`, the cheapest
/// `c' + H[s'][s]` over `v`'s entry borders `(s', c')` in `enter`: the
/// borders `v` reaches first (itself at 0 if it is one), by skeleton id
/// and cost from `v`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Through<'a> {
    pub(crate) to: &'a [Cost],
    pub(crate) cost: Cost,
    pub(crate) from: &'a [Cost],
    pub(crate) enter: &'a [(usize, Cost)],
}

/// Pairs of skeleton nodes, per source: a skeleton id and its partners
/// (skeleton ids, ascending) — the pairs a deletion affects.
pub(crate) type Affected = Vec<(usize, Vec<NodeId>)>;

/// What one write wrote into the tables.
#[derive(Clone, Debug)]
pub(crate) struct Gathered {
    /// Per site, the table entries that changed.
    pub(crate) per_site: Vec<usize>,
    /// Whether a stored tuple was dropped: an entry went from finite to
    /// [`INFINITE_COST`].
    pub(crate) dropped: bool,
    /// Table entries compared with a changed hub entry: its copies at
    /// the sites holding both of its borders in scope.
    pub(crate) compared: usize,
}

impl Gathered {
    fn none(sites: usize) -> Self {
        Gathered {
            per_site: vec![0; sites],
            dropped: false,
            compared: 0,
        }
    }
}

impl ComplementaryInfo {
    /// Precompute the complementary information for a fragmentation
    /// (`symmetric`: each tuple stands for both travel directions) with
    /// the skeleton-overlay strategy (see the module docs).
    ///
    /// # Panics
    ///
    /// If an edge costs more than [`crate::bulk::max_edge_cost`] of the
    /// fragmentation's node count: the hub's words could not hold every
    /// distance.
    pub fn compute(frag: &Fragmentation, symmetric: bool, scope: ComplementaryScope) -> Self {
        assert_admitted(frag);
        let (graph, locals) = (frag.closure_graph(symmetric), local_graphs(frag, symmetric));
        ComplementaryInfo::compute_with(&graph, frag, &Membership::new(frag), &locals, scope)
    }

    /// [`ComplementaryInfo::compute`] from what a build has already made:
    /// `graph`, the directed closure graph, the fragmentation's
    /// membership table and every fragment's own graph (`locals`, by
    /// fragment id).
    pub(crate) fn compute_with(
        graph: &CsrGraph,
        frag: &Fragmentation,
        membership: &Membership,
        locals: &[Arc<LocalGraph>],
        scope: ComplementaryScope,
    ) -> Self {
        let (layout, mut scratch) = (Layout::new(frag, membership, scope), ScratchDijkstra::new());
        let t0 = Instant::now();
        let (local, skeleton) = sweep_skeleton(graph, locals, &layout, &mut scratch);
        let t1 = Instant::now();
        let hub = Hub::close(&skeleton);
        let t2 = Instant::now();
        let mut comp = ComplementaryInfo::gathered(layout, local, skeleton, hub);
        comp.stats = PrecomputeStats {
            strategy: PrecomputeStrategy::Skeleton,
            local_sweeps_ns: (t1 - t0).as_nanos() as u64,
            skeleton_close_ns: (t2 - t1).as_nanos() as u64,
            assemble_ns: t2.elapsed().as_nanos() as u64,
            sources_closed: comp.border_count(),
        };
        comp
    }

    /// The information over the kept `local` sweeps and `skeleton`, whose
    /// closure is `hub`: every in-scope entry of every table gathered from
    /// the hub.
    fn gathered(
        layout: Layout,
        local: Vec<Arc<LocalSweeps>>,
        skeleton: CsrGraph,
        hub: Hub,
    ) -> Self {
        let mut comp = ComplementaryInfo {
            tables: (layout.groups.iter())
                .map(|groups| Arc::new(BorderTable::for_groups(groups)))
                .collect(),
            local,
            skeleton: Arc::new(skeleton),
            hub: Arc::new(hub),
            layout: Arc::new(layout),
            stats: PrecomputeStats::default(),
        };
        let hub = &comp.hub;
        for (table, at) in comp.tables.iter_mut().zip(&comp.layout.at) {
            let (table, nb) = (Arc::make_mut(table), at.len());
            for (i, &s) in at.iter().enumerate() {
                let row = hub.words(s);
                for (j, &t) in at.iter().enumerate() {
                    if table.covers(i * nb + j) {
                        table.costs[i * nb + j] = widen(row[t]);
                    }
                }
            }
        }
        comp
    }

    /// Write the changed hub entries `changed` (slot, cost) into the
    /// tables that hold both of the slot's borders in scope, comparing
    /// first; no other table entry is read. A table none of them reaches
    /// keeps its `Arc`, since `Arc::make_mut` detaches only one that
    /// changes.
    fn regather(&mut self, changed: &[(usize, Cost)]) -> Gathered {
        let (nb, holders) = (self.border_count(), &self.layout.holders);
        let mut out = Gathered::none(self.tables.len());
        for &(slot, cost) in changed {
            let (s, t) = (slot / nb, slot % nb);
            for &(f, i) in &holders[s] {
                let Some(&(_, j)) = holders[t].iter().find(|&&(g, _)| g == f) else {
                    continue;
                };
                let table = &mut self.tables[f];
                let entry = i * table.borders.len() + j;
                if !table.covers(entry) {
                    continue;
                }
                out.compared += 1;
                if table.costs[entry] != cost {
                    Arc::make_mut(table).costs[entry] = cost;
                    out.per_site[f] += 1;
                    out.dropped |= cost == INFINITE_COST;
                }
            }
        }
        out
    }

    /// The cost fragment `f`'s interior realizes from skeleton node `s` to
    /// `t` ([`INFINITE_COST`] if none): what the fragment-level repair
    /// rule compares an edit's candidates against.
    pub(crate) fn interior_cost(&self, f: FragmentId, s: usize, t: usize) -> Cost {
        self.local[f].cost(s, t)
    }

    /// Bring the kept skeleton up to date with `graph` after an edit:
    /// re-sweep the fragment `stale` names, if any, over its edited own
    /// graph, then re-derive every
    /// skeleton pair its sweeps realized before or realize now, and every
    /// pair in `crossing` (skeleton ids of an edited connection between
    /// two borders) — the cheapest of the pair's connections in `graph`
    /// and of every fragment's local-sweep edges. The skeleton is edited
    /// only where a pair's cost changed.
    pub(crate) fn patch(
        &mut self,
        graph: &CsrGraph,
        stale: Option<(FragmentId, &LocalGraph)>,
        crossing: &[(usize, usize)],
        scratch: &mut ScratchDijkstra,
    ) {
        let borders = &self.layout.borders;
        let mut pairs: Vec<(usize, usize)> = crossing.to_vec();
        if let Some((f, local)) = stale {
            let fresh = local_sweeps_for_fragment(local, &self.layout.at[f], borders, scratch);
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
    }

    /// A deletion's re-close over the patched skeleton: the affected
    /// pairs' distances ([`ComplementaryInfo::close_pairs`]) are written
    /// into the hub — every other pair kept its shortest path and keeps
    /// its cost — and the changed entries into the tables holding them.
    /// Returns what the tables took, a dropped tuple meaning its pair
    /// became unreachable. Closing nothing leaves the stats alone;
    /// otherwise they are this re-close's, `patch_ns` the skeleton patch
    /// before it.
    pub(crate) fn reclose(
        &mut self,
        affected: &Affected,
        symmetric: bool,
        patch_ns: u64,
        scratch: &mut ScratchDijkstra,
    ) -> Gathered {
        if affected.is_empty() {
            return Gathered::none(self.tables.len());
        }
        let t1 = Instant::now();
        let (closed, roots) = self.close_pairs(affected, symmetric, scratch);
        let skeleton_close_ns = t1.elapsed().as_nanos() as u64;
        let t2 = Instant::now();
        let out = self.rewrite(closed);
        self.stats = PrecomputeStats {
            strategy: PrecomputeStrategy::Skeleton,
            local_sweeps_ns: patch_ns,
            skeleton_close_ns,
            assemble_ns: t2.elapsed().as_nanos() as u64,
            sources_closed: roots,
        };
        out
    }

    /// The current distances of `pairs` (grouped by source), as hub
    /// writes (slot, cost): from each source one skeleton sweep, stopped
    /// once its partners settle — and the number of sweeps. On a
    /// `symmetric` network every pair comes with its reverse, of the same
    /// distance, so the sweeps run from a cover of the pairs instead (see
    /// `cover`).
    fn close_pairs(
        &self,
        pairs: &Affected,
        symmetric: bool,
        scratch: &mut ScratchDijkstra,
    ) -> (Vec<(usize, Cost)>, usize) {
        let nb = self.border_count();
        let roots = if symmetric {
            cover(pairs, nb)
        } else {
            pairs.clone()
        };
        let mut closed = Vec::new();
        for (r, partners) in &roots {
            scratch.sweep_to_targets(&self.skeleton, &[(NodeId::from_index(*r), 0)], partners);
            for &t in partners {
                let (t, cost) = (t.index(), scratch.cost(t).unwrap_or(INFINITE_COST));
                closed.push((r * nb + t, cost));
                if symmetric {
                    closed.push((t * nb + r, cost));
                }
            }
        }
        (closed, roots.len())
    }

    /// Write `writes` (hub slot, cost) into the hub, the cheapest per
    /// slot, each narrowed to a word, detaching the hub only when an entry
    /// changes, and the changed entries into the tables (see `regather`).
    fn rewrite(&mut self, mut writes: Vec<(usize, Cost)>) -> Gathered {
        writes.sort_unstable();
        writes.dedup_by_key(|&mut (slot, _)| slot);
        writes.retain(|&(slot, cost)| widen(self.hub.all_words()[slot]) != cost);
        if !writes.is_empty() {
            let hub = Arc::make_mut(&mut self.hub).words_mut();
            for &(slot, cost) in &writes {
                hub[slot] = narrow(cost);
            }
        }
        self.regather(&writes)
    }

    /// The reference precompute: one whole-graph Dijkstra per border
    /// node. Produces tables identical to [`ComplementaryInfo::compute`];
    /// kept for equivalence tests. It derives the same kept skeleton
    /// (outside its timing), so it maintains like any other. Panics on
    /// the networks [`ComplementaryInfo::compute`] panics on.
    pub fn compute_global_sweep(
        frag: &Fragmentation,
        symmetric: bool,
        scope: ComplementaryScope,
    ) -> Self {
        assert_admitted(frag);
        let (graph, locals) = (frag.closure_graph(symmetric), local_graphs(frag, symmetric));
        let layout = Layout::new(frag, &Membership::new(frag), scope);
        let (local, skeleton) =
            sweep_skeleton(&graph, &locals, &layout, &mut ScratchDijkstra::new());
        let border_list = &layout.borders;

        // One global Dijkstra per border node, reused across all sets the
        // node appears in.
        let t0 = Instant::now();
        let dist_from: Vec<dijkstra::ShortestPaths> = border_list
            .iter()
            .map(|&b| dijkstra::single_source(&graph, b))
            .collect();
        let local_sweeps_ns = t0.elapsed().as_nanos() as u64;

        let t2 = Instant::now();
        let dist = (dist_from.iter())
            .flat_map(|from| border_list.iter().map(|&b| from.cost(b)))
            .map(|cost| cost.unwrap_or(INFINITE_COST));
        let hub = Hub::from_rows(border_list.len(), dist);
        let mut comp = ComplementaryInfo::gathered(layout, local, skeleton, hub);
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
    /// every fragment's kept sweeps, the skeleton and the hub get a fresh
    /// allocation. This is what a full per-epoch snapshot copy
    /// used to cost before structural sharing — kept as the baseline of
    /// the publication-cost bench, and useful to detach a snapshot from a
    /// shared lineage entirely.
    pub fn unshared_clone(&self) -> Self {
        ComplementaryInfo {
            tables: self
                .tables
                .iter()
                .map(|t| Arc::new((**t).clone()))
                .collect(),
            local: (self.local.iter())
                .map(|l| Arc::new((**l).clone()))
                .collect(),
            skeleton: Arc::new((*self.skeleton).clone()),
            hub: Arc::new((*self.hub).clone()),
            layout: Arc::new((*self.layout).clone()),
            stats: self.stats,
        }
    }

    /// Number of distinct border nodes.
    pub fn border_count(&self) -> usize {
        self.layout.borders.len()
    }

    /// The kept skeleton over skeleton ids — the graph the [`Hub`] is the
    /// closure of. A write that leaves the handle `Arc::ptr_eq` with its
    /// predecessor's left every border distance alone.
    pub fn skeleton(&self) -> &Arc<CsrGraph> {
        &self.skeleton
    }

    /// The [`Hub`]: every global border-to-border distance, which every
    /// table entry is gathered from. A write leaves the handle
    /// `Arc::ptr_eq` with its predecessor's exactly when it changed no
    /// entry.
    pub fn hub(&self) -> &Arc<Hub> {
        &self.hub
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

    /// Heap bytes held but the hub's (counted apart, as
    /// `SnapshotBytes::hub`): the tables, the kept skeleton plus every
    /// fragment's kept local sweeps (their skeleton edges).
    pub fn memory_bytes(&self) -> usize {
        let swept = self.local.iter().map(|l| l.memory_bytes());
        self.table_bytes() + self.skeleton.memory_bytes() + swept.sum::<usize>()
    }

    /// Per-phase timing of the precompute that built these tables, or of
    /// the last deletion whose re-close closed a source (one that closes
    /// none leaves it as it was).
    pub fn precompute_stats(&self) -> PrecomputeStats {
        self.stats
    }

    /// Insert maintenance: lower every hub entry `(a, b)` to
    /// `min(H[a][b], to[a] + c + from[b])` over the inserted `entries`,
    /// and write each lowered entry into the tables holding it, so a pair
    /// the new connection joins for the first time gets its tuple at every
    /// site holding both borders. Only the rows the entry can lower are
    /// read (see `candidate_rows`): an insert whose endpoints reach no
    /// border, or that shortens no border's way to `v`, reads none.
    ///
    /// Returns what the tables took — a site whose table none of the
    /// lowered entries reaches keeps it shared, and an insert that lowers
    /// no hub entry keeps the shared hub.
    pub(crate) fn lower(&mut self, entries: &[Through<'_>]) -> Gathered {
        let (nb, mut lowered) = (self.border_count(), Vec::new());
        for e in entries {
            for (a, row, through) in self.candidate_rows(e) {
                for (b, (&kept, &from)) in row.iter().zip(e.from).enumerate() {
                    if through + from < widen(kept) {
                        lowered.push((a * nb + b, through + from));
                    }
                }
            }
        }
        self.rewrite(lowered)
    }

    /// Deletion detection, the repair rule over the pre-deletion hub:
    /// the pairs `(a, b)`, `a != b`, that one of the removed `entries`
    /// could carry — `to[a] + c + from[b] == H[a][b]`, finite — grouped
    /// by source.
    pub(crate) fn affected(&self, entries: &[Through<'_>]) -> Affected {
        let mut carried = Vec::new();
        for e in entries {
            for (a, row, through) in self.candidate_rows(e) {
                for (b, (&kept, &from)) in row.iter().zip(e.from).enumerate() {
                    let kept = widen(kept);
                    if through + from == kept && kept < INFINITE_COST && b != a {
                        carried.push((a, b));
                    }
                }
            }
        }
        group(carried)
    }

    /// The hub rows `a` the entry `e` can lower or carry a pair of, each
    /// with `a` and `to[a] + c`, its cost to `v` through `e`. Its border
    /// must reach `u`; and a path through `e` to any border leaves `v` by
    /// an entry border `s`, its prefix to `s` a path through `e` too, so
    /// a row whose `to[a] + c + cost(v, s)` exceeds `H[a][s]` for every
    /// such `s` has no pair the entry lowers or carries.
    fn candidate_rows<'s>(
        &'s self,
        e: &'s Through<'_>,
    ) -> impl Iterator<Item = (usize, &'s [Word], Cost)> + 's {
        let reach = (e.to.iter().enumerate()).filter(|&(_, &to)| to < INFINITE_COST);
        let rows = reach.map(|(a, &to)| (a, self.hub.words(a), to + e.cost));
        rows.filter(|&(_, row, through)| {
            (e.enter.iter()).any(|&(s, leave)| through + leave <= widen(row[s]))
        })
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

/// Every fragment's own graph, by fragment id.
pub(crate) fn local_graphs(frag: &Fragmentation, symmetric: bool) -> Vec<Arc<LocalGraph>> {
    (frag.fragments().iter())
        .map(|f| Arc::new(LocalGraph::new(f, symmetric)))
        .collect()
}

/// For each site, the groups of border nodes whose pairs get shortcuts:
/// one group per adjacent DS (paper scope) or a single group of all the
/// fragment's border nodes (fragment scope) — and all border nodes,
/// ascending.
fn site_border_sets(
    frag: &Fragmentation,
    membership: &Membership,
    scope: ComplementaryScope,
) -> (Vec<Vec<Vec<NodeId>>>, Vec<NodeId>) {
    let mut out: Vec<Vec<Vec<NodeId>>> = vec![Vec::new(); frag.fragment_count()];
    match scope {
        ComplementaryScope::PerDisconnectionSet => {
            for ((i, j), nodes) in membership.disconnection_sets() {
                out[i].push(nodes.clone());
                out[j].push(nodes);
            }
        }
        ComplementaryScope::PerFragmentBorder => {
            for (groups, f) in out.iter_mut().zip(frag.fragments()) {
                let set: Vec<NodeId> = (f.nodes().iter().copied())
                    .filter(|&v| membership.is_border(v))
                    .collect();
                if !set.is_empty() {
                    groups.push(set);
                }
            }
        }
    }
    (out, membership.borders())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::Edge as GEdge;

    /// Path 0-1-2-3-4 fragmented [0-1,1-2] / [2-3,3-4]: border node 2.
    fn setup() -> Fragmentation {
        let edges = |pairs: &[(u32, u32)]| -> Vec<GEdge> {
            pairs
                .iter()
                .map(|&(a, b)| GEdge::unit(NodeId(a), NodeId(b)))
                .collect()
        };
        Fragmentation::new(
            5,
            vec![edges(&[(0, 1), (1, 2)]), edges(&[(2, 3), (3, 4)])],
            vec![vec![], vec![]],
        )
    }

    #[test]
    fn single_border_node_yields_no_pairs() {
        let frag = setup();
        let comp = ComplementaryInfo::compute(&frag, true, ComplementaryScope::PerDisconnectionSet);
        assert_eq!(comp.border_count(), 1);
        assert_eq!(comp.pair_count(), 0, "a singleton DS has no pairs");
        assert_eq!(comp.shortcuts(0).count(), 0);
        assert_eq!(comp.table(0).borders(), [NodeId(2)], "still a border");
    }

    #[test]
    fn two_border_nodes_get_global_distances() {
        // Cycle of 6 split into two halves sharing nodes 0 and 3.
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
        let comp = ComplementaryInfo::compute(&frag, true, ComplementaryScope::PerDisconnectionSet);
        assert_eq!(comp.border_count(), 2);
        // Pairs (0,3) and (3,0) at both sites.
        assert_eq!(comp.pair_count(), 4);
        let shortcut = comp
            .shortcuts(0)
            .find(|e| e.src == NodeId(0) && e.dst == NodeId(3))
            .unwrap();
        assert_eq!(shortcut.cost, 3, "global distance around the cycle");
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
            ComplementaryInfo::compute(&frag, false, ComplementaryScope::PerDisconnectionSet);
        let per_border =
            ComplementaryInfo::compute(&frag, false, ComplementaryScope::PerFragmentBorder);
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

    /// The skeleton tables equal the global-sweep reference, and the
    /// route the kept skeleton gives for every stored pair is a real
    /// path of the pair's cost.
    #[test]
    fn skeleton_matches_global_sweep_tables_and_paths() {
        use crate::{EngineConfig, EngineSnapshot};
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
        let mut scratch = ScratchDijkstra::new();
        for scope in [
            ComplementaryScope::PerDisconnectionSet,
            ComplementaryScope::PerFragmentBorder,
        ] {
            let skel = ComplementaryInfo::compute(&frag, g.symmetric, scope);
            let glob = ComplementaryInfo::compute_global_sweep(&frag, g.symmetric, scope);
            assert_eq!(skel.border_count(), glob.border_count(), "{scope:?}");
            assert_eq!(skel.pair_count(), glob.pair_count(), "{scope:?}");
            let cfg = EngineConfig {
                scope,
                ..EngineConfig::default()
            };
            let snap = EngineSnapshot::build(frag.clone(), g.symmetric, cfg);
            for f in 0..frag.fragment_count() {
                assert_eq!(skel.table(f), glob.table(f), "{scope:?} site {f}");
                for e in skel.shortcuts(f) {
                    let route = snap.route(e.src, e.dst, &mut scratch).unwrap();
                    let p = route.expect("a stored pair is connected").nodes;
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
                    assert_eq!(total, e.cost, "{scope:?} route cost");
                }
            }
        }
    }

    /// The local sweeps' graph as it used to be derived: the closure
    /// graph's induced subgraph on the fragment's nodes — every edge
    /// between two of them, whichever fragment owns it.
    fn induced(graph: &CsrGraph, nodes: &[NodeId]) -> LocalGraph {
        let inside = |v: &NodeId| nodes.binary_search(v).is_ok();
        let edges: Vec<GEdge> = (graph.edges())
            .filter(|e| inside(&e.src) && inside(&e.dst))
            .collect();
        LocalGraph::new(&ds_fragment::Fragment::new(0, edges, nodes), false)
    }

    /// Every fragment's local sweeps over its own graph equal the sweeps
    /// over the induced view, which also holds the connections between
    /// two of its borders that another fragment owns: an absorbing sweep
    /// never relaxes an edge out of a border. Symmetric and one-way, on
    /// a fixture built for that case and on labelled transportation
    /// graphs.
    #[test]
    fn local_sweeps_on_the_own_graph_equal_the_induced_view_sweeps() {
        // Fragment 0 is the path 0-1-2-3 with a spur 1-4; fragment 1
        // owns 3-5-0 and the direct connection 0-3 between two borders
        // of fragment 0.
        let e = |a, b, c| GEdge::new(NodeId(a), NodeId(b), c);
        let fixture = Fragmentation::new(
            6,
            vec![
                vec![e(0, 1, 1), e(1, 2, 1), e(2, 3, 1), e(1, 4, 2)],
                vec![e(0, 3, 1), e(3, 5, 2), e(5, 0, 2)],
            ],
            vec![vec![], vec![]],
        );
        let mut cases = vec![("fixture", fixture)];
        for seed in 0..4 {
            let g = ds_gen::generate_transportation(&ds_gen::TransportationConfig::table1(), seed);
            let labels = g.cluster_of.as_ref().unwrap();
            let policy = ds_fragment::CrossingPolicy::LowerBlock;
            let frag = ds_fragment::semantic::by_labels(g.nodes, &g.connections, labels, 4, policy);
            cases.push(("transportation", frag.unwrap()));
        }
        let mut scratch = ScratchDijkstra::new();
        for (name, frag) in &cases {
            for symmetric in [true, false] {
                let graph = frag.closure_graph(symmetric);
                let scope = ComplementaryScope::PerFragmentBorder;
                let layout = Layout::new(frag, &Membership::new(frag), scope);
                for f in frag.fragments() {
                    let (ids, borders) = (&layout.at[f.id()], &layout.borders);
                    let mut sweep = |g: &LocalGraph| {
                        let swept = local_sweeps_for_fragment(g, ids, borders, &mut scratch);
                        (swept.edges.iter())
                            .map(|e| (e.src, e.dst, e.cost))
                            .collect::<Vec<_>>()
                    };
                    let own = LocalGraph::new(f, symmetric);
                    let view = induced(&graph, f.nodes());
                    let what = format!("{name} symmetric {symmetric} fragment {}", f.id());
                    assert_eq!(sweep(&own), sweep(&view), "{what}");
                    if *name == "fixture" && f.id() == 0 {
                        let (own, view) = (own.local.edge_count(), view.local.edge_count());
                        assert!(view > own, "{what}: the view holds fragment 1's 0-3");
                        // 0 -> 3 through 1 and 2, and back when symmetric.
                        let realized = sweep(&LocalGraph::new(f, symmetric)).len();
                        assert_eq!(realized, 1 + usize::from(symmetric), "{what}");
                    }
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
        let frag = setup();
        let skel = ComplementaryInfo::compute(&frag, true, ComplementaryScope::default());
        assert_eq!(
            skel.precompute_stats().strategy,
            PrecomputeStrategy::Skeleton
        );
        assert!(skel.precompute_stats().total_ns() > 0);
        let glob =
            ComplementaryInfo::compute_global_sweep(&frag, true, ComplementaryScope::default());
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
        let frag = Fragmentation::new(4, vec![e01, e12], vec![vec![NodeId(3)], vec![NodeId(3)]]);
        let comp = ComplementaryInfo::compute(&frag, false, ComplementaryScope::PerFragmentBorder);
        // Border nodes are 1 and 3; only pairs with finite global distance
        // are stored; 1 and 3 are mutually unreachable.
        assert_eq!(comp.border_count(), 2);
        assert_eq!(comp.pair_count(), 0);
    }
}
