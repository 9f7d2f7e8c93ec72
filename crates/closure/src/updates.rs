//! Update maintenance — the disadvantage the paper acknowledges:
//! "The disadvantage of the disconnection set approach is mainly due to
//! the pre-processing required for building the complementary information
//! and to the careful treatment of updates. … As long as updates are not
//! too frequent, the pre-processing costs may be amortized over many
//! queries." (§2.1)
//!
//! This module makes that treatment concrete — and *incremental* for both
//! insertions and deletions:
//!
//! Both rules act on one structure, the hub `H`
//! ([`crate::ComplementaryInfo::hub`]): every global border-to-border
//! distance, which every site reads.
//!
//! * **Insertions** add a connection, which can only *decrease* global
//!   distances, and any improved shortest path uses the new edge; so the
//!   distances between its endpoints and the border nodes refresh every
//!   hub entry: `H'[a][b] = min(H[a][b], dist(a,u) + c + dist(v,b))`,
//!   "no path" counting as infinite — so a border pair the new
//!   connection joins for the first time (a disconnecting deletion had
//!   dropped it, or a one-way network never had it) gets its entry.
//! * **Deletions** can increase distances, which per-pair minima cannot
//!   repair locally — but only for pairs whose shortest path *used* the
//!   deleted edge. The **deletion repair rule**: a hub pair `(a, b)` is
//!   affected by removing `u -> v` with cost `c` iff, over the
//!   pre-deletion distances, `dist(a,u) + c + dist(v,b) == H[a][b]` (any
//!   shortest path through the edge achieves exactly that sum). The
//!   engine detects the affected pairs from the same endpoint-to-border
//!   distances.
//!
//! Those distances are read off the pre-edit hub, with no skeleton
//! sweep: a border endpoint's are its hub row (`dist(v, ·)`) or column
//! (`dist(·, u)`); any other endpoint first sweeps its *cell* — the
//! nodes it reaches without entering a border, all inside its fragment —
//! on its site's own graph, blocked at the borders, and takes the
//! cheapest of its cell's borders, each at its cell distance plus that
//! border's row or column. On a symmetric network the hub and the sites
//! are their own transposes, so an edit's endpoints cost one cell sweep
//! each, a border none; a one-way network sweeps `dist(·, u)`'s cell on
//! its site's transpose (a cell's in-edges are its fragment's too) and
//! reads hub columns. The distances are the *pre-edit* ones: an insert
//! lowers through them (a shortest path uses a new entry at most once),
//! and a deletion compares against them. Both rules scan only the hub
//! rows whose border reaches `u`: an edit whose endpoints reach no
//! border reads no row. The hub holds 32-bit words ([`crate::bulk`]):
//! the distances are read widened to [`Cost`], every candidate is
//! compared in [`Cost`], and what is written is narrowed, exactly, since
//! an admitted network's distances fit the word
//! ([`crate::bulk::max_edge_cost`]; an insert over it is refused). Then
//! every site holding both borders of a changed hub entry is rebuilt —
//! its access sets were pruned through every pair of its borders — and the
//! report counts each changed entry once per such site
//! ([`crate::ComplementaryInfo::shortcuts`]). The closure graph itself is
//! edited — the update's entries added or dropped — not re-derived from
//! the fragments.
//!
//! Then the kept skeleton is patched: a crossing edit (both endpoints
//! borders) re-derives one skeleton edge; any other edit re-sweeps its
//! fragment only when it changes one of the fragment's local-sweep edges
//! — over the borders of the endpoints' cells, `cell(b, u) + c +
//! cell(v, b')` beats the edge (insert) or equals it (delete) — so an
//! edit whose cell touches no border re-sweeps nothing.
//!
//! There is one deletion repair, whatever edge is deleted: the endpoint
//! distances off the pre-deletion hub, the repair rule — which names the
//! affected hub *pairs* — the skeleton patch, then
//! `ComplementaryInfo::reclose`: one sweep of the patched skeleton per
//! affected source (on a symmetric network, per root of a cover of the
//! pairs), stopped once its affected partners settle, writing those
//! pairs into the hub. A deletion that affects no pair sweeps nothing
//! more.
//! [`UpdateReport::fallback_reason`] only labels the edge:
//!
//! * [`FallbackReason::DisconnectionSetCrossing`] — the deleted edge
//!   joins two border nodes (it lies *in* a disconnection-set crossing);
//! * [`FallbackReason::Disconnected`] — otherwise, when the deletion made
//!   a previously reachable border pair unreachable (e.g. a bridge edge):
//!   a counted shortcut went from finite to infinite.
//!
//! The labels, and [`UpdateReport::full_recompute`] beside them, stay
//! because the frozen end-to-end benchmark picks its write streams by
//! them; they can go with its next version.
//!
//! [`maintain`] is the one maintenance path: the `System` facade and the
//! serve writer both reach it through `EngineSnapshot::maintain_cow`, so
//! every surface produces identical [`UpdateReport`] accounting. It is
//! built on the structural edit rule [`crate::api::apply_edit`] and
//! reports a no-op exactly when that rule says the edge set did not
//! change ([`UpdateReport::effective`]).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use ds_fragment::{FragmentId, Fragmentation};
use ds_graph::{Cost, CsrGraph, Edge, NodeId, ScratchDijkstra, INFINITE_COST};

use crate::api::{apply_edit, validate, NetworkUpdate};
use crate::bulk::widen;
use crate::complementary::{Affected, Changes, ComplementaryInfo, Through};
use crate::error::ClosureError;
use crate::local::{LocalGraph, Site};

/// A label for a deletion's edge. Every deletion takes the same repair
/// (see the module docs); the label is kept because the end-to-end
/// benchmark picks its write streams by it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// The deleted edge connects two border nodes — it lies in a
    /// disconnection-set crossing.
    DisconnectionSetCrossing,
    /// The deletion disconnected a previously reachable border pair
    /// (e.g. a bridge edge between fragments' borders) and dropped its
    /// tuple.
    Disconnected,
}

/// Outcome of one update, as accounted by [`maintain`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateReport {
    /// Shortcut tuples whose cost improved, or that the insert added
    /// (insert maintenance).
    pub shortcuts_improved: usize,
    /// Shortcut tuples whose cost was repaired upward, or that the
    /// deletion dropped.
    pub shortcuts_repaired: usize,
    /// Whether the deletion is labelled (`fallback_reason` is `Some`): a
    /// crossing or disconnecting delete. A label only — every deletion
    /// takes the one repair — kept because the end-to-end benchmark picks
    /// its write streams by it.
    pub full_recompute: bool,
    /// The deletion's label; `None` for an insert and an interior delete
    /// that disconnects nothing (invariant:
    /// `full_recompute == fallback_reason.is_some()`).
    pub fallback_reason: Option<FallbackReason>,
    /// Sites whose state (fragment edges or border distances) changed —
    /// the owner, whose edges changed, plus every site holding both
    /// borders of a changed hub entry: the sites a distributed deployment
    /// would have to ship a delta to.
    pub sites_touched: usize,
    /// Shortcut tuples the rebuilt sites count
    /// ([`crate::ComplementaryInfo::shortcuts`]): the update's
    /// communication volume in the paper's accounting.
    pub tuples_shipped: usize,
}

impl UpdateReport {
    /// Whether the update changed the network — [`crate::api::apply_edit`]
    /// said the edge set changed. [`maintain`] then touches at least the
    /// owner's site, and reports [`UpdateReport::noop`] otherwise; one
    /// effective update is one epoch.
    pub fn effective(&self) -> bool {
        self.sites_touched > 0
    }

    /// A report for an update that changed nothing (no-op removal).
    pub fn noop() -> Self {
        UpdateReport {
            shortcuts_improved: 0,
            shortcuts_repaired: 0,
            full_recompute: false,
            fallback_reason: None,
            sites_touched: 0,
            tuples_shipped: 0,
        }
    }
}

/// Aggregate outcome of [`crate::api::TcEngine::update_batch`].
#[derive(Clone, Debug, Default)]
pub struct UpdateBatchReport {
    /// One report per update, in application order.
    pub reports: Vec<UpdateReport>,
}

impl UpdateBatchReport {
    /// Updates labelled `full_recompute`.
    pub fn full_recomputes(&self) -> usize {
        self.reports.iter().filter(|r| r.full_recompute).count()
    }

    /// Total shortcut tuples shipped across the batch.
    pub fn tuples_shipped(&self) -> usize {
        self.reports.iter().map(|r| r.tuples_shipped).sum()
    }

    /// Total site touches across the batch.
    pub fn sites_touched(&self) -> usize {
        self.reports.iter().map(|r| r.sites_touched).sum()
    }

    /// Fraction of updates without a `full_recompute` label (1.0 for an
    /// empty batch).
    pub fn incremental_fraction(&self) -> f64 {
        if self.reports.is_empty() {
            return 1.0;
        }
        1.0 - self.full_recomputes() as f64 / self.reports.len() as f64
    }
}

/// How one update could have affected the *reachability* relation —
/// the structural facts a reachability-index owner needs to decide
/// keep-vs-rebuild without recomputing anything. [`maintain`] reports
/// them; the owner (`EngineSnapshot::maintain_cow`) applies the rules:
///
/// * `Unchanged` — keep the index as-is;
/// * `Inserted` — keep iff the index already answers `src` reaches
///   `dst` (and the reverse on symmetric networks): an edge inside the
///   existing reachability relation adds no pairs;
/// * `Removed` — keep iff `parallel_remains`: a surviving parallel
///   connection carries every path the removed one did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnectivityEffect {
    /// No structural change (no-op removal).
    Unchanged,
    /// A connection `src -> dst` was inserted (plus `dst -> src` on
    /// symmetric networks).
    Inserted { src: NodeId, dst: NodeId },
    /// A connection was removed; `parallel_remains` is true when the
    /// post-update global graph still holds an edge for every removed
    /// direction (a parallel connection, e.g. one owned by another
    /// fragment), so reachability is provably unchanged.
    Removed { parallel_remains: bool },
}

/// What the snapshot must do after [`maintain`] returns: rebuild the
/// listed sites' evaluation state.
#[derive(Clone, Debug)]
pub struct Maintenance {
    pub report: UpdateReport,
    /// Sites holding both borders of a changed hub entry.
    pub shortcut_sites: Vec<FragmentId>,
    /// The fragment whose edge set changed; `None` for a no-op removal.
    pub owner: Option<FragmentId>,
    /// The owner's graph over its edited tuples, for its rebuilt site.
    pub owner_graph: Option<Arc<LocalGraph>>,
    /// The structural connectivity facts of this update (for
    /// reachability-index maintenance).
    pub connectivity: ConnectivityEffect,
}

impl Maintenance {
    fn noop() -> Self {
        Maintenance {
            report: UpdateReport::noop(),
            shortcut_sites: Vec::new(),
            owner: None,
            owner_graph: None,
            connectivity: ConnectivityEffect::Unchanged,
        }
    }

    /// An effective update: the owner's site is touched whatever else
    /// changed, and the sites `changes` reaches ship their shortcuts — an
    /// insert's counted entries improved, a delete's repaired.
    fn effective(
        comp: &ComplementaryInfo,
        owner: FragmentId,
        owner_graph: Arc<LocalGraph>,
        changes: Changes,
        edit: Edit,
        fallback_reason: Option<FallbackReason>,
    ) -> Self {
        let shortcut_sites = changes.sites;
        let mut touched: BTreeSet<FragmentId> = shortcut_sites.iter().copied().collect();
        touched.insert(owner);
        let tuples_shipped = (shortcut_sites.iter())
            .map(|&f| comp.shortcuts(f).count())
            .sum();
        let changed = changes.counted;
        let (improved, repaired) = match edit {
            Edit::Insert => (changed, 0),
            Edit::Remove => (0, changed),
        };
        Maintenance {
            report: UpdateReport {
                shortcuts_improved: improved,
                shortcuts_repaired: repaired,
                full_recompute: fallback_reason.is_some(),
                fallback_reason,
                sites_touched: touched.len(),
                tuples_shipped,
            },
            shortcut_sites,
            owner: Some(owner),
            owner_graph: Some(owner_graph),
            connectivity: ConnectivityEffect::Unchanged,
        }
    }
}

/// The maintenance path: apply the structural edit
/// ([`crate::api::apply_edit`]), edit the closure graph by the entries
/// the update added or dropped, then keep `comp`'s hub exact — an insert
/// by lowering entries through the new edge, a delete by re-closing the
/// pairs the repair rule names over the patched skeleton. `sites` are the
/// pre-update sites, whose graphs hold the endpoints' cells. The caller passes its retained state, including a
/// persistent `scratch` that every sweep of the update runs on.
///
/// `graph` and `frag` are owned through [`Arc`] handles: a caller whose
/// state is shared with published snapshots (the serve writer's working
/// copy) pays a copy only for the pieces an update actually replaces —
/// the edited global graph gets a fresh `Arc`, the fragmentation is
/// detached via [`Arc::make_mut`] once per shared epoch, and `comp` detaches
/// the hub the same way when an entry changes.
pub fn maintain(
    graph: &mut Arc<CsrGraph>,
    frag: &mut Arc<Fragmentation>,
    symmetric: bool,
    comp: &mut ComplementaryInfo,
    sites: &[Arc<Site>],
    update: &NetworkUpdate,
    scratch: &mut ScratchDijkstra,
) -> Result<Maintenance, ClosureError> {
    // Refused against the shared fragmentation, before anything is
    // detached: an invalid update clones nothing.
    validate(frag, update)?;
    // The closure-graph entries the update adds or drops: one per tuple
    // and direction. A removal drops every matching tuple of its owner
    // and no other fragment's, so an identical tuple another fragment
    // owns keeps its entries.
    let (added, removed): (Vec<Edge>, Vec<Edge>) = match *update {
        NetworkUpdate::Insert { edge, .. } => (directions(&edge, symmetric).collect(), Vec::new()),
        NetworkUpdate::Remove { src, dst, owner } => {
            let owned = frag.fragment(owner).edges().iter();
            let gone = owned.filter(|e| e.connects(src, dst, symmetric));
            (
                Vec::new(),
                gone.flat_map(|e| directions(e, symmetric)).collect(),
            )
        }
    };
    if !apply_edit(Arc::make_mut(frag), symmetric, update)? {
        return Ok(Maintenance::noop());
    }
    *graph = Arc::new(graph.edited(&added, &removed));
    // Every non-border endpoint lies in the owner alone.
    let (NetworkUpdate::Insert { owner, .. } | NetworkUpdate::Remove { owner, .. }) = *update;
    let site = &sites[owner];
    // The owner's edited graph: its stale re-sweep and new site share it.
    let local = Arc::new(LocalGraph::new(frag.fragment(owner), symmetric));
    match *update {
        NetworkUpdate::Insert { edge, owner } => {
            let ends = Endpoints::run(comp, site, symmetric, &added, scratch);
            let changes = improve(comp, &ends, &added);
            let (stale, crossing) = skeleton_edits(comp, owner, &ends, &added, Edit::Insert);
            comp.patch(graph, stale.then_some((owner, &*local)), &crossing, scratch);
            let mut m = Maintenance::effective(comp, owner, local, changes, Edit::Insert, None);
            m.connectivity = ConnectivityEffect::Inserted {
                src: edge.src,
                dst: edge.dst,
            };
            Ok(m)
        }
        NetworkUpdate::Remove { src, dst, owner } => {
            // Reachability fact: does the post-update graph still carry
            // every removed direction through a parallel connection?
            let still = |a: NodeId, b: NodeId| graph.out_targets(a).contains(&b);
            let connectivity = ConnectivityEffect::Removed {
                parallel_remains: still(src, dst) && (!symmetric || src == dst || still(dst, src)),
            };
            // Affected-pair detection reads the *pre-deletion* distances:
            // the repair rule compares against the stored (old) ones.
            let ends = Endpoints::run(comp, site, symmetric, &removed, scratch);
            let affected = affected_pairs(comp, &ends, &removed);
            let t = Instant::now();
            let (stale, crossing) = skeleton_edits(comp, owner, &ends, &removed, Edit::Remove);
            comp.patch(graph, stale.then_some((owner, &*local)), &crossing, scratch);
            let patch_ns = t.elapsed().as_nanos() as u64;
            let changes = comp.reclose(&affected, symmetric, patch_ns, scratch);
            // The edge's topology decides the label only.
            let border = |v| comp.skeleton_id(v).is_some();
            let reason = if border(src) && border(dst) {
                Some(FallbackReason::DisconnectionSetCrossing)
            } else {
                changes.dropped.then_some(FallbackReason::Disconnected)
            };
            let mut m = Maintenance::effective(comp, owner, local, changes, Edit::Remove, reason);
            m.connectivity = connectivity;
            Ok(m)
        }
    }
}

/// The closure-graph entries of one tuple: itself, plus its reverse on a
/// symmetric network (a loop once).
fn directions(e: &Edge, symmetric: bool) -> impl Iterator<Item = Edge> {
    let back = (symmetric && !e.is_loop()).then(|| e.reversed());
    std::iter::once(*e).chain(back)
}

/// What an edit does to the network: the fragment-level repair rule asks
/// a different question of each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Edit {
    Insert,
    Remove,
}

/// What the edit of `entries` (owned by `owner`) asks of the kept
/// skeleton: the skeleton pairs of its entries between two borders, to
/// re-derive, and whether the owner is stale — whether an entry with a
/// non-border endpoint changes one of the owner's local-sweep edges
/// `b -> b'`: over the borders of the endpoint cells, `cell(b, u) + c +
/// cell(v, b')` beats the edge (insert) or equals it (delete), both on
/// the pre-edit cells. An entry whose cells touch no border changes none.
fn skeleton_edits(
    comp: &ComplementaryInfo,
    owner: FragmentId,
    ends: &Endpoints,
    entries: &[Edge],
    edit: Edit,
) -> (bool, Vec<(usize, usize)>) {
    let mut crossing = Vec::new();
    let mut stale = false;
    for e in entries {
        if let (Some(u), Some(v)) = (comp.skeleton_id(e.src), comp.skeleton_id(e.dst)) {
            crossing.extend((u != v).then_some((u, v)));
            continue;
        }
        let (back, fwd) = (&ends.to(e.src).seeds, &ends.from(e.dst).seeds);
        stale = stale
            || back.iter().any(|&(b, to)| {
                fwd.iter().any(|&(b2, from)| {
                    let (kept, cand) = (comp.interior_cost(owner, b, b2), to + e.cost + from);
                    b != b2
                        && match edit {
                            Edit::Insert => cand < kept,
                            Edit::Remove => cand == kept,
                        }
                })
            });
    }
    (stale, crossing)
}

/// One endpoint's distances to or from every border node, by skeleton id
/// (`INFINITE_COST` = unreachable), read off the pre-edit hub's widened
/// words — the repair rule compares hub entries against these and
/// nothing else.
struct Reach {
    /// The borders the endpoint enters or leaves the skeleton by: a
    /// border endpoint itself at 0, or the borders of its cell at their
    /// cell distances.
    seeds: Vec<(usize, Cost)>,
    costs: Vec<Cost>,
}

impl Reach {
    /// The distances from `x` — or, `backward`, to it — at every border:
    /// `dist(x, t) = min over seeds (b, c) of c + H[b][t]`, and
    /// `dist(t, x) = min of H[t][b] + c`. A border's are its hub row or
    /// column; any other endpoint first sweeps its cell on `site`'s graph
    /// (its transpose, `backward` on a one-way network) on `scratch`.
    fn read(
        comp: &ComplementaryInfo,
        site: &Site,
        x: NodeId,
        backward: bool,
        scratch: &mut ScratchDijkstra,
    ) -> Self {
        let seeds: Vec<(usize, Cost)> = match comp.skeleton_id(x) {
            Some(s) => vec![(s, 0)],
            None => (site.sweep_cell(x, backward, scratch).into_iter())
                .map(|(b, cost)| (comp.skeleton_id(b).expect("a border"), cost))
                .collect(),
        };
        let (hub, nb) = (comp.hub().all_words(), comp.border_count());
        let mut costs = vec![INFINITE_COST; nb];
        for &(b, c) in &seeds {
            for (t, cost) in costs.iter_mut().enumerate() {
                let h = if backward {
                    hub[t * nb + b]
                } else {
                    hub[b * nb + t]
                };
                *cost = (*cost).min(c + widen(h));
            }
        }
        Reach { seeds, costs }
    }
}

/// The distances one update's repair rule reads: for each directed entry
/// `u -> v` it adds or drops, `dist(·, u)` and `dist(v, ·)` at every
/// border. A symmetric network's hub and sites are their own transposes,
/// so one read per distinct endpoint serves both directions; a one-way
/// network reads `to` off the hub's columns and the sites' transposes.
struct Endpoints {
    from: Vec<(NodeId, Reach)>,
    /// Empty on a symmetric network: `from` serves.
    to: Vec<(NodeId, Reach)>,
}

impl Endpoints {
    fn run(
        comp: &ComplementaryInfo,
        site: &Site,
        symmetric: bool,
        entries: &[Edge],
        scratch: &mut ScratchDijkstra,
    ) -> Self {
        let mut read_each = |mut nodes: Vec<NodeId>, backward: bool| {
            nodes.sort_unstable();
            nodes.dedup();
            (nodes.into_iter())
                .map(|x| (x, Reach::read(comp, site, x, backward, scratch)))
                .collect()
        };
        let (sources, targets) = entries.iter().map(|e| (e.src, e.dst)).unzip();
        if symmetric {
            Endpoints {
                from: read_each([sources, targets].concat(), false),
                to: Vec::new(),
            }
        } else {
            Endpoints {
                from: read_each(targets, false),
                to: read_each(sources, true),
            }
        }
    }

    fn find(sweeps: &[(NodeId, Reach)], x: NodeId) -> &Reach {
        let at = sweeps.iter().position(|(y, _)| *y == x);
        &sweeps[at.expect("an endpoint of the update")].1
    }

    /// `dist(v, b)` for every border `b`.
    fn from(&self, v: NodeId) -> &Reach {
        Self::find(&self.from, v)
    }

    /// `dist(b, u)` for every border `b`.
    fn to(&self, u: NodeId) -> &Reach {
        if self.to.is_empty() {
            self.from(u)
        } else {
            Self::find(&self.to, u)
        }
    }

    /// What the repair rule reads for the entry `u -> v` of cost `cost`;
    /// `None` when no border reaches `u` or none is reached from `v` — the
    /// entry lies on no hub pair's path.
    fn through(&self, u: NodeId, cost: Cost, v: NodeId) -> Option<Through<'_>> {
        let (to, from) = (self.to(u), self.from(v));
        (!to.seeds.is_empty() && !from.seeds.is_empty()).then_some(Through {
            to: &to.costs,
            cost,
            from: &from.costs,
            enter: &from.seeds,
        })
    }
}

/// Lower every hub entry `(a, b)` — no path counting as infinite — to
/// `min(cost, dist(a, u) + c + dist(v, b))` over the inserted entries
/// `u -> v` of cost `c`: exact because improved paths must use a new
/// edge, and once. Returns what the lowered entries mean to the sites.
fn improve(comp: &mut ComplementaryInfo, ends: &Endpoints, added: &[Edge]) -> Changes {
    let entries: Vec<Through> = (added.iter())
        .filter_map(|e| ends.through(e.src, e.cost, e.dst))
        .collect();
    comp.lower(&entries)
}

/// The border pairs whose shortest routes could have used a removed
/// entry (the deletion repair rule, evaluated on the pre-deletion hub),
/// grouped by source.
fn affected_pairs(comp: &ComplementaryInfo, ends: &Endpoints, removed: &[Edge]) -> Affected {
    // Parallel entries of equal cost need one test, not two.
    let distinct: BTreeSet<(NodeId, NodeId, Cost)> =
        removed.iter().map(|e| (e.src, e.dst, e.cost)).collect();
    let entries: Vec<Through> = (distinct.into_iter())
        .filter_map(|(u, v, cost)| ends.through(u, cost, v))
        .collect();
    comp.affected(&entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::engine::EngineConfig;
    use crate::snapshot::tests::grid_snapshot;
    use crate::snapshot::EngineSnapshot;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn is_border(frag: &Fragmentation, v: NodeId) -> bool {
        frag.fragments_of_node(v).len() >= 2
    }

    fn build() -> (EngineSnapshot, ScratchDijkstra) {
        (
            grid_snapshot(8, 4, EngineConfig::default()).1,
            ScratchDijkstra::new(),
        )
    }

    fn insert(edge: Edge, owner: FragmentId) -> NetworkUpdate {
        NetworkUpdate::Insert { edge, owner }
    }

    fn remove(src: NodeId, dst: NodeId, owner: FragmentId) -> NetworkUpdate {
        NetworkUpdate::Remove { src, dst, owner }
    }

    /// The first and last node of fragment 0: an in-fragment pair no grid
    /// edge joins.
    fn far_pair(engine: &EngineSnapshot) -> (NodeId, NodeId) {
        let nodes = engine.fragmentation().fragment(0).nodes();
        (nodes[0], *nodes.last().unwrap())
    }

    fn check_all(engine: &EngineSnapshot, scratch: &mut ScratchDijkstra) {
        for x in (0..32).step_by(5) {
            for y in (0..32).step_by(7) {
                assert_eq!(
                    engine.shortest_path(n(x), n(y), scratch).cost,
                    baseline::shortest_path_cost(engine.graph(), n(x), n(y)),
                    "{x}->{y} after update"
                );
            }
        }
    }

    fn consistent(report: &UpdateReport) {
        assert_eq!(
            report.full_recompute,
            report.fallback_reason.is_some(),
            "{report:?}"
        );
        assert!(report.effective(), "{report:?}");
    }

    #[test]
    fn insert_within_fragment_stays_exact() {
        let (mut engine, mut scratch) = build();
        // An in-fragment non-adjacent pair gets a cheap shortcut.
        let (a, b) = far_pair(&engine);
        let report = engine
            .maintain(&insert(Edge::new(a, b, 1), 0), &mut scratch)
            .unwrap();
        assert!(!report.full_recompute);
        consistent(&report);
        check_all(&engine, &mut scratch);
    }

    #[test]
    fn insert_improves_cross_fragment_queries() {
        let (mut engine, mut scratch) = build();
        let before = engine
            .shortest_path(n(0), n(31), &mut scratch)
            .cost
            .unwrap();
        // A cheap diagonal inside fragment 0 shortens cross-grid routes.
        let (a, b) = far_pair(&engine);
        let report = engine
            .maintain(&insert(Edge::new(a, b, 1), 0), &mut scratch)
            .unwrap();
        let after = engine
            .shortest_path(n(0), n(31), &mut scratch)
            .cost
            .unwrap();
        assert!(after <= before, "insertion cannot lengthen paths");
        if after < before {
            assert!(
                report.shortcuts_improved > 0,
                "improvement must flow via shortcuts"
            );
            assert!(report.sites_touched >= 1);
            assert!(report.tuples_shipped > 0);
        }
        check_all(&engine, &mut scratch);
    }

    #[test]
    fn insert_endpoint_outside_owner_rejected() {
        let (mut engine, mut scratch) = build();
        // Node 31 (last column) is not in fragment 0.
        let err = engine
            .maintain(&insert(Edge::new(n(0), n(31), 1), 0), &mut scratch)
            .unwrap_err();
        assert!(matches!(err, crate::ClosureError::NodeNotInAnyFragment(_)));
    }

    #[test]
    fn remove_interior_edge_repairs_incrementally() {
        let (mut engine, mut scratch) = build();
        // Pick a fragment-0 edge with at least one non-border endpoint:
        // its deletion is not a crossing, and the grid is 2-edge-connected,
        // so nothing disconnects either — it carries no label.
        let frag = engine.fragmentation().clone();
        let e = *frag
            .fragment(0)
            .edges()
            .iter()
            .find(|e| {
                frag.fragments_of_node(e.src).len() < 2 || frag.fragments_of_node(e.dst).len() < 2
            })
            .expect("grid fragment has interior edges");
        let report = engine
            .maintain(&remove(e.src, e.dst, 0), &mut scratch)
            .unwrap();
        assert!(!report.full_recompute, "{report:?}");
        assert_eq!(report.fallback_reason, None);
        consistent(&report);
        check_all(&engine, &mut scratch);
    }

    #[test]
    fn remove_connection_stays_exact() {
        let (mut engine, mut scratch) = build();
        // Remove a real in-fragment connection (whichever comes first —
        // labelled or not, answers must stay exact).
        let e = engine.fragmentation().fragment(0).edges()[0];
        let report = engine
            .maintain(&remove(e.src, e.dst, 0), &mut scratch)
            .unwrap();
        consistent(&report);
        check_all(&engine, &mut scratch);
    }

    #[test]
    fn remove_missing_connection_is_noop() {
        let (mut engine, mut scratch) = build();
        let before = engine.shortest_path(n(0), n(31), &mut scratch).cost;
        let report = engine
            .maintain(&remove(n(0), n(0), 0), &mut scratch)
            .unwrap();
        assert_eq!(report, UpdateReport::noop());
        assert!(!report.effective());
        assert_eq!(engine.shortest_path(n(0), n(31), &mut scratch).cost, before);
    }

    fn routes_real(engine: &EngineSnapshot, scratch: &mut ScratchDijkstra, x: NodeId, y: NodeId) {
        let csr = engine.graph();
        let route = engine.route(x, y, scratch).unwrap().unwrap();
        assert_eq!(
            Some(route.cost),
            baseline::shortest_path_cost(csr, x, y),
            "route cost {x}->{y}"
        );
        let mut total = 0;
        for hop in route.nodes.windows(2) {
            total += csr
                .neighbors(hop[0])
                .filter(|(t, _)| *t == hop[1])
                .map(|(_, c)| c)
                .min()
                .expect("real hop");
        }
        assert_eq!(total, route.cost);
    }

    /// Every connected pair of a sample answers a real route of optimal
    /// cost.
    fn routes_everywhere(engine: &EngineSnapshot, scratch: &mut ScratchDijkstra) {
        for x in (0..32).step_by(3) {
            for y in (0..32).step_by(5) {
                if x != y && baseline::shortest_path_cost(engine.graph(), n(x), n(y)).is_some() {
                    routes_real(engine, scratch, n(x), n(y));
                }
            }
        }
    }

    /// Routes are read off each epoch's kept skeleton, so every write —
    /// an in-fragment shortcut and its delete, a crossing insert and
    /// delete, a disconnecting delete — leaves them real and optimal.
    #[test]
    fn updates_with_stored_paths_keep_routes_real() {
        let (mut engine, mut scratch) = build();
        let (a, b) = far_pair(&engine);
        let report = engine
            .maintain(&insert(Edge::new(a, b, 1), 0), &mut scratch)
            .unwrap();
        assert!(!report.full_recompute, "{report:?}");
        routes_real(&engine, &mut scratch, n(0), n(31));

        // Now delete the shortcut edge again.
        let report = engine.maintain(&remove(a, b, 0), &mut scratch).unwrap();
        consistent(&report);
        routes_real(&engine, &mut scratch, n(0), n(31));
        check_all(&engine, &mut scratch);

        // A crossing delete: a cheap edge between two borders of fragment
        // 0 carries shortcuts until it is deleted again.
        let frag = engine.fragmentation().clone();
        let borders: Vec<NodeId> = (frag.fragment(0).nodes().iter().copied())
            .filter(|&v| is_border(&frag, v))
            .collect();
        let (a, b) = (borders[0], *borders.last().unwrap());
        let report = engine
            .maintain(&insert(Edge::new(a, b, 1), 0), &mut scratch)
            .unwrap();
        assert!(report.shortcuts_improved > 0, "{report:?}");
        routes_everywhere(&engine, &mut scratch);
        let report = engine.maintain(&remove(a, b, 0), &mut scratch).unwrap();
        consistent(&report);
        assert_eq!(
            report.fallback_reason,
            Some(FallbackReason::DisconnectionSetCrossing)
        );
        routes_everywhere(&engine, &mut scratch);
        check_all(&engine, &mut scratch);

        // A disconnecting delete: cut a border down to one edge towards a
        // non-border node, then delete that edge too.
        let frag = engine.fragmentation().clone();
        let owned = |v: NodeId| {
            (frag.fragments().iter())
                .flat_map(move |f| f.edges().iter().map(move |e| (f.id(), *e)))
                .filter(move |(_, e)| e.src == v || e.dst == v)
        };
        let interior_end = |e: &Edge, v: NodeId| {
            let other = if e.src == v { e.dst } else { e.src };
            !is_border(&frag, other)
        };
        let border = (0..32)
            .map(n)
            .find(|&v| is_border(&frag, v) && owned(v).any(|(_, e)| interior_end(&e, v)))
            .expect("a border with an interior neighbour");
        let mut cuts: Vec<(FragmentId, Edge)> = owned(border).collect();
        let last = cuts
            .iter()
            .position(|(_, e)| interior_end(e, border))
            .expect("found above");
        let last = cuts.remove(last);
        for (owner, e) in cuts {
            engine
                .maintain(&remove(e.src, e.dst, owner), &mut scratch)
                .unwrap();
        }
        let report = engine
            .maintain(&remove(last.1.src, last.1.dst, last.0), &mut scratch)
            .unwrap();
        consistent(&report);
        assert_eq!(report.fallback_reason, Some(FallbackReason::Disconnected));
        routes_everywhere(&engine, &mut scratch);
        check_all(&engine, &mut scratch);
    }

    /// An insert whose endpoints reach no border changes no hub entry and
    /// detaches neither the hub nor another site: fragment 0 holds a
    /// component `{5, 6, 7}` apart from its borders `0` and `3`.
    #[test]
    fn an_insert_that_reaches_no_border_leaves_every_table_shared() {
        let e = |a: u32, b: u32| Edge::unit(n(a), n(b));
        for symmetric in [true, false] {
            let frag = Fragmentation::new(
                8,
                vec![
                    vec![e(0, 1), e(1, 2), e(2, 3), e(5, 6), e(6, 7)],
                    vec![e(3, 4), e(4, 0)],
                ],
                vec![Vec::new(); 2],
            );
            let before = EngineSnapshot::build(frag, symmetric, EngineConfig::default());
            assert!(before.complementary().pair_count() > 0);
            let mut after = before.clone();
            let cow = after
                .maintain_cow(&insert(e(5, 7), 0), &mut ScratchDijkstra::new())
                .unwrap();
            assert_eq!(cow.report.shortcuts_improved, 0, "symmetric={symmetric}");
            assert!(cow.shortcut_sites.is_empty(), "symmetric={symmetric}");
            assert_eq!(cow.touched_sites, [0], "symmetric={symmetric}");
            assert!(Arc::ptr_eq(before.hub_handle(), after.hub_handle()));
            assert!(Arc::ptr_eq(before.site_handle(1), after.site_handle(1)));
            for f in 0..2 {
                let (was, now) = (before.complementary(), after.complementary());
                // The cells of 5 and 7 touch no border: nothing re-swept.
                let kept = Arc::ptr_eq(was.local_sweeps(f), now.local_sweeps(f));
                assert!(kept, "symmetric={symmetric}: fragment {f}");
            }
        }
    }

    /// A crossing insert — both endpoints borders — is a skeleton edge of
    /// its own: it re-sweeps no fragment, edits the one skeleton pair it
    /// joins, and leaves the hub exact; its delete puts the skeleton
    /// back the way the build derived it.
    #[test]
    fn a_crossing_edit_edits_one_skeleton_pair_and_resweeps_nothing() {
        for symmetric in [true, false] {
            let frag = build().0.fragmentation().clone();
            let built = EngineSnapshot::build(frag.clone(), symmetric, EngineConfig::default());
            let borders: Vec<NodeId> = (frag.fragment(0).nodes().iter().copied())
                .filter(|&v| is_border(&frag, v))
                .collect();
            let (a, b) = (borders[0], *borders.last().unwrap());
            let mut engine = built.clone();
            let mut scratch = ScratchDijkstra::new();
            let report = engine
                .maintain(&insert(Edge::new(a, b, 1), 0), &mut scratch)
                .unwrap();
            assert!(report.shortcuts_improved > 0, "{report:?}");
            let (was, now) = (built.complementary(), engine.complementary());
            for f in 0..frag.fragment_count() {
                let kept = Arc::ptr_eq(was.local_sweeps(f), now.local_sweeps(f));
                assert!(kept, "symmetric={symmetric}: fragment {f} re-swept");
            }
            let edited: Vec<Edge> = (now.skeleton_edges().into_iter())
                .filter(|e| !was.skeleton_edges().contains(e))
                .collect();
            let mut want = vec![Edge::new(a, b, 1)];
            want.extend(symmetric.then(|| Edge::new(b, a, 1)));
            assert_eq!(edited, want, "symmetric={symmetric}");
            check_all(&engine, &mut scratch);
            engine.maintain(&remove(a, b, 0), &mut scratch).unwrap();
            let now = engine.complementary();
            assert_eq!(now.skeleton_edges(), was.skeleton_edges());
            check_all(&engine, &mut scratch);
        }
    }

    #[test]
    fn update_batch_report_aggregates() {
        let (mut engine, mut scratch) = build();
        let (a, b) = far_pair(&engine);
        let reports = [insert(Edge::new(a, b, 1), 0), remove(a, b, 0)]
            .iter()
            .map(|u| engine.maintain(u, &mut scratch).unwrap())
            .collect();
        let batch = UpdateBatchReport { reports };
        assert_eq!(batch.reports.len(), 2);
        assert!(batch.incremental_fraction() >= 0.0);
        assert_eq!(
            batch.tuples_shipped(),
            batch
                .reports
                .iter()
                .map(|r| r.tuples_shipped)
                .sum::<usize>()
        );
        check_all(&engine, &mut scratch);
    }
}
