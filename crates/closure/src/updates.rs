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
//! * **Insertions** add a connection, which can only *decrease* global
//!   distances, and any improved shortest path uses the new edge; so the
//!   distances between its endpoints and the border nodes — the only
//!   ones the tables are compared against — refresh every entry of every
//!   site's table: `dist'(a,b) = min(dist(a,b), dist(a,u) + c + dist(v,b))`,
//!   "no tuple" counting as infinite — so a border pair the new
//!   connection joins for the first time (a disconnecting deletion had
//!   dropped its tuple, or a one-way network never had one) gets its
//!   tuple at every site holding both borders. Stored shortcut paths are
//!   patched from the same sweeps' trees (`path(a,u) ++ path(v,b)`), so
//!   inserts never fall back.
//! * **Deletions** can increase distances, which per-pair minima cannot
//!   repair locally — but only for shortcuts whose shortest path *used*
//!   the deleted edge. The **deletion repair rule**: a shortcut `(a, b)`
//!   is affected by removing `u -> v` with cost `c` iff, over the
//!   pre-deletion distances, `dist(a,u) + c + dist(v,b) == dist(a,b)`
//!   (any shortest path through the edge achieves exactly that sum, and
//!   the stored cost *is* `dist(a,b)`). The engine detects the affected
//!   border sources from the same endpoint-to-border distances, then
//!   re-runs Dijkstra on the post-deletion graph only from those sources.
//!
//! Those distances come from one sweep per endpoint on the caller's
//! scratch, stopped once every border node is settled, and copied out at
//! the borders: on a symmetric network the closure graph is its own
//! transpose, so an interior edit costs two sweeps in all (plus one per
//! affected source on a delete); a one-way network sweeps `dist(·, u)`
//! on one transpose of the graph. The closure graph itself is edited —
//! the update's entries added or dropped — not re-derived from the
//! fragments.
//!
//! The repair stays within the incremental regime unless one of two
//! fallback conditions holds, in which case the stale fragments (those
//! whose node set holds both endpoints of some edit since their last
//! sweep) are re-swept, the skeleton re-closed and the tables
//! re-assembled ([`crate::complementary`]), and the report says why
//! ([`UpdateReport::fallback_reason`]):
//!
//! * [`FallbackReason::DisconnectionSetCrossing`] — the deleted edge
//!   joins two border nodes (it lies *in* a disconnection-set crossing),
//!   so it may itself support shortcut pairs whose set membership the
//!   per-source repair cannot re-derive.
//! * [`FallbackReason::Disconnected`] — the deletion made a previously
//!   reachable border pair unreachable (e.g. a bridge edge); shortcut
//!   tuples must then be *dropped*, not re-costed, which is the
//!   recompute's job.
//!
//! [`maintain`] is the one maintenance path: the `System` facade and the
//! serve writer both reach it through `EngineSnapshot::maintain_cow`, so
//! every surface produces identical [`UpdateReport`] accounting. It is
//! built on the structural edit rule [`crate::api::apply_edit`] and
//! reports a no-op exactly when that rule says the edge set did not
//! change ([`UpdateReport::effective`]).

use std::collections::BTreeSet;
use std::sync::Arc;

use ds_fragment::{FragmentId, Fragmentation};
use ds_graph::{Cost, CsrGraph, Edge, NodeId, ScratchDijkstra, INFINITE_COST};

use crate::api::{apply_edit, validate, NetworkUpdate};
use crate::complementary::ComplementaryInfo;
use crate::error::ClosureError;

/// Why an update fell back to re-sweeping the stale fragments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// The deleted edge connects two border nodes — it lies in a
    /// disconnection-set crossing, outside the repair rule's regime.
    DisconnectionSetCrossing,
    /// The deletion disconnected a previously reachable border pair
    /// (e.g. a bridge edge between fragments' borders).
    Disconnected,
}

/// Outcome of one update, as accounted by [`maintain`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateReport {
    /// Shortcut tuples whose cost improved, or that the insert added
    /// (insert maintenance).
    pub shortcuts_improved: usize,
    /// Shortcut tuples whose cost was repaired upward (deletion repair).
    pub shortcuts_repaired: usize,
    /// Whether the engine had to fall back: re-sweep the stale fragments,
    /// re-close the skeleton and re-assemble the tables.
    pub full_recompute: bool,
    /// Why the fallback happened; `None` on the incremental path
    /// (invariant: `full_recompute == fallback_reason.is_some()`).
    pub fallback_reason: Option<FallbackReason>,
    /// Sites whose state (fragment edges or shortcut table) changed —
    /// the owner, whose edges changed, plus every site whose table did:
    /// the sites a distributed deployment would have to ship a delta to.
    pub sites_touched: usize,
    /// Shortcut tuples in the touched sites' refreshed tables: the
    /// update's communication volume in the paper's accounting.
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
    /// Updates that fell back.
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

    /// Fraction of updates that stayed incremental (1.0 when none fell
    /// back; 1.0 for an empty batch).
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
    /// Sites whose shortcut tables changed.
    pub shortcut_sites: Vec<FragmentId>,
    /// The fragment whose edge set changed; `None` for a no-op removal.
    pub owner: Option<FragmentId>,
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
            connectivity: ConnectivityEffect::Unchanged,
        }
    }

    /// An effective update: the owner's site is touched whatever else
    /// changed, and the sites in `shortcut_sites` ship their tables.
    fn effective(
        comp: &ComplementaryInfo,
        owner: FragmentId,
        shortcut_sites: Vec<FragmentId>,
        (improved, repaired): (usize, usize),
        fallback_reason: Option<FallbackReason>,
    ) -> Self {
        let mut touched: BTreeSet<FragmentId> = shortcut_sites.iter().copied().collect();
        touched.insert(owner);
        let tuples_shipped = tuples_at(comp, &shortcut_sites);
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
            connectivity: ConnectivityEffect::Unchanged,
        }
    }
}

/// The maintenance path: apply the structural edit
/// ([`crate::api::apply_edit`]), edit the closure graph by the entries
/// the update added or dropped, then keep `comp` exact — incrementally
/// when possible, by a fallback that re-sweeps only the stale fragments
/// otherwise. The caller passes its retained state, including a
/// persistent `scratch` that every sweep of the update runs on.
///
/// `graph` and `frag` are owned through [`Arc`] handles: a caller whose
/// state is shared with published snapshots (the serve writer's working
/// copy) pays a copy only for the pieces an update actually replaces —
/// the edited global graph gets a fresh `Arc`, the fragmentation is
/// detached via [`Arc::make_mut`] once per shared epoch, and `comp` detaches
/// per-site tables internally the same way.
pub fn maintain(
    graph: &mut Arc<CsrGraph>,
    frag: &mut Arc<Fragmentation>,
    symmetric: bool,
    comp: &mut ComplementaryInfo,
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
    let before = std::mem::replace(graph, Arc::new(graph.edited(&added, &removed)));
    let keep_parents = comp.has_paths();
    match *update {
        NetworkUpdate::Insert { edge, owner } => {
            comp.mark_stale(frag, edge.src, edge.dst);
            let sweeps = EndpointSweeps::run(
                graph,
                symmetric,
                &added,
                comp.borders(),
                keep_parents,
                scratch,
            );
            let per_site = improve(comp, &sweeps, &added);
            let improved = per_site.iter().sum();
            let shortcut_sites = nonzero_sites(&per_site);
            let mut m = Maintenance::effective(comp, owner, shortcut_sites, (improved, 0), None);
            m.connectivity = ConnectivityEffect::Inserted {
                src: edge.src,
                dst: edge.dst,
            };
            Ok(m)
        }
        NetworkUpdate::Remove { src, dst, owner } => {
            comp.mark_stale(frag, src, dst);
            // Reachability fact: does the post-update graph still carry
            // every removed direction through a parallel connection?
            let still = |a: NodeId, b: NodeId| graph.out_targets(a).contains(&b);
            let connectivity = ConnectivityEffect::Removed {
                parallel_remains: still(src, dst) && (!symmetric || src == dst || still(dst, src)),
            };
            let mut m = if is_border(frag, src) && is_border(frag, dst) {
                fallback(
                    graph,
                    frag,
                    comp,
                    owner,
                    FallbackReason::DisconnectionSetCrossing,
                    scratch,
                )
            } else {
                // Affected-set detection runs on the *pre-deletion* graph:
                // the repair rule compares against the stored (old)
                // distances.
                let sweeps = EndpointSweeps::run(
                    &before,
                    symmetric,
                    &removed,
                    comp.borders(),
                    false,
                    scratch,
                );
                let affected = affected_sources(comp, &sweeps, &removed);
                match comp.repair_sources(graph, &affected, scratch) {
                    Ok(per_site) => {
                        let repaired = per_site.iter().sum();
                        let shortcut_sites = nonzero_sites(&per_site);
                        Maintenance::effective(comp, owner, shortcut_sites, (0, repaired), None)
                    }
                    Err(_) => fallback(
                        graph,
                        frag,
                        comp,
                        owner,
                        FallbackReason::Disconnected,
                        scratch,
                    ),
                }
            };
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

/// One node's distances to or from every border node, in the order of
/// [`ComplementaryInfo::borders`] (`INFINITE_COST` = unreachable), copied
/// out of one sweep on the caller's scratch — the repair rule compares
/// table entries against these and nothing else — plus, when paths are
/// stored, the sweep's parent tree.
struct BorderDistances {
    costs: Vec<Cost>,
    parents: Option<Vec<u32>>,
}

impl BorderDistances {
    fn sweep(
        scratch: &mut ScratchDijkstra,
        g: &CsrGraph,
        x: NodeId,
        borders: &[NodeId],
        keep_parents: bool,
    ) -> Self {
        scratch.sweep_to_targets(g, &[(x, 0)], borders);
        BorderDistances {
            costs: (borders.iter())
                .map(|&b| scratch.cost(b).unwrap_or(INFINITE_COST))
                .collect(),
            parents: keep_parents.then(|| scratch.snapshot_parents(g.node_count())),
        }
    }

    /// The tree path from `w` back to the sweep's root, `w` first. For a
    /// `to` sweep (run on the transpose, or on a symmetric graph) that is
    /// the network path `w -> root`; for a `from` sweep, reversed, the
    /// path `root -> w`.
    fn walk(&self, w: NodeId) -> Vec<NodeId> {
        let parents = self
            .parents
            .as_ref()
            .expect("parents kept when paths are stored");
        let mut path = vec![w];
        let mut cur = w;
        while parents[cur.index()] != u32::MAX {
            cur = NodeId(parents[cur.index()]);
            path.push(cur);
        }
        path
    }
}

/// The sweeps one update's repair rule reads: for each directed entry
/// `u -> v` it adds or drops, `dist(·, u)` and `dist(v, ·)` at every
/// border. A symmetric closure graph is its own transpose, so one sweep
/// per distinct endpoint serves both directions; a one-way graph sweeps
/// `to` on one transpose of the graph.
struct EndpointSweeps {
    from: Vec<(NodeId, BorderDistances)>,
    /// Empty on a symmetric network: `from` serves.
    to: Vec<(NodeId, BorderDistances)>,
}

impl EndpointSweeps {
    fn run(
        graph: &CsrGraph,
        symmetric: bool,
        entries: &[Edge],
        borders: &[NodeId],
        keep_parents: bool,
        scratch: &mut ScratchDijkstra,
    ) -> Self {
        let mut sweep_each = |g: &CsrGraph, mut nodes: Vec<NodeId>| {
            nodes.sort_unstable();
            nodes.dedup();
            (nodes.into_iter())
                .map(|x| {
                    (
                        x,
                        BorderDistances::sweep(scratch, g, x, borders, keep_parents),
                    )
                })
                .collect()
        };
        let (sources, targets) = entries.iter().map(|e| (e.src, e.dst)).unzip();
        if symmetric {
            let endpoints = [sources, targets].concat();
            EndpointSweeps {
                from: sweep_each(graph, endpoints),
                to: Vec::new(),
            }
        } else {
            EndpointSweeps {
                from: sweep_each(graph, targets),
                to: sweep_each(&graph.reversed(), sources),
            }
        }
    }

    fn find(sweeps: &[(NodeId, BorderDistances)], x: NodeId) -> &BorderDistances {
        let at = sweeps.iter().position(|(y, _)| *y == x);
        &sweeps[at.expect("an endpoint of the update")].1
    }

    /// `dist(v, b)` for every border `b`.
    fn from(&self, v: NodeId) -> &BorderDistances {
        Self::find(&self.from, v)
    }

    /// `dist(b, u)` for every border `b`.
    fn to(&self, u: NodeId) -> &BorderDistances {
        if self.to.is_empty() {
            self.from(u)
        } else {
            Self::find(&self.to, u)
        }
    }
}

/// Lower every table entry `(a, b)` — a missing tuple counting as
/// infinite — to `min(cost, dist(a, u) + c + dist(v, b))` over the
/// inserted entries `u -> v` of cost `c`: exact because improved paths
/// must use a new edge. When paths are stored, the improved path is
/// spliced from the same sweeps' trees: `path(a, u) ++ path(v, b)`.
fn improve(comp: &mut ComplementaryInfo, sweeps: &EndpointSweeps, added: &[Edge]) -> Vec<usize> {
    let store = comp.has_paths();
    let entries: Vec<_> = (added.iter())
        .map(|e| (sweeps.to(e.src), e.cost, sweeps.from(e.dst)))
        .collect();
    comp.refine(|(i, a), (j, b), cost| {
        let (cand, (to_u, _, from_v)) = (entries.iter())
            .map(|entry| (entry.0.costs[i] + entry.1 + entry.2.costs[j], entry))
            .min_by_key(|&(cand, _)| cand)?;
        if cand >= cost {
            return None;
        }
        let path = store.then(|| {
            let mut p = to_u.walk(a);
            p.extend(from_v.walk(b).into_iter().rev());
            p
        });
        Some((cand, path))
    })
}

/// Border sources whose shortcuts could have routed through a removed
/// entry (the deletion repair rule, evaluated on pre-deletion distances).
fn affected_sources(
    comp: &ComplementaryInfo,
    sweeps: &EndpointSweeps,
    removed: &[Edge],
) -> BTreeSet<NodeId> {
    // Parallel entries of equal cost need one test, not two.
    let distinct: BTreeSet<(NodeId, NodeId, Cost)> =
        removed.iter().map(|e| (e.src, e.dst, e.cost)).collect();
    let tests: Vec<_> = (distinct.into_iter())
        .map(|(u, v, c)| (sweeps.to(u), c, sweeps.from(v)))
        .collect();
    let mut out = BTreeSet::new();
    for (a, i, columns, row) in comp.rows() {
        if out.contains(&a) {
            continue;
        }
        let uses_removed = |&(to_u, c, from_v): &(&BorderDistances, Cost, &BorderDistances)| {
            let through = to_u.costs[i] + c;
            (columns.iter().zip(row)).any(|(&j, &cost)| {
                j != i && cost < INFINITE_COST && through + from_v.costs[j] == cost
            })
        };
        if tests.iter().any(uses_removed) {
            out.insert(a);
        }
    }
    out
}

/// Tuples stored at `sites`: what shipping their tables would carry.
fn tuples_at(comp: &ComplementaryInfo, sites: &[FragmentId]) -> usize {
    sites.iter().map(|&f| comp.table(f).pair_count()).sum()
}

fn nonzero_sites(per_site: &[usize]) -> Vec<FragmentId> {
    per_site
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(f, _)| f)
        .collect()
}

fn is_border(frag: &Fragmentation, v: NodeId) -> bool {
    frag.fragments_of_node(v).len() >= 2
}

/// Outside the repair rule's regime: re-sweep the stale fragments,
/// re-close the skeleton and re-assemble the tables
/// ([`ComplementaryInfo::refresh`]). The sites whose table changed ship
/// it; the owner is touched whether or not its own table did.
fn fallback(
    graph: &CsrGraph,
    frag: &Fragmentation,
    comp: &mut ComplementaryInfo,
    owner: FragmentId,
    reason: FallbackReason,
    scratch: &mut ScratchDijkstra,
) -> Maintenance {
    let shortcut_sites = comp.refresh(graph, frag, scratch);
    Maintenance::effective(comp, owner, shortcut_sites, (0, 0), Some(reason))
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

    fn build_with(cfg: EngineConfig) -> (EngineSnapshot, ScratchDijkstra) {
        (grid_snapshot(8, 4, cfg).1, ScratchDijkstra::new())
    }

    fn build() -> (EngineSnapshot, ScratchDijkstra) {
        build_with(EngineConfig::default())
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
        // its deletion stays within the repair rule's regime (the grid is
        // 2-edge-connected, so nothing disconnects either).
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
        // incremental or fallback, answers must stay exact).
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

    #[test]
    fn updates_with_stored_paths_keep_routes_real() {
        let (mut engine, mut scratch) = build_with(EngineConfig {
            store_paths: true,
            ..EngineConfig::default()
        });
        let (a, b) = far_pair(&engine);
        let report = engine
            .maintain(&insert(Edge::new(a, b, 1), 0), &mut scratch)
            .unwrap();
        assert!(
            !report.full_recompute,
            "insert maintenance patches stored paths incrementally"
        );
        routes_real(&engine, &mut scratch, n(0), n(31));

        // Now delete the shortcut edge again: stored paths that used it
        // must be repaired too.
        let report = engine.maintain(&remove(a, b, 0), &mut scratch).unwrap();
        consistent(&report);
        routes_real(&engine, &mut scratch, n(0), n(31));
        check_all(&engine, &mut scratch);
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
