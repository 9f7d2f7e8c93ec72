//! Local subquery evaluation: the per-site work of phase one.
//!
//! Each site evaluates its recursive subquery on its fragment "including
//! all complementary information about disconnection sets stored at that
//! fragment" (§2.1). The disconnection sets act as the selection — the
//! "keyhole" of §2.2: evaluation starts only from the entry border set
//! and only the exit border set is reported. The output of one subquery
//! is a *very small relation* of `(entry, exit, cost)` tuples, held
//! densely as a [`SegmentMatrix`] over the entry and exit node lists,
//! ready for the final joins.
//!
//! ## What a site holds
//!
//! The subquery's answer is the shortest distance over the site's
//! *augmented* graph — fragment edges plus one shortcut edge per stored
//! border pair ([`augmented_graph`]). A [`Site`] answers it without ever
//! laying that clique of shortcuts over the fragment:
//!
//! * the fragment's own graph, in local node ids, without shortcuts (and
//!   its transpose on directed networks only);
//! * the site's complementary table ([`BorderTable`]) — its border nodes
//!   as the fragmentation defines them, so a lone border is still a
//!   border, with the complementary distances as a dense row-major
//!   matrix `D` (diagonal 0, [`INFINITE_COST`] where no tuple is stored)
//!   — behind the very `Arc` [`crate::ComplementaryInfo`] keeps it in:
//!   the numbers are stored once;
//! * per fragment node, filled on first use, its *access set*: the
//!   borders it reaches over local edges without crossing another border,
//!   with those local costs, less the entries another entry dominates
//!   through `D` — forward, and on directed networks also backward;
//! * in a fragment of at most [`ROW_NODES`] nodes, per non-border node,
//!   filled the first time it is asked about a node of its own fragment,
//!   its *border-free row*: the local costs to every fragment node over
//!   paths that touch no border. A row costs `|F|` costs, so a site's rows
//!   never exceed `ROW_NODES²` costs (512 KiB) — about `ROW_NODES` costs
//!   per fragment node at worst.
//!
//! [`border_matrix_with`] then evaluates every subquery algebraically:
//! `access(s) ⊗ D ⊗ access⁻¹(t)` in the min-plus sense, a border's access
//! set being itself at cost 0 — so border → border is a lookup `D[a][b]`,
//! endpoint → disconnection set a product of a short vector with rows of
//! `D`. Only a pair of two non-border nodes can also be joined by a path
//! that touches no border at all; that one case also reads `row(s)[t]`
//! or, in a larger fragment, runs one point sweep that avoids the borders
//! and gives up at the value found through them.
//!
//! ## Why it is exact
//!
//! Shortcut edges join borders only. So a path of the augmented graph
//! from `s` either touches no border — then it is a path of the fragment
//! that avoids them, which the border-free row holds and the point sweep
//! finds when it beats the border route — or it reaches its
//! first border `b` over local edges (cost at least `access(s)[b]`),
//! leaves its last border `b'` likewise, and in between costs at least
//! `D[b][b']`, provided `D` is the shortest-distance closure of the
//! augmented graph on the borders. A table that stores every ordered
//! border pair is that closure as stored (the tuples are global
//! distances, which no walk through the site can beat). A table with a
//! pair missing — the [`crate::ComplementaryScope::PerDisconnectionSet`]
//! scope stores pairs within one disconnection set only; an insertion can
//! reconnect borders whose tuple a disconnecting deletion dropped — is
//! closed once, when the site is built, by sweeping the site's augmented
//! graph from the borders whose row is incomplete. Dropping a dominated
//! access entry loses nothing because the closure obeys the triangle
//! inequality.
//!
//! [`forward_matrix`] — plain sweeps over the augmented graph — stays as
//! the reference the kernel is tested against.

use std::sync::{Arc, OnceLock};

use ds_fragment::FragmentId;
use ds_graph::{Cost, CsrGraph, Edge, NodeId, ScratchDijkstra, INFINITE_COST};
use ds_relation::{PathTuple, Relation};

use crate::complementary::BorderTable;
use crate::memo::SiteMemo;

/// A site's augmented local graph: fragment edges (symmetric expansion if
/// the network is symmetric) plus the site's complementary shortcuts.
pub fn augmented_graph(
    node_count: usize,
    fragment_edges: &[Edge],
    symmetric: bool,
    shortcuts: impl IntoIterator<Item = Edge>,
) -> CsrGraph {
    let mut edges = Vec::with_capacity(fragment_edges.len() * 2);
    for e in fragment_edges {
        edges.push(*e);
        if symmetric && !e.is_loop() {
            edges.push(e.reversed());
        }
    }
    edges.extend(shortcuts);
    CsrGraph::from_edges(node_count, &edges)
}

/// `(position in the site's border list, local cost)`.
pub(crate) type AccessEntry = (u32, Cost);

/// The largest fragment whose site keeps border-free rows (see the
/// module docs). Every fragment of the benchmark's workloads is below
/// it (about 100 nodes each on the transportation graph); a larger one
/// answers each pair of its non-border nodes with a bounded point sweep
/// and holds no row.
pub const ROW_NODES: usize = 256;

/// Heap bytes of a site, by what they hold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteBytes {
    /// The fragment's own graph(s), its node list, the (empty) access-set
    /// slots and, once something asked for it, the augmented graph.
    pub graph: usize,
    /// The border index and — only where the stored table had to be
    /// closed — the site's own copy of the matrix. The table itself is
    /// [`BorderTable::memory_bytes`], held once for site and
    /// [`crate::ComplementaryInfo`].
    pub border_matrix: usize,
    /// The access sets and border-free rows filled so far.
    pub access_sets: usize,
    /// The interior segment relations evaluated so far.
    pub segment_memo: usize,
}

/// One site's evaluation state for one epoch (see the module docs).
/// Every array is sized by the fragment, not by the network.
#[derive(Clone, Debug)]
pub struct Site {
    /// The fragment's nodes, ascending; a node's position is its local id.
    nodes: Vec<NodeId>,
    /// The fragment's edges over local ids, no shortcuts.
    local: CsrGraph,
    /// `local` reversed — directed networks only; a symmetric fragment is
    /// its own transpose.
    transpose: Option<CsrGraph>,
    /// Local ids of the border nodes, ascending (hence ascending globally).
    borders: Vec<NodeId>,
    /// The complementary table, shared with `ComplementaryInfo`: `D` as
    /// stored.
    table: Arc<BorderTable>,
    /// `D` closed, where the stored table is not its own closure.
    closed: Option<Vec<Cost>>,
    /// `own[i] = (i, 0)`: the access set of border `i` is `own[i..=i]`.
    own: Vec<AccessEntry>,
    /// Per local node, the borders it reaches first.
    entries: Vec<OnceLock<Box<[AccessEntry]>>>,
    /// Per local node, the borders that reach it last — directed networks
    /// only; on a symmetric one these are `entries`.
    exits: Vec<OnceLock<Box<[AccessEntry]>>>,
    /// Set once [`Site::fill_exits`] filled every node's exit set.
    exits_filled: OnceLock<()>,
    /// Per local node that is no border, the local costs from it to every
    /// local node over paths whose interior touches no border
    /// ([`INFINITE_COST`] where there is none); only the entries of
    /// non-border nodes are ever read. Empty in a fragment of more than
    /// [`ROW_NODES`] nodes.
    rows: Vec<OnceLock<Box<[Cost]>>>,
    /// The augmented graph over global ids, for whoever still sweeps it
    /// (the reference evaluator, benches).
    augmented: OnceLock<Arc<CsrGraph>>,
    /// The interior segment relations evaluated so far at this site.
    memo: SiteMemo,
}

impl Site {
    /// Build the site of a fragment with node set `nodes` (ascending) and
    /// tuples `fragment_edges`, adjacent to the fragments `neighbors`,
    /// whose border nodes and complementary distances are `table`.
    /// `scratch` is swept only when the table leaves a border pair out
    /// (see the module docs).
    pub fn build(
        nodes: &[NodeId],
        fragment_edges: &[Edge],
        symmetric: bool,
        table: Arc<BorderTable>,
        neighbors: &[FragmentId],
        scratch: &mut ScratchDijkstra,
    ) -> Self {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        let local_of = |v: NodeId| {
            let i = nodes.binary_search(&v).expect("edge endpoint in fragment");
            NodeId::from_index(i)
        };
        let mut edges = Vec::with_capacity(fragment_edges.len() * 2);
        for e in fragment_edges {
            let e = Edge::new(local_of(e.src), local_of(e.dst), e.cost);
            edges.push(e);
            if symmetric && !e.is_loop() {
                edges.push(e.reversed());
            }
        }
        let local = CsrGraph::from_edges(nodes.len(), &edges);
        let transpose = (!symmetric).then(|| local.reversed());

        let borders: Vec<NodeId> = table.borders().iter().map(|&b| local_of(b)).collect();
        let rows = if nodes.len() <= ROW_NODES {
            nodes.len()
        } else {
            0
        };
        Site {
            nodes: nodes.to_vec(),
            transpose,
            closed: closed_matrix(&local, &borders, &table, scratch),
            own: (0..borders.len() as u32).map(|i| (i, 0)).collect(),
            entries: vec![OnceLock::new(); nodes.len()],
            exits: vec![OnceLock::new(); if symmetric { 0 } else { nodes.len() }],
            exits_filled: OnceLock::new(),
            rows: vec![OnceLock::new(); rows],
            augmented: OnceLock::new(),
            memo: SiteMemo::new(neighbors),
            local,
            borders,
            table,
        }
    }

    /// `D`: the shortest-distance closure of the augmented graph on the
    /// borders, row-major.
    fn dist(&self) -> &[Cost] {
        self.closed.as_deref().unwrap_or(self.table.costs())
    }

    /// The complementary table this site evaluates from — the same `Arc`
    /// [`crate::ComplementaryInfo::table`] returns for the site.
    pub fn table(&self) -> &Arc<BorderTable> {
        &self.table
    }

    /// The interior segment relations evaluated so far at this site.
    /// They are valid for exactly this fragment and table, so they live
    /// (and are replaced) with the site.
    pub fn memo(&self) -> &SiteMemo {
        &self.memo
    }

    /// Whether the fragment itself connects `p -> q` at `cost` — which
    /// fragment a route's connection between two borders belongs to.
    pub fn has_edge(&self, p: NodeId, q: NodeId, cost: Cost) -> bool {
        let local = |v| self.nodes.binary_search(&v).map(NodeId::from_index);
        let (Ok(p), Ok(q)) = (local(p), local(q)) else {
            return false;
        };
        self.local.neighbors(p).any(|hop| hop == (q, cost))
    }

    /// The site's border nodes (global ids, ascending).
    pub fn border_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.table.borders().iter().copied()
    }

    /// Sweep the *cell* of `x`, a node of this fragment that is no
    /// border: the nodes `x` reaches — or, `backward`, that reach `x` —
    /// without entering a border. Every edge touching a non-border node
    /// is the fragment's own, so the fragment's graph (or its transpose)
    /// holds the whole cell. Returns the borders the cell touches (global
    /// ids) at their cell distances.
    pub(crate) fn sweep_cell(
        &self,
        x: NodeId,
        backward: bool,
        scratch: &mut ScratchDijkstra,
    ) -> Vec<(NodeId, Cost)> {
        let g = match &self.transpose {
            Some(transpose) if backward => transpose,
            _ => &self.local,
        };
        let at = self
            .nodes
            .binary_search(&x)
            .expect("a node of the fragment");
        scratch.sweep_blocked(g, &[(NodeId::from_index(at), 0)], &self.borders);
        (self.borders.iter())
            .filter_map(|&b| Some((self.nodes[b.index()], scratch.cost(b)?)))
            .collect()
    }

    /// The cost and the path, over global ids, that the latest sweep of
    /// this site's graph (or its transpose) on `scratch` found from its
    /// seeds to `v`, if it reached that node of the fragment.
    pub(crate) fn swept_path(
        &self,
        v: NodeId,
        scratch: &ScratchDijkstra,
    ) -> Option<(Cost, Vec<NodeId>)> {
        let at = self.local_id(v)?;
        let path = scratch.path_to(at)?;
        let global = path.iter().map(|u| self.nodes[u.index()]).collect();
        Some((scratch.cost(at)?, global))
    }

    /// The cheapest path from the border `from` to the border `to`
    /// through the fragment's interior — the paths the complementary
    /// precompute's local sweeps measure: one point sweep from `from`
    /// that enters no other border on the way, stopped once `to`
    /// settles. Returns the path over global ids, if the interior joins
    /// the two.
    pub(crate) fn interior_path(
        &self,
        from: NodeId,
        to: NodeId,
        scratch: &mut ScratchDijkstra,
    ) -> Option<Vec<NodeId>> {
        let (s, t) = (self.local_id(from)?, self.local_id(to)?);
        let blocked = |v: NodeId| v != t && self.is_border(v);
        scratch.sweep_point_bounded(&self.local, s, t, INFINITE_COST, blocked)?;
        self.swept_path(to, scratch).map(|(_, path)| path)
    }

    /// The site's augmented graph, built by `build` if nothing asked for
    /// it before. Every snapshot sharing this site describes the same
    /// fragment and table, so whichever builds first builds for all.
    pub(crate) fn augmented_or_build(&self, build: impl FnOnce() -> CsrGraph) -> &Arc<CsrGraph> {
        self.augmented.get_or_init(|| Arc::new(build()))
    }

    /// Whether the augmented graph was ever asked for.
    pub fn augmented_is_built(&self) -> bool {
        self.augmented.get().is_some()
    }

    /// A deep copy sharing nothing with `self`, the augmented graph (if
    /// built) included, over `table` — the caller's copy of this site's.
    pub(crate) fn unshared_clone(&self, table: Arc<BorderTable>) -> Self {
        let mut site = Site {
            table,
            ..self.clone()
        };
        if let Some(g) = site.augmented.get_mut() {
            *g = Arc::new((**g).clone());
        }
        site
    }

    /// Heap bytes held, by component.
    pub fn memory_bytes(&self) -> SiteBytes {
        use std::mem::{size_of, size_of_val};
        let slots = [&self.entries, &self.exits];
        let filled = slots
            .iter()
            .flat_map(|s| s.iter().filter_map(OnceLock::get));
        let rows = self.rows.iter().filter_map(OnceLock::get);
        SiteBytes {
            graph: self.local.memory_bytes()
                + self.transpose.as_ref().map_or(0, CsrGraph::memory_bytes)
                + self.augmented.get().map_or(0, |g| g.memory_bytes())
                + size_of_val(&self.nodes[..])
                + slots.iter().map(|s| size_of_val(&s[..])).sum::<usize>()
                + size_of_val(&self.rows[..]),
            border_matrix: self
                .closed
                .as_ref()
                .map_or(0, |d| d.len() * size_of::<Cost>())
                + self.borders.len() * (size_of::<NodeId>() + size_of::<AccessEntry>()),
            access_sets: filled.map(|set| size_of_val(&**set)).sum::<usize>()
                + rows.map(|row| size_of_val(&**row)).sum::<usize>(),
            segment_memo: self.memo.memory_bytes(),
        }
    }

    /// The access set of `v`: entering the site at `v` (`forward`) or
    /// leaving it there. The second value is `v`'s local id when `v` is
    /// no border — the only nodes a border-free path can join. A border
    /// is found in the (short) border list and never looked up among the
    /// fragment's nodes.
    pub(crate) fn access(
        &self,
        v: NodeId,
        forward: bool,
        scratch: &mut ScratchDijkstra,
    ) -> (&[AccessEntry], Option<NodeId>) {
        if let Ok(b) = self.table.borders().binary_search(&v) {
            return (&self.own[b..=b], None);
        }
        let local = self
            .nodes
            .binary_search(&v)
            .expect("a site is asked about its own fragment's nodes");
        let forward = forward || self.transpose.is_none();
        let slots = if forward { &self.entries } else { &self.exits };
        let local_id = NodeId::from_index(local);
        let set = slots[local].get_or_init(|| self.sweep_access(local_id, forward, scratch));
        (set, Some(local_id))
    }

    /// One absorbing sweep from `v` over the fragment's graph (its
    /// transpose when leaving): the borders reached without crossing
    /// another, cheapest first, each kept only if no kept one already
    /// offers it at most as cheaply through `D`.
    fn sweep_access(
        &self,
        v: NodeId,
        forward: bool,
        scratch: &mut ScratchDijkstra,
    ) -> Box<[AccessEntry]> {
        if self.borders.is_empty() {
            return Box::default();
        }
        let g = match &self.transpose {
            Some(t) if !forward => t,
            _ => &self.local,
        };
        scratch.sweep_to_targets_absorbing(g, &[(v, 0)], &self.borders);
        let reached = self
            .borders
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| Some((i as u32, scratch.cost(b)?)))
            .collect();
        self.prune(reached, forward)
    }

    /// The access set of a node from the borders it reaches (`forward`)
    /// or is reached from, each at its local cost: cheapest first, each
    /// kept only if no kept one already offers it at most as cheaply
    /// through `D`.
    fn prune(&self, mut reached: Vec<AccessEntry>, forward: bool) -> Box<[AccessEntry]> {
        reached.sort_unstable_by_key(|&(i, cost)| (cost, i));
        let (nb, dist) = (self.borders.len(), self.dist());
        let mut kept: Vec<AccessEntry> = Vec::new();
        for (b, cost) in reached {
            let through = |k: u32| {
                let (from, to) = if forward { (k, b) } else { (b, k) };
                dist[from as usize * nb + to as usize]
            };
            if !kept.iter().any(|&(k, c)| c + through(k) <= cost) {
                kept.push((b, cost));
            }
        }
        kept.into_boxed_slice()
    }

    /// The cost of the cheapest local path from the non-border node with
    /// local id `s` to the one with local id `t` that touches no border
    /// when that is below `bound`, and otherwise some cost no smaller
    /// than `bound`. A site with rows reads `row(s)[t]`, the first
    /// question from `s` filling that row; a site without them runs one
    /// point sweep that stops at `t` or at `bound`.
    fn border_free(
        &self,
        s: NodeId,
        t: NodeId,
        bound: Cost,
        scratch: &mut ScratchDijkstra,
    ) -> Cost {
        let Some(slot) = self.rows.get(s.index()) else {
            let blocked = |v: NodeId| self.borders.binary_search(&v).is_ok();
            let direct = scratch.sweep_point_bounded(&self.local, s, t, bound, blocked);
            return direct.unwrap_or(INFINITE_COST);
        };
        slot.get_or_init(|| self.border_free_row(s, scratch))[t.index()]
    }

    /// The border-free row of `s`: one sweep of the fragment's own graph
    /// from `s` in which the borders are blocked. The borders it settles
    /// are the ones `s` reaches first, so the sweep fills `s`'s access
    /// set too if nothing did before.
    fn border_free_row(&self, s: NodeId, scratch: &mut ScratchDijkstra) -> Box<[Cost]> {
        scratch.sweep_blocked(&self.local, &[(s, 0)], &self.borders);
        if self.entries[s.index()].get().is_none() {
            let reached = (self.borders.iter().enumerate())
                .filter_map(|(i, &b)| Some((i as u32, scratch.cost(b)?)))
                .collect();
            let _ = self.entries[s.index()].set(self.prune(reached, true));
        }
        (0..self.nodes.len())
            .map(|v| scratch.cost(NodeId::from_index(v)).unwrap_or(INFINITE_COST))
            .collect()
    }

    // --- what a materialization reads ----------------------------------

    /// The fragment's nodes, ascending: local id `i` is `nodes()[i]`.
    pub(crate) fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The local id of `v`, if `v` is a node of the fragment.
    pub(crate) fn local_id(&self, v: NodeId) -> Option<NodeId> {
        self.nodes.binary_search(&v).ok().map(NodeId::from_index)
    }

    /// Whether the node with local id `v` is a border.
    pub(crate) fn is_border(&self, v: NodeId) -> bool {
        self.borders.binary_search(&v).is_ok()
    }

    /// The access set of the non-border local node `v` — the borders it
    /// reaches first — if something filled it.
    pub(crate) fn access_set(&self, v: NodeId) -> Option<&[AccessEntry]> {
        self.entries[v.index()].get().map(|set| &**set)
    }

    /// The exit set of the local node `v` — the borders that reach it
    /// last — if it is filled (see [`Site::fill_exits`]).
    pub(crate) fn exit_set(&self, v: NodeId) -> Option<&[AccessEntry]> {
        self.exit_slots()[v.index()].get().map(|set| &**set)
    }

    /// Where the exit sets live: a symmetric network leaves a node by
    /// the borders it enters by.
    fn exit_slots(&self) -> &[OnceLock<Box<[AccessEntry]>>] {
        match self.transpose {
            Some(_) => &self.exits,
            None => &self.entries,
        }
    }

    /// Whether [`Site::fill_exits`] ran.
    pub(crate) fn exits_filled(&self) -> bool {
        self.exits_filled.get().is_some()
    }

    /// Fill every node's exit set unless that was done before: one
    /// sweep per border — reaching `v` from border `b` without crossing
    /// another border is leaving `v` by `b` — or, when fewer sets are
    /// missing than the site has borders, one sweep per missing set. A
    /// slot filled before keeps its set, which is the one this fill
    /// computes. Returns the sweeps run.
    pub(crate) fn fill_exits(&self, scratch: &mut ScratchDijkstra) -> usize {
        // A symmetric site keeps one family of sets, pruned as entering.
        let (slots, forward) = (self.exit_slots(), self.transpose.is_none());
        let mut swept = 0;
        self.exits_filled.get_or_init(|| {
            let (n, nb) = (self.nodes.len(), self.borders.len());
            let missing: Vec<usize> = (0..n)
                .filter(|&v| slots[v].get().is_none() && !self.is_border(NodeId::from_index(v)))
                .collect();
            if missing.len() <= nb {
                for v in missing {
                    let v = NodeId::from_index(v);
                    let _ = slots[v.index()].set(self.sweep_access(v, forward, scratch));
                    swept += 1;
                }
                return;
            }
            let mut reached = vec![INFINITE_COST; n * nb];
            let mut seeds = Vec::new();
            for (i, &b) in self.borders.iter().enumerate() {
                // The border's own edges start the sweep; it is blocked
                // like every other border, so no path runs through it.
                seeds.clear();
                seeds.extend(self.local.neighbors(b));
                scratch.sweep_blocked(&self.local, &seeds, &self.borders);
                swept += 1;
                for v in 0..n {
                    if let Some(cost) = scratch.cost(NodeId::from_index(v)) {
                        reached[v * nb + i] = cost;
                    }
                }
            }
            for (v, slot) in slots.iter().enumerate() {
                if self.is_border(NodeId::from_index(v)) {
                    continue;
                }
                let row = &reached[v * nb..][..nb];
                let set = (0..nb as u32).zip(row.iter().copied());
                let set = set.filter(|&(_, cost)| cost < INFINITE_COST).collect();
                let _ = slot.set(self.prune(set, forward));
            }
        });
        swept
    }

    /// The border-free row of the non-border local node `s` (see the
    /// module docs): the site's, filled on first use, or in a fragment
    /// of more than [`ROW_NODES`] nodes swept into `buf`.
    pub(crate) fn border_free_row_of<'a>(
        &'a self,
        s: NodeId,
        scratch: &mut ScratchDijkstra,
        buf: &'a mut Vec<Cost>,
    ) -> &'a [Cost] {
        match self.rows.get(s.index()) {
            Some(slot) => slot.get_or_init(|| self.border_free_row(s, scratch)),
            None => {
                *buf = self.border_free_row(s, scratch).into_vec();
                buf
            }
        }
    }

    /// Fill the border-free row of the non-border local node `s` unless
    /// it is filled or the site keeps none (a fragment of more than
    /// [`ROW_NODES`] nodes).
    pub(crate) fn fill_border_free_row(&self, s: NodeId, scratch: &mut ScratchDijkstra) {
        if let Some(slot) = self.rows.get(s.index()) {
            slot.get_or_init(|| self.border_free_row(s, scratch));
        }
    }

    /// The edges into the local node `v`, as `(global tail, cost)`.
    pub(crate) fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Cost)> + '_ {
        let g = self.transpose.as_ref().unwrap_or(&self.local);
        g.neighbors(v)
            .map(|(x, cost)| (self.nodes[x.index()], cost))
    }
}

/// The shortest-distance closure of a site's augmented graph on its
/// borders, where `table` is not that as stored: rows that hold every
/// pair are; the others are swept over the fragment's graph plus the
/// stored pairs. `None` when nothing was swept or the sweeps found
/// nothing — the site then reads the table in place.
fn closed_matrix(
    local: &CsrGraph,
    borders: &[NodeId],
    table: &BorderTable,
    scratch: &mut ScratchDijkstra,
) -> Option<Vec<Cost>> {
    let nb = borders.len();
    let incomplete: Vec<usize> = (0..nb)
        .filter(|&i| table.row(i).contains(&INFINITE_COST))
        .collect();
    if incomplete.is_empty() {
        return None;
    }
    let mut edges: Vec<Edge> = local.edges().collect();
    for (i, &a) in borders.iter().enumerate() {
        for (&b, &cost) in borders.iter().zip(table.row(i)) {
            if a != b && cost < INFINITE_COST {
                edges.push(Edge::new(a, b, cost));
            }
        }
    }
    let augmented = CsrGraph::from_edges(local.node_count(), &edges);
    let mut closed = table.costs().to_vec();
    for i in incomplete {
        scratch.sweep_to_targets(&augmented, &[(borders[i], 0)], borders);
        for (j, &b) in borders.iter().enumerate() {
            closed[i * nb + j] = scratch.cost(b).unwrap_or(INFINITE_COST);
        }
    }
    (closed != table.costs()).then_some(closed)
}

/// The result of one site subquery in dense form: the local shortest
/// distance from the `i`-th source to the `j`-th target at
/// `costs[i * cols + j]`, [`INFINITE_COST`] where there is no path.
/// Sources and targets are identified by position, so a relation over a
/// disconnection set is read against the planner's node list for it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentMatrix {
    rows: usize,
    cols: usize,
    costs: Vec<Cost>,
}

impl SegmentMatrix {
    /// `rows` x `cols` costs, row-major.
    pub(crate) fn new(rows: usize, cols: usize, costs: Vec<Cost>) -> Self {
        debug_assert_eq!(costs.len(), rows * cols);
        SegmentMatrix { rows, cols, costs }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// All costs, row-major. A one-source subquery's costs are its row
    /// vector, a one-target subquery's its column vector.
    pub fn costs(&self) -> &[Cost] {
        &self.costs
    }

    /// The distances from the `i`-th source.
    pub fn row(&self, i: usize) -> &[Cost] {
        &self.costs[i * self.cols..(i + 1) * self.cols]
    }

    /// Connected (source, target) pairs — the cardinality of the "very
    /// small relation" a site ships.
    pub fn tuples(&self) -> usize {
        self.costs.iter().filter(|&&c| c < INFINITE_COST).count()
    }

    /// Heap bytes held.
    pub fn memory_bytes(&self) -> usize {
        self.costs.capacity() * std::mem::size_of::<Cost>()
    }

    /// The same result as `(source, target, cost)` tuples, unreachable
    /// pairs dropped.
    pub fn to_relation(&self, sources: &[NodeId], targets: &[NodeId]) -> Relation<PathTuple> {
        let mut rows = Vec::with_capacity(self.costs.len());
        for (i, &u) in sources.iter().enumerate() {
            for (&v, &cost) in targets.iter().zip(self.row(i)) {
                if cost < INFINITE_COST {
                    rows.push(PathTuple::new(u, v, cost));
                }
            }
        }
        Relation::from_rows("border", rows)
    }
}

/// Evaluate one local subquery — shortest distances from every node of
/// `sources` to every node of `targets` — with one sweep of `g` per
/// source. Sweeps early-exit once every target is settled and reuse the
/// caller's stamped arrays, so the steady state performs no O(V)
/// allocations.
///
/// Over a site's augmented graph this is the reference evaluation of a
/// subquery: what [`crate::executor::run_chain`] runs and what
/// [`border_matrix_with`] must equal.
pub fn forward_matrix(
    g: &CsrGraph,
    sources: &[NodeId],
    targets: &[NodeId],
    scratch: &mut ScratchDijkstra,
) -> SegmentMatrix {
    let mut costs = Vec::with_capacity(sources.len() * targets.len());
    for &u in sources {
        scratch.sweep_to_targets(g, &[(u, 0)], targets);
        costs.extend(
            targets
                .iter()
                .map(|&v| scratch.cost(v).unwrap_or(INFINITE_COST)),
        );
    }
    SegmentMatrix {
        rows: sources.len(),
        cols: targets.len(),
        costs,
    }
}

/// One site subquery, evaluated from what the [`Site`] holds (see the
/// module docs) and appended to `out` row-major, `sources.len() *
/// targets.len()` costs: the `(s, t)` entry is the cheapest
/// `access(s)[b] + D[b][b'] + access⁻¹(t)[b']`, met — for two non-border
/// nodes only — with the border-free local path: `row(s)[t]`, or in a
/// fragment of more than [`ROW_NODES`] nodes one point sweep bounded by
/// that value. `scratch` is otherwise swept only to fill an access set or
/// a row nothing asked for before, and `out` is the only thing that
/// grows. Every node must belong to the site's fragment.
pub fn border_matrix_with(
    site: &Site,
    sources: &[NodeId],
    targets: &[NodeId],
    scratch: &mut ScratchDijkstra,
    out: &mut Vec<Cost>,
) {
    let (nb, dist) = (site.borders.len(), site.dist());
    out.reserve(sources.len() * targets.len());
    for &s in sources {
        let (entry, s_inner) = site.access(s, true, scratch);
        for &t in targets {
            let (exit, t_inner) = site.access(t, false, scratch);
            let mut best = INFINITE_COST;
            for &(b, reach) in entry {
                let row = &dist[b as usize * nb..][..nb];
                for &(b2, leave) in exit {
                    // Three terms of at most INFINITE_COST: no wrap.
                    best = best.min(reach + row[b2 as usize] + leave);
                }
            }
            if let (Some(s), Some(t)) = (s_inner, t_inner) {
                best = best.min(site.border_free(s, t, best, scratch));
            }
            out.push(best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn reach(g: &CsrGraph, u: u32, v: u32) -> Cost {
        forward_matrix(g, &[n(u)], &[n(v)], &mut ScratchDijkstra::new()).costs()[0]
    }

    /// [`border_matrix_with`] into a fresh buffer, shaped as a matrix.
    fn kernel(
        site: &Site,
        sources: &[NodeId],
        targets: &[NodeId],
        scratch: &mut ScratchDijkstra,
    ) -> SegmentMatrix {
        let mut costs = Vec::new();
        border_matrix_with(site, sources, targets, scratch, &mut costs);
        SegmentMatrix::new(sources.len(), targets.len(), costs)
    }

    #[test]
    fn augmented_graph_merges_fragment_and_shortcuts() {
        let frag = vec![Edge::new(n(0), n(1), 2)];
        let shortcuts = vec![Edge::new(n(1), n(2), 7)];
        let aug = augmented_graph(3, &frag, true, shortcuts);
        assert_eq!(aug.edge_count(), 3); // 0->1, 1->0, shortcut 1->2
        assert_eq!(reach(&aug, 0, 2), 9);
        assert_eq!(reach(&aug, 2, 0), INFINITE_COST, "shortcuts are directed");
    }

    #[test]
    fn symmetric_expansion_only_when_asked() {
        let frag = vec![Edge::unit(n(0), n(1))];
        assert_eq!(
            reach(&augmented_graph(2, &frag, false, []), 1, 0),
            INFINITE_COST
        );
        assert_eq!(reach(&augmented_graph(2, &frag, true, []), 1, 0), 1);
    }

    /// Diamond fragment: 0->1 (1), 0->2 (5), 1->3 (1), 2->3 (1).
    fn diamond_edges() -> Vec<Edge> {
        vec![
            Edge::new(n(0), n(1), 1),
            Edge::new(n(0), n(2), 5),
            Edge::new(n(1), n(3), 1),
            Edge::new(n(2), n(3), 1),
        ]
    }

    #[test]
    fn forward_matrix_shape() {
        let m = forward_matrix(
            &augmented_graph(4, &diamond_edges(), false, []),
            &[n(0), n(1)],
            &[n(3)],
            &mut ScratchDijkstra::new(),
        );
        assert_eq!((m.rows(), m.cols()), (2, 1));
        assert_eq!(m.costs(), &[2, 1]);
        assert_eq!(m.tuples(), 2);
    }

    #[test]
    fn unreachable_pairs_are_infinite_and_not_tuples() {
        let frag = vec![Edge::unit(n(0), n(1))];
        let aug = augmented_graph(3, &frag, false, []);
        let m = forward_matrix(&aug, &[n(0)], &[n(1), n(2)], &mut ScratchDijkstra::new());
        assert_eq!(m.row(0), &[1, INFINITE_COST]);
        assert_eq!(m.tuples(), 1);
        let rel = m.to_relation(&[n(0)], &[n(1), n(2)]);
        assert_eq!(rel.len(), 1, "node 2 unreachable, no tuple");
        assert_eq!(rel.cost_of(n(0), n(1)), Some(1));
    }

    /// A fragment over global nodes 10..=16 of a 20-node network:
    /// 10 -2- 11 -2- 12 -2- 13, 11 -1- 14 -1- 12, 15 -3- 16, with borders
    /// 10, 13, 15 and a table that brings 13 back to 10 from outside.
    fn sample(symmetric: bool, shortcuts: &[Edge]) -> (Site, CsrGraph, Vec<NodeId>) {
        let nodes: Vec<NodeId> = (10..=16).map(n).collect();
        let edges = vec![
            Edge::new(n(10), n(11), 2),
            Edge::new(n(11), n(12), 2),
            Edge::new(n(12), n(13), 2),
            Edge::new(n(11), n(14), 1),
            Edge::new(n(14), n(12), 1),
            Edge::new(n(15), n(16), 3),
        ];
        let table = BorderTable::from_edges(vec![n(10), n(13), n(15)], shortcuts);
        let site = Site::build(
            &nodes,
            &edges,
            symmetric,
            Arc::new(table),
            &[],
            &mut ScratchDijkstra::new(),
        );
        (
            site,
            augmented_graph(20, &edges, symmetric, shortcuts.iter().copied()),
            nodes,
        )
    }

    fn every_pair(v: &[(u32, u32, Cost)], both_ways: bool) -> Vec<Edge> {
        v.iter()
            .flat_map(|&(a, b, c)| {
                let e = Edge::new(n(a), n(b), c);
                [Some(e), both_ways.then(|| e.reversed())]
            })
            .flatten()
            .collect()
    }

    /// Every subquery shape over every node list the fragment has, against
    /// sweeps of the augmented graph.
    fn assert_kernel_is_exact(site: &Site, aug: &CsrGraph, nodes: &[NodeId], label: &str) {
        let mut scratch = ScratchDijkstra::new();
        let borders: Vec<NodeId> = site.border_nodes().collect();
        let lists: Vec<&[NodeId]> = nodes
            .iter()
            .map(std::slice::from_ref)
            .chain([&borders[..], &borders[..1], nodes])
            .collect();
        for sources in &lists {
            for targets in &lists {
                assert_eq!(
                    kernel(site, sources, targets, &mut scratch),
                    forward_matrix(aug, sources, targets, &mut scratch),
                    "{label}: {sources:?} -> {targets:?}"
                );
            }
        }
    }

    #[test]
    fn the_kernel_equals_sweeps_of_the_augmented_graph() {
        // A complete table (every ordered border pair), the cheap way
        // from 13 back to 10 leading outside the fragment.
        let complete = [(10, 13, 6), (10, 15, 9), (13, 15, 4)];
        let (site, aug, nodes) = sample(true, &every_pair(&complete, true));
        assert_kernel_is_exact(&site, &aug, &nodes, "symmetric");
        assert_eq!(site.dist()[3..6], [6, 0, 4]);
        assert!(site.closed.is_none(), "a complete table is read in place");
        // Directed, borders only partly connected: 15 reaches nothing.
        let one_way = [(13, 10, 1), (13, 15, 4), (10, 13, 6), (10, 15, 10)];
        let (site, aug, nodes) = sample(false, &every_pair(&one_way, false));
        assert_kernel_is_exact(&site, &aug, &nodes, "directed");
        assert!(
            site.closed.is_none(),
            "sweeps that find nothing leave no copy"
        );
        // A shortcut is no edge of the fragment, and a one-way edge has
        // no way back.
        assert!(site.has_edge(n(10), n(11), 2) && !site.has_edge(n(11), n(10), 2));
        assert!(!site.has_edge(n(10), n(13), 6) && !site.has_edge(n(10), n(11), 3));
        // No table at all: the fragment's own paths are all there is.
        for symmetric in [true, false] {
            let (site, aug, nodes) = sample(symmetric, &[]);
            assert_kernel_is_exact(&site, &aug, &nodes, "no shortcuts");
        }
    }

    #[test]
    fn a_table_with_a_pair_missing_is_closed_when_the_site_is_built() {
        // Only 13 <-> 15 stored: 10 <-> 13 runs through the fragment
        // (cost 6), and 10 <-> 15 composes the two.
        let (site, aug, nodes) = sample(true, &every_pair(&[(13, 15, 4)], true));
        assert_eq!(site.dist(), [0, 6, 10, 6, 0, 4, 10, 4, 0]);
        assert_eq!(
            site.table.costs()[1],
            INFINITE_COST,
            "the stored table is as it was"
        );
        assert_kernel_is_exact(&site, &aug, &nodes, "closed");
        assert!(!site.augmented_is_built(), "closing builds nothing lasting");
    }

    #[test]
    fn access_sets_fill_once_and_drop_dominated_borders() {
        let complete = [(10, 13, 6), (10, 15, 9), (13, 15, 4)];
        let (site, _, _) = sample(true, &every_pair(&complete, true));
        let mut scratch = ScratchDijkstra::new();
        assert_eq!(site.memory_bytes().access_sets, 0);
        // 11 reaches border 10 at 2 and border 13 at 4: neither is
        // cheaper through the other (2 + 6, 4 + 6).
        let (set, inner) = site.access(n(11), true, &mut scratch);
        assert_eq!((set, inner), (&[(0, 2), (1, 4)][..], Some(n(1))));
        assert_eq!(scratch.stats().sweeps, 1);
        assert_eq!(site.access(n(11), true, &mut scratch).0, set);
        assert_eq!(scratch.stats().sweeps, 1, "filled once");
        assert_eq!(
            site.memory_bytes().access_sets,
            2 * std::mem::size_of::<AccessEntry>()
        );
        // A border is its own access set, at no sweep.
        assert_eq!(
            site.access(n(13), true, &mut scratch),
            (&[(1, 0)][..], None)
        );
        assert_eq!(scratch.stats().sweeps, 1);
        // With 13 -> 10 stored at cost 1, reaching 10 from 12 locally
        // (cost 4) is no better than through 13 (2 + 1): dropped.
        let cheap = [(13, 10, 1), (10, 13, 6)];
        let (site, _, _) = sample(false, &every_pair(&cheap, false));
        assert!(site.transpose.is_some());
        // Directed: 12 reaches only 13 going forward; going backward (who
        // reaches 12 last) it is 10 alone.
        assert_eq!(site.access(n(12), true, &mut scratch).0, &[(1, 2)]);
        assert_eq!(site.access(n(12), false, &mut scratch).0, &[(0, 4)]);
        assert_eq!(
            site.memory_bytes().access_sets,
            2 * std::mem::size_of::<AccessEntry>(),
            "one entering, one leaving"
        );
        let (site, _, _) = sample(true, &every_pair(&[(13, 10, 1)], true));
        assert_eq!(site.access(n(12), true, &mut scratch).0, &[(1, 2)]);
    }

    /// The exit fill — one sweep per border — writes for every node
    /// exactly the set a per-node sweep computes, once; with fewer sets
    /// missing than borders it sweeps once per missing set instead.
    #[test]
    fn the_exit_fill_writes_the_sets_per_node_sweeps_would() {
        let complete = [(10, 13, 6), (10, 15, 9), (13, 15, 4)];
        let cheap = [(13, 10, 1), (10, 13, 6)];
        for (symmetric, table) in [(true, &complete[..]), (false, &complete), (false, &cheap)] {
            let label = format!("symmetric={symmetric} {table:?}");
            let shortcuts = every_pair(table, symmetric);
            let [(filled, _, nodes), (swept, _, _), (partial, _, _)] =
                [(); 3].map(|()| sample(symmetric, &shortcuts));
            let (mut bulk, mut per_node) = (ScratchDijkstra::new(), ScratchDijkstra::new());
            assert!(!filled.exits_filled());
            assert_eq!(filled.fill_exits(&mut bulk), 3, "{label}: one per border");
            assert!(filled.exits_filled());
            assert_eq!(filled.fill_exits(&mut bulk), 0, "{label}: once");
            partial.access(n(11), false, &mut per_node);
            partial.access(n(12), false, &mut per_node);
            assert_eq!(partial.fill_exits(&mut bulk), 2, "{label}: 2 of 4 missing");
            for (lv, &v) in nodes.iter().enumerate() {
                let lv = NodeId::from_index(lv);
                let (want, inner) = swept.access(v, false, &mut per_node);
                let got = filled.exit_set(lv);
                match inner {
                    Some(_) => assert_eq!(got, Some(want), "{label}: {v}"),
                    None => assert!(filled.is_border(lv) && got.is_none()),
                }
                assert_eq!(partial.exit_set(lv), got, "{label}: {v}");
            }
        }
    }

    /// A symmetric fragment is its own transpose and its border matrix
    /// its own too: a node leaves the site by the borders it enters by,
    /// so no transposed graph and no second family of access sets exist.
    #[test]
    fn symmetric_site_is_its_own_transpose() {
        let complete = [(10, 13, 6), (10, 15, 9), (13, 15, 4)];
        let (site, _, _) = sample(true, &every_pair(&complete, true));
        assert!(site.transpose.is_none() && site.exits.is_empty());
        let mut scratch = ScratchDijkstra::new();
        let entering = site.access(n(12), true, &mut scratch).0;
        assert!(std::ptr::eq(
            entering,
            site.access(n(12), false, &mut scratch).0
        ));
        assert_eq!(scratch.stats().sweeps, 1);
        let (directed, _, _) = sample(false, &every_pair(&complete, true));
        assert!(directed.transpose.is_some());
        assert_eq!(directed.exits.len(), directed.entries.len());
    }

    #[test]
    fn a_warm_subquery_sweeps_only_for_a_border_free_pair() {
        let complete = [(10, 13, 6), (10, 15, 9), (13, 15, 4)];
        let (site, _, nodes) = sample(true, &every_pair(&complete, true));
        let mut scratch = ScratchDijkstra::new();
        let borders: Vec<NodeId> = site.border_nodes().collect();
        let mut out = Vec::new();
        border_matrix_with(&site, &nodes, &borders, &mut scratch, &mut out);
        let warm = scratch.stats().sweeps;
        assert_eq!(warm, 4, "one fill per non-border node");
        border_matrix_with(&site, &nodes, &borders, &mut scratch, &mut out);
        border_matrix_with(&site, &borders, &nodes, &mut scratch, &mut out);
        border_matrix_with(&site, &[n(10)], &[n(14)], &mut scratch, &mut out);
        assert_eq!(scratch.stats().sweeps, warm, "lookups only");
        assert_eq!(out.len(), 3 * (7 * 3) + 1, "one cost per pair asked");
        let rows = site.memory_bytes().access_sets;
        // Two non-border nodes: the first question from 11 about its own
        // fragment fills 11's border-free row, and every later one reads it.
        assert_eq!(
            kernel(&site, &[n(11)], &[n(12)], &mut scratch).costs(),
            &[2]
        );
        assert_eq!(scratch.stats().sweeps, warm + 1, "the row of 11");
        assert_eq!(
            site.memory_bytes().access_sets,
            rows + nodes.len() * std::mem::size_of::<Cost>()
        );
        let m = kernel(&site, &[n(11)], &[n(12), n(14), n(16)], &mut scratch);
        assert_eq!(m.costs(), &[2, 1, 11], "16 only through borders 13 and 15");
        assert_eq!(scratch.stats().sweeps, warm + 1, "read, not swept");
        // The row stops at the borders: 11 reaches 10 and 13 but nothing
        // past them, so 15 and 16 are not in it at all.
        let inf = INFINITE_COST;
        assert_eq!(site.rows[1].get().unwrap()[..], [2, 0, 2, 4, 1, inf, inf]);
    }

    /// A path of `ROW_NODES + 44` nodes whose two ends are borders joined
    /// outside the fragment at cost 5: a pair of inner nodes is answered
    /// by one point sweep each time it is asked, and no row is kept.
    #[test]
    fn a_fragment_above_the_row_limit_sweeps_each_border_free_pair_and_keeps_no_row() {
        let last = ROW_NODES as u32 + 43;
        let nodes: Vec<NodeId> = (0..=last).map(n).collect();
        let edges: Vec<Edge> = (0..last).map(|i| Edge::new(n(i), n(i + 1), 1)).collect();
        let shortcuts = every_pair(&[(0, last, 5)], true);
        let table = BorderTable::from_edges(vec![n(0), n(last)], &shortcuts);
        let mut scratch = ScratchDijkstra::new();
        let site = Site::build(&nodes, &edges, true, Arc::new(table), &[], &mut scratch);
        assert!(site.rows.is_empty());
        let aug = augmented_graph(nodes.len(), &edges, true, shortcuts.iter().copied());
        // Around the ends (10 + 5 + 9), along the path (10), from and to
        // a border, and a node to itself.
        let pairs = [
            (10, 290, 24),
            (100, 110, 10),
            (0, 150, 150),
            (150, last, 149),
            (7, 7, 0),
        ];
        let ask = |scratch: &mut ScratchDijkstra| {
            for &(s, t, cost) in &pairs {
                let (s, t) = (&[n(s)][..], &[n(t)][..]);
                let m = kernel(&site, s, t, scratch);
                assert_eq!(m, forward_matrix(&aug, s, t, &mut ScratchDijkstra::new()));
                assert_eq!(m.costs(), [cost]);
            }
        };
        ask(&mut scratch); // fills the access sets
        let (swept, held) = (scratch.stats().sweeps, site.memory_bytes());
        ask(&mut scratch);
        assert_eq!(
            scratch.stats().sweeps - swept,
            3,
            "one per pair of inner nodes"
        );
        assert_eq!(site.memory_bytes(), held, "nothing kept");
    }
}
