// Supervised-tier hygiene: non-test code must not carry implicit panic
// points — site failures surface as `ClosureError::SiteUnavailable` or
// go through an explicit `unreachable!` with its invariant spelled out.
// CI promotes these to errors with -D warnings.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! # ds-machine — a simulated shared-nothing multiprocessor database machine
//!
//! The paper's experiments were destined for PRISMA/DB, a multi-processor
//! main-memory database machine (§5, refs [4], [14], [20]). This crate is
//! the stand-in documented in DESIGN.md: a coordinator plus one *site* per
//! fragment, each site an OS thread owning its fragment and complementary
//! information, communicating exclusively through message channels.
//!
//! The simulation preserves the property the disconnection set approach
//! is designed around — *no communication during phase one* — and makes
//! the communication that does happen measurable: every request/response
//! and every shipped tuple is counted in [`MachineStats`].
//!
//! [`Machine`] implements [`TcEngine`], the backend-polymorphic query
//! surface shared with the in-process `DisconnectionSetEngine`, and
//! deploys from the same build parts (`ds_closure::api::build_parts`) —
//! the two backends differ only in *where* phase one runs.
//!
//! ```
//! use ds_closure::TcEngine;
//! use ds_fragment::linear::{linear_sweep, LinearConfig};
//! use ds_gen::deterministic::grid;
//! use ds_graph::NodeId;
//! use ds_machine::Machine;
//!
//! let g = grid(8, 3);
//! let frag = linear_sweep(&g.edge_list(), &LinearConfig { fragments: 3, ..Default::default() })
//!     .unwrap()
//!     .fragmentation;
//! let mut machine = Machine::deploy(g.closure_graph(), frag, true).unwrap();
//! assert_eq!(machine.shortest_path(NodeId(0), NodeId(23)).cost, Some(9));
//! let stats = machine.stats();
//! assert!(stats.messages_sent > 0);
//! machine.shutdown();
//! ```

pub mod protocol;
pub mod site;
pub mod stats;

use std::collections::{BTreeSet, HashMap};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use ds_closure::api::{build_parts, run_batch, run_batch_traced, SiteEvaluator};
use ds_closure::complementary::ComplementaryInfo;
use ds_closure::local::SegmentMatrix;
use ds_closure::memo::SiteMemo;
use ds_closure::planner::{Planner, SiteQueryRef};
use ds_closure::updates::maintain;
use ds_closure::ConnectivityEffect;
use ds_closure::{
    BatchAnswer, ClosureError, EngineConfig, EngineSnapshot, NetworkUpdate, PrecomputeStats,
    QueryAnswer, QueryRequest, QueryStats, Route, TcEngine, UpdateReport,
};
use ds_fragment::{FragmentId, Fragmentation};
use ds_graph::{CsrGraph, NodeId, ReachIndex, ScratchDijkstra};
use ds_obs::{
    EvalTrace, Observability, RequestTrace, SpanRecord, Stage, TraceId, TraceOutcome, Tracer,
};

pub use ds_fault::{FaultPlan, FaultPoint};
use protocol::{EdgeChange, SiteDelta, SiteRequest, SiteResponse};
use site::SiteInit;
pub use stats::{MachineStats, SiteStats};

/// Deployment knobs that are about the machine's *operation*, not the
/// closure algorithm (that is [`EngineConfig`]).
#[derive(Clone, Debug)]
pub struct MachineOptions {
    /// How long the coordinator waits on the response channel before
    /// declaring every site that still owes an answer dead and
    /// redeploying it. Generous by default: a healthy site answers in
    /// microseconds, so 10 s only ever fires on a genuinely dead thread.
    pub site_recv_timeout: Duration,
    /// Deterministic fault plan armed at every site thread. `None` (the
    /// default) reduces the hook to a single branch per message.
    pub fault: Option<Arc<FaultPlan>>,
    /// Observability bundle: when armed, every batch mints trace ids,
    /// stamps them through the site protocol, files per-request span
    /// sets, and mirrors [`MachineStats`] into the metrics registry.
    /// `None` (the default) reduces every hook to one `Option` branch.
    pub obs: Option<Arc<Observability>>,
}

impl Default for MachineOptions {
    fn default() -> Self {
        MachineOptions {
            site_recv_timeout: Duration::from_secs(10),
            fault: None,
            obs: None,
        }
    }
}

/// The deployed machine: running site threads plus the coordinator state.
///
/// The coordinator retains the global graph, fragmentation and
/// complementary information solely for update maintenance (running the
/// shared `maintain` path and deriving the deltas to ship); query
/// processing touches only the planner and the message channels — sites
/// never see global state.
pub struct Machine {
    graph: Arc<CsrGraph>,
    frag: Arc<Fragmentation>,
    symmetric: bool,
    cfg: EngineConfig,
    comp: ComplementaryInfo,
    senders: Vec<mpsc::Sender<SiteRequest>>,
    responses: mpsc::Receiver<SiteResponse>,
    /// Retained clone of the sites' response sender so a redeployed site
    /// can be handed the same channel. (Consequence: the response channel
    /// never disconnects, which is why every coordinator receive is a
    /// `recv_timeout`.)
    resp_tx: mpsc::Sender<SiteResponse>,
    handles: Vec<JoinHandle<()>>,
    /// Handles of replaced site threads; joined at shutdown. A replaced
    /// thread exits on its own once it observes its closed request
    /// channel (or already died — that is why it was replaced).
    retired: Vec<JoinHandle<()>>,
    options: MachineOptions,
    planner: Arc<Planner>,
    /// Per site, the interior chain relations its current augmented
    /// graph has already been asked for — kept at the coordinator, so a
    /// memoized segment costs no message at all. A site's memo is
    /// replaced by an empty one whenever an update ships it a delta.
    memos: Vec<SiteMemo>,
    stats: MachineStats,
    next_tag: u64,
    /// Coordinator-side scratch kernel for update repair sweeps.
    scratch: ScratchDijkstra,
    /// Coordinator-side SCC/chain reachability index over the global
    /// graph — `connected` answers here without any site round trip.
    /// Kept across updates that provably cannot change reachability,
    /// rebuilt eagerly otherwise; shared with assembled snapshots.
    reach: Option<Arc<ReachIndex>>,
}

impl Machine {
    /// Deploy one site per fragment with the default engine
    /// configuration. Precomputes complementary information and ships
    /// each site its augmented local graph — after this, sites never see
    /// global state.
    pub fn deploy(
        graph: CsrGraph,
        frag: Fragmentation,
        symmetric: bool,
    ) -> Result<Self, ClosureError> {
        Self::deploy_with_config(graph, frag, symmetric, EngineConfig::default())
    }

    /// Deploy with an explicit [`EngineConfig`] (complementary scope,
    /// chain enumeration caps, PHE hub). `store_paths` is ignored: sites
    /// ship only cost tuples, so this backend cannot reconstruct routes.
    pub fn deploy_with_config(
        graph: CsrGraph,
        frag: Fragmentation,
        symmetric: bool,
        cfg: EngineConfig,
    ) -> Result<Self, ClosureError> {
        Self::deploy_with_options(graph, frag, symmetric, cfg, MachineOptions::default())
    }

    /// Deploy with explicit [`MachineOptions`] on top of the engine
    /// configuration: the dead-site detection timeout and an optional
    /// deterministic fault plan for chaos testing.
    pub fn deploy_with_options(
        graph: CsrGraph,
        frag: Fragmentation,
        symmetric: bool,
        cfg: EngineConfig,
        options: MachineOptions,
    ) -> Result<Self, ClosureError> {
        // Shared build path with the inline backend.
        let parts = build_parts(&graph, &frag, symmetric, &cfg)?;
        let inits: Vec<SiteInit> = frag
            .fragments()
            .iter()
            .map(|f| SiteInit {
                site: f.id(),
                node_count: graph.node_count(),
                symmetric,
                frag_edges: f.edges().to_vec(),
                shortcuts: parts.comp.shortcuts(f.id()).to_vec(),
            })
            .collect();
        let SpawnedSites {
            senders,
            responses,
            resp_tx,
            handles,
        } = spawn_sites(inits, &options.fault);
        let site_count = senders.len();
        let reach = cfg.reach_index.then(|| Arc::new(ReachIndex::build(&graph)));
        let memos = (0..site_count)
            .map(|f| SiteMemo::for_site(&parts.planner, f))
            .collect();
        Ok(Machine {
            graph: Arc::new(graph),
            frag: Arc::new(frag),
            symmetric,
            cfg,
            comp: parts.comp,
            senders,
            responses,
            resp_tx,
            handles,
            retired: Vec::new(),
            options,
            planner: parts.planner,
            memos,
            stats: MachineStats::new(site_count),
            next_tag: 0,
            scratch: ScratchDijkstra::new(),
            reach,
        })
    }

    /// Number of sites (processors).
    pub fn site_count(&self) -> usize {
        self.senders.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Stop all site threads. Called automatically on drop.
    pub fn shutdown(&mut self) {
        for s in &self.senders {
            // Site may already be gone; ignore send failures on shutdown.
            let _ = s.send(SiteRequest::Shutdown);
        }
        for h in self.handles.drain(..).chain(self.retired.drain(..)) {
            // A replaced or injected-panic thread joins with Err; the
            // failure was already handled when the site was redeployed.
            let _ = h.join();
        }
    }

    /// Redeploy one site from the coordinator's retained fragment and
    /// complementary state — the same [`SiteInit`] path as `deploy`, so
    /// the new thread is consistent with the coordinator by construction
    /// (including any update the dead site missed).
    fn respawn_site(&mut self, site: usize) {
        let f = self.frag.fragment(site);
        let init = SiteInit {
            site,
            node_count: self.graph.node_count(),
            symmetric: self.symmetric,
            frag_edges: f.edges().to_vec(),
            shortcuts: self.comp.shortcuts(site).to_vec(),
        };
        let (req_tx, req_rx) = mpsc::channel();
        let tx = self.resp_tx.clone();
        let fault = self.options.fault.clone();
        let handle = std::thread::spawn(move || site::run_site(init, req_rx, tx, fault));
        // Dropping the old sender tells a merely-slow (not dead) old
        // thread to exit; its late responses carry stale tags and are
        // discarded by the tag-driven collection loops.
        self.senders[site] = req_tx;
        self.retired
            .push(std::mem::replace(&mut self.handles[site], handle));
        self.stats.site_restarts += 1;
    }

    /// One evaluation round with typed failure: if any site dies (or
    /// stops answering for [`MachineOptions::site_recv_timeout`]) the
    /// whole batch is discarded, every suspect site is redeployed from
    /// the coordinator's retained state, and the first failed site is
    /// reported as [`ClosureError::SiteUnavailable`]. A retry after the
    /// error hits a healthy machine.
    pub fn try_query_batch(
        &mut self,
        requests: &[QueryRequest],
    ) -> Result<BatchAnswer, ClosureError> {
        let obs = self.options.obs.clone();
        let traces: Vec<TraceId> = match &obs {
            Some(o) => requests.iter().map(|_| o.tracer().mint()).collect(),
            None => Vec::new(),
        };
        let batch_start_ns = obs.as_ref().map_or(0, |o| o.tracer().now_ns());
        let mut site_spans: Vec<SpanRecord> = Vec::new();
        let mut eval_traces: Vec<EvalTrace> = Vec::new();
        let mut failed: BTreeSet<usize> = BTreeSet::new();
        let Machine {
            ref planner,
            ref memos,
            ref senders,
            ref responses,
            ref options,
            ref mut stats,
            ref mut next_tag,
            ..
        } = *self;
        let mut eval = ChannelEval {
            memos,
            senders,
            responses,
            recv_timeout: options.site_recv_timeout,
            stats,
            next_tag,
            failed: &mut failed,
            current_trace: TraceId::NONE,
            trace_ctx: obs.as_ref().map(|o| TraceCtx {
                tracer: o.tracer(),
                spans: &mut site_spans,
            }),
        };
        let batch = match &obs {
            Some(_) => run_batch_traced(
                planner,
                &mut eval,
                requests,
                &traces,
                Some(&mut eval_traces),
            ),
            None => run_batch(planner, &mut eval, requests),
        };
        if let Some(&site) = failed.iter().next() {
            for &s in &failed {
                self.respawn_site(s);
            }
            self.mirror_stats();
            return Err(ClosureError::SiteUnavailable { site });
        }
        self.stats.queries += requests.len();
        if let Some(o) = &obs {
            for (i, req) in requests.iter().enumerate() {
                let et = &eval_traces[i];
                let mut spans = vec![SpanRecord {
                    trace: et.trace,
                    stage: Stage::Evaluation,
                    start_ns: batch_start_ns,
                    dur_ns: et.eval_ns,
                }];
                for c in &et.chains {
                    spans.push(SpanRecord {
                        trace: et.trace,
                        stage: Stage::ChainSegment { chain: c.chain },
                        start_ns: batch_start_ns,
                        dur_ns: c.ns,
                    });
                }
                spans.extend(site_spans.iter().filter(|s| s.trace == et.trace));
                o.record_request(RequestTrace {
                    trace: et.trace,
                    source: req.source.index() as u64,
                    target: req.target.index() as u64,
                    epoch: 0,
                    total_ns: et.eval_ns,
                    outcome: if batch.answers[i].cost.is_some() {
                        TraceOutcome::Answered
                    } else {
                        TraceOutcome::Unreachable
                    },
                    spans,
                });
            }
        }
        self.mirror_stats();
        Ok(batch)
    }

    /// Refresh the registry-backed view of [`MachineStats`] (no-op when
    /// observability is disarmed).
    fn mirror_stats(&self) {
        if let Some(o) = &self.options.obs {
            self.stats.mirror_into(o.registry());
        }
    }

    /// Single-request [`Machine::try_query_batch`].
    pub fn try_shortest_path(&mut self, x: NodeId, y: NodeId) -> Result<QueryAnswer, ClosureError> {
        let mut batch = self.try_query_batch(&[QueryRequest::new(x, y)])?;
        match batch.answers.pop() {
            Some(a) => Ok(a),
            None => unreachable!("run_batch returns one answer per request"),
        }
    }
}

/// The channel fabric of a freshly spawned site pool: per-site request
/// senders, the shared response channel, and the coordinator's retained
/// clone of its sender (respawned sites get a fresh clone, so the
/// channel never disconnects — dead sites are detected by timeout).
struct SpawnedSites {
    senders: Vec<mpsc::Sender<SiteRequest>>,
    responses: mpsc::Receiver<SiteResponse>,
    resp_tx: mpsc::Sender<SiteResponse>,
    handles: Vec<JoinHandle<()>>,
}

/// Spawn one site thread per fragment, each owning its [`SiteInit`].
fn spawn_sites(inits: Vec<SiteInit>, fault: &Option<Arc<FaultPlan>>) -> SpawnedSites {
    let (resp_tx, responses) = mpsc::channel();
    let mut senders = Vec::with_capacity(inits.len());
    let mut handles = Vec::with_capacity(inits.len());
    for init in inits {
        let (req_tx, req_rx) = mpsc::channel();
        let tx = resp_tx.clone();
        let plan = fault.clone();
        handles.push(std::thread::spawn(move || {
            site::run_site(init, req_rx, tx, plan)
        }));
        senders.push(req_tx);
    }
    SpawnedSites {
        senders,
        responses,
        resp_tx,
        handles,
    }
}

/// Site evaluation over the message channels: all subqueries a request
/// needs are dispatched before any response is read — the sites
/// genuinely work concurrently.
///
/// Failure handling: a send error (the site's request channel is closed
/// because its thread died) or a response timeout marks the suspect
/// site(s) in `failed` and stops evaluating — the round yields `None`
/// (so nothing of it is memoized) and the coordinator discards the whole
/// batch, redeploys the failed sites and reports
/// [`ClosureError::SiteUnavailable`]. Responses
/// whose tag matches no pending subquery are late answers from a
/// previously failed round (a slow-not-dead site that was replaced) and
/// are dropped.
struct ChannelEval<'a> {
    memos: &'a [SiteMemo],
    senders: &'a [mpsc::Sender<SiteRequest>],
    responses: &'a mpsc::Receiver<SiteResponse>,
    recv_timeout: Duration,
    stats: &'a mut MachineStats,
    next_tag: &'a mut u64,
    failed: &'a mut BTreeSet<usize>,
    /// Trace id of the request currently being evaluated (set by
    /// [`SiteEvaluator::begin_query`] on traced batches), stamped into
    /// every dispatched [`SiteRequest::SubQuery`].
    current_trace: TraceId,
    /// Armed on traced batches: collects one `SitePhaseOne` span per
    /// sub-query response, attributed by the echoed trace id.
    trace_ctx: Option<TraceCtx<'a>>,
}

/// The span-collection half of a traced batch.
struct TraceCtx<'a> {
    tracer: &'a Tracer,
    spans: &'a mut Vec<SpanRecord>,
}

impl SiteEvaluator for ChannelEval<'_> {
    fn eval_sites(
        &mut self,
        queries: &[SiteQueryRef<'_>],
        qstats: &mut QueryStats,
    ) -> Option<Vec<SegmentMatrix>> {
        // Once any site has failed the batch is doomed: skip dispatching.
        if !self.failed.is_empty() {
            return None;
        }
        let mut results: Vec<Option<SegmentMatrix>> = vec![None; queries.len()];
        // Dispatch phase: one message per site subquery.
        let mut pending: HashMap<u64, (usize, usize)> = HashMap::with_capacity(queries.len());
        for (slot, q) in queries.iter().enumerate() {
            let tag = *self.next_tag;
            *self.next_tag += 1;
            let req = SiteRequest::SubQuery {
                tag,
                trace: self.current_trace,
                sources: q.sources.to_vec(),
                targets: q.targets.to_vec(),
            };
            if self.senders[q.site].send(req).is_err() {
                self.failed.insert(q.site);
                break;
            }
            self.stats.messages_sent += 1;
            pending.insert(tag, (slot, q.site));
        }
        // Collect phase: the final joins' communication.
        while !pending.is_empty() && self.failed.is_empty() {
            match self.responses.recv_timeout(self.recv_timeout) {
                Ok(SiteResponse::SubQuery(resp)) => {
                    let Some((slot, _)) = pending.remove(&resp.tag) else {
                        self.stats.stale_responses += 1;
                        continue;
                    };
                    let tuples = resp.matrix.tuples();
                    self.stats.messages_received += 1;
                    self.stats.tuples_shipped += tuples;
                    let s = &mut self.stats.sites[resp.site];
                    s.subqueries += 1;
                    s.busy += resp.busy;
                    s.tuples_produced += tuples;
                    qstats.record_site_run(tuples, resp.busy);
                    if let Some(ctx) = &mut self.trace_ctx {
                        if resp.trace.is_traced() {
                            let busy_ns = resp.busy.as_nanos() as u64;
                            let now = ctx.tracer.now_ns();
                            ctx.spans.push(SpanRecord {
                                trace: resp.trace,
                                stage: Stage::SitePhaseOne {
                                    site: resp.site as u32,
                                },
                                start_ns: now.saturating_sub(busy_ns),
                                dur_ns: busy_ns,
                            });
                        }
                    }
                    results[slot] = Some(resp.matrix);
                }
                Ok(SiteResponse::DeltaApplied { .. }) => {
                    // Late ack from a failed update round.
                    self.stats.stale_responses += 1;
                }
                Err(_) => {
                    // Timed out: every site still owing an answer is
                    // suspect. (The channel cannot disconnect — the
                    // coordinator retains a sender clone.)
                    self.failed.extend(pending.values().map(|&(_, site)| site));
                }
            }
        }
        results.into_iter().collect()
    }

    fn memo(&self, site: FragmentId) -> &SiteMemo {
        &self.memos[site]
    }

    fn begin_query(&mut self, trace: TraceId) {
        self.current_trace = trace;
    }
}

impl TcEngine for Machine {
    fn backend_name(&self) -> &'static str {
        "site-threads"
    }

    fn site_count(&self) -> usize {
        self.senders.len()
    }

    fn fragmentation(&self) -> &Fragmentation {
        &self.frag
    }

    /// A single-request batch: same planning and dispatch path as
    /// [`TcEngine::query_batch`].
    fn shortest_path(&mut self, x: NodeId, y: NodeId) -> QueryAnswer {
        let mut batch = self.query_batch(&[QueryRequest::new(x, y)]);
        match batch.answers.pop() {
            Some(a) => a,
            None => unreachable!("run_batch returns one answer per request"),
        }
    }

    /// Sites ship only cost tuples, never concrete paths — route
    /// reconstruction is not available on this backend.
    fn route(&mut self, _x: NodeId, _y: NodeId) -> Result<Option<Route>, ClosureError> {
        Err(ClosureError::RoutesNotEnabled)
    }

    fn precompute_stats(&self) -> PrecomputeStats {
        self.comp.precompute_stats()
    }

    /// The coordinator retains everything a snapshot needs except the
    /// augmented graphs (those live at the sites); they are rebuilt from
    /// the complementary tables — cheap CSR assembly, no precompute. The
    /// graph, fragmentation, planner and shortcut tables are handed over
    /// as shared `Arc` handles, not copied.
    fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot::assemble(
            Arc::clone(&self.graph),
            Arc::clone(&self.frag),
            self.symmetric,
            self.cfg.clone(),
            self.comp.clone(),
            Arc::clone(&self.planner),
            self.reach.clone(),
            "site-threads",
        )
    }

    /// Coordinator-local: one comparison plus at most one binary search
    /// in the reachability index — no site round trip, no Dijkstra
    /// sweep. Falls back to a full shortest-path query when the index
    /// is disabled.
    fn connected(&mut self, x: NodeId, y: NodeId) -> bool {
        if x == y {
            return true;
        }
        if let Some(reach) = &self.reach {
            if x.index() < reach.node_count() && y.index() < reach.node_count() {
                return reach.reaches(x, y);
            }
        }
        self.shortest_path(x, y).cost.is_some()
    }

    /// Updates are incremental: the coordinator runs the shared
    /// maintenance path (`ds_closure::updates::maintain`) on its retained
    /// state, then ships one [`SiteDelta`] to each touched site — the
    /// owner gets the fragment edge change, every site whose shortcut
    /// table changed gets the refreshed tuples. Untouched sites see no
    /// message at all; site threads are never torn down, so accumulated
    /// statistics survive updates by construction.
    fn update(&mut self, update: &NetworkUpdate) -> Result<UpdateReport, ClosureError> {
        let m = maintain(
            &mut self.graph,
            &mut self.frag,
            self.symmetric,
            &self.cfg,
            &mut self.comp,
            update,
            &mut self.scratch,
        )?;
        // Keep-vs-rebuild for the coordinator's reachability index,
        // decided while `self.reach` still describes the pre-update
        // graph (same rules as `EngineSnapshot::maintain_cow`). The
        // rebuild is eager: site deltas below are the expensive part of
        // an update anyway, and `connected` stays round-trip-free.
        let keep = match m.connectivity {
            ConnectivityEffect::Unchanged => true,
            ConnectivityEffect::Inserted { src, dst } => self.reach.as_ref().is_some_and(|r| {
                r.reaches(src, dst) && (!self.symmetric || src == dst || r.reaches(dst, src))
            }),
            ConnectivityEffect::Removed { parallel_remains } => parallel_remains,
        };
        if !keep {
            self.reach = self
                .cfg
                .reach_index
                .then(|| Arc::new(ReachIndex::build(&self.graph)));
        }
        let Some(owner) = m.owner else {
            return Ok(m.report); // no-op removal: nothing to ship
        };
        let mut targets: BTreeSet<usize> = m.shortcut_sites.iter().copied().collect();
        targets.insert(owner);
        for &f in &targets {
            self.memos[f] = SiteMemo::for_site(&self.planner, f);
        }
        let mut failed: BTreeSet<usize> = BTreeSet::new();
        let mut pending: HashMap<u64, usize> = HashMap::with_capacity(targets.len());
        for &f in &targets {
            let tag = self.next_tag;
            self.next_tag += 1;
            let shortcuts = m
                .shortcut_sites
                .contains(&f)
                .then(|| self.comp.shortcuts(f).to_vec());
            let delta = SiteDelta {
                tag,
                edge_change: (f == owner).then_some(match *update {
                    NetworkUpdate::Insert { edge, .. } => EdgeChange::Insert(edge),
                    NetworkUpdate::Remove { src, dst, .. } => EdgeChange::Remove { src, dst },
                }),
                shortcuts,
            };
            let shipped = delta.shortcuts.as_ref().map_or(0, Vec::len);
            // Keep shipping to the remaining touched sites even after a
            // failure: a redeployed site is rebuilt from post-maintenance
            // state, but live sites only stay consistent via their delta.
            if self.senders[f].send(SiteRequest::Delta(delta)).is_err() {
                failed.insert(f);
                continue;
            }
            self.stats.update_tuples_shipped += shipped;
            self.stats.messages_sent += 1;
            self.stats.update_messages_sent += 1;
            pending.insert(tag, f);
        }
        while !pending.is_empty() {
            match self.responses.recv_timeout(self.options.site_recv_timeout) {
                Ok(SiteResponse::DeltaApplied { site, tag, busy }) => {
                    let Some(expected) = pending.remove(&tag) else {
                        self.stats.stale_responses += 1;
                        continue;
                    };
                    debug_assert_eq!(expected, site, "delta ack does not match a shipped delta");
                    self.stats.messages_received += 1;
                    let s = &mut self.stats.sites[site];
                    s.deltas_applied += 1;
                    s.busy += busy;
                }
                Ok(SiteResponse::SubQuery(_)) => {
                    // Late answer from a failed query round.
                    self.stats.stale_responses += 1;
                }
                Err(_) => {
                    failed.extend(pending.values().copied());
                    pending.clear();
                }
            }
        }
        self.stats.updates += 1;
        if let Some(&site) = failed.iter().next() {
            // The update IS applied: the coordinator maintained its own
            // state, live sites acked their deltas, and each redeployed
            // site is rebuilt from the already-maintained state. The
            // error reports that sites died (and were replaced) mid-round.
            for &s in &failed {
                self.respawn_site(s);
            }
            return Err(ClosureError::SiteUnavailable { site });
        }
        Ok(m.report)
    }

    /// The infallible trait surface retries [`Machine::try_query_batch`]:
    /// each failed attempt redeploys the dead sites, so a retry runs
    /// against a healthy machine (and injected fault rules are one-shot).
    /// Callers that want the typed error instead use `try_query_batch`.
    fn query_batch(&mut self, requests: &[QueryRequest]) -> BatchAnswer {
        let attempts = self.senders.len() + 1;
        let mut last = None;
        for _ in 0..attempts {
            match self.try_query_batch(requests) {
                Ok(batch) => return batch,
                Err(e) => last = Some(e),
            }
        }
        panic!(
            "machine: sites kept failing across {attempts} redeploy attempts: {}",
            match last {
                Some(e) => e.to_string(),
                None => unreachable!("at least one attempt ran"),
            }
        )
    }
}

impl Drop for Machine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_closure::baseline;
    use ds_fragment::linear::{linear_sweep, LinearConfig};
    use ds_gen::deterministic::grid;
    use ds_graph::Edge;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn machine() -> (ds_gen::GeneratedGraph, Machine) {
        let g = grid(9, 4);
        let frag = linear_sweep(
            &g.edge_list(),
            &LinearConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        let m = Machine::deploy(g.closure_graph(), frag, true).unwrap();
        (g, m)
    }

    #[test]
    fn machine_matches_baseline() {
        let (g, mut m) = machine();
        let csr = g.closure_graph();
        for (x, y) in [(0u32, 35u32), (8, 27), (20, 3), (0, 0), (17, 18)] {
            assert_eq!(
                m.shortest_path(n(x), n(y)).cost,
                baseline::shortest_path_cost(&csr, n(x), n(y)),
                "query {x}->{y}"
            );
        }
        m.shutdown();
    }

    #[test]
    fn stats_count_messages_and_tuples() {
        let (_, mut m) = machine();
        m.shortest_path(n(0), n(35));
        let s = m.stats();
        assert_eq!(s.queries, 1);
        assert_eq!(s.messages_sent, s.messages_received);
        assert!(s.messages_sent >= 3, "one per chain site");
        assert!(s.tuples_shipped > 0);
        let busy_sites = s.sites.iter().filter(|x| x.subqueries > 0).count();
        assert!(busy_sites >= 3);
        m.shutdown();
    }

    #[test]
    fn answers_carry_chain_and_stats() {
        let (_, mut m) = machine();
        let a = m.shortest_path(n(0), n(35));
        assert!(a.cost.is_some());
        let chain = a.best_chain.expect("cross-grid chain");
        assert_eq!(
            chain.len(),
            3,
            "corner to corner crosses all 3 sweep fragments"
        );
        assert!(a.stats.site_queries >= 3);
        assert!(a.stats.tuples_shipped > 0);
        m.shutdown();
    }

    #[test]
    fn batch_amortizes_and_matches_singles() {
        let (g, mut m) = machine();
        let csr = g.closure_graph();
        let requests: Vec<QueryRequest> = (0..8u32)
            .map(|i| QueryRequest::new(n(i % 9), n(35 - (i * 3) % 9)))
            .collect();
        let batch = m.query_batch(&requests);
        assert_eq!(batch.answers.len(), requests.len());
        for (req, ans) in requests.iter().zip(&batch.answers) {
            assert_eq!(
                ans.cost,
                baseline::shortest_path_cost(&csr, req.source, req.target),
                "batch {}->{}",
                req.source,
                req.target
            );
        }
        assert!(
            batch.stats.plans_reused > 0,
            "same fragment pair appears repeatedly: {:?}",
            batch.stats
        );
        assert!(
            batch.stats.segments_reused > 0,
            "interior segments shared: {:?}",
            batch.stats
        );
        m.shutdown();
    }

    #[test]
    fn update_insert_keeps_answers_exact() {
        let (_, mut m) = machine();
        let before = m.shortest_path(n(0), n(35)).cost.unwrap();
        // A cheap diagonal inside fragment 0 shortens cross-grid routes.
        let f0 = m.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        let report = m
            .update(&NetworkUpdate::Insert {
                edge: Edge::new(a, b, 1),
                owner: 0,
            })
            .unwrap();
        assert!(!report.full_recompute, "insert maintenance is incremental");
        assert!(report.sites_touched >= 1, "{report:?}");
        let after = m.shortest_path(n(0), n(35)).cost.unwrap();
        assert!(after <= before, "insertion cannot lengthen paths");
        let csr = m.graph.clone();
        assert_eq!(Some(after), baseline::shortest_path_cost(&csr, n(0), n(35)));
        m.shutdown();
    }

    #[test]
    fn update_remove_keeps_answers_exact() {
        let (_, mut m) = machine();
        let f1 = m.fragmentation().fragment(1).clone();
        let e = *f1
            .edges()
            .iter()
            .find(|e| {
                let frag = m.fragmentation();
                frag.fragments_of_node(e.src).len() < 2 || frag.fragments_of_node(e.dst).len() < 2
            })
            .expect("grid fragment has interior edges");
        let report = m
            .update(&NetworkUpdate::Remove {
                src: e.src,
                dst: e.dst,
                owner: 1,
            })
            .unwrap();
        assert!(
            !report.full_recompute,
            "interior grid edge repairs: {report:?}"
        );
        let csr = m.graph.clone();
        for (x, y) in [(0u32, 35u32), (8, 27), (20, 3)] {
            assert_eq!(
                m.shortest_path(n(x), n(y)).cost,
                baseline::shortest_path_cost(&csr, n(x), n(y)),
                "post-delete {x}->{y}"
            );
        }
        m.shutdown();
    }

    #[test]
    fn update_remove_missing_is_noop() {
        let (_, mut m) = machine();
        let report = m
            .update(&NetworkUpdate::Remove {
                src: n(0),
                dst: n(0),
                owner: 0,
            })
            .unwrap();
        assert!(!report.full_recompute);
        assert_eq!(report.sites_touched, 0);
        assert_eq!(m.stats().updates, 0, "no-op ships nothing");
        m.shutdown();
    }

    #[test]
    fn update_ships_deltas_only_to_touched_sites() {
        let (_, mut m) = machine();
        let sent_before = m.stats().messages_sent;
        let f0 = m.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        let report = m
            .update(&NetworkUpdate::Insert {
                edge: Edge::new(a, b, 1),
                owner: 0,
            })
            .unwrap();
        let s = m.stats();
        assert_eq!(s.updates, 1);
        assert_eq!(s.messages_sent - sent_before, report.sites_touched);
        assert_eq!(s.update_messages_sent, report.sites_touched);
        assert_eq!(s.update_tuples_shipped, report.tuples_shipped);
        assert!(
            report.sites_touched <= m.site_count(),
            "never more deltas than sites"
        );
        let deltas: usize = s.sites.iter().map(|x| x.deltas_applied).sum();
        assert_eq!(deltas, report.sites_touched);
        m.shutdown();
    }

    #[test]
    fn routes_not_available_on_this_backend() {
        let (_, mut m) = machine();
        assert_eq!(
            m.route(n(0), n(5)).unwrap_err(),
            ClosureError::RoutesNotEnabled
        );
        m.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let (_, mut m) = machine();
        m.shutdown();
        m.shutdown();
    }

    #[test]
    fn site_count_matches_fragments() {
        let (_, m) = machine();
        assert_eq!(m.site_count(), 3);
    }

    #[test]
    fn reachability_via_machine() {
        let (_, mut m) = machine();
        assert!(m.connected(n(0), n(35)));
        assert!(m.connected(n(12), n(12)));
    }

    #[test]
    fn armed_observability_traces_batches_and_mirrors_stats() {
        let g = grid(9, 4);
        let frag = linear_sweep(
            &g.edge_list(),
            &LinearConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        let obs = Observability::armed();
        let mut m = Machine::deploy_with_options(
            g.closure_graph(),
            frag,
            true,
            EngineConfig::default(),
            MachineOptions {
                obs: Some(obs.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        let reqs = [
            QueryRequest::new(n(0), n(35)),
            QueryRequest::new(n(3), n(30)),
        ];
        let batch = m.try_query_batch(&reqs).unwrap();
        assert!(batch.answers.iter().all(|a| a.cost.is_some()));

        let recent = obs.tracer().recent(10);
        assert_eq!(recent.len(), 2, "one RequestTrace per request");
        for rt in &recent {
            assert_eq!(rt.outcome, TraceOutcome::Answered);
            assert!(rt.span(Stage::Evaluation).is_some(), "{rt}");
            assert!(
                rt.spans
                    .iter()
                    .any(|s| matches!(s.stage, Stage::SitePhaseOne { .. })),
                "cross-fragment query must touch at least one site: {rt}"
            );
            assert!(rt
                .spans
                .iter()
                .any(|s| matches!(s.stage, Stage::ChainSegment { .. })));
        }
        let snap = obs.snapshot();
        assert_eq!(snap.gauge("machine_queries"), Some(2));
        assert!(snap.gauge("machine_messages_sent").unwrap_or(0) > 0);

        // Oracle: a disarmed machine answers identically.
        m.shutdown();
    }

    fn machine_with_fault(plan: FaultPlan) -> (ds_gen::GeneratedGraph, Machine) {
        let g = grid(9, 4);
        let frag = linear_sweep(
            &g.edge_list(),
            &LinearConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        let m = Machine::deploy_with_options(
            g.closure_graph(),
            frag,
            true,
            EngineConfig::default(),
            MachineOptions {
                site_recv_timeout: Duration::from_millis(200),
                fault: Some(Arc::new(plan)),
                obs: None,
            },
        )
        .unwrap();
        (g, m)
    }

    #[test]
    fn dead_site_is_detected_and_redeployed() {
        // Site 1 panics on its first message: the coordinator times out,
        // reports the typed error, respawns the site — and the retry is
        // exact.
        let (g, mut m) =
            machine_with_fault(FaultPlan::new().panic_at(FaultPoint::MachineSite { site: 1 }, 1));
        let err = m.try_shortest_path(n(0), n(35)).unwrap_err();
        assert_eq!(err, ClosureError::SiteUnavailable { site: 1 });
        assert_eq!(m.stats().site_restarts, 1);
        let csr = g.closure_graph();
        assert_eq!(
            m.try_shortest_path(n(0), n(35)).unwrap().cost,
            baseline::shortest_path_cost(&csr, n(0), n(35)),
        );
        m.shutdown();
    }

    #[test]
    fn infallible_surface_retries_through_a_site_death() {
        // Same fault, but through the TcEngine surface: the internal
        // respawn + retry makes the failure invisible to the caller.
        let (g, mut m) =
            machine_with_fault(FaultPlan::new().fail_at(FaultPoint::MachineSite { site: 2 }, 1));
        let csr = g.closure_graph();
        assert_eq!(
            m.shortest_path(n(0), n(35)).cost,
            baseline::shortest_path_cost(&csr, n(0), n(35)),
        );
        assert_eq!(m.stats().site_restarts, 1);
        m.shutdown();
    }

    #[test]
    fn update_with_dead_site_redeploys_and_stays_consistent() {
        // Site 0 dies on its next message, which is the update's delta.
        let (_, mut m) =
            machine_with_fault(FaultPlan::new().panic_at(FaultPoint::MachineSite { site: 0 }, 1));
        let f0 = m.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        let err = m
            .update(&NetworkUpdate::Insert {
                edge: Edge::new(a, b, 1),
                owner: 0,
            })
            .unwrap_err();
        assert!(matches!(err, ClosureError::SiteUnavailable { .. }));
        assert_eq!(m.stats().site_restarts, 1);
        // The update is applied everywhere: the redeployed site was
        // rebuilt from post-maintenance state. Answers stay exact.
        let csr = m.graph.clone();
        for (x, y) in [(0u32, 35u32), (8, 27), (20, 3)] {
            assert_eq!(
                m.shortest_path(n(x), n(y)).cost,
                baseline::shortest_path_cost(&csr, n(x), n(y)),
                "post-failover {x}->{y}"
            );
        }
        m.shutdown();
    }
}
