//! The serving core: epoch-published snapshots, a worker pool with
//! per-worker scratch, a micro-batching dispatcher, and one writer
//! thread driving incremental update maintenance.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ds_closure::api::{BatchStats, NetworkUpdate, QueryRequest};
use ds_closure::snapshot::EngineSnapshot;
use ds_closure::updates::UpdateReport;
use ds_closure::{ClosureError, QueryAnswer};
use ds_durability::{DurabilityConfig, DurabilityError, DurableStore};
use ds_fault::{lock_unpoisoned, FaultPlan, FaultPoint};
use ds_graph::{NodeId, ScratchDijkstra, ScratchStats};
use ds_obs::{Observability, RequestTrace, SpanRecord, Stage, TraceId, TraceOutcome};

use crate::batch::{close_failed_traces, process_batch};
use crate::cache::AnswerCache;
use crate::handoff::{reply_slot, yield_window, PendingBatch, ReplySender};
use crate::queue::{BoundedQueue, PushError};
use crate::stats::{add_batch_stats, LatencySummary, Metrics, ServeStats};
use crate::writer::{redo_wal_suffix, writer_loop, WriteJob};

/// Most answers the cache holds per epoch: bounds memory on read-only
/// deployments, whose epoch never advances and would otherwise accumulate
/// every distinct pair ever queried; once full, further inserts are
/// dropped until the next epoch.
const ANSWER_CACHE_ENTRIES: usize = 65_536;

/// Serving configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Reader worker threads (each owns its scratch kernel).
    pub workers: usize,
    /// Bounded submission queue depth, in jobs. When the pool falls this
    /// far behind, further submissions are **shed**: [`Server::submit`] /
    /// [`Server::try_query_batch`] return [`Overloaded`] with a
    /// retry-after hint instead of blocking the producer.
    pub queue_capacity: usize,
    /// Most jobs one worker folds into a single micro-batch.
    pub batch_max: usize,
    /// Per-epoch answer cache: identical queries repeated within one
    /// snapshot epoch are served from a lock-light shared map instead of
    /// re-evaluated; the cache is dropped wholesale whenever the writer
    /// publishes a new epoch (and holds at most 65,536 answers per
    /// epoch). Hit/miss counters land in [`ServeStats`].
    pub answer_cache: bool,
    /// The retry-after hint handed to shed producers (and the back-off
    /// the blocking convenience wrappers sleep between admission
    /// attempts).
    pub retry_after: Duration,
    /// Request deadline, stamped at admission. A job still queued past
    /// its deadline is **shed by the worker that drains it** with
    /// [`ClosureError::DeadlineExceeded`] instead of being evaluated
    /// (counted in [`ServeStats::deadline_shed`]). `None` (the default)
    /// disables shedding.
    pub deadline: Option<Duration>,
    /// How many times the blocking [`Server::query_batch`] wrapper
    /// retries an [`Overloaded`] admission (with exponential back-off
    /// starting at [`ServeConfig::retry_after`]) before giving up and
    /// returning [`ServeError::Overloaded`]. 0 = no retry.
    pub max_admission_retries: u32,
    /// Durable storage (`ds_durability`): when set, the writer appends
    /// every folded update batch to the write-ahead log **before**
    /// applying it (one buffered write + one fsync per group commit) and
    /// checkpoints on the configured record count, so
    /// [`ds_durability::recover`] can rebuild the served state after a
    /// process death. `None` (the default) keeps the tier memory-only.
    pub durability: Option<DurabilityConfig>,
    /// Armed fault-injection plan (tests only; `None` in production).
    /// Disarmed, each hook is a single `Option` branch: one per job at
    /// the worker, one per write batch at the writer.
    pub fault: Option<Arc<FaultPlan>>,
    /// Observability bundle (`ds_obs`). The serve tier counts every
    /// event once, on one `ds_obs` cell, whether or not this is set
    /// ([`ServeStats`] reads those cells); arming *exports* the same
    /// cells through the bundle's registry and adds what costs per
    /// request: every admission mints a [`TraceId`], workers file
    /// per-request span sets (queue wait, evaluation, per-chain segment
    /// time, cache/coalesce/reach-index markers) into the trace ring and
    /// slow-query log, the hot path samples the workload recorder, and
    /// each publication walks the snapshot for the `serve_snapshot_*_bytes`
    /// gauges. `None` (the default) reduces each of those to one
    /// `Option` branch; `BENCH_gates.json` reports the armed-over-disarmed
    /// ratio of one paired run.
    pub obs: Option<Arc<Observability>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 1024,
            batch_max: 64,
            answer_cache: true,
            retry_after: Duration::from_micros(200),
            deadline: None,
            max_admission_retries: 16,
            durability: None,
            fault: None,
            obs: None,
        }
    }
}

impl ServeConfig {
    /// Default configuration with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        ServeConfig {
            workers: workers.max(1),
            ..ServeConfig::default()
        }
    }
}

/// One answered request, stamped with the epoch it was served at.
#[derive(Clone, Debug)]
pub struct ServedAnswer {
    pub answer: QueryAnswer,
    /// The published snapshot version the answer is consistent with.
    pub epoch: u64,
}

/// One answered job: answers in request order, all evaluated against the
/// same snapshot epoch (that is the consistency unit).
#[derive(Clone, Debug)]
pub struct ServedBatch {
    pub answers: Vec<QueryAnswer>,
    pub epoch: u64,
}

/// One applied update: the maintenance report plus the epoch at which
/// its effect became visible to readers.
#[derive(Clone, Debug)]
pub struct ServedUpdate {
    pub report: UpdateReport,
    pub epoch: u64,
}

/// The load-shedding rejection: the submission queue is at capacity.
/// Retry no sooner than `retry_after` (the hint is
/// [`ServeConfig::retry_after`]); the blocking wrappers do exactly that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overloaded {
    pub retry_after: Duration,
}

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serve queue at capacity; retry after {:?}",
            self.retry_after
        )
    }
}

impl std::error::Error for Overloaded {}

/// Why a blocking query wrapper failed. Admission exhaustion and
/// request-level failures (worker panic, deadline shed) are distinct:
/// the former never entered the queue, the latter consumed a slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Every admission attempt was shed; `attempts` counts them.
    Overloaded {
        retry_after: Duration,
        attempts: u32,
    },
    /// The job was admitted but resolved to a typed failure instead of
    /// an answer (worker panic, deadline shed, ...).
    Request(ClosureError),
}

impl ServeError {
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ServeError::Overloaded { .. })
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded {
                retry_after,
                attempts,
            } => write!(
                f,
                "serve queue still at capacity after {attempts} attempts; retry after {retry_after:?}"
            ),
            ServeError::Request(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Bounded decorrelated-jitter back-off for the blocking wrappers'
/// admission retries: each sleep is drawn uniformly from
/// `[base, prev * 3]` and capped, so concurrent shed clients spread
/// out instead of re-colliding in lockstep the way deterministic
/// doubling makes them (every client that was shed together retries
/// together, forever). Deterministic given its seed — a SplitMix64
/// stream — so tests can assert exact sequences.
#[derive(Clone, Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    prev: Duration,
    state: u64,
}

impl Backoff {
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        let base = base.max(Duration::from_nanos(1));
        Backoff {
            base,
            cap: cap.max(base),
            prev: base,
            state: seed,
        }
    }

    /// The next sleep: uniform in `[base, 3 * previous]`, clamped to
    /// `[base, cap]`.
    pub fn next_delay(&mut self) -> Duration {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let lo = self.base.as_nanos() as u64;
        let hi = (self.prev.as_nanos() as u64).saturating_mul(3).max(lo);
        let pick = lo + if hi > lo { z % (hi - lo + 1) } else { 0 };
        let next = Duration::from_nanos(pick).clamp(self.base, self.cap);
        self.prev = next;
        next
    }
}

/// Per-process seed stream for [`Backoff`]: every blocking call gets
/// its own jitter sequence, decorrelating concurrent retriers.
fn next_backoff_seed() -> u64 {
    static SEED: AtomicU64 = AtomicU64::new(0x005E_ED0F_B0FF);
    SEED.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
}

pub(crate) struct QueryJob {
    pub(crate) requests: Vec<QueryRequest>,
    /// One trace id per request, minted at admission; empty when
    /// observability is disarmed.
    pub(crate) traces: Vec<TraceId>,
    pub(crate) reply: ReplySender<Result<ServedBatch, ClosureError>>,
    pub(crate) submitted: Instant,
}

/// The publication slot: an epoch-stamped `Arc<EngineSnapshot>` behind a
/// mutex, plus an atomic epoch mirror so readers can detect staleness
/// with one relaxed load. The mutex is touched only when the epoch
/// actually changed (publication is writer-rate, not query-rate), so the
/// steady-state query path never blocks on it.
pub(crate) struct Published {
    pub(crate) epoch: AtomicU64,
    pub(crate) slot: Mutex<(u64, Arc<EngineSnapshot>)>,
}

impl Published {
    fn new(epoch: u64, snapshot: Arc<EngineSnapshot>) -> Self {
        Published {
            epoch: AtomicU64::new(epoch),
            slot: Mutex::new((epoch, snapshot)),
        }
    }

    /// Ensure a worker's cached `(epoch, snapshot)` is present and
    /// current; the cached pair keeps in-flight evaluation pinned to one
    /// version. Costs one atomic load when already fresh; workers clear
    /// the cache before blocking idle (see `worker_loop`), so only
    /// workers with work in hand keep an epoch alive.
    pub(crate) fn pin<'a>(
        &self,
        cached: &'a mut Option<(u64, Arc<EngineSnapshot>)>,
    ) -> &'a (u64, Arc<EngineSnapshot>) {
        let current = self.epoch.load(Ordering::Acquire);
        let fresh = matches!(cached, Some((epoch, _)) if *epoch == current);
        if !fresh {
            let slot = lock_unpoisoned(&self.slot);
            *cached = Some((slot.0, Arc::clone(&slot.1)));
        }
        match cached {
            Some(pair) => pair,
            None => unreachable!("pin fills the slot above"),
        }
    }

    pub(crate) fn current(&self) -> (u64, Arc<EngineSnapshot>) {
        let slot = lock_unpoisoned(&self.slot);
        (slot.0, Arc::clone(&slot.1))
    }

    fn publish(&self, epoch: u64, snapshot: Arc<EngineSnapshot>) {
        let mut slot = lock_unpoisoned(&self.slot);
        *slot = (epoch, snapshot);
        drop(slot);
        self.epoch.store(epoch, Ordering::Release);
    }
}

/// What a worker accounts for that no registry metric holds: its own
/// evaluation time, the batch kernel's amortization report and its
/// scratch kernel's reuse counters. Everything countable lives in
/// [`Metrics`].
#[derive(Default)]
pub(crate) struct WorkerLog {
    pub(crate) busy: Duration,
    pub(crate) batch: BatchStats,
    pub(crate) scratch: ScratchStats,
}

pub(crate) struct Shared {
    pub(crate) queue: BoundedQueue<QueryJob>,
    pub(crate) published: Published,
    /// Every event count, once (see [`Metrics`]).
    pub(crate) metrics: Metrics,
    /// The per-epoch answer cache, shared by every worker; `None` when
    /// disabled by [`ServeConfig::answer_cache`].
    pub(crate) cache: Option<AnswerCache>,
    pub(crate) worker_logs: Vec<Mutex<WorkerLog>>,
    pub(crate) batch_max: usize,
    pub(crate) retry_after: Duration,
    /// See [`ServeConfig::deadline`].
    pub(crate) deadline: Option<Duration>,
    /// See [`ServeConfig::max_admission_retries`].
    pub(crate) max_admission_retries: u32,
    /// Armed fault-injection plan (`None` in production).
    pub(crate) fault: Option<Arc<FaultPlan>>,
    /// The durable store (when durability is on). Logically owned by the
    /// writer thread — the mutex exists so the supervisor can reach it
    /// across a writer respawn; it is never contended.
    pub(crate) store: Option<Mutex<DurableStore>>,
    /// The LSN through which the *published* state incorporates the
    /// durable log. A respawned writer redoes the WAL suffix beyond this
    /// so the live state reconverges with what [`ds_durability::recover`]
    /// would rebuild.
    pub(crate) published_lsn: AtomicU64,
    /// Set when the writer is *permanently* down: read-only degraded
    /// mode. A writer panic respawns and never sets this; only an
    /// injected non-unwind failure (`FaultAction::Fail`) does.
    pub(crate) degraded: AtomicBool,
    /// The armed bundle's tracer, slow-query log and workload recorder
    /// (`None` = disarmed: each of those hooks is one `Option` branch).
    /// Counting does not depend on it.
    pub(crate) obs: Option<Arc<Observability>>,
    pub(crate) started: Instant,
}

impl Shared {
    /// Resolve a request: fill its reply slot, counting on
    /// [`Metrics::reply_parks`] a waiter that had to be woken.
    pub(crate) fn reply<T>(&self, to: &ReplySender<T>, value: T) {
        to.send(value, &self.metrics.reply_parks);
    }

    /// Publish `snapshot` as `epoch` — the one place a publication is
    /// made and counted, for the writer and the WAL redo alike.
    pub(crate) fn publish(&self, epoch: u64, snapshot: EngineSnapshot) {
        if self.obs.is_some() {
            // What the epoch holds, by component (the memos and access
            // sets are those of the sites left untouched; the touched
            // ones start empty). A walk of the snapshot, so sampled only
            // where a registry can show it.
            let held = snapshot.memory_bytes().components();
            for (gauge, (_, bytes)) in self.metrics.snapshot_bytes.iter().zip(held) {
                gauge.set(bytes as u64);
            }
        }
        self.published.publish(epoch, Arc::new(snapshot));
        self.metrics.publications.inc();
        self.metrics.epoch.set(epoch);
    }
}

/// A running query-serving subsystem over one engine snapshot lineage.
///
/// `Server` is `Sync`: share it by reference (or `Arc`) across any
/// number of client threads. Reads go to the worker pool through the
/// bounded queue; updates go to the single writer thread, which applies
/// the incremental maintenance of `ds_closure::updates` to a private
/// copy and atomically publishes the successor snapshot under a bumped
/// epoch. In-flight queries finish on the epoch they started with —
/// every answer is consistent with *some* published version, reported in
/// [`ServedBatch::epoch`].
pub struct Server {
    shared: Arc<Shared>,
    write_tx: Mutex<Option<mpsc::Sender<WriteJob>>>,
    handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Spawn the worker pool and writer thread over `snapshot`.
    ///
    /// With [`ServeConfig::durability`] set, this attaches (or creates)
    /// the durable store first and **panics** if that fails — use
    /// [`Server::try_start_at`] to handle the error. A fresh directory
    /// gets an initial checkpoint of `snapshot`; an existing one accepts
    /// only the state it recovers to ([`ds_durability::recover`] /
    /// `System::open` produce exactly that), at its recovered epoch —
    /// so over a directory with history use [`Server::try_start_at`].
    pub fn start(snapshot: EngineSnapshot, config: ServeConfig) -> Server {
        match Server::try_start_at(snapshot, 0, config) {
            Ok(server) => server,
            Err(e) => panic!("durable store init failed: {e}"),
        }
    }

    /// [`Server::start`] resuming at a given published epoch (the one
    /// [`ds_durability::Recovered::epoch`] reports), with durable-store
    /// attachment failures surfaced instead of panicking — among them
    /// [`DurabilityError::Diverged`]: over an existing directory,
    /// `snapshot` at `epoch` must be the state that directory recovers to.
    pub fn try_start_at(
        snapshot: EngineSnapshot,
        epoch: u64,
        config: ServeConfig,
    ) -> Result<Server, DurabilityError> {
        let store = match &config.durability {
            Some(cfg) => {
                let store =
                    DurableStore::attach(cfg.clone(), &snapshot, epoch, config.fault.clone())?;
                Some(store)
            }
            None => None,
        };
        let initial_lsn = store.as_ref().map_or(0, DurableStore::last_lsn);
        let workers = config.workers.max(1);
        let initial = Arc::new(snapshot);
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity.max(workers)),
            published: Published::new(epoch, initial),
            metrics: Metrics::new(config.obs.as_deref(), epoch),
            cache: config
                .answer_cache
                .then(|| AnswerCache::new(ANSWER_CACHE_ENTRIES)),
            worker_logs: (0..workers)
                .map(|_| Mutex::new(WorkerLog::default()))
                .collect(),
            batch_max: config.batch_max.max(1),
            retry_after: config.retry_after,
            deadline: config.deadline,
            max_admission_retries: config.max_admission_retries,
            fault: config.fault.clone(),
            store: store.map(Mutex::new),
            published_lsn: AtomicU64::new(initial_lsn),
            degraded: AtomicBool::new(false),
            obs: config.obs.clone(),
            started: Instant::now(),
        });
        let mut handles = Vec::with_capacity(workers + 1);
        for id in 0..workers {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || supervised_worker(&shared, id)));
        }
        let (write_tx, write_rx) = mpsc::channel::<WriteJob>();
        {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                // Writer supervisor: a panicking writer loses only its
                // private working copy, so the respawn rebuilds one from
                // the last *published* snapshot and re-enters the loop on
                // the same write channel — updates keep flowing. The
                // in-flight updates of the doomed batch resolve through
                // their dropped reply senders as `WriterRestarted` (not
                // applied — retry; see `Server::update`). Only a clean
                // return leaves the loop: shutdown (channel closed) or an
                // injected non-unwind failure (`FaultAction::Fail`),
                // which flips permanent read-only degraded mode first.
                loop {
                    // With durability on, the log may hold records the
                    // doomed writer appended but never published (it
                    // died between append and publish). Redo that
                    // suffix first so the live state reconverges with
                    // what `recover` would rebuild from disk. On first
                    // entry the suffix is empty (attach == recovered).
                    redo_wal_suffix(&shared);
                    let working = (*shared.published.current().1).clone();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        writer_loop(&shared, working, &write_rx)
                    }));
                    match outcome {
                        Ok(()) => return,
                        Err(_) => shared.metrics.writer_restarts.inc(),
                    }
                }
            }));
        }
        Ok(Server {
            shared,
            write_tx: Mutex::new(Some(write_tx)),
            handles,
        })
    }

    /// Answer one shortest-path request (blocking).
    pub fn query(&self, x: NodeId, y: NodeId) -> Result<ServedAnswer, ServeError> {
        let mut batch = self.query_batch(&[QueryRequest::new(x, y)])?;
        match batch.answers.pop() {
            Some(answer) => Ok(ServedAnswer {
                answer,
                epoch: batch.epoch,
            }),
            None => Err(ServeError::Request(ClosureError::WorkerFailed)),
        }
    }

    /// Connection query — "is `x` connected to `y`?".
    ///
    /// Answered on the calling thread from the published snapshot's
    /// SCC/chain reachability index — no queue slot, no worker dispatch,
    /// no Dijkstra sweep, and never a cached shortest-path answer (the
    /// fast path does not touch the answer cache at all). The epoch's
    /// first `connected` builds the index on its caller's thread. A node
    /// outside the graph goes through the pool as a shortest-path query.
    pub fn connected(&self, x: NodeId, y: NodeId) -> Result<bool, ServeError> {
        if x == y {
            return Ok(true);
        }
        let (epoch, snap) = self.shared.published.current();
        let reach = snap.reach_index();
        if x.index() >= reach.node_count() || y.index() >= reach.node_count() {
            return Ok(self.query(x, y)?.answer.cost.is_some());
        }
        self.shared.metrics.reach_fast_path.inc();
        let connected = reach.reaches(x, y);
        if let Some(obs) = &self.shared.obs {
            // One marker span, no latency sample: nothing was queued.
            let tracer = obs.tracer();
            let trace = tracer.mint();
            tracer.finish(RequestTrace {
                trace,
                source: x.index() as u64,
                target: y.index() as u64,
                epoch,
                total_ns: 0,
                outcome: if connected {
                    TraceOutcome::Answered
                } else {
                    TraceOutcome::Unreachable
                },
                spans: vec![SpanRecord {
                    trace,
                    stage: Stage::ReachIndex,
                    start_ns: tracer.now_ns(),
                    dur_ns: 0,
                }],
            });
            let w = obs.workload();
            if w.should_sample() {
                w.record_vertex_pair(x.index() as u64, y.index() as u64);
            }
        }
        Ok(connected)
    }

    /// Admit a batch of requests as one job without blocking: `Ok` hands
    /// back a [`PendingBatch`] to wait on, `Err` means the submission
    /// queue is at capacity and the job was **shed** — nothing was
    /// enqueued; retry after the hinted back-off. All answers of one job
    /// come from the same snapshot epoch.
    pub fn submit(&self, requests: &[QueryRequest]) -> Result<PendingBatch, Overloaded> {
        if requests.is_empty() {
            // Nothing to evaluate: answer inline instead of spending a
            // queue slot (and never shed a job that carries no work).
            return Ok(PendingBatch::ready(Ok(ServedBatch {
                answers: Vec::new(),
                epoch: self.epoch(),
            })));
        }
        let (tx, rx) = reply_slot();
        let traces: Vec<TraceId> = match &self.shared.obs {
            Some(obs) => requests.iter().map(|_| obs.tracer().mint()).collect(),
            None => Vec::new(),
        };
        let job = QueryJob {
            requests: requests.to_vec(),
            traces,
            reply: tx,
            submitted: Instant::now(),
        };
        match self.shared.queue.try_push(job) {
            Ok(woke) => {
                if woke {
                    self.shared.metrics.handoff_wakes.inc();
                }
                Ok(PendingBatch::queued(rx))
            }
            Err(PushError::Full(job)) => {
                self.shared.metrics.queue_rejections.inc();
                if let Some(obs) = &self.shared.obs {
                    // Shed admissions still close their traces (outcome
                    // only — nothing ran, so there are no spans and no
                    // latency sample).
                    let epoch = self.epoch();
                    for (r, &trace) in job.requests.iter().zip(&job.traces) {
                        obs.tracer().finish(RequestTrace {
                            trace,
                            source: r.source.index() as u64,
                            target: r.target.index() as u64,
                            epoch,
                            total_ns: 0,
                            outcome: TraceOutcome::Shed,
                            spans: Vec::new(),
                        });
                    }
                }
                Err(Overloaded {
                    retry_after: self.shared.retry_after,
                })
            }
            // Only reachable during shutdown (which requires owning
            // the server, so no client can still hold `&self` — except
            // through a leaked Arc). Resolve instead of hang.
            Err(PushError::Closed(_)) => Ok(PendingBatch::ready(Err(ClosureError::WorkerFailed))),
        }
    }

    /// [`Server::query_batch`] that sheds instead of backing off: at
    /// capacity, returns [`ServeError::Overloaded`] immediately.
    pub fn try_query_batch(&self, requests: &[QueryRequest]) -> Result<ServedBatch, ServeError> {
        let pending = self.submit(requests).map_err(|o| ServeError::Overloaded {
            retry_after: o.retry_after,
            attempts: 1,
        })?;
        pending.wait().map_err(ServeError::Request)
    }

    /// Answer a batch of requests as one job (blocking convenience): a
    /// shed submission is retried with bounded decorrelated-jitter
    /// back-off (see [`Backoff`]; base [`ServeConfig::retry_after`],
    /// capped at 64x) up to [`ServeConfig::max_admission_retries`]
    /// times — each rejected attempt still counts in
    /// [`ServeStats::queue_rejections`]. All answers come from the same
    /// snapshot epoch.
    pub fn query_batch(&self, requests: &[QueryRequest]) -> Result<ServedBatch, ServeError> {
        let base = self.shared.retry_after.max(Duration::from_micros(10));
        let mut backoff = Backoff::new(base, base * 64, next_backoff_seed());
        let mut attempts = 0u32;
        loop {
            match self.submit(requests) {
                Ok(pending) => return pending.wait().map_err(ServeError::Request),
                Err(Overloaded { retry_after }) => {
                    attempts += 1;
                    if attempts > self.shared.max_admission_retries {
                        return Err(ServeError::Overloaded {
                            retry_after,
                            attempts,
                        });
                    }
                    std::thread::sleep(backoff.next_delay());
                }
            }
        }
    }

    /// Apply a network update (blocking until its effect is published).
    /// Readers never wait on this: they keep answering from the previous
    /// epoch until the successor snapshot is swapped in.
    ///
    /// A writer *panic* is survivable: the supervisor respawns the
    /// writer with a working copy rebuilt from the last published
    /// snapshot, the in-flight updates of the doomed batch resolve to
    /// [`ClosureError::WriterRestarted`] (not applied — retry this
    /// call), and later updates apply normally
    /// ([`ServeStats::writer_restarts`] counts the respawns). Only a
    /// *permanent* writer death (an injected non-unwind failure, or
    /// shutdown) leaves the server read-only
    /// ([`ServeStats::degraded`]): from then on every update — queued,
    /// in-flight, or future — resolves to
    /// [`ClosureError::WriterDown`]; reads keep serving the last
    /// published epoch.
    pub fn update(&self, update: &NetworkUpdate) -> Result<ServedUpdate, ClosureError> {
        if self.shared.degraded.load(Ordering::SeqCst) {
            return Err(ClosureError::WriterDown);
        }
        let tx = match lock_unpoisoned(&self.write_tx).clone() {
            Some(tx) => tx,
            // Shutdown already took the writer handle.
            None => return Err(ClosureError::WriterDown),
        };
        let (reply, rx) = reply_slot();
        if tx
            .send(WriteJob {
                update: *update,
                reply,
            })
            .is_err()
        {
            return Err(ClosureError::WriterDown);
        }
        // A dead writer drops every queued job's reply sender — the wait
        // then comes back empty instead of hanging. Which error depends
        // on what killed it: a panic was respawned by the supervisor
        // (this update was NOT applied — the typed error says retry),
        // while a permanent death already flipped degraded mode.
        match rx.wait() {
            Some(outcome) => outcome,
            None => {
                // The update died with the writer; leave a Failed trace
                // so the loss is visible in the ring, not just the
                // caller's error.
                if let Some(obs) = &self.shared.obs {
                    let tracer = obs.tracer();
                    tracer.finish(RequestTrace {
                        trace: tracer.mint(),
                        source: 0,
                        target: 0,
                        epoch: self.epoch(),
                        total_ns: 0,
                        outcome: TraceOutcome::Failed,
                        spans: Vec::new(),
                    });
                }
                if self.shared.degraded.load(Ordering::SeqCst) {
                    Err(ClosureError::WriterDown)
                } else {
                    Err(ClosureError::WriterRestarted)
                }
            }
        }
    }

    /// The currently published epoch (= updates applied since start).
    pub fn epoch(&self) -> u64 {
        self.shared.published.epoch.load(Ordering::Acquire)
    }

    /// The currently published snapshot (readers may already be on a
    /// newer one by the time you look at it).
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.shared.published.current().1
    }

    /// Serving statistics up to now: every count read from the cell it
    /// is incremented on, the rest from the queue, the published
    /// snapshot and the per-worker logs.
    pub fn stats(&self) -> ServeStats {
        let shared = &*self.shared;
        let m = &shared.metrics;
        let (epoch, snap) = shared.published.current();
        let mut busy = Vec::with_capacity(shared.worker_logs.len());
        let mut batch = BatchStats::default();
        let mut scratch = ScratchStats::default();
        for log in &shared.worker_logs {
            let log = lock_unpoisoned(log);
            busy.push(log.busy);
            scratch.merge(log.scratch);
            add_batch_stats(&mut batch, &log.batch);
        }
        let hist = m.request_latency.snapshot();
        ServeStats {
            workers: shared.worker_logs.len(),
            epoch,
            updates: m.updates.get(),
            publications: m.publications.get(),
            jobs: m.jobs.get(),
            requests: m.requests.get(),
            batches: m.batches.get(),
            evaluated: m.evaluated.get(),
            coalesced: m.coalesced.get(),
            cache_hits: m.cache_hits.get(),
            cache_misses: m.cache_misses.get(),
            reach_fast_path: m.reach_fast_path.get(),
            reach_index_built: snap.reach_handle().is_some(),
            batch,
            queue_depth: shared.queue.depth(),
            queue_high_water: shared.queue.high_water(),
            queue_capacity: shared.queue.capacity(),
            queue_rejections: m.queue_rejections.get(),
            handoff_wakes: m.handoff_wakes.get(),
            reply_parks: m.reply_parks.get(),
            elapsed: shared.started.elapsed(),
            busy,
            writer_busy: Duration::from_nanos(m.writer_busy_ns.get()),
            writer_append: Duration::from_nanos(m.writer_append_ns.get()),
            writer_maintain: Duration::from_nanos(m.writer_maintain_ns.get()),
            writer_fallbacks: m.writer_fallbacks.get(),
            writer_fallback: Duration::from_nanos(m.writer_fallback_ns.get()),
            writer_publish: Duration::from_nanos(m.writer_publish_ns.get()),
            scratch,
            latency: LatencySummary {
                count: hist.count(),
                mean_us: hist.mean_ns() / 1e3,
                p50_us: hist.quantile_ns(0.5) as f64 / 1e3,
                p99_us: hist.quantile_ns(0.99) as f64 / 1e3,
                max_us: hist.max_ns() as f64 / 1e3,
            },
            backend: snap.config().mode.backend_name(),
            strategy: snap.precompute_stats().strategy,
            worker_restarts: m.worker_restarts.get(),
            writer_restarts: m.writer_restarts.get(),
            deadline_shed: m.deadline_shed.get(),
            deadline_cancelled: m.deadline_cancelled.get(),
            wal_records: m.wal_records.get(),
            wal_commits: m.wal_commits.get(),
            wal_failures: m.wal_failures.get(),
            checkpoints: m.checkpoints.get(),
            degraded: shared.degraded.load(Ordering::SeqCst),
        }
    }

    /// Stop accepting work, drain the queue, join every thread and
    /// return the final statistics.
    pub fn shutdown(mut self) -> ServeStats {
        self.finish();
        let stats = self.stats();
        // Drop runs afterwards; finish() is idempotent.
        stats
    }

    /// Test hook: freeze the worker pool (consumers treat the queue as
    /// empty) so tests can fill the submission queue deterministically.
    #[cfg(test)]
    pub(crate) fn pause_workers(&self) {
        self.shared.queue.pause();
    }

    /// Test hook: workers parked on the empty queue right now.
    #[cfg(test)]
    pub(crate) fn parked_workers(&self) -> usize {
        self.shared.queue.waiting()
    }

    /// Test hook: release a paused worker pool.
    #[cfg(test)]
    pub(crate) fn unpause_workers(&self) {
        self.shared.queue.unpause();
    }

    fn finish(&mut self) {
        self.shared.queue.close();
        *lock_unpoisoned(&self.write_tx) = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.finish();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.shared.worker_logs.len())
            .field("epoch", &self.epoch())
            .finish()
    }
}

/// `Server` is shared by reference across client threads; keep that a
/// compile-time guarantee.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Server>();
    assert_send_sync::<Shared>();
};

/// The supervisor wrapping one reader worker: respawn the worker body
/// after any panic that escapes the per-batch isolation inside, so the
/// pool never shrinks. In-flight jobs of the doomed batch resolve
/// through their dropped reply senders ([`PendingBatch::wait`] maps
/// that to [`ClosureError::WorkerFailed`]); the respawn gets fresh
/// scratch state and counts in [`ServeStats::worker_restarts`].
fn supervised_worker(shared: &Shared, id: usize) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(shared, id))) {
            Ok(()) => return, // queue closed and drained: clean exit
            Err(_) => shared.metrics.worker_restarts.inc(),
        }
    }
}

/// One reader worker: drain a micro-batch of jobs, shed the ones queued
/// past their deadline, then evaluate the rest under `catch_unwind` so
/// a panicking batch resolves every in-flight request with a typed
/// [`ClosureError::WorkerFailed`] (never a hang) and the worker lives
/// on with reset state — the in-place equivalent of a respawn, counted
/// in [`ServeStats::worker_restarts`].
fn worker_loop(shared: &Shared, id: usize) {
    let mut scratch = ScratchDijkstra::new();
    let mut cached: Option<(u64, Arc<EngineSnapshot>)> = None;
    loop {
        let jobs = match yield_window(|| shared.queue.try_pop_batch(shared.batch_max)) {
            Some(jobs) => jobs,
            None => {
                // About to block idle (the yield window found nothing):
                // release the pinned snapshot so a publication arriving
                // now is not kept alive by sleeping workers — only
                // in-flight evaluation pins an epoch.
                cached = None;
                let jobs = shared.queue.pop_batch(shared.batch_max);
                if jobs.is_empty() {
                    break; // closed and drained
                }
                jobs
            }
        };
        // Deadline shedding: a job that already waited past its
        // deadline gets a typed refusal instead of stale evaluation.
        let jobs = match shared.deadline {
            None => jobs,
            Some(deadline) => {
                let mut live = Vec::with_capacity(jobs.len());
                for job in jobs {
                    let waited = job.submitted.elapsed();
                    if waited > deadline {
                        shared.metrics.deadline_shed.inc();
                        close_failed_traces(shared, &job, Some(waited));
                        shared.reply(&job.reply, Err(ClosureError::DeadlineExceeded { waited }));
                    } else {
                        live.push(job);
                    }
                }
                live
            }
        };
        if jobs.is_empty() {
            continue;
        }
        // Panic isolation: the fault hook and the evaluation run under
        // catch_unwind with the jobs held outside, so the doomed batch
        // can still be resolved. `Ok(true)` is an injected non-unwind
        // failure (FaultAction::Fail); `Err` is a real panic.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut injected = false;
            for _ in &jobs {
                injected |= ds_fault::fire(&shared.fault, FaultPoint::ServeWorker { worker: id });
            }
            if !injected {
                process_batch(shared, id, &jobs, &mut scratch, &mut cached);
            }
            injected
        }));
        match outcome {
            Ok(false) => {}
            failed => {
                for job in &jobs {
                    close_failed_traces(shared, job, None);
                    shared.reply(&job.reply, Err(ClosureError::WorkerFailed));
                }
                // Reset state exactly as a thread respawn would.
                scratch = ScratchDijkstra::new();
                cached = None;
                if failed.is_err() {
                    shared.metrics.worker_restarts.inc();
                }
            }
        }
    }
}
