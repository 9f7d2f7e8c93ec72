//! What the serve tier reports: the event cells every count is made on
//! ([`Metrics`]) and the point-in-time view read from them
//! ([`ServeStats`]).

use std::time::Duration;

use ds_closure::api::BatchStats;
use ds_closure::complementary::PrecomputeStrategy;
use ds_closure::snapshot::SnapshotBytes;
#[allow(unused_imports)] // doc links
use ds_closure::ClosureError;
use ds_graph::ScratchStats;
use ds_obs::{Counter, Gauge, HistogramHandle, MetricsRegistry, Observability};

#[allow(unused_imports)] // doc links
use crate::server::{ServeConfig, Server};

/// Latency percentiles over every request served so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    pub count: u64,
    pub mean_us: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
}

/// A point-in-time report of this server. Every event count is read
/// from the cell the event is incremented on — the cell an armed
/// [`ServeConfig::obs`] registry exports under `serve_<field>` (summed
/// there over every server sharing the bundle) — so the two views
/// cannot disagree; queue pressure comes from the queue, epoch and
/// index freshness from the published snapshot, busy time and kernel
/// reuse from the per-worker logs.
#[derive(Clone, Debug)]
pub struct ServeStats {
    /// Reader workers in the pool.
    pub workers: usize,
    /// Current published epoch (updates applied since start).
    pub epoch: u64,
    /// Updates applied by the writer thread.
    pub updates: u64,
    /// Snapshot publications (≤ `updates`: the writer folds pending
    /// updates into one copy-on-write publication).
    pub publications: u64,
    /// Jobs answered.
    pub jobs: u64,
    /// Requests answered (a job carries ≥ 1 request).
    pub requests: u64,
    /// Micro-batches evaluated.
    pub batches: u64,
    /// Distinct requests actually evaluated.
    pub evaluated: u64,
    /// Requests answered by coalescing onto an identical batch-mate
    /// (single-flight within a micro-batch).
    pub coalesced: u64,
    /// Distinct requests answered from the per-epoch answer cache
    /// (`requests == evaluated + coalesced + cache_hits`).
    pub cache_hits: u64,
    /// Distinct requests probed against the cache without a usable entry
    /// (they were then evaluated). 0 when the cache is disabled.
    pub cache_misses: u64,
    /// `connected` calls answered by the published snapshot's SCC/chain
    /// reachability index — no queue, no worker, no Dijkstra sweep.
    pub reach_fast_path: u64,
    /// Whether the published snapshot's reachability index is built —
    /// by a `connected` on this epoch, or kept from an earlier one by
    /// updates that left reachability alone.
    pub reach_index_built: bool,
    /// Aggregated plan/segment amortization across every micro-batch.
    pub batch: BatchStats,
    /// Jobs waiting in the submission queue right now.
    pub queue_depth: usize,
    /// The deepest the submission queue has ever been.
    pub queue_high_water: usize,
    /// The configured queue capacity (the shedding threshold).
    pub queue_capacity: usize,
    /// Admissions that had to wake a parked worker (a `futex` call each;
    /// the others found every worker busy or inside its yield window and
    /// cost the queue's mutex alone). Read beside `jobs`: near `jobs`
    /// the workers idle between requests, near 0 work reaches them
    /// before they park.
    pub handoff_wakes: u64,
    /// Replies — to reads and to updates — that had to wake their waiter
    /// because it had parked (after its yield window) before the reply
    /// arrived; the others were there when the client looked or arrived
    /// while it was still yielding.
    pub reply_parks: u64,
    /// Submissions shed because the queue was at capacity (each rejected
    /// admission attempt counts once; a blocking wrapper that backs off
    /// and retries can count several times for one job).
    pub queue_rejections: u64,
    /// Wall time since the server started.
    pub elapsed: Duration,
    /// Per-worker evaluation time (index = worker id).
    pub busy: Vec<Duration>,
    /// Writer-thread time per batch, from draining the batch to
    /// acknowledging it: the WAL append, the maintenance and the
    /// publication below, plus the fault hook and the reply hand-off.
    pub writer_busy: Duration,
    /// Writer time in WAL group commits (the buffered write and its
    /// fsync); zero without durability.
    pub writer_append: Duration,
    /// Writer time maintaining the working copy, update by update
    /// (`EngineSnapshot::maintain`).
    pub writer_maintain: Duration,
    /// Updates labelled `UpdateReport::full_recompute`: a crossing or
    /// disconnecting delete. Every delete takes the same repair (it
    /// re-closes the border skeleton from the sources it affects); the
    /// label splits out the deletes that usually affect many.
    pub writer_fallbacks: u64,
    /// The part of [`ServeStats::writer_maintain`] those updates took.
    pub writer_fallback: Duration,
    /// Writer time publishing: one O(sites) copy-on-write clone per
    /// batch that applied anything.
    pub writer_publish: Duration,
    /// Merged per-worker scratch-kernel reuse counters.
    pub scratch: ScratchStats,
    /// Request latency (submit → reply) percentiles.
    pub latency: LatencySummary,
    /// The served snapshot's site-subquery placement, by its backend
    /// name (`EngineConfig::mode`: "inline" or "site-threads").
    pub backend: &'static str,
    /// Which precompute strategy built (or last re-closed) the hub.
    pub strategy: PrecomputeStrategy,
    /// Times a worker was respawned by its supervisor after a panic.
    /// Every request of the doomed micro-batch resolved to
    /// [`ClosureError::WorkerFailed`] first — nothing hangs.
    pub worker_restarts: u64,
    /// Times the writer thread was respawned by its supervisor after a
    /// panic: the working copy is rebuilt from the last published
    /// snapshot and the write channel stays armed, so updates keep
    /// flowing. The in-flight updates of the doomed batch resolved to
    /// [`ClosureError::WriterRestarted`] (not applied — retry) first.
    pub writer_restarts: u64,
    /// Jobs shed at the worker because they sat queued past
    /// [`ServeConfig::deadline`] (each resolved to
    /// [`ClosureError::DeadlineExceeded`]).
    pub deadline_shed: u64,
    /// Requests abandoned *mid-evaluation* because the chain loop
    /// noticed the admission-stamped deadline had passed (each resolved
    /// to [`ClosureError::DeadlineExceeded`]). Distinct from
    /// [`ServeStats::deadline_shed`], which counts queue-time sheds that
    /// never started evaluating.
    pub deadline_cancelled: u64,
    /// Update records durably appended to the write-ahead log (0 when
    /// durability is off).
    pub wal_records: u64,
    /// WAL group commits: one buffered write + one fsync each,
    /// amortized across the writer's folded update batch
    /// (`wal_records / wal_commits` = achieved group-commit factor).
    pub wal_commits: u64,
    /// WAL appends or checkpoint writes that failed (I/O error, torn
    /// write, injected disk fault). Each failed append refused its whole
    /// batch with [`ClosureError::DurabilityFailed`] without applying
    /// anything; each failed checkpoint left the previous checkpoint +
    /// full log authoritative.
    pub wal_failures: u64,
    /// Checkpoints durably written (each prunes the log behind it).
    pub checkpoints: u64,
    /// `true` once the writer thread died: the server is read-only.
    /// Reads keep serving the last published epoch; updates are refused
    /// with [`ClosureError::WriterDown`].
    pub degraded: bool,
}

impl ServeStats {
    /// Aggregate request throughput since start.
    pub fn throughput_qps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.requests as f64 / self.elapsed.as_secs_f64()
    }

    /// Worker imbalance: max busy over mean busy (1.0 = balanced);
    /// the same measure bulk materialization reports per fragment.
    pub fn balance_ratio(&self) -> f64 {
        ds_obs::balance_ratio(&self.busy)
    }

    /// Fraction of requests answered without their own evaluation.
    pub fn coalesced_fraction(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.coalesced as f64 / self.requests as f64
        }
    }

    /// Fraction of cache probes that hit (0.0 when the cache is off or
    /// never probed).
    pub fn cache_hit_fraction(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }
}

impl std::fmt::Display for ServeStats {
    /// One-line summary, like `MaterializeStats`:
    /// `epoch 2 (4 workers, inline): 150 requests (120 evaluated, 20
    /// coalesced, 10 cached), 2 updates, p50 8.1us p99 40.2us, balance
    /// 1.10, 140 worker wakes/150 jobs, 145 reply parks`, with the WAL
    /// counts, the writer's per-update stage means and the
    /// degrade/restart/shed markers appended only when non-zero.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "epoch {} ({} workers, {}): {} requests ({} evaluated, {} coalesced, \
             {} cached), {} updates, p50 {:.1}us p99 {:.1}us, balance {:.2}",
            self.epoch,
            self.workers,
            self.backend,
            self.requests,
            self.evaluated,
            self.coalesced,
            self.cache_hits,
            self.updates,
            self.latency.p50_us,
            self.latency.p99_us,
            self.balance_ratio(),
        )?;
        write!(
            f,
            ", {} worker wakes/{} jobs, {} reply parks",
            self.handoff_wakes, self.jobs, self.reply_parks
        )?;
        if self.queue_rejections > 0 {
            write!(f, ", {} shed", self.queue_rejections)?;
        }
        if self.deadline_shed > 0 {
            write!(f, ", {} past deadline", self.deadline_shed)?;
        }
        if self.deadline_cancelled > 0 {
            write!(f, ", {} cancelled mid-eval", self.deadline_cancelled)?;
        }
        if self.wal_commits > 0 {
            write!(
                f,
                ", wal {} records/{} commits/{} checkpoints",
                self.wal_records, self.wal_commits, self.checkpoints
            )?;
        }
        if self.updates > 0 {
            let per_update = |d: Duration| d.as_secs_f64() * 1e6 / self.updates as f64;
            let maintain = self.writer_maintain.as_secs_f64();
            let fallback_share = if maintain > 0.0 {
                100.0 * self.writer_fallback.as_secs_f64() / maintain
            } else {
                0.0
            };
            write!(
                f,
                ", writer {:.1}us/update (append {:.1}, maintain {:.1} of which {:.0} % in {} \
                 fallbacks, publish {:.1})",
                per_update(self.writer_busy),
                per_update(self.writer_append),
                per_update(self.writer_maintain),
                fallback_share,
                self.writer_fallbacks,
                per_update(self.writer_publish),
            )?;
        }
        if self.wal_failures > 0 {
            write!(f, ", {} wal failures", self.wal_failures)?;
        }
        if self.worker_restarts > 0 {
            write!(f, ", {} worker restarts", self.worker_restarts)?;
        }
        if self.writer_restarts > 0 {
            write!(f, ", {} writer restarts", self.writer_restarts)?;
        }
        if self.degraded {
            write!(f, ", DEGRADED (read-only)")?;
        }
        Ok(())
    }
}

/// Every event the serve tier counts, each on one `ds_obs` cell with
/// one increment site. [`Server::stats`] reads these cells; when
/// [`ServeConfig::obs`] is armed the bundle's registry exports the very
/// same cells (summed with those of any other server sharing the
/// bundle), and when it is not they are freestanding — the hot path is
/// the same relaxed atomic op either way. Relaxed is enough: a count
/// publishes no other data, and a client that reads `stats()` after its
/// reply sees its batch counted because the worker counts before it
/// fills the reply slot and the slot's mutex — released by the worker
/// after the fill, taken by the client to read it — orders the two.
/// The two hand-off counters are incremented on the slow paths only (a
/// push or a reply that has to make the `futex` call), so the hot path
/// gains no atomic from them.
pub(crate) struct Metrics {
    pub(crate) requests: Counter,
    pub(crate) jobs: Counter,
    pub(crate) batches: Counter,
    pub(crate) evaluated: Counter,
    pub(crate) coalesced: Counter,
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    pub(crate) reach_fast_path: Counter,
    pub(crate) queue_rejections: Counter,
    pub(crate) handoff_wakes: Counter,
    pub(crate) reply_parks: Counter,
    pub(crate) deadline_shed: Counter,
    pub(crate) deadline_cancelled: Counter,
    pub(crate) worker_restarts: Counter,
    pub(crate) writer_restarts: Counter,
    pub(crate) updates: Counter,
    pub(crate) publications: Counter,
    pub(crate) wal_records: Counter,
    pub(crate) wal_commits: Counter,
    pub(crate) wal_failures: Counter,
    pub(crate) checkpoints: Counter,
    pub(crate) writer_busy_ns: Counter,
    pub(crate) writer_append_ns: Counter,
    pub(crate) writer_maintain_ns: Counter,
    pub(crate) writer_fallbacks: Counter,
    pub(crate) writer_fallback_ns: Counter,
    pub(crate) writer_publish_ns: Counter,
    /// Submit → reply, one sample per answered request.
    pub(crate) request_latency: HistogramHandle,
    pub(crate) epoch: Gauge,
    pub(crate) queue_depth: Gauge,
    /// One gauge per component of `EngineSnapshot::memory_bytes`, in
    /// `SnapshotBytes::components` order.
    pub(crate) snapshot_bytes: Vec<Gauge>,
}

impl Metrics {
    /// Mint the cells once at server start, from the armed bundle's
    /// registry or — disarmed — from a registry nobody keeps, which
    /// leaves them freestanding.
    pub(crate) fn new(obs: Option<&Observability>, epoch: u64) -> Self {
        let detached = MetricsRegistry::new();
        let r = obs.map_or(&detached, Observability::registry);
        let metrics = Metrics {
            requests: r.counter_cell("serve_requests"),
            jobs: r.counter_cell("serve_jobs"),
            batches: r.counter_cell("serve_batches"),
            evaluated: r.counter_cell("serve_evaluated"),
            coalesced: r.counter_cell("serve_coalesced"),
            cache_hits: r.counter_cell("serve_cache_hits"),
            cache_misses: r.counter_cell("serve_cache_misses"),
            reach_fast_path: r.counter_cell("serve_reach_fast_path"),
            queue_rejections: r.counter_cell("serve_queue_rejections"),
            handoff_wakes: r.counter_cell("serve_handoff_wakes"),
            reply_parks: r.counter_cell("serve_reply_parks"),
            deadline_shed: r.counter_cell("serve_deadline_shed"),
            deadline_cancelled: r.counter_cell("serve_deadline_cancelled"),
            worker_restarts: r.counter_cell("serve_worker_restarts"),
            writer_restarts: r.counter_cell("serve_writer_restarts"),
            updates: r.counter_cell("serve_updates"),
            publications: r.counter_cell("serve_publications"),
            wal_records: r.counter_cell("serve_wal_records"),
            wal_commits: r.counter_cell("serve_wal_commits"),
            wal_failures: r.counter_cell("serve_wal_failures"),
            checkpoints: r.counter_cell("serve_checkpoints"),
            writer_busy_ns: r.counter_cell("serve_writer_busy_ns"),
            writer_append_ns: r.counter_cell("serve_writer_append_ns"),
            writer_maintain_ns: r.counter_cell("serve_writer_maintain_ns"),
            writer_fallbacks: r.counter_cell("serve_writer_fallbacks"),
            writer_fallback_ns: r.counter_cell("serve_writer_fallback_ns"),
            writer_publish_ns: r.counter_cell("serve_writer_publish_ns"),
            request_latency: r.histogram_cell("request_latency_ns"),
            epoch: r.gauge("serve_epoch"),
            queue_depth: r.gauge("serve_queue_depth"),
            snapshot_bytes: SnapshotBytes::default()
                .components()
                .iter()
                .map(|(component, _)| r.gauge(&format!("serve_snapshot_{component}_bytes")))
                .collect(),
        };
        metrics.epoch.set(epoch);
        metrics
    }
}

pub(crate) fn add_batch_stats(into: &mut BatchStats, from: &BatchStats) {
    into.queries += from.queries;
    into.plans_computed += from.plans_computed;
    into.plans_reused += from.plans_reused;
    into.segments_computed += from.segments_computed;
    into.segments_reused += from.segments_reused;
}
