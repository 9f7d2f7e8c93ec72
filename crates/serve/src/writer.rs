//! The single writer: fold pending updates into one WAL group commit,
//! one maintenance pass over a private working copy and one publication;
//! redo a logged-but-unpublished suffix after a writer death.

use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ds_closure::api::NetworkUpdate;
use ds_closure::snapshot::EngineSnapshot;
use ds_closure::updates::UpdateReport;
use ds_closure::ClosureError;
use ds_fault::{lock_unpoisoned, FaultPoint};
use ds_graph::ScratchDijkstra;
use ds_obs::{RequestTrace, SpanRecord, Stage, TraceOutcome};

use crate::handoff::ReplySender;
use crate::server::{ServedUpdate, Shared};

/// Most pending updates the writer folds into one publication (and one
/// WAL group commit).
const WRITE_BATCH_MAX: usize = 16;

pub(crate) struct WriteJob {
    pub update: NetworkUpdate,
    pub reply: ReplySender<Result<ServedUpdate, ClosureError>>,
}

/// What one [`apply_and_publish`] did: the per-update maintenance
/// outcomes, and the time the maintenance and the publication took.
struct Applied {
    outcomes: Vec<Result<UpdateReport, ClosureError>>,
    maintain: Duration,
    publish: Duration,
}

/// Apply `updates` in order to `working` and, if any was effective,
/// publish the result once. The writer's batches and the WAL redo both
/// go through here, so an applied update and a publication are each
/// counted at one site.
fn apply_and_publish(
    shared: &Shared,
    working: &mut EngineSnapshot,
    scratch: &mut ScratchDijkstra,
    epoch: &mut u64,
    updates: &[NetworkUpdate],
) -> Applied {
    let maintain_t = Instant::now();
    // Readers build the reachability index in the published copy's
    // slot, not in `working`'s. While `working` still holds the
    // published graph, take that index along, so the keep rules of
    // `maintain` decide whether it survives this batch.
    working.adopt_reach(&shared.published.current().1);
    let mut applied = 0u64;
    let outcomes: Vec<_> = updates
        .iter()
        .map(|update| {
            let outcome = working.maintain(update, scratch);
            // Validation precedes mutation in the maintenance path, so
            // the working copy is unchanged on Err and exact on Ok. A
            // structural no-op (e.g. removing a connection that does not
            // exist) touches nothing and is answered at the current
            // epoch for free; every effective Ok advances the epoch — the
            // count `ds_durability::recover` arrives at from the log.
            if matches!(&outcome, Ok(r) if r.effective()) {
                applied += 1;
            }
            outcome
        })
        .collect();
    let maintain = maintain_t.elapsed();
    let publish_t = Instant::now();
    if applied > 0 {
        *epoch += applied;
        // No reachability index is built here: an update that could
        // have changed reachability emptied the working copy's slot, and
        // the epoch's first `connected` builds it — readers that never
        // ask never pay. Copy-on-write publication: readers on the
        // previous Arc finish undisturbed; new micro-batches pick up
        // this epoch.
        // The clone is O(sites) — every component of the working
        // snapshot is Arc-shared, and the maintenance above already
        // detached exactly the sites it touched, so this publication
        // shares everything else with the previous epoch. Publishing
        // also implicitly drops the per-epoch answer cache: entries
        // are keyed by epoch and lazily cleared on first contact
        // with the new one.
        shared.publish(*epoch, working.clone());
        shared.metrics.updates.add(applied);
    }
    Applied {
        outcomes,
        maintain,
        publish: publish_t.elapsed(),
    }
}

/// The single writer: drain pending updates (bounded), apply the shared
/// incremental maintenance to a private working copy, publish the
/// successor snapshot once, acknowledge every updater with the epoch at
/// which its change became visible.
pub(crate) fn writer_loop(
    shared: &Shared,
    mut working: EngineSnapshot,
    rx: &mpsc::Receiver<WriteJob>,
) {
    let m = &shared.metrics;
    let mut scratch = ScratchDijkstra::new();
    // Resume from the *published* epoch: on first entry that is 0, and
    // after a supervisor respawn (whose working copy was rebuilt from
    // the published snapshot) it is wherever the last publication left
    // the readers — epochs never repeat or rewind across writer deaths.
    let mut epoch = shared.published.epoch.load(Ordering::Acquire);
    while let Ok(first) = rx.recv() {
        let t0 = Instant::now();
        let mut jobs = vec![first];
        while jobs.len() < WRITE_BATCH_MAX {
            match rx.try_recv() {
                Ok(job) => jobs.push(job),
                Err(_) => break,
            }
        }
        // Fault hook, one firing per publication attempt: `Panic`
        // unwinds (writer death — the supervisor wrapper in
        // `Server::start` flips degraded mode and every waiter resolves
        // through its dropped reply sender); `Fail` refuses this batch
        // with a typed error and degrades without unwinding.
        if ds_fault::fire(&shared.fault, FaultPoint::ServeWriter) {
            shared.degraded.store(true, Ordering::SeqCst);
            for job in jobs {
                shared.reply(&job.reply, Err(ClosureError::WriterDown));
            }
            return;
        }
        let updates: Vec<NetworkUpdate> = jobs.iter().map(|j| j.update).collect();
        // Append-before-apply: the whole folded batch goes to the
        // write-ahead log as one group commit (one buffered write, one
        // fsync) before any update touches the working copy. A refused
        // append — I/O error, torn write, injected disk fault — fails
        // every job of the batch with a typed error and applies nothing:
        // the durable log never lags the acknowledged state. (An
        // injected `Panic` at a disk fault point unwinds here instead —
        // the supervisor respawns the writer and redoes any durable
        // suffix, see `redo_wal_suffix`.)
        let append_t = Instant::now();
        let wal_range = match &shared.store {
            Some(store) => match lock_unpoisoned(store).append_batch(epoch, &updates) {
                Ok(first) => {
                    let n = updates.len() as u64;
                    m.wal_records.add(n);
                    m.wal_commits.inc();
                    Some(first + n - 1)
                }
                Err(_) => {
                    m.wal_failures.inc();
                    for job in jobs {
                        shared.reply(&job.reply, Err(ClosureError::DurabilityFailed));
                    }
                    continue;
                }
            },
            None => None,
        };
        let append = append_t.elapsed();
        let before = epoch;
        let applied = apply_and_publish(shared, &mut working, &mut scratch, &mut epoch, &updates);
        if let Some(last) = wal_range {
            // The published state now reflects every logged record up to
            // `last` (no-ops and per-update errors included — replay
            // treats them identically): a respawn redoes nothing before
            // this point.
            shared.published_lsn.store(last, Ordering::SeqCst);
        }
        let busy = t0.elapsed();
        m.writer_busy_ns.add(busy.as_nanos() as u64);
        m.writer_append_ns.add(append.as_nanos() as u64);
        m.writer_maintain_ns.add(applied.maintain.as_nanos() as u64);
        m.writer_publish_ns.add(applied.publish.as_nanos() as u64);
        if let (Some(obs), true) = (&shared.obs, epoch > before) {
            // One writer trace per publication: maintenance and
            // publication spans land in the trace ring (never in the
            // request latency histogram — that is reads only).
            let tracer = obs.tracer();
            let trace = tracer.mint();
            let (busy_ns, publish_ns) = (busy.as_nanos() as u64, applied.publish.as_nanos() as u64);
            let end_ns = tracer.now_ns();
            tracer.finish(RequestTrace {
                trace,
                source: 0,
                target: 0,
                epoch,
                total_ns: busy_ns,
                outcome: TraceOutcome::Applied,
                spans: vec![
                    SpanRecord {
                        trace,
                        stage: Stage::WriterApply,
                        start_ns: end_ns.saturating_sub(busy_ns),
                        dur_ns: busy_ns.saturating_sub(publish_ns),
                    },
                    SpanRecord {
                        trace,
                        stage: Stage::Publication,
                        start_ns: end_ns.saturating_sub(publish_ns),
                        dur_ns: publish_ns,
                    },
                ],
            });
        }
        for (job, outcome) in jobs.into_iter().zip(applied.outcomes) {
            shared.reply(
                &job.reply,
                outcome.map(|report| ServedUpdate { report, epoch }),
            );
        }
        // Checkpoint *after* acknowledging the batch: a failed (or
        // fault-killed) checkpoint must never take acknowledged updates
        // down with it. Failure here is non-fatal to durability — the
        // previous checkpoint plus the full log still recover; the
        // threshold stays tripped so the next batch retries.
        if let Some(store) = &shared.store {
            let mut store = lock_unpoisoned(store);
            if store.should_checkpoint() {
                match store.checkpoint(&working, epoch) {
                    Ok(()) => m.checkpoints.inc(),
                    Err(_) => m.wal_failures.inc(),
                }
            }
        }
    }
}

/// Reconverge the published state with the durable log after a writer
/// death: replay every WAL record beyond [`Shared::published_lsn`] onto a
/// copy of the published snapshot and publish the result. These are
/// records the doomed writer group-committed but never applied/published
/// — their callers were told [`ClosureError::WriterRestarted`], yet the
/// records are durable, so a later [`ds_durability::recover`] *will*
/// replay them; the live state must agree. No-op when durability is off
/// or the suffix is empty (every clean start).
pub(crate) fn redo_wal_suffix(shared: &Shared) {
    let Some(store) = &shared.store else { return };
    let after = shared.published_lsn.load(Ordering::SeqCst);
    let suffix = match lock_unpoisoned(store).read_suffix(after) {
        Ok(suffix) => suffix,
        Err(_) => {
            shared.metrics.wal_failures.inc();
            return;
        }
    };
    let Some(last) = suffix.last() else { return };
    let (mut epoch, published) = shared.published.current();
    let mut working = (*published).clone();
    // The writer's own apply step: effective updates bump the epoch,
    // per-update errors are skipped (their callers already saw the
    // error).
    let updates: Vec<NetworkUpdate> = suffix.iter().map(|rec| rec.update).collect();
    apply_and_publish(
        shared,
        &mut working,
        &mut ScratchDijkstra::new(),
        &mut epoch,
        &updates,
    );
    shared.published_lsn.store(last.lsn, Ordering::SeqCst);
}
