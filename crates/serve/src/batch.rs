//! The worker side of a micro-batch: pin an epoch, coalesce, probe the
//! answer cache, evaluate the misses, count, trace and fan the answers
//! back out.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_closure::api::{BatchStats, QueryRequest};
use ds_closure::snapshot::EngineSnapshot;
use ds_closure::{ClosureError, QueryAnswer};
use ds_fault::lock_unpoisoned;
use ds_fragment::FragmentId;
use ds_graph::{NodeId, ScratchDijkstra};
use ds_obs::{EvalTrace, RequestTrace, SpanRecord, Stage, TraceId, TraceOutcome};

use crate::server::{QueryJob, ServedBatch, Shared};
use crate::stats::add_batch_stats;

/// Close every trace of a job that resolved to a typed failure instead
/// of an answer (deadline shed when `waited` is given, worker panic
/// otherwise), stamped — like an admission shed — with the epoch
/// published when it failed. Outcome-only: failed requests leave no
/// latency sample. No-op disarmed.
pub(crate) fn close_failed_traces(shared: &Shared, job: &QueryJob, waited: Option<Duration>) {
    let Some(obs) = &shared.obs else { return };
    let tracer = obs.tracer();
    let epoch = shared.published.epoch.load(Ordering::Acquire);
    for (r, &trace) in job.requests.iter().zip(&job.traces) {
        let wait_ns = waited.map_or(0, |w| w.as_nanos() as u64);
        let spans = match waited {
            Some(_) => vec![SpanRecord {
                trace,
                stage: Stage::QueueWait,
                start_ns: tracer.now_ns().saturating_sub(wait_ns),
                dur_ns: wait_ns,
            }],
            None => Vec::new(),
        };
        tracer.finish(RequestTrace {
            trace,
            source: r.source.index() as u64,
            target: r.target.index() as u64,
            epoch,
            total_ns: wait_ns,
            outcome: TraceOutcome::Failed,
            spans,
        });
    }
}

/// The isolated per-batch evaluation: pin a snapshot epoch, coalesce
/// identical requests, group the distinct ones by fragment pair,
/// evaluate through the shared batch kernel, fan the answers back out
/// per job.
pub(crate) fn process_batch(
    shared: &Shared,
    id: usize,
    jobs: &[QueryJob],
    scratch: &mut ScratchDijkstra,
    cached: &mut Option<(u64, Arc<EngineSnapshot>)>,
) {
    let t0 = Instant::now();
    let obs = shared.obs.as_ref();
    // Tracing context: the batch start on the tracer clock, and each
    // job's queue wait (admission → drain) — the QueueWait span.
    let batch_start_ns = obs.map_or(0, |o| o.tracer().now_ns());
    let waits: Vec<u64> = match obs {
        Some(_) => jobs
            .iter()
            .map(|j| j.submitted.elapsed().as_nanos() as u64)
            .collect(),
        None => Vec::new(),
    };
    let (epoch, snap) = {
        let pair = shared.published.pin(cached);
        (pair.0, &pair.1)
    };

    // Coalesce: identical (source, target) pairs across the whole
    // micro-batch are evaluated once (single-flight). The first
    // occurrence's trace id becomes the slot's *primary* trace — the
    // one the evaluation spans are attributed to; later occurrences
    // get a `Coalesced` marker span.
    let mut distinct: Vec<QueryRequest> = Vec::new();
    let mut distinct_traces: Vec<TraceId> = Vec::new();
    // Per distinct slot, the *latest* admission time among the jobs
    // sharing it (tracked only when a deadline is configured): the
    // in-evaluation deadline check keeps evaluating while any
    // interested job is still within its deadline.
    let mut slot_submitted: Vec<Instant> = Vec::new();
    let mut index: HashMap<(NodeId, NodeId), u32> = HashMap::new();
    let mut slots: Vec<Vec<u32>> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let mut js = Vec::with_capacity(job.requests.len());
        for (ri, r) in job.requests.iter().enumerate() {
            let slot = match index.get(&(r.source, r.target)) {
                Some(&slot) => {
                    if shared.deadline.is_some() {
                        let s = &mut slot_submitted[slot as usize];
                        *s = (*s).max(job.submitted);
                    }
                    slot
                }
                None => {
                    let slot = distinct.len() as u32;
                    index.insert((r.source, r.target), slot);
                    distinct.push(*r);
                    distinct_traces.push(job.traces.get(ri).copied().unwrap_or(TraceId::NONE));
                    if shared.deadline.is_some() {
                        slot_submitted.push(job.submitted);
                    }
                    slot
                }
            };
            js.push(slot);
        }
        slots.push(js);
    }
    let total_requests: usize = slots.iter().map(Vec::len).sum();
    let coalesced = (total_requests - distinct.len()) as u64;

    // Probe the per-epoch answer cache: a distinct request already
    // answered at this epoch (by any worker, in any earlier
    // micro-batch) skips evaluation entirely. The cache key includes
    // the pinned epoch, so a hit is exactly as consistent as an
    // evaluated answer.
    let mut answers_by_slot: Vec<Option<QueryAnswer>> = vec![None; distinct.len()];
    let mut miss: Vec<u32> = Vec::with_capacity(distinct.len());
    let mut cache_hits = 0u64;
    if let Some(cache) = &shared.cache {
        for (i, r) in distinct.iter().enumerate() {
            match cache.get(epoch, (r.source, r.target)) {
                Some(a) => {
                    answers_by_slot[i] = Some(a);
                    cache_hits += 1;
                }
                None => miss.push(i as u32),
            }
        }
    } else {
        miss.extend(0..distinct.len() as u32);
    }
    let cache_misses = if shared.cache.is_some() {
        miss.len() as u64
    } else {
        0
    };
    // Which slots the cache answered (set before evaluation fills the
    // rest) — those requests get a `CacheHit` span.
    let cached_slots: Vec<bool> = match obs {
        Some(_) => answers_by_slot.iter().map(Option::is_some).collect(),
        None => Vec::new(),
    };

    // Group the remaining misses by fragment pair. The sharing itself
    // is order-independent (chain sets come from the planner's table,
    // interior segments from the snapshot's hub); the sort makes
    // same-pair queries evaluate back-to-back while their hub blocks are
    // CPU-cache-hot, and makes a batch's evaluation order
    // independent of client arrival interleaving.
    let planner = snap.planner();
    // Workload recorder: sampled per *request* (not per distinct slot —
    // hot duplicates are exactly the signal), one vertex pair and one
    // fragment pair each. `should_sample` is a single relaxed
    // fetch_add.
    if let Some(o) = obs {
        let w = o.workload();
        for job in jobs {
            for r in &job.requests {
                if w.should_sample() {
                    w.record_vertex_pair(r.source.index() as u64, r.target.index() as u64);
                    let fs = planner.fragments_of(r.source);
                    let ft = planner.fragments_of(r.target);
                    if let (Some(&a), Some(&b)) = (fs.first(), ft.first()) {
                        w.record_fragment_pair(a as u64, b as u64);
                    }
                }
            }
        }
    }
    let keys: Vec<(&[FragmentId], &[FragmentId])> = miss
        .iter()
        .map(|&i| {
            let r = &distinct[i as usize];
            (
                planner.fragments_of(r.source),
                planner.fragments_of(r.target),
            )
        })
        .collect();
    let mut order: Vec<u32> = (0..miss.len() as u32).collect();
    order.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
    let sorted: Vec<QueryRequest> = order
        .iter()
        .map(|&k| distinct[miss[k as usize] as usize])
        .collect();

    // `eval_traces[j]` carries the per-chain timing of `sorted[j]`;
    // `slot_eval` maps a distinct slot back to that index.
    let mut eval_traces: Vec<EvalTrace> = Vec::new();
    let mut slot_eval: Vec<Option<u32>> = match obs {
        Some(_) => vec![None; distinct.len()],
        None => Vec::new(),
    };
    let batch_stats = if sorted.is_empty() {
        BatchStats::default()
    } else {
        // Each sorted request carries its slot's absolute deadline so
        // the batch kernel can abandon a pathological evaluation at
        // the next chain boundary (cooperative cancellation).
        let sorted_deadlines: Vec<Option<Instant>> = match shared.deadline {
            None => Vec::new(),
            Some(d) => order
                .iter()
                .map(|&k| Some(slot_submitted[miss[k as usize] as usize] + d))
                .collect(),
        };
        let batch = match obs {
            Some(_) => {
                let sorted_traces: Vec<TraceId> = order
                    .iter()
                    .map(|&k| distinct_traces[miss[k as usize] as usize])
                    .collect();
                snap.query_batch_bounded(
                    &sorted,
                    scratch,
                    &sorted_traces,
                    Some(&mut eval_traces),
                    &sorted_deadlines,
                )
            }
            None => snap.query_batch_bounded(&sorted, scratch, &[], None, &sorted_deadlines),
        };
        for (j, (&k, a)) in order.iter().zip(batch.answers).enumerate() {
            let slot = miss[k as usize] as usize;
            if obs.is_some() {
                slot_eval[slot] = Some(j as u32);
            }
            // A `None` answer is a request cancelled mid-evaluation at
            // its deadline: leave the slot unanswered (the fan-out
            // resolves it with `DeadlineExceeded`) and cache nothing.
            if let Some(a) = a {
                if let Some(cache) = &shared.cache {
                    let r = &distinct[slot];
                    cache.insert(epoch, (r.source, r.target), &a);
                }
                answers_by_slot[slot] = Some(a);
            }
        }
        batch.stats
    };
    let busy = t0.elapsed();

    // Count before fanning out: a blocking client that reads `stats()`
    // right after its reply must already see this batch accounted for.
    // Latency is submit → reply (well, the instant before the send),
    // recorded per request so percentiles weight by traffic.
    let m = &shared.metrics;
    m.jobs.add(jobs.len() as u64);
    m.requests.add(total_requests as u64);
    m.batches.inc();
    m.evaluated.add(sorted.len() as u64);
    m.coalesced.add(coalesced);
    m.cache_hits.add(cache_hits);
    m.cache_misses.add(cache_misses);
    for (job, js) in jobs.iter().zip(&slots) {
        m.request_latency
            .record_n(job.submitted.elapsed().as_nanos() as u64, js.len() as u64);
    }
    {
        let mut log = lock_unpoisoned(&shared.worker_logs[id]);
        log.busy += busy;
        add_batch_stats(&mut log.batch, &batch_stats);
        log.scratch = scratch.stats();
    }

    // Per-request trace assembly (armed only; the whole block is one
    // `Option` branch when disarmed). Runs before the fan-out for the
    // same reason the counting does: a client that inspects the trace
    // ring right after its reply sees its own trace.
    if let Some(o) = obs {
        // A sample of the queue lock, taken only where a registry can
        // show it (`ServeStats::queue_depth` asks the queue itself).
        m.queue_depth.set(shared.queue.depth() as u64);
        for (ji, (job, js)) in jobs.iter().zip(&slots).enumerate() {
            for (ri, &slot) in js.iter().enumerate() {
                let slot = slot as usize;
                let trace = job.traces.get(ri).copied().unwrap_or(TraceId::NONE);
                let r = &job.requests[ri];
                let wait_ns = waits[ji];
                let mut spans = vec![SpanRecord {
                    trace,
                    stage: Stage::QueueWait,
                    start_ns: batch_start_ns.saturating_sub(wait_ns),
                    dur_ns: wait_ns,
                }];
                if cached_slots[slot] {
                    spans.push(SpanRecord {
                        trace,
                        stage: Stage::CacheHit,
                        start_ns: batch_start_ns,
                        dur_ns: 0,
                    });
                } else if distinct_traces[slot] == trace {
                    // The slot's primary request carries the evaluation
                    // and per-chain segment spans.
                    if let Some(j) = slot_eval[slot] {
                        let et = &eval_traces[j as usize];
                        spans.push(SpanRecord {
                            trace,
                            stage: Stage::Evaluation,
                            start_ns: batch_start_ns,
                            dur_ns: et.eval_ns,
                        });
                        for c in &et.chains {
                            spans.push(SpanRecord {
                                trace,
                                stage: Stage::ChainSegment { chain: c.chain },
                                start_ns: batch_start_ns,
                                dur_ns: c.ns,
                            });
                        }
                    }
                } else {
                    spans.push(SpanRecord {
                        trace,
                        stage: Stage::Coalesced,
                        start_ns: batch_start_ns,
                        dur_ns: 0,
                    });
                }
                let filed = RequestTrace {
                    trace,
                    source: r.source.index() as u64,
                    target: r.target.index() as u64,
                    epoch,
                    total_ns: job.submitted.elapsed().as_nanos() as u64,
                    outcome: match &answers_by_slot[slot] {
                        Some(a) if a.cost.is_some() => TraceOutcome::Answered,
                        Some(_) => TraceOutcome::Unreachable,
                        // Cancelled mid-evaluation at the deadline.
                        None => TraceOutcome::Shed,
                    },
                    spans,
                };
                o.record_request(filed, &m.request_latency);
            }
        }
    }

    for (job, js) in jobs.iter().zip(&slots) {
        // A job touching any slot cancelled mid-evaluation resolves
        // with `DeadlineExceeded` — distinct from the queue-time shed
        // in `worker_loop`, and counted separately
        // ([`ServeStats::deadline_cancelled`]).
        if js
            .iter()
            .any(|&slot| answers_by_slot[slot as usize].is_none())
        {
            let waited = job.submitted.elapsed();
            m.deadline_cancelled.inc();
            shared.reply(&job.reply, Err(ClosureError::DeadlineExceeded { waited }));
            continue;
        }
        let answers: Vec<QueryAnswer> = js
            .iter()
            .map(|&slot| match &answers_by_slot[slot as usize] {
                Some(a) => a.clone(),
                None => unreachable!("cancelled jobs resolved above"),
            })
            .collect();
        shared.reply(&job.reply, Ok(ServedBatch { answers, epoch }));
    }
}
