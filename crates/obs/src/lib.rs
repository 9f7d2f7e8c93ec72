//! `ds_obs` — unified observability for every tier of the workspace:
//! a metrics registry, request tracing with a slow-query log, and a
//! workload recorder feeding future re-fragmentation.
//!
//! Like `ds_fault`, this crate is std-only and follows the same
//! arming idiom: each tier carries an `Option<Arc<Observability>>`.
//! Disarmed (`None`, the production default) the tracing, slow-query
//! and workload hooks are a single `Option` branch; a metric bump is
//! one relaxed atomic op either way. The three instruments share one
//! [`Observability`] bundle:
//!
//! * [`MetricsRegistry`] — named lock-free [`Counter`]s, [`Gauge`]s and
//!   atomic [`LatencyHistogram`]s, exported point-in-time as JSON or
//!   Prometheus text via [`MetricsSnapshot`]. The handles work the same
//!   freestanding, so a tier counts each event once, on one cell,
//!   armed or not — arming only decides whether a registry exports it;
//! * [`Tracer`] — [`TraceId`]s minted at serve admission and threaded
//!   through micro-batches, `run_batch` and writer publication, yielding per-request [`RequestTrace`] span
//!   sets plus a ring-buffered [`SlowQueryLog`];
//! * [`WorkloadRecorder`] — a sharded, bounded sketch of per-vertex-pair
//!   and per-fragment-pair query frequencies sampled from the serve hot
//!   path.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod histogram;
pub mod registry;
pub mod trace;
pub mod workload;

pub use histogram::LatencyHistogram;
pub use registry::{Counter, Gauge, HistogramHandle, MetricsRegistry, MetricsSnapshot};
pub use trace::{
    ChainEval, EvalTrace, RequestTrace, SlowQueryLog, SpanRecord, Stage, TraceId, TraceOutcome,
    Tracer,
};
pub use workload::{HotPair, WorkloadRecorder};

use std::sync::Arc;
use std::time::Duration;

/// Finished request traces the [`Tracer`] ring retains.
const TRACE_RING: usize = 1024;
/// Entries the [`SlowQueryLog`] ring retains. Its threshold is adaptive:
/// the interpolated p999 of the request-latency histogram.
const SLOW_RING: usize = 128;
/// Shards per [`WorkloadRecorder`] sketch, and distinct pairs per shard
/// before new pairs are dropped. Every request is sampled.
const WORKLOAD_SHARDS: usize = 16;
const WORKLOAD_PER_SHARD_CAP: usize = 4096;

/// The shared observability bundle one system (or test) arms across
/// its tiers: registry + tracer + slow-query log + workload recorder.
///
/// The bundle counts nothing itself: a tier mints its metrics from
/// [`Observability::registry`] and counts on them whether or not a
/// bundle is armed; what arming adds is the tracer, the slow-query log
/// and the workload recorder.
#[derive(Debug)]
pub struct Observability {
    registry: MetricsRegistry,
    tracer: Tracer,
    slow: SlowQueryLog,
    workload: WorkloadRecorder,
}

impl Observability {
    /// A bundle, ready to hand to `ServeConfig`/`MaterializeConfig`.
    pub fn armed() -> Arc<Self> {
        Arc::new(Observability {
            tracer: Tracer::new(TRACE_RING),
            slow: SlowQueryLog::new(SLOW_RING, None),
            workload: WorkloadRecorder::new(WORKLOAD_SHARDS, WORKLOAD_PER_SHARD_CAP, 1),
            registry: MetricsRegistry::new(),
        })
    }

    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    pub fn slow_queries(&self) -> &SlowQueryLog {
        &self.slow
    }

    pub fn workload(&self) -> &WorkloadRecorder {
        &self.workload
    }

    /// File one finished request: runs it past the slow-query log and
    /// retains the trace in the ring. `latency` is the histogram the
    /// caller recorded the request's latency on (once — filing a trace
    /// records no sample); the slow log's adaptive threshold reads its
    /// p999.
    pub fn record_request(&self, trace: RequestTrace, latency: &HistogramHandle) {
        self.slow.observe(&trace, latency);
        self.tracer.finish(trace);
    }

    /// Point-in-time export of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// Imbalance of a set of busy times: max over mean of the non-idle
/// entries, 1.0 for a perfectly balanced (or fully idle) set — the
/// workload-balance goal of §2.2 made measurable. The one definition
/// behind the serve tier's per-worker report and bulk materialization's
/// per-fragment report.
pub fn balance_ratio(busies: &[Duration]) -> f64 {
    let busies: Vec<f64> = busies
        .iter()
        .map(Duration::as_secs_f64)
        .filter(|&b| b > 0.0)
        .collect();
    if busies.is_empty() {
        return 1.0;
    }
    let max = busies.iter().cloned().fold(0.0, f64::max);
    let mean = busies.iter().sum::<f64>() / busies.len() as f64;
    max / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_ratio_of_equal_busy_times_is_one() {
        let busies = [Duration::from_millis(10); 2];
        assert!((balance_ratio(&busies) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn balance_ratio_detects_skew() {
        let busies = [Duration::from_millis(30), Duration::from_millis(10)];
        assert!(balance_ratio(&busies) > 1.4);
    }

    #[test]
    fn empty_or_idle_set_is_balanced() {
        assert_eq!(balance_ratio(&[]), 1.0);
        assert_eq!(balance_ratio(&[Duration::ZERO; 3]), 1.0);
        // Idle entries are left out of the mean, not averaged in.
        let one_busy = [Duration::from_millis(10), Duration::ZERO];
        assert_eq!(balance_ratio(&one_busy), 1.0);
    }

    #[test]
    fn record_request_feeds_the_slow_log_and_the_ring_but_no_sample() {
        let obs = Observability {
            slow: SlowQueryLog::new(SLOW_RING, Some(10_000)),
            ..Arc::into_inner(Observability::armed()).expect("sole owner")
        };
        let latency = obs.registry().histogram_cell("request_latency_ns");
        latency.record(50_000);
        let t = obs.tracer().mint();
        obs.record_request(
            RequestTrace {
                trace: t,
                source: 1,
                target: 2,
                epoch: 0,
                total_ns: 50_000, // 50us: over the 10us slow threshold
                outcome: TraceOutcome::Answered,
                spans: vec![SpanRecord {
                    trace: t,
                    stage: Stage::Evaluation,
                    start_ns: 0,
                    dur_ns: 50_000,
                }],
            },
            &latency,
        );
        assert_eq!(obs.tracer().len(), 1);
        assert_eq!(obs.slow_queries().len(), 1);
        let snap = obs.snapshot();
        let lat = snap.histogram("request_latency_ns").expect("registered");
        assert_eq!(lat.count(), 1, "filing the trace recorded no second sample");
        assert_eq!(lat.max_ns(), 50_000);
    }

    #[test]
    fn snapshot_includes_dynamic_registrations() {
        let obs = Observability::armed();
        obs.registry().counter("serve_requests_total").add(3);
        obs.registry().gauge("epoch").set(2);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("serve_requests_total"), Some(3));
        assert_eq!(snap.gauge("epoch"), Some(2));
        assert!(snap.to_prometheus().contains("serve_requests_total 3"));
        assert!(snap.to_json().contains("\"epoch\": 2"));
    }

    #[test]
    fn workload_flows_through_the_bundle() {
        let obs = Observability::armed();
        assert!(obs.workload().should_sample());
        obs.workload().record_vertex_pair(4, 7);
        obs.workload().record_fragment_pair(0, 1);
        assert_eq!(obs.workload().top_vertex_pairs(1)[0].count, 1);
        assert_eq!(obs.workload().top_fragment_pairs(1)[0].count, 1);
    }
}
