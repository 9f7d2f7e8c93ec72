//! The metrics registry: named, lock-free counters, gauges, and atomic
//! histograms, with point-in-time snapshot export as JSON and
//! Prometheus text exposition.
//!
//! The hot-path contract: a metric handle is an `Arc` around atomics,
//! so bumping it is a single relaxed atomic op. Handles are clonable
//! and detachable — a [`Counter`] works identically whether or not it
//! was minted through a registry, which lets a component count each
//! event once, on the very cell it exports. Counters and histograms
//! are sharded by thread, so a pool whose workers all count the same
//! events does not pass one cache line around.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::LatencyHistogram;

/// Shards per counter and per histogram, each on cache lines of its own.
const SHARDS: usize = 8;

/// The shard this thread counts on: threads take shards round-robin in
/// the order they first count, so the workers of a small pool land on
/// different ones. Sharing a shard is only slower, never wrong.
#[inline]
fn shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

#[derive(Debug, Default)]
#[repr(align(64))]
struct CounterShard(AtomicU64);

/// A monotonically increasing counter. Cloning shares the underlying
/// atomics; all operations are `Relaxed` — counters are statistics, not
/// synchronization.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<[CounterShard; SHARDS]>);

impl Counter {
    /// A freestanding counter, not attached to any registry.
    pub fn new() -> Self {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0[shard()].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The sum over the shards.
    pub fn get(&self) -> u64 {
        self.0.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// A point-in-time value (queue depth, current epoch, …). Same cost
/// model as [`Counter`]; `set` overwrites.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A freestanding gauge, not attached to any registry.
    pub fn new() -> Self {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Concurrent power-of-two-bucket histogram: the atomic twin of
/// [`LatencyHistogram`], sharded by recording thread. `record` is two
/// relaxed atomic adds plus a `fetch_max` on the thread's shard;
/// [`HistogramHandle::snapshot`] folds the shards back into the plain
/// mergeable form for quantile read-out.
#[derive(Debug)]
pub struct AtomicHistogram {
    shards: [HistogramShard; SHARDS],
}

#[derive(Debug)]
#[repr(align(64))]
struct HistogramShard {
    buckets: [AtomicU64; 64],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            shards: std::array::from_fn(|_| HistogramShard {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum_ns: AtomicU64::new(0),
                max_ns: AtomicU64::new(0),
            }),
        }
    }
}

impl AtomicHistogram {
    #[inline]
    fn record_n(&self, ns: u64, n: u64) {
        let shard = &self.shards[shard()];
        let idx = 63 - ns.max(1).leading_zeros() as usize;
        shard.buckets[idx].fetch_add(n, Ordering::Relaxed);
        shard
            .sum_ns
            .fetch_add(ns.saturating_mul(n), Ordering::Relaxed);
        shard.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for shard in &self.shards {
            merged.merge(&LatencyHistogram::from_parts(
                std::array::from_fn(|i| shard.buckets[i].load(Ordering::Relaxed)),
                shard.sum_ns.load(Ordering::Relaxed),
                shard.max_ns.load(Ordering::Relaxed),
            ));
        }
        merged
    }
}

/// Clonable handle on a shared [`AtomicHistogram`].
#[derive(Clone, Debug, Default)]
pub struct HistogramHandle(Arc<AtomicHistogram>);

impl HistogramHandle {
    /// A freestanding histogram, not attached to any registry.
    pub fn new() -> Self {
        HistogramHandle::default()
    }

    /// Record one nanosecond sample.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.0.record_n(ns, 1);
    }

    /// Record `n` samples of the same value (the requests of one job
    /// share its latency) for the price of one.
    #[inline]
    pub fn record_n(&self, ns: u64, n: u64) {
        self.0.record_n(ns, n);
    }

    /// Fold the atomics into a plain [`LatencyHistogram`] for quantile
    /// read-out. Concurrent recorders may land between bucket loads;
    /// the snapshot is internally consistent enough for statistics.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.0.snapshot()
    }
}

/// A counter or histogram name holds the shared get-or-create cell
/// (index 0) plus one cell per component that minted its own; the
/// export is their sum / merge.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Vec<Counter>),
    Gauge(Gauge),
    Histogram(Vec<HistogramHandle>),
}

/// Name → metric map. Registration is get-or-create: asking twice for
/// the same name returns handles on the same atomic, which is how
/// several workers share one counter. A component that must also read
/// back *its own* total (one serve tier among several sharing a bundle)
/// mints a cell instead ([`Self::counter_cell`],
/// [`Self::histogram_cell`]): it counts on that cell alone and the
/// export shows the sum over every cell of the name, so one increment
/// serves both views. Registration takes a lock; components therefore
/// mint handles once at startup and bump the lock-free handles on the
/// hot path.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get or create the counter named `name`. If the name is already
    /// taken by a different metric kind, a detached handle is returned
    /// (recorded values are then invisible to snapshots — a naming bug,
    /// not a crash).
    pub fn counter(&self, name: &str) -> Counter {
        match lock(&self.metrics)
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(vec![Counter::new()]))
        {
            Metric::Counter(cells) => cells[0].clone(),
            _ => Counter::new(),
        }
    }

    /// A fresh counter cell exported under `name`, summed with every
    /// other cell of that name (kind mismatch → detached, as for
    /// [`Self::counter`]). Cells live as long as the registry.
    pub fn counter_cell(&self, name: &str) -> Counter {
        let cell = Counter::new();
        if let Metric::Counter(cells) = lock(&self.metrics)
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(vec![Counter::new()]))
        {
            cells.push(cell.clone());
        }
        cell
    }

    /// Get or create the gauge named `name` (kind mismatch → detached,
    /// as for [`Self::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        match lock(&self.metrics)
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::new(),
        }
    }

    /// Get or create the histogram named `name` (kind mismatch →
    /// detached, as for [`Self::counter`]).
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        match lock(&self.metrics)
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(vec![HistogramHandle::new()]))
        {
            Metric::Histogram(cells) => cells[0].clone(),
            _ => HistogramHandle::new(),
        }
    }

    /// A fresh histogram cell exported under `name`, merged with every
    /// other cell of that name (see [`Self::counter_cell`]).
    pub fn histogram_cell(&self, name: &str) -> HistogramHandle {
        let cell = HistogramHandle::new();
        if let Metric::Histogram(cells) = lock(&self.metrics)
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(vec![HistogramHandle::new()]))
        {
            cells.push(cell.clone());
        }
        cell
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in lock(&self.metrics).iter() {
            match metric {
                Metric::Counter(cells) => snap
                    .counters
                    .push((name.clone(), cells.iter().map(Counter::get).sum())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Metric::Histogram(cells) => {
                    let mut merged = LatencyHistogram::new();
                    for cell in cells {
                        merged.merge(&cell.snapshot());
                    }
                    snap.histograms.push((name.clone(), merged));
                }
            }
        }
        snap
    }
}

/// A point-in-time export of a [`MetricsRegistry`]: all counters,
/// gauges, and histograms, sorted by name, renderable as JSON
/// ([`Self::to_json`]) or Prometheus text exposition
/// ([`Self::to_prometheus`]).
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)`, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, histogram)`, sorted by name.
    pub histograms: Vec<(String, LatencyHistogram)>,
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; everything else
/// becomes `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl MetricsSnapshot {
    /// Look up a counter by name (testing/scripting convenience).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Render as a JSON object (hand-rolled; the workspace is offline
    /// and dependency-free). Histograms export their aggregates and
    /// interpolated p50/p99/p999 rather than raw buckets.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", sanitize(name), v));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", sanitize(name), v));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"max_ns\": {}, \
                 \"mean_ns\": {:.1}, \"p50_ns\": {:.1}, \"p99_ns\": {:.1}, \"p999_ns\": {}}}",
                sanitize(name),
                h.count(),
                h.sum_ns(),
                h.max_ns(),
                h.mean_ns(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.p999_ns(),
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Render as Prometheus text exposition format. Counters become
    /// `counter`, gauges `gauge`, histograms `histogram` with
    /// cumulative power-of-two `le` buckets plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let buckets = h.buckets();
            let last = buckets.iter().rposition(|&c| c != 0);
            let mut cumulative = 0u64;
            if let Some(last) = last {
                for (i, &c) in buckets.iter().enumerate().take(last + 1) {
                    cumulative += c;
                    // Bucket i holds [2^i, 2^(i+1)): upper bound 2^(i+1).
                    let le = (1u128 << (i + 1)).to_string();
                    out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                }
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
            out.push_str(&format!("{name}_sum {}\n", h.sum_ns()));
            out.push_str(&format!("{name}_count {}\n", h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_the_atomic_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests");
        let b = reg.counter("requests");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("requests").get(), 3);
        let g = reg.gauge("depth");
        g.set(7);
        assert_eq!(reg.gauge("depth").get(), 7);
        let h = reg.histogram("lat");
        h.record(1000);
        assert_eq!(reg.histogram("lat").snapshot().count(), 1);
    }

    #[test]
    fn cells_count_apart_and_export_their_sum() {
        let reg = MetricsRegistry::new();
        let (a, b) = (reg.counter_cell("jobs"), reg.counter_cell("jobs"));
        a.add(2);
        b.add(5);
        assert_eq!((a.get(), b.get()), (2, 5), "each cell is its owner's total");
        reg.counter("jobs").inc(); // the shared handle is one more cell
        let (ha, hb) = (reg.histogram_cell("lat"), reg.histogram_cell("lat"));
        ha.record_n(1_000, 3);
        hb.record(9_000);
        assert_eq!(ha.snapshot().count(), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("jobs"), Some(8));
        let lat = snap.histogram("lat").expect("registered");
        assert_eq!(
            (lat.count(), lat.sum_ns(), lat.max_ns()),
            (4, 12_000, 9_000)
        );
        // A cell under a name of another kind is detached, never a panic.
        reg.gauge("g").set(1);
        reg.counter_cell("g").inc();
        assert_eq!(reg.snapshot().counter("g"), None);
    }

    #[test]
    fn kind_mismatch_detaches_instead_of_clobbering() {
        let reg = MetricsRegistry::new();
        reg.counter("x").inc();
        let g = reg.gauge("x"); // wrong kind: detached handle
        g.set(99);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x"), Some(1));
        assert_eq!(snap.gauge("x"), None);
    }

    #[test]
    fn snapshot_is_sorted_and_point_in_time() {
        let reg = MetricsRegistry::new();
        reg.counter("b").add(2);
        reg.counter("a").add(1);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a".to_string(), 1), ("b".to_string(), 2)]
        );
        reg.counter("a").add(10);
        assert_eq!(snap.counter("a"), Some(1), "snapshot does not move");
    }

    #[test]
    fn atomic_histogram_matches_plain_histogram() {
        let h = HistogramHandle::new();
        let mut plain = LatencyHistogram::new();
        for i in 1..500u64 {
            let ns = i * 313;
            h.record(ns);
            plain.record(ns);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), plain.count());
        assert_eq!(snap.sum_ns(), plain.sum_ns());
        assert_eq!(snap.max_ns(), plain.max_ns());
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(snap.quantile(q), plain.quantile(q));
        }
    }

    #[test]
    fn concurrent_recorders_lose_nothing() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = reg.counter("hits");
            let h = reg.histogram("lat");
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    c.inc();
                    h.record(i + 1);
                }
            }));
        }
        for t in handles {
            t.join().expect("recorder thread");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hits"), Some(4000));
        assert_eq!(snap.histogram("lat").map(|h| h.count()), Some(4000));
    }

    #[test]
    fn prometheus_export_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("serve.requests").add(5);
        reg.gauge("epoch").set(3);
        let h = reg.histogram("latency_ns");
        h.record(3); // bucket [2,4) → le=4
        h.record(1000);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE serve_requests counter"));
        assert!(text.contains("serve_requests 5"));
        assert!(text.contains("# TYPE epoch gauge\nepoch 3"));
        assert!(text.contains("latency_ns_bucket{le=\"4\"} 1"));
        assert!(text.contains("latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("latency_ns_sum 1003"));
        assert!(text.contains("latency_ns_count 2"));
        // Cumulative counts are non-decreasing in le order.
        let mut prev = 0u64;
        for line in text.lines().filter(|l| l.starts_with("latency_ns_bucket")) {
            let v: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|s| s.parse().ok())
                .expect("bucket count");
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn json_export_parses_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(1);
        reg.gauge("g").set(2);
        reg.histogram("h").record(100);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"c\": 1"));
        assert!(json.contains("\"g\": 2"));
        assert!(json.contains("\"count\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
