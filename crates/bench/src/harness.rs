//! A dependency-free micro-benchmark harness.
//!
//! The build environment is offline, so Criterion is unavailable; this
//! module provides the small subset the workspace's one bench needs:
//! warmup, automatic iteration calibration, repeated samples, robust
//! (median-based) reporting, and a JSON snapshot writer so perf results
//! can be committed and diffed across PRs.
//!
//! Bench targets use `harness = false` and a plain `main()`:
//!
//! ```no_run
//! use ds_bench::harness::{render, Bench};
//!
//! let mut bench = Bench::new("my-group");
//! bench.run("fast-thing", || 2 + 2);
//! println!("{}", render(bench.results()));
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark measurement.
#[derive(Clone, Debug)]
pub struct BenchResult {
    pub group: String,
    pub name: String,
    /// Iterations per sample after calibration.
    pub iters: u64,
    /// Samples taken.
    pub samples: usize,
    pub mean_ns: f64,
    pub median_ns: f64,
    pub min_ns: f64,
    pub max_ns: f64,
}

/// Collects measurements for one group of related benchmarks.
pub struct Bench {
    group: String,
    results: Vec<BenchResult>,
    /// Samples per benchmark (default 20).
    pub sample_count: usize,
    /// Target wall time per sample during calibration (default 10ms).
    pub sample_target: Duration,
}

impl Bench {
    pub fn new(group: &str) -> Self {
        Bench {
            group: group.to_string(),
            results: Vec::new(),
            sample_count: 20,
            sample_target: Duration::from_millis(10),
        }
    }

    /// Set the number of samples (builder style, like Criterion's
    /// `sample_size`).
    pub fn sample_size(mut self, samples: usize) -> Self {
        self.sample_count = samples.max(3);
        self
    }

    /// Measure `f`, which returns a value the optimizer must not discard.
    pub fn run<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &BenchResult {
        // Warmup + calibration: find an iteration count whose sample run
        // takes roughly `sample_target`.
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= self.sample_target || iters >= 1 << 20 {
                break;
            }
            let grow = if elapsed.is_zero() {
                16
            } else {
                (self.sample_target.as_secs_f64() / elapsed.as_secs_f64()).ceil() as u64
            };
            iters = (iters * grow.clamp(2, 16)).min(1 << 20);
        }

        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(self.sample_count);
        for _ in 0..self.sample_count {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.push_samples(name, iters, &per_iter_ns)
    }

    /// Record a pre-measured sample set under `name` — the hook seed
    /// sweeps use to publish one aggregate row (min / median / max across
    /// the per-seed medians) next to the per-seed rows.
    pub fn record(&mut self, name: &str, samples_ns: &[f64]) -> &BenchResult {
        assert!(!samples_ns.is_empty(), "record needs at least one sample");
        self.push_samples(name, 1, samples_ns)
    }

    fn push_samples(&mut self, name: &str, iters: u64, samples_ns: &[f64]) -> &BenchResult {
        let mut sorted = samples_ns.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median_ns = sorted[sorted.len() / 2];
        let mean_ns = sorted.iter().sum::<f64>() / sorted.len() as f64;
        let min_ns = sorted[0];
        let max_ns = *sorted.last().expect("non-empty");
        self.results.push(BenchResult {
            group: self.group.clone(),
            name: name.to_string(),
            iters,
            samples: sorted.len(),
            mean_ns,
            median_ns,
            min_ns,
            max_ns,
        });
        self.results.last().expect("just pushed")
    }

    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    pub fn into_results(self) -> Vec<BenchResult> {
        self.results
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Render results as an aligned text table.
pub fn render(results: &[BenchResult]) -> String {
    let mut out = String::new();
    let name_w = results
        .iter()
        .map(|r| r.group.len() + r.name.len() + 1)
        .max()
        .unwrap_or(10)
        .max(10);
    out.push_str(&format!(
        "{:<name_w$}  {:>12}  {:>12}  {:>12}  {:>12}  {:>9}\n",
        "benchmark", "median", "mean", "min", "max", "iters"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<name_w$}  {:>12}  {:>12}  {:>12}  {:>12}  {:>9}\n",
            format!("{}/{}", r.group, r.name),
            fmt_ns(r.median_ns),
            fmt_ns(r.mean_ns),
            fmt_ns(r.min_ns),
            fmt_ns(r.max_ns),
            r.iters,
        ));
    }
    out
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Serialize results as a JSON perf snapshot (no serde in this offline
/// workspace; the format is flat and hand-rolled).
pub fn to_json(results: &[BenchResult]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"group\": \"{}\", \"name\": \"{}\", \"iters\": {}, \"samples\": {}, \
             \"median_ns\": {:.3}, \"mean_ns\": {:.3}, \"min_ns\": {:.3}, \"max_ns\": {:.3}}}{}\n",
            json_escape(&r.group),
            json_escape(&r.name),
            r.iters,
            r.samples,
            r.median_ns,
            r.mean_ns,
            r.min_ns,
            r.max_ns,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push(']');
    out
}

/// Write the JSON snapshot to `path`.
pub fn write_json(path: &str, results: &[BenchResult]) -> std::io::Result<()> {
    std::fs::write(path, to_json(results))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut b = Bench::new("t").sample_size(3);
        b.sample_target = Duration::from_micros(200);
        let r = b.run("sum", || (0..100u64).sum::<u64>()).clone();
        assert!(r.median_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.max_ns);
        assert_eq!(r.samples, 3);
    }

    #[test]
    fn render_and_json_contain_names() {
        let mut b = Bench::new("grp").sample_size(3);
        b.sample_target = Duration::from_micros(100);
        b.run("thing", || 1u32);
        let table = render(b.results());
        assert!(table.contains("grp/thing"));
        let json = to_json(b.results());
        assert!(json.contains("\"name\": \"thing\""));
        assert!(json.contains("\"max_ns\""));
        assert!(json.starts_with('[') && json.ends_with(']'));
    }

    #[test]
    fn record_aggregates_premeasured_samples() {
        let mut b = Bench::new("agg").sample_size(3);
        let r = b.record("sweep", &[30.0, 10.0, 20.0]).clone();
        assert_eq!(r.min_ns, 10.0);
        assert_eq!(r.median_ns, 20.0);
        assert_eq!(r.max_ns, 30.0);
        assert_eq!(r.samples, 3);
    }
}
