//! Order statistics for the report: medians, quartile spreads, and the
//! "median + highest percentile with at least ten samples beyond it"
//! summary every timing is printed with.

/// Linear-interpolated quantile of an ascending-sorted slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let (lo, frac) = (pos.floor() as usize, pos.fract());
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The fastest of repeated timings of one *identical* operation, for
/// per-layer timings that are not brought to the nominal machine speed:
/// interference only ever slows, so the minimum reports the undisturbed
/// speed as long as one repetition met it.
pub fn fastest(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartile by the "exclusive" method, which is what
/// Python's `statistics.quantiles(values, n=4)` computes and what the
/// acceptance rule for run-to-run spread is stated in.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    let (q1, q3) = quartiles_exclusive(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// `trace_overhead_fraction`: the share of the median untraced rate that
/// the median traced one falls short by.
pub fn traced_shortfall(untraced: &[f64], traced: &[f64]) -> f64 {
    1.0 - median(traced) / median(untraced)
}

/// One timing, summarised the way the README promises: the median, the
/// highest of p90/p99/p99.9/p99.99 that still has at least ten samples
/// beyond it, and the sample count.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
    /// `(percentile, value)` of the highest percentile with >= 10 samples
    /// beyond it; `None` below 100 samples.
    pub tail: Option<(f64, f64)>,
}

impl Timing {
    pub fn of(samples: &[f64]) -> Timing {
        let v = sorted(samples);
        let tail = [0.9999, 0.999, 0.99, 0.9]
            .into_iter()
            .find(|p| (v.len() as f64) * (1.0 - p) >= 10.0)
            .map(|p| (p * 100.0, quantile_sorted(&v, p)));
        Timing {
            count: v.len(),
            p50: quantile_sorted(&v, 0.5),
            p99: quantile_sorted(&v, 0.99),
            tail,
        }
    }
}

impl std::fmt::Display for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.1}", self.p50)?;
        if let Some((p, v)) = self.tail {
            write!(f, ", p{p} {v:.1}")?;
        }
        write!(f, " (n={})", self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(Timing::of(&v).tail.unwrap().0, 99.0);
        let v: Vec<f64> = (0..50).map(f64::from).collect();
        assert!(Timing::of(&v).tail.is_none());
    }
}
