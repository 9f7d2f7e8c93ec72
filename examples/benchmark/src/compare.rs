//! `--compare a.jsonl b.jsonl`: two result files (written with `--out`),
//! compared per workload and end-to-end metric against the bounds in
//! `BENCHMARK.json`.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::report::{Declared, Spec};
use crate::stats::{median, spread};

/// workload -> trace flag -> metric -> one value per run.
type Runs = BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |k: &str| doc.get(k).ok_or(format!("{path}:{}: no `{k}`", n + 1));
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let traced = field("trace")?.as_f64() == Some(1.0);
        let metrics = field("result")?
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or(format!("{path}:{}: no metrics", n + 1))?;
        let slot = runs.entry((workload, traced)).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                slot.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// `--spread file`: per workload and end-to-end metric, the distance
/// between the first and third quartile of the runs in `file` as a share
/// of their median, against the metric's bound. `Ok(true)` when every
/// spread (set-up time excepted) is within its bound.
pub fn spread_report(spec: &Spec, path: &str) -> Result<bool, String> {
    let runs = load(path)?;
    let mut within = true;
    for workload in &spec.workloads {
        let Some(r) = runs.get(&(workload.clone(), false)) else {
            continue;
        };
        println!("{workload}");
        println!(
            "  {:<28} {:>14} {:>8} {:>7} {:>4}",
            "metric", "median", "spread", "bound", "n"
        );
        for d in &spec.end_to_end {
            let Some(v) = r.get(&d.name) else { continue };
            let (s, bound) = (spread(v), d.bound.unwrap_or(0.0));
            let mark = match () {
                _ if s > bound && d.name != "setup_s" => {
                    within = false;
                    "  EXCEEDS the bound"
                }
                _ if s > bound / 3.0 => "  above a third of the bound",
                _ => "",
            };
            println!(
                "  {:<28} {:>14.4} {:>7.1}% {:>6.0}% {:>4}{mark}",
                d.name,
                median(v),
                s * 100.0,
                bound * 100.0,
                v.len()
            );
        }
    }
    Ok(within)
}

/// Relative worsening of `b` against `a` (positive = worse).
fn worsening(d: &Declared, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else if d.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Prints the table; `Ok(true)` when nothing regressed or is unresolved.
pub fn run(spec: &Spec, a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut clean = true;
    for workload in &spec.workloads {
        let key = (workload.clone(), false);
        if let (Some(ra), Some(rb)) = (a.get(&key), b.get(&key)) {
            println!("{workload}  (end to end; a = {a_path}, b = {b_path})");
            println!(
                "  {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
                "metric", "median a", "median b", "worse by", "bound"
            );
            for d in &spec.end_to_end {
                let (Some(va), Some(vb)) = (ra.get(&d.name), rb.get(&d.name)) else {
                    continue;
                };
                let bound = d.bound.unwrap_or(0.0);
                let worse = worsening(d, median(va), median(vb));
                // A metric whose own run-to-run spread exceeds the bound
                // cannot be called unchanged.
                let verdict = if spread(va).max(spread(vb)) > bound {
                    "unresolved"
                } else if worse > bound {
                    "regressed"
                } else {
                    "ok"
                };
                clean &= verdict == "ok";
                println!(
                    "  {:<28} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {verdict} (n={}/{}, {})",
                    d.name,
                    median(va),
                    median(vb),
                    worse * 100.0,
                    bound * 100.0,
                    va.len(),
                    vb.len(),
                    d.unit
                );
            }
        }
        let key = (workload.clone(), true);
        if let (Some(ra), Some(rb)) = (a.get(&key), b.get(&key)) {
            println!("{workload}  (per layer, no bounds)");
            for d in &spec.per_layer {
                let (Some(va), Some(vb)) = (ra.get(&d.name), rb.get(&d.name)) else {
                    continue;
                };
                let (ma, mb) = (median(va), median(vb));
                let change = if ma == 0.0 {
                    0.0
                } else {
                    (mb - ma) / ma * 100.0
                };
                let same = if va == vb { "  identical" } else { "" };
                println!(
                    "  {:<36} {:>16.4} {:>16.4} {:>+8.1}% {}{same}",
                    d.name, ma, mb, change, d.unit
                );
            }
        }
    }
    Ok(clean)
}
