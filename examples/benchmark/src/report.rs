//! What a run produces: named metrics with units, the attempted/failed
//! counts, and free-form report lines — and how that is checked against
//! `BENCHMARK.json` and printed.

use std::collections::BTreeMap;

use crate::json::Json;

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// name -> (value, unit), end-to-end and per-layer alike.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Human-readable detail printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// One metric declaration of `BENCHMARK.json`.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
    pub workloads: Vec<String>,
    pub run_seconds: f64,
}

impl Spec {
    /// Read `BENCHMARK.json` from the current directory (the root of the
    /// checkout the benchmark is run from).
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let declared = |key: &str| -> Result<Vec<Declared>, String> {
            doc.get(key)
                .ok_or(format!("BENCHMARK.json: no `{key}`"))?
                .as_arr()
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("BENCHMARK.json: `{key}` entry without `{k}`"))
                    };
                    Ok(Declared {
                        name: field("name")?,
                        unit: field("unit")?,
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            end_to_end: declared("end_to_end")?,
            per_layer: declared("per_layer")?,
            workloads: doc
                .get("workloads")
                .map(|w| {
                    w.as_arr()
                        .iter()
                        .filter_map(|w| w.get("name").and_then(Json::as_str))
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
            run_seconds: doc.get("run_seconds").and_then(Json::as_f64).unwrap_or(0.0),
        })
    }
}

/// The driver's result line: exactly the declared metrics of this mode,
/// each with the declared unit. A metric the run did not produce, or
/// produced in another unit, is a bug in the benchmark: `Err`.
pub fn result_line(outcome: &Outcome, declared: &[Declared]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(declared.len());
    for d in declared {
        let (value, unit) = outcome.metrics.get(&d.name).ok_or(format!(
            "metric `{}` is declared but was not measured",
            d.name
        ))?;
        if *unit != d.unit {
            return Err(format!(
                "metric `{}` measured in {unit}, declared in {}",
                d.name, d.unit
            ));
        }
        if !value.is_finite() {
            return Err(format!("metric `{}` is not finite", d.name));
        }
        fields.push(format!(
            r#""{}": {{"value": {value}, "unit": "{unit}"}}"#,
            d.name
        ));
    }
    Ok(format!(
        r#"{{"correct": true, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}
