//! Measurements every workload takes the same way: repeated timed calls,
//! peak memory, the materialization rate, and recovery from a durable
//! directory.

use std::path::Path;
use std::time::{Duration, Instant};

use discset::closure::EngineSnapshot;
use discset::durability::{DurabilityConfig, DurableStore};
use discset::graph::{CsrGraph, NodeId};
use discset::relation::{PathTuple, Relation};
use discset::{MaterializeConfig, MaterializeStats, System};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::check_first_answer;
use crate::pinned::*;
use crate::stats::median;

/// Call `f` until both `budget` has passed and `min_reps` calls were
/// made; returns each call's seconds and the last result.
pub fn repeat_for<T>(budget: Duration, min_reps: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let start = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        secs.push(t.elapsed().as_secs_f64());
        if secs.len() >= min_reps && start.elapsed() >= budget {
            return (secs, out);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seeded keyhole selection for the serve workloads' materialization.
pub fn keyhole_sources(nodes: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_50C5);
    let mut picked: Vec<NodeId> = (0..KEYHOLE_SOURCES)
        .map(|_| NodeId(rng.gen_index(nodes) as u32))
        .collect();
    picked.sort();
    picked.dedup();
    picked
}

pub struct Materialized {
    pub relation: Relation<PathTuple>,
    pub stats: MaterializeStats,
    /// Seconds per repetition as measured, and at the nominal machine
    /// speed (filled by `join`).
    pub secs: Vec<f64>,
    nominal_secs: Vec<f64>,
}

impl Materialized {
    pub fn tuples_per_s(&self) -> f64 {
        self.relation.len() as f64 / median(&self.nominal_secs)
    }

    /// File this round's repetitions, measured at machine speed `speed`,
    /// with the earlier rounds' in `all`.
    pub fn join(mut self, speed: f64, all: &mut Option<Materialized>) {
        self.nominal_secs = self.secs.iter().map(|s| s * speed).collect();
        match all {
            Some(earlier) => {
                earlier.secs.extend(self.secs);
                earlier.nominal_secs.extend(self.nominal_secs);
            }
            None => *all = Some(self),
        }
    }
}

/// `System::materialize_with(threads: 2)`, repeated for `budget`.
pub fn materialize(
    system: &System,
    sources: Option<Vec<NodeId>>,
    budget: Duration,
    min_reps: usize,
) -> Materialized {
    let (secs, (relation, stats)) = repeat_for(budget, min_reps, || {
        system
            .materialize_with(MaterializeConfig {
                threads: 2,
                sources: sources.clone(),
                ..MaterializeConfig::default()
            })
            .expect("unbounded rounds: the fixpoint terminates")
    });
    Materialized {
        relation,
        stats,
        secs,
        nominal_secs: Vec::new(),
    }
}

/// Write a durable image (initial checkpoint, empty log) of `snapshot`
/// into the fresh directory `dir`.
pub fn write_image(snapshot: &EngineSnapshot, epoch: u64, dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    DurableStore::attach(DurabilityConfig::at(dir), snapshot, epoch, None)
        .map(drop)
        .map_err(|e| format!("durable image at {}: {e}", dir.display()))
}

/// One recovery: `System::open(dir)` to the first correct answer, in
/// seconds, and the reopened system.
pub fn recover_once(dir: &Path, oracle_graph: &CsrGraph) -> Result<(f64, System), String> {
    let t = Instant::now();
    let mut system =
        System::open(dir).map_err(|e| format!("System::open({}): {e}", dir.display()))?;
    check_first_answer(oracle_graph, &mut system, "first answer after System::open")?;
    Ok((t.elapsed().as_secs_f64(), system))
}
