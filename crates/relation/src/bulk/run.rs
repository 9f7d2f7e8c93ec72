//! What one materialization run takes and reports: its configuration,
//! its one error and its statistics. The run itself is
//! `ds_closure::EngineSnapshot::materialize`, which reads the epoch's
//! complementary information; these types stay here, beside the
//! partition the oracle runs on, so the facade, the closure crate and
//! the frozen benchmark share one vocabulary.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use ds_fault::{FaultPlan, FaultPoint};
use ds_graph::NodeId;

use crate::stats::TcStats;

/// Tuning knobs for one materialization run.
#[derive(Clone, Debug, Default)]
pub struct MaterializeConfig {
    /// Worker threads. `0` (the default) means `available_parallelism`;
    /// a phase never uses more workers than it has tasks, and `1` runs
    /// the same loop inline, without spawning.
    pub threads: usize,
    /// Restrict the closure to paths starting in this set (the §2.1
    /// keyhole selection). `None` materializes the full closure.
    /// Duplicates, ids outside the graph and nodes in no fragment are
    /// ignored; `Some(vec![])` is the empty relation.
    pub sources: Option<Vec<NodeId>>,
    /// Deterministic fault plan fired once per fragment task
    /// ([`FaultPoint::BulkWorker`]). `None` (the default) reduces the
    /// hook to a single branch.
    pub fault: Option<Arc<FaultPlan>>,
    /// Observability bundle (`ds_obs`): after a successful run the
    /// resulting [`MaterializeStats`] are mirrored into the metrics
    /// registry as `materialize_*` gauges
    /// ([`MaterializeStats::mirror_into`]). `None` (the default) skips
    /// the mirror entirely.
    pub obs: Option<Arc<ds_obs::Observability>>,
}

impl MaterializeConfig {
    /// Full closure on `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        MaterializeConfig {
            threads,
            ..Default::default()
        }
    }

    /// The worker count a run uses at most: [`MaterializeConfig::threads`],
    /// `0` read as `available_parallelism`.
    pub fn workers(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            t => t,
        }
    }

    /// Fire the fault hook of a task of `fragment`: `true` when the
    /// plan kills the task here.
    pub fn fault_fires(&self, fragment: usize) -> bool {
        ds_fault::fire(&self.fault, FaultPoint::BulkWorker { fragment })
    }
}

/// Errors of one materialization run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaterializeError {
    /// A worker panicked (or an injected fault killed it) while running
    /// a task of this fragment. The task counter is stopped, every
    /// worker joined, and the run aborted — the panic never crosses into
    /// the caller, and what the run left in the epoch's memos is exact,
    /// so a retry finishes the job.
    WorkerPanicked {
        /// The fragment whose task was being evaluated.
        fragment: usize,
    },
}

impl fmt::Display for MaterializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaterializeError::WorkerPanicked { fragment } => write!(
                f,
                "materialization worker panicked on fragment {fragment}; the run was aborted"
            ),
        }
    }
}

impl std::error::Error for MaterializeError {}

/// What one materialization run did.
#[derive(Clone, Debug, Default)]
pub struct MaterializeStats {
    /// Fragments in the partition.
    pub fragments: usize,
    /// Worker threads actually used.
    pub threads: usize,
    /// 1 for a run that wrote rows (there is no exchange round), 0 for
    /// an empty run.
    pub rounds: usize,
    /// Sweeps of the whole graph: 0, by construction.
    pub network_sweeps: usize,
    /// Sweeps of one fragment's own graph: the per-site fills of the
    /// exit sets (at most one per border of a site no call filled
    /// before), and the border-free rows and access sets of sources no
    /// earlier call or query of the epoch left behind.
    pub fragment_sweeps: usize,
    /// Whether this call built the epoch's hub.
    pub hub_built: bool,
    /// Sweeps of the border skeleton that built the hub: one per border
    /// when `hub_built`, else 0.
    pub hub_sweeps: usize,
    /// Wall time of the hub build (0 when it was already built).
    pub hub_time: Duration,
    /// Access and exit entries folded with the hub — §2.1's "very small
    /// relations": per source its access set, plus the exit set of every
    /// destination it was folded for.
    pub exchanged_tuples: usize,
    /// Result tuples `(s, d)`, `d ≠ s`, whose cost a path through the
    /// interior of `s`'s fragment alone decided: the border-free row of
    /// `s` reaches `d` at the final cost.
    pub kept_local: usize,
    /// Busy time per worker thread; [`MaterializeStats::balance_ratio`]
    /// says whether the threads finished together.
    pub busy: Vec<Duration>,
    /// Aggregate closure counters: `tuples_generated` is the candidates
    /// the folds offered (the product of each access set with the hub,
    /// one per exit entry, one per border-free row entry),
    /// `iterations` repeats `rounds`, `delta_sizes` holds the result
    /// tuples written.
    pub tc: TcStats,
}

impl MaterializeStats {
    /// Mirror the run's headline numbers into `registry` as
    /// `materialize_*` gauges — the registry-backed view of this
    /// struct. Gauges (not counters) because the struct owns the truth:
    /// a later run overwrites, never accumulates.
    pub fn mirror_into(&self, registry: &ds_obs::MetricsRegistry) {
        for (name, value) in [
            ("materialize_fragments", self.fragments),
            ("materialize_threads", self.threads),
            ("materialize_rounds", self.rounds),
            ("materialize_network_sweeps", self.network_sweeps),
            ("materialize_fragment_sweeps", self.fragment_sweeps),
            ("materialize_hub_sweeps", self.hub_sweeps),
            ("materialize_exchanged_tuples", self.exchanged_tuples),
            ("materialize_kept_local", self.kept_local),
            ("materialize_result_tuples", self.tc.result_tuples),
            ("materialize_generated_tuples", self.tc.tuples_generated),
        ] {
            registry.gauge(name).set(value as u64);
        }
    }

    /// Max over mean busy time of the worker threads — 1.0 is a
    /// perfectly balanced run ([`ds_obs::balance_ratio`], the measure the
    /// serve stats report per worker).
    pub fn balance_ratio(&self) -> f64 {
        ds_obs::balance_ratio(&self.busy)
    }
}

impl fmt::Display for MaterializeStats {
    /// One-line summary, e.g. `4 fragments / 2 threads: 1 rounds, hub
    /// built (17 skeleton sweeps, 0.04 ms), 0 + 58 sweeps, 3021 exchanged
    /// (412 kept local), balance 1.03; 1 iters, ...`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hub = if self.hub_built { "built" } else { "kept" };
        write!(
            f,
            "{} fragments / {} threads: {} rounds, hub {hub} ({} skeleton sweeps, {:.2} ms), {} + {} sweeps, {} exchanged ({} kept local), balance {:.2}; {}",
            self.fragments,
            self.threads,
            self.rounds,
            self.hub_sweeps,
            self.hub_time.as_secs_f64() * 1e3,
            self.network_sweeps,
            self.fragment_sweeps,
            self.exchanged_tuples,
            self.kept_local,
            self.balance_ratio(),
            self.tc
        )
    }
}
