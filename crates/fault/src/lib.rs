//! Deterministic fault injection for the threaded subsystems, plus the
//! poison-tolerant lock helpers the supervisors rely on.
//!
//! Every threaded tier of the workspace — the serve worker pool, the
//! serve writer, the bulk materialize pool — carries an `Option<Arc<FaultPlan>>` and calls [`fire`] at a small set
//! of named [`FaultPoint`]s. With no plan armed (`None`, the production
//! configuration) a hook is a single branch on an `Option` — no
//! atomics, no locks, nothing to configure out with `cfg`. With a plan
//! armed, the plan counts occurrences per point and, when a rule's
//! occurrence number comes up, injects the failure:
//!
//! * [`FaultAction::Panic`] — `panic!` at the hook, exercising the
//!   caller's `catch_unwind` isolation and supervisor respawn path;
//! * [`FaultAction::Delay`] — sleep at the hook, exercising deadlines
//!   and timeout-based failure detection;
//! * [`FaultAction::Fail`] — [`fire`] returns `true` and the caller
//!   turns it into its own typed error, exercising error propagation
//!   without an unwind.
//!
//! Plans are deterministic: a rule fires at an exact per-point
//! occurrence count, and each rule fires at most once, so a supervised
//! component that restarts after an injected failure is *not* killed
//! again — which is exactly what lets the chaos suite assert recovery.
//! [`FaultScenario::from_seed`] derives a single-fault scenario from a
//! seed so a test can sweep seeds and cover every scenario kind without
//! enumerating them by hand.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Lock a mutex, recovering the guard if a panicking peer poisoned it.
///
/// Poisoning is advisory: every shared structure in this workspace keeps
/// its invariants across panics (counters, queues of owned jobs, caches
/// of immutable answers), because the panic sites are either injected
/// fault hooks or evaluation code that never holds these locks. A worker
/// panic must therefore not cascade into unrelated readers of the same
/// queue or cache.
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`lock_unpoisoned`].
pub fn wait_unpoisoned<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// A named hook location. The variants carry the component index so a
/// plan can target "worker 2" or "fragment 0" specifically; the occurrence
/// counter is kept per distinct `FaultPoint` value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// A serve worker about to evaluate one micro-batch job.
    ServeWorker { worker: usize },
    /// The serve writer about to publish an epoch.
    ServeWriter,
    /// A bulk materialize worker about to run one fragment round.
    BulkWorker { fragment: usize },
    /// The durable store about to append a group-committed WAL batch.
    WalAppend,
    /// The durable store about to fsync the WAL after an append.
    WalSync,
    /// The durable store about to write a checkpoint image.
    CheckpointWrite,
}

/// What an armed rule injects when its occurrence comes up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// `panic!` at the hook (the component dies mid-flight).
    Panic,
    /// Sleep at the hook, then proceed normally.
    Delay(Duration),
    /// Report an injected failure to the caller ([`fire`] returns
    /// `true`); the caller maps it to its own typed error.
    Fail,
    /// Disk-point only: a short write — the first `keep` bytes of the
    /// attempted write reach the medium, the rest are lost (a torn
    /// record). At non-disk points this behaves like [`FaultAction::Fail`].
    Torn { keep: usize },
}

/// What a disk fault hook ([`fire_disk`]) injects into an I/O attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// The whole operation fails with an injected I/O error; no bytes
    /// reach the medium.
    Error,
    /// A short write: only the first `keep` bytes of the attempt land on
    /// the medium before the "crash" — the classic torn record.
    Torn { keep: usize },
}

#[derive(Debug)]
struct Rule {
    point: FaultPoint,
    /// Fire on the `nth` occurrence of `point` (1-based).
    nth: u64,
    action: FaultAction,
    /// Rules are one-shot so a respawned component survives.
    fired: std::sync::atomic::AtomicBool,
}

/// A deterministic, seed-friendly set of fault rules shared (via `Arc`)
/// with every thread of the component under test.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<Rule>,
    counts: Mutex<HashMap<FaultPoint, u64>>,
    fired: AtomicU64,
}

impl FaultPlan {
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Panic at the `nth` occurrence of `point`.
    pub fn panic_at(self, point: FaultPoint, nth: u64) -> Self {
        self.rule(point, nth, FaultAction::Panic)
    }

    /// Sleep `delay` at the `nth` occurrence of `point`.
    pub fn delay_at(self, point: FaultPoint, nth: u64, delay: Duration) -> Self {
        self.rule(point, nth, FaultAction::Delay(delay))
    }

    /// Report an injected failure at the `nth` occurrence of `point`.
    pub fn fail_at(self, point: FaultPoint, nth: u64) -> Self {
        self.rule(point, nth, FaultAction::Fail)
    }

    /// Tear the `nth` write at `point` after `keep` bytes (disk points).
    pub fn torn_at(self, point: FaultPoint, nth: u64, keep: usize) -> Self {
        self.rule(point, nth, FaultAction::Torn { keep })
    }

    fn rule(mut self, point: FaultPoint, nth: u64, action: FaultAction) -> Self {
        self.rules.push(Rule {
            point,
            nth: nth.max(1),
            action,
            fired: std::sync::atomic::AtomicBool::new(false),
        });
        self
    }

    /// Count one occurrence of `point` and inject any matching rule.
    /// Returns `true` when the caller must fail (a [`FaultAction::Fail`]
    /// rule fired); panics from the hook on [`FaultAction::Panic`].
    pub fn fire(&self, point: FaultPoint) -> bool {
        let n = {
            let mut counts = lock_unpoisoned(&self.counts);
            let n = counts.entry(point).or_insert(0);
            *n += 1;
            *n
        };
        let mut must_fail = false;
        let mut delay: Option<Duration> = None;
        let mut panic_now = false;
        for rule in &self.rules {
            if rule.point != point || rule.nth != n {
                continue;
            }
            if rule.fired.swap(true, Ordering::SeqCst) {
                continue;
            }
            self.fired.fetch_add(1, Ordering::SeqCst);
            match rule.action {
                FaultAction::Panic => panic_now = true,
                FaultAction::Delay(d) => delay = Some(d),
                FaultAction::Fail | FaultAction::Torn { .. } => must_fail = true,
            }
        }
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
        if panic_now {
            panic!("injected fault: {point:?} occurrence {n}");
        }
        must_fail
    }

    /// Count one occurrence of a *disk* `point` and inject any matching
    /// rule as a [`DiskFault`]. [`FaultAction::Panic`] panics before any
    /// bytes are written (the process dies at the fault point);
    /// [`FaultAction::Delay`] sleeps then proceeds; [`FaultAction::Fail`]
    /// maps to [`DiskFault::Error`] and [`FaultAction::Torn`] to
    /// [`DiskFault::Torn`]. Rules stay one-shot.
    pub fn fire_disk(&self, point: FaultPoint) -> Option<DiskFault> {
        let n = {
            let mut counts = lock_unpoisoned(&self.counts);
            let n = counts.entry(point).or_insert(0);
            *n += 1;
            *n
        };
        let mut injected: Option<DiskFault> = None;
        let mut delay: Option<Duration> = None;
        let mut panic_now = false;
        for rule in &self.rules {
            if rule.point != point || rule.nth != n {
                continue;
            }
            if rule.fired.swap(true, Ordering::SeqCst) {
                continue;
            }
            self.fired.fetch_add(1, Ordering::SeqCst);
            match rule.action {
                FaultAction::Panic => panic_now = true,
                FaultAction::Delay(d) => delay = Some(d),
                FaultAction::Fail => injected = Some(DiskFault::Error),
                FaultAction::Torn { keep } => injected = Some(DiskFault::Torn { keep }),
            }
        }
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
        if panic_now {
            panic!("injected disk fault: {point:?} occurrence {n}");
        }
        injected
    }

    /// Rules that have fired so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }

    /// `true` once every rule has fired — the recovery phase of a chaos
    /// run, where the component must behave normally again.
    pub fn exhausted(&self) -> bool {
        self.fired() >= self.rules.len() as u64
    }

    /// Number of rules in the plan.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }
}

/// Fire a hook against an optionally armed plan. The disarmed path is a
/// single `Option` branch — this is the production fast path.
#[inline]
pub fn fire(plan: &Option<Arc<FaultPlan>>, point: FaultPoint) -> bool {
    match plan {
        None => false,
        Some(p) => p.fire(point),
    }
}

/// Fire a disk hook against an optionally armed plan. Disarmed: one
/// `Option` branch, no counting — the production write path.
#[inline]
pub fn fire_disk(plan: &Option<Arc<FaultPlan>>, point: FaultPoint) -> Option<DiskFault> {
    match plan {
        None => None,
        Some(p) => p.fire_disk(point),
    }
}

/// The component universe a seed-derived scenario targets.
#[derive(Clone, Copy, Debug)]
pub struct FaultUniverse {
    /// Serve workers in the pool.
    pub workers: usize,
    /// Bulk materialize fragments.
    pub fragments: usize,
}

/// A single-fault scenario, derivable from a seed. The chaos suite
/// sweeps seeds; each seed yields one deterministic fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultScenario {
    /// Panic serve worker `worker` at its `job`th micro-batch.
    WorkerPanic { worker: usize, job: u64 },
    /// Kill the serve writer at its `publication`th publication.
    WriterKill { publication: u64 },
    /// Delay every component's early occurrences by `millis` ms.
    DelayStorm { millis: u64 },
}

/// SplitMix64 — tiny, deterministic, dependency-free.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl FaultScenario {
    /// Derive the scenario for `seed`. Consecutive seeds rotate through
    /// the scenario kinds, so any sweep of ≥ 3 seeds covers all of them.
    pub fn from_seed(seed: u64, universe: &FaultUniverse) -> FaultScenario {
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(1);
        let r0 = splitmix(&mut s);
        let r1 = splitmix(&mut s);
        match seed % 3 {
            0 => FaultScenario::WorkerPanic {
                worker: (r0 as usize) % universe.workers.max(1),
                job: 1 + r1 % 4,
            },
            1 => FaultScenario::WriterKill {
                publication: 1 + r1 % 3,
            },
            _ => FaultScenario::DelayStorm {
                millis: 1 + r1 % 10,
            },
        }
    }

    /// Build the plan realizing this scenario.
    pub fn plan(&self, universe: &FaultUniverse) -> FaultPlan {
        match *self {
            FaultScenario::WorkerPanic { worker, job } => {
                FaultPlan::new().panic_at(FaultPoint::ServeWorker { worker }, job)
            }
            FaultScenario::WriterKill { publication } => {
                FaultPlan::new().panic_at(FaultPoint::ServeWriter, publication)
            }
            FaultScenario::DelayStorm { millis } => {
                let d = Duration::from_millis(millis);
                let mut plan = FaultPlan::new().delay_at(FaultPoint::ServeWriter, 1, d);
                for worker in 0..universe.workers {
                    plan = plan
                        .delay_at(FaultPoint::ServeWorker { worker }, 1, d)
                        .delay_at(FaultPoint::ServeWorker { worker }, 3, d);
                }
                plan
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const W0: FaultPoint = FaultPoint::ServeWorker { worker: 0 };

    #[test]
    fn disarmed_hook_is_a_noop() {
        let plan: Option<Arc<FaultPlan>> = None;
        for _ in 0..1000 {
            assert!(!fire(&plan, W0));
        }
    }

    #[test]
    fn panic_rule_fires_on_exact_occurrence_then_never_again() {
        let plan = Arc::new(FaultPlan::new().panic_at(W0, 3));
        let armed = Some(Arc::clone(&plan));
        assert!(!fire(&armed, W0));
        assert!(!fire(&armed, W0));
        let r = catch_unwind(AssertUnwindSafe(|| fire(&armed, W0)));
        assert!(r.is_err(), "third occurrence panics");
        assert_eq!(plan.fired(), 1);
        assert!(plan.exhausted());
        // A respawned component reaching the same point again survives.
        for _ in 0..10 {
            assert!(!fire(&armed, W0));
        }
    }

    #[test]
    fn fail_rule_reports_once() {
        let plan = Arc::new(FaultPlan::new().fail_at(FaultPoint::ServeWriter, 2));
        let armed = Some(Arc::clone(&plan));
        assert!(!fire(&armed, FaultPoint::ServeWriter));
        assert!(fire(&armed, FaultPoint::ServeWriter));
        assert!(!fire(&armed, FaultPoint::ServeWriter));
    }

    #[test]
    fn counters_are_per_point() {
        let w1 = FaultPoint::ServeWorker { worker: 1 };
        let plan = Arc::new(FaultPlan::new().fail_at(w1, 2));
        let armed = Some(Arc::clone(&plan));
        // Occurrences of worker 0 do not advance worker 1's counter.
        assert!(!fire(&armed, W0));
        assert!(!fire(&armed, W0));
        assert!(!fire(&armed, w1));
        assert!(fire(&armed, w1));
    }

    #[test]
    fn delay_rule_sleeps_then_proceeds() {
        let plan = Arc::new(FaultPlan::new().delay_at(W0, 1, Duration::from_millis(20)));
        let armed = Some(Arc::clone(&plan));
        let t0 = std::time::Instant::now();
        assert!(!fire(&armed, W0), "delay proceeds normally");
        assert!(t0.elapsed() >= Duration::from_millis(15));
        assert!(plan.exhausted());
    }

    #[test]
    fn seed_sweep_covers_every_scenario_kind() {
        let u = FaultUniverse {
            workers: 4,
            fragments: 3,
        };
        let mut kinds = [false; 3];
        for seed in 0..6 {
            match FaultScenario::from_seed(seed, &u) {
                FaultScenario::WorkerPanic { worker, job } => {
                    assert!(worker < u.workers && job >= 1);
                    kinds[0] = true;
                }
                FaultScenario::WriterKill { publication } => {
                    assert!(publication >= 1);
                    kinds[1] = true;
                }
                FaultScenario::DelayStorm { millis } => {
                    assert!(millis >= 1);
                    kinds[2] = true;
                }
            }
            // Deterministic: the same seed derives the same scenario.
            assert_eq!(
                FaultScenario::from_seed(seed, &u),
                FaultScenario::from_seed(seed, &u)
            );
        }
        assert!(kinds.iter().all(|&k| k), "all kinds covered: {kinds:?}");
    }

    #[test]
    fn scenario_plans_are_armed() {
        let u = FaultUniverse {
            workers: 2,
            fragments: 2,
        };
        for seed in 0..8 {
            let plan = FaultScenario::from_seed(seed, &u).plan(&u);
            assert!(plan.rule_count() >= 1);
            assert!(!plan.exhausted());
        }
    }

    #[test]
    fn disk_rules_inject_torn_and_error_once() {
        let plan = Arc::new(
            FaultPlan::new()
                .torn_at(FaultPoint::WalAppend, 2, 7)
                .fail_at(FaultPoint::WalSync, 1),
        );
        let armed = Some(Arc::clone(&plan));
        assert_eq!(fire_disk(&armed, FaultPoint::WalAppend), None);
        assert_eq!(
            fire_disk(&armed, FaultPoint::WalAppend),
            Some(DiskFault::Torn { keep: 7 })
        );
        // One-shot: the same occurrence count never fires twice.
        assert_eq!(fire_disk(&armed, FaultPoint::WalAppend), None);
        assert_eq!(
            fire_disk(&armed, FaultPoint::WalSync),
            Some(DiskFault::Error)
        );
        assert!(plan.exhausted());
        assert_eq!(fire_disk(&None, FaultPoint::CheckpointWrite), None);
    }

    #[test]
    fn disk_panic_rule_kills_the_writer_before_bytes_land() {
        let plan = Arc::new(FaultPlan::new().panic_at(FaultPoint::CheckpointWrite, 1));
        let armed = Some(Arc::clone(&plan));
        let r = catch_unwind(AssertUnwindSafe(|| {
            fire_disk(&armed, FaultPoint::CheckpointWrite)
        }));
        assert!(r.is_err(), "panic action unwinds from the disk hook");
        // The respawned component survives the same point.
        assert_eq!(fire_disk(&armed, FaultPoint::CheckpointWrite), None);
    }

    #[test]
    fn lock_unpoisoned_recovers_after_a_panicking_peer() {
        let m = Arc::new(Mutex::new(41));
        let mc = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = mc.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned(), "peer panic poisoned the mutex");
        *lock_unpoisoned(&m) += 1;
        assert_eq!(*lock_unpoisoned(&m), 42);
    }
}
