//! Property suite for the `ds_obs` integration: span-set completeness
//! under faults, and the disarmed-observability oracle.
//!
//! For every backend × fault seed, a serve pool with an armed
//! [`Observability`] bundle runs a deterministic operation mix while
//! the seed's [`FaultScenario`] fires. The properties under test:
//!
//! - **Span completeness**: every successfully answered request leaves
//!   exactly one finished trace carrying a `QueueWait` span plus
//!   exactly one resolution span (`CacheHit`, `Coalesced`, or
//!   `Evaluation`); every applied update leaves an `Applied` trace with
//!   `WriterApply` + `Publication` spans; every request the fault plan
//!   doomed leaves a `Failed`/`Shed` trace. Nothing is silently
//!   untraced, even while workers and the writer are being killed.
//! - **Observer effect is nil**: a disarmed server fed the identical
//!   operation sequence under an identical fault plan returns
//!   answer-for-answer identical results — arming observability must
//!   never change what the system computes.

use std::collections::BTreeMap;
use std::sync::Arc;

use discset::closure::ClosureError;
use discset::fragment::linear::LinearConfig;
use discset::gen::deterministic::grid;
use discset::graph::{Edge, NodeId};
use discset::obs::{Stage, TraceOutcome};
use discset::serve::{FaultScenario, FaultUniverse, ServeConfig, ServeError, Server};
use discset::{Backend, Fragmenter, NetworkUpdate, Observability, System};

/// SplitMix64 — the traffic is as reproducible as the fault plan.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn n(i: u64, nodes: u64) -> NodeId {
    NodeId((i % nodes) as u32)
}

/// What one operation against the server produced, reduced to the bits
/// an oracle can compare: the answer cost, or the typed error name.
#[derive(Debug, PartialEq, Eq)]
enum OpResult {
    Answer(Option<u64>),
    Applied(u64),
    QueryErr(&'static str),
    UpdateErr(&'static str),
}

/// Drive the deterministic 60-op mix (an update every 10th op) and
/// record each outcome. Single worker + sequential traffic keep the
/// fault plan's nth-occurrence counters aligned across runs.
fn run_ops(server: &Server, seed: u64, nodes: u64) -> Vec<OpResult> {
    let f0 = server.snapshot().fragmentation().fragment(0).clone();
    let (a, b) = (f0.nodes()[0], *f0.nodes().last().expect("non-empty"));
    let mut rng = seed ^ 0xB0B5;
    let mut toggle_in = true;
    let mut out = Vec::with_capacity(60);
    for op in 0..60u32 {
        if op % 10 == 9 {
            let update = if toggle_in {
                NetworkUpdate::Insert {
                    edge: Edge::new(a, b, 1),
                    owner: 0,
                }
            } else {
                NetworkUpdate::Remove {
                    src: a,
                    dst: b,
                    owner: 0,
                }
            };
            out.push(match server.update(&update) {
                Ok(served) => {
                    toggle_in = !toggle_in;
                    OpResult::Applied(served.epoch)
                }
                Err(ClosureError::WriterRestarted) => OpResult::UpdateErr("restarted"),
                Err(ClosureError::WriterDown) => OpResult::UpdateErr("down"),
                Err(e) => panic!("seed {seed}: unexpected update error {e}"),
            });
            continue;
        }
        let (x, y) = (n(splitmix(&mut rng), nodes), n(splitmix(&mut rng), nodes));
        out.push(match server.query(x, y) {
            Ok(served) => OpResult::Answer(served.answer.cost),
            Err(ServeError::Request(ClosureError::WorkerFailed)) => OpResult::QueryErr("worker"),
            Err(e) => panic!("seed {seed}: unexpected query error {e}"),
        });
    }
    out
}

fn system(backend: Backend) -> System {
    System::builder()
        .graph(&grid(9, 4))
        .fragmenter(Fragmenter::Linear(LinearConfig {
            fragments: 3,
            ..Default::default()
        }))
        .backend(backend)
        .build()
        .expect("valid grid system")
}

/// Stages that resolve a read request; every answered trace must carry
/// exactly one.
fn is_resolution(stage: &Stage) -> bool {
    matches!(
        stage,
        Stage::CacheHit | Stage::Coalesced | Stage::Evaluation | Stage::ReachIndex
    )
}

#[test]
fn span_sets_are_complete_across_backends_and_fault_seeds() {
    let universe = FaultUniverse {
        workers: 1,
        fragments: 0,
    };
    let nodes = grid(9, 4).nodes as u64;
    for backend in [Backend::Inline, Backend::SiteThreads] {
        for seed in 0..6u64 {
            let scenario = FaultScenario::from_seed(seed, &universe);
            let obs = Observability::armed();
            let sys = system(backend);
            let mut cfg = ServeConfig::with_workers(1);
            cfg.fault = Some(Arc::new(scenario.plan(&universe)));
            cfg.obs = Some(Arc::clone(&obs));
            let server = sys.serve_with(cfg);
            let results = run_ops(&server, seed, nodes);
            server.shutdown();

            let mut expect: BTreeMap<&str, usize> = BTreeMap::new();
            for r in &results {
                *expect
                    .entry(match r {
                        OpResult::Answer(_) => "answered",
                        OpResult::Applied(_) => "applied",
                        OpResult::QueryErr(_) => "failed",
                        OpResult::UpdateErr(_) => "failed",
                    })
                    .or_default() += 1;
            }

            let traces = obs.tracer().recent(usize::MAX);
            let mut got: BTreeMap<&str, usize> = BTreeMap::new();
            for t in &traces {
                match t.outcome {
                    TraceOutcome::Answered | TraceOutcome::Unreachable => {
                        *got.entry("answered").or_default() += 1;
                        assert!(
                            t.span(Stage::QueueWait).is_some()
                                || t.span(Stage::ReachIndex).is_some(),
                            "{backend:?} seed {seed}: answered trace without admission: {t}"
                        );
                        let resolutions =
                            t.spans.iter().filter(|s| is_resolution(&s.stage)).count();
                        assert_eq!(
                            resolutions, 1,
                            "{backend:?} seed {seed}: {resolutions} resolution spans: {t}"
                        );
                        for s in &t.spans {
                            assert!(
                                s.dur_ns <= t.total_ns.saturating_add(1_000_000),
                                "{backend:?} seed {seed}: span outlives its request: {t}"
                            );
                        }
                    }
                    TraceOutcome::Applied => {
                        *got.entry("applied").or_default() += 1;
                        assert!(
                            t.span(Stage::WriterApply).is_some()
                                && t.span(Stage::Publication).is_some(),
                            "{backend:?} seed {seed}: applied trace missing writer spans: {t}"
                        );
                    }
                    TraceOutcome::Failed | TraceOutcome::Shed => {
                        *got.entry("failed").or_default() += 1;
                    }
                }
            }
            assert_eq!(
                got, expect,
                "{backend:?} seed {seed}: trace outcomes diverge from observed op results"
            );
        }
    }
}

/// Arming observability must not change a single answer: the disarmed
/// twin (same backend, same seed, its own copy of the same fault plan)
/// is the oracle.
#[test]
fn disarmed_server_is_an_exact_oracle_for_the_armed_one() {
    let universe = FaultUniverse {
        workers: 1,
        fragments: 0,
    };
    let nodes = grid(9, 4).nodes as u64;
    for backend in [Backend::Inline, Backend::SiteThreads] {
        for seed in 0..6u64 {
            let scenario = FaultScenario::from_seed(seed, &universe);
            let mut runs = Vec::new();
            for armed in [true, false] {
                let sys = system(backend);
                let mut cfg = ServeConfig::with_workers(1);
                cfg.fault = Some(Arc::new(scenario.plan(&universe)));
                if armed {
                    cfg.obs = Some(Observability::armed());
                }
                let server = sys.serve_with(cfg);
                runs.push(run_ops(&server, seed, nodes));
                server.shutdown();
            }
            assert_eq!(
                runs[0], runs[1],
                "{backend:?} seed {seed}: arming observability changed the answers"
            );
        }
    }
}
