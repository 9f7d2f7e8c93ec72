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
//!   answer-for-answer identical results and count-for-count identical
//!   [`ServeStats`] — arming observability must never change what the
//!   system computes or what it reports about itself.
//! - **One count**: `Server::stats()` and the armed registry read the
//!   same cells, so they agree field by field — after a mixed run, and
//!   after a writer death whose logged-but-unpublished updates the
//!   respawn redoes from the WAL.

use std::collections::BTreeMap;
use std::sync::Arc;

use discset::closure::ClosureError;
use discset::fragment::linear::LinearConfig;
use discset::gen::deterministic::grid;
use discset::graph::{Edge, NodeId};
use discset::obs::{Stage, TraceOutcome};
use discset::serve::{
    DurabilityConfig, FaultPlan, FaultPoint, FaultScenario, FaultUniverse, ServeConfig, ServeError,
    Server,
};
use discset::{
    Backend, Fragmenter, MetricsSnapshot, NetworkUpdate, Observability, QueryRequest, ServeStats,
    System,
};

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

/// Every event count of [`ServeStats`], under the name the registry
/// exports it by.
fn counts(stats: &ServeStats) -> [(&'static str, u64); 19] {
    [
        ("serve_requests", stats.requests),
        ("serve_jobs", stats.jobs),
        ("serve_batches", stats.batches),
        ("serve_evaluated", stats.evaluated),
        ("serve_coalesced", stats.coalesced),
        ("serve_cache_hits", stats.cache_hits),
        ("serve_cache_misses", stats.cache_misses),
        ("serve_reach_fast_path", stats.reach_fast_path),
        ("serve_queue_rejections", stats.queue_rejections),
        ("serve_deadline_shed", stats.deadline_shed),
        ("serve_deadline_cancelled", stats.deadline_cancelled),
        ("serve_updates", stats.updates),
        ("serve_publications", stats.publications),
        ("serve_wal_records", stats.wal_records),
        ("serve_wal_commits", stats.wal_commits),
        ("serve_wal_failures", stats.wal_failures),
        ("serve_checkpoints", stats.checkpoints),
        ("serve_worker_restarts", stats.worker_restarts),
        ("serve_writer_restarts", stats.writer_restarts),
    ]
}

fn assert_stats_match_registry(stats: &ServeStats, registry: &MetricsSnapshot, when: &str) {
    // The two hand-off counters depend on who got to the queue or the
    // reply slot first, and the writer's stage times on the clock, so they
    // stay out of `counts` (which armed and disarmed twins must agree on)
    // — but the two views still read them from the same cells.
    let ns = |d: std::time::Duration| d.as_nanos() as u64;
    let handoff = [
        ("serve_handoff_wakes", stats.handoff_wakes),
        ("serve_reply_parks", stats.reply_parks),
        ("serve_writer_busy_ns", ns(stats.writer_busy)),
        ("serve_writer_append_ns", ns(stats.writer_append)),
        ("serve_writer_maintain_ns", ns(stats.writer_maintain)),
        ("serve_writer_publish_ns", ns(stats.writer_publish)),
    ];
    for (name, value) in counts(stats).into_iter().chain(handoff) {
        assert_eq!(registry.counter(name), Some(value), "{when}: {name}");
    }
    assert_eq!(registry.gauge("serve_epoch"), Some(stats.epoch), "{when}");
    assert_eq!(
        registry.histogram("request_latency_ns").map(|h| h.count()),
        Some(stats.latency.count),
        "{when}: latency samples"
    );
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
        // Seeds 0..6 rotate the seed-derived scenarios, whose worker
        // panics all land before the first update; seed 6 is a worker
        // panic after it (job 15 is op 15, the update is op 9), so a
        // request also fails at an epoch other than the one served from
        // at start.
        for seed in 0..7u64 {
            let plan = match seed {
                6 => FaultPlan::new().panic_at(FaultPoint::ServeWorker { worker: 0 }, 15),
                _ => FaultScenario::from_seed(seed, &universe).plan(&universe),
            };
            let obs = Observability::armed();
            let sys = system(backend);
            let mut cfg = ServeConfig::with_workers(1);
            cfg.fault = Some(Arc::new(plan));
            cfg.obs = Some(Arc::clone(&obs));
            let server = sys.serve_with(cfg);
            let results = run_ops(&server, seed, nodes);
            server.shutdown();

            // Traffic is sequential, so a failed op's trace must carry
            // the epoch published when it failed: the last one an
            // update was acknowledged at before it.
            let mut published = 0u64;
            let mut failed_at: Vec<u64> = Vec::new();
            let mut expect: BTreeMap<&str, usize> = BTreeMap::new();
            for r in &results {
                match r {
                    OpResult::Applied(epoch) => published = *epoch,
                    OpResult::QueryErr(_) | OpResult::UpdateErr(_) => failed_at.push(published),
                    OpResult::Answer(_) => {}
                }
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
            let mut failed_epochs: Vec<u64> = Vec::new();
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
                        failed_epochs.push(t.epoch);
                    }
                }
            }
            assert_eq!(
                got, expect,
                "{backend:?} seed {seed}: trace outcomes diverge from observed op results"
            );
            assert_eq!(
                failed_epochs, failed_at,
                "{backend:?} seed {seed}: a failed trace is stamped with an epoch other than \
                 the one published when it failed"
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
                let results = run_ops(&server, seed, nodes);
                let stats = server.shutdown();
                runs.push((results, counts(&stats), stats.epoch, stats.latency.count));
            }
            assert_eq!(
                runs[0], runs[1],
                "{backend:?} seed {seed}: arming observability changed the answers or the stats"
            );
        }
    }
}

/// `ServeStats` and the registry are two views of one set of cells: they
/// agree on every count after a mixed run, and still do after a writer
/// dies between its WAL append and the publication — the respawn redoes
/// the logged update, and that update and its publication are counted
/// where every other one is.
#[test]
fn stats_and_registry_agree_field_by_field() {
    let dir = std::env::temp_dir().join(format!("discset-obs-agree-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let nodes = grid(9, 4).nodes as u64;
    let obs = Observability::armed();
    // The fourth group commit reaches the disk, then the writer dies at
    // the sync hook: logged, never applied, never published.
    let plan = Arc::new(FaultPlan::new().panic_at(FaultPoint::WalSync, 4));
    let mut cfg = ServeConfig::with_workers(2);
    cfg.durability = Some(DurabilityConfig::at(&dir));
    cfg.fault = Some(Arc::clone(&plan));
    cfg.obs = Some(Arc::clone(&obs));
    let server = system(Backend::Inline).serve_with(cfg);

    let f0 = server.snapshot().fragmentation().fragment(0).clone();
    let insert = |i: usize| NetworkUpdate::Insert {
        edge: Edge::new(f0.nodes()[0], f0.nodes()[2 + i], 1),
        owner: 0,
    };
    // Mixed run: a repeated pair (cache hits), one job carrying a
    // duplicate (coalescing), scattered pairs, `connected` through the
    // reach index, three updates.
    let mut rng = 0xA61EEu64;
    for round in 0..3 {
        for _ in 0..10 {
            let (x, y) = (n(splitmix(&mut rng), nodes), n(splitmix(&mut rng), nodes));
            server.query(x, y).expect("healthy pool");
            server
                .query(n(0, nodes), n(35, nodes))
                .expect("healthy pool");
        }
        let twice = QueryRequest::new(n(1, nodes), n(34, nodes));
        server.query_batch(&[twice, twice]).expect("healthy pool");
        assert!(server.connected(n(0, nodes), n(35, nodes)).expect("index"));
        server.update(&insert(round)).expect("valid insert");
    }
    let stats = server.stats();
    assert!(stats.cache_hits > 0 && stats.coalesced > 0 && stats.reach_fast_path == 3);
    assert_eq!((stats.updates, stats.wal_commits), (3, 3));
    let stages = [
        stats.writer_append,
        stats.writer_maintain,
        stats.writer_publish,
    ];
    assert!(stages.iter().all(|d| !d.is_zero()), "{stats}");
    assert!(
        stages.iter().sum::<std::time::Duration>() <= stats.writer_busy,
        "{stats}"
    );
    assert_stats_match_registry(&stats, &obs.snapshot(), "after the mixed run");

    // The doomed update is refused to its caller but durable; the next
    // one queues behind the respawn, whose redo publishes the doomed one.
    assert!(matches!(
        server.update(&insert(3)),
        Err(ClosureError::WriterRestarted)
    ));
    assert!(plan.exhausted());
    assert_eq!(server.update(&insert(4)).expect("respawned").epoch, 5);
    let stats = server.stats();
    assert_eq!((stats.updates, stats.publications), (5, 5));
    assert_eq!(stats.writer_restarts, 1);
    assert_stats_match_registry(&stats, &obs.snapshot(), "after the writer respawn");

    // And the log the redo continued is the state a cold start rebuilds.
    let stats = server.shutdown();
    let recovered = discset::recover(&dir).expect("recover");
    assert_eq!(recovered.epoch, stats.epoch);
    std::fs::remove_dir_all(&dir).ok();
}
