//! Chaos property suite: deterministic seed-driven fault sweeps over
//! the supervised tiers (serve pool and writer, bulk materialization
//! pool, durable store).
//!
//! Every scenario is derived from a seed by [`FaultScenario::from_seed`]
//! and armed through the same `ds_fault` hooks production code carries
//! disarmed, so a failing seed reproduces exactly. The properties under
//! test, for every seed:
//!
//! - **No hangs**: each scenario runs under a watchdog thread; a stuck
//!   request fails the test instead of wedging CI.
//! - **Every request completes**: each query/update either returns an
//!   answer or one of the *typed* errors the failure matrix allows for
//!   that scenario — never a panic in the caller, never a silent wrong
//!   answer.
//! - **Answers stay exact**: every successful answer matches a
//!   single-threaded Dijkstra oracle evaluated on the graph of the
//!   epoch the answer was served from.
//! - **Recovery**: after the fault plan is exhausted, the component has
//!   respawned (restart counters) and serves exact answers again. That
//!   now includes the serve writer: a panic respawns it from the last
//!   published snapshot (the in-flight update is reported as
//!   [`ClosureError::WriterRestarted`] and can be retried); only an
//!   injected *fail* rule degrades the pool to read-only, which the
//!   serve unit tests cover.
//!
//! The serve sweep additionally runs with an armed [`Observability`]
//! bundle shared across all seeds and dumps its metrics snapshot to
//! `target/chaos_metrics.json`, which CI uploads as an artifact — a
//! free profile of what the fault sweep actually exercised.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use discset::closure::{baseline, ClosureError};
use discset::closure::{EngineConfig, EngineSnapshot};
use discset::fragment::linear::{linear_sweep, LinearConfig};
use discset::gen::deterministic::grid;
use discset::graph::{Edge, NodeId};
use discset::relation::bulk::{FragmentPartition, MaterializeConfig, MaterializeError};
use discset::relation::tc;
use discset::serve::{
    FaultPlan, FaultPoint, FaultScenario, FaultUniverse, ServeConfig, ServeError,
};
use discset::{Fragmenter, NetworkUpdate, Observability, System};

/// Run `f` on its own thread under a wall-clock watchdog. A scenario
/// that neither finishes nor panics within `secs` is reported as a hang
/// (the no-hang property is itself under test); a panicking scenario is
/// propagated with its original payload.
fn with_watchdog<F: FnOnce() + Send + 'static>(name: String, secs: u64, f: F) {
    let (done_tx, done_rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        f();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => handle.join().expect("scenario thread"),
        // Sender dropped without sending: the scenario panicked.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{name}: hang detected — scenario still running after {secs}s watchdog")
        }
    }
}

/// SplitMix64, so the traffic is as reproducible as the fault plan.
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

// ---------------------------------------------------------------- serve

/// One serve-tier scenario: a 1-worker pool over a 9×4 grid fragmented
/// three ways, driven by 120 sequential operations (an update every
/// 10th, toggling a fragment-0 shortcut). Single worker + sequential
/// traffic make the fault's nth-occurrence counters line up with the
/// operation sequence, so each seed is fully deterministic.
fn serve_chaos(seed: u64, obs: Arc<Observability>) {
    let universe = FaultUniverse {
        workers: 1,
        fragments: 0,
    };
    let scenario = FaultScenario::from_seed(seed, &universe);
    let plan = Arc::new(scenario.plan(&universe));

    let g = grid(9, 4);
    let nodes = g.nodes as u64;
    let sys = System::builder()
        .graph(&g)
        .fragmenter(Fragmenter::Linear(LinearConfig {
            fragments: 3,
            ..Default::default()
        }))
        .build()
        .expect("valid grid system");
    let mut cfg = ServeConfig::with_workers(1);
    cfg.fault = Some(plan.clone());
    cfg.obs = Some(obs);
    let server = sys.serve_with(cfg);

    // Per-epoch oracle: the graph behind every epoch ever published.
    // Answers may be served from an older epoch than the current one;
    // they must match the oracle *for their own epoch*.
    let mut epochs: BTreeMap<u64, _> = BTreeMap::new();
    epochs.insert(server.epoch(), server.snapshot().graph().clone());

    let f0 = server.snapshot().fragmentation().fragment(0).clone();
    let (a, b) = (
        f0.nodes()[0],
        *f0.nodes().last().expect("non-empty fragment"),
    );

    let mut rng = seed ^ 0xC4A5;
    let mut toggle_in = true;
    let mut worker_failures = 0u32;
    let mut writer_failures = 0u32;
    let mut ok_reads_after_writer_restart = 0u32;
    let mut ok_updates_after_writer_restart = 0u32;
    for op in 0..120u32 {
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
            match server.update(&update) {
                Ok(served) => {
                    toggle_in = !toggle_in;
                    epochs.insert(served.epoch, server.snapshot().graph().clone());
                    if writer_failures > 0 {
                        ok_updates_after_writer_restart += 1;
                    }
                }
                // The writer died mid-publication and was respawned from
                // the last published snapshot; the in-flight update was
                // lost (toggle_in stays put) and is retried next round.
                Err(ClosureError::WriterRestarted) => writer_failures += 1,
                Err(e) => panic!("seed {seed}: unexpected update error {e}"),
            }
            continue;
        }
        let (x, y) = (n(splitmix(&mut rng), nodes), n(splitmix(&mut rng), nodes));
        match server.query(x, y) {
            Ok(served) => {
                let (epoch, graph) = epochs
                    .range(..=served.epoch)
                    .next_back()
                    .expect("answer epoch was published");
                assert_eq!(
                    served.answer.cost,
                    baseline::shortest_path_cost(graph, x, y),
                    "seed {seed}: op {op} ({x:?} -> {y:?}) diverged from the epoch-{epoch} oracle"
                );
                if writer_failures > 0 {
                    ok_reads_after_writer_restart += 1;
                }
            }
            Err(ServeError::Request(ClosureError::WorkerFailed)) => worker_failures += 1,
            Err(e) => panic!("seed {seed}: unexpected query error {e}"),
        }
    }

    let stats = server.shutdown();
    match scenario {
        FaultScenario::WorkerPanic { .. } => {
            assert!(plan.exhausted(), "seed {seed}: fault never fired");
            assert!(
                worker_failures >= 1,
                "seed {seed}: no doomed batch observed"
            );
            assert!(
                stats.worker_restarts >= 1,
                "seed {seed}: no supervisor respawn"
            );
            assert!(
                !stats.degraded,
                "seed {seed}: worker death must not degrade writes"
            );
        }
        FaultScenario::WriterKill { .. } => {
            assert!(plan.exhausted(), "seed {seed}: fault never fired");
            assert!(
                writer_failures >= 1,
                "seed {seed}: no WriterRestarted observed"
            );
            assert!(
                stats.writer_restarts >= 1,
                "seed {seed}: no supervisor respawn"
            );
            assert!(
                !stats.degraded,
                "seed {seed}: a writer panic must respawn, not degrade"
            );
            assert!(
                ok_reads_after_writer_restart >= 1,
                "seed {seed}: reads must keep serving across the restart"
            );
            assert!(
                ok_updates_after_writer_restart >= 1,
                "seed {seed}: updates must resume after the respawn"
            );
            assert_eq!(worker_failures, 0, "seed {seed}: readers are unaffected");
        }
        FaultScenario::DelayStorm { .. } => {
            assert_eq!(
                worker_failures, 0,
                "seed {seed}: delays must not fail requests"
            );
            assert_eq!(
                writer_failures, 0,
                "seed {seed}: delays must not fail updates"
            );
            assert_eq!(stats.worker_restarts, 0, "seed {seed}");
            assert!(!stats.degraded, "seed {seed}");
        }
    }
}

#[test]
fn serve_chaos_seed_sweep() {
    // One armed bundle across the whole sweep: the aggregate metrics
    // profile what the chaos run exercised (restarts, sheds, epochs).
    let obs = Observability::armed();
    // ≥ 3 consecutive seeds covers every scenario kind (worker panic,
    // writer kill, delay storm).
    for seed in 0..8u64 {
        let o = Arc::clone(&obs);
        with_watchdog(format!("serve seed {seed}"), 120, move || {
            serve_chaos(seed, o)
        });
    }
    let snap = obs.snapshot();
    assert!(snap.counter("serve_writer_restarts").unwrap_or(0) >= 1);
    assert!(snap.counter("serve_worker_restarts").unwrap_or(0) >= 1);
    assert!(snap.counter("serve_requests").unwrap_or(0) >= 8 * 100);
    let out = std::path::Path::new("target").join("chaos_metrics.json");
    if let Err(e) = std::fs::write(&out, snap.to_json()) {
        eprintln!("could not write {}: {e}", out.display());
    }
}

// ----------------------------------------------------------------- bulk

/// One bulk-tier scenario: a worker dies (panic or silent exit) on one
/// fragment of the 3-way grid partition, on a cold epoch (seeds 0-2: the
/// hub unbuilt, the sites' exit sets empty) or a warm one. The run must
/// abort with the typed error and clean joins; a retry on the same
/// snapshot (the rule is one-shot) must give the exact semi-naive
/// closure.
fn bulk_chaos(seed: u64) {
    let g = grid(9, 4);
    let frag = linear_sweep(
        &g.edge_list(),
        &LinearConfig {
            fragments: 3,
            ..Default::default()
        },
    )
    .expect("grid sweep")
    .fragmentation;

    let fragment = (seed % 3) as usize;
    let point = FaultPoint::BulkWorker { fragment };
    let plan = if seed.is_multiple_of(2) {
        FaultPlan::new().panic_at(point, 1)
    } else {
        FaultPlan::new().fail_at(point, 1)
    };
    // Even seeds exercise the thread pool, odd seeds the inline driver:
    // the isolation contract is mode-independent.
    let threads = if seed.is_multiple_of(2) { 2 } else { 1 };
    let snap = EngineSnapshot::build(frag.clone(), true, EngineConfig::default());
    if seed >= 3 {
        snap.materialize(&MaterializeConfig::with_threads(threads))
            .expect("unarmed");
    }
    let config = MaterializeConfig {
        threads,
        fault: Some(Arc::new(plan)),
        ..Default::default()
    };

    let err = snap.materialize(&config).expect_err("armed run must abort");
    assert_eq!(
        err,
        MaterializeError::WorkerPanicked { fragment },
        "seed {seed}"
    );

    // Clean joins + one-shot rule: the same snapshot retries to the exact
    // closure.
    let (bulk, _) = snap
        .materialize(&config)
        .unwrap_or_else(|e| panic!("seed {seed}: retry after abort failed: {e}"));
    let union = FragmentPartition::new(&frag, true).union_relation();
    let (seq, _) = tc::seminaive_closure(&union, None);
    assert_eq!(bulk.rows(), seq.rows(), "seed {seed}: retry diverged");
}

#[test]
fn bulk_chaos_seed_sweep() {
    for seed in 0..6u64 {
        with_watchdog(format!("bulk seed {seed}"), 120, move || bulk_chaos(seed));
    }
}

// ----------------------------------------------------------- durability

/// One durable-serve kill-and-restart scenario: a WAL-backed server
/// over the 9×4 grid absorbs 18 distinct-edge inserts while a
/// seed-derived disk fault fires at an arbitrary occurrence of one of
/// the durability fault points (torn append, failed append, failed
/// sync, torn/failed checkpoint, writer panic at the append hook —
/// `seed % 5`). The server is then shut down and the directory
/// recovered cold: the recovered engine must answer identically to a
/// Dijkstra oracle over the *surviving update prefix* — the acked
/// inserts, plus at most the ONE ambiguous in-flight insert a writer
/// panic may or may not have durably logged.
fn durable_chaos(seed: u64, dir: &std::path::Path) {
    use discset::graph::{CsrGraph, ScratchDijkstra};
    use discset::serve::DurabilityConfig;

    const UPDATES: u64 = 18;
    let mut rng = seed ^ 0xD00D;
    // Fault occurrence 2..=UPDATES-1: never the attach-time checkpoint
    // (occurrence 1 of CheckpointWrite), and never the last append —
    // at least one post-fault operation exercises repair-and-continue.
    let nth = 2 + splitmix(&mut rng) % (UPDATES - 2);
    let kind = seed % 5;
    let plan = Arc::new(match kind {
        0 => FaultPlan::new().torn_at(
            FaultPoint::WalAppend,
            nth,
            (splitmix(&mut rng) % 24) as usize,
        ),
        1 => FaultPlan::new().fail_at(FaultPoint::WalAppend, nth),
        2 => FaultPlan::new().fail_at(FaultPoint::WalSync, nth),
        // Occurrence 2 is the first *threshold* checkpoint (after the
        // 8th applied update; occurrence 1 was written at attach).
        3 => {
            if seed.is_multiple_of(2) {
                FaultPlan::new().torn_at(FaultPoint::CheckpointWrite, 2, 32)
            } else {
                FaultPlan::new().fail_at(FaultPoint::CheckpointWrite, 2)
            }
        }
        _ => FaultPlan::new().panic_at(FaultPoint::WalAppend, nth),
    });

    let g = grid(9, 4);
    let nodes = g.nodes as u64;
    let sys = System::builder()
        .graph(&g)
        .fragmenter(Fragmenter::Linear(LinearConfig {
            fragments: 3,
            ..Default::default()
        }))
        .build()
        .expect("valid grid system");
    let mut cfg = ServeConfig::with_workers(1);
    let mut dcfg = DurabilityConfig::at(dir);
    dcfg.checkpoint_updates = 8; // two threshold checkpoints per run
    cfg.durability = Some(dcfg);
    cfg.fault = Some(Arc::clone(&plan));
    let server = sys.serve_with(cfg);

    // Distinct-edge inserts only (fragment-0 node pairs, enumerated
    // deterministically) so "the surviving prefix" is a well-defined
    // edge set even when one op's fate is ambiguous.
    let f0 = server.snapshot().fragmentation().fragment(0).clone();
    let nodes0 = f0.nodes().to_vec();
    let mut pairs = Vec::new();
    for i in 0..nodes0.len() {
        for j in (i + 1)..nodes0.len() {
            pairs.push((nodes0[i], nodes0[j]));
        }
    }
    assert!(pairs.len() >= UPDATES as usize, "fragment 0 too small");

    let mut applied: Vec<Edge> = Vec::new();
    let mut ambiguous: Option<Edge> = None;
    let mut refused = 0u32;
    for &(a, b) in pairs.iter().take(UPDATES as usize) {
        let edge = Edge::new(a, b, 1 + splitmix(&mut rng) % 4);
        match server.update(&NetworkUpdate::Insert { edge, owner: 0 }) {
            Ok(_) => applied.push(edge),
            // Append-before-apply: the WAL refused the group commit, so
            // the update is guaranteed NOT applied and NOT durable.
            Err(ClosureError::DurabilityFailed) => refused += 1,
            // The writer died at the append hook and was respawned; this
            // op is the one whose durability is ambiguous.
            Err(ClosureError::WriterRestarted) => {
                assert!(ambiguous.is_none(), "seed {seed}: two ambiguous ops");
                ambiguous = Some(edge);
            }
            Err(e) => panic!("seed {seed}: unexpected update error {e}"),
        }
    }
    let stats = server.shutdown();

    // Cold recovery of the directory the dead server left behind.
    let rec = discset::recover(dir).unwrap_or_else(|e| panic!("seed {seed}: recover failed: {e}"));
    let mut scratch = ScratchDijkstra::new();

    // Oracle(s) over the surviving prefix: symmetric closure of the
    // original grid plus the acked inserts — and, when one op is
    // ambiguous, the variant that also includes it. The recovered
    // engine must match ONE of them on every probe (prefix
    // consistency: never a mix, never anything else).
    let oracle_graph = |extra: &[Edge]| -> CsrGraph {
        let mut es: Vec<Edge> = g.closure_graph().edges().collect();
        for e in extra {
            es.push(*e);
            es.push(e.reversed());
        }
        CsrGraph::from_edges(g.nodes, &es)
    };
    let without = oracle_graph(&applied);
    let with = ambiguous.map(|e| {
        let mut v = applied.clone();
        v.push(e);
        oracle_graph(&v)
    });
    let mut matches_without = true;
    let mut matches_with = with.is_some();
    for probe in 0..60u32 {
        let (x, y) = (n(splitmix(&mut rng), nodes), n(splitmix(&mut rng), nodes));
        let got = rec.snapshot.shortest_path(x, y, &mut scratch).cost;
        if got != baseline::shortest_path_cost(&without, x, y) {
            matches_without = false;
        }
        if let Some(w) = &with {
            if got != baseline::shortest_path_cost(w, x, y) {
                matches_with = false;
            }
        }
        if !matches_without && !matches_with {
            panic!("seed {seed}: probe {probe} ({x:?} -> {y:?}) matches no oracle");
        }
    }
    assert!(
        matches_without || matches_with,
        "seed {seed}: recovered state is not a prefix of the acked history"
    );

    // Scenario-shaped bookkeeping.
    assert!(plan.exhausted(), "seed {seed}: fault never fired");
    match kind {
        0..=2 => {
            assert_eq!(refused, 1, "seed {seed}: exactly one refused group commit");
            assert!(stats.wal_failures >= 1, "seed {seed}");
            assert_eq!(applied.len() as u64, UPDATES - 1, "seed {seed}");
            assert_eq!(rec.epoch, applied.len() as u64, "seed {seed}");
        }
        3 => {
            // The checkpoint failed *after* the acks: nothing refused,
            // everything recovered from the older checkpoint + WAL.
            assert_eq!(refused, 0, "seed {seed}");
            assert_eq!(applied.len() as u64, UPDATES, "seed {seed}");
            assert!(stats.wal_failures >= 1, "seed {seed}");
            assert_eq!(rec.epoch, UPDATES, "seed {seed}");
        }
        _ => {
            assert!(stats.writer_restarts >= 1, "seed {seed}: no respawn");
            assert_eq!(refused, 0, "seed {seed}");
            assert!(ambiguous.is_some(), "seed {seed}: no ambiguous op");
            assert_eq!(applied.len() as u64, UPDATES - 1, "seed {seed}");
        }
    }

    // Restart-and-recover end-to-end: reopen through the facade and
    // keep serving + writing at the recovered epoch.
    let reopened = System::open(dir).unwrap_or_else(|e| panic!("seed {seed}: open failed: {e}"));
    let server2 = reopened.serve(1);
    assert_eq!(server2.stats().epoch, rec.epoch, "seed {seed}");
    let (a, b) = pairs[UPDATES as usize];
    let served = server2
        .update(&NetworkUpdate::Insert {
            edge: Edge::new(a, b, 1),
            owner: 0,
        })
        .unwrap_or_else(|e| panic!("seed {seed}: post-recovery update failed: {e}"));
    assert_eq!(served.epoch, rec.epoch + 1, "seed {seed}");
    server2.shutdown();
}

#[test]
fn durable_serve_kill_and_restart_sweep() {
    // 20 seeds × 5 fault kinds: every durability fault point fires at
    // several different arbitrary occurrences.
    for seed in 0..20u64 {
        let dir = std::env::temp_dir().join(format!(
            "discset-chaos-durable-{}-{seed}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let d = dir.clone();
        with_watchdog(format!("durable seed {seed}"), 120, move || {
            durable_chaos(seed, &d)
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}
