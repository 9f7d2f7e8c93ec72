// Supervised-tier hygiene: non-test code must not carry implicit panic
// points — failures surface as typed errors (`ServeError`,
// `ClosureError`) or go through an explicit `unreachable!` with its
// invariant spelled out. CI promotes these to errors with -D warnings.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! # ds-serve — concurrent query serving over engine snapshots
//!
//! The paper parallelizes the *precompute* across fragment sites; this
//! crate parallelizes the *serving*: many concurrent readers, a live
//! update stream, and the batching-by-fragment-affinity that
//! workload-driven fragmentation work (Peng et al., *Query
//! Workload-based RDF Graph Fragmentation and Allocation*) identifies as
//! the throughput lever of distributed graph querying.
//!
//! Architecture (std-only — no third-party dependencies; threads are
//! hand-rolled):
//!
//! ```text
//!  clients ──► bounded job queue ──► worker pool (one scratch each)
//!              (sheds at capacity)      │  micro-batch: coalesce
//!                                       │  duplicates, probe answer
//!                                       │  cache, group misses by
//!                                       │  fragment pair, run_batch
//!                                       ▼
//!              answer cache ◄──► Arc<EngineSnapshot>   (epoch N)
//!              (per epoch)               ▲
//!  updaters ──► writer thread ── maintain() on a private copy
//!               (touched sites detach, everything else stays shared),
//!               publish successor snapshot as epoch N+1 — O(sites)
//! ```
//!
//! * **Snapshot epochs.** The immutable [`EngineSnapshot`] (hub,
//!   per-site evaluation state, planner — `Send + Sync` by construction,
//!   asserted at compile time in `ds_closure`) is shared via `Arc` and swapped
//!   atomically by the single writer. Readers pin the epoch for the
//!   duration of a micro-batch: every answer is consistent with some
//!   published version, and says which ([`ServedBatch::epoch`]).
//! * **O(touched sites) publication.** A snapshot holds one `Arc<Site>`
//!   per fragment, so the writer's per-epoch publication clone is
//!   O(sites) refcount bumps and each epoch physically shares every
//!   untouched site — graph, border index, access sets — with its
//!   predecessor (`ds_closure::snapshot` documents the sharing
//!   contract; the gates bench holds it at ≥ 5x cheaper than a full
//!   copy).
//! * **Per-epoch answer cache.** Identical queries repeated across
//!   micro-batches within one epoch are answered from a sharded,
//!   lock-light map ([`ServeConfig::answer_cache`]); publication drops
//!   it wholesale (lazily — the writer does no cache work). Hits are
//!   exactly as consistent as evaluations: the key includes the pinned
//!   epoch.
//! * **Workers never lock on the query path.** All mutable evaluation
//!   state (the Dijkstra scratch, batch buffers) is worker-owned; the
//!   publication slot is consulted with one atomic load per micro-batch
//!   and its mutex touched only when the epoch actually moved.
//! * **A hand-off yields before it sleeps.** A request crosses to a
//!   worker through the bounded queue and comes back through a one-shot
//!   reply slot (one allocation; updates wait on the same type). A
//!   worker that finds the queue empty, and a client whose reply is not
//!   there yet, first give their vCPU away with `std::thread::yield_now`
//!   up to 16 times, re-checking after each, and only then park. With
//!   more threads than vCPUs (the benchmark runs 2 clients and 2 workers
//!   on 2) the yield runs the thread that is about to produce the work,
//!   so the waiter finds it with no `futex` call and no wake-up; a spin
//!   would hold the vCPU that thread needs. On an idle core a yield
//!   returns at once and finds nothing, so each wait that ends in a park
//!   halves the thread's next window and each wait that finds its item
//!   restores it: a paced sequential client costs the same CPU per
//!   request as with no window at all, where a fixed window of 16 cost
//!   13–27 µs more. A side touches its condition variable only when the
//!   other is actually parked. [`ServeStats::handoff_wakes`] and
//!   [`ServeStats::reply_parks`] count the times somebody was asleep:
//!   on `serve_read_spread` about 5 % of jobs wake a worker and 0.3 %
//!   of replies a client, against 75 % and 28 % before the window.
//! * **Micro-batching.** A worker drains everything pending (bounded by
//!   [`ServeConfig::batch_max`]) in one lock acquisition, coalesces
//!   identical requests (single-flight), sorts the distinct cache misses
//!   by fragment pair and feeds them to the shared batch kernel
//!   (`ds_closure::api::run_batch_bounded`), which plans each fragment
//!   pair once and reads interior chain segments off the epoch's hub,
//!   which every worker shares. Queue
//!   depth converts directly into amortization — the busier the server,
//!   the cheaper the average query.
//! * **Load shedding.** The bounded queue never blocks producers: at
//!   capacity, [`Server::submit`] / [`Server::try_query_batch`] return
//!   [`Overloaded`] with a retry-after hint and the blocking wrappers
//!   back off and retry; queue depth / high-water / rejections are
//!   reported in [`ServeStats`].
//! * **Fault tolerance.** Workers evaluate under `catch_unwind` behind
//!   a supervisor: a panicking micro-batch resolves every in-flight
//!   request with a typed `ClosureError::WorkerFailed` (never a hang)
//!   and the worker is respawned ([`ServeStats::worker_restarts`]).
//!   A writer panic is survivable too: the supervisor rebuilds the
//!   working copy from the last published snapshot and re-arms the
//!   same write channel ([`ServeStats::writer_restarts`]); in-flight
//!   updates of the doomed batch resolve to `WriterRestarted` (not
//!   applied — retry). Only a permanent writer death flips read-only
//!   degraded mode (updates refused with `WriterDown`, reads keep
//!   serving the last published epoch). Jobs queued past
//!   [`ServeConfig::deadline`] are shed with `DeadlineExceeded`, and
//!   the blocking wrappers retry `Overloaded` admissions a bounded
//!   number of times ([`ServeConfig::max_admission_retries`]).
//!   Failures are injectable deterministically through `ds_fault`
//!   ([`ServeConfig::fault`]).
//! * **Durability.** With [`ServeConfig::durability`] set, the writer
//!   appends every folded update batch to `ds_durability`'s checksummed
//!   write-ahead log **before** applying it (group commit: one buffered
//!   write + one fsync per batch) and checkpoints every
//!   `checkpoint_updates` records, so a process death is recoverable:
//!   [`ds_durability::recover`] folds the surviving WAL suffix into the
//!   newest checkpoint's relation and builds once, and
//!   [`Server::try_start_at`] resumes serving from it (and refuses any
//!   other state over that directory). A refused append fails its batch
//!   with the typed
//!   `ClosureError::DurabilityFailed` without applying anything; a
//!   respawned writer redoes any logged-but-unpublished suffix so the
//!   live state always reconverges with the durable one.
//! * **Observability.** Every event is counted once, on one `ds_obs`
//!   cell, armed or not. [`ServeStats`] reads those cells: throughput,
//!   p50/p99 latency from the fixed-bucket [`LatencyHistogram`], cache
//!   hit/miss, restart, shed and WAL counts — next to per-worker busy
//!   time and scratch reuse, batch amortization, queue pressure, and
//!   which backend placement and precompute strategy is being served.
//!   Arming [`ServeConfig::obs`] exports the same cells through the
//!   `ds_obs::MetricsRegistry` (JSON/Prometheus) and additionally mints
//!   a trace id per admitted request, files span sets (queue wait,
//!   evaluation, per-chain segment time, cache/coalesce/reach-index
//!   markers) into a trace ring and slow-query log, and samples query
//!   frequencies into the workload recorder.
//!
//! ```
//! use ds_closure::{EngineConfig, EngineSnapshot};
//! use ds_fragment::linear::{linear_sweep, LinearConfig};
//! use ds_gen::deterministic::grid;
//! use ds_graph::NodeId;
//! use ds_serve::{ServeConfig, Server};
//!
//! let g = grid(10, 3);
//! let frag = linear_sweep(&g.edge_list(), &LinearConfig { fragments: 3, ..Default::default() })
//!     .unwrap()
//!     .fragmentation;
//! let snap = EngineSnapshot::build(frag, true, EngineConfig::default());
//! let server = Server::start(snap, ServeConfig::with_workers(2));
//! let served = server.query(NodeId(0), NodeId(29)).unwrap();
//! assert_eq!(served.answer.cost, Some(11));
//! assert_eq!(served.epoch, 0);
//! let stats = server.shutdown();
//! assert_eq!(stats.requests, 1);
//! ```

mod batch;
mod cache;
mod handoff;
mod queue;
pub mod server;
mod stats;
mod writer;

pub use ds_closure::snapshot::EngineSnapshot;
pub use ds_durability::{recover, DurabilityConfig, DurabilityError, DurableStore, Recovered};
pub use ds_fault::{FaultPlan, FaultPoint, FaultScenario, FaultUniverse};
pub use ds_obs::LatencyHistogram;
pub use handoff::PendingBatch;
pub use server::{
    Backoff, Overloaded, ServeConfig, ServeError, ServedAnswer, ServedBatch, ServedUpdate, Server,
};
pub use stats::{LatencySummary, ServeStats};

#[cfg(test)]
mod tests {
    use super::*;
    use ds_closure::api::{NetworkUpdate, QueryRequest};
    use ds_closure::{baseline, EngineConfig};
    use ds_fragment::linear::{linear_sweep, LinearConfig};
    use ds_gen::deterministic::grid;
    use ds_graph::{Edge, NodeId};
    use std::sync::Arc;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Run `f` on its own thread under a wall-clock watchdog, as the
    /// chaos suite (`tests/chaos.rs`) does: a scenario still running
    /// after `secs` fails as a hang instead of wedging the run, and a
    /// panic inside it is propagated.
    pub(crate) fn with_watchdog<F: FnOnce() + Send + 'static>(name: &str, secs: u64, f: F) {
        use std::time::{Duration, Instant};
        let handle = std::thread::spawn(f);
        let deadline = Instant::now() + Duration::from_secs(secs);
        while !handle.is_finished() {
            assert!(
                Instant::now() < deadline,
                "{name}: hang detected — still running after the {secs}s watchdog"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Err(payload) = handle.join() {
            std::panic::resume_unwind(payload);
        }
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ds-serve-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn snapshot() -> (ds_gen::GeneratedGraph, EngineSnapshot) {
        let g = grid(10, 4);
        let frag = linear_sweep(
            &g.edge_list(),
            &LinearConfig {
                fragments: 4,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        (
            g,
            EngineSnapshot::build(frag, true, EngineConfig::default()),
        )
    }

    #[test]
    fn serves_correct_answers_from_many_threads() {
        let (g, snap) = snapshot();
        let csr = g.closure_graph();
        let server = Arc::new(Server::start(snap, ServeConfig::with_workers(3)));
        std::thread::scope(|s| {
            for t in 0..6u32 {
                let server = Arc::clone(&server);
                let csr = &csr;
                s.spawn(move || {
                    for i in 0..25u32 {
                        let (x, y) = (n((i * 7 + t) % 40), n((i * 11) % 40));
                        let served = server.query(x, y).unwrap();
                        assert_eq!(
                            served.answer.cost,
                            baseline::shortest_path_cost(csr, x, y),
                            "thread {t} query {x}->{y}"
                        );
                        assert_eq!(served.epoch, 0, "no updates: epoch stays 0");
                    }
                });
            }
        });
        let stats = Arc::into_inner(server)
            .expect("all clients done")
            .shutdown();
        assert_eq!(stats.requests, 150);
        assert_eq!(stats.jobs, 150);
        assert!(stats.batches > 0 && stats.batches <= 150);
        assert_eq!(
            stats.evaluated + stats.coalesced + stats.cache_hits,
            150,
            "every request is evaluated, coalesced, or cache-served"
        );
        assert_eq!(stats.latency.count, 150);
        assert!(stats.latency.p99_us >= stats.latency.p50_us);
        assert_eq!(stats.backend, "inline");
        assert!(
            stats.scratch.sweeps > 0,
            "workers really used their scratch"
        );
    }

    #[test]
    fn batch_jobs_answer_in_request_order() {
        let (g, snap) = snapshot();
        let csr = g.closure_graph();
        let server = Server::start(snap, ServeConfig::with_workers(2));
        let requests: Vec<QueryRequest> = (0..12u32)
            .map(|i| QueryRequest::new(n(i), n(39 - i)))
            .collect();
        let served = server.query_batch(&requests).unwrap();
        assert_eq!(served.answers.len(), 12);
        for (req, a) in requests.iter().zip(&served.answers) {
            assert_eq!(
                a.cost,
                baseline::shortest_path_cost(&csr, req.source, req.target),
                "{}->{}",
                req.source,
                req.target
            );
        }
        server.shutdown();
    }

    #[test]
    fn identical_requests_coalesce_within_a_micro_batch() {
        let (_, snap) = snapshot();
        let server = Server::start(snap, ServeConfig::with_workers(1));
        // One job containing the same request 8 times: single-flight.
        let requests = vec![QueryRequest::new(n(0), n(39)); 8];
        let served = server.query_batch(&requests).unwrap();
        assert_eq!(served.answers.len(), 8);
        let cost = served.answers[0].cost;
        assert!(served.answers.iter().all(|a| a.cost == cost));
        let stats = server.shutdown();
        assert_eq!(stats.requests, 8);
        assert_eq!(stats.evaluated, 1, "one evaluation for eight answers");
        assert_eq!(stats.coalesced, 7);
        assert!(stats.coalesced_fraction() > 0.8);
    }

    #[test]
    fn updates_bump_the_epoch_and_stay_exact() {
        let (_, snap) = snapshot();
        let f0 = snap.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        let server = Server::start(snap, ServeConfig::with_workers(2));
        let before = server.query(n(0), n(39)).unwrap();
        assert_eq!(before.epoch, 0);

        let served = server
            .update(&NetworkUpdate::Insert {
                edge: Edge::new(a, b, 1),
                owner: 0,
            })
            .unwrap();
        assert_eq!(served.epoch, 1);
        assert!(!served.report.full_recompute);
        assert_eq!(server.epoch(), 1);

        let after = server.query(n(0), n(39)).unwrap();
        assert_eq!(after.epoch, 1, "new micro-batches see the new epoch");
        assert!(after.answer.cost <= before.answer.cost);
        // The published snapshot is the post-update network.
        let snap = server.snapshot();
        assert_eq!(
            after.answer.cost,
            baseline::shortest_path_cost(snap.graph(), n(0), n(39))
        );

        let removed = server
            .update(&NetworkUpdate::Remove {
                src: a,
                dst: b,
                owner: 0,
            })
            .unwrap();
        assert_eq!(removed.epoch, 2);
        let restored = server.query(n(0), n(39)).unwrap();
        assert_eq!(restored.answer.cost, before.answer.cost);
        let stats = server.shutdown();
        assert_eq!(stats.updates, 2);
        assert!(stats.publications >= 1 && stats.publications <= 2);
    }

    #[test]
    fn invalid_updates_error_without_poisoning_the_server() {
        let (_, snap) = snapshot();
        let server = Server::start(snap, ServeConfig::with_workers(1));
        let err = server.update(&NetworkUpdate::Insert {
            edge: Edge::new(n(0), n(39), 1),
            owner: 0, // node 39 is not in fragment 0
        });
        assert!(err.is_err());
        assert_eq!(server.epoch(), 0, "failed update publishes nothing");
        // A structural no-op (removing a non-existent connection) is Ok
        // but publishes nothing either.
        let noop = server
            .update(&NetworkUpdate::Remove {
                src: n(0),
                dst: n(0),
                owner: 0,
            })
            .unwrap();
        assert_eq!(noop.report.sites_touched, 0);
        assert_eq!(noop.epoch, 0, "no-op stays on the current epoch");
        assert_eq!(server.epoch(), 0);
        assert!(server.query(n(0), n(39)).unwrap().answer.cost.is_some());
        let stats = server.shutdown();
        assert_eq!(stats.updates, 0, "no effective updates");
        assert_eq!(stats.publications, 0);
    }

    #[test]
    fn stats_report_strategy_and_balance() {
        let (_, snap) = snapshot();
        let server = Server::start(snap, ServeConfig::with_workers(2));
        for i in 0..10u32 {
            server.query(n(i), n(39 - i)).unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(
            stats.strategy,
            ds_closure::PrecomputeStrategy::Skeleton,
            "serving a skeleton-built hub"
        );
        assert!(stats.balance_ratio() >= 1.0);
        assert!(stats.throughput_qps() > 0.0);
        assert_eq!(stats.workers, 2);
    }

    #[test]
    fn empty_batch_is_answered_inline() {
        let (_, snap) = snapshot();
        let server = Server::start(snap, ServeConfig::with_workers(1));
        let served = server.query_batch(&[]).unwrap();
        assert!(served.answers.is_empty());
        // The non-blocking entry points agree: no queue slot is spent,
        // so an empty batch can never be shed.
        server.pause_workers();
        let pending = server.submit(&[]).unwrap();
        assert!(pending.wait().unwrap().answers.is_empty());
        server.unpause_workers();
        let stats = server.stats();
        assert_eq!(stats.queue_high_water, 0, "empty jobs never enqueue");
        server.shutdown();
    }

    /// The two hand-off counters tell an idle pool from a busy one: an
    /// admission that finds a worker asleep counts one wake, admissions
    /// past a pool that cannot take them count none, and no more replies
    /// wake a waiter than there were jobs.
    #[test]
    fn handoff_counters_tell_an_idle_pool_from_a_busy_one() {
        let (_, snap) = snapshot();
        let server = Server::start(snap, ServeConfig::with_workers(1));
        while server.parked_workers() < 1 {
            std::thread::yield_now();
        }
        server.query(n(0), n(39)).unwrap();
        assert_eq!(server.stats().handoff_wakes, 1, "the worker was asleep");
        while server.parked_workers() < 1 {
            std::thread::yield_now();
        }
        server.pause_workers();
        let pending: Vec<_> = (0..5u32)
            .map(|i| server.submit(&[QueryRequest::new(n(i), n(39))]).unwrap())
            .collect();
        assert_eq!(server.stats().handoff_wakes, 1, "nobody to wake");
        server.unpause_workers();
        for p in pending {
            assert!(p.wait().unwrap().answers[0].cost.is_some());
        }
        let stats = server.shutdown();
        assert_eq!((stats.jobs, stats.handoff_wakes), (6, 1));
        assert!(stats.reply_parks <= stats.jobs);
        assert!(stats.to_string().contains("1 worker wakes/6 jobs"));
    }

    /// A client that drops its handle before the reply costs the worker
    /// nothing: the reply goes nowhere and the pool serves on.
    #[test]
    fn an_abandoned_job_leaves_the_worker_alive() {
        let (_, snap) = snapshot();
        let server = Server::start(snap, ServeConfig::with_workers(1));
        server.pause_workers();
        drop(server.submit(&[QueryRequest::new(n(0), n(39))]).unwrap());
        server.unpause_workers();
        assert!(server.query(n(1), n(38)).unwrap().answer.cost.is_some());
        let stats = server.shutdown();
        assert_eq!(stats.requests, 2, "the abandoned job was still served");
        assert_eq!(stats.worker_restarts, 0);
    }

    /// Two clients, 100k round trips through one queue and 100k reply
    /// slots: every reply reaches the waiter that asked (the eight pairs
    /// in play all cost differently, so an answer names its request),
    /// nothing hangs, and every request admitted is a request served.
    #[test]
    fn two_client_hammer_delivers_every_reply_to_its_own_waiter() {
        const ROUND_TRIPS: u32 = 50_000;
        let (g, snap) = snapshot();
        let csr = g.closure_graph();
        // Client 0 asks short routes, client 1 long ones.
        let targets = [[1u32, 2, 3, 4], [39, 38, 37, 36]];
        let costs = targets.map(|ts| ts.map(|y| baseline::shortest_path_cost(&csr, n(0), n(y))));
        let mut distinct: Vec<_> = costs.iter().flatten().collect();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 8, "{costs:?}");
        with_watchdog("serve hammer", 300, move || {
            let server = Server::start(snap, ServeConfig::with_workers(2));
            std::thread::scope(|s| {
                for t in 0..2 {
                    let server = &server;
                    s.spawn(move || {
                        for i in 0..ROUND_TRIPS as usize {
                            let served = server
                                .submit(&[QueryRequest::new(n(0), n(targets[t][i % 4]))])
                                .expect("two clients cannot fill the queue")
                                .wait()
                                .expect("healthy pool");
                            assert_eq!(served.answers.len(), 1);
                            assert_eq!(
                                served.answers[0].cost,
                                costs[t][i % 4],
                                "client {t} trip {i}"
                            );
                        }
                    });
                }
            });
            let stats = server.shutdown();
            assert_eq!(stats.requests, 2 * ROUND_TRIPS as u64);
            assert_eq!(stats.jobs, stats.requests);
            assert_eq!(stats.latency.count, stats.requests);
            assert_eq!(
                stats.evaluated + stats.coalesced + stats.cache_hits,
                stats.requests
            );
            assert!(stats.handoff_wakes <= stats.jobs && stats.reply_parks <= stats.jobs);
        });
    }

    /// A worker pins the epoch it evaluated on, and drops that pin when
    /// its yield window ends in a park: once both workers sleep, an
    /// epoch a write superseded is held by nobody.
    #[test]
    fn an_idle_pool_pins_no_superseded_epoch() {
        let (_, snap) = snapshot();
        let f0 = snap.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        with_watchdog("idle pin", 60, move || {
            let server = Server::start(snap, ServeConfig::with_workers(2));
            let first = Arc::downgrade(&server.snapshot());
            assert_eq!(server.query(n(0), n(39)).unwrap().epoch, 0);
            let update = NetworkUpdate::Insert {
                edge: Edge::new(a, b, 1),
                owner: 0,
            };
            assert_eq!(server.update(&update).unwrap().epoch, 1);
            while server.parked_workers() < 2 {
                std::thread::yield_now();
            }
            assert!(
                first.upgrade().is_none(),
                "a parked worker still pins epoch 0"
            );
            server.shutdown();
        });
    }

    /// The yield window always ends: an idle pool parks every worker,
    /// and so does a paused one with jobs queued behind the pause.
    #[test]
    fn an_idle_or_paused_pool_parks_every_worker() {
        let (_, snap) = snapshot();
        with_watchdog("window ends", 60, move || {
            let server = Server::start(snap, ServeConfig::with_workers(3));
            while server.parked_workers() < 3 {
                std::thread::yield_now();
            }
            server.pause_workers();
            let pending: Vec<_> = (0..4u32)
                .map(|i| server.submit(&[QueryRequest::new(n(i), n(39))]).unwrap())
                .collect();
            while server.parked_workers() < 3 {
                std::thread::yield_now();
            }
            server.unpause_workers();
            for p in pending {
                assert!(p.wait().unwrap().answers[0].cost.is_some());
            }
            server.shutdown();
        });
    }

    /// A shutdown may close the queue while a worker is inside its yield
    /// window: 200 start / submit / shutdown cycles, none may hang, and
    /// every admitted job is answered.
    #[test]
    fn a_shutdown_inside_a_yield_window_never_hangs() {
        let (_, snap) = snapshot();
        with_watchdog("shutdown cycles", 120, move || {
            for cycle in 0..200u32 {
                let server = Server::start(snap.clone(), ServeConfig::with_workers(2));
                let pending = server
                    .submit(&[QueryRequest::new(n(cycle % 40), n(39))])
                    .unwrap();
                let stats = server.shutdown();
                assert!(pending.wait().unwrap().answers[0].cost.is_some());
                assert_eq!(stats.requests, 1, "cycle {cycle}");
            }
        });
    }

    /// The per-epoch answer cache serves repeated queries across
    /// micro-batches without re-evaluating them, and the answers stay
    /// identical.
    #[test]
    fn answer_cache_hits_across_micro_batches() {
        let (g, snap) = snapshot();
        let csr = g.closure_graph();
        let server = Server::start(snap, ServeConfig::with_workers(1));
        // Separate jobs → separate micro-batches (single client thread),
        // so the repeats cannot be absorbed by in-batch coalescing.
        let first = server.query(n(0), n(39)).unwrap();
        for _ in 0..5 {
            let again = server.query(n(0), n(39)).unwrap();
            assert_eq!(again.answer.cost, first.answer.cost);
            assert_eq!(again.epoch, 0);
        }
        assert_eq!(
            first.answer.cost,
            baseline::shortest_path_cost(&csr, n(0), n(39))
        );
        let stats = server.shutdown();
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.evaluated, 1, "one evaluation, five cache hits");
        assert_eq!(stats.cache_hits, 5);
        assert_eq!(stats.cache_misses, 1);
        assert!(stats.cache_hit_fraction() > 0.8);
    }

    /// Publication drops the cache: a query repeated across an update is
    /// re-evaluated on the new epoch and reflects the new network — the
    /// cache can never serve an answer from a previous epoch.
    #[test]
    fn answer_cache_is_dropped_on_publication() {
        let (_, snap) = snapshot();
        let f0 = snap.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        let server = Server::start(snap, ServeConfig::with_workers(1));
        let before = server.query(n(0), n(39)).unwrap();
        let cached = server.query(n(0), n(39)).unwrap();
        assert_eq!(cached.answer.cost, before.answer.cost);

        server
            .update(&NetworkUpdate::Insert {
                edge: Edge::new(a, b, 1),
                owner: 0,
            })
            .unwrap();
        let after = server.query(n(0), n(39)).unwrap();
        assert_eq!(after.epoch, 1);
        let snap_now = server.snapshot();
        assert_eq!(
            after.answer.cost,
            baseline::shortest_path_cost(snap_now.graph(), n(0), n(39)),
            "post-update answer reflects the new epoch, not the cache"
        );
        let stats = server.shutdown();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.evaluated, 2, "re-evaluated after the epoch moved");
    }

    /// Disabling the knob really disables the cache.
    #[test]
    fn answer_cache_knob_disables_the_cache() {
        let (_, snap) = snapshot();
        let server = Server::start(
            snap,
            ServeConfig {
                workers: 1,
                answer_cache: false,
                ..ServeConfig::default()
            },
        );
        for _ in 0..4 {
            server.query(n(0), n(39)).unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 0);
        assert_eq!(stats.evaluated, 4, "every request evaluated");
        assert_eq!(stats.cache_hit_fraction(), 0.0);
    }

    /// Satellite guarantee: now that `connected` no longer computes a
    /// distance, a cached `shortest_path` answer can never be served
    /// for a `connected` request on the same `(x, y, epoch)` — the fast
    /// path never probes the answer cache, and the fallback path issues
    /// a genuine shortest-path evaluation whose answer it only reads as
    /// a boolean. This pins the fast path down with counters.
    #[test]
    fn connected_never_reads_the_shortest_path_answer_cache() {
        let (g, snap) = snapshot();
        let csr = g.closure_graph();
        let server = Server::start(snap, ServeConfig::with_workers(1));
        // Warm the per-epoch answer cache with genuine shortest-path
        // answers on exactly the pairs we will ask `connected` about.
        let pairs = [(0u32, 39u32), (3, 17), (5, 5)];
        for &(x, y) in &pairs {
            server.query(n(x), n(y)).unwrap();
        }
        let before = server.stats();
        assert!(!before.reach_index_built, "no reader has asked yet");
        for &(x, y) in &pairs {
            assert_eq!(
                server.connected(n(x), n(y)).unwrap(),
                x == y || baseline::shortest_path_cost(&csr, n(x), n(y)).is_some(),
                "connected({x}, {y})"
            );
        }
        let stats = server.shutdown();
        assert!(stats.reach_index_built, "the first connected built it");
        assert_eq!(
            stats.reach_fast_path - before.reach_fast_path,
            2,
            "both non-trivial pairs hit the index (x == y short-circuits)"
        );
        assert_eq!(
            stats.evaluated, before.evaluated,
            "connected never reached the worker pool"
        );
        assert_eq!(
            stats.cache_hits + stats.cache_misses,
            before.cache_hits + before.cache_misses,
            "connected never probed the answer cache"
        );
    }

    /// The writer builds no reachability index: after an invalidating
    /// update the published epoch's slot is empty, and its first
    /// `connected` builds an index over the post-update network — on the
    /// fast path, never through the pool.
    #[test]
    fn writer_republishes_a_fresh_reach_index() {
        let (_, snap) = snapshot();
        let f0 = snap.fragmentation().fragment(0).clone();
        let e = f0.edges()[0];
        let server = Server::start(snap, ServeConfig::with_workers(1));
        assert!(server.connected(n(0), n(39)).unwrap());
        assert!(server.stats().reach_index_built);
        server
            .update(&NetworkUpdate::Remove {
                src: e.src,
                dst: e.dst,
                owner: 0,
            })
            .unwrap();
        assert_eq!(server.epoch(), 1);
        let snap_now = server.snapshot();
        assert!(
            snap_now.reach_handle().is_none() && !server.stats().reach_index_built,
            "published epoch leaves the index to its readers"
        );
        // And it answers the post-update network.
        for (x, y) in [(0u32, 39u32), (e.src.0, e.dst.0)] {
            assert_eq!(
                server.connected(n(x), n(y)).unwrap(),
                x == y || baseline::shortest_path_cost(snap_now.graph(), n(x), n(y)).is_some(),
                "connected({x}, {y}) after removal"
            );
        }
        let stats = server.shutdown();
        assert!(stats.reach_index_built);
        assert_eq!((stats.reach_fast_path, stats.evaluated), (3, 0));
    }

    /// An index a reader built in the published epoch survives a write
    /// that leaves reachability alone, although the writer maintains its
    /// own copy: a parallel insert and a chord inside the connected grid
    /// each publish an epoch that shares the readers' index.
    #[test]
    fn a_redundant_write_keeps_the_readers_index() {
        let (_, snap) = snapshot();
        let f0 = snap.fragmentation().fragment(0).clone();
        let e = f0.edges()[0];
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        let server = Server::start(snap, ServeConfig::with_workers(1));
        assert!(server.connected(n(0), n(39)).unwrap());
        let built = Arc::clone(server.snapshot().reach_handle().unwrap());
        let updates = [
            NetworkUpdate::Insert {
                edge: Edge::new(e.src, e.dst, e.cost + 1),
                owner: 0,
            },
            NetworkUpdate::Insert {
                edge: Edge::new(a, b, 100),
                owner: 0,
            },
        ];
        for (epoch, update) in (1..).zip(&updates) {
            server.update(update).unwrap();
            assert_eq!(server.epoch(), epoch, "{update:?} is effective");
            assert!(server.stats().reach_index_built, "{update:?}");
            let kept = server.snapshot();
            assert!(
                Arc::ptr_eq(&built, kept.reach_handle().unwrap()),
                "{update:?} keeps the readers' index"
            );
        }
        assert!(server.connected(n(0), n(39)).unwrap());
        let stats = server.shutdown();
        assert_eq!((stats.reach_fast_path, stats.evaluated), (2, 0));
    }

    /// Load shedding: with the workers frozen, submissions beyond the
    /// queue capacity are rejected with the retry-after hint instead of
    /// blocking the producer, and the depth/rejection stats record the
    /// pressure. Releasing the workers drains the admitted jobs.
    #[test]
    fn full_queue_sheds_with_retry_after_hint() {
        let (_, snap) = snapshot();
        let retry_after = std::time::Duration::from_micros(750);
        let server = Server::start(
            snap,
            ServeConfig {
                workers: 1,
                queue_capacity: 2,
                retry_after,
                ..ServeConfig::default()
            },
        );
        server.pause_workers();
        let p1 = server.submit(&[QueryRequest::new(n(0), n(39))]).unwrap();
        let p2 = server.submit(&[QueryRequest::new(n(1), n(38))]).unwrap();
        let rejected = server.submit(&[QueryRequest::new(n(2), n(37))]);
        assert_eq!(rejected.unwrap_err(), server::Overloaded { retry_after });
        assert!(matches!(
            server.try_query_batch(&[QueryRequest::new(n(2), n(37))]),
            Err(server::ServeError::Overloaded { attempts: 1, .. })
        ));
        {
            let stats = server.stats();
            assert_eq!(stats.queue_depth, 2, "both admitted jobs still queued");
            assert_eq!(stats.queue_high_water, 2);
            assert_eq!(stats.queue_capacity, 2);
            assert_eq!(stats.queue_rejections, 2);
        }
        server.unpause_workers();
        assert!(p1.wait().unwrap().answers[0].cost.is_some());
        assert!(p2.wait().unwrap().answers[0].cost.is_some());
        // With space free again, the blocking wrapper goes straight in.
        assert!(server.query(n(2), n(37)).unwrap().answer.cost.is_some());
        let stats = server.shutdown();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.queue_depth, 0, "drained");
        assert_eq!(stats.queue_rejections, 2);
    }

    /// The blocking wrapper's admission retries are bounded: with the
    /// workers frozen and the queue full, `query_batch` backs off
    /// `max_admission_retries` times and then returns the typed
    /// overload error instead of spinning forever.
    #[test]
    fn blocking_wrapper_gives_up_after_bounded_retries() {
        let (_, snap) = snapshot();
        let server = Server::start(
            snap,
            ServeConfig {
                workers: 1,
                queue_capacity: 1,
                retry_after: std::time::Duration::from_micros(50),
                max_admission_retries: 3,
                ..ServeConfig::default()
            },
        );
        server.pause_workers();
        let p = server.submit(&[QueryRequest::new(n(0), n(39))]).unwrap();
        match server.query_batch(&[QueryRequest::new(n(1), n(38))]) {
            Err(ServeError::Overloaded { attempts, .. }) => assert_eq!(attempts, 4),
            other => panic!("expected bounded-retry overload, got {other:?}"),
        }
        server.unpause_workers();
        assert!(p.wait().unwrap().answers[0].cost.is_some());
        server.shutdown();
    }

    /// The admission back-off is decorrelated jitter, not lockstep
    /// doubling: deterministic per seed, bounded by `[base, cap]`, and
    /// different seeds produce different sleep sequences.
    #[test]
    fn admission_backoff_is_seeded_bounded_decorrelated_jitter() {
        use std::time::Duration;
        let base = Duration::from_micros(50);
        let cap = base * 64;
        let seq = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(base, cap, seed);
            (0..32).map(|_| b.next_delay()).collect()
        };
        let a = seq(42);
        assert_eq!(a, seq(42), "same seed, same sequence");
        let b = seq(43);
        assert_ne!(a, b, "different seeds decorrelate");
        for (i, d) in a.iter().chain(&b).enumerate() {
            assert!(*d >= base && *d <= cap, "sleep {i} ({d:?}) out of bounds");
        }
        // Jitter actually jitters: the sequence is not the deterministic
        // doubling ladder base, 2*base, 4*base, ...
        assert!(
            a.iter()
                .enumerate()
                .any(|(i, d)| *d != (base * 2u32.pow(i.min(6) as u32)).min(cap)),
            "sequence degenerated to lockstep doubling: {a:?}"
        );
    }

    /// A worker panic mid-batch resolves every in-flight request with
    /// the typed `WorkerFailed` error (no hang), the supervisor keeps
    /// the pool alive, and the server serves correctly afterwards.
    #[test]
    fn worker_panic_is_isolated_and_the_pool_recovers() {
        let (g, snap) = snapshot();
        let csr = g.closure_graph();
        let plan = Arc::new(FaultPlan::new().panic_at(FaultPoint::ServeWorker { worker: 0 }, 1));
        let server = Server::start(
            snap,
            ServeConfig {
                workers: 1,
                fault: Some(Arc::clone(&plan)),
                ..ServeConfig::default()
            },
        );
        // First job hits the injected panic: typed error, not a hang.
        assert!(matches!(
            server.query(n(0), n(39)),
            Err(ServeError::Request(ds_closure::ClosureError::WorkerFailed))
        ));
        assert!(plan.exhausted());
        // The pool recovered: the same query is now answered exactly.
        let served = server.query(n(0), n(39)).unwrap();
        assert_eq!(
            served.answer.cost,
            baseline::shortest_path_cost(&csr, n(0), n(39))
        );
        let stats = server.shutdown();
        assert_eq!(stats.worker_restarts, 1);
        assert!(!stats.degraded, "a worker panic never degrades writes");
    }

    /// A writer *panic* is survivable: the in-flight update resolves
    /// with the typed `WriterRestarted` (not applied — retry), the
    /// supervisor respawns the writer from the last published
    /// snapshot, and the retried update applies exactly.
    #[test]
    fn writer_panic_respawns_and_updates_resume() {
        let (g, snap) = snapshot();
        let csr = g.closure_graph();
        let f0 = snap.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        let plan = Arc::new(FaultPlan::new().panic_at(FaultPoint::ServeWriter, 1));
        let server = Server::start(
            snap,
            ServeConfig {
                workers: 2,
                fault: Some(Arc::clone(&plan)),
                ..ServeConfig::default()
            },
        );
        let insert = NetworkUpdate::Insert {
            edge: Edge::new(a, b, 1),
            owner: 0,
        };
        assert!(matches!(
            server.update(&insert),
            Err(ds_closure::ClosureError::WriterRestarted)
        ));
        assert!(plan.exhausted());
        assert_eq!(server.epoch(), 0, "the doomed update published nothing");
        // The retry hits the respawned writer and applies exactly.
        let served = server.update(&insert).unwrap();
        assert_eq!(served.epoch, 1);
        let after = server.query(n(0), n(39)).unwrap();
        assert_eq!(after.epoch, 1);
        let snap_now = server.snapshot();
        assert_eq!(
            after.answer.cost,
            baseline::shortest_path_cost(snap_now.graph(), n(0), n(39))
        );
        assert!(after.answer.cost <= baseline::shortest_path_cost(&csr, n(0), n(39)));
        let stats = server.shutdown();
        assert_eq!(stats.writer_restarts, 1);
        assert!(!stats.degraded, "a writer panic no longer degrades");
        assert_eq!(stats.updates, 1);
        assert!(stats.to_string().contains("1 writer restarts"));
    }

    /// A *non-unwind* writer failure (`FaultAction::Fail`) is the
    /// permanent death: no respawn, read-only degraded mode, every
    /// update — in-flight and future — refused with `WriterDown`.
    #[test]
    fn writer_fail_injection_degrades_to_read_only() {
        let (g, snap) = snapshot();
        let csr = g.closure_graph();
        let f0 = snap.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        let plan = Arc::new(FaultPlan::new().fail_at(FaultPoint::ServeWriter, 1));
        let server = Server::start(
            snap,
            ServeConfig {
                workers: 2,
                fault: Some(plan),
                ..ServeConfig::default()
            },
        );
        let insert = NetworkUpdate::Insert {
            edge: Edge::new(a, b, 1),
            owner: 0,
        };
        assert!(matches!(
            server.update(&insert),
            Err(ds_closure::ClosureError::WriterDown)
        ));
        assert!(
            matches!(
                server.update(&insert),
                Err(ds_closure::ClosureError::WriterDown)
            ),
            "degraded mode refuses every later update"
        );
        // Reads keep serving the last published epoch.
        let served = server.query(n(0), n(39)).unwrap();
        assert_eq!(served.epoch, 0);
        assert_eq!(
            served.answer.cost,
            baseline::shortest_path_cost(&csr, n(0), n(39))
        );
        let stats = server.shutdown();
        assert!(stats.degraded);
        assert_eq!(stats.writer_restarts, 0, "Fail never respawns");
        assert_eq!(stats.epoch, 0, "the failed update published nothing");
        assert!(stats.to_string().contains("DEGRADED"));
    }

    /// Armed observability: every answered request leaves a trace with
    /// a complete span set, counters land in the registry, the workload
    /// recorder sees the hot pair, and the disarmed server answers
    /// identically (the observability oracle).
    #[test]
    fn armed_observability_traces_requests_end_to_end() {
        use ds_obs::{Observability, Stage, TraceOutcome};
        let (_, snap) = snapshot();
        let disarmed_snap = snap.clone();
        let obs = Observability::armed();
        let server = Server::start(
            snap,
            ServeConfig {
                workers: 2,
                obs: Some(obs.clone()),
                ..ServeConfig::default()
            },
        );
        // A hot pair (repeated → cache hits) plus distinct pairs.
        let mut answers = Vec::new();
        for i in 0..4u32 {
            answers.push(server.query(n(0), n(39)).unwrap().answer.cost);
            answers.push(server.query(n(i), n(30 + i)).unwrap().answer.cost);
        }
        // The reads filled access sets at the sites their endpoints lie in.
        let read_epoch = server.snapshot();
        assert!(read_epoch.site_handle(0).memory_bytes().access_sets > 0);
        // One update so the writer trace and epoch gauge move too.
        let f0 = server.snapshot().fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        server
            .update(&NetworkUpdate::Insert {
                edge: Edge::new(a, b, 1),
                owner: 0,
            })
            .unwrap();
        assert!(server.connected(n(0), n(39)).unwrap());

        let traces = obs.tracer().recent(64);
        assert!(!traces.is_empty());
        for rt in &traces {
            match rt.outcome {
                TraceOutcome::Answered | TraceOutcome::Unreachable => {
                    if rt.span(Stage::ReachIndex).is_some() {
                        continue; // connected fast path: one marker span
                    }
                    assert!(rt.span(Stage::QueueWait).is_some(), "{rt}");
                    let resolved = rt.span(Stage::Evaluation).is_some()
                        || rt.span(Stage::CacheHit).is_some()
                        || rt.span(Stage::Coalesced).is_some();
                    assert!(resolved, "no resolution span: {rt}");
                }
                TraceOutcome::Applied => {
                    assert!(rt.span(Stage::WriterApply).is_some(), "{rt}");
                    assert!(rt.span(Stage::Publication).is_some(), "{rt}");
                }
                other => panic!("unexpected outcome {other:?} in {rt}"),
            }
        }
        let snap_metrics = obs.snapshot();
        assert_eq!(snap_metrics.counter("serve_requests"), Some(8));
        assert!(snap_metrics.counter("serve_cache_hits").unwrap_or(0) >= 1);
        assert_eq!(snap_metrics.counter("serve_updates"), Some(1));
        assert_eq!(snap_metrics.gauge("serve_epoch"), Some(1));
        // The access sets: site 0 was rebuilt and starts with none, the
        // far sites keep theirs, and the gauge says how much.
        let held = server.snapshot().memory_bytes();
        assert_eq!(
            server.snapshot().site_handle(0).memory_bytes().access_sets,
            0
        );
        assert!(held.access_sets > 0);
        assert!(held.access_sets < read_epoch.memory_bytes().access_sets);
        for (component, bytes) in held.components() {
            let gauge = match component {
                "reach_index" => {
                    // Sampled at the publication; the `connected` after it
                    // built the index.
                    assert!(bytes > 0);
                    let gauge = snap_metrics.gauge("serve_snapshot_reach_index_bytes");
                    assert_eq!(gauge, Some(0));
                    continue;
                }
                c => format!("serve_snapshot_{c}_bytes"),
            };
            assert_eq!(snap_metrics.gauge(&gauge), Some(bytes as u64), "{gauge}");
        }
        assert_eq!(snap_metrics.counter("serve_reach_fast_path"), Some(1));
        let hist = snap_metrics
            .histogram("request_latency_ns")
            .expect("latency histogram registered");
        assert!(hist.count() >= 8);
        let hot = obs.workload().top_vertex_pairs(1);
        assert_eq!(
            (hot[0].a, hot[0].b),
            (0, 39),
            "the repeated pair is the hottest"
        );

        let stats = server.shutdown();
        // Oracle: a disarmed server answers every query identically.
        let disarmed = Server::start(disarmed_snap, ServeConfig::with_workers(2));
        let mut oracle = Vec::new();
        for i in 0..4u32 {
            oracle.push(disarmed.query(n(0), n(39)).unwrap().answer.cost);
            oracle.push(disarmed.query(n(i), n(30 + i)).unwrap().answer.cost);
        }
        assert_eq!(answers, oracle, "tracing never changes answers");
        let dstats = disarmed.shutdown();
        assert_eq!(stats.requests, dstats.requests);
    }

    /// Durable serving end-to-end: updates applied through a WAL-on
    /// server survive a full stop, and a server restarted from
    /// `recover` answers identically at the recovered epoch.
    #[test]
    fn durable_updates_survive_a_restart() {
        let (_, snap) = snapshot();
        let dir = tmpdir("restart");
        let f0 = snap.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        let config = ServeConfig {
            workers: 1,
            durability: Some(DurabilityConfig::at(&dir)),
            ..ServeConfig::default()
        };
        let server = Server::start(snap, config.clone());
        for cost in [3u64, 2, 1] {
            server
                .update(&NetworkUpdate::Insert {
                    edge: Edge::new(a, b, cost),
                    owner: 0,
                })
                .unwrap();
        }
        let final_answer = server.query(n(0), n(39)).unwrap();
        let stats = server.shutdown(); // process death, simulated politely
        assert_eq!(stats.epoch, 3);
        assert_eq!(stats.wal_records, 3);
        assert!(stats.wal_commits >= 1 && stats.wal_commits <= 3);
        assert_eq!(stats.wal_failures, 0);
        assert!(stats.to_string().contains("wal 3 records"));

        let rec = recover(&dir).expect("recover the durable state");
        assert_eq!(rec.epoch, 3);
        let revived = Server::try_start_at(rec.snapshot, rec.epoch, config).unwrap();
        let again = revived.query(n(0), n(39)).unwrap();
        assert_eq!(again.epoch, 3, "resumes at the recovered epoch");
        assert_eq!(again.answer.cost, final_answer.answer.cost);
        // And the revived server keeps appending to the same log.
        revived
            .update(&NetworkUpdate::Remove {
                src: a,
                dst: b,
                owner: 0,
            })
            .unwrap();
        revived.shutdown();
        let rec2 = recover(&dir).expect("recover again");
        assert_eq!(rec2.epoch, 4, "the post-restart update is durable too");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An injected WAL append failure refuses the update with the typed
    /// `DurabilityFailed`, applies nothing, and the server keeps
    /// serving; the repaired log accepts the retry.
    #[test]
    fn wal_append_failure_refuses_the_update_without_applying() {
        let (_, snap) = snapshot();
        let dir = tmpdir("append-fail");
        let f0 = snap.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        let plan = Arc::new(FaultPlan::new().fail_at(FaultPoint::WalAppend, 1));
        let server = Server::start(
            snap,
            ServeConfig {
                workers: 1,
                durability: Some(DurabilityConfig::at(&dir)),
                fault: Some(Arc::clone(&plan)),
                ..ServeConfig::default()
            },
        );
        let insert = NetworkUpdate::Insert {
            edge: Edge::new(a, b, 1),
            owner: 0,
        };
        assert!(matches!(
            server.update(&insert),
            Err(ds_closure::ClosureError::DurabilityFailed)
        ));
        assert_eq!(server.epoch(), 0, "append-before-apply: nothing applied");
        assert!(server.query(n(0), n(39)).unwrap().answer.cost.is_some());
        // The rule is one-shot: the retry goes through the repaired log.
        assert_eq!(server.update(&insert).unwrap().epoch, 1);
        let stats = server.shutdown();
        assert_eq!(stats.wal_failures, 1);
        assert_eq!(stats.wal_records, 1);
        assert!(!stats.degraded, "a disk fault never degrades the writer");
        let rec = recover(&dir).expect("recover");
        assert_eq!(rec.epoch, 1, "only the acknowledged update is durable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An injected writer *panic* at the WAL append point kills the
    /// writer before bytes land: the supervisor respawns it, the redo
    /// suffix is empty, and live state still matches the durable state.
    #[test]
    fn writer_panic_at_wal_append_respawns_consistently() {
        let (_, snap) = snapshot();
        let dir = tmpdir("panic-append");
        let f0 = snap.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        let plan = Arc::new(FaultPlan::new().panic_at(FaultPoint::WalAppend, 1));
        let server = Server::start(
            snap,
            ServeConfig {
                workers: 1,
                durability: Some(DurabilityConfig::at(&dir)),
                fault: Some(Arc::clone(&plan)),
                ..ServeConfig::default()
            },
        );
        let insert = NetworkUpdate::Insert {
            edge: Edge::new(a, b, 1),
            owner: 0,
        };
        assert!(matches!(
            server.update(&insert),
            Err(ds_closure::ClosureError::WriterRestarted)
        ));
        assert_eq!(server.epoch(), 0);
        // Respawned writer, clean log: the retry applies and persists.
        assert_eq!(server.update(&insert).unwrap().epoch, 1);
        let stats = server.shutdown();
        assert_eq!(stats.writer_restarts, 1);
        let rec = recover(&dir).expect("recover");
        assert_eq!(rec.epoch, 1, "durable state matches the live outcome");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Jobs queued past their deadline are shed with the typed
    /// `DeadlineExceeded { waited }` error and counted.
    #[test]
    fn expired_jobs_are_shed_with_a_typed_error() {
        let (_, snap) = snapshot();
        let deadline = std::time::Duration::from_millis(5);
        let server = Server::start(
            snap,
            ServeConfig {
                workers: 1,
                deadline: Some(deadline),
                ..ServeConfig::default()
            },
        );
        server.pause_workers();
        let stale = server.submit(&[QueryRequest::new(n(0), n(39))]).unwrap();
        std::thread::sleep(deadline * 4);
        server.unpause_workers();
        match stale.wait() {
            Err(ds_closure::ClosureError::DeadlineExceeded { waited }) => {
                assert!(waited >= deadline, "{waited:?} past the deadline")
            }
            other => panic!("expected a deadline shed, got {other:?}"),
        }
        // A fresh request (no queueing delay) is served normally.
        assert!(server.query(n(0), n(39)).unwrap().answer.cost.is_some());
        let stats = server.shutdown();
        assert_eq!(stats.deadline_shed, 1);
        assert_eq!(stats.requests, 1, "only the fresh request was served");
    }

    /// A delay injected at the worker hook lands *after* the queue-time
    /// shed check but before evaluation: the job is still within its
    /// deadline when drained and only blows it mid-evaluation, where
    /// the cooperative deadline check inside the batch kernel abandons
    /// it — counted in `deadline_cancelled`, not `deadline_shed`.
    #[test]
    fn slow_evaluation_is_cancelled_mid_eval_with_a_typed_error() {
        let (_, snap) = snapshot();
        let deadline = std::time::Duration::from_millis(20);
        let plan = Arc::new(FaultPlan::new().delay_at(
            FaultPoint::ServeWorker { worker: 0 },
            1,
            deadline * 5,
        ));
        let server = Server::start(
            snap,
            ServeConfig {
                workers: 1,
                deadline: Some(deadline),
                fault: Some(plan),
                ..ServeConfig::default()
            },
        );
        match server.query(n(0), n(39)) {
            Err(ServeError::Request(ds_closure::ClosureError::DeadlineExceeded { waited })) => {
                assert!(waited >= deadline, "{waited:?} past the deadline")
            }
            other => panic!("expected a mid-eval cancellation, got {other:?}"),
        }
        // The one-shot delay rule has fired; fresh requests serve
        // normally again.
        assert!(server.query(n(0), n(39)).unwrap().answer.cost.is_some());
        let stats = server.shutdown();
        assert_eq!(stats.deadline_cancelled, 1);
        assert_eq!(
            stats.deadline_shed, 0,
            "the job never queued past its deadline"
        );
    }
}
