//! The one bench of the workspace: the checks that `BENCHMARK.json`
//! cannot make, because they are exact counts or ratios of two arms of
//! one run. Timings, throughput and per-layer costs are the
//! benchmark's (`examples/benchmark`); the only absolute times here are
//! the reported, ungated write-cost rows below.
//!
//! Exits non-zero if (see `ds_bench::gates` for the checks themselves)
//!
//! * **warm sweeps** — on a cyclic, fat-bordered general graph whose
//!   fragments keep border-free rows (at most `ROW_NODES` nodes each) a
//!   warm request runs a Dijkstra sweep at all, whether its endpoints lie
//!   in different fragments or are two non-border nodes of one;
//! * **reach index** — `connected` through the SCC/chain index (which
//!   takes no scratch, so it cannot sweep; built before the timing, as
//!   the first `connected` of an epoch would) is less than 5x faster than
//!   the shortest-path arm it replaced, on any seed; or that arm, in one
//!   fragment far above `ROW_NODES`, runs anything but one point sweep
//!   per query or keeps a row;
//! * **write sweeps** — on a fixed symmetric fixture (a 9 x 3 grid cut
//!   into three fragments by columns), read from the caller's
//!   `ScratchStats`: a warm interior delete that affects no pair, or its
//!   re-insert, runs anything but exactly 4 sweeps (per endpoint, one of
//!   its cell and one of the kept skeleton: the closure graph is its own
//!   transpose) or grows the scratch; a crossing insert runs anything
//!   but its 2 endpoint skeleton sweeps or re-sweeps a fragment; or a
//!   delete that affects some pairs sweeps anything but its endpoints
//!   (a skeleton sweep each, after a cell sweep for a non-border one),
//!   the borders of its fragment when it changed one of the fragment's
//!   local-sweep edges, and one re-close per root of the affected pairs'
//!   cover — for a crossing delete between two border nodes of the
//!   shared column, exactly 4 (2 + 0 + 2) sweeps and 2 roots; for an
//!   interior one, 8 (3 + 3 + 2) and 2;
//! * **publication** — the structurally shared per-epoch clone is less
//!   than 5x cheaper than `EngineSnapshot::unshared_clone` after one
//!   update's worth of touched sites, on any seed;
//! * **materialize** — the first full closure of an epoch of the
//!   benchmark's transportation graph (12 clusters of 100 nodes) runs
//!   anything but one sweep of the border skeleton per border (the hub)
//!   and one fragment sweep per other non-isolated node (its border-free
//!   row, which fills its exit set too) plus the fill of the exit sets no
//!   row filled, or folds anything but one border row per border (every
//!   border is a source); the second call of the epoch sweeps at all or
//!   folds a border row; either call sweeps the whole graph; or a warm
//!   call is less than 2x faster than one `ScratchDijkstra` sweep of the
//!   whole graph per source writing the same relation, both on one
//!   thread, on any seed — "thin disconnection sets pay";
//! * **kernel** — on the same graph, one reused `ScratchDijkstra` sweep
//!   per source (the indexed 4-ary heap every layer runs on) is less
//!   than 1.3x faster than the one-shot lazy-heap `multi_source` it is
//!   tested against, on any seed;
//! * **scores** — on the same graph, the center-based status scores by
//!   one whole-graph BFS per node (`center::status_scores_reference`) are
//!   less than 5x slower than `center::status_scores`, the bit-parallel
//!   kernel that runs 64 sources per BFS pass, on any seed; the two
//!   (compared once, outside the timing) must agree bit for bit;
//! * **wal** — in a pure write path (16 closed-loop updaters) with
//!   fsync'd group commits, the log holds anything but one record per
//!   acknowledged write, or no group commit folded two records, in any
//!   round on any seed.
//!
//! Reported, not gated: `materialize-cold-ns` and `materialize-warm-ns`
//! (the first call of a fresh epoch, built outside the timing, and a
//! later one, both on one thread), `materialize-warm-one-over-two-threads`
//! (a warm call on one thread over the same call on two: above 1 when
//! the second worker helps), `wal-on-over-wal-off-throughput` (the same write
//! path without a log over with it, best of three interleaved rounds; a
//! cheaper `maintain` speeds the log-off arm, so the ratio falls by
//! construction, and it swings with the shared disk),
//! `obs-armed-over-disarmed` (a 95/5 read/write mix with a live `ds_obs`
//! bundle over the same mix without) and the `write-mixed-*-ns` rows:
//! `maintain`'s wall time per write on `serve_mixed_durable`'s graph and
//! write streams (the benchmark's pinned sizes and write-stream rule, one
//! thread, the previous epoch retained), per class — interior or
//! crossing, delete or re-insert; the row's median is the class median —
//! and the mean over every write. Also reported only, because they
//! depend on the scheduler: `serve-closed-wakes-per-job` and
//! `serve-closed-parks-per-job`, from a closed-loop hammer shaped like
//! the benchmark's closed phase (2 clients x 8 reads in flight on 2
//! workers, 20,000 reads each) — the worker wakes and reply parks over
//! the jobs served, i.e. how often either side of the hand-off was still
//! asleep after its yield window.
//!
//! Writes `BENCH_gates.json` (repo root): one row per count or ratio,
//! min / median / max over the seeds, plus the runner's `nproc`.
//!
//! ```text
//! cargo bench -p ds-bench --bench gates
//! ```

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use discset::{Fragmenter, System};
use ds_bench::gates::{exact_count, group_commit, no_sweeps, ratio_floor, worst_ratio, Pair};
use ds_bench::harness::{write_json, Bench};
use ds_closure::api::{NetworkUpdate, QueryRequest};
use ds_closure::local::ROW_NODES;
use ds_closure::{EngineConfig, EngineSnapshot};
use ds_fragment::center::{center_based, status_scores, status_scores_reference, CenterConfig};
use ds_fragment::linear::LinearConfig;
use ds_fragment::{semantic, CrossingPolicy, Fragment, Fragmentation};
use ds_gen::{
    generate_ellipse, generate_general, generate_scale, generate_transportation, EllipseConfig,
    GeneralConfig, GeneratedGraph, ScaleConfig, TransportationConfig,
};
use ds_graph::dijkstra::multi_source;
use ds_graph::{Edge, NodeId, ScratchDijkstra, ScratchStats};
use ds_obs::Observability;
use ds_relation::bulk::{FragmentPartition, MaterializeConfig, MaterializeStats};
use ds_relation::PathTuple;
use ds_serve::{DurabilityConfig, ServeConfig, ServeStats, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator seeds every paired measurement is repeated on; a floor is
/// held against the worst of them.
const SEEDS: [u64; 3] = [1, 2, 3];
const FLOOR_REACH_INDEX: f64 = 5.0;
const FLOOR_PUBLICATION: f64 = 5.0;
const FLOOR_MATERIALIZE: f64 = 2.0;
const FLOOR_KERNEL: f64 = 1.3;
const FLOOR_SCORES: f64 = 5.0;
/// Closed-loop clients of the serve pairs, over `WORKERS` pool workers,
/// each thinking `THINK` between its `OPS_PER_CLIENT` operations.
const CLIENTS: usize = 16;
const WORKERS: usize = 4;
const OPS_PER_CLIENT: usize = 120;
const THINK: Duration = Duration::from_micros(600);
/// Interleaved rounds per seed of a serve pair (best of each arm).
const ROUNDS: usize = 3;
/// The hand-off hammer, shaped like the benchmark's closed phase: this
/// many clients, each keeping `HANDOFF_IN_FLIGHT` reads outstanding,
/// on as many workers, zero think time, `HANDOFF_READS` reads each.
const HANDOFF_CLIENTS: usize = 2;
const HANDOFF_IN_FLIGHT: usize = 8;
const HANDOFF_READS: usize = 20_000;

/// Warm sweeps on the cyclic general graph (center-grown fragments, fat
/// borders, ~9 chains per query): a warm batch of 64 requests, then each
/// request again on its own. Returns the requests and the sweeps the
/// warm part ran.
fn warm_sweeps() -> (usize, u64) {
    let nodes = 300u32;
    let g = generate_general(
        &GeneralConfig {
            nodes: nodes as usize,
            target_edges: 900,
            c2: 0.15,
            ..GeneralConfig::default()
        },
        1,
    );
    let frag = center_based(
        &g.edge_list(),
        &CenterConfig {
            fragments: 4,
            ..CenterConfig::default()
        },
    )
    .expect("center-based fragmentation")
    .fragmentation;
    let config = EngineConfig {
        max_chains: 8,
        max_chain_len: 5,
        ..EngineConfig::default()
    };
    let snapshot = EngineSnapshot::build(frag, true, config);
    let frag = snapshot.fragmentation();
    assert!(!frag.fragmentation_graph().is_acyclic());
    let small = |f: &Fragment| f.nodes().len() <= ROW_NODES;
    assert!(frag.fragments().iter().all(small), "sites keep rows");
    let requests: Vec<QueryRequest> = (0..64u32)
        .map(|i| QueryRequest::new(NodeId(i * 37 % nodes), NodeId((i * 101 + 13) % nodes)))
        .collect();
    let mut scratch = ScratchDijkstra::new();
    // Fills the memos, access sets and border-free rows.
    snapshot.query_batch(&requests, &mut scratch);
    let before = scratch.stats().sweeps;
    snapshot.query_batch(&requests, &mut scratch);
    for r in &requests {
        snapshot.shortest_path(r.source, r.target, &mut scratch);
    }
    (requests.len(), scratch.stats().sweeps - before)
}

/// What one seed's shortest-path arm of the reach pair ran in one more,
/// counted pass.
struct DijkstraPass {
    /// Queries of two distinct nodes.
    queries: u64,
    sweeps: u64,
    /// The snapshot's access sets and border-free rows after the pass.
    row_bytes: u64,
}

/// `connected` through the reach index against the shortest-path arm, on
/// a 20k-node graph in one fragment (no borders, and far above
/// `ROW_NODES`: the Dijkstra arm is one point sweep per query, every time
/// it runs, and keeps no row). Returns a counted pass of the Dijkstra arm
/// per seed and the per-seed (Dijkstra over index) pairs.
fn reach_index(bench: &mut Bench) -> (Vec<DijkstraPass>, Vec<Pair>) {
    let cfg = ScaleConfig {
        nodes: 20_000,
        out_degree: 2,
    };
    let mut passes = Vec::new();
    let pairs = SEEDS
        .iter()
        .map(|&seed| {
            let graph = generate_scale(&cfg, seed);
            let edges: Vec<Edge> = graph.edges().collect();
            let all: Vec<NodeId> = graph.nodes().collect();
            let frag = Fragmentation::new(graph.node_count(), vec![edges], vec![all]);
            let snap = EngineSnapshot::build(frag, false, EngineConfig::default());
            snap.ensure_reach();
            let queries: Vec<(NodeId, NodeId)> = (0..64usize)
                .map(|i| {
                    (
                        NodeId(((i * 7919 + 3) % cfg.nodes) as u32),
                        NodeId(((i * 104_729 + 11) % cfg.nodes) as u32),
                    )
                })
                .collect();
            let index_ns = bench
                .run(&format!("reach/index/seed-{seed}"), || {
                    let hits = queries.iter().filter(|&&(x, y)| snap.connected(x, y));
                    hits.count()
                })
                .median_ns;
            let mut scratch = ScratchDijkstra::new();
            let dijkstra = |scratch: &mut ScratchDijkstra| {
                let hits = queries
                    .iter()
                    .filter(|&&(x, y)| x == y || snap.shortest_path(x, y, scratch).cost.is_some());
                hits.count()
            };
            let dijkstra_ns = bench
                .run(&format!("reach/dijkstra/seed-{seed}"), || {
                    dijkstra(&mut scratch)
                })
                .median_ns;
            let before = scratch.stats().sweeps;
            dijkstra(&mut scratch);
            passes.push(DijkstraPass {
                queries: queries.iter().filter(|(x, y)| x != y).count() as u64,
                sweeps: scratch.stats().sweeps - before,
                row_bytes: snap.memory_bytes().access_sets as u64,
            });
            Pair {
                seed,
                numerator_ns: dijkstra_ns,
                denominator_ns: index_ns,
            }
        })
        .collect();
    (passes, pairs)
}

/// What one delete that affects some sources swept, beside what the
/// write rule predicts for it: its endpoint sweeps (a skeleton sweep per
/// endpoint, after a cell sweep unless it is a border), the local
/// re-sweeps of a fragment whose local-sweep edge it changed, and one
/// re-close per skeleton source it closed from.
struct AffectedDelete {
    sweeps: u64,
    endpoint_sweeps: u64,
    local_resweeps: u64,
    closed_sources: u64,
}

impl AffectedDelete {
    fn expected(&self) -> u64 {
        self.endpoint_sweeps + self.local_resweeps + self.closed_sources
    }

    fn what(&self) -> String {
        format!(
            "{} endpoint sweeps + {} local re-sweeps + {} re-closes, one per root of the \
             affected pairs' cover",
            self.endpoint_sweeps, self.local_resweeps, self.closed_sources
        )
    }
}

/// What the write path swept on the write-rule fixture, read from the
/// caller's scratch: per interior toggle (delete, re-insert), one
/// crossing insert, then one crossing and one interior delete that
/// affect some sources.
struct WriteSweeps {
    interior_delete: ScratchStats,
    reinsert: ScratchStats,
    crossing_insert: u64,
    /// Fragments the crossing insert re-swept.
    crossing_insert_resweeps: u64,
    crossing: AffectedDelete,
    interior: AffectedDelete,
    borders: u64,
}

/// The skeleton sources a crossing delete of the fixture's twin `X`
/// re-closes from. The pairs it affects are `3 - 21` themselves, `6 - 21`
/// and `24 - 3`, whose shortest routes tie through `X`, each in both
/// directions (`12` and `15` reach every partner more cheaply). On a
/// symmetric network one sweep serves a pair both ways, so the re-close
/// sweeps from a cover of the pairs: `3` (to `21` and `24`) and `21` (to
/// `6`).
const CROSSING_CLOSED_SOURCES: u64 = 2;

/// The skeleton sources an interior delete of the fixture's chord
/// `Y = 2 - 21` re-closes from. The pairs it affects are `3 - 21`, whose
/// distance 2 ties through `3 - 2 - 21`; `6 - 21`, whose route
/// `6 - 5 - 4 - 3 - 2 - 21` ties with its distance 5; and `24 - 3`, whose
/// route ties the same way — covered, like `X`'s, by `3` and `21`.
const INTERIOR_CLOSED_SOURCES: u64 = 2;

/// A 9 x 3 unit grid cut into three fragments by columns — 0..=3, 3..=6
/// and 6..=8, so columns 3 and 6 are the borders (3 + 3 nodes) — plus a
/// chord of cost 1000 between two interior nodes of the middle fragment,
/// which no shortest path uses. The chord is deleted and re-inserted
/// twice (the second round is the one counted, warm): each write sweeps
/// each endpoint's cell and the skeleton from the borders it touches,
/// and re-sweeps nothing, because the chord realizes none of fragment 1's
/// local-sweep edges. Then, each on a fresh copy, two edges that tie with
/// shortest routes are inserted and deleted again. The middle fragment's
/// `X = 3 - 21` of cost 2 — a twin of column 3's path `3 - 12 - 21`,
/// between two borders the first fragment holds too — is a
/// disconnection-set crossing: a skeleton edge of its own, so its insert
/// and delete sweep the skeleton from its 2 endpoints and re-sweep no
/// fragment. The first fragment's `Y = 2 - 21` of cost 1 has an interior
/// endpoint and realizes fragment 0's local-sweep edge `3 -> 21` (cost 2
/// beside 4 around `3 - 2 - 11 - 20 - 21`), so its delete also re-sweeps
/// fragment 0's 3 borders. Each delete re-closes the skeleton only for
/// the pairs whose shortest routes the edge carries, one sweep per root
/// of their cover.
fn write_sweeps() -> WriteSweeps {
    let (w, h) = (9u32, 3u32);
    let id = |c: u32, r: u32| NodeId(r * w + c);
    let owner = |c: u32| (c / 3).min(2) as usize;
    let mut sets = vec![Vec::new(); 3];
    for r in 0..h {
        for c in 0..w {
            if c + 1 < w {
                sets[owner(c)].push(Edge::unit(id(c, r), id(c + 1, r)));
            }
            if r + 1 < h {
                sets[owner(c)].push(Edge::unit(id(c, r), id(c, r + 1)));
            }
        }
    }
    let frag = Fragmentation::new((w * h) as usize, sets, vec![Vec::new(); 3]);
    let built = EngineSnapshot::build(frag, true, EngineConfig::default());
    let mut scratch = ScratchDijkstra::new();
    let chord = Edge::new(id(4, 0), id(5, 2), 1000);
    let insert = NetworkUpdate::Insert {
        edge: chord,
        owner: 1,
    };
    let delete = NetworkUpdate::Remove {
        src: chord.src,
        dst: chord.dst,
        owner: 1,
    };
    let mut snap = built.clone();
    snap.maintain(&insert, &mut scratch)
        .expect("chord inside fragment 1");
    let mut counted = |update: &NetworkUpdate, snap: &mut EngineSnapshot| {
        let before = scratch.stats();
        let report = snap.maintain(update, &mut scratch).expect("valid update");
        assert!(!report.full_recompute, "{update:?}: {report:?}");
        let after = scratch.stats();
        ScratchStats {
            sweeps: after.sweeps - before.sweeps,
            grows: after.grows - before.grows,
        }
    };
    let (mut interior_delete, mut reinsert) = Default::default();
    for _ in 0..2 {
        interior_delete = counted(&delete, &mut snap);
        reinsert = counted(&insert, &mut snap);
    }

    let frag = built.fragmentation();
    let border = |v: &NodeId| frag.fragments_of_node(*v).len() >= 2;
    let resweeps = |was: &EngineSnapshot, now: &EngineSnapshot| {
        let (was, now) = (was.complementary(), now.complementary());
        (0..frag.fragment_count())
            .filter(|&f| !Arc::ptr_eq(was.local_sweeps(f), now.local_sweeps(f)))
            .count() as u64
    };
    let x = Edge::new(id(3, 0), id(3, 2), 2);
    let mut inserted = built.clone();
    let before = scratch.stats().sweeps;
    let x_insert = NetworkUpdate::Insert { edge: x, owner: 1 };
    inserted
        .maintain(&x_insert, &mut scratch)
        .expect("valid insert");
    let crossing_insert = scratch.stats().sweeps - before;
    let crossing_insert_resweeps = resweeps(&built, &inserted);

    let mut affected_delete = |edge: Edge, owner: usize| {
        // One skeleton sweep per endpoint, after a sweep of its cell
        // unless it is a border; an interior edge that realizes a
        // local-sweep edge re-sweeps its fragment's borders.
        let endpoints = [edge.src, edge.dst].into_iter();
        let endpoint_sweeps: u64 = endpoints.map(|v| 1 + u64::from(!border(&v))).sum();
        let interior = !(border(&edge.src) && border(&edge.dst));
        let local_resweeps = (frag.fragment(owner).nodes().iter())
            .filter(|v| interior && border(v))
            .count() as u64;
        let mut snap = built.clone();
        let insert = NetworkUpdate::Insert { edge, owner };
        snap.maintain(&insert, &mut scratch).expect("valid insert");
        let before = scratch.stats().sweeps;
        let delete = NetworkUpdate::Remove {
            src: edge.src,
            dst: edge.dst,
            owner,
        };
        let report = snap.maintain(&delete, &mut scratch).expect("valid delete");
        assert_eq!(report.full_recompute, !interior, "{report:?}");
        AffectedDelete {
            sweeps: scratch.stats().sweeps - before,
            endpoint_sweeps,
            local_resweeps,
            closed_sources: snap.precompute_stats().sources_closed as u64,
        }
    };
    let crossing = affected_delete(x, 1);
    let interior = affected_delete(Edge::new(id(2, 0), id(3, 2), 1), 0);
    WriteSweeps {
        interior_delete,
        reinsert,
        crossing_insert,
        crossing_insert_resweeps,
        crossing,
        interior,
        borders: built.complementary().border_count() as u64,
    }
}

/// `serve_mixed_durable`'s deployment as the end-to-end benchmark pins
/// it (`examples/benchmark/src/pinned.rs`): a 600-node ellipse graph,
/// ten linear fragments, two writers.
const MIXED_GRAPH_SEED: u64 = 1993 ^ 0xE111_95E0;
const MIXED_FRAGMENTS: usize = 10;
const MIXED_WRITERS: usize = 2;
/// One write pair in this many is a crossing edge's delete and
/// re-insert.
const MIXED_CROSSING_EVERY_PAIRS: usize = 10;
/// Writes timed, alternating between the writers.
const MIXED_WRITES: usize = 8000;

/// One writer's edges under the benchmark's write-stream rule: the
/// delete and re-insert of the first interior fragment edge whose delete
/// stays incremental, and of the first crossing edge whose delete falls
/// back — each without a parallel twin in its fragment, in fragment and
/// edge order, disjoint across writers.
fn mixed_write_streams(snap: &EngineSnapshot) -> Vec<[[NetworkUpdate; 2]; 2]> {
    let frag = snap.fragmentation();
    let border = |v: NodeId| frag.fragments_of_node(v).len() >= 2;
    let mut scratch = ScratchDijkstra::new();
    let mut pairs: [Vec<[NetworkUpdate; 2]>; 2] = Default::default();
    for f in frag.fragments() {
        for e in f.edges() {
            let crossing = border(e.src) && border(e.dst);
            let found = &mut pairs[usize::from(crossing)];
            let twins = (f.edges().iter())
                .filter(|x| x.connects(e.src, e.dst, snap.is_symmetric()))
                .count();
            if e.is_loop() || found.len() == MIXED_WRITERS || twins != 1 {
                continue;
            }
            let owner = f.id();
            let remove = NetworkUpdate::Remove {
                src: e.src,
                dst: e.dst,
                owner,
            };
            let probed = snap.clone().maintain(&remove, &mut scratch);
            if probed.is_ok_and(|report| report.full_recompute == crossing) {
                found.push([remove, NetworkUpdate::Insert { edge: *e, owner }]);
            }
        }
    }
    let [safe, cross] = pairs;
    assert!(cross.len() == MIXED_WRITERS && safe.len() == MIXED_WRITERS);
    safe.into_iter().zip(cross).map(|(s, c)| [s, c]).collect()
}

/// The four write classes of the mixed streams: interior or crossing,
/// delete or re-insert.
const WRITE_CLASSES: [&str; 4] = [
    "write-mixed-interior-delete-ns",
    "write-mixed-interior-insert-ns",
    "write-mixed-crossing-delete-ns",
    "write-mixed-crossing-insert-ns",
];

/// `maintain`'s wall time per write on `serve_mixed_durable`'s streams,
/// by class (in `WRITE_CLASSES` order): one thread, one scratch, the
/// previous epoch retained as the serve writer's readers retain it.
fn mixed_write_costs() -> [Vec<f64>; 4] {
    let g = generate_ellipse(
        &EllipseConfig {
            nodes: 600,
            target_edges: 1800,
            c2: 0.15,
            a: 500.0,
            b: 22.0,
            ..EllipseConfig::default()
        },
        MIXED_GRAPH_SEED,
    );
    let linear = Fragmenter::Linear(LinearConfig {
        fragments: MIXED_FRAGMENTS,
        ..LinearConfig::default()
    });
    let sys = System::builder().graph(&g).fragmenter(linear).build();
    let mut working = sys.expect("the ellipse deploys").engine().clone();
    let streams = mixed_write_streams(&working);
    let mut scratch = ScratchDijkstra::new();
    let mut retained = working.clone();
    let mut costs: [Vec<f64>; 4] = Default::default();
    for step in 0..MIXED_WRITES {
        let (writer, own) = (step % MIXED_WRITERS, step / MIXED_WRITERS);
        let crossing = (own / 2) % MIXED_CROSSING_EVERY_PAIRS == MIXED_CROSSING_EVERY_PAIRS - 1;
        let update = streams[writer][usize::from(crossing)][own % 2];
        let t = Instant::now();
        let report = working.maintain(&update, &mut scratch).expect("valid");
        costs[2 * usize::from(crossing) + own % 2].push(t.elapsed().as_nanos() as f64);
        assert_eq!(report.full_recompute, crossing && own % 2 == 0);
        // Publish: the next write detaches what it changes from here.
        let _previous = std::mem::replace(&mut retained, working.clone());
    }
    costs
}

/// The benchmark's transportation graph (12 clusters of 100 nodes).
fn transportation(seed: u64) -> GeneratedGraph {
    generate_transportation(
        &TransportationConfig {
            clusters: 12,
            nodes_per_cluster: 100,
            target_edges_per_cluster: 400,
            ..TransportationConfig::default()
        },
        seed,
    )
}

/// The benchmark's transportation graph, fragmented by cluster.
fn pinned_transportation(seed: u64) -> Fragmentation {
    let g = transportation(seed);
    let labels = g.cluster_of.clone().expect("labelled");
    let policy = CrossingPolicy::LowerBlock;
    semantic::by_labels(g.nodes, &g.connections, &labels, 12, policy).expect("label fragmentation")
}

/// The sweep kernel against its reference: one sweep per source of the
/// pinned transportation graph by the one-shot lazy-heap
/// `dijkstra::multi_source`, over the same by one reused
/// `ScratchDijkstra` (the two compared once, outside the timing), best
/// of `ROUNDS` interleaved passes each. Returns the per-seed (reference
/// over kernel) pairs.
fn kernel() -> Vec<Pair> {
    let measured = SEEDS.iter().map(|&seed| {
        let g = pinned_transportation(seed).closure_graph(true);
        let mut scratch = ScratchDijkstra::new();
        for s in g.nodes() {
            let reference = multi_source(&g, &[(s, 0)]);
            scratch.sweep(&g, &[(s, 0)]);
            let agree = g.nodes().all(|v| scratch.cost(v) == reference.cost(v));
            assert!(
                agree,
                "seed {seed}: the kernel and its reference differ from {s:?}"
            );
        }
        let (reference_ns, kernel_ns) = interleaved(|which, _| {
            let t = Instant::now();
            for s in g.nodes() {
                if which == 0 {
                    std::hint::black_box(multi_source(&g, &[(s, 0)]));
                } else {
                    scratch.sweep(&g, &[(s, 0)]);
                    std::hint::black_box(scratch.cost(s));
                }
            }
            t.elapsed()
        });
        Pair {
            seed,
            numerator_ns: reference_ns,
            denominator_ns: kernel_ns,
        }
    });
    measured.collect()
}

/// The status-score kernel against its reference on the pinned
/// transportation graph: the center-based scores by one whole-graph BFS
/// per node, over the same by the bit-parallel kernel (the two compared
/// once, outside the timing), best of `ROUNDS` interleaved passes each.
/// Returns the per-seed (reference over kernel) pairs.
fn scores() -> Vec<Pair> {
    let cfg = CenterConfig::default();
    let measured = SEEDS.iter().map(|&seed| {
        let edges = transportation(seed).edge_list();
        let score = |which: usize| {
            let arm = [status_scores_reference, status_scores][which];
            arm(&edges, cfg.alpha, cfg.depth)
        };
        let (reference, kernel) = (score(0), score(1));
        let agree = (reference.iter().zip(&kernel))
            .all(|(r, k)| r.0 == k.0 && r.1.to_bits() == k.1.to_bits());
        assert!(
            agree && reference.len() == kernel.len(),
            "seed {seed}: the status-score kernel and its reference differ"
        );
        let (reference_ns, kernel_ns) = interleaved(|which, _| {
            let t = Instant::now();
            std::hint::black_box(score(which));
            t.elapsed()
        });
        Pair {
            seed,
            numerator_ns: reference_ns,
            denominator_ns: kernel_ns,
        }
    });
    measured.collect()
}

/// What the first and the second materialization of one epoch of the
/// pinned transportation graph swept, beside what the fragmentation
/// says they must, and what each took.
struct Materialized {
    seed: u64,
    /// Nodes in two or more fragments (B).
    borders: u64,
    /// Non-border nodes with an edge: one border-free row each, which
    /// fills the node's exit set too (the graph is symmetric).
    interior: u64,
    /// The cold fill's sweeps: per fragment, one per exit set no row
    /// filled — its isolated nodes — or one per border when that is
    /// fewer.
    fill: u64,
    cold: MaterializeStats,
    warm: MaterializeStats,
    /// Median wall time of a cold call (a fresh epoch, built outside the
    /// timing) and of a warm one, on one thread, and of a warm call on
    /// two.
    cold_ns: f64,
    warm_ns: f64,
    warm_two_ns: f64,
}

/// The full closure of the benchmark's transportation graph from the
/// epoch against one sweep of the whole graph per source, both on one
/// thread and both writing the sorted relation (the two are compared
/// once, outside the timing). Returns each seed's counts and times and
/// the per-seed (Dijkstra over warm bulk) pairs.
fn materialize(bench: &mut Bench) -> (Vec<Materialized>, Vec<Pair>) {
    let config = MaterializeConfig::with_threads(1);
    let measured = SEEDS.iter().map(|&seed| {
        let frag = pinned_transportation(seed);
        let partition = FragmentPartition::new(&frag, true);
        let union = partition.union_graph();
        let mut scratch = ScratchDijkstra::new();
        let per_source = |scratch: &mut ScratchDijkstra| {
            let mut rows = Vec::new();
            for s in union.nodes() {
                scratch.sweep(&union, &[(s, 0)]);
                // Paths have an edge: (s, s) is the cheapest way out and back.
                let back = union
                    .neighbors(s)
                    .filter_map(|(x, c)| Some(scratch.cost(x)? + c));
                let back = back.min();
                rows.extend(union.nodes().filter_map(|d| {
                    let cost = if d == s { back } else { scratch.cost(d) };
                    Some(PathTuple::new(s, d, cost?))
                }));
            }
            rows
        };
        let epoch = || EngineSnapshot::build(frag.clone(), true, EngineConfig::default());

        let snap = epoch();
        let (closure, cold) = snap.materialize(&config).expect("no fault plan");
        assert_eq!(closure.rows(), per_source(&mut scratch), "seed {seed}");
        let (_, warm) = snap.materialize(&config).expect("no fault plan");
        let border = |v: NodeId| partition.fragments_of(v).len() >= 2;
        let fill = frag.fragments().iter().map(|f| {
            let isolated = f
                .nodes()
                .iter()
                .filter(|&&v| !border(v) && union.out_degree(v) == 0);
            isolated.count().min(partition.borders(f.id()).len())
        });
        let interior = union
            .nodes()
            .filter(|&v| !border(v) && union.out_degree(v) > 0);
        let mut cold_ns: Vec<f64> = (0..5)
            .map(|_| {
                let fresh = epoch();
                let t = Instant::now();
                std::hint::black_box(fresh.materialize(&config).expect("no fault plan"));
                t.elapsed().as_nanos() as f64
            })
            .collect();
        cold_ns.sort_by(f64::total_cmp);
        let warm_ns = bench
            .run(&format!("materialize/bulk/seed-{seed}"), || {
                snap.materialize(&config)
            })
            .median_ns;
        let two = MaterializeConfig::with_threads(2);
        let warm_two_ns = bench
            .run(&format!("materialize/bulk-two-threads/seed-{seed}"), || {
                snap.materialize(&two)
            })
            .median_ns;
        let dijkstra_ns = bench
            .run(&format!("materialize/dijkstra/seed-{seed}"), || {
                per_source(&mut scratch)
            })
            .median_ns;
        let counts = Materialized {
            seed,
            borders: union.nodes().filter(|&v| border(v)).count() as u64,
            fill: fill.sum::<usize>() as u64,
            interior: interior.count() as u64,
            cold,
            warm,
            cold_ns: cold_ns[cold_ns.len() / 2],
            warm_ns,
            warm_two_ns,
        };
        let pair = Pair {
            seed,
            numerator_ns: dijkstra_ns,
            denominator_ns: warm_ns,
        };
        (counts, pair)
    });
    measured.unzip()
}

/// The transportation deployment the publication and serve pairs run
/// on: ten 40-node clusters fragmented by country, hot routes from the
/// first cluster to the last, and per client one interior connection
/// whose delete and re-insert both stay incremental.
struct Deployment {
    seed: u64,
    snapshot: EngineSnapshot,
    nodes: usize,
    hot: Vec<QueryRequest>,
    toggles: Vec<[NetworkUpdate; 2]>,
}

fn deployment(seed: u64) -> Deployment {
    let clusters = 10usize;
    let g = generate_transportation(
        &TransportationConfig {
            clusters,
            nodes_per_cluster: 40,
            target_edges_per_cluster: 150,
            ..TransportationConfig::default()
        },
        seed,
    );
    let labels = g
        .cluster_of
        .clone()
        .expect("transportation graphs are labelled");
    let frag = semantic::by_labels(
        g.nodes,
        &g.connections,
        &labels,
        clusters,
        CrossingPolicy::LowerBlock,
    )
    .expect("label fragmentation");
    let snapshot = EngineSnapshot::build(frag, true, EngineConfig::default());
    let mut rng = StdRng::seed_from_u64(0x407E5 ^ seed);
    let hot = (0..6)
        .map(|_| {
            QueryRequest::new(
                NodeId(rng.gen_index(40) as u32),
                NodeId((g.nodes - 40 + rng.gen_index(40)) as u32),
            )
        })
        .collect();
    // One connection per client, each probed on a private copy: not
    // between two borders (a disconnection-set crossing falls back by
    // design), no parallel twin, and its removal stays incremental.
    let frag = snapshot.fragmentation();
    let border = |v: NodeId| frag.fragments_of_node(v).len() >= 2;
    let mut scratch = ScratchDijkstra::new();
    let mut toggles = Vec::new();
    for f in frag.fragments() {
        for e in f.edges() {
            let twins = f
                .edges()
                .iter()
                .filter(|x| (x.src, x.dst) == (e.src, e.dst) || (x.src, x.dst) == (e.dst, e.src));
            if toggles.len() == CLIENTS || (border(e.src) && border(e.dst)) || twins.count() != 1 {
                continue;
            }
            let owner = f.id();
            let remove = NetworkUpdate::Remove {
                src: e.src,
                dst: e.dst,
                owner,
            };
            let probed = snapshot.clone().maintain(&remove, &mut scratch);
            if probed.is_ok_and(|report| !report.full_recompute) {
                toggles.push([remove, NetworkUpdate::Insert { edge: *e, owner }]);
            }
        }
    }
    assert_eq!(toggles.len(), CLIENTS, "seed {seed}: too few safe updates");
    Deployment {
        seed,
        snapshot,
        nodes: g.nodes,
        hot,
        toggles,
    }
}

impl Deployment {
    /// A read of the serve mixes: 70 % a hot route, the rest uniform.
    fn read(&self, rng: &mut StdRng) -> QueryRequest {
        if rng.gen_index(100) < 70 {
            self.hot[rng.gen_index(self.hot.len())]
        } else {
            let mut any = || NodeId(rng.gen_index(self.nodes) as u32);
            QueryRequest::new(any(), any())
        }
    }
}

/// Shared publication against the deep copy it replaced, on a working
/// snapshot one update past its published predecessor (which pins the
/// sharing, as in the serve writer).
fn publication(bench: &mut Bench, d: &Deployment) -> Pair {
    let published = Arc::new(d.snapshot.clone());
    let mut working = (*published).clone();
    let mut scratch = ScratchDijkstra::new();
    for update in &d.toggles[0] {
        working.maintain(update, &mut scratch).expect("safe update");
    }
    let seed = d.seed;
    let shared_ns = bench
        .run(&format!("publication/shared/seed-{seed}"), || {
            Arc::new(working.clone())
        })
        .median_ns;
    let full_ns = bench
        .run(&format!("publication/unshared/seed-{seed}"), || {
            Arc::new(working.unshared_clone())
        })
        .median_ns;
    Pair {
        seed,
        numerator_ns: full_ns,
        denominator_ns: shared_ns,
    }
}

/// One closed-loop run: the wall time of the serving alone, the writes
/// the server acknowledged, and its stats at shutdown.
struct Served {
    took: Duration,
    acknowledged: u64,
    stats: ServeStats,
}

/// Serve `CLIENTS` closed-loop connections to completion — each issuing
/// `OPS_PER_CLIENT` operations, a write (its private toggle) with
/// probability `write_permille`/1000, else a read (70 % a hot route, the
/// rest uniform).
fn closed_loop(
    d: &Deployment,
    write_permille: usize,
    obs: Option<Arc<Observability>>,
    durability: Option<DurabilityConfig>,
) -> Served {
    let server = Server::start(
        d.snapshot.clone(),
        ServeConfig {
            workers: WORKERS,
            queue_capacity: 4096,
            batch_max: 128,
            obs,
            durability,
            ..ServeConfig::default()
        },
    );
    let started = Instant::now();
    let acknowledged = std::thread::scope(|s| {
        let clients: Vec<_> = (d.toggles.iter().enumerate())
            .map(|(client, toggle)| {
                let server = &server;
                s.spawn(move || {
                    let mut rng =
                        StdRng::seed_from_u64(0xC11E27 ^ (client as u64) << 3 ^ d.seed << 17);
                    let (mut writes, mut acknowledged) = (0, 0u64);
                    for _ in 0..OPS_PER_CLIENT {
                        if rng.gen_index(1000) < write_permille {
                            acknowledged += server.update(&toggle[writes % 2]).is_ok() as u64;
                            writes += 1;
                        } else {
                            let r = d.read(&mut rng);
                            server.query(r.source, r.target).expect("healthy pool");
                        }
                        std::thread::sleep(THINK);
                    }
                    acknowledged
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client")).sum()
    });
    let took = started.elapsed();
    Served {
        took,
        acknowledged,
        stats: server.shutdown(),
    }
}

/// Best-of-`ROUNDS` wall time of two arms run back-to-back each round,
/// so slow drift hits both alike: `(first, second)` in nanoseconds.
fn interleaved(mut arm: impl FnMut(usize, usize) -> Duration) -> (f64, f64) {
    let mut best = [f64::INFINITY; 2];
    for round in 0..ROUNDS {
        for (which, best) in best.iter_mut().enumerate() {
            *best = best.min(arm(which, round).as_nanos() as f64);
        }
    }
    (best[0], best[1])
}

/// What the logged rounds of one seed's write path counted.
struct Logged {
    what: String,
    acknowledged: u64,
    records: u64,
    commits: u64,
}

/// The pure write path without a log over the same with fsync'd group
/// commits (throughput on/off = time off/on), and the counts of every
/// logged round.
fn wal(d: &Deployment) -> (Pair, Vec<Logged>) {
    let mut logged = Vec::new();
    let (off_ns, on_ns) = interleaved(|which, round| {
        let dir = std::env::temp_dir().join(format!(
            "discset-gates-wal-{}-{}-{round}",
            std::process::id(),
            d.seed
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let durability = (which == 1).then(|| DurabilityConfig::at(&dir));
        let run = closed_loop(d, 1000, None, durability);
        let _ = std::fs::remove_dir_all(&dir);
        if which == 1 {
            logged.push(Logged {
                what: format!("wal/seed-{}/round-{round}", d.seed),
                acknowledged: run.acknowledged,
                records: run.stats.wal_records,
                commits: run.stats.wal_commits,
            });
        }
        run.took
    });
    let pair = Pair {
        seed: d.seed,
        numerator_ns: off_ns,
        denominator_ns: on_ns,
    };
    (pair, logged)
}

/// The 95/5 mix traced by a live bundle over the same mix disarmed.
fn obs(d: &Deployment) -> Pair {
    let bundle = Observability::armed();
    closed_loop(d, 50, None, None); // warm-up, discarded
    let (disarmed_ns, armed_ns) =
        interleaved(|which, _| closed_loop(d, 50, (which == 1).then(|| bundle.clone()), None).took);
    Pair {
        seed: d.seed,
        numerator_ns: armed_ns,
        denominator_ns: disarmed_ns,
    }
}

/// The hand-off hammer: `HANDOFF_CLIENTS` clients with
/// `HANDOFF_IN_FLIGHT` reads in flight each (`Server::submit`, replies
/// awaited in send order) on `HANDOFF_CLIENTS` workers; the server's
/// stats at shutdown, whose wake and park counts say how often either
/// side of the hand-off was asleep.
fn handoff(d: &Deployment) -> ServeStats {
    let server = Server::start(
        d.snapshot.clone(),
        ServeConfig::with_workers(HANDOFF_CLIENTS),
    );
    std::thread::scope(|s| {
        for client in 0..HANDOFF_CLIENTS {
            let server = &server;
            s.spawn(move || {
                let mut rng =
                    StdRng::seed_from_u64(0x4A9D0FF ^ (client as u64) << 3 ^ d.seed << 17);
                let mut in_flight = VecDeque::with_capacity(HANDOFF_IN_FLIGHT);
                for _ in 0..HANDOFF_READS {
                    let r = d.read(&mut rng);
                    let pending = server.submit(&[r]).expect("16 reads cannot fill the queue");
                    in_flight.push_back(pending);
                    if in_flight.len() == HANDOFF_IN_FLIGHT {
                        let oldest = in_flight.pop_front().expect("non-empty");
                        oldest.wait().expect("healthy pool");
                    }
                }
                for pending in in_flight {
                    pending.wait().expect("healthy pool");
                }
            });
        }
    });
    server.shutdown()
}

/// The rows of `BENCH_gates.json` and the checks that failed.
struct Report {
    rows: Bench,
    failures: Vec<String>,
}

impl Report {
    fn check(&mut self, gate: Result<(), String>) {
        self.failures.extend(gate.err());
    }

    /// Record one row of per-seed ratios, print it, and hold its worst
    /// seed to `floor` (`None`: reported only).
    fn ratio_row(&mut self, name: &str, pairs: &[Pair], floor: Option<f64>) {
        let ratios: Vec<f64> = pairs.iter().map(Pair::ratio).collect();
        self.rows.record(name, &ratios);
        let worst = worst_ratio(pairs);
        println!("{name}: {ratios:.2?} by seed, worst {worst:.2}, floor {floor:?}");
        if let Some(floor) = floor {
            self.check(ratio_floor(name, pairs, floor));
        }
    }
}

fn main() {
    let mut bench = Bench::new("gates").sample_size(10);
    let mut report = Report {
        rows: Bench::new("gates"),
        failures: Vec::new(),
    };

    let (requests, swept) = warm_sweeps();
    let warm_row = "warm-sweeps-per-query";
    report
        .rows
        .record(warm_row, &[swept as f64 / (2 * requests) as f64]);
    println!("{warm_row}: {swept} sweeps over 2 x {requests} warm requests");
    report.check(no_sweeps(warm_row, swept));

    let (passes, reach) = reach_index(&mut bench);
    let per_query: Vec<f64> = (passes.iter())
        .map(|p| p.sweeps as f64 / p.queries as f64)
        .collect();
    report
        .rows
        .record("reach-dijkstra-sweeps-per-query", &per_query);
    let row_bytes: Vec<f64> = passes.iter().map(|p| p.row_bytes as f64).collect();
    report.rows.record("reach-dijkstra-row-bytes", &row_bytes);
    for (seed, p) in SEEDS.iter().zip(&passes) {
        let what = format!("reach/dijkstra/seed-{seed}");
        report.check(exact_count(&format!("{what} sweeps"), p.queries, p.sweeps));
        report.check(exact_count(&format!("{what} row bytes"), 0, p.row_bytes));
    }
    report.ratio_row("reach-dijkstra-over-index", &reach, Some(FLOOR_REACH_INDEX));

    let writes = write_sweeps();
    let (crossing_what, interior_what) = (writes.crossing.what(), writes.interior.what());
    let closed_what = format!("of the fixture's {} borders", writes.borders);
    assert!(CROSSING_CLOSED_SOURCES.max(INTERIOR_CLOSED_SOURCES) < writes.borders);
    let toggle = "a cell and a skeleton sweep per endpoint, no local re-sweep";
    let rows = [
        (
            "write-interior-delete-sweeps",
            4,
            writes.interior_delete.sweeps,
            toggle,
        ),
        ("write-reinsert-sweeps", 4, writes.reinsert.sweeps, toggle),
        (
            "write-warm-grows",
            0,
            writes.interior_delete.grows + writes.reinsert.grows,
            "scratch growths",
        ),
        (
            "write-crossing-insert-sweeps",
            2,
            writes.crossing_insert,
            "a skeleton sweep per border endpoint, no local re-sweep",
        ),
        (
            "write-crossing-delete-sweeps",
            writes.crossing.expected(),
            writes.crossing.sweeps,
            &crossing_what,
        ),
        (
            "write-crossing-closed-sources",
            CROSSING_CLOSED_SOURCES,
            writes.crossing.closed_sources,
            &closed_what,
        ),
        (
            "write-interior-affected-delete-sweeps",
            writes.interior.expected(),
            writes.interior.sweeps,
            &interior_what,
        ),
        (
            "write-interior-closed-sources",
            INTERIOR_CLOSED_SOURCES,
            writes.interior.closed_sources,
            &closed_what,
        ),
    ];
    let stale = "write-crossing-insert re-swept fragments";
    println!("{stale}: {}", writes.crossing_insert_resweeps);
    report.check(exact_count(stale, 0, writes.crossing_insert_resweeps));
    for (row, expected, counted, what) in rows {
        report.rows.record(row, &[counted as f64]);
        println!("{row}: {counted} (expected {expected}: {what})");
        report.check(exact_count(row, expected, counted));
    }

    // Reported, not gated: what `maintain` costs per write class on the
    // mixed workload's streams.
    let costs = mixed_write_costs();
    for (row, samples) in WRITE_CLASSES.iter().zip(&costs) {
        let r = report.rows.record(row, samples);
        println!(
            "{row}: median {:.1} us over {} writes",
            r.median_ns / 1e3,
            samples.len()
        );
    }
    let all: Vec<f64> = costs.concat();
    let mean = all.iter().sum::<f64>() / all.len() as f64;
    report.rows.record("write-mixed-mean-ns", &[mean]);
    println!("write-mixed-mean-ns: {:.1} us per write", mean / 1e3);

    let (closures, materialized) = materialize(&mut bench);
    // Per row, the seeds' values; a row with an expected count is gated
    // on it, the times are reported only.
    let mut samples: Vec<(&str, Vec<f64>)> = Vec::new();
    for run in &closures {
        let (cold, warm) = (&run.cold, &run.warm);
        let warm_sweeps = warm.hub_sweeps + warm.network_sweeps + warm.fragment_sweeps;
        let rows = [
            (
                "materialize-cold-hub-sweeps",
                Some(run.borders),
                cold.hub_sweeps as f64,
            ),
            (
                "materialize-cold-fragment-sweeps",
                Some(run.fill + run.interior),
                cold.fragment_sweeps as f64,
            ),
            ("materialize-warm-sweeps", Some(0), warm_sweeps as f64),
            (
                "materialize-cold-border-rows",
                Some(run.borders),
                cold.border_rows as f64,
            ),
            (
                "materialize-warm-border-rows",
                Some(0),
                warm.border_rows as f64,
            ),
            (
                "materialize-network-sweeps",
                Some(0),
                (cold.network_sweeps + warm.network_sweeps) as f64,
            ),
            ("materialize-cold-ns", None, run.cold_ns),
            ("materialize-warm-ns", None, run.warm_ns),
        ];
        for (i, (row, expected, value)) in rows.into_iter().enumerate() {
            if let Some(expected) = expected {
                let what = format!("{row}/seed-{}", run.seed);
                report.check(exact_count(&what, expected, value as u64));
            }
            if samples.len() == i {
                samples.push((row, Vec::new()));
            }
            samples[i].1.push(value);
        }
        println!(
            "materialize/seed-{}: cold {} skeleton + {} fragment sweeps (B = {}, {} fills + \
             {} rows expected), warm {warm_sweeps}; cold {:.2} ms, warm {:.2} ms, \
             warm on two threads {:.2} ms",
            run.seed,
            cold.hub_sweeps,
            cold.fragment_sweeps,
            run.borders,
            run.fill,
            run.interior,
            run.cold_ns / 1e6,
            run.warm_ns / 1e6,
            run.warm_two_ns / 1e6
        );
    }
    for (row, values) in &samples {
        report.rows.record(row, values);
    }
    let floor = Some(FLOOR_MATERIALIZE);
    report.ratio_row("materialize-dijkstra-over-bulk", &materialized, floor);
    let threads: Vec<Pair> = (closures.iter())
        .map(|run| Pair {
            seed: run.seed,
            numerator_ns: run.warm_ns,
            denominator_ns: run.warm_two_ns,
        })
        .collect();
    report.ratio_row("materialize-warm-one-over-two-threads", &threads, None);
    let kernels = kernel();
    let floor = Some(FLOOR_KERNEL);
    report.ratio_row("sweep-reference-over-kernel", &kernels, floor);
    let scored = scores();
    let floor = Some(FLOOR_SCORES);
    report.ratio_row("scores-reference-over-kernel", &scored, floor);

    let deployments: Vec<Deployment> = SEEDS.iter().map(|&s| deployment(s)).collect();
    let published: Vec<Pair> = deployments
        .iter()
        .map(|d| publication(&mut bench, d))
        .collect();
    let floor = Some(FLOOR_PUBLICATION);
    report.ratio_row("publication-unshared-over-shared", &published, floor);
    let (logged, counts): (Vec<Pair>, Vec<Vec<Logged>>) = deployments.iter().map(wal).unzip();
    report.ratio_row("wal-on-over-wal-off-throughput", &logged, None);
    let counts: Vec<Logged> = counts.into_iter().flatten().collect();
    let per_write = |l: &Logged| l.records as f64 / l.acknowledged as f64;
    let per_record = |l: &Logged| l.commits as f64 / l.records as f64;
    let records: Vec<f64> = counts.iter().map(per_write).collect();
    report
        .rows
        .record("wal-records-per-acknowledged-write", &records);
    let commits: Vec<f64> = counts.iter().map(per_record).collect();
    report.rows.record("wal-commits-per-record", &commits);
    for l in &counts {
        println!(
            "{}: {} acknowledged, {} records, {} commits",
            l.what, l.acknowledged, l.records, l.commits
        );
        report.check(group_commit(&l.what, l.acknowledged, l.records, l.commits));
    }
    let traced: Vec<Pair> = deployments.iter().map(obs).collect();
    report.ratio_row("obs-armed-over-disarmed", &traced, None);

    // Reported, not gated: how often the closed-loop hand-off found the
    // other side asleep depends on the scheduler.
    let handed: Vec<ServeStats> = deployments.iter().map(handoff).collect();
    let per_job = |count: fn(&ServeStats) -> u64| -> Vec<f64> {
        (handed.iter())
            .map(|st| count(st) as f64 / st.jobs as f64)
            .collect()
    };
    let wakes = per_job(|st| st.handoff_wakes);
    let parks = per_job(|st| st.reply_parks);
    report.rows.record("serve-closed-wakes-per-job", &wakes);
    report.rows.record("serve-closed-parks-per-job", &parks);
    println!("serve-closed-wakes-per-job: {wakes:.3?} by seed; serve-closed-parks-per-job: {parks:.3?} by seed");

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.rows.record("nproc", &[nproc as f64]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gates.json");
    write_json(path, report.rows.results()).expect("write snapshot");
    println!("wrote {path}");

    for failure in &report.failures {
        eprintln!("GATE FAILED — {failure}");
    }
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}
