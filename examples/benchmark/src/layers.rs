//! The traced run's per-layer metrics. Every layer is measured from
//! outside: `t` metrics time calls into a crate's public functions, `c`
//! metrics read the public stats structs those calls return. The core is
//! a single-threaded *replay* of a fixed sample of the workload's own
//! operation stream against the workload's snapshot, one child span per
//! layer in pipeline order, so the counts repeat exactly for a seed.
//!
//! A metric a workload does not exercise is reported as 0.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use discset::closure::assemble::chain_cost_refs;
use discset::closure::executor::run_chain;
use discset::closure::EngineSnapshot;
use discset::durability::{wal_paths, DurabilityConfig, DurableStore};
use discset::fragment::bond_energy::{bond_energy, BondEnergyConfig};
use discset::fragment::center::{center_based, CenterConfig};
use discset::fragment::linear::{linear_sweep, LinearConfig};
use discset::fragment::{semantic, CrossingPolicy};
use discset::gen::GeneratedGraph;
use discset::graph::{NodeId, ReachIndex, ScratchDijkstra};
use discset::relation::bulk::FragmentPartition;
use discset::relation::tc::seminaive_closure;
use discset::{
    Backend, Fragmenter, QueryRequest, ServeConfig, ServeStats, Server, System, TcEngine,
};

use crate::pinned::*;
use crate::probes::{keyhole_sources, repeat_for, Materialized};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{SpanLog, ROOT};
use crate::workload::{engine_config, write_streams, ClientStream, Kind, ReadMix};
use crate::RunConfig;

fn ms(secs: &[f64]) -> f64 {
    median(secs) * 1e3
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `serve.*` and the live `durability.*` counts, from the `ServeStats`
/// the measured server returned at shutdown and its log directory.
pub fn serve_counters(out: &mut Outcome, stats: &ServeStats, dir: &Path) {
    let elapsed = stats.elapsed.as_secs_f64();
    let worker_busy: f64 = stats.busy.iter().map(Duration::as_secs_f64).sum();
    out.put(
        "serve.cache_hit_fraction",
        "fraction",
        stats.cache_hit_fraction(),
    );
    out.put(
        "serve.coalesced_fraction",
        "fraction",
        stats.coalesced_fraction(),
    );
    out.put(
        "serve.avg_batch",
        "count",
        ratio(stats.requests as usize, stats.batches as usize),
    );
    out.put(
        "serve.queue_high_water",
        "count",
        stats.queue_high_water as f64,
    );
    out.put(
        "serve.queue_rejections",
        "count",
        stats.queue_rejections as f64,
    );
    out.put(
        "serve.worker_busy_fraction",
        "fraction",
        worker_busy / (elapsed * stats.workers as f64),
    );
    out.put(
        "serve.writer_busy_fraction",
        "fraction",
        stats.writer_busy.as_secs_f64() / elapsed,
    );
    out.put(
        "serve.publications_per_update",
        "fraction",
        ratio(stats.publications as usize, stats.updates as usize),
    );
    out.put(
        "durability.group_commit_size",
        "count",
        ratio(stats.wal_records as usize, stats.wal_commits as usize),
    );
    out.put("durability.checkpoints", "count", stats.checkpoints as f64);
    let replayed = discset::recover(dir).map_or(0, |r| r.replayed);
    out.put("durability.replayed", "count", replayed as f64);
}

/// The same names for a workload with no serve tier.
pub fn no_serve_counters(out: &mut Outcome) {
    for name in [
        "serve.cache_hit_fraction",
        "serve.coalesced_fraction",
        "serve.worker_busy_fraction",
        "serve.writer_busy_fraction",
        "serve.publications_per_update",
    ] {
        out.put(name, "fraction", 0.0);
    }
    for name in [
        "serve.avg_batch",
        "serve.queue_high_water",
        "serve.queue_rejections",
        "durability.group_commit_size",
        "durability.checkpoints",
        "durability.replayed",
        "load.shed_retries",
    ] {
        out.put(name, "count", 0.0);
    }
    out.put("serve.overhead_us", "us", 0.0);
    out.put("load.max_rate_ok_ops_s", "1/s", 0.0);
    out.put("load.generator_late_ms_p99", "ms", 0.0);
    out.put("load.read_lat_p99_us_low", "us", 0.0);
    out.put("load.read_lat_p99_us_high", "us", 0.0);
}

/// Time the four fragmenters on the workload's graph, each asked for the
/// workload's fragment count.
fn fragmenters(graph: &GeneratedGraph, fragments: usize, out: &mut Outcome) {
    let edges = graph.edge_list();
    let time = |f: &mut dyn FnMut()| ms(&repeat_for(Duration::ZERO, 3, f).0);
    out.put(
        "fragment.center_ms",
        "ms",
        time(&mut || {
            center_based(
                &edges,
                &CenterConfig {
                    fragments,
                    ..CenterConfig::default()
                },
            )
            .expect("center-based fragments the pinned graphs");
        }),
    );
    out.put(
        "fragment.linear_ms",
        "ms",
        time(&mut || {
            linear_sweep(
                &edges,
                &LinearConfig {
                    fragments,
                    ..LinearConfig::default()
                },
            )
            .expect("generated graphs carry coordinates");
        }),
    );
    // Cubic in the node count per restart: one restart, small graphs only.
    let bond = if graph.nodes <= BOND_ENERGY_MAX_NODES {
        time(&mut || {
            bond_energy(
                &edges,
                &BondEnergyConfig {
                    max_restarts: Some(1),
                    ..BondEnergyConfig::default()
                },
            )
            .expect("bond-energy fragments the pinned graphs");
        })
    } else {
        0.0
    };
    out.put("fragment.bond_energy_ms", "ms", bond);
    let by_labels = graph.cluster_of.as_ref().map_or(0.0, |labels| {
        time(&mut || {
            semantic::by_labels(
                graph.nodes,
                &graph.connections,
                labels,
                TRANSPORT_CLUSTERS,
                CrossingPolicy::LowerBlock,
            )
            .expect("labels are dense");
        })
    });
    out.put("fragment.semantic_ms", "ms", by_labels);
}

/// Border-to-border Dijkstra sweeps on each site's augmented graph: the
/// full sweep the precompute runs, and the target-bounded sweep a query
/// runs.
fn sweeps(snapshot: &EngineSnapshot, out: &mut Outcome) {
    let frag = snapshot.fragmentation();
    let mut scratch = ScratchDijkstra::new();
    let (mut full, mut bounded) = (Vec::new(), Vec::new());
    for f in frag.fragments() {
        let borders: Vec<NodeId> = f
            .nodes()
            .iter()
            .copied()
            .filter(|&v| frag.fragments_of_node(v).len() >= 2)
            .collect();
        let aug = snapshot.augmented_handle(f.id());
        for &b in borders.iter().take(SWEEP_SOURCES_PER_SITE) {
            let t = Instant::now();
            scratch.sweep(aug, &[(b, 0)]);
            full.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            scratch.sweep_to_targets(aug, &[(b, 0)], &borders);
            bounded.push(t.elapsed().as_nanos() as f64);
        }
    }
    out.put("graph.sweep_full_ns", "ns", median(&full));
    out.put("graph.sweep_targets_ns", "ns", median(&bounded));
}

pub fn measure(
    cfg: &RunConfig,
    graph: &GeneratedGraph,
    snapshot: &EngineSnapshot,
    mix: &ReadMix,
    materialized: &Materialized,
    out: &mut Outcome,
    spans: &mut SpanLog,
) -> Result<(), String> {
    let kind = cfg.kind;
    let frag = snapshot.fragmentation();

    // --- fragment ---------------------------------------------------------
    fragmenters(graph, frag.fragment_count(), out);
    let m = frag.metrics();
    out.put("fragment.count", "count", m.fragment_count as f64);
    out.put("fragment.border_nodes", "count", m.border_nodes as f64);
    out.put("fragment.avg_ds_nodes", "count", m.avg_ds_nodes);
    out.put("fragment.dev_fragment_edges", "count", m.dev_fragment_edges);
    out.put(
        "fragment.loosely_connected",
        "count",
        f64::from(u8::from(m.loosely_connected)),
    );

    // --- graph ------------------------------------------------------------
    sweeps(snapshot, out);
    let (reach_secs, reach) = repeat_for(Duration::ZERO, 5, || ReachIndex::build(snapshot.graph()));
    out.put("graph.reach_build_ms", "ms", ms(&reach_secs));
    out.put("graph.reach_bytes", "B", reach.memory_bytes() as f64);

    // --- closure: what the precompute reported ----------------------------
    let pre = snapshot.precompute_stats();
    out.put(
        "closure.precompute_local_ms",
        "ms",
        pre.local_sweeps_ns as f64 / 1e6,
    );
    out.put(
        "closure.precompute_skeleton_ms",
        "ms",
        pre.skeleton_close_ns as f64 / 1e6,
    );
    out.put(
        "closure.precompute_assemble_ms",
        "ms",
        pre.assemble_ns as f64 / 1e6,
    );
    out.put(
        "closure.shortcut_pairs",
        "count",
        snapshot.complementary().pair_count() as f64,
    );

    // --- the replay -------------------------------------------------------
    let (n_reads, n_writes) = kind.replay_ops();
    let mut stream = ClientStream::new(cfg.seed, 90, mix);
    let reads: Vec<QueryRequest> = (0..n_reads).map(|_| stream.next_read()).collect();
    let mut scratch = ScratchDijkstra::new();
    let root = spans.open("replay", ROOT, 0);
    let augmented: Vec<_> = (0..snapshot.site_count())
        .map(|f| Arc::clone(snapshot.augmented_handle(f)))
        .collect();
    let (mut chains, mut site_queries, mut shipped, mut probe_ns) =
        (0usize, 0usize, 0usize, Vec::new());
    for (i, r) in reads.iter().enumerate() {
        let id = i as u64;
        let read = spans.open("replay.read", root, id);
        let plan = spans.time("closure.plan", read, id, || {
            snapshot.planner().plan(r.source, r.target)
        });
        let answer = spans.time("closure.evaluate_b1", read, id, || {
            snapshot.query_batch(&[*r], &mut scratch)
        });
        let stats = &answer.answers[0].stats;
        chains += stats.chains_evaluated;
        site_queries += stats.site_queries;
        shipped += stats.tuples_shipped;
        if let Ok(plan) = plan {
            for chain in &plan.chains {
                let (segments, _) = spans.time("graph.sweep_chain", read, id, || {
                    run_chain(&augmented, chain, snapshot.config().mode, &mut scratch)
                });
                let refs: Vec<_> = segments.iter().collect();
                spans.time("closure.assemble", read, id, || {
                    chain_cost_refs(&refs, r.source, r.target)
                });
            }
        }
        let t = Instant::now();
        std::hint::black_box(reach.reaches(r.source, r.target));
        probe_ns.push(t.elapsed().as_nanos() as f64);
        spans.close(read);
    }
    out.put(
        "closure.plan_ns",
        "ns",
        median(&spans.durations("closure.plan")),
    );
    // One per replayed read, in replay order.
    let eval_ns = spans.durations("closure.evaluate_b1");
    out.put("closure.evaluate_ns_b1", "ns", median(&eval_ns));
    out.put(
        "closure.assemble_ns",
        "ns",
        median(&spans.durations("closure.assemble")),
    );
    out.put("graph.reach_probe_ns", "ns", median(&probe_ns));
    out.put("closure.chains_per_query", "count", ratio(chains, n_reads));
    out.put(
        "closure.site_queries_per_query",
        "count",
        ratio(site_queries, n_reads),
    );
    out.put(
        "closure.tuples_shipped_per_query",
        "count",
        ratio(shipped, n_reads),
    );
    out.note(format!(
        "replay: {n_reads} reads; self time of a replayed read outside its layer calls: median {:.0} ns",
        median(&spans.self_times("replay.read"))
    ));

    // Micro-batches of 64: what a busy serve worker hands the evaluator.
    let (mut b64_ns, mut plans, mut segs) = (Vec::new(), (0, 0), (0, 0));
    for chunk in reads.chunks(64) {
        let t = Instant::now();
        let b = snapshot.query_batch(chunk, &mut scratch);
        b64_ns.push(t.elapsed().as_nanos() as f64 / chunk.len() as f64);
        plans = (
            plans.0 + b.stats.plans_reused,
            plans.1 + b.stats.plans_computed,
        );
        segs = (
            segs.0 + b.stats.segments_reused,
            segs.1 + b.stats.segments_computed,
        );
    }
    out.put("closure.evaluate_ns_b64", "ns", median(&b64_ns));
    out.put(
        "closure.plans_reused_fraction",
        "fraction",
        ratio(plans.0, plans.0 + plans.1),
    );
    out.put(
        "closure.segments_reused_fraction",
        "fraction",
        ratio(segs.0, segs.0 + segs.1),
    );

    // Writes: maintain -> reach index -> publication clone -> log append.
    let wal_dir = cfg.scratch.join("wal-probe");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let durability_err = |e| format!("durability probe at {}: {e}", wal_dir.display());
    let mut store = DurableStore::attach(DurabilityConfig::at(&wal_dir), snapshot, 0, None)
        .map_err(durability_err)?;
    let mut writer = write_streams(snapshot, 1, kind == Kind::MixedDurable).remove(0);
    let mut working = snapshot.clone();
    let (mut full, mut touched) = (0usize, 0usize);
    for i in 0..n_writes {
        let id = (n_reads + i) as u64;
        let u = writer.next();
        let write = spans.open("replay.write", root, id);
        spans
            .time("durability.append", write, id, || {
                store.append_batch(i as u64, &[u])
            })
            .map_err(durability_err)?;
        let report = spans
            .time("closure.maintain", write, id, || {
                working.maintain_cow(&u, &mut scratch)
            })
            .map_err(|e| format!("replayed update {u:?}: {e}"))?
            .report;
        full += usize::from(report.full_recompute);
        touched += report.sites_touched;
        spans.time("graph.reach_rebuild", write, id, || working.ensure_reach());
        spans.time("closure.publish", write, id, || Arc::new(working.clone()));
        spans.close(write);
    }
    spans.close(root);
    out.put(
        "closure.maintain_us",
        "us",
        median(&spans.durations("closure.maintain")) / 1e3,
    );
    out.put(
        "closure.publish_ns",
        "ns",
        median(&spans.durations("closure.publish")),
    );
    out.put(
        "closure.full_recompute_fraction",
        "fraction",
        ratio(full, n_writes),
    );
    out.put(
        "closure.sites_touched_per_update",
        "count",
        ratio(touched, n_writes),
    );
    out.put(
        "durability.append_us",
        "us",
        median(&spans.durations("durability.append")) / 1e3,
    );
    let wal_bytes: u64 = wal_paths(&wal_dir)
        .iter()
        .filter_map(|(_, p)| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    out.put(
        "durability.wal_bytes_per_update",
        "B",
        ratio(wal_bytes as usize, n_writes),
    );
    let (ckpt_secs, ckpt) = repeat_for(Duration::ZERO, 3, || {
        store.checkpoint(&working, n_writes as u64)
    });
    ckpt.map_err(durability_err)?;
    out.put("durability.checkpoint_ms", "ms", ms(&ckpt_secs));
    drop(store);
    let (load_secs, recovered) = repeat_for(Duration::ZERO, 3, || discset::recover(&wal_dir));
    recovered.map_err(durability_err)?;
    out.put("durability.recover_load_ms", "ms", ms(&load_secs));
    let stats = scratch.stats();
    out.put("graph.sweeps", "count", stats.sweeps as f64);
    out.put("graph.scratch_grows", "count", stats.grows as f64);

    // --- relation -----------------------------------------------------------
    let sources = (kind != Kind::OfflineGeneral).then(|| keyhole_sources(graph.nodes, cfg.seed));
    let union = FragmentPartition::new(frag, graph.symmetric).union_relation();
    let (semi_secs, _) = repeat_for(Duration::ZERO, 3, || {
        seminaive_closure(&union, sources.as_deref())
    });
    out.put("relation.seminaive_ms", "ms", ms(&semi_secs));
    let bulk = &materialized.stats;
    out.put("relation.bulk_ms", "ms", ms(&materialized.secs));
    out.put("relation.bulk_rounds", "count", bulk.rounds as f64);
    out.put(
        "relation.exchanged_tuples",
        "count",
        bulk.exchanged_tuples as f64,
    );
    out.put("relation.kept_local", "count", bulk.kept_local as f64);
    out.put("relation.balance_ratio", "fraction", bulk.balance_ratio());
    out.put(
        "relation.generated_tuples",
        "count",
        bulk.tc.tuples_generated as f64,
    );

    // --- machine: the same batch through one thread per site ---------------
    let mut machine = System::builder()
        .graph(graph)
        .fragmenter(Fragmenter::Prebuilt(frag.clone()))
        .config(engine_config(kind))
        .backend(Backend::SiteThreads)
        .build()
        .map_err(|e| format!("site-threads backend: {e}"))?;
    let batch = &reads[..reads.len().min(OFFLINE_BATCH.max(1024))];
    let (machine_secs, answers) =
        repeat_for(Duration::ZERO, 3, || machine.query_batch(batch).costs());
    out.put(
        "machine.batch_ns_per_query",
        "ns",
        median(&machine_secs) * 1e9 / batch.len() as f64,
    );
    let inline = snapshot.query_batch(batch, &mut scratch).costs();
    if answers != inline {
        return Err("site-threads backend disagrees with the inline evaluator".into());
    }

    // --- serve: round trip minus evaluation, same requests, no cache --------
    if kind != Kind::OfflineGeneral {
        let server = Server::start(
            snapshot.clone(),
            ServeConfig {
                workers: SERVE_WORKERS,
                answer_cache: false,
                ..ServeConfig::default()
            },
        );
        let mut overhead_us = Vec::with_capacity(reads.len());
        for (r, eval) in reads.iter().zip(&eval_ns) {
            let t = Instant::now();
            server
                .query(r.source, r.target)
                .map_err(|e| format!("overhead probe: {e}"))?;
            overhead_us.push((t.elapsed().as_nanos() as f64 - eval) / 1e3);
        }
        server.shutdown();
        out.put("serve.overhead_us", "us", median(&overhead_us));
    }
    Ok(())
}
