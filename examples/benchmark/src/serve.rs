//! The three `serve_*` workloads: set-up, warm-up, then cycles of probes
//! and load slices spread over the whole run, and the oracle checks.
//!
//! An untraced run measures what the end-to-end metrics report: set-ups,
//! keyhole materializations and closed slices. A traced run adds what
//! only per-layer metrics report: the open slices at the three pinned
//! rates, recovery, and write latency.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use discset::gen::GeneratedGraph;
use discset::graph::NodeId;
use discset::{QueryRequest, ServeConfig, ServeStats, Server, System, TcEngine};

use crate::layers;
use crate::load::{closed_phase, open_phase, windows_in, Latencies, Open, Tally};
use crate::oracle::{check_answer, check_engine, check_materialized, check_samples, Shadow};
use crate::pinned::*;
use crate::probes;
use crate::reference::SpeedProbe;
use crate::report::Outcome;
use crate::stats::{fastest, mean, median, quantile_sorted, sorted, traced_shortfall, Timing};
use crate::trace::SpanLog;
use crate::workload::{
    build_system, generate, write_streams, ClientStream, Kind, ReadMix, WriteStream,
};
use crate::RunConfig;

/// A deployed workload: the generated inputs, the facade they were built
/// through, and the server under test.
struct Deployed {
    graph: GeneratedGraph,
    system: System,
    server: Server,
    /// The serve tier's log directory (`serve_mixed_durable` only).
    durable: Option<PathBuf>,
}

struct SetupTimes {
    total: f64,
    build: f64,
    /// The machine's speed around this set-up (`SpeedProbe::since_last`).
    speed: f64,
}

/// Repeated timings collected cycle by cycle.
struct Probes {
    setups: Vec<SetupTimes>,
    recover_secs: Vec<f64>,
    /// Idle write probe of the read-only workloads (on extra servers).
    idle_writes: Latencies,
    idle_tally: Tally,
}

/// Generate + fragment + precompute + server start, to the first answer.
fn deploy(kind: Kind, scratch: &Path, rep: usize) -> (Deployed, SetupTimes) {
    let durable = (kind == Kind::MixedDurable).then(|| scratch.join(format!("durable-{rep}")));
    if let Some(dir) = &durable {
        let _ = std::fs::remove_dir_all(dir);
    }
    let t0 = Instant::now();
    let graph = generate(kind);
    let t1 = Instant::now();
    let system = build_system(kind, &graph, durable.as_deref());
    let build = t1.elapsed().as_secs_f64();
    // Pinned, not derived from this machine's core count. With a durable
    // system the facade attaches the log with `DurabilityConfig::at`'s
    // defaults: fsync on, checkpoint every 4096 records or 4 MiB.
    let server = system.serve_with(ServeConfig {
        workers: SERVE_WORKERS,
        ..ServeConfig::default()
    });
    server
        .query(NodeId(0), NodeId(1))
        .expect("a fresh server answers");
    let total = t0.elapsed().as_secs_f64();
    (
        Deployed {
            graph,
            system,
            server,
            durable,
        },
        SetupTimes {
            total,
            build,
            speed: 1.0,
        },
    )
}

/// Whether an open phase met its limits, and at what latency.
struct Rung {
    rate: f64,
    reads: Timing,
    writes: Timing,
    failed: u64,
    attempted: u64,
    late_p99_ms: f64,
    ok: bool,
}

fn judge(rate: f64, open: &Open, load: &Load, windows: usize) -> Rung {
    let reads = Timing::of(&open.read_lat.all());
    let writes = Timing::of(&open.write_lat.all());
    // Judged on the same windowed quantiles the metrics report.
    let read_p99 = open
        .read_lat
        .windowed_quantile(0.99, 500, windows, ACROSS_P99);
    let write_p99 = open
        .write_lat
        .windowed_quantile(0.99, 100, windows, ACROSS_P99);
    let late = sorted(&open.late_us);
    // A failed or refused request misses every limit: more than 1 % of
    // them and the 99th percentile itself is a miss.
    let failed_ok = open.tally.failed * 100 <= open.tally.attempted;
    let limit = Duration::from_secs_f64(load.read_p99_limit_us.max(load.write_p99_limit_us) / 1e6);
    let ok = failed_ok
        && read_p99 <= load.read_p99_limit_us
        && (writes.count == 0 || write_p99 <= load.write_p99_limit_us)
        // Backlog not growing: what was queued when the schedule ended
        // drained within the latency limit.
        && open.drain <= limit;
    Rung {
        rate,
        reads,
        writes,
        failed: open.tally.failed,
        attempted: open.tally.attempted,
        late_p99_ms: quantile_sorted(&late, 0.99) / 1e3,
        ok,
    }
}

/// One closed-loop client stream per writer slot; the clients write only
/// where the workload does (`permille > 0`).
fn client_streams<'a>(
    seed: u64,
    first_id: u64,
    mix: &'a ReadMix,
    writers: &'a mut [WriteStream],
    permille: u32,
) -> Vec<ClientStream<'a>> {
    writers
        .iter_mut()
        .zip(first_id..)
        .map(|(w, id)| {
            let stream = ClientStream::new(seed, id, mix);
            if permille > 0 {
                stream.writing(w, permille)
            } else {
                stream
            }
        })
        .collect()
}

/// Print one rung of the ladder.
fn describe(i: usize, open: &Open, rung: Rung, out: &mut Outcome) -> Rung {
    out.note(format!(
        "open {:>4} {:>7.0} ops/s: reads us {}; writes us {}; failed {}/{}; refused and sent again {}; generator late p99 {:.3} ms; drain {:.1} ms; {}",
        RATE_NAMES[i],
        rung.rate,
        rung.reads,
        rung.writes,
        rung.failed,
        rung.attempted,
        open.shed_retries,
        rung.late_p99_ms,
        open.drain.as_secs_f64() * 1e3,
        if rung.ok { "within limits" } else { "MISSES limits" },
    ));
    rung
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let kind = cfg.kind;
    let load = kind.load().expect("serve workloads carry a load");
    let mut out = Outcome::default();
    let phase = |share: f64| Duration::from_secs_f64(cfg.seconds * share);
    let closed_slice = phase(
        if cfg.trace {
            TRACED_CLOSED_SHARE
        } else {
            CLOSED_SHARE
        } / CYCLES as f64,
    );
    let open_slice = phase(TRACED_OPEN_SHARE / CYCLES as f64);

    // Probed before and after everything that is timed: the load keeps
    // both vCPUs busy, so the probe runs on as many threads.
    let mut machine = SpeedProbe::start(CLIENTS);

    // --- set-up: the deployment the load runs against -------------------
    let (
        Deployed {
            graph,
            system,
            server,
            durable,
        },
        mut first_setup,
    ) = deploy(kind, &cfg.scratch, 0);
    first_setup.speed = machine.since_last();

    // --- operation streams (benchmark-side input generation) ------------
    let initial = system.snapshot();
    let mix = ReadMix::for_workload(kind, &graph, cfg.seed);
    let mixed = kind == Kind::MixedDurable;
    let mut writers: Vec<WriteStream> = write_streams(&initial, CLIENTS, mixed);
    let permille = kind.write_permille();
    let mut tally = Tally::default();
    let mut spans = SpanLog::new(Instant::now());

    // --- what a cycle repeats besides the load ----------------------------
    // It deploys the workload again (`setup_s`) and materializes the
    // keyhole closure. A traced run also recovers a durable image of the
    // deployed state (the durable workload recovers its live log directory
    // at the end instead) and, where the workload never writes, times
    // updates on an otherwise idle extra server.
    let shadow0 = Shadow::of(&graph);
    let oracle_graph0 = shadow0.graph();
    let image = if mixed {
        None
    } else {
        let dir = cfg.scratch.join("image");
        probes::write_image(&initial, 0, &dir)?;
        Some(dir)
    };
    let sources = probes::keyhole_sources(graph.nodes, cfg.seed);
    let mut probes = Probes {
        setups: vec![first_setup],
        recover_secs: Vec::new(),
        idle_writes: Latencies::default(),
        idle_tally: Tally::default(),
    };
    let idle_writer = writers[0].clone();
    let redeploy = |probes: &mut Probes, cycle: usize| -> Result<(), String> {
        for i in 0..SETUP_PER_ROUND {
            let (extra, times) = deploy(kind, &cfg.scratch, probes.setups.len());
            probes.setups.push(times);
            if cfg.trace && !mixed && i == 0 {
                // Back-to-back updates that leave the extra server's
                // network as they found it.
                let mut w = idle_writer.clone();
                for _ in 0..WRITE_PROBE_PER_ROUND {
                    let t = Instant::now();
                    if probes.idle_tally.update(&extra.server, w.next()) {
                        probes
                            .idle_writes
                            .push(cycle as f64 / CYCLES as f64, t.elapsed());
                    }
                }
                let pinned = QueryRequest::new(NodeId(0), NodeId(graph.nodes as u32 - 1));
                let served = extra
                    .server
                    .query(pinned.source, pinned.target)
                    .map_err(|e| format!("write-probe server: {e}"))?;
                check_answer(
                    &oracle_graph0,
                    pinned,
                    served.answer.cost,
                    "answer after the idle write probe",
                )?;
            }
            drop(extra); // stops its server, before anything else is timed
        }
        if let (true, Some(dir)) = (cfg.trace, &image) {
            for _ in 0..RECOVERIES_PER_ROUND {
                probes
                    .recover_secs
                    .push(probes::recover_once(dir, &oracle_graph0)?.0);
            }
        }
        Ok(())
    };

    // --- warm-up ----------------------------------------------------------
    tally.absorb(
        closed_phase(
            &server,
            client_streams(cfg.seed, 0, &mix, &mut writers, permille),
            phase(WARMUP_SHARE),
            false,
        )
        .tally,
    );

    // --- the cycles ---------------------------------------------------------
    // `per_window` is as measured, `nominal_per_window` at the nominal
    // machine speed.
    let (mut per_window, mut nominal_per_window) = (Vec::new(), Vec::new());
    let mut by_parity: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut materialized: Option<probes::Materialized> = None;
    let mut at_ref: Option<Open> = None;
    machine.since_last();
    for cycle in 0..CYCLES {
        let first_new = probes.setups.len();
        redeploy(&mut probes, cycle)?;
        let speed = machine.since_last();
        probes.setups[first_new..]
            .iter_mut()
            .for_each(|s| s.speed = speed);

        probes::materialize(
            &system,
            Some(sources.clone()),
            Duration::ZERO,
            MATERIALIZE_PER_ROUND,
        )
        .join(machine.since_last(), &mut materialized);

        let closed = closed_phase(
            &server,
            client_streams(
                cfg.seed,
                10 + (CLIENTS * cycle) as u64,
                &mix,
                &mut writers,
                permille,
            ),
            closed_slice,
            cfg.trace,
        );
        let speed = machine.since_last();
        // Odd windows of a traced slice recorded spans, even ones did not.
        for (i, &n) in closed.per_window.iter().enumerate() {
            let rate = n as f64 / WINDOW_SECONDS;
            per_window.push(rate);
            nominal_per_window.push(rate / speed);
            by_parity[i % 2].push(rate);
        }
        tally.absorb(closed.tally);
        spans.absorb(closed.spans);

        if cfg.trace {
            let mut reads = ClientStream::new(cfg.seed, 100 + cycle as u64, &mix);
            let writes = mixed.then(|| (&mut writers[0], f64::from(permille) / 1000.0));
            let open = open_phase(
                &server,
                &mut reads,
                writes,
                load.rates[REF],
                open_slice,
                (cycle, CYCLES),
                true,
            );
            machine.since_last();
            match &mut at_ref {
                Some(earlier) => earlier.merge(open),
                None => at_ref = Some(open),
            }
        }
    }
    let throughput = mean(&nominal_per_window);
    out.put("throughput_ops_s", "1/s", throughput);
    out.note(format!(
        "closed slices: {CLIENTS} clients x {CLOSED_IN_FLIGHT} reads in flight, zero think time: mean {throughput:.0} ops/s at the nominal machine speed ({:.0} as measured) over {} windows of {WINDOW_SECONDS} s in {CYCLES} slices",
        mean(&per_window),
        per_window.len()
    ));
    let Probes {
        setups,
        mut recover_secs,
        idle_writes,
        idle_tally,
    } = probes;
    let of = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    out.put("setup_s", "s", of(|s| s.total * s.speed));
    out.put("closure.build_ms", "ms", of(|s| s.build) * 1e3);
    out.note(format!(
        "{} set-ups (generate + fragment + precompute + server start + first answer): median {:.4} s at the nominal speed ({:.4} s as measured)",
        setups.len(),
        of(|s| s.total * s.speed),
        of(|s| s.total),
    ));
    let materialized = materialized.expect("CYCLES >= 1");
    out.put(
        "materialize_tuples_per_s",
        "1/s",
        materialized.tuples_per_s(),
    );

    // --- the open phases (traced runs: per-layer `load.*` only) -----------
    if let Some(mut at_ref) = at_ref {
        let ref_windows = CYCLES * windows_in(open_slice);
        let mut rungs = vec![describe(
            REF,
            &at_ref,
            judge(load.rates[REF], &at_ref, &load, ref_windows),
            &mut out,
        )];
        let mut shed_retries = at_ref.shed_retries;
        for i in [0, 2] {
            let mut reads = ClientStream::new(cfg.seed, 200 + i as u64, &mix);
            let writes = mixed.then(|| (&mut writers[0], f64::from(permille) / 1000.0));
            let open = open_phase(
                &server,
                &mut reads,
                writes,
                load.rates[i],
                phase(LADDER_SHARE),
                (0, 1),
                true,
            );
            let windows = windows_in(phase(LADDER_SHARE));
            rungs.push(describe(
                i,
                &open,
                judge(load.rates[i], &open, &load, windows),
                &mut out,
            ));
            shed_retries += open.shed_retries;
            tally.absorb(open.tally);
            spans.absorb(open.spans);
        }
        tally.absorb(std::mem::take(&mut at_ref.tally));
        spans.absorb(std::mem::replace(
            &mut at_ref.spans,
            SpanLog::new(Instant::now()),
        ));
        let best = rungs
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.rate)
            .fold(0.0, f64::max);
        out.put("load.max_rate_ok_ops_s", "1/s", best);
        out.put("load.generator_late_ms_p99", "ms", rungs[0].late_p99_ms);
        out.put("load.read_lat_p99_us_low", "us", rungs[1].reads.p99);
        out.put("load.read_lat_p99_us_high", "us", rungs[2].reads.p99);
        out.put("load.shed_retries", "count", shed_retries as f64);
        out.put(
            "load.read_lat_p50_us",
            "us",
            at_ref
                .read_lat
                .windowed_quantile(0.5, 50, ref_windows, ACROSS_P50),
        );
        out.put(
            "load.read_lat_p99_us",
            "us",
            at_ref
                .read_lat
                .windowed_quantile(0.99, 500, ref_windows, ACROSS_P99),
        );
        // Write latency: under load at `ref` where the workload writes;
        // elsewhere the idle probe of the cycles, one window per cycle.
        let (write_lat, write_windows) = if mixed {
            (&at_ref.write_lat, ref_windows)
        } else {
            (&idle_writes, CYCLES)
        };
        out.put(
            "load.write_lat_p50_us",
            "us",
            write_lat.windowed_quantile(0.5, 30, write_windows, ACROSS_P50),
        );
        out.put(
            "load.write_lat_p99_us",
            "us",
            write_lat.windowed_quantile(0.99, 100, write_windows, ACROSS_P99),
        );
        out.note(format!(
            "write latency us: {}",
            Timing::of(&write_lat.all())
        ));
        out.put(
            "trace_overhead_fraction",
            "fraction",
            traced_shortfall(&by_parity[0], &by_parity[1]),
        );

        // How many log records follow the newest checkpoint depends on how
        // many writes the run happened to get through, and recovery time is
        // mostly replay: left alone, `durability.recover_s` would measure
        // that accident. So write on until the next checkpoint, then exactly
        // `RECOVERY_SUFFIX` records more.
        if mixed {
            let w = &mut writers[0];
            let before = server.stats().checkpoints;
            let mut topped_up = 0;
            while server.stats().checkpoints == before && topped_up < 2 * CHECKPOINT_EVERY {
                tally.update(&server, w.next());
                topped_up += 1;
            }
            for _ in 0..RECOVERY_SUFFIX {
                tally.update(&server, w.next());
            }
            out.note(format!(
                "wrote {topped_up} more updates to reach a checkpoint, then {RECOVERY_SUFFIX}: recovery replays a pinned suffix"
            ));
        }
    }
    let speeds = machine.speeds();
    out.put("host.speed_fraction", "fraction", mean(speeds));
    out.note(format!(
        "machine speed over {} probes: mean {:.3} of nominal, {:.3} to {:.3}",
        speeds.len(),
        mean(speeds),
        speeds.iter().copied().fold(f64::INFINITY, f64::min),
        speeds.iter().copied().fold(0.0, f64::max),
    ));

    // --- stop the server; check what it served --------------------------
    let stats: ServeStats = server.shutdown();
    out.note(format!("server at shutdown: {stats}"));
    let mut shadow = Shadow::of(&graph);
    let Tally {
        attempted,
        failed,
        samples,
        acks,
        ..
    } = tally;
    let acknowledged = acks.len();
    let (checked, unreachable) = check_samples(&mut shadow, acks, samples)?;
    out.note(format!(
        "oracle: {checked} sampled answers (1 in {ORACLE_SAMPLE_EVERY}; {unreachable} of them \"unreachable\") match Dijkstra at their epoch; {acknowledged} acknowledged writes"
    ));

    // --- recovery -------------------------------------------------------
    // The durable workload recovers its live log directory, the others the
    // image; either way the last reopened system then answers
    // `RECOVERY_CHECKS` oracle-checked queries.
    let (dir, at_stop, times) = match &durable {
        Some(dir) if cfg.trace => (dir, &shadow, LIVE_RECOVERIES),
        Some(dir) => (dir, &shadow, 1),
        None => (
            image
                .as_ref()
                .expect("a workload that is not durable has an image"),
            &shadow0,
            1,
        ),
    };
    let at_stop_graph = at_stop.graph();
    let mut reopened = None;
    for _ in 0..times {
        let (secs, system) = probes::recover_once(dir, &at_stop_graph)?;
        recover_secs.push(secs);
        reopened = Some(system);
    }
    check_engine(
        at_stop,
        &mut reopened.expect("recovered at least once"),
        cfg.seed,
        RECOVERY_CHECKS,
        "answer after System::open",
    )?;
    out.put("durability.recover_s", "s", fastest(&recover_secs));
    out.note(format!(
        "recovery: System::open to first correct answer, fastest of {} recoveries; then {RECOVERY_CHECKS} answers match the oracle over the acknowledged writes",
        recover_secs.len()
    ));

    // --- the keyhole materialization, checked ------------------------------
    out.put("peak_rss_mb", "MiB", probes::peak_rss_mb());
    check_materialized(
        initial.fragmentation(),
        graph.symmetric,
        Some(&sources),
        &materialized.relation,
    )?;
    out.note(format!(
        "materialize from {} sources, {} times: {} tuples, tuple-identical to semi-naive closure; {}",
        sources.len(),
        materialized.secs.len(),
        materialized.relation.len(),
        materialized.stats
    ));

    out.attempted = attempted + idle_tally.attempted;
    out.failed = failed + idle_tally.failed;
    if cfg.calibrate {
        println!(
            "// {}: closed-slice throughput {throughput:.0} ops/s at the nominal speed on {} cores",
            kind.name(),
            crate::nproc()
        );
        println!(
            "rates: [{:.0}.0, {:.0}.0, {:.0}.0],",
            throughput * LADDER_SHARES[0],
            throughput * LADDER_SHARES[1],
            throughput * LADDER_SHARES[2]
        );
    }
    if cfg.trace {
        layers::serve_counters(&mut out, &stats, dir);
        layers::measure(
            cfg,
            &graph,
            &initial,
            &mix,
            &materialized,
            &mut out,
            &mut spans,
        )?;
        spans
            .write_jsonl(&cfg.scratch.join("spans.jsonl"))
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(out)
}
