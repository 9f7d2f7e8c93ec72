//! `offline_general`: the batch/deploy user. No serve tier — every timed
//! operation is a call on the `System` facade, and *every* answer is
//! oracle-checked. The operations take turns in `OFFLINE_ROUNDS` rounds,
//! so each one's repetitions are spread over the whole run.

use std::time::{Duration, Instant};

use discset::{QueryRequest, TcEngine};

use crate::layers;
use crate::oracle::{check_batch, check_engine, check_materialized, Shadow};
use crate::pinned::*;
use crate::probes::{self, repeat_for, Materialized};
use crate::reference::SpeedProbe;
use crate::report::Outcome;
use crate::stats::{fastest, mean, median, traced_shortfall, Timing};
use crate::trace::{SpanLog, ROOT};
use crate::workload::{build_system, generate, write_streams, ClientStream, Kind, ReadMix};
use crate::RunConfig;

/// Shares of `--seconds`, each cut into `OFFLINE_ROUNDS` rounds: set-up,
/// materialization, batches, and in a traced run single queries, which
/// only per-layer metrics report (as the inline updates that follow).
const SHARES: [f64; 4] = [0.15, 0.20, 0.60, 0.0];
const TRACED_SHARES: [f64; 4] = [0.15, 0.20, 0.35, 0.15];
/// Inline updates of a traced run, after the rounds.
const UPDATES_SHARE: f64 = 0.10;

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let kind = Kind::OfflineGeneral;
    let mut out = Outcome::default();
    let shares = if cfg.trace { TRACED_SHARES } else { SHARES };
    let per_round =
        |i: usize| Duration::from_secs_f64(cfg.seconds * shares[i] / OFFLINE_ROUNDS as f64);
    let mut spans = SpanLog::new(Instant::now());

    let mut graph = generate(kind);
    let mut system = build_system(kind, &graph, None);
    let initial = system.snapshot();
    let mut shadow = Shadow::of(&graph);
    let oracle_graph = shadow.graph();
    let image = cfg.scratch.join("image");
    probes::write_image(&initial, 0, &image)?;
    let mix = ReadMix::for_workload(kind, &graph, cfg.seed);
    let mut stream = ClientStream::new(cfg.seed, 0, &mix);

    // The machine-speed probes, taken around each group of timed calls:
    // on this one thread like the calls, and on two threads around the
    // materializations, which run on two.
    let mut machine = SpeedProbe::start(1);
    let mut both = SpeedProbe::start(2);
    // Seconds as measured, and at the nominal machine speed.
    let (mut setup_secs, mut nominal_setup) = (Vec::new(), Vec::new());
    let (mut batch_secs, mut nominal_batch) = (Vec::new(), Vec::new());
    let (mut gen_secs, mut recover_secs) = (Vec::new(), Vec::new());
    let mut materialized: Option<Materialized> = None;
    let mut batches: Vec<(Vec<QueryRequest>, Vec<Option<u64>>)> = Vec::new();
    let mut singles = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..OFFLINE_ROUNDS {
        // Set-up: generate, then fragment + precompute + snapshot
        // assembly (the build alone is `closure.build_ms`).
        machine.since_last();
        let (secs, ()) = repeat_for(per_round(0), 3, || {
            let t = Instant::now();
            graph = generate(kind);
            gen_secs.push(t.elapsed().as_secs_f64());
            system = build_system(kind, &graph, None);
        });
        let speed = machine.since_last();
        nominal_setup.extend(secs.iter().map(|s| s * speed));
        setup_secs.extend(secs);

        // Inline query_batch, a fresh batch of uniform pairs each time.
        let (secs, ()) = repeat_for(per_round(2), 3, || {
            let requests: Vec<QueryRequest> =
                (0..OFFLINE_BATCH).map(|_| stream.next_read()).collect();
            let (start, rep) = (Instant::now(), batches.len() as u64);
            let costs = system.query_batch(&requests).costs();
            // Odd repetitions record a span, even ones do not: both sides
            // of the tracing-overhead comparison.
            if cfg.trace && rep % 2 == 1 {
                spans.push("closure.query_batch", start, Instant::now(), ROOT, rep);
            }
            batches.push((requests, costs));
        });
        let speed = machine.since_last();
        nominal_batch.extend(secs.iter().map(|s| s * speed));
        batch_secs.extend(secs);

        // The whole closure.
        both.since_last();
        probes::materialize(&system, None, per_round(1), 3)
            .join(both.since_last(), &mut materialized);

        if cfg.trace {
            // Recovery of a durable image of the built state, and single
            // inline queries.
            for _ in 0..RECOVERIES_PER_ROUND {
                recover_secs.push(probes::recover_once(&image, &oracle_graph)?.0);
            }
            let (secs, ()) = repeat_for(per_round(3), 25, || {
                let r = stream.next_read();
                singles
                    .1
                    .push(system.shortest_path(r.source, r.target).cost);
                singles.0.push(r);
            });
            singles.2.extend(secs);
        }
    }
    let materialized = materialized.expect("OFFLINE_ROUNDS >= 1");
    out.put("setup_s", "s", median(&nominal_setup));
    out.put(
        "materialize_tuples_per_s",
        "1/s",
        materialized.tuples_per_s(),
    );
    let throughput = OFFLINE_BATCH as f64 / mean(&nominal_batch);
    out.put("throughput_ops_s", "1/s", throughput);
    let speeds: Vec<f64> = [machine.speeds(), both.speeds()].concat();
    out.put("host.speed_fraction", "fraction", mean(&speeds));
    out.attempted = (setup_secs.len()
        + recover_secs.len()
        + materialized.secs.len()
        + batches.len() * OFFLINE_BATCH
        + singles.0.len()) as u64;
    out.note(format!(
        "{} set-ups: median {:.4} s at the nominal machine speed ({:.4} s as measured); {} materializations; {} batches of {OFFLINE_BATCH} uniform pairs: {throughput:.1} queries/s at the nominal speed ({:.1} as measured); in {OFFLINE_ROUNDS} rounds",
        setup_secs.len(),
        median(&nominal_setup),
        median(&setup_secs),
        materialized.secs.len(),
        batches.len(),
        OFFLINE_BATCH as f64 / mean(&batch_secs),
    ));
    out.note(format!(
        "machine speed over {} probes: mean {:.3} of nominal; {}",
        speeds.len(),
        mean(&speeds),
        initial.fragmentation().metrics()
    ));

    // --- check every answer so far, before the graph changes ------------
    for (requests, costs) in &batches {
        check_batch(&oracle_graph, requests, costs, "query_batch answer")?;
    }
    check_batch(&oracle_graph, &singles.0, &singles.1, "inline answer")?;
    out.note(format!(
        "oracle: all {} batch answers and {} single answers match Dijkstra",
        batches.len() * OFFLINE_BATCH,
        singles.0.len()
    ));

    if cfg.trace {
        out.put(
            "closure.build_ms",
            "ms",
            (median(&setup_secs) - median(&gen_secs)) * 1e3,
        );
        out.put("durability.recover_s", "s", fastest(&recover_secs));
        let reads = Timing::of(&singles.2.iter().map(|s| s * 1e6).collect::<Vec<_>>());
        out.put("load.read_lat_p50_us", "us", reads.p50);
        out.put("load.read_lat_p99_us", "us", reads.p99);
        out.note(format!("single inline query us: {reads}"));
        // Odd repetitions recorded a span, even ones did not.
        let side = |parity: usize| -> Vec<f64> {
            batch_secs
                .iter()
                .skip(parity)
                .step_by(2)
                .map(|s| OFFLINE_BATCH as f64 / s)
                .collect()
        };
        out.put(
            "trace_overhead_fraction",
            "fraction",
            traced_shortfall(&side(0), &side(1)),
        );

        // --- inline updates (maintain + reach-index rebuild) ------------
        let mut writer = write_streams(&initial, 1, false).remove(0);
        let budget = Duration::from_secs_f64(cfg.seconds * UPDATES_SHARE);
        let (update_secs, ()) = repeat_for(budget, 100, || {
            let u = writer.next();
            match system.update(&u) {
                Ok(_) => shadow.apply(&u),
                Err(_) => out.failed += 1,
            }
        });
        let writes = Timing::of(&update_secs.iter().map(|s| s * 1e6).collect::<Vec<_>>());
        out.put("load.write_lat_p50_us", "us", writes.p50);
        out.put("load.write_lat_p99_us", "us", writes.p99);
        out.attempted += update_secs.len() as u64;
        out.note(format!("inline update us: {writes}"));
        check_engine(
            &shadow,
            &mut system,
            cfg.seed,
            OFFLINE_BATCH,
            "answer after the updates",
        )?;
    }

    out.put("peak_rss_mb", "MiB", probes::peak_rss_mb());
    check_materialized(
        initial.fragmentation(),
        graph.symmetric,
        None,
        &materialized.relation,
    )?;
    out.note(format!(
        "materialize: {} tuples, tuple-identical to semi-naive closure; {}",
        materialized.relation.len(),
        materialized.stats
    ));

    if cfg.trace {
        layers::no_serve_counters(&mut out);
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
