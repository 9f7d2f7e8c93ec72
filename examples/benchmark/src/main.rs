//! The repository's benchmark. See `README.md` next to `Cargo.toml`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! benchmark --calibrate --workload <name> [--seconds <s>]
//! benchmark --compare <a.jsonl> <b.jsonl>
//! benchmark --spread <a.jsonl>
//! ```
//!
//! Run from the repository root (where `BENCHMARK.json` is). The last
//! line of standard output is the result object the driver reads.

mod compare;
mod json;
mod layers;
mod load;
mod offline;
mod oracle;
mod pinned;
mod probes;
mod reference;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use report::{result_line, Spec};
use workload::Kind;

pub struct RunConfig {
    pub kind: Kind,
    /// Drives every operation stream (the graphs are pinned).
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub calibrate: bool,
    /// A directory of this run's own, inside the checkout.
    pub scratch: PathBuf,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    calibrate: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
    spread: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: pinned::DEFAULT_SEED,
        seconds: None,
        trace: false,
        calibrate: false,
        out: None,
        compare: None,
        spread: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => args.out = Some(value("a file")?),
            "--calibrate" => args.calibrate = true,
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            "--spread" => args.spread = Some(value("a file")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let spec = Spec::load()?;
    if let Some((a, b)) = &args.compare {
        return compare::run(&spec, a, b);
    }
    if let Some(path) = &args.spread {
        return compare::spread_report(&spec, path);
    }
    let name = args.workload.ok_or("--workload is required")?;
    let kind = Kind::parse(&name).ok_or(format!(
        "unknown workload `{name}`; BENCHMARK.json names {}",
        spec.workloads.join(", ")
    ))?;
    let scratch = PathBuf::from(".bench_out").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let cfg = RunConfig {
        kind,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(spec.run_seconds),
        trace: args.trace,
        calibrate: args.calibrate,
        scratch: scratch.clone(),
    };
    let outcome = match kind {
        Kind::OfflineGeneral => offline::run(&cfg),
        _ => serve::run(&cfg),
    };
    // Keep the spans of the last traced run per workload; drop the rest
    // (log directories, images) whatever the outcome.
    if cfg.trace {
        let _ = std::fs::rename(
            scratch.join("spans.jsonl"),
            format!(".bench_out/spans-{}.jsonl", kind.name()),
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = outcome?;

    println!(
        "{} seed {} seconds {} trace {} nproc {} (rates calibrated on {})",
        kind.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        nproc(),
        pinned::CALIBRATED_NPROC
    );
    for line in &outcome.notes {
        println!("  {line}");
    }
    for (name, (value, unit)) in &outcome.metrics {
        println!("  {name:<36} {value:>18.4} {unit}");
    }
    println!(
        "  failed_fraction {:.6} ({} of {} operations)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let declared = if cfg.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let line = result_line(&outcome, declared)?;
    if let Some(path) = &args.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(
            f,
            r#"{{"workload": "{}", "seed": {}, "trace": {}, "result": {line}}}"#,
            kind.name(),
            cfg.seed,
            u8::from(cfg.trace)
        )
        .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{line}");
    Ok(true)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
