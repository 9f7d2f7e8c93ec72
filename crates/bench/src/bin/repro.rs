//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p ds-bench --bin repro -- all
//! cargo run --release -p ds-bench --bin repro -- table1 [seeds]
//! ```

use ds_bench::experiments::{ablation, figures, iters, phe_exp, render_rows, speedup, tables};
use ds_bench::table::{f1, f2, render};
use ds_bench::DEFAULT_SEEDS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let seeds: u64 = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEEDS);

    let known = [
        "table1", "table2", "table3", "fig2", "fig5", "fig8", "speedup", "iters", "ablation",
        "phe", "all",
    ];
    if !known.contains(&what) {
        eprintln!("unknown experiment '{what}'; one of: {}", known.join(", "));
        std::process::exit(2);
    }

    let run = |id: &str| what == "all" || what == id;

    if run("table1") {
        println!("== Table 1: transportation graphs, 4 clusters x 25 nodes ==");
        println!("{}", render_rows(&tables::table1(seeds)));
    }
    if run("table2") {
        println!("== Table 2: (distributed) centers, 4 clusters x 150 nodes ==");
        println!("{}", render_rows(&tables::table2(seeds.min(5))));
    }
    if run("table3") {
        println!("== Table 3: general graphs, 100 nodes ==");
        println!("{}", render_rows(&tables::table3(seeds)));
    }
    if run("fig5") {
        println!("== Fig. 5: matrix splitting worked example ==");
        println!("{}", figures::fig5());
    }
    if run("fig8") {
        println!("== Fig. 8: sweep direction on an elliptical graph ==");
        let rows = figures::fig8(seeds);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.sweep.clone(),
                    f1(r.ds),
                    f1(r.fragments),
                    r.graphs.to_string(),
                ]
            })
            .collect();
        println!("{}", render(&["Sweep", "DS", "#frag", "graphs"], &body));
    }
    if run("fig2") {
        println!("== Figs. 1-3: fragmentation graph structure ==");
        let rows = figures::fig2(seeds);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.algorithm.clone(),
                    format!("{:.0}%", r.acyclic_share * 100.0),
                    f1(r.links),
                ]
            })
            .collect();
        println!("{}", render(&["Algorithm", "acyclic", "links"], &body));
    }
    if run("speedup") {
        println!("== Speed-up (sec 2.1 claim): good fragmentation, chain queries ==");
        let rows = speedup::speedup(&[2, 4, 8], 40, 1);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.fragments.to_string(),
                    f1(r.centralized_us),
                    f1(r.ds_sequential_us),
                    f1(r.ds_parallel_us),
                    f2(r.ideal_speedup),
                    r.queries.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                &[
                    "#frag",
                    "central us",
                    "DS seq us",
                    "DS par us",
                    "ideal x",
                    "queries"
                ],
                &body
            )
        );
    }
    if run("iters") {
        println!("== Iterations to fixpoint (sec 2.1 claim) ==");
        let rows = iters::iterations(&[2, 4, 8], 15, 1);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.fragments.to_string(),
                    r.global_iterations.to_string(),
                    r.max_fragment_iterations.to_string(),
                    r.global_diameter.to_string(),
                    r.max_fragment_diameter.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                &[
                    "#frag",
                    "global iters",
                    "frag iters",
                    "global diam",
                    "frag diam"
                ],
                &body
            )
        );
    }
    if run("ablation") {
        println!("== Ablation: crossing-edge policy (bond-energy) ==");
        println!("{}", render_rows(&ablation::crossing_policy(seeds)));
        println!("== Ablation: center growth variant ==");
        println!("{}", render_rows(&ablation::center_growth(seeds)));
        println!("== Ablation: complementary information scope ==");
        let rows = ablation::complementary_scope(1);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.scope.clone(),
                    r.shortcut_tuples.to_string(),
                    format!("{}/{}", r.correct, r.queries),
                ]
            })
            .collect();
        println!(
            "{}",
            render(&["Scope", "shortcut tuples", "correct"], &body)
        );
    }
    if run("phe") {
        println!("== Parallel Hierarchical Evaluation (sec 5 / ref [12]) ==");
        let rows = phe_exp::phe(6, 15, 1);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.clone(),
                    f2(r.chains),
                    f1(r.site_queries),
                    format!("{}/{}", r.correct, r.queries),
                ]
            })
            .collect();
        println!(
            "{}",
            render(&["Mode", "chains/query", "site queries", "correct"], &body)
        );
    }
}
