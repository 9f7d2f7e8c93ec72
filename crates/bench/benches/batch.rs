//! `query_batch` amortization across execution backends.
//!
//! Compares, on both backends (inline and site-threads), answering a workload of shortest-path requests one query at a time vs
//! through `query_batch`, which enumerates fragment chains once per
//! (source-fragment, target-fragment) pair and reuses the interior
//! segment relations of each chain across the whole batch.
//!
//! A third row, `general-cyclic/query-batch`, runs the batch path where
//! it has the most to share: a general graph in four center-grown
//! fragments, a cyclic fragmentation graph with fat borders, ~10 chains
//! per query. Its time is reported; its *gate* is a count that repeats
//! exactly on any runner — Dijkstra sweeps per request once the segment
//! memos and access sets are warm: none for a request whose endpoints
//! lie in different fragments, at most one for two non-border nodes of
//! one fragment (the bench exits non-zero otherwise).
//!
//! Emits a committed perf snapshot to `BENCH_batch.json` (repo root),
//! with the runner's `nproc` as a row of its own: the `site-threads/*`
//! rows depend on it.
//!
//! ```text
//! cargo bench -p ds-bench --bench batch
//! ```

use discset::{Backend, Fragmenter, QueryRequest, System, TcEngine};
use ds_bench::harness::{render, write_json, Bench};
use ds_closure::EngineConfig;
use ds_fragment::center::CenterConfig;
use ds_fragment::CrossingPolicy;
use ds_gen::{generate_general, generate_transportation, GeneralConfig, TransportationConfig};
use ds_graph::{NodeId, ScratchDijkstra};

/// A workload whose requests concentrate on few fragment pairs — the
/// shape batching is designed for (many point-to-point queries between
/// two regions, e.g. a morning of Amsterdam->Milan lookups).
fn workload(nodes: usize, queries: usize) -> Vec<QueryRequest> {
    let n = nodes as u32;
    (0..queries as u32)
        .map(|i| QueryRequest::new(NodeId(i * 7 % 20), NodeId(n - 1 - (i * 11 % 20))))
        .collect()
}

/// Time warm `query_batch` on the cyclic general workload and count its
/// sweeps. Returns the report line, or the gate's failure.
fn general_cyclic(group: &mut Bench) -> Result<String, String> {
    let nodes = 300;
    let g = generate_general(
        &GeneralConfig {
            nodes,
            target_edges: 900,
            c2: 0.15,
            ..GeneralConfig::default()
        },
        1,
    );
    let sys = System::builder()
        .graph(&g)
        .fragmenter(Fragmenter::Center(CenterConfig {
            fragments: 4,
            ..CenterConfig::default()
        }))
        .config(EngineConfig {
            max_chains: 8,
            max_chain_len: 5,
            ..EngineConfig::default()
        })
        .build()
        .expect("system deploys");
    let snapshot = sys.snapshot();
    assert!(!snapshot.fragmentation().fragmentation_graph().is_acyclic());
    let n = nodes as u32;
    let requests: Vec<QueryRequest> = (0..64u32)
        .map(|i| QueryRequest::new(NodeId(i * 37 % n), NodeId((i * 101 + 13) % n)))
        .collect();
    let mut scratch = ScratchDijkstra::new();
    let cold = snapshot.query_batch(&requests, &mut scratch);
    let cold_sweeps = scratch.stats().sweeps;
    group.run("general-cyclic/query-batch", || {
        snapshot.query_batch(&requests, &mut scratch).answers.len()
    });
    let warm = snapshot.query_batch(&requests, &mut scratch);
    let chains: usize = warm.answers.iter().map(|a| a.stats.chains_evaluated).sum();
    // Request by request: warm, only a pair of non-border nodes of one
    // fragment may sweep — once, over that fragment's own edges.
    let planner = snapshot.planner();
    let (mut sweeps, mut inside_one_fragment) = (0, 0);
    for r in &requests {
        let (fx, fy) = (
            planner.fragments_of(r.source),
            planner.fragments_of(r.target),
        );
        let allowed = u64::from(r.source != r.target && fx.len() == 1 && fx == fy);
        let before = scratch.stats().sweeps;
        snapshot.shortest_path(r.source, r.target, &mut scratch);
        let swept = scratch.stats().sweeps - before;
        if swept > allowed {
            return Err(format!(
                "GATE FAILED — general-cyclic: {r:?} ran {swept} sweeps warm, {allowed} allowed"
            ));
        }
        sweeps += swept;
        inside_one_fragment += allowed;
    }
    let per_query = sweeps as f64 / requests.len() as f64;
    group.record("general-cyclic/sweeps-per-query", &[per_query]);
    Ok(format!(
        "general-cyclic: {:.1} chains per query; {per_query:.2} sweeps per query warm \
         ({sweeps} over {inside_one_fragment} requests inside one fragment, none over the \
         other {}), {:.1} cold; segments computed {} cold, {} warm ({} read from the memos)",
        chains as f64 / requests.len() as f64,
        requests.len() - inside_one_fragment as usize,
        cold_sweeps as f64 / requests.len() as f64,
        cold.stats.segments_computed,
        warm.stats.segments_computed,
        warm.stats.segments_reused,
    ))
}

fn main() {
    let clusters = 6usize;
    let nodes_per_cluster = 30;
    let cfg = TransportationConfig {
        clusters,
        nodes_per_cluster,
        target_edges_per_cluster: nodes_per_cluster * 4,
        ..TransportationConfig::default()
    };
    let g = generate_transportation(&cfg, 1);
    let labels = g.cluster_of.clone().unwrap();
    let fragmenter = Fragmenter::ByLabels {
        labels,
        parts: clusters,
        policy: CrossingPolicy::LowerBlock,
    };
    let requests = workload(g.nodes, 64);

    let mut group = Bench::new("query-batch").sample_size(15);
    let mut amortization = Vec::new();
    for backend in [Backend::Inline, Backend::SiteThreads] {
        let mut sys = System::builder()
            .graph(&g)
            .fragmenter(fragmenter.clone())
            .backend(backend)
            .build()
            .expect("system deploys");
        let name = sys.backend_name();

        group.run(&format!("{name}/single-queries"), || {
            let mut total = 0u64;
            for req in &requests {
                total += sys.shortest_path(req.source, req.target).cost.unwrap_or(0);
            }
            total
        });
        group.run(&format!("{name}/query-batch"), || {
            sys.query_batch(&requests).answers.len()
        });

        let stats = sys.query_batch(&requests).stats;
        amortization.push(format!(
            "{name}: {} queries -> {} plans computed ({} reused), \
             {} segments computed ({} reused), {:.0}% amortized",
            stats.queries,
            stats.plans_computed,
            stats.plans_reused,
            stats.segments_computed,
            stats.segments_reused,
            stats.amortization() * 100.0
        ));
    }

    let cyclic = general_cyclic(&mut group);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    group.record("nproc", &[nproc as f64]);

    println!("{}", render(group.results()));
    for line in &amortization {
        println!("{line}");
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
    write_json(path, group.results()).expect("write perf snapshot");
    println!("\nwrote {path}");
    match cyclic {
        Ok(line) => println!("{line}"),
        Err(failure) => {
            eprintln!("{failure}");
            std::process::exit(1);
        }
    }
}
