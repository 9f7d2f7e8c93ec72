//! Materialize the full transitive closure of a fragmented network in
//! bulk — the paper's parallel strategy run to completion instead of
//! per query — from the engine's epoch: the first call builds the hub
//! (the closure of the border skeleton) and fills the sites' exit sets,
//! a second call sweeps nothing. Both are compared against the
//! sequential semi-naive baseline tuple for tuple, and spot-checked
//! against the per-query engine.
//!
//! ```text
//! cargo run --release --example materialize [seed]
//! ```

use std::time::Instant;

use discset::gen::{generate_transportation, TransportationConfig};
use discset::graph::NodeId;
use discset::relation::bulk::FragmentPartition;
use discset::relation::tc;
use discset::{Fragmenter, MaterializeConfig, System, TcEngine};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7u64);
    let cfg = TransportationConfig {
        clusters: 6,
        nodes_per_cluster: 22,
        target_edges_per_cluster: 70,
        ..TransportationConfig::default()
    };
    let g = generate_transportation(&cfg, seed);
    println!(
        "transportation graph: {} nodes, {} connections, {} clusters (seed {seed})",
        g.nodes,
        g.connections.len(),
        cfg.clusters
    );

    // Fragment by the generator's semantic clusters and deploy.
    let labels = g.cluster_of.clone().expect("transportation has clusters");
    let mut sys = System::builder()
        .graph(&g)
        .fragmenter(Fragmenter::ByLabels {
            labels,
            parts: cfg.clusters,
            policy: discset::fragment::CrossingPolicy::LowerBlock,
        })
        .build()
        .expect("system deploys");

    // Bulk-materialize the closure through the facade, twice: the first
    // call of the epoch builds what the second reads.
    let borders = sys.engine().complementary().border_count();
    println!("\nmaterialization by the disconnection set approach ({borders} borders):");
    let mut runs = Vec::new();
    for call in ["cold", "warm"] {
        let t0 = Instant::now();
        let (closure, stats) = sys.materialize().expect("no worker panics");
        let bulk_time = t0.elapsed();
        println!("  {call}: {} tuples in {bulk_time:?}", closure.len());
        println!("    {stats}");
        println!(
            "    hub {}: {} skeleton sweeps; {} sweeps of one fragment, {} of the whole graph",
            if stats.hub_built { "built" } else { "kept" },
            stats.hub_sweeps,
            stats.fragment_sweeps,
            stats.network_sweeps
        );
        println!(
            "    {} access and exit entries folded with the hub; a path through the \
             interior alone decided {} of {} tuples",
            stats.exchanged_tuples,
            stats.kept_local,
            closure.len()
        );
        runs.push((closure, stats));
    }
    let (closure, cold) = &runs[0];
    let (again, warm) = &runs[1];
    assert!(cold.hub_built && cold.hub_sweeps == borders);
    assert_eq!(
        warm.hub_sweeps + warm.fragment_sweeps,
        0,
        "a warm call sweeps"
    );
    assert_eq!(
        again.rows(),
        closure.rows(),
        "a warm call changed the relation"
    );

    // Sequential baseline on the identical union relation.
    let partition = FragmentPartition::new(sys.fragmentation(), true);
    let t1 = Instant::now();
    let (seq, seq_stats) = tc::seminaive_closure(&partition.union_relation(), None);
    let seq_time = t1.elapsed();
    println!("\nsequential semi-naive baseline:");
    println!("  {seq_stats}");
    println!("  {} tuples in {seq_time:?}", seq.len());
    assert_eq!(closure.rows(), seq.rows(), "bulk must be tuple-identical");
    println!("  -> tuple-identical to both bulk results");

    // Keyhole: restrict the closure to a handful of sources (§2.1).
    let sources: Vec<NodeId> = (0..4u32).map(NodeId).collect();
    let (slice, slice_stats) = sys
        .materialize_with(MaterializeConfig {
            sources: Some(sources.clone()),
            ..Default::default()
        })
        .expect("no worker panics");
    println!(
        "\nkeyhole slice from {} sources: {} tuples ({})",
        sources.len(),
        slice.len(),
        slice_stats
    );

    // Spot-check materialized tuples against the per-query engine
    // (skipping self-pairs: the closure stores the cheapest round trip,
    // the engine answers 0 for x == y by convention).
    let mut checked = 0;
    for t in closure.rows().iter().step_by(closure.len() / 16 + 1) {
        if t.src == t.dst {
            continue;
        }
        let answer = sys.shortest_path(t.src, t.dst);
        assert_eq!(answer.cost, Some(t.cost), "{} -> {}", t.src, t.dst);
        checked += 1;
    }
    println!("{checked} sampled tuples confirmed by the per-query engine");
}
