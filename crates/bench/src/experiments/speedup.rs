//! The §2.1 speed-up claim: "For good fragmentations, it gives a linear
//! speed-up."
//!
//! We fragment chain transportation graphs by their ground-truth clusters
//! (the "good fragmentation") and time end-to-end shortest-path queries
//! three ways: the centralized baseline (global Dijkstra) plus both
//! backends — the disconnection set approach on one processor, and with
//! one thread per site subquery. Both are deployed through the `System`
//! facade and timed through one trait-driven code path. Two speed-up
//! measures are reported:
//!
//! * the *ideal* speed-up `Σ site busy / max site busy` of a query
//!   evaluated on its own, every site of its chain working and nothing
//!   memoized — what a PRISMA-style machine with free threads would get
//!   from phase one (deterministic, noise-free; taken from the reference
//!   evaluation `executor::run_chain`, since the engines read a chain's
//!   interior segments off the hub and ask only its endpoint sites); and
//! * the measured wall-clock ratio sequential/parallel (noisy on a shared
//!   host, reported for reference).

use std::sync::Arc;
use std::time::{Duration, Instant};

use discset::{Backend, Fragmenter, System, TcEngine};
use ds_closure::baseline;
use ds_closure::executor::{run_chain, ExecutionMode};
use ds_fragment::CrossingPolicy;
use ds_gen::{generate_transportation, TransportationConfig};
use ds_graph::{NodeId, ScratchDijkstra};

/// One row of the speed-up experiment.
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    /// Fragments = processors (clusters of the generated graph).
    pub fragments: usize,
    /// Mean centralized query time (µs).
    pub centralized_us: f64,
    /// Mean disconnection-set query time, sequential phase one (µs).
    pub ds_sequential_us: f64,
    /// Mean disconnection-set query time, parallel phase one (µs).
    pub ds_parallel_us: f64,
    /// Mean ideal speed-up from site accounting (Σ busy / max busy).
    pub ideal_speedup: f64,
    /// Queries timed.
    pub queries: usize,
}

/// Run the speed-up experiment for each cluster count.
///
/// Queries go from the first cluster to the last (the longest chains —
/// the case the approach is designed for).
pub fn speedup(cluster_counts: &[usize], nodes_per_cluster: usize, seed: u64) -> Vec<SpeedupRow> {
    cluster_counts
        .iter()
        .map(|&k| one_row(k, nodes_per_cluster, seed))
        .collect()
}

fn one_row(clusters: usize, nodes_per_cluster: usize, seed: u64) -> SpeedupRow {
    let cfg = TransportationConfig {
        clusters,
        nodes_per_cluster,
        target_edges_per_cluster: nodes_per_cluster * 4,
        connections_per_link: 2,
        ..TransportationConfig::default()
    };
    let g = generate_transportation(&cfg, seed);
    let labels = g
        .cluster_of
        .clone()
        .expect("transportation graphs carry labels");
    let fragmenter = Fragmenter::ByLabels {
        labels,
        parts: clusters,
        policy: CrossingPolicy::LowerBlock,
    };
    let csr = g.closure_graph();

    // Both backends, deployed through the System facade and timed by
    // the one loop below.
    let mut variants: Vec<System> = [Backend::Inline, Backend::SiteThreads]
        .into_iter()
        .map(|backend| {
            System::builder()
                .graph(&g)
                .fragmenter(fragmenter.clone())
                .backend(backend)
                .build()
                .expect("system deploys")
        })
        .collect();

    // End-to-end queries: first cluster -> last cluster.
    let m = nodes_per_cluster as u32;
    let queries: Vec<(NodeId, NodeId)> = (0..10u32)
        .map(|i| {
            (
                NodeId(i % m),
                NodeId((clusters as u32 - 1) * m + (i * 3) % m),
            )
        })
        .collect();

    let snapshot = variants[0].snapshot();
    let augmented: Vec<_> = (0..snapshot.site_count())
        .map(|f| Arc::clone(snapshot.augmented_handle(f)))
        .collect();
    let mut scratch = ScratchDijkstra::new();

    let mut centralized_us = 0.0;
    let mut backend_us = [0.0f64; 2];
    let mut ideal = 0.0;
    for &(x, y) in &queries {
        let t = Instant::now();
        let want = baseline::shortest_path_cost(&csr, x, y);
        centralized_us += t.elapsed().as_secs_f64() * 1e6;

        for (k, sys) in variants.iter_mut().enumerate() {
            let t = Instant::now();
            let a = sys.shortest_path(x, y);
            backend_us[k] += t.elapsed().as_secs_f64() * 1e6;
            assert_eq!(
                a.cost,
                want,
                "{} answer must match baseline",
                sys.backend_name()
            );
        }

        let (mut total, mut max) = (Duration::ZERO, Duration::ZERO);
        let plan = snapshot
            .planner()
            .plan(x, y)
            .expect("endpoints are in fragments");
        for chain in &plan.chains {
            let (_, runs) = run_chain(&augmented, chain, ExecutionMode::Sequential, &mut scratch);
            for r in &runs {
                total += r.busy;
                max = max.max(r.busy);
            }
        }
        if max > Duration::ZERO {
            ideal += total.as_secs_f64() / max.as_secs_f64();
        }
    }
    let n = queries.len() as f64;
    SpeedupRow {
        fragments: clusters,
        centralized_us: centralized_us / n,
        ds_sequential_us: backend_us[0] / n,
        ds_parallel_us: backend_us[1] / n,
        ideal_speedup: ideal / n,
        queries: queries.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_speedup_grows_with_fragments() {
        let rows = speedup(&[2, 4], 20, 7);
        assert_eq!(rows.len(), 2);
        // More fragments on the chain = more sites working concurrently.
        assert!(
            rows[1].ideal_speedup > rows[0].ideal_speedup,
            "ideal speedup should grow: {} vs {}",
            rows[0].ideal_speedup,
            rows[1].ideal_speedup
        );
        // With k fragments on a chain, phase one is k-way parallel, so the
        // ideal speedup should approach the fragment count.
        assert!(rows[1].ideal_speedup > 1.5);
    }

    #[test]
    fn all_query_answers_validated_against_baseline() {
        // one_row asserts equality internally; reaching here means all
        // queries matched on every backend.
        let rows = speedup(&[3], 15, 11);
        assert_eq!(rows[0].queries, 10);
    }
}
