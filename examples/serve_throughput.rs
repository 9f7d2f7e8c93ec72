//! Serving quickstart: deploy a `System`, hand its snapshot to a
//! `ds_serve` worker pool, hammer it from concurrent client threads
//! while updates stream in, and read the throughput/latency report.
//!
//! ```text
//! cargo run --release --example serve_throughput
//! ```

use discset::fragment::CrossingPolicy;
use discset::gen::{generate_transportation, TransportationConfig};
use discset::graph::{Edge, NodeId};
use discset::{Fragmenter, NetworkUpdate, System};

fn main() {
    // A 6-country transportation network, one site per country.
    let clusters = 6usize;
    let g = generate_transportation(
        &TransportationConfig {
            clusters,
            nodes_per_cluster: 30,
            target_edges_per_cluster: 110,
            ..TransportationConfig::default()
        },
        42,
    );
    let labels = g
        .cluster_of
        .clone()
        .expect("transportation graphs are clustered");
    let sys = System::builder()
        .graph(&g)
        .fragmenter(Fragmenter::ByLabels {
            labels,
            parts: clusters,
            policy: CrossingPolicy::LowerBlock,
        })
        .build()
        .expect("valid network");
    println!(
        "deployed: {} sites over {} nodes; serving with 4 workers",
        clusters, g.nodes
    );

    // One snapshot, four workers, each with its own scratch kernel.
    // The server is Sync: share it by reference across client threads.
    let server = sys.serve(4);
    let nodes = g.nodes as u32;
    let hot = (NodeId(0), NodeId(nodes - 1)); // a popular cross-network route

    std::thread::scope(|s| {
        // Eight reader connections: 60% the hot route, 40% random pairs.
        for t in 0..8u32 {
            let server = &server;
            s.spawn(move || {
                for i in 0..300u32 {
                    let (x, y) = if (i + t) % 5 < 3 {
                        hot
                    } else {
                        (
                            NodeId((i * 37 + t * 11) % nodes),
                            NodeId((i * 53 + t * 29) % nodes),
                        )
                    };
                    let served = server.query(x, y).expect("healthy pool");
                    assert!(served.epoch <= server.epoch());
                }
            });
        }
        // One updater: insert/remove a shortcut in country 0 while the
        // readers run. Each update publishes a new snapshot epoch; the
        // readers never block on it.
        let server = &server;
        s.spawn(move || {
            let f0 = server.snapshot().fragmentation().fragment(0).clone();
            let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
            for _ in 0..10 {
                server
                    .update(&NetworkUpdate::Insert {
                        edge: Edge::new(a, b, 1),
                        owner: 0,
                    })
                    .expect("valid insert");
                server
                    .update(&NetworkUpdate::Remove {
                        src: a,
                        dst: b,
                        owner: 0,
                    })
                    .expect("valid remove");
            }
        });
    });

    let stats = server.shutdown();
    println!(
        "\nserved {} requests in {:.2?} ({:.0} req/s aggregate)",
        stats.requests,
        stats.elapsed,
        stats.throughput_qps()
    );
    println!(
        "epochs: {} updates -> {} publications, final epoch {}",
        stats.updates, stats.publications, stats.epoch
    );
    println!(
        "micro-batching: {} batches, {:.1} requests/batch, {:.0}% coalesced, amortization {:.2}",
        stats.batches,
        stats.requests as f64 / stats.batches.max(1) as f64,
        100.0 * stats.coalesced_fraction(),
        stats.batch.amortization()
    );
    println!(
        "answer cache: {} hits / {} misses ({:.0}% hit rate); \
         queue: depth {} high-water {} of {}, {} shed",
        stats.cache_hits,
        stats.cache_misses,
        100.0 * stats.cache_hit_fraction(),
        stats.queue_depth,
        stats.queue_high_water,
        stats.queue_capacity,
        stats.queue_rejections
    );
    println!(
        "latency: p50 {:.0}us  p99 {:.0}us  max {:.0}us",
        stats.latency.p50_us, stats.latency.p99_us, stats.latency.max_us
    );
    println!(
        "workers: {} (balance ratio {:.2}), scratch sweeps {} / grows {}",
        stats.workers,
        stats.balance_ratio(),
        stats.scratch.sweeps,
        stats.scratch.grows
    );
    println!(
        "hub served: {} strategy, built by the {} backend",
        match stats.strategy {
            discset::PrecomputeStrategy::Skeleton => "skeleton",
            discset::PrecomputeStrategy::GlobalSweep => "global-sweep",
        },
        stats.backend
    );
}
