//! Observability quickstart: arm one `ds_obs` bundle on a `System` and
//! watch it collect across the serve pool and bulk materialization,
//! then read the results four ways: per-request span breakdowns, the
//! slow-query log, the workload recorder's hot pairs, and the registry's
//! Prometheus / JSON exports.
//!
//! ```text
//! cargo run --release --example observe
//! ```

use discset::fragment::CrossingPolicy;
use discset::gen::{generate_transportation, TransportationConfig};
use discset::graph::{Edge, NodeId};
use discset::{Fragmenter, NetworkUpdate, Observability, System};

fn main() {
    // A 6-country transportation network with one armed observability
    // bundle shared by every tier.
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
    let obs = Observability::armed();
    let sys = System::builder()
        .graph(&g)
        .fragmenter(Fragmenter::ByLabels {
            labels,
            parts: clusters,
            policy: CrossingPolicy::LowerBlock,
        })
        .observability(obs.clone())
        .build()
        .expect("valid network");
    let nodes = g.nodes as u32;

    // Serve: a worker pool inherits the bundle through the facade; each
    // request leaves a trace with queue-wait, evaluation and per-chain
    // spans. A hot route dominates (the workload recorder will surface
    // it), one update publishes an epoch, one `connected` probe rides the
    // reachability index.
    let server = sys.serve(2);
    let hot = (NodeId(0), NodeId(nodes - 1));
    for i in 0..40u32 {
        let (x, y) = if i % 3 != 0 {
            hot
        } else {
            (NodeId((i * 37) % nodes), NodeId((i * 53) % nodes))
        };
        server.query(x, y).expect("healthy pool");
    }
    let f0 = server.snapshot().fragmentation().fragment(0).clone();
    let (a, b) = (f0.nodes()[0], *f0.nodes().last().expect("non-empty"));
    server
        .update(&NetworkUpdate::Insert {
            edge: Edge::new(a, b, 1),
            owner: 0,
        })
        .expect("valid insert");
    server.connected(hot.0, hot.1).expect("healthy pool");
    server.shutdown();

    // Bulk: materialize the full closure; its stats land as
    // `materialize_*` gauges in the same registry.
    sys.materialize().expect("closure converges");

    // ---- Read it all back. ------------------------------------------

    println!("== recent request traces (admission -> spans -> outcome) ==");
    for t in obs.tracer().recent(8) {
        println!("  {t}");
    }

    let slow = obs.slow_queries().recent(3);
    println!(
        "\n== slow-query log ({} retained, adaptive p999 threshold) ==",
        obs.slow_queries().len()
    );
    for t in slow {
        println!("  {t}");
    }

    let w = obs.workload();
    println!(
        "\n== workload recorder ({} vertex pairs, {} fragment pairs, {} dropped) ==",
        w.distinct_vertex_pairs(),
        w.distinct_fragment_pairs(),
        w.dropped()
    );
    for p in w.top_vertex_pairs(3) {
        println!("  route {} -> {}: {} requests", p.a, p.b, p.count);
    }
    for p in w.top_fragment_pairs(3) {
        println!("  fragment pair {} <-> {}: {} requests", p.a, p.b, p.count);
    }

    let snap = sys.observe();
    println!("\n== Prometheus text exposition ==");
    print!("{}", snap.to_prometheus());
    println!("\n== JSON export ==");
    println!("{}", snap.to_json());
}
