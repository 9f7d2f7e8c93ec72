//! The simulated multiprocessor machine must agree with the in-process
//! engine and the centralized baseline, its accounting must reflect the
//! paper's communication story, and its batch path must amortize
//! planning exactly like the inline backend's.

use discset::closure::baseline;
use discset::closure::engine::{DisconnectionSetEngine, EngineConfig};
use discset::fragment::{semantic, CrossingPolicy};
use discset::gen::{generate_transportation, TransportationConfig};
use discset::graph::NodeId;
use discset::machine::Machine;
use discset::{QueryRequest, TcEngine};

fn setup(
    clusters: usize,
    seed: u64,
) -> (discset::graph::CsrGraph, discset::fragment::Fragmentation) {
    let cfg = TransportationConfig {
        clusters,
        nodes_per_cluster: 15,
        target_edges_per_cluster: 40,
        ..TransportationConfig::default()
    };
    let g = generate_transportation(&cfg, seed);
    let labels = g.cluster_of.clone().unwrap();
    let frag = semantic::by_labels(
        g.nodes,
        &g.connections,
        &labels,
        clusters,
        CrossingPolicy::LowerBlock,
    )
    .unwrap();
    (g.closure_graph(), frag)
}

#[test]
fn machine_engine_and_baseline_agree() {
    let (csr, frag) = setup(4, 3);
    let mut engine =
        DisconnectionSetEngine::build(csr.clone(), frag.clone(), true, EngineConfig::default())
            .unwrap();
    let mut machine = Machine::deploy(csr.clone(), frag, true).unwrap();
    // Both backends behind one trait-object slice: the code path every
    // experiment uses.
    let backends: [&mut dyn TcEngine; 2] = [&mut engine, &mut machine];
    let n = csr.node_count() as u32;
    for backend in backends {
        for i in 0..20u32 {
            let (x, y) = (NodeId((i * 7) % n), NodeId((i * 11 + 31) % n));
            let want = baseline::shortest_path_cost(&csr, x, y);
            assert_eq!(
                backend.shortest_path(x, y).cost,
                want,
                "{} {x}->{y}",
                backend.backend_name()
            );
        }
    }
    machine.shutdown();
}

#[test]
fn machine_ships_only_small_relations() {
    let (csr, frag) = setup(4, 1);
    let ds_total: usize = frag.disconnection_sets().values().map(|v| v.len()).sum();
    let mut machine = Machine::deploy(csr, frag, true).unwrap();
    machine.shortest_path(NodeId(0), NodeId(59));
    let stats = machine.stats();
    // Each shipped relation is bounded by |entry DS| x |exit DS|; with the
    // few border nodes of a chain transportation graph that stays tiny.
    assert!(
        stats.tuples_shipped <= ds_total * ds_total + 2 * ds_total + 2,
        "tuples shipped {} vs DS total {}",
        stats.tuples_shipped,
        ds_total
    );
    assert_eq!(stats.messages_sent, stats.messages_received);
    machine.shutdown();
}

#[test]
fn machine_handles_many_queries_and_accumulates_stats() {
    let (csr, frag) = setup(3, 7);
    let mut machine = Machine::deploy(csr.clone(), frag, true).unwrap();
    let n = csr.node_count() as u32;
    let mut answered = 0;
    for i in 0..30u32 {
        let (x, y) = (NodeId(i % n), NodeId((i * 13 + 5) % n));
        if machine.shortest_path(x, y).cost.is_some() {
            answered += 1;
        }
    }
    assert!(answered > 0);
    assert_eq!(machine.stats().queries, 30);
    let busy: Vec<_> = machine
        .stats()
        .sites
        .iter()
        .filter(|s| s.subqueries > 0)
        .collect();
    assert!(!busy.is_empty(), "sites must have served subqueries");
    machine.shutdown();
}

#[test]
fn stats_accumulate_across_updates() {
    // Regression: the old update path redeployed the machine, losing the
    // continuity of per-site accounting. With the delta protocol, site
    // threads survive updates, so every counter accumulates monotonically
    // — across incremental updates and fallback updates alike.
    use discset::graph::Edge;
    use discset::NetworkUpdate;
    let (csr, frag) = setup(3, 11);
    let mut m = Machine::deploy(csr.clone(), frag, true).unwrap();
    let n = csr.node_count() as u32;
    for i in 0..10u32 {
        m.shortest_path(NodeId(i % n), NodeId((i * 13 + 5) % n));
    }
    let before = m.stats().clone();
    assert!(before.messages_sent > 0);
    assert_eq!(before.updates, 0);

    // An incremental insert followed by its (incremental or fallback)
    // removal — both travel as deltas, never a teardown.
    let f0 = m.fragmentation().fragment(0).clone();
    let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
    let r1 = m
        .update(&NetworkUpdate::Insert {
            edge: Edge::new(a, b, 1),
            owner: 0,
        })
        .unwrap();
    assert!(!r1.full_recompute, "inserts are incremental: {r1:?}");
    let r2 = m
        .update(&NetworkUpdate::Remove {
            src: a,
            dst: b,
            owner: 0,
        })
        .unwrap();
    for i in 0..10u32 {
        m.shortest_path(NodeId((i * 3) % n), NodeId((i * 7 + 2) % n));
    }

    let after = m.stats();
    assert_eq!(after.queries, 20, "query counter accumulated");
    assert_eq!(after.updates, 2);
    assert_eq!(
        after.update_messages_sent,
        r1.sites_touched + r2.sites_touched
    );
    assert_eq!(
        after.update_tuples_shipped,
        r1.tuples_shipped + r2.tuples_shipped
    );
    assert_eq!(after.messages_sent, after.messages_received);
    let deltas: usize = after.sites.iter().map(|s| s.deltas_applied).sum();
    assert_eq!(deltas, r1.sites_touched + r2.sites_touched);
    // Per-site counters from before the updates are still there.
    for (i, (pre, post)) in before.sites.iter().zip(&after.sites).enumerate() {
        assert!(
            post.subqueries >= pre.subqueries,
            "site {i} lost subquery accounting"
        );
        assert!(post.busy >= pre.busy, "site {i} lost busy accounting");
        assert!(
            post.tuples_produced >= pre.tuples_produced,
            "site {i} lost tuple accounting"
        );
    }
    assert!(
        after.sites.iter().map(|s| s.subqueries).sum::<usize>()
            > before.sites.iter().map(|s| s.subqueries).sum::<usize>(),
        "post-update queries kept counting"
    );
    // Answers stay exact after the in-place updates.
    let now = {
        let connections: Vec<Edge> = m
            .fragmentation()
            .fragments()
            .iter()
            .flat_map(|f| f.edges().iter().copied())
            .collect();
        discset::graph::CsrGraph::from_edges(
            m.fragmentation().node_count(),
            &discset::gen::output::expand_connections(&connections, true),
        )
    };
    for i in 0..15u32 {
        let (x, y) = (NodeId((i * 5) % n), NodeId((i * 11 + 3) % n));
        assert_eq!(
            m.shortest_path(x, y).cost,
            baseline::shortest_path_cost(&now, x, y),
            "post-update {x}->{y}"
        );
    }
    m.shutdown();
}

#[test]
fn interior_segments_are_shipped_once_however_queries_arrive() {
    // The communication argument: a chain's interior segments mention no
    // query endpoint, so the coordinator asks a site for each of them
    // once — whether the queries arrive one by one or as a batch — and
    // every query after that costs its two endpoint messages.
    let (csr, frag) = setup(4, 5);
    let n = csr.node_count() as u32;
    let requests: Vec<QueryRequest> = (0..12u32)
        .map(|i| QueryRequest::new(NodeId(i % 8), NodeId(n - 1 - (i * 3) % 8)))
        .collect();

    let mut singles = Machine::deploy(csr.clone(), frag.clone(), true).unwrap();
    for req in &requests {
        singles.shortest_path(req.source, req.target);
    }
    let singles_sent = singles.stats().messages_sent;
    singles.shutdown();

    let mut batched = Machine::deploy(csr.clone(), frag, true).unwrap();
    let batch = batched.query_batch(&requests);
    let batched_sent = batched.stats().messages_sent;
    let mut unshared = 0;
    for (req, ans) in requests.iter().zip(&batch.answers) {
        assert_eq!(
            ans.cost,
            baseline::shortest_path_cost(&csr, req.source, req.target),
            "batch {}->{}",
            req.source,
            req.target
        );
        // One message per site of the answering chain is the least a
        // query costs when nothing is shared.
        unshared += ans.best_chain.as_ref().unwrap().len();
    }
    assert_eq!(batched_sent, singles_sent);
    assert!(
        batched_sent < unshared,
        "memoized segments must save messages: {batched_sent} vs {unshared}"
    );
    assert!(batch.stats.plans_reused > 0, "{:?}", batch.stats);
    assert!(batch.stats.segments_reused > 0, "{:?}", batch.stats);
    // Asked again, the same queries ship their endpoint subqueries only.
    let again = batched.query_batch(&requests);
    assert_eq!(again.costs(), batch.costs());
    assert!(again.stats.segments_computed < batch.stats.segments_computed);
    assert_eq!(
        batched.stats().messages_sent - batched_sent,
        again.stats.segments_computed
    );
    batched.shutdown();
}
