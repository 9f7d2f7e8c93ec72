//! The paper's motivating scenario (§2.1): a European railway network
//! "naturally fragmented by country", queried for the shortest connection
//! between Amsterdam and Milan.
//!
//! Demonstrates: semantic fragmentation, border cities as disconnection
//! sets, the in-country fast path ("queries about the shortest path of
//! two cities in Holland can be answered by the Dutch railway computer
//! system alone"), multi-chain planning on a cyclic fragmentation graph
//! (two routes over the Alps), full route reconstruction — and backend
//! swapping through the `System` builder: the same queries run unchanged
//! with every country's subquery on a thread of its own.
//!
//! ```text
//! cargo run --example railway
//! ```

use discset::closure::baseline;
use discset::fragment::CrossingPolicy;
use discset::gen::output::expand_connections;
use discset::graph::{CsrGraph, Edge, NodeId};
use discset::{Backend, Fragmenter, System, TcEngine};

const CITIES: &[(&str, u32)] = &[
    // Holland (country 0)
    ("Amsterdam", 0),
    ("Utrecht", 0),
    ("Rotterdam", 0),
    ("Eindhoven", 0),
    ("Arnhem", 0),
    // Germany (country 1)
    ("Cologne", 1),
    ("Frankfurt", 1),
    ("Stuttgart", 1),
    ("Munich", 1),
    ("Karlsruhe", 1),
    // Switzerland (country 2)
    ("Basel", 2),
    ("Zurich", 2),
    ("Chur", 2),
    ("Bern", 2),
    // Italy (country 3)
    ("Milan", 3),
    ("Verona", 3),
    ("Turin", 3),
    ("Bologna", 3),
    // Austria (country 4)
    ("Innsbruck", 4),
    ("Salzburg", 4),
];

/// (from, to, km) — one tuple per railway line; travel is symmetric.
const LINES: &[(&str, &str, u64)] = &[
    // Dutch network
    ("Amsterdam", "Utrecht", 40),
    ("Amsterdam", "Rotterdam", 80),
    ("Utrecht", "Arnhem", 60),
    ("Utrecht", "Eindhoven", 90),
    ("Rotterdam", "Eindhoven", 110),
    ("Eindhoven", "Arnhem", 80),
    // Dutch-German border crossings
    ("Arnhem", "Cologne", 120),
    ("Eindhoven", "Cologne", 140),
    // German network
    ("Cologne", "Frankfurt", 190),
    ("Frankfurt", "Stuttgart", 210),
    ("Frankfurt", "Karlsruhe", 140),
    ("Karlsruhe", "Stuttgart", 80),
    ("Stuttgart", "Munich", 220),
    // German-Swiss border
    ("Karlsruhe", "Basel", 190),
    // German-Austrian border
    ("Munich", "Innsbruck", 160),
    ("Munich", "Salzburg", 150),
    // Swiss network
    ("Basel", "Zurich", 90),
    ("Basel", "Bern", 100),
    ("Zurich", "Chur", 120),
    ("Bern", "Zurich", 120),
    // Swiss-Italian border (the Gotthard axis)
    ("Chur", "Milan", 160),
    ("Zurich", "Milan", 230),
    // Austrian-Italian border (the Brenner axis)
    ("Innsbruck", "Verona", 200),
    // Italian network
    ("Milan", "Verona", 160),
    ("Milan", "Turin", 140),
    ("Verona", "Bologna", 120),
    ("Milan", "Bologna", 210),
];

const COUNTRIES: &[&str] = &["Holland", "Germany", "Switzerland", "Italy", "Austria"];

fn id_of(name: &str) -> NodeId {
    NodeId(
        CITIES
            .iter()
            .position(|(c, _)| *c == name)
            .expect("known city") as u32,
    )
}

fn name_of(v: NodeId) -> &'static str {
    CITIES[v.index()].0
}

fn main() {
    let connections: Vec<Edge> = LINES
        .iter()
        .map(|&(a, b, km)| Edge::new(id_of(a), id_of(b), km))
        .collect();
    let labels: Vec<u32> = CITIES.iter().map(|&(_, c)| c).collect();

    // "Assume that data are naturally fragmented by country." Each
    // country's railway computer system is one site of the System.
    let mut sys = System::builder()
        .network(CITIES.len(), connections.clone())
        .fragmenter(Fragmenter::ByLabels {
            labels: labels.clone(),
            parts: COUNTRIES.len(),
            policy: CrossingPolicy::LowerBlock,
        })
        .backend(Backend::Inline)
        .build()
        .expect("network is non-empty");

    println!(
        "fragmentation by country: {}",
        sys.fragmentation().metrics()
    );
    for ((i, j), cities) in sys.fragmentation().disconnection_sets() {
        let names: Vec<&str> = cities.iter().map(|&v| name_of(v)).collect();
        println!("  border {} - {}: {:?}", COUNTRIES[i], COUNTRIES[j], names);
    }
    let fg = sys.fragmentation().fragmentation_graph();
    println!(
        "fragmentation graph acyclic: {} (two alpine routes make it cyclic)",
        fg.is_acyclic()
    );

    let graph = CsrGraph::from_edges(CITIES.len(), &expand_connections(&connections, true));

    // The paper's headline query.
    let (ams, mil) = (id_of("Amsterdam"), id_of("Milan"));
    let route = sys
        .route(ams, mil)
        .expect("both cities in a fragment")
        .expect("connected");
    println!("\nAmsterdam -> Milan: {} km", route.cost);
    println!(
        "  fragment chain: {:?}",
        route
            .chain
            .iter()
            .map(|&f| COUNTRIES[f])
            .collect::<Vec<_>>()
    );
    println!(
        "  border crossings: {:?}",
        route
            .waypoints
            .iter()
            .map(|&w| name_of(w))
            .collect::<Vec<_>>()
    );
    println!(
        "  full route: {}",
        route
            .nodes
            .iter()
            .map(|&v| name_of(v))
            .collect::<Vec<_>>()
            .join(" - ")
    );
    assert_eq!(
        Some(route.cost),
        baseline::shortest_path_cost(&graph, ams, mil),
        "disconnection set answer must match the centralized baseline"
    );

    // The in-country fast path.
    let (utr, ehv) = (id_of("Utrecht"), id_of("Eindhoven"));
    let answer = sys.shortest_path(utr, ehv);
    println!(
        "\nUtrecht -> Eindhoven: {:?} km, answered by {:?} alone ({} site subquery)",
        answer.cost.expect("connected"),
        answer
            .best_chain
            .as_ref()
            .map(|c| COUNTRIES[c[0]])
            .expect("single fragment"),
        answer.stats.site_queries
    );

    // A query that must compare the Gotthard and Brenner chains.
    let (ffm, ver) = (id_of("Frankfurt"), id_of("Verona"));
    let a = sys.shortest_path(ffm, ver);
    println!(
        "\nFrankfurt -> Verona: {:?} km via {:?} ({} chains compared)",
        a.cost.expect("connected"),
        a.best_chain
            .as_ref()
            .map(|c| c.iter().map(|&f| COUNTRIES[f]).collect::<Vec<_>>())
            .expect("reachable"),
        a.stats.chains_evaluated
    );
    assert_eq!(a.cost, baseline::shortest_path_cost(&graph, ffm, ver));

    // The same railway network on the site-threads backend: one thread
    // per national railway system a query crosses, identical answers.
    // Only the builder line changes.
    let mut threaded = System::builder()
        .network(CITIES.len(), connections)
        .fragmenter(Fragmenter::ByLabels {
            labels,
            parts: COUNTRIES.len(),
            policy: CrossingPolicy::LowerBlock,
        })
        .backend(Backend::SiteThreads)
        .build()
        .expect("network is non-empty");
    let m = threaded.shortest_path(ams, mil);
    println!(
        "\nsite-threads backend ({} national computer systems): Amsterdam -> Milan {} km",
        threaded.site_count(),
        m.cost.expect("connected")
    );
    assert_eq!(m.cost, Some(route.cost), "backends must agree");
}
