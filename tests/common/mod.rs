//! The seeded update-stream generator the update properties share
//! (`tests/properties.rs`, `tests/durability.rs`).

#![allow(dead_code)] // each test crate uses its own part

use discset::closure::baseline;
use discset::fragment::Fragmentation;
use discset::gen::{
    generate_general, generate_transportation, GeneralConfig, GeneratedGraph, TransportationConfig,
};
use discset::graph::Edge;
use discset::NetworkUpdate;
use rand::rngs::StdRng;
use rand::Rng;

/// The network the update-stream properties run on: a general graph on
/// even seeds, a clustered transportation graph on odd ones.
pub fn update_network(seed: u64) -> GeneratedGraph {
    if seed.is_multiple_of(2) {
        generate_general(
            &GeneralConfig {
                nodes: 26,
                target_edges: 60,
                ..Default::default()
            },
            seed,
        )
    } else {
        generate_transportation(
            &TransportationConfig {
                clusters: 3,
                nodes_per_cluster: 9,
                target_edges_per_cluster: 22,
                ..TransportationConfig::default()
            },
            seed,
        )
    }
}

/// Draw a random in-fragment update against the engine's *current*
/// fragmentation: mostly inserts between random fragment nodes, plus
/// deletions of random fragment edges — one time in six of a *bridge*
/// (nothing else joins its endpoints), whose re-insertion is then the
/// next update drawn: `pending` carries it from one call to the next.
/// Deleting a bridge drops border pairs from the complementary tables;
/// putting it back must restore them at every site.
pub fn arb_update(
    rng: &mut StdRng,
    frag: &Fragmentation,
    symmetric: bool,
    pending: &mut Option<NetworkUpdate>,
) -> Option<NetworkUpdate> {
    if let Some(reinsert) = pending.take() {
        return Some(reinsert);
    }
    let owner = rng.gen_index(frag.fragment_count());
    let kind = rng.gen_index(6);
    if kind < 3 {
        let nodes = frag.fragment(owner).nodes();
        if nodes.len() < 2 {
            return None;
        }
        let a = nodes[rng.gen_index(nodes.len())];
        let b = nodes[rng.gen_index(nodes.len())];
        let cost = 1 + rng.gen_index(30) as u64;
        return Some(NetworkUpdate::Insert {
            edge: Edge::new(a, b, cost),
            owner,
        });
    }
    let edges = frag.fragment(owner).edges();
    if edges.is_empty() {
        return None;
    }
    let from = rng.gen_index(edges.len());
    let is_bridge = |e: &Edge| {
        // The network without what `Remove` takes out of `owner`.
        let mut rest = frag.clone();
        rest.fragment_mut(owner)
            .remove_edges_matching(|x| x.connects(e.src, e.dst, symmetric));
        baseline::shortest_path_cost(&rest.closure_graph(symmetric), e.src, e.dst).is_none()
    };
    let bridge = (kind == 3)
        .then(|| {
            edges[from..]
                .iter()
                .chain(&edges[..from])
                .find(|e| is_bridge(e))
        })
        .flatten();
    if let Some(&edge) = bridge {
        *pending = Some(NetworkUpdate::Insert { edge, owner });
    }
    let e = bridge.unwrap_or(&edges[from]);
    Some(NetworkUpdate::Remove {
        src: e.src,
        dst: e.dst,
        owner,
    })
}

/// [`arb_update`], or one time in five an update that leaves the network
/// as it is: an insert the edit rule refuses (an endpoint outside the
/// owner), or a removal that matches no connection of its owner.
pub fn arb_update_or_dud(
    rng: &mut StdRng,
    frag: &Fragmentation,
    symmetric: bool,
    pending: &mut Option<NetworkUpdate>,
) -> Option<NetworkUpdate> {
    if pending.is_some() || rng.gen_index(5) > 0 {
        return arb_update(rng, frag, symmetric, pending);
    }
    let owner = rng.gen_index(frag.fragment_count());
    let f = frag.fragment(owner);
    let inside = *f.nodes().first()?;
    // A node `owner` does not contain: none of its connections touches it.
    let outside = *(frag.fragments().iter())
        .flat_map(|other| other.nodes())
        .find(|&&v| !f.contains_node(v))?;
    Some(if rng.gen_index(2) == 0 {
        NetworkUpdate::Insert {
            edge: Edge::new(inside, outside, 1),
            owner,
        }
    } else {
        NetworkUpdate::Remove {
            src: inside,
            dst: outside,
            owner,
        }
    })
}

/// Whether the stream properties' network of `seed` is symmetric
/// (period 4): symmetric and one-way, two seeds each.
pub fn stream_case(seed: u64) -> bool {
    seed % 4 < 2
}
