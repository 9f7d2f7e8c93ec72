//! The center-based fragmentation algorithm (§3.1, Fig. 4).
//!
//! Centers are "gravity points in the graph, very much like spiders in a
//! web", ranked by a truncated status score (a variation of Hoede's
//! status score, ref \[9\]):
//!
//! ```text
//! score(i) = grade(i) + a·Σ nb(j,1) + a²·Σ nb(j,2) + a³·Σ nb(j,3)
//! ```
//!
//! with `grade(i)` the number of edges adjacent to `i`, `nb(j,d)` the
//! grade of node `j` at `d` edges from `i`, and `a < 1`.
//!
//! Fragments then grow from the centers. Two growth variants exist
//! (§3.1): one wave per turn in round-robin (the *diameter*-driven
//! variant shown in Fig. 4) or always expanding the currently smallest
//! fragment (the *size*-driven variant).
//!
//! §4.2.1 adds the *distributed centers* refinement: "we used the
//! coordinates assigned to the nodes to make sure that the selected nodes
//! would not be too close together" — Table 2 shows it slashing both ΔF
//! and D̄S.

use std::collections::BTreeSet;

use ds_graph::{CsrGraph, Edge, EdgeList, NodeId};

use crate::error::FragError;
use crate::fragmentation::Fragmentation;

/// How the `n` centers are picked from the score ranking.
#[derive(Clone, Debug, Default)]
pub enum CenterSelection {
    /// The `n` highest-scoring nodes (ties by lower id). The paper's
    /// original rule — which sometimes picks centers "quite close to each
    /// other" (§4.2.1).
    #[default]
    TopScores,
    /// The §4.2.1 refinement: from a candidate pool of the
    /// `pool_factor · n` best-scoring nodes, greedily pick centers that
    /// maximize the minimum distance to the centers already chosen.
    /// Requires coordinates.
    Distributed {
        /// Pool size multiplier (the paper's "group of possible centers").
        pool_factor: f64,
    },
    /// Caller-supplied centers (e.g. from application semantics).
    Explicit(Vec<NodeId>),
}

/// Which fragment grows next.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Growth {
    /// Fig. 4: `k := (k mod n) + 1` — every fragment gets one wave per
    /// turn, keeping *diameters* balanced.
    #[default]
    RoundRobin,
    /// "the fragment with the least number of edges is chosen for
    /// expansion until another fragment becomes the smallest" — keeps
    /// *sizes* balanced.
    SmallestFirst,
}

/// Configuration of the center-based algorithm.
#[derive(Clone, Debug)]
pub struct CenterConfig {
    /// Number of fragments / centers ("may depend on … the number of
    /// processors available").
    pub fragments: usize,
    /// The attenuation `a < 1` of the status score.
    pub alpha: f64,
    /// Neighbourhood depth of the score (3 in the paper's formula).
    pub depth: u32,
    /// Center selection rule.
    pub selection: CenterSelection,
    /// Growth variant.
    pub growth: Growth,
}

impl Default for CenterConfig {
    fn default() -> Self {
        CenterConfig {
            fragments: 4,
            alpha: 0.5,
            depth: 3,
            selection: CenterSelection::TopScores,
            growth: Growth::RoundRobin,
        }
    }
}

/// Result of a center-based run.
#[derive(Clone, Debug)]
pub struct CenterOutcome {
    pub fragmentation: Fragmentation,
    /// The chosen centers, fragment `k` grown from `centers[k]`.
    pub centers: Vec<NodeId>,
    /// Times the growth stalled on a disconnected remainder and an edge
    /// had to be force-assigned (deviation #3 in DESIGN.md).
    pub reseeds: usize,
}

/// Run the center-based fragmentation.
pub fn center_based(edges: &EdgeList, cfg: &CenterConfig) -> Result<CenterOutcome, FragError> {
    if edges.remaining() == 0 {
        return Err(FragError::EmptyRelation);
    }
    if cfg.fragments == 0 {
        return Err(FragError::InvalidConfig("fragments must be >= 1".into()));
    }
    if !(0.0..1.0).contains(&cfg.alpha) {
        return Err(FragError::InvalidConfig(format!(
            "alpha must be in [0,1), got {}",
            cfg.alpha
        )));
    }
    let alive_nodes = edges.alive_nodes();
    if cfg.fragments > alive_nodes.len() {
        return Err(FragError::TooManyFragments {
            requested: cfg.fragments,
            available: alive_nodes.len(),
        });
    }

    let centers = determine_centers(edges, cfg, &alive_nodes)?;
    let mut work = edges.clone();
    let n = cfg.fragments;

    // Initialisation (Fig. 4): V_i := {c_i}; E_i := edges adjacent to c_i.
    // Single assignment: an edge between two centers goes to the first.
    let mut frag_edges: Vec<Vec<Edge>> = vec![Vec::new(); n];
    let mut v: Vec<BTreeSet<NodeId>> = centers.iter().map(|&c| BTreeSet::from([c])).collect();
    let mut frontier: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for k in 0..n {
        let taken = work.take_incident_to([centers[k]]);
        grow(
            &mut frag_edges[k],
            &mut v[k],
            &mut frontier[k],
            &work,
            &taken,
        );
    }

    let mut reseeds = 0usize;
    match cfg.growth {
        Growth::RoundRobin => {
            let mut stalled = 0usize;
            let mut k = 0usize;
            while !work.is_exhausted() {
                let taken = work.take_incident_to(frontier[k].iter().copied());
                if taken.is_empty() {
                    stalled += 1;
                    if stalled >= n {
                        reseed_smallest(
                            &mut work,
                            &mut frag_edges,
                            &mut v,
                            &mut frontier,
                            &mut reseeds,
                        );
                        stalled = 0;
                    }
                } else {
                    stalled = 0;
                    grow(
                        &mut frag_edges[k],
                        &mut v[k],
                        &mut frontier[k],
                        &work,
                        &taken,
                    );
                }
                k = (k + 1) % n;
            }
        }
        Growth::SmallestFirst => {
            let mut saturated = vec![false; n];
            while !work.is_exhausted() {
                // Smallest unsaturated fragment; ties to the lowest id.
                let k = match (0..n)
                    .filter(|&k| !saturated[k])
                    .min_by_key(|&k| (frag_edges[k].len(), k))
                {
                    Some(k) => k,
                    None => {
                        reseed_smallest(
                            &mut work,
                            &mut frag_edges,
                            &mut v,
                            &mut frontier,
                            &mut reseeds,
                        );
                        saturated.fill(false);
                        continue;
                    }
                };
                let taken = work.take_incident_to(frontier[k].iter().copied());
                if taken.is_empty() {
                    saturated[k] = true;
                } else {
                    grow(
                        &mut frag_edges[k],
                        &mut v[k],
                        &mut frontier[k],
                        &work,
                        &taken,
                    );
                }
            }
        }
    }

    let seeds: Vec<Vec<NodeId>> = centers.iter().map(|&c| vec![c]).collect();
    let fragmentation = Fragmentation::new(edges.node_count(), frag_edges, seeds);
    Ok(CenterOutcome {
        fragmentation,
        centers,
        reseeds,
    })
}

/// Add freshly taken edges to fragment `k`'s state and compute the new
/// frontier (nodes that first appeared in this wave).
fn grow(
    frag_edges: &mut Vec<Edge>,
    v_k: &mut BTreeSet<NodeId>,
    frontier: &mut Vec<NodeId>,
    work: &EdgeList,
    taken: &[u32],
) {
    let mut new_frontier = BTreeSet::new();
    for &i in taken {
        let e = work.edge(i);
        frag_edges.push(e);
        for node in [e.src, e.dst] {
            if !v_k.contains(&node) {
                new_frontier.insert(node);
            }
        }
    }
    v_k.extend(new_frontier.iter().copied());
    *frontier = new_frontier.into_iter().collect();
}

/// All fragments are stuck but edges remain (disconnected remainder):
/// hand the smallest fragment a seed in the remainder so growth resumes.
fn reseed_smallest(
    work: &mut EdgeList,
    frag_edges: &mut [Vec<Edge>],
    v: &mut [BTreeSet<NodeId>],
    frontier: &mut [Vec<NodeId>],
    reseeds: &mut usize,
) {
    let k = (0..frag_edges.len())
        .min_by_key(|&k| (frag_edges[k].len(), k))
        .expect("at least one fragment");
    let seed = work.min_alive_node_by(|n| n.0).expect("edges remain");
    let taken = work.take_incident_to([seed]);
    v[k].insert(seed);
    grow(
        &mut frag_edges[k],
        &mut v[k],
        &mut frontier[k],
        work,
        &taken,
    );
    *reseeds += 1;
}

/// The status scores of every node: `grade(i) + Σ_d a^d · Σ nb(j, d)`.
pub fn status_scores(edges: &EdgeList, alpha: f64, depth: u32) -> Vec<(NodeId, f64)> {
    // Work on the symmetric incidence structure: grade counts adjacent
    // connections regardless of direction.
    let g = symmetric_view(edges);
    edges
        .alive_nodes()
        .into_iter()
        .map(|i| {
            let mut score = g.out_degree(i) as f64;
            let sums = ds_graph::traverse::grade_sums_by_distance(&g, i, depth);
            let mut a = 1.0;
            for s in sums {
                a *= alpha;
                score += a * s as f64;
            }
            (i, score)
        })
        .collect()
}

/// Build the undirected CSR view of the alive edges.
fn symmetric_view(edges: &EdgeList) -> CsrGraph {
    let mut sym = Vec::with_capacity(edges.remaining() * 2);
    for (_, e) in edges.alive_edges() {
        sym.push(e);
        if !e.is_loop() {
            sym.push(e.reversed());
        }
    }
    CsrGraph::from_edges(edges.node_count(), &sym)
}

/// Pick the centers per the configured selection rule.
fn determine_centers(
    edges: &EdgeList,
    cfg: &CenterConfig,
    alive_nodes: &[NodeId],
) -> Result<Vec<NodeId>, FragError> {
    match &cfg.selection {
        CenterSelection::Explicit(centers) => {
            if centers.len() != cfg.fragments {
                return Err(FragError::InvalidConfig(format!(
                    "{} explicit centers for {} fragments",
                    centers.len(),
                    cfg.fragments
                )));
            }
            for &c in centers {
                if c.index() >= edges.node_count() {
                    return Err(FragError::InvalidConfig(format!("center {c} out of range")));
                }
            }
            Ok(centers.clone())
        }
        CenterSelection::TopScores => {
            let mut scored = status_scores(edges, cfg.alpha, cfg.depth);
            sort_by_score_desc(&mut scored);
            Ok(scored
                .into_iter()
                .take(cfg.fragments)
                .map(|(v, _)| v)
                .collect())
        }
        CenterSelection::Distributed { pool_factor } => {
            let coords = edges.coords().ok_or(FragError::MissingCoordinates)?;
            if *pool_factor < 1.0 {
                return Err(FragError::InvalidConfig("pool_factor must be >= 1".into()));
            }
            let mut scored = status_scores(edges, cfg.alpha, cfg.depth);
            sort_by_score_desc(&mut scored);
            let pool_size = ((cfg.fragments as f64 * pool_factor).ceil() as usize)
                .min(alive_nodes.len())
                .max(cfg.fragments);
            let pool: Vec<NodeId> = scored.into_iter().take(pool_size).map(|(v, _)| v).collect();

            // Greedy farthest-point selection: the top scorer first, then
            // always the pool node farthest from the chosen set.
            let mut centers = vec![pool[0]];
            while centers.len() < cfg.fragments {
                let next = pool
                    .iter()
                    .copied()
                    .filter(|c| !centers.contains(c))
                    .max_by(|&a, &b| {
                        let da = min_dist(coords, a, &centers);
                        let db = min_dist(coords, b, &centers);
                        da.partial_cmp(&db)
                            .expect("finite coords")
                            // Ties: keep pool (score) order — smaller index wins.
                            .then_with(|| pool_pos(&pool, b).cmp(&pool_pos(&pool, a)))
                    })
                    .expect("pool_size >= fragments");
                centers.push(next);
            }
            Ok(centers)
        }
    }
}

fn sort_by_score_desc(scored: &mut [(NodeId, f64)]) {
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite scores")
            .then_with(|| a.0.cmp(&b.0))
    });
}

fn min_dist(coords: &[ds_graph::Coord], v: NodeId, chosen: &[NodeId]) -> f64 {
    chosen
        .iter()
        .map(|&c| coords[v.index()].distance(&coords[c.index()]))
        .fold(f64::INFINITY, f64::min)
}

fn pool_pos(pool: &[NodeId], v: NodeId) -> usize {
    pool.iter()
        .position(|&p| p == v)
        .expect("candidate from pool")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_gen::deterministic::{grid, path, two_triangles_bridge};
    use ds_gen::{generate_transportation, TransportationConfig};

    #[test]
    fn status_score_prefers_hubs() {
        // Star plus tail: center of the star must outscore leaves.
        let g = two_triangles_bridge();
        let scores = status_scores(&g.edge_list(), 0.5, 3);
        let score_of = |v: u32| scores.iter().find(|(n, _)| n.0 == v).unwrap().1;
        // Nodes 2 and 3 are the bridge hubs with grade 3.
        assert!(score_of(2) > score_of(0));
        assert!(score_of(3) > score_of(5));
    }

    #[test]
    fn status_score_alpha_zero_is_grade() {
        let g = path(4);
        let scores = status_scores(&g.edge_list(), 0.0, 3);
        for (v, s) in scores {
            let grade = if v.0 == 0 || v.0 == 3 { 1.0 } else { 2.0 };
            assert_eq!(s, grade, "alpha=0 reduces score to grade for {v}");
        }
    }

    #[test]
    fn round_robin_partitions_and_balances() {
        let g = grid(8, 8);
        let out = center_based(
            &g.edge_list(),
            &CenterConfig {
                fragments: 4,
                ..Default::default()
            },
        )
        .unwrap();
        out.fragmentation.validate(&g.connections).unwrap();
        assert_eq!(out.fragmentation.fragment_count(), 4);
        assert_eq!(out.centers.len(), 4);
        let m = out.fragmentation.metrics();
        // Balance goal: deviation well under the mean.
        assert!(
            m.dev_fragment_edges < m.avg_fragment_edges,
            "round robin should balance: {m}"
        );
    }

    #[test]
    fn smallest_first_partitions() {
        let g = grid(8, 8);
        let out = center_based(
            &g.edge_list(),
            &CenterConfig {
                fragments: 4,
                growth: Growth::SmallestFirst,
                ..Default::default()
            },
        )
        .unwrap();
        out.fragmentation.validate(&g.connections).unwrap();
        assert_eq!(out.fragmentation.fragment_count(), 4);
    }

    #[test]
    fn explicit_centers_respected() {
        let g = grid(6, 6);
        let centers = vec![NodeId(0), NodeId(35)];
        let out = center_based(
            &g.edge_list(),
            &CenterConfig {
                fragments: 2,
                selection: CenterSelection::Explicit(centers.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.centers, centers);
        assert!(out.fragmentation.fragment(0).contains_node(NodeId(0)));
        assert!(out.fragmentation.fragment(1).contains_node(NodeId(35)));
    }

    #[test]
    fn distributed_centers_spread_out() {
        let cfg = TransportationConfig::table1();
        let g = generate_transportation(&cfg, 3);
        let el = g.edge_list();
        let plain = center_based(
            &el,
            &CenterConfig {
                fragments: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let spread = center_based(
            &el,
            &CenterConfig {
                fragments: 4,
                selection: CenterSelection::Distributed { pool_factor: 8.0 },
                ..Default::default()
            },
        )
        .unwrap();
        let min_pairwise = |cs: &[NodeId]| {
            let mut best = f64::INFINITY;
            for i in 0..cs.len() {
                for j in (i + 1)..cs.len() {
                    best = best.min(g.coords[cs[i].index()].distance(&g.coords[cs[j].index()]));
                }
            }
            best
        };
        assert!(
            min_pairwise(&spread.centers) >= min_pairwise(&plain.centers),
            "distributed selection must not bring centers closer"
        );
        // With an 8x pool over 4 clusters, centers land in distinct
        // clusters, far apart.
        assert!(min_pairwise(&spread.centers) > cfg.cluster_extent);
    }

    #[test]
    fn disconnected_remainder_is_absorbed() {
        // Two separate paths, both centers in the first one: the second
        // component must still be assigned (via reseeding).
        let mut g = path(6);
        g.nodes = 12;
        for i in 6..11u32 {
            g.connections.push(Edge::unit(NodeId(i), NodeId(i + 1)));
        }
        for i in 0..6 {
            g.coords.push(ds_graph::Coord::new(100.0 + i as f64, 0.0));
        }
        let out = center_based(
            &g.edge_list(),
            &CenterConfig {
                fragments: 2,
                selection: CenterSelection::Explicit(vec![NodeId(1), NodeId(4)]),
                ..Default::default()
            },
        )
        .unwrap();
        out.fragmentation.validate(&g.connections).unwrap();
        assert!(out.reseeds >= 1);
    }

    #[test]
    fn config_validation() {
        let g = path(5);
        let el = g.edge_list();
        assert!(matches!(
            center_based(
                &el,
                &CenterConfig {
                    fragments: 0,
                    ..Default::default()
                }
            ),
            Err(FragError::InvalidConfig(_))
        ));
        assert!(matches!(
            center_based(
                &el,
                &CenterConfig {
                    alpha: 1.5,
                    ..Default::default()
                }
            ),
            Err(FragError::InvalidConfig(_))
        ));
        assert!(matches!(
            center_based(
                &el,
                &CenterConfig {
                    fragments: 99,
                    ..Default::default()
                }
            ),
            Err(FragError::TooManyFragments { .. })
        ));
        assert!(matches!(
            center_based(
                &el,
                &CenterConfig {
                    fragments: 2,
                    selection: CenterSelection::Explicit(vec![NodeId(0)]),
                    ..Default::default()
                }
            ),
            Err(FragError::InvalidConfig(_))
        ));
    }

    #[test]
    fn every_fragment_contains_its_center() {
        let g = grid(7, 7);
        let out = center_based(
            &g.edge_list(),
            &CenterConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap();
        for (k, &c) in out.centers.iter().enumerate() {
            assert!(
                out.fragmentation.fragment(k).contains_node(c),
                "fragment {k} lost center {c}"
            );
        }
    }
}
