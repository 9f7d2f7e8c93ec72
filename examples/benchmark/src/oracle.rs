//! The centralized oracle: plain Dijkstra over a shadow copy of the
//! connection relation that the benchmark maintains itself from the
//! generated graph and the acknowledged writes, and sequential semi-naive
//! closure for the materialized relation. It shares no state with the
//! system under test. Any mismatch is an `Err`, which `main` turns into
//! a non-zero exit.

use discset::fragment::Fragmentation;
use discset::gen::output::expand_connections;
use discset::gen::GeneratedGraph;
use discset::graph::dijkstra::point_to_point;
use discset::graph::{CsrGraph, Edge, NodeId};
use discset::relation::bulk::FragmentPartition;
use discset::relation::tc::seminaive_closure;
use discset::relation::{PathTuple, Relation};
use discset::{NetworkUpdate, QueryRequest, TcEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::load::{Ack, Sample};

/// The connection relation as the oracle believes it to be.
#[derive(Clone)]
pub struct Shadow {
    nodes: usize,
    symmetric: bool,
    connections: Vec<Edge>,
}

impl Shadow {
    pub fn of(g: &GeneratedGraph) -> Shadow {
        Shadow {
            nodes: g.nodes,
            symmetric: g.symmetric,
            connections: g.connections.clone(),
        }
    }

    pub fn apply(&mut self, update: &NetworkUpdate) {
        match *update {
            NetworkUpdate::Insert { edge, .. } => self.connections.push(edge),
            NetworkUpdate::Remove { src, dst, .. } => {
                let symmetric = self.symmetric;
                self.connections
                    .retain(|e| !e.connects(src, dst, symmetric));
            }
        }
    }

    pub fn graph(&self) -> CsrGraph {
        CsrGraph::from_edges(
            self.nodes,
            &expand_connections(&self.connections, self.symmetric),
        )
    }
}

pub fn check_answer(
    graph: &CsrGraph,
    request: QueryRequest,
    got: Option<u64>,
    what: &str,
) -> Result<(), String> {
    let want = point_to_point(graph, request.source, request.target);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} -> {} answered {got:?}, oracle says {want:?}",
            request.source, request.target
        ))
    }
}

/// Check every sampled answer against Dijkstra on the graph *at the
/// answer's epoch*: the initial relation plus every acknowledged write
/// published at or before that epoch. Leaves `shadow` at the state after
/// all acknowledged writes and returns how many answers were checked and
/// how many of them were "unreachable".
pub fn check_samples(
    shadow: &mut Shadow,
    mut acks: Vec<Ack>,
    mut samples: Vec<Sample>,
) -> Result<(usize, usize), String> {
    // Writers own disjoint edges, so acks sharing a publication commute.
    acks.sort_by_key(|a| a.epoch);
    samples.sort_by_key(|s| s.epoch);
    let mut acks = acks.into_iter().peekable();
    let mut graph = shadow.graph();
    let mut graph_epoch = 0;
    for s in &samples {
        let mut moved = false;
        while let Some(a) = acks.next_if(|a| a.epoch <= s.epoch) {
            shadow.apply(&a.update);
            moved = true;
        }
        if moved {
            graph = shadow.graph();
            graph_epoch = s.epoch;
        }
        check_answer(
            &graph,
            s.request,
            s.cost,
            &format!("served at epoch {} (graph as of {graph_epoch})", s.epoch),
        )?;
    }
    for a in acks {
        shadow.apply(&a.update);
    }
    Ok((
        samples.len(),
        samples.iter().filter(|s| s.cost.is_none()).count(),
    ))
}

/// `count` seeded uniform queries answered by `engine` as one batch,
/// each checked on the shadow's current graph.
pub fn check_engine(
    shadow: &Shadow,
    engine: &mut dyn TcEngine,
    seed: u64,
    count: usize,
    what: &str,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x000A_C1E5);
    let requests: Vec<QueryRequest> = (0..count)
        .map(|_| {
            QueryRequest::new(
                NodeId(rng.gen_index(shadow.nodes) as u32),
                NodeId(rng.gen_index(shadow.nodes) as u32),
            )
        })
        .collect();
    let costs = engine.query_batch(&requests).costs();
    check_batch(&shadow.graph(), &requests, &costs, what)
}

/// One pinned query (first node to last node), so that what it costs
/// does not move with the seed: the "first answer" of a recovery. Takes
/// the oracle's graph ready-made, because the caller is being timed.
pub fn check_first_answer(
    graph: &CsrGraph,
    engine: &mut dyn TcEngine,
    what: &str,
) -> Result<(), String> {
    let request = QueryRequest::new(NodeId(0), NodeId(graph.node_count() as u32 - 1));
    let got = engine.shortest_path(request.source, request.target).cost;
    check_answer(graph, request, got, what)
}

/// Check a batch's answers one by one.
pub fn check_batch(
    graph: &CsrGraph,
    requests: &[QueryRequest],
    costs: &[Option<u64>],
    what: &str,
) -> Result<(), String> {
    if requests.len() != costs.len() {
        return Err(format!(
            "{what}: {} answers for {} requests",
            costs.len(),
            requests.len()
        ));
    }
    requests
        .iter()
        .zip(costs)
        .try_for_each(|(r, c)| check_answer(graph, *r, *c, what))
}

/// The materialized relation must equal sequential semi-naive closure of
/// the same fragmented relation, tuple for tuple.
pub fn check_materialized(
    frag: &Fragmentation,
    symmetric: bool,
    sources: Option<&[NodeId]>,
    got: &Relation<PathTuple>,
) -> Result<(), String> {
    let union = FragmentPartition::new(frag, symmetric).union_relation();
    let (want, _) = seminaive_closure(&union, sources);
    if got.rows() == want.rows() {
        Ok(())
    } else {
        Err(format!(
            "materialized relation has {} tuples, semi-naive closure {} (or they differ in content)",
            got.len(),
            want.len()
        ))
    }
}
