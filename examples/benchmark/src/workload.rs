//! The four workloads: how each graph is generated from the seed, how it
//! is fragmented and deployed, and the operation streams run against it.

use std::path::Path;

use discset::closure::{EngineConfig, EngineSnapshot};
use discset::fragment::center::CenterConfig;
use discset::fragment::linear::LinearConfig;
use discset::fragment::CrossingPolicy;
use discset::gen::{
    generate_ellipse, generate_general, generate_transportation, EllipseConfig, GeneralConfig,
    GeneratedGraph, TransportationConfig,
};
use discset::graph::traverse::weak_components;
use discset::graph::{NodeId, ScratchDijkstra};
use discset::{Fragmenter, NetworkUpdate, QueryRequest, System};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pinned::*;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ReadSpread,
    ReadHot,
    MixedDurable,
    OfflineGeneral,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ReadSpread,
        Kind::ReadHot,
        Kind::MixedDurable,
        Kind::OfflineGeneral,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ReadSpread => "serve_read_spread",
            Kind::ReadHot => "serve_read_hot",
            Kind::MixedDurable => "serve_mixed_durable",
            Kind::OfflineGeneral => "offline_general",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn load(self) -> Option<Load> {
        match self {
            Kind::ReadSpread => Some(LOAD_READ_SPREAD),
            Kind::ReadHot => Some(LOAD_READ_HOT),
            Kind::MixedDurable => Some(LOAD_MIXED_DURABLE),
            Kind::OfflineGeneral => None,
        }
    }

    /// Reads and writes of the single-threaded replay (`--trace 1`): a
    /// fixed sample of 5,000 operations where one costs microseconds,
    /// fewer where one costs milliseconds.
    pub fn replay_ops(self) -> (usize, usize) {
        match self {
            Kind::ReadSpread | Kind::ReadHot => (5000, 200),
            Kind::MixedDurable => (320, 80),
            Kind::OfflineGeneral => (64, 40),
        }
    }

    pub fn write_permille(self) -> u32 {
        match self {
            Kind::MixedDurable => MIXED_WRITE_PERMILLE,
            _ => 0,
        }
    }
}

/// Generate the workload's graph: always the same one (`GRAPH_SEED`),
/// distinct workloads drawing from distinct generator streams of it.
pub fn generate(kind: Kind) -> GeneratedGraph {
    let seed = GRAPH_SEED;
    match kind {
        Kind::ReadSpread | Kind::ReadHot => generate_transportation(
            &TransportationConfig {
                clusters: TRANSPORT_CLUSTERS,
                nodes_per_cluster: TRANSPORT_NODES_PER_CLUSTER,
                target_edges_per_cluster: TRANSPORT_EDGES_PER_CLUSTER,
                ..TransportationConfig::default()
            },
            seed,
        ),
        Kind::MixedDurable => generate_ellipse(
            &EllipseConfig {
                nodes: ELLIPSE_NODES,
                target_edges: ELLIPSE_EDGES,
                c2: 0.15,
                a: 500.0,
                b: 22.0,
                ..EllipseConfig::default()
            },
            seed ^ 0xE111_95E0,
        ),
        Kind::OfflineGeneral => generate_general(
            &GeneralConfig {
                nodes: GENERAL_NODES,
                target_edges: GENERAL_EDGES,
                c2: 0.15,
                ..GeneralConfig::default()
            },
            seed ^ 0x6E4E_7A10,
        ),
    }
}

pub fn fragmenter(kind: Kind, g: &GeneratedGraph) -> Fragmenter {
    match kind {
        Kind::ReadSpread | Kind::ReadHot => Fragmenter::ByLabels {
            labels: g
                .cluster_of
                .clone()
                .expect("transportation graphs carry cluster labels"),
            parts: TRANSPORT_CLUSTERS,
            policy: CrossingPolicy::LowerBlock,
        },
        Kind::MixedDurable => Fragmenter::Linear(LinearConfig {
            fragments: ELLIPSE_FRAGMENTS,
            ..LinearConfig::default()
        }),
        Kind::OfflineGeneral => Fragmenter::Center(CenterConfig {
            fragments: GENERAL_FRAGMENTS,
            ..CenterConfig::default()
        }),
    }
}

pub fn engine_config(kind: Kind) -> EngineConfig {
    match kind {
        // Center growth yields a cyclic fragmentation graph with fat
        // borders; the caps keep one query evaluator-sized.
        Kind::OfflineGeneral => EngineConfig {
            max_chains: GENERAL_MAX_CHAINS,
            max_chain_len: GENERAL_MAX_CHAIN_LEN,
            ..EngineConfig::default()
        },
        _ => EngineConfig::default(),
    }
}

/// Fragment + precompute + snapshot assembly through the facade (this
/// call is what `build_s` times). `durable` names the serve tier's log
/// directory.
pub fn build_system(kind: Kind, g: &GeneratedGraph, durable: Option<&Path>) -> System {
    let mut b = System::builder()
        .graph(g)
        .fragmenter(fragmenter(kind, g))
        .config(engine_config(kind));
    if let Some(dir) = durable {
        b = b.durable(dir);
    }
    b.build().expect("pinned workloads fragment and build")
}

// --- read streams --------------------------------------------------------

/// Where a workload's read endpoints come from.
pub enum ReadMix {
    /// Uniform over all ordered pairs of distinct nodes.
    Uniform { nodes: usize },
    /// Zipf over a fixed route table (rank 0 hottest); `cdf[k]` is the
    /// cumulative weight through rank `k`.
    Zipf {
        routes: Vec<QueryRequest>,
        cdf: Vec<f64>,
    },
    /// 70 % a hot exact route, 15 % random endpoints on the hot pools,
    /// 15 % uniform — the mix of `benches/serve.rs`.
    HotPools {
        hot: Vec<QueryRequest>,
        pool_a: Vec<NodeId>,
        pool_b: Vec<NodeId>,
        nodes: usize,
    },
}

fn uniform_pair(rng: &mut StdRng, nodes: usize) -> QueryRequest {
    let x = rng.gen_index(nodes);
    let mut y = rng.gen_index(nodes - 1);
    if y >= x {
        y += 1;
    }
    QueryRequest::new(NodeId(x as u32), NodeId(y as u32))
}

impl ReadMix {
    pub fn for_workload(kind: Kind, g: &GeneratedGraph, seed: u64) -> ReadMix {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0004_07E5);
        match kind {
            Kind::ReadSpread | Kind::OfflineGeneral => ReadMix::Uniform { nodes: g.nodes },
            Kind::ReadHot => {
                // Routes cross the whole cluster chain: first cluster to
                // last cluster, distinct pairs.
                let m = TRANSPORT_NODES_PER_CLUSTER;
                let last = (g.nodes - m) as u32;
                let mut all: Vec<(u32, u32)> = (0..m as u32)
                    .flat_map(|a| (0..m as u32).map(move |b| (a, last + b)))
                    .collect();
                for i in 0..HOT_ROUTES {
                    let j = i + rng.gen_index(all.len() - i);
                    all.swap(i, j);
                }
                let routes = all[..HOT_ROUTES]
                    .iter()
                    .map(|&(a, b)| QueryRequest::new(NodeId(a), NodeId(b)))
                    .collect();
                let mut acc = 0.0;
                let cdf = (1..=HOT_ROUTES)
                    .map(|k| {
                        acc += 1.0 / (k as f64).powf(HOT_ZIPF_S);
                        acc
                    })
                    .collect();
                ReadMix::Zipf { routes, cdf }
            }
            Kind::MixedDurable => {
                // Hot traffic runs the long axis: leftmost decile to
                // rightmost decile of the largest component (the sparse
                // tips of the ellipse leave a few nodes cut off, and an
                // "unreachable" answer costs the evaluator almost nothing).
                let (component, count) = weak_components(&g.closure_graph());
                let mut sizes = vec![0usize; count];
                component.iter().for_each(|&c| sizes[c as usize] += 1);
                let largest = (0..count).max_by_key(|&c| sizes[c]).unwrap_or(0) as u32;
                let mut by_x: Vec<u32> = (0..g.nodes as u32)
                    .filter(|&i| component[i as usize] == largest)
                    .collect();
                by_x.sort_by(|&i, &j| g.coords[i as usize].x.total_cmp(&g.coords[j as usize].x));
                let decile = by_x.len() / 10;
                let pool_a: Vec<NodeId> = by_x[..decile].iter().map(|&i| NodeId(i)).collect();
                let pool_b: Vec<NodeId> = by_x[by_x.len() - decile..]
                    .iter()
                    .map(|&i| NodeId(i))
                    .collect();
                let hot = (0..MIXED_HOT_ROUTES)
                    .map(|_| {
                        QueryRequest::new(
                            pool_a[rng.gen_index(pool_a.len())],
                            pool_b[rng.gen_index(pool_b.len())],
                        )
                    })
                    .collect();
                ReadMix::HotPools {
                    hot,
                    pool_a,
                    pool_b,
                    nodes: g.nodes,
                }
            }
        }
    }

    pub fn next(&self, rng: &mut StdRng) -> QueryRequest {
        match self {
            ReadMix::Uniform { nodes } => uniform_pair(rng, *nodes),
            ReadMix::Zipf { routes, cdf } => {
                let u = rng.gen::<f64>() * cdf[cdf.len() - 1];
                routes[cdf.partition_point(|&c| c < u).min(routes.len() - 1)]
            }
            ReadMix::HotPools {
                hot,
                pool_a,
                pool_b,
                nodes,
            } => match rng.gen_index(100) {
                0..70 => hot[rng.gen_index(hot.len())],
                70..85 => QueryRequest::new(
                    pool_a[rng.gen_index(pool_a.len())],
                    pool_b[rng.gen_index(pool_b.len())],
                ),
                _ => uniform_pair(rng, *nodes),
            },
        }
    }
}

// --- write streams -------------------------------------------------------

/// A delete and the insert that undoes it.
pub type UpdatePair = (NetworkUpdate, NetworkUpdate);

/// One writer's private edges: a strictly alternating delete / re-insert
/// of an interior edge that maintains incrementally, and every
/// `MIXED_CROSSING_EVERY_PAIRS`-th pair a disconnection-set-crossing edge
/// whose delete forces the full-recompute fallback. Writers own disjoint
/// edges, so concurrent writers commute.
#[derive(Clone)]
pub struct WriteStream {
    safe: UpdatePair,
    crossing: Option<UpdatePair>,
    step: u64,
}

impl WriteStream {
    pub fn next(&mut self) -> NetworkUpdate {
        let (pair_index, second) = (self.step / 2, self.step % 2 == 1);
        self.step += 1;
        let pair = match &self.crossing {
            Some(c)
                if pair_index % MIXED_CROSSING_EVERY_PAIRS == MIXED_CROSSING_EVERY_PAIRS - 1 =>
            {
                c
            }
            _ => &self.safe,
        };
        if second {
            pair.1
        } else {
            pair.0
        }
    }
}

/// Pick `writers` disjoint write streams from the snapshot's fragments:
/// interior edges whose delete provably stays incremental (probed on a
/// private clone, as `benches/updates.rs` does) and, when `crossing`,
/// edges between two border nodes whose delete provably falls back.
pub fn write_streams(snap: &EngineSnapshot, writers: usize, crossing: bool) -> Vec<WriteStream> {
    let frag = snap.fragmentation();
    let border = |v: NodeId| frag.fragments_of_node(v).len() >= 2;
    let mut scratch = ScratchDijkstra::new();
    let (mut safe, mut cross) = (Vec::new(), Vec::new());
    let want_cross = if crossing { writers } else { 0 };
    'outer: for f in frag.fragments() {
        for e in f.edges() {
            if safe.len() >= writers && cross.len() >= want_cross {
                break 'outer;
            }
            let is_crossing = border(e.src) && border(e.dst);
            if e.is_loop()
                || (is_crossing && cross.len() >= want_cross)
                || (!is_crossing && safe.len() >= writers)
            {
                continue;
            }
            let parallel = f
                .edges()
                .iter()
                .filter(|x| x.connects(e.src, e.dst, snap.is_symmetric()))
                .count();
            if parallel != 1 {
                continue;
            }
            let remove = NetworkUpdate::Remove {
                src: e.src,
                dst: e.dst,
                owner: f.id(),
            };
            let mut probe = snap.clone();
            let Ok(report) = probe.maintain(&remove, &mut scratch) else {
                continue;
            };
            let pair = (
                remove,
                NetworkUpdate::Insert {
                    edge: *e,
                    owner: f.id(),
                },
            );
            match (is_crossing, report.full_recompute) {
                (false, false) => safe.push(pair),
                (true, true) => cross.push(pair),
                _ => {} // a bridge, or a crossing edge that repaired in place
            }
        }
    }
    assert!(
        safe.len() >= writers && cross.len() >= want_cross,
        "workload offers only {} incremental and {} crossing update pairs for {writers} writers",
        safe.len(),
        cross.len()
    );
    let mut cross = cross.into_iter();
    safe.into_iter()
        .take(writers)
        .map(|safe| WriteStream {
            safe,
            crossing: cross.next(),
            step: 0,
        })
        .collect()
}

// --- per-client operation stream -----------------------------------------

#[derive(Clone, Copy, Debug)]
pub enum Op {
    Read(QueryRequest),
    Write(NetworkUpdate),
}

/// One client's seeded operation stream: reads from the workload's mix
/// and, for a writing client, so many per thousand operations from the
/// client's own [`WriteStream`].
pub struct ClientStream<'a> {
    rng: StdRng,
    reads: &'a ReadMix,
    writes: Option<(&'a mut WriteStream, u32)>,
}

impl<'a> ClientStream<'a> {
    /// A read-only stream; `stream_id` separates the streams of one seed.
    pub fn new(seed: u64, stream_id: u64, reads: &'a ReadMix) -> Self {
        ClientStream {
            rng: StdRng::seed_from_u64(seed ^ 0x00C1_1E27 ^ (stream_id << 20)),
            reads,
            writes: None,
        }
    }

    /// Make `permille` of the operations writes from `stream`.
    pub fn writing(mut self, stream: &'a mut WriteStream, permille: u32) -> Self {
        self.writes = Some((stream, permille));
        self
    }

    pub fn next_read(&mut self) -> QueryRequest {
        self.reads.next(&mut self.rng)
    }

    pub fn next_op(&mut self) -> Op {
        match &mut self.writes {
            Some((w, permille)) if (self.rng.gen_index(1000) as u32) < *permille => {
                Op::Write(w.next())
            }
            _ => Op::Read(self.next_read()),
        }
    }
}
