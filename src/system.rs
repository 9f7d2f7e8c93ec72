//! The `System` facade: pick generator output × fragmenter × execution
//! backend declaratively, get back one [`TcEngine`].
//!
//! The paper's phase one needs "neither communication nor
//! synchronization" (§2.1), so the one evaluator answers identically
//! whether a query's site subqueries run on the calling thread or on a
//! thread each. `System` makes that choice a one-liner:
//!
//! ```
//! use discset::fragment::linear::LinearConfig;
//! use discset::gen::deterministic::grid;
//! use discset::graph::NodeId;
//! use discset::{Backend, Fragmenter, System, TcEngine};
//!
//! let g = grid(10, 3);
//! for backend in [Backend::Inline, Backend::SiteThreads] {
//!     let mut sys = System::builder()
//!         .graph(&g)
//!         .fragmenter(Fragmenter::Linear(LinearConfig { fragments: 3, ..Default::default() }))
//!         .backend(backend)
//!         .build()
//!         .unwrap();
//!     assert_eq!(sys.shortest_path(NodeId(0), NodeId(29)).cost, Some(11));
//! }
//! ```

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use ds_closure::api::{BatchAnswer, NetworkUpdate, QueryRequest, TcEngine};
use ds_closure::bulk::{cost_over_limit, max_edge_cost};
use ds_closure::executor::ExecutionMode;
use ds_closure::{
    ClosureError, EngineConfig, EngineSnapshot, PrecomputeStats, QueryAnswer, Route, UpdateReport,
};
use ds_durability::{recover, DurabilityConfig, DurabilityError};
use ds_fragment::bond_energy::{bond_energy, BondEnergyConfig};
use ds_fragment::center::{center_based, CenterConfig};
use ds_fragment::linear::{linear_sweep, LinearConfig};
use ds_fragment::{semantic, CrossingPolicy, FragError, Fragmentation};
use ds_gen::GeneratedGraph;
use ds_graph::{Coord, Cost, Edge, EdgeList, NodeId, ScratchDijkstra};
use ds_obs::{MetricsSnapshot, Observability};
use ds_relation::bulk::{MaterializeConfig, MaterializeError, MaterializeStats};
use ds_relation::{PathTuple, Relation};

/// Where phase one's site subqueries run — the facade's spelling of
/// [`EngineConfig::mode`]. Both values run the same evaluator over the
/// same tables; they differ only in placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Every site subquery on the calling thread
    /// ([`ExecutionMode::Sequential`]).
    Inline,
    /// One scoped OS thread per site subquery of a query
    /// ([`ExecutionMode::Parallel`]) — the paper's
    /// one-fragment-per-processor model.
    SiteThreads,
}

impl From<Backend> for ExecutionMode {
    fn from(backend: Backend) -> Self {
        match backend {
            Backend::Inline => ExecutionMode::Sequential,
            Backend::SiteThreads => ExecutionMode::Parallel,
        }
    }
}

impl From<ExecutionMode> for Backend {
    fn from(mode: ExecutionMode) -> Self {
        match mode {
            ExecutionMode::Sequential => Backend::Inline,
            ExecutionMode::Parallel => Backend::SiteThreads,
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(ExecutionMode::from(*self).backend_name())
    }
}

/// Which §3 fragmentation strategy splits the relation.
#[derive(Clone, Debug)]
pub enum Fragmenter {
    /// Coordinate sweep (§3.3) — guaranteed acyclic fragmentation graph.
    Linear(LinearConfig),
    /// Center-based growth (§3.1) — balanced fragment sizes.
    Center(CenterConfig),
    /// Bond-energy clustering (§3.2) — small disconnection sets.
    BondEnergy(BondEnergyConfig),
    /// Semantic fragmentation from per-node labels (countries, clusters).
    ByLabels {
        labels: Vec<u32>,
        parts: usize,
        policy: CrossingPolicy,
    },
    /// Use an existing fragmentation as-is. The fragmentation *is* the
    /// relation the engine is built from: of the builder's network only
    /// the node count is read (and must agree with it).
    Prebuilt(Fragmentation),
}

/// Errors from [`SystemBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SystemError {
    /// No graph was supplied (`SystemBuilder::graph` / `network`).
    MissingGraph,
    /// No fragmenter was supplied (`SystemBuilder::fragmenter`).
    MissingFragmenter,
    /// The coordinate table length does not match the node count.
    CoordinateCountMismatch { coords: usize, nodes: usize },
    /// A [`Fragmenter::Prebuilt`] fragmentation covers a different node
    /// universe than the supplied network.
    PrebuiltNodeCount { fragmentation: usize, nodes: usize },
    /// The fragmenter failed on this graph.
    Fragmentation(FragError),
    /// The durable store could not be recovered or attached
    /// (`ds_durability`); the string is the underlying error's display.
    Durability(String),
    /// An edge of the network costs more than it admits: `(n − 1) · cost
    /// ≥ u32::MAX / 4` for its `n` nodes, so some distance could overflow
    /// the 32-bit words the engine keeps border distances in
    /// ([`ds_closure::bulk::max_edge_cost`] is `limit`).
    EdgeCostOverLimit { cost: Cost, limit: Cost },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::MissingGraph => {
                write!(
                    f,
                    "no graph supplied: call .graph(..) or .network(..) before .build()"
                )
            }
            SystemError::MissingFragmenter => {
                write!(
                    f,
                    "no fragmenter supplied: call .fragmenter(..) before .build()"
                )
            }
            SystemError::CoordinateCountMismatch { coords, nodes } => {
                write!(
                    f,
                    "coordinate table covers {coords} nodes but the graph has {nodes}"
                )
            }
            SystemError::PrebuiltNodeCount {
                fragmentation,
                nodes,
            } => {
                write!(
                    f,
                    "prebuilt fragmentation covers {fragmentation} nodes but the network has {nodes}"
                )
            }
            SystemError::Fragmentation(e) => write!(f, "fragmentation failed: {e}"),
            SystemError::Durability(e) => write!(f, "durable store failed: {e}"),
            SystemError::EdgeCostOverLimit { cost, limit } => {
                write!(
                    f,
                    "edge cost {cost} is over {limit}, the most this network admits"
                )
            }
        }
    }
}

impl std::error::Error for SystemError {}

impl From<FragError> for SystemError {
    fn from(e: FragError) -> Self {
        SystemError::Fragmentation(e)
    }
}

impl From<DurabilityError> for SystemError {
    fn from(e: DurabilityError) -> Self {
        SystemError::Durability(e.to_string())
    }
}

/// Fluent construction of a [`System`]. Obtain via [`System::builder`].
#[derive(Clone, Debug)]
pub struct SystemBuilder {
    nodes: usize,
    connections: Vec<Edge>,
    coords: Option<Vec<Coord>>,
    symmetric: bool,
    has_graph: bool,
    fragmenter: Option<Fragmenter>,
    backend: Option<Backend>,
    config: EngineConfig,
    obs: Option<Arc<Observability>>,
    durable: Option<PathBuf>,
}

impl SystemBuilder {
    fn new() -> Self {
        SystemBuilder {
            nodes: 0,
            connections: Vec::new(),
            coords: None,
            symmetric: true,
            has_graph: false,
            fragmenter: None,
            backend: None,
            config: EngineConfig::default(),
            obs: None,
            durable: None,
        }
    }

    /// Use a generated graph (connections, coordinates and symmetry are
    /// taken from it).
    pub fn graph(mut self, g: &GeneratedGraph) -> Self {
        self.nodes = g.nodes;
        self.connections = g.connections.clone();
        self.coords = Some(g.coords.clone());
        self.symmetric = g.symmetric;
        self.has_graph = true;
        self
    }

    /// Use a raw connection relation over nodes `0..nodes` (one tuple per
    /// link; see [`SystemBuilder::symmetric`]). Coordinate-driven
    /// fragmenters ([`Fragmenter::Linear`], distributed centers) need
    /// [`SystemBuilder::coords`] as well.
    pub fn network(mut self, nodes: usize, connections: Vec<Edge>) -> Self {
        self.nodes = nodes;
        self.connections = connections;
        self.has_graph = true;
        self
    }

    /// Attach node coordinates (for coordinate-driven fragmenters).
    pub fn coords(mut self, coords: Vec<Coord>) -> Self {
        self.coords = Some(coords);
        self
    }

    /// Whether each connection tuple stands for both travel directions
    /// (default `true`; transportation networks).
    pub fn symmetric(mut self, symmetric: bool) -> Self {
        self.symmetric = symmetric;
        self
    }

    /// Choose the fragmentation strategy (required).
    pub fn fragmenter(mut self, fragmenter: Fragmenter) -> Self {
        self.fragmenter = Some(fragmenter);
        self
    }

    /// Choose the execution backend. It is the built engine's
    /// [`EngineConfig::mode`]: set here, it replaces whatever mode
    /// [`SystemBuilder::config`] carries, in either call order; left
    /// unset, that mode decides (default [`Backend::Inline`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Engine tuning: complementary scope, chain caps, PHE hub, and —
    /// unless [`SystemBuilder::backend`] names one — the phase-one
    /// execution mode.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Arm an observability bundle (`ds_obs`): one shared metrics
    /// registry, request tracer, slow-query log and workload recorder
    /// across every tier this system touches: [`System::serve`] /
    /// [`System::serve_with`] and [`System::materialize_with`] inherit
    /// the bundle unless their config carries its own. Read the
    /// aggregate through [`System::observe`]. Disarmed (the default)
    /// costs one `Option` branch per hook.
    pub fn observability(mut self, obs: Arc<Observability>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Make the serve tier durable at `path`: [`System::serve`] /
    /// [`System::serve_with`] write-ahead-log every update and
    /// checkpoint there (unless the serve config carries its own
    /// [`ds_serve::ServeConfig::durability`]), so the served state can
    /// be rebuilt after a process death with [`System::open`].
    pub fn durable(mut self, path: impl Into<PathBuf>) -> Self {
        self.durable = Some(path.into());
        self
    }

    /// Fragment the relation and build the engine.
    pub fn build(mut self) -> Result<System, SystemError> {
        if !self.has_graph {
            return Err(SystemError::MissingGraph);
        }
        if let Some(c) = &self.coords {
            if c.len() != self.nodes {
                return Err(SystemError::CoordinateCountMismatch {
                    coords: c.len(),
                    nodes: self.nodes,
                });
            }
        }
        let fragmenter = self
            .fragmenter
            .take()
            .ok_or(SystemError::MissingFragmenter)?;
        let frag = match fragmenter {
            Fragmenter::Linear(cfg) => linear_sweep(&self.edge_list(), &cfg)?.fragmentation,
            Fragmenter::Center(cfg) => center_based(&self.edge_list(), &cfg)?.fragmentation,
            Fragmenter::BondEnergy(cfg) => bond_energy(&self.edge_list(), &cfg)?.fragmentation,
            Fragmenter::ByLabels {
                labels,
                parts,
                policy,
            } => semantic::by_labels(self.nodes, &self.connections, &labels, parts, policy)?,
            Fragmenter::Prebuilt(frag) => frag,
        };
        if frag.node_count() != self.nodes {
            return Err(SystemError::PrebuiltNodeCount {
                fragmentation: frag.node_count(),
                nodes: self.nodes,
            });
        }
        if let Some(cost) = cost_over_limit(&frag) {
            let limit = max_edge_cost(frag.node_count());
            return Err(SystemError::EdgeCostOverLimit { cost, limit });
        }
        if let Some(backend) = self.backend {
            self.config.mode = backend.into();
        }
        Ok(System {
            engine: EngineSnapshot::build(frag, self.symmetric, self.config),
            scratch: ScratchDijkstra::new(),
            obs: self.obs,
            durable: self.durable,
            serve_epoch: 0,
        })
    }

    fn edge_list(&self) -> EdgeList {
        let el = EdgeList::new(self.nodes, self.connections.clone());
        match &self.coords {
            Some(c) => el.with_coords(c.clone()),
            None => el,
        }
    }
}

/// A deployed query system: the engine built from a fragmented relation
/// plus the scratch kernel its reads and update repairs run on, driven
/// through [`TcEngine`].
pub struct System {
    engine: EngineSnapshot,
    /// Persists across calls, so single queries, batches and updates are
    /// allocation-free in the steady state.
    scratch: ScratchDijkstra,
    obs: Option<Arc<Observability>>,
    /// Durable-store directory [`System::serve`] continues logging to.
    durable: Option<PathBuf>,
    /// The epoch the served state corresponds to (0 for fresh builds;
    /// the recovered epoch for [`System::open`]ed systems).
    serve_epoch: u64,
}

impl System {
    /// Start building a system.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::new()
    }

    /// Reopen a durable system from disk: take the newest valid
    /// checkpoint under `path`, fold the surviving write-ahead-log
    /// suffix into its relation (truncating at the first torn or corrupt
    /// record), build the engine once, and return a ready-to-serve
    /// system whose [`System::serve`] continues appending to the same
    /// log at the recovered epoch.
    ///
    /// The precompute runs during recovery — checkpoints store only the
    /// fragmented relation and engine configuration, backend included.
    pub fn open(path: impl Into<PathBuf>) -> Result<System, SystemError> {
        let path = path.into();
        let recovered = recover(&path)?;
        Ok(System {
            engine: recovered.snapshot,
            scratch: ScratchDijkstra::new(),
            obs: None,
            durable: Some(path),
            serve_epoch: recovered.epoch,
        })
    }

    /// The backend this system runs on (its engine's
    /// [`EngineConfig::mode`]).
    pub fn backend(&self) -> Backend {
        self.engine.config().mode.into()
    }

    /// Borrow the engine ([`TcEngine::snapshot`] hands out an owned,
    /// `Arc`-shared copy instead).
    pub fn engine(&self) -> &EngineSnapshot {
        &self.engine
    }

    /// Spawn a concurrent query-serving subsystem over a snapshot of the
    /// current engine state: `workers` reader threads (each with its own
    /// scratch kernel), micro-batching with request coalescing and
    /// fragment-pair grouping, and a single writer thread that applies
    /// updates incrementally and publishes successor snapshots under an
    /// epoch counter. See `ds_serve` (re-exported as `discset::serve`).
    ///
    /// The server is independent of this `System` from the moment it
    /// starts: updates applied through either side do not affect the
    /// other. Over a durable directory that has consequences: once the
    /// server has logged an update — or this system has applied one of
    /// its own — this system is no longer the state the directory
    /// recovers to, and serving from it again is refused; reopen with
    /// [`System::open`].
    pub fn serve(&self, workers: usize) -> ds_serve::Server {
        self.serve_with(ds_serve::ServeConfig::with_workers(workers))
    }

    /// [`System::serve`] with full control over queue depth and
    /// micro-batch caps.
    ///
    /// If this system was built with [`SystemBuilder::observability`]
    /// and `config.obs` is unset, the server inherits the system's
    /// bundle so serve-tier metrics land in the same registry. If it
    /// was built with [`SystemBuilder::durable`] (or reopened with
    /// [`System::open`]) and `config.durability` is unset, the server
    /// write-ahead-logs every update to the system's durable directory.
    ///
    /// # Panics
    ///
    /// Panics if the durable store cannot be attached (unreadable or
    /// unwritable directory, or a directory that recovers to a different
    /// state than this system holds). Use [`System::try_serve_with`] to
    /// handle that case.
    pub fn serve_with(&self, config: ds_serve::ServeConfig) -> ds_serve::Server {
        match self.try_serve_with(config) {
            Ok(server) => server,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`System::serve_with`], but surfacing durable-store attachment
    /// failures as [`SystemError::Durability`] instead of panicking.
    pub fn try_serve_with(
        &self,
        mut config: ds_serve::ServeConfig,
    ) -> Result<ds_serve::Server, SystemError> {
        if config.obs.is_none() {
            config.obs = self.obs.clone();
        }
        if config.durability.is_none() {
            if let Some(dir) = &self.durable {
                config.durability = Some(DurabilityConfig::at(dir.clone()));
            }
        }
        Ok(ds_serve::Server::try_start_at(
            self.engine.clone(),
            self.serve_epoch,
            config,
        )?)
    }

    /// Materialize the full transitive closure of this system's
    /// fragmented relation as one bulk operation, by the disconnection
    /// set approach, from the engine's epoch
    /// ([`EngineSnapshot::materialize`], see `ds_closure::bulk`): every
    /// source folds its access set with the epoch's *border rows* — the
    /// closure of the border skeleton (the hub) folded into every
    /// destination's exit set, one row per border; a destination in the
    /// source's own fragment also reads the source's border-free row.
    /// The build made the hub; the first call of an epoch fills the
    /// sites' exit sets (at most one fragment sweep per border of a site)
    /// and then the border rows its sources read, and closes the hub
    /// again only after a write that changed the border skeleton; a later
    /// call folds nothing the epoch already holds. All run as tasks on scoped
    /// worker threads: the caller starts at once, a spawned worker
    /// takes what is left when it starts, and every source's row is
    /// written once, straight into the returned relation.
    ///
    /// The result is tuple-identical to running the sequential
    /// semi-naive closure on the whole relation: every minimum-cost
    /// `(src, dst, cost)` path tuple, sorted.
    ///
    /// The only error is [`MaterializeError::WorkerPanicked`]: a worker
    /// panicked (or an injected fault killed it); every thread has
    /// joined, and a retry finishes from what the run left.
    pub fn materialize(&self) -> Result<(Relation<PathTuple>, MaterializeStats), MaterializeError> {
        self.materialize_with(MaterializeConfig::default())
    }

    /// [`System::materialize`] with control over worker threads and a
    /// source restriction (the paper's keyhole selection).
    pub fn materialize_with(
        &self,
        mut config: MaterializeConfig,
    ) -> Result<(Relation<PathTuple>, MaterializeStats), MaterializeError> {
        if config.obs.is_none() {
            config.obs = self.obs.clone();
        }
        self.engine.materialize(&config)
    }

    /// The observability bundle this system was built with, if any.
    pub fn observability(&self) -> Option<&Arc<Observability>> {
        self.obs.as_ref()
    }

    /// A point-in-time snapshot of every metric the system's
    /// observability bundle has accumulated — serve-tier counters and
    /// the request latency histogram, bulk materialization gauges, plus
    /// anything custom registered on the same bundle. Returns an empty
    /// snapshot when the system was built without
    /// [`SystemBuilder::observability`].
    pub fn observe(&self) -> MetricsSnapshot {
        match &self.obs {
            Some(obs) => obs.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("backend", &self.backend())
            .field("sites", &self.engine.site_count())
            .finish()
    }
}

impl TcEngine for System {
    fn backend_name(&self) -> &'static str {
        self.engine.config().mode.backend_name()
    }

    fn site_count(&self) -> usize {
        self.engine.site_count()
    }

    fn fragmentation(&self) -> &Fragmentation {
        self.engine.fragmentation()
    }

    fn shortest_path(&mut self, x: NodeId, y: NodeId) -> QueryAnswer {
        self.engine.shortest_path(x, y, &mut self.scratch)
    }

    /// Answered by the engine's reachability index (SCC/chain, no
    /// Dijkstra sweep), which the first call after a build or an
    /// invalidating update builds.
    fn connected(&mut self, x: NodeId, y: NodeId) -> bool {
        self.engine.connected(x, y)
    }

    fn route(&mut self, x: NodeId, y: NodeId) -> Result<Option<Route>, ClosureError> {
        self.engine.route(x, y, &mut self.scratch)
    }

    fn update(&mut self, update: &NetworkUpdate) -> Result<UpdateReport, ClosureError> {
        self.engine.maintain(update, &mut self.scratch)
    }

    fn precompute_stats(&self) -> PrecomputeStats {
        self.engine.precompute_stats()
    }

    fn snapshot(&self) -> EngineSnapshot {
        self.engine.clone()
    }

    fn query_batch(&mut self, requests: &[QueryRequest]) -> BatchAnswer {
        self.engine.query_batch(requests, &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_gen::deterministic::grid;
    use ds_graph::NodeId;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn linear_system(backend: Backend) -> System {
        System::builder()
            .graph(&grid(10, 3))
            .fragmenter(Fragmenter::Linear(LinearConfig {
                fragments: 3,
                ..Default::default()
            }))
            .backend(backend)
            .build()
            .unwrap()
    }

    #[test]
    fn both_backends_answer_identically() {
        let mut inline = linear_system(Backend::Inline);
        let mut threads = linear_system(Backend::SiteThreads);
        assert_eq!(inline.backend_name(), "inline");
        assert_eq!(threads.backend_name(), "site-threads");
        assert_eq!(threads.backend(), Backend::SiteThreads);
        assert_eq!(threads.snapshot().config().mode, ExecutionMode::Parallel);
        // The backend *is* the engine's mode: naming the mode alone
        // picks the backend.
        let by_mode = System::builder()
            .graph(&grid(10, 3))
            .fragmenter(Fragmenter::Linear(LinearConfig {
                fragments: 3,
                ..Default::default()
            }))
            .config(EngineConfig {
                mode: ExecutionMode::Parallel,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        assert_eq!(by_mode.backend(), Backend::SiteThreads);
        // A named backend outranks the mode the config carries.
        let named = System::builder()
            .graph(&grid(10, 3))
            .fragmenter(Fragmenter::Linear(LinearConfig::default()))
            .backend(Backend::SiteThreads)
            .config(EngineConfig::default())
            .build()
            .unwrap();
        assert_eq!(named.backend(), Backend::SiteThreads);
        for (x, y) in [(0u32, 29u32), (5, 17), (12, 12), (29, 0)] {
            assert_eq!(
                inline.shortest_path(n(x), n(y)).cost,
                threads.shortest_path(n(x), n(y)).cost,
                "query {x}->{y}"
            );
        }
    }

    /// Both backends deploy through the same skeleton precompute and
    /// report where their build time went.
    #[test]
    fn precompute_stats_through_the_facade_on_both_backends() {
        use ds_closure::PrecomputeStrategy;
        for backend in [Backend::Inline, Backend::SiteThreads] {
            let sys = linear_system(backend);
            let stats = sys.precompute_stats();
            assert_eq!(stats.strategy, PrecomputeStrategy::Skeleton, "{backend}");
            assert!(stats.local_sweeps_ns > 0, "{backend}: {stats:?}");
            assert!(stats.total_ns() >= stats.local_sweeps_ns, "{backend}");
        }
    }

    #[test]
    fn batch_through_the_facade() {
        let mut sys = linear_system(Backend::Inline);
        let reqs: Vec<QueryRequest> = (0..6u32)
            .map(|i| QueryRequest::new(n(i), n(29 - i)))
            .collect();
        let batch = sys.query_batch(&reqs);
        assert_eq!(batch.answers.len(), 6);
        assert!(batch.stats.plans_reused > 0);
    }

    #[test]
    fn update_batch_through_the_facade_on_both_backends() {
        use ds_graph::Edge;
        for backend in [Backend::Inline, Backend::SiteThreads] {
            let mut sys = linear_system(backend);
            let f0 = sys.fragmentation().fragment(0).clone();
            let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
            let updates = vec![
                NetworkUpdate::Insert {
                    edge: Edge::new(a, b, 1),
                    owner: 0,
                },
                NetworkUpdate::Remove {
                    src: a,
                    dst: b,
                    owner: 0,
                },
            ];
            let batch = sys.update_batch(&updates).unwrap();
            assert_eq!(batch.reports.len(), 2, "{backend:?}");
            assert!(batch.incremental_fraction() > 0.0, "{backend:?}");
            assert!(sys.connected(n(0), n(29)), "{backend:?} still answers");
        }
    }

    /// Both backends can hand their state to the serve subsystem; the
    /// served answers match the engine's own.
    #[test]
    fn serve_from_both_backends() {
        for backend in [Backend::Inline, Backend::SiteThreads] {
            let mut sys = linear_system(backend);
            let server = sys.serve(2);
            for (x, y) in [(0u32, 29u32), (5, 17), (12, 12)] {
                assert_eq!(
                    server.query(n(x), n(y)).unwrap().answer.cost,
                    sys.shortest_path(n(x), n(y)).cost,
                    "{backend:?} {x}->{y}"
                );
            }
            let stats = server.shutdown();
            assert_eq!(stats.backend, sys.backend_name());
            assert_eq!(stats.requests, 3);
        }
    }

    /// Bulk materialization through the facade agrees with the
    /// per-query engine on every pair it answers.
    #[test]
    fn materialize_matches_engine_answers() {
        let mut sys = linear_system(Backend::Inline);
        let (closure, stats) = sys.materialize().unwrap();
        assert!(stats.fragments >= 2);
        assert!(stats.rounds >= 1);
        assert_eq!(stats.tc.result_tuples, closure.len());
        for (x, y) in [(0u32, 29u32), (5, 17), (29, 0), (3, 28)] {
            assert_eq!(
                closure.cost_of(n(x), n(y)),
                sys.shortest_path(n(x), n(y)).cost,
                "pair {x}->{y}"
            );
        }
        // The keyhole-restricted run is the source-slice of the full one.
        let (slice, _) = sys
            .materialize_with(MaterializeConfig {
                sources: Some(vec![n(4)]),
                ..Default::default()
            })
            .unwrap();
        let expected: Vec<_> = closure
            .rows()
            .iter()
            .filter(|t| t.src == n(4))
            .copied()
            .collect();
        assert_eq!(slice.rows(), expected);
    }

    /// One armed bundle handed to the builder collects metrics from the
    /// serve tier and bulk materialization, all readable through
    /// `System::observe()`. A disarmed system answers identically and
    /// observes nothing.
    #[test]
    fn one_observability_bundle_spans_the_serve_and_bulk_tiers() {
        let obs = Observability::armed();
        let mut sys = System::builder()
            .graph(&grid(10, 3))
            .fragmenter(Fragmenter::Linear(LinearConfig {
                fragments: 3,
                ..Default::default()
            }))
            .backend(Backend::SiteThreads)
            .observability(Arc::clone(&obs))
            .build()
            .unwrap();
        let mut plain = linear_system(Backend::SiteThreads);

        for (x, y) in [(0u32, 29u32), (5, 17)] {
            assert_eq!(
                sys.shortest_path(n(x), n(y)).cost,
                plain.shortest_path(n(x), n(y)).cost,
                "{x}->{y}"
            );
        }
        // Serve tier inherits the bundle through serve_with.
        let server = sys.serve(2);
        server.query(n(0), n(29)).unwrap();
        server.shutdown();
        // Bulk tier inherits through materialize_with.
        sys.materialize().unwrap();

        let snap = sys.observe();
        assert_eq!(snap.counter("serve_requests"), Some(1), "{snap:?}");
        assert!(snap.gauge("materialize_result_tuples").unwrap() > 0);
        assert!(snap.gauge("materialize_helper_tasks").is_some());
        assert!(
            snap.gauge("materialize_border_rows").unwrap() > 0,
            "a cold call"
        );
        assert!(!obs.tracer().recent(16).is_empty());

        // Disarmed facade: empty snapshot, nothing recorded anywhere.
        assert!(plain.observe().counter("serve_requests").is_none());
        assert_eq!(
            plain.observe().to_json(),
            MetricsSnapshot::default().to_json()
        );
    }

    #[test]
    fn coordinate_mismatch_is_an_error_not_a_panic() {
        use ds_graph::{Coord, Edge};
        let err = System::builder()
            .network(5, vec![Edge::unit(NodeId(0), NodeId(1))])
            .coords(vec![Coord::new(0.0, 0.0); 3])
            .fragmenter(Fragmenter::Linear(LinearConfig::default()))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SystemError::CoordinateCountMismatch {
                coords: 3,
                nodes: 5
            }
        );
    }

    #[test]
    fn missing_pieces_are_reported() {
        assert_eq!(
            System::builder().build().unwrap_err(),
            SystemError::MissingGraph
        );
        assert_eq!(
            System::builder().graph(&grid(4, 2)).build().unwrap_err(),
            SystemError::MissingFragmenter
        );
    }

    /// A fresh directory name (the durable store creates it).
    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("discset-system-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Build a durable system, serve updates through it, kill the
    /// server, and reopen from disk: the reopened system answers
    /// identically, on the backend it was built with, and continues at
    /// the recovered epoch.
    #[test]
    fn durable_system_reopens_after_restart() {
        let dir = tmpdir("durable");

        let sys = System::builder()
            .graph(&grid(10, 3))
            .fragmenter(Fragmenter::Linear(LinearConfig {
                fragments: 3,
                ..Default::default()
            }))
            .backend(Backend::SiteThreads)
            .durable(&dir)
            .build()
            .unwrap();
        let f0 = sys.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        {
            let server = sys.serve(2);
            server
                .update(&NetworkUpdate::Insert {
                    edge: ds_graph::Edge::new(a, b, 1),
                    owner: 0,
                })
                .unwrap();
            assert_eq!(server.query(a, b).unwrap().answer.cost, Some(1));
            server.shutdown();
        }

        let mut reopened = System::open(&dir).expect("recover");
        assert_eq!(reopened.backend(), Backend::SiteThreads);
        assert_eq!(reopened.backend_name(), "site-threads");
        assert_eq!(reopened.shortest_path(a, b).cost, Some(1));
        let server = reopened.serve(2);
        assert_eq!(
            server.stats().epoch,
            1,
            "serving resumes at the recovered epoch"
        );
        assert_eq!(server.query(a, b).unwrap().answer.cost, Some(1));
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A durable directory and the state served over it cannot diverge
    /// silently: a system the log has moved past — because a server it
    /// started logged an update, or because it applied one inline that
    /// the log never saw — is refused with a typed error, and a system
    /// recovered from the directory attaches and resumes at its epoch.
    #[test]
    fn a_system_the_log_has_moved_past_cannot_serve_over_it() {
        let dir = tmpdir("diverged");

        let sys = System::builder()
            .graph(&grid(10, 3))
            .fragmenter(Fragmenter::Linear(LinearConfig {
                fragments: 3,
                ..Default::default()
            }))
            .durable(&dir)
            .build()
            .unwrap();
        let f0 = sys.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        let insert = |cost| NetworkUpdate::Insert {
            edge: ds_graph::Edge::new(a, b, cost),
            owner: 0,
        };
        let refused = |sys: &System, why: &str| match sys
            .try_serve_with(ds_serve::ServeConfig::with_workers(2))
        {
            Err(SystemError::Durability(e)) => assert!(e.contains(why), "{e}"),
            other => panic!("expected a refusal naming {why:?}, got {other:?}"),
        };

        let server = sys.serve(2);
        server.update(&insert(2)).unwrap();
        server.shutdown();
        // The directory holds an acknowledged edge this system never saw.
        refused(&sys, "epoch");

        let mut reopened = System::open(&dir).expect("recover");
        assert_eq!(reopened.shortest_path(a, b).cost, Some(2));
        let server = reopened.serve(2);
        assert_eq!(server.epoch(), 1, "resumes at the recovered epoch");
        assert_eq!(server.query(a, b).unwrap().answer.cost, Some(2));
        server.shutdown();
        // Still the directory's state: attaches again.
        reopened.serve(2).shutdown();

        // An inline update the log never saw: same epoch, other edges.
        reopened.update(&insert(1)).unwrap();
        refused(&reopened, "fragment 0");
        assert_eq!(
            System::open(&dir).unwrap().shortest_path(a, b).cost,
            Some(2),
            "the directory still recovers to what it acknowledged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_prebuilt_fragmentation_over_another_node_count_is_refused() {
        let frag = linear_system(Backend::Inline).fragmentation().clone();
        let err = System::builder()
            .graph(&grid(4, 4))
            .fragmenter(Fragmenter::Prebuilt(frag))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SystemError::PrebuiltNodeCount {
                fragmentation: 30,
                nodes: 16
            }
        );
    }

    /// One edge over `max_edge_cost` of the network's node count is
    /// refused with the typed error, whichever fragmenter placed it; at
    /// the limit the network builds.
    #[test]
    fn an_edge_over_the_cost_limit_is_refused_at_build() {
        use ds_graph::Edge;
        let g = grid(4, 2);
        let limit = max_edge_cost(g.nodes);
        let with = |cost| {
            let mut connections = g.connections.clone();
            connections[3].cost = cost;
            connections
        };
        let linear = || {
            Fragmenter::Linear(LinearConfig {
                fragments: 2,
                ..Default::default()
            })
        };
        let err = System::builder()
            .graph(&g)
            .network(g.nodes, with(limit + 1))
            .fragmenter(linear())
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SystemError::EdgeCostOverLimit {
                cost: limit + 1,
                limit
            }
        );
        assert!(err.to_string().contains("over"), "{err}");
        let mut sys = System::builder()
            .graph(&g)
            .network(g.nodes, with(limit))
            .fragmenter(linear())
            .build()
            .expect("at the limit");
        let e = with(limit)[3];
        assert_eq!(
            sys.shortest_path(e.src, e.dst).cost,
            Some(3),
            "around the square"
        );
        let over = Edge::new(NodeId(0), NodeId(7), Cost::MAX);
        let frag = Fragmentation::new(
            g.nodes,
            vec![g.connections.clone(), vec![over]],
            vec![vec![]; 2],
        );
        let err = System::builder()
            .graph(&g)
            .fragmenter(Fragmenter::Prebuilt(frag))
            .build()
            .unwrap_err();
        let cost = Cost::MAX;
        assert_eq!(err, SystemError::EdgeCostOverLimit { cost, limit });
    }

    #[test]
    fn prebuilt_fragmentation_and_labels() {
        let g = grid(6, 2);
        let labels: Vec<u32> = (0..12u32).map(|i| i / 6).collect();
        let mut sys = System::builder()
            .graph(&g)
            .fragmenter(Fragmenter::ByLabels {
                labels,
                parts: 2,
                policy: CrossingPolicy::LowerBlock,
            })
            .backend(Backend::SiteThreads)
            .build()
            .unwrap();
        assert_eq!(sys.site_count(), 2);
        assert!(sys.connected(n(0), n(11)));
    }
}
