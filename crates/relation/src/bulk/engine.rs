//! The disconnection-set materializer: fragment sweeps joined through
//! border rows.
//!
//! A node in two or more fragments is a *border*; every other node has
//! one home fragment `F`, and a path from it that uses an edge outside
//! `F` crosses a border of `F` first. So for an interior source `s`
//!
//! ```text
//! row(s)[d] = min( local_F(s, d),  min over borders b of  local_F(s, b) + row(b)[d] )
//! ```
//!
//! where `local_F` is one Dijkstra sweep over `F`'s own edges that
//! stops at `F`'s borders — the cheapest paths through `F`'s interior
//! only, since every path that reaches a border is the fold's — and
//! `row(b)` one sweep of the union graph from `b`. A run is two flat
//! task lists, each pulled off one atomic counter by scoped workers that
//! own their scratch:
//!
//! 1. **Border rows.** One union-graph sweep per border that is a
//!    requested source or belongs to a joined fragment; the dense row is
//!    kept for phase 2.
//! 2. **Sources**, in per-fragment blocks. A fragment is *joined* when it
//!    has more requested interior sources than borders that are not
//!    requested themselves — only then do the border rows save sweeps.
//!    A joined source is one fragment sweep, blocked at the fragment's
//!    borders, plus a min-plus fold over its access relation
//!    `(s, b, local_F(s, b))`, pruned to the non-dominated borders; the
//!    sources of any other fragment sweep the union graph directly.
//!
//! When no fragment folds a border row the two lists run as one phase.
//! Every step is label-setting: there is no fixpoint, no exchange round
//! and nothing kept between runs, and the output — rows written in
//! `(src, dst)` order, assembled by concatenation — is tuple-identical to
//! [`crate::tc::seminaive_closure`] whatever the thread count.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ds_fault::{FaultPlan, FaultPoint};
use ds_fragment::Fragmentation;
use ds_graph::{Cost, CsrGraph, Edge, NodeId, ScratchDijkstra, INFINITE_COST};

use super::partition::FragmentPartition;
use crate::relation::Relation;
use crate::stats::TcStats;
use crate::tuple::PathTuple;

/// Sources (or border rows) per task: small enough that the workers
/// finish together, large enough that pulling a task costs nothing.
const BLOCK: usize = 8;

/// Tuning knobs for one materialization run.
#[derive(Clone, Debug, Default)]
pub struct MaterializeConfig {
    /// Worker threads. `0` (the default) means `available_parallelism`;
    /// a phase never uses more workers than it has tasks, and `1` runs
    /// the same loop inline, without spawning.
    pub threads: usize,
    /// Restrict the closure to paths starting in this set (the §2.1
    /// keyhole selection). `None` materializes the full closure.
    /// Duplicates, ids outside the graph and nodes in no fragment are
    /// ignored; `Some(vec![])` is the empty relation.
    pub sources: Option<Vec<NodeId>>,
    /// Deterministic fault plan fired once per fragment task
    /// ([`FaultPoint::BulkWorker`]). `None` (the default) reduces the
    /// hook to a single branch.
    pub fault: Option<Arc<FaultPlan>>,
    /// Observability bundle (`ds_obs`): after a successful run the
    /// resulting [`MaterializeStats`] are mirrored into the metrics
    /// registry as `materialize_*` gauges
    /// ([`MaterializeStats::mirror_into`]). `None` (the default) skips
    /// the mirror entirely.
    pub obs: Option<Arc<ds_obs::Observability>>,
}

impl MaterializeConfig {
    /// Full closure on `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        MaterializeConfig {
            threads,
            ..Default::default()
        }
    }
}

/// Errors of one materialization run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaterializeError {
    /// A worker panicked (or an injected fault killed it) while running
    /// a task of this fragment. The task counter is stopped, every
    /// worker joined, and the run aborted — the panic never crosses into
    /// the caller, and the engine, which keeps nothing between runs,
    /// stays usable.
    WorkerPanicked {
        /// The fragment whose task was being evaluated.
        fragment: usize,
    },
}

impl fmt::Display for MaterializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaterializeError::WorkerPanicked { fragment } => write!(
                f,
                "materialization worker panicked on fragment {fragment}; the run was aborted"
            ),
        }
    }
}

impl std::error::Error for MaterializeError {}

/// What one materialization run did.
#[derive(Clone, Debug, Default)]
pub struct MaterializeStats {
    /// Fragments in the partition.
    pub fragments: usize,
    /// Worker threads actually used.
    pub threads: usize,
    /// Phases run: 2 when some fragment was joined through its borders
    /// (border rows, then sources), 1 when none was, 0 for an empty run.
    pub rounds: usize,
    /// Sweeps of the union graph: one per border row and one per source
    /// of a fragment that was not joined.
    pub network_sweeps: usize,
    /// Sweeps of one fragment's own edges, blocked at its borders: one
    /// per joined source.
    pub fragment_sweeps: usize,
    /// `(source, border, cost)` access tuples folded with a border row —
    /// §2.1's "very small relations", after dominated borders are
    /// dropped.
    pub exchanged_tuples: usize,
    /// Result tuples `(s, d)`, `d ≠ s`, of joined sources whose cost a
    /// path through the fragment's interior alone decided: the fragment
    /// sweep reached `d` (a border of it included) without entering a
    /// border first, and no path through a border was cheaper.
    pub kept_local: usize,
    /// Busy time per worker thread; [`MaterializeStats::balance_ratio`]
    /// says whether the threads finished together.
    pub busy: Vec<Duration>,
    /// Aggregate closure counters: `tuples_generated` is the arcs the
    /// sweeps scanned (those of the nodes they expanded: a fragment
    /// sweep's borders are settled, never expanded) plus the candidates
    /// the folds offered, `iterations` repeats `rounds`, `delta_sizes`
    /// holds the result tuples written per phase.
    pub tc: TcStats,
}

impl MaterializeStats {
    /// Mirror the run's headline numbers into `registry` as
    /// `materialize_*` gauges — the registry-backed view of this
    /// struct. Gauges (not counters) because the struct owns the truth:
    /// a later run overwrites, never accumulates.
    pub fn mirror_into(&self, registry: &ds_obs::MetricsRegistry) {
        for (name, value) in [
            ("materialize_fragments", self.fragments),
            ("materialize_threads", self.threads),
            ("materialize_rounds", self.rounds),
            ("materialize_network_sweeps", self.network_sweeps),
            ("materialize_fragment_sweeps", self.fragment_sweeps),
            ("materialize_exchanged_tuples", self.exchanged_tuples),
            ("materialize_kept_local", self.kept_local),
            ("materialize_result_tuples", self.tc.result_tuples),
            ("materialize_generated_tuples", self.tc.tuples_generated),
        ] {
            registry.gauge(name).set(value as u64);
        }
    }

    /// Max over mean busy time of the worker threads — 1.0 is a
    /// perfectly balanced run ([`ds_obs::balance_ratio`], the measure the
    /// serve stats report per worker).
    pub fn balance_ratio(&self) -> f64 {
        ds_obs::balance_ratio(&self.busy)
    }
}

impl fmt::Display for MaterializeStats {
    /// One-line summary, e.g. `4 fragments / 2 threads: 2 rounds, 9 + 84
    /// sweeps, 87 exchanged (412 kept local), balance 1.03; 2 iters, ...`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fragments / {} threads: {} rounds, {} + {} sweeps, {} exchanged ({} kept local), balance {:.2}; {}",
            self.fragments,
            self.threads,
            self.rounds,
            self.network_sweeps,
            self.fragment_sweeps,
            self.exchanged_tuples,
            self.kept_local,
            self.balance_ratio(),
            self.tc
        )
    }
}

/// One fragment's own edges over dense local ids (the layout
/// `ds_closure::local::Site` keeps), so a fragment sweep touches arrays
/// the size of the fragment.
struct LocalGraph {
    /// Sorted global ids; the position is the local id.
    nodes: Vec<NodeId>,
    graph: CsrGraph,
    /// Local ids of the fragment's borders.
    borders: Vec<NodeId>,
}

impl LocalGraph {
    /// `local_id` is scratch shared across fragments: only the entries
    /// of this fragment's nodes are written and read.
    fn build(partition: &FragmentPartition, fragment: usize, local_id: &mut [u32]) -> Self {
        let tuples = partition.relation(fragment).rows();
        let mut nodes: Vec<NodeId> = tuples.iter().flat_map(|t| [t.src, t.dst]).collect();
        nodes.extend_from_slice(partition.borders(fragment));
        nodes.sort_unstable();
        nodes.dedup();
        for (i, v) in nodes.iter().enumerate() {
            local_id[v.index()] = i as u32;
        }
        let local = |v: NodeId| NodeId(local_id[v.index()]);
        let edges: Vec<Edge> = tuples
            .iter()
            .map(|t| Edge::new(local(t.src), local(t.dst), t.cost))
            .collect();
        LocalGraph {
            graph: CsrGraph::from_edges(nodes.len(), &edges),
            borders: partition
                .borders(fragment)
                .iter()
                .map(|&b| local(b))
                .collect(),
            nodes,
        }
    }
}

/// What a run sweeps, decided from the counts alone.
struct Plan {
    /// Requested sources by node id.
    requested: Vec<bool>,
    /// Requested interior sources per home fragment, ascending.
    sources: Vec<Vec<NodeId>>,
    /// Fragments whose sources are joined through their border rows.
    joined: Vec<bool>,
    /// Borders swept over the union graph in phase 1, ascending: the
    /// requested ones and those of the joined fragments.
    rows: Vec<NodeId>,
}

impl Plan {
    fn new(partition: &FragmentPartition, sources: Option<&[NodeId]>) -> Self {
        let n = partition.node_count();
        let requested = match sources {
            None => vec![true; n],
            Some(list) => {
                let mut requested = vec![false; n];
                for s in list {
                    if let Some(slot) = requested.get_mut(s.index()) {
                        *slot = true;
                    }
                }
                requested
            }
        };
        let nodes = || (0..n).map(NodeId::from_index);
        let mut sources = vec![Vec::new(); partition.fragment_count()];
        for v in nodes().filter(|v| requested[v.index()]) {
            if let [home] = partition.fragments_of(v) {
                sources[*home].push(v);
            }
        }
        // Joining costs one sweep per border not requested anyway and
        // saves one per source, so it pays exactly when k > extra — which
        // also holds the border rows to fewer than the requested sources.
        let joined: Vec<bool> = sources
            .iter()
            .enumerate()
            .map(|(f, sources)| {
                let extra = partition
                    .borders(f)
                    .iter()
                    .filter(|b| !requested[b.index()]);
                sources.len() > extra.count()
            })
            .collect();
        let rows = nodes()
            .filter(|&v| {
                let homes = partition.fragments_of(v);
                homes.len() >= 2 && (requested[v.index()] || homes.iter().any(|&f| joined[f]))
            })
            .collect();
        Plan {
            requested,
            sources,
            joined,
            rows,
        }
    }
}

/// One unit of work pulled off the phase's counter.
enum Task<'a> {
    /// Sweep the union graph from each border and keep its dense row.
    Rows(&'a [NodeId]),
    /// One block of a fragment's requested interior sources.
    Sources {
        fragment: usize,
        joined: bool,
        sources: &'a [NodeId],
    },
}

/// A border's distances to every node of the union graph.
struct BorderRow {
    node: NodeId,
    /// `INFINITE_COST` marks unreached; `dist[node]` is 0.
    dist: Vec<Cost>,
    /// Finite entries of `dist`.
    reached: usize,
}

/// The border rows of a run, filled by phase 1 and read by phase 2.
struct RowTable {
    rows: Vec<BorderRow>,
    /// Index into `rows` per node id (meaningful for row nodes only).
    row_of: Vec<u32>,
}

/// What one task produced: its sources' rows in `(src, dst)` order, the
/// border rows it swept, and its share of the counters.
#[derive(Default)]
struct TaskOutput {
    tuples: Vec<PathTuple>,
    rows: Vec<BorderRow>,
    network_sweeps: usize,
    fragment_sweeps: usize,
    generated: usize,
    exchanged: usize,
    kept_local: usize,
}

impl TaskOutput {
    /// Append `src`'s row. Paths have length ≥ 1, so the `(src, src)`
    /// tuple is the cheapest closed walk `cycle`, not `dist[src] = 0`.
    fn emit(&mut self, src: NodeId, dist: &[Cost], cycle: Cost) {
        self.tuples.reserve(dist.len());
        for (d, &c) in dist.iter().enumerate() {
            let c = if d == src.index() { cycle } else { c };
            if c < INFINITE_COST {
                self.tuples
                    .push(PathTuple::new(src, NodeId::from_index(d), c));
            }
        }
    }
}

/// What a worker owns for the length of a phase.
struct Scratch {
    dijkstra: ScratchDijkstra,
    /// The row being built, by global node id.
    acc: Vec<Cost>,
    /// The source's access relation: `(local cost, border row index)`.
    access: Vec<(Cost, u32)>,
}

/// Bulk materialization of the transitive closure over a fragmented
/// relation by the disconnection set approach: border rows over the
/// union graph, fragment sweeps joined through them. Built from the
/// [`FragmentPartition`] alone; each [`MaterializeEngine::materialize`]
/// call is an independent run over the same prebuilt graphs.
pub struct MaterializeEngine {
    partition: FragmentPartition,
    /// All fragments' edges over global ids.
    graph: CsrGraph,
    /// In-edges of `graph`; `None` when the relation is symmetric and
    /// `graph` is its own transpose.
    transpose: Option<CsrGraph>,
    locals: Vec<LocalGraph>,
    config: MaterializeConfig,
}

impl MaterializeEngine {
    /// Build from an already-partitioned relation.
    pub fn new(partition: FragmentPartition, config: MaterializeConfig) -> Self {
        let graph = partition.union_graph();
        let transpose = (!partition.is_symmetric()).then(|| graph.reversed());
        let mut local_id = vec![0u32; partition.node_count()];
        let locals = (0..partition.fragment_count())
            .map(|f| LocalGraph::build(&partition, f, &mut local_id))
            .collect();
        MaterializeEngine {
            partition,
            graph,
            transpose,
            locals,
            config,
        }
    }

    /// Partition the fragmentation's edge relation (symmetric expansion
    /// per `symmetric`) and build the engine over it.
    pub fn from_fragmentation(
        frag: &Fragmentation,
        symmetric: bool,
        config: MaterializeConfig,
    ) -> Self {
        MaterializeEngine::new(FragmentPartition::new(frag, symmetric), config)
    }

    /// The partition this engine runs over.
    pub fn partition(&self) -> &FragmentPartition {
        &self.partition
    }

    /// The run configuration.
    pub fn config(&self) -> &MaterializeConfig {
        &self.config
    }

    /// Materialize the closure: the min-cost path relation (sorted,
    /// tuple-identical to [`crate::tc::seminaive_closure`] over the
    /// union relation, restricted to [`MaterializeConfig::sources`]) plus
    /// run statistics.
    ///
    /// Errors with [`MaterializeError::WorkerPanicked`] when a task
    /// panics or an injected fault kills it; every worker has joined by
    /// then.
    pub fn materialize(&self) -> Result<(Relation<PathTuple>, MaterializeStats), MaterializeError> {
        let plan = Plan::new(&self.partition, self.config.sources.as_deref());
        let mut stats = MaterializeStats {
            fragments: self.partition.fragment_count(),
            ..Default::default()
        };

        let row_tasks = plan.rows.chunks(BLOCK).map(Task::Rows);
        let source_tasks = plan
            .sources
            .iter()
            .enumerate()
            .flat_map(|(fragment, list)| {
                let joined = plan.joined[fragment];
                list.chunks(BLOCK).map(move |sources| Task::Sources {
                    fragment,
                    joined,
                    sources,
                })
            });
        // The sources wait for the border rows only if one of them folds
        // a row; otherwise everything is one flat list.
        let folds =
            (0..stats.fragments).any(|f| plan.joined[f] && !self.partition.borders(f).is_empty());
        let phases: Vec<Vec<Task>> = if folds {
            vec![row_tasks.collect(), source_tasks.collect()]
        } else {
            vec![row_tasks.chain(source_tasks).collect()]
        };

        let mut table = RowTable {
            rows: Vec::with_capacity(plan.rows.len()),
            row_of: vec![0; self.partition.node_count()],
        };
        let mut outputs: Vec<TaskOutput> = Vec::new();
        for tasks in phases.iter().filter(|tasks| !tasks.is_empty()) {
            let done = self.run_phase(tasks, &plan, &table, &mut stats.busy)?;
            stats.rounds += 1;
            stats
                .tc
                .delta_sizes
                .push(done.iter().map(|out| out.tuples.len()).sum());
            for mut out in done {
                for row in out.rows.drain(..) {
                    table.row_of[row.node.index()] = table.rows.len() as u32;
                    table.rows.push(row);
                }
                outputs.push(out);
            }
        }

        // Every source's row is one run of one task's output: order the
        // runs by source and concatenate.
        let mut runs: Vec<&[PathTuple]> = outputs
            .iter()
            .flat_map(|out| out.tuples.chunk_by(|a, b| a.src == b.src))
            .collect();
        runs.sort_unstable_by_key(|run| run[0].src);
        let mut rows = Vec::with_capacity(runs.iter().map(|run| run.len()).sum());
        for run in runs {
            rows.extend_from_slice(run);
        }

        for out in &outputs {
            stats.network_sweeps += out.network_sweeps;
            stats.fragment_sweeps += out.fragment_sweeps;
            stats.exchanged_tuples += out.exchanged;
            stats.kept_local += out.kept_local;
            stats.tc.tuples_generated += out.generated;
        }
        stats.threads = stats.busy.len().max(1);
        stats.tc.iterations = stats.rounds;
        stats.tc.result_tuples = rows.len();
        if let Some(obs) = &self.config.obs {
            stats.mirror_into(obs.registry());
        }
        Ok((Relation::from_rows("tc", rows), stats))
    }

    /// Run one flat task list: workers pull indexes off one counter until
    /// it runs out or a task fails, which stops the counter. Outputs come
    /// back in task order; `busy[i]` grows by worker `i`'s time.
    fn run_phase(
        &self,
        tasks: &[Task],
        plan: &Plan,
        table: &RowTable,
        busy: &mut Vec<Duration>,
    ) -> Result<Vec<TaskOutput>, MaterializeError> {
        let threads = match self.config.threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            t => t,
        };
        let workers = threads.min(tasks.len());
        let next = AtomicUsize::new(0);
        let failed = AtomicUsize::new(usize::MAX);
        // Workers meet at a gate before they start: the scheduler puts a
        // thread woken from a wait on an idle core at once, where a newly
        // created one can sit behind its sibling until the next balancing
        // tick — longer than a whole phase.
        let gate = Barrier::new(workers);
        let worker = || {
            gate.wait();
            let start = Instant::now();
            let mut scratch = Scratch {
                dijkstra: ScratchDijkstra::new(),
                acc: vec![INFINITE_COST; self.partition.node_count()],
                access: Vec::new(),
            };
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    self.run_task(task, plan, table, &mut scratch)
                }));
                match outcome {
                    Ok(Some(out)) => done.push((i, out)),
                    Ok(None) | Err(_) => {
                        next.store(tasks.len(), Ordering::Relaxed);
                        let fragment = match *task {
                            Task::Rows(borders) => self.partition.fragments_of(borders[0])[0],
                            Task::Sources { fragment, .. } => fragment,
                        };
                        failed.fetch_min(fragment, Ordering::Relaxed);
                        break;
                    }
                }
            }
            (done, start.elapsed())
        };
        // The caller is worker 0, so one thread spawns nothing.
        let results = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
            let mut results = vec![worker()];
            results.extend(
                spawned
                    .into_iter()
                    .map(|handle| handle.join().expect("a worker catches its tasks' panics")),
            );
            results
        });
        let fragment = failed.into_inner();
        if fragment != usize::MAX {
            return Err(MaterializeError::WorkerPanicked { fragment });
        }
        if busy.len() < results.len() {
            busy.resize(results.len(), Duration::ZERO);
        }
        let mut done = Vec::with_capacity(tasks.len());
        for (slot, (outputs, elapsed)) in busy.iter_mut().zip(results) {
            *slot += elapsed;
            done.extend(outputs);
        }
        done.sort_unstable_by_key(|&(i, _)| i);
        Ok(done.into_iter().map(|(_, out)| out).collect())
    }

    /// `None` when an injected fault kills the task.
    fn run_task(
        &self,
        task: &Task,
        plan: &Plan,
        table: &RowTable,
        scratch: &mut Scratch,
    ) -> Option<TaskOutput> {
        let mut out = TaskOutput::default();
        match *task {
            Task::Rows(borders) => {
                for &b in borders {
                    let mut dist = vec![INFINITE_COST; self.partition.node_count()];
                    let (cycle, reached) =
                        self.network_row(b, &mut scratch.dijkstra, &mut dist, &mut out);
                    if plan.requested[b.index()] {
                        out.emit(b, &dist, cycle);
                    }
                    out.rows.push(BorderRow {
                        node: b,
                        dist,
                        reached,
                    });
                }
            }
            Task::Sources {
                fragment,
                joined,
                sources,
            } => {
                if ds_fault::fire(&self.config.fault, FaultPoint::BulkWorker { fragment }) {
                    return None;
                }
                for &s in sources {
                    let cycle = if joined {
                        self.joined_row(fragment, s, table, scratch, &mut out)
                    } else {
                        let Scratch { dijkstra, acc, .. } = scratch;
                        self.network_row(s, dijkstra, acc, &mut out).0
                    };
                    out.emit(s, &scratch.acc, cycle);
                }
            }
        }
        Some(out)
    }

    /// The cheapest closed walk through `s`, given the distances from
    /// `s` (`dist[s] = 0`): the cheapest in-edge `(x → s, c)` at
    /// `dist[x] + c`, a self-loop included. Not below `INFINITE_COST`
    /// when there is none.
    fn closed_walk(&self, s: NodeId, dist: &[Cost]) -> Cost {
        self.transpose
            .as_ref()
            .unwrap_or(&self.graph)
            .neighbors(s)
            .map(|(x, c)| dist[x.index()] + c)
            .min()
            .unwrap_or(INFINITE_COST)
    }

    /// Sweep the union graph from `s` into `dist`; returns the closed
    /// walk through `s` and the number of nodes reached.
    fn network_row(
        &self,
        s: NodeId,
        dijkstra: &mut ScratchDijkstra,
        dist: &mut [Cost],
        out: &mut TaskOutput,
    ) -> (Cost, usize) {
        dijkstra.sweep(&self.graph, &[(s, 0)]);
        out.network_sweeps += 1;
        let mut reached = 0;
        for (v, slot) in dist.iter_mut().enumerate() {
            let v = NodeId::from_index(v);
            *slot = INFINITE_COST;
            if let Some(c) = dijkstra.cost(v) {
                *slot = c;
                reached += 1;
                out.generated += self.graph.out_degree(v);
            }
        }
        (self.closed_walk(s, dist), reached)
    }

    /// Build interior source `s`'s row in `scratch.acc` from one sweep of
    /// its fragment's interior and a fold over its non-dominated reached
    /// borders; returns the closed walk through `s`.
    fn joined_row(
        &self,
        fragment: usize,
        s: NodeId,
        table: &RowTable,
        scratch: &mut Scratch,
        out: &mut TaskOutput,
    ) -> Cost {
        let local = &self.locals[fragment];
        let Scratch {
            dijkstra,
            acc,
            access,
        } = scratch;
        acc.fill(INFINITE_COST);
        // In the fragment by seed only: no edge, so no tuple.
        let Ok(at) = local.nodes.binary_search(&s) else {
            return INFINITE_COST;
        };
        dijkstra.sweep_blocked(&local.graph, &[(NodeId::from_index(at), 0)], &local.borders);
        out.fragment_sweeps += 1;
        let swept = |lv: usize| dijkstra.cost(NodeId::from_index(lv));
        for (lv, v) in local.nodes.iter().enumerate() {
            if let Some(c) = swept(lv) {
                acc[v.index()] = c;
                out.generated += local.graph.out_degree(NodeId::from_index(lv));
            }
        }
        // A reached border was settled, not expanded: none of its arcs
        // were scanned.
        for &lb in &local.borders {
            if swept(lb.index()).is_some() {
                out.generated -= local.graph.out_degree(lb);
            }
        }

        // The access relation, cheapest first; border b is dominated when
        // a kept b' reaches it no dearer than the fragment does, since
        // then every path through b is matched by one through b'.
        access.clear();
        access.extend(local.borders.iter().filter_map(|&lb| {
            let row = table.row_of[local.nodes[lb.index()].index()];
            swept(lb.index()).map(|c| (c, row))
        }));
        access.sort_unstable();
        let mut kept = 0;
        for i in 0..access.len() {
            let (c, row) = access[i];
            let b = table.rows[row as usize].node.index();
            let dominated = access[..kept]
                .iter()
                .any(|&(kc, krow)| kc + table.rows[krow as usize].dist[b] <= c);
            if !dominated {
                access[kept] = (c, row);
                kept += 1;
            }
        }
        access.truncate(kept);

        for &(c, row) in access.iter() {
            let row = &table.rows[row as usize];
            for (a, &d) in acc.iter_mut().zip(&row.dist) {
                *a = (*a).min(c + d);
            }
            out.generated += row.reached;
        }
        out.exchanged += access.len();
        out.kept_local += local
            .nodes
            .iter()
            .enumerate()
            .filter(|&(lv, &v)| v != s && swept(lv) == Some(acc[v.index()]))
            .count();
        self.closed_walk(s, acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tc;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn edges(tuples: &[(u32, u32, u64)]) -> Vec<Edge> {
        tuples
            .iter()
            .map(|&(a, b, c)| Edge::new(n(a), n(b), c))
            .collect()
    }

    /// Path 0-1-2-3-4 split at node 2.
    fn path_split() -> Fragmentation {
        Fragmentation::new(
            5,
            vec![
                edges(&[(0, 1, 1), (1, 2, 1)]),
                edges(&[(2, 3, 1), (3, 4, 1)]),
            ],
            vec![vec![], vec![]],
        )
    }

    fn with_sources(sources: &[u32]) -> MaterializeConfig {
        MaterializeConfig {
            sources: Some(sources.iter().map(|&s| n(s)).collect()),
            ..Default::default()
        }
    }

    fn assert_matches_seminaive(
        frag: &Fragmentation,
        symmetric: bool,
        config: MaterializeConfig,
    ) -> MaterializeStats {
        let engine = MaterializeEngine::from_fragmentation(frag, symmetric, config);
        let (bulk, stats) = engine.materialize().unwrap();
        let (seq, _) = tc::seminaive_closure(
            &engine.partition().union_relation(),
            engine.config().sources.as_deref(),
        );
        assert_eq!(bulk.rows(), seq.rows());
        assert_eq!(stats.tc.result_tuples, seq.len());
        stats
    }

    #[test]
    fn split_path_matches_sequential_seminaive() {
        let stats = assert_matches_seminaive(&path_split(), true, MaterializeConfig::default());
        assert_eq!(stats.rounds, 2, "border rows, then the joined sources");
        assert_eq!((stats.network_sweeps, stats.fragment_sweeps), (1, 4));
        assert_eq!(stats.exchanged_tuples, 4, "every source reaches border 2");
        assert_eq!(stats.tc.delta_sizes.len(), stats.rounds);
        assert_eq!(stats.tc.delta_sizes.iter().sum::<usize>(), 25);
        // Each interior source reaches its own fragment's two other
        // nodes at the local cost.
        assert_eq!(stats.kept_local, 8);
        // Border 2's row scans all 8 arcs; each source's fragment sweep
        // scans the 3 arcs of its fragment's two interior nodes (border
        // 2 is settled, not expanded), and its fold offers 2's 5 reached
        // nodes.
        assert_eq!(stats.tc.tuples_generated, 8 + 4 * (3 + 5));
    }

    #[test]
    fn directed_relation_matches_sequential_seminaive() {
        assert_matches_seminaive(&path_split(), false, MaterializeConfig::default());
    }

    /// An interior source whose fragment-local costs lose to a detour
    /// through the neighbouring fragment: the fold must overwrite what
    /// the fragment sweep found, and `kept_local` must not count it.
    #[test]
    fn cross_fragment_detour_improves_a_local_path() {
        // Inside fragment 0 source 4 reaches border 0 at 1, border 1 at 9
        // and node 5 behind it at 10; through fragment 1 (0-2-1) border 1
        // costs 3 and node 5 costs 4.
        let frag = Fragmentation::new(
            6,
            vec![
                edges(&[(4, 0, 1), (4, 1, 9), (1, 5, 1)]),
                edges(&[(0, 2, 1), (2, 1, 1)]),
            ],
            vec![vec![], vec![]],
        );
        let stats = assert_matches_seminaive(&frag, true, MaterializeConfig::default());
        assert_eq!((stats.network_sweeps, stats.fragment_sweeps), (2, 3));
        assert_eq!(stats.kept_local, 4, "4 -> 0, 5 -> 1, 2 -> 0 and 2 -> 1");
        // Border 1 is dominated for source 4 (border 0 reaches it at 2,
        // the fragment at 9 - 1 = 8), border 0 for source 5; source 2
        // folds both.
        assert_eq!(stats.exchanged_tuples, 4);
        let engine =
            MaterializeEngine::from_fragmentation(&frag, true, MaterializeConfig::default());
        let (closure, _) = engine.materialize().unwrap();
        assert_eq!(closure.cost_of(n(4), n(1)), Some(3), "4-0-2-1 beats 4-1");
        assert_eq!(closure.cost_of(n(4), n(5)), Some(4));
        assert_eq!(closure.cost_of(n(5), n(4)), Some(4));
    }

    #[test]
    fn source_restriction_is_the_keyhole() {
        let stats = assert_matches_seminaive(&path_split(), true, with_sources(&[0]));
        assert!(stats.tc.result_tuples > 0);
        let engine = MaterializeEngine::from_fragmentation(&path_split(), true, with_sources(&[0]));
        let (closure, _) = engine.materialize().unwrap();
        assert!(closure.rows().iter().all(|t| t.src == n(0)));
    }

    /// A fragment is joined exactly when it has more requested interior
    /// sources than unrequested borders: at `k = extra` its sources
    /// sweep the union graph (one phase, no border row), at
    /// `k = extra + 1` the border row is swept and folded.
    #[test]
    fn a_fragment_is_joined_only_when_that_saves_sweeps() {
        let at_extra = assert_matches_seminaive(&path_split(), true, with_sources(&[0]));
        assert_eq!(
            (at_extra.network_sweeps, at_extra.fragment_sweeps),
            (1, 0),
            "k = 1, extra = 1: swept directly"
        );
        assert_eq!((at_extra.rounds, at_extra.exchanged_tuples), (1, 0));

        let above = assert_matches_seminaive(&path_split(), true, with_sources(&[0, 1]));
        assert_eq!(
            (above.network_sweeps, above.fragment_sweeps),
            (1, 2),
            "k = 2, extra = 1: joined through border 2"
        );
        assert_eq!((above.rounds, above.exchanged_tuples), (2, 2));

        // A requested border costs nothing extra: k = 1 > extra = 0.
        let with_border = assert_matches_seminaive(&path_split(), true, with_sources(&[0, 2]));
        assert_eq!(
            (with_border.network_sweeps, with_border.fragment_sweeps),
            (1, 1)
        );
    }

    /// Paths have length ≥ 1: `(s, s)` is the cheapest closed walk
    /// through `s`, which on a directed relation is found through the
    /// in-edges; a source with no out-edge yields nothing.
    #[test]
    fn self_tuples_are_closed_walks() {
        // A directed 3-cycle split over two fragments, a self-loop on 3,
        // a zero-cost edge 3 -> 4, and the sink 4.
        let frag = Fragmentation::new(
            5,
            vec![
                edges(&[(0, 1, 2), (1, 2, 3)]),
                edges(&[(2, 0, 4), (2, 3, 1), (3, 3, 7), (3, 4, 0)]),
            ],
            vec![vec![], vec![]],
        );
        for threads in [1, 2] {
            assert_matches_seminaive(&frag, false, MaterializeConfig::with_threads(threads));
        }
        let engine =
            MaterializeEngine::from_fragmentation(&frag, false, MaterializeConfig::default());
        let (closure, _) = engine.materialize().unwrap();
        for v in 0..3 {
            assert_eq!(closure.cost_of(n(v), n(v)), Some(9), "the 3-cycle");
        }
        assert_eq!(closure.cost_of(n(3), n(3)), Some(7), "the self-loop");
        assert_eq!(closure.cost_of(n(3), n(4)), Some(0), "the zero-cost edge");
        assert!(closure.rows().iter().all(|t| t.src != n(4)), "the sink");
        // The same relation expanded symmetrically: 3-4-3 costs 0.
        assert_matches_seminaive(&frag, true, MaterializeConfig::default());
        let engine =
            MaterializeEngine::from_fragmentation(&frag, true, MaterializeConfig::default());
        let (closure, _) = engine.materialize().unwrap();
        assert_eq!(closure.cost_of(n(3), n(3)), Some(0));
        assert_eq!(closure.cost_of(n(4), n(4)), Some(0));
    }

    /// `sources` is indexed, not hashed: duplicates, ids outside the
    /// graph and nodes in no fragment give what `seminaive_closure`
    /// gives — dedup, ignore, no tuples — and never a panic.
    #[test]
    fn odd_source_lists_match_seminaive() {
        // Node 5 is in no fragment; node 6 sits in fragment 1 by seed
        // only, with no edge.
        let frag = Fragmentation::new(
            7,
            vec![
                edges(&[(0, 1, 1), (1, 2, 1)]),
                edges(&[(2, 3, 1), (3, 4, 1)]),
            ],
            vec![vec![], vec![n(6)]],
        );
        for sources in [
            vec![1, 1, 3, 1],
            vec![0, 7, 1_000_000, u32::MAX],
            vec![5],
            vec![5, 6, 3, 4],
            vec![],
        ] {
            for symmetric in [true, false] {
                assert_matches_seminaive(&frag, symmetric, with_sources(&sources));
            }
        }
        let engine = MaterializeEngine::from_fragmentation(&frag, true, with_sources(&[]));
        let (closure, stats) = engine.materialize().unwrap();
        assert!(closure.is_empty());
        assert_eq!((stats.rounds, stats.network_sweeps), (0, 0));
        assert_matches_seminaive(&frag, true, MaterializeConfig::default());
    }

    #[test]
    fn single_fragment_needs_no_exchange() {
        let frag = Fragmentation::new(3, vec![edges(&[(0, 1, 1), (1, 2, 1)])], vec![vec![]]);
        let stats = assert_matches_seminaive(&frag, true, MaterializeConfig::default());
        assert_eq!(stats.exchanged_tuples, 0);
        assert_eq!(stats.rounds, 1);
        assert_eq!((stats.network_sweeps, stats.fragment_sweeps), (0, 3));
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let frag = Fragmentation::new(
            7,
            vec![
                edges(&[(0, 1, 2), (1, 2, 3)]),
                edges(&[(2, 3, 1), (3, 4, 4)]),
                edges(&[(4, 5, 2), (5, 6, 1), (6, 0, 5)]),
            ],
            vec![vec![], vec![], vec![]],
        );
        let single = assert_matches_seminaive(&frag, true, MaterializeConfig::with_threads(1));
        let pooled = assert_matches_seminaive(&frag, true, MaterializeConfig::with_threads(3));
        assert_eq!(single.threads, 1);
        assert_eq!(pooled.threads, 3);
        assert_eq!(pooled.busy.len(), 3, "busy time is per worker thread");
        assert_eq!(single.tc, pooled.tc, "the counters are the plan's");
    }

    #[test]
    fn empty_partition_is_an_empty_relation() {
        let frag = Fragmentation::new(0, vec![], vec![]);
        let engine =
            MaterializeEngine::from_fragmentation(&frag, true, MaterializeConfig::default());
        let (closure, stats) = engine.materialize().unwrap();
        assert!(closure.is_empty());
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn stats_display_is_a_one_liner() {
        let engine = MaterializeEngine::from_fragmentation(
            &path_split(),
            true,
            MaterializeConfig::default(),
        );
        let (_, stats) = engine.materialize().unwrap();
        let line = stats.to_string();
        assert!(line.contains("rounds"), "{line}");
        assert!(line.contains("1 + 4 sweeps"), "{line}");
        assert!(line.contains("exchanged"), "{line}");
        assert!(!line.contains('\n'));
        assert!(stats.balance_ratio() >= 1.0);
    }

    /// A worker panic mid-task must come back as a typed error with
    /// every thread joined (returning at all proves the scope join did
    /// not hang), and a fault-free run on a fresh engine over the same
    /// partition still gives the closure.
    #[test]
    fn pool_worker_panic_is_a_typed_error_with_clean_joins() {
        let plan = FaultPlan::new().panic_at(FaultPoint::BulkWorker { fragment: 0 }, 1);
        let engine = MaterializeEngine::from_fragmentation(
            &path_split(),
            true,
            MaterializeConfig {
                threads: 2,
                fault: Some(Arc::new(plan)),
                ..Default::default()
            },
        );
        assert_eq!(
            engine.materialize().unwrap_err(),
            MaterializeError::WorkerPanicked { fragment: 0 }
        );
        assert_matches_seminaive(&path_split(), true, MaterializeConfig::with_threads(2));
    }

    /// Inline mode gives the identical typed error — the isolation is
    /// mode-independent. `Fail` (silent death) behaves like a panic.
    #[test]
    fn inline_worker_fault_is_a_typed_error() {
        let plan = FaultPlan::new().fail_at(FaultPoint::BulkWorker { fragment: 1 }, 1);
        let engine = MaterializeEngine::from_fragmentation(
            &path_split(),
            true,
            MaterializeConfig {
                threads: 1,
                fault: Some(Arc::new(plan)),
                ..Default::default()
            },
        );
        let err = engine.materialize().unwrap_err();
        assert_eq!(err, MaterializeError::WorkerPanicked { fragment: 1 });
        assert!(err.to_string().contains("fragment 1"), "{err}");
        // The rule is one-shot: a retry on the same engine succeeds.
        let (closure, _) = engine.materialize().unwrap();
        assert!(!closure.is_empty());
    }

    /// The fault point fires in the unjoined branch too: once per
    /// fragment task, whatever the plan.
    #[test]
    fn directly_swept_fragments_fire_the_fault_point() {
        let plan = FaultPlan::new().fail_at(FaultPoint::BulkWorker { fragment: 0 }, 1);
        let engine = MaterializeEngine::from_fragmentation(
            &path_split(),
            true,
            MaterializeConfig {
                fault: Some(Arc::new(plan)),
                ..with_sources(&[0])
            },
        );
        assert_eq!(
            engine.materialize().unwrap_err(),
            MaterializeError::WorkerPanicked { fragment: 0 }
        );
    }
}
