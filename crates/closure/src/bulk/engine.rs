//! The materializer: the formula of [`super`] as two flat task lists,
//! each pulled off one atomic counter by scoped workers that own their
//! scratch (the caller is worker 0, so one thread spawns nothing).
//!
//! 1. **Epoch state**, only what the epoch lacks: the hub's rows, in
//!    blocks of skeleton sweeps, and per site whose exit sets no call
//!    filled the border-free rows of its requested sources, then its
//!    missing exit sets (`Site::fill_exits`).
//! 2. **Sources**, in per-fragment blocks (a border in the block of its
//!    first fragment): `r_s`, every destination through its exit set,
//!    the source's own fragment through its border-free row, and the
//!    closed walk `(s, s)` through the edges into `s`.
//!
//! A warm call has no first list. Rows are written in `(src, dst)` order
//! and concatenated, so the output does not depend on the thread count.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ds_fragment::FragmentId;
use ds_graph::{Cost, NodeId, ScratchDijkstra, INFINITE_COST};
use ds_relation::bulk::{MaterializeConfig, MaterializeError, MaterializeStats};
use ds_relation::{PathTuple, Relation};

use super::Hub;
use crate::snapshot::EngineSnapshot;

/// Sources (or hub rows) per task: small enough that the workers finish
/// together, large enough that pulling a task costs nothing.
const BLOCK: usize = 8;

/// One task of the epoch-state list.
enum Prep<'a> {
    /// Sweep the skeleton from each of these skeleton ids.
    HubRows(Range<usize>),
    /// Fill what one site lacks: the border-free rows of its requested
    /// sources, then every node's exit set.
    Site {
        fragment: FragmentId,
        sources: &'a [NodeId],
    },
}

/// What one epoch-state task produced.
enum Prepared {
    HubRows { costs: Vec<Cost>, time: Duration },
    Filled { sweeps: usize },
}

/// One block of a fragment's requested sources.
struct Sources<'a> {
    fragment: FragmentId,
    sources: &'a [NodeId],
}

/// What one source block produced: its rows in `(src, dst)` order and
/// its share of the counters.
#[derive(Default)]
struct Rows {
    tuples: Vec<PathTuple>,
    sweeps: usize,
    exchanged: usize,
    generated: usize,
    kept_local: usize,
}

/// What a source worker owns for the length of the call.
struct Worker {
    dijkstra: ScratchDijkstra,
    /// `r_s`, by skeleton id.
    r: Vec<Cost>,
    /// The row being built, by global node id.
    acc: Vec<Cost>,
    /// A border-free row swept for a fragment that keeps none.
    free: Vec<Cost>,
}

/// Every node's exit set over skeleton ids — a border's is itself at
/// cost 0 — gathered once per call from the sites' memos.
struct Exits {
    /// `entries[at[v]..at[v + 1]]` is node `v`'s set.
    at: Vec<usize>,
    entries: Vec<(u32, Cost)>,
}

/// See [`EngineSnapshot::materialize`].
pub(crate) fn materialize(
    snap: &EngineSnapshot,
    config: &MaterializeConfig,
) -> Result<(Relation<PathTuple>, MaterializeStats), MaterializeError> {
    let (graph, planner) = (snap.graph(), snap.planner());
    let mut stats = MaterializeStats {
        fragments: snap.site_count(),
        ..Default::default()
    };
    // Requested sources with an edge out — a path has one — per home
    // fragment.
    let mut requested = vec![config.sources.is_none(); graph.node_count()];
    for s in config.sources.iter().flatten() {
        if let Some(slot) = requested.get_mut(s.index()) {
            *slot = true;
        }
    }
    let mut homes: Vec<Vec<NodeId>> = vec![Vec::new(); snap.site_count()];
    for v in graph.nodes() {
        if requested[v.index()] && graph.out_degree(v) > 0 {
            homes[planner.fragments_of(v)[0]].push(v);
        }
    }
    let tasks: Vec<Sources> = (homes.iter().enumerate())
        .flat_map(|(fragment, list)| {
            (list.chunks(BLOCK)).map(move |sources| Sources { fragment, sources })
        })
        .collect();

    let mut rows = Vec::new();
    if !tasks.is_empty() {
        prepare(snap, config, &homes, &mut stats)?;
        let exits = exits(snap);
        let done = run_tasks(
            config.workers(),
            &tasks,
            |task| task.fragment,
            || Worker {
                dijkstra: ScratchDijkstra::new(),
                r: vec![INFINITE_COST; snap.complementary().border_count()],
                acc: vec![INFINITE_COST; graph.node_count()],
                free: Vec::new(),
            },
            |task, worker| source_rows(snap, config, &exits, task, worker),
            &mut stats.busy,
        )?;
        // Every source's row is one run of one task's output: order the
        // runs by source and concatenate.
        let mut runs: Vec<&[PathTuple]> = (done.iter())
            .flat_map(|out| out.tuples.chunk_by(|a, b| a.src == b.src))
            .collect();
        runs.sort_unstable_by_key(|run| run[0].src);
        rows.reserve_exact(runs.iter().map(|run| run.len()).sum());
        for run in runs {
            rows.extend_from_slice(run);
        }
        for out in &done {
            stats.fragment_sweeps += out.sweeps;
            stats.exchanged_tuples += out.exchanged;
            stats.kept_local += out.kept_local;
            stats.tc.tuples_generated += out.generated;
        }
        stats.rounds = 1;
        stats.tc.delta_sizes.push(rows.len());
    }
    stats.threads = stats.busy.len().max(1);
    stats.tc.iterations = stats.rounds;
    stats.tc.result_tuples = rows.len();
    if let Some(obs) = &config.obs {
        stats.mirror_into(obs.registry());
    }
    Ok((Relation::from_rows("tc", rows), stats))
}

/// Build what the epoch lacks: the hub, and at every site whose exit
/// sets no call filled before the border-free rows of its requested
/// sources — each row sweep fills its source's access set too — then the
/// exit sets still missing.
fn prepare(
    snap: &EngineSnapshot,
    config: &MaterializeConfig,
    homes: &[Vec<NodeId>],
    stats: &mut MaterializeStats,
) -> Result<(), MaterializeError> {
    let comp = snap.complementary();
    let nb = comp.border_count();
    let build_hub = snap.hub_handle().is_none();
    let mut sites: Vec<FragmentId> = (0..snap.site_count())
        .filter(|&f| !snap.site_handle(f).exits_filled())
        .collect();
    // A site is one task of many sweeps, a hub block a few: the largest
    // go first, so the workers finish together.
    sites.sort_by_key(|&f| std::cmp::Reverse(snap.site_handle(f).nodes().len()));
    let mut tasks: Vec<Prep> = (sites.into_iter())
        .map(|fragment| Prep::Site {
            fragment,
            sources: &homes[fragment],
        })
        .collect();
    if build_hub {
        let blocks = (0..nb).step_by(BLOCK);
        tasks.extend(blocks.map(|i| Prep::HubRows(i..nb.min(i + BLOCK))));
    }
    if tasks.is_empty() {
        return Ok(());
    }
    let skeleton = build_hub.then(|| comp.tight_skeleton());
    let fragment_of = |task: &Prep| match *task {
        Prep::HubRows(ref ids) => snap.planner().fragments_of(comp.borders()[ids.start])[0],
        Prep::Site { fragment, .. } => fragment,
    };
    let done = run_tasks(
        config.workers(),
        &tasks,
        fragment_of,
        ScratchDijkstra::new,
        |task, scratch| match *task {
            Prep::HubRows(ref ids) => {
                let skeleton = skeleton.as_ref().expect("hub rows only for a hub to build");
                let start = Instant::now();
                let mut costs = Vec::with_capacity(ids.len() * nb);
                for s in ids.clone() {
                    scratch.sweep(skeleton, &[(NodeId::from_index(s), 0)]);
                    let reached = |t| scratch.cost(NodeId::from_index(t));
                    costs.extend((0..nb).map(|t| reached(t).unwrap_or(INFINITE_COST)));
                }
                let time = start.elapsed();
                Some(Prepared::HubRows { costs, time })
            }
            Prep::Site { fragment, sources } => {
                if config.fault_fires(fragment) {
                    return None;
                }
                let site = snap.site_handle(fragment);
                let swept = scratch.stats().sweeps;
                for &s in sources {
                    let local = site.local_id(s).expect("a source of its home fragment");
                    if !site.is_border(local) {
                        site.fill_border_free_row(local, scratch);
                    }
                }
                site.fill_exits(scratch);
                let sweeps = (scratch.stats().sweeps - swept) as usize;
                Some(Prepared::Filled { sweeps })
            }
        },
        &mut stats.busy,
    )?;
    // The hub's blocks come last, in skeleton-id order.
    let mut costs = Vec::with_capacity(if build_hub { nb * nb } else { 0 });
    for out in done {
        match out {
            Prepared::HubRows { costs: rows, time } => {
                costs.extend(rows);
                stats.hub_time += time;
            }
            Prepared::Filled { sweeps } => stats.fragment_sweeps += sweeps,
        }
    }
    if build_hub {
        stats.hub_sweeps = nb;
        // A concurrent call may have built the same hub first.
        stats.hub_built = snap.set_hub(Arc::new(Hub::from_rows(nb, costs)));
    }
    Ok(())
}

/// Every node's exit set, gathered from the filled sites.
fn exits(snap: &EngineSnapshot) -> Exits {
    let (comp, planner) = (snap.complementary(), snap.planner());
    let n = snap.graph().node_count();
    let mut exits = Exits {
        at: Vec::with_capacity(n + 1),
        entries: Vec::new(),
    };
    exits.at.push(0);
    for v in snap.graph().nodes() {
        match *planner.fragments_of(v) {
            [] => {}
            [f] => {
                let site = snap.site_handle(f);
                let local = site.local_id(v).expect("a node of its fragment");
                let set = site.exit_set(local).expect("filled");
                let ids = comp.skeleton_ids(f);
                let set = set.iter().map(|&(b, cost)| (ids[b as usize] as u32, cost));
                exits.entries.extend(set);
            }
            _ => {
                let id = comp.skeleton_id(v).expect("a border");
                exits.entries.push((id as u32, 0));
            }
        }
        exits.at.push(exits.entries.len());
    }
    exits
}

/// The rows of one block of sources; `None` when an injected fault
/// kills the task.
fn source_rows(
    snap: &EngineSnapshot,
    config: &MaterializeConfig,
    exits: &Exits,
    task: &Sources,
    worker: &mut Worker,
) -> Option<Rows> {
    if config.fault_fires(task.fragment) {
        return None;
    }
    let (comp, planner) = (snap.complementary(), snap.planner());
    let hub = snap.hub_handle().expect("built by the first list");
    let site = snap.site_handle(task.fragment);
    let Worker {
        dijkstra,
        r,
        acc,
        free,
    } = worker;
    let swept = dijkstra.stats().sweeps;
    let mut out = Rows::default();
    for &s in task.sources {
        let local = site.local_id(s).expect("a source of its home fragment");
        let border = site.is_border(local);

        // r_s = access(s) ⊗ H; a border takes its own hub row.
        let r: &[Cost] = if border {
            hub.row(comp.skeleton_id(s).expect("a border"))
        } else {
            let (access, _) = site.access(s, true, dijkstra);
            let ids = comp.skeleton_ids(task.fragment);
            r.fill(INFINITE_COST);
            for &(b, reach) in access {
                for (best, &h) in r.iter_mut().zip(hub.row(ids[b as usize])) {
                    *best = (*best).min(reach + h);
                }
            }
            out.exchanged += access.len();
            out.generated += access.len() * r.len();
            r.as_slice()
        };

        // Every destination leaves its last border through its exit set.
        for (d, best) in acc.iter_mut().enumerate() {
            let set = &exits.entries[exits.at[d]..exits.at[d + 1]];
            *best = (set.iter())
                .map(|&(b, leave)| r[b as usize] + leave)
                .min()
                .unwrap_or(INFINITE_COST);
        }
        out.exchanged += exits.entries.len();
        out.generated += exits.entries.len();

        // The source's own fragment, along paths that touch no border.
        if !border {
            let row = site.border_free_row_of(local, dijkstra, free);
            for (&d, &cost) in site.nodes().iter().zip(row) {
                let best = &mut acc[d.index()];
                if cost <= *best && cost < INFINITE_COST {
                    *best = cost;
                    out.kept_local += usize::from(d != s);
                }
            }
            out.generated += row.len();
        }

        // Paths have length ≥ 1: `(s, s)` is the cheapest closed walk,
        // over the edges into `s` (`acc[s]` is 0 here).
        let mut cycle = INFINITE_COST;
        for &f in planner.fragments_of(s) {
            let site = snap.site_handle(f);
            let at = site.local_id(s).expect("a node of its fragment");
            for (x, cost) in site.in_edges(at) {
                cycle = cycle.min(acc[x.index()] + cost);
            }
        }
        acc[s.index()] = cycle;

        out.tuples.reserve(acc.len());
        for (d, &cost) in acc.iter().enumerate() {
            if cost < INFINITE_COST {
                out.tuples
                    .push(PathTuple::new(s, NodeId::from_index(d), cost));
            }
        }
    }
    out.sweeps = (dijkstra.stats().sweeps - swept) as usize;
    Some(out)
}

/// Run one flat task list on up to `threads` scoped workers pulling
/// indexes off one counter, each with the state `init` gives it, until
/// the list runs out or a task fails — returns `None` (its fault fired)
/// or panics — which stops the counter; the run then fails with the
/// lowest failed task's fragment once every worker has joined. Outputs
/// come back in task order; `busy[i]` grows by worker `i`'s time.
fn run_tasks<T: Sync, S, O: Send>(
    threads: usize,
    tasks: &[T],
    fragment_of: impl Fn(&T) -> FragmentId + Sync,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&T, &mut S) -> Option<O> + Sync,
    busy: &mut Vec<Duration>,
) -> Result<Vec<O>, MaterializeError> {
    let workers = threads.clamp(1, tasks.len().max(1));
    let next = AtomicUsize::new(0);
    let failed = AtomicUsize::new(usize::MAX);
    // Workers meet at a gate before they start: the scheduler puts a
    // thread woken from a wait on an idle core at once, where a newly
    // created one can sit behind its sibling until the next balancing
    // tick — longer than a whole list.
    let gate = Barrier::new(workers);
    let worker = || {
        gate.wait();
        let start = Instant::now();
        let mut state = init();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(task) = tasks.get(i) else { break };
            match catch_unwind(AssertUnwindSafe(|| run(task, &mut state))) {
                Ok(Some(out)) => done.push((i, out)),
                Ok(None) | Err(_) => {
                    next.store(tasks.len(), Ordering::Relaxed);
                    failed.fetch_min(fragment_of(task), Ordering::Relaxed);
                    break;
                }
            }
        }
        (done, start.elapsed())
    };
    let results = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        let mut results = vec![worker()];
        results.extend(
            (spawned.into_iter())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use ds_fault::{FaultPlan, FaultPoint};
    use ds_fragment::Fragmentation;
    use ds_graph::Edge;
    use ds_relation::bulk::FragmentPartition;
    use ds_relation::tc;

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

    fn snapshot(frag: &Fragmentation, symmetric: bool) -> EngineSnapshot {
        EngineSnapshot::build(frag.clone(), symmetric, EngineConfig::default())
    }

    /// Materialize on a fresh snapshot, check the relation against
    /// semi-naive closure of the fragments' union, and return the stats.
    fn assert_matches_seminaive(
        frag: &Fragmentation,
        symmetric: bool,
        config: MaterializeConfig,
    ) -> MaterializeStats {
        let (bulk, stats) = snapshot(frag, symmetric).materialize(&config).unwrap();
        let union = FragmentPartition::new(frag, symmetric).union_relation();
        let (seq, _) = tc::seminaive_closure(&union, config.sources.as_deref());
        assert_eq!(bulk.rows(), seq.rows());
        assert_eq!(stats.tc.result_tuples, seq.len());
        stats
    }

    #[test]
    fn split_path_matches_sequential_seminaive() {
        let stats = assert_matches_seminaive(&path_split(), true, MaterializeConfig::default());
        assert_eq!(stats.rounds, 1, "no exchange round");
        assert!(stats.hub_built);
        // One skeleton sweep for the one border, and a border-free row
        // per interior source, which fills its exit set too: no fill
        // sweep is left to run.
        assert_eq!(stats.hub_sweeps, 1);
        assert_eq!((stats.network_sweeps, stats.fragment_sweeps), (0, 4));
        // Every node has one exit entry (border 2, or 2 itself), folded
        // for each of the 5 sources; each interior source folds its one
        // access entry besides.
        assert_eq!(stats.exchanged_tuples, 5 * 5 + 4);
        assert_eq!(stats.tc.delta_sizes, [25]);
        // Each interior source reaches its own fragment's two other
        // nodes at the local cost.
        assert_eq!(stats.kept_local, 8);
        // Per interior source: 1 x 1 hub entries, 5 exit entries and a
        // row of 3; border 2 folds the 5 exit entries only.
        assert_eq!(stats.tc.tuples_generated, 4 * (1 + 5 + 3) + 5);
    }

    #[test]
    fn directed_relation_matches_sequential_seminaive() {
        let stats = assert_matches_seminaive(&path_split(), false, MaterializeConfig::default());
        // On a one-way network a row gives its source's access set, not
        // its exit set: a row for each of 0, 1 and 3 (the sink 4 is no
        // source), and per fragment one fill sweep from border 2.
        assert_eq!((stats.hub_sweeps, stats.network_sweeps), (1, 0));
        assert_eq!(stats.fragment_sweeps, 3 + 2);
    }

    /// An interior source whose fragment-local costs lose to a detour
    /// through the neighbouring fragment: the hub must beat what the
    /// border-free row found, and `kept_local` must not count it.
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
        assert_eq!((stats.hub_sweeps, stats.fragment_sweeps), (2, 3));
        assert_eq!(stats.kept_local, 4, "4 -> 0, 5 -> 1, 2 -> 0 and 2 -> 1");
        // Border 1 is dominated for source 4 (border 0 reaches it at 2,
        // the fragment at 9 - 1 = 8), border 0 for source 5; source 2
        // folds both. Every source folds the 6 exit entries: one for
        // each of 4, 5 and the borders, two for 2.
        assert_eq!(stats.exchanged_tuples, 4 + 5 * 6);
        let snap = snapshot(&frag, true);
        let (closure, _) = snap.materialize(&MaterializeConfig::default()).unwrap();
        assert_eq!(closure.cost_of(n(4), n(1)), Some(3), "4-0-2-1 beats 4-1");
        assert_eq!(closure.cost_of(n(4), n(5)), Some(4));
        assert_eq!(closure.cost_of(n(5), n(4)), Some(4));
    }

    #[test]
    fn source_restriction_is_the_keyhole() {
        let stats = assert_matches_seminaive(&path_split(), true, with_sources(&[0]));
        assert!(stats.tc.result_tuples > 0);
        let snap = snapshot(&path_split(), true);
        let (closure, _) = snap.materialize(&with_sources(&[0])).unwrap();
        assert!(closure.rows().iter().all(|t| t.src == n(0)));
    }

    /// The first call of an epoch builds the hub and fills every site's
    /// exit sets; the second sweeps nothing and reads the same hub. A
    /// keyhole call after a full one adds nothing either.
    #[test]
    fn a_warm_call_sweeps_nothing() {
        let snap = snapshot(&path_split(), true);
        assert!(snap.hub_handle().is_none());
        assert_eq!(snap.memory_bytes().hub, 0);
        let (cold, stats) = snap.materialize(&MaterializeConfig::default()).unwrap();
        assert!(stats.hub_built);
        let hub = Arc::clone(snap.hub_handle().expect("built by the first call"));
        assert_eq!(hub.border_count(), 1);
        assert_eq!(snap.memory_bytes().hub, hub.memory_bytes());
        for config in [MaterializeConfig::with_threads(2), with_sources(&[3, 2])] {
            let (warm, stats) = snap.materialize(&config).unwrap();
            assert!(!stats.hub_built);
            let swept = (
                stats.hub_sweeps,
                stats.network_sweeps,
                stats.fragment_sweeps,
            );
            assert_eq!(swept, (0, 0, 0), "{stats}");
            assert_eq!(stats.hub_time, Duration::ZERO);
            let expected = cold
                .rows()
                .iter()
                .filter(|t| config.sources.as_ref().is_none_or(|s| s.contains(&t.src)));
            assert_eq!(warm.rows(), expected.copied().collect::<Vec<_>>());
            assert!(Arc::ptr_eq(&hub, snap.hub_handle().unwrap()));
        }
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
        let full = MaterializeConfig::default();
        let (closure, _) = snapshot(&frag, false).materialize(&full).unwrap();
        for v in 0..3 {
            assert_eq!(closure.cost_of(n(v), n(v)), Some(9), "the 3-cycle");
        }
        assert_eq!(closure.cost_of(n(3), n(3)), Some(7), "the self-loop");
        assert_eq!(closure.cost_of(n(3), n(4)), Some(0), "the zero-cost edge");
        assert!(closure.rows().iter().all(|t| t.src != n(4)), "the sink");
        // The same relation expanded symmetrically: 3-4-3 costs 0.
        assert_matches_seminaive(&frag, true, MaterializeConfig::default());
        let (closure, _) = snapshot(&frag, true).materialize(&full).unwrap();
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
        let snap = snapshot(&frag, true);
        let (closure, stats) = snap.materialize(&with_sources(&[])).unwrap();
        assert!(closure.is_empty());
        assert_eq!((stats.rounds, stats.network_sweeps), (0, 0));
        assert!(snap.hub_handle().is_none(), "an empty run builds nothing");
        assert_matches_seminaive(&frag, true, MaterializeConfig::default());
    }

    #[test]
    fn single_fragment_needs_no_exchange() {
        let frag = Fragmentation::new(3, vec![edges(&[(0, 1, 1), (1, 2, 1)])], vec![vec![]]);
        let stats = assert_matches_seminaive(&frag, true, MaterializeConfig::default());
        assert_eq!(stats.exchanged_tuples, 0);
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.hub_sweeps, 0, "no border, an empty hub");
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
        assert_eq!(single.tc, pooled.tc, "the counters are the formula's");
        assert_eq!(single.fragment_sweeps, pooled.fragment_sweeps);
    }

    #[test]
    fn empty_partition_is_an_empty_relation() {
        let frag = Fragmentation::new(0, vec![], vec![]);
        let (closure, stats) = snapshot(&frag, true)
            .materialize(&MaterializeConfig::default())
            .unwrap();
        assert!(closure.is_empty());
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn stats_display_is_a_one_liner() {
        let snap = snapshot(&path_split(), true);
        let (_, stats) = snap.materialize(&MaterializeConfig::default()).unwrap();
        let line = stats.to_string();
        assert!(line.contains("rounds"), "{line}");
        assert!(line.contains("hub built (1 skeleton sweeps"), "{line}");
        assert!(line.contains("0 + 4 sweeps"), "{line}");
        assert!(line.contains("exchanged"), "{line}");
        assert!(!line.contains('\n'));
        assert!(stats.balance_ratio() >= 1.0);
        let (_, warm) = snap.materialize(&MaterializeConfig::default()).unwrap();
        assert!(warm.to_string().contains("hub kept (0 skeleton sweeps"));
    }

    /// A worker panic mid-task must come back as a typed error with
    /// every thread joined (returning at all proves the scope join did
    /// not hang), and a retry on the same snapshot gives the closure.
    #[test]
    fn pool_worker_panic_is_a_typed_error_with_clean_joins() {
        let plan = FaultPlan::new().panic_at(FaultPoint::BulkWorker { fragment: 0 }, 1);
        let armed = MaterializeConfig {
            threads: 2,
            fault: Some(Arc::new(plan)),
            ..Default::default()
        };
        let snap = snapshot(&path_split(), true);
        assert_eq!(
            snap.materialize(&armed).unwrap_err(),
            MaterializeError::WorkerPanicked { fragment: 0 }
        );
        let (retried, _) = snap.materialize(&armed).unwrap();
        let (fresh, _) = (snapshot(&path_split(), true))
            .materialize(&MaterializeConfig::with_threads(2))
            .unwrap();
        assert_eq!(retried.rows(), fresh.rows());
        assert_matches_seminaive(&path_split(), true, MaterializeConfig::with_threads(2));
    }

    /// Inline mode gives the identical typed error — the isolation is
    /// mode-independent. `Fail` (silent death) behaves like a panic.
    #[test]
    fn inline_worker_fault_is_a_typed_error() {
        let plan = FaultPlan::new().fail_at(FaultPoint::BulkWorker { fragment: 1 }, 1);
        let config = MaterializeConfig {
            threads: 1,
            fault: Some(Arc::new(plan)),
            ..Default::default()
        };
        let snap = snapshot(&path_split(), true);
        let err = snap.materialize(&config).unwrap_err();
        assert_eq!(err, MaterializeError::WorkerPanicked { fragment: 1 });
        assert!(err.to_string().contains("fragment 1"), "{err}");
        // The rule is one-shot: a retry on the same snapshot succeeds.
        let (closure, _) = snap.materialize(&config).unwrap();
        assert!(!closure.is_empty());
    }

    /// The fault point fires on a warm call too: once per source task,
    /// whatever the epoch already holds.
    #[test]
    fn a_warm_call_fires_the_fault_point() {
        let snap = snapshot(&path_split(), true);
        snap.materialize(&MaterializeConfig::default()).unwrap();
        let plan = FaultPlan::new().fail_at(FaultPoint::BulkWorker { fragment: 0 }, 1);
        let config = MaterializeConfig {
            fault: Some(Arc::new(plan)),
            ..with_sources(&[0])
        };
        assert_eq!(
            snap.materialize(&config).unwrap_err(),
            MaterializeError::WorkerPanicked { fragment: 0 }
        );
    }
}
