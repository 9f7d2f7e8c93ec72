//! The materializer: the formula of [`super`] as flat task lists,
//! pulled off one queue by scoped workers that own their scratch. The
//! caller is worker 0 and starts at once; a spawned worker takes what is
//! left when it starts, so no worker waits for another.
//!
//! 1. **Epoch state**, only what the epoch lacks: per site whose exit
//!    sets no call filled, or that lacks a requested source's access set,
//!    the border-free rows of its requested sources, then its missing
//!    exit sets (`Site::fill_exits`). The hub is never among them: every
//!    epoch holds it exact ([`crate::ComplementaryInfo::hub`]).
//! 2. **Border rows**, only the ones the sources read and the epoch
//!    lacks, in blocks of skeleton ids (access and exit entries name
//!    their border by it): each folds its hub row into
//!    every node's exit set, gathered once for the list, on 32-bit words
//!    (see [`super`]). A call publishes them when the whole list ran.
//! 3. **Sources**, in blocks of node ids, each at its home site: its
//!    access set folded with the border rows (a border copies its own)
//!    into a row of words, the source's own fragment through its
//!    border-free row, and the closed walk `(s, s)` through the edges
//!    into `s`, which may cost more than a word holds and stays a
//!    [`Cost`]; the row widens once, into its tuples. A block writes its
//!    rows in `(src, dst)` order into its own slice of the one output
//!    vector (`node_count` slots per source); after the join one move per
//!    block closes the gaps.
//!
//! A warm call has neither of the first two lists, and no output depends
//! on the threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use ds_fragment::FragmentId;
use ds_graph::{Cost, NodeId, ScratchDijkstra, INFINITE_COST};
use ds_relation::bulk::{MaterializeConfig, MaterializeError, MaterializeStats};
use ds_relation::{PathTuple, Relation};

use super::{narrow, widen, Word, WORD_INF};
use crate::snapshot::EngineSnapshot;

/// Sources (or border rows) per task: small enough that the
/// workers finish together, large enough that pulling a task costs
/// nothing.
const BLOCK: usize = 8;

/// One task of the epoch-state lists.
enum Prep<'a> {
    /// Fill what one site lacks: the border-free rows and access sets of
    /// the requested sources it is home to, then every node's exit set.
    Site(FragmentId),
    /// Fold the hub into the exit sets for each of these skeleton ids.
    BorderRows(&'a [usize]),
}

/// What one epoch-state task produced.
enum Prepared<'a> {
    Filled {
        sweeps: usize,
    },
    /// The rows of `ids`, each folded over `entries` exit entries.
    BorderRows {
        ids: &'a [usize],
        rows: Vec<Box<[Word]>>,
        entries: usize,
    },
}

/// What one source block wrote — its first `rows` slots — and its share
/// of the counters.
#[derive(Default)]
struct Rows {
    rows: usize,
    sweeps: usize,
    exchanged: usize,
    generated: usize,
    kept_local: usize,
}

/// What a source worker owns for the length of the call.
struct Worker {
    dijkstra: ScratchDijkstra,
    /// The row being built, by global node id: at or above the word's
    /// infinity where no path was found.
    acc: Vec<Word>,
    /// A border-free row swept for a fragment that keeps none.
    free: Vec<Cost>,
}

/// Every node's exit set over skeleton ids — a border's is itself at
/// cost 0 — gathered from the sites' memos by a call that fills border
/// rows.
struct Exits {
    /// `entries[at[v]..at[v + 1]]` is node `v`'s set.
    at: Vec<usize>,
    entries: Vec<(u32, Word)>,
}

/// See [`EngineSnapshot::materialize`].
pub(crate) fn materialize(
    snap: &EngineSnapshot,
    config: &MaterializeConfig,
) -> Result<(Relation<PathTuple>, MaterializeStats), MaterializeError> {
    let (graph, n) = (snap.graph(), snap.graph().node_count());
    let mut stats = MaterializeStats {
        fragments: snap.site_count(),
        ..Default::default()
    };
    // Requested sources with an edge out — a path has one — in id order.
    let mut requested = vec![config.sources.is_none(); n];
    for s in config.sources.iter().flatten() {
        if let Some(slot) = requested.get_mut(s.index()) {
            *slot = true;
        }
    }
    let sources: Vec<NodeId> = (graph.nodes())
        .filter(|&v| requested[v.index()] && graph.out_degree(v) > 0)
        .collect();

    let mut rows = Vec::new();
    if !sources.is_empty() {
        prepare(snap, config, &sources, &mut stats)?;
        // A source has at most `n` rows: a task owns `n` slots per source.
        rows = vec![PathTuple::new(NodeId(0), NodeId(0), 0); sources.len() * n];
        let tasks: Vec<_> = (sources.chunks(BLOCK))
            .zip(rows.chunks_mut(BLOCK * n))
            .collect();
        let done = run_tasks(
            config.workers(),
            tasks,
            || Worker {
                dijkstra: ScratchDijkstra::new(),
                acc: vec![WORD_INF; n],
                free: Vec::new(),
            },
            |(sources, out), worker, at| source_rows(snap, config, sources, out, worker, at),
            &mut stats,
        )?;
        // Move every task's rows up behind the previous task's.
        let mut len = 0;
        for (i, out) in done.iter().enumerate() {
            let start = i * BLOCK * n;
            rows.copy_within(start..start + out.rows, len);
            len += out.rows;
            stats.fragment_sweeps += out.sweeps;
            stats.exchanged_tuples += out.exchanged;
            stats.kept_local += out.kept_local;
            stats.tc.tuples_generated += out.generated;
        }
        rows.truncate(len);
        // At most half empty, the buffer keeps its slack, as a vector grown
        // by pushes may: shrunk, it would leave a hole a little smaller than
        // the next call's buffer, which the allocator cannot reuse.
        if rows.capacity() > 2 * len {
            rows.shrink_to_fit();
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

/// Build what the epoch lacks for `sources`. First, at every site whose
/// exit sets no call filled before, or that lacks a source's access set,
/// the border-free rows of its
/// requested sources — each row sweep fills its source's access set too
/// — then the sets still missing. Then the border rows the sources read
/// that no call filled: the borders in their access sets and the border
/// sources themselves. A warm call reads each source's access set once
/// and runs no list.
fn prepare(
    snap: &EngineSnapshot,
    config: &MaterializeConfig,
    sources: &[NodeId],
    stats: &mut MaterializeStats,
) -> Result<(), MaterializeError> {
    let (comp, planner, hub) = (snap.complementary(), snap.planner(), snap.hub_handle());
    let nb = comp.border_count();
    let home = |s: NodeId| planner.fragments_of(s)[0];
    // Mark the border rows `s` reads, by skeleton id: its own, or those
    // of the borders in its access set — `false` when that is unfilled.
    let note = |s: NodeId, read: &mut [bool]| {
        let site = snap.site_handle(home(s));
        let local = site.local_id(s).expect("a source of its home fragment");
        if site.is_border(local) {
            read[comp.skeleton_id(s).expect("a border")] = true;
            return true;
        }
        let Some(access) = site.access_set(local) else {
            return false;
        };
        for &(b, _) in access {
            read[b as usize] = true;
        }
        true
    };
    let mut read = vec![false; nb];
    let mut lacking: Vec<bool> = (0..snap.site_count())
        .map(|f| !snap.site_handle(f).exits_filled())
        .collect();
    for &s in sources {
        if !note(s, &mut read) {
            lacking[home(s)] = true;
        }
    }
    let mut sites: Vec<FragmentId> = (0..lacking.len()).filter(|&f| lacking[f]).collect();
    // The largest tasks go first, so the workers finish together.
    sites.sort_by_key(|&f| std::cmp::Reverse(snap.site_handle(f).nodes().len()));
    let tasks: Vec<Prep> = sites.into_iter().map(Prep::Site).collect();
    // Gathered once the first list ran, for the second.
    let exits: OnceLock<Exits> = OnceLock::new();
    let run = |task, scratch: &mut ScratchDijkstra, at: &mut FragmentId| match task {
        Prep::Site(fragment) => {
            *at = fragment;
            if config.fault_fires(fragment) {
                return None;
            }
            let site = snap.site_handle(fragment);
            let unfilled = !site.exits_filled();
            let swept = scratch.stats().sweeps;
            let mine = (sources.iter())
                .filter(|&&s| home(s) == fragment)
                .map(|&s| (s, site.local_id(s).expect("a source of its home fragment")))
                .filter(|&(_, local)| !site.is_border(local));
            for (_, local) in mine.clone() {
                if unfilled || site.access_set(local).is_none() {
                    site.fill_border_free_row(hub, local, scratch);
                }
            }
            site.fill_exits(hub, scratch);
            // What no row sweep and no exit set filled: the access sets
            // of a one-way site, or of one that keeps no rows.
            for (s, _) in mine {
                site.access(hub, s, true, scratch);
            }
            let sweeps = (scratch.stats().sweeps - swept) as usize;
            Some(Prepared::Filled { sweeps })
        }
        Prep::BorderRows(ids) => {
            let exits = exits.get().expect("gathered before the border rows");
            let mut rows = Vec::with_capacity(ids.len());
            for (i, &b) in ids.iter().enumerate() {
                *at = home(comp.borders()[b]);
                let first = ids[..i].iter().all(|&p| home(comp.borders()[p]) != *at);
                if first && config.fault_fires(*at) {
                    return None;
                }
                let h = hub.words(b);
                let row = exits.at.windows(2).map(|w| {
                    let set = &exits.entries[w[0]..w[1]];
                    (set.iter()).fold(WORD_INF, |best, &(b, leave)| {
                        best.min(h[b as usize] + leave)
                    })
                });
                rows.push(row.collect());
            }
            let entries = exits.entries.len();
            Some(Prepared::BorderRows { ids, rows, entries })
        }
    };

    if !tasks.is_empty() {
        let done = run_tasks(config.workers(), tasks, ScratchDijkstra::new, run, stats)?;
        absorb(snap, done, stats);
        for &s in sources {
            let filled = note(s, &mut read);
            assert!(filled, "the first list fills every source's access set");
        }
    }

    let kept = snap.border_rows();
    let missing: Vec<usize> = (0..nb)
        .filter(|&b| read[b] && kept.row(b).is_none())
        .collect();
    if missing.is_empty() {
        return Ok(());
    }
    let _ = exits.set(gather_exits(snap));
    let tasks = missing.chunks(BLOCK).map(Prep::BorderRows).collect();
    // Published once every block ran: a failed list publishes none.
    let done = run_tasks(config.workers(), tasks, ScratchDijkstra::new, run, stats)?;
    absorb(snap, done, stats);
    Ok(())
}

/// Count what an epoch-state list did and publish its border rows.
fn absorb(snap: &EngineSnapshot, done: Vec<Prepared>, stats: &mut MaterializeStats) {
    for out in done {
        match out {
            Prepared::Filled { sweeps } => stats.fragment_sweeps += sweeps,
            Prepared::BorderRows { ids, rows, entries } => {
                for (&b, row) in ids.iter().zip(rows) {
                    stats.exchanged_tuples += entries;
                    stats.tc.tuples_generated += entries;
                    // A concurrent call may have filled it first.
                    stats.border_rows += usize::from(snap.border_rows().set(b, row));
                }
            }
        }
    }
}

/// Every node's exit set, gathered from the filled sites.
fn gather_exits(snap: &EngineSnapshot) -> Exits {
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
                exits
                    .entries
                    .extend(set.iter().map(|&(b, cost)| (b, narrow(cost))));
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

/// The rows of one block of sources, written compactly from the start of
/// `out`; `None` when an injected fault kills the task. The fault point
/// fires once per fragment the block touches, at its first source there,
/// and `at` names the fragment of the source being worked on.
fn source_rows(
    snap: &EngineSnapshot,
    config: &MaterializeConfig,
    sources: &[NodeId],
    out: &mut [PathTuple],
    worker: &mut Worker,
    at: &mut FragmentId,
) -> Option<Rows> {
    let (comp, planner, kept) = (snap.complementary(), snap.planner(), snap.border_rows());
    let home = |s: NodeId| planner.fragments_of(s)[0];
    let Worker {
        dijkstra,
        acc,
        free,
    } = worker;
    let n = acc.len();
    let row_of = |b: usize| kept.words(b).expect("filled by the second list");
    let swept = dijkstra.stats().sweeps;
    let mut done = Rows::default();
    for (i, &s) in sources.iter().enumerate() {
        *at = home(s);
        if sources[..i].iter().all(|&p| home(p) != *at) && config.fault_fires(*at) {
            return None;
        }
        let site = snap.site_handle(*at);
        let local = site.local_id(s).expect("a source of its home fragment");
        let border = site.is_border(local);

        // access(s) ⊗ R: a border takes its own row.
        if border {
            acc.copy_from_slice(row_of(comp.skeleton_id(s).expect("a border")));
            done.exchanged += 1;
            done.generated += n;
        } else {
            let access = site.access_set(local).expect("filled by the first list");
            let mut folded = access
                .iter()
                .map(|&(b, reach)| (row_of(b as usize), narrow(reach)));
            match folded.next() {
                Some((row, reach)) => {
                    for (best, &cost) in acc.iter_mut().zip(row) {
                        *best = reach + cost;
                    }
                }
                None => acc.fill(WORD_INF),
            }
            for (row, reach) in folded {
                for (best, &cost) in acc.iter_mut().zip(row) {
                    *best = (*best).min(reach + cost);
                }
            }
            done.exchanged += access.len();
            done.generated += access.len() * n;
        }

        // The source's own fragment, along paths that touch no border.
        if !border {
            let row = site.border_free_row_of(snap.hub_handle(), local, dijkstra, free);
            for (&d, &cost) in site.nodes().iter().zip(row) {
                let best = &mut acc[d.index()];
                if cost <= Cost::from(*best) && cost < INFINITE_COST {
                    *best = narrow(cost);
                    done.kept_local += usize::from(d != s);
                }
            }
            done.generated += row.len();
        }

        // Paths have length ≥ 1: `(s, s)` is the cheapest closed walk,
        // over the edges into `s` (`acc[s]` is 0 here). A cycle may have
        // n edges, one more than a distance: it is summed as a `Cost`.
        let mut cycle = INFINITE_COST;
        for &f in planner.fragments_of(s) {
            let site = snap.site_handle(f);
            let at = site.local_id(s).expect("a node of its fragment");
            for (x, cost) in site.in_edges(at) {
                cycle = cycle.min(widen(acc[x.index()]) + cost);
            }
        }

        let (before, after) = (&acc[..s.index()], &acc[s.index() + 1..]);
        done.rows += tuples(&mut out[done.rows..], s, 0, before);
        if cycle < INFINITE_COST {
            out[done.rows] = PathTuple::new(s, s, cycle);
            done.rows += 1;
        }
        done.rows += tuples(&mut out[done.rows..], s, s.index() + 1, after);
    }
    done.sweeps = (dijkstra.stats().sweeps - swept) as usize;
    Some(done)
}

/// Write the finite entries of `words` — the row of `s` from node id
/// `first` on — as tuples from the start of `out`, widened, and return
/// how many.
fn tuples(out: &mut [PathTuple], s: NodeId, first: usize, words: &[Word]) -> usize {
    let row = (words.iter().enumerate())
        .filter(|&(_, &word)| word < WORD_INF)
        .map(|(d, &word)| PathTuple::new(s, NodeId::from_index(first + d), Cost::from(word)));
    let mut written = 0;
    for (slot, tuple) in out.iter_mut().zip(row) {
        *slot = tuple;
        written += 1;
    }
    written
}

/// Run one flat task list on up to `threads` scoped workers, each with
/// the state `init` gives it, pulling tasks off one queue until it runs
/// out or a task fails — returns `None` (its fault fired) or panics —
/// which stops the queue; the run then fails with the lowest fragment a
/// failed task was in (`run` names it through its third argument) once
/// every worker has joined. The caller is worker 0 and starts at once; a
/// spawned worker takes what is left when it starts. Outputs come back in
/// task order; worker `i` adds its time to `stats.busy[i]` and its task
/// count to `stats.tasks[i]`.
fn run_tasks<T: Send, S, O: Send>(
    threads: usize,
    tasks: Vec<T>,
    init: impl Fn() -> S + Sync,
    run: impl Fn(T, &mut S, &mut FragmentId) -> Option<O> + Sync,
    stats: &mut MaterializeStats,
) -> Result<Vec<O>, MaterializeError> {
    let count = tasks.len();
    let workers = threads.clamp(1, count.max(1));
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let take = || queue.lock().expect("nothing panics holding it").next();
    let failed = AtomicUsize::new(usize::MAX);
    let worker = || {
        let start = Instant::now();
        let mut state = init();
        let mut done = Vec::new();
        while let Some((i, task)) = take() {
            let mut at = usize::MAX;
            match catch_unwind(AssertUnwindSafe(|| run(task, &mut state, &mut at))) {
                Ok(Some(out)) => done.push((i, out)),
                Ok(None) | Err(_) => {
                    failed.fetch_min(at, Ordering::Relaxed);
                    while take().is_some() {}
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
    if stats.busy.len() < results.len() {
        stats.busy.resize(results.len(), Duration::ZERO);
        stats.tasks.resize(results.len(), 0);
    }
    let mut done = Vec::with_capacity(count);
    for (i, (outputs, elapsed)) in results.into_iter().enumerate() {
        stats.busy[i] += elapsed;
        stats.tasks[i] += outputs.len();
        done.extend(outputs);
    }
    if done.len() < count {
        let fragment = failed.into_inner();
        return Err(MaterializeError::WorkerPanicked { fragment });
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
    use std::sync::Arc;

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

    /// Path 0-…-11: fragment 0 holds 0..=4, fragment 1 holds 4..=6 and
    /// fragment 2 holds 6..=11, so the borders are 4 and 6 and the source
    /// blocks 0..=7 and 8..=11.
    fn path_12() -> Fragmentation {
        Fragmentation::new(
            12,
            vec![
                edges(&[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]),
                edges(&[(4, 5, 1), (5, 6, 1)]),
                edges(&[(6, 7, 1), (7, 8, 1), (8, 9, 1), (9, 10, 1), (10, 11, 1)]),
            ],
            vec![vec![]; 3],
        )
    }

    #[test]
    fn split_path_matches_sequential_seminaive() {
        let stats = assert_matches_seminaive(&path_split(), true, MaterializeConfig::default());
        assert_eq!(stats.rounds, 1, "no exchange round");
        // A border-free row per interior source, which fills its exit set
        // too: no fill sweep is left to run.
        assert_eq!((stats.network_sweeps, stats.fragment_sweeps), (0, 4));
        // Every node has one exit entry (border 2, or 2 itself), folded
        // into the one border row; each of the 5 sources folds that row
        // once: the interior ones through their one access entry.
        assert_eq!(stats.border_rows, 1);
        assert_eq!(stats.exchanged_tuples, 5 + 5);
        assert_eq!(stats.tc.delta_sizes, [25]);
        // Each interior source reaches its own fragment's two other
        // nodes at the local cost.
        assert_eq!(stats.kept_local, 8);
        // The row's 5 exit entries; per source the row's 5 costs, and per
        // interior source a border-free row of 3.
        assert_eq!(stats.tc.tuples_generated, 5 + 5 * 5 + 4 * 3);
    }

    #[test]
    fn directed_relation_matches_sequential_seminaive() {
        let stats = assert_matches_seminaive(&path_split(), false, MaterializeConfig::default());
        // On a one-way network a row gives its source's access set, not
        // its exit set: a row for each of 0, 1 and 3 (the sink 4 is no
        // source), and per fragment one fill sweep from border 2.
        assert_eq!(stats.network_sweeps, 0);
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
        assert_eq!(stats.fragment_sweeps, 3);
        assert_eq!(stats.kept_local, 4, "4 -> 0, 5 -> 1, 2 -> 0 and 2 -> 1");
        // Both border rows fold the 6 exit entries: one for each of 4, 5
        // and the borders, two for 2. Border 1 is dominated for source 4
        // (border 0 reaches it at 2, the fragment at 9 - 1 = 8), border 0
        // for source 5; source 2 folds both rows, a border its own.
        assert_eq!(stats.border_rows, 2);
        assert_eq!(stats.exchanged_tuples, 2 * 6 + 4 + 2);
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

    /// The build makes the hub; the first call of an epoch fills every
    /// site's exit sets, the second sweeps nothing, and both read the
    /// build's hub. A keyhole call after a full one adds nothing either.
    #[test]
    fn a_warm_call_sweeps_nothing() {
        let snap = snapshot(&path_split(), true);
        let hub = Arc::clone(snap.hub_handle());
        assert_eq!(hub.border_count(), 1);
        assert_eq!(snap.memory_bytes().hub, 4, "B² 32-bit words, no slack");
        let (cold, stats) = snap.materialize(&MaterializeConfig::default()).unwrap();
        assert!(Arc::ptr_eq(&hub, snap.hub_handle()));
        assert_eq!((stats.border_rows, snap.border_rows().filled()), (1, 1));
        assert_eq!(snap.memory_bytes().border_rows, 5 * 4, "n words");
        for config in [MaterializeConfig::with_threads(2), with_sources(&[3, 2])] {
            let (warm, stats) = snap.materialize(&config).unwrap();
            assert_eq!(stats.border_rows, 0, "{stats}");
            let swept = (stats.network_sweeps, stats.fragment_sweeps);
            assert_eq!(swept, (0, 0), "{stats}");
            let expected = cold
                .rows()
                .iter()
                .filter(|t| config.sources.as_ref().is_none_or(|s| s.contains(&t.src)));
            assert_eq!(warm.rows(), expected.copied().collect::<Vec<_>>());
            assert!(Arc::ptr_eq(&hub, snap.hub_handle()));
        }
    }

    /// A border row is `dist(b, ·)`: 0 at `b` itself, the closure's cost
    /// at every other node `b` reaches, `INFINITE_COST` elsewhere — on
    /// symmetric and one-way networks alike.
    #[test]
    fn border_rows_are_the_distances_from_each_border() {
        for symmetric in [true, false] {
            let snap = snapshot(&path_12(), symmetric);
            let (closure, stats) = snap.materialize(&MaterializeConfig::default()).unwrap();
            // Borders 4 and 6; on the one-way path both have an edge out.
            assert_eq!(stats.border_rows, 2);
            for (b, &border) in snap.complementary().borders().iter().enumerate() {
                let row = snap.border_rows().row(b).expect("a source's own row");
                let row: Vec<Cost> = row.collect();
                assert_eq!(row[border.index()], 0);
                for (d, &cost) in row.iter().enumerate().filter(|&(d, _)| d != border.index()) {
                    let expected = closure.cost_of(border, n(d as u32));
                    assert_eq!(expected.unwrap_or(INFINITE_COST), cost, "{border:?} -> {d}");
                }
            }
        }
    }

    /// A call fills only the border rows its sources read: the borders
    /// in their access sets and the border sources themselves.
    #[test]
    fn a_keyhole_fills_the_rows_it_reads() {
        let snap = snapshot(&path_12(), true);
        let (_, stats) = snap.materialize(&with_sources(&[0, 1])).unwrap();
        assert_eq!(stats.border_rows, 1, "both reach border 4 only");
        assert!(snap.border_rows().row(0).is_some() && snap.border_rows().row(1).is_none());
        let (_, stats) = snap.materialize(&with_sources(&[1, 5])).unwrap();
        assert_eq!(stats.border_rows, 1, "5 reaches border 6 too");
        assert_matches_seminaive(&path_12(), true, with_sources(&[1, 5]));
        // The full closure sweeps its other sources' border-free rows and
        // reads no row the keyholes left out.
        let (_, stats) = snap.materialize(&MaterializeConfig::default()).unwrap();
        assert_eq!(stats.border_rows, 0, "{stats}");
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
        assert_eq!(snap.border_rows().filled(), 0, "an empty run fills nothing");
        assert_matches_seminaive(&frag, true, MaterializeConfig::default());
    }

    #[test]
    fn single_fragment_needs_no_exchange() {
        let frag = Fragmentation::new(3, vec![edges(&[(0, 1, 1), (1, 2, 1)])], vec![vec![]]);
        let stats = assert_matches_seminaive(&frag, true, MaterializeConfig::default());
        assert_eq!(stats.exchanged_tuples, 0);
        assert_eq!(stats.rounds, 1);
        let borders = snapshot(&frag, true).hub_handle().border_count();
        assert_eq!(borders, 0, "no border: an empty hub");
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
        // 3 site fills, 1 block of the 3 border rows, then 1 block of
        // the 7 sources.
        assert_eq!(
            (single.tasks.as_slice(), single.helper_tasks()),
            (&[5][..], 0)
        );
        assert_eq!(pooled.tasks.len(), 3);
        assert_eq!(pooled.tasks.iter().sum::<usize>(), 5);
        assert_eq!(single.tc, pooled.tc, "the counters are the formula's");
        assert_eq!(single.fragment_sweeps, pooled.fragment_sweeps);
        assert_eq!((single.border_rows, pooled.border_rows), (3, 3));
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
        assert!(!line.contains("hub"), "{line}");
        assert!(line.contains("1 border rows"), "{line}");
        assert!(line.contains("0 + 4 sweeps"), "{line}");
        assert!(line.contains("exchanged"), "{line}");
        assert!(line.contains(&format!("tasks {:?}", stats.tasks)), "{line}");
        assert_eq!(
            stats.tasks.iter().sum::<usize>(),
            4,
            "2 site fills, 1 border-row block, 1 source block"
        );
        assert!(!line.contains('\n'));
        assert!(stats.balance_ratio() >= 1.0);
        let (_, warm) = snap.materialize(&MaterializeConfig::default()).unwrap();
        assert!(warm.to_string().contains("0 border rows"));
        assert!(warm.to_string().contains("tasks [1]"), "1 source block");
    }

    /// A write keeps the hub exact, so a call after one closes nothing:
    /// after a crossing insert that shortens a border pair, its first
    /// list is the site fills alone, and the hub it folds is a fresh
    /// build's.
    #[test]
    fn a_call_after_a_crossing_write_closes_no_hub() {
        // A connection 4 - 6 beats the interior path 4 - 5 - 6.
        let mut snap = snapshot(&path_12(), true);
        let built = Arc::clone(snap.hub_handle());
        let shortcut = crate::api::NetworkUpdate::Insert {
            edge: Edge::new(n(4), n(6), 1),
            owner: 1,
        };
        let mut scratch = ScratchDijkstra::new();
        snap.maintain(&shortcut, &mut scratch).unwrap();
        assert!(!Arc::ptr_eq(&built, snap.hub_handle()), "4 - 6 got cheaper");
        let kept = Arc::clone(snap.hub_handle());
        let (_, stats) = snap.materialize(&MaterializeConfig::default()).unwrap();
        // 3 site fills, 1 block of the 2 border rows, 2 source blocks.
        assert_eq!(stats.tasks.iter().sum::<usize>(), 3 + 1 + 2, "{stats}");
        assert!(Arc::ptr_eq(&kept, snap.hub_handle()), "{stats}");
        let fresh = snapshot(snap.fragmentation(), true);
        assert_eq!(snap.hub_handle(), fresh.hub_handle());
        assert_eq!(snap.hub_handle().row(0).collect::<Vec<_>>(), [0, 1]);
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

    /// A source task is a block of ids and may span fragments: the fault
    /// point fires once for every fragment a task touches, and a failed
    /// task reports the fragment it was in — here fragment 1, whose
    /// sources all sit in a block that starts in fragment 0.
    #[test]
    fn a_fault_in_a_fragment_that_starts_no_task_is_reported_with_that_fragment() {
        let frag = path_12();
        let armed = |threads, plan: FaultPlan| MaterializeConfig {
            threads,
            fault: Some(Arc::new(plan)),
            ..Default::default()
        };
        for threads in [1, 2] {
            let point = FaultPoint::BulkWorker { fragment: 1 };
            for plan in [
                FaultPlan::new().fail_at(point, 1),
                FaultPlan::new().panic_at(point, 1),
            ] {
                let snap = snapshot(&frag, true);
                snap.materialize(&MaterializeConfig::with_threads(threads))
                    .unwrap();
                assert_eq!(
                    snap.materialize(&armed(threads, plan)).unwrap_err(),
                    MaterializeError::WorkerPanicked { fragment: 1 },
                    "threads {threads}"
                );
                let (retried, stats) = snap.materialize(&armed(threads, FaultPlan::new())).unwrap();
                assert_eq!(stats.tc.result_tuples, retried.len());
            }
            // Fragment 0 lies in one block, which fires its point once;
            // fragment 2 lies in both, which fire it once each.
            let snap = snapshot(&frag, true);
            snap.materialize(&MaterializeConfig::with_threads(threads))
                .unwrap();
            let second =
                |fragment| FaultPlan::new().fail_at(FaultPoint::BulkWorker { fragment }, 2);
            snap.materialize(&armed(threads, second(0))).unwrap();
            assert_eq!(
                snap.materialize(&armed(threads, second(2))).unwrap_err(),
                MaterializeError::WorkerPanicked { fragment: 2 },
                "threads {threads}"
            );
        }
        assert_matches_seminaive(&frag, true, MaterializeConfig::with_threads(2));
    }

    /// A border-row block fires the fault point like a source block, and
    /// a call publishes its rows only once the whole list ran: a failed
    /// call leaves no row behind, and the retry fills them all.
    #[test]
    fn a_fault_in_a_border_row_block_publishes_no_row() {
        for threads in [1, 2] {
            // Fragment 1's site fill fires first; the one row block (rows
            // of border 4, home 0, then border 6, home 1) fires second,
            // after it folded border 4's row.
            let point = FaultPoint::BulkWorker { fragment: 1 };
            let snap = snapshot(&path_12(), true);
            let config = MaterializeConfig {
                threads,
                fault: Some(Arc::new(FaultPlan::new().fail_at(point, 2))),
                ..Default::default()
            };
            assert_eq!(
                snap.materialize(&config).unwrap_err(),
                MaterializeError::WorkerPanicked { fragment: 1 }
            );
            assert_eq!(snap.border_rows().filled(), 0, "threads {threads}");
            assert_eq!(snap.memory_bytes().border_rows, 0);
            let (retried, stats) = snap.materialize(&config).unwrap();
            assert_eq!(stats.border_rows, 2);
            let (fresh, _) = (snapshot(&path_12(), true))
                .materialize(&MaterializeConfig::default())
                .unwrap();
            assert_eq!(retried.rows(), fresh.rows());
        }
    }

    /// The fault point fires on a warm call too: once per fragment of a
    /// source task, whatever the epoch already holds.
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
