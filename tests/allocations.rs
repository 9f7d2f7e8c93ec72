//! A warm query costs lookups, folds and its answer — and allocates
//! only the answer.
//!
//! This binary installs a counting global allocator, so it is a test
//! binary of its own. Counts are per thread: only what the measuring
//! thread allocates is seen, whatever the harness does beside it.
//!
//! A one-request `query_batch` returns a `BatchAnswer` whose `answers`
//! vector is one heap block; the answer in it shares its chain with the
//! planner's table by reference count, and the evaluation reads chain
//! sets, access sets, border-free rows and interior segments that the
//! first (cold) query filled, over working vectors its thread keeps. So
//! a warm one-request batch makes exactly one allocation — for a pair in
//! two fragments and for two non-border nodes of one fragment alike, on
//! an acyclic fragmentation with one chain per query, on a cyclic one
//! with several, and on fragments too large to keep rows, where the
//! second pair's point sweep reuses the scratch's arrays and heap.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

use discset::closure::local::ROW_NODES;
use discset::closure::{EngineConfig, EngineSnapshot};
use discset::fragment::center::{center_based, CenterConfig};
use discset::fragment::{semantic, CrossingPolicy};
use discset::gen::{
    generate_general, generate_transportation, GeneralConfig, TransportationConfig,
};
use discset::graph::{NodeId, ScratchDijkstra};
use discset::QueryRequest;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { Heap.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { Heap.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { Heap.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { Heap.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A pair in two fragments and a pair of non-border nodes of one.
fn pairs(snap: &EngineSnapshot) -> [QueryRequest; 2] {
    let planner = snap.planner();
    let nodes = snap.fragmentation().node_count() as u32;
    let interior = |v: &NodeId| planner.fragments_of(*v).len() == 1;
    let all: Vec<NodeId> = (0..nodes).map(NodeId).filter(interior).collect();
    let fragment = |v: NodeId| planner.fragments_of(v)[0];
    let x = all[0];
    let across = *all
        .iter()
        .rev()
        .find(|&&y| fragment(y) != fragment(x))
        .unwrap();
    let inside = *all[1..]
        .iter()
        .find(|&&y| fragment(y) == fragment(x))
        .unwrap();
    [QueryRequest::new(x, across), QueryRequest::new(x, inside)]
}

/// `clusters` clusters of `size` nodes, one fragment each.
fn transportation(clusters: usize, size: usize) -> EngineSnapshot {
    let g = generate_transportation(
        &TransportationConfig {
            clusters,
            nodes_per_cluster: size,
            target_edges_per_cluster: 3 * size,
            ..TransportationConfig::default()
        },
        3,
    );
    let labels = g.cluster_of.clone().expect("clusters are labelled");
    let frag = semantic::by_labels(
        g.nodes,
        &g.connections,
        &labels,
        clusters,
        CrossingPolicy::LowerBlock,
    )
    .unwrap();
    EngineSnapshot::build(frag, g.symmetric, EngineConfig::default())
}

fn general() -> EngineSnapshot {
    let g = generate_general(
        &GeneralConfig {
            nodes: 120,
            target_edges: 360,
            c2: 0.15,
            ..GeneralConfig::default()
        },
        5,
    );
    let frag = center_based(
        &g.edge_list(),
        &CenterConfig {
            fragments: 4,
            ..CenterConfig::default()
        },
    )
    .unwrap()
    .fragmentation;
    assert!(!frag.fragmentation_graph().is_acyclic());
    EngineSnapshot::build(frag, true, EngineConfig::default())
}

#[test]
fn a_warm_query_allocates_only_its_answer() {
    let large = transportation(2, ROW_NODES + 44);
    let fragments = large.fragmentation().fragments();
    assert!(fragments.iter().all(|f| f.nodes().len() > ROW_NODES));
    let cases = [
        ("transportation", transportation(6, 40)),
        ("general", general()),
        ("large fragments", large),
    ];
    for (name, snap) in cases {
        let mut scratch = ScratchDijkstra::new();
        let [across, inside] = pairs(&snap);
        for (shape, r) in [("across", across), ("inside", inside)] {
            let cold = snap.query_batch(&[r], &mut scratch);
            let a = &cold.answers[0];
            assert!(a.cost.is_some(), "{name} {shape}: {r:?}");
            if (name, shape) == ("general", "across") {
                assert!(a.stats.chains_evaluated > 1, "{a:?}");
            }
            let swept = scratch.stats().sweeps;
            let (warm, allocated) = allocations(|| snap.query_batch(&[r], &mut scratch));
            assert_eq!(warm.costs(), cold.costs(), "{name} {shape}");
            let point_sweep = (name, shape) == ("large fragments", "inside");
            let warm_sweeps = scratch.stats().sweeps - swept;
            assert_eq!(warm_sweeps, u64::from(point_sweep), "{name} {shape}");
            assert_eq!(warm.stats.plans_computed, 0, "{name} {shape}");
            assert_eq!(
                allocated, 1,
                "{name} {shape}: {r:?}, the answers vector only"
            );
        }
        // A batch of both allocates its answers vector, still nothing else.
        let (_, allocated) = allocations(|| snap.query_batch(&[across, inside], &mut scratch));
        assert_eq!(allocated, 1, "{name}: a warm batch of two");
    }
}
