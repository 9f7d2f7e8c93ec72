//! Recovery edge-case suite: every way a write-ahead log can be
//! damaged at rest, exercised byte-by-byte.
//!
//! A small durable serve run builds a known-good directory (one
//! attach-time checkpoint + one WAL segment of insert records). The
//! sweeps then corrupt *copies* of that directory and assert, for
//! every single byte offset:
//!
//! - **Truncation**: cutting the WAL at any length never panics
//!   [`discset::recover`], and the recovered state equals the Dijkstra
//!   oracle over exactly the records whose frames fully survive (prefix
//!   consistency — never a partial record, never a skipped one).
//! - **Bit flips**: flipping any single bit never panics recovery; the
//!   CRC32 frame checksum catches the damage and replay truncates at
//!   the damaged frame, again yielding an exact prefix.
//! - **Degenerate directories**: empty and WAL-only directories are the
//!   typed [`DurabilityError::NoCheckpoint`] (never a panic, never an
//!   empty-but-"recovered" state); a checkpoint-only directory recovers
//!   the checkpoint image with nothing replayed.
//!
//! And one property of recovery itself, over random update streams:
//! folding the log into the checkpoint's relation and building once lands
//! on the state the live server maintained its way to — same epoch, same
//! complementary tables, entry for entry.

mod common;

use common::{arb_update_or_dud, stream_case, update_network};
use discset::closure::{baseline, EngineConfig};
use discset::durability::{checkpoint_paths, wal_paths};
use discset::fragment::center::CenterConfig;
use discset::fragment::linear::LinearConfig;
use discset::gen::deterministic::grid;
use discset::graph::{CsrGraph, Edge, NodeId, ScratchDijkstra};
use discset::serve::{DurabilityConfig, ServeConfig};
use discset::{DurabilityError, Fragmenter, NetworkUpdate, System};
use rand::rngs::StdRng;
use rand::SeedableRng;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "discset-durafuzz-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::remove_dir_all(to).ok();
    std::fs::create_dir_all(to).expect("create copy dir");
    for entry in std::fs::read_dir(from).expect("read base dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy file");
    }
}

/// The known-good fixture: a 2-fragment 8-node grid served durably,
/// with `n` distinct fragment-0 inserts WAL-logged (no checkpoint
/// rotation — the attach-time checkpoint stays the base image).
/// Returns the directory, the insert edges in LSN order, and the grid.
fn build_fixture(tag: &str, n: usize) -> (PathBuf, Vec<Edge>, discset::gen::GeneratedGraph) {
    let dir = tmpdir(tag);
    let g = grid(4, 2);
    let sys = System::builder()
        .graph(&g)
        .fragmenter(Fragmenter::Linear(LinearConfig {
            fragments: 2,
            ..Default::default()
        }))
        .build()
        .expect("valid grid system");
    let server = sys.serve_with(ServeConfig {
        workers: 1,
        durability: Some(DurabilityConfig::at(&dir)),
        ..ServeConfig::with_workers(1)
    });
    let f0 = server.snapshot().fragmentation().fragment(0).clone();
    let nodes0 = f0.nodes().to_vec();
    let mut pairs = Vec::new();
    for i in 0..nodes0.len() {
        for j in (i + 1)..nodes0.len() {
            pairs.push((nodes0[i], nodes0[j]));
        }
    }
    assert!(pairs.len() >= n, "fragment 0 too small for {n} inserts");
    let mut edges = Vec::with_capacity(n);
    for (k, &(a, b)) in pairs.iter().take(n).enumerate() {
        let edge = Edge::new(a, b, 1 + (k as u64 % 3));
        server
            .update(&NetworkUpdate::Insert { edge, owner: 0 })
            .expect("durable insert");
        edges.push(edge);
    }
    server.shutdown();
    (dir, edges, g)
}

/// Frame boundaries of the segment: cumulative end offset of each
/// length-prefixed record, walked from the raw bytes.
fn frame_ends(wal: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 0usize;
    while at + 8 <= wal.len() {
        let len = u32::from_le_bytes([wal[at], wal[at + 1], wal[at + 2], wal[at + 3]]) as usize;
        if at + 8 + len > wal.len() {
            break;
        }
        at += 8 + len;
        ends.push(at);
    }
    ends
}

/// The Dijkstra oracle for the state after the first `prefix` inserts:
/// the grid's symmetric closure plus those edges (and their reversals).
fn oracle(g: &discset::gen::GeneratedGraph, edges: &[Edge], prefix: usize) -> CsrGraph {
    let mut es: Vec<Edge> = g.closure_graph().edges().collect();
    for e in &edges[..prefix] {
        es.push(*e);
        es.push(e.reversed());
    }
    CsrGraph::from_edges(g.nodes, &es)
}

/// Recover `dir` and assert the state is *exactly* the oracle for
/// `prefix` surviving records: right replay count, and identical
/// shortest-path answers over every node pair.
fn assert_prefix(
    dir: &Path,
    g: &discset::gen::GeneratedGraph,
    edges: &[Edge],
    prefix: usize,
    what: &str,
) {
    let rec = discset::recover(dir).unwrap_or_else(|e| panic!("{what}: recover failed: {e}"));
    assert_eq!(rec.replayed, prefix, "{what}: wrong surviving prefix");
    let expect = oracle(g, edges, prefix);
    let mut scratch = ScratchDijkstra::new();
    for x in 0..g.nodes as u32 {
        for y in 0..g.nodes as u32 {
            let (x, y) = (NodeId(x), NodeId(y));
            assert_eq!(
                rec.snapshot.shortest_path(x, y, &mut scratch).cost,
                baseline::shortest_path_cost(&expect, x, y),
                "{what}: {x:?} -> {y:?} diverged from the prefix-{prefix} oracle"
            );
        }
    }
}

/// Cut the WAL at every byte length from zero to full: recovery never
/// panics and always yields the longest fully-framed record prefix.
#[test]
fn truncation_at_every_byte_offset_recovers_the_exact_prefix() {
    let (base, edges, g) = build_fixture("trunc", 6);
    let (_, wal_path) = wal_paths(&base).pop().expect("one segment");
    let wal = std::fs::read(&wal_path).expect("read wal");
    let ends = frame_ends(&wal);
    assert_eq!(ends.len(), edges.len(), "fixture: one frame per insert");

    let scratch = tmpdir("trunc-scratch");
    let wal_name = wal_path.file_name().expect("wal file name").to_owned();
    for cut in 0..=wal.len() {
        copy_dir(&base, &scratch);
        std::fs::write(scratch.join(&wal_name), &wal[..cut]).expect("truncate copy");
        let prefix = ends.iter().filter(|&&e| e <= cut).count();
        assert_prefix(&scratch, &g, &edges, prefix, &format!("cut at byte {cut}"));
    }
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

/// Flip one bit at every byte offset: the frame checksum catches every
/// single-bit error (a CRC32 guarantee), so recovery never panics and
/// truncates replay exactly at the damaged frame.
#[test]
fn bit_flip_at_every_byte_offset_recovers_a_consistent_prefix() {
    let (base, edges, g) = build_fixture("flip", 6);
    let (_, wal_path) = wal_paths(&base).pop().expect("one segment");
    let wal = std::fs::read(&wal_path).expect("read wal");
    let ends = frame_ends(&wal);

    let scratch = tmpdir("flip-scratch");
    let wal_name = wal_path.file_name().expect("wal file name").to_owned();
    for at in 0..wal.len() {
        let mut damaged = wal.clone();
        damaged[at] ^= 1 << (at % 8);
        copy_dir(&base, &scratch);
        std::fs::write(scratch.join(&wal_name), &damaged).expect("write damaged copy");
        // Frames that end at or before the flipped byte are untouched;
        // the frame containing it must fail its checksum and stop
        // replay right there.
        let prefix = ends.iter().filter(|&&e| e <= at).count();
        assert_prefix(
            &scratch,
            &g,
            &edges,
            prefix,
            &format!("bit flip at byte {at}"),
        );
    }
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

/// Degenerate directory layouts come back as typed errors or exact
/// states — never panics, never silently-empty "recoveries".
#[test]
fn empty_checkpoint_only_and_wal_only_directories() {
    // Empty directory: nothing to recover from, typed error.
    let empty = tmpdir("empty");
    match discset::recover(&empty) {
        Err(DurabilityError::NoCheckpoint { .. }) => {}
        other => panic!("empty dir must be NoCheckpoint, got {other:?}"),
    }
    std::fs::remove_dir_all(&empty).ok();

    let (base, edges, g) = build_fixture("degen", 4);

    // Checkpoint-only: deleting every WAL segment recovers the
    // attach-time image with nothing replayed (prefix 0).
    let ckpt_only = tmpdir("ckpt-only");
    copy_dir(&base, &ckpt_only);
    for (_, p) in wal_paths(&ckpt_only) {
        std::fs::remove_file(p).expect("drop segment");
    }
    assert_prefix(&ckpt_only, &g, &edges, 0, "checkpoint-only dir");
    std::fs::remove_dir_all(&ckpt_only).ok();

    // WAL-only: a log with no base image is unrecoverable — typed
    // error, not a guess and not a panic.
    let wal_only = tmpdir("wal-only");
    copy_dir(&base, &wal_only);
    for (_, p) in checkpoint_paths(&wal_only) {
        std::fs::remove_file(p).expect("drop checkpoint");
    }
    match discset::recover(&wal_only) {
        Err(DurabilityError::NoCheckpoint { .. }) => {}
        other => panic!("wal-only dir must be NoCheckpoint, got {other:?}"),
    }
    std::fs::remove_dir_all(&wal_only).ok();
    std::fs::remove_dir_all(&base).ok();
}

/// Recovery folds inputs where the live writer maintained tables: after
/// a seeded stream of updates through a durable server — bridges deleted
/// and put back, removals that match nothing, inserts the server refuses,
/// on symmetric and one-way networks under both complementary scopes,
/// across several checkpoints — `recover` arrives at the server's epoch,
/// replays exactly the records past the newest checkpoint, and every
/// site's table equals the live snapshot's entry for entry.
#[test]
fn recovery_lands_on_the_state_the_live_server_maintained() {
    const UPDATES: u64 = 30;
    let (mut effective, mut refused) = (0, 0);
    for seed in 0..8u64 {
        let (symmetric, scope) = stream_case(seed);
        let label = format!("seed {seed} symmetric={symmetric} {scope:?}");
        let fragmenter = if seed % 2 == 0 {
            Fragmenter::Linear(LinearConfig {
                fragments: 3,
                ..Default::default()
            })
        } else {
            Fragmenter::Center(CenterConfig {
                fragments: 3,
                ..Default::default()
            })
        };
        let dir = tmpdir("stream");
        let sys = System::builder()
            .graph(&update_network(seed))
            .symmetric(symmetric)
            .fragmenter(fragmenter)
            .config(EngineConfig {
                scope,
                ..EngineConfig::default()
            })
            .build()
            .expect("valid system");
        let server = sys.serve_with(ServeConfig {
            durability: Some(DurabilityConfig {
                checkpoint_updates: 7,
                ..DurabilityConfig::at(&dir)
            }),
            ..ServeConfig::with_workers(1)
        });
        let mut rng = StdRng::seed_from_u64(0xD0_5EED ^ seed);
        let (mut logged, mut pending) = (0, None);
        while logged < UPDATES {
            let live = server.snapshot();
            let Some(u) =
                arb_update_or_dud(&mut rng, live.fragmentation(), symmetric, &mut pending)
            else {
                continue;
            };
            // Every update is logged before it is applied, refused ones
            // and no-ops included.
            match server.update(&u) {
                Ok(served) => effective += served.report.effective() as usize,
                Err(_) => refused += 1,
            }
            logged += 1;
        }
        let (epoch, live) = (server.epoch(), server.snapshot());
        let stats = server.shutdown();
        assert_eq!(stats.wal_records, UPDATES, "{label}");
        assert!(stats.checkpoints >= 3, "{label}: {stats}");

        let (ckpt_lsn, _) = checkpoint_paths(&dir).pop().expect("a checkpoint");
        let rec = discset::recover(&dir).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(rec.epoch, epoch, "{label}: epoch");
        assert_eq!(
            (rec.checkpoint_lsn, rec.last_lsn, rec.replayed as u64),
            (ckpt_lsn, UPDATES, UPDATES - ckpt_lsn),
            "{label}: the records past the checkpoint"
        );
        assert!(!rec.truncated, "{label}");
        for f in 0..live.site_count() {
            assert_eq!(
                rec.snapshot.complementary().table(f),
                live.complementary().table(f),
                "{label}: site {f}'s table"
            );
            assert_eq!(
                rec.snapshot.fragmentation().fragment(f).edges(),
                live.fragmentation().fragment(f).edges(),
                "{label}: fragment {f}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        effective > 100 && refused > 10,
        "{effective} effective updates, {refused} refused"
    );
}

/// An insert over the network's cost limit is refused live with the
/// typed error and leaves the epoch where it was; the log holds it
/// anyway (every update is logged before it is applied), and recovery
/// folds it through the same edit rule, so it refuses it too rather
/// than building a network whose distances could wrap. An insert at
/// the limit goes through both ways.
#[test]
fn an_insert_over_the_cost_limit_is_refused_live_and_on_recovery() {
    use discset::closure::bulk::max_edge_cost;
    use discset::closure::ClosureError;
    let dir = tmpdir("cost-limit");
    let g = grid(4, 2);
    let limit = max_edge_cost(g.nodes);
    let sys = System::builder()
        .graph(&g)
        .fragmenter(Fragmenter::Linear(LinearConfig {
            fragments: 2,
            ..Default::default()
        }))
        .build()
        .expect("valid grid system");
    let server = sys.serve_with(ServeConfig {
        durability: Some(DurabilityConfig::at(&dir)),
        ..ServeConfig::with_workers(1)
    });
    let nodes = server
        .snapshot()
        .fragmentation()
        .fragment(0)
        .nodes()
        .to_vec();
    let (a, b) = (nodes[0], *nodes.last().unwrap());
    let insert = |cost| NetworkUpdate::Insert {
        edge: Edge::new(a, b, cost),
        owner: 0,
    };
    let (epoch, before) = (server.epoch(), server.snapshot());
    let err = server.update(&insert(limit + 1)).unwrap_err();
    let cost = limit + 1;
    assert_eq!(err, ClosureError::EdgeCostOverLimit { cost, limit });
    assert_eq!(server.epoch(), epoch, "a refused insert publishes nothing");
    let edges =
        |snap: &discset::closure::EngineSnapshot| snap.fragmentation().fragment(0).edges().to_vec();
    assert_eq!(edges(&server.snapshot()), edges(&before));
    let served = server.update(&insert(limit)).expect("at the limit");
    assert!(served.report.effective());
    assert_eq!(server.epoch(), epoch + 1);
    let live = server.snapshot();
    let stats = server.shutdown();
    assert_eq!(stats.wal_records, 2, "both inserts are logged");

    let rec = discset::recover(&dir).expect("recovers");
    assert_eq!((rec.epoch, rec.replayed), (epoch + 1, 2));
    assert_eq!(edges(&rec.snapshot), edges(&live));
    let over = |e: &Edge| e.cost > limit;
    assert!(
        !edges(&rec.snapshot).iter().any(over),
        "the over-limit insert was folded"
    );
    let mut scratch = ScratchDijkstra::new();
    for x in 0..g.nodes as u32 {
        for y in 0..g.nodes as u32 {
            let (x, y) = (NodeId(x), NodeId(y));
            assert_eq!(
                rec.snapshot.shortest_path(x, y, &mut scratch).cost,
                baseline::shortest_path_cost(rec.snapshot.graph(), x, y),
                "{x:?} -> {y:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
