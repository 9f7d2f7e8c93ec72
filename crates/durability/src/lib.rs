//! Durable storage for the serve tier: an append-only, checksummed
//! write-ahead update log plus compact periodic checkpoints, and the
//! recovery path that turns a directory of both back into a live
//! [`EngineSnapshot`].
//!
//! The design follows the classic WAL discipline, scaled to what this
//! workspace actually persists — the *update stream*, not the derived
//! state:
//!
//! * **Log records are tiny and self-verifying.** Each record frames one
//!   [`NetworkUpdate`] as `[len u32][crc32 u32][payload]`, where the
//!   payload carries a strictly increasing LSN, the serve epoch at
//!   append time (informational — recovery recomputes effectiveness) and
//!   the update tuple itself, all hand-encoded little-endian. No serde,
//!   no external crates; the CRC32 (IEEE) table lives in this crate.
//! * **Group commit.** The serve writer already folds queued updates
//!   into one micro-batch per wake-up; [`DurableStore::append_batch`]
//!   writes the whole batch as one buffered write and one `fdatasync`,
//!   so the fsync cost amortizes across exactly the batch the writer was
//!   going to fold anyway.
//! * **Checkpoints are images of the *inputs*, not the precompute.** A
//!   checkpoint stores the fragmentation (per-fragment edge + node
//!   lists), the [`EngineConfig`] and the symmetry flag — everything
//!   [`EngineSnapshot::build`] takes. The closure graph, complementary
//!   information and reachability index are **derived on load**, which keeps
//!   checkpoints proportional to the relation, not the precompute.
//! * **Recovery = newest valid checkpoint + the WAL suffix folded into
//!   its edge set, then one build.** [`recover`] scans checkpoints
//!   newest-first (a torn or corrupt checkpoint is skipped — predecessors
//!   are pruned only after a successor is fully durable, so one is always
//!   intact), applies every WAL record with `lsn > checkpoint.lsn` to the
//!   image's fragmentation in order with the engine's own structural edit
//!   rule ([`apply_edit`] — one epoch per record that changed the edge
//!   set), stopping at the first torn or corrupt frame, and builds the
//!   engine once from the result. Garbage bytes are a truncation point,
//!   never a panic.
//! * **A directory and the state served over it cannot diverge
//!   silently.** [`DurableStore::attach`] on an existing directory folds
//!   it the same way and refuses a snapshot that is not what the
//!   directory recovers to ([`DurabilityError::Diverged`]).
//!
//! Fault injection: every write path fires a `ds_fault` disk hook
//! ([`FaultPoint::WalAppend`], [`FaultPoint::WalSync`],
//! [`FaultPoint::CheckpointWrite`]) that can inject an I/O error, tear
//! the write after N bytes, or kill the writer outright — the chaos
//! suite's kill-and-restart sweeps are built on these.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use ds_closure::api::{apply_edit, NetworkUpdate};
use ds_closure::bulk::cost_over_limit;
use ds_closure::executor::ExecutionMode;
use ds_closure::{EngineConfig, EngineSnapshot};
use ds_fault::{fire_disk, DiskFault, FaultPlan, FaultPoint};
use ds_fragment::Fragmentation;
use ds_graph::{Edge, NodeId};

// ------------------------------------------------------------------ crc

/// CRC32 (IEEE 802.3 polynomial, reflected), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        let mut i = 0u32;
        while i < 256 {
            let mut c = i;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i as usize] = c;
            i += 1;
        }
        t
    });
    let mut c = !0u32;
    for &b in data {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// --------------------------------------------------------------- errors

/// Typed failures of the durability layer. Corruption is *not* an error:
/// torn and garbage bytes truncate the replay, by design.
#[derive(Debug)]
pub enum DurabilityError {
    /// A filesystem operation failed (including injected I/O faults).
    Io {
        op: &'static str,
        path: PathBuf,
        detail: String,
    },
    /// The directory holds no valid checkpoint to recover from — an
    /// empty directory, a WAL-only directory (records with no base
    /// state), or every checkpoint failed its checksum.
    NoCheckpoint { dir: PathBuf },
    /// [`DurableStore::attach`] was handed a snapshot that is not the
    /// state `dir` recovers to: continuing the log from it would serve
    /// answers a later [`recover`] contradicts. `detail` names the first
    /// difference (symmetry, epoch, or a fragment's connections).
    Diverged { dir: PathBuf, detail: String },
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io { op, path, detail } => {
                write!(
                    f,
                    "durability I/O failure: {op} {}: {detail}",
                    path.display()
                )
            }
            DurabilityError::NoCheckpoint { dir } => write!(
                f,
                "no valid checkpoint in {}: nothing to recover from",
                dir.display()
            ),
            DurabilityError::Diverged { dir, detail } => write!(
                f,
                "snapshot is not the state {} recovers to: {detail}",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for DurabilityError {}

fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> DurabilityError {
    DurabilityError::Io {
        op,
        path: path.to_path_buf(),
        detail: e.to_string(),
    }
}

fn injected_err(op: &'static str, path: &Path) -> DurabilityError {
    DurabilityError::Io {
        op,
        path: path.to_path_buf(),
        detail: "injected I/O fault".to_string(),
    }
}

// ------------------------------------------------------------- encoding

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian cursor; every read can fail instead of
/// panicking, which is what makes garbage bytes a truncation point.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.data.len() {
            return None;
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    fn done(&self) -> bool {
        self.pos == self.data.len()
    }
}

const TAG_INSERT: u8 = 0;
const TAG_REMOVE: u8 = 1;

/// Guard against allocating absurd buffers when the length prefix itself
/// is garbage: no legal record payload comes anywhere near this.
const MAX_RECORD_LEN: u32 = 1 << 16;

/// One durable log entry: an update, its log sequence number, and the
/// serve epoch that was current when it was appended (informational —
/// recovery works out again which updates are effective).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    pub lsn: u64,
    pub epoch: u64,
    pub update: NetworkUpdate,
}

fn encode_update(buf: &mut Vec<u8>, update: &NetworkUpdate) {
    match *update {
        NetworkUpdate::Insert { edge, owner } => {
            buf.push(TAG_INSERT);
            put_u32(buf, edge.src.0);
            put_u32(buf, edge.dst.0);
            put_u64(buf, edge.cost);
            put_u64(buf, owner as u64);
        }
        NetworkUpdate::Remove { src, dst, owner } => {
            buf.push(TAG_REMOVE);
            put_u32(buf, src.0);
            put_u32(buf, dst.0);
            put_u64(buf, owner as u64);
        }
    }
}

fn decode_update(c: &mut Cursor<'_>) -> Option<NetworkUpdate> {
    match c.u8()? {
        TAG_INSERT => {
            let src = NodeId(c.u32()?);
            let dst = NodeId(c.u32()?);
            let cost = c.u64()?;
            let owner = usize::try_from(c.u64()?).ok()?;
            Some(NetworkUpdate::Insert {
                edge: Edge::new(src, dst, cost),
                owner,
            })
        }
        TAG_REMOVE => {
            let src = NodeId(c.u32()?);
            let dst = NodeId(c.u32()?);
            let owner = usize::try_from(c.u64()?).ok()?;
            Some(NetworkUpdate::Remove { src, dst, owner })
        }
        _ => None,
    }
}

/// Append one framed record to `buf`.
fn encode_record(buf: &mut Vec<u8>, rec: &WalRecord) {
    let mut payload = Vec::with_capacity(40);
    put_u64(&mut payload, rec.lsn);
    put_u64(&mut payload, rec.epoch);
    encode_update(&mut payload, &rec.update);
    put_u32(buf, payload.len() as u32);
    put_u32(buf, crc32(&payload));
    buf.extend_from_slice(&payload);
}

/// Decode the frame starting at `bytes[0]`. Returns the record and the
/// total frame size, or `None` if the frame is torn, corrupt or
/// malformed in any way — never panics on garbage.
fn decode_frame(bytes: &[u8]) -> Option<(WalRecord, usize)> {
    if bytes.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    if len == 0 || len > MAX_RECORD_LEN {
        return None;
    }
    let crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let total = 8usize.checked_add(len as usize)?;
    if bytes.len() < total {
        return None; // torn tail
    }
    let payload = &bytes[8..total];
    if crc32(payload) != crc {
        return None; // bit rot
    }
    let mut c = Cursor::new(payload);
    let lsn = c.u64()?;
    let epoch = c.u64()?;
    let update = decode_update(&mut c)?;
    if !c.done() {
        return None; // trailing bytes inside a checksummed payload
    }
    Some((WalRecord { lsn, epoch, update }, total))
}

// ----------------------------------------------------------- checkpoint

const CKPT_MAGIC: &[u8; 8] = b"DSCKPT01";

fn mode_tag(mode: ExecutionMode) -> u8 {
    match mode {
        ExecutionMode::Sequential => 0,
        ExecutionMode::Parallel => 1,
    }
}

fn mode_from(tag: u8) -> Option<ExecutionMode> {
    match tag {
        0 => Some(ExecutionMode::Sequential),
        1 => Some(ExecutionMode::Parallel),
        _ => None,
    }
}

/// The engine's inputs as a directory holds them — everything
/// [`EngineSnapshot::build`] takes (precompute runs on load): a decoded
/// checkpoint, and after [`CheckpointImage::fold`] that checkpoint with
/// the log past it applied. Fragment nodes are stored explicitly, so
/// seed-only members (nodes with no incident fragment edge — e.g. after
/// removals) survive the round trip.
struct CheckpointImage {
    /// The LSN the checkpoint covers through.
    lsn: u64,
    /// Checkpoint epoch, plus one per folded record that changed the edge
    /// set.
    epoch: u64,
    symmetric: bool,
    cfg: EngineConfig,
    frag: Fragmentation,
    /// The last folded record's LSN (`lsn` before any), and how many
    /// records were folded.
    last_lsn: u64,
    replayed: usize,
}

fn encode_checkpoint(snapshot: &EngineSnapshot, lsn: u64, epoch: u64) -> Vec<u8> {
    let frag = snapshot.fragmentation();
    let cfg = snapshot.config();
    let mut payload = Vec::with_capacity(4096);
    put_u64(&mut payload, lsn);
    put_u64(&mut payload, epoch);
    payload.push(u8::from(snapshot.is_symmetric()));
    // Two slots `DSCKPT01` reserves (once the complementary scope and
    // `store_paths`): written as 1 / 0, skipped when read.
    payload.extend_from_slice(&[1, 0]);
    put_u64(&mut payload, cfg.max_chains as u64);
    put_u64(&mut payload, cfg.max_chain_len as u64);
    payload.push(mode_tag(cfg.mode));
    // A slot `DSCKPT01` reserves (once the PHE hub, a flag and a
    // fragment id): written absent, skipped when read.
    payload.push(0);
    put_u64(&mut payload, 0);
    // Two more slots `DSCKPT01` reserves (once `precompute_threads` and
    // `reach_index`): written as 1 / true, skipped when read.
    put_u64(&mut payload, 1);
    payload.push(1);
    put_u64(&mut payload, frag.node_count() as u64);
    put_u64(&mut payload, frag.fragment_count() as u64);
    for f in frag.fragments() {
        put_u64(&mut payload, f.nodes().len() as u64);
        for v in f.nodes() {
            put_u32(&mut payload, v.0);
        }
        put_u64(&mut payload, f.edges().len() as u64);
        for e in f.edges() {
            put_u32(&mut payload, e.src.0);
            put_u32(&mut payload, e.dst.0);
            put_u64(&mut payload, e.cost);
        }
    }
    let mut out = Vec::with_capacity(payload.len() + 12);
    out.extend_from_slice(CKPT_MAGIC);
    out.extend_from_slice(&payload);
    put_u32(&mut out, crc32(&payload));
    out
}

/// Validate and decode checkpoint file bytes. `None` on any torn,
/// corrupt or malformed content.
fn decode_checkpoint(bytes: &[u8]) -> Option<CheckpointImage> {
    if bytes.len() < CKPT_MAGIC.len() + 4 || &bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC {
        return None;
    }
    let payload = &bytes[CKPT_MAGIC.len()..bytes.len() - 4];
    let stored = &bytes[bytes.len() - 4..];
    let stored = u32::from_le_bytes([stored[0], stored[1], stored[2], stored[3]]);
    if crc32(payload) != stored {
        return None;
    }
    let mut c = Cursor::new(payload);
    let lsn = c.u64()?;
    let epoch = c.u64()?;
    let symmetric = c.u8()? != 0;
    // The reserved slots (see `encode_checkpoint`) are skipped: the old
    // scope and `store_paths` bytes, the hub's flag and id, then
    // `precompute_threads` and `reach_index`.
    c.u8()?;
    c.u8()?;
    let max_chains = usize::try_from(c.u64()?).ok()?;
    let max_chain_len = usize::try_from(c.u64()?).ok()?;
    let mode = mode_from(c.u8()?)?;
    c.u8()?;
    c.u64()?;
    c.u64()?;
    c.u8()?;
    let node_count = usize::try_from(c.u64()?).ok()?;
    let fragment_count = usize::try_from(c.u64()?).ok()?;
    // The payload is checksummed, so these counts are trusted sizes —
    // but still bounds-check every element read.
    let mut edge_sets = Vec::with_capacity(fragment_count.min(1 << 16));
    let mut seeds = Vec::with_capacity(fragment_count.min(1 << 16));
    for _ in 0..fragment_count {
        let n_nodes = usize::try_from(c.u64()?).ok()?;
        let mut nodes = Vec::with_capacity(n_nodes.min(1 << 20));
        for _ in 0..n_nodes {
            nodes.push(NodeId(c.u32()?));
        }
        let n_edges = usize::try_from(c.u64()?).ok()?;
        let mut edges = Vec::with_capacity(n_edges.min(1 << 20));
        for _ in 0..n_edges {
            let src = NodeId(c.u32()?);
            let dst = NodeId(c.u32()?);
            let cost = c.u64()?;
            edges.push(Edge::new(src, dst, cost));
        }
        edge_sets.push(edges);
        seeds.push(nodes);
    }
    if !c.done() {
        return None;
    }
    let frag = Fragmentation::new(node_count, edge_sets, seeds);
    // An image holding an edge no build admits is as malformed as a torn
    // one: building it would panic.
    if cost_over_limit(&frag).is_some() {
        return None;
    }
    Some(CheckpointImage {
        lsn,
        epoch,
        symmetric,
        cfg: EngineConfig {
            max_chains,
            max_chain_len,
            mode,
        },
        frag,
        last_lsn: lsn,
        replayed: 0,
    })
}

/// The newest checkpoint of `dir` that decodes, if any.
fn newest_image(dir: &Path) -> Option<CheckpointImage> {
    (checkpoint_paths(dir).into_iter().rev())
        .find_map(|(_, path)| decode_checkpoint(&fs::read(path).ok()?))
}

impl CheckpointImage {
    /// Apply every record past this image's LSN to its fragmentation, in
    /// order, by the structural edit rule the live writer applies. A
    /// record the rule refuses changes nothing and bumps no epoch — the
    /// writer acknowledged it as an error without applying anything.
    fn fold(mut self, records: &[WalRecord]) -> Self {
        for rec in records.iter().filter(|rec| rec.lsn > self.lsn) {
            if apply_edit(&mut self.frag, self.symmetric, &rec.update) == Ok(true) {
                self.epoch += 1;
            }
            self.last_lsn = rec.lsn;
            self.replayed += 1;
        }
        self
    }

    /// The first way `snapshot` (served at `epoch`) differs from this
    /// state, if it does: the symmetry flag, the epoch, or a fragment's
    /// connections (as a multiset — order is not state).
    fn difference(&self, snapshot: &EngineSnapshot, epoch: u64) -> Option<String> {
        if self.symmetric != snapshot.is_symmetric() {
            return Some("the symmetry flags differ".to_string());
        }
        if self.epoch != epoch {
            return Some(format!(
                "the directory is at epoch {}, the snapshot at epoch {epoch}",
                self.epoch
            ));
        }
        let edge_sets = |frag: &Fragmentation| -> Vec<Vec<Edge>> {
            let sorted = |f: &ds_fragment::Fragment| {
                let mut edges = f.edges().to_vec();
                edges.sort_unstable();
                edges
            };
            frag.fragments().iter().map(sorted).collect()
        };
        let (ours, theirs) = (edge_sets(&self.frag), edge_sets(snapshot.fragmentation()));
        if ours.len() != theirs.len() {
            return Some(format!("the directory holds {} fragments", ours.len()));
        }
        (ours.iter().zip(&theirs))
            .position(|(a, b)| a != b)
            .map(|f| format!("fragment {f} holds different connections"))
    }
}

// ------------------------------------------------------- directory scan

fn parse_stamped(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

fn ckpt_path(dir: &Path, lsn: u64) -> PathBuf {
    dir.join(format!("ckpt-{lsn:020}.bin"))
}

fn segment_path(dir: &Path, start_lsn: u64) -> PathBuf {
    dir.join(format!("wal-{start_lsn:020}.log"))
}

/// Checkpoint files in `dir`, sorted by LSN ascending.
pub fn checkpoint_paths(dir: &Path) -> Vec<(u64, PathBuf)> {
    stamped_paths(dir, "ckpt-", ".bin")
}

/// WAL segment files in `dir`, sorted by starting LSN ascending.
pub fn wal_paths(dir: &Path) -> Vec<(u64, PathBuf)> {
    stamped_paths(dir, "wal-", ".log")
}

fn stamped_paths(dir: &Path, prefix: &str, suffix: &str) -> Vec<(u64, PathBuf)> {
    let mut found = BTreeMap::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            if let Some(stamp) = name.to_str().and_then(|n| parse_stamped(n, prefix, suffix)) {
                found.insert(stamp, entry.path());
            }
        }
    }
    found.into_iter().collect()
}

/// The valid sequential record prefix of a directory's WAL.
struct WalScan {
    records: Vec<WalRecord>,
    /// Scanning hit a torn/corrupt frame or a sequence break.
    truncated: bool,
    /// Segment where scanning stopped (last segment when clean) plus the
    /// number of valid bytes in it — the repair point for appends.
    tail: Option<(PathBuf, u64)>,
    /// Segments lexically after the stop point (unreachable once the
    /// prefix is truncated).
    orphans: Vec<PathBuf>,
}

fn scan_wal(dir: &Path) -> Result<WalScan, DurabilityError> {
    let mut records: Vec<WalRecord> = Vec::new();
    let mut truncated = false;
    let mut tail = None;
    let mut orphans = Vec::new();
    for (_, path) in &wal_paths(dir) {
        if truncated {
            orphans.push(path.clone());
            continue;
        }
        let bytes = fs::read(path).map_err(|e| io_err("read", path, e))?;
        let mut pos = 0usize;
        while pos < bytes.len() {
            match decode_frame(&bytes[pos..]) {
                Some((rec, consumed)) => {
                    // Strictly sequential LSNs within and across
                    // segments: a break means lost context, and replay
                    // must stop at the last contiguous record.
                    if let Some(prev) = records.last() {
                        if rec.lsn != prev.lsn + 1 {
                            truncated = true;
                            break;
                        }
                    }
                    records.push(rec);
                    pos += consumed;
                }
                None => {
                    truncated = true;
                    break;
                }
            }
        }
        tail = Some((path.clone(), pos as u64));
    }
    Ok(WalScan {
        records,
        truncated,
        tail,
        orphans,
    })
}

fn open_segment(path: &Path) -> Result<File, DurabilityError> {
    OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)
        .map_err(|e| io_err("open segment", path, e))
}

// --------------------------------------------------------------- config

/// Where and how eagerly to persist. Obtain via [`DurabilityConfig::at`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Directory holding checkpoints and WAL segments.
    pub dir: PathBuf,
    /// Checkpoint after this many appended records (0 = never on its
    /// own). A record is at most 49 bytes, so the default bounds the log
    /// a recovery folds at about 200 KB.
    pub checkpoint_updates: u64,
}

impl DurabilityConfig {
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            checkpoint_updates: 4096,
        }
    }
}

// ---------------------------------------------------------------- store

/// The serve writer's handle on the durable state: appends group-committed
/// WAL batches, tracks the checkpoint thresholds, writes checkpoints and
/// rotates/prunes segments.
///
/// Single-writer by construction (owned by the serve writer thread); the
/// snapshot handed to [`DurableStore::attach`] must be the state the
/// directory recovers to — [`recover`] / `System::open` produce exactly
/// that — and `attach` checks it.
#[derive(Debug)]
pub struct DurableStore {
    cfg: DurabilityConfig,
    wal: File,
    wal_path: PathBuf,
    /// Valid durable bytes in the current segment (repair truncates here).
    wal_len: u64,
    /// A torn/failed append left garbage after `wal_len`; repaired lazily
    /// before the next append (recovery handles it too).
    needs_repair: bool,
    next_lsn: u64,
    last_ckpt_lsn: u64,
    records_since_ckpt: u64,
    fault: Option<Arc<FaultPlan>>,
    buf: Vec<u8>,
}

impl DurableStore {
    /// Open-or-create the durable state at `cfg.dir` for `snapshot`
    /// (current epoch `epoch`).
    ///
    /// * Fresh directory: writes the initial checkpoint (LSN 0) so a
    ///   later [`recover`] always has a base state, and starts segment 1.
    /// * Existing directory: `snapshot` at `epoch` must be the state the
    ///   directory recovers to — same symmetry, same epoch, the same
    ///   connections in every fragment — or the attach is refused with
    ///   [`DurabilityError::Diverged`]. Then repairs any torn WAL tail
    ///   and continues appending after the last durable record.
    pub fn attach(
        cfg: DurabilityConfig,
        snapshot: &EngineSnapshot,
        epoch: u64,
        fault: Option<Arc<FaultPlan>>,
    ) -> Result<Self, DurabilityError> {
        fs::create_dir_all(&cfg.dir).map_err(|e| io_err("create dir", &cfg.dir, e))?;
        let scan = scan_wal(&cfg.dir)?;
        let last_lsn = scan.records.last().map_or(0, |r| r.lsn);
        let Some(image) = newest_image(&cfg.dir) else {
            // No base state on disk (fresh dir, or stray segments with
            // no checkpoint): the caller's snapshot is authoritative —
            // checkpoint it, then start a fresh segment beyond any
            // stray record so LSNs never collide.
            let path = segment_path(&cfg.dir, last_lsn + 1);
            let mut store = DurableStore {
                wal: open_segment(&path)?,
                cfg,
                wal_path: path,
                wal_len: 0,
                needs_repair: false,
                next_lsn: last_lsn + 1,
                last_ckpt_lsn: last_lsn,
                records_since_ckpt: 0,
                fault,
                buf: Vec::with_capacity(4096),
            };
            store.checkpoint(snapshot, epoch)?;
            return Ok(store);
        };
        let folded = image.fold(&scan.records);
        if let Some(detail) = folded.difference(snapshot, epoch) {
            return Err(DurabilityError::Diverged {
                dir: cfg.dir,
                detail,
            });
        }
        // Continue the existing log: repair the tail, keep appending
        // (into a fresh segment when the checkpoint has none after it).
        let newest_ckpt = folded.lsn;
        let (path, valid) = match scan.tail {
            Some(tail) => tail,
            None => (segment_path(&cfg.dir, last_lsn + 1), 0),
        };
        let wal = open_segment(&path)?;
        let disk_len = wal.metadata().map_err(|e| io_err("stat", &path, e))?.len();
        for orphan in &scan.orphans {
            let _ = fs::remove_file(orphan);
        }
        Ok(DurableStore {
            cfg,
            wal,
            wal_path: path,
            wal_len: valid,
            needs_repair: scan.truncated || disk_len != valid,
            next_lsn: last_lsn.max(newest_ckpt) + 1,
            last_ckpt_lsn: newest_ckpt,
            records_since_ckpt: last_lsn.saturating_sub(newest_ckpt),
            fault,
            buf: Vec::with_capacity(4096),
        })
    }

    /// The LSN of the last durably appended record (0 before any).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// The LSN the newest durable checkpoint covers through.
    pub fn checkpoint_lsn(&self) -> u64 {
        self.last_ckpt_lsn
    }

    /// Whether the checkpoint threshold has tripped.
    pub fn should_checkpoint(&self) -> bool {
        self.cfg.checkpoint_updates > 0 && self.records_since_ckpt >= self.cfg.checkpoint_updates
    }

    /// Group-commit `updates` (stamped with the serve epoch current at
    /// append time): one buffered write, one `fdatasync` — an
    /// acknowledged update survives an OS crash.
    /// Returns the LSN of the first record.
    ///
    /// On failure — injected or real, including a torn write — nothing
    /// is acknowledged: the tail is marked for repair (truncated before
    /// the next append; [`recover`] truncates it too) and no LSN is
    /// consumed, so the caller must *not* apply the updates.
    pub fn append_batch(
        &mut self,
        epoch: u64,
        updates: &[NetworkUpdate],
    ) -> Result<u64, DurabilityError> {
        if updates.is_empty() {
            return Ok(self.next_lsn);
        }
        self.repair_tail()?;
        self.buf.clear();
        let first = self.next_lsn;
        for (i, update) in updates.iter().enumerate() {
            encode_record(
                &mut self.buf,
                &WalRecord {
                    lsn: first + i as u64,
                    epoch,
                    update: *update,
                },
            );
        }
        let write_len = match fire_disk(&self.fault, FaultPoint::WalAppend) {
            Some(DiskFault::Error) => {
                return Err(injected_err("append", &self.wal_path));
            }
            Some(DiskFault::Torn { keep }) => {
                // Simulate the crash mid-write: the first `keep` bytes
                // land, then the failure surfaces. The garbage stays on
                // disk until repair (or recovery) truncates it.
                let keep = keep.min(self.buf.len());
                self.wal
                    .write_all(&self.buf[..keep])
                    .map_err(|e| io_err("append", &self.wal_path, e))?;
                let _ = self.wal.flush();
                self.needs_repair = true;
                return Err(injected_err("append (torn)", &self.wal_path));
            }
            None => self.buf.len(),
        };
        if let Err(e) = self.wal.write_all(&self.buf[..write_len]) {
            self.needs_repair = true;
            return Err(io_err("append", &self.wal_path, e));
        }
        if fire_disk(&self.fault, FaultPoint::WalSync).is_some() {
            // Sync failed: durability of the written bytes is unknown.
            // Refuse the acknowledgement and repair before the next
            // append.
            self.needs_repair = true;
            return Err(injected_err("sync", &self.wal_path));
        }
        if let Err(e) = self.wal.sync_data() {
            self.needs_repair = true;
            return Err(io_err("sync", &self.wal_path, e));
        }
        self.wal_len += self.buf.len() as u64;
        self.next_lsn += updates.len() as u64;
        self.records_since_ckpt += updates.len() as u64;
        Ok(first)
    }

    /// Truncate un-acknowledged garbage off the segment tail.
    fn repair_tail(&mut self) -> Result<(), DurabilityError> {
        if !self.needs_repair {
            return Ok(());
        }
        self.wal
            .set_len(self.wal_len)
            .map_err(|e| io_err("truncate", &self.wal_path, e))?;
        self.wal
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek", &self.wal_path, e))?;
        self.needs_repair = false;
        Ok(())
    }

    /// Write a checkpoint of `snapshot` covering through [`Self::last_lsn`],
    /// rotate to a fresh WAL segment and prune everything the new
    /// checkpoint supersedes.
    ///
    /// Failure is non-fatal to durability: predecessors are pruned only
    /// after the new image is fully written and synced, so a torn or
    /// failed checkpoint leaves the old checkpoint + full WAL in place
    /// and [`recover`] ignores the invalid image (bad checksum).
    pub fn checkpoint(
        &mut self,
        snapshot: &EngineSnapshot,
        epoch: u64,
    ) -> Result<(), DurabilityError> {
        let lsn = self.last_lsn();
        let bytes = encode_checkpoint(snapshot, lsn, epoch);
        let path = ckpt_path(&self.cfg.dir, lsn);
        match fire_disk(&self.fault, FaultPoint::CheckpointWrite) {
            Some(DiskFault::Error) => return Err(injected_err("checkpoint", &path)),
            Some(DiskFault::Torn { keep }) => {
                // The crash-mid-checkpoint image: a prefix of the file
                // lands and fails its checksum on load.
                let keep = keep.min(bytes.len());
                fs::write(&path, &bytes[..keep]).map_err(|e| io_err("checkpoint", &path, e))?;
                return Err(injected_err("checkpoint (torn)", &path));
            }
            None => {}
        }
        let mut f = File::create(&path).map_err(|e| io_err("checkpoint", &path, e))?;
        f.write_all(&bytes)
            .map_err(|e| io_err("checkpoint", &path, e))?;
        f.sync_all()
            .map_err(|e| io_err("checkpoint sync", &path, e))?;
        drop(f);

        // The image is durable: rotate to a fresh segment, then prune
        // superseded checkpoints and fully-covered segments.
        let new_start = self.next_lsn;
        let new_path = segment_path(&self.cfg.dir, new_start);
        let wal = open_segment(&new_path)?;
        let old_path = std::mem::replace(&mut self.wal_path, new_path);
        self.wal = wal;
        self.wal_len = 0;
        self.needs_repair = false;
        self.last_ckpt_lsn = lsn;
        self.records_since_ckpt = 0;
        for (stamp, p) in checkpoint_paths(&self.cfg.dir) {
            if stamp < lsn {
                let _ = fs::remove_file(p);
            }
        }
        for (start, p) in wal_paths(&self.cfg.dir) {
            // A segment starting at `start` holds records >= start; it is
            // fully covered when all of them are <= the checkpoint LSN,
            // i.e. when the *next* segment starts at most at lsn + 1.
            if p != self.wal_path && p != old_path && start <= lsn {
                let _ = fs::remove_file(p);
            }
        }
        // The just-rotated-out segment is covered entirely by the new
        // checkpoint (its records are all <= lsn): safe to prune too.
        if old_path != self.wal_path {
            let _ = fs::remove_file(old_path);
        }
        Ok(())
    }

    /// Records with `lsn > after` in the durable log — the redo suffix a
    /// respawned writer replays to reconverge its working copy with the
    /// durable state (appended-but-unpublished updates).
    ///
    /// A writer that died between the write and its acknowledgement (at
    /// the sync hook, say) left whole records on the segment that this
    /// store never counted; the redo makes them effective, so the store
    /// adopts them and the log continues *after* them instead of reusing
    /// their LSNs.
    pub fn read_suffix(&mut self, after: u64) -> Result<Vec<WalRecord>, DurabilityError> {
        self.repair_tail()?;
        let scan = scan_wal(&self.cfg.dir)?;
        if let (Some(last), Some((path, valid))) = (scan.records.last(), &scan.tail) {
            if last.lsn >= self.next_lsn && *path == self.wal_path {
                self.records_since_ckpt += last.lsn + 1 - self.next_lsn;
                self.next_lsn = last.lsn + 1;
                self.wal_len = *valid;
                self.needs_repair = scan.truncated;
            }
        }
        Ok(scan.records.into_iter().filter(|r| r.lsn > after).collect())
    }
}

// -------------------------------------------------------------- recover

/// The outcome of [`recover`]: a rebuilt snapshot plus the replay
/// accounting the caller (and the chaos oracle) needs.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered engine state, precompute rebuilt.
    pub snapshot: EngineSnapshot,
    /// Checkpoint epoch plus one per *effective* replayed update — the
    /// epoch a serve tier resuming from this state should publish at.
    pub epoch: u64,
    /// The LSN the base checkpoint covered through.
    pub checkpoint_lsn: u64,
    /// The last replayed record's LSN (== `checkpoint_lsn` when none).
    pub last_lsn: u64,
    /// WAL records replayed on top of the checkpoint (effective or not).
    pub replayed: usize,
    /// Replay stopped at a torn/corrupt record before the log's physical
    /// end — the surviving prefix is what was recovered.
    pub truncated: bool,
}

/// Rebuild the newest consistent state from `dir`: newest valid
/// checkpoint, the contiguous WAL suffix (stopping at the first torn or
/// corrupt record) folded into its relation, then one engine build.
/// Never panics on garbage bytes; a directory with no valid checkpoint
/// (empty, WAL-only, or all images corrupt) is
/// [`DurabilityError::NoCheckpoint`].
pub fn recover(dir: impl AsRef<Path>) -> Result<Recovered, DurabilityError> {
    let dir = dir.as_ref();
    let image = newest_image(dir).ok_or_else(|| DurabilityError::NoCheckpoint {
        dir: dir.to_path_buf(),
    })?;
    let scan = scan_wal(dir)?;
    let folded = image.fold(&scan.records);
    Ok(Recovered {
        snapshot: EngineSnapshot::build(folded.frag, folded.symmetric, folded.cfg),
        epoch: folded.epoch,
        checkpoint_lsn: folded.lsn,
        last_lsn: folded.last_lsn,
        replayed: folded.replayed,
        truncated: scan.truncated,
    })
}

// ----------------------------------------------------------------- tests

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::ScratchDijkstra;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ds-durability-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// A 2-fragment path graph 0-1-2-3-4-5, split {0,1,2} / {2,3,4,5}.
    fn small_snapshot() -> EngineSnapshot {
        let edges = |pairs: &[(u32, u32)]| -> Vec<Edge> {
            pairs
                .iter()
                .map(|&(a, b)| Edge::new(n(a), n(b), 1))
                .collect()
        };
        let f0 = edges(&[(0, 1), (1, 2)]);
        let f1 = edges(&[(2, 3), (3, 4), (4, 5)]);
        let frag = Fragmentation::new(6, vec![f0, f1], vec![vec![], vec![]]);
        EngineSnapshot::build(frag, true, EngineConfig::default())
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_round_trip_and_torn_decode() {
        let recs = [
            WalRecord {
                lsn: 7,
                epoch: 3,
                update: NetworkUpdate::Insert {
                    edge: Edge::new(n(1), n(2), 9),
                    owner: 0,
                },
            },
            WalRecord {
                lsn: 8,
                epoch: 4,
                update: NetworkUpdate::Remove {
                    src: n(4),
                    dst: n(5),
                    owner: 1,
                },
            },
        ];
        let mut buf = Vec::new();
        for r in &recs {
            encode_record(&mut buf, r);
        }
        let (r0, used0) = decode_frame(&buf).expect("first frame");
        assert_eq!(r0, recs[0]);
        let (r1, used1) = decode_frame(&buf[used0..]).expect("second frame");
        assert_eq!(r1, recs[1]);
        assert_eq!(used0 + used1, buf.len());
        // Every strict prefix of a frame is torn, never a panic.
        for cut in 0..used0 {
            assert!(decode_frame(&buf[..cut]).is_none(), "cut at {cut}");
        }
        // A flipped bit anywhere in the first frame invalidates it.
        for i in 0..used0 {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            if let Some((r, _)) = decode_frame(&bad) {
                assert_ne!(r, recs[0], "flip at {i} must not decode to the original");
            }
        }
    }

    #[test]
    fn checkpoint_round_trip_rebuilds_identical_answers() {
        let snap = small_snapshot();
        let bytes = encode_checkpoint(&snap, 42, 7);
        let img = decode_checkpoint(&bytes).expect("valid image");
        assert_eq!(img.lsn, 42);
        assert_eq!(img.epoch, 7);
        let rebuilt = EngineSnapshot::build(img.frag, img.symmetric, img.cfg);
        assert_eq!(rebuilt.graph().node_count(), snap.graph().node_count());
        assert_eq!(rebuilt.graph().edge_count(), snap.graph().edge_count());
        for (x, y) in [(0u32, 5u32), (1, 4), (5, 0)] {
            assert_eq!(
                ds_closure::baseline::shortest_path_cost(rebuilt.graph(), n(x), n(y)),
                ds_closure::baseline::shortest_path_cost(snap.graph(), n(x), n(y)),
                "{x}->{y}"
            );
        }
        // Corruption anywhere invalidates the image.
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(decode_checkpoint(&bad).is_none(), "flip at {i}");
        }
        assert!(decode_checkpoint(&bytes[..bytes.len() - 1]).is_none());
        assert!(decode_checkpoint(b"").is_none());
    }

    /// A checkpoint whose edge costs more than a network of its size
    /// admits (one written before the rule, or crafted) does not decode,
    /// as a malformed one does not: building it would panic. At the
    /// limit it decodes.
    #[test]
    fn a_checkpoint_with_an_edge_over_the_cost_limit_does_not_decode() {
        let limit = ds_closure::bulk::max_edge_cost(6);
        let with_last_cost = |cost: u64| {
            let mut bytes = encode_checkpoint(&small_snapshot(), 42, 7);
            // The last fragment's last edge ends with its cost, before the CRC.
            let end = bytes.len() - 4;
            bytes[end - 8..end].copy_from_slice(&cost.to_le_bytes());
            let crc = crc32(&bytes[CKPT_MAGIC.len()..end]);
            bytes[end..].copy_from_slice(&crc.to_le_bytes());
            decode_checkpoint(&bytes)
        };
        let img = with_last_cost(limit).expect("at the limit");
        assert_eq!(
            img.frag.fragment(1).edges().last().map(|e| e.cost),
            Some(limit)
        );
        assert!(with_last_cost(limit + 1).is_none());
    }

    /// The byte after the scope once said whether routes were on; a
    /// checkpoint written with it at 1 recovers to the same state, and
    /// the rebuilt engine answers `route` like every engine does.
    #[test]
    fn a_checkpoint_with_the_old_routes_byte_set_recovers() {
        let snap = small_snapshot();
        let mut bytes = encode_checkpoint(&snap, 42, 7);
        // Magic, LSN, epoch, symmetry flag and scope come first.
        let slot = CKPT_MAGIC.len() + 8 + 8 + 1 + 1;
        assert_eq!(bytes[slot], 0, "written as 0");
        bytes[slot] = 1;
        let end = bytes.len() - 4;
        let crc = crc32(&bytes[CKPT_MAGIC.len()..end]);
        bytes[end..].copy_from_slice(&crc.to_le_bytes());
        let img = decode_checkpoint(&bytes).expect("the slot is skipped");
        assert_eq!(img.difference(&snap, 7), None);
        let rebuilt = EngineSnapshot::build(img.frag, img.symmetric, img.cfg);
        let route = (rebuilt.route(n(0), n(5), &mut ScratchDijkstra::new()))
            .expect("both endpoints in a fragment")
            .expect("connected");
        assert_eq!(route.cost, 5);
        assert_eq!(route.nodes, (0..6).map(n).collect::<Vec<_>>());
        assert_eq!((route.chain, route.waypoints), (vec![0, 1], vec![n(2)]));
    }

    /// A checkpoint written under the paper's complementary scope (tag 0)
    /// and with a PHE hub fragment decodes, the two slots skipped, and
    /// recovers to an engine whose answers equal Dijkstra's.
    #[test]
    fn a_checkpoint_with_the_old_scope_and_hub_slots_recovers() {
        let snap = small_snapshot();
        let mut bytes = encode_checkpoint(&snap, 42, 7);
        // Magic, LSN, epoch and symmetry flag; then the scope, the old
        // routes byte, both chain caps and the mode; then the hub.
        let scope = CKPT_MAGIC.len() + 8 + 8 + 1;
        let hub = scope + 1 + 1 + 8 + 8 + 1;
        assert_eq!((bytes[scope], bytes[hub]), (1, 0), "written as the default");
        bytes[scope] = 0;
        bytes[hub] = 1;
        bytes[hub + 1..hub + 9].copy_from_slice(&1u64.to_le_bytes());
        let end = bytes.len() - 4;
        let crc = crc32(&bytes[CKPT_MAGIC.len()..end]);
        bytes[end..].copy_from_slice(&crc.to_le_bytes());
        let img = decode_checkpoint(&bytes).expect("the slots are skipped");
        assert_eq!(img.difference(&snap, 7), None);

        let dir = tmpdir("old-slots");
        fs::create_dir_all(&dir).expect("create dir");
        fs::write(ckpt_path(&dir, 42), &bytes).expect("write checkpoint");
        let rec = recover(&dir).expect("recover");
        assert_eq!((rec.epoch, rec.checkpoint_lsn, rec.replayed), (7, 42, 0));
        let mut scratch = ScratchDijkstra::new();
        for x in (0..6).map(n) {
            for y in (0..6).map(n) {
                let want = ds_closure::baseline::shortest_path_cost(snap.graph(), x, y);
                let got = rec.snapshot.shortest_path(x, y, &mut scratch).cost;
                assert_eq!(got, want, "{x}->{y}");
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attach_append_recover_cycle() {
        let dir = tmpdir("cycle");
        let snap = small_snapshot();
        let mut store =
            DurableStore::attach(DurabilityConfig::at(&dir), &snap, 0, None).expect("attach");
        assert_eq!(store.last_lsn(), 0);

        // Three appends: an effective insert, a no-op removal, an
        // effective removal.
        let ins = NetworkUpdate::Insert {
            edge: Edge::new(n(0), n(2), 1),
            owner: 0,
        };
        let noop = NetworkUpdate::Remove {
            src: n(0),
            dst: n(5),
            owner: 1,
        };
        let rem = NetworkUpdate::Remove {
            src: n(0),
            dst: n(2),
            owner: 0,
        };
        assert_eq!(store.append_batch(0, &[ins]).expect("append"), 1);
        assert_eq!(store.append_batch(1, &[noop, rem]).expect("append"), 2);
        assert_eq!(store.last_lsn(), 3);

        let rec = recover(&dir).expect("recover");
        assert_eq!(rec.checkpoint_lsn, 0);
        assert_eq!(rec.replayed, 3);
        assert_eq!(rec.last_lsn, 3);
        assert!(!rec.truncated);
        // Insert then remove of the same edge: effective twice.
        assert_eq!(rec.epoch, 2);
        assert_eq!(
            rec.snapshot.graph().edge_count(),
            snap.graph().edge_count(),
            "insert+remove cancels out"
        );

        // Re-attach continues the LSN sequence.
        let mut store2 =
            DurableStore::attach(DurabilityConfig::at(&dir), &rec.snapshot, rec.epoch, None)
                .expect("re-attach");
        assert_eq!(store2.last_lsn(), 3);
        assert_eq!(store2.append_batch(2, &[ins]).expect("append"), 4);
        let rec2 = recover(&dir).expect("recover again");
        assert_eq!(rec2.replayed, 4);
        drop(store2);

        // Only the state the directory recovers to may continue its log:
        // a stale epoch, and the right epoch over the wrong connections,
        // are both refused.
        for (stale, epoch) in [(&snap, 0), (&rec.snapshot, rec2.epoch)] {
            let refused = DurableStore::attach(DurabilityConfig::at(&dir), stale, epoch, None);
            assert!(
                matches!(refused, Err(DurabilityError::Diverged { .. })),
                "epoch {epoch}: {refused:?}"
            );
        }
        DurableStore::attach(DurabilityConfig::at(&dir), &rec2.snapshot, rec2.epoch, None)
            .expect("the recovered state attaches");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rotates_prunes_and_recovery_prefers_it() {
        let dir = tmpdir("ckpt");
        let snap = small_snapshot();
        let mut cfg = DurabilityConfig::at(&dir);
        cfg.checkpoint_updates = 2;
        let mut store = DurableStore::attach(cfg, &snap, 0, None).expect("attach");
        let mut live = snap.clone();
        let mut scratch = ScratchDijkstra::new();
        let mut epoch = 0u64;
        for i in 0..5u64 {
            let update = NetworkUpdate::Insert {
                edge: Edge::new(n(0), n(2), 10 + i),
                owner: 0,
            };
            store.append_batch(epoch, &[update]).expect("append");
            live.maintain(&update, &mut scratch).expect("apply");
            epoch += 1;
            if store.should_checkpoint() {
                store.checkpoint(&live, epoch).expect("checkpoint");
            }
        }
        // Thresholds tripped at least twice; old state was pruned.
        let ckpts = checkpoint_paths(&dir);
        assert_eq!(ckpts.len(), 1, "superseded checkpoints pruned: {ckpts:?}");
        assert!(ckpts[0].0 >= 4);
        assert!(wal_paths(&dir).len() <= 2, "covered segments pruned");

        let rec = recover(&dir).expect("recover");
        assert_eq!(rec.epoch, epoch);
        assert!(rec.replayed <= 1, "most updates come from the checkpoint");
        for (x, y) in [(0u32, 5u32), (0, 2), (3, 1)] {
            assert_eq!(
                ds_closure::baseline::shortest_path_cost(rec.snapshot.graph(), n(x), n(y)),
                ds_closure::baseline::shortest_path_cost(live.graph(), n(x), n(y)),
                "{x}->{y}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_is_invisible_after_recovery_and_repair() {
        let dir = tmpdir("torn");
        let snap = small_snapshot();
        let plan = Arc::new(FaultPlan::new().torn_at(FaultPoint::WalAppend, 2, 5));
        let mut store = DurableStore::attach(
            DurabilityConfig::at(&dir),
            &snap,
            0,
            Some(Arc::clone(&plan)),
        )
        .expect("attach");
        let u1 = NetworkUpdate::Insert {
            edge: Edge::new(n(0), n(2), 3),
            owner: 0,
        };
        let u2 = NetworkUpdate::Insert {
            edge: Edge::new(n(3), n(5), 3),
            owner: 1,
        };
        store.append_batch(0, &[u1]).expect("first append clean");
        let err = store
            .append_batch(1, &[u2])
            .expect_err("second append torn");
        assert!(matches!(err, DurabilityError::Io { .. }));

        // Recovery sees the clean prefix only.
        let rec = recover(&dir).expect("recover over torn tail");
        assert_eq!(rec.replayed, 1);
        assert!(rec.truncated, "the torn frame was detected");

        // The store repairs the tail before the next append; the rule is
        // one-shot so this one lands.
        store.append_batch(1, &[u2]).expect("append after repair");
        let rec2 = recover(&dir).expect("recover clean");
        assert_eq!(rec2.replayed, 2);
        assert!(!rec2.truncated);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_checkpoint_leaves_recovery_intact() {
        let dir = tmpdir("ckpt-fault");
        let snap = small_snapshot();
        let plan = Arc::new(
            FaultPlan::new()
                .torn_at(FaultPoint::CheckpointWrite, 2, 16)
                .fail_at(FaultPoint::CheckpointWrite, 3),
        );
        // Occurrence 1 is the attach-time initial checkpoint: clean.
        let mut store = DurableStore::attach(
            DurabilityConfig::at(&dir),
            &snap,
            0,
            Some(Arc::clone(&plan)),
        )
        .expect("attach");
        let mut live = snap.clone();
        let mut scratch = ScratchDijkstra::new();
        let update = NetworkUpdate::Insert {
            edge: Edge::new(n(0), n(2), 2),
            owner: 0,
        };
        store.append_batch(0, &[update]).expect("append");
        live.maintain(&update, &mut scratch).expect("apply");

        // Torn checkpoint image: write fails, old state stays usable.
        assert!(store.checkpoint(&live, 1).is_err());
        let rec = recover(&dir).expect("recover past torn checkpoint");
        assert_eq!(rec.checkpoint_lsn, 0, "fell back to the initial image");
        assert_eq!(rec.replayed, 1);
        assert_eq!(rec.epoch, 1);

        // Injected error: same story.
        assert!(store.checkpoint(&live, 1).is_err());
        assert!(recover(&dir).is_ok());

        // Rules exhausted: the checkpoint lands and takes over.
        store.checkpoint(&live, 1).expect("clean checkpoint");
        let rec2 = recover(&dir).expect("recover from new checkpoint");
        assert_eq!(rec2.checkpoint_lsn, 1);
        assert_eq!(rec2.replayed, 0);
        assert_eq!(rec2.epoch, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_and_wal_only_dirs_are_typed_errors() {
        let dir = tmpdir("empty");
        assert!(matches!(
            recover(&dir),
            Err(DurabilityError::NoCheckpoint { .. })
        ));
        fs::create_dir_all(&dir).expect("mkdir");
        assert!(matches!(
            recover(&dir),
            Err(DurabilityError::NoCheckpoint { .. })
        ));
        // WAL-only: records with no base state to replay onto.
        let mut buf = Vec::new();
        encode_record(
            &mut buf,
            &WalRecord {
                lsn: 1,
                epoch: 0,
                update: NetworkUpdate::Remove {
                    src: n(0),
                    dst: n(1),
                    owner: 0,
                },
            },
        );
        fs::write(segment_path(&dir, 1), &buf).expect("write segment");
        assert!(matches!(
            recover(&dir),
            Err(DurabilityError::NoCheckpoint { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_suffix_returns_unpublished_records() {
        let dir = tmpdir("suffix");
        let snap = small_snapshot();
        let mut store =
            DurableStore::attach(DurabilityConfig::at(&dir), &snap, 0, None).expect("attach");
        let updates: Vec<NetworkUpdate> = (0..4u64)
            .map(|i| NetworkUpdate::Insert {
                edge: Edge::new(n(0), n(2), 5 + i),
                owner: 0,
            })
            .collect();
        store.append_batch(0, &updates).expect("append");
        let suffix = store.read_suffix(2).expect("suffix");
        assert_eq!(suffix.iter().map(|r| r.lsn).collect::<Vec<_>>(), vec![3, 4]);
        assert!(store.read_suffix(4).expect("empty suffix").is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
