//! The deletion write-ahead log: append-only CRC frames, one fsync per
//! applier round, and checkpoint compaction.
//!
//! An append-only file of length-prefixed, CRC-checksummed frames. The
//! applier appends a batch's frame only after the batch applied, then
//! makes **one** fsync for every frame of the round — across all
//! sessions — before anything is published or acknowledged (see the
//! `server` module docs), so an acknowledged change can always be redone
//! after a crash.
//!
//! # Frame format
//!
//! ```text
//! [u32 len][u32 crc32][payload: len bytes]
//! payload = u8 kind (2 = delta record, 1 = checkpoint)
//!
//! kind 2:   u64 lsn
//!           u32 session-name len + bytes (UTF-8)
//!           u8  method index into Method::ALL
//!           u64 removed-id count + that many u64 stable ids
//!           u8  keep_last flag (+ u64 keep_last)
//!           u8  added flag (+ u64 num_features, u64 num_rows,
//!                           num_rows*num_features f64 bit patterns,
//!                           num_rows f64 label bit patterns)
//!
//! kind 1:   u64 next_lsn (the LSN counter at checkpoint time)
//!           u64 floor count + per floor:
//!               u32 session-name len + bytes, u64 floor LSN
//! ```
//!
//! All integers little-endian; all `f64`s as [`f64::to_bits`] so redo
//! reconstructs the exact added block the live path applied. The CRC
//! (CRC-32/IEEE, hand-rolled table — no dependencies) covers the payload
//! only: a torn length prefix already fails the length check.
//!
//! Kind 0 was the delta frame of older servers, which also linked each
//! speculatively resolved record to its antecedent. It no longer decodes:
//! [`Wal::open`] refuses such a log rather than truncating it.
//!
//! # Commit
//!
//! [`GroupWal`] is the shared front the applier and the snapshot thread
//! use. [`GroupWal::append`] writes one frame and assigns its LSN under
//! the log mutex (so LSN order is file order); [`GroupWal::sync`] makes
//! one fsync covering every frame appended since the last one — the
//! applier calls it once per round, after every session's batches were
//! computed. An append or fsync failure marks the log **broken** —
//! sticky, because a failed `write_all` may leave a partial frame that
//! later frames would land behind — and every subsequent operation fails
//! fast.
//!
//! # Checkpoints
//!
//! [`GroupWal::checkpoint_if_due`] bounds the log: once enough bytes were
//! appended, it takes the per-session covered-LSN floors implied by the
//! durable snapshots, rewrites the live suffix (every record at or past
//! its session's floor) into a new log headed by a kind-1 checkpoint
//! frame, atomically renames it over the old one, and truncates
//! everything every session's snapshots already cover. The checkpoint
//! frame preserves the LSN counter so sequence numbers never rewind.
//! Crash points `checkpoint-mid-rewrite` / `checkpoint-before-rename` /
//! `checkpoint-after-rename` leave either the old log (plus an ignored
//! `.tmp`) or the complete new one.
//!
//! # Torn tails and undecodable frames
//!
//! The reader returns the longest valid frame prefix plus a typed
//! [`WalTail`] describing why it stopped. A torn tail (truncated frame,
//! bad checksum, oversized length) is *normal* after a crash — the frame
//! that was mid-write was by definition unacknowledged — so opening the
//! log truncates the file back to the valid prefix before appending
//! again. A frame that passes its checksum but does not decode
//! ([`WalTail::BadPayload`]) is different: it was written whole, so
//! records behind it may be acknowledged. [`Wal::open`] refuses such a
//! log with a typed error and leaves the file untouched. What the reader
//! never does is panic or apply half a frame.
//!
//! # Records store *resolved* deltas
//!
//! A record carries the union removal set as **stable ids after retention
//! expiry** and the method the cost model chose. Both resolutions are
//! timing-dependent (the planner's coalescing window decides what folds
//! into the batch; the EMA cost model decides the method from measured
//! seconds), so redo must not re-derive them. Everything downstream of
//! the record — id translation, `apply_delta`, survivor computation,
//! fresh-id assignment — is deterministic, which is what makes replay
//! bitwise-exact. Every record was resolved against the actual state its
//! predecessor left and is logged only after its apply succeeded.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use priu_core::snapshot::{SnapshotReader, SnapshotWriter};
use priu_core::Method;

use crate::error::{Result, ServerError};
use crate::failpoint::fail_point;

/// Frames larger than this are rejected as corrupt (a length prefix of
/// garbage bytes would otherwise ask for gigabytes).
pub const MAX_WAL_FRAME_BYTES: u32 = 1 << 30;

/// Frame payload kind: one committed union delta. (Kind 0, the older
/// delta frame, is refused — see the module docs.)
const KIND_DELTA: u8 = 2;
/// Frame payload kind: a checkpoint (compaction marker).
const KIND_CHECKPOINT: u8 = 1;

/// One committed union delta, as redo needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Log sequence number, strictly increasing across the file.
    pub lsn: u64,
    /// The session the batch targeted.
    pub session: String,
    /// The method the cost model chose (recorded because the choice is
    /// timing-dependent and must not be re-derived on redo).
    pub method: Method,
    /// Resolved union removal set as stable ids — deletion requests plus
    /// retention expiry, exactly what the live batch removed.
    pub removed_ids: Vec<u64>,
    /// The retention bound the batch carried, if any (informational: the
    /// expiry it induced is already folded into `removed_ids`).
    pub keep_last: Option<u64>,
    /// Appended rows in FIFO admission order: `(num_features, features,
    /// labels)`. `None` when the batch appended nothing.
    pub added: Option<(usize, Vec<f64>, Vec<f64>)>,
}

/// A checkpoint frame: the compaction marker heading a rewritten log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// The LSN counter at checkpoint time — reopening seeds the next LSN
    /// from this even when every delta frame was truncated away, so the
    /// sequence never rewinds.
    pub next_lsn: u64,
    /// Per-session covered-LSN floors the compaction honored: every
    /// record of `session` with `lsn < floor` was dropped because a
    /// durable snapshot already folds it in. Sorted by session name.
    pub floors: Vec<(String, u64)>,
}

/// Why WAL reading stopped before end-of-file. A torn tail after a crash
/// is expected; recovery reports it and truncates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalTail {
    /// The file ends inside a frame header or payload.
    TruncatedFrame {
        /// Byte offset of the incomplete frame.
        at: u64,
    },
    /// A frame's payload does not match its stored CRC.
    BadChecksum {
        /// Byte offset of the corrupt frame.
        at: u64,
    },
    /// The frame passed its CRC but the payload did not decode — format
    /// corruption rather than torn bytes.
    BadPayload {
        /// Byte offset of the undecodable frame.
        at: u64,
        /// What failed to decode.
        reason: String,
    },
    /// A length prefix exceeding [`MAX_WAL_FRAME_BYTES`].
    OversizedFrame {
        /// Byte offset of the oversized frame.
        at: u64,
        /// The claimed length.
        len: u32,
    },
}

impl std::fmt::Display for WalTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalTail::TruncatedFrame { at } => write!(f, "truncated frame at byte {at}"),
            WalTail::BadChecksum { at } => write!(f, "checksum mismatch at byte {at}"),
            WalTail::BadPayload { at, reason } => {
                write!(f, "undecodable payload at byte {at}: {reason}")
            }
            WalTail::OversizedFrame { at, len } => {
                write!(f, "oversized frame ({len} bytes) at byte {at}")
            }
        }
    }
}

/// Result of scanning a WAL file: the valid record prefix, where it ends,
/// and why scanning stopped (if not clean EOF).
#[derive(Debug)]
pub struct WalScan {
    /// Every delta record of the valid prefix, in LSN order (checkpoint
    /// frames are reported separately, not here).
    pub records: Vec<WalRecord>,
    /// The newest checkpoint frame in the valid prefix, if any (a
    /// compacted log leads with one).
    pub checkpoint: Option<CheckpointRecord>,
    /// Byte offset where the valid prefix ends; appending resumes here.
    pub valid_bytes: u64,
    /// Why the scan stopped early; `None` means the whole file was valid.
    pub tail: Option<WalTail>,
}

// --- CRC-32 (IEEE 802.3, reflected) ---------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    })
}

/// CRC-32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// --- record codec ---------------------------------------------------------

fn method_index(method: Method) -> u8 {
    Method::ALL
        .iter()
        .position(|&m| m == method)
        .expect("every method is in Method::ALL") as u8
}

fn write_name(w: &mut SnapshotWriter, name: &str) {
    let bytes = name.as_bytes();
    w.u32(bytes.len() as u32);
    for &b in bytes {
        w.u8(b);
    }
}

fn read_name(r: &mut SnapshotReader, what: &'static str) -> std::result::Result<String, String> {
    let fail = |e: priu_core::CoreError| e.to_string();
    let len = r.u32(what).map_err(fail)? as usize;
    if len > r.remaining() {
        return Err(format!("{what} longer than payload"));
    }
    let mut name = Vec::with_capacity(len);
    for _ in 0..len {
        name.push(r.u8(what).map_err(fail)?);
    }
    String::from_utf8(name).map_err(|_| format!("{what} not UTF-8"))
}

fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.u8(KIND_DELTA);
    w.u64(record.lsn);
    write_name(&mut w, &record.session);
    w.u8(method_index(record.method));
    w.usize(record.removed_ids.len());
    for &id in &record.removed_ids {
        w.u64(id);
    }
    match record.keep_last {
        None => w.bool(false),
        Some(keep) => {
            w.bool(true);
            w.u64(keep);
        }
    }
    match &record.added {
        None => w.bool(false),
        Some((num_features, features, labels)) => {
            w.bool(true);
            w.usize(*num_features);
            w.usize(labels.len());
            for &x in features {
                w.f64(x);
            }
            for &y in labels {
                w.f64(y);
            }
        }
    }
    w.into_bytes()
}

fn decode_record(payload: &[u8]) -> std::result::Result<WalRecord, String> {
    let fail = |e: priu_core::CoreError| e.to_string();
    let mut r = SnapshotReader::new(payload);
    let kind = r.u8("frame kind").map_err(fail)?;
    if kind != KIND_DELTA {
        return Err(format!("expected delta frame, got kind {kind}"));
    }
    let lsn = r.u64("lsn").map_err(fail)?;
    let session = read_name(&mut r, "session name")?;
    let method_ix = r.u8("method").map_err(fail)? as usize;
    let method = *Method::ALL
        .get(method_ix)
        .ok_or_else(|| format!("bad method index {method_ix}"))?;
    let n = r.len(8, "removed ids").map_err(fail)?;
    let mut removed_ids = Vec::with_capacity(n);
    for _ in 0..n {
        removed_ids.push(r.u64("removed id").map_err(fail)?);
    }
    let keep_last = if r.bool("keep_last flag").map_err(fail)? {
        Some(r.u64("keep_last").map_err(fail)?)
    } else {
        None
    };
    let added = if r.bool("added flag").map_err(fail)? {
        let num_features = r.usize("num_features").map_err(fail)?;
        let num_rows = r.usize("num_rows").map_err(fail)?;
        let total = num_rows
            .checked_mul(num_features)
            .ok_or_else(|| "added block overflows".to_string())?;
        if total
            .checked_add(num_rows)
            .and_then(|n| n.checked_mul(8))
            .ok_or_else(|| "added block overflows".to_string())?
            > r.remaining()
        {
            return Err("added block larger than payload".to_string());
        }
        let mut features = Vec::with_capacity(total);
        for _ in 0..total {
            features.push(r.f64("added features").map_err(fail)?);
        }
        let mut labels = Vec::with_capacity(num_rows);
        for _ in 0..num_rows {
            labels.push(r.f64("added labels").map_err(fail)?);
        }
        Some((num_features, features, labels))
    } else {
        None
    };
    r.finish().map_err(fail)?;
    Ok(WalRecord {
        lsn,
        session,
        method,
        removed_ids,
        keep_last,
        added,
    })
}

fn encode_checkpoint(cp: &CheckpointRecord) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.u8(KIND_CHECKPOINT);
    w.u64(cp.next_lsn);
    w.usize(cp.floors.len());
    for (session, floor) in &cp.floors {
        write_name(&mut w, session);
        w.u64(*floor);
    }
    w.into_bytes()
}

fn decode_checkpoint(payload: &[u8]) -> std::result::Result<CheckpointRecord, String> {
    let fail = |e: priu_core::CoreError| e.to_string();
    let mut r = SnapshotReader::new(payload);
    let kind = r.u8("frame kind").map_err(fail)?;
    if kind != KIND_CHECKPOINT {
        return Err(format!("expected checkpoint frame, got kind {kind}"));
    }
    let next_lsn = r.u64("checkpoint next_lsn").map_err(fail)?;
    let n = r.len(12, "checkpoint floors").map_err(fail)?;
    let mut floors = Vec::with_capacity(n);
    for _ in 0..n {
        let session = read_name(&mut r, "floor session name")?;
        let floor = r.u64("floor lsn").map_err(fail)?;
        floors.push((session, floor));
    }
    r.finish().map_err(fail)?;
    Ok(CheckpointRecord { next_lsn, floors })
}

/// Appends one `[len][crc][payload]` frame to a byte buffer.
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

// --- scanning -------------------------------------------------------------

fn scan_bytes(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut checkpoint = None;
    let mut at = 0usize;
    let mut tail = None;
    while at < bytes.len() {
        if bytes.len() - at < 8 {
            tail = Some(WalTail::TruncatedFrame { at: at as u64 });
            break;
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        if len > MAX_WAL_FRAME_BYTES {
            tail = Some(WalTail::OversizedFrame { at: at as u64, len });
            break;
        }
        let body_start = at + 8;
        let Some(body_end) = body_start
            .checked_add(len as usize)
            .filter(|&e| e <= bytes.len())
        else {
            tail = Some(WalTail::TruncatedFrame { at: at as u64 });
            break;
        };
        let payload = &bytes[body_start..body_end];
        if crc32(payload) != crc {
            tail = Some(WalTail::BadChecksum { at: at as u64 });
            break;
        }
        let decoded = match payload.first() {
            Some(&KIND_DELTA) => decode_record(payload).map(|r| records.push(r)),
            Some(&KIND_CHECKPOINT) => decode_checkpoint(payload).map(|c| checkpoint = Some(c)),
            Some(&k) => Err(format!("unknown frame kind {k}")),
            None => Err("empty frame payload".to_string()),
        };
        if let Err(reason) = decoded {
            tail = Some(WalTail::BadPayload {
                at: at as u64,
                reason,
            });
            break;
        }
        at = body_end;
    }
    WalScan {
        records,
        checkpoint,
        valid_bytes: at as u64,
        tail,
    }
}

/// Scans a WAL file, returning the longest valid frame prefix. A missing
/// file is an empty log. Never panics on any byte sequence.
///
/// # Errors
/// Only genuine I/O failures ([`ServerError::Durability`]); corruption is
/// reported in [`WalScan::tail`], not as an error.
pub fn scan_wal(path: &Path) -> Result<WalScan> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalScan {
                records: Vec::new(),
                checkpoint: None,
                valid_bytes: 0,
                tail: None,
            })
        }
        Err(e) => return Err(ServerError::Durability(format!("reading WAL: {e}"))),
    };
    Ok(scan_bytes(&bytes))
}

// --- appending ------------------------------------------------------------

/// The append half of the log: owns the file handle and the LSN counter.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    next_lsn: u64,
}

impl Wal {
    /// Opens (or creates) the WAL at `path`, scanning the existing
    /// contents: the valid prefix (and any checkpoint frame) seeds the
    /// LSN counter, and any torn tail is truncated away so new frames
    /// never land behind garbage. Returns the scan so the caller can
    /// redo / report it.
    ///
    /// # Errors
    /// [`ServerError::Durability`] on I/O failure, and when a frame
    /// passes its checksum but does not decode ([`WalTail::BadPayload`] —
    /// e.g. a delta frame of an older format): the file is then left
    /// untouched, because records behind a whole frame may have been
    /// acknowledged.
    pub fn open(path: &Path) -> Result<(Wal, WalScan)> {
        let scan = scan_wal(path)?;
        if let Some(tail @ WalTail::BadPayload { .. }) = &scan.tail {
            return Err(ServerError::Durability(format!(
                "refusing to open WAL {}: {tail}",
                path.display()
            )));
        }
        let io = |what: &str, e: std::io::Error| {
            ServerError::Durability(format!("{what} {}: {e}", path.display()))
        };
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(false)
            .truncate(false)
            .write(true)
            .open(path)
            .map_err(|e| io("opening WAL", e))?;
        file.set_len(scan.valid_bytes)
            .map_err(|e| io("truncating WAL tail", e))?;
        file.seek(SeekFrom::Start(scan.valid_bytes))
            .map_err(|e| io("seeking WAL", e))?;
        sync_parent_dir(path)?;
        let next_lsn = scan
            .records
            .last()
            .map_or(0, |r| r.lsn + 1)
            .max(scan.checkpoint.as_ref().map_or(0, |c| c.next_lsn));
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                next_lsn,
            },
            scan,
        ))
    }

    /// The LSN the next appended record will get.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Appends one record *without* syncing: frame write and LSN
    /// assignment only (crash point `wal-after-append` after the write).
    /// The record is not durable until a subsequent fsync. Returns
    /// `(lsn, frame bytes)`.
    ///
    /// # Errors
    /// [`ServerError::Durability`] on I/O failure. A failed `write_all`
    /// may leave a partial frame, so the caller must treat the log as
    /// broken (see [`GroupWal`]).
    pub fn append(&mut self, record: &mut WalRecord) -> Result<(u64, u64)> {
        let lsn = self.next_lsn;
        record.lsn = lsn;
        let payload = encode_record(record);
        let mut frame = Vec::with_capacity(8 + payload.len());
        push_frame(&mut frame, &payload);
        self.file.write_all(&frame).map_err(|e| {
            ServerError::Durability(format!("appending WAL frame {}: {e}", self.path.display()))
        })?;
        fail_point("wal-after-append");
        self.next_lsn = lsn + 1;
        Ok((lsn, frame.len() as u64))
    }
}

// --- the shared log ---------------------------------------------------------

/// Cumulative durability counters, exposed through server stats and the
/// wire protocol so fsync amortisation is priced directly (mean frames
/// per fsync = `frames / fsyncs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Round fsyncs issued (checkpoint rewrites excluded).
    pub fsyncs: u64,
    /// Delta frames appended.
    pub frames: u64,
    /// Bytes appended (frame headers included).
    pub bytes: u64,
    /// Most frames one fsync covered.
    pub max_group: u64,
    /// Checkpoint compactions completed.
    pub checkpoints: u64,
}

#[derive(Debug)]
struct LogState {
    wal: Wal,
    /// Frames appended since the last fsync (or checkpoint rewrite).
    unsynced: u64,
    /// Sticky failure: a failed append may have left a partial frame, a
    /// failed fsync an indeterminate prefix — nothing after either can
    /// be trusted durable, so the log refuses further work.
    broken: Option<String>,
    stats: WalStats,
    /// Bytes appended since the last checkpoint (compaction trigger).
    bytes_since_checkpoint: u64,
}

/// The shared front of the WAL: appends, one fsync per applier round,
/// checkpoint compaction. See the module docs.
#[derive(Debug)]
pub struct GroupWal {
    state: Mutex<LogState>,
}

impl GroupWal {
    /// Wraps an already-opened [`Wal`] (the recovery path opens and scans
    /// first, then hands the log over for serving).
    pub fn new(wal: Wal) -> Self {
        Self {
            state: Mutex::new(LogState {
                wal,
                unsynced: 0,
                broken: None,
                stats: WalStats::default(),
                bytes_since_checkpoint: 0,
            }),
        }
    }

    /// Opens (or creates) the log at `path`.
    ///
    /// # Errors
    /// As [`Wal::open`].
    pub fn open(path: &Path) -> Result<(Self, WalScan)> {
        let (wal, scan) = Wal::open(path)?;
        Ok((Self::new(wal), scan))
    }

    fn lock(&self) -> MutexGuard<'_, LogState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The LSN the next appended record will get.
    pub fn next_lsn(&self) -> u64 {
        self.lock().wal.next_lsn
    }

    /// Cumulative durability counters.
    pub fn stats(&self) -> WalStats {
        self.lock().stats
    }

    /// Appends one record without syncing and returns its LSN (also set
    /// in `record.lsn`). The LSN is assigned under the same lock that
    /// orders the frames, so LSN order equals file order.
    ///
    /// # Errors
    /// [`ServerError::Durability`] on I/O failure or a previously broken
    /// log. An append failure breaks the log (partial frame).
    pub fn append(&self, record: &mut WalRecord) -> Result<u64> {
        let mut state = self.lock();
        if let Some(broken) = &state.broken {
            return Err(ServerError::Durability(broken.clone()));
        }
        match state.wal.append(record) {
            Ok((lsn, bytes)) => {
                state.unsynced += 1;
                state.stats.frames += 1;
                state.stats.bytes += bytes;
                state.bytes_since_checkpoint += bytes;
                Ok(lsn)
            }
            Err(err) => {
                state.broken = Some(err.to_string());
                Err(err)
            }
        }
    }

    /// Makes every frame appended so far durable with one fsync (crash
    /// points `wal-before-fsync` / `wal-after-fsync` around it). A no-op
    /// when nothing was appended since the last fsync or checkpoint.
    ///
    /// # Errors
    /// [`ServerError::Durability`] if the fsync failed or the log is
    /// broken; the caller must fail every batch the fsync was to cover
    /// (none of them is durable).
    pub fn sync(&self) -> Result<()> {
        let mut state = self.lock();
        if state.unsynced == 0 {
            return Ok(());
        }
        if let Some(broken) = &state.broken {
            return Err(ServerError::Durability(broken.clone()));
        }
        fail_point("wal-before-fsync");
        if let Err(e) = state.wal.file.sync_data() {
            let message = format!("syncing WAL {}: {e}", state.wal.path.display());
            state.broken = Some(message.clone());
            return Err(ServerError::Durability(message));
        }
        fail_point("wal-after-fsync");
        state.stats.fsyncs += 1;
        state.stats.max_group = state.stats.max_group.max(state.unsynced);
        state.unsynced = 0;
        Ok(())
    }

    /// Compacts the log if at least `threshold` bytes were appended since
    /// the last checkpoint: asks `floors` for the per-session covered-LSN
    /// floors — only then, so a checkpoint that is not due reads no
    /// snapshot file — rewrites every record at or past its session's
    /// floor (unknown sessions keep everything) into a new log headed by
    /// a checkpoint frame, fsyncs it, atomically renames it over the old
    /// one, and resumes appending there. Returns whether a checkpoint
    /// ran. Runs on the snapshot thread; appends and round fsyncs are
    /// excluded for the duration by the log mutex.
    ///
    /// Crash points: `checkpoint-mid-rewrite` (torn temp file, old log
    /// intact), `checkpoint-before-rename` (complete temp, old log
    /// intact), `checkpoint-after-rename` (new log in place, directory
    /// fsync pending).
    ///
    /// # Errors
    /// [`ServerError::Durability`] on I/O failure. Failures before the
    /// rename abandon the temp file and leave the log serving; failures
    /// after it break the log (the handle no longer matches the file).
    /// An error from `floors` abandons the checkpoint before any write.
    pub fn checkpoint_if_due(
        &self,
        threshold: u64,
        floors: impl FnOnce() -> Result<Vec<(String, u64)>>,
    ) -> Result<bool> {
        let mut state = self.lock();
        if state.broken.is_some() || state.bytes_since_checkpoint < threshold {
            return Ok(false);
        }
        let floors = floors()?;
        let path = state.wal.path.clone();
        // The mutex quiesces appends, so every frame in the file is
        // complete; unsynced frames are still visible (same page cache).
        let scan = scan_wal(&path)?;
        let floor_of = |session: &str| {
            floors
                .iter()
                .find(|(name, _)| name == session)
                .map_or(0, |&(_, floor)| floor)
        };
        let checkpoint = CheckpointRecord {
            next_lsn: state.wal.next_lsn,
            floors: floors.clone(),
        };
        let mut rewritten = Vec::new();
        push_frame(&mut rewritten, &encode_checkpoint(&checkpoint));
        for record in scan
            .records
            .iter()
            .filter(|r| r.lsn >= floor_of(&r.session))
        {
            push_frame(&mut rewritten, &encode_record(record));
        }

        let tmp = path.with_extension("wal.tmp");
        let io = |what: &str, p: &Path, e: std::io::Error| {
            ServerError::Durability(format!("{what} {}: {e}", p.display()))
        };
        let staged = (|| -> Result<()> {
            let mut file = OpenOptions::new()
                .create(true)
                .truncate(true)
                .write(true)
                .open(&tmp)
                .map_err(|e| io("creating", &tmp, e))?;
            // Two half-writes around the crash point, so the torture
            // suite can leave a genuinely torn rewrite behind.
            let mid = rewritten.len() / 2;
            file.write_all(&rewritten[..mid])
                .map_err(|e| io("writing", &tmp, e))?;
            fail_point("checkpoint-mid-rewrite");
            file.write_all(&rewritten[mid..])
                .map_err(|e| io("writing", &tmp, e))?;
            file.sync_data().map_err(|e| io("syncing", &tmp, e))
        })();
        if let Err(err) = staged {
            // The old log is untouched and still serving; drop the stage.
            let _ = std::fs::remove_file(&tmp);
            return Err(err);
        }
        fail_point("checkpoint-before-rename");
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(io("renaming checkpoint into place", &path, e));
        }
        fail_point("checkpoint-after-rename");

        // Past the rename the open handle writes to the *old* inode, so
        // any failure from here on breaks the log.
        let mut fatal = |message: String| -> ServerError {
            state.broken = Some(message.clone());
            ServerError::Durability(message)
        };
        if let Err(err) = sync_parent_dir(&path) {
            return Err(fatal(err.to_string()));
        }
        let reopened = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .and_then(|mut f| f.seek(SeekFrom::End(0)).map(|_| f));
        match reopened {
            Ok(file) => state.wal.file = file,
            Err(e) => {
                return Err(fatal(format!(
                    "reopening WAL after checkpoint {}: {e}",
                    path.display()
                )))
            }
        }
        // The rewrite was fully fsync'd before the rename, so everything
        // appended (synced or not) is now durable.
        state.unsynced = 0;
        state.bytes_since_checkpoint = 0;
        state.stats.checkpoints += 1;
        Ok(true)
    }
}

/// Fsyncs the directory containing `path`, making a create/rename in it
/// durable (no-op on platforms where directories cannot be opened).
pub fn sync_parent_dir(path: &Path) -> Result<()> {
    let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return Ok(());
    };
    match File::open(parent) {
        Ok(dir) => dir.sync_all().map_err(|e| {
            ServerError::Durability(format!("syncing directory {}: {e}", parent.display()))
        }),
        // Directories aren't openable everywhere; the rename itself is
        // still atomic, we just lose the metadata flush.
        Err(_) => Ok(()),
    }
}

/// Reads a whole file, distinguishing "missing" from other I/O failures.
pub(crate) fn read_file(path: &Path) -> Result<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(ServerError::Durability(format!(
            "reading {}: {e}",
            path.display()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(lsn: u64, session: &str) -> WalRecord {
        WalRecord {
            lsn,
            session: session.to_string(),
            method: Method::Priu,
            removed_ids: vec![3, 5, 8],
            keep_last: Some(40),
            added: Some((2, vec![1.5, -2.0, 0.25, 4.0], vec![1.0, -1.0])),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn append_scan_round_trip() {
        let dir = tempdir("wal-roundtrip");
        let path = dir.join("deltas.wal");
        let (mut wal, scan) = Wal::open(&path).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.checkpoint.is_none());
        assert!(scan.tail.is_none());
        for i in 0..5u64 {
            let mut r = record(999, &format!("s{}", i % 2));
            let (lsn, _) = wal.append(&mut r).unwrap();
            assert_eq!(lsn, i); // LSN is assigned by the log, not the caller
            assert_eq!(r.lsn, i);
        }
        drop(wal);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert!(scan.tail.is_none());
        assert_eq!(scan.records[3].lsn, 3);
        assert_eq!(scan.records[3].session, "s1");
        assert_eq!(scan.records[3].removed_ids, vec![3, 5, 8]);
        assert_eq!(scan.records[3].keep_last, Some(40));
        let (num_features, features, labels) = scan.records[3].added.clone().unwrap();
        assert_eq!(num_features, 2);
        assert_eq!(features, vec![1.5, -2.0, 0.25, 4.0]);
        assert_eq!(labels, vec![1.0, -1.0]);

        // Reopening resumes the LSN sequence after the valid prefix.
        let (wal, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert_eq!(wal.next_lsn(), 5);
    }

    #[test]
    fn torn_tail_is_reported_and_truncated() {
        let dir = tempdir("wal-torn");
        let path = dir.join("deltas.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        for _ in 0..3 {
            wal.append(&mut record(0, "s")).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();

        // Frame boundaries: a cut exactly there is indistinguishable from
        // a shorter log that ended cleanly.
        let clean = scan_wal(&path).unwrap();
        let mut boundaries = vec![0u64];
        for _ in &clean.records {
            // All frames are the same size here; recompute from the scan.
            boundaries.push(clean.valid_bytes / 3 * boundaries.len() as u64);
        }

        // Every truncation offset yields a clean prefix, never a panic; a
        // mid-frame cut is reported as a torn tail.
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_wal(&path).unwrap();
            assert!(scan.records.len() <= 3);
            assert!(scan.valid_bytes <= cut as u64);
            if boundaries.contains(&(cut as u64)) {
                assert!(scan.tail.is_none(), "boundary cut at {cut} misreported");
            } else {
                assert!(scan.tail.is_some(), "cut at {cut} lost a record silently");
            }
        }

        // A bit flip in the last frame's payload fails its checksum; the
        // prefix survives.
        let mut flipped = full.clone();
        let last = flipped.len() - 3;
        flipped[last] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(matches!(scan.tail, Some(WalTail::BadChecksum { .. })));

        // Reopening truncates the corrupt tail and appends cleanly after.
        let (mut wal, _) = Wal::open(&path).unwrap();
        assert_eq!(wal.next_lsn(), 2);
        wal.append(&mut record(0, "s")).unwrap();
        drop(wal);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert!(scan.tail.is_none());
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let dir = tempdir("wal-oversized");
        let path = dir.join("deltas.wal");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert!(scan.records.is_empty());
        assert!(matches!(scan.tail, Some(WalTail::OversizedFrame { .. })));
    }

    /// A frame that passes its checksum but does not decode — here a
    /// kind-0 delta frame of the older format behind a valid record — is
    /// refused on open, and the file is left byte for byte as it was.
    #[test]
    fn crc_valid_undecodable_frame_refuses_to_open() {
        let dir = tempdir("wal-bad-payload");
        let path = dir.join("deltas.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&mut record(0, "s")).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        push_frame(&mut bytes, &[0, 1, 0, 0, 0, 0, 0, 0, 0, 0]);
        std::fs::write(&path, &bytes).unwrap();

        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(matches!(scan.tail, Some(WalTail::BadPayload { .. })));
        let err = Wal::open(&path).unwrap_err();
        assert!(matches!(err, ServerError::Durability(_)), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "the log was modified");
    }

    #[test]
    fn group_commit_shares_fsyncs_and_acks_in_order() {
        let dir = tempdir("wal-group");
        let path = dir.join("deltas.wal");
        let (wal, _) = GroupWal::open(&path).unwrap();

        // Nothing appended: syncing is free.
        wal.sync().unwrap();
        assert_eq!(wal.stats().fsyncs, 0);

        // A round of appends, one sync for the lot: every record durable
        // in LSN order, one fsync counted, group size = round size.
        for i in 0..6u64 {
            let mut r = record(0, if i % 2 == 0 { "a" } else { "b" });
            assert_eq!(wal.append(&mut r).unwrap(), i);
            assert_eq!(r.lsn, i);
        }
        wal.sync().unwrap();
        let stats = wal.stats();
        assert_eq!(stats.frames, 6);
        assert_eq!(stats.fsyncs, 1);
        assert_eq!(stats.max_group, 6);
        assert!(stats.bytes > 0);
        let scan = scan_wal(&path).unwrap();
        let lsns: Vec<u64> = scan.records.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, (0..6).collect::<Vec<u64>>());
        assert!(scan.tail.is_none());

        // Syncing an already-durable log is free; the next round counts
        // its own group.
        wal.sync().unwrap();
        assert_eq!(wal.stats().fsyncs, 1);
        wal.append(&mut record(0, "a")).unwrap();
        wal.sync().unwrap();
        let stats = wal.stats();
        assert_eq!((stats.fsyncs, stats.frames, stats.max_group), (2, 7, 6));
    }

    #[test]
    fn checkpoint_truncates_covered_records_and_preserves_lsns() {
        let dir = tempdir("wal-checkpoint");
        let path = dir.join("deltas.wal");
        let (wal, _) = GroupWal::open(&path).unwrap();
        for i in 0..8u64 {
            let session = if i % 2 == 0 { "a" } else { "b" };
            wal.append(&mut record(0, session)).unwrap();
            wal.sync().unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();

        // Floors: a's snapshots cover LSN < 6, b's cover LSN < 3; session
        // a keeps {6}, b keeps {3, 5, 7}.
        let floors = vec![("a".to_string(), 6), ("b".to_string(), 3)];
        assert!(wal.checkpoint_if_due(1, || Ok(floors.clone())).unwrap());
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "compaction shrank the log");

        let scan = scan_wal(&path).unwrap();
        let lsns: Vec<u64> = scan.records.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, vec![3, 5, 6, 7]);
        let checkpoint = scan.checkpoint.expect("checkpoint frame");
        assert_eq!(checkpoint.next_lsn, 8);
        assert_eq!(checkpoint.floors, floors);

        // Below-threshold appends don't re-checkpoint — and never ask for
        // the floors.
        let not_due = wal.checkpoint_if_due(1 << 30, || panic!("floors read when not due"));
        assert!(!not_due.unwrap());

        // Appending continues the LSN sequence on the rewritten log.
        let mut r = record(0, "a");
        wal.append(&mut r).unwrap();
        wal.sync().unwrap();
        assert_eq!(r.lsn, 8);

        // Reopening seeds the counter from the checkpoint chain even if
        // every remaining delta frame were truncated away.
        let (reopened, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert_eq!(reopened.next_lsn(), 9);
    }

    #[test]
    fn checkpoint_of_a_fully_covered_log_keeps_only_the_marker() {
        let dir = tempdir("wal-checkpoint-empty");
        let path = dir.join("deltas.wal");
        let (wal, _) = GroupWal::open(&path).unwrap();
        for _ in 0..4 {
            wal.append(&mut record(0, "s")).unwrap();
        }
        // The rewrite is fsync'd, so it covers the unsynced frames too.
        assert!(wal
            .checkpoint_if_due(1, || Ok(vec![("s".to_string(), 4)]))
            .unwrap());
        wal.sync().unwrap();
        assert_eq!(wal.stats().fsyncs, 0);
        let scan = scan_wal(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.checkpoint.expect("marker").next_lsn, 4);
        // The counter survives the empty rewrite.
        let (reopened, _) = Wal::open(&path).unwrap();
        assert_eq!(reopened.next_lsn(), 4);
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("priu-{tag}-{}", std::process::id(),));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
