//! Restart recovery: latest valid snapshot per session + WAL suffix redo.
//!
//! # Algorithm
//!
//! 1. Open the WAL, which scans the valid frame prefix and truncates any
//!    torn tail (a torn tail is by construction unacknowledged — the ack
//!    only goes out after the fsync). A frame that passes its checksum
//!    but does not decode refuses the open instead, leaving the file
//!    untouched.
//! 2. For every session with a snapshot file, load the newest epoch that
//!    passes magic + CRC + decode, falling back to the previous epoch and
//!    reporting what was skipped.
//! 3. Redo the session's WAL records with `lsn >= covered_lsn`, in LSN
//!    order, through the **same** [`apply_delta`] call and the same
//!    [`SlotState::advance`] the live applier uses, under the same
//!    `PRIU_THREADS` × `PRIU_SIMD` pin — which is what makes the
//!    recovered model bitwise identical to the pre-crash one.
//!
//! Redo never re-derives anything timing-dependent: the record carries
//! the *resolved* removal set (stable ids, retention expiry folded in)
//! and the method the cost model chose. Translation back to row indices
//! is a binary search against the recovered id map.
//!
//! The live server logs a batch only after its apply succeeded against
//! the actual state its predecessor left, so every logged record redoes.
//! A record that does not — an id missing from the recovered id map, or
//! an engine failure — means the log is corrupt, and recovery fails with
//! a typed [`ServerError::Redo`] naming the record's LSN instead of
//! skipping an acknowledged change.
//!
//! [`apply_delta`]: priu_core::DeletionEngine::apply_delta

use std::path::Path;
use std::sync::Arc;

use priu_core::{DeletionEngine, Delta, DeltaRows, Method};

use crate::error::{Result, ServerError};
use crate::failpoint::fail_point;
use crate::registry::SlotState;
use crate::server::{dense_added, run_pinned, ServerConfig};
use crate::snapshot::{ensure_store_dirs, list_sessions, load_latest, SkippedSnapshot};
use crate::wal::{Wal, WalRecord};

/// The WAL file inside a durability directory.
pub const WAL_FILE: &str = "deltas.wal";

/// What recovery did for one session.
#[derive(Debug, Clone)]
pub struct SessionRecovery {
    /// The session restored.
    pub session: String,
    /// Epoch of the snapshot recovery started from.
    pub snapshot_epoch: u64,
    /// The LSN the snapshot covered; records at or past it were redone.
    pub covered_lsn: u64,
    /// WAL records successfully redone.
    pub redone: u64,
    /// Records skipped, `(lsn, reason)`. Always empty: every logged
    /// record redoes, and one that does not fails recovery with
    /// [`ServerError::Redo`]. Kept because the wire protocol's
    /// `RecoveryStatus` reports its length.
    pub skipped: Vec<(u64, String)>,
    /// The epoch the session recovered to.
    pub final_epoch: u64,
}

/// The full restart-recovery outcome, kept on the server and queryable
/// over the wire (`Request::Recovery`).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Per-session outcomes, sorted by session name.
    pub sessions: Vec<SessionRecovery>,
    /// Valid WAL records in the scanned prefix (all sessions).
    pub wal_records: u64,
    /// Rendered torn-tail description, if the WAL did not end cleanly.
    /// The tail was truncated; it contained no acknowledged change.
    pub wal_tail: Option<String>,
    /// Snapshot files that existed but were unusable (corrupt, torn,
    /// wrong magic); recovery fell back past them.
    pub snapshot_skips: Vec<SkippedSnapshot>,
    /// WAL records naming a session with no usable snapshot — nothing to
    /// redo onto. Zero unless a snapshot set was lost or corrupted
    /// wholesale (registration writes a baseline snapshot before any WAL
    /// record for the session can exist).
    pub orphan_records: u64,
}

/// Everything recovery hands the starting server: the restored sessions,
/// the opened WAL (positioned after the valid prefix), and the report.
#[derive(Debug)]
pub(crate) struct Recovered {
    pub sessions: Vec<(String, SlotState)>,
    pub wal: Wal,
    pub report: RecoveryReport,
}

/// Recovers a durability directory: loads snapshots, redoes the WAL
/// suffix, returns the restored state. An empty or absent directory
/// recovers to an empty server (first boot).
///
/// # Errors
/// [`ServerError::Durability`] on genuine I/O failure or a WAL frame that
/// passes its checksum but does not decode; [`ServerError::Redo`] when a
/// logged record does not redo. Torn tails and corrupt snapshot files are
/// skipped and reported, never an error and never a panic.
pub(crate) fn recover(cfg: &ServerConfig, dir: &Path) -> Result<Recovered> {
    ensure_store_dirs(dir)?;
    let (wal, scan) = Wal::open(&dir.join(WAL_FILE))?;
    let mut report = RecoveryReport {
        wal_records: scan.records.len() as u64,
        wal_tail: scan.tail.as_ref().map(|t| t.to_string()),
        ..RecoveryReport::default()
    };

    let mut sessions = Vec::new();
    let names = list_sessions(dir)?;
    let mut claimed = vec![false; scan.records.len()];
    for name in names {
        let (loaded, skips) = load_latest(dir, &name)?;
        report.snapshot_skips.extend(skips);
        let Some(snapshot) = loaded else {
            continue; // every epoch unusable; its records become orphans
        };
        let mut state = snapshot.state;
        let mut outcome = SessionRecovery {
            session: name.clone(),
            snapshot_epoch: state.epoch,
            covered_lsn: snapshot.covered_lsn,
            redone: 0,
            skipped: Vec::new(),
            final_epoch: state.epoch,
        };
        for (ix, record) in scan.records.iter().enumerate() {
            if record.session != name {
                continue;
            }
            claimed[ix] = true;
            if record.lsn < snapshot.covered_lsn {
                continue; // already folded into the snapshot
            }
            fail_point("recovery-mid-redo");
            redo_record(cfg, &mut state, record).map_err(|reason| ServerError::Redo {
                session: name.clone(),
                lsn: record.lsn,
                reason,
            })?;
            outcome.redone += 1;
        }
        outcome.final_epoch = state.epoch;
        report.sessions.push(outcome);
        sessions.push((name, state));
    }
    report.orphan_records = claimed.iter().filter(|&&c| !c).count() as u64;
    report.sessions.sort_by(|a, b| a.session.cmp(&b.session));
    sessions.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(Recovered {
        sessions,
        wal,
        report,
    })
}

/// Redoes one WAL record onto a recovered state: translates its stable
/// ids, runs the recorded method's `apply_delta`, and advances the state
/// exactly as the live commit did. `Err` leaves the state untouched.
fn redo_record(
    cfg: &ServerConfig,
    state: &mut SlotState,
    record: &WalRecord,
) -> std::result::Result<(), String> {
    // The record stores the resolved removal set — every id was present
    // when the live batch ran, so every id must resolve here too. The
    // ids are ascending (resolved from ascending indices), hence the
    // translated indices are ascending and duplicate-free as `Delta`
    // requires.
    let rows = record
        .removed_ids
        .iter()
        .map(|id| {
            state
                .ids
                .binary_search(id)
                .map_err(|_| format!("stable id {id} is not in the recovered id map"))
        })
        .collect::<std::result::Result<Vec<usize>, String>>()?;
    let added = record.added.as_ref().map(|(width, features, labels)| {
        dense_added(
            state.session.task(),
            *width,
            features.clone(),
            labels.clone(),
        )
    });
    let num_added = added.as_ref().map_or(0, |d| d.num_samples());
    let delta = Delta {
        removed: rows,
        added: added.map(DeltaRows::Dense),
    };
    let chained = run_pinned(cfg, || state.session.apply_delta(record.method, &delta))
        .map_err(|e| format!("{:?} apply failed: {e}", record.method))?;
    state.advance(
        Arc::new(chained.session),
        &delta.removed,
        num_added,
        record.method == Method::Retrain,
    );
    Ok(())
}
