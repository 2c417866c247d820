//! The delta service: session registry + planner + scheduler wired to
//! one applier thread, with an optional wire front-end.
//!
//! # Threads
//!
//! * **Callers** (any number) predict synchronously on immutable
//!   snapshots and enqueue change requests — deletions, additions,
//!   sliding-window ticks — receiving a [`DeleteTicket`].
//! * The **applier thread** — the only committer — sleeps on the planner
//!   condvar until a batch deadline (or a flush/shutdown poke), takes
//!   every ready batch, and runs them as one *round* (below). When
//!   several sessions are ready at once their batches fan out over the
//!   shared worker pool via [`par::run_tasks`].
//! * **Connections** ([`Server::serve_connection`]) each get a dedicated
//!   protocol reader thread plus a responder thread that resolves
//!   change tickets in admission order.
//!
//! # Rounds: one commit path
//!
//! 1. **Compute**, per session in parallel: each batch, in FIFO order, is
//!    resolved against the *actual* state the previous batch left (id
//!    translation, retention expiry), its method decided on that state's
//!    capture, and `apply_delta` run without publishing anything. On a
//!    durable server the batch's WAL frame is appended only once its
//!    apply succeeded; a failed apply fails only its own batch and writes
//!    no frame.
//! 2. **One fsync** for every frame the round appended, across all
//!    sessions.
//! 3. **Publish**: install each session's final state, hand the
//!    snapshots that fell due to the snapshot thread, and answer every
//!    request in order.
//!
//! Nothing becomes visible to predictions or acknowledged before it is
//! durable, and a batch resolved within a round sees exactly the state a
//! caller waiting on the previous ticket would have seen — so a backlog
//! commits the same bits as the same requests sent one at a time, while
//! sharing one fsync.
//!
//! # Determinism
//!
//! A coalesced batch commits exactly the session produced by **one**
//! [`DeletionEngine::apply_delta`] call with the union delta — removal
//! union over stable ids (plus any sliding-window expiry), additions in
//! FIFO admission order — the same call a direct engine user would make
//! with the folded [`Delta`]. Server results are therefore
//! bitwise-identical to engine results under the same `PRIU_THREADS` ×
//! `PRIU_SIMD` pin. [`ServerConfig::apply_threads`] /
//! [`ServerConfig::simd_level`] pin both on the applier thread
//! regardless of which thread admitted the requests.
//!
//! # Sliding-window retention (`Tick`)
//!
//! A tick batch resolves its retention bound at apply time against the
//! pre-batch id list: after the batch's deletions and additions, if more
//! than `keep_last` rows would remain, the **oldest pre-existing** rows
//! (lowest stable ids) are expired — never rows the same batch appends —
//! clamped so at least one pre-existing row survives. Expired rows ride
//! the same union delta, so a tick is still one engine call.
//!
//! [`DeletionEngine::apply_delta`]: priu_core::DeletionEngine::apply_delta

use std::collections::{BTreeSet, HashMap};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use priu_core::{DeletionEngine, Delta, DeltaRows, Method, Model, ModelKind, Session, TaskKind};
use priu_data::dataset::{DenseDataset, Labels};
use priu_linalg::par;
use priu_linalg::simd::{self, SimdLevel};
use priu_linalg::{Matrix, Vector};

use crate::error::{Result, ServerError};
use crate::failpoint::fail_point;
use crate::planner::{
    AddedRows, BatchReply, DeleteTicket, PlannerConfig, PlannerState, ReadyBatch,
};
use crate::protocol::{
    decode_request, encode_response, spawn_frame_reader, write_frame, RecoverySessionStatus,
    Request, Response, ResponseEnvelope,
};
use crate::recovery::{recover, RecoveryReport};
use crate::registry::{SessionRegistry, SessionSlot, SlotState};
use crate::scheduler::{CostModel, SchedulerConfig};
use crate::snapshot::{SnapshotJob, SnapshotService};
use crate::wal::{GroupWal, WalRecord, WalStats};

/// Durability configuration: where the WAL and snapshots live, and how
/// often snapshots are cut.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `deltas.wal` and `snapshots/`. Created on start.
    pub dir: PathBuf,
    /// Write a session snapshot every this many committed batches (a
    /// baseline snapshot is always written at registration). Bounds the
    /// WAL suffix redo to at most `snapshot_every - 1` records per
    /// session.
    pub snapshot_every: u64,
    /// WAL compaction threshold: when a background snapshot lands and
    /// leaves the snapshot queue empty, the log is checkpointed
    /// (rewritten down to the snapshot coverage frontier) once at least
    /// this many bytes were appended since the previous checkpoint.
    /// Bounds log size for long-lived servers.
    pub checkpoint_bytes: u64,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the default snapshot cadence (8)
    /// and a 1 MiB checkpoint threshold.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_every: 8,
            checkpoint_bytes: 1 << 20,
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Admission + coalescing planner configuration.
    pub planner: PlannerConfig,
    /// Cost-model scheduler configuration.
    pub scheduler: SchedulerConfig,
    /// Pins the worker-thread count for every batch apply (`None`
    /// inherits `PRIU_THREADS` / the machine default).
    pub apply_threads: Option<usize>,
    /// Pins the SIMD kernel level for every batch apply (`None` inherits
    /// `PRIU_SIMD` / runtime detection).
    pub simd_level: Option<SimdLevel>,
    /// Durable WAL + snapshots. `None` keeps the pre-durability behaviour
    /// (everything in memory, nothing survives a restart).
    pub durability: Option<DurabilityConfig>,
}

/// One prediction from one immutable snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Regression value, binary decision value, or the winning logit.
    pub value: f64,
    /// Predicted class for classifiers, `None` for regression.
    pub class: Option<usize>,
    /// Epoch of the snapshot that produced the prediction.
    pub epoch: u64,
}

/// Bookkeeping for one session.
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// Batches committed so far.
    pub epoch: u64,
    /// Surviving sample count.
    pub num_samples: usize,
    /// Feature count.
    pub num_features: usize,
    /// Rows removed incrementally since the last refit, over
    /// registration-time rows.
    pub drift: f64,
    /// Deletion requests pending in the planner.
    pub pending: usize,
    /// Scheduler decision histogram, [`Method::ALL`] order.
    pub decisions: Vec<(Method, u64)>,
}

/// The live durability state: the WAL plus the background snapshot
/// service. The WAL's internal mutex serialises appends across sessions
/// (a round's sessions fan out over the pool), which is also what assigns
/// the global LSN order; the applier fsyncs once per round.
struct Durability {
    snapshot_every: u64,
    wal: Arc<GroupWal>,
    snapshots: Arc<SnapshotService>,
}

struct Inner {
    registry: SessionRegistry,
    cfg: ServerConfig,
    planner: Mutex<PlannerState>,
    /// Pokes the applier: new admission, flush, or shutdown.
    work: Condvar,
    /// Per-session cost models (per-session mutexes so fanned-out batches
    /// never contend on one model).
    cost: Mutex<HashMap<String, Arc<Mutex<CostModel>>>>,
    /// WAL + snapshots, when configured.
    durability: Option<Durability>,
    /// What restart recovery found and redid (durable servers only).
    recovery: Option<RecoveryReport>,
    shutdown: AtomicBool,
}

impl Inner {
    fn planner(&self) -> MutexGuard<'_, PlannerState> {
        self.planner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn cost_model(&self, session: &str) -> Option<Arc<Mutex<CostModel>>> {
        self.cost
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(session)
            .cloned()
    }

    fn predict(&self, session: &str, features: &[f64]) -> Result<Prediction> {
        let slot = self.registry.get(session)?;
        let (snapshot, epoch) = slot.snapshot();
        let model = snapshot.model();
        if features.len() != model.num_features() {
            return Err(ServerError::FeatureMismatch {
                expected: model.num_features(),
                got: features.len(),
            });
        }
        Ok(predict_on(model, features, epoch))
    }

    fn delete(&self, session: &str, ids: Vec<u64>) -> Result<DeleteTicket> {
        self.change(session, ids, None, None)
    }

    /// Admits a general change request — deletions, appended rows, and/or
    /// a retention window. Appended rows are validated here, against the
    /// session's current snapshot, so one malformed add never fails a
    /// whole coalesced batch.
    fn change(
        &self,
        session: &str,
        ids: Vec<u64>,
        added: Option<AddedRows>,
        keep_last: Option<u64>,
    ) -> Result<DeleteTicket> {
        if self.shutdown.load(Ordering::Acquire) {
            return Err(ServerError::ShuttingDown);
        }
        let slot = self.registry.get(session)?; // admission check: session must exist
        if let Some(rows) = &added {
            let (snapshot, _) = slot.snapshot();
            validate_added_rows(&snapshot, rows)?;
        }
        let ticket = self.planner().enqueue_change(
            session,
            ids,
            added.filter(|r| r.num_rows() > 0),
            keep_last,
        );
        self.work.notify_all();
        Ok(ticket)
    }

    fn flush(&self, session: &str) -> Result<()> {
        self.registry.get(session)?;
        self.planner().flush(session);
        self.work.notify_all();
        Ok(())
    }

    fn stats(&self, session: &str) -> Result<SessionStats> {
        let slot = self.registry.get(session)?;
        let (snapshot, epoch) = slot.snapshot();
        let decisions = self
            .cost_model(session)
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner).decisions())
            .unwrap_or_default();
        Ok(SessionStats {
            epoch,
            num_samples: snapshot.num_samples(),
            num_features: snapshot.model().num_features(),
            drift: slot.drift(),
            pending: self.planner().pending(session),
            decisions,
        })
    }
}

/// Computes a prediction on a model snapshot (lock-free: the snapshot is
/// immutable).
fn predict_on(model: &Model, features: &[f64], epoch: u64) -> Prediction {
    match model.kind() {
        ModelKind::Linear => Prediction {
            value: model.predict_linear(features),
            class: None,
            epoch,
        },
        ModelKind::BinaryLogistic => Prediction {
            value: model.decision_value(features),
            class: Some(model.predict_class(features)),
            epoch,
        },
        ModelKind::MultinomialLogistic { .. } => {
            let class = model.predict_class(features);
            Prediction {
                value: model.logits(features)[class],
                class: Some(class),
                epoch,
            }
        }
    }
}

/// Admission-time validation of appended rows against the session they
/// target: shape, feature width, and label kind/range. Rejecting here
/// keeps a malformed add from failing the coalesced batch it would have
/// been folded into.
fn validate_added_rows(session: &Session, rows: &AddedRows) -> Result<()> {
    if rows.features.len() != rows.num_features * rows.labels.len() {
        return Err(ServerError::InvalidRows(format!(
            "{} features do not fill {} rows of width {}",
            rows.features.len(),
            rows.labels.len(),
            rows.num_features
        )));
    }
    if rows.num_rows() == 0 {
        return Ok(());
    }
    if session.dense_dataset().is_none() {
        return Err(ServerError::InvalidRows(
            "appended rows are dense but the session is sparse".to_string(),
        ));
    }
    let expected = session.model().num_features();
    if rows.num_features != expected {
        return Err(ServerError::FeatureMismatch {
            expected,
            got: rows.num_features,
        });
    }
    match session.task() {
        TaskKind::Regression => {}
        TaskKind::BinaryClassification => {
            if let Some(&bad) = rows.labels.iter().find(|&&l| l != 1.0 && l != -1.0) {
                return Err(ServerError::InvalidRows(format!(
                    "binary label {bad} is not ±1"
                )));
            }
        }
        TaskKind::MulticlassClassification { num_classes } => {
            if let Some(&bad) = rows
                .labels
                .iter()
                .find(|&&l| l.fract() != 0.0 || l < 0.0 || l >= num_classes as f64)
            {
                return Err(ServerError::InvalidRows(format!(
                    "class label {bad} is not an integer in 0..{num_classes}"
                )));
            }
        }
    }
    Ok(())
}

/// Concatenates a batch's appended rows in FIFO admission order:
/// `(width, features, labels)`. `None` when the batch appends nothing.
/// This flat form is exactly what the WAL records — redo rebuilds the
/// same dense block through [`dense_added`], so live and recovered
/// appends are bit-identical.
fn concat_added(batch: &ReadyBatch) -> Option<(usize, Vec<f64>, Vec<f64>)> {
    let mut width = 0;
    let mut features = Vec::new();
    let mut labels = Vec::new();
    for request in &batch.requests {
        if let Some(rows) = request.added.as_ref().filter(|r| r.num_rows() > 0) {
            width = rows.num_features;
            features.extend_from_slice(&rows.features);
            labels.extend_from_slice(&rows.labels);
        }
    }
    if labels.is_empty() {
        return None;
    }
    Some((width, features, labels))
}

/// Builds the dense appended block with task-appropriate labels — shared
/// by the live batch path and WAL redo. Shapes were validated at
/// admission (and ride the WAL verbatim).
pub(crate) fn dense_added(
    task: TaskKind,
    width: usize,
    features: Vec<f64>,
    labels: Vec<f64>,
) -> DenseDataset {
    let x = Matrix::from_vec(labels.len(), width, features).expect("shapes validated at admission");
    let labels = match task {
        TaskKind::Regression => Labels::Continuous(Vector::from_vec(labels)),
        TaskKind::BinaryClassification => Labels::Binary(Vector::from_vec(labels)),
        TaskKind::MulticlassClassification { num_classes } => Labels::Multiclass {
            classes: labels.into_iter().map(|l| l as u32).collect(),
            num_classes,
        },
    };
    DenseDataset::new(x, labels)
}

/// Runs `f` with the configured worker-thread count and SIMD level pinned
/// (both thread-local, so the pin travels with the applier regardless of
/// which thread admitted the work). Recovery redo runs under the same
/// pin, which is what keeps replayed results bitwise identical.
pub(crate) fn run_pinned<R>(cfg: &ServerConfig, f: impl FnOnce() -> R) -> R {
    match (cfg.apply_threads, cfg.simd_level) {
        (Some(t), Some(l)) => par::with_threads(t, || simd::with_level(l, f)),
        (Some(t), None) => par::with_threads(t, f),
        (None, Some(l)) => simd::with_level(l, f),
        (None, None) => f(),
    }
}

/// What one session's share of an applier round computed, held back
/// until the round's fsync: the state to publish, the snapshots that fell
/// due, and every batch's replies in FIFO order.
struct SessionRound {
    /// The slot and the state its last applied batch left; `None` when
    /// nothing applied (or the session was dropped between admission and
    /// batching, which fails every batch).
    commit: Option<(Arc<SessionSlot>, SlotState)>,
    /// Periodic snapshots that fell due during the round.
    snapshots: Vec<SnapshotJob>,
    /// Each batch with its per-request replies or its failure message.
    batches: Vec<(ReadyBatch, std::result::Result<Vec<BatchReply>, String>)>,
}

/// The compute half of a round for one session: every batch in FIFO
/// order is resolved against the *actual* state the previous batch left,
/// its method decided on that state's capture, applied, and — on a
/// durable server — logged. Nothing is published here.
fn compute_session(inner: &Inner, batches: Vec<ReadyBatch>) -> SessionRound {
    let name = batches[0].session.clone();
    let mut round = SessionRound {
        commit: None,
        snapshots: Vec::new(),
        batches: Vec::with_capacity(batches.len()),
    };
    let slot = match inner.registry.get(&name) {
        Ok(slot) => slot,
        Err(err) => {
            let message = err.to_string();
            round.batches = batches
                .into_iter()
                .map(|b| (b, Err(message.clone())))
                .collect();
            return round;
        }
    };
    let cost = inner.cost_model(&name);
    let mut state = slot.state();
    let epoch = state.epoch;
    for batch in batches {
        let result = compute_batch(inner, &name, &mut state, cost.as_deref(), &batch);
        let result = result.map(|(replies, snapshot)| {
            round.snapshots.extend(snapshot);
            replies
        });
        round.batches.push((batch, result));
    }
    round.commit = (state.epoch != epoch).then_some((slot, state));
    round
}

/// Resolves, decides, applies and logs one batch against `state`,
/// advancing it on success. Returns the batch's per-request replies plus
/// the snapshot job its epoch made due, if any. A failure leaves `state`
/// untouched and writes no WAL frame, so it fails only this batch.
fn compute_batch(
    inner: &Inner,
    name: &str,
    state: &mut SlotState,
    cost: Option<&Mutex<CostModel>>,
    batch: &ReadyBatch,
) -> std::result::Result<(Vec<BatchReply>, Option<SnapshotJob>), String> {
    // Translate stable ids → current row indices. The set keeps the
    // removal indices sorted and deduplicated against retention expiry.
    let mut removal: BTreeSet<usize> = batch
        .union
        .iter()
        .filter_map(|id| state.ids.binary_search(id).ok())
        .collect();
    let num_added = batch.num_added();

    // Resolve the retention window against the pre-batch id list: expire
    // the oldest pre-existing rows (lowest stable ids — the id map is
    // ascending) not already deleted, never same-batch additions, clamped
    // so at least one pre-existing row survives.
    let mut expired = 0usize;
    if let Some(keep) = batch.keep_last {
        let pre_survivors = state.ids.len() - removal.len();
        let over = (pre_survivors + num_added).saturating_sub(keep as usize);
        let to_expire = over.min(pre_survivors.saturating_sub(1));
        let mut ix = 0;
        while expired < to_expire {
            if removal.insert(ix) {
                expired += 1;
            }
            ix += 1;
        }
    }
    let rows: Vec<usize> = removal.into_iter().collect();
    // Per request `(requested, applied)` against the pre-batch ids.
    let acks: Vec<(usize, usize)> = batch
        .requests
        .iter()
        .map(|request| {
            let distinct: BTreeSet<u64> = request.ids.iter().copied().collect();
            let applied = distinct
                .iter()
                .filter(|id| state.ids.binary_search(id).is_ok())
                .count();
            (distinct.len(), applied)
        })
        .collect();
    let batch_rows = rows.len();
    let replies = |method: Option<Method>, seconds: f64, epoch: u64| -> Vec<BatchReply> {
        batch
            .requests
            .iter()
            .zip(&acks)
            .map(|(request, &(requested, applied))| BatchReply {
                requested,
                applied,
                stale: requested - applied,
                added: request.num_added(),
                expired,
                batch_rows,
                method,
                seconds,
                epoch,
            })
            .collect()
    };

    if rows.is_empty() && num_added == 0 {
        // Nothing to do: acknowledged without an engine call or an epoch.
        return Ok((replies(None, 0.0, state.epoch), None));
    }

    let drift_after = if state.initial_samples == 0 {
        0.0
    } else {
        (state.removed_since_refit + rows.len()) as f64 / state.initial_samples as f64
    };
    let method = match cost {
        Some(model) => model
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .decide_delta(
                &state.session.capture_snapshot(),
                rows.len(),
                num_added,
                drift_after,
            ),
        None => Method::Retrain,
    };
    // The one engine call the batch reduces to: the union delta,
    // additions concatenated in FIFO admission order.
    let added = concat_added(batch);
    let delta = Delta {
        removed: rows,
        added: added
            .clone()
            .map(|(width, features, labels)| {
                dense_added(state.session.task(), width, features, labels)
            })
            .map(DeltaRows::Dense),
    };
    let chained =
        run_pinned(&inner.cfg, || state.session.apply_delta(method, &delta)).map_err(|err| {
            format!("{method:?} removing {batch_rows} and adding {num_added} rows: {err}")
        })?;
    let seconds = chained.outcome.duration.as_secs_f64();
    let refit = method == Method::Retrain;
    if let Some(model) = cost {
        let mut model = model.lock().unwrap_or_else(PoisonError::into_inner);
        model.observe_delta(method, batch_rows, num_added, state.ids.len(), seconds);
        // A retrain's successor carries the measured offline phase of its
        // refit (training + provenance capture) — feed it to the flat
        // retrain term so scheduling tracks the real eigensolver.
        if refit {
            model.observe_offline(chained.session.capture_snapshot().training_seconds);
        }
    }
    fail_point("apply-before-commit");

    // Durability: the resolved removal set (stable ids after retention
    // expiry) and the chosen method — both timing-dependent and hence
    // recorded rather than re-derived — go to the WAL now that the apply
    // succeeded; the round's one fsync follows before anything publishes.
    let mut lsn = None;
    if let Some(durability) = &inner.durability {
        let mut record = WalRecord {
            lsn: 0,
            session: name.to_string(),
            method,
            removed_ids: delta.removed.iter().map(|&ix| state.ids[ix]).collect(),
            keep_last: batch.keep_last,
            added,
        };
        let appended = durability.wal.append(&mut record);
        lsn = Some(appended.map_err(|err| format!("durability failure: {err}"))?);
    }

    state.advance(Arc::new(chained.session), &delta.removed, num_added, refit);
    // Periodic snapshot: a copy-on-write handoff of the post-batch state,
    // enqueued once the round is durable. Best-effort: the WAL already
    // makes the batch durable, a failed snapshot only lengthens the next
    // redo.
    let snapshot = match (&inner.durability, lsn) {
        (Some(durability), Some(lsn)) if state.epoch.is_multiple_of(durability.snapshot_every) => {
            Some(SnapshotJob {
                session: name.to_string(),
                covered_lsn: lsn + 1,
                state: state.clone(),
                reply: None,
            })
        }
        _ => None,
    };
    Ok((replies(Some(method), seconds, state.epoch), snapshot))
}

/// The publish half of a round for one session, run after the round's
/// fsync: install the computed state, hand off the snapshots that fell
/// due, and answer every request in FIFO order. If the fsync failed,
/// nothing is installed and every request gets the durability error.
fn publish_session(inner: &Inner, round: SessionRound, synced: &std::result::Result<(), String>) {
    if synced.is_ok() {
        if let Some((slot, state)) = round.commit {
            slot.commit(state);
        }
        if let Some(durability) = &inner.durability {
            for job in round.snapshots {
                fail_point("snapshot-handoff");
                let (session, epoch) = (job.session.clone(), job.state.epoch);
                if let Err(err) = durability.snapshots.enqueue(job) {
                    eprintln!("scheduling snapshot of {session} at epoch {epoch}: {err}");
                }
            }
        }
        fail_point("before-ack");
    }
    for (batch, result) in round.batches {
        match synced.clone().and(result) {
            Ok(replies) => {
                for (request, reply) in batch.requests.iter().zip(replies) {
                    let _ = request.reply.send(Ok(reply));
                }
            }
            Err(message) => {
                for request in &batch.requests {
                    let _ = request
                        .reply
                        .send(Err(ServerError::BatchFailed(message.clone())));
                }
            }
        }
    }
}

fn applier_loop(inner: &Arc<Inner>) {
    loop {
        let ready: Vec<ReadyBatch> = {
            let mut planner = inner.planner();
            loop {
                // One read per pass: exiting on a shutdown this pass did
                // not flush for would abandon admitted requests.
                let stopping = inner.shutdown.load(Ordering::Acquire);
                if stopping {
                    planner.flush_all();
                }
                let ready = planner.take_ready(Instant::now(), &inner.cfg.planner);
                if !ready.is_empty() {
                    break ready;
                }
                if stopping {
                    return; // drained
                }
                let wait = match planner.next_deadline(&inner.cfg.planner) {
                    Some(deadline) => {
                        let until = deadline.saturating_duration_since(Instant::now());
                        if until.is_zero() {
                            continue; // deadline passed while we were busy
                        }
                        until
                    }
                    // Idle: sleep until poked (bounded, defensively).
                    None => Duration::from_millis(100),
                };
                planner = inner
                    .work
                    .wait_timeout(planner, wait)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        // Planner lock released: applying never blocks admission. One
        // round: same-session batches arrive adjacent (take_ready emits in
        // session order) and run in FIFO order; distinct sessions fan out
        // over the pool.
        let mut sessions: Vec<Vec<ReadyBatch>> = Vec::new();
        for batch in ready {
            match sessions.last_mut() {
                Some(run) if run[0].session == batch.session => run.push(batch),
                _ => sessions.push(vec![batch]),
            }
        }
        let rounds = par::run_tasks(
            sessions
                .into_iter()
                .map(|batches| move || compute_session(inner, batches))
                .collect(),
        );
        // One fsync covers every frame the round appended, across all
        // sessions — and nothing is visible or acknowledged before it.
        let synced = match &inner.durability {
            Some(durability) => durability
                .wal
                .sync()
                .map_err(|err| format!("durability failure: {err}")),
            None => Ok(()),
        };
        for round in rounds {
            publish_session(inner, round, &synced);
        }
    }
}

/// The deletion service. See the module docs for the thread model.
pub struct Server {
    inner: Arc<Inner>,
    applier: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Starts a server (one applier thread) with the given configuration.
    /// When durability is configured, starting **is** recovering: the
    /// durability directory's snapshots are loaded, the WAL suffix is
    /// redone through the normal `apply_delta` path under the configured
    /// thread/SIMD pin, and every previously registered session comes
    /// back bitwise identical to its last acknowledged state
    /// ([`Server::recovery_report`] says what happened).
    ///
    /// # Errors
    /// [`ServerError::Durability`] on genuine I/O failure in the
    /// durability directory, or when a WAL frame passes its checksum but
    /// does not decode (e.g. a delta frame written by an older server) —
    /// the WAL is then left untouched. [`ServerError::Redo`] when a
    /// logged record does not redo: every record was applied live before
    /// it was written, so that means a corrupt log. Torn WAL tails and
    /// corrupt snapshot files are *not* errors — the tail is truncated,
    /// the file skipped, and both reported. A server without durability
    /// never fails to start.
    pub fn start(cfg: ServerConfig) -> Result<Self> {
        let mut durability = None;
        let mut recovery = None;
        let mut restored = Vec::new();
        if let Some(dur_cfg) = &cfg.durability {
            let recovered = recover(&cfg, &dur_cfg.dir)?;
            restored = recovered.sessions;
            recovery = Some(recovered.report);
            let wal = Arc::new(GroupWal::new(recovered.wal));
            let snapshots = SnapshotService::start(
                dur_cfg.dir.clone(),
                Arc::clone(&wal),
                dur_cfg.checkpoint_bytes.max(1),
            );
            durability = Some(Durability {
                snapshot_every: dur_cfg.snapshot_every.max(1),
                wal,
                snapshots,
            });
        }
        let scheduler = cfg.scheduler;
        let inner = Arc::new(Inner {
            registry: SessionRegistry::new(),
            cfg,
            planner: Mutex::new(PlannerState::default()),
            work: Condvar::new(),
            cost: Mutex::new(HashMap::new()),
            durability,
            recovery,
            shutdown: AtomicBool::new(false),
        });
        for (name, state) in restored {
            inner.registry.register_state(&name, state)?;
            inner
                .cost
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(name, Arc::new(Mutex::new(CostModel::new(scheduler))));
        }
        let applier = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("priu-server-applier".to_string())
                .spawn(move || applier_loop(&inner))
                .expect("spawn applier thread")
        };
        Ok(Self {
            inner,
            applier: Mutex::new(Some(applier)),
        })
    }

    /// What restart recovery loaded and redid. `None` on a server
    /// without durability.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.inner.recovery.as_ref()
    }

    /// Registers a fitted session under `name`; its rows get stable ids
    /// `0..n`. On a durable server this also writes the session's
    /// baseline snapshot (covering the current WAL position) so every
    /// later WAL record has a redo base — the registration is not
    /// acknowledged until the snapshot is on disk.
    ///
    /// # Errors
    /// [`ServerError::SessionExists`], [`ServerError::ShuttingDown`],
    /// [`ServerError::Durability`] if the baseline snapshot cannot be
    /// written (the session is not registered in that case).
    pub fn register_session(&self, name: &str, session: Session) -> Result<()> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServerError::ShuttingDown);
        }
        let slot = self.inner.registry.register(name, session)?;
        if let Some(durability) = &self.inner.durability {
            // The covered LSN is read under the WAL lock so no batch can
            // sneak a record for this session below it (it can't anyway —
            // the session just appeared — but the invariant is free). The
            // baseline rides the snapshot thread like every other
            // snapshot, blocking until it is durable.
            let covered_lsn = durability.wal.next_lsn();
            let state = slot.state();
            if let Err(err) = durability
                .snapshots
                .write_baseline(name, covered_lsn, state)
            {
                let _ = self.inner.registry.remove(name);
                return Err(err);
            }
        }
        self.inner
            .cost
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                name.to_string(),
                Arc::new(Mutex::new(CostModel::new(self.inner.cfg.scheduler))),
            );
        Ok(())
    }

    /// Predicts on the named session's current snapshot. Never blocks on
    /// an in-flight deletion batch.
    ///
    /// # Errors
    /// [`ServerError::UnknownSession`], [`ServerError::FeatureMismatch`].
    pub fn predict(&self, session: &str, features: &[f64]) -> Result<Prediction> {
        self.inner.predict(session, features)
    }

    /// Enqueues a deletion of the given stable row ids; resolves when the
    /// coalesced batch containing it commits.
    ///
    /// # Errors
    /// [`ServerError::UnknownSession`], [`ServerError::ShuttingDown`].
    pub fn delete(&self, session: &str, ids: &[u64]) -> Result<DeleteTicket> {
        self.inner.delete(session, ids.to_vec())
    }

    /// Enqueues rows to append to the named session; resolves when the
    /// coalesced batch containing it commits. Appended rows get fresh
    /// stable ids, never reusing a retired id.
    ///
    /// # Errors
    /// [`ServerError::UnknownSession`], [`ServerError::ShuttingDown`],
    /// [`ServerError::InvalidRows`] / [`ServerError::FeatureMismatch`]
    /// when the rows don't fit the session.
    pub fn add(&self, session: &str, rows: AddedRows) -> Result<DeleteTicket> {
        self.inner.change(session, Vec::new(), Some(rows), None)
    }

    /// Enqueues a sliding-window tick: append `rows` (possibly none) and
    /// retain at most `keep_last` rows after the batch commits, expiring
    /// the oldest pre-existing rows first. See the module docs for the
    /// exact retention semantics.
    ///
    /// # Errors
    /// Same as [`Server::add`].
    pub fn tick(
        &self,
        session: &str,
        rows: Option<AddedRows>,
        keep_last: u64,
    ) -> Result<DeleteTicket> {
        self.inner
            .change(session, Vec::new(), rows, Some(keep_last))
    }

    /// Forces the named session's pending deletions into a batch now.
    ///
    /// # Errors
    /// [`ServerError::UnknownSession`].
    pub fn flush(&self, session: &str) -> Result<()> {
        self.inner.flush(session)
    }

    /// The named session's bookkeeping.
    ///
    /// # Errors
    /// [`ServerError::UnknownSession`].
    pub fn stats(&self, session: &str) -> Result<SessionStats> {
        self.inner.stats(session)
    }

    /// The named session's current immutable snapshot and its epoch.
    ///
    /// # Errors
    /// [`ServerError::UnknownSession`].
    pub fn model_snapshot(&self, session: &str) -> Result<(Arc<Session>, u64)> {
        Ok(self.inner.registry.get(session)?.snapshot())
    }

    /// Registered session names, sorted.
    pub fn session_names(&self) -> Vec<String> {
        self.inner.registry.names()
    }

    /// Serves one connection over any `Read`/`Write` transport pair (a
    /// socket, or the in-memory [`duplex`]): spawns the dedicated
    /// protocol reader thread plus a responder that resolves deletion
    /// tickets in admission order. Predict/flush/stats answer inline;
    /// responses carry the request's correlation id and may arrive out of
    /// order relative to deletions.
    ///
    /// [`duplex`]: crate::protocol::duplex
    pub fn serve_connection<R, W>(&self, reader: R, writer: W) -> ConnectionHandle
    where
        R: Read + Send + 'static,
        W: Write + Send + 'static,
    {
        let inner = Arc::clone(&self.inner);
        let handle = thread::Builder::new()
            .name("priu-server-conn".to_string())
            .spawn(move || connection_loop(&inner, reader, writer))
            .expect("spawn connection thread");
        ConnectionHandle { handle }
    }

    /// Cumulative durability counters — fsyncs (one per applier round
    /// that appended), frames, bytes appended, most frames one fsync
    /// covered, checkpoints completed. `None` on a server without
    /// durability. Mean frames per fsync is `frames / fsyncs`.
    pub fn durability_stats(&self) -> Option<WalStats> {
        self.inner.durability.as_ref().map(|d| d.wal.stats())
    }

    /// Blocks until every background snapshot scheduled so far has been
    /// written (and any WAL checkpoint it triggered has completed) — the
    /// drain barrier tests and benchmarks use before inspecting the
    /// durability directory. No-op without durability.
    pub fn drain_durability(&self) {
        if let Some(durability) = &self.inner.durability {
            durability.snapshots.drain();
        }
    }

    /// Shuts the server down: rejects new deletions, drains every pending
    /// batch (tickets resolve), joins the applier, then drains and stops
    /// the snapshot thread — so a clean shutdown never abandons a
    /// scheduled snapshot. Idempotent; safe from multiple threads.
    pub fn shutdown(&self) {
        // Set under the planner lock: the applier reads the flag and
        // starts waiting under that lock, so the notify cannot fall
        // between the two and leave it asleep until its next deadline.
        {
            let _planner = self.inner.planner();
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.work.notify_all();
        let handle = self
            .applier
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        // The applier is gone, so no new snapshot jobs can appear; the
        // service drains its queue before exiting.
        if let Some(durability) = &self.inner.durability {
            durability.snapshots.stop();
        }
        // Anything admitted after the drain decision fails typed.
        self.inner.planner().fail_all();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Which wire response a resolved ticket maps to: `Delete` requests
/// answer [`Response::Deleted`], `Add`/`Tick` requests answer
/// [`Response::Applied`].
#[derive(Debug, Clone, Copy)]
enum TicketKind {
    Delete,
    Change,
}

/// Join handle of a served connection; resolves when the client closes
/// its write half (EOF) or the transport fails.
pub struct ConnectionHandle {
    handle: JoinHandle<()>,
}

impl ConnectionHandle {
    /// Waits for the connection loop (and its reader/responder threads)
    /// to finish.
    pub fn join(self) {
        let _ = self.handle.join();
    }
}

fn connection_loop<R, W>(inner: &Arc<Inner>, reader: R, writer: W)
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    let (requests, reader_thread) = spawn_frame_reader(reader, decode_request);
    let writer = Arc::new(Mutex::new(writer));

    // Change tickets resolve long after admission; a responder thread
    // waits them out in admission order so the service loop stays free.
    // The kind marker picks the response shape: deletions answer
    // `Deleted`, add/tick requests answer `Applied`.
    let (ticket_tx, ticket_rx) = channel::<(u64, TicketKind, DeleteTicket)>();
    let responder = {
        let writer = Arc::clone(&writer);
        thread::Builder::new()
            .name("priu-server-responder".to_string())
            .spawn(move || {
                for (id, kind, ticket) in ticket_rx {
                    let response = match ticket.wait() {
                        Ok(reply) => match kind {
                            TicketKind::Delete => Response::Deleted {
                                requested: reply.requested as u64,
                                applied: reply.applied as u64,
                                stale: reply.stale as u64,
                                batch_rows: reply.batch_rows as u64,
                                method: reply.method,
                                seconds: reply.seconds,
                                epoch: reply.epoch,
                            },
                            TicketKind::Change => Response::Applied {
                                added: reply.added as u64,
                                expired: reply.expired as u64,
                                batch_rows: reply.batch_rows as u64,
                                method: reply.method,
                                seconds: reply.seconds,
                                epoch: reply.epoch,
                            },
                        },
                        Err(err) => Response::Error {
                            message: err.to_string(),
                        },
                    };
                    if send_response(&writer, id, response).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn responder thread")
    };

    for incoming in &requests {
        match incoming {
            Ok(envelope) => {
                let id = envelope.id;
                let response = match envelope.request {
                    Request::Predict { session, features } => {
                        match inner.predict(&session, &features) {
                            Ok(p) => Response::Predicted {
                                value: p.value,
                                class: p.class.map(|c| c as u64),
                                epoch: p.epoch,
                            },
                            Err(err) => Response::Error {
                                message: err.to_string(),
                            },
                        }
                    }
                    Request::Delete { session, ids } => match inner.delete(&session, ids) {
                        Ok(ticket) => {
                            let _ = ticket_tx.send((id, TicketKind::Delete, ticket));
                            continue; // answered by the responder later
                        }
                        Err(err) => Response::Error {
                            message: err.to_string(),
                        },
                    },
                    Request::Add {
                        session,
                        num_features,
                        features,
                        labels,
                    } => {
                        let rows = AddedRows {
                            num_features: num_features as usize,
                            features,
                            labels,
                        };
                        match inner.change(&session, Vec::new(), Some(rows), None) {
                            Ok(ticket) => {
                                let _ = ticket_tx.send((id, TicketKind::Change, ticket));
                                continue;
                            }
                            Err(err) => Response::Error {
                                message: err.to_string(),
                            },
                        }
                    }
                    Request::Tick {
                        session,
                        num_features,
                        features,
                        labels,
                        keep_last,
                    } => {
                        let rows = AddedRows {
                            num_features: num_features as usize,
                            features,
                            labels,
                        };
                        match inner.change(&session, Vec::new(), Some(rows), Some(keep_last)) {
                            Ok(ticket) => {
                                let _ = ticket_tx.send((id, TicketKind::Change, ticket));
                                continue;
                            }
                            Err(err) => Response::Error {
                                message: err.to_string(),
                            },
                        }
                    }
                    Request::Flush { session } => match inner.flush(&session) {
                        Ok(()) => Response::Flushed,
                        Err(err) => Response::Error {
                            message: err.to_string(),
                        },
                    },
                    Request::Recovery => match &inner.recovery {
                        Some(report) => Response::RecoveryStatus {
                            durable: true,
                            wal_records: report.wal_records,
                            wal_tail: report.wal_tail.clone(),
                            snapshot_skips: report.snapshot_skips.len() as u64,
                            orphan_records: report.orphan_records,
                            sessions: report
                                .sessions
                                .iter()
                                .map(|s| RecoverySessionStatus {
                                    session: s.session.clone(),
                                    redone: s.redone,
                                    skipped: s.skipped.len() as u64,
                                    final_epoch: s.final_epoch,
                                })
                                .collect(),
                        },
                        None => Response::RecoveryStatus {
                            durable: false,
                            wal_records: 0,
                            wal_tail: None,
                            snapshot_skips: 0,
                            orphan_records: 0,
                            sessions: Vec::new(),
                        },
                    },
                    Request::DurabilityStats => match &inner.durability {
                        Some(durability) => {
                            let stats = durability.wal.stats();
                            Response::DurabilityStats {
                                durable: true,
                                fsyncs: stats.fsyncs,
                                wal_frames: stats.frames,
                                wal_bytes: stats.bytes,
                                max_group: stats.max_group,
                                checkpoints: stats.checkpoints,
                            }
                        }
                        None => Response::DurabilityStats {
                            durable: false,
                            fsyncs: 0,
                            wal_frames: 0,
                            wal_bytes: 0,
                            max_group: 0,
                            checkpoints: 0,
                        },
                    },
                    Request::Stats { session } => match inner.stats(&session) {
                        Ok(stats) => Response::Stats {
                            epoch: stats.epoch,
                            num_samples: stats.num_samples as u64,
                            num_features: stats.num_features as u64,
                            drift: stats.drift,
                            pending: stats.pending as u64,
                            decisions: stats.decisions,
                        },
                        Err(err) => Response::Error {
                            message: err.to_string(),
                        },
                    },
                };
                if send_response(&writer, id, response).is_err() {
                    break;
                }
            }
            Err(err) => {
                // Undecodable stream: report once (id 0) and drop the
                // connection.
                let _ = send_response(
                    &writer,
                    0,
                    Response::Error {
                        message: ServerError::Protocol(err).to_string(),
                    },
                );
                break;
            }
        }
    }
    drop(ticket_tx); // responder drains outstanding tickets, then exits
    let _ = responder.join();
    let _ = reader_thread.join();
}

fn send_response<W: Write>(writer: &Mutex<W>, id: u64, response: Response) -> std::io::Result<()> {
    let payload = encode_response(&ResponseEnvelope { id, response });
    let mut writer = writer.lock().unwrap_or_else(PoisonError::into_inner);
    write_frame(&mut *writer, &payload)
}
