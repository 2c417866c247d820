//! The session registry: named tenant × model sessions, each holding one
//! immutable published state.
//!
//! # Publication model
//!
//! Each [`SessionSlot`] holds its current [`SlotState`] behind a
//! read/write lock:
//!
//! * **Predictions** take the lock in *read* mode only long enough to
//!   clone the `Arc<Session>` pointer and the epoch, then compute on that
//!   immutable snapshot lock-free. An in-flight batch therefore never
//!   blocks a prediction, no matter how long its downdate runs.
//! * **Batches** are computed by the server's applier thread — the only
//!   committer — on a private copy of the state taken with
//!   [`SessionSlot::state`], advanced with [`SlotState::advance`] off the
//!   lock, and published with [`SessionSlot::commit`], which installs the
//!   finished state under a brief *write* lock.
//!
//! A predict observes either the pre-commit or the post-commit state —
//! never a torn intermediate — because the only mutation is that
//! install. The registry map lock is never held while taking a slot lock:
//! callers clone the `Arc<SessionSlot>` out of the map first.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use priu_core::{DeletionEngine, Session};

use crate::error::{Result, ServerError};

/// One session's full state: the current immutable session plus the
/// bookkeeping a committed batch advances. The same value is what the
/// applier computes on, what a slot publishes, what a snapshot persists
/// and what recovery redoes onto.
#[derive(Debug, Clone)]
pub(crate) struct SlotState {
    /// The current session; replaced wholesale on every commit.
    pub session: Arc<Session>,
    /// Stable row id of each current row, ascending (registration assigns
    /// `0..n`; survivors keep their ids across batches; appended rows get
    /// fresh ids from `next_id`). Requests address rows by stable id, so
    /// ids stay valid while current indices shift under deletions.
    pub ids: Vec<u64>,
    /// The next stable id to assign. Strictly monotonic: every id ever
    /// handed out is `< next_id`, so a retired id is never reallocated —
    /// a delete request that races a sliding window can therefore never
    /// remove a *different* row than the one it named.
    pub next_id: u64,
    /// Bumped once per committed batch; predictions report the epoch of
    /// the snapshot they used.
    pub epoch: u64,
    /// Sample count at registration — the denominator of the drift ratio.
    pub initial_samples: usize,
    /// Rows removed by incremental methods since the last full retrain
    /// (reset when a batch commits with `Method::Retrain`).
    pub removed_since_refit: usize,
}

impl SlotState {
    /// The state of a freshly registered session: rows get stable ids
    /// `0..n`, epoch 0, no drift.
    pub(crate) fn new(session: Session) -> Self {
        let n = session.num_samples();
        Self {
            session: Arc::new(session),
            ids: (0..n as u64).collect(),
            next_id: n as u64,
            epoch: 0,
            initial_samples: n,
            removed_since_refit: 0,
        }
    }

    /// Rows removed incrementally since the last full retrain, as a
    /// fraction of the registration-time sample count.
    pub(crate) fn drift(&self) -> f64 {
        if self.initial_samples == 0 {
            0.0
        } else {
            self.removed_since_refit as f64 / self.initial_samples as f64
        }
    }

    /// Advances the state past one applied batch: `successor` is the
    /// session `apply_delta` returned for removing the current rows `rows`
    /// (ascending, duplicate-free) and appending `num_added` rows.
    /// Survivors keep their stable ids, appended rows get fresh ids from
    /// `next_id`, the epoch bumps, and the drift counter accumulates
    /// (`refit` resets it — a full retrain re-anchors the model on the
    /// survivors). The live applier and WAL redo both advance through
    /// this one function, which is what keeps them in lockstep.
    pub(crate) fn advance(
        &mut self,
        successor: Arc<Session>,
        rows: &[usize],
        num_added: usize,
        refit: bool,
    ) {
        let mut ids = Vec::with_capacity(self.ids.len() - rows.len() + num_added);
        let mut removed = rows.iter().peekable();
        for (ix, &id) in self.ids.iter().enumerate() {
            if removed.next_if_eq(&&ix).is_none() {
                ids.push(id);
            }
        }
        ids.extend(self.next_id..self.next_id + num_added as u64);
        self.next_id += num_added as u64;
        self.session = successor;
        self.ids = ids;
        self.epoch += 1;
        self.removed_since_refit = if refit {
            0
        } else {
            self.removed_since_refit + rows.len()
        };
    }
}

/// A registered session: the unit the registry hands out. See the module
/// docs for the publication model.
#[derive(Debug)]
pub struct SessionSlot {
    state: RwLock<SlotState>,
}

impl SessionSlot {
    fn new(state: SlotState) -> Self {
        Self {
            state: RwLock::new(state),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, SlotState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// A copy of the whole published state, read under one shared
    /// acquisition (the session itself is shared, not cloned).
    pub(crate) fn state(&self) -> SlotState {
        self.read().clone()
    }

    /// The shared grant: the current session snapshot and its epoch. The
    /// lock is held only for the pointer clone; computation on the
    /// returned session proceeds without blocking the committer.
    pub fn snapshot(&self) -> (Arc<Session>, u64) {
        let state = self.read();
        (state.session.clone(), state.epoch)
    }

    /// The epoch of the current snapshot (bumped once per committed batch).
    pub fn epoch(&self) -> u64 {
        self.read().epoch
    }

    /// Rows removed incrementally since the last full retrain, as a
    /// fraction of the registration-time sample count — the accumulated
    /// drift the scheduler folds into its retrain decision.
    pub fn drift(&self) -> f64 {
        self.read().drift()
    }

    /// Publishes a state computed off the lock: one pointer-sized install
    /// under the write lock. Only the applier thread commits.
    ///
    /// # Panics
    /// If the state holds an id at or above its own `next_id`: fresh ids
    /// come from that strictly monotonic counter, so every live id must
    /// be below it — the invariant that makes retired ids unreusable.
    pub(crate) fn commit(&self, state: SlotState) {
        if let Some(&max) = state.ids.last() {
            assert!(
                max < state.next_id,
                "stable id {max} was never assigned (next_id {})",
                state.next_id
            );
        }
        *self.state.write().unwrap_or_else(PoisonError::into_inner) = state;
    }
}

/// The registry of named sessions (tenant × model → slot).
#[derive(Debug, Default)]
pub struct SessionRegistry {
    slots: Mutex<HashMap<String, Arc<SessionSlot>>>,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, Arc<SessionSlot>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a fitted session under `name`, assigning stable row ids
    /// `0..n`.
    ///
    /// # Errors
    /// [`ServerError::SessionExists`] if the name is taken.
    pub fn register(&self, name: &str, session: Session) -> Result<Arc<SessionSlot>> {
        self.register_state(name, SlotState::new(session))
    }

    /// Registers a slot holding `state` — a fresh registration or one
    /// rebuilt from persisted state by recovery, whose id map, epoch and
    /// drift counters come from the snapshot.
    ///
    /// # Errors
    /// [`ServerError::SessionExists`] if the name is taken.
    pub(crate) fn register_state(&self, name: &str, state: SlotState) -> Result<Arc<SessionSlot>> {
        let slot = Arc::new(SessionSlot::new(state));
        let mut slots = self.lock();
        if slots.contains_key(name) {
            return Err(ServerError::SessionExists(name.to_string()));
        }
        slots.insert(name.to_string(), slot.clone());
        Ok(slot)
    }

    /// The slot registered under `name`.
    ///
    /// # Errors
    /// [`ServerError::UnknownSession`] if nothing is registered.
    pub fn get(&self, name: &str) -> Result<Arc<SessionSlot>> {
        self.lock()
            .get(name)
            .cloned()
            .ok_or_else(|| ServerError::UnknownSession(name.to_string()))
    }

    /// Removes the session registered under `name`. In-flight snapshots
    /// keep the session alive until they drop.
    ///
    /// # Errors
    /// [`ServerError::UnknownSession`] if nothing is registered.
    pub fn remove(&self, name: &str) -> Result<()> {
        self.lock()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| ServerError::UnknownSession(name.to_string()))
    }

    /// Registered session names, sorted (deterministic iteration order for
    /// reports and tests).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered sessions.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no session is registered.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use priu_core::SessionBuilder;
    use priu_core::TrainerConfig;
    use priu_data::catalog::Hyperparameters;
    use priu_data::synthetic::regression::{generate_regression, RegressionConfig};

    fn session(n: usize, seed: u64) -> Session {
        let data = generate_regression(&RegressionConfig {
            num_samples: n,
            num_features: 4,
            seed,
            ..Default::default()
        });
        let hyper = Hyperparameters {
            batch_size: 25,
            num_iterations: 40,
            learning_rate: 0.05,
            regularization: 0.01,
        };
        SessionBuilder::dense(data, TrainerConfig::from_hyper(hyper))
            .seed(1)
            .fit()
            .unwrap()
    }

    #[test]
    fn register_get_remove_round_trip() {
        let registry = SessionRegistry::new();
        assert!(registry.is_empty());
        registry.register("t1/model-a", session(60, 1)).unwrap();
        registry.register("t2/model-b", session(60, 2)).unwrap();
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.names(), vec!["t1/model-a", "t2/model-b"]);
        assert!(matches!(
            registry.register("t1/model-a", session(60, 3)),
            Err(ServerError::SessionExists(_))
        ));
        assert!(registry.get("t1/model-a").is_ok());
        assert!(matches!(
            registry.get("nope"),
            Err(ServerError::UnknownSession(_))
        ));
        registry.remove("t1/model-a").unwrap();
        assert!(matches!(
            registry.remove("t1/model-a"),
            Err(ServerError::UnknownSession(_))
        ));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn slots_track_epoch_ids_and_drift_across_commits() {
        let registry = SessionRegistry::new();
        let slot = registry.register("s", session(50, 7)).unwrap();
        let (snap, epoch) = slot.snapshot();
        assert_eq!(epoch, 0);
        assert_eq!(slot.drift(), 0.0);
        let mut state = slot.state();
        assert_eq!(state.ids, (0..50).collect::<Vec<u64>>());
        assert_eq!(state.initial_samples, 50);

        // Advance past a batch removing current rows {1, 3}: ids 1 and 3
        // drop out of the id map, drift accumulates — and nothing is
        // visible until the commit publishes it.
        let chained = {
            use priu_core::{DeletionEngine, Method};
            snap.apply(Method::Priu, &[1, 3]).unwrap()
        };
        state.advance(Arc::new(chained.session), &[1, 3], 0, false);
        assert_eq!(slot.epoch(), 0);
        slot.commit(state.clone());
        assert_eq!(slot.epoch(), 1);
        let ids = slot.state().ids;
        assert_eq!(ids.len(), 48);
        assert!(!ids.contains(&1) && !ids.contains(&3));
        assert!((slot.drift() - 2.0 / 50.0).abs() < 1e-15);

        // A refit advance resets the drift counter.
        let (snap, _) = slot.snapshot();
        state.advance(snap, &[], 0, true);
        slot.commit(state);
        assert_eq!(slot.epoch(), 2);
        assert_eq!(slot.drift(), 0.0);
    }

    #[test]
    fn retired_ids_are_never_reallocated() {
        let registry = SessionRegistry::new();
        let slot = registry.register("s", session(10, 3)).unwrap();
        let (snap, _) = slot.snapshot();
        let mut state = slot.state();

        // Retire ids {0, 1} and append 3 rows in the same batch: the
        // fresh ids continue from the monotonic counter, skipping nothing
        // and reusing nothing.
        state.advance(snap.clone(), &[0, 1], 3, false);
        assert_eq!(state.ids, (2..13).collect::<Vec<u64>>());

        // Retire an appended row (id 10, current row 8) and append again:
        // still no reuse — the next fresh id is 13 even though 0, 1 and
        // 10 are free.
        state.advance(snap, &[8], 1, false);
        slot.commit(state);
        let ids = slot.state().ids;
        assert_eq!(*ids.last().unwrap(), 13);
        // Every id ever retired stays retired.
        for retired in [0, 1, 10] {
            assert!(!ids.contains(&retired));
        }
    }

    #[test]
    #[should_panic(expected = "never assigned")]
    fn committing_an_unassigned_id_panics() {
        let registry = SessionRegistry::new();
        let slot = registry.register("s", session(10, 4)).unwrap();
        let mut state = slot.state();
        state.ids = vec![0, 99];
        slot.commit(state);
    }
}
