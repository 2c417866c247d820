//! The sparse binary logistic-regression deletion engine (§5.3).

use std::time::{Duration, Instant};

use priu_data::dataset::{SparseDataset, TaskKind};
use priu_linalg::Vector;

use crate::baseline::retrain::retrain_sparse_binary_logistic_with;
use crate::config::TrainerConfig;
use crate::engine::{
    appended_batches, split_survivors, timed_update, ChainedUpdate, DeletionEngine, Delta,
    DeltaRows, Method, Session, UpdateOutcome,
};
use crate::error::{CoreError, Result};
use crate::model::Model;
use crate::snapshot::{
    get_model, get_sparse_dataset, get_sparse_provenance, get_trainer_config, put_model,
    put_sparse_dataset, put_sparse_provenance, put_trainer_config, SnapshotReader, SnapshotWriter,
};
use crate::trainer::sparse::{
    sparse_logistic_step, train_sparse_binary_logistic, SparseLogisticProvenance,
    TrainedSparseLogistic,
};
use crate::update::sparse_logistic::priu_update_sparse_logistic_with;
use crate::update::{drop_positions, normalize_removed, removed_positions};
use crate::workspace::Workspace;

/// A sparse binary logistic-regression session (RCV1-style workloads). The
/// sparse path captures only the per-iteration linearisation coefficients
/// (§5.3), so the supported methods are PrIU and retraining.
#[derive(Debug, Clone)]
pub struct SparseLogisticEngine {
    dataset: SparseDataset,
    config: TrainerConfig,
    trained: TrainedSparseLogistic,
    training_time: Duration,
}

impl SparseLogisticEngine {
    /// Trains the initial model and captures provenance (offline phase).
    ///
    /// # Errors
    /// Propagates training failures.
    pub fn fit(dataset: SparseDataset, config: TrainerConfig) -> Result<Self> {
        let start = Instant::now();
        let trained = train_sparse_binary_logistic(&dataset, &config)?;
        Ok(Self {
            dataset,
            config,
            trained,
            training_time: start.elapsed(),
        })
    }

    /// The training dataset this session currently covers.
    pub fn dataset(&self) -> &SparseDataset {
        &self.dataset
    }

    /// Serializes the whole engine state bit-exactly (durability snapshots).
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        put_sparse_dataset(w, &self.dataset);
        put_trainer_config(w, &self.config);
        put_model(w, &self.trained.model);
        put_sparse_provenance(w, &self.trained.provenance);
        w.u64(self.training_time.as_nanos() as u64);
    }

    /// Rebuilds an engine from [`SparseLogisticEngine::encode_snapshot`]
    /// bytes.
    ///
    /// # Errors
    /// Returns [`CoreError::Snapshot`] on truncated or corrupt input.
    pub fn decode_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self> {
        let dataset = get_sparse_dataset(r, "sparse dataset")?;
        let config = get_trainer_config(r, "sparse config")?;
        let model = get_model(r, "sparse model")?;
        let provenance = get_sparse_provenance(r, "sparse provenance", dataset.num_samples())?;
        let training_time = Duration::from_nanos(r.u64("sparse training time")?);
        Ok(Self {
            dataset,
            config,
            trained: TrainedSparseLogistic { model, provenance },
            training_time,
        })
    }

    /// A workspace pre-sized for this session's replay loops.
    fn sized_workspace(&self) -> Workspace {
        Workspace::sized_for(
            self.dataset.num_features(),
            self.trained.provenance.schedule.batch_size(),
            1,
        )
    }

    /// Validates a delta's added rows against this session: sparse block,
    /// matching feature width, binary labels. Returns `None` for deltas that
    /// add nothing.
    fn validate_added<'a>(&self, delta: &'a Delta) -> Result<Option<&'a SparseDataset>> {
        match &delta.added {
            None => Ok(None),
            Some(DeltaRows::Dense(_)) => Err(CoreError::InvalidConfig(
                "dense rows cannot be added to a sparse logistic session".to_string(),
            )),
            Some(DeltaRows::Sparse(rows)) => {
                if rows.num_features() != self.dataset.num_features() {
                    return Err(CoreError::InvalidConfig(format!(
                        "added rows have {} features, the session has {}",
                        rows.num_features(),
                        self.dataset.num_features()
                    )));
                }
                if rows.labels.as_binary().is_none() {
                    return Err(CoreError::LabelMismatch {
                        expected: "binary (+1/-1) labels for rows added to a sparse \
                                   logistic session",
                    });
                }
                Ok((rows.num_samples() > 0).then_some(rows))
            }
        }
    }

    /// Runs the appended explicit-batch GD steps over `added`, chunked by
    /// the schedule's batch size, warm-started from `w` (mutated in place).
    /// When `captures` is provided, one `(a, b')` coefficient list per
    /// appended batch is collected.
    fn addition_steps(
        &self,
        added: &SparseDataset,
        w: &mut Vector,
        ws: &mut Workspace,
        mut captures: Option<&mut Vec<Vec<(f64, f64)>>>,
    ) -> Result<()> {
        let provenance = &self.trained.provenance;
        let (eta, lambda) = (provenance.learning_rate, provenance.regularization);
        let interp = &self.config.interpolation;
        let y = added
            .labels
            .as_binary()
            .expect("added rows were validated as binary");
        for batch in appended_batches(0, added.num_samples(), provenance.schedule.batch_size()) {
            ws.batch.clear();
            ws.batch.extend_from_slice(&batch);
            let coeffs =
                sparse_logistic_step(&added.x, y, w, eta, lambda, interp, captures.is_some(), ws)?;
            if let (Some(caps), Some(coeffs)) = (captures.as_deref_mut(), coeffs) {
                caps.push(coeffs);
            }
        }
        if !w.is_finite() {
            return Err(CoreError::Diverged {
                iteration: provenance.schedule.num_iterations(),
            });
        }
        Ok(())
    }

    /// The deletion-only update path — exactly the pre-delta code, so
    /// removal-only deltas stay bitwise identical to the old engine.
    fn removal_update(&self, method: Method, removed: &[usize]) -> Result<UpdateOutcome> {
        let num_removed = normalize_removed(self.num_samples(), removed)?.len();
        match method {
            Method::Retrain => {
                // BaseL rides the same batched CSR kernels as the PrIU
                // replay; its workspace is likewise sized before the timer.
                let mut ws = self.sized_workspace();
                timed_update(method, num_removed, 0, || {
                    retrain_sparse_binary_logistic_with(
                        &self.dataset,
                        &self.trained.provenance,
                        removed,
                        &mut ws,
                    )
                })
            }
            Method::Priu => {
                // The workspace is sized before the timer starts, so the
                // timed region measures pure replay work.
                let mut ws = self.sized_workspace();
                timed_update(method, num_removed, 0, || {
                    priu_update_sparse_logistic_with(
                        &self.dataset,
                        &self.trained.provenance,
                        removed,
                        &mut ws,
                    )
                })
            }
            Method::PriuOpt | Method::ClosedForm | Method::Influence => {
                Err(CoreError::UnsupportedMethod {
                    method: method.name(),
                    reason: "the sparse path captures linearisation coefficients only (§5.3); \
                             it supports PrIU and retraining",
                })
            }
        }
    }
}

impl DeletionEngine for SparseLogisticEngine {
    fn task(&self) -> TaskKind {
        TaskKind::BinaryClassification
    }

    fn num_samples(&self) -> usize {
        self.dataset.num_samples()
    }

    fn model(&self) -> &Model {
        &self.trained.model
    }

    fn training_time(&self) -> Duration {
        self.training_time
    }

    fn provenance_bytes(&self) -> usize {
        self.trained.provenance.provenance_bytes()
    }

    fn supported_methods(&self) -> Vec<Method> {
        vec![Method::Retrain, Method::Priu]
    }

    fn update_delta(&self, method: Method, delta: &Delta) -> Result<UpdateOutcome> {
        let added = self.validate_added(delta)?;
        let mut outcome = self.removal_update(method, &delta.removed)?;
        let Some(added) = added else {
            return Ok(outcome);
        };
        // Appended explicit-batch steps, warm-started from the post-removal
        // model. The workspace is sized before the timer starts.
        let mut ws = self.sized_workspace();
        let start = Instant::now();
        let mut w = outcome.model.weight().clone();
        self.addition_steps(added, &mut w, &mut ws, None)?;
        outcome.model = Model::new(outcome.model.kind(), vec![w])?;
        outcome.duration += start.elapsed();
        outcome.num_added = added.num_samples();
        Ok(outcome)
    }

    fn apply_delta(&self, method: Method, delta: &Delta) -> Result<ChainedUpdate> {
        let added = self.validate_added(delta)?;
        let mut outcome = self.removal_update(method, &delta.removed)?;
        let (removed, survivors) = split_survivors(self.num_samples(), &delta.removed)?;
        let provenance = &self.trained.provenance;

        // The sparse provenance is just per-iteration coefficient lists in
        // batch order: drop the removed members' entries. The batches are
        // materialised once and reused to build the restricted schedule.
        let mut batches = Vec::with_capacity(provenance.coefficients.len());
        let mut coefficients = Vec::with_capacity(provenance.coefficients.len());
        for (t, iteration) in provenance.coefficients.iter().enumerate() {
            let batch = provenance.schedule.batch(t);
            let positions = removed_positions(&batch, &removed);
            batches.push(batch);
            if positions.is_empty() {
                coefficients.push(iteration.clone());
            } else {
                coefficients.push(drop_positions(iteration, &positions));
            }
        }

        // `select` reports out-of-bounds survivors as an error (the CSR
        // row ops are unified on `Result`); survivors are in range by
        // construction, so this only propagates genuine corruption.
        let mut dataset = self.dataset.select(&survivors)?;
        let mut schedule = provenance.schedule.restrict_from(&removed, batches);

        if let Some(added) = added {
            // The addition steps run once — the successor's appended
            // coefficient lists and the returned model come from the same
            // trajectory, and the schedule grows by the same chunking that
            // `update_delta` stepped through (indices shifted to the
            // successor's row space).
            let k = added.num_samples();
            let mut ws = self.sized_workspace();
            let start = Instant::now();
            let mut w = outcome.model.weight().clone();
            let mut caps = Vec::with_capacity(k.div_ceil(schedule.batch_size().max(1)));
            self.addition_steps(added, &mut w, &mut ws, Some(&mut caps))?;
            coefficients.extend(caps);
            schedule = schedule.extend_with(
                appended_batches(survivors.len(), k, provenance.schedule.batch_size()),
                k,
            );
            dataset.append(added)?;
            outcome.model = Model::new(outcome.model.kind(), vec![w])?;
            outcome.duration += start.elapsed();
            outcome.num_added = k;
        }

        let successor = SparseLogisticEngine {
            dataset,
            config: self.config,
            trained: TrainedSparseLogistic {
                model: outcome.model.clone(),
                provenance: SparseLogisticProvenance {
                    schedule,
                    learning_rate: provenance.learning_rate,
                    regularization: provenance.regularization,
                    initial_model: provenance.initial_model.clone(),
                    coefficients,
                },
            },
            training_time: self.training_time,
        };
        Ok(ChainedUpdate {
            outcome,
            session: Session::SparseLogistic(successor),
        })
    }
}
