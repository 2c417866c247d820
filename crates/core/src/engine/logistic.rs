//! The dense logistic-regression deletion engine (binary and multinomial).

use std::time::{Duration, Instant};

use priu_data::dataset::{DenseDataset, TaskKind};
use priu_linalg::Vector;

use crate::baseline::influence::influence_update;
use crate::baseline::retrain::{retrain_binary_logistic_with, retrain_multinomial_logistic_with};
use crate::capture::{
    ClassIterationCache, LogisticIterationCache, LogisticProvenance, ProvenanceMemory,
};
use crate::config::TrainerConfig;
use crate::engine::{
    appended_batches, split_survivors, timed_update, ChainedUpdate, DeletionEngine, Delta,
    DeltaRows, Method, Session, UpdateOutcome,
};
use crate::error::{CoreError, Result};
use crate::model::Model;
use crate::snapshot::{
    get_dense_dataset, get_logistic_provenance, get_model, get_trainer_config, put_dense_dataset,
    put_logistic_provenance, put_model, put_trainer_config, SnapshotReader, SnapshotWriter,
};
use crate::trainer::logistic::{
    binary_logistic_step, multinomial_logistic_step, train_binary_logistic_with,
    train_multinomial_logistic_with, TrainedLogistic,
};
use crate::update::priu_logistic::priu_update_logistic_with;
use crate::update::priu_opt_logistic::priu_opt_update_logistic_with;
use crate::update::{drop_positions, normalize_removed, removed_positions};
use crate::workspace::Workspace;

/// A dense logistic-regression session (binary or multinomial, following the
/// dataset's labels): dataset + trained model + captured provenance.
///
/// Under [`DeletionEngine::apply`] the per-iteration caches shrink exactly
/// (the stored `(a, b')` coefficients identify each removed sample's
/// contribution); the PrIU-opt capture is dropped, because its frozen
/// linearisation point refers to the pre-deletion trajectory — the successor
/// supports plain PrIU, retraining and INFL.
#[derive(Debug, Clone)]
pub struct LogisticEngine {
    dataset: DenseDataset,
    config: TrainerConfig,
    trained: TrainedLogistic,
    training_time: Duration,
}

impl LogisticEngine {
    /// Trains the initial model and captures provenance (offline phase).
    /// Binary vs multinomial follows the dataset's labels.
    ///
    /// # Errors
    /// Propagates training failures; regression labels are a mismatch.
    pub fn fit(dataset: DenseDataset, config: TrainerConfig) -> Result<Self> {
        // Pre-size the workspace — including the m × m buffers the PrIU-opt
        // capture eigendecomposes into — before the offline timer starts.
        let num_classes = match dataset.task() {
            TaskKind::MulticlassClassification { num_classes } => num_classes,
            _ => 1,
        };
        let mut ws =
            Workspace::sized_for(dataset.num_features(), config.hyper.batch_size, num_classes);
        if config.capture_opt {
            ws.reserve_decompositions(dataset.num_features());
        }
        let start = Instant::now();
        let trained = match dataset.task() {
            TaskKind::BinaryClassification => {
                train_binary_logistic_with(&dataset, &config, &mut ws)?
            }
            TaskKind::MulticlassClassification { .. } => {
                train_multinomial_logistic_with(&dataset, &config, &mut ws)?
            }
            TaskKind::Regression => {
                return Err(CoreError::LabelMismatch {
                    expected: "binary or multiclass labels for a logistic session",
                })
            }
        };
        Ok(Self {
            dataset,
            config,
            trained,
            training_time: start.elapsed(),
        })
    }

    /// The training dataset this session currently covers.
    pub fn dataset(&self) -> &DenseDataset {
        &self.dataset
    }

    /// Serializes the whole engine state bit-exactly (durability snapshots).
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        put_dense_dataset(w, &self.dataset);
        put_trainer_config(w, &self.config);
        put_model(w, &self.trained.model);
        put_logistic_provenance(w, &self.trained.provenance);
        w.u64(self.training_time.as_nanos() as u64);
    }

    /// Rebuilds an engine from [`LogisticEngine::encode_snapshot`] bytes.
    ///
    /// # Errors
    /// Returns [`CoreError::Snapshot`] on truncated or corrupt input.
    pub fn decode_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self> {
        let dataset = get_dense_dataset(r, "logistic dataset")?;
        let config = get_trainer_config(r, "logistic config")?;
        let model = get_model(r, "logistic model")?;
        let provenance = get_logistic_provenance(
            r,
            "logistic provenance",
            (dataset.num_samples(), dataset.num_features()),
        )?;
        let training_time = Duration::from_nanos(r.u64("logistic training time")?);
        Ok(Self {
            dataset,
            config,
            trained: TrainedLogistic { model, provenance },
            training_time,
        })
    }

    /// A workspace pre-sized for this session's replay loops (called before
    /// the update timer starts, so the timed region never allocates buffers).
    fn sized_workspace(&self, num_removed: usize) -> Workspace {
        let mut ws = Workspace::sized_for(
            self.dataset.num_features(),
            self.trained
                .provenance
                .schedule
                .batch_size()
                .max(num_removed),
            self.trained.model.weights().len(),
        );
        // Chained sessions carry deflation corrections whose row count can
        // exceed both the batch size and the feature count.
        let max_deflation = self
            .trained
            .provenance
            .iterations
            .iter()
            .flat_map(|it| it.classes.iter())
            .map(|class| class.gram.deflation_rows())
            .max()
            .unwrap_or(0);
        ws.reserve_gram_scratch(max_deflation);
        ws
    }

    fn retrain(&self, removed: &[usize], ws: &mut Workspace) -> Result<Model> {
        let provenance = &self.trained.provenance;
        match self.dataset.task() {
            TaskKind::BinaryClassification => {
                retrain_binary_logistic_with(&self.dataset, provenance, removed, ws)
            }
            TaskKind::MulticlassClassification { .. } => {
                retrain_multinomial_logistic_with(&self.dataset, provenance, removed, ws)
            }
            TaskKind::Regression => unreachable!("logistic sessions never hold regression labels"),
        }
    }

    /// Validates a delta's added rows against this session: dense block,
    /// matching feature width, label kind (and class count) matching the
    /// task. Returns `None` for deltas that add nothing.
    fn validate_added<'a>(&self, delta: &'a Delta) -> Result<Option<&'a DenseDataset>> {
        match &delta.added {
            None => Ok(None),
            Some(DeltaRows::Sparse(_)) => Err(CoreError::InvalidConfig(
                "sparse rows cannot be added to a dense logistic session".to_string(),
            )),
            Some(DeltaRows::Dense(rows)) => {
                if rows.num_features() != self.dataset.num_features() {
                    return Err(CoreError::InvalidConfig(format!(
                        "added rows have {} features, the session has {}",
                        rows.num_features(),
                        self.dataset.num_features()
                    )));
                }
                let fits = match self.dataset.task() {
                    TaskKind::BinaryClassification => rows.labels.as_binary().is_some(),
                    TaskKind::MulticlassClassification { num_classes } => rows
                        .labels
                        .as_multiclass()
                        .is_some_and(|(_, q)| q == num_classes),
                    TaskKind::Regression => false,
                };
                if !fits {
                    return Err(CoreError::LabelMismatch {
                        expected: "added rows with the same label kind (and class count) \
                                   as the logistic session",
                    });
                }
                Ok((rows.num_samples() > 0).then_some(rows))
            }
        }
    }

    /// Runs the appended explicit-batch GD steps over `added`, chunked by
    /// the schedule's batch size, warm-started from `weights` (mutated in
    /// place). When `captures` is provided, one iteration cache per
    /// appended batch is collected — linearised around the trajectory the
    /// steps actually take.
    fn addition_steps(
        &self,
        added: &DenseDataset,
        weights: &mut [Vector],
        ws: &mut Workspace,
        mut captures: Option<&mut Vec<LogisticIterationCache>>,
    ) -> Result<()> {
        let provenance = &self.trained.provenance;
        let (eta, lambda) = (provenance.learning_rate, provenance.regularization);
        let interp = &self.config.interpolation;
        let batches = appended_batches(0, added.num_samples(), provenance.schedule.batch_size());
        match self.dataset.task() {
            TaskKind::BinaryClassification => {
                let y = added
                    .labels
                    .as_binary()
                    .expect("added rows were validated as binary");
                for batch in batches {
                    ws.batch.clear();
                    ws.batch.extend_from_slice(&batch);
                    let cache = binary_logistic_step(
                        &added.x,
                        y,
                        &mut weights[0],
                        eta,
                        lambda,
                        captures.as_ref().map(|_| (interp, self.config.compression)),
                        ws,
                    )?;
                    if let (Some(caps), Some(cache)) = (captures.as_deref_mut(), cache) {
                        caps.push(cache);
                    }
                }
            }
            TaskKind::MulticlassClassification { num_classes } => {
                let (classes, _) = added
                    .labels
                    .as_multiclass()
                    .expect("added rows were validated as multiclass");
                for batch in batches {
                    ws.batch.clear();
                    ws.batch.extend_from_slice(&batch);
                    let cache = multinomial_logistic_step(
                        &added.x,
                        classes,
                        num_classes,
                        weights,
                        eta,
                        lambda,
                        captures.as_ref().map(|_| (interp, self.config.compression)),
                        ws,
                    )?;
                    if let (Some(caps), Some(cache)) = (captures.as_deref_mut(), cache) {
                        caps.push(cache);
                    }
                }
            }
            TaskKind::Regression => {
                unreachable!("logistic sessions never hold regression labels")
            }
        }
        if weights.iter().any(|w| !w.is_finite()) {
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
                // Retraining stages surviving batch members only.
                let mut ws = self.sized_workspace(0);
                timed_update(method, num_removed, 0, || self.retrain(removed, &mut ws))
            }
            Method::Priu => {
                // The workspace is sized before the timer starts, so the
                // timed region measures pure replay work.
                let mut ws = self.sized_workspace(num_removed);
                timed_update(method, num_removed, 0, || {
                    priu_update_logistic_with(
                        &self.dataset,
                        &self.trained.provenance,
                        removed,
                        &mut ws,
                    )
                })
            }
            Method::PriuOpt => {
                if self.trained.provenance.opt.is_none() {
                    return Err(CoreError::UnsupportedMethod {
                        method: method.name(),
                        reason: "the PrIU-opt capture was not materialised for this session",
                    });
                }
                let mut ws = self.sized_workspace(num_removed);
                timed_update(method, num_removed, 0, || {
                    priu_opt_update_logistic_with(
                        &self.dataset,
                        &self.trained.provenance,
                        removed,
                        &mut ws,
                    )
                })
            }
            Method::ClosedForm => Err(CoreError::UnsupportedMethod {
                method: method.name(),
                reason: "the closed-form update maintains the regularised normal equations, \
                         which exist only for linear regression",
            }),
            Method::Influence => timed_update(method, num_removed, 0, || {
                influence_update(
                    &self.dataset,
                    &self.trained.model,
                    self.config.hyper.regularization,
                    removed,
                )
            }),
        }
    }
}

impl DeletionEngine for LogisticEngine {
    fn task(&self) -> TaskKind {
        self.dataset.task()
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
        let mut methods = vec![Method::Retrain, Method::Priu];
        if self.trained.provenance.opt.is_some() {
            methods.push(Method::PriuOpt);
        }
        methods.push(Method::Influence);
        methods
    }

    fn update_delta(&self, method: Method, delta: &Delta) -> Result<UpdateOutcome> {
        let added = self.validate_added(delta)?;
        let mut outcome = self.removal_update(method, &delta.removed)?;
        let Some(added) = added else {
            return Ok(outcome);
        };
        // Appended explicit-batch steps, warm-started from the post-removal
        // model. The workspace is sized before the timer starts.
        let mut ws = self.sized_workspace(0);
        let start = Instant::now();
        let mut weights = outcome.model.weights().to_vec();
        self.addition_steps(added, &mut weights, &mut ws, None)?;
        outcome.model = Model::new(outcome.model.kind(), weights)?;
        outcome.duration += start.elapsed();
        outcome.num_added = added.num_samples();
        Ok(outcome)
    }

    fn apply_delta(&self, method: Method, delta: &Delta) -> Result<ChainedUpdate> {
        let added = self.validate_added(delta)?;
        let mut outcome = self.removal_update(method, &delta.removed)?;
        let (removed, survivors) = split_survivors(self.num_samples(), &delta.removed)?;
        let provenance = &self.trained.provenance;

        // Deletion propagation per iteration and per class: the stored
        // `(a, b')` coefficients pinpoint each removed batch member's
        // contribution to `C_t` and `D_t`. The batches are materialised once
        // and reused to build the restricted schedule below.
        let mut batches = Vec::with_capacity(provenance.iterations.len());
        let mut iterations = Vec::with_capacity(provenance.iterations.len());
        for (t, cache) in provenance.iterations.iter().enumerate() {
            let batch = provenance.schedule.batch(t);
            let positions = removed_positions(&batch, &removed);
            if positions.is_empty() {
                iterations.push(cache.clone());
                batches.push(batch);
                continue;
            }
            let removed_in_batch: Vec<usize> = positions.iter().map(|&p| batch[p]).collect();
            batches.push(batch);
            let delta_rows = self.dataset.x.select_rows(&removed_in_batch);
            let mut classes = Vec::with_capacity(cache.classes.len());
            for class in &cache.classes {
                let a: Vec<f64> = positions.iter().map(|&p| class.coefficients[p].0).collect();
                let b: Vec<f64> = positions.iter().map(|&p| class.coefficients[p].1).collect();
                let mut d = class.d.clone();
                d.axpy(-1.0, &delta_rows.transpose_matvec(&Vector::from_vec(b))?)?;
                let gram = class.gram.deflate(delta_rows.clone(), a)?;
                classes.push(ClassIterationCache {
                    gram,
                    d,
                    coefficients: drop_positions(&class.coefficients, &positions),
                });
            }
            iterations.push(LogisticIterationCache {
                classes,
                batch_size: cache.batch_size - positions.len(),
            });
        }

        let mut dataset = self.dataset.select(&survivors);
        let mut schedule = provenance.schedule.restrict_from(&removed, batches);

        if let Some(added) = added {
            // The addition steps run once — the successor's appended caches
            // and the returned model come from the same trajectory. The
            // schedule grows by the same chunking (`appended_batches`) that
            // `update_delta` stepped through, with batch indices shifted to
            // the successor's row space, so retraining the successor replays
            // the identical steps over the identical rows.
            let k = added.num_samples();
            let mut ws = self.sized_workspace(0);
            let start = Instant::now();
            let mut weights = outcome.model.weights().to_vec();
            let mut caps = Vec::with_capacity(k.div_ceil(schedule.batch_size().max(1)));
            self.addition_steps(added, &mut weights, &mut ws, Some(&mut caps))?;
            iterations.extend(caps);
            schedule = schedule.extend_with(
                appended_batches(survivors.len(), k, provenance.schedule.batch_size()),
                k,
            );
            dataset.append(added)?;
            outcome.model = Model::new(outcome.model.kind(), weights)?;
            outcome.duration += start.elapsed();
            outcome.num_added = k;
        }

        let successor = LogisticEngine {
            dataset,
            config: self.config,
            trained: TrainedLogistic {
                model: outcome.model.clone(),
                provenance: LogisticProvenance {
                    schedule,
                    learning_rate: provenance.learning_rate,
                    regularization: provenance.regularization,
                    initial_model: provenance.initial_model.clone(),
                    iterations,
                    // The frozen linearisation point of the opt capture
                    // belongs to the pre-deletion trajectory; drop it rather
                    // than leave it stale.
                    opt: None,
                },
            },
            training_time: self.training_time,
        };
        Ok(ChainedUpdate {
            outcome,
            session: Session::Logistic(successor),
        })
    }
}
