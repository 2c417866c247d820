//! The linear-regression deletion engine.

use std::time::{Duration, Instant};

use priu_data::dataset::{DenseDataset, TaskKind};
use priu_linalg::decomposition::eigen::SymmetricEigen;
use priu_linalg::Vector;

use crate::baseline::closed_form::{
    closed_form_delta_with, closed_form_incremental_with, ClosedFormCapture,
};
use crate::baseline::influence::influence_update;
use crate::baseline::retrain::retrain_linear_with;
use crate::capture::{LinearIterationCache, LinearOptCapture, LinearProvenance, ProvenanceMemory};
use crate::config::TrainerConfig;
use crate::engine::{
    appended_batches, split_survivors, timed_update, ChainedUpdate, DeletionEngine, Delta,
    DeltaRows, Method, Session, UpdateOutcome,
};
use crate::error::{CoreError, Result};
use crate::model::{Model, ModelKind};
use crate::snapshot::{
    get_closed_form, get_dense_dataset, get_linear_provenance, get_model, get_trainer_config,
    put_closed_form, put_dense_dataset, put_linear_provenance, put_model, put_trainer_config,
    SnapshotReader, SnapshotWriter,
};
use crate::trainer::linear::{
    capture_linear_iteration, linear_step, train_linear_with, TrainedLinear,
};
use crate::update::priu_linear::priu_update_linear_with;
use crate::update::priu_opt_linear::priu_opt_update_linear_with;
use crate::update::{normalize_removed, removed_positions};
use crate::workspace::Workspace;

/// A linear-regression session: dataset + trained model + captured
/// provenance + (optionally) the closed-form baseline's materialised views.
///
/// Linear provenance shrinks *exactly* under [`DeletionEngine::apply`] —
/// Gram caches, the PrIU-opt eigendecomposition and the closed-form views
/// are all downdated by the removed samples' contributions — so a chained
/// linear session keeps its full method set.
#[derive(Debug, Clone)]
pub struct LinearEngine {
    dataset: DenseDataset,
    config: TrainerConfig,
    trained: TrainedLinear,
    closed_form: Option<ClosedFormCapture>,
    training_time: Duration,
}

impl LinearEngine {
    /// Trains the initial model and captures provenance (offline phase),
    /// materialising the closed-form views.
    ///
    /// # Errors
    /// Propagates training failures (label mismatch, divergence).
    pub fn fit(dataset: DenseDataset, config: TrainerConfig) -> Result<Self> {
        Self::fit_with(dataset, config, true)
    }

    /// Like [`LinearEngine::fit`], controlling whether the closed-form views
    /// (`XᵀX` / `XᵀY`) are materialised.
    ///
    /// # Errors
    /// Propagates training failures (label mismatch, divergence).
    pub fn fit_with(
        dataset: DenseDataset,
        config: TrainerConfig,
        capture_closed_form: bool,
    ) -> Result<Self> {
        // Pre-size the workspace before the offline timer starts, so the
        // timed region measures training and capture work, not buffer
        // growth; the m × m decomposition buffers are only needed when the
        // PrIU-opt capture will factorise.
        let mut ws = Workspace::sized_for(dataset.num_features(), config.hyper.batch_size, 1);
        if config.capture_opt {
            ws.reserve_decompositions(dataset.num_features());
        }
        let start = Instant::now();
        let trained = train_linear_with(&dataset, &config, &mut ws)?;
        let closed_form = match (capture_closed_form, &trained.provenance.opt) {
            (false, _) => None,
            // The PrIU-opt capture already formed `XᵀX` (left in `ws.mm0`)
            // and `XᵀY`: the views take those instead of forming them again.
            (true, Some(opt)) => Some(ClosedFormCapture {
                xtx: std::mem::take(&mut ws.mm0),
                xty: opt.xty.clone(),
                num_samples: dataset.num_samples(),
                regularization: config.hyper.regularization,
            }),
            (true, None) => Some(ClosedFormCapture::build(
                &dataset,
                config.hyper.regularization,
            )?),
        };
        Ok(Self {
            dataset,
            config,
            trained,
            closed_form,
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
        put_linear_provenance(w, &self.trained.provenance);
        match &self.closed_form {
            None => w.bool(false),
            Some(c) => {
                w.bool(true);
                put_closed_form(w, c);
            }
        }
        w.u64(self.training_time.as_nanos() as u64);
    }

    /// Rebuilds an engine from [`LinearEngine::encode_snapshot`] bytes.
    ///
    /// # Errors
    /// Returns [`CoreError::Snapshot`] on truncated or corrupt input.
    pub fn decode_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self> {
        let dataset = get_dense_dataset(r, "linear dataset")?;
        let config = get_trainer_config(r, "linear config")?;
        let model = get_model(r, "linear model")?;
        let provenance = get_linear_provenance(
            r,
            "linear provenance",
            (dataset.num_samples(), dataset.num_features()),
        )?;
        let closed_form = if r.bool("linear closed-form flag")? {
            Some(get_closed_form(r, "linear closed-form")?)
        } else {
            None
        };
        let training_time = Duration::from_nanos(r.u64("linear training time")?);
        Ok(Self {
            dataset,
            config,
            trained: TrainedLinear { model, provenance },
            closed_form,
            training_time,
        })
    }

    fn continuous_labels(&self) -> &Vector {
        self.dataset
            .labels
            .as_continuous()
            .expect("a linear session always holds continuous labels")
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
            1,
        );
        // Chained sessions carry deflation corrections whose row count can
        // exceed both the batch size and the feature count.
        let max_deflation = self
            .trained
            .provenance
            .iterations
            .iter()
            .map(|it| it.gram.deflation_rows())
            .max()
            .unwrap_or(0);
        ws.reserve_gram_scratch(max_deflation);
        ws
    }

    /// Validates a delta's added rows against this session: dense block,
    /// matching feature width, continuous labels. Returns `None` for
    /// deltas that add nothing (including an explicitly empty block).
    fn validate_added<'a>(&self, delta: &'a Delta) -> Result<Option<&'a DenseDataset>> {
        match &delta.added {
            None => Ok(None),
            Some(DeltaRows::Sparse(_)) => Err(CoreError::InvalidConfig(
                "sparse rows cannot be added to a dense linear session".to_string(),
            )),
            Some(DeltaRows::Dense(rows)) => {
                if rows.num_features() != self.dataset.num_features() {
                    return Err(CoreError::InvalidConfig(format!(
                        "added rows have {} features, the session has {}",
                        rows.num_features(),
                        self.dataset.num_features()
                    )));
                }
                if rows.labels.as_continuous().is_none() {
                    return Err(CoreError::LabelMismatch {
                        expected: "continuous labels for rows added to a linear session",
                    });
                }
                Ok((rows.num_samples() > 0).then_some(rows))
            }
        }
    }

    /// Runs the appended explicit-batch GD steps over `added`, chunked by
    /// the schedule's batch size, warm-started from `w` (mutated in place).
    /// When `captures` is provided, each appended batch's iteration cache is
    /// captured after its step (the apply path); without it the warm path
    /// allocates nothing per step.
    fn addition_steps(
        &self,
        added: &DenseDataset,
        w: &mut Vector,
        ws: &mut Workspace,
        mut captures: Option<&mut Vec<LinearIterationCache>>,
    ) -> Result<()> {
        let y = added
            .labels
            .as_continuous()
            .expect("added rows were validated as continuous");
        let provenance = &self.trained.provenance;
        let (eta, lambda) = (provenance.learning_rate, provenance.regularization);
        for batch in appended_batches(0, added.num_samples(), provenance.schedule.batch_size()) {
            ws.batch.clear();
            ws.batch.extend_from_slice(&batch);
            linear_step(&added.x, y, w, eta, lambda, ws)?;
            if let Some(caps) = captures.as_deref_mut() {
                let compression = self.config.compression;
                let mut cache = LinearIterationCache::storage(added.num_features(), compression);
                capture_linear_iteration(&added.x, y, compression, ws, &mut cache)?;
                caps.push(cache);
            }
        }
        if !w.is_finite() {
            return Err(CoreError::Diverged {
                iteration: provenance.schedule.num_iterations(),
            });
        }
        Ok(())
    }

    /// One timed closed-form solve folding the whole delta into the
    /// normal-equation views (downdate removed, update added, solve once).
    fn closed_form_delta(&self, removed: &[usize], added: &DenseDataset) -> Result<UpdateOutcome> {
        let capture = self
            .closed_form
            .as_ref()
            .ok_or(CoreError::UnsupportedMethod {
                method: Method::ClosedForm.name(),
                reason: "the closed-form views were not materialised for this session",
            })?;
        let num_removed = normalize_removed(self.num_samples(), removed)?.len();
        let mut ws = self.sized_workspace(num_removed.max(added.num_samples()));
        ws.reserve_decompositions(self.dataset.num_features());
        timed_update(Method::ClosedForm, num_removed, added.num_samples(), || {
            closed_form_delta_with(&self.dataset, capture, removed, added, &mut ws)
        })
    }

    /// The deletion-only update path — exactly the pre-delta code, so
    /// removal-only deltas stay bitwise identical to the old engine.
    fn removal_update(&self, method: Method, removed: &[usize]) -> Result<UpdateOutcome> {
        let num_removed = normalize_removed(self.num_samples(), removed)?.len();
        match method {
            Method::Retrain => {
                // Retraining stages surviving batch members only.
                let mut ws = self.sized_workspace(0);
                timed_update(method, num_removed, 0, || {
                    retrain_linear_with(&self.dataset, &self.trained.provenance, removed, &mut ws)
                })
            }
            Method::Priu => {
                // The workspace is sized before the timer starts, so the
                // timed region measures pure replay work.
                let mut ws = self.sized_workspace(num_removed);
                timed_update(method, num_removed, 0, || {
                    priu_update_linear_with(
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
                    priu_opt_update_linear_with(
                        &self.dataset,
                        &self.trained.provenance,
                        removed,
                        &mut ws,
                    )
                })
            }
            Method::ClosedForm => {
                let capture = self
                    .closed_form
                    .as_ref()
                    .ok_or(CoreError::UnsupportedMethod {
                        method: method.name(),
                        reason: "the closed-form views were not materialised for this session",
                    })?;
                // Sized before the timer: the downdate, blocked Cholesky
                // factorisation and substitution all reuse workspace buffers
                // (the m × m pair is reserved here only — the replay methods
                // never touch it).
                let mut ws = self.sized_workspace(num_removed);
                ws.reserve_decompositions(self.dataset.num_features());
                timed_update(method, num_removed, 0, || {
                    closed_form_incremental_with(&self.dataset, capture, removed, &mut ws)
                })
            }
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

impl DeletionEngine for LinearEngine {
    fn task(&self) -> TaskKind {
        TaskKind::Regression
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
        if self.closed_form.is_some() {
            methods.push(Method::ClosedForm);
        }
        methods.push(Method::Influence);
        methods
    }

    fn update_delta(&self, method: Method, delta: &Delta) -> Result<UpdateOutcome> {
        let Some(added) = self.validate_added(delta)? else {
            return self.removal_update(method, &delta.removed);
        };
        // Closed-form folds both directions into the views and solves once;
        // every other method removes with its own machinery and then runs
        // the exact appended GD steps warm-started from the removal model.
        if method == Method::ClosedForm {
            return self.closed_form_delta(&delta.removed, added);
        }
        let mut outcome = self.removal_update(method, &delta.removed)?;
        let mut ws = self.sized_workspace(0);
        let start = Instant::now();
        let mut w = outcome.model.weight().clone();
        self.addition_steps(added, &mut w, &mut ws, None)?;
        outcome.model = Model::new(ModelKind::Linear, vec![w])?;
        outcome.duration += start.elapsed();
        outcome.num_added = added.num_samples();
        Ok(outcome)
    }

    fn apply_delta(&self, method: Method, delta: &Delta) -> Result<ChainedUpdate> {
        let added = self.validate_added(delta)?;
        let mut outcome = match added {
            Some(added) if method == Method::ClosedForm => {
                self.closed_form_delta(&delta.removed, added)?
            }
            _ => self.removal_update(method, &delta.removed)?,
        };
        let (removed, survivors) = split_survivors(self.num_samples(), &delta.removed)?;
        let y = self.continuous_labels();
        let provenance = &self.trained.provenance;

        // Deletion propagation through the per-iteration caches: subtract the
        // removed samples' Gram and moment contributions from every batch
        // they appear in. The batches are materialised once and reused to
        // build the restricted schedule below.
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
            let delta_y = Vector::from_vec(removed_in_batch.iter().map(|&i| y[i]).collect());
            let mut xy = cache.xy.clone();
            xy.axpy(-1.0, &delta_rows.transpose_matvec(&delta_y)?)?;
            let gram = cache
                .gram
                .deflate(delta_rows, vec![1.0; removed_in_batch.len()])?;
            iterations.push(LinearIterationCache {
                gram,
                xy,
                batch_size: cache.batch_size - positions.len(),
            });
        }

        // Shared by the opt-capture and closed-form downdates below.
        let delta_rows = self.dataset.x.select_rows(&removed);
        let delta_y = Vector::from_vec(removed.iter().map(|&i| y[i]).collect());
        let delta_gram = delta_rows.gram();
        let delta_xty = delta_rows.transpose_matvec(&delta_y)?;

        // Added-block contributions (rank-k growth of the quadratic views).
        let added_views = match added {
            Some(added) => {
                let y_added = added
                    .labels
                    .as_continuous()
                    .expect("added rows were validated as continuous");
                Some((added.x.gram(), added.x.transpose_matvec(y_added)?))
            }
            None => None,
        };

        // The PrIU-opt capture adjusts exactly: `XᵀX` is downdated by the
        // removed block, grown by the added block, and re-eigendecomposed
        // once (O(m³), independent of n).
        let opt = match &provenance.opt {
            Some(capture) => {
                let mut gram = capture.eigen.reconstruct();
                gram.axpy(-1.0, &delta_gram)?;
                let mut xty = capture.xty.clone();
                xty.axpy(-1.0, &delta_xty)?;
                if let Some((added_gram, added_xty)) = &added_views {
                    gram.axpy(1.0, added_gram)?;
                    xty.axpy(1.0, added_xty)?;
                }
                let eigen = SymmetricEigen::new(&gram)?;
                Some(LinearOptCapture { eigen, xty })
            }
            None => None,
        };

        // The closed-form views downdate and grow the same way they do
        // per-update.
        let closed_form = match &self.closed_form {
            Some(capture) => {
                let mut xtx = capture.xtx.clone();
                xtx.axpy(-1.0, &delta_gram)?;
                let mut xty = capture.xty.clone();
                xty.axpy(-1.0, &delta_xty)?;
                if let Some((added_gram, added_xty)) = &added_views {
                    xtx.axpy(1.0, added_gram)?;
                    xty.axpy(1.0, added_xty)?;
                }
                Some(ClosedFormCapture {
                    xtx,
                    xty,
                    num_samples: survivors.len() + added.map_or(0, DenseDataset::num_samples),
                    regularization: capture.regularization,
                })
            }
            None => None,
        };

        let mut dataset = self.dataset.select(&survivors);
        let mut schedule = provenance.schedule.restrict_from(&removed, batches);
        if let Some(added) = added {
            let k = added.num_samples();
            // Appended explicit-batch iterations: run the exact GD steps
            // warm-started from the removal-path model, capturing one
            // iteration cache per appended batch. (The linear captures are
            // trajectory-free — Gram + moment of the batch rows — so for
            // closed-form, whose outcome model is the view solve, the same
            // captures apply.)
            let mut ws = self.sized_workspace(0);
            let start = Instant::now();
            let mut w = outcome.model.weight().clone();
            let mut caps = Vec::with_capacity(k.div_ceil(schedule.batch_size().max(1)));
            self.addition_steps(added, &mut w, &mut ws, Some(&mut caps))?;
            iterations.extend(caps);
            schedule = schedule.extend_with(
                appended_batches(survivors.len(), k, provenance.schedule.batch_size()),
                k,
            );
            dataset.append(added)?;
            if method != Method::ClosedForm {
                outcome.model = Model::new(ModelKind::Linear, vec![w])?;
                outcome.duration += start.elapsed();
                outcome.num_added = k;
            }
        }

        let successor = LinearEngine {
            dataset,
            config: self.config,
            trained: TrainedLinear {
                model: outcome.model.clone(),
                provenance: LinearProvenance {
                    schedule,
                    learning_rate: provenance.learning_rate,
                    regularization: provenance.regularization,
                    initial_model: provenance.initial_model.clone(),
                    iterations,
                    opt,
                },
            },
            closed_form,
            training_time: self.training_time,
        };
        Ok(ChainedUpdate {
            outcome,
            session: Session::Linear(successor),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use priu_data::catalog::Hyperparameters;
    use priu_data::synthetic::regression::{generate_regression, RegressionConfig};

    #[test]
    fn closed_form_views_reuse_the_opt_capture_gram_bitwise() {
        // With both captures on, the views take the trainer's `XᵀX` and
        // `XᵀY` instead of forming them again; either way they are the
        // views `ClosedFormCapture::build` forms, bit for bit.
        let data = generate_regression(&RegressionConfig {
            num_samples: 700,
            num_features: 9,
            seed: 31,
            ..Default::default()
        });
        let config = TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 40,
            num_iterations: 20,
            learning_rate: 0.05,
            regularization: 0.02,
        });
        let expected = ClosedFormCapture::build(&data, config.hyper.regularization).unwrap();
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        for capture_opt in [true, false] {
            let engine =
                LinearEngine::fit(data.clone(), config.with_opt_capture(capture_opt)).unwrap();
            assert_eq!(engine.trained.provenance.opt.is_some(), capture_opt);
            let views = engine.closed_form.as_ref().unwrap();
            assert_eq!(bits(views.xtx.as_slice()), bits(expected.xtx.as_slice()));
            assert_eq!(bits(views.xty.as_slice()), bits(expected.xty.as_slice()));
            assert_eq!(views.num_samples, expected.num_samples);
            assert_eq!(
                views.regularization.to_bits(),
                expected.regularization.to_bits()
            );
        }
    }
}
