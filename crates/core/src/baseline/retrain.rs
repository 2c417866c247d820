//! BaseL: retraining from scratch after a deletion.
//!
//! The paper's baseline retrains with "the same standard method as before but
//! excluding the removed samples from each mini-batch". These routines do
//! exactly that: they replay the *same* deterministic batch schedule as the
//! original training run (taken from the captured provenance) with the
//! removal set filtered out of every batch, run each surviving batch through
//! the trainer's own mb-SGD step, and do **not** capture any provenance —
//! this is the cost PrIU is compared against. With nothing removed, a
//! retrain reproduces the trained model bit for bit.

use priu_data::dataset::{DenseDataset, Labels, SparseDataset};
use priu_data::minibatch::BatchSchedule;

use crate::capture::{LinearProvenance, LogisticProvenance};
use crate::error::{CoreError, Result};
use crate::interpolation::PiecewiseLinearSigmoid;
use crate::model::{Model, ModelKind};
use crate::trainer::linear::linear_step;
use crate::trainer::logistic::{binary_logistic_step, multinomial_logistic_step};
use crate::trainer::sparse::SparseLogisticProvenance;
use crate::update::{normalize_removed, removed_positions_into};
use crate::workspace::Workspace;

/// Replays `schedule` with the (normalised) `removed` samples filtered out
/// of every batch: each iteration's survivors are staged in `ws.batch`, in
/// batch order, and handed to `step` — empty when the removal emptied the
/// batch. Membership is one bitmap test per batch member.
fn for_surviving_batches(
    schedule: &BatchSchedule,
    removed: &[usize],
    ws: &mut Workspace,
    mut step: impl FnMut(&mut Workspace) -> Result<()>,
) -> Result<()> {
    let mut mask = vec![0_u64; removed.last().map_or(0, |&r| r / 64 + 1)];
    for &r in removed {
        mask[r / 64] |= 1 << (r % 64);
    }
    let kept = |i: usize| {
        mask.get(i / 64)
            .is_none_or(|word| word >> (i % 64) & 1 == 0)
    };
    for t in 0..schedule.num_iterations() {
        schedule.batch_into(t, &mut ws.batch, &mut ws.idx_scratch);
        ws.batch.retain(|&i| kept(i));
        step(ws)?;
    }
    Ok(())
}

/// Retrains a linear-regression model from scratch on the surviving samples.
///
/// # Errors
/// Label mismatches and invalid removal indices are reported as usual.
pub fn retrain_linear(
    dataset: &DenseDataset,
    provenance: &LinearProvenance,
    removed: &[usize],
) -> Result<Model> {
    retrain_linear_with(dataset, provenance, removed, &mut Workspace::new())
}

/// Like [`retrain_linear`], reusing a caller-owned [`Workspace`]: every
/// surviving batch runs the trainer's own GD step (no capture), so an empty
/// removal reproduces the trained model bitwise and a warm workspace makes
/// the loop allocation-free.
///
/// # Errors
/// See [`retrain_linear`].
pub fn retrain_linear_with(
    dataset: &DenseDataset,
    provenance: &LinearProvenance,
    removed: &[usize],
    ws: &mut Workspace,
) -> Result<Model> {
    let y = match &dataset.labels {
        Labels::Continuous(y) => y,
        _ => {
            return Err(CoreError::LabelMismatch {
                expected: "continuous labels for linear regression",
            })
        }
    };
    let removed = normalize_removed(dataset.num_samples(), removed)?;
    let (eta, lambda) = (provenance.learning_rate, provenance.regularization);
    let mut w = provenance.initial_model.weight().clone();
    for_surviving_batches(&provenance.schedule, &removed, ws, |ws| {
        if ws.batch.is_empty() {
            w.scale_mut(1.0 - eta * lambda);
            return Ok(());
        }
        linear_step(&dataset.x, y, &mut w, eta, lambda, ws)
    })?;
    Model::new(ModelKind::Linear, vec![w])
}

/// Retrains a binary logistic-regression model from scratch on the surviving
/// samples.
///
/// # Errors
/// Label mismatches and invalid removal indices are reported as usual.
pub fn retrain_binary_logistic(
    dataset: &DenseDataset,
    provenance: &LogisticProvenance,
    removed: &[usize],
) -> Result<Model> {
    retrain_binary_logistic_with(dataset, provenance, removed, &mut Workspace::new())
}

/// Like [`retrain_binary_logistic`], reusing a caller-owned [`Workspace`]
/// (the trainer's exact step per surviving batch, no capture).
///
/// # Errors
/// See [`retrain_binary_logistic`].
pub fn retrain_binary_logistic_with(
    dataset: &DenseDataset,
    provenance: &LogisticProvenance,
    removed: &[usize],
    ws: &mut Workspace,
) -> Result<Model> {
    let y = match &dataset.labels {
        Labels::Binary(y) => y,
        _ => {
            return Err(CoreError::LabelMismatch {
                expected: "binary labels for binary logistic regression",
            })
        }
    };
    let removed = normalize_removed(dataset.num_samples(), removed)?;
    let (eta, lambda) = (provenance.learning_rate, provenance.regularization);
    let mut w = provenance.initial_model.weight().clone();
    for_surviving_batches(&provenance.schedule, &removed, ws, |ws| {
        if ws.batch.is_empty() {
            w.scale_mut(1.0 - eta * lambda);
            return Ok(());
        }
        binary_logistic_step(&dataset.x, y, &mut w, eta, lambda, None, ws).map(drop)
    })?;
    Model::new(ModelKind::BinaryLogistic, vec![w])
}

/// Retrains a multinomial logistic-regression model from scratch on the
/// surviving samples.
///
/// # Errors
/// Label mismatches and invalid removal indices are reported as usual.
pub fn retrain_multinomial_logistic(
    dataset: &DenseDataset,
    provenance: &LogisticProvenance,
    removed: &[usize],
) -> Result<Model> {
    retrain_multinomial_logistic_with(dataset, provenance, removed, &mut Workspace::new())
}

/// Like [`retrain_multinomial_logistic`], reusing a caller-owned
/// [`Workspace`] (the trainer's exact step per surviving batch, no
/// capture).
///
/// # Errors
/// See [`retrain_multinomial_logistic`].
pub fn retrain_multinomial_logistic_with(
    dataset: &DenseDataset,
    provenance: &LogisticProvenance,
    removed: &[usize],
    ws: &mut Workspace,
) -> Result<Model> {
    let (classes, q) = match &dataset.labels {
        Labels::Multiclass {
            classes,
            num_classes,
        } => (classes, *num_classes),
        _ => {
            return Err(CoreError::LabelMismatch {
                expected: "multiclass labels for multinomial logistic regression",
            })
        }
    };
    let removed = normalize_removed(dataset.num_samples(), removed)?;
    let (eta, lambda) = (provenance.learning_rate, provenance.regularization);
    let mut weights = provenance.initial_model.weights().to_vec();
    for_surviving_batches(&provenance.schedule, &removed, ws, |ws| {
        if ws.batch.is_empty() {
            for w in &mut weights {
                w.scale_mut(1.0 - eta * lambda);
            }
            return Ok(());
        }
        multinomial_logistic_step(&dataset.x, classes, q, &mut weights, eta, lambda, None, ws)
            .map(drop)
    })?;
    Model::new(ModelKind::MultinomialLogistic { num_classes: q }, weights)
}

/// Retrains a sparse binary logistic-regression model from scratch on the
/// surviving samples.
///
/// # Errors
/// Label mismatches and invalid removal indices are reported as usual.
pub fn retrain_sparse_binary_logistic(
    dataset: &SparseDataset,
    provenance: &SparseLogisticProvenance,
    removed: &[usize],
) -> Result<Model> {
    retrain_sparse_binary_logistic_with(dataset, provenance, removed, &mut Workspace::new())
}

/// Like [`retrain_sparse_binary_logistic`], reusing a caller-owned
/// [`Workspace`]. The retraining loop rides the same batched CSR kernels as
/// the sparse PrIU replay — one `rows_dot_into` gathers every survivor
/// margin, one `scatter_rows_into` applies the whole gradient — instead of
/// per-sample `row_dot` / `scatter_row` calls, keeping the BaseL-vs-PrIU
/// comparison apples-to-apples at every thread count. With warm buffers the
/// loop performs no heap allocation per iteration.
///
/// # Errors
/// See [`retrain_sparse_binary_logistic`].
pub fn retrain_sparse_binary_logistic_with(
    dataset: &SparseDataset,
    provenance: &SparseLogisticProvenance,
    removed: &[usize],
    ws: &mut Workspace,
) -> Result<Model> {
    let y = match &dataset.labels {
        Labels::Binary(y) => y,
        _ => {
            return Err(CoreError::LabelMismatch {
                expected: "binary labels for sparse logistic regression",
            })
        }
    };
    let removed = normalize_removed(dataset.num_samples(), removed)?;
    let eta = provenance.learning_rate;
    let lambda = provenance.regularization;
    let m = dataset.num_features();
    let mut w = provenance.initial_model.weight().clone();

    for t in 0..provenance.schedule.num_iterations() {
        provenance
            .schedule
            .batch_into(t, &mut ws.batch, &mut ws.idx_scratch);
        removed_positions_into(&ws.batch, &removed, &mut ws.positions);
        let b_u = ws.batch.len() - ws.positions.len();
        if b_u == 0 {
            w.scale_mut(1.0 - eta * lambda);
            continue;
        }
        ws.prepare_features(m);
        ws.prepare_sparse_batch(ws.batch.len());
        let Workspace {
            batch,
            positions,
            sel,
            b0: coeffs,
            m0: acc,
            ..
        } = ws;
        // Compact the surviving batch members.
        sel.clear();
        let mut next_removed = positions.iter().copied().peekable();
        for (pos, &i) in batch.iter().enumerate() {
            if next_removed.peek() == Some(&pos) {
                next_removed.next();
                continue;
            }
            sel.push(i);
        }
        // Gather all survivor margins with one batched kernel, then turn
        // them into scatter weights y_i · f(y_i · xᵀw).
        let coeffs = &mut coeffs[..sel.len()];
        dataset.x.rows_dot_into(sel, &w, coeffs)?;
        for (k, &i) in sel.iter().enumerate() {
            coeffs[k] = y[i] * PiecewiseLinearSigmoid::exact(y[i] * coeffs[k]);
        }
        // One chunk-ordered deterministic reduction applies the gradient.
        dataset.x.scatter_rows_into(sel, coeffs, acc)?;
        w.scale_mut(1.0 - eta * lambda);
        w.axpy(eta / b_u as f64, &*acc)?;
    }
    Model::new(ModelKind::BinaryLogistic, vec![w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainerConfig;
    use crate::trainer::linear::train_linear;
    use crate::trainer::logistic::train_binary_logistic;
    use priu_data::catalog::Hyperparameters;
    use priu_data::synthetic::classification::{
        generate_binary_classification, ClassificationConfig,
    };
    use priu_data::synthetic::regression::{generate_regression, RegressionConfig};

    fn config() -> TrainerConfig {
        TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 40,
            num_iterations: 120,
            learning_rate: 0.05,
            regularization: 0.05,
        })
        .with_seed(5)
        .with_opt_capture(false)
    }

    #[test]
    fn retraining_with_empty_removal_matches_training_exactly_for_linear() {
        let data = generate_regression(&RegressionConfig {
            num_samples: 300,
            num_features: 5,
            seed: 81,
            ..Default::default()
        });
        let trained = train_linear(&data, &config()).unwrap();
        let retrained = retrain_linear(&data, &trained.provenance, &[]).unwrap();
        // BaseL runs the trainer's own step, so nothing removed is training.
        assert_eq!(trained.model, retrained);
    }

    #[test]
    fn retraining_with_empty_removal_matches_training_for_binary_logistic() {
        let data = generate_binary_classification(&ClassificationConfig {
            num_samples: 300,
            num_features: 6,
            seed: 82,
            ..Default::default()
        });
        let mut cfg = config();
        cfg.hyper.learning_rate = 0.3;
        let trained = train_binary_logistic(&data, &cfg).unwrap();
        let retrained = retrain_binary_logistic(&data, &trained.provenance, &[]).unwrap();
        assert_eq!(trained.model, retrained);
    }

    #[test]
    fn retraining_actually_changes_the_model_when_samples_are_removed() {
        let data = generate_regression(&RegressionConfig {
            num_samples: 200,
            num_features: 4,
            seed: 83,
            ..Default::default()
        });
        let trained = train_linear(&data, &config()).unwrap();
        let removed: Vec<usize> = (0..40).collect();
        let retrained = retrain_linear(&data, &trained.provenance, &removed).unwrap();
        assert_ne!(trained.model, retrained);
        assert!(retrained.is_finite());
    }

    #[test]
    fn sparse_retraining_on_the_kernel_layer_replays_training_exactly() {
        use priu_data::synthetic::sparse_text::{generate_sparse_binary, SparseConfig};
        // The trainer's GD step and the BaseL retraining loop now ride the
        // same batched CSR kernels, so an empty removal reproduces the
        // trained model bitwise — and the result is bitwise identical
        // across thread counts (mb-SGD batches stay single-chunk; the
        // kernels are deterministic regardless).
        let data = generate_sparse_binary(&SparseConfig {
            num_samples: 200,
            num_features: 150,
            nnz_per_row: 12,
            informative_fraction: 0.2,
            seed: 86,
        });
        let mut cfg = config();
        cfg.hyper.learning_rate = 0.3;
        let trained = crate::trainer::sparse::train_sparse_binary_logistic(&data, &cfg).unwrap();
        let removed = [2usize, 17, 40];
        let run = |threads: usize, removed: &[usize]| {
            priu_linalg::par::with_threads(threads, || {
                retrain_sparse_binary_logistic(&data, &trained.provenance, removed).unwrap()
            })
        };
        let empty = run(1, &[]);
        assert_eq!(trained.model, empty);
        assert_eq!(run(1, &removed), run(4, &removed));
        // The workspace variant is the same computation.
        let mut ws = Workspace::new();
        let with_ws =
            retrain_sparse_binary_logistic_with(&data, &trained.provenance, &removed, &mut ws)
                .unwrap();
        assert_eq!(run(1, &removed), with_ws);
    }

    #[test]
    fn mismatched_labels_are_rejected() {
        let data = generate_regression(&RegressionConfig {
            num_samples: 100,
            num_features: 3,
            seed: 84,
            ..Default::default()
        });
        let trained = train_linear(&data, &config()).unwrap();
        let bin = generate_binary_classification(&ClassificationConfig {
            num_samples: 100,
            num_features: 3,
            seed: 85,
            ..Default::default()
        });
        assert!(retrain_linear(&bin, &trained.provenance, &[]).is_err());
    }
}
