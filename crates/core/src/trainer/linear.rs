//! Linear-regression training (Eq. 5) with provenance capture (§5.1, §5.2).

use std::sync::{Mutex, PoisonError};

use priu_data::dataset::{DenseDataset, Labels};
use priu_data::minibatch::BatchSchedule;
use priu_linalg::decomposition::eigen::SymmetricEigen;
use priu_linalg::dense::packed::packed_len;
use priu_linalg::{par, Matrix, Vector};

use crate::capture::{LinearIterationCache, LinearOptCapture, LinearProvenance};
use crate::config::{Compression, TrainerConfig};
use crate::error::{CoreError, Result};
use crate::model::{Model, ModelKind};
use crate::workspace::Workspace;

/// Runs one mb-SGD step (Eq. 5) on the batch currently staged in
/// `ws.batch`, selecting rows from `x`/`y` and mutating `w` in place. This
/// is the *single* definition of the linear GD step: the trainer loop calls
/// it per scheduled iteration, BaseL's retraining per surviving batch, and
/// the delta engine for appended explicit batches — so replays agree with
/// training by construction. The step touches only workspace buffers, so a
/// warm workspace makes it allocation-free. The iteration's provenance is
/// built separately by [`capture_linear_iteration`]: it never feeds back
/// into `w`.
pub(crate) fn linear_step(
    x: &Matrix,
    y: &Vector,
    w: &mut Vector,
    eta: f64,
    lambda: f64,
    ws: &mut Workspace,
) -> Result<()> {
    let m = x.ncols();
    let b = ws.batch.len();
    ws.select_batch_rows(x);
    ws.prepare_batch(b);
    ws.prepare_features(m);
    let Workspace {
        batch,
        rows,
        b0: residuals,
        m0: grad,
        ..
    } = ws;

    // Gradient step: w ← (1-ηλ) w − (2η/B) Σ x_i (x_iᵀ w − y_i).
    rows.matvec_into(w, residuals)?;
    for (pos, &i) in batch.iter().enumerate() {
        residuals[pos] -= y[i];
    }
    rows.transpose_matvec_into(residuals, grad)?;
    // Fused parameter step (bitwise identical to scale_mut + axpy on
    // every SIMD level — one pass over w instead of two).
    w.scale_add(1.0 - eta * lambda, -2.0 * eta / b as f64, grad)?;
    Ok(())
}

/// Captures the provenance of the batch staged in `ws.batch` (Eq. 13/14)
/// into `cache`: the batch Gram `Σ x_i x_iᵀ` (compressed as configured),
/// the moment vector `Σ x_i y_i` and the batch size. The rows and labels
/// are staged in `ws`, and a dense Gram is written into the cache's own
/// storage (see [`LinearIterationCache::storage`]). Linear captures depend
/// on the batch alone, never on `w`, so they may run in any order and on
/// any thread.
pub(crate) fn capture_linear_iteration(
    x: &Matrix,
    y: &Vector,
    compression: Compression,
    ws: &mut Workspace,
    cache: &mut LinearIterationCache,
) -> Result<()> {
    let b = ws.batch.len();
    ws.select_batch_rows(x);
    ws.prepare_batch(b);
    let Workspace {
        batch,
        rows,
        b1: y_batch,
        b2: ones,
        ..
    } = ws;
    for (pos, &i) in batch.iter().enumerate() {
        y_batch[pos] = y[i];
    }
    rows.transpose_matvec_into(y_batch, cache.xy.as_mut_slice())?;
    ones.fill(1.0);
    cache.gram.build_into(rows, ones, compression)?;
    cache.batch_size = b;
    Ok(())
}

/// Capture work (batch rows × packed Gram entries, summed over the
/// iterations) below which the capture region runs on the calling thread
/// alone: so little work costs less than waking a pool worker, and small
/// fits (the serve sessions') never start the pool for it.
const CAPTURE_REGION_MIN_WORK: usize = 1 << 20;

/// Captures every scheduled iteration of `schedule` over `x`/`y` in one
/// `par::run_chunks` region over the iteration indices. Each cache is
/// built whole on one thread, so its bits do not depend on the thread
/// count. The calling thread allocates every cache's storage up front, so
/// the session's provenance lands in its allocator arena whichever thread
/// fills it. Every participating thread stages its rows in one of a fixed
/// set of pre-sized workspaces, taken for a task and returned after it, so
/// the region's staging memory (and allocation count) is a function of the
/// thread count alone.
fn capture_linear_iterations(
    x: &Matrix,
    y: &Vector,
    schedule: &BatchSchedule,
    compression: Compression,
) -> Result<Vec<LinearIterationCache>> {
    let (iterations, m, b) = (schedule.num_iterations(), x.ncols(), schedule.batch_size());
    let slots: Vec<Mutex<Result<LinearIterationCache>>> = (0..iterations)
        .map(|_| Mutex::new(Ok(LinearIterationCache::storage(m, compression))))
        .collect();
    let sized = || Workspace::sized_for(m, b, 1);
    let threads = if iterations * b * packed_len(m) < CAPTURE_REGION_MIN_WORK {
        1
    } else {
        par::current_threads()
    };
    let spare = Mutex::new(
        (0..threads.min(iterations))
            .map(|_| sized())
            .collect::<Vec<_>>(),
    );
    par::with_threads(threads, || {
        par::run_chunks(iterations, |t| {
            let taken = spare.lock().unwrap_or_else(PoisonError::into_inner).pop();
            let mut ws = taken.unwrap_or_else(sized);
            schedule.batch_into(t, &mut ws.batch, &mut ws.idx_scratch);
            let mut slot = slots[t].lock().unwrap_or_else(PoisonError::into_inner);
            if let Ok(cache) = &mut *slot {
                if let Err(e) = capture_linear_iteration(x, y, compression, &mut ws, cache) {
                    *slot = Err(e);
                }
            }
            spare
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(ws);
        })
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

/// The result of training a linear-regression model with provenance capture.
#[derive(Debug, Clone)]
pub struct TrainedLinear {
    /// The trained model `M_init`.
    pub model: Model,
    /// The captured provenance, consumed by `update::priu_linear` and
    /// `update::priu_opt_linear`.
    pub provenance: LinearProvenance,
}

/// Trains a linear-regression model with mb-SGD (Eq. 5) while caching, per
/// iteration, the batch Gram matrix `Σ_{i∈B_t} x_i x_iᵀ` (possibly truncated,
/// Eq. 14) and the moment vector `Σ_{i∈B_t} x_i y_i` (Eq. 13). When
/// `config.capture_opt` is set the PrIU-opt offline structures (§5.2) — the
/// eigendecomposition of the full Gram matrix `XᵀX` and `XᵀY` — are captured
/// as well.
///
/// # Errors
/// * [`CoreError::LabelMismatch`] if the dataset is not a regression dataset.
/// * [`CoreError::Diverged`] if the parameters become non-finite (learning
///   rate too large for the data).
pub fn train_linear(dataset: &DenseDataset, config: &TrainerConfig) -> Result<TrainedLinear> {
    train_linear_with(dataset, config, &mut Workspace::new())
}

/// Like [`train_linear`], reusing a caller-owned [`Workspace`]: once the
/// buffers are warm, the GD step itself performs no heap allocation per
/// iteration. The per-iteration captures run after the recursion, in one
/// pool region (see DESIGN.md §3.3); their storage allocates — it outlives
/// the loop by design.
///
/// With `config.capture_opt` set, `ws.mm0` holds `XᵀX` on return — the
/// matrix the PrIU-opt eigendecomposition factorised — so a caller that
/// needs the full Gram as well can take it instead of forming it again.
///
/// # Errors
/// See [`train_linear`].
pub fn train_linear_with(
    dataset: &DenseDataset,
    config: &TrainerConfig,
    ws: &mut Workspace,
) -> Result<TrainedLinear> {
    let y = match &dataset.labels {
        Labels::Continuous(y) => y,
        _ => {
            return Err(CoreError::LabelMismatch {
                expected: "continuous labels for linear regression",
            })
        }
    };
    let n = dataset.num_samples();
    let m = dataset.num_features();
    let hyper = &config.hyper;
    let schedule = BatchSchedule::new(n, hyper.batch_size, hyper.num_iterations, config.seed);
    // Derive every batch once: this fit and every later replay copy them.
    schedule.fill_table();
    let eta = hyper.learning_rate;
    let lambda = hyper.regularization;

    let initial_model = Model::zeros(ModelKind::Linear, m);
    let mut w = Vector::zeros(m);

    for t in 0..hyper.num_iterations {
        schedule.batch_into(t, &mut ws.batch, &mut ws.idx_scratch);
        linear_step(&dataset.x, y, &mut w, eta, lambda, ws)?;
        if t % 32 == 0 && !w.is_finite() {
            return Err(CoreError::Diverged { iteration: t });
        }
    }
    if !w.is_finite() {
        return Err(CoreError::Diverged {
            iteration: hyper.num_iterations,
        });
    }
    // The provenance of every iteration, captured after the recursion.
    let iterations = capture_linear_iterations(&dataset.x, y, &schedule, config.compression)?;

    // PrIU-opt offline capture: eigendecomposition of M = XᵀX and N = XᵀY.
    // The Gram matrix and the tridiag + QL eigensolver run on workspace buffers
    // (`weighted_gram_into` + `SymmetricEigen::new_with`), so with a
    // pre-sized workspace the capture allocates only what it stores.
    let opt = if config.capture_opt {
        ws.prepare_square(m);
        let Workspace { mm0, eig, .. } = ws;
        dataset.x.weighted_gram_into(None, mm0);
        let eigen = SymmetricEigen::new_with(mm0, eig)?;
        let xty = dataset.x.transpose_matvec(y)?;
        Some(LinearOptCapture { eigen, xty })
    } else {
        None
    };

    let model = Model::new(ModelKind::Linear, vec![w])?;
    Ok(TrainedLinear {
        model,
        provenance: LinearProvenance {
            schedule,
            learning_rate: eta,
            regularization: lambda,
            initial_model,
            iterations,
            opt,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::ProvenanceMemory;
    use crate::config::Compression;
    use crate::metrics;
    use priu_data::catalog::Hyperparameters;
    use priu_data::synthetic::regression::{generate_regression, RegressionConfig};

    fn dataset() -> DenseDataset {
        generate_regression(&RegressionConfig {
            num_samples: 400,
            num_features: 6,
            noise_std: 0.05,
            seed: 11,
            ..Default::default()
        })
    }

    fn config() -> TrainerConfig {
        TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 40,
            num_iterations: 300,
            learning_rate: 0.05,
            regularization: 0.01,
        })
        .with_seed(5)
    }

    #[test]
    fn training_reduces_mse_substantially() {
        let data = dataset();
        let trained = train_linear(&data, &config()).unwrap();
        let mse = metrics::mean_squared_error(&trained.model, &data).unwrap();
        let baseline_mse =
            metrics::mean_squared_error(&Model::zeros(ModelKind::Linear, 6), &data).unwrap();
        assert!(
            mse < baseline_mse * 0.05,
            "trained mse {mse} vs baseline {baseline_mse}"
        );
        assert!(trained.model.is_finite());
        assert_eq!(trained.provenance.iterations.len(), 300);
        assert!(trained.provenance.opt.is_some());
        assert!(trained.provenance.provenance_bytes() > 0);
    }

    #[test]
    fn training_is_deterministic() {
        let data = dataset();
        let a = train_linear(&data, &config()).unwrap();
        let b = train_linear(&data, &config()).unwrap();
        assert_eq!(a.model, b.model);
        let c = train_linear(&data, &config().with_seed(6)).unwrap();
        assert_ne!(a.model, c.model);
    }

    #[test]
    fn compressed_capture_trains_to_the_same_model() {
        let data = dataset();
        let dense = train_linear(&data, &config()).unwrap();
        let compressed = train_linear(
            &data,
            &config().with_compression(Compression::Exact { rank: 1 }),
        )
        .unwrap();
        // Compression only changes what is cached, not the training trajectory.
        assert_eq!(dense.model, compressed.model);
        // A rank-1 cache stores 2·m·r = 12 values per iteration vs the
        // packed dense m(m+1)/2 = 21.
        assert!(compressed.provenance.provenance_bytes() < dense.provenance.provenance_bytes());
    }

    #[test]
    fn opt_capture_can_be_disabled() {
        let data = dataset();
        let trained = train_linear(&data, &config().with_opt_capture(false)).unwrap();
        assert!(trained.provenance.opt.is_none());
    }

    #[test]
    fn wrong_labels_are_rejected() {
        let data = DenseDataset::new(
            priu_linalg::Matrix::zeros(10, 2),
            Labels::Binary(Vector::from_fn(10, |i| if i % 2 == 0 { 1.0 } else { -1.0 })),
        );
        assert!(matches!(
            train_linear(&data, &config()),
            Err(CoreError::LabelMismatch { .. })
        ));
    }

    #[test]
    fn divergence_is_detected() {
        let data = dataset();
        let bad = TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 40,
            num_iterations: 200,
            learning_rate: 50.0,
            regularization: 0.0,
        });
        assert!(matches!(
            train_linear(&data, &bad),
            Err(CoreError::Diverged { .. })
        ));
    }
}
