//! PrIU incremental update for linear regression (Eq. 13/14).
//!
//! The provenance captured during training contains, per iteration `t`, the
//! batch Gram matrix `G_t = Σ_{i∈B_t} x_i x_iᵀ` (possibly truncated to
//! `P_t V_tᵀ`) and the moment vector `h_t = Σ_{i∈B_t} x_i y_i`. Zeroing out
//! the removed samples' provenance tokens turns Eq. 8 into
//!
//! ```text
//! w ← [(1-ηλ)I − (2η/B_U)(G_t − ΔX_tᵀΔX_t)] w + (2η/B_U)(h_t − Δh_t)
//! ```
//!
//! where `ΔX_t` / `Δh_t` are built from the removed samples that fall in
//! batch `t`. The associativity trick of §5.1 keeps everything matrix-vector:
//! per iteration the update reads the cache once — `m(m+1)/2` packed values
//! for a dense `G_t`, `2·r·m` for a truncated one — plus `O(ΔB·m)` for the
//! removed samples, instead of the `O(B·m)` of retraining.
//!
//! Each iteration is one round of a [`par::run_lockstep`] region over the
//! `K` row ranges of [`SymvChunks`] (`K` depends on `m` alone: 1 for
//! `m(m+1)/2 < 32768`, 2 at `m = 318`). Chunk `c` computes its rows of
//! `G_t·w` plus its count-based share of the removed rows' `ΔG_t·w` and
//! `Δh_t`; the round's finish sums the `K` partials in ascending chunk order
//! and applies the four-step update. The bits therefore depend on `m`, never
//! on the thread count, and `K = 1` is the plain sequential replay. The
//! removed members of every batch are staged once before the region, so no
//! participant derives a batch.

use priu_data::dataset::{DenseDataset, Labels};
use priu_linalg::{axpy_slices, par, scale_add_slices, simd, LinalgError, SymvChunks};

use crate::capture::{GramCache, LinearIterationCache, LinearProvenance};
use crate::error::{CoreError, Result};
use crate::model::{Model, ModelKind};
use crate::update::normalize_removed;
use crate::workspace::Workspace;

/// Incrementally updates a linear-regression model after removing the given
/// training samples, using the captured provenance.
///
/// # Errors
/// * [`CoreError::LabelMismatch`] if the dataset is not a regression dataset.
/// * [`CoreError::InvalidRemoval`] for out-of-range removal indices.
pub fn priu_update_linear(
    dataset: &DenseDataset,
    provenance: &LinearProvenance,
    removed: &[usize],
) -> Result<Model> {
    priu_update_linear_with(dataset, provenance, removed, &mut Workspace::new())
}

/// Like [`priu_update_linear`], reusing a caller-owned [`Workspace`]: with
/// warm buffers the replay loop performs zero heap allocation per iteration
/// (staged removals, per-chunk partials and the Gram-cache scratch all live
/// in the workspace).
///
/// # Errors
/// See [`priu_update_linear`]; also [`CoreError::Linalg`] when a cache's
/// shape disagrees with the dataset and [`CoreError::InvalidConfig`] when a
/// cached batch is smaller than its removed members.
pub fn priu_update_linear_with(
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
    let n = dataset.num_samples();
    let removed = normalize_removed(n, removed)?;
    let eta = provenance.learning_rate;
    let lambda = provenance.regularization;
    let m = dataset.num_features();
    let iterations = &provenance.iterations;

    let mut w = provenance.initial_model.weight().clone();
    if w.len() != m {
        return Err(shape_mismatch("PrIU linear initial model", (w.len(), 1), m));
    }
    ws.stage_removed(&provenance.schedule, iterations.len(), &removed);
    let chunks = SymvChunks::new(m);
    let k = chunks.count();
    ws.prepare_partials(k * 3 * m);
    let Workspace {
        removed_rows,
        removed_at,
        partials,
        g0,
        g1,
        ..
    } = ws;
    let removed_in = |t: usize| &removed_rows[removed_at[t]..removed_at[t + 1]];

    let mut failure = None;
    par::run_lockstep(
        iterations.len(),
        k,
        &mut w,
        partials,
        |t, c, w, partial| {
            let cache = &iterations[t];
            let gone = removed_in(t);
            if gone.len() >= cache.batch_size {
                // The whole batch was deleted (or the cache is inconsistent,
                // which the round's finish refuses).
                return;
            }
            let (gw, deltas) = partial.split_at_mut(m);
            let (delta_gw, delta_xy) = deltas.split_at_mut(m);
            match &cache.gram {
                GramCache::Dense(g) if g.dim() == m => {
                    simd::symv_packed_rows(g.as_slice(), w, gw, chunks.rows(c))
                }
                // Factored caches are applied whole by the round's finish,
                // which also refuses a cache of the wrong shape.
                _ => gw.fill(0.0),
            }
            // This chunk's count-based share of the removed contribution,
            // assembled from the raw samples.
            delta_gw.fill(0.0);
            delta_xy.fill(0.0);
            for &i in &gone[gone.len() * c / k..gone.len() * (c + 1) / k] {
                let row = dataset.x.row(i);
                axpy_slices(delta_gw, simd::dot(row, w), row);
                axpy_slices(delta_xy, y[i], row);
            }
        },
        |t, w, partials| {
            if failure.is_some() {
                return;
            }
            let cache = &iterations[t];
            let gone = removed_in(t).len();
            if let Err(e) = check_cache(t, cache, gone, m) {
                failure = Some(e);
                return;
            }
            let b_u = cache.batch_size - gone;
            if b_u == 0 {
                // The whole batch was deleted: only the regularisation
                // shrink applies at this iteration.
                w.scale_mut(1.0 - eta * lambda);
                return;
            }
            let (sum, rest) = partials.split_at_mut(3 * m);
            if !matches!(cache.gram, GramCache::Dense(_)) {
                if let Err(e) = cache.gram.apply_into(w, &mut sum[..m], g0, g1) {
                    failure = Some(e);
                    return;
                }
            }
            for partial in rest.chunks_exact(3 * m) {
                axpy_slices(sum, 1.0, partial);
            }
            let (gw, deltas) = sum.split_at(m);
            let (delta_gw, delta_xy) = deltas.split_at(m);

            // In-place: every right-hand side was computed from the old
            // `w`. The shrink and the first axpy fuse into one pass
            // (bitwise identical to scale_mut + axpy on every SIMD level).
            let scale = 2.0 * eta / b_u as f64;
            let w = w.as_mut_slice();
            scale_add_slices(w, 1.0 - eta * lambda, -scale, gw);
            axpy_slices(w, scale, delta_gw);
            axpy_slices(w, scale, &cache.xy);
            axpy_slices(w, -scale, delta_xy);
        },
    );
    if let Some(e) = failure {
        return Err(e);
    }

    Model::new(ModelKind::Linear, vec![w])
}

fn shape_mismatch(op: &'static str, left: (usize, usize), m: usize) -> CoreError {
    CoreError::Linalg(LinalgError::ShapeMismatch {
        op,
        left,
        right: (m, 1),
    })
}

/// Checks what a round relies on, where the round first reads the cache:
/// the cache acts on `m` features, and its batch is no smaller than its
/// `gone` removed members.
fn check_cache(t: usize, cache: &LinearIterationCache, gone: usize, m: usize) -> Result<()> {
    let dim = cache.gram.dim();
    if dim != m {
        return Err(shape_mismatch("PrIU linear Gram cache", (dim, dim), m));
    }
    if cache.xy.len() != m {
        return Err(shape_mismatch(
            "PrIU linear moment cache",
            (cache.xy.len(), 1),
            m,
        ));
    }
    if gone > cache.batch_size {
        return Err(CoreError::InvalidConfig(format!(
            "iteration {t} caches a batch of {} samples but {gone} of its members are removed",
            cache.batch_size
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::retrain::retrain_linear;
    use crate::config::{Compression, TrainerConfig};
    use crate::metrics::compare_models;
    use crate::trainer::linear::train_linear;
    use priu_data::catalog::Hyperparameters;
    use priu_data::dirty::random_subsets;
    use priu_data::synthetic::regression::{generate_regression, RegressionConfig};

    fn dataset() -> DenseDataset {
        generate_regression(&RegressionConfig {
            num_samples: 500,
            num_features: 8,
            noise_std: 0.1,
            seed: 42,
            ..Default::default()
        })
    }

    fn config() -> TrainerConfig {
        TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 50,
            num_iterations: 250,
            learning_rate: 0.05,
            regularization: 0.05,
        })
        .with_seed(9)
    }

    #[test]
    fn removing_nothing_reproduces_the_original_model() {
        let data = dataset();
        let trained = train_linear(&data, &config()).unwrap();
        let updated = priu_update_linear(&data, &trained.provenance, &[]).unwrap();
        let cmp = compare_models(&trained.model, &updated).unwrap();
        assert!(cmp.l2_distance < 1e-9, "distance {}", cmp.l2_distance);
    }

    #[test]
    fn matches_retraining_closely_for_small_deletions() {
        let data = dataset();
        let cfg = config();
        let trained = train_linear(&data, &cfg).unwrap();
        let removed = random_subsets(data.num_samples(), 0.02, 1, 7)[0].clone();
        let updated = priu_update_linear(&data, &trained.provenance, &removed).unwrap();
        let retrained = retrain_linear(&data, &trained.provenance, &removed).unwrap();
        let cmp = compare_models(&retrained, &updated).unwrap();
        // PrIU for linear regression replays the exact update rule, so the
        // only error source is floating-point accumulation.
        assert!(cmp.l2_distance < 1e-8, "distance {}", cmp.l2_distance);
        assert!(cmp.cosine_similarity > 0.999999);
    }

    #[test]
    fn matches_retraining_for_large_deletions_with_truncated_capture() {
        let data = dataset();
        let cfg = config().with_compression(Compression::Exact { rank: 8 });
        let trained = train_linear(&data, &cfg).unwrap();
        let removed = random_subsets(data.num_samples(), 0.2, 1, 11)[0].clone();
        let updated = priu_update_linear(&data, &trained.provenance, &removed).unwrap();
        let retrained = retrain_linear(&data, &trained.provenance, &removed).unwrap();
        let cmp = compare_models(&retrained, &updated).unwrap();
        // Full-rank truncation (rank = m) is exact.
        assert!(cmp.l2_distance < 1e-8, "distance {}", cmp.l2_distance);
    }

    #[test]
    fn duplicate_and_unsorted_removals_are_normalised() {
        let data = dataset();
        let trained = train_linear(&data, &config()).unwrap();
        let a = priu_update_linear(&data, &trained.provenance, &[10, 3, 10, 7]).unwrap();
        let b = priu_update_linear(&data, &trained.provenance, &[3, 7, 10]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_removals_are_rejected() {
        let data = dataset();
        let trained = train_linear(&data, &config()).unwrap();
        assert!(matches!(
            priu_update_linear(&data, &trained.provenance, &[9999]),
            Err(CoreError::InvalidRemoval { .. })
        ));
    }
}
