//! The symmetric eigensolver never enters the worker pool.
//!
//! Its ~2n dependent passes per factorisation are too small to pay for a
//! pool hand-off, so `eigen_into` runs every one of them on the calling
//! thread. This binary is its own process, so the pool starts cold here: if
//! any pass of the pipeline went multi-chunk, the pool would have spawned
//! workers by the end of the test.

use priu_linalg::decomposition::{eigen_into, EigenScratch};
use priu_linalg::{par, simd, Matrix};
use priu_rng::Rng64;

/// A random symmetric matrix built with plain loops (a Gram kernel would
/// itself go through the pool).
fn random_symmetric(n: usize, seed: u64) -> Matrix {
    let mut rng = Rng64::from_seed(seed);
    let b = Matrix::from_fn(n, n, |_, _| rng.uniform(-1.0, 1.0));
    Matrix::from_fn(n, n, |i, j| 0.5 * (b[(i, j)] + b[(j, i)]))
}

#[test]
fn eigen_pipeline_runs_on_the_calling_thread() {
    assert_eq!(par::pool_workers(), 0, "pool must start empty");
    let mut scratch = EigenScratch::default();
    // 318 is the paper-linear feature count; 512 is the largest shape the
    // system eigendecomposes (cifar10).
    for (case, n) in [318usize, 512].into_iter().enumerate() {
        let a = random_symmetric(n, 0x318 + case as u64);
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        for level in simd::available_levels() {
            simd::with_level(level, || {
                par::with_threads(4, || eigen_into(&a, &mut scratch)).unwrap();
            });
            let sum: f64 = scratch.values().iter().sum();
            assert!(
                (sum - trace).abs() < 1e-9 * n as f64,
                "eigenvalues must sum to the trace n={n} ({level}): {sum} vs {trace}"
            );
        }
    }
    assert_eq!(
        par::pool_workers(),
        0,
        "eigen_into must not start pool workers"
    );
}
