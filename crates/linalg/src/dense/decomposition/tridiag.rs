//! Householder tridiagonalisation `A = Q T Qᵀ` and implicit-shift QL
//! iteration — the two stages of the symmetric eigensolver. Both run
//! entirely on the calling thread (see "Why no pool" below).
//!
//! # Stage one: tridiagonalisation
//!
//! [`tridiag_factor_into`] reduces a symmetric `n × n` matrix to
//! tridiagonal form with `n − 2` Householder similarity transforms
//! (Golub & Van Loan §8.3.1): at step `k` a reflector `H = I − βvvᵀ`
//! (`β = 2/vᵀv`) built from the subdiagonal column annihilates rows
//! `k+2..n` of column `k`, and the trailing block receives the symmetric
//! rank-2 update
//!
//! ```text
//! p = β·A·v,   w = p − (β·pᵀv/2)·v,   A ← A − v·wᵀ − w·vᵀ
//! ```
//!
//! for `4n³/3` total flops. The matvec is one [`simd::dot`] per row; the
//! rank-2 update is two [`simd::fnma_scaled`] lanes per row. `Q` is
//! back-accumulated by applying the stored reflectors in reverse to the
//! identity through the vectorised reflector passes QR uses
//! (`apply_reflector_inline`, the loop bodies of QR's chunked wrapper).
//!
//! # Stage two: implicit-shift QL
//!
//! [`tql2_into`] diagonalises the tridiagonal `(d, e)` pair with the
//! EISPACK `tql2` schedule: per eigenvalue a Wilkinson-style shift, then a
//! sequence of Givens rotations chasing the bulge. The `d`/`e` recurrence
//! is inherently serial (and `O(n)` per sweep — negligible); the expensive
//! part applies each sweep's rotations to adjacent rows of the eigenvector
//! accumulator `Zᵀ` through the FMA-free [`simd::rotate_two`] kernel.
//!
//! # Why no pool
//!
//! Each factorisation is ~2n dependent passes of `O(n²)` work or less — a
//! matvec, a rank-2 update and a reflector per column, a rotation pass per
//! QL sweep — too small to pay for a pool hand-off. Chunking them over
//! threads made `eigen_into` slower on two threads than on one at every
//! size measured (2 vCPU, AVX2): 28–30 ms vs 96–97 ms at n = 318,
//! 158–167 ms vs 335–351 ms at n = 512, and no better at n = 1024
//! (1.60–1.72 s vs 1.63–1.83 s). So no pass here enters [`crate::par`],
//! and the result cannot depend on `PRIU_THREADS`.
//!
//! # Determinism
//!
//! Both entry points execute one shared driver: the same reflector
//! construction, the same per-row [`simd::dot`] matvec, and per-element
//! chains in the same order. They differ only in how the rank-2 update and
//! the reflector passes are written (row microkernels vs element loops
//! through the dispatched `fnma` / `madd` ops), so [`tridiag_factor_into`]
//! is **bitwise identical** to [`tridiag_factor_scalar_into`] per
//! `PRIU_SIMD` level. The QL stage's rotations are built from serial scalar
//! arithmetic and applied with an FMA-free kernel, so its bits never depend
//! on the level.

use crate::dense::matrix::Matrix;
use crate::error::{LinalgError, Result};
use crate::simd;

use super::qr::{apply_reflector_inline, apply_reflector_scalar, ApplyFn};

/// QL iteration cap per eigenvalue before declaring divergence.
const MAX_QL_ITERS: usize = 50;

/// Scratch buffers for [`tridiag_factor_into`], reusable across
/// factorisations of any size (buffers grow to the largest problem seen and
/// are then allocation-free).
#[derive(Debug, Default, Clone)]
pub struct TridiagScratch {
    /// Symmetrised working copy; the trailing block shrinks per step.
    t: Matrix,
    /// Householder vectors, one per row (`n × n`; row `k` is `v_k`, zero
    /// outside `k+1..n`).
    vs: Matrix,
    /// Squared norms `v_kᵀ v_k` (zero marks a skipped reflector).
    vnorms: Vec<f64>,
    /// Matvec result `p = β·A·v`.
    p: Vec<f64>,
    /// Rank-2 coefficient vector `w`.
    w: Vec<f64>,
    /// Per-column dots of the Q back-accumulation reflector passes.
    dots: Vec<f64>,
}

impl TridiagScratch {
    /// Grows every buffer to factorise `n × n` problems allocation-free.
    pub fn reserve(&mut self, n: usize) {
        self.t.reshape_zeroed(n, n);
        self.vs.reshape_zeroed(n, n);
        self.vnorms.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.w.resize(n, 0.0);
        self.dots.resize(n, 0.0);
    }
}

/// How the symmetric rank-2 update `T ← T − v·wᵀ − w·vᵀ` (trailing block
/// from `k1`) is applied.
type TriRank2Fn = fn(&mut Matrix, &[f64], &[f64], usize);

/// Householder tridiagonalisation into caller-owned buffers, on the
/// calling thread: `q` becomes the orthogonal `n × n` factor, `d` the `n`
/// diagonal and `e` the subdiagonal of `T` (sized `n` with `e[n−1]` as
/// zero padding for the QL stage; the subdiagonal proper is `e[..n−1]`),
/// such that `A = Q T Qᵀ`. Bitwise identical to
/// [`tridiag_factor_scalar_into`].
///
/// # Errors
/// Returns [`LinalgError::InvalidArgument`] if the matrix is not square or
/// not symmetric.
pub fn tridiag_factor_into(
    a: &Matrix,
    q: &mut Matrix,
    d: &mut Vec<f64>,
    e: &mut Vec<f64>,
    scratch: &mut TridiagScratch,
) -> Result<()> {
    tridiag_driver(a, q, d, e, scratch, tri_rank2, apply_reflector_inline)
}

/// The plain-loop reference: the same driver as [`tridiag_factor_into`]
/// with element-loop rank-2 / reflector passes — used by the parity suite
/// (bitwise) and the decomposition benches (scalar baseline).
///
/// # Errors
/// See [`tridiag_factor_into`].
pub fn tridiag_factor_scalar_into(
    a: &Matrix,
    q: &mut Matrix,
    d: &mut Vec<f64>,
    e: &mut Vec<f64>,
    scratch: &mut TridiagScratch,
) -> Result<()> {
    tridiag_driver(
        a,
        q,
        d,
        e,
        scratch,
        tri_rank2_scalar,
        apply_reflector_scalar,
    )
}

/// The shared factorisation driver, parameterised only over how the rank-2
/// update and the reflector passes are written (row microkernels vs element
/// loops); everything else — the reflector construction, the matvec, the
/// `β`/`κ` scalars, the `w` combination — is a single serial computation
/// tree shared by both entry points.
fn tridiag_driver(
    a: &Matrix,
    q: &mut Matrix,
    d: &mut Vec<f64>,
    e: &mut Vec<f64>,
    scratch: &mut TridiagScratch,
    rank2: TriRank2Fn,
    apply: ApplyFn,
) -> Result<()> {
    if !a.is_square() {
        return Err(LinalgError::InvalidArgument(format!(
            "tridiagonalisation requires a square matrix, got {}x{}",
            a.nrows(),
            a.ncols()
        )));
    }
    let n = a.nrows();
    d.clear();
    d.resize(n, 0.0);
    e.clear();
    e.resize(n, 0.0);
    q.reshape_zeroed(n, n);
    for i in 0..n {
        q[(i, i)] = 1.0;
    }
    if n == 0 {
        return Ok(());
    }
    let scale = a.max_abs().max(1.0);
    if a.asymmetry()? > 1e-8 * scale {
        return Err(LinalgError::InvalidArgument(
            "tridiagonalisation requires a symmetric matrix".to_string(),
        ));
    }

    let TridiagScratch {
        t,
        vs,
        vnorms,
        p,
        w,
        dots,
    } = scratch;
    t.reshape_for_overwrite(n, n);
    for i in 0..n {
        for j in 0..n {
            t[(i, j)] = 0.5 * (a[(i, j)] + a[(j, i)]);
        }
    }
    vs.reshape_zeroed(n, n);
    vnorms.clear();
    vnorms.resize(n, 0.0);
    p.clear();
    p.resize(n, 0.0);
    w.clear();
    w.resize(n, 0.0);
    dots.clear();
    dots.resize(n, 0.0);

    for k in 0..n.saturating_sub(2) {
        let k1 = k + 1;
        d[k] = t[(k, k)];
        // Reflector from the subdiagonal column (rows k+1..n), same sign
        // convention and ascending-row norm accumulation as QR's
        // `build_reflector`.
        let mut norm_sq = 0.0;
        for i in k1..n {
            norm_sq += t[(i, k)] * t[(i, k)];
        }
        let norm = norm_sq.sqrt();
        let v = vs.row_mut(k);
        v.fill(0.0);
        if norm == 0.0 {
            vnorms[k] = 0.0;
            e[k] = 0.0;
            continue;
        }
        let alpha = if t[(k1, k)] >= 0.0 { -norm } else { norm };
        for i in k1..n {
            v[i] = t[(i, k)];
        }
        v[k1] -= alpha;
        let mut v_norm_sq = 0.0;
        for x in v[k1..n].iter() {
            v_norm_sq += x * x;
        }
        vnorms[k] = v_norm_sq;
        // H·col_k = (…, α, 0, …, 0): record the new subdiagonal directly.
        e[k] = alpha;
        let beta = 2.0 / v_norm_sq;
        let v = vs.row(k);
        tri_matvec(t, v, k1, beta, p);
        let kappa = 0.5 * beta * simd::dot(&p[k1..n], &v[k1..n]);
        for i in k1..n {
            w[i] = simd::fnma(p[i], kappa, v[i]);
        }
        rank2(t, v, w, k1);
    }
    if n >= 2 {
        d[n - 2] = t[(n - 2, n - 2)];
        e[n - 2] = t[(n - 1, n - 2)];
    }
    d[n - 1] = t[(n - 1, n - 1)];

    // Back-accumulate Q = H_0 (H_1 (… H_{n-3} I)): reflector k touches
    // rows k+1..n, and column j ≤ k of the partial product is still e_j
    // when it runs, so columns k+1..n cover every non-trivial dot.
    for k in (0..n.saturating_sub(2)).rev() {
        if vnorms[k] == 0.0 {
            continue;
        }
        apply(q, vs.row(k), vnorms[k], k + 1, k + 1, n, dots);
    }
    Ok(())
}

/// Trailing matvec `p[i] = β · Σ_j T[i][j]·v[j]` over the block
/// `i, j ∈ k1..n`, every row's dot through the dispatched [`simd::dot`]
/// microkernel (one shared matvec for both entry points).
fn tri_matvec(t: &Matrix, v: &[f64], k1: usize, beta: f64, p: &mut [f64]) {
    let n = t.nrows();
    #[allow(clippy::needless_range_loop)] // i indexes matrix rows and p alike
    for i in k1..n {
        p[i] = beta * simd::dot(&t.row(i)[k1..n], &v[k1..n]);
    }
}

/// Symmetric rank-2 update `T[i][j] −= v_i·w_j + w_i·v_j` over the trailing
/// block, two fused [`simd::fnma_scaled`] lanes per row in fixed order
/// (`w`-scaled first, then `v`-scaled).
fn tri_rank2(t: &mut Matrix, v: &[f64], w: &[f64], k1: usize) {
    let n = t.nrows();
    for i in k1..n {
        let row = &mut t.row_mut(i)[k1..n];
        simd::fnma_scaled(row, &w[k1..n], v[i]);
        simd::fnma_scaled(row, &v[k1..n], w[i]);
    }
}

/// Sequential rank-2 update — the same two lanes per row as element loops
/// through the dispatched `fnma` op.
fn tri_rank2_scalar(t: &mut Matrix, v: &[f64], w: &[f64], k1: usize) {
    let n = t.nrows();
    for i in k1..n {
        let (vi, wi) = (v[i], w[i]);
        for j in k1..n {
            t[(i, j)] = simd::fnma(t[(i, j)], w[j], vi);
        }
        for j in k1..n {
            t[(i, j)] = simd::fnma(t[(i, j)], v[j], wi);
        }
    }
}

/// One Givens rotation of a QL sweep, applied to adjacent rows `i`/`i+1`
/// of the eigenvector accumulator `Zᵀ`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QlRotation {
    i: usize,
    c: f64,
    s: f64,
}

/// Implicit-shift QL iteration (EISPACK `tql2` schedule) on the
/// tridiagonal `(d, e)` pair, accumulating eigenvectors into `zt`.
///
/// On entry `d` holds the diagonal and `e[..n−1]` the subdiagonal
/// (`e[n−1]` is scratch padding); `zt` holds `Zᵀ` — row `i` of `zt` is the
/// `i`-th column of the current basis (the tridiagonalisation's `Qᵀ`, or
/// the identity to diagonalise `T` alone). On exit `d` holds the
/// (unsorted) eigenvalues and row `i` of `zt` the matching eigenvector.
///
/// # Errors
/// Returns [`LinalgError::DidNotConverge`] if an eigenvalue fails to
/// deflate within [`MAX_QL_ITERS`] sweeps.
pub(crate) fn tql2_into(
    d: &mut [f64],
    e: &mut [f64],
    zt: &mut Matrix,
    rot: &mut Vec<QlRotation>,
) -> Result<()> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    debug_assert_eq!(e.len(), n, "e carries one padding slot for the sweep");
    // EISPACK's deflation test: a coupling is negligible when adding it to
    // the norm `tst1 = max_l (|d_l| + |e_l|)` changes nothing. The test is
    // relative to the matrix scale, so couplings inside a cluster of
    // (near-)zero eigenvalues deflate too, where a test relative to the
    // neighbouring diagonal entries never passes. EISPACK grows `tst1` as a
    // running maximum over the rows reached so far; taking the maximum over
    // every row up front keeps the test at the matrix scale also when the
    // small entries come first (a running maximum would still sit below
    // the rounding noise the large entries leave in the couplings).
    let mut tst1 = 0.0_f64;
    for l in 0..n {
        let coupling = if l + 1 < n { e[l].abs() } else { 0.0 };
        tst1 = tst1.max(d[l].abs() + coupling);
    }
    for l in 0..n {
        let mut iters = 0;
        loop {
            // Find the first negligible coupling at or after l: the block
            // l..=mm is what the sweep rotates.
            let mut mm = l;
            while mm + 1 < n {
                if e[mm].abs() + tst1 == tst1 {
                    break;
                }
                mm += 1;
            }
            if mm == l {
                break; // d[l] has deflated to an eigenvalue
            }
            iters += 1;
            if iters > MAX_QL_ITERS {
                return Err(LinalgError::DidNotConverge {
                    op: "implicit-shift QL",
                    iterations: MAX_QL_ITERS,
                });
            }
            // Wilkinson-style shift from the leading 2×2.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            let sign_r = if g >= 0.0 { r } else { -r };
            g = d[mm] - d[l] + e[l] / (g + sign_r);
            let (mut s, mut c) = (1.0, 1.0);
            let mut shift = 0.0;
            let mut underflow = false;
            rot.clear();
            // Chase the bulge from the bottom of the block up to l.
            for i in (l..mm).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow: deflate and re-scan.
                    d[i + 1] -= shift;
                    e[mm] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - shift;
                r = (d[i] - g) * s + 2.0 * c * b;
                shift = s * r;
                d[i + 1] = g + shift;
                g = c * r - b;
                rot.push(QlRotation { i, c, s });
            }
            apply_ql_rotations(zt, rot);
            if underflow {
                continue;
            }
            d[l] -= shift;
            e[l] = g;
            e[mm] = 0.0;
        }
    }
    Ok(())
}

/// Applies a sweep's rotation sequence to the rows of `Zᵀ`: rotation
/// `(i, c, s)` maps `(z_i, z_{i+1}) ← (c·z_i − s·z_{i+1}, s·z_i + c·z_{i+1})`
/// element-wise through the FMA-free [`simd::rotate_two`] kernel.
fn apply_ql_rotations(zt: &mut Matrix, rot: &[QlRotation]) {
    let n = zt.ncols();
    for qr in rot {
        let (upper, lower) = zt.as_mut_slice().split_at_mut((qr.i + 1) * n);
        simd::rotate_two(&mut upper[qr.i * n..], &mut lower[..n], qr.c, qr.s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let b = Matrix::from_fn(n, n, |_, _| next());
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = 0.5 * (b[(i, j)] + b[(j, i)]);
            }
        }
        a
    }

    fn tridiagonal(d: &[f64], e: &[f64]) -> Matrix {
        let n = d.len();
        let mut t = Matrix::zeros(n, n);
        for i in 0..n {
            t[(i, i)] = d[i];
            if i + 1 < n {
                t[(i + 1, i)] = e[i];
                t[(i, i + 1)] = e[i];
            }
        }
        t
    }

    #[test]
    fn factorisation_reconstructs_and_q_is_orthogonal() {
        for n in [1, 2, 3, 5, 17, 40] {
            let a = sym(n, n as u64);
            let mut q = Matrix::zeros(0, 0);
            let (mut d, mut e) = (Vec::new(), Vec::new());
            let mut scratch = TridiagScratch::default();
            tridiag_factor_into(&a, &mut q, &mut d, &mut e, &mut scratch).unwrap();
            let t = tridiagonal(&d, &e[..n - 1.min(n)]);
            let rec = q.matmul(&t).unwrap().matmul(&q.transpose()).unwrap();
            let qtq = q.transpose().matmul(&q).unwrap();
            for i in 0..n {
                for j in 0..n {
                    assert!(
                        (rec[(i, j)] - a[(i, j)]).abs() < 1e-12 * n as f64,
                        "reconstruction at {i},{j} (n={n})"
                    );
                    let id = if i == j { 1.0 } else { 0.0 };
                    assert!((qtq[(i, j)] - id).abs() < 1e-12 * n as f64, "QᵀQ (n={n})");
                }
            }
        }
    }

    #[test]
    fn blocked_is_bitwise_identical_to_scalar() {
        let a = sym(37, 7);
        let mut scratch = TridiagScratch::default();
        let mut q1 = Matrix::zeros(0, 0);
        let (mut d1, mut e1) = (Vec::new(), Vec::new());
        tridiag_factor_into(&a, &mut q1, &mut d1, &mut e1, &mut scratch).unwrap();
        let mut q2 = Matrix::zeros(0, 0);
        let (mut d2, mut e2) = (Vec::new(), Vec::new());
        tridiag_factor_scalar_into(&a, &mut q2, &mut d2, &mut e2, &mut scratch).unwrap();
        assert_eq!(q1, q2);
        assert_eq!(d1, d2);
        assert_eq!(e1, e2);
    }

    #[test]
    fn ql_diagonalises_a_tridiagonal_pair() {
        let n = 24;
        let mut d: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let mut e: Vec<f64> = (0..n).map(|i| ((i * 3 % 5) as f64) / 3.0 + 0.1).collect();
        e[n - 1] = 0.0;
        let t = tridiagonal(&d.clone(), &e[..n - 1]);
        let mut zt = Matrix::identity(n);
        let mut rot = Vec::new();
        tql2_into(&mut d, &mut e, &mut zt, &mut rot).unwrap();
        // T·z_i = λ_i·z_i for every accumulated row of Zᵀ.
        for (i, &lambda) in d.iter().enumerate() {
            let z = zt.row(i);
            for r in 0..n {
                let mut tz = 0.0;
                for (c, &zc) in z.iter().enumerate() {
                    tz += t[(r, c)] * zc;
                }
                assert!(
                    (tz - lambda * z[r]).abs() < 1e-10,
                    "eigenpair {i} residual at row {r}"
                );
            }
        }
    }

    #[test]
    fn rejects_non_square_and_asymmetric() {
        let mut scratch = TridiagScratch::default();
        let mut q = Matrix::zeros(0, 0);
        let (mut d, mut e) = (Vec::new(), Vec::new());
        assert!(
            tridiag_factor_into(&Matrix::zeros(2, 3), &mut q, &mut d, &mut e, &mut scratch)
                .is_err()
        );
        let mut a = Matrix::zeros(3, 3);
        a[(0, 1)] = 1.0;
        assert!(tridiag_factor_into(&a, &mut q, &mut d, &mut e, &mut scratch).is_err());
    }
}
