//! QR factorisation (Householder, compact-WY aggregated) and modified
//! Gram-Schmidt orthonormalisation.
//!
//! The orthonormalisation routine is the work-horse of the randomized range
//! finder used to compress PrIU's per-iteration intermediate results.
//!
//! # Compact-WY blocked, pool-parallel factorisation
//!
//! [`qr_factor_into`] groups the Householder sweep into panels of
//! [`QR_NB`] reflectors. Inside a panel each reflector is built and applied
//! to the *panel columns only* with the classic two-pass scheme (per-column
//! dots over column chunks, rank-1 update over row chunks). The panel's
//! reflectors are then aggregated into compact-WY form
//! `H_{k0} ⋯ H_{k1−1} = I − V·T·Vᵀ` (LAPACK `larft` forward-columnwise
//! recurrence, `T` upper triangular with `T_jj = τ_j = 2/vⱼᵀvⱼ`), so that
//!
//! * the **trailing-matrix update** applies `I − V·Tᵀ·Vᵀ` as two
//!   matmul-shaped pool passes — `W = VᵀX` then `W² = Tᵀ·W` over column
//!   chunks, followed by `X −= V·W²` over row chunks — instead of
//!   `2·nb` separate sweeps;
//! * **thin `Q` by back-accumulation** applies the panels in reverse order
//!   to `[I_m; 0]` as `I − V·T·Vᵀ` with the same two pool passes.
//!
//! **Determinism.** Aggregating reflectors *changes the summation tree*
//! (per-column chains accumulate `nb` reflector contributions through `W`
//! instead of one at a time), so the plain-loop scalar reference
//! [`qr_factor_scalar_into`] moves with it: both entry points execute the
//! *same* panel driver and differ only in whether the three WY passes are
//! chunk-parallel or sequential loops. Every per-element chain advances in
//! ascending row (`i`), reflector (`p`), and accumulator (`q`) order with
//! zero terms uniformly included, and chunk boundaries depend only on the
//! shape — so the blocked path is **bitwise identical** to the scalar
//! reference and across any `PRIU_THREADS` (asserted by `decomp_parity`).
//! Both paths route each multiply-add through the [`crate::simd`] layer
//! (chunked passes via the dispatched axpy / `fnma_scaled` kernels, the
//! reference via the dispatched `madd` / `fnma` element ops), so the
//! guarantee holds per `PRIU_SIMD` level.
//!
//! The pre-aggregation per-reflector driver survives as
//! [`qr_factor_per_reflector_into`]: it computes the same factorisation
//! through a different tree (numerically equal, not bitwise), and anchors
//! the compact-WY equivalence suite and the decomposition benches.

use std::ops::Range;

use crate::dense::matrix::Matrix;
use crate::dense::vector::{axpy_slices, Vector};
use crate::error::{LinalgError, Result};
use crate::par::{self, Chunks};
use crate::simd;

/// Minimum rows per chunk for the rank-1 / WY update passes.
const QR_MIN_CHUNK_ROWS: usize = 256;
/// Minimum columns per chunk for the dot-accumulation passes (each column's
/// dot costs a full row sweep, so columns are cheaper to split than rows).
const QR_MIN_CHUNK_COLS: usize = 64;
/// Chunk-count cap for both passes (map-style, disjoint outputs).
const QR_MAX_CHUNKS: usize = 16;
/// Column count below which [`qr_factor_into`] dispatches to the
/// per-reflector driver instead of compact-WY: the `T`-block build is
/// `O(m·nb²)` yet saves only trailing-pass traffic proportional to the
/// trailing width, so it never amortises on narrow problems (BENCH_7:
/// per-reflector wins at 512×128 on one CPU, WY wins by 512×257). The
/// switch is mirrored in [`qr_factor_scalar_into`] so the bitwise
/// scalar == blocked == pool contract is preserved on both sides of the
/// crossover (`decomp_parity` pins it at the boundary).
pub const QR_WY_MIN_COLS: usize = 192;
/// Compact-WY panel width: reflectors aggregated per `I − V·T·Vᵀ` block.
pub const QR_NB: usize = 32;

/// Scratch buffers for [`qr_factor_into`], reusable across factorisations of
/// any shape (buffers grow to the largest problem seen and are then
/// allocation-free).
#[derive(Debug, Default, Clone)]
pub struct QrScratch {
    /// Working copy of the input; upper triangle becomes `R`.
    rf: Matrix,
    /// Householder vectors, one per row (`m × n`; row `k` is `v_k`, zero
    /// outside `k..n`).
    vs: Matrix,
    /// Per-column dots / scales of the current reflector application.
    dots: Vec<f64>,
    /// Squared norms `v_kᵀ v_k` (zero marks a skipped reflector).
    vnorms: Vec<f64>,
    /// Stacked upper-triangular `T` blocks, one `QR_NB × QR_NB` block per
    /// panel (panel `b` occupies rows `b·QR_NB ..`).
    ts: Matrix,
    /// WY pass-1 workspace `W = VᵀX` (`QR_NB` rows, tight `ncols` stride).
    w: Vec<f64>,
    /// WY pass-2 workspace `W² = T'·W` (same layout as `w`).
    w2: Vec<f64>,
    /// `Vᵀ·v_j` accumulator for the `larft` recurrence.
    tmp: Vec<f64>,
}

/// Thin QR factorisation `A = Q R` with `Q` having orthonormal columns.
#[derive(Debug, Clone)]
pub struct Qr {
    q: Matrix,
    r: Matrix,
}

impl Qr {
    /// Computes a thin Householder QR factorisation of an `n x m` matrix with
    /// `n >= m`, using the blocked pool-parallel algorithm of
    /// [`qr_factor_into`].
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidArgument`] if `n < m` or the matrix is
    /// empty.
    pub fn new(a: &Matrix) -> Result<Self> {
        let mut q = Matrix::zeros(0, 0);
        let mut r = Matrix::zeros(0, 0);
        qr_factor_into(a, &mut q, &mut r, &mut QrScratch::default())?;
        Ok(Self { q, r })
    }

    /// Orthonormal factor `Q` (`n x m`).
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// Upper-triangular factor `R` (`m x m`).
    pub fn r(&self) -> &Matrix {
        &self.r
    }
}

fn validate_shape(a: &Matrix) -> Result<(usize, usize)> {
    let (n, m) = a.shape();
    if n == 0 || m == 0 {
        return Err(LinalgError::InvalidArgument(
            "QR of an empty matrix is undefined".to_string(),
        ));
    }
    if n < m {
        return Err(LinalgError::InvalidArgument(format!(
            "thin QR requires rows >= cols, got {n}x{m}"
        )));
    }
    Ok((n, m))
}

/// Builds reflector `k` from column `k` of `rf` into row `k` of `vs`,
/// returning `vᵀv` (`0` marks a skip). Shared by the blocked and scalar
/// paths (identical summation order: ascending rows).
fn build_reflector(rf: &Matrix, vs: &mut Matrix, k: usize, n: usize) -> f64 {
    let mut norm_sq = 0.0;
    for i in k..n {
        norm_sq += rf[(i, k)] * rf[(i, k)];
    }
    let norm = norm_sq.sqrt();
    let v = vs.row_mut(k);
    v.fill(0.0);
    if norm == 0.0 {
        return 0.0;
    }
    let alpha = if rf[(k, k)] >= 0.0 { -norm } else { norm };
    for i in k..n {
        v[i] = rf[(i, k)];
    }
    v[k] -= alpha;
    let mut v_norm_sq = 0.0;
    for x in v[k..n].iter() {
        v_norm_sq += x * x;
    }
    v_norm_sq
}

/// Extracts the upper-triangular `m × m` factor from the worked matrix.
fn extract_r(rf: &Matrix, r: &mut Matrix, m: usize) {
    r.reshape_zeroed(m, m);
    for i in 0..m {
        r.row_mut(i)[i..].copy_from_slice(&rf.row(i)[i..m]);
    }
}

/// Blocked, pool-parallel thin Householder QR into caller-owned matrices
/// (`q` reshaped to `n × m`, `r` to `m × m`, both reusing allocations;
/// `scratch` reused across calls). Runs compact-WY panels at
/// [`QR_WY_MIN_COLS`] columns and above, the per-reflector driver below
/// (where the `T`-block build never amortises). Bitwise identical to
/// [`qr_factor_scalar_into`] for any thread count — the scalar reference
/// switches drivers on the same width.
///
/// # Errors
/// See [`Qr::new`].
pub fn qr_factor_into(
    a: &Matrix,
    q: &mut Matrix,
    r: &mut Matrix,
    scratch: &mut QrScratch,
) -> Result<()> {
    if a.ncols() < QR_WY_MIN_COLS {
        qr_reflector_driver(a, q, r, scratch, apply_reflector)
    } else {
        qr_wy_driver(a, q, r, scratch, apply_reflector, wy_apply)
    }
}

/// How a reflector `(x, v, v_norm_sq, row0, col0, col1, dots)` is applied.
pub(crate) type ApplyFn = fn(&mut Matrix, &[f64], f64, usize, usize, usize, &mut [f64]);

/// One compact-WY panel: `nb` reflectors starting at column `k0`, with the
/// aggregated triangular factor in rows `t_row0 ..` of `ts`.
struct WyPanel<'a> {
    vs: &'a Matrix,
    ts: &'a Matrix,
    t_row0: usize,
    k0: usize,
    nb: usize,
}

/// How a WY block `(x, panel, col0, col1, transpose_t, w, w2)` is applied:
/// `X[k0.., col0..col1] ← (I − V·T'·Vᵀ)·X` with `T' = Tᵀ` when
/// `transpose_t` (trailing update applies the transposed product).
type WyApplyFn = fn(&mut Matrix, &WyPanel<'_>, usize, usize, bool, &mut [f64], &mut [f64]);

/// The shared compact-WY factorisation driver: the single copy of the
/// computation tree both public entry points execute, parameterised only
/// over how a reflector / WY block is applied (chunk-parallel vs plain
/// loops). Keeping one driver means a future change to the panel schedule
/// cannot desynchronise the blocked path from its scalar reference.
fn qr_wy_driver(
    a: &Matrix,
    q: &mut Matrix,
    r: &mut Matrix,
    scratch: &mut QrScratch,
    apply: ApplyFn,
    wy: WyApplyFn,
) -> Result<()> {
    let (n, m) = validate_shape(a)?;
    let QrScratch {
        rf,
        vs,
        dots,
        vnorms,
        ts,
        w,
        w2,
        tmp,
    } = scratch;
    // Capacity-reusing copy (Matrix::clone_from would reallocate).
    rf.reshape_zeroed(n, m);
    rf.as_mut_slice().copy_from_slice(a.as_slice());
    vs.reshape_zeroed(m, n);
    dots.clear();
    dots.resize(m, 0.0);
    vnorms.clear();
    vnorms.resize(m, 0.0);
    let num_panels = m.div_ceil(QR_NB);
    ts.reshape_zeroed(num_panels * QR_NB, QR_NB);
    w.clear();
    w.resize(QR_NB * m, 0.0);
    w2.clear();
    w2.resize(QR_NB * m, 0.0);
    tmp.clear();
    tmp.resize(QR_NB, 0.0);

    // Forward sweep: per panel, build each reflector and apply it to the
    // remaining *panel* columns only, then aggregate the panel into
    // `I − V·T·Vᵀ` and hit the trailing columns with two WY passes.
    for (b, k0) in (0..m).step_by(QR_NB).enumerate() {
        let k1 = (k0 + QR_NB).min(m);
        #[allow(clippy::needless_range_loop)] // k is the reflector index throughout
        for k in k0..k1 {
            let v_norm_sq = build_reflector(rf, vs, k, n);
            vnorms[k] = v_norm_sq;
            if v_norm_sq == 0.0 {
                continue;
            }
            apply(rf, vs.row(k), v_norm_sq, k, k, k1, dots);
        }
        build_t(vs, vnorms, ts, b * QR_NB, k0, k1 - k0, n, tmp);
        if k1 < m && vnorms[k0..k1].iter().any(|&vn| vn != 0.0) {
            let panel = WyPanel {
                vs,
                ts,
                t_row0: b * QR_NB,
                k0,
                nb: k1 - k0,
            };
            // The product applied during factorisation is
            // H_{k1−1} ⋯ H_{k0} = (I − V·T·Vᵀ)ᵀ = I − V·Tᵀ·Vᵀ.
            wy(rf, &panel, k1, m, true, w, w2);
        }
    }
    extract_r(rf, r, m);

    // Thin Q by back-accumulation: Q = P_0 (P_1 (… P_{np−1} [I_m; 0]))
    // with P_b = H_{k0} ⋯ H_{k1−1} = I − V·T·Vᵀ. Columns j < k0 of the
    // partial product are still e_j when panel b runs (later panels only
    // touch columns ≥ their own k0), so the column range k0..m covers
    // every non-trivial column.
    q.reshape_zeroed(n, m);
    for j in 0..m {
        q[(j, j)] = 1.0;
    }
    for (b, k0) in (0..m).step_by(QR_NB).enumerate().rev() {
        let k1 = (k0 + QR_NB).min(m);
        if vnorms[k0..k1].iter().all(|&vn| vn == 0.0) {
            continue;
        }
        let panel = WyPanel {
            vs,
            ts,
            t_row0: b * QR_NB,
            k0,
            nb: k1 - k0,
        };
        wy(q, &panel, k0, m, false, w, w2);
    }
    Ok(())
}

/// Aggregates panel reflectors into the upper-triangular `T` of
/// `H_{k0} ⋯ H_{k0+nb−1} = I − V·T·Vᵀ` (LAPACK `larft` forward-columnwise):
/// `T_jj = τ_j`, `T[0..j, j] = −τ_j · T[0..j, 0..j] · (Vᵀ v_j)`. Shared by
/// both entry points — the per-column recurrence accumulates in ascending
/// `q` order and the cross-reflector dots go through the dispatched
/// [`simd::dot`], so the block is identical on the blocked and scalar paths.
#[allow(clippy::too_many_arguments)]
fn build_t(
    vs: &Matrix,
    vnorms: &[f64],
    ts: &mut Matrix,
    t_row0: usize,
    k0: usize,
    nb: usize,
    n: usize,
    tmp: &mut [f64],
) {
    for p in 0..nb {
        ts.row_mut(t_row0 + p)[..nb].fill(0.0);
    }
    for j in 0..nb {
        let vn = vnorms[k0 + j];
        if vn == 0.0 {
            continue; // skipped reflector: H_j = I, column j of T stays zero
        }
        let tau = 2.0 / vn;
        // tmp[p] = v_pᵀ v_j; v_p is supported on rows k0+p..n and v_j on
        // k0+j..n (j > p), so the dot runs over the intersection.
        let vj = vs.row(k0 + j);
        #[allow(clippy::needless_range_loop)] // p is the reflector index throughout
        for p in 0..j {
            tmp[p] = simd::dot(&vs.row(k0 + p)[k0 + j..n], &vj[k0 + j..n]);
        }
        for p in 0..j {
            let mut acc = 0.0;
            for q in p..j {
                acc = simd::madd(acc, ts[(t_row0 + p, q)], tmp[q]);
            }
            ts[(t_row0 + p, j)] = -tau * acc;
        }
        ts[(t_row0 + j, j)] = tau;
    }
}

/// Applies a compact-WY block `X ← (I − V·T'·Vᵀ)·X` to
/// `x[k0.., col0..col1]` with three chunk-parallel passes:
///
/// 1. `W[p][j] = Σ_{i ≥ k0} v_p[i] · x[i][j]` — column chunks own disjoint
///    column slices of every `W` row and sweep rows in ascending order,
///    accumulating all `nb` reflectors per row (zero `v_p[i]` terms
///    uniformly included, so the chain shape never depends on the data);
/// 2. `W²[p][j] = Σ_q T'[p][q] · W[q][j]` — same column chunks, ascending
///    `q`, zero `T'` entries included;
/// 3. `x[i][j] −= Σ_p v_p[i] · W²[p][j]` — row chunks, ascending `p`, one
///    fused [`simd::fnma_scaled`] lane per reflector.
///
/// Per-element arithmetic and accumulation order are identical to the plain
/// loops in [`wy_apply_scalar`].
fn wy_apply(
    x: &mut Matrix,
    panel: &WyPanel<'_>,
    col0: usize,
    col1: usize,
    transpose_t: bool,
    w: &mut [f64],
    w2: &mut [f64],
) {
    let n = x.nrows();
    let width = x.ncols();
    let ncols = col1 - col0;
    let (k0, nb) = (panel.k0, panel.nb);
    let w = &mut w[..nb * ncols];
    let w2 = &mut w2[..nb * ncols];

    // Passes 1+2 share one column decomposition: each chunk fully computes
    // its column slice of W and then of W², so no barrier is needed
    // between them.
    let col_chunks = Chunks::new(ncols, QR_MIN_CHUNK_COLS, QR_MAX_CHUNKS);
    {
        let x_ref = &*x;
        let w_ptr = par::SendPtr(w.as_mut_ptr());
        let w2_ptr = par::SendPtr(w2.as_mut_ptr());
        par::run_chunks(col_chunks.count(), |ci| {
            let range = col_chunks.range(ci);
            // SAFETY: chunk `ci` touches only columns `range` of every W/W²
            // row; the ranges are disjoint across chunks.
            for p in 0..nb {
                unsafe { w_ptr.slice(p * ncols + range.start, range.len()) }.fill(0.0);
            }
            for i in k0..n {
                let row = &x_ref.row(i)[col0 + range.start..col0 + range.end];
                for p in 0..nb {
                    let w_p = unsafe { w_ptr.slice(p * ncols + range.start, range.len()) };
                    axpy_slices(w_p, panel.vs[(k0 + p, i)], row);
                }
            }
            for p in 0..nb {
                let w2_p = unsafe { w2_ptr.slice(p * ncols + range.start, range.len()) };
                w2_p.fill(0.0);
                for q in 0..nb {
                    let t = if transpose_t {
                        panel.ts[(panel.t_row0 + q, p)]
                    } else {
                        panel.ts[(panel.t_row0 + p, q)]
                    };
                    let w_q = unsafe { w_ptr.slice(q * ncols + range.start, range.len()) };
                    axpy_slices(w2_p, t, w_q);
                }
            }
        });
    }

    // Pass 3 over disjoint row chunks.
    let row_chunks = Chunks::new(n - k0, QR_MIN_CHUNK_ROWS, QR_MAX_CHUNKS);
    let w2_ref = &*w2;
    let vs = panel.vs;
    let rows_below = &mut x.as_mut_slice()[k0 * width..];
    par::map_chunks(&row_chunks, width, rows_below, |range, region| {
        for (local, off) in range.enumerate() {
            let i = k0 + off;
            let row = &mut region[local * width + col0..local * width + col1];
            for p in 0..nb {
                simd::fnma_scaled(row, &w2_ref[p * ncols..(p + 1) * ncols], vs[(k0 + p, i)]);
            }
        }
    });
}

/// Plain-loop WY block application (the reference tree): the same three
/// passes as [`wy_apply`] as sequential loops, every multiply-add through
/// the dispatched element ops in the same `i`/`p`/`q` order.
fn wy_apply_scalar(
    x: &mut Matrix,
    panel: &WyPanel<'_>,
    col0: usize,
    col1: usize,
    transpose_t: bool,
    w: &mut [f64],
    w2: &mut [f64],
) {
    let n = x.nrows();
    let ncols = col1 - col0;
    let (k0, nb) = (panel.k0, panel.nb);
    let w = &mut w[..nb * ncols];
    let w2 = &mut w2[..nb * ncols];

    w.fill(0.0);
    for i in k0..n {
        for p in 0..nb {
            let vpi = panel.vs[(k0 + p, i)];
            for (slot, j) in w[p * ncols..(p + 1) * ncols].iter_mut().zip(col0..col1) {
                *slot = simd::madd(*slot, vpi, x[(i, j)]);
            }
        }
    }
    w2.fill(0.0);
    for p in 0..nb {
        for q in 0..nb {
            let t = if transpose_t {
                panel.ts[(panel.t_row0 + q, p)]
            } else {
                panel.ts[(panel.t_row0 + p, q)]
            };
            for j in 0..ncols {
                w2[p * ncols + j] = simd::madd(w2[p * ncols + j], t, w[q * ncols + j]);
            }
        }
    }
    for i in k0..n {
        for p in 0..nb {
            let vpi = panel.vs[(k0 + p, i)];
            for (j, col) in (col0..col1).enumerate() {
                x[(i, col)] = simd::fnma(x[(i, col)], w2[p * ncols + j], vpi);
            }
        }
    }
}

/// The pre-aggregation driver: one reflector at a time over the full
/// trailing column range, exactly the PR 4 schedule. Kept as a public
/// entry point because it computes the same factorisation through a
/// *different* summation tree — the compact-WY equivalence suite checks
/// `qr_factor_into` against it numerically, and the decomposition benches
/// use it as the per-reflector baseline.
///
/// # Errors
/// See [`Qr::new`].
pub fn qr_factor_per_reflector_into(
    a: &Matrix,
    q: &mut Matrix,
    r: &mut Matrix,
    scratch: &mut QrScratch,
) -> Result<()> {
    qr_reflector_driver(a, q, r, scratch, apply_reflector)
}

/// Per-reflector driver shared by [`qr_factor_per_reflector_into`] and the
/// tridiagonalisation module's Q back-accumulation tests.
fn qr_reflector_driver(
    a: &Matrix,
    q: &mut Matrix,
    r: &mut Matrix,
    scratch: &mut QrScratch,
    apply: ApplyFn,
) -> Result<()> {
    let (n, m) = validate_shape(a)?;
    let QrScratch {
        rf,
        vs,
        dots,
        vnorms,
        ..
    } = scratch;
    rf.reshape_zeroed(n, m);
    rf.as_mut_slice().copy_from_slice(a.as_slice());
    vs.reshape_zeroed(m, n);
    dots.clear();
    dots.resize(m, 0.0);
    vnorms.clear();
    vnorms.resize(m, 0.0);

    #[allow(clippy::needless_range_loop)] // k is the reflector index throughout
    for k in 0..m {
        let v_norm_sq = build_reflector(rf, vs, k, n);
        vnorms[k] = v_norm_sq;
        if v_norm_sq == 0.0 {
            continue;
        }
        apply(rf, vs.row(k), v_norm_sq, k, k, m, dots);
    }
    extract_r(rf, r, m);

    // Thin Q by back-accumulation: Q = H_0 (H_1 (… H_{m-1} [I_m; 0])).
    q.reshape_zeroed(n, m);
    for j in 0..m {
        q[(j, j)] = 1.0;
    }
    for k in (0..m).rev() {
        if vnorms[k] == 0.0 {
            continue;
        }
        apply(q, vs.row(k), vnorms[k], k, k, m, dots);
    }
    Ok(())
}

/// Applies `H = I − 2 v vᵀ / (vᵀv)` to `x[row0.., col0..col1]` with the
/// chunk-parallel two-pass scheme (dots over column chunks, update over row
/// chunks). Every chunk runs the loop bodies of [`apply_reflector_inline`]
/// on its slice, so per-element arithmetic and accumulation order are
/// identical to it and to the plain loops in [`apply_reflector_scalar`].
pub(crate) fn apply_reflector(
    x: &mut Matrix,
    v: &[f64],
    v_norm_sq: f64,
    row0: usize,
    col0: usize,
    col1: usize,
    dots: &mut [f64],
) {
    let n = x.nrows();
    let width = x.ncols();
    let ncols = col1 - col0;
    let dots = &mut dots[..ncols];
    dots.fill(0.0);

    // Pass 1: column chunks own disjoint slices of `dots`; every chunk
    // sweeps the same rows, so the per-column chain is chunk-independent.
    let col_chunks = Chunks::new(ncols, QR_MIN_CHUNK_COLS, QR_MAX_CHUNKS);
    {
        let x_ref = &*x;
        par::map_chunks(&col_chunks, 1, dots, |range, region| {
            reflector_dots(x_ref, v, row0, col0 + range.start..col0 + range.end, region);
        });
    }
    reflector_scales(dots, v_norm_sq);

    // Pass 2: parallel over disjoint row chunks.
    let row_chunks = Chunks::new(n - row0, QR_MIN_CHUNK_ROWS, QR_MAX_CHUNKS);
    let scales = &*dots;
    let rows_below = &mut x.as_mut_slice()[row0 * width..];
    par::map_chunks(&row_chunks, width, rows_below, |range, region| {
        reflector_update(region, width, &v[row0 + range.start..], col0..col1, scales);
    });
}

/// [`apply_reflector`] on the calling thread: the same two vectorised
/// passes over the whole column and row ranges, never entering the pool.
/// The tridiagonalisation's `Q` back-accumulation runs on this.
pub(crate) fn apply_reflector_inline(
    x: &mut Matrix,
    v: &[f64],
    v_norm_sq: f64,
    row0: usize,
    col0: usize,
    col1: usize,
    dots: &mut [f64],
) {
    let width = x.ncols();
    let dots = &mut dots[..col1 - col0];
    dots.fill(0.0);
    reflector_dots(x, v, row0, col0..col1, dots);
    reflector_scales(dots, v_norm_sq);
    reflector_update(
        &mut x.as_mut_slice()[row0 * width..],
        width,
        &v[row0..],
        col0..col1,
        dots,
    );
}

/// Reflector pass 1 over columns `cols`: each `dots[j]` accumulates
/// `v_i · x[i][cols.start + j]` for every row `i ≥ row0`, ascending.
/// Per-column chains advance one row at a time; the dispatched axpy fuses
/// each multiply-add on the Avx2 level (element-independent across
/// columns, so neither the vector width nor the column split changes bits).
fn reflector_dots(x: &Matrix, v: &[f64], row0: usize, cols: Range<usize>, dots: &mut [f64]) {
    #[allow(clippy::needless_range_loop)] // i indexes matrix rows and v alike
    for i in row0..x.nrows() {
        axpy_slices(dots, v[i], &x.row(i)[cols.clone()]);
    }
}

/// Turns pass-1 dots into the update scales `2 · dot_j / vᵀv`.
fn reflector_scales(dots: &mut [f64], v_norm_sq: f64) {
    for d in dots.iter_mut() {
        *d = 2.0 * *d / v_norm_sq;
    }
}

/// Reflector pass 2 over consecutive full rows (`rows` starts at a row
/// boundary, `v` at the matching entry): `x[i][j] −= scale_j · v_i` on
/// columns `cols`, one fused expression per element.
fn reflector_update(rows: &mut [f64], width: usize, v: &[f64], cols: Range<usize>, scales: &[f64]) {
    for (row, &vi) in rows.chunks_exact_mut(width).zip(v) {
        simd::fnma_scaled(&mut row[cols.clone()], scales, vi);
    }
}

/// The plain-loop reference: the same driver tree as [`qr_factor_into`] —
/// including its [`QR_WY_MIN_COLS`] width switch — with every reflector and
/// WY block applied by sequential loops instead of the chunk-parallel
/// passes; used by the parity suite (bitwise) and the decomposition benches
/// (scalar baseline).
///
/// # Errors
/// See [`Qr::new`].
pub fn qr_factor_scalar_into(
    a: &Matrix,
    q: &mut Matrix,
    r: &mut Matrix,
    scratch: &mut QrScratch,
) -> Result<()> {
    if a.ncols() < QR_WY_MIN_COLS {
        qr_reflector_driver(a, q, r, scratch, apply_reflector_scalar)
    } else {
        qr_wy_driver(a, q, r, scratch, apply_reflector_scalar, wy_apply_scalar)
    }
}

/// Plain-loop reflector application (the reference tree). Shared with the
/// tridiagonalisation module's scalar Q back-accumulation.
pub(crate) fn apply_reflector_scalar(
    x: &mut Matrix,
    v: &[f64],
    v_norm_sq: f64,
    row0: usize,
    col0: usize,
    col1: usize,
    dots: &mut [f64],
) {
    let n = x.nrows();
    let dots = &mut dots[..col1 - col0];
    dots.fill(0.0);
    #[allow(clippy::needless_range_loop)] // the plain-loop reference stays indexed
    for i in row0..n {
        let vi = v[i];
        for (slot, j) in dots.iter_mut().zip(col0..col1) {
            // Dispatched element op — mul-then-add on the portable level,
            // fused on the Avx2 level — keeping the reference in lock-step
            // with the chunk-parallel passes' dispatched axpy.
            *slot = simd::madd(*slot, vi, x[(i, j)]);
        }
    }
    for d in dots.iter_mut() {
        *d = 2.0 * *d / v_norm_sq;
    }
    for i in row0..n {
        let vi = v[i];
        for (j, &scale) in (col0..col1).zip(dots.iter()) {
            x[(i, j)] = simd::fnma(x[(i, j)], scale, vi);
        }
    }
}

/// Orthonormalises the columns of `a` in place using modified Gram-Schmidt,
/// dropping (zeroing) columns that are numerically dependent.
///
/// Returns the number of independent columns kept; dependent columns are
/// moved to the end as zero columns so the leading `rank` columns always form
/// an orthonormal basis of the column space.
pub fn orthonormalize_columns(a: &mut Matrix) -> usize {
    let (n, m) = a.shape();
    let tol = 1e-12;
    let mut rank = 0;
    for j in 0..m {
        // Copy column j into a work buffer.
        let mut col = Vector::from_fn(n, |i| a[(i, j)]);
        // Subtract projections onto previously accepted columns (stored in
        // positions 0..rank).
        for k in 0..rank {
            let mut dot = 0.0;
            for i in 0..n {
                dot += a[(i, k)] * col[i];
            }
            for i in 0..n {
                col[i] -= dot * a[(i, k)];
            }
        }
        let norm = col.norm2();
        if norm > tol {
            for i in 0..n {
                a[(i, rank)] = col[i] / norm;
            }
            rank += 1;
        }
    }
    // Zero out the trailing columns.
    for j in rank..m {
        for i in 0..n {
            a[(i, j)] = 0.0;
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tall() -> Matrix {
        Matrix::from_vec(
            4,
            3,
            vec![
                1.0, 2.0, 3.0, //
                0.5, -1.0, 2.0, //
                2.0, 0.0, 1.0, //
                -1.0, 1.0, 0.0,
            ],
        )
        .unwrap()
    }

    #[test]
    fn qr_reconstructs_input() {
        let a = tall();
        let qr = Qr::new(&a).unwrap();
        let rec = qr.q().matmul(qr.r()).unwrap();
        for i in 0..4 {
            for j in 0..3 {
                assert!(
                    (rec[(i, j)] - a[(i, j)]).abs() < 1e-10,
                    "mismatch at {i},{j}"
                );
            }
        }
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let a = tall();
        let qr = Qr::new(&a).unwrap();
        let qtq = qr.q().transpose().matmul(qr.q()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((qtq[(i, j)] - expected).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn r_is_upper_triangular() {
        let qr = Qr::new(&tall()).unwrap();
        for i in 0..3 {
            for j in 0..i {
                assert!(qr.r()[(i, j)].abs() < 1e-12);
            }
        }
    }

    #[test]
    fn blocked_is_bitwise_identical_to_scalar() {
        let a = Matrix::from_fn(37, 11, |i, j| (((i * 13 + j * 7) % 17) as f64 - 8.0) / 9.0);
        let mut scratch = QrScratch::default();
        let (mut q1, mut r1) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        qr_factor_into(&a, &mut q1, &mut r1, &mut scratch).unwrap();
        let (mut q2, mut r2) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        qr_factor_scalar_into(&a, &mut q2, &mut r2, &mut scratch).unwrap();
        assert_eq!(q1, q2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn compact_wy_agrees_with_per_reflector() {
        // 67×40 crosses the QR_NB=32 panel boundary. The diagonal boost
        // keeps the columns independent (a rank-deficient input has no
        // unique Q, so the two summation trees could legitimately diverge).
        let a = Matrix::from_fn(67, 40, |i, j| {
            (((i * 31 + j * 17) % 23) as f64 - 11.0) / 7.0 + if i == j { 5.0 } else { 0.0 }
        });
        let mut scratch = QrScratch::default();
        let (mut q1, mut r1) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        qr_factor_into(&a, &mut q1, &mut r1, &mut scratch).unwrap();
        let (mut q2, mut r2) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        qr_factor_per_reflector_into(&a, &mut q2, &mut r2, &mut scratch).unwrap();
        for i in 0..67 {
            for j in 0..40 {
                assert!((q1[(i, j)] - q2[(i, j)]).abs() < 1e-12, "Q at {i},{j}");
            }
        }
        for i in 0..40 {
            for j in 0..40 {
                assert!((r1[(i, j)] - r2[(i, j)]).abs() < 1e-10, "R at {i},{j}");
            }
        }
    }

    #[test]
    fn rank_deficient_column_is_skipped_not_nan() {
        // A zero column yields a zero reflector norm; the factor must stay
        // finite and still reconstruct the input.
        let mut a = tall();
        for i in 0..4 {
            a[(i, 1)] = 0.0;
        }
        let qr = Qr::new(&a).unwrap();
        assert!(qr.q().is_finite());
        assert!(qr.r().is_finite());
        let rec = qr.q().matmul(qr.r()).unwrap();
        for i in 0..4 {
            for j in 0..3 {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn rejects_wide_and_empty() {
        assert!(Qr::new(&Matrix::zeros(2, 3)).is_err());
        assert!(Qr::new(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn gram_schmidt_orthonormalizes_and_detects_rank() {
        let mut a = Matrix::from_vec(
            3,
            3,
            vec![
                1.0, 2.0, 2.0, //
                0.0, 1.0, 1.0, //
                1.0, 0.0, 0.0,
            ],
        )
        .unwrap();
        // Third column equals the second: rank 2.
        let rank = orthonormalize_columns(&mut a);
        assert_eq!(rank, 2);
        for k in 0..rank {
            let col = a.column(k);
            assert!((col.norm2() - 1.0).abs() < 1e-10);
        }
        let c0 = a.column(0);
        let c1 = a.column(1);
        assert!(c0.dot(&c1).unwrap().abs() < 1e-10);
        assert!(a.column(2).norm2() < 1e-12);
    }
}
