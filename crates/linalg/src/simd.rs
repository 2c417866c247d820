//! Runtime-dispatched SIMD microkernels with bitwise scalar parity.
//!
//! Every hot inner loop of the dense and sparse kernels — dot products,
//! 4-row fused matvec dots, the packed symmetric matvec, the register-tiled
//! Gram block, `axpy`, the fused GD step `scale_add`, the QR reflector
//! update, the QL eigenvector rotation pass, and the CSR gather/scatter
//! loops — funnels through this module. Each microkernel has two
//! implementations selected once per call:
//!
//! * **portable** — plain Rust with the historical lane structure (4-wide
//!   accumulators, mul-then-add rounding). This is the only path on
//!   non-x86_64 targets and whenever AVX2+FMA is unavailable or disabled.
//! * **AVX2+FMA** — explicit `std::arch` intrinsics behind
//!   `#[target_feature(enable = "avx2,fma")]`, reachable only after
//!   [`is_x86_feature_detected!`] has proven support at runtime.
//!
//! # The determinism contract
//!
//! The SIMD lanes map **1:1 onto the portable 4-wide accumulator lanes**:
//! one 256-bit register holds exactly the four `f64` accumulators of the
//! unrolled scalar loop, lane `l` absorbing the elements with index
//! `≡ l (mod 4)`, and the horizontal reduction adds the lanes in the same
//! fixed order `((l0 + l1) + l2) + l3`. The one place SIMD *must* round
//! differently is fused multiply-add: `vfmadd` rounds once where
//! `mul`-then-`add` rounds twice. The contract is therefore **per level**:
//!
//! * within a [`SimdLevel`], every kernel is bitwise reproducible — across
//!   runs, thread counts (`PRIU_THREADS`), and against a scalar reference
//!   built from the same element operations ([`madd`] / [`fnma`] lanes);
//! * across levels, results agree only numerically: the Avx2 level fuses
//!   its multiply-adds (both in the vector bodies and in the scalar tails,
//!   which use [`f64::mul_add`] inside the `target_feature` functions), so
//!   its bits differ from the portable level by the removed intermediate
//!   roundings.
//!
//! The `simd_parity`, `kernels_parity` and `decomp_parity` suites assert
//! the per-level guarantee for both levels on every kernel.
//!
//! # The `mul_add` fallback trap
//!
//! On targets without native FMA, [`f64::mul_add`] compiles to a libm
//! `fma()` call that is orders of magnitude slower than `a * b + c`. The
//! rule enforced here: **production code only executes `f64::mul_add`
//! inside `#[target_feature(enable = "fma")]` functions**, which are only
//! reachable through [`SimdLevel::Avx2`] — and that level is only
//! constructible when runtime detection proved the features (or panics
//! loudly). The portable kernels never call `mul_add`. The dispatched
//! scalar helpers [`madd`] / [`fnma`] may hit libm when forced to the Avx2
//! level outside a `target_feature` context; they exist for *reference
//! implementations* (tests, torture suites) where correctness of the
//! rounding, not speed, is the point.
//!
//! # Dispatch cost
//!
//! The level is resolved once per process from `PRIU_SIMD`
//! (`off` | `avx2`, unset = auto-detect) and cached in a `OnceLock`; a
//! per-call read checks a `const`-initialised thread-local override cell
//! (used by the parity tests and benches via [`with_level`]) and falls
//! back to the cached global. No allocation, no env read, no detection in
//! the warm path — the `zero_alloc` suite pins this down.

use std::cell::Cell;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

/// The instruction-set level the microkernels run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Plain Rust loops, 4-wide accumulator lanes, mul-then-add rounding.
    Portable,
    /// Explicit AVX2 + FMA intrinsics (x86_64 only, runtime-detected).
    Avx2,
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimdLevel::Portable => write!(f, "portable"),
            SimdLevel::Avx2 => write!(f, "avx2"),
        }
    }
}

/// Every level this host can execute, portable first — the canonical
/// iteration set for parity suites and bench grids (a future wider level
/// slots in here once, instead of in every caller).
pub fn available_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Portable];
    if avx2_supported() {
        levels.push(SimdLevel::Avx2);
    }
    levels
}

/// Whether this process can execute the AVX2+FMA kernels.
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Parses a `PRIU_SIMD` value against the detected CPU capability.
/// `None` (unset) and `"auto"` pick the best supported level; `"off"` /
/// `"portable"` force the portable kernels; `"avx2"` demands the SIMD
/// kernels and panics when the CPU cannot run them — silently degrading
/// would change result bits behind the operator's back.
fn parse_priu_simd(value: Option<&str>, supported: bool) -> SimdLevel {
    match value.map(str::trim) {
        None | Some("auto") => {
            if supported {
                SimdLevel::Avx2
            } else {
                SimdLevel::Portable
            }
        }
        Some("off") | Some("portable") => SimdLevel::Portable,
        Some("avx2") => {
            if supported {
                SimdLevel::Avx2
            } else {
                panic!(
                    "PRIU_SIMD=avx2 requires AVX2 and FMA, which this CPU does not support; \
                     unset the variable (auto-detect) or set PRIU_SIMD=off"
                )
            }
        }
        Some(other) => panic!(
            "PRIU_SIMD must be one of off|avx2|auto, got {other:?}; \
             unset the variable to auto-detect"
        ),
    }
}

/// The process-wide level resolved from `PRIU_SIMD` and runtime feature
/// detection, cached on first use.
///
/// # Panics
/// Panics if `PRIU_SIMD` holds an unknown value, or demands `avx2` on a
/// CPU without AVX2+FMA.
pub fn max_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let value = std::env::var("PRIU_SIMD").ok();
        parse_priu_simd(value.as_deref(), avx2_supported())
    })
}

thread_local! {
    static OVERRIDE: Cell<Option<SimdLevel>> = const { Cell::new(None) };
}

/// The level kernels on the calling thread will use right now: the
/// innermost [`with_level`] override, or [`max_level`].
pub fn current_level() -> SimdLevel {
    OVERRIDE.with(|cell| cell.get()).unwrap_or_else(max_level)
}

/// Runs `f` with the kernel level pinned on the calling thread (nestable;
/// restored afterwards, also on panic). Used by the parity suites and the
/// bench grids to compare levels within one process.
///
/// # Panics
/// Panics when pinning [`SimdLevel::Avx2`] on a CPU without AVX2+FMA —
/// the level must never be reachable without the features.
pub fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    assert!(
        level != SimdLevel::Avx2 || avx2_supported(),
        "SimdLevel::Avx2 requires AVX2 and FMA, which this CPU does not support"
    );
    struct Restore(Option<SimdLevel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|cell| cell.replace(Some(level))));
    f()
}

// ---------------------------------------------------------------------------
// Dispatched scalar element operations (reference-implementation building
// blocks — see the module docs for why these may hit libm on the Avx2
// level and must not sit in production hot loops).
// ---------------------------------------------------------------------------

/// `acc + a * b` with the current level's rounding: two roundings on the
/// portable level, fused on the Avx2 level.
#[inline]
pub fn madd(acc: f64, a: f64, b: f64) -> f64 {
    match current_level() {
        SimdLevel::Portable => acc + a * b,
        SimdLevel::Avx2 => a.mul_add(b, acc),
    }
}

/// `acc - a * b` with the current level's rounding (the subtractive twin
/// of [`madd`], the element op of the Cholesky chains).
#[inline]
pub fn fnma(acc: f64, a: f64, b: f64) -> f64 {
    match current_level() {
        SimdLevel::Portable => acc - a * b,
        SimdLevel::Avx2 => (-a).mul_add(b, acc),
    }
}

// ---------------------------------------------------------------------------
// Slice microkernels. Each dispatches once per call.
// ---------------------------------------------------------------------------

/// Dot product of two equal-length slices over the canonical 4-wide lane
/// structure: lane `l` accumulates elements `≡ l (mod 4)`, lanes combine
/// as `((l0 + l1) + l2) + l3`, the tail accumulates sequentially onto the
/// combined sum.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "simd::dot requires equal lengths");
    match current_level() {
        SimdLevel::Portable => dot_portable(a, b),
        SimdLevel::Avx2 => {
            // SAFETY: the Avx2 level is only constructible after runtime
            // detection proved AVX2+FMA support.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::dot(a, b)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

fn dot_portable(a: &[f64], b: &[f64]) -> f64 {
    let mut acc0 = 0.0;
    let mut acc1 = 0.0;
    let mut acc2 = 0.0;
    let mut acc3 = 0.0;
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc0 += a[j] * b[j];
        acc1 += a[j + 1] * b[j + 1];
        acc2 += a[j + 2] * b[j + 2];
        acc3 += a[j + 3] * b[j + 3];
    }
    let mut acc = ((acc0 + acc1) + acc2) + acc3;
    for j in chunks * 4..a.len() {
        acc += a[j] * b[j];
    }
    acc
}

/// Four simultaneous dot products of rows `r0..r3` against a shared `x`,
/// each over the exact lane structure of [`dot`]. The rows and `x` share
/// one length; sharing the loads of `x` across the four rows is what makes
/// this the matvec workhorse.
pub fn dot4(r0: &[f64], r1: &[f64], r2: &[f64], r3: &[f64], x: &[f64]) -> [f64; 4] {
    let len = x.len();
    assert!(
        r0.len() == len && r1.len() == len && r2.len() == len && r3.len() == len,
        "simd::dot4 requires four rows of x's length"
    );
    match current_level() {
        SimdLevel::Portable => dot4_portable(r0, r1, r2, r3, x),
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::dot4(r0, r1, r2, r3, x)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

fn dot4_portable(r0: &[f64], r1: &[f64], r2: &[f64], r3: &[f64], x: &[f64]) -> [f64; 4] {
    let len = x.len();
    let mut acc = [[0.0_f64; 4]; 4]; // acc[row][lane]
    let chunks = len / 4;
    for c in 0..chunks {
        let j = c * 4;
        for lane in 0..4 {
            let xj = x[j + lane];
            acc[0][lane] += r0[j + lane] * xj;
            acc[1][lane] += r1[j + lane] * xj;
            acc[2][lane] += r2[j + lane] * xj;
            acc[3][lane] += r3[j + lane] * xj;
        }
    }
    let mut out = [
        ((acc[0][0] + acc[0][1]) + acc[0][2]) + acc[0][3],
        ((acc[1][0] + acc[1][1]) + acc[1][2]) + acc[1][3],
        ((acc[2][0] + acc[2][1]) + acc[2][2]) + acc[2][3],
        ((acc[3][0] + acc[3][1]) + acc[3][2]) + acc[3][3],
    ];
    for j in chunks * 4..len {
        out[0] += r0[j] * x[j];
        out[1] += r1[j] * x[j];
        out[2] += r2[j] * x[j];
        out[3] += r3[j] * x[j];
    }
    out
}

/// Packed symmetric matrix-vector product `y = A x`, where `ap` holds the
/// upper triangle of the `m × m` matrix `A` row by row (row `i` is
/// `a[i][i..]`) and `m = x.len() = y.len()`; `y` is overwritten.
///
/// Rows are processed in full blocks of four, `i0..i0+4`. Every stored
/// value `a[r][j]` is loaded once and feeds two products: row `r`'s dot
/// with `x[j]` and, mirrored, `y[j] += a[r][j]·x[r]`. Per block, with
/// [`madd`]'s level-dependent rounding in every multiply-add:
///
/// 1. *Row dots.* Row `r`'s dot runs over columns `i0..m` on [`dot`]'s
///    canonical lanes, lane `l` taking the columns `j ≡ i0 + l (mod 4)`:
///    the first chunk is the 4 × 4 diagonal corner, with the entries below
///    the diagonal (`j < r`) taken as zero, then the columns right of the
///    block chunk by chunk; lanes combine `((l0 + l1) + l2) + l3`, then the
///    remaining `(m − i0) mod 4` columns add sequentially.
/// 2. *Mirrored tail.* For each column `j ≥ i0 + 4`, `y[j]` absorbs the
///    block's four rows in ascending order, `y[j] ← madd(y[j], a[r][j],
///    x[r])`, so `y` is read and written once per block.
/// 3. *Mirrored corner.* For `c = 0..4`: `y[i0+c] ← madd(y[i0+c], u, x[r])`
///    for rows `r = 0, 1, 2` of the block, with `u = a[r][i0+c]` when
///    `i0 + c > r` and `u = 0` otherwise; then `y[i0+c] += dot_{i0+c}`.
///
/// The last `m mod 4` rows, if any, run scalar: for each row `r`
/// ascending, `s ← madd(s, a[r][c], x[c])` for `c = r..m` from `s = 0`,
/// then `y[c] ← madd(y[c], a[r][c], x[r])` for `c > r`, then `y[r] += s`.
///
/// The kernel never splits across threads, so its bits are a function of
/// the SIMD level alone. It is exactly [`symv_packed_rows`] over all rows.
///
/// # Panics
/// Panics if `y.len() != x.len()` or `ap.len() != m·(m+1)/2`.
pub fn symv_packed(ap: &[f64], x: &[f64], y: &mut [f64]) {
    symv_packed_rows(ap, x, y, 0..x.len());
}

/// The contribution of packed rows `rows` to [`symv_packed`]: `y` is
/// overwritten with `Σ_{r ∈ rows}` of row `r`'s dot (into `y[r]`) and its
/// mirrored column (into `y[j]`, `j > r`), so `y[..rows.start]` is zero.
/// Each 4-row block runs exactly as in [`symv_packed`]; the short block of
/// the last `m mod 4` rows belongs to the range that ends at `m`. Summing
/// the partials of consecutive ranges covering `0..m` therefore reproduces
/// the full product's terms, grouped per range; with the single range
/// `0..m` the result is [`symv_packed`]'s, bit for bit.
///
/// # Panics
/// Panics if the lengths are inconsistent (as [`symv_packed`]), or if a
/// row bound is off the 4-row block grid: `rows.start` must be a multiple
/// of 4, `rows.end` a multiple of 4 or `m`, and `rows.start <= rows.end <= m`.
pub fn symv_packed_rows(ap: &[f64], x: &[f64], y: &mut [f64], rows: Range<usize>) {
    let m = x.len();
    assert!(
        y.len() == m && ap.len() == crate::dense::packed::packed_len(m),
        "simd::symv_packed_rows requires m(m+1)/2 packed values and x, y of length m"
    );
    assert!(
        rows.start <= rows.end
            && rows.end <= m
            && rows.start.is_multiple_of(4)
            && (rows.end.is_multiple_of(4) || rows.end == m),
        "simd::symv_packed_rows: rows {}..{} are off the 4-row block grid \
         (start a multiple of 4, end a multiple of 4 or m = {m})",
        rows.start,
        rows.end
    );
    match current_level() {
        SimdLevel::Portable => symv_packed_portable(ap, x, y, rows),
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`; the lengths and bounds were checked above.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::symv_packed(ap, x, y, rows)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

/// Packed offsets of the four rows of the full block starting at row `i0`
/// of an `m × m` matrix, given the first row's offset `off`; the fifth
/// entry is the offset of the row after the block.
#[inline]
fn symv_block_offsets(m: usize, i0: usize, off: usize) -> [usize; 5] {
    let w = m - i0;
    [
        off,
        off + w,
        off + 2 * w - 1,
        off + 3 * w - 3,
        off + 4 * w - 6,
    ]
}

/// Rows `i0..end` of [`symv_packed`] one at a time — the last `m mod 4`
/// rows, when `end` is `m` — starting at row `i0` whose packed offset is
/// `off` (shared by both levels; `madd_op` is the level's multiply-add).
#[inline(always)]
fn symv_short_block(
    ap: &[f64],
    x: &[f64],
    y: &mut [f64],
    (i0, end): (usize, usize),
    mut off: usize,
    madd_op: impl Fn(f64, f64, f64) -> f64,
) {
    let m = x.len();
    for r in i0..end {
        let row = &ap[off..off + (m - r)];
        let mut s = 0.0;
        for (k, &g) in row.iter().enumerate() {
            s = madd_op(s, g, x[r + k]);
        }
        for (k, &g) in row.iter().enumerate().skip(1) {
            y[r + k] = madd_op(y[r + k], g, x[r]);
        }
        y[r] += s;
        off += m - r;
    }
}

fn symv_packed_portable(ap: &[f64], x: &[f64], y: &mut [f64], rows: Range<usize>) {
    let m = x.len();
    y.fill(0.0);
    let (mut i0, mut off) = (
        rows.start,
        crate::dense::packed::packed_row_offset(m, rows.start),
    );
    while i0 + 4 <= rows.end {
        let o = symv_block_offsets(m, i0, off);
        let t = m - i0 - 4;
        let xs = [x[i0], x[i0 + 1], x[i0 + 2], x[i0 + 3]];
        // Corner rows padded to four lanes (zero below the diagonal); they
        // are the first chunk of every row's lanes.
        let mut corner = [[0.0_f64; 4]; 4];
        let mut acc = [[0.0_f64; 4]; 4]; // acc[row][lane]
        for r in 0..4 {
            corner[r][r..].copy_from_slice(&ap[o[r]..o[r] + 4 - r]);
            for l in 0..4 {
                acc[r][l] += corner[r][l] * xs[l];
            }
        }
        // Row i0 + r's part right of the block starts 4 − r values into
        // its packed row.
        let rows = [
            &ap[o[0] + 4..o[0] + 4 + t],
            &ap[o[1] + 3..o[1] + 3 + t],
            &ap[o[2] + 2..o[2] + 2 + t],
            &ap[o[3] + 1..o[3] + 1 + t],
        ];
        let xt = &x[i0 + 4..];
        let yt = &mut y[i0 + 4..];
        let chunks = t / 4;
        for c in 0..chunks {
            let j = c * 4;
            let xv = &xt[j..j + 4];
            let yv = &mut yt[j..j + 4];
            // Lane-innermost, so each statement is one 4-wide operation.
            for r in 0..4 {
                let g = &rows[r][j..j + 4];
                for l in 0..4 {
                    acc[r][l] += g[l] * xv[l];
                    yv[l] += g[l] * xs[r];
                }
            }
        }
        let mut dots = [0.0_f64; 4];
        for r in 0..4 {
            dots[r] = ((acc[r][0] + acc[r][1]) + acc[r][2]) + acc[r][3];
        }
        for j in chunks * 4..t {
            let xj = xt[j];
            let mut yj = yt[j];
            for r in 0..4 {
                let g = rows[r][j];
                dots[r] += g * xj;
                yj += g * xs[r];
            }
            yt[j] = yj;
        }
        for c in 0..4 {
            let mut yc = y[i0 + c];
            for r in 0..3 {
                let u = if c > r { corner[r][c] } else { 0.0 };
                yc += u * xs[r];
            }
            y[i0 + c] = yc + dots[c];
        }
        i0 += 4;
        off = o[4];
    }
    symv_short_block(ap, x, y, (i0, rows.end), off, |acc, a, b| acc + a * b);
}

/// `out[j] += alpha * src[j]` over equal-length slices. Element-wise (no
/// cross-element reduction), so vector width never affects bits; the Avx2
/// level fuses each element's multiply-add.
pub fn axpy(out: &mut [f64], alpha: f64, src: &[f64]) {
    assert_eq!(out.len(), src.len(), "simd::axpy requires equal lengths");
    match current_level() {
        SimdLevel::Portable => {
            for (o, s) in out.iter_mut().zip(src) {
                *o += alpha * s;
            }
        }
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::axpy(out, alpha, src)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

/// Fused GD step `out[j] = alpha * out[j] + beta * src[j]`. Element-wise;
/// on *both* levels each element performs exactly the operations of
/// `scale_mut(alpha)` followed by `axpy(beta, src)` — the scale's rounding
/// then the (level-dependent) multiply-add — so fusing the two passes
/// never changes bits relative to the unfused pair.
pub fn scale_add(out: &mut [f64], alpha: f64, beta: f64, src: &[f64]) {
    assert_eq!(
        out.len(),
        src.len(),
        "simd::scale_add requires equal lengths"
    );
    match current_level() {
        SimdLevel::Portable => {
            for (o, s) in out.iter_mut().zip(src) {
                *o = (*o * alpha) + beta * s;
            }
        }
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::scale_add(out, alpha, beta, src)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

/// Rank-1 reflector update `out[j] -= scales[j] * v` (QR pass 2).
/// Element-wise; the Avx2 level fuses each element's multiply-subtract.
pub fn fnma_scaled(out: &mut [f64], scales: &[f64], v: f64) {
    assert_eq!(
        out.len(),
        scales.len(),
        "simd::fnma_scaled requires equal lengths"
    );
    match current_level() {
        SimdLevel::Portable => {
            for (o, s) in out.iter_mut().zip(scales) {
                *o -= s * v;
            }
        }
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::fnma_scaled(out, scales, v)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

/// Givens rotation of two equal-length rows (the QL stage's eigenvector
/// update): `(x, y) ← (c·x − s·y, s·x + c·y)`.
///
/// Deliberately **FMA-free on every level**: each output element performs
/// the same three roundings (two multiplies, one add/sub) whether
/// vectorised or not, so rotation results are bitwise identical *across
/// levels*.
pub fn rotate_two(row_p: &mut [f64], row_r: &mut [f64], c: f64, s: f64) {
    assert_eq!(
        row_p.len(),
        row_r.len(),
        "simd::rotate_two requires equal lengths"
    );
    match current_level() {
        SimdLevel::Portable => {
            for (xp, xr) in row_p.iter_mut().zip(row_r.iter_mut()) {
                let a = *xp;
                let b = *xr;
                *xp = c * a - s * b;
                *xr = s * a + c * b;
            }
        }
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::rotate_two(row_p, row_r, c, s)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

/// Sparse gather dot `Σ_k vals[k] * x[cols[k]]` over the canonical 4-wide
/// lane structure of [`dot`] (lane `l` accumulates positions `≡ l (mod 4)`,
/// lanes combine `((l0 + l1) + l2) + l3`, sequential tail). The Avx2 level
/// gathers the four `x` values with `vgatherqpd` and fuses the
/// multiply-adds.
///
/// # Panics
/// Panics on mismatched `cols`/`vals` lengths and on any out-of-range
/// column index, on both levels (the AVX2 path checks each index block
/// with a vector compare before gathering, so the bound can never be
/// crossed even transiently).
pub fn sparse_dot(cols: &[usize], vals: &[f64], x: &[f64]) -> f64 {
    assert_eq!(
        cols.len(),
        vals.len(),
        "simd::sparse_dot requires equal lengths"
    );
    match current_level() {
        SimdLevel::Portable => sparse_dot_portable(cols, vals, x),
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`; column indices are validated by the CSR
            // constructor, so the gather stays in bounds.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::sparse_dot(cols, vals, x)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

fn sparse_dot_portable(cols: &[usize], vals: &[f64], x: &[f64]) -> f64 {
    let mut acc0 = 0.0;
    let mut acc1 = 0.0;
    let mut acc2 = 0.0;
    let mut acc3 = 0.0;
    let chunks = cols.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc0 += vals[j] * x[cols[j]];
        acc1 += vals[j + 1] * x[cols[j + 1]];
        acc2 += vals[j + 2] * x[cols[j + 2]];
        acc3 += vals[j + 3] * x[cols[j + 3]];
    }
    let mut acc = ((acc0 + acc1) + acc2) + acc3;
    for j in chunks * 4..cols.len() {
        acc += vals[j] * x[cols[j]];
    }
    acc
}

/// Sparse scatter `acc[cols[k]] += alpha * vals[k]`. AVX2 has no scatter
/// instruction, so both levels run the same scalar loop; the Avx2 level
/// fuses each element's multiply-add (elements are independent — the CSR
/// invariant guarantees distinct columns within a row — so per-element
/// fusing keeps the level-internal bitwise guarantee).
pub fn sparse_scatter(cols: &[usize], vals: &[f64], alpha: f64, acc: &mut [f64]) {
    assert_eq!(
        cols.len(),
        vals.len(),
        "simd::sparse_scatter requires equal lengths"
    );
    match current_level() {
        SimdLevel::Portable => {
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                acc[c] += alpha * v;
            }
        }
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::sparse_scatter(cols, vals, alpha, acc)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

/// Sequential fused-negative-multiply-add chain
/// `init - a[0]·b[0] - a[1]·b[1] - …`, one term at a time in ascending
/// order — the Cholesky element chain. A single serial dependency, so
/// there is nothing to vectorise; the Avx2 level fuses each step inside a
/// `target_feature` function (native `vfnmadd`, never libm).
pub fn fnma_dot_seq(init: f64, a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "simd::fnma_dot_seq requires equal lengths"
    );
    match current_level() {
        SimdLevel::Portable => {
            let mut acc = init;
            for (x, y) in a.iter().zip(b) {
                acc -= x * y;
            }
            acc
        }
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::fnma_dot_seq(init, a, b)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

/// Rows of one Gram output tile (one broadcast per row and packed row).
const GRAM_TILE_ROWS: usize = 4;
/// Columns of one Gram output tile (two 4-lane registers).
const GRAM_TILE_COLS: usize = 8;

/// One Gram output tile: row `r` holds the entries `(p0 + r, q0 + c)` for
/// `c ∈ lo[r]..width`, stored at `out[at[r] + c]`; `full` marks the tiles
/// whose 4 × 8 entries all lie in the triangle (a flag the loop sets: a
/// kernel testing `lo` instead read it back through memory and stalled on
/// every tile).
#[derive(Clone, Copy)]
struct GramTile {
    at: [usize; GRAM_TILE_ROWS],
    lo: [usize; GRAM_TILE_ROWS],
    q0: usize,
    width: usize,
    full: bool,
}

/// Accumulates one block of rows into the upper triangle of an `m × m`
/// Gram matrix: for every `p ≤ q < m`,
/// `out[row_start(p) + q − p] ← madd(…madd(out, v_0p, x_0q)…, v_kp, x_kq)`
/// over the block's rows `k` in order, where row `k` of `x` starts at
/// `x[offs[k]]` and its broadcast value is `v_kp = weights[k] · x_kp`.
///
/// The triangle is covered by 4 × 8 register tiles (rows `p0..p0 + 4`,
/// columns `q0..q0 + 8`, `q0` a multiple of 8). For each 4-row band the
/// block's `v_k,p0..p0+4` are packed into `panel` (4 values per row, in row
/// order); each tile then loads its outputs once, runs every packed row
/// through [`madd`]'s level-dependent operation, and stores once. Tiles
/// wholly inside the triangle load and store `out` directly. The band's
/// first tile (it straddles the diagonal), tiles on the right edge
/// (`q0 + 8 > m`) and the last band when `m mod 4 ≠ 0` touch only their
/// in-triangle entries: masked loads and stores on the Avx2 level, a
/// local copy of the tile on the portable level.
///
/// # Panics
/// Panics if `weights` and `offs` differ in length, `panel` holds fewer
/// than `4 · offs.len()` values, a row runs past the end of `x`, or a row
/// of the triangle runs past the end of `out`.
pub(crate) fn gram_block(
    x: &[f64],
    m: usize,
    offs: &[usize],
    weights: &[f64],
    panel: &mut [f64],
    out: &mut [f64],
    row_start: impl Fn(usize) -> usize,
) {
    assert_eq!(offs.len(), weights.len(), "one weight per packed row");
    assert!(
        panel.len() >= GRAM_TILE_ROWS * offs.len(),
        "panel too short"
    );
    assert!(
        offs.iter().all(|&off| off <= x.len() && m <= x.len() - off),
        "simd::gram_block: a row runs past the end of x"
    );
    let panel = &mut panel[..GRAM_TILE_ROWS * offs.len()];
    match current_level() {
        SimdLevel::Portable => {
            gram_block_with(x, m, offs, weights, panel, out, row_start, |o, p, tile| {
                gram_tile_portable(o, p, x, offs, tile)
            })
        }
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`; the rows were checked above.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::gram_block(x, m, offs, weights, panel, out, row_start)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

/// The band and tile loop of [`gram_block`], shared by both levels:
/// packs each band's panel, then hands every tile of the band to `tile`,
/// which must accumulate the packed rows into exactly the tile's entries.
/// Every row of every band is checked to lie in `out`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gram_block_with(
    x: &[f64],
    m: usize,
    offs: &[usize],
    weights: &[f64],
    panel: &mut [f64],
    out: &mut [f64],
    row_start: impl Fn(usize) -> usize,
    mut tile: impl FnMut(&mut [f64], &[f64], GramTile),
) {
    for p0 in (0..m).step_by(GRAM_TILE_ROWS) {
        let band = GRAM_TILE_ROWS.min(m - p0);
        // Entry (p0 + r, q) of the triangle lives at `out[origin[r] + q]`,
        // so row p0 + r's entries end at `origin[r] + m`.
        let origin: [usize; GRAM_TILE_ROWS] = std::array::from_fn(|r| {
            let p = p0 + r;
            if r < band {
                row_start(p)
                    .checked_sub(p)
                    .expect("a Gram row starts at its diagonal")
            } else {
                0
            }
        });
        assert!(
            origin[..band]
                .iter()
                .all(|&o| o <= out.len() && m <= out.len() - o),
            "simd::gram_block: a Gram row runs past the end of the output"
        );
        for (k, (&off, &wk)) in offs.iter().zip(weights).enumerate() {
            let v = &mut panel[GRAM_TILE_ROWS * k..GRAM_TILE_ROWS * (k + 1)];
            for r in 0..GRAM_TILE_ROWS {
                // Rounded exactly as the rank-1 form's `w_i · x_ip`; the
                // rows past `m` of a short band feed no entry.
                v[r] = if r < band { wk * x[off + p0 + r] } else { 0.0 };
            }
        }
        let first = p0 / GRAM_TILE_COLS * GRAM_TILE_COLS;
        for q0 in (first..m).step_by(GRAM_TILE_COLS) {
            let width = GRAM_TILE_COLS.min(m - q0);
            // Row p0 + r's entries in the tile start at column p0 + r; the
            // rows past `m` have none.
            let lo = if q0 > p0 {
                [0; GRAM_TILE_ROWS]
            } else {
                std::array::from_fn(|r| if r < band { p0 + r - q0 } else { width })
            };
            let full = q0 > p0 && width == GRAM_TILE_COLS && band == GRAM_TILE_ROWS;
            let at = origin.map(|o| o + q0);
            tile(
                out,
                panel,
                GramTile {
                    at,
                    lo,
                    q0,
                    width,
                    full,
                },
            );
        }
    }
}

/// The portable 4 × 8 Gram tile: mul-then-add per entry, packed rows in
/// order. It runs as two 4-column halves, so the accumulators fit the
/// portable target's registers; a tile that is not full copies its entries
/// and the rows' columns in and out lane by lane, and the lanes outside
/// them compute discarded values.
fn gram_tile_portable(out: &mut [f64], panel: &[f64], x: &[f64], offs: &[usize], tile: GramTile) {
    const H: usize = GRAM_TILE_COLS / 2;
    let GramTile {
        at,
        lo,
        q0,
        width,
        full,
    } = tile;
    for h in (0..width).step_by(H) {
        let cols = H.min(width - h);
        let mut acc = [[0.0_f64; H]; GRAM_TILE_ROWS];
        for r in 0..GRAM_TILE_ROWS {
            if full {
                acc[r].copy_from_slice(&out[at[r] + h..at[r] + h + H]);
            } else {
                for c in lo[r].saturating_sub(h)..cols {
                    acc[r][c] = out[at[r] + h + c];
                }
            }
        }
        let mut xv = [0.0_f64; H];
        for (v, &off) in panel.chunks_exact(GRAM_TILE_ROWS).zip(offs) {
            let src = off + q0 + h;
            if full {
                xv.copy_from_slice(&x[src..src + H]);
            } else {
                // An index loop: a `copy_from_slice` of at most four values
                // compiles to a `memcpy` call per row.
                #[allow(clippy::manual_memcpy)]
                for c in 0..cols {
                    xv[c] = x[src + c];
                }
            }
            for (acc_r, &vr) in acc.iter_mut().zip(v) {
                for c in 0..H {
                    acc_r[c] += vr * xv[c];
                }
            }
        }
        for r in 0..GRAM_TILE_ROWS {
            if full {
                out[at[r] + h..at[r] + h + H].copy_from_slice(&acc[r]);
            } else {
                for c in lo[r].saturating_sub(h)..cols {
                    out[at[r] + h + c] = acc[r][c];
                }
            }
        }
    }
}

/// The AVX2+FMA implementations. Every function is
/// `#[target_feature(enable = "avx2,fma")]` and therefore `unsafe` to
/// call: the caller must have proven feature support (the dispatchers
/// above only reach here through [`SimdLevel::Avx2`]). Scalar tails use
/// `f64::mul_add`, which lowers to a native `vfmadd` instruction inside
/// these functions.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256d, __m256i, _mm256_add_pd, _mm256_and_si256, _mm256_blend_pd, _mm256_castpd256_pd128,
        _mm256_castsi256_pd, _mm256_cmpgt_epi64, _mm256_extractf128_pd, _mm256_fmadd_pd,
        _mm256_fnmadd_pd, _mm256_i64gather_pd, _mm256_loadu_pd, _mm256_loadu_si256,
        _mm256_maskload_pd, _mm256_maskstore_pd, _mm256_movemask_pd, _mm256_mul_pd,
        _mm256_permute2f128_pd, _mm256_set1_epi64x, _mm256_set1_pd, _mm256_set_pd,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm256_unpackhi_pd, _mm256_unpacklo_pd,
        _mm_add_sd, _mm_cvtsd_f64, _mm_unpackhi_pd,
    };

    /// Adds the four lanes of `v` in the canonical order
    /// `((l0 + l1) + l2) + l3` (matching the portable lane combine).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum_ordered(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v); // l0, l1
        let hi = _mm256_extractf128_pd(v, 1); // l2, l3
        let l1 = _mm_unpackhi_pd(lo, lo);
        let s = _mm_add_sd(lo, l1); // l0 + l1
        let s = _mm_add_sd(s, hi); // + l2
        let l3 = _mm_unpackhi_pd(hi, hi);
        let s = _mm_add_sd(s, l3); // + l3
        _mm_cvtsd_f64(s)
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        let len = a.len();
        let chunks = len / 4;
        let mut acc = _mm256_setzero_pd();
        for i in 0..chunks {
            let j = i * 4;
            let av = _mm256_loadu_pd(a.as_ptr().add(j));
            let bv = _mm256_loadu_pd(b.as_ptr().add(j));
            acc = _mm256_fmadd_pd(av, bv, acc);
        }
        let mut sum = hsum_ordered(acc);
        for j in chunks * 4..len {
            sum = a[j].mul_add(b[j], sum);
        }
        sum
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot4(
        r0: &[f64],
        r1: &[f64],
        r2: &[f64],
        r3: &[f64],
        x: &[f64],
    ) -> [f64; 4] {
        let len = x.len();
        let chunks = len / 4;
        let mut a0 = _mm256_setzero_pd();
        let mut a1 = _mm256_setzero_pd();
        let mut a2 = _mm256_setzero_pd();
        let mut a3 = _mm256_setzero_pd();
        for c in 0..chunks {
            let j = c * 4;
            let xv = _mm256_loadu_pd(x.as_ptr().add(j));
            a0 = _mm256_fmadd_pd(_mm256_loadu_pd(r0.as_ptr().add(j)), xv, a0);
            a1 = _mm256_fmadd_pd(_mm256_loadu_pd(r1.as_ptr().add(j)), xv, a1);
            a2 = _mm256_fmadd_pd(_mm256_loadu_pd(r2.as_ptr().add(j)), xv, a2);
            a3 = _mm256_fmadd_pd(_mm256_loadu_pd(r3.as_ptr().add(j)), xv, a3);
        }
        let mut out = [
            hsum_ordered(a0),
            hsum_ordered(a1),
            hsum_ordered(a2),
            hsum_ordered(a3),
        ];
        for j in chunks * 4..len {
            out[0] = r0[j].mul_add(x[j], out[0]);
            out[1] = r1[j].mul_add(x[j], out[1]);
            out[2] = r2[j].mul_add(x[j], out[2]);
            out[3] = r3[j].mul_add(x[j], out[3]);
        }
        out
    }

    /// See [`super::symv_packed_rows`] for the summation order; the caller
    /// has checked `ap.len() == m(m+1)/2`, `y.len() == x.len() == m` and
    /// that `rows` lies on the 4-row block grid.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn symv_packed(
        ap: &[f64],
        x: &[f64],
        y: &mut [f64],
        rows: std::ops::Range<usize>,
    ) {
        let m = x.len();
        y.fill(0.0);
        let a = ap.as_ptr();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let zero = _mm256_setzero_pd();
        let (mut i0, mut off) = (
            rows.start,
            crate::dense::packed::packed_row_offset(m, rows.start),
        );
        while i0 + 4 <= rows.end {
            let o = super::symv_block_offsets(m, i0, off);
            let t = m - i0 - 4;
            // Corner rows as four lanes over columns i0..i0+4, zero below
            // the diagonal. Row r ≥ 1 loads from r values before its start
            // (the tail of row r − 1, inside `ap`) and blends those lanes to
            // zero; every row holds at least 4 − r values, so the loads end
            // inside the row.
            let v0 = _mm256_loadu_pd(a.add(o[0]));
            let v1 = _mm256_blend_pd::<0b1110>(zero, _mm256_loadu_pd(a.add(o[1] - 1)));
            let v2 = _mm256_blend_pd::<0b1100>(zero, _mm256_loadu_pd(a.add(o[2] - 2)));
            let v3 = _mm256_blend_pd::<0b1000>(zero, _mm256_loadu_pd(a.add(o[3] - 3)));
            let xc = _mm256_loadu_pd(xp.add(i0));
            let mut a0 = _mm256_fmadd_pd(v0, xc, zero);
            let mut a1 = _mm256_fmadd_pd(v1, xc, zero);
            let mut a2 = _mm256_fmadd_pd(v2, xc, zero);
            let mut a3 = _mm256_fmadd_pd(v3, xc, zero);
            let xs = [
                *xp.add(i0),
                *xp.add(i0 + 1),
                *xp.add(i0 + 2),
                *xp.add(i0 + 3),
            ];
            let (xb0, xb1) = (_mm256_set1_pd(xs[0]), _mm256_set1_pd(xs[1]));
            let (xb2, xb3) = (_mm256_set1_pd(xs[2]), _mm256_set1_pd(xs[3]));
            // Row i0 + r's part right of the block starts 4 − r values into
            // its packed row and holds exactly `t` values.
            let p0 = a.add(o[0] + 4);
            let p1 = a.add(o[1] + 3);
            let p2 = a.add(o[2] + 2);
            let p3 = a.add(o[3] + 1);
            let xt = xp.add(i0 + 4);
            let yt = yp.add(i0 + 4);
            let chunks = t / 4;
            for c in 0..chunks {
                let j = c * 4;
                let xv = _mm256_loadu_pd(xt.add(j));
                let g0 = _mm256_loadu_pd(p0.add(j));
                let g1 = _mm256_loadu_pd(p1.add(j));
                let g2 = _mm256_loadu_pd(p2.add(j));
                let g3 = _mm256_loadu_pd(p3.add(j));
                a0 = _mm256_fmadd_pd(g0, xv, a0);
                a1 = _mm256_fmadd_pd(g1, xv, a1);
                a2 = _mm256_fmadd_pd(g2, xv, a2);
                a3 = _mm256_fmadd_pd(g3, xv, a3);
                let mut yv = _mm256_loadu_pd(yt.add(j));
                yv = _mm256_fmadd_pd(g0, xb0, yv);
                yv = _mm256_fmadd_pd(g1, xb1, yv);
                yv = _mm256_fmadd_pd(g2, xb2, yv);
                yv = _mm256_fmadd_pd(g3, xb3, yv);
                _mm256_storeu_pd(yt.add(j), yv);
            }
            // The four rows' lane combines at once: transpose the
            // accumulators so vector lane r holds row r's lane l, then add
            // ((l0 + l1) + l2) + l3.
            let t0 = _mm256_unpacklo_pd(a0, a1);
            let t1 = _mm256_unpackhi_pd(a0, a1);
            let t2 = _mm256_unpacklo_pd(a2, a3);
            let t3 = _mm256_unpackhi_pd(a2, a3);
            let l0 = _mm256_permute2f128_pd::<0x20>(t0, t2);
            let l1 = _mm256_permute2f128_pd::<0x20>(t1, t3);
            let l2 = _mm256_permute2f128_pd::<0x31>(t0, t2);
            let l3 = _mm256_permute2f128_pd::<0x31>(t1, t3);
            let mut dots = _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(l0, l1), l2), l3);
            for j in chunks * 4..t {
                let (g0, g1, g2, g3) = (*p0.add(j), *p1.add(j), *p2.add(j), *p3.add(j));
                let g = _mm256_set_pd(g3, g2, g1, g0);
                dots = _mm256_fmadd_pd(g, _mm256_set1_pd(*xt.add(j)), dots);
                let yj = yt.add(j);
                *yj = g3.mul_add(
                    xs[3],
                    g2.mul_add(xs[2], g1.mul_add(xs[1], g0.mul_add(xs[0], *yj))),
                );
            }
            let mut yc = _mm256_loadu_pd(yp.add(i0));
            yc = _mm256_fmadd_pd(_mm256_blend_pd::<0b1110>(zero, v0), xb0, yc);
            yc = _mm256_fmadd_pd(_mm256_blend_pd::<0b1100>(zero, v1), xb1, yc);
            yc = _mm256_fmadd_pd(_mm256_blend_pd::<0b1000>(zero, v2), xb2, yc);
            _mm256_storeu_pd(yp.add(i0), _mm256_add_pd(yc, dots));
            i0 += 4;
            off = o[4];
        }
        super::symv_short_block(ap, x, y, (i0, rows.end), off, |acc, a, b| a.mul_add(b, acc));
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn axpy(out: &mut [f64], alpha: f64, src: &[f64]) {
        let len = out.len();
        let chunks = len / 4;
        let av = _mm256_set1_pd(alpha);
        for i in 0..chunks {
            let j = i * 4;
            let o = _mm256_loadu_pd(out.as_ptr().add(j));
            let s = _mm256_loadu_pd(src.as_ptr().add(j));
            _mm256_storeu_pd(out.as_mut_ptr().add(j), _mm256_fmadd_pd(av, s, o));
        }
        for j in chunks * 4..len {
            out[j] = alpha.mul_add(src[j], out[j]);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn scale_add(out: &mut [f64], alpha: f64, beta: f64, src: &[f64]) {
        let len = out.len();
        let chunks = len / 4;
        let av = _mm256_set1_pd(alpha);
        let bv = _mm256_set1_pd(beta);
        for i in 0..chunks {
            let j = i * 4;
            let o = _mm256_loadu_pd(out.as_ptr().add(j));
            let s = _mm256_loadu_pd(src.as_ptr().add(j));
            // (out * alpha) rounds, then the multiply-add fuses — the exact
            // per-element sequence of scale_mut followed by fused axpy.
            let scaled = _mm256_mul_pd(o, av);
            _mm256_storeu_pd(out.as_mut_ptr().add(j), _mm256_fmadd_pd(bv, s, scaled));
        }
        for j in chunks * 4..len {
            out[j] = beta.mul_add(src[j], out[j] * alpha);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fnma_scaled(out: &mut [f64], scales: &[f64], v: f64) {
        let len = out.len();
        let chunks = len / 4;
        let vv = _mm256_set1_pd(v);
        for i in 0..chunks {
            let j = i * 4;
            let o = _mm256_loadu_pd(out.as_ptr().add(j));
            let s = _mm256_loadu_pd(scales.as_ptr().add(j));
            _mm256_storeu_pd(out.as_mut_ptr().add(j), _mm256_fnmadd_pd(s, vv, o));
        }
        for j in chunks * 4..len {
            out[j] = (-scales[j]).mul_add(v, out[j]);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn rotate_two(row_p: &mut [f64], row_r: &mut [f64], c: f64, s: f64) {
        let len = row_p.len();
        let chunks = len / 4;
        let cv = _mm256_set1_pd(c);
        let sv = _mm256_set1_pd(s);
        for i in 0..chunks {
            let j = i * 4;
            let a = _mm256_loadu_pd(row_p.as_ptr().add(j));
            let b = _mm256_loadu_pd(row_r.as_ptr().add(j));
            // FMA-free on purpose: c·a, s·b, c·b, s·a each round once and
            // the add/sub rounds once — the same three roundings as the
            // scalar loop, keeping rotation bits level-invariant.
            let new_p = _mm256_sub_pd(_mm256_mul_pd(cv, a), _mm256_mul_pd(sv, b));
            let new_r = _mm256_add_pd(_mm256_mul_pd(sv, a), _mm256_mul_pd(cv, b));
            _mm256_storeu_pd(row_p.as_mut_ptr().add(j), new_p);
            _mm256_storeu_pd(row_r.as_mut_ptr().add(j), new_r);
        }
        for j in chunks * 4..len {
            let a = row_p[j];
            let b = row_r[j];
            row_p[j] = c * a - s * b;
            row_r[j] = s * a + c * b;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sparse_dot(cols: &[usize], vals: &[f64], x: &[f64]) -> f64 {
        let len = cols.len();
        let chunks = len / 4;
        let mut acc = _mm256_setzero_pd();
        // usize is 64-bit on x86_64 and column indices are < 2^63, so the
        // signed 64-bit compare below is exact.
        let limit = _mm256_set1_epi64x(x.len() as i64);
        for i in 0..chunks {
            let j = i * 4;
            let idx = _mm256_loadu_si256(cols.as_ptr().add(j) as *const __m256i);
            // Bounds-check the whole block before gathering: every lane
            // must satisfy idx < x.len(), or the gather would read out of
            // bounds. One compare + movemask per 4 elements — noise next
            // to the gather itself.
            let in_bounds = _mm256_cmpgt_epi64(limit, idx);
            if _mm256_movemask_pd(_mm256_castsi256_pd(in_bounds)) != 0b1111 {
                out_of_bounds(cols, x.len());
            }
            let xv = _mm256_i64gather_pd::<8>(x.as_ptr(), idx);
            let vv = _mm256_loadu_pd(vals.as_ptr().add(j));
            acc = _mm256_fmadd_pd(vv, xv, acc);
        }
        let mut sum = hsum_ordered(acc);
        for j in chunks * 4..len {
            sum = vals[j].mul_add(x[cols[j]], sum);
        }
        sum
    }

    /// Cold panic path of the gather bounds check.
    #[cold]
    #[inline(never)]
    fn out_of_bounds(cols: &[usize], len: usize) -> ! {
        let bad = cols.iter().find(|&&c| c >= len).copied().unwrap_or(len);
        panic!("simd::sparse_dot column index {bad} out of bounds for x of length {len}");
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sparse_scatter(cols: &[usize], vals: &[f64], alpha: f64, acc: &mut [f64]) {
        for (&c, &v) in cols.iter().zip(vals.iter()) {
            acc[c] = alpha.mul_add(v, acc[c]);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fnma_dot_seq(init: f64, a: &[f64], b: &[f64]) -> f64 {
        let mut acc = init;
        for (x, y) in a.iter().zip(b) {
            acc = (-x).mul_add(*y, acc);
        }
        acc
    }

    /// [`super::gram_block`] with its tile loop compiled for AVX2+FMA, so
    /// [`gram_tile`] inlines into it.
    ///
    /// # Safety
    /// AVX2+FMA must be available, and every row `x[off..off + m]` must be
    /// in bounds.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gram_block(
        x: &[f64],
        m: usize,
        offs: &[usize],
        weights: &[f64],
        panel: &mut [f64],
        out: &mut [f64],
        row_start: impl Fn(usize) -> usize,
    ) {
        super::gram_block_with(x, m, offs, weights, panel, out, row_start, |o, p, tile| {
            // SAFETY: the loop checked the tile's entries against `out`,
            // the caller the rows against `x`, and `p` holds 4 values per
            // row of `offs`.
            unsafe { gram_tile(o, p, x, offs, tile) }
        });
    }

    /// The AVX2 4 × 8 Gram tile: eight accumulators (two per tile row),
    /// one fused multiply-add per entry and packed row, in row order. A
    /// tile that is not full loads and stores its entries under lane masks
    /// and loads the `x` columns past `width` as zero, so no lane outside
    /// the tile's entries or the rows is ever touched.
    ///
    /// # Safety
    /// AVX2+FMA must be available; `out[at[r] + c]` must be in bounds for
    /// every `c ∈ lo[r]..width`; `panel` must hold 4 values per entry of
    /// `offs`; and `x[off + q0..off + q0 + width]` must be in bounds for
    /// every `off`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn gram_tile(
        out: &mut [f64],
        panel: &[f64],
        x: &[f64],
        offs: &[usize],
        tile: super::GramTile,
    ) {
        let super::GramTile {
            at,
            lo,
            q0,
            width,
            full,
        } = tile;
        let o = out.as_mut_ptr();
        let rows = at.map(|a| o.wrapping_add(a));
        let xp = x.as_ptr().wrapping_add(q0);
        let v = panel.as_ptr();
        let mut acc = [[_mm256_setzero_pd(); 2]; 4];
        if full {
            for (acc_r, &row) in acc.iter_mut().zip(&rows) {
                acc_r[0] = _mm256_loadu_pd(row);
                acc_r[1] = _mm256_loadu_pd(row.add(4));
            }
            for (k, &off) in offs.iter().enumerate() {
                let xa = _mm256_loadu_pd(xp.add(off));
                let xb = _mm256_loadu_pd(xp.add(off + 4));
                gram_tile_row(&mut acc, v.add(4 * k), xa, xb);
            }
            for (acc_r, &row) in acc.iter().zip(&rows) {
                _mm256_storeu_pd(row, acc_r[0]);
                _mm256_storeu_pd(row.add(4), acc_r[1]);
            }
            return;
        }
        for ((acc_r, &row), &l) in acc.iter_mut().zip(&rows).zip(&lo) {
            let (ma, mb) = edge_mask(l, width);
            acc_r[0] = _mm256_maskload_pd(row, ma);
            acc_r[1] = _mm256_maskload_pd(row.wrapping_add(4), mb);
        }
        let (xa_mask, xb_mask) = edge_mask(0, width);
        for (k, &off) in offs.iter().enumerate() {
            let xa = _mm256_maskload_pd(xp.wrapping_add(off), xa_mask);
            let xb = _mm256_maskload_pd(xp.wrapping_add(off + 4), xb_mask);
            gram_tile_row(&mut acc, v.add(4 * k), xa, xb);
        }
        for ((acc_r, &row), &l) in acc.iter().zip(&rows).zip(&lo) {
            let (ma, mb) = edge_mask(l, width);
            _mm256_maskstore_pd(row, ma, acc_r[0]);
            _mm256_maskstore_pd(row.wrapping_add(4), mb, acc_r[1]);
        }
    }

    /// Lane masks of a tile row's columns `lo..width` (`lo ≤ width ≤ 8`),
    /// one per 4-lane half: two windows into a table of zeros and ones,
    /// one selecting the lanes `≥ lo` and one the lanes `< width`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn edge_mask(lo: usize, width: usize) -> (__m256i, __m256i) {
        static TABLE: [i64; 24] = [
            0, 0, 0, 0, 0, 0, 0, 0, -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0,
        ];
        let t = TABLE.as_ptr();
        let from = t.add(8 - lo); // lane c is set iff c >= lo
        let below = t.add(16 - width); // lane c is set iff c < width
        let half = |h: usize| {
            _mm256_and_si256(
                _mm256_loadu_si256(from.add(h) as *const __m256i),
                _mm256_loadu_si256(below.add(h) as *const __m256i),
            )
        };
        (half(0), half(4))
    }

    /// One packed row of [`gram_tile`]: `acc[r] ← v[r]·(xa, xb) + acc[r]`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn gram_tile_row(acc: &mut [[__m256d; 2]; 4], v: *const f64, xa: __m256d, xb: __m256d) {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let vr = _mm256_set1_pd(*v.add(r));
            acc_r[0] = _mm256_fmadd_pd(vr, xa, acc_r[0]);
            acc_r[1] = _mm256_fmadd_pd(vr, xb, acc_r[1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_rejects_garbage_and_honours_detection() {
        // Auto / unset picks the best supported level.
        assert_eq!(parse_priu_simd(None, true), SimdLevel::Avx2);
        assert_eq!(parse_priu_simd(None, false), SimdLevel::Portable);
        assert_eq!(parse_priu_simd(Some("auto"), true), SimdLevel::Avx2);
        // Off always wins.
        assert_eq!(parse_priu_simd(Some("off"), true), SimdLevel::Portable);
        assert_eq!(
            parse_priu_simd(Some(" portable "), true),
            SimdLevel::Portable
        );
        // Forced avx2 passes through only with the features present.
        assert_eq!(parse_priu_simd(Some("avx2"), true), SimdLevel::Avx2);
        for (value, supported) in [("avx2", false), ("gibberish", true), ("", true)] {
            let result = std::panic::catch_unwind(|| parse_priu_simd(Some(value), supported));
            let payload = result.expect_err(&format!("PRIU_SIMD={value:?} must be rejected"));
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            assert!(
                message.contains("PRIU_SIMD"),
                "panic message must name the variable, got {message:?}"
            );
        }
    }

    #[test]
    fn with_level_nests_and_restores() {
        let outer = current_level();
        with_level(SimdLevel::Portable, || {
            assert_eq!(current_level(), SimdLevel::Portable);
            if avx2_supported() {
                with_level(SimdLevel::Avx2, || {
                    assert_eq!(current_level(), SimdLevel::Avx2);
                });
            }
            assert_eq!(current_level(), SimdLevel::Portable);
        });
        assert_eq!(current_level(), outer);
    }

    fn levels() -> Vec<SimdLevel> {
        available_levels()
    }

    #[test]
    fn dot_matches_naive_on_every_level() {
        let a: Vec<f64> = (0..23).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..23).map(|i| (i as f64 * 0.11).cos()).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        for level in levels() {
            let got = with_level(level, || dot(&a, &b));
            assert!((got - naive).abs() < 1e-12, "{level}: {got} vs {naive}");
        }
    }

    #[test]
    fn elementwise_kernels_match_naive_on_every_level() {
        let src: Vec<f64> = (0..13).map(|i| (i as f64 * 0.7).sin()).collect();
        let scales: Vec<f64> = (0..13).map(|i| (i as f64 * 0.3).cos()).collect();
        for level in levels() {
            with_level(level, || {
                let mut out: Vec<f64> = (0..13).map(|i| i as f64 * 0.5).collect();
                axpy(&mut out, 1.5, &src);
                for (j, &o) in out.iter().enumerate() {
                    assert!((o - (j as f64 * 0.5 + 1.5 * src[j])).abs() < 1e-12);
                }
                let mut fused: Vec<f64> = (0..13).map(|i| i as f64 * 0.5).collect();
                let mut pair = fused.clone();
                scale_add(&mut fused, 0.9, -0.4, &src);
                for p in pair.iter_mut() {
                    *p *= 0.9;
                }
                axpy(&mut pair, -0.4, &src);
                // The fusion guarantee is bitwise per level.
                assert_eq!(fused, pair, "{level}");

                let mut rank1 = scales.clone();
                fnma_scaled(&mut rank1, &src, 2.0);
                for (j, &o) in rank1.iter().enumerate() {
                    assert!((o - (scales[j] - src[j] * 2.0)).abs() < 1e-12);
                }
            });
        }
    }

    #[test]
    fn rotation_bits_are_level_invariant() {
        let p: Vec<f64> = (0..11).map(|i| (i as f64 * 0.9).sin()).collect();
        let r: Vec<f64> = (0..11).map(|i| (i as f64 * 0.4).cos()).collect();
        let (c, s) = (0.8, 0.6);
        let run = |level| {
            with_level(level, || {
                let (mut rp, mut rr) = (p.clone(), r.clone());
                rotate_two(&mut rp, &mut rr, c, s);
                (rp, rr)
            })
        };
        let portable = run(SimdLevel::Portable);
        if avx2_supported() {
            assert_eq!(portable, run(SimdLevel::Avx2));
        }
        for j in 0..11 {
            assert_eq!(portable.0[j], c * p[j] - s * r[j]);
            assert_eq!(portable.1[j], s * p[j] + c * r[j]);
        }
    }

    #[test]
    fn sparse_kernels_match_naive_on_every_level() {
        let cols = [0usize, 3, 4, 7, 9, 2, 5];
        let vals = [1.0, -2.0, 0.5, 3.0, -0.25, 1.5, 0.75];
        let x: Vec<f64> = (0..10).map(|i| (i as f64 * 0.2).sin() + 1.0).collect();
        let naive: f64 = cols.iter().zip(&vals).map(|(&c, &v)| v * x[c]).sum();
        for level in levels() {
            with_level(level, || {
                let got = sparse_dot(&cols, &vals, &x);
                assert!((got - naive).abs() < 1e-12, "{level}");
                let mut acc = vec![0.0; 10];
                sparse_scatter(&cols, &vals, 2.0, &mut acc);
                for (k, &c) in cols.iter().enumerate() {
                    assert!((acc[c] - 2.0 * vals[k]).abs() < 1e-12, "{level}");
                }
            });
        }
    }

    #[test]
    fn fnma_dot_seq_matches_textbook_chain() {
        let a: Vec<f64> = (0..9).map(|i| (i as f64 * 0.5).sin()).collect();
        let b: Vec<f64> = (0..9).map(|i| (i as f64 * 0.25).cos()).collect();
        for level in levels() {
            with_level(level, || {
                let got = fnma_dot_seq(10.0, &a, &b);
                let mut want = 10.0;
                for (x, y) in a.iter().zip(&b) {
                    want = fnma(want, *x, *y);
                }
                // The dispatched scalar helper realises the same chain.
                assert_eq!(got, want, "{level}");
            });
        }
    }

    #[test]
    fn mismatched_lengths_panic_on_every_level() {
        // The bound checks are load-bearing: the AVX2 paths write through
        // raw pointers sized by one slice, so a silent truncation would be
        // out-of-bounds. Each kernel must panic instead, in release too.
        for level in levels() {
            with_level(level, || {
                let short = [1.0; 3];
                let long = [2.0; 8];
                assert!(std::panic::catch_unwind(|| dot(&short, &long)).is_err());
                assert!(
                    std::panic::catch_unwind(|| dot4(&long, &long, &long, &short, &long)).is_err()
                );
                let mut out = [0.0; 8];
                assert!(
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| axpy(
                        &mut out, 1.0, &short
                    )))
                    .is_err()
                );
                assert!(
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rotate_two(
                        &mut out,
                        &mut [0.0; 3],
                        0.8,
                        0.6
                    )))
                    .is_err()
                );
                // Out-of-range gather indices panic before any memory access.
                let cols = [0usize, 9];
                let vals = [1.0, 1.0];
                let x = [1.0; 4];
                assert!(std::panic::catch_unwind(|| sparse_dot(&cols, &vals, &x)).is_err());
                // A full 4-lane block with one bad lane (exercises the
                // vector compare on the Avx2 level, not just the tail).
                let cols4 = [0usize, 1, 2, 9];
                let vals4 = [1.0; 4];
                assert!(std::panic::catch_unwind(|| sparse_dot(&cols4, &vals4, &x)).is_err());
            });
        }
    }

    #[test]
    fn scalar_helpers_round_per_level() {
        // Pick operands where fused and two-step rounding demonstrably
        // differ: with a*b + c where a*b needs more than 53 bits.
        let (a, b, c) = (1.0 + 2f64.powi(-30), 1.0 + 2f64.powi(-30), -1.0);
        let two_step = a * b + c;
        let fused = a.mul_add(b, c);
        assert_ne!(two_step, fused, "operands must expose the rounding gap");
        assert_eq!(with_level(SimdLevel::Portable, || madd(c, a, b)), two_step);
        if avx2_supported() {
            assert_eq!(with_level(SimdLevel::Avx2, || madd(c, a, b)), fused);
        }
    }
}
