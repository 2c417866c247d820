//! Packed storage for symmetric matrices.
//!
//! A symmetric `m × m` matrix is fully described by its upper triangle.
//! [`PackedSymmetric`] stores exactly that triangle, row by row: packed row
//! `i` holds `a[i][i..m]`, so the whole matrix takes `m(m+1)/2` values
//! instead of `m²`. The PrIU Gram caches are stored this way — every replay
//! streams each cached `G_t` once, so halving the stored values halves the
//! bytes a memory-bound replay reads.
//!
//! The matrix-vector product ([`PackedSymmetric::symv_into`]) runs through
//! the [`crate::simd::symv_packed`] microkernel, which keeps the module's
//! per-level determinism contract and never splits the work across threads,
//! so its bits never depend on `PRIU_THREADS`.
//!
//! The PrIU replay splits each product itself: [`SymvChunks`] cuts the rows
//! into equal-area ranges on the 4-row block grid, a function of `m` alone,
//! and [`PackedSymmetric::symv_rows_into`] computes one range's partial.
//! Summing the partials in ascending range order gives bits that depend on
//! `m` and the SIMD level, never on how many threads computed them.

use std::ops::Range;

use crate::dense::matrix::Matrix;
use crate::dense::vector::{axpy_slices, Vector};
use crate::error::{LinalgError, Result};

/// A symmetric matrix stored as its packed upper triangle (row `i` holds
/// `a[i][i..]`, `dim·(dim+1)/2` values in total).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedSymmetric {
    dim: usize,
    data: Vec<f64>,
}

/// Number of stored values for a `dim × dim` symmetric matrix.
pub fn packed_len(dim: usize) -> usize {
    dim * (dim + 1) / 2
}

/// Offset of packed row `i` of a `dim × dim` matrix: the rows before it
/// hold `dim + (dim − 1) + … + (dim − i + 1)` values.
pub(crate) fn packed_row_offset(dim: usize, i: usize) -> usize {
    i * (2 * dim - i + 1) / 2
}

/// Packed values a [`SymvChunks`] range aims to hold: large enough that
/// one range's symv outweighs a lockstep hand-off between threads.
const SYMV_CHUNK_VALUES: usize = 16 * 1024;
/// Most ranges a [`SymvChunks`] decomposition uses.
const SYMV_MAX_CHUNKS: usize = 8;

/// The row decomposition of a `dim × dim` packed symv into partial products
/// ([`PackedSymmetric::symv_rows_into`]). The range count `K` is the
/// largest power of two not above `dim(dim+1)/2 / 16384`, capped at 8 and
/// at least 1 — a power of two so the ranges share out evenly over 1, 2, 4
/// or 8 threads. Boundaries sit on the 4-row block grid, each placed where
/// its share of the packed values is nearest `c/K` of the total. Both count
/// and boundaries depend on `dim` alone, never on the thread count.
#[derive(Debug, Clone, Copy)]
pub struct SymvChunks {
    count: usize,
    bounds: [usize; SYMV_MAX_CHUNKS + 1],
}

impl SymvChunks {
    /// The decomposition for a `dim × dim` matrix.
    pub fn new(dim: usize) -> Self {
        let per_values = packed_len(dim) / SYMV_CHUNK_VALUES;
        let mut count = 1;
        while count * 2 <= per_values.min(SYMV_MAX_CHUNKS) {
            count *= 2;
        }
        let mut bounds = [dim; SYMV_MAX_CHUNKS + 1];
        bounds[0] = 0;
        let total = packed_len(dim);
        let mut r = 0;
        for (c, bound) in bounds.iter_mut().enumerate().take(count).skip(1) {
            let target = total * c / count;
            // Largest block boundary at or before the target, then the
            // nearer of it and the next one.
            while r + 4 <= dim && packed_row_offset(dim, r + 4) <= target {
                r += 4;
            }
            if r + 4 <= dim
                && packed_row_offset(dim, r + 4) - target < target - packed_row_offset(dim, r)
            {
                *bound = r + 4;
            } else {
                *bound = r;
            }
        }
        Self { count, bounds }
    }

    /// Number of row ranges `K`.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The rows of range `c`.
    ///
    /// # Panics
    /// Panics if `c >= count()`.
    pub fn rows(&self, c: usize) -> Range<usize> {
        assert!(
            c < self.count,
            "symv chunk {c} out of range ({})",
            self.count
        );
        self.bounds[c]..self.bounds[c + 1]
    }
}

impl PackedSymmetric {
    /// An empty (`0 × 0`) matrix whose storage already holds a `dim × dim`
    /// one, so a later `_into` kernel (say,
    /// [`Matrix::weighted_gram_packed_into`](crate::Matrix::weighted_gram_packed_into))
    /// fills it without reallocating — even on another thread.
    pub fn with_capacity(dim: usize) -> Self {
        Self {
            dim: 0,
            data: Vec::with_capacity(packed_len(dim)),
        }
    }

    /// Wraps packed upper-triangle values (row `i` holding `a[i][i..]`).
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len()` is not
    /// `dim·(dim+1)/2`.
    pub fn from_packed(dim: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != packed_len(dim) {
            return Err(LinalgError::ShapeMismatch {
                op: "PackedSymmetric::from_packed",
                left: (dim, dim),
                right: (data.len(), 1),
            });
        }
        Ok(Self { dim, data })
    }

    /// Packs the upper triangle of a square matrix that is *exactly*
    /// symmetric: every `a[i][j]` must have the bit pattern of `a[j][i]`,
    /// so packing loses nothing.
    ///
    /// # Errors
    /// [`LinalgError::NotSquare`] for a non-square matrix;
    /// [`LinalgError::InvalidArgument`] naming the first asymmetric pair.
    pub fn from_symmetric(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        let dim = a.nrows();
        let mut data = Vec::with_capacity(packed_len(dim));
        for i in 0..dim {
            for j in i..dim {
                if a[(i, j)].to_bits() != a[(j, i)].to_bits() {
                    return Err(LinalgError::InvalidArgument(format!(
                        "matrix is not exactly symmetric at ({i}, {j})"
                    )));
                }
            }
            data.extend_from_slice(&a.row(i)[i..]);
        }
        Ok(Self { dim, data })
    }

    /// The dimension `m` of the `m × m` matrix.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed values, row `i` holding `a[i][i..]`.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Number of stored `f64` values, `dim·(dim+1)/2`.
    pub fn stored_values(&self) -> usize {
        self.data.len()
    }

    /// Packed row `i`: the upper-triangle entries `a[i][i..]`.
    ///
    /// # Panics
    /// Panics if `i >= dim()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.dim, "row {i} out of range ({} rows)", self.dim);
        let start = packed_row_offset(self.dim, i);
        &self.data[start..start + (self.dim - i)]
    }

    /// Reshapes to `dim × dim` and zeroes every value, reusing the
    /// allocation.
    pub fn reshape_zeroed(&mut self, dim: usize) {
        self.dim = dim;
        self.data.clear();
        self.data.resize(packed_len(dim), 0.0);
    }

    /// The full `dim × dim` matrix, with the lower triangle mirrored.
    pub fn to_dense(&self) -> Matrix {
        Matrix::from_fn(self.dim, self.dim, |i, j| {
            let (lo, hi) = (i.min(j), i.max(j));
            self.row(lo)[hi - lo]
        })
    }

    /// `self += alpha * other` over the packed values (an element-wise
    /// [`axpy_slices`], so each stored entry rounds exactly as the same
    /// entry of a dense `Matrix::axpy` would).
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if the dimensions differ.
    pub fn axpy(&mut self, alpha: f64, other: &PackedSymmetric) -> Result<()> {
        if self.dim != other.dim {
            return Err(LinalgError::ShapeMismatch {
                op: "PackedSymmetric::axpy",
                left: (self.dim, self.dim),
                right: (other.dim, other.dim),
            });
        }
        axpy_slices(&mut self.data, alpha, &other.data);
        Ok(())
    }

    /// Symmetric matrix-vector product `self * x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != dim()`.
    pub fn symv(&self, x: &[f64]) -> Result<Vector> {
        let mut out = Vector::zeros(self.dim);
        self.symv_into(x, out.as_mut_slice())?;
        Ok(out)
    }

    /// Symmetric matrix-vector product into a caller-owned buffer
    /// (`out = self * x`, overwritten). Each stored value is loaded once
    /// and feeds both its row's dot product and the mirrored column's
    /// update — see [`crate::simd::symv_packed`] for the summation order.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len()` or `out.len()`
    /// differs from `dim()`.
    pub fn symv_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        if x.len() != self.dim || out.len() != self.dim {
            return Err(LinalgError::ShapeMismatch {
                op: "PackedSymmetric::symv_into",
                left: (self.dim, self.dim),
                right: (x.len(), out.len()),
            });
        }
        crate::simd::symv_packed(&self.data, x, out);
        Ok(())
    }

    /// The partial product of rows `rows` into a caller-owned buffer
    /// (overwritten; see [`crate::simd::symv_packed_rows`]). The ranges of
    /// a [`SymvChunks`] for this dimension, summed in ascending order, give
    /// the product; the single range `0..dim` gives [`Self::symv_into`]'s
    /// bits.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len()` or `out.len()`
    /// differs from `dim()`.
    ///
    /// # Panics
    /// Panics if `rows` is off the 4-row block grid.
    pub fn symv_rows_into(&self, x: &[f64], out: &mut [f64], rows: Range<usize>) -> Result<()> {
        if x.len() != self.dim || out.len() != self.dim {
            return Err(LinalgError::ShapeMismatch {
                op: "PackedSymmetric::symv_rows_into",
                left: (self.dim, self.dim),
                right: (x.len(), out.len()),
            });
        }
        crate::simd::symv_packed_rows(&self.data, x, out, rows);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(m: usize) -> Matrix {
        Matrix::from_fn(m, m, |i, j| {
            ((i + 1) * (j + 1)) as f64 * 0.25 + (i + j) as f64
        })
    }

    #[test]
    fn packing_round_trips_and_indexes_like_the_dense_matrix() {
        for m in [0, 1, 2, 5, 9] {
            let a = sym(m);
            let p = PackedSymmetric::from_symmetric(&a).unwrap();
            assert_eq!(p.stored_values(), m * (m + 1) / 2);
            assert_eq!(p.to_dense(), a);
            for i in 0..m {
                assert_eq!(p.row(i), &a.row(i)[i..]);
            }
        }
    }

    #[test]
    fn asymmetric_and_non_square_inputs_are_refused() {
        let mut a = sym(4);
        a[(3, 1)] += 1e-12;
        assert!(matches!(
            PackedSymmetric::from_symmetric(&a),
            Err(LinalgError::InvalidArgument(_))
        ));
        assert!(matches!(
            PackedSymmetric::from_symmetric(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(PackedSymmetric::from_packed(3, vec![0.0; 5]).is_err());
    }

    #[test]
    fn symv_matches_the_dense_product() {
        for m in [1, 3, 4, 7, 12] {
            let a = sym(m);
            let p = PackedSymmetric::from_symmetric(&a).unwrap();
            let x: Vec<f64> = (0..m).map(|i| (i as f64 * 0.7).sin()).collect();
            let got = p.symv(&x).unwrap();
            let want = a.matvec(&x).unwrap();
            assert!(
                (&got - &want).norm2() <= 1e-12 * want.norm2().max(1.0),
                "m={m}"
            );
        }
        let p = PackedSymmetric::from_packed(3, vec![0.0; 6]).unwrap();
        assert!(p.symv(&[1.0; 2]).is_err());
    }

    #[test]
    fn symv_chunks_depend_on_the_dimension_alone() {
        // The serve shapes and anything below 2·16384 packed values stay a
        // single range.
        for m in [0, 1, 8, 32, 64, 180, 255] {
            let c = SymvChunks::new(m);
            assert_eq!(c.count(), 1, "m={m}");
            assert_eq!(c.rows(0), 0..m);
        }
        assert_eq!(SymvChunks::new(256).count(), 2);
        assert_eq!(SymvChunks::new(318).count(), 2);
        assert_eq!(SymvChunks::new(400).count(), 4);
        assert_eq!(SymvChunks::new(4000).count(), 8);
        for m in [256, 318, 333, 400, 1000, 4000] {
            let c = SymvChunks::new(m);
            let total = packed_len(m);
            let mut start = 0;
            for k in 0..c.count() {
                let r = c.rows(k);
                assert_eq!(r.start, start, "m={m} chunk {k}");
                assert!(r.start.is_multiple_of(4) && (r.end.is_multiple_of(4) || r.end == m));
                assert!(r.end > r.start, "m={m} chunk {k} is empty");
                let area = packed_row_offset(m, r.end) - packed_row_offset(m, r.start);
                // Equal area up to one 4-row block either side.
                assert!(
                    area.abs_diff(total / c.count()) <= 8 * m,
                    "m={m} chunk {k} holds {area} of {total}"
                );
                start = r.end;
            }
            assert_eq!(start, m);
        }
    }

    #[test]
    fn row_ranges_sum_to_the_product() {
        let m = 318;
        let a = sym(m);
        let p = PackedSymmetric::from_symmetric(&a).unwrap();
        let x: Vec<f64> = (0..m).map(|i| (i as f64 * 0.7).sin()).collect();
        let want = a.matvec(&x).unwrap();
        let chunks = SymvChunks::new(m);
        let mut total = vec![0.0; m];
        let mut part = vec![0.0; m];
        for c in 0..chunks.count() {
            p.symv_rows_into(&x, &mut part, chunks.rows(c)).unwrap();
            assert!(part[..chunks.rows(c).start].iter().all(|&v| v == 0.0));
            axpy_slices(&mut total, 1.0, &part);
        }
        let err: f64 = total
            .iter()
            .zip(want.iter())
            .map(|(g, w)| (g - w).abs())
            .fold(0.0, f64::max);
        assert!(err <= 1e-9 * want.norm2(), "error {err}");
        let mut whole = vec![0.0; m];
        p.symv_rows_into(&x, &mut part, 0..m).unwrap();
        p.symv_into(&x, &mut whole).unwrap();
        assert_eq!(part, whole);
        assert!(p.symv_rows_into(&x[..3], &mut part, 0..m).is_err());
    }
}
