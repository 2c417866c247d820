//! Bit-exact serialization of sessions for durability snapshots.
//!
//! The server's durability layer (PR 9) persists whole sessions — dataset,
//! trained model, captured provenance, closed-form views — and must restore
//! them *bitwise identical*: recovery redoes WAL deltas through the same
//! `apply_delta` replay as the live path, so any rounding introduced by the
//! codec would diverge the recovered chain. Every `f64` therefore round-trips
//! through [`f64::to_bits`]; every integer is fixed-width little-endian.
//! There is no varint cleverness and no compression — snapshots are already
//! dominated by the dense provenance caches, and a transparent format keeps
//! the corruption story simple (the WAL layer checksums the whole blob).
//!
//! Layout discipline: each composite type has a `put_*` / `get_*` pair in
//! this module when its fields are public, while the engine structs (private
//! fields) implement their halves in their own modules via
//! [`SnapshotWriter`] / [`SnapshotReader`]. A one-byte tag disambiguates
//! every enum. Decode failures surface as [`CoreError::Snapshot`] — a typed
//! error the recovery path can log and skip, never a panic.

use priu_data::catalog::Hyperparameters;
use priu_data::dataset::{DenseDataset, Labels, SparseDataset};
use priu_data::minibatch::BatchSchedule;
use priu_linalg::decomposition::eigen::SymmetricEigen;
use priu_linalg::decomposition::TruncatedGram;
use priu_linalg::{CsrMatrix, Matrix, PackedSymmetric, Vector};

use crate::baseline::closed_form::ClosedFormCapture;
use crate::capture::{
    ClassIterationCache, GramCache, LinearIterationCache, LinearOptCapture, LinearProvenance,
    LogisticIterationCache, LogisticOptCapture, LogisticOptClassCapture, LogisticProvenance,
};
use crate::config::{Compression, TrainerConfig};
use crate::error::{CoreError, Result};
use crate::interpolation::PiecewiseLinearSigmoid;
use crate::model::{Model, ModelKind};
use crate::trainer::sparse::SparseLogisticProvenance;

/// Append-only byte sink for snapshot encoding.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` by its bit pattern (lossless, NaN-preserving).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
}

/// Bounds-checked cursor over snapshot bytes.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

fn corrupt(what: &str) -> CoreError {
    CoreError::Snapshot(format!("snapshot truncated or corrupt: {what}"))
}

impl<'a> SnapshotReader<'a> {
    /// A reader over the full byte slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Consumes the next `n` raw bytes (a nested blob with its own codec).
    ///
    /// # Errors
    /// [`CoreError::Snapshot`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self.at.checked_add(n).ok_or_else(|| corrupt(what))?;
        let slice = self.bytes.get(self.at..end).ok_or_else(|| corrupt(what))?;
        self.at = end;
        Ok(slice)
    }

    /// Reads a raw byte.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn usize(&mut self, what: &str) -> Result<usize> {
        usize::try_from(self.u64(what)?).map_err(|_| corrupt(what))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a bool byte (strictly 0 or 1).
    pub fn bool(&mut self, what: &str) -> Result<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(corrupt(&format!("{what}: bad bool byte {other}"))),
        }
    }

    /// Reads a length prefix that must be coverable by the remaining bytes
    /// at `elem_bytes` each — rejects lying prefixes before any allocation.
    pub fn len(&mut self, elem_bytes: usize, what: &str) -> Result<usize> {
        let n = self.usize(what)?;
        let need = n.checked_mul(elem_bytes).ok_or_else(|| corrupt(what))?;
        if need > self.remaining() {
            return Err(corrupt(&format!(
                "{what}: length {n} exceeds remaining bytes"
            )));
        }
        Ok(n)
    }

    /// Fails unless every byte has been consumed.
    pub fn finish(self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(corrupt(&format!("{} trailing bytes", self.remaining())))
        }
    }
}

// --- primitives -----------------------------------------------------------

/// Encodes a vector (length + bit patterns).
pub fn put_vector(w: &mut SnapshotWriter, v: &Vector) {
    w.usize(v.len());
    for &x in v.as_slice() {
        w.f64(x);
    }
}

/// Decodes a vector.
pub fn get_vector(r: &mut SnapshotReader<'_>, what: &str) -> Result<Vector> {
    let n = r.len(8, what)?;
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(r.f64(what)?);
    }
    Ok(Vector::from_vec(data))
}

/// Encodes a dense matrix (shape + row-major bit patterns).
pub fn put_matrix(w: &mut SnapshotWriter, m: &Matrix) {
    w.usize(m.nrows());
    w.usize(m.ncols());
    for &x in m.as_slice() {
        w.f64(x);
    }
}

/// Decodes a dense matrix.
pub fn get_matrix(r: &mut SnapshotReader<'_>, what: &str) -> Result<Matrix> {
    let rows = r.usize(what)?;
    let cols = r.usize(what)?;
    let total = rows.checked_mul(cols).ok_or_else(|| corrupt(what))?;
    if total.checked_mul(8).ok_or_else(|| corrupt(what))? > r.remaining() {
        return Err(corrupt(&format!("{what}: matrix larger than payload")));
    }
    let mut data = Vec::with_capacity(total);
    for _ in 0..total {
        data.push(r.f64(what)?);
    }
    Ok(Matrix::from_vec(rows, cols, data)?)
}

fn put_usize_slice(w: &mut SnapshotWriter, s: &[usize]) {
    w.usize(s.len());
    for &x in s {
        w.usize(x);
    }
}

fn get_usize_vec(r: &mut SnapshotReader<'_>, what: &str) -> Result<Vec<usize>> {
    let n = r.len(8, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.usize(what)?);
    }
    Ok(out)
}

fn put_pairs(w: &mut SnapshotWriter, pairs: &[(f64, f64)]) {
    w.usize(pairs.len());
    for &(a, b) in pairs {
        w.f64(a);
        w.f64(b);
    }
}

fn get_pairs(r: &mut SnapshotReader<'_>, what: &str) -> Result<Vec<(f64, f64)>> {
    let n = r.len(16, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((r.f64(what)?, r.f64(what)?));
    }
    Ok(out)
}

// --- datasets -------------------------------------------------------------

const LABELS_CONTINUOUS: u8 = 1;
const LABELS_BINARY: u8 = 2;
const LABELS_MULTICLASS: u8 = 3;

/// Encodes typed labels.
pub fn put_labels(w: &mut SnapshotWriter, labels: &Labels) {
    match labels {
        Labels::Continuous(v) => {
            w.u8(LABELS_CONTINUOUS);
            put_vector(w, v);
        }
        Labels::Binary(v) => {
            w.u8(LABELS_BINARY);
            put_vector(w, v);
        }
        Labels::Multiclass {
            classes,
            num_classes,
        } => {
            w.u8(LABELS_MULTICLASS);
            w.usize(*num_classes);
            w.usize(classes.len());
            for &c in classes {
                w.u32(c);
            }
        }
    }
}

/// Decodes typed labels.
pub fn get_labels(r: &mut SnapshotReader<'_>, what: &str) -> Result<Labels> {
    match r.u8(what)? {
        LABELS_CONTINUOUS => Ok(Labels::Continuous(get_vector(r, what)?)),
        LABELS_BINARY => Ok(Labels::Binary(get_vector(r, what)?)),
        LABELS_MULTICLASS => {
            let num_classes = r.usize(what)?;
            let n = r.len(4, what)?;
            let mut classes = Vec::with_capacity(n);
            for _ in 0..n {
                classes.push(r.u32(what)?);
            }
            Ok(Labels::Multiclass {
                classes,
                num_classes,
            })
        }
        tag => Err(corrupt(&format!("{what}: bad labels tag {tag}"))),
    }
}

/// Encodes a dense dataset.
pub fn put_dense_dataset(w: &mut SnapshotWriter, d: &DenseDataset) {
    put_matrix(w, &d.x);
    put_labels(w, &d.labels);
}

/// Decodes a dense dataset.
pub fn get_dense_dataset(r: &mut SnapshotReader<'_>, what: &str) -> Result<DenseDataset> {
    let x = get_matrix(r, what)?;
    let labels = get_labels(r, what)?;
    if labels.len() != x.nrows() {
        return Err(corrupt(&format!("{what}: label/row count mismatch")));
    }
    Ok(DenseDataset::new(x, labels))
}

/// Encodes a CSR matrix.
pub fn put_csr(w: &mut SnapshotWriter, m: &CsrMatrix) {
    w.usize(m.nrows());
    w.usize(m.ncols());
    put_usize_slice(w, m.row_ptr());
    put_usize_slice(w, m.col_idx());
    w.usize(m.values().len());
    for &x in m.values() {
        w.f64(x);
    }
}

/// Decodes a CSR matrix, revalidating its structural invariants.
pub fn get_csr(r: &mut SnapshotReader<'_>, what: &str) -> Result<CsrMatrix> {
    let rows = r.usize(what)?;
    let cols = r.usize(what)?;
    let row_ptr = get_usize_vec(r, what)?;
    let col_idx = get_usize_vec(r, what)?;
    let n = r.len(8, what)?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(r.f64(what)?);
    }
    Ok(CsrMatrix::from_raw(rows, cols, row_ptr, col_idx, values)?)
}

/// Encodes a sparse dataset.
pub fn put_sparse_dataset(w: &mut SnapshotWriter, d: &SparseDataset) {
    put_csr(w, &d.x);
    put_labels(w, &d.labels);
}

/// Decodes a sparse dataset.
pub fn get_sparse_dataset(r: &mut SnapshotReader<'_>, what: &str) -> Result<SparseDataset> {
    let x = get_csr(r, what)?;
    let labels = get_labels(r, what)?;
    if labels.len() != x.nrows() {
        return Err(corrupt(&format!("{what}: label/row count mismatch")));
    }
    Ok(SparseDataset::new(x, labels))
}

// --- model / config -------------------------------------------------------

const KIND_LINEAR: u8 = 1;
const KIND_BINARY: u8 = 2;
const KIND_MULTINOMIAL: u8 = 3;

/// Encodes a model (kind + per-class weight vectors).
pub fn put_model(w: &mut SnapshotWriter, m: &Model) {
    match m.kind() {
        ModelKind::Linear => w.u8(KIND_LINEAR),
        ModelKind::BinaryLogistic => w.u8(KIND_BINARY),
        ModelKind::MultinomialLogistic { num_classes } => {
            w.u8(KIND_MULTINOMIAL);
            w.usize(num_classes);
        }
    }
    w.usize(m.weights().len());
    for v in m.weights() {
        put_vector(w, v);
    }
}

/// Decodes a model.
pub fn get_model(r: &mut SnapshotReader<'_>, what: &str) -> Result<Model> {
    let kind = match r.u8(what)? {
        KIND_LINEAR => ModelKind::Linear,
        KIND_BINARY => ModelKind::BinaryLogistic,
        KIND_MULTINOMIAL => ModelKind::MultinomialLogistic {
            num_classes: r.usize(what)?,
        },
        tag => return Err(corrupt(&format!("{what}: bad model kind tag {tag}"))),
    };
    let n = r.len(8, what)?;
    let mut weights = Vec::with_capacity(n);
    for _ in 0..n {
        weights.push(get_vector(r, what)?);
    }
    Model::new(kind, weights)
}

const COMPRESSION_NONE: u8 = 1;
const COMPRESSION_EXACT: u8 = 2;
const COMPRESSION_RANDOMIZED: u8 = 3;
const COMPRESSION_AUTO: u8 = 4;

/// Encodes a trainer configuration.
pub fn put_trainer_config(w: &mut SnapshotWriter, c: &TrainerConfig) {
    w.usize(c.hyper.batch_size);
    w.usize(c.hyper.num_iterations);
    w.f64(c.hyper.learning_rate);
    w.f64(c.hyper.regularization);
    w.u64(c.seed);
    match c.compression {
        Compression::None => w.u8(COMPRESSION_NONE),
        Compression::Exact { rank } => {
            w.u8(COMPRESSION_EXACT);
            w.usize(rank);
        }
        Compression::Randomized { rank, oversample } => {
            w.u8(COMPRESSION_RANDOMIZED);
            w.usize(rank);
            w.usize(oversample);
        }
        Compression::Auto => w.u8(COMPRESSION_AUTO),
    }
    w.f64(c.interpolation.half_range());
    w.usize(c.interpolation.num_intervals());
    w.f64(c.opt_capture_fraction);
    w.bool(c.capture_opt);
}

/// Decodes a trainer configuration. The interpolation grid is rebuilt from
/// `(half_range, num_intervals)` — its derived step is a pure function of
/// those, so the grid is bitwise identical to the encoded one.
pub fn get_trainer_config(r: &mut SnapshotReader<'_>, what: &str) -> Result<TrainerConfig> {
    let hyper = Hyperparameters {
        batch_size: r.usize(what)?,
        num_iterations: r.usize(what)?,
        learning_rate: r.f64(what)?,
        regularization: r.f64(what)?,
    };
    let seed = r.u64(what)?;
    let compression = match r.u8(what)? {
        COMPRESSION_NONE => Compression::None,
        COMPRESSION_EXACT => Compression::Exact {
            rank: r.usize(what)?,
        },
        COMPRESSION_RANDOMIZED => Compression::Randomized {
            rank: r.usize(what)?,
            oversample: r.usize(what)?,
        },
        COMPRESSION_AUTO => Compression::Auto,
        tag => return Err(corrupt(&format!("{what}: bad compression tag {tag}"))),
    };
    let half_range = r.f64(what)?;
    let num_intervals = r.usize(what)?;
    Ok(TrainerConfig {
        hyper,
        seed,
        compression,
        interpolation: PiecewiseLinearSigmoid::new(half_range, num_intervals),
        opt_capture_fraction: r.f64(what)?,
        capture_opt: r.bool(what)?,
    })
}

// --- schedules ------------------------------------------------------------

/// Encodes a mini-batch schedule (explicit batches included verbatim).
pub fn put_schedule(w: &mut SnapshotWriter, s: &BatchSchedule) {
    w.usize(s.num_samples());
    w.usize(s.batch_size());
    w.usize(s.num_iterations());
    w.u64(s.seed());
    match s.explicit_batches() {
        None => w.bool(false),
        Some(batches) => {
            w.bool(true);
            w.usize(batches.len());
            for b in batches {
                put_usize_slice(w, b);
            }
        }
    }
}

/// Decodes a mini-batch schedule.
pub fn get_schedule(r: &mut SnapshotReader<'_>, what: &str) -> Result<BatchSchedule> {
    let num_samples = r.usize(what)?;
    let batch_size = r.usize(what)?;
    let num_iterations = r.usize(what)?;
    let seed = r.u64(what)?;
    let explicit = if r.bool(what)? {
        let n = r.len(8, what)?;
        let mut batches = Vec::with_capacity(n);
        for _ in 0..n {
            batches.push(get_usize_vec(r, what)?);
        }
        Some(batches)
    } else {
        None
    };
    if num_samples == 0 || batch_size == 0 {
        return Err(corrupt(&format!("{what}: empty schedule")));
    }
    Ok(BatchSchedule::from_parts(
        num_samples,
        batch_size,
        num_iterations,
        seed,
        explicit,
    ))
}

// --- provenance caches ----------------------------------------------------

/// Legacy dense Gram cache: a full `m × m` matrix. No longer written; it
/// still decodes, packed to its upper triangle (exact, because the stored
/// matrices are mirrored), and an asymmetric payload is refused.
const GRAM_DENSE: u8 = 1;
const GRAM_TRUNCATED: u8 = 2;
const GRAM_DEFLATED: u8 = 3;
/// Dense Gram cache as its packed upper triangle (`m(m+1)/2` values).
const GRAM_PACKED: u8 = 4;

fn put_truncated(w: &mut SnapshotWriter, t: &TruncatedGram) {
    put_matrix(w, t.p());
    put_matrix(w, t.v());
}

fn get_truncated(r: &mut SnapshotReader<'_>, what: &str) -> Result<TruncatedGram> {
    let p = get_matrix(r, what)?;
    let v = get_matrix(r, what)?;
    Ok(TruncatedGram::from_parts(p, v)?)
}

fn get_packed(r: &mut SnapshotReader<'_>, what: &str) -> Result<PackedSymmetric> {
    let dim = r.usize(what)?;
    let total = dim
        .checked_add(1)
        .and_then(|d| d.checked_mul(dim))
        .map(|t| t / 2)
        .ok_or_else(|| corrupt(what))?;
    if total.checked_mul(8).ok_or_else(|| corrupt(what))? > r.remaining() {
        return Err(corrupt(&format!("{what}: packed gram larger than payload")));
    }
    let mut data = Vec::with_capacity(total);
    for _ in 0..total {
        data.push(r.f64(what)?);
    }
    Ok(PackedSymmetric::from_packed(dim, data)?)
}

/// Encodes a Gram-form cache.
pub fn put_gram_cache(w: &mut SnapshotWriter, g: &GramCache) {
    match g {
        GramCache::Dense(g) => {
            w.u8(GRAM_PACKED);
            w.usize(g.dim());
            for &x in g.as_slice() {
                w.f64(x);
            }
        }
        GramCache::Truncated(t) => {
            w.u8(GRAM_TRUNCATED);
            put_truncated(w, t);
        }
        GramCache::Deflated {
            base,
            rows,
            coefficients,
        } => {
            w.u8(GRAM_DEFLATED);
            put_truncated(w, base);
            put_matrix(w, rows);
            w.usize(coefficients.len());
            for &c in coefficients {
                w.f64(c);
            }
        }
    }
}

/// Decodes a Gram-form cache.
pub fn get_gram_cache(r: &mut SnapshotReader<'_>, what: &str) -> Result<GramCache> {
    match r.u8(what)? {
        GRAM_PACKED => Ok(GramCache::Dense(get_packed(r, what)?)),
        GRAM_DENSE => {
            let full = get_matrix(r, what)?;
            let packed = PackedSymmetric::from_symmetric(&full)
                .map_err(|e| corrupt(&format!("{what}: legacy dense gram cache: {e}")))?;
            Ok(GramCache::Dense(packed))
        }
        GRAM_TRUNCATED => Ok(GramCache::Truncated(get_truncated(r, what)?)),
        GRAM_DEFLATED => {
            let base = get_truncated(r, what)?;
            let rows = get_matrix(r, what)?;
            let n = r.len(8, what)?;
            let mut coefficients = Vec::with_capacity(n);
            for _ in 0..n {
                coefficients.push(r.f64(what)?);
            }
            if coefficients.len() != rows.nrows() {
                return Err(corrupt(&format!("{what}: deflation row/coeff mismatch")));
            }
            Ok(GramCache::Deflated {
                base,
                rows,
                coefficients,
            })
        }
        tag => Err(corrupt(&format!("{what}: bad gram cache tag {tag}"))),
    }
}

fn put_eigen(w: &mut SnapshotWriter, e: &SymmetricEigen) {
    put_vector(w, &e.values);
    put_matrix(w, &e.vectors);
}

fn get_eigen(r: &mut SnapshotReader<'_>, what: &str) -> Result<SymmetricEigen> {
    Ok(SymmetricEigen {
        values: get_vector(r, what)?,
        vectors: get_matrix(r, what)?,
    })
}

/// Encodes the full linear-regression provenance.
pub fn put_linear_provenance(w: &mut SnapshotWriter, p: &LinearProvenance) {
    put_schedule(w, &p.schedule);
    w.f64(p.learning_rate);
    w.f64(p.regularization);
    put_model(w, &p.initial_model);
    w.usize(p.iterations.len());
    for it in &p.iterations {
        put_gram_cache(w, &it.gram);
        put_vector(w, &it.xy);
        w.usize(it.batch_size);
    }
    match &p.opt {
        None => w.bool(false),
        Some(opt) => {
            w.bool(true);
            put_eigen(w, &opt.eigen);
            put_vector(w, &opt.xty);
        }
    }
}

/// Checks a decoded schedule against what it drives: the dataset's
/// `num_samples`, and one cached iteration per scheduled one whose batch
/// size (`batch_sizes`, in iteration order) is its batch's length. Once
/// this passes, the payload's cache count bounds `num_iterations`, so a
/// seed-derived schedule's batch table is filled here and restored
/// sessions replay from it.
fn check_schedule(
    schedule: &BatchSchedule,
    num_samples: usize,
    batch_sizes: impl ExactSizeIterator<Item = usize>,
    what: &str,
) -> Result<()> {
    if schedule.num_samples() != num_samples {
        return Err(corrupt(&format!(
            "{what}: schedule draws from {} samples, the dataset holds {num_samples}",
            schedule.num_samples()
        )));
    }
    if batch_sizes.len() != schedule.num_iterations() {
        return Err(corrupt(&format!(
            "{what}: {} cached iterations for a schedule of {}",
            batch_sizes.len(),
            schedule.num_iterations()
        )));
    }
    match schedule.explicit_batches() {
        Some(batches) => {
            if batches.len() != schedule.num_iterations() {
                return Err(corrupt(&format!(
                    "{what}: {} explicit batches for a schedule of {} iterations",
                    batches.len(),
                    schedule.num_iterations()
                )));
            }
            for (t, (batch, size)) in batches.iter().zip(batch_sizes).enumerate() {
                if batch.len() != size || batch.iter().any(|&i| i >= num_samples) {
                    return Err(corrupt(&format!(
                        "{what}: batch {t} disagrees with its cache or the dataset"
                    )));
                }
            }
        }
        None => {
            let len = schedule.batch_size();
            if len > num_samples {
                return Err(corrupt(&format!(
                    "{what}: batches of {len} from {num_samples} samples"
                )));
            }
            for (t, size) in batch_sizes.enumerate() {
                if size != len {
                    return Err(corrupt(&format!(
                        "{what}: iteration {t} caches a batch of {size}, the schedule draws {len}"
                    )));
                }
            }
        }
    }
    schedule.fill_table();
    Ok(())
}

/// Checks that a decoded Gram cache and its vector act on `m` features.
fn check_features(gram: &GramCache, vector: &Vector, m: usize, what: &str) -> Result<()> {
    if gram.dim() != m || vector.len() != m {
        return Err(corrupt(&format!(
            "{what}: a {}-dimensional cache for {m} features",
            gram.dim()
        )));
    }
    Ok(())
}

/// Decodes the full linear-regression provenance of a dataset with
/// `num_samples` rows and `num_features` columns, checking that every
/// cache matches both and the schedule ([`CoreError::Snapshot`] otherwise).
pub fn get_linear_provenance(
    r: &mut SnapshotReader<'_>,
    what: &str,
    (num_samples, num_features): (usize, usize),
) -> Result<LinearProvenance> {
    let schedule = get_schedule(r, what)?;
    let learning_rate = r.f64(what)?;
    let regularization = r.f64(what)?;
    let initial_model = get_model(r, what)?;
    let n = r.len(1, what)?;
    let mut iterations = Vec::with_capacity(n);
    for _ in 0..n {
        iterations.push(LinearIterationCache {
            gram: get_gram_cache(r, what)?,
            xy: get_vector(r, what)?,
            batch_size: r.usize(what)?,
        });
    }
    let opt = if r.bool(what)? {
        Some(LinearOptCapture {
            eigen: get_eigen(r, what)?,
            xty: get_vector(r, what)?,
        })
    } else {
        None
    };
    for it in &iterations {
        check_features(&it.gram, &it.xy, num_features, what)?;
    }
    check_schedule(
        &schedule,
        num_samples,
        iterations.iter().map(|it| it.batch_size),
        what,
    )?;
    Ok(LinearProvenance {
        schedule,
        learning_rate,
        regularization,
        initial_model,
        iterations,
        opt,
    })
}

/// Encodes the full logistic-regression provenance.
pub fn put_logistic_provenance(w: &mut SnapshotWriter, p: &LogisticProvenance) {
    put_schedule(w, &p.schedule);
    w.f64(p.learning_rate);
    w.f64(p.regularization);
    put_model(w, &p.initial_model);
    w.usize(p.iterations.len());
    for it in &p.iterations {
        w.usize(it.classes.len());
        for c in &it.classes {
            put_gram_cache(w, &c.gram);
            put_vector(w, &c.d);
            put_pairs(w, &c.coefficients);
        }
        w.usize(it.batch_size);
    }
    match &p.opt {
        None => w.bool(false),
        Some(opt) => {
            w.bool(true);
            w.usize(opt.switch_iteration);
            put_model(w, &opt.model_at_switch);
            w.usize(opt.classes.len());
            for c in &opt.classes {
                put_eigen(w, &c.eigen);
                put_vector(w, &c.d_star);
                put_pairs(w, &c.coefficients);
            }
        }
    }
}

/// Decodes the full logistic-regression provenance of a dataset with
/// `num_samples` rows and `num_features` columns, with the checks of
/// [`get_linear_provenance`] plus one coefficient pair per batch member.
pub fn get_logistic_provenance(
    r: &mut SnapshotReader<'_>,
    what: &str,
    (num_samples, num_features): (usize, usize),
) -> Result<LogisticProvenance> {
    let schedule = get_schedule(r, what)?;
    let learning_rate = r.f64(what)?;
    let regularization = r.f64(what)?;
    let initial_model = get_model(r, what)?;
    let n = r.len(1, what)?;
    let mut iterations = Vec::with_capacity(n);
    for _ in 0..n {
        let num_classes = r.len(1, what)?;
        let mut classes = Vec::with_capacity(num_classes);
        for _ in 0..num_classes {
            classes.push(ClassIterationCache {
                gram: get_gram_cache(r, what)?,
                d: get_vector(r, what)?,
                coefficients: get_pairs(r, what)?,
            });
        }
        iterations.push(LogisticIterationCache {
            classes,
            batch_size: r.usize(what)?,
        });
    }
    let opt = if r.bool(what)? {
        let switch_iteration = r.usize(what)?;
        let model_at_switch = get_model(r, what)?;
        let num_classes = r.len(1, what)?;
        let mut classes = Vec::with_capacity(num_classes);
        for _ in 0..num_classes {
            classes.push(LogisticOptClassCapture {
                eigen: get_eigen(r, what)?,
                d_star: get_vector(r, what)?,
                coefficients: get_pairs(r, what)?,
            });
        }
        Some(LogisticOptCapture {
            switch_iteration,
            model_at_switch,
            classes,
        })
    } else {
        None
    };
    for it in &iterations {
        for class in &it.classes {
            check_features(&class.gram, &class.d, num_features, what)?;
            if class.coefficients.len() != it.batch_size {
                return Err(corrupt(&format!(
                    "{what}: {} coefficients for a batch of {}",
                    class.coefficients.len(),
                    it.batch_size
                )));
            }
        }
    }
    check_schedule(
        &schedule,
        num_samples,
        iterations.iter().map(|it| it.batch_size),
        what,
    )?;
    Ok(LogisticProvenance {
        schedule,
        learning_rate,
        regularization,
        initial_model,
        iterations,
        opt,
    })
}

/// Encodes the sparse-logistic provenance (schedule + per-iteration
/// coefficient lists; the sparse path keeps no Gram caches).
pub fn put_sparse_provenance(w: &mut SnapshotWriter, p: &SparseLogisticProvenance) {
    put_schedule(w, &p.schedule);
    w.f64(p.learning_rate);
    w.f64(p.regularization);
    put_model(w, &p.initial_model);
    w.usize(p.coefficients.len());
    for per_iter in &p.coefficients {
        put_pairs(w, per_iter);
    }
}

/// Decodes the sparse-logistic provenance of a dataset with `num_samples`
/// rows, checking one coefficient pair per member of every scheduled batch.
pub fn get_sparse_provenance(
    r: &mut SnapshotReader<'_>,
    what: &str,
    num_samples: usize,
) -> Result<SparseLogisticProvenance> {
    let schedule = get_schedule(r, what)?;
    let learning_rate = r.f64(what)?;
    let regularization = r.f64(what)?;
    let initial_model = get_model(r, what)?;
    let n = r.len(1, what)?;
    let mut coefficients = Vec::with_capacity(n);
    for _ in 0..n {
        coefficients.push(get_pairs(r, what)?);
    }
    check_schedule(
        &schedule,
        num_samples,
        coefficients.iter().map(Vec::len),
        what,
    )?;
    Ok(SparseLogisticProvenance {
        schedule,
        learning_rate,
        regularization,
        initial_model,
        coefficients,
    })
}

/// Encodes the closed-form normal-equation views.
pub fn put_closed_form(w: &mut SnapshotWriter, c: &ClosedFormCapture) {
    put_matrix(w, &c.xtx);
    put_vector(w, &c.xty);
    w.usize(c.num_samples);
    w.f64(c.regularization);
}

/// Decodes the closed-form normal-equation views.
pub fn get_closed_form(r: &mut SnapshotReader<'_>, what: &str) -> Result<ClosedFormCapture> {
    Ok(ClosedFormCapture {
        xtx: get_matrix(r, what)?,
        xty: get_vector(r, what)?,
        num_samples: r.usize(what)?,
        regularization: r.f64(what)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_bitwise() {
        let mut w = SnapshotWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        put_vector(&mut w, &Vector::from_vec(vec![1.5, -2.25, 1e-308]));
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.u8("t").unwrap(), 7);
        assert_eq!(r.u32("t").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("t").unwrap(), u64::MAX - 3);
        assert_eq!(r.f64("t").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64("t").unwrap().to_bits(), f64::NAN.to_bits());
        assert!(r.bool("t").unwrap());
        let v = get_vector(&mut r, "t").unwrap();
        assert_eq!(v.as_slice(), &[1.5, -2.25, 1e-308]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_bad_tags_are_typed_errors() {
        let mut w = SnapshotWriter::new();
        put_vector(&mut w, &Vector::from_vec(vec![1.0, 2.0]));
        let bytes = w.into_bytes();
        // Every truncation offset fails cleanly, never panics.
        for cut in 0..bytes.len() {
            let mut r = SnapshotReader::new(&bytes[..cut]);
            assert!(matches!(
                get_vector(&mut r, "vec"),
                Err(CoreError::Snapshot(_))
            ));
        }
        // A lying length prefix is rejected before allocation.
        let mut w = SnapshotWriter::new();
        w.u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert!(get_vector(&mut r, "vec").is_err());
        // Unknown enum tags decode to errors.
        let mut r = SnapshotReader::new(&[9u8]);
        assert!(get_labels(&mut r, "labels").is_err());
    }

    fn gram_bytes(g: &GramCache) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        put_gram_cache(&mut w, g);
        w.into_bytes()
    }

    fn decode_gram(bytes: &[u8]) -> Result<GramCache> {
        let mut r = SnapshotReader::new(bytes);
        let g = get_gram_cache(&mut r, "gram")?;
        r.finish()?;
        Ok(g)
    }

    fn sample_rows() -> Matrix {
        Matrix::from_fn(7, 5, |i, j| ((i * 3 + j * 5) % 7) as f64 * 0.37 - 1.1)
    }

    #[test]
    fn packed_gram_cache_round_trips_bitwise() {
        let rows = sample_rows();
        let cache = GramCache::build(&rows, &[0.5; 7], Compression::None).unwrap();
        let bytes = gram_bytes(&cache);
        assert_eq!(bytes[0], GRAM_PACKED);
        // Tag, dimension, then the m(m+1)/2 packed values.
        assert_eq!(bytes.len(), 1 + 8 + 15 * 8);
        let back = decode_gram(&bytes).unwrap();
        assert!(matches!(back, GramCache::Dense(_)));
        assert_eq!(gram_bytes(&back), bytes);
        // Every truncation is a typed error.
        for cut in 0..bytes.len() {
            assert!(matches!(
                decode_gram(&bytes[..cut]),
                Err(CoreError::Snapshot(_))
            ));
        }
    }

    #[test]
    fn legacy_dense_gram_payload_decodes_to_the_packed_cache() {
        // The pre-packing encoding: GRAM_DENSE + the full mirrored matrix.
        let rows = sample_rows();
        let coefficients = [1.0, -0.5, 2.0, 0.25, 1.5, -1.0, 0.75];
        let full = rows.weighted_gram(Some(&coefficients));
        let mut w = SnapshotWriter::new();
        w.u8(GRAM_DENSE);
        put_matrix(&mut w, &full);
        let legacy = w.into_bytes();

        let cache = GramCache::build(&rows, &coefficients, Compression::None).unwrap();
        let decoded = decode_gram(&legacy).unwrap();
        assert_eq!(gram_bytes(&decoded), gram_bytes(&cache));

        // An asymmetric legacy matrix cannot be packed without loss: refused.
        let mut skewed = full.clone();
        skewed[(4, 1)] += 1e-9;
        let mut w = SnapshotWriter::new();
        w.u8(GRAM_DENSE);
        put_matrix(&mut w, &skewed);
        let err = decode_gram(&w.into_bytes()).unwrap_err();
        assert!(
            matches!(&err, CoreError::Snapshot(msg) if msg.contains("not exactly symmetric")),
            "{err:?}"
        );
        // So is a non-square one.
        let mut w = SnapshotWriter::new();
        w.u8(GRAM_DENSE);
        put_matrix(&mut w, &Matrix::zeros(2, 3));
        assert!(matches!(
            decode_gram(&w.into_bytes()),
            Err(CoreError::Snapshot(_))
        ));
    }

    #[test]
    fn packed_gram_with_a_lying_dimension_is_refused_before_allocating() {
        let mut w = SnapshotWriter::new();
        w.u8(GRAM_PACKED);
        w.u64(u64::MAX);
        assert!(matches!(
            decode_gram(&w.into_bytes()),
            Err(CoreError::Snapshot(_))
        ));
        let mut w = SnapshotWriter::new();
        w.u8(GRAM_PACKED);
        w.u64(1 << 20);
        assert!(matches!(
            decode_gram(&w.into_bytes()),
            Err(CoreError::Snapshot(_))
        ));
    }

    #[test]
    fn schedule_round_trips_with_and_without_explicit_batches() {
        let tabled = BatchSchedule::new(10, 4, 6, 42);
        tabled.fill_table();
        for schedule in [
            BatchSchedule::new(10, 4, 6, 42),
            BatchSchedule::new(10, 4, 6, 42).restrict(&[1, 5]),
            tabled,
        ] {
            let mut w = SnapshotWriter::new();
            put_schedule(&mut w, &schedule);
            let bytes = w.into_bytes();
            // The batch table is a cache of (seed, t): never encoded.
            let mut plain = SnapshotWriter::new();
            put_schedule(
                &mut plain,
                &BatchSchedule::from_parts(
                    schedule.num_samples(),
                    schedule.batch_size(),
                    schedule.num_iterations(),
                    schedule.seed(),
                    schedule.explicit_batches().map(<[Vec<usize>]>::to_vec),
                ),
            );
            assert_eq!(bytes, plain.into_bytes());
            let mut r = SnapshotReader::new(&bytes);
            let back = get_schedule(&mut r, "schedule").unwrap();
            r.finish().unwrap();
            assert_eq!(back, schedule);
        }
    }

    /// A small trained linear session's dataset and provenance.
    fn linear_session() -> (DenseDataset, LinearProvenance) {
        use crate::trainer::linear::train_linear;
        use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
        let data = generate_regression(&RegressionConfig {
            num_samples: 120,
            num_features: 5,
            noise_std: 0.1,
            seed: 5,
            ..Default::default()
        });
        let config = TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 20,
            num_iterations: 10,
            learning_rate: 0.05,
            regularization: 0.01,
        })
        .with_seed(3);
        let provenance = train_linear(&data, &config).unwrap().provenance;
        (data, provenance)
    }

    fn linear_bytes(p: &LinearProvenance) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        put_linear_provenance(&mut w, p);
        w.into_bytes()
    }

    fn decode_linear(bytes: &[u8], shape: (usize, usize)) -> Result<LinearProvenance> {
        get_linear_provenance(&mut SnapshotReader::new(bytes), "linear provenance", shape)
    }

    #[test]
    fn decoded_linear_provenance_must_agree_with_its_schedule_and_dataset() {
        use crate::update::priu_linear::priu_update_linear;
        let (data, provenance) = linear_session();
        let shape = (data.num_samples(), data.num_features());
        let snapshot_error = |r: Result<LinearProvenance>| matches!(r, Err(CoreError::Snapshot(_)));

        // More scheduled iterations than caches: refused at decode (the
        // replay used to panic with "iteration 10 out of range").
        let mut longer = provenance.clone();
        longer.schedule = BatchSchedule::new(120, 20, 11, 3);
        assert!(snapshot_error(decode_linear(&linear_bytes(&longer), shape)));
        let mut shorter = provenance.clone();
        shorter.iterations.pop();
        assert!(snapshot_error(decode_linear(
            &linear_bytes(&shorter),
            shape
        )));

        // The schedule, every Gram and every moment vector must match the
        // dataset the session decodes with.
        let bytes = linear_bytes(&provenance);
        assert!(snapshot_error(decode_linear(&bytes, (121, 5))));
        assert!(snapshot_error(decode_linear(&bytes, (120, 6))));
        let mut short_xy = provenance.clone();
        short_xy.iterations[4].xy = Vector::zeros(4);
        assert!(snapshot_error(decode_linear(
            &linear_bytes(&short_xy),
            shape
        )));

        // A cached batch size must be its batch's length, on seed-derived
        // and explicit schedules alike.
        let mut wrong_size = provenance.clone();
        wrong_size.iterations[2].batch_size = 19;
        assert!(snapshot_error(decode_linear(
            &linear_bytes(&wrong_size),
            shape
        )));
        let mut explicit = provenance.clone();
        let mut batches: Vec<Vec<usize>> = (0..10).map(|t| provenance.schedule.batch(t)).collect();
        explicit.schedule = BatchSchedule::from_parts(120, 20, 10, 3, Some(batches.clone()));
        assert!(decode_linear(&linear_bytes(&explicit), shape).is_ok());
        batches[7].pop();
        explicit.schedule = BatchSchedule::from_parts(120, 20, 10, 3, Some(batches.clone()));
        assert!(snapshot_error(decode_linear(
            &linear_bytes(&explicit),
            shape
        )));
        batches.pop();
        explicit.schedule = BatchSchedule::from_parts(120, 20, 10, 3, Some(batches));
        assert!(snapshot_error(decode_linear(
            &linear_bytes(&explicit),
            shape
        )));

        // A consistent payload restores with its batch table filled and
        // replays bitwise like the live session.
        let back = decode_linear(&bytes, shape).unwrap();
        assert!(back.schedule.table_filled());
        let removed = [3usize, 40, 77];
        assert_eq!(
            priu_update_linear(&data, &back, &removed).unwrap(),
            priu_update_linear(&data, &provenance, &removed).unwrap()
        );
    }

    #[test]
    fn decoded_logistic_and_sparse_provenance_must_agree_with_their_schedules() {
        use crate::trainer::logistic::train_binary_logistic;
        use crate::trainer::sparse::train_sparse_binary_logistic;
        use priu_data::synthetic::classification::{
            generate_binary_classification, ClassificationConfig,
        };
        use priu_data::synthetic::sparse_text::{generate_sparse_binary, SparseConfig};
        let config = TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 20,
            num_iterations: 8,
            learning_rate: 0.3,
            regularization: 0.01,
        })
        .with_seed(4);

        let data = generate_binary_classification(&ClassificationConfig {
            num_samples: 100,
            num_features: 4,
            seed: 6,
            ..Default::default()
        });
        let shape = (data.num_samples(), data.num_features());
        let provenance = train_binary_logistic(&data, &config).unwrap().provenance;
        let decode = |p: &LogisticProvenance, shape| {
            let mut w = SnapshotWriter::new();
            put_logistic_provenance(&mut w, p);
            let bytes = w.into_bytes();
            get_logistic_provenance(&mut SnapshotReader::new(&bytes), "logistic", shape)
        };
        let back = decode(&provenance, shape).unwrap();
        assert!(back.schedule.table_filled());
        let mut longer = provenance.clone();
        longer.schedule = BatchSchedule::new(100, 20, 9, 4);
        assert!(matches!(
            decode(&longer, shape),
            Err(CoreError::Snapshot(_))
        ));
        assert!(matches!(
            decode(&provenance, (100, 5)),
            Err(CoreError::Snapshot(_))
        ));
        let mut short_coefficients = provenance.clone();
        short_coefficients.iterations[3].classes[0]
            .coefficients
            .pop();
        assert!(matches!(
            decode(&short_coefficients, shape),
            Err(CoreError::Snapshot(_))
        ));

        let data = generate_sparse_binary(&SparseConfig {
            num_samples: 100,
            num_features: 50,
            nnz_per_row: 5,
            informative_fraction: 0.2,
            seed: 7,
        });
        let provenance = train_sparse_binary_logistic(&data, &config)
            .unwrap()
            .provenance;
        let decode = |p: &SparseLogisticProvenance, n| {
            let mut w = SnapshotWriter::new();
            put_sparse_provenance(&mut w, p);
            let bytes = w.into_bytes();
            get_sparse_provenance(&mut SnapshotReader::new(&bytes), "sparse", n)
        };
        assert!(decode(&provenance, 100).unwrap().schedule.table_filled());
        assert!(matches!(
            decode(&provenance, 99),
            Err(CoreError::Snapshot(_))
        ));
        let mut shorter = provenance.clone();
        shorter.coefficients.pop();
        assert!(matches!(decode(&shorter, 100), Err(CoreError::Snapshot(_))));
        let mut short_batch = provenance;
        short_batch.coefficients[2].pop();
        assert!(matches!(
            decode(&short_batch, 100),
            Err(CoreError::Snapshot(_))
        ));
    }
}
