//! Dense row-major matrices and vectors plus their decompositions.

pub mod decomposition;
pub mod matrix;
pub mod ops;
pub mod packed;
pub mod vector;

pub use matrix::Matrix;
pub use packed::{PackedSymmetric, SymvChunks};
pub use vector::{axpy_slices, scale_add_slices, Vector};
