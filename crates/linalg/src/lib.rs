//! Dense linear-algebra kernels for the KalmMind reproduction.
//!
//! This crate provides the numerical substrate used by every other crate in
//! the workspace: a row-major dense [`Matrix`] and [`Vector`] generic over a
//! [`Scalar`] trait (so the same kernels run in `f32`, `f64`, and the
//! fixed-point types of `kalmmind-fixed`), plus the matrix-inversion methods
//! evaluated in the paper:
//!
//! * **Calculation** (exact) methods — [`decomp::gauss`] (Gauss–Jordan with
//!   partial pivoting), [`decomp::lu`] (the NumPy-style reference path),
//!   [`decomp::cholesky`], and [`decomp::qr`] (Householder).
//! * **Approximation** — the Newton–Schulz iteration in [`iterative`], the
//!   core of the KalmMind tunable-accuracy technique.
//!
//! # Example
//!
//! ```
//! use kalmmind_linalg::{Matrix, decomp::gauss};
//!
//! # fn main() -> Result<(), kalmmind_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0_f64, 1.0], &[1.0, 3.0]])?;
//! let inv = gauss::invert(&a)?;
//! let id = &a * &inv;
//! assert!(id.approx_eq(&Matrix::identity(2), 1e-12));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod matrix;
mod scalar;
mod vector;

pub mod bits;
pub mod decomp;
pub mod dense;
pub mod iterative;
pub mod norms;
pub mod small;

pub use error::LinalgError;
pub use matrix::Matrix;
pub use scalar::Scalar;
pub use vector::Vector;

/// Convenience result alias used across the crate.
pub type Result<T, E = LinalgError> = std::result::Result<T, E>;
