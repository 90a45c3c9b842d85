//! Matrix norms and conditioning probes.
//!
//! The Newton–Schulz seed constraint of the paper (Eq. 3) is
//! `||I - A·V0||_2 < 1`; these helpers let callers evaluate that constraint
//! (exactly for small matrices via power iteration, or cheaply via the
//! Frobenius upper bound).

use crate::dense::Dense;
use crate::{Matrix, Scalar};

/// Frobenius norm `sqrt(sum a_ij^2)`, computed in `f64`.
///
/// # Example
///
/// ```
/// use kalmmind_linalg::{Matrix, norms};
/// let a = Matrix::from_rows(&[&[3.0_f64, 0.0], &[0.0, 4.0]]).unwrap();
/// assert!((norms::frobenius(&a) - 5.0).abs() < 1e-12);
/// ```
pub fn frobenius<T: Scalar>(a: &Matrix<T>) -> f64 {
    a.iter()
        .map(|x| x.to_f64() * x.to_f64())
        .sum::<f64>()
        .sqrt()
}

/// Infinity norm (maximum absolute row sum), computed in `f64`.
pub fn inf_norm<T: Scalar>(a: &Matrix<T>) -> f64 {
    Dense::inf_norm(a)
}

/// One norm (maximum absolute column sum), computed in `f64`.
pub fn one_norm<T: Scalar>(a: &Matrix<T>) -> f64 {
    Dense::one_norm(a)
}

/// Largest absolute element.
pub fn max_abs<T: Scalar>(a: &Matrix<T>) -> f64 {
    a.iter().map(|x| x.to_f64().abs()).fold(0.0, f64::max)
}

/// Estimate of the spectral norm `||A||_2` by power iteration on `A^T A`.
///
/// Runs `iters` iterations (30 is plenty for the small, well-separated
/// matrices in the KF); returns 0 for an all-zero matrix.
pub fn spectral_estimate<T: Scalar>(a: &Matrix<T>, iters: usize) -> f64 {
    let (rows, cols) = a.shape();
    if rows == 0 || cols == 0 {
        return 0.0;
    }
    // Work in f64 regardless of T: this is an analysis probe, not a datapath op.
    let af: Matrix<f64> = a.cast();
    let at = af.transpose();
    let mut v = vec![1.0_f64; cols];
    let mut lambda = 0.0_f64;
    for _ in 0..iters {
        // w = A^T (A v)
        let av: Vec<f64> = (0..rows)
            .map(|r| af.row(r).iter().zip(&v).map(|(a, b)| a * b).sum())
            .collect();
        let w: Vec<f64> = (0..cols)
            .map(|c| at.row(c).iter().zip(&av).map(|(a, b)| a * b).sum())
            .collect();
        let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm == 0.0 {
            return 0.0;
        }
        lambda = norm;
        for (vi, wi) in v.iter_mut().zip(&w) {
            *vi = wi / norm;
        }
    }
    lambda.sqrt()
}

/// Residual `||I - A·V||_F` of a candidate inverse `V` of `A`.
///
/// The Frobenius norm upper-bounds the spectral norm, so a value `< 1`
/// certifies the Newton–Schulz convergence condition of the paper's Eq. 3.
///
/// Returns `f64::INFINITY` on shape mismatch or non-square input.
pub fn inverse_residual<T: Scalar>(a: &Matrix<T>, v: &Matrix<T>) -> f64 {
    match residual_matrix(a, v) {
        Some(m) => frobenius(&m),
        None => f64::INFINITY,
    }
}

/// Spectral-norm residual `||I - A·V||_2` (estimated by power iteration).
///
/// This is the exact quantity in the paper's Eq. 3 seed constraint; it is
/// tighter than [`inverse_residual`] by up to a factor of `sqrt(n)`.
///
/// Returns `f64::INFINITY` on shape mismatch or non-square input.
pub fn spectral_residual<T: Scalar>(a: &Matrix<T>, v: &Matrix<T>) -> f64 {
    match residual_matrix(a, v) {
        Some(m) => spectral_estimate(&m, 60),
        None => f64::INFINITY,
    }
}

/// Two-norm condition number estimate `κ₂(A) ≈ ‖A‖₂·‖A⁻¹‖₂` by power
/// iteration on both factors.
///
/// The condition of the innovation covariance `S` bounds the accuracy any
/// fixed-precision datapath can reach: an fp32 Gauss inversion leaves a
/// relative residual of roughly `n·ε₃₂·κ₂(S)`, and the Newton seed policies
/// stay convergent only while that residual (plus the drift term) is below
/// one. Use this probe when choosing between the FP32/FX32/FX64 datapaths
/// for a new dataset.
///
/// # Errors
///
/// Propagates the inversion failure when `a` is singular.
pub fn condition_estimate<T: Scalar>(a: &Matrix<T>) -> crate::Result<f64> {
    let inv = crate::decomp::lu::invert(a)?;
    Ok(spectral_estimate(a, 60) * spectral_estimate(&inv, 60))
}

fn residual_matrix<T: Scalar>(a: &Matrix<T>, v: &Matrix<T>) -> Option<Matrix<T>> {
    if !a.is_square() || a.shape() != v.shape() {
        return None;
    }
    let av = a.checked_mul(v).ok()?;
    let id = Matrix::<T>::identity(a.rows());
    id.checked_sub(&av).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix<f64> {
        Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]).unwrap()
    }

    #[test]
    fn frobenius_hand_check() {
        assert!((frobenius(&sample()) - 30.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn inf_and_one_norms() {
        let a = sample();
        assert_eq!(inf_norm(&a), 7.0); // row 1: |3| + |4|
        assert_eq!(one_norm(&a), 6.0); // col 1: |-2| + |4|
        assert_eq!(max_abs(&a), 4.0);
    }

    #[test]
    fn spectral_of_diagonal_is_max_entry() {
        let d = Matrix::from_diagonal(&[1.0_f64, 5.0, 3.0]);
        let s = spectral_estimate(&d, 50);
        assert!((s - 5.0).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn spectral_of_zero_matrix_is_zero() {
        assert_eq!(spectral_estimate(&Matrix::<f64>::zeros(3, 3), 10), 0.0);
    }

    #[test]
    fn spectral_bounded_by_frobenius() {
        let a = sample();
        assert!(spectral_estimate(&a, 50) <= frobenius(&a) + 1e-9);
    }

    #[test]
    fn inverse_residual_of_exact_inverse_is_tiny() {
        // A = [[2, 0], [0, 4]], V = [[0.5, 0], [0, 0.25]]
        let a = Matrix::from_diagonal(&[2.0_f64, 4.0]);
        let v = Matrix::from_diagonal(&[0.5_f64, 0.25]);
        assert!(inverse_residual(&a, &v) < 1e-15);
    }

    #[test]
    fn condition_of_identity_is_one() {
        let k = condition_estimate(&Matrix::<f64>::identity(5)).unwrap();
        assert!((k - 1.0).abs() < 1e-9, "got {k}");
    }

    #[test]
    fn condition_of_diagonal_is_ratio_of_extremes() {
        let d = Matrix::from_diagonal(&[10.0_f64, 1.0, 0.1]);
        let k = condition_estimate(&d).unwrap();
        assert!((k - 100.0).abs() < 1e-6, "got {k}");
    }

    #[test]
    fn condition_rejects_singular() {
        let s = Matrix::from_rows(&[&[1.0_f64, 1.0], &[1.0, 1.0]]).unwrap();
        assert!(condition_estimate(&s).is_err());
    }

    #[test]
    fn near_singular_matrices_have_large_condition() {
        let mut a = Matrix::<f64>::identity(3);
        a[(2, 2)] = 1e-8;
        let k = condition_estimate(&a).unwrap();
        assert!(k > 1e7, "got {k}");
    }

    #[test]
    fn inverse_residual_shape_mismatch_is_infinite() {
        let a = Matrix::<f64>::identity(2);
        let v = Matrix::<f64>::identity(3);
        assert_eq!(inverse_residual(&a, &v), f64::INFINITY);
        let rect = Matrix::<f64>::zeros(2, 3);
        assert_eq!(inverse_residual(&rect, &rect), f64::INFINITY);
    }
}
