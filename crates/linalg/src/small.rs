//! Stack-allocated const-generic matrices: the monomorphized storage layout.
//!
//! [`SmallMatrix`] and [`SmallVector`] carry their dimensions in the type.
//! They are a second *layout* of the same row-major data as [`Matrix`] and
//! [`Vector`], not a second set of kernels: their operations are the
//! [`Dense`] kernels, whose one loop body runs here with the const
//! dimensions as trip counts and with every shape check comparing
//! constants — so there is no runtime check or heap indirection, and the
//! results are the dynamic kernels' bits by construction.
//!
//! # Example
//!
//! ```
//! use kalmmind_linalg::dense::Dense;
//! use kalmmind_linalg::small::{SmallMatrix, SmallVector};
//!
//! let a = SmallMatrix::<f64, 2, 2>::from_rows([[1.0, 2.0], [3.0, 4.0]]);
//! let v = SmallVector::from_array([1.0, 1.0]);
//! let mut out = SmallVector::<f64, 2>::zeros();
//! a.mul_vector_into(&v, &mut out).unwrap();
//! assert_eq!(out.as_slice(), &[3.0, 7.0]);
//! ```

use std::ops::{Index, IndexMut};

use crate::dense::Dense;
use crate::{Matrix, Scalar, Vector};

/// Fixed-length column vector with its dimension in the type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmallVector<T, const N: usize> {
    data: [T; N],
}

impl<T: Scalar, const N: usize> SmallVector<T, N> {
    /// Creates a zero vector.
    pub fn zeros() -> Self {
        Self { data: [T::ZERO; N] }
    }

    /// Wraps an owned array.
    pub fn from_array(data: [T; N]) -> Self {
        Self { data }
    }

    /// Converts to a dynamic [`Vector`] (exact element copy, no arithmetic).
    pub fn to_vector(&self) -> Vector<T> {
        Vector::from_slice(&self.data)
    }
}

impl<T: Scalar, const N: usize> Dense<T> for SmallVector<T, N> {
    fn shape(&self) -> (usize, usize) {
        (N, 1)
    }

    fn as_slice(&self) -> &[T] {
        &self.data
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    fn zeroed(_rows: usize, _cols: usize) -> Self {
        Self::zeros()
    }
}

impl<T, const N: usize> Index<usize> for SmallVector<T, N> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.data[i]
    }
}

impl<T, const N: usize> IndexMut<usize> for SmallVector<T, N> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }
}

/// Row-major dense matrix with both dimensions in the type.
///
/// Storage is `[[T; C]; R]` — the same row-major element order as the
/// dynamic [`Matrix`], so conversions between the two are plain element
/// copies with no reordering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmallMatrix<T, const R: usize, const C: usize> {
    data: [[T; C]; R],
}

impl<T: Scalar, const R: usize, const C: usize> SmallMatrix<T, R, C> {
    /// Creates a zero matrix.
    pub fn zeros() -> Self {
        Self {
            data: [[T::ZERO; C]; R],
        }
    }

    /// Wraps owned row-major data.
    pub fn from_rows(data: [[T; C]; R]) -> Self {
        Self { data }
    }

    /// Converts to a dynamic [`Matrix`] (exact element copy, no arithmetic).
    pub fn to_matrix(&self) -> Matrix<T> {
        Matrix::from_fn(R, C, |r, c| self.data[r][c])
    }
}

impl<T: Scalar, const N: usize> SmallMatrix<T, N, N> {
    /// The identity matrix.
    pub fn identity() -> Self {
        let mut m = Self::zeros();
        for i in 0..N {
            m.data[i][i] = T::ONE;
        }
        m
    }
}

impl<T: Scalar, const R: usize, const C: usize> Dense<T> for SmallMatrix<T, R, C> {
    fn shape(&self) -> (usize, usize) {
        (R, C)
    }

    fn as_slice(&self) -> &[T] {
        self.data.as_flattened()
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        self.data.as_flattened_mut()
    }

    fn zeroed(_rows: usize, _cols: usize) -> Self {
        Self::zeros()
    }
}

impl<T, const R: usize, const C: usize> Index<(usize, usize)> for SmallMatrix<T, R, C> {
    type Output = T;

    fn index(&self, (r, c): (usize, usize)) -> &T {
        &self.data[r][c]
    }
}

impl<T, const R: usize, const C: usize> IndexMut<(usize, usize)> for SmallMatrix<T, R, C> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        &mut self.data[r][c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dense, iterative, norms, LinalgError};

    fn dyn_of<const R: usize, const C: usize>(m: &SmallMatrix<f64, R, C>) -> Matrix<f64> {
        m.to_matrix()
    }

    fn sm3(seed: f64) -> SmallMatrix<f64, 3, 3> {
        let mut m = SmallMatrix::zeros();
        for r in 0..3 {
            for c in 0..3 {
                m[(r, c)] = if r == c {
                    5.0 + seed
                } else {
                    1.0 / (1.0 + (r as f64 - c as f64).abs()) + 0.01 * seed
                };
            }
        }
        m
    }

    #[test]
    fn mul_into_matches_dynamic_bits() {
        let a = sm3(0.3);
        let b = sm3(1.7);
        let mut out = SmallMatrix::<f64, 3, 3>::zeros();
        a.mul_into(&b, &mut out).unwrap();
        let mut dyn_out = Matrix::zeros(3, 3);
        dyn_of(&a).mul_into(&dyn_of(&b), &mut dyn_out).unwrap();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(out[(r, c)].to_bits(), dyn_out[(r, c)].to_bits());
            }
        }
    }

    #[test]
    fn mul_into_zero_skip_preserves_nan_semantics() {
        // 0 × ∞ must be skipped, not computed, exactly like the dynamic path.
        let mut a = SmallMatrix::<f64, 2, 2>::zeros();
        a[(0, 1)] = 1.0;
        a[(1, 1)] = 1.0;
        let mut b = SmallMatrix::<f64, 2, 2>::identity();
        b[(0, 0)] = f64::INFINITY;
        let mut out = SmallMatrix::<f64, 2, 2>::zeros();
        a.mul_into(&b, &mut out).unwrap();
        let mut dyn_out = Matrix::zeros(2, 2);
        dyn_of(&a).mul_into(&dyn_of(&b), &mut dyn_out).unwrap();
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(out[(r, c)].to_bits(), dyn_out[(r, c)].to_bits());
            }
        }
    }

    #[test]
    fn symmetrize_matches_dynamic_bits() {
        let mut a = sm3(0.9);
        a[(0, 2)] += 1e-9; // make it asymmetric
        let mut d = dyn_of(&a);
        a.symmetrize();
        d.symmetrize();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(a[(r, c)].to_bits(), d[(r, c)].to_bits());
            }
        }
    }

    #[test]
    fn newton_schulz_matches_dynamic_bits() {
        let a = sm3(0.5);
        let mut seed = SmallMatrix::<f64, 3, 3>::zeros();
        a.safe_seed_into(&mut seed).unwrap();
        let (mut scratch, mut tmp, mut out) = (
            SmallMatrix::zeros(),
            SmallMatrix::zeros(),
            SmallMatrix::zeros(),
        );
        dense::newton_schulz_into(&a, &seed, 4, &mut scratch, &mut tmp, &mut out).unwrap();

        let da = dyn_of(&a);
        let dseed = iterative::safe_seed(&da).unwrap();
        // The safe seed itself must match bit-for-bit first.
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(seed[(r, c)].to_bits(), dseed[(r, c)].to_bits());
            }
        }
        let (mut ds, mut dt, mut dout) = (
            Matrix::zeros(3, 3),
            Matrix::zeros(3, 3),
            Matrix::zeros(3, 3),
        );
        iterative::newton_schulz_into(&da, &dseed, 4, &mut ds, &mut dt, &mut dout).unwrap();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(out[(r, c)].to_bits(), dout[(r, c)].to_bits());
            }
        }
    }

    #[test]
    fn norms_match_dynamic_bits() {
        let a = sm3(2.2);
        let d = dyn_of(&a);
        assert_eq!(a.inf_norm().to_bits(), norms::inf_norm(&d).to_bits());
        assert_eq!(a.one_norm().to_bits(), norms::one_norm(&d).to_bits());
    }

    #[test]
    fn transpose_add_sub_vector_ops_match_dynamic() {
        let a = sm3(1.1);
        let b = sm3(0.2);
        let mut t = SmallMatrix::<f64, 3, 3>::zeros();
        a.transpose_into(&mut t).unwrap();
        assert_eq!(dyn_of(&t), dyn_of(&a).transpose());

        let mut sum = a;
        sum.add_assign(&b).unwrap();
        let mut dsum = dyn_of(&a);
        dsum.add_assign(&dyn_of(&b)).unwrap();
        assert_eq!(dyn_of(&sum), dsum);

        let v = SmallVector::from_array([1.0, -2.0, 0.5]);
        let mut out = SmallVector::<f64, 3>::zeros();
        a.mul_vector_into(&v, &mut out).unwrap();
        let dv = a.to_matrix().mul_vector(&v.to_vector()).unwrap();
        assert_eq!(out.to_vector(), dv);
    }

    #[test]
    fn safe_seed_rejects_zero_matrix() {
        let z = SmallMatrix::<f64, 3, 3>::zeros();
        let mut out = SmallMatrix::<f64, 3, 3>::zeros();
        assert_eq!(
            z.safe_seed_into(&mut out).unwrap_err(),
            LinalgError::Singular { pivot: 0 }
        );
    }

    #[test]
    fn conversions_round_trip() {
        let a = sm3(0.7);
        let mut back = SmallMatrix::<f64, 3, 3>::zeros();
        back.copy_from(&a.to_matrix()).unwrap();
        assert_eq!(a, back);
        assert!(back.copy_from(&Matrix::zeros(2, 2)).is_err());

        let v = SmallVector::from_array([1.0, 2.0, 3.0]);
        let mut vb = SmallVector::<f64, 3>::zeros();
        vb.copy_from(&v.to_vector()).unwrap();
        assert_eq!(v, vb);
        assert!(vb.copy_from(&Vector::zeros(2)).is_err());
    }
}
