use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::dense::Dense;
use crate::{LinalgError, Result, Scalar, Vector};

/// Row-major dense matrix over a [`Scalar`] element type.
///
/// This is the single matrix representation used across the workspace: by the
/// software Kalman filter, by the accelerator datapath model (which mirrors
/// the paper's PLM-resident matrices), and by every inversion kernel.
///
/// # Example
///
/// ```
/// use kalmmind_linalg::Matrix;
///
/// # fn main() -> Result<(), kalmmind_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0_f64, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = (&a * &b).scale(2.0);
/// assert_eq!(c[(1, 0)], 6.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Example
    ///
    /// ```
    /// use kalmmind_linalg::Matrix;
    /// let m = Matrix::<f64>::zeros(2, 3);
    /// assert_eq!(m.shape(), (2, 3));
    /// assert_eq!(m[(1, 2)], 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    ///
    /// # Example
    ///
    /// ```
    /// use kalmmind_linalg::Matrix;
    /// let i = Matrix::<f64>::identity(3);
    /// assert_eq!(i[(0, 0)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    ///
    /// # Example
    ///
    /// ```
    /// use kalmmind_linalg::Matrix;
    /// let m = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f64);
    /// assert_eq!(m[(1, 1)], 11.0);
    /// ```
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::RaggedRows`] if the rows have differing lengths.
    ///
    /// # Example
    ///
    /// ```
    /// use kalmmind_linalg::Matrix;
    /// # fn main() -> Result<(), kalmmind_linalg::LinalgError> {
    /// let m = Matrix::from_rows(&[&[1.0_f64, 2.0], &[3.0, 4.0]])?;
    /// assert_eq!(m.shape(), (2, 2));
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_rows(rows: &[&[T]]) -> Result<Self> {
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(LinalgError::RaggedRows { row: i });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols: ncols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major slice.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::BadLength`] if `data.len() != rows * cols`.
    pub fn from_row_slice(rows: usize, cols: usize, data: &[T]) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::BadLength {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self {
            rows,
            cols,
            data: data.to_vec(),
        })
    }

    /// Creates a square matrix with `diag` on the diagonal and zeros elsewhere.
    pub fn from_diagonal(diag: &[T]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Bounds-checked element access.
    pub fn get(&self, row: usize, col: usize) -> Option<&T> {
        if row < self.rows && col < self.cols {
            Some(&self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Borrow of one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &[T] {
        assert!(
            row < self.rows,
            "row {row} out of bounds for {} rows",
            self.rows
        );
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copies one column into a [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.cols()`.
    pub fn col(&self, col: usize) -> Vector<T> {
        assert!(
            col < self.cols,
            "column {col} out of bounds for {} columns",
            self.cols
        );
        Vector::from_fn(self.rows, |r| self[(r, col)])
    }

    /// Copies the diagonal into a [`Vector`].
    pub fn diagonal(&self) -> Vector<T> {
        let n = self.rows.min(self.cols);
        Vector::from_fn(n, |i| self[(i, i)])
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Element-wise map to a (possibly different) scalar type.
    ///
    /// This is the "change the datatype between floating-point and
    /// fixed-point" operation of the paper's configurable datapath.
    ///
    /// # Example
    ///
    /// ```
    /// use kalmmind_linalg::Matrix;
    /// let m = Matrix::<f64>::identity(2);
    /// let m32: Matrix<f32> = m.map(|x| x as f32);
    /// assert_eq!(m32[(0, 0)], 1.0_f32);
    /// ```
    pub fn map<U: Scalar>(&self, mut f: impl FnMut(T) -> U) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Converts every element through `f64` into another scalar type.
    pub fn cast<U: Scalar>(&self) -> Matrix<U> {
        self.map(|x| U::from_f64(x.to_f64()))
    }

    /// Multiplies every element by `factor`.
    pub fn scale(&self, factor: T) -> Self {
        self.map(|x| x * factor)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != self.cols()`.
    pub fn mul_vector(&self, v: &Vector<T>) -> Result<Vector<T>> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (v.len(), 1),
                op: "mul_vector",
            });
        }
        Ok(Vector::from_fn(self.rows, |r| {
            let mut acc = T::ZERO;
            for c in 0..self.cols {
                acc += self[(r, c)] * v[c];
            }
            acc
        }))
    }

    /// Matrix product, returning an error instead of panicking.
    ///
    /// The `Mul` operator implementations forward here and panic on
    /// dimension mismatch; use this method when shapes are not statically
    /// known to agree.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != rhs.rows()`.
    pub fn checked_mul(&self, rhs: &Self) -> Result<Self> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
                op: "mul",
            });
        }
        let mut out = Self::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == T::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        Ok(out)
    }

    /// Element-wise sum, returning an error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn checked_add(&self, rhs: &Self) -> Result<Self> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference, returning an error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn checked_sub(&self, rhs: &Self) -> Result<Self> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    fn zip_with(&self, rhs: &Self, op: &'static str, f: impl Fn(T, T) -> T) -> Result<Self> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op,
            });
        }
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Copies every element of `src` into `self` without reallocating.
    ///
    /// This is the workhorse of the allocation-free hot path: workspace
    /// buffers are sized once and refilled with `copy_from` every iteration.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn copy_from(&mut self, src: &Self) -> Result<()> {
        Dense::copy_from(self, src)
    }

    /// Symmetrizes a square matrix in place: `A <- (A + A^T) / 2`.
    ///
    /// Kalman covariance updates accumulate tiny asymmetries in floating
    /// point; the hardware stores `P` symmetrically, and the software filter
    /// calls this after each update to match.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        Dense::symmetrize(self)
    }

    /// Largest absolute element difference against `other`.
    ///
    /// Returns `f64::INFINITY` when shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        if self.shape() != other.shape() {
            return f64::INFINITY;
        }
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// `true` when every element differs from `other` by at most `tol`
    /// (compared in `f64`).
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }

    /// `true` when every element is finite (always `true` for fixed-point).
    pub fn all_finite(&self) -> bool {
        Dense::all_finite(self)
    }

    /// Iterator over elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Consumes the matrix, returning its row-major storage.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;

    #[inline]
    fn index(&self, (row, col): (usize, usize)) -> &T {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[row * self.cols + col]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[row * self.cols + col]
    }
}

impl<T: fmt::Debug> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>12.5?} ", self.data[r * self.cols + c])?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $checked:ident, $opname:literal) => {
        impl<T: Scalar> $trait<&Matrix<T>> for &Matrix<T> {
            type Output = Matrix<T>;

            /// # Panics
            ///
            /// Panics on dimension mismatch; use the `checked_*` method for a
            /// fallible variant.
            fn $method(self, rhs: &Matrix<T>) -> Matrix<T> {
                self.$checked(rhs).unwrap_or_else(|e| panic!("{}", e))
            }
        }

        impl<T: Scalar> $trait<Matrix<T>> for Matrix<T> {
            type Output = Matrix<T>;

            fn $method(self, rhs: Matrix<T>) -> Matrix<T> {
                (&self).$method(&rhs)
            }
        }
    };
}

impl_binop!(Add, add, checked_add, "add");
impl_binop!(Sub, sub, checked_sub, "sub");
impl_binop!(Mul, mul, checked_mul, "mul");

impl<T: Scalar> Neg for &Matrix<T> {
    type Output = Matrix<T>;

    fn neg(self) -> Matrix<T> {
        self.map(|x| -x)
    }
}

impl<T: Scalar> Neg for Matrix<T> {
    type Output = Matrix<T>;

    fn neg(self) -> Matrix<T> {
        (&self).neg()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m2(a: f64, b: f64, c: f64, d: f64) -> Matrix<f64> {
        Matrix::from_rows(&[&[a, b], &[c, d]]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::<f64>::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.iter().all(|&x| x == 0.0));
        let i = Matrix::<f64>::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0_f64, 2.0], &[3.0]]).unwrap_err();
        assert_eq!(err, LinalgError::RaggedRows { row: 1 });
    }

    #[test]
    fn from_row_slice_validates_length() {
        let err = Matrix::from_row_slice(2, 2, &[1.0_f64, 2.0, 3.0]).unwrap_err();
        assert_eq!(
            err,
            LinalgError::BadLength {
                expected: 4,
                actual: 3
            }
        );
        let ok = Matrix::from_row_slice(2, 2, &[1.0_f64, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(ok[(1, 0)], 3.0);
    }

    #[test]
    fn from_diagonal_places_entries() {
        let d = Matrix::from_diagonal(&[1.0_f64, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        let t = a.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t[(4, 2)], a[(2, 4)]);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m2(1.0, 2.0, 3.0, 4.0);
        let b = m2(5.0, 6.0, 7.0, 8.0);
        let c = &a * &b;
        assert_eq!(c, m2(19.0, 22.0, 43.0, 50.0));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_rows(&[&[1.0_f64, 2.0, 3.0]]).unwrap(); // 1x3
        let b = Matrix::from_rows(&[&[1.0_f64], &[2.0], &[3.0]]).unwrap(); // 3x1
        let c = &a * &b;
        assert_eq!(c.shape(), (1, 1));
        assert_eq!(c[(0, 0)], 14.0);
    }

    #[test]
    fn checked_mul_rejects_mismatch() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(
            a.checked_mul(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn add_sub_neg() {
        let a = m2(1.0, 2.0, 3.0, 4.0);
        let b = m2(4.0, 3.0, 2.0, 1.0);
        assert_eq!(&a + &b, m2(5.0, 5.0, 5.0, 5.0));
        assert_eq!(&a - &b, m2(-3.0, -1.0, 1.0, 3.0));
        assert_eq!(-&a, m2(-1.0, -2.0, -3.0, -4.0));
    }

    #[test]
    fn mul_vector_and_mismatch() {
        let a = m2(1.0, 2.0, 3.0, 4.0);
        let v = Vector::from_vec(vec![1.0, 1.0]);
        let r = a.mul_vector(&v).unwrap();
        assert_eq!(r.as_slice(), &[3.0, 7.0]);
        let bad = Vector::from_vec(vec![1.0; 3]);
        assert!(a.mul_vector(&bad).is_err());
    }

    #[test]
    fn symmetrize_averages_off_diagonal() {
        let mut a = m2(1.0, 2.0, 4.0, 1.0);
        a.symmetrize();
        assert_eq!(a[(0, 1)], 3.0);
        assert_eq!(a[(1, 0)], 3.0);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn symmetrize_panics_on_rectangular() {
        Matrix::<f64>::zeros(2, 3).symmetrize();
    }

    #[test]
    fn max_abs_diff_and_approx_eq() {
        let a = m2(1.0, 2.0, 3.0, 4.0);
        let mut b = a.clone();
        b[(1, 1)] = 4.25;
        assert_eq!(a.max_abs_diff(&b), 0.25);
        assert!(a.approx_eq(&b, 0.25));
        assert!(!a.approx_eq(&b, 0.2));
        assert_eq!(a.max_abs_diff(&Matrix::zeros(3, 3)), f64::INFINITY);
    }

    #[test]
    fn cast_f64_to_f32_and_back() {
        let a = m2(1.5, -2.25, 0.0, 8.0);
        let b: Matrix<f32> = a.cast();
        let c: Matrix<f64> = b.cast();
        assert_eq!(a, c); // exact dyadic values survive the round trip
    }

    #[test]
    fn row_col_diagonal_accessors() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        assert_eq!(a.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(a.col(2).as_slice(), &[2.0, 5.0, 8.0]);
        assert_eq!(a.diagonal().as_slice(), &[0.0, 4.0, 8.0]);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = Matrix::<f64>::identity(2);
        assert!(a.all_finite());
        a[(0, 1)] = f64::NAN;
        assert!(!a.all_finite());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = Matrix::<f64>::zeros(2, 2);
        let _ = a[(2, 0)];
    }

    #[test]
    fn get_returns_none_out_of_bounds() {
        let a = Matrix::<f64>::identity(2);
        assert_eq!(a.get(1, 1), Some(&1.0));
        assert_eq!(a.get(2, 0), None);
    }

    #[test]
    fn in_place_kernels_match_allocating_twins() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64 - 5.0);
        let b = Matrix::from_fn(4, 2, |r, c| 0.5 * (r as f64) - c as f64);
        let mut out = Matrix::zeros(3, 2);
        a.mul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.checked_mul(&b).unwrap());

        let mut t = Matrix::zeros(4, 3);
        a.transpose_into(&mut t).unwrap();
        assert_eq!(t, a.transpose());

        let c = Matrix::from_fn(3, 4, |r, c| (r + c) as f64);
        let mut acc = a.clone();
        acc.add_assign(&c).unwrap();
        assert_eq!(acc, a.checked_add(&c).unwrap());
        acc.copy_from(&a).unwrap();
        assert_eq!(acc, a);
        acc.sub_assign(&c).unwrap();
        assert_eq!(acc, a.checked_sub(&c).unwrap());

        let v = Vector::from_fn(4, |i| 1.0 - i as f64);
        let mut mv = Vector::zeros(3);
        a.mul_vector_into(&v, &mut mv).unwrap();
        assert_eq!(mv, a.mul_vector(&v).unwrap());
    }

    #[test]
    fn in_place_kernels_validate_shapes() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(3, 2);
        let mut wrong = Matrix::<f64>::zeros(2, 3);
        assert!(a.mul_into(&b, &mut wrong).is_err());
        assert!(a.transpose_into(&mut wrong).is_err());
        assert!(wrong.copy_from(&b).is_err());
        assert!(wrong.add_assign(&b).is_err());
        assert!(wrong.sub_assign(&b).is_err());
        let v = Vector::<f64>::zeros(3);
        let mut short = Vector::<f64>::zeros(1);
        assert!(a.mul_vector_into(&v, &mut short).is_err());
        assert!(a.mul_vector_into(&short, &mut Vector::zeros(2)).is_err());
    }

    #[test]
    fn debug_output_is_nonempty() {
        let a = Matrix::<f64>::identity(2);
        let s = format!("{a:?}");
        assert!(s.contains("Matrix 2x2"));
    }
}
