//! One loop body per in-place kernel, shared by both storage layouts.
//!
//! [`Matrix`]/[`Vector`] (heap, shape known at run time) and
//! [`SmallMatrix`]/[`SmallVector`] (inline, shape in the type) hold the same
//! row-major data. Every kernel of the allocation-free KF step is written
//! once here over flat row-major slices: the dynamic types call it after
//! their shape checks, the const-generic types call it with their const
//! dimensions, which the optimizer then sees as trip counts. A filter
//! stepped on either layout therefore produces the same bits by
//! construction — the loop order (including the `mul` zero-skip that makes
//! `0 × ∞` propagate like the allocating [`Matrix::checked_mul`]) exists
//! exactly once.
//!
//! [`Dense`] is the small trait both layouts implement: a shape, row-major
//! slice access, and the checked kernels as provided methods. Generic code —
//! the KF step in `kalmmind` — is written once against it; for a
//! const-generic layout every shape check compares constants and folds
//! away.
//!
//! [`SmallMatrix`]: crate::small::SmallMatrix
//! [`SmallVector`]: crate::small::SmallVector
//!
//! # Example
//!
//! ```
//! use kalmmind_linalg::dense::Dense;
//! use kalmmind_linalg::small::SmallMatrix;
//! use kalmmind_linalg::Matrix;
//!
//! # fn main() -> Result<(), kalmmind_linalg::LinalgError> {
//! fn square<T: kalmmind_linalg::Scalar, M: Dense<T>>(a: &M, out: &mut M) -> Result<(), kalmmind_linalg::LinalgError> {
//!     a.mul_into(a, out)
//! }
//! let a = Matrix::from_rows(&[&[1.0_f64, 2.0], &[3.0, 4.0]])?;
//! let mut dynamic = Matrix::zeros(2, 2);
//! square(&a, &mut dynamic)?;
//! let s = SmallMatrix::<f64, 2, 2>::from_rows([[1.0, 2.0], [3.0, 4.0]]);
//! let mut fixed = SmallMatrix::zeros();
//! square(&s, &mut fixed)?;
//! assert_eq!(fixed.to_matrix(), dynamic);
//! # Ok(())
//! # }
//! ```

use crate::{LinalgError, Matrix, Result, Scalar, Vector};

/// `a (rows × inner) · b (inner × cols) → out`: zero-fill, then row/inner/
/// column loops with the zero-skip on the left operand (load-bearing for
/// NaN/∞ inputs, since `0 × ∞ = NaN`).
#[inline(always)]
pub(crate) fn mul<T: Scalar>(a: &[T], b: &[T], out: &mut [T], inner: usize, cols: usize) {
    out.fill(T::ZERO);
    if inner == 0 || cols == 0 {
        return;
    }
    for (a_row, out_row) in a.chunks_exact(inner).zip(out.chunks_exact_mut(cols)) {
        for (&av, b_row) in a_row.iter().zip(b.chunks_exact(cols)) {
            if av == T::ZERO {
                continue;
            }
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// `a (rows × v.len()) · v → out`: one accumulator per row, columns in
/// order.
#[inline(always)]
pub(crate) fn mul_vector<T: Scalar>(a: &[T], v: &[T], out: &mut [T]) {
    if v.is_empty() {
        out.fill(T::ZERO);
        return;
    }
    for (row, o) in a.chunks_exact(v.len()).zip(out.iter_mut()) {
        let mut acc = T::ZERO;
        for (&x, &y) in row.iter().zip(v) {
            acc += x * y;
        }
        *o = acc;
    }
}

/// Transpose of the `rows × cols` matrix `a` into `out` (`cols × rows`).
#[inline(always)]
pub(crate) fn transpose<T: Scalar>(a: &[T], out: &mut [T], rows: usize, cols: usize) {
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = a[r * cols + c];
        }
    }
}

/// Element-wise `a += b` in storage order.
#[inline(always)]
pub(crate) fn add_assign<T: Scalar>(a: &mut [T], b: &[T]) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// Element-wise `a -= b` in storage order.
#[inline(always)]
pub(crate) fn sub_assign<T: Scalar>(a: &mut [T], b: &[T]) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x -= y;
    }
}

/// Averages the off-diagonal pairs of the `n × n` matrix `a`:
/// `(a + b) × 0.5`, with `0.5` converted through [`Scalar::from_f64`].
#[inline(always)]
pub(crate) fn symmetrize<T: Scalar>(a: &mut [T], n: usize) {
    let half = T::from_f64(0.5);
    for r in 0..n {
        for c in (r + 1)..n {
            let avg = (a[r * n + c] + a[c * n + r]) * half;
            a[r * n + c] = avg;
            a[c * n + r] = avg;
        }
    }
}

/// Infinity norm (maximum absolute row sum) in `f64`, rows summed left to
/// right.
#[inline(always)]
pub(crate) fn inf_norm<T: Scalar>(a: &[T], cols: usize) -> f64 {
    if cols == 0 {
        return 0.0;
    }
    a.chunks_exact(cols)
        .map(|row| row.iter().map(|x| x.to_f64().abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// One norm (maximum absolute column sum) in `f64`, each column summed
/// top to bottom.
#[inline(always)]
pub(crate) fn one_norm<T: Scalar>(a: &[T], cols: usize) -> f64 {
    (0..cols)
        .map(|c| {
            a.iter()
                .skip(c)
                .step_by(cols)
                .map(|x| x.to_f64().abs())
                .sum::<f64>()
        })
        .fold(0.0, f64::max)
}

/// The certified Newton seed `V₀ = Aᵀ / (‖A‖₁·‖A‖_∞)` of the `n × n`
/// matrix `a`: norms accumulate in `f64`, each element is divided in `f64`
/// and converted back through [`Scalar::from_f64`].
#[inline(always)]
pub(crate) fn safe_seed<T: Scalar>(a: &[T], out: &mut [T], n: usize) -> Result<()> {
    let denom = one_norm(a, n) * inf_norm(a, n);
    if denom == 0.0 {
        return Err(LinalgError::Singular { pivot: 0 });
    }
    transpose(a, out, n, n);
    for x in out.iter_mut() {
        *x = T::from_f64(x.to_f64() / denom);
    }
    Ok(())
}

/// One Newton–Schulz refinement `out = V·(2I − A·V)` on `n × n` operands:
/// the product is negated element-wise in storage order, `2` (converted via
/// [`Scalar::from_f64`]) is added on the diagonal, then `V` multiplies the
/// result.
#[inline(always)]
pub(crate) fn newton_step<T: Scalar>(a: &[T], v: &[T], scratch: &mut [T], out: &mut [T], n: usize) {
    mul(a, v, scratch, n, n);
    for x in scratch.iter_mut() {
        *x = -*x;
    }
    let two = T::from_f64(2.0);
    for i in 0..n {
        scratch[i * n + i] += two;
    }
    mul(v, scratch, out, n, n);
}

/// `iters` Newton–Schulz refinements of the seed already in `out`,
/// ping-ponging between `out` and `tmp`; the final iterate lands in `out`.
#[inline(always)]
pub(crate) fn newton_schulz<T: Scalar>(
    a: &[T],
    iters: usize,
    scratch: &mut [T],
    tmp: &mut [T],
    out: &mut [T],
    n: usize,
) {
    let (mut cur, mut next) = (&mut *out, &mut *tmp);
    for _ in 0..iters {
        newton_step(a, cur, scratch, next, n);
        std::mem::swap(&mut cur, &mut next);
    }
    if iters % 2 == 1 {
        // `cur` is `tmp`'s buffer and `next` is `out`'s.
        next.copy_from_slice(cur);
    }
}

fn mismatch(left: (usize, usize), right: (usize, usize), op: &'static str) -> LinalgError {
    LinalgError::DimensionMismatch { left, right, op }
}

/// Row-major dense storage: the trait [`Matrix`], [`Vector`],
/// [`SmallMatrix`](crate::small::SmallMatrix) and
/// [`SmallVector`](crate::small::SmallVector) implement, so one generic
/// KF step runs on either layout.
///
/// Implementors supply the shape and slice access; the provided methods
/// are the checked kernels, each a shape check followed by the one shared
/// loop body of this module. A vector is a single column, shape `(len, 1)`.
/// A mis-shaped operand is a [`LinalgError::DimensionMismatch`] (or
/// [`LinalgError::NotSquare`] where a square matrix is required); the seed
/// of an all-zero matrix is [`LinalgError::Singular`].
pub trait Dense<T: Scalar> {
    /// `(rows, cols)`.
    fn shape(&self) -> (usize, usize);

    /// The elements in row-major order.
    fn as_slice(&self) -> &[T];

    /// Mutable elements in row-major order.
    fn as_mut_slice(&mut self) -> &mut [T];

    /// A zero-filled `rows × cols` value. Const-shaped layouts ignore the
    /// arguments and return their own shape.
    fn zeroed(rows: usize, cols: usize) -> Self
    where
        Self: Sized;

    /// Runs `f` on this value as a dynamic [`Matrix`] (an element copy for
    /// every layout but [`Matrix`] itself) — the bridge to the
    /// factorizations, which exist only on the dynamic type.
    #[inline]
    fn with_matrix<R>(&self, f: impl FnOnce(&Matrix<T>) -> R) -> R {
        let (rows, cols) = self.shape();
        f(
            &Matrix::from_row_slice(rows, cols, self.as_slice())
                .expect("slice length is rows*cols"),
        )
    }

    /// Copies every element of `src` into `self`.
    #[inline]
    fn copy_from(&mut self, src: &impl Dense<T>) -> Result<()> {
        if self.shape() != src.shape() {
            return Err(mismatch(self.shape(), src.shape(), "copy_from"));
        }
        self.as_mut_slice().copy_from_slice(src.as_slice());
        Ok(())
    }

    /// Matrix product `self · rhs` into `out`.
    #[inline]
    fn mul_into(&self, rhs: &impl Dense<T>, out: &mut impl Dense<T>) -> Result<()> {
        let (rows, inner) = self.shape();
        let (rhs_rows, cols) = rhs.shape();
        if inner != rhs_rows {
            return Err(mismatch((rows, inner), (rhs_rows, cols), "mul"));
        }
        if out.shape() != (rows, cols) {
            return Err(mismatch((rows, cols), out.shape(), "mul_into"));
        }
        mul(
            self.as_slice(),
            rhs.as_slice(),
            out.as_mut_slice(),
            inner,
            cols,
        );
        Ok(())
    }

    /// Matrix-vector product `self · v` into `out`.
    #[inline]
    fn mul_vector_into(&self, v: &impl Dense<T>, out: &mut impl Dense<T>) -> Result<()> {
        let (rows, cols) = self.shape();
        if v.shape() != (cols, 1) {
            return Err(mismatch((rows, cols), v.shape(), "mul_vector"));
        }
        if out.shape() != (rows, 1) {
            return Err(mismatch((rows, 1), out.shape(), "mul_vector_into"));
        }
        mul_vector(self.as_slice(), v.as_slice(), out.as_mut_slice());
        Ok(())
    }

    /// Transpose into `out`.
    #[inline]
    fn transpose_into(&self, out: &mut impl Dense<T>) -> Result<()> {
        let (rows, cols) = self.shape();
        if out.shape() != (cols, rows) {
            return Err(mismatch((cols, rows), out.shape(), "transpose_into"));
        }
        transpose(self.as_slice(), out.as_mut_slice(), rows, cols);
        Ok(())
    }

    /// Element-wise `self += rhs`.
    #[inline]
    fn add_assign(&mut self, rhs: &impl Dense<T>) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(mismatch(self.shape(), rhs.shape(), "add"));
        }
        add_assign(self.as_mut_slice(), rhs.as_slice());
        Ok(())
    }

    /// Element-wise `self -= rhs`.
    #[inline]
    fn sub_assign(&mut self, rhs: &impl Dense<T>) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(mismatch(self.shape(), rhs.shape(), "sub"));
        }
        sub_assign(self.as_mut_slice(), rhs.as_slice());
        Ok(())
    }

    /// Averages the off-diagonal pairs: `A ← (A + Aᵀ) / 2`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    #[inline]
    fn symmetrize(&mut self) {
        let (rows, cols) = self.shape();
        assert!(rows == cols, "symmetrize requires a square matrix");
        symmetrize(self.as_mut_slice(), rows);
    }

    /// `true` when every element is finite (always for fixed point).
    #[inline]
    fn all_finite(&self) -> bool {
        self.as_slice().iter().all(|x| x.is_finite())
    }

    /// Infinity norm (maximum absolute row sum) in `f64`.
    #[inline]
    fn inf_norm(&self) -> f64 {
        inf_norm(self.as_slice(), self.shape().1)
    }

    /// One norm (maximum absolute column sum) in `f64`.
    #[inline]
    fn one_norm(&self) -> f64 {
        one_norm(self.as_slice(), self.shape().1)
    }

    /// Writes the certified Newton seed `V₀ = Aᵀ / (‖A‖₁·‖A‖_∞)` into `out`.
    #[inline]
    fn safe_seed_into(&self, out: &mut impl Dense<T>) -> Result<()> {
        let (rows, cols) = self.shape();
        if rows != cols {
            return Err(LinalgError::NotSquare {
                shape: (rows, cols),
            });
        }
        if out.shape() != (rows, cols) {
            return Err(mismatch((rows, cols), out.shape(), "safe_seed_into"));
        }
        safe_seed(self.as_slice(), out.as_mut_slice(), rows)
    }
}

/// `iters` Newton–Schulz refinements of the seed `v0` into `out`, on any
/// [`Dense`] layout. `scratch` and `tmp` are working buffers shaped like
/// `a`; their contents on return are unspecified.
///
/// # Errors
///
/// The errors of [`iterative::newton_schulz_into`](crate::iterative::newton_schulz_into):
/// a mis-sized `out`, a rectangular `a`, or mis-sized working buffers.
pub fn newton_schulz_into<T: Scalar, M: Dense<T>>(
    a: &M,
    v0: &M,
    iters: usize,
    scratch: &mut M,
    tmp: &mut M,
    out: &mut M,
) -> Result<()> {
    out.copy_from(v0)?;
    if iters == 0 {
        return Ok(());
    }
    let (rows, cols) = a.shape();
    if rows != cols {
        return Err(LinalgError::NotSquare {
            shape: (rows, cols),
        });
    }
    if a.shape() != out.shape() {
        return Err(mismatch(a.shape(), out.shape(), "newton_step"));
    }
    for buf in [scratch.shape(), tmp.shape()] {
        if buf != (rows, rows) {
            return Err(mismatch((rows, rows), buf, "mul_into"));
        }
    }
    newton_schulz(
        a.as_slice(),
        iters,
        scratch.as_mut_slice(),
        tmp.as_mut_slice(),
        out.as_mut_slice(),
        rows,
    );
    Ok(())
}

impl<T: Scalar> Dense<T> for Matrix<T> {
    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    fn as_slice(&self) -> &[T] {
        Matrix::as_slice(self)
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        Matrix::as_mut_slice(self)
    }

    fn zeroed(rows: usize, cols: usize) -> Self {
        Matrix::zeros(rows, cols)
    }

    fn with_matrix<R>(&self, f: impl FnOnce(&Matrix<T>) -> R) -> R {
        f(self)
    }
}

impl<T: Scalar> Dense<T> for Vector<T> {
    fn shape(&self) -> (usize, usize) {
        (self.len(), 1)
    }

    fn as_slice(&self) -> &[T] {
        Vector::as_slice(self)
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        Vector::as_mut_slice(self)
    }

    fn zeroed(rows: usize, _cols: usize) -> Self {
        Vector::zeros(rows)
    }
}

/// A boxed layout is the same storage one pointer away — how the
/// const-generic session keeps its `z`-scaled matrices off the stack.
impl<T: Scalar, D: Dense<T>> Dense<T> for Box<D> {
    fn shape(&self) -> (usize, usize) {
        (**self).shape()
    }

    fn as_slice(&self) -> &[T] {
        (**self).as_slice()
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        (**self).as_mut_slice()
    }

    fn zeroed(rows: usize, cols: usize) -> Self {
        Box::new(D::zeroed(rows, cols))
    }

    fn with_matrix<R>(&self, f: impl FnOnce(&Matrix<T>) -> R) -> R {
        (**self).with_matrix(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_newton_counts_land_in_out() {
        let a = Matrix::from_rows(&[&[4.0_f64, 1.0], &[1.0, 3.0]]).unwrap();
        let mut seed = Matrix::zeros(2, 2);
        a.safe_seed_into(&mut seed).unwrap();
        for iters in 0..5 {
            let (mut scratch, mut tmp, mut out) = (
                Matrix::zeros(2, 2),
                Matrix::zeros(2, 2),
                Matrix::zeros(2, 2),
            );
            newton_schulz_into(&a, &seed, iters, &mut scratch, &mut tmp, &mut out).unwrap();
            let reference = crate::iterative::newton_schulz(&a, &seed, iters).unwrap();
            assert_eq!(out, reference, "iters = {iters}");
        }
    }

    #[test]
    fn vectors_are_single_columns() {
        let a = Matrix::from_rows(&[&[1.0_f64, 2.0], &[3.0, 4.0]]).unwrap();
        let mut out = Vector::zeros(2);
        Dense::mul_vector_into(&a, &Vector::from_vec(vec![1.0, 1.0]), &mut out).unwrap();
        assert_eq!(out.as_slice(), &[3.0, 7.0]);
        let err = Dense::mul_vector_into(&a, &Vector::zeros(3), &mut out).unwrap_err();
        assert!(matches!(
            err,
            LinalgError::DimensionMismatch {
                op: "mul_vector",
                ..
            }
        ));
    }

    #[test]
    fn empty_operands_are_fine() {
        let a = Matrix::<f64>::zeros(2, 0);
        let b = Matrix::<f64>::zeros(0, 3);
        let mut out = Matrix::from_fn(2, 3, |_, _| 5.0);
        Dense::mul_into(&a, &b, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0.0));
        assert_eq!(a.inf_norm(), 0.0);
        assert_eq!(Dense::one_norm(&b), 0.0);
    }
}
