use std::fmt;
use std::ops::{Add, Index, IndexMut, Neg, Sub};

use crate::dense::Dense;
use crate::{LinalgError, Result, Scalar};

/// Dense column vector over a [`Scalar`] element type.
///
/// Used for the Kalman state `x` and measurement `z` vectors.
///
/// # Example
///
/// ```
/// use kalmmind_linalg::Vector;
///
/// let a = Vector::from_vec(vec![1.0_f64, 2.0, 3.0]);
/// let b = Vector::from_vec(vec![4.0, 5.0, 6.0]);
/// assert_eq!(a.dot(&b).unwrap(), 32.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Vector<T> {
    data: Vec<T>,
}

impl<T: Scalar> Vector<T> {
    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Self {
            data: vec![T::ZERO; n],
        }
    }

    /// Wraps an owned `Vec` as a vector.
    pub fn from_vec(data: Vec<T>) -> Self {
        Self { data }
    }

    /// Creates a vector by evaluating `f(i)` at every index.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize) -> T) -> Self {
        Self {
            data: (0..n).map(&mut f).collect(),
        }
    }

    /// Copies a slice into a new vector.
    pub fn from_slice(data: &[T]) -> Self {
        Self {
            data: data.to_vec(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow of the underlying storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable borrow of the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the vector, returning its storage.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Iterator over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Element-wise map to a (possibly different) scalar type.
    pub fn map<U: Scalar>(&self, mut f: impl FnMut(T) -> U) -> Vector<U> {
        Vector {
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Converts every element through `f64` into another scalar type.
    pub fn cast<U: Scalar>(&self) -> Vector<U> {
        self.map(|x| U::from_f64(x.to_f64()))
    }

    /// Multiplies every element by `factor`.
    pub fn scale(&self, factor: T) -> Self {
        self.map(|x| x * factor)
    }

    /// Inner product with `other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn dot(&self, other: &Self) -> Result<T> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                left: (self.len(), 1),
                right: (other.len(), 1),
                op: "dot",
            });
        }
        let mut acc = T::ZERO;
        for (&a, &b) in self.data.iter().zip(&other.data) {
            acc += a * b;
        }
        Ok(acc)
    }

    /// Element-wise sum, returning an error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn checked_add(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise difference, returning an error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn checked_sub(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    fn zip_with(&self, other: &Self, op: &'static str, f: impl Fn(T, T) -> T) -> Result<Self> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                left: (self.len(), 1),
                right: (other.len(), 1),
                op,
            });
        }
        Ok(Self {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Copies every element of `src` into `self` without reallocating.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn copy_from(&mut self, src: &Self) -> Result<()> {
        Dense::copy_from(self, src)
    }

    /// Euclidean norm, computed in `f64`.
    pub fn norm(&self) -> f64 {
        self.data
            .iter()
            .map(|x| x.to_f64() * x.to_f64())
            .sum::<f64>()
            .sqrt()
    }

    /// Largest absolute element, computed in `f64`.
    pub fn max_abs(&self) -> f64 {
        self.data
            .iter()
            .map(|x| x.to_f64().abs())
            .fold(0.0, f64::max)
    }

    /// Largest absolute element difference against `other`.
    ///
    /// Returns `f64::INFINITY` when lengths differ.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        if self.len() != other.len() {
            return f64::INFINITY;
        }
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// `true` when every element is finite.
    pub fn all_finite(&self) -> bool {
        Dense::all_finite(self)
    }
}

impl<T: Scalar> Index<usize> for Vector<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.data[i]
    }
}

impl<T: Scalar> IndexMut<usize> for Vector<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }
}

impl<T: fmt::Debug> fmt::Debug for Vector<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vector[{}] [", self.data.len())?;
        for (i, x) in self.data.iter().take(8).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:?}")?;
        }
        if self.data.len() > 8 {
            write!(f, ", ...")?;
        }
        write!(f, "]")
    }
}

impl<T: Scalar> Add<&Vector<T>> for &Vector<T> {
    type Output = Vector<T>;

    /// # Panics
    ///
    /// Panics on length mismatch; use [`Vector::checked_add`] for a fallible
    /// variant.
    fn add(self, rhs: &Vector<T>) -> Vector<T> {
        self.checked_add(rhs).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl<T: Scalar> Sub<&Vector<T>> for &Vector<T> {
    type Output = Vector<T>;

    /// # Panics
    ///
    /// Panics on length mismatch; use [`Vector::checked_sub`] for a fallible
    /// variant.
    fn sub(self, rhs: &Vector<T>) -> Vector<T> {
        self.checked_sub(rhs).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl<T: Scalar> Neg for &Vector<T> {
    type Output = Vector<T>;

    fn neg(self) -> Vector<T> {
        self.map(|x| -x)
    }
}

impl<T: Scalar> FromIterator<T> for Vector<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

impl<T: Scalar> From<Vec<T>> for Vector<T> {
    fn from(data: Vec<T>) -> Self {
        Self { data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_len() {
        assert_eq!(Vector::<f64>::zeros(4).len(), 4);
        assert!(Vector::<f64>::zeros(0).is_empty());
        let v = Vector::from_fn(3, |i| i as f64);
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn dot_product() {
        let a = Vector::from_vec(vec![1.0_f64, 2.0, 3.0]);
        let b = Vector::from_vec(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert!(a.dot(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn add_sub_neg_scale() {
        let a = Vector::from_vec(vec![1.0_f64, 2.0]);
        let b = Vector::from_vec(vec![3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        assert_eq!(a.scale(3.0).as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn norms() {
        let v = Vector::from_vec(vec![3.0_f64, -4.0]);
        assert!((v.norm() - 5.0).abs() < 1e-12);
        assert_eq!(v.max_abs(), 4.0);
    }

    #[test]
    fn max_abs_diff_mismatched_is_infinite() {
        let a = Vector::from_vec(vec![1.0_f64]);
        let b = Vector::from_vec(vec![1.0_f64, 2.0]);
        assert_eq!(a.max_abs_diff(&b), f64::INFINITY);
    }

    #[test]
    fn collect_from_iterator() {
        let v: Vector<f64> = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn cast_round_trip() {
        let a = Vector::from_vec(vec![0.5_f64, -1.25]);
        let b: Vector<f32> = a.cast();
        assert_eq!(b.as_slice(), &[0.5_f32, -1.25]);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut v = Vector::from_vec(vec![1.0_f64]);
        assert!(v.all_finite());
        v[0] = f64::NAN;
        assert!(!v.all_finite());
    }

    #[test]
    fn in_place_ops_match_allocating_twins() {
        let a = Vector::from_vec(vec![1.0_f64, -2.0, 3.5]);
        let b = Vector::from_vec(vec![0.5_f64, 4.0, -1.0]);
        let mut acc = a.clone();
        acc.add_assign(&b).unwrap();
        assert_eq!(acc, a.checked_add(&b).unwrap());
        acc.copy_from(&a).unwrap();
        assert_eq!(acc, a);
        acc.sub_assign(&b).unwrap();
        assert_eq!(acc, a.checked_sub(&b).unwrap());

        let mut short = Vector::<f64>::zeros(2);
        assert!(short.copy_from(&a).is_err());
        assert!(short.add_assign(&a).is_err());
        assert!(short.sub_assign(&a).is_err());
    }

    #[test]
    fn debug_is_nonempty_and_truncates() {
        let v = Vector::from_fn(20, |i| i as f64);
        let s = format!("{v:?}");
        assert!(s.contains("Vector[20]"));
        assert!(s.contains("..."));
    }
}
