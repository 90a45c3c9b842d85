use kalmmind_linalg::{Matrix, Scalar, Vector};

/// The evolving Kalman-filter state: the estimate `x_n` and its covariance
/// `P_n`.
///
/// In the accelerator this pair lives in the double-buffered PLM that is
/// swapped at the end of every iteration (paper Section IV); in software it
/// is simply updated in place.
///
/// # Example
///
/// ```
/// use kalmmind::KalmanState;
/// use kalmmind_linalg::{Matrix, Vector};
///
/// let s = KalmanState::new(Vector::zeros(6), Matrix::<f64>::identity(6));
/// assert_eq!(s.x().len(), 6);
/// assert_eq!(s.p().shape(), (6, 6));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KalmanState<T> {
    x: Vector<T>,
    p: Matrix<T>,
}

impl<T: Scalar> KalmanState<T> {
    /// Creates a state from an estimate vector and covariance matrix.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not `x.len() × x.len()`.
    pub fn new(x: Vector<T>, p: Matrix<T>) -> Self {
        assert_eq!(
            p.shape(),
            (x.len(), x.len()),
            "covariance must be square with the state's dimension"
        );
        Self { x, p }
    }

    /// The customary cold start: zero estimate, identity covariance.
    pub fn zeroed(x_dim: usize) -> Self {
        Self {
            x: Vector::zeros(x_dim),
            p: Matrix::identity(x_dim),
        }
    }

    /// Borrow of the state estimate `x_n`.
    pub fn x(&self) -> &Vector<T> {
        &self.x
    }

    /// Borrow of the covariance `P_n`.
    pub fn p(&self) -> &Matrix<T> {
        &self.p
    }

    /// State dimension.
    pub fn dim(&self) -> usize {
        self.x.len()
    }

    /// Replaces both halves of the state (the double-buffer swap).
    pub(crate) fn replace(&mut self, x: Vector<T>, p: Matrix<T>) {
        debug_assert_eq!(p.shape(), (x.len(), x.len()));
        self.x = x;
        self.p = p;
    }

    /// Mutable borrows of both halves — the allocation-free step copies its
    /// workspace results into them in place.
    pub(crate) fn parts_mut(&mut self) -> (&mut Vector<T>, &mut Matrix<T>) {
        (&mut self.x, &mut self.p)
    }

    /// Converts the state to another scalar type through `f64`.
    pub fn cast<U: Scalar>(&self) -> KalmanState<U> {
        KalmanState {
            x: self.x.cast(),
            p: self.p.cast(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_state_shape() {
        let s = KalmanState::<f64>::zeroed(4);
        assert_eq!(s.dim(), 4);
        assert_eq!(s.x().as_slice(), &[0.0; 4]);
        assert_eq!(s.p(), &Matrix::identity(4));
    }

    #[test]
    #[should_panic(expected = "covariance must be square")]
    fn rejects_mismatched_covariance() {
        KalmanState::new(Vector::<f64>::zeros(3), Matrix::identity(2));
    }

    #[test]
    fn replace_swaps_both_halves() {
        let mut s = KalmanState::<f64>::zeroed(2);
        s.replace(
            Vector::from_vec(vec![1.0, 2.0]),
            Matrix::identity(2).scale(3.0),
        );
        assert_eq!(s.x()[1], 2.0);
        assert_eq!(s.p()[(0, 0)], 3.0);
    }

    #[test]
    fn cast_round_trip() {
        let s = KalmanState::new(
            Vector::from_vec(vec![1.5_f64, -0.25]),
            Matrix::identity(2).scale(0.5),
        );
        let s32: KalmanState<f32> = s.cast();
        assert_eq!(s32.x()[0], 1.5_f32);
        assert_eq!(s32.p()[(1, 1)], 0.5_f32);
    }
}
