//! Pre-allocated scratch buffers for the allocation-free KF hot path, over
//! either storage layout.
//!
//! The accelerator keeps every matrix of the recursion resident in its
//! private local memory (PLM) and never allocates at runtime; the software
//! filter mirrors that with a [`StepBuffers`] sized once from the model and
//! threaded through [`KalmanFilter::step_with`](crate::KalmanFilter::step_with).
//! Every buffer is reused across iterations, so steady-state stepping
//! performs zero heap allocations (pinned by `tests/alloc_free.rs`).
//!
//! The buffers nest per layer: [`StepBuffers`] owns the filter-level
//! buffers, [`GainBuffers`] the `compute K` intermediates, and
//! [`InverseBuffers`] the Newton–Schulz scratch space, matching the
//! filter → gain strategy → inverse strategy call chain.
//!
//! A [`Storage`] picks the layout: [`Dyn`] holds heap [`Matrix`]/[`Vector`]
//! buffers sized at run time ([`StepWorkspace`], the dynamic filter's), and
//! [`Fixed`] holds const-generic [`SmallMatrix`]/[`SmallVector`] buffers
//! (the monomorphized session's). The KF step is written once over the
//! [`Dense`] operations both layouts share, so the layout decides where the
//! numbers live and never which operations run on them.

use std::fmt::Debug;

use kalmmind_linalg::dense::Dense;
use kalmmind_linalg::small::{SmallMatrix, SmallVector};
use kalmmind_linalg::{Matrix, Scalar, Vector};

use crate::inverse::InversePath;
use crate::KalmanModel;

/// A storage layout for the buffers of one KF step: one [`Dense`] type per
/// shape the recursion uses (`x` states, `z` measurement channels).
pub trait Storage<T: Scalar>: Debug + Clone + 'static {
    /// `x × x` matrices (`F`, `Q`, `P` and their products).
    type XX: Dense<T> + Debug + Clone;
    /// `z × x` matrices (`H`, `H·P`).
    type ZX: Dense<T> + Debug + Clone;
    /// `x × z` matrices (`Hᵀ`, `P·Hᵀ`, `K`).
    type XZ: Dense<T> + Debug + Clone;
    /// `z × z` matrices (`R`, `S`, `S⁻¹` and the Newton buffers).
    type ZZ: Dense<T> + Debug + Clone;
    /// `x`-vectors (the state estimate).
    type VX: Dense<T> + Debug + Clone;
    /// `z`-vectors (measurement, innovation).
    type VZ: Dense<T> + Debug + Clone;
}

/// Heap storage sized at run time: any model shape.
#[derive(Debug, Clone, Copy)]
pub struct Dyn;

impl<T: Scalar> Storage<T> for Dyn {
    type XX = Matrix<T>;
    type ZX = Matrix<T>;
    type XZ = Matrix<T>;
    type ZZ = Matrix<T>;
    type VX = Vector<T>;
    type VZ = Vector<T>;
}

/// Const-generic storage for one `(X, Z)` model shape. `x`-sized buffers
/// sit inline; the `z`-scaled matrices are boxed (a `46 × 46` `f64` matrix
/// is ~17 KiB).
#[derive(Debug, Clone, Copy)]
pub struct Fixed<const X: usize, const Z: usize>;

impl<T: Scalar, const X: usize, const Z: usize> Storage<T> for Fixed<X, Z> {
    type XX = SmallMatrix<T, X, X>;
    type ZX = Box<SmallMatrix<T, Z, X>>;
    type XZ = Box<SmallMatrix<T, X, Z>>;
    type ZZ = Box<SmallMatrix<T, Z, Z>>;
    type VX = SmallVector<T, X>;
    type VZ = SmallVector<T, Z>;
}

/// Scratch buffers for an inverse-strategy `invert_into` call — all
/// `z_dim × z_dim`.
#[derive(Debug, Clone)]
pub struct InverseBuffers<T: Scalar, S: Storage<T>> {
    /// Newton-step intermediate `2I − A·V`.
    pub scratch: S::ZZ,
    /// Ping-pong buffer for the Newton iterate.
    pub tmp: S::ZZ,
    /// The seed `V₀` copied from strategy history.
    pub seed: S::ZZ,
    /// Which datapath the most recent `invert_into` call took. Written by
    /// the inverse strategy, read by health monitoring; never feeds back
    /// into filter arithmetic.
    pub last_path: InversePath,
}

/// [`InverseBuffers`] on heap storage, the buffers of
/// [`InverseStrategy::invert_into`](crate::inverse::InverseStrategy::invert_into).
pub type InverseWorkspace<T> = InverseBuffers<T, Dyn>;

impl<T: Scalar, S: Storage<T>> InverseBuffers<T, S> {
    /// Creates buffers for `z_dim × z_dim` innovation covariances.
    pub fn new(z_dim: usize) -> Self {
        Self {
            scratch: Dense::zeroed(z_dim, z_dim),
            tmp: Dense::zeroed(z_dim, z_dim),
            seed: Dense::zeroed(z_dim, z_dim),
            last_path: InversePath::Unknown,
        }
    }
}

impl<T: Scalar> InverseBuffers<T, Dyn> {
    /// Resizes the buffers to `n × n` if they do not already match.
    ///
    /// A no-op (and allocation-free) when already correctly sized; inverse
    /// strategies call this defensively so a workspace built for one model
    /// cannot corrupt a differently-shaped `S`.
    pub fn fit(&mut self, n: usize) {
        for m in [&mut self.scratch, &mut self.tmp, &mut self.seed] {
            if m.shape() != (n, n) {
                *m = Matrix::zeros(n, n);
            }
        }
    }
}

/// Scratch buffers for a gain strategy's `gain_into` call.
#[derive(Debug, Clone)]
pub struct GainBuffers<T: Scalar, S: Storage<T>> {
    /// `Hᵀ` (`x_dim × z_dim`).
    pub ht: S::XZ,
    /// `H·P` (`z_dim × x_dim`).
    pub hp: S::ZX,
    /// Innovation covariance `S = H·P·Hᵀ + R` (`z_dim × z_dim`).
    pub s: S::ZZ,
    /// `P·Hᵀ` (`x_dim × z_dim`).
    pub pht: S::XZ,
    /// `S⁻¹` (`z_dim × z_dim`).
    pub s_inv: S::ZZ,
    /// Nested scratch space for the inversion strategy.
    pub inv: InverseBuffers<T, S>,
    /// `true` when the most recent `gain_into` call left live values in
    /// [`GainBuffers::s`] and [`GainBuffers::s_inv`]. Strategies that
    /// bypass the explicit inversion (Taylor, SSKF) leave these buffers
    /// stale and set `false`; health monitoring checks the flag before
    /// reading them.
    pub s_filled: bool,
}

/// [`GainBuffers`] on heap storage, the buffers of
/// [`GainStrategy::gain_into`](crate::gain::GainStrategy::gain_into).
pub type GainWorkspace<T> = GainBuffers<T, Dyn>;

impl<T: Scalar, S: Storage<T>> GainBuffers<T, S> {
    /// Creates buffers for an `x_dim`-state, `z_dim`-channel model.
    pub fn new(x_dim: usize, z_dim: usize) -> Self {
        Self {
            ht: Dense::zeroed(x_dim, z_dim),
            hp: Dense::zeroed(z_dim, x_dim),
            s: Dense::zeroed(z_dim, z_dim),
            pht: Dense::zeroed(x_dim, z_dim),
            s_inv: Dense::zeroed(z_dim, z_dim),
            inv: InverseBuffers::new(z_dim),
            s_filled: false,
        }
    }
}

/// All scratch buffers one KF iteration needs — the software analogue of
/// the accelerator's PLM banks. Every field is written by the step before
/// it is read, so one set of buffers may serve any number of filters of
/// the same shape, one step at a time, without touching their bits.
#[derive(Debug, Clone)]
pub struct StepBuffers<T: Scalar, S: Storage<T>> {
    /// Predicted estimate `x̂_n = F·x_{n−1}` (`x_dim`).
    pub x_pred: S::VX,
    /// `F·P` (`x_dim × x_dim`).
    pub fp: S::XX,
    /// `Fᵀ` (`x_dim × x_dim`).
    pub ft: S::XX,
    /// Predicted covariance `P_n = F·P·Fᵀ + Q` (`x_dim × x_dim`).
    pub p_pred: S::XX,
    /// `H·x̂_n` (`z_dim`).
    pub hx: S::VZ,
    /// Innovation `y = z − H·x̂_n` (`z_dim`).
    pub y: S::VZ,
    /// Kalman gain `K` (`x_dim × z_dim`).
    pub k: S::XZ,
    /// `K·y` (`x_dim`).
    pub ky: S::VX,
    /// `K·H`, overwritten in place with `I − K·H` (`x_dim × x_dim`).
    pub kh: S::XX,
    /// Updated covariance (`x_dim × x_dim`).
    pub p_new: S::XX,
    /// Nested scratch space for the gain strategy.
    pub gain: GainBuffers<T, S>,
}

/// [`StepBuffers`] on heap storage: the workspace of
/// [`KalmanFilter::step_with`](crate::KalmanFilter::step_with).
///
/// Build one with [`StepWorkspace::for_model`] (or
/// [`KalmanFilter::workspace`](crate::KalmanFilter::workspace)) and pass it
/// to every `step_with` call. A workspace may be reused across filters that
/// share the same dimensions, but not concurrently.
///
/// # Example
///
/// ```
/// use kalmmind::{KalmanFilter, KalmanModel, KalmanState};
/// use kalmmind_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), kalmmind::KalmanError> {
/// let model = KalmanModel::new(
///     Matrix::<f64>::identity(1),
///     Matrix::identity(1).scale(1e-4),
///     Matrix::identity(1),
///     Matrix::identity(1).scale(0.5),
/// )?;
/// let mut kf = KalmanFilter::gauss(model, KalmanState::zeroed(1));
/// let mut ws = kf.workspace();
/// for z in [1.0_f64, 1.1, 0.9] {
///     kf.step_with(&Vector::from_vec(vec![z]), &mut ws)?;
/// }
/// # Ok(())
/// # }
/// ```
pub type StepWorkspace<T> = StepBuffers<T, Dyn>;

impl<T: Scalar, S: Storage<T>> StepBuffers<T, S> {
    /// Creates buffers for an `x_dim`-state, `z_dim`-channel filter.
    pub fn new(x_dim: usize, z_dim: usize) -> Self {
        Self {
            x_pred: Dense::zeroed(x_dim, 1),
            fp: Dense::zeroed(x_dim, x_dim),
            ft: Dense::zeroed(x_dim, x_dim),
            p_pred: Dense::zeroed(x_dim, x_dim),
            hx: Dense::zeroed(z_dim, 1),
            y: Dense::zeroed(z_dim, 1),
            k: Dense::zeroed(x_dim, z_dim),
            ky: Dense::zeroed(x_dim, 1),
            kh: Dense::zeroed(x_dim, x_dim),
            p_new: Dense::zeroed(x_dim, x_dim),
            gain: GainBuffers::new(x_dim, z_dim),
        }
    }

    /// The `(x_dim, z_dim)` pair these buffers were sized for.
    pub fn dims(&self) -> (usize, usize) {
        (self.x_pred.shape().0, self.y.shape().0)
    }
}

impl<T: Scalar> StepBuffers<T, Dyn> {
    /// Creates a workspace sized for `model`.
    pub fn for_model(model: &KalmanModel<T>) -> Self {
        Self::new(model.x_dim(), model.z_dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_sized_from_the_model() {
        let model = KalmanModel::new(
            Matrix::<f64>::identity(2),
            Matrix::identity(2),
            Matrix::zeros(3, 2),
            Matrix::identity(3),
        )
        .unwrap();
        let ws = StepWorkspace::for_model(&model);
        assert_eq!(ws.dims(), (2, 3));
        assert_eq!(ws.k.shape(), (2, 3));
        assert_eq!(ws.gain.hp.shape(), (3, 2));
        assert_eq!(ws.gain.inv.seed.shape(), (3, 3));
    }

    #[test]
    fn fit_is_a_noop_when_sized_and_resizes_otherwise() {
        let mut inv = InverseWorkspace::<f64>::new(3);
        inv.fit(3);
        assert_eq!(inv.tmp.shape(), (3, 3));
        inv.fit(5);
        assert_eq!(inv.scratch.shape(), (5, 5));
        assert_eq!(inv.seed.shape(), (5, 5));
    }
}
