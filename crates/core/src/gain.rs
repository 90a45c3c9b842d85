//! Kalman-gain strategies — the paper's isolated `compute K` module.
//!
//! The reorganization in Section III observes that `K = P·H^T·S⁻¹` depends
//! only on the predicted covariance and the constant model, never on the
//! measurement. [`GainStrategy`] captures that isolation: the filter hands a
//! [`GainContext`] (predicted covariance + model) to the strategy, and the
//! strategy may compute `K` any way it likes — through an inversion path
//! ([`InverseGain`]), a Taylor expansion of the gain itself ([`TaylorGain`]),
//! or a frozen steady-state constant ([`SskfGain`]).

use kalmmind_linalg::{Matrix, Scalar};

use crate::inverse::{CalcMethod, InverseStrategy};
use crate::workspace::GainWorkspace;
use crate::{KalmanError, KalmanModel, Result};

/// Inputs available to a gain computation at KF iteration `iteration`.
///
/// Everything here is measurement-independent — the property that lets the
/// accelerator overlap `compute K` with measurement streaming.
#[derive(Debug)]
pub struct GainContext<'a, T> {
    /// Predicted covariance `P_n = F·P_{n−1}·F^T + Q`.
    pub p_pred: &'a Matrix<T>,
    /// The constant model (for `H` and `R`).
    pub model: &'a KalmanModel<T>,
    /// Zero-based KF iteration index `n`.
    pub iteration: usize,
}

/// A strategy producing the Kalman gain `K` (a `x_dim × z_dim` matrix).
///
/// `Debug` is a supertrait so that a boxed strategy — and any session or
/// bank erasing one behind [`SessionBackend`](crate::SessionBackend) —
/// stays debuggable; every strategy in the crate derives it.
pub trait GainStrategy<T: Scalar>: Send + std::fmt::Debug {
    /// Computes the gain for this iteration.
    ///
    /// # Errors
    ///
    /// Implementations report inversion failures and configuration errors
    /// through [`KalmanError`].
    fn gain(&mut self, ctx: GainContext<'_, T>) -> Result<Matrix<T>>;

    /// Computes the gain into a pre-allocated `k` (`x_dim × z_dim`), using
    /// `ws` for scratch space.
    ///
    /// The default implementation delegates to [`GainStrategy::gain`] and
    /// copies — correct for every strategy but still allocating.
    /// [`InverseGain`] overrides it to run allocation-free in steady state;
    /// results are bit-identical to the allocating method either way.
    ///
    /// # Errors
    ///
    /// Same as [`GainStrategy::gain`], plus a dimension error when `k` is
    /// mis-sized.
    fn gain_into(
        &mut self,
        ctx: GainContext<'_, T>,
        k: &mut Matrix<T>,
        ws: &mut GainWorkspace<T>,
    ) -> Result<()> {
        ws.s_filled = false;
        let gain = self.gain(ctx)?;
        k.copy_from(&gain)?;
        Ok(())
    }

    /// Short human-readable name used in reports.
    fn name(&self) -> &'static str;

    /// Clears all cross-iteration state.
    fn reset(&mut self);

    /// The interleaved-inverse schedule behind this strategy, if it is an
    /// [`InverseGain`] over a fresh
    /// [`InterleavedInverse`](crate::inverse::InterleavedInverse). Drives the
    /// monomorphized-session shape dispatch; every other strategy keeps the
    /// `None` default and stays on the dynamic path.
    fn interleaved_spec(&self) -> Option<crate::inverse::InterleavedSpec> {
        None
    }

    /// The complete interleaved-inverse runtime state behind this strategy,
    /// if it is an [`InverseGain`] over an
    /// [`InterleavedInverse`](crate::inverse::InterleavedInverse) —
    /// registers, path counters, and seed history. Session snapshots carry
    /// this so a restored filter resumes the identical calc/approx
    /// floating-point sequence; every other strategy keeps the `None`
    /// default and its sessions refuse to snapshot.
    fn interleaved_state(&self) -> Option<crate::inverse::InterleavedState<T>> {
        None
    }
}

impl<T: Scalar> GainStrategy<T> for Box<dyn GainStrategy<T>> {
    fn gain(&mut self, ctx: GainContext<'_, T>) -> Result<Matrix<T>> {
        (**self).gain(ctx)
    }

    fn gain_into(
        &mut self,
        ctx: GainContext<'_, T>,
        k: &mut Matrix<T>,
        ws: &mut GainWorkspace<T>,
    ) -> Result<()> {
        (**self).gain_into(ctx, k, ws)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn interleaved_spec(&self) -> Option<crate::inverse::InterleavedSpec> {
        (**self).interleaved_spec()
    }

    fn interleaved_state(&self) -> Option<crate::inverse::InterleavedState<T>> {
        (**self).interleaved_state()
    }
}

/// The standard gain computation `K = P·H^T·S⁻¹` parameterized by an
/// [`InverseStrategy`] for `S⁻¹`.
///
/// # Example
///
/// ```
/// use kalmmind::gain::InverseGain;
/// use kalmmind::inverse::{CalcInverse, CalcMethod};
///
/// let gain = InverseGain::new(CalcInverse::new(CalcMethod::Gauss));
/// # let _ = gain;
/// ```
#[derive(Debug, Clone)]
pub struct InverseGain<I> {
    inverse: I,
}

impl<I> InverseGain<I> {
    /// Wraps an inversion strategy.
    pub fn new(inverse: I) -> Self {
        Self { inverse }
    }

    /// Borrow of the wrapped inversion strategy.
    pub fn inverse(&self) -> &I {
        &self.inverse
    }
}

/// Computes the innovation covariance `S = H·P·H^T + R`.
///
/// # Errors
///
/// Returns a dimension error when the model and covariance disagree.
pub fn innovation_covariance<T: Scalar>(
    model: &KalmanModel<T>,
    p_pred: &Matrix<T>,
) -> Result<Matrix<T>> {
    let hp = model.h().checked_mul(p_pred)?;
    let hpht = hp.checked_mul(&model.h().transpose())?;
    Ok(hpht.checked_add(model.r())?)
}

impl<T: Scalar, I: InverseStrategy<T>> GainStrategy<T> for InverseGain<I> {
    fn gain(&mut self, ctx: GainContext<'_, T>) -> Result<Matrix<T>> {
        let s = innovation_covariance(ctx.model, ctx.p_pred)?;
        let s_inv = self.inverse.invert(&s, ctx.iteration)?;
        let pht = ctx.p_pred.checked_mul(&ctx.model.h().transpose())?;
        Ok(pht.checked_mul(&s_inv)?)
    }

    fn gain_into(
        &mut self,
        ctx: GainContext<'_, T>,
        k: &mut Matrix<T>,
        ws: &mut GainWorkspace<T>,
    ) -> Result<()> {
        let inverse = &mut self.inverse;
        ws.inverse_gain(
            ctx.model.h(),
            ctx.model.r(),
            ctx.p_pred,
            k,
            |s, s_inv, inv| inverse.invert_into(s, ctx.iteration, s_inv, inv),
        )
    }

    fn name(&self) -> &'static str {
        self.inverse.name()
    }

    fn reset(&mut self) {
        self.inverse.reset();
    }

    fn interleaved_spec(&self) -> Option<crate::inverse::InterleavedSpec> {
        self.inverse.interleaved_spec()
    }

    fn interleaved_state(&self) -> Option<crate::inverse::InterleavedState<T>> {
        self.inverse.interleaved_state()
    }
}

/// Taylor-expansion gain (after Liu et al., FPL 2007) — approximates `S⁻¹`
/// by a truncated Taylor expansion of the matrix inverse around a
/// *pre-computed base point* `S₀⁻¹` (loaded once, like the accelerator's
/// pre-computed constants), avoiding any online matrix inversion:
///
/// ```text
/// S_n⁻¹ ≈ Σ_{k=0}^{order} (−S₀⁻¹·(S_n − S₀))^k · S₀⁻¹
/// ```
///
/// The expansion is exact at `S_n = S₀` and degrades as the filter's `S`
/// drifts from the base point — the percent-level error regime of the
/// paper's Table I (~9% average difference). Unlike the Newton path it
/// never refines its base, which is what separates the Taylor accelerator's
/// accuracy tier from LITE's.
#[derive(Debug, Clone)]
pub struct TaylorGain<T> {
    order: usize,
    /// Base point `(S₀, S₀⁻¹)`, computed exactly on the first iteration
    /// (the hardware loads it from main memory instead).
    base: Option<(Matrix<T>, Matrix<T>)>,
}

impl<T: Scalar> TaylorGain<T> {
    /// Creates the default first-order expansion used in the paper
    /// comparison.
    pub fn new() -> Self {
        Self {
            order: 1,
            base: None,
        }
    }

    /// Creates an expansion truncated at `order`.
    pub fn with_order(order: usize) -> Self {
        Self { order, base: None }
    }

    /// Creates an expansion with a pre-computed base point (the FPGA flow).
    pub fn with_base(order: usize, s0: Matrix<T>, s0_inv: Matrix<T>) -> Self {
        Self {
            order,
            base: Some((s0, s0_inv)),
        }
    }

    /// Truncation order.
    pub fn order(&self) -> usize {
        self.order
    }
}

impl<T: Scalar> Default for TaylorGain<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> GainStrategy<T> for TaylorGain<T> {
    fn gain(&mut self, ctx: GainContext<'_, T>) -> Result<Matrix<T>> {
        let s = innovation_covariance(ctx.model, ctx.p_pred)?;
        if self.base.is_none() {
            let s0_inv = CalcMethod::Lu.invert(&s)?;
            self.base = Some((s.clone(), s0_inv));
        }
        let (s0, s0_inv) = self.base.as_ref().expect("base just set");
        if s0.shape() != s.shape() {
            return Err(KalmanError::BadConfig {
                register: "z_dim",
                reason: format!("taylor base is {:?}, S is {:?}", s0.shape(), s.shape()),
            });
        }
        let delta = s.checked_sub(s0)?;
        let minus_v0_delta = -&s0_inv.checked_mul(&delta)?;
        let mut term = s0_inv.clone();
        let mut s_inv = s0_inv.clone();
        for _ in 0..self.order {
            term = minus_v0_delta.checked_mul(&term)?;
            s_inv = s_inv.checked_add(&term)?;
        }
        let pht = ctx.p_pred.checked_mul(&ctx.model.h().transpose())?;
        Ok(pht.checked_mul(&s_inv)?)
    }

    fn name(&self) -> &'static str {
        "taylor"
    }

    fn reset(&mut self) {
        self.base = None;
    }
}

/// Inverse-Free KF gain (Babu & Detroja): dimensionality reduction of the
/// measurements followed by a diagonal (minimal-cross-correlation) inverse.
///
/// The measurements are block-averaged by a factor `reduction` (`G`, an
/// `m×z` averaging projector), the reduced innovation covariance
/// `S' = G·S·Gᵀ` is inverted as if diagonal, and the gain is lifted back to
/// the full channel space: `K = P·H'ᵀ·diag(S')⁻¹·G`.
///
/// Neural channels are strongly cross-correlated, so both steps discard
/// real information — reproducing IFKF's catastrophic Table I accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfkfGain {
    reduction: usize,
}

impl IfkfGain {
    /// Creates the default 4× reduction used in the Table I comparison.
    pub fn new() -> Self {
        Self { reduction: 4 }
    }

    /// Creates a gain with a custom reduction factor (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics when `reduction` is zero.
    pub fn with_reduction(reduction: usize) -> Self {
        assert!(reduction > 0, "reduction factor must be positive");
        Self { reduction }
    }

    /// The reduction factor.
    pub fn reduction(&self) -> usize {
        self.reduction
    }

    /// The `m×z` block-averaging projector.
    fn projector<T: Scalar>(&self, z_dim: usize) -> Matrix<T> {
        let m = (z_dim / self.reduction).max(1);
        let mut g = Matrix::<T>::zeros(m, z_dim);
        for col in 0..z_dim {
            let row = (col * m / z_dim).min(m - 1);
            g[(row, col)] = T::ONE;
        }
        // Normalize each row to an average.
        for row in 0..m {
            let count = (0..z_dim).filter(|&c| g[(row, c)] != T::ZERO).count();
            let w = T::from_f64(1.0 / count as f64);
            for col in 0..z_dim {
                g[(row, col)] *= w;
            }
        }
        g
    }
}

impl Default for IfkfGain {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> GainStrategy<T> for IfkfGain {
    fn gain(&mut self, ctx: GainContext<'_, T>) -> Result<Matrix<T>> {
        let g = self.projector::<T>(ctx.model.z_dim());
        let h_red = g.checked_mul(ctx.model.h())?; // m×x
        let r_red = g.checked_mul(ctx.model.r())?.checked_mul(&g.transpose())?; // m×m
        let hp = h_red.checked_mul(ctx.p_pred)?;
        let s_red = hp.checked_mul(&h_red.transpose())?.checked_add(&r_red)?;
        let m = s_red.rows();
        let mut d_inv = Matrix::<T>::zeros(m, m);
        for i in 0..m {
            let d = s_red[(i, i)];
            if d == T::ZERO {
                return Err(KalmanError::Linalg(
                    kalmmind_linalg::LinalgError::Singular { pivot: i },
                ));
            }
            d_inv[(i, i)] = d.recip();
        }
        let k_red = ctx
            .p_pred
            .checked_mul(&h_red.transpose())?
            .checked_mul(&d_inv)?; // x×m
        Ok(k_red.checked_mul(&g)?) // x×z
    }

    fn name(&self) -> &'static str {
        "ifkf"
    }

    fn reset(&mut self) {}
}

/// Runs the covariance (Riccati) recursion of `model` for `iterations`
/// steps from `p0` and returns the settled posterior covariance `P`.
///
/// Used to (a) train the steady-state strategies and (b) start evaluation
/// windows from a converged filter, the regime a continuously-running BCI
/// decoder lives in.
///
/// # Errors
///
/// Propagates inversion failures from the recursion's gain computation.
pub fn settled_covariance<T: Scalar>(
    model: &KalmanModel<T>,
    p0: &Matrix<T>,
    iterations: usize,
) -> Result<Matrix<T>> {
    let mut p = p0.clone();
    for _ in 0..iterations {
        let p_pred = &(model.f() * &p) * &model.f().transpose() + model.q().clone();
        let s = innovation_covariance(model, &p_pred)?;
        let s_inv = CalcMethod::Lu.invert(&s)?;
        let k = &(&p_pred * &model.h().transpose()) * &s_inv;
        let ikh = Matrix::<T>::identity(model.x_dim()).checked_sub(&k.checked_mul(model.h())?)?;
        p = ikh.checked_mul(&p_pred)?;
        p.symmetrize();
    }
    Ok(p)
}

/// Steady-state KF gain (Malik et al.): a constant `K` trained offline by
/// running the covariance recursion to convergence, then frozen.
///
/// This is the cheapest possible `compute K` — a memory read — and the
/// paper's SSKF accelerator correspondingly has the best energy efficiency
/// and the worst accuracy in Table III.
#[derive(Debug, Clone)]
pub struct SskfGain<T> {
    k_const: Option<Matrix<T>>,
}

impl<T: Scalar> SskfGain<T> {
    /// Creates an *untrained* gain; call [`SskfGain::train`] (or construct
    /// with [`SskfGain::with_gain`]) before filtering.
    pub fn new() -> Self {
        Self { k_const: None }
    }

    /// Wraps a pre-computed constant gain.
    pub fn with_gain(k: Matrix<T>) -> Self {
        Self { k_const: Some(k) }
    }

    /// Trains the constant gain by iterating the covariance recursion
    /// `iterations` times with exact (`calc`) inversion.
    ///
    /// # Errors
    ///
    /// Propagates inversion failures from the recursion.
    pub fn train(
        model: &KalmanModel<T>,
        p0: &Matrix<T>,
        calc: CalcMethod,
        iterations: usize,
    ) -> Result<Self> {
        let mut p = p0.clone();
        let mut k = Matrix::<T>::zeros(model.x_dim(), model.z_dim());
        for _ in 0..iterations {
            let p_pred = &(model.f() * &p) * &model.f().transpose() + model.q().clone();
            let s = innovation_covariance(model, &p_pred)?;
            let s_inv = calc.invert(&s)?;
            k = &(&p_pred * &model.h().transpose()) * &s_inv;
            let ikh =
                Matrix::<T>::identity(model.x_dim()).checked_sub(&k.checked_mul(model.h())?)?;
            p = ikh.checked_mul(&p_pred)?;
            p.symmetrize();
        }
        Ok(Self { k_const: Some(k) })
    }

    /// The trained constant gain, if any.
    pub fn k_const(&self) -> Option<&Matrix<T>> {
        self.k_const.as_ref()
    }
}

impl<T: Scalar> Default for SskfGain<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> GainStrategy<T> for SskfGain<T> {
    fn gain(&mut self, _ctx: GainContext<'_, T>) -> Result<Matrix<T>> {
        self.k_const
            .clone()
            .ok_or(KalmanError::NotTrained { strategy: "sskf" })
    }

    fn name(&self) -> &'static str {
        "sskf"
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverse::CalcInverse;

    fn model() -> KalmanModel<f64> {
        KalmanModel::new(
            Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]).unwrap(),
            Matrix::identity(2).scale(0.01),
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, 0.5]]).unwrap(),
            Matrix::identity(3).scale(0.4),
        )
        .unwrap()
    }

    #[test]
    fn inverse_gain_matches_hand_formula() {
        let m = model();
        let p = Matrix::identity(2).scale(0.5);
        let mut g = InverseGain::new(CalcInverse::new(CalcMethod::Gauss));
        let k = g
            .gain(GainContext {
                p_pred: &p,
                model: &m,
                iteration: 0,
            })
            .unwrap();

        let s = innovation_covariance(&m, &p).unwrap();
        let s_inv = CalcMethod::Lu.invert(&s).unwrap();
        let expected = &(&p * &m.h().transpose()) * &s_inv;
        assert!(k.approx_eq(&expected, 1e-12));
        assert_eq!(k.shape(), (2, 3));
    }

    #[test]
    fn innovation_covariance_is_spd_shaped() {
        let m = model();
        let p = Matrix::identity(2);
        let s = innovation_covariance(&m, &p).unwrap();
        assert_eq!(s.shape(), (3, 3));
        // Symmetric within floating-point dust.
        assert!(s.approx_eq(&s.transpose(), 1e-12));
    }

    #[test]
    fn taylor_gain_is_exact_at_its_base_point() {
        let m = model();
        let p = Matrix::identity(2).scale(0.5);
        let mut exact = InverseGain::new(CalcInverse::new(CalcMethod::Gauss));
        let k_exact = exact
            .gain(GainContext {
                p_pred: &p,
                model: &m,
                iteration: 0,
            })
            .unwrap();
        // First call sets the base from this very S: the expansion is exact.
        let mut t = TaylorGain::new();
        let k = t
            .gain(GainContext {
                p_pred: &p,
                model: &m,
                iteration: 0,
            })
            .unwrap();
        assert!(k.approx_eq(&k_exact, 1e-10));
    }

    #[test]
    fn taylor_gain_degrades_with_drift_and_improves_with_order() {
        let m = model();
        let p0 = Matrix::identity(2).scale(0.5);
        let p_drifted = Matrix::identity(2).scale(0.65); // S moves away from S0
        let mut exact = InverseGain::new(CalcInverse::new(CalcMethod::Gauss));
        let k_exact = exact
            .gain(GainContext {
                p_pred: &p_drifted,
                model: &m,
                iteration: 1,
            })
            .unwrap();
        let mut errs = Vec::new();
        for order in [0usize, 1, 3] {
            let mut t = TaylorGain::with_order(order);
            // Base the expansion at p0's S, then query the drifted S.
            t.gain(GainContext {
                p_pred: &p0,
                model: &m,
                iteration: 0,
            })
            .unwrap();
            let k = t
                .gain(GainContext {
                    p_pred: &p_drifted,
                    model: &m,
                    iteration: 1,
                })
                .unwrap();
            errs.push(k.max_abs_diff(&k_exact));
        }
        assert!(errs[0] > 0.0, "order 0 must show drift error");
        assert!(errs[1] < errs[0], "order 1 must beat order 0: {errs:?}");
        assert!(errs[2] < errs[1], "order 3 must beat order 1: {errs:?}");
    }

    #[test]
    fn taylor_reset_rebases() {
        let m = model();
        let p0 = Matrix::identity(2).scale(0.5);
        let p1 = Matrix::identity(2).scale(2.0);
        let mut t = TaylorGain::<f64>::new();
        t.gain(GainContext {
            p_pred: &p0,
            model: &m,
            iteration: 0,
        })
        .unwrap();
        GainStrategy::<f64>::reset(&mut t);
        // After the reset the next call re-bases at p1 and is exact there.
        let k = t
            .gain(GainContext {
                p_pred: &p1,
                model: &m,
                iteration: 0,
            })
            .unwrap();
        let mut exact = InverseGain::new(CalcInverse::new(CalcMethod::Gauss));
        let k_exact = exact
            .gain(GainContext {
                p_pred: &p1,
                model: &m,
                iteration: 0,
            })
            .unwrap();
        assert!(k.approx_eq(&k_exact, 1e-10));
    }

    #[test]
    fn ifkf_gain_shape_and_determinism() {
        let m = model();
        let p = Matrix::identity(2).scale(0.5);
        let mut g = IfkfGain::with_reduction(2);
        let k1 = g
            .gain(GainContext {
                p_pred: &p,
                model: &m,
                iteration: 0,
            })
            .unwrap();
        let k2 = g
            .gain(GainContext {
                p_pred: &p,
                model: &m,
                iteration: 5,
            })
            .unwrap();
        assert_eq!(k1.shape(), (2, 3));
        assert_eq!(k1.max_abs_diff(&k2), 0.0);
    }

    #[test]
    fn ifkf_gain_is_far_from_exact_on_correlated_channels() {
        // A model whose channels are strongly correlated (shared tuning):
        // IFKF's reduction + diagonal assumption must lose badly.
        let h = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.1], &[1.0, -0.1], &[1.0, 0.05]]).unwrap();
        let r = Matrix::from_fn(4, 4, |i, j| if i == j { 0.5 } else { 0.4 });
        let m =
            KalmanModel::new(Matrix::identity(2), Matrix::identity(2).scale(0.01), h, r).unwrap();
        let p = Matrix::identity(2).scale(0.5);
        let mut exact = InverseGain::new(CalcInverse::new(CalcMethod::Gauss));
        let k_exact = exact
            .gain(GainContext {
                p_pred: &p,
                model: &m,
                iteration: 0,
            })
            .unwrap();
        let mut ifkf = IfkfGain::with_reduction(2);
        let k = ifkf
            .gain(GainContext {
                p_pred: &p,
                model: &m,
                iteration: 0,
            })
            .unwrap();
        let scale = k_exact.iter().map(|x| x.abs()).fold(0.0f64, f64::max);
        let rel = k.max_abs_diff(&k_exact) / scale;
        assert!(
            rel > 0.2,
            "IFKF must be >20% off on correlated data, got {rel}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn ifkf_rejects_zero_reduction() {
        let _ = IfkfGain::with_reduction(0);
    }

    #[test]
    fn sskf_untrained_errors() {
        let m = model();
        let p = Matrix::identity(2);
        let mut g = SskfGain::<f64>::new();
        assert!(matches!(
            g.gain(GainContext {
                p_pred: &p,
                model: &m,
                iteration: 0
            }),
            Err(KalmanError::NotTrained { strategy: "sskf" })
        ));
    }

    #[test]
    fn sskf_trained_gain_is_constant_and_near_converged_exact_gain() {
        let m = model();
        let p0 = Matrix::identity(2);
        let mut sskf = SskfGain::train(&m, &p0, CalcMethod::Gauss, 300).unwrap();

        // Converged exact gain from an independent longer run.
        let converged = SskfGain::train(&m, &p0, CalcMethod::Gauss, 600).unwrap();
        let k1 = sskf
            .gain(GainContext {
                p_pred: &p0,
                model: &m,
                iteration: 0,
            })
            .unwrap();
        let k2 = sskf
            .gain(GainContext {
                p_pred: &Matrix::identity(2).scale(9.0),
                model: &m,
                iteration: 5,
            })
            .unwrap();
        assert_eq!(
            k1.max_abs_diff(&k2),
            0.0,
            "SSKF gain must ignore the context"
        );
        assert!(k1.approx_eq(converged.k_const().unwrap(), 1e-9));
    }

    #[test]
    fn boxed_gain_strategy_forwards() {
        let m = model();
        let p = Matrix::identity(2);
        let mut boxed: Box<dyn GainStrategy<f64>> =
            Box::new(InverseGain::new(CalcInverse::new(CalcMethod::Lu)));
        assert_eq!(GainStrategy::<f64>::name(&boxed), "lu");
        let k = boxed
            .gain(GainContext {
                p_pred: &p,
                model: &m,
                iteration: 0,
            })
            .unwrap();
        assert_eq!(k.shape(), (2, 3));
        boxed.reset();
    }
}
