//! The allocation-free KF step, written once over both storage layouts.
//!
//! [`KalmanFilter::step_with`](crate::KalmanFilter::step_with) runs it on
//! heap [`Dyn`](crate::workspace::Dyn) buffers with whatever gain strategy
//! the filter carries; the monomorphized session in [`small`](crate::small)
//! runs it on const-generic [`Fixed`](crate::workspace::Fixed) buffers
//! with the interleaved schedule. Both execute these exact stages through
//! the [`Dense`] kernels both layouts share, so a trajectory's bits cannot
//! depend on its layout. The allocating
//! [`KalmanFilter::step`](crate::KalmanFilter::step) stays separate on
//! purpose: it is the independent oracle the golden tests replay against.

use kalmmind_linalg::dense::Dense;
use kalmmind_linalg::Scalar;

use crate::filter::{OBS_GAIN, OBS_PREDICT, OBS_STEPS, OBS_UPDATE};
use crate::workspace::{GainBuffers, InverseBuffers, StepBuffers, Storage};
use crate::Result;

/// The constant model matrices one step reads.
pub(crate) struct ModelRef<'a, T: Scalar, S: Storage<T>> {
    pub(crate) f: &'a S::XX,
    pub(crate) q: &'a S::XX,
    pub(crate) h: &'a S::ZX,
}

/// One KF iteration (paper Fig. 2, reorganized): predict, then the gain —
/// measurement-independent, computed by `gain` from `P_pred` into `K` —
/// then the measurement update, then the state copy-back into `x`/`p`.
/// The caller advances its iteration counter.
pub(crate) fn step<T: Scalar, S: Storage<T>>(
    model: ModelRef<'_, T, S>,
    x: &mut S::VX,
    p: &mut S::XX,
    z: &S::VZ,
    ws: &mut StepBuffers<T, S>,
    gain: impl FnOnce(&S::XX, &mut S::XZ, &mut GainBuffers<T, S>) -> Result<()>,
) -> Result<()> {
    {
        let _t = OBS_PREDICT.start_timer();
        model.f.mul_vector_into(x, &mut ws.x_pred)?;
        model.f.mul_into(p, &mut ws.fp)?;
        model.f.transpose_into(&mut ws.ft)?;
        ws.fp.mul_into(&ws.ft, &mut ws.p_pred)?;
        ws.p_pred.add_assign(model.q)?;
        ws.p_pred.symmetrize();
    }
    {
        let _t = OBS_GAIN.start_timer();
        gain(&ws.p_pred, &mut ws.k, &mut ws.gain)?;
    }
    {
        let _t = OBS_UPDATE.start_timer();
        model.h.mul_vector_into(&ws.x_pred, &mut ws.hx)?;
        ws.y.copy_from(z)?;
        ws.y.sub_assign(&ws.hx)?; // innovation
        ws.k.mul_vector_into(&ws.y, &mut ws.ky)?;
        ws.x_pred.add_assign(&ws.ky)?; // x_pred now holds x_new
        ws.k.mul_into(model.h, &mut ws.kh)?;
        // kh <- I − K·H, element-for-element the subtraction
        // `identity.checked_sub(&kh)` performs in the allocating step.
        let n = ws.kh.shape().0;
        for (i, v) in ws.kh.as_mut_slice().iter_mut().enumerate() {
            *v = if i % (n + 1) == 0 {
                T::ONE - *v
            } else {
                T::ZERO - *v
            };
        }
        ws.kh.mul_into(&ws.p_pred, &mut ws.p_new)?;
        ws.p_new.symmetrize();
    }
    // Double-buffer swap, by copy instead of by move.
    x.copy_from(&ws.x_pred)?;
    p.copy_from(&ws.p_new)?;
    OBS_STEPS.inc();
    Ok(())
}

impl<T: Scalar, S: Storage<T>> GainBuffers<T, S> {
    /// `K = P·Hᵀ·S⁻¹` into `k`, with `S = (H·P)·Hᵀ + R` inverted into
    /// `s_inv` by `invert` — operation for operation the allocating
    /// `innovation_covariance` + gain of [`InverseGain`](crate::gain::InverseGain).
    pub(crate) fn inverse_gain(
        &mut self,
        h: &S::ZX,
        r: &S::ZZ,
        p_pred: &S::XX,
        k: &mut S::XZ,
        invert: impl FnOnce(&S::ZZ, &mut S::ZZ, &mut InverseBuffers<T, S>) -> Result<()>,
    ) -> Result<()> {
        h.mul_into(p_pred, &mut self.hp)?;
        h.transpose_into(&mut self.ht)?;
        self.hp.mul_into(&self.ht, &mut self.s)?;
        self.s.add_assign(r)?;
        self.s_filled = false;
        invert(&self.s, &mut self.s_inv, &mut self.inv)?;
        self.s_filled = true;
        p_pred.mul_into(&self.ht, &mut self.pht)?;
        self.pht.mul_into(&self.s_inv, k)?;
        Ok(())
    }
}
