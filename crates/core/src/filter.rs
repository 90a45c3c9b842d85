//! The Kalman-filter recursion, reorganized as in the paper.

use kalmmind_linalg::{Matrix, Scalar, Vector};
use kalmmind_obs as obs;

use crate::gain::{GainContext, GainStrategy, InverseGain};
use crate::inverse::{CalcInverse, CalcMethod};
use crate::kernel::{self, ModelRef};
use crate::workspace::StepWorkspace;
use crate::{KalmMindConfig, KalmanError, KalmanModel, KalmanState, Result};

// Phase timers for the reorganized step (no-ops unless `obs` is enabled).
// Separate histogram families rather than one labeled family because the
// exporter keys histograms by name; the `kf_` prefix groups them. The one
// allocation-free step in `kernel` feeds them for both storage layouts.
pub(crate) static OBS_STEPS: obs::LazyCounter =
    obs::LazyCounter::new("kf_steps_total", "Workspace KF iterations completed");
pub(crate) static OBS_PREDICT: obs::LazyHistogram = obs::LazyHistogram::new(
    "kf_predict_seconds",
    "Wall time of the measurement-independent predict phase",
    obs::LATENCY_SECONDS_BUCKETS,
);
pub(crate) static OBS_GAIN: obs::LazyHistogram = obs::LazyHistogram::new(
    "kf_gain_seconds",
    "Wall time of the gain (compute-K) phase, including the S inversion",
    obs::LATENCY_SECONDS_BUCKETS,
);
pub(crate) static OBS_UPDATE: obs::LazyHistogram = obs::LazyHistogram::new(
    "kf_update_seconds",
    "Wall time of the measurement update phase",
    obs::LATENCY_SECONDS_BUCKETS,
);

/// A Kalman filter with a pluggable Kalman-gain strategy.
///
/// The step order follows the paper's reorganization (Fig. 1): the predicted
/// covariance and the gain `K` are computed *before* the measurement is
/// touched, because `K` is independent of `z_n` and of the innovation. In
/// hardware this enables overlapping `compute K` with measurement streaming;
/// in this software model it keeps the dataflow identical to the
/// accelerator's.
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
/// let state = kf.step(&Vector::from_vec(vec![2.0]))?;
/// assert!(state.x()[0] > 0.0);
/// # Ok(())
/// # }
/// ```
pub struct KalmanFilter<T, G> {
    model: KalmanModel<T>,
    state: KalmanState<T>,
    gain: G,
    iteration: usize,
}

impl<T: Scalar, G> std::fmt::Debug for KalmanFilter<T, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KalmanFilter")
            .field("x_dim", &self.model.x_dim())
            .field("z_dim", &self.model.z_dim())
            .field("iteration", &self.iteration)
            .finish_non_exhaustive()
    }
}

impl<T: Scalar> KalmanFilter<T, InverseGain<CalcInverse>> {
    /// Creates the baseline filter: exact Gauss inversion every iteration
    /// (the paper's *baseline*).
    pub fn gauss(model: KalmanModel<T>, init: KalmanState<T>) -> Self {
        Self::new(
            model,
            init,
            InverseGain::new(CalcInverse::new(CalcMethod::Gauss)),
        )
    }
}

impl<T: Scalar> KalmanFilter<T, Box<dyn GainStrategy<T>>> {
    /// Creates a filter from a KalmMind register configuration — the
    /// software equivalent of programming the accelerator's `approx`,
    /// `calc_freq` and `policy` registers.
    ///
    /// # Errors
    ///
    /// Returns [`KalmanError::BadVector`] when `init` does not match the
    /// model's state dimension.
    pub fn with_config(
        model: KalmanModel<T>,
        init: KalmanState<T>,
        config: &KalmMindConfig,
    ) -> Result<Self> {
        if init.dim() != model.x_dim() {
            return Err(KalmanError::BadVector {
                expected: model.x_dim(),
                actual: init.dim(),
                what: "state",
            });
        }
        let gain: Box<dyn GainStrategy<T>> = Box::new(InverseGain::new(config.build_inverse()));
        Ok(Self::new(model, init, gain))
    }
}

impl<T: Scalar, G: GainStrategy<T>> KalmanFilter<T, G> {
    /// Creates a filter from a model, an initial state and a gain strategy.
    ///
    /// # Panics
    ///
    /// Panics when `init.dim() != model.x_dim()` (use
    /// [`KalmanFilter::with_config`] for a fallible constructor).
    pub fn new(model: KalmanModel<T>, init: KalmanState<T>, gain: G) -> Self {
        assert_eq!(
            init.dim(),
            model.x_dim(),
            "initial state dimension must match the model"
        );
        Self {
            model,
            state: init,
            gain,
            iteration: 0,
        }
    }

    /// Rebuilds a filter at a mid-trajectory point (snapshot restore):
    /// like [`KalmanFilter::new`] but resuming from a non-zero iteration
    /// counter, so the interleaved calc/approx schedule continues where
    /// the snapshot was captured instead of restarting at `n = 0`.
    pub(crate) fn restore(
        model: KalmanModel<T>,
        state: KalmanState<T>,
        gain: G,
        iteration: usize,
    ) -> Self {
        assert_eq!(
            state.dim(),
            model.x_dim(),
            "restored state dimension must match the model"
        );
        Self {
            model,
            state,
            gain,
            iteration,
        }
    }

    /// Borrow of the model.
    pub fn model(&self) -> &KalmanModel<T> {
        &self.model
    }

    /// Borrow of the current state.
    pub fn state(&self) -> &KalmanState<T> {
        &self.state
    }

    /// Zero-based index of the next iteration.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Name of the gain strategy (for reports).
    pub fn strategy_name(&self) -> &'static str {
        self.gain.name()
    }

    /// Borrow of the gain strategy (the shape dispatch in
    /// [`small`](crate::small) inspects it for an interleaved schedule).
    pub fn gain(&self) -> &G {
        &self.gain
    }

    /// Runs one KF iteration on measurement `z` (paper Fig. 2, reorganized).
    ///
    /// # Errors
    ///
    /// * [`KalmanError::BadVector`] if `z.len() != z_dim`.
    /// * Gain/inversion failures from the configured strategy.
    pub fn step(&mut self, z: &Vector<T>) -> Result<&KalmanState<T>> {
        if z.len() != self.model.z_dim() {
            return Err(KalmanError::BadVector {
                expected: self.model.z_dim(),
                actual: z.len(),
                what: "measurement",
            });
        }
        let f = self.model.f();
        let h = self.model.h();

        // --- Predict (measurement-independent) ---
        let x_pred = f.mul_vector(self.state.x())?;
        let mut p_pred = &(f * self.state.p()) * &f.transpose() + self.model.q().clone();
        p_pred.symmetrize();

        // --- Compute K (measurement-independent: the reorganized module) ---
        let k = self.gain.gain(GainContext {
            p_pred: &p_pred,
            model: &self.model,
            iteration: self.iteration,
        })?;

        // --- Update (needs the measurement) ---
        let y = z.checked_sub(&h.mul_vector(&x_pred)?)?; // innovation
        let x_new = x_pred.checked_add(&k.mul_vector(&y)?)?;
        let ikh = Matrix::<T>::identity(self.model.x_dim()).checked_sub(&k.checked_mul(h)?)?;
        let mut p_new = ikh.checked_mul(&p_pred)?;
        p_new.symmetrize();

        // Double-buffer swap.
        self.state.replace(x_new, p_new);
        self.iteration += 1;
        Ok(&self.state)
    }

    /// Creates a [`StepWorkspace`] sized for this filter's model.
    ///
    /// Allocate it once and pass it to every [`KalmanFilter::step_with`]
    /// call; the same workspace may be reused across filters sharing the
    /// model dimensions.
    pub fn workspace(&self) -> StepWorkspace<T> {
        StepWorkspace::for_model(&self.model)
    }

    /// Runs one KF iteration on measurement `z` using pre-allocated scratch
    /// buffers — the allocation-free twin of [`KalmanFilter::step`].
    ///
    /// Every arithmetic operation happens in the same order as in `step`,
    /// so the two produce bit-identical states; the difference is purely
    /// that all intermediates live in `ws` (the software analogue of the
    /// accelerator's PLM banks). With a warmed-up [`InterleavedInverse`]
    /// (`calc_freq = 0`) or [`NewtonInverse`] strategy, steady-state calls
    /// perform zero heap allocations.
    ///
    /// [`InterleavedInverse`]: crate::inverse::InterleavedInverse
    /// [`NewtonInverse`]: crate::inverse::NewtonInverse
    ///
    /// # Errors
    ///
    /// * [`KalmanError::BadVector`] if `z.len() != z_dim`.
    /// * Dimension errors if `ws` was sized for a different model.
    /// * Gain/inversion failures from the configured strategy.
    pub fn step_with(
        &mut self,
        z: &Vector<T>,
        ws: &mut StepWorkspace<T>,
    ) -> Result<&KalmanState<T>> {
        if z.len() != self.model.z_dim() {
            return Err(KalmanError::BadVector {
                expected: self.model.z_dim(),
                actual: z.len(),
                what: "measurement",
            });
        }
        let (model, gain, iteration) = (&self.model, &mut self.gain, self.iteration);
        let (x, p) = self.state.parts_mut();
        kernel::step(
            ModelRef {
                f: model.f(),
                q: model.q(),
                h: model.h(),
            },
            x,
            p,
            z,
            ws,
            |p_pred, k, gain_ws| {
                gain.gain_into(
                    GainContext {
                        p_pred,
                        model,
                        iteration,
                    },
                    k,
                    gain_ws,
                )
            },
        )?;
        self.iteration += 1;
        Ok(&self.state)
    }

    /// Runs one KF iteration and feeds its diagnostics to a
    /// [`HealthMonitor`] — [`KalmanFilter::step_with`] followed by a
    /// read-only probe of the workspace the step just filled.
    ///
    /// The probe happens strictly *after* the step completes and only reads
    /// `ws`/`state`, so the state trajectory is bit-identical to an
    /// unmonitored `step_with` run (pinned by `tests/obs_invariance.rs`).
    ///
    /// [`HealthMonitor`]: crate::health::HealthMonitor
    ///
    /// # Errors
    ///
    /// Same as [`KalmanFilter::step_with`]. On error the monitor is *not*
    /// fed (the workspace holds stale data); callers typically
    /// [`HealthMonitor::mark_diverged`](crate::health::HealthMonitor::mark_diverged)
    /// instead.
    pub fn step_monitored(
        &mut self,
        z: &Vector<T>,
        ws: &mut StepWorkspace<T>,
        monitor: &mut crate::health::HealthMonitor,
    ) -> Result<crate::health::StepDiagnostics> {
        self.step_with(z, ws)?;
        let diag = crate::health::StepDiagnostics::from_step(ws, &self.state, self.iteration - 1);
        monitor.observe(&diag);
        Ok(diag)
    }

    /// Runs the filter over a sequence of measurements, returning the
    /// predicted state vector after each iteration.
    ///
    /// # Errors
    ///
    /// Stops at the first failing iteration and returns its error.
    pub fn run<'a, I>(&mut self, measurements: I) -> Result<Vec<Vector<T>>>
    where
        I: IntoIterator<Item = &'a Vector<T>>,
        T: 'a,
    {
        let mut outputs = Vec::new();
        for z in measurements {
            outputs.push(self.step(z)?.x().clone());
        }
        Ok(outputs)
    }

    /// Replaces the model in place — used by adaptive decoders that refit
    /// the observation model as neural tuning drifts (Section VI).
    ///
    /// The filter state and strategy history are *kept*: the warm Newton
    /// seeds must absorb the resulting jump in `S`, exactly as they absorb
    /// the data's own drift.
    ///
    /// # Panics
    ///
    /// Panics if the new model's dimensions differ from the old one's.
    pub fn set_model(&mut self, model: KalmanModel<T>) {
        assert_eq!(
            model.x_dim(),
            self.model.x_dim(),
            "x_dim cannot change at runtime"
        );
        assert_eq!(
            model.z_dim(),
            self.model.z_dim(),
            "z_dim cannot change at runtime"
        );
        self.model = model;
    }

    /// Resets the filter to a new initial state and clears strategy history.
    pub fn reset(&mut self, init: KalmanState<T>) {
        assert_eq!(init.dim(), self.model.x_dim());
        self.state = init;
        self.iteration = 0;
        self.gain.reset();
    }
}

/// Runs the *reference* filter — `f64` with LU inversion, the NumPy
/// equivalent — over a measurement sequence and returns the state
/// trajectory.
///
/// Every accuracy number in the reproduction is computed against this
/// function's output, mirroring how the paper compares every accelerator
/// against the NumPy implementation of Glaser et al.
///
/// # Errors
///
/// Propagates filter errors (singular `S`, shape mismatches).
pub fn reference_filter(
    model: &KalmanModel<f64>,
    init: &KalmanState<f64>,
    measurements: &[Vector<f64>],
) -> Result<Vec<Vector<f64>>> {
    let gain = InverseGain::new(CalcInverse::new(CalcMethod::Lu));
    let mut kf = KalmanFilter::new(model.clone(), init.clone(), gain);
    kf.run(measurements.iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverse::{InterleavedInverse, SeedPolicy};

    /// 2-state constant-velocity model observed through 3 channels.
    fn model() -> KalmanModel<f64> {
        KalmanModel::new(
            Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]).unwrap(),
            Matrix::identity(2).scale(1e-3),
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap(),
            Matrix::identity(3).scale(0.2),
        )
        .unwrap()
    }

    fn measurements(n: usize) -> Vec<Vector<f64>> {
        // Noise-free observations of a constant-velocity trajectory.
        (0..n)
            .map(|t| {
                let pos = 0.1 * t as f64;
                let vel = 1.0;
                Vector::from_vec(vec![pos, vel, pos + vel])
            })
            .collect()
    }

    #[test]
    fn converges_to_the_true_trajectory() {
        let mut kf = KalmanFilter::gauss(model(), KalmanState::zeroed(2));
        let zs = measurements(50);
        let out = kf.run(zs.iter()).unwrap();
        let last = out.last().unwrap();
        assert!((last[1] - 1.0).abs() < 0.05, "velocity estimate {last:?}");
    }

    #[test]
    fn rejects_wrong_measurement_length() {
        let mut kf = KalmanFilter::gauss(model(), KalmanState::zeroed(2));
        let err = kf.step(&Vector::zeros(2)).unwrap_err();
        assert!(matches!(
            err,
            KalmanError::BadVector {
                expected: 3,
                actual: 2,
                ..
            }
        ));
    }

    #[test]
    #[should_panic(expected = "initial state dimension")]
    fn rejects_mismatched_initial_state() {
        let _ = KalmanFilter::gauss(model(), KalmanState::zeroed(3));
    }

    #[test]
    fn covariance_stays_symmetric_and_finite() {
        let mut kf = KalmanFilter::gauss(model(), KalmanState::zeroed(2));
        for z in &measurements(30) {
            let st = kf.step(z).unwrap();
            assert!(st.p().approx_eq(&st.p().transpose(), 1e-12));
            assert!(st.p().all_finite());
        }
    }

    #[test]
    fn covariance_contracts_from_identity() {
        let mut kf = KalmanFilter::gauss(model(), KalmanState::zeroed(2));
        for z in &measurements(20) {
            kf.step(z).unwrap();
        }
        // After assimilating 20 informative measurements the uncertainty
        // must have shrunk well below the prior.
        assert!(kf.state().p()[(0, 0)] < 0.5);
        assert!(kf.state().p()[(1, 1)] < 0.5);
    }

    #[test]
    fn interleaved_strategy_tracks_reference() {
        let zs = measurements(150);
        let reference = reference_filter(&model(), &KalmanState::zeroed(2), &zs).unwrap();

        let strat = InterleavedInverse::new(CalcMethod::Gauss, 2, 4, SeedPolicy::LastCalculated);
        let mut kf = KalmanFilter::new(model(), KalmanState::zeroed(2), InverseGain::new(strat));
        let out = kf.run(zs.iter()).unwrap();

        // The early transient is the hard part for the warm seeds: S moves
        // quickly while P collapses from its identity prior, injecting a
        // one-time state error that then decays at the filter's closed-loop
        // rate. Trajectory-level accuracy must stay high and the tail must
        // reconverge to the reference.
        let report = crate::accuracy::compare(&out, &reference);
        assert!(
            report.mse < 1e-4,
            "trajectory-level MSE too high: {report:?}"
        );
        let tail_err = out.last().unwrap().max_abs_diff(reference.last().unwrap());
        assert!(tail_err < 1e-8, "filter did not reconverge: {tail_err}");
    }

    #[test]
    fn with_config_builds_a_working_filter() {
        let cfg = KalmMindConfig::builder()
            .approx(2)
            .calc_freq(3)
            .policy(SeedPolicy::PreviousIteration)
            .build()
            .unwrap();
        let mut kf = KalmanFilter::with_config(model(), KalmanState::zeroed(2), &cfg).unwrap();
        let zs = measurements(10);
        let out = kf.run(zs.iter()).unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(kf.strategy_name(), "gauss/newton");
    }

    #[test]
    fn with_config_rejects_bad_state_dim() {
        let cfg = KalmMindConfig::builder().build().unwrap();
        let err = KalmanFilter::with_config(model(), KalmanState::zeroed(5), &cfg).unwrap_err();
        assert!(matches!(err, KalmanError::BadVector { what: "state", .. }));
    }

    #[test]
    fn reset_restarts_iteration_count_and_history() {
        let mut kf = KalmanFilter::gauss(model(), KalmanState::zeroed(2));
        let zs = measurements(5);
        kf.run(zs.iter()).unwrap();
        assert_eq!(kf.iteration(), 5);
        kf.reset(KalmanState::zeroed(2));
        assert_eq!(kf.iteration(), 0);
        assert_eq!(kf.state().x().as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn reference_filter_matches_gauss_baseline_tightly() {
        let zs = measurements(30);
        let reference = reference_filter(&model(), &KalmanState::zeroed(2), &zs).unwrap();
        let mut gauss = KalmanFilter::gauss(model(), KalmanState::zeroed(2));
        let out = gauss.run(zs.iter()).unwrap();
        for (a, b) in out.iter().zip(&reference) {
            assert!(a.max_abs_diff(b) < 1e-10);
        }
    }

    #[test]
    fn step_with_matches_step_bit_for_bit() {
        // Two identical filters, one stepped through the workspace path:
        // every intermediate op is the same, so states must be *equal*, not
        // merely approximately equal.
        let strat = || InterleavedInverse::new(CalcMethod::Gauss, 2, 4, SeedPolicy::LastCalculated);
        let mut alloc =
            KalmanFilter::new(model(), KalmanState::zeroed(2), InverseGain::new(strat()));
        let mut inplace =
            KalmanFilter::new(model(), KalmanState::zeroed(2), InverseGain::new(strat()));
        let mut ws = inplace.workspace();
        for z in &measurements(40) {
            let a = alloc.step(z).unwrap().clone();
            let b = inplace.step_with(z, &mut ws).unwrap();
            assert_eq!(a.x(), b.x());
            assert_eq!(a.p(), b.p());
        }
    }

    #[test]
    fn step_with_matches_step_for_boxed_strategies() {
        let cfg = KalmMindConfig::builder()
            .approx(1)
            .calc_freq(0)
            .build()
            .unwrap();
        let mut alloc = KalmanFilter::with_config(model(), KalmanState::zeroed(2), &cfg).unwrap();
        let mut inplace = KalmanFilter::with_config(model(), KalmanState::zeroed(2), &cfg).unwrap();
        let mut ws = inplace.workspace();
        for z in &measurements(25) {
            let a = alloc.step(z).unwrap().clone();
            let b = inplace.step_with(z, &mut ws).unwrap();
            assert_eq!(a.x(), b.x());
            assert_eq!(a.p(), b.p());
        }
    }

    #[test]
    fn step_with_rejects_wrong_measurement_length() {
        let mut kf = KalmanFilter::gauss(model(), KalmanState::zeroed(2));
        let mut ws = kf.workspace();
        let err = kf.step_with(&Vector::zeros(2), &mut ws).unwrap_err();
        assert!(matches!(
            err,
            KalmanError::BadVector {
                expected: 3,
                actual: 2,
                ..
            }
        ));
    }

    #[test]
    fn filter_runs_in_f32() {
        let m32: KalmanModel<f32> = model().cast();
        let mut kf = KalmanFilter::gauss(m32, KalmanState::zeroed(2));
        for z in &measurements(10) {
            let z32: Vector<f32> = z.cast();
            kf.step(&z32).unwrap();
        }
        assert!(kf.state().x().all_finite());
    }
}
