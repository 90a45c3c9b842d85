//! Type-erased filter sessions: the pluggable backend boundary.
//!
//! The paper's accelerator serves *differently configured* filter instances
//! from one fabric — datatype and gain schedule are per-design knobs, not
//! global ones. This module gives the software runtime the same property: a
//! [`SessionBackend`] is one steppable filter session whose element type and
//! gain strategy are erased behind an object-safe trait, so an `f64`
//! software session, a `Q16.16` fixed-point session, and a cycle-accounted
//! accelerator-model session can live side by side in one bank.
//!
//! The boundary convention is **measurements in, state out, both in `f64`**:
//! [`SessionBackend::step`] takes one measurement as an `&[f64]` slice and
//! [`SessionBackend::state`] returns the current estimate cast to `f64`.
//! Each backend converts at its edge with [`Scalar::from_f64`] /
//! [`Scalar::to_f64`] — the exact conversion the modeled DMA engine performs
//! when streaming host-side `f64` buffers into a fixed-point datapath. For
//! `T = f64` both conversions are the identity, so an erased `f64` session
//! is bit-identical to the concrete [`KalmanFilter`] it wraps (a property
//! the runtime's golden-bit tests pin down).
//!
//! Health telemetry (the [`HealthMonitor`] state machine and the
//! [`FlightRecorder`] ring) lives *inside* the backend as a
//! [`SessionHealth`] bundle, behind [`SessionBackend::health`] — every
//! backend carries its own monitor, fed only when the `obs` feature is
//! enabled, so the erased boundary exposes diagnostics without forcing the
//! caller to know the element type.

use std::fmt;

use crate::gain::GainStrategy;
use crate::health::{FlightRecorder, HealthMonitor, HealthStatus, StepDiagnostics};
use crate::workspace::{StepBuffers, Storage};
use crate::{KalmanError, KalmanFilter, KalmanState, Result, StepWorkspace};
use kalmmind_linalg::dense::Dense;
use kalmmind_linalg::{Scalar, Vector};
use kalmmind_obs as obs;

/// Failure reason recorded when a step produces a non-finite state. Shared
/// with the runtime so status strings and flight dumps agree verbatim.
pub const NON_FINITE_REASON: &str = "state diverged to a non-finite value";

/// What one successful [`SessionBackend::step`] call produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step completed and the state is finite.
    Ok,
    /// The step completed arithmetically but the state is no longer finite
    /// (floating-point backends only; saturating fixed point cannot get
    /// here). The backend has already latched its health Diverged and
    /// dumped its flight recorder.
    NonFinite,
}

impl StepOutcome {
    /// `true` for [`StepOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, Self::Ok)
    }
}

/// Cost accounting a backend may expose (all zero for pure software
/// sessions; the accelerator-model adapter reports its modeled cycle,
/// latency, and energy totals since construction).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SessionTelemetry {
    /// Modeled datapath + DMA cycles consumed so far.
    pub cycles: u64,
    /// Modeled wall time of those cycles, in seconds.
    pub latency_s: f64,
    /// Modeled energy of those cycles, in joules.
    pub energy_j: f64,
}

/// Per-session numerical-health bundle: the rolling [`HealthMonitor`], the
/// [`FlightRecorder`] ring, and the dump-on-upward-transition bookkeeping.
///
/// Owned by every backend and exposed through [`SessionBackend::health`] /
/// [`SessionBackend::health_mut`] so callers interrogate health without
/// knowing the element type. With the `obs` feature disabled the monitor is
/// never fed and stays permanently Healthy.
#[derive(Debug)]
pub struct SessionHealth {
    monitor: HealthMonitor,
    recorder: FlightRecorder,
    /// Worst health ever assessed — dumps fire on upward transitions only,
    /// so an oscillating Degraded session produces one dump, not hundreds.
    worst: HealthStatus,
    dump: Option<String>,
    /// Label stamped into flight dumps (the bank sets this to the stable
    /// session id on insert; defaults to 0 for standalone use). A `u64`
    /// end-to-end so a `SessionId` above `u32::MAX` names the right session
    /// in post-mortems on every target width.
    label: u64,
}

impl SessionHealth {
    /// Creates a fresh bundle for a session with `z_dim` measurement
    /// channels (the NIS bound depends on the innovation dimension).
    pub fn new(z_dim: usize) -> Self {
        Self {
            monitor: HealthMonitor::new(z_dim),
            recorder: FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY),
            worst: HealthStatus::Healthy,
            dump: None,
            label: 0,
        }
    }

    /// Sets the label stamped into flight-record dumps.
    pub fn set_label(&mut self, label: u64) {
        self.label = label;
    }

    /// The label stamped into flight-record dumps.
    pub fn label(&self) -> u64 {
        self.label
    }

    /// Rebuilds a bundle from snapshot state (monitor window, recorder
    /// ring, dump-on-worsening bookkeeping), so a restored session keeps
    /// producing the same health transitions and post-mortems the live
    /// session would have.
    pub(crate) fn restore(
        monitor: HealthMonitor,
        recorder: FlightRecorder,
        worst: HealthStatus,
        dump: Option<String>,
        label: u64,
    ) -> Self {
        Self {
            monitor,
            recorder,
            worst,
            dump,
            label,
        }
    }

    /// The rolling monitor (snapshot capture).
    pub(crate) fn monitor(&self) -> &HealthMonitor {
        &self.monitor
    }

    /// The flight-recorder ring (snapshot capture).
    pub(crate) fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Worst health ever assessed (snapshot capture).
    pub(crate) fn worst(&self) -> HealthStatus {
        self.worst
    }

    /// Current health verdict.
    pub fn status(&self) -> HealthStatus {
        self.monitor.status()
    }

    /// Human-readable reason for the current non-healthy status (empty
    /// while healthy).
    pub fn reason(&self) -> &str {
        self.monitor.reason()
    }

    /// The most recent flight-recorder JSON dump, if any transition or
    /// failure triggered one.
    pub fn flight_record(&self) -> Option<&str> {
        self.dump.as_deref()
    }

    /// Feeds one step's diagnostics into the monitor and ring, dumping the
    /// flight recorder when health worsens past its previous worst.
    pub(crate) fn observe(
        &mut self,
        diag: &StepDiagnostics,
        strategy: &'static str,
        steps_total: u64,
    ) {
        let health = self.monitor.observe(diag);
        self.recorder.record(diag, health);
        if health > self.worst {
            self.worst = health;
            let reason = self.monitor.reason().to_string();
            self.dump = Some(self.recorder.dump_json(
                self.label,
                strategy,
                health.as_str(),
                &reason,
                steps_total,
            ));
        }
    }

    /// Latches the monitor Diverged after a hard failure and dumps the ring
    /// with status `failed`. Obs builds only: without `obs` there are no
    /// recorded snapshots worth dumping.
    pub fn fail(&mut self, reason: &str, strategy: &'static str, steps_total: u64) {
        if obs::is_enabled() {
            self.monitor.mark_diverged(reason);
            self.worst = HealthStatus::Diverged;
            self.dump =
                Some(
                    self.recorder
                        .dump_json(self.label, strategy, "failed", reason, steps_total),
                );
        }
    }
}

/// The measurement half of the [`SessionBackend::step`] contract, shared
/// by every software session: checks the length and converts the `f64`
/// boundary slice into the session's element type.
pub(crate) fn load_measurement<T: Scalar>(z: &[f64], z_buf: &mut impl Dense<T>) -> Result<()> {
    let buf = z_buf.as_mut_slice();
    if z.len() != buf.len() {
        return Err(KalmanError::BadVector {
            expected: buf.len(),
            actual: z.len(),
            what: "session measurement",
        });
    }
    for (dst, &src) in buf.iter_mut().zip(z) {
        *dst = T::from_f64(src);
    }
    Ok(())
}

/// The health half of the [`SessionBackend::step`] contract, shared by
/// every software session whatever its storage layout: after the step ran
/// as `iteration`, probe its buffers into the health monitor (`obs` builds
/// only; the branch compiles out otherwise), and latch Diverged with a
/// flight dump on a non-finite state or an error.
pub(crate) fn finish_step<T: Scalar, S: Storage<T>>(
    outcome: Result<()>,
    health: &mut SessionHealth,
    strategy: &'static str,
    iteration: usize,
    ws: &StepBuffers<T, S>,
    x: &S::VX,
    p: &S::XX,
) -> Result<StepOutcome> {
    let steps_total = iteration as u64 + 1;
    match outcome {
        Ok(()) => {
            let finite = x.all_finite() && p.all_finite();
            if obs::is_enabled() {
                let diag = StepDiagnostics::probe(ws, x, p, iteration);
                health.observe(&diag, strategy, steps_total);
            }
            if finite {
                Ok(StepOutcome::Ok)
            } else {
                health.fail(NON_FINITE_REASON, strategy, steps_total);
                Ok(StepOutcome::NonFinite)
            }
        }
        Err(err) => {
            // A failed step never advanced the iteration counter.
            health.fail(&err.to_string(), strategy, iteration as u64);
            Err(err)
        }
    }
}

/// One type-erased Kalman-filter session.
///
/// Object safe by construction: every method is callable on
/// `Box<dyn SessionBackend>`, and the `Send` supertrait lets a bank of
/// boxed sessions dispatch onto the worker pool. The `Any` supertrait is
/// the storage hook: the runtime's session store upcasts a boxed backend
/// to `dyn Any` and downcasts the known monomorphized `f64` sessions into
/// typed arena pools, so inline storage needs no new trait method and
/// every other implementation keeps working boxed. (`Any`'s `'static`
/// bound is vacuous here — erased sessions are always owned.)
/// Implementations:
///
/// * [`FilterSession`] — any `KalmanFilter<T, G>` (software datapath, any
///   [`Scalar`] including the Q-format fixed-point types);
/// * `AccelSession` in `kalmmind-accel` — wraps the accelerator simulator
///   so a cycle/energy-accounted session banks alongside software ones.
pub trait SessionBackend: Send + fmt::Debug + std::any::Any {
    /// `(x_dim, z_dim)` of the wrapped model.
    fn dims(&self) -> (usize, usize);

    /// Label of the element type the session computes in (`"f64"`,
    /// `"q16.16"`, …).
    fn scalar_name(&self) -> &'static str;

    /// Label of the executing backend (`"software"`, `"software-mono"`,
    /// or `"accel-sim"`).
    fn backend_name(&self) -> &'static str;

    /// Name of the wrapped gain strategy (stamped into flight dumps).
    fn strategy_name(&self) -> &'static str;

    /// Completed KF iterations.
    fn iteration(&self) -> usize;

    /// Steps the filter once on measurement `z` (one `f64` per channel).
    ///
    /// The backend converts `z` into its element type at this boundary,
    /// feeds its health monitor when `obs` is enabled, and — on an error or
    /// a non-finite result — latches its health Diverged and dumps its
    /// flight recorder before returning.
    ///
    /// # Errors
    ///
    /// [`KalmanError::BadVector`] when `z.len() != z_dim`, plus whatever
    /// the wrapped gain strategy can produce (singular `S`, untrained
    /// strategy, …).
    fn step(&mut self, z: &[f64]) -> Result<StepOutcome>;

    /// Current state estimate, cast to `f64` at the boundary (exact for
    /// `f64` sessions, quantized for fixed point).
    fn state(&self) -> KalmanState<f64>;

    /// The session's health bundle.
    fn health(&self) -> &SessionHealth;

    /// Mutable health bundle (the bank uses this to label dumps with the
    /// session id and to record externally observed failures — a panic
    /// caught by the pool happens outside the backend's own `step`).
    fn health_mut(&mut self) -> &mut SessionHealth;

    /// Modeled cost totals; all zero for software sessions.
    fn telemetry(&self) -> SessionTelemetry {
        SessionTelemetry::default()
    }

    /// Serializes the complete session — model, state, gain registers and
    /// seed history, iteration count, health window, and flight-recorder
    /// ring — as a versioned `kalmmind.session_snapshot.v1` JSON document
    /// (see [`crate::snapshot`]). Restoring the document with
    /// [`crate::snapshot::restore`] yields a session that continues the
    /// trajectory bit-exactly.
    ///
    /// # Errors
    ///
    /// [`KalmanError::BadSnapshot`] when the backend's gain strategy does
    /// not support snapshotting (the default for backends that have not
    /// opted in).
    fn snapshot(&self) -> Result<String> {
        Err(KalmanError::BadSnapshot {
            reason: format!(
                "backend {} with strategy {} does not support snapshots",
                self.backend_name(),
                self.strategy_name()
            ),
        })
    }
}

/// Software [`SessionBackend`]: any [`KalmanFilter`] plus its private
/// [`StepWorkspace`], stepping allocation-free in the filter's own element
/// type.
#[derive(Debug)]
pub struct FilterSession<T: Scalar, G> {
    filter: KalmanFilter<T, G>,
    ws: StepWorkspace<T>,
    /// Reused measurement buffer: the `f64` boundary slice is converted
    /// into this vector each step, keeping the hot path allocation-free.
    z_buf: Vector<T>,
    health: SessionHealth,
}

impl<T: Scalar, G: GainStrategy<T>> FilterSession<T, G> {
    /// Wraps `filter` with a freshly sized workspace and health bundle.
    pub fn new(filter: KalmanFilter<T, G>) -> Self {
        let ws = filter.workspace();
        let z_dim = filter.model().z_dim();
        let health = SessionHealth::new(z_dim);
        Self {
            filter,
            ws,
            z_buf: Vector::zeros(z_dim),
            health,
        }
    }

    /// Rebuilds a session around a mid-trajectory filter and a restored
    /// health bundle (snapshot restore). The workspace and measurement
    /// buffer are freshly sized — every buffer is fully overwritten each
    /// step, so they carry no trajectory-visible state.
    pub(crate) fn from_restored(filter: KalmanFilter<T, G>, health: SessionHealth) -> Self {
        let ws = filter.workspace();
        let z_dim = filter.model().z_dim();
        Self {
            filter,
            ws,
            z_buf: Vector::zeros(z_dim),
            health,
        }
    }

    /// The wrapped filter.
    pub fn filter(&self) -> &KalmanFilter<T, G> {
        &self.filter
    }

    /// Consumes the session, returning the wrapped filter.
    pub fn into_filter(self) -> KalmanFilter<T, G> {
        self.filter
    }
}

impl<T: Scalar, G: GainStrategy<T> + 'static> SessionBackend for FilterSession<T, G> {
    fn dims(&self) -> (usize, usize) {
        (self.filter.model().x_dim(), self.filter.model().z_dim())
    }

    fn scalar_name(&self) -> &'static str {
        T::NAME
    }

    fn backend_name(&self) -> &'static str {
        "software"
    }

    fn strategy_name(&self) -> &'static str {
        self.filter.strategy_name()
    }

    fn iteration(&self) -> usize {
        self.filter.iteration()
    }

    fn step(&mut self, z: &[f64]) -> Result<StepOutcome> {
        load_measurement(z, &mut self.z_buf)?;
        let iteration = self.filter.iteration();
        let outcome = self.filter.step_with(&self.z_buf, &mut self.ws).map(|_| ());
        let state = self.filter.state();
        finish_step(
            outcome,
            &mut self.health,
            self.filter.strategy_name(),
            iteration,
            &self.ws,
            state.x(),
            state.p(),
        )
    }

    fn state(&self) -> KalmanState<f64> {
        self.filter.state().cast()
    }

    fn health(&self) -> &SessionHealth {
        &self.health
    }

    fn health_mut(&mut self) -> &mut SessionHealth {
        &mut self.health
    }

    fn snapshot(&self) -> Result<String> {
        crate::snapshot::capture_filter_session(self, "software", None).map(|s| s.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverse::{CalcMethod, InterleavedInverse, SeedPolicy};
    use crate::{gain::InverseGain, KalmanModel};
    use kalmmind_fixed::{Q16_16, Q32_32};
    use kalmmind_linalg::Matrix;

    fn model<T: Scalar>() -> KalmanModel<T> {
        let m = KalmanModel::new(
            Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]).unwrap(),
            Matrix::identity(2).scale(1e-3),
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap(),
            Matrix::identity(3).scale(0.2),
        )
        .unwrap();
        m.cast()
    }

    fn session<T: Scalar>() -> Box<dyn SessionBackend> {
        let strat = InterleavedInverse::new(CalcMethod::Gauss, 2, 4, SeedPolicy::LastCalculated);
        Box::new(FilterSession::new(KalmanFilter::new(
            model::<T>(),
            KalmanState::zeroed(2),
            InverseGain::new(strat),
        )))
    }

    fn measurement(t: usize) -> Vec<f64> {
        let pos = 0.1 * t as f64;
        vec![pos, 1.0, pos + 1.0]
    }

    #[test]
    fn erased_f64_session_is_bit_identical_to_the_concrete_filter() {
        let mut erased = session::<f64>();
        let strat = InterleavedInverse::new(CalcMethod::Gauss, 2, 4, SeedPolicy::LastCalculated);
        let mut solo = KalmanFilter::new(
            model::<f64>(),
            KalmanState::zeroed(2),
            InverseGain::new(strat),
        );
        for t in 0..30 {
            let z = measurement(t);
            assert_eq!(erased.step(&z).unwrap(), StepOutcome::Ok);
            solo.step(&Vector::from_vec(z)).unwrap();
        }
        let state = erased.state();
        assert_eq!(state.x(), solo.state().x());
        assert_eq!(state.p(), solo.state().p());
        assert_eq!(erased.iteration(), 30);
    }

    #[test]
    fn scalar_names_cover_every_leg() {
        assert_eq!(session::<f64>().scalar_name(), "f64");
        assert_eq!(session::<f32>().scalar_name(), "f32");
        assert_eq!(session::<Q16_16>().scalar_name(), "q16.16");
        assert_eq!(session::<Q32_32>().scalar_name(), "q32.32");
    }

    #[test]
    fn fixed_point_sessions_step_through_the_erased_boundary() {
        for mut s in [session::<Q16_16>(), session::<Q32_32>()] {
            for t in 0..20 {
                assert_eq!(s.step(&measurement(t)).unwrap(), StepOutcome::Ok);
            }
            assert_eq!(s.dims(), (2, 3));
            assert_eq!(s.backend_name(), "software");
            let state = s.state();
            // Saturating fixed point is always finite and must land near
            // the measured position after 20 consistent steps.
            assert!(state.x().all_finite());
            assert!(
                (state.x()[0] - 0.1 * 19.0).abs() < 0.5,
                "x: {:?}",
                state.x()
            );
            assert_eq!(s.telemetry(), SessionTelemetry::default());
        }
    }

    #[test]
    fn wrong_measurement_length_is_a_bad_vector_error() {
        let mut s = session::<f64>();
        let err = s.step(&[1.0]).unwrap_err();
        assert!(matches!(
            err,
            KalmanError::BadVector {
                expected: 3,
                actual: 1,
                ..
            }
        ));
    }
}
