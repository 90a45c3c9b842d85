//! Monomorphized filter sessions: the const-generic storage layout.
//!
//! The erased [`FilterSession`](crate::FilterSession) keeps every buffer of
//! the step in heap [`Matrix`](kalmmind_linalg::Matrix) storage sized at run
//! time. [`SmallFilterSession`] keeps them in const-generic
//! [`SmallMatrix`] storage with the model shape in the type — the layout,
//! not the arithmetic, is what differs. Both run the one step in
//! `kernel` module (predict, `S = H·P·Hᵀ + R`, the interleaved
//! `S⁻¹` schedule, `K`, update), the one diagnostics probe, and the one
//! session wrapper, so an `f64` session here produces the dynamic
//! session's bits by construction; the runtime's golden-bit tests and
//! `bench_smallmatrix` stay as regression guards.
//!
//! [`MONO_SHAPES`] lists the shapes the dispatch monomorphizes: the 2-state
//! bench model, where inline storage and compile-time trip counts pay
//! several times over, and the `(6, 46)` hippocampus decoder, where the
//! shared scratch (below) keeps each session from carrying its own
//! `z × z` work matrices. Every other shape runs dynamic.
//!
//! **Core/scratch split.** A session is two parts: [`SmallSessionCore`], the
//! state that must persist between steps (model, state, schedule registers,
//! seed history, health), and [`SmallStepScratch`], the workspace a step
//! writes before it reads. The split is what makes arena storage pay: a
//! fleet seating 10⁵–10⁶ homogeneous sessions stores one compact core per
//! session inline and shares a handful of scratches (one per worker thread).
//! Because every scratch field is (re)written by the step before any read,
//! which scratch instance a step uses cannot affect the result — the bits
//! depend only on the core. [`SmallFilterSession`] packages a core with its
//! own private scratch for standalone use; the `f64` × [`MONO_SHAPES`] cores
//! also implement [`SessionBackend`] directly, stepping through a
//! per-thread shared scratch.
//!
//! [`try_small_session`] is the shape dispatch: it accepts any fresh
//! `KalmanFilter` whose gain reports an [`InterleavedSpec`] and whose
//! dimensions match one of [`MONO_SHAPES`], and returns the original filter
//! otherwise so the caller can fall back to the erased dynamic path. The
//! runtime's `FilterBank::insert_filter` routes through it automatically.

use std::cell::RefCell;

use kalmmind_linalg::dense::Dense;
use kalmmind_linalg::small::{SmallMatrix, SmallVector};
use kalmmind_linalg::Scalar;

use crate::gain::GainStrategy;
use crate::inverse::{interleaved_name, InterleavedSpec, PathTally, Schedule};
use crate::kernel::{self, ModelRef};
use crate::session::{finish_step, load_measurement, SessionBackend, SessionHealth, StepOutcome};
use crate::snapshot::{GainBits, ModelBits, SessionSnapshot};
use crate::workspace::{Fixed, StepBuffers};
use crate::{KalmanError, KalmanFilter, KalmanModel, KalmanState, Result};
use kalmmind_fixed::{Q16_16, Q32_32};
use kalmmind_linalg::bits::{matrix_bits, vector_bits};

/// The `(x_dim, z_dim)` pairs the shape dispatch monomorphizes: the 2-state
/// bench model and the paper's `x = 6` kinematic state observed through the
/// 46 hippocampus channels.
pub const MONO_SHAPES: [(usize, usize); 2] = [(2, 3), (6, 46)];

/// A `Dense` value of layout `M` holding a copy of `src`.
fn load<T: Scalar, M: Dense<T>>(src: &impl Dense<T>) -> Result<M> {
    let (rows, cols) = src.shape();
    let mut m = M::zeroed(rows, cols);
    m.copy_from(src)?;
    Ok(m)
}

/// The persistent half of a monomorphized session: everything whose value
/// must survive from one step to the next.
///
/// Model (`F`, `Q` inline; `H`, `R` boxed since they scale with `Z`), state,
/// iteration counter, the interleaved schedule (registers and boxed seed
/// history), and the session's health bundle. This is the *whole*
/// per-session working set — for the `(2, 3)` `f64` bench shape it is a few
/// hundred bytes — which is why the runtime's typed pools store cores
/// inline and amortize one [`SmallStepScratch`] per worker thread across
/// the fleet.
pub struct SmallSessionCore<T: Scalar, const X: usize, const Z: usize> {
    f: SmallMatrix<T, X, X>,
    q: SmallMatrix<T, X, X>,
    h: Box<SmallMatrix<T, Z, X>>,
    r: Box<SmallMatrix<T, Z, Z>>,
    x: SmallVector<T, X>,
    p: SmallMatrix<T, X, X>,
    iteration: usize,
    sched: Schedule<T, Fixed<X, Z>>,
    health: SessionHealth,
}

impl<T: Scalar, const X: usize, const Z: usize> std::fmt::Debug for SmallSessionCore<T, X, Z> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmallSessionCore")
            .field("x_dim", &X)
            .field("z_dim", &Z)
            .field("iteration", &self.iteration)
            .field("strategy", &self.strategy_label())
            .finish_non_exhaustive()
    }
}

/// The transient half of a monomorphized step: the measurement buffer and
/// the step's [`StepBuffers`] on [`Fixed`] storage.
///
/// A scratch carries **no information across steps** — each
/// [`SmallSessionCore::step_with`] call overwrites every field it reads — so
/// one scratch may be shared sequentially between any number of sessions
/// of the same shape without affecting a single bit of any trajectory.
pub struct SmallStepScratch<T: Scalar, const X: usize, const Z: usize> {
    z_buf: SmallVector<T, Z>,
    ws: StepBuffers<T, Fixed<X, Z>>,
}

impl<T: Scalar, const X: usize, const Z: usize> SmallStepScratch<T, X, Z> {
    /// A zeroed scratch, ready for any session of this shape.
    pub fn new() -> Self {
        Self {
            z_buf: SmallVector::zeros(),
            ws: StepBuffers::new(X, Z),
        }
    }
}

impl<T: Scalar, const X: usize, const Z: usize> Default for SmallStepScratch<T, X, Z> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar, const X: usize, const Z: usize> std::fmt::Debug for SmallStepScratch<T, X, Z> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmallStepScratch")
            .field("x_dim", &X)
            .field("z_dim", &Z)
            .finish_non_exhaustive()
    }
}

impl<T: Scalar, const X: usize, const Z: usize> SmallSessionCore<T, X, Z> {
    /// Builds a monomorphized session core from a dynamic model, an initial
    /// state, and an interleaved schedule.
    ///
    /// # Errors
    ///
    /// Dimension errors when the model or state does not match `X`/`Z`.
    pub fn from_parts(
        model: &KalmanModel<T>,
        state: &KalmanState<T>,
        spec: InterleavedSpec,
    ) -> Result<Self> {
        Ok(Self {
            f: load(model.f())?,
            q: load(model.q())?,
            h: load(model.h())?,
            r: load(model.r())?,
            x: load(state.x())?,
            p: load(state.p())?,
            iteration: 0,
            sched: Schedule::new(spec),
            health: SessionHealth::new(Z),
        })
    }

    /// Rebuilds a monomorphized core mid-trajectory from a snapshot:
    /// [`Self::from_parts`] followed by restoring the iteration counter,
    /// the boxed seed-history matrices, and the health bundle. The dynamic
    /// restore path keeps the same state in an
    /// [`InterleavedInverse`](crate::inverse::InterleavedInverse), so both
    /// paths resume the identical floating-point sequence.
    pub(crate) fn restore_from_snapshot(snap: &SessionSnapshot) -> Result<Self> {
        let (model, state, gain) = crate::snapshot::rebuild_parts::<T>(snap)?;
        let spec = InterleavedSpec {
            calc: gain.calc,
            approx: gain.approx,
            calc_freq: gain.calc_freq,
            policy: gain.policy,
        };
        let mut core = Self::from_parts(&model, &state, spec)?;
        core.iteration = snap.iteration;
        core.sched.last_calculated = gain.last_calculated.as_ref().map(load).transpose()?;
        core.sched.previous = gain.previous.as_ref().map(load).transpose()?;
        core.health = crate::snapshot::rebuild_health(snap);
        Ok(core)
    }

    /// Captures the session as a scalar-erased [`SessionSnapshot`]. The
    /// mono path keeps no per-path counters (they live in the process-wide
    /// `obs` instruments instead), so the diagnostic counter fields are
    /// zero; the schedule itself depends only on the iteration index.
    fn capture(&self) -> SessionSnapshot {
        let sched = &self.sched;
        SessionSnapshot {
            backend: "software-mono".to_string(),
            scalar: T::NAME.to_string(),
            strategy: self.strategy_label().to_string(),
            label: self.health.label(),
            x_dim: X,
            z_dim: Z,
            iteration: self.iteration,
            model: ModelBits {
                f: matrix_bits(&self.f.to_matrix()),
                q: matrix_bits(&self.q.to_matrix()),
                h: matrix_bits(&self.h.to_matrix()),
                r: matrix_bits(&self.r.to_matrix()),
            },
            state_x: vector_bits(&self.x.to_vector()),
            state_p: matrix_bits(&self.p.to_matrix()),
            gain: GainBits {
                calc: sched.calc,
                approx: sched.approx,
                calc_freq: sched.calc_freq,
                policy: sched.policy,
                calc_count: 0,
                approx_count: 0,
                fallback_count: 0,
                last_calculated: sched
                    .last_calculated
                    .as_ref()
                    .map(|m| matrix_bits(&m.to_matrix())),
                previous: sched.previous.as_ref().map(|m| matrix_bits(&m.to_matrix())),
            },
            health: crate::snapshot::capture_health(&self.health),
            accel: None,
        }
    }

    /// One KF iteration on the measurement in `z`: the shared
    /// [`kernel::step`] with the interleaved `S⁻¹` schedule as its gain.
    fn run(&mut self, z: &SmallVector<T, Z>, ws: &mut StepBuffers<T, Fixed<X, Z>>) -> Result<()> {
        let (h, r, sched, iteration) = (&self.h, &self.r, &mut self.sched, self.iteration);
        let model = ModelRef {
            f: &self.f,
            q: &self.q,
            h,
        };
        kernel::step(model, &mut self.x, &mut self.p, z, ws, |p_pred, k, gain| {
            gain.inverse_gain(h, r, p_pred, k, |s, s_inv, inv| {
                // No per-instance counts on this layout: the process-wide
                // obs counters still see every path.
                sched.invert_into(s, iteration, s_inv, inv, &mut PathTally::default())
            })
        })?;
        self.iteration += 1;
        Ok(())
    }

    /// One unmonitored KF iteration — no diagnostics, no health accounting,
    /// just the kernel with its phase timers. `bench_smallmatrix` uses this
    /// for the like-for-like comparison against the dynamic workspace step;
    /// the monitored [`SmallSessionCore::step_with`] path is what banks run.
    ///
    /// # Errors
    ///
    /// [`KalmanError::BadVector`] when `z.len() != Z`, plus whatever the
    /// exact-inversion leg can produce (singular `S`).
    pub fn step_raw(&mut self, z: &[f64], ws: &mut SmallStepScratch<T, X, Z>) -> Result<()> {
        load_measurement(z, &mut ws.z_buf)?;
        self.run(&ws.z_buf, &mut ws.ws)
    }

    /// One monitored KF iteration through a caller-supplied scratch — the
    /// [`SessionBackend::step`] contract, so a bank-owned core and a
    /// standalone [`SmallFilterSession`] run the identical code path.
    ///
    /// # Errors
    ///
    /// Same contract as [`SessionBackend::step`].
    pub fn step_with(
        &mut self,
        z: &[f64],
        ws: &mut SmallStepScratch<T, X, Z>,
    ) -> Result<StepOutcome> {
        load_measurement(z, &mut ws.z_buf)?;
        let iteration = self.iteration;
        let outcome = self.run(&ws.z_buf, &mut ws.ws);
        let strategy = self.strategy_label();
        finish_step(
            outcome,
            &mut self.health,
            strategy,
            iteration,
            &ws.ws,
            &self.x,
            &self.p,
        )
    }

    /// Current state estimate, cast to `f64` at the boundary.
    pub fn state_f64(&self) -> KalmanState<f64> {
        KalmanState::new(self.x.to_vector().cast(), self.p.to_matrix().cast())
    }

    /// Completed KF iterations.
    pub fn iterations(&self) -> usize {
        self.iteration
    }

    /// Name of the interleaved gain schedule (stamped into flight dumps).
    pub fn strategy_label(&self) -> &'static str {
        interleaved_name(self.sched.calc)
    }
}

/// Per-thread shared scratches for the `f64` × [`MONO_SHAPES`] cores that
/// implement [`SessionBackend`] directly. A `thread_local!` inside a generic
/// function would be one static shared across *all* instantiations, so each
/// shape gets its own named static; allocation happens once per (thread,
/// shape) and the steady-state step path stays allocation-free.
macro_rules! mono_core_backend {
    ($x:literal, $z:literal, $tl:ident) => {
        thread_local! {
            static $tl: RefCell<Option<Box<SmallStepScratch<f64, $x, $z>>>> =
                const { RefCell::new(None) };
        }

        impl SessionBackend for SmallSessionCore<f64, $x, $z> {
            fn dims(&self) -> (usize, usize) {
                ($x, $z)
            }

            fn scalar_name(&self) -> &'static str {
                f64::NAME
            }

            fn backend_name(&self) -> &'static str {
                "software-mono"
            }

            fn strategy_name(&self) -> &'static str {
                self.strategy_label()
            }

            fn iteration(&self) -> usize {
                self.iteration
            }

            fn step(&mut self, z: &[f64]) -> Result<StepOutcome> {
                $tl.with(|slot| {
                    let mut slot = slot.borrow_mut();
                    let ws = slot.get_or_insert_with(|| Box::new(SmallStepScratch::new()));
                    self.step_with(z, ws)
                })
            }

            fn state(&self) -> KalmanState<f64> {
                self.state_f64()
            }

            fn health(&self) -> &SessionHealth {
                &self.health
            }

            fn health_mut(&mut self) -> &mut SessionHealth {
                &mut self.health
            }

            fn snapshot(&self) -> Result<String> {
                Ok(self.capture().to_json())
            }
        }
    };
}

mono_core_backend!(2, 3, SCRATCH_F64_2X3);
mono_core_backend!(6, 46, SCRATCH_F64_6X46);

/// A [`SessionBackend`] whose model dimensions are const generics: a
/// [`SmallSessionCore`] bundled with its own private [`SmallStepScratch`].
///
/// Built via [`try_small_session`]; reports
/// `backend_name() == "software-mono"`. The runtime's typed pools unbundle
/// it — [`SmallFilterSession::into_core`] on seating,
/// [`SmallFilterSession::from_core`] on removal — which changes where the
/// scratch lives but not one bit of the trajectory.
pub struct SmallFilterSession<T: Scalar, const X: usize, const Z: usize> {
    core: SmallSessionCore<T, X, Z>,
    ws: SmallStepScratch<T, X, Z>,
}

impl<T: Scalar, const X: usize, const Z: usize> std::fmt::Debug for SmallFilterSession<T, X, Z> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmallFilterSession")
            .field("x_dim", &X)
            .field("z_dim", &Z)
            .field("iteration", &self.core.iteration)
            .field("strategy", &self.core.strategy_label())
            .finish_non_exhaustive()
    }
}

impl<T: Scalar, const X: usize, const Z: usize> SmallFilterSession<T, X, Z> {
    /// Builds a monomorphized session from a dynamic model, an initial state,
    /// and an interleaved schedule.
    ///
    /// # Errors
    ///
    /// Dimension errors when the model or state does not match `X`/`Z`.
    pub fn from_parts(
        model: &KalmanModel<T>,
        state: &KalmanState<T>,
        spec: InterleavedSpec,
    ) -> Result<Self> {
        Ok(Self::from_core(SmallSessionCore::from_parts(
            model, state, spec,
        )?))
    }

    /// Wraps a bare core with a fresh private scratch (the removal path out
    /// of a typed pool).
    pub fn from_core(core: SmallSessionCore<T, X, Z>) -> Self {
        Self {
            core,
            ws: SmallStepScratch::new(),
        }
    }

    /// Unbundles the persistent core, discarding the private scratch (the
    /// seating path into a typed pool).
    pub fn into_core(self) -> SmallSessionCore<T, X, Z> {
        self.core
    }

    /// One unmonitored KF iteration (see [`SmallSessionCore::step_raw`]).
    ///
    /// # Errors
    ///
    /// [`KalmanError::BadVector`] when `z.len() != Z`, plus whatever the
    /// exact-inversion leg can produce (singular `S`).
    pub fn step_raw(&mut self, z: &[f64]) -> Result<()> {
        self.core.step_raw(z, &mut self.ws)
    }
}

impl<T: Scalar, const X: usize, const Z: usize> SessionBackend for SmallFilterSession<T, X, Z> {
    fn dims(&self) -> (usize, usize) {
        (X, Z)
    }

    fn scalar_name(&self) -> &'static str {
        T::NAME
    }

    fn backend_name(&self) -> &'static str {
        "software-mono"
    }

    fn strategy_name(&self) -> &'static str {
        self.core.strategy_label()
    }

    fn iteration(&self) -> usize {
        self.core.iteration
    }

    fn step(&mut self, z: &[f64]) -> Result<StepOutcome> {
        self.core.step_with(z, &mut self.ws)
    }

    fn state(&self) -> KalmanState<f64> {
        self.core.state_f64()
    }

    fn health(&self) -> &SessionHealth {
        &self.core.health
    }

    fn health_mut(&mut self) -> &mut SessionHealth {
        &mut self.core.health
    }

    fn snapshot(&self) -> Result<String> {
        Ok(self.core.capture().to_json())
    }
}

/// Restores a `"software-mono"` snapshot, dispatching over the
/// [`MONO_SHAPES`] × scalar grid exactly like [`try_small_session`] — but
/// mid-trajectory, with seed history and a non-zero iteration counter.
/// Documents at any other shape (written when `(6, 52)` and `(6, 164)` were
/// still monomorphized) restore onto the dynamic backend, which continues
/// the same bits.
pub(crate) fn restore_mono_session(snap: &SessionSnapshot) -> Result<Box<dyn SessionBackend>> {
    macro_rules! mono {
        ($t:ty, $x:literal, $z:literal) => {
            Ok(Box::new(SmallFilterSession::<$t, $x, $z>::from_core(
                SmallSessionCore::restore_from_snapshot(snap)?,
            )) as Box<dyn SessionBackend>)
        };
    }
    macro_rules! shape {
        ($x:literal, $z:literal) => {
            match snap.scalar.as_str() {
                "f64" => mono!(f64, $x, $z),
                "f32" => mono!(f32, $x, $z),
                "q16.16" => mono!(Q16_16, $x, $z),
                "q32.32" => mono!(Q32_32, $x, $z),
                other => Err(KalmanError::BadSnapshot {
                    reason: format!("unknown snapshot scalar {other:?}"),
                }),
            }
        };
    }
    match (snap.x_dim, snap.z_dim) {
        (2, 3) => shape!(2, 3),
        (6, 46) => shape!(6, 46),
        _ => crate::snapshot::restore_dynamic_session(snap),
    }
}

/// Shape dispatch: rebuilds `filter` as a monomorphized
/// [`SmallFilterSession`] when it qualifies, or hands it back unchanged for
/// the erased dynamic path.
///
/// A filter qualifies when all of the following hold:
///
/// * it is *fresh* — `iteration() == 0` and its gain strategy reports an
///   [`InterleavedSpec`] (which an
///   [`InterleavedInverse`](crate::inverse::InterleavedInverse) only does
///   before accumulating seed history);
/// * its `(x_dim, z_dim)` is one of [`MONO_SHAPES`].
///
/// # Errors
///
/// The `Err` variant is not a failure: it returns ownership of the original
/// filter, untouched, whenever the monomorphized path does not apply.
#[allow(clippy::result_large_err)]
pub fn try_small_session<T, G>(
    filter: KalmanFilter<T, G>,
) -> std::result::Result<Box<dyn SessionBackend>, KalmanFilter<T, G>>
where
    T: Scalar,
    G: GainStrategy<T> + 'static,
{
    if filter.iteration() != 0 {
        return Err(filter);
    }
    let Some(spec) = filter.gain().interleaved_spec() else {
        return Err(filter);
    };
    let dims = (filter.model().x_dim(), filter.model().z_dim());
    macro_rules! mono {
        ($x:literal, $z:literal) => {
            match SmallFilterSession::<T, $x, $z>::from_parts(filter.model(), filter.state(), spec)
            {
                Ok(session) => Ok(Box::new(session) as Box<dyn SessionBackend>),
                Err(_) => Err(filter),
            }
        };
    }
    match dims {
        (2, 3) => mono!(2, 3),
        (6, 46) => mono!(6, 46),
        _ => Err(filter),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gain::InverseGain;
    use crate::inverse::{CalcInverse, CalcMethod, InterleavedInverse, SeedPolicy};
    use crate::session::FilterSession;
    use kalmmind_linalg::Matrix;

    fn model() -> KalmanModel<f64> {
        KalmanModel::new(
            Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]).unwrap(),
            Matrix::identity(2).scale(1e-3),
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap(),
            Matrix::identity(3).scale(0.2),
        )
        .unwrap()
    }

    fn interleaved_filter() -> KalmanFilter<f64, InverseGain<InterleavedInverse<f64>>> {
        let strat = InterleavedInverse::new(CalcMethod::Gauss, 2, 4, SeedPolicy::LastCalculated);
        KalmanFilter::new(model(), KalmanState::zeroed(2), InverseGain::new(strat))
    }

    fn measurement(t: usize) -> Vec<f64> {
        let pos = 0.1 * t as f64;
        vec![pos, 1.0, pos + 1.0]
    }

    #[test]
    fn mono_session_is_bit_identical_to_the_dynamic_session() {
        let mut mono = try_small_session(interleaved_filter()).expect("2x3 must monomorphize");
        let mut dynamic: Box<dyn SessionBackend> =
            Box::new(FilterSession::new(interleaved_filter()));
        assert_eq!(mono.backend_name(), "software-mono");
        assert_eq!(dynamic.backend_name(), "software");
        // 64 steps cover both the calc (n % 4 == 0) and approx paths many
        // times over, plus the seed-history transitions between them.
        for t in 0..64 {
            let z = measurement(t);
            assert_eq!(mono.step(&z).unwrap(), StepOutcome::Ok);
            assert_eq!(dynamic.step(&z).unwrap(), StepOutcome::Ok);
        }
        let (ms, ds) = (mono.state(), dynamic.state());
        for i in 0..2 {
            assert_eq!(ms.x()[i].to_bits(), ds.x()[i].to_bits(), "x[{i}]");
            for j in 0..2 {
                assert_eq!(
                    ms.p()[(i, j)].to_bits(),
                    ds.p()[(i, j)].to_bits(),
                    "p[({i},{j})]"
                );
            }
        }
        assert_eq!(mono.iteration(), 64);
        assert_eq!(mono.dims(), (2, 3));
        assert_eq!(mono.scalar_name(), "f64");
        assert_eq!(mono.strategy_name(), "gauss/newton");
    }

    #[test]
    fn cores_sharing_one_scratch_match_private_scratch_sessions() {
        // Two cores stepped through ONE shared scratch must produce exactly
        // the bits two self-contained sessions produce — the property that
        // makes the runtime's per-thread shared scratches safe.
        let spec = InterleavedSpec {
            calc: CalcMethod::Gauss,
            approx: 2,
            calc_freq: 4,
            policy: SeedPolicy::LastCalculated,
        };
        let m = model();
        let s0 = KalmanState::zeroed(2);
        let mut core_a = SmallSessionCore::<f64, 2, 3>::from_parts(&m, &s0, spec).unwrap();
        let mut core_b = SmallSessionCore::<f64, 2, 3>::from_parts(&m, &s0, spec).unwrap();
        let mut sess_a = SmallFilterSession::<f64, 2, 3>::from_parts(&m, &s0, spec).unwrap();
        let mut sess_b = SmallFilterSession::<f64, 2, 3>::from_parts(&m, &s0, spec).unwrap();
        let mut shared = SmallStepScratch::new();
        for t in 0..32 {
            // Diverging inputs so a cross-session scratch leak would show.
            let za = measurement(t);
            let zb = measurement(t + 7);
            core_a.step_with(&za, &mut shared).unwrap();
            core_b.step_with(&zb, &mut shared).unwrap();
            sess_a.step(&za).unwrap();
            sess_b.step(&zb).unwrap();
        }
        let pairs = [
            (core_a.state_f64(), sess_a.state()),
            (core_b.state_f64(), sess_b.state()),
        ];
        for (cs, ss) in &pairs {
            for i in 0..2 {
                assert_eq!(cs.x()[i].to_bits(), ss.x()[i].to_bits());
                for j in 0..2 {
                    assert_eq!(cs.p()[(i, j)].to_bits(), ss.p()[(i, j)].to_bits());
                }
            }
        }
    }

    #[test]
    fn core_round_trip_through_session_preserves_trajectory() {
        // into_core / from_core (the pool seat/remove path) must not touch
        // the trajectory: step, unbundle, rebundle, keep stepping — same
        // bits as a session never taken apart.
        let mut whole = try_small_session(interleaved_filter()).unwrap();
        let mut parted = SmallFilterSession::<f64, 2, 3>::from_parts(
            &model(),
            &KalmanState::zeroed(2),
            InterleavedSpec {
                calc: CalcMethod::Gauss,
                approx: 2,
                calc_freq: 4,
                policy: SeedPolicy::LastCalculated,
            },
        )
        .unwrap();
        for t in 0..10 {
            whole.step(&measurement(t)).unwrap();
            parted.step(&measurement(t)).unwrap();
        }
        let mut parted = SmallFilterSession::from_core(parted.into_core());
        for t in 10..20 {
            whole.step(&measurement(t)).unwrap();
            parted.step(&measurement(t)).unwrap();
        }
        let (ws, ps) = (whole.state(), parted.state());
        for i in 0..2 {
            assert_eq!(ws.x()[i].to_bits(), ps.x()[i].to_bits());
            for j in 0..2 {
                assert_eq!(ws.p()[(i, j)].to_bits(), ps.p()[(i, j)].to_bits());
            }
        }
        assert_eq!(parted.iteration(), 20);
    }

    /// A fresh interleaved filter at `(x, z)`.
    fn filter_at(x: usize, z: usize) -> KalmanFilter<f64, InverseGain<InterleavedInverse<f64>>> {
        let m = KalmanModel::new(
            Matrix::<f64>::identity(x),
            Matrix::identity(x).scale(1e-4),
            Matrix::from_fn(z, x, |r, c| if r % x == c { 1.0 } else { 0.0 }),
            Matrix::identity(z).scale(0.5),
        )
        .unwrap();
        let strat = InterleavedInverse::new(CalcMethod::Gauss, 2, 4, SeedPolicy::LastCalculated);
        KalmanFilter::new(m, KalmanState::zeroed(x), InverseGain::new(strat))
    }

    #[test]
    fn dispatch_rejects_unknown_shapes() {
        // Shapes outside MONO_SHAPES must come back unchanged: the 1-state
        // model, and the paper's (6, 52) and (6, 164) decoders, which the
        // dynamic path serves.
        for (x, z) in [(1, 1), (6, 52), (6, 164)] {
            assert!(!MONO_SHAPES.contains(&(x, z)));
            let filter = try_small_session(filter_at(x, z))
                .expect_err("shapes outside MONO_SHAPES must stay dynamic");
            assert_eq!(filter.iteration(), 0);
            assert_eq!((filter.model().x_dim(), filter.model().z_dim()), (x, z));
        }
        for (x, z) in MONO_SHAPES {
            let mono = try_small_session(filter_at(x, z)).expect("mono shapes monomorphize");
            assert_eq!(mono.dims(), (x, z));
            assert_eq!(mono.backend_name(), "software-mono");
        }
    }

    #[test]
    fn mono_shapes_cover_the_paper_models() {
        // Of the paper's three x = 6 decoders only the 46-channel
        // hippocampus model is monomorphized; the 52- and 164-channel ones
        // run dynamic. The 2-state bench model completes the list.
        assert!(MONO_SHAPES.contains(&(6, 46)));
        assert!(MONO_SHAPES.contains(&(2, 3)));
        assert!(!MONO_SHAPES.contains(&(6, 52)));
        assert!(!MONO_SHAPES.contains(&(6, 164)));
    }

    #[test]
    fn dispatch_rejects_non_interleaved_strategies() {
        let filter = KalmanFilter::new(
            model(),
            KalmanState::zeroed(2),
            InverseGain::new(CalcInverse::new(CalcMethod::Gauss)),
        );
        assert!(try_small_session(filter).is_err());
    }

    #[test]
    fn dispatch_rejects_filters_with_history() {
        use kalmmind_linalg::Vector;
        let mut filter = interleaved_filter();
        filter.step(&Vector::from_vec(measurement(0))).unwrap();
        // One step accumulated seed history (and iteration > 0): a rebuild
        // would lose it, so the dispatch must refuse.
        assert!(try_small_session(filter).is_err());
    }

    #[test]
    fn wrong_measurement_length_is_a_bad_vector_error() {
        let mut mono = try_small_session(interleaved_filter()).unwrap();
        let err = mono.step(&[1.0]).unwrap_err();
        assert!(matches!(
            err,
            KalmanError::BadVector {
                expected: 3,
                actual: 1,
                ..
            }
        ));
    }

    #[test]
    fn retired_mono_shape_snapshots_restore_onto_the_dynamic_backend() {
        // A `software-mono` document at (6, 52), captured mid-trajectory
        // when that shape was still monomorphized: the mono capture wrote
        // the dynamic session's bits with zeroed path counters. It must
        // restore onto the dynamic backend and continue bit-for-bit.
        let z_at = |t: usize| -> Vec<f64> {
            (0..52)
                .map(|c| 0.1 * t as f64 + ((c % 7) as f64) * 0.01)
                .collect()
        };
        let mut live = FilterSession::new(filter_at(6, 52));
        for t in 0..6 {
            live.step(&z_at(t)).unwrap();
        }
        let mut snap = SessionSnapshot::from_json(&live.snapshot().unwrap()).unwrap();
        assert!(snap.gain.last_calculated.is_some() && snap.gain.previous.is_some());
        snap.backend = "software-mono".to_string();
        snap.gain.calc_count = 0;
        snap.gain.approx_count = 0;
        snap.gain.fallback_count = 0;
        let mut restored = crate::snapshot::restore(&snap.to_json()).unwrap();
        assert_eq!(restored.backend_name(), "software");
        assert_eq!(restored.iteration(), 6);
        for t in 6..20 {
            live.step(&z_at(t)).unwrap();
            restored.step(&z_at(t)).unwrap();
        }
        let (ls, rs) = (live.state(), restored.state());
        for i in 0..6 {
            assert_eq!(ls.x()[i].to_bits(), rs.x()[i].to_bits(), "x[{i}]");
            for j in 0..6 {
                assert_eq!(ls.p()[(i, j)].to_bits(), rs.p()[(i, j)].to_bits());
            }
        }
    }
}
