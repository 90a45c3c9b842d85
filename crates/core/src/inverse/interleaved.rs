//! The KalmMind technique: interleaving exact calculation with Newton–Schulz
//! approximation across consecutive KF iterations (paper Section III).

use kalmmind_linalg::dense::{self, Dense};
use kalmmind_linalg::{iterative, Matrix, Scalar};
use kalmmind_obs as obs;

use crate::inverse::{
    store_history, CalcMethod, InterleavedSpec, InterleavedState, InversePath, InverseStrategy,
    SeedPolicy,
};
use crate::workspace::{Dyn, InverseBuffers, InverseWorkspace, Storage};
use crate::{KalmanError, Result};

// Path counters (no-ops unless `obs` is enabled). These aggregate across
// every filter in the process; the per-strategy `calc_count`/`approx_count`/
// `fallback_count` fields below stay per-instance.
static OBS_PATH_CALC: obs::LazyCounter = obs::LazyCounter::labeled(
    "kf_inverse_path_total",
    "S-matrix inversions by path taken (paper Path A = calc, Path B = approx)",
    "path",
    "calc",
);
static OBS_PATH_APPROX: obs::LazyCounter = obs::LazyCounter::labeled(
    "kf_inverse_path_total",
    "S-matrix inversions by path taken (paper Path A = calc, Path B = approx)",
    "path",
    "approx",
);
static OBS_FALLBACKS: obs::LazyCounter = obs::LazyCounter::new(
    "kf_inverse_fallback_total",
    "Approximation-path inversions whose Newton output was non-finite and were recomputed exactly",
);
static OBS_NEWTON_ITERS: obs::LazyCounter = obs::LazyCounter::new(
    "kf_newton_iterations_total",
    "Newton-Schulz internal iterations executed across all strategies",
);

/// Per-instance path counts (diagnostics only — the schedule depends solely
/// on the global iteration index).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PathTally {
    calc: usize,
    approx: usize,
    fallback: usize,
}

impl PathTally {
    // Single bookkeeping site per event: each feeds both the per-instance
    // count and the process-wide obs counter, so the two never drift apart
    // between `invert` and `invert_into`, or between storage layouts.
    fn calc(&mut self) {
        self.calc += 1;
        OBS_PATH_CALC.inc();
    }

    fn approx(&mut self, newton_iters: usize) {
        self.approx += 1;
        OBS_PATH_APPROX.inc();
        OBS_NEWTON_ITERS.add(newton_iters as u64);
    }

    fn fallback(&mut self) {
        self.fallback += 1;
        OBS_FALLBACKS.inc();
    }
}

/// The interleaved schedule over one storage layout: the four registers and
/// the seed history. [`InterleavedInverse`] runs it on heap matrices; the
/// monomorphized session in [`small`](crate::small) runs the same code on
/// const-generic ones.
#[derive(Debug, Clone)]
pub(crate) struct Schedule<T: Scalar, S: Storage<T>> {
    pub(crate) calc: CalcMethod,
    pub(crate) approx: usize,
    pub(crate) calc_freq: u32,
    pub(crate) policy: SeedPolicy,
    /// Inverse produced by the most recent Path A iteration.
    pub(crate) last_calculated: Option<S::ZZ>,
    /// Inverse produced by the most recent iteration of either path.
    pub(crate) previous: Option<S::ZZ>,
}

impl<T: Scalar, S: Storage<T>> Schedule<T, S> {
    pub(crate) fn new(spec: InterleavedSpec) -> Self {
        Self {
            calc: spec.calc,
            approx: spec.approx,
            calc_freq: spec.calc_freq,
            policy: spec.policy,
            last_calculated: None,
            previous: None,
        }
    }

    pub(crate) fn spec(&self) -> InterleavedSpec {
        InterleavedSpec {
            calc: self.calc,
            approx: self.approx,
            calc_freq: self.calc_freq,
            policy: self.policy,
        }
    }

    /// The history matrix the seed policy picks (Eq. 5 or Eq. 4).
    fn history(&self) -> Option<&S::ZZ> {
        match self.policy {
            SeedPolicy::LastCalculated => self.last_calculated.as_ref(),
            SeedPolicy::PreviousIteration => self.previous.as_ref(),
        }
    }

    /// `S⁻¹` for KF iteration `iteration` into `out`: Path A on scheduled
    /// iterations, otherwise Path B seeded per policy (the certified safe
    /// seed when no usable history exists), recomputed exactly when Newton
    /// diverges to NaN/∞ — installing that as `previous` would poison every
    /// later PreviousIteration seed.
    pub(crate) fn invert_into(
        &mut self,
        s: &S::ZZ,
        iteration: usize,
        out: &mut S::ZZ,
        ws: &mut InverseBuffers<T, S>,
        tally: &mut PathTally,
    ) -> Result<()> {
        if InterleavedInverse::<T>::is_calc_iteration(self.calc_freq, iteration) {
            self.calculate(s, out, ws, InversePath::Calc)?;
            tally.calc();
        } else {
            match self.history() {
                Some(history) if history.shape() == s.shape() => ws.seed.copy_from(history)?,
                _ => s.safe_seed_into(&mut ws.seed)?,
            }
            tally.approx(self.approx);
            ws.last_path = InversePath::Approx;
            dense::newton_schulz_into(s, &ws.seed, self.approx, &mut ws.scratch, &mut ws.tmp, out)?;
            if !out.all_finite() {
                self.calculate(s, out, ws, InversePath::Fallback)?;
                tally.fallback();
            }
        }
        store_history(&mut self.previous, out);
        Ok(())
    }

    /// Path A (or the fallback): exact inversion through the dynamic
    /// [`CalcMethod`] factorization. It allocates inside the factorization,
    /// but runs only every `calc_freq`-th iteration (or once for
    /// `calc_freq = 0`), so the steady-state hot path is unaffected.
    fn calculate(
        &mut self,
        s: &S::ZZ,
        out: &mut S::ZZ,
        ws: &mut InverseBuffers<T, S>,
        path: InversePath,
    ) -> Result<()> {
        let inv = s.with_matrix(|s| self.calc.invert(s))?;
        ws.last_path = path;
        out.copy_from(&inv)?;
        store_history(&mut self.last_calculated, out);
        Ok(())
    }
}

/// Interleaved calculation/approximation inversion — the paper's primary
/// contribution.
///
/// At KF iteration `n` the strategy picks one of two paths:
///
/// * **Path A (calculation)** when the `calc_freq` schedule selects it:
///   `calc_freq = 1` calculates every iteration, `calc_freq = k ≥ 2` every
///   k-th iteration (`n % k == 0`), and `calc_freq = 0` only at `n = 0`.
/// * **Path B (approximation)** otherwise: `approx` Newton–Schulz internal
///   iterations, seeded per the [`SeedPolicy`]:
///   - [`SeedPolicy::LastCalculated`] (Eq. 5): `V₀ = S_j⁻¹` where `j` is the
///     last iteration that ran Path A;
///   - [`SeedPolicy::PreviousIteration`] (Eq. 4): `V₀ = S_{n−1}⁻¹`.
///
/// The seeds work because consecutive neural measurements are strongly
/// correlated, so `S_n ≈ S_{n−1}` and the previous inverse lies inside the
/// Newton quadratic-convergence basin (Eq. 3).
///
/// # Example
///
/// ```
/// use kalmmind::inverse::{CalcMethod, InterleavedInverse, InverseStrategy, SeedPolicy};
/// use kalmmind_linalg::Matrix;
///
/// # fn main() -> Result<(), kalmmind::KalmanError> {
/// // Gauss every 4th iteration, 2 Newton iterations otherwise.
/// let mut strat =
///     InterleavedInverse::new(CalcMethod::Gauss, 2, 4, SeedPolicy::LastCalculated);
/// let s = Matrix::from_rows(&[&[6.0_f64, 1.0], &[1.0, 5.0]])?;
/// for n in 0..8 {
///     let inv = strat.invert(&s, n)?;
///     assert!((&s * &inv).approx_eq(&Matrix::identity(2), 1e-6));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct InterleavedInverse<T: Scalar> {
    sched: Schedule<T, Dyn>,
    /// Path A / Path B / fallback counts (for reports and the accelerator
    /// cycle model). A fallback is a Path B iteration whose Newton output
    /// was non-finite and had to be recomputed on the calculation path.
    tally: PathTally,
}

impl<T: Scalar> InterleavedInverse<T> {
    /// Creates an interleaved strategy.
    ///
    /// `approx` is the Newton internal-iteration count (the `approx`
    /// register); `calc_freq` is the calculation schedule (the `calc_freq`
    /// register); `policy` selects the seed equation.
    pub fn new(calc: CalcMethod, approx: usize, calc_freq: u32, policy: SeedPolicy) -> Self {
        Self {
            sched: Schedule::new(InterleavedSpec {
                calc,
                approx,
                calc_freq,
                policy,
            }),
            tally: PathTally::default(),
        }
    }

    /// The calculation method of Path A.
    pub fn calc_method(&self) -> CalcMethod {
        self.sched.calc
    }

    /// The configured Newton internal-iteration count.
    pub fn approx(&self) -> usize {
        self.sched.approx
    }

    /// The configured calculation frequency.
    pub fn calc_freq(&self) -> u32 {
        self.sched.calc_freq
    }

    /// The configured seed policy.
    pub fn policy(&self) -> SeedPolicy {
        self.sched.policy
    }

    /// Number of iterations that took Path A so far.
    pub fn calc_count(&self) -> usize {
        self.tally.calc
    }

    /// Number of iterations that took Path B so far.
    pub fn approx_count(&self) -> usize {
        self.tally.approx
    }

    /// Number of Path B iterations that produced a non-finite Newton result
    /// and were recomputed exactly on the calculation path.
    ///
    /// A non-zero count means some seed violated the convergence condition
    /// (paper Eq. 3) — typically after an abrupt jump in `S` broke the
    /// temporal-correlation assumption behind the seed policies.
    pub fn fallback_count(&self) -> usize {
        self.tally.fallback
    }

    /// Rebuilds a strategy from snapshot state, resuming the calc/approx
    /// schedule exactly where [`InverseStrategy::interleaved_state`]
    /// captured it: the next approximation step seeds from the restored
    /// history matrices, so the Newton iteration runs the identical
    /// floating-point sequence the live strategy would have.
    pub fn restore(state: InterleavedState<T>) -> Self {
        Self {
            sched: Schedule {
                calc: state.calc,
                approx: state.approx,
                calc_freq: state.calc_freq,
                policy: state.policy,
                last_calculated: state.last_calculated,
                previous: state.previous,
            },
            tally: PathTally {
                calc: state.calc_count,
                approx: state.approx_count,
                fallback: state.fallback_count,
            },
        }
    }

    /// `true` when KF iteration `n` runs the calculation path under schedule
    /// `calc_freq` (paper Section III: `calc_freq = 0` calculates only at
    /// the first iteration).
    pub fn is_calc_iteration(calc_freq: u32, n: usize) -> bool {
        match calc_freq {
            0 => n == 0,
            k => n.is_multiple_of(k as usize),
        }
    }

    fn seed(&mut self, s: &Matrix<T>) -> Result<Matrix<T>> {
        match self.sched.history() {
            Some(seed) if seed.shape() == s.shape() => Ok(seed.clone()),
            // No usable history (first iteration ran Path B after a reset,
            // or the dimensions changed): fall back to the certified seed.
            _ => Ok(iterative::safe_seed(s).map_err(KalmanError::from)?),
        }
    }
}

/// The report/dump name of an interleaved strategy built on `calc` — shared
/// with the monomorphized session so both paths stamp identical strategy
/// names into flight records.
pub(crate) fn interleaved_name(calc: CalcMethod) -> &'static str {
    match calc {
        CalcMethod::Gauss => "gauss/newton",
        CalcMethod::Lu => "lu/newton",
        CalcMethod::Cholesky => "cholesky/newton",
        CalcMethod::Qr => "qr/newton",
    }
}

impl<T: Scalar> InverseStrategy<T> for InterleavedInverse<T> {
    fn invert(&mut self, s: &Matrix<T>, iteration: usize) -> Result<Matrix<T>> {
        let inv = if Self::is_calc_iteration(self.sched.calc_freq, iteration) {
            let inv = self.sched.calc.invert(s)?;
            self.tally.calc();
            self.sched.last_calculated = Some(inv.clone());
            inv
        } else {
            let seed = self.seed(s)?;
            self.tally.approx(self.sched.approx);
            let approx =
                iterative::newton_schulz(s, &seed, self.sched.approx).map_err(KalmanError::from)?;
            if approx.all_finite() {
                approx
            } else {
                // The seed violated Eq. 3 and Newton diverged to NaN/∞.
                // Installing that as `previous` would poison every later
                // PreviousIteration seed, so recompute exactly and refresh
                // the history with a certified inverse instead.
                let inv = self.sched.calc.invert(s)?;
                self.tally.fallback();
                self.sched.last_calculated = Some(inv.clone());
                inv
            }
        };
        self.sched.previous = Some(inv.clone());
        Ok(inv)
    }

    fn invert_into(
        &mut self,
        s: &Matrix<T>,
        iteration: usize,
        out: &mut Matrix<T>,
        ws: &mut InverseWorkspace<T>,
    ) -> Result<()> {
        ws.fit(s.rows());
        self.sched
            .invert_into(s, iteration, out, ws, &mut self.tally)
    }

    fn name(&self) -> &'static str {
        interleaved_name(self.sched.calc)
    }

    fn reset(&mut self) {
        self.sched.last_calculated = None;
        self.sched.previous = None;
        self.tally = PathTally::default();
    }

    fn interleaved_spec(&self) -> Option<InterleavedSpec> {
        // Only a history-free strategy is safe to rebuild elsewhere: once a
        // seed matrix exists, a monomorphized restart would diverge from
        // this instance's trajectory.
        if self.sched.last_calculated.is_some() || self.sched.previous.is_some() {
            return None;
        }
        Some(self.sched.spec())
    }

    fn interleaved_state(&self) -> Option<InterleavedState<T>> {
        Some(InterleavedState {
            calc: self.sched.calc,
            approx: self.sched.approx,
            calc_freq: self.sched.calc_freq,
            policy: self.sched.policy,
            calc_count: self.tally.calc,
            approx_count: self.tally.approx,
            fallback_count: self.tally.fallback,
            last_calculated: self.sched.last_calculated.clone(),
            previous: self.sched.previous.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalmmind_linalg::decomp::gauss;

    fn drifting_s(n: usize) -> Matrix<f64> {
        // SPD matrix drifting slowly with n, like the KF's S over correlated
        // neural measurements.
        let t = n as f64 * 0.01;
        Matrix::from_fn(6, 6, |r, c| {
            let base = if r == c {
                8.0 + t
            } else {
                1.0 / (1.0 + (r as f64 - c as f64).abs())
            };
            base + 0.05 * t * ((r + c) as f64).sin()
        })
    }

    #[test]
    fn schedule_matches_paper_semantics() {
        // calc_freq = 0: only iteration 0.
        assert!(InterleavedInverse::<f64>::is_calc_iteration(0, 0));
        for n in 1..10 {
            assert!(!InterleavedInverse::<f64>::is_calc_iteration(0, n));
        }
        // calc_freq = 1: every iteration.
        for n in 0..10 {
            assert!(InterleavedInverse::<f64>::is_calc_iteration(1, n));
        }
        // calc_freq = 3: every third.
        let pattern: Vec<bool> = (0..7)
            .map(|n| InterleavedInverse::<f64>::is_calc_iteration(3, n))
            .collect();
        assert_eq!(pattern, [true, false, false, true, false, false, true]);
    }

    #[test]
    fn tracks_drifting_matrices_with_both_policies() {
        for policy in [SeedPolicy::LastCalculated, SeedPolicy::PreviousIteration] {
            let mut strat = InterleavedInverse::new(CalcMethod::Gauss, 2, 4, policy);
            for n in 0..24 {
                let s = drifting_s(n);
                let inv = strat.invert(&s, n).unwrap();
                let exact = gauss::invert(&s).unwrap();
                assert!(
                    inv.approx_eq(&exact, 1e-6),
                    "{policy:?} diverged at n={n}: {}",
                    inv.max_abs_diff(&exact)
                );
            }
        }
    }

    #[test]
    fn path_counters_follow_schedule() {
        let mut strat =
            InterleavedInverse::new(CalcMethod::Gauss, 1, 3, SeedPolicy::LastCalculated);
        for n in 0..9 {
            strat.invert(&drifting_s(n), n).unwrap();
        }
        assert_eq!(strat.calc_count(), 3); // n = 0, 3, 6
        assert_eq!(strat.approx_count(), 6);
    }

    #[test]
    fn calc_freq_zero_calculates_once_then_approximates() {
        let mut strat =
            InterleavedInverse::new(CalcMethod::Gauss, 2, 0, SeedPolicy::PreviousIteration);
        for n in 0..12 {
            let s = drifting_s(n);
            let inv = strat.invert(&s, n).unwrap();
            let exact = gauss::invert(&s).unwrap();
            assert!(
                inv.approx_eq(&exact, 1e-4),
                "n={n}: {}",
                inv.max_abs_diff(&exact)
            );
        }
        assert_eq!(strat.calc_count(), 1);
        assert_eq!(strat.approx_count(), 11);
    }

    #[test]
    fn last_calculated_policy_reuses_only_path_a_output() {
        // With a *stationary* S, Eq. 5 seeds from the exact inverse every
        // time, so every approximation lands on the exact inverse too.
        let s = drifting_s(0);
        let exact = gauss::invert(&s).unwrap();
        let mut strat =
            InterleavedInverse::new(CalcMethod::Gauss, 1, 5, SeedPolicy::LastCalculated);
        for n in 0..10 {
            let inv = strat.invert(&s, n).unwrap();
            assert!(inv.approx_eq(&exact, 1e-12), "n={n}");
        }
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut strat =
            InterleavedInverse::new(CalcMethod::Gauss, 2, 2, SeedPolicy::LastCalculated);
        strat.invert(&drifting_s(0), 0).unwrap();
        strat.invert(&drifting_s(1), 1).unwrap();
        InverseStrategy::<f64>::reset(&mut strat);
        assert_eq!(strat.calc_count(), 0);
        assert_eq!(strat.approx_count(), 0);
    }

    #[test]
    fn name_reflects_calc_method() {
        let s: InterleavedInverse<f64> =
            InterleavedInverse::new(CalcMethod::Cholesky, 1, 1, SeedPolicy::LastCalculated);
        assert_eq!(InverseStrategy::<f64>::name(&s), "cholesky/newton");
    }

    #[test]
    fn approximation_only_start_falls_back_to_safe_seed() {
        // calc_freq = 2 means n = 1 approximates; after a reset there is no
        // history, so n = 1 must use the safe seed rather than fail.
        let mut strat =
            InterleavedInverse::new(CalcMethod::Gauss, 3, 2, SeedPolicy::LastCalculated);
        let s = drifting_s(1);
        let inv = strat.invert(&s, 1).unwrap();
        assert!(inv.all_finite());
    }

    #[test]
    fn non_finite_newton_output_falls_back_to_calculation() {
        // Warm up on a well-scaled S, then jump its magnitude by ~1e8. The
        // stale PreviousIteration seed now massively violates Eq. 3, so the
        // Newton output is non-finite and the strategy must recompute it on
        // the calculation path instead of handing back NaNs.
        let mut strat =
            InterleavedInverse::new(CalcMethod::Gauss, 8, 0, SeedPolicy::PreviousIteration);
        strat.invert(&drifting_s(0), 0).unwrap();
        assert_eq!(strat.fallback_count(), 0);

        let jumped = drifting_s(1).scale(1e8);
        let inv = strat.invert(&jumped, 1).unwrap();
        assert!(inv.all_finite(), "fallback must return a finite inverse");
        let exact = gauss::invert(&jumped).unwrap();
        assert!(
            inv.approx_eq(&exact, 1e-12),
            "fallback must be the exact inverse"
        );
        assert_eq!(strat.fallback_count(), 1);
    }

    #[test]
    fn history_recovers_after_fallback() {
        // After the fallback, `previous` holds the certified inverse, so the
        // next approximated iteration must be back inside the quadratic
        // convergence basin (no second fallback, accurate result).
        let mut strat =
            InterleavedInverse::new(CalcMethod::Gauss, 8, 0, SeedPolicy::PreviousIteration);
        strat.invert(&drifting_s(0), 0).unwrap();
        strat.invert(&drifting_s(1).scale(1e8), 1).unwrap();
        assert_eq!(strat.fallback_count(), 1);

        let s2 = drifting_s(2).scale(1e8);
        let inv = strat.invert(&s2, 2).unwrap();
        assert_eq!(
            strat.fallback_count(),
            1,
            "recovered seed must not fall back again"
        );
        let exact = gauss::invert(&s2).unwrap();
        assert!(inv.approx_eq(&exact, 1e-6), "{}", inv.max_abs_diff(&exact));
    }

    #[test]
    fn reset_clears_fallback_count() {
        let mut strat =
            InterleavedInverse::new(CalcMethod::Gauss, 8, 0, SeedPolicy::PreviousIteration);
        strat.invert(&drifting_s(0), 0).unwrap();
        strat.invert(&drifting_s(1).scale(1e8), 1).unwrap();
        assert_eq!(strat.fallback_count(), 1);
        InverseStrategy::<f64>::reset(&mut strat);
        assert_eq!(strat.fallback_count(), 0);
    }

    #[test]
    fn higher_approx_tightens_the_approximated_iterations() {
        let exact_at = |n: usize| gauss::invert(&drifting_s(n)).unwrap();
        let mut err_by_approx = Vec::new();
        for approx in [1usize, 3] {
            let mut strat =
                InterleavedInverse::new(CalcMethod::Gauss, approx, 6, SeedPolicy::LastCalculated);
            let mut worst: f64 = 0.0;
            for n in 0..12 {
                let inv = strat.invert(&drifting_s(n), n).unwrap();
                worst = worst.max(inv.max_abs_diff(&exact_at(n)));
            }
            err_by_approx.push(worst);
        }
        assert!(
            err_by_approx[1] < err_by_approx[0],
            "approx=3 must beat approx=1: {err_by_approx:?}"
        );
    }
}
