//! Matrix-inversion strategies for the innovation covariance `S`.
//!
//! Inverting `S = H·P·H^T + R` (a `z_dim × z_dim` matrix, where `z_dim` is
//! the neural channel count) is the KF bottleneck the paper attacks. Every
//! strategy here implements [`InverseStrategy`], the software analogue of
//! the accelerator's swappable inversion datapath:
//!
//! * [`CalcInverse`] — Path A, exact *calculation* via a [`CalcMethod`]
//!   (Gauss, LU, Cholesky, QR);
//! * [`NewtonInverse`] — Path B only, the pure Newton–Schulz approximation
//!   seeded from the previous iteration (the paper's LITE design runs this
//!   with one internal iteration);
//! * [`InterleavedInverse`] — **the KalmMind technique**: Path A every
//!   `calc_freq`-th KF iteration, Path B otherwise, seeded per
//!   [`SeedPolicy`];
//! * [`SskfNewtonInverse`] — a constant pre-trained `S⁻¹`, optionally
//!   refined by Newton iterations (the paper's SSKF/Newton accelerator);
//! * [`IfkfInverse`] — the inverse-free KF baseline (diagonal approximation),
//!   included for the Table I comparison.

mod calc;
mod ifkf;
mod interleaved;
mod newton;
mod sskf_newton;

pub use calc::{CalcInverse, CalcMethod};
pub use ifkf::IfkfInverse;
pub use interleaved::InterleavedInverse;
pub(crate) use interleaved::{interleaved_name, PathTally, Schedule};
pub use newton::{InitialSeed, NewtonInverse};
pub use sskf_newton::SskfNewtonInverse;

use kalmmind_linalg::dense::Dense;
use kalmmind_linalg::{Matrix, Scalar};

use crate::workspace::InverseWorkspace;
use crate::Result;

/// A strategy for producing `S⁻¹` at each KF iteration.
///
/// Implementations may keep state between calls — that is the point of the
/// KalmMind seed policies, which reuse inverses across the strong temporal
/// correlation of consecutive neural measurements.
///
/// The `iteration` argument is the zero-based KF iteration index `n`; the
/// scheduler inside [`InterleavedInverse`] uses it to decide between
/// calculation and approximation.
pub trait InverseStrategy<T: Scalar>: Send + std::fmt::Debug {
    /// Computes (or approximates) the inverse of `s` for KF iteration
    /// `iteration`.
    ///
    /// # Errors
    ///
    /// Implementations report singular input, failed factorizations, and
    /// missing training through [`crate::KalmanError`].
    fn invert(&mut self, s: &Matrix<T>, iteration: usize) -> Result<Matrix<T>>;

    /// Computes the inverse into a pre-allocated `out`, using `ws` for
    /// scratch space.
    ///
    /// The default implementation delegates to [`InverseStrategy::invert`]
    /// and copies — correct for every strategy but still allocating.
    /// Strategies on the hot path ([`NewtonInverse`], [`InterleavedInverse`])
    /// override it to run allocation-free in steady state; results are
    /// bit-identical to the allocating method either way.
    ///
    /// # Errors
    ///
    /// Same as [`InverseStrategy::invert`], plus a dimension error when
    /// `out` is not shaped like `s`.
    fn invert_into(
        &mut self,
        s: &Matrix<T>,
        iteration: usize,
        out: &mut Matrix<T>,
        ws: &mut InverseWorkspace<T>,
    ) -> Result<()> {
        ws.last_path = InversePath::Unknown;
        let inv = self.invert(s, iteration)?;
        out.copy_from(&inv)?;
        Ok(())
    }

    /// Short human-readable name used in reports (e.g. `"gauss/newton"`).
    fn name(&self) -> &'static str;

    /// Clears all cross-iteration state, returning the strategy to the state
    /// it had before the first call.
    fn reset(&mut self);

    /// The interleaved schedule this strategy runs, if it is a *fresh*
    /// [`InterleavedInverse`] (no accumulated seed history). The runtime's
    /// shape dispatch uses this to decide whether a filter can be rebuilt on
    /// the monomorphized [`small`](crate::small) path; strategies that are
    /// not interleaved — or that already carry history a rebuild would lose —
    /// return `None` and stay on the dynamic path.
    fn interleaved_spec(&self) -> Option<InterleavedSpec> {
        None
    }

    /// The complete runtime state of this strategy, if it is an
    /// [`InterleavedInverse`]: registers, path counters, and the seed
    /// history matrices. This is what a session snapshot must carry to
    /// resume the calc/approx schedule bit-exactly mid-trajectory; other
    /// strategies return `None` and their sessions refuse to snapshot.
    fn interleaved_state(&self) -> Option<InterleavedState<T>> {
        None
    }
}

impl<T: Scalar> InverseStrategy<T> for Box<dyn InverseStrategy<T>> {
    fn invert(&mut self, s: &Matrix<T>, iteration: usize) -> Result<Matrix<T>> {
        (**self).invert(s, iteration)
    }

    fn invert_into(
        &mut self,
        s: &Matrix<T>,
        iteration: usize,
        out: &mut Matrix<T>,
        ws: &mut InverseWorkspace<T>,
    ) -> Result<()> {
        (**self).invert_into(s, iteration, out, ws)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn interleaved_spec(&self) -> Option<InterleavedSpec> {
        (**self).interleaved_spec()
    }

    fn interleaved_state(&self) -> Option<InterleavedState<T>> {
        (**self).interleaved_state()
    }
}

/// The four registers that fully determine an [`InterleavedInverse`] before
/// its first iteration — everything the monomorphized session needs to
/// replay the same calculation/approximation schedule bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterleavedSpec {
    /// Path A calculation method.
    pub calc: CalcMethod,
    /// Newton–Schulz internal-iteration count (the `approx` register).
    pub approx: usize,
    /// Calculation schedule (the `calc_freq` register).
    pub calc_freq: u32,
    /// Seed equation (the `policy` register).
    pub policy: SeedPolicy,
}

/// The complete cross-iteration state of an [`InterleavedInverse`]: the
/// four configuration registers, the diagnostic path counters, and the
/// seed history matrices the Newton–Schulz approximation is initialized
/// from. [`InterleavedInverse::restore`] turns this back into a strategy
/// that continues the schedule exactly where the snapshot left off.
#[derive(Debug, Clone)]
pub struct InterleavedState<T> {
    /// Path A calculation method.
    pub calc: CalcMethod,
    /// Newton–Schulz internal-iteration count (the `approx` register).
    pub approx: usize,
    /// Calculation schedule (the `calc_freq` register).
    pub calc_freq: u32,
    /// Seed equation (the `policy` register).
    pub policy: SeedPolicy,
    /// Calculation-path steps taken (diagnostics only — the schedule
    /// depends solely on the global iteration index).
    pub calc_count: usize,
    /// Approximation-path steps taken (diagnostics only).
    pub approx_count: usize,
    /// Non-finite-recovery fallbacks taken (diagnostics only).
    pub fallback_count: usize,
    /// The most recently *calculated* inverse (the Eq. 5 seed).
    pub last_calculated: Option<Matrix<T>>,
    /// The previous iteration's inverse (the Eq. 4 seed).
    pub previous: Option<Matrix<T>>,
}

/// Copies `value` into an optional history slot, reusing the existing buffer
/// when shapes match (the allocation-free steady-state path) and cloning
/// only on first use or after a dimension change.
pub(crate) fn store_history<T: Scalar, M: Dense<T> + Clone>(slot: &mut Option<M>, value: &M) {
    match slot {
        Some(existing) if existing.shape() == value.shape() => {
            existing.copy_from(value).expect("shapes were just checked");
        }
        _ => *slot = Some(value.clone()),
    }
}

/// Which inversion datapath produced the most recent `S⁻¹`.
///
/// Strategies that distinguish their datapaths ([`InterleavedInverse`],
/// [`NewtonInverse`]) tag each `invert_into` call via
/// [`InverseWorkspace::last_path`]; health monitoring reads the tag to
/// decide, e.g., whether a Newton residual is worth computing. Strategies
/// without distinct paths leave the default [`InversePath::Unknown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InversePath {
    /// The strategy did not report which path it took.
    #[default]
    Unknown,
    /// Path A: exact calculation (Gauss/LU/Cholesky/QR).
    Calc,
    /// Path B: Newton–Schulz approximation.
    Approx,
    /// An approximation step that failed its finiteness check and was
    /// recomputed exactly.
    Fallback,
}

impl InversePath {
    /// Lowercase name used in flight-record dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            InversePath::Unknown => "unknown",
            InversePath::Calc => "calc",
            InversePath::Approx => "approx",
            InversePath::Fallback => "fallback",
        }
    }

    /// Inverse of [`Self::as_str`], used when decoding session snapshots.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "unknown" => Some(InversePath::Unknown),
            "calc" => Some(InversePath::Calc),
            "approx" => Some(InversePath::Approx),
            "fallback" => Some(InversePath::Fallback),
            _ => None,
        }
    }
}

/// Which of the two seed policies initializes the Newton approximation
/// (paper Eq. 4 and Eq. 5, selected by the `policy` register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SeedPolicy {
    /// `policy = 0` (Eq. 5): seed with the most recently *calculated*
    /// inverse `S_j⁻¹`, `j = n − n mod calc_freq`, avoiding compounding of
    /// approximation error.
    #[default]
    LastCalculated,
    /// `policy = 1` (Eq. 4): seed with the previous KF iteration's inverse
    /// `S_{n−1}⁻¹`, whether it was calculated or approximated.
    PreviousIteration,
}

impl SeedPolicy {
    /// Decodes the accelerator's `policy` register value.
    ///
    /// # Errors
    ///
    /// Returns [`crate::KalmanError::BadConfig`] for values other than 0 or 1.
    pub fn from_register(value: u32) -> Result<Self> {
        match value {
            0 => Ok(Self::LastCalculated),
            1 => Ok(Self::PreviousIteration),
            other => Err(crate::KalmanError::BadConfig {
                register: "policy",
                reason: format!("must be 0 or 1, got {other}"),
            }),
        }
    }

    /// Encodes to the accelerator's `policy` register value.
    pub fn to_register(self) -> u32 {
        match self {
            Self::LastCalculated => 0,
            Self::PreviousIteration => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_policy_register_round_trip() {
        for v in [0u32, 1] {
            assert_eq!(SeedPolicy::from_register(v).unwrap().to_register(), v);
        }
    }

    #[test]
    fn seed_policy_rejects_out_of_range() {
        assert!(SeedPolicy::from_register(2).is_err());
    }

    #[test]
    fn default_policy_is_last_calculated() {
        assert_eq!(SeedPolicy::default(), SeedPolicy::LastCalculated);
    }

    #[test]
    fn boxed_strategy_forwards() {
        let mut boxed: Box<dyn InverseStrategy<f64>> =
            Box::new(CalcInverse::new(CalcMethod::Gauss));
        assert_eq!(InverseStrategy::<f64>::name(&boxed), "gauss");
        let s = Matrix::identity(3).scale(2.0);
        let inv = boxed.invert(&s, 0).unwrap();
        assert!(inv.approx_eq(&Matrix::identity(3).scale(0.5), 1e-12));
        boxed.reset();
    }
}
