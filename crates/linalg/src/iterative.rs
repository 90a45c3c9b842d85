//! Newton–Schulz iterative matrix-inverse approximation.
//!
//! This is the paper's *approximation* path (Path B in Fig. 3b) and the core
//! of the KalmMind technique. The iteration (paper Eq. 2, after Ben-Israel
//! and Schulz) is
//!
//! ```text
//! V_{i+1} = V_i · (2·I − A·V_i),      i = 0, 1, …, m−1
//! ```
//!
//! and converges quadratically to `A^{-1}` whenever the seed satisfies
//! `‖I − A·V_0‖ < 1` (paper Eq. 3). The iteration contains only matrix
//! multiplications — no divisions — which is why the hardware can run it on a
//! wide, fully pipelined MAC array, and why it avoids the numerical error of
//! division-based calculation.

use crate::dense;
use crate::{norms, LinalgError, Matrix, Result, Scalar};

/// One Newton–Schulz step: `V · (2I − A·V)`.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] / [`LinalgError::DimensionMismatch`]
/// when `a` is not square or `v` has a different shape.
///
/// # Example
///
/// ```
/// use kalmmind_linalg::{Matrix, iterative};
///
/// # fn main() -> Result<(), kalmmind_linalg::LinalgError> {
/// let a = Matrix::from_diagonal(&[2.0_f64, 4.0]);
/// // A slightly wrong inverse improves after one step.
/// let v0 = Matrix::from_diagonal(&[0.4_f64, 0.3]);
/// let v1 = iterative::newton_step(&a, &v0)?;
/// let exact = Matrix::from_diagonal(&[0.5_f64, 0.25]);
/// assert!(v1.max_abs_diff(&exact) < v0.max_abs_diff(&exact));
/// # Ok(())
/// # }
/// ```
pub fn newton_step<T: Scalar>(a: &Matrix<T>, v: &Matrix<T>) -> Result<Matrix<T>> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    if a.shape() != v.shape() {
        return Err(LinalgError::DimensionMismatch {
            left: a.shape(),
            right: v.shape(),
            op: "newton_step",
        });
    }
    let n = a.rows();
    let av = a.checked_mul(v)?;
    // 2I − A·V
    let mut correction = -&av;
    let two = T::from_f64(2.0);
    for i in 0..n {
        correction[(i, i)] += two;
    }
    v.checked_mul(&correction)
}

/// Runs `iters` Newton–Schulz steps from seed `v0`.
///
/// This mirrors the accelerator's `approx` register: a *fixed* iteration
/// count with no convergence check, because hardware latency must be
/// deterministic. Use [`invert_adaptive`] when a residual-controlled software
/// inverse is wanted instead.
///
/// # Errors
///
/// Same as [`newton_step`].
pub fn newton_schulz<T: Scalar>(a: &Matrix<T>, v0: &Matrix<T>, iters: usize) -> Result<Matrix<T>> {
    let mut v = v0.clone();
    for _ in 0..iters {
        v = newton_step(a, &v)?;
    }
    Ok(v)
}

/// One Newton–Schulz step written into pre-allocated buffers:
/// `out = V · (2I − A·V)`.
///
/// Produces bit-identical results to [`newton_step`] with zero heap
/// allocations. `scratch` holds the intermediate `2I − A·V` and must be the
/// same shape as `a`; `out` receives the updated iterate.
///
/// # Errors
///
/// Same as [`newton_step`], plus [`LinalgError::DimensionMismatch`] when
/// `scratch` or `out` is mis-sized.
pub fn newton_step_into<T: Scalar>(
    a: &Matrix<T>,
    v: &Matrix<T>,
    scratch: &mut Matrix<T>,
    out: &mut Matrix<T>,
) -> Result<()> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    if a.shape() != v.shape() {
        return Err(LinalgError::DimensionMismatch {
            left: a.shape(),
            right: v.shape(),
            op: "newton_step",
        });
    }
    let n = a.rows();
    for buf in [scratch.shape(), out.shape()] {
        if buf != (n, n) {
            return Err(LinalgError::DimensionMismatch {
                left: (n, n),
                right: buf,
                op: "mul_into",
            });
        }
    }
    // 2I − A·V, negating in place exactly as `-&av` does element-wise.
    dense::newton_step(
        a.as_slice(),
        v.as_slice(),
        scratch.as_mut_slice(),
        out.as_mut_slice(),
        n,
    );
    Ok(())
}

/// Runs `iters` Newton–Schulz steps from seed `v0` into pre-allocated
/// buffers, leaving the final iterate in `out`.
///
/// Bit-identical to [`newton_schulz`] with zero heap allocations. `scratch`
/// and `tmp` are working buffers the same shape as `a`; their contents on
/// return are unspecified. The iterate ping-pongs between `out` and `tmp`
/// and always finishes in `out`.
///
/// # Errors
///
/// Same as [`newton_step_into`], plus a mis-sized `out`.
pub fn newton_schulz_into<T: Scalar>(
    a: &Matrix<T>,
    v0: &Matrix<T>,
    iters: usize,
    scratch: &mut Matrix<T>,
    tmp: &mut Matrix<T>,
    out: &mut Matrix<T>,
) -> Result<()> {
    dense::newton_schulz_into(a, v0, iters, scratch, tmp, out)
}

/// The classical safe seed `V_0 = A^T / (‖A‖_1 · ‖A‖_∞)`.
///
/// Pan & Reif's bound guarantees `‖I − A·V_0‖_2 < 1` for any nonsingular `A`,
/// so Newton–Schulz converges from this seed — slowly. The paper's insight is
/// that for BCI data the *previous iteration's inverse* is a far better seed;
/// this function provides the cold-start fallback (and the seed used by the
/// LITE design's pre-computed first iteration).
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] if `a` is rectangular.
/// * [`LinalgError::Singular`] if `a` is exactly zero.
pub fn safe_seed<T: Scalar>(a: &Matrix<T>) -> Result<Matrix<T>> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    let denom = norms::one_norm(a) * norms::inf_norm(a);
    if denom == 0.0 {
        return Err(LinalgError::Singular { pivot: 0 });
    }
    Ok(a.transpose().map(|x| T::from_f64(x.to_f64() / denom)))
}

/// Inverts `a` by Newton–Schulz with the safe seed, iterating until the
/// Frobenius residual `‖I − A·V‖_F` drops below `tol` or `max_iters` is hit.
///
/// # Errors
///
/// * Seed errors from [`safe_seed`].
/// * [`LinalgError::NotConverged`] when the residual is still above `tol`
///   after `max_iters` steps.
pub fn invert_adaptive<T: Scalar>(a: &Matrix<T>, tol: f64, max_iters: usize) -> Result<Matrix<T>> {
    let mut v = safe_seed(a)?;
    let mut residual = norms::inverse_residual(a, &v);
    for i in 0..max_iters {
        if residual <= tol {
            return Ok(v);
        }
        v = newton_step(a, &v)?;
        let next = norms::inverse_residual(a, &v);
        if !next.is_finite() {
            return Err(LinalgError::NotConverged {
                iterations: i + 1,
                residual: next,
            });
        }
        residual = next;
    }
    if residual <= tol {
        Ok(v)
    } else {
        Err(LinalgError::NotConverged {
            iterations: max_iters,
            residual,
        })
    }
}

/// `true` when `v0` satisfies the convergence condition of paper Eq. 3,
/// `‖I − A·V_0‖_2 < 1`, checked with a power-iteration estimate of the
/// spectral norm.
pub fn seed_certifies_convergence<T: Scalar>(a: &Matrix<T>, v0: &Matrix<T>) -> bool {
    norms::spectral_residual(a, v0) < 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::gauss;

    fn spd(n: usize) -> Matrix<f64> {
        // Diagonally dominant symmetric matrix, similar conditioning to a KF's S.
        Matrix::from_fn(n, n, |r, c| {
            if r == c {
                n as f64 + 2.0
            } else {
                1.0 / (1.0 + (r as f64 - c as f64).abs())
            }
        })
    }

    #[test]
    fn converges_from_safe_seed() {
        let a = spd(6);
        let v = invert_adaptive(&a, 1e-12, 100).unwrap();
        let exact = gauss::invert(&a).unwrap();
        assert!(v.approx_eq(&exact, 1e-10));
    }

    #[test]
    fn quadratic_convergence_residual_squares() {
        let a = spd(4);
        let mut v = safe_seed(&a).unwrap();
        // Warm up until residual < 0.5, then check the square law.
        for _ in 0..60 {
            if norms::inverse_residual(&a, &v) < 0.5 {
                break;
            }
            v = newton_step(&a, &v).unwrap();
        }
        let r0 = norms::inverse_residual(&a, &v);
        assert!(r0 < 0.5, "warm-up did not reach the quadratic regime");
        let v1 = newton_step(&a, &v).unwrap();
        let r1 = norms::inverse_residual(&a, &v1);
        // ‖I − A·V1‖ = ‖(I − A·V0)^2‖ ≤ ‖I − A·V0‖^2 (allow slack for norms).
        assert!(r1 <= r0 * r0 * 4.0, "r0={r0}, r1={r1}");
    }

    #[test]
    fn safe_seed_certifies_eq3() {
        let a = spd(8);
        let v0 = safe_seed(&a).unwrap();
        assert!(seed_certifies_convergence(&a, &v0));
    }

    #[test]
    fn exact_inverse_is_fixed_point() {
        let a = spd(3);
        let exact = gauss::invert(&a).unwrap();
        let stepped = newton_step(&a, &exact).unwrap();
        assert!(stepped.approx_eq(&exact, 1e-12));
    }

    #[test]
    fn zero_iterations_returns_seed() {
        let a = spd(3);
        let v0 = safe_seed(&a).unwrap();
        let out = newton_schulz(&a, &v0, 0).unwrap();
        assert!(out.approx_eq(&v0, 0.0));
    }

    #[test]
    fn more_iterations_never_hurt_in_convergent_regime() {
        let a = spd(5);
        let v0 = safe_seed(&a).unwrap();
        let exact = gauss::invert(&a).unwrap();
        let mut last = f64::INFINITY;
        for m in [1_usize, 2, 4, 8, 16, 32] {
            let v = newton_schulz(&a, &v0, m).unwrap();
            let err = v.max_abs_diff(&exact);
            assert!(err <= last + 1e-12, "error rose at m={m}: {err} > {last}");
            last = err;
        }
    }

    #[test]
    fn diverges_from_bad_seed() {
        let a = spd(3);
        // A huge seed violates Eq. 3 and blows up.
        let v0 = Matrix::identity(3).scale(1e6);
        let v = newton_schulz(&a, &v0, 12).unwrap();
        assert!(!v.all_finite() || norms::inverse_residual(&a, &v) > 1.0);
    }

    #[test]
    fn shape_errors() {
        let a = spd(3);
        let v = Matrix::<f64>::identity(4);
        assert!(matches!(
            newton_step(&a, &v),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        let rect = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(
            newton_step(&rect, &rect),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            safe_seed(&rect),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn safe_seed_rejects_zero_matrix() {
        let z = Matrix::<f64>::zeros(3, 3);
        assert!(matches!(safe_seed(&z), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn not_converged_reports_budget() {
        let a = spd(6);
        match invert_adaptive(&a, 1e-300, 2) {
            Err(LinalgError::NotConverged { iterations, .. }) => assert_eq!(iterations, 2),
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn into_variants_match_allocating_bit_for_bit() {
        let a = spd(5);
        let v0 = safe_seed(&a).unwrap();
        let mut scratch = Matrix::zeros(5, 5);
        let mut tmp = Matrix::zeros(5, 5);
        let mut out = Matrix::zeros(5, 5);
        newton_step_into(&a, &v0, &mut scratch, &mut out).unwrap();
        assert_eq!(out, newton_step(&a, &v0).unwrap());
        for iters in [0_usize, 1, 3, 9] {
            newton_schulz_into(&a, &v0, iters, &mut scratch, &mut tmp, &mut out).unwrap();
            assert_eq!(out, newton_schulz(&a, &v0, iters).unwrap(), "iters={iters}");
        }
    }

    #[test]
    fn into_variants_validate_shapes() {
        let a = spd(3);
        let v = Matrix::<f64>::identity(3);
        let mut wrong = Matrix::<f64>::zeros(2, 2);
        let mut ok = Matrix::<f64>::zeros(3, 3);
        assert!(newton_step_into(&a, &v, &mut wrong, &mut ok.clone()).is_err());
        assert!(newton_step_into(&a, &v, &mut ok.clone(), &mut wrong).is_err());
        let mut scratch = Matrix::<f64>::zeros(3, 3);
        assert!(newton_schulz_into(&a, &v, 1, &mut scratch, &mut ok, &mut wrong).is_err());
    }

    #[test]
    fn warm_seed_converges_faster_than_cold() {
        // The KalmMind premise: seeding with the inverse of a *nearby* matrix
        // needs far fewer iterations than the safe seed.
        let a = spd(6);
        let mut nearby = a.clone();
        for i in 0..6 {
            nearby[(i, i)] += 0.01; // small perturbation ≈ consecutive S_n
        }
        let warm = gauss::invert(&nearby).unwrap();
        let cold = safe_seed(&a).unwrap();
        let exact = gauss::invert(&a).unwrap();
        let warm_err = newton_schulz(&a, &warm, 1).unwrap().max_abs_diff(&exact);
        let cold_err = newton_schulz(&a, &cold, 1).unwrap().max_abs_diff(&exact);
        assert!(
            warm_err < cold_err / 100.0,
            "warm seed should dominate: warm={warm_err}, cold={cold_err}"
        );
    }
}
