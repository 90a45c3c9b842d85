//! Property-based tests for the linear-algebra substrate.
//!
//! Strategy: generate random well-conditioned matrices (diagonally dominant
//! or SPD via `B·B^T + c·I`) — the same conditioning class as the KF's
//! innovation covariance `S` — and assert the algebraic invariants every
//! inversion method must satisfy.

use kalmmind_linalg::dense::Dense;
use kalmmind_linalg::{decomp, iterative, norms, Matrix, Vector};
use proptest::prelude::*;

/// Strategy: square matrix of dimension `n` with entries in [-1, 1] plus a
/// dominant diagonal, guaranteeing invertibility.
fn diag_dominant(n: usize) -> impl Strategy<Value = Matrix<f64>> {
    prop::collection::vec(-1.0_f64..1.0, n * n).prop_map(move |vals| {
        let mut m = Matrix::from_row_slice(n, n, &vals).expect("sized vec");
        for i in 0..n {
            m[(i, i)] += n as f64 + 1.0;
        }
        m
    })
}

/// Strategy: symmetric positive-definite matrix `B·B^T + I`.
fn spd(n: usize) -> impl Strategy<Value = Matrix<f64>> {
    prop::collection::vec(-1.0_f64..1.0, n * n).prop_map(move |vals| {
        let b = Matrix::from_row_slice(n, n, &vals).expect("sized vec");
        let mut m = &b * &b.transpose();
        for i in 0..n {
            m[(i, i)] += 1.0;
        }
        m
    })
}

fn vector(n: usize) -> impl Strategy<Value = Vector<f64>> {
    prop::collection::vec(-10.0_f64..10.0, n).prop_map(Vector::from_vec)
}

/// Strategy: rectangular matrix of the given shape with entries in [-10, 10].
fn rect(rows: usize, cols: usize) -> impl Strategy<Value = Matrix<f64>> {
    prop::collection::vec(-10.0_f64..10.0, rows * cols)
        .prop_map(move |vals| Matrix::from_row_slice(rows, cols, &vals).expect("sized vec"))
}

/// Strategy: a random-shaped `(m×k, k×n)` pair of multiplicable matrices.
fn mul_pair() -> impl Strategy<Value = (Matrix<f64>, Matrix<f64>)> {
    (1usize..=5, 1usize..=5, 1usize..=5).prop_flat_map(|(m, k, n)| (rect(m, k), rect(k, n)))
}

/// Strategy: a random-shaped matrix/vector pair with matching inner dim.
fn mul_vector_pair() -> impl Strategy<Value = (Matrix<f64>, Vector<f64>)> {
    (1usize..=5, 1usize..=5).prop_flat_map(|(m, n)| (rect(m, n), vector(n)))
}

/// Strategy: two same-shaped random matrices.
fn same_shape_pair() -> impl Strategy<Value = (Matrix<f64>, Matrix<f64>)> {
    (1usize..=5, 1usize..=5).prop_flat_map(|(m, n)| (rect(m, n), rect(m, n)))
}

proptest! {
    #[test]
    fn gauss_inverse_satisfies_identity(a in diag_dominant(5)) {
        let inv = decomp::gauss::invert(&a).unwrap();
        prop_assert!((&a * &inv).approx_eq(&Matrix::identity(5), 1e-9));
        prop_assert!((&inv * &a).approx_eq(&Matrix::identity(5), 1e-9));
    }

    #[test]
    fn lu_and_gauss_agree(a in diag_dominant(6)) {
        let g = decomp::gauss::invert(&a).unwrap();
        let l = decomp::lu::invert(&a).unwrap();
        prop_assert!(g.approx_eq(&l, 1e-9));
    }

    #[test]
    fn qr_and_gauss_agree(a in diag_dominant(5)) {
        let g = decomp::gauss::invert(&a).unwrap();
        let q = decomp::qr::invert(&a).unwrap();
        prop_assert!(g.approx_eq(&q, 1e-8));
    }

    #[test]
    fn cholesky_inverts_spd(a in spd(5)) {
        let inv = decomp::cholesky::invert(&a).unwrap();
        prop_assert!((&a * &inv).approx_eq(&Matrix::identity(5), 1e-8));
    }

    #[test]
    fn cholesky_factor_is_lower_with_positive_diagonal(a in spd(4)) {
        let ch = decomp::Cholesky::factor(&a).unwrap();
        for i in 0..4 {
            prop_assert!(ch.l()[(i, i)] > 0.0);
            for j in (i + 1)..4 {
                prop_assert_eq!(ch.l()[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn lu_solve_solves(a in diag_dominant(5), b in vector(5)) {
        let lu = decomp::Lu::factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let back = a.mul_vector(&x).unwrap();
        prop_assert!(back.max_abs_diff(&b) < 1e-8);
    }

    #[test]
    fn qr_q_is_orthogonal(a in diag_dominant(5)) {
        let qr = decomp::Qr::factor(&a).unwrap();
        let qtq = &qr.q().transpose() * qr.q();
        prop_assert!(qtq.approx_eq(&Matrix::identity(5), 1e-10));
    }

    #[test]
    fn newton_safe_seed_always_certifies(a in diag_dominant(5)) {
        let v0 = iterative::safe_seed(&a).unwrap();
        prop_assert!(iterative::seed_certifies_convergence(&a, &v0));
    }

    #[test]
    fn newton_adaptive_matches_gauss(a in diag_dominant(4)) {
        let v = iterative::invert_adaptive(&a, 1e-12, 200).unwrap();
        let g = decomp::gauss::invert(&a).unwrap();
        prop_assert!(v.approx_eq(&g, 1e-8));
    }

    #[test]
    fn newton_step_is_monotone_from_good_seed(a in spd(4)) {
        // Seed = exact inverse of a perturbed matrix (the KalmMind warm seed).
        let mut nearby = a.clone();
        for i in 0..4 {
            nearby[(i, i)] += 0.01;
        }
        let seed = decomp::gauss::invert(&nearby).unwrap();
        let r0 = norms::inverse_residual(&a, &seed);
        prop_assert!(r0 < 1.0, "warm seed must certify, got residual {}", r0);
        let v1 = iterative::newton_step(&a, &seed).unwrap();
        let r1 = norms::inverse_residual(&a, &v1);
        prop_assert!(r1 <= r0, "residual must not increase: {} -> {}", r0, r1);
    }

    #[test]
    fn transpose_is_involution(a in diag_dominant(6)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_associativity(
        a in diag_dominant(3),
        b in diag_dominant(3),
        c in diag_dominant(3),
    ) {
        let left = &(&a * &b) * &c;
        let right = &a * &(&b * &c);
        prop_assert!(left.approx_eq(&right, 1e-7));
    }

    #[test]
    fn matmul_distributes_over_add(a in diag_dominant(3), b in diag_dominant(3), c in diag_dominant(3)) {
        let left = &a * &(&b + &c);
        let right = &(&a * &b) + &(&a * &c);
        prop_assert!(left.approx_eq(&right, 1e-8));
    }

    #[test]
    fn inverse_of_inverse_is_original(a in diag_dominant(4)) {
        let inv = decomp::gauss::invert(&a).unwrap();
        let back = decomp::gauss::invert(&inv).unwrap();
        prop_assert!(back.approx_eq(&a, 1e-7));
    }

    #[test]
    fn det_of_product_is_product_of_dets(a in diag_dominant(3), b in diag_dominant(3)) {
        let da = decomp::Lu::factor(&a).unwrap().det();
        let db = decomp::Lu::factor(&b).unwrap().det();
        let dab = decomp::Lu::factor(&(&a * &b)).unwrap().det();
        prop_assert!((dab - da * db).abs() <= 1e-6 * dab.abs().max(1.0));
    }

    #[test]
    fn spectral_norm_bounded_by_frobenius(a in diag_dominant(5)) {
        prop_assert!(norms::spectral_estimate(&a, 60) <= norms::frobenius(&a) + 1e-9);
    }

    #[test]
    fn norm_triangle_inequality(a in diag_dominant(4), b in diag_dominant(4)) {
        let sum = &a + &b;
        prop_assert!(norms::frobenius(&sum) <= norms::frobenius(&a) + norms::frobenius(&b) + 1e-9);
    }

    // In-place kernels must be bit-for-bit identical to their allocating
    // twins — the workspace refactor trades no accuracy for speed.

    #[test]
    fn mul_into_matches_mul_bit_for_bit((a, b) in mul_pair()) {
        let expected = a.checked_mul(&b).unwrap();
        let mut out = Matrix::zeros(a.rows(), b.cols());
        // Pre-poison the output to prove it is fully overwritten.
        for x in out.as_mut_slice() { *x = f64::NAN; }
        a.mul_into(&b, &mut out).unwrap();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn transpose_into_matches_transpose_bit_for_bit(a in rect(4, 3)) {
        let expected = a.transpose();
        let mut out = Matrix::zeros(3, 4);
        a.transpose_into(&mut out).unwrap();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn add_sub_assign_match_operators_bit_for_bit((a, b) in same_shape_pair()) {
        let mut added = a.clone();
        added.add_assign(&b).unwrap();
        prop_assert_eq!(&added, &(&a + &b));
        let mut subbed = a.clone();
        subbed.sub_assign(&b).unwrap();
        prop_assert_eq!(&subbed, &(&a - &b));
    }

    #[test]
    fn mul_vector_into_matches_mul_vector_bit_for_bit((a, v) in mul_vector_pair()) {
        let expected = a.mul_vector(&v).unwrap();
        let mut out = Vector::zeros(a.rows());
        a.mul_vector_into(&v, &mut out).unwrap();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn newton_schulz_into_matches_allocating_bit_for_bit(
        a in diag_dominant(4),
        iters in 0usize..=8,
    ) {
        let v0 = iterative::safe_seed(&a).unwrap();
        let expected = iterative::newton_schulz(&a, &v0, iters).unwrap();
        let mut scratch = Matrix::zeros(4, 4);
        let mut tmp = Matrix::zeros(4, 4);
        let mut out = Matrix::zeros(4, 4);
        iterative::newton_schulz_into(&a, &v0, iters, &mut scratch, &mut tmp, &mut out).unwrap();
        prop_assert_eq!(out, expected);
    }
}
