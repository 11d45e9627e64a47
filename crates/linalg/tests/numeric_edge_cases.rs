//! Numerical edge cases across the dense and BAT kernels: conditioning,
//! scale invariance, tiny matrices, and cross-kernel agreement on randomised
//! inputs.
#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use rma_linalg::dense::{self, Matrix};
use rma_linalg::{bat, LinalgError};

fn mat_from(cols: &[Vec<f64>]) -> Matrix {
    Matrix::from_columns(cols).unwrap()
}

#[test]
fn one_by_one_matrices() {
    let a = Matrix::from_rows(&[&[4.0]]).unwrap();
    assert!((dense::det(&a).unwrap() - 4.0).abs() < 1e-15);
    assert!((dense::inverse(&a).unwrap().get(0, 0) - 0.25).abs() < 1e-15);
    assert_eq!(dense::rank(&a).unwrap(), 1);
    let e = dense::eigen(&a).unwrap();
    assert!((e.values[0] - 4.0).abs() < 1e-12);
    let qr = dense::qr(&a).unwrap();
    assert!((qr.r.get(0, 0) - 4.0).abs() < 1e-12);
    // BAT kernels agree
    let cols = vec![vec![4.0]];
    assert!((bat::det(&cols).unwrap() - 4.0).abs() < 1e-15);
    assert!((bat::inv(&cols).unwrap()[0][0] - 0.25).abs() < 1e-15);
    assert_eq!(bat::rnk(&cols).unwrap(), 1);
}

#[test]
fn badly_scaled_but_wellconditioned() {
    // entries spanning 8 orders of magnitude, still invertible
    let a = Matrix::from_rows(&[&[1e-4, 0.0], &[0.0, 1e4]]).unwrap();
    let inv = dense::inverse(&a).unwrap();
    assert!((inv.get(0, 0) - 1e4).abs() / 1e4 < 1e-12);
    assert!((inv.get(1, 1) - 1e-4).abs() / 1e-4 < 1e-12);
    let cols = vec![vec![1e-4, 0.0], vec![0.0, 1e4]];
    let binv = bat::inv(&cols).unwrap();
    assert!((binv[0][0] - 1e4).abs() / 1e4 < 1e-10);
    // beyond the relative pivot threshold (condition ≥ 1e12) the kernels
    // report singularity rather than returning garbage
    let extreme = Matrix::from_rows(&[&[1e-6, 0.0], &[0.0, 1e6]]).unwrap();
    assert_eq!(dense::inverse(&extreme), Err(LinalgError::Singular));
}

#[test]
fn nearly_singular_detected_consistently() {
    let eps = 1e-15;
    let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0 + eps]]).unwrap();
    // both kernels treat this as singular under their relative thresholds
    assert_eq!(dense::inverse(&a), Err(LinalgError::Singular));
    let cols = vec![vec![1.0, 1.0], vec![1.0, 1.0 + eps]];
    assert!(matches!(bat::inv(&cols), Err(LinalgError::Singular)));
}

#[test]
fn tall_skinny_qr_and_svd() {
    // 50×2: factors stay orthonormal and reconstruct
    let cols: Vec<Vec<f64>> = vec![
        (0..50).map(|i| (i as f64).sin() + 2.0).collect(),
        (0..50).map(|i| (i as f64 * 0.7).cos()).collect(),
    ];
    let a = mat_from(&cols);
    let qr = dense::qr(&a).unwrap();
    assert!(dense::matmul(&qr.q, &qr.r).unwrap().approx_eq(&a, 1e-9));
    let svd = dense::svd(&a).unwrap();
    assert_eq!(svd.s.len(), 2);
    assert!(svd.s[0] >= svd.s[1]);
    // Gram-Schmidt agrees with Householder on |R|
    let (_, r_gs) = bat::qqr(&cols)
        .map(|q| (q, bat::rqr(&cols).unwrap()))
        .unwrap();
    for i in 0..2 {
        for j in i..2 {
            assert!((r_gs[j][i].abs() - qr.r.get(i, j).abs()).abs() < 1e-8);
        }
    }
}

#[test]
fn eigen_of_near_multiple_eigenvalues() {
    // eigenvalues 2, 2+1e-9: Jacobi must still produce an orthonormal basis
    let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0 + 1e-9]]).unwrap();
    let e = dense::eigen(&a).unwrap();
    let dot: f64 = (0..2)
        .map(|i| e.vectors.get(i, 0) * e.vectors.get(i, 1))
        .sum();
    assert!(dot.abs() < 1e-8);
}

#[test]
fn solve_respects_multiple_rhs_columns() {
    let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]).unwrap();
    let b = Matrix::from_rows(&[&[2.0, 4.0, 6.0], &[4.0, 8.0, 12.0]]).unwrap();
    let x = dense::solve(&a, &b).unwrap();
    assert_eq!(x.cols(), 3);
    assert!(dense::matmul(&a, &x).unwrap().approx_eq(&b, 1e-12));
    // BAT sol on the same system
    let xb = bat::sol(
        &[vec![2.0, 0.0], vec![0.0, 4.0]],
        &[vec![2.0, 4.0], vec![4.0, 8.0], vec![6.0, 12.0]],
    )
    .unwrap();
    for (j, col) in xb.iter().enumerate() {
        for (i, v) in col.iter().enumerate() {
            assert!((v - x.get(i, j)).abs() < 1e-10);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // det(A·B) = det(A)·det(B), dense and BAT kernels alike
    #[test]
    fn determinant_is_multiplicative(
        a in proptest::collection::vec(-3.0f64..3.0, 9),
        b in proptest::collection::vec(-3.0f64..3.0, 9),
    ) {
        let ma = Matrix::from_col_major(3, 3, a.clone()).unwrap();
        let mb = Matrix::from_col_major(3, 3, b.clone()).unwrap();
        let prod = dense::matmul(&ma, &mb).unwrap();
        let lhs = dense::det(&prod).unwrap();
        let rhs = dense::det(&ma).unwrap() * dense::det(&mb).unwrap();
        let scale = lhs.abs().max(rhs.abs()).max(1.0);
        prop_assert!((lhs - rhs).abs() / scale < 1e-8);
        // BAT det agrees with dense det
        let cols_a: Vec<Vec<f64>> = a.chunks(3).map(<[f64]>::to_vec).collect();
        let bat_det = bat::det(&cols_a).unwrap();
        let dense_det = dense::det(&ma).unwrap();
        prop_assert!((bat_det - dense_det).abs() / dense_det.abs().max(1.0) < 1e-8);
    }

    // rank never exceeds min(m, n) and matches between kernels
    #[test]
    fn rank_bounds(cols in proptest::collection::vec(
        proptest::collection::vec(-5.0f64..5.0, 6), 1..4)
    ) {
        let m = mat_from(&cols);
        let r_dense = dense::rank(&m).unwrap();
        let r_bat = bat::rnk(&cols).unwrap();
        prop_assert!(r_dense <= cols.len().min(6));
        prop_assert_eq!(r_dense, r_bat);
    }

    // ‖Q·x‖ = ‖x‖ for the Q of any full-rank QR (orthogonality preserved)
    #[test]
    fn q_preserves_norms(
        c0 in proptest::collection::vec(0.1f64..5.0, 8),
        c1 in proptest::collection::vec(-5.0f64..-0.1, 8),
    ) {
        let a = mat_from(&[c0, c1]);
        let qr = dense::qr(&a).unwrap();
        let x = Matrix::col_vector(&[0.6, -0.8]);
        let qx = dense::matmul(&qr.q, &x).unwrap();
        prop_assert!((qx.frobenius_norm() - 1.0).abs() < 1e-9);
    }

    // singular values scale linearly: σ(c·A) = c·σ(A)
    #[test]
    fn svd_scales_linearly(
        cols in proptest::collection::vec(
            proptest::collection::vec(-5.0f64..5.0, 5), 2..5),
        c in 0.5f64..4.0,
    ) {
        let a = mat_from(&cols);
        let scaled = a.map(|x| c * x);
        let s1 = dense::svd(&a).unwrap().s;
        let s2 = dense::svd(&scaled).unwrap().s;
        for (x, y) in s1.iter().zip(&s2) {
            prop_assert!((c * x - y).abs() < 1e-7 * (1.0 + y.abs()));
        }
    }
}

#[test]
fn least_squares_singularity_is_scale_free() {
    // A rank-1 and a full-rank 3 × 2 system, both scaled by s: the verdict
    // may depend neither on the units nor on the backend.
    for s in [1e-13, 1e-9, 1.0, 1e6] {
        let rank1 = vec![vec![s, 2.0 * s, 3.0 * s], vec![2.0 * s, 4.0 * s, 6.0 * s]];
        let full = vec![vec![s, s, s], vec![0.0, s, 2.0 * s]];
        // b = full · (1, 2)
        let b = vec![vec![s, 3.0 * s, 5.0 * s]];
        let mb = mat_from(&b);
        assert_eq!(
            dense::solve(&mat_from(&rank1), &mb),
            Err(LinalgError::Singular),
            "dense, scale {s}"
        );
        assert_eq!(
            bat::sol(&rank1, &b),
            Err(LinalgError::Singular),
            "BAT, scale {s}"
        );
        let x = dense::solve(&mat_from(&full), &mb).unwrap();
        let xb = bat::sol(&full, &b).unwrap();
        for (i, want) in [1.0, 2.0].into_iter().enumerate() {
            assert!((x.get(i, 0) - want).abs() < 1e-9, "dense, scale {s}");
            assert!((xb[0][i] - want).abs() < 1e-9, "BAT, scale {s}");
        }
    }
}
