//! The contract of the blocked Householder QR: `Q·R = A`, `QᵀQ = I`, `R`
//! upper triangular with a non-negative diagonal, on shapes that straddle
//! the panel width, with random, rank-deficient and zero-column inputs; `R`
//! agrees with the independent Gram-Schmidt kernel; and one run at the
//! benchmark's 50 000 × 40 shape.

use rma_linalg::bat;
use rma_linalg::dense::{self, Matrix, Qr};

/// Column counts on both sides of the panel width (8).
const WIDTHS: [usize; 7] = [1, 7, 8, 9, 16, 17, 40];

/// Uniform values in `[lo, lo + 1)` from a fixed-seed xorshift generator.
fn uniform_columns(m: usize, n: usize, seed: u64, lo: f64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            (0..m)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    lo + (state >> 11) as f64 / (1u64 << 53) as f64
                })
                .collect()
        })
        .collect()
}

/// Every `(m, n)` of the grid: square, one extra row, 3× tall, and 1000 rows.
fn shapes() -> impl Iterator<Item = (usize, usize)> {
    WIDTHS
        .into_iter()
        .flat_map(|n| [n, n + 1, 3 * n, 1000].map(|m| (m, n)))
}

fn max_abs_diff_from_identity(qtq: &Matrix) -> f64 {
    qtq.max_abs_diff(&Matrix::identity(qtq.rows()))
}

/// Factorise `cols` and assert the contract with residuals relative to
/// `tol`; returns the factors.
fn assert_contract(cols: &[Vec<f64>], tol: f64) -> Qr {
    let a = Matrix::from_columns(cols).unwrap();
    let (m, n) = (a.rows(), a.cols());
    let qr = dense::qr(&a).unwrap();
    assert_eq!((qr.q.rows(), qr.q.cols()), (m, n));
    assert_eq!((qr.r.rows(), qr.r.cols()), (n, n));
    let back = dense::matmul(&qr.q, &qr.r).unwrap();
    let residual = back.max_abs_diff(&a);
    assert!(
        residual <= tol * a.frobenius_norm(),
        "{m}x{n}: |QR - A| = {residual}"
    );
    let qtq = dense::crossprod(&qr.q, &qr.q).unwrap();
    let ortho = max_abs_diff_from_identity(&qtq);
    assert!(ortho <= tol, "{m}x{n}: |QtQ - I| = {ortho}");
    for j in 0..n {
        assert!(qr.r.get(j, j) >= 0.0, "{m}x{n}: R[{j}][{j}] < 0");
        for i in j + 1..n {
            assert_eq!(qr.r.get(i, j), 0.0, "{m}x{n}: R[{i}][{j}]");
        }
    }
    qr
}

#[test]
fn random_inputs_meet_the_contract_and_match_gram_schmidt() {
    for (seed, (m, n)) in shapes().enumerate() {
        let cols = uniform_columns(m, n, seed as u64, -0.5);
        let qr = assert_contract(&cols, 1e-12);
        // R is unique for a full-rank A once diag(R) ≥ 0: modified
        // Gram-Schmidt must find the same one
        let r_gs = bat::rqr(&cols).unwrap();
        let scale = Matrix::from_columns(&cols).unwrap().frobenius_norm();
        for (j, gs_col) in r_gs.iter().enumerate() {
            for (i, &gs) in gs_col.iter().enumerate().take(j + 1) {
                let h = qr.r.get(i, j);
                assert!(
                    (h - gs).abs() <= 1e-9 * scale,
                    "{m}x{n}: R[{i}][{j}] = {h}, Gram-Schmidt {gs}"
                );
            }
        }
    }
}

#[test]
fn duplicate_columns_meet_the_contract() {
    for (seed, (m, n)) in shapes().filter(|&(_, n)| n > 1).enumerate() {
        let mut cols = uniform_columns(m, n, 100 + seed as u64, -0.5);
        // one duplicate inside the first panel, one across panels
        cols[n - 1] = cols[0].clone();
        if n > 9 {
            cols[9] = cols[3].clone();
        }
        let qr = assert_contract(&cols, 1e-12);
        assert!(qr.r.get(n - 1, n - 1) <= 1e-12 * qr.r.get(0, 0));
    }
}

#[test]
fn zero_columns_meet_the_contract() {
    for (seed, (m, n)) in shapes().enumerate() {
        let mut cols = uniform_columns(m, n, 200 + seed as u64, -0.5);
        // a zero column first, last in the first panel, and first in the second
        for z in [0, 8, 9].into_iter().filter(|&z| z < n) {
            cols[z].fill(0.0);
        }
        let qr = assert_contract(&cols, 1e-12);
        assert_eq!(qr.r.get(0, 0), 0.0);
    }
}

/// The benchmark's `qqr_tall` shape and its result checks. Slow without
/// optimisation; CI runs it in the release test step.
#[test]
#[ignore]
fn benchmark_shape_meets_the_benchmark_bounds() {
    let (m, n) = (50_000, 40);
    let cols = uniform_columns(m, n, 1, 0.0);
    let a = Matrix::from_columns(&cols).unwrap();
    let Qr { q, .. } = dense::qr(&a).unwrap();
    let qtq = dense::crossprod(&q, &q).unwrap();
    assert!(max_abs_diff_from_identity(&qtq) <= 1e-9);
    // R recomputed as QᵀA, the way the benchmark reads the answer
    let r = dense::crossprod(&q, &a).unwrap();
    let col_norm = (0..n).map(|j| a.col(j).iter().map(|x| x * x).sum::<f64>().sqrt());
    let col_norm = col_norm.fold(0.0, f64::max);
    for j in 0..n {
        for i in j + 1..n {
            assert!(r.get(i, j).abs() <= 1e-8 * col_norm, "R[{i}][{j}]");
        }
    }
    let max_abs = a.as_slice().iter().fold(0.0f64, |s, x| s.max(x.abs()));
    let back = dense::matmul(&q, &r).unwrap();
    assert!(back.max_abs_diff(&a) <= 1e-8 * max_abs);
}
