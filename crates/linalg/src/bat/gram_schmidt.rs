//! Gram-Schmidt QR over columns (QQR/RQR) — the paper's BAT baseline for QR
//! (§8.3 cites Gander's Gram-Schmidt algorithm [12]).
//!
//! Modified Gram-Schmidt is naturally column-at-a-time: it only ever scales
//! columns, takes column dot products, and subtracts scaled columns.

use super::{dot_col, scale_col, shape, sub_scaled_col, to_owned_cols};
use crate::error::LinalgError;
use crate::PIVOT_EPS;

/// Thin QR by modified Gram-Schmidt. Returns `(q, r)` with `q: m×n` columns
/// orthonormal and `r: n×n` upper triangular (as columns). Rank-deficient
/// columns yield a zero column in `q` and zero diagonal in `r`.
pub fn qr<C: AsRef<[f64]>>(a: &[C]) -> Result<(Vec<Vec<f64>>, Vec<Vec<f64>>), LinalgError> {
    let (m, n) = shape(a)?;
    if m == 0 || n == 0 {
        return Err(LinalgError::Empty);
    }
    if m < n {
        return Err(LinalgError::DimensionMismatch {
            context: "QR requires rows >= cols",
        });
    }
    let scale = a
        .iter()
        .map(|c| dot_col(c.as_ref(), c.as_ref()).sqrt())
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let tol = 1e-13 * scale;
    let mut q = to_owned_cols(a);
    let mut r: Vec<Vec<f64>> = (0..n).map(|_| vec![0.0; n]).collect();
    for k in 0..n {
        for i in 0..k {
            // r[i,k] = qᵢ · qₖ ; qₖ -= qᵢ · r[i,k]
            let (qi, qk) = borrow_two(&mut q, i, k);
            let rik = dot_col(qi, qk);
            r[k][i] = rik;
            sub_scaled_col(qk, qi, rik);
        }
        let norm = dot_col(&q[k], &q[k]).sqrt();
        r[k][k] = norm;
        if norm > tol {
            scale_col(&mut q[k], norm);
        } else {
            // rank-deficient column: zero it out, keep r[k][k] ≈ 0
            for t in q[k].iter_mut() {
                *t = 0.0;
            }
            r[k][k] = 0.0;
        }
    }
    Ok((q, r))
}

/// QQR: the `Q` factor only.
pub fn qqr<C: AsRef<[f64]>>(a: &[C]) -> Result<Vec<Vec<f64>>, LinalgError> {
    Ok(qr(a)?.0)
}

/// RQR: the `R` factor only.
pub fn rqr<C: AsRef<[f64]>>(a: &[C]) -> Result<Vec<Vec<f64>>, LinalgError> {
    Ok(qr(a)?.1)
}

/// Least squares via Gram-Schmidt QR: `x = R⁻¹ Qᵀ b` per rhs column. A
/// diagonal entry of `R` at most `1e-12` times the largest one is a
/// rank deficiency.
pub fn least_squares<A: AsRef<[f64]>, B: AsRef<[f64]>>(
    a: &[A],
    rhs: &[B],
) -> Result<Vec<Vec<f64>>, LinalgError> {
    let (m, n) = shape(a)?;
    let (mr, _) = shape(rhs)?;
    if m != mr {
        return Err(LinalgError::DimensionMismatch {
            context: "least squares rhs rows",
        });
    }
    let (q, r) = qr(a)?;
    let scale = (0..n).fold(0.0f64, |s, i| s.max(r[i][i].abs()));
    if (0..n).any(|i| r[i][i].abs() <= PIVOT_EPS * scale) {
        return Err(LinalgError::Singular);
    }
    let mut out = Vec::with_capacity(rhs.len());
    for b in rhs.iter() {
        // qtb[i] = qᵢ · b
        let qtb: Vec<f64> = q.iter().map(|qi| dot_col(qi, b.as_ref())).collect();
        // back substitution on R (stored column-wise: r[j][i] = R[i][j])
        let mut x = qtb;
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in i + 1..n {
                s -= r[j][i] * x[j];
            }
            x[i] = s / r[i][i];
        }
        out.push(x);
    }
    Ok(out)
}

fn borrow_two(cols: &mut [Vec<f64>], i: usize, j: usize) -> (&[f64], &mut Vec<f64>) {
    debug_assert!(i < j);
    let (l, r) = cols.split_at_mut(j);
    (&l[i], &mut r[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use crate::dense::matrix::Matrix;

    fn to_matrix(cols: &[Vec<f64>]) -> Matrix {
        Matrix::from_columns(cols).unwrap()
    }

    fn weather() -> Vec<Vec<f64>> {
        // Figure 8's g as columns
        vec![vec![1.0, 1.0, 6.0, 8.0], vec![3.0, 4.0, 7.0, 5.0]]
    }

    #[test]
    fn qr_reconstructs() {
        let (q, r) = qr(&weather()).unwrap();
        let back = dense::gemm::matmul(&to_matrix(&q), &to_matrix(&r)).unwrap();
        assert!(back.approx_eq(&to_matrix(&weather()), 1e-10));
    }

    #[test]
    fn q_orthonormal_r_triangular() {
        let (q, r) = qr(&weather()).unwrap();
        let qm = to_matrix(&q);
        let qtq = dense::gemm::crossprod(&qm, &qm).unwrap();
        assert!(qtq.approx_eq(&Matrix::identity(2), 1e-10));
        assert_eq!(r[0][1], 0.0); // below-diagonal of R is zero
    }

    #[test]
    fn r_magnitudes_match_householder() {
        let (_, r_gs) = qr(&weather()).unwrap();
        let qr_h = dense::qr::qr(&to_matrix(&weather())).unwrap();
        for i in 0..2 {
            for j in i..2 {
                assert!((r_gs[j][i].abs() - qr_h.r.get(i, j).abs()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rank_deficient_handled() {
        let a = vec![vec![1.0, 2.0, 3.0], vec![2.0, 4.0, 6.0]];
        let (q, r) = qr(&a).unwrap();
        assert_eq!(r[1][1], 0.0);
        assert!(q[1].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn least_squares_matches_dense() {
        let a = vec![vec![1.0, 1.0, 1.0, 1.0], vec![0.0, 1.0, 2.0, 3.0]];
        let b = vec![vec![1.1, 2.9, 5.1, 6.9]];
        let x = least_squares(&a, &b).unwrap();
        let xd = dense::qr::least_squares(&to_matrix(&a), &Matrix::col_vector(&b[0])).unwrap();
        assert!((x[0][0] - xd.get(0, 0)).abs() < 1e-10);
        assert!((x[0][1] - xd.get(1, 0)).abs() < 1e-10);
    }

    #[test]
    fn least_squares_singular_detected() {
        let a = vec![vec![1.0, 1.0, 1.0], vec![1.0, 1.0, 1.0]];
        let b = vec![vec![1.0, 2.0, 3.0]];
        assert!(matches!(least_squares(&a, &b), Err(LinalgError::Singular)));
    }

    #[test]
    fn shape_errors() {
        let wide = vec![vec![1.0], vec![2.0], vec![3.0]];
        assert!(qr(&wide).is_err());
        let empty: Vec<Vec<f64>> = vec![];
        assert!(qr(&empty).is_err());
    }
}
