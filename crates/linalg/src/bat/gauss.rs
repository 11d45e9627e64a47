//! Gauss-Jordan elimination over columns: INV (the paper's Algorithm 2),
//! DET, SOL, RNK, and a columnwise CHF.
//!
//! Operating on *columns* (not rows) keeps every bulk step a vectorised BAT
//! operation: scaling a column, axpy between columns, and column swaps.
//! Column operations multiply elimination matrices on the right, so reducing
//! `A` to `I` by column ops while applying the same ops to `I` yields
//! `A·E = I` and `I·E = A⁻¹`. We extend Algorithm 2 with column pivoting for
//! numerical robustness (the paper's listing omits it).

use super::{scale_col, sel, shape, sub_scaled_col, to_owned_cols};
use crate::error::LinalgError;
use crate::PIVOT_EPS;

fn max_abs<C: AsRef<[f64]>>(cols: &[C]) -> f64 {
    cols.iter()
        .flat_map(|c| c.as_ref().iter())
        .fold(0.0f64, |m, &x| m.max(x.abs()))
        .max(1.0)
}

/// Algorithm 2: matrix inversion by Gauss-Jordan elimination over BATs.
pub fn inv<C: AsRef<[f64]>>(b: &[C]) -> Result<Vec<Vec<f64>>, LinalgError> {
    let (m, n) = shape(b)?;
    if m != n {
        return Err(LinalgError::NotSquare);
    }
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    let scale = max_abs(b);
    let mut b = to_owned_cols(b);
    // BR ← IDmatrix(n)
    let mut br: Vec<Vec<f64>> = (0..n)
        .map(|j| {
            let mut c = vec![0.0; n];
            c[j] = 1.0;
            c
        })
        .collect();
    for i in 0..n {
        // column pivot: pick the column j ≥ i with the largest |B_j[i]|
        let p = (i..n)
            .max_by(|&x, &y| sel(&b[x], i).abs().total_cmp(&sel(&b[y], i).abs()))
            .expect("non-empty range");
        if sel(&b[p], i).abs() <= PIVOT_EPS * scale {
            return Err(LinalgError::Singular);
        }
        if p != i {
            b.swap(p, i);
            br.swap(p, i);
        }
        // v1 ← sel(B_i, i);  B_i ← B_i/v1;  BR_i ← BR_i/v1
        let v1 = sel(&b[i], i);
        scale_col(&mut b[i], v1);
        scale_col(&mut br[i], v1);
        // for j ≠ i: v2 ← sel(B_j, i); B_j ← B_j − B_i·v2; BR_j ← BR_j − BR_i·v2
        for j in 0..n {
            if i == j {
                continue;
            }
            let v2 = sel(&b[j], i);
            if v2 == 0.0 {
                continue;
            }
            let (bi, bj) = borrow_two(&mut b, i, j);
            sub_scaled_col(bj, bi, v2);
            let (bri, brj) = borrow_two(&mut br, i, j);
            sub_scaled_col(brj, bri, v2);
        }
    }
    Ok(br)
}

/// Determinant by triangularising with column operations; the product of
/// pivots (sign-adjusted for column swaps) is the determinant.
pub fn det<C: AsRef<[f64]>>(b: &[C]) -> Result<f64, LinalgError> {
    let (m, n) = shape(b)?;
    if m != n {
        return Err(LinalgError::NotSquare);
    }
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    let scale = max_abs(b);
    let mut b = to_owned_cols(b);
    let mut d = 1.0f64;
    for i in 0..n {
        let p = (i..n)
            .max_by(|&x, &y| sel(&b[x], i).abs().total_cmp(&sel(&b[y], i).abs()))
            .expect("non-empty range");
        let pivot = sel(&b[p], i);
        if pivot.abs() <= PIVOT_EPS * scale {
            return Ok(0.0);
        }
        if p != i {
            b.swap(p, i);
            d = -d;
        }
        d *= pivot;
        for j in i + 1..n {
            let v2 = sel(&b[j], i) / pivot;
            if v2 == 0.0 {
                continue;
            }
            let (bi, bj) = borrow_two(&mut b, i, j);
            sub_scaled_col(bj, bi, v2);
        }
    }
    Ok(d)
}

/// Solve `A·x = b` over columns. Square systems run Gauss-Jordan on the
/// augmented column list; overdetermined systems use Gram-Schmidt least
/// squares.
pub fn sol<A: AsRef<[f64]>, B: AsRef<[f64]>>(
    a: &[A],
    rhs: &[B],
) -> Result<Vec<Vec<f64>>, LinalgError> {
    let (m, n) = shape(a)?;
    let (mr, _nr) = shape(rhs)?;
    if m != mr {
        return Err(LinalgError::DimensionMismatch {
            context: "sol: rhs rows must match matrix rows",
        });
    }
    if m == n {
        // x = A⁻¹·b via the BAT kernels
        let ainv = inv(a)?;
        super::products::mmu(&ainv, rhs)
    } else if m > n {
        super::gram_schmidt::least_squares(a, rhs)
    } else {
        Err(LinalgError::DimensionMismatch {
            context: "sol: underdetermined system (rows < cols)",
        })
    }
}

/// Numerical rank by modified Gram-Schmidt with a relative threshold: the
/// number of columns whose residual after orthogonalisation against the
/// previously accepted columns stays above `ε·‖column‖`.
pub fn rnk<C: AsRef<[f64]>>(a: &[C]) -> Result<usize, LinalgError> {
    let (m, _n) = shape(a)?;
    if a.is_empty() || m == 0 {
        return Err(LinalgError::Empty);
    }
    let scale = a
        .iter()
        .map(|c| super::dot_col(c.as_ref(), c.as_ref()).sqrt())
        .fold(0.0f64, f64::max);
    if scale == 0.0 {
        return Ok(0);
    }
    let tol = 1e-10 * scale;
    let mut basis: Vec<Vec<f64>> = Vec::new();
    for col in a.iter() {
        let mut w = col.as_ref().to_vec();
        for q in &basis {
            let proj = super::dot_col(q, &w);
            sub_scaled_col(&mut w, q, proj);
        }
        let norm = super::dot_col(&w, &w).sqrt();
        if norm > tol {
            scale_col(&mut w, norm);
            basis.push(w);
        }
    }
    Ok(basis.len())
}

/// Columnwise Cholesky (upper factor `R` with `A = Rᵀ·R`), using per-element
/// access within columns — slower than the dense kernel but copy-free.
pub fn chf<C: AsRef<[f64]>>(a: &[C]) -> Result<Vec<Vec<f64>>, LinalgError> {
    let (m, n) = shape(a)?;
    if m != n {
        return Err(LinalgError::NotSquare);
    }
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    // symmetry check
    let scale = max_abs(a);
    for i in 0..n {
        for j in i + 1..n {
            if (sel(a[j].as_ref(), i) - sel(a[i].as_ref(), j)).abs() > 1e-10 * scale {
                return Err(LinalgError::NotPositiveDefinite);
            }
        }
    }
    // r[j][i] = R[i][j]: columns of the result
    let mut r: Vec<Vec<f64>> = (0..n).map(|_| vec![0.0; n]).collect();
    for j in 0..n {
        let mut s = sel(a[j].as_ref(), j);
        for k in 0..j {
            let rkj = r[j][k];
            s -= rkj * rkj;
        }
        if s <= 0.0 {
            return Err(LinalgError::NotPositiveDefinite);
        }
        let rjj = s.sqrt();
        r[j][j] = rjj;
        for i in j + 1..n {
            let mut s = sel(a[i].as_ref(), j);
            for k in 0..j {
                s -= r[j][k] * r[i][k];
            }
            r[i][j] = s / rjj;
        }
    }
    Ok(r)
}

/// Borrow two distinct columns mutably.
fn borrow_two(cols: &mut [Vec<f64>], i: usize, j: usize) -> (&[f64], &mut Vec<f64>) {
    debug_assert_ne!(i, j);
    if i < j {
        let (l, r) = cols.split_at_mut(j);
        (&l[i], &mut r[0])
    } else {
        let (l, r) = cols.split_at_mut(i);
        (&r[0], &mut l[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use crate::dense::matrix::Matrix;

    fn to_matrix(cols: &[Vec<f64>]) -> Matrix {
        Matrix::from_columns(cols).unwrap()
    }

    fn paper_n() -> Vec<Vec<f64>> {
        // Figure 3: n = [[6,7],[8,5]] (columns: [6,8], [7,5])
        vec![vec![6.0, 8.0], vec![7.0, 5.0]]
    }

    #[test]
    fn inv_matches_paper_figure3() {
        let h = inv(&paper_n()).unwrap();
        assert!((h[0][0] - -0.1923).abs() < 1e-3);
        assert!((h[1][0] - 0.2692).abs() < 1e-3);
        assert!((h[0][1] - 0.3077).abs() < 1e-3);
        assert!((h[1][1] - -0.2308).abs() < 1e-3);
    }

    #[test]
    fn inv_matches_dense_kernel() {
        let a = vec![
            vec![4.0, 3.0, 2.0],
            vec![-2.0, 6.0, 1.0],
            vec![1.0, -4.0, 8.0],
        ];
        let got = to_matrix(&inv(&a).unwrap());
        let expect = dense::lu::inverse(&to_matrix(&a)).unwrap();
        assert!(got.approx_eq(&expect, 1e-10));
    }

    #[test]
    fn inv_needs_pivoting() {
        // zero leading diagonal entry: plain Algorithm 2 would divide by 0
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let got = inv(&a).unwrap();
        assert_eq!(got, vec![vec![0.0, 1.0], vec![1.0, 0.0]]);
    }

    #[test]
    fn inv_singular_and_shape_errors() {
        let sing = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(matches!(inv(&sing), Err(LinalgError::Singular)));
        let rect = vec![vec![1.0, 2.0, 3.0]];
        assert!(matches!(inv(&rect), Err(LinalgError::NotSquare)));
        let empty: Vec<Vec<f64>> = vec![];
        assert!(matches!(inv(&empty), Err(LinalgError::Empty)));
    }

    #[test]
    fn det_matches_dense() {
        let a = vec![
            vec![4.0, 3.0, 2.0],
            vec![-2.0, 6.0, 1.0],
            vec![1.0, -4.0, 8.0],
        ];
        let got = det(&a).unwrap();
        let expect = dense::lu::det(&to_matrix(&a)).unwrap();
        assert!((got - expect).abs() < 1e-9);
        assert!((det(&paper_n()).unwrap() - -26.0).abs() < 1e-9);
    }

    #[test]
    fn det_singular_is_zero_and_swap_flips_sign() {
        assert_eq!(det(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap(), 0.0);
        let p = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        assert!((det(&p).unwrap() - -1.0).abs() < 1e-12);
    }

    #[test]
    fn sol_square_and_least_squares() {
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let b = vec![vec![3.0, 5.0]];
        let x = sol(&a, &b).unwrap();
        assert!((x[0][0] - 0.8).abs() < 1e-10);
        assert!((x[0][1] - 1.4).abs() < 1e-10);
        // overdetermined: exact line y = 1 + 2x
        let a = vec![vec![1.0, 1.0, 1.0], vec![1.0, 2.0, 3.0]];
        let b = vec![vec![3.0, 5.0, 7.0]];
        let x = sol(&a, &b).unwrap();
        assert!((x[0][0] - 1.0).abs() < 1e-9);
        assert!((x[0][1] - 2.0).abs() < 1e-9);
        // underdetermined rejected
        let wide = vec![vec![1.0], vec![2.0], vec![3.0]];
        assert!(sol(&wide, &[vec![1.0]]).is_err());
    }

    #[test]
    fn rnk_cases() {
        let full = vec![vec![1.0, 0.0, 1.0], vec![0.0, 1.0, 1.0]];
        assert_eq!(rnk(&full).unwrap(), 2);
        let def = vec![vec![1.0, 2.0, 3.0], vec![2.0, 4.0, 6.0]];
        assert_eq!(rnk(&def).unwrap(), 1);
        let zero = vec![vec![0.0, 0.0], vec![0.0, 0.0]];
        assert_eq!(rnk(&zero).unwrap(), 0);
    }

    #[test]
    fn chf_matches_dense() {
        let a = vec![
            vec![4.0, 12.0, -16.0],
            vec![12.0, 37.0, -43.0],
            vec![-16.0, -43.0, 98.0],
        ];
        let got = to_matrix(&chf(&a).unwrap());
        let expect = dense::chol::cholesky(&to_matrix(&a)).unwrap();
        assert!(got.approx_eq(&expect, 1e-10));
    }

    #[test]
    fn chf_rejects_indefinite() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        assert!(matches!(chf(&a), Err(LinalgError::NotPositiveDefinite)));
    }
}
