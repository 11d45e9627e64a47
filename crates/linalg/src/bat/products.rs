//! Product BAT kernels: MMU, CPD, OPD, TRA.
//!
//! `mmu` and `cpd` decompose into column axpys and column dot products,
//! which vectorise well; `tra` and `opd` need per-element access — exactly
//! the access pattern the paper identifies as the BAT path's weakness for
//! complex operations (Fig. 17b's 24–70× gap for the cross product).

use super::{sel, shape, sub_scaled_col};
use crate::error::LinalgError;

/// Matrix multiplication `A·B`: result column `j` is the linear combination
/// of `A`'s columns weighted by `B[:, j]`.
pub fn mmu<A: AsRef<[f64]>, B: AsRef<[f64]>>(
    a: &[A],
    b: &[B],
) -> Result<Vec<Vec<f64>>, LinalgError> {
    let (m, ka) = shape(a)?;
    let (kb, n) = shape(b)?;
    if ka != kb {
        return Err(LinalgError::DimensionMismatch {
            context: "mmu: a.cols must equal b.rows",
        });
    }
    let mut out = Vec::with_capacity(n);
    for j in 0..n {
        let mut col = vec![0.0f64; m];
        for (l, al) in a.iter().enumerate() {
            let w = sel(b[j].as_ref(), l);
            if w != 0.0 {
                // col += al * w  (negated axpy reused as fused op)
                sub_scaled_col(&mut col, al.as_ref(), -w);
            }
        }
        out.push(col);
    }
    Ok(out)
}

/// Cross product `Aᵀ·B`: one column dot product per output cell.
pub fn cpd<A: AsRef<[f64]>, B: AsRef<[f64]>>(
    a: &[A],
    b: &[B],
) -> Result<Vec<Vec<f64>>, LinalgError> {
    let (ra, ca) = shape(a)?;
    let (rb, cb) = shape(b)?;
    if ra != rb {
        return Err(LinalgError::DimensionMismatch {
            context: "cpd: row counts must match",
        });
    }
    let mut out = Vec::with_capacity(cb);
    for j in 0..cb {
        let mut col = Vec::with_capacity(ca);
        for ai in a.iter() {
            col.push(super::dot_col(ai.as_ref(), b[j].as_ref()));
        }
        out.push(col);
    }
    Ok(out)
}

/// Outer product `A·Bᵀ` for matrices sharing a column count: result column
/// `j` (length = rows of A) accumulates `A[:,k] · B[j,k]` — per-element
/// access into `B`.
pub fn opd<A: AsRef<[f64]>, B: AsRef<[f64]>>(
    a: &[A],
    b: &[B],
) -> Result<Vec<Vec<f64>>, LinalgError> {
    let (ma, ka) = shape(a)?;
    let (mb, kb) = shape(b)?;
    if ka != kb {
        return Err(LinalgError::DimensionMismatch {
            context: "opd: column counts must match",
        });
    }
    let mut out = Vec::with_capacity(mb);
    for j in 0..mb {
        let mut col = vec![0.0f64; ma];
        for (k, ak) in a.iter().enumerate() {
            let w = sel(b[k].as_ref(), j);
            if w != 0.0 {
                sub_scaled_col(&mut col, ak.as_ref(), -w);
            }
        }
        out.push(col);
    }
    Ok(out)
}

/// Transpose: pure element shuffling (the worst case for columnar storage).
pub fn tra<C: AsRef<[f64]>>(a: &[C]) -> Result<Vec<Vec<f64>>, LinalgError> {
    let (m, n) = shape(a)?;
    let mut out = vec![vec![0.0f64; n]; m];
    for (j, col) in a.iter().enumerate() {
        for (i, &v) in col.as_ref().iter().enumerate() {
            out[i][j] = v;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::gemm;
    use crate::dense::matrix::Matrix;

    fn to_matrix(cols: &[Vec<f64>]) -> Matrix {
        Matrix::from_columns(cols).unwrap()
    }

    fn a() -> Vec<Vec<f64>> {
        // 3×2
        vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]
    }
    fn b() -> Vec<Vec<f64>> {
        // 2×2
        vec![vec![1.0, 0.5], vec![-1.0, 2.0]]
    }

    #[test]
    fn mmu_matches_dense() {
        let got = to_matrix(&mmu(&a(), &b()).unwrap());
        let expect = gemm::matmul(&to_matrix(&a()), &to_matrix(&b())).unwrap();
        assert!(got.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn cpd_matches_dense() {
        let got = to_matrix(&cpd(&a(), &a()).unwrap());
        let expect = gemm::crossprod(&to_matrix(&a()), &to_matrix(&a())).unwrap();
        assert!(got.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn opd_matches_dense() {
        let c = vec![vec![1.0, 2.0], vec![0.0, 1.0]]; // 2×2
        let got = to_matrix(&opd(&a(), &c).unwrap());
        let expect = gemm::outer(&to_matrix(&a()), &to_matrix(&c)).unwrap();
        assert!(got.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn tra_roundtrip() {
        let t = tra(&a()).unwrap();
        assert_eq!(t.len(), 3); // 3 columns of length 2
        assert_eq!(t[0], vec![1.0, 4.0]);
        let back = tra(&t).unwrap();
        assert_eq!(back, a());
    }

    #[test]
    fn shape_errors() {
        assert!(mmu(&a(), &a()).is_err()); // 3×2 · 3×2
        assert!(cpd(&a(), &b()).is_err()); // 3 rows vs 2 rows
        let three_col = vec![vec![1.0], vec![2.0], vec![3.0]];
        assert!(opd(&a(), &three_col).is_err());
    }

    #[test]
    fn identity_multiplication() {
        let id = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        assert_eq!(mmu(&a(), &id).unwrap(), a());
    }
}
