//! Column-at-a-time ("no-copy BAT") linear-algebra kernels.
//!
//! This module plays the role of the paper's in-kernel MonetDB
//! implementations (§7.3): every algorithm is expressed over a *list of
//! column vectors* using vectorised column operations (axpy, scale, dot)
//! plus the occasional `sel` single-element access — no conversion to a
//! contiguous matrix ever happens. That is exactly the trade-off the
//! paper's RMA+BAT configuration measures: no transformation cost, but a
//! less cache-friendly algorithm for complex operations.
//!
//! Kernels provided (matching the subset the paper implemented over BATs):
//! element-wise `add`/`sub`/`emu`, products `mmu`/`cpd`/`opd`, `tra`,
//! Gauss-Jordan `inv` (the paper's Algorithm 2, extended with column
//! pivoting), `det`, `sol`, `rnk`, Gram-Schmidt `qqr`/`rqr` (per the
//! paper's Gander reference \[12\]), and a columnwise `chf`. The remaining
//! operations (SVD and eigen decompositions) always delegate to the dense
//! kernel; the policy layer in `rma-core` handles that.
//!
//! Every entry point takes its matrices as `&[C]` with `C: AsRef<[f64]>`:
//! owned `Vec<f64>` columns, or columns the storage layer lends
//! (`Cow<[f64]>` borrowed straight from a relation's float BATs), so a
//! caller never has to copy a column just to hand it to a kernel.

mod elementwise;
mod gauss;
mod gram_schmidt;
mod products;

pub use elementwise::{add, emu, sub, zip_aligned};
pub use gauss::{chf, det, inv, rnk, sol};
pub use gram_schmidt::{qqr, rqr};
pub use products::{cpd, mmu, opd, tra};

use crate::error::LinalgError;

/// Validate that `cols` is rectangular and return `(rows, cols)`.
pub(crate) fn shape<C: AsRef<[f64]>>(cols: &[C]) -> Result<(usize, usize), LinalgError> {
    let n = cols.len();
    let m = cols.first().map_or(0, |c| c.as_ref().len());
    if cols.iter().any(|c| c.as_ref().len() != m) {
        return Err(LinalgError::DimensionMismatch {
            context: "ragged column list",
        });
    }
    Ok((m, n))
}

/// An owned working copy of a column list (for kernels that update in
/// place).
pub(crate) fn to_owned_cols<C: AsRef<[f64]>>(cols: &[C]) -> Vec<Vec<f64>> {
    cols.iter().map(|c| c.as_ref().to_vec()).collect()
}

/// `sel(B, i)` — the single-element access primitive of Algorithm 2.
#[inline]
pub(crate) fn sel(col: &[f64], i: usize) -> f64 {
    col[i]
}

/// `B ← B / v` — scale a column by a scalar.
#[inline]
pub(crate) fn scale_col(col: &mut [f64], v: f64) {
    for x in col.iter_mut() {
        *x /= v;
    }
}

/// `B ← B − C·v` — fused axpy, the inner loop of Gauss-Jordan over BATs.
#[inline]
pub(crate) fn sub_scaled_col(col: &mut [f64], other: &[f64], v: f64) {
    for (x, &y) in col.iter_mut().zip(other) {
        *x -= y * v;
    }
}

/// Dot product of two columns.
#[inline]
pub(crate) fn dot_col(a: &[f64], b: &[f64]) -> f64 {
    crate::dense::gemm::dot(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_checks() {
        assert_eq!(shape(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap(), (2, 2));
        assert_eq!(shape::<Vec<f64>>(&[]).unwrap(), (0, 0));
        let lent: [&[f64]; 2] = [&[1.0, 2.0], &[3.0, 4.0]];
        assert_eq!(shape(&lent).unwrap(), (2, 2));
        assert!(shape(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn primitives() {
        let mut c = vec![2.0, 4.0, 6.0];
        scale_col(&mut c, 2.0);
        assert_eq!(c, vec![1.0, 2.0, 3.0]);
        sub_scaled_col(&mut c, &[1.0, 1.0, 1.0], 1.0);
        assert_eq!(c, vec![0.0, 1.0, 2.0]);
        assert_eq!(sel(&c, 2), 2.0);
        assert_eq!(dot_col(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }
}
