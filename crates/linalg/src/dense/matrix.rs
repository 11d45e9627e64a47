//! Dense column-major matrices — the "MKL format" of the paper.
//!
//! The paper's RMA+MKL path copies BATs into a contiguous array of doubles;
//! since BATs are columns, the natural contiguous layout is column-major:
//! converting a list of BATs is a sequence of `memcpy`s. All dense kernels in
//! this crate work on this layout.

use crate::error::LinalgError;
use std::fmt;

/// An `m × n` dense matrix of `f64` in column-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build from a column-major buffer.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                context: "from_col_major buffer size",
            });
        }
        Ok(Matrix { data, rows, cols })
    }

    /// Build from column vectors (the BAT→dense copy): owned vectors or
    /// lent slices. All columns must have equal length.
    pub fn from_columns<C: AsRef<[f64]>>(columns: &[C]) -> Result<Self, LinalgError> {
        let rows = columns.first().map_or(0, |c| c.as_ref().len());
        let mut data = Vec::with_capacity(rows * columns.len());
        for c in columns {
            let c = c.as_ref();
            if c.len() != rows {
                return Err(LinalgError::DimensionMismatch {
                    context: "from_columns ragged input",
                });
            }
            data.extend_from_slice(c);
        }
        Ok(Matrix {
            data,
            rows,
            cols: columns.len(),
        })
    }

    /// [`Matrix::from_columns`] with the rows gathered on the way in: row
    /// `i` of the result is row `rows[i]` of every column. The BAT→dense
    /// copy and a row alignment in one pass.
    pub fn gather_columns<C: AsRef<[f64]>>(
        columns: &[C],
        rows: &[usize],
    ) -> Result<Self, LinalgError> {
        let len = columns.first().map_or(0, |c| c.as_ref().len());
        let mut data = Vec::with_capacity(rows.len() * columns.len());
        for c in columns {
            let c = c.as_ref();
            if c.len() != len {
                return Err(LinalgError::DimensionMismatch {
                    context: "gather_columns ragged input",
                });
            }
            data.extend(rows.iter().map(|&i| c[i]));
        }
        Ok(Matrix {
            data,
            rows: rows.len(),
            cols: columns.len(),
        })
    }

    /// Build from row slices (test convenience).
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let m = rows.len();
        let n = rows.first().map_or(0, |r| r.len());
        if rows.iter().any(|r| r.len() != n) {
            return Err(LinalgError::DimensionMismatch {
                context: "from_rows ragged input",
            });
        }
        let mut out = Matrix::zeros(m, n);
        for (i, r) in rows.iter().enumerate() {
            for (j, &v) in r.iter().enumerate() {
                out.set(i, j, v);
            }
        }
        Ok(out)
    }

    /// A column vector.
    pub fn col_vector(values: &[f64]) -> Self {
        Matrix {
            data: values.to_vec(),
            rows: values.len(),
            cols: 1,
        }
    }

    /// Number of rows `|m|`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns `#m`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i] = v;
    }

    /// Borrow column `j` as a contiguous slice (free in column-major layout).
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable column slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Copy row `i` out (strided access).
    pub fn row(&self, i: usize) -> Vec<f64> {
        (0..self.cols).map(|j| self.get(i, j)).collect()
    }

    /// The raw column-major buffer (the "contiguous array of doubles" handed
    /// to the MKL-role kernels).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw buffer (used by the parallel GEMM to hand disjoint column
    /// chunks to worker threads).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Decompose into column vectors (the dense→BAT copy back). One linear
    /// pass; each column is copied exactly once.
    pub fn into_columns(self) -> Vec<Vec<f64>> {
        if self.rows == 0 {
            return vec![Vec::new(); self.cols];
        }
        self.data
            .chunks_exact(self.rows)
            .map(<[f64]>::to_vec)
            .collect()
    }

    /// Transpose (out-of-place).
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            let src = self.col(j);
            for (i, &v) in src.iter().enumerate() {
                t.set(j, i, v);
            }
        }
        t
    }

    /// Horizontal concatenation `self ⧺ other` (the paper's `m ‖ n`,
    /// Eq. (3)): both operands must have the same number of rows.
    pub fn concat_h(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "horizontal concatenation row counts",
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            data,
            rows: self.rows,
            cols: self.cols + other.cols,
        })
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            data: self.data.iter().map(|&x| f(x)).collect(),
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Element-wise combination with another matrix of the same shape.
    pub fn zip_with(
        &self,
        other: &Matrix,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "element-wise operation shapes",
            });
        }
        Ok(Matrix {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&x, &y)| f(x, y))
                .collect(),
            rows: self.rows,
            cols: self.cols,
        })
    }

    /// Element-wise combination, split across worker threads for large
    /// matrices. Bitwise-identical to [`Matrix::zip_with`].
    pub fn zip_with_parallel(
        &self,
        other: &Matrix,
        f: impl Fn(f64, f64) -> f64 + Sync,
    ) -> Result<Matrix, LinalgError> {
        let threads = crate::threads::available_threads();
        if threads <= 1 || self.data.len() < PAR_ELEMWISE_MIN {
            return self.zip_with(other, f);
        }
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "element-wise operation shapes",
            });
        }
        let mut data = vec![0.0; self.data.len()];
        elementwise_chunks(threads, &mut data, |start, dst| {
            let a = &self.data[start..start + dst.len()];
            let b = &other.data[start..start + dst.len()];
            for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                *d = f(x, y);
            }
        });
        Ok(Matrix {
            data,
            rows: self.rows,
            cols: self.cols,
        })
    }

    /// Max absolute difference to another matrix (test helper).
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Approximate equality within `tol` (test helper).
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.max_abs_diff(other) <= tol
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

/// Element count below which element-wise operations stay serial (thread
/// spawn overhead dominates for small matrices).
const PAR_ELEMWISE_MIN: usize = 1 << 15;

/// Split `out` into `threads` contiguous chunks and run `f(start, chunk)`
/// for each on the shared executor's workers (the session worker pool once
/// installed). Chunks are disjoint, so workers need no synchronisation.
fn elementwise_chunks(threads: usize, out: &mut [f64], f: impl Fn(usize, &mut [f64]) + Sync) {
    let chunk = out.len().div_ceil(threads).max(1);
    crate::threads::par_chunks_mut(out, chunk, |_, start, dst| f(start, dst));
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows.min(12) {
            for j in 0..self.cols.min(12) {
                write!(f, "{:>10.4} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.col(0), &[1.0, 3.0]);
        assert_eq!(m.row(1), vec![3.0, 4.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
    }

    #[test]
    fn from_columns_roundtrip() {
        let cols = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let m = Matrix::from_columns(&cols).unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.get(2, 1), 6.0);
        assert_eq!(m.into_columns(), cols);
        let lent: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        assert_eq!(Matrix::from_columns(&lent).unwrap().get(2, 1), 6.0);
    }

    #[test]
    fn gather_columns_is_from_columns_of_the_gather() {
        let cols = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let m = Matrix::gather_columns(&cols, &[2, 0, 1]).unwrap();
        let want = Matrix::from_columns(&[vec![3.0, 1.0, 2.0], vec![6.0, 4.0, 5.0]]).unwrap();
        assert_eq!(m, want);
        assert!(Matrix::gather_columns(&[vec![1.0], vec![1.0, 2.0]], &[0]).is_err());
    }

    #[test]
    fn ragged_inputs_rejected() {
        assert!(Matrix::from_columns(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0][..]]).is_err());
        assert!(Matrix::from_col_major(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn concat_h_matches_paper_eq3() {
        // Fig. 1: d ‖ e
        let d = Matrix::from_rows(&[&[10.0], &[20.0]]).unwrap();
        let e = Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]).unwrap();
        let h = d.concat_h(&e).unwrap();
        assert_eq!(h.cols(), 3);
        assert_eq!(h.row(0), vec![10.0, 1.0, 3.0]);
        let bad = Matrix::zeros(3, 1);
        assert!(d.concat_h(&bad).is_err());
    }

    #[test]
    fn identity_and_zeros() {
        let i = Matrix::identity(3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert!(Matrix::zeros(0, 0).is_empty());
    }

    #[test]
    fn map_and_zip() {
        let m = Matrix::from_rows(&[&[1.0, -2.0]]).unwrap();
        assert_eq!(m.map(f64::abs).row(0), vec![1.0, 2.0]);
        let s = m.zip_with(&m, |a, b| a + b).unwrap();
        assert_eq!(s.row(0), vec![2.0, -4.0]);
        assert!(m.zip_with(&Matrix::zeros(2, 2), |a, _| a).is_err());
    }

    #[test]
    fn parallel_elementwise_matches_serial() {
        // above PAR_ELEMWISE_MIN so the threaded path actually runs
        let n = 260;
        let m = Matrix::from_columns(
            &(0..n)
                .map(|j| {
                    (0..n)
                        .map(|i| ((i * 3 + j) % 29) as f64 - 14.0)
                        .collect::<Vec<f64>>()
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(
            m.zip_with_parallel(&m, |a, b| a * b).unwrap(),
            m.zip_with(&m, |a, b| a * b).unwrap()
        );
        assert!(m.zip_with_parallel(&Matrix::zeros(2, 2), |a, _| a).is_err());
    }

    #[test]
    fn norms_and_approx() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        let n = Matrix::from_rows(&[&[3.0, 4.0 + 1e-12]]).unwrap();
        assert!(m.approx_eq(&n, 1e-9));
        assert!(!m.approx_eq(&n, 1e-15));
    }

    #[test]
    fn col_vector() {
        let v = Matrix::col_vector(&[1.0, 2.0]);
        assert_eq!(v.rows(), 2);
        assert_eq!(v.cols(), 1);
    }
}
