//! Matrix products: blocked, optionally threaded GEMM plus the derived
//! products the RMA operations need (MMU, CPD, OPD).
//!
//! The kernel is a cache-blocked `C += A·B` over column-major storage with a
//! column-parallel outer loop on the scoped executor (the executing query's
//! worker pool — see [`crate::threads`]), standing in for the
//! multi-threaded MKL of the paper.

use super::matrix::Matrix;
use crate::error::LinalgError;

/// Cache block edge (elements). 64×64 f64 blocks ≈ 32 KiB, comfortably
/// within L1+L2 for three operands.
const BLOCK: usize = 64;

/// Parallelise only when the output has at least this many elements;
/// thread spawn overhead dominates below.
const PAR_THRESHOLD: usize = 256 * 256;

/// Flop-count threshold for parallelising dot-product-shaped kernels whose
/// output may be small while the reduction dimension is long.
const PAR_FLOPS: usize = 1 << 20;

/// `A · B` (the base result of `mmu`). Shape `(m×k) · (k×n) → (m×n)`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    if a.cols() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            context: "matmul: a.cols must equal b.rows",
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    let threads = crate::threads::threads();
    if m * n >= PAR_THRESHOLD && threads > 1 && n > 1 {
        matmul_parallel(a, b, &mut c, threads);
    } else {
        for j0 in (0..n).step_by(BLOCK) {
            let jmax = (j0 + BLOCK).min(n);
            matmul_block_cols(a, b, &mut c, j0, jmax, m, k);
        }
    }
    Ok(c)
}

fn matmul_parallel(a: &Matrix, b: &Matrix, c: &mut Matrix, threads: usize) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    // Split C into contiguous column chunks: in column-major layout a chunk
    // of columns is a contiguous mutable slice, so each worker owns disjoint
    // memory and no synchronisation is needed. Workers come from the scoped
    // executor (the query's worker pool), not per-call spawns.
    let chunk_cols = n.div_ceil(threads).max(1);
    let buf = c.as_mut_slice();
    crate::threads::par_chunks_mut(buf, chunk_cols * m, |chunk_id, _start, chunk| {
        let j_start = chunk_id * chunk_cols;
        let ncols = chunk.len() / m;
        for l0 in (0..k).step_by(BLOCK) {
            let lmax = (l0 + BLOCK).min(k);
            for jc in 0..ncols {
                let j = j_start + jc;
                let bj = b.col(j);
                let cj = &mut chunk[jc * m..(jc + 1) * m];
                for l in l0..lmax {
                    let blj = bj[l];
                    if blj == 0.0 {
                        continue;
                    }
                    let al = a.col(l);
                    for i in 0..m {
                        cj[i] += al[i] * blj;
                    }
                }
            }
        }
    });
}

#[inline]
fn matmul_block_cols(
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
    j0: usize,
    jmax: usize,
    m: usize,
    k: usize,
) {
    // c[:, j] += a[:, l] * b[l, j], blocked over l and rows for locality
    for l0 in (0..k).step_by(BLOCK) {
        let lmax = (l0 + BLOCK).min(k);
        for j in j0..jmax {
            let bj = b.col(j);
            let cj = c.col_mut(j);
            for l in l0..lmax {
                let blj = bj[l];
                if blj == 0.0 {
                    continue;
                }
                let al = a.col(l);
                // axpy over contiguous column slices: auto-vectorises
                for i in 0..m {
                    cj[i] += al[i] * blj;
                }
            }
        }
    }
}

/// `Aᵀ · B` (the base result of `cpd`, R's `crossprod`). Shape
/// `(k×m)ᵀ · (k×n) → (m×n)`; computed as column dot products without
/// materialising the transpose.
pub fn crossprod(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    if a.rows() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            context: "crossprod: row counts must match",
        });
    }
    let (m, n, k) = (a.cols(), b.cols(), a.rows());
    let mut c = Matrix::zeros(m, n);
    let threads = crate::threads::threads();
    if threads > 1 && n > 1 && m * n * k >= PAR_FLOPS {
        // split C into contiguous column chunks (disjoint in column-major
        // layout); each worker computes the dot products of its columns,
        // claiming chunks on the scoped executor
        let chunk_cols = n.div_ceil(threads).max(1);
        let buf = c.as_mut_slice();
        crate::threads::par_chunks_mut(buf, chunk_cols * m, |chunk_id, _start, chunk| {
            let j_start = chunk_id * chunk_cols;
            for (jc, cj) in chunk.chunks_mut(m).enumerate() {
                let bj = b.col(j_start + jc);
                for (i, out) in cj.iter_mut().enumerate() {
                    *out = dot(a.col(i), bj);
                }
            }
        });
    } else {
        for j in 0..n {
            let bj = b.col(j);
            for i in 0..m {
                let ai = a.col(i);
                c.set(i, j, dot(ai, bj));
            }
        }
    }
    Ok(c)
}

/// `A · Bᵀ` (the base result of `opd`, R's outer product for matrices with
/// a common inner column count). Shape `(m×k) · (n×k)ᵀ → (m×n)`.
pub fn outer(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    if a.cols() != b.cols() {
        return Err(LinalgError::DimensionMismatch {
            context: "outer: column counts must match",
        });
    }
    let (m, n, k) = (a.rows(), b.rows(), a.cols());
    let mut c = Matrix::zeros(m, n);
    for j in 0..n {
        let cj = c.col_mut(j);
        for l in 0..k {
            let blj = b.get(j, l);
            if blj == 0.0 {
                continue;
            }
            let al = a.col(l);
            for i in 0..m {
                cj[i] += al[i] * blj;
            }
        }
    }
    Ok(c)
}

#[inline]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // 8 × 2 independent accumulators: enough add chains in flight to hide
    // the add latency; LLVM vectorises each pair of lanes.
    let mut acc = [0.0f64; 16];
    let (ca, cb) = (a.chunks_exact(16), b.chunks_exact(16));
    let tail: f64 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(x, y)| x * y)
        .sum();
    for (x, y) in ca.zip(cb) {
        for l in 0..16 {
            acc[l] += x[l] * y[l];
        }
    }
    acc.iter().sum::<f64>() + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threads::tests::Spawning;
    use crate::threads::with_parallelism;
    use std::sync::atomic::Ordering;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for l in 0..a.cols() {
                    s += a.get(i, l) * b.get(l, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_rectangular_matches_naive() {
        let a = Matrix::from_columns(&[
            (0..70).map(|x| x as f64).collect::<Vec<f64>>(),
            (0..70).map(|x| (x * 2) as f64).collect(),
            (0..70).map(|x| (x % 7) as f64).collect(),
        ])
        .unwrap();
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[2.0, -1.0], &[0.0, 3.0]]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert!(c.approx_eq(&naive_matmul(&a, &b), 1e-9));
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let c = matmul(&a, &Matrix::identity(2)).unwrap();
        assert!(c.approx_eq(&a, 1e-12));
    }

    #[test]
    fn crossprod_is_at_b() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[1.0], &[1.0], &[1.0]]).unwrap();
        let c = crossprod(&a, &b).unwrap();
        assert!(c.approx_eq(&matmul(&a.transpose(), &b).unwrap(), 1e-12));
        assert!(crossprod(&a, &Matrix::zeros(2, 1)).is_err());
    }

    #[test]
    fn outer_is_a_bt() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let c = outer(&a, &b).unwrap();
        assert!(c.approx_eq(&matmul(&a, &b.transpose()).unwrap(), 1e-12));
        assert!(outer(&a, &Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn matmul_parallel_path_matches_naive() {
        // 300×300 crosses PAR_THRESHOLD and PAR_FLOPS, so under a
        // multi-worker executor both products take their threaded kernels
        let n = 300;
        let a = Matrix::from_columns(
            &(0..n)
                .map(|j| {
                    (0..n)
                        .map(|i| ((i * 7 + j * 3) % 11) as f64)
                        .collect::<Vec<f64>>()
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let b = Matrix::from_columns(
            &(0..n)
                .map(|j| {
                    (0..n)
                        .map(|i| ((i + j) % 5) as f64 - 2.0)
                        .collect::<Vec<f64>>()
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let exec = Spawning::new(3);
        let (c, cp) = with_parallelism(exec.clone(), || {
            (matmul(&a, &b).unwrap(), crossprod(&a, &b).unwrap())
        });
        assert_eq!(exec.jobs.load(Ordering::SeqCst), 2);
        // spot-check against the naive definition on a sample of cells
        for &(i, j) in &[(0, 0), (5, 250), (299, 299), (123, 45)] {
            let expected: f64 = (0..n).map(|l| a.get(i, l) * b.get(l, j)).sum();
            assert!((c.get(i, j) - expected).abs() < 1e-9);
        }
        // the serial kernels agree bit for bit
        assert_eq!(c, matmul(&a, &b).unwrap());
        assert_eq!(cp, crossprod(&a, &b).unwrap());
    }

    #[test]
    fn dot_unrolled_matches_simple() {
        let a: Vec<f64> = (0..37).map(|x| x as f64 * 0.1).collect();
        let b: Vec<f64> = (0..37).map(|x| (37 - x) as f64).collect();
        let simple: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - simple).abs() < 1e-9);
    }
}
