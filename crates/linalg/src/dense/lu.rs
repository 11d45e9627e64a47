//! LU factorisation with partial pivoting, and the solvers built on it:
//! inversion (INV), determinant (DET), and linear solve (SOL).

use super::matrix::Matrix;
use crate::error::LinalgError;
use crate::PIVOT_EPS;

/// A packed LU factorisation `P·A = L·U` of a square matrix.
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (below diagonal, unit diagonal implied) and U (upper).
    lu: Matrix,
    /// Row permutation: row `i` of `U` came from row `perm[i]` of `A`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1/-1) for determinants.
    sign: f64,
}

impl Lu {
    /// Factorise a square matrix.
    pub fn factor(a: &Matrix) -> Result<Lu, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare);
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        let scale = a
            .as_slice()
            .iter()
            .fold(0.0f64, |m, &x| m.max(x.abs()))
            .max(1.0);
        for k in 0..n {
            // partial pivot: largest |value| in column k at/below the diagonal
            let mut p = k;
            let mut best = lu.get(k, k).abs();
            for i in k + 1..n {
                let v = lu.get(i, k).abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best <= PIVOT_EPS * scale {
                return Err(LinalgError::Singular);
            }
            if p != k {
                swap_rows(&mut lu, p, k);
                perm.swap(p, k);
                sign = -sign;
            }
            let pivot = lu.get(k, k);
            for i in k + 1..n {
                let factor = lu.get(i, k) / pivot;
                lu.set(i, k, factor);
                if factor == 0.0 {
                    continue;
                }
                for j in k + 1..n {
                    let v = lu.get(i, j) - factor * lu.get(k, j);
                    lu.set(i, j, v);
                }
            }
        }
        Ok(Lu { lu, perm, sign })
    }

    /// Determinant of the factorised matrix.
    pub fn det(&self) -> f64 {
        let n = self.lu.rows();
        let mut d = self.sign;
        for i in 0..n {
            d *= self.lu.get(i, i);
        }
        d
    }

    /// Solve `A·x = b` for a single right-hand side.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "solve rhs length",
            });
        }
        // apply permutation, forward substitution (unit L)
        let mut y: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut s = y[i];
            for j in 0..i {
                s -= self.lu.get(i, j) * y[j];
            }
            y[i] = s;
        }
        // back substitution (U)
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in i + 1..n {
                s -= self.lu.get(i, j) * y[j];
            }
            y[i] = s / self.lu.get(i, i);
        }
        Ok(y)
    }

    /// Solve `A·X = B` column by column.
    pub fn solve(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        if b.rows() != self.lu.rows() {
            return Err(LinalgError::DimensionMismatch {
                context: "solve rhs rows",
            });
        }
        let cols: Result<Vec<Vec<f64>>, _> =
            (0..b.cols()).map(|j| self.solve_vec(b.col(j))).collect();
        Matrix::from_columns(&cols?)
    }
}

fn swap_rows(m: &mut Matrix, a: usize, b: usize) {
    for j in 0..m.cols() {
        let (x, y) = (m.get(a, j), m.get(b, j));
        m.set(a, j, y);
        m.set(b, j, x);
    }
}

/// Matrix inversion via LU (the dense-path INV).
pub fn inverse(a: &Matrix) -> Result<Matrix, LinalgError> {
    let lu = Lu::factor(a)?;
    lu.solve(&Matrix::identity(a.rows()))
}

/// Determinant via LU (the dense-path DET).
pub fn det(a: &Matrix) -> Result<f64, LinalgError> {
    match Lu::factor(a) {
        Ok(lu) => Ok(lu.det()),
        // a singular matrix has determinant zero, not an error
        Err(LinalgError::Singular) => Ok(0.0),
        Err(e) => Err(e),
    }
}

/// SOL: solve `A·x = b`. Square systems use LU; overdetermined systems
/// (more rows than columns) are solved in the least-squares sense via QR,
/// matching how regression workloads use `sol`.
pub fn solve(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    if a.rows() == a.cols() {
        Lu::factor(a)?.solve(b)
    } else if a.rows() > a.cols() {
        super::qr::least_squares(a, b)
    } else {
        Err(LinalgError::DimensionMismatch {
            context: "solve: underdetermined system (rows < cols)",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::gemm::matmul;

    fn paper_matrix() -> Matrix {
        // Figure 3: n = [[6,7],[8,5]]
        Matrix::from_rows(&[&[6.0, 7.0], &[8.0, 5.0]]).unwrap()
    }

    #[test]
    fn inverse_matches_paper_figure3() {
        let inv = inverse(&paper_matrix()).unwrap();
        let expected =
            Matrix::from_rows(&[&[-5.0 / 26.0, 7.0 / 26.0], &[8.0 / 26.0, -6.0 / 26.0]]).unwrap();
        assert!(inv.approx_eq(&expected, 1e-12));
        // paper rounds to -0.19, 0.27 / 0.31, -0.23
        assert!((inv.get(0, 0) - -0.1923).abs() < 1e-3);
        assert!((inv.get(1, 0) - 0.3077).abs() < 1e-3);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a =
            Matrix::from_rows(&[&[4.0, -2.0, 1.0], &[3.0, 6.0, -4.0], &[2.0, 1.0, 8.0]]).unwrap();
        let inv = inverse(&a).unwrap();
        let prod = matmul(&a, &inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(3), 1e-10));
    }

    #[test]
    fn singular_inverse_fails_det_is_zero() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(inverse(&s), Err(LinalgError::Singular));
        assert_eq!(det(&s).unwrap(), 0.0);
    }

    #[test]
    fn det_known_values() {
        assert!((det(&paper_matrix()).unwrap() - -26.0).abs() < 1e-12);
        assert!((det(&Matrix::identity(4)).unwrap() - 1.0).abs() < 1e-12);
        // permutation sign: swapping rows flips the sign
        let p = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!((det(&p).unwrap() - -1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_square_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = Matrix::col_vector(&[3.0, 5.0]);
        let x = solve(&a, &b).unwrap();
        assert!((x.get(0, 0) - 0.8).abs() < 1e-12);
        assert!((x.get(1, 0) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solve_multiple_rhs() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 1.0], &[4.0, 2.0]]).unwrap();
        let x = solve(&a, &b).unwrap();
        let back = matmul(&a, &x).unwrap();
        assert!(back.approx_eq(&b, 1e-12));
    }

    #[test]
    fn solve_overdetermined_least_squares() {
        // fit y = 2x + 1 through noisy-free points → exact recovery
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap();
        let b = Matrix::col_vector(&[3.0, 5.0, 7.0]);
        let x = solve(&a, &b).unwrap();
        assert!((x.get(0, 0) - 1.0).abs() < 1e-10);
        assert!((x.get(1, 0) - 2.0).abs() < 1e-10);
    }

    #[test]
    fn solve_underdetermined_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::col_vector(&[1.0, 2.0]);
        assert!(matches!(
            solve(&a, &b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn non_square_and_empty_rejected() {
        assert!(matches!(
            Lu::factor(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare)
        ));
        assert!(matches!(
            Lu::factor(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let inv = inverse(&a).unwrap();
        assert!(inv.approx_eq(&a, 1e-12));
    }
}
