//! Householder QR decomposition (QQR/RQR) and QR-based least squares.
//!
//! For an `m × n` matrix with `m ≥ n` this computes the *thin* factorisation
//! `A = Q·R` with `Q` of shape `m × n` (orthonormal columns) and `R` of shape
//! `n × n` (upper triangular) — the shapes the paper's Table 1 assigns to
//! QQR (`r1,c1`) and RQR (`c1,c1`). Signs follow the LAPACK convention of
//! non-negative diagonal in `R`.
//!
//! The factorisation is blocked the way LAPACK's `dgeqrf`/`dorgqr` are. The
//! columns are factorised in panels of `NB` = 8, and the panel's reflectors
//! `H = I − 2·v·vᵀ` (unit-norm `v`) reach the rest of the matrix as one
//! compact-WY block `H₁⋯H_NB = I − V·T·Vᵀ` with `T` upper triangular
//! (Schreiber & Van Loan, 1989). The reflectors are stored in the factorised
//! matrix, which then becomes `Q`: besides `R`, the only large allocation is
//! one `m × NB` panel.

use super::gemm::dot;
use super::matrix::Matrix;
use crate::error::LinalgError;
use crate::PIVOT_EPS;

/// Panel width: reflectors per compact-WY block, and the register tile of
/// the block kernels.
const NB: usize = 8;

/// Row-block height of the block kernels: one block of `V` (16 KiB) stays in
/// L1 while the columns it updates stream past.
const RB: usize = 256;

/// The thin QR factorisation of a matrix.
#[derive(Debug, Clone)]
pub struct Qr {
    /// `m × n`, orthonormal columns.
    pub q: Matrix,
    /// `n × n`, upper triangular.
    pub r: Matrix,
}

/// Factorise `a` (requires `rows ≥ cols`).
pub fn qr(a: &Matrix) -> Result<Qr, LinalgError> {
    qr_in_place(a.clone())
}

/// Factorise `work` in place: `work` becomes `Q`, so the factorisation
/// allocates only `R` and one `m × NB` panel.
pub fn qr_in_place(work: Matrix) -> Result<Qr, LinalgError> {
    let h = Householder::factor(work)?;
    let r = h.r();
    Ok(Qr { q: h.into_q(), r })
}

/// The `R` factor alone (RQR): factorises `work` in place and forms no `Q`.
pub fn qr_r(work: Matrix) -> Result<Matrix, LinalgError> {
    Ok(Householder::factor(work)?.r())
}

/// Least-squares solve `min ‖A·x − b‖₂` via QR: `x = R⁻¹·Qᵀ·b`, with `Qᵀ`
/// applied to `b` through the stored reflectors. A diagonal entry of `R` at
/// most `1e-12` times the largest one is a rank deficiency.
pub fn least_squares(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    if a.rows() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            context: "least squares rhs rows",
        });
    }
    let mut h = Householder::factor(a.clone())?;
    let scale = h.diag.iter().fold(0.0f64, |s, d| s.max(d.abs()));
    if h.diag.iter().any(|d| d.abs() <= PIVOT_EPS * scale) {
        return Err(LinalgError::Singular);
    }
    let mut qtb = b.clone();
    h.apply_qt(&mut qtb);
    // back substitution on the unsigned R = diag + the top of the reflectors
    let n = h.diag.len();
    let mut cols = Vec::with_capacity(qtb.cols());
    for j in 0..qtb.cols() {
        let mut x = qtb.col(j)[..n].to_vec();
        for i in (0..n).rev() {
            let mut s = x[i];
            for jj in i + 1..n {
                s -= h.a.get(i, jj) * x[jj];
            }
            x[i] = s / h.diag[i];
        }
        cols.push(x);
    }
    Matrix::from_columns(&cols)
}

/// A Householder factorisation in compact-WY form.
struct Householder {
    /// `m × n`: reflector `v_k` in rows `k..` of column `k`, the strict upper
    /// triangle of `R` above it.
    a: Matrix,
    /// The diagonal of `R`, before the sign convention.
    diag: Vec<f64>,
    /// Each panel's `NB × NB` upper-triangular `T`, column-major.
    t: Vec<f64>,
    /// One panel's `V`, `(m − k0) × NB` column-major with zeros above each
    /// reflector's first row (and zero columns past a narrow last panel).
    panel: Vec<f64>,
}

impl Householder {
    fn factor(a: Matrix) -> Result<Self, LinalgError> {
        let (m, n) = (a.rows(), a.cols());
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty);
        }
        if m < n {
            return Err(LinalgError::DimensionMismatch {
                context: "QR requires rows >= cols",
            });
        }
        let mut h = Householder {
            a,
            diag: vec![0.0; n],
            t: vec![0.0; n.div_ceil(NB) * NB * NB],
            panel: vec![0.0; m * NB],
        };
        for k0 in (0..n).step_by(NB) {
            h.factor_panel(k0);
            let v = load_panel(&h.a, k0, &mut h.panel);
            let t = &mut h.t[k0 * NB..(k0 + NB) * NB];
            build_t(v, m - k0, t);
            let block = Block { v, m, k0, t };
            // A₂ ← (I − V·Tᵀ·Vᵀ)·A₂ for the columns right of the panel
            let trailing = (k0 + NB).min(n) * m;
            block.apply(true, &mut h.a.as_mut_slice()[trailing..]);
        }
        Ok(h)
    }

    /// Level-2 Householder on columns `k0..k0 + NB`, confined to the panel:
    /// stores each unit-norm reflector in its column, `R`'s diagonal entry
    /// in `diag`, and `τ` (2, or 0 for a zero column) on `T`'s diagonal.
    fn factor_panel(&mut self, k0: usize) {
        let (m, n) = (self.a.rows(), self.a.cols());
        let end = (k0 + NB).min(n);
        let panel = &mut self.a.as_mut_slice()[k0 * m..end * m];
        for k in k0..end {
            let (done, rest) = panel.split_at_mut((k - k0 + 1) * m);
            let v = &mut done[(k - k0) * m + k..];
            let xnorm = dot(v, v).sqrt();
            let alpha = -v[0].signum() * xnorm;
            // ‖x − α·e₁‖² = 2·‖x‖·(‖x‖ + |x₀|)
            let vnorm = (2.0 * xnorm * (xnorm + v[0].abs())).sqrt();
            self.diag[k] = alpha;
            if vnorm == 0.0 {
                continue;
            }
            v[0] -= alpha;
            for x in v.iter_mut() {
                *x /= vnorm;
            }
            self.t[k0 * NB + (k - k0) * (NB + 1)] = 2.0;
            for col in rest.chunks_exact_mut(m) {
                let tail = &mut col[k..];
                let proj = 2.0 * dot(v, tail);
                for (x, &vi) in tail.iter_mut().zip(&*v) {
                    *x -= proj * vi;
                }
            }
        }
    }

    /// `R` with the sign convention applied: rows with a negative diagonal
    /// are negated.
    fn r(&self) -> Matrix {
        let n = self.diag.len();
        let mut r = Matrix::zeros(n, n);
        for (i, &d) in self.diag.iter().enumerate() {
            let sign = if d < 0.0 { -1.0 } else { 1.0 };
            r.set(i, i, sign * d);
            for j in i + 1..n {
                r.set(i, j, sign * self.a.get(i, j));
            }
        }
        r
    }

    /// Overwrite the reflectors with `Q = H₁⋯Hₙ·[I; 0]`, panel by panel from
    /// the last (`dorgqr`), then negate the columns whose `R` row was negated.
    fn into_q(mut self) -> Matrix {
        let (m, n) = (self.a.rows(), self.a.cols());
        for k0 in (0..n).step_by(NB).rev() {
            let end = (k0 + NB).min(n);
            let block = Block::load(&self.a, k0, &mut self.panel, &self.t);
            // the columns right of the panel are zero in the panel's rows
            // until this block reaches them
            let (own, trailing) = self.a.as_mut_slice()[k0 * m..].split_at_mut((end - k0) * m);
            block.apply(false, trailing);
            // the panel's own column j is e_j − V·(T·V[j, :]ᵀ)
            let ys: Vec<[f64; NB]> = (0..end - k0)
                .map(|c| block.t_times(false, &block.rows(c, c + 1).map(|row| row[0])))
                .collect();
            for (c, col) in own.chunks_exact_mut(m).enumerate() {
                col.fill(0.0);
                col[k0 + c] = 1.0;
            }
            block.update(&ys, own);
        }
        let mut q = self.a;
        for (j, d) in self.diag.iter().enumerate() {
            if *d < 0.0 {
                for x in q.col_mut(j) {
                    *x = -*x;
                }
            }
        }
        q
    }

    /// `b ← Qᵀ·b` over the full `m × m` orthogonal `Q = H₁⋯Hₙ`; the first
    /// `n` rows of the result are the thin `Qᵀ·b` (before the sign
    /// convention).
    fn apply_qt(&mut self, b: &mut Matrix) {
        for k0 in (0..self.a.cols()).step_by(NB) {
            Block::load(&self.a, k0, &mut self.panel, &self.t).apply(true, b.as_mut_slice());
        }
    }
}

/// Copy the reflectors of the panel at `k0` into `panel` as an
/// `(m − k0) × NB` column-major `V`: zeros above each reflector's first row,
/// and zero columns past a narrow last panel.
fn load_panel<'p>(a: &Matrix, k0: usize, panel: &'p mut [f64]) -> &'p [f64] {
    let (m, n) = (a.rows(), a.cols());
    let mp = m - k0;
    let v = &mut panel[..NB * mp];
    for (c, dst) in v.chunks_exact_mut(mp).enumerate() {
        let k = k0 + c;
        if k < n {
            dst[..c].fill(0.0);
            dst[c..].copy_from_slice(&a.col(k)[k..]);
        } else {
            dst.fill(0.0);
        }
    }
    v
}

/// The `dlarft` recurrence `T[..c, c] = −τ_c·T[..c, ..c]·(V[:, ..c]ᵀ·v_c)`
/// over an `mp × NB` panel `v`, given the `τ`s on `t`'s diagonal.
fn build_t(v: &[f64], mp: usize, t: &mut [f64]) {
    for c in 1..NB {
        let tau = t[c * (NB + 1)];
        if tau == 0.0 {
            continue;
        }
        let vc = &v[c * mp + c..(c + 1) * mp];
        let z: [f64; NB] = std::array::from_fn(|l| {
            if l < c {
                dot(&v[l * mp + c..(l + 1) * mp], vc)
            } else {
                0.0
            }
        });
        for i in 0..c {
            let s: f64 = (i..c).map(|l| t[l * NB + i] * z[l]).sum();
            t[c * NB + i] = -tau * s;
        }
    }
}

/// One panel of reflectors as the block `I − V·T·Vᵀ`, acting on rows
/// `k0..m` of whole `m`-row columns.
struct Block<'a> {
    /// `(m − k0) × NB` column-major.
    v: &'a [f64],
    m: usize,
    k0: usize,
    /// `NB × NB` upper triangular, column-major.
    t: &'a [f64],
}

impl<'a> Block<'a> {
    /// The block of the panel at `k0` of `a`, its `V` loaded into `panel`
    /// and its `T` taken from the factorisation's `t`.
    fn load(a: &Matrix, k0: usize, panel: &'a mut [f64], t: &'a [f64]) -> Self {
        Block {
            v: load_panel(a, k0, panel),
            m: a.rows(),
            k0,
            t: &t[k0 * NB..(k0 + NB) * NB],
        }
    }

    /// `T·w`, or `Tᵀ·w` when `trans`.
    fn t_times(&self, trans: bool, w: &[f64; NB]) -> [f64; NB] {
        std::array::from_fn(|i| {
            (0..NB)
                .map(|l| {
                    let til = if trans {
                        self.t[i * NB + l]
                    } else {
                        self.t[l * NB + i]
                    };
                    til * w[l]
                })
                .sum()
        })
    }

    /// `V`'s rows `r0..r1` (relative to `k0`), one slice per reflector.
    fn rows(&self, r0: usize, r1: usize) -> [&[f64]; NB] {
        let mp = self.m - self.k0;
        std::array::from_fn(|c| &self.v[c * mp + r0..c * mp + r1])
    }

    /// `cols ← (I − V·T·Vᵀ)·cols`, or with `Tᵀ` (the block's transpose)
    /// when `trans`, for every column of `cols`.
    fn apply(&self, trans: bool, cols: &mut [f64]) {
        let (m, k0) = (self.m, self.k0);
        let mut w = vec![[0.0; NB]; cols.len() / m];
        for r0 in (0..m - k0).step_by(RB) {
            let r1 = (r0 + RB).min(m - k0);
            let v = self.rows(r0, r1);
            for (wj, col) in w.iter_mut().zip(cols.chunks_exact(m)) {
                let d = dots(&v, &col[k0 + r0..k0 + r1]);
                for (x, y) in wj.iter_mut().zip(d) {
                    *x += y;
                }
            }
        }
        let ys: Vec<[f64; NB]> = w.iter().map(|wj| self.t_times(trans, wj)).collect();
        self.update(&ys, cols);
    }

    /// Column `j` of `cols` `−= V·ys[j]`, in row blocks.
    fn update(&self, ys: &[[f64; NB]], cols: &mut [f64]) {
        let (m, k0) = (self.m, self.k0);
        for r0 in (0..m - k0).step_by(RB) {
            let r1 = (r0 + RB).min(m - k0);
            let v = self.rows(r0, r1);
            for (y, col) in ys.iter().zip(cols.chunks_exact_mut(m)) {
                sub_v_times(&v, y, &mut col[k0 + r0..k0 + r1]);
            }
        }
    }
}

/// The `NB` dots `vᵀ·a` over one row block in one pass, with two lanes per
/// reflector: 16 independent accumulators.
fn dots(v: &[&[f64]; NB], a: &[f64]) -> [f64; NB] {
    let len = a.len();
    let v = v.map(|c| &c[..len]);
    let mut acc = [[0.0f64; 2]; NB];
    for i in (0..len - len % 2).step_by(2) {
        let (a0, a1) = (a[i], a[i + 1]);
        for c in 0..NB {
            acc[c][0] += v[c][i] * a0;
            acc[c][1] += v[c][i + 1] * a1;
        }
    }
    let mut out = acc.map(|[x, y]| x + y);
    if len % 2 == 1 {
        for c in 0..NB {
            out[c] += v[c][len - 1] * a[len - 1];
        }
    }
    out
}

/// `a −= V·y` over one row block: one store per element.
fn sub_v_times(v: &[&[f64]; NB], y: &[f64; NB], a: &mut [f64]) {
    let len = a.len();
    let v = v.map(|c| &c[..len]);
    for (i, x) in a.iter_mut().enumerate() {
        let mut s = 0.0;
        for c in 0..NB {
            s += v[c][i] * y[c];
        }
        *x -= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::gemm::{crossprod, matmul};

    fn weather_matrix() -> Matrix {
        // Figure 8: g = [[1,3],[1,4],[6,7],[8,5]]
        Matrix::from_rows(&[&[1.0, 3.0], &[1.0, 4.0], &[6.0, 7.0], &[8.0, 5.0]]).unwrap()
    }

    #[test]
    fn qr_reconstructs_input() {
        let a = weather_matrix();
        let Qr { q, r } = qr(&a).unwrap();
        let back = matmul(&q, &r).unwrap();
        assert!(back.approx_eq(&a, 1e-10));
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let Qr { q, .. } = qr(&weather_matrix()).unwrap();
        let qtq = crossprod(&q, &q).unwrap();
        assert!(qtq.approx_eq(&Matrix::identity(2), 1e-10));
    }

    #[test]
    fn r_is_upper_triangular_with_nonnegative_diagonal() {
        let Qr { r, .. } = qr(&weather_matrix()).unwrap();
        assert_eq!(r.get(1, 0), 0.0);
        assert!(r.get(0, 0) >= 0.0 && r.get(1, 1) >= 0.0);
    }

    #[test]
    fn r_matches_paper_figure8_magnitudes() {
        // the paper reports R = [[-10.1, -8.8], [0, -4.6]] (sign convention
        // differs; magnitudes must match)
        let Qr { r, .. } = qr(&weather_matrix()).unwrap();
        assert!((r.get(0, 0).abs() - 10.1).abs() < 0.05);
        assert!((r.get(0, 1).abs() - 8.8).abs() < 0.08);
        assert!((r.get(1, 1).abs() - 4.6).abs() < 0.05);
    }

    #[test]
    fn square_qr() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let Qr { q, r } = qr(&a).unwrap();
        assert!(matmul(&q, &r).unwrap().approx_eq(&a, 1e-10));
    }

    #[test]
    fn wide_matrix_rejected() {
        assert!(qr(&Matrix::zeros(2, 3)).is_err());
        assert!(qr(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn rank_deficient_column_does_not_panic() {
        // second column is a multiple of the first
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        let Qr { q, r } = qr(&a).unwrap();
        assert!(matmul(&q, &r).unwrap().approx_eq(&a, 1e-10));
        assert!(r.get(1, 1).abs() < 1e-10);
    }

    #[test]
    fn least_squares_recovers_line() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap();
        let b = Matrix::col_vector(&[1.1, 2.9, 5.1, 6.9]);
        let x = least_squares(&a, &b).unwrap();
        assert!((x.get(0, 0) - 1.02).abs() < 0.1); // intercept ≈ 1
        assert!((x.get(1, 0) - 1.98).abs() < 0.1); // slope ≈ 2
    }

    #[test]
    fn least_squares_singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let b = Matrix::col_vector(&[1.0, 2.0, 3.0]);
        assert!(matches!(least_squares(&a, &b), Err(LinalgError::Singular)));
    }
}
