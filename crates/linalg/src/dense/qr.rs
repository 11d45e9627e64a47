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
//! (Schreiber & Van Loan, 1989), built from one row-blocked Gram pass `VᵀV`.
//! The reflectors are stored in the factorised matrix, which then becomes
//! `Q`. A block reads `V` there in place, split like LAPACK's `dlarfb`: the
//! panel's top `NB × NB` lower triangle, which shares its rows with `R`, is
//! copied out, and the rows below it are read straight from the matrix. So
//! besides `R` the factorisation allocates nothing of `m` rows; forming `Q`
//! copies one panel's `V` at a time, because it overwrites the columns that
//! hold it.
//!
//! The two leaf kernels of a block — the `NB` dots `Vᵀ·a` and `a −= V·y`
//! over one row block — have a portable scalar body and an AVX2+FMA body.
//! Each block operation picks one at run time from what the CPU reports;
//! no option picks it. FMA rounds once where the scalar body rounds twice,
//! so results differ in the last bits from CPU to CPU, and every check on
//! them is a tolerance.

use super::gemm::dot;
use super::matrix::Matrix;
use crate::error::LinalgError;
use crate::PIVOT_EPS;
#[cfg(target_arch = "x86_64")]
use fma::Fma;

/// Panel width: reflectors per compact-WY block, and the register tile of
/// the block kernels.
const NB: usize = 8;

/// Row-block height of the block kernels: one block of `V` (16 KiB) stays in
/// L1 while the columns it updates stream past.
const RB: usize = 256;

/// The reflectors past a narrow last panel, one row block long.
static ZEROS: [f64; RB] = [0.0; RB];

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
/// allocates only `R` and, while forming `Q`, one `m × NB` panel.
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
    let h = Householder::factor(a.clone())?;
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
        };
        for k0 in (0..n).step_by(NB) {
            h.factor_panel(k0);
            let end = (k0 + NB).min(n);
            let (panel, trailing) = h.a.as_mut_slice().split_at_mut(end * m);
            let t = &mut h.t[k0 * NB..(k0 + NB) * NB];
            let block = Block::factorised(&panel[k0 * m + k0..], m, k0, end - k0, t);
            // A₂ ← (I − V·Tᵀ·Vᵀ)·A₂ for the columns right of the panel
            block.apply(true, trailing);
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
        let mut panel = Vec::with_capacity(NB * m);
        for k0 in (0..n).step_by(NB).rev() {
            let end = (k0 + NB).min(n);
            // the panel's own columns are overwritten below while their V is
            // still read, so V is read from a copy
            panel.clear();
            panel.extend_from_slice(&self.a.as_slice()[k0 * m..end * m]);
            let t = &self.t[k0 * NB..(k0 + NB) * NB];
            let block = Block::new(&panel[k0..], m, k0, end - k0, t);
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
    fn apply_qt(&self, b: &mut Matrix) {
        let (m, n) = (self.a.rows(), self.a.cols());
        for k0 in (0..n).step_by(NB) {
            let v = &self.a.as_slice()[k0 * m + k0..];
            let t = &self.t[k0 * NB..(k0 + NB) * NB];
            let block = Block::new(v, m, k0, (k0 + NB).min(n) - k0, t);
            block.apply(true, b.as_mut_slice());
        }
    }
}

/// One panel of reflectors as the block `I − V·T·Vᵀ`, acting on rows
/// `k0..m` of whole `m`-row columns. `V` is `(m − k0) × NB`: zero above
/// each reflector's first row, and zero columns past a narrow last panel.
struct Block<'a> {
    /// `V`'s rows from `NB` on, read in place: `V[r][c] = v[c·m + r]`, rows
    /// relative to `k0`.
    v: &'a [f64],
    /// The reflectors in the panel; `V`'s columns from `width` on are zero.
    width: usize,
    m: usize,
    k0: usize,
    /// `V`'s first `NB` rows by column: the reflectors' top lower triangle,
    /// zero where the matrix holds `R`.
    top: [[f64; NB]; NB],
    /// `NB × NB` upper triangular, column-major.
    t: &'a [f64],
}

impl<'a> Block<'a> {
    /// The block of the `width` reflectors stored in `v` (see [`Block::v`];
    /// the top triangle is copied from there), with its `T`.
    fn new(v: &'a [f64], m: usize, k0: usize, width: usize, t: &'a [f64]) -> Self {
        let mp = m - k0;
        let top = std::array::from_fn(|c| {
            std::array::from_fn(|r| {
                if c < width && c <= r && r < mp {
                    v[c * m + r]
                } else {
                    0.0
                }
            })
        });
        Block {
            v,
            width,
            m,
            k0,
            top,
            t,
        }
    }

    /// The block of a panel just factorised, with the `τ`s on `t`'s
    /// diagonal: fills in the rest of `T` by the `dlarft` recurrence
    /// `T[..c, c] = −τ_c·T[..c, ..c]·(V[:, ..c]ᵀ·v_c)`, the dots read from
    /// one Gram pass `VᵀV`.
    fn factorised(v: &'a [f64], m: usize, k0: usize, width: usize, t: &'a mut [f64]) -> Self {
        let mut block = Block::new(v, m, k0, width, &[]);
        let g = block.gram();
        for c in 1..NB {
            let tau = t[c * (NB + 1)];
            if tau == 0.0 {
                continue;
            }
            for i in 0..c {
                let s: f64 = (i..c).map(|l| t[l * NB + i] * g[c][l]).sum();
                t[c * NB + i] = -tau * s;
            }
        }
        block.t = t;
        block
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

    /// The row blocks of `V` (relative to `k0`): the top triangle's rows,
    /// then up to `RB` rows at a time.
    fn row_blocks(&self) -> impl Iterator<Item = (usize, usize)> {
        let mp = self.m - self.k0;
        std::iter::once((0, NB.min(mp)))
            .chain((NB..mp).step_by(RB).map(move |r0| (r0, (r0 + RB).min(mp))))
    }

    /// `V`'s rows `r0..r1` (relative to `k0`, inside one row block), one
    /// slice per reflector.
    fn rows(&self, r0: usize, r1: usize) -> [&[f64]; NB] {
        debug_assert!(r1 <= NB || r0 >= NB);
        std::array::from_fn(|c| {
            if r1 <= NB {
                &self.top[c][r0..r1]
            } else if c < self.width {
                &self.v[c * self.m + r0..c * self.m + r1]
            } else {
                &ZEROS[..r1 - r0]
            }
        })
    }

    /// `VᵀV` by columns.
    fn gram(&self) -> [[f64; NB]; NB] {
        #[cfg(target_arch = "x86_64")]
        if let Some(fma) = Fma::detect() {
            return self.gram_with(fma);
        }
        self.gram_with(Scalar)
    }

    fn gram_with(&self, leaf: impl Leaf) -> [[f64; NB]; NB] {
        let mut g = [[0.0; NB]; NB];
        for (r0, r1) in self.row_blocks() {
            let v = self.rows(r0, r1);
            for (gc, vc) in g.iter_mut().zip(v) {
                for (x, y) in gc.iter_mut().zip(leaf.dots(&v, vc)) {
                    *x += y;
                }
            }
        }
        g
    }

    /// `cols ← (I − V·T·Vᵀ)·cols`, or with `Tᵀ` (the block's transpose)
    /// when `trans`, for every column of `cols`.
    fn apply(&self, trans: bool, cols: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(fma) = Fma::detect() {
            return self.apply_with(fma, trans, cols);
        }
        self.apply_with(Scalar, trans, cols)
    }

    fn apply_with(&self, leaf: impl Leaf, trans: bool, cols: &mut [f64]) {
        let (m, k0) = (self.m, self.k0);
        let mut w = vec![[0.0; NB]; cols.len() / m];
        for (r0, r1) in self.row_blocks() {
            let v = self.rows(r0, r1);
            for (wj, col) in w.iter_mut().zip(cols.chunks_exact(m)) {
                let d = leaf.dots(&v, &col[k0 + r0..k0 + r1]);
                for (x, y) in wj.iter_mut().zip(d) {
                    *x += y;
                }
            }
        }
        let ys: Vec<[f64; NB]> = w.iter().map(|wj| self.t_times(trans, wj)).collect();
        self.update_with(leaf, &ys, cols);
    }

    /// Column `j` of `cols` `−= V·ys[j]`, in row blocks.
    fn update(&self, ys: &[[f64; NB]], cols: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(fma) = Fma::detect() {
            return self.update_with(fma, ys, cols);
        }
        self.update_with(Scalar, ys, cols)
    }

    fn update_with(&self, leaf: impl Leaf, ys: &[[f64; NB]], cols: &mut [f64]) {
        let (m, k0) = (self.m, self.k0);
        for (r0, r1) in self.row_blocks() {
            let v = self.rows(r0, r1);
            for (y, col) in ys.iter().zip(cols.chunks_exact_mut(m)) {
                leaf.sub_v_times(&v, y, &mut col[k0 + r0..k0 + r1]);
            }
        }
    }
}

/// The leaf kernels of the block operations over one row block. A block
/// operation picks its implementation once and runs every row block
/// through it.
trait Leaf: Copy {
    /// The `NB` dots `vᵀ·a`.
    fn dots(self, v: &[&[f64]; NB], a: &[f64]) -> [f64; NB];
    /// `a −= V·y`.
    fn sub_v_times(self, v: &[&[f64]; NB], y: &[f64; NB], a: &mut [f64]);
}

/// The portable bodies: the only path on CPUs without AVX2 and FMA, and
/// the tests' reference.
#[derive(Clone, Copy)]
struct Scalar;

impl Leaf for Scalar {
    #[inline(always)]
    fn dots(self, v: &[&[f64]; NB], a: &[f64]) -> [f64; NB] {
        dots(v, a)
    }

    #[inline(always)]
    fn sub_v_times(self, v: &[&[f64]; NB], y: &[f64; NB], a: &mut [f64]) {
        sub_v_times(v, y, a)
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

/// The AVX2+FMA bodies: four rows per instruction, one fused multiply-add
/// per reflector and row quad.
#[cfg(target_arch = "x86_64")]
mod fma {
    use super::{Leaf, NB};
    use std::arch::x86_64::*;

    /// Proof that this CPU runs AVX2 and FMA: made only by
    /// [`Fma::detect`].
    #[derive(Clone, Copy)]
    pub(super) struct Fma(());

    impl Fma {
        pub(super) fn detect() -> Option<Fma> {
            (is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")).then_some(Fma(()))
        }
    }

    impl Leaf for Fma {
        #[inline]
        fn dots(self, v: &[&[f64]; NB], a: &[f64]) -> [f64; NB] {
            // SAFETY: an `Fma` exists only once `Fma::detect` has found AVX2
            // and FMA on this CPU.
            unsafe { dots(v, a) }
        }

        #[inline]
        fn sub_v_times(self, v: &[&[f64]; NB], y: &[f64; NB], a: &mut [f64]) {
            // SAFETY: an `Fma` exists only once `Fma::detect` has found AVX2
            // and FMA on this CPU.
            unsafe { sub_v_times(v, y, a) }
        }
    }

    /// [`super::dots`] with one 4-lane accumulator per reflector; the last
    /// `len % 4` rows go through the scalar body.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dots(v: &[&[f64]; NB], a: &[f64]) -> [f64; NB] {
        let len = a.len();
        let quads = len - len % 4;
        let v = v.map(|c| &c[..len]);
        let mut acc = [_mm256_setzero_pd(); NB];
        // every load reads i..i + 4 ≤ quads ≤ len, and each v[c] is cut to len
        for i in (0..quads).step_by(4) {
            let x = _mm256_loadu_pd(a.as_ptr().add(i));
            for c in 0..NB {
                acc[c] = _mm256_fmadd_pd(_mm256_loadu_pd(v[c].as_ptr().add(i)), x, acc[c]);
            }
        }
        let mut out = super::dots(&v.map(|c| &c[quads..]), &a[quads..]);
        for (o, q) in out.iter_mut().zip(acc) {
            let mut lanes = [0.0; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), q);
            *o += (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        }
        out
    }

    /// [`super::sub_v_times`] four rows at a time; the last `len % 4` rows
    /// go through the scalar body.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sub_v_times(v: &[&[f64]; NB], y: &[f64; NB], a: &mut [f64]) {
        let len = a.len();
        let quads = len - len % 4;
        let v = v.map(|c| &c[..len]);
        let y4 = y.map(|yc| _mm256_set1_pd(yc));
        // every load and store touches i..i + 4 ≤ quads ≤ len, and each v[c]
        // is cut to len
        for i in (0..quads).step_by(4) {
            let p = a.as_mut_ptr().add(i);
            let mut x = _mm256_loadu_pd(p);
            for c in 0..NB {
                x = _mm256_fnmadd_pd(_mm256_loadu_pd(v[c].as_ptr().add(i)), y4[c], x);
            }
            _mm256_storeu_pd(p, x);
        }
        super::sub_v_times(&v.map(|c| &c[quads..]), y, &mut a[quads..]);
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

    /// The AVX2+FMA leaf kernels, where this CPU has them.
    #[cfg(target_arch = "x86_64")]
    fn simd_leaf() -> Option<Fma> {
        Fma::detect()
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn simd_leaf() -> Option<Scalar> {
        None
    }

    /// `NB` reflector columns and a target column of `len` rows, and a `y`,
    /// uniform in `[-1, 1)` from a fixed-seed xorshift generator.
    fn leaf_inputs(len: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>, [f64; NB]) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            2.0 * ((state >> 11) as f64 / (1u64 << 53) as f64) - 1.0
        };
        let v = (0..NB)
            .map(|_| (0..len).map(|_| next()).collect())
            .collect();
        let a = (0..len).map(|_| next()).collect();
        (v, a, std::array::from_fn(|_| next()))
    }

    fn views(v: &[Vec<f64>]) -> [&[f64]; NB] {
        std::array::from_fn(|c| v[c].as_slice())
    }

    /// Both leaf kernels on both paths: `(dots, a − V·y)`.
    fn both_paths(
        simd: impl Leaf,
        v: &[&[f64]; NB],
        a: &[f64],
        y: &[f64; NB],
    ) -> [([f64; NB], Vec<f64>); 2] {
        let (mut scalar, mut fast) = (a.to_vec(), a.to_vec());
        Scalar.sub_v_times(v, y, &mut scalar);
        simd.sub_v_times(v, y, &mut fast);
        [(Scalar.dots(v, a), scalar), (simd.dots(v, a), fast)]
    }

    #[test]
    fn simd_leaf_kernels_match_scalar_on_every_length() {
        let Some(simd) = simd_leaf() else {
            eprintln!("skipped: no AVX2+FMA on this CPU, only the scalar leaf kernels run");
            return;
        };
        // every residue mod 4, whole and partial row blocks
        for len in 0..=2 * RB + 3 {
            let (v, a, y) = leaf_inputs(len, len as u64);
            let v = views(&v);
            let [(dots, sub), (simd_dots, simd_sub)] = both_paths(simd, &v, &a, &y);
            for c in 0..NB {
                let scale: f64 = v[c].iter().zip(&a).map(|(x, z)| (x * z).abs()).sum();
                let diff = (dots[c] - simd_dots[c]).abs();
                assert!(
                    diff <= 1e-13 * scale,
                    "dots, {len} rows, reflector {c}: {diff}"
                );
            }
            for i in 0..len {
                let scale = a[i].abs() + (0..NB).map(|c| (v[c][i] * y[c]).abs()).sum::<f64>();
                let diff = (sub[i] - simd_sub[i]).abs();
                assert!(
                    diff <= 1e-13 * scale,
                    "a − V·y, {len} rows, row {i}: {diff}"
                );
            }
        }
    }

    #[test]
    fn simd_leaf_kernels_propagate_nan_and_inf_like_scalar() {
        let Some(simd) = simd_leaf() else {
            eprintln!("skipped: no AVX2+FMA on this CPU, only the scalar leaf kernels run");
            return;
        };
        let class = |x: f64| match x {
            x if x.is_nan() => "NaN",
            f64::INFINITY => "+Inf",
            f64::NEG_INFINITY => "-Inf",
            _ => "finite",
        };
        // the special value in a SIMD quad and in the scalar tail
        for len in [7, RB + 7] {
            for at in [0, len - 1] {
                for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    for target in ["a", "v", "y", "a and v"] {
                        let (mut v, mut a, mut y) = leaf_inputs(len, at as u64);
                        if target.contains('a') {
                            a[at] = special;
                        }
                        if target.contains('v') {
                            v[3][at] = -special;
                        }
                        if target == "y" {
                            y[5] = special;
                        }
                        let v = views(&v);
                        let [(dots, sub), (simd_dots, simd_sub)] = both_paths(simd, &v, &a, &y);
                        let case = format!("{special} in {target}, {len} rows, row {at}");
                        assert_eq!(dots.map(class), simd_dots.map(class), "dots, {case}");
                        let sub: Vec<_> = sub.into_iter().map(class).collect();
                        let simd_sub: Vec<_> = simd_sub.into_iter().map(class).collect();
                        assert_eq!(sub, simd_sub, "a − V·y, {case}");
                        assert_ne!(sub[at], "finite", "a − V·y, {case}");
                    }
                }
            }
        }
        // dense QR of a matrix with a NaN cell returns NaN, not a finite Q
        let (mut cols, a, _) = leaf_inputs(RB + 7, 1);
        cols.push(a);
        let mut a = Matrix::from_columns(&cols).unwrap();
        a.set(RB, NB, f64::NAN);
        assert!(qr(&a).unwrap().q.as_slice().iter().any(|x| x.is_nan()));
    }

    #[test]
    fn least_squares_singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let b = Matrix::col_vector(&[1.0, 2.0, 3.0]);
        assert!(matches!(least_squares(&a, &b), Err(LinalgError::Singular)));
    }
}
