//! Base-result computation: dispatch to the BAT or dense kernels (§7.3).
//!
//! The dense path times the BAT→contiguous copy, the kernel, and the copy
//! back separately, so the Fig. 14 transformation-share experiment can read
//! the exact split from [`ExecStats`].
//!
//! Application parts arrive as `&[C]` with `C: AsRef<[f64]>` — in practice
//! the `Cow<[f64]>` columns a [`Split`](crate::split::Split) lends out of
//! the relation, so the BAT path reads the stored floats in place.

use crate::context::{Backend, ExecStats, KernelUsed, RmaContext};
use crate::error::RmaError;
use crate::shape::RmaOp;
use rma_linalg::bat;
use rma_linalg::dense::{self, Matrix};
use std::time::Instant;

/// Base result of a kernel invocation.
#[derive(Debug)]
pub enum KernelOut {
    /// Column vectors of the result matrix.
    Cols(Vec<Vec<f64>>),
    /// A scalar (det, rnk).
    Scalar(f64),
}

impl KernelOut {
    /// The result as columns; a scalar becomes a single 1×1 column.
    pub fn into_cols(self) -> Vec<Vec<f64>> {
        match self {
            KernelOut::Cols(c) => c,
            KernelOut::Scalar(s) => vec![vec![s]],
        }
    }
}

/// Does the BAT kernel family implement this operation?
pub fn bat_supports(op: RmaOp) -> bool {
    !matches!(
        op,
        RmaOp::Dsv | RmaOp::Usv | RmaOp::Vsv | RmaOp::Evl | RmaOp::Evc
    )
}

/// Execute a unary base operation on an application part.
pub fn eval_unary<C: AsRef<[f64]>>(
    ctx: &RmaContext,
    op: RmaOp,
    app: &[C],
    stats: &mut ExecStats,
) -> Result<KernelOut, RmaError> {
    let m = app.first().map_or(0, |c| c.as_ref().len());
    let n = app.len();
    let mut backend = ctx.choose_kernel(op, m, n, None);
    let mut kernel_used = match backend {
        Backend::Bat => KernelUsed::Bat,
        _ => KernelUsed::Dense,
    };
    if backend == Backend::Bat && !bat_supports(op) {
        backend = Backend::Dense;
        kernel_used = KernelUsed::DenseFallback;
    }
    let out = match backend {
        Backend::Bat => {
            let t = Instant::now();
            let out = bat_unary(op, app)?;
            stats.compute += t.elapsed();
            out
        }
        _ => {
            let t = Instant::now();
            let dense_in = Matrix::from_columns(app)?;
            stats.copy_in += t.elapsed();
            let t = Instant::now();
            let out = dense_unary(op, dense_in)?;
            stats.compute += t.elapsed();
            let t = Instant::now();
            let out = match out {
                DenseOut::Matrix(mx) => KernelOut::Cols(mx.into_columns()),
                DenseOut::Vector(v) => KernelOut::Cols(vec![v]),
                DenseOut::Scalar(s) => KernelOut::Scalar(s),
            };
            stats.copy_out += t.elapsed();
            out
        }
    };
    stats.ops_run += 1;
    stats.last_kernel = Some(kernel_used);
    Ok(out)
}

/// Execute a binary base operation. `b_align` is the second argument's
/// row alignment under relative sorting (§7.2): operation row `i` of `b`
/// is its stored row `b_align[i]` (`None` = `b` is in operation order).
/// The element-wise BAT kernels read `b` through it in the pass that
/// writes the result; every other consumer gathers `b` once — on the dense
/// path that gather is the copy-in itself.
pub fn eval_binary<A: AsRef<[f64]>, B: AsRef<[f64]>>(
    ctx: &RmaContext,
    op: RmaOp,
    a: &[A],
    b: &[B],
    b_align: Option<&[usize]>,
    stats: &mut ExecStats,
) -> Result<KernelOut, RmaError> {
    let m = a.first().map_or(0, |c| c.as_ref().len());
    let n = a.len();
    let second = (b.first().map_or(0, |c| c.as_ref().len()), b.len());
    let backend = ctx.choose_kernel(op, m, n, Some(second));
    let out = match backend {
        Backend::Bat => {
            let t = Instant::now();
            let out = bat_binary(op, a, b, b_align)?;
            stats.compute += t.elapsed();
            stats.last_kernel = Some(KernelUsed::Bat);
            out
        }
        _ => {
            let t = Instant::now();
            let ma = Matrix::from_columns(a)?;
            let mb = match b_align {
                Some(rows) => Matrix::gather_columns(b, rows)?,
                None => Matrix::from_columns(b)?,
            };
            stats.copy_in += t.elapsed();
            let t = Instant::now();
            let out = dense_binary(op, &ma, &mb)?;
            stats.compute += t.elapsed();
            let t = Instant::now();
            let out = KernelOut::Cols(out.into_columns());
            stats.copy_out += t.elapsed();
            stats.last_kernel = Some(KernelUsed::Dense);
            out
        }
    };
    stats.ops_run += 1;
    Ok(out)
}

fn bat_unary<C: AsRef<[f64]>>(op: RmaOp, app: &[C]) -> Result<KernelOut, RmaError> {
    let out = match op {
        RmaOp::Inv => KernelOut::Cols(bat::inv(app)?),
        RmaOp::Qqr => KernelOut::Cols(bat::qqr(app)?),
        RmaOp::Rqr => KernelOut::Cols(bat::rqr(app)?),
        RmaOp::Tra => KernelOut::Cols(bat::tra(app)?),
        RmaOp::Chf => KernelOut::Cols(bat::chf(app)?),
        RmaOp::Det => KernelOut::Scalar(bat::det(app)?),
        RmaOp::Rnk => KernelOut::Scalar(bat::rnk(app)? as f64),
        other => unreachable!("bat_unary called for unsupported op {other:?}"),
    };
    Ok(out)
}

enum DenseOut {
    Matrix(Matrix),
    Vector(Vec<f64>),
    Scalar(f64),
}

fn dense_unary(op: RmaOp, a: Matrix) -> Result<DenseOut, RmaError> {
    let out = match op {
        RmaOp::Inv => DenseOut::Matrix(dense::inverse(&a)?),
        RmaOp::Qqr => DenseOut::Matrix(dense::qr_in_place(a)?.q),
        RmaOp::Rqr => DenseOut::Matrix(dense::qr_r(a)?),
        RmaOp::Tra => DenseOut::Matrix(a.transpose()),
        RmaOp::Chf => DenseOut::Matrix(dense::cholesky(&a)?),
        RmaOp::Det => DenseOut::Scalar(dense::det(&a)?),
        RmaOp::Rnk => DenseOut::Scalar(dense::rank(&a)? as f64),
        RmaOp::Evl => DenseOut::Vector(dense::eigenvalues(&a)?),
        RmaOp::Evc => DenseOut::Matrix(dense::eigen(&a)?.vectors),
        RmaOp::Dsv => {
            // D as the square j×j diagonal matrix of singular values
            let s = dense::svd(&a)?.s;
            let n = s.len();
            let mut d = Matrix::zeros(n, n);
            for (i, &sv) in s.iter().enumerate() {
                d.set(i, i, sv);
            }
            DenseOut::Matrix(d)
        }
        RmaOp::Usv => DenseOut::Matrix(full_u(&a)?),
        RmaOp::Vsv => {
            // singular values of the m×n input, extended by the zero
            // singular values of A·Aᵀ to length m (shape type (r1, 1))
            let mut s = dense::svd(&a)?.s;
            s.resize(a.rows(), 0.0);
            DenseOut::Vector(s)
        }
        other => unreachable!("dense_unary called for binary op {other:?}"),
    };
    Ok(out)
}

fn dense_binary(op: RmaOp, a: &Matrix, b: &Matrix) -> Result<Matrix, RmaError> {
    let out = match op {
        RmaOp::Mmu => dense::matmul(a, b)?,
        RmaOp::Cpd => dense::crossprod(a, b)?,
        RmaOp::Opd => dense::outer(a, b)?,
        RmaOp::Sol => dense::solve(a, b)?,
        RmaOp::Add => a.zip_with_parallel(b, |x, y| x + y)?,
        RmaOp::Sub => a.zip_with_parallel(b, |x, y| x - y)?,
        RmaOp::Emu => a.zip_with_parallel(b, |x, y| x * y)?,
        other => unreachable!("dense_binary called for unary op {other:?}"),
    };
    Ok(out)
}

fn bat_binary<A: AsRef<[f64]>, B: AsRef<[f64]>>(
    op: RmaOp,
    a: &[A],
    b: &[B],
    b_align: Option<&[usize]>,
) -> Result<KernelOut, RmaError> {
    let out = match (op, b_align) {
        // fused: b is read through the alignment as the result is written
        (RmaOp::Add, _) => bat::zip_aligned(a, b, b_align, |x, y| x + y)?,
        (RmaOp::Sub, _) => bat::zip_aligned(a, b, b_align, |x, y| x - y)?,
        (RmaOp::Emu, _) => bat::zip_aligned(a, b, b_align, |x, y| x * y)?,
        // products read b many times: gather it into operation order once
        (_, Some(rows)) => return bat_binary(op, a, &gather(b, rows), None),
        (RmaOp::Mmu, None) => bat::mmu(a, b)?,
        (RmaOp::Cpd, None) => bat::cpd(a, b)?,
        (RmaOp::Opd, None) => bat::opd(a, b)?,
        (RmaOp::Sol, None) => bat::sol(a, b)?,
        (other, None) => unreachable!("bat_binary called for unary op {other:?}"),
    };
    Ok(KernelOut::Cols(out))
}

/// Columns gathered into operation order: row `i` is stored row `rows[i]`.
fn gather<C: AsRef<[f64]>>(cols: &[C], rows: &[usize]) -> Vec<Vec<f64>> {
    cols.iter()
        .map(|c| {
            let c = c.as_ref();
            rows.iter().map(|&i| c[i]).collect()
        })
        .collect()
}

/// Complete the thin-SVD `U` (m×n) to the full orthonormal `m×m` basis by
/// Gram-Schmidt against the standard basis (the extra columns span the
/// null space of `Aᵀ` and correspond to zero singular values).
fn full_u(a: &Matrix) -> Result<Matrix, RmaError> {
    let thin = dense::svd(a)?.u;
    let m = thin.rows();
    let mut basis: Vec<Vec<f64>> = (0..thin.cols()).map(|j| thin.col(j).to_vec()).collect();
    // drop zero columns (rank deficiency in the thin U)
    basis.retain(|c| norm(c) > 1e-12);
    let mut e = 0usize;
    while basis.len() < m && e < m {
        let mut v = vec![0.0; m];
        v[e] = 1.0;
        e += 1;
        for q in &basis {
            let proj = dotv(q, &v);
            for (t, &qi) in v.iter_mut().zip(q) {
                *t -= proj * qi;
            }
        }
        let n = norm(&v);
        if n > 1e-8 {
            for t in v.iter_mut() {
                *t /= n;
            }
            basis.push(v);
        }
    }
    if basis.len() != m {
        return Err(RmaError::Linalg(rma_linalg::LinalgError::NotConverged));
    }
    Ok(Matrix::from_columns(&basis)?)
}

fn dotv(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(v: &[f64]) -> f64 {
    dotv(v, v).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::RmaOptions;

    fn square() -> Vec<Vec<f64>> {
        vec![vec![6.0, 8.0], vec![7.0, 5.0]]
    }

    #[test]
    fn unary_backends_agree_on_inv() {
        let mut s = ExecStats::default();
        let bat_ctx = RmaContext::with_backend(Backend::Bat);
        let dense_ctx = RmaContext::with_backend(Backend::Dense);
        let a = eval_unary(&bat_ctx, RmaOp::Inv, &square(), &mut s)
            .unwrap()
            .into_cols();
        let b = eval_unary(&dense_ctx, RmaOp::Inv, &square(), &mut s)
            .unwrap()
            .into_cols();
        for (ca, cb) in a.iter().zip(&b) {
            for (x, y) in ca.iter().zip(cb) {
                assert!((x - y).abs() < 1e-10);
            }
        }
        assert_eq!(s.last_kernel, Some(KernelUsed::Dense));
    }

    #[test]
    fn bat_forced_falls_back_for_svd() {
        let mut s = ExecStats::default();
        let ctx = RmaContext::with_backend(Backend::Bat);
        let app = vec![vec![2.0, 0.0, 0.0], vec![0.0, 5.0, 0.0]];
        let out = eval_unary(&ctx, RmaOp::Vsv, &app, &mut s)
            .unwrap()
            .into_cols();
        assert_eq!(s.last_kernel, Some(KernelUsed::DenseFallback));
        assert_eq!(out[0].len(), 3); // padded to m rows
        assert!((out[0][0] - 5.0).abs() < 1e-12);
        assert!((out[0][1] - 2.0).abs() < 1e-12);
        assert_eq!(out[0][2], 0.0);
    }

    #[test]
    fn dense_path_records_copy_time() {
        let mut s = ExecStats::default();
        let ctx = RmaContext::with_backend(Backend::Dense);
        eval_unary(&ctx, RmaOp::Qqr, &square(), &mut s).unwrap();
        assert!(s.copy_in.as_nanos() > 0);
        assert_eq!(s.ops_run, 1);
    }

    #[test]
    fn bat_path_records_no_copy_time() {
        let mut s = ExecStats::default();
        let ctx = RmaContext::with_backend(Backend::Bat);
        eval_unary(&ctx, RmaOp::Inv, &square(), &mut s).unwrap();
        assert!(s.copy_in.is_zero() && s.copy_out.is_zero());
        assert_eq!(s.last_kernel, Some(KernelUsed::Bat));
    }

    #[test]
    fn auto_uses_bat_for_elementwise() {
        let mut s = ExecStats::default();
        let ctx = RmaContext::new(RmaOptions::default());
        let a = vec![vec![1.0, 2.0]];
        let b = vec![vec![10.0, 20.0]];
        let out = eval_binary(&ctx, RmaOp::Add, &a, &b, None, &mut s)
            .unwrap()
            .into_cols();
        assert_eq!(out[0], vec![11.0, 22.0]);
        assert_eq!(s.last_kernel, Some(KernelUsed::Bat));
    }

    #[test]
    fn aligned_second_argument_agrees_across_backends() {
        // b's stored rows are reversed: row i pairs with b row 2 - i
        let mut s = ExecStats::default();
        let a = vec![vec![1.0, 2.0, 3.0], vec![0.5, 0.25, 2.0]];
        let b = vec![vec![30.0, 20.0, 10.0], vec![4.0, 8.0, 16.0]];
        let in_order = vec![vec![10.0, 20.0, 30.0], vec![16.0, 8.0, 4.0]];
        for op in [RmaOp::Add, RmaOp::Sub, RmaOp::Emu, RmaOp::Cpd] {
            for backend in [Backend::Bat, Backend::Dense] {
                let ctx = RmaContext::with_backend(backend);
                let got = eval_binary(&ctx, op, &a, &b, Some(&[2, 1, 0]), &mut s)
                    .unwrap()
                    .into_cols();
                let want = eval_binary(&ctx, op, &a, &in_order, None, &mut s)
                    .unwrap()
                    .into_cols();
                assert_eq!(got, want, "{op:?} {backend:?}");
            }
        }
    }

    #[test]
    fn binary_backends_agree_on_mmu() {
        let mut s = ExecStats::default();
        let a = vec![vec![1.0, 3.0], vec![2.0, 4.0]]; // [[1,2],[3,4]]
        let b = vec![vec![5.0, 7.0], vec![6.0, 8.0]]; // [[5,6],[7,8]]
        let bat = eval_binary(
            &RmaContext::with_backend(Backend::Bat),
            RmaOp::Mmu,
            &a,
            &b,
            None,
            &mut s,
        )
        .unwrap()
        .into_cols();
        let dense = eval_binary(
            &RmaContext::with_backend(Backend::Dense),
            RmaOp::Mmu,
            &a,
            &b,
            None,
            &mut s,
        )
        .unwrap()
        .into_cols();
        assert_eq!(bat, dense);
        assert_eq!(bat, vec![vec![19.0, 43.0], vec![22.0, 50.0]]);
    }

    #[test]
    fn usv_full_u_is_square_orthonormal() {
        let mut s = ExecStats::default();
        let ctx = RmaContext::with_backend(Backend::Dense);
        // 4×2 application part → U must be 4×4
        let app = vec![vec![1.0, 1.0, 6.0, 8.0], vec![3.0, 4.0, 7.0, 5.0]];
        let u = eval_unary(&ctx, RmaOp::Usv, &app, &mut s)
            .unwrap()
            .into_cols();
        assert_eq!(u.len(), 4);
        assert_eq!(u[0].len(), 4);
        for i in 0..4 {
            for j in 0..4 {
                let d = dotv(&u[i], &u[j]);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-8, "U not orthonormal at {i},{j}");
            }
        }
    }

    #[test]
    fn scalar_ops() {
        let mut s = ExecStats::default();
        let ctx = RmaContext::default();
        let out = eval_unary(&ctx, RmaOp::Det, &square(), &mut s).unwrap();
        match out {
            KernelOut::Scalar(d) => assert!((d - -26.0).abs() < 1e-9),
            _ => panic!("det must be scalar"),
        }
        let out = eval_unary(&ctx, RmaOp::Rnk, &square(), &mut s).unwrap();
        match out {
            KernelOut::Scalar(r) => assert_eq!(r, 2.0),
            _ => panic!("rnk must be scalar"),
        }
    }
}
