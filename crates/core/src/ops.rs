//! The 19 relational matrix operations (the paper's Table 2).
//!
//! Every operation follows the split → sort → morph → eval → merge pipeline
//! of Algorithm 1: the argument relation(s) are split into order and
//! application parts, the base result is computed by a kernel, and the
//! result relation is assembled from morphed contextual information plus the
//! base result — yielding a relation with row and column origins
//! (Theorem 6.8).

use crate::context::{ExecStats, RmaContext};
use crate::error::RmaError;
use crate::kernels::{eval, KernelOut};
use crate::shape::{Dim, RmaOp};
use crate::split::{build_relation, column_cast, schema_cast, sort_modes, split, SortMode, Split};
use rma_relation::{trace, Attribute, Relation, Schema};
use rma_storage::{Column, ColumnData, DataType};
use std::time::Instant;

/// One argument of a relational matrix operation: the relation, its order
/// schema, and whether the plan proved it already physically ordered by
/// that schema (so the sort may be skipped).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arg<'a> {
    pub rel: &'a Relation,
    pub order: &'a [&'a str],
    pub sorted: bool,
}

impl<'a> Arg<'a> {
    /// An argument with no sortedness hint.
    pub(crate) fn new(rel: &'a Relation, order: &'a [&'a str]) -> Self {
        Arg {
            rel,
            order,
            sorted: false,
        }
    }
}

impl RmaContext {
    /// Dispatch a unary relational matrix operation `op_U(r)`.
    pub fn unary(&self, op: RmaOp, r: &Relation, order: &[&str]) -> Result<Relation, RmaError> {
        assert!(!op.is_binary(), "unary() called with binary op {op:?}");
        Ok(self.run(op, &[Arg::new(r, order)])?.0)
    }

    /// Dispatch a binary relational matrix operation `op_{U;V}(r, s)`.
    pub fn binary(
        &self,
        op: RmaOp,
        r: &Relation,
        r_order: &[&str],
        s: &Relation,
        s_order: &[&str],
    ) -> Result<Relation, RmaError> {
        assert!(op.is_binary(), "binary() called with unary op {op:?}");
        let args = [Arg::new(r, r_order), Arg::new(s, s_order)];
        Ok(self.run(op, &args)?.0)
    }

    /// Algorithm 1 for either arity: check the schemas, split every
    /// argument by the modes [`sort_modes`] picks, evaluate the base result
    /// ([`eval`], which chooses the kernel) and morph the context into the
    /// result, under the thread's guard or one the context mints. Split,
    /// sort and merge time is `ExecStats::sort`; the operation's own stats
    /// are recorded on the context and returned with the result.
    pub(crate) fn run(&self, op: RmaOp, args: &[Arg]) -> Result<(Relation, ExecStats), RmaError> {
        self.governed(|| {
            check_schemas(op, args)?;
            let mut stats = ExecStats::default();
            let t_sort = Instant::now();
            let sorted: Vec<bool> = args.iter().map(|a| a.sorted).collect();
            let modes = sort_modes(op, self.options.sort_policy, &sorted);
            stats.sorts = modes.iter().filter(|m| m.sorts()).count() as u32;
            let mut splits: Vec<Split> = Vec::with_capacity(args.len());
            for (a, mode) in args.iter().zip(modes) {
                // relative sorting: the second argument aligns to the first's
                // ranks
                let first = match (mode, splits.first_mut()) {
                    (SortMode::AlignTo, Some(first)) => first.perm.take(),
                    _ => None,
                };
                splits.push(split(a.rel, a.order, mode, first)?);
            }
            stats.sort += t_sort.elapsed();

            let second = splits.get(1).map(|s| (&s.app[..], s.align.as_deref()));
            let out = eval(self, op, &splits[0].app, second, &mut stats)?;

            let t_merge = Instant::now();
            let span = trace::clock();
            let result = morph(op, args[0].rel, &splits, out)?;
            record_merge(span, splits.iter().map(|s| s.rows).sum(), &result);
            stats.sort += t_merge.elapsed();
            self.record(&stats);
            Ok((result, stats))
        })
    }

    // ------------------------------------------------------------------
    // Named operations
    // ------------------------------------------------------------------

    /// Matrix inversion `inv_U(r)`.
    pub fn inv(&self, r: &Relation, order: &[&str]) -> Result<Relation, RmaError> {
        self.unary(RmaOp::Inv, r, order)
    }
    /// Eigenvectors `evc_U(r)`.
    pub fn evc(&self, r: &Relation, order: &[&str]) -> Result<Relation, RmaError> {
        self.unary(RmaOp::Evc, r, order)
    }
    /// Eigenvalues `evl_U(r)`.
    pub fn evl(&self, r: &Relation, order: &[&str]) -> Result<Relation, RmaError> {
        self.unary(RmaOp::Evl, r, order)
    }
    /// Cholesky factor `chf_U(r)`.
    pub fn chf(&self, r: &Relation, order: &[&str]) -> Result<Relation, RmaError> {
        self.unary(RmaOp::Chf, r, order)
    }
    /// Q of the QR decomposition `qqr_U(r)`.
    pub fn qqr(&self, r: &Relation, order: &[&str]) -> Result<Relation, RmaError> {
        self.unary(RmaOp::Qqr, r, order)
    }
    /// R of the QR decomposition `rqr_U(r)`.
    pub fn rqr(&self, r: &Relation, order: &[&str]) -> Result<Relation, RmaError> {
        self.unary(RmaOp::Rqr, r, order)
    }
    /// Transpose `tra_U(r)`.
    pub fn tra(&self, r: &Relation, order: &[&str]) -> Result<Relation, RmaError> {
        self.unary(RmaOp::Tra, r, order)
    }
    /// Left singular vectors (full U) `usv_U(r)`.
    pub fn usv(&self, r: &Relation, order: &[&str]) -> Result<Relation, RmaError> {
        self.unary(RmaOp::Usv, r, order)
    }
    /// Singular values as a diagonal matrix `dsv_U(r)`.
    pub fn dsv(&self, r: &Relation, order: &[&str]) -> Result<Relation, RmaError> {
        self.unary(RmaOp::Dsv, r, order)
    }
    /// Singular values as a column `vsv_U(r)`.
    pub fn vsv(&self, r: &Relation, order: &[&str]) -> Result<Relation, RmaError> {
        self.unary(RmaOp::Vsv, r, order)
    }
    /// Determinant `det_U(r)`.
    pub fn det(&self, r: &Relation, order: &[&str]) -> Result<Relation, RmaError> {
        self.unary(RmaOp::Det, r, order)
    }
    /// Rank `rnk_U(r)`.
    pub fn rnk(&self, r: &Relation, order: &[&str]) -> Result<Relation, RmaError> {
        self.unary(RmaOp::Rnk, r, order)
    }
    /// Matrix addition `add_{U;V}(r, s)`.
    pub fn add(
        &self,
        r: &Relation,
        r_order: &[&str],
        s: &Relation,
        s_order: &[&str],
    ) -> Result<Relation, RmaError> {
        self.binary(RmaOp::Add, r, r_order, s, s_order)
    }
    /// Matrix subtraction `sub_{U;V}(r, s)`.
    pub fn sub(
        &self,
        r: &Relation,
        r_order: &[&str],
        s: &Relation,
        s_order: &[&str],
    ) -> Result<Relation, RmaError> {
        self.binary(RmaOp::Sub, r, r_order, s, s_order)
    }
    /// Element-wise multiplication `emu_{U;V}(r, s)`.
    pub fn emu(
        &self,
        r: &Relation,
        r_order: &[&str],
        s: &Relation,
        s_order: &[&str],
    ) -> Result<Relation, RmaError> {
        self.binary(RmaOp::Emu, r, r_order, s, s_order)
    }
    /// Matrix multiplication `mmu_{U;V}(r, s)`.
    pub fn mmu(
        &self,
        r: &Relation,
        r_order: &[&str],
        s: &Relation,
        s_order: &[&str],
    ) -> Result<Relation, RmaError> {
        self.binary(RmaOp::Mmu, r, r_order, s, s_order)
    }
    /// Cross product `cpd_{U;V}(r, s)` (`AᵀB`).
    pub fn cpd(
        &self,
        r: &Relation,
        r_order: &[&str],
        s: &Relation,
        s_order: &[&str],
    ) -> Result<Relation, RmaError> {
        self.binary(RmaOp::Cpd, r, r_order, s, s_order)
    }
    /// Outer product `opd_{U;V}(r, s)` (`ABᵀ`).
    pub fn opd(
        &self,
        r: &Relation,
        r_order: &[&str],
        s: &Relation,
        s_order: &[&str],
    ) -> Result<Relation, RmaError> {
        self.binary(RmaOp::Opd, r, r_order, s, s_order)
    }
    /// Solve `sol_{U;V}(r, s)`: `A·x = b` (least squares when
    /// overdetermined).
    pub fn sol(
        &self,
        r: &Relation,
        r_order: &[&str],
        s: &Relation,
        s_order: &[&str],
    ) -> Result<Relation, RmaError> {
        self.binary(RmaOp::Sol, r, r_order, s, s_order)
    }
}

/// Close the `rma.merge` span around the relation constructor `γ`.
fn record_merge(span: Option<Instant>, rows_in: usize, result: &Relation) {
    trace::record(
        "rma.merge",
        "rma",
        0,
        span,
        rows_in as u64,
        result.len() as u64,
        1,
    );
}

/// The schema errors of Algorithm 1, decided from the schemas before any
/// sort: row-aligned operations pair equally many tuples by rank; the
/// element-wise ones need union-compatible application parts and disjoint
/// order schemas; the column cast ▽U names result columns after the values
/// of a one-attribute order schema, so an `r1`/`r2` column dimension needs
/// that argument's |U| = 1.
fn check_schemas(op: RmaOp, args: &[Arg]) -> Result<(), RmaError> {
    let cast = match op.shape().cols {
        Dim::R1 => args.first(),
        Dim::R2 => args.get(1),
        _ => None,
    };
    if let Some(a) = cast.filter(|a| a.order.len() != 1) {
        return Err(RmaError::OrderSchemaCardinality {
            op: op.name(),
            found: a.order.len(),
        });
    }
    if let [r, s] = args {
        if op.is_row_aligned() && r.rel.len() != s.rel.len() {
            return Err(RmaError::TupleCountMismatch {
                left: r.rel.len(),
                right: s.rel.len(),
            });
        }
        if op.is_elementwise() {
            let r_keys = r.rel.schema().subset(r.order)?;
            let s_keys = s.rel.schema().subset(s.order)?;
            let app_cols = |a: &Arg| a.rel.schema().complement(a.order).len();
            if app_cols(r) != app_cols(s) {
                return Err(RmaError::ApplicationNotUnionCompatible);
            }
            let overlap = s_keys.names().find(|n| r_keys.names().any(|m| m == *n));
            if let Some(name) = overlap {
                return Err(RmaError::OverlappingOrderSchemas(name.to_string()));
            }
        }
    }
    Ok(())
}

/// Table 3: the relation constructor `γ(context ‖ OP, names)` over the
/// sorted arguments, keyed on the operation's shape type. The row
/// dimension picks the row context — `r1` the first order part `µU`, `r*`
/// both order parts, `c1` the schema cast ∆U̅ as attribute `C`, `(1,1)` the
/// scalar relation — and the column dimension the result's column names:
/// `c1`/`c*` U̅, `c2` V̅, `r1`/`r2` that argument's column cast ▽U, `1` the
/// operation's name.
fn morph(op: RmaOp, r: &Relation, args: &[Split], out: KernelOut) -> Result<Relation, RmaError> {
    let shape = op.shape();
    let order_context = |s: &Split| -> Vec<(Attribute, Column)> {
        s.order_attrs
            .iter()
            .cloned()
            .zip(s.order_cols.iter().cloned())
            .collect()
    };
    let context = match shape.rows {
        Dim::R1 => order_context(&args[0]),
        Dim::RStar => args.iter().flat_map(order_context).collect(),
        Dim::C1 => vec![(
            Attribute::new("C", DataType::Str),
            schema_cast(&args[0].app_names),
        )],
        Dim::One => return scalar_relation(op, r, out),
        Dim::R2 | Dim::C2 | Dim::CStar => unreachable!("no operation has {shape:?}"),
    };
    let names = match shape.cols {
        Dim::C1 | Dim::CStar => args[0].app_names.clone(),
        Dim::C2 => args[1].app_names.clone(),
        Dim::R1 => column_cast(&args[0].order_cols[0])?,
        Dim::R2 => column_cast(&args[1].order_cols[0])?,
        Dim::One => vec![op.name().to_string()],
        Dim::RStar => unreachable!("no operation has {shape:?}"),
    };
    build_relation(context, &names, out.into_cols())
}

/// Shape (1,1) result: one row with the relation name in `C` and the scalar
/// in a column named after the operation; `rnk` is integer-typed.
fn scalar_relation(op: RmaOp, r: &Relation, out: KernelOut) -> Result<Relation, RmaError> {
    let KernelOut::Scalar(v) = out else {
        unreachable!("shape (1,1) op produced a matrix");
    };
    let name = r.name().unwrap_or("r").to_string();
    let c_col = Column::new(ColumnData::Str(vec![name]));
    let (val_attr, val_col) = if op == RmaOp::Rnk {
        (
            Attribute::new(op.name(), DataType::Int),
            Column::new(ColumnData::Int(vec![v as i64])),
        )
    } else {
        (
            Attribute::new(op.name(), DataType::Float),
            Column::new(ColumnData::Float(vec![v])),
        )
    };
    let schema = Schema::new(vec![Attribute::new("C", DataType::Str), val_attr])?;
    Ok(Relation::new(schema, vec![c_col, val_col])?)
}

/// Free-function API with a default context, for one-off calls.
macro_rules! free_unary {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(r: &Relation, order: &[&str]) -> Result<Relation, RmaError> {
                RmaContext::default().$name(r, order)
            }
        )+
    };
}

macro_rules! free_binary {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(
                r: &Relation,
                r_order: &[&str],
                s: &Relation,
                s_order: &[&str],
            ) -> Result<Relation, RmaError> {
                RmaContext::default().$name(r, r_order, s, s_order)
            }
        )+
    };
}

free_unary!(
    /// Matrix inversion with default options.
    inv,
    /// Eigenvectors with default options.
    evc,
    /// Eigenvalues with default options.
    evl,
    /// Cholesky factor with default options.
    chf,
    /// QR: Q factor with default options.
    qqr,
    /// QR: R factor with default options.
    rqr,
    /// Transpose with default options.
    tra,
    /// Full left singular vectors with default options.
    usv,
    /// Diagonal singular-value matrix with default options.
    dsv,
    /// Singular-value column with default options.
    vsv,
    /// Determinant with default options.
    det,
    /// Rank with default options.
    rnk,
);

free_binary!(
    /// Matrix addition with default options.
    add,
    /// Matrix subtraction with default options.
    sub,
    /// Element-wise multiplication with default options.
    emu,
    /// Matrix multiplication with default options.
    mmu,
    /// Cross product with default options.
    cpd,
    /// Outer product with default options.
    opd,
    /// Linear solve with default options.
    sol,
);
