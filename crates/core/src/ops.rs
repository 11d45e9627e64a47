//! The 19 relational matrix operations (the paper's Table 2).
//!
//! Every operation follows the split → sort → morph → eval → merge pipeline
//! of Algorithm 1: the argument relation(s) are split into order and
//! application parts, the base result is computed by a kernel, and the
//! result relation is assembled from morphed contextual information plus the
//! base result — yielding a relation with row and column origins
//! (Theorem 6.8).

use crate::context::RmaContext;
use crate::error::RmaError;
use crate::kernels::{eval_binary, eval_unary, KernelOut};
use crate::shape::{Dim, RmaOp};
use crate::split::{
    build_relation, column_cast, schema_cast, split, unary_sort_mode, SortMode, Split,
};
use rma_relation::{trace, Attribute, Relation, Schema};
use rma_storage::{Column, ColumnData, DataType};
use std::time::Instant;

impl RmaContext {
    /// Dispatch a unary relational matrix operation `op_U(r)`.
    pub fn unary(&self, op: RmaOp, r: &Relation, order: &[&str]) -> Result<Relation, RmaError> {
        self.unary_hinted(op, r, order, false)
    }

    /// Unary dispatch with a sortedness hint from the plan layer:
    /// `input_sorted` asserts that `r` is already physically ordered by
    /// `order`, so the sort can be skipped even when the operation's result
    /// depends on row order.
    pub(crate) fn unary_hinted(
        &self,
        op: RmaOp,
        r: &Relation,
        order: &[&str],
        input_sorted: bool,
    ) -> Result<Relation, RmaError> {
        assert!(!op.is_binary(), "unary() called with binary op {op:?}");
        check_column_cast(op, &[order])?;
        let mut stats = crate::context::ExecStats::default();
        let t_sort = Instant::now();
        let mode = if input_sorted {
            SortMode::Skip
        } else {
            unary_sort_mode(self, op)
        };
        if matches!(mode, SortMode::Full) {
            stats.sorts += 1;
        }
        let s = split(r, order, mode)?;
        stats.sort += t_sort.elapsed();
        let out = eval_unary(self, op, &s.app, &mut stats)?;

        let t_merge = Instant::now();
        let span = trace::clock();
        let result = morph(op, r, &[&s], out)?;
        record_merge(span, s.rows, &result);
        stats.sort += t_merge.elapsed();
        self.record(&stats);
        Ok(result)
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
        self.binary_hinted(op, r, r_order, false, s, s_order, false)
    }

    /// Binary dispatch with per-argument sortedness hints from the plan
    /// layer (each flag asserts that the argument is already physically
    /// ordered by its order schema).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn binary_hinted(
        &self,
        op: RmaOp,
        r: &Relation,
        r_order: &[&str],
        r_sorted: bool,
        s: &Relation,
        s_order: &[&str],
        s_sorted: bool,
    ) -> Result<Relation, RmaError> {
        assert!(op.is_binary(), "binary() called with unary op {op:?}");
        check_column_cast(op, &[r_order, s_order])?;
        let aligned = matches!(
            op,
            RmaOp::Add | RmaOp::Sub | RmaOp::Emu | RmaOp::Cpd | RmaOp::Sol
        );
        let elementwise = matches!(op, RmaOp::Add | RmaOp::Sub | RmaOp::Emu);
        // element-wise / row-aligned: both relations must have equally many
        // tuples, paired by rank under their own order schemas
        if aligned && r.len() != s.len() {
            return Err(RmaError::TupleCountMismatch {
                left: r.len(),
                right: s.len(),
            });
        }
        // schema errors are decided from the schemas, before any sort
        if elementwise {
            let (r_keys, s_keys) = (r.schema().subset(r_order)?, s.schema().subset(s_order)?);
            if r.schema().complement(r_order).len() != s.schema().complement(s_order).len() {
                return Err(RmaError::ApplicationNotUnionCompatible);
            }
            let overlap = s_keys.names().find(|n| r_keys.names().any(|m| m == *n));
            if let Some(name) = overlap {
                return Err(RmaError::OverlappingOrderSchemas(name.to_string()));
            }
        }

        let mut stats = crate::context::ExecStats::default();
        let t_sort = Instant::now();
        let optimized = self.options.sort_policy == crate::context::SortPolicy::Optimized;
        let (rs, ss) = if aligned {
            if optimized && r_sorted && s_sorted {
                // both physically sorted: ranks align positionally for free
                let rs = split(r, r_order, SortMode::Skip)?;
                let ss = split(s, s_order, SortMode::Skip)?;
                (rs, ss)
            } else if optimized {
                // relative sorting: r stays in physical order and is sorted
                // only to rank its rows; s is read through one alignment to
                // those ranks
                let r_mode = if r_sorted {
                    SortMode::Skip
                } else {
                    stats.sorts += 1;
                    SortMode::Rank
                };
                let mut rs = split(r, r_order, r_mode)?;
                stats.sorts += 1;
                let other = rs.perm.take();
                let ss = split(s, s_order, SortMode::AlignTo { other })?;
                (rs, ss)
            } else {
                stats.sorts += 2;
                let rs = split(r, r_order, SortMode::Full)?;
                let ss = split(s, s_order, SortMode::Full)?;
                (rs, ss)
            }
        } else {
            // mmu/opd: r's rows are free (result rows permute with them),
            // s must be in key order (it aligns with r's application
            // columns / provides the sorted ▽V names)
            let r_mode = if r_sorted || (optimized && !op.result_depends_on_row_order()) {
                SortMode::Skip
            } else {
                SortMode::Full
            };
            let s_mode = if s_sorted {
                SortMode::Skip
            } else {
                SortMode::Full
            };
            if matches!(r_mode, SortMode::Full) {
                stats.sorts += 1;
            }
            if matches!(s_mode, SortMode::Full) {
                stats.sorts += 1;
            }
            let rs = split(r, r_order, r_mode)?;
            let ss = split(s, s_order, s_mode)?;
            (rs, ss)
        };
        stats.sort += t_sort.elapsed();

        let out = eval_binary(self, op, &rs.app, &ss.app, ss.align.as_deref(), &mut stats)?;

        let span = trace::clock();
        let result = morph(op, r, &[&rs, &ss], out)?;
        record_merge(span, rs.rows + ss.rows, &result);
        self.record(&stats);
        Ok(result)
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

/// The column cast ▽U names result columns after the values of a
/// one-attribute order schema, so an `r1`/`r2` column dimension needs that
/// argument's |U| = 1. Checked from the order schemas, before any sort.
fn check_column_cast(op: RmaOp, orders: &[&[&str]]) -> Result<(), RmaError> {
    let cast = match op.shape().cols {
        Dim::R1 => orders.first(),
        Dim::R2 => orders.get(1),
        _ => None,
    };
    match cast {
        Some(order) if order.len() != 1 => Err(RmaError::OrderSchemaCardinality {
            op: op.name(),
            found: order.len(),
        }),
        _ => Ok(()),
    }
}

/// Table 3: the relation constructor `γ(context ‖ OP, names)` over the
/// sorted arguments, keyed on the operation's shape type. The row
/// dimension picks the row context — `r1` the first order part `µU`, `r*`
/// both order parts, `c1` the schema cast ∆U̅ as attribute `C`, `(1,1)` the
/// scalar relation — and the column dimension the result's column names:
/// `c1`/`c*` U̅, `c2` V̅, `r1`/`r2` that argument's column cast ▽U, `1` the
/// operation's name.
fn morph(op: RmaOp, r: &Relation, args: &[&Split], out: KernelOut) -> Result<Relation, RmaError> {
    let shape = op.shape();
    let order_context = |s: &Split| -> Vec<(Attribute, Column)> {
        s.order_attrs
            .iter()
            .cloned()
            .zip(s.order_cols.iter().cloned())
            .collect()
    };
    let context = match shape.rows {
        Dim::R1 => order_context(args[0]),
        Dim::RStar => args.iter().flat_map(|s| order_context(s)).collect(),
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
