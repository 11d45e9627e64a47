//! Shape types of the matrix operations (the paper's Table 1).
//!
//! Every matrix operation is *shape restricted*: each result dimension
//! equals the row count of an input, the column count of an input, or one.
//! The shape type `(x, y)` drives the inheritance of contextual information
//! (Table 3): e.g. `x = r1` means the row origin is the order part of the
//! first argument.

use std::fmt;
use std::ops::Add;

/// One dimension of a shape type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    /// Rows of the first argument.
    R1,
    /// Rows of the second argument.
    R2,
    /// Rows of both arguments (they must agree).
    RStar,
    /// Columns (application attributes) of the first argument.
    C1,
    /// Columns of the second argument.
    C2,
    /// Columns of both arguments.
    CStar,
    /// Constant one.
    One,
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dim::R1 => "r1",
            Dim::R2 => "r2",
            Dim::RStar => "r*",
            Dim::C1 => "c1",
            Dim::C2 => "c2",
            Dim::CStar => "c*",
            Dim::One => "1",
        };
        f.write_str(s)
    }
}

/// The size of one argument of an operation: its rows, the columns of its
/// application part and the columns of its order part.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArgSize<T> {
    /// Rows of the argument relation.
    pub rows: T,
    /// Application columns (the complement of the order schema).
    pub app_cols: T,
    /// Order-schema columns.
    pub order_cols: T,
}

/// The shape type `(rows, cols)` of an operation's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeType {
    /// Where the result's row count comes from.
    pub rows: Dim,
    /// Where the result's column count comes from.
    pub cols: Dim,
}

/// The 19 relational matrix operations of RMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmaOp {
    /// Element-wise multiplication `emu_{U;V}`.
    Emu,
    /// Matrix multiplication `mmu_{U;V}`.
    Mmu,
    /// Outer product `opd_{U;V}` (`ABᵀ`).
    Opd,
    /// Cross product `cpd_{U;V}` (`AᵀB`).
    Cpd,
    /// Matrix addition `add_{U;V}`.
    Add,
    /// Matrix subtraction `sub_{U;V}`.
    Sub,
    /// Transpose `tra_U`.
    Tra,
    /// Linear solve `sol_{U;V}`.
    Sol,
    /// Matrix inversion `inv_U`.
    Inv,
    /// Eigenvectors `evc_U`.
    Evc,
    /// Eigenvalues `evl_U`.
    Evl,
    /// Q of the QR decomposition `qqr_U`.
    Qqr,
    /// R of the QR decomposition `rqr_U`.
    Rqr,
    /// Diagonal singular-value matrix `dsv_U`.
    Dsv,
    /// Left singular vectors `usv_U`.
    Usv,
    /// Singular-value column `vsv_U`.
    Vsv,
    /// Determinant `det_U`.
    Det,
    /// Rank `rnk_U`.
    Rnk,
    /// Cholesky factor `chf_U`.
    Chf,
}

impl RmaOp {
    /// Lower-case operation name (used for SQL syntax and the constant
    /// column origins of shape-`1` dimensions).
    pub fn name(self) -> &'static str {
        match self {
            RmaOp::Emu => "emu",
            RmaOp::Mmu => "mmu",
            RmaOp::Opd => "opd",
            RmaOp::Cpd => "cpd",
            RmaOp::Add => "add",
            RmaOp::Sub => "sub",
            RmaOp::Tra => "tra",
            RmaOp::Sol => "sol",
            RmaOp::Inv => "inv",
            RmaOp::Evc => "evc",
            RmaOp::Evl => "evl",
            RmaOp::Qqr => "qqr",
            RmaOp::Rqr => "rqr",
            RmaOp::Dsv => "dsv",
            RmaOp::Usv => "usv",
            RmaOp::Vsv => "vsv",
            RmaOp::Det => "det",
            RmaOp::Rnk => "rnk",
            RmaOp::Chf => "chf",
        }
    }

    /// Parse an operation name (case-insensitive); used by the SQL frontend.
    pub fn parse(name: &str) -> Option<RmaOp> {
        let lower = name.to_ascii_lowercase();
        ALL_OPS.iter().copied().find(|op| op.name() == lower)
    }

    /// Is this a binary operation (two argument relations)?
    pub fn is_binary(self) -> bool {
        matches!(
            self,
            RmaOp::Emu
                | RmaOp::Mmu
                | RmaOp::Opd
                | RmaOp::Cpd
                | RmaOp::Add
                | RmaOp::Sub
                | RmaOp::Sol
        )
    }

    /// Is this an element-wise operation (`add`, `sub`, `emu`): the
    /// application parts pair cell by cell, so they must be union
    /// compatible.
    pub fn is_elementwise(self) -> bool {
        matches!(self, RmaOp::Add | RmaOp::Sub | RmaOp::Emu)
    }

    /// Does this binary operation pair the two arguments' tuples by rank
    /// under their own order schemas (the element-wise operations, `cpd`
    /// and `sol`)? Both arguments then have equally many tuples, and
    /// relative sorting aligns the second to the first.
    pub fn is_row_aligned(self) -> bool {
        self.is_elementwise() || matches!(self, RmaOp::Cpd | RmaOp::Sol)
    }

    /// The shape type per Table 1.
    pub fn shape(self) -> ShapeType {
        use Dim::*;
        let (rows, cols) = match self {
            RmaOp::Usv => (R1, R1),
            RmaOp::Opd => (R1, R2),
            RmaOp::Inv | RmaOp::Evc | RmaOp::Chf | RmaOp::Qqr => (R1, C1),
            RmaOp::Mmu => (R1, C2),
            RmaOp::Evl | RmaOp::Vsv => (R1, One),
            RmaOp::Tra => (C1, R1),
            RmaOp::Rqr | RmaOp::Dsv => (C1, C1),
            RmaOp::Cpd | RmaOp::Sol => (C1, C2),
            RmaOp::Emu | RmaOp::Add | RmaOp::Sub => (RStar, CStar),
            RmaOp::Det | RmaOp::Rnk => (One, One),
        };
        ShapeType { rows, cols }
    }

    /// The size `(rows, columns)` of the result relation, from its
    /// arguments' sizes: Table 1's base result plus the context columns of
    /// Table 3 — the order part for `r1` rows, both order parts for `r*`,
    /// the one column `C` for `c1` and `(1,1)`. `None` when `args` lacks an
    /// argument the shape reads. Generic so the plan layer states exact
    /// sizes (`usize`) and estimates (`f64`) through the same table.
    pub fn result_size<T>(self, args: &[ArgSize<T>]) -> Option<(T, T)>
    where
        T: Copy + Add<Output = T> + From<u8>,
    {
        let arg = |i: usize| args.get(i).copied();
        let dim = |d: Dim| {
            Some(match d {
                Dim::R1 | Dim::RStar => arg(0)?.rows,
                Dim::R2 => arg(1)?.rows,
                Dim::C1 | Dim::CStar => arg(0)?.app_cols,
                Dim::C2 => arg(1)?.app_cols,
                Dim::One => T::from(1),
            })
        };
        let shape = self.shape();
        let context = match shape.rows {
            Dim::R1 => arg(0)?.order_cols,
            Dim::RStar => arg(0)?.order_cols + arg(1)?.order_cols,
            Dim::C1 | Dim::One => T::from(1),
            Dim::R2 | Dim::C2 | Dim::CStar => unreachable!("no operation has {shape:?}"),
        };
        Some((dim(shape.rows)?, context + dim(shape.cols)?))
    }

    /// Does the result row order follow the (sorted) rows of the first
    /// argument? When false, permuting input rows permutes or leaves the
    /// result unchanged, so the engine may skip sorting (§8.1).
    pub fn result_depends_on_row_order(self) -> bool {
        match self {
            // Q rows (thin QR with positive diagonal is unique, and
            // Q(P·A) = P·Q(A)), outer-product rows and mmu rows permute
            // exactly with the input; cpd/rqr/dsv/rnk/sol are row-permutation
            // invariant.
            RmaOp::Qqr | RmaOp::Opd | RmaOp::Mmu => false,
            RmaOp::Cpd | RmaOp::Rqr | RmaOp::Dsv | RmaOp::Rnk | RmaOp::Sol => false,
            // inversion/eigen/cholesky couple row and column order; det's
            // sign flips under odd permutations; tra's columns must align
            // with the sorted column cast; evl/vsv pair the k-th sorted row
            // with the k-th eigen/singular value; usv's column names ▽U are
            // the sorted key values, and SVD's non-uniqueness makes the
            // permuted factor a different (if equally valid) base result;
            // element-wise ops align two relations (handled by relative
            // sorting instead).
            RmaOp::Inv
            | RmaOp::Evc
            | RmaOp::Evl
            | RmaOp::Vsv
            | RmaOp::Usv
            | RmaOp::Chf
            | RmaOp::Det
            | RmaOp::Tra
            | RmaOp::Emu
            | RmaOp::Add
            | RmaOp::Sub => true,
        }
    }
}

/// All operations, in the paper's listing order.
pub const ALL_OPS: [RmaOp; 19] = [
    RmaOp::Emu,
    RmaOp::Mmu,
    RmaOp::Opd,
    RmaOp::Cpd,
    RmaOp::Add,
    RmaOp::Sub,
    RmaOp::Tra,
    RmaOp::Sol,
    RmaOp::Inv,
    RmaOp::Evc,
    RmaOp::Evl,
    RmaOp::Qqr,
    RmaOp::Rqr,
    RmaOp::Dsv,
    RmaOp::Usv,
    RmaOp::Vsv,
    RmaOp::Det,
    RmaOp::Rnk,
    RmaOp::Chf,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shapes() {
        use Dim::*;
        assert_eq!(RmaOp::Usv.shape(), ShapeType { rows: R1, cols: R1 });
        assert_eq!(RmaOp::Opd.shape(), ShapeType { rows: R1, cols: R2 });
        assert_eq!(RmaOp::Inv.shape(), ShapeType { rows: R1, cols: C1 });
        assert_eq!(RmaOp::Mmu.shape(), ShapeType { rows: R1, cols: C2 });
        assert_eq!(
            RmaOp::Evl.shape(),
            ShapeType {
                rows: R1,
                cols: One
            }
        );
        assert_eq!(RmaOp::Tra.shape(), ShapeType { rows: C1, cols: R1 });
        assert_eq!(RmaOp::Rqr.shape(), ShapeType { rows: C1, cols: C1 });
        assert_eq!(RmaOp::Cpd.shape(), ShapeType { rows: C1, cols: C2 });
        assert_eq!(
            RmaOp::Add.shape(),
            ShapeType {
                rows: RStar,
                cols: CStar
            }
        );
        assert_eq!(
            RmaOp::Det.shape(),
            ShapeType {
                rows: One,
                cols: One
            }
        );
    }

    #[test]
    fn result_sizes_follow_tables_1_and_3() {
        // 5 rows, 3 application columns, 1 order column
        let a = ArgSize {
            rows: 5usize,
            app_cols: 3,
            order_cols: 1,
        };
        let b = ArgSize {
            rows: 3usize,
            app_cols: 2,
            order_cols: 2,
        };
        assert_eq!(RmaOp::Qqr.result_size(&[a]), Some((5, 1 + 3)));
        assert_eq!(RmaOp::Usv.result_size(&[a]), Some((5, 1 + 5)));
        assert_eq!(RmaOp::Evl.result_size(&[a]), Some((5, 1 + 1)));
        assert_eq!(RmaOp::Tra.result_size(&[a]), Some((3, 1 + 5)));
        assert_eq!(RmaOp::Rqr.result_size(&[a]), Some((3, 1 + 3)));
        assert_eq!(RmaOp::Det.result_size(&[a]), Some((1, 2)));
        assert_eq!(RmaOp::Mmu.result_size(&[a, b]), Some((5, 1 + 2)));
        assert_eq!(RmaOp::Opd.result_size(&[a, b]), Some((5, 1 + 3)));
        assert_eq!(RmaOp::Cpd.result_size(&[a, b]), Some((3, 1 + 2)));
        assert_eq!(RmaOp::Add.result_size(&[a, b]), Some((5, 1 + 2 + 3)));
        // a binary shape needs its second argument
        assert_eq!(RmaOp::Mmu.result_size(&[a]), None);
        // estimates go through the same table
        let f = ArgSize {
            rows: 5.0f64,
            app_cols: 3.0,
            order_cols: 1.0,
        };
        assert_eq!(RmaOp::Tra.result_size(&[f]), Some((3.0, 6.0)));
    }

    #[test]
    fn binary_classification() {
        assert!(RmaOp::Mmu.is_binary());
        assert!(RmaOp::Sol.is_binary());
        assert!(!RmaOp::Inv.is_binary());
        assert!(!RmaOp::Tra.is_binary());
        assert_eq!(ALL_OPS.iter().filter(|o| o.is_binary()).count(), 7);
    }

    #[test]
    fn parse_names() {
        assert_eq!(RmaOp::parse("INV"), Some(RmaOp::Inv));
        assert_eq!(RmaOp::parse("qqr"), Some(RmaOp::Qqr));
        assert_eq!(RmaOp::parse("Mmu"), Some(RmaOp::Mmu));
        assert_eq!(RmaOp::parse("nope"), None);
        // every op round-trips
        for op in ALL_OPS {
            assert_eq!(RmaOp::parse(op.name()), Some(op));
        }
    }

    #[test]
    fn sort_avoidance_classification() {
        assert!(!RmaOp::Qqr.result_depends_on_row_order());
        assert!(RmaOp::Inv.result_depends_on_row_order());
        assert!(RmaOp::Det.result_depends_on_row_order());
        assert!(!RmaOp::Cpd.result_depends_on_row_order());
    }

    #[test]
    fn display_dims() {
        assert_eq!(Dim::RStar.to_string(), "r*");
        assert_eq!(Dim::One.to_string(), "1");
    }
}
