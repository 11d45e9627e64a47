//! The fluent lazy builder over [`LogicalPlan`].
//!
//! A [`Frame`] records relational and matrix operations without executing
//! them; [`Frame::collect`] optimizes the accumulated plan (projection and
//! selection pushdown, redundant-sort elimination, plan-level kernel
//! choice) and runs it. This gives programmatic users the same optimizing
//! plan layer the SQL frontend uses:
//!
//! ```
//! use rma_core::plan::Frame;
//! use rma_core::RmaContext;
//! use rma_relation::{Expr, RelationBuilder};
//!
//! let rating = RelationBuilder::new()
//!     .column("u", vec!["Ann", "Tom", "Jan"])
//!     .column("balto", vec![2.0f64, 0.0, 1.0])
//!     .column("heat", vec![1.5f64, 0.0, 4.0])
//!     .build()
//!     .unwrap();
//!
//! let ctx = RmaContext::default();
//! let out = Frame::scan(rating)
//!     .select(Expr::col("u").lt(Expr::lit("Tom")))
//!     .qqr(&["u"])
//!     .collect(&ctx)
//!     .unwrap();
//! assert_eq!(out.len(), 2);
//! ```

use super::{
    execute, execute_analyzed, explain_analyze, explain_with_stats, optimize, LogicalPlan,
    NoTables, PlanError, RmaArg, TableProvider,
};
use crate::context::RmaContext;
use crate::shape::RmaOp;
use rma_relation::{AggSpec, Expr, Relation};
use std::sync::Arc;

/// A lazy computation over the combined relational + matrix algebra.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    plan: LogicalPlan,
}

impl Frame {
    // -- constructors ---------------------------------------------------

    /// Lazily scan an in-memory relation.
    pub fn scan(rel: Relation) -> Frame {
        Frame {
            plan: LogicalPlan::Values {
                rel: Arc::new(rel),
                projection: None,
            },
        }
    }

    /// Lazily scan a named table, resolved through the
    /// [`TableProvider`] passed to [`Frame::collect_with`].
    pub fn table(name: impl Into<String>) -> Frame {
        Frame {
            plan: LogicalPlan::Scan {
                table: name.into(),
                projection: None,
            },
        }
    }

    /// Wrap an existing logical plan.
    pub fn from_plan(plan: LogicalPlan) -> Frame {
        Frame { plan }
    }

    /// The accumulated (unoptimized) logical plan.
    pub fn logical_plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// Consume the frame, yielding the accumulated logical plan.
    pub fn into_plan(self) -> LogicalPlan {
        self.plan
    }

    // -- relational operators -------------------------------------------

    /// σ: keep rows satisfying the predicate.
    pub fn select(self, predicate: Expr) -> Frame {
        self.wrap(|input| LogicalPlan::Select { input, predicate })
    }

    /// Alias for [`Frame::select`], matching dataframe-API conventions.
    pub fn filter(self, predicate: Expr) -> Frame {
        self.select(predicate)
    }

    /// π: keep the named columns, in the given order.
    pub fn project(self, names: &[&str]) -> Frame {
        let items = names
            .iter()
            .map(|n| (Expr::Col(n.to_string()), n.to_string()))
            .collect();
        self.wrap(|input| LogicalPlan::Project { input, items })
    }

    /// Generalised projection: arbitrary expressions with output names.
    pub fn project_exprs(self, items: Vec<(Expr, String)>) -> Frame {
        self.wrap(|input| LogicalPlan::Project { input, items })
    }

    /// ϑ: group by the given attributes and compute aggregates.
    pub fn aggregate(self, group_by: &[&str], aggs: Vec<AggSpec>) -> Frame {
        let group_by = group_by.iter().map(|s| s.to_string()).collect();
        self.wrap(|input| LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        })
    }

    /// Equi-join on explicit column pairs.
    pub fn join(self, other: Frame, on: &[(&str, &str)]) -> Frame {
        let on = on
            .iter()
            .map(|(l, r)| (l.to_string(), r.to_string()))
            .collect();
        Frame {
            plan: LogicalPlan::JoinOn {
                left: Box::new(self.plan),
                right: Box::new(other.plan),
                on,
            },
        }
    }

    /// Natural join on shared attribute names.
    pub fn natural_join(self, other: Frame) -> Frame {
        Frame {
            plan: LogicalPlan::NaturalJoin {
                left: Box::new(self.plan),
                right: Box::new(other.plan),
            },
        }
    }

    /// Cross product.
    pub fn cross(self, other: Frame) -> Frame {
        Frame {
            plan: LogicalPlan::Cross {
                left: Box::new(self.plan),
                right: Box::new(other.plan),
            },
        }
    }

    /// Bag union with a union-compatible frame.
    pub fn union_all(self, other: Frame) -> Frame {
        Frame {
            plan: LogicalPlan::UnionAll {
                left: Box::new(self.plan),
                right: Box::new(other.plan),
            },
        }
    }

    /// Duplicate elimination.
    pub fn distinct(self) -> Frame {
        self.wrap(|input| LogicalPlan::Distinct { input })
    }

    /// Sort by attributes; `ascending[k]` gives the k-th direction
    /// (all-ascending when empty).
    pub fn order_by(self, attrs: &[&str], ascending: &[bool]) -> Frame {
        let keys = attrs
            .iter()
            .enumerate()
            .map(|(k, a)| (a.to_string(), ascending.get(k).copied().unwrap_or(true)))
            .collect();
        self.wrap(|input| LogicalPlan::OrderBy { input, keys })
    }

    /// Keep the first `n` rows.
    pub fn limit(self, n: usize) -> Frame {
        self.wrap(|input| LogicalPlan::Limit { input, n })
    }

    /// Assert that the given attributes form a key (pass-through).
    pub fn assert_key(self, attrs: &[&str]) -> Frame {
        let attrs = attrs.iter().map(|s| s.to_string()).collect();
        self.wrap(|input| LogicalPlan::AssertKey { input, attrs })
    }

    // -- relational matrix operations -----------------------------------

    /// Generic unary relational matrix operation `op_U(self)`.
    pub fn rma_unary(self, op: RmaOp, order: &[&str]) -> Frame {
        assert!(!op.is_binary(), "rma_unary called with binary op {op:?}");
        Frame {
            plan: LogicalPlan::Rma {
                op,
                args: vec![RmaArg::new(self.plan, owned(order))],
                backend: None,
            },
        }
    }

    /// Generic binary relational matrix operation `op_{U;V}(self, other)`.
    pub fn rma_binary(
        self,
        op: RmaOp,
        order: &[&str],
        other: Frame,
        other_order: &[&str],
    ) -> Frame {
        assert!(op.is_binary(), "rma_binary called with unary op {op:?}");
        Frame {
            plan: LogicalPlan::Rma {
                op,
                args: vec![
                    RmaArg::new(self.plan, owned(order)),
                    RmaArg::new(other.plan, owned(other_order)),
                ],
                backend: None,
            },
        }
    }

    // -- execution ------------------------------------------------------

    /// Optimize and execute the plan. `Scan` nodes (from [`Frame::table`])
    /// cannot be resolved without a provider; use [`Frame::collect_with`].
    pub fn collect(&self, ctx: &RmaContext) -> Result<Relation, PlanError> {
        self.collect_with(ctx, &NoTables)
    }

    /// Optimize and execute the plan, resolving named tables through the
    /// provider. `collect` is a pipeline sink: intermediate results flow
    /// through as selection-vector views, and the final relation is
    /// compacted here before it is handed to the caller.
    pub fn collect_with(
        &self,
        ctx: &RmaContext,
        provider: &dyn TableProvider,
    ) -> Result<Relation, PlanError> {
        let plan = optimize(self.plan.clone(), ctx, provider);
        Ok(execute(&plan, ctx, provider)?.materialize())
    }

    /// Render the optimized plan as an EXPLAIN-style tree, annotated with
    /// per-node `rows≈`/`cost≈` estimates ([`super::explain_with_stats`]).
    pub fn explain(&self, ctx: &RmaContext) -> String {
        self.explain_with(ctx, &NoTables)
    }

    /// [`Frame::explain`] with named tables resolved through a provider.
    pub fn explain_with(&self, ctx: &RmaContext, provider: &dyn TableProvider) -> String {
        explain_with_stats(&optimize(self.plan.clone(), ctx, provider), provider)
    }

    /// `EXPLAIN ANALYZE`: optimize the plan, **execute it** with per-node
    /// profiling, and render the cost-annotated tree with measured
    /// actuals — output rows, inclusive wall time, the morsels the node's
    /// subtree dispatched to the worker pool, and the estimate-vs-actual
    /// q-error — appended to every line ([`super::explain_analyze`]). The
    /// profiled run executes the same operators as
    /// [`Frame::collect`], so the printed tree and its actual row counts
    /// are identical at any thread count.
    pub fn explain_analyze(&self, ctx: &RmaContext) -> Result<String, PlanError> {
        self.explain_analyze_with(ctx, &NoTables)
    }

    /// [`Frame::explain_analyze`] with named tables resolved through a
    /// provider.
    pub fn explain_analyze_with(
        &self,
        ctx: &RmaContext,
        provider: &dyn TableProvider,
    ) -> Result<String, PlanError> {
        let plan = optimize(self.plan.clone(), ctx, provider);
        let (_, actuals) = execute_analyzed(&plan, ctx, provider)?;
        Ok(explain_analyze(&plan, provider, &actuals))
    }

    fn wrap(self, f: impl FnOnce(Box<LogicalPlan>) -> LogicalPlan) -> Frame {
        Frame {
            plan: f(Box::new(self.plan)),
        }
    }
}

fn owned(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

/// The 19 named operations as fluent methods.
macro_rules! frame_unary {
    ($($(#[$doc:meta])* $name:ident => $op:ident),+ $(,)?) => {
        impl Frame {
            $(
                $(#[$doc])*
                pub fn $name(self, order: &[&str]) -> Frame {
                    self.rma_unary(RmaOp::$op, order)
                }
            )+
        }
    };
}

macro_rules! frame_binary {
    ($($(#[$doc:meta])* $name:ident => $op:ident),+ $(,)?) => {
        impl Frame {
            $(
                $(#[$doc])*
                pub fn $name(self, order: &[&str], other: Frame, other_order: &[&str]) -> Frame {
                    self.rma_binary(RmaOp::$op, order, other, other_order)
                }
            )+
        }
    };
}

frame_unary!(
    /// Matrix inversion `inv_U`.
    inv => Inv,
    /// Eigenvectors `evc_U`.
    evc => Evc,
    /// Eigenvalues `evl_U`.
    evl => Evl,
    /// Cholesky factor `chf_U`.
    chf => Chf,
    /// Q of the QR decomposition `qqr_U`.
    qqr => Qqr,
    /// R of the QR decomposition `rqr_U`.
    rqr => Rqr,
    /// Transpose `tra_U`.
    tra => Tra,
    /// Left singular vectors `usv_U`.
    usv => Usv,
    /// Diagonal singular-value matrix `dsv_U`.
    dsv => Dsv,
    /// Singular-value column `vsv_U`.
    vsv => Vsv,
    /// Determinant `det_U`.
    det => Det,
    /// Rank `rnk_U`.
    rnk => Rnk,
);

frame_binary!(
    /// Matrix addition `add_{U;V}`.
    add => Add,
    /// Matrix subtraction `sub_{U;V}`.
    sub => Sub,
    /// Element-wise multiplication `emu_{U;V}`.
    emu => Emu,
    /// Matrix multiplication `mmu_{U;V}`.
    mmu => Mmu,
    /// Cross product `cpd_{U;V}` (`AᵀB`).
    cpd => Cpd,
    /// Outer product `opd_{U;V}` (`ABᵀ`).
    opd => Opd,
    /// Linear solve `sol_{U;V}`.
    sol => Sol,
);
