//! Lazy logical plans over the combined relational + matrix algebra.
//!
//! The paper's central claim is that relational and matrix operations form
//! *one* closed algebra; this module gives that algebra one composable plan
//! representation. A [`LogicalPlan`] covers scans, the classical relational
//! operators, and all 19 relational matrix operations, and every frontend —
//! the fluent [`Frame`] builder for Rust users and the SQL layer's
//! `plan_select` — lowers to it. A shared optimizer
//! ([`optimize()`]) then performs cross-operator rewrites (projection
//! pushdown, selection pushdown, cost-based join ordering, redundant-sort
//! elimination, plan-level kernel choice) that no eager API could express,
//! and a single interpreter ([`execute`]) runs the optimized plan against
//! the eager kernels in [`crate::ops`].
//!
//! Cost-based decisions are driven by the [`stats`] module: per-table
//! statistics (row counts, per-column distinct estimates and min/max,
//! computed lazily and cached on the [`Relation`]) propagate bottom-up
//! into per-node cardinality and cost estimates. [`explain_with_stats`]
//! renders those estimates as `rows≈`/`cost≈` annotations on every plan
//! line, which is how the chosen join order is inspected and
//! snapshot-tested.

mod exec;
mod frame;
pub mod optimize;
pub mod stats;

pub use exec::{execute, execute_analyzed, NodeActual};
pub use frame::Frame;
pub use optimize::{optimize, output_columns};

use crate::context::Backend;
use crate::error::RmaError;
use crate::shape::RmaOp;
use rma_relation::{AggSpec, Expr, Relation, RelationError};
use std::fmt;
use std::sync::Arc;

/// A source of named tables for [`LogicalPlan::Scan`] nodes. The SQL
/// catalog implements this; plans built purely from in-memory relations via
/// [`Frame::scan`] never need one.
pub trait TableProvider {
    /// Resolve a table by name, or `None` when unknown.
    fn table(&self, name: &str) -> Option<&Relation>;
}

/// The empty provider: every `Scan` fails to resolve.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTables;

impl TableProvider for NoTables {
    fn table(&self, _name: &str) -> Option<&Relation> {
        None
    }
}

/// One argument of a relational matrix operation in a plan: the input plan,
/// its order schema, and an optimizer-set flag recording that the input is
/// already sorted by that schema (so execution may skip the sort).
#[derive(Debug, Clone, PartialEq)]
pub struct RmaArg {
    /// The plan producing this argument.
    pub input: Box<LogicalPlan>,
    /// The argument's order schema.
    pub order: Vec<String>,
    /// Optimizer-set: the input is already sorted by `order`, so execution
    /// may skip the sort.
    pub sorted_input: bool,
}

impl RmaArg {
    /// Argument with no optimizer annotations.
    pub fn new(input: LogicalPlan, order: Vec<String>) -> Self {
        RmaArg {
            input: Box::new(input),
            order,
            sorted_input: false,
        }
    }
}

/// A lazy logical plan over the combined relational + matrix algebra.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan of an in-memory relation (the [`Frame`] entry point).
    Values {
        /// The scanned relation (shared, never copied by the plan).
        rel: Arc<Relation>,
        /// Optimizer-set column pruning, applied at scan time.
        projection: Option<Vec<String>>,
    },
    /// Scan of a named table, resolved through a [`TableProvider`].
    Scan {
        /// Name the provider resolves.
        table: String,
        /// Optimizer-set column pruning, applied at scan time.
        projection: Option<Vec<String>>,
    },
    /// σ.
    Select {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Rows satisfying this predicate are kept.
        predicate: Expr,
    },
    /// Generalised projection (expression, output name).
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, output name)` per output column.
        items: Vec<(Expr, String)>,
    },
    /// ϑ.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping attributes (empty for a global aggregate).
        group_by: Vec<String>,
        /// Aggregates to compute per group.
        aggs: Vec<AggSpec>,
    },
    /// Natural join.
    NaturalJoin {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Equi-join on explicit column pairs.
    JoinOn {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// `(left column, right column)` equality pairs.
        on: Vec<(String, String)>,
    },
    /// Cross product.
    Cross {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Bag union (schemas must be union compatible).
    UnionAll {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Sorting.
    OrderBy {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(attribute, ascending)` sort keys, major first.
        keys: Vec<(String, bool)>,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Number of rows kept.
        n: usize,
    },
    /// Bounded top-k: the first `n` rows of the input ordered by `keys`,
    /// computed with a bounded heap instead of a full sort. Produced by the
    /// optimizer's Limit-into-Sort rewrite; no frontend emits it directly.
    TopK {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(attribute, ascending)` sort keys, major first.
        keys: Vec<(String, bool)>,
        /// Number of rows kept.
        n: usize,
    },
    /// A relational matrix operation. `backend` is the optimizer's
    /// plan-level kernel choice when argument sizes are statically exact.
    Rma {
        /// Which of the 19 operations.
        op: RmaOp,
        /// One argument per operand (one for unary, two for binary ops).
        args: Vec<RmaArg>,
        /// Optimizer-set plan-level kernel choice.
        backend: Option<Backend>,
    },
    /// Key assertion: pass the input through unchanged, erroring if the
    /// given attributes do not form a key. Inserted by rewrites that
    /// eliminate or bypass an RMA operation but must preserve its
    /// order-schema validation.
    AssertKey {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Attributes that must form a key.
        attrs: Vec<String>,
    },
}

impl LogicalPlan {
    /// Plain RMA node with no optimizer annotations.
    pub fn rma(op: RmaOp, args: Vec<(LogicalPlan, Vec<String>)>) -> Self {
        LogicalPlan::Rma {
            op,
            args: args
                .into_iter()
                .map(|(p, order)| RmaArg::new(p, order))
                .collect(),
            backend: None,
        }
    }

    /// Apply `f` to every direct child plan, rebuilding this node.
    pub fn map_children(self, f: &mut impl FnMut(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
        use LogicalPlan::*;
        match self {
            Select { input, predicate } => Select {
                input: Box::new(f(*input)),
                predicate,
            },
            Project { input, items } => Project {
                input: Box::new(f(*input)),
                items,
            },
            Aggregate {
                input,
                group_by,
                aggs,
            } => Aggregate {
                input: Box::new(f(*input)),
                group_by,
                aggs,
            },
            NaturalJoin { left, right } => NaturalJoin {
                left: Box::new(f(*left)),
                right: Box::new(f(*right)),
            },
            JoinOn { left, right, on } => JoinOn {
                left: Box::new(f(*left)),
                right: Box::new(f(*right)),
                on,
            },
            Cross { left, right } => Cross {
                left: Box::new(f(*left)),
                right: Box::new(f(*right)),
            },
            UnionAll { left, right } => UnionAll {
                left: Box::new(f(*left)),
                right: Box::new(f(*right)),
            },
            Distinct { input } => Distinct {
                input: Box::new(f(*input)),
            },
            OrderBy { input, keys } => OrderBy {
                input: Box::new(f(*input)),
                keys,
            },
            Limit { input, n } => Limit {
                input: Box::new(f(*input)),
                n,
            },
            TopK { input, keys, n } => TopK {
                input: Box::new(f(*input)),
                keys,
                n,
            },
            Rma { op, args, backend } => Rma {
                op,
                args: args
                    .into_iter()
                    .map(|a| RmaArg {
                        input: Box::new(f(*a.input)),
                        order: a.order,
                        sorted_input: a.sorted_input,
                    })
                    .collect(),
                backend,
            },
            AssertKey { input, attrs } => AssertKey {
                input: Box::new(f(*input)),
                attrs,
            },
            leaf @ (Values { .. } | Scan { .. }) => leaf,
        }
    }
}

/// Does the plan contain at least one operator with an out-of-core
/// implementation — a join, a sort, or a keyed aggregation? The serving
/// layer's admission control uses this: a query whose estimated working
/// set exceeds the memory budget is still admitted when it can spill,
/// because the grace join / external sort / spilling aggregate bound the
/// resident footprint regardless of the estimate. A plan of scans and
/// projections alone has no spill path, so for it the estimate stays
/// binding and admission still rejects.
pub fn spillable(plan: &LogicalPlan) -> bool {
    use LogicalPlan::*;
    match plan {
        NaturalJoin { .. } | JoinOn { .. } | OrderBy { .. } => true,
        Aggregate {
            input, group_by, ..
        } => !group_by.is_empty() || spillable(input),
        Select { input, .. }
        | Project { input, .. }
        | Distinct { input }
        | Limit { input, .. }
        | TopK { input, .. }
        | AssertKey { input, .. } => spillable(input),
        Cross { left, right } | UnionAll { left, right } => spillable(left) || spillable(right),
        Rma { args, .. } => args.iter().any(|a| spillable(&a.input)),
        Values { .. } | Scan { .. } => false,
    }
}

/// Errors from building, optimizing, or executing a logical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A `Scan` node references a table the provider does not know.
    UnknownTable(String),
    /// Semantic plan error.
    Plan(String),
    /// Relational execution error.
    Relation(RelationError),
    /// Relational matrix operation error.
    Rma(RmaError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            PlanError::Plan(m) => write!(f, "plan error: {m}"),
            PlanError::Relation(e) => write!(f, "{e}"),
            PlanError::Rma(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Relation(e) => Some(e),
            PlanError::Rma(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for PlanError {
    fn from(e: RelationError) -> Self {
        match e {
            // governance trips (and spill-I/O faults) surface as RmaError
            // variants so every caller (Frame, SQL, serve) matches them in
            // one typed place
            RelationError::Cancelled
            | RelationError::DeadlineExceeded
            | RelationError::ResourceExhausted { .. }
            | RelationError::SpillIo(_) => PlanError::Rma(RmaError::from(e)),
            other => PlanError::Relation(other),
        }
    }
}

impl From<RmaError> for PlanError {
    fn from(e: RmaError) -> Self {
        PlanError::Rma(e)
    }
}

/// Pretty-print a plan tree (EXPLAIN-style). Optimizer annotations —
/// scan projections, skipped sorts, plan-chosen backends — are rendered so
/// snapshot tests can observe rewrites. See [`explain_with_stats`] for the
/// variant that also prints per-node cardinality and cost estimates.
pub fn explain(plan: &LogicalPlan) -> String {
    let mut out = String::new();
    walk_explain(plan, 0, &mut out, None, &mut Default::default(), &mut None);
    out
}

/// Pretty-print a plan tree with per-node cost annotations: every line
/// ends in `rows≈N cost≈C`, the estimated output cardinality and
/// accumulated cost (in rows-touched units, see [`stats::estimate`]) of
/// that node. This is what SQL `EXPLAIN` prints, and how the cost-based
/// join order is made visible and snapshot-testable.
pub fn explain_with_stats(plan: &LogicalPlan, provider: &dyn TableProvider) -> String {
    let mut out = String::new();
    // one shared memo: the whole tree is estimated once, and each node's
    // annotation reads its cached subtree estimate
    let mut memo = std::collections::HashMap::new();
    walk_explain(plan, 0, &mut out, Some(provider), &mut memo, &mut None);
    out
}

/// Pretty-print a plan tree with *both* the optimizer's estimates and the
/// measured actuals of an [`execute_analyzed`] run: every line carries
/// `rows≈`/`cost≈` plus `actual=N time=T morsels=M q_err=Q`, where the
/// q-error is `max(est/actual, actual/est)` (clamped to ≥ 1-row sides) —
/// the standard one-glance measure of estimator drift. The six relational
/// operators' lines add `strategy=` ([`NodeActual::strategy`]). `Rma` lines add
/// `order=T kernel=T ran=F`: the node's own order-schema handling apart from
/// its kernel, and the kernel family that ran. `actuals` must come
/// from an analyzed execution of **this** plan (same pre-order).
pub fn explain_analyze(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    actuals: &[NodeActual],
) -> String {
    let mut out = String::new();
    let mut memo = std::collections::HashMap::new();
    let mut cursor = Some((actuals, 0usize));
    walk_explain(plan, 0, &mut out, Some(provider), &mut memo, &mut cursor);
    out
}

/// The q-error of a cardinality estimate: how far off it was,
/// direction-free, ≥ 1.0 (1.0 = exact). Zero-row sides clamp to one row so
/// empty results stay finite.
fn q_error(est: f64, actual: f64) -> f64 {
    let est = est.max(1.0);
    let actual = actual.max(1.0);
    (est / actual).max(actual / est)
}

/// Render an analyzed node's wall time: sub-millisecond spans keep
/// microsecond resolution, everything else prints as milliseconds.
fn fmt_nanos(nanos: u64) -> String {
    let ms = nanos as f64 / 1e6;
    if ms < 1.0 {
        format!("{:.1}us", nanos as f64 / 1e3)
    } else {
        format!("{ms:.2}ms")
    }
}

/// Render an estimate figure: integers below a million, engineering-style
/// short form above (`2.5e8`), so huge cross-product estimates stay
/// readable.
fn fmt_est(v: f64) -> String {
    if v < 1e6 {
        format!("{v:.0}")
    } else {
        format!("{v:.2e}")
    }
}

fn walk_explain(
    p: &LogicalPlan,
    depth: usize,
    out: &mut String,
    annotate: Option<&dyn TableProvider>,
    memo: &mut std::collections::HashMap<usize, stats::PlanEst>,
    // (actuals, next pre-order index): consumed in print order, which is
    // exactly the order `execute_analyzed` assigned ids in
    actuals: &mut Option<(&[NodeActual], usize)>,
) {
    use std::fmt::Write;
    let pad = "  ".repeat(depth);
    out.push_str(&pad);
    let mut children: Vec<&LogicalPlan> = Vec::new();
    match p {
        LogicalPlan::Values { rel, projection } => {
            let name = rel.name().unwrap_or("<inline>");
            let _ = write!(out, "Values {name} rows={}", rel.len());
            if let Some(cols) = projection {
                let _ = write!(out, " project=[{}]", cols.join(", "));
            }
        }
        LogicalPlan::Scan { table, projection } => {
            let _ = write!(out, "Scan {table}");
            if let Some(cols) = projection {
                let _ = write!(out, " project=[{}]", cols.join(", "));
            }
            // per-column physical encodings of the base table, with the
            // encoded/plain byte footprint (the live compression ratio)
            if let Some(r) = annotate.and_then(|p| p.table(table)) {
                let encoded: Vec<String> = r
                    .schema()
                    .names()
                    .zip(r.columns().iter())
                    .filter(|(_, c)| c.is_encoded())
                    .map(|(n, c)| {
                        format!(
                            "{n}:{}({}B/{}B)",
                            c.encoding().name(),
                            c.encoded_bytes(),
                            c.plain_bytes()
                        )
                    })
                    .collect();
                if !encoded.is_empty() {
                    let _ = write!(out, " enc=[{}]", encoded.join(", "));
                }
            }
        }
        LogicalPlan::Select { input, predicate } => {
            let _ = write!(out, "Select {predicate}");
            children.push(input);
        }
        LogicalPlan::Project { input, items } => {
            let names: Vec<&str> = items.iter().map(|(_, n)| n.as_str()).collect();
            let _ = write!(out, "Project [{}]", names.join(", "));
            children.push(input);
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let _ = write!(out, "Aggregate group_by={group_by:?} aggs={}", aggs.len());
            children.push(input);
        }
        LogicalPlan::NaturalJoin { left, right } => {
            let _ = write!(out, "NaturalJoin");
            children.push(left);
            children.push(right);
        }
        LogicalPlan::JoinOn { left, right, on } => {
            let _ = write!(out, "JoinOn {on:?}");
            children.push(left);
            children.push(right);
        }
        LogicalPlan::Cross { left, right } => {
            let _ = write!(out, "Cross");
            children.push(left);
            children.push(right);
        }
        LogicalPlan::UnionAll { left, right } => {
            let _ = write!(out, "UnionAll");
            children.push(left);
            children.push(right);
        }
        LogicalPlan::Distinct { input } => {
            let _ = write!(out, "Distinct");
            children.push(input);
        }
        LogicalPlan::OrderBy { input, keys } => {
            let _ = write!(out, "OrderBy {keys:?}");
            children.push(input);
        }
        LogicalPlan::Limit { input, n } => {
            let _ = write!(out, "Limit {n}");
            children.push(input);
        }
        LogicalPlan::TopK { input, keys, n } => {
            let _ = write!(out, "TopK {keys:?} n={n}");
            children.push(input);
        }
        LogicalPlan::Rma { op, args, backend } => {
            let orders: Vec<String> = args
                .iter()
                .map(|a| {
                    let mut o = format!("{:?}", a.order);
                    if a.sorted_input {
                        o.push_str(" (sorted: skip sort)");
                    }
                    o
                })
                .collect();
            let _ = write!(
                out,
                "Rma {} BY {}",
                op.name().to_uppercase(),
                orders.join("; ")
            );
            if let Some(b) = backend {
                let _ = write!(out, " backend={b:?}");
            }
            for a in args {
                children.push(&a.input);
            }
        }
        LogicalPlan::AssertKey { input, attrs } => {
            let _ = write!(out, "AssertKey {attrs:?}");
            children.push(input);
        }
    }
    if let Some(provider) = annotate {
        let est = stats::estimate_memo(p, provider, memo);
        let _ = write!(
            out,
            " rows≈{} cost≈{}",
            fmt_est(est.rows),
            fmt_est(est.cost)
        );
        if let Some((acts, cursor)) = actuals {
            let act = acts.get(*cursor).copied().unwrap_or_default();
            *cursor += 1;
            let strategy = act.strategy.map(|s| format!(" strategy={s}"));
            let _ = write!(
                out,
                " actual={} time={} morsels={}{} q_err={:.2}",
                act.rows,
                fmt_nanos(act.nanos),
                act.morsels,
                strategy.unwrap_or_default(),
                q_error(est.rows, act.rows as f64)
            );
            if act.spill_bytes > 0 || act.spill_partitions > 0 {
                let _ = write!(
                    out,
                    " spilled={}B parts={}",
                    act.spill_bytes, act.spill_partitions
                );
            }
            if act.decode_sinks > 0 {
                let _ = write!(out, " sinks={}", act.decode_sinks);
            }
            if matches!(p, LogicalPlan::Rma { .. }) {
                let _ = write!(
                    out,
                    " order={} kernel={} ran={}",
                    fmt_nanos(act.order_nanos),
                    fmt_nanos(act.kernel_nanos),
                    if act.ran == Some(crate::KernelUsed::Bat) {
                        "Bat"
                    } else {
                        "Dense"
                    }
                );
            }
        }
    }
    out.push('\n');
    for child in children {
        walk_explain(child, depth + 1, out, annotate, memo, actuals);
    }
}
