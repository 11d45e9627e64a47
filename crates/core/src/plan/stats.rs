//! Cardinality and cost estimation over [`LogicalPlan`]s.
//!
//! Every plan node gets a [`PlanEst`]: an estimated output row count, an
//! accumulated cost (in "rows touched" units), per-column value
//! statistics (distinct count, numeric min/max, null fraction) propagated
//! from the base-table statistics ([`rma_relation::Statistics`], computed
//! lazily per table and cached on the relation), and the exact output size
//! where the plan fixes it ([`PlanEst::exact`]). This is the plan's one
//! bottom-up size walk: the estimates drive the cost-based join-order
//! enumerator and the plan-time kernel choice in
//! [`super::optimize`](mod@super::optimize), admission, and the
//! `rows≈`/`cost≈` annotations of [`super::explain_with_stats`].
//!
//! The estimation rules are the classic textbook ones:
//!
//! - predicate selectivity: `1/V(R, a)` for `a = lit`, linear
//!   interpolation between `min`/`max` for range predicates, `AND`
//!   multiplies, `OR` adds with the overlap subtracted, defaults of 1/3
//!   when statistics cannot decide;
//! - equi-join cardinality: `|R|·|S| / max(V(R,a), V(S,b))` per join
//!   pair (the containment-of-value-sets assumption);
//! - distinct counts never exceed the estimated row count, so filters
//!   shrink downstream join estimates.
//!
//! Estimates are heuristics, not guarantees — the goal is getting the
//! *relative* order of candidate plans right, not exact cardinalities.
//!
//! ```
//! use rma_core::plan::{stats, Frame, NoTables};
//! use rma_relation::{Expr, RelationBuilder};
//!
//! let t = RelationBuilder::new()
//!     .column("k", (0..100i64).collect::<Vec<_>>())
//!     .build()
//!     .unwrap();
//! // `k` is uniform over 100 distinct values, so `k = 7` selects ~1 row
//! let frame = Frame::scan(t).select(Expr::col("k").eq(Expr::lit(7i64)));
//! let est = stats::estimate(frame.logical_plan(), &NoTables);
//! assert!((est.rows - 1.0).abs() < 0.1);
//! ```

use super::{LogicalPlan, RmaArg, TableProvider};
use crate::shape::ArgSize;
use rma_relation::{BinOp, Expr, Relation};
use rma_storage::ColumnStats;
use std::collections::{BTreeMap, HashMap};

/// Selectivity assumed for predicates the statistics cannot decide
/// (System R's classic 1/3).
const DEFAULT_SEL: f64 = 1.0 / 3.0;

/// Row count assumed for tables the provider cannot resolve.
const UNKNOWN_ROWS: f64 = 1000.0;

/// Estimated value statistics of one output column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColEst {
    /// Estimated number of distinct values (≥ 1 for non-empty outputs).
    pub ndv: f64,
    /// Numeric lower bound, when known (integers and floats only).
    pub min: Option<f64>,
    /// Numeric upper bound, when known.
    pub max: Option<f64>,
    /// Estimated fraction of null rows.
    pub null_frac: f64,
}

impl ColEst {
    /// The "know nothing" column estimate: every row distinct, no bounds.
    fn opaque(rows: f64) -> ColEst {
        ColEst {
            ndv: rows.max(1.0),
            min: None,
            max: None,
            null_frac: 0.0,
        }
    }

    fn from_stats(s: &ColumnStats) -> ColEst {
        ColEst {
            ndv: (s.distinct as f64).max(1.0),
            min: s.min.as_ref().and_then(|v| v.as_f64()),
            max: s.max.as_ref().and_then(|v| v.as_f64()),
            null_frac: s.null_fraction(),
        }
    }

    /// Cap the distinct count at a (reduced) row count.
    fn clamp_rows(&self, rows: f64) -> ColEst {
        ColEst {
            ndv: self.ndv.min(rows.max(1.0)),
            ..self.clone()
        }
    }
}

/// Estimated output of a plan node: row count, accumulated cost,
/// per-column statistics, and the exact output size where the plan fixes
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEst {
    /// Estimated number of output rows.
    pub rows: f64,
    /// Accumulated cost of producing the output, in rows-touched units:
    /// each node adds the work it performs (scan width-independent row
    /// reads, hash build/probe passes, `n log n` sorts) to its children's
    /// cost.
    pub cost: f64,
    /// Per-column estimates for output columns with known statistics.
    pub cols: BTreeMap<String, ColEst>,
    /// The output's `(rows, columns)` when the plan fixes them: present at
    /// `Values` and `Scan`, carried through the operators that keep or cap
    /// the row count (`Project`, `OrderBy`, `AssertKey`, `Limit`/`TopK`,
    /// `Cross`, `UnionAll`) and through RMA nodes whose arguments are
    /// exact (Table 1); absent under `Select`, `Distinct`, `Aggregate` and
    /// the joins. The plan-time kernel choice reads it, so that choice is
    /// the one execution makes.
    pub exact: Option<(usize, usize)>,
}

impl PlanEst {
    fn opaque(rows: f64, cost: f64) -> PlanEst {
        PlanEst {
            rows,
            cost,
            cols: BTreeMap::new(),
            exact: None,
        }
    }

    fn col(&self, name: &str) -> Option<&ColEst> {
        self.cols.get(name)
    }
}

/// Estimate a plan bottom-up. Never fails: unknown tables, opaque RMA
/// schemas, and unsupported predicates fall back to documented defaults.
pub fn estimate(plan: &LogicalPlan, provider: &dyn TableProvider) -> PlanEst {
    // a one-off walk keeps no memo entry for its root
    compute_estimate(plan, provider, &mut HashMap::new())
}

/// [`estimate`] with a node-identity memo, so callers that estimate many
/// overlapping subtrees of one plan (EXPLAIN annotates every node) walk
/// the tree once instead of once per ancestor. Keys are node addresses,
/// valid for the lifetime of the borrowed plan.
pub(crate) fn estimate_memo(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    memo: &mut HashMap<usize, PlanEst>,
) -> PlanEst {
    let key = plan as *const LogicalPlan as usize;
    if let Some(e) = memo.get(&key) {
        return e.clone();
    }
    let est = compute_estimate(plan, provider, memo);
    memo.insert(key, est.clone());
    est
}

fn compute_estimate(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    memo: &mut HashMap<usize, PlanEst>,
) -> PlanEst {
    match plan {
        LogicalPlan::Values { rel, projection } => leaf_est(rel, projection.as_deref()),
        LogicalPlan::Scan { table, projection } => match provider.table(table) {
            Some(rel) => leaf_est(rel, projection.as_deref()),
            None => PlanEst::opaque(UNKNOWN_ROWS, UNKNOWN_ROWS),
        },
        LogicalPlan::Select { input, predicate } => {
            let input = estimate_memo(input, provider, memo);
            let sel = selectivity(predicate, &input).clamp(0.0, 1.0);
            let rows = (input.rows * sel).max(input.rows.min(1.0));
            PlanEst {
                rows,
                cost: input.cost + input.rows,
                cols: input
                    .cols
                    .iter()
                    .map(|(n, c)| (n.clone(), c.clamp_rows(rows)))
                    .collect(),
                exact: None,
            }
        }
        LogicalPlan::Project { input, items } => {
            let input = estimate_memo(input, provider, memo);
            let cols = items
                .iter()
                .map(|(e, name)| {
                    let est = match e {
                        Expr::Col(c) => input
                            .col(c)
                            .cloned()
                            .unwrap_or_else(|| ColEst::opaque(input.rows)),
                        _ => ColEst::opaque(input.rows),
                    };
                    (name.clone(), est)
                })
                .collect();
            PlanEst {
                rows: input.rows,
                cost: input.cost + input.rows,
                cols,
                exact: input.exact.map(|(rows, _)| (rows, items.len())),
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let input = estimate_memo(input, provider, memo);
            let rows = if group_by.is_empty() {
                1.0
            } else {
                group_by
                    .iter()
                    .map(|g| input.col(g).map_or(input.rows.max(1.0), |c| c.ndv))
                    .product::<f64>()
                    .clamp(1.0, input.rows.max(1.0))
            };
            let mut cols: BTreeMap<String, ColEst> = group_by
                .iter()
                .filter_map(|g| input.col(g).map(|c| (g.clone(), c.clamp_rows(rows))))
                .collect();
            for a in aggs {
                cols.insert(a.output.clone(), ColEst::opaque(rows));
            }
            PlanEst {
                rows,
                cost: input.cost + input.rows,
                cols,
                exact: None,
            }
        }
        LogicalPlan::NaturalJoin { left, right } => {
            let l = estimate_memo(left, provider, memo);
            let r = estimate_memo(right, provider, memo);
            // shared column names are the equi-join attributes
            let pairs: Vec<(String, String)> = l
                .cols
                .keys()
                .filter(|n| r.cols.contains_key(*n))
                .map(|n| (n.clone(), n.clone()))
                .collect();
            join_estimate(&l, &r, &pairs)
        }
        LogicalPlan::JoinOn { left, right, on } => {
            let l = estimate_memo(left, provider, memo);
            let r = estimate_memo(right, provider, memo);
            join_estimate(&l, &r, on)
        }
        LogicalPlan::Cross { left, right } => {
            let l = estimate_memo(left, provider, memo);
            let r = estimate_memo(right, provider, memo);
            cross_estimate(&l, &r)
        }
        LogicalPlan::UnionAll { left, right } => {
            let l = estimate_memo(left, provider, memo);
            let r = estimate_memo(right, provider, memo);
            let rows = l.rows + r.rows;
            let cols = l
                .cols
                .iter()
                .map(|(n, c)| {
                    let ndv = c.ndv + r.col(n).map_or(0.0, |rc| rc.ndv);
                    (
                        n.clone(),
                        ColEst {
                            ndv: ndv.min(rows.max(1.0)),
                            ..c.clone()
                        },
                    )
                })
                .collect();
            PlanEst {
                rows,
                cost: l.cost + r.cost + rows,
                cols,
                exact: l
                    .exact
                    .zip(r.exact)
                    .map(|((lr, cols), (rr, _))| (lr + rr, cols)),
            }
        }
        LogicalPlan::Distinct { input } => {
            let input = estimate_memo(input, provider, memo);
            let rows = if input.cols.is_empty() {
                input.rows
            } else {
                input
                    .cols
                    .values()
                    .map(|c| c.ndv)
                    .product::<f64>()
                    .clamp(1.0_f64.min(input.rows), input.rows)
            };
            PlanEst {
                rows,
                cost: input.cost + input.rows,
                cols: input
                    .cols
                    .iter()
                    .map(|(n, c)| (n.clone(), c.clamp_rows(rows)))
                    .collect(),
                exact: None,
            }
        }
        LogicalPlan::OrderBy { input, .. } => {
            let input = estimate_memo(input, provider, memo);
            let sort = input.rows * input.rows.max(2.0).log2();
            PlanEst {
                cost: input.cost + sort,
                ..input
            }
        }
        LogicalPlan::Limit { input, n } => {
            let input = estimate_memo(input, provider, memo);
            let rows = input.rows.min(*n as f64);
            PlanEst {
                rows,
                cost: input.cost,
                cols: input
                    .cols
                    .iter()
                    .map(|(na, c)| (na.clone(), c.clamp_rows(rows)))
                    .collect(),
                exact: input.exact.map(|(rows, cols)| (rows.min(*n), cols)),
            }
        }
        LogicalPlan::TopK { input, n, .. } => {
            let input = estimate_memo(input, provider, memo);
            let rows = input.rows.min(*n as f64);
            let heap = input.rows * (*n as f64 + 2.0).log2();
            PlanEst {
                rows,
                cost: input.cost + heap,
                cols: input
                    .cols
                    .iter()
                    .map(|(na, c)| (na.clone(), c.clamp_rows(rows)))
                    .collect(),
                exact: input.exact.map(|(rows, cols)| (rows.min(*n), cols)),
            }
        }
        LogicalPlan::AssertKey { input, .. } => {
            let input = estimate_memo(input, provider, memo);
            PlanEst {
                cost: input.cost + input.rows,
                ..input
            }
        }
        LogicalPlan::Rma { op, args, .. } => {
            let children: Vec<PlanEst> = args
                .iter()
                .map(|a| estimate_memo(&a.input, provider, memo))
                .collect();
            // each argument's size: exact where the plan fixes it, else the
            // row estimate and the known column set — or, for an opaque
            // schema, a modest matrix width of 8
            let estimated = |(c, a): (&PlanEst, &RmaArg)| {
                let order = a.order.len() as f64;
                let width = match c.exact {
                    Some((_, cols)) => cols as f64,
                    None if !c.cols.is_empty() => c.cols.len() as f64,
                    None => order + 8.0,
                };
                ArgSize {
                    rows: c.rows,
                    app_cols: (width - order).max(1.0),
                    order_cols: order,
                }
            };
            let sizes: Vec<ArgSize<f64>> = children.iter().zip(args).map(estimated).collect();
            let rows = op.result_size(&sizes).map_or(1.0, |(rows, _)| rows);
            let exact = children
                .iter()
                .zip(args)
                .map(|(c, a)| {
                    let (rows, cols) = c.exact?;
                    let order_cols = a.order.len();
                    (cols > order_cols).then(|| ArgSize {
                        rows,
                        app_cols: cols - order_cols,
                        order_cols,
                    })
                })
                .collect::<Option<Vec<_>>>()
                .and_then(|sizes| op.result_size(&sizes));
            let child_rows: f64 = children.iter().map(|c| c.rows).sum();
            let child_cost: f64 = children.iter().map(|c| c.cost).sum();
            // order-schema handling sorts each argument once
            let sorts: f64 = children
                .iter()
                .map(|c| c.rows * c.rows.max(2.0).log2())
                .sum();
            PlanEst {
                exact,
                ..PlanEst::opaque(rows, child_cost + child_rows + sorts)
            }
        }
    }
}

/// Leaf estimate from a table's statistics, restricted to a scan
/// projection. The leaf's size is exact.
fn leaf_est(rel: &Relation, projection: Option<&[String]>) -> PlanEst {
    let stats = rel.statistics();
    let rows = stats.row_count as f64;
    let cols = stats
        .iter()
        .filter(|(n, _)| projection.is_none_or(|p| p.iter().any(|c| c == n)))
        .map(|(n, s)| (n.to_string(), ColEst::from_stats(s)))
        .collect();
    let width = projection.map_or(rel.schema().len(), <[String]>::len);
    PlanEst {
        rows,
        cost: rows,
        cols,
        exact: Some((rel.len(), width)),
    }
}

/// Equi-join estimate: `|L|·|R| / Π max(V(L,a), V(R,b))` over the join
/// pairs (containment of value sets), with hash build + probe + output
/// cost. An empty pair list is a cross product.
pub(crate) fn join_estimate(l: &PlanEst, r: &PlanEst, on: &[(String, String)]) -> PlanEst {
    if on.is_empty() {
        // a join's row count is never exact, even without join pairs
        return PlanEst {
            exact: None,
            ..cross_estimate(l, r)
        };
    }
    let mut rows = l.rows * r.rows;
    for (lc, rc) in on {
        let lndv = l.col(lc).map_or(l.rows.max(1.0), |c| c.ndv);
        let rndv = r.col(rc).map_or(r.rows.max(1.0), |c| c.ndv);
        rows /= lndv.max(rndv).max(1.0);
    }
    let rows = rows.max(l.rows.min(1.0).min(r.rows.min(1.0)));
    let mut cols: BTreeMap<String, ColEst> = BTreeMap::new();
    for (n, c) in l.cols.iter().chain(r.cols.iter()) {
        cols.entry(n.clone()).or_insert_with(|| c.clamp_rows(rows));
    }
    // a join key's value set is contained in the smaller side's
    for (lc, rc) in on {
        if let (Some(a), Some(b)) = (l.col(lc), r.col(rc)) {
            let ndv = a.ndv.min(b.ndv).min(rows.max(1.0));
            for name in [lc, rc] {
                if let Some(c) = cols.get_mut(name) {
                    c.ndv = ndv;
                }
            }
        }
    }
    PlanEst {
        rows,
        cost: l.cost + r.cost + l.rows + r.rows + rows,
        cols,
        exact: None,
    }
}

/// Cross-product estimate: row product, column union; exact when both
/// sides are and the product fits a `usize`.
pub(crate) fn cross_estimate(l: &PlanEst, r: &PlanEst) -> PlanEst {
    let rows = l.rows * r.rows;
    let mut cols: BTreeMap<String, ColEst> = BTreeMap::new();
    for (n, c) in l.cols.iter().chain(r.cols.iter()) {
        cols.entry(n.clone()).or_insert_with(|| c.clamp_rows(rows));
    }
    let exact = l
        .exact
        .zip(r.exact)
        .and_then(|((lr, lc), (rr, rc))| Some((lr.checked_mul(rr)?, lc + rc)));
    PlanEst {
        rows,
        cost: l.cost + r.cost + rows,
        cols,
        exact,
    }
}

/// Estimated fraction of rows a predicate keeps, from the input's column
/// statistics. Clamped to `[0, 1]` by the caller.
fn selectivity(e: &Expr, input: &PlanEst) -> f64 {
    match e {
        Expr::Bin(l, BinOp::And, r) => selectivity(l, input) * selectivity(r, input),
        Expr::Bin(l, BinOp::Or, r) => {
            let a = selectivity(l, input).clamp(0.0, 1.0);
            let b = selectivity(r, input).clamp(0.0, 1.0);
            a + b - a * b
        }
        Expr::Not(inner) => 1.0 - selectivity(inner, input).clamp(0.0, 1.0),
        Expr::IsNull(inner) => match inner.as_ref() {
            Expr::Col(c) => input.col(c).map_or(DEFAULT_SEL, |s| s.null_frac),
            _ => DEFAULT_SEL,
        },
        Expr::Bin(l, op, r) if is_comparison(*op) => comparison_selectivity(l, *op, r, input),
        // boolean column reference used directly as a predicate
        Expr::Col(c) => input
            .col(c)
            .map_or(DEFAULT_SEL, |s| (1.0 - s.null_frac) / s.ndv.clamp(1.0, 2.0)),
        Expr::Lit(v) => match v.as_f64() {
            Some(0.0) => 0.0,
            _ => 1.0,
        },
        _ => DEFAULT_SEL,
    }
}

fn is_comparison(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
    )
}

/// Selectivity of `lhs op rhs` where at least one side is a plain column.
fn comparison_selectivity(lhs: &Expr, op: BinOp, rhs: &Expr, input: &PlanEst) -> f64 {
    match (lhs, rhs) {
        (Expr::Col(c), Expr::Lit(v)) => col_lit_selectivity(input.col(c), op, v.as_f64()),
        (Expr::Lit(v), Expr::Col(c)) => col_lit_selectivity(input.col(c), mirror(op), v.as_f64()),
        (Expr::Col(a), Expr::Col(b)) => {
            let andv = input.col(a).map_or(input.rows.max(1.0), |s| s.ndv);
            let bndv = input.col(b).map_or(input.rows.max(1.0), |s| s.ndv);
            match op {
                BinOp::Eq => 1.0 / andv.max(bndv).max(1.0),
                BinOp::NotEq => 1.0 - 1.0 / andv.max(bndv).max(1.0),
                _ => DEFAULT_SEL,
            }
        }
        _ => DEFAULT_SEL,
    }
}

/// Flip a comparison so the column is on the left: `lit < col` ⇔ `col > lit`.
fn mirror(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other,
    }
}

fn col_lit_selectivity(col: Option<&ColEst>, op: BinOp, lit: Option<f64>) -> f64 {
    let Some(col) = col else { return DEFAULT_SEL };
    match op {
        BinOp::Eq => match (lit, col.min, col.max) {
            // literal provably outside the value range
            (Some(x), Some(mn), Some(mx)) if x < mn || x > mx => 0.0,
            _ => 1.0 / col.ndv.max(1.0),
        },
        BinOp::NotEq => 1.0 - 1.0 / col.ndv.max(1.0),
        BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            let (Some(x), Some(mn), Some(mx)) = (lit, col.min, col.max) else {
                return DEFAULT_SEL;
            };
            // fraction of the value range below the literal, assuming a
            // uniform distribution
            let below = if mx > mn {
                ((x - mn) / (mx - mn)).clamp(0.0, 1.0)
            } else if x < mn {
                0.0
            } else if x > mx {
                1.0
            } else {
                0.5
            };
            match op {
                BinOp::Lt | BinOp::LtEq => below,
                _ => 1.0 - below,
            }
        }
        _ => DEFAULT_SEL,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::NoTables;
    use rma_relation::RelationBuilder;
    use std::sync::Arc;

    fn scan(rows: usize, groups: i64) -> LogicalPlan {
        let rel = RelationBuilder::new()
            .column("k", (0..rows as i64).collect::<Vec<_>>())
            .column(
                "g",
                (0..rows as i64).map(|i| i % groups).collect::<Vec<_>>(),
            )
            .build()
            .unwrap();
        LogicalPlan::Values {
            rel: Arc::new(rel),
            projection: None,
        }
    }

    #[test]
    fn leaf_rows_and_cols() {
        let est = estimate(&scan(500, 10), &NoTables);
        assert_eq!(est.rows, 500.0);
        assert_eq!(est.col("k").unwrap().ndv, 500.0);
        assert_eq!(est.col("g").unwrap().ndv, 10.0);
        assert_eq!(est.col("g").unwrap().min, Some(0.0));
        assert_eq!(est.col("g").unwrap().max, Some(9.0));
    }

    #[test]
    fn equality_selectivity_uses_ndv() {
        let plan = LogicalPlan::Select {
            input: Box::new(scan(1000, 10)),
            predicate: Expr::col("g").eq(Expr::lit(3i64)),
        };
        let est = estimate(&plan, &NoTables);
        assert!((est.rows - 100.0).abs() < 1.0, "rows {}", est.rows);
    }

    #[test]
    fn range_selectivity_interpolates_min_max() {
        let plan = LogicalPlan::Select {
            input: Box::new(scan(1000, 1000)),
            predicate: Expr::col("k").lt(Expr::lit(100i64)),
        };
        let est = estimate(&plan, &NoTables);
        assert!((est.rows - 100.0).abs() < 5.0, "rows {}", est.rows);
    }

    #[test]
    fn out_of_range_equality_estimates_empty() {
        let plan = LogicalPlan::Select {
            input: Box::new(scan(1000, 10)),
            predicate: Expr::col("g").eq(Expr::lit(99i64)),
        };
        let est = estimate(&plan, &NoTables);
        assert!(est.rows <= 1.0, "rows {}", est.rows);
    }

    #[test]
    fn join_estimate_divides_by_larger_ndv() {
        let l = estimate(&scan(1000, 10), &NoTables);
        let r = estimate(&scan(100, 100), &NoTables);
        // join l.g (10 dv) with r.k (100 dv): 1000·100/max(10,100) = 1000
        let e = join_estimate(&l, &r, &[("g".to_string(), "k".to_string())]);
        assert!((e.rows - 1000.0).abs() < 10.0, "rows {}", e.rows);
        // filters shrink downstream joins through the clamped ndv
        assert!(e.cost > l.cost + r.cost);
    }

    #[test]
    fn aggregate_rows_from_group_ndv() {
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan(1000, 7)),
            group_by: vec!["g".to_string()],
            aggs: vec![],
        };
        let est = estimate(&plan, &NoTables);
        assert!((est.rows - 7.0).abs() < 0.5, "rows {}", est.rows);
    }

    #[test]
    fn unknown_table_defaults() {
        let plan = LogicalPlan::Scan {
            table: "nope".to_string(),
            projection: None,
        };
        let est = estimate(&plan, &NoTables);
        assert_eq!(est.rows, UNKNOWN_ROWS);
        assert!(est.cols.is_empty());
    }
}
