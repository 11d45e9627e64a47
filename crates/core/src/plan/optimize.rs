//! The shared plan optimizer: every frontend (the lazy [`super::Frame`]
//! builder and the SQL layer) runs these passes over the same
//! [`LogicalPlan`], so cross-operator rewrites apply uniformly.
//!
//! Passes, in order:
//! 1. **Double-transpose elimination** — the paper's cross-algebra rewrite:
//!    `TRA(TRA(r BY u) BY C)` becomes a sort plus a rename.
//! 2. **Selection pushdown** — σ moves below projections, into join inputs,
//!    and below `mmu`/`opd` when the predicate only references the first
//!    argument's order schema (those operations compute each result row
//!    from one input row of the first argument, so filtering commutes).
//! 3. **Selection merging** — directly nested filters collapse to one.
//! 4. **Cost-based join ordering** — trees of inner equi-joins and cross
//!    products are flattened into a join graph and re-enumerated: exact
//!    dynamic programming over connected subsets for up to
//!    [`DP_LIMIT`] relations, a greedy smallest-result-first heuristic
//!    above. Cardinalities come from table statistics via
//!    [`super::stats`]; equi-join connectivity is respected so no cross
//!    product is introduced that the query did not ask for. The original
//!    output column order is restored with an identity projection, so the
//!    rewrite is invisible to everything downstream.
//! 5. **Projection pushdown** — column requirements propagate through
//!    equi-joins, cross products and projections to scans, which prune
//!    unused columns at the source; a projection drops the items nobody
//!    above reads.
//! 6. **Limit-into-Sort fusion** — `Limit n` directly over `OrderBy`
//!    becomes a [`LogicalPlan::TopK`] node, executed with a bounded heap in
//!    O(|r| log n) instead of a full O(|r| log |r|) sort.
//! 7. **Redundant-sort elimination** — consecutive RMA operations over the
//!    same order schema sort once: when a node's input is provably sorted
//!    by the node's order schema, the argument is flagged `sorted_input`
//!    and execution skips the sort.
//! 8. **Plan-level backend prediction** — when the estimate fixes an RMA
//!    node's argument sizes ([`stats::PlanEst::exact`]), the kernel
//!    decision execution will make ([`RmaContext::choose_kernel`], the
//!    same function on the same sizes under the guard execution mints or
//!    finds) is recorded on the node for EXPLAIN's `backend=`. Execution
//!    does not read it: the kernel is chosen once, at run time. Join
//!    ordering runs first, so the prediction sees the reordered (cheaper)
//!    argument shapes.
//!
//! ```
//! use rma_core::plan::Frame;
//! use rma_core::RmaContext;
//! use rma_relation::{Expr, RelationBuilder};
//!
//! // a 1000-row fact table and a tiny, heavily filtered dimension
//! let fact = RelationBuilder::new()
//!     .name("fact")
//!     .column("fk", (0..1000i64).map(|i| i % 50).collect::<Vec<_>>())
//!     .column("gk", (0..1000i64).map(|i| i % 20).collect::<Vec<_>>())
//!     .build()
//!     .unwrap();
//! let big = RelationBuilder::new()
//!     .name("big")
//!     .column("gk2", (0..20i64).collect::<Vec<_>>())
//!     .build()
//!     .unwrap();
//! let dim = RelationBuilder::new()
//!     .name("dim")
//!     .column("k", (0..50i64).collect::<Vec<_>>())
//!     .column("p", (0..50i64).collect::<Vec<_>>())
//!     .build()
//!     .unwrap();
//! // written order: fact ⋈ big first; the selective dim filter makes
//! // fact ⋈ dim far smaller, so the optimizer joins dim first
//! let frame = Frame::scan(fact)
//!     .join(Frame::scan(big), &[("gk", "gk2")])
//!     .join(
//!         Frame::scan(dim).select(Expr::col("p").eq(Expr::lit(3i64))),
//!         &[("fk", "k")],
//!     );
//! let plan = frame.explain(&RmaContext::default());
//! assert!(plan.find("Values dim").unwrap() < plan.find("Values big").unwrap());
//! ```

use super::{stats, LogicalPlan, RmaArg, TableProvider};
use crate::context::{RmaContext, SortPolicy};
use crate::shape::{Dim, RmaOp};
use crate::split::{sort_modes, SortMode};
use rma_relation::{BinOp, Expr, Schema};
use std::collections::BTreeSet;

/// Optimize a plan under the given execution context (whose sort policy and
/// backend options steer the sort- and kernel-level passes) and provider
/// (whose schemas and statistics inform column- and cost-dependent
/// rewrites).
pub fn optimize(plan: LogicalPlan, ctx: &RmaContext, provider: &dyn TableProvider) -> LogicalPlan {
    let plan = eliminate_double_transpose(plan, provider);
    let plan = push_selections(plan, provider);
    let plan = merge_selections(plan);
    let plan = reorder_joins(plan, provider);
    let plan = prune_projections(plan, None, provider);
    let plan = fuse_top_k(plan);
    let plan = if ctx.options.sort_policy == SortPolicy::Optimized {
        mark_sorted_inputs(plan).0
    } else {
        // the Always policy is the paper's unoptimised baseline: keep every
        // materialised sort so ablations measure what they claim to
        plan
    };
    ctx.governed(|| choose_backends(plan, ctx, provider))
}

// ---------------------------------------------------------------------
// Schema inference helpers
// ---------------------------------------------------------------------

/// Output column names of a plan, if statically known.
pub fn output_columns(plan: &LogicalPlan, provider: &dyn TableProvider) -> Option<Vec<String>> {
    match plan {
        LogicalPlan::Values { rel, projection } => Some(match projection {
            Some(p) => p.clone(),
            None => rel.schema().names().map(str::to_string).collect(),
        }),
        LogicalPlan::Scan { table, projection } => match projection {
            Some(p) => Some(p.clone()),
            None => provider
                .table(table)
                .map(|r| r.schema().names().map(str::to_string).collect()),
        },
        LogicalPlan::Select { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::OrderBy { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::TopK { input, .. }
        | LogicalPlan::AssertKey { input, .. } => output_columns(input, provider),
        LogicalPlan::Project { items, .. } => Some(items.iter().map(|(_, n)| n.clone()).collect()),
        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            let mut out = group_by.clone();
            out.extend(aggs.iter().map(|a| a.output.clone()));
            Some(out)
        }
        LogicalPlan::NaturalJoin { left, right } => {
            let l = output_columns(left, provider)?;
            let r = output_columns(right, provider)?;
            let mut out = l.clone();
            out.extend(r.into_iter().filter(|n| !l.contains(n)));
            Some(out)
        }
        LogicalPlan::JoinOn { left, right, .. } | LogicalPlan::Cross { left, right } => {
            let mut out = output_columns(left, provider)?;
            out.extend(output_columns(right, provider)?);
            Some(out)
        }
        LogicalPlan::UnionAll { left, .. } => output_columns(left, provider),
        // RMA output schemas depend on data values (column casts); treat as
        // opaque
        LogicalPlan::Rma { .. } => None,
    }
}

/// Follow pass-through nodes (filter/sort/limit/distinct/assert) down to a
/// scan and return its schema; `None` when the subtree recomputes columns
/// (projection, aggregation, joins, RMA) or the scan prunes columns.
fn pass_through_scan_schema<'a>(
    plan: &'a LogicalPlan,
    provider: &'a dyn TableProvider,
) -> Option<&'a Schema> {
    match plan {
        LogicalPlan::Values {
            rel,
            projection: None,
        } => Some(rel.schema()),
        LogicalPlan::Scan {
            table,
            projection: None,
        } => provider.table(table).map(|r| r.schema()),
        LogicalPlan::Select { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::OrderBy { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::TopK { input, .. }
        | LogicalPlan::AssertKey { input, .. } => pass_through_scan_schema(input, provider),
        _ => None,
    }
}

fn refs_subset(e: &Expr, cols: &[String]) -> bool {
    let mut refs = Vec::new();
    e.referenced_columns(&mut refs);
    refs.iter().all(|r| cols.contains(r))
}

/// Split a predicate into AND-conjuncts.
fn conjuncts(e: Expr) -> Vec<Expr> {
    match e {
        Expr::Bin(l, BinOp::And, r) => {
            let mut out = conjuncts(*l);
            out.extend(conjuncts(*r));
            out
        }
        other => vec![other],
    }
}

/// Recombine conjuncts with AND.
fn combine(mut es: Vec<Expr>) -> Option<Expr> {
    let first = es.pop()?;
    Some(es.into_iter().fold(first, |acc, e| acc.and(e)))
}

// ---------------------------------------------------------------------
// Pass 1: cross-algebra double-transpose elimination
// ---------------------------------------------------------------------

/// `TRA(TRA(r BY u) BY C)` is the input sorted by `u` with `u` renamed to
/// `C` (the paper's Figure 10), so two matrix transposes — each a full
/// element shuffle — are replaced by a sort and a rename. The inner
/// operation's order-schema validation is preserved with an
/// [`LogicalPlan::AssertKey`] node, and the application schema must be
/// statically known and numeric (otherwise the plan is left untouched, so
/// the original error still surfaces).
fn eliminate_double_transpose(plan: LogicalPlan, provider: &dyn TableProvider) -> LogicalPlan {
    // rewrite bottom-up
    let plan = plan.map_children(&mut |p| eliminate_double_transpose(p, provider));
    let LogicalPlan::Rma {
        op: RmaOp::Tra,
        args,
        backend,
    } = plan
    else {
        return plan;
    };
    let rebuild = |args: Vec<RmaArg>| LogicalPlan::Rma {
        op: RmaOp::Tra,
        args,
        backend,
    };
    if args
        .first()
        .is_none_or(|a| a.order.as_slice() != ["C".to_string()])
    {
        return rebuild(args);
    }
    let LogicalPlan::Rma {
        op: RmaOp::Tra,
        args: inner_args,
        ..
    } = args[0].input.as_ref()
    else {
        return rebuild(args);
    };
    let Some(inner_first) = inner_args.first() else {
        return rebuild(args);
    };
    let (inner_input, inner_order) = (&inner_first.input, &inner_first.order);
    if inner_order.len() != 1 {
        return rebuild(args);
    }
    let Some(cols) = output_columns(inner_input, provider) else {
        return rebuild(args);
    };
    let u = inner_order[0].clone();
    if !cols.contains(&u) {
        return rebuild(args);
    }
    // the original would reject non-numeric application attributes; only
    // rewrite when the base schema proves they are numeric
    match pass_through_scan_schema(inner_input, provider) {
        Some(schema)
            if schema
                .attributes()
                .iter()
                .filter(|a| a.name() != u)
                .all(|a| a.dtype().is_numeric()) => {}
        _ => return rebuild(args),
    }
    // Project: u renamed to C; application columns in sorted name order —
    // the outer transpose names its columns via the column cast ▽ of the
    // inner C column, which is sorted
    let mut items: Vec<(Expr, String)> = vec![(Expr::Col(u.clone()), "C".to_string())];
    let mut app: Vec<&String> = cols.iter().filter(|c| **c != u).collect();
    app.sort();
    for c in app {
        items.push((Expr::Col(c.clone()), c.clone()));
    }
    LogicalPlan::Project {
        items,
        input: Box::new(LogicalPlan::OrderBy {
            keys: vec![(u.clone(), true)],
            input: Box::new(LogicalPlan::AssertKey {
                attrs: vec![u],
                input: inner_input.clone(),
            }),
        }),
    }
}

// ---------------------------------------------------------------------
// Pass 2: selection pushdown
// ---------------------------------------------------------------------

fn push_selections(plan: LogicalPlan, provider: &dyn TableProvider) -> LogicalPlan {
    match plan {
        LogicalPlan::Select { input, predicate } => {
            let input = push_selections(*input, provider);
            push_one_selection(predicate, input, provider)
        }
        other => other.map_children(&mut |p| push_selections(p, provider)),
    }
}

/// Push one selection's conjuncts as deep as legal.
fn push_one_selection(
    predicate: Expr,
    input: LogicalPlan,
    provider: &dyn TableProvider,
) -> LogicalPlan {
    match input {
        // σ over × / ⋈: conjuncts referencing one side only move there
        LogicalPlan::Cross { left, right } => {
            push_into_join(predicate, *left, *right, provider, |l, r| {
                LogicalPlan::Cross {
                    left: Box::new(l),
                    right: Box::new(r),
                }
            })
        }
        LogicalPlan::JoinOn { left, right, on } => {
            push_into_join(predicate, *left, *right, provider, move |l, r| {
                LogicalPlan::JoinOn {
                    left: Box::new(l),
                    right: Box::new(r),
                    on: on.clone(),
                }
            })
        }
        LogicalPlan::NaturalJoin { left, right } => {
            push_into_join(predicate, *left, *right, provider, |l, r| {
                LogicalPlan::NaturalJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                }
            })
        }
        // σ over π: push through when the projection passes the referenced
        // columns unchanged (identity items)
        LogicalPlan::Project {
            input: inner,
            items,
        } => {
            let identity: Vec<String> = items
                .iter()
                .filter_map(|(e, n)| match e {
                    Expr::Col(c) if c == n => Some(n.clone()),
                    _ => None,
                })
                .collect();
            if refs_subset(&predicate, &identity) {
                let pushed = push_one_selection(predicate, *inner, provider);
                LogicalPlan::Project {
                    input: Box::new(pushed),
                    items,
                }
            } else {
                LogicalPlan::Select {
                    input: Box::new(LogicalPlan::Project {
                        input: inner,
                        items,
                    }),
                    predicate,
                }
            }
        }
        // σ over mmu/opd: each result row is computed from one row of the
        // first argument (row i is µU(r)[i] combined with all of s), so a
        // predicate over the first order schema commutes with the
        // operation. The order schema of the *unfiltered* argument must
        // still be validated as a key, which the inserted AssertKey
        // preserves.
        LogicalPlan::Rma {
            op,
            mut args,
            backend,
        } if matches!(op, RmaOp::Mmu | RmaOp::Opd) && !args.is_empty() => {
            let order = args[0].order.clone();
            let mut pushable = Vec::new();
            let mut keep = Vec::new();
            for c in conjuncts(predicate) {
                if refs_subset(&c, &order) {
                    pushable.push(c);
                } else {
                    keep.push(c);
                }
            }
            if let Some(p) = combine(pushable) {
                let inner = std::mem::replace(
                    &mut *args[0].input,
                    LogicalPlan::Scan {
                        table: String::new(),
                        projection: None,
                    },
                );
                let inner = LogicalPlan::AssertKey {
                    attrs: order,
                    input: Box::new(inner),
                };
                *args[0].input = push_one_selection(p, inner, provider);
            }
            let node = LogicalPlan::Rma { op, args, backend };
            match combine(keep) {
                Some(p) => LogicalPlan::Select {
                    input: Box::new(node),
                    predicate: p,
                },
                None => node,
            }
        }
        other => LogicalPlan::Select {
            input: Box::new(other),
            predicate,
        },
    }
}

fn push_into_join(
    predicate: Expr,
    left: LogicalPlan,
    right: LogicalPlan,
    provider: &dyn TableProvider,
    rebuild: impl FnOnce(LogicalPlan, LogicalPlan) -> LogicalPlan,
) -> LogicalPlan {
    let lcols = output_columns(&left, provider);
    let rcols = output_columns(&right, provider);
    let mut to_left = Vec::new();
    let mut to_right = Vec::new();
    let mut keep = Vec::new();
    for c in conjuncts(predicate) {
        if let Some(lc) = &lcols {
            if refs_subset(&c, lc) {
                to_left.push(c);
                continue;
            }
        }
        if let Some(rc) = &rcols {
            if refs_subset(&c, rc) {
                to_right.push(c);
                continue;
            }
        }
        keep.push(c);
    }
    let left = wrap_selection(left, to_left, provider);
    let right = wrap_selection(right, to_right, provider);
    let joined = rebuild(left, right);
    match combine(keep) {
        Some(p) => LogicalPlan::Select {
            input: Box::new(joined),
            predicate: p,
        },
        None => joined,
    }
}

fn wrap_selection(
    plan: LogicalPlan,
    preds: Vec<Expr>,
    provider: &dyn TableProvider,
) -> LogicalPlan {
    match combine(preds) {
        // keep pushing further down the side
        Some(p) => push_one_selection(p, plan, provider),
        None => plan,
    }
}

// ---------------------------------------------------------------------
// Pass 3: merge directly nested selections
// ---------------------------------------------------------------------

fn merge_selections(plan: LogicalPlan) -> LogicalPlan {
    let plan = plan.map_children(&mut merge_selections);
    if let LogicalPlan::Select { input, predicate } = plan {
        if let LogicalPlan::Select {
            input: inner,
            predicate: p2,
        } = *input
        {
            LogicalPlan::Select {
                input: inner,
                predicate: predicate.and(p2),
            }
        } else {
            LogicalPlan::Select { input, predicate }
        }
    } else {
        plan
    }
}

// ---------------------------------------------------------------------
// Pass 4: cost-based join ordering
// ---------------------------------------------------------------------

/// Largest join-graph size ordered by exact dynamic programming; bigger
/// graphs use the greedy smallest-result-first heuristic.
pub const DP_LIMIT: usize = 8;

/// Largest join-graph size the enumerator touches at all; beyond this the
/// written order is kept.
const ENUM_LIMIT: usize = 64;

/// A flattened tree of inner equi-joins: the joined inputs (anything that
/// is not itself a `JoinOn`/`Cross`), their output columns, and the
/// equi-join edges between them.
struct JoinGraph {
    leaves: Vec<LogicalPlan>,
    cols: Vec<Vec<String>>,
    /// `(leaf a, column of a, leaf b, column of b)` — one per equi pair.
    edges: Vec<(usize, String, usize, String)>,
}

/// Reorder every maximal `JoinOn`/`Cross` tree in the plan by estimated
/// cost. Runs after selection pushdown, so single-table filters are part
/// of the leaves and their selectivity steers the order. A join node is
/// flattened together with its whole join subtree — recursion descends
/// into the tree's *leaves*, never into its internal join nodes, so the
/// enumerator always sees the maximal graph.
fn reorder_joins(plan: LogicalPlan, provider: &dyn TableProvider) -> LogicalPlan {
    match plan {
        LogicalPlan::JoinOn { .. } | LogicalPlan::Cross { .. } => reorder_one_tree(plan, provider),
        other => other.map_children(&mut |p| reorder_joins(p, provider)),
    }
}

/// Reorder one flattened join tree, or return it unchanged when the
/// rewrite cannot be proven safe (unknown leaf schemas, duplicate column
/// names) or does not change the plan.
fn reorder_one_tree(plan: LogicalPlan, provider: &dyn TableProvider) -> LogicalPlan {
    let original = plan.clone();
    // join trees nested below non-join operators (inside a subquery leaf)
    // still get their own reorder pass
    let recurse_into_children =
        |p: LogicalPlan| p.map_children(&mut |c| reorder_joins(c, provider));
    let mut graph = JoinGraph {
        leaves: Vec::new(),
        cols: Vec::new(),
        edges: Vec::new(),
    };
    if flatten_joins(plan, provider, &mut graph).is_none() {
        return recurse_into_children(original);
    }
    let n = graph.leaves.len();
    if !(2..=ENUM_LIMIT).contains(&n) {
        return recurse_into_children(original);
    }
    // the rewrite addresses every column by name across the whole tree, so
    // names must be globally unique (a duplicate would also make the
    // original join's output schema ambiguous)
    {
        let mut seen = BTreeSet::new();
        for cols in &graph.cols {
            for c in cols {
                if !seen.insert(c.as_str()) {
                    return recurse_into_children(original);
                }
            }
        }
    }
    graph.leaves = graph
        .leaves
        .into_iter()
        .map(|l| reorder_joins(l, provider))
        .collect();
    let ests: Vec<stats::PlanEst> = graph
        .leaves
        .iter()
        .map(|l| stats::estimate(l, provider))
        .collect();
    // order each connected component (no cross products inside), then
    // cross-join components smallest-first
    let mut components = connected_components(n, &graph.edges);
    let mut ordered: Vec<(LogicalPlan, stats::PlanEst)> = components
        .drain(..)
        .map(|comp| {
            if comp.len() <= DP_LIMIT {
                order_component_dp(&comp, &graph, &ests)
            } else {
                order_component_greedy(&comp, &graph, &ests)
            }
        })
        .collect();
    ordered.sort_by(|a, b| a.1.rows.total_cmp(&b.1.rows));
    let mut it = ordered.into_iter();
    let (mut best, mut best_est) = it.next().expect("n >= 2 leaves");
    for (next, next_est) in it {
        best_est = stats::cross_estimate(&best_est, &next_est);
        best = LogicalPlan::Cross {
            left: Box::new(best),
            right: Box::new(next),
        };
    }
    // no-change detection via the rendered plan shape: `LogicalPlan`'s
    // derived PartialEq would descend into `Values` leaves and compare
    // full column data, while `explain` prints structure only (leaves
    // render as name + row count, and an unchanged leaf is the same Arc)
    if super::explain(&best) == super::explain(&original) {
        return original;
    }
    // restore the written output column order with an identity projection
    let orig_cols: Vec<String> = graph.cols.concat();
    LogicalPlan::Project {
        items: orig_cols
            .into_iter()
            .map(|c| (Expr::Col(c.clone()), c))
            .collect(),
        input: Box::new(best),
    }
}

/// Flatten a `JoinOn`/`Cross` tree into `graph`, returning the leaf
/// indices of this subtree (`None` bails: unknown leaf schema, or an
/// equi-join column that cannot be attributed to exactly one leaf).
fn flatten_joins(
    plan: LogicalPlan,
    provider: &dyn TableProvider,
    graph: &mut JoinGraph,
) -> Option<Vec<usize>> {
    match plan {
        LogicalPlan::JoinOn { left, right, on } => {
            let ls = flatten_joins(*left, provider, graph)?;
            let rs = flatten_joins(*right, provider, graph)?;
            for (lc, rc) in on {
                let li = owning_leaf(&graph.cols, &ls, &lc)?;
                let ri = owning_leaf(&graph.cols, &rs, &rc)?;
                graph.edges.push((li, lc, ri, rc));
            }
            Some([ls, rs].concat())
        }
        LogicalPlan::Cross { left, right } => {
            let ls = flatten_joins(*left, provider, graph)?;
            let rs = flatten_joins(*right, provider, graph)?;
            Some([ls, rs].concat())
        }
        leaf => {
            let cols = output_columns(&leaf, provider)?;
            graph.cols.push(cols);
            graph.leaves.push(leaf);
            Some(vec![graph.leaves.len() - 1])
        }
    }
}

/// The unique leaf among `among` providing column `col`.
fn owning_leaf(cols: &[Vec<String>], among: &[usize], col: &str) -> Option<usize> {
    let mut found = None;
    for &i in among {
        if cols[i].iter().any(|c| c == col) {
            if found.is_some() {
                return None;
            }
            found = Some(i);
        }
    }
    found
}

/// Partition leaves into connected components of the equi-join graph.
fn connected_components(n: usize, edges: &[(usize, String, usize, String)]) -> Vec<Vec<usize>> {
    let mut parent: Vec<usize> = (0..n).collect();
    fn root(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for (a, _, b, _) in edges {
        let (ra, rb) = (root(&mut parent, *a), root(&mut parent, *b));
        parent[ra] = rb;
    }
    let mut comps: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for i in 0..n {
        let r = root(&mut parent, i);
        comps.entry(r).or_default().push(i);
    }
    comps.into_values().collect()
}

/// The equi pairs between two leaf sets, oriented `(left side, right
/// side)`.
fn pairs_between(
    graph: &JoinGraph,
    left: impl Fn(usize) -> bool,
    right: impl Fn(usize) -> bool,
) -> Vec<(String, String)> {
    let mut pairs = Vec::new();
    for (a, ca, b, cb) in &graph.edges {
        if left(*a) && right(*b) {
            pairs.push((ca.clone(), cb.clone()));
        } else if left(*b) && right(*a) {
            pairs.push((cb.clone(), ca.clone()));
        }
    }
    pairs
}

/// Build the join of two ordered subplans, orienting the side with fewer
/// estimated rows as the *right* input — [`rma_relation::join_on`] builds
/// its hash table on the right side, so the smaller input should be the
/// build side. `pairs` are `(a column, b column)` and are flipped with the
/// operands.
fn build_join(
    a_plan: &LogicalPlan,
    a_est: &stats::PlanEst,
    b_plan: &LogicalPlan,
    b_est: &stats::PlanEst,
    pairs: Vec<(String, String)>,
) -> (LogicalPlan, stats::PlanEst) {
    let est = stats::join_estimate(a_est, b_est, &pairs);
    let (left, right, on) = if b_est.rows <= a_est.rows {
        (a_plan, b_plan, pairs)
    } else {
        (
            b_plan,
            a_plan,
            pairs.into_iter().map(|(l, r)| (r, l)).collect(),
        )
    };
    let plan = LogicalPlan::JoinOn {
        left: Box::new(left.clone()),
        right: Box::new(right.clone()),
        on,
    };
    (plan, est)
}

/// Exact join-order search over one connected component: dynamic
/// programming over connected subsets, minimising the accumulated cost of
/// [`stats::join_estimate`]. `comp` has at most [`DP_LIMIT`] leaves, so
/// the table has at most `2^8` entries.
fn order_component_dp(
    comp: &[usize],
    graph: &JoinGraph,
    ests: &[stats::PlanEst],
) -> (LogicalPlan, stats::PlanEst) {
    let k = comp.len();
    let mut best: Vec<Option<(LogicalPlan, stats::PlanEst)>> = vec![None; 1 << k];
    for (li, &leaf) in comp.iter().enumerate() {
        best[1 << li] = Some((graph.leaves[leaf].clone(), ests[leaf].clone()));
    }
    let in_mask = |mask: usize, leaf: usize| {
        comp.iter()
            .position(|&l| l == leaf)
            .is_some_and(|li| mask & (1 << li) != 0)
    };
    for mask in 1usize..(1 << k) {
        if mask.count_ones() < 2 {
            continue;
        }
        let low = mask & mask.wrapping_neg();
        let mut sub = (mask - 1) & mask;
        while sub > 0 {
            // enumerate each unordered split once — build_join decides
            // the probe/build orientation from the row estimates
            if sub & low != 0 {
                let other = mask ^ sub;
                if let (Some((lp, le)), Some((rp, re))) = (&best[sub], &best[other]) {
                    let pairs = pairs_between(graph, |l| in_mask(sub, l), |l| in_mask(other, l));
                    if !pairs.is_empty() {
                        let (plan, est) = build_join(lp, le, rp, re, pairs);
                        if best[mask].as_ref().is_none_or(|(_, b)| est.cost < b.cost) {
                            best[mask] = Some((plan, est));
                        }
                    }
                }
            }
            sub = (sub - 1) & mask;
        }
    }
    best[(1 << k) - 1]
        .take()
        .expect("a connected component always has a connected join order")
}

/// Greedy fallback above [`DP_LIMIT`]: repeatedly join the connected pair
/// with the smallest estimated result, smallest-first — O(n³) pair scans,
/// no exponential table.
fn order_component_greedy(
    comp: &[usize],
    graph: &JoinGraph,
    ests: &[stats::PlanEst],
) -> (LogicalPlan, stats::PlanEst) {
    struct Part {
        leaves: Vec<usize>,
        plan: LogicalPlan,
        est: stats::PlanEst,
    }
    /// The pair the next round merges: indices, pairs, combined estimate.
    type Pick = (usize, usize, Vec<(String, String)>, stats::PlanEst);
    let mut parts: Vec<Part> = comp
        .iter()
        .map(|&l| Part {
            leaves: vec![l],
            plan: graph.leaves[l].clone(),
            est: ests[l].clone(),
        })
        .collect();
    while parts.len() > 1 {
        let mut pick: Option<Pick> = None;
        for i in 0..parts.len() {
            for j in (i + 1)..parts.len() {
                let pairs = pairs_between(
                    graph,
                    |l| parts[i].leaves.contains(&l),
                    |l| parts[j].leaves.contains(&l),
                );
                if pairs.is_empty() {
                    continue;
                }
                let est = stats::join_estimate(&parts[i].est, &parts[j].est, &pairs);
                if pick.as_ref().is_none_or(|(_, _, _, b)| est.rows < b.rows) {
                    pick = Some((i, j, pairs, est));
                }
            }
        }
        let (i, j, pairs, _) = pick.expect("a connected component always has a connected pair");
        let b = parts.swap_remove(j);
        let a = parts.swap_remove(i);
        let (plan, est) = build_join(&a.plan, &a.est, &b.plan, &b.est, pairs);
        let mut leaves = a.leaves;
        leaves.extend(b.leaves);
        parts.push(Part { leaves, plan, est });
    }
    let p = parts.pop().expect("non-empty component");
    (p.plan, p.est)
}

// ---------------------------------------------------------------------
// Pass 5: projection pushdown through joins and projections into scans
// ---------------------------------------------------------------------

/// Propagate the set of columns required from above down to scans; a scan
/// that provides more prunes itself. `None` means "all columns".
fn prune_projections(
    plan: LogicalPlan,
    required: Option<&BTreeSet<String>>,
    provider: &dyn TableProvider,
) -> LogicalPlan {
    match plan {
        LogicalPlan::Values { rel, projection } => {
            let projection = narrow_scan(
                projection,
                rel.schema().names().map(str::to_string),
                required,
            );
            LogicalPlan::Values { rel, projection }
        }
        LogicalPlan::Scan { table, projection } => {
            let schema_names: Option<Vec<String>> = provider
                .table(&table)
                .map(|r| r.schema().names().map(str::to_string).collect());
            let projection = match schema_names {
                Some(names) => narrow_scan(projection, names.into_iter(), required),
                None => projection,
            };
            LogicalPlan::Scan { table, projection }
        }
        LogicalPlan::Project { input, items } => {
            // items nobody above reads are dropped; when none is named (a
            // `COUNT(*)` above) all stay, so the row count survives
            let items = match required {
                Some(req) if items.iter().any(|(_, n)| req.contains(n)) => {
                    items.into_iter().filter(|(_, n)| req.contains(n)).collect()
                }
                _ => items,
            };
            let mut needed = BTreeSet::new();
            for (e, _) in &items {
                let mut refs = Vec::new();
                e.referenced_columns(&mut refs);
                needed.extend(refs);
            }
            LogicalPlan::Project {
                input: Box::new(prune_projections(*input, Some(&needed), provider)),
                items,
            }
        }
        LogicalPlan::Select { input, predicate } => {
            let merged = required.map(|req| {
                let mut needed = req.clone();
                let mut refs = Vec::new();
                predicate.referenced_columns(&mut refs);
                needed.extend(refs);
                needed
            });
            LogicalPlan::Select {
                input: Box::new(prune_projections(*input, merged.as_ref(), provider)),
                predicate,
            }
        }
        LogicalPlan::OrderBy { input, keys } => {
            let merged = required.map(|req| {
                let mut needed = req.clone();
                needed.extend(keys.iter().map(|(k, _)| k.clone()));
                needed
            });
            LogicalPlan::OrderBy {
                input: Box::new(prune_projections(*input, merged.as_ref(), provider)),
                keys,
            }
        }
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(prune_projections(*input, required, provider)),
            n,
        },
        LogicalPlan::TopK { input, keys, n } => {
            let merged = required.map(|req| {
                let mut needed = req.clone();
                needed.extend(keys.iter().map(|(k, _)| k.clone()));
                needed
            });
            LogicalPlan::TopK {
                input: Box::new(prune_projections(*input, merged.as_ref(), provider)),
                keys,
                n,
            }
        }
        LogicalPlan::AssertKey { input, attrs } => {
            let merged = required.map(|req| {
                let mut needed = req.clone();
                needed.extend(attrs.iter().cloned());
                needed
            });
            LogicalPlan::AssertKey {
                input: Box::new(prune_projections(*input, merged.as_ref(), provider)),
                attrs,
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            // the aggregate defines its own requirements, regardless of
            // what is needed above it
            let mut needed: BTreeSet<String> = group_by.iter().cloned().collect();
            needed.extend(aggs.iter().filter_map(|a| a.input.clone()));
            LogicalPlan::Aggregate {
                input: Box::new(prune_projections(*input, Some(&needed), provider)),
                group_by,
                aggs,
            }
        }
        // an equi-join or cross product needs from each side the required
        // columns it provides plus its join keys
        LogicalPlan::JoinOn { left, right, on } => {
            let left_req = side_requirement(required, &left, on.iter().map(|(l, _)| l), provider);
            let right_req = side_requirement(required, &right, on.iter().map(|(_, r)| r), provider);
            LogicalPlan::JoinOn {
                left: Box::new(prune_join_input(*left, left_req.as_ref(), provider)),
                right: Box::new(prune_join_input(*right, right_req.as_ref(), provider)),
                on,
            }
        }
        LogicalPlan::Cross { left, right } => {
            let left_req = side_requirement(required, &left, [].into_iter(), provider);
            let right_req = side_requirement(required, &right, [].into_iter(), provider);
            LogicalPlan::Cross {
                left: Box::new(prune_join_input(*left, left_req.as_ref(), provider)),
                right: Box::new(prune_join_input(*right, right_req.as_ref(), provider)),
            }
        }
        // duplicate elimination is over the full row; a natural join's keys
        // are its common columns, so pruning one would change them; unions
        // and RMA operations consume every column of their inputs — recurse
        // with no requirement so nothing below is pruned incorrectly
        other => other.map_children(&mut |p| prune_projections(p, None, provider)),
    }
}

/// Prune one join input to `required`. A join gathers every column of its
/// inputs, so an input that is itself a join or cross product also drops
/// the columns nobody above reads — the keys it consumed — through a
/// zero-copy projection.
fn prune_join_input(
    plan: LogicalPlan,
    required: Option<&BTreeSet<String>>,
    provider: &dyn TableProvider,
) -> LogicalPlan {
    let plan = prune_projections(plan, required, provider);
    let Some(req) = required else { return plan };
    if !matches!(plan, LogicalPlan::JoinOn { .. } | LogicalPlan::Cross { .. }) {
        return plan;
    }
    let Some(cols) = output_columns(&plan, provider) else {
        return plan;
    };
    let kept: Vec<String> = cols.iter().filter(|c| req.contains(*c)).cloned().collect();
    if kept.is_empty() || kept.len() == cols.len() {
        return plan;
    }
    LogicalPlan::Project {
        input: Box::new(plan),
        items: kept
            .into_iter()
            .map(|c| (Expr::col(c.clone()), c))
            .collect(),
    }
}

/// One join input's share of the requirement above it: the required
/// columns it outputs plus its join `keys`. `None` (all columns) when
/// nothing is required from above or the input's columns are not
/// statically known.
fn side_requirement<'a>(
    required: Option<&BTreeSet<String>>,
    side: &LogicalPlan,
    keys: impl Iterator<Item = &'a String>,
    provider: &dyn TableProvider,
) -> Option<BTreeSet<String>> {
    let req = required?;
    let mut needed: BTreeSet<String> = output_columns(side, provider)?
        .into_iter()
        .filter(|c| req.contains(c))
        .collect();
    needed.extend(keys.cloned());
    Some(needed)
}

/// Narrow a scan's projection to the required columns (kept in schema
/// order). Pruning is skipped when a required column is missing — the
/// unpruned plan then surfaces the original resolution error at execution.
fn narrow_scan(
    existing: Option<Vec<String>>,
    schema_names: impl Iterator<Item = String>,
    required: Option<&BTreeSet<String>>,
) -> Option<Vec<String>> {
    let available: Vec<String> = match &existing {
        Some(p) => p.clone(),
        None => schema_names.collect(),
    };
    let Some(req) = required else {
        return existing;
    };
    // a zero-column scan would lose the row count (COUNT(*) over no
    // attributes); keep the scan as-is when nothing by name is required
    if req.is_empty() || !req.iter().all(|r| available.contains(r)) {
        return existing;
    }
    let narrowed: Vec<String> = available
        .iter()
        .filter(|n| req.contains(*n))
        .cloned()
        .collect();
    if narrowed.len() < available.len() {
        Some(narrowed)
    } else {
        existing
    }
}

// ---------------------------------------------------------------------
// Pass 6: Limit-into-Sort fusion (top-k)
// ---------------------------------------------------------------------

/// `Limit n` directly over `OrderBy keys` becomes `TopK(keys, n)`: the
/// executor then keeps the k best rows in a bounded heap instead of
/// materialising the full sort. The rewrite is exact — [`rma_relation::
/// top_k`] breaks ties by row index, reproducing the stable sort's prefix.
fn fuse_top_k(plan: LogicalPlan) -> LogicalPlan {
    let plan = plan.map_children(&mut fuse_top_k);
    match plan {
        LogicalPlan::Limit { input, n } => match *input {
            LogicalPlan::OrderBy { input: inner, keys } => LogicalPlan::TopK {
                input: inner,
                keys,
                n,
            },
            other => LogicalPlan::Limit {
                input: Box::new(other),
                n,
            },
        },
        other => other,
    }
}

// ---------------------------------------------------------------------
// Pass 7: redundant-sort elimination
// ---------------------------------------------------------------------

/// Bottom-up sortedness inference: rewrite the plan, flagging RMA arguments
/// whose input is provably sorted by the argument's order schema, and
/// return the attribute list the node's own output is sorted by (if any).
fn mark_sorted_inputs(plan: LogicalPlan) -> (LogicalPlan, Option<Vec<String>>) {
    match plan {
        LogicalPlan::OrderBy { input, keys } => {
            let (input, _) = mark_sorted_inputs(*input);
            let sorted = keys
                .iter()
                .all(|(_, asc)| *asc)
                .then(|| keys.iter().map(|(k, _)| k.clone()).collect());
            (
                LogicalPlan::OrderBy {
                    input: Box::new(input),
                    keys,
                },
                sorted,
            )
        }
        // row-preserving operators keep their input's order
        LogicalPlan::Select { input, predicate } => {
            let (input, sorted) = mark_sorted_inputs(*input);
            (
                LogicalPlan::Select {
                    input: Box::new(input),
                    predicate,
                },
                sorted,
            )
        }
        LogicalPlan::Limit { input, n } => {
            let (input, sorted) = mark_sorted_inputs(*input);
            (
                LogicalPlan::Limit {
                    input: Box::new(input),
                    n,
                },
                sorted,
            )
        }
        // top-k output is sorted by its keys, like the OrderBy it replaced
        LogicalPlan::TopK { input, keys, n } => {
            let (input, _) = mark_sorted_inputs(*input);
            let sorted = keys
                .iter()
                .all(|(_, asc)| *asc)
                .then(|| keys.iter().map(|(k, _)| k.clone()).collect());
            (
                LogicalPlan::TopK {
                    input: Box::new(input),
                    keys,
                    n,
                },
                sorted,
            )
        }
        LogicalPlan::AssertKey { input, attrs } => {
            let (input, sorted) = mark_sorted_inputs(*input);
            (
                LogicalPlan::AssertKey {
                    input: Box::new(input),
                    attrs,
                },
                sorted,
            )
        }
        // distinct keeps first occurrences in input order
        LogicalPlan::Distinct { input } => {
            let (input, sorted) = mark_sorted_inputs(*input);
            (
                LogicalPlan::Distinct {
                    input: Box::new(input),
                },
                sorted,
            )
        }
        // a projection preserves sortedness when every sort key survives as
        // an identity item
        LogicalPlan::Project { input, items } => {
            let (input, sorted) = mark_sorted_inputs(*input);
            let preserved = sorted.filter(|keys| {
                keys.iter().all(|k| {
                    items
                        .iter()
                        .any(|(e, n)| n == k && matches!(e, Expr::Col(c) if c == k))
                })
            });
            (
                LogicalPlan::Project {
                    input: Box::new(input),
                    items,
                },
                preserved,
            )
        }
        LogicalPlan::Rma { op, args, backend } => {
            let args: Vec<RmaArg> = args
                .into_iter()
                .map(|a| {
                    let (input, sorted) = mark_sorted_inputs(*a.input);
                    let sorted_input =
                        a.sorted_input || sorted.as_deref() == Some(a.order.as_slice());
                    RmaArg {
                        input: Box::new(input),
                        order: a.order,
                        sorted_input,
                    }
                })
                .collect();
            let sorted = rma_output_sorted(op, &args);
            (LogicalPlan::Rma { op, args, backend }, sorted)
        }
        // joins, unions, aggregation, and scans give no ordering guarantee
        other => (other.map_children(&mut |p| mark_sorted_inputs(p).0), None),
    }
}

/// Is the output of an RMA node sorted by its first argument's order
/// schema? True exactly when the node's row context is the first
/// argument's order part — the result's row dimension is `r1` (or `r*`) —
/// and that argument was already sorted or the executor sorts it in full
/// ([`sort_modes`], the executor's own policy). Only called under the
/// Optimized policy (the pass is gated in [`optimize`]).
fn rma_output_sorted(op: RmaOp, args: &[RmaArg]) -> Option<Vec<String>> {
    let sorted: Vec<bool> = args.iter().map(|a| a.sorted_input).collect();
    // a malformed plan fails at execution; it guarantees no order here
    let arity = if op.is_binary() { 2 } else { 1 };
    if sorted.len() != arity || !matches!(op.shape().rows, Dim::R1 | Dim::RStar) {
        return None;
    }
    let full = sort_modes(op, SortPolicy::Optimized, &sorted)[0] == SortMode::Full;
    (sorted[0] || full).then(|| args[0].order.clone())
}

// ---------------------------------------------------------------------
// Pass 8: plan-level backend choice
// ---------------------------------------------------------------------

/// Record the kernel choice on every RMA node whose arguments' sizes the
/// plan fixes ([`stats::PlanEst::exact`]): the choice is a function of
/// those sizes, the context and the guard's headroom, so it predicts the
/// one execution makes.
fn choose_backends(
    plan: LogicalPlan,
    ctx: &RmaContext,
    provider: &dyn TableProvider,
) -> LogicalPlan {
    let plan = plan.map_children(&mut |p| choose_backends(p, ctx, provider));
    let LogicalPlan::Rma {
        op,
        args,
        backend: None,
    } = plan
    else {
        return plan;
    };
    // an argument's application part: rows × (columns − order columns)
    let app = |a: &RmaArg| {
        let (rows, cols) = stats::estimate(&a.input, provider).exact?;
        (cols > a.order.len()).then(|| (rows, cols - a.order.len()))
    };
    let sizes: Option<Vec<(usize, usize)>> = args.iter().map(app).collect();
    let backend = match sizes.as_deref() {
        Some(&[(m, n)]) => Some(ctx.choose_kernel(op, m, n, None)),
        Some(&[(m, n), second]) => Some(ctx.choose_kernel(op, m, n, Some(second))),
        _ => None,
    };
    LogicalPlan::Rma { op, args, backend }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::RmaOptions;
    use crate::plan::{execute, NoTables};
    use crate::shape::ALL_OPS;
    use rma_relation::{Relation, RelationBuilder};
    use rma_storage::Value;
    use std::sync::Arc;

    /// A 3 × 3 symmetric positive definite matrix keyed 0, 1, 2 by `key`,
    /// stored in key order when `sorted`, else shuffled.
    fn spd(key: &str, sorted: bool) -> LogicalPlan {
        let rows = [[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]];
        let stored: [usize; 3] = if sorted { [0, 1, 2] } else { [2, 0, 1] };
        let col = |j: usize| stored.map(|i| rows[i][j]).to_vec();
        let rel = RelationBuilder::new()
            .name("p")
            .column(key, stored.map(|i| i as i64).to_vec())
            .column("a", col(0))
            .column("b", col(1))
            .column("c", col(2))
            .build()
            .unwrap();
        LogicalPlan::Values {
            rel: Arc::new(rel),
            projection: None,
        }
    }

    fn key_values(r: &Relation, key: &str) -> Vec<Value> {
        r.column(key).unwrap().iter_values().collect()
    }

    /// Every operation under both policies and every sortedness hint: the
    /// sorts the executor counts are the modes of [`sort_modes`] that sort,
    /// and wherever pass 7 calls a result sorted by the first order schema,
    /// the executed result is.
    #[test]
    fn sort_modes_are_what_execution_and_pass_7_read() {
        let mut claimed = 0;
        for op in ALL_OPS {
            let keys: &[&str] = if op.is_binary() { &["k", "j"] } else { &["k"] };
            let hints: &[&[bool]] = if op.is_binary() {
                &[
                    &[false, false],
                    &[false, true],
                    &[true, false],
                    &[true, true],
                ]
            } else {
                &[&[false], &[true]]
            };
            for policy in [SortPolicy::Optimized, SortPolicy::Always] {
                let ctx = RmaContext::new(RmaOptions {
                    sort_policy: policy,
                    ..RmaOptions::default()
                });
                for &sorted in hints {
                    let args: Vec<RmaArg> = keys
                        .iter()
                        .zip(sorted)
                        .map(|(&key, &sorted)| RmaArg {
                            input: Box::new(spd(key, sorted)),
                            order: vec![key.to_string()],
                            sorted_input: sorted,
                        })
                        .collect();
                    let claim = rma_output_sorted(op, &args);
                    let plan = LogicalPlan::Rma {
                        op,
                        args,
                        backend: None,
                    };
                    let out = execute(&plan, &ctx, &NoTables)
                        .unwrap_or_else(|e| panic!("{op:?} {policy:?} {sorted:?}: {e}"));
                    let modes = sort_modes(op, policy, sorted);
                    let sorts = modes.iter().filter(|m| m.sorts()).count() as u32;
                    let case = format!("{op:?} {policy:?} {sorted:?} {modes:?}");
                    assert_eq!(ctx.stats().sorts, sorts, "{case}");
                    ctx.reset_stats();
                    if policy == SortPolicy::Optimized && claim.is_some() {
                        assert_eq!(claim.as_deref(), Some(&["k".to_string()][..]), "{case}");
                        let want: Vec<Value> = (0..3i64).map(Value::from).collect();
                        assert_eq!(key_values(&out, "k"), want, "{case}");
                        claimed += 1;
                    }
                }
            }
        }
        // sorted inputs of every r1/r* op, and the unsorted inputs of the
        // unary ops that sort in full (inv, evc, evl, vsv, usv, chf)
        assert!(claimed > 6, "pass 7 claimed {claimed} sorted results");
    }
}
