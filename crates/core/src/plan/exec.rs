//! Logical-plan interpreter: walks an (optimized) [`LogicalPlan`] and calls
//! the eager relational-algebra functions and RMA kernels. The eager APIs
//! remain the execution layer; this module only adds plan-level concerns —
//! table resolution, scan-time projection and sortedness hints. An RMA
//! node runs through the same dispatch as the eager call, which chooses
//! its kernel at run time; the `backend` the optimizer records on the node
//! is EXPLAIN's prediction of that choice, made by the same function from
//! the same sizes, and execution does not read it.
//!
//! Every plan node runs operator-at-a-time through one match arm, at every
//! thread count. Each relational operator is one call into
//! [`rma_relation`] with the context's session
//! [`WorkerPool`](rma_relation::WorkerPool) (`ctx.pool()`), and the operator
//! itself picks its path — serial, pooled or spilled — and charges its
//! working set on the plan's guard (see `rma_relation::algebra`).
//! Projections of column references stay zero-copy.
//!
//! Profiling: [`execute_analyzed`] runs the same interpreter with a
//! per-node actuals recorder — output rows, inclusive wall time, the
//! morsels the node's subtree dispatched to the pool and, for the
//! relational operators, the path the operator's own call took — in the
//! exact pre-order the EXPLAIN tree prints nodes, which is what
//! `EXPLAIN ANALYZE` joins back onto the cost-annotated rendering. The
//! recorder changes no routing decision: an analyzed run executes the same
//! operators as [`execute`], and each node's `exec.*` span
//! ([`rma_relation::trace`], recorded whenever a collector is installed on
//! the executing thread) carries the same rows and morsels.
//!
//! Attribution: every plan runs under its own
//! [`QueryGuard`](rma_relation::QueryGuard), which the pool carries to
//! every worker and whose budget every memory decision reads, the kernel
//! choice included; plan-level [`ExecStats`] and per-node [`NodeActual`]s
//! are differences of that guard's counters or, for an RMA node, the
//! operation's own [`ExecStats`], never of a total another query can bump.
//! Spilled bytes surface in both.

use super::{LogicalPlan, PlanError, TableProvider};
use crate::context::{ExecStats, KernelUsed, RmaContext};
use crate::error::RmaError;
use crate::ops::Arg;
use rma_relation::trace;
use rma_relation::{self as rel, Relation};
use std::cell::RefCell;
use std::time::Instant;

/// Execute a logical plan against a table provider.
///
/// Runs under the calling thread's active
/// [`QueryGuard`](rma_relation::QueryGuard) when one is installed (the
/// serving layer's per-query governor); otherwise a guard is minted here
/// for the duration of the plan, with
/// [`RmaOptions::mem_budget`](crate::context::RmaOptions::mem_budget) and
/// [`RmaOptions::deadline`](crate::context::RmaOptions::deadline) as its
/// limits (unlimited when unset). Every plan thus has its own guard, and
/// the spill bytes, partitions and decode sinks it adds during the run —
/// also a run that fails — are recorded into the context's
/// [`crate::context::ExecStats`]. Governance trips surface as
/// `PlanError::Rma(RmaError::Cancelled | DeadlineExceeded |
/// ResourceExhausted)`.
pub fn execute(
    plan: &LogicalPlan,
    ctx: &RmaContext,
    provider: &dyn TableProvider,
) -> Result<Relation, PlanError> {
    run_governed(ctx, || execute_inner(plan, ctx, provider, None))
}

/// Run `body` under the plan's guard — the thread's active one, or one
/// minted and activated from the context's limits — and record the guard's
/// counter growth into the context's stats, whether `body` succeeds or
/// fails.
fn run_governed<T>(
    ctx: &RmaContext,
    body: impl FnOnce() -> Result<T, PlanError>,
) -> Result<T, PlanError> {
    ctx.governed(|| {
        let before = counts();
        // a failed plan's spills and decodes count too, as they do in the
        // serving session's metrics
        let out = body();
        let [spill_bytes, spill_partitions, decode_sinks, _] = since(before);
        ctx.record(&ExecStats {
            spill_bytes,
            spill_partitions,
            decode_sinks,
            ..Default::default()
        });
        out
    })
}

/// The guard of the plan running on this thread.
fn plan_guard() -> rel::QueryGuard {
    rel::current_guard().expect("a plan runs under its guard")
}

/// The plan guard's counters: spill bytes, spill partitions, decode sinks,
/// pool morsels.
fn counts() -> [u64; 4] {
    let g = plan_guard();
    [
        g.spill_bytes(),
        g.spill_partitions(),
        g.decode_sinks(),
        g.morsels(),
    ]
}

/// How much each of [`counts`] grew since `before`.
fn since(before: [u64; 4]) -> [u64; 4] {
    let now = counts();
    std::array::from_fn(|i| now[i] - before[i])
}

/// Run one relational operator and note in `strategy` the path it took,
/// observed on the plan guard's counters across the call: `spilled` when
/// it wrote spill partitions, `pooled` when it dispatched morsels, `serial`
/// otherwise.
fn observed(
    strategy: &mut Option<&'static str>,
    op: impl FnOnce() -> Result<Relation, rel::RelationError>,
) -> Result<Relation, PlanError> {
    let before = counts();
    let out = op()?;
    let [_, spill_partitions, _, morsels] = since(before);
    *strategy = Some(match (spill_partitions, morsels) {
        (1.., _) => "spilled",
        (0, 1..) => "pooled",
        (0, 0) => "serial",
    });
    Ok(out)
}

/// What one plan node actually did during an analyzed execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeActual {
    /// Rows the node produced.
    pub rows: u64,
    /// Inclusive wall time (the node and its subtree), in nanoseconds.
    pub nanos: u64,
    /// Morsels this node's subtree dispatched to the worker pool
    /// (inclusive, like `nanos`): the items of every
    /// [`WorkerPool::for_each`](rma_relation::WorkerPool::for_each) job the
    /// query's guard counted while the node ran. 0 when everything ran
    /// serially.
    pub morsels: u64,
    /// Bytes this node's subtree wrote to spill files (inclusive, like
    /// `nanos`); 0 for fully in-memory execution.
    pub spill_bytes: u64,
    /// Spill partitions/runs this node's subtree created (inclusive).
    pub spill_partitions: u64,
    /// Decode sinks this node's subtree triggered (inclusive): one per
    /// `Column::decoded()` call on an encoded column a kernel could not
    /// process in encoded form. 0 = fully compressed execution.
    pub decode_sinks: u64,
    /// `Rma` nodes only: this node's own order-schema handling (split,
    /// sort, align and the merge into the result relation, for either
    /// arity — the operation's own `ExecStats::sort`), in nanoseconds.
    pub order_nanos: u64,
    /// `Rma` nodes only: this node's own kernel time including the
    /// BAT↔dense copies, in nanoseconds.
    pub kernel_nanos: u64,
    /// `Rma` nodes only: the kernel that ran (EXPLAIN ANALYZE prints its
    /// family, `ran=Bat` or `ran=Dense`).
    pub ran: Option<KernelUsed>,
    /// Select, aggregate, join, sort and top-k nodes only: the path the
    /// operator's own call took (`serial`, `pooled` or `spilled`), its
    /// subtree excluded.
    pub strategy: Option<&'static str>,
}

/// Execute a plan while recording per-node actuals, returned **in the
/// pre-order [`super::explain`] prints the tree** (node before children;
/// join children left then right; RMA arguments in declaration order).
/// It runs the same operators as [`execute`] and returns the same relation.
pub fn execute_analyzed(
    plan: &LogicalPlan,
    ctx: &RmaContext,
    provider: &dyn TableProvider,
) -> Result<(Relation, Vec<NodeActual>), PlanError> {
    run_governed(ctx, || {
        let actuals = RefCell::new(Vec::new());
        let out = execute_inner(plan, ctx, provider, Some(&actuals))?;
        Ok((out, actuals.into_inner()))
    })
}

/// Static span label for a plan node (trace spans carry `&'static str`).
fn node_label(plan: &LogicalPlan) -> &'static str {
    match plan {
        LogicalPlan::Values { .. } => "exec.values",
        LogicalPlan::Scan { .. } => "exec.scan",
        LogicalPlan::Select { .. } => "exec.select",
        LogicalPlan::Project { .. } => "exec.project",
        LogicalPlan::Aggregate { .. } => "exec.aggregate",
        LogicalPlan::NaturalJoin { .. } => "exec.natural_join",
        LogicalPlan::JoinOn { .. } => "exec.join_on",
        LogicalPlan::Cross { .. } => "exec.cross",
        LogicalPlan::UnionAll { .. } => "exec.union_all",
        LogicalPlan::Distinct { .. } => "exec.distinct",
        LogicalPlan::OrderBy { .. } => "exec.order_by",
        LogicalPlan::Limit { .. } => "exec.limit",
        LogicalPlan::TopK { .. } => "exec.top_k",
        LogicalPlan::Rma { .. } => "exec.rma",
        LogicalPlan::AssertKey { .. } => "exec.assert_key",
    }
}

/// The interpreter proper. `analyze` carries the per-node actuals sink of
/// an [`execute_analyzed`] run; plan recursion happens on the submitting
/// thread only (pool jobs run leaf computations), so a `RefCell` suffices.
fn execute_inner(
    plan: &LogicalPlan,
    ctx: &RmaContext,
    provider: &dyn TableProvider,
    analyze: Option<&RefCell<Vec<NodeActual>>>,
) -> Result<Relation, PlanError> {
    let pool = ctx.pool();
    // operator-boundary governance: a cancelled/expired/over-budget query
    // stops before the next node even when every operator ran serially
    plan_guard().check().map_err(RmaError::from)?;
    let my_id = analyze.map(|a| {
        let mut v = a.borrow_mut();
        v.push(NodeActual::default());
        v.len() - 1
    });
    let started = analyze.map(|_| Instant::now());
    let counts0 = counts();
    let span = trace::clock();
    // an RMA node's own stats
    let mut rma = ExecStats::default();
    let mut strategy = None;
    let result = match plan {
        LogicalPlan::Values { rel, projection } => {
            scan_projected(rel.as_ref(), projection.as_deref())
        }
        LogicalPlan::Scan { table, projection } => {
            let r = provider
                .table(table)
                .ok_or_else(|| PlanError::UnknownTable(table.clone()))?;
            scan_projected(r, projection.as_deref())
        }
        LogicalPlan::Select { input, predicate } => {
            let r = execute_inner(input, ctx, provider, analyze)?;
            observed(&mut strategy, || rel::select(&r, predicate, pool))
        }
        LogicalPlan::Project { input, items } => {
            let r = execute_inner(input, ctx, provider, analyze)?;
            let refs: Vec<(rel::Expr, &str)> =
                items.iter().map(|(e, n)| (e.clone(), n.as_str())).collect();
            Ok(rel::project_exprs(&r, &refs)?)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let r = execute_inner(input, ctx, provider, analyze)?;
            let gb: Vec<&str> = group_by.iter().map(String::as_str).collect();
            observed(&mut strategy, || rel::aggregate(&r, &gb, aggs, pool))
        }
        LogicalPlan::NaturalJoin { left, right } => {
            let l = execute_inner(left, ctx, provider, analyze)?;
            let r = execute_inner(right, ctx, provider, analyze)?;
            observed(&mut strategy, || rel::natural_join(&l, &r, pool))
        }
        LogicalPlan::JoinOn { left, right, on } => {
            let l = execute_inner(left, ctx, provider, analyze)?;
            let r = execute_inner(right, ctx, provider, analyze)?;
            let pairs: Vec<(&str, &str)> =
                on.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
            observed(&mut strategy, || rel::join_on(&l, &r, &pairs, pool))
        }
        LogicalPlan::Cross { left, right } => {
            let l = execute_inner(left, ctx, provider, analyze)?;
            let r = execute_inner(right, ctx, provider, analyze)?;
            Ok(rel::cross_product(&l, &r)?)
        }
        LogicalPlan::UnionAll { left, right } => {
            let l = execute_inner(left, ctx, provider, analyze)?;
            let r = execute_inner(right, ctx, provider, analyze)?;
            Ok(rel::union_all(&l, &r)?)
        }
        LogicalPlan::Distinct { input } => {
            let r = execute_inner(input, ctx, provider, analyze)?;
            Ok(rel::distinct(&r)?)
        }
        LogicalPlan::OrderBy { input, keys } => {
            let r = execute_inner(input, ctx, provider, analyze)?;
            let attrs: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            let dirs: Vec<bool> = keys.iter().map(|(_, asc)| *asc).collect();
            observed(&mut strategy, || rel::order_by(&r, &attrs, &dirs, pool))
        }
        LogicalPlan::Limit { input, n } => {
            let r = execute_inner(input, ctx, provider, analyze)?;
            Ok(rel::limit(&r, *n, 0))
        }
        LogicalPlan::TopK { input, keys, n } => {
            let r = execute_inner(input, ctx, provider, analyze)?;
            let attrs: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            let dirs: Vec<bool> = keys.iter().map(|(_, asc)| *asc).collect();
            observed(&mut strategy, || rel::top_k(&r, &attrs, &dirs, *n, pool))
        }
        LogicalPlan::Rma { op, args, .. } => {
            let expected = if op.is_binary() { 2 } else { 1 };
            if args.len() != expected {
                return Err(PlanError::Plan(format!(
                    "{} expects {expected} argument(s), found {}",
                    op.name(),
                    args.len()
                )));
            }
            let inputs: Vec<Relation> = args
                .iter()
                .map(|a| execute_inner(&a.input, ctx, provider, analyze))
                .collect::<Result<_, _>>()?;
            let (result, stats) = dispatch_rma(ctx, *op, args, &inputs)?;
            rma = stats;
            Ok(result)
        }
        LogicalPlan::AssertKey { input, attrs } => {
            let r = execute_inner(input, ctx, provider, analyze)?;
            let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            r.require_key(&refs)?;
            Ok(r)
        }
    }?;
    let [spill_bytes, spill_partitions, decode_sinks, morsels] = since(counts0);
    trace::record(
        node_label(plan),
        "exec",
        0,
        span,
        0,
        result.len() as u64,
        morsels,
    );
    if let (Some(id), Some(t0), Some(sink)) = (my_id, started, analyze) {
        sink.borrow_mut()[id] = NodeActual {
            rows: result.len() as u64,
            nanos: t0.elapsed().as_nanos() as u64,
            morsels,
            spill_bytes,
            spill_partitions,
            decode_sinks,
            order_nanos: rma.sort.as_nanos() as u64,
            kernel_nanos: (rma.compute + rma.copy_in + rma.copy_out).as_nanos() as u64,
            ran: rma.last_kernel,
            strategy,
        };
    }
    Ok(result)
}

/// Run an RMA node on its evaluated arguments through the one dispatch,
/// with the optimizer's sortedness hints; returns the operation's stats too.
fn dispatch_rma(
    ctx: &RmaContext,
    op: crate::shape::RmaOp,
    args: &[super::RmaArg],
    inputs: &[Relation],
) -> Result<(Relation, ExecStats), PlanError> {
    let orders: Vec<Vec<&str>> = args
        .iter()
        .map(|a| a.order.iter().map(String::as_str).collect())
        .collect();
    let args: Vec<Arg> = args
        .iter()
        .zip(inputs)
        .zip(&orders)
        .map(|((a, rel), order)| Arg {
            rel,
            order,
            sorted: a.sorted_input,
        })
        .collect();
    Ok(ctx.run(op, &args)?)
}

/// Materialise a scan: project straight off the borrowed relation so a
/// pruned scan never copies the columns it is about to drop.
fn scan_projected(r: &Relation, projection: Option<&[String]>) -> Result<Relation, PlanError> {
    match projection {
        None => Ok(r.clone()),
        Some(cols) => {
            let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            Ok(rel::project(r, &refs)?)
        }
    }
}
