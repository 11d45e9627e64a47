//! Logical-plan interpreter: walks an (optimized) [`LogicalPlan`] and calls
//! the eager relational-algebra functions and RMA kernels. The eager APIs
//! remain the execution layer; this module only adds plan-level concerns —
//! table resolution, scan-time projection, sortedness hints, per-node
//! backend overrides, and the routing into the morsel-driven parallel
//! operators.
//!
//! Parallel routing: every plan node runs operator-at-a-time through one
//! match arm, at every thread count. Selections, hash joins, aggregation,
//! sort and top-k are the `*_parallel` operators, which run on the
//! context's session [`WorkerPool`](rma_relation::WorkerPool)
//! (`ctx.pool()`) — never on per-operator thread spawns — and fall back to
//! their serial bodies on a one-worker pool or a small input. Projections
//! of column references stay zero-copy; every other operator is serial.
//!
//! Profiling: [`execute_analyzed`] runs the same interpreter with a
//! per-node actuals recorder — output rows, inclusive wall time, and the
//! morsels the node's subtree dispatched to the pool — in the exact
//! pre-order the EXPLAIN tree prints nodes, which is what `EXPLAIN
//! ANALYZE` joins back onto the cost-annotated rendering. The recorder
//! changes no routing decision: an analyzed run executes the same
//! operators as [`execute`], and each node's `exec.*` span
//! ([`rma_relation::trace`], recorded whenever a collector is installed on
//! the executing thread) carries the same rows and morsels.
//!
//! Attribution: every plan runs under its own
//! [`QueryGuard`](rma_relation::QueryGuard), which the pool carries to
//! every worker; plan-level [`crate::context::ExecStats`] and per-node
//! [`NodeActual`]s are differences of that guard's counters, never of a
//! process-wide total another query can bump.
//!
//! Out-of-core: when a memory budget is set and an operator's estimated
//! working set does not fit the guard's remaining headroom, the
//! interpreter routes joins to the spilling grace hash join, sorts to the
//! external merge sort, and keyed aggregations to the partition-wise
//! spilling aggregate (`rma_relation::algebra`'s `grace_*` /
//! `*_external` operators) instead of failing the query. In-memory
//! operators charge their working set as a *scope* — charged on entry,
//! released when the operator completes — so the budget governs peak
//! operator memory, not the lifetime sum of every materialization the
//! plan ever performed. Spilled bytes are accounted separately
//! ([`rma_relation::QueryGuard::spill_bytes`]) and surface in
//! [`crate::context::ExecStats`] and per-node in [`NodeActual`].

use super::{LogicalPlan, PlanError, TableProvider};
use crate::context::{RmaContext, RmaOptions};
use crate::error::RmaError;
use rma_relation::trace;
use rma_relation::{self as rel, Relation};
use std::cell::RefCell;
use std::time::Instant;

/// Execute a logical plan against a table provider.
///
/// Runs under the calling thread's active
/// [`QueryGuard`](rma_relation::QueryGuard) when one is installed (the
/// serving layer's per-query governor); otherwise a guard is minted here
/// for the duration of the plan, with [`RmaOptions::mem_budget`] and
/// [`RmaOptions::deadline`] as its limits (unlimited when unset). Every
/// plan thus has its own guard, and the spill bytes, partitions and decode
/// sinks it adds during the run are recorded into the context's
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
/// counter growth into the context's stats.
fn run_governed<T>(
    ctx: &RmaContext,
    body: impl FnOnce() -> Result<T, PlanError>,
) -> Result<T, PlanError> {
    let o = &ctx.options;
    let minted = rel::current_guard()
        .is_none()
        .then(|| rel::QueryGuard::with_limits(o.deadline, o.mem_budget as u64));
    let _active = minted.as_ref().map(rel::QueryGuard::activate);
    let before = counts();
    let out = body()?;
    let [spill_bytes, spill_partitions, decode_sinks, _] = since(before);
    ctx.record(&crate::context::ExecStats {
        spill_bytes,
        spill_partitions,
        decode_sinks,
        ..Default::default()
    });
    Ok(out)
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

/// An operator's working memory, charged against the plan's guard for
/// exactly the operator's lifetime: charged on construction, released on
/// drop (success *and* error paths). The weights are
/// documented estimates, not measurements — their job is to stop (or
/// spill) a hopeless operator *before* the allocation, not to meter it
/// exactly. Scoping is what makes the budget govern *peak* operator
/// memory: a pipeline of modest operators runs under a modest budget,
/// where the old cumulative accounting double-charged every nested
/// materialization point (a hash build deep in the plan stayed charged
/// long after the join freed it).
struct ChargeScope(rel::QueryGuard, u64);

impl ChargeScope {
    /// Charge `bytes`; fails with the guard's typed trip when the charge
    /// breaches the budget.
    fn new(bytes: u64) -> Result<ChargeScope, PlanError> {
        let g = plan_guard();
        g.try_charge(bytes).map_err(RmaError::from)?;
        Ok(ChargeScope(g, bytes))
    }
}

impl Drop for ChargeScope {
    fn drop(&mut self) {
        self.0.release(self.1);
    }
}

/// Should an operator with an estimated working set of `est_bytes` take
/// its spilling implementation? True only when the guard has a finite
/// budget and the estimate does not fit the remaining headroom — a pure
/// probe, it never trips the guard itself.
fn should_spill(est_bytes: u64) -> bool {
    !plan_guard().fits(est_bytes)
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
    /// sort, align, merge — `ExecStats::sort`), in nanoseconds.
    pub order_nanos: u64,
    /// `Rma` nodes only: this node's own kernel time including the
    /// BAT↔dense copies, in nanoseconds.
    pub kernel_nanos: u64,
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
    // an RMA node's (order handling, kernel) split, from its ExecStats delta
    let mut rma_nanos = (0u64, 0u64);
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
            // select_parallel (like the other *_parallel operators) runs
            // the serial operator itself on a single-worker pool
            Ok(rel::select_parallel(&r, predicate, pool)?)
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
            if gb.is_empty() {
                // ungrouped: a handful of accumulators, not a table —
                // charging 32 bytes per input row here rejected queries
                // whose working set is actually constant
                let _working = ChargeScope::new(256)?;
                Ok(rel::aggregate_parallel(&r, &gb, aggs, pool)?)
            } else {
                let est = rel::aggregate_state_bytes(r.len());
                if should_spill(est) {
                    Ok(rel::aggregate_external(&r, &gb, aggs, pool)?)
                } else {
                    let _working = ChargeScope::new(est)?;
                    Ok(rel::aggregate_parallel(&r, &gb, aggs, pool)?)
                }
            }
        }
        LogicalPlan::NaturalJoin { left, right } => {
            let l = execute_inner(left, ctx, provider, analyze)?;
            let r = execute_inner(right, ctx, provider, analyze)?;
            let est = rel::join_build_bytes(r.len());
            if should_spill(est) {
                Ok(rel::grace_natural_join(&l, &r, pool)?)
            } else {
                let _build = ChargeScope::new(est)?;
                Ok(rel::natural_join_parallel(&l, &r, pool)?)
            }
        }
        LogicalPlan::JoinOn { left, right, on } => {
            let l = execute_inner(left, ctx, provider, analyze)?;
            let r = execute_inner(right, ctx, provider, analyze)?;
            let est = rel::join_build_bytes(r.len());
            let pairs: Vec<(&str, &str)> =
                on.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
            if should_spill(est) {
                Ok(rel::grace_join_on(&l, &r, &pairs, pool)?)
            } else {
                let _build = ChargeScope::new(est)?;
                Ok(rel::join_on_parallel(&l, &r, &pairs, pool)?)
            }
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
            // sort runs + merged permutation: one index per row, 8 bytes
            let est = 8 * r.len() as u64;
            let attrs: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            let dirs: Vec<bool> = keys.iter().map(|(_, asc)| *asc).collect();
            if should_spill(est) {
                Ok(rel::order_by_external(&r, &attrs, &dirs, pool)?)
            } else {
                let _working = ChargeScope::new(est)?;
                // per-worker local sorts + k-way merge; result is a view
                Ok(rel::order_by_parallel(&r, &attrs, &dirs, pool)?)
            }
        }
        LogicalPlan::Limit { input, n } => {
            let r = execute_inner(input, ctx, provider, analyze)?;
            Ok(rel::limit(&r, *n, 0))
        }
        LogicalPlan::TopK { input, keys, n } => {
            let r = execute_inner(input, ctx, provider, analyze)?;
            // bounded heaps: n candidates per worker, 8-byte indices —
            // already sublinear in the input, so top-k never spills. A LIMIT
            // past the input keeps every row; clamped, the charge cannot
            // overflow
            let n = (*n).min(r.len());
            let _working = ChargeScope::new(8 * (n as u64) * pool.threads() as u64)?;
            let attrs: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            let dirs: Vec<bool> = keys.iter().map(|(_, asc)| *asc).collect();
            // per-worker bounded heaps merged at the barrier
            Ok(rel::top_k_parallel(&r, &attrs, &dirs, n, pool)?)
        }
        LogicalPlan::Rma { op, args, backend } => {
            let expected = if op.is_binary() { 2 } else { 1 };
            if args.len() != expected {
                return Err(PlanError::Plan(format!(
                    "{} expects {expected} argument(s), found {}",
                    op.name(),
                    args.len()
                )));
            }
            // argument subtrees run under the caller's context; only this
            // node's kernel dispatch honours the plan-level backend choice
            let inputs: Vec<Relation> = args
                .iter()
                .map(|a| execute_inner(&a.input, ctx, provider, analyze))
                .collect::<Result<_, _>>()?;
            let before = analyze.map(|_| ctx.stats());
            let result = match backend {
                Some(b) if *b != ctx.options.backend => {
                    let sub = ctx.with_options_shared_pool(RmaOptions {
                        backend: *b,
                        ..ctx.options.clone()
                    });
                    let result = dispatch_rma(&sub, *op, args, &inputs);
                    ctx.record(&sub.stats());
                    result
                }
                _ => dispatch_rma(ctx, *op, args, &inputs),
            };
            if let Some(before) = before {
                let after = ctx.stats();
                let kernel = |s: &crate::context::ExecStats| s.compute + s.copy_in + s.copy_out;
                rma_nanos = (
                    (after.sort - before.sort).as_nanos() as u64,
                    (kernel(&after) - kernel(&before)).as_nanos() as u64,
                );
            }
            result
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
            order_nanos: rma_nanos.0,
            kernel_nanos: rma_nanos.1,
        };
    }
    Ok(result)
}

fn dispatch_rma(
    ctx: &RmaContext,
    op: crate::shape::RmaOp,
    args: &[super::RmaArg],
    inputs: &[Relation],
) -> Result<Relation, PlanError> {
    let first_order: Vec<&str> = args[0].order.iter().map(String::as_str).collect();
    if op.is_binary() {
        let second_order: Vec<&str> = args[1].order.iter().map(String::as_str).collect();
        Ok(ctx.binary_hinted(
            op,
            &inputs[0],
            &first_order,
            args[0].sorted_input,
            &inputs[1],
            &second_order,
            args[1].sorted_input,
        )?)
    } else {
        Ok(ctx.unary_hinted(op, &inputs[0], &first_order, args[0].sorted_input)?)
    }
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
