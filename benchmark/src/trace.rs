//! The traced epoch: where an iteration's time goes, layer by layer.
//!
//! Nothing inside the engine is instrumented. The harness splits each
//! statement by hand into the calls `Engine::execute` makes — parse, lower,
//! optimize, execute, materialise, catalog install — with a span around
//! each, reads the engine's counters before and after, and then *replays*
//! the operators of the optimized plan one by one (relational algebra,
//! `RmaContext` operations, the linear-algebra kernels on the matrices the
//! plan handed them) for their stand-alone times. Every traced iteration
//! has an untraced companion through `Engine::execute` in the same
//! process, so the tracing overhead is measured, not assumed.
//!
//! End-to-end metrics never come from here.

use crate::epoch::{metric, run_statements, Epoch, IterOut};
use crate::stats::{jnum, jstr, median};
use crate::workloads::Kind;
use rma_core::plan::LogicalPlan;
use rma_core::serve::Server;
use rma_core::{Backend, ExecStats, KernelUsed, RmaContext, RmaOp, RmaOptions};
use rma_linalg::{bat, dense, Matrix};
use rma_relation::{self as rel, PoolStats, QueryGuard, Relation, SessionTicket};
use rma_sql::ast::Statement;
use rma_sql::{Catalog, Engine};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Traced iterations (each with an untraced companion and a replay).
pub const ITERATIONS: usize = 5;

/// One recorded interval: what ran, when, and inside which other span.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    iteration: usize,
    start_s: f64,
    end_s: f64,
}

/// In-memory span recorder; written out once, when the epoch ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: usize,
}

impl Tracer {
    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            iteration: self.iteration,
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: 0.0,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// A span around one call.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    fn seconds(&self, id: usize) -> f64 {
        self.spans[id].end_s - self.spans[id].start_s
    }

    /// Summed duration of every span with this name.
    fn total(&self, name: &str) -> f64 {
        // an empty f64 sum is -0.0; adding 0.0 prints it as 0
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.seconds(i))
            .sum::<f64>()
            + 0.0
    }

    /// A span's duration minus the part its children cover.
    fn self_seconds(&self, id: usize) -> f64 {
        let children: f64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent == Some(id))
            .map(|i| self.seconds(i))
            .sum();
        self.seconds(id) - children
    }

    fn to_json(&self) -> String {
        let spans: Vec<String> = (0..self.spans.len())
            .map(|i| {
                let s = &self.spans[i];
                format!(
                    "{{\"id\": {i}, \"name\": {}, \"parent\": {}, \"iteration\": {}, \
                     \"start_s\": {}, \"end_s\": {}, \"self_s\": {}}}",
                    jstr(s.name),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.iteration,
                    jnum(s.start_s),
                    jnum(s.end_s),
                    jnum(self.self_seconds(i))
                )
            })
            .collect();
        format!("[\n  {}\n]\n", spans.join(",\n  "))
    }
}

/// What one traced statement produced.
enum StatementOut {
    Relation(Relation),
    /// Rows a `CREATE TABLE AS` installed.
    Installed(usize),
}

/// One statement, split into the calls `Engine::execute` makes, a span
/// around each. Also returns the optimized plan, for the replay. The
/// `serve.ctas` span covers a `CREATE TABLE AS` from lowering to install.
fn traced_statement(
    tracer: &mut Tracer,
    engine: &mut Engine,
    ticket: &SessionTicket,
    sql: &str,
) -> Result<(LogicalPlan, StatementOut), String> {
    engine.catalog.refresh();
    let statement = tracer
        .span("sql.parse", || rma_sql::parse(sql))
        .map_err(|e| e.to_string())?;
    let (select, target) = match statement {
        Statement::Select(select) => (select, None),
        Statement::CreateTableAs {
            name,
            query,
            or_replace: true,
        } => (query, Some(name)),
        other => return Err(format!("the trace cannot split {other:?}")),
    };
    let ctas = target.as_ref().map(|_| tracer.enter("serve.ctas"));
    let plan = tracer
        .span("sql.lower", || rma_sql::plan_select(&select))
        .map_err(|e| e.to_string())?;
    let plan = tracer.span("plan.optimize", || {
        rma_sql::optimizer::optimize(plan, &engine.catalog, engine.rma_context())
    });
    let result = tracer
        .span("plan.execute", || {
            let _seat = ticket.activate();
            rma_sql::executor::execute(&plan, &engine.catalog, engine.rma_context())
        })
        .map_err(|e| e.to_string())?;
    let result = tracer.span("plan.materialize", || result.materialize());
    let out = match target {
        Some(name) => {
            let rows = result.len();
            tracer.span("serve.ctas_install", || engine.catalog.put(&name, result));
            StatementOut::Installed(rows)
        }
        None => StatementOut::Relation(result),
    };
    if let Some(id) = ctas {
        tracer.exit(id);
    }
    Ok((plan, out))
}

/// One iteration, statement by statement, under an `iteration` span.
fn traced_iteration(
    tracer: &mut Tracer,
    engine: &mut Engine,
    ticket: &SessionTicket,
    statements: &[String],
    plans: &mut Vec<LogicalPlan>,
) -> (f64, Result<IterOut, String>) {
    plans.clear();
    let mut result = None;
    let mut rows_affected = None;
    let mut failure = None;
    let id = tracer.enter("iteration");
    for sql in statements {
        match traced_statement(tracer, engine, ticket, sql) {
            Ok((plan, out)) => {
                plans.push(plan);
                match out {
                    StatementOut::Relation(r) => result = Some(r),
                    StatementOut::Installed(n) => rows_affected = Some(n),
                }
            }
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    tracer.exit(id);
    let out = match (failure, result) {
        (Some(e), _) => Err(e),
        (None, None) => Err("the iteration produced no relation".to_string()),
        (None, Some(result)) => Ok(IterOut {
            result,
            rows_affected,
        }),
    };
    (tracer.seconds(id), out)
}

// The working-set weights `rma_core::plan::exec` routes operators by; the
// replay has to take the same in-memory or spilling path the plan took.
const JOIN_BUILD_BYTES: u64 = 48;
const SORT_INDEX_BYTES: u64 = 8;
const AGGREGATE_GROUP_BYTES: u64 = 32;

fn should_spill(estimate: u64) -> bool {
    rel::current_guard().is_some_and(|g| !g.fits(estimate))
}

/// Stand-alone operator times and counts, summed over one replay.
#[derive(Default)]
struct Replay {
    aggregate_s: f64,
    project_s: f64,
    join_s: f64,
    sort_s: f64,
    select_s: f64,
    other_s: f64,
    join_rows_in: f64,
    join_rows_out: f64,
    /// Whole `RmaContext` operations (split, sort, kernel, merge).
    op_s: f64,
    qr_s: f64,
    qr_flops: f64,
    from_columns_s: f64,
    from_columns_bytes: f64,
    bat_add_s: f64,
    bat_add_bytes: f64,
    crossprod_s: f64,
    inverse_s: f64,
}

impl Replay {
    fn operators_s(&self) -> f64 {
        self.aggregate_s
            + self.project_s
            + self.join_s
            + self.sort_s
            + self.select_s
            + self.other_s
            + self.op_s
    }
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = black_box(f());
    *slot += t.elapsed().as_secs_f64();
    out
}

fn strs(v: &[String]) -> Vec<&str> {
    v.iter().map(String::as_str).collect()
}

/// The application part of an RMA argument as column vectors, or `None`
/// when a column is not numeric (the kernels would not be called on it).
fn application_columns(r: &Relation, order: &[String]) -> Option<Vec<Vec<f64>>> {
    r.schema()
        .names()
        .filter(|n| !order.iter().any(|o| o == n))
        .map(|n| r.column(n).ok()?.to_f64_vec().ok())
        .collect()
}

/// Call the linear-algebra kernels directly on the matrices this RMA node
/// hands them. Input conversion is not timed unless it is the metric.
fn replay_kernels(op: RmaOp, inputs: &[Relation], orders: &[&Vec<String>], acc: &mut Replay) {
    let columns: Option<Vec<Vec<Vec<f64>>>> = inputs
        .iter()
        .zip(orders)
        .map(|(r, o)| application_columns(r, o))
        .collect();
    let Some(columns) = columns else { return };
    let (m, n) = (columns[0].first().map_or(0, Vec::len), columns[0].len());
    if m == 0 || n == 0 {
        return;
    }
    let (mf, nf) = (m as f64, n as f64);
    match op {
        RmaOp::Qqr => {
            let a = timed(&mut acc.from_columns_s, || {
                Matrix::from_columns(&columns[0])
            });
            // read m·n floats, write m·n floats
            acc.from_columns_bytes += 16.0 * mf * nf;
            if let Ok(a) = a {
                let _ = timed(&mut acc.qr_s, || dense::qr(&a));
                acc.qr_flops += 2.0 * mf * nf * nf - 2.0 / 3.0 * nf * nf * nf;
            }
        }
        RmaOp::Add => {
            let _ = timed(&mut acc.bat_add_s, || bat::add(&columns[0], &columns[1]));
            // read two operands, write one result
            acc.bat_add_bytes += 24.0 * mf * nf;
        }
        RmaOp::Cpd => {
            if let (Ok(a), Ok(b)) = (
                Matrix::from_columns(&columns[0]),
                Matrix::from_columns(&columns[1]),
            ) {
                let _ = timed(&mut acc.crossprod_s, || dense::crossprod(&a, &b));
            }
        }
        RmaOp::Inv => {
            if let Ok(a) = Matrix::from_columns(&columns[0]) {
                let _ = timed(&mut acc.inverse_s, || dense::inverse(&a));
            }
        }
        _ => {}
    }
}

/// Run the plan's operators bottom-up through the public algebra, timing
/// each on its own. Mirrors `rma_core::plan::exec` without pipeline fusion.
fn replay(
    plan: &LogicalPlan,
    catalog: &Catalog,
    ctx: &RmaContext,
    acc: &mut Replay,
) -> Result<Relation, String> {
    let pool = ctx.pool();
    let err = |e: rel::RelationError| e.to_string();
    let scan = |r: &Relation, projection: &Option<Vec<String>>, acc: &mut Replay| match projection {
        None => Ok(r.clone()),
        Some(cols) => timed(&mut acc.project_s, || rel::project(r, &strs(cols))).map_err(err),
    };
    match plan {
        LogicalPlan::Values { rel, projection } => scan(rel, projection, acc),
        LogicalPlan::Scan { table, projection } => {
            let r = catalog
                .get(table)
                .ok_or_else(|| format!("unknown table {table}"))?;
            scan(r, projection, acc)
        }
        LogicalPlan::Select { input, predicate } => {
            let r = replay(input, catalog, ctx, acc)?;
            timed(&mut acc.select_s, || {
                rel::select_parallel(&r, predicate, pool)
            })
            .map_err(err)
        }
        LogicalPlan::Project { input, items } => {
            let r = replay(input, catalog, ctx, acc)?;
            let items: Vec<(rel::Expr, &str)> =
                items.iter().map(|(e, n)| (e.clone(), n.as_str())).collect();
            timed(&mut acc.project_s, || rel::project_exprs(&r, &items)).map_err(err)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let r = replay(input, catalog, ctx, acc)?;
            let group_by = strs(group_by);
            let spill =
                !group_by.is_empty() && should_spill(AGGREGATE_GROUP_BYTES * r.len() as u64);
            timed(&mut acc.aggregate_s, || {
                if spill {
                    rel::aggregate_external(&r, &group_by, aggs, pool)
                } else {
                    rel::aggregate_parallel(&r, &group_by, aggs, pool)
                }
            })
            .map_err(err)
        }
        LogicalPlan::JoinOn { left, right, on } => {
            let l = replay(left, catalog, ctx, acc)?;
            let r = replay(right, catalog, ctx, acc)?;
            let on: Vec<(&str, &str)> = on.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
            let spill = should_spill(JOIN_BUILD_BYTES * r.len() as u64);
            let out = timed(&mut acc.join_s, || {
                if spill {
                    rel::grace_join_on(&l, &r, &on, pool)
                } else {
                    rel::join_on_parallel(&l, &r, &on, pool)
                }
            })
            .map_err(err)?;
            acc.join_rows_in += (l.len() + r.len()) as f64;
            acc.join_rows_out += out.len() as f64;
            Ok(out)
        }
        LogicalPlan::NaturalJoin { left, right } => {
            let l = replay(left, catalog, ctx, acc)?;
            let r = replay(right, catalog, ctx, acc)?;
            let spill = should_spill(JOIN_BUILD_BYTES * r.len() as u64);
            let out = timed(&mut acc.join_s, || {
                if spill {
                    rel::grace_natural_join(&l, &r, pool)
                } else {
                    rel::natural_join_parallel(&l, &r, pool)
                }
            })
            .map_err(err)?;
            acc.join_rows_in += (l.len() + r.len()) as f64;
            acc.join_rows_out += out.len() as f64;
            Ok(out)
        }
        LogicalPlan::OrderBy { input, keys } => {
            let r = replay(input, catalog, ctx, acc)?;
            let attrs: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            let ascending: Vec<bool> = keys.iter().map(|(_, a)| *a).collect();
            let spill = should_spill(SORT_INDEX_BYTES * r.len() as u64);
            timed(&mut acc.sort_s, || {
                if spill {
                    rel::order_by_external(&r, &attrs, &ascending, pool)
                } else {
                    rel::order_by_parallel(&r, &attrs, &ascending, pool)
                }
            })
            .map_err(err)
        }
        LogicalPlan::TopK { input, keys, n } => {
            let r = replay(input, catalog, ctx, acc)?;
            let attrs: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            let ascending: Vec<bool> = keys.iter().map(|(_, a)| *a).collect();
            timed(&mut acc.sort_s, || {
                rel::top_k_parallel(&r, &attrs, &ascending, *n, pool)
            })
            .map_err(err)
        }
        LogicalPlan::Limit { input, n } => {
            let r = replay(input, catalog, ctx, acc)?;
            Ok(timed(&mut acc.other_s, || rel::limit(&r, *n, 0)))
        }
        LogicalPlan::Distinct { input } => {
            let r = replay(input, catalog, ctx, acc)?;
            timed(&mut acc.other_s, || rel::distinct(&r)).map_err(err)
        }
        LogicalPlan::AssertKey { input, attrs } => {
            let r = replay(input, catalog, ctx, acc)?;
            timed(&mut acc.other_s, || r.require_key(&strs(attrs))).map_err(err)?;
            Ok(r)
        }
        LogicalPlan::Cross { left, right } => {
            let l = replay(left, catalog, ctx, acc)?;
            let r = replay(right, catalog, ctx, acc)?;
            timed(&mut acc.join_s, || rel::cross_product(&l, &r)).map_err(err)
        }
        LogicalPlan::UnionAll { left, right } => {
            let l = replay(left, catalog, ctx, acc)?;
            let r = replay(right, catalog, ctx, acc)?;
            timed(&mut acc.other_s, || rel::union_all(&l, &r)).map_err(err)
        }
        LogicalPlan::Rma { op, args, backend } => {
            let inputs: Vec<Relation> = args
                .iter()
                .map(|a| replay(&a.input, catalog, ctx, acc))
                .collect::<Result<_, _>>()?;
            let orders: Vec<&Vec<String>> = args.iter().map(|a| &a.order).collect();
            // the plan-level kernel choice, as exec's backend override
            let overridden =
                (*backend)
                    .filter(|b| *b != ctx.options.backend)
                    .map(|backend: Backend| {
                        RmaContext::new(RmaOptions {
                            backend,
                            ..ctx.options.clone()
                        })
                    });
            let ctx = overridden.as_ref().unwrap_or(ctx);
            let out = timed(&mut acc.op_s, || match inputs.as_slice() {
                [r] => ctx.unary(*op, r, &strs(orders[0])),
                [r, s] => ctx.binary(*op, r, &strs(orders[0]), s, &strs(orders[1])),
                _ => unreachable!("RMA operations take one or two arguments"),
            })
            .map_err(|e| e.to_string())?;
            replay_kernels(*op, &inputs, &orders, acc);
            Ok(out)
        }
    }
}

/// The engine's own counters, read around each traced iteration.
struct Counters {
    stats: ExecStats,
    pool: PoolStats,
    decode_sinks: u64,
}

impl Counters {
    fn read(engine: &Engine) -> Counters {
        Counters {
            stats: engine.rma_context().stats(),
            pool: engine.rma_context().pool_stats(),
            decode_sinks: rma_storage::decode_sink_events(),
        }
    }
}

/// Counter growth over the traced iterations.
#[derive(Default)]
struct Deltas {
    order_sort_s: f64,
    copy_in_s: f64,
    copy_out_s: f64,
    kernel_s: f64,
    sorts: f64,
    ops_run: f64,
    spill_bytes: f64,
    spill_partitions: f64,
    decode_sinks: f64,
    pool_jobs: f64,
    pool_queue_wait_s: f64,
    pool_busy_s: f64,
}

impl Deltas {
    fn add(&mut self, before: &Counters, after: &Counters) {
        let (a, b) = (&after.stats, &before.stats);
        self.order_sort_s += (a.sort - b.sort).as_secs_f64();
        self.copy_in_s += (a.copy_in - b.copy_in).as_secs_f64();
        self.copy_out_s += (a.copy_out - b.copy_out).as_secs_f64();
        self.kernel_s += (a.compute - b.compute).as_secs_f64();
        self.sorts += f64::from(a.sorts - b.sorts);
        self.ops_run += f64::from(a.ops_run - b.ops_run);
        self.spill_bytes += (a.spill_bytes - b.spill_bytes) as f64;
        self.spill_partitions += (a.spill_partitions - b.spill_partitions) as f64;
        self.decode_sinks += (after.decode_sinks - before.decode_sinks) as f64;
        self.pool_jobs += (after.pool.jobs_run - before.pool.jobs_run) as f64;
        self.pool_queue_wait_s += (after.pool.queue_wait - before.pool.queue_wait).as_secs_f64();
        self.pool_busy_s += (after.pool.busy - before.pool.busy).as_secs_f64();
    }
}

/// Median iteration time of the workload on a server without its memory
/// budget: the base of `relation.spill_slowdown`.
fn unbudgeted_seconds(epoch: &Epoch) -> f64 {
    let server = Server::new(RmaContext::default());
    let mut engine = Engine::session(&server);
    for (name, rel) in &epoch.inputs.tables {
        engine.register(name, rel.clone()).expect("fresh catalog");
    }
    let mut samples = Vec::new();
    for i in 0..4 {
        let t = Instant::now();
        let _ = black_box(run_statements(&mut engine, &epoch.inputs.statements));
        if i > 0 {
            samples.push(t.elapsed().as_secs_f64());
        }
    }
    median(&samples)
}

/// A layer's predicted share of the iteration on this workload.
struct Prediction {
    what: &'static str,
    share: f64,
    /// The share measured when the workloads were chosen.
    predicted: &'static str,
    holds: bool,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Run the traced protocol on a warmed-up epoch and print the per-layer
/// metrics.
pub fn run(epoch: &mut Epoch, iterations: usize, trace_out: &Path) {
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        iteration: 0,
    };
    let statements = epoch.inputs.statements.clone();
    let mut deltas = Deltas::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut plans: Vec<LogicalPlan> = Vec::new();
    let mut last_kernel = None;
    // the seat budget `Engine::session` runs its statements under
    let ticket = SessionTicket::new(epoch.server.default_budget());
    for i in 0..iterations {
        untraced.push(epoch.iterate());

        tracer.iteration = i;
        let before = Counters::read(&epoch.engine);
        let (seconds, out) = traced_iteration(
            &mut tracer,
            &mut epoch.engine,
            &ticket,
            &statements,
            &mut plans,
        );
        traced.push(seconds);
        let after = Counters::read(&epoch.engine);
        deltas.add(&before, &after);
        last_kernel = after.stats.last_kernel;
        epoch.check(out, before.stats.spill_bytes);
    }

    // replay the operators of the last traced iteration's plans, once per
    // traced iteration, under the guard the plans ran under
    let mut acc = Replay::default();
    let ctx = epoch.engine.rma_context().fork();
    let budget = epoch.inputs.mem_budget as u64;
    let mut replay_error = None;
    for _ in 0..iterations {
        let guard = (budget > 0).then(|| QueryGuard::with_limits(None, budget));
        let _active = guard.as_ref().map(QueryGuard::activate);
        for plan in &plans {
            if let Err(e) = replay(plan, &epoch.engine.catalog, &ctx, &mut acc) {
                replay_error.get_or_insert(e);
            }
        }
    }
    if let Some(e) = replay_error {
        println!("F replay: {}", e.replace('\n', " "));
        metric("replay_failed", 1.0);
    }

    let mut encode_s = 0.0;
    for (_, table) in &epoch.inputs.tables {
        timed(&mut encode_s, || table.encoded());
    }
    let slowdown = if budget > 0 {
        ratio(median(&untraced), unbudgeted_seconds(epoch))
    } else {
        1.0 // no budget: this configuration is the base
    };
    let snapshot = epoch.server.metrics_snapshot();
    let input_bytes = snapshot.storage_plain_bytes as f64;

    let n = iterations.max(1) as f64;
    let per = |x: f64| x / n;
    let iteration_s = per(tracer.total("iteration"));
    metric("trace.iteration_s", iteration_s);
    metric(
        "trace.overhead_frac",
        ratio(median(&traced), median(&untraced)) - 1.0,
    );
    metric("trace.spans", tracer.spans.len() as f64);
    for name in [
        "sql.parse",
        "sql.lower",
        "plan.optimize",
        "plan.execute",
        "plan.materialize",
        "serve.ctas",
        "serve.ctas_install",
    ] {
        metric(&format!("{name}_s"), per(tracer.total(name)));
    }
    metric(
        "plan.exec_over_replay",
        ratio(tracer.total("plan.execute"), acc.operators_s()),
    );
    metric("serve.queries", snapshot.queries as f64);
    metric("serve.mem_rejections", snapshot.mem_rejections as f64);
    metric("relation.aggregate_s", per(acc.aggregate_s));
    metric("relation.project_s", per(acc.project_s));
    metric("relation.join_s", per(acc.join_s));
    metric("relation.sort_s", per(acc.sort_s));
    metric("relation.select_s", per(acc.select_s));
    metric("relation.join_rows_in", per(acc.join_rows_in));
    metric("relation.join_rows_out", per(acc.join_rows_out));
    metric(
        "relation.rows_in_per_row_out",
        ratio(acc.join_rows_in, acc.join_rows_out),
    );
    metric("relation.pool_jobs", per(deltas.pool_jobs));
    metric("relation.pool_queue_wait_s", per(deltas.pool_queue_wait_s));
    metric("relation.pool_busy_s", per(deltas.pool_busy_s));
    let threads = epoch.engine.rma_context().pool_stats().threads as f64;
    metric(
        "relation.pool_util",
        ratio(deltas.pool_busy_s, threads * tracer.total("iteration")),
    );
    metric("relation.spill_bytes", per(deltas.spill_bytes));
    metric("relation.spill_partitions", per(deltas.spill_partitions));
    metric(
        "relation.spill_bytes_per_input_byte",
        ratio(per(deltas.spill_bytes), input_bytes),
    );
    metric("relation.spill_slowdown", slowdown);
    metric(
        "relation.live_spill_files_end",
        rel::live_spill_files() as f64,
    );
    metric("storage.encode_s", encode_s);
    metric(
        "storage.encoded_bytes",
        snapshot.storage_encoded_bytes as f64,
    );
    metric("storage.plain_bytes", snapshot.storage_plain_bytes as f64);
    metric(
        "storage.encoded_frac",
        ratio(snapshot.storage_encoded_bytes as f64, input_bytes),
    );
    metric("storage.decode_sinks", per(deltas.decode_sinks));
    metric("core.op_s", per(acc.op_s));
    metric("core.order_sort_s", per(deltas.order_sort_s));
    metric("core.copy_in_s", per(deltas.copy_in_s));
    metric("core.copy_out_s", per(deltas.copy_out_s));
    metric("core.kernel_s", per(deltas.kernel_s));
    let copies = deltas.copy_in_s + deltas.copy_out_s;
    metric(
        "core.transform_share",
        ratio(copies, copies + deltas.kernel_s),
    );
    metric("core.sorts", per(deltas.sorts));
    metric("core.ops_run", per(deltas.ops_run));
    metric(
        "core.kernel_dense",
        f64::from(u8::from(last_kernel == Some(KernelUsed::Dense))),
    );
    metric("linalg.qr_s", per(acc.qr_s));
    metric("linalg.qr_gflops", ratio(acc.qr_flops, acc.qr_s) / 1e9);
    metric("linalg.from_columns_s", per(acc.from_columns_s));
    metric(
        "linalg.from_columns_gbps",
        ratio(acc.from_columns_bytes, acc.from_columns_s) / 1e9,
    );
    metric("linalg.bat_add_s", per(acc.bat_add_s));
    metric(
        "linalg.bat_add_gbps",
        ratio(acc.bat_add_bytes, acc.bat_add_s) / 1e9,
    );
    metric("linalg.crossprod_s", per(acc.crossprod_s));
    metric("linalg.inverse_s", per(acc.inverse_s));

    // the predictions the workloads were chosen on
    let share = |seconds: f64| ratio(seconds, tracer.total("iteration"));
    let at_least = |what, seconds, predicted| Prediction {
        what,
        share: share(seconds),
        predicted,
        holds: share(seconds) >= 0.5,
    };
    let at_most = |what, seconds, limit: f64, predicted| Prediction {
        what,
        share: share(seconds),
        predicted,
        holds: share(seconds) <= limit,
    };
    let mut predictions = vec![at_most(
        "sql.parse_s+sql.lower_s",
        tracer.total("sql.parse") + tracer.total("sql.lower"),
        0.01,
        "under 0.01",
    )];
    match epoch.inputs.kind {
        Kind::TripsOls => {
            predictions.push(at_least("serve.ctas_s", tracer.total("serve.ctas"), "0.83"))
        }
        Kind::QqrTall => {
            predictions.push(at_least("linalg.qr_s", acc.qr_s, "0.82"));
            predictions.push(at_most(
                "core.order_sort_s",
                deltas.order_sort_s,
                0.1,
                "bypass, under 0.1",
            ));
            predictions.push(at_most("relation.join_s", acc.join_s, 0.1, "bypass, 0"));
        }
        Kind::TripcountAdd => {
            predictions.push(at_least("core.order_sort_s", deltas.order_sort_s, "0.90"));
            predictions.push(at_most("linalg.qr_s", acc.qr_s, 0.1, "bypass, 0"));
        }
        Kind::SpillSortJoin => predictions.push(at_least(
            "relation.join_s+relation.sort_s",
            acc.join_s + acc.sort_s,
            "0.94",
        )),
    }
    for p in &predictions {
        println!(
            "P {} share={:.4} predicted={} {}",
            p.what,
            p.share,
            p.predicted.replace(' ', "_"),
            if p.holds { "ok" } else { "FAILED" }
        );
    }
    metric(
        "prediction_failures",
        predictions.iter().filter(|p| !p.holds).count() as f64,
    );

    if let Some(dir) = trace_out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(trace_out, tracer.to_json()) {
        eprintln!("cannot write {}: {e}", trace_out.display());
    }
}
