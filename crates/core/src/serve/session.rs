//! Servers and sessions: concurrent query front ends over the versioned
//! catalog and the shared worker pool.

use super::catalog::{CatalogSnapshot, VersionedCatalog};
use super::metrics::{MetricsRegistry, MetricsSnapshot, SessionCounters};
use super::{Backoff, ServeError};
use crate::context::{ExecStats, RmaContext};
use crate::error::RmaError;
use crate::plan::{
    execute, execute_analyzed, optimize, stats, Frame, LogicalPlan, NodeActual, PlanError,
    TableProvider,
};
use rma_relation::{par::fault::FaultPlan, QueryGuard, Relation, SessionTicket};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The default per-session seat budget: half the pool (at least two seats
/// when the pool has more than one thread), so two heavy sessions saturate
/// the machine but a single one always leaves room for others.
fn default_budget(pool_threads: usize) -> usize {
    if pool_threads <= 1 {
        1
    } else {
        (pool_threads / 2).max(2)
    }
}

/// A serving endpoint: one versioned catalog plus one base execution
/// context (and with it one worker pool) shared by every session. Cheap to
/// clone — clones serve the same catalog. `Sync`: hand `Arc<Server>` or a
/// clone to each connection thread and open a [`Session`] per connection.
#[derive(Debug, Clone, Default)]
pub struct Server {
    catalog: Arc<VersionedCatalog>,
    ctx: Arc<RmaContext>,
    metrics: Arc<MetricsRegistry>,
}

impl Server {
    /// A server with an empty catalog executing on `ctx`'s worker pool.
    pub fn new(ctx: RmaContext) -> Self {
        Server {
            catalog: Arc::new(VersionedCatalog::new()),
            ctx: Arc::new(ctx),
            metrics: Arc::new(MetricsRegistry::default()),
        }
    }

    /// The shared versioned catalog.
    pub fn catalog(&self) -> &Arc<VersionedCatalog> {
        &self.catalog
    }

    /// The server's base execution context (sessions fork it).
    pub fn context(&self) -> &RmaContext {
        &self.ctx
    }

    /// The server's metrics registry: every [`Session`] opened on the
    /// server — the SQL engine's included — registers its counter cell
    /// here.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Snapshot the server's engine metrics: per-session counters, their
    /// totals, the worker pool's gauges (queue depth, queue-wait and
    /// busy time, utilization), and the catalog's storage footprint as
    /// physically held vs fully decoded (the live compression ratio).
    /// JSON via [`MetricsSnapshot::to_json`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot(self.ctx.pool().stats());
        let catalog = self.catalog.snapshot();
        for name in catalog.table_names() {
            let Some(tab) = catalog.get(name) else {
                continue;
            };
            for c in tab.relation().columns().iter() {
                snap.storage_encoded_bytes += c.encoded_bytes() as u64;
                snap.storage_plain_bytes += c.plain_bytes() as u64;
            }
        }
        snap
    }

    /// The seat budget [`Server::session`] assigns: half the pool, at
    /// least two seats on a multi-threaded pool.
    pub fn default_budget(&self) -> usize {
        default_budget(self.ctx.pool().threads())
    }

    /// Open a session with the default seat budget (half the pool).
    pub fn session(&self) -> Session {
        self.session_with_budget(self.default_budget())
    }

    /// Open a session whose morsel jobs may occupy at most `seats` pool
    /// workers at once (`0` = no limit). Every session gets a fresh
    /// [`SessionTicket`] — the fair scheduler interleaves jobs across
    /// tickets by stride, so sessions share the pool evenly
    /// regardless of submission order.
    pub fn session_with_budget(&self, seats: usize) -> Session {
        Session {
            catalog: Arc::clone(&self.catalog),
            ctx: self.ctx.fork(),
            ticket: SessionTicket::new(seats),
            counters: self.metrics.register_session(),
            deadline_ns: AtomicU64::new(0),
            mem_budget: AtomicU64::new(0),
            active: Mutex::new(None),
            fault: Mutex::new(None),
        }
    }
}

/// `ctx.into()`: promote an execution context to a serving endpoint with
/// an empty catalog — the serve-layer spelling of "start sessions here".
impl From<RmaContext> for Server {
    fn from(ctx: RmaContext) -> Self {
        Server::new(ctx)
    }
}

/// Cap on the optimistic-commit attempts of [`Session::insert`] before
/// [`ServeError::Contention`].
pub(crate) const WRITE_RETRIES: u32 = 16;

/// One client's handle onto a [`Server`]: issues queries against pinned
/// catalog snapshots and writes through the first-committer-wins protocol.
///
/// A session is `Sync` (queries may be issued from several threads of one
/// client), but the intended concurrency unit is one session per
/// connection: the session's [`SessionTicket`] is what the fair scheduler
/// budgets, and its forked context is what its [`ExecStats`] attribute to.
#[derive(Debug)]
pub struct Session {
    catalog: Arc<VersionedCatalog>,
    ctx: RmaContext,
    ticket: SessionTicket,
    counters: Arc<SessionCounters>,
    /// Per-query deadline in nanoseconds (0 = inherit the context option,
    /// which itself defaults to none).
    deadline_ns: AtomicU64,
    /// Per-query memory budget in bytes (0 = inherit the context option,
    /// which itself defaults to unlimited).
    mem_budget: AtomicU64,
    /// The guard of the query currently executing on this session, so
    /// [`Session::cancel`] can reach it from another thread.
    active: Mutex<Option<QueryGuard>>,
    /// One-shot fault plan armed for the next query
    /// ([`Session::inject_fault`], tests only).
    fault: Mutex<Option<FaultPlan>>,
}

impl Session {
    /// Run a [`Frame`] query against a snapshot pinned at call time: the
    /// query sees every table as of one catalog version, unaffected by
    /// concurrent commits, and resolves named scans
    /// ([`Frame::table`]) through the pin.
    pub fn query(&self, frame: Frame) -> Result<Relation, PlanError> {
        self.query_at(&self.pin(), frame)
    }

    /// Optimize a [`Frame`] and run it against an explicitly pinned
    /// snapshot (several queries against one pin see the identical
    /// database state), under the session's governor ([`Session::execute`]).
    pub fn query_at(&self, snap: &CatalogSnapshot, frame: Frame) -> Result<Relation, PlanError> {
        let plan = self.optimize(frame.into_plan(), snap);
        self.execute(&plan, snap)
    }

    /// Optimize a plan under this session's memory budget, so EXPLAIN's
    /// `backend=` names the kernels [`Session::execute`] runs.
    pub fn optimize(&self, plan: LogicalPlan, provider: &dyn TableProvider) -> LogicalPlan {
        let _limits = QueryGuard::with_limits(None, self.mem_budget()).activate();
        optimize(plan, &self.ctx, provider)
    }

    /// Execute an already-optimized plan under the session's governor,
    /// resolving tables through `provider`, and materialize the result.
    /// Every query of the session runs here — [`Session::query_at`] for a
    /// [`Frame`], the SQL engine for its SELECT and CREATE TABLE AS:
    ///
    /// 1. **Admission**: with a memory budget, the cost model estimates
    ///    the plan's result footprint and rejects hopeless plans before
    ///    they touch the pool (`RmaError::ResourceExhausted`) — unless the
    ///    plan contains a spillable operator ([`crate::plan::spillable`]),
    ///    which is admitted and runs out-of-core under the budget.
    /// 2. **Execution under a guard**: a fresh [`QueryGuard`] holds the
    ///    session's limits (its own [`Session::set_deadline`] /
    ///    [`Session::set_mem_budget`] values, else the context's
    ///    `RmaOptions::{deadline, mem_budget}`) plus any armed fault plan,
    ///    and governs every morsel claim and operator boundary;
    ///    [`Session::cancel`] reaches it from any thread. The session's
    ///    ticket is active for the duration, so every morsel job the plan
    ///    submits is seat-budgeted and fairly scheduled.
    /// 3. **Panic containment**: an operator panic is caught *here* —
    ///    never inside the pool, whose own state stays clean — and
    ///    returned as `RmaError::WorkerPanicked`.
    /// 4. **Accounting**: the query, its result rows, its spill and
    ///    decode-sink activity and every governor action increment the
    ///    session's [`SessionCounters`].
    pub fn execute(
        &self,
        plan: &LogicalPlan,
        provider: &dyn TableProvider,
    ) -> Result<Relation, PlanError> {
        let (out, _) = self.govern(plan, provider, || {
            Ok((
                execute(plan, &self.ctx, provider)?.materialize(),
                Vec::new(),
            ))
        })?;
        Ok(out)
    }

    /// [`Session::execute`] with per-node profiling: the result plus one
    /// [`NodeActual`] per plan node (the EXPLAIN ANALYZE path).
    pub fn execute_analyzed(
        &self,
        plan: &LogicalPlan,
        provider: &dyn TableProvider,
    ) -> Result<(Relation, Vec<NodeActual>), PlanError> {
        self.govern(plan, provider, || {
            execute_analyzed(plan, &self.ctx, provider)
        })
    }

    /// The governor behind [`Session::execute`]: admission, guard,
    /// ticket, panic containment and counting around one plan run.
    fn govern(
        &self,
        plan: &LogicalPlan,
        provider: &dyn TableProvider,
        run: impl FnOnce() -> Result<(Relation, Vec<NodeActual>), PlanError>,
    ) -> Result<(Relation, Vec<NodeActual>), PlanError> {
        self.counters.record_query();
        let budget = self.mem_budget();
        if budget > 0 {
            let est = stats::estimate(plan, provider);
            // result footprint ≈ rows × columns × 8-byte cells; the width is
            // the exact one where the plan fixes it (RMA nodes carry no
            // column map), else the columns with statistics, at least 1
            let width = est.exact.map_or(est.cols.len(), |(_, cols)| cols);
            let est_bytes = (est.rows.max(0.0) as u64)
                .saturating_mul(width.max(1) as u64)
                .saturating_mul(8);
            // a plan with a spillable operator (join / sort / keyed
            // aggregation) is admitted even over the estimate: the
            // out-of-core operators bound its resident working set, so
            // "too big for memory" now means "runs spilled", not "rejected"
            if est_bytes > budget && !crate::plan::spillable(plan) {
                self.counters.record_mem_rejection();
                return Err(PlanError::Rma(RmaError::ResourceExhausted {
                    needed: est_bytes,
                    budget,
                }));
            }
        }
        let deadline = self.deadline();
        let guard = match self
            .fault
            .lock()
            .expect("session fault slot poisoned")
            .take()
        {
            Some(plan) => QueryGuard::with_fault(deadline, budget, plan),
            None => QueryGuard::with_limits(deadline, budget),
        };
        *self.active.lock().expect("session guard slot poisoned") = Some(guard.clone());
        let result = {
            let _seat = self.ticket.activate();
            let _gov = guard.activate();
            // AssertUnwindSafe: on Err every captured structure is either
            // dropped (guard) or internally synchronized and poison-free
            // (table provider, pool, atomics), so nothing torn is ever
            // observed afterwards
            catch_unwind(AssertUnwindSafe(run))
        };
        *self.active.lock().expect("session guard slot poisoned") = None;
        self.counters.record_guard(&guard);
        let out = match result {
            Ok(r) => r,
            Err(payload) => {
                self.counters.record_worker_panic();
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                return Err(PlanError::Rma(RmaError::WorkerPanicked { message }));
            }
        };
        match &out {
            Err(PlanError::Rma(RmaError::Cancelled)) => self.counters.record_cancelled(),
            Err(PlanError::Rma(RmaError::DeadlineExceeded)) => self.counters.record_deadline_kill(),
            Err(PlanError::Rma(RmaError::ResourceExhausted { .. })) => {
                self.counters.record_mem_rejection()
            }
            _ => {}
        }
        let out = out?;
        self.counters.record_rows(out.0.len() as u64);
        Ok(out)
    }

    /// Cancel the query currently executing on this session, if any:
    /// its workers stop claiming morsels within one morsel's work and the
    /// query returns `RmaError::Cancelled`. Callable from any thread;
    /// returns whether a running query was actually signalled. A session
    /// with no query in flight is untouched (cancellation does not latch).
    pub fn cancel(&self) -> bool {
        match &*self.active.lock().expect("session guard slot poisoned") {
            Some(g) => {
                g.cancel();
                true
            }
            None => false,
        }
    }

    /// Set (or clear) the per-query deadline applied to subsequent
    /// queries, measured from each query's start (`None` = inherit
    /// `RmaOptions::deadline`, itself `None` = no deadline by default).
    pub fn set_deadline(&self, deadline: Option<Duration>) {
        self.deadline_ns.store(
            deadline.map_or(0, |d| (d.as_nanos() as u64).max(1)),
            Ordering::Relaxed,
        );
    }

    /// Set the per-query memory budget in bytes (`0` = inherit
    /// `RmaOptions::mem_budget`, itself 0-as-unlimited by default): later
    /// queries' guards hold it, so it steers kernels as it steers spills.
    pub fn set_mem_budget(&self, bytes: u64) {
        self.mem_budget.store(bytes, Ordering::Relaxed);
    }

    /// The deadline queries of this session are held to: the session
    /// value when set, else the context option.
    fn deadline(&self) -> Option<Duration> {
        match self.deadline_ns.load(Ordering::Relaxed) {
            0 => self.ctx.options.deadline,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    /// The budget queries of this session are planned and held to: the
    /// session value when set, else the context option.
    fn mem_budget(&self) -> u64 {
        match self.mem_budget.load(Ordering::Relaxed) {
            0 => self.ctx.options.mem_budget as u64,
            b => b,
        }
    }

    /// Arm a one-shot fault plan for the next query on this session
    /// (deterministic robustness testing; see
    /// [`rma_relation::par::fault`]).
    pub fn inject_fault(&self, plan: FaultPlan) {
        *self.fault.lock().expect("session fault slot poisoned") = Some(plan);
    }

    /// Pin the current catalog state (O(1), lock-free thereafter).
    pub fn pin(&self) -> CatalogSnapshot {
        self.catalog.snapshot()
    }

    /// Append `rows` to a table through the optimistic commit loop:
    /// pin → prepare the successor generation
    /// ([`Relation::appended`]) → first-committer-wins commit; on a
    /// [`ServeError::WriteConflict`] the loop re-pins and re-prepares
    /// after a decorrelated-jitter [`Backoff`] sleep, so concurrent
    /// appenders all land (in some serial order) without ever blocking
    /// readers. Attempts are capped at 16; exhausting the cap returns
    /// [`ServeError::Contention`] rather than looping unboundedly under
    /// pathological write pressure. Returns the catalog version that
    /// installed the rows.
    pub fn insert(&self, table: &str, rows: &Relation) -> Result<u64, ServeError> {
        let mut backoff = Backoff::default();
        for attempt in 1..=WRITE_RETRIES {
            let snap = self.pin();
            let Some(generation) = snap.get(table) else {
                return Err(ServeError::NoSuchTable(table.to_string()));
            };
            let next = generation
                .relation()
                .appended(rows)
                .map_err(ServeError::Relation)?;
            match self.catalog.commit(table, generation.generation(), next) {
                Ok(version) => return Ok(version),
                Err(ServeError::WriteConflict { .. }) => {
                    self.counters.record_conflict();
                    if attempt < WRITE_RETRIES {
                        backoff.sleep();
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(ServeError::Contention {
            table: table.to_string(),
            retries: WRITE_RETRIES,
        })
    }

    /// Create a table (errors if the name exists).
    pub fn create_table(&self, name: &str, rel: Relation) -> Result<u64, ServeError> {
        self.catalog.create(name, rel)
    }

    /// Create or overwrite a table unconditionally.
    pub fn create_or_replace(&self, name: &str, rel: Relation) -> u64 {
        self.catalog.create_or_replace(name, rel)
    }

    /// Drop a table (errors if absent). Pinned readers keep their view.
    pub fn drop_table(&self, name: &str) -> Result<u64, ServeError> {
        self.catalog.drop_table(name)
    }

    /// The session's scheduling ticket.
    pub fn ticket(&self) -> &SessionTicket {
        &self.ticket
    }

    /// The session's metrics counter cell (queries, rows, conflicts,
    /// retries) — the same cell the server's
    /// [`MetricsRegistry`](super::MetricsRegistry) snapshots.
    pub fn counters(&self) -> &Arc<SessionCounters> {
        &self.counters
    }

    /// The session's private execution context (shared pool, own stats).
    pub fn context(&self) -> &RmaContext {
        &self.ctx
    }

    /// Execution statistics of **this session only** — concurrent sessions
    /// on one server do not pollute each other's counters.
    pub fn stats(&self) -> ExecStats {
        self.ctx.stats()
    }

    /// Zero this session's statistics.
    pub fn reset_stats(&self) {
        self.ctx.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma_relation::{AggSpec, RelationBuilder};
    use rma_storage::Value;

    fn rel(xs: Vec<i64>) -> Relation {
        RelationBuilder::new().column("x", xs).build().unwrap()
    }

    fn sum_of(s: &Session, table: &str) -> i64 {
        let r = s
            .query(Frame::table(table).aggregate(&[], vec![AggSpec::sum("x", "s")]))
            .unwrap();
        match r.column("s").unwrap().get(0) {
            Value::Int(v) => v,
            other => panic!("unexpected sum {other:?}"),
        }
    }

    #[test]
    fn session_queries_pinned_snapshots() {
        let server = Server::default();
        let writer = server.session();
        let reader = server.session();
        writer.create_table("t", rel(vec![1, 2, 3])).unwrap();
        assert_eq!(sum_of(&reader, "t"), 6);
        // a pinned snapshot shields a multi-query read from a concurrent
        // insert; a fresh query sees it
        let pin = reader.pin();
        writer.insert("t", &rel(vec![10])).unwrap();
        let before = reader
            .query_at(
                &pin,
                Frame::table("t").aggregate(&[], vec![AggSpec::sum("x", "s")]),
            )
            .unwrap();
        assert_eq!(before.column("s").unwrap().get(0), Value::Int(6));
        assert_eq!(sum_of(&reader, "t"), 16);
    }

    #[test]
    fn insert_retries_past_conflicts() {
        let server = Server::default();
        let s = server.session();
        s.create_table("t", rel(vec![0])).unwrap();
        std::thread::scope(|scope| {
            for k in 0..4 {
                let session = server.session();
                scope.spawn(move || {
                    for i in 0..10 {
                        session.insert("t", &rel(vec![k * 100 + i])).unwrap();
                    }
                });
            }
        });
        let r = s
            .query(Frame::table("t").aggregate(&[], vec![AggSpec::count_star("n")]))
            .unwrap();
        assert_eq!(r.column("n").unwrap().get(0), Value::Int(41));
    }

    #[test]
    fn per_session_stats_do_not_mix() {
        let server = Server::default();
        let busy = server.session();
        let idle = server.session();
        busy.create_table("m", {
            RelationBuilder::new()
                .column("k", vec!["a", "b"])
                .column("v1", vec![2.0f64, 0.0])
                .column("v2", vec![0.0f64, 2.0])
                .build()
                .unwrap()
        })
        .unwrap();
        // an RMA operation records ops_run on the issuing session only
        let inverted = busy
            .query(Frame::table("m").rma_unary(crate::shape::RmaOp::Inv, &["k"]))
            .unwrap();
        assert_eq!(inverted.len(), 2);
        assert!(busy.stats().ops_run >= 1);
        assert_eq!(idle.stats().ops_run, 0);
        assert_eq!(server.context().stats().ops_run, 0);
    }

    #[test]
    fn budgets_and_tickets_are_per_session() {
        let server = Server::default();
        let a = server.session_with_budget(2);
        let b = server.session_with_budget(0);
        assert_eq!(a.ticket().seats(), 2);
        assert_eq!(b.ticket().seats(), 0);
        assert_eq!(default_budget(1), 1);
        assert_eq!(default_budget(2), 2);
        assert_eq!(default_budget(8), 4);
    }

    #[test]
    fn deadline_kill_returns_typed_error_and_counts() {
        let server = Server::default();
        let s = server.session();
        let n = 4096;
        s.create_table("t", rel((0..n).collect())).unwrap();
        s.set_deadline(Some(Duration::from_nanos(1)));
        let err = s
            .query(Frame::table("t").aggregate(&[], vec![AggSpec::sum("x", "s")]))
            .unwrap_err();
        assert!(
            matches!(err, PlanError::Rma(RmaError::DeadlineExceeded)),
            "got {err:?}"
        );
        assert_eq!(s.counters().snapshot().deadline_kills, 1);
        // the session is not poisoned: clearing the deadline works
        s.set_deadline(None);
        assert_eq!(sum_of(&s, "t"), (0..n).sum::<i64>());
    }

    #[test]
    fn admission_rejects_over_budget_queries() {
        let server = Server::default();
        let s = server.session();
        s.create_table("t", rel((0..1000).collect())).unwrap();
        s.set_mem_budget(64); // far below 1000 rows × 8 bytes
        let err = s.query(Frame::table("t")).unwrap_err();
        match err {
            PlanError::Rma(RmaError::ResourceExhausted { needed, budget }) => {
                assert_eq!(budget, 64);
                assert!(needed > 64, "estimate {needed} should exceed the budget");
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        assert_eq!(s.counters().snapshot().mem_rejections, 1);
        // budget 0 = unlimited restores service
        s.set_mem_budget(0);
        assert_eq!(s.query(Frame::table("t")).unwrap().len(), 1000);
    }

    #[test]
    fn admission_counts_an_rma_results_full_width() {
        // 5 000 × 41: a key and 40 application columns; qqr keeps the shape,
        // so the result is 5 000 × 41 × 8 B = 1.64 MB, not 40 000 B
        let mut b = RelationBuilder::new().column("k0", (0..5_000i64).collect::<Vec<_>>());
        for c in 0..40 {
            let col: Vec<f64> = (0..5_000).map(|i| ((i * 7 + c) % 13) as f64).collect();
            b = b.column(format!("a{c}"), col);
        }
        let server = Server::default();
        let s = server.session();
        s.create_table("t", b.build().unwrap()).unwrap();
        s.set_mem_budget(100_000);
        let qqr = Frame::table("t").rma_unary(crate::shape::RmaOp::Qqr, &["k0"]);
        let err = s.query(qqr).unwrap_err();
        match err {
            PlanError::Rma(RmaError::ResourceExhausted { needed, budget }) => {
                assert_eq!((needed, budget), (5_000 * 41 * 8, 100_000));
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        assert_eq!(s.counters().snapshot().mem_rejections, 1);
    }

    #[test]
    fn injected_panic_becomes_typed_error_and_session_survives() {
        use rma_relation::par::fault::{FaultKind, FaultPlan};
        // a multi-threaded pool so morsel claim loops (and their fault
        // polls) actually run, whatever machine hosts the test
        let ctx = RmaContext::new(crate::RmaOptions {
            threads: 2,
            ..Default::default()
        });
        let server = Server::new(ctx);
        let s = server.session();
        let n = 100_000; // large enough for parallel morsel claims
        s.create_table("t", rel((0..n).collect())).unwrap();
        s.inject_fault(FaultPlan::new(FaultKind::Panic, 0));
        let err = s
            .query(Frame::table("t").aggregate(&[], vec![AggSpec::sum("x", "s")]))
            .unwrap_err();
        // the panic fires on whichever thread claims the chosen morsel:
        // on the submitter the payload carries the injection message, on a
        // pool worker it surfaces via the pool's re-panic — both must
        // arrive as the typed variant
        assert!(
            matches!(&err, PlanError::Rma(RmaError::WorkerPanicked { .. })),
            "got {err:?}"
        );
        assert_eq!(s.counters().snapshot().worker_panics, 1);
        // the fault plan was one-shot and nothing is poisoned
        assert_eq!(sum_of(&s, "t"), (0..n).sum::<i64>());
    }

    #[test]
    fn cancel_without_running_query_is_a_noop() {
        let server = Server::default();
        let s = server.session();
        s.create_table("t", rel(vec![1, 2])).unwrap();
        assert!(!s.cancel(), "no query in flight to signal");
        assert_eq!(sum_of(&s, "t"), 3, "cancellation must not latch");
        assert_eq!(s.counters().snapshot().queries_cancelled, 0);
    }

    #[test]
    fn insert_gives_up_under_synthetic_contention() {
        let server = Server::default();
        let s = server.session();
        s.create_table("t", rel(vec![0])).unwrap();
        // make every commit lose the race: move the generation between the
        // session's pin and its commit by racing a tight writer loop
        let stop = std::sync::atomic::AtomicBool::new(false);
        let err = std::thread::scope(|scope| {
            let racer = server.session();
            let stop_ref = &stop;
            scope.spawn(move || {
                while !stop_ref.load(Ordering::Relaxed) {
                    let _ = racer.insert("t", &rel(vec![7]));
                }
            });
            // with a saturating racer, some insert may exhaust the
            // 16-attempt cap
            let mut last = None;
            for _ in 0..200 {
                if let Err(e) = s.insert("t", &rel(vec![1])) {
                    last = Some(e);
                    break;
                }
            }
            stop.store(true, Ordering::Relaxed);
            last
        });
        if let Some(e) = err {
            assert_eq!(
                e,
                ServeError::Contention {
                    table: "t".to_string(),
                    retries: WRITE_RETRIES
                }
            );
        }
        // contention or not, the session keeps serving
        assert!(s.query(Frame::table("t")).is_ok());
    }

    #[test]
    fn insert_reports_a_schema_mismatch_typed() {
        let server = Server::default();
        let s = server.session();
        s.create_table("t", rel(vec![1])).unwrap();
        let floats = RelationBuilder::new()
            .column("y", vec![1.5f64])
            .build()
            .unwrap();
        let err = s.insert("t", &floats).unwrap_err();
        assert!(matches!(err, ServeError::Relation(_)), "got {err:?}");
        assert_eq!(
            s.insert("missing", &rel(vec![1])),
            Err(ServeError::NoSuchTable("missing".to_string()))
        );
        assert_eq!(sum_of(&s, "t"), 1, "a rejected insert commits nothing");
    }

    #[test]
    fn dropped_table_stays_readable_through_pin() {
        let server = Server::default();
        let s = server.session();
        s.create_table("t", rel(vec![5])).unwrap();
        let pin = s.pin();
        s.drop_table("t").unwrap();
        assert!(s.query(Frame::table("t")).is_err(), "fresh query: gone");
        let r = s.query_at(&pin, Frame::table("t")).unwrap();
        assert_eq!(r.len(), 1, "pinned query still sees the table");
    }
}
