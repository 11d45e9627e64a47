//! Execution options, kernel delegation policy, and instrumentation.
//!
//! The paper's query optimizer "decides about external library calls based
//! on the complexity of the operation, the amount of data to be copied, and
//! the relative performance" (§7.3). [`Backend::Auto`] encodes that policy;
//! [`ExecStats`] measures the data-transformation share reported in Fig. 14.

use crate::shape::RmaOp;
use rma_relation::{current_guard, should_spill, PoolStats, QueryGuard, WorkerPool};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Which kernel family computes base results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The paper's policy: element-wise operations stay on BATs, complex
    /// operations are delegated to the dense (MKL-role) kernel unless the
    /// query's guard has no headroom for the dense copy, in which case the
    /// no-copy BAT kernel is used where available.
    #[default]
    Auto,
    /// Force the no-copy column-at-a-time kernels (RMA+BAT). Operations
    /// without a BAT implementation (SVD/eigen) still fall back to dense.
    Bat,
    /// Force the dense contiguous kernels (RMA+MKL), copying in and out.
    Dense,
}

/// Sorting policy for order-schema handling (§8.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortPolicy {
    /// Skip sorting for operations whose result does not depend on the row
    /// order, and use relative alignment for element-wise operations.
    #[default]
    Optimized,
    /// Always materialise the full sort of every argument (the unoptimised
    /// baseline of Fig. 13).
    Always,
}

/// Options controlling RMA execution.
#[derive(Debug, Clone)]
pub struct RmaOptions {
    /// Which kernel family computes base results ([`Backend::Auto`] is the
    /// paper's policy).
    pub backend: Backend,
    /// Order-schema sorting policy (§8.1).
    pub sort_policy: SortPolicy,
    /// Worker threads for *plan execution*. Sizes the context's session
    /// [`WorkerPool`] (created at context construction; contexts at the
    /// default count share one process-wide pool). The plan interpreter is
    /// the same at every count: each relational operator with a pooled body
    /// (selection, hash joins, aggregation, sort/top-k) runs its morsels on
    /// that pool when it has more than one worker and enough input rows, so
    /// `1` runs every operator serially. The dense kernels in `rma-linalg`
    /// run on the same pool ([`RmaContext::on_pool`]), so `1` runs them
    /// serially too and a larger count parallelises them across exactly
    /// this context's workers. Defaults to [`default_threads`].
    pub threads: usize,
    /// Per-query memory budget in bytes (`0` = unlimited, the default):
    /// only the limit of the `QueryGuard` a plan or an eager operation
    /// mints when none is active, and of a session's queries unless
    /// `serve::Session::set_mem_budget` overrides it. Every memory
    /// decision reads that guard: operators charge their working sets on
    /// it or spill, a breach aborts the query with
    /// `RmaError::ResourceExhausted`, a session runs admission against it,
    /// and [`Backend::Auto`] sends a dense copy it has no room for to BATs
    /// ([`RmaContext::choose_kernel`]).
    pub mem_budget: usize,
    /// Per-query deadline for the resource governor (`None` = no
    /// deadline). Measured from the start of each plan or eager RMA call
    /// whose guard is minted from these options; a query that outlives it
    /// aborts with `RmaError::DeadlineExceeded` within one morsel's work.
    /// Sessions inherit it unless `serve::Session::set_deadline` overrides it.
    pub deadline: Option<Duration>,
}

impl Default for RmaOptions {
    fn default() -> Self {
        RmaOptions {
            backend: Backend::Auto,
            sort_policy: SortPolicy::Optimized,
            threads: default_threads(),
            mem_budget: 0,
            deadline: None,
        }
    }
}

/// Hard cap on the default worker count (an explicit `RMA_THREADS` may
/// exceed it — an operator who sets the knob gets what they asked for).
const DEFAULT_THREAD_CAP: usize = 16;

/// The default worker-thread count, resolved once per process: the
/// `RMA_THREADS` environment variable wins, otherwise the available
/// hardware parallelism capped at 16. The one place the knob is read.
pub fn default_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        if let Some(n) = std::env::var("RMA_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            return n.max(1);
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(DEFAULT_THREAD_CAP)
    })
}

/// Which kernel actually ran (recorded per operation for tests/benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelUsed {
    /// The no-copy column-at-a-time kernel.
    Bat,
    /// The dense contiguous kernel.
    Dense,
    /// A BAT-forced operation had no BAT implementation.
    DenseFallback,
}

/// Timing breakdown of the last operations run through a context.
///
/// `copy_in`/`copy_out` cover the BAT↔dense transformations only — the
/// quantity Fig. 14b reports as the transformation share; `compute` is the
/// kernel time; `sort` is order-schema handling (split/sort/morph), for
/// unary and binary operations alike.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Time spent copying BATs into dense matrices.
    pub copy_in: Duration,
    /// Time spent copying dense results back into BATs.
    pub copy_out: Duration,
    /// Kernel compute time.
    pub compute: Duration,
    /// Order-schema handling time: splitting and sorting the arguments and
    /// merging the morphed context into the result relation, for unary and
    /// binary operations alike.
    pub sort: Duration,
    /// Number of relational matrix operations executed.
    pub ops_run: u32,
    /// Number of argument sort computations performed: one per argument
    /// whose sort mode sorts (full sorts, ranks and relative alignments —
    /// `split::SortMode::sorts`). The lazy plan optimizer's redundant-sort
    /// elimination is observable here: consecutive operations over the same
    /// order schema sort once, not once per operation.
    pub sorts: u32,
    /// The kernel family of the most recent operation, if any ran.
    pub last_kernel: Option<KernelUsed>,
    /// Bytes the out-of-core operators wrote to spill files (disk
    /// footprint, never charged against the memory budget).
    pub spill_bytes: u64,
    /// Spill partitions/runs the out-of-core operators created.
    pub spill_partitions: u64,
    /// Decode sinks: one per `Column::decoded()` call on an encoded column
    /// a kernel could not process in encoded form and had to materialize
    /// to plain storage.
    pub decode_sinks: u64,
}

impl ExecStats {
    /// Fraction of (copy + compute) time spent copying — the Fig. 14 metric.
    pub fn transform_share(&self) -> f64 {
        let copy = self.copy_in + self.copy_out;
        let total = copy + self.compute;
        if total.is_zero() {
            return 0.0;
        }
        copy.as_secs_f64() / total.as_secs_f64()
    }
}

/// Lock-free statistics cell: every counter is an atomic so parallel
/// workers record sorts/copies concurrently without a shared lock (and
/// [`RmaContext`] is `Sync`, so one context can serve a whole worker pool).
/// Durations are stored as nanoseconds.
#[derive(Debug, Default)]
struct AtomicStats {
    copy_in_ns: AtomicU64,
    copy_out_ns: AtomicU64,
    compute_ns: AtomicU64,
    sort_ns: AtomicU64,
    ops_run: AtomicU32,
    sorts: AtomicU32,
    /// 0 = none, 1 = Bat, 2 = Dense, 3 = DenseFallback.
    last_kernel: AtomicU8,
    spill_bytes: AtomicU64,
    spill_partitions: AtomicU64,
    decode_sinks: AtomicU64,
}

impl AtomicStats {
    fn accumulate(&self, s: &ExecStats) {
        let add_ns = |cell: &AtomicU64, d: Duration| {
            cell.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        };
        add_ns(&self.copy_in_ns, s.copy_in);
        add_ns(&self.copy_out_ns, s.copy_out);
        add_ns(&self.compute_ns, s.compute);
        add_ns(&self.sort_ns, s.sort);
        self.ops_run.fetch_add(s.ops_run, Ordering::Relaxed);
        self.sorts.fetch_add(s.sorts, Ordering::Relaxed);
        self.spill_bytes.fetch_add(s.spill_bytes, Ordering::Relaxed);
        self.spill_partitions
            .fetch_add(s.spill_partitions, Ordering::Relaxed);
        self.decode_sinks
            .fetch_add(s.decode_sinks, Ordering::Relaxed);
        if let Some(k) = s.last_kernel {
            let code = match k {
                KernelUsed::Bat => 1,
                KernelUsed::Dense => 2,
                KernelUsed::DenseFallback => 3,
            };
            self.last_kernel.store(code, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> ExecStats {
        let ns = |cell: &AtomicU64| Duration::from_nanos(cell.load(Ordering::Relaxed));
        ExecStats {
            copy_in: ns(&self.copy_in_ns),
            copy_out: ns(&self.copy_out_ns),
            compute: ns(&self.compute_ns),
            sort: ns(&self.sort_ns),
            ops_run: self.ops_run.load(Ordering::Relaxed),
            sorts: self.sorts.load(Ordering::Relaxed),
            spill_bytes: self.spill_bytes.load(Ordering::Relaxed),
            spill_partitions: self.spill_partitions.load(Ordering::Relaxed),
            decode_sinks: self.decode_sinks.load(Ordering::Relaxed),
            last_kernel: match self.last_kernel.load(Ordering::Relaxed) {
                1 => Some(KernelUsed::Bat),
                2 => Some(KernelUsed::Dense),
                3 => Some(KernelUsed::DenseFallback),
                _ => None,
            },
        }
    }

    fn reset(&self) {
        self.copy_in_ns.store(0, Ordering::Relaxed);
        self.copy_out_ns.store(0, Ordering::Relaxed);
        self.compute_ns.store(0, Ordering::Relaxed);
        self.sort_ns.store(0, Ordering::Relaxed);
        self.ops_run.store(0, Ordering::Relaxed);
        self.sorts.store(0, Ordering::Relaxed);
        self.last_kernel.store(0, Ordering::Relaxed);
        self.spill_bytes.store(0, Ordering::Relaxed);
        self.spill_partitions.store(0, Ordering::Relaxed);
        self.decode_sinks.store(0, Ordering::Relaxed);
    }
}

/// The process-wide worker pool shared by every context running at the
/// default thread count. Never dropped: its workers are parked (not burning
/// CPU) between jobs for the life of the process.
fn global_pool() -> &'static Arc<WorkerPool> {
    static POOL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
    POOL.get_or_init(|| Arc::new(WorkerPool::new(default_threads())))
}

/// Adapter: a context's worker pool as the dense kernels' executor.
struct PoolParallelism(Arc<WorkerPool>);

impl rma_linalg::Parallelism for PoolParallelism {
    fn threads(&self) -> usize {
        self.0.threads()
    }

    fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        self.0.broadcast(f)
    }
}

/// The pool a context with `threads` workers executes on: the shared
/// process-wide pool at the default count, a private pool otherwise (an
/// explicit non-default `RmaOptions::threads` gets exactly what it asked
/// for without resizing anyone else's pool).
fn pool_for(threads: usize) -> Arc<WorkerPool> {
    if threads.max(1) == default_threads() {
        Arc::clone(global_pool())
    } else {
        Arc::new(WorkerPool::new(threads))
    }
}

/// An execution context: options plus accumulated statistics and the
/// session worker pool every parallel operator of this context runs on.
/// Create one per query (cheap — default-threaded contexts share one
/// process-wide pool) or keep one around per session. `Sync`: parallel
/// workers may share one context and record statistics concurrently.
#[derive(Debug)]
pub struct RmaContext {
    /// Execution options this context runs operations under. `threads` is
    /// read at construction to size the worker pool; mutate options through
    /// a new context, not in place.
    pub options: RmaOptions,
    stats: AtomicStats,
    pool: Arc<WorkerPool>,
}

impl Default for RmaContext {
    fn default() -> Self {
        RmaContext::new(RmaOptions::default())
    }
}

impl RmaContext {
    /// Context with the given options and zeroed statistics.
    pub fn new(options: RmaOptions) -> Self {
        let pool = pool_for(options.threads);
        RmaContext {
            options,
            stats: AtomicStats::default(),
            pool,
        }
    }

    /// The session worker pool this context's parallel operators run on.
    /// Fixed threads, parked between jobs — consecutive `execute` calls
    /// reuse them (see `rma_relation::par` for the job contract).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Run `f` with this context's pool as the executor of every dense
    /// kernel it calls on this thread ([`rma_linalg::with_parallelism`]):
    /// a one-worker context runs them serially, a wider one across its own
    /// workers.
    pub fn on_pool<R>(&self, f: impl FnOnce() -> R) -> R {
        let exec = Arc::new(PoolParallelism(Arc::clone(&self.pool)));
        rma_linalg::with_parallelism(exec, f)
    }

    /// Snapshot the session pool's counters and gauges — total threads,
    /// process-wide threads spawned, jobs completed, current queue depth,
    /// cumulative queue-wait and busy time
    /// ([`rma_relation::PoolStats`]). The public observation point for
    /// pool behaviour (thread reuse, scheduler pressure, utilization);
    /// forked contexts share the pool and therefore the same stats.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// A context with the same options, **sharing this context's worker
    /// pool**, but with fresh zeroed statistics. This is how the serving
    /// layer gives each session (and, via another fork, each query) its own
    /// [`ExecStats`] attribution: concurrent queries record into their own
    /// forked context instead of polluting a context-global counter set,
    /// while still executing on the one shared pool.
    pub fn fork(&self) -> RmaContext {
        RmaContext {
            options: self.options.clone(),
            stats: AtomicStats::default(),
            pool: Arc::clone(&self.pool),
        }
    }

    /// Context forcing a specific backend, other options default.
    pub fn with_backend(backend: Backend) -> Self {
        RmaContext::new(RmaOptions {
            backend,
            ..RmaOptions::default()
        })
    }

    /// Accumulated statistics since construction or the last reset.
    pub fn stats(&self) -> ExecStats {
        self.stats.snapshot()
    }

    /// Zero the accumulated statistics.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    pub(crate) fn record(&self, s: &ExecStats) {
        self.stats.accumulate(s);
    }

    /// Run `f` under the query guard active on this thread or, when there
    /// is none, under one minted from this context's deadline and memory
    /// budget: the one place those options become a guard's limits.
    pub(crate) fn governed<T>(&self, f: impl FnOnce() -> T) -> T {
        let o = &self.options;
        let minted = current_guard()
            .is_none()
            .then(|| QueryGuard::with_limits(o.deadline, o.mem_budget as u64));
        let _active = minted.as_ref().map(QueryGuard::activate);
        f()
    }

    /// Decide the kernel family that runs an operation on an `m × n`
    /// application part (plus the second operand's application dimensions
    /// for binary ops) under the configured policy. Under
    /// [`Backend::Auto`] a complex operation goes dense exactly when the
    /// active query guard has headroom for `2 · cells · 8` bytes — every
    /// operand copied in and the result out, saturating — as the spill
    /// decisions ask it ([`rma_relation::should_spill`]); with no guard
    /// active, always. The eigen and singular-value operations (`evc`,
    /// `evl`, `dsv`, `usv`, `vsv`) have no BAT kernel and run dense under
    /// every policy. Public so the plan-level optimizer makes, under the
    /// guard the query will run under, the choice execution makes.
    pub fn choose_kernel(
        &self,
        op: RmaOp,
        m: usize,
        n: usize,
        second: Option<(usize, usize)>,
    ) -> Backend {
        let no_bat_kernel = matches!(
            op,
            RmaOp::Evc | RmaOp::Evl | RmaOp::Dsv | RmaOp::Usv | RmaOp::Vsv
        );
        match self.options.backend {
            _ if no_bat_kernel => Backend::Dense,
            Backend::Bat => Backend::Bat,
            Backend::Dense => Backend::Dense,
            Backend::Auto => {
                // linear ops: transformation cost can never be amortised;
                // a complex op goes dense unless the guard has no headroom
                // to copy every operand in and the result out
                let cells = second.map_or(0, |(m2, n2)| m2.saturating_mul(n2));
                let copy = cells.saturating_add(m.saturating_mul(n));
                if op.is_elementwise() || should_spill(copy.saturating_mul(2 * 8) as u64) {
                    Backend::Bat
                } else {
                    Backend::Dense
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_least_one_thread() {
        assert!(default_threads() >= 1);
        // cached: a second call agrees
        assert_eq!(default_threads(), default_threads());
    }

    #[test]
    fn auto_policy_matches_paper() {
        let ctx = RmaContext::default();
        assert_eq!(
            ctx.choose_kernel(RmaOp::Add, 1_000_000, 10, Some((1_000_000, 10))),
            Backend::Bat
        );
        assert_eq!(
            ctx.choose_kernel(RmaOp::Qqr, 1_000_000, 10, None),
            Backend::Dense
        );
        assert_eq!(
            ctx.choose_kernel(RmaOp::Inv, 100, 100, None),
            Backend::Dense
        );
    }

    /// `choose_kernel` of the default context under an active guard with
    /// `budget` bytes.
    fn under_budget(
        budget: u64,
        op: RmaOp,
        m: usize,
        n: usize,
        second: Option<(usize, usize)>,
    ) -> Backend {
        let _guard = QueryGuard::with_limits(None, budget).activate();
        RmaContext::default().choose_kernel(op, m, n, second)
    }

    #[test]
    fn auto_policy_respects_memory_budget() {
        // unary qqr on 100 × 10: the dense copy is 2 · 1000 · 8 = 16 000 B
        assert_eq!(
            under_budget(16_000, RmaOp::Qqr, 100, 10, None),
            Backend::Dense
        );
        assert_eq!(
            under_budget(15_999, RmaOp::Qqr, 100, 10, None),
            Backend::Bat
        );
        // 1M × 10 doubles ≈ 160 MB > 1 MiB → BAT
        assert_eq!(
            under_budget(1 << 20, RmaOp::Qqr, 1_000_000, 10, None),
            Backend::Bat
        );
        // the guard's headroom, not its budget alone: a charge held by
        // another operator of the query leaves less room for the copy
        let guard = QueryGuard::with_limits(None, 16_000);
        let _active = guard.activate();
        guard.try_charge(1).unwrap();
        assert_eq!(
            RmaContext::default().choose_kernel(RmaOp::Qqr, 100, 10, None),
            Backend::Bat
        );
        // a context's own budget is the limit of the guard it mints, not
        // a second budget: under an active guard it is not read
        let budgeted = RmaContext::new(RmaOptions {
            mem_budget: 1,
            ..RmaOptions::default()
        });
        guard.release(1);
        assert_eq!(
            budgeted.choose_kernel(RmaOp::Qqr, 100, 10, None),
            Backend::Dense
        );
        // 0 = unlimited: every complex op is dense, every linear op BAT
        for op in crate::shape::ALL_OPS {
            let linear = matches!(op, RmaOp::Add | RmaOp::Sub | RmaOp::Emu);
            assert_eq!(
                under_budget(0, op, 1_000_000, 1_000, Some((1_000_000, 1_000))),
                if linear { Backend::Bat } else { Backend::Dense },
                "{op:?}"
            );
        }
    }

    #[test]
    fn binary_budget_counts_both_operands() {
        // mmu of 32 × 100 by 100 × 32: 2 · (3200 + 3200) · 8 = 102 400 B
        // copied; one operand alone is half of that
        let mmu = |budget, second| under_budget(budget, RmaOp::Mmu, 32, 100, second);
        assert_eq!(mmu(102_400, Some((100, 32))), Backend::Dense);
        assert_eq!(mmu(102_399, Some((100, 32))), Backend::Bat);
        assert_eq!(mmu(102_399, None), Backend::Dense);
    }

    #[test]
    fn dense_copy_size_saturates() {
        // 10¹⁸ rows × 2 columns: 2 · cells · 8 overflows u64
        let rows = 1_000_000_000_000_000_000;
        assert_eq!(under_budget(0, RmaOp::Qqr, rows, 2, None), Backend::Dense);
        assert_eq!(
            under_budget(u64::MAX - 1, RmaOp::Qqr, rows, 2, None),
            Backend::Bat
        );
        assert_eq!(
            under_budget(u64::MAX - 1, RmaOp::Mmu, rows, 2, Some((usize::MAX, 2))),
            Backend::Bat
        );
    }

    #[test]
    fn forced_backends() {
        assert_eq!(
            RmaContext::with_backend(Backend::Bat).choose_kernel(RmaOp::Qqr, 10, 10, None),
            Backend::Bat
        );
        // no BAT kernel: forced Bat names the dense family that runs
        assert_eq!(
            RmaContext::with_backend(Backend::Bat).choose_kernel(RmaOp::Vsv, 10, 10, None),
            Backend::Dense
        );
        assert_eq!(
            RmaContext::with_backend(Backend::Dense).choose_kernel(
                RmaOp::Add,
                10,
                10,
                Some((10, 10))
            ),
            Backend::Dense
        );
    }

    #[test]
    fn stats_accumulate_and_share() {
        let ctx = RmaContext::default();
        let s = ExecStats {
            copy_in: Duration::from_millis(30),
            copy_out: Duration::from_millis(10),
            compute: Duration::from_millis(60),
            sort: Duration::from_millis(5),
            ops_run: 1,
            sorts: 1,
            last_kernel: Some(KernelUsed::Dense),
            ..ExecStats::default()
        };
        ctx.record(&s);
        ctx.record(&s);
        let acc = ctx.stats();
        assert_eq!(acc.ops_run, 2);
        assert_eq!(acc.sorts, 2);
        assert_eq!(acc.compute, Duration::from_millis(120));
        assert!((acc.transform_share() - 0.4).abs() < 1e-9);
        ctx.reset_stats();
        assert_eq!(ctx.stats().ops_run, 0);
        assert_eq!(ExecStats::default().transform_share(), 0.0);
    }

    #[test]
    fn stats_recording_is_thread_safe() {
        // RmaContext is Sync: workers record without a lock and no update
        // is lost
        let ctx = RmaContext::default();
        let s = ExecStats {
            compute: Duration::from_micros(10),
            ops_run: 1,
            sorts: 2,
            last_kernel: Some(KernelUsed::Bat),
            ..ExecStats::default()
        };
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        ctx.record(&s);
                    }
                });
            }
        });
        let acc = ctx.stats();
        assert_eq!(acc.ops_run, 800);
        assert_eq!(acc.sorts, 1600);
        assert_eq!(acc.compute, Duration::from_millis(8));
        assert_eq!(acc.last_kernel, Some(KernelUsed::Bat));
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
        assert!(RmaOptions::default().threads >= 1);
    }
}
