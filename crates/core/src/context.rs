//! Execution options, kernel delegation policy, and instrumentation.
//!
//! The paper's query optimizer "decides about external library calls based
//! on the complexity of the operation, the amount of data to be copied, and
//! the relative performance" (§7.3). [`Backend::Auto`] encodes that policy;
//! [`ExecStats`] measures the data-transformation share reported in Fig. 14.

use crate::shape::RmaOp;
use rma_relation::{PoolStats, WorkerPool};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Which kernel family computes base results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The paper's policy: element-wise operations stay on BATs, complex
    /// operations are delegated to the dense (MKL-role) kernel unless the
    /// matrix would exceed the memory budget, in which case the no-copy BAT
    /// kernel is used where available.
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
    /// Verify that order schemas form keys (the paper requires it; turning
    /// it off removes the O(n) hash check from micro-benchmarks).
    pub validate_keys: bool,
    /// Auto-policy memory budget for the dense copy, in bytes. When the
    /// estimated dense working set exceeds it, the BAT kernel is used
    /// (mirroring the paper's switch to BATs when MKL would not fit).
    pub dense_memory_budget: usize,
    /// Worker threads for *plan execution*. Sizes the context's session
    /// [`WorkerPool`] (created at context construction; contexts at the
    /// default count share one process-wide pool). With `threads > 1` the
    /// plan interpreter routes operators with a parallel implementation
    /// (partitioned scan pipelines, hash joins, aggregation, sort/top-k)
    /// through the morsel-driven engine on that pool; `1` forces the serial
    /// plan interpreter. The dense kernels in `rma-linalg` run on the same
    /// substrate: constructing any context installs the process-wide
    /// default-sized pool as their executor
    /// ([`rma_linalg::install_parallelism`]), still budgeted by the shared
    /// `RMA_THREADS` knob ([`rma_linalg::available_threads`]). Defaults to
    /// [`default_threads`].
    pub threads: usize,
    /// Enable the cost-based join-order enumerator
    /// (`rma_core::plan::optimize`). Off, inner-join trees execute in the
    /// order the frontend wrote them — the ablation baseline of the
    /// `joinorder` bench target.
    pub join_reorder: bool,
    /// Per-query memory budget in bytes for the resource governor
    /// (`0` = unlimited, the default). When set, plan execution mints a
    /// `QueryGuard` and charges allocation-weight estimates for each
    /// operator's working set while the operator runs (hash-join builds,
    /// sort permutations, aggregate states, top-k heaps); the result's
    /// final `materialize()` is not charged. A breach aborts the query
    /// with `RmaError::ResourceExhausted` within one morsel's work, and a
    /// serving session also runs admission against it
    /// (`serve::Session::execute`). Sessions inherit it unless
    /// `serve::Session::set_mem_budget` overrides it.
    /// Distinct from [`RmaOptions::dense_memory_budget`], which only
    /// steers the BAT-vs-dense kernel choice and never fails a query.
    pub mem_budget: usize,
    /// Per-query deadline for the resource governor (`None` = no
    /// deadline). Measured from the start of each plan execution; a query
    /// that outlives it aborts with `RmaError::DeadlineExceeded` within
    /// one morsel's work. Sessions inherit it unless
    /// `serve::Session::set_deadline` overrides it.
    pub deadline: Option<Duration>,
}

impl Default for RmaOptions {
    fn default() -> Self {
        RmaOptions {
            backend: Backend::Auto,
            sort_policy: SortPolicy::Optimized,
            validate_keys: true,
            dense_memory_budget: 8 << 30, // 8 GiB
            threads: default_threads(),
            join_reorder: true,
            mem_budget: 0,
            deadline: None,
        }
    }
}

/// The default worker-thread count for plan execution: exactly the dense
/// kernels' process-wide budget ([`rma_linalg::available_threads`] —
/// `RMA_THREADS` env override, else hardware parallelism, capped), so one
/// knob and one parsing rule configure both layers.
pub fn default_threads() -> usize {
    rma_linalg::available_threads()
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
/// kernel time; `sort` is order-schema handling (split/sort/morph).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Time spent copying BATs into dense matrices.
    pub copy_in: Duration,
    /// Time spent copying dense results back into BATs.
    pub copy_out: Duration,
    /// Kernel compute time.
    pub compute: Duration,
    /// Order-schema handling time (split/sort/morph).
    pub sort: Duration,
    /// Number of relational matrix operations executed.
    pub ops_run: u32,
    /// Number of argument sort computations performed (full sorts and
    /// relative alignments). The lazy plan optimizer's redundant-sort
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
/// default thread count. Building it also installs it as the dense kernels'
/// executor, so relational operators and matrix kernels run on one thread
/// set. Never dropped: its workers are parked (not burning CPU) between
/// jobs for the life of the process.
fn global_pool() -> &'static Arc<WorkerPool> {
    static POOL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool = Arc::new(WorkerPool::new(default_threads()));
        let _ = rma_linalg::install_parallelism(Arc::new(PoolParallelism(Arc::clone(&pool))));
        pool
    })
}

/// Adapter: the session worker pool as the dense kernels' executor.
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
/// for without resizing anyone else's pool). The global pool — and with it
/// the dense kernels' pooled executor — is brought up either way, so the
/// "kernels ride the pool" guarantee holds for every context, not just
/// default-threaded ones.
fn pool_for(threads: usize) -> Arc<WorkerPool> {
    let global = global_pool();
    if threads.max(1) == default_threads() {
        Arc::clone(global)
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

    /// Snapshot the session pool's counters and gauges — total threads,
    /// process-wide threads spawned, jobs completed, current queue depth,
    /// cumulative queue-wait and busy time
    /// ([`rma_relation::PoolStats`]). The public observation point for
    /// pool behaviour (thread reuse, scheduler pressure, utilization);
    /// forked contexts share the pool and therefore the same stats.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// A context with different options *sharing this context's pool* —
    /// the plan interpreter's per-node backend overrides use this so an
    /// override never spawns a second worker set.
    pub(crate) fn with_options_shared_pool(&self, options: RmaOptions) -> RmaContext {
        RmaContext {
            options,
            stats: AtomicStats::default(),
            pool: Arc::clone(&self.pool),
        }
    }

    /// A context with the same options, **sharing this context's worker
    /// pool**, but with fresh zeroed statistics. This is how the serving
    /// layer gives each session (and, via another fork, each query) its own
    /// [`ExecStats`] attribution: concurrent queries record into their own
    /// forked context instead of polluting a context-global counter set,
    /// while still executing on the one shared pool.
    pub fn fork(&self) -> RmaContext {
        self.with_options_shared_pool(self.options.clone())
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

    /// Decide the kernel for an operation on an `m × n` application part
    /// (plus the second operand's application dimensions for binary ops)
    /// under the configured policy. Public so the plan-level optimizer can
    /// make the same choice ahead of execution.
    pub fn choose_kernel(
        &self,
        op: RmaOp,
        m: usize,
        n: usize,
        second: Option<(usize, usize)>,
    ) -> Backend {
        match self.options.backend {
            Backend::Bat => Backend::Bat,
            Backend::Dense => Backend::Dense,
            Backend::Auto => {
                if matches!(op, RmaOp::Add | RmaOp::Sub | RmaOp::Emu) {
                    // linear ops: transformation cost can never be amortised
                    Backend::Bat
                } else {
                    // complex op: use dense unless copying every operand in
                    // and the result out would not fit the budget
                    let mut cells = m * n;
                    if let Some((m2, n2)) = second {
                        cells += m2 * n2;
                    }
                    let est = 2 * cells * std::mem::size_of::<f64>();
                    if est <= self.options.dense_memory_budget {
                        Backend::Dense
                    } else {
                        Backend::Bat
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn auto_policy_respects_memory_budget() {
        let ctx = RmaContext::new(RmaOptions {
            dense_memory_budget: 1 << 20, // 1 MiB
            ..RmaOptions::default()
        });
        // 1M × 10 doubles ≈ 80 MB > 1 MiB → BAT
        assert_eq!(
            ctx.choose_kernel(RmaOp::Qqr, 1_000_000, 10, None),
            Backend::Bat
        );
        assert_eq!(ctx.choose_kernel(RmaOp::Qqr, 100, 10, None), Backend::Dense);
    }

    #[test]
    fn binary_budget_counts_both_operands() {
        // 60 KiB budget: one 32×100 operand copies in 2·32·100·8 ≈ 50 KiB,
        // but mmu's second operand of the same size pushes past the budget.
        let ctx = RmaContext::new(RmaOptions {
            dense_memory_budget: 60 << 10,
            ..RmaOptions::default()
        });
        assert_eq!(ctx.choose_kernel(RmaOp::Mmu, 32, 100, None), Backend::Dense);
        assert_eq!(
            ctx.choose_kernel(RmaOp::Mmu, 32, 100, Some((100, 32))),
            Backend::Bat
        );
    }

    #[test]
    fn forced_backends() {
        assert_eq!(
            RmaContext::with_backend(Backend::Bat).choose_kernel(RmaOp::Qqr, 10, 10, None),
            Backend::Bat
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
