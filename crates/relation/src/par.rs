//! Morsel-driven parallelism primitives: the row-range partitioner and a
//! session-lifetime [`WorkerPool`] with a fair multi-query scheduler.
//!
//! A *morsel* is a contiguous row range of a relation. Parallel operators
//! split their input into morsels and let a fixed set of worker threads
//! claim them from a shared atomic counter — faster workers simply claim
//! more morsels, which gives work-stealing-like load balancing without
//! per-task queues or external dependencies. Results are reassembled in
//! morsel order, so parallel execution is deterministic and produces the
//! same row order as the serial operator.
//!
//! ## The worker pool
//!
//! Before the pool, every parallel operator spawned (and joined) its own
//! `std::thread::scope` worker set, so a multi-operator plan paid thread
//! startup per pipeline stage. A [`WorkerPool`] spawns its workers once and
//! parks them on a condvar between jobs; a *job* is one closure workers run
//! concurrently (the closure does its own morsel claiming from an atomic
//! counter — see [`WorkerPool::for_each`]). The submitting thread always
//! participates as worker `0`, so a pool of `n` threads spawns `n - 1` OS
//! threads and `threads = 1` degenerates to inline serial execution with no
//! spawned workers at all.
//!
//! ## The scheduler: concurrent jobs, seats, and fair passes
//!
//! The pool runs **many jobs at once**: each job is an entry in a shared
//! queue, and idle workers pick the runnable entry with the lowest
//! *(pass, sequence)* pair. There is one job mode: any *subset* of workers
//! may serve a job, capped by a **seat budget** (total concurrent runners,
//! submitter included). A job submitted while a [`SessionTicket`] is
//! [activated](SessionTicket::activate) on the submitting thread takes the
//! ticket's seat budget; a job submitted without one (the dense kernels'
//! loops reached outside a query, ad-hoc `for_each` calls) has no seat
//! limit. The closure must therefore distribute work by claiming (which
//! every caller in this workspace does); a seat budget of 1 runs inline
//! on the submitter. A job *closes* as soon as any runner returns — at
//! that point the shared claim counter is exhausted and late joiners
//! would find nothing.
//!
//! Fairness is stride scheduling with equal weights: every ticket carries
//! a virtual-time `pass` that advances by one fixed stride on each
//! submission (clamped up to the pool's completed-pass floor, so an idle
//! session cannot hoard credit), and workers serve the lowest pass first.
//! A job without a ticket queues at the floor. Active sessions therefore
//! interleave their morsel jobs round-robin instead of queueing behind
//! whoever submitted first, and a session's seat budget bounds how many
//! workers a single heavy query can occupy — the rest keep serving other
//! sessions concurrently.
//!
//! **Job contract** (what an operator must guarantee to enlist):
//!
//! - the job closure is `Fn(usize) + Sync`: it is called concurrently
//!   with distinct worker indices in `0..threads()`;
//! - a job may be run by any subset of workers (including the submitter
//!   alone), so work distribution must be claim-based — never "worker `w`
//!   owns share `w`";
//! - all sharing goes through `&`-captured state (atomics, `Mutex`, or
//!   disjoint writes); the pool adds no synchronisation of its own beyond
//!   the completion barrier;
//! - [`WorkerPool::broadcast`] does not return until every runner has
//!   finished the job, so the closure may freely borrow from the caller's
//!   stack (this is also what makes the internal lifetime erasure sound);
//! - jobs should run leaf computations (plan recursion happens between
//!   jobs, on the submitting thread); if code inside a job does submit
//!   another job — to any pool — the nested job is detected and runs
//!   inline on the current thread instead of deadlocking.
//!
//! Panics inside a job are caught at the worker, the barrier still
//! completes, and the submitting call re-panics — the pool itself stays
//! usable.
//!
//! ## Resource governance
//!
//! A [`QueryGuard`] is a per-query bundle of a cancel flag, an optional
//! deadline, a memory budget and the query's own counters (spill bytes,
//! partitions and files, decode sinks) — all atomics, shared by `Arc`.
//! Like a [`SessionTicket`] it is installed thread-locally
//! ([`QueryGuard::activate`]) on the submitting thread, and the pool
//! re-installs it, with the thread's trace collector, on every worker that
//! runs one of the query's jobs, so [`current_guard`] works anywhere inside
//! a job closure and no query counts on another's guard. The morsel-claim
//! loop of [`WorkerPool::for_each`] polls the active guard before each
//! claim: once the guard trips (cancelled, past deadline, or budget
//! breached) workers stop claiming within one morsel's work, and the
//! operator surfaces the trip as a typed error through
//! [`guard_checkpoint`]. The [`fault`] module piggybacks on the same
//! per-morsel poll to deterministically inject panics, delays, and
//! spurious budget breaches for robustness tests.

use crate::trace;
use std::cell::RefCell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Morsels per worker thread: enough slack that an uneven morsel (e.g. a
/// selective filter hitting one range) rebalances onto idle workers.
const MORSELS_PER_THREAD: usize = 4;

/// Inputs below this many rows run an operator's serial branch even when
/// threads are available: handing a job to parked workers costs
/// microseconds, which dwarfs the operator itself on small relations (the
/// relational analogue of the dense kernels' element thresholds).
pub const MIN_PARALLEL_ROWS: usize = 1024;

/// Split `0..len` into at most `parts` contiguous, non-empty ranges of
/// near-equal size (sizes differ by at most one; longer ranges first).
/// Deterministic: the same `(len, parts)` always yields the same split.
/// An empty input yields no ranges.
pub fn partition_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let rem = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for k in 0..parts {
        let size = base + usize::from(k < rem);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// The morsel count for an operator over `len` rows with `threads` workers.
pub fn morsel_count(threads: usize, len: usize) -> usize {
    (threads.max(1) * MORSELS_PER_THREAD).min(len).max(1)
}

/// Total worker threads ever spawned by pools in this process. The
/// pool-reuse tests watch this: consecutive jobs on one pool must not move
/// it.
static THREADS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// How many pool worker threads this process has spawned so far (across all
/// pools; workers park between jobs and are only ever spawned at pool
/// construction, so a stable value across queries proves thread reuse).
pub fn threads_spawned() -> usize {
    THREADS_SPAWNED.load(Ordering::SeqCst)
}

/// Stride of the fair scheduler: every ticket advances its pass by this
/// much per job, so all sessions weigh the same and take turns.
const STRIDE_UNIT: u64 = 1 << 16;

/// A session's admission-control handle onto a [`WorkerPool`]: a **seat
/// budget** (how many workers, submitter included, may serve one of the
/// session's jobs concurrently; `0` = no limit) plus the stride-scheduling
/// virtual-time state that makes job pickup fair across sessions.
///
/// Tickets are pool-agnostic and cheap to clone (shared state behind an
/// `Arc`). [`SessionTicket::activate`] marks the current thread so that
/// every job the thread submits — through `broadcast`, `for_each`, or any
/// operator built on them — is scheduled under this ticket:
///
/// ```
/// use rma_relation::{SessionTicket, WorkerPool};
///
/// let pool = WorkerPool::new(4);
/// let ticket = SessionTicket::new(2); // at most 2 workers per job
/// let _guard = ticket.activate();
/// let items: Vec<usize> = (0..100).collect();
/// let out = pool.for_each(&items, |_, &x| x * 2); // scheduled + budgeted
/// assert_eq!(out[99], 198);
/// ```
#[derive(Clone, Debug)]
pub struct SessionTicket(Arc<TicketInner>);

#[derive(Debug)]
struct TicketInner {
    /// Max concurrent runners per job (incl. the submitter); 0 = no limit.
    seats: usize,
    /// The session's stride-scheduling virtual time.
    pass: AtomicU64,
    /// Total time this session's queued jobs waited for a worker pickup
    /// (summed over runners; the submitter runs immediately and adds 0).
    queue_wait_ns: AtomicU64,
    /// Total worker time spent inside this session's job closures.
    run_ns: AtomicU64,
}

impl SessionTicket {
    /// A ticket with the given seat budget. `seats == 0` means no limit;
    /// `seats == 1` runs every job inline on the submitting thread (a
    /// pure-serial session that still gets fair accounting).
    pub fn new(seats: usize) -> Self {
        SessionTicket(Arc::new(TicketInner {
            seats,
            pass: AtomicU64::new(0),
            queue_wait_ns: AtomicU64::new(0),
            run_ns: AtomicU64::new(0),
        }))
    }

    /// The ticket's seat budget (0 = no limit).
    pub fn seats(&self) -> usize {
        self.0.seats
    }

    /// Cumulative time this session's jobs sat queued before a worker
    /// picked them up (summed over worker pickups — a gauge of scheduler
    /// pressure on the session, not wall-clock latency).
    pub fn queue_wait(&self) -> Duration {
        Duration::from_nanos(self.0.queue_wait_ns.load(Ordering::Relaxed))
    }

    /// Cumulative worker time spent running this session's job closures
    /// (summed over runners, so it can exceed wall-clock time).
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.0.run_ns.load(Ordering::Relaxed))
    }

    /// The session's current stride-scheduling pass (monotone; advances by
    /// one fixed stride per submitted job). Exposed for tests and
    /// introspection.
    pub fn pass(&self) -> u64 {
        self.0.pass.load(Ordering::Relaxed)
    }

    /// Mark the current thread as submitting on behalf of this session
    /// until the returned guard drops. Nested activations stack (the
    /// innermost wins); the guard restores the previous ticket on drop.
    pub fn activate(&self) -> ActiveTicket {
        let prev = ACTIVE_TICKET.with(|c| c.replace(Some(self.clone())));
        ActiveTicket { prev }
    }
}

thread_local! {
    /// The ticket jobs submitted from this thread are scheduled under.
    static ACTIVE_TICKET: RefCell<Option<SessionTicket>> = const { RefCell::new(None) };
}

/// Guard of [`SessionTicket::activate`]: restores the previously active
/// ticket (if any) when dropped.
#[must_use = "the ticket is only active while the guard lives"]
pub struct ActiveTicket {
    prev: Option<SessionTicket>,
}

impl Drop for ActiveTicket {
    fn drop(&mut self) {
        ACTIVE_TICKET.with(|c| c.replace(self.prev.take()));
    }
}

/// The ticket active on the current thread, if any.
fn current_ticket() -> Option<SessionTicket> {
    ACTIVE_TICKET.with(|c| c.borrow().clone())
}

/// Why a [`QueryGuard`] refused to let execution continue.
///
/// The relation layer maps these onto `RelationError` (and `rma-core` maps
/// them further onto its `RmaError` taxonomy), so a tripped guard always
/// surfaces as a typed error, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardError {
    /// The query was cancelled ([`QueryGuard::cancel`]).
    Cancelled,
    /// The query ran past its deadline.
    DeadlineExceeded,
    /// A memory charge pushed the query past its budget.
    ResourceExhausted {
        /// Bytes the query had charged when the breach was detected.
        needed: u64,
        /// The budget it was charged against.
        budget: u64,
    },
}

impl std::fmt::Display for GuardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardError::Cancelled => f.write_str("query cancelled"),
            GuardError::DeadlineExceeded => f.write_str("query deadline exceeded"),
            GuardError::ResourceExhausted { needed, budget } => write!(
                f,
                "memory budget exhausted: needed {needed} bytes, budget {budget}"
            ),
        }
    }
}

impl std::error::Error for GuardError {}

#[derive(Debug)]
struct GuardInner {
    /// Set by [`QueryGuard::cancel`]; checked at every morsel claim.
    cancelled: AtomicBool,
    /// When the guard was minted (deadlines are relative to this).
    started: Instant,
    /// Deadline in nanoseconds after `started`; 0 = no deadline.
    deadline_ns: AtomicU64,
    /// Memory budget in bytes; 0 = unlimited.
    mem_budget: AtomicU64,
    /// Bytes charged so far ([`QueryGuard::try_charge`]).
    mem_used: AtomicU64,
    /// Sticky breach record: the `needed` of the first failed charge
    /// (0 = none). Keeps the guard tripped after a breach so workers that
    /// stopped claiming mid-job always surface the typed error.
    breach_needed: AtomicU64,
    /// Bytes written to spill files by out-of-core operators.
    spill_bytes: AtomicU64,
    /// Spill partitions / sorted runs written by out-of-core operators.
    spill_partitions: AtomicU64,
    /// Spill files created under this guard and not yet removed.
    spill_files: AtomicU64,
    /// Decode sinks on threads running under this guard.
    decode_sinks: Arc<AtomicU64>,
    /// Items of every [`WorkerPool::for_each`] job submitted under this
    /// guard.
    morsels: AtomicU64,
    /// Optional deterministic fault plan ([`fault`]).
    fault: Option<fault::FaultPlan>,
}

/// A per-query resource governor: cancel flag + optional deadline + memory
/// budget, all atomics behind an `Arc` (cheap to clone, `Sync`).
///
/// A guard is minted per query (by `rma-core`'s session layer, or from
/// `RmaOptions` at plan execution) and [activated](QueryGuard::activate)
/// on the submitting thread; the pool re-installs it on every worker
/// running one of the query's jobs. Cooperative check points:
///
/// - the [`WorkerPool::for_each`] claim loop polls the guard before every
///   morsel claim, so a trip stops a running query within one morsel's
///   work;
/// - operators call [`guard_checkpoint`] at their boundaries to turn the
///   (sticky) trip state into a typed error.
///
/// ```
/// use rma_relation::{QueryGuard, WorkerPool};
///
/// let pool = WorkerPool::new(4);
/// let guard = QueryGuard::new();
/// guard.cancel();
/// let _g = guard.activate();
/// let items: Vec<usize> = (0..10_000).collect();
/// pool.for_each(&items, |_, &x| x); // stops claiming immediately
/// assert!(rma_relation::guard_checkpoint().is_err());
/// ```
#[derive(Clone, Debug)]
pub struct QueryGuard(Arc<GuardInner>);

impl Default for QueryGuard {
    fn default() -> Self {
        QueryGuard::new()
    }
}

impl QueryGuard {
    /// An unlimited guard: no deadline, no budget, cancellable.
    pub fn new() -> Self {
        QueryGuard::with_limits(None, 0)
    }

    /// A guard with an optional deadline (measured from now) and a memory
    /// budget in bytes (`0` = unlimited).
    pub fn with_limits(deadline: Option<Duration>, mem_budget: u64) -> Self {
        QueryGuard(Arc::new(GuardInner {
            cancelled: AtomicBool::new(false),
            started: Instant::now(),
            deadline_ns: AtomicU64::new(deadline.map_or(0, |d| (d.as_nanos() as u64).max(1))),
            mem_budget: AtomicU64::new(mem_budget),
            mem_used: AtomicU64::new(0),
            breach_needed: AtomicU64::new(0),
            spill_bytes: AtomicU64::new(0),
            spill_partitions: AtomicU64::new(0),
            spill_files: AtomicU64::new(0),
            decode_sinks: Arc::new(AtomicU64::new(0)),
            morsels: AtomicU64::new(0),
            fault: None,
        }))
    }

    /// A guard with an explicit fault-injection plan (tests; see [`fault`]).
    pub fn with_fault(deadline: Option<Duration>, mem_budget: u64, plan: fault::FaultPlan) -> Self {
        let mut guard = QueryGuard::with_limits(deadline, mem_budget);
        Arc::get_mut(&mut guard.0)
            .expect("a fresh guard is unshared")
            .fault = Some(plan);
        guard
    }

    /// Request cancellation: the next morsel claim (or operator boundary)
    /// of any thread executing under this guard returns
    /// [`GuardError::Cancelled`]. Idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::SeqCst);
    }

    /// Has [`QueryGuard::cancel`] been called?
    pub fn is_cancelled(&self) -> bool {
        self.0.cancelled.load(Ordering::SeqCst)
    }

    /// The guard's memory budget in bytes (0 = unlimited).
    pub fn mem_budget(&self) -> u64 {
        self.0.mem_budget.load(Ordering::Relaxed)
    }

    /// Bytes charged against the budget so far.
    pub fn mem_used(&self) -> u64 {
        self.0.mem_used.load(Ordering::Relaxed)
    }

    /// Check the guard: `Err` if cancelled, past deadline, or past a
    /// (sticky) budget breach. Cheap — two relaxed loads on the happy
    /// path plus one `Instant::now()` when a deadline is set.
    pub fn check(&self) -> Result<(), GuardError> {
        if self.is_cancelled() {
            return Err(GuardError::Cancelled);
        }
        let needed = self.0.breach_needed.load(Ordering::Relaxed);
        if needed != 0 {
            return Err(GuardError::ResourceExhausted {
                needed,
                budget: self.mem_budget(),
            });
        }
        let deadline = self.0.deadline_ns.load(Ordering::Relaxed);
        if deadline != 0 && self.0.started.elapsed().as_nanos() as u64 >= deadline {
            return Err(GuardError::DeadlineExceeded);
        }
        Ok(())
    }

    /// Is the guard in a tripped state ([`QueryGuard::check`] would fail)?
    pub fn tripped(&self) -> bool {
        self.check().is_err()
    }

    /// Charge `bytes` of allocation weight against the budget. On breach
    /// the guard trips stickily and returns
    /// [`GuardError::ResourceExhausted`]; with budget 0 every charge
    /// succeeds (the usage counter still accumulates, for observability).
    pub fn try_charge(&self, bytes: u64) -> Result<(), GuardError> {
        let used = self.0.mem_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        let budget = self.mem_budget();
        if budget != 0 && used > budget {
            self.0.breach_needed.store(used.max(1), Ordering::Relaxed);
            return Err(GuardError::ResourceExhausted {
                needed: used,
                budget,
            });
        }
        Ok(())
    }

    /// Release `bytes` previously charged with [`QueryGuard::try_charge`]:
    /// an operator's working memory (hash tables, permutation buffers) is
    /// freed when the operator completes, so its charge must not keep
    /// counting against later operators of the same query. Saturates at 0.
    /// Does **not** clear a sticky breach — a query that tripped stays
    /// tripped.
    pub fn release(&self, bytes: u64) {
        let _ = self
            .0
            .mem_used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |u| {
                Some(u.saturating_sub(bytes))
            });
    }

    /// Would charging `bytes` more fit the budget? Always `true` with
    /// budget 0 (unlimited). This is the *headroom probe* out-of-core
    /// operators use to decide between the in-memory and spill paths — it
    /// never trips the guard, unlike [`QueryGuard::try_charge`].
    pub fn fits(&self, bytes: u64) -> bool {
        let budget = self.mem_budget();
        budget == 0 || self.mem_used().saturating_add(bytes) <= budget
    }

    /// Bytes written to spill files so far ([`QueryGuard::record_spill`]).
    pub fn spill_bytes(&self) -> u64 {
        self.0.spill_bytes.load(Ordering::Relaxed)
    }

    /// Spill partitions / sorted runs written so far.
    pub fn spill_partitions(&self) -> u64 {
        self.0.spill_partitions.load(Ordering::Relaxed)
    }

    /// Account `bytes` written to disk across `partitions` new spill
    /// partitions (or sorted runs). Spilled bytes are *disk* footprint and
    /// are never charged against the memory budget.
    pub fn record_spill(&self, bytes: u64, partitions: u64) {
        self.0.spill_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.0
            .spill_partitions
            .fetch_add(partitions, Ordering::Relaxed);
    }

    /// Spill files created under this guard that are still on disk.
    pub fn live_spill_files(&self) -> u64 {
        self.0.spill_files.load(Ordering::SeqCst)
    }

    /// The count behind [`QueryGuard::live_spill_files`].
    pub(crate) fn spill_files(&self) -> &AtomicU64 {
        &self.0.spill_files
    }

    /// Decode sinks (`Column::decoded()` calls) under this guard.
    pub fn decode_sinks(&self) -> u64 {
        self.0.decode_sinks.load(Ordering::Relaxed)
    }

    /// Morsels dispatched under this guard: the item count of every
    /// [`WorkerPool::for_each`] job submitted while it was active, whether
    /// the job ran on the workers or inline.
    pub fn morsels(&self) -> u64 {
        self.0.morsels.load(Ordering::Relaxed)
    }

    /// The per-morsel poll: run the fault plan (may panic, sleep, or force
    /// a spurious breach), then [`QueryGuard::check`]. Called by the
    /// [`WorkerPool::for_each`] claim loop before every claim.
    pub fn poll_morsel(&self) -> Result<(), GuardError> {
        if let Some(plan) = &self.0.fault {
            plan.poll(self);
        }
        self.check()
    }

    /// The per-spill-write poll: `true` when an armed spill-I/O fault
    /// ([`fault::FaultKind::SpillIo`]) fires at this write. Spill writes
    /// keep their own counter, separate from morsel polls, so a plan armed
    /// at `N` deterministically targets the `N`-th spill write
    /// regardless of how many morsels ran first.
    pub fn fault_spill_write(&self) -> bool {
        match &self.0.fault {
            Some(plan) => plan.poll_spill(),
            None => false,
        }
    }

    /// Force a (spurious) budget breach — the fault injector's hook.
    fn force_breach(&self) {
        self.0
            .breach_needed
            .store(self.mem_used().max(1), Ordering::Relaxed);
    }

    /// Mark the current thread as executing under this guard until the
    /// returned RAII guard drops (the thread's decode sinks count into it).
    /// Nested activations stack (innermost wins), mirroring
    /// [`SessionTicket::activate`].
    pub fn activate(&self) -> ActiveGuard {
        ActiveGuard {
            prev: ACTIVE_GUARD.replace(Some(self.clone())),
            prev_sinks: rma_storage::swap_sink_counter(Some(Arc::clone(&self.0.decode_sinks))),
        }
    }
}

thread_local! {
    /// The query guard governing work submitted from this thread.
    static ACTIVE_GUARD: RefCell<Option<QueryGuard>> = const { RefCell::new(None) };
}

/// RAII guard of [`QueryGuard::activate`]: restores the previously active
/// query guard (if any) and its sink counter when dropped.
#[must_use = "the query guard is only active while this value lives"]
pub struct ActiveGuard {
    prev: Option<QueryGuard>,
    prev_sinks: Option<Arc<AtomicU64>>,
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        ACTIVE_GUARD.set(self.prev.take());
        rma_storage::swap_sink_counter(self.prev_sinks.take());
    }
}

/// The [`QueryGuard`] active on the current thread, if any.
pub fn current_guard() -> Option<QueryGuard> {
    ACTIVE_GUARD.with(|c| c.borrow().clone())
}

/// Operator-boundary check point: `Err` when the thread's active guard has
/// tripped, `Ok` when there is no guard or it is clean. Operators call
/// this after every pool job (and the plan interpreter before every node)
/// so a trip that stopped morsel claiming mid-job surfaces as a typed
/// error instead of a silently truncated result.
pub fn guard_checkpoint() -> Result<(), GuardError> {
    match current_guard() {
        Some(g) => g.check(),
        None => Ok(()),
    }
}

/// Deterministic fault injection for robustness tests.
///
/// A [`FaultPlan`](fault::FaultPlan) attaches to one [`QueryGuard`] and
/// fires exactly once,
/// at a chosen morsel poll: every guard poll ([`QueryGuard::poll_morsel`],
/// i.e. every morsel claim of every job the query runs) increments the
/// plan's counter, and the poll whose index matches the plan's trigger
/// injects the fault — a panic, a delay, or a spurious budget breach.
/// Attaching the plan to the guard (not to global state) keeps injections
/// scoped to one query, so concurrent tests never contaminate each other
/// and the injection point is deterministic for a fixed plan and thread
/// count (the counter is a shared atomic: exactly one poll matches).
///
/// Plans are armed through [`QueryGuard::with_fault`] (or a serving
/// session's `inject_fault`). The
/// [`SpillIo`](fault::FaultKind::SpillIo) kind counts **spill writes**
/// instead of morsel polls: it fails the `N`-th write the spill manager
/// attempts, which exercises the out-of-core error path.
pub mod fault {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// What to inject when the plan fires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultKind {
        /// Panic on the matching poll (exercises worker-panic recovery).
        Panic,
        /// Sleep on the matching poll (exercises deadlines and latency).
        Delay(Duration),
        /// Force a spurious budget breach on the guard.
        BudgetBreach,
        /// Fail the matching **spill write** (not morsel poll): the spill
        /// manager surfaces it as a typed spill-I/O error. Spill writes
        /// count on their own counter, so morsel polls never consume the
        /// trigger.
        SpillIo,
    }

    /// A one-shot fault armed at a specific morsel poll of one query.
    #[derive(Debug)]
    pub struct FaultPlan {
        kind: FaultKind,
        at: u64,
        polls: AtomicU64,
        spill_polls: AtomicU64,
    }

    impl FaultPlan {
        /// Inject `kind` at the `at`-th guard poll (0-based).
        pub fn new(kind: FaultKind, at: u64) -> Self {
            FaultPlan {
                kind,
                at,
                polls: AtomicU64::new(0),
                spill_polls: AtomicU64::new(0),
            }
        }

        /// Count one poll; inject if this is the chosen one.
        pub(super) fn poll(&self, guard: &super::QueryGuard) {
            if self.kind == FaultKind::SpillIo {
                return; // spill faults fire from `poll_spill`, not here
            }
            let n = self.polls.fetch_add(1, Ordering::Relaxed);
            if n != self.at {
                return;
            }
            match self.kind {
                FaultKind::Panic => panic!("injected fault: panic at morsel poll {n}"),
                FaultKind::Delay(d) => std::thread::sleep(d),
                FaultKind::BudgetBreach => guard.force_breach(),
                FaultKind::SpillIo => unreachable!(),
            }
        }

        /// Count one spill write; `true` when a [`FaultKind::SpillIo`]
        /// plan fires at this write.
        pub(super) fn poll_spill(&self) -> bool {
            if self.kind != FaultKind::SpillIo {
                return false;
            }
            self.spill_polls.fetch_add(1, Ordering::Relaxed) == self.at
        }
    }
}

/// A queued job's closure, type-erased. The pointee lives on the
/// submitting thread's stack; the submitting call blocks until its queue
/// entry is removable (no runner left, none can join), which is what makes
/// sending the raw pointer sound.
struct JobSlot(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointer is only dereferenced by workers that registered as
// runners (under the queue lock) of a live entry; the submitting call —
// which owns the pointee — removes the entry only after every runner has
// finished and no new runner can join.
unsafe impl Send for JobSlot {}

/// One entry of the job queue: a claim-based job any subset of workers
/// may serve, up to the seat budget; it closes when the first runner
/// returns.
struct JobEntry {
    id: u64,
    raw: JobSlot,
    /// Stride-scheduling priority: workers serve the lowest (pass, seq).
    pass: u64,
    seq: u64,
    /// Workers (incl. the submitter) currently inside the closure.
    running: usize,
    /// A runner caught a panic in this job.
    panicked: bool,
    /// Seats left for pool workers (the submitter's seat is implicit).
    seats: usize,
    /// Set when a runner returned: the claim counter is exhausted, no new
    /// worker should join.
    closed: bool,
    /// When the entry was queued — worker pickups subtract this to charge
    /// queue-wait time to the submitting ticket and the pool.
    submitted_at: Instant,
    scope: JobScope,
}

/// What a job carries from its submitting thread to its workers: the
/// session ticket (wait and run time), the query guard (polls, charges and
/// per-query counters) and the trace collector (spans).
#[derive(Clone)]
struct JobScope {
    ticket: Option<SessionTicket>,
    guard: Option<QueryGuard>,
    trace: Option<Arc<trace::TraceCollector>>,
}

/// Shared state between the pool handle and its workers.
struct PoolState {
    /// The job queue. Small (one entry per in-flight submission), so
    /// linear scans beat a priority queue.
    jobs: Vec<JobEntry>,
    next_id: u64,
    next_seq: u64,
    /// Highest pass of any completed job: new/idle tickets clamp up to it
    /// so they compete from "now" instead of hoarding old virtual time.
    pass_floor: u64,
    /// Set by `Drop`: workers exit instead of waiting for more work.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here while no entry admits them.
    work: Condvar,
    /// Submitters park here until their entry completes.
    done: Condvar,
    /// Total queue-wait time across all jobs (see [`PoolStats`]).
    queue_wait_ns: AtomicU64,
    /// Total time workers (submitters included) spent inside job closures.
    busy_ns: AtomicU64,
}

/// Mutex helper: pool state is only ever mutated under the lock by pool
/// code (never by job closures), so a poisoned lock can only mean a panic
/// in the pool itself — propagate it.
fn lock(shared: &PoolShared) -> MutexGuard<'_, PoolState> {
    shared.state.lock().expect("worker pool state poisoned")
}

thread_local! {
    /// Is the current thread inside a pool job? Guards against nested
    /// submission deadlocking (a nested barrier could wait on workers that
    /// are waiting on us) — nested jobs degrade to inline execution.
    static IN_POOL_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` with the current thread marked as executing a pool job (restored
/// on unwind via the drop guard).
fn run_marked_in_job<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            IN_POOL_JOB.set(self.0);
        }
    }
    let _reset = Reset(IN_POOL_JOB.replace(true));
    f()
}

/// A point-in-time snapshot of a [`WorkerPool`]'s counters, the public
/// face of the pool's internals for metrics and tests
/// ([`WorkerPool::stats`]; `rma-core` re-surfaces it as
/// `RmaContext::pool_stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total workers, including the submitting thread (always ≥ 1).
    pub threads: usize,
    /// Worker threads spawned **process-wide** (see [`threads_spawned`]);
    /// stable across queries on a reused pool.
    pub threads_spawned: usize,
    /// Jobs this pool has completed since construction.
    pub jobs_run: u64,
    /// Jobs in which at least one runner panicked (injected or organic).
    /// The pool survives these — the count proves recovery, not damage.
    pub jobs_panicked: u64,
    /// Queue entries in flight at snapshot time (a gauge: jobs submitted
    /// but not yet retired).
    pub queue_depth: usize,
    /// Cumulative time jobs sat queued before worker pickups (summed over
    /// pickups across all sessions).
    pub queue_wait: Duration,
    /// Cumulative time workers (submitters included) spent inside job
    /// closures — divide by `threads ×` wall time for pool utilization.
    pub busy: Duration,
}

/// A fixed set of worker threads parked between jobs — the one execution
/// substrate every parallel operator runs on — with a fair multi-job
/// scheduler (see the module docs).
///
/// Create one per process or server (`rma-core`'s `RmaContext` owns one,
/// sized from `RmaOptions::threads` / the `RMA_THREADS` env knob) and
/// submit jobs with [`WorkerPool::broadcast`] or the morsel-claiming
/// [`WorkerPool::for_each`]; activate a [`SessionTicket`] to submit under
/// a session's fair-scheduling pass and seat budget. Dropping the pool
/// wakes and joins the workers.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Jobs completed (tests use this to prove an operator enlisted).
    jobs_run: AtomicU64,
    /// Jobs that saw at least one runner panic (and were survived).
    jobs_panicked: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .field("jobs_run", &self.jobs_run())
            .finish()
    }
}

impl WorkerPool {
    /// A pool of `threads` workers (`threads - 1` spawned OS threads; the
    /// submitting thread is worker `0`). `threads <= 1` spawns nothing and
    /// runs every job inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: Vec::new(),
                next_id: 0,
                next_seq: 0,
                pass_floor: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            queue_wait_ns: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        });
        let handles = (1..threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                THREADS_SPAWNED.fetch_add(1, Ordering::SeqCst);
                std::thread::Builder::new()
                    .name(format!("rma-pool-{id}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            jobs_run: AtomicU64::new(0),
            jobs_panicked: AtomicU64::new(0),
        }
    }

    /// Total workers, including the submitting thread (always ≥ 1).
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Jobs this pool has completed since construction.
    pub fn jobs_run(&self) -> u64 {
        self.jobs_run.load(Ordering::SeqCst)
    }

    /// Jobs in which at least one runner panicked. The pool recovered
    /// from every one of them (workers are never respawned, state is
    /// never poisoned); the counter exists so metrics and the
    /// fault-injection tests can see the recovery happen.
    pub fn jobs_panicked(&self) -> u64 {
        self.jobs_panicked.load(Ordering::SeqCst)
    }

    /// Jobs currently in the queue (submitted, not yet retired).
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared).jobs.len()
    }

    /// Snapshot the pool's counters (cheap: one short lock for the queue
    /// depth, relaxed loads for the rest).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads(),
            threads_spawned: threads_spawned(),
            jobs_run: self.jobs_run(),
            jobs_panicked: self.jobs_panicked(),
            queue_depth: self.queue_depth(),
            queue_wait: Duration::from_nanos(self.shared.queue_wait_ns.load(Ordering::Relaxed)),
            busy: Duration::from_nanos(self.shared.busy_ns.load(Ordering::Relaxed)),
        }
    }

    /// Run `f(worker)` concurrently on the pool and return when the job is
    /// done. The job is served by any subset of workers — up to the active
    /// [`SessionTicket`]'s seat budget, or every worker without a ticket —
    /// picked fairly across sessions, so the closure must be claim-based
    /// (see the module docs).
    ///
    /// Nested submission — `broadcast` called from inside a running job
    /// (e.g. a kernel that parallelises through a pool reached from an
    /// operator already on one) — is detected and degraded to inline
    /// execution: the nested job runs serially as worker `0` on the
    /// current thread, which is correct for claim-loop jobs (one worker
    /// claims everything).
    pub fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        let scope = JobScope {
            ticket: current_ticket(),
            guard: current_guard(),
            trace: trace::current(),
        };
        let ticket = scope.ticket.as_ref();
        let seat_limit = ticket.map_or(0, |t| t.seats());
        if self.handles.is_empty() || IN_POOL_JOB.get() || seat_limit == 1 {
            let caller = run_job(&self.shared, ticket, 0, || f(0));
            self.jobs_run.fetch_add(1, Ordering::SeqCst);
            if let Err(payload) = caller {
                self.jobs_panicked.fetch_add(1, Ordering::SeqCst);
                resume_unwind(payload);
            }
            return;
        }
        let id;
        {
            let mut st = lock(&self.shared);
            let raw = JobSlot(
                // SAFETY: lifetime erasure. This call blocks below until the
                // entry is complete (no runner left, none can join) and
                // removes it before returning — the pointee outlives every
                // dereference.
                unsafe {
                    std::mem::transmute::<
                        *const (dyn Fn(usize) + Sync + '_),
                        *const (dyn Fn(usize) + Sync + 'static),
                    >(f)
                },
            );
            id = st.next_id;
            st.next_id += 1;
            let seq = st.next_seq;
            st.next_seq += 1;
            // without a ticket: queue at the floor (FIFO among peers)
            let pass = ticket.map_or(st.pass_floor, |t| {
                let pass = t.0.pass.load(Ordering::Relaxed).max(st.pass_floor);
                t.0.pass.store(pass + STRIDE_UNIT, Ordering::Relaxed);
                pass
            });
            let seats = match seat_limit {
                0 => self.handles.len(),
                n => (n - 1).min(self.handles.len()),
            };
            st.jobs.push(JobEntry {
                id,
                raw,
                pass,
                seq,
                running: 1, // the submitter, below
                panicked: false,
                seats,
                closed: false,
                submitted_at: Instant::now(),
                scope: scope.clone(),
            });
            self.shared.work.notify_all();
        }
        // the submitter is worker 0; catch a panic so the completion wait
        // below still runs and the job pointer stays valid until every
        // runner has finished
        let caller = run_job(&self.shared, ticket, 0, || run_marked_in_job(|| f(0)));
        let mut st = lock(&self.shared);
        let idx = st
            .jobs
            .iter()
            .position(|e| e.id == id)
            .expect("submitted job entry vanished");
        st.jobs[idx].running -= 1;
        st.jobs[idx].closed = true;
        while st.jobs.iter().find(|e| e.id == id).expect("job").running > 0 {
            st = self
                .shared
                .done
                .wait(st)
                .expect("worker pool state poisoned");
        }
        let idx = st.jobs.iter().position(|e| e.id == id).expect("job");
        let entry = st.jobs.swap_remove(idx);
        st.pass_floor = st.pass_floor.max(entry.pass);
        drop(st);
        self.jobs_run.fetch_add(1, Ordering::SeqCst);
        if caller.is_err() || entry.panicked {
            self.jobs_panicked.fetch_add(1, Ordering::SeqCst);
        }
        match caller {
            Err(payload) => resume_unwind(payload),
            Ok(()) if entry.panicked => panic!("worker pool job panicked on a worker thread"),
            Ok(()) => {}
        }
    }

    /// Run `f` over every item, workers claiming items from a shared
    /// counter (morsel-driven dispatch), and return the results in item
    /// order. Inherits the calling thread's active [`SessionTicket`], if
    /// any — the job is then seat-budgeted and fairly interleaved with
    /// other sessions' jobs. With one worker or at most one item the work
    /// runs inline on the caller's thread.
    /// When a [`QueryGuard`] is active on the submitting thread, the
    /// claim loop polls it before every claim ([`QueryGuard::poll_morsel`])
    /// and stops claiming on a trip — a cancelled or over-budget query
    /// therefore stops within one item's work. A tripped guard can leave
    /// the returned vector **short**; callers running governed must call
    /// [`guard_checkpoint`] afterwards to turn the truncation into a typed
    /// error (operators in this crate all do). Every item counts toward
    /// the guard's [`QueryGuard::morsels`].
    pub fn for_each<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let guard = current_guard();
        if let Some(g) = &guard {
            g.0.morsels.fetch_add(items.len() as u64, Ordering::Relaxed);
        }
        let tripped = |g: &Option<QueryGuard>| g.as_ref().is_some_and(|g| g.poll_morsel().is_err());
        if self.handles.is_empty() || items.len() <= 1 {
            let mut out = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                if tripped(&guard) {
                    break;
                }
                out.push(f(i, item));
            }
            return out;
        }
        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
        self.broadcast(&|_worker| {
            let mut local = Vec::new();
            loop {
                if tripped(&guard) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                local.push((i, f(i, item)));
            }
            if !local.is_empty() {
                collected
                    .lock()
                    .expect("for_each result sink poisoned")
                    .extend(local);
            }
        });
        let mut collected = collected
            .into_inner()
            .expect("for_each result sink poisoned");
        collected.sort_unstable_by_key(|(i, _)| *i);
        collected.into_iter().map(|(_, r)| r).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Run worker `w`'s part of a job, catching a panic for the caller; record
/// its `pool.job` span and charge its time to the pool and the ticket.
fn run_job(
    shared: &PoolShared,
    ticket: Option<&SessionTicket>,
    w: usize,
    f: impl FnOnce(),
) -> std::thread::Result<()> {
    let t0 = Instant::now();
    let span = trace::clock();
    let out = catch_unwind(AssertUnwindSafe(f));
    trace::record("pool.job", "pool", w, span, 0, 0, 0);
    let ns = t0.elapsed().as_nanos() as u64;
    shared.busy_ns.fetch_add(ns, Ordering::Relaxed);
    if let Some(t) = ticket {
        t.0.run_ns.fetch_add(ns, Ordering::Relaxed);
    }
    out
}

/// Pick the queue entry a worker should serve next: the open entry with a
/// free seat and the lowest (pass, seq). Returns the closure pointer,
/// entry id, submission time, and job scope after registering the worker
/// as a runner.
fn pick_job(st: &mut PoolState) -> Option<(JobSlot, u64, Instant, JobScope)> {
    let best = st
        .jobs
        .iter_mut()
        .filter(|e| !e.closed && e.seats > 0)
        .min_by_key(|e| (e.pass, e.seq))?;
    best.seats -= 1;
    best.running += 1;
    Some((
        JobSlot(best.raw.0),
        best.id,
        best.submitted_at,
        best.scope.clone(),
    ))
}

fn worker_loop(shared: &PoolShared, id: usize) {
    loop {
        let (raw, job_id, submitted_at, scope) = {
            let mut st = lock(shared);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(picked) = pick_job(&mut st) {
                    break picked;
                }
                st = shared.work.wait(st).expect("worker pool state poisoned");
            }
        };
        // queue wait: submission → this pickup, charged to pool + session
        let waited_ns = submitted_at.elapsed().as_nanos() as u64;
        shared.queue_wait_ns.fetch_add(waited_ns, Ordering::Relaxed);
        if let Some(t) = &scope.ticket {
            t.0.queue_wait_ns.fetch_add(waited_ns, Ordering::Relaxed);
        }
        // SAFETY: this worker registered as a runner of a live entry under
        // the lock; the submitter keeps the pointee alive (and the entry
        // queued) until `running` returns to zero, which happens only after
        // the last use of `raw` below.
        let f = unsafe { &*raw.0 };
        // the submitting query's guard and collector (not its ticket: a
        // nested job runs inline)
        let active = scope.guard.as_ref().map(QueryGuard::activate);
        let traced = trace::collect_into(scope.trace.clone());
        let ok = run_job(shared, scope.ticket.as_ref(), id, || {
            run_marked_in_job(|| f(id))
        })
        .is_ok();
        drop((traced, active));
        let mut st = lock(shared);
        let entry = st
            .jobs
            .iter_mut()
            .find(|e| e.id == job_id)
            .expect("running job entry vanished");
        if !ok {
            entry.panicked = true;
        }
        entry.running -= 1;
        entry.closed = true;
        if entry.running == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn partitioner_empty_table() {
        assert!(partition_ranges(0, 4).is_empty());
        assert!(partition_ranges(0, 0).is_empty());
    }

    #[test]
    fn partitioner_fewer_rows_than_partitions() {
        let r = partition_ranges(3, 8);
        assert_eq!(r, vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn partitioner_uneven_split() {
        let r = partition_ranges(10, 4);
        assert_eq!(r, vec![0..3, 3..6, 6..8, 8..10]);
        // ranges cover the input exactly, sizes differ by at most one
        let sizes: Vec<usize> = r.iter().map(|x| x.end - x.start).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn partitioner_even_split_and_single_part() {
        assert_eq!(partition_ranges(8, 4), vec![0..2, 2..4, 4..6, 6..8]);
        assert_eq!(partition_ranges(5, 1), vec![0..5]);
        // parts = 0 is clamped to one range
        assert_eq!(partition_ranges(5, 0), vec![0..5]);
    }

    #[test]
    fn partitioner_is_deterministic() {
        assert_eq!(partition_ranges(1234, 7), partition_ranges(1234, 7));
    }

    #[test]
    fn pool_for_each_preserves_item_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..100).collect();
        let out = pool.for_each(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn pool_runs_inline_when_serial() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let items = vec![1, 2, 3];
        assert_eq!(pool.for_each(&items, |_, &x| x + 1), vec![2, 3, 4]);
        let pool0 = WorkerPool::new(0);
        assert_eq!(pool0.threads(), 1);
        assert_eq!(pool0.for_each(&items, |_, &x| x + 1), vec![2, 3, 4]);
        let one = vec![9];
        assert_eq!(WorkerPool::new(8).for_each(&one, |_, &x| x), vec![9]);
        let none: Vec<i32> = Vec::new();
        assert!(WorkerPool::new(8).for_each(&none, |_, &x| x).is_empty());
    }

    #[test]
    fn pool_reuses_threads_across_jobs() {
        // observe the thread identities jobs run on: across many jobs the
        // pool must only ever use its fixed worker set (+ the submitter) —
        // respawning would grow the set. (The process-wide threads_spawned
        // counter is asserted in the isolated pool_reuse integration test;
        // here sibling unit tests create pools concurrently, so per-pool
        // thread identity is the race-free observation.)
        let pool = WorkerPool::new(4);
        let seen: Mutex<std::collections::HashSet<std::thread::ThreadId>> =
            Mutex::new(std::collections::HashSet::new());
        for round in 0..50u64 {
            let items: Vec<usize> = (0..64).collect();
            let out = pool.for_each(&items, |_, &x| {
                seen.lock().unwrap().insert(std::thread::current().id());
                x + round as usize
            });
            assert_eq!(out[0], round as usize);
        }
        let distinct = seen.lock().unwrap().len();
        assert!(
            distinct <= pool.threads(),
            "50 jobs touched {distinct} distinct threads — more than the \
             pool's {} fixed workers, so threads were respawned",
            pool.threads()
        );
        assert!(pool.jobs_run() >= 50);
    }

    #[test]
    fn pool_survives_job_panic() {
        let pool = WorkerPool::new(4);
        let boom = catch_unwind(AssertUnwindSafe(|| {
            let items: Vec<usize> = (0..32).collect();
            pool.for_each(&items, |_, &x| {
                if x == 17 {
                    panic!("morsel 17 exploded");
                }
                x
            });
        }));
        assert!(boom.is_err(), "the panic must propagate to the submitter");
        // the pool is still functional afterwards
        let items: Vec<usize> = (0..32).collect();
        assert_eq!(pool.for_each(&items, |_, &x| x), items);
    }

    #[test]
    fn nested_submission_runs_inline_instead_of_deadlocking() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..16).collect();
        let out = pool.for_each(&items, |_, &x| {
            // a nested job from inside a worker: must complete (inline,
            // single worker), not deadlock
            let inner: Vec<usize> = (0..8).collect();
            let nested = pool.for_each(&inner, |_, &y| y * 10);
            assert_eq!(nested, (0..8).map(|y| y * 10).collect::<Vec<_>>());
            x + 1
        });
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn pool_serialises_concurrent_submitters() {
        let pool = WorkerPool::new(3);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let items: Vec<usize> = (0..200).collect();
                    let out = pool.for_each(&items, |_, &x| x * 3);
                    assert_eq!(out, (0..200).map(|x| x * 3).collect::<Vec<_>>());
                });
            }
        });
    }

    #[test]
    fn ticketed_jobs_run_concurrently() {
        // Two sessions' jobs must be in flight at once: session A's job
        // blocks until session B's job releases it — impossible on the old
        // one-job-at-a-time pool, routine under the scheduler.
        let pool = WorkerPool::new(4);
        let a = SessionTicket::new(2);
        let b = SessionTicket::new(2);
        let a_started = AtomicBool::new(false);
        let release = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _g = a.activate();
                pool.broadcast(&|_w| {
                    a_started.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                });
            });
            scope.spawn(|| {
                // wait until A's job is genuinely in flight
                while !a_started.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                let _g = b.activate();
                pool.broadcast(&|_w| {
                    release.store(true, Ordering::SeqCst);
                });
            });
        });
        assert!(release.load(Ordering::SeqCst));
    }

    #[test]
    fn seat_budget_bounds_worker_participation() {
        let pool = WorkerPool::new(8);
        let ticket = SessionTicket::new(2);
        let _g = ticket.activate();
        let threads_seen: Mutex<std::collections::HashSet<std::thread::ThreadId>> =
            Mutex::new(std::collections::HashSet::new());
        // many items so that, were the budget ignored, more workers would
        // almost surely claim some
        let items: Vec<usize> = (0..4096).collect();
        let out = pool.for_each(&items, |_, &x| {
            threads_seen
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            // tiny spin so claims spread across the admitted workers
            std::hint::black_box((0..50).sum::<usize>());
            x
        });
        assert_eq!(out.len(), 4096);
        let distinct = threads_seen.lock().unwrap().len();
        assert!(
            distinct <= 2,
            "seat budget 2 but {distinct} distinct threads ran the job"
        );
    }

    #[test]
    fn budget_one_runs_inline() {
        let pool = WorkerPool::new(4);
        let ticket = SessionTicket::new(1);
        let _g = ticket.activate();
        let submitter = std::thread::current().id();
        let items: Vec<usize> = (0..256).collect();
        let out = pool.for_each(&items, |_, &x| {
            assert_eq!(std::thread::current().id(), submitter);
            x + 1
        });
        assert_eq!(out.len(), 256);
    }

    #[test]
    fn ticket_pass_advances_per_job() {
        let pool = WorkerPool::new(2);
        let t = SessionTicket::new(0);
        let start = t.pass();
        let _g = t.activate();
        for _ in 0..3 {
            let items: Vec<usize> = (0..64).collect();
            pool.for_each(&items, |_, &x| x);
        }
        assert!(
            t.pass() >= start + 3 * (STRIDE_UNIT / 2),
            "pass did not advance: {} -> {}",
            start,
            t.pass()
        );
    }

    #[test]
    fn fair_scheduler_serves_lowest_pass_first() {
        // One spawned worker (pool of 2). Occupy it with a blocker job,
        // queue one job from a high-pass session (B) and one from a
        // fresh low-pass session (C); when the blocker releases, the
        // worker must serve C before B.
        let pool = WorkerPool::new(2);
        let blocker = SessionTicket::new(2);
        let b = SessionTicket::new(2);
        // advance B's pass well beyond the floor
        {
            let _g = b.activate();
            for _ in 0..3 {
                let items: Vec<usize> = (0..8).collect();
                pool.for_each(&items, |_, &x| x);
            }
        }
        let c = SessionTicket::new(2);
        let release = AtomicBool::new(false);
        let blocker_running = AtomicBool::new(false);
        let queued = AtomicUsize::new(0);
        let join_order: Mutex<Vec<char>> = Mutex::new(Vec::new());
        let b_joined = AtomicBool::new(false);
        let c_joined = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _g = blocker.activate();
                pool.broadcast(&|w| {
                    if w == 0 {
                        // hold the job open (a scheduled job closes when
                        // its first runner returns) until the worker joins
                        while !blocker_running.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                    } else {
                        blocker_running.store(true, Ordering::SeqCst);
                        while !release.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                    }
                });
            });
            while !blocker_running.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            scope.spawn(|| {
                let _g = b.activate();
                pool.broadcast(&|w| {
                    if w == 0 {
                        queued.fetch_add(1, Ordering::SeqCst);
                        // hold the job open until the worker joins it
                        while !b_joined.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                    } else {
                        join_order.lock().unwrap().push('b');
                        b_joined.store(true, Ordering::SeqCst);
                    }
                });
            });
            scope.spawn(|| {
                let _g = c.activate();
                pool.broadcast(&|w| {
                    if w == 0 {
                        queued.fetch_add(1, Ordering::SeqCst);
                        while !c_joined.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                    } else {
                        join_order.lock().unwrap().push('c');
                        c_joined.store(true, Ordering::SeqCst);
                    }
                });
            });
            // both jobs queued and held open → free the worker
            while queued.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            release.store(true, Ordering::SeqCst);
        });
        assert_eq!(
            *join_order.lock().unwrap(),
            vec!['c', 'b'],
            "worker served the higher-pass session first"
        );
    }

    #[test]
    fn activate_guard_restores_previous_ticket() {
        let outer = SessionTicket::new(4);
        let inner = SessionTicket::new(2);
        let _a = outer.activate();
        assert_eq!(current_ticket().unwrap().seats(), 4);
        {
            let _b = inner.activate();
            assert_eq!(current_ticket().unwrap().seats(), 2);
        }
        assert_eq!(current_ticket().unwrap().seats(), 4);
    }

    #[test]
    fn guard_cancel_stops_for_each_and_checkpoint_reports() {
        let pool = WorkerPool::new(4);
        let guard = QueryGuard::new();
        guard.cancel();
        let _g = guard.activate();
        let items: Vec<usize> = (0..100_000).collect();
        let out = pool.for_each(&items, |_, &x| x * 2);
        assert!(
            out.len() < items.len(),
            "a pre-cancelled guard must stop morsel claiming early"
        );
        assert_eq!(guard_checkpoint(), Err(GuardError::Cancelled));
    }

    #[test]
    fn guard_deadline_trips_and_is_sticky() {
        let guard = QueryGuard::with_limits(Some(Duration::from_nanos(1)), 0);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(guard.check(), Err(GuardError::DeadlineExceeded));
        // sticky: stays tripped on re-check
        assert!(guard.tripped());
    }

    #[test]
    fn guard_memory_budget_breach_is_sticky() {
        let guard = QueryGuard::with_limits(None, 1000);
        assert!(guard.try_charge(600).is_ok());
        assert!(matches!(
            guard.try_charge(600),
            Err(GuardError::ResourceExhausted {
                needed: 1200,
                budget: 1000
            })
        ));
        // later checks keep failing even without further charges
        assert!(matches!(
            guard.check(),
            Err(GuardError::ResourceExhausted { .. })
        ));
        assert_eq!(guard.mem_used(), 1200);
    }

    #[test]
    fn guard_zero_budget_means_unlimited() {
        let guard = QueryGuard::with_limits(None, 0);
        assert!(guard.try_charge(u64::MAX / 4).is_ok());
        assert!(guard.try_charge(u64::MAX / 4).is_ok());
        assert!(guard.check().is_ok());
    }

    #[test]
    fn guard_propagates_to_pool_workers() {
        let pool = WorkerPool::new(4);
        let guard = QueryGuard::new();
        let _g = guard.activate();
        let seen = AtomicUsize::new(0);
        let items: Vec<usize> = (0..50_000).collect();
        pool.for_each(&items, |_, &x| {
            // every claim runs with the guard installed, wherever it runs
            if current_guard().is_some() {
                seen.fetch_add(1, Ordering::Relaxed);
            }
            x
        });
        assert_eq!(
            seen.load(Ordering::Relaxed),
            items.len(),
            "current_guard() must resolve inside job closures on all workers"
        );
    }

    /// Two queries submitting to one pool from two threads: each guard
    /// counts exactly its own decode sinks, and each thread's trace
    /// collector receives exactly its own spans, wherever the pool ran them.
    #[test]
    fn job_scope_carries_each_querys_counters_and_collector() {
        use rma_storage::{Column, Encoding};
        let pool = WorkerPool::new(4);
        let col = Column::from(vec![1i64; 64])
            .encode_as(Encoding::Rle)
            .unwrap();
        let run = |items: usize, name: &'static str| {
            let guard = QueryGuard::new();
            let collector = Arc::new(trace::TraceCollector::new());
            {
                let _g = guard.activate();
                let _t = trace::collect_into(Some(Arc::clone(&collector)));
                let items: Vec<usize> = (0..items).collect();
                for _ in 0..20 {
                    pool.for_each(&items, |_, _| {
                        trace::record(name, "test", 0, trace::clock(), 0, 0, 0);
                        col.decoded().len()
                    });
                }
            }
            let spans = collector.drain();
            let own = spans.iter().filter(|s| s.name == name).count();
            assert!(spans.iter().all(|s| s.name == name || s.name == "pool.job"));
            (guard.decode_sinks(), own)
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| run(300, "a.item"));
            let b = s.spawn(|| run(500, "b.item"));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, (20 * 300, 20 * 300));
        assert_eq!(b, (20 * 500, 20 * 500));
    }

    #[test]
    fn guard_activate_restores_previous_guard() {
        let outer = QueryGuard::with_limits(None, 111);
        let inner = QueryGuard::with_limits(None, 222);
        let _a = outer.activate();
        assert_eq!(current_guard().unwrap().mem_budget(), 111);
        {
            let _b = inner.activate();
            assert_eq!(current_guard().unwrap().mem_budget(), 222);
        }
        assert_eq!(current_guard().unwrap().mem_budget(), 111);
        drop(_a);
        assert!(current_guard().is_none());
    }

    #[test]
    fn fault_panic_injection_fires_once_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let guard =
            QueryGuard::with_fault(None, 0, fault::FaultPlan::new(fault::FaultKind::Panic, 3));
        let items: Vec<usize> = (0..10_000).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _g = guard.activate();
            pool.for_each(&items, |_, &x| x)
        }));
        assert!(caught.is_err(), "the injected panic must propagate");
        // no respawn: the pool's worker set is fixed at construction (the
        // process-wide threads_spawned counter is asserted in the isolated
        // pool_reuse integration test; sibling unit tests racing pool
        // creation make it unusable here)
        assert_eq!(pool.stats().threads, 2);
        assert!(pool.jobs_panicked() >= 1);
        // the pool is still fully usable afterwards
        let ok: Vec<usize> = pool.for_each(&items, |_, &x| x + 1);
        assert_eq!(ok.len(), items.len());
        assert_eq!(ok[10], 11);
    }

    #[test]
    fn fault_breach_injection_trips_the_guard() {
        let pool = WorkerPool::new(2);
        let guard = QueryGuard::with_fault(
            None,
            0,
            fault::FaultPlan::new(fault::FaultKind::BudgetBreach, 0),
        );
        let _g = guard.activate();
        let items: Vec<usize> = (0..10_000).collect();
        let _ = pool.for_each(&items, |_, &x| x);
        assert!(matches!(
            guard_checkpoint(),
            Err(GuardError::ResourceExhausted { .. })
        ));
    }

    #[test]
    fn ungoverned_for_each_is_unchanged() {
        let pool = WorkerPool::new(4);
        assert!(current_guard().is_none());
        let items: Vec<usize> = (0..10_000).collect();
        let out = pool.for_each(&items, |_, &x| x * 3);
        assert_eq!(out.len(), items.len());
        assert_eq!(out[7], 21);
        assert!(guard_checkpoint().is_ok());
    }
}
