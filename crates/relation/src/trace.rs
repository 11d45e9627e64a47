//! Low-level span recording for the profiler: a per-thread, opt-in
//! collector that operators and the worker pool write completed spans into.
//!
//! A collector is installed on one thread ([`collect_into`]) and the worker
//! pool carries it to every worker running a job that thread submits, so
//! spans land in the collector of the query that caused them. With no
//! collector the hot path is one thread-local read ([`clock`]); with one it
//! is allocation-free in the steady state: a [`Span`] is `Copy`, and each
//! recording thread appends to one of a fixed set of mutex-guarded buffers
//! selected by worker index, so concurrent workers rarely contend.
//!
//! Higher layers (`rma_core::trace`) own the user-facing API: they install
//! a [`TraceCollector`] for the duration of a profiled query, drain it, and
//! export the spans (e.g. as a Chrome-trace JSON for Perfetto). This module
//! deliberately knows nothing about queries or plans — only spans.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed, timed unit of work: an operator's morsel batch, a sort
/// run, a hash-join build, a pool job execution. All fields are plain data
/// so recording never allocates (buffer growth is amortised and bounded by
/// the number of spans).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Operator or phase name (static so spans stay `Copy`).
    pub name: &'static str,
    /// Coarse category, e.g. `"exec"`, `"sort"`, `"join"`, `"pool"`.
    pub cat: &'static str,
    /// Worker index the span ran on (`0` = the submitting thread).
    pub worker: usize,
    /// Start time in nanoseconds since the collector's epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Rows the unit consumed (0 when not meaningful).
    pub rows_in: u64,
    /// Rows the unit produced (0 when not meaningful).
    pub rows_out: u64,
    /// Morsels processed inside the span (0 when not meaningful).
    pub morsels: u64,
}

/// How many independent span buffers a collector keeps. Workers hash into
/// buffers by index, so any pool size up to this records contention-free.
const BUFFERS: usize = 32;

/// A sink for spans recorded while it is [installed](collect_into). One
/// collector corresponds to one profiled region (typically one query).
#[derive(Debug)]
pub struct TraceCollector {
    epoch: Instant,
    buffers: Vec<Mutex<Vec<Span>>>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::new()
    }
}

impl TraceCollector {
    /// A fresh collector whose epoch is "now".
    pub fn new() -> Self {
        TraceCollector {
            epoch: Instant::now(),
            buffers: (0..BUFFERS).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// The collector's time origin ([`Span::start_ns`] is relative to it).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn push(&self, worker: usize, span: Span) {
        let buf = &self.buffers[worker % BUFFERS];
        buf.lock().expect("trace buffer poisoned").push(span);
    }

    /// Remove and return every recorded span, ordered by start time.
    pub fn drain(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for buf in &self.buffers {
            out.append(&mut buf.lock().expect("trace buffer poisoned"));
        }
        out.sort_by_key(|s| (s.start_ns, s.worker));
        out
    }
}

thread_local! {
    /// The collector spans recorded on this thread go to, if any.
    static COLLECTOR: RefCell<Option<Arc<TraceCollector>>> = const { RefCell::new(None) };
}

/// The collector installed on this thread, if any.
pub fn current() -> Option<Arc<TraceCollector>> {
    COLLECTOR.with_borrow(Clone::clone)
}

/// Record this thread's spans into `collector` (`None`: record nothing)
/// until the returned scope drops, which restores the previous collector.
/// Scopes nest, innermost wins.
pub fn collect_into(collector: Option<Arc<TraceCollector>>) -> TraceScope {
    TraceScope {
        prev: COLLECTOR.replace(collector),
        _thread: PhantomData,
    }
}

/// RAII scope of [`collect_into`]. Not `Send`: it restores the slot of the
/// thread that opened it.
#[must_use = "spans are only collected while the scope lives"]
#[derive(Debug)]
pub struct TraceScope {
    prev: Option<Arc<TraceCollector>>,
    _thread: PhantomData<*const ()>,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        COLLECTOR.set(self.prev.take());
    }
}

/// Start a span clock iff a collector is installed on this thread. Returns
/// `None` (one thread-local read, no syscall) when none is — thread the
/// result into [`record`], which is then a no-op.
#[inline]
pub fn clock() -> Option<Instant> {
    if COLLECTOR.with_borrow(Option::is_some) {
        Some(Instant::now())
    } else {
        None
    }
}

/// Record a span started at `started` (from [`clock`]) into this thread's
/// collector. No-op when `started` is `None` or the collector's scope
/// ended meanwhile.
pub fn record(
    name: &'static str,
    cat: &'static str,
    worker: usize,
    started: Option<Instant>,
    rows_in: u64,
    rows_out: u64,
    morsels: u64,
) {
    let Some(started) = started else { return };
    let end = Instant::now();
    COLLECTOR.with_borrow(|collector| {
        let Some(collector) = collector else { return };
        let start_ns = started
            .saturating_duration_since(collector.epoch)
            .as_nanos() as u64;
        let dur_ns = end.saturating_duration_since(started).as_nanos() as u64;
        collector.push(
            worker,
            Span {
                name,
                cat,
                worker,
                start_ns,
                dur_ns,
                rows_in,
                rows_out,
                morsels,
            },
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_no_op() {
        assert!(current().is_none());
        assert!(clock().is_none());
        record("x", "test", 0, None, 1, 1, 1);
        // nothing to assert beyond "did not panic / did not need a sink"
    }

    #[test]
    fn spans_round_trip_through_the_collector() {
        let c = Arc::new(TraceCollector::new());
        let scope = collect_into(Some(Arc::clone(&c)));
        let t = clock();
        assert!(t.is_some());
        record("op.a", "test", 0, t, 10, 5, 2);
        record("op.b", "test", 3, clock(), 7, 7, 1);
        drop(scope);
        assert!(clock().is_none());
        let spans = c.drain();
        assert_eq!(spans.len(), 2);
        let a = spans.iter().find(|s| s.name == "op.a").unwrap();
        assert_eq!((a.rows_in, a.rows_out, a.morsels, a.worker), (10, 5, 2, 0));
        assert!(spans.iter().all(|s| s.cat == "test"));
        // drained: a second drain is empty
        assert!(c.drain().is_empty());
    }

    #[test]
    fn scopes_nest_and_stay_on_their_thread() {
        let outer = Arc::new(TraceCollector::new());
        let inner = Arc::new(TraceCollector::new());
        let _outer = collect_into(Some(Arc::clone(&outer)));
        {
            let _inner = collect_into(Some(Arc::clone(&inner)));
            record("inner", "test", 0, clock(), 0, 0, 0);
        }
        record("outer", "test", 0, clock(), 0, 0, 0);
        // another thread has no collector of its own
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(clock().is_none());
                record("elsewhere", "test", 1, Some(Instant::now()), 0, 0, 0);
            });
        });
        let names = |c: &TraceCollector| c.drain().iter().map(|s| s.name).collect::<Vec<_>>();
        assert_eq!(names(&inner), ["inner"]);
        assert_eq!(names(&outer), ["outer"]);
    }
}
