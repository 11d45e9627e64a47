//! Worker-thread budget and pluggable parallel executor for the dense
//! kernels.
//!
//! The *budget* ([`available_threads`]) is resolved once per process: the
//! `RMA_THREADS` environment variable wins (the same knob the execution
//! engine's `RmaOptions::threads` defaults from, so one setting steers both
//! layers), otherwise the available hardware parallelism, capped to keep
//! overhead bounded on very wide machines.
//!
//! The *executor* is pluggable so the kernels can share the execution
//! engine's worker pool instead of spawning threads per call: `rma-core`
//! installs an adapter over its session pool via [`install_parallelism`]
//! when that pool comes up; until then (or when `rma-linalg` is used
//! standalone) a scoped-spawn fallback provides the same data parallelism
//! with per-call threads. Kernels never talk to either directly — they go
//! through [`par_chunks_mut`], which splits an output buffer into disjoint
//! chunks that workers claim from a shared counter.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Hard cap on the default worker count (explicit `RMA_THREADS` may exceed
/// it — an operator who sets the knob gets what they asked for).
const DEFAULT_THREAD_CAP: usize = 16;

/// Number of worker threads the dense kernels use.
pub fn available_threads() -> usize {
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

/// A parallel executor the dense kernels can run their data-parallel loops
/// on. Implemented by the execution engine's worker pool (installed through
/// [`install_parallelism`]) and by the built-in scoped-spawn fallback.
pub trait Parallelism: Send + Sync {
    /// Total workers `run` invokes the job with (including the caller).
    fn threads(&self) -> usize;
    /// Run `f(worker)` concurrently on any subset of the workers in
    /// `0..threads()` — the caller always runs it as worker `0`, others may
    /// or may not join — and return only when every runner has finished.
    /// The closure must therefore distribute work by claiming (the kernels
    /// claim chunks from an atomic counter), never by worker index.
    fn run(&self, f: &(dyn Fn(usize) + Sync));
}

/// Fallback executor: one `std::thread::scope` spawn per call, sized by
/// [`available_threads`]. What every kernel used before the worker pool
/// existed, and what standalone `rma-linalg` users still get.
struct ScopedSpawn;

impl Parallelism for ScopedSpawn {
    fn threads(&self) -> usize {
        available_threads()
    }

    fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        let n = self.threads();
        if n <= 1 {
            f(0);
            return;
        }
        std::thread::scope(|scope| {
            for id in 1..n {
                scope.spawn(move || f(id));
            }
            f(0);
        });
    }
}

static INSTALLED: OnceLock<Arc<dyn Parallelism>> = OnceLock::new();

/// Install the process-wide executor the dense kernels run on (e.g. the
/// execution engine's session worker pool). First install wins and is
/// permanent; returns `false` if an executor was already installed.
pub fn install_parallelism(exec: Arc<dyn Parallelism>) -> bool {
    INSTALLED.set(exec).is_ok()
}

/// The executor the kernels currently run on: the installed one, else the
/// scoped-spawn fallback.
pub(crate) fn parallelism() -> &'static dyn Parallelism {
    static FALLBACK: ScopedSpawn = ScopedSpawn;
    match INSTALLED.get() {
        Some(exec) => exec.as_ref(),
        None => &FALLBACK,
    }
}

/// Split `out` into contiguous chunks of `chunk` elements and run
/// `f(chunk_index, start, chunk_slice)` for each, workers claiming chunks
/// from a shared counter on the current executor. Chunks are disjoint, so
/// workers need no synchronisation; with one worker (or one chunk) the
/// chunks run sequentially on the caller's thread.
pub fn par_chunks_mut<T, F>(out: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let len = out.len();
    if len == 0 {
        return;
    }
    let chunk = chunk.max(1);
    let nchunks = len.div_ceil(chunk);
    let exec = parallelism();
    if nchunks <= 1 || exec.threads() <= 1 {
        for (i, dst) in out.chunks_mut(chunk).enumerate() {
            f(i, i * chunk, dst);
        }
        return;
    }
    /// The buffer base pointer, shareable across the job's workers.
    struct BasePtr<T>(*mut T);
    // SAFETY: workers derive disjoint in-bounds chunks from the pointer (the
    // claim counter hands each chunk index to exactly one worker) while the
    // caller holds the unique `&mut [T]` borrow for the whole call.
    unsafe impl<T: Send> Sync for BasePtr<T> {}
    let base = BasePtr(out.as_mut_ptr());
    let next = AtomicUsize::new(0);
    let base = &base;
    let next = &next;
    let f = &f;
    exec.run(&|_worker| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= nchunks {
            break;
        }
        let start = i * chunk;
        let end = (start + chunk).min(len);
        // SAFETY: chunk `i` is claimed exactly once and start..end chunks
        // are disjoint and within `len` (see BasePtr).
        let dst = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), end - start) };
        f(i, start, dst);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_least_one_thread() {
        assert!(available_threads() >= 1);
        // cached: a second call agrees
        assert_eq!(available_threads(), available_threads());
    }

    #[test]
    fn par_chunks_cover_the_buffer_exactly() {
        let mut buf = vec![0usize; 10_007];
        par_chunks_mut(&mut buf, 97, |i, start, dst| {
            assert_eq!(start, i * 97);
            for (k, x) in dst.iter_mut().enumerate() {
                *x = start + k + 1;
            }
        });
        assert!(buf.iter().enumerate().all(|(k, &x)| x == k + 1));
        // empty buffer and oversized chunk are fine
        let mut empty: Vec<usize> = Vec::new();
        par_chunks_mut(&mut empty, 8, |_, _, _| unreachable!());
        let mut one = vec![0u8; 3];
        par_chunks_mut(&mut one, 100, |i, start, dst| {
            assert_eq!((i, start, dst.len()), (0, 0, 3));
        });
    }
}
