//! The executor the dense kernels run their data-parallel loops on.
//!
//! `rma-linalg` owns no threads and reads no thread budget. A caller lends
//! the kernels an executor for the length of one call with
//! [`with_parallelism`]: `rma-core` lends the executing context's worker
//! pool, so a query's kernels run on that query's pool and a one-worker
//! context runs them serially. With no executor in scope (standalone use,
//! or a thread the caller never lent one to) every kernel runs on the
//! calling thread. Kernels never talk to the executor directly — they go
//! through [`par_chunks_mut`], which splits an output buffer into disjoint
//! chunks that workers claim from a shared counter.
//!
//! The scope is also the hook for anything else a caller wants a kernel to
//! see for the length of one call (a per-query poll, a pooled trailing
//! update): it is thread-local, nests, and is restored on unwind.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A parallel executor the dense kernels can run their data-parallel loops
/// on. Implemented by the execution engine's worker pool (lent through
/// [`with_parallelism`]) and by test fakes.
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

thread_local! {
    /// The executor lent to kernels called from this thread, if any.
    static CURRENT: RefCell<Option<Arc<dyn Parallelism>>> = const { RefCell::new(None) };
}

/// Run `f` with `exec` as the executor of every dense kernel it calls on
/// this thread. The previous executor (or none) is restored when `f`
/// returns or unwinds, so scopes nest.
pub fn with_parallelism<R>(exec: Arc<dyn Parallelism>, f: impl FnOnce() -> R) -> R {
    /// Restores the outer scope's executor on drop.
    struct Restore(Option<Arc<dyn Parallelism>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.set(self.0.take());
        }
    }
    let _restore = Restore(CURRENT.replace(Some(exec)));
    f()
}

/// The executor in scope on this thread, if any.
fn current() -> Option<Arc<dyn Parallelism>> {
    CURRENT.with_borrow(Option::clone)
}

/// Workers the kernels called from this thread may use: the scoped
/// executor's count, `1` with none in scope.
pub(crate) fn threads() -> usize {
    CURRENT.with_borrow(|exec| exec.as_ref().map_or(1, |e| e.threads()))
}

/// Split `out` into contiguous chunks of `chunk` elements and run
/// `f(chunk_index, start, chunk_slice)` for each, workers claiming chunks
/// from a shared counter on the scoped executor. Chunks are disjoint, so
/// workers need no synchronisation; with no executor in scope, one worker
/// or one chunk the chunks run sequentially on the caller's thread.
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
    let exec = match current() {
        Some(exec) if nchunks > 1 && exec.threads() > 1 => exec,
        _ => {
            for (i, dst) in out.chunks_mut(chunk).enumerate() {
                f(i, i * chunk, dst);
            }
            return;
        }
    };
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
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;

    /// A fake executor: `threads` scoped spawns per job, counting jobs.
    pub(crate) struct Spawning {
        pub(crate) threads: usize,
        pub(crate) jobs: AtomicU64,
    }

    impl Spawning {
        pub(crate) fn new(threads: usize) -> Arc<Spawning> {
            Arc::new(Spawning {
                threads,
                jobs: AtomicU64::new(0),
            })
        }
    }

    impl Parallelism for Spawning {
        fn threads(&self) -> usize {
            self.threads
        }

        fn run(&self, f: &(dyn Fn(usize) + Sync)) {
            self.jobs.fetch_add(1, Ordering::SeqCst);
            std::thread::scope(|scope| {
                for id in 1..self.threads {
                    scope.spawn(move || f(id));
                }
                f(0);
            });
        }
    }

    /// The thread that ran each of 16 chunks, each a millisecond long so
    /// that any other worker of a parallel run gets to claim some.
    fn chunk_threads() -> Vec<ThreadId> {
        let mut ids = vec![None; 16];
        par_chunks_mut(&mut ids, 1, |_, _, dst| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            dst[0] = Some(std::thread::current().id());
        });
        ids.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn par_chunks_cover_the_buffer_exactly() {
        let fill = || {
            let mut buf = vec![0usize; 10_007];
            par_chunks_mut(&mut buf, 97, |i, start, dst| {
                assert_eq!(start, i * 97);
                for (k, x) in dst.iter_mut().enumerate() {
                    *x = start + k + 1;
                }
            });
            assert!(buf.iter().enumerate().all(|(k, &x)| x == k + 1));
        };
        fill();
        with_parallelism(Spawning::new(3), fill);
        // empty buffer and oversized chunk are fine
        let mut empty: Vec<usize> = Vec::new();
        par_chunks_mut(&mut empty, 8, |_, _, _| unreachable!());
        let mut one = vec![0u8; 3];
        par_chunks_mut(&mut one, 100, |i, start, dst| {
            assert_eq!((i, start, dst.len()), (0, 0, 3));
        });
    }

    #[test]
    fn without_a_scope_every_chunk_runs_on_the_caller() {
        let me = std::thread::current().id();
        assert_eq!(threads(), 1);
        assert!(chunk_threads().iter().all(|&id| id == me));
    }

    #[test]
    fn a_scoped_executor_runs_the_chunks() {
        let exec = Spawning::new(2);
        let seen = with_parallelism(exec.clone(), || {
            assert_eq!(threads(), 2);
            chunk_threads()
        });
        assert_eq!(exec.jobs.load(Ordering::SeqCst), 1);
        assert_eq!(seen.len(), 16);
        // a one-worker executor is the serial case: no job at all
        let serial = Spawning::new(1);
        with_parallelism(serial.clone(), chunk_threads);
        assert_eq!(serial.jobs.load(Ordering::SeqCst), 0);
        assert_eq!(threads(), 1);
    }

    #[test]
    fn a_nested_scope_restores_the_outer_one() {
        let (outer, inner) = (Spawning::new(2), Spawning::new(3));
        with_parallelism(outer.clone(), || {
            with_parallelism(inner.clone(), || {
                assert_eq!(threads(), 3);
                chunk_threads();
            });
            assert_eq!(threads(), 2);
            chunk_threads();
            // an unwinding inner scope restores the outer one too
            let unwound = std::panic::catch_unwind(|| {
                with_parallelism(inner.clone(), || panic!("inner kernel failed"))
            });
            assert!(unwound.is_err());
            assert_eq!(threads(), 2);
        });
        assert_eq!(threads(), 1);
        assert_eq!(outer.jobs.load(Ordering::SeqCst), 1);
        assert_eq!(inner.jobs.load(Ordering::SeqCst), 1);
    }
}
