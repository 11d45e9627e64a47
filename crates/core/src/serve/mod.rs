//! The concurrent serving layer: versioned catalog, snapshot reads, and
//! budgeted sessions on the shared worker pool.
//!
//! One process serves many concurrent sessions against one set of named
//! tables. Three pieces make that safe without reader-side locking:
//!
//! - **Table generations** ([`TableGeneration`]): a named table is an
//!   immutable `Arc`'d [`Relation`](rma_relation::Relation) plus the
//!   catalog version that installed it. Writers never mutate a generation
//!   — they prepare a *new* one (e.g. with
//!   [`Relation::appended`](rma_relation::Relation::appended)) and install
//!   it.
//! - **The versioned catalog** ([`VersionedCatalog`]): an immutable root
//!   (version → table map) behind a mutex that is held only long enough to
//!   clone or swap an `Arc`. Readers [pin](VersionedCatalog::snapshot) the
//!   root once per query and then execute entirely lock-free against it;
//!   writers install a new root with a first-committer-wins compare-and-
//!   swap ([`VersionedCatalog::commit`]) — the MVCC-lite protocol.
//! - **Sessions** ([`Session`] via [`Server::session`]): each session
//!   forks the server's execution context (private statistics, shared
//!   worker pool) and carries a
//!   [`SessionTicket`](rma_relation::SessionTicket) whose seat budget and
//!   fair-scheduling pass govern how the session's morsel jobs are
//!   admitted onto the pool — one heavy query cannot starve the rest.
//!
//! ```
//! use rma_core::serve::Server;
//! use rma_core::Frame;
//! use rma_relation::RelationBuilder;
//!
//! let server = Server::default();
//! let session = server.session();
//! let t = RelationBuilder::new()
//!     .column("x", vec![1i64, 2, 3])
//!     .build()
//!     .unwrap();
//! session.create_table("t", t).unwrap();
//! let sum = session
//!     .query(Frame::table("t").aggregate(&[], vec![rma_relation::AggSpec::sum("x", "s")]))
//!     .unwrap();
//! assert_eq!(sum.column("s").unwrap().get(0), rma_storage::Value::Int(6));
//! ```

mod catalog;
mod metrics;
mod session;

pub use catalog::{CatalogSnapshot, TableGeneration, VersionedCatalog};
pub use metrics::{MetricsRegistry, MetricsSnapshot, SessionCounters, SessionMetrics};
pub use session::{Server, Session};

#[cfg(test)]
mod backoff_tests {
    use super::Backoff;
    use std::time::Duration;

    #[test]
    fn delays_stay_within_bounds_and_vary() {
        let base = Duration::from_micros(50);
        let cap = Duration::from_millis(5);
        let mut b = Backoff::new(base, cap);
        let mut delays = Vec::new();
        for _ in 0..64 {
            let d = b.next_delay();
            assert!(d >= base, "delay {d:?} under base");
            assert!(d <= cap, "delay {d:?} over cap");
            delays.push(d);
        }
        // jitter: not all 64 draws identical
        assert!(delays.iter().any(|d| d != &delays[0]));
    }
}

/// Errors of the serving layer's write path. Read-path errors surface as
/// plan errors from the query itself.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// `CREATE TABLE` of a name that already exists (use
    /// [`VersionedCatalog::create_or_replace`] to overwrite).
    TableExists(String),
    /// A write referenced a table the catalog does not hold.
    NoSuchTable(String),
    /// First-committer-wins: the table's generation moved between the
    /// writer's snapshot and its commit. The writer should re-pin, re-apply
    /// its delta, and retry (see [`Session::insert`]).
    WriteConflict {
        /// The table the commit targeted.
        table: String,
        /// The generation the writer prepared against.
        expected: u64,
        /// The generation actually installed in the catalog.
        found: u64,
    },
    /// The optimistic commit loop lost the first-committer-wins race more
    /// times than the retry cap allows (16 attempts) and gave up.
    /// Maps onto `RmaError::WriteContention` at the SQL boundary.
    Contention {
        /// The table the writes targeted.
        table: String,
        /// Commit attempts made before giving up.
        retries: u32,
    },
    /// The write's rows do not fit the table (e.g. an `INSERT` whose
    /// schema differs from the table's). Maps onto `SqlError::Relation`
    /// at the SQL boundary.
    Relation(rma_relation::RelationError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::TableExists(t) => write!(f, "table '{t}' already exists"),
            ServeError::NoSuchTable(t) => write!(f, "no such table '{t}'"),
            ServeError::WriteConflict {
                table,
                expected,
                found,
            } => write!(
                f,
                "write conflict on '{table}': prepared against generation \
                 {expected}, catalog now holds {found}"
            ),
            ServeError::Contention { table, retries } => write!(
                f,
                "write contention on '{table}': gave up after {retries} \
                 optimistic commit attempts"
            ),
            ServeError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Decorrelated-jitter backoff for optimistic-commit retries
/// (AWS-architecture-blog style: each sleep is uniform in
/// `[base, prev * 3]`, capped). Jitter decorrelates retrying writers so
/// they do not re-collide in lockstep; the cap bounds worst-case insert
/// latency at `retry_limit × cap` (~80 ms at the defaults).
#[derive(Debug)]
pub struct Backoff {
    base: std::time::Duration,
    cap: std::time::Duration,
    prev: std::time::Duration,
    /// xorshift64* state — seeded from the thread-unique address-space
    /// entropy of `RandomState`, no external RNG dependency.
    rng: u64,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::new(
            std::time::Duration::from_micros(50),
            std::time::Duration::from_millis(5),
        )
    }
}

impl Backoff {
    /// A backoff sleeping between `base` and `cap` per retry.
    pub fn new(base: std::time::Duration, cap: std::time::Duration) -> Self {
        use std::hash::{BuildHasher, Hasher};
        let seed = std::collections::hash_map::RandomState::new()
            .build_hasher()
            .finish();
        Backoff {
            base,
            cap,
            prev: base,
            rng: seed | 1, // xorshift state must be non-zero
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The next sleep duration: uniform in `[base, min(cap, prev * 3)]`.
    pub fn next_delay(&mut self) -> std::time::Duration {
        let lo = self.base.as_nanos() as u64;
        let hi = (self.prev.as_nanos() as u64)
            .saturating_mul(3)
            .min(self.cap.as_nanos() as u64)
            .max(lo + 1);
        let jittered = lo + self.next_u64() % (hi - lo);
        self.prev = std::time::Duration::from_nanos(jittered);
        self.prev
    }

    /// Sleep for [`Backoff::next_delay`].
    pub fn sleep(&mut self) {
        std::thread::sleep(self.next_delay());
    }
}
