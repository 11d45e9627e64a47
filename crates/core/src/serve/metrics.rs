//! The serving layer's metrics registry: per-session counters plus
//! pool-level gauges, snapshot-able as plain structs and dumpable as JSON.
//!
//! Every [`Session`](super::Session) — and with it every SQL engine,
//! which runs its statements through one — registers a
//! [`SessionCounters`] cell with its server's [`MetricsRegistry`] and
//! increments it on the query/write path — all atomics, no locks on the
//! hot path. A [`MetricsSnapshot`]
//! combines the per-session counters, their totals, the worker pool's
//! [`PoolStats`], and a pool-utilization estimate (busy worker time over
//! `threads × uptime`); [`MetricsSnapshot::to_json`] renders it without
//! any serialization dependency, for CI artifacts and ad-hoc dashboards.

use rma_relation::{PoolStats, QueryGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One session's activity counters. Shared (`Arc`) between the session
/// that increments and the registry that snapshots; all relaxed atomics.
#[derive(Debug)]
pub struct SessionCounters {
    id: u64,
    queries: AtomicU64,
    rows: AtomicU64,
    conflicts: AtomicU64,
    retries: AtomicU64,
    queries_cancelled: AtomicU64,
    deadline_kills: AtomicU64,
    mem_rejections: AtomicU64,
    worker_panics: AtomicU64,
    spill_bytes: AtomicU64,
    spill_partitions: AtomicU64,
    spill_files_left: AtomicU64,
    decode_sinks: AtomicU64,
}

impl SessionCounters {
    fn new(id: u64) -> Self {
        SessionCounters {
            id,
            queries: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            queries_cancelled: AtomicU64::new(0),
            deadline_kills: AtomicU64::new(0),
            mem_rejections: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            spill_bytes: AtomicU64::new(0),
            spill_partitions: AtomicU64::new(0),
            spill_files_left: AtomicU64::new(0),
            decode_sinks: AtomicU64::new(0),
        }
    }

    /// The registry-assigned session id (1-based, in open order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Count one issued query.
    pub(crate) fn record_query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Count rows returned to the client.
    pub(crate) fn record_rows(&self, n: u64) {
        self.rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one first-committer-wins write conflict and the retry it
    /// forces.
    pub(crate) fn record_conflict(&self) {
        self.conflicts.fetch_add(1, Ordering::Relaxed);
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one query killed by [`Session::cancel`](super::Session::cancel)
    /// (governor action, not an engine fault).
    pub(crate) fn record_cancelled(&self) {
        self.queries_cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one query killed by its deadline.
    pub(crate) fn record_deadline_kill(&self) {
        self.deadline_kills.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one query rejected or aborted on its memory budget (at
    /// admission or mid-flight).
    pub(crate) fn record_mem_rejection(&self) {
        self.mem_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one operator panic caught and converted to a typed error at
    /// the session boundary.
    pub(crate) fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Account one finished query's own counters, read off its guard:
    /// bytes written to spill files, spill partitions/runs created, spill
    /// files still on disk, and decode sinks.
    pub(crate) fn record_guard(&self, g: &QueryGuard) {
        let add = |cell: &AtomicU64, n| cell.fetch_add(n, Ordering::Relaxed);
        add(&self.spill_bytes, g.spill_bytes());
        add(&self.spill_partitions, g.spill_partitions());
        add(&self.spill_files_left, g.live_spill_files());
        add(&self.decode_sinks, g.decode_sinks());
    }

    pub(crate) fn snapshot(&self) -> SessionMetrics {
        SessionMetrics {
            id: self.id,
            queries: self.queries.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            queries_cancelled: self.queries_cancelled.load(Ordering::Relaxed),
            deadline_kills: self.deadline_kills.load(Ordering::Relaxed),
            mem_rejections: self.mem_rejections.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            spill_bytes: self.spill_bytes.load(Ordering::Relaxed),
            spill_partitions: self.spill_partitions.load(Ordering::Relaxed),
            spill_files_left: self.spill_files_left.load(Ordering::Relaxed),
            decode_sinks: self.decode_sinks.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data snapshot of one session's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionMetrics {
    /// Registry-assigned session id.
    pub id: u64,
    /// Queries the session issued.
    pub queries: u64,
    /// Rows returned to the session's client.
    pub rows: u64,
    /// Write conflicts the session hit (first-committer-wins losses).
    pub conflicts: u64,
    /// Optimistic-commit retries the conflicts forced.
    pub retries: u64,
    /// Queries killed by `Session::cancel`.
    pub queries_cancelled: u64,
    /// Queries killed by their deadline.
    pub deadline_kills: u64,
    /// Queries rejected or aborted on their memory budget.
    pub mem_rejections: u64,
    /// Operator panics caught and typed at the session boundary.
    pub worker_panics: u64,
    /// Bytes the session's queries wrote to spill files.
    pub spill_bytes: u64,
    /// Spill partitions/runs the session's queries created.
    pub spill_partitions: u64,
    /// Spill files the session's queries left on disk when they returned
    /// (0 = no orphans).
    pub spill_files_left: u64,
    /// Decode sinks (`Column::decoded()` calls on encoded columns, one per
    /// decode) the session's queries triggered.
    pub decode_sinks: u64,
}

/// Server-wide engine metrics: what every session did, what the pool is
/// doing, since when.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Per-session counters, in session-open order.
    pub sessions: Vec<SessionMetrics>,
    /// Total queries across sessions.
    pub queries: u64,
    /// Total rows returned across sessions.
    pub rows: u64,
    /// Total write conflicts across sessions.
    pub conflicts: u64,
    /// Total optimistic-commit retries across sessions.
    pub retries: u64,
    /// Total queries killed by cancellation across sessions.
    pub queries_cancelled: u64,
    /// Total queries killed by their deadline across sessions.
    pub deadline_kills: u64,
    /// Total memory-budget rejections across sessions.
    pub mem_rejections: u64,
    /// Total worker panics caught and typed across sessions.
    pub worker_panics: u64,
    /// Total bytes written to spill files across sessions.
    pub spill_bytes: u64,
    /// Total spill partitions/runs created across sessions.
    pub spill_partitions: u64,
    /// Total spill files left on disk by queries across sessions.
    pub spill_files_left: u64,
    /// Total decode sinks (`Column::decoded()` calls on encoded columns,
    /// one per decode) across sessions (0 = every query ran fully on
    /// encoded storage).
    pub decode_sinks: u64,
    /// Catalog storage footprint as physically held (encoded forms
    /// included), in bytes, at snapshot time.
    pub storage_encoded_bytes: u64,
    /// What the same catalog would occupy fully decoded, in bytes — the
    /// denominator of the live compression ratio.
    pub storage_plain_bytes: u64,
    /// The worker pool's counters and gauges (queue depth, wait, busy).
    pub pool: PoolStats,
    /// Time since the registry (= the server) was created.
    pub uptime: Duration,
    /// Busy worker time over `threads × uptime`, clamped to `[0, 1]` — a
    /// coarse "how loaded is the pool" figure.
    pub utilization: f64,
}

impl MetricsSnapshot {
    /// Render the snapshot as a self-contained JSON object (hand-rolled —
    /// every field is numeric, so no escaping is needed).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(256 + self.sessions.len() * 96);
        let _ = write!(
            out,
            "{{\"uptime_ms\":{},\"queries\":{},\"rows\":{},\"conflicts\":{},\"retries\":{},\
             \"queries_cancelled\":{},\"deadline_kills\":{},\"mem_rejections\":{},\
             \"worker_panics\":{},\"spill_bytes\":{},\"spill_partitions\":{},\
             \"spill_files_left\":{},\"decode_sinks\":{},\"storage_encoded_bytes\":{},\
             \"storage_plain_bytes\":{},",
            self.uptime.as_millis(),
            self.queries,
            self.rows,
            self.conflicts,
            self.retries,
            self.queries_cancelled,
            self.deadline_kills,
            self.mem_rejections,
            self.worker_panics,
            self.spill_bytes,
            self.spill_partitions,
            self.spill_files_left,
            self.decode_sinks,
            self.storage_encoded_bytes,
            self.storage_plain_bytes
        );
        let _ = write!(
            out,
            "\"pool\":{{\"threads\":{},\"threads_spawned\":{},\"jobs_run\":{},\
             \"jobs_panicked\":{},\"queue_depth\":{},\"queue_wait_us\":{},\"busy_us\":{},\
             \"utilization\":{:.4}}},",
            self.pool.threads,
            self.pool.threads_spawned,
            self.pool.jobs_run,
            self.pool.jobs_panicked,
            self.pool.queue_depth,
            self.pool.queue_wait.as_micros(),
            self.pool.busy.as_micros(),
            self.utilization
        );
        out.push_str("\"sessions\":[");
        for (i, s) in self.sessions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"queries\":{},\"rows\":{},\"conflicts\":{},\"retries\":{},\
                 \"queries_cancelled\":{},\"deadline_kills\":{},\"mem_rejections\":{},\
                 \"worker_panics\":{},\"spill_bytes\":{},\"spill_partitions\":{},\
                 \"spill_files_left\":{},\"decode_sinks\":{}}}",
                s.id,
                s.queries,
                s.rows,
                s.conflicts,
                s.retries,
                s.queries_cancelled,
                s.deadline_kills,
                s.mem_rejections,
                s.worker_panics,
                s.spill_bytes,
                s.spill_partitions,
                s.spill_files_left,
                s.decode_sinks
            );
        }
        out.push_str("]}");
        out
    }
}

/// The per-server metrics registry: assigns session ids, keeps every
/// session's counter cell, and produces [`MetricsSnapshot`]s.
#[derive(Debug)]
pub struct MetricsRegistry {
    started: Instant,
    next_id: AtomicU64,
    sessions: Mutex<Vec<Arc<SessionCounters>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            started: Instant::now(),
            next_id: AtomicU64::new(1),
            sessions: Mutex::new(Vec::new()),
        }
    }
}

impl MetricsRegistry {
    /// Open a new counter cell (called once per session).
    pub(crate) fn register_session(&self) -> Arc<SessionCounters> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let counters = Arc::new(SessionCounters::new(id));
        self.sessions
            .lock()
            .expect("metrics registry poisoned")
            .push(Arc::clone(&counters));
        counters
    }

    /// Snapshot every session's counters together with the given pool
    /// stats (the server passes its pool's; see `Server::metrics`).
    pub fn snapshot(&self, pool: PoolStats) -> MetricsSnapshot {
        let sessions: Vec<SessionMetrics> = self
            .sessions
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|c| c.snapshot())
            .collect();
        let uptime = self.started.elapsed();
        let capacity = pool.threads as f64 * uptime.as_secs_f64();
        let utilization = if capacity > 0.0 {
            (pool.busy.as_secs_f64() / capacity).clamp(0.0, 1.0)
        } else {
            0.0
        };
        MetricsSnapshot {
            queries: sessions.iter().map(|s| s.queries).sum(),
            rows: sessions.iter().map(|s| s.rows).sum(),
            conflicts: sessions.iter().map(|s| s.conflicts).sum(),
            retries: sessions.iter().map(|s| s.retries).sum(),
            queries_cancelled: sessions.iter().map(|s| s.queries_cancelled).sum(),
            deadline_kills: sessions.iter().map(|s| s.deadline_kills).sum(),
            mem_rejections: sessions.iter().map(|s| s.mem_rejections).sum(),
            worker_panics: sessions.iter().map(|s| s.worker_panics).sum(),
            spill_bytes: sessions.iter().map(|s| s.spill_bytes).sum(),
            spill_partitions: sessions.iter().map(|s| s.spill_partitions).sum(),
            spill_files_left: sessions.iter().map(|s| s.spill_files_left).sum(),
            decode_sinks: sessions.iter().map(|s| s.decode_sinks).sum(),
            // storage footprint is a catalog property, filled in by
            // `Server::metrics_snapshot` (the registry has no catalog)
            storage_encoded_bytes: 0,
            storage_plain_bytes: 0,
            sessions,
            pool,
            uptime,
            utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_assigns_ids_and_totals() {
        let reg = MetricsRegistry::default();
        let a = reg.register_session();
        let b = reg.register_session();
        assert_eq!((a.id(), b.id()), (1, 2));
        a.record_query();
        a.record_rows(10);
        b.record_query();
        b.record_query();
        b.record_conflict();
        let snap = reg.snapshot(PoolStats {
            threads: 4,
            ..PoolStats::default()
        });
        assert_eq!(snap.sessions.len(), 2);
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.rows, 10);
        assert_eq!(snap.conflicts, 1);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.sessions[1].queries, 2);
        assert!(snap.utilization >= 0.0 && snap.utilization <= 1.0);
    }

    #[test]
    fn json_dump_is_wellformed() {
        let reg = MetricsRegistry::default();
        let s = reg.register_session();
        s.record_query();
        s.record_rows(7);
        let json = reg
            .snapshot(PoolStats {
                threads: 2,
                jobs_run: 5,
                ..PoolStats::default()
            })
            .to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"queries\":1"));
        assert!(json.contains("\"rows\":7"));
        assert!(json.contains("\"jobs_run\":5"));
        assert!(json.contains("\"sessions\":[{\"id\":1,"));
        // braces balance (proxy for well-formedness without a JSON parser)
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn governor_counters_roll_up() {
        let reg = MetricsRegistry::default();
        let a = reg.register_session();
        let b = reg.register_session();
        a.record_cancelled();
        a.record_deadline_kill();
        a.record_deadline_kill();
        b.record_mem_rejection();
        b.record_worker_panic();
        let spilled = QueryGuard::new();
        spilled.record_spill(4096, 8);
        b.record_guard(&spilled);
        let leaked = QueryGuard::new();
        leaked.record_spill(1024, 2);
        let active = leaked.activate();
        let file = rma_relation::SpillFile::create().unwrap();
        drop(active);
        b.record_guard(&leaked);
        drop(file);
        let snap = reg.snapshot(PoolStats {
            jobs_panicked: 3,
            ..PoolStats::default()
        });
        assert_eq!(snap.queries_cancelled, 1);
        assert_eq!(snap.deadline_kills, 2);
        assert_eq!(snap.mem_rejections, 1);
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.sessions[0].deadline_kills, 2);
        assert_eq!(snap.sessions[1].worker_panics, 1);
        assert_eq!(snap.spill_bytes, 5120);
        assert_eq!(snap.spill_files_left, 1);
        assert_eq!(snap.spill_partitions, 10);
        assert_eq!(snap.sessions[1].spill_bytes, 5120);
        let json = snap.to_json();
        assert!(json.contains("\"queries_cancelled\":1"));
        assert!(json.contains("\"deadline_kills\":2"));
        assert!(json.contains("\"mem_rejections\":1"));
        assert!(json.contains("\"worker_panics\":1"));
        assert!(json.contains("\"jobs_panicked\":3"));
        assert!(json.contains("\"spill_bytes\":5120"));
        assert!(json.contains("\"spill_partitions\":10"));
    }

    #[test]
    fn empty_registry_snapshot() {
        let reg = MetricsRegistry::default();
        let snap = reg.snapshot(PoolStats::default());
        assert!(snap.sessions.is_empty());
        assert_eq!(snap.queries, 0);
        assert_eq!(snap.utilization, 0.0);
        assert!(snap.to_json().contains("\"sessions\":[]"));
    }
}
