//! Query profiling: structured trace spans and the Chrome-trace exporter.
//!
//! The recording substrate lives in [`rma_relation::trace`] (so the worker
//! pool and the parallel operators — which cannot depend on this crate —
//! can record); this module is the user-facing API:
//!
//! - [`TraceSession`] installs a span collector for a profiled region
//!   (typically one query), and [`TraceSession::finish`] returns the
//!   recorded [`Span`]s, start-ordered.
//! - [`chrome_trace_json`] renders spans in the Chrome trace-event format,
//!   loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)
//!   — one timeline lane per worker, with rows/morsels attached as event
//!   arguments.
//!
//! Overhead contract: with no session active every instrumentation point
//! costs one relaxed atomic load ([`rma_relation::trace::enabled`]); with
//! a session active, spans are `Copy` structs appended to per-worker
//! buffers — no per-span allocation, no serialization until export. The
//! `profile` bench target gates the traced/untraced ratio at ≤ 5%.
//!
//! ```
//! use rma_core::{trace::TraceSession, RmaContext};
//! use rma_core::plan::Frame;
//! use rma_relation::{Expr, RelationBuilder};
//!
//! let r = RelationBuilder::new()
//!     .column("x", (0..5000i64).collect::<Vec<_>>())
//!     .build()
//!     .unwrap();
//! let ctx = RmaContext::default();
//! let session = TraceSession::start();
//! Frame::scan(r)
//!     .select(Expr::col("x").lt(Expr::lit(100i64)))
//!     .collect(&ctx)
//!     .unwrap();
//! let spans = session.finish();
//! assert!(spans.iter().any(|s| s.cat == "exec"));
//! let json = rma_core::trace::chrome_trace_json(&spans);
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

use rma_relation::trace as sink;
pub use rma_relation::trace::Span;
use std::sync::Arc;

/// A profiling session: installing one starts span collection
/// process-wide; [`finish`](TraceSession::finish) (or drop) stops it.
///
/// Sessions nest last-wins: starting a second session while one is active
/// redirects recording to the newer one, and the older session's `finish`
/// returns what it captured before being superseded.
#[derive(Debug)]
pub struct TraceSession {
    collector: Arc<sink::TraceCollector>,
}

impl TraceSession {
    /// Install a fresh collector and start recording spans.
    pub fn start() -> Self {
        let collector = Arc::new(sink::TraceCollector::new());
        sink::install(Arc::clone(&collector));
        TraceSession { collector }
    }

    /// Stop recording and return every captured span, start-ordered.
    pub fn finish(self) -> Vec<Span> {
        sink::uninstall(&self.collector);
        self.collector.drain()
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        // finish() already uninstalled (identity-checked, so this is a
        // no-op after it); this covers early drops and unwinding
        sink::uninstall(&self.collector);
    }
}

/// Render spans in the Chrome trace-event format (JSON object form), ready
/// for `chrome://tracing` or Perfetto: complete (`"ph":"X"`) events with
/// microsecond timestamps, one thread lane per worker, and
/// `rows_in`/`rows_out`/`morsels` as event arguments.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 128);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"rows_in\":{},\"rows_out\":{},\"morsels\":{}}}}}",
            s.name,
            s.cat,
            s.start_ns / 1_000,
            (s.dur_ns / 1_000).max(1),
            s.worker,
            s.rows_in,
            s.rows_out,
            s.morsels
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Frame;
    use crate::RmaContext;
    use rma_relation::{Expr, RelationBuilder};

    /// The collector slot is process-global (last session wins), so tests
    /// that start sessions must not interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn big(n: i64) -> rma_relation::Relation {
        RelationBuilder::new()
            .column("x", (0..n).collect::<Vec<_>>())
            .column("y", (0..n).map(|i| (i * 3) % 7).collect::<Vec<_>>())
            .build()
            .unwrap()
    }

    #[test]
    fn a_traced_query_yields_exec_and_pool_spans() {
        let _serial = serial();
        let ctx = RmaContext::default();
        let session = TraceSession::start();
        let out = Frame::scan(big(5000))
            .select(Expr::col("y").eq(Expr::lit(3i64)))
            .collect(&ctx)
            .unwrap();
        let spans = session.finish();
        assert!(!out.is_empty());
        assert!(
            spans.iter().any(|s| s.cat == "exec"),
            "no exec span in {spans:?}"
        );
        if ctx.pool().threads() > 1 {
            assert!(spans.iter().any(|s| s.cat == "pool"), "no pool span");
        }
        // start-ordered
        assert!(spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn chrome_export_is_wellformed_and_complete() {
        let spans = vec![
            Span {
                name: "exec.select",
                cat: "exec",
                worker: 0,
                start_ns: 1_500,
                dur_ns: 2_000_000,
                rows_in: 100,
                rows_out: 40,
                morsels: 4,
            },
            Span {
                name: "pool.job",
                cat: "pool",
                worker: 3,
                start_ns: 2_000,
                dur_ns: 10, // sub-microsecond: clamped to dur 1
                rows_in: 0,
                rows_out: 0,
                morsels: 0,
            },
        ];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"name\":\"exec.select\""));
        assert!(json.contains("\"ts\":1,\"dur\":2000"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"dur\":1,"));
        assert!(json.contains("\"rows_out\":40"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }

    #[test]
    fn empty_session_exports_an_empty_trace() {
        let _serial = serial();
        let session = TraceSession::start();
        let spans = session.finish();
        let json = chrome_trace_json(&spans);
        assert_eq!(json, "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
    }
}
