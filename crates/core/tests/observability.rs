//! Observability integration tests: per-session [`ExecStats`],
//! decode-sink, spill and trace-span attribution under concurrent
//! sessions, and `EXPLAIN ANALYZE` output stability across worker-thread
//! counts.

use rma_core::plan::Frame;
use rma_core::serve::{Server, Session, SessionMetrics};
use rma_core::{RmaContext, RmaOptions, Span, TraceSession};
use rma_relation::{AggSpec, Expr, Relation, RelationBuilder};
use std::sync::atomic::{AtomicBool, Ordering};

fn matrix_table() -> Relation {
    RelationBuilder::new()
        .column("k", vec!["a", "b"])
        .column("v1", vec![2.0f64, 0.0])
        .column("v2", vec![0.0f64, 2.0])
        .build()
        .unwrap()
}

/// Each concurrent session's `ExecStats` count exactly the matrix
/// operations that session issued — no bleed between sessions sharing one
/// server (and one worker pool), and none into the server's base context.
#[test]
fn exec_stats_attribute_to_the_issuing_session_under_concurrency() {
    let server = Server::default();
    let admin = server.session();
    admin.create_table("m", matrix_table()).unwrap();

    let sessions: Vec<_> = (0..4).map(|_| server.session()).collect();
    std::thread::scope(|scope| {
        for (k, session) in sessions.iter().enumerate() {
            scope.spawn(move || {
                for _ in 0..=k {
                    session
                        .query(Frame::table("m").rma_unary(rma_core::RmaOp::Inv, &["k"]))
                        .unwrap();
                }
            });
        }
    });
    for (k, session) in sessions.iter().enumerate() {
        assert_eq!(
            session.stats().ops_run,
            (k + 1) as u32,
            "session {k} miscounted its matrix ops"
        );
    }
    assert_eq!(admin.stats().ops_run, 0);
    assert_eq!(server.context().stats().ops_run, 0);

    // the registry saw every query too (4 sessions: 1+2+3+4 queries)
    let snap = server.metrics_snapshot();
    assert_eq!(snap.queries, 10);
}

fn three_way_join_frame(n: i64) -> (Relation, Relation, Relation) {
    let build = |key: &str, val: &str| {
        RelationBuilder::new()
            .column(key, (0..n).collect::<Vec<_>>())
            .column(val, (0..n).map(|i| i % 9).collect::<Vec<_>>())
            .build()
            .unwrap()
    };
    (build("k", "x"), build("k2", "y"), build("k3", "z"))
}

fn analyzed(threads: usize) -> String {
    let ctx = RmaContext::new(RmaOptions {
        threads,
        ..RmaOptions::default()
    });
    let (a, b, c) = three_way_join_frame(3000);
    Frame::scan(a)
        .select(Expr::col("x").lt(Expr::lit(5i64)))
        .join(Frame::scan(b), &[("k", "k2")])
        .join(Frame::scan(c), &[("k2", "k3")])
        .order_by(&["k"], &[true])
        .explain_analyze(&ctx)
        .unwrap()
}

/// Strip the run-dependent fields — wall time always varies, and morsel
/// counts legitimately differ with the worker-thread count — leaving the
/// tree shape, estimates, actual row counts, and q-errors.
fn normalize(text: &str) -> String {
    text.lines()
        .map(|line| {
            line.split(' ')
                .map(|tok| {
                    if tok.starts_with("time=") {
                        "time=*"
                    } else if tok.starts_with("morsels=") {
                        "morsels=*"
                    } else {
                        tok
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// EXPLAIN ANALYZE renders the identical tree — same nodes, same actual
/// rows, same q-errors — at 1 and 4 worker threads: analyzed runs execute
/// operator-at-a-time (pipeline fusion off) precisely so profiles are
/// comparable across configurations.
#[test]
fn explain_analyze_is_stable_across_thread_counts() {
    let serial = analyzed(1);
    let parallel = analyzed(4);
    assert_eq!(
        normalize(&serial),
        normalize(&parallel),
        "EXPLAIN ANALYZE diverged between 1 and 4 threads:\n--- 1 thread\n{serial}\n--- 4 threads\n{parallel}"
    );
    // every node line carries the analyze columns
    for line in serial.lines() {
        assert!(line.contains("actual="), "missing actuals: {line}");
        assert!(line.contains("time="), "missing time: {line}");
        assert!(line.contains("morsels="), "missing morsels: {line}");
        assert!(line.contains("q_err="), "missing q-error: {line}");
    }
    // the 3-way join tree is all there
    assert_eq!(serial.matches("JoinOn").count(), 2, "{serial}");
    // the scan of `a` feeds 3000 rows into the filter, which keeps x<5
    assert!(serial.contains("actual=3000"), "{serial}");
}

/// An encodable table (the catalog encodes it at ingest): `region` becomes
/// a dictionary, `amount` runs of equal floats; `cust` is a join key into
/// [`customers`], `k` a unique key.
fn encodable(n: i64) -> Relation {
    RelationBuilder::new()
        .column("k", (0..n).collect::<Vec<i64>>())
        .column(
            "region",
            (0..n)
                .map(|i| ["west", "east", "north", "south"][(i / 256 % 4) as usize])
                .collect::<Vec<&str>>(),
        )
        .column(
            "amount",
            (0..n).map(|i| (i / 64 % 7) as f64).collect::<Vec<f64>>(),
        )
        .column("cust", (0..n).map(|i| i % 97).collect::<Vec<i64>>())
        .build()
        .unwrap()
}

fn customers() -> Relation {
    RelationBuilder::new()
        .column("cid", (0..97i64).collect::<Vec<i64>>())
        .column(
            "tier",
            (0..97).map(|i| format!("t{}", i % 3)).collect::<Vec<_>>(),
        )
        .build()
        .unwrap()
}

/// A two-thread server holding [`encodable`] as `t` and [`customers`] as
/// `c`.
fn loaded_server() -> Server {
    let server = Server::new(RmaContext::new(RmaOptions {
        threads: 2,
        ..Default::default()
    }));
    let admin = server.session();
    admin.create_table("t", encodable(20_000)).unwrap();
    admin.create_table("c", customers()).unwrap();
    server
}

/// Session A's workload: a join spilled under a 4 KiB budget, then a
/// projection that must decode the RLE `amount` column.
fn decode_and_spill(s: &Session) {
    s.set_mem_budget(4 * 1024);
    let joined = s
        .query(Frame::table("t").join(Frame::table("c"), &[("cust", "cid")]))
        .unwrap();
    assert_eq!(joined.len(), 20_000);
    s.set_mem_budget(0);
    let negated = s
        .query(Frame::table("t").project_exprs(vec![(
            Expr::Neg(Box::new(Expr::col("amount"))),
            "neg".to_string(),
        )]))
        .unwrap();
    assert_eq!(negated.len(), 20_000);
}

/// Session B's workload: a dictionary-predicate count, which runs on the
/// codes and never decodes or spills.
fn dict_count(s: &Session) {
    let n = s
        .query(
            Frame::table("t")
                .select(Expr::col("region").eq(Expr::lit("west")))
                .aggregate(&[], vec![AggSpec::count_star("n")]),
        )
        .unwrap();
    assert_eq!(n.len(), 1);
}

fn metrics_of(server: &Server, s: &Session) -> SessionMetrics {
    server
        .metrics_snapshot()
        .sessions
        .into_iter()
        .find(|m| m.id == s.counters().id())
        .expect("session is registered")
}

/// What a session's queries cost: decode sinks, spill bytes, spill
/// partitions and spill files left behind.
fn costs(m: &SessionMetrics) -> [u64; 4] {
    [
        m.decode_sinks,
        m.spill_bytes,
        m.spill_partitions,
        m.spill_files_left,
    ]
}

/// Two sessions on one server, on two threads: a session's decode sinks,
/// spill bytes and leftover spill files are its own queries' and nobody
/// else's — exactly what the same workload costs alone — and the server's
/// totals are their sum.
#[test]
fn decode_sinks_and_spills_attribute_to_their_own_session_under_concurrency() {
    const ROUNDS: usize = 4;
    let solo = loaded_server();
    let s = solo.session();
    for _ in 0..ROUNDS {
        decode_and_spill(&s);
    }
    let a_solo = costs(&metrics_of(&solo, &s));
    assert!(a_solo[0] > 0, "the projection must decode: {a_solo:?}");
    assert!(
        a_solo[1] > 0 && a_solo[2] > 0,
        "the join must spill: {a_solo:?}"
    );
    assert_eq!(a_solo[3], 0, "no spill file may outlive its query");

    let server = loaded_server();
    let (a, b) = (server.session(), server.session());
    let a_done = AtomicBool::new(false);
    let b_queries = std::thread::scope(|scope| {
        let (a, b, a_done) = (&a, &b, &a_done);
        scope.spawn(move || {
            for _ in 0..ROUNDS {
                decode_and_spill(a);
            }
            a_done.store(true, Ordering::SeqCst);
        });
        // B keeps querying until A is done, so the two overlap throughout
        let runner = scope.spawn(move || {
            let mut queries = 0;
            while queries < 20 || !a_done.load(Ordering::SeqCst) {
                dict_count(b);
                queries += 1;
            }
            queries
        });
        runner.join().unwrap()
    });
    let (am, bm) = (metrics_of(&server, &a), metrics_of(&server, &b));
    assert_eq!(costs(&am), a_solo, "session A beside session B");
    assert_eq!(costs(&bm), [0; 4], "session B ran {b_queries} queries");
    let total = server.metrics_snapshot();
    assert_eq!(total.decode_sinks, am.decode_sinks + bm.decode_sinks);
    assert_eq!(total.spill_bytes, am.spill_bytes + bm.spill_bytes);
    assert_eq!(total.spill_files_left, 0);
}

/// A query's spans, comparable across runs: name, rows and morsels, and
/// for pool jobs only the submitter's span (one per job; how many workers
/// joined a job varies from run to run).
fn signature(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut sig: Vec<_> = spans
        .iter()
        .filter(|s| s.name != "pool.job" || s.worker == 0)
        .map(|s| (s.name, s.rows_in, s.rows_out, s.morsels))
        .collect();
    sig.sort_unstable();
    sig
}

/// Two concurrent `TraceSession`s, one per thread, each see exactly their
/// own query's spans: the same spans the query records when traced alone.
#[test]
fn concurrent_trace_sessions_each_see_exactly_their_own_spans() {
    let server = loaded_server();
    let join_sort = Frame::table("t")
        .join(Frame::table("c"), &[("cust", "cid")])
        .order_by(&["k"], &[true]);
    let filter_group = Frame::table("t")
        .select(Expr::col("region").eq(Expr::lit("east")))
        .aggregate(&["cust"], vec![AggSpec::count_star("n")]);
    let traced = |s: &Session, q: &Frame| {
        let session = TraceSession::start();
        s.query(q.clone()).unwrap();
        signature(&session.finish())
    };
    let (a, b) = (server.session(), server.session());
    let (a_solo, b_solo) = (traced(&a, &join_sort), traced(&b, &filter_group));
    assert!(a_solo.iter().any(|s| s.0 == "join.build"), "{a_solo:?}");
    assert!(b_solo.iter().all(|s| s.0 != "join.build"), "{b_solo:?}");
    std::thread::scope(|scope| {
        for (s, q, solo) in [(&a, &join_sort, &a_solo), (&b, &filter_group, &b_solo)] {
            scope.spawn(move || {
                for round in 0..20 {
                    assert_eq!(&traced(s, q), solo, "round {round}");
                }
            });
        }
    });
}
