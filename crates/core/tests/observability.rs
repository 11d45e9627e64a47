//! Observability integration tests: per-session [`ExecStats`],
//! decode-sink, spill and trace-span attribution under concurrent
//! sessions, `EXPLAIN ANALYZE` output stability across worker-thread
//! counts, and `EXPLAIN ANALYZE` reporting the operators a plain run
//! executes.

use rma_core::plan::{execute, optimize, Frame};
use rma_core::serve::{Server, Session, SessionMetrics};
use rma_core::{RmaContext, RmaOptions, Span, TableProvider, TraceSession};
use rma_relation::{par::MIN_PARALLEL_ROWS, AggSpec, Expr, Relation, RelationBuilder};
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
/// counts and operator strategies legitimately differ with the
/// worker-thread count — leaving the tree shape, estimates, actual row
/// counts, and q-errors.
fn normalize(text: &str) -> String {
    text.lines()
        .map(|line| {
            line.split(' ')
                .map(|tok| {
                    if tok.starts_with("time=") {
                        "time=*"
                    } else if tok.starts_with("morsels=") {
                        "morsels=*"
                    } else if tok.starts_with("strategy=") {
                        "strategy=*"
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
/// rows, same q-errors — at 1 and 4 worker threads: every run executes
/// operator-at-a-time, so profiles are comparable across configurations.
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

/// One named table, `t`: `n` rows of a key, a small-domain filter column
/// and a payload.
struct OneTable(Relation);

impl TableProvider for OneTable {
    fn table(&self, name: &str) -> Option<&Relation> {
        (name == "t").then_some(&self.0)
    }
}

fn one_table(n: i64) -> OneTable {
    OneTable(
        RelationBuilder::new()
            .name("t")
            .column("k", (0..n).collect::<Vec<_>>())
            .column("x", (0..n).map(|i| i % 9).collect::<Vec<_>>())
            .column("y", (0..n).map(|i| i as f64 * 0.5).collect::<Vec<_>>())
            .build()
            .unwrap(),
    )
}

fn ctx_with(threads: usize) -> RmaContext {
    RmaContext::new(RmaOptions {
        threads,
        ..RmaOptions::default()
    })
}

/// An EXPLAIN ANALYZE rendering's nodes as (`exec.*` span name, actual
/// rows, morsels), sorted: `JoinOn … actual=7 … morsels=2` becomes
/// `("exec.join_on", 7, 2)`.
fn analyzed_nodes(text: &str) -> Vec<(String, u64, u64)> {
    let field = |line: &str, key: &str| -> u64 {
        let tok = line.split(' ').find_map(|t| t.strip_prefix(key));
        tok.expect(key).parse().unwrap()
    };
    let mut nodes: Vec<_> = text
        .lines()
        .map(|line| {
            let kind = line.trim_start().split(' ').next().unwrap();
            let mut name = String::from("exec.");
            for (i, c) in kind.chars().enumerate() {
                if c.is_uppercase() && i > 0 {
                    name.push('_');
                }
                name.push(c.to_ascii_lowercase());
            }
            (name, field(line, "actual="), field(line, "morsels="))
        })
        .collect();
    nodes.sort_unstable();
    nodes
}

/// A run's `exec.*` spans as (name, rows out, morsels), sorted.
fn exec_spans(spans: &[Span]) -> Vec<(String, u64, u64)> {
    let mut nodes: Vec<_> = spans
        .iter()
        .filter(|s| s.name.starts_with("exec."))
        .map(|s| (s.name.to_string(), s.rows_out, s.morsels))
        .collect();
    nodes.sort_unstable();
    nodes
}

/// A plain `execute` of a `Scan → Select → Project` plan records one
/// `exec.*` span per node that EXPLAIN ANALYZE prints, with the same rows
/// and morsels, at every thread count: the analyzed run is the same
/// execution, not a second path.
#[test]
fn what_ran_is_what_explain_analyze_shows() {
    let tables = one_table(4 * MIN_PARALLEL_ROWS as i64);
    let frame = Frame::table("t")
        .select(Expr::col("x").lt(Expr::lit(5i64)))
        .project(&["k", "y"]);
    for threads in [1, 2, 4] {
        let ctx = ctx_with(threads);
        let text = frame.explain_analyze_with(&ctx, &tables).unwrap();
        let analyzed = analyzed_nodes(&text);
        let names: Vec<&str> = analyzed.iter().map(|n| n.0.as_str()).collect();
        assert_eq!(
            names,
            ["exec.project", "exec.scan", "exec.select"],
            "{text}"
        );

        let plan = optimize(frame.clone().into_plan(), &ctx, &tables);
        let session = TraceSession::start();
        let out = execute(&plan, &ctx, &tables).unwrap();
        let spans = session.finish();
        assert_eq!(exec_spans(&spans), analyzed, "threads {threads}:\n{text}");
        assert_eq!(out.len() as u64, analyzed[0].1);
        // at more than one thread the filter ran on the pool
        let select_morsels = analyzed[2].2;
        assert_eq!(select_morsels > 0, threads > 1, "{text}");
    }
}

/// A projection of column references over a scan shares the table's
/// columns at every thread count: the result is neither a copy nor an
/// index view.
#[test]
fn column_projection_over_a_scan_stays_zero_copy() {
    let tables = one_table(4 * MIN_PARALLEL_ROWS as i64);
    let plan = Frame::table("t").project(&["y", "k"]).into_plan();
    for threads in [1, 2, 4] {
        let out = execute(&plan, &ctx_with(threads), &tables).unwrap();
        assert!(!out.is_view(), "threads {threads}: an index view");
        assert_eq!(out.len(), tables.0.len());
        for name in ["y", "k"] {
            let col = out.base_column(name).unwrap();
            assert!(
                col.shares_data_with(tables.0.base_column(name).unwrap()),
                "threads {threads}: `{name}` was copied"
            );
        }
    }
}

/// `morsels=` counts what the pool ran. A top-k whose limit is a large
/// share of its input runs the serial heap and dispatches nothing; a
/// filter over the same rows dispatches its morsels.
#[test]
fn explain_analyze_morsels_are_observed() {
    let ctx = ctx_with(2);
    let r = one_table(2000).0;
    let top = Frame::scan(r.clone())
        .order_by(&["x"], &[true])
        .limit(600)
        .explain_analyze(&ctx)
        .unwrap();
    assert!(top.contains("TopK"), "{top}");
    assert!(!top.contains("morsels=2"), "{top}");
    assert!(
        top.lines().all(|l| l.contains("morsels=0")),
        "nothing ran on the pool:\n{top}"
    );
    let filtered = Frame::scan(r)
        .select(Expr::col("x").lt(Expr::lit(5i64)))
        .explain_analyze(&ctx)
        .unwrap();
    let select = filtered.lines().find(|l| l.contains("Select")).unwrap();
    let expected = rma_relation::morsel_count(2, 2000);
    assert!(
        select.contains(&format!("morsels={expected} ")),
        "{filtered}"
    );
}

/// The six relational operators over a 4 096-row relation, each as its own
/// plan, named by the EXPLAIN ANALYZE node that runs it. Their inputs are
/// scans, so each node's inclusive `morsels=` and `spilled=` are its own.
fn six_operators() -> Vec<(&'static str, Frame)> {
    let n = 4 * MIN_PARALLEL_ROWS as i64;
    let r = RelationBuilder::new()
        .name("r")
        .column("k", (0..n).collect::<Vec<i64>>())
        .column("g", (0..n).map(|i| i % 7).collect::<Vec<i64>>())
        .column("x", (0..n).map(|i| (i % 13) as f64).collect::<Vec<f64>>())
        .build()
        .unwrap();
    // 64 build rows: 3 KiB at the join's 48 B a row
    let side = |key: &str| {
        RelationBuilder::new()
            .column(key, (0..64).map(|i| i % 7).collect::<Vec<i64>>())
            .column("w", (0..64).map(|i| i as f64).collect::<Vec<f64>>())
            .build()
            .unwrap()
    };
    let scan = || Frame::scan(r.clone());
    vec![
        ("Select", scan().select(Expr::col("x").lt(Expr::lit(5.0)))),
        (
            "Aggregate",
            scan().aggregate(&["g"], vec![AggSpec::count_star("n")]),
        ),
        (
            "JoinOn",
            scan().join(Frame::scan(side("g2")), &[("g", "g2")]),
        ),
        ("NaturalJoin", scan().natural_join(Frame::scan(side("g")))),
        ("OrderBy", scan().order_by(&["x", "k"], &[true, false])),
        (
            "TopK",
            scan().order_by(&["x", "k"], &[true, false]).limit(10),
        ),
    ]
}

/// EXPLAIN ANALYZE's `strategy=` names the path each relational operator
/// took: serial on one thread, pooled on more, and spilled for the joins,
/// the sort and the keyed aggregate under a budget below their working
/// sets (σ and top-k never spill). It agrees with what the node itself
/// shows ran: `spilled=` when it spilled, `morsels=` above 0 when pooled.
#[test]
fn explain_analyze_strategy_is_the_path_that_ran() {
    for threads in [1, 2, 4] {
        // 2 KiB: below the 3 KiB join build, the sort's 32 KiB permutation
        // and the aggregate's 128 KiB of groups; above top-k's 320 B heaps
        for budget in [0, 2048] {
            let ctx = RmaContext::new(RmaOptions {
                threads,
                mem_budget: budget,
                ..RmaOptions::default()
            });
            for (node, frame) in six_operators() {
                let text = frame.explain_analyze(&ctx).unwrap();
                let line = text
                    .lines()
                    .find(|l| l.trim_start().starts_with(node))
                    .unwrap_or_else(|| panic!("no {node} node:\n{text}"));
                let field = |key: &str| {
                    let tok = line.split(' ').find_map(|t| t.strip_prefix(key));
                    tok.unwrap_or_else(|| panic!("no {key} on {line}"))
                };
                let ran = if line.contains(" spilled=") {
                    "spilled"
                } else if field("morsels=") != "0" {
                    "pooled"
                } else {
                    "serial"
                };
                let expected = match (budget, node, threads) {
                    (2048, "Aggregate" | "JoinOn" | "NaturalJoin" | "OrderBy", _) => "spilled",
                    (_, _, 1) => "serial",
                    _ => "pooled",
                };
                let context = format!("threads={threads} budget={budget}:\n{text}");
                assert_eq!(field("strategy="), expected, "{context}");
                assert_eq!(ran, expected, "{context}");
                // the inputs below ran no relational operator of their own
                let mut rest = text.lines().filter(|l| *l != line);
                assert!(rest.clone().count() > 0, "{context}");
                assert!(rest.all(|l| !l.contains("strategy=")), "{context}");
            }
        }
    }
}
