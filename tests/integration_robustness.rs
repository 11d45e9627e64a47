//! Robustness: degenerate and adversarial inputs must produce typed errors
//! or well-defined results — never panics. The second half exercises the
//! resource governor end to end: cancellation, deadlines, memory budgets,
//! and contention all surface as members of the typed error matrix.

use rma::core::serve::SessionMetrics;
use rma::core::{QueryGuard, RmaContext, RmaError, RmaOptions, Session};
use rma::relation::par::fault::{FaultKind, FaultPlan};
use rma::relation::{AggSpec, RelationBuilder};
use rma::sql::SqlError;
use rma::{Engine, Frame, PlanError, Relation, Server, Value};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn empty_relation_inputs() {
    let ctx = RmaContext::default();
    let empty = RelationBuilder::new()
        .column("k", Vec::<i64>::new())
        .column("x", Vec::<f64>::new())
        .build()
        .unwrap();
    // kernels reject empty matrices with a typed error
    for result in [
        ctx.qqr(&empty, &["k"]),
        ctx.inv(&empty, &["k"]),
        ctx.det(&empty, &["k"]),
        ctx.rnk(&empty, &["k"]),
    ] {
        assert!(matches!(result, Err(RmaError::Linalg(_))));
    }
}

#[test]
fn single_row_relation() {
    let ctx = RmaContext::default();
    let one = RelationBuilder::new()
        .name("one")
        .column("k", vec![7i64])
        .column("x", vec![3.0f64])
        .build()
        .unwrap();
    let inv = ctx.inv(&one, &["k"]).unwrap();
    assert_eq!(inv.cell(0, "x").unwrap().as_f64().unwrap(), 1.0 / 3.0);
    let d = ctx.det(&one, &["k"]).unwrap();
    assert_eq!(d.cell(0, "det").unwrap(), Value::Float(3.0));
    let t = ctx.tra(&one, &["k"]).unwrap();
    assert_eq!(t.len(), 1);
    assert!(t.schema().contains("7"));
}

#[test]
fn nan_in_keys_breaks_key_property() {
    let ctx = RmaContext::default();
    let r = RelationBuilder::new()
        .column("k", vec![f64::NAN, f64::NAN])
        .column("x", vec![1.0f64, 2.0])
        .build()
        .unwrap();
    // two NaN keys are duplicates under the engine's total order
    assert!(matches!(
        ctx.qqr(&r, &["k"]),
        Err(RmaError::OrderSchemaNotKey(_))
    ));
}

#[test]
fn nan_values_flow_through_application_part() {
    let ctx = RmaContext::default();
    let r = RelationBuilder::new()
        .column("k", vec![1i64, 2])
        .column("x", vec![f64::NAN, 1.0])
        .build()
        .unwrap();
    // element-wise ops propagate NaN without panicking
    let s = RelationBuilder::new()
        .column("j", vec![1i64, 2])
        .column("y", vec![5.0f64, 5.0])
        .build()
        .unwrap();
    let sum = ctx.add(&r, &["k"], &s, &["j"]).unwrap();
    let xs = sum.column("x").unwrap().to_f64_vec().unwrap();
    assert!(xs[0].is_nan());
    assert_eq!(xs[1], 6.0);
}

#[test]
fn unknown_order_attributes_error() {
    let ctx = RmaContext::default();
    let r = RelationBuilder::new()
        .column("k", vec![1i64])
        .column("x", vec![1.0f64])
        .build()
        .unwrap();
    assert!(ctx.qqr(&r, &["nope"]).is_err());
    assert!(ctx.mmu(&r, &["k"], &r, &["nope"]).is_err());
}

#[test]
fn huge_values_do_not_break_origins() {
    let ctx = RmaContext::default();
    let r = RelationBuilder::new()
        .column("k", vec![i64::MAX, i64::MIN])
        .column("x", vec![1e300f64, 1e-300])
        .build()
        .unwrap();
    let q = ctx.vsv(&r, &["k"]).unwrap();
    assert_eq!(q.len(), 2);
    let sorted = q.sorted_by(&["k"]).unwrap();
    assert_eq!(sorted.cell(0, "k").unwrap(), Value::Int(i64::MIN));
}

#[test]
fn mismatched_binary_shapes_error_cleanly() {
    let ctx = RmaContext::default();
    let a = RelationBuilder::new()
        .column("k", vec![1i64, 2])
        .column("x", vec![1.0f64, 2.0])
        .column("y", vec![1.0f64, 2.0])
        .build()
        .unwrap();
    let b = RelationBuilder::new()
        .column("j", vec![1i64, 2, 3])
        .column("z", vec![1.0f64, 2.0, 3.0])
        .build()
        .unwrap();
    // add: tuple counts differ
    assert!(matches!(
        ctx.add(&a, &["k"], &b, &["j"]),
        Err(RmaError::TupleCountMismatch { .. })
    ));
    // mmu: inner dimensions differ (2 app cols vs 3 tuples)
    assert!(matches!(
        ctx.mmu(&a, &["k"], &b, &["j"]),
        Err(RmaError::Linalg(_))
    ));
}

fn ints(n: i64) -> Relation {
    RelationBuilder::new()
        .column("x", (0..n).collect::<Vec<i64>>())
        .build()
        .unwrap()
}

#[test]
fn governance_errors_are_typed_and_display_their_payload() {
    // every governor outcome is a first-class member of the error matrix:
    // it formats cleanly and keeps its payload for programmatic handling
    let errs = [
        RmaError::Cancelled,
        RmaError::DeadlineExceeded,
        RmaError::ResourceExhausted {
            needed: 1024,
            budget: 512,
        },
        RmaError::WorkerPanicked {
            message: "boom".to_string(),
        },
        RmaError::WriteContention { retries: 16 },
    ];
    for e in &errs {
        assert!(!e.to_string().is_empty(), "{e:?} has no message");
    }
    let exhausted = &errs[2];
    assert!(exhausted.to_string().contains("1024"), "{exhausted}");
    assert!(exhausted.to_string().contains("512"), "{exhausted}");
    assert!(errs[4].to_string().contains("16"), "{}", errs[4]);
}

#[test]
fn cancelled_guard_kills_a_plan_with_a_typed_error() {
    let ctx = RmaContext::default();
    let guard = QueryGuard::new();
    guard.cancel();
    let _scope = guard.activate();
    let err = Frame::scan(ints(1000)).collect(&ctx).unwrap_err();
    assert!(
        matches!(err, PlanError::Rma(RmaError::Cancelled)),
        "got {err:?}"
    );
}

#[test]
fn context_mem_budget_zero_is_unlimited() {
    // mem_budget = 0 (the default) must never reject anything
    let ctx = RmaContext::new(RmaOptions {
        mem_budget: 0,
        ..Default::default()
    });
    let out = Frame::scan(ints(10_000)).collect(&ctx).unwrap();
    assert_eq!(out.len(), 10_000);
}

#[test]
fn tiny_context_mem_budget_trips_with_the_typed_error() {
    // the budget governs operator *working* memory; a top-k's bounded
    // heaps are its working set, and top-k has no out-of-core fallback,
    // so a heap bigger than the budget must trip the typed error
    let ctx = RmaContext::new(RmaOptions {
        mem_budget: 64, // far below 8 bytes × 5000 heap slots
        ..Default::default()
    });
    let err = Frame::scan(ints(10_000))
        .order_by(&["x"], &[true])
        .limit(5000)
        .collect(&ctx)
        .unwrap_err();
    match err {
        PlanError::Rma(RmaError::ResourceExhausted { needed, budget }) => {
            assert_eq!(budget, 64);
            assert!(needed > 64, "needed {needed} must exceed the budget");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    // a bare scan charges no working memory and passes under the same
    // budget — result materialization is the client's footprint, not the
    // operator's (admission control, not the guard, polices result size)
    assert_eq!(
        Frame::scan(ints(10_000)).collect(&ctx).unwrap().len(),
        10_000
    );
}

#[test]
fn context_deadline_kills_a_query_and_clears() {
    let ctx = RmaContext::new(RmaOptions {
        deadline: Some(Duration::from_nanos(1)),
        ..Default::default()
    });
    let err = Frame::scan(ints(4096))
        .aggregate(&[], vec![rma::relation::AggSpec::sum("x", "s")])
        .collect(&ctx)
        .unwrap_err();
    assert!(
        matches!(err, PlanError::Rma(RmaError::DeadlineExceeded)),
        "got {err:?}"
    );
    // the trip is per-query: an undeadlined context is unaffected
    let ok = RmaContext::default();
    assert_eq!(Frame::scan(ints(64)).collect(&ok).unwrap().len(), 64);
}

#[test]
fn zero_seat_sessions_run_governed_queries() {
    // seats = 0 means "no seat cap" — the degenerate session must still
    // execute, be governable, and recover after a governor kill
    let server = Server::default();
    let session = server.session_with_budget(0);
    session.create_table("t", ints(1000)).unwrap();
    assert_eq!(session.query(Frame::table("t")).unwrap().len(), 1000);
    session.set_mem_budget(16);
    let err = session.query(Frame::table("t")).unwrap_err();
    assert!(
        matches!(err, PlanError::Rma(RmaError::ResourceExhausted { .. })),
        "got {err:?}"
    );
    session.set_mem_budget(0);
    assert_eq!(session.query(Frame::table("t")).unwrap().len(), 1000);
    // limits far from tripping poll and charge on every morsel but never
    // change the answer
    let sum = |s: &rma::Session| {
        s.query(Frame::table("t").aggregate(&[], vec![rma::relation::AggSpec::sum("x", "s")]))
            .unwrap()
            .cell(0, "s")
            .unwrap()
    };
    let ungoverned = sum(&session);
    session.set_mem_budget(u64::MAX / 2);
    session.set_deadline(Some(Duration::from_secs(3600)));
    assert_eq!(
        sum(&session),
        ungoverned,
        "the governor changed the query result"
    );
    assert_eq!(ungoverned, Value::Int((0..1000).sum()));
    // a single-seat session (every morsel job inline) behaves the same
    let inline = server.session_with_budget(1);
    assert_eq!(inline.query(Frame::table("t")).unwrap().len(), 1000);
}

#[test]
fn duplicate_origin_names_rejected() {
    let ctx = RmaContext::default();
    // order values that stringify to the same attribute name collide with C
    let r = RelationBuilder::new()
        .column("k", vec!["C", "D"])
        .column("x", vec![1.0f64, 2.0])
        .build()
        .unwrap();
    // tra creates a C column; a key value "C" would collide in the schema
    assert!(ctx.tra(&r, &["k"]).is_err());
}

/// The two front doors onto one server: a `Frame` through
/// `Session::query`, and SQL through `Engine::session` + `execute`.
#[derive(Debug, Clone, Copy)]
enum Door {
    Frame,
    Sql,
}

/// One statement spelt for both doors, the limits it runs under, and the
/// verdict both doors must reach.
struct DoorCase {
    name: &'static str,
    /// The server context's options (its `mem_budget` and `deadline`).
    options: RmaOptions,
    /// Session-level settings applied before the statement.
    session: fn(&Session),
    /// A one-shot fault armed for the statement.
    fault: Option<FaultKind>,
    /// Press `cancel()` from another thread while the statement runs.
    cancel: bool,
    sql: &'static str,
    frame: fn() -> Frame,
    /// The result's row count, or the governor error (compared by
    /// variant).
    expect: Result<usize, RmaError>,
    /// The statement must spill.
    spills: bool,
}

/// What one door made of a case: the verdict, the session's metrics, and
/// the spill growth of the session's `ExecStats`.
struct DoorOutcome {
    verdict: Result<usize, RmaError>,
    metrics: SessionMetrics,
    stats_spill: (u64, u64),
}

fn through_door(case: &DoorCase, door: Door) -> DoorOutcome {
    let server = Server::new(RmaContext::new(case.options.clone()));
    let (mut engine, session) = match door {
        Door::Frame => (None, Arc::new(server.session())),
        Door::Sql => {
            let e = Engine::session(&server);
            let s = Arc::clone(e.session_handle());
            (Some(e), s)
        }
    };
    session.create_table("t", ints(1000)).unwrap();
    session.create_table("big", ints(100_000)).unwrap();
    session
        .create_table(
            "o",
            RelationBuilder::new()
                .column("cust", (0..4000).map(|i| i % 97).collect::<Vec<i64>>())
                .column("amount", (0..4000).map(f64::from).collect::<Vec<f64>>())
                .build()
                .unwrap(),
        )
        .unwrap();
    session
        .create_table(
            "c",
            RelationBuilder::new()
                .column("cid", (0..97).collect::<Vec<i64>>())
                .column("tier", (0..97).map(|i| i % 3).collect::<Vec<i64>>())
                .build()
                .unwrap(),
        )
        .unwrap();
    (case.session)(&session);
    let mut run = || -> Result<usize, RmaError> {
        match &mut engine {
            None => match session.query((case.frame)()) {
                Ok(r) => Ok(r.len()),
                Err(PlanError::Rma(e)) => Err(e),
                Err(other) => panic!("{}: untyped Frame error {other:?}", case.name),
            },
            Some(e) => match e.query(case.sql) {
                Ok(r) => Ok(r.len()),
                Err(SqlError::Rma(e)) => Err(e),
                Err(other) => panic!("{}: untyped SQL error {other:?}", case.name),
            },
        }
    };
    if let Some(kind) = case.fault {
        session.inject_fault(FaultPlan::new(kind, 0));
    }
    let stats0 = session.stats();
    let verdict = if case.cancel {
        std::thread::scope(|scope| {
            let query = scope.spawn(&mut run);
            // press cancel until it lands on the running guard
            while !query.is_finished() && !session.cancel() {
                std::thread::yield_now();
            }
            query.join().expect("query thread panicked")
        })
    } else {
        run()
    };
    let stats1 = session.stats();
    if case.fault.is_some() {
        // the fault was one-shot and nothing is poisoned
        assert_eq!(run(), Ok(1), "{}: {door:?} stopped serving", case.name);
    }
    let snap = server.metrics_snapshot();
    assert_eq!(snap.sessions.len(), 1, "{}: {door:?}", case.name);
    DoorOutcome {
        verdict,
        metrics: snap.sessions[0],
        stats_spill: (
            stats1.spill_bytes - stats0.spill_bytes,
            stats1.spill_partitions - stats0.spill_partitions,
        ),
    }
}

/// The counter the governor moves for a given error.
fn governor_counter(e: &RmaError, m: &SessionMetrics) -> u64 {
    match e {
        RmaError::ResourceExhausted { .. } => m.mem_rejections,
        RmaError::DeadlineExceeded => m.deadline_kills,
        RmaError::Cancelled => m.queries_cancelled,
        RmaError::WorkerPanicked { .. } => m.worker_panics,
        other => panic!("not a governor error: {other:?}"),
    }
}

#[test]
fn both_front_doors_reach_the_same_verdict_and_counters() {
    // two pool threads, so the fault cases' morsel claims (and their
    // fault polls) run whatever machine hosts the test
    let opts = |mem_budget: usize, deadline: Option<Duration>| RmaOptions {
        threads: 2,
        mem_budget,
        deadline,
        ..RmaOptions::default()
    };
    let keep = |_: &Session| {};
    let sum_big = || Frame::table("big").aggregate(&[], vec![AggSpec::sum("x", "s")]);
    let cases = [
        DoorCase {
            name: "context budget rejects a non-spillable scan",
            options: opts(64, None),
            session: keep,
            fault: None,
            cancel: false,
            sql: "SELECT x FROM t",
            frame: || Frame::table("t").project(&["x"]),
            expect: Err(RmaError::ResourceExhausted {
                needed: 0,
                budget: 64,
            }),
            spills: false,
        },
        DoorCase {
            name: "context deadline kills",
            options: opts(0, Some(Duration::from_nanos(1))),
            session: keep,
            fault: None,
            cancel: false,
            sql: "SELECT SUM(x) AS s FROM t",
            frame: || Frame::table("t").aggregate(&[], vec![AggSpec::sum("x", "s")]),
            expect: Err(RmaError::DeadlineExceeded),
            spills: false,
        },
        DoorCase {
            name: "session limits override the context's",
            options: opts(64, Some(Duration::from_nanos(1))),
            session: |s| {
                s.set_mem_budget(1 << 30);
                s.set_deadline(Some(Duration::from_secs(3600)));
            },
            fault: None,
            cancel: false,
            sql: "SELECT x FROM t",
            frame: || Frame::table("t").project(&["x"]),
            expect: Ok(1000),
            spills: false,
        },
        DoorCase {
            name: "session deadline over an unlimited context",
            options: opts(0, None),
            session: |s| s.set_deadline(Some(Duration::from_nanos(1))),
            fault: None,
            cancel: false,
            sql: "SELECT SUM(x) AS s FROM t",
            frame: || Frame::table("t").aggregate(&[], vec![AggSpec::sum("x", "s")]),
            expect: Err(RmaError::DeadlineExceeded),
            spills: false,
        },
        DoorCase {
            name: "cancel from another thread",
            options: opts(0, None),
            session: keep,
            fault: Some(FaultKind::Delay(Duration::from_millis(200))),
            cancel: true,
            sql: "SELECT SUM(x) AS s FROM big",
            frame: sum_big,
            expect: Err(RmaError::Cancelled),
            spills: false,
        },
        DoorCase {
            name: "injected panic",
            options: opts(0, None),
            session: keep,
            fault: Some(FaultKind::Panic),
            cancel: false,
            sql: "SELECT SUM(x) AS s FROM big",
            frame: sum_big,
            expect: Err(RmaError::WorkerPanicked {
                message: String::new(),
            }),
            spills: false,
        },
        DoorCase {
            name: "a join spills under the context budget",
            options: opts(2048, None),
            session: keep,
            fault: None,
            cancel: false,
            sql: "SELECT * FROM o JOIN c ON cust = cid",
            frame: || Frame::table("o").join(Frame::table("c"), &[("cust", "cid")]),
            expect: Ok(4000),
            spills: true,
        },
    ];
    for case in &cases {
        let [frame, sql] = [Door::Frame, Door::Sql].map(|door| {
            let out = through_door(case, door);
            let name = case.name;
            match (&out.verdict, &case.expect) {
                (Ok(rows), Ok(want)) => assert_eq!(rows, want, "{name}: {door:?}"),
                (Err(e), Err(want)) => {
                    assert_eq!(
                        std::mem::discriminant(e),
                        std::mem::discriminant(want),
                        "{name}: {door:?} gave {e:?}"
                    );
                    assert_eq!(governor_counter(e, &out.metrics), 1, "{name}: {door:?}");
                }
                (got, _) => panic!("{name}: {door:?} gave {got:?}"),
            }
            // spill accounting: the session's metrics equal its ExecStats
            let m = &out.metrics;
            assert_eq!(
                (m.spill_bytes, m.spill_partitions),
                out.stats_spill,
                "{name}: {door:?}"
            );
            assert_eq!(
                m.spill_bytes > 0 && m.spill_partitions > 0,
                case.spills,
                "{name}: {door:?} spilled {m:?}"
            );
            out
        });
        // every counter, decode sinks included, is the session's own
        assert_eq!(
            frame.metrics, sql.metrics,
            "{}: the doors disagree",
            case.name
        );
    }
}
