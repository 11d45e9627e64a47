//! Out-of-core execution, end to end: forced-spill parity against the
//! in-memory operators, spill-I/O fault injection, governor interaction
//! (admission, cancellation, deadlines — all mid-spill), and the scoped
//! memory-accounting contract.
//!
//! Orphan checks read the spill files a query left behind from its own
//! guard (through the session metrics' `spill_files_left`), never the
//! process total, so the tests run concurrently.

use proptest::prelude::*;
use rma_core::plan::{self, NoTables};
use rma_core::serve::{Server, SessionMetrics};
use rma_core::{Backend, Frame, PlanError, RmaContext, RmaError, RmaOptions, Session};
use rma_relation::par::fault::{FaultKind, FaultPlan};
use rma_relation::{AggSpec, Expr, QueryGuard, Relation, RelationBuilder};
use rma_storage::{Bitmap, Column, ColumnData};
use std::time::Duration;

/// One session's counters, read back through the public metrics registry
/// (the same numbers `/metrics` JSON reports).
fn session_metrics(server: &Server, s: &Session) -> SessionMetrics {
    server
        .metrics_snapshot()
        .sessions
        .into_iter()
        .find(|m| m.id == s.counters().id())
        .expect("session is registered")
}

/// `n` orders: `cust` cycles a small domain (few-distinct join/group
/// key), `amount` a derived float with heavy ties, `oid` unique.
fn orders(n: i64, custs: i64) -> Relation {
    RelationBuilder::new()
        .name("orders")
        .column("cust", (0..n).map(|i| i % custs).collect::<Vec<i64>>())
        .column(
            "amount",
            (0..n).map(|i| (i % 13) as f64).collect::<Vec<f64>>(),
        )
        .column("oid", (0..n).collect::<Vec<i64>>())
        .build()
        .unwrap()
}

fn customers(k: i64) -> Relation {
    RelationBuilder::new()
        .name("customers")
        .column("cid", (0..k).collect::<Vec<i64>>())
        .column(
            "tier",
            (0..k)
                .map(|i| format!("t{}", i % 3))
                .collect::<Vec<String>>(),
        )
        .build()
        .unwrap()
}

fn tiers() -> Relation {
    RelationBuilder::new()
        .name("tiers")
        .column("tname", vec!["t0", "t1", "t2"])
        .column("label", vec!["bronze", "silver", "gold"])
        .build()
        .unwrap()
}

/// Orders whose key column is one-third NULL — exercises the null-key
/// paths (joins drop them, grouping keeps them as a group).
fn null_heavy_orders(n: usize) -> Relation {
    let vals: Vec<i64> = (0..n as i64).map(|i| i % 7).collect();
    let nulls: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    let key = Column::with_nulls(ColumnData::Int(vals), Bitmap::from_bools(&nulls)).unwrap();
    RelationBuilder::new()
        .name("orders")
        .column("cust", key)
        .column(
            "amount",
            (0..n as i64).map(|i| (i % 13) as f64).collect::<Vec<f64>>(),
        )
        .column("oid", (0..n as i64).collect::<Vec<i64>>())
        .build()
        .unwrap()
}

/// Canonical order-free dump: joins and aggregates define bags, not
/// sequences, so parity compares sorted row renderings.
fn sorted_rows(r: &Relation) -> Vec<String> {
    let mut v: Vec<String> = r.rows().map(|row| format!("{row:?}")).collect();
    v.sort();
    v
}

/// In-sequence dump for ORDER BY results, where the order is the result.
fn rows_in_order(r: &Relation) -> Vec<String> {
    r.rows().map(|row| format!("{row:?}")).collect()
}

const TINY_BUDGET: u64 = 4 * 1024;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole parity property: for joins, sorts, and keyed
    /// aggregations, a forced-spill run (tiny budget) returns exactly the
    /// in-memory result, across worker-thread counts and kernel backends,
    /// on few-distinct and null-heavy keys alike.
    #[test]
    fn forced_spill_matches_in_memory(
        threads_idx in 0..3usize,
        backend_idx in 0..3usize,
        null_idx in 0..2usize,
    ) {
        let with_nulls = null_idx == 1;
        let threads = [1usize, 2, 4][threads_idx];
        let backend = [Backend::Auto, Backend::Bat, Backend::Dense][backend_idx];
        let ctx = RmaContext::new(RmaOptions {
            threads,
            backend,
            ..Default::default()
        });
        let server = Server::new(ctx);
        let mem = server.session();
        let spill = server.session();
        spill.set_mem_budget(TINY_BUDGET);
        let o = if with_nulls {
            null_heavy_orders(4000)
        } else {
            orders(4000, 97)
        };
        mem.create_table("o", o).unwrap();
        mem.create_table("c", customers(97)).unwrap();

        let queries: Vec<Frame> = vec![
            Frame::table("o").join(Frame::table("c"), &[("cust", "cid")]),
            Frame::table("o").order_by(&["amount", "oid"], &[true, false]),
            Frame::table("o").aggregate(
                &["cust"],
                vec![AggSpec::sum("amount", "total"), AggSpec::count_star("n")],
            ),
        ];
        for (i, q) in queries.iter().enumerate() {
            let baseline = mem.query(q.clone()).unwrap();
            let spilled = spill.query(q.clone()).unwrap();
            if i == 1 {
                // sort output order is the contract, compare in sequence
                prop_assert_eq!(rows_in_order(&baseline), rows_in_order(&spilled));
            } else {
                prop_assert_eq!(sorted_rows(&baseline), sorted_rows(&spilled));
            }
        }
        let (spilled, unspilled) = (session_metrics(&server, &spill), session_metrics(&server, &mem));
        prop_assert!(spilled.spill_bytes > 0, "forced-spill session never spilled");
        prop_assert!(spilled.spill_partitions > 0);
        prop_assert_eq!(spilled.spill_files_left, 0, "spill temp files leaked");
        prop_assert_eq!(unspilled.spill_bytes, 0);
    }
}

/// The acceptance query pair: a 3-way join and an ORDER BY whose working
/// sets exceed the budget complete correctly with `spill_bytes > 0`,
/// carry spill annotations in EXPLAIN ANALYZE, and spill nothing under an
/// unlimited budget.
#[test]
fn over_budget_three_way_join_and_sort_spill_and_annotate() {
    // 4 KiB: below every join build (48 B × ≥97 rows) and the sort
    // permutation (8 B × 6000 rows), so both operators must go out of core
    let ctx = RmaContext::new(RmaOptions {
        mem_budget: TINY_BUDGET as usize,
        ..Default::default()
    });
    let unlimited = RmaContext::default();
    let frame = Frame::scan(orders(6000, 97))
        .join(Frame::scan(customers(97)), &[("cust", "cid")])
        .join(Frame::scan(tiers()), &[("tier", "tname")])
        .order_by(&["amount", "oid"], &[true, true]);

    let expect = frame.collect(&unlimited).unwrap();
    assert_eq!(
        unlimited.stats().spill_bytes,
        0,
        "unbudgeted run must not spill"
    );
    let got = frame.collect(&ctx).unwrap();
    assert_eq!(got.len(), 6000);
    // (amount, oid) is a total order, so the sequences must match exactly
    assert_eq!(rows_in_order(&expect), rows_in_order(&got));
    let stats = ctx.stats();
    assert!(
        stats.spill_bytes > 0,
        "over-budget run must report spilled bytes"
    );
    assert!(stats.spill_partitions > 0);

    let annotated = frame.explain_analyze(&ctx).unwrap();
    assert!(
        annotated.contains("spilled="),
        "EXPLAIN ANALYZE missing spill annotation:\n{annotated}"
    );
    let clean = frame.explain_analyze(&unlimited).unwrap();
    assert!(
        !clean.contains("spilled="),
        "unbudgeted EXPLAIN ANALYZE must not carry spill annotations:\n{clean}"
    );
    // the same budget on a guard of the test's own: its files are all gone
    let guard = QueryGuard::with_limits(None, TINY_BUDGET);
    let active = guard.activate();
    assert_eq!(
        rows_in_order(&frame.collect(&unlimited).unwrap()),
        rows_in_order(&expect)
    );
    drop(active);
    assert!(guard.spill_bytes() > 0);
    assert_eq!(guard.live_spill_files(), 0, "spill temp files leaked");
}

/// Spill-I/O fault injection: a failed spill write surfaces as the typed
/// `RmaError::SpillIo`, every temp file is removed on the error path, and
/// the session keeps serving (the retry spills successfully).
#[test]
fn spill_io_fault_is_typed_cleans_up_and_session_survives() {
    let server = Server::default();
    let s = server.session();
    s.create_table("o", orders(8000, 97)).unwrap();
    s.create_table("c", customers(97)).unwrap();
    s.set_mem_budget(TINY_BUDGET);
    let q = Frame::table("o").join(Frame::table("c"), &[("cust", "cid")]);

    // fail the third spill write: partition files already exist on disk
    // when the fault fires, so cleanup is exercised mid-spill
    s.inject_fault(FaultPlan::new(FaultKind::SpillIo, 2));
    let err = s.query(q.clone()).unwrap_err();
    assert!(
        matches!(err, PlanError::Rma(RmaError::SpillIo(_))),
        "got {err:?}"
    );
    assert_eq!(
        session_metrics(&server, &s).spill_files_left,
        0,
        "error path leaked spill temp files"
    );

    // the fault plan was one-shot: the same query now runs spilled
    let r = s.query(q).unwrap();
    assert_eq!(r.len(), 8000);
    let m = session_metrics(&server, &s);
    assert!(m.spill_bytes > 0);
    assert_eq!(m.spill_files_left, 0);
}

/// A plan that fails mid-spill still reports what it spilled: the
/// session's `ExecStats` and its metrics read the same non-zero spill
/// bytes and partitions.
#[test]
fn a_failed_plans_spills_reach_both_views_of_the_session() {
    let server = Server::default();
    let s = server.session();
    s.create_table("o", orders(8000, 97)).unwrap();
    s.create_table("c", customers(97)).unwrap();
    s.set_mem_budget(TINY_BUDGET);
    s.inject_fault(FaultPlan::new(FaultKind::SpillIo, 2));
    let q = Frame::table("o").join(Frame::table("c"), &[("cust", "cid")]);
    let err = s.query(q).unwrap_err();
    assert!(
        matches!(err, PlanError::Rma(RmaError::SpillIo(_))),
        "got {err:?}"
    );
    let (stats, metrics) = (s.stats(), session_metrics(&server, &s));
    assert!(metrics.spill_bytes > 0 && metrics.spill_partitions > 0);
    assert_eq!(
        (
            stats.spill_bytes,
            stats.spill_partitions,
            stats.decode_sinks
        ),
        (
            metrics.spill_bytes,
            metrics.spill_partitions,
            metrics.decode_sinks
        )
    );
}

/// Budgets that cut the 400 000-row external sort of [`sort_shapes`]'s
/// table into runs of different shapes: 16 KiB gives 32 runs of 12 501
/// rows, each a single spill chunk (the merge reads nothing more once its
/// runs are open); 1 MiB gives 19 runs of 21 845 rows, two chunks each.
const SORT_SHAPES: [(u64, &str); 2] = [
    (16 * 1024, "one-chunk runs"),
    (1024 * 1024, "two-chunk runs"),
];

/// The table the cancel and deadline tests sort, and its sort.
fn sort_shapes() -> (Relation, Frame) {
    (
        orders(400_000, 997),
        Frame::table("t").order_by(&["amount", "oid"], &[true, true]),
    )
}

/// A deadline that fires while the external sort is writing or merging
/// runs must surface the typed error and release all spill disk.
#[test]
fn deadline_kill_mid_spill_releases_disk() {
    let (table, sort) = sort_shapes();
    for (budget, shape) in SORT_SHAPES {
        let server = Server::default();
        let s = server.session();
        s.create_table("t", table.clone()).unwrap();
        s.set_mem_budget(budget);
        s.set_deadline(Some(Duration::from_millis(2)));
        let err = s.query(sort.clone()).unwrap_err();
        assert!(
            matches!(err, PlanError::Rma(RmaError::DeadlineExceeded)),
            "{shape}: got {err:?}"
        );
        assert_eq!(
            session_metrics(&server, &s).spill_files_left,
            0,
            "{shape}: deadline kill left spill files behind"
        );
        // the session is not poisoned
        s.set_deadline(None);
        let r = s
            .query(Frame::table("t").aggregate(&[], vec![AggSpec::count_star("n")]))
            .unwrap();
        assert_eq!(r.len(), 1);
    }
}

/// Cancellation landing mid-spill (partition write or disk merge) must
/// stop the query with the typed error and release all spill disk.
#[test]
fn cancel_mid_spill_releases_disk() {
    let (table, sort) = sort_shapes();
    for (budget, shape) in SORT_SHAPES {
        let server = Server::default();
        let s = server.session();
        s.create_table("t", table.clone()).unwrap();
        s.set_mem_budget(budget);
        let out = std::thread::scope(|scope| {
            let session = &s;
            let query = sort.clone();
            let h = scope.spawn(move || session.query(query));
            // press cancel until it lands on the running guard (or the
            // query wins the race and finishes — either way no files may
            // survive)
            while !h.is_finished() && !s.cancel() {
                std::thread::yield_now();
            }
            h.join().expect("query thread panicked")
        });
        match out {
            Err(PlanError::Rma(RmaError::Cancelled)) => {}
            Ok(r) => assert_eq!(r.len(), 400_000, "{shape}: uncancelled run must be correct"),
            Err(other) => panic!("{shape}: expected Cancelled or a clean result, got {other:?}"),
        }
        assert_eq!(
            session_metrics(&server, &s).spill_files_left,
            0,
            "{shape}: cancellation left spill files behind"
        );
    }
}

/// Admission flip: a join whose estimated footprint exceeds the budget —
/// a pre-out-of-core `ResourceExhausted` at admission — is now admitted
/// and runs spilled under the very same budget. Non-spillable plans keep
/// the estimate-based rejection.
#[test]
fn formerly_rejected_join_now_runs_spilled_under_the_same_budget() {
    let server = Server::default();
    let s = server.session();
    s.create_table("o", orders(4000, 97)).unwrap();
    s.create_table("c", customers(97)).unwrap();
    s.set_mem_budget(2048); // far below the ~128 KB result estimate
    let r = s
        .query(Frame::table("o").join(Frame::table("c"), &[("cust", "cid")]))
        .unwrap();
    assert_eq!(r.len(), 4000);
    let m = session_metrics(&server, &s);
    assert_eq!(m.mem_rejections, 0, "spillable plan must be admitted");
    assert!(m.spill_bytes > 0, "it must actually have spilled");
    // a bare scan has no spill path: the estimate stays binding
    let err = s.query(Frame::table("o")).unwrap_err();
    assert!(
        matches!(err, PlanError::Rma(RmaError::ResourceExhausted { .. })),
        "got {err:?}"
    );
    let m = session_metrics(&server, &s);
    assert_eq!(m.mem_rejections, 1);
    assert_eq!(m.spill_files_left, 0);
}

/// The scoped-accounting regression pair for the old double-charge bug
/// (nested materialization points accumulated for the whole query):
///
/// 1. a join feeding a keyed aggregation runs in memory under a budget
///    that covers the largest single operator but **not** the old running
///    sum of both charges, and every charge is released by the end;
/// 2. the one hard (non-spillable) charge left — top-k's bounded heaps —
///    still trips with the exact documented estimate, pinning it.
#[test]
fn operator_charges_are_scoped_not_cumulative() {
    let ctx = RmaContext::default();
    let frame = Frame::scan(orders(2000, 97))
        .join(Frame::scan(customers(97)), &[("cust", "cid")])
        .aggregate(&["cust"], vec![AggSpec::sum("amount", "total")]);
    // peak = aggregate states 32 B × 2000 = 64 000; the old accounting
    // also kept the 48 B × 97 join build charged, tripping this budget
    let guard = QueryGuard::with_limits(None, 66_000);
    let scope = guard.activate();
    // the plan as written, unoptimized: customers stay on the build side
    let r = plan::execute(frame.logical_plan(), &ctx, &NoTables)
        .unwrap()
        .materialize();
    drop(scope);
    assert_eq!(r.len(), 97);
    assert_eq!(
        guard.mem_used(),
        0,
        "operator charges must be released when the operator completes"
    );
    assert_eq!(guard.spill_bytes(), 0, "this budget must not force a spill");

    // top-k: 8 B × n × threads, charged, never spilled — pin it
    let ctx = RmaContext::new(RmaOptions {
        threads: 1,
        mem_budget: 1024,
        ..Default::default()
    });
    let err = Frame::scan(orders(10_000, 97))
        .order_by(&["oid"], &[true])
        .limit(512)
        .collect(&ctx)
        .unwrap_err();
    match err {
        PlanError::Rma(RmaError::ResourceExhausted { needed, budget }) => {
            assert_eq!(budget, 1024);
            assert_eq!(needed, 8 * 512, "the documented top-k heap estimate moved");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}

/// A cross product charges its gather indices, 16 B an output row, before
/// it allocates them: `cross(a, b)` of two 2 000-row tables under a 1 MiB
/// budget fails typed instead of materialising four million rows.
#[test]
fn cross_product_indices_are_charged() {
    let table = |name: &str| {
        RelationBuilder::new()
            .column(name, (0..2000i64).collect::<Vec<i64>>())
            .build()
            .unwrap()
    };
    let ctx = RmaContext::new(RmaOptions {
        mem_budget: 1 << 20,
        ..Default::default()
    });
    let err = Frame::scan(table("x"))
        .cross(Frame::scan(table("y")))
        .select(Expr::col("x").add(Expr::col("y")).lt(Expr::lit(0i64)))
        .collect(&ctx)
        .unwrap_err();
    match err {
        PlanError::Rma(RmaError::ResourceExhausted { needed, budget }) => {
            assert_eq!(budget, 1 << 20);
            assert_eq!(needed, 16 * 2000 * 2000, "the cross-product charge moved");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}
