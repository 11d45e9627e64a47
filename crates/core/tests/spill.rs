//! Out-of-core execution, end to end: forced-spill parity against the
//! in-memory operators, spill-I/O fault injection, governor interaction
//! (admission, cancellation, deadlines — all mid-spill), and the scoped
//! memory-accounting contract.
//!
//! Spill tests share the process-global live-spill-file counter
//! ([`rma_relation::live_spill_files`]), so every test here serializes on
//! one lock: an orphan check must never see a concurrent test's files.

use proptest::prelude::*;
use rma_core::serve::Server;
use rma_core::{Backend, Frame, PlanError, RmaContext, RmaError, RmaOptions, Session};
use rma_relation::par::fault::{FaultKind, FaultPlan};
use rma_relation::{live_spill_files, AggSpec, QueryGuard, Relation, RelationBuilder};
use rma_storage::{Bitmap, Column, ColumnData};
use std::sync::Mutex;
use std::time::Duration;

static SPILL_LOCK: Mutex<()> = Mutex::new(());

/// Spill disk and rejection totals for one session, read back through the
/// public metrics registry (the same numbers `/metrics` JSON reports).
fn session_spill(server: &Server, s: &Session) -> (u64, u64, u64) {
    let snap = server.metrics_snapshot();
    let m = snap
        .sessions
        .iter()
        .find(|m| m.id == s.counters().id())
        .expect("session is registered");
    (m.spill_bytes, m.spill_partitions, m.mem_rejections)
}

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // a poisoned lock only means another spill test failed; the counter
    // checks below are still meaningful
    SPILL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
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
        let _serial = lock();
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
        let (bytes, parts, _) = session_spill(&server, &spill);
        prop_assert!(bytes > 0, "forced-spill session never spilled");
        prop_assert!(parts > 0);
        prop_assert_eq!(session_spill(&server, &mem).0, 0);
        prop_assert_eq!(live_spill_files(), 0, "spill temp files leaked");
    }
}

/// The acceptance query pair: a 3-way join and an ORDER BY whose working
/// sets exceed the budget complete correctly with `spill_bytes > 0`,
/// carry spill annotations in EXPLAIN ANALYZE, and spill nothing under an
/// unlimited budget.
#[test]
fn over_budget_three_way_join_and_sort_spill_and_annotate() {
    let _serial = lock();
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
    assert_eq!(live_spill_files(), 0);
}

/// Spill-I/O fault injection: a failed spill write surfaces as the typed
/// `RmaError::SpillIo`, every temp file is removed on the error path, and
/// the session keeps serving (the retry spills successfully).
#[test]
fn spill_io_fault_is_typed_cleans_up_and_session_survives() {
    let _serial = lock();
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
    assert_eq!(live_spill_files(), 0, "error path leaked spill temp files");

    // the fault plan was one-shot: the same query now runs spilled
    let r = s.query(q).unwrap();
    assert_eq!(r.len(), 8000);
    assert!(session_spill(&server, &s).0 > 0);
    assert_eq!(live_spill_files(), 0);
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
    let _serial = lock();
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
            live_spill_files(),
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
    let _serial = lock();
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
            live_spill_files(),
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
    let _serial = lock();
    let server = Server::default();
    let s = server.session();
    s.create_table("o", orders(4000, 97)).unwrap();
    s.create_table("c", customers(97)).unwrap();
    s.set_mem_budget(2048); // far below the ~128 KB result estimate
    let r = s
        .query(Frame::table("o").join(Frame::table("c"), &[("cust", "cid")]))
        .unwrap();
    assert_eq!(r.len(), 4000);
    let (spill_bytes, _, rejections) = session_spill(&server, &s);
    assert_eq!(rejections, 0, "spillable plan must be admitted");
    assert!(spill_bytes > 0, "it must actually have spilled");
    // a bare scan has no spill path: the estimate stays binding
    let err = s.query(Frame::table("o")).unwrap_err();
    assert!(
        matches!(err, PlanError::Rma(RmaError::ResourceExhausted { .. })),
        "got {err:?}"
    );
    assert_eq!(session_spill(&server, &s).2, 1);
    assert_eq!(live_spill_files(), 0);
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
    let _serial = lock();
    let ctx = RmaContext::new(RmaOptions {
        join_reorder: false, // keep customers on the build side
        ..Default::default()
    });
    let frame = Frame::scan(orders(2000, 97))
        .join(Frame::scan(customers(97)), &[("cust", "cid")])
        .aggregate(&["cust"], vec![AggSpec::sum("amount", "total")]);
    // peak = aggregate states 32 B × 2000 = 64 000; the old accounting
    // also kept the 48 B × 97 join build charged, tripping this budget
    let guard = QueryGuard::with_limits(None, 66_000);
    let scope = guard.activate();
    let r = frame.collect(&ctx).unwrap();
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
