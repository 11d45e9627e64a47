//! One memory budget: the kernel choice reads the guard the query runs
//! under — a session's, a caller's, or the one a context mints from its own
//! options — as every spill decision does, and EXPLAIN predicts with it.

use rma_core::plan::{execute_analyzed, explain, explain_analyze, optimize, Frame, NoTables};
use rma_core::serve::Server;
use rma_core::{KernelUsed, QueryGuard, RmaContext, RmaOptions};
use rma_relation::{Relation, RelationBuilder};
use std::sync::atomic::{AtomicBool, Ordering};

/// A `rows × cols` application part under a descending key `k`.
fn tall(rows: usize, cols: usize) -> Relation {
    let mut b = RelationBuilder::new()
        .name("t")
        .column("k", (0..rows as i64).rev().collect::<Vec<_>>());
    for j in 0..cols {
        let x: Vec<f64> = (0..rows)
            .map(|i| ((i * (j + 1)) as f64 * 0.37).sin())
            .collect();
        b = b.column(format!("x{j}"), x);
    }
    b.build().unwrap()
}

/// 5 000 × 10: `qqr`'s dense copy is 2 · 50 000 · 8 = 800 000 B.
const PROBE: (usize, usize) = (5_000, 10);
const UNDER_THE_COPY: u64 = 500_000;

#[test]
fn a_session_budget_steers_the_kernel() {
    let server = Server::new(RmaContext::default());
    let session = server.session();
    session.create_table("t", tall(PROBE.0, PROBE.1)).unwrap();
    let qqr = || Frame::table("t").qqr(&["k"]);
    for (budget, kernel, family) in [
        (UNDER_THE_COPY, KernelUsed::Bat, "Bat"),
        (0, KernelUsed::Dense, "Dense"),
    ] {
        session.set_mem_budget(budget);
        session.reset_stats();
        session.query(qqr()).unwrap();
        assert_eq!(session.stats().last_kernel, Some(kernel), "{budget} B");
        let snap = session.pin();
        let plan = session.optimize(qqr().into_plan(), &snap);
        let explained = explain(&plan);
        assert!(
            explained.contains(&format!("backend={family}")),
            "{budget} B:\n{explained}"
        );
        let (_, actuals) = session.execute_analyzed(&plan, &snap).unwrap();
        let analyzed = explain_analyze(&plan, &snap, &actuals);
        assert!(
            analyzed.contains(&format!("ran={family}")),
            "{budget} B:\n{analyzed}"
        );
    }
}

#[test]
fn an_eager_call_obeys_the_guard_it_runs_under() {
    let t = tall(PROBE.0, PROBE.1);
    let ctx = RmaContext::default();
    {
        let _guard = QueryGuard::with_limits(None, UNDER_THE_COPY).activate();
        ctx.qqr(&t, &["k"]).unwrap();
    }
    assert_eq!(ctx.stats().last_kernel, Some(KernelUsed::Bat));
    ctx.qqr(&t, &["k"]).unwrap();
    assert_eq!(ctx.stats().last_kernel, Some(KernelUsed::Dense));
    // without a guard, a budgeted context mints one from its options
    let budgeted = RmaContext::new(RmaOptions {
        mem_budget: UNDER_THE_COPY as usize,
        ..RmaOptions::default()
    });
    budgeted.qqr(&t, &["k"]).unwrap();
    assert_eq!(budgeted.stats().last_kernel, Some(KernelUsed::Bat));
}

#[test]
fn a_dense_copy_beyond_u64_is_predicted_without_overflow() {
    // a six-way cross of 1 000-row tables: 10¹⁸ exact rows, and two
    // application columns, so 2 · cells · 8 bytes exceeds u64::MAX
    let one = |name: &str| {
        Frame::scan(
            RelationBuilder::new()
                .column(name, (0..1_000i64).collect::<Vec<_>>())
                .build()
                .unwrap(),
        )
    };
    let frame = ["a", "b", "c", "d", "e", "f"]
        .map(one)
        .into_iter()
        .reduce(Frame::cross)
        .unwrap()
        .qqr(&["a", "b", "c", "d"]);
    for (budget, family) in [(0, "Dense"), (1 << 30, "Bat")] {
        let ctx = RmaContext::new(RmaOptions {
            mem_budget: budget,
            ..RmaOptions::default()
        });
        let explained = frame.explain(&ctx);
        assert!(
            explained.contains(&format!("backend={family}")),
            "{budget} B:\n{explained}"
        );
    }
}

#[test]
fn an_rma_nodes_analyzed_times_are_its_own() {
    // another thread runs eager operations on the same context while the
    // plan is analyzed: their time is not the node's
    let ctx = RmaContext::default();
    let (big, small) = (tall(20_000, 20), tall(2_000, 10));
    let plan = optimize(Frame::scan(big).qqr(&["k"]).into_plan(), &ctx, &NoTables);
    let stop = AtomicBool::new(false);
    let nodes = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                ctx.qqr(&small, &["k"]).unwrap();
            }
        });
        while ctx.stats().ops_run == 0 {
            std::thread::yield_now();
        }
        let nodes: Vec<_> = (0..5)
            .map(|_| execute_analyzed(&plan, &ctx, &NoTables).map(|(_, a)| a[0]))
            .collect();
        stop.store(true, Ordering::Relaxed);
        nodes
    });
    for node in nodes {
        let node = node.unwrap();
        assert!(
            node.order_nanos + node.kernel_nanos <= node.nanos,
            "{node:?}"
        );
        assert_eq!(node.ran, Some(KernelUsed::Dense));
    }
}
