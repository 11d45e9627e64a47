//! The worker pool is a session-lifetime substrate: consecutive `execute`
//! calls on one context must run on the same parked workers, never on
//! freshly spawned threads. It proves that no per-operator
//! `thread::scope` spawns remain in `algebra::parallel` / `algebra::sort`.
//!
//! Kept in its own integration-test binary: `rma_relation::threads_spawned`
//! is a process-wide counter, and a dedicated process keeps concurrent
//! tests from spawning pools of their own while we assert it is stable.

use rma_core::plan::Frame;
use rma_core::{RmaContext, RmaOptions};
use rma_relation::{threads_spawned, AggSpec, Expr, RelationBuilder};

#[test]
fn pool_threads_are_reused_across_execute_calls() {
    let rows = 6000usize;
    let table = {
        let s: Vec<i64> = (0..rows).map(|i| ((i * 37) % 101) as i64).collect();
        let g: Vec<i64> = (0..rows).map(|i| (i % 9) as i64).collect();
        let x: Vec<f64> = (0..rows).map(|i| ((i * 13) % 29) as f64).collect();
        RelationBuilder::new()
            .name("t")
            .column("s", s)
            .column("g", g)
            .column("x", x)
            .build()
            .unwrap()
    };
    let side = {
        let g2: Vec<i64> = (0..40i64).map(|i| i % 9).collect();
        let w: Vec<f64> = (0..40).map(|i| i as f64).collect();
        RelationBuilder::new()
            .column("g2", g2)
            .column("w", w)
            .build()
            .unwrap()
    };

    // every pooled operator kind: selection, aggregation, hash join,
    // full sort, and the Limit-into-Sort top-k rewrite
    let frames = [
        Frame::scan(table.clone())
            .select(Expr::col("x").gt(Expr::lit(4.0)))
            .project(&["s", "x"]),
        Frame::scan(table.clone()).aggregate(
            &["g"],
            vec![AggSpec::count_star("n"), AggSpec::sum("x", "sx")],
        ),
        Frame::scan(table.clone()).join(Frame::scan(side), &[("g", "g2")]),
        Frame::scan(table.clone()).order_by(&["s", "x"], &[true, false]),
        Frame::scan(table)
            .order_by(&["x", "s"], &[false, true])
            .limit(25),
    ];

    let ctx = RmaContext::new(RmaOptions {
        threads: 3,
        ..RmaOptions::default()
    });
    assert_eq!(ctx.pool().threads(), 3);

    // first pass: the context's pool (created at construction) does all the
    // spawning there will ever be
    for f in &frames {
        f.collect(&ctx).expect("warm-up execute");
    }
    let spawned_after_warmup = threads_spawned();
    let jobs_after_warmup = ctx.pool().jobs_run();
    assert!(
        jobs_after_warmup > 0,
        "parallel operators must enlist the pool"
    );

    // many more executes across every operator kind: job count grows,
    // thread count does not
    for _ in 0..5 {
        for f in &frames {
            f.collect(&ctx).expect("repeat execute");
        }
    }
    assert_eq!(
        threads_spawned(),
        spawned_after_warmup,
        "consecutive execute calls must reuse the parked pool workers, \
         not respawn threads"
    );
    let jobs_after_repeats = ctx.pool().jobs_run();
    assert!(
        jobs_after_repeats >= jobs_after_warmup + 25,
        "each repeated execute must submit pool jobs \
         (warm-up {jobs_after_warmup}, after repeats {jobs_after_repeats})"
    );
}
