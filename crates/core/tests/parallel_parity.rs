//! Property test: parallel/serial parity. For randomly generated relations
//! and plan shapes, executing at every pool width of the parity harness
//! (`parity::POOL_WIDTHS`) produces *exactly* the relation the serial
//! interpreter (`threads = 1`) produces — same rows,
//! same order — across the Auto/Bat/Dense backends. Morsels are contiguous
//! row ranges reassembled in range order, so even row order must survive.
//!
//! Float columns hold small integer values: integer-valued f64 sums are
//! exact under any association, so the parallel aggregation's partial-sum
//! merge is bitwise-identical to the serial left-to-right accumulation.

mod parity;

use parity::at_every_width;
use proptest::prelude::*;
use rma_core::plan::Frame;
use rma_core::Backend;
use rma_relation::{AggFunc, AggSpec, Expr, Relation, RelationBuilder};

/// A relation with a distinct shuffled int key `k` (usable as an RMA order
/// schema), a small grouping column `g`, and two integer-valued float
/// application columns.
fn gen_rel(rows: usize, rng: &mut TestRng) -> Relation {
    let mut keys: Vec<i64> = (0..rows as i64).collect();
    for i in (1..rows).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        keys.swap(i, j);
    }
    let g: Vec<i64> = (0..rows).map(|_| (rng.next_u64() % 7) as i64).collect();
    let x: Vec<f64> = (0..rows)
        .map(|_| (rng.next_u64() % 17) as f64 - 8.0)
        .collect();
    let y: Vec<f64> = (0..rows)
        .map(|_| (rng.next_u64() % 11) as f64 - 5.0)
        .collect();
    RelationBuilder::new()
        .name("r")
        .column("k", keys)
        .column("g", g)
        .column("x", x)
        .column("y", y)
        .build()
        .expect("valid relation")
}

/// A small build-side relation for joins, keyed (with duplicates) on `g2`
/// and carrying a payload column.
fn gen_side(rng: &mut TestRng) -> Relation {
    let rows = 20 + (rng.next_u64() % 20) as usize;
    let g2: Vec<i64> = (0..rows).map(|_| (rng.next_u64() % 9) as i64).collect();
    let w: Vec<f64> = (0..rows).map(|_| (rng.next_u64() % 13) as f64).collect();
    RelationBuilder::new()
        .column("g2", g2)
        .column("w", w)
        .build()
        .expect("valid relation")
}

/// Build one of the plan shapes the parallel operators handle: a
/// scan→select→project chain, parallel aggregation, partitioned hash
/// joins, an RMA operation over parallel-produced input, and the top-k
/// rewrite.
fn build_frame(kind: usize, r: &Relation, s: &Relation) -> Frame {
    let scan = Frame::scan(r.clone());
    match kind {
        0 => scan
            .select(
                Expr::col("x")
                    .gt(Expr::lit(0.0))
                    .and(Expr::col("g").lt(Expr::lit(5i64))),
            )
            .project(&["k", "x"]),
        1 => scan.select(Expr::col("k").gt(Expr::lit(10i64))).aggregate(
            &["g"],
            vec![
                AggSpec::count_star("n"),
                AggSpec::sum("x", "sx"),
                AggSpec::avg("x", "ax"),
                AggSpec::new(AggFunc::Min, Some("y"), "lo"),
                AggSpec::new(AggFunc::Max, Some("y"), "hi"),
            ],
        ),
        2 => scan
            .join(Frame::scan(s.clone()), &[("g", "g2")])
            .select(Expr::col("w").gt_eq(Expr::lit(3.0))),
        3 => scan.select(Expr::col("x").gt(Expr::lit(-5.0))).qqr(&["k"]),
        4 => {
            // natural join on the shared `g` column
            let renamed = rma_relation::rename(s, &[("g2", "g")]).expect("rename");
            scan.natural_join(Frame::scan(renamed))
        }
        _ => scan.order_by(&["x", "k"], &[true, false]).limit(7),
    }
}

fn backends() -> [Backend; 3] {
    [Backend::Auto, Backend::Bat, Backend::Dense]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn parallel_execution_equals_serial(
        (rows, kind) in (600usize..2600, 0usize..6),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = TestRng::from_seed_u64(seed);
        let r = gen_rel(rows, &mut rng);
        let s = gen_side(&mut rng);
        let frame = build_frame(kind, &r, &s);
        for backend in backends() {
            let mut runs = at_every_width(&frame, backend).into_iter();
            let (_, serial) = runs.next().expect("the serial width");
            for (threads, parallel) in runs {
                match (&serial, &parallel) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(
                        a, b,
                        "mismatch kind={} backend={:?} threads={}",
                        kind, backend, threads
                    ),
                    (Err(_), Err(_)) => {} // both reject identically-shaped input
                    (a, b) => prop_assert!(
                        false,
                        "divergence kind={} backend={:?} threads={}: serial_ok={} parallel_ok={}",
                        kind, backend, threads, a.is_ok(), b.is_ok()
                    ),
                }
            }
        }
    }
}

/// Deterministic (non-property) spot checks: a relation large enough that
/// every morsel is non-trivial, and the empty relation.
#[test]
fn parallel_pipeline_deterministic_cases() {
    let mut rng = TestRng::from_seed_u64(7);
    let r = gen_rel(1500, &mut rng);
    let s = gen_side(&mut rng);
    for kind in 0..6 {
        let frame = build_frame(kind, &r, &s);
        let mut runs = at_every_width(&frame, Backend::Auto).into_iter();
        let serial = runs.next().expect("the serial width").1.expect("serial");
        for (threads, parallel) in runs {
            let parallel = parallel.expect("parallel");
            assert_eq!(serial, parallel, "kind={kind} threads={threads}");
        }
    }
}

#[test]
fn parallel_execution_of_empty_relation() {
    let empty = RelationBuilder::new()
        .column("k", Vec::<i64>::new())
        .column("g", Vec::<i64>::new())
        .column("x", Vec::<f64>::new())
        .column("y", Vec::<f64>::new())
        .build()
        .unwrap();
    let frame = Frame::scan(empty)
        .select(Expr::col("x").gt(Expr::lit(0.0)))
        .aggregate(&["g"], vec![AggSpec::count_star("n")]);
    let mut runs = at_every_width(&frame, Backend::Auto).into_iter();
    let a = runs.next().expect("the serial width").1.unwrap();
    for (_, b) in runs {
        assert_eq!(a, b.unwrap());
    }
    assert!(a.is_empty());
}
