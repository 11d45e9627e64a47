//! Property test: late materialization is invisible. A selection-vector
//! view and its materialization must be interchangeable everywhere — fed
//! into the plan engine across the Auto/Bat/Dense backends at worker
//! threads ∈ {1, 4}, and through every relational operator with
//! per-operator materialization forced in between. Null-heavy columns are
//! generated on purpose: validity bitmaps must survive gathering,
//! selection-vector probing, and reassembly bit-for-bit.
//!
//! Float columns hold small integer values so parallel partial-sum merges
//! are exact (same contract as the parallel-parity suite).

use proptest::prelude::*;
use rma_core::plan::Frame;
use rma_core::{Backend, RmaContext, RmaOptions};
use rma_relation::{
    aggregate, distinct, join_on, order_by, project, select, AggFunc, AggSpec, Expr, Relation,
    RelationBuilder, WorkerPool,
};
use rma_storage::{Column, DataType, Value};

/// A relation with a distinct shuffled int key `k` (null-free, usable as an
/// RMA order schema), a nullable small grouping column `g` (~30% nulls), a
/// nullable integer-valued float column `x` (~30% nulls), and a nullable
/// string tag.
fn gen_rel_nulls(rows: usize, rng: &mut TestRng) -> Relation {
    let mut keys: Vec<i64> = (0..rows as i64).collect();
    for i in (1..rows).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        keys.swap(i, j);
    }
    let g: Vec<Value> = (0..rows)
        .map(|_| {
            if rng.next_u64() % 10 < 3 {
                Value::Null
            } else {
                Value::Int((rng.next_u64() % 5) as i64)
            }
        })
        .collect();
    let x: Vec<Value> = (0..rows)
        .map(|_| {
            if rng.next_u64() % 10 < 3 {
                Value::Null
            } else {
                Value::Float((rng.next_u64() % 17) as f64 - 8.0)
            }
        })
        .collect();
    let tag: Vec<Value> = (0..rows)
        .map(|_| {
            if rng.next_u64() % 10 < 2 {
                Value::Null
            } else {
                Value::Str(format!("t{}", rng.next_u64() % 4))
            }
        })
        .collect();
    RelationBuilder::new()
        .name("r")
        .column("k", keys)
        .column(
            "g",
            Column::from_values_typed(DataType::Int, &g).expect("g column"),
        )
        .column(
            "x",
            Column::from_values_typed(DataType::Float, &x).expect("x column"),
        )
        .column(
            "tag",
            Column::from_values_typed(DataType::Str, &tag).expect("tag column"),
        )
        .build()
        .expect("valid relation")
}

/// A small join side keyed (with duplicates and ~20% nulls) on `g2`.
fn gen_dim_nulls(rng: &mut TestRng) -> Relation {
    let rows = 15 + (rng.next_u64() % 25) as usize;
    let g2: Vec<Value> = (0..rows)
        .map(|_| {
            if rng.next_u64() % 10 < 2 {
                Value::Null
            } else {
                Value::Int((rng.next_u64() % 6) as i64)
            }
        })
        .collect();
    let w: Vec<f64> = (0..rows).map(|_| (rng.next_u64() % 13) as f64).collect();
    RelationBuilder::new()
        .column(
            "g2",
            Column::from_values_typed(DataType::Int, &g2).expect("g2 column"),
        )
        .column("w", w)
        .build()
        .expect("valid relation")
}

/// A random keep-mask that leaves a non-trivial fraction of rows visible.
fn gen_mask(rows: usize, rng: &mut TestRng) -> Vec<bool> {
    (0..rows)
        .map(|_| !rng.next_u64().is_multiple_of(4))
        .collect()
}

/// Plan shapes covering the parallel pipeline, aggregation over nullable
/// inputs, a join on a nullable key, and sort+limit.
fn build_frame(kind: usize, input: &Relation, dim: &Relation) -> Frame {
    let scan = Frame::scan(input.clone());
    match kind {
        0 => scan
            .select(
                Expr::col("x")
                    .gt(Expr::lit(0.0))
                    .or(Expr::IsNull(Box::new(Expr::col("g")))),
            )
            .project(&["k", "x"]),
        1 => scan.select(Expr::col("k").gt(Expr::lit(5i64))).aggregate(
            &["g"],
            vec![
                AggSpec::count_star("n"),
                AggSpec::new(AggFunc::Count, Some("x"), "nx"),
                AggSpec::sum("x", "sx"),
                AggSpec::new(AggFunc::Min, Some("tag"), "lo"),
                AggSpec::new(AggFunc::Max, Some("x"), "hi"),
            ],
        ),
        2 => scan
            .join(Frame::scan(dim.clone()), &[("g", "g2")])
            .select(Expr::col("w").gt_eq(Expr::lit(3.0))),
        _ => scan.order_by(&["x", "k"], &[true, false]).limit(9),
    }
}

fn ctx(backend: Backend, threads: usize) -> RmaContext {
    RmaContext::new(RmaOptions {
        backend,
        threads,
        ..RmaOptions::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Feeding a lazy view into the engine is indistinguishable from
    /// feeding its materialization, across backends and thread counts.
    #[test]
    fn view_and_materialized_inputs_execute_identically(
        rows in 200usize..1400,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = TestRng::from_seed_u64(seed);
        let r = gen_rel_nulls(rows, &mut rng);
        let dim = gen_dim_nulls(&mut rng);
        let view = r.filter(&gen_mask(rows, &mut rng));
        let mat = view.materialize();
        prop_assert!(!mat.is_view());
        prop_assert_eq!(&view, &mat);
        for backend in [Backend::Auto, Backend::Bat, Backend::Dense] {
            for threads in [1usize, 4] {
                let c = ctx(backend, threads);
                for kind in 0..4 {
                    let from_view = build_frame(kind, &view, &dim).collect(&c);
                    let from_mat = build_frame(kind, &mat, &dim).collect(&c);
                    match (&from_view, &from_mat) {
                        (Ok(a), Ok(b)) => prop_assert_eq!(
                            a, b,
                            "view/materialized divergence kind={} backend={:?} threads={}",
                            kind, backend, threads
                        ),
                        (Err(_), Err(_)) => {}
                        (a, b) => prop_assert!(
                            false,
                            "ok-divergence kind={} backend={:?} threads={}: view_ok={} mat_ok={}",
                            kind, backend, threads, a.is_ok(), b.is_ok()
                        ),
                    }
                }
            }
        }
    }

    /// Every relational operator gives the same answer whether its inputs
    /// arrive as lazy views or are force-materialized first — i.e. a
    /// `materialize()` inserted at any operator boundary is a no-op.
    #[test]
    fn operators_commute_with_materialize(
        rows in 100usize..900,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = TestRng::from_seed_u64(seed);
        let r = gen_rel_nulls(rows, &mut rng);
        let dim = gen_dim_nulls(&mut rng);
        let view = r.filter(&gen_mask(rows, &mut rng));
        let mat = view.materialize();
        let pool = WorkerPool::new(1);

        let pred = Expr::col("x").lt_eq(Expr::lit(4.0)).or(
            Expr::IsNull(Box::new(Expr::col("tag"))),
        );
        let lazy_sel = select(&view, &pred, &pool).expect("σ");
        let mat_sel = select(&mat, &pred, &pool).expect("σ").materialize();
        prop_assert_eq!(&lazy_sel, &mat_sel);

        let lazy_proj = project(&lazy_sel, &["g", "x", "k"]).expect("π");
        let mat_proj = project(&mat_sel, &["g", "x", "k"]).expect("π").materialize();
        prop_assert_eq!(&lazy_proj, &mat_proj);

        let lazy_join = join_on(&lazy_sel, &dim, &[("g", "g2")], &pool).expect("⋈");
        let mat_join = join_on(&mat_sel, &dim, &[("g", "g2")], &pool).expect("⋈");
        prop_assert_eq!(&lazy_join, &mat_join);

        let aggs = [
            AggSpec::count_star("n"),
            AggSpec::sum("x", "sx"),
            AggSpec::avg("x", "ax"),
        ];
        let lazy_agg = aggregate(&lazy_proj, &["g"], &aggs, &pool).expect("ϑ");
        let mat_agg = aggregate(&mat_proj, &["g"], &aggs, &pool).expect("ϑ");
        prop_assert_eq!(&lazy_agg, &mat_agg);

        let lazy_sorted = order_by(&lazy_proj, &["x", "k"], &[false, true], &pool).expect("sort");
        let mat_sorted = order_by(&mat_proj, &["x", "k"], &[false, true], &pool)
            .expect("sort")
            .materialize();
        prop_assert_eq!(&lazy_sorted, &mat_sorted);

        let lazy_distinct = distinct(&project(&view, &["g", "tag"]).expect("π")).expect("δ");
        let mat_distinct =
            distinct(&project(&mat, &["g", "tag"]).expect("π").materialize()).expect("δ");
        prop_assert_eq!(&lazy_distinct, &mat_distinct);
    }
}

/// Deterministic spot check: an RMA kernel (qqr) over a view input equals
/// the same kernel over the materialized input, across backends and thread
/// counts (matrices reject nulls, so this uses the null-free columns).
#[test]
fn rma_kernel_over_view_matches_materialized() {
    let mut rng = TestRng::from_seed_u64(11);
    let rows = 600;
    let mut keys: Vec<i64> = (0..rows as i64).collect();
    for i in (1..rows).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        keys.swap(i, j);
    }
    let a: Vec<f64> = (0..rows)
        .map(|_| (rng.next_u64() % 9) as f64 - 4.0)
        .collect();
    let b: Vec<f64> = (0..rows).map(|_| (rng.next_u64() % 7) as f64).collect();
    let r = RelationBuilder::new()
        .name("m")
        .column("k", keys)
        .column("a", a)
        .column("b", b)
        .build()
        .expect("valid relation");
    let mask = gen_mask(rows, &mut rng);
    let view = r.filter(&mask);
    assert!(view.is_view());
    let mat = view.materialize();
    for backend in [Backend::Auto, Backend::Bat, Backend::Dense] {
        for threads in [1usize, 4] {
            let c = ctx(backend, threads);
            let from_view = Frame::scan(view.clone())
                .qqr(&["k"])
                .collect(&c)
                .expect("qqr over view");
            let from_mat = Frame::scan(mat.clone())
                .qqr(&["k"])
                .collect(&c)
                .expect("qqr over materialized");
            assert_eq!(
                from_view, from_mat,
                "qqr divergence backend={backend:?} threads={threads}"
            );
        }
    }
}

/// Deterministic spot check: a view of an *empty* selection flows through
/// the whole pipeline.
#[test]
fn empty_view_pipelines() {
    let mut rng = TestRng::from_seed_u64(3);
    let r = gen_rel_nulls(300, &mut rng);
    let dim = gen_dim_nulls(&mut rng);
    let none = r.filter(&vec![false; r.len()]);
    assert_eq!(none.len(), 0);
    for kind in 0..4 {
        let out = build_frame(kind, &none, &dim)
            .collect(&ctx(Backend::Auto, 4))
            .expect("empty pipeline");
        // aggregation over zero groups yields zero rows; everything else too
        assert!(out.len() <= 1, "kind={kind} produced {} rows", out.len());
    }
}
