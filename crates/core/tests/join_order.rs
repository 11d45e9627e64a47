//! Cost-based join ordering: EXPLAIN snapshots showing that table
//! statistics flip the join order away from the written order, and a
//! parity property test asserting that reordered plans return exactly the
//! same bag of rows as written-order execution — across the Auto/Bat/Dense
//! backends at 1 and 4 worker threads.

use proptest::prelude::*;
use rma_core::plan::{self, Frame, NoTables, PlanError};
use rma_core::{Backend, RmaContext, RmaOptions};
use rma_relation::{AggFunc, AggSpec, Expr, Relation, RelationBuilder};

/// A fact table of `rows` tuples with a unique key `k`, foreign keys into
/// two (or three) dimension tables, and a float payload.
fn fact(rows: usize, dims: [usize; 3]) -> Relation {
    RelationBuilder::new()
        .name("fact")
        .column("k", (0..rows as i64).collect::<Vec<_>>())
        .column(
            "fa",
            (0..rows)
                .map(|i| (i * 7 % dims[0]) as i64)
                .collect::<Vec<_>>(),
        )
        .column(
            "fb",
            (0..rows)
                .map(|i| (i * 11 % dims[1]) as i64)
                .collect::<Vec<_>>(),
        )
        .column(
            "fc",
            (0..rows)
                .map(|i| (i * 13 % dims[2]) as i64)
                .collect::<Vec<_>>(),
        )
        .column("x", (0..rows).map(|i| (i % 10) as f64).collect::<Vec<_>>())
        .build()
        .unwrap()
}

/// A dimension of `rows` tuples: unique key `<p>k`, integer payload `<p>p`
/// uniform in `0..payload_dv`, float weight `<p>w`.
fn dim(name: &str, p: &str, rows: usize, payload_dv: usize) -> Relation {
    RelationBuilder::new()
        .name(name)
        .column(format!("{p}k"), (0..rows as i64).collect::<Vec<_>>())
        .column(
            format!("{p}p"),
            (0..rows)
                .map(|i| (i % payload_dv.max(1)) as i64)
                .collect::<Vec<_>>(),
        )
        .column(
            format!("{p}w"),
            (0..rows).map(|i| (i % 5) as f64).collect::<Vec<_>>(),
        )
        .build()
        .unwrap()
}

/// Indentation depth of the (unique) `JoinOn` line whose pair list
/// mentions `col`. Deeper joins execute earlier, so comparing depths
/// asserts the chosen join *order* independent of probe/build
/// orientation.
fn join_depth(plan: &str, col: &str) -> usize {
    let needle = format!("\"{col}\"");
    plan.lines()
        .find(|l| l.contains("JoinOn") && l.contains(&needle))
        .map(|l| l.len() - l.trim_start().len())
        .unwrap_or_else(|| panic!("no JoinOn on {col}:\n{plan}"))
}

#[test]
fn explain_three_way_join_is_reordered_by_stats() {
    // written order joins the large unfiltered dimension first; the
    // selective filter on the second dimension makes joining it first far
    // cheaper
    let f = fact(1000, [400, 50, 10]);
    let da = dim("da", "a", 400, 1);
    let db = dim("db", "b", 50, 50);
    let frame = Frame::scan(f)
        .join(Frame::scan(da), &[("fa", "ak")])
        .join(Frame::scan(db), &[("fb", "bk")])
        .select(Expr::col("bp").eq(Expr::lit(3i64)));
    let plan = frame.explain(&RmaContext::default());
    // per-node cost annotations are printed
    assert!(plan.contains("rows≈"), "missing rows estimate:\n{plan}");
    assert!(plan.contains("cost≈"), "missing cost estimate:\n{plan}");
    // the selective db join executes first (deeper), despite being
    // written last
    assert!(
        join_depth(&plan, "bk") > join_depth(&plan, "ak"),
        "db should be joined before da:\n{plan}"
    );
    // and the written column order is restored by a projection
    let out = frame.collect(&RmaContext::default()).unwrap();
    let names: Vec<&str> = out.schema().names().collect();
    assert_eq!(
        names,
        vec!["k", "fa", "fb", "fc", "x", "ak", "ap", "aw", "bk", "bp", "bw"]
    );
}

#[test]
fn explain_four_way_join_orders_most_selective_first() {
    let f = fact(2000, [500, 100, 40]);
    let da = dim("da", "a", 500, 1);
    let db = dim("db", "b", 100, 1);
    let dc = dim("dc", "c", 40, 40);
    let frame = Frame::scan(f)
        .join(Frame::scan(da), &[("fa", "ak")])
        .join(Frame::scan(db), &[("fb", "bk")])
        .join(Frame::scan(dc), &[("fc", "ck")])
        .select(Expr::col("cp").eq(Expr::lit(1i64)));
    let ctx = RmaContext::default();
    let plan = frame.explain(&ctx);
    // dc (filtered to ~1/40) joins the fact table first: its join is the
    // deepest, despite being written last
    let dc_depth = join_depth(&plan, "ck");
    assert!(
        dc_depth > join_depth(&plan, "ak") && dc_depth > join_depth(&plan, "bk"),
        "dc should be joined first:\n{plan}"
    );
    // snapshot of the shape: three JoinOn nodes, one restoring Project
    assert_eq!(plan.matches("JoinOn").count(), 3, "{plan}");
    assert!(plan.starts_with("Project"), "{plan}");
}

#[test]
fn different_stats_flip_the_chosen_order() {
    // identical query, different data distributions: the filtered
    // dimension with many distinct payload values is the selective one
    let build = |a_dv: usize, b_dv: usize| {
        let f = fact(1000, [200, 200, 10]);
        let da = dim("da", "a", 200, a_dv);
        let db = dim("db", "b", 200, b_dv);
        Frame::scan(f)
            .join(Frame::scan(da), &[("fa", "ak")])
            .join(Frame::scan(db), &[("fb", "bk")])
            .select(
                Expr::col("ap")
                    .eq(Expr::lit(0i64))
                    .and(Expr::col("bp").eq(Expr::lit(0i64))),
            )
    };
    let ctx = RmaContext::default();
    // skew on da: ap has 100 distinct values, bp only 1 → da is selective
    let plan_a = build(100, 1).explain(&ctx);
    // skew on db: the same query now prefers db first
    let plan_b = build(1, 100).explain(&ctx);
    assert!(
        join_depth(&plan_a, "ak") > join_depth(&plan_a, "bk"),
        "skewed da should join first:\n{plan_a}"
    );
    assert!(
        join_depth(&plan_b, "bk") > join_depth(&plan_b, "ak"),
        "skewed db should join first:\n{plan_b}"
    );
}

#[test]
fn two_way_join_builds_on_the_smaller_side() {
    // written with the small dimension as the left (probe) side; join_on
    // builds its hash table on the right input, so the enumerator flips
    // the sides to build on the 50-row dimension instead of the 2000-row
    // fact table — and restores the written column order on top
    let f = fact(2000, [50, 50, 10]);
    let d = dim("da", "a", 50, 1);
    let frame = Frame::scan(d).join(Frame::scan(f), &[("ak", "fa")]);
    let ctx = RmaContext::default();
    let plan = frame.explain(&ctx);
    let fact_pos = plan.find("Values fact").expect("fact leaf");
    let da_pos = plan.find("Values da").expect("da leaf");
    assert!(
        fact_pos < da_pos,
        "fact should be the probe (left) side:\n{plan}"
    );
    let out = frame.collect(&ctx).unwrap();
    let names: Vec<&str> = out.schema().names().collect();
    assert_eq!(names[..3], ["ak", "ap", "aw"], "written order restored");
}

// ---------------------------------------------------------------------
// Parity: reordered == written-order results, any backend, any threads
// ---------------------------------------------------------------------

fn ctx(backend: Backend, threads: usize) -> RmaContext {
    RmaContext::new(RmaOptions {
        backend,
        threads,
        ..RmaOptions::default()
    })
}

/// Execute the frame's plan as written — before the optimizer runs — the
/// written-order reference the reordered plans must reproduce.
fn collect_unoptimized(frame: &Frame, ctx: &RmaContext) -> Result<Relation, PlanError> {
    Ok(plan::execute(frame.logical_plan(), ctx, &NoTables)?.materialize())
}

/// A random star query over the generated tables: joins in a deliberately
/// arbitrary written order plus a random filter, then one of several tops
/// (plain, aggregate, top-k, QQR over the joined relation).
fn build_query(kind: usize, f: &Relation, da: &Relation, db: &Relation) -> Frame {
    let joined = Frame::scan(f.clone())
        .join(Frame::scan(da.clone()), &[("fa", "ak")])
        .join(Frame::scan(db.clone()), &[("fb", "bk")]);
    match kind {
        0 => joined.select(Expr::col("ap").lt(Expr::lit(2i64))),
        1 => joined
            .select(Expr::col("bp").eq(Expr::lit(0i64)))
            .aggregate(
                &["ap"],
                vec![
                    AggSpec::count_star("n"),
                    AggSpec::sum("x", "sx"),
                    AggSpec::new(AggFunc::Max, Some("bw"), "hi"),
                ],
            ),
        2 => joined
            .select(Expr::col("aw").gt_eq(Expr::lit(1.0)))
            .order_by(&["k"], &[true])
            .limit(9),
        _ => joined
            .select(Expr::col("ap").lt(Expr::lit(3i64)))
            .project(&["k", "x", "aw", "bw"])
            .qqr(&["k"]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn reordered_plans_return_identical_bags(
        (rows, a_rows, b_rows, kind) in (200usize..900, 20usize..200, 5usize..60, 0usize..4),
        seed in 0u64..u64::MAX,
    ) {
        // vary payload cardinality with the seed so different cases skew
        // different sides
        let a_dv = 1 + (seed % 40) as usize;
        let b_dv = 1 + (seed / 40 % 40) as usize;
        let f = fact(rows, [a_rows, b_rows, 10]);
        let da = dim("da", "a", a_rows, a_dv);
        let db = dim("db", "b", b_rows, b_dv);
        let frame = build_query(kind, &f, &da, &db);
        for backend in [Backend::Auto, Backend::Bat, Backend::Dense] {
            // within one backend the kernel numerics are fixed, so the
            // reordered plan must reproduce the written order's bag exactly
            let baseline = collect_unoptimized(&frame, &ctx(backend, 1));
            for threads in [1usize, 4] {
                let reordered = frame.collect(&ctx(backend, threads));
                match (&baseline, &reordered) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(a.schema(), b.schema(),
                            "schema mismatch kind={} backend={:?} threads={}",
                            kind, backend, threads);
                        prop_assert!(a.bag_equals(b),
                            "row mismatch kind={} backend={:?} threads={}",
                            kind, backend, threads);
                    }
                    (Err(_), Err(_)) => {} // both reject identically
                    (a, b) => prop_assert!(false,
                        "divergence kind={} backend={:?} threads={}: baseline_ok={} reordered_ok={}",
                        kind, backend, threads, a.is_ok(), b.is_ok()),
                }
            }
        }
    }
}
