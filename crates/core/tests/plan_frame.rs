//! Integration tests of the lazy `Frame` API: plan building, the shared
//! optimizer's rewrites, and lazy/eager agreement on concrete pipelines.

use rma_core::plan::Frame;
use rma_core::{RmaContext, RmaOp, RmaOptions, SortPolicy};
use rma_relation::{Expr, Relation, RelationBuilder};

/// Unsorted four-row weather relation (the paper's Figure 2).
fn weather() -> Relation {
    RelationBuilder::new()
        .name("r")
        .column("T", vec!["5am", "8am", "7am", "6am"])
        .column("H", vec![1.0f64, 8.0, 6.0, 1.0])
        .column("W", vec![3.0f64, 5.0, 7.0, 4.0])
        .build()
        .unwrap()
}

/// A 4×4 numeric relation with an integer key, invertible application part.
fn square() -> Relation {
    RelationBuilder::new()
        .name("m")
        .column("k", vec![3i64, 1, 4, 2])
        .column("a", vec![2.0f64, 1.0, 0.0, 1.0])
        .column("b", vec![0.0f64, 3.0, 1.0, 0.0])
        .column("c", vec![1.0f64, 0.0, 2.0, 1.0])
        .column("d", vec![0.0f64, 1.0, 0.0, 4.0])
        .build()
        .unwrap()
}

#[test]
fn consecutive_rma_ops_same_order_schema_sort_once() {
    let ctx = RmaContext::default();
    let lazy = Frame::scan(square())
        .inv(&["k"])
        .inv(&["k"])
        .collect(&ctx)
        .unwrap();
    // the optimizer proves inv's output is sorted by k, so the second inv
    // skips its sort: exactly one sort for the whole pipeline
    assert_eq!(ctx.stats().sorts, 1, "expected exactly one sort");

    // the eager API sorts per operation
    let eager_ctx = RmaContext::default();
    let step = eager_ctx.inv(&square(), &["k"]).unwrap();
    let eager = eager_ctx.inv(&step, &["k"]).unwrap();
    assert_eq!(eager_ctx.stats().sorts, 2);

    assert_eq!(lazy.schema(), eager.schema());
    assert!(lazy.bag_equals(&eager));
}

#[test]
fn explain_snapshot_shows_sort_elimination() {
    let ctx = RmaContext::default();
    let explained = Frame::scan(square()).inv(&["k"]).inv(&["k"]).explain(&ctx);
    // the outer inv's argument is flagged; the inner one still sorts
    assert_eq!(
        explained.matches("(sorted: skip sort)").count(),
        1,
        "unexpected explain:\n{explained}"
    );
    let first_rma = explained.find("Rma INV").unwrap();
    let flagged = explained.find("(sorted: skip sort)").unwrap();
    assert!(
        flagged > first_rma && flagged < explained.rfind("Rma INV").unwrap(),
        "the *outer* operation should skip its sort:\n{explained}"
    );
}

#[test]
fn sort_elimination_not_applied_when_inner_op_skips_its_sort() {
    // qqr under the optimised policy keeps physical order, so its output is
    // NOT sorted and the downstream inv must still sort
    let ctx = RmaContext::default();
    let lazy = Frame::scan(square())
        .qqr(&["k"])
        .inv(&["k"])
        .collect(&ctx)
        .unwrap();
    assert_eq!(ctx.stats().sorts, 1, "inv must sort after a no-sort qqr");

    let eager_ctx = RmaContext::default();
    let step = eager_ctx.qqr(&square(), &["k"]).unwrap();
    let eager = eager_ctx.inv(&step, &["k"]).unwrap();
    assert!(lazy.bag_equals(&eager));
}

#[test]
fn order_by_feeds_sortedness_into_rma() {
    let ctx = RmaContext::default();
    let frame = Frame::scan(square()).order_by(&["k"], &[]).inv(&["k"]);
    let explained = frame.explain(&ctx);
    assert!(
        explained.contains("(sorted: skip sort)"),
        "OrderBy should satisfy inv's sort:\n{explained}"
    );
    let out = frame.collect(&ctx).unwrap();
    assert_eq!(ctx.stats().sorts, 0);
    let eager = RmaContext::default().inv(&square(), &["k"]).unwrap();
    assert!(out.bag_equals(&eager));
}

#[test]
fn always_policy_keeps_every_sort() {
    let ctx = RmaContext::new(RmaOptions {
        sort_policy: SortPolicy::Always,
        ..RmaOptions::default()
    });
    Frame::scan(square())
        .inv(&["k"])
        .inv(&["k"])
        .collect(&ctx)
        .unwrap();
    assert_eq!(ctx.stats().sorts, 2, "Always is the unoptimised baseline");
}

#[test]
fn selection_pushdown_below_mmu() {
    let r = square();
    let s = RelationBuilder::new()
        .column("j", vec![2i64, 1, 3, 4])
        .column("x", vec![1.0f64, 0.5, -1.0, 2.0])
        .build()
        .unwrap();
    let ctx = RmaContext::default();
    let frame = Frame::scan(r.clone())
        .mmu(&["k"], Frame::scan(s.clone()), &["j"])
        .select(Expr::col("k").lt(Expr::lit(3i64)));
    let explained = frame.explain(&ctx);
    let rma = explained.find("Rma MMU").unwrap();
    let select = explained.find("Select").unwrap();
    assert!(
        select > rma,
        "selection on the order schema should sink below mmu:\n{explained}"
    );
    assert!(explained.contains("AssertKey"), "{explained}");

    // results agree with the eager order of operations
    let lazy = frame.collect(&ctx).unwrap();
    let eager_ctx = RmaContext::default();
    let product = eager_ctx.mmu(&r, &["k"], &s, &["j"]).unwrap();
    let k_below_3 = Expr::col("k").lt(Expr::lit(3i64));
    let eager = rma_relation::select(&product, &k_below_3, eager_ctx.pool()).unwrap();
    assert_eq!(lazy.schema(), eager.schema());
    assert!(lazy.bag_equals(&eager));
}

#[test]
fn selection_pushdown_preserves_key_errors() {
    // duplicate keys in the unfiltered input must still error even though
    // the pushed-down filter would make the keys unique
    let dup = RelationBuilder::new()
        .column("k", vec![1i64, 1, 2])
        .column("a", vec![1.0f64, 2.0, 3.0])
        .build()
        .unwrap();
    let s = RelationBuilder::new()
        .column("j", vec![1i64])
        .column("x", vec![1.0f64])
        .build()
        .unwrap();
    let ctx = RmaContext::default();
    let result = Frame::scan(dup)
        .mmu(&["k"], Frame::scan(s), &["j"])
        .select(Expr::col("k").gt(Expr::lit(1i64)))
        .collect(&ctx);
    assert!(result.is_err(), "key violation must survive the rewrite");
}

#[test]
fn selection_not_pushed_below_row_coupling_ops() {
    // qqr's base result depends on all input rows; the filter must stay
    let ctx = RmaContext::default();
    let explained = Frame::scan(square())
        .qqr(&["k"])
        .select(Expr::col("k").gt(Expr::lit(1i64)))
        .explain(&ctx);
    let select = explained.find("Select").unwrap();
    let rma = explained.find("Rma QQR").unwrap();
    assert!(select < rma, "filter must stay above qqr:\n{explained}");
}

#[test]
fn projection_pushdown_prunes_scan_columns() {
    let ctx = RmaContext::default();
    let explained = Frame::scan(weather()).project(&["H"]).explain(&ctx);
    assert!(
        explained.contains("project=[H]"),
        "scan should prune to the projected column:\n{explained}"
    );
    let out = Frame::scan(weather())
        .project(&["H"])
        .collect(&ctx)
        .unwrap();
    let names: Vec<&str> = out.schema().names().collect();
    assert_eq!(names, vec!["H"]);
    assert_eq!(out.len(), 4);
}

#[test]
fn projection_pushdown_keeps_predicate_columns() {
    let ctx = RmaContext::default();
    let frame = Frame::scan(weather())
        .select(Expr::col("W").gt(Expr::lit(4.0)))
        .project(&["H"]);
    let explained = frame.explain(&ctx);
    assert!(
        explained.contains("project=[H, W]"),
        "the predicate's column must survive pruning:\n{explained}"
    );
    let out = frame.collect(&ctx).unwrap();
    assert_eq!(out.len(), 2); // W ∈ {5, 7}
}

#[test]
fn plan_level_backend_choice_is_annotated_and_honoured() {
    let ctx = RmaContext::default(); // Auto
    let frame = Frame::scan(square()).inv(&["k"]);
    let explained = frame.explain(&ctx);
    assert!(
        explained.contains("backend=Dense"),
        "statically-sized inv should choose the dense kernel:\n{explained}"
    );
    frame.collect(&ctx).unwrap();
    assert_eq!(ctx.stats().last_kernel, Some(rma_core::KernelUsed::Dense));

    // the one memory budget steers the choice: a complex op goes dense
    // exactly when its dense copy, 2 · cells · 8 bytes, fits — 4 × 4 inv
    // copies 256 B, 4 × 4 by 4 × 4 mmu copies both operands, 512 B. The
    // plan-time choice (EXPLAIN), the plan's run and the eager call, which
    // decides at run time, agree.
    let m = square();
    for (op, copy) in [(RmaOp::Inv, 256), (RmaOp::Mmu, 512)] {
        let frame = match op {
            RmaOp::Inv => Frame::scan(m.clone()).inv(&["k"]),
            _ => Frame::scan(m.clone()).mmu(&["k"], Frame::scan(m.clone()), &["k"]),
        };
        for (budget, backend, kernel) in [
            (copy, "Dense", rma_core::KernelUsed::Dense),
            (copy - 1, "Bat", rma_core::KernelUsed::Bat),
        ] {
            let ctx = RmaContext::new(RmaOptions {
                mem_budget: budget,
                ..RmaOptions::default()
            });
            let explained = frame.explain(&ctx);
            assert!(
                explained.contains(&format!("backend={backend}")),
                "{op:?} under {budget} B:\n{explained}"
            );
            frame.collect(&ctx).unwrap();
            assert_eq!(
                ctx.stats().last_kernel,
                Some(kernel),
                "{op:?} under {budget} B"
            );
            ctx.reset_stats();
            match op {
                RmaOp::Inv => ctx.inv(&m, &["k"]),
                _ => ctx.mmu(&m, &["k"], &m, &["k"]),
            }
            .unwrap();
            assert_eq!(
                ctx.stats().last_kernel,
                Some(kernel),
                "eager {op:?} under {budget} B"
            );
        }
    }
}

#[test]
fn lazy_pipeline_matches_eager_composition() {
    // a mixed relational + matrix pipeline, lazy vs eager
    let r = weather();
    let ctx = RmaContext::default();
    let lazy = Frame::scan(r.clone())
        .select(Expr::col("T").gt(Expr::lit("5am")))
        .qqr(&["T"])
        .collect(&ctx)
        .unwrap();

    let eager_ctx = RmaContext::default();
    let after_5am = Expr::col("T").gt(Expr::lit("5am"));
    let filtered = rma_relation::select(&r, &after_5am, eager_ctx.pool()).unwrap();
    let eager = eager_ctx.qqr(&filtered, &["T"]).unwrap();
    assert_eq!(lazy.schema(), eager.schema());
    assert!(lazy.bag_equals(&eager));
}

#[test]
fn binary_ops_compose_lazily() {
    let r = weather();
    let s = RelationBuilder::new()
        .column("T2", vec!["6am", "5am", "8am", "7am"])
        .column("H2", vec![2.0f64, 1.0, 4.0, 3.0])
        .column("W2", vec![1.0f64, 2.0, 3.0, 4.0])
        .build()
        .unwrap();
    let ctx = RmaContext::default();
    let lazy = Frame::scan(r.clone())
        .add(&["T"], Frame::scan(s.clone()), &["T2"])
        .collect(&ctx)
        .unwrap();
    let eager = RmaContext::default().add(&r, &["T"], &s, &["T2"]).unwrap();
    assert_eq!(lazy.schema(), eager.schema());
    assert!(lazy.bag_equals(&eager));
}

#[test]
fn element_wise_on_sorted_inputs_needs_no_alignment_sort() {
    let r = weather().sorted_by(&["T"]).unwrap();
    let s = RelationBuilder::new()
        .column("T2", vec!["5am", "6am", "7am", "8am"])
        .column("H2", vec![1.0f64, 2.0, 3.0, 4.0])
        .column("W2", vec![2.0f64, 1.0, 0.0, -1.0])
        .build()
        .unwrap();
    let ctx = RmaContext::default();
    // both inputs pass through an explicit sort, so the optimizer knows
    // they are aligned and the add needs zero sort computations
    let lazy = Frame::scan(r.clone())
        .order_by(&["T"], &[])
        .add(
            &["T"],
            Frame::scan(s.clone()).order_by(&["T2"], &[]),
            &["T2"],
        )
        .collect(&ctx)
        .unwrap();
    assert_eq!(ctx.stats().sorts, 0);
    let eager = RmaContext::default().add(&r, &["T"], &s, &["T2"]).unwrap();
    assert!(lazy.bag_equals(&eager));
}

#[test]
fn named_table_scans_resolve_through_a_provider() {
    struct OneTable(Relation);
    impl rma_core::TableProvider for OneTable {
        fn table(&self, name: &str) -> Option<&Relation> {
            (name == "w").then_some(&self.0)
        }
    }
    let provider = OneTable(weather());
    let ctx = RmaContext::default();
    let out = Frame::table("w")
        .tra(&["T"])
        .collect_with(&ctx, &provider)
        .unwrap();
    assert_eq!(out.len(), 2); // H and W rows
    let err = Frame::table("missing").collect_with(&ctx, &provider);
    assert!(matches!(err, Err(rma_core::PlanError::UnknownTable(_))));
    // without a provider the scan cannot resolve
    assert!(Frame::table("w").collect(&ctx).is_err());
}

#[test]
fn double_transpose_eliminated_in_core_plans() {
    let ctx = RmaContext::default();
    let frame = Frame::scan(weather()).tra(&["T"]).tra(&["C"]);
    let explained = frame.explain(&ctx);
    assert!(
        !explained.contains("Rma"),
        "double transpose should be rewritten:\n{explained}"
    );
    assert!(explained.contains("AssertKey"), "{explained}");
    let out = frame.collect(&ctx).unwrap();
    // the rewrite equals the actual double transpose
    let eager_ctx = RmaContext::default();
    let t1 = eager_ctx.tra(&weather(), &["T"]).unwrap();
    let t2 = eager_ctx.tra(&t1, &["C"]).unwrap();
    assert_eq!(out.schema(), t2.schema());
    assert!(out.bag_equals(&t2));
}

/// A 3 × 3 symmetric positive-definite matrix keyed by `key`: every one of
/// the 19 operations accepts it (square, invertible, Cholesky-factorable).
fn spd(key: &str) -> Relation {
    RelationBuilder::new()
        .name("p")
        .column(key, vec![2i64, 0, 1])
        .column("a", vec![0.0f64, 4.0, 1.0])
        .column("b", vec![1.0f64, 1.0, 3.0])
        .column("c", vec![2.0f64, 0.0, 1.0])
        .build()
        .unwrap()
}

/// `op` over [`spd`] arguments; the second argument's order schema is
/// disjoint from the first's, as the element-wise operations require.
fn spd_frame(op: RmaOp) -> Frame {
    if op.is_binary() {
        Frame::scan(spd("k")).rma_binary(op, &["k"], Frame::scan(spd("j")), &["j"])
    } else {
        Frame::scan(spd("k")).rma_unary(op, &["k"])
    }
}

/// The `backend=` EXPLAIN prints on a plan's one RMA line.
fn explained_backend(explained: &str) -> &str {
    let line = explained.lines().find(|l| l.contains("Rma ")).unwrap();
    let at = line.find("backend=").expect("no plan-time backend") + "backend=".len();
    line[at..].split_whitespace().next().unwrap()
}

#[test]
fn explained_backend_is_the_kernel_family_that_runs() {
    use rma_core::plan::{execute, optimize, NoTables};
    use rma_core::{Backend, KernelUsed, LogicalPlan, ALL_OPS};
    let no_bat_kernel = [RmaOp::Evc, RmaOp::Evl, RmaOp::Dsv, RmaOp::Usv, RmaOp::Vsv];
    for op in ALL_OPS {
        // the dense copy: every 3 × 3 operand in and the result out
        let copy = 2 * 8 * 9 * if op.is_binary() { 2 } else { 1 };
        let contexts = [
            ("Auto unbudgeted", RmaOptions::default()),
            (
                "Auto one byte under the copy",
                RmaOptions {
                    mem_budget: copy - 1,
                    ..RmaOptions::default()
                },
            ),
            (
                "Bat",
                RmaOptions {
                    backend: Backend::Bat,
                    ..RmaOptions::default()
                },
            ),
            (
                "Dense",
                RmaOptions {
                    backend: Backend::Dense,
                    ..RmaOptions::default()
                },
            ),
        ];
        for (label, options) in contexts {
            let forced_bat = options.backend == Backend::Bat;
            let ctx = RmaContext::new(options);
            let frame = spd_frame(op);
            let explained = frame.explain(&ctx);
            frame
                .collect(&ctx)
                .unwrap_or_else(|e| panic!("{op:?} under {label}: {e}"));
            let ran = ctx.stats().last_kernel.unwrap();
            let family = match ran {
                KernelUsed::Bat => "Bat",
                KernelUsed::Dense | KernelUsed::DenseFallback => "Dense",
            };
            assert_eq!(
                explained_backend(&explained),
                family,
                "{op:?} under {label} ran {ran:?}:\n{explained}"
            );
            if forced_bat && no_bat_kernel.contains(&op) {
                assert_eq!(ran, KernelUsed::DenseFallback, "{op:?} under {label}");
            }
        }
    }

    // nested plans under a budget that sends the large inner nodes to Bat
    // and the small outer ones to Dense: the kernel each node chooses at
    // run time is the one the plan predicted for it
    let x = RelationBuilder::new()
        .column("id", (0..40i64).rev().collect::<Vec<_>>())
        .column("x0", vec![1.0f64; 40])
        .column(
            "x1",
            (0..40).map(|i| ((i * 7) % 11) as f64).collect::<Vec<_>>(),
        )
        .build()
        .unwrap();
    let y = RelationBuilder::new()
        .column("id", (0..40i64).collect::<Vec<_>>())
        .column(
            "duration",
            (0..40).map(|i| (i % 5) as f64).collect::<Vec<_>>(),
        )
        .build()
        .unwrap();
    let cpd = |b: &Relation| Frame::scan(x.clone()).cpd(&["id"], Frame::scan(b.clone()), &["id"]);
    // 10 × 4 = 40 crossed rows (the cross charges 16 B a row), cut to 30
    let cut = || {
        Frame::scan(rma_relation::limit(&x, 10, 0))
            .cross(Frame::scan(weather()))
            .project(&["id", "T", "x1", "H"])
            .limit(30)
    };
    // CPD copies 2 · (80 + 80) · 8 = 2 560 B (X, y: 1 920 B; the cut:
    // 1 920 B); INV of the 2 × 2 result 64 B, MMU of 2 × 2 by 2 × 1 96 B
    let budget = 1_000;
    let nested = [
        // trips_ols: MMU(INV(CPD(X, X)), CPD(X, y))
        cpd(&x).inv(&["C"]).mmu(&["C"], cpd(&y), &["C"]),
        // an RMA over a Limit over a Cross, under an INV
        cut().cpd(&["id", "T"], cut(), &["id", "T"]).inv(&["C"]),
    ];
    let options = RmaOptions {
        mem_budget: budget,
        ..RmaOptions::default()
    };
    for frame in nested {
        let ctx = RmaContext::new(options.clone());
        let plan = optimize(frame.logical_plan().clone(), &ctx, &NoTables);
        let nodes: Vec<(LogicalPlan, Backend)> = subtrees(&plan)
            .into_iter()
            .filter_map(|p| match &p {
                LogicalPlan::Rma {
                    backend: Some(b), ..
                } => Some((p.clone(), *b)),
                LogicalPlan::Rma { .. } => panic!("an RMA node without a plan-time backend"),
                _ => None,
            })
            .collect();
        let chosen: Vec<Backend> = nodes.iter().map(|(_, b)| *b).collect();
        assert_eq!(chosen[0], Backend::Dense, "the outer node: {plan:?}");
        assert!(chosen.contains(&Backend::Bat), "an inner node: {plan:?}");
        // each node run on its own: the kernel its root ran is the one
        // the plan predicted
        for (node, backend) in &nodes {
            let ctx = RmaContext::new(options.clone());
            execute(node, &ctx, &NoTables).unwrap_or_else(|e| panic!("{e:?} {node:?}"));
            let family = match ctx.stats().last_kernel.unwrap() {
                KernelUsed::Bat => Backend::Bat,
                KernelUsed::Dense | KernelUsed::DenseFallback => Backend::Dense,
            };
            assert_eq!(family, *backend, "{node:?}");
        }
        // and the whole plan runs every node once, ending on the outer one
        execute(&plan, &ctx, &NoTables).unwrap();
        assert_eq!(ctx.stats().ops_run as usize, nodes.len());
        assert_eq!(ctx.stats().last_kernel, Some(KernelUsed::Dense));
    }
}

/// Serves one table, `t`, to `Scan` nodes.
struct OneTable(Relation);

impl rma_core::TableProvider for OneTable {
    fn table(&self, name: &str) -> Option<&Relation> {
        (name == "t").then_some(&self.0)
    }
}

/// Every subtree of a plan, root first.
fn subtrees(plan: &rma_core::LogicalPlan) -> Vec<rma_core::LogicalPlan> {
    let mut children = Vec::new();
    plan.clone().map_children(&mut |c| {
        children.push(c.clone());
        c
    });
    let mut out = vec![plan.clone()];
    for c in &children {
        out.extend(subtrees(c));
    }
    out
}

#[test]
fn exact_estimate_is_the_executed_size() {
    use rma_core::plan::{execute, optimize, stats};
    // x0 = 1 and a varying x1: XᵀX is invertible
    let x = RelationBuilder::new()
        .column("id", vec![3i64, 1, 4, 2, 5])
        .column("x0", vec![1.0f64; 5])
        .column("x1", vec![2.0f64, 7.0, 1.0, 8.0, 3.0])
        .build()
        .unwrap();
    let y = RelationBuilder::new()
        .column("id", vec![1i64, 2, 3, 4, 5])
        .column("duration", vec![9.0f64, 4.0, 6.0, 1.0, 2.0])
        .build()
        .unwrap();
    let provider = OneTable(spd("k"));
    let cpd = |b: &Relation| Frame::scan(x.clone()).cpd(&["id"], Frame::scan(b.clone()), &["id"]);
    let mut exact = vec![
        // nested RMA
        Frame::scan(spd("k")).tra(&["k"]).tra(&["C"]),
        // trips_ols: MMU(INV(CPD(X, X)), CPD(X, y))
        cpd(&x).inv(&["C"]).mmu(&["C"], cpd(&y), &["C"]),
        // a Limit over a Cross, cutting it and not
        Frame::scan(weather()).cross(Frame::scan(spd("k"))).limit(5),
        Frame::scan(weather())
            .cross(Frame::scan(spd("k")))
            .limit(50),
        // the scan, projection, sort, key check, top-k and union carry it
        Frame::table("t")
            .project(&["k", "a"])
            .order_by(&["a"], &[false])
            .assert_key(&["k"])
            .limit(2),
        Frame::table("t")
            .union_all(Frame::scan(spd("k")))
            .project(&["a", "b"]),
    ];
    exact.extend(rma_core::ALL_OPS.map(spd_frame));
    let inexact = [
        Frame::scan(spd("k")).select(Expr::col("a").gt(Expr::lit(0.5))),
        Frame::scan(spd("k")).distinct(),
        Frame::scan(spd("k")).aggregate(&[], vec![]),
        Frame::scan(spd("k")).join(Frame::scan(spd("j")).project(&["j"]), &[("k", "j")]),
        Frame::scan(spd("k")).natural_join(Frame::scan(spd("k"))),
        // an RMA node over an inexact argument
        Frame::scan(spd("k")).distinct().inv(&["k"]),
    ];
    let ctx = RmaContext::default();
    for frame in exact.iter().chain(&inexact) {
        let raw = frame.logical_plan().clone();
        let optimized = optimize(raw.clone(), &ctx, &provider);
        for plan in [raw, optimized] {
            let root = stats::estimate(&plan, &provider).exact;
            assert_eq!(root.is_some(), exact.contains(frame), "{plan:?}");
            for node in subtrees(&plan) {
                let Some(size) = stats::estimate(&node, &provider).exact else {
                    continue;
                };
                let out = execute(&node, &ctx, &provider).unwrap();
                assert_eq!(size, (out.len(), out.schema().len()), "{node:?}");
            }
        }
    }
}
