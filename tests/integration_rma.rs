//! Cross-crate integration: storage → relation → linalg → core, exercising
//! complete RMA pipelines end to end.

use rma::core::{Backend, RmaContext, RmaOptions, SortPolicy};
use rma::relation::{project, select, Expr, RelationBuilder};
use rma::Value;

fn weather() -> rma::Relation {
    RelationBuilder::new()
        .name("r")
        .column("T", vec!["5am", "8am", "7am", "6am"])
        .column("H", vec![1.0f64, 8.0, 6.0, 1.0])
        .column("W", vec![3.0f64, 5.0, 7.0, 4.0])
        .build()
        .unwrap()
}

#[test]
fn every_unary_operation_end_to_end() {
    let ctx = RmaContext::default();
    let r = weather();
    let square = select(&r, &Expr::col("T").gt(Expr::lit("6am")), ctx.pool()).unwrap();

    // rectangular ops
    for result in [
        ctx.qqr(&r, &["T"]).unwrap(),
        ctx.rqr(&r, &["T"]).unwrap(),
        ctx.tra(&r, &["T"]).unwrap(),
        ctx.usv(&r, &["T"]).unwrap(),
        ctx.dsv(&r, &["T"]).unwrap(),
        ctx.vsv(&r, &["T"]).unwrap(),
        ctx.rnk(&r, &["T"]).unwrap(),
    ] {
        assert!(!result.is_empty());
    }
    // square-only ops
    for result in [
        ctx.inv(&square, &["T"]).unwrap(),
        ctx.det(&square, &["T"]).unwrap(),
        ctx.evl(&square, &["T"]).unwrap(),
    ] {
        assert!(!result.is_empty());
    }
    // chf needs symmetric positive definite: build AᵀA via cpd
    let g = ctx.cpd(&r, &["T"], &r, &["T"]).unwrap();
    let chf = ctx.chf(&g, &["C"]).unwrap();
    assert_eq!(chf.len(), 2);
    // evc on the symmetric Gram matrix
    let evc = ctx.evc(&g, &["C"]).unwrap();
    assert_eq!(evc.len(), 2);
}

#[test]
fn every_binary_operation_end_to_end() {
    let ctx = RmaContext::default();
    let a = RelationBuilder::new()
        .column("k", vec![1i64, 2, 3])
        .column("p", vec![1.0f64, 2.0, 3.0])
        .column("q", vec![0.5f64, 1.0, -1.0])
        .build()
        .unwrap();
    let b = RelationBuilder::new()
        .column("j", vec![3i64, 1, 2])
        .column("u", vec![2.0f64, 4.0, 6.0])
        .column("v", vec![1.0f64, 3.0, 5.0])
        .build()
        .unwrap();
    assert_eq!(ctx.add(&a, &["k"], &b, &["j"]).unwrap().schema().len(), 4);
    assert_eq!(ctx.sub(&a, &["k"], &b, &["j"]).unwrap().len(), 3);
    assert_eq!(ctx.emu(&a, &["k"], &b, &["j"]).unwrap().len(), 3);
    assert_eq!(ctx.cpd(&a, &["k"], &b, &["j"]).unwrap().len(), 2);
    // mmu: a's 2 app columns require a 2-tuple second operand
    let c = RelationBuilder::new()
        .column("j", vec![1i64, 2])
        .column("x", vec![1.0f64, 2.0])
        .build()
        .unwrap();
    let m = ctx.mmu(&a, &["k"], &c, &["j"]).unwrap();
    assert_eq!(m.len(), 3);
    // opd with |V| = 1
    let o = ctx.opd(&a, &["k"], &b, &["j"]).unwrap();
    assert_eq!(o.schema().len(), 4); // k ◦ ▽j (3 columns)
                                     // sol: least squares
    let y = RelationBuilder::new()
        .column("t", vec![1i64, 2, 3])
        .column("y", vec![2.0f64, 5.0, 1.0])
        .build()
        .unwrap();
    let s = ctx.sol(&a, &["k"], &y, &["t"]).unwrap();
    assert_eq!(s.len(), 2);
}

#[test]
fn mixed_pipeline_matches_direct_computation() {
    // σ → inv → π → rnk: relational and matrix operators interleaved
    let ctx = RmaContext::default();
    let r = weather();
    let sub = select(&r, &Expr::col("H").gt(Expr::lit(0.5)), ctx.pool()).unwrap();
    let q = ctx.qqr(&sub, &["T"]).unwrap();
    let hw = project(&q, &["T", "H", "W"]).unwrap();
    let rank = ctx.rnk(&hw, &["T"]).unwrap();
    assert_eq!(rank.cell(0, "rnk").unwrap(), Value::Int(2));
}

#[test]
fn backends_and_policies_compose() {
    let r = weather();
    for backend in [Backend::Auto, Backend::Bat, Backend::Dense] {
        for sort in [SortPolicy::Optimized, SortPolicy::Always] {
            let ctx = RmaContext::new(RmaOptions {
                backend,
                sort_policy: sort,
                ..RmaOptions::default()
            });
            let q = ctx.qqr(&r, &["T"]).unwrap();
            assert_eq!(q.len(), 4);
            let sorted = q.sorted_by(&["T"]).unwrap();
            assert_eq!(sorted.cell(0, "T").unwrap(), Value::from("5am"));
        }
    }
}

#[test]
fn generated_data_flows_through_rma() {
    let ctx = RmaContext::default();
    let pubs = rma::data::publications(300, 20, 5);
    let confs: Vec<String> = pubs
        .schema()
        .names()
        .filter(|n| *n != "author")
        .map(str::to_string)
        .collect();
    let mut cols = vec!["author"];
    cols.extend(confs.iter().map(String::as_str));
    let gram = ctx.cpd(&pubs, &["author"], &pubs, &["author"]).unwrap();
    assert_eq!(gram.len(), 20);
    // Gram matrices are PSD: every diagonal entry is non-negative
    let sorted = gram.sorted_by(&["C"]).unwrap();
    for i in 0..sorted.len() {
        let Value::Str(c) = sorted.cell(i, "C").unwrap() else {
            panic!()
        };
        let d = sorted.cell(i, &c).unwrap().as_f64().unwrap();
        assert!(d >= 0.0, "diag({c}) = {d}");
    }
}

#[test]
fn kernel_stats_visible_through_facade() {
    let ctx = RmaContext::with_backend(Backend::Dense);
    ctx.qqr(&weather(), &["T"]).unwrap();
    let stats = ctx.stats();
    assert_eq!(stats.ops_run, 1);
    assert!(stats.copy_in.as_nanos() > 0);
    assert!(stats.transform_share() > 0.0);
}
