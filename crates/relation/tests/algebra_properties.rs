//! Property-based tests of classical relational-algebra laws over the
//! column-store engine.

use proptest::prelude::*;
use rma_relation::{
    aggregate, cross_product, distinct, join_on, order_by, project, rename, select, union_all,
    AggSpec, Expr, Relation, RelationBuilder, WorkerPool,
};

/// A one-worker pool: the operators' serial path, spawning no thread.
fn one() -> WorkerPool {
    WorkerPool::new(1)
}

/// Random small relation (k: Int possibly duplicated, s: Str, x: Float).
fn arb_rel(max_rows: usize) -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0i64..8, 0usize..4, -50.0f64..50.0), 0..max_rows).prop_map(|rows| {
        let ks: Vec<i64> = rows.iter().map(|(k, _, _)| *k).collect();
        let ss: Vec<String> = rows.iter().map(|(_, s, _)| format!("s{s}")).collect();
        let xs: Vec<f64> = rows.iter().map(|(_, _, x)| *x).collect();
        RelationBuilder::new()
            .column("k", ks)
            .column("s", ss)
            .column("x", xs)
            .build()
            .expect("valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // σ distributes over ∪: σ(a ∪ b) = σ(a) ∪ σ(b)
    #[test]
    fn selection_distributes_over_union(a in arb_rel(12), b in arb_rel(12)) {
        let p = Expr::col("x").gt(Expr::lit(0.0));
        let lhs = select(&union_all(&a, &b).unwrap(), &p, &one()).unwrap();
        let rhs = union_all(&select(&a, &p, &one()).unwrap(), &select(&b, &p, &one()).unwrap()).unwrap();
        prop_assert!(lhs.bag_equals(&rhs));
    }

    // cascading selections commute: σp(σq(r)) = σq(σp(r)) = σ(p ∧ q)(r)
    #[test]
    fn selections_commute(r in arb_rel(16)) {
        let p = Expr::col("x").gt(Expr::lit(-10.0));
        let q = Expr::col("k").lt(Expr::lit(5i64));
        let pq = select(&select(&r, &q, &one()).unwrap(), &p, &one()).unwrap();
        let qp = select(&select(&r, &p, &one()).unwrap(), &q, &one()).unwrap();
        let conj = select(&r, &p.clone().and(q.clone()), &one()).unwrap();
        prop_assert!(pq.bag_equals(&qp));
        prop_assert!(pq.bag_equals(&conj));
    }

    // projection then projection = outer projection
    #[test]
    fn projection_composes(r in arb_rel(16)) {
        let once = project(&r, &["k"]).unwrap();
        let twice = project(&project(&r, &["k", "x"]).unwrap(), &["k"]).unwrap();
        prop_assert!(once.bag_equals(&twice));
    }

    // join is commutative up to column order
    #[test]
    fn join_commutes(a in arb_rel(10), b in arb_rel(10)) {
        let b = rename(&b, &[("k", "k2"), ("s", "s2"), ("x", "x2")]).unwrap();
        let ab = join_on(&a, &b, &[("k", "k2")], &one()).unwrap();
        let ba = join_on(&b, &a, &[("k2", "k")], &one()).unwrap();
        prop_assert_eq!(ab.len(), ba.len());
        // reorder columns and compare as bags
        let cols: Vec<&str> = ab.schema().names().collect();
        let ba_reordered = project(&ba, &cols).unwrap();
        prop_assert!(ab.bag_equals(&ba_reordered));
    }

    // |a × b| = |a|·|b| and σ_true × = ×
    #[test]
    fn cross_product_cardinality(a in arb_rel(8), b in arb_rel(8)) {
        let b = rename(&b, &[("k", "k2"), ("s", "s2"), ("x", "x2")]).unwrap();
        let c = cross_product(&a, &b).unwrap();
        prop_assert_eq!(c.len(), a.len() * b.len());
    }

    // distinct is idempotent and never grows
    #[test]
    fn distinct_idempotent(r in arb_rel(20)) {
        let d1 = distinct(&r).unwrap();
        let d2 = distinct(&d1).unwrap();
        prop_assert!(d1.bag_equals(&d2));
        prop_assert!(d1.len() <= r.len());
    }

    // order_by is a permutation: same bag, sorted key column
    #[test]
    fn order_by_permutes(r in arb_rel(20)) {
        let o = order_by(&r, &["x"], &[true], &one()).unwrap();
        prop_assert!(o.bag_equals(&r));
        let xs = o.column("x").unwrap().to_f64_vec().unwrap();
        prop_assert!(xs.windows(2).all(|w| w[0] <= w[1]));
    }

    // COUNT(*) equals the relation size; SUM splits over a partition
    #[test]
    fn aggregates_consistent(r in arb_rel(20)) {
        let g = aggregate(&r, &[], &[AggSpec::count_star("n"), AggSpec::sum("x", "s")], &one()).unwrap();
        let n = g.cell(0, "n").unwrap();
        prop_assert_eq!(n, rma_storage::Value::Int(r.len() as i64));
        // group-by k, then total of group sums == global sum
        let per_k = aggregate(&r, &["k"], &[AggSpec::sum("x", "s")], &one()).unwrap();
        let total: f64 = per_k
            .column("s")
            .unwrap()
            .iter_values()
            .filter_map(|v| v.as_f64())
            .sum();
        let global = g.cell(0, "s").unwrap().as_f64().unwrap_or(0.0);
        prop_assert!((total - global).abs() < 1e-6);
    }

    // join with a distinct key relation never duplicates rows
    #[test]
    fn key_join_preserves_cardinality(a in arb_rel(16)) {
        // build a key table of all distinct k values
        let keys = distinct(&project(&a, &["k"]).unwrap()).unwrap();
        let keys = rename(&keys, &[("k", "k2")]).unwrap();
        let j = join_on(&a, &keys, &[("k", "k2")], &one()).unwrap();
        prop_assert_eq!(j.len(), a.len());
    }
}
