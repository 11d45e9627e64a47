//! SQL-side optimizer entry point.
//!
//! All optimization logic lives in the shared plan layer
//! (`rma_core::plan::optimize`): selection pushdown, projection pushdown,
//! the cross-algebra double-transpose rewrite, redundant-sort elimination,
//! and plan-level kernel choice run identically for SQL queries and lazy
//! `Frame` pipelines. This module only adapts the SQL engine's types.

use crate::catalog::Catalog;
use crate::plan::Plan;
use rma_core::RmaContext;

/// Optimize a plan against a catalog (whose schemas inform
/// column-dependent rewrites) and an execution context (whose sort policy
/// and kernel options steer the physical passes).
pub fn optimize(plan: Plan, catalog: &Catalog, ctx: &RmaContext) -> Plan {
    rma_core::plan::optimize(plan, ctx, catalog)
}

/// Output column names of a plan, if statically known.
pub fn output_columns(plan: &Plan, catalog: &Catalog) -> Option<Vec<String>> {
    rma_core::plan::output_columns(plan, catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse;
    use crate::plan::{explain, plan_select};
    use rma_relation::RelationBuilder;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "u",
            RelationBuilder::new()
                .column("user", vec!["a"])
                .column("state", vec!["CA"])
                .build()
                .unwrap(),
        )
        .unwrap();
        c.register(
            "r",
            RelationBuilder::new()
                .column("user2", vec!["a"])
                .column("score", vec![1.0f64])
                .build()
                .unwrap(),
        )
        .unwrap();
        c
    }

    fn optimized(sql: &str) -> String {
        let Statement::Select(sel) = parse(sql).unwrap() else {
            panic!()
        };
        let plan = plan_select(&sel).unwrap();
        explain(&optimize(plan, &catalog(), &RmaContext::default()))
    }

    #[test]
    fn filter_pushed_into_join_side() {
        let e =
            optimized("SELECT * FROM u JOIN r ON user = user2 WHERE state = 'CA' AND score > 0");
        // both conjuncts land below the join
        let join_pos = e.find("JoinOn").unwrap();
        let f1 = e.find("(state = CA)").unwrap();
        let f2 = e.find("(score > 0)").unwrap();
        assert!(f1 > join_pos && f2 > join_pos, "filters not pushed:\n{e}");
        assert!(!e.starts_with("Select"));
    }

    #[test]
    fn cross_predicate_stays_above() {
        let e = optimized("SELECT * FROM u CROSS JOIN r WHERE user = user2");
        assert!(e.starts_with("Select"), "join predicate must stay:\n{e}");
    }

    #[test]
    fn filter_pushes_through_identity_projection() {
        let e = optimized("SELECT state FROM (SELECT state FROM u) q WHERE state = 'CA'");
        let proj = e.find("Project").unwrap();
        let filt = e.find("Select").unwrap();
        assert!(filt > proj, "filter should sink below projection:\n{e}");
    }

    #[test]
    fn filter_not_pushed_through_row_coupling_rma() {
        let e = optimized("SELECT * FROM QQR(r BY user2) WHERE score > 0");
        let filt = e.find("Select").unwrap();
        let rma = e.find("Rma").unwrap();
        assert!(filt < rma, "filter must stay above QQR:\n{e}");
    }

    #[test]
    fn filter_on_order_schema_pushed_below_mmu() {
        let mut c = Catalog::new();
        c.register(
            "a",
            RelationBuilder::new()
                .column("k", vec![1i64, 2])
                .column("x", vec![1.0f64, 2.0])
                .build()
                .unwrap(),
        )
        .unwrap();
        c.register(
            "b",
            RelationBuilder::new()
                .column("j", vec![1i64, 2])
                .column("y", vec![3.0f64, 4.0])
                .build()
                .unwrap(),
        )
        .unwrap();
        let Statement::Select(sel) =
            parse("SELECT * FROM MMU(a BY k, b BY j) WHERE k > 1").unwrap()
        else {
            panic!()
        };
        let plan = plan_select(&sel).unwrap();
        let e = explain(&optimize(plan, &c, &RmaContext::default()));
        let rma = e.find("Rma MMU").unwrap();
        let filt = e.find("Select").unwrap();
        assert!(
            filt > rma,
            "order-schema filter should sink below mmu:\n{e}"
        );
        assert!(e.contains("AssertKey"), "key validation preserved:\n{e}");
    }

    #[test]
    fn projection_pushdown_prunes_scans() {
        let e = optimized("SELECT state FROM u WHERE state = 'CA'");
        assert!(
            e.contains("Scan u project=[state]"),
            "scan should prune unused columns:\n{e}"
        );
    }

    #[test]
    fn nested_filters_merged() {
        let plan = Plan::Select {
            predicate: rma_relation::Expr::col("a").gt(rma_relation::Expr::lit(1i64)),
            input: Box::new(Plan::Select {
                predicate: rma_relation::Expr::col("a").lt(rma_relation::Expr::lit(9i64)),
                input: Box::new(Plan::rma(
                    rma_core::RmaOp::Qqr,
                    vec![(
                        Plan::Scan {
                            table: "r".into(),
                            projection: None,
                        },
                        vec!["k".into()],
                    )],
                )),
            }),
        };
        let out = optimize(plan, &catalog(), &RmaContext::default());
        let e = explain(&out);
        assert_eq!(e.matches("Select").count(), 1);
        assert!(e.contains("AND"));
    }
}

#[cfg(test)]
mod cross_algebra_tests {
    use crate::ast::Statement;
    use crate::engine::Engine;
    use crate::executor::execute;
    use crate::parser::parse;
    use crate::plan::plan_select;
    use rma_relation::Relation;

    /// A SELECT's plan as lowered, executed without the optimizer.
    pub(super) fn unoptimized(e: &Engine, sql: &str) -> Relation {
        let Statement::Select(sel) = parse(sql).unwrap() else {
            panic!("not a SELECT: {sql}")
        };
        let plan = plan_select(&sel).unwrap();
        execute(&plan, &e.catalog, e.rma_context())
            .unwrap()
            .materialize()
    }

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.execute("CREATE TABLE r (T VARCHAR, H DOUBLE, W DOUBLE)")
            .unwrap();
        e.execute(
            "INSERT INTO r VALUES ('5am', 1.0, 3.0), ('8am', 8.0, 5.0), \
             ('7am', 6.0, 7.0), ('6am', 1.0, 4.0)",
        )
        .unwrap();
        e
    }

    const DOUBLE_TRA: &str = "SELECT * FROM TRA(TRA(r BY T) BY C)";

    #[test]
    fn double_transpose_is_eliminated() {
        let e = engine();
        let plan = e.explain(DOUBLE_TRA).unwrap();
        assert!(!plan.contains("Rma"), "transposes not eliminated:\n{plan}");
        assert!(plan.contains("AssertKey"));
        assert!(plan.contains("OrderBy"));
    }

    #[test]
    fn rewrite_preserves_results() {
        let mut e = engine();
        let a = e.query(DOUBLE_TRA).unwrap();
        let b = unoptimized(&e, DOUBLE_TRA);
        assert_eq!(a.schema(), b.schema());
        assert!(a.bag_equals(&b));
    }

    #[test]
    fn rewrite_preserves_key_validation() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE d (k INT, x DOUBLE)").unwrap();
        e.execute("INSERT INTO d VALUES (1, 1.0), (1, 2.0)")
            .unwrap();
        // duplicate keys must still error after the rewrite
        let err = e.query("SELECT * FROM TRA(TRA(d BY k) BY C)");
        assert!(err.is_err());
    }

    #[test]
    fn rewrite_skipped_for_non_numeric_application() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE m (k INT, s VARCHAR)").unwrap();
        e.execute("INSERT INTO m VALUES (1, 'a')").unwrap();
        let plan = e.explain("SELECT * FROM TRA(TRA(m BY k) BY C)").unwrap();
        // no rewrite: the original error (non-numeric application) surfaces
        assert!(plan.contains("Rma"));
        assert!(e.query("SELECT * FROM TRA(TRA(m BY k) BY C)").is_err());
    }

    #[test]
    fn single_transpose_untouched() {
        let e = engine();
        let plan = e.explain("SELECT * FROM TRA(r BY T)").unwrap();
        assert!(plan.contains("Rma TRA"));
    }

    #[test]
    fn rewrite_applies_under_other_operators() {
        let e = engine();
        let plan = e
            .explain("SELECT C, H FROM TRA(TRA(r BY T) BY C) WHERE H > 2")
            .unwrap();
        assert!(!plan.contains("Rma"), "nested rewrite failed:\n{plan}");
    }
}

#[cfg(test)]
mod cross_algebra_column_order {
    use crate::engine::Engine;

    #[test]
    fn rewrite_sorts_application_columns_like_the_column_cast() {
        // schema order (T, W, H) differs from sorted name order (H, W)
        let mut e = Engine::new();
        e.execute("CREATE TABLE r2 (T VARCHAR, W DOUBLE, H DOUBLE)")
            .unwrap();
        e.execute("INSERT INTO r2 VALUES ('a', 3.0, 1.0), ('b', 5.0, 8.0)")
            .unwrap();
        let q = "SELECT * FROM TRA(TRA(r2 BY T) BY C)";
        let optimized = e.query(q).unwrap();
        let unoptimized = super::cross_algebra_tests::unoptimized(&e, q);
        assert_eq!(optimized.schema(), unoptimized.schema());
        assert!(optimized.bag_equals(&unoptimized));
        let names: Vec<&str> = optimized.schema().names().collect();
        assert_eq!(names, vec!["C", "H", "W"]);
    }
}
