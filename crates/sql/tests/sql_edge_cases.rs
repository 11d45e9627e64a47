//! SQL dialect edge cases: quoting, nulls, nested derived tables, RMA
//! composition, and error propagation.

use rma_sql::{Engine, SqlError};
use rma_storage::Value;

fn engine() -> Engine {
    let mut e = Engine::new();
    e.execute_script(
        "CREATE TABLE t (k INT, name VARCHAR, x DOUBLE);
         INSERT INTO t VALUES (1, 'alpha', 1.5), (2, 'beta', -0.5),
                              (3, 'gamma''s', 2.25), (4, NULL, NULL);",
    )
    .unwrap();
    e
}

#[test]
fn escaped_quotes_and_null_literals() {
    let mut e = engine();
    let r = e.query("SELECT k FROM t WHERE name = 'gamma''s'").unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.cell(0, "k").unwrap(), Value::Int(3));
    let r = e.query("SELECT k FROM t WHERE name IS NULL").unwrap();
    assert_eq!(r.len(), 1);
    let r = e
        .query("SELECT k FROM t WHERE x IS NOT NULL ORDER BY k")
        .unwrap();
    assert_eq!(r.len(), 3);
}

#[test]
fn null_arithmetic_and_aggregates() {
    let mut e = engine();
    // x + 1 is NULL for the NULL row; comparisons with NULL are not true,
    // so only the three non-null rows qualify (all have x + 1 > 0)
    let r = e
        .query("SELECT k FROM t WHERE x + 1 > 0 ORDER BY k")
        .unwrap();
    assert_eq!(r.len(), 3);
    let r2 = e
        .query("SELECT COUNT(*) AS a, COUNT(x) AS b, AVG(x) AS m FROM t")
        .unwrap();
    assert_eq!(r2.cell(0, "a").unwrap(), Value::Int(4));
    assert_eq!(r2.cell(0, "b").unwrap(), Value::Int(3));
    let Value::Float(m) = r2.cell(0, "m").unwrap() else {
        panic!()
    };
    assert!((m - (1.5 - 0.5 + 2.25) / 3.0).abs() < 1e-12);
}

#[test]
fn scalar_functions_in_sql() {
    let mut e = engine();
    let r = e
        .query("SELECT k, SQRT(ABS(x)) AS s FROM t WHERE x IS NOT NULL ORDER BY k")
        .unwrap();
    let Value::Float(s) = r.cell(1, "s").unwrap() else {
        panic!()
    };
    assert!((s - 0.5f64.sqrt()).abs() < 1e-12);
}

#[test]
fn deeply_nested_derived_tables() {
    let mut e = engine();
    let r = e
        .query(
            "SELECT * FROM (SELECT * FROM (SELECT k, x FROM t WHERE x IS NOT NULL) a \
             WHERE x > 0) b ORDER BY k DESC LIMIT 1",
        )
        .unwrap();
    assert_eq!(r.cell(0, "k").unwrap(), Value::Int(3));
}

#[test]
fn rma_over_derived_over_rma() {
    let mut e = Engine::new();
    e.execute_script(
        "CREATE TABLE m (k VARCHAR, a DOUBLE, b DOUBLE);
         INSERT INTO m VALUES ('r1', 2.0, 1.0), ('r2', 1.0, 3.0);",
    )
    .unwrap();
    // inv ∘ (σ over inv) — closure in action
    let r = e
        .query("SELECT * FROM INV((SELECT * FROM INV(m BY k) WHERE k >= 'r1') q BY k)")
        .unwrap();
    // inverting twice returns the original matrix
    assert_eq!(r.len(), 2);
    let Value::Float(a) = r.cell(0, "a").unwrap() else {
        panic!()
    };
    assert!((a - 2.0).abs() < 1e-9);
}

#[test]
fn group_by_with_expression_post_projection() {
    let mut e = Engine::new();
    e.execute_script(
        "CREATE TABLE s (g VARCHAR, v DOUBLE);
         INSERT INTO s VALUES ('a', 1.0), ('a', 3.0), ('b', 10.0);",
    )
    .unwrap();
    let r = e
        .query("SELECT g, SUM(v) / COUNT(*) AS mean FROM s GROUP BY g ORDER BY g")
        .unwrap();
    assert_eq!(r.cell(0, "mean").unwrap(), Value::Float(2.0));
    assert_eq!(r.cell(1, "mean").unwrap(), Value::Float(10.0));
}

#[test]
fn distinct_and_implicit_cross_join() {
    let mut e = engine();
    e.execute("CREATE TABLE u (y INT)").unwrap();
    e.execute("INSERT INTO u VALUES (10), (10), (20)").unwrap();
    let r = e.query("SELECT DISTINCT y FROM u ORDER BY y").unwrap();
    assert_eq!(r.len(), 2);
    // FROM a, b is a cross join
    let r = e.query("SELECT k, y FROM t, u WHERE k = 1").unwrap();
    assert_eq!(r.len(), 3);
}

#[test]
fn errors_carry_context() {
    let mut e = engine();
    match e.query("SELECT * FROM INV(t BY k)") {
        Err(SqlError::Rma(err)) => {
            let msg = err.to_string();
            assert!(msg.contains("not numeric"), "unexpected message: {msg}");
        }
        other => panic!("expected RMA error, got {other:?}"),
    }
    match e.query("SELECT missing FROM t") {
        Err(SqlError::Relation(_)) => {}
        other => panic!("expected relation error, got {other:?}"),
    }
    // arity errors at parse time
    assert!(matches!(
        e.query("SELECT * FROM ADD(t BY k)"),
        Err(SqlError::Parse(_))
    ));
}

#[test]
fn table_aliases_resolve() {
    let mut e = engine();
    let r = e
        .query("SELECT tt.k FROM t AS tt WHERE tt.x > 0 ORDER BY tt.k")
        .unwrap();
    assert_eq!(r.len(), 2);
    let r = e.query("SELECT k FROM t bare_alias WHERE x > 2").unwrap();
    assert_eq!(r.len(), 1);
}

#[test]
fn empty_results_keep_schema() {
    let mut e = engine();
    let r = e.query("SELECT k, x FROM t WHERE k > 100").unwrap();
    assert_eq!(r.len(), 0);
    assert_eq!(r.schema().len(), 2);
    // aggregates over the empty set: COUNT = 0, AVG = NULL
    let r = e
        .query("SELECT COUNT(*) AS n, AVG(x) AS m FROM t WHERE k > 100")
        .unwrap();
    assert_eq!(r.cell(0, "n").unwrap(), Value::Int(0));
    assert_eq!(r.cell(0, "m").unwrap(), Value::Null);
}

#[test]
fn limit_past_the_table_keeps_every_row_in_order() {
    // enough rows for the pooled top-k, whose charge and serial cutoff
    // both multiply the LIMIT
    let n = 1500i64;
    let rows: Vec<String> = (0..n).map(|i| format!("({})", (i * 7919) % n)).collect();
    for threads in [1, 2] {
        for budget in [0, 1 << 20] {
            let mut e = Engine::with_threads(threads);
            e.execute("CREATE TABLE t (x INT)").unwrap();
            e.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
                .unwrap();
            e.session_handle().set_mem_budget(budget);
            let r = e
                .query("SELECT x FROM t ORDER BY x LIMIT 9223372036854775807")
                .unwrap_or_else(|err| panic!("{threads} threads, budget {budget}: {err:?}"));
            let xs: Vec<Value> = (0..r.len()).map(|i| r.cell(i, "x").unwrap()).collect();
            assert_eq!(xs, (0..n).map(Value::Int).collect::<Vec<_>>());
        }
    }
}

#[test]
fn a_session_budget_steers_the_kernel() {
    // 5 000 × 10 application columns: QQR's dense copy is 800 000 B
    let mut t =
        rma_relation::RelationBuilder::new().column("k", (0..5_000i64).rev().collect::<Vec<_>>());
    for j in 0..10 {
        let x: Vec<f64> = (0..5_000)
            .map(|i| ((i * (j + 1)) as f64 * 0.37).sin())
            .collect();
        t = t.column(format!("x{j}"), x);
    }
    let mut e = Engine::new();
    e.register("t", t.build().unwrap()).unwrap();
    let sql = "SELECT * FROM QQR(t BY k)";
    for (budget, kernel, family) in [
        (500_000, rma_core::KernelUsed::Bat, "Bat"),
        (0, rma_core::KernelUsed::Dense, "Dense"),
    ] {
        e.session_handle().set_mem_budget(budget);
        e.rma_context().reset_stats();
        e.query(sql).unwrap();
        assert_eq!(
            e.rma_context().stats().last_kernel,
            Some(kernel),
            "{budget} B"
        );
        let explained = e.explain(sql).unwrap();
        assert!(
            explained.contains(&format!("backend={family}")),
            "{budget} B:\n{explained}"
        );
        let analyzed = e.explain_analyze(sql).unwrap();
        assert!(
            analyzed.contains(&format!("ran={family}")),
            "{budget} B:\n{analyzed}"
        );
    }
}
