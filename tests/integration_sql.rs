//! SQL end-to-end integration: DDL + DML + mixed relational/matrix queries
//! against generated datasets.

use rma::sql::ast::Statement;
use rma::sql::Engine;
use rma::Value;

#[test]
fn full_sql_session_over_generated_data() {
    let mut e = Engine::new();
    e.register("trips", rma::data::trips(2_000, 25, 77))
        .unwrap();
    e.register("stations", rma::data::stations(25, 77 ^ 0x5a5a))
        .unwrap();

    // relational: aggregate + join + filter
    let busy = e
        .query(
            "SELECT start_station, COUNT(*) AS n FROM trips \
             GROUP BY start_station ORDER BY n DESC LIMIT 5",
        )
        .unwrap();
    assert_eq!(busy.len(), 5);
    let joined = e
        .query(
            "SELECT name, duration FROM trips JOIN stations ON start_station = code \
             WHERE duration > 400 LIMIT 10",
        )
        .unwrap();
    assert!(joined.schema().contains("name"));

    // matrix over a derived table
    let q = e
        .query(
            "SELECT * FROM QQR((SELECT id, duration, member FROM trips LIMIT 50) s BY id, member)",
        )
        .unwrap();
    assert_eq!(q.len(), 50);
}

#[test]
fn covariance_query_via_sql() {
    let mut e = Engine::new();
    e.execute_script(
        "CREATE TABLE w3 (U VARCHAR, B DOUBLE, H DOUBLE, N DOUBLE);
         INSERT INTO w3 VALUES ('Ann', 0.5, -1.25, -0.25), ('Jan', -0.5, 1.25, 0.25);",
    )
    .unwrap();
    let cov = e
        .query("SELECT C, B, H, N FROM MMU(TRA(w3 BY U) BY C, w3 BY U) ORDER BY C")
        .unwrap();
    assert_eq!(cov.len(), 3);
    assert_eq!(cov.cell(0, "C").unwrap(), Value::from("B"));
    assert_eq!(cov.cell(0, "B").unwrap(), Value::Float(0.5));
    assert_eq!(cov.cell(1, "H").unwrap(), Value::Float(3.125));
}

#[test]
fn errors_are_reported_not_panicked() {
    let mut e = Engine::new();
    e.execute("CREATE TABLE t (k INT, x DOUBLE)").unwrap();
    e.execute("INSERT INTO t VALUES (1, 1.0), (1, 2.0)")
        .unwrap();
    // duplicate key in order schema
    assert!(e.query("SELECT * FROM INV(t BY k)").is_err());
    // unknown table, unknown column, bad syntax
    assert!(e.query("SELECT * FROM missing").is_err());
    assert!(e.query("SELECT nope FROM t").is_err());
    assert!(e.query("SELEC * FROM t").is_err());
    // non-square inversion
    e.execute("CREATE TABLE t2 (k INT, x DOUBLE, y DOUBLE)")
        .unwrap();
    e.execute("INSERT INTO t2 VALUES (1, 1.0, 2.0)").unwrap();
    assert!(e.query("SELECT * FROM INV(t2 BY k)").is_err());
}

#[test]
fn optimizer_toggle_preserves_results() {
    let mut e = Engine::new();
    e.register("trips", rma::data::trips(1_000, 10, 5)).unwrap();
    e.register("stations", rma::data::stations(10, 5 ^ 0x5a5a))
        .unwrap();
    let q = "SELECT name, duration FROM trips JOIN stations ON start_station = code \
             WHERE duration > 300 AND lat > 45.5 ORDER BY duration DESC LIMIT 20";
    let with = e.query(q).unwrap();
    // the same plan as lowered, executed without the optimizer
    let Statement::Select(sel) = rma::sql::parse(q).unwrap() else {
        panic!("not a SELECT")
    };
    let plan = rma::sql::plan_select(&sel).unwrap();
    let without = rma::sql::executor::execute(&plan, &e.catalog, e.rma_context())
        .unwrap()
        .materialize();
    assert!(with.bag_equals(&without));
}
