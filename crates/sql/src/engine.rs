//! The SQL engine: parse → plan → optimize, then execute through a
//! [`Session`], the serving layer's one governed front door.

use crate::ast::Statement;
use crate::catalog::Catalog;
use crate::error::SqlError;
use crate::optimizer::optimize;
use crate::parser::{parse, parse_script};
use crate::plan::{explain_with_stats, plan_select, Plan};
use rma_core::plan::explain_analyze;
use rma_core::serve::{Server, Session};
use rma_core::{RmaContext, RmaOptions};
use rma_relation::{Relation, Schema};
use std::sync::Arc;

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// A SELECT result.
    Relation(Relation),
    /// DDL/DML acknowledgement with affected-row count.
    Done { rows_affected: usize },
}

impl QueryResult {
    /// Unwrap a SELECT result.
    pub fn relation(self) -> Result<Relation, SqlError> {
        match self {
            QueryResult::Relation(r) => Ok(r),
            QueryResult::Done { .. } => Err(SqlError::Plan(
                "statement did not produce a relation".to_string(),
            )),
        }
    }
}

/// An embedded SQL engine over the RMA-extended dialect: a parser and
/// planner in front of one [`Session`].
///
/// The engine parses, plans and optimizes each statement against its
/// [`Catalog`] — a pinned view of the session's versioned store, re-pinned
/// at every statement boundary — and hands the optimized plan to the
/// session, which governs it exactly like a `Frame` query: admission,
/// the session's limits, its fair-scheduling ticket, panic containment,
/// and its metrics cell. A *session* engine ([`Engine::session`]) attaches
/// to a [`Server`]'s shared catalog and pool, so many engines on different
/// threads serve one database concurrently; a private engine
/// ([`Engine::new`]) is a session of a server of its own. Governance
/// (`cancel`, limits, fault injection, the write-retry cap) is reached
/// through [`Engine::session_handle`].
#[derive(Debug)]
pub struct Engine {
    pub catalog: Catalog,
    session: Arc<Session>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    pub fn new() -> Self {
        Engine::with_options(RmaOptions::default())
    }

    /// Engine with explicit RMA options (backend, sort policy, threads, …):
    /// a session with no seat limit on a private server.
    pub fn with_options(options: RmaOptions) -> Self {
        Engine::session_with_budget(&Server::new(RmaContext::new(options)), 0)
    }

    /// A session engine on a [`Server`]: shares the server's versioned
    /// catalog (statements see other sessions' commits at statement
    /// boundaries; each statement runs against one pinned snapshot),
    /// executes on the server's pool under the default per-session seat
    /// budget, and keeps private [`ExecStats`](rma_core::ExecStats).
    pub fn session(server: &Server) -> Self {
        Engine::session_with_budget(server, server.default_budget())
    }

    /// A session engine with an explicit seat budget (`0` = no limit; `1`
    /// runs every morsel job inline on the issuing thread).
    pub fn session_with_budget(server: &Server, seats: usize) -> Self {
        Engine {
            catalog: Catalog::attached(Arc::clone(server.catalog())),
            session: Arc::new(server.session_with_budget(seats)),
        }
    }

    /// The session every statement runs through: clone the `Arc` to
    /// [`cancel`](Session::cancel) from another thread, or set its
    /// deadline, memory budget, write-retry cap or fault plan.
    pub fn session_handle(&self) -> &Arc<Session> {
        &self.session
    }

    /// Engine with an explicit worker-thread count for plan execution
    /// (`1` forces the serial plan interpreter; other options default —
    /// the dense kernels keep their process-wide `RMA_THREADS` budget).
    pub fn with_threads(threads: usize) -> Self {
        Engine::with_options(RmaOptions {
            threads: threads.max(1),
            ..RmaOptions::default()
        })
    }

    /// The session's execution context (for reading kernel statistics).
    pub fn rma_context(&self) -> &RmaContext {
        self.session.context()
    }

    /// Register a Rust-created relation as a table.
    pub fn register(&mut self, name: &str, relation: Relation) -> Result<(), SqlError> {
        self.catalog.register(name, relation)
    }

    /// Execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, SqlError> {
        let stmt = parse(sql)?;
        self.run_statement(stmt)
    }

    /// Execute a `;`-separated script, returning the last result.
    pub fn execute_script(&mut self, sql: &str) -> Result<QueryResult, SqlError> {
        let stmts = parse_script(sql)?;
        let mut last = QueryResult::Done { rows_affected: 0 };
        for stmt in stmts {
            last = self.run_statement(stmt)?;
        }
        Ok(last)
    }

    /// Convenience: run a SELECT and return the relation.
    pub fn query(&mut self, sql: &str) -> Result<Relation, SqlError> {
        self.execute(sql)?.relation()
    }

    /// EXPLAIN: the (optimized) plan of a SELECT, as text — one node per
    /// line, annotated with estimated output rows (`rows≈`) and
    /// accumulated cost (`cost≈`). Also reachable as the SQL statement
    /// `EXPLAIN SELECT ...`. See the crate-level docs for the format.
    pub fn explain(&self, sql: &str) -> Result<String, SqlError> {
        let stmt = parse(sql)?;
        let sel = match stmt {
            Statement::Select(sel) | Statement::Explain(sel) => sel,
            _ => return Err(SqlError::Plan("EXPLAIN requires a SELECT".to_string())),
        };
        let plan = self.build_plan(&sel)?;
        Ok(explain_with_stats(&plan, &self.catalog))
    }

    /// EXPLAIN ANALYZE: **execute** a SELECT with per-node profiling and
    /// return the plan text annotated with actual output rows, inclusive
    /// wall time, morsel counts, and the estimator's q-error
    /// (`max(est/actual, actual/est)`) per node. Also reachable as the SQL
    /// statement `EXPLAIN ANALYZE SELECT ...`.
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String, SqlError> {
        let stmt = parse(sql)?;
        let sel = match stmt {
            Statement::Select(sel) | Statement::Explain(sel) | Statement::ExplainAnalyze(sel) => {
                sel
            }
            _ => {
                return Err(SqlError::Plan(
                    "EXPLAIN ANALYZE requires a SELECT".to_string(),
                ))
            }
        };
        self.catalog.refresh();
        self.analyze(&sel)
    }

    fn build_plan(&self, sel: &crate::ast::SelectStmt) -> Result<Plan, SqlError> {
        Ok(optimize(
            plan_select(sel)?,
            &self.catalog,
            self.rma_context(),
        ))
    }

    /// Plan, optimize and run a SELECT through the session.
    fn select(&self, sel: &crate::ast::SelectStmt) -> Result<Relation, SqlError> {
        let plan = self.build_plan(sel)?;
        Ok(self.session.execute(&plan, &self.catalog)?)
    }

    /// Run a SELECT profiled through the session and render the plan with
    /// its actuals.
    fn analyze(&self, sel: &crate::ast::SelectStmt) -> Result<String, SqlError> {
        let plan = self.build_plan(sel)?;
        let (_, actuals) = self.session.execute_analyzed(&plan, &self.catalog)?;
        Ok(explain_analyze(&plan, &self.catalog, &actuals))
    }

    fn run_statement(&mut self, stmt: Statement) -> Result<QueryResult, SqlError> {
        // statement boundary: re-pin the catalog so this statement sees the
        // latest committed state (its own prior writes and, for session
        // engines, other sessions' commits); within the statement the pin
        // is frozen — one statement, one snapshot
        self.catalog.refresh();
        match stmt {
            Statement::Select(sel) => Ok(QueryResult::Relation(self.select(&sel)?)),
            Statement::ExplainAnalyze(sel) => plan_relation(&self.analyze(&sel)?),
            Statement::Explain(sel) => {
                let plan = self.build_plan(&sel)?;
                plan_relation(&explain_with_stats(&plan, &self.catalog))
            }
            Statement::CreateTable {
                name,
                columns,
                or_replace,
            } => {
                let schema = Schema::new(
                    columns
                        .iter()
                        .map(|(n, t)| rma_relation::Attribute::new(n.clone(), *t))
                        .collect(),
                )
                .map_err(SqlError::Relation)?;
                let empty = Relation::empty(schema);
                if or_replace {
                    self.catalog.put(&name, empty);
                } else {
                    self.catalog.register(&name, empty)?;
                }
                Ok(QueryResult::Done { rows_affected: 0 })
            }
            Statement::CreateTableAs {
                name,
                query,
                or_replace,
            } => {
                let rel = self.select(&query)?;
                let n = rel.len();
                if or_replace {
                    self.catalog.put(&name, rel);
                } else {
                    self.catalog.register(&name, rel)?;
                }
                Ok(QueryResult::Done { rows_affected: n })
            }
            Statement::Insert { table, rows } => {
                // typed against the statement's pin; the session's
                // optimistic commit loop appends them
                let Some(base) = self.catalog.get(&table) else {
                    return Err(SqlError::UnknownTable(table));
                };
                let incoming = Relation::from_rows(base.schema().clone(), &rows)?;
                self.session.insert(&table, &incoming)?;
                self.catalog.refresh();
                Ok(QueryResult::Done {
                    rows_affected: rows.len(),
                })
            }
            Statement::DropTable { name, if_exists } => {
                if self.catalog.remove(&name).is_none() && !if_exists {
                    return Err(SqlError::UnknownTable(name));
                }
                Ok(QueryResult::Done { rows_affected: 0 })
            }
        }
    }
}

/// An EXPLAIN text as a one-column `plan` relation, one row per line.
fn plan_relation(text: &str) -> Result<QueryResult, SqlError> {
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    let rel = rma_relation::RelationBuilder::new()
        .column("plan", lines)
        .build()?;
    Ok(QueryResult::Relation(rel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma_core::{RmaError, ServeError};
    use rma_storage::Value;

    /// EXPLAIN text of a SELECT's plan as lowered, without the optimizer.
    fn explain_unoptimized(e: &Engine, sql: &str) -> String {
        let Statement::Select(sel) = parse(sql).unwrap() else {
            panic!("not a SELECT: {sql}")
        };
        explain_with_stats(&plan_select(&sel).unwrap(), &e.catalog)
    }

    fn engine_with_rating() -> Engine {
        let mut e = Engine::new();
        e.execute("CREATE TABLE rating (u VARCHAR, Balto DOUBLE, Heat DOUBLE, Net DOUBLE)")
            .unwrap();
        e.execute(
            "INSERT INTO rating VALUES ('Ann', 2.0, 1.5, 0.5), ('Tom', 0.0, 0.0, 1.5), ('Jan', 1.0, 4.0, 1.0)",
        )
        .unwrap();
        e
    }

    #[test]
    fn create_insert_select() {
        let mut e = engine_with_rating();
        let r = e.query("SELECT * FROM rating WHERE u = 'Ann'").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, "Balto").unwrap(), Value::Float(2.0));
    }

    #[test]
    fn paper_intro_query() {
        let mut e = engine_with_rating();
        let inv = e.query("SELECT * FROM INV(rating BY u)").unwrap();
        assert_eq!(inv.len(), 3);
        let names: Vec<_> = inv.schema().names().collect();
        assert_eq!(names, vec!["u", "Balto", "Heat", "Net"]);
        // rows sorted by user: Ann, Jan, Tom
        assert_eq!(inv.cell(0, "u").unwrap(), Value::from("Ann"));
        assert_eq!(inv.cell(1, "u").unwrap(), Value::from("Jan"));
    }

    #[test]
    fn nested_rma_and_relational() {
        let mut e = engine_with_rating();
        let r = e
            .query("SELECT * FROM TRA(TRA(rating BY u) BY C) WHERE C = 'Jan'")
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, "Heat").unwrap(), Value::Float(4.0));
    }

    #[test]
    fn aggregates_and_arithmetic() {
        let mut e = engine_with_rating();
        let r = e
            .query("SELECT COUNT(*) AS n, AVG(Heat) AS h FROM rating")
            .unwrap();
        assert_eq!(r.cell(0, "n").unwrap(), Value::Int(3));
        let Value::Float(h) = r.cell(0, "h").unwrap() else {
            panic!()
        };
        assert!((h - (1.5 + 4.0) / 3.0).abs() < 1e-12);
        let r = e
            .query("SELECT u, Balto + Net AS s FROM rating ORDER BY s DESC LIMIT 1")
            .unwrap();
        assert_eq!(r.cell(0, "u").unwrap(), Value::from("Ann"));
    }

    #[test]
    fn insert_appends() {
        let mut e = engine_with_rating();
        let res = e
            .execute("INSERT INTO rating VALUES ('Zoe', 1.0, 1.0, 1.0)")
            .unwrap();
        assert_eq!(res, QueryResult::Done { rows_affected: 1 });
        assert_eq!(e.query("SELECT * FROM rating").unwrap().len(), 4);
    }

    #[test]
    fn drop_and_unknown_tables() {
        let mut e = engine_with_rating();
        e.execute("DROP TABLE rating").unwrap();
        assert!(matches!(
            e.query("SELECT * FROM rating"),
            Err(SqlError::UnknownTable(_))
        ));
        assert!(e.execute("DROP TABLE rating").is_err());
    }

    #[test]
    fn create_or_replace_swaps_the_table() {
        let mut e = engine_with_rating();
        assert!(matches!(
            e.execute("CREATE TABLE rating (x INT)"),
            Err(SqlError::TableExists(_))
        ));
        e.execute("CREATE OR REPLACE TABLE rating (x INT)").unwrap();
        assert_eq!(e.query("SELECT * FROM rating").unwrap().len(), 0);
    }

    #[test]
    fn create_table_as_select() {
        let mut e = engine_with_rating();
        let res = e
            .execute("CREATE TABLE hot AS SELECT u, Heat FROM rating WHERE Heat > 1")
            .unwrap();
        assert_eq!(res, QueryResult::Done { rows_affected: 2 });
        let r = e.query("SELECT * FROM hot ORDER BY u").unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.cell(0, "u").unwrap(), Value::from("Ann"));
        // duplicate CTAS errors; OR REPLACE overwrites
        assert!(e
            .execute("CREATE TABLE hot AS SELECT * FROM rating")
            .is_err());
        e.execute("CREATE OR REPLACE TABLE hot AS SELECT u FROM rating")
            .unwrap();
        let names: Vec<_> = e
            .query("SELECT * FROM hot")
            .unwrap()
            .schema()
            .names()
            .map(str::to_string)
            .collect();
        assert_eq!(names, vec!["u"]);
    }

    #[test]
    fn drop_if_exists_is_idempotent() {
        let mut e = Engine::new();
        e.execute("DROP TABLE IF EXISTS ghost").unwrap();
        assert!(e.execute("DROP TABLE ghost").is_err());
    }

    #[test]
    fn session_engines_share_a_server_catalog() {
        let server = Server::new(rma_core::RmaContext::default());
        let mut a = Engine::session(&server);
        let mut b = Engine::session(&server);
        a.execute("CREATE TABLE t (x INT)").unwrap();
        a.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        // b re-pins at its next statement boundary and sees a's commit
        assert_eq!(b.query("SELECT * FROM t").unwrap().len(), 2);
        // concurrent session engines append through the optimistic commit
        // loop: every row lands despite conflicting writers
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let server = &server;
                scope.spawn(move || {
                    let mut e = Engine::session(server);
                    for i in 0..25 {
                        e.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
                    }
                });
            }
        });
        let n = b.query("SELECT COUNT(*) AS n FROM t").unwrap();
        assert_eq!(n.cell(0, "n").unwrap(), Value::Int(102));
        // per-session stats: a's matrix ops are not attributed to b
        a.execute("CREATE TABLE m (k VARCHAR, v1 DOUBLE, v2 DOUBLE)")
            .unwrap();
        a.execute("INSERT INTO m VALUES ('a', 2.0, 0.0), ('b', 0.0, 2.0)")
            .unwrap();
        a.query("SELECT * FROM INV(m BY k)").unwrap();
        assert!(a.rma_context().stats().ops_run >= 1);
        assert_eq!(b.rma_context().stats().ops_run, 0);
    }

    #[test]
    fn explain_shows_pushdown() {
        let mut e = engine_with_rating();
        e.execute("CREATE TABLE f (t VARCHAR, d VARCHAR)").unwrap();
        let plan = e
            .explain("SELECT * FROM rating JOIN f ON u = t WHERE d = 'Lee'")
            .unwrap();
        let join = plan.find("JoinOn").unwrap();
        let filt = plan.find("Select").unwrap();
        assert!(filt > join, "expected pushdown:\n{plan}");
        // and without the optimizer the filter stays on top
        let plan = explain_unoptimized(&e, "SELECT * FROM rating JOIN f ON u = t WHERE d = 'Lee'");
        assert!(plan.starts_with("Select"));
    }

    #[test]
    fn execute_script_returns_last() {
        let mut e = Engine::new();
        let r = e
            .execute_script(
                "CREATE TABLE t (a INT); INSERT INTO t VALUES (1),(2); SELECT * FROM t;",
            )
            .unwrap()
            .relation()
            .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn contention_maps_to_the_typed_write_contention_error() {
        let e: SqlError = ServeError::Contention {
            table: "t".to_string(),
            retries: 16,
        }
        .into();
        assert!(
            matches!(e, SqlError::Rma(RmaError::WriteContention { retries: 16 })),
            "got {e:?}"
        );
    }

    #[test]
    fn insert_type_mismatch_rejected() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (a INT)").unwrap();
        assert!(e.execute("INSERT INTO t VALUES ('x')").is_err());
    }

    #[test]
    fn rma_error_surfaces() {
        let mut e = engine_with_rating();
        // duplicate order values: Balto is not a key of (Balto-only proj)?
        e.execute("CREATE TABLE dup (k INT, x DOUBLE)").unwrap();
        e.execute("INSERT INTO dup VALUES (1, 1.0), (1, 2.0)")
            .unwrap();
        assert!(matches!(
            e.query("SELECT * FROM QQR(dup BY k)"),
            Err(SqlError::Rma(_))
        ));
    }

    #[test]
    fn explain_statement_returns_plan_relation() {
        let mut e = engine_with_rating();
        let r = e.query("EXPLAIN SELECT * FROM INV(rating BY u)").unwrap();
        let names: Vec<_> = r.schema().names().collect();
        assert_eq!(names, vec!["plan"]);
        let text: Vec<String> = (0..r.len())
            .map(|i| r.cell(i, "plan").unwrap().to_string())
            .collect();
        let joined = text.join("\n");
        assert!(joined.contains("Rma INV"), "unexpected plan:\n{joined}");
        assert!(joined.contains("Scan rating"), "unexpected plan:\n{joined}");
        // EXPLAIN of a non-SELECT is a parse error
        assert!(e.execute("EXPLAIN DROP TABLE rating").is_err());
    }

    #[test]
    fn explain_analyze_reports_actuals_on_a_three_way_join() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE a (k INT, x INT)").unwrap();
        e.execute("CREATE TABLE b (k2 INT, y INT)").unwrap();
        e.execute("CREATE TABLE c (k3 INT, z INT)").unwrap();
        for t in ["a", "b", "c"] {
            let rows: Vec<String> = (0..200).map(|i| format!("({i}, {})", i % 9)).collect();
            e.execute(&format!("INSERT INTO {t} VALUES {}", rows.join(", ")))
                .unwrap();
        }
        let text = e
            .explain_analyze("SELECT * FROM a JOIN b ON k = k2 JOIN c ON k2 = k3 WHERE x < 5")
            .unwrap();
        // every node line carries actuals: rows, wall time, morsels, q-error
        for line in text.lines() {
            assert!(line.contains("actual="), "missing actuals: {line}");
            assert!(line.contains("time="), "missing time: {line}");
            assert!(line.contains("q_err="), "missing q-error: {line}");
        }
        assert_eq!(
            text.matches("JoinOn").count(),
            2,
            "expected a 3-way join:\n{text}"
        );
        // the join keys match row-for-row, so each join outputs 200 rows
        // pre-filter; the root reports the filtered count
        assert!(text.contains("actual="), "no actuals:\n{text}");

        // and the SQL statement form returns the same text as a relation
        let r = e
            .query("EXPLAIN ANALYZE SELECT * FROM a JOIN b ON k = k2 JOIN c ON k2 = k3")
            .unwrap();
        assert_eq!(r.schema().names().collect::<Vec<_>>(), vec!["plan"]);
        let joined: Vec<String> = (0..r.len())
            .map(|i| r.cell(i, "plan").unwrap().to_string())
            .collect();
        assert!(joined.iter().all(|l| l.contains("actual=")), "{joined:?}");
        // EXPLAIN ANALYZE of a non-SELECT is a parse error
        assert!(e.execute("EXPLAIN ANALYZE DROP TABLE a").is_err());
    }

    #[test]
    fn session_engines_report_metrics() {
        let server = Server::new(rma_core::RmaContext::default());
        let mut a = Engine::session(&server);
        let mut b = Engine::session(&server);
        // a private engine is a session too, with no seat limit
        assert_eq!(Engine::new().session_handle().ticket().seats(), 0);
        a.execute("CREATE TABLE t (x INT)").unwrap();
        a.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        a.query("SELECT * FROM t").unwrap();
        a.query("SELECT * FROM t WHERE x > 1").unwrap();
        b.query("SELECT * FROM t").unwrap();
        let snap = server.metrics_snapshot();
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.rows, 3 + 2 + 3);
        assert_eq!(snap.sessions.len(), 2);
        assert_eq!(snap.sessions[0].queries, 2);
        assert_eq!(snap.sessions[0].id, a.session_handle().counters().id());
        assert_eq!(snap.sessions[1].rows, 3);
        let json = snap.to_json();
        assert!(json.contains("\"queries\":3"), "{json}");
        // a CREATE TABLE AS is one governed query, and its rows count
        a.execute("CREATE TABLE u AS SELECT * FROM t WHERE x > 1")
            .unwrap();
        let snap = server.metrics_snapshot();
        assert_eq!((snap.queries, snap.rows), (4, 3 + 2 + 3 + 2));
    }

    #[test]
    fn sql_consecutive_rma_ops_share_one_sort() {
        let mut e = engine_with_rating();
        // snapshot: the outer INV's argument is flagged as pre-sorted
        let plan = e
            .explain("SELECT * FROM INV(INV(rating BY u) BY u)")
            .unwrap();
        assert_eq!(
            plan.matches("(sorted: skip sort)").count(),
            1,
            "redundant sort not eliminated:\n{plan}"
        );
        // runtime: exactly one sort is performed for the whole query
        e.rma_context().reset_stats();
        let out = e.query("SELECT * FROM INV(INV(rating BY u) BY u)").unwrap();
        assert_eq!(e.rma_context().stats().sorts, 1);
        // the double inversion returns the original matrix
        let orig = e.query("SELECT * FROM rating").unwrap();
        let sorted = out.sorted_by(&["u"]).unwrap();
        let orig_sorted = orig.sorted_by(&["u"]).unwrap();
        for i in 0..3 {
            for c in ["Balto", "Heat", "Net"] {
                let rma_storage::Value::Float(a) = sorted.cell(i, c).unwrap() else {
                    panic!()
                };
                let rma_storage::Value::Float(b) = orig_sorted.cell(i, c).unwrap() else {
                    panic!()
                };
                assert!((a - b).abs() < 1e-9, "{c}[{i}]: {a} vs {b}");
            }
        }
    }

    #[test]
    fn parallel_engine_matches_serial() {
        // the same script executed at 1 and 4 worker threads produces
        // identical relations (scan→filter pipeline, join, aggregation)
        let build = |threads: usize| {
            let mut e = Engine::with_threads(threads);
            e.execute("CREATE TABLE t (k INT, g INT, x DOUBLE)")
                .unwrap();
            let rows: Vec<String> = (0..500)
                .map(|i| format!("({}, {}, {}.0)", i, i % 7, (i * 3) % 11))
                .collect();
            e.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
                .unwrap();
            e
        };
        let queries = [
            "SELECT k, x FROM t WHERE x > 4 AND k < 400",
            "SELECT g, COUNT(*) AS n, SUM(x) AS s FROM t WHERE k > 10 GROUP BY g",
            "SELECT * FROM t a JOIN (SELECT g AS g2, AVG(x) AS m FROM t GROUP BY g) b ON g = g2 WHERE k < 50",
        ];
        let mut serial = build(1);
        let mut parallel = build(4);
        for q in queries {
            assert_eq!(serial.query(q).unwrap(), parallel.query(q).unwrap(), "{q}");
        }
    }

    #[test]
    fn explain_shows_topk_replacing_sort_limit() {
        let mut e = engine_with_rating();
        let plan = e
            .explain("SELECT u, Heat FROM rating ORDER BY Heat DESC LIMIT 2")
            .unwrap();
        assert!(plan.contains("TopK"), "expected TopK:\n{plan}");
        assert!(!plan.contains("OrderBy"), "sort not fused:\n{plan}");
        assert!(!plan.contains("Limit"), "limit not fused:\n{plan}");
        // without the optimizer the Sort+Limit pair survives
        let plan = explain_unoptimized(&e, "SELECT u, Heat FROM rating ORDER BY Heat DESC LIMIT 2");
        assert!(plan.contains("OrderBy") && plan.contains("Limit"));
        // and the fused plan returns the right rows
        let r = e
            .query("SELECT u, Heat FROM rating ORDER BY Heat DESC LIMIT 2")
            .unwrap();
        assert_eq!(r.cell(0, "u").unwrap(), Value::from("Jan"));
        assert_eq!(r.cell(1, "u").unwrap(), Value::from("Ann"));
    }

    #[test]
    fn paper_folded_query_runs() {
        // the §7.2 SQL translation, end to end on the Figure 5/7 data
        let mut e = Engine::new();
        e.execute("CREATE TABLE w1 (U VARCHAR, B DOUBLE, H DOUBLE, N DOUBLE)")
            .unwrap();
        e.execute("INSERT INTO w1 VALUES ('Ann', 2.0, 1.5, 0.5), ('Jan', 1.0, 4.0, 1.0)")
            .unwrap();
        e.execute("CREATE TABLE w3 (U VARCHAR, B DOUBLE, H DOUBLE, N DOUBLE)")
            .unwrap();
        e.execute("INSERT INTO w3 VALUES ('Ann', -0.5, -1.25, -0.25), ('Jan', 0.5, 1.25, 0.25)")
            .unwrap();
        // w4 = TRA(w3 BY U) as a subexpression of the folded query
        let r = e
            .query(
                "SELECT C, B/(M-1) AS B, H/(M-1) AS H, N/(M-1) AS N \
                 FROM MMU(TRA(w3 BY U) BY C, w3 BY U) AS w5 \
                 CROSS JOIN ( SELECT COUNT(*) AS M FROM w1 ) AS t",
            )
            .unwrap();
        assert_eq!(r.len(), 3);
        let names: Vec<_> = r.schema().names().collect();
        assert_eq!(names, vec!["C", "B", "H", "N"]);
        // covariance of B with B over the two centred rows: (0.25+0.25)/1
        let sorted = r.sorted_by(&["C"]).unwrap();
        assert_eq!(sorted.cell(0, "C").unwrap(), Value::from("B"));
        assert_eq!(sorted.cell(0, "B").unwrap(), Value::Float(0.5));
    }
}
