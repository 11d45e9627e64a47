//! Competitor system simulators (§8's R, AIDA, MADlib, SciDB).
//!
//! We cannot ship the real competitor systems, so each simulator implements
//! the *architectural mechanism* that drives its performance in the paper:
//!
//! * [`RelFlavor::Single`] (R / MADlib): single-threaded relational
//!   operators without an optimizer; R's `merge` additionally stringifies
//!   join keys (character coercion of factor keys).
//! * [`RelFlavor::RowAtATime`] (MADlib): tuple-at-a-time evaluation over
//!   boxed values — UDF-style execution in PostgreSQL.
//! * [`MatFlavor`]: where the matrix maths run and what data transformation
//!   is charged on entry/exit — R copies data.table columns into a
//!   row-major `matrix` and back; AIDA passes numeric column pointers for
//!   free but serialises non-numeric columns crossing the DB↔Python
//!   boundary; MADlib accumulates through boxed row iterators.
//! * [`scidb`]: arrays as coordinate–value pairs; element-wise addition
//!   becomes an *array join* on coordinates (Table 7's mechanism).
//!
//! The simulators reuse the same numeric kernels as RMA+ where the paper's
//! competitor also used tuned kernels, on the same worker pool as the RMA+
//! contexts they are compared with, so measured gaps come from the
//! architecture (copies, joins, row-at-a-time overhead), not from a
//! strawman implementation or a different thread count.
#![allow(clippy::needless_range_loop)] // index loops mirror the simulated engines

use rma_core::RmaContext;
use rma_linalg::dense::{self, Matrix};
use rma_relation::{AggSpec, Expr, Relation, WorkerPool};
use rma_storage::Value;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Relational-operator flavor of a simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelFlavor {
    /// Our engine (used by RMA+ and AIDA, which both run relational ops in
    /// MonetDB).
    Native,
    /// R: single-threaded merge join over stringified keys.
    Single,
    /// MADlib: row-at-a-time over boxed values.
    RowAtATime,
}

/// Matrix-kernel flavor and its transfer cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatFlavor {
    /// R: copy columns into a row-major `matrix`, compute, copy back.
    RMatrix,
    /// AIDA: numeric columns pass by pointer (no copy); the result is
    /// copied back into the database format.
    AidaNumpy,
    /// MADlib: boxed row-at-a-time accumulation.
    MadlibRows,
}

/// Timed relational + matrix phases of a simulated workload step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTimes {
    pub relational: Duration,
    pub transform: Duration,
    pub matrix: Duration,
}

impl SimTimes {
    pub fn total(&self) -> Duration {
        self.relational + self.transform + self.matrix
    }
}

/// Simulated relational engine.
pub struct RelEngine {
    pub flavor: RelFlavor,
}

impl RelEngine {
    pub fn new(flavor: RelFlavor) -> Self {
        RelEngine { flavor }
    }

    /// Equi-join dispatching on the flavor.
    pub fn join(&self, a: &Relation, b: &Relation, on: &[(&str, &str)]) -> Relation {
        match self.flavor {
            RelFlavor::Native => {
                rma_relation::join_on(a, b, on, &WorkerPool::new(1)).expect("join")
            }
            RelFlavor::Single => stringified_merge_join(a, b, on),
            RelFlavor::RowAtATime => row_at_a_time_join(a, b, on),
        }
    }

    /// Grouped aggregation; single-threaded flavors reuse the native
    /// operator on a one-worker pool, row-at-a-time pays boxing.
    pub fn aggregate(&self, r: &Relation, gb: &[&str], aggs: &[AggSpec]) -> Relation {
        match self.flavor {
            RelFlavor::RowAtATime => row_at_a_time_aggregate(r, gb, aggs),
            _ => rma_relation::aggregate(r, gb, aggs, &WorkerPool::new(1)).expect("aggregate"),
        }
    }

    pub fn select(&self, r: &Relation, pred: &Expr) -> Relation {
        match self.flavor {
            RelFlavor::RowAtATime => {
                // evaluate the predicate per boxed row
                let keep: Vec<bool> = (0..r.len())
                    .map(|i| {
                        let row = r.take(&[i]);
                        pred.eval_filter(&row).expect("predicate")[0]
                    })
                    .collect();
                r.filter(&keep)
            }
            _ => rma_relation::select(r, pred, &WorkerPool::new(1)).expect("select"),
        }
    }
}

/// R-style merge join: coerce keys to character vectors, sort, merge.
fn stringified_merge_join(a: &Relation, b: &Relation, on: &[(&str, &str)]) -> Relation {
    let key_of = |r: &Relation, cols: &[&str], i: usize| -> String {
        let mut s = String::new();
        for c in cols {
            s.push_str(&r.column(c).expect("key column").get(i).to_string());
            s.push('\u{1}');
        }
        s
    };
    let acols: Vec<&str> = on.iter().map(|(l, _)| *l).collect();
    let bcols: Vec<&str> = on.iter().map(|(_, r)| *r).collect();
    let mut akeys: Vec<(String, usize)> = (0..a.len()).map(|i| (key_of(a, &acols, i), i)).collect();
    let mut bkeys: Vec<(String, usize)> = (0..b.len()).map(|i| (key_of(b, &bcols, i), i)).collect();
    akeys.sort();
    bkeys.sort();
    let (mut ia, mut ib) = (0usize, 0usize);
    let mut left_idx = Vec::new();
    let mut right_idx = Vec::new();
    while ia < akeys.len() && ib < bkeys.len() {
        match akeys[ia].0.cmp(&bkeys[ib].0) {
            std::cmp::Ordering::Less => ia += 1,
            std::cmp::Ordering::Greater => ib += 1,
            std::cmp::Ordering::Equal => {
                // emit the full equal-run product
                let key = akeys[ia].0.clone();
                let a_start = ia;
                while ia < akeys.len() && akeys[ia].0 == key {
                    ia += 1;
                }
                let b_start = ib;
                while ib < bkeys.len() && bkeys[ib].0 == key {
                    ib += 1;
                }
                for x in a_start..ia {
                    for y in b_start..ib {
                        left_idx.push(akeys[x].1);
                        right_idx.push(bkeys[y].1);
                    }
                }
            }
        }
    }
    assemble(a, b, &left_idx, &right_idx)
}

/// MADlib-style nested join over boxed rows with a per-row hash probe.
fn row_at_a_time_join(a: &Relation, b: &Relation, on: &[(&str, &str)]) -> Relation {
    let bcols: Vec<&str> = on.iter().map(|(_, r)| *r).collect();
    let mut table: HashMap<String, Vec<usize>> = HashMap::new();
    for j in 0..b.len() {
        let mut key = String::new();
        for c in &bcols {
            key.push_str(&b.column(c).expect("col").get(j).to_string());
            key.push('\u{1}');
        }
        table.entry(key).or_default().push(j);
    }
    let acols: Vec<&str> = on.iter().map(|(l, _)| *l).collect();
    let mut left_idx = Vec::new();
    let mut right_idx = Vec::new();
    for i in 0..a.len() {
        // boxed row materialisation per probe (the UDF overhead)
        let _row: Vec<Value> = a.row(i);
        let mut key = String::new();
        for c in &acols {
            key.push_str(&a.column(c).expect("col").get(i).to_string());
            key.push('\u{1}');
        }
        if let Some(matches) = table.get(&key) {
            for &j in matches {
                left_idx.push(i);
                right_idx.push(j);
            }
        }
    }
    assemble(a, b, &left_idx, &right_idx)
}

fn assemble(a: &Relation, b: &Relation, li: &[usize], ri: &[usize]) -> Relation {
    let left = a.take(li);
    let right = b.take(ri);
    let schema = left
        .schema()
        .concat(right.schema())
        .expect("disjoint join schemas");
    let mut cols = left.columns().into_owned();
    cols.extend(right.columns().iter().cloned());
    Relation::new(schema, cols).expect("rect")
}

fn row_at_a_time_aggregate(r: &Relation, gb: &[&str], aggs: &[AggSpec]) -> Relation {
    // accumulate through boxed rows, then delegate the final assembly
    let mut groups: HashMap<String, Vec<usize>> = HashMap::new();
    for i in 0..r.len() {
        let mut key = String::new();
        for c in gb {
            key.push_str(&r.column(c).expect("col").get(i).to_string());
            key.push('\u{1}');
        }
        groups.entry(key).or_default().push(i);
    }
    // per-group boxed evaluation
    let pool = WorkerPool::new(1);
    let mut reps: Vec<usize> = Vec::with_capacity(groups.len());
    let mut parts: Vec<Relation> = Vec::new();
    let mut order: Vec<&Vec<usize>> = groups.values().collect();
    order.sort_by_key(|v| v[0]);
    for rows in order {
        reps.push(rows[0]);
        let sub = r.take(rows);
        parts.push(rma_relation::aggregate(&sub, &[], aggs, &pool).expect("agg"));
    }
    // group-by columns from representatives, one aggregate row per group
    let mut agg_rel = parts
        .first()
        .cloned()
        .unwrap_or_else(|| rma_relation::aggregate(&r.take(&[]), &[], aggs, &pool).expect("agg"));
    for p in parts.iter().skip(1) {
        agg_rel = rma_relation::union_all(&agg_rel, p).expect("union");
    }
    if gb.is_empty() {
        return agg_rel;
    }
    let key_rel = rma_relation::project(&r.take(&reps), gb).expect("project");
    let schema = key_rel.schema().concat(agg_rel.schema()).expect("schemas");
    let mut cols = key_rel.columns().into_owned();
    cols.extend(agg_rel.columns().iter().cloned());
    Relation::new(schema, cols).expect("rect")
}

/// Simulated matrix engine with explicit transfer phases.
pub struct MatEngine {
    pub flavor: MatFlavor,
    /// A default context: its pool is the one the RMA+ systems' contexts
    /// run their dense kernels on.
    ctx: RmaContext,
}

impl MatEngine {
    pub fn new(flavor: MatFlavor) -> Self {
        MatEngine {
            flavor,
            ctx: RmaContext::default(),
        }
    }

    /// Transfer numeric columns of a relation into the foreign matrix
    /// format, charging the flavor's transformation cost into `times`.
    pub fn enter(&self, r: &Relation, cols: &[&str], times: &mut SimTimes) -> Matrix {
        let t = Instant::now();
        let m = match self.flavor {
            MatFlavor::RMatrix => {
                // data.table → matrix: row-major copy (strided writes)
                let n = r.len();
                let k = cols.len();
                let srcs: Vec<Vec<f64>> = cols
                    .iter()
                    .map(|c| r.column(c).expect("col").to_f64_vec().expect("numeric"))
                    .collect();
                let mut out = Matrix::zeros(n, k);
                for i in 0..n {
                    for (j, s) in srcs.iter().enumerate() {
                        out.set(i, j, s[i]);
                    }
                }
                out
            }
            MatFlavor::AidaNumpy => {
                // numeric columns pass by pointer: a straight columnar copy
                let srcs: Vec<Vec<f64>> = cols
                    .iter()
                    .map(|c| r.column(c).expect("col").to_f64_vec().expect("numeric"))
                    .collect();
                Matrix::from_columns(&srcs).expect("rect")
            }
            MatFlavor::MadlibRows => {
                // boxed row iteration into the matrix
                let n = r.len();
                let k = cols.len();
                let mut out = Matrix::zeros(n, k);
                for i in 0..n {
                    for (j, c) in cols.iter().enumerate() {
                        let v = r.column(c).expect("col").get(i);
                        out.set(i, j, v.as_f64().expect("numeric"));
                    }
                }
                out
            }
        };
        times.transform += t.elapsed();
        m
    }

    /// Charge the cost of moving *non-numeric* columns across the boundary
    /// (AIDA's weakness on mixed data: dates/strings are serialised).
    pub fn transfer_non_numeric(&self, r: &Relation, times: &mut SimTimes) {
        if self.flavor != MatFlavor::AidaNumpy {
            return;
        }
        let t = Instant::now();
        let mut sink = 0usize;
        for (a, c) in r.schema().attributes().iter().zip(r.columns().iter()) {
            if !a.dtype().is_numeric() {
                // serialise + reparse every value
                for v in c.iter_values() {
                    let s = v.to_string();
                    sink += s.len();
                }
            }
        }
        std::hint::black_box(sink);
        times.transform += t.elapsed();
    }

    /// Transfer a matrix result back into columns.
    pub fn exit(&self, m: Matrix, times: &mut SimTimes) -> Vec<Vec<f64>> {
        let t = Instant::now();
        let out = match self.flavor {
            MatFlavor::RMatrix | MatFlavor::MadlibRows => {
                // row-major sources: strided reads per column
                let (n, k) = (m.rows(), m.cols());
                let mut cols = vec![Vec::with_capacity(n); k];
                for i in 0..n {
                    for (j, col) in cols.iter_mut().enumerate() {
                        col.push(m.get(i, j));
                    }
                }
                cols
            }
            MatFlavor::AidaNumpy => m.into_columns(),
        };
        times.copy_back(t.elapsed());
        out
    }

    /// Timed kernel calls. MADlib runs single-threaded boxed loops; R and
    /// AIDA use tuned kernels (both call optimised BLAS in the paper), on
    /// the RMA+ contexts' pool.
    pub fn cpd(&self, a: &Matrix, b: &Matrix, times: &mut SimTimes) -> Matrix {
        let t = Instant::now();
        let out = match self.flavor {
            MatFlavor::MadlibRows => naive_crossprod(a, b),
            _ => self.ctx.on_pool(|| dense::crossprod(a, b)).expect("cpd"),
        };
        times.matrix += t.elapsed();
        out
    }

    pub fn mmu(&self, a: &Matrix, b: &Matrix, times: &mut SimTimes) -> Matrix {
        let t = Instant::now();
        let out = match self.flavor {
            MatFlavor::MadlibRows => naive_matmul(a, b),
            _ => self.ctx.on_pool(|| dense::matmul(a, b)).expect("mmu"),
        };
        times.matrix += t.elapsed();
        out
    }

    pub fn inv(&self, a: &Matrix, times: &mut SimTimes) -> Matrix {
        let t = Instant::now();
        let out = self.ctx.on_pool(|| dense::inverse(a)).expect("inv");
        times.matrix += t.elapsed();
        out
    }

    pub fn add(&self, a: &Matrix, b: &Matrix, times: &mut SimTimes) -> Matrix {
        let t = Instant::now();
        let out = a.zip_with(b, |x, y| x + y).expect("add");
        times.matrix += t.elapsed();
        out
    }
}

impl SimTimes {
    fn copy_back(&mut self, d: Duration) {
        self.transform += d;
    }
}

fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut s = 0.0;
            for l in 0..a.cols() {
                s += a.get(i, l) * b.get(l, j);
            }
            c.set(i, j, s);
        }
    }
    c
}

fn naive_crossprod(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.cols(), b.cols());
    for i in 0..a.cols() {
        for j in 0..b.cols() {
            let mut s = 0.0;
            for l in 0..a.rows() {
                s += a.get(l, i) * b.get(l, j);
            }
            c.set(i, j, s);
        }
    }
    c
}

/// SciDB simulation: matrices as coordinate–value arrays (Table 7).
pub mod scidb {
    use super::*;

    /// A sparse-coordinate array (SciDB chunks elided: one flat array).
    pub struct CoordArray {
        pub cells: Vec<(u32, u32, f64)>,
        pub rows: usize,
        pub cols: usize,
    }

    /// Load a relation's numeric columns into a coordinate array.
    pub fn from_relation(r: &Relation, cols: &[&str]) -> CoordArray {
        let mut cells = Vec::with_capacity(r.len() * cols.len());
        for (j, c) in cols.iter().enumerate() {
            let v = r.column(c).expect("col").to_f64_vec().expect("numeric");
            for (i, &x) in v.iter().enumerate() {
                cells.push((i as u32, j as u32, x));
            }
        }
        CoordArray {
            cells,
            rows: r.len(),
            cols: cols.len(),
        }
    }

    /// Element-wise addition via an array join on coordinates — SciDB must
    /// align the two arrays cell by cell (the paper's explanation of the
    /// >10× gap).
    pub fn add(a: &CoordArray, b: &CoordArray) -> CoordArray {
        let mut table: HashMap<(u32, u32), f64> = HashMap::with_capacity(b.cells.len());
        for &(i, j, v) in &b.cells {
            table.insert((i, j), v);
        }
        let cells: Vec<(u32, u32, f64)> = a
            .cells
            .iter()
            .map(|&(i, j, v)| (i, j, v + table.get(&(i, j)).copied().unwrap_or(0.0)))
            .collect();
        CoordArray {
            cells,
            rows: a.rows,
            cols: a.cols,
        }
    }

    /// A selection over one attribute of the array: count cells in column
    /// `col` with value above a threshold (matches the relational
    /// `σ_{a_col > t}` row count).
    pub fn select_gt(a: &CoordArray, col: u32, threshold: f64) -> usize {
        a.cells
            .iter()
            .filter(|&&(_, j, v)| j == col && v > threshold)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma_relation::RelationBuilder;

    fn ab() -> (Relation, Relation) {
        let a = RelationBuilder::new()
            .column("k", vec![1i64, 2, 3])
            .column("x", vec![1.0f64, 2.0, 3.0])
            .build()
            .unwrap();
        let b = RelationBuilder::new()
            .column("k2", vec![2i64, 3, 4])
            .column("y", vec![20.0f64, 30.0, 40.0])
            .build()
            .unwrap();
        (a, b)
    }

    #[test]
    fn all_join_flavors_agree() {
        let (a, b) = ab();
        let native = RelEngine::new(RelFlavor::Native).join(&a, &b, &[("k", "k2")]);
        let single = RelEngine::new(RelFlavor::Single).join(&a, &b, &[("k", "k2")]);
        let rowy = RelEngine::new(RelFlavor::RowAtATime).join(&a, &b, &[("k", "k2")]);
        assert_eq!(native.len(), 2);
        assert!(native.bag_equals(&single));
        assert!(native.bag_equals(&rowy));
    }

    #[test]
    fn aggregate_flavors_agree() {
        let r = RelationBuilder::new()
            .column("g", vec!["a", "b", "a"])
            .column("x", vec![1.0f64, 2.0, 3.0])
            .build()
            .unwrap();
        let aggs = [AggSpec::avg("x", "m"), AggSpec::count_star("n")];
        let native = RelEngine::new(RelFlavor::Native).aggregate(&r, &["g"], &aggs);
        let rowy = RelEngine::new(RelFlavor::RowAtATime).aggregate(&r, &["g"], &aggs);
        assert!(native.bag_equals(&rowy));
    }

    #[test]
    fn select_flavors_agree() {
        let (a, _) = ab();
        let pred = Expr::col("x").gt(Expr::lit(1.5));
        let native = RelEngine::new(RelFlavor::Native).select(&a, &pred);
        let rowy = RelEngine::new(RelFlavor::RowAtATime).select(&a, &pred);
        assert!(native.bag_equals(&rowy));
    }

    #[test]
    fn mat_engines_agree_and_charge_transform() {
        let (a, _) = ab();
        for flavor in [
            MatFlavor::RMatrix,
            MatFlavor::AidaNumpy,
            MatFlavor::MadlibRows,
        ] {
            let eng = MatEngine::new(flavor);
            let mut t = SimTimes::default();
            let m = eng.enter(&a, &["x"], &mut t);
            assert_eq!(m.rows(), 3);
            let c = eng.cpd(&m, &m, &mut t);
            assert!((c.get(0, 0) - 14.0).abs() < 1e-12);
            let back = eng.exit(c, &mut t);
            assert!((back[0][0] - 14.0).abs() < 1e-12);
            assert!(t.transform.as_nanos() > 0);
            assert!(t.matrix.as_nanos() > 0);
        }
    }

    #[test]
    fn tuned_kernels_run_on_the_rma_contexts_pool() {
        // 300 × 300 takes the threaded product on a multi-worker pool
        let cols: Vec<Vec<f64>> = (0..300)
            .map(|j| (0..300).map(|i| ((i + j) % 7) as f64).collect())
            .collect();
        let m = Matrix::from_columns(&cols).unwrap();
        let rma = RmaContext::default();
        for flavor in [MatFlavor::RMatrix, MatFlavor::AidaNumpy] {
            let before = rma.pool().jobs_run();
            MatEngine::new(flavor).mmu(&m, &m, &mut SimTimes::default());
            if rma.pool().threads() > 1 {
                assert!(rma.pool().jobs_run() > before, "{flavor:?}");
            }
        }
    }

    #[test]
    fn aida_serialises_non_numeric_only() {
        let r = RelationBuilder::new()
            .column("d", vec!["2014-01-01", "2015-01-01"])
            .column("x", vec![1.0f64, 2.0])
            .build()
            .unwrap();
        let eng = MatEngine::new(MatFlavor::AidaNumpy);
        let mut t = SimTimes::default();
        eng.transfer_non_numeric(&r, &mut t);
        assert!(t.transform.as_nanos() > 0);
        let mut t2 = SimTimes::default();
        MatEngine::new(MatFlavor::RMatrix).transfer_non_numeric(&r, &mut t2);
        assert_eq!(t2.transform, Duration::default());
    }

    #[test]
    fn scidb_add_matches_columnar() {
        let (a, b) = ab();
        let ca = scidb::from_relation(&a, &["x"]);
        let cb = scidb::from_relation(&b, &["y"]);
        let sum = scidb::add(&ca, &cb);
        assert_eq!(sum.cells.len(), 3);
        assert_eq!(sum.cells[0].2, 21.0);
        assert_eq!(scidb::select_gt(&sum, 0, 30.0), 2);
    }

    #[test]
    fn naive_kernels_match_dense() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        assert!(naive_crossprod(&m, &m).approx_eq(&dense::crossprod(&m, &m).unwrap(), 1e-12));
        let sq = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!(naive_matmul(&sq, &sq).approx_eq(&dense::matmul(&sq, &sq).unwrap(), 1e-12));
    }
}
