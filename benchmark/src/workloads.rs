//! The four workloads: inputs from `rma_data`, the SQL an analyst would
//! write, and a reference answer computed here in plain `f64` — never by
//! the engine — that every iteration's result is held against.
//!
//! The comparison is up to the outcomes SQL admits: a result is a *list* on
//! its `ORDER BY` columns and a *bag* otherwise — the rows of an RMA
//! result are identified by their order-schema values, not their position.

use rma_relation::{rename, Relation};
use rma_storage::{DataType, Value};

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TripsOls,
    QqrTall,
    TripcountAdd,
    SpillSortJoin,
}

/// A workload's name and the reason it is in the benchmark.
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::TripsOls,
        name: "trips_ols",
        why: "Fig. 15 OLS: group-by, 3 joins and a CTAS install dominate, kernels under 1%; the write beside the reads",
    },
    Workload {
        kind: Kind::QqrTall,
        name: "qqr_tall",
        why: "Table 6 QQR 50000x40: super-linear op on the dense path, the QR kernel dominates; bypasses the relational layer",
    },
    Workload {
        kind: Kind::TripcountAdd,
        name: "tripcount_add",
        why: "Fig. 18 ADD 2x400000x10: linear op on the no-copy BAT path, order-schema sorting dominates; bypasses dense kernels",
    },
    Workload {
        kind: Kind::SpillSortJoin,
        name: "spill_sort_join",
        why: "join + ORDER BY under a 256 KiB budget: grace hash join and external sort, the only workload with file I/O",
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Trip pairs seen fewer times than this are filtered out (Fig. 15's
/// "trips performed at least 50 times").
const MIN_TRIP_COUNT: usize = 50;
/// `tripcount_add` keeps rows whose summed first destination exceeds this;
/// both addends are uniform in `[0, 10000)`, so one row in eight passes.
const ADD_CUTOFF: f64 = 15000.0;
/// The memory budget that forces `spill_sort_join` onto the external path.
const SPILL_BUDGET: usize = 262_144;

/// Everything an epoch needs before the clock starts.
pub struct Inputs {
    pub kind: Kind,
    /// Tables to ingest, by catalog name.
    pub tables: Vec<(&'static str, Relation)>,
    /// The statements of one iteration, in order.
    pub statements: Vec<String>,
    /// `RmaOptions::mem_budget` for the server (`0` = unlimited).
    pub mem_budget: usize,
    /// Input rows one iteration reads: the same every iteration, so
    /// `rows_per_s` is work per second at a stated size.
    pub rows: u64,
    /// Human-readable sizes for the run record.
    pub sizes: String,
    min_count: usize,
}

/// Generate a workload's inputs from the seed. `scale` divides the row
/// counts (1 = the benchmark's size; the smoke test runs at 20).
pub fn generate(kind: Kind, seed: u64, scale: usize) -> Inputs {
    let scale = scale.max(1);
    let mut min_count = 0;
    let (tables, statements, mem_budget, sizes) = match kind {
        Kind::TripsOls => {
            let (trips, stations) = (400_000 / scale, 100);
            min_count = (MIN_TRIP_COUNT / scale).max(2);
            let prep = format!(
                "CREATE OR REPLACE TABLE tp AS \
                 SELECT id, 1.0 AS x0, \
                 SQRT((slat - elat) * 111.0 * ((slat - elat) * 111.0) \
                 + (slon - elon) * 78.0 * ((slon - elon) * 78.0)) AS x1, duration \
                 FROM trips \
                 JOIN (SELECT fs, fe FROM (SELECT start_station AS fs, end_station AS fe, \
                 COUNT(*) AS n FROM trips GROUP BY start_station, end_station) g \
                 WHERE n >= {min_count}) f ON start_station = fs AND end_station = fe \
                 JOIN (SELECT code AS sc, lat AS slat, lon AS slon FROM stations) s \
                 ON start_station = sc \
                 JOIN (SELECT code AS ec, lat AS elat, lon AS elon FROM stations) e \
                 ON end_station = ec"
            );
            let ols = "SELECT * FROM MMU(\
                 INV(CPD((SELECT id, x0, x1 FROM tp) a BY id, \
                 (SELECT id, x0, x1 FROM tp) b BY id) BY C) BY C, \
                 CPD((SELECT id, x0, x1 FROM tp) a2 BY id, \
                 (SELECT id, duration FROM tp) v BY id) BY C)"
                .to_string();
            (
                vec![
                    ("trips", rma_data::trips(trips, stations, seed)),
                    // `trips` draws its coordinates from this station set
                    ("stations", rma_data::stations(stations, seed ^ 0x5a5a)),
                ],
                vec![prep, ols],
                0,
                format!("trips={trips} stations={stations} min_count={min_count}"),
            )
        }
        Kind::QqrTall => {
            let (rows, cols) = (50_000 / scale, 40);
            (
                vec![("q", rma_data::uniform_relation(rows, 1, cols, seed))],
                vec!["SELECT * FROM QQR(q BY k0)".to_string()],
                0,
                format!("rows={rows} cols={cols}"),
            )
        }
        Kind::TripcountAdd => {
            let (rows, cols) = (400_000 / scale, 10);
            let y2 = rma_data::uniform_relation(rows, 1, cols, seed ^ 0xdead);
            // the order schemas of ADD's arguments must not overlap
            let y2 = rename(&y2, &[("k0", "k")]).expect("k0 exists");
            (
                vec![
                    ("y1", rma_data::uniform_relation(rows, 1, cols, seed)),
                    ("y2", y2),
                ],
                vec![format!(
                    "SELECT * FROM ADD(y1 BY k0, y2 BY k) WHERE a0 > {ADD_CUTOFF:.1}"
                )],
                0,
                format!("rows=2x{rows} cols={cols}"),
            )
        }
        Kind::SpillSortJoin => {
            let rows = 250_000 / scale;
            (
                vec![("trips", rma_data::trips(rows, 100, seed))],
                vec!["SELECT id, duration, d2 FROM trips \
                      JOIN (SELECT id AS id2, duration AS d2 FROM trips) t2 ON id = id2 \
                      WHERE member ORDER BY duration, id"
                    .to_string()],
                SPILL_BUDGET,
                format!("trips={rows} mem_budget={SPILL_BUDGET}"),
            )
        }
    };
    let rows = tables.iter().map(|(_, r)| r.len() as u64).sum();
    Inputs {
        kind,
        tables,
        statements,
        mem_budget,
        rows,
        sizes,
        min_count,
    }
}

impl Inputs {
    fn table(&self, name: &str) -> &Relation {
        &self
            .tables
            .iter()
            .find(|(n, _)| *n == name)
            .expect("workload table")
            .1
    }
}

fn floats(r: &Relation, col: &str) -> Vec<f64> {
    r.column(col)
        .and_then(|c| Ok(c.to_f64_vec()?))
        .unwrap_or_else(|e| panic!("numeric column `{col}`: {e}"))
}

fn bools(r: &Relation, col: &str) -> Vec<bool> {
    r.column(col)
        .expect("bool column")
        .iter_values()
        .map(|v| matches!(v, Value::Bool(true)))
        .collect()
}

/// The application columns `a0..` of a synthetic relation, re-indexed so
/// that row `k` holds the tuple whose key is `k` (keys are `0..rows`).
fn columns_by_key(r: &Relation, key: &str) -> Vec<Vec<f64>> {
    let keys = floats(r, key);
    r.schema()
        .names()
        .filter(|n| *n != key)
        .map(|n| {
            let vals = floats(r, n);
            let mut out = vec![0.0; vals.len()];
            for (k, v) in keys.iter().zip(vals) {
                out[*k as usize] = v;
            }
            out
        })
        .collect()
}

/// The expected answer of a workload, from its inputs alone.
pub enum Reference {
    /// Intercept and slope from the normal equations, and `tp`'s row count.
    Ols { beta: [f64; 2], kept: usize },
    /// `A` with its rows in key order, one vector per column.
    Qqr { a: Vec<Vec<f64>> },
    /// Both addends by key, and how many sums pass the cutoff.
    Add {
        y1: Vec<Vec<f64>>,
        y2: Vec<Vec<f64>>,
        expected_rows: usize,
    },
    /// The joined, filtered, sorted rows `(id, duration, d2)`.
    SortJoin { rows: Vec<[f64; 3]> },
}

pub fn reference(inputs: &Inputs) -> Reference {
    match inputs.kind {
        Kind::TripsOls => {
            let trips = inputs.table("trips");
            let stations = inputs.table("stations");
            let (lat, lon) = (floats(stations, "lat"), floats(stations, "lon"));
            let first_code = floats(stations, "code")[0];
            let n = lat.len();
            let index = |code: f64| (code - first_code) as usize;
            let (starts, ends) = (floats(trips, "start_station"), floats(trips, "end_station"));
            let duration = floats(trips, "duration");
            let mut count = vec![0usize; n * n];
            for (s, e) in starts.iter().zip(&ends) {
                count[index(*s) * n + index(*e)] += 1;
            }
            let (mut kept, mut sx, mut sxx, mut sy, mut sxy) = (0usize, 0.0, 0.0, 0.0, 0.0);
            for ((s, e), y) in starts.iter().zip(&ends).zip(&duration) {
                let (s, e) = (index(*s), index(*e));
                if count[s * n + e] < inputs.min_count {
                    continue;
                }
                let dy = (lat[s] - lat[e]) * 111.0;
                let dx = (lon[s] - lon[e]) * 78.0;
                let x = (dy * dy + dx * dx).sqrt();
                kept += 1;
                sx += x;
                sxx += x * x;
                sy += y;
                sxy += x * y;
            }
            let m = kept as f64;
            let slope = (m * sxy - sx * sy) / (m * sxx - sx * sx);
            Reference::Ols {
                beta: [(sy - slope * sx) / m, slope],
                kept,
            }
        }
        Kind::QqrTall => Reference::Qqr {
            a: columns_by_key(inputs.table("q"), "k0"),
        },
        Kind::TripcountAdd => {
            let y1 = columns_by_key(inputs.table("y1"), "k0");
            let y2 = columns_by_key(inputs.table("y2"), "k");
            let expected_rows = y1[0]
                .iter()
                .zip(&y2[0])
                .filter(|(a, b)| **a + **b > ADD_CUTOFF)
                .count();
            Reference::Add {
                y1,
                y2,
                expected_rows,
            }
        }
        Kind::SpillSortJoin => {
            let trips = inputs.table("trips");
            let (id, duration) = (floats(trips, "id"), floats(trips, "duration"));
            let member = bools(trips, "member");
            // naive sort-merge equi-join of the table with itself on id
            let mut left: Vec<usize> = (0..id.len()).collect();
            left.sort_by(|a, b| id[*a].total_cmp(&id[*b]));
            let right = left.clone();
            let mut rows = Vec::new();
            let (mut i, mut j) = (0, 0);
            while i < left.len() && j < right.len() {
                match id[left[i]].total_cmp(&id[right[j]]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let key = id[left[i]];
                        let j_end = (j..right.len())
                            .find(|&t| id[right[t]] != key)
                            .unwrap_or(right.len());
                        while i < left.len() && id[left[i]] == key {
                            if member[left[i]] {
                                for &r in &right[j..j_end] {
                                    rows.push([key, duration[left[i]], duration[r]]);
                                }
                            }
                            i += 1;
                        }
                        j = j_end;
                    }
                }
            }
            // ORDER BY duration, id — a stable sort
            rows.sort_by(|a, b| a[1].total_cmp(&b[1]).then(a[0].total_cmp(&b[0])));
            Reference::SortJoin { rows }
        }
    }
}

/// An iteration's result in plain vectors, so that checking it (and
/// corrupting it, for the smoke test) needs nothing from the engine.
pub struct Answer {
    pub rows: usize,
    /// Rows the iteration's `CREATE TABLE AS` installed, if it ran one.
    pub rows_affected: Option<usize>,
    /// The first string column (the `C` origin column of an RMA result).
    pub labels: Vec<String>,
    /// Every numeric column, by name.
    pub cols: Vec<(String, Vec<f64>)>,
}

impl Answer {
    pub fn extract(result: &Relation, rows_affected: Option<usize>) -> Answer {
        let mut labels = Vec::new();
        let mut cols = Vec::new();
        for attr in result.schema().attributes() {
            match attr.dtype() {
                DataType::Int | DataType::Float => {
                    cols.push((attr.name().to_string(), floats(result, attr.name())));
                }
                DataType::Str if labels.is_empty() => {
                    labels = result
                        .column(attr.name())
                        .expect("schema column")
                        .iter_values()
                        .map(|v| v.to_string())
                        .collect();
                }
                _ => {}
            }
        }
        Answer {
            rows: result.len(),
            rows_affected,
            labels,
            cols,
        }
    }

    /// Damage one cell, to show that the reference check notices.
    pub fn corrupt(&mut self) {
        if let Some((_, col)) = self.cols.last_mut() {
            let mid = col.len() / 2;
            if let Some(v) = col.get_mut(mid) {
                *v += 1.0;
            }
        }
    }

    fn col(&self, name: &str) -> Result<&[f64], String> {
        self.cols
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
            .ok_or_else(|| format!("result has no numeric column `{name}`"))
    }

    /// A cheap fingerprint of the whole result. Position-weighted where
    /// the result is a list, so a reordering changes it.
    fn checksum(&self, ordered: bool) -> f64 {
        let mut sum = self.rows as f64 + self.rows_affected.unwrap_or(0) as f64;
        for (_, col) in &self.cols {
            for (i, v) in col.iter().enumerate() {
                let weight = if ordered { (i % 1009 + 1) as f64 } else { 1.0 };
                sum += weight * v;
            }
        }
        sum
    }
}

fn close(got: f64, want: f64, rel: f64) -> bool {
    (got - want).abs() <= rel * want.abs().max(1.0)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Holds a workload's reference and checks results against it: the first
/// in full, later ones by fingerprint against that verified first result.
pub struct Checker {
    reference: Reference,
    verified_checksum: Option<f64>,
}

impl Checker {
    pub fn new(reference: Reference) -> Checker {
        Checker {
            reference,
            verified_checksum: None,
        }
    }

    pub fn check(&mut self, answer: &Answer) -> Result<(), String> {
        let ordered = matches!(self.reference, Reference::SortJoin { .. });
        let sum = answer.checksum(ordered);
        match self.verified_checksum {
            Some(want) if close(sum, want, 1e-9) => Ok(()),
            Some(want) => Err(format!(
                "result checksum {sum} differs from the verified {want}"
            )),
            None => {
                self.check_full(answer)?;
                self.verified_checksum = Some(sum);
                Ok(())
            }
        }
    }

    fn check_full(&self, ans: &Answer) -> Result<(), String> {
        match &self.reference {
            Reference::Ols { beta, kept } => {
                if ans.rows_affected != Some(*kept) {
                    return Err(format!(
                        "tp has {:?} rows, reference keeps {kept}",
                        ans.rows_affected
                    ));
                }
                let got = ans.col("duration")?;
                for (label, want) in ["x0", "x1"].iter().zip(beta) {
                    let row = ans
                        .labels
                        .iter()
                        .position(|l| l == label)
                        .ok_or_else(|| format!("no coefficient row `{label}`"))?;
                    if !close(got[row], *want, 1e-6) {
                        return Err(format!(
                            "coefficient {label} = {}, reference {want}",
                            got[row]
                        ));
                    }
                }
                Ok(())
            }
            Reference::Qqr { a } => check_qqr(a, ans),
            Reference::Add {
                y1,
                y2,
                expected_rows,
            } => {
                if ans.rows != *expected_rows {
                    return Err(format!("{} rows, reference {expected_rows}", ans.rows));
                }
                let (k0, k) = (ans.col("k0")?, ans.col("k")?);
                let sums: Vec<&[f64]> = (0..y1.len())
                    .map(|j| ans.col(&format!("a{j}")))
                    .collect::<Result<_, _>>()?;
                let mut seen = vec![false; y1[0].len()];
                for i in 0..ans.rows {
                    // keys are 0..rows on both sides, so equal rank is equal key
                    let key = k0[i] as usize;
                    if k[i] != k0[i] || key >= seen.len() || seen[key] {
                        return Err(format!("row {i}: keys ({}, {}) mispaired", k0[i], k[i]));
                    }
                    seen[key] = true;
                    for (j, col) in sums.iter().enumerate() {
                        let want = y1[j][key] + y2[j][key];
                        if !close(col[i], want, 1e-12) {
                            return Err(format!("row {i}: a{j} = {}, reference {want}", col[i]));
                        }
                    }
                    if sums[0][i] <= ADD_CUTOFF {
                        return Err(format!("row {i} does not pass the filter"));
                    }
                }
                Ok(())
            }
            Reference::SortJoin { rows } => {
                if ans.rows != rows.len() {
                    return Err(format!("{} rows, reference {}", ans.rows, rows.len()));
                }
                let (id, duration, d2) = (ans.col("id")?, ans.col("duration")?, ans.col("d2")?);
                let mut got: Vec<[f64; 3]> =
                    (0..ans.rows).map(|i| [id[i], duration[i], d2[i]]).collect();
                // a list on the ORDER BY columns ...
                for (i, (g, w)) in got.iter().zip(rows).enumerate() {
                    if g[1] != w[1] || g[0] != w[0] {
                        return Err(format!(
                            "row {i}: (duration, id) = ({}, {}), reference ({}, {})",
                            g[1], g[0], w[1], w[0]
                        ));
                    }
                }
                // ... and a bag on the rest
                let by_all = |a: &[f64; 3], b: &[f64; 3]| {
                    a[0].total_cmp(&b[0])
                        .then(a[1].total_cmp(&b[1]))
                        .then(a[2].total_cmp(&b[2]))
                };
                let mut want = rows.clone();
                got.sort_by(by_all);
                want.sort_by(by_all);
                if got != want {
                    return Err("joined rows differ from the reference as a bag".to_string());
                }
                Ok(())
            }
        }
    }
}

/// `Q` is a bag of rows keyed by `k0` (permuting `A`'s rows permutes
/// `Q`'s the same way and leaves `R` alone): once put in key order it must
/// have orthonormal columns, and `R = QᵀA` must be upper triangular with
/// `Q·R = A`.
fn check_qqr(a: &[Vec<f64>], ans: &Answer) -> Result<(), String> {
    let m = a[0].len();
    if ans.rows != m {
        return Err(format!("{} rows, reference {m}", ans.rows));
    }
    let k0 = ans.col("k0")?;
    let mut row_of_key = vec![usize::MAX; m];
    for (i, k) in k0.iter().enumerate() {
        match row_of_key.get_mut(*k as usize) {
            Some(slot) if *slot == usize::MAX => *slot = i,
            _ => return Err(format!("row {i}: key {k} repeated or out of range")),
        }
    }
    let q: Vec<Vec<f64>> = (0..a.len())
        .map(|j| {
            let col = ans.col(&format!("a{j}"))?;
            Ok(row_of_key.iter().map(|&i| col[i]).collect())
        })
        .collect::<Result<_, String>>()?;
    let n = q.len();
    for j in 0..n {
        for l in j..n {
            let want = if j == l { 1.0 } else { 0.0 };
            let got = dot(&q[j], &q[l]);
            if (got - want).abs() > 1e-9 {
                return Err(format!("(QtQ)[{j}][{l}] = {got}"));
            }
        }
    }
    let col_norm = a.iter().map(|c| dot(c, c).sqrt()).fold(0.0, f64::max);
    let max_abs = a.iter().flatten().fold(0.0f64, |m, v| m.max(v.abs()));
    for (l, a_col) in a.iter().enumerate() {
        // column l of R = QtA
        let r: Vec<f64> = q.iter().map(|q_col| dot(q_col, a_col)).collect();
        if let Some(j) = (l + 1..n).find(|&j| r[j].abs() > 1e-8 * col_norm) {
            return Err(format!("R[{j}][{l}] = {} below the diagonal", r[j]));
        }
        let mut qr = vec![0.0; m];
        for (q_col, r_jl) in q.iter().zip(&r).take(l + 1) {
            for (acc, qv) in qr.iter_mut().zip(q_col) {
                *acc += qv * r_jl;
            }
        }
        let worst = qr
            .iter()
            .zip(a_col)
            .fold(0.0f64, |w, (g, want)| w.max((g - want).abs()));
        if worst > 1e-8 * max_abs {
            return Err(format!("column {l}: |QR - A| = {worst}"));
        }
    }
    Ok(())
}
