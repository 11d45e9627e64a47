//! The four mixed workloads of §8.6, runnable on RMA+ (any backend) and on
//! every competitor simulator.
//!
//! Each workload reports its relational (data preparation), transformation,
//! and matrix time separately — the split Figures 15–18 plot — plus a
//! numeric checksum so tests can verify that all systems compute the same
//! answer.

use crate::competitors::{scidb, MatEngine, MatFlavor, RelEngine, RelFlavor, SimTimes};
use rma_core::{Backend, RmaContext, RmaOptions};
use rma_relation::{cross_product, project, project_exprs, rename, AggSpec, Expr, Relation};
use rma_storage::Value;
use std::time::{Duration, Instant};

/// The systems compared in §8.6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// RMA+ with the paper's auto policy (BAT for linear ops, dense
    /// otherwise).
    RmaAuto,
    /// RMA+BAT: no-copy column kernels everywhere.
    RmaBat,
    /// RMA+MKL: dense kernels everywhere.
    RmaMkl,
    /// The R simulator.
    R,
    /// The AIDA simulator.
    Aida,
    /// The MADlib simulator.
    Madlib,
}

impl SystemKind {
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::RmaAuto => "RMA+",
            SystemKind::RmaBat => "RMA+BAT",
            SystemKind::RmaMkl => "RMA+MKL",
            SystemKind::R => "R",
            SystemKind::Aida => "AIDA",
            SystemKind::Madlib => "MADlib",
        }
    }

    fn is_rma(self) -> bool {
        matches!(
            self,
            SystemKind::RmaAuto | SystemKind::RmaBat | SystemKind::RmaMkl
        )
    }

    fn rma_context(self) -> RmaContext {
        let backend = match self {
            SystemKind::RmaAuto => Backend::Auto,
            SystemKind::RmaBat => Backend::Bat,
            SystemKind::RmaMkl => Backend::Dense,
            _ => unreachable!("not an RMA system"),
        };
        RmaContext::new(RmaOptions {
            backend,
            ..RmaOptions::default()
        })
    }

    fn rel_flavor(self) -> RelFlavor {
        match self {
            SystemKind::R => RelFlavor::Single,
            SystemKind::Madlib => RelFlavor::RowAtATime,
            // RMA+ and AIDA both run relational ops in the database engine
            _ => RelFlavor::Native,
        }
    }

    fn mat_flavor(self) -> MatFlavor {
        match self {
            SystemKind::R => MatFlavor::RMatrix,
            SystemKind::Madlib => MatFlavor::MadlibRows,
            _ => MatFlavor::AidaNumpy,
        }
    }
}

/// Timing and checksum of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadReport {
    pub system: SystemKind,
    pub prep: Duration,
    pub transform: Duration,
    pub matrix: Duration,
    /// A workload-specific scalar all systems must agree on.
    pub check: f64,
}

impl WorkloadReport {
    pub fn total(&self) -> Duration {
        self.prep + self.transform + self.matrix
    }
}

// ---------------------------------------------------------------------
// (1) Trips — ordinary linear regression (Fig. 15)
// ---------------------------------------------------------------------

/// Shared data preparation: frequent trips joined with station coordinates,
/// producing (id, one, dist, duration, start_date).
fn trips_prep(rel: &RelEngine, trips: &Relation, stations: &Relation, min_count: i64) -> Relation {
    // (a) aggregate and keep frequent (start, end) pairs
    let freq = rel.aggregate(
        trips,
        &["start_station", "end_station"],
        &[AggSpec::count_star("n")],
    );
    let freq = rel.select(&freq, &Expr::col("n").gt_eq(Expr::lit(min_count)));
    let freq = rename(&freq, &[("start_station", "fs"), ("end_station", "fe")]).expect("rename");
    let t = rel.join(
        trips,
        &freq,
        &[("start_station", "fs"), ("end_station", "fe")],
    );
    // (b) join station coordinates for both endpoints
    let s_start = rename(
        stations,
        &[
            ("code", "sc"),
            ("name", "sn"),
            ("lat", "slat"),
            ("lon", "slon"),
        ],
    )
    .expect("rename");
    let s_end = rename(
        stations,
        &[
            ("code", "ec"),
            ("name", "en"),
            ("lat", "elat"),
            ("lon", "elon"),
        ],
    )
    .expect("rename");
    let t = rel.join(&t, &s_start, &[("start_station", "sc")]);
    let t = rel.join(&t, &s_end, &[("end_station", "ec")]);
    // distance in ~km (see rma_data::bixi::station_distance)
    let dist = Expr::col("slat")
        .sub(Expr::col("elat"))
        .mul(Expr::lit(111.0))
        .mul(
            Expr::col("slat")
                .sub(Expr::col("elat"))
                .mul(Expr::lit(111.0)),
        )
        .add(
            Expr::col("slon")
                .sub(Expr::col("elon"))
                .mul(Expr::lit(78.0))
                .mul(
                    Expr::col("slon")
                        .sub(Expr::col("elon"))
                        .mul(Expr::lit(78.0)),
                ),
        )
        .sqrt();
    project_exprs(
        &t,
        &[
            (Expr::col("id"), "id"),
            // design columns are named x0 (intercept), x1 (distance) so that
            // their alphabetical order equals the schema order — mmu pairs
            // r's application columns with s's key-sorted rows positionally
            (Expr::lit(1.0), "x0"),
            (dist, "x1"),
            (Expr::col("duration"), "duration"),
            (Expr::col("start_date"), "start_date"),
        ],
    )
    .expect("projection")
}

/// OLS through RMA: `MMU(INV(CPD(A,A)), CPD(A,V))` over relations.
fn ols_rma(ctx: &RmaContext, prep: &Relation) -> (f64, Duration) {
    let t = Instant::now();
    let a = project(prep, &["id", "x0", "x1"]).expect("A");
    let v = project(prep, &["id", "duration"]).expect("V");
    let ata = ctx.cpd(&a, &["id"], &a, &["id"]).expect("cpd AA");
    let atv = ctx.cpd(&a, &["id"], &v, &["id"]).expect("cpd AV");
    let inv = ctx.inv(&ata, &["C"]).expect("inv");
    let beta = ctx.mmu(&inv, &["C"], &atv, &["C"]).expect("mmu");
    // slope coefficient: row with C = 'dist' — context makes this a lookup,
    // no manual bookkeeping needed
    let sorted = beta.sorted_by(&["C"]).expect("sort");
    let mut slope = f64::NAN;
    for i in 0..sorted.len() {
        if sorted.cell(i, "C").expect("C") == Value::from("x1") {
            slope = sorted
                .cell(i, "duration")
                .expect("beta")
                .as_f64()
                .expect("numeric");
        }
    }
    (slope, t.elapsed())
}

/// OLS through a simulated competitor: manual matrix extraction.
fn ols_sim(mat: &MatEngine, prep: &Relation, times: &mut SimTimes) -> f64 {
    // AIDA pays for moving the non-numeric start_date across the boundary
    mat.transfer_non_numeric(prep, times);
    let a = mat.enter(prep, &["x0", "x1"], times);
    let v = mat.enter(prep, &["duration"], times);
    let ata = mat.cpd(&a, &a, times);
    let atv = mat.cpd(&a, &v, times);
    let inv = mat.inv(&ata, times);
    let beta = mat.mmu(&inv, &atv, times);
    let cols = mat.exit(beta, times);
    // NOTE: competitors lose the context; index 1 is "dist" only by manual
    // bookkeeping (the paper's point about origins)
    cols[0][1]
}

/// Run the Fig. 15 workload on one system.
pub fn run_trips_ols(
    system: SystemKind,
    trips: &Relation,
    stations: &Relation,
    min_count: i64,
) -> WorkloadReport {
    let rel = RelEngine::new(system.rel_flavor());
    let t0 = Instant::now();
    let prep = trips_prep(&rel, trips, stations, min_count);
    let prep_time = t0.elapsed();
    if system.is_rma() {
        let ctx = system.rma_context();
        let (slope, _) = ols_rma(&ctx, &prep);
        let stats = ctx.stats();
        WorkloadReport {
            system,
            prep: prep_time + stats.sort,
            transform: stats.copy_in + stats.copy_out,
            matrix: stats.compute,
            check: slope,
        }
    } else {
        let mat = MatEngine::new(system.mat_flavor());
        let mut times = SimTimes::default();
        let slope = ols_sim(&mat, &prep, &mut times);
        WorkloadReport {
            system,
            prep: prep_time + times.relational,
            transform: times.transform,
            matrix: times.matrix,
            check: slope,
        }
    }
}

// ---------------------------------------------------------------------
// (2) Journeys — multiple linear regression (Fig. 16)
// ---------------------------------------------------------------------

/// Compose journeys of `hops` consecutive trips (numeric-only relational
/// part) and regress total duration on the per-hop distances.
///
/// Simulation note: the paper composes trips that "meet in a station"; with
/// synthetic ids we additionally require consecutive journey ids, keeping
/// the join fan-out bounded without changing the operator mix.
fn journeys_prep(
    rel: &RelEngine,
    journeys: &Relation,
    stations: &Relation,
    hops: usize,
) -> Relation {
    // distance per one-trip journey
    let s_start = rename(
        stations,
        &[
            ("code", "sc"),
            ("name", "sn"),
            ("lat", "slat"),
            ("lon", "slon"),
        ],
    )
    .expect("rename");
    let s_end = rename(
        stations,
        &[
            ("code", "ec"),
            ("name", "en"),
            ("lat", "elat"),
            ("lon", "elon"),
        ],
    )
    .expect("rename");
    let j = rel.join(journeys, &s_start, &[("start", "sc")]);
    let j = rel.join(&j, &s_end, &[("end", "ec")]);
    let dist = Expr::col("slat")
        .sub(Expr::col("elat"))
        .mul(Expr::lit(111.0))
        .mul(
            Expr::col("slat")
                .sub(Expr::col("elat"))
                .mul(Expr::lit(111.0)),
        )
        .add(
            Expr::col("slon")
                .sub(Expr::col("elon"))
                .mul(Expr::lit(78.0))
                .mul(
                    Expr::col("slon")
                        .sub(Expr::col("elon"))
                        .mul(Expr::lit(78.0)),
                ),
        )
        .sqrt();
    let base = project_exprs(
        &j,
        &[
            (Expr::col("jid"), "jid"),
            (Expr::col("start"), "start"),
            (Expr::col("end"), "end"),
            (Expr::col("duration"), "duration"),
            (dist, "dist1"),
        ],
    )
    .expect("base projection");

    let mut cur = base.clone();
    for hop in 2..=hops {
        // next hop: journeys whose start is our current end and whose id
        // continues the chain (jid + hop - 1)
        let next = project_exprs(
            &base,
            &[
                (Expr::col("jid").sub(Expr::lit((hop - 1) as i64)), "pjid"),
                (Expr::col("start"), "nstart"),
                (Expr::col("end"), "nend"),
                (Expr::col("duration"), "ndur"),
                (Expr::col("dist1"), "ndist"),
            ],
        )
        .expect("next projection");
        let joined = rel.join(&cur, &next, &[("jid", "pjid"), ("end", "nstart")]);
        let mut items: Vec<(Expr, String)> = vec![
            (Expr::col("jid"), "jid".to_string()),
            (Expr::col("start"), "start".to_string()),
            (Expr::col("nend"), "end".to_string()),
            (
                Expr::col("duration").add(Expr::col("ndur")),
                "duration".to_string(),
            ),
        ];
        for h in 1..hop {
            items.push((Expr::col(format!("dist{h}")), format!("dist{h}")));
        }
        items.push((Expr::col("ndist"), format!("dist{hop}")));
        let refs: Vec<(Expr, &str)> = items.iter().map(|(e, n)| (e.clone(), n.as_str())).collect();
        cur = project_exprs(&joined, &refs).expect("hop projection");
    }
    // add the intercept column; design columns x0..xk sort alphabetically
    // in schema order (hops <= 9)
    let mut items: Vec<(Expr, String)> = vec![
        (Expr::col("jid"), "jid".to_string()),
        (Expr::lit(1.0), "x0".to_string()),
    ];
    for h in 1..=hops {
        items.push((Expr::col(format!("dist{h}")), format!("x{h}")));
    }
    items.push((Expr::col("duration"), "duration".to_string()));
    let refs: Vec<(Expr, &str)> = items.iter().map(|(e, n)| (e.clone(), n.as_str())).collect();
    project_exprs(&cur, &refs).expect("final projection")
}

/// Run the Fig. 16 workload on one system.
pub fn run_journeys_regression(
    system: SystemKind,
    journeys: &Relation,
    stations: &Relation,
    hops: usize,
) -> WorkloadReport {
    let rel = RelEngine::new(system.rel_flavor());
    let t0 = Instant::now();
    let prep = journeys_prep(&rel, journeys, stations, hops);
    let prep_time = t0.elapsed();
    let mut design_cols: Vec<String> = vec!["x0".to_string()];
    for h in 1..=hops {
        design_cols.push(format!("x{h}"));
    }
    let design_refs: Vec<&str> = design_cols.iter().map(String::as_str).collect();
    if system.is_rma() {
        let ctx = system.rma_context();
        let t = Instant::now();
        let mut a_cols = vec!["jid"];
        a_cols.extend(design_refs.iter().copied());
        let a = project(&prep, &a_cols).expect("A");
        let v = project(&prep, &["jid", "duration"]).expect("V");
        let beta = ctx.sol(&a, &["jid"], &v, &["jid"]).expect("sol");
        let _ = t.elapsed();
        let stats = ctx.stats();
        // checksum: sum of slope coefficients (excludes intercept)
        let sorted = beta.sorted_by(&["C"]).expect("sort");
        let mut check = 0.0;
        for i in 0..sorted.len() {
            if sorted.cell(i, "C").expect("C") != Value::from("x0") {
                check += sorted
                    .cell(i, "duration")
                    .expect("b")
                    .as_f64()
                    .expect("num");
            }
        }
        WorkloadReport {
            system,
            prep: prep_time + stats.sort,
            transform: stats.copy_in + stats.copy_out,
            matrix: stats.compute,
            check,
        }
    } else {
        let mat = MatEngine::new(system.mat_flavor());
        let mut times = SimTimes::default();
        mat.transfer_non_numeric(&prep, &mut times);
        let a = mat.enter(&prep, &design_refs, &mut times);
        let v = mat.enter(&prep, &["duration"], &mut times);
        let ata = mat.cpd(&a, &a, &mut times);
        let atv = mat.cpd(&a, &v, &mut times);
        let inv = mat.inv(&ata, &mut times);
        let beta = mat.mmu(&inv, &atv, &mut times);
        let cols = mat.exit(beta, &mut times);
        let check: f64 = cols[0][1..].iter().sum();
        WorkloadReport {
            system,
            prep: prep_time + times.relational,
            transform: times.transform,
            matrix: times.matrix,
            check,
        }
    }
}

// ---------------------------------------------------------------------
// (3) Conferences — covariance (Fig. 17)
// ---------------------------------------------------------------------

/// Covariance of conference publication counts, then join with rankings to
/// keep A++ conferences. Returns the summed covariance of A++ rows as the
/// checksum.
pub fn run_conferences_covariance(
    system: SystemKind,
    pubs: &Relation,
    rankings: &Relation,
) -> WorkloadReport {
    let rel = RelEngine::new(system.rel_flavor());
    let conf_cols: Vec<String> = pubs
        .schema()
        .names()
        .filter(|n| *n != "author")
        .map(str::to_string)
        .collect();
    let conf_refs: Vec<&str> = conf_cols.iter().map(String::as_str).collect();
    let n = pubs.len() as f64;

    let t0 = Instant::now();
    // column means (one aggregate per conference attribute)
    let aggs: Vec<AggSpec> = conf_refs.iter().map(|c| AggSpec::avg(c, c)).collect();
    let means = rel.aggregate(pubs, &[], &aggs);
    let prep_time = t0.elapsed();

    if system.is_rma() {
        let ctx = system.rma_context();
        // centre: sub over relations (paper's w3), keys author / author2
        let users = rename(
            &project(pubs, &["author"]).expect("authors"),
            &[("author", "author2")],
        )
        .expect("rename");
        let means_rel = cross_product(&users, &means).expect("broadcast");
        let centred = ctx
            .sub(pubs, &["author"], &means_rel, &["author2"])
            .expect("sub");
        let centred = {
            let mut cols = vec!["author"];
            cols.extend(conf_refs.iter().copied());
            project(&centred, &cols).expect("project")
        };
        // covariance numerator via cpd (the paper's dsyrk call)
        let c2 = rename_author(&centred);
        let cov = ctx
            .cpd(&centred, &["author"], &c2, &["author3"])
            .expect("cpd");
        // divide by n-1
        let mut items: Vec<(Expr, String)> = vec![(Expr::col("C"), "C".to_string())];
        for c in &conf_cols {
            // cpd named the result columns after the renamed second operand
            items.push((
                Expr::col(format!("{c}_2")).div(Expr::lit(n - 1.0)),
                c.clone(),
            ));
        }
        let refs: Vec<(Expr, &str)> = items.iter().map(|(e, s)| (e.clone(), s.as_str())).collect();
        let cov = project_exprs(&cov, &refs).expect("scale");
        // join with rankings, keep A++ — context column C makes this a join
        let joined = rel.join(&cov, rankings, &[("C", "conf")]);
        let app = rel.select(&joined, &Expr::col("rating").eq(Expr::lit("A++")));
        let stats = ctx.stats();
        WorkloadReport {
            system,
            prep: prep_time + stats.sort,
            transform: stats.copy_in + stats.copy_out,
            matrix: stats.compute,
            check: diag_sum(&app, &conf_refs),
        }
    } else {
        let mat = MatEngine::new(system.mat_flavor());
        let mut times = SimTimes::default();
        let m = mat.enter(pubs, &conf_refs, &mut times);
        // centre in matrix land
        let t = Instant::now();
        let mut centred = m;
        for (j, c) in conf_refs.iter().enumerate() {
            let mean = means.cell(0, c).expect("mean").as_f64().expect("num");
            for x in centred.col_mut(j) {
                *x -= mean;
            }
        }
        times.matrix += t.elapsed();
        let cov = mat.cpd(&centred, &centred, &mut times);
        let t = Instant::now();
        let cov = cov.map(|x| x / (n - 1.0));
        times.matrix += t.elapsed();
        let cols = mat.exit(cov, &mut times);
        // competitors must manually re-attach the conference names before
        // the ranking join (the paper's §8.6(3) remark)
        let t = Instant::now();
        let mut builder = rma_relation::RelationBuilder::new().column("C", conf_cols.clone());
        for (c, col) in conf_cols.iter().zip(cols) {
            builder = builder.column(c.clone(), col);
        }
        let cov_rel = builder.build().expect("manual context");
        let joined = rel.join(&cov_rel, rankings, &[("C", "conf")]);
        let app = rel.select(&joined, &Expr::col("rating").eq(Expr::lit("A++")));
        times.relational += t.elapsed();
        WorkloadReport {
            system,
            prep: prep_time + times.relational,
            transform: times.transform,
            matrix: times.matrix,
            check: diag_sum(&app, &conf_refs),
        }
    }
}

fn rename_author(r: &Relation) -> Relation {
    let mut mapping: Vec<(String, String)> = vec![("author".to_string(), "author3".to_string())];
    for n in r.schema().names() {
        if n != "author" {
            mapping.push((n.to_string(), format!("{n}_2")));
        }
    }
    let refs: Vec<(&str, &str)> = mapping
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    rename(r, &refs).expect("rename")
}

/// Sum of cov(conf, conf) over the A++ rows (checksum).
fn diag_sum(app_rows: &Relation, _conf_cols: &[&str]) -> f64 {
    let mut sum = 0.0;
    for i in 0..app_rows.len() {
        let Value::Str(c) = app_rows.cell(i, "C").expect("C") else {
            continue;
        };
        if let Ok(v) = app_rows.cell(i, &c) {
            sum += v.as_f64().unwrap_or(0.0);
        }
    }
    sum
}

// ---------------------------------------------------------------------
// (4) Trip count — matrix addition (Fig. 18)
// ---------------------------------------------------------------------

/// Generate the two rider×destination tables for the Fig. 18 workload:
/// year 1 keyed by `k0`, year 2 keyed by `k` (order schemas must not
/// overlap for `add`), with identical destination columns `a0..`.
pub fn trip_count_tables(riders: usize, destinations: usize, seed: u64) -> (Relation, Relation) {
    // rider tables are stored in rider order (as the paper's competitors
    // assume when they pass pre-aligned arrays), so RMA's order handling
    // runs on already-sorted keys
    let y1 = rma_data::uniform_relation(riders, 1, destinations, seed)
        .sorted_by(&["k0"])
        .expect("sort");
    let y2 = rma_data::uniform_relation(riders, 1, destinations, seed ^ 0xdead)
        .sorted_by(&["k0"])
        .expect("sort");
    let y2 = rename(&y2, &[("k0", "k")]).expect("rename");
    (y1, y2)
}

/// Add two rider×destination count relations (shape (r∗,c∗)).
pub fn run_trip_count(system: SystemKind, year1: &Relation, year2: &Relation) -> WorkloadReport {
    let dest_cols: Vec<String> = year1
        .schema()
        .names()
        .filter(|n| n.starts_with('a'))
        .map(str::to_string)
        .collect();
    let dest_refs: Vec<&str> = dest_cols.iter().map(String::as_str).collect();
    if system.is_rma() {
        let ctx = system.rma_context();
        let sum = ctx.add(year1, &["k0"], year2, &["k"]).expect("add");
        let stats = ctx.stats();
        WorkloadReport {
            system,
            prep: stats.sort,
            transform: stats.copy_in + stats.copy_out,
            matrix: stats.compute,
            check: column_sum(&sum, dest_refs[0]),
        }
    } else {
        let mat = MatEngine::new(system.mat_flavor());
        let mut times = SimTimes::default();
        let a = mat.enter(year1, &dest_refs, &mut times);
        let b = mat.enter(year2, &dest_refs, &mut times);
        let sum = mat.add(&a, &b, &mut times);
        let cols = mat.exit(sum, &mut times);
        WorkloadReport {
            system,
            prep: times.relational,
            transform: times.transform,
            matrix: times.matrix,
            check: cols[0].iter().sum(),
        }
    }
}

fn column_sum(r: &Relation, col: &str) -> f64 {
    r.column(col)
        .expect("column")
        .to_f64_vec()
        .expect("numeric")
        .iter()
        .sum()
}

/// Table 7: add followed by a selection, RMA+ vs the SciDB simulator.
/// Returns (rma_total, scidb_total, rma_count, scidb_count).
pub fn run_scidb_comparison(
    year1: &Relation,
    year2: &Relation,
    threshold: f64,
) -> (Duration, Duration, usize, usize) {
    let dest_cols: Vec<String> = year1
        .schema()
        .names()
        .filter(|n| n.starts_with('a'))
        .map(str::to_string)
        .collect();
    let dest_refs: Vec<&str> = dest_cols.iter().map(String::as_str).collect();

    // RMA+: relational add, then a selection on the first destination column
    let t = Instant::now();
    let ctx = RmaContext::default();
    let sum = ctx.add(year1, &["k0"], year2, &["k"]).expect("add");
    let selected = rma_relation::select(&sum, &Expr::col(dest_refs[0]).gt(Expr::lit(threshold)))
        .expect("select");
    let rma_time = t.elapsed();
    let rma_count = selected.len();

    // SciDB: coordinate arrays, array join, selection. Arrays are indexed
    // by explicit dimensions, so cells are loaded in key order (rank), the
    // same pairing RMA's add uses.
    let t = Instant::now();
    let y1_sorted = year1.sorted_by(&["k0"]).expect("sort");
    let y2_sorted = year2.sorted_by(&["k"]).expect("sort");
    let ca = scidb::from_relation(&y1_sorted, &dest_refs);
    let cb = scidb::from_relation(&y2_sorted, &dest_refs);
    let csum = scidb::add(&ca, &cb);
    let scidb_count = scidb::select_gt(&csum, 0, threshold);
    let scidb_time = t.elapsed();

    (rma_time, scidb_time, rma_count, scidb_count)
}
