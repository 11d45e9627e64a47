//! Regenerate every table and figure of the paper's evaluation (§8).
//!
//! ```text
//! reproduce [--scale N] [fig13|...|fig18|tab4|...|tab7|all]
//! ```
//!
//! `--scale N` divides the paper's cardinalities by `N` (default 100) so a
//! full run finishes on a laptop. Absolute times differ from the paper (its
//! testbed was a 12-core Xeon with MKL); the *shapes* — who wins, by what
//! factor, where the crossovers are — are the reproduction target; README's
//! "Reproducing the paper's evaluation" describes each table.

use rma_bench::workloads::{
    run_conferences_covariance, run_journeys_regression, run_scidb_comparison, run_trip_count,
    run_trips_ols, trip_count_tables, SystemKind,
};
use rma_core::{Backend, RmaContext, RmaOptions, SortPolicy};
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 100usize;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--scale" {
            scale = it
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die("--scale needs a positive integer"));
            if scale == 0 {
                die("--scale must be >= 1")
            }
        } else {
            targets.push(a.to_lowercase());
        }
    }
    if targets.is_empty() || targets.iter().any(|t| t == "all") {
        targets = [
            "fig13", "tab4", "tab5", "tab6", "tab7", "fig14", "fig15", "fig16", "fig17", "fig18",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    println!("# RMA reproduction — scale 1/{scale} of the paper's sizes\n");
    for t in &targets {
        match t.as_str() {
            "fig13" => fig13(scale),
            "tab4" => tab4(scale),
            "tab5" => tab5(scale),
            "tab6" => tab6(scale),
            "tab7" => tab7(scale),
            "fig14" => fig14(scale),
            "fig15" => fig15(scale),
            "fig16" => fig16(scale),
            "fig17" => fig17(scale),
            "fig18" => fig18(scale),
            other => eprintln!("unknown target `{other}` (skipped)"),
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

fn secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

fn ctx(sort: SortPolicy) -> RmaContext {
    RmaContext::new(RmaOptions {
        backend: Backend::Auto,
        sort_policy: sort,
        ..RmaOptions::default()
    })
}

/// Fig. 13: cost of maintaining contextual information — add and qqr over
/// relations with one application column and many order columns, sorted vs
/// optimised.
fn fig13(scale: usize) {
    println!("## Figure 13 — handling contextual information");
    for (rows, attr_points) in [
        (100_000 / scale.max(1), vec![200usize, 400, 600, 800, 1000]),
        (1_000_000 / scale.max(1), vec![20, 40, 60, 80, 100]),
    ] {
        let rows = rows.max(100);
        println!("### {rows} tuples");
        println!(
            "{:>8} {:>12} {:>16} {:>12} {:>16}",
            "#order", "add(s)", "add rel-sort(s)", "qqr(s)", "qqr no-sort(s)"
        );
        for &attrs in &attr_points {
            let r = rma_data::uniform_relation(rows, attrs, 1, 13);
            let s = {
                let renames: Vec<(String, String)> =
                    std::iter::once(("a0".to_string(), "b0".to_string()))
                        .chain((0..attrs).map(|k| (format!("k{k}"), format!("j{k}"))))
                        .collect();
                let refs: Vec<(&str, &str)> = renames
                    .iter()
                    .map(|(a, b)| (a.as_str(), b.as_str()))
                    .collect();
                rma_relation::rename(&r, &refs).expect("rename")
            };
            let order: Vec<String> = (0..attrs).map(|k| format!("k{k}")).collect();
            let order_refs: Vec<&str> = order.iter().map(String::as_str).collect();
            let s_order: Vec<String> = (0..attrs).map(|k| format!("j{k}")).collect();
            let s_order_refs: Vec<&str> = s_order.iter().map(String::as_str).collect();

            let t = Instant::now();
            ctx(SortPolicy::Always)
                .add(&r, &order_refs, &s, &s_order_refs)
                .expect("add");
            let add_full = t.elapsed();
            let t = Instant::now();
            ctx(SortPolicy::Optimized)
                .add(&r, &order_refs, &s, &s_order_refs)
                .expect("add");
            let add_rel = t.elapsed();
            let t = Instant::now();
            ctx(SortPolicy::Always).qqr(&r, &order_refs).expect("qqr");
            let qqr_full = t.elapsed();
            let t = Instant::now();
            ctx(SortPolicy::Optimized)
                .qqr(&r, &order_refs)
                .expect("qqr");
            let qqr_skip = t.elapsed();
            println!(
                "{attrs:>8} {:>12} {:>16} {:>12} {:>16}",
                secs(add_full),
                secs(add_rel),
                secs(qqr_full),
                secs(qqr_skip)
            );
        }
    }
    println!();
}

/// Table 4: add over wide relations (1K–10K application attributes).
fn tab4(scale: usize) {
    println!("## Table 4 — add over wide relations");
    let rows = 1000usize;
    let max_attrs = (10_000 / scale.max(1)).max(100);
    let step = max_attrs / 10;
    println!("{:>8} {:>10}", "#attr", "sec");
    let mut attrs = step;
    while attrs <= max_attrs {
        let (a, b) = wide_pair(rows, attrs);
        let t = Instant::now();
        ctx(SortPolicy::Optimized)
            .add(&a, &["k0"], &b, &["k"])
            .expect("add");
        println!("{attrs:>8} {:>10}", secs(t.elapsed()));
        attrs += step;
    }
    println!();
}

fn wide_pair(rows: usize, attrs: usize) -> (rma_relation::Relation, rma_relation::Relation) {
    let a = rma_data::wide_relation(rows, attrs, 4);
    let b = rma_data::wide_relation(rows, attrs, 5);
    let b = rma_relation::rename(&b, &[("k0", "k")]).expect("rename");
    (a, b)
}

/// Table 5: add over sparse relations, zero share 0%–100%.
fn tab5(scale: usize) {
    println!("## Table 5 — add over sparse relations (zero-run compressed)");
    let rows = (5_000_000 / scale.max(1)).max(10_000);
    println!("{:>6} {:>12} {:>14}", "%zero", "dense(s)", "compressed(s)");
    for pct in (0..=100).step_by(10) {
        let (a, b) = rma_data::sparse_pair(rows, 10, pct as f64 / 100.0, 100 + pct as u64);
        // dense columnar add through RMA
        let t = Instant::now();
        ctx(SortPolicy::Optimized)
            .add(&a, &["lk"], &b, &["rk"])
            .expect("add");
        let dense = t.elapsed();
        // compressed add on the storage layer (MonetDB's compression role)
        let t = Instant::now();
        let mut compressed_total = Duration::ZERO;
        for c in 0..10 {
            let ca = a
                .column(&format!("l{c}"))
                .expect("col")
                .to_f64_vec()
                .expect("num");
            let cb = b
                .column(&format!("r{c}"))
                .expect("col")
                .to_f64_vec()
                .expect("num");
            let ca = rma_storage::Rle::encode(&ca);
            let cb = rma_storage::Rle::encode(&cb);
            let t2 = Instant::now();
            std::hint::black_box(rma_storage::encoding::rle_add_f64(&ca, &cb));
            compressed_total += t2.elapsed();
        }
        let _ = t.elapsed();
        println!(
            "{pct:>6} {:>12} {:>14}",
            secs(dense),
            secs(compressed_total)
        );
    }
    println!();
}

/// Table 6: qqr — R simulator vs RMA+ across sizes.
fn tab6(scale: usize) {
    println!("## Table 6 — qqr runtimes, R vs RMA+");
    println!(
        "{:>10} {:>6} {:>10} {:>10} {:>12}",
        "tuples", "attrs", "R(s)", "RMA+(s)", "RMA+ kernel"
    );
    for tuples in [5_000_000 / scale.max(1), 50_000_000 / scale.max(1)] {
        let tuples = tuples.max(10_000);
        for attrs in [10usize, 40, 70] {
            let r = rma_data::uniform_relation(tuples, 1, attrs, 6);
            // R: copy into row-major matrix, Householder QR, copy back
            let eng = rma_bench::MatEngine::new(rma_bench::MatFlavor::RMatrix);
            let cols: Vec<String> = (0..attrs).map(|c| format!("a{c}")).collect();
            let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            let mut times = rma_bench::SimTimes::default();
            let t = Instant::now();
            let m = eng.enter(&r, &col_refs, &mut times);
            let q = rma_linalg::dense::qr(&m).expect("qr").q;
            eng.exit(q, &mut times);
            let r_time = t.elapsed();
            // RMA+: auto policy decides dense vs BAT by the memory budget
            let c = ctx(SortPolicy::Optimized);
            let t = Instant::now();
            c.qqr(&r, &["k0"]).expect("qqr");
            let rma_time = t.elapsed();
            let kernel = match c.stats().last_kernel {
                Some(rma_core::KernelUsed::Bat) => "BAT",
                _ => "MKL",
            };
            println!(
                "{tuples:>10} {attrs:>6} {:>10} {:>10} {:>12}",
                secs(r_time),
                secs(rma_time),
                kernel
            );
        }
    }
    println!();
}

/// Table 7: add followed by a selection — RMA+ vs the SciDB simulator.
fn tab7(scale: usize) {
    println!("## Table 7 — add + selection, RMA+ vs SciDB");
    println!(
        "{:>10} {:>10} {:>10} {:>8}",
        "tuples", "RMA+(s)", "SciDB(s)", "ratio"
    );
    for tuples in [1_000_000, 5_000_000, 10_000_000, 15_000_000] {
        let tuples = (tuples / scale.max(1)).max(10_000);
        let (a, b) = trip_count_tables(tuples, 10, 7);
        let (rma_t, scidb_t, _, _) = run_scidb_comparison(&a, &b, 10_000.0);
        println!(
            "{tuples:>10} {:>10} {:>10} {:>8.1}",
            secs(rma_t),
            secs(scidb_t),
            scidb_t.as_secs_f64() / rma_t.as_secs_f64()
        );
    }
    println!();
}

/// Fig. 14: share of runtime spent on data transformation.
fn fig14(scale: usize) {
    println!("## Figure 14 — data transformation share (%)");
    let ops: [(&str, rma_core::RmaOp); 6] = [
        ("ADD", rma_core::RmaOp::Add),
        ("EMU", rma_core::RmaOp::Emu),
        ("MMU", rma_core::RmaOp::Mmu),
        ("QQR", rma_core::RmaOp::Qqr),
        ("DSV", rma_core::RmaOp::Dsv),
        ("VSV", rma_core::RmaOp::Vsv),
    ];
    for rows in [
        100_000 / scale.max(1),
        300_000 / scale.max(1),
        500_000 / scale.max(1),
    ] {
        let rows = rows.max(2_000);
        let r = rma_data::uniform_relation(rows, 1, 50, 14);
        let s = {
            let mut renames = vec![("k0".to_string(), "k".to_string())];
            renames.extend((0..50).map(|c| (format!("a{c}"), format!("b{c}"))));
            let refs: Vec<(&str, &str)> = renames
                .iter()
                .map(|(a, b)| (a.as_str(), b.as_str()))
                .collect();
            rma_relation::rename(&r, &refs).expect("rename")
        };
        print!("{rows:>9} rows: ");
        for (name, op) in ops {
            let c = RmaContext::with_backend(Backend::Dense);
            match op {
                rma_core::RmaOp::Add | rma_core::RmaOp::Emu => {
                    c.binary(op, &r, &["k0"], &s, &["k"]).expect("binary");
                }
                rma_core::RmaOp::Mmu => {
                    // square 50×50 second operand: r's app columns (50) must
                    // match s2's tuple count
                    let s2 = rma_data::uniform_relation(50, 1, 50, 15);
                    c.binary(op, &r, &["k0"], &s2, &["k0"]).expect("mmu");
                }
                _ => {
                    c.unary(op, &r, &["k0"]).expect("unary");
                }
            }
            let share = c.stats().transform_share() * 100.0;
            print!("{name}={share:>4.0} ");
        }
        println!();
    }
    println!("(RMA+ dense path; the BAT path has share 0 by construction)\n");
}

fn print_reports(title: &str, reports: &[rma_bench::WorkloadReport]) {
    println!("{title}");
    println!(
        "{:>10} {:>10} {:>12} {:>10} {:>10} {:>14}",
        "system", "prep(s)", "transform(s)", "matrix(s)", "total(s)", "check"
    );
    for r in reports {
        println!(
            "{:>10} {:>10} {:>12} {:>10} {:>10} {:>14.4}",
            r.system.name(),
            secs(r.prep),
            secs(r.transform),
            secs(r.matrix),
            secs(r.total()),
            r.check
        );
    }
    println!();
}

const SYSTEMS: [SystemKind; 4] = [
    SystemKind::RmaAuto,
    SystemKind::Aida,
    SystemKind::R,
    SystemKind::Madlib,
];

/// Fig. 15: trips OLS across systems and RMA backends.
fn fig15(scale: usize) {
    println!("## Figure 15 — Trips (ordinary linear regression)");
    for millions in [3.1f64, 6.5, 10.5, 14.5] {
        let n = ((millions * 1e6) as usize / scale.max(1)).max(20_000);
        let trips = rma_data::trips(n, 120, 15);
        let stations = rma_data::stations(120, 15 ^ 0x5a5a);
        let mut reports: Vec<_> = SYSTEMS
            .iter()
            .map(|&s| run_trips_ols(s, &trips, &stations, 50))
            .collect();
        reports.push(run_trips_ols(SystemKind::RmaBat, &trips, &stations, 50));
        reports.push(run_trips_ols(SystemKind::RmaMkl, &trips, &stations, 50));
        print_reports(&format!("### {n} trips"), &reports);
    }
}

/// Fig. 16: journeys multiple regression.
fn fig16(scale: usize) {
    println!("## Figure 16 — Journeys (multiple linear regression)");
    let n = (15_000_000 / scale.max(1)).max(30_000);
    let journeys = rma_data::journeys(n, 60, 16);
    let stations = rma_data::stations(60, 16 ^ 0xa5a5);
    for hops in 1..=5usize {
        let mut reports: Vec<_> = SYSTEMS
            .iter()
            .map(|&s| run_journeys_regression(s, &journeys, &stations, hops))
            .collect();
        reports.push(run_journeys_regression(
            SystemKind::RmaBat,
            &journeys,
            &stations,
            hops,
        ));
        reports.push(run_journeys_regression(
            SystemKind::RmaMkl,
            &journeys,
            &stations,
            hops,
        ));
        print_reports(&format!("### journeys of {hops} trip(s)"), &reports);
    }
}

/// Fig. 17: conference covariance.
fn fig17(scale: usize) {
    println!("## Figure 17 — Conferences (covariance)");
    let sizes = [
        (337_363usize, 266usize),
        (550_085, 519),
        (722_891, 744),
        (876_559, 882),
    ];
    for (authors, confs) in sizes {
        let authors = (authors / scale.max(1)).max(2_000);
        let confs = (confs / (scale.max(1) / 10).max(1)).clamp(30, 900);
        let pubs = rma_data::publications(authors, confs, 17);
        let rankings = rma_data::rankings(confs, 17);
        let mut reports: Vec<_> = [SystemKind::RmaAuto, SystemKind::Aida, SystemKind::R]
            .iter()
            .map(|&s| run_conferences_covariance(s, &pubs, &rankings))
            .collect();
        reports.push(run_conferences_covariance(
            SystemKind::RmaBat,
            &pubs,
            &rankings,
        ));
        reports.push(run_conferences_covariance(
            SystemKind::RmaMkl,
            &pubs,
            &rankings,
        ));
        print_reports(
            &format!("### {authors} authors × {confs} conferences"),
            &reports,
        );
    }
}

/// Fig. 18: trip count addition.
fn fig18(scale: usize) {
    println!("## Figure 18 — Trip count (matrix addition)");
    for millions in [1usize, 5, 10, 15] {
        let n = (millions * 1_000_000 / scale.max(1)).max(20_000);
        let (y1, y2) = trip_count_tables(n, 10, 18);
        let mut reports: Vec<_> = SYSTEMS
            .iter()
            .map(|&s| run_trip_count(s, &y1, &y2))
            .collect();
        reports.push(run_trip_count(SystemKind::RmaBat, &y1, &y2));
        reports.push(run_trip_count(SystemKind::RmaMkl, &y1, &y2));
        print_reports(&format!("### {n} riders"), &reports);
    }
}
