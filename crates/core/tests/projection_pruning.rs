//! Projection pushdown through joins and projections: EXPLAIN of the
//! Fig. 15 trips preparation shows every scan and projection narrowed to
//! what is read above it; natural joins, duplicate elimination, unions and
//! RMA arguments stay unpruned; and optimized plans return exactly what
//! the unoptimized plans return.

use rma_core::plan::{execute, Frame};
use rma_core::{RmaContext, TableProvider};
use rma_relation::{AggSpec, Expr, Relation, RelationBuilder};

/// Named tables for `Frame::table` scans.
struct Tables(Vec<(&'static str, Relation)>);

impl TableProvider for Tables {
    fn table(&self, name: &str) -> Option<&Relation> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, r)| r)
    }
}

/// A small trips/stations schema shaped like `rma_data::trips`, plus two
/// side tables for the natural-join and cross-product cases.
fn tables() -> Tables {
    let n = 600i64;
    let trips = RelationBuilder::new()
        .column("id", (0..n).collect::<Vec<_>>())
        .column(
            "start_station",
            (0..n).map(|i| 6000 + i % 10).collect::<Vec<_>>(),
        )
        .column(
            "end_station",
            (0..n).map(|i| 6000 + i * i % 13 % 10).collect::<Vec<_>>(),
        )
        .column(
            "start_date",
            (0..n)
                .map(|i| format!("2014-04-{:02}", 1 + i % 28))
                .collect::<Vec<_>>(),
        )
        .column("member", (0..n).map(|i| i % 3 == 0).collect::<Vec<_>>())
        .column(
            "duration",
            (0..n).map(|i| (i * 37 % 101) as f64).collect::<Vec<_>>(),
        )
        .build()
        .unwrap();
    let stations = RelationBuilder::new()
        .column("code", (6000..6010i64).collect::<Vec<_>>())
        .column("name", (0..10).map(|i| format!("s{i}")).collect::<Vec<_>>())
        .column(
            "lat",
            (0..10).map(|i| 45.5 + i as f64 / 100.0).collect::<Vec<_>>(),
        )
        .column(
            "lon",
            (0..10).map(|i| -73.6 + i as f64 / 50.0).collect::<Vec<_>>(),
        )
        .build()
        .unwrap();
    let codes = RelationBuilder::new()
        .column("code", vec![6001i64, 6003, 6005])
        .column("name", vec!["s1", "x", "s5"])
        .build()
        .unwrap();
    let tags = RelationBuilder::new()
        .column("tag", vec!["a", "b", "c"])
        .column("w", vec![1i64, 2, 3])
        .build()
        .unwrap();
    Tables(vec![
        ("trips", trips),
        ("stations", stations),
        ("codes", codes),
        ("tags", tags),
    ])
}

/// `code AS {p}c, lat AS {p}lat, lon AS {p}lon FROM stations`.
fn stations_as(p: &str) -> Frame {
    Frame::table("stations").project_exprs(vec![
        (Expr::col("code"), format!("{p}c")),
        (Expr::col("lat"), format!("{p}lat")),
        (Expr::col("lon"), format!("{p}lon")),
    ])
}

/// The Fig. 15 trips preparation as the benchmark's `CREATE TABLE tp AS`
/// writes it: station pairs seen at least three times, joined back to the
/// trips and to both stations, with the distance regressor.
fn fig15_ctas() -> Frame {
    let pairs = Frame::table("trips")
        .aggregate(
            &["start_station", "end_station"],
            vec![AggSpec::count_star("n")],
        )
        .project_exprs(vec![
            (Expr::col("start_station"), "fs".to_string()),
            (Expr::col("end_station"), "fe".to_string()),
            (Expr::col("n"), "n".to_string()),
        ])
        .select(Expr::col("n").gt_eq(Expr::lit(3i64)))
        .project(&["fs", "fe"]);
    let d = |a: &str, b: &str, k: f64| Expr::col(a).sub(Expr::col(b)).mul(Expr::lit(k));
    let x1 = d("slat", "elat", 111.0)
        .mul(d("slat", "elat", 111.0))
        .add(d("slon", "elon", 78.0).mul(d("slon", "elon", 78.0)))
        .sqrt();
    Frame::table("trips")
        .join(pairs, &[("start_station", "fs"), ("end_station", "fe")])
        .join(stations_as("s"), &[("start_station", "sc")])
        .join(stations_as("e"), &[("end_station", "ec")])
        .project_exprs(vec![
            (Expr::col("id"), "id".to_string()),
            (Expr::lit(1.0), "x0".to_string()),
            (x1, "x1".to_string()),
            (Expr::col("duration"), "duration".to_string()),
        ])
}

/// The item lists of every `Project [..]` line of an EXPLAIN.
fn project_items(plan: &str) -> Vec<Vec<String>> {
    plan.lines()
        .filter_map(|l| l.trim_start().strip_prefix("Project ["))
        .map(|rest| {
            let list = &rest[..rest.find(']').expect("closing bracket")];
            list.split(", ").map(str::to_string).collect()
        })
        .collect()
}

/// Optimized and unoptimized execution of `frame` agree: row for row when
/// the plan fixes an order, as bags otherwise (join ordering may swap the
/// sides of a cross product).
fn assert_optimizer_invisible(frame: &Frame, provider: &Tables, ordered: bool) {
    let ctx = RmaContext::default();
    let optimized = frame.collect_with(&ctx, provider).unwrap();
    let plain = execute(frame.logical_plan(), &ctx, provider)
        .unwrap()
        .materialize();
    if ordered {
        assert_eq!(optimized, plain);
    } else {
        assert!(optimized.bag_equals(&plain), "{optimized:?}\n{plain:?}");
    }
}

#[test]
fn fig15_ctas_prunes_through_its_joins() {
    let provider = tables();
    let plan = fig15_ctas().explain_with(&RmaContext::default(), &provider);
    // the fact scan under the joins reads only what the CTAS and the join
    // keys need: start_date and member are gone everywhere
    assert!(
        plan.contains("Scan trips project=[id, start_station, end_station, duration]"),
        "{plan}"
    );
    assert!(
        plan.contains("Scan trips project=[start_station, end_station]"),
        "{plan}"
    );
    assert!(
        !plan.contains("start_date") && !plan.contains("member"),
        "{plan}"
    );
    // the stations scans drop their names
    assert_eq!(
        plan.matches("Scan stations project=[code, lat, lon]")
            .count(),
        2,
        "{plan}"
    );
    let mut projects = project_items(&plan);
    projects.iter_mut().for_each(|items| items.sort());
    // the join-order restoring projection under the CTAS's own keeps six
    // of its columns: the ones the distance and the output read
    let six: Vec<&Vec<String>> = projects.iter().filter(|items| items.len() == 6).collect();
    assert_eq!(
        six,
        [&["duration", "elat", "elon", "id", "slat", "slon"]],
        "{plan}"
    );
    // a join feeding a join drops the keys it consumed before the next
    // join gathers its rows
    for consumed in [
        vec!["duration", "end_station", "id", "start_station"],
        vec!["duration", "elat", "elon", "id", "start_station"],
    ] {
        assert!(
            projects.contains(&consumed.iter().map(|c| c.to_string()).collect()),
            "{plan}"
        );
    }
}

#[test]
fn fig15_ctas_returns_the_unoptimized_result() {
    let provider = tables();
    let out = fig15_ctas()
        .collect_with(&RmaContext::default(), &provider)
        .unwrap();
    assert!(!out.is_empty());
    let names: Vec<&str> = out.schema().names().collect();
    assert_eq!(names, ["id", "x0", "x1", "duration"]);
    let plain = execute(
        fig15_ctas().logical_plan(),
        &RmaContext::default(),
        &provider,
    )
    .unwrap();
    assert!(out.bag_equals(&plain));
}

#[test]
fn natural_join_distinct_union_and_rma_inputs_stay_unpruned() {
    let provider = tables();
    let ctx = RmaContext::default();
    let unpruned = |frame: Frame, scans: &[&str]| {
        let plan = frame.explain_with(&ctx, &provider);
        for scan in scans {
            let line = plan
                .lines()
                .find(|l| l.trim_start().starts_with(&format!("Scan {scan}")))
                .unwrap_or_else(|| panic!("no scan of {scan}:\n{plan}"));
            assert!(!line.contains("project="), "{scan} pruned:\n{plan}");
        }
    };
    // pruning `name` would drop it from the natural join's keys
    unpruned(
        Frame::table("stations")
            .natural_join(Frame::table("codes"))
            .project(&["lat"]),
        &["stations", "codes"],
    );
    // duplicates are over the whole row
    unpruned(
        Frame::table("stations").distinct().project(&["lat"]),
        &["stations"],
    );
    unpruned(
        Frame::table("tags")
            .union_all(Frame::table("tags"))
            .project(&["w"]),
        &["tags"],
    );
    // an RMA operation consumes every column of its argument
    unpruned(
        Frame::table("tags").tra(&["tag"]).project(&["C"]),
        &["tags"],
    );
}

#[test]
fn join_select_order_by_is_unchanged_by_pruning() {
    let provider = tables();
    let frame = Frame::table("trips")
        .join(stations_as("s"), &[("start_station", "sc")])
        .select(Expr::col("slat").gt(Expr::lit(45.53)))
        .order_by(&["duration", "id"], &[false, true])
        .project(&["id", "slon"]);
    let plan = frame.explain_with(&RmaContext::default(), &provider);
    assert!(
        plan.contains("Scan trips project=[id, start_station, duration]"),
        "{plan}"
    );
    assert_optimizer_invisible(&frame, &provider, true);
}

#[test]
fn cross_product_is_unchanged_by_pruning() {
    let provider = tables();
    let frame = Frame::table("stations")
        .cross(Frame::table("tags"))
        .select(Expr::col("w").gt(Expr::lit(1i64)))
        .project(&["lat", "tag"]);
    let plan = frame.explain_with(&RmaContext::default(), &provider);
    assert!(plan.contains("Scan stations project=[lat]"), "{plan}");
    assert!(!plan.contains("Scan tags project"), "{plan}");
    assert_optimizer_invisible(&frame, &provider, false);
    // nothing named above a cross product: COUNT(*) keeps both row counts
    let count = Frame::table("stations")
        .cross(Frame::table("tags"))
        .aggregate(&[], vec![AggSpec::count_star("n")]);
    assert_optimizer_invisible(&count, &provider, true);
}
