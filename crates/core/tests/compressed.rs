//! Compressed-execution tests (PR 10): encoded storage is an execution
//! detail, never a semantic one. For randomly generated encodable
//! relations — with and without nulls — every plan shape must produce the
//! same rows whether it scans the plain or the encoded form, across the
//! Auto/Bat/Dense backends and worker-thread counts {1, 2, 4}. On top of
//! the parity property, the encoded fast paths are pinned down exactly:
//! a dictionary-predicate filter and an RLE aggregate must finish with
//! **zero** `Column::decoded()` sinks, counted on the query's own
//! [`QueryGuard`](rma_relation::QueryGuard), and the serving layer must report
//! per-column encodings in `EXPLAIN` and the storage footprint in its
//! metrics JSON.
//!
//! Float columns hold small integer values so sums are exact under any
//! association, making parallel/serial and encoded/plain aggregates
//! bitwise-comparable.

use proptest::prelude::*;
use rma_core::plan::Frame;
use rma_core::serve::Server;
use rma_core::{Backend, RmaContext, RmaOptions};
use rma_relation::{AggFunc, AggSpec, Expr, QueryGuard, Relation, RelationBuilder};
use rma_storage::{Bitmap, Column, ColumnData, Encoding};

const REGIONS: [&str; 4] = ["west", "east", "north", "south"];

/// An encodable relation: clustered low-cardinality strings (dictionary),
/// long integer runs (RLE), a narrow value range (bit-packing), blocked
/// integer-valued floats (RLE), and a shuffled distinct key `k` that stays
/// plain and makes ORDER BY deterministic. `null_every > 0` NULLs every
/// n-th row of the `status` column (the bitmap rides along into the
/// encoded form untouched).
fn gen_rel(rows: usize, null_every: usize, rng: &mut TestRng) -> Relation {
    let mut keys: Vec<i64> = (0..rows as i64).collect();
    for i in (1..rows).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        keys.swap(i, j);
    }
    let status_vals: Vec<i64> = (0..rows as i64).map(|i| (i / 128) % 5).collect();
    let status = if null_every > 0 {
        let nulls: Vec<bool> = (0..rows).map(|i| i % null_every == 0).collect();
        Column::with_nulls(ColumnData::Int(status_vals), Bitmap::from_bools(&nulls)).unwrap()
    } else {
        Column::from(status_vals)
    };
    let qty: Vec<i64> = (0..rows).map(|_| (rng.next_u64() % 251) as i64).collect();
    RelationBuilder::new()
        .name("t")
        .column(
            "region",
            (0..rows)
                .map(|i| REGIONS[(i / 64) % 4])
                .collect::<Vec<&str>>(),
        )
        .column("status", status)
        .column("qty", qty)
        .column(
            "amount",
            (0..rows)
                .map(|i| ((i / 64) % 6) as f64)
                .collect::<Vec<f64>>(),
        )
        .column("k", keys)
        .build()
        .expect("valid relation")
}

/// A small build side keyed (with duplicates) on `s2`, join-compatible
/// with the `status` column.
fn gen_side(rng: &mut TestRng) -> Relation {
    let rows = 16 + (rng.next_u64() % 16) as usize;
    let s2: Vec<i64> = (0..rows).map(|_| (rng.next_u64() % 6) as i64).collect();
    let w: Vec<f64> = (0..rows).map(|_| (rng.next_u64() % 9) as f64).collect();
    RelationBuilder::new()
        .column("s2", s2)
        .column("w", w)
        .build()
        .expect("valid relation")
}

/// One of the plan shapes the encoded kernels serve: a dictionary-string
/// filter, selections of varying selectivity under aggregation, a hash
/// join keyed on an RLE column, ORDER BY + LIMIT over a filter, and the
/// whole-column ungrouped aggregate.
fn shaped(src: Frame, kind: usize, sel: u64, side: &Relation) -> Frame {
    match kind {
        0 => src
            .select(Expr::col("region").eq(Expr::lit(REGIONS[(sel % 4) as usize])))
            .project(&["k", "qty"]),
        1 => src
            .select(Expr::col("qty").lt(Expr::lit((sel % 260) as i64)))
            .aggregate(
                &["status"],
                vec![
                    AggSpec::count_star("n"),
                    AggSpec::sum("amount", "sa"),
                    AggSpec::new(AggFunc::Min, Some("qty"), "lo"),
                    AggSpec::new(AggFunc::Max, Some("qty"), "hi"),
                ],
            ),
        2 => src
            .join(Frame::scan(side.clone()), &[("status", "s2")])
            .select(Expr::col("w").gt_eq(Expr::lit(2.0))),
        3 => src
            .select(Expr::col("amount").gt(Expr::lit((sel % 6) as f64 - 1.0)))
            .order_by(&["k"], &[true])
            .limit(50),
        _ => src.aggregate(
            &[],
            vec![AggSpec::sum("amount", "sa"), AggSpec::count_star("n")],
        ),
    }
}

fn ctx(backend: Backend, threads: usize) -> RmaContext {
    RmaContext::new(RmaOptions {
        backend,
        threads,
        ..RmaOptions::default()
    })
}

/// Joins and aggregates define bags, not sequences: parity compares
/// sorted row renderings unless the plan itself orders.
fn sorted_rows(r: &Relation) -> Vec<String> {
    let mut v: Vec<String> = r.rows().map(|row| format!("{row:?}")).collect();
    v.sort();
    v
}

fn rows_in_order(r: &Relation) -> Vec<String> {
    r.rows().map(|row| format!("{row:?}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Encode → operate → materialize parity: each shape over the encoded
    /// relation matches the serial plain-scan golden result at every
    /// backend × thread-count combination.
    #[test]
    fn encoded_execution_equals_plain(
        (rows, kind, nulls) in (500usize..1500, 0usize..5, 0usize..3),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = TestRng::from_seed_u64(seed);
        let plain = gen_rel(rows, [0, 3, 7][nulls], &mut rng);
        let encoded = plain.encoded();
        prop_assert!(
            encoded.columns().iter().any(|c| c.is_encoded()),
            "workload failed to encode"
        );
        let side = gen_side(&mut rng);
        let sel = rng.next_u64();
        let golden = shaped(Frame::scan(plain), kind, sel, &side)
            .collect(&ctx(Backend::Auto, 1))
            .expect("plain golden run");
        let ordered = kind == 3;
        for backend in [Backend::Auto, Backend::Bat, Backend::Dense] {
            for threads in [1usize, 2, 4] {
                let got = shaped(Frame::scan(encoded.clone()), kind, sel, &side)
                    .collect(&ctx(backend, threads))
                    .expect("encoded run");
                if ordered {
                    prop_assert_eq!(
                        rows_in_order(&got),
                        rows_in_order(&golden),
                        "order divergence: {:?} x{}", backend, threads
                    );
                } else {
                    prop_assert_eq!(
                        sorted_rows(&got),
                        sorted_rows(&golden),
                        "row divergence: {:?} x{}", backend, threads
                    );
                }
            }
        }
    }
}

/// The dictionary-predicate fast path: filter on a dict-encoded string
/// column + COUNT(*) runs entirely on codes — zero forced decodes — and
/// still agrees with the plain scan.
#[test]
fn dict_predicate_filter_runs_without_decode_sinks() {
    let mut rng = TestRng::from_seed_u64(7);
    let plain = gen_rel(4096, 0, &mut rng);
    let encoded = plain.encoded();
    assert_eq!(encoded.columns()[0].encoding(), Encoding::Dict);
    let frame = |src: Frame| {
        src.select(Expr::col("region").eq(Expr::lit("west")))
            .aggregate(&[], vec![AggSpec::count_star("n")])
    };
    let c = ctx(Backend::Auto, 1);
    let guard = QueryGuard::new();
    let active = guard.activate();
    let got = frame(Frame::scan(encoded)).collect(&c).expect("encoded");
    drop(active);
    assert_eq!(
        guard.decode_sinks(),
        0,
        "dict filter + count must not force a decode"
    );
    let want = frame(Frame::scan(plain)).collect(&c).expect("plain");
    assert_eq!(sorted_rows(&got), sorted_rows(&want));
}

/// The run-aware aggregate fast path: SUM over an RLE float column is
/// value×run-length arithmetic on the runs — zero forced decodes.
#[test]
fn rle_aggregate_runs_without_decode_sinks() {
    let mut rng = TestRng::from_seed_u64(11);
    let plain = gen_rel(4096, 0, &mut rng);
    let encoded = plain.encoded();
    assert_eq!(encoded.columns()[3].encoding(), Encoding::Rle);
    let frame = |src: Frame| src.aggregate(&[], vec![AggSpec::sum("amount", "sa")]);
    let c = ctx(Backend::Auto, 1);
    let guard = QueryGuard::new();
    let active = guard.activate();
    let got = frame(Frame::scan(encoded)).collect(&c).expect("encoded");
    drop(active);
    assert_eq!(guard.decode_sinks(), 0, "RLE sum must not force a decode");
    let want = frame(Frame::scan(plain)).collect(&c).expect("plain");
    assert_eq!(sorted_rows(&got), sorted_rows(&want));
}

/// Serving-layer observability: the catalog encodes at ingest, `EXPLAIN`
/// renders each scanned table's per-column encodings with the live
/// byte footprint, and the metrics JSON carries the decode-sink count and
/// the encoded/plain storage bytes of every installed generation.
#[test]
fn catalog_tables_report_encodings_in_explain_and_metrics() {
    let mut rng = TestRng::from_seed_u64(3);
    let server = Server::default();
    let session = server.session();
    session
        .create_table("t", gen_rel(4096, 0, &mut rng))
        .expect("create t");

    let snap = session.pin();
    let text = Frame::table("t")
        .select(Expr::col("region").eq(Expr::lit("west")))
        .explain_with(server.context(), &snap);
    assert!(
        text.contains(" enc=["),
        "missing encoding annotation:\n{text}"
    );
    assert!(
        text.contains("region:dict("),
        "region not dict-encoded:\n{text}"
    );
    assert!(
        text.contains("amount:rle("),
        "amount not RLE-encoded:\n{text}"
    );

    let metrics = server.metrics_snapshot();
    assert!(metrics.storage_encoded_bytes > 0);
    // the few-distinct shape compresses at least 2x
    assert!(
        metrics.storage_plain_bytes >= 2 * metrics.storage_encoded_bytes,
        "catalog storage must report a real compression win: {} encoded vs {} plain",
        metrics.storage_encoded_bytes,
        metrics.storage_plain_bytes
    );
    let json = metrics.to_json();
    for key in [
        "\"decode_sinks\"",
        "\"storage_encoded_bytes\"",
        "\"storage_plain_bytes\"",
    ] {
        assert!(json.contains(key), "metrics JSON missing {key}: {json}");
    }
}

/// `EXPLAIN ANALYZE` surfaces forced decodes per node (` sinks=N`), and a
/// session attributes them to its counters: a query that must materialize
/// plain values out of encoded storage reports a nonzero sink count in
/// the server metrics, while the encoded fast-path query — and a matrix
/// operation, which reads its application part through the column
/// accessors — stays at zero.
#[test]
fn decode_sinks_attribute_to_sessions_and_explain() {
    let mut rng = TestRng::from_seed_u64(5);
    // serial on purpose: the guaranteed-sink half of this test evaluates an
    // expression through `Column::decoded()` on the serial interpreter
    let server = Server::new(ctx(Backend::Auto, 1));
    let session = server.session();
    session
        .create_table("t", gen_rel(4096, 0, &mut rng))
        .expect("create t");

    // encoded fast path: no sinks recorded anywhere
    session
        .query(
            Frame::table("t")
                .select(Expr::col("region").eq(Expr::lit("west")))
                .aggregate(&[], vec![AggSpec::count_star("n")]),
        )
        .expect("fast-path query");
    assert_eq!(server.metrics_snapshot().decode_sinks, 0);

    // a matrix operation over the RLE `amount` column decodes it through
    // the accessor into its own f64 column: no sink either
    session
        .query(Frame::table("t").project(&["k", "amount"]).qqr(&["k"]))
        .expect("qqr query");
    assert_eq!(
        server.metrics_snapshot().decode_sinks,
        0,
        "the RMA split must read encoded columns through the accessors"
    );

    // arithmetic on an encoded column needs its plain vector: forced decode
    let negated = |table: &str| {
        Frame::table(table).project_exprs(vec![(
            Expr::Neg(Box::new(Expr::col("amount"))),
            "neg".to_string(),
        )])
    };
    session.query(negated("t")).expect("sinking query");
    assert!(
        server.metrics_snapshot().decode_sinks > 0,
        "materializing query must count its decode sinks"
    );

    // every decode is a sink of its own: the analyzed rerun over the same
    // table decodes `amount` again and reports it
    let snap = session.pin();
    let analyzed = negated("t")
        .explain_analyze_with(server.context(), &snap)
        .expect("analyze");
    assert!(
        analyzed.contains(" sinks="),
        "EXPLAIN ANALYZE must annotate forced decodes:\n{analyzed}"
    );
}
