//! Order-schema handling: the typed sort, the key check, rank pairing and
//! relative sorting.
//!
//! - the typed sort equals the stable reference `sort_by(cmp_rows)` over
//!   selection-vector views, radix and comparator paths, key verdict
//!   included;
//! - a duplicate key — at the first, a middle or the last sorted position —
//!   is `OrderSchemaNotKey` under every sort mode;
//! - the row-aligned operations pair rows **by rank**: over disjoint key
//!   sets of different types they equal the `SortPolicy::Always` result (a
//!   key-equality probe would pair nothing);
//! - a relatively sorted `add`/`sub`/`emu` — the aligned side read through
//!   its alignment in the kernel's own pass — equals gather-then-combine
//!   bit for bit, over widened and encoded columns, views and every backend;
//! - a `Skip` split lends its float columns; the key verdict of every split
//!   that sorts comes from the sort; schema errors precede every sort;
//! - the order handling is visible apart from the kernel in a
//!   `TraceSession` and in `EXPLAIN ANALYZE`.

use rma_core::plan::Frame;
use rma_core::split::{split, SortMode};
use rma_core::{Backend, RmaContext, RmaError, RmaOp, RmaOptions, SortPolicy, TraceSession};
use rma_linalg::bat;
use rma_relation::{Relation, RelationBuilder};
use rma_storage::{
    cmp_rows, key_sort, Bitmap, Column, ColumnAccessor, ColumnData, Encoding, FloatsRef,
};
use std::borrow::Cow;

/// xorshift: deterministic test data without a dev-dependency.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut next = rng(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        idx.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    idx
}

fn ctx_with(threads: usize, backend: Backend, sort_policy: SortPolicy) -> RmaContext {
    RmaContext::new(RmaOptions {
        threads,
        backend,
        sort_policy,
        ..RmaOptions::default()
    })
}

fn floats(r: &Relation, name: &str) -> Vec<f64> {
    r.column(name).unwrap().to_f64_vec().unwrap()
}

#[test]
fn typed_sort_equals_the_stable_reference_over_views() {
    let n = 6000usize;
    let mut next = rng(7);
    let ids: Vec<i64> = shuffled(n, 11)
        .into_iter()
        .map(|i| i as i64 - 3000)
        .collect();
    let coarse: Vec<i64> = (0..n).map(|_| (next() % 9) as i64 - 4).collect();
    let reals: Vec<f64> = (0..n)
        .map(|_| match next() % 16 {
            0 => -0.0,
            1 => f64::NAN,
            2 => f64::NEG_INFINITY,
            _ => (next() % 500) as f64 / 8.0 - 30.0,
        })
        .collect();
    let words: Vec<String> = (0..n).map(|_| format!("w{:03}", next() % 700)).collect();
    let mask: Vec<bool> = (0..n).map(|_| next().is_multiple_of(5)).collect();
    let nullable = Column::with_nulls(
        ColumnData::Int((0..n).map(|_| (next() % 40) as i64).collect()),
        Bitmap::from_bools(&mask),
    )
    .unwrap();
    let base = RelationBuilder::new()
        .column("id", ids)
        .column("coarse", coarse)
        .column("real", reals)
        .column("word", words.clone())
        .column(
            "dict",
            Column::from(words).encode_as(Encoding::Dict).unwrap(),
        )
        .column("nullable", nullable)
        .column(
            "day",
            Column::new(ColumnData::Date(
                (0..n).map(|_| (next() % 3000) as i32 - 1500).collect(),
            )),
        )
        .column(
            "flag",
            (0..n)
                .map(|_| next().is_multiple_of(2))
                .collect::<Vec<bool>>(),
        )
        .build()
        .unwrap();
    // packed / run-length physical forms where the data admits them
    let encoded = base.encoded();
    let keep: Vec<bool> = (0..n).map(|i| i % 7 != 3).collect();
    let views = [
        ("compact", base.clone()),
        ("filtered", base.filter(&keep)),
        ("permuted", base.take(&shuffled(n, 23)[..4000])),
        ("encoded slice", encoded.slice(500..5500)),
    ];
    let schemas: [&[&str]; 9] = [
        &["id"],
        &["real"],
        &["day"],
        &["flag"],
        &["dict"],
        &["word"],
        &["nullable"],
        &["coarse", "real"],
        &["word", "nullable", "id"],
    ];
    for (what, view) in &views {
        for order in schemas {
            let cols = view.columns_of(order).unwrap();
            let mut reference: Vec<usize> = (0..view.len()).collect();
            reference.sort_by(|&a, &b| cmp_rows(&cols, a, b));
            let unique = reference
                .windows(2)
                .all(|w| cmp_rows(&cols, w[0], w[1]) != std::cmp::Ordering::Equal);
            let sorted = key_sort(&cols);
            assert_eq!(sorted.unique, unique, "{what} {order:?}");
            assert_eq!(sorted.into_perm(view.len()), reference, "{what} {order:?}");
        }
    }
}

/// `n` distinct keys with the key at sorted position `dup_at` repeated
/// once, physically shuffled.
fn with_duplicate(n: usize, dup_at: usize, seed: u64) -> Relation {
    let mut keys: Vec<i64> = (0..n as i64).map(|k| 10 * k).collect();
    keys.push(10 * dup_at as i64);
    let order = shuffled(keys.len(), seed);
    let keys: Vec<i64> = order.iter().map(|&i| keys[i]).collect();
    let rows = keys.len();
    RelationBuilder::new()
        .column("k", keys)
        .column("x", (0..rows).map(|i| i as f64).collect::<Vec<f64>>())
        .build()
        .unwrap()
}

#[test]
fn a_duplicate_key_is_rejected_under_every_sort_mode() {
    for n in [5usize, 3000] {
        let clean = RelationBuilder::new()
            .column("k2", (0..=n as i64).rev().collect::<Vec<i64>>())
            .column("y", vec![1.0f64; n + 1])
            .build()
            .unwrap();
        let ranks = split(&clean, &["k2"], SortMode::Rank, None).unwrap().perm;
        for dup_at in [0, n / 2, n - 1] {
            let dup = with_duplicate(n, dup_at, 5 + dup_at as u64);
            let not_key = |r: Result<_, RmaError>| {
                assert!(
                    matches!(&r, Err(RmaError::OrderSchemaNotKey(k)) if k == &vec!["k".to_string()]),
                    "n={n} dup_at={dup_at}"
                )
            };
            for mode in [
                SortMode::Full,
                SortMode::Skip,
                SortMode::Rank,
                SortMode::AlignTo,
            ] {
                not_key(split(&dup, &["k"], mode, ranks.clone()).map(|_| ()));
            }
            for threads in [1, 2] {
                // and through the operations, under both policies; every
                // split of an aligned op sorts (`Rank`/`AlignTo`, or `Full`
                // under `Always`), so on either side the verdict is the sort's
                for policy in [SortPolicy::Optimized, SortPolicy::Always] {
                    let ctx = ctx_with(threads, Backend::Auto, policy);
                    not_key(ctx.add(&dup, &["k"], &clean, &["k2"]).map(|_| ()));
                    not_key(ctx.add(&clean, &["k2"], &dup, &["k"]).map(|_| ()));
                    not_key(ctx.cpd(&clean, &["k2"], &dup, &["k"]).map(|_| ()));
                    not_key(ctx.qqr(&dup, &["k"]).map(|_| ()));
                    not_key(ctx.tra(&dup, &["k"]).map(|_| ()));
                }
            }
        }
    }
}

#[test]
fn aligned_operations_pair_by_rank_not_by_key_equality() {
    // disjoint key sets of different types: 10↔1.0, 20↔2.0, 30↔3.0, …
    for n in [3usize, 2500] {
        let r_rows = shuffled(n, 3);
        let s_rows = shuffled(n, 4);
        let small = |i: usize, salt: usize| ((i * 7 + salt) % 13) as f64 - 6.0;
        let r = RelationBuilder::new()
            .column(
                "k",
                r_rows
                    .iter()
                    .map(|&i| 10 * (i as i64 + 1))
                    .collect::<Vec<i64>>(),
            )
            .column(
                "a",
                r_rows.iter().map(|&i| small(i, 1)).collect::<Vec<f64>>(),
            )
            .column(
                "b",
                r_rows.iter().map(|&i| small(i, 5)).collect::<Vec<f64>>(),
            )
            .build()
            .unwrap();
        let s = RelationBuilder::new()
            .column(
                "k2",
                s_rows.iter().map(|&i| i as f64 + 1.0).collect::<Vec<f64>>(),
            )
            .column(
                "c",
                s_rows.iter().map(|&i| small(i, 2)).collect::<Vec<f64>>(),
            )
            .column(
                "d",
                s_rows.iter().map(|&i| small(i, 9)).collect::<Vec<f64>>(),
            )
            .build()
            .unwrap();
        for backend in [Backend::Auto, Backend::Bat, Backend::Dense] {
            for threads in [1, 2, 4] {
                let fast = ctx_with(threads, backend, SortPolicy::Optimized);
                let always = ctx_with(threads, backend, SortPolicy::Always);
                for op in [RmaOp::Add, RmaOp::Sub, RmaOp::Emu] {
                    let got = fast.binary(op, &r, &["k"], &s, &["k2"]).unwrap();
                    let want = always.binary(op, &r, &["k"], &s, &["k2"]).unwrap();
                    // r stays in physical order under the optimised policy
                    assert_eq!(got.column("k").unwrap(), r.column("k").unwrap());
                    assert!(
                        got.bag_equals(&want),
                        "{op:?} {backend:?} threads={threads} n={n}"
                    );
                    // and the pairing is the rank pairing, spelled out
                    let (k, k2) = (floats(&got, "k"), floats(&got, "k2"));
                    assert!(k.iter().zip(&k2).all(|(k, k2)| *k == 10.0 * k2));
                }
                // integer-valued cells: the column sums of cpd are exact
                // whatever the row order
                let got = fast.cpd(&r, &["k"], &s, &["k2"]).unwrap();
                let want = always.cpd(&r, &["k"], &s, &["k2"]).unwrap();
                assert_eq!(got, want, "cpd {backend:?} threads={threads} n={n}");
            }
        }
    }
    // sol: a square, well-conditioned system with permuted rows
    let a = RelationBuilder::new()
        .column("k", vec![30i64, 10, 20])
        .column("x", vec![1.0f64, 4.0, 2.0])
        .column("y", vec![2.0f64, 1.0, 5.0])
        .column("z", vec![6.0f64, 2.0, 1.0])
        .build()
        .unwrap();
    let b = RelationBuilder::new()
        .column("k2", vec![2.0f64, 3.0, 1.0])
        .column("rhs", vec![9.0f64, 8.0, 7.0])
        .build()
        .unwrap();
    let got = ctx_with(2, Backend::Auto, SortPolicy::Optimized)
        .sol(&a, &["k"], &b, &["k2"])
        .unwrap();
    let want = ctx_with(2, Backend::Auto, SortPolicy::Always)
        .sol(&a, &["k"], &b, &["k2"])
        .unwrap();
    for (g, w) in floats(&got, "rhs").iter().zip(floats(&want, "rhs")) {
        assert!((g - w).abs() < 1e-9, "sol {g} vs {w}");
    }
}

/// One argument of the element-wise parity test: `rows + extra` physical
/// rows, where rows `lo..lo + rows` (`lo = extra / 2`) hold the keys
/// `0..rows` shuffled and the others hold larger keys — so the range view
/// `lo..lo + rows` and the filter `key < rows` both see exactly the keys
/// `0..rows`. Application columns: a plain float, a plain `Int` (widened),
/// an RLE float and a bit-packed `Int`.
fn elementwise_side(key: &str, app: [&str; 4], rows: usize, extra: usize, seed: u64) -> Relation {
    let mut next = rng(seed);
    let lo = extra / 2;
    let mut keys: Vec<i64> = (rows..rows + extra).map(|k| k as i64).collect();
    let inner = shuffled(rows, seed).into_iter().map(|k| k as i64);
    keys.splice(lo..lo, inner);
    let total = keys.len();
    let plain: Vec<f64> = (0..total)
        .map(|_| f64::from_bits(0x3ff0_0000_0000_0000 | (next() >> 12)) * 1e3 - 1.5e3)
        .collect();
    let ints: Vec<i64> = (0..total).map(|_| (next() % 2001) as i64 - 1000).collect();
    let runs: Vec<f64> = (0..total)
        .map(|i| ((i / 40) % 7) as f64 * 0.375 - 1.0)
        .collect();
    let narrow: Vec<i64> = (0..total).map(|_| (next() % 200) as i64 - 50).collect();
    RelationBuilder::new()
        .column(key, keys)
        .column(app[0], plain)
        .column(app[1], ints)
        .column(app[2], Column::from(runs).encode_as(Encoding::Rle).unwrap())
        .column(
            app[3],
            Column::from(narrow).encode_as(Encoding::Packed).unwrap(),
        )
        .build()
        .unwrap()
}

/// The three ways an argument reaches the operation: compact (encodings
/// kept), a range view (encodings kept through the slice) and an index
/// view (compacted by gather).
fn elementwise_views(base: &Relation, key: &str, rows: usize, extra: usize) -> Vec<Relation> {
    let lo = extra / 2;
    let keep: Vec<bool> = floats(base, key).iter().map(|&k| k < rows as f64).collect();
    let range = base.slice(lo..lo + rows);
    vec![range.materialize(), range, base.filter(&keep)]
}

#[test]
fn relative_sorting_add_equals_gather_then_add_bit_for_bit() {
    let (n, extra) = (3000usize, 600usize);
    let r_base = elementwise_side("k", ["a", "b", "c", "d"], n, extra, 1);
    let s_base = elementwise_side("k2", ["e", "f", "g", "h"], n, extra, 2);
    let apps = [["a", "b", "c", "d"], ["e", "f", "g", "h"]];
    for r in elementwise_views(&r_base, "k", n, extra) {
        for s in elementwise_views(&s_base, "k2", n, extra) {
            // the reference: gather s into r's physical order by key, then
            // combine with the plain element-wise kernel
            let r_keys = floats(&r, "k");
            let mut s_row_of = vec![0usize; n];
            for (row, k) in floats(&s, "k2").into_iter().enumerate() {
                s_row_of[k as usize] = row;
            }
            let r_cols: Vec<Vec<f64>> = apps[0].iter().map(|c| floats(&r, c)).collect();
            let gathered: Vec<Vec<f64>> = apps[1]
                .iter()
                .map(|c| {
                    let col = floats(&s, c);
                    r_keys.iter().map(|&k| col[s_row_of[k as usize]]).collect()
                })
                .collect();
            let wants = [
                (RmaOp::Add, bat::add(&r_cols, &gathered).unwrap()),
                (RmaOp::Sub, bat::sub(&r_cols, &gathered).unwrap()),
                (RmaOp::Emu, bat::emu(&r_cols, &gathered).unwrap()),
            ];
            for backend in [Backend::Auto, Backend::Bat, Backend::Dense] {
                for threads in [1, 2] {
                    for (op, want) in &wants {
                        let ctx = ctx_with(threads, backend, SortPolicy::Optimized);
                        let got = ctx.binary(*op, &r, &["k"], &s, &["k2"]).unwrap();
                        assert_eq!(ctx.stats().sorts, 2);
                        assert_eq!(got.column("k").unwrap(), got.column("k2").unwrap());
                        let what = format!(
                            "{op:?} {backend:?} threads={threads} views={}/{}",
                            r.is_view(),
                            s.is_view()
                        );
                        for (name, want) in apps[0].iter().zip(want) {
                            let got: Vec<u64> =
                                floats(&got, name).iter().map(|x| x.to_bits()).collect();
                            let want: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
                            assert_eq!(got, want, "{name} {what}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn a_skip_split_lends_its_float_columns() {
    let r = elementwise_side("k", ["a", "b", "c", "d"], 500, 0, 3);
    let stored = |name: &str| match r.column(name).unwrap().accessor() {
        ColumnAccessor::Float(FloatsRef::Slice(v)) => v,
        other => panic!("{name} is not a plain float column: {other:?}"),
    };
    let lends_a = |app: &Cow<'_, [f64]>| match app {
        Cow::Borrowed(lent) => std::ptr::eq(*lent, stored("a")),
        Cow::Owned(_) => false,
    };
    let skip = split(&r, &["k"], SortMode::Skip, None).unwrap();
    assert!(lends_a(&skip.app[0]), "the plain float column is lent");
    // widened, decoded: owned, never through the decode sink
    for (app, name) in skip.app.iter().zip(&skip.app_names).skip(1) {
        assert!(matches!(app, Cow::Owned(_)), "{name}");
        assert_eq!(app.as_ref(), floats(&r, name).as_slice(), "{name}");
    }
    // the relation an aligned operation keeps in place and the aligned side
    // itself both lend; a full sort gathers
    let rank = split(&r, &["k"], SortMode::Rank, None).unwrap();
    assert!(lends_a(&rank.app[0]));
    let first = Some(shuffled(500, 9));
    let aligned = split(&r, &["k"], SortMode::AlignTo, first).unwrap();
    assert!(lends_a(&aligned.app[0]) && aligned.align.is_some());
    let full = split(&r, &["k"], SortMode::Full, None).unwrap();
    assert!(!lends_a(&full.app[0]));
}

#[test]
fn schema_errors_are_raised_before_any_sort() {
    // `r`'s order schema is not a key: a split would report that first, so
    // getting the schema error proves no split ran
    let r = with_duplicate(50, 10, 3);
    let narrow = RelationBuilder::new()
        .column("k2", (0..51i64).collect::<Vec<i64>>())
        .column("y", vec![1.0f64; 51])
        .column("z", vec![2.0f64; 51])
        .build()
        .unwrap();
    let same_key = RelationBuilder::new()
        .column("k", (0..51i64).collect::<Vec<i64>>())
        .column("y", vec![1.0f64; 51])
        .build()
        .unwrap();
    for policy in [SortPolicy::Optimized, SortPolicy::Always] {
        let ctx = ctx_with(1, Backend::Auto, policy);
        for op in [RmaOp::Add, RmaOp::Sub, RmaOp::Emu] {
            assert!(matches!(
                ctx.binary(op, &r, &["k"], &narrow, &["k2"]),
                Err(RmaError::ApplicationNotUnionCompatible)
            ));
            assert!(matches!(
                ctx.binary(op, &r, &["k"], &same_key, &["k"]),
                Err(RmaError::OverlappingOrderSchemas(name)) if name == "k"
            ));
        }
        assert_eq!(ctx.stats().sorts, 0, "{policy:?}");
    }
}

#[test]
fn order_handling_shows_apart_from_the_kernel() {
    let n = 4000usize;
    let rel = |key: &str, app: &str, seed: u64| {
        RelationBuilder::new()
            .name(key)
            .column(
                key,
                shuffled(n, seed)
                    .into_iter()
                    .map(|i| i as i64)
                    .collect::<Vec<i64>>(),
            )
            .column(app, (0..n).map(|i| i as f64).collect::<Vec<f64>>())
            .build()
            .unwrap()
    };
    let (r, s) = (rel("k", "x", 1), rel("k2", "y", 2));
    let ctx = ctx_with(2, Backend::Auto, SortPolicy::Optimized);
    let frame = Frame::scan(r).add(&["k"], Frame::scan(s), &["k2"]);

    let session = TraceSession::start();
    let out = frame.collect(&ctx).unwrap();
    let spans = session.finish();
    assert_eq!(out.len(), n);
    let untraced = frame.collect(&ctx).unwrap();
    assert_eq!(
        floats(&out, "x"),
        floats(&untraced, "x"),
        "tracing changed the result"
    );
    // the session holds this query's spans only
    let named = |name: &str, rows: usize| {
        let matching: Vec<_> = spans.iter().filter(|s| s.name == name).collect();
        assert!(
            matching
                .iter()
                .all(|s| s.cat == "rma" && s.rows_in == rows as u64),
            "{name}: {matching:?}"
        );
        matching.len()
    };
    assert_eq!(named("rma.sort", n), 2, "one rma.sort per sorted side");
    assert_eq!(named("rma.align", n), 1, "the aligned side's gather");
    assert_eq!(named("rma.merge", 2 * n), 1);

    let text = frame.explain_analyze(&ctx).unwrap();
    let rma_line = text
        .lines()
        .find(|l| l.trim_start().starts_with("Rma ADD"))
        .unwrap_or_else(|| panic!("no Rma line in\n{text}"));
    assert!(
        rma_line.contains(" order=") && rma_line.contains(" kernel="),
        "{rma_line}"
    );
    // only RMA nodes carry the split
    assert!(
        text.lines().filter(|l| l.contains(" order=")).count() == 1,
        "{text}"
    );
}

#[test]
fn the_key_verdict_is_the_sorts_under_every_policy_and_check() {
    let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
    let nan_b = f64::from_bits(0x7ff8_0000_0000_0002);
    // equality is `Column::cmp_rows`' (`total_cmp`): signed zeros and NaN
    // payloads are distinct keys, equal bits are one
    let cases = [
        ([0.0, -0.0, 1.0], true),
        ([nan_a, nan_b, 1.0], true),
        ([0.0, 0.0, 1.0], false),
        ([nan_a, nan_a, 1.0], false),
    ];
    for (keys, key) in cases {
        // a square, non-singular application part, so INV runs too
        let r = RelationBuilder::new()
            .column("f", keys.to_vec())
            .column("a", vec![2.0f64, 0.0, 0.0])
            .column("b", vec![0.0f64, 3.0, 0.0])
            .column("c", vec![0.0f64, 0.0, 4.0])
            .build()
            .unwrap();
        let what = format!("{keys:?}");
        let col = r.column("f").unwrap();
        assert_eq!(key_sort(&[col]).unique, key, "{what}: the sort");
        assert_eq!(
            r.attrs_form_key(&["f"]).unwrap(),
            key,
            "{what}: attrs_form_key"
        );
        let asserted = Frame::scan(r.clone())
            .assert_key(&["f"])
            .collect(&RmaContext::default());
        assert_eq!(asserted.is_ok(), key, "{what}: AssertKey");
        for policy in [SortPolicy::Optimized, SortPolicy::Always] {
            let ctx = ctx_with(1, Backend::Auto, policy);
            for (op, out) in [("QQR", ctx.qqr(&r, &["f"])), ("INV", ctx.inv(&r, &["f"]))] {
                match out {
                    Ok(_) => assert!(key, "{what}: {op} under {policy:?} accepted a non-key"),
                    Err(RmaError::OrderSchemaNotKey(_)) => {
                        assert!(!key, "{what}: {op} under {policy:?} rejected a key")
                    }
                    Err(e) => panic!("{what}: {op} under {policy:?}: {e}"),
                }
            }
        }
        for mode in [SortMode::Full, SortMode::Skip] {
            let verdict = split(&r, &["f"], mode, None).is_ok();
            assert_eq!(verdict, key, "{what}: split under {mode:?}");
        }
    }
}
