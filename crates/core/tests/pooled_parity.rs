//! Property test: pooled execution parity. Every operator that enlists the
//! worker pool — parallel sort, top-k (the Limit-into-Sort rewrite), hash
//! joins, and aggregation — produces *exactly* the serial interpreter's
//! relation (same rows, same order) at every pool width of the parity
//! harness (`parity::POOL_WIDTHS`) across the Auto/Bat/Dense backends, including null-heavy and pre-sorted inputs.
//!
//! The pool makes this non-trivial in a new way: morsel jobs now run on
//! long-lived parked workers instead of fresh scoped threads, and sort adds
//! per-worker local runs + a k-way merge whose tie-breaking must reproduce
//! the serial stable sort bit for bit.
//!
//! Float columns hold small integer values so parallel partial-sum merges
//! are exact (same contract as the earlier parity suites).

mod parity;

use parity::at_every_width;
use proptest::prelude::*;
use rma_core::plan::Frame;
use rma_core::Backend;
use rma_relation::{AggFunc, AggSpec, Expr, Relation, RelationBuilder};
use rma_storage::{Column, DataType, Value};

/// Input shapes the sort paths care about: shuffled, already sorted,
/// reverse-sorted, and heavily duplicated keys.
#[derive(Debug, Clone, Copy)]
enum KeyShape {
    Shuffled,
    PreSorted,
    Reversed,
    FewDistinct,
}

const KEY_SHAPES: [KeyShape; 4] = [
    KeyShape::Shuffled,
    KeyShape::PreSorted,
    KeyShape::Reversed,
    KeyShape::FewDistinct,
];

/// A relation with a sort key `s` of the given shape, a nullable
/// integer-valued float `x` (~30% nulls), a nullable grouping column `g`,
/// and a distinct row id for order-sensitive assertions.
fn gen_rel(rows: usize, shape: KeyShape, rng: &mut TestRng) -> Relation {
    let s: Vec<i64> = match shape {
        KeyShape::Shuffled => {
            let mut keys: Vec<i64> = (0..rows as i64).collect();
            for i in (1..rows).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                keys.swap(i, j);
            }
            keys
        }
        KeyShape::PreSorted => (0..rows as i64).collect(),
        KeyShape::Reversed => (0..rows as i64).rev().collect(),
        KeyShape::FewDistinct => (0..rows).map(|_| (rng.next_u64() % 5) as i64).collect(),
    };
    let x: Vec<Value> = (0..rows)
        .map(|_| {
            if rng.next_u64() % 10 < 3 {
                Value::Null
            } else {
                Value::Float((rng.next_u64() % 17) as f64 - 8.0)
            }
        })
        .collect();
    let g: Vec<Value> = (0..rows)
        .map(|_| {
            if rng.next_u64() % 10 < 3 {
                Value::Null
            } else {
                Value::Int((rng.next_u64() % 7) as i64)
            }
        })
        .collect();
    let id: Vec<i64> = (0..rows as i64).collect();
    RelationBuilder::new()
        .name("r")
        .column("s", s)
        .column(
            "x",
            Column::from_values_typed(DataType::Float, &x).expect("x column"),
        )
        .column(
            "g",
            Column::from_values_typed(DataType::Int, &g).expect("g column"),
        )
        .column("id", id)
        .build()
        .expect("valid relation")
}

/// A small join side keyed (with duplicates and some nulls) on `g2`.
fn gen_side(rng: &mut TestRng) -> Relation {
    let rows = 15 + (rng.next_u64() % 25) as usize;
    let g2: Vec<Value> = (0..rows)
        .map(|_| {
            if rng.next_u64() % 10 < 2 {
                Value::Null
            } else {
                Value::Int((rng.next_u64() % 8) as i64)
            }
        })
        .collect();
    let w: Vec<f64> = (0..rows).map(|_| (rng.next_u64() % 13) as f64).collect();
    RelationBuilder::new()
        .column(
            "g2",
            Column::from_values_typed(DataType::Int, &g2).expect("g2 column"),
        )
        .column("w", w)
        .build()
        .expect("valid relation")
}

/// Plan shapes: full sort (multi-key, mixed directions, nullable keys),
/// top-k via the Limit-into-Sort rewrite, sort over a join, and sorted
/// aggregation output — everything the pooled operators cover.
fn build_frame(kind: usize, r: &Relation, side: &Relation) -> Frame {
    let scan = Frame::scan(r.clone());
    match kind {
        0 => scan.order_by(&["s"], &[true]),
        1 => scan.order_by(&["x", "s"], &[true, false]),
        2 => scan.order_by(&["g", "x", "id"], &[false, true, true]),
        3 => scan.order_by(&["s", "x"], &[true, false]).limit(11),
        4 => scan
            .select(Expr::col("s").gt(Expr::lit(2i64)))
            .order_by(&["x", "id"], &[true, true])
            .limit(40),
        5 => scan
            .join(Frame::scan(side.clone()), &[("g", "g2")])
            .order_by(&["w", "id"], &[false, true]),
        _ => scan
            .aggregate(
                &["g"],
                vec![
                    AggSpec::count_star("n"),
                    AggSpec::sum("x", "sx"),
                    AggSpec::new(AggFunc::Min, Some("x"), "lo"),
                ],
            )
            .order_by(&["n", "g"], &[false, true]),
    }
}

fn backends() -> [Backend; 3] {
    [Backend::Auto, Backend::Bat, Backend::Dense]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pooled_execution_equals_serial(
        (rows, kind, shape_idx) in (1100usize..3000, 0usize..7, 0usize..4),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = TestRng::from_seed_u64(seed);
        let r = gen_rel(rows, KEY_SHAPES[shape_idx], &mut rng);
        let side = gen_side(&mut rng);
        let frame = build_frame(kind, &r, &side);
        for backend in backends() {
            let mut runs = at_every_width(&frame, backend).into_iter();
            let serial = runs.next().expect("the serial width").1.expect("serial execution");
            for (threads, pooled) in runs {
                let pooled = pooled.expect("pooled execution");
                prop_assert_eq!(
                    &serial, &pooled,
                    "mismatch kind={} shape={:?} backend={:?} threads={}",
                    kind, KEY_SHAPES[shape_idx], backend, threads
                );
            }
        }
    }
}

/// Deterministic spot checks on the shapes proptest shrinks past: exact
/// boundary sizes and all-duplicate keys.
#[test]
fn pooled_sort_deterministic_cases() {
    let mut rng = TestRng::from_seed_u64(11);
    for shape in KEY_SHAPES {
        let r = gen_rel(2048, shape, &mut rng);
        let side = gen_side(&mut rng);
        for kind in 0..7 {
            let frame = build_frame(kind, &r, &side);
            let mut runs = at_every_width(&frame, Backend::Auto).into_iter();
            let serial = runs.next().expect("the serial width").1.expect("serial");
            for (threads, pooled) in runs {
                let pooled = pooled.expect("pooled");
                assert_eq!(
                    serial, pooled,
                    "kind={kind} shape={shape:?} threads={threads}"
                );
            }
        }
    }
}

/// The pooled sort of an empty relation and of a single row degrade
/// gracefully through the serial fallback.
#[test]
fn pooled_sort_tiny_inputs() {
    for rows in [0usize, 1, 17] {
        let mut rng = TestRng::from_seed_u64(5);
        let r = gen_rel(rows, KeyShape::Shuffled, &mut rng);
        let frame = Frame::scan(r)
            .order_by(&["s", "x"], &[true, false])
            .limit(3);
        let mut runs = at_every_width(&frame, Backend::Auto).into_iter();
        let serial = runs.next().expect("the serial width").1.expect("serial");
        for (_, pooled) in runs {
            assert_eq!(serial, pooled.expect("pooled"), "rows={rows}");
        }
    }
}
