//! Property tests of the storage kernel: sort permutations, gather,
//! encoding round-trips, and the float BAT kernels.

use proptest::prelude::*;
use rma_storage::{
    bat::float_ops, cmp_rows, encoding::rle_add_f64, invert_permutation, is_key, key_sort,
    sort_permutation, Bitmap, Column, ColumnData, Dict, DirectKey, Encoding, Packed, Rle,
};
use std::cmp::Ordering;

/// The typed sort must be the stable reference `sort_by(cmp_rows)` —
/// permutation, already-in-order verdict and key verdict alike.
fn assert_sorts_like_reference(what: &str, columns: &[&Column]) {
    let n = columns[0].len();
    let mut reference: Vec<usize> = (0..n).collect();
    reference.sort_by(|&a, &b| cmp_rows(columns, a, b));
    let sorted = key_sort(columns);
    assert_eq!(
        sorted.perm.is_none(),
        reference.iter().enumerate().all(|(k, &p)| k == p),
        "{what}: in-order verdict"
    );
    assert_eq!(
        sorted.unique,
        reference
            .windows(2)
            .all(|w| cmp_rows(columns, w[0], w[1]) != Ordering::Equal),
        "{what}: key verdict"
    );
    assert_eq!(sorted.into_perm(n), reference, "{what}: permutation");
}

/// Key schemas over one generated row set: every key type and encoding,
/// nullable columns, multi-column keys, signed zeros, NaN payloads and
/// dictionary strings. `spread` bounds the small values, so duplicates are
/// common.
fn key_cases(raw: &[(u64, usize)], spread: u64) -> Vec<(&'static str, Vec<Column>)> {
    let narrow = |x: u64| (x % spread) as i64 - (spread / 2) as i64;
    let ints: Vec<i64> = raw
        .iter()
        .map(|&(x, pick)| match pick {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => -(x as i64 >> 20),
            _ => narrow(x),
        })
        .collect();
    let special = [
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::MIN_POSITIVE,
        f64::from_bits(0x7ff8_0000_0000_0001),
        -1.5,
    ];
    let floats: Vec<f64> = raw
        .iter()
        .map(|&(x, pick)| {
            if pick < 3 {
                special[(x % 9) as usize]
            } else {
                narrow(x) as f64 / 4.0
            }
        })
        .collect();
    let small: Vec<i64> = raw.iter().map(|&(x, _)| narrow(x)).collect();
    let runs: Vec<i64> = raw
        .iter()
        .enumerate()
        .map(|(i, &(x, _))| narrow(x / 7) + (i / 11) as i64 % 3)
        .collect();
    let words: Vec<String> = raw
        .iter()
        .map(|&(x, _)| format!("w{}", narrow(x)))
        .collect();
    let int_col = Column::from(ints);
    let float_col = Column::from(floats.clone());
    let small_col = Column::from(small.clone());
    let runs_col = Column::from(runs);
    let word_col = Column::from(words);
    let date_col = Column::new(ColumnData::Date(
        small.iter().map(|&v| v as i32 * 1000).collect(),
    ));
    let bool_col = Column::from(raw.iter().map(|&(x, _)| x % 3 == 0).collect::<Vec<bool>>());
    let mask: Vec<bool> = raw.iter().map(|&(_, pick)| pick == 5).collect();
    let nullable = Column::with_nulls(ColumnData::Int(small), Bitmap::from_bools(&mask)).unwrap();
    let mut cases = vec![
        ("int", vec![int_col]),
        ("float", vec![float_col.clone()]),
        ("date", vec![date_col]),
        ("bool", vec![bool_col]),
        ("plain strings", vec![word_col.clone()]),
        ("nullable", vec![nullable.clone()]),
        ("two columns", vec![small_col.clone(), float_col]),
        ("two ints", vec![small_col.clone(), runs_col.clone()]),
        ("string then nullable", vec![word_col.clone(), nullable]),
    ];
    let encoded = [
        ("packed", small_col.encode_as(Encoding::Packed)),
        ("rle int", runs_col.encode_as(Encoding::Rle)),
        (
            "rle float",
            Column::from(floats.iter().map(|f| f.round()).collect::<Vec<f64>>())
                .encode_as(Encoding::Rle),
        ),
        ("dictionary", word_col.encode_as(Encoding::Dict)),
    ];
    for (what, col) in encoded {
        if let Some(col) = col {
            cases.push((what, vec![col]));
        }
    }
    cases
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // sorting by the permutation yields a non-decreasing column
    #[test]
    fn sort_permutation_sorts(vals in proptest::collection::vec(-1000i64..1000, 0..64)) {
        let c = Column::from(vals.clone());
        let perm = sort_permutation(&[&c]);
        prop_assert_eq!(perm.len(), vals.len());
        let sorted = c.take(&perm);
        for i in 1..sorted.len() {
            prop_assert!(sorted.cmp_rows(i - 1, i) != std::cmp::Ordering::Greater);
        }
        // a permutation touches every index exactly once
        let mut seen = vec![false; perm.len()];
        for &p in &perm {
            prop_assert!(!seen[p]);
            seen[p] = true;
        }
    }

    // invert_permutation is a true inverse
    #[test]
    fn permutation_inversion(vals in proptest::collection::vec(0.0f64..1.0, 1..64)) {
        let c = Column::from(vals);
        let perm = sort_permutation(&[&c]);
        let inv = invert_permutation(&perm);
        for (k, &p) in perm.iter().enumerate() {
            prop_assert_eq!(inv[p], k);
        }
    }

    // lexicographic sorting: ties in the first column are broken by the second
    #[test]
    fn lexicographic_two_columns(
        pairs in proptest::collection::vec((0i64..4, -100i64..100), 0..48)
    ) {
        let a = Column::from(pairs.iter().map(|(x, _)| *x).collect::<Vec<i64>>());
        let b = Column::from(pairs.iter().map(|(_, y)| *y).collect::<Vec<i64>>());
        let perm = sort_permutation(&[&a, &b]);
        for w in perm.windows(2) {
            prop_assert!(cmp_rows(&[&a, &b], w[0], w[1]) != std::cmp::Ordering::Greater);
        }
    }

    // radix and comparator paths alike equal the stable reference sort, for
    // every key type, encoding, nullable and multi-column schema
    #[test]
    fn key_sort_equals_the_stable_reference(
        raw in proptest::collection::vec((0u64..u64::MAX, 0usize..8), 0..96),
        spread in 1u64..40,
    ) {
        for (what, columns) in &key_cases(&raw, spread) {
            let columns: Vec<&Column> = columns.iter().collect();
            assert_sorts_like_reference(what, &columns);
        }
    }

    // the key check without a sort, on both of its paths, gives the sort's
    // verdict, which is a brute-force duplicate check under `cmp_rows`
    #[test]
    fn key_check_agrees_with_bruteforce(
        raw in proptest::collection::vec((0u64..u64::MAX, 0usize..8), 0..96),
        spread in 1u64..40,
    ) {
        for (what, columns) in &key_cases(&raw, spread) {
            let columns: Vec<&Column> = columns.iter().collect();
            let n = columns[0].len();
            let brute = (0..n).all(|i| (0..i).all(|j| cmp_rows(&columns, i, j) != Ordering::Equal));
            prop_assert_eq!(key_sort(&columns).unique, brute, "{}: the sort", what);
            prop_assert_eq!(is_key(&columns), brute, "{}: is_key", what);
        }
        // the direct-addressed image's slot bound, exactly at it and one over
        let small: Vec<i64> = raw.iter().map(|&(x, _)| (x % spread) as i64).collect();
        for (top, direct) in [(65_535, true), (65_536, false)] {
            let vals = [vec![-100, top - 100], small.clone()].concat();
            let distinct: std::collections::BTreeSet<i64> = vals.iter().copied().collect();
            let col = Column::from(vals);
            let n = col.len();
            prop_assert_eq!(DirectKey::new(&[&col], n).is_some(), direct);
            prop_assert_eq!(is_key(&[&col]), distinct.len() == n, "span edge {}", top);
        }
    }

    // RLE round-trips arbitrary data with interleaved runs
    #[test]
    fn rle_roundtrip(
        segments in proptest::collection::vec((0usize..30, -5.0f64..5.0), 0..12)
    ) {
        let mut vals = Vec::new();
        for (zeros, v) in segments {
            vals.extend(std::iter::repeat_n(0.0, zeros));
            vals.push(v);
        }
        let c = Rle::encode(&vals);
        prop_assert_eq!(c.to_vec(), vals.clone());
        prop_assert!(c.stored_values() <= vals.len().max(1));
        // point access and slices agree with the decoded form
        for (i, &v) in vals.iter().enumerate() {
            prop_assert_eq!(c.get(i), v);
        }
        let mid = vals.len() / 2;
        prop_assert_eq!(c.slice(0, mid).to_vec(), vals[..mid].to_vec());
    }

    // run-aware RLE add equals dense add
    #[test]
    fn rle_add_correct(
        a in proptest::collection::vec(prop_oneof![Just(0.0f64), -10.0..10.0], 0..128),
        b_seed in proptest::collection::vec(prop_oneof![Just(0.0f64), -10.0..10.0], 0..128),
    ) {
        let n = a.len().min(b_seed.len());
        let (a, b) = (&a[..n], &b_seed[..n]);
        let got = rle_add_f64(&Rle::encode(a), &Rle::encode(b)).to_vec();
        let expect: Vec<f64> = a.iter().zip(b).map(|(x, y)| x + y).collect();
        prop_assert_eq!(got, expect);
    }

    // dictionary encoding round-trips and preserves logical column equality
    #[test]
    fn dict_roundtrip(keys in proptest::collection::vec(0usize..6, 0..48)) {
        let vals: Vec<String> = keys.iter().map(|&k| format!("v{k}")).collect();
        let d = Dict::encode(&vals);
        prop_assert_eq!(d.to_vec(), vals.clone());
        let plain = Column::from(vals.clone());
        if let Some(enc) = plain.encode_as(Encoding::Dict) {
            prop_assert_eq!(&enc, &plain);
            // gathers through either form agree
            let idx: Vec<usize> = (0..vals.len()).rev().collect();
            prop_assert_eq!(enc.take(&idx), plain.take(&idx));
        }
    }

    // bit-packing round-trips any narrow-range data
    #[test]
    fn packed_roundtrip(vals in proptest::collection::vec(-5000i64..5000, 1..256)) {
        let p = Packed::encode(&vals).unwrap();
        prop_assert_eq!(p.to_vec(), vals.clone());
        let plain = Column::from(vals);
        let enc = plain.encode_as(Encoding::Packed).unwrap();
        prop_assert_eq!(&enc, &plain);
    }

    // float kernels agree with scalar math
    #[test]
    fn float_kernels_agree(
        a in proptest::collection::vec(-100.0f64..100.0, 1..64),
        scale in 1.0f64..10.0,
    ) {
        let b: Vec<f64> = a.iter().map(|x| x * 0.5 + 1.0).collect();
        let ca = Column::from(a.clone());
        let cb = Column::from(b.clone());
        let sum = float_ops::add(&ca, &cb).unwrap().to_f64_vec().unwrap();
        for (i, s) in sum.iter().enumerate() {
            prop_assert!((s - (a[i] + b[i])).abs() < 1e-12);
        }
        let scaled = float_ops::div_scalar(&ca, scale).unwrap().to_f64_vec().unwrap();
        for (i, s) in scaled.iter().enumerate() {
            prop_assert!((s - a[i] / scale).abs() < 1e-12);
        }
        let fused = float_ops::sub_scaled(&ca, &cb, scale).unwrap().to_f64_vec().unwrap();
        for (i, s) in fused.iter().enumerate() {
            prop_assert!((s - (a[i] - b[i] * scale)).abs() < 1e-9);
        }
        let total: f64 = a.iter().sum();
        prop_assert!((float_ops::sum(&ca).unwrap() - total).abs() < 1e-9);
    }

    // take ∘ take composes
    #[test]
    fn gather_composes(vals in proptest::collection::vec(-100i64..100, 1..32)) {
        let c = Column::from(vals);
        let n = c.len();
        let idx1: Vec<usize> = (0..n).rev().collect();
        let idx2: Vec<usize> = (0..n).step_by(2).collect();
        let two_step = c.take(&idx1).take(&idx2);
        let composed: Vec<usize> = idx2.iter().map(|&i| idx1[i]).collect();
        let one_step = c.take(&composed);
        prop_assert_eq!(two_step, one_step);
    }
}
