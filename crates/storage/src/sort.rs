//! Order-schema sorting: one typed sort for the whole stack.
//!
//! Everything that orders rows by a list of key columns — the RMA layer's
//! order-schema handling, `ORDER BY`, top-k, the external sort's run phase —
//! goes through this module:
//!
//! - [`RowOrder`] is the typed comparator: each key column's physical
//!   variant (plain slice, RLE, bit-packed, dictionary codes) and null
//!   bitmap are resolved **once**, so a comparison is a null test plus one
//!   typed compare instead of a `ColumnData` re-dispatch per call.
//!   [`RowOrder::cmp_across`] compares a row of one relation with a row of
//!   another under the same keys (the external sort's disk merge, one
//!   `RowOrder` per run chunk), with [`Column::cmp_rows_cross`]'s order.
//! - [`key_sort`] sorts rows ascending by an order schema and reports, from
//!   the same pass, whether the rows were already in order and whether the
//!   schema is a key (duplicates are adjacent once sorted). A single
//!   non-null `Int`/`Float`/`Date`/`Bool`/dictionary-string key is mapped to
//!   order-preserving `u64`s ([`normalized_keys`]) and LSD-radix-sorted as
//!   `(key, row)` pairs, skipping digits that are constant across the
//!   column; every other schema sorts through [`RowOrder`].
//!
//! Both paths are stable and use the null-first total order of
//! [`Column::cmp_rows`], so they produce exactly the permutation
//! `sort_by(cmp_rows)` would. Key *equality*, and the key check without a
//! sort, live in [`crate::key`].

use crate::access::{ColumnAccessor, FloatsRef, IntsRef};
use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::encoding::{Dict, Rle, RleValue, Seg};
use std::cmp::Ordering;

/// The values of one sort key, physical variant resolved once.
#[derive(Debug, Clone, Copy)]
enum KeyVals<'a> {
    Int(IntsRef<'a>),
    Float(FloatsRef<'a>),
    Str(&'a [String]),
    /// Dictionary codes: the value table is sorted, so code order is value
    /// order within one table (and across columns that share it).
    Codes(&'a [u32], &'a Dict),
    Bool(&'a [bool]),
    Date(&'a [i32]),
}

#[derive(Debug, Clone, Copy)]
struct SortKey<'a> {
    vals: KeyVals<'a>,
    nulls: Option<&'a Bitmap>,
    ascending: bool,
    /// The column itself, for cross-relation pairs of unlike types.
    col: &'a Column,
}

/// Null-first order of two cells' null flags; `None` when both are set
/// values and the values decide.
#[inline]
fn cmp_nulls(a: bool, b: bool) -> Option<Ordering> {
    match (a, b) {
        (false, false) => None,
        (true, true) => Some(Ordering::Equal),
        (true, false) => Some(Ordering::Less),
        (false, true) => Some(Ordering::Greater),
    }
}

impl SortKey<'_> {
    #[inline]
    fn is_null(&self, i: usize) -> bool {
        self.nulls.is_some_and(|n| n.get(i))
    }

    /// Null-first ascending comparison of two rows of this key.
    #[inline]
    fn cmp(&self, a: usize, b: usize) -> Ordering {
        if let Some(nulls) = self.nulls {
            if let Some(ord) = cmp_nulls(nulls.get(a), nulls.get(b)) {
                return ord;
            }
        }
        match self.vals {
            KeyVals::Int(v) => v.get(a).cmp(&v.get(b)),
            KeyVals::Float(v) => v.get(a).total_cmp(&v.get(b)),
            KeyVals::Str(v) => v[a].cmp(&v[b]),
            KeyVals::Codes(v, _) => v[a].cmp(&v[b]),
            KeyVals::Bool(v) => v[a].cmp(&v[b]),
            KeyVals::Date(v) => v[a].cmp(&v[b]),
        }
    }

    /// The string at row `i` of a string key.
    #[inline]
    fn str_at(&self, i: usize) -> Option<&str> {
        match self.vals {
            KeyVals::Str(v) => Some(&v[i]),
            KeyVals::Codes(v, d) => Some(d.value(v[i])),
            _ => None,
        }
    }

    /// Null-first ascending comparison of row `a` of this key with row `b`
    /// of `other`, exactly as [`Column::cmp_rows_cross`] orders them: codes
    /// compare only between columns sharing one dictionary table, other
    /// strings by value, unlike types through the boxed order.
    #[inline]
    fn cmp_across(&self, a: usize, other: &SortKey, b: usize) -> Ordering {
        if let Some(ord) = cmp_nulls(self.is_null(a), other.is_null(b)) {
            return ord;
        }
        match (self.vals, other.vals) {
            (KeyVals::Int(x), KeyVals::Int(y)) => x.get(a).cmp(&y.get(b)),
            (KeyVals::Float(x), KeyVals::Float(y)) => x.get(a).total_cmp(&y.get(b)),
            (KeyVals::Codes(x, dx), KeyVals::Codes(y, dy)) if dx.shares_table(dy) => {
                x[a].cmp(&y[b])
            }
            (KeyVals::Bool(x), KeyVals::Bool(y)) => x[a].cmp(&y[b]),
            (KeyVals::Date(x), KeyVals::Date(y)) => x[a].cmp(&y[b]),
            _ => match (self.str_at(a), other.str_at(b)) {
                (Some(x), Some(y)) => x.cmp(y),
                _ => self.col.get(a).total_cmp(&other.col.get(b)),
            },
        }
    }
}

/// A lexicographic row comparator over key columns, with a direction per
/// key and nulls first (last under a descending key).
#[derive(Debug, Clone)]
pub struct RowOrder<'a> {
    keys: Vec<SortKey<'a>>,
}

impl<'a> RowOrder<'a> {
    /// Order by `columns`; `ascending[k]` is the direction of the `k`-th
    /// key (ascending where the slice is shorter than `columns`).
    pub fn new(columns: &[&'a Column], ascending: &[bool]) -> Self {
        let keys = columns
            .iter()
            .enumerate()
            .map(|(k, c)| SortKey {
                vals: match c.accessor() {
                    ColumnAccessor::Int(v) => KeyVals::Int(v),
                    ColumnAccessor::Float(v) => KeyVals::Float(v),
                    ColumnAccessor::Str(s) => match s.dict() {
                        Some(d) => KeyVals::Codes(d.codes(), d),
                        None => {
                            KeyVals::Str(s.as_slice().expect("non-dictionary strings are plain"))
                        }
                    },
                    ColumnAccessor::Bool(v) => KeyVals::Bool(v),
                    ColumnAccessor::Date(v) => KeyVals::Date(v),
                },
                nulls: c.nulls(),
                ascending: ascending.get(k).copied().unwrap_or(true),
                col: c,
            })
            .collect();
        RowOrder { keys }
    }

    /// Order by `columns`, every key ascending (an RMA order schema).
    pub fn ascending(columns: &[&'a Column]) -> Self {
        RowOrder::new(columns, &[])
    }

    /// Compare rows `a` and `b` on the keys alone (`Equal` on a full tie).
    #[inline]
    pub fn cmp(&self, a: usize, b: usize) -> Ordering {
        for key in &self.keys {
            let ord = key.cmp(a, b);
            if ord != Ordering::Equal {
                return if key.ascending { ord } else { ord.reverse() };
            }
        }
        Ordering::Equal
    }

    /// Compare row `a` under these keys with row `b` under `other`'s keys
    /// (`Equal` on a full tie). The two orders have the same number of
    /// keys; directions are `self`'s. Per key this is
    /// [`Column::cmp_rows_cross`] with the physical variants already
    /// resolved.
    #[inline]
    pub fn cmp_across(&self, a: usize, other: &RowOrder, b: usize) -> Ordering {
        debug_assert_eq!(self.keys.len(), other.keys.len());
        for (key, theirs) in self.keys.iter().zip(&other.keys) {
            let ord = key.cmp_across(a, theirs, b);
            if ord != Ordering::Equal {
                return if key.ascending { ord } else { ord.reverse() };
            }
        }
        Ordering::Equal
    }

    /// [`RowOrder::cmp`] with ties broken by row index: a strict total
    /// order under which an unstable sort yields the stable sort's output.
    #[inline]
    pub fn cmp_indexed(&self, a: usize, b: usize) -> Ordering {
        self.cmp(a, b).then(a.cmp(&b))
    }

    /// Are rows `0..n` already in non-decreasing order? `Some(unique)`
    /// when they are, where `unique` says no two neighbours tie; `None` at
    /// the first descent.
    fn in_order(&self, n: usize) -> Option<bool> {
        let mut unique = true;
        for i in 1..n {
            match self.cmp(i - 1, i) {
                Ordering::Greater => return None,
                Ordering::Equal => unique = false,
                Ordering::Less => {}
            }
        }
        Some(unique)
    }
}

/// The outcome of sorting rows ascending by an order schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySort {
    /// `perm[k]` is the row at sorted position `k`; `None` when the rows
    /// are already in order (the identity permutation, never built).
    pub perm: Option<Vec<usize>>,
    /// No two rows tie on the order schema — it is a key.
    pub unique: bool,
}

impl KeySort {
    /// The permutation, with the identity spelled out for `len` rows.
    pub fn into_perm(self, len: usize) -> Vec<usize> {
        self.perm.unwrap_or_else(|| (0..len).collect())
    }
}

/// Sort rows ascending by `columns` (stable, nulls first): radix when the
/// schema allows, the typed comparator otherwise. The key property is read
/// off the sorted neighbours in the same call.
pub fn key_sort(columns: &[&Column]) -> KeySort {
    let n = columns.first().map_or(0, |c| c.len());
    debug_assert!(columns.iter().all(|c| c.len() == n));
    // row indices travel through the radix passes as u32
    if let ([col], true) = (columns, n <= u32::MAX as usize) {
        if let Some(keys) = normalized_keys(col) {
            return radix_sort(keys);
        }
    }
    let order = RowOrder::ascending(columns);
    if let Some(unique) = order.in_order(n) {
        return KeySort { perm: None, unique };
    }
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_by(|&a, &b| order.cmp(a, b));
    let unique = perm
        .windows(2)
        .all(|w| order.cmp(w[0], w[1]) != Ordering::Equal);
    KeySort {
        perm: Some(perm),
        unique,
    }
}

/// Compute the stable sort permutation of rows ordered lexicographically by
/// the given columns (the paper's ascending order on the order schema `U`).
///
/// Returns `perm` such that `perm[k]` is the OID of the `k`-th row in sorted
/// order — applying `take(&perm)` to every BAT of the relation yields the
/// sorted relation.
pub fn sort_permutation(columns: &[&Column]) -> Vec<usize> {
    let n = columns.first().map_or(0, |c| c.len());
    key_sort(columns).into_perm(n)
}

const SIGN: u64 = 1 << 63;

#[inline]
fn int_key(x: i64) -> u64 {
    (x as u64) ^ SIGN
}

/// `f64::total_cmp` order as unsigned order: negatives flip entirely,
/// positives gain the top bit.
#[inline]
fn float_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits & SIGN != 0 {
        !bits
    } else {
        bits | SIGN
    }
}

fn rle_keys<T: RleValue>(r: &Rle<T>, key: impl Fn(T) -> u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(r.len());
    for seg in r.segs() {
        match seg {
            Seg::Run { value, len } => out.extend(std::iter::repeat_n(key(*value), *len)),
            Seg::Dense(v) => out.extend(v.iter().map(|&x| key(x))),
        }
    }
    out
}

/// The order-preserving `u64` image of a null-free key column, read through
/// the accessors (no encoded form is decoded): `a < b` under
/// [`Column::cmp_rows`] iff `image(a) < image(b)`, and ties map to equal
/// images. `None` for nullable columns and plain (non-dictionary) strings.
pub fn normalized_keys(col: &Column) -> Option<Vec<u64>> {
    if col.has_nulls() {
        return None;
    }
    Some(match col.accessor() {
        ColumnAccessor::Int(IntsRef::Slice(v)) => v.iter().map(|&x| int_key(x)).collect(),
        ColumnAccessor::Int(IntsRef::Rle(r)) => rle_keys(r, int_key),
        ColumnAccessor::Int(IntsRef::Packed(p)) => {
            (0..p.len()).map(|i| int_key(p.get(i))).collect()
        }
        ColumnAccessor::Float(FloatsRef::Slice(v)) => v.iter().map(|&x| float_key(x)).collect(),
        ColumnAccessor::Float(FloatsRef::Rle(r)) => rle_keys(r, float_key),
        ColumnAccessor::Str(s) => s.dict()?.codes().iter().map(|&c| u64::from(c)).collect(),
        ColumnAccessor::Bool(v) => v.iter().map(|&b| u64::from(b)).collect(),
        ColumnAccessor::Date(v) => v.iter().map(|&d| int_key(i64::from(d))).collect(),
    })
}

/// One element travelling through the radix passes.
#[derive(Clone, Copy, Default)]
struct Pair {
    key: u64,
    row: u32,
}

/// Stable LSD radix sort of `keys` (at most `u32::MAX` of them), one byte
/// per pass, passes over bytes that are constant across the column skipped.
fn radix_sort(keys: Vec<u64>) -> KeySort {
    let n = keys.len();
    // already in order? (a shuffled column leaves at the first descent)
    let mut descends = false;
    let mut unique = true;
    for w in keys.windows(2) {
        if w[0] > w[1] {
            descends = true;
            break;
        }
        unique &= w[0] < w[1];
    }
    if !descends {
        return KeySort { perm: None, unique };
    }
    let varying = keys.iter().fold(0u64, |acc, &k| acc | (k ^ keys[0]));
    // `descends` implies two distinct keys, hence at least one pass
    let shifts: Vec<u32> = (0..8u32)
        .map(|byte| 8 * byte)
        .filter(|&shift| (varying >> shift) & 0xff != 0)
        .collect();
    let digit = |key: u64, shift: u32| ((key >> shift) & 0xff) as usize;
    let mut counts = vec![[0u32; 256]; shifts.len()];
    for &key in &keys {
        for (count, &shift) in counts.iter_mut().zip(&shifts) {
            count[digit(key, shift)] += 1;
        }
    }
    // the first pass reads the keys and pairs them with their rows; later
    // passes ping-pong between two pair buffers
    let mut keys = Some(keys);
    let mut src: Vec<Pair> = Vec::new();
    let mut dst: Vec<Pair> = vec![Pair::default(); n];
    for (pass, (count, &shift)) in counts.iter().zip(&shifts).enumerate() {
        if pass > 0 {
            if src.is_empty() {
                src = vec![Pair::default(); n];
            }
            std::mem::swap(&mut src, &mut dst);
        }
        let mut next = [0u32; 256];
        let mut total = 0u32;
        for (slot, &c) in next.iter_mut().zip(count) {
            *slot = total;
            total += c;
        }
        let place = |pair: Pair| {
            let slot = &mut next[digit(pair.key, shift)];
            dst[*slot as usize] = pair;
            *slot += 1;
        };
        match keys.take() {
            Some(keys) => keys
                .iter()
                .enumerate()
                .map(|(row, &key)| Pair {
                    key,
                    row: row as u32,
                })
                .for_each(place),
            None => src.iter().copied().for_each(place),
        }
    }
    drop(src);
    let unique = dst.windows(2).all(|w| w[0].key != w[1].key);
    let perm = dst.iter().map(|p| p.row as usize).collect();
    KeySort {
        perm: Some(perm),
        unique,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bat::cmp_rows;
    use crate::encoding::Encoding;
    use crate::value::Value;

    fn strcol(vals: &[&str]) -> Column {
        Column::from(vals.to_vec())
    }

    /// The stable reference: `sort_by` over the per-call `cmp_rows`.
    fn reference(columns: &[&Column]) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..columns[0].len()).collect();
        perm.sort_by(|&a, &b| cmp_rows(columns, a, b));
        perm
    }

    #[test]
    fn sort_permutation_single_column() {
        let c = strcol(&["8am", "7am", "5am", "6am"]);
        let perm = sort_permutation(&[&c]);
        assert_eq!(perm, vec![2, 3, 1, 0]);
        let sorted = c.take(&perm);
        assert_eq!(sorted.get(0), Value::Str("5am".into()));
        assert_eq!(sorted.get(3), Value::Str("8am".into()));
    }

    #[test]
    fn sort_permutation_lexicographic_two_columns() {
        let a = Column::from(vec![2i64, 1, 2, 1]);
        let b = strcol(&["x", "z", "a", "a"]);
        let perm = sort_permutation(&[&a, &b]);
        // rows sorted by (a, b): (1,"a")=3, (1,"z")=1, (2,"a")=2, (2,"x")=0
        assert_eq!(perm, vec![3, 1, 2, 0]);
    }

    #[test]
    fn sort_is_stable_on_ties() {
        let a = Column::from(vec![1i64, 1, 1]);
        assert_eq!(sort_permutation(&[&a]), vec![0, 1, 2]);
        let b = Column::from(vec![2i64, 1, 2, 1, 2]);
        assert_eq!(sort_permutation(&[&b]), vec![1, 3, 0, 2, 4]);
    }

    #[test]
    fn sorted_input_builds_no_permutation() {
        let asc = Column::from(vec![1i64, 2, 2, 5]);
        assert_eq!(
            key_sort(&[&asc]),
            KeySort {
                perm: None,
                unique: false
            }
        );
        let names = strcol(&["a", "b", "c"]);
        assert_eq!(
            key_sort(&[&names]),
            KeySort {
                perm: None,
                unique: true
            }
        );
        // the comparator path notices sorted input too
        assert!(key_sort(&[&asc, &names.take(&[0, 1, 2, 2])]).perm.is_none());
    }

    #[test]
    fn radix_skips_constant_digits_and_handles_extremes() {
        let ints = Column::from(vec![0i64, -1, i64::MAX, i64::MIN, 7, -1 << 40, 1 << 40]);
        assert_eq!(sort_permutation(&[&ints]), reference(&[&ints]));
        let floats = Column::from(vec![
            0.0f64,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -f64::NAN,
            1.5,
            -1.5,
        ]);
        assert_eq!(sort_permutation(&[&floats]), reference(&[&floats]));
        // one varying byte: a single pass
        let narrow = Column::from((0..300i64).map(|i| (i * 37) % 251).collect::<Vec<_>>());
        assert_eq!(sort_permutation(&[&narrow]), reference(&[&narrow]));
    }

    #[test]
    fn encoded_keys_sort_like_their_plain_twins() {
        let plain = Column::from((0..500i64).map(|i| (i * 7919) % 503).collect::<Vec<_>>());
        let packed = plain.encode_as(Encoding::Packed).unwrap();
        assert_eq!(sort_permutation(&[&packed]), reference(&[&plain]));
        let runs = Column::from((0..500i64).map(|i| 9 - i / 50).collect::<Vec<_>>());
        let rle = runs.encode_as(Encoding::Rle).unwrap();
        assert_eq!(sort_permutation(&[&rle]), reference(&[&runs]));
        let words = Column::from(
            (0..200)
                .map(|i| ["pear", "fig", "apple", "kiwi"][(i * 3) % 4])
                .collect::<Vec<&str>>(),
        );
        let dict = words.encode_as(Encoding::Dict).unwrap();
        assert!(normalized_keys(&dict).is_some());
        assert!(normalized_keys(&words).is_none());
        assert_eq!(sort_permutation(&[&dict]), reference(&[&words]));
    }

    #[test]
    fn row_order_directions_and_nulls() {
        let c = Column::from_values(&[Value::Int(5), Value::Null, Value::Int(1)]).unwrap();
        assert!(normalized_keys(&c).is_none());
        assert_eq!(sort_permutation(&[&c]), vec![1, 2, 0]);
        let desc = RowOrder::new(&[&c], &[false]);
        let mut perm = vec![0usize, 1, 2];
        perm.sort_by(|&a, &b| desc.cmp_indexed(a, b));
        assert_eq!(perm, vec![0, 2, 1]); // nulls last under a descending key
    }

    #[test]
    fn cmp_across_matches_cmp_rows_cross() {
        let words = Column::from(vec!["b", "a", "c", "a"]);
        let other_words = Column::from(vec!["a", "d", "b", "b"]);
        let dict = words.encode_as(Encoding::Dict).unwrap();
        let cols = [
            Column::from_values(&[Value::Int(5), Value::Null, Value::Int(-2), Value::Int(5)])
                .unwrap(),
            Column::from(vec![2.5f64, f64::NAN, -0.0, 0.0]),
            Column::from(vec![f64::NEG_INFINITY, -f64::NAN, f64::INFINITY, -0.0]),
            Column::from(vec![5i64, 7, 1, -3])
                .encode_as(Encoding::Packed)
                .unwrap(),
            Column::from(vec![4i64, 4, 4, 9])
                .encode_as(Encoding::Rle)
                .unwrap(),
            // a reordered take keeps the shared table; a second encode
            // builds its own, whose codes do not compare with the first's
            dict.take(&[3, 2, 1, 0]),
            dict,
            other_words.encode_as(Encoding::Dict).unwrap(),
            words,
            Column::from_values(&[
                Value::Str("a".into()),
                Value::Null,
                Value::Null,
                Value::Str("z".into()),
            ])
            .unwrap(),
            Column::from(vec![true, false, true, false]),
        ];
        for a in &cols {
            for b in &cols {
                for asc in [true, false] {
                    let (x, y) = (RowOrder::new(&[a], &[asc]), RowOrder::new(&[b], &[asc]));
                    for i in 0..4 {
                        for j in 0..4 {
                            let want = a.cmp_rows_cross(i, b, j);
                            let want = if asc { want } else { want.reverse() };
                            assert_eq!(x.cmp_across(i, &y, j), want, "{a:?}[{i}] vs {b:?}[{j}]");
                        }
                    }
                }
            }
        }
        // composite keys: the first unequal key decides, in its direction
        let (p, q) = (Column::from(vec![1i64, 1]), Column::from(vec![2.0f64, 3.0]));
        let order = RowOrder::new(&[&p, &q], &[true, false]);
        assert_eq!(order.cmp_across(0, &order, 1), Ordering::Greater);
        assert_eq!(order.cmp_across(1, &order, 1), Ordering::Equal);
    }
}
