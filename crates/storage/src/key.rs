//! Key equality: the one place that decides when two rows hold the same
//! key, for grouping, `DISTINCT`, hash joins, both spill partitioners and
//! the order-schema key check.
//!
//! - [`KeyCols`] resolves a key's columns once and gives every row one
//!   multiply–xorshift [`KeyCols::digest`] and a null-aware
//!   [`KeyCols::rows_eq`]: floats by normalised bits (`-0.0` meets
//!   `0.0`, NaN meets NaN), strings by value (a dictionary column meets its
//!   plain twin), cells only within one type, NULL equal to NULL.
//! - [`DigestMap`] passes those digests through as their own hash;
//!   [`KeyIds`] numbers distinct keys in first-seen order on top of it.
//! - [`DirectKey`] is the direct-addressed image of a small null-free
//!   integer key: a row's slot, with no hashing at all, and the
//!   range-checked slot another relation's row would take in it.
//! - [`is_key`] gives the verdict of [`KeySort::unique`](crate::KeySort)
//!   — equality under [`Column::cmp_rows`] — without sorting.

use crate::access::{ColumnAccessor, IntsRef};
use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::encoding::Dict;
use crate::selvec::SelVec;
use crate::sort::RowOrder;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Normalise a float for keying: NaN payloads collapse, `-0.0 == 0.0`.
#[inline]
fn float_key_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else if x == 0.0 {
        0u64
    } else {
        x.to_bits()
    }
}

/// A hash map keyed by [`KeyCols::digest`]s. It indexes by the digest's low
/// bits and tags its slots with the top 7; the spill partitioners use the
/// bits between them.
pub type DigestMap<V> = HashMap<u64, V, BuildHasherDefault<PassThrough>>;

/// The [`DigestMap`] hasher: its keys are already mixed digests, so the
/// digest itself is the hash. The digest is unkeyed, so keys that collide
/// share a bucket whatever the map's hasher.
#[derive(Default)]
pub struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a DigestMap hashes u64 digests only")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

/// Multiply–xorshift finaliser (splitmix64's): every input bit reaches the
/// high and the low bits of the output, which both halves of a map lookup
/// use.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One key cell's bits with its type tag folded in, so e.g. `Int 0` and
/// `Bool false` land apart (equal tags and bits are still only a bucket
/// match: [`KeyCols::rows_eq`] decides).
#[inline]
const fn tagged(tag: u64, bits: u64) -> u64 {
    bits ^ (tag + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The cell hash of a NULL, under a tag of its own.
const NULL_CELL: u64 = tagged(5, 0);

/// Hash one string the way [`cell_hash`] hashes a string cell, so
/// dictionary table entries and plain-column hashes agree.
fn str_value_hash(s: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    2u8.hash(&mut h);
    s.hash(&mut h);
    h.finish()
}

/// Cell hash of one non-null cell: its bits under a type tag (floats by
/// [`float_key_bits`]), strings by [`str_value_hash`]; reads through the
/// encoding-aware accessors.
#[inline]
fn cell_hash(a: &ColumnAccessor, i: usize) -> u64 {
    match a {
        ColumnAccessor::Int(v) => tagged(0, v.get(i) as u64),
        ColumnAccessor::Float(v) => tagged(1, float_key_bits(v.get(i))),
        ColumnAccessor::Str(v) => str_value_hash(v.get(i)),
        ColumnAccessor::Bool(v) => tagged(3, u64::from(v[i])),
        ColumnAccessor::Date(v) => tagged(4, v[i] as u64),
    }
}

/// Are two non-null cells equal keys? Same-type comparison only (an
/// `Int 5` never equals a `Float 5.0`), floats by normalised bits, strings
/// by value (by code within one shared dictionary table).
#[inline(always)]
fn cells_eq(a: &ColumnAccessor, i: usize, b: &ColumnAccessor, j: usize) -> bool {
    match (a, b) {
        (ColumnAccessor::Int(x), ColumnAccessor::Int(y)) => x.get(i) == y.get(j),
        (ColumnAccessor::Float(x), ColumnAccessor::Float(y)) => {
            float_key_bits(x.get(i)) == float_key_bits(y.get(j))
        }
        (ColumnAccessor::Str(x), ColumnAccessor::Str(y)) => match (x.dict(), y.dict()) {
            (Some(dx), Some(dy)) if dx.shares_table(dy) => dx.code(i) == dy.code(j),
            _ => x.get(i) == y.get(j),
        },
        (ColumnAccessor::Bool(x), ColumnAccessor::Bool(y)) => x[i] == y[j],
        (ColumnAccessor::Date(x), ColumnAccessor::Date(y)) => x[i] == y[j],
        _ => false,
    }
}

/// One key column, resolved once.
struct KeyCol<'a> {
    acc: ColumnAccessor<'a>,
    nulls: Option<&'a Bitmap>,
    /// When dictionary encoded: the dictionary plus a code → value-hash
    /// table (one string hash per *distinct* value).
    lut: Option<(&'a Dict, Vec<u64>)>,
}

impl KeyCol<'_> {
    #[inline]
    fn is_null(&self, i: usize) -> bool {
        self.nulls.is_some_and(|n| n.get(i))
    }
}

/// A key's columns, each resolved once: the per-row digest, null test and
/// equality of every hash-based operator.
pub struct KeyCols<'a> {
    cols: Vec<KeyCol<'a>>,
}

impl<'a> KeyCols<'a> {
    /// Resolve `cols` for hashing `rows` of their rows. A dictionary larger
    /// than `rows` (a filtered or spilled slice keeps its whole shared
    /// table) gets no code → hash table: its rows hash their strings.
    pub fn new(cols: &[&'a Column], rows: usize) -> Self {
        let cols = cols
            .iter()
            .map(|c| {
                let acc = c.accessor();
                let lut = match acc {
                    ColumnAccessor::Str(s) => s.dict().filter(|d| d.values().len() <= rows),
                    _ => None,
                }
                .map(|d| (d, d.values().iter().map(|v| str_value_hash(v)).collect()));
                KeyCol {
                    acc,
                    nulls: c.nulls(),
                    lut,
                }
            })
            .collect();
        KeyCols { cols }
    }

    /// Does row `i` hold a NULL in any key column?
    #[inline]
    pub fn has_null(&self, i: usize) -> bool {
        self.cols.iter().any(|c| c.is_null(i))
    }

    /// Composite key digest of row `i`: per-column cell hashes (dictionary
    /// columns through their table, NULLs as one tagged constant) folded as
    /// `h = mix(rotl(h) ^ cell)`, so `(a, b)` and `(b, a)` differ. Rows that
    /// are [`KeyCols::rows_eq`] have equal digests, whichever relation and
    /// encoding they come from.
    #[inline]
    pub fn digest(&self, i: usize) -> u64 {
        let mut h = 0u64;
        for c in &self.cols {
            let cell = if c.is_null(i) {
                NULL_CELL
            } else {
                match &c.lut {
                    Some((d, lut)) => lut[d.code(i) as usize],
                    None => cell_hash(&c.acc, i),
                }
            };
            h = mix(h.rotate_left(23) ^ cell);
        }
        h
    }

    /// Do row `i` of these columns and row `j` of `other`'s hold the same
    /// key? Two NULL cells are equal; a NULL never equals a value. Always
    /// inlined: a join probe calls it per candidate match.
    #[inline(always)]
    pub fn rows_eq(&self, i: usize, other: &KeyCols, j: usize) -> bool {
        debug_assert_eq!(self.cols.len(), other.cols.len());
        for (a, b) in self.cols.iter().zip(&other.cols) {
            let eq = match (a.is_null(i), b.is_null(j)) {
                (false, false) => cells_eq(&a.acc, i, &b.acc, j),
                (x, y) => x == y,
            };
            if !eq {
                return false;
            }
        }
        true
    }
}

/// Distinct keys numbered `0, 1, …` in first-seen order: a [`DigestMap`]
/// from a digest to the newest id with that digest, each id chained to the
/// previous id with the same digest and holding its first row.
#[derive(Default)]
pub struct KeyIds {
    heads: DigestMap<usize>,
    /// Per id: its representative (first) row and the previous id under
    /// the same digest ([`usize::MAX`] for none).
    ids: Vec<(usize, usize)>,
}

impl KeyIds {
    /// The id of row `row`'s key, whose digest is `digest`, and whether the
    /// key is new: the id whose representative row `rep` has
    /// `same_key(rep)`, or else the next id, represented by `row`.
    #[inline]
    pub fn id(
        &mut self,
        digest: u64,
        row: usize,
        mut same_key: impl FnMut(usize) -> bool,
    ) -> (usize, bool) {
        let head = self.heads.entry(digest).or_insert(usize::MAX);
        let mut id = *head;
        while id != usize::MAX {
            let (rep, prev) = self.ids[id];
            if same_key(rep) {
                return (id, false);
            }
            id = prev;
        }
        let next = self.ids.len();
        self.ids.push((row, std::mem::replace(head, next)));
        (next, true)
    }

    /// Each distinct key's first row, in first-seen order.
    pub fn reps(&self) -> Vec<usize> {
        self.ids.iter().map(|&(rep, _)| rep).collect()
    }
}

/// The direct-addressed image of a key: null-free `Int` columns in any
/// encoding whose value spans multiply to a small slot count, so a row's
/// slot is `Σ (v − base)·stride` — no key allocation, no hashing. Equal
/// slots are equal keys.
pub struct DirectKey<'a> {
    /// Per key column: values, frame base, value span and slot stride.
    parts: Vec<(IntsRef<'a>, i64, usize, usize)>,
    slots: usize,
}

impl<'a> DirectKey<'a> {
    /// The image of `cols`, for tables filled from morsels of `morsel_rows`
    /// rows; `None` when a column is not a null-free `Int` or the slot
    /// count exceeds `max(2 × morsel_rows, 2¹⁶)`.
    pub fn new(cols: &[&'a Column], morsel_rows: usize) -> Option<Self> {
        let bound = (2 * morsel_rows).max(1 << 16).min(u32::MAX as usize);
        Self::within(cols, None, bound)
    }

    /// The image of `cols` over the base rows `rows` selects (every row
    /// when `None`), whose values alone set each column's base and span;
    /// `None` when a column is not a null-free `Int` or the slot count
    /// exceeds `max_slots`. The min/max pass over a column stops as soon
    /// as its span passes what the bound leaves.
    pub fn within(cols: &[&'a Column], rows: Option<&SelVec>, max_slots: usize) -> Option<Self> {
        let ints = cols
            .iter()
            .map(|c| match c.accessor() {
                ColumnAccessor::Int(v) if !c.has_nulls() => Some(v),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        let mut parts = Vec::with_capacity(ints.len());
        let mut slots = 1usize;
        for v in ints {
            let (base, span) = int_span(v, rows, max_slots / slots)?;
            parts.push((v, base, span, slots));
            slots *= span;
        }
        Some(DirectKey { parts, slots })
    }

    /// The number of key columns.
    pub fn width(&self) -> usize {
        self.parts.len()
    }

    /// The number of slots: every row's slot is below it.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The slot of row `i`.
    #[inline]
    pub fn slot(&self, i: usize) -> usize {
        self.parts
            .iter()
            .map(|(v, base, _, stride)| (v.get(i) - base) as usize * stride)
            .sum()
    }

    /// The slot row `i` of `probe` — other `Int` columns, one per key
    /// column — would hold, or `None` when a value lies outside this key's
    /// domain, where no row of it can match.
    #[inline]
    pub fn probe_slot(&self, probe: &[IntsRef], i: usize) -> Option<usize> {
        debug_assert_eq!(probe.len(), self.parts.len());
        let mut slot = 0;
        for ((_, base, span, stride), v) in self.parts.iter().zip(probe) {
            let off = usize::try_from(v.get(i).checked_sub(*base)?).ok()?;
            if off >= *span {
                return None;
            }
            slot += off * stride;
        }
        Some(slot)
    }
}

/// Frame base and value span of `v` over the base rows `rows` selects
/// (every row when `None`); `None` when there are none or the span exceeds
/// `limit`. A whole packed column's frame comes for free; otherwise one
/// min/max pass, which stops at the first stretch of rows that takes the
/// span past `limit`.
fn int_span(v: IntsRef, rows: Option<&SelVec>, limit: usize) -> Option<(i64, usize)> {
    let mut seen: Option<(i64, i64)> = None;
    // widen the running (min, max) by lo..=hi; false once the span passes limit
    let mut widen = |lo: i64, hi: i64| {
        let (min, max) = seen.map_or((lo, hi), |(min, max)| (min.min(lo), max.max(hi)));
        seen = Some((min, max));
        max.abs_diff(min) < limit as u64
    };
    let within = match (v, rows) {
        (IntsRef::Packed(p), None) => {
            let span = 1usize.checked_shl(p.width())?;
            return (span <= limit).then_some((p.min(), span));
        }
        (IntsRef::Slice(s), None) => s
            .chunks(1024)
            .all(|c| widen(*c.iter().min().unwrap(), *c.iter().max().unwrap())),
        (IntsRef::Rle(r), None) => {
            let mut within = true;
            r.for_runs_in(0..r.len(), |x, _| within = within && widen(x, x));
            within
        }
        (v, Some(sel)) => sel.iter().all(|i| {
            let x = v.get(i);
            widen(x, x)
        }),
    };
    let (min, max) = seen.filter(|_| within)?;
    let span = usize::try_from(max.abs_diff(min)).ok()?.checked_add(1)?;
    Some((min, span))
}

/// Do the columns form a key — no two rows equal under
/// [`Column::cmp_rows`] (`total_cmp` floats, NULL equal to NULL)? The same
/// verdict as [`KeySort::unique`](crate::KeySort::unique), without a sort:
/// one seen mark per slot of the [`DirectKey`] image when the columns have
/// one, otherwise distinct digests, with each digest match confirmed by
/// [`RowOrder::cmp`].
pub fn is_key(columns: &[&Column]) -> bool {
    let n = columns.first().map_or(0, |c| c.len());
    if let Some(direct) = DirectKey::new(columns, n) {
        let mut seen = vec![false; direct.slots()];
        return (0..n).all(|i| !std::mem::replace(&mut seen[direct.slot(i)], true));
    }
    let key = KeyCols::new(columns, n);
    let order = RowOrder::ascending(columns);
    let mut ids = KeyIds::default();
    (0..n).all(|i| {
        ids.id(key.digest(i), i, |rep| order.cmp(rep, i) == Ordering::Equal)
            .1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnData;
    use crate::encoding::Encoding;
    use crate::value::{DataType, Value};

    #[test]
    fn key_detection() {
        let unique = Column::from(vec![3i64, 1, 2]);
        assert!(is_key(&[&unique]));
        let dup = Column::from(vec![1i64, 2, 1]);
        assert!(!is_key(&[&dup]));
        // composite key: neither column alone is a key, together they are
        let a = Column::from(vec![1i64, 1, 2]);
        let b = Column::from(vec![1i64, 2, 1]);
        assert!(!is_key(&[&a]));
        assert!(is_key(&[&a, &b]));
    }

    #[test]
    fn null_free_digests_are_pinned() {
        // the digests grace partitioning and join tables have always used:
        // a change here moves every spill partition
        let cols = [
            Column::from(vec![5i64, -1, 0]),
            Column::from(vec![1.5f64, -0.0, f64::NAN]),
            Column::from(vec!["a", "bc", ""]),
            Column::from(vec!["a", "bc", ""])
                .encode_as(Encoding::Dict)
                .unwrap(),
            Column::from(vec![true, false, true]),
            Column::new(ColumnData::Date(vec![3, -4, 0])),
        ];
        let pinned: [(&[usize], [u64; 3]); 8] = [
            (
                &[0],
                [0x16b1cba95fc60262, 0xde0a564cbcd060c4, 0xe220a8397b1dcdaf],
            ),
            (
                &[1],
                [0xdb54d4bdd996153a, 0x6e789e6aa1b965f4, 0x684013c0037a7123],
            ),
            (
                &[2],
                [0xa3370c505fb96fc9, 0x9e0a4fe92af86a55, 0x422cff0612b4af28],
            ),
            (
                &[3],
                [0xa3370c505fb96fc9, 0x9e0a4fe92af86a55, 0x422cff0612b4af28],
            ),
            (
                &[4],
                [0x71c18690ee42c90b, 0xf88bb8a8724c81ec, 0x71c18690ee42c90b],
            ),
            (
                &[5],
                [0x71bb54d8d101b5b9, 0xd2e131ee2d874156, 0x1b39896a51a8749b],
            ),
            (
                &[0, 2],
                [0xf8039b2be44ac959, 0x7ba1252de26f2f7d, 0xc8c44f787247c2e7],
            ),
            (
                &[1, 3, 5],
                [0xa68583b91c04d861, 0x95afcc0e26c84354, 0x4e5ec6e7bb4e27cc],
            ),
        ];
        for (pick, want) in pinned {
            let picked: Vec<&Column> = pick.iter().map(|&k| &cols[k]).collect();
            let key = KeyCols::new(&picked, 3);
            assert_eq!([0, 1, 2].map(|i| key.digest(i)), want, "columns {pick:?}");
        }
    }

    #[test]
    fn nulls_are_one_key_apart_from_every_value() {
        let vals = [Value::Null, Value::Int(0), Value::Null, Value::Int(0)];
        let c = Column::from_values_typed(DataType::Int, &vals).unwrap();
        let key = KeyCols::new(&[&c], 4);
        assert!(key.has_null(0) && !key.has_null(1));
        assert!(key.rows_eq(0, &key, 2) && key.rows_eq(1, &key, 3));
        assert!(!key.rows_eq(0, &key, 1) && !key.rows_eq(1, &key, 0));
        assert_eq!(key.digest(0), key.digest(2));
        assert_ne!(key.digest(0), key.digest(1));
        assert!(!is_key(&[&c]));
        assert!(is_key(&[&c.take(&[0, 1])]));
    }

    #[test]
    fn key_ids_chain_digest_collisions() {
        // every row under one digest: equality alone separates the keys
        let vals = [7, 3, 7, 9, 3];
        let mut ids = KeyIds::default();
        let got: Vec<(usize, bool)> = (0..vals.len())
            .map(|i| ids.id(0, i, |rep| vals[rep] == vals[i]))
            .collect();
        assert_eq!(
            got,
            [(0, true), (1, true), (0, false), (2, true), (1, false)]
        );
        assert_eq!(ids.reps(), [0, 1, 3]);
    }

    #[test]
    fn direct_key_slots_are_exact_at_the_bound() {
        let span = |top: i64| {
            Column::from(
                (0..1000i64)
                    .map(|i| if i == 1 { top } else { i % 5 })
                    .collect::<Vec<_>>(),
            )
        };
        let (at, over) = (span(65_535), span(65_536));
        assert_eq!(
            DirectKey::new(&[&at], 1000).map(|d| d.slots()),
            Some(1 << 16)
        );
        assert!(DirectKey::new(&[&over], 1000).is_none());
        let packed = Column::from(vec![9i64, 4, 7])
            .encode_as(Encoding::Packed)
            .unwrap();
        let d = DirectKey::new(&[&packed], 3).unwrap();
        assert_eq!([0, 1, 2].map(|i| d.slot(i)), [5, 0, 3]);
    }

    #[test]
    fn a_selection_spans_only_its_rows() {
        let c = Column::from(vec![0i64, 1_000_000, 7, 9, 8]);
        let sel = SelVec::from_indices(vec![4, 2, 3]);
        for enc in [Encoding::Plain, Encoding::Packed, Encoding::Rle] {
            let c = c.encode_as(enc).unwrap();
            let d = DirectKey::within(&[&c], Some(&sel), 3).unwrap();
            assert_eq!(d.slots(), 3, "{enc:?}");
            assert_eq!([4, 2, 3].map(|i| d.slot(i)), [1, 0, 2], "{enc:?}");
            assert!(DirectKey::within(&[&c], Some(&sel), 2).is_none());
        }
        let all = DirectKey::within(&[&c], None, 1_000_001).map(|d| d.slots());
        assert_eq!(all, Some(1_000_001));
        assert!(DirectKey::within(&[&c], None, 1_000_000).is_none());
        // two columns share one bound: spans 3 × 2 need 6 slots
        let q = Column::from(vec![5i64, 5, 4, 4, 5]);
        let d = DirectKey::within(&[&c, &q], Some(&sel), 6).unwrap();
        assert_eq!([4, 2, 3].map(|i| d.slot(i)), [4, 0, 2]);
        assert!(DirectKey::within(&[&c, &q], Some(&sel), 5).is_none());
    }

    #[test]
    fn probe_slots_are_range_checked_per_column() {
        // domain p ∈ -5..=4 (stride 1) × q ∈ 10..=12 (stride 10)
        let p = Column::from(vec![-5i64, 4, 0]);
        let q = Column::from(vec![10i64, 12, 11]);
        let d = DirectKey::new(&[&p, &q], 3).unwrap();
        assert_eq!(d.slots(), 30);
        let probe = |ps: Vec<i64>, qs: Vec<i64>| {
            let (pc, qc) = (Column::from(ps), Column::from(qs));
            let ints = [&pc, &qc].map(|c| match c.accessor() {
                ColumnAccessor::Int(v) => v,
                _ => unreachable!(),
            });
            (0..pc.len())
                .map(|i| d.probe_slot(&ints, i))
                .collect::<Vec<_>>()
        };
        // inside the domain a probe's slot is the build's slot
        assert_eq!(
            probe(vec![-5, 4, 0], vec![10, 12, 11]),
            [0, 1, 2].map(|i| Some(d.slot(i)))
        );
        // one column out of range is no slot, even where the sum of the
        // offsets would land on one
        assert_eq!(
            probe(
                vec![-6, 5, 5, 0, i64::MIN, i64::MAX, 0],
                vec![10, 10, 11, 13, 10, 10, i64::MIN]
            ),
            [None; 7]
        );
    }
}
