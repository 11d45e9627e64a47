//! Per-column compressed encodings: run-length, dictionary, bit-packing.
//!
//! Table 5 of the paper shows that MonetDB's storage makes `add` on sparse
//! relations up to 2× faster than on dense ones; earlier revisions
//! reproduced that with a one-off zero-run float codec. This module
//! generalises the idea into the storage layer proper: a [`Rle`] column
//! stores *any* repeated value as a run (zeros included), a [`Dict`]
//! column stores low-cardinality strings as `u32` codes into a sorted
//! value table, and a [`Packed`] column stores narrow-range integers
//! frame-of-reference bit-packed. All three plug in beneath
//! `ColumnData` as first-class variants, and the kernel-facing accessor
//! surface (`rma_storage::access`) lets operators run on the encoded form
//! without decompressing.
//!
//! Encoded payloads hold no plain copy of themselves. A caller that needs
//! the plain form (a *sink* — see ARCHITECTURE.md "Storage encodings")
//! asks `Column::decoded()`, which decompresses into an owned vector on
//! every call and counts each call in [`decode_sink_events`] and the
//! thread's query counter ([`swap_sink_counter`]). Kernels that stay on
//! the encoded form never decode, which is what the zero-sink acceptance
//! tests assert.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of decode sinks: how many times `Column::decoded()`
/// decompressed an encoded column into its plain form. Every call counts;
/// nothing is cached.
static DECODE_SINKS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The sink counter of the query running on this thread, if any.
    static QUERY_SINKS: RefCell<Option<Arc<AtomicU64>>> = const { RefCell::new(None) };
}

/// Current value of the process-wide decode-sink counter.
pub fn decode_sink_events() -> u64 {
    DECODE_SINKS.load(Ordering::Relaxed)
}

pub(crate) fn count_decode_sink() {
    DECODE_SINKS.fetch_add(1, Ordering::Relaxed);
    QUERY_SINKS.with_borrow(|c| c.as_ref().map(|c| c.fetch_add(1, Ordering::Relaxed)));
}

/// Count this thread's decode sinks into `counter` too (`None`: only the
/// process total) and return the previous counter, which the caller
/// restores when its query ends (the query guard's activation does).
pub fn swap_sink_counter(counter: Option<Arc<AtomicU64>>) -> Option<Arc<AtomicU64>> {
    QUERY_SINKS.replace(counter)
}

/// Which physical encoding a column's storage uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// A contiguous typed `Vec` (the uncompressed baseline).
    Plain,
    /// Run-length encoding: repeated values stored as (value, length).
    Rle,
    /// Dictionary encoding: `u32` codes into a sorted unique-value table.
    Dict,
    /// Frame-of-reference bit-packing: `value - min` stored in `width` bits.
    Packed,
}

impl Encoding {
    /// Short lower-case name, as rendered by EXPLAIN and the metrics JSON.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Plain => "plain",
            Encoding::Rle => "rle",
            Encoding::Dict => "dict",
            Encoding::Packed => "packed",
        }
    }
}

/// Minimum run length worth encoding; shorter repeats stay inside dense
/// segments so near-unique data does not fragment into tiny runs.
pub const MIN_RUN: usize = 8;

/// One segment of an RLE column: a run of one repeated value or a dense
/// stretch of mixed values.
#[derive(Debug, Clone, PartialEq)]
pub enum Seg<T> {
    /// `len` consecutive copies of `value`.
    Run {
        /// The repeated value.
        value: T,
        /// Number of consecutive rows holding it.
        len: usize,
    },
    /// A dense stretch with no run of at least [`MIN_RUN`].
    Dense(Vec<T>),
}

impl<T> Seg<T> {
    /// Rows covered by this segment.
    pub fn len(&self) -> usize {
        match self {
            Seg::Run { len, .. } => *len,
            Seg::Dense(v) => v.len(),
        }
    }

    /// Is the segment empty? (Never true for segments built by `encode`.)
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The value types RLE can encode: plain-old-data with equality.
pub trait RleValue: Copy + PartialEq + std::fmt::Debug {}

impl RleValue for i64 {}
impl RleValue for f64 {}

/// A run-length-encoded vector: segments plus prefix offsets for O(log s)
/// point access.
#[derive(Debug, Clone)]
pub struct Rle<T: RleValue> {
    segs: Vec<Seg<T>>,
    /// `starts[k]` is the first row covered by `segs[k]`.
    starts: Vec<usize>,
    len: usize,
}

/// Representational equality (same segmentation). Columns compare
/// logically — see `Column`'s `PartialEq` — so two RLE payloads with
/// different segment boundaries still compare equal at the column level.
impl<T: RleValue> PartialEq for Rle<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.segs == other.segs
    }
}

impl<T: RleValue> Rle<T> {
    /// Encode a slice, turning every repeat of at least [`MIN_RUN`] equal
    /// values into a run segment.
    pub fn encode(values: &[T]) -> Rle<T> {
        let mut segs: Vec<Seg<T>> = Vec::new();
        let mut dense: Vec<T> = Vec::new();
        let mut i = 0;
        while i < values.len() {
            let start = i;
            let v = values[i];
            // a NaN equals nothing, itself included: it is a run of one
            i += 1;
            while i < values.len() && values[i] == v {
                i += 1;
            }
            let run = i - start;
            if run >= MIN_RUN {
                if !dense.is_empty() {
                    segs.push(Seg::Dense(std::mem::take(&mut dense)));
                }
                segs.push(Seg::Run { value: v, len: run });
            } else {
                dense.extend(std::iter::repeat_n(v, run));
            }
        }
        if !dense.is_empty() {
            segs.push(Seg::Dense(dense));
        }
        Rle::from_segs(segs, values.len())
    }

    /// Rebuild from segments (the spill reader's constructor). Panics if
    /// the segment lengths do not sum to `len`.
    pub fn from_segs(segs: Vec<Seg<T>>, len: usize) -> Rle<T> {
        let mut starts = Vec::with_capacity(segs.len());
        let mut total = 0usize;
        for s in &segs {
            starts.push(total);
            total += s.len();
        }
        assert_eq!(total, len, "RLE segment lengths must sum to len");
        Rle { segs, starts, len }
    }

    /// Logical row count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the vector empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The segments, in row order.
    pub fn segs(&self) -> &[Seg<T>] {
        &self.segs
    }

    /// Number of values physically stored (runs store one value each —
    /// the compression metric).
    pub fn stored_values(&self) -> usize {
        self.segs
            .iter()
            .map(|s| match s {
                Seg::Run { .. } => 1,
                Seg::Dense(v) => v.len(),
            })
            .sum()
    }

    /// Point access: the value at logical row `i`.
    pub fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        let k = match self.starts.binary_search(&i) {
            Ok(k) => k,
            Err(k) => k - 1,
        };
        match &self.segs[k] {
            Seg::Run { value, .. } => *value,
            Seg::Dense(v) => v[i - self.starts[k]],
        }
    }

    /// Visit every segment as `(start_row, seg)` — the run-aware kernel
    /// entry point; kernels multiply run lengths here instead of looping
    /// rows.
    pub fn for_each_seg(&self, mut f: impl FnMut(usize, &Seg<T>)) {
        for (k, s) in self.segs.iter().enumerate() {
            f(self.starts[k], s);
        }
    }

    /// Visit the values of rows `range` with their multiplicity: a segment
    /// overlapping the range is reported run-at-a-time, once with its
    /// overlap length, or value-at-a-time with multiplicity 1.
    pub fn for_runs_in(&self, range: std::ops::Range<usize>, mut f: impl FnMut(T, usize)) {
        for (seg, &s0) in self.segs.iter().zip(&self.starts) {
            if s0 >= range.end {
                break;
            }
            let (lo, hi) = (s0.max(range.start), (s0 + seg.len()).min(range.end));
            match seg {
                Seg::Run { value, .. } if hi > lo => f(*value, hi - lo),
                Seg::Dense(v) => (lo..hi).for_each(|i| f(v[i - s0], 1)),
                Seg::Run { .. } => {}
            }
        }
    }

    /// The subrange `start..end`, still run-length encoded (partitioned
    /// scans slice runs without decoding them).
    pub fn slice(&self, start: usize, end: usize) -> Rle<T> {
        debug_assert!(start <= end && end <= self.len);
        let mut segs: Vec<Seg<T>> = Vec::new();
        self.for_each_seg(|s0, seg| {
            let s1 = s0 + seg.len();
            let lo = s0.max(start);
            let hi = s1.min(end);
            if lo >= hi {
                return;
            }
            match seg {
                Seg::Run { value, .. } => segs.push(Seg::Run {
                    value: *value,
                    len: hi - lo,
                }),
                Seg::Dense(v) => segs.push(Seg::Dense(v[lo - s0..hi - s0].to_vec())),
            }
        });
        Rle::from_segs(segs, end - start)
    }

    /// Decode to a plain vector.
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        for s in &self.segs {
            match s {
                Seg::Run { value, len } => out.extend(std::iter::repeat_n(*value, *len)),
                Seg::Dense(v) => out.extend_from_slice(v),
            }
        }
        out
    }

    /// Approximate heap bytes of the encoded form.
    pub fn encoded_bytes(&self) -> usize {
        self.stored_values() * std::mem::size_of::<T>() + self.segs.len() * 16
    }
}

/// Element-wise addition of two RLE float vectors of equal length.
/// Overlapping runs add in O(1) per overlap — zero runs on both sides
/// (the paper's Table 5 sparse case) never touch a value, and any other
/// repeated value is just as cheap.
pub fn rle_add_f64(a: &Rle<f64>, b: &Rle<f64>) -> Rle<f64> {
    assert_eq!(a.len(), b.len(), "rle add length mismatch");
    let mut out: Vec<Seg<f64>> = Vec::new();
    let mut ca = SegCursor::new(&a.segs);
    let mut cb = SegCursor::new(&b.segs);
    let mut remaining = a.len();
    while remaining > 0 {
        let step = ca.run_left().min(cb.run_left()).min(remaining);
        match (ca.current(), cb.current()) {
            (Seg::Run { value: x, .. }, Seg::Run { value: y, .. }) => {
                push_run(&mut out, x + y, step);
            }
            (Seg::Run { value: x, .. }, Seg::Dense(v)) => {
                push_dense_iter(
                    &mut out,
                    v[cb.offset..cb.offset + step].iter().map(|y| x + y),
                );
            }
            (Seg::Dense(v), Seg::Run { value: y, .. }) => {
                push_dense_iter(
                    &mut out,
                    v[ca.offset..ca.offset + step].iter().map(|x| x + y),
                );
            }
            (Seg::Dense(va), Seg::Dense(vb)) => {
                let sa = &va[ca.offset..ca.offset + step];
                let sb = &vb[cb.offset..cb.offset + step];
                push_dense_iter(&mut out, sa.iter().zip(sb).map(|(x, y)| x + y));
            }
        }
        ca.advance(step);
        cb.advance(step);
        remaining -= step;
    }
    Rle::from_segs(out, a.len())
}

fn push_run<T: RleValue>(segs: &mut Vec<Seg<T>>, value: T, n: usize) {
    if let Some(Seg::Run { value: v, len }) = segs.last_mut() {
        if *v == value {
            *len += n;
            return;
        }
    }
    segs.push(Seg::Run { value, len: n });
}

fn push_dense_iter<T: RleValue>(segs: &mut Vec<Seg<T>>, vals: impl Iterator<Item = T>) {
    if let Some(Seg::Dense(d)) = segs.last_mut() {
        d.extend(vals);
        return;
    }
    segs.push(Seg::Dense(vals.collect()));
}

/// Cursor over a segment list for merge-style iteration.
struct SegCursor<'a, T: RleValue> {
    segs: &'a [Seg<T>],
    seg: usize,
    offset: usize,
}

impl<'a, T: RleValue> SegCursor<'a, T> {
    fn new(segs: &'a [Seg<T>]) -> Self {
        SegCursor {
            segs,
            seg: 0,
            offset: 0,
        }
    }

    fn current(&self) -> &'a Seg<T> {
        &self.segs[self.seg]
    }

    fn run_left(&self) -> usize {
        self.current().len() - self.offset
    }

    fn advance(&mut self, n: usize) {
        self.offset += n;
        while self.seg < self.segs.len() && self.offset >= self.segs[self.seg].len() {
            self.offset -= self.segs[self.seg].len();
            self.seg += 1;
        }
    }
}

/// A dictionary-encoded string vector: `u32` codes into a sorted table of
/// unique values. The value table is `Arc`-shared, so gathers and slices
/// reuse it; code order equals value order (the table is sorted), which
/// keeps per-code predicate tables deterministic.
#[derive(Debug, Clone)]
pub struct Dict {
    values: Arc<Vec<String>>,
    codes: Vec<u32>,
}

/// Representational equality (same table, same codes); columns compare
/// logically above this.
impl PartialEq for Dict {
    fn eq(&self, other: &Self) -> bool {
        self.codes == other.codes && self.values == other.values
    }
}

impl Dict {
    /// Encode a slice: collect the sorted unique values and map each row
    /// to its code.
    pub fn encode(values: &[String]) -> Dict {
        let mut table: Vec<&String> = values.iter().collect();
        table.sort_unstable();
        table.dedup();
        let uniques: Vec<String> = table.iter().map(|s| (*s).clone()).collect();
        let codes = values
            .iter()
            .map(|v| {
                uniques
                    .binary_search(v)
                    .expect("value present in its own dictionary") as u32
            })
            .collect();
        Dict {
            values: Arc::new(uniques),
            codes,
        }
    }

    /// Rebuild from parts (the spill reader's constructor). Panics if any
    /// code is out of range.
    pub fn from_parts(values: Arc<Vec<String>>, codes: Vec<u32>) -> Dict {
        assert!(
            codes.iter().all(|&c| (c as usize) < values.len().max(1)),
            "dictionary code out of range"
        );
        Dict { values, codes }
    }

    /// Logical row count.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Is the vector empty?
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The sorted unique-value table.
    pub fn values(&self) -> &Arc<Vec<String>> {
        &self.values
    }

    /// The per-row codes.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The string behind one code.
    pub fn value(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// Point access: the string at logical row `i`.
    pub fn get(&self, i: usize) -> &str {
        self.value(self.codes[i])
    }

    /// The code at logical row `i`.
    #[inline]
    pub fn code(&self, i: usize) -> u32 {
        self.codes[i]
    }

    /// Do two dictionaries share the same value table (`Arc` identity)?
    /// When they do, codes compare and join directly without touching
    /// string bytes.
    pub fn shares_table(&self, other: &Dict) -> bool {
        Arc::ptr_eq(&self.values, &other.values)
    }

    /// The code of `s` in the table, if present (predicates use this for
    /// code-set membership tests without touching row data).
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.values
            .binary_search_by(|v| v.as_str().cmp(s))
            .ok()
            .map(|i| i as u32)
    }

    /// Gather rows by index — codes move, the value table is shared.
    pub fn take(&self, idx: &[usize]) -> Dict {
        Dict {
            values: Arc::clone(&self.values),
            codes: idx.iter().map(|&i| self.codes[i]).collect(),
        }
    }

    /// The subrange `start..end`, still dictionary encoded.
    pub fn slice(&self, start: usize, end: usize) -> Dict {
        Dict {
            values: Arc::clone(&self.values),
            codes: self.codes[start..end].to_vec(),
        }
    }

    /// Decode to a plain vector.
    pub fn to_vec(&self) -> Vec<String> {
        self.codes
            .iter()
            .map(|&c| self.values[c as usize].clone())
            .collect()
    }

    /// Approximate heap bytes of the encoded form (codes + value table).
    pub fn encoded_bytes(&self) -> usize {
        self.codes.len() * 4
            + self
                .values
                .iter()
                .map(|s| s.len() + std::mem::size_of::<String>())
                .sum::<usize>()
    }
}

/// A frame-of-reference bit-packed integer vector: every value is stored
/// as `value - min` in `width` bits, densely packed into `u64` words.
#[derive(Debug, Clone)]
pub struct Packed {
    min: i64,
    width: u32,
    len: usize,
    words: Vec<u64>,
}

impl PartialEq for Packed {
    fn eq(&self, other: &Self) -> bool {
        self.min == other.min
            && self.width == other.width
            && self.len == other.len
            && self.words == other.words
    }
}

impl Packed {
    /// Encode a slice. Returns `None` when the value range does not admit
    /// a packing narrower than plain storage (range needs ≥ 64 bits, or
    /// the slice is empty).
    pub fn encode(values: &[i64]) -> Option<Packed> {
        let (&min, &max) = (values.iter().min()?, values.iter().max()?);
        let range = max.checked_sub(min)? as u64;
        let width = 64 - range.leading_zeros();
        if width >= 64 {
            return None;
        }
        let mut words = vec![0u64; ((values.len() as u64 * width as u64).div_ceil(64)) as usize];
        if width > 0 {
            for (i, &v) in values.iter().enumerate() {
                let delta = (v - min) as u64;
                let pos = i as u64 * width as u64;
                let (w, bit) = ((pos / 64) as usize, (pos % 64) as u32);
                words[w] |= delta << bit;
                if bit + width > 64 {
                    words[w + 1] |= delta >> (64 - bit);
                }
            }
        }
        Some(Packed {
            min,
            width,
            len: values.len(),
            words,
        })
    }

    /// Rebuild from parts (the spill reader's constructor).
    pub fn from_parts(min: i64, width: u32, len: usize, words: Vec<u64>) -> Packed {
        assert!(width < 64, "packed width must be < 64");
        assert!(
            words.len() as u64 * 64 >= len as u64 * width as u64,
            "packed words too short for len × width"
        );
        Packed {
            min,
            width,
            len,
            words,
        }
    }

    /// Logical row count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the vector empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The frame-of-reference base (the minimum at encode time).
    pub fn min(&self) -> i64 {
        self.min
    }

    /// Bits per stored value.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The packed words (the spill writer serialises these directly).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Point access: the value at logical row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        debug_assert!(i < self.len);
        if self.width == 0 {
            return self.min;
        }
        let pos = i as u64 * self.width as u64;
        let (w, bit) = ((pos / 64) as usize, (pos % 64) as u32);
        let mask = (1u64 << self.width) - 1;
        let mut delta = self.words[w] >> bit;
        if bit + self.width > 64 {
            delta |= self.words[w + 1] << (64 - bit);
        }
        self.min + (delta & mask) as i64
    }

    /// Decode to a plain vector.
    pub fn to_vec(&self) -> Vec<i64> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Approximate heap bytes of the encoded form.
    pub fn encoded_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_roundtrip_and_point_access() {
        let v: Vec<i64> = [vec![7i64; 20], vec![1, 2, 3], vec![0; 100]].concat();
        let r = Rle::encode(&v);
        assert_eq!(r.len(), v.len());
        assert_eq!(r.to_vec(), v);
        assert_eq!(r.stored_values(), 5); // run(7) + dense[1,2,3] + run(0)
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(r.get(i), x);
        }
    }

    #[test]
    fn rle_short_repeats_stay_dense() {
        let v = vec![1.0f64, 1.0, 2.0, 2.0, 3.0];
        let r = Rle::encode(&v);
        assert_eq!(r.segs().len(), 1);
        assert_eq!(r.to_vec(), v);
    }

    #[test]
    fn rle_slice_keeps_runs() {
        let v: Vec<i64> = [vec![5i64; 50], vec![9; 50]].concat();
        let r = Rle::encode(&v);
        let s = r.slice(40, 60);
        assert_eq!(s.len(), 20);
        assert_eq!(s.to_vec(), v[40..60].to_vec());
        assert_eq!(s.segs().len(), 2);
        assert!(r.slice(10, 10).is_empty());
    }

    #[test]
    fn rle_add_matches_dense() {
        let mut a = vec![0.0f64; 300];
        let mut b = vec![0.0f64; 300];
        for i in (0..300).step_by(3) {
            a[i] = i as f64;
        }
        for i in (0..300).step_by(7) {
            b[i] = 2.0 * i as f64;
        }
        let sum = rle_add_f64(&Rle::encode(&a), &Rle::encode(&b)).to_vec();
        let expected: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert_eq!(sum, expected);
    }

    #[test]
    fn rle_add_skips_common_runs() {
        let mut a = vec![0.0f64; 1000];
        let mut b = vec![0.0f64; 1000];
        a[0] = 1.0;
        b[0] = 2.0;
        let c = rle_add_f64(&Rle::encode(&a), &Rle::encode(&b));
        assert!(c.stored_values() < 20);
        assert_eq!(c.get(0), 3.0);
        assert_eq!(c.get(999), 0.0);
    }

    #[test]
    fn dict_roundtrip_codes_sorted() {
        let vals: Vec<String> = ["CA", "FL", "CA", "NY", "CA"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let d = Dict::encode(&vals);
        assert_eq!(d.values().as_slice(), &["CA", "FL", "NY"]);
        assert_eq!(d.codes(), &[0, 1, 0, 2, 0]);
        assert_eq!(d.to_vec(), vals);
        assert_eq!(d.code_of("NY"), Some(2));
        assert_eq!(d.code_of("TX"), None);
        assert_eq!(d.get(3), "NY");
    }

    #[test]
    fn dict_take_and_slice_share_table() {
        let vals: Vec<String> = ["a", "b", "a", "c"].iter().map(|s| s.to_string()).collect();
        let d = Dict::encode(&vals);
        let t = d.take(&[3, 0]);
        assert!(Arc::ptr_eq(t.values(), d.values()));
        assert_eq!(t.to_vec(), vec!["c", "a"]);
        let s = d.slice(1, 3);
        assert_eq!(s.to_vec(), vec!["b", "a"]);
    }

    #[test]
    fn packed_roundtrip_various_widths() {
        for base in [-1000i64, 0, 1 << 40] {
            let v: Vec<i64> = (0..200).map(|i| base + (i * 37) % 1000).collect();
            let p = Packed::encode(&v).unwrap();
            assert!(p.width() <= 10);
            assert_eq!(p.to_vec(), v);
        }
    }

    #[test]
    fn packed_constant_column_width_zero() {
        let p = Packed::encode(&[42i64; 100]).unwrap();
        assert_eq!(p.width(), 0);
        assert_eq!(p.encoded_bytes(), 0);
        assert_eq!(p.get(99), 42);
    }

    #[test]
    fn packed_rejects_full_range() {
        assert!(Packed::encode(&[i64::MIN, i64::MAX]).is_none());
        assert!(Packed::encode(&[]).is_none());
    }

    #[test]
    fn packed_cross_word_boundaries() {
        // width 13 → values straddle u64 boundaries regularly
        let v: Vec<i64> = (0..500).map(|i| (i * 17) % 8000).collect();
        let p = Packed::encode(&v).unwrap();
        assert_eq!(p.width(), 13);
        assert_eq!(p.to_vec(), v);
    }

    #[test]
    fn encoded_bytes_report_compression() {
        let r = Rle::encode(&[0.0f64; 10_000]);
        assert!(r.encoded_bytes() * 2 < 10_000 * 8);
        let d = Dict::encode(&vec!["hello".to_string(); 1000]);
        assert!(d.encoded_bytes() < 1000 * 8);
        let p = Packed::encode(&(0..10_000i64).map(|i| i % 16).collect::<Vec<_>>()).unwrap();
        assert_eq!(p.width(), 4);
        assert!(p.encoded_bytes() * 2 < 10_000 * 8);
    }
}
