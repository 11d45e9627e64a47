//! Typed column vectors — the tail of a BAT.
//!
//! Each column stores a contiguous `Vec` of one primitive type plus an
//! optional null bitmap. All bulk operators work directly on the typed
//! vectors; [`Value`] is only used at the edges.
//!
//! Both the data vector and the bitmap live behind `Arc`, so cloning a
//! column is O(1) — operators share intermediate results instead of deep
//! copying them, and [`Column::append`] copies-on-write only when a shared
//! column is actually extended. Row selection composes with this through
//! [`Column::gather`], which materialises the rows named by a
//! [`SelVec`].

use crate::bitmap::Bitmap;
use crate::encoding::{Dict, Encoding, Packed, Rle};
use crate::error::StorageError;
use crate::selvec::SelVec;
use crate::stats::ColumnStats;
use crate::value::{DataType, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Typed storage for the rows of one attribute.
///
/// The first five variants are plain contiguous vectors — the public
/// construction surface. The remaining variants are compressed physical
/// forms (`#[doc(hidden)]`; see `rma_storage::encoding`): kernels must not
/// match them directly but go through [`Column::accessor`], so future
/// encodings are additive. The enum is `#[non_exhaustive]` for exactly
/// that reason — out-of-crate matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<String>),
    Bool(Vec<bool>),
    Date(Vec<i32>),
    /// Run-length-encoded integers (physical form; match via accessors).
    #[doc(hidden)]
    RleInt(Rle<i64>),
    /// Run-length-encoded floats (physical form; match via accessors).
    #[doc(hidden)]
    RleFloat(Rle<f64>),
    /// Dictionary-encoded strings (physical form; match via accessors).
    #[doc(hidden)]
    DictStr(Dict),
    /// Bit-packed integers (physical form; match via accessors).
    #[doc(hidden)]
    PackedInt(Packed),
}

impl ColumnData {
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::RleInt(r) => r.len(),
            ColumnData::RleFloat(r) => r.len(),
            ColumnData::DictStr(d) => d.len(),
            ColumnData::PackedInt(p) => p.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int(_) | ColumnData::RleInt(_) | ColumnData::PackedInt(_) => DataType::Int,
            ColumnData::Float(_) | ColumnData::RleFloat(_) => DataType::Float,
            ColumnData::Str(_) | ColumnData::DictStr(_) => DataType::Str,
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Date(_) => DataType::Date,
        }
    }

    /// The physical encoding of this storage.
    pub fn encoding(&self) -> Encoding {
        match self {
            ColumnData::RleInt(_) | ColumnData::RleFloat(_) => Encoding::Rle,
            ColumnData::DictStr(_) => Encoding::Dict,
            ColumnData::PackedInt(_) => Encoding::Packed,
            _ => Encoding::Plain,
        }
    }

    /// Approximate heap bytes of this storage as physically held.
    pub fn encoded_bytes(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len() * 8,
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Str(v) => v
                .iter()
                .map(|s| s.len() + std::mem::size_of::<String>())
                .sum(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Date(v) => v.len() * 4,
            ColumnData::RleInt(r) => r.encoded_bytes(),
            ColumnData::RleFloat(r) => r.encoded_bytes(),
            ColumnData::DictStr(d) => d.encoded_bytes(),
            ColumnData::PackedInt(p) => p.encoded_bytes(),
        }
    }

    /// Approximate heap bytes the *plain* form of this storage would take
    /// (the denominator of a compression ratio).
    pub fn plain_bytes(&self) -> usize {
        match self {
            ColumnData::DictStr(d) => {
                let per_value: usize = d
                    .values()
                    .iter()
                    .map(|s| s.len() + std::mem::size_of::<String>())
                    .sum::<usize>()
                    .checked_div(d.values().len())
                    .unwrap_or(0);
                d.len() * per_value.max(std::mem::size_of::<String>())
            }
            ColumnData::RleInt(r) => r.len() * 8,
            ColumnData::RleFloat(r) => r.len() * 8,
            ColumnData::PackedInt(p) => p.len() * 8,
            plain => plain.encoded_bytes(),
        }
    }

    /// Empty storage of the given type.
    pub fn empty(dt: DataType) -> Self {
        match dt {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Str => ColumnData::Str(Vec::new()),
            DataType::Bool => ColumnData::Bool(Vec::new()),
            DataType::Date => ColumnData::Date(Vec::new()),
        }
    }

    /// Empty storage of the given type, with reserved capacity.
    pub fn with_capacity(dt: DataType, cap: usize) -> Self {
        match dt {
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Str => ColumnData::Str(Vec::with_capacity(cap)),
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(cap)),
            DataType::Date => ColumnData::Date(Vec::with_capacity(cap)),
        }
    }
}

/// A column: typed data plus an optional null bitmap, both `Arc`-shared.
///
/// `nulls == None` means "no nulls anywhere" — the hot path. When a bitmap is
/// present, the underlying slot of a null row holds an arbitrary placeholder
/// (zero / empty string) that must never be observed through the public API.
///
/// Equality is *logical*: two columns are equal when they hold the same
/// typed values and validity, regardless of physical encoding — an RLE
/// column equals its plain twin.
#[derive(Debug, Clone)]
pub struct Column {
    data: Arc<ColumnData>,
    nulls: Option<Arc<Bitmap>>,
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() || self.data_type() != other.data_type() {
            return false;
        }
        // identical physical representation (incl. both-plain) — cheap
        if self.data == other.data {
            return self.nulls == other.nulls;
        }
        if !(self.is_encoded() || other.is_encoded()) {
            return false; // both plain and the vectors differ
        }
        // cross-encoding (or differently-segmented) comparison: row scan
        // through point access, nulls included
        (0..self.len()).all(|i| self.get(i) == other.get(i))
    }
}

impl Column {
    /// A column from typed data with no nulls.
    pub fn new(data: ColumnData) -> Self {
        Column {
            data: Arc::new(data),
            nulls: None,
        }
    }

    /// A column from typed data with the given null bitmap. The bitmap is
    /// dropped if it has no set bits.
    pub fn with_nulls(data: ColumnData, nulls: Bitmap) -> Result<Self, StorageError> {
        if nulls.len() != data.len() {
            return Err(StorageError::LengthMismatch {
                left: data.len(),
                right: nulls.len(),
            });
        }
        let nulls = if nulls.all_clear() {
            None
        } else {
            Some(Arc::new(nulls))
        };
        Ok(Column {
            data: Arc::new(data),
            nulls,
        })
    }

    /// Rewrap shared parts into a column (internal zero-copy constructor;
    /// the bitmap is assumed non-empty when present).
    fn from_parts(data: Arc<ColumnData>, nulls: Option<Arc<Bitmap>>) -> Self {
        debug_assert!(nulls.as_ref().is_none_or(|b| b.len() == data.len()));
        Column { data, nulls }
    }

    /// Build a column from scalar values; infers the type from the first
    /// non-null value. An all-null column needs an explicit type, use
    /// [`Column::from_values_typed`].
    pub fn from_values(values: &[Value]) -> Result<Self, StorageError> {
        let dt = values
            .iter()
            .find_map(|v| v.data_type())
            .ok_or(StorageError::UntypedColumn)?;
        Self::from_values_typed(dt, values)
    }

    /// Build a column of the given type from scalar values; `Null` entries
    /// set the bitmap, non-null entries must match `dt`.
    pub fn from_values_typed(dt: DataType, values: &[Value]) -> Result<Self, StorageError> {
        let mut data = ColumnData::with_capacity(dt, values.len());
        let mut nulls = Bitmap::new(values.len());
        let mut any_null = false;
        for (i, v) in values.iter().enumerate() {
            if v.is_null() {
                any_null = true;
                nulls.set(i);
                push_placeholder(&mut data);
                continue;
            }
            match (&mut data, v) {
                (ColumnData::Int(d), Value::Int(x)) => d.push(*x),
                (ColumnData::Float(d), Value::Float(x)) => d.push(*x),
                (ColumnData::Float(d), Value::Int(x)) => d.push(*x as f64),
                (ColumnData::Str(d), Value::Str(x)) => d.push(x.clone()),
                (ColumnData::Bool(d), Value::Bool(x)) => d.push(*x),
                (ColumnData::Date(d), Value::Date(x)) => d.push(*x),
                _ => {
                    return Err(StorageError::TypeMismatch {
                        expected: dt,
                        found: v.data_type(),
                    })
                }
            }
        }
        if any_null {
            Column::with_nulls(data, nulls)
        } else {
            Ok(Column::new(data))
        }
    }

    /// A column holding `len` copies of one scalar. Costs O(len) storage —
    /// expression evaluation avoids calling this until a constant result
    /// must actually become a column (see `rma_relation::Expr`).
    pub fn broadcast(v: &Value, dt: DataType, len: usize) -> Result<Self, StorageError> {
        if v.is_null() {
            let mut nulls = Bitmap::new(len);
            let mut data = ColumnData::with_capacity(dt, len);
            for i in 0..len {
                nulls.set(i);
                push_placeholder(&mut data);
            }
            return Column::with_nulls(data, nulls);
        }
        let data = match (dt, v) {
            (DataType::Int, Value::Int(x)) => ColumnData::Int(vec![*x; len]),
            (DataType::Float, Value::Float(x)) => ColumnData::Float(vec![*x; len]),
            (DataType::Float, Value::Int(x)) => ColumnData::Float(vec![*x as f64; len]),
            (DataType::Str, Value::Str(x)) => ColumnData::Str(vec![x.clone(); len]),
            (DataType::Bool, Value::Bool(x)) => ColumnData::Bool(vec![*x; len]),
            (DataType::Date, Value::Date(x)) => ColumnData::Date(vec![*x; len]),
            _ => {
                return Err(StorageError::TypeMismatch {
                    expected: dt,
                    found: v.data_type(),
                })
            }
        };
        Ok(Column::new(data))
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// The column's values as **plain** typed storage — the explicit
    /// decode escape hatch of the accessor contract. For a plain column
    /// this is a free borrow; for an encoded column the first call
    /// decompresses into a cache shared by all clones of the payload and
    /// counts one decode *sink* (see
    /// [`decode_sink_events`](crate::encoding::decode_sink_events)).
    /// Kernels that can stay encoded should use [`Column::accessor`]
    /// instead.
    pub fn data(&self) -> &ColumnData {
        match &*self.data {
            ColumnData::RleInt(r) => r.decoded(),
            ColumnData::RleFloat(r) => r.decoded(),
            ColumnData::DictStr(d) => d.decoded(),
            ColumnData::PackedInt(p) => p.decoded(),
            plain => plain,
        }
    }

    /// The physical storage as held, encoded variants included. Exposed
    /// for the spill writer and encoding-aware tests; kernels use
    /// [`Column::accessor`].
    #[doc(hidden)]
    pub fn raw(&self) -> &ColumnData {
        &self.data
    }

    /// The physical encoding of this column's storage.
    pub fn encoding(&self) -> Encoding {
        self.data.encoding()
    }

    /// Is the storage in a compressed physical form?
    pub fn is_encoded(&self) -> bool {
        self.encoding() != Encoding::Plain
    }

    /// Approximate heap bytes of the storage as physically held.
    pub fn encoded_bytes(&self) -> usize {
        self.data.encoded_bytes()
    }

    /// Approximate heap bytes the plain form would take.
    pub fn plain_bytes(&self) -> usize {
        self.data.plain_bytes()
    }

    /// Re-encode into the requested physical form, sharing the null
    /// bitmap. Returns `None` when the encoding does not apply to this
    /// column's type (or, for [`Encoding::Packed`], when the value range
    /// needs full width). Encoding reads the plain form; on an
    /// already-encoded column that is a sink.
    pub fn encode_as(&self, enc: Encoding) -> Option<Column> {
        let data = match (enc, self.data()) {
            (Encoding::Plain, plain) => plain.clone(),
            (Encoding::Rle, ColumnData::Int(v)) => ColumnData::RleInt(Rle::encode(v)),
            (Encoding::Rle, ColumnData::Float(v)) => ColumnData::RleFloat(Rle::encode(v)),
            (Encoding::Dict, ColumnData::Str(v)) => ColumnData::DictStr(Dict::encode(v)),
            (Encoding::Packed, ColumnData::Int(v)) => ColumnData::PackedInt(Packed::encode(v)?),
            _ => return None,
        };
        Some(Column::from_parts(Arc::new(data), self.nulls.clone()))
    }

    /// Stats-driven encoding choice: pick the physical form this column's
    /// value distribution rewards, or return a clone if none compresses
    /// to at most half the plain bytes. `stats` (the PR 4 per-column
    /// statistics) gates obviously futile attempts — pass `None` to
    /// measure each candidate directly. Already-encoded columns are
    /// returned as-is.
    pub fn encoded(&self, stats: Option<&ColumnStats>) -> Column {
        if self.is_encoded() {
            return self.clone();
        }
        let rows = self.len();
        if rows < crate::encoding::MIN_RUN {
            return self.clone();
        }
        let wins = |c: &Column| c.encoded_bytes() * 2 <= c.plain_bytes();
        match &*self.data {
            ColumnData::Str(_) => {
                // dictionary: only when the distinct count is small both
                // absolutely (u32 codes, per-code predicate tables) and
                // relative to the row count
                let ndv_ok = stats.is_none_or(|s| {
                    s.distinct <= (u32::MAX as usize) / 2 && s.distinct * 2 <= rows.max(1)
                });
                if ndv_ok {
                    if let Some(c) = self.encode_as(Encoding::Dict) {
                        if wins(&c) {
                            return c;
                        }
                    }
                }
            }
            ColumnData::Int(_) => {
                // prefer RLE (keeps run structure for the kernels); fall
                // back to bit-packing for narrow-range but run-free data
                if let Some(c) = self.encode_as(Encoding::Rle) {
                    if wins(&c) {
                        return c;
                    }
                }
                let range_ok = stats.is_none_or(|s| match (&s.min, &s.max) {
                    (Some(Value::Int(lo)), Some(Value::Int(hi))) => hi
                        .checked_sub(*lo)
                        .is_some_and(|r| 64 - (r as u64).leading_zeros() <= 32),
                    _ => true,
                });
                if range_ok {
                    if let Some(c) = self.encode_as(Encoding::Packed) {
                        if wins(&c) {
                            return c;
                        }
                    }
                }
            }
            ColumnData::Float(_) => {
                if let Some(c) = self.encode_as(Encoding::Rle) {
                    if wins(&c) {
                        return c;
                    }
                }
            }
            _ => {}
        }
        self.clone()
    }

    /// The null bitmap, if any row is null.
    pub fn nulls(&self) -> Option<&Bitmap> {
        self.nulls.as_deref()
    }

    pub fn has_nulls(&self) -> bool {
        self.nulls.is_some()
    }

    pub fn null_count(&self) -> usize {
        self.nulls.as_ref().map_or(0, |b| b.count_set())
    }

    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.as_ref().is_some_and(|b| b.get(i))
    }

    /// Read a single cell as a boxed scalar (point access — never
    /// decodes an encoded column).
    pub fn get(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &*self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::RleInt(r) => Value::Int(r.get(i)),
            ColumnData::RleFloat(r) => Value::Float(r.get(i)),
            ColumnData::DictStr(d) => Value::Str(d.get(i).to_string()),
            ColumnData::PackedInt(p) => Value::Int(p.get(i)),
        }
    }

    /// Compare two rows of this column with null-first total order.
    pub fn cmp_rows(&self, i: usize, j: usize) -> Ordering {
        match (self.is_null(i), self.is_null(j)) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => match &*self.data {
                ColumnData::Int(v) => v[i].cmp(&v[j]),
                ColumnData::Float(v) => v[i].total_cmp(&v[j]),
                ColumnData::Str(v) => v[i].cmp(&v[j]),
                ColumnData::Bool(v) => v[i].cmp(&v[j]),
                ColumnData::Date(v) => v[i].cmp(&v[j]),
                ColumnData::RleInt(r) => r.get(i).cmp(&r.get(j)),
                ColumnData::RleFloat(r) => r.get(i).total_cmp(&r.get(j)),
                // the dictionary is sorted, so code order is value order
                ColumnData::DictStr(d) => d.codes()[i].cmp(&d.codes()[j]),
                ColumnData::PackedInt(p) => p.get(i).cmp(&p.get(j)),
            },
        }
    }

    /// Compare row `i` of this column with row `j` of another column in the
    /// null-first total order of [`Value::total_cmp`] (the external sort's
    /// run merge and column-vs-column predicates). Same-type pairs compare
    /// typed through the accessors — no boxing, no string clone; only mixed
    /// types go through `Value`.
    pub fn cmp_rows_cross(&self, i: usize, other: &Column, j: usize) -> Ordering {
        use crate::access::ColumnAccessor as A;
        match (self.is_null(i), other.is_null(j)) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => match (self.accessor(), other.accessor()) {
                (A::Int(a), A::Int(b)) => a.get(i).cmp(&b.get(j)),
                (A::Float(a), A::Float(b)) => a.get(i).total_cmp(&b.get(j)),
                (A::Str(a), A::Str(b)) => a.get(i).cmp(b.get(j)),
                (A::Bool(a), A::Bool(b)) => a[i].cmp(&b[j]),
                (A::Date(a), A::Date(b)) => a[i].cmp(&b[j]),
                _ => self.get(i).total_cmp(&other.get(j)),
            },
        }
    }

    /// Gather rows: `out[k] = self[idx[k]]` (MonetDB `leftfetchjoin`).
    /// Dictionary columns gather their codes and keep the shared value
    /// table; other encodings materialise the selected rows plain via
    /// point access (no whole-column decode, no sink).
    pub fn take(&self, idx: &[usize]) -> Column {
        let data = match &*self.data {
            ColumnData::Int(v) => ColumnData::Int(idx.iter().map(|&i| v[i]).collect()),
            ColumnData::Float(v) => ColumnData::Float(idx.iter().map(|&i| v[i]).collect()),
            ColumnData::Str(v) => ColumnData::Str(idx.iter().map(|&i| v[i].clone()).collect()),
            ColumnData::Bool(v) => ColumnData::Bool(idx.iter().map(|&i| v[i]).collect()),
            ColumnData::Date(v) => ColumnData::Date(idx.iter().map(|&i| v[i]).collect()),
            ColumnData::DictStr(d) => ColumnData::DictStr(d.take(idx)),
            ColumnData::RleInt(r) => ColumnData::Int(idx.iter().map(|&i| r.get(i)).collect()),
            ColumnData::RleFloat(r) => ColumnData::Float(idx.iter().map(|&i| r.get(i)).collect()),
            ColumnData::PackedInt(p) => ColumnData::Int(idx.iter().map(|&i| p.get(i)).collect()),
        };
        let nulls = self.nulls.as_ref().map(|b| b.take(idx));
        let nulls = nulls.filter(|b| !b.all_clear()).map(Arc::new);
        Column::from_parts(Arc::new(data), nulls)
    }

    /// Copy out the contiguous row range `start..end` (the unit of a
    /// row-range partitioned scan). Cheaper than [`Column::take`] with a
    /// dense index list: each variant is one bulk subrange copy. A
    /// full-range slice shares the backing storage instead of copying.
    pub fn slice(&self, start: usize, end: usize) -> Column {
        debug_assert!(start <= end && end <= self.len());
        if start == 0 && end == self.len() {
            return self.clone(); // Arc share, no copy
        }
        let data = match &*self.data {
            ColumnData::Int(v) => ColumnData::Int(v[start..end].to_vec()),
            ColumnData::Float(v) => ColumnData::Float(v[start..end].to_vec()),
            ColumnData::Str(v) => ColumnData::Str(v[start..end].to_vec()),
            ColumnData::Bool(v) => ColumnData::Bool(v[start..end].to_vec()),
            ColumnData::Date(v) => ColumnData::Date(v[start..end].to_vec()),
            // runs and codes slice without decoding
            ColumnData::RleInt(r) => ColumnData::RleInt(r.slice(start, end)),
            ColumnData::RleFloat(r) => ColumnData::RleFloat(r.slice(start, end)),
            ColumnData::DictStr(d) => ColumnData::DictStr(d.slice(start, end)),
            ColumnData::PackedInt(p) => ColumnData::Int((start..end).map(|i| p.get(i)).collect()),
        };
        let nulls = self.nulls.as_ref().map(|b| b.slice(start, end));
        let nulls = nulls.filter(|b| !b.all_clear()).map(Arc::new);
        Column::from_parts(Arc::new(data), nulls)
    }

    /// Materialise the rows a selection vector names, in selection order —
    /// the single compaction step of a late-materialized pipeline.
    pub fn gather(&self, sel: &SelVec) -> Column {
        match sel {
            _ if sel.is_identity(self.len()) => self.clone(),
            SelVec::Range(r) => self.slice(r.start, r.end),
            SelVec::Indices(idx) => self.take(idx),
        }
    }

    /// Keep only rows whose flag is set (vectorised σ on a selection vector).
    pub fn filter(&self, keep: &[bool]) -> Column {
        debug_assert_eq!(keep.len(), self.len());
        let idx: Vec<usize> = keep
            .iter()
            .enumerate()
            .filter_map(|(i, &k)| k.then_some(i))
            .collect();
        self.take(&idx)
    }

    /// Concatenate another column of the same type onto this one,
    /// copying-on-write if the underlying storage is shared.
    pub fn append(&mut self, other: &Column) -> Result<(), StorageError> {
        self.append_gather(other, None)
    }

    /// Append the rows of `other` selected by `sel` (all rows when `None`)
    /// without materialising an intermediate column — the gather and the
    /// concatenation are one pass. This is how partition results and view
    /// parts are reassembled.
    pub fn append_gather(
        &mut self,
        other: &Column,
        sel: Option<&SelVec>,
    ) -> Result<(), StorageError> {
        if self.data_type() != other.data_type() {
            return Err(StorageError::TypeMismatch {
                expected: self.data_type(),
                found: Some(other.data_type()),
            });
        }
        let old_len = self.len();
        let added = sel.map_or(other.len(), SelVec::len);
        // appends mutate plain vectors; an encoded destination sinks first
        // (append is a write path — the result is a fresh, growing column)
        self.make_plain();
        {
            let data = Arc::make_mut(&mut self.data);
            match (data, other.data()) {
                (ColumnData::Int(a), ColumnData::Int(b)) => extend_gather(a, b, sel),
                (ColumnData::Float(a), ColumnData::Float(b)) => extend_gather(a, b, sel),
                (ColumnData::Str(a), ColumnData::Str(b)) => extend_gather(a, b, sel),
                (ColumnData::Bool(a), ColumnData::Bool(b)) => extend_gather(a, b, sel),
                (ColumnData::Date(a), ColumnData::Date(b)) => extend_gather(a, b, sel),
                _ => unreachable!("type equality checked above"),
            }
        }
        // merge the validity bitmaps (through the selection, when present)
        let other_nulls = |m: &mut Bitmap| {
            if let Some(b) = other.nulls() {
                match sel {
                    None => m.extend(b),
                    Some(s) => {
                        let start = m.len();
                        m.grow(added);
                        for (k, i) in s.iter().enumerate() {
                            if b.get(i) {
                                m.set(start + k);
                            }
                        }
                    }
                }
            } else {
                m.grow(added);
            }
        };
        match (&mut self.nulls, other.nulls.is_some()) {
            (None, false) => {}
            (Some(a), _) => other_nulls(Arc::make_mut(a)),
            (None, true) => {
                let mut m = Bitmap::new(old_len);
                other_nulls(&mut m);
                if !m.all_clear() {
                    self.nulls = Some(Arc::new(m));
                }
            }
        }
        Ok(())
    }

    /// View the column as `f64` values; integer columns are widened. Errors
    /// on non-numeric types or on nulls — matrices cannot hold either.
    pub fn to_f64_vec(&self) -> Result<Vec<f64>, StorageError> {
        if let Some(b) = self.nulls() {
            if !b.all_clear() {
                return Err(StorageError::NullInNumericContext);
            }
        }
        match self.data() {
            ColumnData::Int(v) => Ok(v.iter().map(|&x| x as f64).collect()),
            ColumnData::Float(v) => Ok(v.clone()),
            other => Err(StorageError::TypeMismatch {
                expected: DataType::Float,
                found: Some(other.data_type()),
            }),
        }
    }

    /// Borrow the float data directly if this is a null-free float column.
    /// An RLE float column serves the borrow from its decode cache — a
    /// sink on first call, free afterwards (the linalg bridges that call
    /// this need the contiguous form by definition).
    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        if self.has_nulls() {
            return None;
        }
        match &*self.data {
            ColumnData::Float(v) => Some(v),
            ColumnData::RleFloat(r) => match r.decoded() {
                ColumnData::Float(v) => Some(v),
                _ => unreachable!("RLE floats decode to floats"),
            },
            _ => None,
        }
    }

    /// Replace encoded storage with its decoded plain form in place (a
    /// sink when the column was encoded; a no-op otherwise).
    fn make_plain(&mut self) {
        if self.is_encoded() {
            let plain = self.data().clone();
            self.data = Arc::new(plain);
        }
    }

    /// Iterate all cells as boxed scalars (edge use only).
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Do both columns share the same backing storage (`Arc` identity)?
    /// The serving layer's snapshot tests use this to prove that pinning a
    /// catalog snapshot is zero-copy: every reader's view of an unchanged
    /// table is the same `Arc`'d storage the catalog holds, not a copy.
    pub fn shares_data_with(&self, other: &Column) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }
}

fn extend_gather<T: Clone>(a: &mut Vec<T>, b: &[T], sel: Option<&SelVec>) {
    match sel {
        None => a.extend_from_slice(b),
        Some(SelVec::Range(r)) => a.extend_from_slice(&b[r.clone()]),
        Some(SelVec::Indices(idx)) => a.extend(idx.iter().map(|&i| b[i].clone())),
    }
}

fn push_placeholder(data: &mut ColumnData) {
    match data {
        ColumnData::Int(d) => d.push(0),
        ColumnData::Float(d) => d.push(0.0),
        ColumnData::Str(d) => d.push(String::new()),
        ColumnData::Bool(d) => d.push(false),
        ColumnData::Date(d) => d.push(0),
        _ => unreachable!("placeholders are only pushed into plain builders"),
    }
}

/// Convenience constructors for tests and generators.
impl From<Vec<i64>> for Column {
    fn from(v: Vec<i64>) -> Self {
        Column::new(ColumnData::Int(v))
    }
}
impl From<Vec<f64>> for Column {
    fn from(v: Vec<f64>) -> Self {
        Column::new(ColumnData::Float(v))
    }
}
impl From<Vec<String>> for Column {
    fn from(v: Vec<String>) -> Self {
        Column::new(ColumnData::Str(v))
    }
}
impl From<Vec<&str>> for Column {
    fn from(v: Vec<&str>) -> Self {
        Column::new(ColumnData::Str(v.into_iter().map(str::to_string).collect()))
    }
}
impl From<Vec<bool>> for Column {
    fn from(v: Vec<bool>) -> Self {
        Column::new(ColumnData::Bool(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_values_infers_type() {
        let c = Column::from_values(&[Value::Null, Value::Int(3), Value::Int(1)]).unwrap();
        assert_eq!(c.data_type(), DataType::Int);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(0), Value::Null);
        assert_eq!(c.get(1), Value::Int(3));
    }

    #[test]
    fn from_values_all_null_fails() {
        assert!(matches!(
            Column::from_values(&[Value::Null]),
            Err(StorageError::UntypedColumn)
        ));
    }

    #[test]
    fn int_widens_into_float_column() {
        let c = Column::from_values_typed(DataType::Float, &[Value::Int(1), Value::Float(2.5)])
            .unwrap();
        assert_eq!(c.to_f64_vec().unwrap(), vec![1.0, 2.5]);
    }

    #[test]
    fn type_mismatch_rejected() {
        let r = Column::from_values_typed(DataType::Int, &[Value::Str("x".into())]);
        assert!(matches!(r, Err(StorageError::TypeMismatch { .. })));
    }

    #[test]
    fn take_and_filter() {
        let c = Column::from(vec![10i64, 20, 30, 40]);
        let t = c.take(&[3, 0, 0]);
        assert_eq!(t.get(0), Value::Int(40));
        assert_eq!(t.get(2), Value::Int(10));
        let f = c.filter(&[false, true, true, false]);
        assert_eq!(f.len(), 2);
        assert_eq!(f.get(0), Value::Int(20));
    }

    #[test]
    fn take_preserves_nulls() {
        let c = Column::from_values(&[Value::Int(1), Value::Null, Value::Int(3)]).unwrap();
        let t = c.take(&[1, 2]);
        assert!(t.is_null(0));
        assert!(!t.is_null(1));
        // all-valid result drops the bitmap entirely
        let t2 = c.take(&[0, 2]);
        assert!(!t2.has_nulls());
    }

    #[test]
    fn clone_shares_storage() {
        let c = Column::from(vec![1i64, 2, 3]);
        let d = c.clone();
        assert!(Arc::ptr_eq(&c.data, &d.data));
        assert_eq!(c, d);
    }

    #[test]
    fn append_copies_on_write() {
        let c = Column::from(vec![1i64, 2]);
        let mut d = c.clone();
        d.append(&Column::from(vec![3i64])).unwrap();
        // the original is untouched, the clone diverged
        assert_eq!(c.len(), 2);
        assert_eq!(d.len(), 3);
        assert_eq!(d.get(2), Value::Int(3));
    }

    #[test]
    fn gather_range_and_indices() {
        let c = Column::from_values(&[Value::Int(1), Value::Null, Value::Int(3), Value::Int(4)])
            .unwrap();
        let r = c.gather(&SelVec::Range(1..3));
        assert_eq!(r.len(), 2);
        assert!(r.is_null(0));
        let i = c.gather(&SelVec::from_indices(vec![3, 1]));
        assert_eq!(i.get(0), Value::Int(4));
        assert!(i.is_null(1));
        // identity gather shares storage
        let all = c.gather(&SelVec::all(4));
        assert!(Arc::ptr_eq(&c.data, &all.data));
    }

    #[test]
    fn append_gather_selected_rows() {
        let mut a = Column::from(vec![1i64]);
        let b = Column::from_values(&[Value::Int(10), Value::Null, Value::Int(30)]).unwrap();
        a.append_gather(&b, Some(&SelVec::from_indices(vec![2, 1])))
            .unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(1), Value::Int(30));
        assert!(a.is_null(2));
        let mut c = Column::from(vec![1i64]);
        c.append_gather(&b, Some(&SelVec::Range(0..1))).unwrap();
        assert_eq!(c.len(), 2);
        assert!(!c.has_nulls());
    }

    #[test]
    fn broadcast_scalar_and_null() {
        let c = Column::broadcast(&Value::Int(7), DataType::Int, 3).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(2), Value::Int(7));
        let n = Column::broadcast(&Value::Null, DataType::Float, 2).unwrap();
        assert_eq!(n.null_count(), 2);
        let w = Column::broadcast(&Value::Int(1), DataType::Float, 2).unwrap();
        assert_eq!(w.get(0), Value::Float(1.0));
        assert!(Column::broadcast(&Value::Bool(true), DataType::Int, 1).is_err());
    }

    #[test]
    fn append_merges_null_bitmaps() {
        let mut a = Column::from(vec![1i64, 2]);
        let b = Column::from_values(&[Value::Null, Value::Int(4)]).unwrap();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 4);
        assert!(a.is_null(2));
        assert!(!a.is_null(0));
    }

    #[test]
    fn append_type_mismatch() {
        let mut a = Column::from(vec![1i64]);
        assert!(a.append(&Column::from(vec![1.0f64])).is_err());
    }

    #[test]
    fn to_f64_rejects_nulls_and_strings() {
        let c = Column::from_values(&[Value::Float(1.0), Value::Null]).unwrap();
        assert!(matches!(
            c.to_f64_vec(),
            Err(StorageError::NullInNumericContext)
        ));
        let s = Column::from(vec!["a"]);
        assert!(s.to_f64_vec().is_err());
    }

    #[test]
    fn cmp_rows_null_first() {
        let c = Column::from_values(&[Value::Int(5), Value::Null]).unwrap();
        assert_eq!(c.cmp_rows(1, 0), Ordering::Less);
        assert_eq!(c.cmp_rows(0, 0), Ordering::Equal);
    }

    #[test]
    fn cmp_rows_cross_matches_boxed_order() {
        use crate::encoding::Encoding;
        let words = Column::from(vec!["b", "a", "c", "a"]);
        let cols = [
            Column::from_values(&[Value::Int(5), Value::Null, Value::Int(-2)]).unwrap(),
            Column::from(vec![2.5f64, f64::NAN, -0.0]),
            Column::from(vec![5i64, 7, 1])
                .encode_as(Encoding::Packed)
                .unwrap(),
            words.encode_as(Encoding::Dict).unwrap(),
            words,
            Column::from(vec![true, false, true]),
        ];
        // typed pairs, mixed numeric, and cross-type pairs all agree with
        // the boxed comparison
        for a in &cols {
            for b in &cols {
                for i in 0..3 {
                    for j in 0..3 {
                        assert_eq!(
                            a.cmp_rows_cross(i, b, j),
                            a.get(i).total_cmp(&b.get(j)),
                            "{a:?}[{i}] vs {b:?}[{j}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn slice_copies_subrange_with_nulls() {
        let c = Column::from_values(&[Value::Int(1), Value::Null, Value::Int(3), Value::Int(4)])
            .unwrap();
        let s = c.slice(1, 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), Value::Null);
        assert_eq!(s.get(1), Value::Int(3));
        // a slice without nulls drops the bitmap entirely
        let t = c.slice(2, 4);
        assert!(!t.has_nulls());
        assert!(c.slice(1, 1).is_empty());
    }

    #[test]
    fn as_f64_slice_borrows() {
        let c = Column::from(vec![1.0f64, 2.0]);
        assert_eq!(c.as_f64_slice().unwrap(), &[1.0, 2.0]);
        let i = Column::from(vec![1i64]);
        assert!(i.as_f64_slice().is_none());
    }
}
