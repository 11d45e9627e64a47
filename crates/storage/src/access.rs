//! Typed, encoding-aware column accessors — the kernel-facing read surface.
//!
//! Kernels used to pattern-match the `ColumnData` enum directly, which
//! meant every new encoding multiplied match arms across five crates.
//! They now match a [`ColumnAccessor`] instead: one variant per *logical*
//! type, each wrapping a small ref enum ([`IntsRef`], [`FloatsRef`],
//! [`StrsRef`]) that knows how to read the physical form — plain slice,
//! RLE segments, dictionary codes, packed words — without decoding.
//!
//! The contract (ARCHITECTURE.md "Storage encodings"):
//! - `get(i)` is always cheap and never decodes the whole column.
//! - Run-aware kernels probe [`IntsRef::rle`] / [`FloatsRef::rle`] and
//!   multiply run lengths; code-aware kernels probe [`StrsRef::dict`] and
//!   work per distinct value.
//! - A kernel that genuinely needs the contiguous plain vector calls
//!   `Column::decoded()` — the explicit decode. On an encoded column that
//!   is a *sink*: every call decompresses into an owned vector and
//!   counts in the query's and the process's sink counters.

use crate::column::{Column, ColumnData};
use crate::encoding::{Dict, Packed, Rle};

/// Read access to an integer column in any physical encoding.
#[derive(Debug, Clone, Copy)]
pub enum IntsRef<'a> {
    /// Plain contiguous storage.
    Slice(&'a [i64]),
    /// Run-length encoded storage.
    Rle(&'a Rle<i64>),
    /// Frame-of-reference bit-packed storage.
    Packed(&'a Packed),
}

impl<'a> IntsRef<'a> {
    /// Logical row count.
    pub fn len(&self) -> usize {
        match self {
            IntsRef::Slice(v) => v.len(),
            IntsRef::Rle(r) => r.len(),
            IntsRef::Packed(p) => p.len(),
        }
    }

    /// Is the column empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at row `i` (cheap in every encoding; never decodes).
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        match self {
            IntsRef::Slice(v) => v[i],
            IntsRef::Rle(r) => r.get(i),
            IntsRef::Packed(p) => p.get(i),
        }
    }

    /// The RLE payload, when the storage is run-length encoded — the
    /// entry point for run-aware fast paths.
    pub fn rle(&self) -> Option<&'a Rle<i64>> {
        match self {
            IntsRef::Rle(r) => Some(r),
            _ => None,
        }
    }

    /// The plain slice, when the storage is uncompressed.
    pub fn as_slice(&self) -> Option<&'a [i64]> {
        match self {
            IntsRef::Slice(v) => Some(v),
            _ => None,
        }
    }
}

/// Read access to a float column in any physical encoding.
#[derive(Debug, Clone, Copy)]
pub enum FloatsRef<'a> {
    /// Plain contiguous storage.
    Slice(&'a [f64]),
    /// Run-length encoded storage.
    Rle(&'a Rle<f64>),
}

impl<'a> FloatsRef<'a> {
    /// Logical row count.
    pub fn len(&self) -> usize {
        match self {
            FloatsRef::Slice(v) => v.len(),
            FloatsRef::Rle(r) => r.len(),
        }
    }

    /// Is the column empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at row `i` (cheap in every encoding; never decodes).
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        match self {
            FloatsRef::Slice(v) => v[i],
            FloatsRef::Rle(r) => r.get(i),
        }
    }

    /// The RLE payload, when the storage is run-length encoded.
    pub fn rle(&self) -> Option<&'a Rle<f64>> {
        match self {
            FloatsRef::Rle(r) => Some(r),
            _ => None,
        }
    }

    /// The plain slice, when the storage is uncompressed.
    pub fn as_slice(&self) -> Option<&'a [f64]> {
        match self {
            FloatsRef::Slice(v) => Some(v),
            _ => None,
        }
    }
}

/// Read access to a string column in any physical encoding.
#[derive(Debug, Clone, Copy)]
pub enum StrsRef<'a> {
    /// Plain contiguous storage.
    Slice(&'a [String]),
    /// Dictionary-encoded storage.
    Dict(&'a Dict),
}

impl<'a> StrsRef<'a> {
    /// Logical row count.
    pub fn len(&self) -> usize {
        match self {
            StrsRef::Slice(v) => v.len(),
            StrsRef::Dict(d) => d.len(),
        }
    }

    /// Is the column empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The string at row `i` (a code lookup for dictionaries; never
    /// decodes or clones).
    #[inline]
    pub fn get(&self, i: usize) -> &'a str {
        match self {
            StrsRef::Slice(v) => &v[i],
            StrsRef::Dict(d) => d.get(i),
        }
    }

    /// The dictionary payload, when the storage is dictionary encoded —
    /// the entry point for code-set membership predicates and
    /// code-hashing joins.
    pub fn dict(&self) -> Option<&'a Dict> {
        match self {
            StrsRef::Dict(d) => Some(d),
            _ => None,
        }
    }

    /// The plain slice, when the storage is uncompressed.
    pub fn as_slice(&self) -> Option<&'a [String]> {
        match self {
            StrsRef::Slice(v) => Some(v),
            _ => None,
        }
    }
}

/// Typed read access to a column's values, dispatching on *logical* type.
/// Obtained from [`Column::accessor`]; never decodes. Row validity stays
/// on the column (`Column::is_null`) exactly as for plain storage — a
/// null row's slot holds a placeholder in every encoding.
#[derive(Debug, Clone, Copy)]
pub enum ColumnAccessor<'a> {
    /// 64-bit integers (plain, RLE, or bit-packed).
    Int(IntsRef<'a>),
    /// 64-bit floats (plain or RLE).
    Float(FloatsRef<'a>),
    /// Strings (plain or dictionary).
    Str(StrsRef<'a>),
    /// Booleans (always plain).
    Bool(&'a [bool]),
    /// Dates (always plain).
    Date(&'a [i32]),
}

impl Column {
    /// Typed, encoding-aware read access to this column's values. This is
    /// the blessed kernel surface: it never decodes, and new encodings
    /// appear as new `IntsRef`/`FloatsRef`/`StrsRef` variants instead of
    /// new `ColumnData` match arms in every crate.
    pub fn accessor(&self) -> ColumnAccessor<'_> {
        match self.raw() {
            ColumnData::Int(v) => ColumnAccessor::Int(IntsRef::Slice(v)),
            ColumnData::Float(v) => ColumnAccessor::Float(FloatsRef::Slice(v)),
            ColumnData::Str(v) => ColumnAccessor::Str(StrsRef::Slice(v)),
            ColumnData::Bool(v) => ColumnAccessor::Bool(v),
            ColumnData::Date(v) => ColumnAccessor::Date(v),
            ColumnData::RleInt(r) => ColumnAccessor::Int(IntsRef::Rle(r)),
            ColumnData::RleFloat(r) => ColumnAccessor::Float(FloatsRef::Rle(r)),
            ColumnData::DictStr(d) => ColumnAccessor::Str(StrsRef::Dict(d)),
            ColumnData::PackedInt(p) => ColumnAccessor::Int(IntsRef::Packed(p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{swap_sink_counter, Encoding};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::Arc;

    #[test]
    fn accessors_read_all_encodings_without_sinking() {
        let sinks = Arc::new(AtomicU64::new(0));
        let prev = swap_sink_counter(Some(Arc::clone(&sinks)));
        let ints = Column::from((0..100i64).map(|i| i % 4).collect::<Vec<_>>());
        let packed = ints.encode_as(Encoding::Packed).unwrap();
        let rle = Column::from(vec![7i64; 100])
            .encode_as(Encoding::Rle)
            .unwrap();
        let dict = Column::from(vec!["a", "b", "a", "c"])
            .encode_as(Encoding::Dict)
            .unwrap();
        match packed.accessor() {
            ColumnAccessor::Int(a) => {
                assert_eq!(a.len(), 100);
                assert_eq!(a.get(5), 1);
                assert!(a.as_slice().is_none());
            }
            _ => panic!("expected int accessor"),
        }
        match rle.accessor() {
            ColumnAccessor::Int(a) => {
                assert_eq!(a.rle().unwrap().stored_values(), 1);
                assert_eq!(a.get(99), 7);
            }
            _ => panic!("expected int accessor"),
        }
        match dict.accessor() {
            ColumnAccessor::Str(s) => {
                assert_eq!(s.get(2), "a");
                assert_eq!(s.dict().unwrap().values().len(), 3);
            }
            _ => panic!("expected str accessor"),
        }
        swap_sink_counter(prev);
        assert_eq!(sinks.load(Relaxed), 0, "accessors must not decode");
    }

    #[test]
    fn plain_columns_expose_slices() {
        let c = Column::from(vec![1.5f64, 2.5]);
        match c.accessor() {
            ColumnAccessor::Float(f) => assert_eq!(f.as_slice().unwrap(), &[1.5, 2.5]),
            _ => panic!("expected float accessor"),
        }
    }
}
