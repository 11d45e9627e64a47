//! The relational algebra operators: σ, π, ρ, ⋈, ×, ϑ, ∪, distinct, sort.
//!
//! All operators are column-at-a-time: they construct output columns in bulk
//! from input columns (selection vectors, gather indices, hash tables over
//! key columns), never materialising boxed tuples on hot paths.

mod aggregate;
mod external;
mod join;
mod parallel;
mod project;
mod select;
mod setops;
mod sort;

pub use aggregate::{aggregate, AggFunc, AggSpec};
pub use external::{
    aggregate_external, grace_join_on, grace_natural_join, order_by_external, MAX_GRACE_DEPTH,
};
pub use join::{cross_product, join_on, natural_join, theta_join};
pub use parallel::{aggregate_parallel, join_on_parallel, natural_join_parallel, select_parallel};
pub use project::{project, project_exprs, rename};
pub use select::select;
pub use setops::{distinct, limit, order_by, top_k, union_all};
pub use sort::{order_by_parallel, top_k_parallel};

use rma_storage::{Column, ColumnAccessor};
use std::hash::{Hash, Hasher};

/// A hashable, equatable key extracted from one row of a set of columns.
/// Used by grouping and duplicate elimination (joins hash the typed column
/// data directly and confirm matches with [`rows_eq`] — they never box
/// keys).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum KeyPart {
    Int(i64),
    /// Float keyed by its bit pattern (exact equality; NaNs all equal).
    Float(u64),
    Str(String),
    Bool(bool),
    Date(i32),
    Null,
}

/// Normalise a float for keying: NaN payloads collapse, `-0.0 == 0.0`.
#[inline]
pub(crate) fn float_key_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else if x == 0.0 {
        0u64
    } else {
        x.to_bits()
    }
}

/// Extract the grouping/join key of row `i` over `cols`. Reads through
/// the encoding-aware accessors — a dictionary or RLE key column is keyed
/// without decoding it.
pub(crate) fn row_key(cols: &[&Column], i: usize) -> Vec<KeyPart> {
    cols.iter()
        .map(|c| {
            if c.is_null(i) {
                return KeyPart::Null;
            }
            match c.accessor() {
                ColumnAccessor::Int(v) => KeyPart::Int(v.get(i)),
                ColumnAccessor::Float(v) => KeyPart::Float(float_key_bits(v.get(i))),
                ColumnAccessor::Str(v) => KeyPart::Str(v.get(i).to_owned()),
                ColumnAccessor::Bool(v) => KeyPart::Bool(v[i]),
                ColumnAccessor::Date(v) => KeyPart::Date(v[i]),
            }
        })
        .collect()
}

/// Composite hash of row `i` over typed column slices — no per-row key
/// allocation, no `Value` boxing. Must only be called on null-free rows
/// (callers skip null keys first). Hash-equal rows are confirmed with
/// [`rows_eq`], so cross-type hash discipline only affects bucket quality,
/// not correctness; a type discriminant is mixed in to keep e.g. `Int(0)`
/// and `Bool(false)` apart.
#[inline]
pub(crate) fn hash_row(cols: &[&Column], i: usize) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for c in cols {
        match c.accessor() {
            ColumnAccessor::Int(v) => {
                0u8.hash(&mut h);
                v.get(i).hash(&mut h);
            }
            ColumnAccessor::Float(v) => {
                1u8.hash(&mut h);
                float_key_bits(v.get(i)).hash(&mut h);
            }
            // dictionary strings hash their *value* (not the code), so a
            // dict-encoded build side and a plain probe side still meet in
            // the same bucket
            ColumnAccessor::Str(v) => {
                2u8.hash(&mut h);
                v.get(i).hash(&mut h);
            }
            ColumnAccessor::Bool(v) => {
                3u8.hash(&mut h);
                v[i].hash(&mut h);
            }
            ColumnAccessor::Date(v) => {
                4u8.hash(&mut h);
                v[i].hash(&mut h);
            }
        }
    }
    h.finish()
}

/// Do row `i` of `a` and row `j` of `b` hold equal (column-wise) key
/// values? Equality matches [`KeyPart`] semantics exactly: same-type
/// comparison only (an `Int 5` never equals a `Float 5.0` key), floats by
/// normalised bits. Rows must be null-free (callers skip null keys).
#[inline]
pub(crate) fn rows_eq(a: &[ColumnAccessor], i: usize, b: &[ColumnAccessor], j: usize) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(ca, cb)| match (ca, cb) {
        (ColumnAccessor::Int(x), ColumnAccessor::Int(y)) => x.get(i) == y.get(j),
        (ColumnAccessor::Float(x), ColumnAccessor::Float(y)) => {
            float_key_bits(x.get(i)) == float_key_bits(y.get(j))
        }
        (ColumnAccessor::Str(x), ColumnAccessor::Str(y)) => {
            // same shared dictionary ⇒ compare codes, not bytes
            if let (Some(dx), Some(dy)) = (x.dict(), y.dict()) {
                if dx.shares_table(dy) {
                    return dx.code(i) == dy.code(j);
                }
            }
            x.get(i) == y.get(j)
        }
        (ColumnAccessor::Bool(x), ColumnAccessor::Bool(y)) => x[i] == y[j],
        (ColumnAccessor::Date(x), ColumnAccessor::Date(y)) => x[i] == y[j],
        _ => false,
    })
}

/// Hash-based key check: do the columns contain no duplicate row? O(n)
/// instead of the O(n log n) sort-based [`rma_storage::is_key`] — used by
/// the RMA layer's sort-avoidance optimisation, where validating the order
/// schema must not itself cost a sort.
pub fn is_key_hash(cols: &[&rma_storage::Column]) -> bool {
    let n = cols.first().map_or(0, |c| c.len());
    if cols.is_empty() {
        return n <= 1;
    }
    // single-column fast paths avoid per-row key-vector allocation
    if cols.len() == 1 && !cols[0].has_nulls() {
        match cols[0].accessor() {
            ColumnAccessor::Int(v) => {
                let mut seen = std::collections::HashSet::with_capacity(v.len());
                return (0..v.len()).all(|i| seen.insert(v.get(i)));
            }
            ColumnAccessor::Str(v) => {
                // a dictionary column is a key iff its codes are — value
                // tables are deduplicated, so codes biject onto values
                if let Some(d) = v.dict() {
                    let mut seen = std::collections::HashSet::with_capacity(d.len());
                    return d.codes().iter().all(|c| seen.insert(*c));
                }
                let mut seen = std::collections::HashSet::with_capacity(v.len());
                return (0..v.len()).all(|i| seen.insert(v.get(i)));
            }
            _ => {}
        }
    }
    let mut seen = std::collections::HashSet::with_capacity(n);
    (0..n).all(|i| seen.insert(row_key(cols, i)))
}
