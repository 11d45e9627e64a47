//! # rma-storage — BAT column store
//!
//! The storage kernel of the RMA reproduction: typed columns with optional
//! null bitmaps, named BATs with virtual OID heads, sort permutations,
//! gather (`leftfetchjoin`), vectorised float kernels, and per-column
//! compressed encodings (RLE / dictionary / bit-packing) with a typed,
//! encoding-aware accessor surface so kernels run on the encoded form.
//!
//! [`sort`] owns row *order* and [`key`] owns key *equality*: every operator
//! above that orders rows or matches keys goes through one of the two.
//!
//! This crate plays the role MonetDB's kernel plays in the paper: everything
//! above it (relational algebra, relational matrix algebra, SQL) is compiled
//! down to bulk operations on [`Bat`]s.

#![warn(missing_docs)]
#![allow(missing_docs)] // enforced at item granularity below where practical

pub mod access;
pub mod bat;
pub mod bitmap;
pub mod column;
pub mod encoding;
pub mod error;
pub mod key;
pub mod selvec;
pub mod sort;
pub mod stats;
pub mod value;

pub use access::{ColumnAccessor, FloatsRef, IntsRef, StrsRef};
pub use bat::{cmp_rows, invert_permutation, is_identity_permutation, Bat};
pub use bitmap::Bitmap;
pub use column::{Column, ColumnData};
pub use encoding::{decode_sink_events, Dict, Encoding, Packed, Rle, Seg};
pub use error::StorageError;
pub use key::{is_key, DigestMap, DirectKey, KeyCols, KeyIds};
pub use selvec::SelVec;
pub use sort::{key_sort, sort_permutation, KeySort, RowOrder};
pub use stats::ColumnStats;
pub use value::{DataType, Value};
