//! Relational-layer error type.

use rma_storage::StorageError;
use std::fmt;

/// Errors produced by the relational model and algebra.
#[derive(Debug, Clone, PartialEq)]
pub enum RelationError {
    /// Schema construction with a repeated attribute name.
    DuplicateAttribute(String),
    /// Reference to an attribute that is not in the schema.
    UnknownAttribute(String),
    /// Column count does not match schema width, or row width mismatch.
    ArityMismatch { expected: usize, found: usize },
    /// Columns of one relation have differing lengths.
    RaggedColumns,
    /// A column's type does not match its schema attribute.
    SchemaTypeMismatch { attribute: String },
    /// Expression evaluation failed (type errors, unknown names).
    Expression(String),
    /// The given attributes do not form a key of the relation.
    NotAKey(Vec<String>),
    /// Set operation over incompatible schemas.
    NotUnionCompatible,
    /// Underlying storage error.
    Storage(StorageError),
    /// The governing query was cancelled mid-operator
    /// (see [`crate::par::QueryGuard`]).
    Cancelled,
    /// The governing query ran past its deadline.
    DeadlineExceeded,
    /// The governing query's memory budget was exhausted.
    ResourceExhausted {
        /// Bytes the query had charged when the breach was detected.
        needed: u64,
        /// The budget the charges were debited against.
        budget: u64,
    },
    /// An out-of-core operator failed to read or write a spill file
    /// (the message carries the underlying I/O error; `std::io::Error`
    /// itself is neither `Clone` nor `PartialEq`).
    SpillIo(String),
    /// An integer aggregate's result does not fit `i64` (the payload names
    /// the aggregate's output attribute).
    IntegerOverflow(String),
    /// A hash join's build side has more rows than its table can address
    /// (`u32::MAX` or more).
    JoinBuildTooLarge {
        /// The build side's row count.
        rows: usize,
    },
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::DuplicateAttribute(n) => write!(f, "duplicate attribute name `{n}`"),
            RelationError::UnknownAttribute(n) => write!(f, "unknown attribute `{n}`"),
            RelationError::ArityMismatch { expected, found } => {
                write!(f, "arity mismatch: expected {expected}, found {found}")
            }
            RelationError::RaggedColumns => f.write_str("columns have differing lengths"),
            RelationError::SchemaTypeMismatch { attribute } => {
                write!(f, "column type does not match schema for `{attribute}`")
            }
            RelationError::Expression(msg) => write!(f, "expression error: {msg}"),
            RelationError::IntegerOverflow(out) => {
                write!(f, "integer overflow computing aggregate `{out}`")
            }
            RelationError::NotAKey(attrs) => {
                write!(f, "attributes {attrs:?} do not form a key")
            }
            RelationError::NotUnionCompatible => f.write_str("relations are not union compatible"),
            RelationError::Storage(e) => write!(f, "storage error: {e}"),
            RelationError::Cancelled => f.write_str("query cancelled"),
            RelationError::DeadlineExceeded => f.write_str("query deadline exceeded"),
            RelationError::ResourceExhausted { needed, budget } => write!(
                f,
                "memory budget exhausted: needed {needed} bytes, budget {budget}"
            ),
            RelationError::SpillIo(msg) => write!(f, "spill I/O error: {msg}"),
            RelationError::JoinBuildTooLarge { rows } => write!(
                f,
                "join build side of {rows} rows exceeds the hash table's {} rows",
                u32::MAX - 1
            ),
        }
    }
}

impl std::error::Error for RelationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RelationError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for RelationError {
    fn from(e: StorageError) -> Self {
        RelationError::Storage(e)
    }
}

impl From<crate::par::GuardError> for RelationError {
    fn from(e: crate::par::GuardError) -> Self {
        use crate::par::GuardError;
        match e {
            GuardError::Cancelled => RelationError::Cancelled,
            GuardError::DeadlineExceeded => RelationError::DeadlineExceeded,
            GuardError::ResourceExhausted { needed, budget } => {
                RelationError::ResourceExhausted { needed, budget }
            }
        }
    }
}
