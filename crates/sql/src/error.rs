//! SQL-layer error type.

use rma_core::RmaError;
use rma_relation::RelationError;
use std::fmt;

/// Errors produced by the SQL frontend.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Tokenizer error.
    Lex(String),
    /// Parser error.
    Parse(String),
    /// Unknown table.
    UnknownTable(String),
    /// A table with this name already exists.
    TableExists(String),
    /// Semantic error while planning (unknown columns, bad aggregates, …).
    Plan(String),
    /// Relational execution error.
    Relation(RelationError),
    /// Relational matrix operation error.
    Rma(RmaError),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex(m) => write!(f, "lex error: {m}"),
            SqlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            SqlError::TableExists(t) => write!(f, "table `{t}` already exists"),
            SqlError::Plan(m) => write!(f, "planning error: {m}"),
            SqlError::Relation(e) => write!(f, "{e}"),
            SqlError::Rma(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SqlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SqlError::Relation(e) => Some(e),
            SqlError::Rma(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for SqlError {
    fn from(e: RelationError) -> Self {
        SqlError::Relation(e)
    }
}

impl From<rma_core::PlanError> for SqlError {
    fn from(e: rma_core::PlanError) -> Self {
        use rma_core::PlanError;
        match e {
            PlanError::UnknownTable(t) => SqlError::UnknownTable(t),
            PlanError::Plan(m) => SqlError::Plan(m),
            PlanError::Relation(e) => SqlError::Relation(e),
            PlanError::Rma(e) => SqlError::Rma(e),
        }
    }
}

impl From<RmaError> for SqlError {
    fn from(e: RmaError) -> Self {
        SqlError::Rma(e)
    }
}

impl From<rma_core::ServeError> for SqlError {
    fn from(e: rma_core::ServeError) -> Self {
        use rma_core::ServeError;
        match e {
            ServeError::TableExists(t) => SqlError::TableExists(t),
            ServeError::NoSuchTable(t) => SqlError::UnknownTable(t),
            // an unresolved write conflict surfaces as a plan-level error;
            // `Session::insert` retries conflicts internally, so this only
            // escapes on logic errors
            e @ ServeError::WriteConflict { .. } => SqlError::Plan(e.to_string()),
            // the bounded retry loop gave up — surface the typed
            // governance error so callers can back off and retry the
            // statement themselves
            ServeError::Contention { retries, .. } => {
                SqlError::Rma(RmaError::WriteContention { retries })
            }
            ServeError::Relation(e) => SqlError::Relation(e),
        }
    }
}
