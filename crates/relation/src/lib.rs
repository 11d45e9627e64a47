//! # rma-relation — relational model and algebra over BATs
//!
//! The relational layer of the RMA reproduction: schemas, relations stored
//! column-wise, a vectorised expression evaluator, and the classical algebra
//! (σ, π, ρ, ⋈, ×, ϑ, ∪, distinct, order, limit). The relational matrix
//! algebra in `rma-core` builds directly on this crate.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod algebra;
pub mod error;
pub mod expr;
pub mod par;
pub mod relation;
pub mod schema;
pub mod spill;
pub mod stats;
pub mod trace;

pub use algebra::*;
pub use error::RelationError;
pub use expr::{BinOp, Expr, ScalarFunc};
pub use par::{
    current_guard, guard_checkpoint, morsel_count, partition_ranges, threads_spawned, ActiveGuard,
    ActiveTicket, GuardError, PoolStats, QueryGuard, SessionTicket, WorkerPool,
};
pub use relation::{Relation, RelationBuilder};
pub use schema::{Attribute, Schema};
pub use spill::{live_spill_files, SpillFile, SpillReader};
pub use stats::Statistics;
