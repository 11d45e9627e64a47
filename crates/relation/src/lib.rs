//! # rma-relation — relational model and algebra over BATs
//!
//! The relational layer of the RMA reproduction: schemas, relations stored
//! column-wise, a vectorised expression evaluator, and the classical algebra
//! (σ, π, ρ, ⋈, ×, ϑ, ∪, distinct, order, limit). The relational matrix
//! algebra in `rma-core` builds directly on this crate.

pub mod algebra;
pub mod error;
pub mod expr;
pub mod par;
pub mod relation;
pub mod schema;
pub mod spill;
pub mod stats;
pub mod trace;

pub use algebra::{
    aggregate, aggregate_external, aggregate_parallel, cross_product, distinct, grace_join_on,
    grace_natural_join, join_build_bytes, join_on, join_on_parallel, limit, natural_join,
    natural_join_parallel, order_by, order_by_external, order_by_parallel, project, project_exprs,
    rename, select, select_parallel, theta_join, top_k, top_k_parallel, union_all, AggFunc,
    AggSpec,
};
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
