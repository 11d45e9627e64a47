//! # rma-core — the relational matrix algebra
//!
//! The paper's primary contribution: linear-algebra operations defined
//! *over relations*, closed under the relational model. Each operation
//! takes relation(s) plus an order schema per argument, computes the matrix
//! base result with either the dense (MKL-role) or the column-at-a-time
//! (BAT-role) kernel, and morphs the contextual information of the inputs
//! into row and column origins of the output (Tables 2 and 3 of the paper).
//!
//! ```
//! use rma_core::RmaContext;
//! use rma_relation::RelationBuilder;
//!
//! // the rating relation of the paper's introduction
//! let rating = RelationBuilder::new()
//!     .column("User", vec!["Ann", "Tom", "Jan"])
//!     .column("Balto", vec![2.0f64, 0.0, 1.0])
//!     .column("Heat", vec![1.5f64, 0.0, 4.0])
//!     .column("Net", vec![0.5f64, 1.5, 1.0])
//!     .build()
//!     .unwrap();
//!
//! // SELECT * FROM INV(rating BY User);
//! let ctx = RmaContext::default();
//! let inverted = ctx.inv(&rating, &["User"]).unwrap();
//! assert_eq!(inverted.schema(), rating.schema());
//! ```

#![warn(missing_docs)]

pub mod context;
pub mod error;
pub mod kernels;
pub mod ops;
pub mod plan;
pub mod serve;
pub mod shape;
pub mod split;
pub mod trace;

pub use context::{
    default_threads, Backend, ExecStats, KernelUsed, RmaContext, RmaOptions, SortPolicy,
};
pub use error::RmaError;
pub use plan::{Frame, LogicalPlan, PlanError, TableProvider};
pub use rma_relation::{GuardError, PoolStats, QueryGuard};
pub use serve::{
    CatalogSnapshot, MetricsRegistry, MetricsSnapshot, ServeError, Server, Session,
    SessionCounters, VersionedCatalog,
};
pub use shape::{ArgSize, Dim, RmaOp, ShapeType, ALL_OPS};
pub use trace::{chrome_trace_json, Span, TraceSession};

// Free-function API re-exports.
pub use ops::{
    add, chf, cpd, det, dsv, emu, evc, evl, inv, mmu, opd, qqr, rnk, rqr, sol, sub, tra, usv, vsv,
};
