//! # rma — relational matrix algebra in a column store
//!
//! Facade crate of the RMA reproduction (Dolmatova, Augsten, Böhlen,
//! SIGMOD 2020): re-exports the storage, relational, linear-algebra, RMA,
//! SQL, and data-generation layers under one roof.
//!
//! ```
//! use rma::sql::Engine;
//!
//! let mut e = Engine::new();
//! e.execute("CREATE TABLE rating (u VARCHAR, balto DOUBLE, heat DOUBLE, net DOUBLE)").unwrap();
//! e.execute("INSERT INTO rating VALUES ('Ann', 2.0, 1.5, 0.5), \
//!            ('Tom', 0.0, 0.0, 1.5), ('Jan', 1.0, 4.0, 1.0)").unwrap();
//! // the paper's introduction query
//! let inv = e.query("SELECT * FROM INV(rating BY u)").unwrap();
//! assert_eq!(inv.len(), 3);
//! ```
//!
//! ## The lazy `Frame` API
//!
//! Relational and matrix operations form one closed algebra, and the
//! [`Frame`] builder exposes it as one composable logical plan. Nothing
//! executes until [`Frame::collect`]; the accumulated plan first runs
//! through the same optimizer as the SQL frontend — projection pushdown
//! into scans, selection pushdown where order schemas permit,
//! redundant-sort elimination across consecutive matrix operations, and
//! plan-level kernel choice:
//!
//! ```
//! use rma::{Expr, Frame, RelationBuilder, RmaContext};
//!
//! let rating = RelationBuilder::new()
//!     .column("u", vec!["Ann", "Tom", "Jan"])
//!     .column("balto", vec![2.0f64, 0.0, 1.0])
//!     .column("heat", vec![1.5f64, 0.0, 4.0])
//!     .column("net", vec![0.5f64, 1.5, 1.0])
//!     .build()
//!     .unwrap();
//!
//! let ctx = RmaContext::default();
//! // inv ∘ inv over the same order schema: the optimizer proves the
//! // second inversion's input is already sorted and skips its sort
//! let frame = Frame::scan(rating.clone()).inv(&["u"]).inv(&["u"]);
//! assert!(frame.explain(&ctx).contains("skip sort"));
//! let roundtrip = frame.collect(&ctx).unwrap();
//! assert_eq!(ctx.stats().sorts, 1);
//! assert_eq!(roundtrip.schema(), rating.schema());
//!
//! // relational operators chain in the same plan: filter, prune to a
//! // 2×2 application part, then decompose
//! let tall = Frame::scan(rating)
//!     .select(Expr::col("heat").gt(Expr::lit(1.0)))
//!     .project(&["u", "balto", "heat"])
//!     .qqr(&["u"])
//!     .collect(&ctx)
//!     .unwrap();
//! assert_eq!(tall.len(), 2);
//! ```

/// The relational matrix algebra (the paper's contribution).
pub use rma_core as core;
/// Synthetic dataset generators.
pub use rma_data as data;
/// Dense and column-at-a-time linear algebra kernels.
pub use rma_linalg as linalg;
/// Relational model and algebra.
pub use rma_relation as relation;
/// SQL frontend with the `OP(r BY U)` extension.
pub use rma_sql as sql;
/// BAT column store (storage kernel).
pub use rma_storage as storage;

// The most-used items at the top level.
pub use rma_core::{
    CatalogSnapshot, Frame, LogicalPlan, PlanError, RmaContext, RmaError, RmaOp, RmaOptions,
    ServeError, Server, Session, TableProvider, VersionedCatalog,
};
pub use rma_relation::{Expr, Relation, RelationBuilder, Schema};
pub use rma_sql::Engine;
pub use rma_storage::{DataType, Value};
