//! Plan execution: a thin adapter over the shared plan interpreter
//! (`rma_core::plan::execute`), mapping plan errors into SQL errors. The
//! engine runs its statements through `rma_core::serve::Session` instead;
//! this entry point executes a plan under the context alone.

use crate::catalog::Catalog;
use crate::error::SqlError;
use crate::plan::Plan;
use rma_core::RmaContext;
use rma_relation::Relation;

/// Execute a logical plan against a catalog.
pub fn execute(plan: &Plan, catalog: &Catalog, rma: &RmaContext) -> Result<Relation, SqlError> {
    Ok(rma_core::plan::execute(plan, rma, catalog)?)
}
