//! The relational algebra operators: σ, π, ρ, ⋈, ×, ϑ, ∪, distinct, sort.
//!
//! All operators are column-at-a-time: they construct output columns in bulk
//! from input columns (selection vectors, gather indices, hash tables over
//! key columns), never materialising boxed tuples on hot paths. Every
//! hash-based operator — group-by, `DISTINCT`, the joins and the spill
//! partitioners — keys rows through `rma_storage::key`: one digest per row,
//! confirmed by its null-aware `rows_eq`.
//!
//! Each of σ, ϑ, the two joins, `ORDER BY` and top-k has one entry point
//! that takes the session's [`WorkerPool`](crate::par::WorkerPool) and
//! picks its path on every call: *serial* on a one-worker pool or an input
//! under [`MIN_PARALLEL_ROWS`](crate::par::MIN_PARALLEL_ROWS) (the one body's
//! branch that submits no pool job), *pooled* otherwise, and *spilled*
//! (`external`) when the active [`QueryGuard`] has no headroom for its
//! working set. An in-memory path charges that working set on the guard
//! for the operator's lifetime, so the budget governs peak operator memory;
//! without an active guard nothing is charged and nothing spills.

mod aggregate;
mod external;
mod join;
mod project;
mod select;
mod setops;
mod sort;

use crate::error::RelationError;
use crate::par::{current_guard, QueryGuard};

pub use aggregate::{aggregate, AggFunc, AggSpec};
pub use join::{cross_product, join_on, natural_join};
pub use project::{project, project_exprs, rename};
pub use select::select;
pub use setops::{distinct, limit, union_all};
pub use sort::{order_by, top_k};

/// The in-memory or spilling bodies behind the entry points, which charge
/// nothing: the benchmark's per-operator replay times them on their own.
#[doc(hidden)]
pub use self::{
    aggregate::aggregate_parallel,
    external::{aggregate_external, grace_join_on, grace_natural_join, order_by_external},
    join::{join_on_parallel, natural_join_parallel},
    select::select as select_parallel,
    sort::{order_by_parallel, top_k_parallel},
};

/// An operator's working memory, charged on the active guard (if any) from
/// construction to drop, error paths included. The weights are estimates
/// whose job is to stop or spill a hopeless operator before it allocates.
pub(crate) struct ChargeScope(Option<(QueryGuard, u64)>);

impl ChargeScope {
    /// Charge `bytes`; fails with the guard's typed trip on a breach.
    pub(crate) fn new(bytes: u64) -> Result<ChargeScope, RelationError> {
        let Some(guard) = current_guard() else {
            return Ok(ChargeScope(None));
        };
        guard.try_charge(bytes)?;
        Ok(ChargeScope(Some((guard, bytes))))
    }
}

impl Drop for ChargeScope {
    fn drop(&mut self) {
        if let Some((guard, bytes)) = &self.0 {
            guard.release(*bytes);
        }
    }
}

/// Should an operator with a working set of `bytes` spill? Only when the
/// active guard's budget has no headroom for them; never trips the guard.
/// `rma-core`'s kernel choice asks it of a dense copy.
pub fn should_spill(bytes: u64) -> bool {
    current_guard().is_some_and(|g| !g.fits(bytes))
}

/// The parity harness: one pool of each width 1 to 4 that every operator
/// entry point is compared at. Width 1 is the serial branch (a one-worker
/// pool spawns no thread); 3 is a merge width that is not a power of two.
#[cfg(test)]
pub(crate) fn pools() -> [crate::par::WorkerPool; 4] {
    [1, 2, 3, 4].map(crate::par::WorkerPool::new)
}

/// A one-worker pool: every entry point's serial branch, spawning no
/// thread.
#[cfg(test)]
pub(crate) fn one_worker() -> crate::par::WorkerPool {
    crate::par::WorkerPool::new(1)
}

/// A relation large enough that every morsel is non-trivial, with
/// duplicate join/group keys.
#[cfg(test)]
pub(crate) fn sample(n: usize) -> crate::relation::Relation {
    let key: Vec<i64> = (0..n as i64).map(|i| i % 17).collect();
    let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 23) as f64).collect();
    let tag: Vec<String> = (0..n).map(|i| format!("t{}", i % 5)).collect();
    crate::relation::RelationBuilder::new()
        .name("sample")
        .column("k", key)
        .column("x", x)
        .column("tag", tag)
        .build()
        .unwrap()
}

/// Rows as text, floats by their bits, so signed zeros and NaN payloads
/// stay visible when tests compare outputs.
#[cfg(test)]
pub(crate) fn bits_text(rows: impl Iterator<Item = Vec<rma_storage::Value>>) -> Vec<String> {
    rows.map(|row| {
        let cells: Vec<String> = row
            .iter()
            .map(|v| match v {
                rma_storage::Value::Float(x) => format!("f{:016x}", x.to_bits()),
                v => format!("{v:?}"),
            })
            .collect();
        cells.join("|")
    })
    .collect()
}
