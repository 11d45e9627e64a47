//! The relational algebra operators: σ, π, ρ, ⋈, ×, ϑ, ∪, distinct, sort.
//!
//! All operators are column-at-a-time: they construct output columns in bulk
//! from input columns (selection vectors, gather indices, hash tables over
//! key columns), never materialising boxed tuples on hot paths. Every
//! hash-based operator — group-by, `DISTINCT`, the joins and the spill
//! partitioners — keys rows through `rma_storage::key`: one digest per row,
//! confirmed by its null-aware `rows_eq`.

mod aggregate;
mod external;
mod join;
mod parallel;
mod project;
mod select;
mod setops;
mod sort;

pub use aggregate::{aggregate, aggregate_state_bytes, AggFunc, AggSpec};
pub use external::{
    aggregate_external, grace_join_on, grace_natural_join, order_by_external, MAX_GRACE_DEPTH,
};
pub use join::{cross_product, join_build_bytes, join_on, natural_join, theta_join};
pub use parallel::{aggregate_parallel, join_on_parallel, natural_join_parallel, select_parallel};
pub use project::{project, project_exprs, rename};
pub use select::select;
pub use setops::{distinct, limit, order_by, top_k, union_all};
pub use sort::{order_by_parallel, top_k_parallel};

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
