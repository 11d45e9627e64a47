//! The parity harness the pooled-execution suites share: one plan run at
//! every pool width, so each suite compares the same widths.

use rma_core::plan::Frame;
use rma_core::{Backend, PlanError, RmaContext, RmaOptions};
use rma_relation::Relation;

/// The pool widths every parity suite runs a plan at. Width 1 is the
/// serial path the others must equal; 3 is a merge width that is not a
/// power of two.
pub const POOL_WIDTHS: [usize; 4] = [1, 2, 3, 4];

/// `frame` collected under `backend` at each of [`POOL_WIDTHS`], in order,
/// with its width.
pub fn at_every_width(
    frame: &Frame,
    backend: Backend,
) -> Vec<(usize, Result<Relation, PlanError>)> {
    POOL_WIDTHS
        .iter()
        .map(|&threads| {
            let ctx = RmaContext::new(RmaOptions {
                backend,
                threads,
                ..RmaOptions::default()
            });
            (threads, frame.collect(&ctx))
        })
        .collect()
}
