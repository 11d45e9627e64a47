//! # rma-bench — paper-evaluation reproduction
//!
//! Competitor simulators (R, AIDA, MADlib, SciDB), the four mixed workloads
//! of §8.6, and the helpers behind the `reproduce` binary that regenerates
//! every table and figure of the paper's evaluation.

pub mod competitors;
pub mod workloads;

pub use competitors::{MatEngine, MatFlavor, RelEngine, RelFlavor, SimTimes};
pub use workloads::{
    run_conferences_covariance, run_journeys_regression, run_scidb_comparison, run_trip_count,
    run_trips_ols, trip_count_tables, SystemKind, WorkloadReport,
};
