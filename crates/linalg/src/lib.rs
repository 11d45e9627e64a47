//! # rma-linalg — linear-algebra kernels for the RMA reproduction
//!
//! Two interchangeable kernel families implement the base results of the
//! relational matrix operations:
//!
//! * [`dense`] — contiguous column-major matrices with blocked, threaded
//!   kernels: the role Intel MKL plays in the paper's RMA+MKL configuration.
//!   Using it from BATs requires copying columns into one buffer and back.
//! * [`bat`] — column-at-a-time kernels over lists of column vectors: the
//!   paper's no-copy in-kernel MonetDB implementations (RMA+BAT), including
//!   Algorithm 2 (Gauss-Jordan inversion) and Gram-Schmidt QR.
//!
//! The delegation policy (which kernel runs which operation at which size)
//! lives in `rma-core`.

#![allow(clippy::needless_range_loop)] // index-explicit loops mirror the textbook algorithms
#![allow(clippy::type_complexity)] // (Vec<Vec<f64>>, Vec<Vec<f64>>) factor pairs

pub mod bat;
pub mod dense;
pub mod error;
pub mod threads;

/// Relative singularity threshold: a pivot, or a diagonal entry of `R`, at
/// most this fraction of the matrix's scale counts as zero.
pub(crate) const PIVOT_EPS: f64 = 1e-12;

pub use dense::Matrix;
pub use error::LinalgError;
pub use threads::{available_threads, install_parallelism, par_chunks_mut, Parallelism};
