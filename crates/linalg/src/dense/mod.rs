//! Dense contiguous kernels — the "MKL" role of the paper's RMA+MKL
//! configuration: column-major `f64` buffers, blocked/threaded GEMM,
//! LU, Householder QR, one-sided Jacobi SVD, Jacobi/QR-iteration eigen
//! decompositions, and Cholesky.

pub mod chol;
pub mod eig;
pub mod gemm;
pub mod lu;
pub mod matrix;
pub mod qr;
pub mod svd;

pub use chol::cholesky;
pub use eig::{eigen, eigenvalues, is_symmetric, Eigen};
pub use gemm::{crossprod, matmul, outer};
pub use lu::{det, inverse, solve, Lu};
pub use matrix::Matrix;
pub use qr::{least_squares, qr, qr_in_place, qr_r, Qr};
pub use svd::{rank, svd, Svd};
