//! # dd-linalg — math substrate for DeepDirect
//!
//! The paper derives every gradient in closed form (Eqs. 21–25), so no
//! autodiff framework is needed — this crate supplies exactly the numeric
//! machinery the models consume:
//!
//! * dense row-major matrices with split-borrow row access — [`matrix`],
//! * vector kernels (`dot`, `axpy`, …) — [`vecops`],
//! * numerically stable `σ` / `log σ` / cross-entropy — [`activations`],
//! * Walker alias tables for the `P_c` and `P_n` sampling distributions
//!   — [`alias`],
//! * a fast PCG32 generator with splittable streams for Hogwild workers
//!   — [`rng`],
//! * logistic regression (the directionality function of Sec. 3.2 and the
//!   D-Step) — [`logreg`], with an optional AdaGrad trainer — [`adagrad`],
//! * a one-hidden-layer MLP (the paper's proposed non-linear D-Step
//!   extension) — [`mlp`], both heads trained by shuffled-epoch SGD over
//!   a [`Rows`] source gathered block by block — [`rows`],
//! * feature standardization — [`scaler`] — and summary statistics
//!   — [`stats`],
//! * explicit float comparisons (`is_zero`, `approx_eq`) backing the
//!   `float-eq` lint — [`float`],
//! * aligned byte buffers, checked byte↔typed casts, CRC-32 and FNV-1a —
//!   the audited substrate of the binary model format — [`bytes`],
//! * unrolled dot-product kernels with a fixed f64 accumulation order for
//!   the scoring hot path — [`kernels`].

#![warn(missing_docs)]

pub mod activations;
pub mod adagrad;
pub mod alias;
pub mod bytes;
pub mod float;
pub mod kernels;
pub mod logreg;
pub mod matrix;
pub mod mlp;
pub mod rng;
pub mod rows;
pub mod scaler;
pub mod stats;
pub mod vecops;

pub use activations::{cross_entropy, log_sigmoid, sigmoid, sigmoid64};
pub use adagrad::{fit_logreg_adagrad, AdaGrad};
pub use alias::AliasTable;
pub use bytes::AlignedBuf;
pub use float::{approx_eq, is_zero, is_zero32};
pub use logreg::{LogRegConfig, LogisticRegression};
pub use matrix::DenseMatrix;
pub use mlp::{Mlp, MlpConfig};
pub use rng::Pcg32;
pub use rows::Rows;
pub use scaler::StandardScaler;
