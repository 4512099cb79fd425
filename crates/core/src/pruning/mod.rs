//! The error-space pruning layers: the paper's three empirical layers
//! (§III-F, §IV).
//!
//! 1. [`activation`] — bound `max-MBF` by measuring how many errors are
//!    actually activated before the program crashes (RQ1, Fig. 3).
//! 2. [`pessimistic`] — find the `(max-MBF, win-size)` configuration with the
//!    highest SDC percentage per program and technique, and compare it to the
//!    single bit-flip model (RQ2–RQ4, Fig. 2/4/5, Table III).
//! 3. [`location`] — use single bit-flip outcomes to pick the locations worth
//!    targeting with multi-bit injections (RQ5, Fig. 6, Table IV).

pub mod activation;
pub mod location;
pub mod pessimistic;

pub use activation::ActivationAnalysis;
pub use location::{LocationAnalysis, LocationRequest, TransitionMatrix};
pub use pessimistic::{ModelComparison, PessimisticAnalysis, PessimisticConfig};
