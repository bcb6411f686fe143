//! # qcc-workloads
//!
//! Benchmark circuit generators reproducing Table 3 of the paper: QAOA MAXCUT
//! instances on line / random-4-regular / cluster graphs, Trotterized Ising
//! chains, Grover square-root search built from reversible arithmetic, UCCSD
//! ansatz circuits via the Jordan–Wigner transformation, plus QFT and
//! Bernstein–Vazirani used in the discussion and examples.
//!
//! ## Example
//!
//! ```
//! use qcc_workloads::{qaoa, suite};
//!
//! let triangle = qaoa::paper_triangle_example();
//! assert_eq!(triangle.n_qubits(), 3);
//!
//! let benchmarks = suite::standard_suite(suite::SuiteScale::Reduced, 1);
//! assert_eq!(benchmarks.len(), 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arithmetic;
pub mod grover;
pub mod ising;
pub mod qaoa;
pub mod qft;
pub mod suite;
pub mod uccsd;

pub use suite::{standard_suite, Benchmark, Level, SuiteScale};
