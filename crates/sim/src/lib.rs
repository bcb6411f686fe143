//! # qcc-sim
//!
//! Verification backend for the aggregated-instruction compiler: a dense
//! state-vector simulator for circuits and a piecewise-constant Hamiltonian
//! propagator for control pulses. Together they play the role the QuTiP
//! simulator plays in the paper's toolflow (§3.6): every aggregated
//! instruction's pulse can be checked against the unitary of the gate
//! sub-circuit it replaces.
//!
//! ## Example
//!
//! ```
//! use qcc_ir::{Circuit, Gate};
//! use qcc_sim::StateVector;
//!
//! let mut circuit = Circuit::new(2);
//! circuit.push(Gate::H, &[0]);
//! circuit.push(Gate::Cnot, &[0, 1]);
//! let state = StateVector::zero(2).evolved(&circuit);
//! assert!((state.probabilities()[3] - 0.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod evolution;
pub mod statevector;

pub use evolution::PiecewiseHamiltonian;
pub use statevector::StateVector;
