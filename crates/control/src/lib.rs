//! # qcc-control
//!
//! The quantum optimal-control unit of the aggregated-instruction compiler
//! (§2.5, §3.5 of the paper): a GRAPE optimizer with analytic gradients and
//! Adam updates over a transmon system with per-qubit x/y drives and per-edge
//! XY coupling, amplitude limits matching the paper's §5.1 settings, a
//! minimal-pulse-time search, and the pulse-verification procedure of §3.6.
//!
//! The companion [`GrapeLatencyModel`] plugs the unit into the compiler's
//! aggregation loop through the [`qcc_hw::LatencyModel`] trait; instructions
//! wider than its limit use the analytic calibrated model instead, which is
//! how the workspace scales the paper's approach to 60-qubit benchmarks.
//!
//! ## Example
//!
//! ```no_run
//! use qcc_control::{GrapeConfig, optimize_pulse, TransmonSystem};
//! use qcc_hw::ControlLimits;
//! use qcc_math::pauli;
//!
//! let system = TransmonSystem::new(1, &[], ControlLimits::asplos19());
//! let result = optimize_pulse(&system, &pauli::hadamard(), 10.0, GrapeConfig::default());
//! assert!(result.fidelity > 0.999);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grape;
pub mod hamiltonian;
pub mod latency;
pub mod pulse;

pub use grape::{optimize_pulse, GrapeConfig, GrapeOptimizer, GrapeResult};
pub use hamiltonian::{ControlKind, TransmonSystem};
pub use latency::{verify_pulse, GrapeLatencyModel, PulseVerification, GRAPE_SNAPSHOT_KIND};
pub use pulse::PulseProgram;
