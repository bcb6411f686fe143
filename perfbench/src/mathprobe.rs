//! Timing of `qcc_math::expm` and `CMatrix::matmul` on GRAPE-shaped inputs:
//! the step generators `−i·2π·dt·H(u)` of one- and two-qubit transmon
//! systems (2×2 and 4×4), with seeded control amplitudes inside the
//! hardware limits — the exact working set of a GRAPE solve.

use crate::stats::{median, SplitMix64};
use qcc_control::{GrapeConfig, TransmonSystem};
use qcc_hw::ControlLimits;
use qcc_math::{expm, CMatrix, C64};
use std::hint::black_box;
use std::time::Instant;

/// Matrices per timed batch.
const BATCH: usize = 64;
/// Timed batches per kernel; the reported figure is their median.
const REPEATS: usize = 101;

/// Per-call nanoseconds of each kernel.
#[derive(Debug, Clone, Copy)]
pub struct MathTimes {
    /// `expm` of a 2×2 step generator.
    pub expm2_ns: f64,
    /// `expm` of a 4×4 step generator.
    pub expm4_ns: f64,
    /// `matmul` of two 4×4 step propagators.
    pub matmul4_ns: f64,
}

/// Seeded step generators of an `n_qubits` transmon system.
fn generators(n_qubits: usize, rng: &mut SplitMix64) -> Vec<CMatrix> {
    let system = TransmonSystem::fully_coupled(n_qubits, ControlLimits::asplos19());
    let dt = GrapeConfig::fast().dt;
    (0..BATCH)
        .map(|_| {
            let amps: Vec<f64> = (0..system.n_controls())
                .map(|k| (2.0 * rng.next_f64() - 1.0) * system.limit(k))
                .collect();
            system
                .hamiltonian(&amps)
                .scale(C64::new(0.0, -2.0 * std::f64::consts::PI * dt))
        })
        .collect()
}

/// Median over [`REPEATS`] batches of the per-call time of `f` over `inputs`.
fn per_call_ns<T>(inputs: &[T], mut f: impl FnMut(&T) -> CMatrix) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            for x in inputs {
                black_box(f(black_box(x)));
            }
            start.elapsed().as_nanos() as f64 / inputs.len() as f64
        })
        .collect();
    median(&samples)
}

/// Runs the probe on inputs drawn from `seed`.
pub fn probe(seed: u64) -> MathTimes {
    let mut rng = SplitMix64::new(seed);
    let two = generators(1, &mut rng);
    let four = generators(2, &mut rng);
    let props: Vec<CMatrix> = four.iter().map(expm).collect();
    let pairs: Vec<(CMatrix, CMatrix)> = props
        .iter()
        .zip(props.iter().rev())
        .map(|(a, b)| (a.clone(), b.clone()))
        .collect();
    MathTimes {
        expm2_ns: per_call_ns(&two, expm),
        expm4_ns: per_call_ns(&four, expm),
        matmul4_ns: per_call_ns(&pairs, |(a, b)| a.matmul(b)),
    }
}
