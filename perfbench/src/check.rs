//! Independent semantic check of a compiled program, run outside the timed
//! region.
//!
//! The reference is the input circuit run on the state-vector simulator —
//! never the compiler's own verifier. The compiled constituents run on the
//! physical qubits they touch: logical qubit `l` starts on
//! `initial_layout[l]` and must end on `final_layout[l]`, and every other
//! touched (spare) qubit starts in |0⟩ and must end there. Equality is
//! checked up to a global phase on a seeded random logical state.

use crate::stats::SplitMix64;
use qcc_core::CompilationResult;
use qcc_ir::{Circuit, Instruction};
use qcc_math::{CMatrix, C64};
use qcc_sim::StateVector;
use std::collections::BTreeSet;

/// Widest register (program qubits or touched physical qubits) simulated.
pub const MAX_SIM_QUBITS: usize = 16;

/// Smallest accepted `|⟨expected|compiled⟩|²`.
const MIN_FIDELITY: f64 = 1.0 - 1e-9;

/// Outcome of checking one compiled program.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The compiled program matched the reference.
    Passed,
    /// It did not; the text says how.
    Failed(String),
    /// Too wide to simulate; neither passed nor failed.
    Unchecked,
}

/// A seeded random logical input state and the input circuit's output on
/// it: the reference every compiled version of the circuit is held to.
pub struct Probe {
    n_qubits: usize,
    input: Vec<C64>,
    output: Vec<C64>,
}

impl Probe {
    /// The probe of `circuit` from `seed`, or `None` when the circuit is too
    /// wide to simulate.
    pub fn new(circuit: &Circuit, seed: u64) -> Option<Probe> {
        let n = circuit.n_qubits();
        if n > MAX_SIM_QUBITS {
            return None;
        }
        let mut rng = SplitMix64::new(seed);
        let input: Vec<C64> = (0..1usize << n)
            .map(|_| C64::new(2.0 * rng.next_f64() - 1.0, 2.0 * rng.next_f64() - 1.0))
            .collect();
        let output = StateVector::from_amplitudes(input.clone())
            .evolved(circuit)
            .amplitudes()
            .to_vec();
        Some(Probe {
            n_qubits: n,
            input,
            output,
        })
    }
}

/// Checks `result` against the reference `probe` of its input circuit
/// (`None`: the circuit was too wide to simulate).
pub fn check(probe: Option<&Probe>, result: &CompilationResult) -> Verdict {
    let Some(probe) = probe else {
        return Verdict::Unchecked;
    };
    let n = probe.n_qubits;
    let initial = &result.initial_layout.physical;
    let fin = &result.final_layout.physical;
    if initial.len() != n || fin.len() != n {
        return Verdict::Failed(format!(
            "layouts cover {} and {} qubits, program has {n}",
            initial.len(),
            fin.len()
        ));
    }
    let touched: BTreeSet<usize> = initial
        .iter()
        .chain(fin)
        .copied()
        .chain(result.instructions.iter().flat_map(|i| i.qubits.clone()))
        .collect();
    let m = touched.len();
    if m > MAX_SIM_QUBITS {
        return Verdict::Unchecked;
    }
    let touched: Vec<usize> = touched.into_iter().collect();
    let local = |p: usize| touched.binary_search(&p).expect("qubit is touched");
    let start_pos: Vec<usize> = initial.iter().map(|&p| local(p)).collect();
    let end_pos: Vec<usize> = fin.iter().map(|&p| local(p)).collect();
    let mut compiled = StateVector::from_amplitudes(embed(&probe.input, n, m, &start_pos));
    let gates = result
        .instructions
        .iter()
        .flat_map(|i| &i.constituents)
        .map(|g| Instruction::new(g.gate, g.qubits.iter().map(|&q| local(q)).collect()));
    apply_fused(&mut compiled, gates);
    let expected = StateVector::from_amplitudes(embed(&probe.output, n, m, &end_pos));
    let fidelity = expected.fidelity(&compiled);
    if fidelity >= MIN_FIDELITY {
        Verdict::Passed
    } else {
        Verdict::Failed(format!("fidelity {fidelity} on a random input state"))
    }
}

/// Applies `gates` in order, first multiplying each run of consecutive gates
/// whose joint support stays within two qubits into one operator: the same
/// product in far fewer sweeps over a wide state.
fn apply_fused(state: &mut StateVector, gates: impl Iterator<Item = Instruction>) {
    // The pending run: its qubits (operator order) and its operator.
    let mut pending: Option<(Vec<usize>, CMatrix)> = None;
    for gate in gates {
        let joint = match &pending {
            Some((support, _)) => {
                let mut joint = support.clone();
                joint.extend(gate.qubits.iter().filter(|q| !support.contains(q)));
                joint
            }
            None => gate.qubits.clone(),
        };
        if joint.len() > 2 {
            if let Some((support, op)) = pending.take() {
                state.apply_matrix(&op, &support);
            }
            if gate.qubits.len() > 2 {
                state.apply_instruction(&gate);
                continue;
            }
            pending = Some((gate.qubits.clone(), gate.gate.matrix()));
            continue;
        }
        // The pending qubits lead `joint`, so the pending operator widens by
        // embedding it on the leading positions.
        let op = match pending.take() {
            Some((support, op)) if support.len() < joint.len() => {
                op.embed(joint.len(), &(0..support.len()).collect::<Vec<_>>())
            }
            Some((_, op)) => op,
            None => CMatrix::identity(1 << joint.len()),
        };
        let positions: Vec<usize> = gate
            .qubits
            .iter()
            .map(|q| {
                joint
                    .iter()
                    .position(|j| j == q)
                    .expect("gate qubit is in the run")
            })
            .collect();
        let op = gate
            .gate
            .matrix()
            .embed(joint.len(), &positions)
            .matmul(&op);
        pending = Some((joint, op));
    }
    if let Some((support, op)) = pending {
        state.apply_matrix(&op, &support);
    }
}

/// Places an `n`-qubit state on an `m`-qubit register: logical qubit `l`
/// goes to register position `pos[l]`, the other positions hold |0⟩. Both
/// registers are big-endian (qubit 0 is the most significant index bit).
fn embed(amplitudes: &[C64], n: usize, m: usize, pos: &[usize]) -> Vec<C64> {
    let mut out = vec![C64::zero(); 1usize << m];
    for (basis, &amp) in amplitudes.iter().enumerate() {
        let mut index = 0usize;
        for (l, &p) in pos.iter().enumerate() {
            if (basis >> (n - 1 - l)) & 1 == 1 {
                index |= 1 << (m - 1 - p);
            }
        }
        out[index] = amp;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_core::{CompileService, CompilerOptions, Strategy};
    use qcc_hw::Device;
    use qcc_ir::Gate;

    fn ghz3() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cnot, &[0, 2]);
        c.push(Gate::Rz(0.7), &[2]);
        c.push(Gate::Cnot, &[2, 1]);
        c
    }

    #[test]
    fn every_strategy_passes_on_a_grid_with_spare_qubits() {
        let device = Device::transmon_grid(5);
        let service = CompileService::new(&device);
        for strategy in Strategy::all() {
            let result = service
                .compile(&ghz3(), &CompilerOptions::strategy(strategy))
                .unwrap();
            let probe = Probe::new(&ghz3(), 1);
            assert_eq!(
                check(probe.as_ref(), &result),
                Verdict::Passed,
                "{strategy}"
            );
        }
    }

    #[test]
    fn a_changed_program_or_layout_fails() {
        let device = Device::transmon_line(3);
        let service = CompileService::new(&device);
        let good = service
            .compile(&ghz3(), &CompilerOptions::strategy(Strategy::Cls))
            .unwrap();
        let probe = Probe::new(&ghz3(), 1);
        assert_eq!(check(probe.as_ref(), &good), Verdict::Passed);
        let mut dropped = good.clone();
        dropped.instructions.pop();
        assert!(matches!(
            check(probe.as_ref(), &dropped),
            Verdict::Failed(_)
        ));
        let mut moved = good.clone();
        moved.final_layout.physical.swap(0, 1);
        assert!(matches!(check(probe.as_ref(), &moved), Verdict::Failed(_)));
        assert_eq!(check(None, &good), Verdict::Unchecked);
    }

    #[test]
    fn fused_application_matches_gate_by_gate() {
        let mut rng = SplitMix64::new(3);
        let gates: Vec<Instruction> = (0..200)
            .map(|_| {
                let a = rng.below(4);
                let b = (a + 1 + rng.below(3)) % 4;
                let angle = rng.next_f64() * 6.0;
                match rng.below(5) {
                    0 => Instruction::new(Gate::H, vec![a]),
                    1 => Instruction::new(Gate::Rz(angle), vec![a]),
                    2 => Instruction::new(Gate::Rx(angle), vec![b]),
                    3 => Instruction::new(Gate::Cnot, vec![a, b]),
                    _ => Instruction::new(Gate::Rzz(angle), vec![b, a]),
                }
            })
            .collect();
        let input: Vec<C64> = (0..16)
            .map(|_| C64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect();
        let mut plain = StateVector::from_amplitudes(input.clone());
        for g in &gates {
            plain.apply_instruction(g);
        }
        let mut fused = StateVector::from_amplitudes(input);
        apply_fused(&mut fused, gates.into_iter());
        for (a, b) in plain.amplitudes().iter().zip(fused.amplitudes()) {
            assert!((*a - *b).norm_sqr() < 1e-20, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn embedding_respects_big_endian_positions() {
        // |10> on two logical qubits, placed at register positions [2, 0]
        // of three: logical 0 (set) lands on register qubit 2.
        let mut amps = vec![C64::zero(); 4];
        amps[0b10] = C64::one();
        let out = embed(&amps, 2, 3, &[2, 0]);
        assert_eq!(out[0b001], C64::one());
        assert_eq!(out.iter().filter(|a| a.norm_sqr() > 0.0).count(), 1);
    }
}
