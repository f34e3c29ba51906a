//! Symbolic constant detection: reuses the sparse symbolic initialization
//! (the paper's phase-symbolization front end) to find detectors whose
//! parity is a constant (`SP003`) and observables no symbol reaches
//! (`SP004`).
//!
//! The symbolic initializer produces, for every detector and observable,
//! a XOR expression over noise symbols and measurement coins. A detector
//! whose expression is constant `0` in a *noisy* circuit is vacuous: no
//! fault can ever flip it, so it carries no syndrome information (in a
//! noiseless circuit that is the expected state of every detector, so
//! constant-`0` findings are suppressed there). A detector whose
//! expression is constant `1` fires every shot — always a bug, flagged
//! regardless of noise. Observables follow the same rule: a constant
//! expression in a noisy circuit means the "logical" readout is
//! unfalsifiable.
//!
//! Cost control: the initialization is O(flattened circuit), so large
//! trip counts are first *clamped* — every `REPEAT n` becomes
//! `REPEAT min(n, 3)`, preserving first/middle/last iteration structure —
//! and the analysis is skipped entirely if the circuit is still too large
//! (or if clamping invalidates an after-loop lookback). A node inside a
//! `REPEAT` is flagged only when **every** analyzed instance of it is
//! constant.

use std::collections::HashMap;

use symphase_circuit::{Block, Circuit, Instruction};
use symphase_core::SymbolicRecords;

use crate::{diag, walk_flat, walk_nodes, Diagnostic};

/// Upper bound on flattened work (gates + measurements + resets + noise
/// symbols) the symbolic pass (and the optimizer's translation
/// validator) will take on.
pub(crate) const MAX_SYMBOLIC_WORK: usize = 200_000;

/// Trip-count clamp applied before falling back to skipping.
const CLAMP: u64 = 3;

pub fn symbolic_lints(circuit: &Circuit, diags: &mut Vec<Diagnostic>) {
    if circuit.num_detectors() == 0 && circuit.num_observables() == 0 {
        return;
    }
    let clamped;
    let target = if work(circuit) <= MAX_SYMBOLIC_WORK {
        circuit
    } else {
        match clamp_circuit(circuit) {
            Some(c) if work(&c) <= MAX_SYMBOLIC_WORK => {
                clamped = c;
                &clamped
            }
            _ => return, // still too large, or clamping broke a lookback
        }
    };

    let records = SymbolicRecords::new(target);
    let noisy = target.stats().noise_sites > 0;

    // Group detector instances by declaring node; a node is vacuous only
    // if every analyzed instance is.
    let mut instances_by_node: HashMap<Vec<usize>, Vec<usize>> = HashMap::new();
    let mut node_order: Vec<Vec<usize>> = Vec::new();
    let mut next = 0usize;
    let mut path = Vec::new();
    walk_flat(target.instructions(), &mut path, &mut |path, ins| {
        if matches!(ins, Instruction::Detector { .. }) {
            instances_by_node
                .entry(path.to_vec())
                .or_insert_with(|| {
                    node_order.push(path.to_vec());
                    Vec::new()
                })
                .push(next);
            next += 1;
        }
    });
    debug_assert_eq!(next, records.num_detectors());

    for node in node_order {
        let instances = &instances_by_node[&node];
        let exprs: Vec<_> = instances
            .iter()
            .map(|&d| records.detector_expr(d))
            .collect();
        if !exprs.iter().all(symphase_core::SymExpr::is_constant) {
            continue;
        }
        let fires = exprs.iter().any(|e| e.constant_term());
        if fires {
            diags.push(diag(
                "SP003",
                &node,
                "vacuous detector: parity is the constant 1 — it fires every shot regardless of \
                 noise"
                    .to_string(),
            ));
        } else if noisy {
            diags.push(diag(
                "SP003",
                &node,
                "vacuous detector: no noise symbol reaches its parity, so it can never fire"
                    .to_string(),
            ));
        }
    }

    // Observables: one finding per index, anchored at the first
    // OBSERVABLE_INCLUDE node declaring it.
    let mut first_include: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut path = Vec::new();
    walk_nodes(target.instructions(), &mut path, &mut |path, ins| {
        if let Instruction::ObservableInclude { index, .. } = ins {
            first_include.entry(*index).or_insert_with(|| path.to_vec());
        }
    });
    let mut indices: Vec<_> = first_include.keys().copied().collect();
    indices.sort_unstable();
    for index in indices {
        let expr = records.observable_expr(index as usize);
        if expr.is_constant() && (noisy || expr.constant_term()) {
            diags.push(diag(
                "SP004",
                &first_include[&index],
                format!(
                    "deterministic observable: observable {index} evaluates to the constant {} — \
                     no noise or measurement randomness reaches it",
                    u8::from(expr.constant_term()),
                ),
            ));
        }
    }
}

pub(crate) fn work(circuit: &Circuit) -> usize {
    let s = circuit.stats();
    s.gates
        .saturating_add(s.measurements)
        .saturating_add(s.resets)
        .saturating_add(s.noise_symbols)
}

/// Rebuilds `circuit` with every `REPEAT` trip count clamped to
/// [`CLAMP`]. Returns `None` when the truncated circuit no longer
/// validates (an after-loop lookback needed the removed iterations).
pub(crate) fn clamp_circuit(circuit: &Circuit) -> Option<Circuit> {
    let mut out = Circuit::new(circuit.num_qubits());
    for ins in circuit.instructions() {
        out.try_push(clamp_instruction(ins)?).ok()?;
    }
    Some(out)
}

fn clamp_instruction(ins: &Instruction) -> Option<Instruction> {
    if let Instruction::Repeat { count, body } = ins {
        let mut new_body = Block::new();
        for inner in body.instructions() {
            new_body.try_push(clamp_instruction(inner)?).ok()?;
        }
        Some(Instruction::Repeat {
            count: (*count).min(CLAMP),
            body: Box::new(new_body),
        })
    } else {
        Some(ins.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphase_circuit::Circuit;

    fn codes_at(text: &str) -> Vec<(String, Vec<usize>)> {
        let circuit = Circuit::parse(text).unwrap();
        let mut diags = Vec::new();
        symbolic_lints(&circuit, &mut diags);
        diags
            .into_iter()
            .map(|d| (d.code.to_string(), d.path))
            .collect()
    }

    #[test]
    fn unreachable_detector_in_noisy_circuit_is_vacuous() {
        // Noise lives on qubit 0; the detector compares two back-to-back
        // measurements of untouched qubit 1 — identical coins cancel.
        let text = "X_ERROR(0.1) 0\nM 0\nH 1\nM 1 1\nDETECTOR rec[-1] rec[-2]\n";
        let found = codes_at(text);
        assert_eq!(found, vec![("SP003".into(), vec![4])]);
    }

    #[test]
    fn noiseless_constant_detectors_are_expected() {
        let text = "M 0\nM 0\nDETECTOR rec[-1] rec[-2]\n";
        assert!(codes_at(text).is_empty());
    }

    #[test]
    fn always_firing_detector_flagged_even_noiseless() {
        // X flips between the two measurements: parity is constant 1.
        let text = "M 0\nX 0\nM 0\nDETECTOR rec[-1] rec[-2]\n";
        let found = codes_at(text);
        assert_eq!(found, vec![("SP003".into(), vec![3])]);
    }

    #[test]
    fn live_detector_not_flagged() {
        // Noise *between* the compared measurements flips their parity.
        // (Before both, it would flip both and cancel — vacuous.)
        let text = "M 0\nX_ERROR(0.1) 0\nM 0\nDETECTOR rec[-1] rec[-2]\n";
        assert!(codes_at(text).is_empty());
    }

    #[test]
    fn deterministic_observable_in_noisy_circuit() {
        let text = "X_ERROR(0.1) 0\nM 0\nM 1\nOBSERVABLE_INCLUDE(0) rec[-1]\n";
        let found = codes_at(text);
        assert_eq!(found, vec![("SP004".into(), vec![3])]);
        // Reached by the noise: clean.
        let text = "X_ERROR(0.1) 0\nM 0\nOBSERVABLE_INCLUDE(0) rec[-1]\n";
        assert!(codes_at(text).is_empty());
    }

    #[test]
    fn repeat_node_flagged_only_when_all_instances_constant() {
        // Iteration 1's detector compares the pre-loop measurement with
        // iteration 1's (both of an untouched qubit: constant), later
        // iterations likewise — all instances constant, node flagged.
        let text = "X_ERROR(0.1) 1\nM 0\nREPEAT 3 {\n M 0\n DETECTOR rec[-1] rec[-2]\n}\nM 1\nDETECTOR rec[-1]\n";
        let found = codes_at(text);
        assert_eq!(found, vec![("SP003".into(), vec![2, 1])]);
    }

    #[test]
    fn huge_repeat_is_clamped_not_skipped() {
        let text = "X_ERROR(0.1) 1\nM 0\nREPEAT 400000 {\n M 0\n DETECTOR rec[-1] rec[-2]\n}\n";
        let circuit = Circuit::parse(text).unwrap();
        assert!(work(&circuit) > MAX_SYMBOLIC_WORK);
        let mut diags = Vec::new();
        symbolic_lints(&circuit, &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SP003");
    }
}
