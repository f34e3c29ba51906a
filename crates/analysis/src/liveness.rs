//! Backward tableau-dataflow liveness: proves gates (`SP001`) and noise
//! channels (`SP002`) unable to influence anything observable.
//!
//! # The dataflow
//!
//! The pass walks the circuit **backward**, maintaining for every qubit a
//! small mask of Pauli-component kinds (`X`/`Y`/`Z`) that are *live* —
//! i.e. components of some operator whose evolution downstream of the
//! current point can still reach an output. Masks are propagated through
//! [`Gate::conjugate`]: a component kind `K` is live before gate `G`
//! exactly when the kind of `G K G†` is live after it (for two-qubit
//! gates, all cross products of the two slots' live kinds are conjugated
//! and their components OR-ed in — a sound over-approximation that keeps
//! the state per-qubit).
//!
//! Two mask families answer two different questions:
//!
//! * `any` — seeds at **every** collapse site (measurement basis, reset
//!   basis, MPP factor kinds), every noise generator kind, and every
//!   feedback Pauli. A gate whose conjugation *exactly fixes* (including
//!   phase) every live `any` component at its site commutes with every
//!   downstream collapse operator and fault operator: removing it changes
//!   no collapse status, no coin allocation, no outcome expression, and
//!   no fault placement — the full symbolic initialization is identical.
//!   That is the `SP001` dead-gate criterion, and it is what makes the
//!   removal-based verification in [`crate::verify`] sound.
//! * `det` — seeds only at measurements referenced (transitively) by
//!   `DETECTOR`/`OBSERVABLE_INCLUDE`/influential feedback, tracked as
//!   *pending record distances* during the backward walk, **plus** every
//!   collapse basis once any referenced liveness exists downstream. The
//!   latter accounts for fault contamination at collapses: a Pauli fault
//!   anticommuting with a collapse basis is (when the collapse is
//!   random) equivalent to a fault multiplied by an arbitrary stabilizer
//!   afterwards, so it must be treated as able to reach anything later;
//!   a fault that commutes with every downstream collapse basis
//!   propagates by pure conjugation and its symbol reaches exactly the
//!   outcomes whose (back-conjugated) bases it anticommutes with. A noise
//!   channel none of whose generator components anticommutes with any
//!   live `det` kind therefore leaves no symbol in any detector or
//!   observable row — the `SP002` dead-noise criterion.
//!
//! # `REPEAT` fixpoint
//!
//! A `REPEAT n { body }` is analyzed by iterating the body's backward
//! transfer from a joined end-of-iteration state until it stabilizes:
//! pending distances landing inside the block fold to their
//! within-iteration residues, and each pass's body-start state is
//! unioned back into the end state (masks monotonically grow, distances
//! are bounded by the body's lookbacks, so the loop terminates). The
//! body is then *reported* once under the converged join — an
//! instruction is flagged only if it is dead under the union of every
//! iteration's state, i.e. dead in all of them. Total cost is O(file),
//! independent of trip counts.

use std::collections::BTreeSet;

use symphase_circuit::{Circuit, Gate, Instruction, PauliKind, SmallPauli};
use symphase_core::noise::channel_slots;

use crate::{diag, Diagnostic};

const KIND_BITS: [PauliKind; 3] = [PauliKind::X, PauliKind::Y, PauliKind::Z];

fn bit(kind: PauliKind) -> u8 {
    match kind {
        PauliKind::X => 1,
        PauliKind::Y => 2,
        PauliKind::Z => 4,
    }
}

/// Kinds in `mask` that anticommute with a component of kind `k`:
/// distinct single-qubit Pauli kinds always anticommute.
fn anticommuting(mask: u8, k: PauliKind) -> u8 {
    mask & !bit(k)
}

/// The canonical embedding of `kind` at slot 0 or 1 of a [`SmallPauli`]
/// (real `+1` prefactor, so `Y` carries `phase = 1` in `i^e·XZ` form).
fn embed(kind: PauliKind, slot: usize) -> SmallPauli {
    let p = SmallPauli::from_kind(kind);
    if slot == 0 {
        p
    } else {
        SmallPauli {
            x0: false,
            z0: false,
            x1: p.x0,
            z1: p.z0,
            phase: p.phase,
        }
    }
}

fn slot_kind(p: SmallPauli, slot: usize) -> Option<PauliKind> {
    let (x, z) = if slot == 0 {
        (p.x0, p.z0)
    } else {
        (p.x1, p.z1)
    };
    match (x, z) {
        (true, false) => Some(PauliKind::X),
        (true, true) => Some(PauliKind::Y),
        (false, true) => Some(PauliKind::Z),
        (false, false) => None,
    }
}

/// Backward transfer of a live mask through a single-qubit gate: kind `K`
/// is live before `G` iff the kind of `G K G†` is live after.
fn transfer1(gate: Gate, post: u8) -> u8 {
    if post == 0 {
        return 0;
    }
    let mut pre = 0u8;
    for k in KIND_BITS {
        let image = gate.conjugate(embed(k, 0));
        let image_kind = slot_kind(image, 0).expect("conjugation preserves weight on one qubit");
        if post & bit(image_kind) != 0 {
            pre |= bit(k);
        }
    }
    pre
}

/// Backward transfer through a two-qubit gate: every live cross product
/// `A⊗B` (including identity on one side) is conjugated forward and its
/// component kinds checked against the post masks.
fn transfer2(gate: Gate, post_a: u8, post_b: u8) -> (u8, u8) {
    if post_a == 0 && post_b == 0 {
        return (0, 0);
    }
    let mut pre_a = 0u8;
    let mut pre_b = 0u8;
    let slots: [Option<PauliKind>; 4] = [
        None,
        Some(PauliKind::X),
        Some(PauliKind::Y),
        Some(PauliKind::Z),
    ];
    for ka in slots {
        for kb in slots {
            if ka.is_none() && kb.is_none() {
                continue;
            }
            let mut p = SmallPauli::identity();
            if let Some(k) = ka {
                p = p.mul(embed(k, 0));
            }
            if let Some(k) = kb {
                p = p.mul(embed(k, 1));
            }
            let image = gate.conjugate(p);
            let live = slot_kind(image, 0).is_some_and(|c| post_a & bit(c) != 0)
                || slot_kind(image, 1).is_some_and(|c| post_b & bit(c) != 0);
            if live {
                if let Some(k) = ka {
                    pre_a |= bit(k);
                }
                if let Some(k) = kb {
                    pre_b |= bit(k);
                }
            }
        }
    }
    (pre_a, pre_b)
}

/// Whether gate `G` exactly fixes (phase included) the canonical Pauli of
/// each kind in `mask` at `slot`.
fn fixes_all(gate: Gate, mask: u8, slot: usize) -> bool {
    KIND_BITS.iter().all(|&k| {
        if mask & bit(k) == 0 {
            return true;
        }
        let p = embed(k, slot);
        gate.conjugate(p) == p
    })
}

/// Backward dataflow state at one circuit position.
#[derive(Clone, Debug, PartialEq, Eq)]
struct LiveState {
    /// Per-qubit live kinds for the dead-*gate* question.
    any: Vec<u8>,
    /// Per-qubit live kinds for the dead-*noise* question.
    det: Vec<u8>,
    /// Record distances (1 = most recent measurement before this point)
    /// referenced by something downstream.
    pending: BTreeSet<u64>,
}

impl LiveState {
    fn new(num_qubits: usize) -> Self {
        LiveState {
            any: vec![0; num_qubits],
            det: vec![0; num_qubits],
            pending: BTreeSet::new(),
        }
    }

    /// Whether anything referenced by a detector/observable is still
    /// reachable downstream of this point.
    fn ref_live(&self) -> bool {
        !self.pending.is_empty() || self.det.iter().any(|&m| m != 0)
    }

    /// Unions `other` into `self`; reports whether anything grew.
    fn union(&mut self, other: &LiveState) -> bool {
        let mut grew = false;
        for (a, &b) in self.any.iter_mut().zip(&other.any) {
            if *a | b != *a {
                *a |= b;
                grew = true;
            }
        }
        for (a, &b) in self.det.iter_mut().zip(&other.det) {
            if *a | b != *a {
                *a |= b;
                grew = true;
            }
        }
        for &d in &other.pending {
            grew |= self.pending.insert(d);
        }
        grew
    }
}

struct Liveness {
    diags: Vec<Diagnostic>,
    /// `SP002` is suppressed when the circuit declares no detectors and
    /// no observables (a sampling-only circuit's noise is the payload).
    flag_noise: bool,
}

impl Liveness {
    /// One backward pass over `instrs`, mutating `s` from the post-state
    /// to the pre-state. With `report` set, emits diagnostics against
    /// each instruction's post-state.
    fn pass_block(
        &mut self,
        instrs: &[Instruction],
        s: &mut LiveState,
        path: &mut Vec<usize>,
        report: bool,
    ) {
        for (i, ins) in instrs.iter().enumerate().rev() {
            path.push(i);
            if report {
                self.report(ins, s, path);
            }
            self.transfer(ins, s, path, report);
            path.pop();
        }
    }

    /// Emits `SP001`/`SP002` for instructions dead under post-state `s`.
    fn report(&mut self, ins: &Instruction, s: &LiveState, path: &[usize]) {
        match ins {
            Instruction::Gate { gate, targets } => {
                let dead = match gate.arity() {
                    1 => targets
                        .iter()
                        .all(|&q| fixes_all(*gate, s.any[q as usize], 0)),
                    _ => targets.chunks_exact(2).all(|pair| {
                        fixes_all(*gate, s.any[pair[0] as usize], 0)
                            && fixes_all(*gate, s.any[pair[1] as usize], 1)
                    }),
                };
                if dead {
                    self.diags.push(diag(
                        "SP001",
                        path,
                        format!(
                            "dead gate: {} commutes with everything downstream and cannot affect any measurement, detector, or observable",
                            display_gate(*gate, targets),
                        ),
                    ));
                }
            }
            Instruction::Noise { channel, targets } if self.flag_noise => {
                // Each allocated symbol multiplies one slot's Pauli.
                let n = channel.symbols_per_application();
                let live = targets.chunks_exact(channel.arity()).any(|app| {
                    channel_slots(*channel, app)[..n]
                        .iter()
                        .any(|&(k, q)| anticommuting(s.det[q as usize], k) != 0)
                });
                if !live {
                    self.diags.push(diag(
                        "SP002",
                        path,
                        format!(
                            "dead noise: {} on {} cannot reach any detector or observable",
                            channel.name(),
                            display_targets(targets),
                        ),
                    ));
                }
            }
            Instruction::CorrelatedError { product, .. } if self.flag_noise => {
                let live = product
                    .iter()
                    .any(|&(k, q)| anticommuting(s.det[q as usize], k) != 0);
                if !live {
                    self.diags.push(diag(
                        "SP002",
                        path,
                        "dead noise: correlated error cannot reach any detector or observable"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }
    }

    /// Applies the backward transfer of `ins` to `s`.
    fn transfer(
        &mut self,
        ins: &Instruction,
        s: &mut LiveState,
        path: &mut Vec<usize>,
        report: bool,
    ) {
        match ins {
            Instruction::Tick
            | Instruction::QubitCoords { .. }
            | Instruction::ShiftCoords { .. } => {}
            Instruction::Gate { gate, targets } => match gate.arity() {
                1 => {
                    for &q in targets.iter().rev() {
                        let q = q as usize;
                        s.any[q] = transfer1(*gate, s.any[q]);
                        s.det[q] = transfer1(*gate, s.det[q]);
                    }
                }
                _ => {
                    for pair in targets.chunks_exact(2).rev() {
                        let (a, b) = (pair[0] as usize, pair[1] as usize);
                        let (na, nb) = transfer2(*gate, s.any[a], s.any[b]);
                        (s.any[a], s.any[b]) = (na, nb);
                        let (da, db) = transfer2(*gate, s.det[a], s.det[b]);
                        (s.det[a], s.det[b]) = (da, db);
                    }
                }
            },
            Instruction::Measure { basis, targets }
            | Instruction::MeasureReset { basis, targets } => {
                let landed = self.land_pending(s, targets.len(), |s, idx| {
                    let q = targets[idx] as usize;
                    s.det[q] |= bit(*basis);
                });
                let contaminate = landed || s.ref_live();
                for &q in targets {
                    let q = q as usize;
                    s.any[q] |= bit(*basis);
                    if contaminate {
                        s.det[q] |= bit(*basis);
                    }
                }
            }
            Instruction::Reset { basis, targets } => {
                let contaminate = s.ref_live();
                for &q in targets {
                    let q = q as usize;
                    s.any[q] |= bit(*basis);
                    if contaminate {
                        s.det[q] |= bit(*basis);
                    }
                }
            }
            Instruction::MeasurePauliProduct { products } => {
                let landed = self.land_pending(s, products.len(), |s, idx| {
                    for &(k, q) in &products[idx] {
                        s.det[q as usize] |= bit(k);
                    }
                });
                let contaminate = landed || s.ref_live();
                for product in products {
                    for &(k, q) in product {
                        let q = q as usize;
                        s.any[q] |= bit(k);
                        if contaminate {
                            s.det[q] |= bit(k);
                        }
                    }
                }
            }
            Instruction::Noise { channel, targets } => {
                let n = channel.symbols_per_application();
                for app in targets.chunks_exact(channel.arity()) {
                    for &(k, q) in &channel_slots(*channel, app)[..n] {
                        s.any[q as usize] |= bit(k);
                    }
                }
            }
            Instruction::CorrelatedError { product, .. } => {
                for &(k, q) in product {
                    s.any[q as usize] |= bit(k);
                }
            }
            Instruction::Feedback {
                pauli,
                lookback,
                target,
            } => {
                let q = *target as usize;
                s.any[q] |= bit(*pauli);
                // The applied Pauli only matters when it anticommutes
                // with a live det component at the target; only then is
                // the referenced measurement's value observable.
                if anticommuting(s.det[q], *pauli) != 0 {
                    s.pending.insert(lookback.unsigned_abs());
                }
            }
            Instruction::Detector { lookbacks, .. } => {
                for lb in lookbacks {
                    s.pending.insert(lb.unsigned_abs());
                }
            }
            Instruction::ObservableInclude { lookbacks, .. } => {
                for lb in lookbacks {
                    s.pending.insert(lb.unsigned_abs());
                }
            }
            Instruction::Repeat { count, body } => {
                self.transfer_repeat(
                    *count,
                    body.instructions(),
                    body.measurements() as u64,
                    s,
                    path,
                    report,
                );
            }
        }
    }

    /// Crosses `t` measurements backward: distances `1..=t` land on this
    /// instruction (`seed` is called with the 0-based target index),
    /// larger distances shift down. Returns whether anything landed.
    fn land_pending(
        &mut self,
        s: &mut LiveState,
        t: usize,
        mut seed: impl FnMut(&mut LiveState, usize),
    ) -> bool {
        if s.pending.is_empty() || t == 0 {
            return false;
        }
        let t64 = t as u64;
        let old = std::mem::take(&mut s.pending);
        let mut landed = false;
        for d in old {
            if d <= t64 {
                landed = true;
                seed(s, (t64 - d) as usize);
            } else {
                s.pending.insert(d - t64);
            }
        }
        landed
    }

    /// Backward transfer through `REPEAT count { body }` via the join
    /// fixpoint described in the module docs.
    fn transfer_repeat(
        &mut self,
        count: u64,
        body: &[Instruction],
        body_measurements: u64,
        s: &mut LiveState,
        path: &mut Vec<usize>,
        report: bool,
    ) {
        let m = body_measurements;
        let total = m.saturating_mul(count);
        // Post-pending distances either land inside the block (fold to a
        // within-iteration residue) or pass through beneath it.
        let mut end = LiveState {
            any: std::mem::take(&mut s.any),
            det: std::mem::take(&mut s.det),
            pending: BTreeSet::new(),
        };
        let mut exit_pending: BTreeSet<u64> = BTreeSet::new();
        for &d in &s.pending {
            if m > 0 && d <= total {
                end.pending.insert((d - 1) % m + 1);
            } else {
                exit_pending.insert(d - total);
            }
        }

        if count > 1 {
            // Join fixpoint: fold each pass's body-start state back into
            // the end state until nothing grows. Masks are monotone and
            // pending residues live in [1, m], so this terminates.
            let span = m.saturating_mul(count - 1);
            loop {
                let mut sb = end.clone();
                self.pass_block(body, &mut sb, path, false);
                let mut grew = false;
                for &d in &sb.pending {
                    if m > 0 && d <= span {
                        grew |= end.pending.insert((d - 1) % m + 1);
                    }
                }
                sb.pending.clear();
                grew |= end.union(&sb);
                if !grew {
                    break;
                }
            }
        }

        // One reported pass under the converged join: an instruction is
        // flagged only if dead under the union of all iterations' states.
        let mut sb = end;
        self.pass_block(body, &mut sb, path, report);

        s.any = sb.any;
        s.det = sb.det;
        s.pending = exit_pending;
        // Body-start distances relative to the block start (the first
        // iteration's view) exit the block; for later iterations they
        // were already folded, and re-adding them here only widens the
        // pre-block state (sound).
        s.pending.extend(sb.pending.iter().copied());
    }
}

fn display_gate(gate: Gate, targets: &[u32]) -> String {
    format!("{} {}", gate.name(), display_targets(targets))
}

fn display_targets(targets: &[u32]) -> String {
    targets
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs the backward liveness pass, appending `SP001`/`SP002` findings.
pub fn dead_code_lints(circuit: &Circuit, diags: &mut Vec<Diagnostic>) {
    let mut lv = Liveness {
        diags: Vec::new(),
        flag_noise: circuit.num_detectors() > 0 || circuit.num_observables() > 0,
    };
    let mut s = LiveState::new(circuit.num_qubits() as usize);
    let mut path = Vec::new();
    lv.pass_block(circuit.instructions(), &mut s, &mut path, true);
    diags.append(&mut lv.diags);
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphase_circuit::Circuit;

    fn codes_at(text: &str) -> Vec<(String, Vec<usize>)> {
        let circuit = Circuit::parse(text).unwrap();
        let mut diags = Vec::new();
        dead_code_lints(&circuit, &mut diags);
        diags
            .into_iter()
            .map(|d| (d.code.to_string(), d.path))
            .collect()
    }

    #[test]
    fn trailing_gate_is_dead() {
        let found = codes_at("H 0\nM 0\nH 0\n");
        assert_eq!(found, vec![("SP001".into(), vec![2])]);
    }

    #[test]
    fn z_before_z_measurement_is_dead() {
        // Z commutes with the Z-basis collapse and measurement.
        let found = codes_at("H 0\nCX 0 1\nZ 1\nM 1\nM 0\n");
        assert_eq!(found, vec![("SP001".into(), vec![2])]);
        // X before a Z measurement flips the outcome: live.
        assert!(codes_at("X 0\nM 0\n").is_empty());
        // S before a Z measurement fixes Z exactly: dead.
        let found = codes_at("H 0\nS 0\nM 0\n");
        assert_eq!(found, vec![("SP001".into(), vec![1])]);
    }

    #[test]
    fn identity_gate_is_always_dead() {
        let found = codes_at("I 0\nH 0\nM 0\n");
        assert_eq!(found, vec![("SP001".into(), vec![0])]);
    }

    #[test]
    fn phase_flips_keep_gates_live() {
        // Z X Z† = −X: the sign flips an X-basis outcome, so Z before MX
        // must stay live even though the component *kind* is preserved.
        assert!(codes_at("H 0\nZ 0\nMX 0\n").is_empty());
    }

    #[test]
    fn two_qubit_gate_liveness() {
        // CX with a live target is live…
        assert!(codes_at("H 0\nCX 0 1\nM 1\n").is_empty());
        // …and dead when it only permutes components that are never
        // collapsed or measured afterwards.
        let found = codes_at("M 0\nCX 0 1\n");
        assert_eq!(found, vec![("SP001".into(), vec![1])]);
    }

    #[test]
    fn noise_after_last_detector_reference_is_dead() {
        let found = codes_at("M 0\nDETECTOR rec[-1]\nX_ERROR(0.1) 0\nM 0\n");
        assert_eq!(found, vec![("SP002".into(), vec![2])]);
    }

    #[test]
    fn noise_before_unreferenced_collapse_contaminates() {
        // The X error anticommutes with the (unreferenced) Z collapse on
        // qubit 0 while a referenced measurement still lies downstream:
        // the fault can pick up a stabilizer there, so it stays live.
        let text = "H 0\nCX 0 1\nX_ERROR(0.1) 0\nM 0\nM 1\nDETECTOR rec[-1]\n";
        assert!(codes_at(text).is_empty());
    }

    #[test]
    fn noise_on_disjoint_qubit_is_dead() {
        // Qubit 0's error meets no collapse until after the last
        // detector reference: it cannot reach the detector.
        let found = codes_at("X_ERROR(0.1) 0\nM 1\nDETECTOR rec[-1]\nM 0\n");
        assert_eq!(found, vec![("SP002".into(), vec![0])]);
        // Measured *at the same instruction* as the referenced outcome,
        // the fault could contaminate a random collapse there: the
        // conservative pass keeps it live.
        assert!(codes_at("X_ERROR(0.1) 0\nM 0 1\nDETECTOR rec[-1]\n").is_empty());
    }

    #[test]
    fn z_noise_before_z_detector_is_dead() {
        let found = codes_at("Z_ERROR(0.1) 0\nM 0\nDETECTOR rec[-1]\n");
        assert_eq!(found, vec![("SP002".into(), vec![0])]);
        // Depolarizing noise has an X generator: live.
        assert!(codes_at("DEPOLARIZE1(0.1) 0\nM 0\nDETECTOR rec[-1]\n").is_empty());
    }

    #[test]
    fn noise_without_detectors_is_not_flagged() {
        // Sampling-only circuit: the noise is the payload.
        assert!(codes_at("X_ERROR(0.1) 0\nM 0\n").is_empty());
    }

    #[test]
    fn feedback_chains_keep_noise_live() {
        // The noise flips the source measurement, the feedback carries
        // the flip onto qubit 1, and the detector reads it out: the
        // whole chain is live.
        let text = "X_ERROR(0.1) 0\nM 0\nCX rec[-1] 1\nM 1\nDETECTOR rec[-1]\n";
        assert!(codes_at(text).is_empty());
        // Noise injected after the feedback's referenced measurement is
        // past every reference: dead.
        let text = "M 0\nCX rec[-1] 1\nM 1\nDETECTOR rec[-1]\nX_ERROR(0.1) 0\nM 0\n";
        let found = codes_at(text);
        assert_eq!(found, vec![("SP002".into(), vec![4])]);
    }

    #[test]
    fn repeat_fixpoint_tracks_cross_iteration_lookbacks() {
        // Each iteration's detector reaches one measurement back across
        // the iteration boundary, keeping the in-body noise live.
        let text = "M 0\nREPEAT 5 {\n X_ERROR(0.1) 0\n M 0\n DETECTOR rec[-1] rec[-2]\n}\n";
        assert!(codes_at(text).is_empty());
        // A loop running entirely after the last detector reference is
        // dead noise, every iteration.
        let text = "M 0\nDETECTOR rec[-1]\nREPEAT 5 {\n X_ERROR(0.1) 0\n M 0\n}\n";
        let found = codes_at(text);
        assert_eq!(found, vec![("SP002".into(), vec![2, 0])]);
    }

    #[test]
    fn repeat_is_o_file_on_huge_trip_counts() {
        let text =
            "M 0\nREPEAT 1000000 {\n H 0\n X_ERROR(0.01) 0\n M 0\n DETECTOR rec[-1] rec[-2]\n}\n";
        let circuit = Circuit::parse(text).unwrap();
        let start = std::time::Instant::now();
        let mut diags = Vec::new();
        dead_code_lints(&circuit, &mut diags);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "liveness must not scale with the trip count"
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn repeat_body_flagged_only_if_dead_in_every_iteration() {
        // The last iteration's trailing H is followed by nothing, but
        // earlier iterations' H gates precede live measurements — the
        // joined state keeps the node live.
        let text = "REPEAT 3 {\n M 0\n H 0\n}\nM 0\nDETECTOR rec[-1]\n";
        assert!(codes_at(text).is_empty());
    }
}
