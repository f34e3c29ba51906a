//! The three tableau-dataflow rewrite passes behind [`crate::optimize`]:
//! **strip**, **fuse**, and **Pauli-propagate**.
//!
//! Each pass is a pure function `&Circuit -> Option<PassChange>`: it
//! either proposes a rewritten circuit (plus the bookkeeping the
//! translation validator needs — which noise sites were removed, which
//! measurement records had their signs flipped) or reports that it has
//! nothing to do. Passes never *apply* themselves: the driver in
//! [`crate::opt`] discharges every proposal through
//! [`crate::verify::rewrite_equiv_check`] and rolls back proposals whose
//! proof fails.
//!
//! * **strip** deletes `SP001` dead gates and `SP002` invisible noise
//!   using the liveness facts of [`crate::liveness`]. `REPEAT`-aware and
//!   O(file): a flagged node inside a million-round body is removed from
//!   the body once. Correlated-error chains are only stripped
//!   suffix-first — removing a middle `ELSE_CORRELATED_ERROR` would
//!   change the firing condition of the surviving later elements.
//! * **fuse** collapses maximal runs of adjacent single-qubit gate
//!   instructions: each qubit's run composes to one
//!   [`Clifford1`] element, which re-emits as its canonical word (0–2
//!   gates). A run is rewritten only when that strictly reduces the gate
//!   count, and the emission order is deterministic, so the pass is
//!   idempotent. The same run detection powers the `SP011` lint.
//! * **propagate** pushes standalone `X`/`Y`/`Z` gates forward as a
//!   per-qubit Pauli frame, conjugating through Cliffords
//!   ([`Gate::conjugate`]), absorbing into resets, and **flipping the
//!   recorded sign** of anticommuting measurements instead of keeping
//!   the gate. Records referenced by detectors/observables (or reachable
//!   from a `REPEAT` body) are never flipped — the frame is
//!   *materialized* (re-emitted as explicit gates) there instead, so
//!   detector and observable semantics are preserved exactly. Records
//!   whose outcome is **random** (the symbolic expression draws a fresh
//!   coin) also materialize rather than flip: the engine absorbs an
//!   anticommuting Pauli into the coin with no constant flip, so a
//!   declared flip there would be unsound.
//!   Classically-controlled Paulis conditioned on a flipped record are
//!   compensated by folding the controlled Pauli into the frame. Inside
//!   `REPEAT` bodies the pass runs with flipping disabled and
//!   materializes the residual frame at the body end, so the rewritten
//!   body is exact for every iteration.

use std::collections::{BTreeMap, HashSet};

use symphase_circuit::{Block, Circuit, Clifford1, Gate, Instruction, PauliKind, SmallPauli};
use symphase_core::SymbolicRecords;

use crate::{diag, liveness, symbolic, Diagnostic};

/// A measurement whose recorded sign the propagate pass flipped:
/// `index` is the **top-level instruction index in the pass-input
/// circuit** and `offset` the measurement's position within that
/// instruction. Keeping the site structural (rather than an absolute
/// record index) lets the validator recompute absolute positions after
/// clamping `REPEAT` trip counts. Flips only ever target top-level
/// instructions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlipSite {
    /// Top-level instruction index in the pass-input circuit.
    pub index: usize,
    /// Measurement offset within the instruction (target order; product
    /// order for `MPP`).
    pub offset: usize,
}

/// A proposed rewrite: the candidate circuit plus what the translation
/// validator needs to check it.
#[derive(Clone, Debug)]
pub struct PassChange {
    /// The rewritten circuit.
    pub circuit: Circuit,
    /// Measurement records whose signs the rewrite flips.
    pub flips: Vec<FlipSite>,
    /// Structural paths of noise instructions the rewrite removed.
    pub removed_noise_paths: HashSet<Vec<usize>>,
    /// Pass-specific count: nodes stripped / runs fused / Paulis
    /// absorbed.
    pub detail: usize,
}

impl PassChange {
    fn new(circuit: Circuit) -> Self {
        PassChange {
            circuit,
            flips: Vec::new(),
            removed_noise_paths: HashSet::new(),
            detail: 0,
        }
    }
}

/// Resolves [`FlipSite`]s to absolute measurement-record indices in
/// `circuit` (which must share the pass-input circuit's top-level
/// measurement layout).
///
/// # Errors
///
/// Returns a message when a site does not name a top-level measurement
/// of `circuit` — a validator-side sanity check.
pub fn absolute_flips(circuit: &Circuit, flips: &[FlipSite]) -> Result<Vec<usize>, String> {
    let instrs = circuit.instructions();
    let mut prefix = Vec::with_capacity(instrs.len());
    let mut count = 0usize;
    for ins in instrs {
        prefix.push(count);
        count += ins.measurements_added();
    }
    flips
        .iter()
        .map(|site| {
            let base = *prefix
                .get(site.index)
                .ok_or_else(|| format!("flip site {} past the end of the circuit", site.index))?;
            let added = instrs[site.index].measurements_added();
            if site.offset >= added {
                return Err(format!(
                    "flip offset {} out of range for instruction {}",
                    site.offset, site.index
                ));
            }
            Ok(base + site.offset)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// strip
// ---------------------------------------------------------------------------

/// Deletes every `SP001` dead gate and `SP002` invisible noise channel.
///
/// # Errors
///
/// Returns a message when the stripped circuit fails to rebuild (cannot
/// happen for liveness-flagged nodes; the error path guards the
/// invariant).
pub fn strip(circuit: &Circuit) -> Result<Option<PassChange>, String> {
    let mut diags = Vec::new();
    liveness::dead_code_lints(circuit, &mut diags);
    let mut gate_paths: HashSet<Vec<usize>> = HashSet::new();
    let mut noise_paths: HashSet<Vec<usize>> = HashSet::new();
    for d in diags {
        match d.code {
            "SP001" => {
                gate_paths.insert(d.path);
            }
            "SP002" => {
                noise_paths.insert(d.path);
            }
            _ => {}
        }
    }
    restrict_chains_to_suffixes(circuit.instructions(), &mut Vec::new(), &mut noise_paths);
    if gate_paths.is_empty() && noise_paths.is_empty() {
        return Ok(None);
    }
    let mut all = gate_paths.clone();
    all.extend(noise_paths.iter().cloned());
    let stripped = crate::verify::strip_paths(circuit, &all)?;
    let mut change = PassChange::new(stripped);
    change.detail = all.len();
    change.removed_noise_paths = noise_paths;
    Ok(Some(change))
}

/// Removes from `noise_paths` every correlated-error chain element that
/// has a surviving later element: an `ELSE_CORRELATED_ERROR` fires only
/// when no earlier chain element fired, so deleting a middle element
/// would change the firing distribution of the survivors. Only contiguous
/// chain *suffixes* are safe to strip.
fn restrict_chains_to_suffixes(
    instrs: &[Instruction],
    prefix: &mut Vec<usize>,
    noise_paths: &mut HashSet<Vec<usize>>,
) {
    let mut i = 0;
    while i < instrs.len() {
        match &instrs[i] {
            Instruction::CorrelatedError { .. } => {
                let start = i;
                let mut end = i + 1;
                while end < instrs.len()
                    && matches!(
                        instrs[end],
                        Instruction::CorrelatedError {
                            else_branch: true,
                            ..
                        }
                    )
                {
                    end += 1;
                }
                let mut suffix_ok = true;
                for idx in (start..end).rev() {
                    prefix.push(idx);
                    if !noise_paths.contains(prefix.as_slice()) {
                        suffix_ok = false;
                    } else if !suffix_ok {
                        noise_paths.remove(prefix.as_slice());
                    }
                    prefix.pop();
                }
                i = end;
            }
            Instruction::Repeat { body, .. } => {
                prefix.push(i);
                restrict_chains_to_suffixes(body.instructions(), prefix, noise_paths);
                prefix.pop();
                i += 1;
            }
            _ => i += 1,
        }
    }
}

// ---------------------------------------------------------------------------
// fuse
// ---------------------------------------------------------------------------

fn is_single_qubit_gate(ins: &Instruction) -> bool {
    matches!(ins, Instruction::Gate { gate, .. } if gate.arity() == 1)
}

/// Per-qubit summary of one run of adjacent single-qubit gate
/// instructions: composed element, number of gate applications.
fn run_composition(run: &[Instruction]) -> BTreeMap<u32, (Clifford1, usize)> {
    let mut per: BTreeMap<u32, (Clifford1, usize)> = BTreeMap::new();
    for ins in run {
        let Instruction::Gate { gate, targets } = ins else {
            unreachable!("runs contain only gate instructions");
        };
        for &q in targets {
            let entry = per.entry(q).or_insert((Clifford1::identity(), 0));
            entry.0 = entry.0.then(Clifford1::from_gate(*gate));
            entry.1 += 1;
        }
    }
    per
}

/// `(total gate applications, applications after canonicalization,
/// largest per-qubit run length)` for one run.
fn run_summary(run: &[Instruction]) -> (usize, usize, usize) {
    let per = run_composition(run);
    let total: usize = per.values().map(|(_, n)| n).sum();
    let after: usize = per.values().map(|(c, _)| c.canonical_gates().len()).sum();
    let longest = per.values().map(|(_, n)| *n).max().unwrap_or(0);
    (total, after, longest)
}

/// Replaces a run with the canonical emission when strictly shorter.
/// Emission order is deterministic: canonical-word position 0 first,
/// then position 1, each grouped into broadcast instructions per gate in
/// [`Gate::ALL`] order with ascending targets — so re-fusing the output
/// is a no-op.
fn fuse_run(run: &[Instruction]) -> Option<Vec<Instruction>> {
    let per = run_composition(run);
    let total: usize = per.values().map(|(_, n)| n).sum();
    let after: usize = per.values().map(|(c, _)| c.canonical_gates().len()).sum();
    if after >= total {
        return None;
    }
    let words: BTreeMap<u32, &'static [Gate]> = per
        .iter()
        .map(|(&q, &(c, _))| (q, c.canonical_gates()))
        .collect();
    let mut out = Vec::new();
    for pos in 0..2 {
        for &g in Gate::ALL.iter().filter(|g| g.arity() == 1) {
            let targets: Vec<u32> = words
                .iter()
                .filter(|(_, w)| w.len() > pos && w[pos] == g)
                .map(|(&q, _)| q)
                .collect();
            if !targets.is_empty() {
                out.push(Instruction::Gate { gate: g, targets });
            }
        }
    }
    Some(out)
}

fn fuse_instrs(instrs: &[Instruction], fused_runs: &mut usize) -> (Vec<Instruction>, bool) {
    let mut out = Vec::with_capacity(instrs.len());
    let mut changed = false;
    let mut i = 0;
    while i < instrs.len() {
        if is_single_qubit_gate(&instrs[i]) {
            let start = i;
            while i < instrs.len() && is_single_qubit_gate(&instrs[i]) {
                i += 1;
            }
            match fuse_run(&instrs[start..i]) {
                Some(replacement) => {
                    *fused_runs += 1;
                    changed = true;
                    out.extend(replacement);
                }
                None => out.extend(instrs[start..i].iter().cloned()),
            }
        } else if let Instruction::Repeat { count, body } = &instrs[i] {
            let (inner, inner_changed) = fuse_instrs(body.instructions(), fused_runs);
            changed |= inner_changed;
            let mut new_body = Block::new();
            for ins in inner {
                new_body
                    .try_push(ins)
                    .expect("fused body re-validates: only gate instructions changed");
            }
            out.push(Instruction::Repeat {
                count: *count,
                body: Box::new(new_body),
            });
            i += 1;
        } else {
            out.push(instrs[i].clone());
            i += 1;
        }
    }
    (out, changed)
}

/// Collapses every fusable single-qubit Clifford run to its canonical
/// word (see the module docs).
///
/// # Errors
///
/// Returns a message when the fused circuit fails to rebuild (guards the
/// invariant that fusing cannot invalidate record lookbacks).
pub fn fuse(circuit: &Circuit) -> Result<Option<PassChange>, String> {
    let mut fused_runs = 0usize;
    let (instrs, changed) = fuse_instrs(circuit.instructions(), &mut fused_runs);
    if !changed {
        return Ok(None);
    }
    let mut out = Circuit::new(circuit.num_qubits());
    for ins in instrs {
        out.try_push(ins)?;
    }
    let mut change = PassChange::new(out);
    change.detail = fused_runs;
    Ok(Some(change))
}

/// Emits `SP011` for every run the fuse pass would rewrite that contains
/// at least two adjacent gates on one qubit, anchored at the run's first
/// instruction. Shares `run_summary` with the fuse pass so the lint
/// and the rewrite can never disagree about what is fusable.
pub fn fusable_run_lints(circuit: &Circuit, diags: &mut Vec<Diagnostic>) {
    fn scan(instrs: &[Instruction], prefix: &mut Vec<usize>, diags: &mut Vec<Diagnostic>) {
        let mut i = 0;
        while i < instrs.len() {
            if is_single_qubit_gate(&instrs[i]) {
                let start = i;
                while i < instrs.len() && is_single_qubit_gate(&instrs[i]) {
                    i += 1;
                }
                let (total, after, longest) = run_summary(&instrs[start..i]);
                if after < total && longest >= 2 {
                    prefix.push(start);
                    diags.push(diag(
                        "SP011",
                        prefix,
                        format!(
                            "fusable single-qubit Clifford run: {total} gate application(s) \
                             reduce to {after}"
                        ),
                    ));
                    prefix.pop();
                }
            } else {
                if let Instruction::Repeat { body, .. } = &instrs[i] {
                    prefix.push(i);
                    scan(body.instructions(), prefix, diags);
                    prefix.pop();
                }
                i += 1;
            }
        }
    }
    scan(circuit.instructions(), &mut Vec::new(), diags);
}

// ---------------------------------------------------------------------------
// propagate
// ---------------------------------------------------------------------------

/// Per-qubit Pauli frame: `(x, z)` component bits. The sign is a global
/// phase and is never tracked.
type FrameBits = (bool, bool);

fn pauli_bits(gate: Gate) -> Option<FrameBits> {
    match gate {
        Gate::X => Some((true, false)),
        Gate::Y => Some((true, true)),
        Gate::Z => Some((false, true)),
        _ => None,
    }
}

fn frame_kind(f: FrameBits) -> Option<PauliKind> {
    match f {
        (false, false) => None,
        (true, false) => Some(PauliKind::X),
        (true, true) => Some(PauliKind::Y),
        (false, true) => Some(PauliKind::Z),
    }
}

/// Whether the frame anticommutes with a measurement in `basis`
/// (symplectic product of the component bits).
fn frame_anticommutes(f: FrameBits, basis: PauliKind) -> bool {
    let (bx, bz) = basis.xz();
    (f.0 & bz) ^ (f.1 & bx)
}

fn conjugate_frame1(gate: Gate, f: FrameBits) -> FrameBits {
    if f == (false, false) {
        return f;
    }
    let img = gate.conjugate(SmallPauli::two(f.0, f.1, false, false));
    (img.x0, img.z0)
}

fn conjugate_frame2(gate: Gate, a: FrameBits, b: FrameBits) -> (FrameBits, FrameBits) {
    if a == (false, false) && b == (false, false) {
        return (a, b);
    }
    let img = gate.conjugate(SmallPauli::two(a.0, a.1, b.0, b.1));
    ((img.x0, img.z0), (img.x1, img.z1))
}

/// Re-emits the frames of `qubits` as explicit Pauli gate instructions
/// (grouped `X`, `Y`, `Z` broadcasts with ascending targets) and clears
/// them. Materialization is always exact: the frame *is* the deleted
/// gates, conjugated forward to this point.
fn materialize(out: &mut Vec<Instruction>, frame: &mut [FrameBits], qubits: &[u32]) -> usize {
    let mut by_kind: [Vec<u32>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut sorted: Vec<u32> = qubits.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    for q in sorted {
        if let Some(kind) = frame_kind(frame[q as usize]) {
            let slot = match kind {
                PauliKind::X => 0,
                PauliKind::Y => 1,
                PauliKind::Z => 2,
            };
            by_kind[slot].push(q);
            frame[q as usize] = (false, false);
        }
    }
    let mut emitted = 0;
    for (gate, targets) in [Gate::X, Gate::Y, Gate::Z].into_iter().zip(by_kind) {
        if !targets.is_empty() {
            emitted += targets.len();
            out.push(Instruction::Gate { gate, targets });
        }
    }
    emitted
}

fn all_framed_qubits(frame: &[FrameBits]) -> Vec<u32> {
    frame
        .iter()
        .enumerate()
        .filter(|(_, f)| **f != (false, false))
        .map(|(q, _)| q as u32)
        .collect()
}

/// Measurement records the propagate pass must never flip: every record
/// referenced by a top-level detector or observable, plus the
/// [`Block::required_record`] window before each top-level `REPEAT`
/// (which over-approximates the records the body's first iterations can
/// reference). Flips never occur inside `REPEAT` bodies, so in-body
/// records need no entry.
fn barred_records(circuit: &Circuit) -> HashSet<usize> {
    let mut barred = HashSet::new();
    let mut count = 0usize;
    for ins in circuit.instructions() {
        match ins {
            Instruction::Detector { lookbacks, .. }
            | Instruction::ObservableInclude { lookbacks, .. } => {
                for &l in lookbacks {
                    let d = usize::try_from(l.unsigned_abs()).unwrap_or(usize::MAX);
                    if d <= count {
                        barred.insert(count - d);
                    }
                }
            }
            Instruction::Repeat { body, .. } => {
                for k in count.saturating_sub(body.required_record())..count {
                    barred.insert(k);
                }
            }
            _ => {}
        }
        count += ins.measurements_added();
    }
    barred
}

/// Records (absolute indices in `circuit`) of top-level measurements
/// whose outcome is *random*: their symbolic expression draws a fresh
/// coin. Flipping such a record is unsound — the measurement procedure
/// discards the displaced stabilizer sign, so an anticommuting frame is
/// absorbed into the coin with **no** constant flip — and the propagate
/// pass materializes frames there instead.
///
/// Oversized circuits are classified on the same trip-count clamp the
/// translation validator replays (determinism of a top-level record is
/// read off the clamped row at the matching top-level position); `None`
/// means the circuit cannot be replayed even clamped, and the caller
/// must treat every record as random.
fn random_records(circuit: &Circuit) -> Option<HashSet<usize>> {
    let clamped_circuit;
    let target = if symbolic::work(circuit) <= symbolic::MAX_SYMBOLIC_WORK {
        circuit
    } else {
        match symbolic::clamp_circuit(circuit) {
            Some(c) if symbolic::work(&c) <= symbolic::MAX_SYMBOLIC_WORK => {
                clamped_circuit = c;
                &clamped_circuit
            }
            _ => return None,
        }
    };
    let records = SymbolicRecords::new(target);
    // Randomness is reported by Initialization at collapse time, per
    // record. (It cannot be reconstructed from the rows: resets allocate
    // coins without recording anything, and a re-measurement after a
    // collapse *inherits* an earlier coin while staying deterministic
    // and flippable.)
    let is_random = records.random_measurement_records();
    let mut random = HashSet::new();
    let mut full_base = 0usize;
    let mut clamp_base = 0usize;
    // Clamping preserves the top-level instruction sequence one-to-one
    // (only `REPEAT` trip counts shrink), so the two record streams walk
    // in lockstep; flips never target in-body records, so only the
    // non-`REPEAT` rows need classifying.
    for (full_ins, clamp_ins) in circuit.instructions().iter().zip(target.instructions()) {
        let n = full_ins.measurements_added();
        if !matches!(full_ins, Instruction::Repeat { .. }) {
            for o in 0..n {
                if is_random[clamp_base + o] {
                    random.insert(full_base + o);
                }
            }
        }
        full_base += n;
        clamp_base += clamp_ins.measurements_added();
    }
    Some(random)
}

/// Whether any standalone Pauli gate occurs anywhere in `instrs` — the
/// only frame source, so its absence means propagate cannot act.
fn has_pauli_gate(instrs: &[Instruction]) -> bool {
    instrs.iter().any(|ins| match ins {
        Instruction::Gate { gate, .. } => pauli_bits(*gate).is_some(),
        Instruction::Repeat { body, .. } => has_pauli_gate(body.instructions()),
        _ => false,
    })
}

struct Propagation {
    frame: Vec<FrameBits>,
    absorbed: usize,
    changed: bool,
}

impl Propagation {
    fn absorb(&mut self, gate: Gate, targets: &[u32]) {
        let bits = pauli_bits(gate).expect("only Pauli gates are absorbed");
        for &q in targets {
            let f = &mut self.frame[q as usize];
            f.0 ^= bits.0;
            f.1 ^= bits.1;
        }
        self.absorbed += targets.len();
        self.changed = true;
    }

    fn conjugate_gate(&mut self, gate: Gate, targets: &[u32]) {
        if gate.arity() == 1 {
            for &q in targets {
                self.frame[q as usize] = conjugate_frame1(gate, self.frame[q as usize]);
            }
        } else {
            for pair in targets.chunks_exact(2) {
                let (a, b) = (pair[0] as usize, pair[1] as usize);
                let (fa, fb) = conjugate_frame2(gate, self.frame[a], self.frame[b]);
                self.frame[a] = fa;
                self.frame[b] = fb;
            }
        }
    }
}

/// Processes one instruction sequence. `flippable` is `Some(barred)` at
/// the top level (flips allowed except at barred records) and `None`
/// inside `REPEAT` bodies (always materialize). Returns the rewritten
/// sequence.
#[allow(clippy::too_many_lines)]
fn propagate_instrs(
    instrs: &[Instruction],
    state: &mut Propagation,
    flippable: Option<&HashSet<usize>>,
    record_start: usize,
    flips: &mut Vec<FlipSite>,
    flipped_abs: &mut HashSet<usize>,
) -> Result<Vec<Instruction>, String> {
    let mut out: Vec<Instruction> = Vec::with_capacity(instrs.len());
    let mut record = record_start;
    for (idx, ins) in instrs.iter().enumerate() {
        match ins {
            Instruction::Gate { gate, targets } if pauli_bits(*gate).is_some() => {
                state.absorb(*gate, targets);
            }
            Instruction::Gate { gate, targets } => {
                state.conjugate_gate(*gate, targets);
                out.push(ins.clone());
            }
            Instruction::Measure { basis, targets } => {
                let mut to_materialize = Vec::new();
                for (o, &q) in targets.iter().enumerate() {
                    if !frame_anticommutes(state.frame[q as usize], *basis) {
                        continue;
                    }
                    match flippable {
                        Some(barred) if !barred.contains(&(record + o)) => {
                            flips.push(FlipSite {
                                index: idx,
                                offset: o,
                            });
                            flipped_abs.insert(record + o);
                            state.changed = true;
                        }
                        _ => to_materialize.push(q),
                    }
                }
                materialize(&mut out, &mut state.frame, &to_materialize);
                out.push(ins.clone());
                record += targets.len();
            }
            Instruction::MeasureReset { basis, targets } => {
                let mut to_materialize = Vec::new();
                for (o, &q) in targets.iter().enumerate() {
                    if !frame_anticommutes(state.frame[q as usize], *basis) {
                        continue;
                    }
                    match flippable {
                        Some(barred) if !barred.contains(&(record + o)) => {
                            flips.push(FlipSite {
                                index: idx,
                                offset: o,
                            });
                            flipped_abs.insert(record + o);
                            state.changed = true;
                        }
                        _ => to_materialize.push(q),
                    }
                }
                materialize(&mut out, &mut state.frame, &to_materialize);
                out.push(ins.clone());
                // The reset half absorbs whatever frame remains.
                for &q in targets {
                    if state.frame[q as usize] != (false, false) {
                        state.frame[q as usize] = (false, false);
                        state.changed = true;
                    }
                }
                record += targets.len();
            }
            Instruction::Reset { targets, .. } => {
                for &q in targets {
                    if state.frame[q as usize] != (false, false) {
                        state.frame[q as usize] = (false, false);
                        state.changed = true;
                    }
                }
                out.push(ins.clone());
            }
            Instruction::MeasurePauliProduct { products } => {
                let mut to_materialize: Vec<u32> = Vec::new();
                for (o, product) in products.iter().enumerate() {
                    let parity = product.iter().fold(false, |acc, &(kind, q)| {
                        acc ^ frame_anticommutes(state.frame[q as usize], kind)
                    });
                    if !parity {
                        continue;
                    }
                    match flippable {
                        Some(barred) if !barred.contains(&(record + o)) => {
                            flips.push(FlipSite {
                                index: idx,
                                offset: o,
                            });
                            flipped_abs.insert(record + o);
                            state.changed = true;
                        }
                        _ => to_materialize.extend(product.iter().map(|&(_, q)| q)),
                    }
                }
                materialize(&mut out, &mut state.frame, &to_materialize);
                out.push(ins.clone());
                record += products.len();
            }
            Instruction::Feedback {
                pauli,
                lookback,
                target,
            } => {
                let reference = i64::try_from(record).unwrap_or(i64::MAX) + lookback;
                if reference >= 0 && flipped_abs.contains(&(reference as usize)) {
                    // The optimized record bit is complemented, so the
                    // controlled Pauli now fires on exactly the opposite
                    // shots; an unconditional compensating Pauli folded
                    // into the frame restores the original semantics.
                    let (bx, bz) = pauli.xz();
                    let f = &mut state.frame[*target as usize];
                    f.0 ^= bx;
                    f.1 ^= bz;
                    state.changed = true;
                }
                out.push(ins.clone());
            }
            Instruction::Repeat { count, body } => {
                // The body must transform identically for every
                // iteration, so it is entered frame-free and left
                // frame-free.
                let framed = all_framed_qubits(&state.frame);
                materialize(&mut out, &mut state.frame, &framed);
                let inner =
                    propagate_instrs(body.instructions(), state, None, 0, flips, flipped_abs)?;
                let mut new_body = Block::new();
                for i in inner {
                    new_body.try_push(i)?;
                }
                out.push(Instruction::Repeat {
                    count: *count,
                    body: Box::new(new_body),
                });
                record += ins.measurements_added();
            }
            Instruction::Noise { .. }
            | Instruction::CorrelatedError { .. }
            | Instruction::Detector { .. }
            | Instruction::ObservableInclude { .. }
            | Instruction::Tick
            | Instruction::QubitCoords { .. }
            | Instruction::ShiftCoords { .. } => {
                // Pauli conjugation maps every noise channel's generator
                // set to itself (up to sign), so frames pass through
                // noise unchanged.
                out.push(ins.clone());
            }
        }
    }
    if flippable.is_none() {
        // Residual frame at block end: the next iteration must see the
        // same entry state, so re-emit it.
        let framed = all_framed_qubits(&state.frame);
        materialize(&mut out, &mut state.frame, &framed);
    }
    // At the top level the residual frame follows the last instruction:
    // nothing can observe it, so it is dropped (it is exactly a dead
    // gate).
    Ok(out)
}

/// Pushes standalone Pauli gates forward into measurement-record sign
/// flips (see the module docs).
///
/// # Errors
///
/// Returns a message when the rewritten circuit fails to rebuild.
pub fn propagate(circuit: &Circuit) -> Result<Option<PassChange>, String> {
    if !has_pauli_gate(circuit.instructions()) {
        return Ok(None);
    }
    let mut barred = barred_records(circuit);
    // `None` (unclassifiable even clamped) degrades to materialize-only:
    // Paulis still move up to their observation points but no record is
    // ever flipped.
    let flippable = match random_records(circuit) {
        Some(random) => {
            barred.extend(random);
            Some(&barred)
        }
        None => None,
    };
    let mut state = Propagation {
        frame: vec![(false, false); circuit.num_qubits() as usize],
        absorbed: 0,
        changed: false,
    };
    let mut flips = Vec::new();
    let mut flipped_abs = HashSet::new();
    let instrs = propagate_instrs(
        circuit.instructions(),
        &mut state,
        flippable,
        0,
        &mut flips,
        &mut flipped_abs,
    )?;
    if !state.changed {
        return Ok(None);
    }
    let mut out = Circuit::new(circuit.num_qubits());
    for ins in instrs {
        out.try_push(ins)?;
    }
    if out == *circuit && flips.is_empty() {
        // Everything absorbed was re-materialized in place.
        return Ok(None);
    }
    let mut change = PassChange::new(out);
    change.flips = flips;
    change.detail = state.absorbed;
    Ok(Some(change))
}

// ---------------------------------------------------------------------------
// deliberately broken rule (test-only surface)
// ---------------------------------------------------------------------------

/// A deliberately unsound "rewrite" that swaps the first top-level `H`
/// for an `S`: used by the test suite to pin that translation validation
/// catches a semantics-changing rule and rolls it back. Hidden from docs
/// but `pub` so integration tests can reach it through
/// [`crate::optimize_with`].
///
/// # Errors
///
/// Returns a message when the rebuilt circuit fails validation.
#[doc(hidden)]
pub fn broken_for_tests(circuit: &Circuit) -> Result<Option<PassChange>, String> {
    let mut out = Circuit::new(circuit.num_qubits());
    let mut swapped = false;
    for ins in circuit.instructions() {
        let ins = match ins {
            Instruction::Gate {
                gate: Gate::H,
                targets,
            } if !swapped => {
                swapped = true;
                Instruction::Gate {
                    gate: Gate::S,
                    targets: targets.clone(),
                }
            }
            other => other.clone(),
        };
        out.try_push(ins)?;
    }
    if !swapped {
        return Ok(None);
    }
    let mut change = PassChange::new(out);
    change.detail = 1;
    Ok(Some(change))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Circuit {
        Circuit::parse(text).unwrap()
    }

    #[test]
    fn fuse_collapses_inverse_pair() {
        let c = parse("H 0\nH 0\nM 0\n");
        let change = fuse(&c).unwrap().unwrap();
        assert_eq!(change.circuit.to_string(), "M 0\n");
        assert_eq!(change.detail, 1);
    }

    #[test]
    fn fuse_is_idempotent_on_its_output() {
        let c = parse("S 0\nS 0\nS 0\nH 1\nX 1\nM 0 1\n");
        let change = fuse(&c).unwrap().unwrap();
        assert!(fuse(&change.circuit).unwrap().is_none());
    }

    #[test]
    fn fuse_leaves_minimal_runs_alone() {
        let c = parse("H 0\nCX 0 1\nH 0\nM 0 1\n");
        assert!(fuse(&c).unwrap().is_none());
    }

    #[test]
    fn fuse_rewrites_inside_repeat_bodies() {
        let c = parse("REPEAT 5 {\n S 0\n S_DAG 0\n M 0\n}\n");
        let change = fuse(&c).unwrap().unwrap();
        assert_eq!(change.circuit.stats().gates, 0);
        assert_eq!(change.circuit.num_measurements(), 5);
    }

    #[test]
    fn sp011_fires_and_matches_fuse() {
        let c = parse("H 0\nH 0\nM 0\n");
        let mut diags = Vec::new();
        fusable_run_lints(&c, &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SP011");
        assert_eq!(diags[0].path, vec![0]);
        // Distinct qubits: adjacent but nothing to fuse.
        let c = parse("H 0\nS 1\nM 0 1\n");
        let mut diags = Vec::new();
        fusable_run_lints(&c, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn strip_removes_dead_gate_and_noise() {
        let c = parse("X_ERROR(0.1) 0\nM 0\nDETECTOR rec[-1]\nZ_ERROR(0.2) 0\nM 0\nS 0\n");
        let change = strip(&c).unwrap().unwrap();
        assert_eq!(change.circuit.stats().noise_sites, 1);
        assert!(change
            .circuit
            .to_string()
            .lines()
            .all(|l| l != "S 0" && !l.starts_with("Z_ERROR")));
        assert_eq!(change.removed_noise_paths.len(), 1);
    }

    #[test]
    fn strip_keeps_chain_heads_with_live_tails() {
        // Head and middle act on an unmeasured qubit; the tail flips the
        // detected qubit. Only a suffix may be stripped, and the live
        // tail means nothing in this chain is strippable.
        let c = parse(
            "E(0.25) X1\nELSE_CORRELATED_ERROR(0.25) X1\nELSE_CORRELATED_ERROR(0.25) X0\n\
             M 0\nDETECTOR rec[-1]\n",
        );
        let mut diags = Vec::new();
        liveness::dead_code_lints(&c, &mut diags);
        let flagged: Vec<_> = diags.iter().filter(|d| d.code == "SP002").collect();
        assert!(!flagged.is_empty(), "dead chain prefix should be flagged");
        let change = strip(&c).unwrap();
        assert!(
            change.is_none(),
            "chain prefix with a live tail must survive: {change:?}"
        );
    }

    #[test]
    fn propagate_flips_unreferenced_measurement() {
        let c = parse("X 0\nM 0\nM 1\n");
        let change = propagate(&c).unwrap().unwrap();
        assert_eq!(change.circuit.stats().gates, 0);
        assert_eq!(
            change.flips,
            vec![FlipSite {
                index: 1,
                offset: 0
            }]
        );
        assert_eq!(absolute_flips(&c, &change.flips).unwrap(), vec![0],);
    }

    #[test]
    fn propagate_materializes_at_random_measurement() {
        // M 0 on |+⟩ draws a fresh coin: the engine absorbs the X into
        // it with no constant flip, so flipping would be unsound. The
        // frame materializes in place instead — a no-change proposal.
        let c = parse("H 0\nX 0\nM 0\n");
        assert!(propagate(&c).unwrap().is_none());
        // Entangled variant: the Bell partner's record *would* expose a
        // bad flip; the pass must bar it the same way.
        let bell = parse("H 0\nCX 0 1\nX 0\nM 0\nM 1\n");
        assert!(propagate(&bell).unwrap().is_none());
        // A deterministic record after a collapse still flips.
        let after = parse("M 0\nX 0\nM 0\nM 1\n");
        let change = propagate(&after).unwrap().unwrap();
        assert_eq!(change.circuit.stats().gates, 0);
        assert_eq!(absolute_flips(&after, &change.flips).unwrap(), vec![1]);
        // A re-measurement *inheriting* the first record's coin is
        // deterministic given it — still flippable.
        let inherit = parse("H 0\nM 0\nX 0\nM 0\n");
        let change = propagate(&inherit).unwrap().unwrap();
        assert_eq!(change.circuit.to_string(), "H 0\nM 0\nM 0\n");
        assert_eq!(absolute_flips(&inherit, &change.flips).unwrap(), vec![1]);
    }

    #[test]
    fn propagate_materializes_at_detector_referenced_measurement() {
        let c = parse("X 0\nM 0\nDETECTOR rec[-1]\n");
        let change = propagate(&c).unwrap();
        // The only rewrite would re-emit X in place: reported as
        // no-change.
        assert!(change.is_none(), "{change:?}");
    }

    #[test]
    fn propagate_conjugates_through_cliffords() {
        // X through H becomes Z, which commutes with M: the gate
        // disappears without a flip.
        let c = parse("X 0\nH 0\nM 0\nDETECTOR rec[-1]\n");
        let change = propagate(&c).unwrap().unwrap();
        assert_eq!(change.circuit.stats().gates, 1, "{}", change.circuit);
        assert!(change.flips.is_empty());
    }

    #[test]
    fn propagate_absorbs_into_reset() {
        let c = parse("X 0\nR 0\nM 0\nDETECTOR rec[-1]\n");
        let change = propagate(&c).unwrap().unwrap();
        assert_eq!(change.circuit.stats().gates, 0);
        assert!(change.flips.is_empty());
    }

    #[test]
    fn propagate_keeps_repeat_bodies_frame_neutral() {
        let c = parse("X 0\nREPEAT 3 {\n M 0\n}\nM 0\n");
        // rec window before the REPEAT is empty (no lookbacks), so the
        // pre-block X may flip in-block measurements? No: flips inside
        // bodies are disabled; the frame materializes before the block.
        let change = propagate(&c).unwrap();
        if let Some(change) = &change {
            assert!(change.flips.iter().all(|f| f.index < 1));
        }
    }

    #[test]
    fn propagate_compensates_feedback_on_flipped_record() {
        let c = parse("X 0\nM 0\nCX rec[-1] 1\nM 1\n");
        let change = propagate(&c).unwrap().unwrap();
        assert_eq!(
            absolute_flips(&c, &change.flips).unwrap(),
            vec![0, 1],
            "record 0 flips directly; record 1 flips through the \
             compensating frame on qubit 1: {}",
            change.circuit
        );
    }

    #[test]
    fn broken_rule_changes_semantics() {
        let c = parse("H 0\nM 0\n");
        let change = broken_for_tests(&c).unwrap().unwrap();
        assert_eq!(change.circuit.to_string(), "S 0\nM 0\n");
    }
}
