//! Verification of dead-code findings against the symbolic engine.
//!
//! `SP001`/`SP002` are *checkable* claims, and this module checks them:
//!
//! * [`dead_gate_check`] removes every `SP001`-flagged instruction and
//!   asserts the symbolic initialization is **identical** — same
//!   measurement matrix, same detector rows, same observable rows,
//!   symbol for symbol. (Dead gates allocate no symbols and, by the
//!   liveness criterion, change no collapse outcome, so the symbol
//!   numbering of the stripped circuit lines up with the original.)
//! * [`dead_noise_check`] replays the symbol table's allocation order
//!   against the circuit's flattened noise sites to recover which symbol
//!   ids each flagged channel introduced, then asserts none of those ids
//!   appears in any detector or observable row.
//!
//! Both run over the fixture corpus and the built-in circuit generators
//! in the test suite; they are `pub` so downstream tooling can gate on
//! them too.

use std::collections::HashSet;
use std::mem::discriminant;

use symphase_bitmat::BitVec;
use symphase_circuit::{Block, Circuit, Instruction, PauliKind};
use symphase_core::noise::{channel_slots, NoiseSite};
use symphase_core::{SymPhaseSampler, SymbolGroup, SymbolId, SymbolTable};
use symphase_tableau::record::{detector_measurement_sets, observable_measurement_sets};

use crate::rewrite::{absolute_flips, FlipSite};
use crate::{lint, symbolic, walk_flat};

/// Checks every `SP001` finding by removal: the stripped circuit must
/// produce byte-identical symbolic matrices.
///
/// # Errors
///
/// Returns a description of the first mismatch — which means the
/// liveness pass flagged a gate that *does* influence an output.
pub fn dead_gate_check(circuit: &Circuit) -> Result<(), String> {
    let flagged: HashSet<Vec<usize>> = lint(circuit)
        .into_iter()
        .filter(|d| d.code == "SP001")
        .map(|d| d.path)
        .collect();
    if flagged.is_empty() {
        return Ok(());
    }
    let stripped = strip_paths(circuit, &flagged)?;
    let original = SymPhaseSampler::new(circuit);
    let reduced = SymPhaseSampler::new(&stripped);

    compare_matrices(
        "measurement",
        original.measurement_matrix(),
        reduced.measurement_matrix(),
    )?;
    compare_matrices(
        "detector",
        original.detector_rows(),
        reduced.detector_rows(),
    )?;
    compare_matrices(
        "observable",
        original.observable_rows(),
        reduced.observable_rows(),
    )
}

fn compare_matrices(
    what: &str,
    a: &symphase_bitmat::SparseRowMatrix,
    b: &symphase_bitmat::SparseRowMatrix,
) -> Result<(), String> {
    if a.rows() != b.rows() {
        return Err(format!(
            "{what} row count changed after stripping dead gates: {} -> {}",
            a.rows(),
            b.rows()
        ));
    }
    for r in 0..a.rows() {
        if a.row(r).indices() != b.row(r).indices() {
            return Err(format!(
                "{what} row {r} changed after stripping dead gates: {:?} -> {:?}",
                a.row(r).indices(),
                b.row(r).indices()
            ));
        }
    }
    Ok(())
}

/// Checks every `SP002` finding by symbol provenance: the flagged
/// channels' symbol ids must be absent from every detector and
/// observable row.
///
/// # Errors
///
/// Returns a description of the first flagged symbol found in a row.
pub fn dead_noise_check(circuit: &Circuit) -> Result<(), String> {
    let flagged: HashSet<Vec<usize>> = lint(circuit)
        .into_iter()
        .filter(|d| d.code == "SP002")
        .map(|d| d.path)
        .collect();
    if flagged.is_empty() {
        return Ok(());
    }
    let sampler = SymPhaseSampler::new(circuit);

    // Noise symbols are allocated in execution order, one group per
    // channel application; coins interleave but belong to measurements.
    let noise_groups: Vec<SymbolGroup> = sampler
        .symbol_table()
        .groups()
        .filter(|g| !matches!(g, SymbolGroup::Coin { .. }))
        .collect();

    let mut dead_ids: HashSet<u32> = HashSet::new();
    let mut gi = 0usize;
    let mut misaligned = false;
    let mut path = Vec::new();
    walk_flat(circuit.instructions(), &mut path, &mut |path, ins| {
        let applications = match ins {
            Instruction::Noise { channel, targets } => targets.len() / channel.arity(),
            Instruction::CorrelatedError { .. } => 1,
            _ => 0,
        };
        for _ in 0..applications {
            let Some(group) = noise_groups.get(gi) else {
                misaligned = true;
                return;
            };
            gi += 1;
            if flagged.contains(path) {
                dead_ids.extend(group_ids(group));
            }
        }
    });
    if misaligned || gi != noise_groups.len() {
        return Err(format!(
            "symbol-table replay misaligned: {} noise sites vs {} noise groups",
            gi,
            noise_groups.len()
        ));
    }

    for (what, rows) in [
        ("detector", sampler.detector_rows()),
        ("observable", sampler.observable_rows()),
    ] {
        for r in 0..rows.rows() {
            if let Some(&id) = rows
                .row(r)
                .indices()
                .iter()
                .find(|&&id| dead_ids.contains(&id))
            {
                return Err(format!(
                    "symbol {id} of a channel flagged as dead noise appears in {what} row {r}"
                ));
            }
        }
    }
    Ok(())
}

/// Discharges an `SP015` fault-set claim by fault injection: setting
/// exactly `symbols` (a XOR-combined union of mechanism witnesses) must
/// leave **every detector silent** and flip **exactly**
/// `expected_observables`.
///
/// Two independent proofs run, and both must pass:
///
/// 1. **Symbolic**: every detector row of the sampler must evaluate
///    identically under the clean assignment (`s₀` only) and the injected
///    one (`s₀` plus `symbols`); observable rows must differ exactly at
///    `expected_observables`.
/// 2. **Concrete**: the circuit is rebuilt with each noise site replaced
///    by the explicit Pauli gates its fired symbols realize (the layout
///    the cross-engine fault-injection suite pins: `X`/`Y`/`Z` errors
///    apply their Pauli, `DEPOLARIZE1`/`PAULI_CHANNEL_1` apply `X`^fx
///    `Z`^fz, the two-qubit channels their 4-bit `[xa, za, xb, zb]`
///    pattern, `E`/`ELSE` their Pauli product). The tableau engine's
///    [`reference_sample`](symphase_tableau::reference_sample) of the
///    injected circuit is compared against the clean circuit's through
///    the detector/observable measurement sets.
///
/// A disagreement means the analyzer's distance claim is wrong; the
/// driver withdraws the claim and reports a rollback diagnostic instead.
///
/// # Errors
///
/// Returns a description of the first violated obligation.
pub fn fault_set_check(
    circuit: &Circuit,
    symbols: &[SymbolId],
    expected_observables: &[u32],
) -> Result<(), String> {
    let sampler = SymPhaseSampler::new(circuit);
    let fired: HashSet<SymbolId> = symbols.iter().copied().collect();
    for &s in symbols {
        if s == 0 || s as usize >= sampler.symbol_table().assignment_len() {
            return Err(format!("fault set names unknown symbol {s}"));
        }
    }

    // -- Proof 1: symbolic row evaluation.
    let len = sampler.symbol_table().assignment_len();
    let mut clean = BitVec::zeros(len);
    clean.set(0, true); // the constant term s₀
    let mut injected = clean.clone();
    for &s in symbols {
        injected.set(s as usize, true);
    }
    for r in 0..sampler.detector_rows().rows() {
        let row = sampler.detector_rows().row(r);
        if row.eval(&clean) != row.eval(&injected) {
            return Err(format!(
                "symbolic: detector D{r} fires under the injected fault set"
            ));
        }
    }
    let mut symbolic_obs = Vec::new();
    for r in 0..sampler.observable_rows().rows() {
        let row = sampler.observable_rows().row(r);
        if row.eval(&clean) != row.eval(&injected) {
            symbolic_obs.push(r as u32);
        }
    }
    if symbolic_obs != expected_observables {
        return Err(format!(
            "symbolic: injected fault set flips observables {symbolic_obs:?}, claimed \
             {expected_observables:?}"
        ));
    }

    // -- Proof 2: concrete Pauli injection through the tableau engine.
    let concrete = inject_faults(circuit, &sampler, &fired)?;
    let clean_ref = symphase_tableau::reference_sample(&circuit.flattened());
    let fault_ref = symphase_tableau::reference_sample(&concrete);
    if clean_ref.len() != fault_ref.len() {
        return Err("concrete: injection changed the measurement count".into());
    }
    for (d, set) in detector_measurement_sets(circuit).iter().enumerate() {
        let flipped = set
            .iter()
            .fold(false, |p, &m| p ^ clean_ref.get(m) ^ fault_ref.get(m));
        if flipped {
            return Err(format!(
                "concrete: detector D{d} fires under the injected fault set"
            ));
        }
    }
    let mut concrete_obs = Vec::new();
    for (o, set) in observable_measurement_sets(circuit).iter().enumerate() {
        let flipped = set
            .iter()
            .fold(false, |p, &m| p ^ clean_ref.get(m) ^ fault_ref.get(m));
        if flipped {
            concrete_obs.push(o as u32);
        }
    }
    if concrete_obs != expected_observables {
        return Err(format!(
            "concrete: injected fault set flips observables {concrete_obs:?}, claimed \
             {expected_observables:?}"
        ));
    }
    Ok(())
}

/// Rebuilds `circuit` flattened, with every noise site replaced by the
/// explicit Pauli gates its fired symbols realize (sites with no fired
/// symbol vanish). Alignment between noise applications and symbol
/// groups follows [`dead_noise_check`]'s replay.
fn inject_faults(
    circuit: &Circuit,
    sampler: &SymPhaseSampler,
    fired: &HashSet<SymbolId>,
) -> Result<Circuit, String> {
    let noise_groups: Vec<SymbolGroup> = sampler
        .symbol_table()
        .groups()
        .filter(|g| !matches!(g, SymbolGroup::Coin { .. }))
        .collect();
    let mut out = Circuit::new(circuit.num_qubits());
    let mut gi = 0usize;
    let mut err: Option<String> = None;
    let mut path = Vec::new();
    walk_flat(circuit.instructions(), &mut path, &mut |_, ins| {
        if err.is_some() {
            return;
        }
        let mut pauli = |kind: PauliKind, q: u32| {
            out.push(Instruction::Gate {
                gate: kind.gate(),
                targets: vec![q],
            });
        };
        match ins {
            Instruction::Noise { channel, targets } => {
                for chunk in targets.chunks(channel.arity()) {
                    let Some(group) = noise_groups.get(gi) else {
                        err = Some("symbol-table replay misaligned".into());
                        return;
                    };
                    gi += 1;
                    let (site, ids) = group.site();
                    if discriminant(&site) != discriminant(&NoiseSite::from(*channel)) {
                        err = Some(format!(
                            "channel/symbol-group mismatch at noise site {gi}: {channel:?} vs \
                             {group:?}"
                        ));
                        return;
                    }
                    let slots = channel_slots(*channel, chunk);
                    for (&(kind, q), id) in slots.iter().zip(&ids[..site.slots()]) {
                        if fired.contains(id) {
                            pauli(kind, q);
                        }
                    }
                }
            }
            Instruction::CorrelatedError { product, .. } => {
                let Some(group) = noise_groups.get(gi) else {
                    err = Some("symbol-table replay misaligned".into());
                    return;
                };
                gi += 1;
                let SymbolGroup::Correlated { id, .. } = group else {
                    err = Some("E/ELSE site not aligned with a Correlated group".into());
                    return;
                };
                if fired.contains(id) {
                    for &(kind, q) in product {
                        pauli(kind, q);
                    }
                }
            }
            ins => out.push(ins.clone()),
        }
    });
    if let Some(err) = err {
        return Err(err);
    }
    if gi != noise_groups.len() {
        return Err(format!(
            "symbol-table replay misaligned: {gi} noise sites vs {} noise groups",
            noise_groups.len()
        ));
    }
    Ok(out)
}

fn group_ids(group: &SymbolGroup) -> Vec<u32> {
    let (site, ids) = group.site();
    ids[..site.slots()].to_vec()
}

/// Translation validation for the optimizer's rewrite passes: proves
/// `rewritten` equivalent to `original` by comparing their symbolic
/// initializations.
///
/// The obligation, phrased over the sparse symbolic matrices:
///
/// * **detector and observable rows** must be identical symbol for
///   symbol (after renumbering for stripped noise groups — and a
///   stripped group's symbols must not appear in any row, or the strip
///   was unsound);
/// * **measurement rows** must be identical after dropping stripped
///   symbols and toggling the constant term (`s₀`, id 0) at exactly the
///   records in `flips`;
/// * the **symbol group sequences** must align one-to-one (same channel
///   kinds, same coin positions) once stripped groups are skipped —
///   which also proves that no pass changed any measurement's
///   determinism.
///
/// Oversized circuits are clamped (both sides, identically) via the
/// [`crate::symbolic`] trip-count clamp before replay; `flips` are
/// structural [`FlipSite`]s, so they survive clamping. Returns whether
/// clamping was applied.
///
/// # Errors
///
/// Returns a human-readable description of the first failed obligation —
/// the driver treats any error as "roll the rewrite back".
pub fn rewrite_equiv_check(
    original: &Circuit,
    rewritten: &Circuit,
    flips: &[FlipSite],
    removed_noise_paths: &HashSet<Vec<usize>>,
) -> Result<bool, String> {
    let clamped = symbolic::work(original) > symbolic::MAX_SYMBOLIC_WORK
        || symbolic::work(rewritten) > symbolic::MAX_SYMBOLIC_WORK;
    let (orig_c, rew_c);
    let (orig, rew): (&Circuit, &Circuit) = if clamped {
        orig_c = symbolic::clamp_circuit(original)
            .ok_or("cannot clamp the original circuit for replay (after-loop lookback)")?;
        rew_c = symbolic::clamp_circuit(rewritten)
            .ok_or("cannot clamp the rewritten circuit for replay (after-loop lookback)")?;
        if symbolic::work(&orig_c) > symbolic::MAX_SYMBOLIC_WORK
            || symbolic::work(&rew_c) > symbolic::MAX_SYMBOLIC_WORK
        {
            return Err("circuit too large to translation-validate even after clamping".into());
        }
        (&orig_c, &rew_c)
    } else {
        (original, rewritten)
    };

    let a = SymPhaseSampler::new(orig);
    let b = SymPhaseSampler::new(rew);
    if a.num_measurements() != b.num_measurements() {
        return Err(format!(
            "rewrite changed the measurement count: {} -> {}",
            a.num_measurements(),
            b.num_measurements()
        ));
    }
    if a.num_detectors() != b.num_detectors() || a.num_observables() != b.num_observables() {
        return Err("rewrite changed the detector/observable count".into());
    }

    let map = symbol_map(
        orig,
        a.symbol_table(),
        b.symbol_table(),
        removed_noise_paths,
    )?;
    let flip_rows: HashSet<usize> = absolute_flips(orig, flips)?.into_iter().collect();

    compare_remapped(
        "measurement",
        a.measurement_matrix(),
        b.measurement_matrix(),
        &map,
        true,
        Some(&flip_rows),
    )?;
    compare_remapped(
        "detector",
        a.detector_rows(),
        b.detector_rows(),
        &map,
        false,
        None,
    )?;
    compare_remapped(
        "observable",
        a.observable_rows(),
        b.observable_rows(),
        &map,
        false,
        None,
    )?;
    Ok(clamped)
}

/// Maps original symbol ids to rewritten ones by replaying both symbol
/// tables' allocation orders in lockstep, skipping the groups of noise
/// sites at `removed_paths`. `None` marks a stripped symbol. The map is
/// monotone, so remapping preserves sparse-row index order.
fn symbol_map(
    original: &Circuit,
    orig_table: &SymbolTable,
    rew_table: &SymbolTable,
    removed_paths: &HashSet<Vec<usize>>,
) -> Result<Vec<Option<u32>>, String> {
    // One flag per noise application, flattened execution order —
    // aligned with the non-coin groups of the original table.
    let mut removed_app: Vec<bool> = Vec::new();
    let mut path = Vec::new();
    walk_flat(original.instructions(), &mut path, &mut |path, ins| {
        let applications = match ins {
            Instruction::Noise { channel, targets } => targets.len() / channel.arity(),
            Instruction::CorrelatedError { .. } => 1,
            _ => 0,
        };
        for _ in 0..applications {
            removed_app.push(removed_paths.contains(path));
        }
    });

    let mut map: Vec<Option<u32>> = vec![None; orig_table.assignment_len()];
    // Symbol 0 is the constant term s₀ in both tables.
    if let Some(slot) = map.get_mut(0) {
        *slot = Some(0);
    }
    let mut rew_groups = rew_table.groups();
    let mut app = 0usize;
    for group in orig_table.groups() {
        let removed = if matches!(group, SymbolGroup::Coin { .. }) {
            false
        } else {
            let flag = *removed_app
                .get(app)
                .ok_or("symbol replay misaligned: more noise groups than noise applications")?;
            app += 1;
            flag
        };
        if removed {
            continue;
        }
        let counterpart = rew_groups
            .next()
            .ok_or("rewritten circuit allocates fewer symbol groups than expected")?;
        if discriminant(&group) != discriminant(&counterpart) {
            return Err(format!(
                "symbol group kind changed under rewrite: {group:?} -> {counterpart:?}"
            ));
        }
        let (from, to) = (group_ids(&group), group_ids(&counterpart));
        if from.len() != to.len() {
            return Err("symbol group width changed under rewrite".into());
        }
        for (o, n) in from.into_iter().zip(to) {
            map[o as usize] = Some(n);
        }
    }
    if rew_groups.next().is_some() {
        return Err("rewritten circuit allocates extra symbol groups".into());
    }
    if app != removed_app.len() {
        return Err(format!(
            "symbol replay misaligned: {} noise applications vs {} noise groups",
            removed_app.len(),
            app
        ));
    }
    Ok(map)
}

/// Compares two sparse matrices under the symbol renumbering. With
/// `allow_drop`, stripped (unmapped) symbols vanish from the original
/// side; without it their presence is an error. Rows in `flip_rows` have
/// their constant term (id 0) toggled before comparison.
fn compare_remapped(
    what: &str,
    a: &symphase_bitmat::SparseRowMatrix,
    b: &symphase_bitmat::SparseRowMatrix,
    map: &[Option<u32>],
    allow_drop: bool,
    flip_rows: Option<&HashSet<usize>>,
) -> Result<(), String> {
    if a.rows() != b.rows() {
        return Err(format!(
            "{what} row count changed under rewrite: {} -> {}",
            a.rows(),
            b.rows()
        ));
    }
    for r in 0..a.rows() {
        let mut mapped: Vec<u32> = Vec::with_capacity(a.row(r).indices().len());
        for &id in a.row(r).indices() {
            match map.get(id as usize).copied().flatten() {
                Some(n) => mapped.push(n),
                None if allow_drop => {}
                None => {
                    return Err(format!(
                        "symbol {id} of a stripped noise channel appears in {what} row {r}"
                    ))
                }
            }
        }
        if flip_rows.is_some_and(|rows| rows.contains(&r)) {
            match mapped.iter().position(|&i| i == 0) {
                Some(pos) => {
                    mapped.remove(pos);
                }
                None => mapped.push(0),
            }
        }
        mapped.sort_unstable();
        let mut expected: Vec<u32> = b.row(r).indices().to_vec();
        expected.sort_unstable();
        if mapped != expected {
            return Err(format!(
                "{what} row {r} not equivalent under rewrite: {mapped:?} (remapped original) \
                 vs {expected:?}"
            ));
        }
    }
    Ok(())
}

/// Rebuilds `circuit` without the instructions at `paths` (structural
/// paths as reported in [`crate::Diagnostic::path`]).
///
/// # Errors
///
/// Returns the validation failure if the stripped circuit no longer
/// validates — e.g. removing a chain head would orphan an
/// `ELSE_CORRELATED_ERROR` (dead *gates* can never cause this; the
/// error path exists for arbitrary caller-supplied paths).
pub fn strip_paths(circuit: &Circuit, paths: &HashSet<Vec<usize>>) -> Result<Circuit, String> {
    let mut out = Circuit::new(circuit.num_qubits());
    let mut prefix = Vec::new();
    for ins in strip_block(circuit.instructions(), &mut prefix, paths)? {
        out.try_push(ins)?;
    }
    Ok(out)
}

fn strip_block(
    instrs: &[Instruction],
    prefix: &mut Vec<usize>,
    paths: &HashSet<Vec<usize>>,
) -> Result<Vec<Instruction>, String> {
    let mut kept = Vec::new();
    for (i, ins) in instrs.iter().enumerate() {
        prefix.push(i);
        if !paths.contains(prefix) {
            if let Instruction::Repeat { count, body } = ins {
                let mut new_body = Block::new();
                for inner in strip_block(body.instructions(), prefix, paths)? {
                    new_body.try_push(inner)?;
                }
                kept.push(Instruction::Repeat {
                    count: *count,
                    body: Box::new(new_body),
                });
            } else {
                kept.push(ins.clone());
            }
        }
        prefix.pop();
    }
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_removes_nested_nodes() {
        let circuit = Circuit::parse("H 0\nREPEAT 2 {\n H 0\n M 0\n}\n").unwrap();
        let mut paths = HashSet::new();
        paths.insert(vec![0]);
        paths.insert(vec![1, 0]);
        let stripped = strip_paths(&circuit, &paths).unwrap();
        assert_eq!(
            Circuit::parse("REPEAT 2 {\n M 0\n}\n")
                .unwrap()
                .instructions(),
            stripped.instructions(),
        );
    }

    #[test]
    fn checks_pass_on_flagging_circuits() {
        // Dead gate after the last measurement + dead noise past the
        // last detector reference.
        let text = "X_ERROR(0.1) 0\nM 0\nDETECTOR rec[-1]\nZ_ERROR(0.2) 0\nM 0\nS 0\n";
        let circuit = Circuit::parse(text).unwrap();
        let diags = lint(&circuit);
        assert!(diags.iter().any(|d| d.code == "SP001"), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == "SP002"), "{diags:?}");
        dead_gate_check(&circuit).unwrap();
        dead_noise_check(&circuit).unwrap();
    }
}
