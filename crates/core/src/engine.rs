//! The Initialization procedure of Algorithm 1: one symbolic traversal.
//!
//! Walks the circuit once through the shared lowering
//! (`symphase_backend::exec::walk`), applying Init-C (Clifford gates
//! through the shared tableau), Init-P (faults as symbol-coefficient
//! flips), and Init-M (measurements: random outcomes become fresh coins +
//! `X^s`, determined outcomes are read off the scratch row). Resets and
//! feedback reuse the `X^e` mechanism of paper §6.

use symphase_backend::exec::{self, Walker};
use symphase_backend::noise::NoiseSite;
use symphase_circuit::{Circuit, Gate, PauliKind};
use symphase_tableau::{Collapse, Tableau};

use crate::expr::SymExpr;
use crate::phases::{group_bound, symbol_bound, SymbolicPhases};
use crate::symbol::{SymbolId, SymbolTable};

/// Everything the Initialization produces: symbol distributions and the
/// symbolic expression of each measurement outcome.
#[derive(Clone, Debug)]
pub(crate) struct InitResult {
    pub table: SymbolTable,
    pub measurements: Vec<SymExpr>,
    /// Per record: whether the collapse drew a fresh coin (random
    /// outcome) rather than reading a determined stabilizer phase.
    /// Resets also collapse, but record nothing and so appear nowhere
    /// here.
    pub random_records: Vec<bool>,
}

/// Runs Initialization with the chosen symbolic phase store.
///
/// The circuit is lowered through [`exec::walk`], which streams `REPEAT`
/// blocks without ever materializing them: a `REPEAT 1000000 { … }`
/// round costs O(body) memory on top of the tableau and the
/// per-measurement expressions. Record lookbacks (feedback) resolve
/// against the record built so far, which inside a repeat body means the
/// previous iteration when the lookback reaches past the current one.
pub(crate) fn initialize<S: SymbolicPhases>(circuit: &Circuit) -> InitResult {
    let n = circuit.num_qubits() as usize;
    let mut tab: Tableau<S> = Tableau::new(n);
    // Destabilizer phases never influence outcomes — skip their symbol
    // bookkeeping (see `SymbolicPhases::set_symbol_tracking_floor`).
    tab.phases_mut().set_symbol_tracking_floor(n);
    let stats = circuit.stats();
    if let Some(bound) = symbol_bound(&stats) {
        tab.phases_mut().reserve_symbols(bound);
    }
    let mut init = Init {
        // One shared fault-mask scratch row for the whole traversal: every
        // path that conjugates a (symbolic or expression-controlled) Pauli
        // — noise, the reset half of R/MR, and feedback — reuses it.
        mask: vec![0u64; tab.words_per_col()],
        tab,
        // Sized once: growing it by doubling churns large allocations.
        table: SymbolTable::with_capacity(group_bound(&stats).unwrap_or(0)),
        measurements: Vec::with_capacity(circuit.num_measurements()),
        random_records: Vec::with_capacity(circuit.num_measurements()),
    };
    exec::walk(circuit, &mut init);
    InitResult {
        table: init.table,
        measurements: init.measurements,
        random_records: init.random_records,
    }
}

/// Initialization's [`Walker`]: Init-C applies gates to the symbolic
/// tableau, Init-P turns each noise slot into a fresh symbol's fault,
/// Init-M collapses measurements, and resets and feedback apply the
/// `X^e` correction of paper §6.
struct Init<S: SymbolicPhases> {
    tab: Tableau<S>,
    table: SymbolTable,
    mask: Vec<u64>,
    measurements: Vec<SymExpr>,
    random_records: Vec<bool>,
}

impl<S: SymbolicPhases> Walker for Init<S> {
    fn apply_gate(&mut self, gate: Gate, targets: &[u32]) {
        self.tab.apply_gate(gate, targets);
    }

    fn measure_z(&mut self, q: u32, record: Option<usize>, reset: bool) {
        let q = q as usize;
        let (e, random) = measure_symbolic(&mut self.tab, &mut self.table, q);
        if reset {
            // Inside the walk's basis conjugation, `X^e` forces the `+1`
            // eigenstate.
            apply_expr_fault(&mut self.tab, &mut self.mask, PauliKind::X, q, &e);
        }
        if record.is_some() {
            self.measurements.push(e);
            self.random_records.push(random);
        }
    }

    fn noise(&mut self, site: &NoiseSite, slots: [&[(PauliKind, u32)]; 4]) {
        // One fresh symbol per slot. A correlated product shares its one
        // symbol across every factor, so it fires atomically (the
        // per-Pauli injection of Table 1 lifted to multi-qubit channels).
        let ids = self.table.fresh_site(*site);
        for (&s, slot) in ids.iter().zip(slots) {
            for &(kind, q) in slot {
                apply_symbol_fault(&mut self.tab, &mut self.mask, kind, q as usize, s);
            }
        }
    }

    fn feedback(&mut self, pauli: PauliKind, target: u32, record: usize) {
        let e = &self.measurements[record];
        apply_expr_fault(&mut self.tab, &mut self.mask, pauli, target as usize, e);
    }
}

/// Fills `mask` with the rows whose phase flips under a `kind` fault on
/// qubit `q`: rows anticommuting with the fault Pauli.
fn fault_mask<S: SymbolicPhases>(tab: &Tableau<S>, kind: PauliKind, q: usize, mask: &mut [u64]) {
    let (x_col, z_col) = (tab.x_col(q), tab.z_col(q));
    match kind {
        PauliKind::X => mask.copy_from_slice(z_col),
        PauliKind::Z => mask.copy_from_slice(x_col),
        PauliKind::Y => {
            for (m, (x, z)) in mask.iter_mut().zip(x_col.iter().zip(z_col)) {
                *m = x ^ z;
            }
        }
    }
}

/// Applies the symbolic fault `kind^s` on qubit `q` (paper Init-P / Fact 1).
fn apply_symbol_fault<S: SymbolicPhases>(
    tab: &mut Tableau<S>,
    mask: &mut [u64],
    kind: PauliKind,
    q: usize,
    sym: SymbolId,
) {
    fault_mask(tab, kind, q, mask);
    let phases = tab.phases_mut();
    phases.ensure_symbol_capacity(sym);
    phases.xor_symbol_column(sym, mask);
}

/// Applies a classically-controlled Pauli `kind^e` on qubit `q` (paper §6).
fn apply_expr_fault<S: SymbolicPhases>(
    tab: &mut Tableau<S>,
    mask: &mut [u64],
    kind: PauliKind,
    q: usize,
    expr: &SymExpr,
) {
    if expr.is_zero() {
        return;
    }
    fault_mask(tab, kind, q, mask);
    let phases = tab.phases_mut();
    if let Some(&max) = expr.symbol_ids().last() {
        phases.ensure_symbol_capacity(max);
    }
    for (w, &m) in mask.iter().enumerate() {
        if m != 0 {
            phases.xor_expr_word(expr, w, m);
        }
    }
}

/// Init-M: symbolic Z-basis measurement of qubit `q`.
///
/// Random case: the symbolic analogue of A-G's `r_p := coin` — a fresh fair
/// coin `s` becomes the phase of the new stabilizer `Z_q` and is recorded as
/// the outcome. (The paper's prose describes this as "fix the outcome to 0
/// and apply `X^s` at the measured qubit", but a conjugating `X^s` would
/// also flip every *other* generator containing `Z_q`, breaking
/// measurement correlations; the paper's own §3.1 tableau shows the coin
/// entering only the new stabilizer row, which is what we do.)
fn measure_symbolic<S: SymbolicPhases>(
    tab: &mut Tableau<S>,
    table: &mut SymbolTable,
    q: usize,
) -> (SymExpr, bool) {
    match tab.collapse_z(q) {
        Collapse::Random { pivot } => {
            let s = table.fresh_coin();
            let phases = tab.phases_mut();
            phases.ensure_symbol_capacity(s);
            let (w, b) = (pivot / 64, pivot % 64);
            phases.xor_symbol_word(s, w, 1u64 << b);
            (SymExpr::symbol(s), true)
        }
        Collapse::Deterministic => {
            tab.accumulate_deterministic(q);
            (tab.phases().row_expr(tab.scratch_row()), false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::{DensePhases, SparsePhases};
    use symphase_circuit::{Circuit, NoiseChannel};

    fn exprs<S: SymbolicPhases>(c: &Circuit) -> Vec<String> {
        initialize::<S>(c)
            .measurements
            .iter()
            .map(|e| e.to_string())
            .collect()
    }

    /// The worked example of paper §3.1: H; CX; X^s1; X^s2; M; M.
    #[test]
    fn sec_3_1_worked_example() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c.noise(NoiseChannel::XError(0.1), &[0]); // s1
        c.noise(NoiseChannel::XError(0.1), &[1]); // s2
        c.measure(0);
        c.measure(1);
        for result in [exprs::<SparsePhases>(&c), exprs::<DensePhases>(&c)] {
            assert_eq!(result, vec!["s3".to_string(), "s1 ⊕ s2 ⊕ s3".to_string()]);
        }
    }

    /// The overview example of paper Fig. 1: GHZ preparation, faults
    /// Z^s1 X^s2 X^s3 X^s4, un-preparation, measure all. Expected outcomes
    /// m1 = s1, m2 = s2, m3 = s2⊕s3, m4 = s3⊕s4.
    #[test]
    fn fig_1_worked_example() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        c.noise(NoiseChannel::ZError(0.1), &[0]); // s1
        c.noise(NoiseChannel::XError(0.1), &[1]); // s2
        c.noise(NoiseChannel::XError(0.1), &[2]); // s3
        c.noise(NoiseChannel::XError(0.1), &[3]); // s4
        c.cx(2, 3).cx(1, 2).cx(0, 1).h(0);
        c.measure_all();
        for result in [exprs::<SparsePhases>(&c), exprs::<DensePhases>(&c)] {
            assert_eq!(
                result,
                vec![
                    "s1".to_string(),
                    "s2".to_string(),
                    "s2 ⊕ s3".to_string(),
                    "s3 ⊕ s4".to_string(),
                ]
            );
        }
    }

    #[test]
    fn deterministic_one_has_constant_term() {
        let mut c = Circuit::new(1);
        c.x(0);
        c.measure(0);
        assert_eq!(exprs::<SparsePhases>(&c), vec!["1".to_string()]);
    }

    #[test]
    fn bell_pair_shares_one_coin() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c.measure_all();
        let r = initialize::<SparsePhases>(&c);
        assert_eq!(r.measurements[0], r.measurements[1]);
        assert_eq!(r.table.num_coins(), 1);
    }

    #[test]
    fn repeated_measurement_reuses_coin() {
        let mut c = Circuit::new(1);
        c.h(0);
        c.measure(0);
        c.measure(0);
        let r = initialize::<SparsePhases>(&c);
        assert_eq!(r.measurements[0], r.measurements[1]);
        assert_eq!(r.table.num_coins(), 1);
    }

    #[test]
    fn reset_after_x_error_discards_fault() {
        let mut c = Circuit::new(1);
        c.noise(NoiseChannel::XError(0.5), &[0]);
        c.reset(0);
        c.measure(0);
        let r = initialize::<SparsePhases>(&c);
        assert!(
            r.measurements[0].is_zero(),
            "reset must clear the fault symbol"
        );
    }

    #[test]
    fn measure_reset_records_fault_then_clears() {
        let mut c = Circuit::new(1);
        c.noise(NoiseChannel::XError(0.5), &[0]); // s1
        c.measure_reset(0);
        c.measure(0);
        let r = initialize::<SparsePhases>(&c);
        assert_eq!(r.measurements[0].to_string(), "s1");
        assert!(r.measurements[1].is_zero());
    }

    #[test]
    fn feedback_cancels_dependency() {
        // m0 = s1; feedback X^{m0} on qubit 1 that also carries X^{s1}:
        // measuring qubit 1 then gives s1 ⊕ s1 = 0.
        let mut c = Circuit::new(2);
        c.noise(NoiseChannel::XError(0.5), &[0]); // s1
        c.cx(0, 1); // copy the fault onto qubit 1
        c.measure(0);
        c.feedback(PauliKind::X, -1, 1);
        c.measure(1);
        let r = initialize::<SparsePhases>(&c);
        assert_eq!(r.measurements[0].to_string(), "s1");
        assert!(r.measurements[1].is_zero());
    }

    #[test]
    fn depolarize1_contributes_x_and_z_symbols() {
        let mut c = Circuit::new(1);
        c.h(0); // sensitize to Z faults
        c.noise(NoiseChannel::Depolarize1(0.1), &[0]); // s1 (X), s2 (Z)
        c.h(0);
        c.measure(0);
        let r = initialize::<SparsePhases>(&c);
        // In the X basis only the Z component flips the outcome.
        assert_eq!(r.measurements[0].to_string(), "s2");
    }

    #[test]
    fn z_error_invisible_in_z_basis() {
        let mut c = Circuit::new(1);
        c.noise(NoiseChannel::ZError(0.9), &[0]);
        c.measure(0);
        let r = initialize::<SparsePhases>(&c);
        assert!(r.measurements[0].is_zero());
    }

    #[test]
    fn y_error_flips_z_measurement() {
        let mut c = Circuit::new(1);
        c.noise(NoiseChannel::YError(0.5), &[0]);
        c.measure(0);
        let r = initialize::<SparsePhases>(&c);
        assert_eq!(r.measurements[0].to_string(), "s1");
    }

    #[test]
    fn mx_after_h_is_deterministic() {
        // H|0⟩ = |+⟩: MX is deterministic 0, and an X error is invisible
        // while a Z error flips it — the X-basis dual of the Z-basis laws.
        let mut c = Circuit::new(1);
        c.h(0);
        c.noise(NoiseChannel::XError(0.5), &[0]); // s1: invisible to MX
        c.noise(NoiseChannel::ZError(0.5), &[0]); // s2: flips MX
        c.measure_in(PauliKind::X, 0);
        let r = initialize::<SparsePhases>(&c);
        assert_eq!(r.measurements[0].to_string(), "s2");
        assert_eq!(r.table.num_coins(), 0);
    }

    #[test]
    fn rx_reset_discards_z_faults() {
        let mut c = Circuit::new(1);
        c.noise(NoiseChannel::ZError(0.5), &[0]);
        c.reset_in(PauliKind::X, 0);
        c.measure_in(PauliKind::X, 0);
        let r = initialize::<SparsePhases>(&c);
        assert!(r.measurements[0].is_zero(), "RX must clear phase faults");
    }

    #[test]
    fn mpp_on_bell_pair_is_deterministic() {
        // Bell state: X⊗X and Z⊗Z are +1 stabilizers, Y⊗Y is −1; none of
        // the products consumes a coin, and repeated MPPs agree.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c.measure_pauli_products(&[
            &[(PauliKind::X, 0), (PauliKind::X, 1)],
            &[(PauliKind::Z, 0), (PauliKind::Z, 1)],
            &[(PauliKind::Y, 0), (PauliKind::Y, 1)],
        ]);
        let r = initialize::<SparsePhases>(&c);
        assert!(r.measurements[0].is_zero());
        assert!(r.measurements[1].is_zero());
        assert_eq!(r.measurements[2].to_string(), "1"); // YY = −1 → outcome 1
        assert_eq!(r.table.num_coins(), 0);
    }

    #[test]
    fn mpp_measurement_is_projective_not_destructive() {
        // Measuring X⊗X on |00⟩ is random (one coin); measuring it again
        // reuses the same coin, and Z⊗Z stays deterministic throughout.
        let mut c = Circuit::new(2);
        c.measure_pauli_product(&[(PauliKind::X, 0), (PauliKind::X, 1)]);
        c.measure_pauli_product(&[(PauliKind::X, 0), (PauliKind::X, 1)]);
        c.measure_pauli_product(&[(PauliKind::Z, 0), (PauliKind::Z, 1)]);
        let r = initialize::<SparsePhases>(&c);
        assert_eq!(r.measurements[0], r.measurements[1]);
        assert_eq!(r.table.num_coins(), 1);
        assert!(r.measurements[2].is_zero());
    }

    #[test]
    fn correlated_error_shares_one_symbol_across_the_product() {
        // E(p) X0 X1: both qubits flip together, so m0 ⊕ m1 cancels the
        // shared symbol while each outcome alone carries it.
        let mut c = Circuit::new(2);
        c.correlated_error(0.5, &[(PauliKind::X, 0), (PauliKind::X, 1)]);
        c.measure_all();
        let r = initialize::<SparsePhases>(&c);
        assert_eq!(r.measurements[0].to_string(), "s1");
        assert_eq!(r.measurements[1].to_string(), "s1");
        assert_eq!(r.table.num_symbols(), 1);
    }

    #[test]
    fn teleportation_verification_is_symbolically_zero() {
        let c = symphase_circuit::generators::teleportation();
        let r = initialize::<SparsePhases>(&c);
        assert!(
            r.measurements[2].is_zero(),
            "teleportation check must be 0, got {}",
            r.measurements[2]
        );
    }
}
