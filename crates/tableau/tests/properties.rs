//! Property tests for the tableau simulator.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use symphase_bitmat::simd;
use symphase_circuit::{apply_action1, apply_action2, Circuit, Gate};
use symphase_core::{DensePhases, SparsePhases, SymbolicPhases};
use symphase_tableau::verify::check_invariants;
use symphase_tableau::{
    reference_sample, Collapse, ConcretePhases, PhaseStore, Tableau, TableauSimulator,
};

#[derive(Clone, Debug)]
enum Op {
    Gate1(usize, usize),
    Gate2(usize, usize, usize),
    Measure(usize),
}

const G1: [Gate; 12] = [
    Gate::X,
    Gate::Y,
    Gate::Z,
    Gate::H,
    Gate::S,
    Gate::SDag,
    Gate::SqrtX,
    Gate::SqrtXDag,
    Gate::SqrtY,
    Gate::SqrtYDag,
    Gate::CXyz,
    Gate::HYz,
];
const G2: [Gate; 4] = [Gate::Cx, Gate::Cy, Gate::Cz, Gate::Swap];

fn ops_strategy(n: usize) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0usize..12, 0..n).prop_map(|(g, q)| Op::Gate1(g, q)),
        (0usize..4, 0..n, 1..n).prop_map(move |(g, a, off)| Op::Gate2(g, a, (a + off) % n)),
        (0..n).prop_map(Op::Measure),
    ];
    proptest::collection::vec(op, 1..80)
}

fn apply_ops(tab: &mut Tableau<ConcretePhases>, ops: &[Op], coin_seed: u64) {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(coin_seed);
    for op in ops {
        match *op {
            Op::Gate1(g, q) => tab.apply_gate(G1[g], &[q as u32]),
            Op::Gate2(g, a, b) => {
                if a != b {
                    tab.apply_gate(G2[g], &[a as u32, b as u32]);
                }
            }
            Op::Measure(q) => match tab.collapse_z(q) {
                Collapse::Random { pivot } => {
                    let coin: bool = rng.random();
                    tab.phases_mut().set_constant_bit(pivot, coin);
                }
                Collapse::Deterministic => tab.accumulate_deterministic(q),
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The group-theoretic tableau invariants survive any operation
    /// sequence.
    #[test]
    fn invariants_always_hold(ops in ops_strategy(7), seed in any::<u64>()) {
        let mut tab: Tableau<ConcretePhases> = Tableau::new(7);
        apply_ops(&mut tab, &ops, seed);
        prop_assert!(check_invariants(&tab).is_ok());
    }

    /// Applying a gate then its inverse restores every generator.
    #[test]
    fn gate_inverse_roundtrip(
        ops in ops_strategy(6),
        seed in any::<u64>(),
        g1 in 0usize..12,
        q in 0usize..6,
    ) {
        let mut tab: Tableau<ConcretePhases> = Tableau::new(6);
        apply_ops(&mut tab, &ops, seed);
        let before: Vec<String> = (0..6).map(|i| tab.stabilizer(i).to_string()).collect();
        let gate = G1[g1];
        tab.apply_gate(gate, &[q as u32]);
        tab.apply_gate(gate.inverse(), &[q as u32]);
        let after: Vec<String> = (0..6).map(|i| tab.stabilizer(i).to_string()).collect();
        prop_assert_eq!(before, after);
    }

    /// Measuring the same qubit twice in a row gives the same outcome, and
    /// the second collapse is always deterministic.
    #[test]
    fn repeated_measurement_is_stable(ops in ops_strategy(5), seed in any::<u64>(), q in 0usize..5) {
        let mut tab: Tableau<ConcretePhases> = Tableau::new(5);
        apply_ops(&mut tab, &ops, seed);
        let first = match tab.collapse_z(q) {
            Collapse::Random { pivot } => {
                tab.phases_mut().set_constant_bit(pivot, true);
                true
            }
            Collapse::Deterministic => {
                tab.accumulate_deterministic(q);
                tab.phases().constant_bit(tab.scratch_row())
            }
        };
        // Second measurement must be deterministic and equal.
        prop_assert_eq!(tab.collapse_z(q), Collapse::Deterministic);
        tab.accumulate_deterministic(q);
        prop_assert_eq!(tab.phases().constant_bit(tab.scratch_row()), first);
    }

    /// The reference sample is reproducible and independent of simulator
    /// RNG state.
    #[test]
    fn reference_sample_is_deterministic(ops in ops_strategy(5)) {
        let mut c = Circuit::new(5);
        for op in &ops {
            match *op {
                Op::Gate1(g, q) => {
                    c.gate(G1[g], &[q as u32]);
                }
                Op::Gate2(g, a, b) => {
                    if a != b {
                        c.gate(G2[g], &[a as u32, b as u32]);
                    }
                }
                Op::Measure(q) => {
                    c.measure(q as u32);
                }
            }
        }
        c.measure_all();
        prop_assert_eq!(reference_sample(&c), reference_sample(&c));
    }

    /// Two simulators with the same seed produce identical records.
    #[test]
    fn seeded_runs_are_reproducible(ops in ops_strategy(5), seed in any::<u64>()) {
        let mut c = Circuit::new(5);
        for op in &ops {
            match *op {
                Op::Gate1(g, q) => {
                    c.gate(G1[g], &[q as u32]);
                }
                Op::Gate2(g, a, b) => {
                    if a != b {
                        c.gate(G2[g], &[a as u32, b as u32]);
                    }
                }
                Op::Measure(q) => {
                    c.measure(q as u32);
                }
            }
        }
        c.measure_all();
        let a = TableauSimulator::new(5, StdRng::seed_from_u64(seed)).run(&c);
        let b = TableauSimulator::new(5, StdRng::seed_from_u64(seed)).run(&c);
        prop_assert_eq!(a, b);
    }
}

// -- measurement sweeps vs the per-row `rowsum` reference --------------

/// A copy of a tableau's X/Z columns and phase store, measured the
/// textbook Aaronson–Gottesman way: one `rowsum` per row, one bit per
/// qubit. The column sweeps must reproduce it exactly.
struct RowTableau<P> {
    n: usize,
    /// `x[q]`: the X column of qubit `q`, rows packed 64 per word.
    x: Vec<Vec<u64>>,
    z: Vec<Vec<u64>>,
    phases: P,
}

/// A-G's `g`: the power of `i` in the product of single-qubit Paulis
/// `(x1, z1) · (x2, z2)`.
fn ag_g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
    let (x2, z2) = (i32::from(x2), i32::from(z2));
    match (x1, z1) {
        (false, false) => 0,
        (true, true) => z2 - x2,
        (true, false) => z2 * (2 * x2 - 1),
        (false, true) => x2 * (1 - 2 * z2),
    }
}

fn bit(col: &[u64], row: usize) -> bool {
    (col[row / 64] >> (row % 64)) & 1 == 1
}

fn set_bit(col: &mut [u64], row: usize, v: bool) {
    col[row / 64] = (col[row / 64] & !(1 << (row % 64))) | (u64::from(v) << (row % 64));
}

impl<P: PhaseStore + Clone> RowTableau<P> {
    fn of(tab: &Tableau<P>) -> Self {
        let n = tab.num_qubits();
        Self {
            n,
            x: (0..n).map(|q| tab.x_col(q).to_vec()).collect(),
            z: (0..n).map(|q| tab.z_col(q).to_vec()).collect(),
            phases: tab.phases().clone(),
        }
    }

    /// Generator `h` := generator `i` · generator `h`.
    fn rowsum(&mut self, h: usize, i: usize) {
        let mut g = 0;
        for q in 0..self.n {
            let (x1, z1) = (bit(&self.x[q], i), bit(&self.z[q], i));
            let (x2, z2) = (bit(&self.x[q], h), bit(&self.z[q], h));
            g += ag_g(x1, z1, x2, z2);
            set_bit(&mut self.x[q], h, x1 ^ x2);
            set_bit(&mut self.z[q], h, z1 ^ z2);
        }
        self.phases.add_row_into(i, h, g.rem_euclid(4) == 2);
    }

    fn copy_row(&mut self, src: usize, dst: usize) {
        for q in 0..self.n {
            let (xv, zv) = (bit(&self.x[q], src), bit(&self.z[q], src));
            set_bit(&mut self.x[q], dst, xv);
            set_bit(&mut self.z[q], dst, zv);
        }
        self.phases.copy_row(src, dst);
    }

    fn clear_row(&mut self, row: usize) {
        for q in 0..self.n {
            set_bit(&mut self.x[q], row, false);
            set_bit(&mut self.z[q], row, false);
        }
        self.phases.clear_row(row);
    }

    fn collapse_z(&mut self, a: usize) -> Collapse {
        let n = self.n;
        let rows: Vec<usize> = (0..2 * n).filter(|&r| bit(&self.x[a], r)).collect();
        let Some(&pivot) = rows.iter().find(|&&r| r >= n) else {
            return Collapse::Deterministic;
        };
        for &r in rows.iter().filter(|&&r| r != pivot) {
            self.rowsum(r, pivot);
        }
        self.copy_row(pivot, pivot - n);
        self.clear_row(pivot);
        set_bit(&mut self.z[a], pivot, true);
        Collapse::Random { pivot }
    }

    fn accumulate_deterministic(&mut self, a: usize) {
        let (n, scratch) = (self.n, 2 * self.n);
        self.clear_row(scratch);
        for r in 0..n {
            if bit(&self.x[a], r) {
                self.rowsum(scratch, r + n);
            }
        }
    }
}

/// The phase stores under test: how to attach a symbol and how to compare
/// two stores row by row.
trait SweepStore: PhaseStore + Clone {
    /// Prepares a fresh store the way its user does.
    fn prepare(&mut self, tracking_floor: usize, reserve: usize);
    /// Attaches symbol `sym` to the rows of `mask` in word `w`.
    fn attach(&mut self, sym: u32, w: usize, mask: u64);
    /// Describes the first row where the stores differ.
    fn diff(&self, other: &Self, tracking_floor: usize) -> Option<String>;
}

impl SweepStore for ConcretePhases {
    fn prepare(&mut self, _: usize, _: usize) {}

    fn attach(&mut self, _: u32, w: usize, mask: u64) {
        self.xor_constant_word(w, mask);
    }

    fn diff(&self, other: &Self, _: usize) -> Option<String> {
        (self != other).then(|| format!("{:?} != {:?}", self.bits(), other.bits()))
    }
}

fn symbolic_diff<S: SymbolicPhases>(a: &S, b: &S, tracking_floor: usize) -> Option<String> {
    (0..a.rows()).find_map(|r| {
        let (ea, eb) = (a.row_expr(r), b.row_expr(r));
        let same = if r < tracking_floor {
            a.constant_bit(r) == b.constant_bit(r)
        } else {
            ea == eb
        };
        (!same).then(|| format!("row {r}: {ea} != {eb}"))
    })
}

macro_rules! symbolic_sweep_store {
    ($store:ty) => {
        impl SweepStore for $store {
            fn prepare(&mut self, tracking_floor: usize, reserve: usize) {
                self.set_symbol_tracking_floor(tracking_floor);
                self.reserve_symbols(reserve);
            }

            fn attach(&mut self, sym: u32, w: usize, mask: u64) {
                self.ensure_symbol_capacity(sym);
                self.xor_symbol_word(sym, w, mask);
            }

            fn diff(&self, other: &Self, tracking_floor: usize) -> Option<String> {
                symbolic_diff(self, other, tracking_floor)
            }
        }
    };
}
symbolic_sweep_store!(SparsePhases);
symbolic_sweep_store!(DensePhases);

/// Qubit counts whose 2n + 1 rows straddle word boundaries, with the
/// scratch row at the start, middle and end of a partial word. From
/// n = 255 on, a column fills a 512-bit vector and leaves a masked tail.
const SWEEP_NS: [usize; 12] = [1, 2, 31, 32, 33, 63, 64, 65, 127, 255, 256, 257];

/// Measures qubit `q` through the sweeps and through the per-row
/// reference from the same starting tableau, and requires identical bits
/// and phases afterwards. A random outcome gets a fresh symbol (or coin)
/// on its pivot, as Init-M does.
fn measure_both<P: SweepStore>(
    tab: &mut Tableau<P>,
    q: usize,
    floor: usize,
    next_sym: &mut u32,
) -> Result<(), String> {
    let mut reference = RowTableau::of(tab);
    let got = tab.collapse_z(q);
    let want = reference.collapse_z(q);
    if got != want {
        return Err(format!("collapse {got:?} != {want:?}"));
    }
    match got {
        Collapse::Random { pivot } => {
            tab.phases_mut()
                .attach(*next_sym, pivot / 64, 1 << (pivot % 64));
            reference
                .phases
                .attach(*next_sym, pivot / 64, 1 << (pivot % 64));
            *next_sym += 1;
        }
        Collapse::Deterministic => {
            tab.accumulate_deterministic(q);
            reference.accumulate_deterministic(q);
        }
    }
    if let Some(p) = (0..tab.num_qubits())
        .find(|&p| tab.x_col(p) != reference.x[p] || tab.z_col(p) != reference.z[p])
    {
        return Err(format!("X/Z column of qubit {p}"));
    }
    match tab.phases().diff(&reference.phases, floor) {
        Some(d) => Err(format!("phases {d}")),
        None => Ok(()),
    }
}

/// Random rounds on `n` qubits: a block of Clifford gates with symbolic
/// faults, a few measurements, the block's inverse, more measurements.
/// Undoing the block after mid-block collapses leaves many qubits
/// determined by products of several stabilizers, so the deterministic
/// sweep sees long factor lists. Each round ends with gadgets whose
/// deterministic product needs the `Σg ≡ 2` phase correction, which
/// random rounds alone almost never reach.
fn check_sweeps<P: SweepStore>(n: usize, seed: u64) -> Result<(), String> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
    let mut tab: Tableau<P> = Tableau::new(n);
    let floor = if rng.random() { n } else { 0 };
    tab.phases_mut().prepare(floor, rng.random_range(0..4 * n));
    let mut next_sym = 1u32;
    for round in 0..3 {
        let mut block: Vec<(Gate, Vec<u32>)> = Vec::new();
        for _ in 0..2 * n + 4 {
            let q = rng.random_range(0..n);
            if n > 1 && rng.random() {
                let b = (q + rng.random_range(1..n)) % n;
                block.push((G2[rng.random_range(0..4usize)], vec![q as u32, b as u32]));
            } else {
                block.push((G1[rng.random_range(0..12usize)], vec![q as u32]));
            }
            let (gate, targets) = block.last().expect("just pushed");
            tab.apply_gate(*gate, targets);
            if rng.random_range(0..8) == 0 {
                // A symbolic X or Z fault on `q`: the rows anticommuting
                // with it pick up a fresh symbol (paper Init-P).
                let col = if rng.random() {
                    tab.z_col(q)
                } else {
                    tab.x_col(q)
                }
                .to_vec();
                for (w, &m) in col.iter().enumerate() {
                    tab.phases_mut().attach(next_sym, w, m);
                }
                next_sym += 1;
            }
        }
        for _ in 0..n / 8 + 1 {
            let q = rng.random_range(0..n);
            measure_both(&mut tab, q, floor, &mut next_sym)
                .map_err(|e| format!("round {round}, mid-block measurement of {q}: {e}"))?;
        }
        for (gate, targets) in block.iter().rev() {
            tab.apply_gate(gate.inverse(), targets);
        }
        for _ in 0..n / 4 + 1 {
            let q = rng.random_range(0..n);
            measure_both(&mut tab, q, floor, &mut next_sym)
                .map_err(|e| format!("round {round}, measurement of {q}: {e}"))?;
        }
        if n < 3 {
            continue;
        }
        for _ in 0..n / 8 + 1 {
            // From |0⟩ on `a`, `c`, `d` this leaves stabilizers
            // {−Z_a Y_c Y_d, X_c X_d, Z_c Z_d}, whose product is Z_a with
            // one phase correction (X·Y twice gives Σg = 2).
            let a = rng.random_range(0..n);
            let c = (a + rng.random_range(1..n)) % n;
            let d = (c + rng.random_range(1..n - 1)) % n;
            let d = if d == a { (d + 1) % n } else { d };
            let (a, c, d) = (a as u32, c as u32, d as u32);
            tab.apply_gate(Gate::Cx, &[c, a, d, a]);
            tab.apply_gate(Gate::H, &[c]);
            tab.apply_gate(Gate::Cx, &[c, d]);
            for q in [a, c, d] {
                measure_both(&mut tab, q as usize, floor, &mut next_sym)
                    .map_err(|e| format!("round {round}, gadget measurement of {q}: {e}"))?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `collapse_z` and `accumulate_deterministic` sweep the columns
    /// word-parallel, yet leave the X/Z bits, the constant phases and
    /// every symbolic `row_expr` exactly as one bit-serial `rowsum` per
    /// row does — for the concrete, sparse and dense stores.
    #[test]
    fn sweeps_match_rowsum_reference(seed in any::<u64>()) {
        for level in simd::available_levels() {
            simd::with_level(level, || -> Result<(), TestCaseError> {
                for n in SWEEP_NS {
                    prop_assert_eq!(check_sweeps::<ConcretePhases>(n, seed), Ok(()), "concrete, n = {}", n);
                    prop_assert_eq!(check_sweeps::<SparsePhases>(n, seed), Ok(()), "sparse, n = {}", n);
                    prop_assert_eq!(check_sweeps::<DensePhases>(n, seed), Ok(()), "dense, n = {}", n);
                }
                Ok(())
            })?;
        }
    }
}

// -- gate kernel vs the shared dispatch table ---------------------------

/// Every gate, through `Tableau::apply_gate`'s column kernel at every SIMD
/// level, leaves the X/Z columns and constant phases exactly as the word
/// loops `apply_action1` / `apply_action2` do, on columns of 1 to 17
/// words. Targets revisit qubits, so applications must run in order.
#[test]
fn gate_kernel_matches_apply_action_at_every_level() {
    use rand::Rng;
    for words in 1..=17usize {
        let mut rng = StdRng::seed_from_u64(words as u64);
        // 2n + 1 rows in exactly `words` words.
        let n = 32 * words - 1;
        let mut tab: Tableau<ConcretePhases> = Tableau::new(n);
        for _ in 0..4 * n {
            let q = rng.random_range(0..n) as u32;
            let b = (q + rng.random_range(1..n as u32)) % n as u32;
            match rng.random_range(0..3) {
                0 => tab.apply_gate(G1[rng.random_range(0..12usize)], &[q]),
                1 => tab.apply_gate(G2[rng.random_range(0..4usize)], &[q, b]),
                _ => {
                    if let Collapse::Random { pivot } = tab.collapse_z(q as usize) {
                        tab.phases_mut().set_constant_bit(pivot, rng.random());
                    }
                }
            }
        }
        assert_eq!(tab.words_per_col(), words);
        for gate in Gate::ALL {
            let (a, b, c) = (0u32, (n / 2) as u32, (n - 1) as u32);
            let targets: Vec<u32> = if gate.arity() == 1 {
                vec![a, b, a, c]
            } else {
                vec![a, b, b, c, c, a]
            };
            let mut x: Vec<Vec<u64>> = (0..n).map(|q| tab.x_col(q).to_vec()).collect();
            let mut z: Vec<Vec<u64>> = (0..n).map(|q| tab.z_col(q).to_vec()).collect();
            let mut signs = tab.phases().bits().words().to_vec();
            let mut flip = |w: usize, m: u64| signs[w] ^= m;
            if gate.arity() == 1 {
                for &q in &targets {
                    let q = q as usize;
                    apply_action1(gate.xz_action1(), &mut x[q], &mut z[q], &mut flip);
                }
            } else {
                for pair in targets.chunks_exact(2) {
                    let (p, q) = (pair[0] as usize, pair[1] as usize);
                    let (mut xp, mut zp) = (x[p].clone(), z[p].clone());
                    let (xq, zq) = (&mut x[q], &mut z[q]);
                    apply_action2(gate.xz_action2(), &mut xp, &mut zp, xq, zq, &mut flip);
                    x[p] = xp;
                    z[p] = zp;
                }
            }
            for level in simd::available_levels() {
                let mut got = tab.clone();
                simd::with_level(level, || got.apply_gate(gate, &targets));
                for q in 0..n {
                    assert_eq!(
                        got.x_col(q),
                        x[q],
                        "{gate} {} words {words}: X of {q}",
                        level.name()
                    );
                    assert_eq!(
                        got.z_col(q),
                        z[q],
                        "{gate} {} words {words}: Z of {q}",
                        level.name()
                    );
                }
                assert_eq!(
                    got.phases().bits().words(),
                    signs,
                    "{gate} {} words {words}: signs",
                    level.name()
                );
            }
        }
    }
}
