//! The destabilizer/stabilizer tableau with column-major X/Z storage.

use symphase_bitmat::simd::{self, ColumnAction};
use symphase_bitmat::{BitVec, WORD_BITS};
use symphase_circuit::{Gate, XZAction1, XZAction2};

use crate::pauli::PauliString;
use crate::phases::{mask_words, PhaseStore};

/// Result of collapsing a qubit for a Z-basis measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Collapse {
    /// The outcome is random; the stabilizer at `pivot` has been replaced by
    /// `+Z_a` (outcome fixed to 0) and the caller decides the actual
    /// outcome: a coin flip for concrete simulation, a fresh symbol plus
    /// `X^s` for phase symbolization (paper Init-M).
    Random {
        /// Stabilizer row index (`n ≤ pivot < 2n`) that anticommuted with
        /// `Z_a`.
        pivot: usize,
    },
    /// The outcome is determined by the current generators; call
    /// [`Tableau::accumulate_deterministic`] and read the scratch-row phase.
    Deterministic,
}

/// The 2n×(2n+1) Aaronson–Gottesman tableau (plus one scratch row), generic
/// over the phase representation.
///
/// * Rows `0..n` hold destabilizer generators, rows `n..2n` stabilizer
///   generators, row `2n` is scratch space for deterministic measurements.
/// * X and Z bits are stored **column-major by qubit**: the bits of qubit
///   `q` across all rows form a contiguous word slice, so Clifford gates
///   and measurement sweeps run over whole columns at vector width (paper
///   Fact 1 turns into word XORs on the phase store's constant terms).
///
/// # Example
///
/// ```
/// use symphase_tableau::{ConcretePhases, Tableau};
/// use symphase_circuit::Gate;
///
/// let mut t: Tableau<ConcretePhases> = Tableau::new(2);
/// t.apply_gate(Gate::H, &[0]);
/// t.apply_gate(Gate::Cx, &[0, 1]);
/// assert_eq!(t.stabilizer(0).to_string(), "+XX");
/// assert_eq!(t.stabilizer(1).to_string(), "+ZZ");
/// ```
#[derive(Clone, Debug)]
pub struct Tableau<P: PhaseStore> {
    n: usize,
    rows: usize,
    wpc: usize,
    /// `x[q * wpc + w]`: X bits of qubit `q`, rows packed 64 per word.
    x: Vec<u64>,
    /// `z[q * wpc + w]`: Z bits of qubit `q`.
    z: Vec<u64>,
    phases: P,
    /// Three `wpc`-word buffers the measurement sweeps reuse: a row mask
    /// and the low/high bit-slices of the per-row mod-4 phase counters.
    sweep: Vec<u64>,
}

impl<P: PhaseStore> Tableau<P> {
    /// Creates the tableau of `|0…0⟩`: destabilizers `X_i`, stabilizers
    /// `Z_i`, all phases `+1`.
    pub fn new(n: usize) -> Self {
        let rows = 2 * n + 1;
        let wpc = mask_words(rows);
        let mut t = Self {
            n,
            rows,
            wpc,
            x: vec![0; n * wpc],
            z: vec![0; n * wpc],
            phases: P::with_rows(rows),
            sweep: vec![0; 3 * wpc],
        };
        for i in 0..n {
            t.set_x_bit(i, i, true); // destabilizer i = X_i
            t.set_z_bit(n + i, i, true); // stabilizer i = Z_i
        }
        t
    }

    /// Bytes of X and Z bits [`Self::new`] allocates for `n` qubits: two
    /// blocks of `n` columns, each `⌈(2n+1)/64⌉` words.
    pub fn xz_bytes(n: usize) -> usize {
        2 * n * mask_words(2 * n + 1) * std::mem::size_of::<u64>()
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of rows (2n + 1, including the scratch row).
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Words per column.
    pub fn words_per_col(&self) -> usize {
        self.wpc
    }

    /// Index of the scratch row.
    pub fn scratch_row(&self) -> usize {
        2 * self.n
    }

    /// Borrow of the phase store.
    pub fn phases(&self) -> &P {
        &self.phases
    }

    /// Mutable borrow of the phase store (used by the symbolic engine to
    /// attach symbols).
    pub fn phases_mut(&mut self) -> &mut P {
        &mut self.phases
    }

    /// The packed X column of qubit `q` (bit `r` of word `r/64` is row `r`).
    pub fn x_col(&self, q: usize) -> &[u64] {
        &self.x[q * self.wpc..(q + 1) * self.wpc]
    }

    /// The packed Z column of qubit `q`.
    pub fn z_col(&self, q: usize) -> &[u64] {
        &self.z[q * self.wpc..(q + 1) * self.wpc]
    }

    /// Reads the X bit at (`row`, qubit `q`).
    #[inline]
    pub fn x_bit(&self, row: usize, q: usize) -> bool {
        (self.x[q * self.wpc + row / WORD_BITS] >> (row % WORD_BITS)) & 1 == 1
    }

    /// Reads the Z bit at (`row`, qubit `q`).
    #[inline]
    pub fn z_bit(&self, row: usize, q: usize) -> bool {
        (self.z[q * self.wpc + row / WORD_BITS] >> (row % WORD_BITS)) & 1 == 1
    }

    #[inline]
    fn set_x_bit(&mut self, row: usize, q: usize, v: bool) {
        let w = &mut self.x[q * self.wpc + row / WORD_BITS];
        if v {
            *w |= 1 << (row % WORD_BITS);
        } else {
            *w &= !(1 << (row % WORD_BITS));
        }
    }

    #[inline]
    fn set_z_bit(&mut self, row: usize, q: usize, v: bool) {
        let w = &mut self.z[q * self.wpc + row / WORD_BITS];
        if v {
            *w |= 1 << (row % WORD_BITS);
        } else {
            *w &= !(1 << (row % WORD_BITS));
        }
    }

    /// Extracts stabilizer generator `i` (`0 ≤ i < n`) as a [`PauliString`].
    /// The sign reflects the constant phase term only.
    pub fn stabilizer(&self, i: usize) -> PauliString {
        self.row_pauli(self.n + i)
    }

    /// Extracts destabilizer generator `i`.
    pub fn destabilizer(&self, i: usize) -> PauliString {
        self.row_pauli(i)
    }

    /// Extracts an arbitrary row as a [`PauliString`].
    pub fn row_pauli(&self, row: usize) -> PauliString {
        let x = BitVec::from_fn(self.n, |q| self.x_bit(row, q));
        let z = BitVec::from_fn(self.n, |q| self.z_bit(row, q));
        PauliString::from_xz(x, z, self.phases.constant_bit(row))
    }

    // -- gates --------------------------------------------------------

    /// Applies `gate` to broadcast `targets` (pairs for two-qubit gates).
    ///
    /// The whole instruction runs the gate's dispatch-table entry through
    /// one column-kernel call ([`simd::Kernels::gate_action`]), which XORs
    /// the sign flips into the phase store's constant terms word-parallel
    /// (paper Fact 1).
    ///
    /// # Panics
    ///
    /// Panics if targets are out of range or malformed for the gate's arity.
    pub fn apply_gate(&mut self, gate: Gate, targets: &[u32]) {
        for &q in targets {
            assert!((q as usize) < self.n, "qubit {q} out of range");
        }
        let kernels = simd::kernels();
        let (x, z, signs) = (&mut self.x, &mut self.z, self.phases.constant_words_mut());
        match gate.arity() {
            1 => kernels.gate_action(&column_action1(gate.xz_action1()), x, z, targets, signs),
            _ => {
                assert!(
                    targets.len().is_multiple_of(2),
                    "two-qubit gate needs pairs"
                );
                for pair in targets.chunks_exact(2) {
                    assert_ne!(pair[0], pair[1], "two-qubit gate targets must differ");
                }
                kernels.gate_action(&column_action2(gate.xz_action2()), x, z, targets, signs);
            }
        }
    }

    // -- row operations -----------------------------------------------

    /// Zeroes row `row` (bits and phase).
    pub fn clear_row(&mut self, row: usize) {
        let (w, b) = (row / WORD_BITS, (row % WORD_BITS) as u32);
        for q in 0..self.n {
            let base = q * self.wpc;
            self.x[base + w] &= !(1 << b);
            self.z[base + w] &= !(1 << b);
        }
        self.phases.clear_row(row);
    }

    // -- measurement --------------------------------------------------

    /// Collapses qubit `a` for a Z-basis measurement (the phase-independent
    /// part of A-G's measurement; paper Fact 2).
    ///
    /// In the random case the new stabilizer at the pivot is left as `+Z_a`
    /// — the outcome is fixed to 0 and the caller supplies the randomness
    /// (concrete coin, or fresh symbol + `X^s` for Algorithm 1).
    ///
    /// Every other row that anticommutes with `Z_a` is multiplied by the
    /// pivot (A-G `rowsum`) in one column sweep
    /// ([`simd::Kernels::collapse_sweep`]): for each qubit where the pivot is
    /// not the identity, the anticommuting-row mask is XORed into that
    /// qubit's X/Z column words, and each row's phase exponent accumulates
    /// in bit-sliced mod-4 counters. The same pass moves the pivot onto its
    /// destabilizer and clears it. The phase store then sees one
    /// [`PhaseStore::add_row_into_mask`] over the whole mask.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn collapse_z(&mut self, a: usize) -> Collapse {
        assert!(a < self.n, "qubit {a} out of range");
        let Some(pivot) = self.find_pivot(a) else {
            return Collapse::Deterministic;
        };
        let (n, wpc) = (self.n, self.wpc);
        // Rows below the scratch row that anticommute with Z_a, bar the pivot.
        let mask = &mut self.sweep[..wpc];
        for (w, (m, &xa)) in mask.iter_mut().zip(&self.x[a * wpc..]).enumerate() {
            *m = xa & row_range_mask(w, 0, 2 * n);
        }
        mask[pivot / WORD_BITS] &= !(1 << (pivot % WORD_BITS));
        simd::kernels().collapse_sweep(&mut self.x, &mut self.z, &mut self.sweep, pivot, pivot - n);
        let (mask, counters) = self.sweep.split_at(wpc);
        self.phases.add_row_into_mask(pivot, mask, &counters[wpc..]);
        // The old pivot becomes the destabilizer; the new stabilizer is +Z_a.
        self.phases.copy_row(pivot, pivot - n);
        self.phases.clear_row(pivot);
        self.set_z_bit(pivot, a, true);
        Collapse::Random { pivot }
    }

    /// For a deterministic measurement of qubit `a` (after [`Self::collapse_z`]
    /// returned [`Collapse::Deterministic`]): accumulates into the scratch
    /// row the product of stabilizers indicated by the destabilizers that
    /// anticommute with `Z_a`. The outcome is the scratch row's phase.
    ///
    /// The ordered product is built in one column sweep
    /// ([`simd::Kernels::deterministic_sweep`]): the running product's bits
    /// before each factor are a masked prefix-XOR of the factors' column
    /// bits, so every factor's phase exponent accumulates word-parallel in
    /// the mod-4 counters. The phase store then sees one
    /// `add_row_into(factor, scratch, extra)` per factor, in ascending
    /// order.
    pub fn accumulate_deterministic(&mut self, a: usize) {
        assert!(a < self.n, "qubit {a} out of range");
        let (n, wpc) = (self.n, self.wpc);
        let scratch = self.scratch_row();
        self.phases.clear_row(scratch);
        // Stabilizer `n + r` is a factor when destabilizer `r` anticommutes
        // with Z_a: the destabilizer rows of the column, shifted up by n.
        let mask = &mut self.sweep[..wpc];
        mask.fill(0);
        let (shift_words, shift_bits) = (n / WORD_BITS, n % WORD_BITS);
        for (w, &xa) in self.x[a * wpc..(a + 1) * wpc].iter().enumerate() {
            let bits = xa & row_range_mask(w, 0, n);
            if bits == 0 {
                continue;
            }
            mask[w + shift_words] |= bits << shift_bits;
            if shift_bits > 0 && bits >> (WORD_BITS - shift_bits) != 0 {
                mask[w + shift_words + 1] |= bits >> (WORD_BITS - shift_bits);
            }
        }
        simd::kernels().deterministic_sweep(&mut self.x, &mut self.z, &mut self.sweep, scratch);
        let (mask, counters) = self.sweep.split_at(wpc);
        let hi = &counters[wpc..];
        for (w, (&m, &h)) in mask.iter().zip(hi).enumerate() {
            for_each_bit(m, |b| {
                self.phases
                    .add_row_into(w * WORD_BITS + b, scratch, (h >> b) & 1 == 1);
            });
        }
        debug_assert!(
            (0..self.n).all(|q| !self.x_bit(scratch, q)),
            "deterministic scratch row must be Z-type"
        );
    }

    /// First stabilizer row whose X bit at qubit `a` is set.
    fn find_pivot(&self, a: usize) -> Option<usize> {
        let (n, col) = (self.n, self.x_col(a));
        (n / WORD_BITS..self.wpc).find_map(|w| {
            let word = col[w] & row_range_mask(w, n, 2 * n);
            (word != 0).then(|| w * WORD_BITS + word.trailing_zeros() as usize)
        })
    }
}

/// The bits of row word `w` that select rows in `lo..hi`.
#[inline]
fn row_range_mask(w: usize, lo: usize, hi: usize) -> u64 {
    let start = w * WORD_BITS;
    let from = if lo <= start {
        !0
    } else if lo - start < WORD_BITS {
        !0 << (lo - start)
    } else {
        0
    };
    let below = if hi >= start + WORD_BITS {
        !0
    } else if hi > start {
        (1 << (hi - start)) - 1
    } else {
        0
    };
    from & below
}

/// Calls `f` with the index of every set bit of `word`, ascending.
#[inline]
fn for_each_bit(mut word: u64, mut f: impl FnMut(usize)) {
    while word != 0 {
        f(word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

/// The column kernel's form of a single-qubit table entry: outputs
/// `(x', z')` over inputs `(x, z)`.
fn column_action1(a: &XZAction1) -> ColumnAction<2> {
    let sel = |from_x: bool, from_z: bool| u8::from(from_x) | u8::from(from_z) << 1;
    ColumnAction {
        out: [sel(a.x_from_x, a.x_from_z), sel(a.z_from_x, a.z_from_z)],
        phase_tt: a.phase_tt.into(),
    }
}

/// The column kernel's form of a two-qubit table entry, whose source
/// masks already index the inputs `(x₀, z₀, x₁, z₁)`.
fn column_action2(a: &XZAction2) -> ColumnAction<4> {
    ColumnAction {
        out: [a.xa, a.za, a.xb, a.zb],
        phase_tt: a.phase_tt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::ConcretePhases;
    use symphase_circuit::SmallPauli;

    type T = Tableau<ConcretePhases>;

    #[test]
    fn initial_state_generators() {
        let t = T::new(3);
        assert_eq!(t.stabilizer(0).to_string(), "+ZII");
        assert_eq!(t.stabilizer(2).to_string(), "+IIZ");
        assert_eq!(t.destabilizer(1).to_string(), "+IXI");
    }

    #[test]
    fn xz_bytes_is_what_new_allocates() {
        for n in [1, 2, 31, 32, 33, 64, 256, 257] {
            let t = T::new(n);
            assert_eq!((t.x.len() + t.z.len()) * 8, T::xz_bytes(n), "n = {n}");
        }
    }

    #[test]
    fn bell_state_stabilizers() {
        let mut t = T::new(2);
        t.apply_gate(Gate::H, &[0]);
        t.apply_gate(Gate::Cx, &[0, 1]);
        assert_eq!(t.stabilizer(0).to_string(), "+XX");
        assert_eq!(t.stabilizer(1).to_string(), "+ZZ");
    }

    /// Exhaustively checks every gate's tableau update against the
    /// reference conjugation semantics from `symphase-circuit`.
    #[test]
    fn gate_updates_match_reference_conjugation() {
        // Single-qubit gates: prepare each Pauli as the row of a 1-qubit
        // tableau by direct injection.
        for gate in Gate::ALL {
            if gate.arity() != 1 {
                continue;
            }
            for (x, z, neg) in [
                (false, true, false),
                (true, false, false),
                (true, true, false),
                (false, true, true),
                (true, false, true),
                (true, true, true),
            ] {
                let mut t = T::new(1);
                t.set_x_bit(1, 0, x);
                t.set_z_bit(1, 0, z);
                t.phases.set_constant_bit(1, neg);
                t.apply_gate(gate, &[0]);
                let got = t.stabilizer(0);

                let mut input = SmallPauli::two(x, z, false, false);
                if x && z {
                    input = input.phased(1); // physical Y
                }
                if neg {
                    input = input.negated();
                }
                let expect = gate.conjugate(input);
                let got_x = got.x_bits().get(0);
                let got_z = got.z_bits().get(0);
                assert_eq!(
                    (got_x, got_z, got.sign_is_negative()),
                    (expect.x0, expect.z0, expect.sign_is_negative()),
                    "{gate} on (x={x},z={z},neg={neg})"
                );
            }
        }
        // Two-qubit gates: all 16 Pauli patterns, both signs.
        for gate in [Gate::Cx, Gate::Cy, Gate::Cz, Gate::Swap] {
            for bits in 0..16u8 {
                for neg in [false, true] {
                    let (x0, z0, x1, z1) =
                        (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0);
                    let mut t = T::new(2);
                    t.set_x_bit(2, 0, x0);
                    t.set_z_bit(2, 0, z0);
                    t.set_x_bit(2, 1, x1);
                    t.set_z_bit(2, 1, z1);
                    t.phases.set_constant_bit(2, neg);
                    t.apply_gate(gate, &[0, 1]);
                    let got = t.stabilizer(0);

                    let mut input = SmallPauli::two(x0, z0, x1, z1);
                    if x0 && z0 {
                        input = input.phased(1);
                    }
                    if x1 && z1 {
                        input = input.phased(1);
                    }
                    if neg {
                        input = input.negated();
                    }
                    let expect = gate.conjugate(input);
                    assert_eq!(
                        (
                            got.x_bits().get(0),
                            got.z_bits().get(0),
                            got.x_bits().get(1),
                            got.z_bits().get(1),
                            got.sign_is_negative()
                        ),
                        (
                            expect.x0,
                            expect.z0,
                            expect.x1,
                            expect.z1,
                            expect.sign_is_negative()
                        ),
                        "{gate} on bits={bits:04b} neg={neg}"
                    );
                }
            }
        }
    }

    #[test]
    fn measurement_of_zero_state_is_deterministic_zero() {
        let mut t = T::new(2);
        assert_eq!(t.collapse_z(0), Collapse::Deterministic);
        t.accumulate_deterministic(0);
        assert!(!t.phases().constant_bit(t.scratch_row()));
    }

    #[test]
    fn measurement_after_x_is_deterministic_one() {
        let mut t = T::new(1);
        t.apply_gate(Gate::X, &[0]);
        assert_eq!(t.collapse_z(0), Collapse::Deterministic);
        t.accumulate_deterministic(0);
        assert!(t.phases().constant_bit(t.scratch_row()));
    }

    #[test]
    fn measurement_after_h_is_random_then_repeatable() {
        let mut t = T::new(1);
        t.apply_gate(Gate::H, &[0]);
        let Collapse::Random { pivot } = t.collapse_z(0) else {
            panic!("expected random outcome");
        };
        assert_eq!(pivot, 1);
        // Fix the outcome to 1 and measure again: now deterministic 1.
        t.phases_mut().set_constant_bit(pivot, true);
        assert_eq!(t.collapse_z(0), Collapse::Deterministic);
        t.accumulate_deterministic(0);
        assert!(t.phases().constant_bit(t.scratch_row()));
    }

    #[test]
    fn bell_pair_measurements_correlate() {
        let mut t = T::new(2);
        t.apply_gate(Gate::H, &[0]);
        t.apply_gate(Gate::Cx, &[0, 1]);
        let Collapse::Random { pivot } = t.collapse_z(0) else {
            panic!("Bell measurement must be random");
        };
        t.phases_mut().set_constant_bit(pivot, true); // outcome 1
        assert_eq!(t.collapse_z(1), Collapse::Deterministic);
        t.accumulate_deterministic(1);
        assert!(
            t.phases().constant_bit(t.scratch_row()),
            "outcomes must agree"
        );
    }

    #[test]
    fn ghz_third_qubit_follows_first() {
        let mut t = T::new(3);
        t.apply_gate(Gate::H, &[0]);
        t.apply_gate(Gate::Cx, &[0, 1, 1, 2]);
        let Collapse::Random { pivot } = t.collapse_z(0) else {
            panic!("random expected");
        };
        t.phases_mut().set_constant_bit(pivot, false); // outcome 0
        for q in [1usize, 2] {
            assert_eq!(t.collapse_z(q), Collapse::Deterministic);
            t.accumulate_deterministic(q);
            assert!(!t.phases().constant_bit(t.scratch_row()));
        }
    }

    #[test]
    fn invariants_hold_after_random_circuit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(20);
        let n = 12;
        let mut t = T::new(n);
        for _ in 0..300 {
            match rng.random_range(0..5) {
                0 => t.apply_gate(Gate::H, &[rng.random_range(0..n as u32)]),
                1 => t.apply_gate(Gate::S, &[rng.random_range(0..n as u32)]),
                2 => {
                    let a = rng.random_range(0..n as u32);
                    let mut b = rng.random_range(0..n as u32);
                    if a == b {
                        b = (b + 1) % n as u32;
                    }
                    t.apply_gate(Gate::Cx, &[a, b]);
                }
                3 => t.apply_gate(Gate::SqrtY, &[rng.random_range(0..n as u32)]),
                _ => {
                    let a = rng.random_range(0..n);
                    if let Collapse::Random { pivot } = t.collapse_z(a) {
                        t.phases_mut().set_constant_bit(pivot, rng.random());
                    }
                }
            }
            crate::verify::check_invariants(&t).expect("invariants violated");
        }
    }

    #[test]
    fn swap_moves_generators() {
        let mut t = T::new(2);
        t.apply_gate(Gate::H, &[0]);
        t.apply_gate(Gate::Swap, &[0, 1]);
        assert_eq!(t.stabilizer(0).to_string(), "+IX");
        assert_eq!(t.stabilizer(1).to_string(), "+ZI");
    }
}
