//! The batched Pauli frame: one X/Z bit per (qubit, shot).

use rand::Rng;

use symphase_backend::noise::FaultSink;
use symphase_bitmat::bernoulli::fill_bernoulli;
use symphase_bitmat::word::xor_into;
use symphase_bitmat::{words_for, Word, WORD_BITS};
use symphase_circuit::{Gate, PauliKind};

/// A batch of Pauli frames, one per shot, stored as per-qubit shot-rows
/// (64 shots per word).
///
/// The frame tracks the Pauli difference between the noisy state of each
/// shot and the noiseless reference state. Clifford gates conjugate it
/// (signs are irrelevant — only the X component at measurement time is
/// observable), noise XORs sampled Paulis into it, and measurements read
/// the X component.
#[derive(Clone, Debug)]
pub struct FrameBatch {
    num_qubits: usize,
    shots: usize,
    /// Words per shot-row.
    wps: usize,
    /// `x[q * wps + w]`: X component of qubit `q` for shots `64w..64w+64`.
    x: Vec<Word>,
    /// `z[q * wps + w]`: Z component.
    z: Vec<Word>,
    /// Scratch for Bernoulli masks.
    mask: Vec<Word>,
}

impl FrameBatch {
    /// Creates the frame batch for `num_qubits` qubits and `shots` shots,
    /// with the Z components uniformly random (the `Z_ERROR(0.5)`
    /// initialization that makes random measurement outcomes random across
    /// shots — every qubit starts stabilized by `Z`, so this is physically
    /// a no-op).
    pub fn new(num_qubits: usize, shots: usize, rng: &mut impl Rng) -> Self {
        let wps = words_for(shots);
        let mut b = Self {
            num_qubits,
            shots,
            wps,
            x: vec![0; num_qubits * wps],
            z: vec![0; num_qubits * wps],
            mask: vec![0; wps],
        };
        for q in 0..num_qubits {
            b.randomize_z(q, rng);
        }
        b
    }

    /// Number of shots in the batch.
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// Words per shot-row.
    pub fn words_per_row(&self) -> usize {
        self.wps
    }

    /// The X component row of qubit `q`.
    pub fn x_row(&self, q: usize) -> &[Word] {
        &self.x[q * self.wps..(q + 1) * self.wps]
    }

    /// The Z component row of qubit `q`.
    pub fn z_row(&self, q: usize) -> &[Word] {
        &self.z[q * self.wps..(q + 1) * self.wps]
    }

    /// Reads the frame Pauli of `(qubit, shot)` as an (x, z) pair.
    pub fn pauli(&self, q: usize, shot: usize) -> (bool, bool) {
        let (w, b) = (shot / WORD_BITS, shot % WORD_BITS);
        (
            (self.x[q * self.wps + w] >> b) & 1 == 1,
            (self.z[q * self.wps + w] >> b) & 1 == 1,
        )
    }

    /// Applies a Clifford gate to the frame (broadcast targets).
    ///
    /// # Panics
    ///
    /// Panics if targets are out of range or malformed.
    pub fn apply_gate(&mut self, gate: Gate, targets: &[u32]) {
        match gate.arity() {
            1 => {
                for &q in targets {
                    self.apply_single(gate, q as usize);
                }
            }
            _ => {
                for pair in targets.chunks_exact(2) {
                    self.apply_pair(gate, pair[0] as usize, pair[1] as usize);
                }
            }
        }
    }

    fn apply_single(&mut self, gate: Gate, q: usize) {
        assert!(q < self.num_qubits, "qubit {q} out of range");
        let action = gate.xz_action1();
        // Frames track only the Pauli difference modulo sign, so the
        // shared dispatch table's phase reports are dropped — and gates
        // whose bit action is the identity (I, X, Y, Z) are free.
        if action.is_identity_bit_action() {
            return;
        }
        let wps = self.wps;
        let xr = &mut self.x[q * wps..(q + 1) * wps];
        let zr = &mut self.z[q * wps..(q + 1) * wps];
        symphase_circuit::apply_action1(action, xr, zr, |_, _| {});
    }

    fn apply_pair(&mut self, gate: Gate, a: usize, b: usize) {
        assert!(
            a < self.num_qubits && b < self.num_qubits,
            "qubit out of range"
        );
        assert_ne!(a, b, "pair targets must differ");
        let wps = self.wps;
        let (xa, xb) = two_rows(&mut self.x, a, b, wps);
        let (za, zb) = two_rows(&mut self.z, a, b, wps);
        symphase_circuit::apply_action2(gate.xz_action2(), xa, za, xb, zb, |_, _| {});
    }

    /// Re-randomizes the Z component of qubit `q` (after measurement or
    /// reset the state is a Z eigenstate, so this is physically a no-op
    /// that decorrelates later non-commuting observables across shots).
    pub fn randomize_z(&mut self, q: usize, rng: &mut impl Rng) {
        let (shots, z) = (self.shots, [(PauliKind::Z, q as u32)]);
        FrameSink::new(self, [&z, &[], &[], &[]]).bernoulli(0, 0.5, shots, rng);
    }

    /// Zeroes the X component of qubit `q` (reset to `|0⟩` discards bit
    /// flips).
    pub fn clear_x(&mut self, q: usize) {
        let xr = &mut self.x[q * self.wps..(q + 1) * self.wps];
        xr.iter_mut().for_each(|w| *w = 0);
    }
}

/// Routes the slots of a noise site into a frame batch: slot `k` XORs
/// the Pauli product `slots[k]` into the shots where it fires.
pub(crate) struct FrameSink<'a> {
    frame: &'a mut FrameBatch,
    slots: [&'a [(PauliKind, u32)]; 4],
}

impl<'a> FrameSink<'a> {
    /// A sink whose slot `k` applies `slots[k]`.
    pub(crate) fn new(frame: &'a mut FrameBatch, slots: [&'a [(PauliKind, u32)]; 4]) -> Self {
        Self { frame, slots }
    }
}

impl FaultSink for FrameSink<'_> {
    fn bernoulli<R: Rng>(&mut self, slot: usize, p: f64, width: usize, rng: &mut R) {
        let mut mask = std::mem::take(&mut self.frame.mask);
        fill_bernoulli(&mut mask, width, p, rng);
        self.mask(slot, &mask);
        self.frame.mask = mask;
    }

    fn set(&mut self, slot: usize, shot: usize) {
        let (w, bit) = (shot / WORD_BITS, 1 << (shot % WORD_BITS));
        let FrameBatch { x, z, wps, .. } = &mut *self.frame;
        for &(kind, q) in self.slots[slot] {
            let at = q as usize * *wps + w;
            let (fx, fz) = kind.xz();
            if fx {
                x[at] ^= bit;
            }
            if fz {
                z[at] ^= bit;
            }
        }
    }

    fn mask(&mut self, slot: usize, fired: &[Word]) {
        let wps = self.frame.wps;
        for &(kind, q) in self.slots[slot] {
            let (fx, fz) = kind.xz();
            let rows = q as usize * wps..(q as usize + 1) * wps;
            if fx {
                xor_into(&mut self.frame.x[rows.clone()], fired);
            }
            if fz {
                xor_into(&mut self.frame.z[rows], fired);
            }
        }
    }
}

fn two_rows(v: &mut [Word], a: usize, b: usize, wps: usize) -> (&mut [Word], &mut [Word]) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = v.split_at_mut(b * wps);
        (&mut lo[a * wps..(a + 1) * wps], &mut hi[..wps])
    } else {
        let (lo, hi) = v.split_at_mut(a * wps);
        let (rb, ra) = (&mut lo[b * wps..(b + 1) * wps], &mut hi[..wps]);
        (ra, rb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symphase_backend::noise::{draw, NoiseScratch, NoiseSite};
    use symphase_circuit::SmallPauli;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    /// Draws `site` through the frame sink with slots `[(kind, q), Z q]`.
    fn draw_on(b: &mut FrameBatch, site: NoiseSite, kind: PauliKind, q: u32, r: &mut StdRng) {
        let paulis = [(kind, q), (PauliKind::Z, q)];
        let shots = b.shots();
        let mut sink = FrameSink::new(b, [&paulis[0..1], &paulis[1..2], &[], &[]]);
        draw(&site, shots, r, &mut NoiseScratch::default(), &mut sink);
    }

    /// Frame conjugation must match the reference semantics modulo sign.
    #[test]
    fn gate_bit_action_matches_reference() {
        let mut r = rng();
        for gate in Gate::ALL {
            if gate.arity() != 1 {
                continue;
            }
            for (x, z) in [(true, false), (false, true), (true, true)] {
                let mut b = FrameBatch::new(1, 64, &mut r);
                // Overwrite shot 0 deterministically.
                b.x[0] = u64::from(x);
                b.z[0] = u64::from(z);
                b.apply_gate(gate, &[0]);
                let mut input = SmallPauli::two(x, z, false, false);
                if x && z {
                    input = input.phased(1);
                }
                let expect = gate.conjugate(input);
                let (gx, gz) = b.pauli(0, 0);
                assert_eq!((gx, gz), (expect.x0, expect.z0), "{gate} on x={x} z={z}");
            }
        }
        for gate in [Gate::Cx, Gate::Cy, Gate::Cz, Gate::Swap] {
            for bits in 1..16u8 {
                let (x0, z0, x1, z1) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0);
                let mut b = FrameBatch::new(2, 64, &mut r);
                b.x[0] = u64::from(x0);
                b.z[0] = u64::from(z0);
                b.x[1] = u64::from(x1);
                b.z[1] = u64::from(z1);
                b.apply_gate(gate, &[0, 1]);
                let mut input = SmallPauli::two(x0, z0, x1, z1);
                if x0 && z0 {
                    input = input.phased(1);
                }
                if x1 && z1 {
                    input = input.phased(1);
                }
                let expect = gate.conjugate(input);
                let (gx0, gz0) = b.pauli(0, 0);
                let (gx1, gz1) = b.pauli(1, 0);
                assert_eq!(
                    (gx0, gz0, gx1, gz1),
                    (expect.x0, expect.z0, expect.x1, expect.z1),
                    "{gate} on bits {bits:04b}"
                );
            }
        }
    }

    #[test]
    fn x_error_probability_one_flips_all_shots() {
        let mut r = rng();
        let mut b = FrameBatch::new(1, 200, &mut r);
        draw_on(&mut b, NoiseSite::Bernoulli(1.0), PauliKind::X, 0, &mut r);
        for shot in 0..200 {
            assert!(b.pauli(0, shot).0);
        }
    }

    #[test]
    fn clear_x_resets() {
        let mut r = rng();
        let mut b = FrameBatch::new(2, 100, &mut r);
        draw_on(&mut b, NoiseSite::Bernoulli(1.0), PauliKind::Y, 1, &mut r);
        b.clear_x(1);
        for shot in 0..100 {
            assert!(!b.pauli(1, shot).0);
        }
    }

    #[test]
    fn depolarize1_density() {
        let mut r = rng();
        let shots = 100_000;
        let mut b = FrameBatch::new(1, shots, &mut r);
        // Cancel the random initial Z so only channel flips remain.
        let z0: Vec<u64> = b.z_row(0).to_vec();
        let p = 0.3;
        draw_on(&mut b, NoiseSite::Depolarize1(p), PauliKind::X, 0, &mut r);
        let mut x_only = 0usize;
        let mut z_only = 0usize;
        let mut both = 0usize;
        for shot in 0..shots {
            let (x, z) = b.pauli(0, shot);
            let z = z ^ ((z0[shot / 64] >> (shot % 64)) & 1 == 1);
            match (x, z) {
                (true, false) => x_only += 1,
                (false, true) => z_only += 1,
                (true, true) => both += 1,
                (false, false) => {}
            }
        }
        let each = p / 3.0 * shots as f64;
        for (name, count) in [("X", x_only), ("Z", z_only), ("Y", both)] {
            assert!(
                (count as f64 - each).abs() < 6.0 * (each).sqrt() + 10.0,
                "{name} count {count} far from {each}"
            );
        }
    }

    #[test]
    fn initial_z_is_random_x_is_zero() {
        let mut r = rng();
        let b = FrameBatch::new(4, 10_000, &mut r);
        for q in 0..4 {
            assert_eq!(symphase_bitmat::word::count_ones(b.x_row(q)), 0);
            let ones = symphase_bitmat::word::count_ones(b.z_row(q));
            assert!(ones > 4000 && ones < 6000, "z not ~uniform: {ones}");
        }
    }
}
