//! Dense state-vector simulation: the ground truth for validating the
//! stabilizer engines.
//!
//! Stores all `2^n` complex amplitudes, so it only scales to ~a dozen
//! qubits — exactly enough to statistically cross-check the tableau,
//! Pauli-frame, and SymPhase samplers on small circuits (every stabilizer
//! circuit is also an ordinary quantum circuit).
//!
//! The circuit runs through the shared single-shot driver
//! (`symphase_backend::exec::run_shot`): noise sites are drawn per shot
//! by the same routine as every other engine and applied as concrete
//! Paulis, and measurements are Born-rule projections.
//!
//! # Example
//!
//! ```
//! use symphase_circuit::generators::bell_pair;
//! use symphase_statevec::StateVecSimulator;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut sim = StateVecSimulator::new(StdRng::seed_from_u64(1));
//! let record = sim.run(&bell_pair());
//! assert_eq!(record.get(0), record.get(1));
//! ```

use rand::{Rng, RngCore};

use symphase_backend::exec::{run_shot, ShotBatcher, ShotState};
use symphase_backend::{BuildError, SampleBatch, Sampler};
use symphase_bitmat::BitVec;
use symphase_circuit::{Circuit, Gate};

/// A complex amplitude.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The complex number `re + i·im`.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Zero.
    pub fn zero() -> Self {
        Self::new(0.0, 0.0)
    }

    /// One.
    pub fn one() -> Self {
        Self::new(1.0, 0.0)
    }

    /// Squared magnitude.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    fn add(self, other: Complex) -> Complex {
        Complex::new(self.re + other.re, self.im + other.im)
    }

    /// Difference (used by validation tests).
    // Named after the mathematical operation; the type deliberately stays
    // minimal rather than implementing the `std::ops` hierarchy.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Complex) -> Complex {
        Complex::new(self.re - other.re, self.im - other.im)
    }

    fn mul(self, other: Complex) -> Complex {
        Complex::new(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )
    }

    fn scale(self, k: f64) -> Complex {
        Complex::new(self.re * k, self.im * k)
    }
}

const I: Complex = Complex { re: 0.0, im: 1.0 };
const NEG_I: Complex = Complex { re: 0.0, im: -1.0 };

/// Maximum qubit count the dense simulator accepts (memory guard).
pub const MAX_QUBITS: u32 = 22;

/// A dense state-vector simulator over the same circuit IR as the
/// stabilizer engines.
#[derive(Debug)]
pub struct StateVecSimulator<R: Rng> {
    rng: R,
}

impl<R: Rng> StateVecSimulator<R> {
    /// Creates a simulator driven by `rng`.
    pub fn new(rng: R) -> Self {
        Self { rng }
    }

    /// Runs one shot of `circuit` from `|0…0⟩`, returning the measurement
    /// record.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more than [`MAX_QUBITS`] qubits.
    pub fn run(&mut self, circuit: &Circuit) -> BitVec {
        let n = circuit.num_qubits();
        assert!(
            n <= MAX_QUBITS,
            "{n} qubits exceed the dense limit {MAX_QUBITS}"
        );
        let mut state = State::zero_state(n as usize);
        run_shot(&mut state, circuit, &mut self.rng, false)
    }
}

/// The dense simulator as a [`Sampler`] backend: every shot is an
/// independent Born-rule trajectory.
///
/// Only meaningful for small circuits (≤ [`MAX_QUBITS`] qubits), where it
/// serves as the quantum-mechanical ground truth the stabilizer engines
/// are validated against.
#[derive(Clone, Debug)]
pub struct StateVecSampler {
    circuit: Circuit,
    batcher: ShotBatcher,
}

impl StateVecSampler {
    /// Builds the backend for `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more than [`MAX_QUBITS`] qubits; prefer
    /// [`StateVecSampler::try_new`], which reports the cap as a typed
    /// [`BuildError`] instead.
    pub fn new(circuit: &Circuit) -> Self {
        match Self::try_new(circuit) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the backend for `circuit`, failing with
    /// [`BuildError::CircuitTooLarge`] when the circuit exceeds
    /// [`MAX_QUBITS`] qubits (storing `2^n` amplitudes past that point is
    /// hopeless, not slow).
    pub fn try_new(circuit: &Circuit) -> Result<Self, BuildError> {
        let n = circuit.num_qubits();
        if n > MAX_QUBITS {
            return Err(BuildError::CircuitTooLarge {
                engine: "statevec",
                qubits: n,
                max_qubits: MAX_QUBITS,
            });
        }
        Ok(Self {
            circuit: circuit.clone(),
            batcher: ShotBatcher::new(circuit),
        })
    }
}

impl Sampler for StateVecSampler {
    fn name(&self) -> &'static str {
        "statevec"
    }

    fn num_measurements(&self) -> usize {
        self.circuit.num_measurements()
    }

    fn num_detectors(&self) -> usize {
        self.batcher.num_detectors()
    }

    fn num_observables(&self) -> usize {
        self.batcher.num_observables()
    }

    fn sample_into(&self, batch: &mut SampleBatch, rng: &mut dyn RngCore) {
        let n = self.circuit.num_qubits() as usize;
        self.batcher
            .sample_into(&self.circuit, || State::zero_state(n), batch, rng);
    }
}

/// The dense quantum state.
#[derive(Clone, Debug)]
struct State {
    amps: Vec<Complex>,
}

impl State {
    fn zero_state(n: usize) -> Self {
        let mut amps = vec![Complex::zero(); 1 << n];
        amps[0] = Complex::one();
        Self { amps }
    }

    /// Applies a single-qubit gate by its 2×2 matrix action.
    fn apply_1q(&mut self, gate: Gate, q: usize) {
        // Matrix [[a, b], [c, d]] acting on basis |0⟩, |1⟩ of qubit q.
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let (a, b, c, d) = match gate {
            Gate::I => return,
            Gate::X => (
                Complex::zero(),
                Complex::one(),
                Complex::one(),
                Complex::zero(),
            ),
            Gate::Y => (Complex::zero(), NEG_I, I, Complex::zero()),
            Gate::Z => (
                Complex::one(),
                Complex::zero(),
                Complex::zero(),
                Complex::new(-1.0, 0.0),
            ),
            Gate::H => (
                Complex::new(s, 0.0),
                Complex::new(s, 0.0),
                Complex::new(s, 0.0),
                Complex::new(-s, 0.0),
            ),
            Gate::S => (Complex::one(), Complex::zero(), Complex::zero(), I),
            Gate::SDag => (Complex::one(), Complex::zero(), Complex::zero(), NEG_I),
            // √X = ½[[1+i, 1−i], [1−i, 1+i]]
            Gate::SqrtX => (
                Complex::new(0.5, 0.5),
                Complex::new(0.5, -0.5),
                Complex::new(0.5, -0.5),
                Complex::new(0.5, 0.5),
            ),
            Gate::SqrtXDag => (
                Complex::new(0.5, -0.5),
                Complex::new(0.5, 0.5),
                Complex::new(0.5, 0.5),
                Complex::new(0.5, -0.5),
            ),
            // √Y = ½[[1+i, −1−i], [1+i, 1+i]]
            Gate::SqrtY => (
                Complex::new(0.5, 0.5),
                Complex::new(-0.5, -0.5),
                Complex::new(0.5, 0.5),
                Complex::new(0.5, 0.5),
            ),
            Gate::SqrtYDag => (
                Complex::new(0.5, -0.5),
                Complex::new(0.5, -0.5),
                Complex::new(-0.5, 0.5),
                Complex::new(0.5, -0.5),
            ),
            // C_XYZ = H·S†: 1/√2 [[1, −i], [1, i]].
            Gate::CXyz => (
                Complex::new(s, 0.0),
                Complex::new(0.0, -s),
                Complex::new(s, 0.0),
                Complex::new(0.0, s),
            ),
            // C_ZYX = S·H: 1/√2 [[1, 1], [i, −i]].
            Gate::CZyx => (
                Complex::new(s, 0.0),
                Complex::new(s, 0.0),
                Complex::new(0.0, s),
                Complex::new(0.0, -s),
            ),
            // H_XY = (X+Y)/√2: 1/√2 [[0, 1−i], [1+i, 0]].
            Gate::HXy => (
                Complex::zero(),
                Complex::new(s, -s),
                Complex::new(s, s),
                Complex::zero(),
            ),
            // H_YZ = (Y+Z)/√2: 1/√2 [[1, −i], [i, −1]].
            Gate::HYz => (
                Complex::new(s, 0.0),
                Complex::new(0.0, -s),
                Complex::new(0.0, s),
                Complex::new(-s, 0.0),
            ),
            _ => unreachable!("two-qubit gate in apply_1q"),
        };
        let bit = 1usize << q;
        for i in 0..self.amps.len() {
            if i & bit == 0 {
                let j = i | bit;
                let (v0, v1) = (self.amps[i], self.amps[j]);
                self.amps[i] = a.mul(v0).add(b.mul(v1));
                self.amps[j] = c.mul(v0).add(d.mul(v1));
            }
        }
    }

    fn apply_2q(&mut self, gate: Gate, a: usize, b: usize) {
        match gate {
            Gate::Cx => {
                let (ca, tb) = (1usize << a, 1usize << b);
                for i in 0..self.amps.len() {
                    if i & ca != 0 && i & tb == 0 {
                        self.amps.swap(i, i | tb);
                    }
                }
            }
            Gate::Cz => {
                let (ba, bb) = (1usize << a, 1usize << b);
                for amp_idx in 0..self.amps.len() {
                    if amp_idx & ba != 0 && amp_idx & bb != 0 {
                        self.amps[amp_idx] = self.amps[amp_idx].scale(-1.0);
                    }
                }
            }
            Gate::Cy => {
                let (ca, tb) = (1usize << a, 1usize << b);
                for i in 0..self.amps.len() {
                    if i & ca != 0 && i & tb == 0 {
                        let j = i | tb;
                        let (v0, v1) = (self.amps[i], self.amps[j]);
                        // |c1⟩⊗Y: Y|0⟩ = i|1⟩, Y|1⟩ = −i|0⟩.
                        self.amps[i] = NEG_I.mul(v1);
                        self.amps[j] = I.mul(v0);
                    }
                }
            }
            Gate::Swap => {
                let (ba, bb) = (1usize << a, 1usize << b);
                for i in 0..self.amps.len() {
                    if i & ba != 0 && i & bb == 0 {
                        self.amps.swap(i, (i & !ba) | bb);
                    }
                }
            }
            _ => unreachable!("single-qubit gate in apply_2q"),
        }
    }

    /// Born-rule Z measurement with renormalizing projection.
    fn measure_born(&mut self, q: usize, rng: &mut impl Rng) -> bool {
        let bit = 1usize << q;
        let p1: f64 = self
            .amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & bit != 0)
            .map(|(_, a)| a.norm_sq())
            .sum();
        let outcome = rng.random::<f64>() < p1;
        let keep = if outcome { bit } else { 0 };
        let norm = if outcome { p1 } else { 1.0 - p1 };
        let scale = 1.0 / norm.sqrt();
        for (i, a) in self.amps.iter_mut().enumerate() {
            if i & bit == keep {
                *a = a.scale(scale);
            } else {
                *a = Complex::zero();
            }
        }
        outcome
    }
}

impl ShotState for State {
    fn apply_gate(&mut self, gate: Gate, targets: &[u32]) {
        match gate.arity() {
            1 => {
                for &q in targets {
                    self.apply_1q(gate, q as usize);
                }
            }
            _ => {
                for pair in targets.chunks_exact(2) {
                    self.apply_2q(gate, pair[0] as usize, pair[1] as usize);
                }
            }
        }
    }

    // The dense engine is never used for reference sampling (the tableau
    // engine owns that convention), so `reference` is ignored.
    fn measure(&mut self, q: u32, mut rng: &mut dyn RngCore, _reference: bool) -> bool {
        self.measure_born(q as usize, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symphase_circuit::generators::{ghz, teleportation};
    use symphase_circuit::NoiseChannel;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn deterministic_x_measurement() {
        let mut c = Circuit::new(2);
        c.x(0);
        c.measure_all();
        let rec = StateVecSimulator::new(rng(1)).run(&c);
        assert!(rec.get(0));
        assert!(!rec.get(1));
    }

    #[test]
    fn bell_outcomes_agree() {
        let c = symphase_circuit::generators::bell_pair();
        let mut ones = 0;
        for seed in 0..64 {
            let rec = StateVecSimulator::new(rng(seed)).run(&c);
            assert_eq!(rec.get(0), rec.get(1));
            ones += usize::from(rec.get(0));
        }
        assert!(ones > 12 && ones < 52);
    }

    #[test]
    fn ghz_consistency() {
        let c = ghz(4);
        for seed in 0..16 {
            let rec = StateVecSimulator::new(rng(seed)).run(&c);
            let ones = rec.iter_ones().count();
            assert!(ones == 0 || ones == 4);
        }
    }

    #[test]
    fn teleportation_verifies() {
        let c = teleportation();
        for seed in 0..32 {
            let rec = StateVecSimulator::new(rng(seed)).run(&c);
            assert!(!rec.get(2), "failed at seed {seed}");
        }
    }

    #[test]
    fn gate_algebra_sanity() {
        // S² = Z, (√X)² = X, H² = I on a superposition probe.
        let probes: Vec<(Gate, Gate, Option<Gate>)> = vec![
            (Gate::S, Gate::S, Some(Gate::Z)),
            (Gate::SqrtX, Gate::SqrtX, Some(Gate::X)),
            (Gate::SqrtY, Gate::SqrtY, Some(Gate::Y)),
            (Gate::H, Gate::H, None),
        ];
        for (g1, g2, equal_to) in probes {
            let mut s1 = State::zero_state(1);
            s1.apply_1q(Gate::H, 0);
            s1.apply_1q(Gate::S, 0); // probe state |0⟩+i|1⟩
            let mut s2 = s1.clone();
            s1.apply_1q(g1, 0);
            s1.apply_1q(g2, 0);
            if let Some(g) = equal_to {
                s2.apply_1q(g, 0);
            }
            for i in 0..2 {
                assert!(
                    (s1.amps[i].sub(s2.amps[i])).norm_sq() < 1e-20,
                    "{g1}{g2} ≠ {equal_to:?} at amp {i}"
                );
            }
        }
    }

    #[test]
    fn sqrt_gates_match_conjugation_direction() {
        // SQRT_X applied to |0⟩ then measured in Y basis must match the
        // stabilizer convention Z → −Y: state √X|0⟩ has ⟨Y⟩ = −1.
        let mut s = State::zero_state(1);
        s.apply_1q(Gate::SqrtX, 0);
        // ⟨Y⟩ = 2·Im(a0* · a1)
        let y_exp = 2.0 * (s.amps[0].re * s.amps[1].im - s.amps[0].im * s.amps[1].re);
        assert!((y_exp + 1.0).abs() < 1e-12, "⟨Y⟩ = {y_exp}, expected −1");
    }

    /// Verifies every single-qubit gate's matrix against the reference
    /// conjugation semantics: U P U† must equal the SmallPauli image, as a
    /// 2×2 matrix identity.
    #[test]
    fn all_1q_matrices_match_conjugation_semantics() {
        use symphase_circuit::SmallPauli;
        // Pauli matrices as flat [a, b, c, d].
        let pauli_matrix = |x: bool, z: bool, neg: bool| -> [Complex; 4] {
            let m: [Complex; 4] = match (x, z) {
                (false, false) => [
                    Complex::one(),
                    Complex::zero(),
                    Complex::zero(),
                    Complex::one(),
                ],
                (true, false) => [
                    Complex::zero(),
                    Complex::one(),
                    Complex::one(),
                    Complex::zero(),
                ],
                (false, true) => [
                    Complex::one(),
                    Complex::zero(),
                    Complex::zero(),
                    Complex::new(-1.0, 0.0),
                ],
                (true, true) => [Complex::zero(), NEG_I, I, Complex::zero()],
            };
            if neg {
                m.map(|c| c.scale(-1.0))
            } else {
                m
            }
        };
        let apply_gate_matrix = |gate: Gate, v: [Complex; 2]| -> [Complex; 2] {
            // Reuse the simulator's own matrix by acting on a 1-qubit state.
            let mut st = State { amps: v.to_vec() };
            st.apply_1q(gate, 0);
            [st.amps[0], st.amps[1]]
        };
        for gate in Gate::ALL {
            if gate.arity() != 1 || gate == Gate::I {
                continue;
            }
            for (x, z, name) in [(true, false, "X"), (false, true, "Z"), (true, true, "Y")] {
                let mut input = SmallPauli::two(x, z, false, false);
                if x && z {
                    input = input.phased(1);
                }
                let image = gate.conjugate(input);
                let expect = pauli_matrix(image.x0, image.z0, image.sign_is_negative());
                // Compute U·P·U† column by column: (U P U†) e_k.
                for k in 0..2 {
                    let e_k = [
                        Complex::new(f64::from(u8::from(k == 0)), 0.0),
                        Complex::new(f64::from(u8::from(k == 1)), 0.0),
                    ];
                    // U† = inverse gate's matrix.
                    let v = apply_gate_matrix(gate.inverse(), e_k);
                    let p = pauli_matrix(x, z, false);
                    let pv = [
                        p[0].mul(v[0]).add(p[1].mul(v[1])),
                        p[2].mul(v[0]).add(p[3].mul(v[1])),
                    ];
                    let got = apply_gate_matrix(gate, pv);
                    let want = [expect[k], expect[2 + k]];
                    for (g, w) in got.iter().zip(&want) {
                        assert!(
                            g.sub(*w).norm_sq() < 1e-18,
                            "{gate} conjugating {name}: got {g:?}, want {w:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unitarity_preserved() {
        let mut s = State::zero_state(3);
        for (g, q) in [
            (Gate::H, 0),
            (Gate::S, 1),
            (Gate::SqrtY, 2),
            (Gate::SqrtXDag, 0),
        ] {
            s.apply_1q(g, q);
        }
        s.apply_2q(Gate::Cx, 0, 1);
        s.apply_2q(Gate::Cz, 1, 2);
        s.apply_2q(Gate::Cy, 2, 0);
        s.apply_2q(Gate::Swap, 0, 2);
        let norm: f64 = s.amps.iter().map(|a| a.norm_sq()).sum();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_collapse_is_repeatable() {
        let mut c = Circuit::new(1);
        c.h(0);
        c.measure(0);
        c.measure(0);
        for seed in 0..16 {
            let rec = StateVecSimulator::new(rng(seed)).run(&c);
            assert_eq!(rec.get(0), rec.get(1));
        }
    }

    #[test]
    fn noise_probability_one() {
        let mut c = Circuit::new(1);
        c.noise(NoiseChannel::XError(1.0), &[0]);
        c.measure(0);
        let rec = StateVecSimulator::new(rng(3)).run(&c);
        assert!(rec.get(0));
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_qubits_rejected() {
        let c = Circuit::new(30);
        StateVecSimulator::new(rng(0)).run(&c);
    }

    #[test]
    fn structured_repeat_streams_through_the_driver() {
        // Feedback inside the REPEAT body reaches the previous
        // iteration's measurement: iteration 1 reads the pre-block
        // outcome (1 → flip qubit 1 to |1⟩), iteration 2 reads iteration
        // 1's outcome (1 → flip back to |0⟩), and every later iteration
        // reads 0 and leaves it there.
        let c = Circuit::parse("X 0\nM 0\nREPEAT 5 {\n CX rec[-1] 1\n M 1\n}\n").unwrap();
        let expect = [true, true, false, false, false, false];
        for seed in 0..4 {
            let rec = StateVecSimulator::new(rng(seed)).run(&c);
            for (m, &want) in expect.iter().enumerate() {
                assert_eq!(rec.get(m), want, "outcome {m}");
            }
        }
    }
}
