//! Single-shot concrete tableau simulation and reference sampling.
//!
//! The circuit walk (basis changes, record bookkeeping, resets, feedback)
//! and the noise draw live in `symphase_backend::exec` and
//! `symphase_backend::noise`; this module supplies only the
//! tableau-specific primitives through [`ShotState`] and wraps them as
//! [`TableauSimulator`] (one shot at a time) and [`TableauSampler`] (the
//! [`Sampler`] backend that loops shots).

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use symphase_backend::exec::{run_shot, ShotBatcher, ShotState};
use symphase_backend::{SampleBatch, Sampler};
use symphase_bitmat::BitVec;
use symphase_circuit::{Circuit, Gate};

use crate::phases::{ConcretePhases, PhaseStore};
use crate::tableau::{Collapse, Tableau};

/// The concrete tableau as a single-shot execution state: the classic
/// Aaronson–Gottesman algorithm with one sign bit per generator.
pub(crate) struct ConcreteShot {
    tab: Tableau<ConcretePhases>,
}

impl ConcreteShot {
    pub(crate) fn new(num_qubits: usize) -> Self {
        Self {
            tab: Tableau::new(num_qubits),
        }
    }
}

impl ShotState for ConcreteShot {
    fn apply_gate(&mut self, gate: Gate, targets: &[u32]) {
        self.tab.apply_gate(gate, targets);
    }

    fn measure(&mut self, q: u32, rng: &mut dyn RngCore, reference: bool) -> bool {
        match self.tab.collapse_z(q as usize) {
            Collapse::Random { pivot } => {
                let outcome = if reference { false } else { rng.random() };
                self.tab.phases_mut().set_constant_bit(pivot, outcome);
                outcome
            }
            Collapse::Deterministic => {
                self.tab.accumulate_deterministic(q as usize);
                self.tab.phases().constant_bit(self.tab.scratch_row())
            }
        }
    }
}

/// A single-shot stabilizer simulator with concrete phases: the classic
/// Aaronson–Gottesman algorithm, including Pauli noise sampled during the
/// traversal, resets, and classically-controlled Paulis.
///
/// Sampling `k` shots with this simulator traverses the circuit `k` times —
/// the cost model Algorithm 1 avoids. It is the correctness anchor for the
/// faster engines. For batch sampling through the shared backend layer,
/// use [`TableauSampler`].
///
/// # Example
///
/// ```
/// use symphase_circuit::generators::ghz;
/// use symphase_tableau::TableauSimulator;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let record = TableauSimulator::new(4, StdRng::seed_from_u64(7)).run(&ghz(4));
/// // All four GHZ outcomes agree.
/// assert!(record.iter_ones().count() == 0 || record.iter_ones().count() == 4);
/// ```
#[derive(Debug)]
pub struct TableauSimulator<R: Rng> {
    n: usize,
    rng: R,
}

impl<R: Rng> TableauSimulator<R> {
    /// Creates a simulator for `num_qubits` qubits driven by `rng`.
    pub fn new(num_qubits: usize, rng: R) -> Self {
        Self { n: num_qubits, rng }
    }

    /// Runs one shot of `circuit` from `|0…0⟩` and returns the measurement
    /// record.
    ///
    /// # Panics
    ///
    /// Panics if the circuit references more qubits than the simulator has.
    pub fn run(&mut self, circuit: &Circuit) -> BitVec {
        assert!(
            circuit.num_qubits() as usize <= self.n,
            "circuit needs {} qubits, simulator has {}",
            circuit.num_qubits(),
            self.n
        );
        let mut state = ConcreteShot::new(self.n);
        run_shot(&mut state, circuit, &mut self.rng, false)
    }
}

/// Computes the canonical noiseless *reference sample*: noise instructions
/// are skipped and every random measurement outcome is fixed to 0 (exactly
/// the convention of Algorithm 1's Init-M and of the Pauli-frame baseline).
pub fn reference_sample(circuit: &Circuit) -> BitVec {
    // RNG is never consulted in reference mode.
    let mut rng = StdRng::seed_from_u64(0);
    let mut state = ConcreteShot::new(circuit.num_qubits() as usize);
    run_shot(&mut state, circuit, &mut rng, true)
}

/// The tableau engine as a [`Sampler`] backend: every shot is an
/// independent noisy tableau trajectory.
///
/// Per-shot cost is `O(n_g · n + n_m · n²)` — the slowest backend by far,
/// but it exercises the textbook algorithm directly, which makes it the
/// arbiter when the fast engines disagree.
#[derive(Clone, Debug)]
pub struct TableauSampler {
    circuit: Circuit,
    batcher: ShotBatcher,
}

impl TableauSampler {
    /// Builds the backend for `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        Self {
            circuit: circuit.clone(),
            batcher: ShotBatcher::new(circuit),
        }
    }
}

impl Sampler for TableauSampler {
    fn name(&self) -> &'static str {
        "tableau"
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
            .sample_into(&self.circuit, || ConcreteShot::new(n), batch, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphase_circuit::generators::{bell_pair, ghz, teleportation};
    use symphase_circuit::{NoiseChannel, PauliKind};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn bell_outcomes_agree_and_vary() {
        let c = bell_pair();
        let mut ones = 0;
        for seed in 0..64 {
            let rec = TableauSimulator::new(2, rng(seed)).run(&c);
            assert_eq!(rec.get(0), rec.get(1), "Bell outcomes must agree");
            ones += usize::from(rec.get(0));
        }
        assert!(
            ones > 10 && ones < 54,
            "Bell outcome should be ~fair, got {ones}/64"
        );
    }

    #[test]
    fn ghz_outcomes_all_equal() {
        let c = ghz(6);
        for seed in 0..16 {
            let rec = TableauSimulator::new(6, rng(seed)).run(&c);
            let count = rec.iter_ones().count();
            assert!(count == 0 || count == 6);
        }
    }

    #[test]
    fn reference_sample_fixes_random_outcomes_to_zero() {
        let c = bell_pair();
        let r = reference_sample(&c);
        assert!(!r.get(0) && !r.get(1));
    }

    #[test]
    fn reference_sample_keeps_deterministic_values() {
        let mut c = Circuit::new(1);
        c.x(0);
        c.measure(0);
        assert!(reference_sample(&c).get(0));
    }

    #[test]
    fn reference_sample_skips_noise() {
        let mut c = Circuit::new(1);
        c.noise(NoiseChannel::XError(1.0), &[0]);
        c.measure(0);
        assert!(!reference_sample(&c).get(0));
        // ... but a real run applies it.
        let rec = TableauSimulator::new(1, rng(1)).run(&c);
        assert!(rec.get(0));
    }

    #[test]
    fn teleportation_always_verifies() {
        let c = teleportation();
        for seed in 0..32 {
            let rec = TableauSimulator::new(3, rng(seed)).run(&c);
            assert!(
                !rec.get(2),
                "teleportation verification failed (seed {seed})"
            );
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut c = Circuit::new(1);
        c.x(0);
        c.reset(0);
        c.measure(0);
        let rec = TableauSimulator::new(1, rng(3)).run(&c);
        assert!(!rec.get(0));
    }

    #[test]
    fn reset_of_entangled_qubit() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c.reset(0);
        c.measure(0);
        let rec = TableauSimulator::new(2, rng(4)).run(&c);
        assert!(!rec.get(0));
    }

    #[test]
    fn measure_reset_records_then_clears() {
        let mut c = Circuit::new(1);
        c.x(0);
        c.measure_reset(0);
        c.measure(0);
        let rec = TableauSimulator::new(1, rng(5)).run(&c);
        assert!(rec.get(0));
        assert!(!rec.get(1));
    }

    #[test]
    fn deterministic_noise_probability_one() {
        let mut c = Circuit::new(2);
        c.noise(NoiseChannel::ZError(1.0), &[0]); // Z on |0⟩: no effect
        c.noise(NoiseChannel::XError(1.0), &[1]);
        c.measure_all();
        let rec = TableauSimulator::new(2, rng(6)).run(&c);
        assert!(!rec.get(0));
        assert!(rec.get(1));
    }

    #[test]
    fn feedback_applies_conditionally() {
        // Measure |1⟩, then feedback-X another qubit: it must flip.
        let mut c = Circuit::new(2);
        c.x(0);
        c.measure(0);
        c.feedback(PauliKind::X, -1, 1);
        c.measure(1);
        let rec = TableauSimulator::new(2, rng(7)).run(&c);
        assert!(rec.get(0) && rec.get(1));

        // Measure |0⟩: feedback must not fire.
        let mut c = Circuit::new(2);
        c.measure(0);
        c.feedback(PauliKind::X, -1, 1);
        c.measure(1);
        let rec = TableauSimulator::new(2, rng(8)).run(&c);
        assert!(!rec.get(0) && !rec.get(1));
    }

    #[test]
    fn depolarize2_probability_one_changes_state_sometimes() {
        // With p = 1 a non-identity Pauli is applied; measuring in Z basis
        // detects X components ~ often. Just check it runs and stays valid.
        let mut c = Circuit::new(2);
        c.noise(NoiseChannel::Depolarize2(1.0), &[0, 1]);
        c.measure_all();
        let mut flips = 0;
        for seed in 0..40 {
            let rec = TableauSimulator::new(2, rng(seed)).run(&c);
            flips += rec.iter_ones().count();
        }
        assert!(flips > 0, "two-qubit depolarizing never flipped anything");
    }

    #[test]
    fn sampler_backend_matches_single_shot_statistics() {
        let mut c = Circuit::new(2);
        c.noise(NoiseChannel::XError(0.3), &[0]);
        c.measure_all();
        c.detector(&[-2]);
        let s = TableauSampler::new(&c);
        assert_eq!(s.num_measurements(), 2);
        assert_eq!(s.num_detectors(), 1);
        let shots = 20_000;
        let batch = s.sample(shots, &mut rng(9));
        let ones = (0..shots).filter(|&i| batch.measurements.get(0, i)).count();
        assert!(
            (ones as f64 - 6000.0).abs() < 6.0 * (shots as f64 * 0.3 * 0.7).sqrt(),
            "X error rate off: {ones}"
        );
        // Detector mirrors measurement 0 here.
        for shot in 0..200 {
            assert_eq!(
                batch.detectors.get(0, shot),
                batch.measurements.get(0, shot)
            );
        }
    }

    #[test]
    fn sampler_backend_par_is_deterministic() {
        let c = bell_pair();
        let s = TableauSampler::new(&c);
        let cfg = symphase_backend::SimConfig::new().with_seed(77);
        let a = symphase_backend::collect(&s, 5000, &cfg);
        let b = symphase_backend::collect(&s, 5000, &cfg.with_threads(0));
        assert_eq!(a, b);
    }

    #[test]
    fn structured_repeat_matches_flattened_trajectories() {
        // The tableau engine streams REPEAT blocks through the shared
        // driver; for equal seeds the trajectory must be bit-identical to
        // running the materialized flattening.
        let text = "R 0 1\nH 0\nM 0\nREPEAT 8 {\n CX rec[-1] 1\n DEPOLARIZE1(0.3) 0\n MR 1\n DETECTOR rec[-1] rec[-2]\n}\n";
        let structured = Circuit::parse(text).unwrap();
        let flat = structured.flattened();
        for seed in 0..8 {
            let a = TableauSimulator::new(2, rng(seed)).run(&structured);
            let b = TableauSimulator::new(2, rng(seed)).run(&flat);
            assert_eq!(a, b, "seed {seed}");
        }
    }
}
