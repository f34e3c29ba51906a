//! The one circuit walk, and the single-shot driver built on it.
//!
//! [`walk`] lowers a circuit to four Z-basis primitives — a gate, a
//! Z measurement (optionally recorded, optionally followed by a reset), a
//! noise site, and a classically controlled Pauli — and hands them to a
//! [`Walker`]. It is the only place that knows how an instruction lowers:
//! the basis conjugation of `MX`/`MY`/`RX`/`MRY`/…, the
//! [`pauli_product_plan`] of `MPP`, the split of noise targets into sites,
//! and the record index of every outcome and feedback lookback. Every
//! engine is a `Walker`: SymPhase's Initialization, the Pauli-frame
//! sampler (whose reference run and frame walk therefore cannot drift
//! apart), and [`run_shot`], the single-shot driver of the tableau and
//! state-vector engines.
//!
//! [`run_shot`] draws its noise through [`noise::draw`] over a one-shot
//! window, so all engines share one noise semantics.

use rand::{Rng, RngCore};
use symphase_bitmat::bernoulli::fill_bernoulli;
use symphase_bitmat::{BitVec, Word};
use symphase_circuit::{pauli_product_plan, Circuit, Gate, Instruction, PauliKind};

use crate::noise::{self, channel_slots, FaultSink, NoiseScratch, NoiseSite};
use crate::{record, SampleBatch};

/// The Z-basis primitives an engine implements to run a circuit through
/// [`walk`].
pub trait Walker {
    /// Applies a Clifford gate to broadcast targets.
    fn apply_gate(&mut self, gate: Gate, targets: &[u32]);

    /// Z-basis measurement of qubit `q`. `record` is the outcome's index
    /// in the measurement record, or `None` for a reset, which records
    /// nothing; with `reset` set, the qubit is then returned to `|0⟩`.
    fn measure_z(&mut self, q: u32, record: Option<usize>, reset: bool);

    /// One noise site: when slot `k` fires, the Pauli product `slots[k]`
    /// applies. Slots past [`NoiseSite::slots`] are empty.
    fn noise(&mut self, site: &NoiseSite, slots: [&[(PauliKind, u32)]; 4]);

    /// Applies `pauli` to `target` when record `record` is 1.
    fn feedback(&mut self, pauli: PauliKind, target: u32, record: usize);
}

/// Lowers `circuit` to `walker`'s primitives in execution order.
///
/// The circuit is traversed through the streaming
/// [`Circuit::flat_instructions`] iterator, so structured `REPEAT` blocks
/// run without being materialized. Feedback lookbacks resolve against the
/// records counted so far — inside a repeat body that can be the previous
/// iteration's measurements.
///
/// # Panics
///
/// Panics if a feedback lookback reaches before the first measurement
/// (circuit construction validates this, so only hand-built instruction
/// streams can trip it).
pub fn walk(circuit: &Circuit, walker: &mut impl Walker) {
    let mut measured = 0usize;
    for inst in circuit.flat_instructions() {
        match inst {
            Instruction::Gate { gate, targets } => walker.apply_gate(*gate, targets),
            Instruction::Measure { basis, targets }
            | Instruction::Reset { basis, targets }
            | Instruction::MeasureReset { basis, targets } => {
                let records = !matches!(inst, Instruction::Reset { .. });
                let reset = !matches!(inst, Instruction::Measure { .. });
                // The self-inverse basis change before and after reduces
                // the operation to a Z-basis one.
                let conjugator = basis.z_conjugator();
                for &q in targets {
                    if let Some(g) = conjugator {
                        walker.apply_gate(g, &[q]);
                    }
                    let record = records.then_some(measured);
                    measured += usize::from(records);
                    walker.measure_z(q, record, reset);
                    if let Some(g) = conjugator {
                        walker.apply_gate(g, &[q]);
                    }
                }
            }
            Instruction::MeasurePauliProduct { products } => {
                for product in products {
                    // Compute the product onto the anchor's Z, measure,
                    // uncompute.
                    let (ops, anchor) = pauli_product_plan(product);
                    for op in &ops {
                        walker.apply_gate(op.gate, op.targets());
                    }
                    walker.measure_z(anchor, Some(measured), false);
                    measured += 1;
                    for op in ops.iter().rev() {
                        walker.apply_gate(op.gate, op.targets());
                    }
                }
            }
            Instruction::Noise { channel, targets } => {
                let site = NoiseSite::from(*channel);
                let used = site.slots();
                for t in targets.chunks_exact(channel.arity()) {
                    let p = channel_slots(*channel, t);
                    let slots = std::array::from_fn(|k| if k < used { &p[k..=k] } else { &[] });
                    walker.noise(&site, slots);
                }
            }
            Instruction::CorrelatedError {
                probability,
                product,
                else_branch,
            } => {
                let site = NoiseSite::Correlated {
                    p: *probability,
                    else_branch: *else_branch,
                };
                walker.noise(&site, [product, &[], &[], &[]]);
            }
            Instruction::Feedback {
                pauli,
                lookback,
                target,
            } => {
                let idx = measured as i64 + lookback;
                assert!(idx >= 0, "lookback validated at construction");
                walker.feedback(*pauli, *target, idx as usize);
            }
            Instruction::Detector { .. }
            | Instruction::ObservableInclude { .. }
            | Instruction::Tick
            | Instruction::QubitCoords { .. }
            | Instruction::ShiftCoords { .. } => {}
            Instruction::Repeat { .. } => {
                unreachable!("flat_instructions expands REPEAT blocks")
            }
        }
    }
}

/// The per-representation primitives a single-shot engine provides.
pub trait ShotState {
    /// Applies a Clifford gate to broadcast targets.
    fn apply_gate(&mut self, gate: Gate, targets: &[u32]);

    /// Z-basis measurement of qubit `q`, collapsing the state.
    ///
    /// When `reference` is set the engine must fix random outcomes to 0
    /// (the canonical reference-sample convention); deterministic
    /// outcomes are returned as-is.
    fn measure(&mut self, q: u32, rng: &mut dyn RngCore, reference: bool) -> bool;

    /// Applies a concrete Pauli (from a fired noise slot or feedback).
    fn apply_pauli(&mut self, kind: PauliKind, q: u32) {
        self.apply_gate(kind.gate(), &[q]);
    }
}

/// Runs one shot of `circuit` on `state` and returns the measurement
/// record.
///
/// Noise sites are drawn with [`noise::draw`] over a one-shot window, and
/// fired slots apply their Paulis to the state. With `reference` set,
/// noise is skipped and random measurement outcomes are fixed to 0 — the
/// noiseless reference-sample convention shared by Algorithm 1's Init-M
/// and the Pauli-frame baseline.
///
/// # Panics
///
/// Panics where [`walk`] does.
pub fn run_shot<S: ShotState + ?Sized>(
    state: &mut S,
    circuit: &Circuit,
    rng: &mut dyn RngCore,
    reference: bool,
) -> BitVec {
    let mut shot = Shot {
        state,
        rng,
        reference,
        record: BitVec::new(),
        scratch: NoiseScratch::default(),
    };
    walk(circuit, &mut shot);
    shot.record
}

/// [`run_shot`]'s walker: one shot's state, its RNG and its record.
struct Shot<'a, S: ?Sized> {
    state: &'a mut S,
    rng: &'a mut dyn RngCore,
    reference: bool,
    record: BitVec,
    /// Carries correlated chains across their E/ELSE sites.
    scratch: NoiseScratch,
}

impl<S: ShotState + ?Sized> Walker for Shot<'_, S> {
    fn apply_gate(&mut self, gate: Gate, targets: &[u32]) {
        self.state.apply_gate(gate, targets);
    }

    fn measure_z(&mut self, q: u32, record: Option<usize>, reset: bool) {
        let m = self.state.measure(q, self.rng, self.reference);
        if reset && m {
            self.state.apply_pauli(PauliKind::X, q);
        }
        if record.is_some() {
            self.record.push(m);
        }
    }

    fn noise(&mut self, site: &NoiseSite, slots: [&[(PauliKind, u32)]; 4]) {
        if !self.reference {
            let mut sink = ShotSink {
                state: &mut *self.state,
                slots,
            };
            noise::draw(site, 1, &mut self.rng, &mut self.scratch, &mut sink);
        }
    }

    fn feedback(&mut self, pauli: PauliKind, target: u32, record: usize) {
        if self.record.get(record) {
            self.state.apply_pauli(pauli, target);
        }
    }
}

/// Applies the fired slots of a one-shot noise draw to a shot state.
struct ShotSink<'a, S: ?Sized> {
    state: &'a mut S,
    slots: [&'a [(PauliKind, u32)]; 4],
}

impl<S: ShotState + ?Sized> FaultSink for ShotSink<'_, S> {
    fn bernoulli<R: Rng>(&mut self, slot: usize, p: f64, width: usize, rng: &mut R) {
        let mut fired: [Word; 1] = [0];
        fill_bernoulli(&mut fired, width, p, rng);
        self.mask(slot, &fired);
    }

    fn set(&mut self, slot: usize, _shot: usize) {
        for &(kind, q) in self.slots[slot] {
            self.state.apply_pauli(kind, q);
        }
    }

    fn mask(&mut self, slot: usize, fired: &[Word]) {
        if fired[0] & 1 != 0 {
            self.set(slot, 0);
        }
    }
}

/// The shared batch adapter for per-shot engines (tableau, statevec):
/// resolved detector/observable measurement sets plus the loop turning
/// independent [`run_shot`] trajectories into a [`SampleBatch`].
#[derive(Clone, Debug)]
pub struct ShotBatcher {
    det_sets: Vec<Vec<usize>>,
    obs_sets: Vec<Vec<usize>>,
}

impl ShotBatcher {
    /// Resolves the record sets of `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        Self {
            det_sets: record::detector_measurement_sets(circuit),
            obs_sets: record::observable_measurement_sets(circuit),
        }
    }

    /// Number of detectors.
    pub fn num_detectors(&self) -> usize {
        self.det_sets.len()
    }

    /// Number of observables.
    pub fn num_observables(&self) -> usize {
        self.obs_sets.len()
    }

    /// Fills `batch` (cleared first) by running one fresh shot state per
    /// column, then derives detectors and observables from the recorded
    /// measurements.
    pub fn sample_into<S: ShotState>(
        &self,
        circuit: &Circuit,
        mut new_state: impl FnMut() -> S,
        batch: &mut SampleBatch,
        rng: &mut dyn RngCore,
    ) {
        // Detector/observable derivation accumulates by XOR; clear so
        // reused batches don't mix draws.
        batch.clear();
        for shot in 0..batch.shots() {
            let mut state = new_state();
            let rec = run_shot(&mut state, circuit, rng, false);
            for m in 0..rec.len() {
                batch.measurements.set(m, shot, rec.get(m));
            }
        }
        record::xor_rows_into(&self.det_sets, &batch.measurements, &mut batch.detectors);
        record::xor_rows_into(&self.obs_sets, &batch.measurements, &mut batch.observables);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symphase_circuit::NoiseChannel;
    use PauliKind::{X, Y, Z};

    /// A toy classical state: the Pauli (x, z bits) each qubit carries.
    /// `X`/`Y`/`Z` gates compose into it, every other gate is ignored,
    /// and a measurement reads the x bit.
    struct Paulis(Vec<(bool, bool)>);

    impl Paulis {
        fn new(n: usize) -> Self {
            Self(vec![(false, false); n])
        }

        /// Qubits carrying a non-identity Pauli.
        fn weight(&self) -> usize {
            self.0.iter().filter(|&&(x, z)| x || z).count()
        }
    }

    impl ShotState for Paulis {
        fn apply_gate(&mut self, gate: Gate, targets: &[u32]) {
            let (fx, fz) = match gate {
                Gate::X => X.xz(),
                Gate::Y => Y.xz(),
                Gate::Z => Z.xz(),
                _ => return,
            };
            for &q in targets {
                let (x, z) = &mut self.0[q as usize];
                *x ^= fx;
                *z ^= fz;
            }
        }

        fn measure(&mut self, q: u32, _rng: &mut dyn RngCore, _reference: bool) -> bool {
            self.0[q as usize].0
        }
    }

    #[test]
    fn driver_records_and_feeds_back() {
        let mut c = Circuit::new(2);
        c.x(0);
        c.measure(0);
        c.feedback(PauliKind::X, -1, 1);
        c.measure(1);
        let mut rng = StdRng::seed_from_u64(0);
        let rec = run_shot(&mut Paulis::new(2), &c, &mut rng, false);
        assert!(rec.get(0));
        assert!(rec.get(1), "feedback must have fired");
    }

    #[test]
    fn reset_clears_through_driver() {
        let mut c = Circuit::new(1);
        c.x(0);
        c.reset(0);
        c.measure(0);
        let mut rng = StdRng::seed_from_u64(0);
        let rec = run_shot(&mut Paulis::new(1), &c, &mut rng, false);
        assert!(!rec.get(0));
    }

    #[test]
    fn reference_mode_skips_noise() {
        let mut c = Circuit::new(1);
        c.noise(NoiseChannel::XError(1.0), &[0]);
        c.measure(0);
        let mut rng = StdRng::seed_from_u64(0);
        let rec = run_shot(&mut Paulis::new(1), &c, &mut rng, true);
        assert!(!rec.get(0));
        let rec = run_shot(&mut Paulis::new(1), &c, &mut rng, false);
        assert!(rec.get(0));
    }

    #[test]
    fn trajectory_rates_match_channel() {
        let mut c = Circuit::new(1);
        c.noise(NoiseChannel::Depolarize1(0.3), &[0]);
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 50_000;
        let mut fired = 0usize;
        for _ in 0..trials {
            let mut state = Paulis::new(1);
            run_shot(&mut state, &c, &mut rng, false);
            fired += state.weight();
        }
        let expect = 0.3 * trials as f64;
        assert!(
            (fired as f64 - expect).abs() < 6.0 * (expect * 0.7).sqrt(),
            "fire count {fired} vs {expect}"
        );
    }

    #[test]
    fn depolarize2_never_applies_identity() {
        let mut c = Circuit::new(2);
        c.noise(NoiseChannel::Depolarize2(1.0), &[0, 1]);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..2000 {
            let mut state = Paulis::new(2);
            run_shot(&mut state, &c, &mut rng, false);
            let n = state.weight();
            assert!((1..=2).contains(&n), "fired {n} Paulis");
        }
    }

    /// One lowered primitive, as a [`Recorder`] saw it.
    #[derive(Debug, PartialEq)]
    enum Step {
        Gate(Gate, Vec<u32>),
        MeasureZ(u32, Option<usize>, bool),
        Noise(NoiseSite, [Vec<(PauliKind, u32)>; 4]),
        Feedback(PauliKind, u32, usize),
    }

    #[derive(Default)]
    struct Recorder(Vec<Step>);

    impl Walker for Recorder {
        fn apply_gate(&mut self, gate: Gate, targets: &[u32]) {
            self.0.push(Step::Gate(gate, targets.to_vec()));
        }
        fn measure_z(&mut self, q: u32, record: Option<usize>, reset: bool) {
            self.0.push(Step::MeasureZ(q, record, reset));
        }
        fn noise(&mut self, site: &NoiseSite, slots: [&[(PauliKind, u32)]; 4]) {
            self.0.push(Step::Noise(*site, slots.map(<[_]>::to_vec)));
        }
        fn feedback(&mut self, pauli: PauliKind, target: u32, record: usize) {
            self.0.push(Step::Feedback(pauli, target, record));
        }
    }

    /// The exact lowering of every instruction kind: basis conjugators
    /// around Z measurements, record indices and reset flags, the `MPP`
    /// compute/measure/uncompute plan, noise slots per site, and a
    /// feedback lookback that reaches the previous `REPEAT` iteration.
    #[test]
    fn golden_lowering() {
        let text = "MX 0\nMY 1\nRX 2\nMRY 0\nMPP X0*Y1*Z2\nY_ERROR(0.1) 1\n\
                    DEPOLARIZE1(0.2) 2\nDEPOLARIZE2(0.1) 0 1\n\
                    PAULI_CHANNEL_2(0.01,0.01,0.01,0.01,0.01,0.01,0.01,0.01,0.01,0.01,0.01,0.01,0.01,0.01,0.01) 1 2\n\
                    E(0.1) X0 Z1\nELSE_CORRELATED_ERROR(0.2) Y2\n\
                    REPEAT 2 {\n M 2\n CX rec[-2] 0\n}\n";
        let c = Circuit::parse(text).unwrap();
        let mut rec = Recorder::default();
        walk(&c, &mut rec);

        let g = |gate, t: &[u32]| Step::Gate(gate, t.to_vec());
        let n = |site, slots: [&[(PauliKind, u32)]; 4]| Step::Noise(site, slots.map(<[_]>::to_vec));
        let expected = vec![
            // MX 0
            g(Gate::H, &[0]),
            Step::MeasureZ(0, Some(0), false),
            g(Gate::H, &[0]),
            // MY 1
            g(Gate::HYz, &[1]),
            Step::MeasureZ(1, Some(1), false),
            g(Gate::HYz, &[1]),
            // RX 2: no record
            g(Gate::H, &[2]),
            Step::MeasureZ(2, None, true),
            g(Gate::H, &[2]),
            // MRY 0
            g(Gate::HYz, &[0]),
            Step::MeasureZ(0, Some(2), true),
            g(Gate::HYz, &[0]),
            // MPP X0*Y1*Z2: compute onto Z0, measure, uncompute
            g(Gate::H, &[0]),
            g(Gate::HYz, &[1]),
            g(Gate::Cx, &[1, 0]),
            g(Gate::Cx, &[2, 0]),
            Step::MeasureZ(0, Some(3), false),
            g(Gate::Cx, &[2, 0]),
            g(Gate::Cx, &[1, 0]),
            g(Gate::HYz, &[1]),
            g(Gate::H, &[0]),
            n(NoiseSite::Bernoulli(0.1), [&[(Y, 1)], &[], &[], &[]]),
            n(
                NoiseSite::Depolarize1(0.2),
                [&[(X, 2)], &[(Z, 2)], &[], &[]],
            ),
            n(
                NoiseSite::Depolarize2(0.1),
                [&[(X, 0)], &[(Z, 0)], &[(X, 1)], &[(Z, 1)]],
            ),
            n(
                NoiseSite::PauliChannel2 { probs: [0.01; 15] },
                [&[(X, 1)], &[(Z, 1)], &[(X, 2)], &[(Z, 2)]],
            ),
            n(
                NoiseSite::Correlated {
                    p: 0.1,
                    else_branch: false,
                },
                [&[(X, 0), (Z, 1)], &[], &[], &[]],
            ),
            n(
                NoiseSite::Correlated {
                    p: 0.2,
                    else_branch: true,
                },
                [&[(Y, 2)], &[], &[], &[]],
            ),
            // REPEAT iteration 0: rec[-2] is the MPP outcome.
            Step::MeasureZ(2, Some(4), false),
            Step::Feedback(X, 0, 3),
            // Iteration 1: rec[-2] is iteration 0's measurement.
            Step::MeasureZ(2, Some(5), false),
            Step::Feedback(X, 0, 4),
        ];
        assert_eq!(rec.0, expected);
    }
}
