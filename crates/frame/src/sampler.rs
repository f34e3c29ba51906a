//! The Stim-style batch sampler: reference sample + frame propagation.

use rand::{Rng, RngCore};

use symphase_backend::noise::{self, FaultSink, NoiseScratch, NoiseSite};
use symphase_backend::{record, SampleBatch, Sampler};
use symphase_bitmat::{BitMatrix, BitVec};
use symphase_circuit::{pauli_product_plan, Circuit, Instruction, PauliKind};
use symphase_tableau::reference_sample;

use crate::batch::{FrameBatch, FrameSink};

/// A measurement sampler that propagates Pauli frames per shot, exactly the
/// architecture the paper's Table 1 attributes to Stim.
///
/// Construction ("initializing the sampler" in Fig. 3) runs one noiseless
/// tableau simulation to obtain the reference sample. Each
/// [`FrameSampler::sample`] call then traverses the circuit once **per
/// batch**, with per-shot cost proportional to circuit size — the cost that
/// `symphase-core`'s Algorithm 1 replaces with a matrix multiplication.
///
/// # Example
///
/// ```
/// use symphase_circuit::generators::ghz;
/// use symphase_frame::FrameSampler;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let sampler = FrameSampler::new(&ghz(3));
/// let s = sampler.sample(128, &mut StdRng::seed_from_u64(2));
/// assert_eq!(s.rows(), 3);
/// assert_eq!(s.cols(), 128);
/// ```
#[derive(Clone, Debug)]
pub struct FrameSampler {
    circuit: Circuit,
    reference: BitVec,
    det_sets: Vec<Vec<usize>>,
    obs_sets: Vec<Vec<usize>>,
}

impl FrameSampler {
    /// Builds the sampler: computes the noiseless reference sample with the
    /// tableau simulator.
    pub fn new(circuit: &Circuit) -> Self {
        Self {
            circuit: circuit.clone(),
            reference: reference_sample(circuit),
            det_sets: record::detector_measurement_sets(circuit),
            obs_sets: record::observable_measurement_sets(circuit),
        }
    }

    /// The noiseless reference sample.
    pub fn reference(&self) -> &BitVec {
        &self.reference
    }

    /// Samples `shots` measurement records; the result is
    /// measurement-major (`num_measurements × shots`).
    pub fn sample(&self, shots: usize, rng: &mut impl Rng) -> BitMatrix {
        let nm = self.circuit.num_measurements();
        let mut out = BitMatrix::zeros(nm, shots);
        self.sample_measurements_into(&mut out, rng);
        out
    }

    /// Propagates one frame batch, writing measurement records into `out`
    /// (`num_measurements × shots`, zeroed by the caller).
    fn sample_measurements_into(&self, out: &mut BitMatrix, rng: &mut impl Rng) {
        let n = self.circuit.num_qubits() as usize;
        let shots = out.cols();
        let mut frame = FrameBatch::new(n, shots, rng);
        let mut measured = 0usize;
        // Carries correlated chains across their E/ELSE instructions.
        let mut scratch = NoiseScratch::default();

        for inst in self.circuit.flat_instructions() {
            match inst {
                Instruction::Gate { gate, targets } => frame.apply_gate(*gate, targets),
                Instruction::Measure { basis, targets } => {
                    for &q in targets {
                        conjugated(&mut frame, *basis, q, |frame| {
                            self.record_measurement(out, measured, frame, q as usize);
                            frame.randomize_z(q as usize, rng);
                        });
                        measured += 1;
                    }
                }
                Instruction::Reset { basis, targets } => {
                    for &q in targets {
                        conjugated(&mut frame, *basis, q, |frame| {
                            frame.clear_x(q as usize);
                            frame.randomize_z(q as usize, rng);
                        });
                    }
                }
                Instruction::MeasureReset { basis, targets } => {
                    for &q in targets {
                        conjugated(&mut frame, *basis, q, |frame| {
                            self.record_measurement(out, measured, frame, q as usize);
                            frame.clear_x(q as usize);
                            frame.randomize_z(q as usize, rng);
                        });
                        measured += 1;
                    }
                }
                Instruction::MeasurePauliProduct { products } => {
                    for product in products {
                        // Same compute/measure/uncompute plan as the
                        // reference run, so frame bits line up with it.
                        let (ops, anchor) = pauli_product_plan(product);
                        for op in &ops {
                            frame.apply_gate(op.gate, op.targets());
                        }
                        self.record_measurement(out, measured, &frame, anchor as usize);
                        frame.randomize_z(anchor as usize, rng);
                        for op in ops.iter().rev() {
                            frame.apply_gate(op.gate, op.targets());
                        }
                        measured += 1;
                    }
                }
                Instruction::Noise { channel, targets } => {
                    let site = NoiseSite::from(*channel);
                    for t in targets.chunks_exact(channel.arity()) {
                        let p = noise::channel_slots(*channel, t);
                        let slots = [&p[0..1], &p[1..2], &p[2..3], &p[3..4]];
                        let mut sink = FrameSink::new(&mut frame, slots);
                        noise::draw(&site, shots, rng, &mut scratch, &mut sink);
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
                    let mut sink = FrameSink::new(&mut frame, [product, &[], &[], &[]]);
                    noise::draw(&site, shots, rng, &mut scratch, &mut sink);
                }
                Instruction::Feedback {
                    pauli,
                    lookback,
                    target,
                } => {
                    let m = (measured as i64 + lookback) as usize;
                    // The reference run already applied feedback for the
                    // reference outcomes; only the per-shot flip difference
                    // propagates into the frame.
                    let flip = [(*pauli, *target)];
                    FrameSink::new(&mut frame, [&flip, &[], &[], &[]]).mask(0, out.row(m));
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

    /// Writes `reference[m] ⊕ frame.x[q]` into output row `m`.
    fn record_measurement(&self, out: &mut BitMatrix, m: usize, frame: &FrameBatch, q: usize) {
        let stride = out.stride();
        let tail = symphase_bitmat::word::tail_mask(out.cols());
        let row = &mut out.words_mut()[m * stride..(m + 1) * stride];
        let xr = frame.x_row(q);
        if self.reference.get(m) {
            for (d, s) in row.iter_mut().zip(xr) {
                *d = !*s;
            }
            // Keep slack bits canonical after the negation path.
            if let Some(last) = row.last_mut() {
                *last &= tail;
            }
        } else {
            row.copy_from_slice(xr);
        }
    }
}

impl Sampler for FrameSampler {
    fn name(&self) -> &'static str {
        "frame"
    }

    fn num_measurements(&self) -> usize {
        self.circuit.num_measurements()
    }

    fn num_detectors(&self) -> usize {
        self.det_sets.len()
    }

    fn num_observables(&self) -> usize {
        self.obs_sets.len()
    }

    fn sample_into(&self, batch: &mut SampleBatch, mut rng: &mut dyn RngCore) {
        // Detector/observable derivation accumulates by XOR; clear so
        // reused batches don't mix draws.
        batch.clear();
        self.sample_measurements_into(&mut batch.measurements, &mut rng);
        record::xor_rows_into(&self.det_sets, &batch.measurements, &mut batch.detectors);
        record::xor_rows_into(&self.obs_sets, &batch.measurements, &mut batch.observables);
    }
}

/// Runs `f` inside the basis conjugation of `basis` on qubit `q`: the
/// self-inverse basis-change gate conjugates the frame before and after,
/// so Z-basis record/reset primitives act on the requested basis. The
/// reference run performs the identical conjugation, keeping the
/// reference-XOR-frame decomposition aligned.
fn conjugated(frame: &mut FrameBatch, basis: PauliKind, q: u32, f: impl FnOnce(&mut FrameBatch)) {
    let gate = basis.z_conjugator();
    if let Some(g) = gate {
        frame.apply_gate(g, &[q]);
    }
    f(frame);
    if let Some(g) = gate {
        frame.apply_gate(g, &[q]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symphase_circuit::generators::{bell_pair, ghz, teleportation};
    use symphase_circuit::{Circuit, NoiseChannel};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn deterministic_circuit_reproduces_reference() {
        let mut c = Circuit::new(3);
        c.x(0);
        c.cx(0, 1);
        c.measure_all();
        let s = FrameSampler::new(&c);
        let out = s.sample(100, &mut rng(1));
        for shot in 0..100 {
            assert!(out.get(0, shot));
            assert!(out.get(1, shot));
            assert!(!out.get(2, shot));
        }
    }

    #[test]
    fn bell_pair_correlated_and_fair() {
        let s = FrameSampler::new(&bell_pair());
        let shots = 20_000;
        let out = s.sample(shots, &mut rng(2));
        let mut ones = 0usize;
        for shot in 0..shots {
            assert_eq!(
                out.get(0, shot),
                out.get(1, shot),
                "Bell outcomes must agree"
            );
            ones += usize::from(out.get(0, shot));
        }
        let dev = (ones as f64 - shots as f64 / 2.0).abs();
        assert!(
            dev < 6.0 * (shots as f64 / 4.0).sqrt(),
            "unfair coin: {ones}/{shots}"
        );
    }

    #[test]
    fn ghz_outcomes_identical_within_shot() {
        let s = FrameSampler::new(&ghz(5));
        let out = s.sample(512, &mut rng(3));
        for shot in 0..512 {
            let first = out.get(0, shot);
            for q in 1..5 {
                assert_eq!(out.get(q, shot), first);
            }
        }
    }

    #[test]
    fn teleportation_with_feedback_always_verifies() {
        let s = FrameSampler::new(&teleportation());
        let out = s.sample(1024, &mut rng(4));
        for shot in 0..1024 {
            assert!(!out.get(2, shot), "teleportation failed in shot {shot}");
        }
    }

    #[test]
    fn x_error_flip_rate() {
        let mut c = Circuit::new(1);
        c.noise(NoiseChannel::XError(0.2), &[0]);
        c.measure(0);
        let s = FrameSampler::new(&c);
        let shots = 100_000;
        let out = s.sample(shots, &mut rng(5));
        let ones: usize = (0..shots).filter(|&i| out.get(0, i)).count();
        let expect = 0.2 * shots as f64;
        assert!(
            (ones as f64 - expect).abs() < 6.0 * (shots as f64 * 0.2 * 0.8).sqrt(),
            "flip rate off: {ones}"
        );
    }

    #[test]
    fn z_error_invisible_in_z_basis() {
        let mut c = Circuit::new(1);
        c.noise(NoiseChannel::ZError(0.5), &[0]);
        c.measure(0);
        let s = FrameSampler::new(&c);
        let out = s.sample(1000, &mut rng(6));
        assert_eq!((0..1000).filter(|&i| out.get(0, i)).count(), 0);
    }

    #[test]
    fn mid_circuit_reset_clears_errors() {
        let mut c = Circuit::new(1);
        c.noise(NoiseChannel::XError(1.0), &[0]);
        c.reset(0);
        c.measure(0);
        let s = FrameSampler::new(&c);
        let out = s.sample(256, &mut rng(7));
        assert_eq!((0..256).filter(|&i| out.get(0, i)).count(), 0);
    }

    #[test]
    fn repeated_measurements_consistent() {
        // Measure the same random qubit twice: outcomes must agree per shot.
        let mut c = Circuit::new(1);
        c.h(0);
        c.measure(0);
        c.measure(0);
        let s = FrameSampler::new(&c);
        let out = s.sample(4096, &mut rng(8));
        for shot in 0..4096 {
            assert_eq!(out.get(0, shot), out.get(1, shot));
        }
    }

    #[test]
    fn independent_random_measurements_decorrelate() {
        // H;M twice on the same qubit with a reset between: independent.
        let mut c = Circuit::new(1);
        c.h(0);
        c.measure(0);
        c.reset(0);
        c.h(0);
        c.measure(0);
        let s = FrameSampler::new(&c);
        let shots = 40_000;
        let out = s.sample(shots, &mut rng(9));
        let mut agree = 0usize;
        for shot in 0..shots {
            agree += usize::from(out.get(0, shot) == out.get(1, shot));
        }
        let dev = (agree as f64 - shots as f64 / 2.0).abs();
        assert!(
            dev < 6.0 * (shots as f64 / 4.0).sqrt(),
            "correlated: {agree}/{shots}"
        );
    }
}
