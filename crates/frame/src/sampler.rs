//! The Stim-style batch sampler: reference sample + frame propagation.

use rand::{Rng, RngCore};

use symphase_backend::exec::{self, Walker};
use symphase_backend::noise::{self, FaultSink, NoiseScratch, NoiseSite};
use symphase_backend::{record, SampleBatch, Sampler};
use symphase_bitmat::{BitMatrix, BitVec};
use symphase_circuit::{Circuit, Gate, PauliKind};
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
    fn sample_measurements_into<R: Rng>(&self, out: &mut BitMatrix, rng: &mut R) {
        let n = self.circuit.num_qubits() as usize;
        let mut walker = FrameWalker {
            frame: FrameBatch::new(n, out.cols(), rng),
            out,
            reference: &self.reference,
            rng,
            scratch: NoiseScratch::default(),
        };
        exec::walk(&self.circuit, &mut walker);
    }
}

/// The frame sampler's [`Walker`]: the reference run walks the same
/// lowering, so each record is `reference ⊕ frame.x`.
struct FrameWalker<'a, R> {
    frame: FrameBatch,
    out: &'a mut BitMatrix,
    reference: &'a BitVec,
    rng: &'a mut R,
    /// Carries correlated chains across their E/ELSE sites.
    scratch: NoiseScratch,
}

impl<R: Rng> Walker for FrameWalker<'_, R> {
    fn apply_gate(&mut self, gate: Gate, targets: &[u32]) {
        self.frame.apply_gate(gate, targets);
    }

    fn measure_z(&mut self, q: u32, record: Option<usize>, reset: bool) {
        let q = q as usize;
        if let Some(m) = record {
            // Writes `reference[m] ⊕ frame.x[q]` into output row `m`.
            let stride = self.out.stride();
            let tail = symphase_bitmat::word::tail_mask(self.out.cols());
            let row = &mut self.out.words_mut()[m * stride..(m + 1) * stride];
            let xr = self.frame.x_row(q);
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
        if reset {
            self.frame.clear_x(q);
        }
        self.frame.randomize_z(q, self.rng);
    }

    fn noise(&mut self, site: &NoiseSite, slots: [&[(PauliKind, u32)]; 4]) {
        let shots = self.frame.shots();
        let mut sink = FrameSink::new(&mut self.frame, slots);
        noise::draw(site, shots, self.rng, &mut self.scratch, &mut sink);
    }

    fn feedback(&mut self, pauli: PauliKind, target: u32, record: usize) {
        // The reference run already applied feedback for the reference
        // outcomes; only the per-shot flip difference propagates into the
        // frame.
        let flip = [(pauli, target)];
        FrameSink::new(&mut self.frame, [&flip, &[], &[], &[]]).mask(0, self.out.row(record));
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
