//! Exact cross-engine equivalence by fault injection.
//!
//! Phase symbolization claims that each measurement outcome equals its
//! symbolic expression evaluated at the realized fault pattern (with
//! measurement coins fixed). This test *proves* that claim exhaustively on
//! random circuits: for a random fault assignment, build the concrete
//! circuit where every fault site is replaced by the corresponding Pauli
//! gates, take the canonical reference sample (coins → 0), and compare to
//! evaluating the symbolic expressions under the same assignment.
//!
//! Fact 2 guarantees both runs take identical control-flow branches, so
//! agreement must be bit-exact, shot for shot — no statistics involved.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use symphase::backend::{build_sampler, EngineKind, SimConfig};
use symphase::bitmat::BitVec;
use symphase::circuit::generators::{repetition_code_memory, RepetitionCodeConfig};
use symphase::circuit::{Circuit, Gate, NoiseChannel, PauliKind};
use symphase::core::SymPhaseSampler;
use symphase::sampler_api::{collect, SampleBatch};
use symphase::tableau::reference_sample;

/// A compact description of one random circuit.
#[derive(Clone, Debug)]
struct Plan {
    qubits: u32,
    steps: Vec<Step>,
}

#[derive(Clone, Debug)]
enum Step {
    Gate1(u8, u32),
    Gate2(u8, u32, u32),
    XError(u32),
    YError(u32),
    ZError(u32),
    Depolarize1(u32),
    Measure(u32),
    Reset(u32),
    MeasureReset(u32),
    FeedbackX(u32),
    /// `MX` / `MY` basis measurements.
    MeasureX(u32),
    MeasureY(u32),
    /// `RX` reset.
    ResetX(u32),
    /// `MPP X{a}*Z{b}` (distinct qubits).
    Mpp(u32, u32),
    /// `E(0.5) X{a} Z{b}` followed by `ELSE_CORRELATED_ERROR(0.5) Y{a}`.
    CorrelatedChain(u32, u32),
    /// `PAULI_CHANNEL_2` with uniform probabilities summing to 0.6.
    PauliChannel2(u32, u32),
}

const GATES1: [Gate; 9] = [
    Gate::X,
    Gate::Y,
    Gate::Z,
    Gate::H,
    Gate::S,
    Gate::SDag,
    Gate::SqrtX,
    Gate::SqrtY,
    Gate::SqrtXDag,
];
const GATES2: [Gate; 4] = [Gate::Cx, Gate::Cy, Gate::Cz, Gate::Swap];

fn plan_strategy() -> impl Strategy<Value = Plan> {
    (
        2u32..6,
        proptest::collection::vec((0u8..15, 0u8..9, any::<u16>()), 10..60),
    )
        .prop_map(|(qubits, raw)| {
            let mut steps = Vec::new();
            let mut measured = 0usize;
            for (kind, g, r) in raw {
                let q = r as u32 % qubits;
                let q2 = (q + 1 + (r as u32 >> 4) % (qubits - 1)) % qubits;
                match kind {
                    0 | 1 => steps.push(Step::Gate1(g % 9, q)),
                    2 => steps.push(Step::Gate2(g % 4, q, q2)),
                    3 => steps.push(Step::XError(q)),
                    4 => steps.push(Step::ZError(q)),
                    5 => steps.push(Step::Depolarize1(q)),
                    6 => {
                        steps.push(Step::Measure(q));
                        measured += 1;
                    }
                    7 => steps.push(Step::Reset(q)),
                    8 => {
                        steps.push(Step::MeasureReset(q));
                        measured += 1;
                    }
                    9 => {
                        if measured > 0 {
                            steps.push(Step::FeedbackX(q));
                        } else {
                            steps.push(Step::YError(q));
                        }
                    }
                    10 => {
                        steps.push(if g % 2 == 0 {
                            Step::MeasureX(q)
                        } else {
                            Step::MeasureY(q)
                        });
                        measured += 1;
                    }
                    11 => steps.push(Step::ResetX(q)),
                    12 => {
                        steps.push(Step::Mpp(q, q2));
                        measured += 1;
                    }
                    13 => steps.push(Step::CorrelatedChain(q, q2)),
                    _ => steps.push(Step::PauliChannel2(q, q2)),
                }
            }
            // Always measure everything at the end.
            for q in 0..qubits {
                steps.push(Step::Measure(q));
            }
            Plan { qubits, steps }
        })
}

/// Builds the noisy circuit (with noise channels) and, for a given fault
/// realization, the concrete circuit (with faults as explicit gates).
/// Returns `(noisy, concrete, assignment)` where `assignment` maps symbol
/// ids to their realized values (coins 0).
fn realize(plan: &Plan, rng: &mut StdRng) -> (Circuit, Circuit, BitVec) {
    let mut noisy = Circuit::new(plan.qubits);
    let mut concrete = Circuit::new(plan.qubits);
    // Build both circuits, remembering each fault site's realized bits in
    // instruction order; `assignment_for` later maps them onto the
    // sampler's symbol ids (which are allocated in the same order, with
    // coins interleaved and left at 0 = the reference convention).
    let mut fault_bits: Vec<bool> = Vec::new();
    for step in &plan.steps {
        match *step {
            Step::Gate1(g, q) => {
                let gate = GATES1[g as usize];
                noisy.gate(gate, &[q]);
                concrete.gate(gate, &[q]);
            }
            Step::Gate2(g, a, b) => {
                let gate = GATES2[g as usize];
                noisy.gate(gate, &[a, b]);
                concrete.gate(gate, &[a, b]);
            }
            Step::XError(q) => {
                noisy.noise(NoiseChannel::XError(0.5), &[q]);
                let fire = rng.random_bool(0.5);
                fault_bits.push(fire);
                if fire {
                    concrete.x(q);
                }
            }
            Step::YError(q) => {
                noisy.noise(NoiseChannel::YError(0.5), &[q]);
                let fire = rng.random_bool(0.5);
                fault_bits.push(fire);
                if fire {
                    concrete.y(q);
                }
            }
            Step::ZError(q) => {
                noisy.noise(NoiseChannel::ZError(0.5), &[q]);
                let fire = rng.random_bool(0.5);
                fault_bits.push(fire);
                if fire {
                    concrete.z(q);
                }
            }
            Step::Depolarize1(q) => {
                noisy.noise(NoiseChannel::Depolarize1(0.5), &[q]);
                let (fx, fz) = match rng.random_range(0..4u32) {
                    0 => (false, false),
                    1 => (true, false),
                    2 => (true, true),
                    _ => (false, true),
                };
                fault_bits.push(fx);
                fault_bits.push(fz);
                if fx {
                    concrete.x(q);
                }
                if fz {
                    concrete.z(q);
                }
            }
            Step::Measure(q) => {
                noisy.measure(q);
                concrete.measure(q);
            }
            Step::Reset(q) => {
                noisy.reset(q);
                concrete.reset(q);
            }
            Step::MeasureReset(q) => {
                noisy.measure_reset(q);
                concrete.measure_reset(q);
            }
            Step::FeedbackX(q) => {
                noisy.feedback(PauliKind::X, -1, q);
                concrete.feedback(PauliKind::X, -1, q);
            }
            Step::MeasureX(q) => {
                noisy.measure_in(PauliKind::X, q);
                concrete.measure_in(PauliKind::X, q);
            }
            Step::MeasureY(q) => {
                noisy.measure_in(PauliKind::Y, q);
                concrete.measure_in(PauliKind::Y, q);
            }
            Step::ResetX(q) => {
                noisy.reset_in(PauliKind::X, q);
                concrete.reset_in(PauliKind::X, q);
            }
            Step::Mpp(a, b) => {
                let product = [(PauliKind::X, a), (PauliKind::Z, b)];
                noisy.measure_pauli_product(&product);
                concrete.measure_pauli_product(&product);
            }
            Step::CorrelatedChain(a, b) => {
                noisy.correlated_error(0.5, &[(PauliKind::X, a), (PauliKind::Z, b)]);
                noisy.else_correlated_error(0.5, &[(PauliKind::Y, a)]);
                let fire1 = rng.random_bool(0.5);
                fault_bits.push(fire1);
                if fire1 {
                    concrete.x(a);
                    concrete.z(b);
                }
                // The ELSE element only fires when the chain has not.
                let fire2 = !fire1 && rng.random_bool(0.5);
                fault_bits.push(fire2);
                if fire2 {
                    concrete.y(a);
                }
            }
            Step::PauliChannel2(a, b) => {
                let probs = [0.6 / 15.0; 15];
                noisy.noise(NoiseChannel::PauliChannel2 { probs }, &[a, b]);
                let bits = if rng.random_bool(0.6) {
                    symphase::circuit::pauli_channel_2_bits(rng.random_range(1..16usize))
                } else {
                    [false; 4]
                };
                fault_bits.extend_from_slice(&bits);
                if bits[0] {
                    concrete.x(a);
                }
                if bits[1] {
                    concrete.z(a);
                }
                if bits[2] {
                    concrete.x(b);
                }
                if bits[3] {
                    concrete.z(b);
                }
            }
        }
    }
    let fault_vec = BitVec::from_bools(fault_bits);
    (noisy, concrete, fault_vec)
}

/// Maps the in-order fault bits onto the sampler's symbol ids: noise
/// symbols are allocated in instruction order, so the k-th fault bit is the
/// k-th non-coin symbol.
fn assignment_for(sampler: &SymPhaseSampler, fault_bits: &BitVec) -> BitVec {
    use symphase::core::SymbolGroup;
    let mut assignment = BitVec::zeros(sampler.symbol_table().assignment_len());
    let mut k = 0usize;
    for g in sampler.symbol_table().groups() {
        match g {
            SymbolGroup::Coin { .. } => {}
            SymbolGroup::Bernoulli { id, .. } => {
                assignment.set(id as usize, fault_bits.get(k));
                k += 1;
            }
            SymbolGroup::Depolarize1 { x_id, z_id, .. }
            | SymbolGroup::PauliChannel1 { x_id, z_id, .. } => {
                assignment.set(x_id as usize, fault_bits.get(k));
                assignment.set(z_id as usize, fault_bits.get(k + 1));
                k += 2;
            }
            SymbolGroup::Depolarize2 { ids, .. } | SymbolGroup::PauliChannel2 { ids, .. } => {
                for (j, &id) in ids.iter().enumerate() {
                    assignment.set(id as usize, fault_bits.get(k + j));
                }
                k += 4;
            }
            SymbolGroup::Correlated { id, .. } => {
                assignment.set(id as usize, fault_bits.get(k));
                k += 1;
            }
        }
    }
    assert_eq!(k, fault_bits.len(), "fault-bit bookkeeping out of sync");
    assignment
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn symbolic_expressions_predict_injected_faults(plan in plan_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (noisy, concrete, fault_bits) = realize(&plan, &mut rng);
        let sampler = SymPhaseSampler::new(&noisy);
        let assignment = assignment_for(&sampler, &fault_bits);
        let expected = reference_sample(&concrete);
        prop_assert_eq!(expected.len(), sampler.num_measurements());
        for m in 0..sampler.num_measurements() {
            let predicted = sampler.measurement_expr(m).eval(&assignment);
            prop_assert_eq!(
                predicted,
                expected.get(m),
                "measurement {} disagrees (plan {:?})",
                m,
                &plan
            );
        }
    }
}

// ---------------------------------------------------------------------
// Cross-backend matrix: every engine behind the shared `Sampler` trait
// must produce statistically identical measurement distributions on the
// same small noisy circuits (fixed seeds).
// ---------------------------------------------------------------------

/// Small noisy circuits exercising every instruction class: gates, all
/// noise channels, mid-circuit measurement, reset, measure-reset,
/// feedback, detectors and observables.
fn matrix_circuits() -> Vec<(&'static str, Circuit)> {
    let mut ghz = Circuit::new(4);
    ghz.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
    ghz.noise(NoiseChannel::Depolarize1(0.08), &[0, 1, 2, 3]);
    ghz.noise(NoiseChannel::XError(0.1), &[1]);
    ghz.measure_all();

    let rep = repetition_code_memory(&RepetitionCodeConfig {
        distance: 3,
        rounds: 2,
        data_error: 0.08,
        measure_error: 0.04,
    });

    let mut dynamic = Circuit::new(3);
    dynamic.h(0);
    dynamic.noise(
        NoiseChannel::PauliChannel1 {
            px: 0.1,
            py: 0.05,
            pz: 0.1,
        },
        &[0],
    );
    dynamic.cx(0, 1);
    dynamic.noise(NoiseChannel::Depolarize2(0.06), &[1, 2]);
    dynamic.measure(0);
    dynamic.feedback(PauliKind::X, -1, 1);
    dynamic.measure_reset(1);
    dynamic.noise(NoiseChannel::YError(0.12), &[2]);
    dynamic.h(2);
    dynamic.measure(2);
    dynamic.measure(1);

    // The basis-general / product-measurement / correlated-noise surface:
    // MX/MY/RX/RY/MRX, MPP, E + ELSE_CORRELATED_ERROR, PAULI_CHANNEL_2.
    let mut basis = Circuit::new(3);
    basis.reset_in(PauliKind::X, 0);
    basis.reset_in(PauliKind::Y, 1);
    basis.h(2);
    basis.correlated_error(0.15, &[(PauliKind::X, 0), (PauliKind::Z, 1)]);
    basis.else_correlated_error(0.5, &[(PauliKind::Y, 2)]);
    let mut probs = [0.0; 15];
    probs[3] = 0.1; // XI
    probs[9] = 0.05; // YY
    probs[14] = 0.1; // ZZ
    basis.noise(NoiseChannel::PauliChannel2 { probs }, &[1, 2]);
    basis.measure_pauli_product(&[(PauliKind::X, 0), (PauliKind::Z, 2)]);
    basis.measure_in(PauliKind::X, 0);
    basis.measure_in(PauliKind::Y, 1);
    basis.measure_reset_in(PauliKind::X, 2);
    basis.noise(NoiseChannel::XError(0.1), &[2]);
    basis.measure_in(PauliKind::X, 2);
    basis.measure_all();

    vec![
        ("noisy-ghz", ghz),
        ("repetition-code", rep),
        ("dynamic", dynamic),
        ("basis-general", basis),
    ]
}

/// The backend matrix of the acceptance criteria: SymPhase, the frame
/// baseline, the tableau reference, and the dense ground truth. (Both
/// SymPhase phase stores stream the same bytes: `tests/phase_repr.rs`.)
const MATRIX: [EngineKind; 4] = [
    EngineKind::SymPhase,
    EngineKind::Frame,
    EngineKind::Tableau,
    EngineKind::StateVec,
];

/// Builds one matrix backend through the configured factory.
fn build(kind: EngineKind, circuit: &Circuit) -> Box<dyn symphase::sampler_api::Sampler> {
    build_sampler(circuit, &SimConfig::new().with_engine(kind)).expect("matrix backend builds")
}

/// Rate of set bits in row `r`.
fn one_rate(batch: &SampleBatch, r: usize) -> f64 {
    let shots = batch.shots();
    let ones = (0..shots).filter(|&j| batch.measurements.get(r, j)).count();
    ones as f64 / shots as f64
}

/// Rate of `row_a ⊕ row_b` (pairwise correlation witness).
fn xor_rate(batch: &SampleBatch, a: usize, b: usize) -> f64 {
    let shots = batch.shots();
    let ones = (0..shots)
        .filter(|&j| batch.measurements.get(a, j) != batch.measurements.get(b, j))
        .count();
    ones as f64 / shots as f64
}

/// Asserts two empirical rates agree within 6σ of the pooled binomial
/// deviation (plus a floor for rates at 0 or 1).
fn assert_rates_close(what: &str, p1: f64, p2: f64, shots: usize) {
    let pool = 0.5 * (p1 + p2);
    let sd = (pool * (1.0 - pool) * 2.0 / shots as f64).sqrt();
    let tol = 6.0 * sd + 4.0 / shots as f64;
    assert!(
        (p1 - p2).abs() <= tol,
        "{what}: rates {p1:.4} vs {p2:.4} differ beyond 6σ ({tol:.4})"
    );
}

#[test]
fn cross_backend_measurement_distributions_agree() {
    let shots = 20_000;
    for (name, circuit) in matrix_circuits() {
        let batches: Vec<(&str, SampleBatch)> = MATRIX
            .iter()
            .map(|kind| {
                let sampler = build(*kind, &circuit);
                let cfg = SimConfig::new().with_seed(0xC0FFEE);
                (kind.name(), collect(sampler.as_ref(), shots, &cfg))
            })
            .collect();
        let (ref_name, reference) = &batches[0];
        let nm = reference.measurements.rows();
        assert_eq!(nm, circuit.num_measurements());
        for (other_name, other) in &batches[1..] {
            assert_eq!(other.measurements.rows(), nm);
            for m in 0..nm {
                assert_rates_close(
                    &format!("{name} m{m}: {ref_name} vs {other_name}"),
                    one_rate(reference, m),
                    one_rate(other, m),
                    shots,
                );
            }
            for m in 1..nm {
                assert_rates_close(
                    &format!("{name} m{}/m{m} xor: {ref_name} vs {other_name}", m - 1),
                    xor_rate(reference, m - 1, m),
                    xor_rate(other, m - 1, m),
                    shots,
                );
            }
        }
    }
}

#[test]
fn cross_backend_detector_rates_agree() {
    let shots = 20_000;
    let (_, circuit) = &matrix_circuits()[1]; // repetition code: has detectors
    let batches: Vec<(&str, SampleBatch)> = MATRIX
        .iter()
        .map(|kind| {
            let sampler = build(*kind, circuit);
            let cfg = SimConfig::new().with_seed(0xDE7EC7);
            (kind.name(), collect(sampler.as_ref(), shots, &cfg))
        })
        .collect();
    let (ref_name, reference) = &batches[0];
    let nd = reference.detectors.rows();
    assert!(nd > 0, "repetition code must have detectors");
    for (other_name, other) in &batches[1..] {
        for d in 0..nd {
            let rate = |b: &SampleBatch| {
                (0..shots).filter(|&j| b.detectors.get(d, j)).count() as f64 / shots as f64
            };
            assert_rates_close(
                &format!("D{d}: {ref_name} vs {other_name}"),
                rate(reference),
                rate(other),
                shots,
            );
        }
        for o in 0..reference.observables.rows() {
            let rate = |b: &SampleBatch| {
                (0..shots).filter(|&j| b.observables.get(o, j)).count() as f64 / shots as f64
            };
            assert_rates_close(
                &format!("L{o}: {ref_name} vs {other_name}"),
                rate(reference),
                rate(other),
                shots,
            );
        }
    }
}

/// Reusing one `SampleBatch` across `sample_into` calls must not mix
/// draws: every implementation clears the batch first (the matrix
/// products and detector derivations accumulate by XOR internally).
#[test]
fn sample_into_overwrites_reused_batches() {
    let (_, circuit) = &matrix_circuits()[1];
    for kind in MATRIX {
        let sampler = build(kind, circuit);
        let mut reused = symphase::sampler_api::SampleBatch::zeros(
            sampler.num_measurements(),
            sampler.num_detectors(),
            sampler.num_observables(),
            500,
        );
        let mut rng = StdRng::seed_from_u64(77);
        sampler.sample_into(&mut reused, &mut rng);
        sampler.sample_into(&mut reused, &mut rng);
        // A fresh batch drawn from the same RNG stream position must match.
        let mut rng2 = StdRng::seed_from_u64(77);
        sampler.sample_into(
            &mut symphase::sampler_api::SampleBatch::zeros(
                sampler.num_measurements(),
                sampler.num_detectors(),
                sampler.num_observables(),
                500,
            ),
            &mut rng2,
        );
        let fresh = sampler.sample(500, &mut rng2);
        assert_eq!(reused, fresh, "{} mixed draws on batch reuse", kind.name());
    }
}

/// The acceptance criterion on the parallel path: for every backend,
/// collecting on every core agrees **shot for shot** with the serial
/// chunk-seeded schedule, across chunk boundaries.
#[test]
fn parallel_collect_matches_serial_collect_on_every_backend() {
    let shots = symphase::sampler_api::CHUNK_SHOTS + 123;
    for (name, circuit) in matrix_circuits() {
        for kind in MATRIX {
            let sampler = build(kind, &circuit);
            let cfg = SimConfig::new().with_seed(42);
            let serial = collect(sampler.as_ref(), shots, &cfg);
            let par = collect(sampler.as_ref(), shots, &cfg.with_threads(0));
            assert_eq!(
                serial,
                par,
                "{name}/{} diverged under parallel sampling",
                kind.name()
            );
        }
    }
}

#[test]
fn injected_fault_regression_simple() {
    // Hand-written miniature of the property: GHZ with one fired X fault.
    let mut noisy = Circuit::new(3);
    noisy.h(0).cx(0, 1).cx(1, 2);
    noisy.noise(NoiseChannel::XError(0.5), &[1]);
    noisy.measure_all();
    let mut concrete = Circuit::new(3);
    concrete.h(0).cx(0, 1).cx(1, 2);
    concrete.x(1);
    concrete.measure_all();

    let sampler = SymPhaseSampler::new(&noisy);
    let mut assignment = BitVec::zeros(sampler.symbol_table().assignment_len());
    assignment.set(1, true); // the fault symbol fires
    let expected = reference_sample(&concrete);
    for m in 0..3 {
        assert_eq!(
            sampler.measurement_expr(m).eval(&assignment),
            expected.get(m)
        );
    }
}
