//! Integration pins for the verified rewrite driver `analysis::optimize`
//! and its `SimConfig::optimize` factory knob.
//!
//! * **Idempotence**: `optimize ∘ optimize == optimize` on random
//!   circuits (the fixpoint driver must converge, and its output must
//!   offer the passes nothing further).
//! * **Factory bit-identity**: `build_sampler` with `optimize: true`
//!   samples bit-identically per seed to building the same engine from
//!   the optimizer's output circuit directly.
//! * **Dead-noise invariance**: stripping noise no record reads leaves
//!   the SymPhase bytes unchanged, because its draw plan drops such noise
//!   anyway.
//! * **Rollback**: a deliberately unsound rule is caught by translation
//!   validation, rolled back, and surfaced as `SP100`.
//! * **Scale**: a million-round `REPEAT` memory circuit optimizes in
//!   bounded time — the driver is O(file) and never expands the loop.
//! * **Fault injection**: on circuits whose Paulis propagate into record
//!   flips, every measurement expression of the optimized circuit equals
//!   the original's under the same fault assignment, XOR the declared
//!   flip.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use symphase::analysis::{optimize, optimize_with, OptConfig, Pass, ProofStatus};
use symphase::backend::{build_sampler, EngineKind, PhaseRepr, SamplingMethod, SimConfig};
use symphase::bitmat::BitVec;
use symphase::circuit::generators::{repetition_code_memory, RepetitionCodeConfig};
use symphase::circuit::{Circuit, Gate, NoiseChannel};
use symphase::core::SymPhaseSampler;
use symphase::sampler_api::collect;

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
const GATES2: [Gate; 3] = [Gate::Cx, Gate::Cz, Gate::Swap];

/// A compact random-circuit description biased toward what the passes
/// act on: single-qubit runs, standalone Paulis, noise, collapses, and
/// the occasional detector/observable to bar records.
#[derive(Clone, Debug)]
enum Step {
    Gate1(u8, u32),
    Gate2(u8, u32, u32),
    XError(u32),
    ZError(u32),
    Measure(u32),
    Reset(u32),
    Detector,
    Observable,
}

fn build(qubits: u32, steps: &[Step]) -> Circuit {
    let mut c = Circuit::new(qubits);
    let mut measured = 0usize;
    for step in steps {
        match *step {
            Step::Gate1(g, q) => {
                c.gate(GATES1[g as usize], &[q]);
            }
            Step::Gate2(g, a, b) => {
                c.gate(GATES2[g as usize], &[a, b]);
            }
            Step::XError(q) => {
                c.noise(NoiseChannel::XError(0.25), &[q]);
            }
            Step::ZError(q) => {
                c.noise(NoiseChannel::ZError(0.25), &[q]);
            }
            Step::Measure(q) => {
                c.measure(q);
                measured += 1;
            }
            Step::Reset(q) => {
                c.reset(q);
            }
            Step::Detector => {
                if measured > 0 {
                    c.detector(&[-1]);
                }
            }
            Step::Observable => {
                if measured > 1 {
                    c.observable_include(0, &[-2]);
                }
            }
        }
    }
    c
}

fn plan_strategy() -> impl Strategy<Value = (u32, Vec<Step>)> {
    (
        2u32..5,
        proptest::collection::vec((0u8..10, 0u8..9, any::<u16>()), 8..40),
    )
        .prop_map(|(qubits, raw)| {
            let steps = raw
                .into_iter()
                .map(|(kind, g, r)| {
                    let q = r as u32 % qubits;
                    let q2 = (q + 1 + (r as u32 >> 4) % (qubits - 1)) % qubits;
                    match kind {
                        0..=2 => Step::Gate1(g % 9, q),
                        3 => Step::Gate2(g % 3, q, q2),
                        4 => Step::XError(q),
                        5 => Step::ZError(q),
                        6 | 7 => Step::Measure(q),
                        8 => Step::Reset(q),
                        _ if g % 2 == 0 => Step::Detector,
                        _ => Step::Observable,
                    }
                })
                .collect();
            (qubits, steps)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn optimize_is_idempotent(plan in plan_strategy()) {
        let c = build(plan.0, &plan.1);
        let r1 = optimize(&c);
        for p in &r1.proof {
            prop_assert!(
                matches!(p.status, ProofStatus::Verified { .. }),
                "rolled back on:\n{}\n{:?}", c, p
            );
        }
        let r2 = optimize(&r1.circuit);
        prop_assert_eq!(
            &r2.circuit, &r1.circuit,
            "optimize∘optimize ≠ optimize on:\n{}", c
        );
        prop_assert!(r2.flipped_records.is_empty(), "second run flipped records");
        prop_assert!(!r2.changed(), "second run applied rewrites");
    }
}

/// The `SimConfig::optimize` acceptance criterion: per seed, the knob is
/// bit-identical to sampling the optimizer's output circuit directly, on
/// every engine.
#[test]
fn factory_optimize_knob_is_bit_identical_to_preoptimizing() {
    let texts = [
        "H 0\nH 0\nX 1\nX_ERROR(0.2) 0\nCX 0 1\nM 0 1\nDETECTOR rec[-2]\nS 1\n",
        "R 0 1 2\nX 0\nCX 0 1\nZ_ERROR(0.3) 2\nH 2\nM 0 1 2\nOBSERVABLE_INCLUDE(0) rec[-1]\n",
    ];
    for text in texts {
        let c = Circuit::parse(text).expect("parse");
        let r = optimize(&c);
        assert!(r.changed(), "workload not redundant:\n{text}");
        for kind in EngineKind::ALL {
            let knob = build_sampler(&c, &SimConfig::new().with_engine(kind).with_optimize(true))
                .expect("builds with optimize");
            let direct =
                build_sampler(&r.circuit, &SimConfig::new().with_engine(kind)).expect("builds");
            let seeded = SimConfig::new().with_seed(0xFEED);
            assert_eq!(
                collect(knob.as_ref(), 128, &seeded),
                collect(direct.as_ref(), 128, &seeded),
                "{} diverged from pre-optimized build on:\n{text}",
                kind.name()
            );
        }
    }
}

/// Noise that no measurement reads is never drawn, so the optimizer's
/// dead-noise strip (`SP002`) cannot shift the seeded stream: every
/// sampling method's bytes on the optimized circuit equal those on the
/// original.
#[test]
fn stripping_dead_noise_leaves_symphase_bytes_unchanged() {
    // Every channel and an E/ELSE chain; the two Z_ERROR lines on 0..3 are
    // dead, since those qubits are next measured in Z.
    let text = "R 0 1 2 3 4\nCX 0 1 2 3\nX_ERROR(0.1) 0 1\nY_ERROR(0.05) 2\nZ_ERROR(0.2) 3 0\n\
        DEPOLARIZE1(0.15) 0 1 2 3\nDEPOLARIZE2(0.1) 0 1 2 3\nPAULI_CHANNEL_1(0.05,0.1,0.15) 1 3\n\
        PAULI_CHANNEL_2(0.01,0.02,0.03,0.04,0.05,0.01,0.02,0.03,0.04,0.05,0.01,0.02,0.03,0.04,0.05) 0 2\n\
        E(0.2) X0 Z1\nELSE_CORRELATED_ERROR(0.3) Y2 X3\nELSE_CORRELATED_ERROR(0.5) X1\n\
        Z_ERROR(0.3) 0 1 2 3\nH 4\nM 0 1 2 3 4\nDETECTOR rec[-2] rec[-3]\nDETECTOR rec[-4] rec[-5]\n\
        OBSERVABLE_INCLUDE(0) rec[-2]\n";
    let c = Circuit::parse(text).expect("parse");
    let r = optimize(&c);
    assert_eq!(
        r.report.noise_sites_before - r.report.noise_sites_after,
        6,
        "{:?}",
        r.report
    );
    assert_eq!(r.report.gates_after, r.report.gates_before);
    assert!(r.flipped_records.is_empty());
    let cfg = SimConfig::new().with_seed(9);
    for method in SamplingMethod::ALL {
        let bytes = |circuit: &Circuit| {
            let s = SymPhaseSampler::with_config(circuit, PhaseRepr::Auto, method);
            collect(&s, 5000, &cfg)
        };
        assert_eq!(bytes(&r.circuit), bytes(&c), "{}", method.name());
    }
}

/// The deliberately-broken-rule pin: translation validation must catch
/// the unsound rewrite, leave the circuit untouched, and report `SP100`.
#[test]
fn broken_rule_is_rolled_back_and_reported() {
    let c = Circuit::parse("H 0\nM 0\nDETECTOR rec[-1]\n").expect("parse");
    let r = optimize_with(
        &c,
        &OptConfig {
            passes: vec![Pass::BrokenForTests],
        },
    );
    assert_eq!(r.circuit, c, "broken rewrite leaked into the output");
    assert!(!r.changed());
    assert_eq!(r.proof.len(), 1);
    assert!(
        matches!(r.proof[0].status, ProofStatus::RolledBack { .. }),
        "{:?}",
        r.proof[0]
    );
    assert_eq!(r.diagnostics.len(), 1);
    assert_eq!(r.diagnostics[0].code, "SP100");
}

/// Scale pin: optimizing million-round memory circuits — one clean, one
/// with body redundancy — stays under five seconds, because every pass
/// and the (clamped) validator are O(file).
#[test]
fn million_round_memory_optimizes_in_bounded_time() {
    let clean = repetition_code_memory(&RepetitionCodeConfig {
        distance: 3,
        rounds: 1_000_000,
        data_error: 0.001,
        measure_error: 0.001,
    });
    let redundant = Circuit::parse(
        "R 0 1\nM 1\nREPEAT 1000000 {\n    H 0\n    H 0\n    X_ERROR(0.001) 1\n    M 1\n    \
         DETECTOR rec[-1] rec[-2]\n}\nM 0\n",
    )
    .expect("parse");

    let t0 = Instant::now();
    let clean_result = optimize(&clean);
    let redundant_result = optimize(&redundant);
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "million-round optimize took {elapsed:?}"
    );

    for p in clean_result.proof.iter().chain(&redundant_result.proof) {
        assert!(matches!(p.status, ProofStatus::Verified { .. }), "{p:?}");
    }
    // The fusable pair inside the body is gone — and its proof had to
    // clamp the trip count to replay.
    assert!(redundant_result.report.gates_after < redundant_result.report.gates_before);
    assert!(redundant_result
        .proof
        .iter()
        .any(|p| matches!(p.status, ProofStatus::Verified { clamped: true })));
    assert_eq!(
        redundant_result.circuit.num_measurements(),
        redundant.num_measurements()
    );
}

/// Fault-injection equivalence with propagated Paulis: for circuits
/// whose noise stays live (so the symbol tables align one-to-one) and
/// whose standalone Paulis become record flips, every measurement
/// expression of the optimized circuit must equal the original's under
/// the same fault assignment, XOR membership in `flipped_records`.
#[test]
fn fault_injection_agrees_on_propagated_pauli_circuits() {
    let texts = [
        "X_ERROR(0.4) 0\nCX 0 1\nM 1\nDETECTOR rec[-1]\nX 0\nM 0\n",
        "X_ERROR(0.5) 0\nM 0\nDETECTOR rec[-1]\nX 1\nCX 1 2\nM 1 2\n",
        "Z_ERROR(0.4) 1\nH 1\nM 1\nDETECTOR rec[-1]\nM 0\nX 0\nM 0\n",
    ];
    for text in texts {
        let c = Circuit::parse(text).expect("parse");
        let r = optimize(&c);
        assert!(
            !r.flipped_records.is_empty(),
            "no propagated flips in:\n{text}"
        );
        let a = SymPhaseSampler::new(&c);
        let b = SymPhaseSampler::new(&r.circuit);
        let len = a.symbol_table().assignment_len();
        assert_eq!(
            len,
            b.symbol_table().assignment_len(),
            "symbol tables diverged on:\n{text}"
        );
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for _ in 0..16 {
            let mut assignment = BitVec::zeros(len);
            for i in 1..len {
                assignment.set(i, rng.random_bool(0.5));
            }
            for m in 0..a.num_measurements() {
                assert_eq!(
                    b.measurement_expr(m).eval(&assignment),
                    a.measurement_expr(m).eval(&assignment) ^ r.flipped_records.contains(&m),
                    "record {m} under fault injection on:\n{text}"
                );
            }
        }
    }
}
