//! Properties of the phase-representation choice (paper Eq. (3)).
//!
//! `PhaseRepr::Auto` may pick either store per circuit, but the pick must
//! be a pure function of the circuit, and the pick must never matter for
//! correctness: the sparse and dense stores are two layouts of the same
//! symbolic Initialization, so they must produce identical measurement
//! expressions on any circuit.

use proptest::prelude::*;

use symphase::circuit::generators::{LayeredCircuitConfig, PairsPerLayer};
use symphase::circuit::Circuit;
use symphase::core::{PhaseRepr, SymPhaseSampler};
use symphase::prelude::{collect, SimConfig};

/// Random layered-circuit configurations spanning both sides of the
/// Auto heuristic's crossover (sparse QEC-like and dense noisy).
fn config_strategy() -> impl Strategy<Value = LayeredCircuitConfig> {
    (
        2usize..12,
        1usize..12,
        prop_oneof![
            (1usize..4).prop_map(PairsPerLayer::Fixed),
            Just(PairsPerLayer::HalfOfQubits)
        ],
        0.0f64..=0.4,
        prop_oneof![Just(None), (0.001f64..0.05).prop_map(Some)],
        any::<u64>(),
    )
        .prop_map(
            |(qubits, layers, cnot_pairs, measure_fraction, depolarize, seed)| {
                LayeredCircuitConfig {
                    qubits,
                    layers,
                    cnot_pairs,
                    measure_fraction,
                    depolarize,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Auto::resolve` is deterministic, never returns `Auto`, and is a
    /// fixed point on already-resolved representations.
    #[test]
    fn auto_resolve_is_deterministic(config in config_strategy()) {
        let circuit = config.generate();
        let first = PhaseRepr::Auto.resolve(&circuit);
        prop_assert_ne!(first, PhaseRepr::Auto, "Auto must resolve to a concrete store");
        for _ in 0..3 {
            prop_assert_eq!(PhaseRepr::Auto.resolve(&circuit), first);
        }
        prop_assert_eq!(PhaseRepr::Sparse.resolve(&circuit), PhaseRepr::Sparse);
        prop_assert_eq!(PhaseRepr::Dense.resolve(&circuit), PhaseRepr::Dense);
        // Resolution reads only circuit statistics: a structural clone
        // resolves identically.
        let reparsed = Circuit::parse(&circuit.to_string()).expect("round-trip");
        prop_assert_eq!(PhaseRepr::Auto.resolve(&reparsed), first);
    }

    /// Initialization through the sparse and dense phase stores yields
    /// identical measurement expressions (and therefore identical
    /// detector/observable rows) on random layered circuits, so both
    /// stores stream the same bytes.
    #[test]
    fn sparse_and_dense_init_results_agree(config in config_strategy()) {
        let circuit = config.generate();
        let sparse = SymPhaseSampler::with_repr(&circuit, PhaseRepr::Sparse);
        let dense = SymPhaseSampler::with_repr(&circuit, PhaseRepr::Dense);
        prop_assert_eq!(sparse.measurement_exprs(), dense.measurement_exprs());
        prop_assert_eq!(
            sparse.symbol_table().assignment_len(),
            dense.symbol_table().assignment_len()
        );
        for d in 0..sparse.num_detectors() {
            prop_assert_eq!(sparse.detector_expr(d), dense.detector_expr(d));
        }
        for o in 0..sparse.num_observables() {
            prop_assert_eq!(sparse.observable_expr(o), dense.observable_expr(o));
        }
        let cfg = SimConfig::new().with_seed(config.seed).with_chunk_shots(64);
        prop_assert_eq!(collect(&sparse, 300, &cfg), collect(&dense, 300, &cfg));
    }
}

/// The Auto heuristic measures *noise* symbols per measurement (coins are
/// excluded — every random measurement carries exactly one, so they can't
/// differentiate circuits). This pins the crossover on representative
/// circuits, including the boundary itself.
#[test]
fn auto_crossover_pinned_on_representative_circuits() {
    use symphase::circuit::generators::{
        fig3c_circuit, repetition_code_memory, RepetitionCodeConfig,
    };
    use symphase::circuit::NoiseChannel;

    // Dense noisy mixing: thousands of fault symbols over few measurements.
    assert_eq!(
        PhaseRepr::Auto.resolve(&fig3c_circuit(32, 0.001, 1)),
        PhaseRepr::Dense
    );
    // QEC-style: a handful of symbols per measurement.
    let rep = repetition_code_memory(&RepetitionCodeConfig {
        distance: 9,
        rounds: 9,
        data_error: 0.01,
        measure_error: 0.01,
    });
    assert_eq!(PhaseRepr::Auto.resolve(&rep), PhaseRepr::Sparse);
    // Noiseless but measurement-heavy: 0 noise symbols per measurement →
    // sparse, no matter how many measurements pile up. (The old formula
    // folded measurements into the numerator, flooring the ratio at 1.)
    let mut noiseless = Circuit::new(4);
    for _ in 0..100 {
        noiseless.h(0);
        noiseless.measure_many(&[0, 1, 2, 3]);
    }
    assert_eq!(PhaseRepr::Auto.resolve(&noiseless), PhaseRepr::Sparse);
    // The crossover sits at exactly 8 symbols per measurement: 8 stays
    // sparse, 9 flips dense.
    let mut at_boundary = Circuit::new(8);
    at_boundary.noise(NoiseChannel::XError(0.1), &[0, 1, 2, 3, 4, 5, 6, 7]);
    at_boundary.measure(0);
    assert_eq!(PhaseRepr::Auto.resolve(&at_boundary), PhaseRepr::Sparse);
    let mut past_boundary = Circuit::new(9);
    past_boundary.noise(NoiseChannel::XError(0.1), &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
    past_boundary.measure(0);
    assert_eq!(PhaseRepr::Auto.resolve(&past_boundary), PhaseRepr::Dense);
}
