//! Structured `REPEAT` acceptance tests: million-round parse +
//! initialization without any expansion cap, per-iteration lookback
//! resolution, and bit-exact structured-vs-flattened agreement across
//! every engine.

use symphase::backend::{build_sampler, EngineKind, SimConfig};
use symphase::circuit::{Circuit, Instruction};
use symphase::core::SymPhaseSampler;
use symphase::sampler_api::{collect, record};

/// A million-round memory loop parses in O(file) and initializes without
/// hitting any expansion cap. The body uses `MR`, so the per-round error
/// is cleared and every measurement expression stays O(1) — total work is
/// linear in the flattened length, memory linear in the record.
#[test]
fn million_round_repeat_parses_and_initializes() {
    let text = "M 0\nREPEAT 1_000_000 {\n X_ERROR(0.001) 0\n MR 0\n DETECTOR rec[-1] rec[-2]\n}\n";
    let parse_start = std::time::Instant::now();
    let c = Circuit::parse(text).unwrap();
    assert!(
        parse_start.elapsed() < std::time::Duration::from_secs(1),
        "parse must be O(file), independent of the trip count"
    );
    // Structured: two nodes, whatever the trip count.
    assert_eq!(c.instructions().len(), 2);
    assert_eq!(c.num_measurements(), 1_000_001);
    assert_eq!(c.num_detectors(), 1_000_000);

    // One symbolic traversal over 3M streamed instructions.
    let sampler = SymPhaseSampler::new(&c);
    assert_eq!(sampler.num_measurements(), 1_000_001);
    assert_eq!(sampler.num_detectors(), 1_000_000);
    // Round r's detector is s_{r-1} ⊕ s_r (the reset clears each error),
    // so every detector expression holds at most two fault symbols.
    for d in [0usize, 1, 499_999, 999_999] {
        assert!(sampler.detector_expr(d).symbol_ids().len() <= 2, "D{d}");
    }
}

/// Lookbacks inside a `REPEAT` body resolve per iteration: `rec[-2]` in
/// round r lands on round r−1's measurement, and the first iteration
/// reaches the record preceding the block.
#[test]
fn per_iteration_lookbacks_cross_round_boundaries() {
    let c = Circuit::parse("M 0\nREPEAT 4 {\n M 0\n DETECTOR rec[-1] rec[-2]\n}\n").unwrap();
    let sets = record::detector_measurement_sets(&c);
    assert_eq!(
        sets,
        vec![vec![1, 0], vec![2, 1], vec![3, 2], vec![4, 3]],
        "each round compares with the previous round's outcome"
    );
}

/// Every engine produces bit-identical samples for the structured circuit
/// and its materialized flattening, for equal seeds — the structured IR
/// changes representation, not semantics.
#[test]
fn structured_and_flattened_engines_agree_bit_for_bit() {
    let text = "\
R 0 1 2
H 0
M 0
REPEAT 5 {
    CX rec[-1] 1
    X_ERROR(0.25) 1
    REPEAT 2 {
        DEPOLARIZE1(0.125) 2
        M 2
    }
    MR 1
    DETECTOR rec[-1] rec[-3]
    OBSERVABLE_INCLUDE(0) rec[-1]
}
M 0 1 2
";
    let structured = Circuit::parse(text).unwrap();
    assert!(structured
        .instructions()
        .iter()
        .any(|i| matches!(i, Instruction::Repeat { .. })));
    let flat = structured.flattened();
    assert!(flat
        .instructions()
        .iter()
        .all(|i| !matches!(i, Instruction::Repeat { .. })));
    assert_eq!(structured.stats(), flat.stats());

    for kind in EngineKind::ALL {
        let build = |c: &Circuit| {
            build_sampler(c, &SimConfig::new().with_engine(kind)).expect("backend builds")
        };
        let cfg = SimConfig::new().with_seed(7);
        let a = collect(build(&structured).as_ref(), 256, &cfg);
        let b = collect(build(&flat).as_ref(), 256, &cfg);
        assert_eq!(a, b, "{} diverged between structured and flat", kind.name());
    }
}

/// The text format round-trips structure: parse → Display → parse is the
/// identity on the structured IR, not merely on flattened semantics.
#[test]
fn display_preserves_structure_not_just_semantics() {
    let text = "M 0\nREPEAT 3 {\n    H 1\n    REPEAT 2 {\n        M 1\n        DETECTOR rec[-1] rec[-2]\n    }\n    CZ 0 1\n}\n";
    let c = Circuit::parse(text).unwrap();
    let reparsed = Circuit::parse(&c.to_string()).unwrap();
    assert_eq!(reparsed, c);
    assert_eq!(c.to_string(), text);
    // And the structure really is nested, not flattened.
    let Instruction::Repeat { body, .. } = &c.instructions()[1] else {
        panic!("expected REPEAT node");
    };
    assert!(body
        .instructions()
        .iter()
        .any(|i| matches!(i, Instruction::Repeat { .. })));
}
