//! Equivalence of the Sampling strategies (Auto, Hybrid, SparseRows,
//! DenseMatMul) and of the parser → sampler pipeline.
//!
//! The contract under test: every method consumes the RNG stream
//! identically, so a fixed seed produces **bit-identical** samples
//! whatever kernel computes `M · B` — and `SamplingMethod::Auto` only
//! ever changes which kernel that is.

use rand::rngs::StdRng;
use rand::SeedableRng;

use symphase::circuit::generators::{
    fig3c_circuit, noisy_ghz_chain, repetition_code_memory, surface_code_memory,
    RepetitionCodeConfig, SurfaceCodeConfig,
};
use symphase::circuit::{Circuit, NoiseChannel};
use symphase::core::{PhaseRepr, SamplingMethod, SymPhaseSampler};
use symphase::prelude::{collect, SampleBatch, SimConfig};

/// Circuits spanning every symbol-group kind and both sides of the Auto
/// heuristic (dense mixing, QEC-sparse, heavy noise, p > 1/2 faults).
fn representative_circuits() -> Vec<(&'static str, Circuit)> {
    let mut channels = Circuit::new(4);
    channels.noise(NoiseChannel::XError(0.7), &[0]); // complement path
    channels.noise(NoiseChannel::Depolarize2(0.2), &[0, 1]);
    channels.noise(
        NoiseChannel::PauliChannel1 {
            px: 0.1,
            py: 0.05,
            pz: 0.2,
        },
        &[2],
    );
    channels.noise(NoiseChannel::Depolarize1(0.3), &[3]);
    channels.h(0);
    channels.cx(0, 1);
    channels.measure_many(&[0, 1, 2, 3]);

    // The basis-general surface: PAULI_CHANNEL_2 and a correlated
    // E/ELSE chain (the hybrid and assignment-matrix sinks must see the
    // same draw), plus MPP and X/Y-basis measurements feeding the record.
    let mut correlated = Circuit::new(3);
    correlated.reset_in(symphase::circuit::PauliKind::X, 0);
    let mut probs = [0.0f64; 15];
    probs[3] = 0.2; // XI
    probs[10] = 0.1; // YZ
    correlated.noise(NoiseChannel::PauliChannel2 { probs }, &[0, 1]);
    correlated.correlated_error(
        0.3,
        &[
            (symphase::circuit::PauliKind::X, 0),
            (symphase::circuit::PauliKind::Z, 1),
        ],
    );
    correlated.else_correlated_error(0.5, &[(symphase::circuit::PauliKind::Y, 2)]);
    correlated.measure_pauli_product(&[
        (symphase::circuit::PauliKind::X, 0),
        (symphase::circuit::PauliKind::Z, 1),
    ]);
    correlated.measure_in(symphase::circuit::PauliKind::X, 0);
    correlated.measure_in(symphase::circuit::PauliKind::Y, 2);
    correlated.measure_all();

    vec![
        ("fig3c", fig3c_circuit(20, 0.01, 5)),
        (
            "repetition",
            repetition_code_memory(&RepetitionCodeConfig {
                distance: 5,
                rounds: 4,
                data_error: 0.01,
                measure_error: 0.005,
            }),
        ),
        (
            "surface",
            surface_code_memory(&SurfaceCodeConfig {
                distance: 3,
                rounds: 3,
                data_error: 0.002,
                measure_error: 0.001,
            }),
        ),
        ("channels", channels),
        ("correlated", correlated),
        ("ghz_chain", noisy_ghz_chain(120, 0.01)),
    ]
}

/// All four methods (including `Auto`) sample bit-identical measurement
/// matrices from equal seeds, across shot-batch boundaries.
#[test]
fn all_methods_bit_identical() {
    let shots = 4096 + 700; // two windows, last one partial
    for (name, c) in representative_circuits() {
        let s = SymPhaseSampler::new(&c);
        let reference = s.sample_with_method(
            shots,
            &mut StdRng::seed_from_u64(11),
            SamplingMethod::SparseRows,
        );
        for method in SamplingMethod::ALL {
            let out = s.sample_with_method(shots, &mut StdRng::seed_from_u64(11), method);
            assert_eq!(
                out, reference,
                "{name}: {method:?} diverged from SparseRows"
            );
        }
    }
}

/// The full batch path (measurements + detectors + observables) is also
/// method-independent bit for bit.
#[test]
fn batch_methods_bit_identical() {
    let shots = 4096 + 100;
    for (name, c) in representative_circuits() {
        let s = SymPhaseSampler::new(&c);
        let mut reference = symphase::core::SampleBatch::zeros(
            s.num_measurements(),
            s.num_detectors(),
            s.num_observables(),
            shots,
        );
        s.sample_batch_with_method(
            &mut reference,
            &mut StdRng::seed_from_u64(13),
            SamplingMethod::SparseRows,
        );
        for method in SamplingMethod::ALL {
            let mut batch = symphase::core::SampleBatch::zeros(
                s.num_measurements(),
                s.num_detectors(),
                s.num_observables(),
                shots,
            );
            s.sample_batch_with_method(&mut batch, &mut StdRng::seed_from_u64(13), method);
            assert_eq!(batch, reference, "{name}: {method:?} batch diverged");
        }
    }
}

/// `Auto` resolution is a deterministic pure function of the circuit,
/// never `Auto` itself, and lands on the expected side for the
/// representative workloads.
#[test]
fn auto_resolution_is_deterministic_and_pinned() {
    for (name, c) in representative_circuits() {
        let first = SymPhaseSampler::new(&c).resolved_method();
        assert_ne!(first, SamplingMethod::Auto, "{name}: must resolve");
        // Rebuilding the sampler (and round-tripping the circuit through
        // text) resolves identically: the pick reads only the circuit.
        let reparsed = Circuit::parse(&c.to_string()).expect("round-trip");
        assert_eq!(
            SymPhaseSampler::new(&reparsed).resolved_method(),
            first,
            "{name}"
        );
    }
    // Pin the crossover: dense (determined) measurement rows → blocked
    // dense product; QEC-style rare faults → event-driven hybrid;
    // frequent faults → sparse rows.
    let ghz = SymPhaseSampler::new(&noisy_ghz_chain(200, 0.01));
    assert_eq!(ghz.resolved_method(), SamplingMethod::DenseMatMul);
    let rep = SymPhaseSampler::new(&repetition_code_memory(&RepetitionCodeConfig {
        distance: 7,
        rounds: 7,
        data_error: 0.001,
        measure_error: 0.001,
    }));
    assert_eq!(rep.resolved_method(), SamplingMethod::Hybrid);
    let mut heavy = Circuit::new(2);
    heavy.noise(NoiseChannel::XError(0.25), &[0, 1]);
    heavy.h(0);
    heavy.measure_many(&[0, 1]);
    assert_eq!(
        SymPhaseSampler::new(&heavy).resolved_method(),
        SamplingMethod::SparseRows
    );
    // Hybrid must also undercut the blocked kernel, table builds
    // included: at p = 1e-3 a 256-qubit GHZ chain fires enough faults
    // that the dense product wins, while a 64-qubit chain's tables cost
    // more than its events.
    let pick = |c: &Circuit| SymPhaseSampler::new(c).resolved_method();
    assert_eq!(
        pick(&noisy_ghz_chain(256, 0.001)),
        SamplingMethod::DenseMatMul
    );
    assert_eq!(pick(&noisy_ghz_chain(64, 0.001)), SamplingMethod::Hybrid);
    // The d=5 r=5 surface memory `serve` benchmarks keeps the hybrid;
    // a small Fig. 3c circuit keeps the sparse rows.
    let serve_mix = surface_code_memory(&SurfaceCodeConfig {
        distance: 5,
        rounds: 5,
        data_error: 0.001,
        measure_error: 0.001,
    });
    assert_eq!(pick(&serve_mix), SamplingMethod::Hybrid);
    assert_eq!(
        pick(&fig3c_circuit(32, 0.01, 7)),
        SamplingMethod::SparseRows
    );
}

/// Every channel plus an `E`/`ELSE` chain, with detectors and an
/// observable.
const NOISE7: &str = "R 0 1 2 3 4\nCX 0 1 2 3\nX_ERROR(0.1) 0 1\nY_ERROR(0.05) 2\n\
Z_ERROR(0.2) 3 0\nDEPOLARIZE1(0.15) 0 1 2 3\nDEPOLARIZE2(0.1) 0 1 2 3\n\
PAULI_CHANNEL_1(0.05,0.1,0.15) 1 3\n\
PAULI_CHANNEL_2(0.01,0.02,0.03,0.04,0.05,0.01,0.02,0.03,0.04,0.05,0.01,0.02,0.03,0.04,0.05) 0 2\n\
E(0.2) X0 Z1\nELSE_CORRELATED_ERROR(0.3) Y2 X3\nELSE_CORRELATED_ERROR(0.5) X1\nH 4\n\
M 0 1 2 3 4\nDETECTOR rec[-2] rec[-3]\nDETECTOR rec[-4] rec[-5]\nOBSERVABLE_INCLUDE(0) rec[-2]\n";

/// Streams `shots` shots of `circuit` (measurements, detectors and
/// observables) with every method pinned, seed 9, under `threads`.
fn pinned_streams(circuit: &Circuit, shots: usize, threads: usize) -> Vec<SampleBatch> {
    let cfg = SimConfig::new().with_seed(9).with_threads(threads);
    SamplingMethod::ALL
        .into_iter()
        .map(|method| {
            let s = SymPhaseSampler::with_config(circuit, PhaseRepr::Auto, method);
            collect(&s, shots, &cfg)
        })
        .collect()
}

/// On `noise7`, each pinned kernel streams the same bytes on one thread
/// as on all cores, across chunk boundaries (12,388 shots = three full
/// chunks + 100: each lane reuses its thread's scratch across chunks),
/// and every kernel streams the same bytes.
#[test]
fn noise7_streams_match_across_threads_and_methods() {
    let c = Circuit::parse(NOISE7).expect("noise7 parses");
    let serial = pinned_streams(&c, 12_388, 1);
    let parallel = pinned_streams(&c, 12_388, 0);
    for ((method, one), all) in SamplingMethod::ALL.iter().zip(&serial).zip(&parallel) {
        assert_eq!(one, all, "{method:?}: all cores diverged from one thread");
        assert_eq!(one, &serial[0], "{method:?} diverged from Auto");
    }
}

/// A dead channel (Z errors right before Z measurements) is never drawn,
/// so adding one to `noise7` leaves every kernel's bytes unchanged.
#[test]
fn noise7_dead_channel_leaves_every_method_unchanged() {
    let dead_text = NOISE7.replace("H 4\n", "Z_ERROR(0.3) 0 1 2 3\nH 4\n");
    assert_ne!(dead_text, NOISE7);
    let live = Circuit::parse(NOISE7).expect("noise7 parses");
    let dead = Circuit::parse(&dead_text).expect("noise7_dead parses");
    let (a, b) = (
        pinned_streams(&live, 5000, 1),
        pinned_streams(&dead, 5000, 1),
    );
    for ((method, a), b) in SamplingMethod::ALL.iter().zip(&a).zip(&b) {
        assert_eq!(a, b, "{method:?}: the dead channel moved the stream");
    }
}

/// SparseRows and DenseMatMul consume randomness identically, so equal
/// seeds give bit-identical samples.
#[test]
fn sparse_and_dense_bit_identical() {
    let c = fig3c_circuit(24, 0.01, 5);
    let s = SymPhaseSampler::new(&c);
    let a = s.sample_with_method(
        9_000,
        &mut StdRng::seed_from_u64(1),
        SamplingMethod::SparseRows,
    );
    let b = s.sample_with_method(
        9_000,
        &mut StdRng::seed_from_u64(1),
        SamplingMethod::DenseMatMul,
    );
    assert_eq!(a, b);
}

/// Hybrid consumes randomness differently, so compare distributions: the
/// per-measurement one-rates must match SparseRows within 6σ.
#[test]
fn hybrid_matches_sparse_distribution() {
    let c = fig3c_circuit(20, 0.05, 9);
    let s = SymPhaseSampler::new(&c);
    let shots = 60_000;
    let a = s.sample_with_method(shots, &mut StdRng::seed_from_u64(2), SamplingMethod::Hybrid);
    let b = s.sample_with_method(
        shots,
        &mut StdRng::seed_from_u64(3),
        SamplingMethod::SparseRows,
    );
    for m in 0..s.num_measurements() {
        let ra = (0..shots).filter(|&i| a.get(m, i)).count() as f64 / shots as f64;
        let rb = (0..shots).filter(|&i| b.get(m, i)).count() as f64 / shots as f64;
        let p = (ra + rb) / 2.0;
        let tol = 6.0 * (2.0 * p.max(0.01) * (1.0 - p).max(0.01) / shots as f64).sqrt() + 1e-9;
        assert!((ra - rb).abs() < tol, "measurement {m}: {ra} vs {rb}");
    }
}

/// Hybrid on deterministic fault patterns is exact: p = 1 errors always
/// flip, p = 0 never do.
#[test]
fn hybrid_exact_on_certain_faults() {
    let mut c = Circuit::new(2);
    c.noise(NoiseChannel::XError(1.0), &[0]);
    c.noise(NoiseChannel::XError(0.0), &[1]);
    c.measure_all();
    let s = SymPhaseSampler::new(&c);
    let out = s.sample_with_method(300, &mut StdRng::seed_from_u64(4), SamplingMethod::Hybrid);
    for shot in 0..300 {
        assert!(out.get(0, shot));
        assert!(!out.get(1, shot));
    }
}

/// Multi-batch sampling (shots > the internal 4096 batch) stitches windows
/// correctly: a deterministic pattern must hold across the whole width.
#[test]
fn batching_is_seamless() {
    let mut c = Circuit::new(2);
    c.x(0);
    c.noise(NoiseChannel::YError(1.0), &[1]);
    c.measure_all();
    let s = SymPhaseSampler::new(&c);
    for method in [
        SamplingMethod::Hybrid,
        SamplingMethod::SparseRows,
        SamplingMethod::DenseMatMul,
    ] {
        let shots = 4096 * 2 + 1234; // forces three windows, last partial
        let out = s.sample_with_method(shots, &mut StdRng::seed_from_u64(5), method);
        assert_eq!(out.cols(), shots);
        for shot in 0..shots {
            assert!(out.get(0, shot), "{method:?} lost shot {shot}");
            assert!(out.get(1, shot), "{method:?} lost shot {shot}");
        }
    }
}

/// Text-format pipeline: parse → sample → check a hand-computable rate.
#[test]
fn parse_to_sample_pipeline() {
    let c = Circuit::parse("H 0\nCX 0 1\nX_ERROR(0.5) 1\nM 0 1\n").expect("parses");
    let s = SymPhaseSampler::new(&c);
    let shots = 80_000;
    let out = s.sample(shots, &mut StdRng::seed_from_u64(6));
    // m0 fair; m0 ⊕ m1 = fault fires half the time.
    let disagree = (0..shots)
        .filter(|&i| out.get(0, i) != out.get(1, i))
        .count() as f64;
    assert!((disagree - shots as f64 / 2.0).abs() < 6.0 * (shots as f64 / 4.0).sqrt());
}
