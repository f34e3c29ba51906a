//! Pinned seeded bytes: SHA-256 digests of the `b8` stream for fixed
//! circuits, seeds and shot counts, equal across every
//! [`SamplingMethod`].
//!
//! The other byte-identity tests compare two paths of the current code
//! (methods, threads, shards, `serve`) against each other, so a change
//! that alters the stream everywhere at once passes them all. These
//! digests compare against the stream itself. A change that alters the
//! seeded stream on purpose updates the digests here and says so in
//! CHANGES.md; any other change must leave them as they are.

use symphase::circuit::generators::{fig3c_circuit, surface_code_memory, SurfaceCodeConfig};
use symphase::prelude::*;
use symphase::serve::sha256;

/// Every channel plus an `E`/`ELSE` chain, with detectors and an
/// observable: the circuit of CI's noise-draw smoke step.
const NOISE7: &str = "R 0 1 2 3 4\nCX 0 1 2 3\nX_ERROR(0.1) 0 1\nY_ERROR(0.05) 2\n\
Z_ERROR(0.2) 3 0\nDEPOLARIZE1(0.15) 0 1 2 3\nDEPOLARIZE2(0.1) 0 1 2 3\n\
PAULI_CHANNEL_1(0.05,0.1,0.15) 1 3\n\
PAULI_CHANNEL_2(0.01,0.02,0.03,0.04,0.05,0.01,0.02,0.03,0.04,0.05,0.01,0.02,0.03,0.04,0.05) 0 2\n\
E(0.2) X0 Z1\nELSE_CORRELATED_ERROR(0.3) Y2 X3\nELSE_CORRELATED_ERROR(0.5) X1\nH 4\n\
M 0 1 2 3 4\nDETECTOR rec[-2] rec[-3]\nDETECTOR rec[-4] rec[-5]\nOBSERVABLE_INCLUDE(0) rec[-2]\n";

const SEED: u64 = 9;

fn circuits() -> Vec<(&'static str, Circuit)> {
    vec![
        ("noise7", Circuit::parse(NOISE7).expect("noise7 parses")),
        ("fig3c_32", fig3c_circuit(32, 0.01, 7)),
        (
            "surface_d5_r3",
            surface_code_memory(&SurfaceCodeConfig {
                distance: 5,
                rounds: 3,
                data_error: 0.001,
                measure_error: 0.001,
            }),
        ),
    ]
}

/// The expected digest per (circuit, source, shots): 4,096 shots are one
/// full chunk, 5,000 add a partial one. `fig3c_32` has no detectors or
/// observables, so its detector stream is empty and pins only that
/// nothing is written.
const DIGESTS: [(&str, RecordSource, usize, &str); 12] = [
    (
        "noise7",
        RecordSource::Measurements,
        4096,
        "82ca827950c44985a308231765e67017aca496ccca78339766383b00e58ad603",
    ),
    (
        "noise7",
        RecordSource::Measurements,
        5000,
        "fb8672c0faf0f60c4552255846fca70b20e26bd13a85c59a602deeccf43fef68",
    ),
    (
        "noise7",
        RecordSource::DetectorsAndObservables,
        4096,
        "14bbd87e69b213c1eba84044a6b77ad08cda9123cc8b41cc79497c0f0ce329eb",
    ),
    (
        "noise7",
        RecordSource::DetectorsAndObservables,
        5000,
        "2ee17072f7df2486bf3489c34c1021d635953a96b515da4b1445ffcc1f740fa6",
    ),
    (
        "fig3c_32",
        RecordSource::Measurements,
        4096,
        "f6003ea954e892ebc13ab1023d70de0bc3dde0f53f3fc708e46a7fba756ec91c",
    ),
    (
        "fig3c_32",
        RecordSource::Measurements,
        5000,
        "5ca3e8af9217823fcdb0d5f7614987451ffcd299f3752477ae7d964923491e30",
    ),
    (
        "fig3c_32",
        RecordSource::DetectorsAndObservables,
        4096,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        "fig3c_32",
        RecordSource::DetectorsAndObservables,
        5000,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        "surface_d5_r3",
        RecordSource::Measurements,
        4096,
        "e80153f0b0bbe2281a7d8789be9fe8c6ab7ea3e9394fc85682e8102031470f1f",
    ),
    (
        "surface_d5_r3",
        RecordSource::Measurements,
        5000,
        "222e5baa17571a8b19068121215bdd4ac60f92ec9aa46bebd4d1f02992a661a2",
    ),
    (
        "surface_d5_r3",
        RecordSource::DetectorsAndObservables,
        4096,
        "9ddc8a869a8f86df705a3bdfa8939cf2ef4329d55b3a4b16cdce891f8c8cad63",
    ),
    (
        "surface_d5_r3",
        RecordSource::DetectorsAndObservables,
        5000,
        "3d6b286e4b03c8ec313629e58a52aceeef770843269af0b52b13ef5f01d31b21",
    ),
];

/// The hex SHA-256 of the `b8` bytes `method` streams for `source`.
fn b8_digest(
    circuit: &Circuit,
    method: SamplingMethod,
    source: RecordSource,
    shots: usize,
) -> String {
    let config = SimConfig::new().with_seed(SEED);
    let sampler = SymPhaseSampler::with_config(circuit, PhaseRepr::Auto, method);
    let mut bytes = Vec::new();
    {
        let mut sink = SampleFormat::B8.sink(&mut bytes, source);
        stream_with_config(&sampler, shots, &config, sink.as_mut()).unwrap();
    }
    sha256(&bytes).iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn b8_stream_digests_are_pinned_for_every_method() {
    let circuits = circuits();
    let mut failures = Vec::new();
    for &(name, source, shots, want) in &DIGESTS {
        let circuit = &circuits.iter().find(|(n, _)| *n == name).expect("known").1;
        for method in SamplingMethod::ALL {
            let got = b8_digest(circuit, method, source, shots);
            if got != want {
                failures.push(format!(
                    "(\"{name}\", RecordSource::{source:?}, {shots}, \"{got}\") from {method:?}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "digests differ:\n{}",
        failures.join("\n")
    );
}
