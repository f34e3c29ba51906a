//! Pinned analysis bytes: SHA-256 digests of the detector error model
//! text, the symbolic record rows, and `symphase analyze`'s report, for
//! fixed circuits.
//!
//! `tests/stream_digests.rs` pins what Sampling writes; this file pins
//! what Initialization produces and what `dem` and `analyze` print from
//! it. A change that alters these bytes on purpose updates the digests
//! here and says so in CHANGES.md; any other change must leave them as
//! they are.

use std::fmt::Write as _;
use std::path::PathBuf;

use symphase::circuit::generators::{
    mpp_phase_memory, repetition_code_memory, surface_code_memory, PhaseMemoryConfig,
    RepetitionCodeConfig, SurfaceCodeConfig,
};
use symphase::prelude::*;
use symphase::serve::sha256;

/// Every channel plus an `E`/`ELSE` chain, with detectors and an
/// observable.
const NOISE7: &str = "R 0 1 2 3 4\nCX 0 1 2 3\nX_ERROR(0.1) 0 1\nY_ERROR(0.05) 2\n\
Z_ERROR(0.2) 3 0\nDEPOLARIZE1(0.15) 0 1 2 3\nDEPOLARIZE2(0.1) 0 1 2 3\n\
PAULI_CHANNEL_1(0.05,0.1,0.15) 1 3\n\
PAULI_CHANNEL_2(0.01,0.02,0.03,0.04,0.05,0.01,0.02,0.03,0.04,0.05,0.01,0.02,0.03,0.04,0.05) 0 2\n\
E(0.2) X0 Z1\nELSE_CORRELATED_ERROR(0.3) Y2 X3\nELSE_CORRELATED_ERROR(0.5) X1\nH 4\n\
M 0 1 2 3 4\nDETECTOR rec[-2] rec[-3]\nDETECTOR rec[-4] rec[-5]\nOBSERVABLE_INCLUDE(0) rec[-2]\n";

fn example_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/circuits")
}

/// The example circuit files, by file name, in name order.
fn example_files() -> Vec<(String, PathBuf)> {
    let mut files: Vec<(String, PathBuf)> = std::fs::read_dir(example_dir())
        .expect("examples/circuits is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "stim"))
        .map(|p| (p.file_name().unwrap().to_string_lossy().into_owned(), p))
        .collect();
    files.sort();
    files
}

fn circuits() -> Vec<(String, Circuit)> {
    let mut out = vec![(
        "noise7".to_string(),
        Circuit::parse(NOISE7).expect("noise7 parses"),
    )];
    for (name, path) in example_files() {
        let text = std::fs::read_to_string(&path).expect("example is readable");
        out.push((name, Circuit::parse(&text).expect("example parses")));
    }
    out.push((
        "surface_d5_r5".into(),
        surface_code_memory(&SurfaceCodeConfig {
            distance: 5,
            rounds: 5,
            data_error: 0.001,
            measure_error: 0.001,
        }),
    ));
    for (d, r, data, measure) in [(3, 2, 0.01, 0.005), (5, 4, 0.02, 0.0), (4, 3, 0.0, 0.03)] {
        out.push((
            format!("repetition_d{d}_r{r}"),
            repetition_code_memory(&RepetitionCodeConfig {
                distance: d,
                rounds: r,
                data_error: data,
                measure_error: measure,
            }),
        ));
    }
    for (d, r, data, pair) in [(3, 3, 0.01, 0.0), (5, 4, 0.02, 0.01)] {
        out.push((
            format!("phase_memory_d{d}_r{r}"),
            mpp_phase_memory(&PhaseMemoryConfig {
                distance: d,
                rounds: r,
                data_error: data,
                pair_error: pair,
            }),
        ));
    }
    out
}

/// The expected (DEM text, symbolic rows) digests per circuit.
const DIGESTS: [(&str, &str, &str); 10] = [
    (
        "noise7",
        "7d7f7c889f41dc388181a1ba990a81562295e223dd2dfcf37a324e8a74345fa5",
        "ef8fd515db55ec622fbb890f3141f870ef68ee2466cf6f2d6bb32d0b8cca17c5",
    ),
    (
        "bell_detect.stim",
        "b4a3e274b777028f4c117236d533d0b32d77779c394ac57e1c507106735d8822",
        "40b7787546a1017487562b95b010e64afe8a80b63397cd3f85c4d7406b60b83a",
    ),
    (
        "phase_flip_d3.stim",
        "6f88c6698cfa8fbc349d49ed86d1656a606ff6fe5c5173238383d2255d5ff8f5",
        "5b9a48e1593655d031ba70b668446602dd9defb3d1a01932db1d17b8e3a0b522",
    ),
    (
        "teleport.stim",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a165af5139781a336235ab1579e33b7413a8a17052daa373c7c488ac9b7e64c0",
    ),
    (
        "surface_d5_r5",
        "98a22953466690de9a771b4bce48ac9ce51bcbfbf1972fff3ea14ae479206a58",
        "792d107078eda38c0a9aad66edc7c917f2568730e743a82380d93f1a1be36a23",
    ),
    (
        "repetition_d3_r2",
        "6f1700b37523fe1ef397a4b1271dc7eb0c5e3c39e7796540e2d8e83a41300cfc",
        "8fee732bccf22096857edce5d37ddf4412b13512c7f515696545df8e8c48e8f8",
    ),
    (
        "repetition_d5_r4",
        "30d33d98207c1d7884d5821d0d78f1ba3b60d53bdfc5cbeae4f9032765ffc6ce",
        "2b90465fe00f9fa85c73485c716b2e0379c72ea7c5812ee7c4a6d5d11d8185bc",
    ),
    (
        "repetition_d4_r3",
        "8806af79935f2dac9e177d7093daca985d77c66662612ba44f0945143cc328b1",
        "2ed0d51ccddd9faf4f03e541f08d9e2b50f3434cc0957bd5162cbf5127f3c4af",
    ),
    (
        "phase_memory_d3_r3",
        "f8c75d10c574b2fb8016aefcd1ff311cfe97e593fe951b3549885ef59fb3e4a7",
        "14bb6a23d90caf9a2d08b0f4d345a2bc890dc26184f5bbf71f29e313aafdc201",
    ),
    (
        "phase_memory_d5_r4",
        "dd474b52e1e3db5f7cecc7617f07873349105d50ffa940abc4ea4059b03be059",
        "b9c4011562ef1b710fcde808a86e9a46fc3234832cf06732243306318409fae4",
    ),
];

/// The expected `symphase analyze` report digest per example file.
const ANALYZE_DIGESTS: [(&str, &str); 3] = [
    (
        "bell_detect.stim",
        "c9be6a7a43e5dec1a343f3b175a8e5f96e273d6cbf0f602f797e4e78cef3da9f",
    ),
    (
        "phase_flip_d3.stim",
        "c8c60f105c9de376a1623248670443c0d4ab01c6d542beb4291f1810d015bac3",
    ),
    (
        "teleport.stim",
        "4236d2d2aa954f3f7a20179678a744aab4fbcd744cd829eb518ec8e78ef48f61",
    ),
];

fn hex(bytes: &[u8]) -> String {
    sha256(bytes).iter().map(|b| format!("{b:02x}")).collect()
}

/// The detector error model as `symphase dem` prints it.
fn dem_text(circuit: &Circuit) -> String {
    SymbolicRecords::new(circuit)
        .detector_error_model()
        .with_detector_coords(circuit.detector_coordinates())
        .to_string()
}

/// The symbolic records as text: each record matrix's shape and rows
/// (the symbol ids of every row, constant as id 0), then which
/// measurement records drew a fresh coin.
fn rows_text(circuit: &Circuit) -> String {
    let s = SymbolicRecords::new(circuit);
    let mut text = String::new();
    for (name, rows) in [
        ("meas", s.measurement_matrix()),
        ("det", s.detector_rows()),
        ("obs", s.observable_rows()),
    ] {
        writeln!(text, "{name} {}x{}", rows.rows(), rows.cols()).unwrap();
        for row in rows.iter() {
            writeln!(text, "{:?}", row.indices()).unwrap();
        }
    }
    let random: String = s
        .random_measurement_records()
        .iter()
        .map(|&r| if r { '1' } else { '0' })
        .collect();
    writeln!(text, "random {random}").unwrap();
    text
}

#[test]
fn dem_and_record_digests_are_pinned() {
    let mut failures = Vec::new();
    let circuits = circuits();
    assert_eq!(circuits.len(), DIGESTS.len(), "one digest per circuit");
    for ((name, circuit), &(want_name, want_dem, want_rows)) in circuits.iter().zip(&DIGESTS) {
        let (dem, rows) = (
            hex(dem_text(circuit).as_bytes()),
            hex(rows_text(circuit).as_bytes()),
        );
        if (name.as_str(), dem.as_str(), rows.as_str()) != (want_name, want_dem, want_rows) {
            failures.push(format!("(\"{name}\", \"{dem}\", \"{rows}\"),"));
        }
    }
    assert!(
        failures.is_empty(),
        "digests differ:\n{}",
        failures.join("\n")
    );
}

#[test]
fn analyze_report_digests_are_pinned() {
    let mut failures = Vec::new();
    let files = example_files();
    assert_eq!(files.len(), ANALYZE_DIGESTS.len(), "one digest per file");
    for ((name, path), &(want_name, want)) in files.iter().zip(&ANALYZE_DIGESTS) {
        let args = ["analyze", "-c", path.to_str().unwrap()].map(String::from);
        let report = symphase::cli::run(&args).expect("analyze succeeds");
        let got = hex(report.as_bytes());
        if (name.as_str(), got.as_str()) != (want_name, want) {
            failures.push(format!("(\"{name}\", \"{got}\"),"));
        }
    }
    assert!(
        failures.is_empty(),
        "digests differ:\n{}",
        failures.join("\n")
    );
}
