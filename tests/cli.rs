//! In-process tests of the `symphase` CLI.

use std::io::Write;

use symphase::cli::{run, run_bytes};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn write_circuit(content: &str) -> tempfile_lite::TempPath {
    tempfile_lite::write(content)
}

/// A minimal self-cleaning temp-file helper (no external crates).
mod tempfile_lite {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    pub struct TempPath(pub PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    impl TempPath {
        pub fn as_str(&self) -> &str {
            self.0.to_str().expect("utf-8 path")
        }
    }

    pub fn write(content: &str) -> TempPath {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("symphase-cli-test-{}-{n}.stim", std::process::id()));
        let mut f = std::fs::File::create(&path).expect("create temp file");
        super::Write::write_all(&mut f, content.as_bytes()).expect("write temp file");
        TempPath(path)
    }
}

#[test]
fn sample_01_deterministic_circuit() {
    let f = write_circuit("X 0\nM 0 1\n");
    let out = run(&args(&["sample", "-c", f.as_str(), "--shots", "3"])).expect("runs");
    assert_eq!(out, "10\n10\n10\n");
}

#[test]
fn sample_counts_format() {
    let f = write_circuit("X 0\nM 0\n");
    let out = run(&args(&[
        "sample",
        "-c",
        f.as_str(),
        "--shots",
        "5",
        "--format",
        "counts",
    ]))
    .expect("runs");
    assert_eq!(out, "1 5\n");
}

#[test]
fn sample_frame_engine_agrees_on_deterministic() {
    let f = write_circuit("X 0\nCX 0 1\nM 0 1\n");
    let a = run(&args(&[
        "sample",
        "-c",
        f.as_str(),
        "--shots",
        "2",
        "--engine",
        "frame",
    ]))
    .expect("runs");
    assert_eq!(a, "11\n11\n");
}

#[test]
fn analyze_reports_expressions() {
    let f = write_circuit("H 0\nCX 0 1\nX_ERROR(0.25) 1\nM 0 1\n");
    let out = run(&args(&["analyze", "-c", f.as_str()])).expect("runs");
    assert!(out.contains("qubits:        2"));
    assert!(out.contains("m0 = s2"));
    assert!(out.contains("m1 = s1 ⊕ s2"));
}

#[test]
fn dem_output() {
    let f =
        write_circuit("X_ERROR(0.25) 0\nM 0\nDETECTOR rec[-1]\nOBSERVABLE_INCLUDE(0) rec[-1]\n");
    let out = run(&args(&["dem", "-c", f.as_str()])).expect("runs");
    assert_eq!(out, "error(0.25) D0 L0\n");
}

#[test]
fn reference_output() {
    let f = write_circuit("X 0\nH 1\nM 0 1\n");
    let out = run(&args(&["reference", "-c", f.as_str()])).expect("runs");
    assert_eq!(out, "10\n"); // random outcome fixed to 0
}

#[test]
fn detect_output_shapes() {
    let f = write_circuit(
        "X_ERROR(1.0) 0\nM 0 1\nDETECTOR rec[-2]\nDETECTOR rec[-1]\nOBSERVABLE_INCLUDE(0) rec[-2]\n",
    );
    let out = run(&args(&["detect", "-c", f.as_str(), "--shots", "2"])).expect("runs");
    assert_eq!(out, "10 1\n10 1\n");
}

#[test]
fn seed_makes_sampling_reproducible() {
    let f = write_circuit("H 0\nM 0\n");
    let a = run(&args(&[
        "sample",
        "-c",
        f.as_str(),
        "--shots",
        "64",
        "--seed",
        "7",
    ]))
    .unwrap();
    let b = run(&args(&[
        "sample",
        "-c",
        f.as_str(),
        "--shots",
        "64",
        "--seed",
        "7",
    ]))
    .unwrap();
    let c = run(&args(&[
        "sample",
        "-c",
        f.as_str(),
        "--shots",
        "64",
        "--seed",
        "8",
    ]))
    .unwrap();
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn stats_reports_structural_counts_past_the_old_cap() {
    // 6×10⁹ flattened gates: the old flatten-on-parse front-end refused
    // anything past 50M materialized instructions; the structured parse
    // computes the statistics from the REPEAT node in O(file).
    let f = write_circuit("REPEAT 60000 {\n REPEAT 100000 {\n X 0\n }\n}\n");
    let out = run(&args(&["stats", "-c", f.as_str()])).expect("runs");
    assert!(out.contains("gates:         6000000000"), "{out}");
    assert!(out.contains("instructions:  1 (structured)"), "{out}");
}

#[test]
fn gen_emits_structured_rounds_that_roundtrip() {
    let out = run(&args(&[
        "gen",
        "surface-code",
        "--distance",
        "3",
        "--rounds",
        "50",
    ]))
    .expect("runs");
    assert!(out.contains("REPEAT 49 {"), "{out}");
    // The emitted text parses back and reports structural counts.
    let f = write_circuit(&out);
    let stats = run(&args(&["stats", "-c", f.as_str()])).expect("runs");
    assert!(stats.contains("measurements:  409"), "{stats}"); // 8×50 + 9
                                                              // …and samples end to end through the default engine.
    let detect = run(&args(&["detect", "-c", f.as_str(), "--shots", "4"])).expect("runs");
    assert_eq!(detect.lines().count(), 4);
}

#[test]
fn gen_repetition_code_and_bad_names() {
    let out = run(&args(&["gen", "repetition-code", "--rounds", "10"])).expect("runs");
    assert!(out.contains("REPEAT 9 {"), "{out}");
    assert!(run(&args(&["gen"])).is_err(), "missing generator name");
    assert!(run(&args(&["gen", "bogus"])).is_err(), "unknown generator");
    assert!(
        run(&args(&["gen", "surface-code", "--distance", "4"])).is_err(),
        "even distance"
    );
}

#[test]
fn gen_surface_code_memory_x() {
    let out = run(&args(&[
        "gen",
        "surface-code",
        "--distance",
        "3",
        "--rounds",
        "20",
        "--basis",
        "x",
    ]))
    .expect("runs");
    assert!(out.starts_with("RX 0 1 2 3 4 5 6 7 8\n"), "{out}");
    assert!(out.contains("MX "), "{out}");
    assert!(out.contains("REPEAT 19 {"), "{out}");
    // End to end: parse, sample detectors through the default engine, and
    // print the detector error model.
    let f = write_circuit(&out);
    let detect = run(&args(&["detect", "-c", f.as_str(), "--shots", "8"])).expect("runs");
    assert_eq!(detect.lines().count(), 8);
    let dem = run(&args(&["dem", "-c", f.as_str()])).expect("runs");
    assert!(dem.contains("error("), "{dem}");
    // Bad basis values fail as usage errors.
    let e = run(&args(&["gen", "surface-code", "--basis", "q"])).unwrap_err();
    assert_eq!(e.code, 2);
    assert!(e.message.contains("--basis"), "{}", e.message);
}

#[test]
fn gen_phase_memory_mpp_and_correlated_noise() {
    let out = run(&args(&[
        "gen",
        "phase-memory",
        "--distance",
        "4",
        "--rounds",
        "10",
        "--data-error",
        "0.01",
        "--pair-error",
        "0.005",
    ]))
    .expect("runs");
    assert!(out.contains("MPP X0*X1 X1*X2 X2*X3"), "{out}");
    assert!(out.contains("E(0.005) Z0 Z1"), "{out}");
    assert!(out.contains("ELSE_CORRELATED_ERROR(0.005) Z1 Z2"), "{out}");
    assert!(out.contains("REPEAT 9 {"), "{out}");
    let f = write_circuit(&out);
    let detect = run(&args(&["detect", "-c", f.as_str(), "--shots", "6"])).expect("runs");
    assert_eq!(detect.lines().count(), 6);
    let e = run(&args(&["gen", "phase-memory", "--pair-error", "1.5"])).unwrap_err();
    assert!(e.message.contains("[0, 1]"), "{}", e.message);
}

#[test]
fn gen_rejects_inapplicable_flags() {
    // Flags a generator does not understand must error, not be silently
    // ignored (the user would otherwise get wrong noise/basis settings).
    let e = run(&args(&["gen", "phase-memory", "--measure-error", "0.01"])).unwrap_err();
    assert_eq!(e.code, 2);
    assert!(e.message.contains("does not apply"), "{}", e.message);
    let e = run(&args(&["gen", "repetition-code", "--basis", "x"])).unwrap_err();
    assert!(e.message.contains("does not apply"), "{}", e.message);
    let e = run(&args(&["gen", "repetition-code", "--pair-error", "0.1"])).unwrap_err();
    assert!(e.message.contains("does not apply"), "{}", e.message);
    let e = run(&args(&["gen", "surface-code", "--pair-error", "0.1"])).unwrap_err();
    assert!(e.message.contains("does not apply"), "{}", e.message);
    // Explicit defaults still work where the flag applies.
    assert!(run(&args(&["gen", "surface-code", "--basis", "z"])).is_ok());
    assert!(run(&args(&["gen", "phase-memory", "--pair-error", "0"])).is_ok());
}

#[test]
fn gen_rejects_bad_probabilities_and_zero_rounds() {
    let e = run(&args(&["gen", "surface-code", "--data-error", "1.5"])).unwrap_err();
    assert!(e.message.contains("[0, 1]"), "{}", e.message);
    let e = run(&args(&[
        "gen",
        "repetition-code",
        "--measure-error",
        "-0.1",
    ]))
    .unwrap_err();
    assert!(e.message.contains("[0, 1]"), "{}", e.message);
    let e = run(&args(&["gen", "surface-code", "--rounds", "0"])).unwrap_err();
    assert!(e.message.contains("at least 1"), "{}", e.message);
}

#[test]
fn bare_arguments_outside_gen_are_rejected() {
    // A dropped flag name must not be silently swallowed.
    let f = write_circuit("X 0\nM 0\n");
    let e = run(&args(&["sample", "-c", f.as_str(), "100"])).unwrap_err();
    assert!(
        e.message.contains("unexpected argument '100'"),
        "{}",
        e.message
    );
    // gen takes exactly one bare argument.
    assert!(run(&args(&["gen", "surface-code", "extra"])).is_err());
}

#[test]
fn errors_are_reported() {
    assert!(run(&args(&["sample"])).is_err(), "missing circuit");
    assert!(run(&args(&["bogus"])).is_err(), "unknown command");
    let f = write_circuit("FROB 0\n");
    let e = run(&args(&["sample", "-c", f.as_str()])).unwrap_err();
    assert!(e.message.contains("parse error"));
    let e = run(&args(&["sample", "-c", "/nonexistent/x.stim"])).unwrap_err();
    assert!(e.message.contains("reading"));
}

#[test]
fn help_exits_zero() {
    let e = run(&args(&["sample", "--help"])).unwrap_err();
    assert_eq!(e.code, 0);
    assert!(e.message.contains("usage"));
}

#[test]
fn usage_and_runtime_errors_have_distinct_exit_codes() {
    // Usage errors (malformed invocation): exit code 2.
    for bad in [
        vec!["bogus"],
        vec!["sample"], // missing --circuit
        vec!["sample", "-c", "/nonexistent/x.stim", "--format", "base64"],
        vec!["sample", "-c", "/nonexistent/x.stim", "--engine", "warp"],
        // The engine picks its `M·B` kernel itself; there is no flag.
        vec!["sample", "-c", "/nonexistent/x.stim", "--sampling", "q"],
        vec!["sample", "-c", "x.stim", "--threads", "0"],
        vec![
            "detect",
            "-c",
            "x.stim",
            "--sampling",
            "dense",
            "--engine",
            "frame",
        ],
    ] {
        let e = run(&args(&bad)).unwrap_err();
        assert_eq!(e.code, 2, "{bad:?}: {}", e.message);
    }
    let e = run(&args(&["sample", "-c", "x.stim", "--sampling", "dense"])).unwrap_err();
    assert!(
        e.message.contains("unknown option '--sampling'"),
        "{}",
        e.message
    );
    // Runtime errors (well-formed invocation, bad inputs): exit code 1.
    let unparsable = write_circuit("FROB 0\n");
    for bad in [
        vec!["sample", "-c", "/nonexistent/x.stim"],
        vec!["sample", "-c", unparsable.as_str()],
    ] {
        let e = run(&args(&bad)).unwrap_err();
        assert_eq!(e.code, 1, "{bad:?}: {}", e.message);
    }
}

#[test]
fn pinned_phase_store_engine_names_are_gone() {
    // The phase store is picked per circuit; the old pinned-store names
    // are unknown engines, and the usage error lists the four left.
    let f = write_circuit("H 0\nM 0\n");
    let e = run(&args(&[
        "sample",
        "-c",
        f.as_str(),
        "--engine",
        "symphase-dense",
    ]))
    .unwrap_err();
    assert_eq!(e.code, 2, "{}", e.message);
    assert!(
        e.message
            .contains("(expected one of: symphase, frame, tableau, statevec)"),
        "{}",
        e.message
    );
}

#[test]
fn option_values_are_validated_before_the_circuit_loads() {
    // A bad --format must fail as a usage error even when the circuit
    // file does not exist (i.e. before any loading/sampling).
    let e = run(&args(&[
        "sample",
        "-c",
        "/nonexistent/never-read.stim",
        "--format",
        "base64",
    ]))
    .unwrap_err();
    assert_eq!(e.code, 2);
    assert!(e.message.contains("unknown format"), "{}", e.message);
    // Same for detect, and for dets misapplied to sample.
    let e = run(&args(&[
        "sample",
        "-c",
        "/nonexistent/never-read.stim",
        "--format",
        "dets",
    ]))
    .unwrap_err();
    assert_eq!(e.code, 2);
    assert!(e.message.contains("detect"), "{}", e.message);
}

#[test]
fn zero_shots_emit_empty_output_across_commands_and_formats() {
    let f =
        write_circuit("X_ERROR(0.5) 0\nM 0 1\nDETECTOR rec[-1]\nOBSERVABLE_INCLUDE(0) rec[-2]\n");
    for format in ["01", "counts", "b8", "hits"] {
        let out = run_bytes(&args(&[
            "sample",
            "-c",
            f.as_str(),
            "--shots",
            "0",
            "--format",
            format,
        ]))
        .expect("runs");
        assert!(out.is_empty(), "sample --format {format}: {out:?}");
    }
    for format in ["01", "counts", "b8", "hits", "dets"] {
        let out = run_bytes(&args(&[
            "detect",
            "-c",
            f.as_str(),
            "--shots",
            "0",
            "--format",
            format,
        ]))
        .expect("runs");
        assert!(out.is_empty(), "detect --format {format}: {out:?}");
    }
    // The parallel path agrees.
    let out = run_bytes(&args(&[
        "sample",
        "-c",
        f.as_str(),
        "--shots",
        "0",
        "--par",
    ]))
    .expect("runs");
    assert!(out.is_empty());
}

#[test]
fn b8_format_packs_bits_little_endian() {
    let f = write_circuit("X 0\nM 0 1\n");
    // m0 = 1, m1 = 0 -> one byte per shot, value 0b01.
    let out = run_bytes(&args(&[
        "sample",
        "-c",
        f.as_str(),
        "--shots",
        "3",
        "--format",
        "b8",
    ]))
    .expect("runs");
    assert_eq!(out, vec![1u8, 1, 1]);
}

#[test]
fn hits_format_lists_set_indices() {
    let f = write_circuit("X 1\nM 0 1 2\n");
    let out = run(&args(&[
        "sample",
        "-c",
        f.as_str(),
        "--shots",
        "2",
        "--format",
        "hits",
    ]))
    .expect("runs");
    assert_eq!(out, "1\n1\n");
}

#[test]
fn dets_format_labels_events() {
    let f = write_circuit(
        "X_ERROR(1.0) 0\nM 0 1\nDETECTOR rec[-2]\nDETECTOR rec[-1]\nOBSERVABLE_INCLUDE(0) rec[-2]\n",
    );
    let out = run(&args(&[
        "detect",
        "-c",
        f.as_str(),
        "--shots",
        "2",
        "--format",
        "dets",
    ]))
    .expect("runs");
    assert_eq!(out, "shot D0 L0\nshot D0 L0\n");
}

#[test]
fn out_flag_streams_to_file_and_keeps_stdout_empty() {
    let f = write_circuit("X 0\nM 0\n");
    let out_path = std::env::temp_dir().join(format!(
        "symphase-cli-out-{}-{}.01",
        std::process::id(),
        line!()
    ));
    let stdout = run(&args(&[
        "sample",
        "-c",
        f.as_str(),
        "--shots",
        "3",
        "--out",
        out_path.to_str().unwrap(),
    ]))
    .expect("runs");
    assert!(stdout.is_empty());
    assert_eq!(std::fs::read_to_string(&out_path).unwrap(), "1\n1\n1\n");
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn obs_out_splits_observables_from_detectors() {
    let f = write_circuit(
        "X_ERROR(1.0) 0\nM 0 1\nDETECTOR rec[-2]\nDETECTOR rec[-1]\nOBSERVABLE_INCLUDE(0) rec[-2]\n",
    );
    let obs_path = std::env::temp_dir().join(format!(
        "symphase-cli-obs-{}-{}.01",
        std::process::id(),
        line!()
    ));
    let stdout = run(&args(&[
        "detect",
        "-c",
        f.as_str(),
        "--shots",
        "2",
        "--obs-out",
        obs_path.to_str().unwrap(),
    ]))
    .expect("runs");
    // Main output carries detectors only; observables land in the file.
    assert_eq!(stdout, "10\n10\n");
    assert_eq!(std::fs::read_to_string(&obs_path).unwrap(), "1\n1\n");
    let _ = std::fs::remove_file(&obs_path);
    // --obs-out on sample is a usage error.
    let e = run(&args(&["sample", "-c", f.as_str(), "--obs-out", "/tmp/x"])).unwrap_err();
    assert_eq!(e.code, 2);
}

#[test]
fn threads_flag_matches_serial_output() {
    let f = write_circuit("H 0\nX_ERROR(0.3) 1\nM 0 1\n");
    // 500 shots fit in one 4096-shot chunk; 2 * 4096 + 100 spans three,
    // so the threaded runs draw chunks concurrently.
    for shots in ["500", "8292"] {
        let serial = run(&args(&[
            "sample",
            "-c",
            f.as_str(),
            "--shots",
            shots,
            "--seed",
            "9",
        ]))
        .expect("runs");
        for threads in ["2", "3"] {
            let par = run(&args(&[
                "sample",
                "-c",
                f.as_str(),
                "--shots",
                shots,
                "--seed",
                "9",
                "--threads",
                threads,
            ]))
            .expect("runs");
            assert_eq!(serial, par, "--threads {threads} diverged");
        }
        let par = run(&args(&[
            "sample",
            "-c",
            f.as_str(),
            "--shots",
            shots,
            "--seed",
            "9",
            "--par",
        ]))
        .expect("runs");
        assert_eq!(serial, par, "--par diverged");
    }
}

#[test]
fn counts_format_aggregates_detect_output() {
    let f =
        write_circuit("X_ERROR(1.0) 0\nM 0 1\nDETECTOR rec[-2]\nOBSERVABLE_INCLUDE(0) rec[-2]\n");
    let out = run(&args(&[
        "detect",
        "-c",
        f.as_str(),
        "--shots",
        "4",
        "--format",
        "counts",
    ]))
    .expect("runs");
    assert_eq!(out, "1 1 4\n");
}

#[test]
fn statevec_qubit_cap_is_a_runtime_error() {
    // 23 qubits exceed the dense ground truth's MAX_QUBITS = 22.
    let f = write_circuit("M 22\n");
    let e = run(&args(&["sample", "-c", f.as_str(), "--engine", "statevec"])).unwrap_err();
    assert_eq!(e.code, 1);
    assert!(e.message.contains("exceed"), "{}", e.message);
}

#[test]
fn tableau_budget_is_a_runtime_error() {
    // A million-qubit tableau would take ~250 GB: every stabilizer engine
    // refuses the circuit before allocating it, and so does every
    // analysis that builds one (SymPhase initialization or a tableau
    // reference sample).
    let f = write_circuit("H 1000000\nM 1000000\n");
    let refusal = |engine: &str| {
        format!(
            "engine '{engine}' cannot simulate this circuit \
             (1000001 qubits exceed its limit of 23167)"
        )
    };
    for engine in ["symphase", "frame", "tableau"] {
        let e = run(&args(&["sample", "-c", f.as_str(), "--engine", engine])).unwrap_err();
        assert_eq!(e.code, 1, "{engine}");
        assert_eq!(e.message, refusal(engine));
    }
    for (cmd, engine) in [
        ("lint", "symphase"),
        ("analyze", "symphase"),
        ("opt", "symphase"),
        ("dem", "symphase"),
        ("reference", "tableau"),
    ] {
        let e = run(&args(&[cmd, "-c", f.as_str()])).unwrap_err();
        assert_eq!(e.code, 1, "{cmd}");
        assert_eq!(e.message, refusal(engine), "{cmd}");
    }
}

#[test]
fn symbol_budget_is_a_runtime_error() {
    // 4·10⁹ noise symbols: past what a SymPhase build can index. The
    // refusal reads the REPEAT-multiplied statistics, so it comes in well
    // under a second instead of after gigabytes of symbol table.
    let f = write_circuit("REPEAT 1000000000 {\nX_ERROR(0.1) 0 1 2 3\n}\nM 0\n");
    let refusal = "engine 'symphase' cannot simulate this circuit (it may allocate \
                   4000000001 symbols, over its limit of 2147483646); --engine frame \
                   runs it in memory linear in the qubits";
    for cmd in [
        &["sample", "-c", f.as_str()][..],
        &["detect", "-c", f.as_str(), "--format", "b8"],
        &["dem", "-c", f.as_str()],
        &["analyze", "-c", f.as_str()],
    ] {
        let t = std::time::Instant::now();
        let e = run(&args(cmd)).unwrap_err();
        assert!(
            t.elapsed().as_secs_f64() < 1.0,
            "{cmd:?} took {:?}",
            t.elapsed()
        );
        assert_eq!(e.code, 1, "{cmd:?}");
        assert_eq!(e.message, refusal, "{cmd:?}");
    }
    // A trip count too large to multiply out is refused the same way.
    let f = write_circuit("REPEAT 18446744073709551615 {\nX_ERROR(0.1) 0\nM 0\n}\n");
    let e = run(&args(&["sample", "-c", f.as_str()])).unwrap_err();
    assert_eq!(e.code, 1);
    assert!(
        e.message
            .contains("REPEAT counts multiply out past any symbol count"),
        "{}",
        e.message
    );
}

// ---------------------------------------------------------------------
// `symphase lint`
// ---------------------------------------------------------------------

#[test]
fn lint_text_output_carries_lines_and_help() {
    let f = write_circuit("H 0\nM 0\nH 0\n");
    let out = run(&args(&["lint", "-c", f.as_str()])).expect("lints");
    assert!(out.contains("warning[SP001] line 3:"), "{out}");
    assert!(out.contains("= help:"), "{out}");
}

#[test]
fn lint_clean_circuit_prints_nothing() {
    let f = write_circuit("X_ERROR(0.1) 0\nM 0\nDETECTOR rec[-1]\n");
    let out = run(&args(&["lint", "-c", f.as_str()])).expect("lints");
    assert_eq!(out, "");
}

#[test]
fn lint_json_output_is_structured() {
    let f = write_circuit("H 0 2\nM 0 2\nH 0\n");
    let out = run(&args(&["lint", "-c", f.as_str(), "--format", "json"])).expect("lints");
    assert!(out.starts_with('['), "{out}");
    assert!(out.contains("\"code\":\"SP001\""), "{out}");
    // SP005 (unused qubit 1) is circuit-level: a null line.
    assert!(out.contains("\"code\":\"SP005\""), "{out}");
    assert!(out.contains("\"line\":null"), "{out}");
}

#[test]
fn lint_deny_warnings_escalates_to_exit_1() {
    let f = write_circuit("H 0\nM 0\nH 0\n");
    let e = run(&args(&["lint", "-c", f.as_str(), "--deny", "warnings"])).unwrap_err();
    assert_eq!(e.code, 1);
    assert!(e.message.contains("error-severity"), "{}", e.message);
}

#[test]
fn lint_deny_specific_code_only_escalates_that_code() {
    // SP001 fires but only SP002 is denied — exit stays 0.
    let f = write_circuit("H 0\nM 0\nH 0\n");
    run(&args(&["lint", "-c", f.as_str(), "--deny", "SP002"])).expect("not denied");
    let e = run(&args(&["lint", "-c", f.as_str(), "--deny", "SP001"])).unwrap_err();
    assert_eq!(e.code, 1);
}

#[test]
fn lint_rejects_unknown_deny_and_format() {
    let f = write_circuit("M 0\n");
    let e = run(&args(&["lint", "-c", f.as_str(), "--deny", "SP999"])).unwrap_err();
    assert_eq!(e.code, 2);
    let e = run(&args(&["lint", "-c", f.as_str(), "--format", "counts"])).unwrap_err();
    assert_eq!(e.code, 2);
}

// ---------------------------------------------------------------------
// `symphase opt`
// ---------------------------------------------------------------------

#[test]
fn opt_emits_optimized_circuit_that_reparses_and_relints_clean() {
    let f = write_circuit("H 0\nH 0\nX_ERROR(0.1) 0\nM 0\nDETECTOR rec[-1]\nS 0\n");
    let out = run(&args(&["opt", "-c", f.as_str()])).expect("optimizes");
    // The fused H·H pair and the trailing dead S are gone; the live
    // noise and the detector stay.
    assert_eq!(out, "X_ERROR(0.1) 0\nM 0\nDETECTOR rec[-1]\n");
    // The output round-trips through the parser and re-lints clean of
    // everything the passes remove.
    let g = write_circuit(&out);
    run(&args(&[
        "lint",
        "-c",
        g.as_str(),
        "--deny",
        "SP001",
        "--deny",
        "SP002",
        "--deny",
        "SP011",
    ]))
    .expect("optimized output re-lints clean");
}

#[test]
fn opt_stats_reports_passes_and_flips() {
    let f = write_circuit("X 0\nM 0\nM 1\n");
    let out = run(&args(&["opt", "-c", f.as_str(), "--stats"])).expect("optimizes");
    assert!(out.starts_with("M 0\nM 1\n"), "{out}");
    assert!(out.contains("# opt: gates 1 -> 0"), "{out}");
    assert!(out.contains("# opt: pass propagate: 1 applied"), "{out}");
    assert!(
        out.contains("rewrite proof(s) discharged, 0 rolled back"),
        "{out}"
    );
    assert!(
        out.contains("# opt: sign-flipped measurement record(s): 0"),
        "{out}"
    );
}

#[test]
fn opt_json_output_carries_report_proof_and_circuit() {
    let f = write_circuit("H 0\nH 0\nM 0\n");
    let out = run(&args(&["opt", "-c", f.as_str(), "--format", "json"])).expect("optimizes");
    assert!(out.contains("\"gates_before\":2"), "{out}");
    assert!(out.contains("\"gates_after\":0"), "{out}");
    assert!(out.contains("\"status\":\"verified\""), "{out}");
    assert!(out.contains("\"flipped_records\": []"), "{out}");
    assert!(out.contains("\"circuit\": \"M 0\\n\""), "{out}");
}

#[test]
fn opt_passes_subset_runs_only_those() {
    let f = write_circuit("H 0\nH 0\nX 1\nM 0 1\n");
    // Fuse collapses H·H; the standalone X stays because propagate is
    // not in the list.
    let out = run(&args(&["opt", "-c", f.as_str(), "--passes", "fuse"])).expect("runs");
    assert_eq!(out, "X 1\nM 0 1\n");
}

#[test]
fn opt_unparsable_file_exits_1_with_sp000() {
    // The bugfix pin: `opt` classifies parse failures through the same
    // source-mapped path as `lint` — SP000 with the offending line, then
    // exit 1.
    let f = write_circuit("FROB 0\n");
    let mut out = Vec::new();
    let e = symphase::cli::run_to(&args(&["opt", "-c", f.as_str()]), &mut out).unwrap_err();
    assert_eq!(e.code, 1);
    assert!(e.message.contains("does not parse"), "{}", e.message);
    let text = String::from_utf8(out).expect("utf-8");
    assert!(text.contains("error[SP000] line 1:"), "{text}");
}

#[test]
fn opt_rejects_bad_passes_and_format() {
    let f = write_circuit("M 0\n");
    let e = run(&args(&["opt", "-c", f.as_str(), "--passes", "warp"])).unwrap_err();
    assert_eq!(e.code, 2);
    assert!(
        e.message.contains("strip, fuse, propagate"),
        "{}",
        e.message
    );
    let e = run(&args(&["opt", "-c", f.as_str(), "--passes", ","])).unwrap_err();
    assert_eq!(e.code, 2);
    let e = run(&args(&["opt", "-c", f.as_str(), "--format", "counts"])).unwrap_err();
    assert_eq!(e.code, 2);
}

#[test]
fn lint_deny_sp011_escalates_fusable_runs() {
    let f = write_circuit("H 0\nH 0\nM 0\n");
    let e = run(&args(&["lint", "-c", f.as_str(), "--deny", "SP011"])).unwrap_err();
    assert_eq!(e.code, 1);
}

// ---------------------------------------------------------------------
// `symphase hash`, broken pipes, and `serve`/`request`
// ---------------------------------------------------------------------

#[test]
fn hash_is_canonical_over_parse_equivalent_sources() {
    let a = write_circuit("H 0\nCX 0 1\nM 0 1\n");
    let b = write_circuit("# preamble comment\n  H   0\n\nCX 0 1   # tail\nM 0 1");
    let c = write_circuit("H 0\nCX 0 1\nM 1 0\n");
    let ha = run(&args(&["hash", "-c", a.as_str()])).expect("hashes");
    let hb = run(&args(&["hash", "-c", b.as_str()])).expect("hashes");
    let hc = run(&args(&["hash", "-c", c.as_str()])).expect("hashes");
    assert_eq!(ha, hb, "whitespace/comment-equivalent files must collide");
    assert_ne!(ha, hc, "distinct circuits must not collide");
    let line = ha.trim_end();
    assert_eq!(line.len(), 64, "{line}");
    assert!(line.chars().all(|ch| ch.is_ascii_hexdigit()));
    // The printed hash is the serve cache key for the same circuit.
    let circuit = symphase::circuit::Circuit::parse("H 0\nCX 0 1\nM 0 1\n").unwrap();
    assert_eq!(line, symphase::serve::circuit_hash(&circuit).to_hex());
}

/// A writer that accepts `budget` bytes, then reports a broken pipe —
/// what stdout looks like once `| head` has exited.
struct BrokenPipe {
    budget: usize,
}

impl Write for BrokenPipe {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.budget == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "reader hung up",
            ));
        }
        let take = buf.len().min(self.budget);
        self.budget -= take;
        Ok(take)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.budget == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "reader hung up",
            ));
        }
        Ok(())
    }
}

#[test]
fn broken_pipe_mid_stream_is_a_clean_success() {
    // `symphase sample ... | head` must exit cleanly, not panic: once the
    // reader hangs up, the stream stops and the run reports success.
    let f = write_circuit("H 0\nX_ERROR(0.3) 1\nM 0 1\n");
    for budget in [0usize, 1, 100] {
        let mut w = BrokenPipe { budget };
        symphase::cli::run_to(
            &args(&["sample", "-c", f.as_str(), "--shots", "100000"]),
            &mut w,
        )
        .unwrap_or_else(|e| panic!("broken pipe at {budget} bytes must be success, got: {e}"));
    }
    // Non-streaming output paths (help text and friends) get the same
    // treatment.
    let mut w = BrokenPipe { budget: 0 };
    symphase::cli::run_to(&args(&["stats", "-c", f.as_str()]), &mut w)
        .expect("broken pipe on text output must be success");
    // Any other write failure still fails the run.
    struct Full;
    impl Write for Full {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(
                std::io::ErrorKind::StorageFull,
                "disk full",
            ))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let e = symphase::cli::run_to(
        &args(&["sample", "-c", f.as_str(), "--shots", "100"]),
        &mut Full,
    )
    .unwrap_err();
    assert_eq!(e.code, 1);
}

#[test]
fn serve_and_request_usage_errors() {
    let f = write_circuit("M 0\n");
    // Both daemon and client need an address.
    for bad in [
        vec!["serve"],
        vec!["request", "-c", f.as_str()],
        // Tuning flags must be sane before any bind happens.
        vec!["serve", "--addr", "127.0.0.1:0", "--workers", "0"],
        vec!["serve", "--addr", "127.0.0.1:0", "--max-queue", "0"],
        vec!["serve", "--addr", "127.0.0.1:0", "--cache-size", "0"],
        vec!["serve", "--addr", "127.0.0.1:0", "--workers", "many"],
        // Client-side validation, before any connection is attempted.
        vec!["request", "--addr", "127.0.0.1:1", "--range", "nope"],
        vec!["request", "--addr", "127.0.0.1:1", "--source", "q"],
        vec!["request", "--addr", "127.0.0.1:1", "--hash", "abc"],
        vec![
            "request",
            "--addr",
            "127.0.0.1:1",
            "--hash",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "-c",
            f.as_str(),
        ],
    ] {
        let e = run(&args(&bad)).unwrap_err();
        assert_eq!(e.code, 2, "{bad:?}: {}", e.message);
    }
}

#[test]
fn request_command_round_trips_against_an_in_process_daemon() {
    use std::sync::Arc;
    let server = symphase::serve::Server::bind(
        "127.0.0.1:0",
        symphase::serve::ServeOptions::default(),
        Arc::new(symphase::backend::build_sampler),
        None,
    )
    .expect("bind loopback")
    .spawn();
    let addr = server.addr().to_string();
    let f = write_circuit("H 0\nX_ERROR(0.3) 1\nM 0 1\nDETECTOR rec[-1]\n");
    let offline = run_bytes(&args(&[
        "sample",
        "-c",
        f.as_str(),
        "--shots",
        "500",
        "--seed",
        "5",
        "--format",
        "b8",
    ]))
    .expect("offline sample");
    let served = run_bytes(&args(&[
        "request",
        "--addr",
        &addr,
        "-c",
        f.as_str(),
        "--shots",
        "500",
        "--seed",
        "5",
        "--format",
        "b8",
    ]))
    .expect("served sample");
    assert_eq!(served, offline, "served bytes must match the offline CLI");
    // Stats round-trip over the wire via the CLI client.
    let stats = run(&args(&["request", "--addr", &addr, "--stats"])).expect("stats");
    assert!(stats.contains("misses 1"), "{stats}");
    assert!(stats.contains("served 2"), "{stats}");
    // A typed server error surfaces as a runtime (exit 1) CLI error.
    let bad = write_circuit("FROB 0\n");
    let e = run(&args(&[
        "request",
        "--addr",
        &addr,
        "-c",
        bad.as_str(),
        "--shots",
        "10",
    ]))
    .unwrap_err();
    assert_eq!(e.code, 1);
    assert!(e.message.contains("parse"), "{}", e.message);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn lint_parse_errors_render_as_diagnostics_and_exit_1() {
    // Unknown instruction: SP000, error severity, exit 1 even without --deny.
    let f = write_circuit("FROB 0\n");
    let e = run(&args(&["lint", "-c", f.as_str()])).unwrap_err();
    assert_eq!(e.code, 1);

    // Out-of-range lookback: classified as SP006 with the offending line.
    let f = write_circuit("M 0\nDETECTOR rec[-2]\n");
    let mut out = Vec::new();
    let e = symphase::cli::run_to(&args(&["lint", "-c", f.as_str()]), &mut out).unwrap_err();
    assert_eq!(e.code, 1);
    let text = String::from_utf8(out).expect("utf-8");
    assert!(text.contains("error[SP006] line 2:"), "{text}");
}
