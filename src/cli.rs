//! The `symphase` command-line interface.
//!
//! A Stim-like CLI over the circuit text format:
//!
//! ```text
//! symphase sample    -c circuit.stim --shots 1000 [--format 01|counts|b8|hits] [--out F] [--seed N] [--engine E] [--par|--threads T]
//! symphase detect    -c circuit.stim --shots 1000 [--format 01|counts|b8|hits|dets] [--out F] [--obs-out F] [--seed N] [--engine E] [--par|--threads T]
//! symphase analyze   -c circuit.stim
//! symphase stats     -c circuit.stim
//! symphase dem       -c circuit.stim
//! symphase reference -c circuit.stim
//! symphase gen surface-code --distance 3 --rounds 100000 [--data-error p] [--measure-error p]
//! ```
//!
//! `sample` and `detect` **stream**: shots flow from the engine to the
//! output writer one chunk at a time through the [`ShotSink`] layer, so
//! memory stays `O(chunk)` however many shots are requested — a billion
//! shots to a `b8` file never holds more than one chunk in memory. (The
//! one exception is `--format counts`, which by design accumulates one
//! counter per *distinct* observed bit pattern; on high-entropy records
//! that can approach one entry per shot.)
//! `--out` writes to a file instead of stdout; `--obs-out` splits the
//! observable stream of `detect` into its own file. The output formats
//! (`01`, `counts`, `b8`, `hits`, `dets`) are specified in
//! `docs/formats.md`.
//!
//! Sampling is always chunk-seeded: `--seed N` fixes the output
//! bit-for-bit, and `--par` / `--threads T` only change how chunks are
//! drawn, never what the output contains.
//!
//! Option values are validated **before** the circuit is loaded, and exit
//! codes distinguish failure classes: `2` for usage errors (unknown
//! option, bad format/engine/sampling name), `1` for runtime errors
//! (unreadable file, parse error, circuit/engine mismatch, I/O failure),
//! `0` for `--help`.
//!
//! `stats` parses and prints structural statistics only — because
//! `REPEAT` blocks are first-class IR nodes, this is O(file) even for a
//! circuit whose flattened form would hold billions of instructions.
//! `gen` emits the built-in QEC memory workloads (with structured
//! `REPEAT` rounds) as circuit text.
//!
//! The logic lives here (rather than in `main`) so the test suite can run
//! commands in-process.

use std::fmt::Write as _;
use std::io::{self, Write};

use symphase_backend::formats::{RecordSource, SampleFormat};
use symphase_backend::{FanoutSink, Sampler, ShotSink, SimConfig};
use symphase_circuit::Circuit;
use symphase_core::SymPhaseSampler;
use symphase_tableau::reference_sample;

use crate::backend::{build_sampler, check_tableau_budget, lint_gate, EngineKind};

/// A CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable description.
    pub message: String,
    /// Process exit code: `2` for usage errors, `1` for runtime errors,
    /// `0` for `--help`.
    pub code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// A usage error (exit code 2): the invocation itself is malformed.
fn fail(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: 2,
    }
}

/// A runtime error (exit code 1): a well-formed invocation that failed
/// against its inputs (file, circuit, engine, output writer).
fn fail_run(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: 1,
    }
}

/// Usage text.
pub const USAGE: &str = "\
usage: symphase <command> [options]

commands:
  sample     sample measurement records        (--shots, --seed, --format, --out, --engine, --par)
  detect     sample detectors and observables  (--shots, --seed, --format, --out, --obs-out, --engine, --par)
  analyze    print circuit statistics, symbolic expressions, and the
             DEM-level analysis: detector-hypergraph lints (SP012..SP014)
             and a verified bounded circuit-distance search (SP015)
             (--dem <file>, --max-weight <k>, --format text|json, --deny)
  lint       run the static analyzer (--format text|json, --deny <code|warnings>)
  opt        run the verified optimizer and print the optimized circuit
             (--passes strip,fuse,propagate; --stats; --format text|json)
  stats      print structural statistics only (O(file), REPEAT never expanded)
  dem        print the detector error model
  reference  print the noiseless reference sample
  gen        emit a generated circuit: surface-code, repetition-code, or
             phase-memory (--distance, --rounds, --data-error,
             --measure-error, --basis, --pair-error)
  hash       print the canonical content hash of a circuit file (the
             serve cache key; whitespace/comment-equivalent files match)
  serve      run the sampling daemon (--addr, --workers, --max-queue,
             --cache-size, --threads, --optimize, --lint) — docs/serve.md
  request    query a running daemon (--addr, -c|--hash, --shots|--range,
             --seed, --engine, --source, --format, --out, --stats)

options:
  -c, --circuit <path>   circuit file in the Stim-like text format ('-' = stdin)
      --shots <n>        number of samples (default 10; 0 is valid and emits empty output)
      --seed <n>         RNG seed (default 0); output is bit-identical per seed,
                         serial or parallel
      --format <f>       sample output: 01 (default), counts, b8 (packed binary),
                         hits, or dets (detect only) — see docs/formats.md;
                         lint output: text (default) or json
      --deny <c>         lint/analyze: treat diagnostic code <c> (e.g. SP001) —
                         or all warnings with '--deny warnings' — as errors
                         (exit 1); repeatable
      --dem <path>       analyze: read a detector error model file instead of
                         extracting one from a circuit (fault sets are then
                         reported unverified — no circuit to inject into)
      --max-weight <k>   analyze: distance-search weight cap (default 5);
                         finding nothing certifies distance > k
      --passes <list>    opt: comma-separated pass list run per fixpoint round
                         (default strip,fuse,propagate)
      --stats            opt: append the optimizer report (gates before/after,
                         per-pass counts, proof outcomes) as # comment lines
      --out <path>       stream sample output to a file instead of stdout
      --obs-out <path>   detect: stream observables to their own file (the main
                         output then carries detectors only)
      --engine <e>       backend: symphase (default; phase store and M·B
                         kernel picked per circuit), frame, tableau, or
                         statevec
      --par              sample across all cores (chunks stream in order)
      --threads <t>      sample across exactly t threads (1 = serial)
      --distance <d>     gen: code distance (default 3)
      --rounds <r>       gen: stabilizer measurement rounds (default 3)
      --data-error <p>   gen: per-round data noise strength (default 0.001)
      --measure-error <p> gen: pre-measurement flip strength (default 0.001)
      --basis <z|x>      gen surface-code: protected memory basis (default z;
                         x initializes RX and reads out MX)
      --pair-error <p>   gen phase-memory: per-round correlated Z⊗Z-pair
                         chain strength (E/ELSE_CORRELATED_ERROR; default 0)
      --addr <host:port> serve: address to listen on; request: daemon to query
      --workers <n>      serve: worker threads handling requests (default 2)
      --max-queue <n>    serve: queued connections before BUSY (default 32)
      --cache-size <n>   serve: circuits kept initialized in the LRU cache
                         (default 64)
      --optimize         serve: run the verified optimizer once per circuit
                         before caching its sampler
      --lint             serve: reject circuits with lint findings (typed
                         Lint error frame carries the diagnostics)
      --hash <hex>       request: name the circuit by content hash instead of
                         sending its text (see 'symphase hash')
      --range <s:e>      request: shot range [s, e) of an e-shot run; s must
                         be a multiple of the server chunk width (4096).
                         Default 0:<--shots>
      --source <r>       request: record rows to stream — m (default), d, l,
                         or dl (detectors+observables)
      --stats            request: print the daemon's cache/queue counters

exit codes: 0 success/help, 1 runtime error, 2 usage error
";

/// Parsed command-line options.
#[derive(Debug, Default)]
struct Options {
    command: String,
    /// Bare (non-flag) arguments after the command, e.g. the generator
    /// name for `gen`.
    positional: Vec<String>,
    circuit_path: Option<String>,
    dem_path: Option<String>,
    max_weight: Option<usize>,
    shots: usize,
    seed: u64,
    format: String,
    deny: Vec<String>,
    passes: Option<String>,
    stats: bool,
    out: Option<String>,
    obs_out: Option<String>,
    engine: String,
    parallel: bool,
    threads: Option<usize>,
    distance: usize,
    rounds: usize,
    data_error: f64,
    // Generator-specific flags stay `None` until the user passes them, so
    // `gen` can reject flags the chosen generator does not understand
    // instead of silently ignoring them.
    measure_error: Option<f64>,
    basis: Option<String>,
    pair_error: Option<f64>,
    addr: Option<String>,
    workers: Option<usize>,
    max_queue: Option<usize>,
    cache_size: Option<usize>,
    optimize: bool,
    lint_gate: bool,
    hash: Option<String>,
    range: Option<String>,
    source: Option<String>,
}

impl Options {
    /// The thread budget the streaming layer sees: `--threads` wins, then
    /// `--par` (0 = all cores), else serial.
    fn effective_threads(&self) -> usize {
        match self.threads {
            Some(t) => t,
            None if self.parallel => 0,
            None => 1,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        shots: 10,
        format: "01".into(),
        engine: "symphase".into(),
        distance: 3,
        rounds: 3,
        data_error: 0.001,
        ..Options::default()
    };
    let mut it = args.iter();
    opts.command = it.next().cloned().ok_or_else(|| fail(USAGE))?;
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, CliError> {
            it.next()
                .cloned()
                .ok_or_else(|| fail(format!("{name} needs a value")))
        };
        match a.as_str() {
            "-c" | "--circuit" => opts.circuit_path = Some(value("--circuit")?),
            "--dem" => opts.dem_path = Some(value("--dem")?),
            "--max-weight" => {
                opts.max_weight = Some(
                    value("--max-weight")?
                        .parse()
                        .map_err(|_| fail("--max-weight must be an integer"))?,
                );
            }
            "--shots" => {
                opts.shots = value("--shots")?
                    .parse()
                    .map_err(|_| fail("--shots must be an integer"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| fail("--seed must be an integer"))?;
            }
            "--format" => opts.format = value("--format")?,
            "--deny" => opts.deny.push(value("--deny")?),
            "--passes" => opts.passes = Some(value("--passes")?),
            "--stats" => opts.stats = true,
            "--out" => opts.out = Some(value("--out")?),
            "--obs-out" => opts.obs_out = Some(value("--obs-out")?),
            "--engine" => opts.engine = value("--engine")?,
            "--par" => opts.parallel = true,
            "--threads" => {
                let t: usize = value("--threads")?
                    .parse()
                    .map_err(|_| fail("--threads must be an integer"))?;
                if t == 0 {
                    return Err(fail(
                        "--threads must be at least 1 (use --par for all cores)",
                    ));
                }
                opts.threads = Some(t);
            }
            "--distance" => {
                opts.distance = value("--distance")?
                    .parse()
                    .map_err(|_| fail("--distance must be an integer"))?;
            }
            "--rounds" => {
                opts.rounds = value("--rounds")?
                    .parse()
                    .map_err(|_| fail("--rounds must be an integer"))?;
            }
            "--data-error" => {
                opts.data_error = value("--data-error")?
                    .parse()
                    .map_err(|_| fail("--data-error must be a probability"))?;
            }
            "--measure-error" => {
                opts.measure_error = Some(
                    value("--measure-error")?
                        .parse()
                        .map_err(|_| fail("--measure-error must be a probability"))?,
                );
            }
            "--basis" => opts.basis = Some(value("--basis")?),
            "--pair-error" => {
                opts.pair_error = Some(
                    value("--pair-error")?
                        .parse()
                        .map_err(|_| fail("--pair-error must be a probability"))?,
                );
            }
            "--addr" => opts.addr = Some(value("--addr")?),
            "--workers" => {
                opts.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|_| fail("--workers must be an integer"))?,
                );
            }
            "--max-queue" => {
                opts.max_queue = Some(
                    value("--max-queue")?
                        .parse()
                        .map_err(|_| fail("--max-queue must be an integer"))?,
                );
            }
            "--cache-size" => {
                opts.cache_size = Some(
                    value("--cache-size")?
                        .parse()
                        .map_err(|_| fail("--cache-size must be an integer"))?,
                );
            }
            "--optimize" => opts.optimize = true,
            "--lint" => opts.lint_gate = true,
            "--hash" => opts.hash = Some(value("--hash")?),
            "--range" => opts.range = Some(value("--range")?),
            "--source" => opts.source = Some(value("--source")?),
            "-h" | "--help" => {
                return Err(CliError {
                    message: USAGE.into(),
                    code: 0,
                })
            }
            other if !other.starts_with('-') => {
                // Only `gen` takes a bare argument (the generator name);
                // anywhere else a bare token is a mistake (e.g. a value
                // whose flag was dropped) and must not be swallowed.
                if opts.command == "gen" && opts.positional.is_empty() {
                    opts.positional.push(other.to_string());
                } else {
                    return Err(fail(format!("unexpected argument '{other}'\n{USAGE}")));
                }
            }
            other => return Err(fail(format!("unknown option '{other}'\n{USAGE}"))),
        }
    }
    Ok(opts)
}

/// Validates the sampling-related option *values* — format, engine,
/// thread budget — into a [`SimConfig`] plus format.
/// This runs **before** the circuit is loaded, so a typo in `--format`
/// fails in microseconds, not after drawing a million shots.
fn sampling_config(
    opts: &Options,
    for_detect: bool,
) -> Result<(SimConfig, SampleFormat), CliError> {
    let format = SampleFormat::from_name(&opts.format).ok_or_else(|| {
        let names: Vec<&str> = SampleFormat::ALL.iter().map(|f| f.name()).collect();
        fail(format!(
            "unknown format '{}' (expected one of: {})",
            opts.format,
            names.join(", ")
        ))
    })?;
    if format == SampleFormat::Dets && !for_detect {
        return Err(fail(
            "--format dets is the detector/observable flavor: it only applies to 'detect'",
        ));
    }
    let cfg = SimConfig::new()
        .with_engine_name(&opts.engine)
        .map_err(|e| fail(e.to_string()))?
        .with_seed(opts.seed)
        .with_threads(opts.effective_threads());
    cfg.validate().map_err(|e| fail(e.to_string()))?;
    Ok((cfg, format))
}

/// Reads the `--circuit` file (or stdin for `-`) as raw text — the one
/// loader every command shares, so `lint` and `opt` see the same bytes
/// and can share the `parse_with_sources` line mapping.
fn read_circuit_text(opts: &Options) -> Result<String, CliError> {
    let path = opts
        .circuit_path
        .as_deref()
        .ok_or_else(|| fail("missing --circuit"))?;
    if path == "-" {
        use std::io::Read;
        let mut buf = String::new();
        io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| fail_run(format!("reading stdin: {e}")))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| fail_run(format!("reading {path}: {e}")))
    }
}

fn load_circuit(opts: &Options) -> Result<Circuit, CliError> {
    let text = read_circuit_text(opts)?;
    Circuit::parse(&text).map_err(|e| fail_run(format!("parse error: {e}")))
}

/// The analyses outside `build_sampler` build a tableau too (SymPhase
/// initialization, or a reference sample for `engine` `tableau`): they
/// refuse an oversized circuit with the same runtime error.
fn check_budget(circuit: &Circuit, engine: EngineKind) -> Result<(), CliError> {
    check_tableau_budget(circuit, engine).map_err(|e| fail_run(e.to_string()))
}

/// Runs a CLI invocation, streaming its stdout content into `out`.
///
/// This is the binary's entry point: `sample`/`detect` write shots to
/// `out` (or `--out` files) chunk by chunk — never a full in-memory
/// transcript.
///
/// # Errors
///
/// Returns a [`CliError`] with a message and exit code on bad usage
/// (code 2), I/O failure, parse errors, or construction failures
/// (code 1).
pub fn run_to(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_args(args)?;
    match opts.command.as_str() {
        "sample" => cmd_sample(&opts, out),
        "detect" => cmd_detect(&opts, out),
        "analyze" => cmd_analyze(&opts, out),
        "lint" => cmd_lint(&opts, out),
        "opt" => cmd_opt(&opts, out),
        "stats" => write_str(out, &cmd_stats(&opts)?),
        "dem" => write_str(out, &cmd_dem(&opts)?),
        "reference" => write_str(out, &cmd_reference(&opts)?),
        "gen" => write_str(out, &cmd_gen(&opts)?),
        "hash" => write_str(out, &cmd_hash(&opts)?),
        "serve" => cmd_serve(&opts, out),
        "request" => cmd_request(&opts, out),
        other => Err(fail(format!("unknown command '{other}'\n{USAGE}"))),
    }
}

/// Runs a CLI invocation and returns its raw stdout bytes (the in-process
/// test harness; binary formats like `b8` need this entry point).
pub fn run_bytes(args: &[String]) -> Result<Vec<u8>, CliError> {
    let mut out = Vec::new();
    run_to(args, &mut out)?;
    Ok(out)
}

/// Runs a CLI invocation and returns its stdout content as text.
///
/// # Errors
///
/// Returns a [`CliError`] with a message and exit code on bad usage, I/O
/// failure, or parse errors.
///
/// # Panics
///
/// Panics if the output is not UTF-8 (use [`run_bytes`] for the binary
/// `b8` format).
pub fn run(args: &[String]) -> Result<String, CliError> {
    Ok(String::from_utf8(run_bytes(args)?).expect("non-binary output is UTF-8"))
}

/// Maps a write-path failure to a [`CliError`] — except a broken pipe,
/// which is a *success*: the reader (`| head`, a closed pager) decided it
/// had enough, and the Unix contract is to stop quietly with exit 0, not
/// to panic or report an error.
fn map_write_err(e: io::Error, what: &str) -> Result<(), CliError> {
    if e.kind() == io::ErrorKind::BrokenPipe {
        Ok(())
    } else {
        Err(fail_run(format!("{what}: {e}")))
    }
}

fn write_str(out: &mut dyn Write, s: &str) -> Result<(), CliError> {
    match out.write_all(s.as_bytes()) {
        Ok(()) => Ok(()),
        Err(e) => map_write_err(e, "writing output"),
    }
}

/// Streams `shots` chunk-seeded shots from `sampler` into `sink`,
/// honoring the configured seed, thread budget, and chunk width. A broken
/// output pipe ends the stream early and successfully (`… | head`).
fn stream(
    sampler: &dyn Sampler,
    opts: &Options,
    cfg: &SimConfig,
    sink: &mut dyn ShotSink,
) -> Result<(), CliError> {
    match symphase_backend::sink::stream_with_config(sampler, opts.shots, cfg, sink) {
        Ok(()) => Ok(()),
        Err(e) => map_write_err(e, "writing samples"),
    }
}

/// Opens `--out`-style path as a buffered writer, or borrows `stdout`.
fn open_out<'a>(
    path: Option<&str>,
    stdout: &'a mut dyn Write,
) -> Result<Box<dyn Write + 'a>, CliError> {
    match path {
        Some(p) => {
            let f = std::fs::File::create(p).map_err(|e| fail_run(format!("creating {p}: {e}")))?;
            Ok(Box::new(io::BufWriter::new(f)))
        }
        None => Ok(Box::new(stdout)),
    }
}

fn cmd_sample(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    // Option values first — a bad --format must fail before any
    // circuit loading or sampling happens.
    let (cfg, format) = sampling_config(opts, false)?;
    if opts.obs_out.is_some() {
        return Err(fail("--obs-out only applies to 'detect'"));
    }
    let circuit = load_circuit(opts)?;
    let sampler = build_sampler(&circuit, &cfg).map_err(|e| fail_run(e.to_string()))?;
    let mut w = open_out(opts.out.as_deref(), out)?;
    let mut sink = format.sink(&mut *w, RecordSource::Measurements);
    stream(sampler.as_ref(), opts, &cfg, &mut *sink)
}

fn cmd_detect(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let (cfg, format) = sampling_config(opts, true)?;
    let circuit = load_circuit(opts)?;
    let sampler = build_sampler(&circuit, &cfg).map_err(|e| fail_run(e.to_string()))?;
    let mut w = open_out(opts.out.as_deref(), out)?;
    match opts.obs_out.as_deref() {
        None => {
            // One combined stream: detectors then observables.
            let mut sink = format.sink(&mut *w, RecordSource::DetectorsAndObservables);
            stream(sampler.as_ref(), opts, &cfg, &mut *sink)
        }
        Some(obs_path) => {
            // Observables split into their own file; one sampling pass
            // feeds both sinks through a fan-out.
            let obs_file = std::fs::File::create(obs_path)
                .map_err(|e| fail_run(format!("creating {obs_path}: {e}")))?;
            let mut obs_w = io::BufWriter::new(obs_file);
            let mut det_sink = format.sink(&mut *w, RecordSource::Detectors);
            let mut obs_sink = format.sink(&mut obs_w, RecordSource::Observables);
            let mut fanout = FanoutSink::new(vec![&mut *det_sink, &mut *obs_sink]);
            stream(sampler.as_ref(), opts, &cfg, &mut fanout)
        }
    }
}

/// `lint`: run the static analyzer over a circuit file.
///
/// Findings go to stdout (or `--out`); the exit code reports the worst
/// severity *after* `--deny` escalation: `0` when everything surviving is
/// a warning, `1` when any error-severity finding remains (parse errors
/// always are; `--deny SP001` / `--deny warnings` promote findings).
/// Option values are validated before the circuit is read, matching the
/// rest of the CLI.
fn cmd_lint(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    // "01" is the global default; lint renders text unless asked for json.
    let json = match opts.format.as_str() {
        "01" | "text" => false,
        "json" => true,
        other => {
            return Err(fail(format!(
                "unknown lint format '{other}' (expected text or json)"
            )))
        }
    };
    for d in &opts.deny {
        if d != "warnings" && !symphase_analysis::is_known_code(d) {
            return Err(fail(format!(
                "--deny takes 'warnings' or a diagnostic code (SP000..SP015), got '{d}'"
            )));
        }
    }

    let text = read_circuit_text(opts)?;
    let parsed = Circuit::parse(&text).ok();
    if let Some(circuit) = &parsed {
        check_budget(circuit, EngineKind::SymPhase)?;
    }

    let deny_all = opts.deny.iter().any(|d| d == "warnings");
    let mut diags = symphase_analysis::lint_text(&text);
    // The DEM-level findings (SP012..SP015) join the stream whenever the
    // circuit parses; they carry no source line and sort last. SP015 is
    // kept only at weight 1 — a logical observable flipped by a single
    // undetected fault is a coverage bug, while any higher weight is the
    // ordinary finite code distance, reported by `analyze`, not lint.
    if !diags
        .iter()
        .any(|d| d.severity == symphase_analysis::Severity::Error)
    {
        if let Some(circuit) = &parsed {
            diags.extend(
                symphase_analysis::analyze_dem(circuit)
                    .into_iter()
                    .filter(|d| {
                        d.code != "SP015"
                            || matches!(
                                d.payload,
                                Some(symphase_analysis::Payload::FaultSet { weight: 1, .. })
                            )
                    }),
            );
        }
    }
    for d in &mut diags {
        if deny_all || opts.deny.iter().any(|c| c == d.code) {
            d.severity = symphase_analysis::Severity::Error;
        }
    }

    let rendered = if json {
        symphase_analysis::render_json(&diags)
    } else {
        symphase_analysis::render_text(&diags)
    };
    let mut w = open_out(opts.out.as_deref(), out)?;
    w.write_all(rendered.as_bytes())
        .map_err(|e| fail_run(format!("writing output: {e}")))?;
    w.flush()
        .map_err(|e| fail_run(format!("writing output: {e}")))?;
    drop(w);

    let errors = diags
        .iter()
        .filter(|d| d.severity == symphase_analysis::Severity::Error)
        .count();
    if errors > 0 {
        return Err(fail_run(format!(
            "lint found {errors} error-severity finding{}",
            if errors == 1 { "" } else { "s" }
        )));
    }
    Ok(())
}

/// `opt`: run the verified optimizer and print the optimized circuit.
///
/// The default output is the optimized circuit text (which round-trips
/// through `Circuit::parse`). `--stats` appends the optimizer report as
/// `#` comment lines, so the output stays parseable; `--format json`
/// emits a JSON object with the report, proof outcomes, sign-flipped
/// records, and the circuit text. The parse shares `lint`'s
/// `parse_with_sources` path, so rollback diagnostics resolve source
/// lines the same way lint findings do; an unparsable file exits 1 with
/// the same `SP000`-classified error `lint` would report.
fn cmd_opt(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    use symphase_analysis::{optimize_with, OptConfig, Pass, ProofStatus};

    let json = match opts.format.as_str() {
        "01" | "text" => false,
        "json" => true,
        other => {
            return Err(fail(format!(
                "unknown opt format '{other}' (expected text or json)"
            )))
        }
    };
    let config = match opts.passes.as_deref() {
        None => OptConfig::default(),
        Some(list) => {
            let mut passes = Vec::new();
            for name in list.split(',').filter(|s| !s.is_empty()) {
                passes.push(Pass::from_name(name).ok_or_else(|| {
                    fail(format!(
                        "--passes takes a comma-separated list of strip, fuse, propagate; \
                         got '{name}'"
                    ))
                })?);
            }
            if passes.is_empty() {
                return Err(fail("--passes needs at least one pass"));
            }
            OptConfig { passes }
        }
    };

    let text = read_circuit_text(opts)?;
    let (circuit, sources) = match Circuit::parse_with_sources(&text) {
        Ok(parsed) => parsed,
        Err(_) => {
            // Same classification and rendering lint gives the file.
            let diags = symphase_analysis::lint_text(&text);
            let mut w = open_out(opts.out.as_deref(), out)?;
            write!(w, "{}", symphase_analysis::render_text(&diags))
                .map_err(|e| fail_run(format!("writing output: {e}")))?;
            w.flush()
                .map_err(|e| fail_run(format!("writing output: {e}")))?;
            drop(w);
            return Err(fail_run("opt: the circuit does not parse"));
        }
    };
    check_budget(&circuit, EngineKind::SymPhase)?;

    let mut result = optimize_with(&circuit, &config);
    for d in &mut result.diagnostics {
        d.line = sources.line_at(&d.path);
    }

    let rendered =
        if json {
            render_opt_json(&result)
        } else {
            let mut s = result.circuit.to_string();
            if opts.stats {
                let r = &result.report;
                let _ =
                    writeln!(
                s,
                "# opt: gates {} -> {}, noise sites {} -> {}, {} measurement(s), {} round(s)",
                r.gates_before, r.gates_after, r.noise_sites_before, r.noise_sites_after,
                r.measurements, r.rounds,
            );
                for p in &r.passes {
                    let _ = writeln!(
                        s,
                        "# opt: pass {}: {} applied, {} rolled back, {} gate(s) removed, \
                     {} noise site(s) removed, {} sign flip(s)",
                        p.pass,
                        p.applications,
                        p.rollbacks,
                        p.gates_removed,
                        p.noise_sites_removed,
                        p.sign_flips,
                    );
                }
                let verified = result
                    .proof
                    .iter()
                    .filter(|p| matches!(p.status, ProofStatus::Verified { .. }))
                    .count();
                let _ = writeln!(
                    s,
                    "# opt: {} rewrite proof(s) discharged, {} rolled back",
                    verified,
                    result.proof.len() - verified,
                );
                if !result.flipped_records.is_empty() {
                    let _ = writeln!(
                        s,
                        "# opt: sign-flipped measurement record(s): {}",
                        result
                            .flipped_records
                            .iter()
                            .map(|r| r.to_string())
                            .collect::<Vec<_>>()
                            .join(" "),
                    );
                }
            }
            for d in &result.diagnostics {
                let _ = write!(
                    s,
                    "# {}",
                    symphase_analysis::render_text(std::slice::from_ref(d))
                );
            }
            s
        };
    let mut w = open_out(opts.out.as_deref(), out)?;
    w.write_all(rendered.as_bytes())
        .map_err(|e| fail_run(format!("writing output: {e}")))?;
    w.flush()
        .map_err(|e| fail_run(format!("writing output: {e}")))
}

/// JSON rendering of an [`symphase_analysis::OptResult`] (stable field
/// order, hand-rolled like the lint renderer).
fn render_opt_json(result: &symphase_analysis::OptResult) -> String {
    use symphase_analysis::ProofStatus;
    let r = &result.report;
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"report\": {{\"gates_before\":{},\"gates_after\":{},\"noise_sites_before\":{},\
         \"noise_sites_after\":{},\"measurements\":{},\"rounds\":{}}},",
        r.gates_before,
        r.gates_after,
        r.noise_sites_before,
        r.noise_sites_after,
        r.measurements,
        r.rounds,
    );
    out.push_str("  \"passes\": [");
    for (i, p) in r.passes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ =
            write!(
            out,
            "\n    {{\"pass\":\"{}\",\"applications\":{},\"rollbacks\":{},\"gates_removed\":{},\
             \"noise_sites_removed\":{},\"sign_flips\":{}}}",
            p.pass, p.applications, p.rollbacks, p.gates_removed, p.noise_sites_removed,
            p.sign_flips,
        );
    }
    out.push_str("\n  ],\n  \"proof\": [");
    for (i, p) in result.proof.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (status, detail) = match &p.status {
            ProofStatus::Verified { clamped } => ("verified", format!("\"clamped\":{clamped}")),
            ProofStatus::RolledBack { reason } => {
                ("rolled-back", format!("\"reason\":{}", json_string(reason)))
            }
        };
        let _ = write!(
            out,
            "\n    {{\"pass\":\"{}\",\"round\":{},\"status\":\"{status}\",{detail},\"flips\":[{}]}}",
            p.pass,
            p.round,
            p.flips
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
    }
    let _ = writeln!(
        out,
        "\n  ],\n  \"flipped_records\": [{}],",
        result
            .flipped_records
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push_str("  \"diagnostics\": ");
    out.push_str(symphase_analysis::render_json(&result.diagnostics).trim_end());
    let _ = writeln!(
        out,
        ",\n  \"circuit\": {}\n}}",
        json_string(&result.circuit.to_string())
    );
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `analyze`: circuit statistics and symbolic expressions (as before),
/// plus the DEM-level analysis — detector-hypergraph census and lints
/// (`SP012`..`SP014`) and the bounded, fault-injection-verified
/// circuit-distance search (`SP015`). With `--dem FILE` the model is
/// parsed from a file instead of extracted, the circuit sections are
/// skipped, and fault sets are reported unverified.
fn cmd_analyze(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    use symphase_analysis::{
        analyze_circuit, analyze_model, render_json, render_text, AnalyzeConfig, Distance, Severity,
    };
    use symphase_core::DetectorErrorModel;

    let json = match opts.format.as_str() {
        "01" | "text" => false,
        "json" => true,
        other => {
            return Err(fail(format!(
                "unknown analyze format '{other}' (expected text or json)"
            )))
        }
    };
    for d in &opts.deny {
        if d != "warnings" && !symphase_analysis::is_known_code(d) {
            return Err(fail(format!(
                "--deny takes 'warnings' or a diagnostic code (SP000..SP015), got '{d}'"
            )));
        }
    }
    let config = AnalyzeConfig {
        max_weight: opts
            .max_weight
            .unwrap_or(AnalyzeConfig::default().max_weight),
        ..AnalyzeConfig::default()
    };

    let mut text = String::new();
    let report = if let Some(path) = &opts.dem_path {
        if opts.circuit_path.is_some() {
            return Err(fail("--dem and --circuit are mutually exclusive"));
        }
        let dem_text =
            std::fs::read_to_string(path).map_err(|e| fail_run(format!("reading {path}: {e}")))?;
        let dem =
            DetectorErrorModel::parse(&dem_text).map_err(|e| fail_run(format!("{path}: {e}")))?;
        analyze_model(dem, &config).map_err(fail_run)?
    } else {
        let circuit = load_circuit(opts)?;
        check_budget(&circuit, EngineKind::SymPhase)?;
        let report = analyze_circuit(&circuit, &config).map_err(fail_run)?;
        if !json {
            let stats = circuit.stats();
            let _ = writeln!(text, "qubits:        {}", circuit.num_qubits());
            let _ = writeln!(text, "gates:         {}", stats.gates);
            let _ = writeln!(text, "measurements:  {}", stats.measurements);
            let _ = writeln!(text, "noise sites:   {}", stats.noise_sites);
            let _ = writeln!(text, "noise symbols: {}", stats.noise_symbols);
            let _ = writeln!(text, "detectors:     {}", circuit.num_detectors());
            let _ = writeln!(text, "observables:   {}", circuit.num_observables());
            if report.clamped {
                let _ = writeln!(
                    text,
                    "\n(symbolic expressions omitted: REPEAT counts were clamped for analysis)"
                );
            } else {
                let sampler = SymPhaseSampler::new(&circuit);
                let _ = writeln!(
                    text,
                    "coins:         {}",
                    sampler.symbol_table().num_coins()
                );
                let _ = writeln!(text, "\nmeasurement expressions:");
                for (m, e) in sampler.measurement_exprs().iter().enumerate() {
                    let _ = writeln!(text, "  m{m} = {e}");
                }
                if sampler.num_detectors() > 0 {
                    let _ = writeln!(text, "\ndetector expressions:");
                    for d in 0..sampler.num_detectors() {
                        let _ = writeln!(text, "  D{d} = {}", sampler.detector_expr(d));
                    }
                }
            }
        }
        report
    };

    let mut diags = report.diagnostics.clone();
    let deny_all = opts.deny.iter().any(|d| d == "warnings");
    for d in &mut diags {
        if deny_all || opts.deny.iter().any(|c| c == d.code) {
            d.severity = Severity::Error;
        }
    }

    let scope = if report.clamped {
        " [REPEAT-clamped circuit]"
    } else {
        ""
    };
    let dist_text = if report.withdrawn {
        format!(
            "distance: n/a (claim withdrawn: fault-injection verification failed; see {})",
            symphase_analysis::WITHDRAWN_CODE
        )
    } else {
        match &report.distance {
            Distance::UpperBound { fault_set } => {
                let mechs: Vec<String> =
                    fault_set.mechanisms.iter().map(|m| m.to_string()).collect();
                format!(
                    "distance: {} (minimum-weight undetectable logical error: mechanisms {}; {}){scope}",
                    fault_set.weight(),
                    mechs.join(" "),
                    if report.verified {
                        "verified by fault injection"
                    } else {
                        "unverified: no circuit to inject into"
                    },
                )
            }
            Distance::AboveWeight { max_weight } => format!(
                "distance: > {max_weight} (no undetectable logical error within weight {max_weight}){scope}"
            ),
            Distance::Clamped { completed_weight } => format!(
                "distance: > {completed_weight} (search clamped by node budget after exhausting \
                 weight {completed_weight}){scope}"
            ),
            Distance::NoObservables => {
                "distance: n/a (the model flips no logical observable)".to_string()
            }
        }
    };

    if json {
        let s = &report.summary;
        let dist_json = if report.withdrawn {
            "{\"kind\":\"withdrawn\"}".to_string()
        } else {
            match &report.distance {
                Distance::UpperBound { fault_set } => format!(
                    "{{\"kind\":\"upper-bound\",\"weight\":{},\"mechanisms\":[{}],\"observables\":[{}],\"verified\":{}}}",
                    fault_set.weight(),
                    fault_set
                        .mechanisms
                        .iter()
                        .map(|m| m.to_string())
                        .collect::<Vec<_>>()
                        .join(","),
                    fault_set
                        .observables
                        .iter()
                        .map(|o| o.to_string())
                        .collect::<Vec<_>>()
                        .join(","),
                    report.verified,
                ),
                Distance::AboveWeight { max_weight } => {
                    format!("{{\"kind\":\"above-weight\",\"max_weight\":{max_weight}}}")
                }
                Distance::Clamped { completed_weight } => format!(
                    "{{\"kind\":\"clamped\",\"completed_weight\":{completed_weight}}}"
                ),
                Distance::NoObservables => "{\"kind\":\"no-observables\"}".to_string(),
            }
        };
        let _ = writeln!(
            text,
            "{{\n  \"summary\":{{\"mechanisms\":{},\"graphlike\":{},\"hyperedges\":{},\"undecomposable\":{},\"disconnected\":{},\"dominated\":{}}},\n  \"clamped\":{},\n  \"distance\":{},\n  \"diagnostics\":{}}}",
            s.mechanisms,
            s.graphlike,
            s.hyperedges,
            s.undecomposable,
            s.disconnected,
            s.dominated,
            report.clamped,
            dist_json,
            render_json(&diags).trim_end(),
        );
    } else {
        let s = &report.summary;
        let _ = writeln!(text, "\ndetector error model:");
        let _ = writeln!(text, "  mechanisms:     {}", s.mechanisms);
        let _ = writeln!(text, "  graphlike:      {}", s.graphlike);
        let _ = writeln!(text, "  hyperedges:     {}", s.hyperedges);
        let _ = writeln!(text, "  undecomposable: {}", s.undecomposable);
        let _ = writeln!(text, "  disconnected:   {}", s.disconnected);
        let _ = writeln!(text, "  dominated:      {}", s.dominated);
        if !diags.is_empty() {
            let _ = writeln!(text, "\n{}", render_text(&diags).trim_end());
        }
        let _ = writeln!(text, "\n{dist_text}");
    }
    write_str(out, &text)?;

    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    if errors > 0 {
        return Err(fail_run(format!(
            "analyze found {errors} error-severity finding{}",
            if errors == 1 { "" } else { "s" }
        )));
    }
    Ok(())
}

/// `stats`: parse + structural statistics, no engine initialization.
/// Because statistics are computed from the structured IR (`REPEAT`
/// bodies contribute `count ×` their one-iteration counts), this is
/// O(file) even when the flattened circuit would hold billions of
/// instructions — exactly the workloads the old flatten-on-parse cap
/// (50M instructions) used to reject.
fn cmd_stats(opts: &Options) -> Result<String, CliError> {
    let circuit = load_circuit(opts)?;
    let stats = circuit.stats();
    let mut out = String::new();
    let _ = writeln!(out, "qubits:        {}", circuit.num_qubits());
    let _ = writeln!(
        out,
        "instructions:  {} (structured)",
        circuit.instructions().len()
    );
    let _ = writeln!(out, "gates:         {}", stats.gates);
    let _ = writeln!(out, "measurements:  {}", stats.measurements);
    let _ = writeln!(out, "resets:        {}", stats.resets);
    let _ = writeln!(out, "noise sites:   {}", stats.noise_sites);
    let _ = writeln!(out, "noise symbols: {}", stats.noise_symbols);
    let _ = writeln!(out, "detectors:     {}", circuit.num_detectors());
    let _ = writeln!(out, "observables:   {}", circuit.num_observables());
    let _ = writeln!(out, "feedback ops:  {}", stats.feedback_ops);
    let _ = writeln!(
        out,
        "mean noise p:  {:.6}",
        circuit.mean_noise_probability()
    );
    Ok(out)
}

/// `gen`: emit a built-in QEC memory workload as circuit text (with
/// structured `REPEAT` rounds, so the output file is O(one round)).
fn cmd_gen(opts: &Options) -> Result<String, CliError> {
    use symphase_circuit::generators::{
        mpp_phase_memory, repetition_code_memory, surface_code_memory_in, MemoryBasis,
        PhaseMemoryConfig, RepetitionCodeConfig, SurfaceCodeConfig,
    };
    let name = opts.positional.first().ok_or_else(|| {
        fail("gen needs a generator name: surface-code, repetition-code, or phase-memory")
    })?;
    if opts.rounds == 0 {
        return Err(fail("--rounds must be at least 1"));
    }
    let prob = |flag: &str, p: f64| -> Result<f64, CliError> {
        if (0.0..=1.0).contains(&p) {
            Ok(p)
        } else {
            Err(fail(format!("{flag} must be in [0, 1], got {p}")))
        }
    };
    let data_error = prob("--data-error", opts.data_error)?;
    // A flag the chosen generator does not understand is a usage error,
    // not something to silently ignore.
    let reject = |flag: &str, set: bool| -> Result<(), CliError> {
        if set {
            Err(fail(format!(
                "{flag} does not apply to the '{name}' generator"
            )))
        } else {
            Ok(())
        }
    };
    let measure_error = prob("--measure-error", opts.measure_error.unwrap_or(0.001))?;
    let pair_error = prob("--pair-error", opts.pair_error.unwrap_or(0.0))?;
    let basis = match opts.basis.as_deref() {
        None | Some("z") => MemoryBasis::Z,
        Some("x") => MemoryBasis::X,
        Some(other) => return Err(fail(format!("--basis must be z or x, got '{other}'"))),
    };
    let circuit = match name.as_str() {
        "surface-code" => {
            reject("--pair-error", opts.pair_error.is_some())?;
            if opts.distance < 3 || opts.distance.is_multiple_of(2) {
                return Err(fail("--distance must be odd and at least 3"));
            }
            surface_code_memory_in(
                &SurfaceCodeConfig {
                    distance: opts.distance,
                    rounds: opts.rounds,
                    data_error,
                    measure_error,
                },
                basis,
            )
        }
        "repetition-code" => {
            reject("--basis", opts.basis.is_some())?;
            reject("--pair-error", opts.pair_error.is_some())?;
            if opts.distance < 2 {
                return Err(fail("--distance must be at least 2"));
            }
            repetition_code_memory(&RepetitionCodeConfig {
                distance: opts.distance,
                rounds: opts.rounds,
                data_error,
                measure_error,
            })
        }
        "phase-memory" => {
            reject("--basis", opts.basis.is_some())?;
            reject("--measure-error", opts.measure_error.is_some())?;
            if opts.distance < 2 {
                return Err(fail("--distance must be at least 2"));
            }
            mpp_phase_memory(&PhaseMemoryConfig {
                distance: opts.distance,
                rounds: opts.rounds,
                data_error,
                pair_error,
            })
        }
        other => {
            return Err(fail(format!(
                "unknown generator '{other}' \
                 (expected surface-code, repetition-code, or phase-memory)"
            )))
        }
    };
    Ok(circuit.to_string())
}

fn cmd_dem(opts: &Options) -> Result<String, CliError> {
    let circuit = load_circuit(opts)?;
    check_budget(&circuit, EngineKind::SymPhase)?;
    let sampler = SymPhaseSampler::new(&circuit);
    Ok(sampler
        .detector_error_model()
        .with_detector_coords(circuit.detector_coordinates())
        .to_string())
}

fn cmd_reference(opts: &Options) -> Result<String, CliError> {
    let circuit = load_circuit(opts)?;
    check_budget(&circuit, EngineKind::Tableau)?;
    let r = reference_sample(&circuit);
    let mut out: String = (0..r.len())
        .map(|m| if r.get(m) { '1' } else { '0' })
        .collect();
    out.push('\n');
    Ok(out)
}

/// `hash`: print the canonical content hash a serve cache would key this
/// circuit on — SHA-256 of the parsed circuit's canonical `Display` form,
/// so whitespace/comment-equivalent files print the same hash.
fn cmd_hash(opts: &Options) -> Result<String, CliError> {
    let circuit = load_circuit(opts)?;
    Ok(format!("{}\n", symphase_serve::circuit_hash(&circuit)))
}

/// `request --source` values.
fn parse_source(source: Option<&str>) -> Result<RecordSource, CliError> {
    match source.unwrap_or("m") {
        "m" | "measurements" => Ok(RecordSource::Measurements),
        "d" | "detectors" => Ok(RecordSource::Detectors),
        "l" | "observables" => Ok(RecordSource::Observables),
        "dl" | "detectors+observables" => Ok(RecordSource::DetectorsAndObservables),
        other => Err(fail(format!(
            "unknown --source '{other}' (expected m, d, l, or dl)"
        ))),
    }
}

/// `serve`: run the sampling daemon until the process is killed.
///
/// The per-request sampling budget defaults to **all cores** (`--threads`
/// overrides), unlike the offline commands which default to serial: a
/// daemon exists to saturate the machine. Everything else a request needs
/// (engine, seed, format, range) arrives on the wire; see docs/serve.md.
fn cmd_serve(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    use symphase_serve::{ServeOptions, Server};
    let addr = opts
        .addr
        .as_deref()
        .ok_or_else(|| fail("serve needs --addr <host:port>"))?;
    let mut options = ServeOptions::default();
    if let Some(w) = opts.workers {
        if w == 0 {
            return Err(fail("--workers must be at least 1"));
        }
        options.workers = w;
    }
    if let Some(q) = opts.max_queue {
        if q == 0 {
            return Err(fail("--max-queue must be at least 1"));
        }
        options.max_queue = q;
    }
    if let Some(c) = opts.cache_size {
        if c == 0 {
            return Err(fail("--cache-size must be at least 1"));
        }
        options.cache_capacity = c;
    }
    options.threads = opts.threads.unwrap_or(0);
    options.optimize = opts.optimize;
    let factory: symphase_serve::SamplerFactory = std::sync::Arc::new(build_sampler);
    let lint = opts.lint_gate.then(lint_gate);
    let server = Server::bind(addr, options, factory, lint)
        .map_err(|e| fail_run(format!("binding {addr}: {e}")))?;
    // Announce readiness on stdout (flushed) so scripts can wait for it.
    write_str(out, &format!("serving on {}\n", server.local_addr()))?;
    let _ = out.flush();
    server.run().map_err(|e| fail_run(format!("serve: {e}")))
}

/// `request`: one round-trip against a running daemon — a shot range
/// (payload bytes to stdout or `--out`, byte-identical to the offline
/// CLI), or `--stats` counters.
fn cmd_request(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    use symphase_serve::{request_sample, request_stats, CircuitRef, SampleRequest};
    let addr = opts
        .addr
        .as_deref()
        .ok_or_else(|| fail("request needs --addr <host:port>"))?;
    if opts.stats {
        let s = request_stats(addr).map_err(|e| fail_run(e.to_string()))?;
        return write_str(
            out,
            &format!(
                "hits {}\nmisses {}\nentries {}\nserved {}\nbusy {}\n",
                s.hits, s.misses, s.entries, s.served, s.busy
            ),
        );
    }
    // Validates format/engine names before any connection is made.
    let (cfg, format) = sampling_config(opts, true)?;
    let source = parse_source(opts.source.as_deref())?;
    let (start, end) = match opts.range.as_deref() {
        None => (0, opts.shots as u64),
        Some(r) => {
            let parsed = r.split_once(':').and_then(|(s, e)| {
                Some((s.trim().parse::<u64>().ok()?, e.trim().parse::<u64>().ok()?))
            });
            parsed.ok_or_else(|| fail("--range must be <start>:<end> (shot indices)"))?
        }
    };
    let circuit = match (&opts.hash, &opts.circuit_path) {
        (Some(_), Some(_)) => {
            return Err(fail("--hash and --circuit are mutually exclusive"));
        }
        (Some(h), None) => CircuitRef::Hash(
            symphase_serve::CircuitHash::from_hex(h)
                .ok_or_else(|| fail("--hash must be 64 hex characters"))?,
        ),
        (None, _) => CircuitRef::Text(read_circuit_text(opts)?),
    };
    let request = SampleRequest {
        circuit,
        engine: cfg.engine(),
        source,
        format,
        seed: cfg.seed(),
        start,
        end,
    };
    let mut w = open_out(opts.out.as_deref(), out)?;
    request_sample(addr, &request, &mut *w).map_err(|e| fail_run(e.to_string()))?;
    match w.flush() {
        Ok(()) => Ok(()),
        Err(e) => map_write_err(e, "flushing output"),
    }
}
