//! `perfbench`: the symphase workspace benchmark harness (normally driven
//! by `run.py`, which builds it and validates its output).
//!
//! ```text
//! perfbench gen --workload W --seed N --out DIR [--toy]
//! perfbench run --inputs DIR --seconds S --trace 0|1
//! perfbench daemon
//! ```
//!
//! `gen` writes one workload's seeded inputs; `run` measures them and
//! prints a host line and, last, one JSON result line on stdout (progress
//! goes to stderr); `daemon` is the `symphase serve` child process the
//! serve layer talks to. Offline sampling runs serially (`threads = 1`).

mod check;
mod inputs;
mod offline;
mod report;
mod serve;

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

use report::{result_line, Metrics};

fn flags(args: &[String]) -> Result<HashMap<&str, &str>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        if key == "toy" {
            out.insert(key, "1");
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key, value.as_str());
    }
    Ok(out)
}

fn get<'a>(flags: &HashMap<&str, &'a str>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .copied()
        .ok_or_else(|| format!("missing --{key}"))
}

fn num<T: std::str::FromStr>(flags: &HashMap<&str, &str>, key: &str) -> Result<T, String> {
    get(flags, key)?
        .parse()
        .map_err(|_| format!("--{key} must be a number"))
}

fn gen(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    inputs::generate(
        get(&f, "workload")?,
        num(&f, "seed")?,
        f.contains_key("toy"),
        Path::new(get(&f, "out")?),
    )
    .map_err(|e| e.to_string())
}

fn run(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    let inputs = inputs::load(Path::new(get(&f, "inputs")?)).map_err(|e| e.to_string())?;
    let seconds: f64 = num(&f, "seconds")?;
    let traced = match get(&f, "trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    println!(
        "host {{\"simd\": \"{}\", \"cores\": {}, \"offline_threads\": 1, \"client_connections\": {}}}",
        symphase::bitmat::simd::detected_level().name(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        serve::clients()
    );
    let mut metrics = Metrics::default();
    let serve_mix = inputs.workload == "serve_mix";
    let tally = match (traced, serve_mix) {
        (false, false) => offline::run(&inputs, seconds, &mut metrics),
        (false, true) => serve::run(&inputs, seconds, &mut metrics).map_err(|e| e.to_string())?,
        (true, _) => {
            // Offline layers on the workload circuit, then its serve
            // layer: the full mix for `serve_mix`, one pass of the probe
            // schedule otherwise.
            let (offline_s, cycle) = if serve_mix {
                (seconds / 2.0, Some(seconds / 2.0))
            } else {
                (seconds, None)
            };
            let mut tally = offline::trace(&inputs, offline_s, &mut metrics);
            tally.add(serve::trace(&inputs, cycle, &mut metrics).map_err(|e| e.to_string())?);
            metrics.put("failed_frac", tally.failed_frac(), "ratio");
            tally
        }
    };
    println!("{}", result_line(tally, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => gen(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("daemon") => serve::daemon_main(),
        _ => Err("usage: perfbench gen|run|daemon [--flag value ...]".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
