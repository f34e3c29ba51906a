//! Seeded workload generation and the on-disk inputs the measuring run
//! reads back.
//!
//! `gen` writes, into one directory per (workload, seed):
//!
//! * `base.stim` — the workload circuit as text;
//! * `cold_<k>.stim` — variants of the same family with distinct noise
//!   rates, which a serve daemon has never cached (forced misses);
//! * `schedule.txt` — the serve request schedule, one request a line:
//!   `<circuit> <source> <seed> <start>` with `<circuit>` = `base` or a
//!   cold index, each request one chunk `[start, start + CHUNK_SHOTS)`;
//! * `params.txt` — `key value` lines: run sizes, format, record source.
//!
//! `run` reads only these files; the seed reaches it only through them.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symphase::circuit::generators::{fig3c_circuit, surface_code_memory, SurfaceCodeConfig};
use symphase::circuit::Circuit;
use symphase::prelude::{RecordSource, SampleFormat};
use symphase::sampler_api::CHUNK_SHOTS;

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["deep_random", "serve_mix"];

/// One serve request of the schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Req {
    /// `None` = the base circuit (sent by hash once cached), `Some(k)` =
    /// cold variant `k` (sent as text).
    pub circuit: Option<usize>,
    pub source: RecordSource,
    pub seed: u64,
    /// First shot; the request covers one chunk from here.
    pub start: u64,
}

impl std::hash::Hash for Req {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        (self.circuit, self.source as u8, self.seed, self.start).hash(h);
    }
}

/// A generated workload, as the measuring run sees it.
pub struct Inputs {
    pub workload: String,
    pub base: String,
    pub colds: Vec<String>,
    pub schedule: Vec<Req>,
    /// Sampling seed of the offline streams.
    pub seed: u64,
    /// Shots per timed offline stream pass.
    pub pass_shots: usize,
    /// Shots per engine in the statistical check against `frame`.
    pub check_shots: usize,
    pub format: SampleFormat,
    pub source: RecordSource,
}

fn surface(distance: usize, rounds: usize, data_error: f64) -> Circuit {
    surface_code_memory(&SurfaceCodeConfig {
        distance,
        rounds,
        data_error,
        measure_error: 0.001,
    })
}

fn source_name(s: RecordSource) -> &'static str {
    match s {
        RecordSource::Measurements => "meas",
        RecordSource::DetectorsAndObservables => "detobs",
        RecordSource::Detectors => "det",
        RecordSource::Observables => "obs",
    }
}

fn parse_source(s: &str) -> Option<RecordSource> {
    [
        RecordSource::Measurements,
        RecordSource::DetectorsAndObservables,
        RecordSource::Detectors,
        RecordSource::Observables,
    ]
    .into_iter()
    .find(|&r| source_name(r) == s)
}

/// Writes the inputs of `workload` for `seed` into `out`. `toy` shrinks
/// every size so the whole benchmark runs in seconds (the self-test).
pub fn generate(workload: &str, seed: u64, toy: bool, out: &Path) -> io::Result<()> {
    let pick = |full: usize, small: usize| if toy { small } else { full };
    // Per workload: base circuit, cold-variant maker, format, source,
    // shots per pass, number of cold variants, schedule length, one cold
    // request in how many, and whether the schedule alternates record
    // sources.
    type Variant = Box<dyn Fn(usize) -> Circuit>;
    let (base, variant, format, source, pass_shots, colds, requests, cold_every, alternate): (
        Circuit,
        Variant,
        SampleFormat,
        RecordSource,
        usize,
        usize,
        usize,
        usize,
        bool,
    ) = match workload {
        "deep_random" => {
            // The layer structure is fixed (generator seed 7, as in the
            // sampling ablation): per-seed structure moves the engine's
            // memory and speed by more than the benchmark's bounds. The
            // workload seed still sets the sampling and request seeds.
            let n = pick(256, 24);
            (
                fig3c_circuit(n, 0.001, 7),
                Box::new(move |k| fig3c_circuit(n, 0.001 + (k + 1) as f64 * 1e-6, 7)),
                SampleFormat::Plain01,
                RecordSource::Measurements,
                pick(1 << 16, 1 << 13),
                pick(3, 2),
                pick(30, 20),
                10,
                false,
            )
        }
        "serve_mix" => {
            // The offline rows of its trace follow the QEC `detect` path:
            // combined detector+observable records in `b8`.
            let (d, r) = (pick(5, 3), pick(5, 2));
            (
                surface(d, r, 0.001),
                Box::new(move |k| surface(d, r, 0.001 + (k + 1) as f64 * 1e-6)),
                SampleFormat::B8,
                RecordSource::DetectorsAndObservables,
                pick(1 << 18, 1 << 13),
                pick(128, 8),
                pick(6400, 80),
                // 2% cold: the mix's p99 then sits mid-way through the
                // cold latencies, not in their tail, which moved 2× from
                // run to run at 10% cold.
                50,
                true,
            )
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown workload {other:?}; expected one of {WORKLOADS:?}"),
            ))
        }
    };
    fs::create_dir_all(out)?;
    fs::write(out.join("base.stim"), base.to_string())?;
    for k in 0..colds {
        fs::write(
            out.join(format!("cold_{k:03}.stim")),
            variant(k).to_string(),
        )?;
    }
    // Every `cold_every`-th request is cold, cycling through the variants;
    // warm requests draw one of four seeds and one of two chunk-aligned
    // starts, so the offline reference bytes stay a small set.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E57_E5CE_D01E);
    let seeds: Vec<u64> = (0..4).map(|_| rng.random::<u64>() >> 16).collect();
    let mut schedule = String::new();
    for i in 0..requests {
        let circuit = if i % cold_every == cold_every - 1 {
            format!("{}", (i / cold_every) % colds)
        } else {
            "base".to_string()
        };
        let src = if alternate && i % 2 == 1 {
            RecordSource::Measurements
        } else {
            source
        };
        let req_seed = seeds[rng.random_range(0..seeds.len())];
        let start = CHUNK_SHOTS * rng.random_range(0..2usize);
        schedule.push_str(&format!(
            "{circuit} {} {req_seed} {start}\n",
            source_name(src)
        ));
    }
    fs::write(out.join("schedule.txt"), schedule)?;
    let params = format!(
        "workload {workload}\nseed {seed}\npass_shots {pass_shots}\ncheck_shots {}\n\
         format {}\nsource {}\n",
        pick(1 << 16, 1 << 12),
        format.name(),
        source_name(source),
    );
    fs::write(out.join("params.txt"), params)
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads back what [`generate`] wrote.
pub fn load(dir: &Path) -> io::Result<Inputs> {
    let params: HashMap<String, String> = fs::read_to_string(dir.join("params.txt"))?
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let get = |k: &str| {
        params
            .get(k)
            .cloned()
            .ok_or_else(|| bad(format!("params.txt lacks {k}")))
    };
    let num = |k: &str| -> io::Result<u64> {
        get(k)?
            .parse()
            .map_err(|e| bad(format!("params.txt {k}: {e}")))
    };
    let mut colds = Vec::new();
    while let Ok(text) = fs::read_to_string(dir.join(format!("cold_{:03}.stim", colds.len()))) {
        colds.push(text);
    }
    let mut schedule = Vec::new();
    for line in fs::read_to_string(dir.join("schedule.txt"))?.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        let parsed = (|| {
            let circuit = match f.first()? {
                &"base" => None,
                k => Some(k.parse::<usize>().ok().filter(|&k| k < colds.len())?),
            };
            Some(Req {
                circuit,
                source: parse_source(f.get(1)?)?,
                seed: f.get(2)?.parse().ok()?,
                start: f.get(3)?.parse().ok()?,
            })
        })();
        schedule.push(parsed.ok_or_else(|| bad(format!("bad schedule line {line:?}")))?);
    }
    let format = get("format")?;
    Ok(Inputs {
        workload: get("workload")?,
        base: fs::read_to_string(dir.join("base.stim"))?,
        colds,
        schedule,
        seed: num("seed")?,
        pass_shots: num("pass_shots")? as usize,
        check_shots: num("check_shots")? as usize,
        format: SampleFormat::from_name(&format)
            .ok_or_else(|| bad(format!("unknown format {format}")))?,
        source: parse_source(&get("source")?)
            .ok_or_else(|| bad("unknown record source".to_string()))?,
    })
}
