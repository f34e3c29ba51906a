//! Offline workloads: set-up (`Circuit::parse` → `build_sampler`) and
//! serial streaming into the workload's real format sink, plus the traced
//! per-layer attribution — every span timed from outside, around calls
//! into the library's public API.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use symphase::bitmat::{BitMatrix, M4rScratch};
use symphase::circuit::Circuit;
use symphase::prelude::{
    build_sampler, EngineKind, RecordSource, SampleBatch, Sampler, ShotSink, ShotSpec, SimConfig,
    SymPhaseSampler,
};
use symphase::sampler_api::{chunk_seed, sink::stream_with_config, CHUNK_SHOTS};

use crate::check::{bytes_per_shot, compare, Discard, RecordTally};
use crate::inputs::Inputs;
use crate::report::{log_latency, median, quantile, Metrics, Tally};

/// The offline configuration: default engine and methods, one thread.
pub fn config(engine: EngineKind, seed: u64) -> SimConfig {
    SimConfig::new()
        .with_engine(engine)
        .with_seed(seed)
        .with_threads(1)
}

pub fn parse(text: &str) -> Circuit {
    Circuit::parse(text).expect("generated circuits parse")
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Repeats `f` at least `min_reps` times and until `min_total` seconds
/// have been spent (at most 100 times), returning every result.
fn repeat<T>(min_reps: usize, min_total: f64, mut f: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || (secs(start.elapsed()) < min_total && out.len() < 100) {
        out.push(f());
    }
    out
}

/// One set-up as a CLI user pays it: text in memory → parse → engine
/// built. Returns the total time and the sampler.
fn setup(text: &str, cfg: &SimConfig) -> (f64, Box<dyn Sampler>) {
    let t = Instant::now();
    let circuit = Circuit::parse(text).expect("generated circuits parse");
    let sampler = build_sampler(&circuit, cfg).expect("generated circuits build");
    (secs(t.elapsed()), sampler)
}

/// Median set-up time over repeated set-ups, keeping the last sampler.
fn timed_setups(text: &str, cfg: &SimConfig) -> (f64, Box<dyn Sampler>) {
    let mut last = None;
    let times = repeat(3, 3.0, || {
        drop(last.take()); // free the previous engine before building
        let (s, sampler) = setup(text, cfg);
        last = Some(sampler);
        s
    });
    (median(&times), last.expect("at least one set-up ran"))
}

/// Forwards to a sink, timestamping every chunk: the interval between
/// consecutive chunk deliveries is one chunk's draw plus serialization.
struct ChunkClock<'a> {
    inner: &'a mut dyn ShotSink,
    last: Instant,
    lat_ms: &'a mut Vec<f64>,
}

impl ShotSink for ChunkClock<'_> {
    fn begin(&mut self, spec: &ShotSpec) -> std::io::Result<()> {
        self.inner.begin(spec)?;
        self.last = Instant::now();
        Ok(())
    }

    fn chunk(&mut self, chunk: &SampleBatch, start: usize) -> std::io::Result<()> {
        self.inner.chunk(chunk, start)?;
        let now = Instant::now();
        self.lat_ms.push(secs(now - self.last) * 1e3);
        self.last = now;
        Ok(())
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.inner.finish()
    }
}

/// The `backend` span: time spent inside the format sink, and the chunks
/// it received.
struct TimedSink<'a> {
    inner: &'a mut dyn ShotSink,
    busy: Duration,
    chunks: usize,
}

impl TimedSink<'_> {
    fn time<T>(&mut self, f: impl FnOnce(&mut dyn ShotSink) -> T) -> T {
        let t = Instant::now();
        let out = f(&mut *self.inner);
        self.busy += t.elapsed();
        out
    }
}

impl ShotSink for TimedSink<'_> {
    fn begin(&mut self, spec: &ShotSpec) -> std::io::Result<()> {
        self.time(|s| s.begin(spec))
    }

    fn chunk(&mut self, chunk: &SampleBatch, start: usize) -> std::io::Result<()> {
        self.chunks += 1;
        self.time(|s| s.chunk(chunk, start))
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.time(|s| s.finish())
    }
}

/// The `core` span: time spent filling chunks (`Sampler::sample_into`).
struct TimedSampler<'a> {
    inner: &'a dyn Sampler,
    busy_ns: AtomicU64,
}

impl Sampler for TimedSampler<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn num_measurements(&self) -> usize {
        self.inner.num_measurements()
    }

    fn num_detectors(&self) -> usize {
        self.inner.num_detectors()
    }

    fn num_observables(&self) -> usize {
        self.inner.num_observables()
    }

    fn sample_into(&self, batch: &mut SampleBatch, rng: &mut dyn RngCore) {
        let t = Instant::now();
        self.inner.sample_into(batch, rng);
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// One timed stream of `shots` shots into the workload's format sink.
struct Pass {
    wall: f64,
    bytes: u64,
    /// Traced passes only: time inside `sample_into` and inside the sink,
    /// and the chunks the sink received.
    sample_s: f64,
    sink_s: f64,
    chunks: usize,
}

fn pass(
    sampler: &dyn Sampler,
    inputs: &Inputs,
    cfg: &SimConfig,
    traced: bool,
    lat_ms: &mut Vec<f64>,
) -> Pass {
    let shots = inputs.pass_shots;
    let mut out = Discard::default();
    let timed = TimedSampler {
        inner: sampler,
        busy_ns: AtomicU64::new(0),
    };
    let (mut sink_s, mut chunks) = (0.0, 0);
    let wall;
    {
        let mut fmt = inputs.format.sink(&mut out, inputs.source);
        let t = Instant::now();
        if traced {
            let mut sink = TimedSink {
                inner: &mut *fmt,
                busy: Duration::ZERO,
                chunks: 0,
            };
            stream_with_config(&timed, shots, cfg, &mut sink).expect("discarding sink");
            (sink_s, chunks) = (secs(sink.busy), sink.chunks);
        } else {
            let mut sink = ChunkClock {
                inner: &mut *fmt,
                last: t,
                lat_ms,
            };
            stream_with_config(sampler, shots, cfg, &mut sink).expect("discarding sink");
        }
        wall = secs(t.elapsed());
    }
    Pass {
        wall,
        bytes: out.bytes,
        sample_s: timed.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        sink_s,
        chunks,
    }
}

/// Checks a pass delivered exactly the bytes the format spec implies.
fn check_bytes(p: &Pass, sampler: &dyn Sampler, inputs: &Inputs, tally: &mut Tally) {
    let spec = ShotSpec::of(sampler, inputs.pass_shots);
    let want = bytes_per_shot(inputs.format, inputs.source, &spec) * inputs.pass_shots as u64;
    tally.check(p.bytes == want, || {
        format!("pass wrote {} bytes, spec says {want}", p.bytes)
    });
}

/// Streams `check_shots` shots of `sampler` through the format sink into
/// a decoding tally.
fn tally_of(sampler: &dyn Sampler, inputs: &Inputs, seed: u64) -> std::io::Result<RecordTally> {
    let n = inputs.check_shots;
    let rows = inputs.source.rows(&ShotSpec::of(sampler, n));
    let mut tally = RecordTally::new(inputs.format, rows);
    {
        let mut sink = inputs.format.sink(&mut tally, inputs.source);
        stream_with_config(
            sampler,
            n,
            &config(EngineKind::SymPhase, seed),
            sink.as_mut(),
        )?;
    }
    Ok(tally)
}

/// Per-record marginals and adjacent-record XOR rates of SymPhase against
/// the `frame` engine, each within 5σ.
fn statistical_check(sym: &dyn Sampler, frame: &dyn Sampler, inputs: &Inputs, tally: &mut Tally) {
    match (
        tally_of(sym, inputs, inputs.seed),
        tally_of(frame, inputs, inputs.seed ^ 1),
    ) {
        (Ok(ours), Ok(reference)) => compare(&ours, &reference, tally),
        (a, b) => tally.check(false, || {
            format!("output did not decode: {:?} / {:?}", a.err(), b.err())
        }),
    }
}

/// The untraced end-to-end run of an offline workload.
///
/// Rounds repeat until `seconds` have passed (at least three): set up
/// afresh — repeatedly, until set-up time reaches a quarter of the last
/// pass — then stream one timed pass on the newest engine. Interleaving
/// spreads both measurements over the same stretch of machine time, and
/// streaming on a fresh engine keeps work deferred out of set-up into
/// first use inside `shots_per_s`.
pub fn run(inputs: &Inputs, seconds: f64, metrics: &mut Metrics) -> Tally {
    let mut tally = Tally::default();
    let cfg = config(EngineKind::SymPhase, inputs.seed);
    let (mut setups, mut rates, mut lat_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut sampler = None;
    let mut last_pass = 0.0;
    let start = Instant::now();
    while rates.len() < 3 || secs(start.elapsed()) < seconds {
        let mut spent = 0.0;
        while spent == 0.0 || spent < last_pass / 4.0 {
            drop(sampler.take()); // free the previous engine before building
            let (s, built) = setup(&inputs.base, &cfg);
            sampler = Some(built);
            setups.push(s);
            spent += s;
        }
        let sampler = sampler.as_deref().expect("built above");
        let p = pass(sampler, inputs, &cfg, false, &mut lat_ms);
        check_bytes(&p, sampler, inputs, &mut tally);
        last_pass = p.wall;
        rates.push(inputs.pass_shots as f64 / p.wall);
    }
    let sampler = sampler.expect("built above");
    eprintln!(
        "{} set-ups, median {:.6} s; {} passes of {} shots, quartiles {:.0} / {:.0} / {:.0} shots/s",
        setups.len(),
        median(&setups),
        rates.len(),
        inputs.pass_shots,
        quantile(&rates, 0.25),
        median(&rates),
        quantile(&rates, 0.75)
    );
    log_latency("chunk latency", &lat_ms);
    let frame =
        build_sampler(&parse(&inputs.base), &config(EngineKind::Frame, 0)).expect("frame builds");
    statistical_check(&*sampler, &*frame, inputs, &mut tally);
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("shots_per_s", median(&rates), "shots/s");
    metrics.put(
        "peak_rss_mb",
        crate::report::peak_rss_mb(None).expect("/proc is readable"),
        "MB",
    );
    metrics.put("req_p50_ms", median(&lat_ms), "ms");
    metrics.put("req_p99_ms", quantile(&lat_ms, 0.99), "ms");
    tally
}

/// The record matrices the workload's source reads, densified (the
/// operands of the `DenseMatMul` kernel).
fn dense_records(sym: &SymPhaseSampler, source: RecordSource) -> Vec<BitMatrix> {
    match source {
        RecordSource::Measurements => vec![sym.measurement_matrix().to_dense()],
        RecordSource::Detectors => vec![sym.detector_rows().to_dense()],
        RecordSource::Observables => vec![sym.observable_rows().to_dense()],
        RecordSource::DetectorsAndObservables => vec![
            sym.detector_rows().to_dense(),
            sym.observable_rows().to_dense(),
        ],
    }
}

/// Replays one pass's chunk schedule through `SymbolTable::
/// sample_assignments_into` and `BitMatrix::mul_into` on the densified
/// records, within a time budget; returns per-pass-equivalent draw and
/// multiply seconds and the bit operations of one pass's multiply.
fn replay_kernels(sym: &SymPhaseSampler, inputs: &Inputs, budget: f64) -> (f64, f64, f64) {
    let table = sym.symbol_table();
    let dense = dense_records(sym, inputs.source);
    let chunks = inputs.pass_shots.div_ceil(CHUNK_SHOTS);
    let mut b = BitMatrix::zeros(table.assignment_len(), CHUNK_SHOTS);
    let mut outs: Vec<BitMatrix> = dense
        .iter()
        .map(|m| BitMatrix::zeros(m.rows(), CHUNK_SHOTS))
        .collect();
    let mut scratch = M4rScratch::default();
    let (mut draw, mut mul) = (Duration::ZERO, Duration::ZERO);
    let start = Instant::now();
    let mut done = 0;
    while done < chunks && (done == 0 || secs(start.elapsed()) < budget) {
        let mut rng = StdRng::seed_from_u64(chunk_seed(inputs.seed, done as u64));
        let t = Instant::now();
        table.sample_assignments_into(&mut b, &mut rng);
        let t2 = Instant::now();
        for (m, out) in dense.iter().zip(&mut outs) {
            m.mul_into(&b, out, 0, &mut scratch);
        }
        mul += t2.elapsed();
        draw += t2 - t;
        std::hint::black_box(&outs);
        done += 1;
    }
    let scale = chunks as f64 / done as f64;
    let bitops: f64 = dense
        .iter()
        .map(|m| m.rows() as f64 * m.cols() as f64 * inputs.pass_shots as f64)
        .sum();
    (secs(draw) * scale, secs(mul) * scale, bitops)
}

/// Numeric code of a resolved sampling method (unit `enum`).
fn method_code(sym: &SymPhaseSampler) -> f64 {
    use symphase::prelude::SamplingMethod::*;
    match sym.resolved_method() {
        Auto => 0.0,
        Hybrid => 1.0,
        SparseRows => 2.0,
        DenseMatMul => 3.0,
    }
}

/// The traced run's offline layers — `circuit`, `core`, `bitmat`,
/// `backend`, `frame` — and the trace overhead and coverage, within about
/// `seconds` of streaming.
pub fn trace(inputs: &Inputs, seconds: f64, metrics: &mut Metrics) -> Tally {
    let mut tally = Tally::default();
    let cfg = config(EngineKind::SymPhase, inputs.seed);
    // Set-up, interleaved so both see the same machine state: per
    // repetition one untraced total and one set-up with parse and build
    // timed separately, alternating which goes first.
    let untraced = || setup(&inputs.base, &cfg).0;
    let traced = || {
        let t = Instant::now();
        let circuit = parse(&inputs.base);
        let t_parsed = Instant::now();
        let sampler = build_sampler(&circuit, &cfg).expect("generated circuits build");
        let init = secs(t_parsed.elapsed());
        drop(sampler);
        (secs(t_parsed - t), init)
    };
    let mut rep = 0;
    let reps = repeat(4, 2.0, || {
        rep += 1;
        let (total, (parse, init)) = if rep % 2 == 0 {
            (untraced(), traced())
        } else {
            let split = traced();
            (untraced(), split)
        };
        [total, parse, init]
    });
    let col = |i: usize| median(&reps.iter().map(|r| r[i]).collect::<Vec<_>>());
    let (setup_s, parse_s, init_s) = (col(0), col(1), col(2));
    let circuit = parse(&inputs.base);
    let sampler = build_sampler(&circuit, &cfg).expect("generated circuits build");
    let stats = circuit.stats();
    eprintln!(
        "set-up {setup_s:.6} s = parse {parse_s:.6} s + init {init_s:.6} s ({:.1}% covered)",
        100.0 * (parse_s + init_s) / setup_s
    );

    // Streaming: untraced and traced passes alternate.
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut lat_ms = Vec::new();
    while traced.len() < 3 || secs(start.elapsed()) < seconds * 0.6 {
        let p = pass(&*sampler, inputs, &cfg, false, &mut lat_ms);
        check_bytes(&p, &*sampler, inputs, &mut tally);
        plain.push(inputs.pass_shots as f64 / p.wall);
        let p = pass(&*sampler, inputs, &cfg, true, &mut lat_ms);
        check_bytes(&p, &*sampler, inputs, &mut tally);
        traced.push(p);
    }
    let med = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let wall = med(&|p| p.wall);
    let sample_s = med(&|p| p.sample_s);
    let sink_s = med(&|p| p.sink_s);
    let bytes = traced[0].bytes;
    let plain_rate = median(&plain);
    let traced_rate = inputs.pass_shots as f64 / wall;

    // Kernel replays on a concrete SymPhase engine of the same circuit.
    let sym = SymPhaseSampler::with_config(&circuit, cfg.effective_phase_repr(), cfg.sampling());
    let (draw_s, mul_s, bitops) = replay_kernels(&sym, inputs, seconds * 0.2);

    // The paper's baseline through the same sink.
    let frame_cfg = config(EngineKind::Frame, inputs.seed);
    let (frame_setup_s, frame) = timed_setups(&inputs.base, &frame_cfg);
    let frame_start = Instant::now();
    let mut frame_rates = Vec::new();
    while frame_rates.is_empty() || secs(frame_start.elapsed()) < seconds * 0.2 {
        let p = pass(&*frame, inputs, &frame_cfg, false, &mut Vec::new());
        check_bytes(&p, &*frame, inputs, &mut tally);
        frame_rates.push(inputs.pass_shots as f64 / p.wall);
    }
    let frame_rate = median(&frame_rates);
    // Shots at which SymPhase's set-up plus sampling time equals frame's;
    // -1 when one engine is ahead at every shot count.
    let cross = (setup_s - frame_setup_s) / (1.0 / frame_rate - 1.0 / plain_rate);
    let breakeven = if cross.is_finite() && cross > 0.0 {
        cross
    } else {
        -1.0
    };
    statistical_check(&*sampler, &*frame, inputs, &mut tally);

    metrics.put("circuit.parse_s", parse_s, "s");
    metrics.put("circuit.gates", stats.gates as f64, "count");
    metrics.put("circuit.measurements", stats.measurements as f64, "count");
    metrics.put("circuit.detectors", stats.detectors as f64, "count");
    metrics.put("circuit.noise_symbols", stats.noise_symbols as f64, "count");
    metrics.put("core.init_s", init_s, "s");
    metrics.put(
        "core.init_ns_per_gate",
        init_s * 1e9 / stats.gates.max(1) as f64,
        "ns/gate",
    );
    metrics.put(
        "core.symbols",
        sym.symbol_table().num_symbols() as f64,
        "count",
    );
    metrics.put(
        "core.nnz",
        sym.measurement_matrix().count_ones() as f64,
        "count",
    );
    metrics.put("core.method", method_code(&sym), "enum");
    metrics.put("core.sample_s", sample_s, "s");
    metrics.put("core.draw_s", draw_s, "s");
    metrics.put("bitmat.mul_s", mul_s, "s");
    metrics.put("bitmat.mul_gbit_per_s", bitops / mul_s / 1e9, "Gbit/s");
    metrics.put("backend.sink_s", sink_s, "s");
    metrics.put(
        "backend.sink_ns_per_byte",
        sink_s * 1e9 / bytes as f64,
        "ns/B",
    );
    metrics.put("backend.bytes_out", bytes as f64, "B");
    metrics.put("backend.chunks", traced[0].chunks as f64, "count");
    metrics.put("frame.setup_s", frame_setup_s, "s");
    metrics.put("frame.shots_per_s", frame_rate, "shots/s");
    metrics.put("frame.speedup", plain_rate / frame_rate, "ratio");
    metrics.put("frame.breakeven_shots", breakeven, "shots");
    metrics.put("trace.overhead", plain_rate / traced_rate - 1.0, "ratio");
    metrics.put(
        "trace.setup_coverage",
        (parse_s + init_s) / setup_s,
        "ratio",
    );
    metrics.put("trace.stream_coverage", (sample_s + sink_s) / wall, "ratio");
    tally
}
