//! Experiment harness: regenerates the paper's tables and figures as text
//! series on stdout (listed in the README's "Reproducing the paper's
//! figures and tables"; `bench-json` writes the `BENCH_<n>.json` reports
//! described in `docs/performance.md`).
//!
//! Usage:
//!
//! ```text
//! experiments all                      # everything at default sizes
//! experiments fig3a [--max-n 384] [--shots 10000]
//! experiments fig3b [--max-n 192]
//! experiments fig3c [--max-n 192]
//! experiments table1 [--n 64]
//! experiments fig2  [--size 2048]
//! experiments ablation [--n 96]
//! experiments sampling [--shots 16384]
//! experiments opt [--n 64] [--shots 10000]
//! experiments par [--n 96] [--shots 1048576] [--strict]
//! experiments serve [--n 64] [--shots 1048576]
//! experiments scale [--max-rounds 100000] [--shots 256]
//! experiments bench-json [--out BENCH_7.json] [--simd scalar|avx2|avx512]
//!                        [--n 64] [--shots 20000] [--kernel-shots 4096]
//!                        [--threads N]
//! experiments bench-check [--baseline BENCH_6.json] [--tolerance 25]
//!                         [--shots 20000]
//! ```

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use symphase::backend::build_sampler;
use symphase::sampler_api::{sink, CountingSink, Sampler};
use symphase_bench::json::Json;
use symphase_bench::perf::{self, PerfConfig};
use symphase_bench::{
    measure_fig3_point, measure_scale_point, sampling_grid, secs, table1_circuit, SimConfig,
    Workload, PAPER_SHOTS,
};
use symphase_bitmat::layout::{ChpLayout, StimLayout, SymLayout512, TableauLayout};
use symphase_bitmat::simd::SimdLevel;
use symphase_core::{PhaseRepr, SamplingMethod, SymPhaseSampler};
use symphase_frame::FrameSampler;

// The reports go to stdout through these two, which shadow the std
// macros for this file: a reader that closes the pipe early
// (`experiments sampling | head`) ends the run quietly with exit 0, as the
// `symphase` CLI does, where the std ones panic.
macro_rules! print {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

macro_rules! println {
    () => {
        print!("\n")
    };
    ($($arg:tt)*) => {
        print!("{}\n", format_args!($($arg)*))
    };
}

fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing stdout: {e}");
        std::process::exit(1);
    }
}

fn arg_value(args: &[String], key: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn arg_str<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn arg_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

/// The `BENCH_<k>.json` reports committed at the repo root (current
/// directory), ordered by index.
fn bench_reports() -> Vec<(usize, String)> {
    let mut out = Vec::new();
    if let Ok(dir) = std::fs::read_dir(".") {
        for entry in dir.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(k) = name
                .strip_prefix("BENCH_")
                .and_then(|s| s.strip_suffix(".json"))
                .and_then(|s| s.parse::<usize>().ok())
            {
                out.push((k, name));
            }
        }
    }
    out.sort();
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let shots = arg_value(&args, "--shots").unwrap_or(PAPER_SHOTS);
    match what {
        "fig3a" => fig3(
            Workload::Fig3a,
            arg_value(&args, "--max-n").unwrap_or(384),
            shots,
        ),
        "fig3b" => fig3(
            Workload::Fig3b,
            arg_value(&args, "--max-n").unwrap_or(192),
            shots,
        ),
        "fig3c" => fig3(
            Workload::Fig3c,
            arg_value(&args, "--max-n").unwrap_or(192),
            shots,
        ),
        "table1" => table1(arg_value(&args, "--n").unwrap_or(64), shots),
        "fig2" => fig2(arg_value(&args, "--size").unwrap_or(2048)),
        "ablation" => ablation(arg_value(&args, "--n").unwrap_or(96)),
        "sampling" => sampling(arg_value(&args, "--shots").unwrap_or(16_384)),
        "opt" => opt_ablation(arg_value(&args, "--n").unwrap_or(64), shots),
        "par" => par_scaling(
            arg_value(&args, "--n").unwrap_or(96),
            arg_value(&args, "--shots").unwrap_or(1 << 20),
            arg_flag(&args, "--strict"),
        ),
        "serve" => serve_scaling(
            arg_value(&args, "--n").unwrap_or(64),
            arg_value(&args, "--shots").unwrap_or(1 << 20),
        ),
        "bench-json" => bench_json(&args),
        "bench-check" => bench_check(&args),
        "scale" => scale(
            arg_value(&args, "--max-rounds").unwrap_or(100_000),
            arg_value(&args, "--shots").unwrap_or(256),
        ),
        "all" => {
            fig3(Workload::Fig3a, 256, shots);
            fig3(Workload::Fig3b, 160, shots);
            fig3(Workload::Fig3c, 160, shots);
            table1(64, shots);
            fig2(2048);
            ablation(96);
            sampling(16_384);
            opt_ablation(64, shots);
            par_scaling(96, 1 << 20, false);
            serve_scaling(64, 1 << 20);
            scale(20_000, 256);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            std::process::exit(2);
        }
    }
}

/// Fig. 3a/3b/3c: init time and time to generate `shots` samples vs n.
fn fig3(workload: Workload, max_n: usize, shots: usize) {
    println!(
        "\n== {} : layered random circuits, {shots} samples ==",
        workload.name()
    );
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "n", "gates", "meas", "sym_init_s", "frame_init_s", "sym_smp_s", "frame_smp_s"
    );
    let mut n = 32;
    while n <= max_n {
        let c = workload.circuit(n, 0xF16_3000 + n as u64);
        let stats = c.stats();
        let p = measure_fig3_point(workload, n, shots);
        println!(
            "{:>6} {:>10} {:>10} {:>12} {:>12} {:>12} {:>12}",
            n,
            stats.gates,
            stats.measurements,
            secs(p.symphase_init),
            secs(p.frame_init),
            secs(p.symphase_sample),
            secs(p.frame_sample)
        );
        n *= 2;
    }
    println!("shape check: sym_smp vs frame_smp is the paper's headline comparison.");
}

/// Table 1: sampling-time dependence on the gate count n_g.
fn table1(n: usize, shots: usize) {
    println!("\n== table1 : sampling cost vs extra gates (n={n}, {shots} samples) ==");
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "layers", "gates", "sym_init_s", "sym_smp_s", "frame_init_s", "frame_smp_s"
    );
    for extra in [0usize, 16, 32, 64, 128, 256] {
        let c = table1_circuit(n, extra, 11);
        let stats = c.stats();

        let t = Instant::now();
        let sym = SymPhaseSampler::new(&c);
        let sym_init = t.elapsed();
        let t = Instant::now();
        let s = sym.sample(shots, &mut StdRng::seed_from_u64(1));
        let sym_smp = t.elapsed();
        std::hint::black_box(s.count_ones());

        let t = Instant::now();
        let frame = FrameSampler::new(&c);
        let frame_init = t.elapsed();
        let t = Instant::now();
        let f = frame.sample(shots, &mut StdRng::seed_from_u64(2));
        let frame_smp = t.elapsed();
        std::hint::black_box(f.count_ones());

        println!(
            "{:>8} {:>10} {:>12} {:>12} {:>12} {:>12}",
            extra,
            stats.gates,
            secs(sym_init),
            secs(sym_smp),
            secs(frame_init),
            secs(frame_smp)
        );
    }
    println!("expected shape (Table 1): sym_smp flat in gates; frame_smp grows ~linearly.");
}

/// Fig. 2: column-op / row-op / mode-switch throughput per layout.
fn fig2(size: usize) {
    println!("\n== fig2 : tableau data layouts, {size}×{size} bits ==");
    println!(
        "{:>10} {:>14} {:>14} {:>14} {:>16}",
        "layout", "col_ops_s", "row_ops_s", "switch_s", "mixed_epoch_s"
    );
    fig2_one::<ChpLayout>(size);
    fig2_one::<StimLayout>(size);
    fig2_one::<SymLayout512>(size);
    println!("expected shape (paper §4): chp wins row ops, loses col ops; the");
    println!("blocked layouts win col ops; local transposition (symphase) makes");
    println!("mode switches cheaper than stim's full transpose.");
}

fn fig2_one<L: TableauLayout>(size: usize) {
    let mut rng = StdRng::seed_from_u64(99);
    let mut l = L::zeros(size, size);
    l.fill_random(&mut rng);
    let ops = 4 * size;

    // Column operations (gate-like).
    l.ensure_col_mode();
    let t = Instant::now();
    for i in 0..ops {
        let src = (i * 7919) % size;
        let dst = (src + 1 + (i % (size - 1))) % size;
        if src != dst {
            l.xor_col_into(src, dst);
        }
    }
    let col_time = t.elapsed();

    // Row operations (measurement-like), mode switch excluded.
    l.ensure_row_mode();
    let t = Instant::now();
    for i in 0..ops {
        let src = (i * 104729) % size;
        let dst = (src + 1 + (i % (size - 1))) % size;
        if src != dst {
            l.xor_row_into(src, dst);
        }
    }
    let row_time = t.elapsed();

    // Mode switches (transpose cost), averaged over 10 round trips.
    let t = Instant::now();
    for _ in 0..10 {
        l.ensure_col_mode();
        l.ensure_row_mode();
    }
    let switch_time = t.elapsed() / 20;

    // Mixed epochs: the realistic pattern — gates, then a measurement
    // batch, then gates again.
    let t = Instant::now();
    for epoch in 0..8 {
        l.ensure_col_mode();
        for i in 0..size / 4 {
            let src = (epoch * 31 + i * 7919) % size;
            let dst = (src + 1 + i) % size;
            if src != dst {
                l.xor_col_into(src, dst);
            }
        }
        l.ensure_row_mode();
        for i in 0..size / 16 {
            let src = (epoch * 17 + i * 104729) % size;
            let dst = (src + 1 + i) % size;
            if src != dst {
                l.xor_row_into(src, dst);
            }
        }
    }
    let mixed_time = t.elapsed();

    println!(
        "{:>10} {:>14} {:>14} {:>14} {:>16}",
        L::NAME,
        secs(col_time),
        secs(row_time),
        secs(switch_time),
        secs(mixed_time)
    );
}

/// Sampling-kernel ablation: every `SamplingMethod` on the kernel grid,
/// median and quartiles over 9 interleaved rounds, plus `Auto`'s pick and
/// its median over the best pinned method's.
fn sampling(shots: usize) {
    let rounds = 9;
    println!(
        "\n== sampling : M·B kernels, {shots} shots, median [q1, q3] ms of {rounds} rounds =="
    );
    print!("{:<30}", "circuit");
    for method in SamplingMethod::ALL {
        print!(" {:>20}", method.name());
    }
    println!(" {:>7} {:>6}", "pick", "ratio");
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    for row in symphase_bench::ablation_sampling_matrix(sampling_grid(), shots, rounds, 23) {
        print!("{:<30}", row.circuit);
        for [q1, median, q3] in &row.times {
            let cell = format!("{:.3} [{:.3}, {:.3}]", ms(*median), ms(*q1), ms(*q3));
            print!(" {cell:>20}");
        }
        println!(" {:>7} {:>6.2}", row.pick.name(), row.auto_ratio());
    }
    println!("ratio = auto's median / the best pinned method's median; all methods");
    println!("sample identical bits for a seed, so only the kernel's speed differs.");
}

/// Optimizer ablation: the verified rewrite driver's own cost and what it
/// removed per workload, plus serial streaming throughput on the raw vs
/// the optimized circuit.
fn opt_ablation(n: usize, shots: usize) {
    println!("\n== opt : verified rewrite driver, n={n}, {shots} shots ==");
    println!(
        "{:>18} {:>10} {:>9} {:>9} {:>6} {:>7} {:>13} {:>13} {:>8}",
        "circuit",
        "opt_s",
        "gates_b",
        "gates_a",
        "flips",
        "rolled",
        "raw_shots_s",
        "opt_shots_s",
        "speedup"
    );
    for (name, circuit) in symphase_bench::perf::opt_ablation_circuits(n) {
        let t = Instant::now();
        let r = symphase::analysis::optimize(&circuit);
        let opt_s = t.elapsed();
        let rolled = r
            .proof
            .iter()
            .filter(|p| matches!(p.status, symphase::analysis::ProofStatus::RolledBack { .. }))
            .count();
        let rate = |c: &symphase_circuit::Circuit| {
            let sampler = build_sampler(c, &SimConfig::new()).expect("engine builds");
            let cfg = SimConfig::new().with_seed(1).with_threads(1);
            let mut out = CountingSink::default();
            let t = Instant::now();
            sink::stream_with_config(sampler.as_ref(), shots, &cfg, &mut out)
                .expect("counting sink cannot fail");
            std::hint::black_box(out.measurement_ones);
            shots as f64 / t.elapsed().as_secs_f64().max(1e-9)
        };
        let raw = rate(&circuit);
        let opt = rate(&r.circuit);
        println!(
            "{:>18} {:>10} {:>9} {:>9} {:>6} {:>7} {:>13.0} {:>13.0} {:>8.2}",
            name,
            secs(opt_s),
            r.report.gates_before,
            r.report.gates_after,
            r.flipped_records.len(),
            rolled,
            raw,
            opt,
            opt / raw
        );
    }
    println!("expected shape: clean workloads pay ~no throughput cost (the driver");
    println!("proves nothing removable); redundant_memory regains fused-round");
    println!("throughput, with every in-body rewrite proven on a clamped replay.");
}

/// Multi-core scaling of the chunk-seeded streaming path: per-thread
/// wall time and speedup for every backend, swept over thread budgets.
/// Threaded runs that come out *slower* than serial are flagged; with
/// `--strict` they fail the run (CI uses this on multi-core hosts).
fn par_scaling(n: usize, shots: usize, strict: bool) {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut budgets = vec![1usize, 2, 4];
    if !budgets.contains(&cores) {
        budgets.push(cores);
    }
    budgets.sort_unstable();
    println!(
        "\n== par : chunk-seeded parallel streaming, n={n}, {shots} shots, {cores} core(s) =="
    );
    println!(
        "{:>16} {:>8} {:>12} {:>14} {:>8}",
        "backend", "threads", "time_s", "shots_per_s", "speedup"
    );
    let mut slower_than_serial = Vec::new();
    for workload in [Workload::Fig3a, Workload::Fig3c] {
        let c = workload.circuit(n, 13);
        // SymPhase on the phase store this workload wins with.
        let engines: [(&str, Box<dyn Sampler>); 2] = [
            (
                "symphase",
                Box::new(SymPhaseSampler::with_repr(&c, workload.phase_repr())),
            ),
            ("frame", Box::new(FrameSampler::new(&c))),
        ];
        for (name, sampler) in engines {
            let label = format!("{}/{}", workload.name(), name);
            let mut serial = None;
            for &threads in &budgets {
                let cfg = SimConfig::new().with_seed(1).with_threads(threads);
                let mut out = CountingSink::default();
                let t = Instant::now();
                sink::stream_with_config(sampler.as_ref(), shots, &cfg, &mut out)
                    .expect("counting sink cannot fail");
                let time = t.elapsed();
                std::hint::black_box(out.measurement_ones);
                let serial_time = *serial.get_or_insert(time);
                let speedup = serial_time.as_secs_f64() / time.as_secs_f64().max(1e-9);
                println!(
                    "{:>16} {:>8} {:>12} {:>14.0} {:>8.2}",
                    label,
                    threads,
                    secs(time),
                    shots as f64 / time.as_secs_f64().max(1e-9),
                    speedup
                );
                if threads > 1 && speedup < 1.0 {
                    slower_than_serial.push(format!("{label} @{threads} threads ({speedup:.2}x)"));
                }
            }
        }
    }
    println!("outputs are bit-identical across every thread budget (the streaming");
    println!("sink sees the same chunk-seeded schedule; pinned by tests/streaming.rs).");
    if !slower_than_serial.is_empty() {
        eprintln!("warning: parallel streaming slower than serial on:");
        for line in &slower_than_serial {
            eprintln!("  {line}");
        }
        eprintln!(
            "({cores} core(s) available — oversubscription overhead is expected on \
             few-core hosts; see docs/performance.md)"
        );
        if strict {
            std::process::exit(1);
        }
    }
}

/// Daemon scaling: `symphase serve` over loopback vs the offline path,
/// swept over worker counts — cold first-request latency (parse +
/// initialization), warm-cache request latency, and aggregate shots/s
/// with the run sharded across that many concurrent clients.
fn serve_scaling(n: usize, shots: usize) {
    println!("\n== serve : loopback sampling daemon vs offline, n={n}, ~{shots} shots ==");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>16} {:>16} {:>8}",
        "workers",
        "cold_req_s",
        "warm_req_s",
        "warm_req_ps",
        "served_shots_s",
        "offline_shots_s",
        "speedup"
    );
    for workers in [1usize, 2, 8] {
        let p = symphase_bench::perf::serve_bench(n, shots, workers);
        println!(
            "{:>8} {:>12.6} {:>12.6} {:>12.0} {:>16.0} {:>16.0} {:>8.2}",
            p.workers,
            p.cold_first_request_s,
            p.warm_request_s,
            1.0 / p.warm_request_s.max(1e-9),
            p.sharded_shots_per_sec,
            p.offline_shots_per_sec,
            p.sharded_shots_per_sec / p.offline_shots_per_sec
        );
    }
    println!("expected shape: cold pays initialization once, warm requests are");
    println!("loopback + one chunk of streaming; sharded throughput approaches");
    println!("(and with enough workers exceeds) serial offline streaming, since");
    println!("every shard replays the same global chunk-seeded schedule.");
}

/// `bench-json`: runs the kernel + end-to-end matrix and writes a
/// schema'd `BENCH_<k>.json` report (defaults to the next free index at
/// the repo root — the tracked performance trajectory).
fn bench_json(args: &[String]) {
    let mut cfg = PerfConfig::default();
    if let Some(n) = arg_value(args, "--n") {
        cfg.n = n;
    }
    if let Some(shots) = arg_value(args, "--shots") {
        cfg.stream_shots = shots;
    }
    if let Some(shots) = arg_value(args, "--kernel-shots") {
        cfg.kernel_shots = shots;
    }
    if let Some(threads) = arg_value(args, "--threads") {
        if !cfg.thread_counts.contains(&threads) {
            cfg.thread_counts.push(threads);
            cfg.thread_counts.sort_unstable();
        }
    }
    if let Some(name) = arg_str(args, "--simd") {
        match SimdLevel::from_name(name) {
            Some(level) => cfg = cfg.with_simd(level),
            None => {
                eprintln!("unknown SIMD level '{name}' (scalar|avx2|avx512)");
                std::process::exit(2);
            }
        }
    }
    let out_path = arg_str(args, "--out")
        .map(str::to_owned)
        .unwrap_or_else(|| {
            let next = bench_reports().last().map_or(1, |(k, _)| k + 1);
            format!("BENCH_{next}.json")
        });
    let report = perf::run_perf_report(&cfg);
    std::fs::write(&out_path, report.render()).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out_path}");
    for row in report
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        println!(
            "  {:>14} @{} threads: {:.0} shots/s",
            row.get("circuit").and_then(Json::as_str).unwrap_or("?"),
            row.get("threads").and_then(Json::as_f64).unwrap_or(0.0),
            row.get("shots_per_sec")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        );
    }
}

/// `bench-check`: the regression gate. Re-measures serial `surface_d5`
/// streaming throughput against the committed baseline (newest
/// `BENCH_<k>.json` unless `--baseline` names one) and exits non-zero
/// when it falls more than `--tolerance` percent (default 25) below.
fn bench_check(args: &[String]) {
    let baseline_path = arg_str(args, "--baseline")
        .map(str::to_owned)
        .or_else(|| bench_reports().pop().map(|(_, name)| name))
        .unwrap_or_else(|| {
            eprintln!("no BENCH_<k>.json baseline found (pass --baseline)");
            std::process::exit(2);
        });
    let tolerance = arg_value(args, "--tolerance").unwrap_or(25) as f64;
    let shots = arg_value(args, "--shots").unwrap_or(20_000);
    let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!("cannot read {baseline_path}: {e}");
        std::process::exit(2);
    });
    let baseline = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{baseline_path} is not valid JSON: {e}");
        std::process::exit(2);
    });
    match perf::check_regression(&baseline, tolerance, shots) {
        Ok(line) => println!("bench-check PASS vs {baseline_path}: {line}"),
        Err(line) => {
            eprintln!("bench-check FAIL vs {baseline_path}: {line}");
            std::process::exit(1);
        }
    }
}

/// Deep-memory scale series: parse + initialize + sample a structured
/// `REPEAT` surface-code memory at doubling round counts. Parse time must
/// stay flat (O(file)); initialization and sampling grow linearly with
/// the flattened length that is never materialized.
fn scale(max_rounds: usize, shots: usize) {
    println!("\n== scale : structured REPEAT deep memory (d=3, measure noise), {shots} shots ==");
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>12}",
        "rounds", "meas", "parse_s", "init_s", "sample_s"
    );
    let mut rounds = 1_000;
    while rounds <= max_rounds {
        let p = measure_scale_point(rounds, shots);
        println!(
            "{:>10} {:>10} {:>12} {:>12} {:>12}",
            p.rounds,
            8 * p.rounds + 9,
            secs(p.parse),
            secs(p.init),
            secs(p.sample)
        );
        rounds *= 4;
    }
}

/// Phase-representation ablation (A2): init time of each phase store.
/// The sampling-multiplication ablation (A1) is [`sampling`].
fn ablation(n: usize) {
    println!("\n== ablation : phase store (n={n}) ==");
    for workload in [Workload::Fig3a, Workload::Fig3c] {
        let c = workload.circuit(n, 7);
        let init = |repr| {
            let t = Instant::now();
            std::hint::black_box(SymPhaseSampler::with_repr(&c, repr));
            secs(t.elapsed())
        };
        println!(
            "{}: init sparse {} / dense {}",
            workload.name(),
            init(PhaseRepr::Sparse),
            init(PhaseRepr::Dense)
        );
    }
    println!("expected shape: sparse phases win sparse workloads (fig3a),");
    println!("dense phases win dense noisy workloads (fig3c).");
}
