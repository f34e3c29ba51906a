//! The `serve` layer: a real `symphase serve` daemon in a child process,
//! driven by a closed loop of client connections speaking SPH1 through the
//! public `protocol` functions.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

use symphase::prelude::{build_sampler, EngineKind, Sampler};
use symphase::sampler_api::{stream_range_with_config, CHUNK_SHOTS};
use symphase::serve::protocol::{
    copy_stream, read_error_message, read_response_head, write_request, ResponseHead,
};
use symphase::serve::{
    circuit_hash, request_stats, CircuitRef, Request, SampleRequest, StatsReply,
};

use crate::inputs::{Inputs, Req};
use crate::offline::{config, parse};
use crate::report::{log_latency, median, quantile, Metrics, Tally};

/// Daemon options: two workers, default queue (32) and cache (64).
const DAEMON_ARGS: [&str; 5] = ["serve", "--addr", "127.0.0.1:0", "--workers", "2"];

/// The `daemon` subcommand: runs the CLI's `serve` path on an ephemeral
/// port and exits as soon as its stdin closes, so it never outlives the
/// harness that spawned it.
pub fn daemon_main() -> ! {
    std::thread::spawn(|| {
        let mut buf = [0u8; 64];
        while matches!(io::stdin().read(&mut buf), Ok(n) if n > 0) {}
        std::process::exit(0);
    });
    let args: Vec<String> = DAEMON_ARGS.iter().map(|s| s.to_string()).collect();
    let err = symphase::cli::run_to(&args, &mut io::stdout())
        .err()
        .map_or_else(|| "serve returned".to_string(), |e| e.to_string());
    eprintln!("daemon: {err}");
    std::process::exit(1);
}

/// A daemon child process; killed and reaped on drop.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon and waits until it answers a STATS request.
    fn spawn() -> io::Result<Daemon> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("daemon")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // Owned from here on, so every early return reaps the child.
        let mut daemon = Daemon {
            child,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        daemon.stdout.read_line(&mut line)?;
        daemon.addr = line
            .trim()
            .strip_prefix("serving on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("daemon announced {line:?}")))?;
        daemon.stats()?;
        Ok(daemon)
    }

    fn stats(&self) -> io::Result<StatsReply> {
        request_stats(self.addr).map_err(|e| io::Error::other(e.to_string()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request's client-side timeline, in ms from before `connect`.
#[derive(Default)]
struct Sample {
    /// `write_request` start → `read_response_head` returned.
    ttfb_ms: f64,
    /// Response head → last payload byte.
    stream_ms: f64,
    /// Connect → last payload byte.
    total_ms: f64,
    cache_hit: bool,
    ok: bool,
    index: usize,
}

/// Sends one request on a fresh connection, collecting the payload.
fn send(addr: SocketAddr, request: &Request, payload: &mut Vec<u8>) -> Result<Sample, String> {
    let t0 = Instant::now();
    let conn = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    let t_send = Instant::now();
    let mut w = BufWriter::new(&conn);
    write_request(&mut w, request).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())?;
    drop(w);
    let mut r = BufReader::with_capacity(128 * 1024, &conn);
    let head = read_response_head(&mut r).map_err(|e| e.to_string())?;
    let t_head = Instant::now();
    match head {
        ResponseHead::Stream { cache_hit, .. } => {
            payload.clear();
            copy_stream(&mut r, payload).map_err(|e| e.to_string())?;
            let t_end = Instant::now();
            let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
            Ok(Sample {
                ttfb_ms: ms(t_send, t_head),
                stream_ms: ms(t_head, t_end),
                total_ms: ms(t0, t_end),
                cache_hit,
                ..Sample::default()
            })
        }
        ResponseHead::Error { code } => {
            let msg = read_error_message(&mut r).unwrap_or_default();
            Err(format!("{}: {msg}", code.name()))
        }
        ResponseHead::Stats(_) => Err("stats reply to a sample request".to_string()),
    }
}

/// The offline bytes of every distinct request, and the offline time of
/// each warm one: the same (circuit, seed, range) streamed locally through
/// the same format sink.
struct Reference {
    bytes: HashMap<Req, Vec<u8>>,
    offline_ms: HashMap<Req, f64>,
}

fn reference(inputs: &Inputs) -> Reference {
    let mut by_circuit: HashMap<Option<usize>, Vec<Req>> = HashMap::new();
    for r in &inputs.schedule {
        let reqs = by_circuit.entry(r.circuit).or_default();
        if !reqs.contains(r) {
            reqs.push(*r);
        }
    }
    let mut out = Reference {
        bytes: HashMap::new(),
        offline_ms: HashMap::new(),
    };
    for (circuit, reqs) in by_circuit {
        let text = circuit.map_or(&inputs.base, |k| &inputs.colds[k]);
        let sampler = build_sampler(&parse(text), &config(EngineKind::SymPhase, 0))
            .expect("generated circuits build");
        for r in reqs {
            let reps = if circuit.is_none() { 5 } else { 1 };
            let mut times = Vec::new();
            let mut bytes = Vec::new();
            for _ in 0..reps {
                bytes.clear();
                let t = Instant::now();
                chunk_bytes(&*sampler, inputs, &r, &mut bytes);
                times.push(t.elapsed().as_secs_f64() * 1e3);
            }
            out.offline_ms.insert(r, median(&times));
            out.bytes.insert(r, bytes);
        }
    }
    out
}

fn chunk_bytes(sampler: &dyn Sampler, inputs: &Inputs, r: &Req, out: &mut Vec<u8>) {
    let start = r.start as usize;
    let mut sink = inputs.format.sink(out, r.source);
    stream_range_with_config(
        sampler,
        start,
        start + CHUNK_SHOTS,
        &config(EngineKind::SymPhase, r.seed),
        sink.as_mut(),
    )
    .expect("in-memory sink");
}

/// Everything one serve run measured.
struct Outcome {
    setup_s: f64,
    samples: Vec<Sample>,
    shots: u64,
    wall: f64,
    before: StatsReply,
    after: StatsReply,
    rss_mb: f64,
    tally: Tally,
    reference: Reference,
}

/// Times `n` daemon set-ups: spawn until the first STATS answer.
fn timed_spawns(n: usize) -> io::Result<Vec<f64>> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            let daemon = Daemon::spawn()?;
            let s = t.elapsed().as_secs_f64();
            drop(daemon);
            Ok(s)
        })
        .collect()
}

/// Client connections: two, or fewer on a smaller machine.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Runs `inputs.schedule` against a fresh daemon from closed-loop
/// clients: once through, or — with `cycle_seconds` — cyclically until
/// that many seconds have passed.
fn run_schedule(inputs: &Inputs, cycle_seconds: Option<f64>) -> io::Result<Outcome> {
    let reference = reference(inputs);
    let base = parse(&inputs.base);
    let base_hash = circuit_hash(&base);
    let requests: Vec<Request> = inputs
        .schedule
        .iter()
        .map(|r| {
            Request::Sample(SampleRequest {
                circuit: match r.circuit {
                    None => CircuitRef::Hash(base_hash),
                    Some(k) => CircuitRef::Text(inputs.colds[k].clone()),
                },
                engine: EngineKind::SymPhase,
                source: r.source,
                format: inputs.format,
                seed: r.seed,
                start: r.start,
                end: r.start + CHUNK_SHOTS as u64,
            })
        })
        .collect();

    // Set-up: spawn → first STATS answered, repeated; keep the last.
    let mut setups = timed_spawns(15)?;
    let daemon = Daemon::spawn()?;

    // Warm-up: send the base circuit's text once so hashes resolve.
    let mut tally = Tally::default();
    let first = inputs
        .schedule
        .iter()
        .position(|r| r.circuit.is_none())
        .expect("schedules hold base requests");
    let Request::Sample(mut warmup) = requests[first].clone() else {
        unreachable!("sample requests only")
    };
    warmup.circuit = CircuitRef::Text(inputs.base.clone());
    let mut payload = Vec::new();
    let ok = send(daemon.addr, &Request::Sample(warmup), &mut payload).is_ok()
        && payload == reference.bytes[&inputs.schedule[first]];
    tally.check(ok, || "warm-up request failed".to_string());

    let before = daemon.stats()?;
    let n = requests.len();
    let clients = clients();
    let start = Instant::now();
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (requests, reference, addr) = (&requests, &reference, daemon.addr);
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut payload = Vec::new();
                    let mut i = c;
                    loop {
                        match cycle_seconds {
                            Some(limit) if start.elapsed().as_secs_f64() >= limit => break,
                            None if i >= n => break,
                            _ => {}
                        }
                        let index = i % n;
                        out.push(match send(addr, &requests[index], &mut payload) {
                            Ok(sample) => Sample {
                                ok: payload == reference.bytes[&inputs.schedule[index]],
                                index,
                                ..sample
                            },
                            Err(e) => {
                                eprintln!("request {index} failed: {e}");
                                Sample {
                                    index,
                                    ..Sample::default()
                                }
                            }
                        });
                        i += clients;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let after = daemon.stats()?;
    let rss_mb = crate::report::peak_rss_mb(Some(daemon.child.id()))?;
    drop(daemon);
    setups.extend(timed_spawns(15)?);

    let samples: Vec<Sample> = per_client.into_iter().flatten().collect();
    let mut shots = 0;
    for s in &samples {
        tally.check(s.ok, || format!("request {} failed or mismatched", s.index));
        shots += if s.ok { CHUNK_SHOTS as u64 } else { 0 };
    }
    Ok(Outcome {
        setup_s: median(&setups),
        samples,
        shots,
        wall,
        before,
        after,
        rss_mb,
        tally,
        reference,
    })
}

fn ms_of(
    samples: &[Sample],
    pick: impl Fn(&Sample) -> bool,
    f: impl Fn(&Sample) -> f64,
) -> Vec<f64> {
    samples.iter().filter(|s| pick(s)).map(f).collect()
}

/// The untraced `serve_mix` run: the schedule cycled for `seconds`.
pub fn run(inputs: &Inputs, seconds: f64, metrics: &mut Metrics) -> io::Result<Tally> {
    let o = run_schedule(inputs, Some(seconds))?;
    // Failed requests count in `failed`, not in the latency sample.
    let lat = ms_of(&o.samples, |s| s.ok, |s| s.total_ms);
    log_latency("request latency", &lat);
    metrics.put("setup_s", o.setup_s, "s");
    metrics.put("shots_per_s", o.shots as f64 / o.wall, "shots/s");
    metrics.put("peak_rss_mb", o.rss_mb, "MB");
    metrics.put("req_p50_ms", median(&lat), "ms");
    metrics.put("req_p99_ms", quantile(&lat, 0.99), "ms");
    Ok(o.tally)
}

/// The traced run's `serve` layer: the schedule once through (cycled for
/// `cycle_seconds` on `serve_mix`), split into queue-to-first-byte and
/// streaming, warm and cold.
pub fn trace(
    inputs: &Inputs,
    cycle_seconds: Option<f64>,
    metrics: &mut Metrics,
) -> io::Result<Tally> {
    let o = run_schedule(inputs, cycle_seconds)?;
    let ttfb = ms_of(&o.samples, |s| s.ok, |s| s.ttfb_ms);
    let warm = ms_of(&o.samples, |s| s.ok && s.cache_hit, |s| s.total_ms);
    let cold = ms_of(&o.samples, |s| s.ok && !s.cache_hit, |s| s.total_ms);
    let overhead = ms_of(
        &o.samples,
        |s| s.ok && s.cache_hit,
        |s| s.total_ms / o.reference.offline_ms[&inputs.schedule[s.index]],
    );
    let coverage = ms_of(
        &o.samples,
        |s| s.ok,
        |s| (s.ttfb_ms + s.stream_ms) / s.total_ms,
    );
    log_latency("time to first byte", &ttfb);
    eprintln!(
        "warm requests: {}, cold requests: {}",
        warm.len(),
        cold.len()
    );
    let (hits, misses) = (
        o.after.hits - o.before.hits,
        o.after.misses - o.before.misses,
    );
    metrics.put("serve.requests", o.samples.len() as f64, "count");
    metrics.put("serve.ttfb_ms_p50", median(&ttfb), "ms");
    metrics.put("serve.ttfb_ms_p99", quantile(&ttfb, 0.99), "ms");
    metrics.put("serve.warm_ms_p50", median(&warm), "ms");
    metrics.put("serve.cold_ms_p50", median(&cold), "ms");
    metrics.put(
        "serve.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    metrics.put("serve.entries", o.after.entries as f64, "count");
    metrics.put("serve.busy", (o.after.busy - o.before.busy) as f64, "count");
    metrics.put("serve.overhead_ratio", median(&overhead), "ratio");
    metrics.put("trace.request_coverage", median(&coverage), "ratio");
    Ok(o.tally)
}
