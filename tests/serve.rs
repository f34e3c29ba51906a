//! Loopback end-to-end tests for `symphase serve`: the determinism
//! contract of the sampling daemon.
//!
//! The wire promise under test: the payload bytes for a
//! (circuit, engine, seed, range, format, source) are **identical**
//! whether computed locally, served by one worker, or sharded across
//! concurrent clients — and a warm cache serves them without
//! re-initializing (hit counter pinned).

use std::sync::Arc;

use symphase::backend::{build_sampler, EngineKind, SimConfig};
use symphase::circuit::generators::{repetition_code_memory, RepetitionCodeConfig};
use symphase::prelude::*;
use symphase::sampler_api::formats::{RecordSource, SampleFormat};
use symphase::sampler_api::stream_range_with_config;
use symphase::serve::{
    request_sample, request_stats, CircuitRef, ClientError, ErrorCode, HeldConnection, LintGate,
    SampleRequest, SamplerFactory, ServeOptions, Server, ServerHandle,
};

/// A small noisy QEC workload every engine (including the ≤22-qubit
/// state-vector ground truth) can run, with measurements, detectors, and
/// observables all nonempty.
fn small_circuit() -> Circuit {
    repetition_code_memory(&RepetitionCodeConfig {
        distance: 3,
        rounds: 2,
        data_error: 0.1,
        measure_error: 0.05,
    })
}

/// A structurally different circuit (distinct content hash).
fn other_circuit() -> Circuit {
    repetition_code_memory(&RepetitionCodeConfig {
        distance: 5,
        rounds: 3,
        data_error: 0.02,
        measure_error: 0.01,
    })
}

fn factory() -> SamplerFactory {
    Arc::new(build_sampler)
}

fn start(options: ServeOptions, lint: Option<LintGate>) -> ServerHandle {
    Server::bind("127.0.0.1:0", options, factory(), lint)
        .expect("bind loopback")
        .spawn()
}

/// The offline reference: what the local chunk loop + the format sink produce
/// for the same (circuit, engine, seed, range, format, source).
#[allow(clippy::too_many_arguments)]
fn local_bytes(
    circuit: &Circuit,
    engine: EngineKind,
    seed: u64,
    start: usize,
    end: usize,
    chunk_shots: usize,
    format: SampleFormat,
    source: RecordSource,
) -> Vec<u8> {
    let config = SimConfig::new()
        .with_engine(engine)
        .with_seed(seed)
        .with_chunk_shots(chunk_shots);
    let sampler = build_sampler(circuit, &config).expect("engine builds");
    let mut bytes = Vec::new();
    {
        let mut sink = format.sink(&mut bytes, source);
        stream_range_with_config(&*sampler, start, end, &config, sink.as_mut()).unwrap();
    }
    bytes
}

fn sample_request(
    circuit: CircuitRef,
    engine: EngineKind,
    format: SampleFormat,
    source: RecordSource,
    seed: u64,
    start: u64,
    end: u64,
) -> SampleRequest {
    SampleRequest {
        circuit,
        engine,
        source,
        format,
        seed,
        start,
        end,
    }
}

fn fetch(
    addr: std::net::SocketAddr,
    req: &SampleRequest,
) -> (symphase::serve::SampleReply, Vec<u8>) {
    let mut bytes = Vec::new();
    let reply = request_sample(addr, req, &mut bytes).expect("sample request succeeds");
    assert_eq!(reply.bytes, bytes.len() as u64);
    (reply, bytes)
}

#[test]
fn server_bytes_equal_local_bytes_on_every_engine() {
    // Multi-chunk coverage cheap enough for the per-shot ground-truth
    // engines: a narrow server chunk width, 600 shots = 3 chunks.
    let chunk = 256;
    let shots = 2 * chunk + 88;
    let handle = start(
        ServeOptions {
            chunk_shots: chunk,
            threads: 2, // the server fans out; bytes must not change
            ..ServeOptions::default()
        },
        None,
    );
    let circuit = small_circuit();
    let text = circuit.to_string();
    for engine in EngineKind::ALL {
        let req = sample_request(
            CircuitRef::Text(text.clone()),
            engine,
            SampleFormat::B8,
            RecordSource::Measurements,
            0xDAC2024,
            0,
            shots as u64,
        );
        let (reply, bytes) = fetch(handle.addr(), &req);
        assert_eq!(reply.shots, shots as u64, "{}", engine.name());
        let expected = local_bytes(
            &circuit,
            engine,
            0xDAC2024,
            0,
            shots,
            chunk,
            SampleFormat::B8,
            RecordSource::Measurements,
        );
        assert_eq!(
            bytes,
            expected,
            "{} diverged from local bytes",
            engine.name()
        );
    }
    // Formats beyond b8, on one engine: text, hits, and detector streams.
    for (format, source) in [
        (SampleFormat::Plain01, RecordSource::Measurements),
        (SampleFormat::Hits, RecordSource::Measurements),
        (SampleFormat::Dets, RecordSource::DetectorsAndObservables),
        (SampleFormat::B8, RecordSource::Detectors),
    ] {
        let req = sample_request(
            CircuitRef::Text(text.clone()),
            EngineKind::SymPhase,
            format,
            source,
            7,
            0,
            shots as u64,
        );
        let (_, bytes) = fetch(handle.addr(), &req);
        let expected = local_bytes(
            &circuit,
            EngineKind::SymPhase,
            7,
            0,
            shots,
            chunk,
            format,
            source,
        );
        assert_eq!(bytes, expected, "{:?}/{:?} diverged", format, source);
    }
    handle.shutdown().unwrap();
}

#[test]
fn range_shards_concatenate_to_one_full_request() {
    // Two clients asking for [0, N) and [N, 2N) must together produce
    // exactly the bytes of one client asking for [0, 2N) — at the
    // daemon's production chunk width.
    let n = symphase::sampler_api::CHUNK_SHOTS as u64;
    let handle = start(ServeOptions::default(), None);
    let circuit = small_circuit();
    let text = circuit.to_string();
    let req = |start: u64, end: u64| {
        sample_request(
            CircuitRef::Text(text.clone()),
            EngineKind::SymPhase,
            SampleFormat::B8,
            RecordSource::Measurements,
            42,
            start,
            end,
        )
    };
    let (_, low) = fetch(handle.addr(), &req(0, n));
    let (_, high) = fetch(handle.addr(), &req(n, 2 * n));
    let (_, full) = fetch(handle.addr(), &req(0, 2 * n));
    let mut stitched = low;
    stitched.extend_from_slice(&high);
    assert_eq!(stitched, full, "shards must concatenate bit-for-bit");
    let expected = local_bytes(
        &circuit,
        EngineKind::SymPhase,
        42,
        0,
        2 * n as usize,
        n as usize,
        SampleFormat::B8,
        RecordSource::Measurements,
    );
    assert_eq!(full, expected, "full run must equal offline bytes");
    handle.shutdown().unwrap();
}

#[test]
fn concurrent_clients_on_different_circuits_both_hit_the_cache() {
    let handle = start(
        ServeOptions {
            workers: 4,
            chunk_shots: 256,
            ..ServeOptions::default()
        },
        None,
    );
    let addr = handle.addr();
    let texts = [small_circuit().to_string(), other_circuit().to_string()];
    let round = |expect_hit: bool| {
        std::thread::scope(|s| {
            let handles: Vec<_> = texts
                .iter()
                .map(|text| {
                    s.spawn(move || {
                        let req = sample_request(
                            CircuitRef::Text(text.clone()),
                            EngineKind::SymPhase,
                            SampleFormat::B8,
                            RecordSource::Measurements,
                            1,
                            0,
                            512,
                        );
                        let mut bytes = Vec::new();
                        let reply =
                            request_sample(addr, &req, &mut bytes).expect("request succeeds");
                        (reply, bytes)
                    })
                })
                .collect();
            for h in handles {
                let (reply, bytes) = h.join().expect("client thread");
                assert_eq!(reply.cache_hit, expect_hit);
                assert!(!bytes.is_empty());
            }
        })
    };
    round(false); // cold: both circuits build
    round(true); // warm: both circuits served from cache
    let stats = request_stats(addr).expect("stats over the wire");
    assert_eq!(stats.misses, 2, "one miss per circuit");
    assert_eq!(stats.hits, 2, "one hit per circuit on the warm round");
    assert_eq!(stats.entries, 2);
    assert_eq!(handle.stats().hits, 2);
    handle.shutdown().unwrap();
}

#[test]
fn four_concurrent_clients_agree_with_local_bytes() {
    let chunk = 256;
    let shots = 4 * chunk;
    let handle = start(
        ServeOptions {
            workers: 4,
            chunk_shots: chunk,
            ..ServeOptions::default()
        },
        None,
    );
    let addr = handle.addr();
    let circuit = small_circuit();
    let text = circuit.to_string();
    // Each client takes one quarter of the schedule; together they tile
    // the local full run exactly.
    let expected = local_bytes(
        &circuit,
        EngineKind::SymPhase,
        9,
        0,
        shots,
        chunk,
        SampleFormat::B8,
        RecordSource::Measurements,
    );
    let quarter = expected.len() / 4;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let text = &text;
                s.spawn(move || {
                    let req = sample_request(
                        CircuitRef::Text(text.clone()),
                        EngineKind::SymPhase,
                        SampleFormat::B8,
                        RecordSource::Measurements,
                        9,
                        (i * chunk) as u64,
                        ((i + 1) * chunk) as u64,
                    );
                    let mut bytes = Vec::new();
                    request_sample(addr, &req, &mut bytes).expect("request succeeds");
                    (i, bytes)
                })
            })
            .collect();
        for h in handles {
            let (i, bytes) = h.join().expect("client thread");
            assert_eq!(
                bytes,
                &expected[i * quarter..(i + 1) * quarter],
                "client {i} shard diverged"
            );
        }
    });
    handle.shutdown().unwrap();
}

#[test]
fn by_hash_requests_reuse_an_uploaded_circuit() {
    let handle = start(
        ServeOptions {
            chunk_shots: 256,
            ..ServeOptions::default()
        },
        None,
    );
    let circuit = small_circuit();
    let hash = symphase::serve::circuit_hash(&circuit);
    // Before any upload: the hash is unknown (typed error, not a miss).
    let by_hash = sample_request(
        CircuitRef::Hash(hash),
        EngineKind::SymPhase,
        SampleFormat::B8,
        RecordSource::Measurements,
        3,
        0,
        512,
    );
    match request_sample(handle.addr(), &by_hash, &mut Vec::new()) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownHash),
        other => panic!("expected UnknownHash, got {other:?}"),
    }
    // Upload by text once…
    let by_text = SampleRequest {
        circuit: CircuitRef::Text(circuit.to_string()),
        ..by_hash.clone()
    };
    let (reply, text_bytes) = fetch(handle.addr(), &by_text);
    assert!(!reply.cache_hit);
    // …then the bare hash serves the identical bytes, warm.
    let (reply, hash_bytes) = fetch(handle.addr(), &by_hash);
    assert!(reply.cache_hit, "by-hash request must be a cache hit");
    assert_eq!(hash_bytes, text_bytes);
    let stats = handle.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    handle.shutdown().unwrap();
}

#[test]
fn busy_backpressure_fires_when_queue_and_workers_are_full() {
    let handle = start(
        ServeOptions {
            workers: 1,
            max_queue: 1,
            read_timeout: Some(std::time::Duration::from_secs(2)),
            ..ServeOptions::default()
        },
        None,
    );
    let addr = handle.addr();
    // Waits until `ready` holds; the daemon's gauges, not sleeps, order
    // the hogs, so a slow runner cannot reject one before the other.
    let wait_for = |what: &str, ready: &dyn Fn() -> bool| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !ready() {
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {what}"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    };
    // Occupy the single worker: a connection that never sends a request.
    let worker_hog = HeldConnection::open(addr).unwrap();
    wait_for("the worker to take the first hog", &|| {
        handle.in_flight() == 1
    });
    // Occupy the single queue slot the same way.
    let queue_hog = HeldConnection::open(addr).unwrap();
    wait_for("the second hog to be queued", &|| handle.queued() == 1);
    // Every further request is rejected at admission with a typed BUSY
    // frame, never a transport error.
    let req = sample_request(
        CircuitRef::Text(small_circuit().to_string()),
        EngineKind::SymPhase,
        SampleFormat::B8,
        RecordSource::Measurements,
        0,
        0,
        256,
    );
    for attempt in 0..20 {
        match request_sample(addr, &req, &mut Vec::new()) {
            Err(e) => assert!(e.is_busy(), "attempt {attempt}: expected BUSY, got {e}"),
            Ok(_) => panic!("request must be rejected while the queue is full"),
        }
    }
    assert!(
        handle.stats().busy >= 20,
        "busy counter must record every rejection"
    );
    // Free the worker and the queue slot; the daemon recovers.
    drop(worker_hog);
    drop(queue_hog);
    for _ in 0..50 {
        if request_sample(addr, &req, &mut Vec::new()).is_ok() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let (_, bytes) = fetch(addr, &req);
    assert!(!bytes.is_empty(), "daemon must recover after backpressure");
    handle.shutdown().unwrap();
}

#[test]
fn typed_error_frames_cover_the_rejection_paths() {
    let handle = start(
        ServeOptions {
            chunk_shots: 256,
            ..ServeOptions::default()
        },
        None,
    );
    let addr = handle.addr();
    let text = small_circuit().to_string();
    let base = sample_request(
        CircuitRef::Text(text.clone()),
        EngineKind::SymPhase,
        SampleFormat::B8,
        RecordSource::Measurements,
        0,
        0,
        512,
    );
    let expect_code =
        |req: &SampleRequest, want: ErrorCode| match request_sample(addr, req, &mut Vec::new()) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, want, "message: {message}");
                assert!(!message.is_empty());
            }
            other => panic!("expected {want:?}, got {other:?}"),
        };
    // Circuit text that does not parse.
    expect_code(
        &SampleRequest {
            circuit: CircuitRef::Text("NOT_A_GATE 0\n".into()),
            ..base.clone()
        },
        ErrorCode::Parse,
    );
    // Unaligned range start (256-wide chunks on this server).
    expect_code(
        &SampleRequest {
            start: 100,
            end: 612,
            ..base.clone()
        },
        ErrorCode::BadRange,
    );
    // Inverted range.
    expect_code(
        &SampleRequest {
            start: 512,
            end: 256,
            ..base.clone()
        },
        ErrorCode::BadRange,
    );
    // The aggregated counts format is not streamable.
    expect_code(
        &SampleRequest {
            format: SampleFormat::Counts,
            ..base.clone()
        },
        ErrorCode::Unsupported,
    );
    // An engine build failure surfaces as a typed Build error: the dense
    // ground-truth engine refuses >22 qubits.
    let wide: String = (0..40).map(|q| format!("H {q}\n")).collect::<String>() + "M 0\n";
    expect_code(
        &SampleRequest {
            circuit: CircuitRef::Text(wide),
            engine: EngineKind::StateVec,
            ..base.clone()
        },
        ErrorCode::Build,
    );
    // A circuit whose tableau is over the memory budget is refused the
    // same way, before anything allocates, and the daemon serves on.
    expect_code(
        &SampleRequest {
            circuit: CircuitRef::Text("H 1000000\nM 1000000\n".into()),
            ..base.clone()
        },
        ErrorCode::Build,
    );
    // So is a circuit with more symbols than a SymPhase build can index
    // (4·10⁹ here), counted from its statistics in well under a second.
    let t = std::time::Instant::now();
    expect_code(
        &SampleRequest {
            circuit: CircuitRef::Text("REPEAT 1000000000 {\nX_ERROR(0.1) 0 1 2 3\n}\nM 0\n".into()),
            ..base.clone()
        },
        ErrorCode::Build,
    );
    assert!(t.elapsed().as_secs_f64() < 1.0, "took {:?}", t.elapsed());
    let (_, bytes) = fetch(addr, &base);
    assert_eq!(
        bytes,
        local_bytes(
            &small_circuit(),
            EngineKind::SymPhase,
            0,
            0,
            512,
            256,
            SampleFormat::B8,
            RecordSource::Measurements,
        )
    );
    // Build failures are not cached: the same circuit still parses and
    // serves fine on an engine that supports it.
    let stats = handle.stats();
    assert_eq!(stats.hits, 0);
    handle.shutdown().unwrap();
}

#[test]
fn a_request_written_one_byte_at_a_time_is_served_byte_equal() {
    use std::io::Write;
    use symphase::serve::protocol::{copy_stream, read_response_head, write_request, ResponseHead};
    use symphase::serve::Request;

    let handle = start(ServeOptions::default(), None);
    let circuit = small_circuit();
    let req = sample_request(
        CircuitRef::Text(circuit.to_string()),
        EngineKind::SymPhase,
        SampleFormat::B8,
        RecordSource::Measurements,
        9,
        0,
        1000,
    );
    let mut wire = Vec::new();
    write_request(&mut wire, &Request::Sample(req)).unwrap();
    let mut conn = std::net::TcpStream::connect(handle.addr()).unwrap();
    conn.set_nodelay(true).unwrap();
    for byte in &wire {
        conn.write_all(std::slice::from_ref(byte)).unwrap();
    }
    let head = read_response_head(&mut conn).expect("a response");
    assert!(matches!(head, ResponseHead::Stream { .. }), "{head:?}");
    let mut bytes = Vec::new();
    copy_stream(&mut conn, &mut bytes).expect("a full stream");
    let chunk_shots = ServeOptions::default().chunk_shots;
    assert_eq!(
        bytes,
        local_bytes(
            &circuit,
            EngineKind::SymPhase,
            9,
            0,
            1000,
            chunk_shots,
            SampleFormat::B8,
            RecordSource::Measurements,
        )
    );
    handle.shutdown().unwrap();
}

#[test]
fn bind_rejects_a_chunk_width_every_request_would_fail_on() {
    for chunk_shots in [0, 100] {
        let options = ServeOptions {
            chunk_shots,
            ..ServeOptions::default()
        };
        let err = match Server::bind("127.0.0.1:0", options, factory(), None) {
            Err(err) => err,
            Ok(_) => panic!("chunk width {chunk_shots} must not bind"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(
            err.to_string().contains("multiple of 64"),
            "chunk width {chunk_shots}: {err}"
        );
    }
}

#[test]
fn lint_gate_rejects_at_admission_with_a_typed_frame() {
    // The gate `symphase serve --lint` installs.
    let handle = start(
        ServeOptions {
            chunk_shots: 256,
            ..ServeOptions::default()
        },
        Some(symphase::backend::lint_gate()),
    );
    // Linting initializes SymPhase, whose tableau here would take 250 GB:
    // the gate must not lint it, and the factory refuses it with a typed
    // Build frame before anything allocates. The daemon serves on.
    let huge = sample_request(
        CircuitRef::Text("H 1000000\nM 1000000\nDETECTOR rec[-1]\n".into()),
        EngineKind::SymPhase,
        SampleFormat::B8,
        RecordSource::Measurements,
        0,
        0,
        256,
    );
    match request_sample(handle.addr(), &huge, &mut Vec::new()) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Build, "message: {message}");
            assert!(message.contains("1000001 qubits"), "message: {message}");
        }
        other => panic!("expected a Build rejection, got {other:?}"),
    }
    // A qubit that is touched but never measured trips the analyzer.
    let req = sample_request(
        CircuitRef::Text("H 0\nH 1\nM 0\n".into()),
        EngineKind::SymPhase,
        SampleFormat::B8,
        RecordSource::Measurements,
        0,
        0,
        256,
    );
    match request_sample(handle.addr(), &req, &mut Vec::new()) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Lint);
            assert!(!message.is_empty());
        }
        other => panic!("expected a Lint rejection, got {other:?}"),
    }
    // A clean circuit passes the same gate.
    let clean = sample_request(
        CircuitRef::Text(small_circuit().to_string()),
        EngineKind::SymPhase,
        SampleFormat::B8,
        RecordSource::Measurements,
        0,
        0,
        256,
    );
    let (_, bytes) = fetch(handle.addr(), &clean);
    assert!(!bytes.is_empty());
    handle.shutdown().unwrap();
}

#[test]
fn a_panicking_request_gets_an_internal_frame_and_the_worker_survives() {
    // The injected factory panics on one marker circuit (41 qubits), and
    // builds normally otherwise. One worker: if the panic took it down,
    // or poisoned the cache lock it panicked under, nothing after would
    // be answered.
    let panicky: SamplerFactory = Arc::new(|circuit: &Circuit, config: &SimConfig| {
        assert!(
            circuit.num_qubits() != 41,
            "marker circuit reached the factory"
        );
        build_sampler(circuit, config)
    });
    let handle = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: 1,
            chunk_shots: 256,
            ..ServeOptions::default()
        },
        panicky,
        None,
    )
    .expect("bind loopback")
    .spawn();
    let addr = handle.addr();
    let marker = sample_request(
        CircuitRef::Text("H 40\nM 40\n".into()),
        EngineKind::SymPhase,
        SampleFormat::B8,
        RecordSource::Measurements,
        0,
        0,
        256,
    );
    for _ in 0..2 {
        match request_sample(addr, &marker, &mut Vec::new()) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::Internal);
                assert!(message.contains("marker circuit"), "message: {message}");
            }
            other => panic!("expected an Internal frame, got {other:?}"),
        }
    }
    let circuit = small_circuit();
    let good = sample_request(
        CircuitRef::Text(circuit.to_string()),
        EngineKind::SymPhase,
        SampleFormat::Dets,
        RecordSource::DetectorsAndObservables,
        5,
        0,
        600,
    );
    let (_, bytes) = fetch(addr, &good);
    let expected = local_bytes(
        &circuit,
        EngineKind::SymPhase,
        5,
        0,
        600,
        256,
        SampleFormat::Dets,
        RecordSource::DetectorsAndObservables,
    );
    assert_eq!(
        bytes, expected,
        "the surviving worker serves identical bytes"
    );
    assert_eq!(
        handle.stats().entries,
        1,
        "the panicked build cached nothing"
    );
    handle.shutdown().unwrap();
}
