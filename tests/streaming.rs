//! The streaming-equality suite: the acceptance contract of the
//! `ShotSink` sampling API.
//!
//! For **every** engine:
//!
//! * `stream_with_config` into a collecting sink equals `collect`
//!   bit-for-bit (the batch API *is* the streaming API plus an in-memory
//!   sink);
//! * a threaded stream equals the serial stream for equal seeds,
//!   whatever the thread budget, and presents chunks to the sink in
//!   schedule order;
//! * a zero-shot request produces a well-formed empty stream.
//!
//! Plus the `SimConfig`-driven construction path: every engine builds
//! through `build_sampler` and misconfigurations fail with typed
//! diagnostics before any sampling.

use symphase::backend::{build_sampler, BuildError, EngineKind, SimConfig};
use symphase::prelude::*;
use symphase::sampler_api::{CollectSink, CountingSink, CHUNK_SHOTS};

/// The default (serial) configuration with `seed`.
fn seeded(seed: u64) -> SimConfig {
    SimConfig::new().with_seed(seed)
}

/// A small noisy QEC workload every engine (including the ≤22-qubit
/// state-vector ground truth) can run, with measurements, detectors, and
/// observables all nonempty.
fn small_circuit() -> Circuit {
    use symphase::circuit::generators::{repetition_code_memory, RepetitionCodeConfig};
    repetition_code_memory(&RepetitionCodeConfig {
        distance: 3,
        rounds: 2,
        data_error: 0.1,
        measure_error: 0.05,
    })
}

/// A deeper workload for the fast engines: enough shots to cross several
/// chunk boundaries without making the per-shot engines crawl.
fn fast_engines() -> Vec<EngineKind> {
    vec![EngineKind::SymPhase, EngineKind::Frame]
}

fn build(kind: EngineKind, circuit: &Circuit) -> Box<dyn Sampler> {
    build_sampler(circuit, &SimConfig::new().with_engine(kind)).expect("engine builds")
}

#[test]
fn collecting_sink_equals_collect_on_every_engine() {
    let circuit = small_circuit();
    for kind in EngineKind::ALL {
        let sampler = build(kind, &circuit);
        for shots in [0usize, 1, 63, 64, 65, 257] {
            let batch = collect(sampler.as_ref(), shots, &seeded(0xABCD));
            let mut sink = CollectSink::new();
            stream_with_config(sampler.as_ref(), shots, &seeded(0xABCD), &mut sink).unwrap();
            assert_eq!(
                sink.into_batch(),
                batch,
                "{} diverged at {shots} shots",
                kind.name()
            );
        }
    }
}

#[test]
fn parallel_stream_equals_serial_on_every_engine() {
    let circuit = small_circuit();
    for kind in EngineKind::ALL {
        let sampler = build(kind, &circuit);
        let shots = 200;
        let serial = collect(sampler.as_ref(), shots, &seeded(7));
        for threads in [2, 3, 8] {
            let mut sink = CollectSink::new();
            let cfg = seeded(7).with_threads(threads);
            stream_with_config(sampler.as_ref(), shots, &cfg, &mut sink).unwrap();
            assert_eq!(
                sink.into_batch(),
                serial,
                "{} diverged with {threads} threads",
                kind.name()
            );
        }
    }
}

#[test]
fn multi_chunk_streams_agree_across_paths_on_fast_engines() {
    let circuit = small_circuit();
    let shots = 2 * CHUNK_SHOTS + 100;
    for kind in fast_engines() {
        let sampler = build(kind, &circuit);
        let serial = collect(sampler.as_ref(), shots, &seeded(99));
        // Streaming serial.
        let mut sink = CollectSink::new();
        stream_with_config(sampler.as_ref(), shots, &seeded(99), &mut sink).unwrap();
        assert_eq!(sink.into_batch(), serial, "{} serial stream", kind.name());
        // Streaming parallel with budgets that do and don't divide the
        // chunk count.
        for threads in [2, 3] {
            let mut sink = CollectSink::new();
            let cfg = seeded(99).with_threads(threads);
            stream_with_config(sampler.as_ref(), shots, &cfg, &mut sink).unwrap();
            assert_eq!(
                sink.into_batch(),
                serial,
                "{} par stream ({threads} threads)",
                kind.name()
            );
        }
        // Collecting on every core is the same machinery.
        assert_eq!(
            collect(sampler.as_ref(), shots, &seeded(99).with_threads(0)),
            serial
        );
    }
}

#[test]
fn config_thread_budgets_1_2_8_are_bit_identical_on_every_engine() {
    // The work-stealing pool must leave the chunk-seeded schedule
    // untouched: for every engine, the configured thread budget (the
    // `--threads` flag) changes wall-clock only — the sink sees the same
    // bytes at 1, 2, and 8 threads.
    let circuit = small_circuit();
    for kind in EngineKind::ALL {
        let sampler = build(kind, &circuit);
        let mut reference = None;
        for threads in [1usize, 2, 8] {
            let cfg = SimConfig::new()
                .with_seed(0x5EED)
                .with_chunk_shots(64)
                .with_threads(threads);
            let mut sink = CollectSink::new();
            stream_with_config(sampler.as_ref(), 300, &cfg, &mut sink).unwrap();
            let batch = sink.into_batch();
            match &reference {
                None => reference = Some(batch),
                Some(expected) => assert_eq!(
                    &batch,
                    expected,
                    "{} diverged at {threads} threads",
                    kind.name()
                ),
            }
        }
    }
}

#[test]
fn streams_deliver_chunks_in_schedule_order() {
    struct OrderSink {
        next_start: usize,
        max_chunk: usize,
    }
    impl ShotSink for OrderSink {
        fn chunk(&mut self, chunk: &SampleBatch, start: usize) -> std::io::Result<()> {
            assert_eq!(start, self.next_start, "out-of-order chunk");
            self.next_start += chunk.shots();
            self.max_chunk = self.max_chunk.max(chunk.shots());
            Ok(())
        }
    }
    let circuit = small_circuit();
    let sampler = build(EngineKind::SymPhase, &circuit);
    let shots = 3 * CHUNK_SHOTS + 7;
    for threads in [1, 2, 5] {
        let mut sink = OrderSink {
            next_start: 0,
            max_chunk: 0,
        };
        let cfg = seeded(3).with_threads(threads);
        stream_with_config(sampler.as_ref(), shots, &cfg, &mut sink).unwrap();
        assert_eq!(sink.next_start, shots);
        // The memory contract: no delivery ever exceeds one chunk.
        assert_eq!(sink.max_chunk, CHUNK_SHOTS);
    }
}

#[test]
fn explicit_chunk_width_changes_schedule_but_not_totals() {
    let circuit = small_circuit();
    let sampler = build(EngineKind::SymPhase, &circuit);
    let narrow_cfg = seeded(5).with_chunk_shots(128);
    let mut narrow = CountingSink::default();
    stream_with_config(sampler.as_ref(), 1000, &narrow_cfg, &mut narrow).unwrap();
    assert_eq!(narrow.shots, 1000);
    assert_eq!(narrow.chunks, 8); // ⌈1000 / 128⌉
                                  // Same custom width in parallel: bit-identical to its own serial run.
    let mut a = CollectSink::new();
    let mut b = CollectSink::new();
    stream_with_config(sampler.as_ref(), 1000, &narrow_cfg, &mut a).unwrap();
    let threaded_cfg = narrow_cfg.clone().with_threads(3);
    stream_with_config(sampler.as_ref(), 1000, &threaded_cfg, &mut b).unwrap();
    let a = a.into_batch();
    assert_eq!(&a, &b.into_batch());
    // A config built from scratch with the same knobs gives the same
    // bytes, serial and threaded.
    for threads in [1, 3] {
        let cfg = SimConfig::new()
            .with_seed(5)
            .with_chunk_shots(128)
            .with_threads(threads);
        let mut c = CollectSink::new();
        stream_with_config(sampler.as_ref(), 1000, &cfg, &mut c).unwrap();
        assert_eq!(&a, &c.into_batch(), "{threads} threads");
    }
    let mut counted = CountingSink::default();
    let cfg = SimConfig::new().with_chunk_shots(128);
    stream_with_config(sampler.as_ref(), 1000, &cfg, &mut counted).unwrap();
    assert_eq!(
        counted.chunks, 8,
        "configured width must drive the schedule"
    );
}

#[test]
fn zero_shots_stream_empty_everywhere() {
    let circuit = small_circuit();
    for kind in EngineKind::ALL {
        let sampler = build(kind, &circuit);
        let mut counting = CountingSink::default();
        stream_with_config(sampler.as_ref(), 0, &seeded(1), &mut counting).unwrap();
        assert_eq!(counting.shots, 0);
        assert_eq!(counting.chunks, 0);
        let batch = collect(sampler.as_ref(), 0, &seeded(1));
        assert_eq!(batch.shots(), 0);
        assert_eq!(batch.measurements.rows(), sampler.num_measurements());
    }
}

#[test]
fn config_seed_controls_the_stream() {
    let circuit = small_circuit();
    let cfg = SimConfig::new().with_seed(123);
    let sampler = build_sampler(&circuit, &cfg).unwrap();
    let a = collect(sampler.as_ref(), 500, &cfg);
    let b = collect(sampler.as_ref(), 500, &cfg);
    let c = collect(sampler.as_ref(), 500, &seeded(cfg.seed() + 1));
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn misconfigurations_fail_with_typed_errors() {
    let circuit = small_circuit();
    let cfg = SimConfig::new().with_chunk_shots(100);
    assert!(matches!(
        build_sampler(&circuit, &cfg),
        Err(BuildError::InvalidChunkShots { got: 100 })
    ));
}

#[test]
fn sampling_methods_agree_through_the_config_path() {
    // The chunk-seeded stream must be method-independent: every pinned
    // kernel streams the factory-built engine's bytes.
    let circuit = small_circuit();
    let reference = build_sampler(&circuit, &SimConfig::new()).unwrap();
    let expected = collect(reference.as_ref(), 300, &seeded(11));
    for method in SamplingMethod::ALL {
        let sampler = SymPhaseSampler::with_config(&circuit, PhaseRepr::Auto, method);
        assert_eq!(
            collect(&sampler, 300, &seeded(11)),
            expected,
            "method {} diverged",
            method.name()
        );
    }
}
