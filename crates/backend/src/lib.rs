//! The shared sampler backend layer.
//!
//! Every simulator in this workspace — the SymPhase sampler
//! (`symphase-core`), the Pauli-frame baseline (`symphase-frame`), the
//! concrete tableau simulator (`symphase-tableau`), and the dense
//! state-vector ground truth (`symphase-statevec`) — implements the
//! [`Sampler`] trait defined here, producing the one bit-packed
//! [`SampleBatch`] type. The CLI, the benchmark harness, and the
//! cross-backend equivalence tests all select backends dynamically through
//! `Box<dyn Sampler>`, so adding an engine is implementing one trait.
//!
//! The crate also hosts the pieces the engines used to duplicate:
//!
//! * [`config`] — the [`SimConfig`] builder (engine kind, phase store,
//!   sampling method, seed, threads, chunk width) and the typed
//!   [`BuildError`] diagnostics of fallible sampler construction;
//! * [`sink`] — the streaming delivery layer: the [`ShotSink`] trait and
//!   the one chunk loop every sampling call runs,
//!   [`stream_range_with_config`];
//! * [`formats`] — `ShotSink`s serializing shots to any `io::Write` in
//!   the `01`, `counts`, `b8`, `hits`, and `dets` formats (spec in
//!   `docs/formats.md`);
//! * [`exec`] — the one circuit walk: [`exec::walk`] lowers every
//!   instruction to a gate, a Z measurement, a noise site or a feedback
//!   Pauli for any [`exec::Walker`] (SymPhase's Initialization, the frame
//!   sampler, and [`exec::run_shot`], the single-shot driver of the
//!   tableau and state-vector engines);
//! * [`noise`] — the noise draw every engine shares: one routine decides
//!   how a noise site consumes the RNG, and each engine only says where
//!   fired slots land ([`noise::FaultSink`]);
//! * [`record`] — detector/observable measurement-set resolution and
//!   record evaluation (moved here from the tableau crate so every layer,
//!   including the dense simulator, shares it).
//!
//! # Streaming, chunk-seeded, and parallel sampling
//!
//! [`stream_range_with_config`] is the one sampling entry point: it splits
//! a shot range into chunks of the configured width ([`CHUNK_SHOTS`] by
//! default), draws each chunk from an RNG seeded by
//! [`chunk_seed`]`(seed, chunk_index)`, and hands the chunks to a
//! [`ShotSink`] in schedule order — memory stays `O(threads × chunk)`
//! however many shots are requested. Chunks are drawn in waves across the
//! configured thread budget (out of order inside a wave, presented in
//! order), so every budget and every shard split agrees **shot for
//! shot** — parallelism and streaming never change results.
//! [`stream_with_config`] is the whole-request form and [`collect`]
//! gathers the stream into one in-memory batch.

use rand::RngCore;
use symphase_bitmat::BitMatrix;

pub mod config;
pub mod exec;
pub mod formats;
pub mod noise;
pub mod record;
pub mod sink;

pub use config::{BuildError, EngineKind, PhaseRepr, SamplingMethod, SimConfig};
pub use sink::{
    collect, stream_range_with_config, stream_with_config, CollectSink, CountingSink, FanoutSink,
    ShotSink, ShotSpec,
};

/// Shots per sampling chunk: a multiple of 64 (so chunk boundaries stay
/// word-aligned in the bit-packed output) that keeps per-chunk working
/// sets cache-resident.
pub const CHUNK_SHOTS: usize = 4096;

/// Samples of everything a shot batch produces, shot-aligned: column `j`
/// of each matrix belongs to the same assignment draw.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleBatch {
    /// `num_measurements × shots`.
    pub measurements: BitMatrix,
    /// `num_detectors × shots`.
    pub detectors: BitMatrix,
    /// `num_observables × shots`.
    pub observables: BitMatrix,
}

impl SampleBatch {
    /// An all-zero batch with the given row counts and `shots` columns.
    pub fn zeros(
        num_measurements: usize,
        num_detectors: usize,
        num_observables: usize,
        shots: usize,
    ) -> Self {
        Self {
            measurements: BitMatrix::zeros(num_measurements, shots),
            detectors: BitMatrix::zeros(num_detectors, shots),
            observables: BitMatrix::zeros(num_observables, shots),
        }
    }

    /// Number of shots (columns).
    pub fn shots(&self) -> usize {
        self.measurements.cols()
    }

    /// Zeroes every bit, keeping the shape (so a batch can be reused
    /// across [`Sampler::sample_into`] calls).
    pub fn clear(&mut self) {
        self.measurements.words_mut().fill(0);
        self.detectors.words_mut().fill(0);
        self.observables.words_mut().fill(0);
    }

    /// Copies every row of `chunk` into `self` starting at shot column
    /// `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a multiple of 64 or the chunk does not fit.
    pub fn paste_columns(&mut self, chunk: &SampleBatch, start: usize) {
        paste_matrix(&chunk.measurements, &mut self.measurements, start);
        paste_matrix(&chunk.detectors, &mut self.detectors, start);
        paste_matrix(&chunk.observables, &mut self.observables, start);
    }
}

/// Copies `src` (a shot window) into `dst` at word-aligned column `start`.
fn paste_matrix(src: &BitMatrix, dst: &mut BitMatrix, start: usize) {
    assert_eq!(start % 64, 0, "chunk starts must be word-aligned");
    assert_eq!(src.rows(), dst.rows(), "row count mismatch");
    assert!(start + src.cols() <= dst.cols(), "chunk does not fit");
    let word_off = start / 64;
    let sstride = src.stride();
    let dstride = dst.stride();
    for r in 0..src.rows() {
        let dst_row =
            &mut dst.words_mut()[r * dstride + word_off..r * dstride + word_off + sstride];
        dst_row.copy_from_slice(src.row(r));
    }
}

/// Derives the RNG seed of chunk `chunk` of a request seeded with `seed`
/// (SplitMix64 over the pair, so chunk streams are decorrelated).
pub fn chunk_seed(seed: u64, chunk: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(chunk.wrapping_mul(0xD129_0B22_96D4_D32F));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A measurement/detector/observable sampler over a fixed circuit: the one
/// interface all four simulation engines implement.
///
/// Implementors provide the record shape and [`Sampler::sample_into`];
/// deterministic chunk seeding, streaming delivery, and parallel sampling
/// live in one place on top of it, [`stream_range_with_config`]. The
/// trait is object-safe — the CLI and the bench harness hold backends as
/// `Box<dyn Sampler>`, built through `symphase::backend::build_sampler`
/// from a [`SimConfig`].
pub trait Sampler: Send + Sync {
    /// Short stable name (CLI `--engine` value, bench series label).
    fn name(&self) -> &'static str;

    /// Number of measurement outcomes per shot.
    fn num_measurements(&self) -> usize;

    /// Number of detectors per shot.
    fn num_detectors(&self) -> usize;

    /// Number of observables per shot.
    fn num_observables(&self) -> usize;

    /// Fills every column of `batch` with freshly drawn shots.
    ///
    /// `batch` must be shaped by [`SampleBatch::zeros`] with this
    /// sampler's row counts. Implementations overwrite all previous
    /// contents, so a batch may be reused across calls.
    fn sample_into(&self, batch: &mut SampleBatch, rng: &mut dyn RngCore);

    /// Samples `shots` shots from a caller-supplied RNG stream.
    fn sample(&self, shots: usize, rng: &mut dyn RngCore) -> SampleBatch {
        let mut batch = SampleBatch::zeros(
            self.num_measurements(),
            self.num_detectors(),
            self.num_observables(),
            shots,
        );
        self.sample_into(&mut batch, rng);
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default configuration with `seed`.
    fn seeded(seed: u64) -> SimConfig {
        SimConfig::new().with_seed(seed)
    }

    /// A deterministic fake engine: measurement `m` of shot `j` is
    /// `parity(rng_stream)`, so chunk seeding differences are visible.
    struct FakeSampler {
        nm: usize,
    }

    impl Sampler for FakeSampler {
        fn name(&self) -> &'static str {
            "fake"
        }

        fn num_measurements(&self) -> usize {
            self.nm
        }

        fn num_detectors(&self) -> usize {
            0
        }

        fn num_observables(&self) -> usize {
            0
        }

        fn sample_into(&self, batch: &mut SampleBatch, rng: &mut dyn RngCore) {
            for shot in 0..batch.shots() {
                for m in 0..self.nm {
                    let bit = rng.next_u64() & 1 == 1;
                    batch.measurements.set(m, shot, bit);
                }
            }
        }
    }

    #[test]
    fn chunk_schedule_covers_all_shots() {
        let spans: Vec<_> =
            sink::range_chunk_spans(0, CHUNK_SHOTS * 2 + 100, CHUNK_SHOTS).collect();
        assert_eq!(
            spans,
            vec![
                (0, CHUNK_SHOTS),
                (CHUNK_SHOTS, CHUNK_SHOTS),
                (2 * CHUNK_SHOTS, 100)
            ]
        );
        assert_eq!(sink::range_chunk_spans(0, 0, CHUNK_SHOTS).count(), 0);
        assert_eq!(
            sink::range_chunk_spans(0, 64, CHUNK_SHOTS).collect::<Vec<_>>(),
            vec![(0, 64)]
        );
        assert_eq!(
            sink::range_chunk_spans(0, 200, 128).collect::<Vec<_>>(),
            vec![(0, 128), (128, 72)]
        );
    }

    #[test]
    fn par_matches_seeded_bit_for_bit() {
        let s = FakeSampler { nm: 5 };
        for shots in [
            0,
            1,
            63,
            64,
            CHUNK_SHOTS,
            CHUNK_SHOTS + 1,
            3 * CHUNK_SHOTS + 7,
        ] {
            let a = collect(&s, shots, &seeded(0xFEED));
            let b = collect(&s, shots, &seeded(0xFEED).with_threads(0));
            assert_eq!(a, b, "mismatch at {shots} shots");
            // Force the threaded path regardless of the machine's core
            // count, with budgets that do and don't divide the chunks.
            for threads in [2, 3, 8] {
                let c = collect(&s, shots, &seeded(0xFEED).with_threads(threads));
                assert_eq!(a, c, "mismatch at {shots} shots / {threads} threads");
            }
        }
    }

    #[test]
    fn range_shards_reassemble_the_full_run_bit_for_bit() {
        let s = FakeSampler { nm: 5 };
        let cw = 64;
        let total = 4 * cw + 17; // final chunk is partial
        let seed = 0xB00F;
        let mut full = CollectSink::new();
        stream_with_config(&s, total, &seeded(seed).with_chunk_shots(cw), &mut full)
            .expect("in-memory");
        let full = full.into_batch();
        // Shard the run into chunk-aligned ranges (the serve daemon's
        // contract), draw each independently — serial and threaded — and
        // paste the shards back together: the reassembly must equal the
        // full local run byte for byte.
        for threads in [1, 3] {
            let mut pasted = SampleBatch::zeros(5, 0, 0, total);
            for (start, end) in [(0, cw), (cw, 3 * cw), (3 * cw, total)] {
                let mut out = CollectSink::new();
                let cfg = seeded(seed).with_chunk_shots(cw).with_threads(threads);
                stream_range_with_config(&s, start, end, &cfg, &mut out).expect("in-memory");
                let shard = out.into_batch();
                assert_eq!(shard.shots(), end - start);
                pasted.paste_columns(&shard, start);
            }
            assert_eq!(
                pasted, full,
                "shard reassembly mismatch at {threads} threads"
            );
        }
        // An empty range is a well-formed zero-shot stream.
        let mut empty = CollectSink::new();
        stream_range_with_config(&s, cw, cw, &seeded(seed).with_chunk_shots(cw), &mut empty)
            .expect("in-memory");
        assert_eq!(empty.into_batch().shots(), 0);
    }

    #[test]
    #[should_panic(expected = "multiple of the chunk width")]
    fn range_start_must_be_chunk_aligned() {
        let s = FakeSampler { nm: 1 };
        let mut out = CollectSink::new();
        let _ = stream_range_with_config(&s, 32, 128, &seeded(0).with_chunk_shots(64), &mut out);
    }

    #[test]
    fn streaming_sink_sees_chunks_in_schedule_order() {
        struct OrderCheck {
            began: bool,
            finished: bool,
            next_start: usize,
            chunks: usize,
        }
        impl ShotSink for OrderCheck {
            fn begin(&mut self, spec: &ShotSpec) -> std::io::Result<()> {
                assert!(!self.began);
                self.began = true;
                assert_eq!(spec.num_measurements, 3);
                Ok(())
            }
            fn chunk(&mut self, chunk: &SampleBatch, start: usize) -> std::io::Result<()> {
                assert!(self.began && !self.finished);
                assert_eq!(start, self.next_start, "chunks out of order");
                assert!(chunk.shots() <= CHUNK_SHOTS);
                self.next_start += chunk.shots();
                self.chunks += 1;
                Ok(())
            }
            fn finish(&mut self) -> std::io::Result<()> {
                self.finished = true;
                Ok(())
            }
        }
        let s = FakeSampler { nm: 3 };
        for threads in [1, 2, 5] {
            let mut sink = OrderCheck {
                began: false,
                finished: false,
                next_start: 0,
                chunks: 0,
            };
            stream_with_config(
                &s,
                3 * CHUNK_SHOTS + 70,
                &seeded(4).with_threads(threads),
                &mut sink,
            )
            .unwrap();
            assert!(sink.finished);
            assert_eq!(sink.next_start, 3 * CHUNK_SHOTS + 70);
            assert_eq!(sink.chunks, 4);
        }
        // Zero shots still produce a well-formed begin/finish envelope.
        let mut sink = OrderCheck {
            began: false,
            finished: false,
            next_start: 0,
            chunks: 0,
        };
        stream_with_config(&s, 0, &seeded(4), &mut sink).unwrap();
        assert!(sink.began && sink.finished);
        assert_eq!(sink.chunks, 0);
    }

    #[test]
    fn stream_concurrency_stays_within_thread_budget() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Counts concurrent `sample_into` calls and records the
        /// high-water mark.
        struct Gauge {
            nm: usize,
            live: AtomicUsize,
            high: AtomicUsize,
        }
        impl Sampler for Gauge {
            fn name(&self) -> &'static str {
                "gauge"
            }
            fn num_measurements(&self) -> usize {
                self.nm
            }
            fn num_detectors(&self) -> usize {
                0
            }
            fn num_observables(&self) -> usize {
                0
            }
            fn sample_into(&self, batch: &mut SampleBatch, rng: &mut dyn RngCore) {
                let live = self.live.fetch_add(1, Ordering::SeqCst) + 1;
                self.high.fetch_max(live, Ordering::SeqCst);
                // Give other lanes a chance to overlap.
                std::thread::sleep(std::time::Duration::from_millis(1));
                for m in 0..self.nm {
                    let word = rng.next_u64();
                    batch.measurements.set(m, 0, word & 1 == 1);
                }
                self.live.fetch_sub(1, Ordering::SeqCst);
            }
        }

        // A `SimConfig` thread budget of N must bound the in-flight
        // chunk draws to N, whatever the pool size: the chunk loop fans a
        // wave out over at most `threads` lanes.
        for budget in [1usize, 2, 4] {
            let gauge = Gauge {
                nm: 2,
                live: AtomicUsize::new(0),
                high: AtomicUsize::new(0),
            };
            let config = SimConfig::new().with_threads(budget);
            assert_eq!(config.threads(), budget, "budget must survive the config");
            let mut out = CountingSink::default();
            stream_with_config(&gauge, 16 * 64, &config.with_chunk_shots(64), &mut out).unwrap();
            assert_eq!(out.shots, 16 * 64);
            let high = gauge.high.load(Ordering::SeqCst);
            assert!(high >= 1, "sampler never ran");
            assert!(
                high <= budget,
                "budget {budget} exceeded: {high} concurrent draws"
            );
        }
    }

    #[test]
    fn sink_errors_abort_the_stream() {
        struct FailingSink {
            chunks_before_failure: usize,
            chunks_after_failure: usize,
        }
        impl ShotSink for FailingSink {
            fn chunk(&mut self, _chunk: &SampleBatch, _start: usize) -> std::io::Result<()> {
                if self.chunks_before_failure == 0 {
                    self.chunks_after_failure += 1;
                    return Err(std::io::Error::other("sink full"));
                }
                self.chunks_before_failure -= 1;
                Ok(())
            }
        }
        let s = FakeSampler { nm: 2 };
        let mut sink = FailingSink {
            chunks_before_failure: 1,
            chunks_after_failure: 0,
        };
        let err = stream_with_config(&s, 3 * CHUNK_SHOTS, &seeded(7), &mut sink).unwrap_err();
        assert_eq!(err.to_string(), "sink full");
        // The failing call happened exactly once: the stream stopped.
        assert_eq!(sink.chunks_after_failure, 1);
    }

    #[test]
    fn different_seeds_differ() {
        let s = FakeSampler { nm: 3 };
        let a = collect(&s, 256, &seeded(1));
        let b = collect(&s, 256, &seeded(2));
        assert_ne!(a, b);
    }

    #[test]
    fn chunks_are_decorrelated() {
        // Same relative shot in two different chunks must not repeat (the
        // per-chunk seeds differ).
        let s = FakeSampler { nm: 8 };
        let out = collect(&s, 2 * CHUNK_SHOTS, &seeded(9));
        let first: Vec<bool> = (0..8).map(|m| out.measurements.get(m, 0)).collect();
        let second: Vec<bool> = (0..8)
            .map(|m| out.measurements.get(m, CHUNK_SHOTS))
            .collect();
        assert_ne!(first, second);
    }

    #[test]
    fn paste_rejects_unaligned_start() {
        let mut dst = SampleBatch::zeros(1, 0, 0, 128);
        let src = SampleBatch::zeros(1, 0, 0, 64);
        let err = std::panic::catch_unwind(move || dst.paste_columns(&src, 32));
        assert!(err.is_err());
    }

    #[test]
    fn trait_is_object_safe() {
        let boxed: Box<dyn Sampler> = Box::new(FakeSampler { nm: 2 });
        let out = collect(boxed.as_ref(), 100, &seeded(3));
        assert_eq!(out.measurements.rows(), 2);
        assert_eq!(out.shots(), 100);
        assert_eq!(boxed.name(), "fake");
        let mut counting = CountingSink::default();
        stream_with_config(boxed.as_ref(), 100, &seeded(3), &mut counting).unwrap();
        assert_eq!(counting.shots, 100);
        assert_eq!(
            counting.measurement_ones,
            out.measurements.count_ones() as u64
        );
    }
}
