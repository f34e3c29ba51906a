//! Streaming shot delivery: the [`ShotSink`] trait and the one chunk
//! loop every sampling call runs.
//!
//! The SymPhase cost model makes shots cheap — a per-chunk F₂ product —
//! so the limiting resource of a long sampling run should be the sink
//! (a file, a socket, an aggregator), never memory. This module delivers
//! shots to a [`ShotSink`] one [`SampleBatch`] chunk at a time through
//! [`stream_range_with_config`]:
//!
//! * chunk `i` of the schedule draws from an RNG seeded by
//!   `chunk_seed(seed, i)`;
//! * chunks are drawn in *waves* of up to `threads` chunks
//!   (`rayon`-style fork-join inside a wave, one reused buffer per
//!   lane), memory `O(threads × chunk)`, and a budget of `1` runs
//!   one-chunk waves on the calling thread;
//! * chunks are drawn out of order inside a wave but **presented to the
//!   sink in schedule order**, so a sink never needs to reorder.
//!
//! The bytes a sink sees therefore depend on the seed and the chunk width
//! only — never on the thread budget or on how a request is split into
//! shot ranges. [`stream_with_config`] is the whole-request form and
//! [`collect`] gathers it into one in-memory batch via [`CollectSink`].

use std::io;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{chunk_seed, SampleBatch, Sampler, SimConfig};

/// The fixed per-request shape a sink learns before the first chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShotSpec {
    /// Measurement rows per shot.
    pub num_measurements: usize,
    /// Detector rows per shot.
    pub num_detectors: usize,
    /// Observable rows per shot.
    pub num_observables: usize,
    /// Total shots the request will deliver across all chunks.
    pub shots: usize,
}

impl ShotSpec {
    /// The spec of sampling `shots` shots from `sampler`.
    pub fn of(sampler: &(impl Sampler + ?Sized), shots: usize) -> Self {
        Self {
            num_measurements: sampler.num_measurements(),
            num_detectors: sampler.num_detectors(),
            num_observables: sampler.num_observables(),
            shots,
        }
    }
}

/// A consumer of streamed shot chunks.
///
/// The streaming engine guarantees the call sequence
/// `begin, chunk*, finish`, with chunks arriving in schedule order:
/// `start` values are strictly increasing and each chunk directly follows
/// the previous one (`start` = previous `start` + previous width). A
/// request of zero shots still produces `begin` and `finish`, so sinks
/// with headers/footers emit well-formed empty output.
///
/// Errors (typically `io::Error` from an underlying writer) abort the
/// stream: once a call fails, no further calls are made.
pub trait ShotSink {
    /// Called once before the first chunk with the request's shape.
    fn begin(&mut self, spec: &ShotSpec) -> io::Result<()> {
        let _ = spec;
        Ok(())
    }

    /// Called once per chunk, in schedule order; `start` is the absolute
    /// shot index of the chunk's first column.
    fn chunk(&mut self, chunk: &SampleBatch, start: usize) -> io::Result<()>;

    /// Called once after the last chunk (flush buffers, write footers).
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An in-memory sink: collects every chunk into one full [`SampleBatch`].
/// This is the adapter that turns the streaming path back into a batch
/// ([`collect`]) — and the reference sink of the streaming-equality
/// tests.
#[derive(Debug, Default)]
pub struct CollectSink {
    batch: Option<SampleBatch>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected batch; panics if the stream never began.
    pub fn into_batch(self) -> SampleBatch {
        self.batch.expect("stream never began")
    }
}

impl ShotSink for CollectSink {
    fn begin(&mut self, spec: &ShotSpec) -> io::Result<()> {
        self.batch = Some(SampleBatch::zeros(
            spec.num_measurements,
            spec.num_detectors,
            spec.num_observables,
            spec.shots,
        ));
        Ok(())
    }

    fn chunk(&mut self, chunk: &SampleBatch, start: usize) -> io::Result<()> {
        self.batch
            .as_mut()
            .expect("chunk before begin")
            .paste_columns(chunk, start);
        Ok(())
    }
}

/// A counting sink: tracks delivered shots and set bits without storing
/// anything — the cheapest way to drive a full streaming run (benchmarks,
/// smoke tests) while still observing every byte.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingSink {
    /// Shots delivered so far.
    pub shots: usize,
    /// Chunks delivered so far.
    pub chunks: usize,
    /// Set measurement bits seen so far.
    pub measurement_ones: u64,
    /// Set detector bits seen so far.
    pub detector_ones: u64,
    /// Set observable bits seen so far.
    pub observable_ones: u64,
}

impl ShotSink for CountingSink {
    fn chunk(&mut self, chunk: &SampleBatch, _start: usize) -> io::Result<()> {
        self.shots += chunk.shots();
        self.chunks += 1;
        self.measurement_ones += chunk.measurements.count_ones() as u64;
        self.detector_ones += chunk.detectors.count_ones() as u64;
        self.observable_ones += chunk.observables.count_ones() as u64;
        Ok(())
    }
}

/// A fan-out sink: forwards every call to each inner sink in order, so
/// one sampling pass can feed several outputs (the CLI's `--out` plus
/// `--obs-out`, say) without re-drawing shots.
pub struct FanoutSink<'a> {
    sinks: Vec<&'a mut dyn ShotSink>,
}

impl<'a> FanoutSink<'a> {
    /// A fan-out over `sinks` (delivery order = slice order).
    pub fn new(sinks: Vec<&'a mut dyn ShotSink>) -> Self {
        Self { sinks }
    }
}

impl ShotSink for FanoutSink<'_> {
    fn begin(&mut self, spec: &ShotSpec) -> io::Result<()> {
        for s in &mut self.sinks {
            s.begin(spec)?;
        }
        Ok(())
    }

    fn chunk(&mut self, chunk: &SampleBatch, start: usize) -> io::Result<()> {
        for s in &mut self.sinks {
            s.chunk(chunk, start)?;
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        for s in &mut self.sinks {
            s.finish()?;
        }
        Ok(())
    }
}

/// The chunk schedule covering shot range `[start, end)` of a request of
/// `end` total shots: `(global_start, width)` spans, all but the last
/// `chunk_shots` wide. `start` must be chunk-aligned, so the spans are
/// exactly the suffix of the full run's schedule that begins at `start`
/// — which is what makes range-streamed bytes identical to the
/// corresponding window of a full local run.
///
/// # Panics
///
/// Panics if `chunk_shots` is zero or not a multiple of 64, if `start`
/// is not a multiple of `chunk_shots`, or if `start > end`.
pub(crate) fn range_chunk_spans(
    start: usize,
    end: usize,
    chunk_shots: usize,
) -> impl Iterator<Item = (usize, usize)> {
    assert!(
        chunk_shots > 0 && chunk_shots.is_multiple_of(64),
        "chunk width must be a nonzero multiple of 64 shots, got {chunk_shots} \
         (SimConfig::validate rejects this before sampling starts)"
    );
    assert!(
        start.is_multiple_of(chunk_shots),
        "shot-range start must be a multiple of the chunk width \
         ({chunk_shots}), got {start} — unaligned ranges would re-draw a \
         chunk at a different width and break byte-identity with the \
         full-run schedule"
    );
    assert!(start <= end, "inverted shot range [{start}, {end})");
    (start..end)
        .step_by(chunk_shots)
        .map(move |s| (s, chunk_shots.min(end - s)))
}

/// Streams `shots` shots into `sink` honoring every knob of `config`:
/// seed, thread budget (`1` = serial, `0` = all cores), and chunk width.
/// This is [`stream_range_with_config`] over the whole request, the
/// form the CLI runs.
///
/// The configuration should be validated first
/// ([`SimConfig::validate`], or by building the sampler through
/// `build_sampler`); an invalid chunk width panics here.
pub fn stream_with_config<S: Sampler + ?Sized>(
    sampler: &S,
    shots: usize,
    config: &SimConfig,
    sink: &mut dyn ShotSink,
) -> io::Result<()> {
    stream_range_with_config(sampler, 0, shots, config, sink)
}

/// Collects `shots` shots into one in-memory batch:
/// [`stream_with_config`] into a [`CollectSink`]. Prefer streaming when
/// the shots are bound for a file or aggregator; this holds all of them
/// in memory.
pub fn collect<S: Sampler + ?Sized>(sampler: &S, shots: usize, config: &SimConfig) -> SampleBatch {
    let mut out = CollectSink::new();
    stream_with_config(sampler, shots, config, &mut out).expect("in-memory collection cannot fail");
    out.into_batch()
}

/// Streams the shot range `[start, end)` of a request of `end` total
/// shots into `sink` — **the** chunk loop every sampling call runs.
///
/// Chunk `i` of the global schedule draws from an RNG seeded by
/// [`chunk_seed`]`(seed, i)`. Chunks are processed in waves of up to
/// `config.threads()` lanes: each wave is drawn concurrently
/// (rayon-style fork-join, one buffer per lane, reused across waves),
/// then handed to the sink **in schedule order**. A budget of `1` runs
/// one-chunk waves on the calling thread. Peak memory is
/// `O(threads × chunk_shots)`; the sink — which is typically not
/// thread-safe, it holds a writer — only ever runs on the calling
/// thread.
///
/// `start` must be a multiple of the configured chunk width; the range is
/// then exactly a window of the global chunk schedule, so the bytes a
/// sink receives are **identical** to the corresponding window of a full
/// `stream_with_config(sampler, end, ..)` run — whatever the thread
/// budget, and whether the range is computed locally, by one `symphase
/// serve` worker, or split across machines. The sink sees chunk starts
/// *relative to* `start` (a range request delivers a self-contained
/// `[0, end - start)` stream).
///
/// # Panics
///
/// Panics if the chunk width is zero or not a multiple of 64, if `start`
/// is not chunk-aligned, or if `start > end` (`SimConfig::validate` and
/// the serve protocol reject these before sampling starts).
pub fn stream_range_with_config<S: Sampler + ?Sized>(
    sampler: &S,
    start: usize,
    end: usize,
    config: &SimConfig,
    sink: &mut dyn ShotSink,
) -> io::Result<()> {
    let chunk_shots = config.chunk_shots();
    let lanes = match config.threads() {
        0 => rayon::current_num_threads(),
        threads => threads,
    };
    let mut spans = range_chunk_spans(start, end, chunk_shots);
    sink.begin(&ShotSpec::of(sampler, end - start))?;
    let mut wave: Vec<(usize, usize)> = Vec::new();
    let mut bufs: Vec<SampleBatch> = Vec::new();
    let mut first_chunk = start / chunk_shots;
    loop {
        wave.clear();
        wave.extend(spans.by_ref().take(lanes));
        if wave.is_empty() {
            break;
        }
        for &(_, width) in wave.iter().skip(bufs.len()) {
            bufs.push(SampleBatch::zeros(
                sampler.num_measurements(),
                sampler.num_detectors(),
                sampler.num_observables(),
                width,
            ));
        }
        fill_wave(
            sampler,
            &wave,
            first_chunk,
            config.seed(),
            &mut bufs[..wave.len()],
        );
        for (buf, &(gstart, _)) in bufs.iter().zip(&wave) {
            sink.chunk(buf, gstart - start)?;
        }
        first_chunk += wave.len();
    }
    sink.finish()
}

/// Draws one wave of chunks: recursive binary fork-join over the
/// `(span, buffer)` lanes. Lane `i` of the wave samples chunk
/// `first_chunk + i` of the schedule into `bufs[i]`, reshaping the lane
/// buffer only when the width changes (the final, narrower chunk). A
/// one-lane wave samples on the calling thread.
fn fill_wave<S: Sampler + ?Sized>(
    sampler: &S,
    spans: &[(usize, usize)],
    first_chunk: usize,
    seed: u64,
    bufs: &mut [SampleBatch],
) {
    debug_assert_eq!(spans.len(), bufs.len());
    match spans {
        [] => {}
        [(_, width)] => {
            let buf = &mut bufs[0];
            if buf.shots() != *width {
                *buf = SampleBatch::zeros(
                    sampler.num_measurements(),
                    sampler.num_detectors(),
                    sampler.num_observables(),
                    *width,
                );
            }
            let mut rng = StdRng::seed_from_u64(chunk_seed(seed, first_chunk as u64));
            sampler.sample_into(buf, &mut rng);
        }
        _ => {
            let mid = spans.len() / 2;
            let (left_spans, right_spans) = spans.split_at(mid);
            let (left_bufs, right_bufs) = bufs.split_at_mut(mid);
            rayon::join(
                || fill_wave(sampler, left_spans, first_chunk, seed, left_bufs),
                || fill_wave(sampler, right_spans, first_chunk + mid, seed, right_bufs),
            );
        }
    }
}
