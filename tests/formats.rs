//! Round-trip property tests of the shot output formats on ragged
//! shapes: 0 rows, 0 shots, non-multiple-of-8 rows, multi-word shot
//! counts.
//!
//! Every writer is paired with a reader (`symphase::sampler_api::formats`)
//! and `write ∘ read` must be the identity on the record matrices —
//! except `counts`, whose round trip is checked against independently
//! computed pattern counts (aggregation is lossy by design: shot order).

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use symphase::bitmat::BitMatrix;
use symphase::sampler_api::formats::{
    read_01, read_01_dets, read_b8, read_counts, read_dets, read_hits, RecordSource, SampleFormat,
};
use symphase::sampler_api::{SampleBatch, ShotSpec};

/// A random `rows × shots` bit matrix from a seed.
fn random_matrix(rows: usize, shots: usize, rng: &mut StdRng) -> BitMatrix {
    let mut m = BitMatrix::zeros(rows, shots);
    for r in 0..rows {
        for c in 0..shots {
            if rng.random_bool(0.3) {
                m.set(r, c, true);
            }
        }
    }
    m
}

/// Runs `format` over `batch` delivered as chunks split at a word-aligned
/// boundary (exercising the multi-chunk path) and returns the bytes.
fn write_chunked(format: SampleFormat, source: RecordSource, batch: &SampleBatch) -> Vec<u8> {
    // Split into two chunks at a word boundary when possible (sinks
    // consume chunks independently; `start` only orders them).
    let split = (batch.shots() / 2) & !63;
    if split == 0 || split == batch.shots() {
        write_chunks(format, source, std::slice::from_ref(batch))
    } else {
        let (a, b) = split_batch(batch, split);
        write_chunks(format, source, &[a, b])
    }
}

/// Runs `format` over `chunks`, delivered in order as one stream, and
/// returns the bytes.
fn write_chunks(format: SampleFormat, source: RecordSource, chunks: &[SampleBatch]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut sink = format.sink(&mut out, source);
    let spec = ShotSpec {
        num_measurements: chunks[0].measurements.rows(),
        num_detectors: chunks[0].detectors.rows(),
        num_observables: chunks[0].observables.rows(),
        shots: chunks.iter().map(SampleBatch::shots).sum(),
    };
    sink.begin(&spec).unwrap();
    let mut start = 0;
    for chunk in chunks {
        sink.chunk(chunk, start).unwrap();
        start += chunk.shots();
    }
    sink.finish().unwrap();
    drop(sink);
    out
}

/// Splits `batch` columns into `[0, at)` and `[at, shots)` copies.
fn split_batch(batch: &SampleBatch, at: usize) -> (SampleBatch, SampleBatch) {
    let copy = |m: &BitMatrix, from: usize, to: usize| {
        let mut out = BitMatrix::zeros(m.rows(), to - from);
        for r in 0..m.rows() {
            for c in from..to {
                if m.get(r, c) {
                    out.set(r, c - from, true);
                }
            }
        }
        out
    };
    let part = |from: usize, to: usize| SampleBatch {
        measurements: copy(&batch.measurements, from, to),
        detectors: copy(&batch.detectors, from, to),
        observables: copy(&batch.observables, from, to),
    };
    (part(0, at), part(at, batch.shots()))
}

/// The shape strategy: ragged on purpose — zero rows, zero shots, row
/// counts straddling byte boundaries, shot counts straddling words.
fn shape() -> impl Strategy<Value = (usize, usize, u64)> {
    (
        prop_oneof![Just(0usize), 1usize..18],
        prop_oneof![Just(0usize), 1usize..200],
        any::<u64>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plain01_round_trips(shape in shape()) {
        let (rows, shots, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_matrix(rows, shots, &mut rng);
        let batch = SampleBatch {
            measurements: m.clone(),
            detectors: BitMatrix::zeros(0, shots),
            observables: BitMatrix::zeros(0, shots),
        };
        let bytes = write_chunked(SampleFormat::Plain01, RecordSource::Measurements, &batch);
        let text = std::str::from_utf8(&bytes).unwrap();
        prop_assert_eq!(text.lines().count(), shots);
        prop_assert_eq!(read_01(text, rows).unwrap(), m);
    }

    #[test]
    fn b8_round_trips(shape in shape()) {
        let (rows, shots, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_matrix(rows, shots, &mut rng);
        let batch = SampleBatch {
            measurements: m.clone(),
            detectors: BitMatrix::zeros(0, shots),
            observables: BitMatrix::zeros(0, shots),
        };
        let bytes = write_chunked(SampleFormat::B8, RecordSource::Measurements, &batch);
        prop_assert_eq!(bytes.len(), rows.div_ceil(8) * shots);
        let back = read_b8(&bytes, rows).unwrap();
        if rows == 0 {
            // Zero-row shots serialize to zero bytes: the count is lost.
            prop_assert_eq!(back.cols(), 0);
        } else {
            prop_assert_eq!(back, m);
        }
    }

    #[test]
    fn hits_round_trips(shape in shape()) {
        let (rows, shots, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_matrix(rows, shots, &mut rng);
        let batch = SampleBatch {
            measurements: m.clone(),
            detectors: BitMatrix::zeros(0, shots),
            observables: BitMatrix::zeros(0, shots),
        };
        let bytes = write_chunked(SampleFormat::Hits, RecordSource::Measurements, &batch);
        let text = std::str::from_utf8(&bytes).unwrap();
        prop_assert_eq!(read_hits(text, rows).unwrap(), m);
    }

    #[test]
    fn dets_round_trips(shape in shape()) {
        let (det_rows, shots, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let obs_rows = (seed % 4) as usize;
        let dets = random_matrix(det_rows, shots, &mut rng);
        let obs = random_matrix(obs_rows, shots, &mut rng);
        let batch = SampleBatch {
            measurements: BitMatrix::zeros(0, shots),
            detectors: dets.clone(),
            observables: obs.clone(),
        };
        let bytes = write_chunked(
            SampleFormat::Dets,
            RecordSource::DetectorsAndObservables,
            &batch,
        );
        let text = std::str::from_utf8(&bytes).unwrap();
        let (d, o) = read_dets(text, det_rows, obs_rows).unwrap();
        prop_assert_eq!(d, dets);
        prop_assert_eq!(o, obs);
    }

    #[test]
    fn combined_01_round_trips(shape in shape()) {
        let (det_rows, shots, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let obs_rows = (seed % 3) as usize;
        let dets = random_matrix(det_rows, shots, &mut rng);
        let obs = random_matrix(obs_rows, shots, &mut rng);
        let batch = SampleBatch {
            measurements: BitMatrix::zeros(0, shots),
            detectors: dets.clone(),
            observables: obs.clone(),
        };
        let bytes = write_chunked(
            SampleFormat::Plain01,
            RecordSource::DetectorsAndObservables,
            &batch,
        );
        let text = std::str::from_utf8(&bytes).unwrap();
        let (d, o) = read_01_dets(text, det_rows, obs_rows).unwrap();
        prop_assert_eq!(d, dets);
        prop_assert_eq!(o, obs);
    }

    #[test]
    fn counts_round_trips_against_independent_aggregation(shape in shape()) {
        let (rows, shots, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_matrix(rows, shots, &mut rng);
        let batch = SampleBatch {
            measurements: m.clone(),
            detectors: BitMatrix::zeros(0, shots),
            observables: BitMatrix::zeros(0, shots),
        };
        let bytes = write_chunked(SampleFormat::Counts, RecordSource::Measurements, &batch);
        let text = std::str::from_utf8(&bytes).unwrap();
        let parsed = read_counts(text).unwrap();
        // Aggregate independently.
        let mut expected: BTreeMap<String, u64> = BTreeMap::new();
        for shot in 0..shots {
            let key: String = (0..rows)
                .map(|r| if m.get(r, shot) { '1' } else { '0' })
                .collect();
            *expected.entry(key).or_insert(0) += 1;
        }
        prop_assert_eq!(parsed, expected);
        let total: u64 = read_counts(text).unwrap().values().sum();
        prop_assert_eq!(total, shots as u64);
    }
}

/// The `b8` transpose fast path across word boundaries: row counts
/// around and past 64 make each shot span multiple transposed words, so
/// the per-word byte truncation is exercised.
#[test]
fn b8_round_trips_on_multi_word_rows() {
    for rows in [63usize, 64, 65, 72, 130, 200] {
        for shots in [1usize, 63, 64, 65, 129] {
            let mut rng = StdRng::seed_from_u64((rows * 1000 + shots) as u64);
            let m = random_matrix(rows, shots, &mut rng);
            let batch = SampleBatch {
                measurements: m.clone(),
                detectors: BitMatrix::zeros(0, shots),
                observables: BitMatrix::zeros(0, shots),
            };
            let bytes = write_chunked(SampleFormat::B8, RecordSource::Measurements, &batch);
            assert_eq!(bytes.len(), rows.div_ceil(8) * shots, "{rows}x{shots}");
            assert_eq!(read_b8(&bytes, rows).unwrap(), m, "{rows}x{shots}");
        }
    }
}

/// The streamed CLI path and the format writers agree: sampling straight
/// into a `b8` sink then reading it back equals the in-memory batch.
#[test]
fn sampled_b8_stream_round_trips() {
    use symphase::backend::{build_sampler, SimConfig};
    use symphase::circuit::generators::{repetition_code_memory, RepetitionCodeConfig};
    use symphase::sampler_api::{collect, stream_with_config};
    let circuit = repetition_code_memory(&RepetitionCodeConfig {
        distance: 3,
        rounds: 2,
        data_error: 0.05,
        measure_error: 0.05,
    });
    let cfg = SimConfig::new().with_seed(17);
    let sampler = build_sampler(&circuit, &cfg).unwrap();
    let shots = 300;
    let mut bytes = Vec::new();
    {
        let mut sink = SampleFormat::B8.sink(&mut bytes, RecordSource::Measurements);
        stream_with_config(sampler.as_ref(), shots, &cfg, &mut *sink).unwrap();
    }
    let expected = collect(sampler.as_ref(), shots, &cfg);
    assert_eq!(
        read_b8(&bytes, sampler.num_measurements()).unwrap(),
        expected.measurements
    );
}

/// The per-bit reference writers: every format rendered straight from
/// `BitMatrix::get`, one record at a time. The sinks serialize from a
/// word-level shot-major transpose instead; these pin their bytes.
mod reference {
    use std::collections::BTreeMap;

    use symphase::bitmat::BitMatrix;
    use symphase::sampler_api::formats::{RecordSource, SampleFormat};
    use symphase::sampler_api::SampleBatch;

    /// The selected `(dets label, matrix)` parts of `source`, in order.
    fn parts(source: RecordSource, batch: &SampleBatch) -> Vec<(u8, &BitMatrix)> {
        match source {
            RecordSource::Measurements => vec![(b'M', &batch.measurements)],
            RecordSource::Detectors => vec![(b'D', &batch.detectors)],
            RecordSource::Observables => vec![(b'L', &batch.observables)],
            RecordSource::DetectorsAndObservables => {
                vec![(b'D', &batch.detectors), (b'L', &batch.observables)]
            }
        }
    }

    /// Shot `shot` as `01` text: the parts' chars, one space between
    /// them only when both are nonempty.
    fn line_01(source: RecordSource, batch: &SampleBatch, shot: usize) -> Vec<u8> {
        let mut line = Vec::new();
        for (i, (_, m)) in parts(source, batch).into_iter().enumerate() {
            if i > 0 && m.rows() > 0 && !line.is_empty() {
                line.push(b' ');
            }
            for r in 0..m.rows() {
                line.push(if m.get(r, shot) { b'1' } else { b'0' });
            }
        }
        line
    }

    /// The whole stream `format` writes for `source` of `batch`.
    pub fn render(format: SampleFormat, source: RecordSource, batch: &SampleBatch) -> Vec<u8> {
        let parts = parts(source, batch);
        let rows: usize = parts.iter().map(|(_, m)| m.rows()).sum();
        let mut out = Vec::new();
        let mut counts: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for shot in 0..batch.shots() {
            match format {
                SampleFormat::Plain01 => {
                    out.extend(line_01(source, batch, shot));
                    out.push(b'\n');
                }
                SampleFormat::Counts => {
                    *counts.entry(line_01(source, batch, shot)).or_insert(0) += 1
                }
                SampleFormat::B8 => {
                    let mut bytes = vec![0u8; rows.div_ceil(8)];
                    let mut r = 0;
                    for (_, m) in &parts {
                        for row in 0..m.rows() {
                            if m.get(row, shot) {
                                bytes[r / 8] |= 1 << (r % 8);
                            }
                            r += 1;
                        }
                    }
                    out.extend(bytes);
                }
                SampleFormat::Hits => {
                    let mut hits = Vec::new();
                    let mut base = 0;
                    for (_, m) in &parts {
                        hits.extend((0..m.rows()).filter(|&r| m.get(r, shot)).map(|r| base + r));
                        base += m.rows();
                    }
                    let text: Vec<String> = hits.iter().map(usize::to_string).collect();
                    out.extend(text.join(",").bytes());
                    out.push(b'\n');
                }
                SampleFormat::Dets => {
                    out.extend(b"shot");
                    for (label, m) in &parts {
                        for r in (0..m.rows()).filter(|&r| m.get(r, shot)) {
                            out.extend(format!(" {}{r}", *label as char).bytes());
                        }
                    }
                    out.push(b'\n');
                }
            }
        }
        for (pattern, n) in counts {
            out.extend(pattern);
            out.extend(format!(" {n}\n").bytes());
        }
        out
    }
}

/// Every writer is byte-identical to the per-bit reference for every
/// format × record source at every SIMD level, on shapes where the
/// shot-major transpose gets no slack to hide behind: selected row counts
/// straddling 64 and 128 (multi-word shot rows), detector counts off the
/// byte grid with 0–3 observables, empty parts, shot counts off the word
/// grid, and two-chunk delivery.
#[test]
fn every_writer_matches_the_per_bit_reference() {
    use symphase::bitmat::simd;
    const SOURCES: [RecordSource; 4] = [
        RecordSource::Measurements,
        RecordSource::Detectors,
        RecordSource::Observables,
        RecordSource::DetectorsAndObservables,
    ];
    // (measurements, detectors, observables), each run at two shot counts.
    let shapes: [(usize, usize, usize); 14] = [
        (0, 0, 0),
        (1, 0, 1),
        (7, 5, 0),
        (9, 0, 3),
        (63, 61, 3),
        (64, 63, 1),
        (65, 63, 2),
        (127, 64, 0),
        (128, 125, 3),
        (129, 126, 3),
        (130, 127, 1),
        (200, 127, 2),
        (8, 130, 3),
        (3, 70, 0),
    ];
    let shot_counts = [0usize, 1, 63, 65, 130, 200, 129];
    for (i, &(m_rows, d_rows, o_rows)) in shapes.iter().enumerate() {
        for shots in [shot_counts[i % 7], shot_counts[(i + 3) % 7]] {
            let mut rng = StdRng::seed_from_u64((i * 1000 + shots) as u64);
            let batch = SampleBatch {
                measurements: random_matrix(m_rows, shots, &mut rng),
                detectors: random_matrix(d_rows, shots, &mut rng),
                observables: random_matrix(o_rows, shots, &mut rng),
            };
            for format in SampleFormat::ALL {
                for source in SOURCES {
                    let want = reference::render(format, source, &batch);
                    for level in simd::available_levels() {
                        let got = simd::with_level(level, || write_chunked(format, source, &batch));
                        assert!(
                            got == want,
                            "{} {source:?} {m_rows}/{d_rows}/{o_rows} x {shots} at {}",
                            format.name(),
                            level.name()
                        );
                    }
                }
            }
        }
    }
}

/// The same byte identity on shapes that cross the writers' 256-shot
/// tiles and the transpose's four-block strips: shot counts on both sides
/// of one and two tiles, a 4,161-shot run delivered as a full 4,096-shot
/// chunk plus a ragged one, record counts on both sides of four 64-row
/// blocks, and detector/observable stacks whose split is off the word
/// grid (250 + 3).
#[test]
fn every_writer_matches_the_per_bit_reference_across_tiles() {
    use symphase::bitmat::simd;
    const SOURCES: [RecordSource; 4] = [
        RecordSource::Measurements,
        RecordSource::Detectors,
        RecordSource::Observables,
        RecordSource::DetectorsAndObservables,
    ];
    // (measurements, detectors, observables): the combined stack has
    // 253, 256, 257 and 300 rows.
    let shapes: [(usize, usize, usize); 4] =
        [(255, 250, 3), (256, 254, 2), (257, 256, 1), (300, 253, 47)];
    // (shots, width of the first chunk)
    let runs = [
        (255usize, 255usize),
        (256, 256),
        (257, 257),
        (511, 256),
        (513, 512),
    ];
    let cases = shapes
        .iter()
        .enumerate()
        .flat_map(|(i, &shape)| [(shape, runs[i]), (shape, runs[i + 1])])
        .chain([((257, 61, 3), (4161, 4096))]);
    for (i, ((m_rows, d_rows, o_rows), (shots, split))) in cases.enumerate() {
        let mut rng = StdRng::seed_from_u64((i * 10_000 + shots) as u64);
        let batch = SampleBatch {
            measurements: random_matrix(m_rows, shots, &mut rng),
            detectors: random_matrix(d_rows, shots, &mut rng),
            observables: random_matrix(o_rows, shots, &mut rng),
        };
        let chunks = if split < shots {
            let (a, b) = split_batch(&batch, split);
            vec![a, b]
        } else {
            vec![batch.clone()]
        };
        for format in SampleFormat::ALL {
            for source in SOURCES {
                let want = reference::render(format, source, &batch);
                for level in simd::available_levels() {
                    let got = simd::with_level(level, || write_chunks(format, source, &chunks));
                    assert!(
                        got == want,
                        "{} {source:?} {m_rows}/{d_rows}/{o_rows} x {shots} at {}",
                        format.name(),
                        level.name()
                    );
                }
            }
        }
    }
}
