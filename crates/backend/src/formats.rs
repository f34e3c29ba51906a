//! Shot output formats: [`ShotSink`]s that write sampled records straight
//! to any [`io::Write`], plus round-trip readers used by the property
//! tests.
//!
//! The full byte-level specification of every format lives in
//! `docs/formats.md`; in brief (`n` = selected record rows per shot):
//!
//! | name     | per shot | notes |
//! |----------|----------|-------|
//! | `01`     | `n` ASCII `0`/`1` chars + `\n` | detectors and observables separated by one space when both stream |
//! | `counts` | — | aggregated: sorted `bitstring count` lines at finish |
//! | `b8`     | `⌈n/8⌉` raw bytes | record `r` at bit `r % 8` of byte `r / 8` (little-endian bit order) |
//! | `hits`   | comma-separated ascending indices of set records + `\n` | empty line when none fire |
//! | `dets`   | `shot` then ` D<i>`/` L<j>` labels + `\n` | detector/observable flavor |
//!
//! Every writer is a [`ShotSink`], so a sampling run streams to disk in
//! `O(chunk)` memory (`counts` additionally holds one counter per
//! *distinct* bit pattern — aggregation is the format's point). Writers
//! flush on `finish`.
//!
//! Every writer serializes from one private shot-major tile: per chunk
//! the selected record matrices (bit-packed along shots) are stacked
//! row-wise, then transposed with `transpose_packed` 256 shots at a
//! time into one reused, cache-resident buffer, so each shot's records
//! are packed words. `b8` copies their leading bytes, `01` and `counts`
//! expand them with the SIMD `0`/`1` kernel, and `hits`/`dets` walk the
//! set bits — no writer reads records one bit at a time. Shots render
//! into one batch buffer through a cursor, sized once.
//!
//! Which record rows a sink serializes is chosen by [`RecordSource`]:
//! measurements for `sample`-style output, detectors and/or observables
//! for `detect`-style output.

use std::collections::BTreeMap;
use std::io::{self, Write};

use symphase_bitmat::simd::{self, Kernels};
use symphase_bitmat::word::{copy_le_bytes, iter_ones, IterOnes};
use symphase_bitmat::BitMatrix;

use crate::sink::{ShotSink, ShotSpec};
use crate::SampleBatch;

/// Which rows of a [`SampleBatch`] a format sink serializes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordSource {
    /// Measurement rows (the `sample` command).
    Measurements,
    /// Detector rows only (`detect` with observables split off).
    Detectors,
    /// Observable rows only (the `--obs-out` stream).
    Observables,
    /// Detector rows followed by observable rows (the combined `detect`
    /// output; `01`/`counts` render the two groups separated by one
    /// space, `b8`/`hits` concatenate the index spaces).
    DetectorsAndObservables,
}

impl RecordSource {
    /// Rows per shot this source selects under `spec`.
    pub fn rows(self, spec: &ShotSpec) -> usize {
        match self {
            RecordSource::Measurements => spec.num_measurements,
            RecordSource::Detectors => spec.num_detectors,
            RecordSource::Observables => spec.num_observables,
            RecordSource::DetectorsAndObservables => spec.num_detectors + spec.num_observables,
        }
    }

    /// The selected matrices of `batch`, in serialization order.
    fn parts(self, batch: &SampleBatch) -> (&BitMatrix, Option<&BitMatrix>) {
        match self {
            RecordSource::Measurements => (&batch.measurements, None),
            RecordSource::Detectors => (&batch.detectors, None),
            RecordSource::Observables => (&batch.observables, None),
            RecordSource::DetectorsAndObservables => (&batch.detectors, Some(&batch.observables)),
        }
    }
}

/// The named shot output formats (CLI `--format` values).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleFormat {
    /// ASCII `0`/`1` lines, one per shot.
    Plain01,
    /// Aggregated `bitstring count` lines (sorted), written at finish.
    Counts,
    /// Packed little-endian binary, `⌈rows/8⌉` bytes per shot.
    B8,
    /// Comma-separated indices of set records, one line per shot.
    Hits,
    /// `shot D<i> L<j>` event lines (detector/observable flavor).
    Dets,
}

impl SampleFormat {
    /// Every format, in documentation order.
    pub const ALL: [SampleFormat; 5] = [
        SampleFormat::Plain01,
        SampleFormat::Counts,
        SampleFormat::B8,
        SampleFormat::Hits,
        SampleFormat::Dets,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            SampleFormat::Plain01 => "01",
            SampleFormat::Counts => "counts",
            SampleFormat::B8 => "b8",
            SampleFormat::Hits => "hits",
            SampleFormat::Dets => "dets",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<SampleFormat> {
        Self::ALL.into_iter().find(|f| f.name() == name)
    }

    /// Whether the format output is binary (unsafe to treat as UTF-8).
    pub fn is_binary(self) -> bool {
        matches!(self, SampleFormat::B8)
    }

    /// Builds the [`ShotSink`] writing this format's serialization of
    /// `source` to `w`. Callers hand in any writer; buffering is the
    /// caller's choice (the CLI wraps files in `BufWriter`).
    pub fn sink<'w>(
        self,
        w: &'w mut (dyn Write + 'w),
        source: RecordSource,
    ) -> Box<dyn ShotSink + 'w> {
        match self {
            SampleFormat::Plain01 => Box::new(Sink01::new(w, source)),
            SampleFormat::Counts => Box::new(SinkCounts::new(w, source)),
            SampleFormat::B8 => Box::new(SinkB8::new(w, source)),
            SampleFormat::Hits => Box::new(SinkHits::new(w, source)),
            SampleFormat::Dets => Box::new(SinkDets::new(w, source)),
        }
    }
}

/// Output bytes a sink buffers before handing them to its writer: shots
/// are rendered into one batch buffer and written in batches of about
/// this size, so a sink's memory is one tile plus this.
const WRITE_BATCH: usize = 64 * 1024;

/// Shots a writer transposes and renders at a time. A tile of `TILE`
/// shot-major shots (`TILE × ⌈rows/64⌉` words, ~115 KB at 3,584 records)
/// stays cache-resident while its shots are rendered, where a whole
/// chunk's transpose would not; 256 shots are four 64-shot words, one
/// strip of the strip-transpose kernel.
const TILE: usize = 256;

/// One tile of a chunk's selected records in shot-major order: shot `s`'s
/// record `r` is bit `r % 64` of word `r / 64` of [`Tile::shot`]`(s)`,
/// with the second part's records following the first part's (observable
/// `j` of the combined source is record `num_detectors + j`). Every
/// writer serializes from these words; the buffer is reused across tiles
/// and chunks.
#[derive(Default)]
struct Tile {
    /// Shot-major words, `stride` per shot, for up to `TILE` shots.
    words: Vec<u64>,
    stride: usize,
    rows: usize,
    /// Records of the first part: the detector/observable boundary.
    split: usize,
    /// Whether both parts are nonempty (the `01` separator condition).
    two_groups: bool,
}

impl Tile {
    /// Shot `s`'s record words (slack bits past `rows` are zero).
    fn shot(&self, s: usize) -> &[u64] {
        &self.words[s * self.stride..(s + 1) * self.stride]
    }

    /// Bytes of one shot's `01` text (no newline): the records, plus one
    /// space at the part boundary when both parts are nonempty.
    fn width_01(&self) -> usize {
        self.rows + usize::from(self.two_groups)
    }

    /// Renders shot `s` as `01` text into `dst` (`width_01` bytes).
    fn render_01(&self, kernels: Kernels, s: usize, dst: &mut [u8]) {
        kernels.expand_01(self.shot(s), &mut dst[..self.rows]);
        if self.two_groups {
            dst.copy_within(self.split..self.rows, self.split + 1);
            dst[self.split] = b' ';
        }
    }

    /// The ascending record indices set in shot `s`.
    fn ones(&self, s: usize) -> IterOnes<'_> {
        iter_ones(self.shot(s))
    }
}

/// Decimal digits of `n`.
fn decimal_len(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// The batch output buffer: sized once for a batch plus the longest shot
/// a writer can render, filled through a cursor and handed to the writer
/// whenever [`WRITE_BATCH`] bytes accumulate — so a render never
/// reallocates and always has room.
#[derive(Default)]
struct Batch {
    bytes: Vec<u8>,
    len: usize,
}

impl Batch {
    /// Makes room for `shots` shots of at most `max_shot` bytes each
    /// between drains (a short stream never needs a whole batch).
    fn fit(&mut self, shots: usize, max_shot: usize) {
        let len = WRITE_BATCH.min(shots.saturating_mul(max_shot)) + max_shot;
        if self.bytes.len() < len {
            self.bytes.resize(len, 0);
        }
    }

    /// The next `n` bytes, which the caller fills.
    fn take(&mut self, n: usize) -> &mut [u8] {
        let start = self.len;
        self.len += n;
        &mut self.bytes[start..self.len]
    }

    fn push(&mut self, b: u8) {
        self.bytes[self.len] = b;
        self.len += 1;
    }

    fn extend(&mut self, bytes: &[u8]) {
        self.take(bytes.len()).copy_from_slice(bytes);
    }

    /// Appends `n` in decimal.
    fn push_decimal(&mut self, mut n: usize) {
        let digits = self.take(decimal_len(n));
        for d in digits.iter_mut().rev() {
            *d = b'0' + (n % 10) as u8;
            n /= 10;
        }
    }

    /// Drops the buffered bytes.
    fn clear(&mut self) {
        self.len = 0;
    }

    /// Writes the buffered bytes out and rewinds the cursor.
    fn drain(&mut self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.bytes[..self.len])?;
        self.clear();
        Ok(())
    }
}

/// The state every writer shares: the output, its source, the tile and
/// the batch buffer.
struct ShotWriter<W: Write> {
    w: W,
    source: RecordSource,
    /// Row-wise stack of a two-part source (the transpose input).
    stacked: Vec<u64>,
    tile: Tile,
    batch: Batch,
}

impl<W: Write> ShotWriter<W> {
    fn new(w: W, source: RecordSource) -> Self {
        Self {
            w,
            source,
            stacked: Vec::new(),
            tile: Tile::default(),
            batch: Batch::default(),
        }
    }

    /// Transposes `chunk` one tile at a time and calls `shot` on each of
    /// the tile's shots in order. `max_shot` gives, from the tile's shape,
    /// the most bytes `shot` writes to the batch; the batch is drained to
    /// the writer whenever [`WRITE_BATCH`] bytes accumulate.
    fn chunk(
        &mut self,
        chunk: &SampleBatch,
        max_shot: impl FnOnce(&Tile) -> usize,
        mut shot: impl FnMut(&Tile, usize, &mut Batch),
    ) -> io::Result<()> {
        let Self {
            w,
            source,
            stacked,
            tile,
            batch,
        } = self;
        let shots = chunk.shots();
        // The record matrices share a shot stride, so stacking two parts
        // is a row copy; a single nonempty part is transposed in place.
        let (first, second) = source.parts(chunk);
        let second_rows = second.map_or(0, BitMatrix::rows);
        tile.rows = first.rows() + second_rows;
        tile.split = first.rows();
        tile.two_groups = first.rows() > 0 && second_rows > 0;
        tile.stride = tile.rows.div_ceil(64);
        let tile_words = TILE.min(shots) * tile.stride;
        if tile.words.len() < tile_words {
            tile.words.resize(tile_words, 0);
        }
        let (src, src_stride) = match second {
            Some(second) if tile.two_groups => {
                assert_eq!(first.stride(), second.stride(), "parts share a shot stride");
                stacked.clear();
                stacked.extend_from_slice(first.words());
                stacked.extend_from_slice(second.words());
                (&stacked[..], first.stride())
            }
            Some(second) if second_rows > 0 => (second.words(), second.stride()),
            _ => (first.words(), first.stride()),
        };
        batch.fit(shots, max_shot(tile));
        for t0 in (0..shots).step_by(TILE) {
            let n = TILE.min(shots - t0);
            if tile.rows > 0 {
                symphase_bitmat::transpose::transpose_packed(
                    &src[t0 / 64..],
                    tile.rows,
                    n,
                    src_stride,
                    &mut tile.words,
                    tile.stride,
                );
            }
            for s in 0..n {
                shot(tile, s, batch);
                if batch.len >= WRITE_BATCH {
                    batch.drain(w)?;
                }
            }
        }
        batch.drain(w)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

/// The `01` format: one ASCII line of `0`/`1` per shot.
pub struct Sink01<W: Write>(ShotWriter<W>);

impl<W: Write> Sink01<W> {
    /// A `01` writer of `source` into `w`.
    pub fn new(w: W, source: RecordSource) -> Self {
        Self(ShotWriter::new(w, source))
    }
}

impl<W: Write> ShotSink for Sink01<W> {
    fn chunk(&mut self, chunk: &SampleBatch, _start: usize) -> io::Result<()> {
        let kernels = simd::kernels();
        self.0.chunk(
            chunk,
            |tile| tile.width_01() + 1,
            |tile, s, out| {
                tile.render_01(kernels, s, out.take(tile.width_01()));
                out.push(b'\n');
            },
        )
    }

    fn finish(&mut self) -> io::Result<()> {
        self.0.finish()
    }
}

/// The `counts` format: aggregates shots by their `01` rendering and
/// writes sorted `bitstring count` lines at finish. Memory is one `u64`
/// per *distinct* observed pattern — aggregation is the format's point —
/// never per shot.
pub struct SinkCounts<W: Write> {
    out: ShotWriter<W>,
    counts: BTreeMap<Vec<u8>, u64>,
}

impl<W: Write> SinkCounts<W> {
    /// A `counts` writer of `source` into `w`.
    pub fn new(w: W, source: RecordSource) -> Self {
        Self {
            out: ShotWriter::new(w, source),
            counts: BTreeMap::new(),
        }
    }
}

impl<W: Write> ShotSink for SinkCounts<W> {
    fn chunk(&mut self, chunk: &SampleBatch, _start: usize) -> io::Result<()> {
        let kernels = simd::kernels();
        let counts = &mut self.counts;
        // Each shot renders into the batch as its lookup key, and the
        // batch is cleared again: nothing is written before `finish`.
        self.out.chunk(chunk, Tile::width_01, |tile, s, out| {
            let key = out.take(tile.width_01());
            tile.render_01(kernels, s, key);
            if let Some(n) = counts.get_mut(&*key) {
                *n += 1;
            } else {
                counts.insert(key.to_vec(), 1);
            }
            out.clear();
        })
    }

    fn finish(&mut self) -> io::Result<()> {
        let w = &mut self.out.w;
        for (pattern, n) in &self.counts {
            w.write_all(pattern)?;
            writeln!(w, " {n}")?;
        }
        w.flush()
    }
}

/// The `b8` format: `⌈rows/8⌉` raw bytes per shot, record `r` stored at
/// bit `r % 8` of byte `r / 8` (little-endian bit order, padding bits
/// zero). No separators — shot boundaries are implied by the row count.
///
/// The record matrices are bit-packed along the shot dimension, so
/// shot-major bytes are exactly the leading bytes of a packed transpose;
/// the combined detector+observable source transposes the row-wise stack
/// of both matrices, so every source takes the same word-blocked path.
pub struct SinkB8<W: Write>(ShotWriter<W>);

impl<W: Write> SinkB8<W> {
    /// A `b8` writer of `source` into `w`.
    pub fn new(w: W, source: RecordSource) -> Self {
        Self(ShotWriter::new(w, source))
    }
}

impl<W: Write> ShotSink for SinkB8<W> {
    fn chunk(&mut self, chunk: &SampleBatch, _start: usize) -> io::Result<()> {
        self.0.chunk(
            chunk,
            |tile| tile.rows.div_ceil(8),
            |tile, s, out| copy_le_bytes(tile.shot(s), out.take(tile.rows.div_ceil(8))),
        )
    }

    fn finish(&mut self) -> io::Result<()> {
        self.0.finish()
    }
}

/// The `hits` format: per shot, the comma-separated ascending indices of
/// set records, newline-terminated (an empty line when nothing fired).
/// With [`RecordSource::DetectorsAndObservables`], observable `j` appears
/// as index `num_detectors + j`.
pub struct SinkHits<W: Write>(ShotWriter<W>);

impl<W: Write> SinkHits<W> {
    /// A `hits` writer of `source` into `w`.
    pub fn new(w: W, source: RecordSource) -> Self {
        Self(ShotWriter::new(w, source))
    }
}

impl<W: Write> ShotSink for SinkHits<W> {
    fn chunk(&mut self, chunk: &SampleBatch, _start: usize) -> io::Result<()> {
        self.0.chunk(
            chunk,
            |tile| tile.rows * (decimal_len(tile.rows) + 1) + 1,
            |tile, s, out| {
                for (k, r) in tile.ones(s).enumerate() {
                    if k > 0 {
                        out.push(b',');
                    }
                    out.push_decimal(r);
                }
                out.push(b'\n');
            },
        )
    }

    fn finish(&mut self) -> io::Result<()> {
        self.0.finish()
    }
}

/// The `dets` format: per shot, the word `shot` followed by ` D<i>` for
/// each fired detector and ` L<j>` for each fired observable. With a
/// single-matrix source only that group's labels appear (`D` for
/// detectors, `L` for observables, `M` for measurements).
pub struct SinkDets<W: Write>(ShotWriter<W>);

impl<W: Write> SinkDets<W> {
    /// A `dets` writer of `source` into `w`.
    pub fn new(w: W, source: RecordSource) -> Self {
        Self(ShotWriter::new(w, source))
    }
}

impl<W: Write> ShotSink for SinkDets<W> {
    fn chunk(&mut self, chunk: &SampleBatch, _start: usize) -> io::Result<()> {
        let [first, second] = match self.0.source {
            RecordSource::Measurements => [b'M', b'M'],
            RecordSource::Detectors => [b'D', b'D'],
            RecordSource::Observables => [b'L', b'L'],
            RecordSource::DetectorsAndObservables => [b'D', b'L'],
        };
        self.0.chunk(
            chunk,
            |tile| b"shot\n".len() + tile.rows * (decimal_len(tile.rows) + 2),
            |tile, s, out| {
                out.extend(b"shot");
                for r in tile.ones(s) {
                    let (label, index) = if r < tile.split {
                        (first, r)
                    } else {
                        (second, r - tile.split)
                    };
                    out.push(b' ');
                    out.push(label);
                    out.push_decimal(index);
                }
                out.push(b'\n');
            },
        )
    }

    fn finish(&mut self) -> io::Result<()> {
        self.0.finish()
    }
}

/// A malformed serialized shot stream (the round-trip readers' error).
#[derive(Debug, PartialEq, Eq)]
pub struct FormatParseError(pub String);

impl std::fmt::Display for FormatParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FormatParseError {}

fn parse_err(msg: impl Into<String>) -> FormatParseError {
    FormatParseError(msg.into())
}

/// Reads `01` text of a single record group back into a `rows × shots`
/// matrix (shots = lines).
pub fn read_01(text: &str, rows: usize) -> Result<BitMatrix, FormatParseError> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = BitMatrix::zeros(rows, lines.len());
    for (shot, line) in lines.iter().enumerate() {
        if line.len() != rows {
            return Err(parse_err(format!(
                "line {shot}: expected {rows} chars, got {}",
                line.len()
            )));
        }
        for (r, c) in line.bytes().enumerate() {
            match c {
                b'0' => {}
                b'1' => out.set(r, shot, true),
                other => return Err(parse_err(format!("line {shot}: bad char {other:#x}"))),
            }
        }
    }
    Ok(out)
}

/// Reads the combined `01` detect flavor (`detectors SP observables`,
/// the space omitted when either group is empty) back into the two
/// matrices.
pub fn read_01_dets(
    text: &str,
    det_rows: usize,
    obs_rows: usize,
) -> Result<(BitMatrix, BitMatrix), FormatParseError> {
    let lines: Vec<&str> = text.lines().collect();
    let mut dets = BitMatrix::zeros(det_rows, lines.len());
    let mut obs = BitMatrix::zeros(obs_rows, lines.len());
    for (shot, line) in lines.iter().enumerate() {
        let (d, o) = if obs_rows > 0 && det_rows > 0 {
            line.split_once(' ')
                .ok_or_else(|| parse_err(format!("line {shot}: missing separator")))?
        } else if obs_rows > 0 {
            ("", *line)
        } else {
            (*line, "")
        };
        if d.len() != det_rows || o.len() != obs_rows {
            return Err(parse_err(format!("line {shot}: group length mismatch")));
        }
        for (r, c) in d.bytes().enumerate() {
            if c == b'1' {
                dets.set(r, shot, true);
            } else if c != b'0' {
                return Err(parse_err(format!("line {shot}: bad char {c:#x}")));
            }
        }
        for (r, c) in o.bytes().enumerate() {
            if c == b'1' {
                obs.set(r, shot, true);
            } else if c != b'0' {
                return Err(parse_err(format!("line {shot}: bad char {c:#x}")));
            }
        }
    }
    Ok((dets, obs))
}

/// Reads `b8` bytes back into a `rows × shots` matrix. With `rows == 0`
/// each shot serializes to zero bytes, so the shot count is not
/// recoverable — the stream must be empty and the reader returns a
/// `0 × 0` matrix.
pub fn read_b8(bytes: &[u8], rows: usize) -> Result<BitMatrix, FormatParseError> {
    let per_shot = rows.div_ceil(8);
    if per_shot == 0 {
        if bytes.is_empty() {
            return Ok(BitMatrix::zeros(0, 0));
        }
        return Err(parse_err("zero-row b8 stream must be empty"));
    }
    if !bytes.len().is_multiple_of(per_shot) {
        return Err(parse_err(format!(
            "stream length {} is not a multiple of the {per_shot}-byte shot size",
            bytes.len()
        )));
    }
    let shots = bytes.len() / per_shot;
    let mut out = BitMatrix::zeros(rows, shots);
    for (shot, rec) in bytes.chunks_exact(per_shot).enumerate() {
        for r in 0..rows {
            if rec[r / 8] & (1 << (r % 8)) != 0 {
                out.set(r, shot, true);
            }
        }
        for (i, &b) in rec.iter().enumerate() {
            let used = (rows - 8 * i).min(8);
            if used < 8 && b >> used != 0 {
                return Err(parse_err(format!("shot {shot}: nonzero padding bits")));
            }
        }
    }
    Ok(out)
}

/// Reads `hits` text back into a `rows × shots` matrix (shots = lines).
pub fn read_hits(text: &str, rows: usize) -> Result<BitMatrix, FormatParseError> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = BitMatrix::zeros(rows, lines.len());
    for (shot, line) in lines.iter().enumerate() {
        if line.is_empty() {
            continue;
        }
        for tok in line.split(',') {
            let idx: usize = tok
                .parse()
                .map_err(|_| parse_err(format!("line {shot}: bad index '{tok}'")))?;
            if idx >= rows {
                return Err(parse_err(format!(
                    "line {shot}: index {idx} out of range (rows = {rows})"
                )));
            }
            out.set(idx, shot, true);
        }
    }
    Ok(out)
}

/// Reads `dets` text (the `D`/`L` flavor) back into detector and
/// observable matrices (shots = lines).
pub fn read_dets(
    text: &str,
    det_rows: usize,
    obs_rows: usize,
) -> Result<(BitMatrix, BitMatrix), FormatParseError> {
    let lines: Vec<&str> = text.lines().collect();
    let mut dets = BitMatrix::zeros(det_rows, lines.len());
    let mut obs = BitMatrix::zeros(obs_rows, lines.len());
    for (shot, line) in lines.iter().enumerate() {
        let mut toks = line.split(' ');
        if toks.next() != Some("shot") {
            return Err(parse_err(format!("line {shot}: missing 'shot' prefix")));
        }
        for tok in toks {
            let (target, rows, label) = match tok.as_bytes().first() {
                Some(b'D') => (&mut dets, det_rows, 'D'),
                Some(b'L') => (&mut obs, obs_rows, 'L'),
                _ => return Err(parse_err(format!("line {shot}: bad token '{tok}'"))),
            };
            let idx: usize = tok[1..]
                .parse()
                .map_err(|_| parse_err(format!("line {shot}: bad token '{tok}'")))?;
            if idx >= rows {
                return Err(parse_err(format!("line {shot}: {label}{idx} out of range")));
            }
            target.set(idx, shot, true);
        }
    }
    Ok((dets, obs))
}

/// Reads the `M`-labeled `dets` flavor — what [`SinkDets`] emits for
/// [`RecordSource::Measurements`] — back into a `rows × shots`
/// measurement matrix (shots = lines).
pub fn read_dets_measurements(text: &str, rows: usize) -> Result<BitMatrix, FormatParseError> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = BitMatrix::zeros(rows, lines.len());
    for (shot, line) in lines.iter().enumerate() {
        let mut toks = line.split(' ');
        if toks.next() != Some("shot") {
            return Err(parse_err(format!("line {shot}: missing 'shot' prefix")));
        }
        for tok in toks {
            let idx: usize = tok
                .strip_prefix('M')
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| parse_err(format!("line {shot}: bad token '{tok}'")))?;
            if idx >= rows {
                return Err(parse_err(format!("line {shot}: M{idx} out of range")));
            }
            out.set(idx, shot, true);
        }
    }
    Ok(out)
}

/// Reads `counts` text back into the pattern → count map.
pub fn read_counts(text: &str) -> Result<BTreeMap<String, u64>, FormatParseError> {
    let mut out = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let (pattern, n) = line
            .rsplit_once(' ')
            .ok_or_else(|| parse_err(format!("line {i}: missing count")))?;
        let n: u64 = n
            .parse()
            .map_err(|_| parse_err(format!("line {i}: bad count '{n}'")))?;
        if out.insert(pattern.to_string(), n).is_some() {
            return Err(parse_err(format!("line {i}: duplicate pattern")));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_from(meas: &[&[u8]], dets: &[&[u8]], obs: &[&[u8]], shots: usize) -> SampleBatch {
        let fill = |rows: &[&[u8]]| {
            let mut m = BitMatrix::zeros(rows.len(), shots);
            for (r, row) in rows.iter().enumerate() {
                for (c, &bit) in row.iter().enumerate() {
                    m.set(r, c, bit != 0);
                }
            }
            m
        };
        SampleBatch {
            measurements: fill(meas),
            detectors: fill(dets),
            observables: fill(obs),
        }
    }

    fn run_sink(format: SampleFormat, source: RecordSource, batch: &SampleBatch) -> Vec<u8> {
        let mut out = Vec::new();
        {
            let mut w: &mut dyn Write = &mut out;
            let mut sink = format.sink(&mut w, source);
            let spec = ShotSpec {
                num_measurements: batch.measurements.rows(),
                num_detectors: batch.detectors.rows(),
                num_observables: batch.observables.rows(),
                shots: batch.shots(),
            };
            sink.begin(&spec).unwrap();
            sink.chunk(batch, 0).unwrap();
            sink.finish().unwrap();
        }
        out
    }

    #[test]
    fn format_names_round_trip() {
        for f in SampleFormat::ALL {
            assert_eq!(SampleFormat::from_name(f.name()), Some(f));
        }
        assert_eq!(SampleFormat::from_name("base64"), None);
    }

    #[test]
    fn plain01_renders_rows_per_shot() {
        let b = batch_from(&[&[1, 0, 1], &[0, 0, 1]], &[], &[], 3);
        let out = run_sink(SampleFormat::Plain01, RecordSource::Measurements, &b);
        assert_eq!(out, b"10\n00\n11\n");
    }

    #[test]
    fn plain01_dets_obs_space_separated() {
        let b = batch_from(&[], &[&[1], &[0]], &[&[1]], 1);
        let out = run_sink(
            SampleFormat::Plain01,
            RecordSource::DetectorsAndObservables,
            &b,
        );
        assert_eq!(out, b"10 1\n");
    }

    #[test]
    fn b8_packs_little_endian() {
        // 9 rows: bits 0..8 of byte 0, bit 8 -> bit 0 of byte 1.
        let rows: Vec<&[u8]> = vec![&[1], &[0], &[0], &[0], &[0], &[0], &[0], &[1], &[1]];
        let b = batch_from(&rows, &[], &[], 1);
        let out = run_sink(SampleFormat::B8, RecordSource::Measurements, &b);
        assert_eq!(out, vec![0b1000_0001, 0b0000_0001]);
        let back = read_b8(&out, 9).unwrap();
        assert_eq!(back, b.measurements);
    }

    #[test]
    fn hits_lists_ascending_indices() {
        let b = batch_from(&[&[1, 0], &[0, 0], &[1, 1]], &[], &[], 2);
        let out = run_sink(SampleFormat::Hits, RecordSource::Measurements, &b);
        assert_eq!(out, b"0,2\n2\n");
        assert_eq!(
            read_hits(std::str::from_utf8(&out).unwrap(), 3).unwrap(),
            b.measurements
        );
    }

    #[test]
    fn dets_labels_detectors_and_observables() {
        let b = batch_from(&[], &[&[1], &[0], &[1]], &[&[1]], 1);
        let out = run_sink(
            SampleFormat::Dets,
            RecordSource::DetectorsAndObservables,
            &b,
        );
        assert_eq!(out, b"shot D0 D2 L0\n");
        let (d, o) = read_dets(std::str::from_utf8(&out).unwrap(), 3, 1).unwrap();
        assert_eq!(d, b.detectors);
        assert_eq!(o, b.observables);
    }

    #[test]
    fn dets_measurement_flavor_round_trips() {
        let b = batch_from(&[&[1, 0], &[0, 1], &[1, 1]], &[], &[], 2);
        let out = run_sink(SampleFormat::Dets, RecordSource::Measurements, &b);
        assert_eq!(out, b"shot M0 M2\nshot M1 M2\n");
        let back = read_dets_measurements(std::str::from_utf8(&out).unwrap(), 3).unwrap();
        assert_eq!(back, b.measurements);
    }

    #[test]
    fn counts_aggregates_and_sorts() {
        let b = batch_from(&[&[1, 0, 1, 1]], &[], &[], 4);
        let out = run_sink(SampleFormat::Counts, RecordSource::Measurements, &b);
        assert_eq!(out, b"0 1\n1 3\n");
        let m = read_counts(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(m.get("1"), Some(&3));
    }

    #[test]
    fn readers_reject_malformed_input() {
        assert!(read_01("10\n2\n", 2).is_err());
        assert!(read_b8(&[1, 2, 3], 16).is_err());
        assert!(read_hits("5\n", 3).is_err());
        assert!(read_dets("D0\n", 1, 0).is_err());
        assert!(read_counts("10\n").is_err());
    }

    #[test]
    fn zero_rows_zero_shots_are_well_formed() {
        let b = batch_from(&[], &[], &[], 5);
        let out = run_sink(SampleFormat::Plain01, RecordSource::Measurements, &b);
        assert_eq!(out, b"\n\n\n\n\n");
        assert!(run_sink(SampleFormat::B8, RecordSource::Measurements, &b).is_empty());
        let empty = batch_from(&[&[]], &[], &[], 0);
        assert!(run_sink(SampleFormat::Plain01, RecordSource::Measurements, &empty).is_empty());
    }
}
