//! The `SPH1` length-prefixed binary wire protocol.
//!
//! All multi-byte integers are **little-endian**, matching the `b8`
//! sample format (`docs/formats.md`). One connection carries one request
//! and one response; framing is self-delimiting so either side can sit
//! behind a buffering transport.
//!
//! # Request
//!
//! ```text
//! magic      [4]  b"SPH1"
//! kind       u8   1 = sample by circuit text, 2 = sample by hash, 3 = stats
//! -- kinds 1 and 2 only --
//! engine     u8   index into EngineKind::ALL
//! source     u8   0 = M, 1 = D, 2 = L, 3 = D+L        (RecordSource)
//! format     u8   index into SampleFormat::ALL (counts is rejected)
//! seed       u64
//! start      u64  first shot of the requested range (chunk-aligned)
//! end        u64  one past the last shot (= the request's total shots)
//! payload    u32 len + bytes: UTF-8 circuit text (kind 1) or the
//!                 32-byte content hash (kind 2, len must be 32)
//! ```
//!
//! # Response
//!
//! ```text
//! magic      [4]  b"SPH1"
//! status     u8   0 = sample stream, 1 = stats, >=2 = error (ErrorCode)
//! -- status 0 --
//! cache_hit  u8   1 if the (circuit, engine) sampler was already cached
//! rows       u64  records per shot under the requested source
//! shots      u64  end - start
//! frames:    tag u8 = 1: u32 len + len bytes of formatted sample data
//!            tag u8 = 2: u32 len = 8 + u64 total payload bytes (final)
//! -- status 1 --
//! hits misses entries served busy   5 × u64 counters
//! -- status >= 2 --
//! message    u32 len + UTF-8 diagnostic
//! ```
//!
//! The chunk boundaries of tag-1 frames are a transport detail (a server
//! may split anywhere); the **concatenated payload** is the contract, and
//! it is byte-identical to the same format/source/range written locally
//! by `symphase sample`/`detect`.

use std::io::{self, Read, Write};

use symphase_backend::formats::{RecordSource, SampleFormat};
use symphase_backend::EngineKind;

use crate::hash::CircuitHash;

/// Protocol magic, first bytes of every request and response.
pub const MAGIC: [u8; 4] = *b"SPH1";

/// Response status byte for a sample stream.
pub const STATUS_OK: u8 = 0;
/// Response status byte for a stats reply.
pub const STATUS_STATS: u8 = 1;

/// Frame tag: sample payload chunk.
pub const FRAME_DATA: u8 = 1;
/// Frame tag: end of stream (payload = total byte count).
pub const FRAME_END: u8 = 2;

/// Typed error statuses (the response status byte, values `>= 2`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The bounded request queue was full; retry later.
    Busy = 2,
    /// The request did not parse (bad magic, short read, bad enum byte).
    Malformed = 3,
    /// The circuit text did not parse.
    Parse = 4,
    /// `build_sampler` rejected the (circuit, config) pair.
    Build = 5,
    /// A by-hash request named a circuit the cache has never seen.
    UnknownHash = 6,
    /// The shot range is inverted or its start is not chunk-aligned.
    BadRange = 7,
    /// The request asked for something the wire cannot carry (the
    /// aggregated `counts` format).
    Unsupported = 8,
    /// The server's `--lint` gate rejected the circuit.
    Lint = 9,
    /// Unexpected server-side failure.
    Internal = 10,
}

impl ErrorCode {
    /// Every code, for decode.
    pub const ALL: [ErrorCode; 9] = [
        ErrorCode::Busy,
        ErrorCode::Malformed,
        ErrorCode::Parse,
        ErrorCode::Build,
        ErrorCode::UnknownHash,
        ErrorCode::BadRange,
        ErrorCode::Unsupported,
        ErrorCode::Lint,
        ErrorCode::Internal,
    ];

    /// Stable lowercase name (client-side display).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Busy => "busy",
            ErrorCode::Malformed => "malformed",
            ErrorCode::Parse => "parse",
            ErrorCode::Build => "build",
            ErrorCode::UnknownHash => "unknown-hash",
            ErrorCode::BadRange => "bad-range",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Lint => "lint",
            ErrorCode::Internal => "internal",
        }
    }

    /// Decodes a response status byte.
    pub fn from_status(status: u8) -> Option<ErrorCode> {
        Self::ALL.into_iter().find(|c| *c as u8 == status)
    }
}

/// How a sample request names its circuit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CircuitRef {
    /// Full circuit text; the server parses, hashes, and caches it.
    Text(String),
    /// Content hash of a circuit the server is expected to have cached.
    Hash(CircuitHash),
}

/// A decoded sample request (kinds 1 and 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleRequest {
    /// The circuit, by text or by content hash.
    pub circuit: CircuitRef,
    /// Engine to sample with.
    pub engine: EngineKind,
    /// Which record rows to stream.
    pub source: RecordSource,
    /// Serialization format (the aggregated `counts` is rejected).
    pub format: SampleFormat,
    /// Base RNG seed; chunk `i` of the global schedule draws from
    /// `chunk_seed(seed, i)` regardless of the requested range.
    pub seed: u64,
    /// First shot of the range (must be a multiple of the server's chunk
    /// width).
    pub start: u64,
    /// One past the last shot — equal to the total shots of the logical
    /// request the range is a window of.
    pub end: u64,
}

/// Any decoded request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Stream a shot range.
    Sample(SampleRequest),
    /// Report cache/queue counters.
    Stats,
}

/// Server counters carried by a stats reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Cache hits: requests that found their (circuit, engine) sampler
    /// already initialized.
    pub hits: u64,
    /// Cache misses: requests that had to build a sampler.
    pub misses: u64,
    /// Circuits currently cached.
    pub entries: u64,
    /// Requests answered (any status except BUSY).
    pub served: u64,
    /// Connections rejected with a BUSY frame.
    pub busy: u64,
}

/// A malformed frame, distinguished from transport `io::Error`.
#[derive(Debug)]
pub enum WireError {
    /// Underlying transport failure.
    Io(io::Error),
    /// The bytes violated the protocol; human-readable reason.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

/// Caps the length prefix of a request payload (circuit text): 64 MiB —
/// far beyond any real circuit file, small enough that a corrupt length
/// cannot drive an allocation bomb.
pub const MAX_PAYLOAD: u32 = 64 << 20;

// ---- primitive reads/writes ------------------------------------------

pub(crate) fn write_u32(w: &mut dyn Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn write_u64(w: &mut dyn Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn read_u8(r: &mut dyn Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

pub(crate) fn read_u32(r: &mut dyn Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

pub(crate) fn read_u64(r: &mut dyn Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_magic(r: &mut dyn Read) -> Result<(), WireError> {
    let mut m = [0u8; 4];
    r.read_exact(&mut m)?;
    if m != MAGIC {
        return Err(malformed(format!("bad magic {m:02x?}, want \"SPH1\"")));
    }
    Ok(())
}

// ---- enum codes ------------------------------------------------------

const SOURCES: [RecordSource; 4] = [
    RecordSource::Measurements,
    RecordSource::Detectors,
    RecordSource::Observables,
    RecordSource::DetectorsAndObservables,
];

fn engine_code(engine: EngineKind) -> u8 {
    EngineKind::ALL
        .iter()
        .position(|k| *k == engine)
        .expect("EngineKind::ALL is complete") as u8
}

fn source_code(source: RecordSource) -> u8 {
    SOURCES
        .iter()
        .position(|s| *s == source)
        .expect("SOURCES is complete") as u8
}

fn format_code(format: SampleFormat) -> u8 {
    SampleFormat::ALL
        .iter()
        .position(|f| *f == format)
        .expect("SampleFormat::ALL is complete") as u8
}

// ---- request encode/decode -------------------------------------------

/// Writes `request` (unflushed) to `w`.
pub fn write_request(w: &mut dyn Write, request: &Request) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    match request {
        Request::Stats => w.write_all(&[3]),
        Request::Sample(s) => {
            let kind = match &s.circuit {
                CircuitRef::Text(_) => 1u8,
                CircuitRef::Hash(_) => 2u8,
            };
            w.write_all(&[
                kind,
                engine_code(s.engine),
                source_code(s.source),
                format_code(s.format),
            ])?;
            write_u64(w, s.seed)?;
            write_u64(w, s.start)?;
            write_u64(w, s.end)?;
            match &s.circuit {
                CircuitRef::Text(text) => {
                    write_u32(w, text.len() as u32)?;
                    w.write_all(text.as_bytes())
                }
                CircuitRef::Hash(h) => {
                    write_u32(w, 32)?;
                    w.write_all(&h.0)
                }
            }
        }
    }
}

/// Reads one request from `r`.
pub fn read_request(r: &mut dyn Read) -> Result<Request, WireError> {
    read_magic(r)?;
    let kind = read_u8(r)?;
    if kind == 3 {
        return Ok(Request::Stats);
    }
    if kind != 1 && kind != 2 {
        return Err(malformed(format!("unknown request kind {kind}")));
    }
    let engine_b = read_u8(r)?;
    let engine = *EngineKind::ALL
        .get(engine_b as usize)
        .ok_or_else(|| malformed(format!("unknown engine code {engine_b}")))?;
    let source_b = read_u8(r)?;
    let source = *SOURCES
        .get(source_b as usize)
        .ok_or_else(|| malformed(format!("unknown record-source code {source_b}")))?;
    let format_b = read_u8(r)?;
    let format = *SampleFormat::ALL
        .get(format_b as usize)
        .ok_or_else(|| malformed(format!("unknown format code {format_b}")))?;
    let seed = read_u64(r)?;
    let start = read_u64(r)?;
    let end = read_u64(r)?;
    let len = read_u32(r)?;
    if len > MAX_PAYLOAD {
        return Err(malformed(format!(
            "payload length {len} exceeds the {MAX_PAYLOAD}-byte cap"
        )));
    }
    let circuit = if kind == 1 {
        let mut text = vec![0u8; len as usize];
        r.read_exact(&mut text)?;
        CircuitRef::Text(
            String::from_utf8(text).map_err(|e| malformed(format!("circuit text: {e}")))?,
        )
    } else {
        if len != 32 {
            return Err(malformed(format!(
                "hash payload must be 32 bytes, got {len}"
            )));
        }
        let mut h = [0u8; 32];
        r.read_exact(&mut h)?;
        CircuitRef::Hash(CircuitHash(h))
    };
    Ok(Request::Sample(SampleRequest {
        circuit,
        engine,
        source,
        format,
        seed,
        start,
        end,
    }))
}

// ---- response encode/decode ------------------------------------------

/// Writes a typed error response (flushes).
pub fn write_error(w: &mut dyn Write, code: ErrorCode, message: &str) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&[code as u8])?;
    write_u32(w, message.len() as u32)?;
    w.write_all(message.as_bytes())?;
    w.flush()
}

/// Writes a stats response (flushes).
pub fn write_stats(w: &mut dyn Write, stats: &StatsReply) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&[STATUS_STATS])?;
    for v in [
        stats.hits,
        stats.misses,
        stats.entries,
        stats.served,
        stats.busy,
    ] {
        write_u64(w, v)?;
    }
    w.flush()
}

/// Writes the fixed header of a sample stream (tag-1/tag-2 frames follow).
pub fn write_ok_header(
    w: &mut dyn Write,
    cache_hit: bool,
    rows: u64,
    shots: u64,
) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&[STATUS_OK, cache_hit as u8])?;
    write_u64(w, rows)?;
    write_u64(w, shots)
}

/// The decoded header of a response, before any stream payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseHead {
    /// A sample stream follows as tag-1 data frames ending in tag-2.
    Stream {
        /// Whether the server found the sampler cached.
        cache_hit: bool,
        /// Records per shot.
        rows: u64,
        /// Shots in the range.
        shots: u64,
    },
    /// A stats reply (fully decoded — stats carry no stream).
    Stats(StatsReply),
    /// A typed error.
    Error {
        /// The error code.
        code: ErrorCode,
    },
}

/// Reads a response header. For `ResponseHead::Error` the caller should
/// next call [`read_error_message`]; for `Stream`, [`copy_stream`].
pub fn read_response_head(r: &mut dyn Read) -> Result<ResponseHead, WireError> {
    read_magic(r)?;
    let status = read_u8(r)?;
    if status == STATUS_OK {
        let cache_hit = match read_u8(r)? {
            0 => false,
            1 => true,
            other => return Err(malformed(format!("bad cache_hit byte {other}"))),
        };
        let rows = read_u64(r)?;
        let shots = read_u64(r)?;
        return Ok(ResponseHead::Stream {
            cache_hit,
            rows,
            shots,
        });
    }
    if status == STATUS_STATS {
        let mut vals = [0u64; 5];
        for v in &mut vals {
            *v = read_u64(r)?;
        }
        let [hits, misses, entries, served, busy] = vals;
        return Ok(ResponseHead::Stats(StatsReply {
            hits,
            misses,
            entries,
            served,
            busy,
        }));
    }
    match ErrorCode::from_status(status) {
        Some(code) => Ok(ResponseHead::Error { code }),
        None => Err(malformed(format!("unknown response status {status}"))),
    }
}

/// Reads the message that follows an error status.
pub fn read_error_message(r: &mut dyn Read) -> Result<String, WireError> {
    let len = read_u32(r)?;
    if len > MAX_PAYLOAD {
        return Err(malformed(format!("error message length {len} too large")));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|e| malformed(format!("error message: {e}")))
}

/// Copies a tag-framed sample stream from `r` into `out`, returning the
/// total payload bytes after validating the tag-2 trailer against the
/// bytes actually copied.
pub fn copy_stream(r: &mut dyn Read, out: &mut dyn Write) -> Result<u64, WireError> {
    let mut total: u64 = 0;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let tag = read_u8(r)?;
        let len = read_u32(r)?;
        match tag {
            FRAME_DATA => {
                if len > MAX_PAYLOAD {
                    return Err(malformed(format!("data frame length {len} too large")));
                }
                let mut left = len as usize;
                while left > 0 {
                    let take = left.min(buf.len());
                    r.read_exact(&mut buf[..take])?;
                    out.write_all(&buf[..take])?;
                    left -= take;
                }
                total += len as u64;
            }
            FRAME_END => {
                if len != 8 {
                    return Err(malformed(format!("end frame length {len}, want 8")));
                }
                let declared = read_u64(r)?;
                if declared != total {
                    return Err(malformed(format!(
                        "stream truncated: end frame declares {declared} bytes, received {total}"
                    )));
                }
                return Ok(total);
            }
            other => return Err(malformed(format!("unknown frame tag {other}"))),
        }
    }
}

/// An `io::Write` that packages bytes into tag-1 data frames, flushing a
/// frame whenever the internal buffer fills. [`ChunkFrameWriter::end`]
/// emits the tag-2 trailer. Format sinks write into this to put their
/// byte stream on the wire unchanged.
pub struct ChunkFrameWriter<'w> {
    w: &'w mut dyn Write,
    buf: Vec<u8>,
    frame_len: usize,
    total: u64,
}

impl<'w> ChunkFrameWriter<'w> {
    /// Frames bytes onto `w`, buffering up to about `frame_len` per data
    /// frame (a single larger write becomes a single larger frame).
    pub fn new(w: &'w mut dyn Write, frame_len: usize) -> Self {
        let frame_len = frame_len.max(1);
        Self {
            w,
            buf: Vec::with_capacity(frame_len),
            frame_len,
            total: 0,
        }
    }

    fn flush_frame(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.w.write_all(&[FRAME_DATA])?;
        write_u32(self.w, self.buf.len() as u32)?;
        self.w.write_all(&self.buf)?;
        self.total += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Flushes any buffered frame and writes the tag-2 trailer (flushes
    /// the underlying writer).
    pub fn end(mut self) -> io::Result<u64> {
        self.flush_frame()?;
        self.w.write_all(&[FRAME_END])?;
        write_u32(self.w, 8)?;
        write_u64(self.w, self.total)?;
        self.w.flush()?;
        Ok(self.total)
    }
}

impl Write for ChunkFrameWriter<'_> {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() >= self.frame_len {
            self.flush_frame()?;
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        // Deliberately NOT frame-flushing here: format sinks flush at
        // finish, and tiny trailing frames would fragment the stream. The
        // trailer path (`end`) performs the real flush.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::sha256;

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::Stats,
            Request::Sample(SampleRequest {
                circuit: CircuitRef::Text("H 0\nM 0\n".into()),
                engine: EngineKind::Frame,
                source: RecordSource::DetectorsAndObservables,
                format: SampleFormat::B8,
                seed: 0xDEAD_BEEF,
                start: 4096,
                end: 10_000,
            }),
            Request::Sample(SampleRequest {
                circuit: CircuitRef::Hash(CircuitHash(sha256(b"x"))),
                engine: EngineKind::StateVec,
                source: RecordSource::Measurements,
                format: SampleFormat::Plain01,
                seed: 7,
                start: 0,
                end: 1,
            }),
        ];
        for req in reqs {
            let mut wire = Vec::new();
            write_request(&mut wire, &req).expect("encode");
            let got = read_request(&mut wire.as_slice()).expect("decode");
            assert_eq!(got, req);
        }
    }

    #[test]
    fn engine_codes_are_pinned() {
        let pinned = [
            (EngineKind::SymPhase, 0),
            (EngineKind::Frame, 1),
            (EngineKind::Tableau, 2),
            (EngineKind::StateVec, 3),
        ];
        for (engine, code) in pinned {
            assert_eq!(engine_code(engine), code, "{}", engine.name());
        }
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.extend_from_slice(&[1, 4, 0, 0]);
        wire.extend_from_slice(&[0; 24]); // seed/start/end
        wire.extend_from_slice(&0u32.to_le_bytes());
        let e = read_request(&mut wire.as_slice()).unwrap_err();
        assert!(
            matches!(&e, WireError::Malformed(m) if m.contains("engine code 4")),
            "{e}"
        );
    }

    #[test]
    fn malformed_requests_are_typed_not_io() {
        // Bad magic.
        let e = read_request(&mut &b"NOPE\x03"[..]).unwrap_err();
        assert!(matches!(e, WireError::Malformed(_)), "{e}");
        // Unknown engine code.
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.extend_from_slice(&[1, 200, 0, 0]);
        wire.extend_from_slice(&[0; 24]); // seed/start/end
        wire.extend_from_slice(&0u32.to_le_bytes());
        let e = read_request(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(e, WireError::Malformed(_)), "{e}");
        // Truncated stream is Io, not Malformed.
        let e = read_request(&mut &MAGIC[..]).unwrap_err();
        assert!(matches!(e, WireError::Io(_)), "{e}");
    }

    #[test]
    fn error_and_stats_round_trip() {
        let mut wire = Vec::new();
        write_error(&mut wire, ErrorCode::BadRange, "start 3 unaligned").expect("encode");
        let mut r = wire.as_slice();
        match read_response_head(&mut r).expect("decode") {
            ResponseHead::Error { code } => {
                assert_eq!(code, ErrorCode::BadRange);
                assert_eq!(
                    read_error_message(&mut r).expect("msg"),
                    "start 3 unaligned"
                );
            }
            other => panic!("unexpected head {other:?}"),
        }

        let stats = StatsReply {
            hits: 5,
            misses: 2,
            entries: 2,
            served: 7,
            busy: 1,
        };
        let mut wire = Vec::new();
        write_stats(&mut wire, &stats).expect("encode");
        assert_eq!(
            read_response_head(&mut wire.as_slice()).expect("decode"),
            ResponseHead::Stats(stats)
        );
    }

    #[test]
    fn frame_writer_stream_round_trips() {
        // Frame the bytes with a tiny frame budget (forcing many frames),
        // then copy the stream back out: payload and totals must match.
        let payload: Vec<u8> = (0u32..10_000).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        write_ok_header(&mut wire, true, 3, 100).expect("header");
        {
            let mut fw = ChunkFrameWriter::new(&mut wire, 64);
            use std::io::Write as _;
            fw.write_all(&payload).expect("frame");
            assert_eq!(fw.end().expect("end"), payload.len() as u64);
        }
        let mut r = wire.as_slice();
        match read_response_head(&mut r).expect("head") {
            ResponseHead::Stream {
                cache_hit,
                rows,
                shots,
            } => {
                assert!(cache_hit);
                assert_eq!((rows, shots), (3, 100));
            }
            other => panic!("unexpected head {other:?}"),
        }
        let mut out = Vec::new();
        let total = copy_stream(&mut r, &mut out).expect("copy");
        assert_eq!(total, payload.len() as u64);
        assert_eq!(out, payload);
        assert!(r.is_empty(), "trailing bytes after end frame");
    }

    #[test]
    fn truncated_stream_is_detected() {
        let mut wire = Vec::new();
        {
            let mut fw = ChunkFrameWriter::new(&mut wire, 16);
            use std::io::Write as _;
            for piece in [16, 16, 8] {
                fw.write_all(&vec![7u8; piece]).expect("frame");
            }
            fw.end().expect("end");
        }
        // Drop the first data frame (tag 1 + len u32 + 16 bytes = 21 bytes):
        // the end trailer still declares 40 payload bytes, only 24 arrive.
        let cut: Vec<u8> = wire[21..].to_vec();
        let e = copy_stream(&mut cut.as_slice(), &mut Vec::new()).unwrap_err();
        assert!(
            matches!(&e, WireError::Malformed(m) if m.contains("truncated")),
            "{e}"
        );
    }
}
