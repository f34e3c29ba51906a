//! The sampling daemon: accept loop, bounded queue, worker pool.
//!
//! Architecture (one connection = one request = one response):
//!
//! ```text
//! accept loop ──try_push──▶ BoundedQueue ──pop──▶ worker × N
//!      │ full?                                       │
//!      ▼                                             ▼
//!   BUSY frame                        read request → cache → stream range
//! ```
//!
//! The accept thread never reads a request, so a slow (or malicious)
//! client cannot stall admission for long; it only enqueues the raw
//! socket or answers `BUSY` when the queue is full (then drains the
//! rejected socket for at most 100 ms, so the close does not reset the
//! frame away). Workers own the whole request lifecycle under a read
//! timeout. Within one request, sampling fans out over the vendored
//! work-stealing rayon pool according to the server's `--threads` budget
//! — and because every chunk is seeded by its *global* schedule index,
//! the bytes served for a (circuit, seed, range) are identical however
//! the work is split (see `symphase_backend::stream_range_with_config`).

use std::any::Any;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use symphase_backend::formats::SampleFormat;
use symphase_backend::sink::ShotSpec;
use symphase_backend::{stream_range_with_config, BuildError, Sampler, SimConfig, CHUNK_SHOTS};
use symphase_circuit::Circuit;

use crate::cache::{CacheError, CircuitCache};
use crate::hash::circuit_hash;
use crate::protocol::{
    read_request, write_error, write_ok_header, write_stats, ChunkFrameWriter, CircuitRef,
    ErrorCode, Request, SampleRequest, StatsReply, WireError,
};
use crate::queue::BoundedQueue;

/// Builds a sampler for a cached circuit — injected by the binary so this
/// crate never depends on the engine crates (the facade's
/// `backend::build_sampler` is the production factory).
pub type SamplerFactory =
    Arc<dyn Fn(&Circuit, &SimConfig) -> Result<Box<dyn Sampler>, BuildError> + Send + Sync>;

/// An optional admission gate run before a circuit's first sampler build
/// (the CLI's `--lint` wires `symphase_analysis` in here); `Err` text is
/// returned to the client in a `Lint` error frame.
pub type LintGate = Arc<dyn Fn(&Circuit) -> Result<(), String> + Send + Sync>;

/// Server tuning knobs (every one surfaced as a `symphase serve` flag).
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads handling requests (each may fan sampling out
    /// further per `threads`).
    pub workers: usize,
    /// Queued connections admitted beyond the ones being worked; the
    /// next connection gets a `BUSY` frame.
    pub max_queue: usize,
    /// Circuits kept initialized in the LRU cache.
    pub cache_capacity: usize,
    /// Per-request sampling thread budget (`0` = all cores, `1` =
    /// serial), passed through to `stream_range_with_config`.
    pub threads: usize,
    /// Chunk width in shots; range starts must be multiples of this.
    pub chunk_shots: usize,
    /// Run the verified optimizer once per circuit before caching.
    pub optimize: bool,
    /// Per-connection read timeout (a stalled client frees its worker).
    pub read_timeout: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            max_queue: 32,
            cache_capacity: 64,
            threads: 0,
            chunk_shots: CHUNK_SHOTS,
            optimize: false,
            read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

struct Shared {
    cache: CircuitCache,
    queue: BoundedQueue<TcpStream>,
    options: ServeOptions,
    factory: SamplerFactory,
    lint: Option<LintGate>,
    served: AtomicU64,
    busy: AtomicU64,
    /// Connections a worker has popped and not yet finished.
    in_flight: AtomicUsize,
    shutdown: AtomicBool,
}

impl Shared {
    fn stats(&self) -> StatsReply {
        StatsReply {
            hits: self.cache.hits(),
            misses: self.cache.misses(),
            entries: self.cache.entries(),
            served: self.served.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
        }
    }
}

/// A bound, not-yet-running server. [`Server::run`] blocks the calling
/// thread (the CLI path); [`Server::spawn`] runs everything on background
/// threads and returns a [`ServerHandle`] (the test and bench path).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7app` or `127.0.0.1:0` for an
    /// ephemeral test port) with the given options and sampler factory.
    ///
    /// A chunk width every request would fail on (zero, or not a
    /// multiple of 64) is rejected here with
    /// [`io::ErrorKind::InvalidInput`] carrying the [`BuildError`] text.
    pub fn bind(
        addr: impl ToSocketAddrs,
        options: ServeOptions,
        factory: SamplerFactory,
        lint: Option<LintGate>,
    ) -> io::Result<Server> {
        SimConfig::new()
            .with_chunk_shots(options.chunk_shots)
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cache: CircuitCache::new(options.cache_capacity),
            queue: BoundedQueue::new(options.max_queue),
            options,
            factory,
            lint,
            served: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        Ok(Server {
            listener,
            addr,
            shared,
        })
    }

    /// The bound address (reports the ephemeral port after `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    fn spawn_workers(&self) -> Vec<JoinHandle<()>> {
        (0..self.shared.options.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || {
                    while let Some(conn) = shared.queue.pop() {
                        shared.in_flight.fetch_add(1, Ordering::Relaxed);
                        handle_conn_isolated(&shared, conn);
                        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                    }
                })
            })
            .collect()
    }

    /// Runs the server on the calling thread until the process dies (the
    /// `symphase serve` CLI path: lifetime management is the caller's —
    /// CI kills the daemon; interactive users hit Ctrl-C).
    pub fn run(self) -> io::Result<()> {
        let workers = self.spawn_workers();
        let result = accept_loop(&self.listener, &self.shared);
        self.shared.queue.close();
        for w in workers {
            let _ = w.join();
        }
        result
    }

    /// Runs the accept loop and workers on background threads, returning
    /// a handle that can stop them cleanly.
    pub fn spawn(self) -> ServerHandle {
        let workers = self.spawn_workers();
        let addr = self.addr;
        let shared = Arc::clone(&self.shared);
        let listener = self.listener;
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            workers,
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) -> io::Result<()> {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let conn = match conn {
            Ok(c) => c,
            // Transient per-connection failures must not kill the daemon.
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if let Err(conn) = shared.queue.try_push(conn) {
            shared.busy.fetch_add(1, Ordering::Relaxed);
            reject_busy(conn);
        }
    }
    Ok(())
}

/// How long the accept loop drains a rejected connection before closing it.
const REJECT_DRAIN_TIME: Duration = Duration::from_millis(100);
/// How many bytes of a rejected connection's request it drains at most.
const REJECT_DRAIN_BYTES: usize = 64 * 1024;

/// Answers `BUSY` and closes gracefully: half-close, then drain what the
/// client sent (bounded in time and bytes) until it closes its side.
/// Closing with unread request bytes would send a reset instead of a FIN,
/// and the client could see "connection reset" in place of the frame.
fn reject_busy(mut conn: TcpStream) {
    let _ = write_error(
        &mut conn,
        ErrorCode::Busy,
        "request queue full; retry later",
    );
    if conn.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let deadline = Instant::now() + REJECT_DRAIN_TIME;
    let mut buf = [0u8; 4096];
    let mut left = REJECT_DRAIN_BYTES;
    while left > 0 {
        let wait = deadline.saturating_duration_since(Instant::now());
        if wait.is_zero() || conn.set_read_timeout(Some(wait)).is_err() {
            break;
        }
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => left = left.saturating_sub(n),
        }
    }
}

/// A running server; dropping the handle **without** calling
/// [`ServerHandle::shutdown`] leaks the background threads (they keep
/// serving), so tests should always shut down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<io::Result<()>>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters (the same numbers a stats request reports).
    pub fn stats(&self) -> StatsReply {
        self.shared.stats()
    }

    /// Connections a worker is handling right now (popped from the queue
    /// and not yet finished).
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Connections admitted to the queue and not yet popped by a worker.
    pub fn queued(&self) -> usize {
        self.shared.queue.len()
    }

    /// Stops accepting, drains the queue, and joins every thread.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let accept_result = match self.accept.take() {
            Some(h) => h
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("accept thread panicked"))),
            None => Ok(()),
        };
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        accept_result
    }
}

/// [`handle_conn`] behind a panic boundary: a request that panics is
/// answered with an `Internal` frame on a second handle to its socket,
/// and the worker goes on to the next connection.
fn handle_conn_isolated(shared: &Shared, conn: TcpStream) {
    let reply = conn.try_clone();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| handle_conn(shared, conn)));
    if let (Err(payload), Ok(mut reply)) = (outcome, reply) {
        let message = format!("request panicked: {}", panic_message(&*payload));
        let _ = write_error(&mut reply, ErrorCode::Internal, &message);
    }
}

/// The text of a panic payload (`panic!` carries a `&str` or a `String`).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// One request lifecycle on a worker thread. All response errors are
/// best-effort: a client that hung up mid-reply is not a server problem.
fn handle_conn(shared: &Shared, mut conn: TcpStream) {
    let _ = conn.set_read_timeout(shared.options.read_timeout);
    let _ = conn.set_nodelay(true);
    // One buffered read takes in the header (and usually the payload),
    // where decoding the raw socket field by field costs a `recv` each.
    // A connection carries one request, so nothing buffered is lost.
    match read_request(&mut BufReader::new(&conn)) {
        // Transport failure before a full request: nothing to answer.
        Err(WireError::Io(_)) => {}
        Err(WireError::Malformed(m)) => {
            let _ = write_error(&mut conn, ErrorCode::Malformed, &m);
        }
        Ok(Request::Stats) => {
            shared.served.fetch_add(1, Ordering::Relaxed);
            let _ = write_stats(&mut conn, &shared.stats());
        }
        Ok(Request::Sample(req)) => {
            shared.served.fetch_add(1, Ordering::Relaxed);
            let mut out = BufWriter::with_capacity(128 * 1024, conn);
            if let Err(Reject { code, message }) = serve_sample(shared, &mut out, &req) {
                // Reach the raw socket again: the rejection must not sit
                // behind an unflushed buffer.
                let _ = out.flush();
                if let Ok(conn) = out.into_inner() {
                    let mut conn = conn;
                    let _ = write_error(&mut conn, code, &message);
                }
            }
        }
    }
}

/// A typed rejection: becomes an error frame on the wire.
struct Reject {
    code: ErrorCode,
    message: String,
}

fn reject(code: ErrorCode, message: impl Into<String>) -> Reject {
    Reject {
        code,
        message: message.into(),
    }
}

fn serve_sample<W: Write>(shared: &Shared, out: &mut W, req: &SampleRequest) -> Result<(), Reject> {
    if req.format == SampleFormat::Counts {
        return Err(reject(
            ErrorCode::Unsupported,
            "the aggregated 'counts' format is not streamable over the wire; \
             request '01', 'b8', 'hits', or 'dets' and aggregate client-side",
        ));
    }
    let chunk_shots = shared.options.chunk_shots;
    let (start, end) = (req.start, req.end);
    if start > end {
        return Err(reject(
            ErrorCode::BadRange,
            format!("inverted shot range [{start}, {end})"),
        ));
    }
    if start % (chunk_shots as u64) != 0 {
        return Err(reject(
            ErrorCode::BadRange,
            format!(
                "shot-range start {start} is not a multiple of the server's \
                 chunk width {chunk_shots}; unaligned starts would break \
                 byte-identity with the full-run chunk schedule"
            ),
        ));
    }
    let (start, end) = match (usize::try_from(start), usize::try_from(end)) {
        (Ok(s), Ok(e)) => (s, e),
        _ => return Err(reject(ErrorCode::BadRange, "shot range exceeds usize")),
    };
    let (hash, parsed) = match &req.circuit {
        CircuitRef::Text(text) => {
            let circuit = Circuit::parse(text)
                .map_err(|e| reject(ErrorCode::Parse, format!("circuit did not parse: {e}")))?;
            (circuit_hash(&circuit), Some(circuit))
        }
        CircuitRef::Hash(h) => (*h, None),
    };
    let config = SimConfig::new()
        .with_engine(req.engine)
        .with_seed(req.seed)
        .with_threads(shared.options.threads)
        .with_chunk_shots(chunk_shots)
        .with_optimize(shared.options.optimize);
    let (sampler, cache_hit) = shared
        .cache
        .get_or_build(hash, parsed, req.engine, |circuit| {
            if let Some(lint) = &shared.lint {
                lint(circuit).map_err(|m| reject(ErrorCode::Lint, m))?;
            }
            (shared.factory)(circuit, &config).map_err(|e| reject(ErrorCode::Build, e.to_string()))
        })
        .map_err(|e| match e {
            CacheError::UnknownHash => reject(
                ErrorCode::UnknownHash,
                format!("no cached circuit with hash {hash}; send the circuit text once"),
            ),
            CacheError::Build(r) => r,
        })?;
    let shots = end - start;
    let rows = req.source.rows(&ShotSpec::of(&*sampler, shots)) as u64;
    // From here on every failure is transport i/o: the client is gone and
    // there is nobody to send an error frame to.
    let mut stream = || -> io::Result<()> {
        write_ok_header(out, cache_hit, rows, shots as u64)?;
        let mut frames = ChunkFrameWriter::new(out, 256 * 1024);
        {
            let mut sink = req.format.sink(&mut frames, req.source);
            stream_range_with_config(&*sampler, start, end, &config, sink.as_mut())?;
        }
        frames.end()?;
        Ok(())
    };
    stream().map_err(|e| reject(ErrorCode::Internal, format!("stream aborted: {e}")))
}
