//! The `symphase request` client: one connection, one request, one
//! streamed (or typed-error) response.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    copy_stream, read_error_message, read_response_head, write_request, ErrorCode, Request,
    ResponseHead, SampleRequest, StatsReply, WireError,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write).
    Io(io::Error),
    /// The server's bytes violated the protocol.
    Protocol(String),
    /// The server answered with a typed error frame — including `Busy`,
    /// which callers treat as "retry later".
    Server {
        /// The typed code.
        code: ErrorCode,
        /// The server's diagnostic text.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { code, message } => {
                write!(f, "server error [{}]: {message}", code.name())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => ClientError::Io(e),
            WireError::Malformed(m) => ClientError::Protocol(m),
        }
    }
}

impl ClientError {
    /// Whether this is the server's backpressure signal.
    pub fn is_busy(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                code: ErrorCode::Busy,
                ..
            }
        )
    }
}

/// What a successful sample request reports alongside the payload bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleReply {
    /// Whether the server found the (circuit, engine) sampler cached.
    pub cache_hit: bool,
    /// Records per shot under the requested source.
    pub rows: u64,
    /// Shots streamed (`end - start`).
    pub shots: u64,
    /// Formatted payload bytes written to `out`.
    pub bytes: u64,
}

fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpStream> {
    let conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    Ok(conn)
}

/// Sends `request` to `addr`, streaming the formatted sample payload into
/// `out`. The payload bytes are exactly what the offline CLI would write
/// for the same (circuit, seed, range, format, source).
pub fn request_sample(
    addr: impl ToSocketAddrs,
    request: &SampleRequest,
    out: &mut dyn Write,
) -> Result<SampleReply, ClientError> {
    let conn = connect(addr)?;
    let mut w = BufWriter::new(conn.try_clone()?);
    let sent = write_request(&mut w, &Request::Sample(request.clone())).and_then(|()| w.flush());
    drop(w);
    let mut r = BufReader::with_capacity(128 * 1024, conn);
    let head = match sent {
        Ok(()) => read_response_head(&mut r)?,
        // A server that rejects at admission (BUSY) answers without
        // reading the request and closes, which can fail the write; its
        // error frame is still readable and is the real answer.
        Err(e) => match read_response_head(&mut r) {
            Ok(head @ ResponseHead::Error { .. }) => head,
            _ => return Err(e.into()),
        },
    };
    match head {
        ResponseHead::Stream {
            cache_hit,
            rows,
            shots,
        } => {
            let bytes = copy_stream(&mut r, out)?;
            Ok(SampleReply {
                cache_hit,
                rows,
                shots,
                bytes,
            })
        }
        ResponseHead::Error { code } => {
            let message = read_error_message(&mut r)?;
            Err(ClientError::Server { code, message })
        }
        ResponseHead::Stats(_) => Err(ClientError::Protocol(
            "stats reply to a sample request".into(),
        )),
    }
}

/// Fetches the server's counters.
pub fn request_stats(addr: impl ToSocketAddrs) -> Result<StatsReply, ClientError> {
    let mut conn = connect(addr)?;
    write_request(&mut conn, &Request::Stats)?;
    conn.flush()?;
    match read_response_head(&mut BufReader::new(&mut conn))? {
        ResponseHead::Stats(stats) => Ok(stats),
        ResponseHead::Error { .. } => Err(ClientError::Protocol(
            "error reply to a stats request".into(),
        )),
        ResponseHead::Stream { .. } => Err(ClientError::Protocol(
            "stream reply to a stats request".into(),
        )),
    }
}

/// A raw connection that deliberately never sends a request — it occupies
/// a queue slot (and, once popped, a worker) until dropped or timed out.
/// This is how tests and the CI smoke fill the queue to make `BUSY`
/// deterministic; `_guard`-style ownership keeps the socket open.
pub struct HeldConnection {
    conn: TcpStream,
}

impl HeldConnection {
    /// Connects without sending anything.
    pub fn open(addr: impl ToSocketAddrs) -> io::Result<HeldConnection> {
        Ok(HeldConnection {
            conn: connect(addr)?,
        })
    }

    /// Reads the server's response, if any — a held connection that got
    /// rejected at admission receives a `BUSY` frame.
    pub fn read_reply(mut self) -> Result<(ErrorCode, String), ClientError> {
        let head = read_response_head(&mut self.conn)?;
        match head {
            ResponseHead::Error { code } => {
                let message = read_error_message(&mut self.conn)?;
                Ok((code, message))
            }
            other => Err(ClientError::Protocol(format!(
                "expected an error frame on a held connection, got {other:?}"
            ))),
        }
    }
}
