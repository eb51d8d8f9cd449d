//! Blocking client for the gnumap serving protocol.

use crate::metrics::StatsSnapshot;
use crate::protocol::{
    read_response, write_request, CallResult, ErrorKind, Incoming, ProtocolError, Request,
    Response, SessionConfig,
};
use genome::read::SequencedRead;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Reads per submit when a client streams a read file: the loopback
/// server driver's chunk and `gnumap client --chunk-size`'s default.
pub const SUBMIT_CHUNK_READS: usize = 256;

/// Pause before each retry in [`Client::submit_reads_retrying`].
pub const BUSY_RETRY_PAUSE: Duration = Duration::from_millis(50);

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The wire protocol broke down (decode failure, unexpected EOF).
    Protocol(ProtocolError),
    /// Transport failure.
    Io(io::Error),
    /// The server answered with a typed error frame.
    Server {
        /// The error class (`Busy`, `Timeout`, ...).
        kind: ErrorKind,
        /// Server-provided detail.
        message: String,
    },
    /// The server answered with a frame that does not fit the request.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Server { kind, message } => write!(f, "server error ({kind}): {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        match e {
            ProtocolError::Io(io_err) => ClientError::Io(io_err),
            other => ClientError::Protocol(other),
        }
    }
}

impl ClientError {
    /// Whether this is a typed server error of the given kind.
    pub fn is_kind(&self, k: ErrorKind) -> bool {
        matches!(self, ClientError::Server { kind, .. } if *kind == k)
    }
}

/// A blocking connection to a gnumap server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_request(&mut self.writer, request)?;
        match read_response(&mut self.reader, None)? {
            Incoming::Frame(Response::Error { kind, message }) => {
                Err(ClientError::Server { kind, message })
            }
            Incoming::Frame(resp) => Ok(resp),
            Incoming::Eof => Err(ClientError::Unexpected(
                "connection closed mid-request".into(),
            )),
            Incoming::Idle => unreachable!("no read timeout set on client socket"),
        }
    }

    /// Open a session; returns its id.
    pub fn open_session(&mut self, config: SessionConfig) -> Result<u64, ClientError> {
        match self.call(&Request::OpenSession(config))? {
            Response::SessionOpened { session } => Ok(session),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Submit a chunk of reads; returns how many were admitted. A `Busy`
    /// rejection surfaces as `ClientError::Server { kind: Busy, .. }` —
    /// retry after a pause.
    pub fn submit_reads(
        &mut self,
        session: u64,
        reads: &[SequencedRead],
    ) -> Result<u32, ClientError> {
        let request = Request::SubmitReads {
            session,
            reads: reads.to_vec(),
        };
        match self.call(&request)? {
            Response::ReadsAccepted { accepted, .. } => Ok(accepted),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// [`Client::submit_reads`], sleeping [`BUSY_RETRY_PAUSE`] and
    /// retrying on each typed `Busy` until the chunk is admitted. Any
    /// other error is returned as is.
    pub fn submit_reads_retrying(
        &mut self,
        session: u64,
        reads: &[SequencedRead],
    ) -> Result<u32, ClientError> {
        loop {
            match self.submit_reads(session, reads) {
                Err(err) if err.is_kind(ErrorKind::Busy) => std::thread::sleep(BUSY_RETRY_PAUSE),
                result => return result,
            }
        }
    }

    /// Finalize the session: wait (server-side, up to `deadline_ms`; 0 =
    /// server default) for its reads to drain, then fetch calls.
    pub fn finalize(&mut self, session: u64, deadline_ms: u32) -> Result<CallResult, ClientError> {
        let request = Request::Finalize {
            session,
            deadline_ms,
        };
        match self.call(&request)? {
            Response::SnpCalls(result) => Ok(result),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self, nonce: u64) -> Result<(), ClientError> {
        match self.call(&Request::Ping { nonce })? {
            Response::Pong { nonce: echoed } if echoed == nonce => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetch the server's per-stage counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.call(&Request::Stats)? {
            Response::StatsReport(s) => Ok(s),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Ask the server to drain and stop.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}
