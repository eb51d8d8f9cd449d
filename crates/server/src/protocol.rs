//! The length-prefixed binary wire protocol.
//!
//! Every frame is `u32 length (LE) | u8 tag | payload`, where `length`
//! counts the tag byte plus the payload. Requests flow client → server,
//! responses server → client; the session API is
//! `OpenSession → SubmitReads* → Finalize → SnpCalls`, with
//! `Ping`/`Stats`/`Shutdown` control frames usable at any point.
//!
//! Decoding is total: any byte stream either parses into a frame or
//! produces a typed [`ProtocolError`] — oversized length prefixes,
//! truncated payloads, unknown tags and bad UTF-8 are all rejected
//! without panicking, unbounded allocation, or silently mis-parsing
//! (asserted by `tests/proptest_framing.rs`).
//!
//! SNP calls travel in the same flat 11-`f64` stride the MPI drivers use
//! ([`gnumap_core::driver::encode_calls`]), serialised at the bit level,
//! so a loopback round trip preserves calls `f64::to_bits`-exactly.

use crate::metrics::StatsSnapshot;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use gnumap_core::driver::{decode_calls, encode_calls};
use gnumap_core::snpcall::{Cutoff, SnpCall, SnpCallConfig};
use gnumap_stats::lrt::Ploidy;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Hard ceiling on one frame's body (tag + payload), protecting the
/// server from hostile length prefixes.
pub const MAX_FRAME: usize = 32 << 20;
/// Most reads one `SubmitReads` frame may carry.
pub const MAX_READS_PER_SUBMIT: usize = 1 << 16;
/// Longest single read accepted on the wire.
pub const MAX_READ_LEN: usize = 1 << 20;

// Request tags (client → server).
const TAG_OPEN_SESSION: u8 = 0x01;
const TAG_SUBMIT_READS: u8 = 0x02;
const TAG_FINALIZE: u8 = 0x03;
const TAG_PING: u8 = 0x04;
const TAG_STATS: u8 = 0x05;
const TAG_SHUTDOWN: u8 = 0x06;

// Response tags (server → client).
const TAG_SESSION_OPENED: u8 = 0x81;
const TAG_READS_ACCEPTED: u8 = 0x82;
const TAG_SNP_CALLS: u8 = 0x83;
const TAG_PONG: u8 = 0x84;
const TAG_STATS_REPORT: u8 = 0x85;
const TAG_SHUTTING_DOWN: u8 = 0x86;
const TAG_ERROR: u8 = 0x8F;

/// Why a frame failed to decode (or a stream failed to yield one).
#[derive(Debug)]
pub enum ProtocolError {
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The declared body length.
        len: usize,
    },
    /// The stream ended (or the payload ran out) before the named field.
    Truncated(&'static str),
    /// The frame tag is not part of the protocol.
    UnknownTag(u8),
    /// A string field held invalid UTF-8.
    BadUtf8(&'static str),
    /// A structurally valid frame carried semantically invalid content.
    Malformed(String),
    /// The peer stopped sending mid-frame for longer than the stall cap.
    Stalled,
    /// Transport failure.
    Io(io::Error),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Oversized { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME}-byte cap")
            }
            ProtocolError::Truncated(what) => write!(f, "frame truncated before {what}"),
            ProtocolError::UnknownTag(tag) => write!(f, "unknown frame tag {tag:#04x}"),
            ProtocolError::BadUtf8(what) => write!(f, "invalid UTF-8 in {what}"),
            ProtocolError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            ProtocolError::Stalled => write!(f, "peer stalled mid-frame"),
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Typed reason carried by an error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Admission control shed the request (bounded queue full).
    Busy,
    /// A deadline expired before the work drained.
    Timeout,
    /// The request failed to decode or carried invalid content.
    Malformed,
    /// The session id is not (or no longer) registered.
    UnknownSession,
    /// The session no longer accepts this operation (finalizing/aborted).
    SessionClosed,
    /// The server is draining and takes no new work.
    ShuttingDown,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorKind {
    fn to_u8(self) -> u8 {
        match self {
            ErrorKind::Busy => 0,
            ErrorKind::Timeout => 1,
            ErrorKind::Malformed => 2,
            ErrorKind::UnknownSession => 3,
            ErrorKind::SessionClosed => 4,
            ErrorKind::ShuttingDown => 5,
            ErrorKind::Internal => 6,
        }
    }

    fn from_u8(v: u8) -> Option<ErrorKind> {
        Some(match v {
            0 => ErrorKind::Busy,
            1 => ErrorKind::Timeout,
            2 => ErrorKind::Malformed,
            3 => ErrorKind::UnknownSession,
            4 => ErrorKind::SessionClosed,
            5 => ErrorKind::ShuttingDown,
            6 => ErrorKind::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorKind::Busy => "busy",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Malformed => "malformed",
            ErrorKind::UnknownSession => "unknown-session",
            ErrorKind::SessionClosed => "session-closed",
            ErrorKind::ShuttingDown => "shutting-down",
            ErrorKind::Internal => "internal",
        };
        f.write_str(name)
    }
}

/// Per-session calling configuration carried by `OpenSession`. The
/// reference genome and mapping parameters are server-side state; a
/// session only chooses how its accumulated evidence is tested.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Monoploid or diploid LRT hypotheses.
    pub ploidy: Ploidy,
    /// p-value or FDR significance rule.
    pub cutoff: Cutoff,
    /// Minimum accumulated evidence mass to test a position.
    pub min_total: f64,
}

impl SessionConfig {
    /// Lift into the core caller configuration.
    pub fn to_call_config(self) -> SnpCallConfig {
        SnpCallConfig {
            ploidy: self.ploidy,
            cutoff: self.cutoff,
            min_total: self.min_total,
        }
    }
}

impl From<SnpCallConfig> for SessionConfig {
    fn from(c: SnpCallConfig) -> Self {
        SessionConfig {
            ploidy: c.ploidy,
            cutoff: c.cutoff,
            min_total: c.min_total,
        }
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        SnpCallConfig::default().into()
    }
}

/// A client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session with the given calling configuration.
    OpenSession(SessionConfig),
    /// Append a chunk of reads to a session's evidence.
    SubmitReads {
        /// Target session id.
        session: u64,
        /// The reads; at most [`MAX_READS_PER_SUBMIT`].
        reads: Vec<SequencedRead>,
    },
    /// Close the session, wait for its reads to drain (up to
    /// `deadline_ms`; 0 selects the server default) and return calls.
    Finalize {
        /// Target session id.
        session: u64,
        /// Per-request deadline in milliseconds (0 = server default).
        deadline_ms: u32,
    },
    /// Liveness probe; echoed back in `Pong`.
    Ping {
        /// Arbitrary value the server echoes.
        nonce: u64,
    },
    /// Fetch the server's per-stage counters.
    Stats,
    /// Ask the server to drain and stop.
    Shutdown,
}

/// Everything a finalized session returns.
#[derive(Debug, Clone, PartialEq)]
pub struct CallResult {
    /// The session the calls belong to.
    pub session: u64,
    /// Order-independent fingerprint of the session's final
    /// `FixedAccumulator` (bit-identical to a serial run's digest).
    pub digest: u64,
    /// Reads deposited into the session.
    pub reads_processed: u64,
    /// Reads that produced at least one alignment.
    pub reads_mapped: u64,
    /// The SNP calls.
    pub calls: Vec<SnpCall>,
}

/// A server → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A session was opened with this id.
    SessionOpened {
        /// The new session id.
        session: u64,
    },
    /// A `SubmitReads` chunk was admitted.
    ReadsAccepted {
        /// The session the reads joined.
        session: u64,
        /// Number of reads admitted (the whole chunk).
        accepted: u32,
    },
    /// A finalized session's calls.
    SnpCalls(CallResult),
    /// `Ping` echo.
    Pong {
        /// The request's nonce.
        nonce: u64,
    },
    /// Current per-stage counters.
    StatsReport(StatsSnapshot),
    /// Acknowledgement that the server is draining and will stop.
    ShuttingDown,
    /// A typed failure.
    Error {
        /// What class of failure.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------
// Payload reader/writer
// ---------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked cursor over one frame's payload.
struct Payload<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Payload<'a> {
    fn new(buf: &'a [u8]) -> Payload<'a> {
        Payload { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ProtocolError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtocolError::Truncated(what));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, ProtocolError> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn finish(self, what: &'static str) -> Result<(), ProtocolError> {
        if self.pos != self.buf.len() {
            return Err(ProtocolError::Malformed(format!(
                "{what}: {} trailing byte(s) after the payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------

fn put_session_config(buf: &mut Vec<u8>, cfg: &SessionConfig) {
    buf.push(match cfg.ploidy {
        Ploidy::Monoploid => 0,
        Ploidy::Diploid => 1,
    });
    let (kind, value) = match cfg.cutoff {
        Cutoff::PValue(a) => (0u8, a),
        Cutoff::Fdr(q) => (1u8, q),
    };
    buf.push(kind);
    put_f64(buf, value);
    put_f64(buf, cfg.min_total);
}

fn get_session_config(p: &mut Payload<'_>) -> Result<SessionConfig, ProtocolError> {
    let ploidy = match p.u8("ploidy")? {
        0 => Ploidy::Monoploid,
        1 => Ploidy::Diploid,
        other => {
            return Err(ProtocolError::Malformed(format!(
                "unknown ploidy code {other}"
            )))
        }
    };
    let kind = p.u8("cutoff kind")?;
    let value = p.f64("cutoff value")?;
    let cutoff = match kind {
        0 => Cutoff::PValue(value),
        1 => Cutoff::Fdr(value),
        other => {
            return Err(ProtocolError::Malformed(format!(
                "unknown cutoff code {other}"
            )))
        }
    };
    let config = SessionConfig {
        ploidy,
        cutoff,
        min_total: p.f64("min_total")?,
    };
    config
        .to_call_config()
        .validate()
        .map_err(ProtocolError::Malformed)?;
    Ok(config)
}

fn put_reads(buf: &mut Vec<u8>, reads: &[SequencedRead]) {
    put_u32(buf, reads.len() as u32);
    for read in reads {
        put_u16(buf, read.id.len() as u16);
        buf.extend_from_slice(read.id.as_bytes());
        put_u32(buf, read.len() as u32);
        for base in read.seq.iter() {
            buf.push(base.map_or(b'N', |b| b.to_ascii()));
        }
        buf.extend_from_slice(&read.quals);
    }
}

fn get_reads(p: &mut Payload<'_>) -> Result<Vec<SequencedRead>, ProtocolError> {
    let count = p.u32("read count")? as usize;
    if count > MAX_READS_PER_SUBMIT {
        return Err(ProtocolError::Malformed(format!(
            "{count} reads in one frame exceeds the {MAX_READS_PER_SUBMIT} cap"
        )));
    }
    let mut reads = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let id_len = p.u16("read id length")? as usize;
        let id = std::str::from_utf8(p.take(id_len, "read id")?)
            .map_err(|_| ProtocolError::BadUtf8("read id"))?
            .to_string();
        let len = p.u32("read length")? as usize;
        if len > MAX_READ_LEN {
            return Err(ProtocolError::Malformed(format!(
                "read {id:?}: length {len} exceeds the {MAX_READ_LEN} cap"
            )));
        }
        let seq = DnaSeq::from_ascii(p.take(len, "read bases")?)
            .map_err(|e| ProtocolError::Malformed(format!("read {id:?}: {e}")))?;
        let quals = p.take(len, "read qualities")?.to_vec();
        let read = SequencedRead::new(id, seq, quals)
            .map_err(|e| ProtocolError::Malformed(e.to_string()))?;
        reads.push(read);
    }
    Ok(reads)
}

fn put_calls(buf: &mut Vec<u8>, calls: &[SnpCall]) {
    let wire = encode_calls(calls);
    put_u32(buf, calls.len() as u32);
    for v in &wire {
        put_f64(buf, *v);
    }
}

fn get_calls(p: &mut Payload<'_>) -> Result<Vec<SnpCall>, ProtocolError> {
    let count = p.u32("call count")? as usize;
    // CALL_STRIDE is 11 f64s; cap implied by MAX_FRAME either way.
    let mut wire = Vec::with_capacity((count * 11).min(1 << 20));
    for _ in 0..count * 11 {
        wire.push(p.f64("call payload")?);
    }
    decode_calls(&wire).map_err(|e| ProtocolError::Malformed(e.to_string()))
}

fn put_stats(buf: &mut Vec<u8>, s: &StatsSnapshot) {
    put_u64(buf, s.sessions_open);
    put_u64(buf, s.sessions_opened);
    put_u64(buf, s.sessions_aborted);
    put_u64(buf, s.reads_accepted);
    put_u64(buf, s.reads_processed);
    put_u64(buf, s.reads_mapped);
    put_u64(buf, s.alignments_kept);
    put_u64(buf, s.deposit_columns);
    put_u64(buf, s.batches_dispatched);
    put_u64(buf, s.cross_session_batches);
    put_u64(buf, s.busy_rejections);
    put_u64(buf, s.timeouts);
    put_u64(buf, s.ingress_depth);
    put_u64(buf, s.max_ingress_depth);
    put_f64(buf, s.mean_batch_occupancy);
    put_f64(buf, s.mean_sessions_per_batch);
    put_u64(buf, s.p50_service_micros);
    put_u64(buf, s.p99_service_micros);
    put_f64(buf, s.worker_cpu_secs);
    put_f64(buf, s.max_worker_cpu_secs);
}

fn get_stats(p: &mut Payload<'_>) -> Result<StatsSnapshot, ProtocolError> {
    Ok(StatsSnapshot {
        sessions_open: p.u64("sessions_open")?,
        sessions_opened: p.u64("sessions_opened")?,
        sessions_aborted: p.u64("sessions_aborted")?,
        reads_accepted: p.u64("reads_accepted")?,
        reads_processed: p.u64("reads_processed")?,
        reads_mapped: p.u64("reads_mapped")?,
        alignments_kept: p.u64("alignments_kept")?,
        deposit_columns: p.u64("deposit_columns")?,
        batches_dispatched: p.u64("batches_dispatched")?,
        cross_session_batches: p.u64("cross_session_batches")?,
        busy_rejections: p.u64("busy_rejections")?,
        timeouts: p.u64("timeouts")?,
        ingress_depth: p.u64("ingress_depth")?,
        max_ingress_depth: p.u64("max_ingress_depth")?,
        mean_batch_occupancy: p.f64("mean_batch_occupancy")?,
        mean_sessions_per_batch: p.f64("mean_sessions_per_batch")?,
        p50_service_micros: p.u64("p50_service_micros")?,
        p99_service_micros: p.u64("p99_service_micros")?,
        worker_cpu_secs: p.f64("worker_cpu_secs")?,
        max_worker_cpu_secs: p.f64("max_worker_cpu_secs")?,
    })
}

// ---------------------------------------------------------------------
// Frame encode
// ---------------------------------------------------------------------

fn frame(tag: u8, payload: Vec<u8>) -> Vec<u8> {
    let body_len = 1 + payload.len();
    debug_assert!(body_len <= MAX_FRAME);
    let mut out = Vec::with_capacity(4 + body_len);
    put_u32(&mut out, body_len as u32);
    out.push(tag);
    out.extend_from_slice(&payload);
    out
}

impl Request {
    /// Serialise into one complete frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        let tag = match self {
            Request::OpenSession(cfg) => {
                put_session_config(&mut p, cfg);
                TAG_OPEN_SESSION
            }
            Request::SubmitReads { session, reads } => {
                put_u64(&mut p, *session);
                put_reads(&mut p, reads);
                TAG_SUBMIT_READS
            }
            Request::Finalize {
                session,
                deadline_ms,
            } => {
                put_u64(&mut p, *session);
                put_u32(&mut p, *deadline_ms);
                TAG_FINALIZE
            }
            Request::Ping { nonce } => {
                put_u64(&mut p, *nonce);
                TAG_PING
            }
            Request::Stats => TAG_STATS,
            Request::Shutdown => TAG_SHUTDOWN,
        };
        frame(tag, p)
    }

    /// Parse one request body (`tag` byte already split off).
    fn decode(tag: u8, payload: &[u8]) -> Result<Request, ProtocolError> {
        let mut p = Payload::new(payload);
        let req = match tag {
            TAG_OPEN_SESSION => Request::OpenSession(get_session_config(&mut p)?),
            TAG_SUBMIT_READS => Request::SubmitReads {
                session: p.u64("session id")?,
                reads: get_reads(&mut p)?,
            },
            TAG_FINALIZE => Request::Finalize {
                session: p.u64("session id")?,
                deadline_ms: p.u32("deadline")?,
            },
            TAG_PING => Request::Ping {
                nonce: p.u64("nonce")?,
            },
            TAG_STATS => Request::Stats,
            TAG_SHUTDOWN => Request::Shutdown,
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        p.finish("request")?;
        Ok(req)
    }
}

impl Response {
    /// Serialise into one complete frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        let tag = match self {
            Response::SessionOpened { session } => {
                put_u64(&mut p, *session);
                TAG_SESSION_OPENED
            }
            Response::ReadsAccepted { session, accepted } => {
                put_u64(&mut p, *session);
                put_u32(&mut p, *accepted);
                TAG_READS_ACCEPTED
            }
            Response::SnpCalls(result) => {
                put_u64(&mut p, result.session);
                put_u64(&mut p, result.digest);
                put_u64(&mut p, result.reads_processed);
                put_u64(&mut p, result.reads_mapped);
                put_calls(&mut p, &result.calls);
                TAG_SNP_CALLS
            }
            Response::Pong { nonce } => {
                put_u64(&mut p, *nonce);
                TAG_PONG
            }
            Response::StatsReport(s) => {
                put_stats(&mut p, s);
                TAG_STATS_REPORT
            }
            Response::ShuttingDown => TAG_SHUTTING_DOWN,
            Response::Error { kind, message } => {
                p.push(kind.to_u8());
                put_u32(&mut p, message.len() as u32);
                p.extend_from_slice(message.as_bytes());
                TAG_ERROR
            }
        };
        frame(tag, p)
    }

    /// Parse one response body (`tag` byte already split off).
    fn decode(tag: u8, payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut p = Payload::new(payload);
        let resp = match tag {
            TAG_SESSION_OPENED => Response::SessionOpened {
                session: p.u64("session id")?,
            },
            TAG_READS_ACCEPTED => Response::ReadsAccepted {
                session: p.u64("session id")?,
                accepted: p.u32("accepted count")?,
            },
            TAG_SNP_CALLS => Response::SnpCalls(CallResult {
                session: p.u64("session id")?,
                digest: p.u64("digest")?,
                reads_processed: p.u64("reads processed")?,
                reads_mapped: p.u64("reads mapped")?,
                calls: get_calls(&mut p)?,
            }),
            TAG_PONG => Response::Pong {
                nonce: p.u64("nonce")?,
            },
            TAG_STATS_REPORT => Response::StatsReport(get_stats(&mut p)?),
            TAG_SHUTTING_DOWN => Response::ShuttingDown,
            TAG_ERROR => {
                let kind = p.u8("error kind")?;
                let kind = ErrorKind::from_u8(kind)
                    .ok_or_else(|| ProtocolError::Malformed(format!("error kind {kind}")))?;
                let len = p.u32("error message length")? as usize;
                let message = std::str::from_utf8(p.take(len, "error message")?)
                    .map_err(|_| ProtocolError::BadUtf8("error message"))?
                    .to_string();
                Response::Error { kind, message }
            }
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        p.finish("response")?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------

/// What one attempt to read a frame produced.
#[derive(Debug)]
pub enum Incoming<T> {
    /// A complete frame.
    Frame(T),
    /// Clean end of stream (peer closed between frames).
    Eof,
    /// The read timed out before the first byte of a frame (only with a
    /// socket read timeout set); no bytes were consumed.
    Idle,
}

/// Read one raw frame. `stall_cap` bounds how long the peer may sit
/// mid-frame without sending a byte (requires a socket read timeout to
/// fire); `None` waits forever.
fn read_frame_raw(
    r: &mut dyn Read,
    stall_cap: Option<Duration>,
) -> Result<Incoming<(u8, Vec<u8>)>, ProtocolError> {
    let mut prefix = [0u8; 4];
    let mut got = 0usize;
    let mut stalled_since: Option<Instant> = None;
    let check_stall = |stalled_since: &mut Option<Instant>| -> Result<(), ProtocolError> {
        match stall_cap {
            None => Ok(()),
            Some(cap) => {
                let since = stalled_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= cap {
                    Err(ProtocolError::Stalled)
                } else {
                    Ok(())
                }
            }
        }
    };
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(Incoming::Eof),
            Ok(0) => return Err(ProtocolError::Truncated("length prefix")),
            Ok(n) => {
                got += n;
                stalled_since = None;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if got == 0 {
                    return Ok(Incoming::Idle);
                }
                check_stall(&mut stalled_since)?;
            }
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 {
        return Err(ProtocolError::Truncated("frame tag"));
    }
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversized { len });
    }
    // Read the body incrementally so a hostile length prefix never forces
    // a large up-front allocation.
    let mut body = Vec::with_capacity(len.min(1 << 16));
    let mut chunk = [0u8; 8192];
    let mut stalled_since: Option<Instant> = None;
    while body.len() < len {
        let want = (len - body.len()).min(chunk.len());
        match r.read(&mut chunk[..want]) {
            Ok(0) => return Err(ProtocolError::Truncated("frame body")),
            Ok(n) => {
                body.extend_from_slice(&chunk[..n]);
                stalled_since = None;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                check_stall(&mut stalled_since)?;
            }
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    let tag = body[0];
    body.drain(..1);
    Ok(Incoming::Frame((tag, body)))
}

/// Read one request frame (server side).
pub fn read_request(
    r: &mut dyn Read,
    stall_cap: Option<Duration>,
) -> Result<Incoming<Request>, ProtocolError> {
    Ok(match read_frame_raw(r, stall_cap)? {
        Incoming::Frame((tag, body)) => Incoming::Frame(Request::decode(tag, &body)?),
        Incoming::Eof => Incoming::Eof,
        Incoming::Idle => Incoming::Idle,
    })
}

/// Read one response frame (client side).
pub fn read_response(
    r: &mut dyn Read,
    stall_cap: Option<Duration>,
) -> Result<Incoming<Response>, ProtocolError> {
    Ok(match read_frame_raw(r, stall_cap)? {
        Incoming::Frame((tag, body)) => Incoming::Frame(Response::decode(tag, &body)?),
        Incoming::Eof => Incoming::Eof,
        Incoming::Idle => Incoming::Idle,
    })
}

/// Write one request frame.
pub fn write_request(w: &mut dyn Write, req: &Request) -> io::Result<()> {
    w.write_all(&req.encode())?;
    w.flush()
}

/// Write one response frame.
pub fn write_response(w: &mut dyn Write, resp: &Response) -> io::Result<()> {
    w.write_all(&resp.encode())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read(id: &str, seq: &str, q: u8) -> SequencedRead {
        SequencedRead::with_uniform_quality(id, seq.parse().unwrap(), q)
    }

    fn round_trip_request(req: Request) {
        let bytes = req.encode();
        match read_request(&mut Cursor::new(&bytes), None).unwrap() {
            Incoming::Frame(got) => assert_eq!(got, req),
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    fn round_trip_response(resp: Response) {
        let bytes = resp.encode();
        match read_response(&mut Cursor::new(&bytes), None).unwrap() {
            Incoming::Frame(got) => assert_eq!(got, resp),
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn every_request_round_trips() {
        round_trip_request(Request::OpenSession(SessionConfig::default()));
        round_trip_request(Request::OpenSession(SessionConfig {
            ploidy: Ploidy::Diploid,
            cutoff: Cutoff::Fdr(0.01),
            min_total: 5.5,
        }));
        round_trip_request(Request::SubmitReads {
            session: 7,
            reads: vec![read("a", "ACGTN", 30), read("b", "TT", 12)],
        });
        round_trip_request(Request::SubmitReads {
            session: 1,
            reads: Vec::new(),
        });
        round_trip_request(Request::Finalize {
            session: 9,
            deadline_ms: 1234,
        });
        round_trip_request(Request::Ping { nonce: u64::MAX });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn every_response_round_trips() {
        use genome::alphabet::Base;
        round_trip_response(Response::SessionOpened { session: 3 });
        round_trip_response(Response::ReadsAccepted {
            session: 3,
            accepted: 128,
        });
        round_trip_response(Response::SnpCalls(CallResult {
            session: 3,
            digest: 0xdead_beef,
            reads_processed: 100,
            reads_mapped: 99,
            calls: vec![SnpCall {
                pos: 42,
                reference: Base::A,
                allele: Base::G,
                second_allele: Some(Base::T),
                statistic: 17.25,
                p_adjusted: 1e-8,
                counts: [0.5, 0.0, 11.0, 3.0, 0.25],
            }],
        }));
        round_trip_response(Response::Pong { nonce: 0 });
        round_trip_response(Response::StatsReport(StatsSnapshot {
            sessions_open: 1,
            reads_accepted: 500,
            mean_batch_occupancy: 0.75,
            ..StatsSnapshot::default()
        }));
        round_trip_response(Response::ShuttingDown);
        round_trip_response(Response::Error {
            kind: ErrorKind::Busy,
            message: "ingress full".into(),
        });
    }

    #[test]
    fn oversized_length_prefix_is_typed() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, (MAX_FRAME + 1) as u32);
        bytes.push(TAG_PING);
        match read_request(&mut Cursor::new(&bytes), None) {
            Err(ProtocolError::Oversized { len }) => assert_eq!(len, MAX_FRAME + 1),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_is_typed() {
        let full = Request::Ping { nonce: 77 }.encode();
        for cut in 1..full.len() {
            match read_request(&mut Cursor::new(&full[..cut]), None) {
                Err(ProtocolError::Truncated(_)) => {}
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_tag_is_typed() {
        let bytes = frame(0x7E, Vec::new());
        match read_request(&mut Cursor::new(&bytes), None) {
            Err(ProtocolError::UnknownTag(0x7E)) => {}
            other => panic!("expected UnknownTag, got {other:?}"),
        }
    }

    #[test]
    fn bad_utf8_read_id_is_typed() {
        let mut p = Vec::new();
        put_u64(&mut p, 1); // session
        put_u32(&mut p, 1); // one read
        put_u16(&mut p, 2);
        p.extend_from_slice(&[0xFF, 0xFE]); // invalid UTF-8 id
        put_u32(&mut p, 0);
        let bytes = frame(TAG_SUBMIT_READS, p);
        match read_request(&mut Cursor::new(&bytes), None) {
            Err(ProtocolError::BadUtf8("read id")) => {}
            other => panic!("expected BadUtf8, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut p = Vec::new();
        put_u64(&mut p, 5);
        put_u64(&mut p, 6); // extra 8 bytes after the Ping nonce
        let bytes = frame(TAG_PING, p);
        match read_request(&mut Cursor::new(&bytes), None) {
            Err(ProtocolError::Malformed(msg)) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn eof_between_frames_is_clean() {
        assert!(matches!(
            read_request(&mut Cursor::new(&[]), None).unwrap(),
            Incoming::Eof
        ));
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        let bytes = 0u32.to_le_bytes();
        assert!(matches!(
            read_request(&mut Cursor::new(&bytes), None),
            Err(ProtocolError::Truncated("frame tag"))
        ));
    }

    #[test]
    fn out_of_range_session_configs_are_malformed() {
        let bad = [
            (Cutoff::PValue(f64::NAN), 3.0, "alpha NaN"),
            (Cutoff::Fdr(2.0), 3.0, "fdr 2"),
            (Cutoff::PValue(0.05), -1.0, "min_total -1"),
        ];
        for (cutoff, min_total, want) in bad {
            let config = SessionConfig {
                ploidy: Ploidy::Monoploid,
                cutoff,
                min_total,
            };
            let bytes = Request::OpenSession(config).encode();
            match read_request(&mut Cursor::new(&bytes), None) {
                Err(ProtocolError::Malformed(msg)) => assert!(msg.starts_with(want), "{msg}"),
                other => panic!("{want}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn read_cap_is_enforced() {
        let mut p = Vec::new();
        put_u64(&mut p, 1);
        put_u32(&mut p, (MAX_READS_PER_SUBMIT + 1) as u32);
        let bytes = frame(TAG_SUBMIT_READS, p);
        match read_request(&mut Cursor::new(&bytes), None) {
            Err(ProtocolError::Malformed(msg)) => assert!(msg.contains("cap"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
