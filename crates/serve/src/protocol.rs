//! The `mg serve` wire protocol: connection handshake plus the
//! [`Request`] and [`Response`] frame payloads.
//!
//! The normative specification lives in `docs/PROTOCOL.md` (embedded as
//! the [`crate::spec`] module so its examples run as doc tests). In
//! short: a connection opens with a fixed magic and the client's
//! [`PROTOCOL_VERSION`], carries exactly one request frame, and is
//! answered by a stream of response frames ending in a *terminal* one
//! ([`Response::is_terminal`]). Frames themselves are the generic
//! length-delimited frames of [`mg_isa::wire::write_frame`]; this module
//! only defines their payloads.
//!
//! # Versioning
//!
//! [`PROTOCOL_VERSION`] must be bumped whenever the frame payload layout
//! changes **or** whenever `mg_harness::CACHE_SCHEMA_VERSION` is bumped:
//! served payloads are produced from cached preparation artifacts, so a
//! schema bump changes what a byte-identical request may return and old
//! clients must not silently mix results across it. The pairing is
//! asserted by `crates/bench/tests/serve.rs`.
//!
//! Since v3 the server *negotiates down*: it accepts any client version
//! in `MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION` and encodes its replies
//! in the dialect the client announced ([`Response::for_version`]
//! downgrades frames a v2 client would not recognise — today only
//! [`Response::Expired`], which becomes an [`Response::Error`]). The v3
//! additions themselves were chosen to be v2-compatible on the request
//! path: `Shutdown`'s `drain` flag is encoded only when present, and a
//! flagless v2 `Shutdown` decodes as `drain: true` (the old behaviour).

use mg_isa::wire::{Reader, Wire, WireError, Writer};

/// Version sent in the connection handshake; see the module docs for the
/// bump rules (frame layout changes and cache schema bumps).
///
/// History: v1 initial; v2 added the `Run` byte now reserved (see
/// [`RunRequest`]'s wire layout); v3 added
/// [`Response::Expired`], the `drain` flag on [`Request::Shutdown`], and
/// downward negotiation to [`MIN_PROTOCOL_VERSION`]; v4 pairs with cache
/// schema 2 (columnar trace codec, word-wide checksum) and changes no
/// frame layout; v5 pairs with cache schema 3 (trace indices stored only
/// at jumps) and changes no frame layout.
pub const PROTOCOL_VERSION: u32 = 5;

/// Oldest client version the server still speaks (see the module docs'
/// versioning section). Clients older than this are rejected with an
/// [`Response::Error`] naming both versions.
pub const MIN_PROTOCOL_VERSION: u32 = 2;

/// Magic bytes every connection opens with, before the version word.
pub const CONNECT_MAGIC: &[u8; 4] = b"MGSV";

/// Writes the connection handshake (magic + [`PROTOCOL_VERSION`]).
///
/// # Errors
///
/// Any I/O error from the stream.
pub fn send_hello(out: &mut impl std::io::Write) -> std::io::Result<()> {
    out.write_all(CONNECT_MAGIC)?;
    out.write_all(&PROTOCOL_VERSION.to_le_bytes())?;
    out.flush()
}

/// Reads a connection handshake and returns the peer's protocol version
/// (the caller decides whether it is acceptable).
///
/// # Errors
///
/// [`std::io::ErrorKind::InvalidData`] on bad magic, plus any stream I/O
/// error.
pub fn read_hello(input: &mut impl std::io::Read) -> std::io::Result<u32> {
    let mut head = [0u8; 8];
    input.read_exact(&mut head)?;
    if &head[..4] != CONNECT_MAGIC {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("bad connection magic {:02x?}", &head[..4]),
        ));
    }
    Ok(u32::from_le_bytes(head[4..].try_into().expect("4 bytes")))
}

/// An experiment-run request: the serve-side equivalent of the `mg run`
/// argument set. Requests that compare equal are **batched** by the
/// server: they coalesce onto one execution and every client receives the
/// same frame stream.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RunRequest {
    /// Registry name of the experiment (validated against the server's
    /// experiment list before queueing).
    pub experiment: String,
    /// Workload input data set: `"reference"`, `"alternative"`, or
    /// `"tiny"`.
    pub input: String,
    /// `--quick` / `--full` override; `None` leaves the server's default.
    pub quick: Option<bool>,
    /// Worker-thread override for the experiment's engine.
    pub threads: Option<u64>,
    /// `--best` (fig7 only).
    pub best: bool,
    /// Bypass the persistent artifact cache for this run.
    pub no_cache: bool,
    /// Output format of the final payload (`text`, `json`, `csv`,
    /// `markdown`).
    pub format: String,
}

impl RunRequest {
    /// A request for `experiment` with every option at its default
    /// (reference input, server-side quick default, JSON payload).
    pub fn new(experiment: impl Into<String>) -> RunRequest {
        RunRequest {
            experiment: experiment.into(),
            input: "reference".into(),
            quick: None,
            threads: None,
            best: false,
            no_cache: false,
            format: "json".into(),
        }
    }
}

/// One client→server frame payload.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered by [`Response::Pong`].
    Ping,
    /// Run an experiment; answered by a stream of [`Response::Queued`] /
    /// [`Response::Cell`] frames ending in [`Response::Done`] (or
    /// [`Response::Busy`] / [`Response::Error`]).
    Run(RunRequest),
    /// Service counters; answered by [`Response::Stats`].
    Stats,
    /// Stop the server; answered by [`Response::Done`] once accepted.
    Shutdown {
        /// `true` finishes already-queued work under the server's drain
        /// deadline before exiting (new runs are refused with
        /// [`Response::Busy`] meanwhile); `false` abandons the queue,
        /// answering queued requests with [`Response::Error`]. v2
        /// clients cannot encode the flag and get `drain: true`.
        drain: bool,
    },
}

/// One server→client frame payload.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`], carrying the server's protocol
    /// version.
    Pong {
        /// The server's [`PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// The run was accepted and enqueued at this queue position
    /// (informational; `0` means it is next).
    Queued {
        /// Queue position at accept time.
        position: u64,
    },
    /// One matrix cell of the running experiment completed (streamed in
    /// completion order while the run is in flight).
    Cell {
        /// Workload name of the cell.
        workload: String,
        /// Run-spec label of the cell.
        label: String,
        /// Simulated cycles.
        cycles: u64,
        /// Committed fetched operations.
        ops: u64,
    },
    /// Terminal success: the rendered report payload, byte-identical to
    /// the same `mg run --format <fmt>` invocation's stdout.
    Done {
        /// Process-style exit status of the experiment (non-zero for
        /// e.g. a perf regression gate).
        status: i64,
        /// The rendered report.
        payload: String,
    },
    /// Terminal backpressure reply: the bounded queue is full; retry
    /// later.
    Busy {
        /// Requests currently queued.
        depth: u64,
        /// The queue bound.
        capacity: u64,
    },
    /// Terminal failure (validation, version mismatch, or execution
    /// error).
    Error {
        /// Human-readable description.
        message: String,
    },
    /// Terminal deadline miss (v3): the request exceeded its queue-time
    /// or run-time budget and was expired by the server. v2 clients
    /// receive this downgraded to [`Response::Error`]
    /// ([`Response::for_version`]).
    Expired {
        /// Which budget ran out: `"queue"` or `"run"`.
        phase: String,
        /// How long the request had been in that phase, in milliseconds.
        waited_ms: u64,
        /// The configured budget for that phase, in milliseconds.
        budget_ms: u64,
    },
    /// Reply to [`Request::Stats`]: named counters, in stable order.
    Stats {
        /// `(name, value)` counter pairs.
        pairs: Vec<(String, u64)>,
    },
}

impl Response {
    /// Whether this frame ends the response stream (the client should
    /// stop reading after it).
    pub fn is_terminal(&self) -> bool {
        match self {
            Response::Pong { .. }
            | Response::Done { .. }
            | Response::Busy { .. }
            | Response::Error { .. }
            | Response::Expired { .. }
            | Response::Stats { .. } => true,
            Response::Queued { .. } | Response::Cell { .. } => false,
        }
    }

    /// The frame actually sent to a peer that negotiated `version`:
    /// frames a pre-v3 dialect has no tag for are downgraded to
    /// equivalents it does. Today that is only [`Response::Expired`],
    /// which becomes an [`Response::Error`] carrying the same facts in
    /// its message; every other frame passes through unchanged.
    pub fn for_version(&self, version: u32) -> std::borrow::Cow<'_, Response> {
        match self {
            Response::Expired { phase, waited_ms, budget_ms } if version < 3 => {
                std::borrow::Cow::Owned(Response::Error {
                    message: format!(
                        "expired: {phase} deadline exceeded ({waited_ms}ms waited, {budget_ms}ms budget)"
                    ),
                })
            }
            other => std::borrow::Cow::Borrowed(other),
        }
    }
}

/// The frame keeps a reserved byte after `no_cache`: v2–v4 peers sent a
/// `no_fuse` flag there, a choice between two sweep executors whose
/// results were bit-identical. There is one executor now, so the byte
/// selects nothing: it is written as 0 and read as a `bool` (so 2..=255
/// stay [`WireError::BadTag`]) and discarded, and old peers that send 1
/// are served the same run.
impl Wire for RunRequest {
    fn put(&self, w: &mut Writer) {
        w.str(&self.experiment);
        w.str(&self.input);
        self.quick.put(w);
        self.threads.put(w);
        self.best.put(w);
        self.no_cache.put(w);
        false.put(w); // reserved
        w.str(&self.format);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let experiment = r.str()?;
        let input = r.str()?;
        let quick = <Option<bool> as Wire>::take(r)?;
        let threads = <Option<u64> as Wire>::take(r)?;
        let best = bool::take(r)?;
        let no_cache = bool::take(r)?;
        bool::take(r)?; // reserved
        let format = r.str()?;
        Ok(RunRequest { experiment, input, quick, threads, best, no_cache, format })
    }
}

impl Wire for Request {
    fn put(&self, w: &mut Writer) {
        match self {
            Request::Ping => w.u8(0),
            Request::Run(req) => {
                w.u8(1);
                req.put(w);
            }
            Request::Stats => w.u8(2),
            Request::Shutdown { drain } => {
                w.u8(3);
                drain.put(w);
            }
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Request::Ping),
            1 => Ok(Request::Run(RunRequest::take(r)?)),
            2 => Ok(Request::Stats),
            // A v2 `Shutdown` frame is the bare tag; its payload reader
            // is exhausted here, and the old behaviour was to drain.
            3 => Ok(Request::Shutdown {
                drain: if r.is_exhausted() { true } else { bool::take(r)? },
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for Response {
    fn put(&self, w: &mut Writer) {
        match self {
            Response::Pong { protocol } => {
                w.u8(0);
                w.u32(*protocol);
            }
            Response::Queued { position } => {
                w.u8(1);
                w.u64(*position);
            }
            Response::Cell { workload, label, cycles, ops } => {
                w.u8(2);
                w.str(workload);
                w.str(label);
                w.u64(*cycles);
                w.u64(*ops);
            }
            Response::Done { status, payload } => {
                w.u8(3);
                w.i64(*status);
                w.str(payload);
            }
            Response::Busy { depth, capacity } => {
                w.u8(4);
                w.u64(*depth);
                w.u64(*capacity);
            }
            Response::Error { message } => {
                w.u8(5);
                w.str(message);
            }
            Response::Stats { pairs } => {
                w.u8(6);
                pairs.put(w);
            }
            Response::Expired { phase, waited_ms, budget_ms } => {
                w.u8(7);
                w.str(phase);
                w.u64(*waited_ms);
                w.u64(*budget_ms);
            }
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => Response::Pong { protocol: r.u32()? },
            1 => Response::Queued { position: r.u64()? },
            2 => Response::Cell {
                workload: r.str()?,
                label: r.str()?,
                cycles: r.u64()?,
                ops: r.u64()?,
            },
            3 => Response::Done { status: r.i64()?, payload: r.str()? },
            4 => Response::Busy { depth: r.u64()?, capacity: r.u64()? },
            5 => Response::Error { message: r.str()? },
            6 => Response::Stats { pairs: Vec::take(r)? },
            7 => {
                Response::Expired { phase: r.str()?, waited_ms: r.u64()?, budget_ms: r.u64()? }
            }
            t => return Err(WireError::BadTag(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_isa::wire::{read_frame, write_frame};

    #[test]
    fn every_variant_round_trips_as_a_frame() {
        let requests = vec![
            Request::Ping,
            Request::Run(RunRequest {
                quick: Some(true),
                threads: Some(3),
                best: true,
                format: "text".into(),
                ..RunRequest::new("fig6")
            }),
            Request::Stats,
            Request::Shutdown { drain: true },
            Request::Shutdown { drain: false },
        ];
        let responses = vec![
            Response::Pong { protocol: PROTOCOL_VERSION },
            Response::Queued { position: 2 },
            Response::Cell {
                workload: "crc32".into(),
                label: "intmem".into(),
                cycles: 123,
                ops: 456,
            },
            Response::Done { status: 0, payload: "{}\n".into() },
            Response::Busy { depth: 16, capacity: 16 },
            Response::Error { message: "unknown experiment".into() },
            Response::Stats { pairs: vec![("served".into(), 9)] },
            Response::Expired { phase: "queue".into(), waited_ms: 1500, budget_ms: 1000 },
        ];
        let mut buf = Vec::new();
        for q in &requests {
            write_frame(&mut buf, q).unwrap();
        }
        for p in &responses {
            write_frame(&mut buf, p).unwrap();
        }
        let mut r = &buf[..];
        for q in &requests {
            assert_eq!(&read_frame::<Request>(&mut r).unwrap(), q);
        }
        for p in &responses {
            assert_eq!(&read_frame::<Response>(&mut r).unwrap(), p);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn terminality_partition_is_total() {
        assert!(Response::Pong { protocol: 1 }.is_terminal());
        assert!(Response::Done { status: 0, payload: String::new() }.is_terminal());
        assert!(Response::Busy { depth: 0, capacity: 0 }.is_terminal());
        assert!(Response::Error { message: String::new() }.is_terminal());
        assert!(Response::Stats { pairs: vec![] }.is_terminal());
        assert!(
            Response::Expired { phase: "run".into(), waited_ms: 0, budget_ms: 0 }.is_terminal()
        );
        assert!(!Response::Queued { position: 0 }.is_terminal());
        assert!(!Response::Cell {
            workload: String::new(),
            label: String::new(),
            cycles: 0,
            ops: 0
        }
        .is_terminal());
    }

    #[test]
    fn bare_v2_shutdown_decodes_as_drain() {
        // A v2 client encodes `Shutdown` as the tag byte alone.
        let v2_frame = [3u8];
        let decoded = mg_isa::wire::from_bytes::<Request>(&v2_frame).unwrap();
        assert_eq!(decoded, Request::Shutdown { drain: true });
        // And the v3 encodings round-trip distinctly.
        for drain in [true, false] {
            let bytes = mg_isa::wire::to_bytes(&Request::Shutdown { drain });
            assert_eq!(bytes.len(), 2);
            assert_eq!(
                mg_isa::wire::from_bytes::<Request>(&bytes).unwrap(),
                Request::Shutdown { drain }
            );
        }
    }

    #[test]
    fn expired_downgrades_to_error_for_v2_and_passes_through_for_v3() {
        let expired =
            Response::Expired { phase: "queue".into(), waited_ms: 1500, budget_ms: 1000 };
        match expired.for_version(2).as_ref() {
            Response::Error { message } => {
                assert!(message.contains("expired"), "{message}");
                assert!(message.contains("queue"), "{message}");
                assert!(message.contains("1500"), "{message}");
                assert!(message.contains("1000"), "{message}");
            }
            other => panic!("expected Error downgrade, got {other:?}"),
        }
        assert_eq!(expired.for_version(3).as_ref(), &expired);
        // Non-Expired frames are never rewritten, for any version.
        let done = Response::Done { status: 0, payload: "x".into() };
        assert_eq!(done.for_version(2).as_ref(), &done);
    }

    #[test]
    fn hello_round_trips_and_rejects_foreign_magic() {
        let mut buf = Vec::new();
        send_hello(&mut buf).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_hello(&mut r).unwrap(), PROTOCOL_VERSION);
        let mut r: &[u8] = b"HTTP/1.1";
        assert_eq!(read_hello(&mut r).unwrap_err().kind(), std::io::ErrorKind::InvalidData);
    }
}
