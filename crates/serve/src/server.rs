//! The experiment server: listener, bounded queue, batching scheduler,
//! worker pool, and the deadline/drain watchdog.
//!
//! The server is deliberately generic: it knows the wire protocol, the
//! scheduling policy (coalesce equal [`RunRequest`]s, bound the queue,
//! stream frames as they are produced), and nothing about experiments.
//! The experiment side is injected as a [`Runner`] — `mg serve` (in
//! `mg-bench`) wires in the real registry, a shared warm prep pool, and a
//! per-cell progress observer; tests wire in cheap stubs.
//!
//! # Scheduling
//!
//! * Each accepted connection carries exactly one [`Request`].
//! * `Run` requests are keyed by their full [`RunRequest`] value. A
//!   request equal to one that is queued or running **attaches** to it:
//!   the new client first receives a replay of every frame the batch has
//!   already emitted, then the live stream — so late joiners see the
//!   identical byte sequence. One execution serves all attached clients.
//! * New keys are enqueued; if the bounded queue is full the client gets
//!   a terminal [`Response::Busy`] instead (documented backpressure — the
//!   client retries later).
//! * Worker threads pop batches FIFO and run them through the
//!   [`Runner`], broadcasting progress frames as the runner emits them
//!   and a terminal [`Response::Done`] / [`Response::Error`] at the end.
//!   A runner (or injected fault) that panics is contained: the batch is
//!   answered with [`Response::Error`] and the worker thread survives.
//! * `Shutdown { drain: true }` stops accepting new runs (they get
//!   [`Response::Busy`]), finishes queued work under
//!   [`ServerConfig::drain_deadline`], then returns from
//!   [`Server::serve`]; `drain: false` abandons the queue, answering
//!   queued clients with [`Response::Error`].
//!
//! # Deadlines and slow clients
//!
//! A watchdog thread (ticking every few tens of milliseconds) enforces
//! the optional per-request budgets: a batch queued longer than
//! [`ServerConfig::queue_deadline`] or running longer than
//! [`ServerConfig::run_deadline`] is answered with the terminal
//! [`Response::Expired`] and detached (an expired *run* keeps executing
//! — threads are never killed — but its clients are released and its
//! slot in the request index is freed). A client that stops reading
//! mid-broadcast fails its write after
//! [`ServerConfig::slow_client_timeout`] and is evicted from the batch
//! without stalling the other subscribers; the eviction is counted in
//! `evicted_slow_clients`.

use crate::protocol::{
    read_hello, Request, Response, RunRequest, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use mg_fault::{points, FaultPlan, FaultyStream};
use mg_isa::wire::{self, read_frame};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Frame sink handed to a [`Runner`]: every response emitted through it
/// is broadcast to all clients attached to the batch, in emission order.
pub type EmitFn = Arc<dyn Fn(Response) + Send + Sync>;

/// A completed run: the experiment's exit status and its rendered
/// payload (sent to clients as [`Response::Done`]).
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Process-style exit status (`Report::status`).
    pub status: i32,
    /// The rendered report, byte-identical to `mg run`'s stdout for the
    /// same arguments.
    pub payload: String,
}

/// Executes one validated run request, emitting progress frames through
/// the provided [`EmitFn`] and returning the terminal outcome (`Err` is
/// sent to clients as [`Response::Error`]).
pub type Runner = Arc<dyn Fn(&RunRequest, EmitFn) -> Result<RunOutcome, String> + Send + Sync>;

/// Extra `(name, value)` counter pairs appended to [`Response::Stats`]
/// (e.g. the CLI's warm-prep-pool counters).
pub type StatsExtra = Arc<dyn Fn() -> Vec<(String, u64)> + Send + Sync>;

/// Callback an idle worker consults for work from *other* servers (see
/// [`Server::set_steal_source`]). Returns the next batch worth stealing,
/// or `None` when every peer queue is empty.
pub type StealSource = Arc<dyn Fn() -> Option<StolenBatch> + Send + Sync>;

/// Server tuning knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads executing batches concurrently.
    pub workers: usize,
    /// Bound on queued (not yet running) batches; beyond it new keys get
    /// [`Response::Busy`].
    pub max_queue: usize,
    /// Per-connection socket I/O timeout: covers reading the request
    /// from a client that connects but never sends it.
    pub io_timeout: Duration,
    /// Maximum time a batch may wait in the queue before it is expired
    /// with [`Response::Expired`] (`phase: "queue"`). `None` (the
    /// default) disables the budget.
    pub queue_deadline: Option<Duration>,
    /// Maximum time a batch may *run* before its clients are answered
    /// with [`Response::Expired`] (`phase: "run"`) and detached. The
    /// runner itself is not killed — its result is discarded. `None`
    /// disables the budget.
    pub run_deadline: Option<Duration>,
    /// How long a draining shutdown waits for queued work before
    /// expiring whatever is left (`phase: "drain"`).
    pub drain_deadline: Duration,
    /// Write timeout on client sinks during broadcast: a client that
    /// stops reading fails its write after this and is evicted from the
    /// batch, instead of stalling the broadcast for the full
    /// [`ServerConfig::io_timeout`].
    pub slow_client_timeout: Duration,
    /// Deterministic fault schedule (see [`mg_fault`]): when set, every
    /// accepted connection is wrapped in a [`FaultyStream`] and worker
    /// closures consult the plan's `serve.worker.panic` point. `None`
    /// (the default) adds no hooks on the hot path beyond this option
    /// check.
    pub faults: Option<Arc<FaultPlan>>,
    /// Optional extra counters for [`Response::Stats`].
    pub stats_extra: Option<StatsExtra>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            max_queue: 16,
            io_timeout: Duration::from_secs(30),
            queue_deadline: None,
            run_deadline: None,
            drain_deadline: Duration::from_secs(10),
            slow_client_timeout: Duration::from_secs(5),
            faults: None,
            stats_extra: None,
        }
    }
}

/// A client attached to a batch: the write half of its connection plus
/// the protocol version it negotiated, so every frame can be encoded in
/// the client's dialect ([`Response::for_version`]).
struct ClientSink {
    stream: Box<dyn Write + Send>,
    version: u32,
}

/// One coalesced run: the request, the clients attached to it, and the
/// frames already emitted (for replay to late joiners).
struct Batch {
    req: RunRequest,
    enqueued_at: Instant,
    inner: Mutex<BatchInner>,
}

#[derive(Default)]
struct BatchInner {
    sinks: Vec<ClientSink>,
    /// Emitted frames are kept as decoded [`Response`]s, not bytes:
    /// replay re-encodes per joiner so v2 and v3 clients each get their
    /// own dialect of the same stream.
    emitted: Vec<Response>,
    started_at: Option<Instant>,
    done: bool,
}

/// Encodes `resp` as one frame. A payload over the frame-size bound
/// degrades to an encoded [`Response::Error`] naming the overflow — a
/// runner-provided oversized payload must not panic a worker thread (and
/// poison its batch) in a daemon whose runners are injected by callers.
fn encode_frame(resp: &Response) -> Vec<u8> {
    let mut frame = Vec::new();
    if wire::write_frame(&mut frame, resp).is_err() {
        frame.clear();
        let fallback = Response::Error {
            message: format!(
                "response frame exceeds the {}-byte limit; see docs/PROTOCOL.md",
                wire::MAX_FRAME_LEN
            ),
        };
        wire::write_frame(&mut frame, &fallback).expect("the fallback error frame is small");
    }
    frame
}

/// Per-broadcast memo of `resp` encoded for each client dialect seen so
/// far (at most one entry per supported protocol version).
fn frame_for<'a>(
    cache: &'a mut Vec<(u32, Vec<u8>)>,
    resp: &Response,
    version: u32,
) -> &'a [u8] {
    let idx = match cache.iter().position(|(v, _)| *v == version) {
        Some(i) => i,
        None => {
            cache.push((version, encode_frame(&resp.for_version(version))));
            cache.len() - 1
        }
    };
    &cache[idx].1
}

/// Whether a sink write error means "client reads too slowly" (socket
/// write timeout) rather than "client hung up".
fn is_slow_client(kind: std::io::ErrorKind) -> bool {
    matches!(kind, std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

impl Batch {
    /// Broadcasts `resp` to every attached sink (encoded once per client
    /// dialect), recording it for replay. Dead sinks (client hung up)
    /// are dropped silently; sinks whose write times out are evicted and
    /// counted in `evicted_slow_clients`.
    fn broadcast(&self, resp: &Response, shared: &Shared) {
        let mut inner = self.inner.lock().unwrap();
        inner.emitted.push(resp.clone());
        let mut cache: Vec<(u32, Vec<u8>)> = Vec::new();
        inner.sinks.retain_mut(|s| {
            let frame = frame_for(&mut cache, resp, s.version);
            match s.stream.write_all(frame).and_then(|()| s.stream.flush()) {
                Ok(()) => true,
                Err(e) => {
                    if is_slow_client(e.kind()) {
                        shared.evicted_slow_clients.fetch_add(1, Ordering::Relaxed);
                    }
                    false
                }
            }
        });
    }

    /// Delivers `resp` as this batch's terminal frame and seals it: the
    /// frame joins the replay log, delivery is attempted to every sink,
    /// `done` is set, and the sinks are dropped (the stream is
    /// complete). Returns `None` when another path (worker vs watchdog
    /// vs shutdown) already finished the batch, otherwise the number of
    /// sinks delivery was attempted to.
    fn finish(&self, resp: &Response, shared: &Shared, count_served: bool) -> Option<usize> {
        let mut inner = self.inner.lock().unwrap();
        if inner.done {
            return None;
        }
        inner.emitted.push(resp.clone());
        let subscribers = inner.sinks.len();
        if count_served {
            // Count *before* writing: the first successful write wakes a
            // client, which may immediately query stats — the counter
            // must already include this batch's subscribers by then.
            // (Sinks that died earlier were already dropped by their
            // failed broadcast, so this is the set delivery is attempted
            // to.)
            shared.served.fetch_add(subscribers as u64, Ordering::Relaxed);
        }
        let mut cache: Vec<(u32, Vec<u8>)> = Vec::new();
        for s in &mut inner.sinks {
            let frame = frame_for(&mut cache, resp, s.version);
            if let Err(e) = s.stream.write_all(frame).and_then(|()| s.stream.flush()) {
                if is_slow_client(e.kind()) {
                    shared.evicted_slow_clients.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        inner.done = true;
        inner.sinks.clear(); // hang up: the stream is complete
        Some(subscribers)
    }
}

struct SchedState {
    queue: VecDeque<Arc<Batch>>,
    /// Queued **and running** batches, so duplicates attach to in-flight
    /// work too; entries leave when their terminal frame has been sent.
    index: HashMap<RunRequest, Arc<Batch>>,
    /// This server's workers not running a batch. A peer steals only
    /// while this is 0 (see [`ShardHandle::steal`]).
    idle_workers: usize,
}

struct Shared {
    runner: Runner,
    experiments: Vec<String>,
    cfg: ServerConfig,
    state: Mutex<SchedState>,
    work_ready: Condvar,
    /// Set on `Shutdown`: no new runs are accepted (they get `Busy`).
    stop: AtomicBool,
    /// Set when the accept loop may exit: immediately on a non-draining
    /// shutdown, or once the drain completes (or its deadline passes).
    drain_done: AtomicBool,
    /// Tells the watchdog thread to exit, after the workers are joined.
    watchdog_stop: AtomicBool,
    /// When the draining shutdown began (for the drain deadline).
    drain_started: Mutex<Option<Instant>>,
    /// Terminal frames delivered to run clients (one per client still
    /// attached at completion).
    served: AtomicU64,
    /// Requests that attached to an existing batch instead of enqueueing.
    batched: AtomicU64,
    /// Requests rejected with `Busy`.
    busy_rejections: AtomicU64,
    /// Batches answered with `Expired` (queue, run, or drain deadline).
    expired: AtomicU64,
    /// Sinks evicted from a broadcast because their write timed out.
    evicted_slow_clients: AtomicU64,
    /// Runner invocations that panicked (contained; batch got `Error`).
    worker_panics: AtomicU64,
    /// Batches completed with `Done` after shutdown began.
    drained_requests: AtomicU64,
    /// Batches this server's workers stole from peer queues (see
    /// [`Server::set_steal_source`]).
    steals: AtomicU64,
    /// Installed by [`Server::set_steal_source`]; idle workers consult
    /// it between timed waits on `work_ready`.
    steal_source: Mutex<Option<StealSource>>,
}

impl Shared {
    fn stats_pairs(&self) -> Vec<(String, u64)> {
        let (depth, in_flight) = {
            let state = self.state.lock().unwrap();
            (state.queue.len() as u64, state.index.len() as u64)
        };
        let mut pairs = vec![
            ("served".to_string(), self.served.load(Ordering::Relaxed)),
            ("batched".to_string(), self.batched.load(Ordering::Relaxed)),
            ("busy_rejections".to_string(), self.busy_rejections.load(Ordering::Relaxed)),
            ("queue_depth".to_string(), depth),
            ("in_flight".to_string(), in_flight),
            ("expired".to_string(), self.expired.load(Ordering::Relaxed)),
            (
                "evicted_slow_clients".to_string(),
                self.evicted_slow_clients.load(Ordering::Relaxed),
            ),
            ("worker_panics".to_string(), self.worker_panics.load(Ordering::Relaxed)),
            ("drained_requests".to_string(), self.drained_requests.load(Ordering::Relaxed)),
            ("steals".to_string(), self.steals.load(Ordering::Relaxed)),
        ];
        if let Some(extra) = &self.cfg.stats_extra {
            pairs.extend(extra());
        }
        pairs
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// A bound (but not yet serving) experiment server. See the
/// [module docs](self) for the scheduling contract.
///
/// # Example
///
/// An in-process loopback round-trip with a stub runner (the real
/// experiment registry is wired in by `mg serve`):
///
/// ```
/// use mg_serve::{Client, Request, Response, RunOutcome, RunRequest, Server, ServerConfig};
/// use std::sync::Arc;
///
/// let runner = Arc::new(|req: &RunRequest, _emit: mg_serve::EmitFn| {
///     Ok(RunOutcome { status: 0, payload: format!("ran {}\n", req.experiment) })
/// });
/// let server = Server::bind(
///     "127.0.0.1:0",                    // any free port
///     vec!["echo".to_string()],         // the experiment registry
///     runner,
///     ServerConfig::default(),
/// )
/// .unwrap();
/// let addr = server.local_addr().unwrap();
/// let handle = server.spawn();
///
/// let client = Client::tcp(addr.to_string());
/// let reply = client.request(&Request::Run(RunRequest::new("echo")), |_| {}).unwrap();
/// assert_eq!(reply, Response::Done { status: 0, payload: "ran echo\n".to_string() });
///
/// client.request(&Request::Shutdown { drain: true }, |_| {}).unwrap();
/// handle.join().unwrap().unwrap();
/// ```
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds a TCP server on `addr` (e.g. `"127.0.0.1:0"` for any free
    /// port). `experiments` is the set of run-request names the server
    /// accepts; anything else is rejected with [`Response::Error`]
    /// before queueing.
    ///
    /// # Errors
    ///
    /// Any I/O error from binding the listener.
    pub fn bind(
        addr: impl ToSocketAddrs,
        experiments: Vec<String>,
        runner: Runner,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        Ok(Server {
            listener: Listener::Tcp(TcpListener::bind(addr)?),
            shared: Shared::new(experiments, runner, cfg),
        })
    }

    /// Binds a Unix-domain-socket server at `path`. An existing entry at
    /// the path is removed only when it is a **stale socket** (a socket
    /// nothing answers on): a live daemon's socket refuses with
    /// `AddrInUse`, and a non-socket file refuses with `AlreadyExists` —
    /// binding never deletes unrelated data.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` if the path holds a non-socket file, `AddrInUse`
    /// if another server is answering on it, plus any I/O error from
    /// binding the listener.
    #[cfg(unix)]
    pub fn bind_unix(
        path: impl AsRef<Path>,
        experiments: Vec<String>,
        runner: Runner,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        use std::io::{Error, ErrorKind};
        let path = path.as_ref();
        match std::fs::symlink_metadata(path) {
            Ok(meta) => {
                use std::os::unix::fs::FileTypeExt;
                if !meta.file_type().is_socket() {
                    return Err(Error::new(
                        ErrorKind::AlreadyExists,
                        format!(
                            "{} exists and is not a socket; refusing to remove it",
                            path.display()
                        ),
                    ));
                }
                if UnixStream::connect(path).is_ok() {
                    return Err(Error::new(
                        ErrorKind::AddrInUse,
                        format!("a server is already answering on {}", path.display()),
                    ));
                }
                std::fs::remove_file(path)?; // stale socket from a dead server
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(Server {
            listener: Listener::Unix(UnixListener::bind(path)?),
            shared: Shared::new(experiments, runner, cfg),
        })
    }

    /// The bound TCP address (`None` for Unix-socket servers); use with
    /// port `0` to discover the assigned port.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Unix(_) => None,
        }
    }

    /// Runs the accept loop on the calling thread until a
    /// [`Request::Shutdown`] arrives and (for `drain: true`) the queue
    /// has drained, then returns.
    ///
    /// # Errors
    ///
    /// None currently: per-connection errors are handled in place and
    /// transient accept errors (aborted handshakes, fd exhaustion) are
    /// retried with a short backoff rather than stopping the server.
    /// The `Result` return is kept so future fatal conditions have a
    /// channel.
    pub fn serve(self) -> std::io::Result<()> {
        let Server { listener, shared } = self;
        let mut workers = Vec::new();
        // Counted idle before they start, so no peer steals a batch
        // queued while a worker thread is still starting up.
        shared.state.lock().unwrap().idle_workers = shared.cfg.workers.max(1);
        for _ in 0..shared.cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        let watchdog = {
            let shared = Arc::clone(&shared);
            let endpoint = listener.self_endpoint();
            std::thread::spawn(move || watchdog_loop(&shared, &endpoint))
        };
        let mut handlers = Vec::new();
        loop {
            let accepted: std::io::Result<Box<dyn Conn>> = match &listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Box::new(s) as Box<dyn Conn>),
                #[cfg(unix)]
                Listener::Unix(l) => l.accept().map(|(s, _)| Box::new(s) as Box<dyn Conn>),
            };
            let conn = match accepted {
                Ok(conn) => conn,
                // A long-running daemon must survive transient accept
                // failures (a peer resetting mid-handshake, a burst
                // exhausting fds) — dying here would orphan every
                // queued batch. Back off briefly and keep accepting;
                // the loop still exits promptly on shutdown.
                Err(_) if shared.drain_done.load(Ordering::SeqCst) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionAborted
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(100));
                    continue;
                }
            };
            if shared.drain_done.load(Ordering::SeqCst) {
                break; // the shutdown/drain-completion wake-up connection
            }
            conn.set_io_timeout(shared.cfg.io_timeout);
            // Fault injection wraps the whole connection, so the request
            // read path and the response sink both see the plan's
            // `serve.read.*` / `serve.write.*` points.
            let conn: Box<dyn Conn> = match &shared.cfg.faults {
                Some(plan) => Box::new(FaultyStream::new(conn, Arc::clone(plan))),
                None => conn,
            };
            // Reap finished handler threads so a long-lived daemon's
            // bookkeeping stays proportional to *live* connections, not
            // to every connection ever accepted.
            handlers.retain(|h: &std::thread::JoinHandle<()>| !h.is_finished());
            let shared = Arc::clone(&shared);
            let endpoint = listener.self_endpoint();
            handlers.push(std::thread::spawn(move || {
                handle_connection(conn, &shared, &endpoint);
            }));
        }
        for h in handlers {
            let _ = h.join();
        }
        shared.work_ready.notify_all();
        for w in workers {
            let _ = w.join();
        }
        shared.watchdog_stop.store(true, Ordering::SeqCst);
        let _ = watchdog.join();
        Ok(())
    }

    /// Spawns [`Server::serve`] on a background thread and returns its
    /// handle (convenience for tests and in-process use).
    pub fn spawn(self) -> std::thread::JoinHandle<std::io::Result<()>> {
        std::thread::spawn(move || self.serve())
    }

    /// A [`ShardHandle`] on this server's scheduler, for peers to
    /// inspect and steal from.
    pub fn shard_handle(&self) -> ShardHandle {
        ShardHandle { shared: Arc::clone(&self.shared) }
    }

    /// Installs the steal source this server's idle workers consult: a
    /// worker finding its own queue empty calls `source` and, when it
    /// returns a [`StolenBatch`], executes it in place (with the owning
    /// server's runner and counters) instead of sleeping. Workers
    /// without a source block on their queue as before; with one they
    /// poll it between short timed waits. Call before [`Server::serve`]
    /// / [`Server::spawn`].
    pub fn set_steal_source(&self, source: StealSource) {
        *self.shared.steal_source.lock().unwrap() = Some(source);
    }
}

impl Shared {
    fn new(experiments: Vec<String>, runner: Runner, cfg: ServerConfig) -> Arc<Shared> {
        Arc::new(Shared {
            runner,
            experiments,
            cfg,
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                index: HashMap::new(),
                idle_workers: 0,
            }),
            work_ready: Condvar::new(),
            stop: AtomicBool::new(false),
            drain_done: AtomicBool::new(false),
            watchdog_stop: AtomicBool::new(false),
            drain_started: Mutex::new(None),
            served: AtomicU64::new(0),
            batched: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            evicted_slow_clients: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            drained_requests: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            steal_source: Mutex::new(None),
        })
    }
}

/// A batch popped from one server's queue for execution on another
/// server's worker (see [`ShardHandle::steal`]). Opaque: it carries the
/// batch *and* the owning server's state, so the thief runs it with the
/// owner's runner and settles the owner's counters and request index —
/// attached clients cannot tell their batch was stolen.
pub struct StolenBatch {
    owner: Arc<Shared>,
    batch: Arc<Batch>,
}

/// A cheap handle on a running [`Server`]'s scheduler, for cross-server
/// coordination (the `mg-cluster` work-stealing layer). Obtained from
/// [`Server::shard_handle`]; stays valid after the server shuts down
/// (every operation then just observes an empty queue).
#[derive(Clone)]
pub struct ShardHandle {
    shared: Arc<Shared>,
}

impl ShardHandle {
    /// Batches queued (not yet running) right now.
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Pops the most recently queued batch for execution elsewhere, or
    /// `None` when the queue is empty or the owner has an idle worker
    /// (which is about to take that batch itself: only a busy server's
    /// work is stolen). LIFO on purpose: the oldest batches are what the
    /// owner's own workers pop next, so stealing from the back minimises
    /// contention with them. The batch stays in the owner's request
    /// index until its terminal frame — late duplicates keep attaching
    /// to it while it runs on the thief.
    pub fn steal(&self) -> Option<StolenBatch> {
        let mut state = self.shared.state.lock().unwrap();
        if state.idle_workers > 0 {
            return None;
        }
        let batch = state.queue.pop_back()?;
        Some(StolenBatch { owner: Arc::clone(&self.shared), batch })
    }

    /// The server's live counter pairs, identical to what a
    /// [`Request::Stats`] connection would see.
    pub fn stats_pairs(&self) -> Vec<(String, u64)> {
        self.shared.stats_pairs()
    }
}

/// How a handler reaches its own server to unblock the accept loop on
/// shutdown.
enum SelfEndpoint {
    Tcp(Option<SocketAddr>),
    #[cfg(unix)]
    Unix(Option<std::path::PathBuf>),
}

impl Listener {
    fn self_endpoint(&self) -> SelfEndpoint {
        match self {
            Listener::Tcp(l) => SelfEndpoint::Tcp(l.local_addr().ok()),
            #[cfg(unix)]
            Listener::Unix(l) => SelfEndpoint::Unix(
                l.local_addr().ok().and_then(|a| a.as_pathname().map(Path::to_path_buf)),
            ),
        }
    }
}

impl SelfEndpoint {
    /// Makes one throwaway connection so a blocked `accept` observes the
    /// stop flag.
    fn wake(&self) {
        match self {
            SelfEndpoint::Tcp(Some(addr)) => {
                let _ = TcpStream::connect(addr);
            }
            SelfEndpoint::Tcp(None) => {}
            #[cfg(unix)]
            SelfEndpoint::Unix(Some(path)) => {
                let _ = UnixStream::connect(path);
            }
            #[cfg(unix)]
            SelfEndpoint::Unix(None) => {}
        }
    }
}

/// A connection stream: readable for the request, then converted into a
/// write-only sink.
trait Conn: std::io::Read + Write + Send {
    fn into_sink(self: Box<Self>) -> Box<dyn Write + Send>;

    /// Bounds every read and write on the stream (see
    /// [`ServerConfig::io_timeout`]).
    fn set_io_timeout(&self, timeout: Duration);

    /// Tightens only the write bound (see
    /// [`ServerConfig::slow_client_timeout`]), applied once the stream
    /// becomes a broadcast sink.
    fn set_write_deadline(&self, timeout: Duration);
}

impl Conn for TcpStream {
    fn into_sink(self: Box<Self>) -> Box<dyn Write + Send> {
        self
    }

    fn set_io_timeout(&self, timeout: Duration) {
        let _ = self.set_read_timeout(Some(timeout));
        let _ = self.set_write_timeout(Some(timeout));
    }

    fn set_write_deadline(&self, timeout: Duration) {
        let _ = self.set_write_timeout(Some(timeout));
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn into_sink(self: Box<Self>) -> Box<dyn Write + Send> {
        self
    }

    fn set_io_timeout(&self, timeout: Duration) {
        let _ = self.set_read_timeout(Some(timeout));
        let _ = self.set_write_timeout(Some(timeout));
    }

    fn set_write_deadline(&self, timeout: Duration) {
        let _ = self.set_write_timeout(Some(timeout));
    }
}

impl Conn for FaultyStream<Box<dyn Conn>> {
    fn into_sink(self: Box<Self>) -> Box<dyn Write + Send> {
        self // keeps injecting write faults as a sink
    }

    fn set_io_timeout(&self, timeout: Duration) {
        self.get_ref().set_io_timeout(timeout);
    }

    fn set_write_deadline(&self, timeout: Duration) {
        self.get_ref().set_write_deadline(timeout);
    }
}

/// Best-effort single-frame reply on a stream we are about to drop.
fn reply(stream: &mut dyn Write, resp: &Response) {
    let frame = encode_frame(resp);
    let _ = stream.write_all(&frame);
    let _ = stream.flush();
}

fn handle_connection(mut conn: Box<dyn Conn>, shared: &Shared, endpoint: &SelfEndpoint) {
    let version = match read_hello(&mut conn) {
        Ok(v) => v,
        Err(_) => return, // not a protocol client; nothing to say
    };
    if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
        reply(
            &mut *conn,
            &Response::Error {
                message: format!(
                    "protocol version mismatch: client {version}, server speaks \
                     {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION}"
                ),
            },
        );
        return;
    }
    let request = match read_frame::<Request>(&mut conn) {
        Ok(r) => r,
        // A malformed frame deserves a protocol-level answer; a
        // transport-level failure (reset, EOF mid-frame) does not —
        // the peer is gone or the stream is broken, and a terminal
        // Error frame here would read as a non-retryable request
        // failure to a client that merely hit a torn connection.
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            reply(&mut *conn, &Response::Error { message: format!("bad request frame: {e}") });
            return;
        }
        Err(_) => return,
    };
    match request {
        Request::Ping => reply(&mut *conn, &Response::Pong { protocol: PROTOCOL_VERSION }),
        Request::Stats => reply(&mut *conn, &Response::Stats { pairs: shared.stats_pairs() }),
        Request::Shutdown { drain } => {
            reply(&mut *conn, &Response::Done { status: 0, payload: "shutting down".into() });
            let already_stopping = shared.stop.swap(true, Ordering::SeqCst);
            if drain {
                if !already_stopping {
                    *shared.drain_started.lock().unwrap() = Some(Instant::now());
                }
                // The watchdog flips `drain_done` once the queue and the
                // in-flight index are empty (or the drain deadline
                // passes).
            } else {
                // Abandon the queue: queued clients are answered now,
                // running batches finish on their workers.
                let abandoned: Vec<Arc<Batch>> = {
                    let mut state = shared.state.lock().unwrap();
                    let drained: Vec<Arc<Batch>> = state.queue.drain(..).collect();
                    for b in &drained {
                        if let Some(indexed) = state.index.get(&b.req) {
                            if Arc::ptr_eq(indexed, b) {
                                state.index.remove(&b.req);
                            }
                        }
                    }
                    drained
                };
                for b in abandoned {
                    b.finish(
                        &Response::Error { message: "server is shutting down".into() },
                        shared,
                        false,
                    );
                }
                shared.drain_done.store(true, Ordering::SeqCst);
            }
            shared.work_ready.notify_all();
            endpoint.wake();
        }
        Request::Run(req) => handle_run(conn, shared, req, version),
    }
}

fn handle_run(conn: Box<dyn Conn>, shared: &Shared, req: RunRequest, version: u32) {
    conn.set_write_deadline(shared.cfg.slow_client_timeout);
    let mut sink = ClientSink { stream: conn.into_sink(), version };
    if !shared.experiments.iter().any(|e| e == &req.experiment) {
        reply(
            &mut *sink.stream,
            &Response::Error { message: format!("unknown experiment {:?}", req.experiment) },
        );
        return;
    }
    loop {
        // The stop check must happen under the state lock: workers exit
        // on (queue empty && stop), both read under the same lock, so a
        // batch can never be enqueued after the last worker has decided
        // to exit.
        let mut state = shared.state.lock().unwrap();
        if shared.stop.load(Ordering::SeqCst) {
            // Shutting down (possibly draining): refuse new work with
            // the same terminal the full queue uses, so clients retry
            // against the replacement daemon instead of erroring out.
            let depth = state.queue.len() as u64;
            drop(state);
            shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
            reply(
                &mut *sink.stream,
                &Response::Busy { depth, capacity: shared.cfg.max_queue as u64 },
            );
            return;
        }
        // Attach to an equal queued/running batch: replay its frames,
        // then receive the live stream. The scheduler lock is released
        // first — replaying to a slow client may block up to the socket
        // timeout and must only stall this batch (its `inner` lock), not
        // the whole daemon.
        if let Some(batch) = state.index.get(&req).map(Arc::clone) {
            drop(state);
            let mut inner = batch.inner.lock().unwrap();
            if inner.done {
                // Completed while unlocked; the worker is about to drop
                // (or just dropped) the index entry — retry as new.
                drop(inner);
                std::thread::yield_now();
                continue;
            }
            let mut alive = true;
            for resp in &inner.emitted {
                let frame = encode_frame(&resp.for_version(sink.version));
                if sink.stream.write_all(&frame).and_then(|()| sink.stream.flush()).is_err() {
                    alive = false;
                    break;
                }
            }
            if alive {
                inner.sinks.push(sink);
            }
            shared.batched.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if state.queue.len() >= shared.cfg.max_queue {
            let depth = state.queue.len() as u64;
            drop(state);
            shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
            reply(
                &mut *sink.stream,
                &Response::Busy { depth, capacity: shared.cfg.max_queue as u64 },
            );
            return;
        }
        let position = state.queue.len() as u64;
        let batch = Arc::new(Batch {
            req: req.clone(),
            enqueued_at: Instant::now(),
            inner: Mutex::new(BatchInner { sinks: vec![sink], ..Default::default() }),
        });
        // Record `Queued` before the batch becomes visible to workers,
        // so it is always the stream's first frame (and is replayed to
        // joiners). The write happens under the scheduler lock, but it
        // is one small frame into a freshly accepted socket's empty
        // send buffer — it cannot block on the peer.
        batch.broadcast(&Response::Queued { position }, shared);
        state.queue.push_back(Arc::clone(&batch));
        state.index.insert(req, Arc::clone(&batch));
        drop(state);
        shared.work_ready.notify_one();
        return;
    }
}

/// How long a worker with an installed steal source sleeps between
/// consulting it when both its own queue and every peer queue are empty.
const STEAL_POLL: Duration = Duration::from_millis(10);

fn worker_loop(shared: &Arc<Shared>) {
    // This worker counts in `idle_workers` whenever it is not running a
    // batch (from spawn on, see `Server::serve`).
    let mut state = shared.state.lock().unwrap();
    loop {
        let mut work = state.queue.pop_front().map(|batch| (Arc::clone(shared), batch));
        if work.is_none() {
            if shared.stop.load(Ordering::SeqCst) {
                state.idle_workers -= 1;
                return;
            }
            let source = shared.steal_source.lock().unwrap().clone();
            match source {
                Some(src) => {
                    // The source locks *other* servers' schedulers;
                    // holding our own here while a peer's thief holds
                    // theirs and locks ours would deadlock.
                    drop(state);
                    let stolen = src();
                    state = shared.state.lock().unwrap();
                    if let Some(StolenBatch { owner, batch }) = stolen {
                        shared.steals.fetch_add(1, Ordering::Relaxed);
                        work = Some((owner, batch));
                    } else if state.queue.is_empty() {
                        // Timed wait: peer queues fill without signalling
                        // our condvar, so re-poll the source periodically.
                        // (A batch pushed while we polled peers is taken
                        // on the next turn, without waiting.)
                        state = shared.work_ready.wait_timeout(state, STEAL_POLL).unwrap().0;
                    }
                }
                None => state = shared.work_ready.wait(state).unwrap(),
            }
        }
        if let Some((owner, batch)) = work {
            state.idle_workers -= 1;
            drop(state);
            run_batch(&owner, &batch);
            state = shared.state.lock().unwrap();
            state.idle_workers += 1;
        }
    }
}

/// Executes one batch to its terminal frame against `owner` — the
/// server the batch was accepted by, which is *not* the popping worker's
/// server when the batch was stolen. Every side effect (runner, fault
/// point, counters, index cleanup) lands on the owner, so stealing is
/// invisible to clients and to the owner's stats invariants.
fn run_batch(owner: &Arc<Shared>, batch: &Arc<Batch>) {
    batch.inner.lock().unwrap().started_at = Some(Instant::now());
    let emit: EmitFn = {
        let batch = Arc::clone(batch);
        let owner = Arc::clone(owner);
        Arc::new(move |resp: Response| batch.broadcast(&resp, &owner))
    };
    // Contain runner panics: the batch is answered with an `Error`
    // frame (replayed to every joiner) and the worker thread
    // survives to take the next batch. The `serve.worker.panic`
    // fault point fires *inside* the guard, exercising exactly this
    // path.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = &owner.cfg.faults {
            if plan.fires(points::WORKER_PANIC) {
                panic!("injected fault: worker panic");
            }
        }
        (owner.runner)(&batch.req, emit)
    }));
    let terminal = match outcome {
        Ok(Ok(RunOutcome { status, payload })) => {
            Response::Done { status: status as i64, payload }
        }
        Ok(Err(message)) => Response::Error { message },
        Err(panic) => {
            owner.worker_panics.fetch_add(1, Ordering::Relaxed);
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Response::Error { message: format!("worker panicked: {msg}") }
        }
    };
    // Terminal delivery needs only the batch's own lock: an
    // attacher that still finds the index entry afterwards locks
    // `inner`, sees `done`, and retries as a fresh request. Writing
    // to client sockets while holding the scheduler lock would let
    // one slow client stall every connection on the daemon.
    let delivered = batch.finish(&terminal, owner, true);
    if delivered.is_some()
        && matches!(terminal, Response::Done { .. })
        && owner.stop.load(Ordering::SeqCst)
    {
        owner.drained_requests.fetch_add(1, Ordering::Relaxed);
    }
    // Only the index removal touches the scheduler lock.
    let mut state = owner.state.lock().unwrap();
    if let Some(indexed) = state.index.get(&batch.req) {
        if Arc::ptr_eq(indexed, batch) {
            state.index.remove(&batch.req);
        }
    }
}

/// Watchdog tick. Deadline precision is ± one tick; the budgets this
/// enforces are tens of milliseconds and up.
const WATCHDOG_TICK: Duration = Duration::from_millis(25);

/// Enforces [`ServerConfig::queue_deadline`] /
/// [`ServerConfig::run_deadline`] / [`ServerConfig::drain_deadline`] and
/// detects drain completion. Runs until [`Server::serve`] is about to
/// return.
fn watchdog_loop(shared: &Shared, endpoint: &SelfEndpoint) {
    loop {
        std::thread::sleep(WATCHDOG_TICK);
        if shared.watchdog_stop.load(Ordering::SeqCst) {
            return;
        }
        let now = Instant::now();
        let draining = shared.stop.load(Ordering::SeqCst);
        let drain_expired = draining
            && shared
                .drain_started
                .lock()
                .unwrap()
                .is_some_and(|t| now.duration_since(t) > shared.cfg.drain_deadline);
        let mut to_expire: Vec<(Arc<Batch>, Response)> = Vec::new();
        {
            let mut state = shared.state.lock().unwrap();
            // Queue-phase budgets; a passed drain deadline expires
            // whatever is still queued regardless of its age.
            if shared.cfg.queue_deadline.is_some() || drain_expired {
                let mut kept = VecDeque::new();
                while let Some(b) = state.queue.pop_front() {
                    let waited = now.duration_since(b.enqueued_at);
                    let over_queue =
                        shared.cfg.queue_deadline.is_some_and(|budget| waited > budget);
                    if !(over_queue || drain_expired) {
                        kept.push_back(b);
                        continue;
                    }
                    let (phase, budget) = if over_queue {
                        ("queue", shared.cfg.queue_deadline.unwrap())
                    } else {
                        ("drain", shared.cfg.drain_deadline)
                    };
                    if let Some(indexed) = state.index.get(&b.req) {
                        if Arc::ptr_eq(indexed, &b) {
                            state.index.remove(&b.req);
                        }
                    }
                    to_expire.push((
                        b,
                        Response::Expired {
                            phase: phase.into(),
                            waited_ms: waited.as_millis() as u64,
                            budget_ms: budget.as_millis() as u64,
                        },
                    ));
                }
                state.queue = kept;
            }
            // Run-phase budgets: release the clients and free the index
            // slot; the runner itself keeps executing (threads are
            // never killed) and its result is discarded.
            if let Some(budget) = shared.cfg.run_deadline {
                let over: Vec<(Arc<Batch>, Duration)> = state
                    .index
                    .values()
                    .filter_map(|b| {
                        let inner = b.inner.lock().unwrap();
                        let started = inner.started_at?;
                        let ran = now.duration_since(started);
                        (!inner.done && ran > budget).then(|| (Arc::clone(b), ran))
                    })
                    .collect();
                for (b, ran) in over {
                    state.index.remove(&b.req);
                    to_expire.push((
                        b,
                        Response::Expired {
                            phase: "run".into(),
                            waited_ms: ran.as_millis() as u64,
                            budget_ms: budget.as_millis() as u64,
                        },
                    ));
                }
            }
            // Drain completion: nothing queued, nothing in flight.
            if draining
                && !shared.drain_done.load(Ordering::SeqCst)
                && to_expire.is_empty()
                && state.queue.is_empty()
                && state.index.is_empty()
            {
                shared.drain_done.store(true, Ordering::SeqCst);
                endpoint.wake();
            }
        }
        for (batch, resp) in to_expire {
            if batch.finish(&resp, shared, false).is_some() {
                shared.expired.fetch_add(1, Ordering::Relaxed);
            }
        }
        if drain_expired && !shared.drain_done.load(Ordering::SeqCst) {
            shared.drain_done.store(true, Ordering::SeqCst);
            shared.work_ready.notify_all();
            endpoint.wake();
        }
    }
}
