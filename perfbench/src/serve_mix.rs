//! `serve_mix`: one op is one request to an in-process `mg serve`
//! server (the `serve_cli::bind_registry_server_with` path on a Unix
//! socket, 2 workers, a session with its own cache root), sent by one
//! closed-loop client. One pass sends every request kind ([`MIX`]) once,
//! in a seeded order per pass, each request only when the previous one
//! has completed.
//!
//! Reference: the payload of the same request rendered sequentially
//! in-process through the registry (`mg run`'s code path) with an
//! independent session; every served payload must be byte-identical,
//! except for the wall-clock cells of one table (see [`comparable`]),
//! and every terminal frame must be `Done`.

use crate::trace::{Recorder, OP};
use crate::{secs, Measured, Order, Plan, Traced, SETUP_REPS};
use mg_api::Session;
use mg_bench::cli::{self, Format, RunArgs};
use mg_bench::serve_cli::{bind_registry_server_with, registry_runner};
use mg_serve::{Client, Request, Response, RunRequest, Runner, Server, ServerConfig};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One pass: every (experiment, input, format) once.
///
/// One client sends them, one at a time: with a second concurrent
/// client on 2 CPUs, a request's latency depends on which request the
/// other client happens to be running (fig7 and icache read either
/// about 280 or about 430 ms), and `tail_ms` spreads past its bound.
pub const MIX: [(&str, &str, &str); 10] = [
    ("fig5", "reference", "json"),
    ("fig5", "reference", "text"),
    ("fig7", "tiny", "json"),
    ("fig7", "tiny", "text"),
    ("icache", "tiny", "json"),
    ("icache", "tiny", "text"),
    ("lang", "reference", "json"),
    ("lang", "reference", "text"),
    ("policy_lab", "tiny", "json"),
    ("policy_lab", "tiny", "text"),
];

/// The one table whose cells hold wall-clock times: `policy_lab`'s
/// hidden per-selector timing table, which only the structured formats
/// render, so no two renderings of its JSON are byte-identical.
const WALL_CLOCK_TABLE: &str = "\"id\": \"policy_lab.timing\"";

/// `payload` with the `select_ms` cell (the last of each row) of
/// [`WALL_CLOCK_TABLE`] emptied when it holds a number. Every other
/// byte must match the reference.
fn comparable(payload: &str) -> String {
    payload
        .split_inclusive('\n')
        .map(|line| {
            let Some(rows) =
                line.find("\"rows\": ").filter(|_| line.contains(WALL_CLOCK_TABLE))
            else {
                return line.to_string();
            };
            let cells: Vec<&str> = line[rows..]
                .split("\"]")
                .map(|piece| match piece.rfind('"') {
                    Some(i) if piece[i + 1..].parse::<f64>().is_ok() => &piece[..=i],
                    _ => piece,
                })
                .collect();
            format!("{}{}", &line[..rows], cells.join("\"]"))
        })
        .collect()
}

/// Server worker threads.
const WORKERS: usize = 2;

fn request(experiment: &str, input: &str, format: &str) -> RunRequest {
    RunRequest {
        input: input.into(),
        quick: Some(true),
        threads: Some(1),
        format: format.into(),
        ..RunRequest::new(experiment)
    }
}

/// Every request kind, once: one pass.
fn kinds() -> Vec<RunRequest> {
    MIX.iter().map(|(e, i, f)| request(e, i, f)).collect()
}

/// `(status, payload)` of `req` rendered in-process, as `mg run` would,
/// with the payload in [`comparable`] form.
fn render(req: &RunRequest, session: &Session) -> Result<(i64, String), String> {
    let spec = cli::experiment(&req.experiment).ok_or("unknown experiment")?;
    let format = Format::parse(&req.format).ok_or("unknown format")?;
    let args = RunArgs {
        quick: req.quick,
        threads: req.threads.map(|n| n as usize),
        input: cli::parse_input(&req.input).ok_or("unknown input")?,
        session: session.clone(),
        ..RunArgs::default()
    };
    let report = (spec.build)(&args);
    Ok((i64::from(report.status), comparable(&cli::render(&report, format))))
}

/// When the traced server's runner ran each request.
type RunLog = Arc<Mutex<Vec<(RunRequest, Instant, Instant)>>>;

/// A running server and what it takes to observe and stop it.
struct Running {
    socket: String,
    session: Session,
    handle: JoinHandle<std::io::Result<()>>,
    log: RunLog,
}

impl Running {
    fn client(&self) -> Client {
        Client::unix(&self.socket)
    }

    /// The per-layer serve counters, from the server's `Stats` reply:
    /// its own and its session pool's.
    fn counters(&self) -> Result<Vec<(&'static str, u64)>, String> {
        let Ok(Response::Stats { pairs }) = self.client().request(&Request::Stats, |_| {})
        else {
            return Err("stats request failed".into());
        };
        let stat = |key: &str| pairs.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v);
        Ok(vec![
            ("serve.batched", stat("batched")),
            ("serve.busy_rejections", stat("busy_rejections")),
            ("serve.expired", stat("expired")),
            ("serve.pool.prepared", stat("preps_prepared")),
            ("serve.pool.reused", stat("preps_reused")),
        ])
    }

    fn stop(self) -> Result<(), String> {
        self.client()
            .request(&Request::Shutdown { drain: true }, |_| {})
            .map_err(|e| e.to_string())?;
        self.handle.join().map_err(|_| "server thread panicked")?.map_err(|e| e.to_string())
    }
}

/// Binds and starts a server over `session`. Untraced servers are
/// `bind_registry_server_with` itself. Traced servers bind the same
/// registry runner behind a timing wrapper that logs each run, with the
/// same experiments and the same pool counters in `Stats`.
fn start(dir: &Path, session: Session, traced: bool) -> Result<Running, String> {
    let socket = dir.join("mg.sock").to_string_lossy().into_owned();
    let _ = std::fs::remove_file(&socket);
    let mut cfg = ServerConfig { workers: WORKERS, ..ServerConfig::default() };
    let log: RunLog = Arc::default();
    let server = if traced {
        let inner = registry_runner(session.clone());
        let log = Arc::clone(&log);
        let runner: Runner = Arc::new(move |req, emit| {
            let start = Instant::now();
            let out = inner(req, emit);
            log.lock().expect("run log").push((req.clone(), start, Instant::now()));
            out
        });
        let experiments = cli::experiments()
            .iter()
            .filter(|e| e.name != "perf")
            .map(|e| e.name.into())
            .collect();
        let pool = Arc::clone(session.pool());
        cfg.stats_extra = Some(Arc::new(move || {
            vec![
                ("preps_prepared".to_string(), pool.prepared()),
                ("preps_reused".to_string(), pool.reused()),
                ("preps_retried".to_string(), pool.retried()),
            ]
        }));
        Server::bind_unix(&socket, experiments, runner, cfg)
    } else {
        bind_registry_server_with(&socket, true, session.clone(), cfg)
    };
    let server = server.map_err(|e| format!("cannot bind {socket}: {e}"))?;
    let handle = server.spawn();
    Ok(Running { socket, session, handle, log })
}

/// The client's view of one request.
struct Sample {
    req: RunRequest,
    sent: Instant,
    queued: Option<Instant>,
    done: Instant,
    ok: bool,
}

/// Sends `reqs` one after another (closed loop), checking each payload.
fn walk(
    client: &Client,
    reqs: &[RunRequest],
    reference: &HashMap<RunRequest, (i64, String)>,
) -> Vec<Sample> {
    reqs.iter()
        .map(|req| {
            let sent = Instant::now();
            let mut queued = None;
            let reply = client.request(&Request::Run(req.clone()), |ev| {
                if matches!(ev, Response::Queued { .. }) && queued.is_none() {
                    queued = Some(Instant::now());
                }
            });
            let done = Instant::now();
            let ok = match reply {
                Ok(Response::Done { status, payload }) => {
                    reference.get(req) == Some(&(status, comparable(&payload)))
                }
                _ => false,
            };
            Sample { req: req.clone(), sent, queued, done, ok }
        })
        .collect()
}

/// Runs the client: an untimed warm-up pass, then `passes` timed passes
/// in the seeded order of `stream`. Returns the timed samples and the
/// timed phase's wall seconds.
fn drive(
    server: &Running,
    seed: u64,
    stream: u64,
    passes: usize,
    reference: &HashMap<RunRequest, (i64, String)>,
) -> (Vec<Sample>, f64) {
    let client = server.client();
    let warm = kinds();
    let mut order = Order::new(seed, stream);
    let timed: Vec<RunRequest> = (0..passes)
        .flat_map(|_| order.permutation(warm.len()).into_iter().map(|i| warm[i].clone()))
        .collect();
    walk(&client, &warm, reference);
    let t = Instant::now();
    let samples = walk(&client, &timed, reference);
    (samples, secs(t))
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Runs the workload.
///
/// # Errors
///
/// Bind, reference and transport failures.
pub fn run(plan: &Plan) -> Result<Measured, String> {
    let root = plan.work_dir.join("cache");
    let mut m = Measured::default();

    // References first, from a session dropped before any server starts.
    let reference_session = Session::builder().threads(1).quick(true).build();
    let reference: HashMap<RunRequest, (i64, String)> = kinds()
        .into_iter()
        .map(|req| Ok((req.clone(), render(&req, &reference_session)?)))
        .collect::<Result<_, String>>()?;
    drop(reference_session);

    // Set-up: bind a fresh server over a fresh session on an emptied cache
    // root and warm the session with one request per experiment.
    let mut server: Option<Running> = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            s.stop()?;
        }
        let _ = std::fs::remove_dir_all(&root);
        let t = Instant::now();
        let session = Session::builder().cache_dir(&root).threads(1).quick(true).build();
        let s = start(&plan.work_dir, session, false)?;
        let client = s.client();
        let mut warmed: Vec<&str> = Vec::new();
        for (e, i, _) in MIX {
            if !warmed.contains(&e) {
                warmed.push(e);
                let _ = client.request(&Request::Run(request(e, i, "json")), |_| {});
            }
        }
        m.setup_s.push(secs(t));
        server = Some(s);
    }
    let server = server.ok_or("no set-up repetition")?;

    let (samples, wall_s) = drive(&server, plan.seed, 0, plan.passes, &reference);
    m.timed_wall_s = wall_s;
    for s in &samples {
        m.op_ms.push(ms(s.sent, s.done));
        m.attempted += 1;
        m.failed += u64::from(!s.ok);
    }

    if plan.traced {
        // The traced passes run on a wrapper server bound over the same
        // warm session; counters are deltas over those passes.
        let session = server.session.clone();
        server.stop()?;
        let server = start(&plan.work_dir, session, true)?;
        let before = server.counters()?;
        let (samples, _) = drive(&server, plan.seed, 1, plan.passes.div_ceil(2), &reference);
        let log = std::mem::take(&mut *server.log.lock().expect("run log"));
        let mut t = trace_samples(&samples, &log);
        for ((name, after), (_, before)) in server.counters()?.into_iter().zip(before) {
            t.counts.insert(name, after - before);
        }
        m.traced = Some(t);
        server.stop()?;
    } else {
        server.stop()?;
    }
    Ok(m)
}

/// Splits each traced request's wall time at the client's `Queued`
/// arrival and the runner's start and return (clamped into order, so a
/// request batched onto a running execution waits 0 in the queue):
/// `serve.admit`, `serve.queue_wait`, `serve.run`, `serve.deliver`.
/// A request is inconsistent when no logged run can have answered it:
/// none of its kind returned between its sending and its reply.
fn trace_samples(samples: &[Sample], log: &[(RunRequest, Instant, Instant)]) -> Traced {
    let epoch = samples.iter().map(|s| s.sent).min().unwrap_or_else(Instant::now);
    let mut rec = Recorder::new(epoch);
    let mut t = Traced::default();
    for (op, s) in samples.iter().enumerate() {
        let op = Some(op as u32);
        // The execution that answered: the latest run of an equal
        // request that returned before the reply arrived.
        let run = log
            .iter()
            .filter(|(r, _, end)| r == &s.req && *end <= s.done)
            .max_by_key(|(_, _, end)| *end);
        t.inconsistent += u64::from(run.is_none_or(|&(_, _, end)| end < s.sent));
        let queued = s.queued.unwrap_or(s.sent).clamp(s.sent, s.done);
        let (start, end) = run.map_or((queued, queued), |&(_, a, b)| (a, b));
        let start = start.clamp(queued, s.done);
        let end = end.clamp(start, s.done);
        let root = rec.record(OP, s.sent, s.done, None, op);
        rec.record("serve.admit", s.sent, queued, Some(root), op);
        rec.record("serve.queue_wait", queued, start, Some(root), op);
        rec.record("serve.run", start, end, Some(root), op);
        rec.record("serve.deliver", end, s.done, Some(root), op);
        t.op_ms.push(ms(s.sent, s.done));
        t.failed += u64::from(!s.ok);
    }
    t.spans = rec.spans().to_vec();
    t.inconsistent += crate::trace::inconsistent_ops(&t.spans, &t.op_ms) as u64;
    t
}

#[cfg(test)]
mod tests {
    use super::comparable;

    fn timing_table(ms: &str) -> String {
        format!(
            "    {{\"type\": \"table\", \"id\": \"policy_lab.timing\", \
             \"columns\": [\"workload\", \"family\", \"select_ms\"], \
             \"rows\": [[\"a\", \"greedy\", \"{ms}\"], [\"(total)\", \"dp\", \"{ms}\"]]}},\n"
        )
    }

    #[test]
    fn only_numeric_timing_cells_are_blanked() {
        assert_eq!(comparable(&timing_table("0.094")), comparable(&timing_table("12.500")));
        assert_ne!(comparable(&timing_table("0.094")), comparable(&timing_table("x")));
        let other = "    {\"type\": \"table\", \"id\": \"policy_lab.matrix\", \
                     \"columns\": [\"x\"], \"rows\": [[\"0.5\"]]}\n";
        assert_eq!(comparable(other), other);
    }
}
