//! The unified `mg` experiment CLI.
//!
//! One binary drives the whole evaluation matrix:
//!
//! ```text
//! mg run <experiment> [--quick|--full] [--threads N] [--best]
//!                     [--no-cache] [--format text|json|csv|markdown]
//! mg list  [--format ...]           # the experiment registry
//! mg report [--write|--check] [--format ...]   # regenerate the docs
//! mg cache  [stats|clear|dir] [--format ...]   # the artifact cache
//! ```
//!
//! Every experiment builds a structured [`Report`] — a sequence of text
//! lines and typed tables — and the format renderers derive all four
//! output shapes from it. The **text** rendering is the historical
//! plain-text output of the experiment.
//!
//! `mg report` turns the documentation into a build product: it composes
//! `EXPERIMENTS.md` (every experiment's quick-mode output, which is
//! deterministic) and the quickstart block of `README.md` from the same
//! registry, writes them with `--write`, and verifies them with `--check`
//! (CI fails on drift).

use crate::figures;
use mg_api::{InputSelector, MgError, Session};
use mg_harness::{quick_mode, CellObserver, PrepCache, Table};
use mg_workloads::Input;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Output format of every subcommand.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Format {
    /// Plain text (the historical per-experiment output).
    Text,
    /// One JSON document (`mg-report-v1`).
    Json,
    /// Tables only, comma-separated, with `# table:` separators.
    Csv,
    /// GitHub-flavoured markdown.
    Markdown,
}

impl Format {
    /// Parses a `--format` (or serve-request format) name.
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "text" => Some(Format::Text),
            "json" => Some(Format::Json),
            "csv" => Some(Format::Csv),
            "markdown" | "md" => Some(Format::Markdown),
            _ => None,
        }
    }
}

/// One table of a report: identified, typed, and renderable in every
/// format.
#[derive(Clone, Debug)]
pub struct TableBlock {
    /// Stable identifier (e.g. `"fig6.SPECint"`) for machine consumers.
    pub id: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (ragged rows allowed).
    pub rows: Vec<Vec<String>>,
    /// Whether the text renderer skips this table (used by experiments
    /// whose text output is empty, e.g. `perf`).
    pub hidden: bool,
}

/// One element of a report, in output order.
#[derive(Clone, Debug)]
pub enum Block {
    /// A verbatim text line (no trailing newline).
    Line(String),
    /// A table.
    Table(TableBlock),
}

/// A structured experiment report; the single source every output format
/// renders from.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The experiment's registry name.
    pub experiment: String,
    /// Lines and tables, in output order.
    pub blocks: Vec<Block>,
    /// Process exit status (non-zero for e.g. a perf regression gate).
    pub status: i32,
}

impl Report {
    /// Creates an empty report for `experiment`.
    pub fn new(experiment: impl Into<String>) -> Report {
        Report { experiment: experiment.into(), blocks: Vec::new(), status: 0 }
    }

    /// Appends a text line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.blocks.push(Block::Line(s.into()));
    }

    /// Appends an empty line followed by `s` (a `println!("\n…")`).
    pub fn blank_then(&mut self, s: impl Into<String>) {
        self.line("");
        self.line(s);
    }

    /// Appends a table.
    pub fn table(&mut self, t: TableBlock) {
        self.blocks.push(Block::Table(t));
    }

    /// All tables, in order.
    pub fn tables(&self) -> impl Iterator<Item = &TableBlock> {
        self.blocks.iter().filter_map(|b| match b {
            Block::Table(t) => Some(t),
            Block::Line(_) => None,
        })
    }
}

impl TableBlock {
    /// Creates a table with the given id and column headers.
    pub fn new(id: impl Into<String>, columns: &[&str]) -> TableBlock {
        TableBlock {
            id: id.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            hidden: false,
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Marks the table as hidden from the text renderer.
    pub fn hidden(mut self) -> TableBlock {
        self.hidden = true;
        self
    }

    fn render_text(&self) -> String {
        let cols: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        let mut t = Table::new(&cols);
        for r in &self.rows {
            t.row(r.clone());
        }
        t.render()
    }
}

/// Renders `report` as plain text.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for b in &report.blocks {
        match b {
            Block::Line(l) => {
                out.push_str(l);
                out.push('\n');
            }
            Block::Table(t) if !t.hidden => out.push_str(&t.render_text()),
            Block::Table(_) => {}
        }
    }
    out
}

/// Escapes a string for JSON output.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `report` as one `mg-report-v1` JSON document.
pub fn render_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"mg-report-v1\",\n");
    let _ = writeln!(out, "  \"experiment\": {},", json_str(&report.experiment));
    out.push_str("  \"blocks\": [\n");
    let mut first = true;
    for b in &report.blocks {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        match b {
            Block::Line(l) => {
                let _ = write!(out, "    {{\"type\": \"line\", \"text\": {}}}", json_str(l));
            }
            Block::Table(t) => {
                let cols: Vec<String> = t.columns.iter().map(|c| json_str(c)).collect();
                let _ = write!(
                    out,
                    "    {{\"type\": \"table\", \"id\": {}, \"columns\": [{}], \"rows\": [",
                    json_str(&t.id),
                    cols.join(", ")
                );
                for (i, r) in t.rows.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let cells: Vec<String> = r.iter().map(|c| json_str(c)).collect();
                    let _ = write!(out, "[{}]", cells.join(", "));
                }
                out.push_str("]}");
            }
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Escapes one CSV field.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders every table of `report` as CSV, separated by `# table:` lines.
pub fn render_csv(report: &Report) -> String {
    let mut out = String::new();
    for t in report.tables() {
        let _ = writeln!(out, "# table: {}", t.id);
        let cols: Vec<String> = t.columns.iter().map(|c| csv_field(c)).collect();
        let _ = writeln!(out, "{}", cols.join(","));
        for r in &t.rows {
            let cells: Vec<String> = r.iter().map(|c| csv_field(c)).collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
    }
    out
}

/// Renders `report` as GitHub-flavoured markdown: `== x ==` lines become
/// `###` headings, `-- x --` lines `####` headings, tables become pipe
/// tables.
pub fn render_markdown(report: &Report) -> String {
    let mut out = String::new();
    for b in &report.blocks {
        match b {
            Block::Line(l) => {
                let l = l.trim_end();
                if let Some(h) = l.strip_prefix("== ").and_then(|s| s.strip_suffix(" ==")) {
                    let _ = writeln!(out, "### {h}");
                } else if let Some(h) =
                    l.strip_prefix("-- ").and_then(|s| s.strip_suffix(" --"))
                {
                    let _ = writeln!(out, "#### {h}");
                } else if l.is_empty() {
                    out.push('\n');
                } else {
                    let _ = writeln!(out, "{}", l.trim_start());
                }
            }
            Block::Table(t) => {
                let _ = writeln!(out, "\n| {} |", t.columns.join(" | "));
                let _ = writeln!(
                    out,
                    "|{}|",
                    t.columns.iter().map(|_| "---").collect::<Vec<_>>().join("|")
                );
                let width = t.columns.len();
                for r in &t.rows {
                    let mut cells: Vec<String> = r.clone();
                    while cells.len() < width {
                        cells.push(String::new());
                    }
                    let _ = writeln!(out, "| {} |", cells.join(" | "));
                }
                out.push('\n');
            }
        }
    }
    out
}

/// Renders `report` in `format`.
pub fn render(report: &Report, format: Format) -> String {
    match format {
        Format::Text => render_text(report),
        Format::Json => render_json(report),
        Format::Csv => render_csv(report),
        Format::Markdown => render_markdown(report),
    }
}

/// Arguments of `mg run`.
#[derive(Clone)]
pub struct RunArgs {
    /// `--quick`/`--full` override; `None` means the experiment default
    /// (the `MG_QUICK` environment for the figures, quick for `perf`).
    pub quick: Option<bool>,
    /// `--threads N` worker override.
    pub threads: Option<usize>,
    /// `--best` (fig7 only): the §6.2 best-policy sweep.
    pub best: bool,
    /// `--no-cache`: disable the persistent artifact cache.
    pub no_cache: bool,
    /// `--input reference|alternative|tiny`: the workload data set
    /// (default reference; `robustness` pins its own train/test pair).
    pub input: Input,
    /// `--out PATH` (perf only): report destination.
    pub out: String,
    /// `--baseline PATH` (perf only): regression-gate reference.
    pub baseline: Option<String>,
    /// `--max-regression X` (perf only): gate bound.
    pub max_regression: f64,
    /// `--lang PATH` (lang only): an `.mgl` source file compiled and
    /// run alongside the built-in corpus.
    pub lang: Option<String>,
    /// The `mg_api` session the run executes against: owner of the
    /// warm-prep pool, cache root, and extension registries. One-shot
    /// `mg run` uses a fresh per-process session; `mg serve` clones one
    /// session into every request, which is what shares preps across
    /// clients.
    pub session: Session,
    /// Per-cell completion observer (`mg serve` streams these to
    /// clients).
    pub progress: Option<CellObserver>,
}

impl Default for RunArgs {
    fn default() -> RunArgs {
        RunArgs {
            quick: None,
            threads: None,
            best: false,
            no_cache: false,
            input: Input::reference(),
            out: "BENCH_pipeline.json".into(),
            baseline: None,
            max_regression: 3.0,
            lang: None,
            // The CLI's default: persistent artifact
            // cache on (at the default root) unless --no-cache.
            session: Session::builder().cache(true).build(),
            progress: None,
        }
    }
}

impl std::fmt::Debug for RunArgs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunArgs")
            .field("quick", &self.quick)
            .field("threads", &self.threads)
            .field("best", &self.best)
            .field("no_cache", &self.no_cache)
            .field("input", &self.input)
            .field("out", &self.out)
            .field("baseline", &self.baseline)
            .field("max_regression", &self.max_regression)
            .field("lang", &self.lang)
            .field("session", &self.session)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

/// Parses an `--input` / serve-request input name (the shared
/// [`InputSelector`] name table).
pub fn parse_input(name: &str) -> Option<Input> {
    InputSelector::resolve_named(name)
}

impl RunArgs {
    /// Whether this run is quick, applying the experiment default.
    pub fn is_quick(&self, default_quick: bool) -> bool {
        self.quick.unwrap_or_else(|| default_quick || quick_mode())
    }

    /// An engine builder configured from these arguments, built on the
    /// session's [`Session::engine_builder`] — the same code path the
    /// serve daemon and external embedders use — then specialized: quick
    /// per [`RunArgs::is_quick`] with a non-quick default, the session's
    /// cache unless `--no-cache`, the selected input, and the per-cell
    /// progress observer.
    pub fn engine(&self) -> mg_harness::EngineBuilder {
        let mut b = self.session.engine_builder().quick(self.is_quick(false)).input(self.input);
        if self.no_cache {
            b = b.cache(false);
        }
        if let Some(t) = self.threads {
            b = b.threads(t);
        }
        if let Some(obs) = &self.progress {
            b = b.observer(Arc::clone(obs));
        }
        b
    }
}

/// One registry entry: an experiment the CLI can run.
pub struct ExperimentSpec {
    /// Registry name (`mg run <name>`).
    pub name: &'static str,
    /// One-line description (shown by `mg list` and in the README).
    pub description: &'static str,
    /// Paper anchor (figure/section).
    pub paper_ref: &'static str,
    /// Builds the report.
    pub build: fn(&RunArgs) -> Report,
}

/// The experiment registry, in the paper's presentation order.
pub fn experiments() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec {
            name: "fig5",
            description:
                "Coverage sweeps: MGT capacity x max mini-graph size, all three panels",
            paper_ref: "Figure 5",
            build: figures::fig5,
        },
        ExperimentSpec {
            name: "fig6",
            description: "Speedup of the four mini-graph machine configurations over baseline",
            paper_ref: "Figure 6",
            build: figures::fig6,
        },
        ExperimentSpec {
            name: "fig7",
            description: "Serialization/replay ablations (--best adds the per-benchmark sweep)",
            paper_ref: "Figure 7, §6.2",
            build: figures::fig7,
        },
        ExperimentSpec {
            name: "fig8_regfile",
            description: "Performance vs physical-register-file size",
            paper_ref: "Figure 8 (top)",
            build: figures::fig8_regfile,
        },
        ExperimentSpec {
            name: "fig8_bandwidth",
            description:
                "Bandwidth and scheduler-latency reductions, with and without mini-graphs",
            paper_ref: "Figure 8 (bottom)",
            build: figures::fig8_bandwidth,
        },
        ExperimentSpec {
            name: "robustness",
            description: "Cross-input coverage robustness (train/test input split)",
            paper_ref: "§6.1",
            build: figures::robustness,
        },
        ExperimentSpec {
            name: "icache",
            description: "Instruction-cache effects: nop-padded vs compressed images",
            paper_ref: "§6.2",
            build: figures::icache,
        },
        ExperimentSpec {
            name: "iq_capacity",
            description: "Performance vs issue-queue size",
            paper_ref: "§6.3",
            build: figures::iq_capacity,
        },
        ExperimentSpec {
            name: "lang",
            description:
                "mg-lang corpus (plus --lang FILE.mgl) compiled, verified three ways, simulated",
            paper_ref: "frontend",
            build: crate::lang::lang_report,
        },
        ExperimentSpec {
            name: "policy_lab",
            description:
                "Selection-policy lab: greedy vs weighted/tiling/exact-DP with optimality gaps",
            paper_ref: "§4.2 extension",
            build: crate::policy_lab::policy_lab,
        },
        ExperimentSpec {
            name: "perf",
            description: "Times every sweep, writes BENCH_pipeline.json, gates on regressions",
            paper_ref: "tooling",
            build: figures::perf,
        },
    ]
}

/// Looks up an experiment by registry name.
pub fn experiment(name: &str) -> Option<ExperimentSpec> {
    experiments().into_iter().find(|e| e.name == name)
}

const USAGE: &str = "\
mg — unified experiment CLI for the mini-graphs reproduction

USAGE:
    mg run <experiment> [--quick|--full] [--threads N] [--best]
                        [--no-cache]
                        [--input reference|alternative|tiny]
                        [--format text|json|csv|markdown]
                        [--out PATH] [--baseline PATH] [--max-regression X]
                        [--lang FILE.mgl]
    mg compile <file.mgl> [--input reference|alternative|tiny] [--format ...]
    mg list   [--format ...]
    mg report [--write|--check] [--quick] [--threads N] [--no-cache] [--format ...]
    mg cache  [stats|clear|dir] [--format ...]
    mg serve  [--addr HOST:PORT | --socket PATH] [--workers N] [--max-queue N]
              [--queue-deadline-ms N] [--run-deadline-ms N]
              [--drain-deadline-ms N] [--slow-client-ms N]
    mg client (run <experiment> [run flags] | ping | stats | shutdown [--no-drain])
              [--addr HOST:PORT | --socket PATH] [--retry N] [--backoff-ms N]
    mg chaos  [--seed N] [--clients N] [--faults all|io|panic|cache|none]
              [--duration-cycles quick|full]
    mg cluster [--addr HOST:PORT] [--shards N] [--workers N] [--max-queue N]
    mg loadgen [--seed N] [--clients N] [--requests N] [--shards N]
               [--kill-shard] [--duration-cycles quick|full]
               [--out PATH | --no-out]
    mg help

Run `mg list` for the experiment registry. `mg run lang` pushes the
mg-lang regression corpus (plus `--lang FILE.mgl`) through compile /
three-way verification / simulation; `mg compile` prints one compiled
image (stats + disassembly). `mg serve` starts a
long-running daemon sharing one warm prep pool across clients; `mg
client run` returns byte-identical output to the same `mg run`
invocation (see docs/PROTOCOL.md). `mg cluster` runs N such daemons as
shards behind one consistent-hash coordinator on the same wire
protocol; `mg loadgen` soaks a fresh in-process cluster with seeded
concurrent clients and writes the latency trajectory to
BENCH_serve.json. Every subcommand is a thin shell over the embeddable
`mg_api::Session` (see docs/API.md).

EXIT STATUS (mg_api::MgErrorKind::exit_code; sysexits-style):
    0    success (or the experiment's own status)
    1    experiment-reported failure (e.g. the perf regression gate)
    2    argv usage error (unknown flag, missing value)
    64   invalid-spec: unknown experiment/workload/policy/input/format name
    65   parse:        bytes or text failed to decode
    70   exec:         a workload faulted, overran its budget, or panicked
    71   selection:    unsatisfiable selection policy
    72   rewrite:      rewritten image failed to execute
    73   cache:        artifact-cache failure (a corrupt file is a miss,
                       not an error; this is e.g. `mg cache clear` I/O)
    74   io:           file I/O failure (reports, baselines)
    75   busy:         `mg client run` backpressure (EX_TEMPFAIL; retry)
    76   protocol:     serve transport/handshake/version failure
    77   timeout:      a serve deadline expired (`Expired` frame) or a
                       retry budget ran out

The table is the full `mg_api` error-kind mapping; kinds a subcommand
cannot currently produce (exec/selection/rewrite surface through the
embeddable API and the daemon's typed Error frames, not `mg run`,
whose registry workloads are known-good) are listed for completeness.
";

/// Prints an [`MgError`] as `mg <cmd>: <error>` and returns its
/// documented exit status (the table in [`USAGE`]).
fn fail(cmd: &str, e: MgError) -> i32 {
    eprintln!("mg {cmd}: {e}");
    e.exit_code()
}

/// Entry point of the `mg` binary. Returns the process exit status.
pub fn mg_main() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprint!("{USAGE}");
        return 2;
    };
    match cmd.as_str() {
        "run" => cmd_run(&argv[1..]),
        "list" => cmd_list(&argv[1..]),
        "report" => cmd_report(&argv[1..]),
        "cache" => cmd_cache(&argv[1..]),
        "compile" => crate::lang::cmd_compile(&argv[1..]),
        "serve" => crate::serve_cli::cmd_serve(&argv[1..]),
        "client" => crate::serve_cli::cmd_client(&argv[1..]),
        "chaos" => crate::chaos_cli::cmd_chaos(&argv[1..]),
        "cluster" => crate::cluster_cli::cmd_cluster(&argv[1..]),
        "loadgen" => crate::loadgen_cli::cmd_loadgen(&argv[1..]),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            0
        }
        other => {
            eprintln!("mg: unknown command {other:?}\n");
            eprint!("{USAGE}");
            2
        }
    }
}

/// A flag-parsing failure: a malformed argv (classic usage error, exit
/// 2) or a well-formed flag naming an unknown thing (a typed
/// [`MgError`] with the documented exit code — the same classification
/// the serve runner gives the identical mistake on the wire).
enum FlagError {
    Usage(String),
    Spec(MgError),
}

impl FlagError {
    /// Prints the error as `mg <cmd>: …` and returns its exit status.
    fn exit(self, cmd: &str) -> i32 {
        match self {
            FlagError::Usage(msg) => {
                eprintln!("mg {cmd}: {msg}");
                2
            }
            FlagError::Spec(e) => fail(cmd, e),
        }
    }
}

impl From<String> for FlagError {
    fn from(msg: String) -> FlagError {
        FlagError::Usage(msg)
    }
}

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlagError::Usage(msg) => f.write_str(msg),
            FlagError::Spec(e) => write!(f, "{e}"),
        }
    }
}

/// Parses the flags shared by `run`/`report` plus a format; returns
/// leftover positional arguments.
fn parse_flags(
    argv: &[String],
    args: &mut RunArgs,
    format: &mut Format,
) -> Result<Vec<String>, FlagError> {
    let mut positional = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
        match a.as_str() {
            "--quick" => args.quick = Some(true),
            "--full" => args.quick = Some(false),
            "--best" => args.best = true,
            "--no-cache" => args.no_cache = true,
            "--threads" => {
                args.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|_| "--threads requires a positive integer".to_string())?,
                )
            }
            "--format" => {
                let v = value("--format")?;
                *format = Format::parse(&v).ok_or_else(|| {
                    FlagError::Spec(MgError::invalid_spec(format!(
                        "unknown format {v:?} (text|json|csv|markdown)"
                    )))
                })?;
            }
            "--input" => {
                let v = value("--input")?;
                args.input = parse_input(&v).ok_or_else(|| {
                    FlagError::Spec(MgError::invalid_spec(format!(
                        "unknown input {v:?} (reference|alternative|tiny)"
                    )))
                })?;
            }
            "--lang" => args.lang = Some(value("--lang")?),
            "--out" => args.out = value("--out")?,
            "--baseline" => args.baseline = Some(value("--baseline")?),
            "--max-regression" => {
                args.max_regression = value("--max-regression")?
                    .parse()
                    .map_err(|_| "--max-regression requires a number".to_string())?
            }
            flag if flag.starts_with("--") => {
                return Err(FlagError::Usage(format!("unknown flag {flag:?}")));
            }
            pos => positional.push(pos.to_string()),
        }
    }
    Ok(positional)
}

fn cmd_run(argv: &[String]) -> i32 {
    let mut args = RunArgs::default();
    let mut format = Format::Text;
    let positional = match parse_flags(argv, &mut args, &mut format) {
        Ok(p) => p,
        Err(e) => return e.exit("run"),
    };
    let [name] = positional.as_slice() else {
        eprintln!("mg run: expected exactly one experiment name; see `mg list`");
        return 2;
    };
    let Some(spec) = experiment(name) else {
        return fail(
            "run",
            MgError::invalid_spec(format!("unknown experiment {name:?}; see `mg list`")),
        );
    };
    let report = (spec.build)(&args);
    print!("{}", render(&report, format));
    report.status
}

fn cmd_list(argv: &[String]) -> i32 {
    let mut args = RunArgs::default();
    let mut format = Format::Text;
    if let Err(e) = parse_flags(argv, &mut args, &mut format) {
        return e.exit("list");
    }
    let mut report = Report::new("list");
    report.line("== Experiments (mg run <name>) ==");
    let mut t = TableBlock::new("list", &["name", "paper", "description"]);
    for e in experiments() {
        t.row(vec![e.name.to_string(), e.paper_ref.to_string(), e.description.to_string()]);
    }
    report.table(t);
    print!("{}", render(&report, format));
    0
}

fn cmd_cache(argv: &[String]) -> i32 {
    let mut args = RunArgs::default();
    let mut format = Format::Text;
    let positional = match parse_flags(argv, &mut args, &mut format) {
        Ok(p) => p,
        Err(e) => return e.exit("cache"),
    };
    let action = positional.first().map(String::as_str).unwrap_or("stats");
    let cache = PrepCache::new(PrepCache::default_root());
    match action {
        "dir" => {
            println!("{}", cache.root().display());
            0
        }
        "clear" => match cache.clear() {
            Ok(()) => {
                println!("cleared {}", cache.root().display());
                0
            }
            Err(e) => fail(
                "cache clear",
                MgError::cache(format!("cannot clear {}: {e}", cache.root().display()))
                    .with_source(e),
            ),
        },
        "stats" => {
            let s = cache.stats();
            let mut report = Report::new("cache");
            report.line(format!("== Artifact cache at {} ==", cache.root().display()));
            let mut t = TableBlock::new("cache.stats", &["kind", "files"]);
            t.row(vec!["selections".into(), s.selections.to_string()]);
            t.row(vec!["traces".into(), s.traces.to_string()]);
            t.row(vec!["images".into(), s.images.to_string()]);
            t.row(vec!["other".into(), s.other.to_string()]);
            t.row(vec!["total bytes".into(), s.bytes.to_string()]);
            report.table(t);
            print!("{}", render(&report, format));
            0
        }
        other => fail(
            "cache",
            MgError::invalid_spec(format!("unknown action {other:?} (stats|clear|dir)")),
        ),
    }
}

/// The experiments `mg report` documents, in order. `perf` is excluded:
/// its output is wall-clock timings, which are machine-dependent and
/// would make the generated docs non-reproducible.
///
/// Each builder constructs its own engine — ~9 preparation passes per
/// report, exactly like running the nine binaries did. That redundancy
/// is deliberate: fig7 prepares only its focus subset, robustness
/// prepares two different inputs, and per-builder engines are what
/// keep every experiment's output byte-identical to its standalone
/// `mg run` invocation.
const REPORT_EXPERIMENTS: &[&str] = &[
    "fig5",
    "fig6",
    "fig7",
    "fig8_regfile",
    "fig8_bandwidth",
    "robustness",
    "icache",
    "iq_capacity",
    "lang",
    "policy_lab",
];

/// Marker opening the generated quickstart block in `README.md`.
pub const README_BEGIN: &str =
    "<!-- mg:quickstart:begin (generated by `mg report --write`) -->";
/// Marker closing the generated quickstart block in `README.md`.
pub const README_END: &str = "<!-- mg:quickstart:end -->";

/// The repository root (the bench crate lives at `crates/bench`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Composes the generated `EXPERIMENTS.md`: prose plus each experiment's
/// quick-mode text output (deterministic across machines and thread
/// counts) in fenced blocks.
pub fn compose_experiments_md(args: &RunArgs) -> String {
    let mut out = String::from(
        "# Experiment log\n\
         \n\
         <!-- GENERATED FILE. Regenerate with:\n\
         `cargo run --release -p mg-bench --bin mg -- report --write`\n\
         (CI checks this file against the regenerated output and fails on drift.) -->\n\
         \n\
         Output of every experiment in **quick mode** (`--quick`: 30k simulated\n\
         ops per run, tiny fractions of the full traces) on the reference\n\
         input. Quick-mode results are deterministic — independent of the\n\
         machine and the `--threads` fan-out — which is what lets this file be\n\
         a build product. Full-size runs drop `--quick`; numbers below are for\n\
         orientation and CI smoke checks, not for quoting. See `DESIGN.md` §2\n\
         for why absolute values differ from the paper while the trends are\n\
         the reproduction target, and `DESIGN.md` §5 for the CLI and the\n\
         artifact cache that make regenerating this file cheap.\n\
         \n\
         Regenerate any one section with\n\
         `cargo run --release -p mg-bench --bin mg -- run <name> --quick`.\n\
         \n\
         ## Performance trajectory — `mg run perf` and `BENCH_pipeline.json`\n\
         \n\
         `cargo run --release -p mg-bench --bin mg -- run perf` times every\n\
         figure experiment (a fresh engine plus the shared run matrix from\n\
         `mg_bench::experiments`, with the artifact cache off so the numbers\n\
         track real compute) and a synthetic selection stress case, then\n\
         writes `BENCH_pipeline.json`:\n\
         \n\
         * `wall_ms` = `prep_ms` (engine build: profile + enumerate) +\n\
           `run_ms` (the simulation matrix, or pure selection for\n\
           `fig5_coverage` / `select_stress`);\n\
         * `mcycles_per_s` — simulated megacycles per second of run time, the\n\
           simulator hot-loop health metric (omitted for selection-only rows\n\
           like `fig5_coverage` / `select_stress`, which simulate nothing);\n\
         * `mops_per_s` — committed fetched operations per second (instances\n\
           chosen per second for the selection rows);\n\
         * every simulation row runs its matrix the one way the engine runs\n\
           any sweep: configurations over one image deduplicated, one shared\n\
           predecode plane, each distinct configuration simulated to\n\
           completion in turn;\n\
         * `artifacts_cold` / `artifacts_warm` — one full artifact sweep\n\
           (every selection, baseline trace, and rewritten image) against an\n\
           empty and then a warm persistent cache: the cold/warm gap is the\n\
           recomputation the cache saves.\n\
         \n\
         Timings are machine- and thread-count-dependent, so they are *not*\n\
         part of this generated file; the committed `BENCH_pipeline.json` is\n\
         the trajectory. CI's `perf-smoke` job re-runs\n\
         `mg run perf --quick --baseline BENCH_pipeline.json --max-regression 3`\n\
         and fails on any >3x wall-clock regression — a loose bound that\n\
         catches wedges, not runner noise. Refresh the committed file from the\n\
         CI job's uploaded artifact (not a dev machine) when the simulator\n\
         legitimately changes speed class.\n",
    );
    for name in REPORT_EXPERIMENTS {
        let spec = experiment(name).expect("registry name");
        let mut run_args = args.clone();
        run_args.quick = Some(true);
        let report = (spec.build)(&run_args);
        let _ = write!(
            out,
            "\n## {} — {} (quick mode)\n\n```\n{}```\n",
            spec.paper_ref,
            spec.description,
            render_text(&report)
        );
    }
    out
}

/// Composes the generated quickstart block for `README.md` (between
/// [`README_BEGIN`] and [`README_END`]).
pub fn compose_readme_block() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{README_BEGIN}");
    out.push_str(
        "Each experiment regenerates one table/figure of the paper's\n\
         evaluation (sample output in [`EXPERIMENTS.md`](EXPERIMENTS.md),\n\
         itself generated by `mg report --write`):\n\n```sh\n",
    );
    let specs = experiments();
    let width = specs.iter().map(|e| e.name.len()).max().unwrap_or(0);
    for e in &specs {
        let _ = writeln!(
            out,
            "cargo run --release -p mg-bench --bin mg -- run {:<width$}  # {}: {}",
            e.name, e.paper_ref, e.description
        );
    }
    out.push_str(
        "```\n\n\
         Useful flags (every experiment): `--quick` caps simulated ops per run\n\
         (also `MG_QUICK=1`), `--threads N` bounds the fan-out (also\n\
         `MG_THREADS`), `--no-cache` disables the persistent artifact cache\n\
         under `target/mg-cache/` (also `MG_NO_CACHE=1`), and\n\
         `--format text|json|csv|markdown` selects the output shape.\n\
         `mg list` prints this registry; `mg cache stats|clear|dir` manages\n\
         the artifact cache.\n",
    );
    let _ = write!(
        out,
        "\n### Serving experiments — `mg serve` and `mg client`\n\n\
         For repeated sweeps and multi-client use, `mg serve` runs the same\n\
         registry as a long-running daemon sharing one warm prep pool across\n\
         all clients (default endpoint `{addr}`):\n\n\
         ```sh\n\
         cargo run --release -p mg-bench --bin mg -- serve &\n\
         cargo run --release -p mg-bench --bin mg -- client ping --retry 50\n\
         cargo run --release -p mg-bench --bin mg -- client run fig6 --quick --format json\n\
         cargo run --release -p mg-bench --bin mg -- client stats\n\
         cargo run --release -p mg-bench --bin mg -- client shutdown\n\
         ```\n\n\
         A served `run` prints byte-identical output to the same `mg run`\n\
         invocation, streams per-cell progress to stderr while the matrix\n\
         runs, and coalesces identical concurrent requests onto one\n\
         execution; a full queue answers `Busy` (exit 75, retry later).\n\
         `--socket PATH` serves a Unix socket instead of TCP. The wire\n\
         protocol (framing, every request/response variant, versioning tied\n\
         to the cache schema) is specified in\n\
         [`docs/PROTOCOL.md`](docs/PROTOCOL.md); the request lifecycle is\n\
         diagrammed in [`docs/ARCHITECTURE.md`](docs/ARCHITECTURE.md).\n\n\
         To scale the daemon out, `mg cluster --shards 3` runs three such\n\
         servers behind one coordinator speaking the same protocol\n\
         (default endpoint `{cluster_addr}`): runs are routed to shards by\n\
         their preparation key over a consistent-hash ring (so identical\n\
         requests keep coalescing), idle shards steal queued batches from\n\
         busy peers, per-shard cache roots read through to the shared\n\
         root, and a dead shard's keys fail over to its ring successor.\n\
         `mg loadgen --seed 7 --clients 100 --shards 3` soaks a fresh\n\
         in-process cluster with seeded concurrent retrying clients\n\
         (hot duplicates + cold uniques), byte-checks every payload\n\
         against `mg run`, enforces cluster-wide exactly-once preparation\n\
         and a graceful drain, and writes throughput + p50/p95/p99\n\
         latency to [`BENCH_serve.json`](BENCH_serve.json); add\n\
         `--kill-shard` to hard-kill one shard mid-soak and prove no\n\
         accepted request is dropped.\n\n\
         ### Embedding — `mg_api::Session`\n\n\
         Everything above is a thin shell over the typed, embeddable\n\
         session API: `mg run`, the daemon's runner, and out-of-tree\n\
         consumers all drive the same `mg_api::Session` (`RunSpec` in,\n\
         structured `RunOutcome`/`MgError` out; distinct exit codes per\n\
         error kind, listed by `mg help`). The embedding guide is\n\
         [`docs/API.md`](docs/API.md); `examples/embed.rs` registers a\n\
         custom workload through the `WorkloadSource` trait and runs it\n\
         next to a registry kernel:\n\n\
         ```sh\n\
         cargo run --release --example embed\n\
         ```\n",
        addr = crate::serve_cli::DEFAULT_ADDR,
        cluster_addr = crate::cluster_cli::DEFAULT_ADDR,
    );
    let _ = writeln!(out, "{README_END}");
    out
}

/// Replaces the generated block of `readme` with `block`; `None` if the
/// markers are missing or out of order.
pub fn splice_readme(readme: &str, block: &str) -> Option<String> {
    let begin = readme.find(README_BEGIN)?;
    let end_at = readme.find(README_END)?;
    let end = end_at + README_END.len();
    if end_at < begin {
        return None;
    }
    let mut out = String::with_capacity(readme.len() + block.len());
    out.push_str(&readme[..begin]);
    out.push_str(block.trim_end());
    out.push_str(&readme[end..]);
    Some(out)
}

fn cmd_report(argv: &[String]) -> i32 {
    let mut args = RunArgs::default();
    let mut format = Format::Markdown;
    let mut mode = "print";
    let mut rest = Vec::new();
    for a in argv {
        match a.as_str() {
            "--write" => mode = "write",
            "--check" => mode = "check",
            other => rest.push(other.to_string()),
        }
    }
    if let Err(e) = parse_flags(&rest, &mut args, &mut format) {
        return e.exit("report");
    }

    if mode == "print" && format != Format::Markdown {
        // Non-markdown report: every experiment in the requested format.
        // JSON wraps the per-experiment documents in one array so the
        // stream stays a single parseable document; text and CSV
        // concatenate (CSV keeps its `# table:` separators).
        let reports = REPORT_EXPERIMENTS.iter().map(|name| {
            let spec = experiment(name).expect("registry name");
            let mut run_args = args.clone();
            run_args.quick = Some(true);
            (spec.build)(&run_args)
        });
        if format == Format::Json {
            let docs: Vec<String> = reports
                .map(|r| {
                    let doc = render_json(&r);
                    // Indent each document two spaces to sit inside the array.
                    let indented: Vec<String> =
                        doc.trim_end().lines().map(|l| format!("  {l}")).collect();
                    indented.join("\n")
                })
                .collect();
            println!("[\n{}\n]", docs.join(",\n"));
        } else {
            for report in reports {
                print!("{}", render(&report, format));
            }
        }
        return 0;
    }

    let experiments_md = compose_experiments_md(&args);
    let readme_block = compose_readme_block();
    let root = repo_root();
    let experiments_path = root.join("EXPERIMENTS.md");
    let readme_path = root.join("README.md");

    match mode {
        "print" => {
            print!("{experiments_md}");
            0
        }
        "write" => {
            if let Err(e) = std::fs::write(&experiments_path, &experiments_md) {
                let msg = format!("cannot write {}: {e}", experiments_path.display());
                return fail("report", MgError::io(msg).with_source(e));
            }
            eprintln!("wrote {}", experiments_path.display());
            let readme = match std::fs::read_to_string(&readme_path) {
                Ok(r) => r,
                Err(e) => {
                    let msg = format!("cannot read {}: {e}", readme_path.display());
                    return fail("report", MgError::io(msg).with_source(e));
                }
            };
            let Some(spliced) = splice_readme(&readme, &readme_block) else {
                return fail(
                    "report",
                    MgError::parse(format!(
                        "README.md is missing the `{README_BEGIN}` / `{README_END}` markers"
                    )),
                );
            };
            if let Err(e) = std::fs::write(&readme_path, spliced) {
                let msg = format!("cannot write {}: {e}", readme_path.display());
                return fail("report", MgError::io(msg).with_source(e));
            }
            eprintln!("wrote {} (quickstart block)", readme_path.display());
            0
        }
        "check" => {
            let mut drift = false;
            match std::fs::read_to_string(&experiments_path) {
                Ok(committed) if committed == experiments_md => {
                    eprintln!("EXPERIMENTS.md is up to date");
                }
                Ok(committed) => {
                    drift = true;
                    report_drift("EXPERIMENTS.md", &committed, &experiments_md);
                }
                Err(e) => {
                    drift = true;
                    eprintln!("mg report --check: cannot read EXPERIMENTS.md: {e}");
                }
            }
            match std::fs::read_to_string(&readme_path) {
                Ok(readme) => match splice_readme(&readme, &readme_block) {
                    Some(spliced) if spliced == readme => {
                        eprintln!("README.md quickstart block is up to date");
                    }
                    Some(spliced) => {
                        drift = true;
                        report_drift("README.md", &readme, &spliced);
                    }
                    None => {
                        drift = true;
                        eprintln!("mg report --check: README.md markers missing");
                    }
                },
                Err(e) => {
                    drift = true;
                    eprintln!("mg report --check: cannot read README.md: {e}");
                }
            }
            if drift {
                eprintln!(
                    "docs drift detected — run \
                     `cargo run --release -p mg-bench --bin mg -- report --write` and commit"
                );
                1
            } else {
                0
            }
        }
        _ => unreachable!("mode is one of print/write/check"),
    }
}

/// Prints the first differing line of a drifted document.
fn report_drift(name: &str, committed: &str, regenerated: &str) {
    for (i, (c, r)) in committed.lines().zip(regenerated.lines()).enumerate() {
        if c != r {
            eprintln!("{name} drifts at line {}:", i + 1);
            eprintln!("  committed:   {c}");
            eprintln!("  regenerated: {r}");
            return;
        }
    }
    eprintln!(
        "{name} drifts in length: committed {} lines, regenerated {} lines",
        committed.lines().count(),
        regenerated.lines().count()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("sample");
        r.line("== Sample ==");
        r.blank_then("-- suite --");
        let mut t = TableBlock::new("sample.t", &["a", "b"]);
        t.row(vec!["1".into(), "x,y".into()]);
        r.table(t);
        r.line("gmean: 1.0");
        r
    }

    #[test]
    fn text_rendering_matches_legacy_shapes() {
        let s = render_text(&sample());
        assert!(s.starts_with("== Sample ==\n\n-- suite --\n"));
        assert!(s.ends_with("gmean: 1.0\n"));
        // Hidden tables are skipped by text only.
        let mut r = Report::new("h");
        r.table(TableBlock::new("h.t", &["x"]).hidden());
        assert_eq!(render_text(&r), "");
        assert!(render_json(&r).contains("\"h.t\""));
    }

    #[test]
    fn json_is_escaped() {
        let s = render_json(&sample());
        assert!(s.contains("\"schema\": \"mg-report-v1\""));
        assert!(s.contains("\"x,y\""));
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\n\"");
    }

    #[test]
    fn csv_quotes_fields() {
        let s = render_csv(&sample());
        assert!(s.contains("# table: sample.t"));
        assert!(s.contains("1,\"x,y\""));
    }

    #[test]
    fn markdown_promotes_headings() {
        let s = render_markdown(&sample());
        assert!(s.contains("### Sample"));
        assert!(s.contains("#### suite"));
        assert!(s.contains("| a | b |"));
    }

    #[test]
    fn registry_names_resolve() {
        assert_eq!(experiments().len(), 11);
        for e in experiments() {
            assert!(experiment(e.name).is_some());
        }
        assert!(experiment("nonesuch").is_none());
        assert!(experiment("").is_none());
        // The per-figure binary names of earlier releases are gone.
        assert!(experiment("fig6_performance").is_none());
    }

    #[test]
    fn readme_splice_replaces_only_the_block() {
        let readme = format!("head\n{README_BEGIN}\nold\n{README_END}\ntail\n");
        let spliced = splice_readme(&readme, &compose_readme_block()).unwrap();
        assert!(spliced.starts_with("head\n"));
        assert!(spliced.ends_with("\ntail\n"));
        assert!(spliced.contains("--bin mg -- run fig6 "));
        assert!(!spliced.contains("\nold\n"));
        assert!(splice_readme("no markers", "x").is_none());
    }
}
