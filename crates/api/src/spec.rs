//! Typed request and result values of the session API.
//!
//! A [`RunSpec`] names *what* to run — workloads, input data set, and a
//! list of (image, machine-configuration) cells — entirely through
//! selectors, so a spec can be built from untrusted strings (a CLI
//! argv, a wire request) and validated in one place:
//! [`Session::run`](crate::session::Session::run) resolves every
//! selector before any preparation starts and reports the first
//! offender as [`MgError::InvalidSpec`](crate::error::MgError).
//!
//! Results come back as a [`RunOutcome`] — the full deterministic
//! matrix — while [`CellResult`] values stream through the optional
//! [`RunObserver`] in completion order as workers finish cells.

use mg_core::{Policy, RewriteStyle};
use mg_uarch::{SimConfig, SimStats};
use mg_workloads::{Input, Suite};
use std::sync::Arc;

/// Which workloads a run covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadSelector {
    /// Every registered workload, plus every session-registered
    /// [`WorkloadSource`](crate::extend::WorkloadSource).
    All,
    /// Every workload of one suite.
    Suite(Suite),
    /// Exactly the named workloads, in order (registry names first,
    /// then session-registered sources).
    Names(Vec<String>),
}

/// Which input data set a run uses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InputSelector {
    /// A named preset: `"reference"`, `"alternative"`, or `"tiny"`.
    Named(String),
    /// An explicit seed + scale.
    Explicit(Input),
}

impl InputSelector {
    /// The reference-input selector (the default).
    pub fn reference() -> InputSelector {
        InputSelector::Explicit(Input::reference())
    }

    /// Resolves a preset input name (`None` for an unknown one) — the
    /// one name table the CLI, the daemon, and
    /// [`Session::resolve_input`](crate::session::Session::resolve_input)
    /// all share.
    pub fn resolve_named(name: &str) -> Option<Input> {
        match name {
            "reference" => Some(Input::reference()),
            "alternative" => Some(Input::alternative()),
            "tiny" => Some(Input::tiny()),
            _ => None,
        }
    }
}

/// Which selection policy a mini-graph cell uses.
#[derive(Clone, Debug, PartialEq)]
pub enum PolicySelector {
    /// A named preset: `"default"`, `"integer"`, `"integer_memory"` /
    /// `"intmem"`, or any session-registered
    /// [`SelectionPolicy`](crate::extend::SelectionPolicy).
    Named(String),
    /// An explicit policy value (still validated for satisfiability).
    Explicit(Policy),
}

/// The image one cell simulates.
#[derive(Clone, Debug, PartialEq)]
pub enum ImageSpec {
    /// The original program.
    Baseline,
    /// The program rewritten with the mini-graphs `policy` selects.
    MiniGraph {
        /// The selection policy.
        policy: PolicySelector,
        /// Nop-padded or compressed rewrite.
        style: RewriteStyle,
    },
}

/// One column of the requested matrix: an image under a machine
/// configuration.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Display label (defaults to `"baseline"` / `"mg"`).
    pub label: String,
    /// The image under test.
    pub image: ImageSpec,
    /// The machine configuration.
    pub cfg: SimConfig,
}

impl CellSpec {
    /// A baseline-image cell under `cfg`.
    pub fn baseline(cfg: SimConfig) -> CellSpec {
        CellSpec { label: "baseline".into(), image: ImageSpec::Baseline, cfg }
    }

    /// A mini-graph cell: select under `policy`, rewrite with `style`,
    /// simulate under `cfg`.
    pub fn mini_graph(policy: PolicySelector, style: RewriteStyle, cfg: SimConfig) -> CellSpec {
        CellSpec { label: "mg".into(), image: ImageSpec::MiniGraph { policy, style }, cfg }
    }

    /// Sets the display label.
    pub fn label(mut self, label: impl Into<String>) -> CellSpec {
        self.label = label.into();
        self
    }
}

/// A complete run request: workloads × cells on one input.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Which workloads to run.
    pub workloads: WorkloadSelector,
    /// Which input data set.
    pub input: InputSelector,
    /// Per-spec quick-mode override (`None` inherits the session).
    pub quick: Option<bool>,
    /// The matrix columns, in order. Must be non-empty.
    pub cells: Vec<CellSpec>,
}

impl RunSpec {
    /// An empty spec over every workload on the reference input; add
    /// cells with [`RunSpec::cell`].
    pub fn new() -> RunSpec {
        RunSpec {
            workloads: WorkloadSelector::All,
            input: InputSelector::reference(),
            quick: None,
            cells: Vec::new(),
        }
    }

    /// Restricts the spec to the named workloads.
    pub fn workloads<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> RunSpec {
        self.workloads = WorkloadSelector::Names(names.into_iter().map(Into::into).collect());
        self
    }

    /// Selects the input data set.
    pub fn input(mut self, input: InputSelector) -> RunSpec {
        self.input = input;
        self
    }

    /// Overrides quick mode for this spec.
    pub fn quick(mut self, quick: bool) -> RunSpec {
        self.quick = Some(quick);
        self
    }

    /// Appends a matrix column.
    pub fn cell(mut self, cell: CellSpec) -> RunSpec {
        self.cells.push(cell);
        self
    }
}

impl Default for RunSpec {
    fn default() -> RunSpec {
        RunSpec::new()
    }
}

/// One completed matrix cell, streamed to a [`RunObserver`] in
/// completion order while the matrix runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellResult {
    /// Workload name of the cell's row.
    pub workload: String,
    /// Label of the cell's [`CellSpec`].
    pub label: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed fetched operations.
    pub ops: u64,
}

/// Per-cell streaming hook, called from worker threads in completion
/// order (the deterministic [`RunOutcome`] is unaffected).
pub type RunObserver = Arc<dyn Fn(&CellResult) + Send + Sync>;

/// One workload's row of a [`RunOutcome`]: its stats per cell, in spec
/// order.
#[derive(Clone, Debug)]
pub struct RowOutcome {
    /// Workload name.
    pub workload: String,
    /// Owning suite.
    pub suite: Suite,
    /// One result per [`CellSpec`], in the order given in the
    /// [`RunSpec`].
    pub stats: Vec<SimStats>,
}

impl RowOutcome {
    /// Speedup of cell `of` relative to cell `over` (IPC ratio over
    /// original program instructions, as in the paper's figures).
    pub fn speedup_over(&self, over: usize, of: usize) -> f64 {
        mg_harness::speedup(&self.stats[over], &self.stats[of])
    }
}

/// A completed deterministic matrix: rows follow workload order,
/// columns the spec's cell order. Bit-identical for parallel and
/// sequential execution.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The cell labels, in column order.
    pub labels: Vec<String>,
    /// One row per workload.
    pub rows: Vec<RowOutcome>,
}

impl RunOutcome {
    /// The row for a named workload.
    pub fn row(&self, workload: &str) -> Option<&RowOutcome> {
        self.rows.iter().find(|r| r.workload == workload)
    }

    /// Rows grouped by suite, preserving row order.
    pub fn by_suite(&self) -> Vec<(Suite, Vec<&RowOutcome>)> {
        Suite::ALL
            .iter()
            .map(|&s| (s, self.rows.iter().filter(|r| r.suite == s).collect()))
            .collect()
    }
}
