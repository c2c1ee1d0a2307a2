//! The session: the one object every consumer of the pipeline drives.
//!
//! A [`Session`] owns the operational state the paper's pipeline needs
//! beyond the request itself — the persistent artifact-cache root, the
//! shared warm-prep pool, quick-mode and trace budgets, a thread bound,
//! and the extension registries ([`WorkloadSource`],
//! [`SelectionPolicy`]). Requests ([`RunSpec`]) are resolved and
//! executed against that state; every failure comes back as a typed
//! [`MgError`], never a panic.
//!
//! Sessions are cheap to clone (the pool and registries are shared
//! behind `Arc`s), so one session can serve many threads: the `mg
//! serve` daemon clones one session into every worker, which is exactly
//! how all requests end up sharing one warm prep per workload.

use crate::error::MgError;
use crate::extend::{SelectionPolicy, WorkloadSource};
use crate::spec::{
    CellResult, ImageSpec, InputSelector, PolicySelector, RowOutcome, RunObserver, RunOutcome,
    RunSpec, WorkloadSelector,
};
use mg_core::Policy;
use mg_harness::{
    BuildError, CellDone, Engine, EngineBuilder, ExtraSource, PrepCache, PrepPool, Run,
};
use mg_workloads::Input;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Configures and builds a [`Session`]. See [`Session::builder`].
pub struct SessionBuilder {
    quick: Option<bool>,
    threads: Option<usize>,
    trace_budget: Option<u64>,
    cache_dir: Option<PathBuf>,
    cache_fallback_dir: Option<PathBuf>,
    pool: Option<Arc<PrepPool>>,
    sources: Vec<Arc<dyn WorkloadSource>>,
    policies: Vec<Arc<dyn SelectionPolicy>>,
    fault_plan: Option<Arc<mg_fault::FaultPlan>>,
}

impl SessionBuilder {
    fn new() -> SessionBuilder {
        SessionBuilder {
            quick: None,
            threads: None,
            trace_budget: None,
            cache_dir: None,
            cache_fallback_dir: None,
            pool: None,
            sources: Vec::new(),
            policies: Vec::new(),
            fault_plan: None,
        }
    }

    /// Forces quick mode on or off for every run of the session
    /// (default: inherit the `MG_QUICK` environment, overridable per
    /// [`RunSpec`]).
    pub fn quick(mut self, quick: bool) -> SessionBuilder {
        self.quick = Some(quick);
        self
    }

    /// Caps worker threads (default: available parallelism /
    /// `MG_THREADS`).
    pub fn threads(mut self, threads: usize) -> SessionBuilder {
        self.threads = Some(threads.max(1));
        self
    }

    /// Overrides the recorded-trace budget in ops (default: derived
    /// from quick mode).
    pub fn trace_budget(mut self, ops: u64) -> SessionBuilder {
        self.trace_budget = Some(ops);
        self
    }

    /// Enables the persistent artifact cache at its default root
    /// (`$MG_CACHE_DIR` or `target/mg-cache`). Off by default — library
    /// embeddings stay hermetic; the `mg` binaries turn it on.
    /// `MG_NO_CACHE=1` remains an operational kill switch.
    pub fn cache(self, enabled: bool) -> SessionBuilder {
        if enabled {
            self.cache_dir(PrepCache::default_root())
        } else {
            SessionBuilder { cache_dir: None, ..self }
        }
    }

    /// Enables the persistent artifact cache rooted at `dir`.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> SessionBuilder {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Chains a shared read-through cache root behind the session's
    /// primary root: a primary miss falls through to `dir` (and a hit
    /// there repopulates the primary), stores land in both roots. This
    /// is the `mg cluster` cache topology — each shard's session keeps a
    /// private primary root in front of one shared root, so artifacts
    /// computed by any shard are visible to all without write
    /// contention on the hot path. No effect unless a primary root is
    /// enabled via [`SessionBuilder::cache`] /
    /// [`SessionBuilder::cache_dir`].
    pub fn cache_fallback_dir(mut self, dir: impl Into<PathBuf>) -> SessionBuilder {
        self.cache_fallback_dir = Some(dir.into());
        self
    }

    /// Shares an existing warm-prep pool instead of creating a fresh
    /// one (e.g. to share preps across several sessions).
    pub fn pool(mut self, pool: Arc<PrepPool>) -> SessionBuilder {
        self.pool = Some(pool);
        self
    }

    /// Registers an out-of-tree workload (see [`WorkloadSource`]).
    /// Among registrations the last one with a given name wins; names
    /// shadowed by the built-in registry resolve to the registry.
    pub fn register_workload(mut self, source: Arc<dyn WorkloadSource>) -> SessionBuilder {
        self.sources.retain(|s| s.name() != source.name());
        self.sources.push(source);
        self
    }

    /// Registers a named selection-policy preset (see
    /// [`SelectionPolicy`]). Last registration of a name wins; built-in
    /// names win over registrations.
    pub fn register_policy(mut self, policy: Arc<dyn SelectionPolicy>) -> SessionBuilder {
        self.policies.retain(|p| p.name() != policy.name());
        self.policies.push(policy);
        self
    }

    /// Arms deterministic fault injection for the session's preparation
    /// machinery (see [`mg_fault::FaultPlan`]): the pool's
    /// `harness.prep.panic` point and the cache's `harness.cache.*`
    /// points fire under the plan. Chaos-testing machinery (`mg chaos`)
    /// — production embeddings never set this.
    pub fn fault_plan(mut self, plan: Arc<mg_fault::FaultPlan>) -> SessionBuilder {
        self.fault_plan = Some(plan);
        self
    }

    /// Builds the session. Infallible: selector validation happens per
    /// request, where the offending name is known.
    pub fn build(self) -> Session {
        let pool = self.pool.unwrap_or_default();
        if self.fault_plan.is_some() {
            pool.set_fault_plan(self.fault_plan.clone());
        }
        Session {
            quick: self.quick,
            threads: self.threads,
            trace_budget: self.trace_budget,
            cache_dir: self.cache_dir,
            cache_fallback_dir: self.cache_fallback_dir,
            pool,
            sources: Arc::new(self.sources),
            policies: Arc::new(self.policies),
            fault_plan: self.fault_plan,
        }
    }
}

/// A configured entry point to the pipeline (see the module docs).
#[derive(Clone)]
pub struct Session {
    quick: Option<bool>,
    threads: Option<usize>,
    trace_budget: Option<u64>,
    cache_dir: Option<PathBuf>,
    cache_fallback_dir: Option<PathBuf>,
    pool: Arc<PrepPool>,
    sources: Arc<Vec<Arc<dyn WorkloadSource>>>,
    policies: Arc<Vec<Arc<dyn SelectionPolicy>>>,
    fault_plan: Option<Arc<mg_fault::FaultPlan>>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("quick", &self.quick)
            .field("threads", &self.threads)
            .field("trace_budget", &self.trace_budget)
            .field("cache_dir", &self.cache_dir)
            .field("cache_fallback_dir", &self.cache_fallback_dir)
            .field("pooled_preps", &self.pool.len())
            .field("workload_sources", &self.sources.len())
            .field("policies", &self.policies.len())
            .field("fault_plan", &self.fault_plan.as_ref().map(|p| p.seed()))
            .finish()
    }
}

impl Default for Session {
    fn default() -> Session {
        Session::builder().build()
    }
}

impl Session {
    /// Starts configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// The session's warm-prep pool (shared by every engine the session
    /// builds; its `prepared`/`reused` counters are the daemon's
    /// sharing metrics).
    pub fn pool(&self) -> &Arc<PrepPool> {
        &self.pool
    }

    /// The persistent artifact-cache root, if caching is enabled.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    /// The shared read-through cache root, if one is chained (see
    /// [`SessionBuilder::cache_fallback_dir`]).
    pub fn cache_fallback_dir(&self) -> Option<&Path> {
        self.cache_fallback_dir.as_deref()
    }

    /// The session-wide quick-mode override, if any.
    pub fn quick(&self) -> Option<bool> {
        self.quick
    }

    /// The session-wide thread bound, if any.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// Every workload name the session can resolve: the registry, then
    /// session-registered sources (shadowed names omitted).
    pub fn workload_names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            mg_workloads::all().iter().map(|w| w.name.to_string()).collect();
        for s in self.sources.iter() {
            if !names.iter().any(|n| n == s.name()) {
                names.push(s.name().to_string());
            }
        }
        names
    }

    /// An engine builder carrying the session state: pool, registered
    /// sources, cache root, quick/thread/budget overrides. The CLI's
    /// `RunArgs` and the serve runner both start from here — this is
    /// the shared code path that keeps their outputs identical.
    pub fn engine_builder(&self) -> EngineBuilder {
        let mut b = Engine::builder().pool(Arc::clone(&self.pool));
        for source in self.sources.iter() {
            b = b.extra_source(extra_source(source));
        }
        if let Some(dir) = &self.cache_dir {
            b = b.cache_dir(dir);
        }
        if let Some(dir) = &self.cache_fallback_dir {
            b = b.cache_fallback_dir(dir);
        }
        if let Some(q) = self.quick {
            b = b.quick(q);
        }
        if let Some(t) = self.threads {
            b = b.threads(t);
        }
        if let Some(ops) = self.trace_budget {
            b = b.trace_budget(ops);
        }
        if let Some(plan) = &self.fault_plan {
            b = b.fault_plan(Arc::clone(plan));
        }
        b
    }

    /// Resolves an input selector.
    ///
    /// # Errors
    ///
    /// [`MgError::InvalidSpec`] for an unknown input name.
    pub fn resolve_input(&self, selector: &InputSelector) -> Result<Input, MgError> {
        match selector {
            InputSelector::Explicit(i) => Ok(*i),
            InputSelector::Named(name) => InputSelector::resolve_named(name).ok_or_else(|| {
                MgError::invalid_spec(format!(
                    "unknown input {name:?} (reference|alternative|tiny)"
                ))
            }),
        }
    }

    /// Resolves a policy selector: built-in presets, then
    /// session-registered [`SelectionPolicy`] names; the result is
    /// validated for satisfiability.
    ///
    /// # Errors
    ///
    /// [`MgError::InvalidSpec`] for an unknown name,
    /// [`MgError::Selection`] for a policy that can admit nothing.
    pub fn resolve_policy(&self, selector: &PolicySelector) -> Result<Policy, MgError> {
        let policy = match selector {
            PolicySelector::Explicit(p) => p.clone(),
            PolicySelector::Named(name) => match name.as_str() {
                "default" => Policy::default(),
                "integer" => Policy::integer(),
                "integer_memory" | "intmem" => Policy::integer_memory(),
                _ => self
                    .policies
                    .iter()
                    .rev()
                    .find(|p| p.name() == name)
                    .map(|p| p.policy())
                    .ok_or_else(|| {
                        MgError::invalid_spec(format!(
                            "unknown policy {name:?} (default|integer|integer_memory, or a \
                             session-registered preset)"
                        ))
                    })?,
            },
        };
        if policy.max_size < 2 {
            return Err(MgError::selection(format!(
                "policy max_size {} admits no mini-graph (minimum legal size is 2)",
                policy.max_size
            )));
        }
        if policy.capacity == 0 {
            return Err(MgError::selection(
                "policy capacity 0 selects nothing (the MGT holds no templates)",
            ));
        }
        Ok(policy)
    }

    /// Resolves the selection *algorithm* a policy selector denotes:
    /// built-in preset names and explicit policies run the paper's
    /// greedy selector; a session-registered [`SelectionPolicy`] name
    /// runs whatever its [`SelectionPolicy::selector`] returns (greedy
    /// unless overridden — see
    /// [`SelectorPolicy`](crate::extend::SelectorPolicy)).
    ///
    /// Infallible by design: an unknown name means "no registration
    /// overrides the default", and name validity itself is
    /// [`Session::resolve_policy`]'s job.
    pub fn resolve_selector(
        &self,
        selector: &PolicySelector,
    ) -> std::sync::Arc<dyn mg_core::Selector> {
        if let PolicySelector::Named(name) = selector {
            // Mirror resolve_policy's precedence: built-in names never
            // fall through to registrations.
            let builtin =
                matches!(name.as_str(), "default" | "integer" | "integer_memory" | "intmem");
            if !builtin {
                if let Some(p) = self.policies.iter().rev().find(|p| p.name() == name.as_str())
                {
                    return p.selector();
                }
            }
        }
        std::sync::Arc::new(mg_core::GreedySelector)
    }

    /// Runs a spec and returns the deterministic matrix.
    ///
    /// # Errors
    ///
    /// [`MgError::InvalidSpec`] for unresolvable selectors (checked
    /// before any preparation starts), and whatever preparation or
    /// execution raises — all typed, never a panic.
    pub fn run(&self, spec: &RunSpec) -> Result<RunOutcome, MgError> {
        self.run_inner(spec, None)
    }

    /// [`Session::run`] with a streaming per-cell observer (called from
    /// worker threads in completion order).
    ///
    /// # Errors
    ///
    /// As [`Session::run`].
    pub fn run_with_observer(
        &self,
        spec: &RunSpec,
        observer: RunObserver,
    ) -> Result<RunOutcome, MgError> {
        self.run_inner(spec, Some(observer))
    }

    fn run_inner(
        &self,
        spec: &RunSpec,
        observer: Option<RunObserver>,
    ) -> Result<RunOutcome, MgError> {
        if spec.cells.is_empty() {
            return Err(MgError::invalid_spec("run spec has no cells"));
        }
        // Resolve every selector before any preparation runs: an invalid
        // spec must fail fast, not after minutes of profiling.
        let input = self.resolve_input(&spec.input)?;
        let runs: Vec<Run> = spec
            .cells
            .iter()
            .map(|c| -> Result<Run, MgError> {
                Ok(match &c.image {
                    ImageSpec::Baseline => Run::baseline(c.cfg.clone()),
                    ImageSpec::MiniGraph { policy, style } => {
                        Run::mini_graph(self.resolve_policy(policy)?, *style, c.cfg.clone())
                    }
                }
                .label(c.label.clone()))
            })
            .collect::<Result<_, _>>()?;
        let mut b = self.engine_builder().input(input);
        if let Some(q) = spec.quick {
            b = b.quick(q);
        }
        b = match &spec.workloads {
            WorkloadSelector::All => b,
            WorkloadSelector::Suite(s) => b.suite(*s),
            WorkloadSelector::Names(names) => {
                if names.is_empty() {
                    return Err(MgError::invalid_spec("run spec names no workloads"));
                }
                b.try_workloads(names)?
            }
        };
        if let Some(observer) = observer {
            b = b.observer(Arc::new(move |cell: &CellDone| {
                observer(&CellResult {
                    workload: cell.workload.clone(),
                    label: cell.label.clone(),
                    cycles: cell.cycles,
                    ops: cell.ops,
                });
            }));
        }
        let engine = b.try_build()?;
        let matrix = engine.try_run(&runs)?;
        Ok(RunOutcome {
            labels: matrix.labels,
            rows: matrix
                .rows
                .iter()
                .map(|r| RowOutcome {
                    workload: r.prep.name.clone(),
                    suite: r.prep.suite,
                    stats: r.stats.clone(),
                })
                .collect(),
        })
    }
}

/// Adapts a registered [`WorkloadSource`] to the harness's
/// [`ExtraSource`] shape.
fn extra_source(source: &Arc<dyn WorkloadSource>) -> ExtraSource {
    let owned = Arc::clone(source);
    ExtraSource {
        name: source.name().to_string(),
        suite: source.suite(),
        stable_id: source.stable_id(),
        build: Arc::new(move |input: &Input| {
            owned.build(input).map_err(|e| Box::new(e) as BuildError)
        }),
    }
}
