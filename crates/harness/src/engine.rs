//! Stage two of the experiment flow: the run engine.
//!
//! An [`Engine`] owns a set of prepared workloads ([`Prep`]) and executes
//! matrices of timing-simulation runs — the cross product of its
//! workloads with a list of [`Run`] specifications — fanning the work out
//! across OS threads with **deterministic** results: every cell of the
//! returned matrix is a pure function of (workload, run spec), and cells
//! are stored by index, so a parallel run is bit-identical to a
//! sequential one (`threads = 1`).
//!
//! ```no_run
//! use mg_harness::{Engine, Run};
//! use mg_core::{Policy, RewriteStyle};
//! use mg_uarch::SimConfig;
//!
//! let engine = Engine::builder().workloads(&["crc32", "rgba.conv"]).build();
//! let matrix = engine.run(&[
//!     Run::baseline(SimConfig::baseline()),
//!     Run::mini_graph(Policy::integer_memory(), RewriteStyle::NopPadded,
//!                     SimConfig::mg_integer_memory()),
//! ]);
//! for row in &matrix.rows {
//!     println!("{}: {:.3}x", row.prep.name, row.speedup_over(0, 1));
//! }
//! ```

use crate::error::{panic_message, HarnessError};
use crate::pool::{PoolKey, PrepPool};
use crate::prep::{by_suite, BuildFn, Prep, SweepImage};
use crate::prep_cache::PrepCache;
use crate::quick::{apply_quick, quick_mode};
use crate::report::speedup;
use mg_core::{GreedySelector, Policy, RewriteStyle};
use mg_uarch::{SimConfig, SimStats};
use mg_workloads::{Input, Suite, Workload};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The image a run simulates.
#[derive(Clone, Debug, PartialEq)]
pub enum Image {
    /// The original program.
    Baseline,
    /// The program rewritten with the mini-graphs `policy` selects.
    MiniGraph {
        /// The selection policy.
        policy: Policy,
        /// The rewrite style (nop-padded or compressed).
        style: RewriteStyle,
    },
}

/// One cell of a run matrix: which image to simulate on which machine.
#[derive(Clone)]
pub struct Run {
    /// Display label (defaults to `"baseline"` / `"mg"`).
    pub label: String,
    /// The image under test.
    pub image: Image,
    /// The machine configuration.
    pub cfg: SimConfig,
}

impl Run {
    /// A baseline-image run under `cfg`.
    pub fn baseline(cfg: SimConfig) -> Run {
        Run { label: "baseline".into(), image: Image::Baseline, cfg }
    }

    /// A mini-graph run: select under `policy`, rewrite with `style`,
    /// simulate under `cfg`.
    pub fn mini_graph(policy: Policy, style: RewriteStyle, cfg: SimConfig) -> Run {
        Run { label: "mg".into(), image: Image::MiniGraph { policy, style }, cfg }
    }

    /// Sets the display label.
    pub fn label(mut self, label: impl Into<String>) -> Run {
        self.label = label.into();
        self
    }
}

/// One workload's row of a completed matrix: its stats per [`Run`], in
/// spec order.
pub struct RunRow {
    /// The prepared workload this row belongs to.
    pub prep: Arc<Prep>,
    /// One result per run spec, in the order given to [`Engine::run`].
    pub stats: Vec<SimStats>,
    /// Per run spec: `true` when the cell ran its own simulation, `false`
    /// when it copies an identical (image, config) cell of the row.
    pub simulated: Vec<bool>,
}

impl RunRow {
    /// Speedup of run `of` relative to run `over` (IPC ratio over original
    /// program instructions; see [`speedup`]).
    pub fn speedup_over(&self, over: usize, of: usize) -> f64 {
        speedup(&self.stats[over], &self.stats[of])
    }
}

/// A completed (workload × run) matrix, in deterministic order: rows
/// follow the engine's workload order, columns the run-spec order.
pub struct RunMatrix {
    /// The run labels, in column order.
    pub labels: Vec<String>,
    /// One row per workload.
    pub rows: Vec<RunRow>,
}

impl RunMatrix {
    /// Rows grouped by suite, preserving row order.
    pub fn by_suite(&self) -> Vec<(Suite, Vec<&RunRow>)> {
        Suite::ALL
            .iter()
            .map(|&s| (s, self.rows.iter().filter(|r| r.prep.suite == s).collect()))
            .collect()
    }

    /// The row for a named workload.
    pub fn row(&self, name: &str) -> Option<&RunRow> {
        self.rows.iter().find(|r| r.prep.name == name)
    }

    /// How many simulations the matrix actually ran: one per distinct
    /// (workload, image, config).
    pub fn simulations(&self) -> usize {
        self.rows.iter().flat_map(|r| &r.simulated).filter(|&&s| s).count()
    }
}

/// An out-of-registry workload source resolvable by name: how `mg_api`
/// feeds `WorkloadSource` registrations into an engine without forking
/// `mg_workloads::all`. Unlike an ad-hoc [`EngineBuilder::program`]
/// closure, an extra source carries a caller-declared **stable id**,
/// which becomes the prep's cache id: it keys the warm-prep pool and is
/// folded into every persistent-cache fingerprint, exactly like a
/// registered workload's `stable_id()` (the cache additionally
/// fingerprints the built program and data images, so even a lying id
/// cannot replay artifacts across a content change).
#[derive(Clone)]
pub struct ExtraSource {
    /// Workload name (resolvable via [`EngineBuilder::workloads`]).
    pub name: String,
    /// Owning suite (used for report grouping).
    pub suite: Suite,
    /// Stable identity for pool and cache keys; must change whenever the
    /// source's built program or data changes.
    pub stable_id: String,
    /// The (fallible) image builder.
    pub build: BuildFn,
}

enum Source {
    Registered(Workload),
    Extra(ExtraSource),
    Custom { name: String, suite: Suite, build: BuildFn },
}

impl Source {
    fn name(&self) -> &str {
        match self {
            Source::Registered(w) => w.name,
            Source::Extra(x) => &x.name,
            Source::Custom { name, .. } => name,
        }
    }
}

/// One completed matrix cell, reported to a [`CellObserver`] as workers
/// finish it (completion order, not matrix order).
#[derive(Clone, Debug)]
pub struct CellDone {
    /// Workload name of the cell's row.
    pub workload: String,
    /// Label of the cell's [`Run`] spec.
    pub label: String,
    /// Simulated cycles of the cell.
    pub cycles: u64,
    /// Committed fetched operations of the cell.
    pub ops: u64,
}

/// Callback invoked by [`Engine::run`] for every cell the moment a worker
/// completes it. Called from worker threads, concurrently and in
/// completion order; the deterministic matrix itself is unaffected.
/// `mg serve` uses this to stream per-cell progress to clients while a
/// request is still running.
pub type CellObserver = Arc<dyn Fn(&CellDone) + Send + Sync>;

/// Configures and builds an [`Engine`]. See [`Engine::builder`].
pub struct EngineBuilder {
    input: Input,
    sources: Vec<Source>,
    extra: Vec<ExtraSource>,
    threads: usize,
    quick: bool,
    trace_budget: Option<u64>,
    cache_dir: Option<PathBuf>,
    cache_fallback_dir: Option<PathBuf>,
    pool: Option<Arc<PrepPool>>,
    observer: Option<CellObserver>,
    fault_plan: Option<Arc<mg_fault::FaultPlan>>,
}

impl EngineBuilder {
    fn new() -> EngineBuilder {
        EngineBuilder {
            input: Input::reference(),
            sources: Vec::new(),
            extra: Vec::new(),
            threads: default_threads(),
            quick: quick_mode(),
            trace_budget: None,
            cache_dir: None,
            cache_fallback_dir: None,
            pool: None,
            observer: None,
            fault_plan: None,
        }
    }

    /// Sets the workload input (default: [`Input::reference`]).
    pub fn input(mut self, input: Input) -> EngineBuilder {
        self.input = input;
        self
    }

    /// Restricts the engine to the named registered workloads, in the
    /// given order.
    ///
    /// # Panics
    ///
    /// Panics if a name is not registered.
    pub fn workloads(self, names: &[&str]) -> EngineBuilder {
        self.try_workloads(names).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`EngineBuilder::workloads`]: names resolve against the
    /// registry first, then against any [`EngineBuilder::extra_source`]
    /// registrations (among duplicate extra names the **last**
    /// registration wins, matching the default-set and
    /// [`EngineBuilder::suite`] resolution).
    ///
    /// # Errors
    ///
    /// [`HarnessError::UnknownWorkload`] for the first unresolved name.
    pub fn try_workloads<S: AsRef<str>>(
        mut self,
        names: &[S],
    ) -> Result<EngineBuilder, HarnessError> {
        for name in names {
            let name = name.as_ref();
            if let Some(w) = mg_workloads::by_name(name) {
                self.sources.push(Source::Registered(w));
            } else if let Some(x) = self.extra.iter().rev().find(|x| x.name == name) {
                self.sources.push(Source::Extra(x.clone()));
            } else {
                return Err(HarnessError::UnknownWorkload { name: name.to_string() });
            }
        }
        Ok(self)
    }

    /// Adds every registered workload of `suite` (plus any
    /// [`EngineBuilder::extra_source`] registrations in that suite,
    /// minus shadowed names).
    pub fn suite(mut self, suite: Suite) -> EngineBuilder {
        self.sources.extend(
            mg_workloads::all()
                .into_iter()
                .filter(|w| w.suite == suite)
                .map(Source::Registered),
        );
        let extras: Vec<Source> = Self::unshadowed_extras(&self.extra)
            .filter(|x| x.suite == suite)
            .cloned()
            .map(Source::Extra)
            .collect();
        self.sources.extend(extras);
        self
    }

    /// The extra sources that actually resolve: a name shadowed by the
    /// built-in registry resolves to the registry (the [`WorkloadSource`
    /// contract](ExtraSource)), and among duplicate extra names the last
    /// registration wins — so neither may contribute a default-set row.
    fn unshadowed_extras(extra: &[ExtraSource]) -> impl Iterator<Item = &ExtraSource> {
        extra.iter().enumerate().filter_map(|(i, x)| {
            let shadowed = mg_workloads::by_name(&x.name).is_some();
            let superseded = extra[i + 1..].iter().any(|y| y.name == x.name);
            (!shadowed && !superseded).then_some(x)
        })
    }

    /// Registers an [`ExtraSource`]: it joins the name-resolution set of
    /// [`EngineBuilder::try_workloads`] / [`EngineBuilder::suite`] and —
    /// when no explicit selection is made — the default all-workloads
    /// set, after every registered workload.
    pub fn extra_source(mut self, source: ExtraSource) -> EngineBuilder {
        self.extra.push(source);
        self
    }

    /// Adds an ad-hoc program under `name`, built by `build` — the same
    /// preparation flow registered workloads get.
    pub fn program(
        mut self,
        name: impl Into<String>,
        suite: Suite,
        build: impl Fn(&Input) -> (mg_isa::Program, mg_isa::Memory) + Send + Sync + 'static,
    ) -> EngineBuilder {
        self.sources.push(Source::Custom {
            name: name.into(),
            suite,
            build: Arc::new(move |i: &Input| Ok(build(i))),
        });
        self
    }

    /// Caps worker threads (default: available parallelism, overridable
    /// with `MG_THREADS`). `1` forces fully sequential execution.
    pub fn threads(mut self, threads: usize) -> EngineBuilder {
        self.threads = threads.max(1);
        self
    }

    /// Forces quick mode on or off (default: the `MG_QUICK` environment
    /// flag; see [`quick_mode`]). Quick mode caps simulated operations
    /// per run.
    pub fn quick(mut self, quick: bool) -> EngineBuilder {
        self.quick = quick;
        self
    }

    /// Overrides the recorded-trace budget (ops). The default is derived
    /// from quick mode ([`QUICK_MAX_OPS`](crate::quick::QUICK_MAX_OPS)
    /// quick, [`STEP_BUDGET`](crate::prep::STEP_BUDGET) full); sessions
    /// that know their simulations replay less can lower it further.
    pub fn trace_budget(mut self, ops: u64) -> EngineBuilder {
        self.trace_budget = Some(ops);
        self
    }

    /// Enables (or disables) the persistent artifact cache at its default
    /// root ([`PrepCache::default_root`]). Off by default — library and
    /// test contexts stay hermetic; the experiment binaries turn it on.
    /// `MG_NO_CACHE=1` overrides even an explicit `cache(true)` as an
    /// operational kill switch.
    pub fn cache(self, enabled: bool) -> EngineBuilder {
        if enabled {
            self.cache_dir(PrepCache::default_root())
        } else {
            EngineBuilder { cache_dir: None, ..self }
        }
    }

    /// Enables the persistent artifact cache rooted at `dir` (see
    /// [`EngineBuilder::cache`]).
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> EngineBuilder {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Chains a shared read-through root behind the primary cache (see
    /// [`PrepCache::with_fallback`]): loads fall through to `dir` on a
    /// primary miss (and repopulate the primary), stores land in both.
    /// No effect unless a primary root is set via
    /// [`EngineBuilder::cache`] / [`EngineBuilder::cache_dir`].
    pub fn cache_fallback_dir(mut self, dir: impl Into<PathBuf>) -> EngineBuilder {
        self.cache_fallback_dir = Some(dir.into());
        self
    }

    /// Shares warm preps through `pool` (see [`PrepPool`]): registered
    /// workloads whose (input, trace budget, cache root) match an entry
    /// already prepared — by this engine or any other holding the same
    /// pool — reuse it instead of re-preparing. Ad-hoc
    /// [`EngineBuilder::program`] sources are never pooled (closure
    /// identity is unverifiable).
    pub fn pool(mut self, pool: Arc<PrepPool>) -> EngineBuilder {
        self.pool = Some(pool);
        self
    }

    /// Registers a per-cell completion callback for [`Engine::run`] (see
    /// [`CellObserver`]).
    pub fn observer(mut self, observer: CellObserver) -> EngineBuilder {
        self.observer = Some(observer);
        self
    }

    /// Arms deterministic fault injection (see [`mg_fault::FaultPlan`])
    /// for this engine's preparation side effects: the artifact cache's
    /// `harness.cache.*` points fire on store. Chaos-testing machinery —
    /// production builds never set this.
    pub fn fault_plan(mut self, plan: Arc<mg_fault::FaultPlan>) -> EngineBuilder {
        self.fault_plan = Some(plan);
        self
    }

    /// Prepares all selected workloads — every registered one if none
    /// were named — in parallel, and returns the engine.
    ///
    /// A quick engine also caps its preps' recorded traces at the quick
    /// op limit: its simulations replay at most that prefix, so
    /// functionally executing (and storing) the rest of the committed
    /// path would be pure waste.
    pub fn build(self) -> Engine {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`EngineBuilder::build`] — the `mg_api` session path.
    /// Preparation failures (build, profiling, a panicking out-of-tree
    /// source) surface as [`HarnessError`] instead of unwinding the
    /// worker scope; pool slots stay retryable after a failure.
    ///
    /// # Errors
    ///
    /// The first [`HarnessError`] any workload's preparation raised (in
    /// workload order, deterministically).
    pub fn try_build(self) -> Result<Engine, HarnessError> {
        let EngineBuilder {
            input,
            mut sources,
            extra,
            threads,
            quick,
            trace_budget,
            cache_dir,
            cache_fallback_dir,
            pool,
            observer,
            fault_plan,
        } = self;
        if sources.is_empty() {
            sources.extend(mg_workloads::all().into_iter().map(Source::Registered));
            sources.extend(Self::unshadowed_extras(&extra).cloned().map(Source::Extra));
        }
        let cache = match cache_dir {
            Some(dir) if !PrepCache::disabled_by_env() => {
                let mut cache = PrepCache::new(dir);
                if let Some(shared) = cache_fallback_dir {
                    cache = cache.with_fallback(shared);
                }
                if let Some(plan) = fault_plan {
                    cache = cache.with_fault_plan(plan);
                }
                Some(Arc::new(cache))
            }
            _ => None,
        };
        // Everything a pooled prep's identity depends on beyond the
        // workload itself: the trace budget the engine will apply and the
        // resolved cache root.
        let trace_budget = trace_budget.unwrap_or(if quick {
            crate::quick::QUICK_MAX_OPS
        } else {
            crate::prep::STEP_BUDGET
        });
        let cache_root = cache.as_ref().map(|c| c.root().to_path_buf());
        let prepare = |source: &Source| -> Result<Prep, HarnessError> {
            let prep = match source {
                Source::Registered(w) => Prep::try_new(w, &input)?,
                Source::Extra(x) => Prep::try_with_source(
                    x.name.clone(),
                    x.suite,
                    Arc::clone(&x.build),
                    &input,
                    x.stable_id.clone(),
                )?,
                Source::Custom { name, suite, build } => {
                    Prep::try_with_build(name.clone(), *suite, Arc::clone(build), &input)?
                }
            };
            // `STEP_BUDGET` (the full default) is the prep's own default,
            // so applying the resolved budget unconditionally matches the
            // old quick-only behaviour bit for bit.
            Ok(prep.with_trace_budget(trace_budget).with_cache(cache.clone()))
        };
        let sources: Vec<Source> = sources;
        let preps: Vec<Result<Arc<Prep>, HarnessError>> =
            run_indexed(threads, sources.len(), |i| {
                let source = &sources[i];
                let pool_key = match source {
                    Source::Registered(w) => Some(w.stable_id()),
                    Source::Extra(x) => Some(x.stable_id.clone()),
                    // Ad-hoc closures carry no identity contract, so they
                    // are never pooled (two different closures could
                    // share a name).
                    Source::Custom { .. } => None,
                };
                match (&pool, pool_key) {
                    (Some(pool), Some(id)) => {
                        let key = PoolKey::new(id, &input, trace_budget, cache_root.clone());
                        pool.try_get_or_prepare(key, || prepare(source)).map_err(|e| match e {
                            // The pool only knows the key's cache id;
                            // report the workload name, like the
                            // non-pooled branch does.
                            HarnessError::Panicked { message, .. } => HarnessError::Panicked {
                                workload: source.name().to_string(),
                                message,
                            },
                            other => other,
                        })
                    }
                    _ => std::panic::catch_unwind(AssertUnwindSafe(|| prepare(source)))
                        .unwrap_or_else(|panic| {
                            Err(HarnessError::Panicked {
                                workload: source.name().to_string(),
                                message: panic_message(panic.as_ref()),
                            })
                        })
                        .map(Arc::new),
                }
            });
        let preps = preps.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(Engine { preps, threads, quick, observer })
    }
}

/// The staged experiment engine: prepared workloads plus a thread budget.
pub struct Engine {
    preps: Vec<Arc<Prep>>,
    threads: usize,
    quick: bool,
    observer: Option<CellObserver>,
}

impl Engine {
    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The prepared workloads, in registration (or selection) order.
    pub fn preps(&self) -> &[Arc<Prep>] {
        &self.preps
    }

    /// The prepared workload named `name`.
    pub fn prep(&self, name: &str) -> Option<&Arc<Prep>> {
        self.preps.iter().find(|p| p.name == name)
    }

    /// Whether quick mode is active (see [`EngineBuilder::quick`]).
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// The engine's prepared workloads grouped by suite.
    pub fn by_suite(&self) -> Vec<(Suite, Vec<&Prep>)> {
        by_suite(&self.preps)
    }

    /// Applies the engine's quick-mode cap to a configuration.
    pub fn tune(&self, mut cfg: SimConfig) -> SimConfig {
        apply_quick(&mut cfg, self.quick);
        cfg
    }

    /// Maps `f` over every prepared workload in parallel; results are in
    /// workload order regardless of scheduling.
    pub fn map<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Prep) -> R + Sync,
    {
        run_indexed(self.threads, self.preps.len(), |i| f(&self.preps[i]))
    }

    /// Executes the (workload × run) matrix, fanning work out across the
    /// engine's threads. Quick mode caps each run's `max_ops`.
    ///
    /// Each workload is one work unit. The unit resolves each column's
    /// selection, merges the columns whose (selection, style) are equal
    /// (the image-identity rule of [`Prep::run_shared`]), sweeps each
    /// distinct image once over its columns' configs (see
    /// [`crate::fused`]) and returns the stats in spec order, so each
    /// distinct (image, config) pair of a workload is simulated once.
    /// [`RunRow::simulated`] marks which cells ran their own simulation.
    pub fn run(&self, runs: &[Run]) -> RunMatrix {
        self.try_run(runs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Engine::run`] — the `mg_api` session path. A failing
    /// (or panicking) unit, selection included, fails the whole matrix
    /// with the first error in workload order; successful sibling units
    /// are discarded.
    ///
    /// # Errors
    ///
    /// Whatever the failing unit's [`Prep`] accessor raised, or
    /// [`HarnessError::Panicked`] for a panicking unit.
    pub fn try_run(&self, runs: &[Run]) -> Result<RunMatrix, HarnessError> {
        // One request per column: `run_shared` merges the columns that
        // simulate one image and dedups their configs.
        let requests: Vec<(SweepImage<'_>, Vec<SimConfig>)> = runs
            .iter()
            .map(|run| {
                let image = match &run.image {
                    Image::Baseline => SweepImage::Baseline,
                    Image::MiniGraph { policy, style } => SweepImage::MiniGraph {
                        selector: &GreedySelector,
                        policy,
                        style: *style,
                    },
                };
                (image, vec![self.tune(run.cfg.clone())])
            })
            .collect();
        let rows = run_indexed(self.threads, self.preps.len(), |w| {
            let prep = &self.preps[w];
            let swept = std::panic::catch_unwind(AssertUnwindSafe(|| {
                prep.run_shared(&requests).into_results()
            }))
            .unwrap_or_else(|panic| {
                Err(HarnessError::Panicked {
                    workload: prep.name.clone(),
                    message: panic_message(panic.as_ref()),
                })
            })?;
            let (stats, simulated) =
                swept.into_iter().flatten().map(|cell| (cell.stats, cell.simulated)).unzip();
            let row = RunRow { prep: Arc::clone(prep), stats, simulated };
            if let Some(observer) = &self.observer {
                for (run, s) in runs.iter().zip(&row.stats) {
                    observer(&CellDone {
                        workload: prep.name.clone(),
                        label: run.label.clone(),
                        cycles: s.cycles,
                        ops: s.ops,
                    });
                }
            }
            Ok(row)
        });
        let rows = rows.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(RunMatrix { labels: runs.iter().map(|r| r.label.clone()).collect(), rows })
    }
}

/// Default worker-thread count: `MG_THREADS` if set, else available
/// parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("MG_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Computes `f(0..count)` across up to `threads` scoped workers and
/// returns the results in index order. With `threads == 1` (or a single
/// item) everything runs on the calling thread; `f` must be deterministic
/// for parallel and sequential execution to agree.
fn run_indexed<R, F>(threads: usize, count: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads.min(count);
    if workers <= 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = Vec::with_capacity(count);
    results.resize_with(count, || None);
    let slots = std::sync::Mutex::new(&mut results);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut done: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    done.push((i, f(i)));
                }
                let mut slots = slots.lock().unwrap();
                for (i, r) in done {
                    slots[i] = Some(r);
                }
            });
        }
    });
    results.into_iter().map(|r| r.expect("all cells computed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extra(name: &str) -> ExtraSource {
        ExtraSource {
            name: name.into(),
            suite: Suite::MiBench,
            stable_id: format!("custom/{name}@r1"),
            build: Arc::new(|_| panic!("never built in this test")),
        }
    }

    #[test]
    fn shadowed_and_superseded_extras_do_not_resolve() {
        // "crc32" is a registry name: the registry wins, so the extra
        // must not contribute a (duplicate) default-set row. Duplicate
        // extra names keep only the last registration.
        let extras = vec![extra("crc32"), extra("acme.one"), extra("acme.one")];
        let kept: Vec<&str> =
            EngineBuilder::unshadowed_extras(&extras).map(|x| x.name.as_str()).collect();
        assert_eq!(kept, ["acme.one"]);
        // Exactly one survivor, and it is the later registration.
        let survivor = EngineBuilder::unshadowed_extras(&extras).next().unwrap();
        assert!(std::ptr::eq(survivor, &extras[2]));
    }
}
