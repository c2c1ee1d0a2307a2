//! Stage one of the experiment flow: workload preparation.
//!
//! A [`Prep`] owns everything the simulation stages need and is computed
//! once per (workload, input): the program image, its CFG and basic-block
//! frequency profile, and the full candidate pool (enumerated at the
//! maximum size studied, so any smaller-size policy selects from the same
//! pool). On top of that it memoizes the per-policy [`Selection`]s, the
//! baseline trace, and the rewritten images with their traces — so a
//! matrix of simulation runs shares every artifact that does not depend
//! on the machine configuration.
//!
//! All caches are behind locks: a `Prep` is `Sync` and is shared freely
//! across the [`Engine`](crate::engine::Engine)'s worker threads. Every
//! cached artifact is a deterministic function of the preparation inputs,
//! so concurrent fills are benign (first writer wins; any loser computed
//! an identical value).

use crate::error::{BuildError, HarnessError};
use crate::fused::{sweep, SweptCell};
use crate::prep_cache::{self, PrepCache};
use mg_core::{
    enumerate_candidates, rewrite, GreedySelector, MiniGraph, Policy, RewriteStyle,
    SelectInputs, Selection, Selector,
};
use mg_isa::{HandleCatalog, Memory, Program};
use mg_profile::{build_cfg, profile_program, record_trace, BlockProfile, Cfg, Trace};
use mg_uarch::{Predecode, SimConfig, SimStats};
use mg_workloads::{Input, Suite, Workload};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

/// Functional-simulation step budget for profiling/tracing runs.
pub const STEP_BUDGET: u64 = 200_000_000;

/// The maximum mini-graph size candidates are enumerated at.
pub const ENUMERATION_SIZE: usize = 8;

/// Rewritten images (each holding a full dynamic trace) retained per
/// prep. Traces dominate memory on full-size inputs, so the cache is
/// bounded: FIFO eviction once this many (policy, style) keys are live.
/// Evicted images stay alive only while an in-flight run still holds
/// their `Arc`.
pub const IMAGE_CACHE_CAP: usize = 4;

/// Builds a fresh `(Program, Memory)` image for an [`Input`].
///
/// Registered workloads wrap their (infallible) `fn` pointer in `Ok`;
/// ad-hoc programs and `mg_api` workload sources can return any boxed
/// error, which preparation surfaces as [`HarnessError::Build`].
pub type BuildFn = Arc<dyn Fn(&Input) -> Result<(Program, Memory), BuildError> + Send + Sync>;

/// A rewritten image ready for timing simulation: the handle program, its
/// committed-path trace, and the catalog the image refers to.
pub struct MgImage {
    /// The rewritten (handle) program.
    pub program: Program,
    /// Its committed-path dynamic trace.
    pub trace: Trace,
    /// The mini-graph catalog the image's handles refer to.
    pub catalog: HandleCatalog,
    /// Lazily-built predecode plane shared by every simulation of this
    /// image.
    predecode: OnceLock<Arc<Predecode>>,
}

impl MgImage {
    /// Wraps image artifacts for simulation.
    pub fn new(program: Program, trace: Trace, catalog: HandleCatalog) -> MgImage {
        MgImage { program, trace, catalog, predecode: OnceLock::new() }
    }

    /// The image's predecode plane, built on first use and shared by
    /// every subsequent simulation of this image.
    pub fn predecode(&self) -> Arc<Predecode> {
        Arc::clone(
            self.predecode
                .get_or_init(|| Arc::new(Predecode::new(&self.program, &self.catalog))),
        )
    }
}

/// A workload prepared for experimentation: profiled and with all legal
/// mini-graph candidates enumerated.
pub struct Prep {
    /// Workload name.
    pub name: String,
    /// Owning suite.
    pub suite: Suite,
    /// The original (baseline) program image.
    pub prog: Program,
    /// Static basic blocks of `prog`.
    pub cfg: Cfg,
    /// Execution frequencies per basic block (the profiling run).
    pub prof: BlockProfile,
    /// Total dynamic instructions of the profiling run (the coverage
    /// denominator).
    pub total_dyn: u64,
    /// All legal candidates (enumerated with `max_size` =
    /// [`ENUMERATION_SIZE`]).
    pub candidates: Vec<MiniGraph>,
    build: BuildFn,
    input: Input,
    /// Cap on recorded trace length (ops). Defaults to [`STEP_BUDGET`]
    /// (effectively unbounded); quick-mode engines lower it to the op cap
    /// their simulations consume, so preparation never functionally
    /// executes work no run will replay.
    trace_budget: u64,
    /// Stable identifier for cache keys and reports (see
    /// [`mg_workloads::stable_id`]; ad-hoc programs get `custom/<name>`).
    cache_id: String,
    /// Cache fingerprint over everything the artifacts depend on (see
    /// [`prep_cache::fingerprint`]).
    fingerprint: u64,
    /// Optional persistent artifact cache shared with other preps.
    cache: Option<Arc<PrepCache>>,
    // Memoized downstream artifacts (see module docs). Selections and
    // images carry a selector-id dimension so alternative selection
    // algorithms (see `mg_policy`) memoize alongside — never instead
    // of — the default greedy artifacts.
    selections: Mutex<HashMap<(String, Policy), Arc<Selection>>>,
    base_trace: OnceLock<Arc<Trace>>,
    /// Serializes fallible base-trace initialization: recording is the
    /// most expensive per-prep artifact and many matrix cells need it,
    /// so racers must block on one recording, not duplicate it (an
    /// `Err` releases the lock without caching anything).
    base_trace_init: Mutex<()>,
    /// Predecode plane of the baseline program, built on first use.
    base_predecode: OnceLock<Arc<Predecode>>,
    /// The (empty) catalog every baseline simulation shares.
    base_catalog: HandleCatalog,
    images: Mutex<ImageCache>,
}

/// Key of a memoized rewritten image: selector id, policy, style.
type ImageKey = (String, Policy, RewriteStyle);

/// Bounded FIFO cache of rewritten images (see [`IMAGE_CACHE_CAP`]).
#[derive(Default)]
struct ImageCache {
    map: HashMap<ImageKey, Arc<MgImage>>,
    order: VecDeque<ImageKey>,
}

impl ImageCache {
    fn get(&self, key: &ImageKey) -> Option<Arc<MgImage>> {
        self.map.get(key).cloned()
    }

    fn insert(&mut self, key: ImageKey, img: Arc<MgImage>) -> Arc<MgImage> {
        if let Some(existing) = self.map.get(&key) {
            return Arc::clone(existing); // first writer wins
        }
        while self.map.len() >= IMAGE_CACHE_CAP {
            let oldest = self.order.pop_front().expect("order tracks map");
            self.map.remove(&oldest);
        }
        self.order.push_back(key.clone());
        self.map.insert(key, Arc::clone(&img));
        img
    }
}

impl Prep {
    /// Profiles `w` on `input` and enumerates candidates. Registered
    /// workloads cache under their registry stable id; ad-hoc programs
    /// ([`Prep::try_with_build`]) under `custom/<name>`.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Exec`] if the profiling run faults or exceeds its
    /// step budget (registered builders themselves are infallible).
    pub fn try_new(w: &Workload, input: &Input) -> Result<Prep, HarnessError> {
        let build = w.build;
        Prep::try_prepare(
            w.name.to_string(),
            w.suite,
            Arc::new(move |i: &Input| Ok(build(i))),
            input,
            w.stable_id(),
        )
    }

    /// Prepares an ad-hoc program (not in the workload registry) from any
    /// build closure — the same flow the examples use. The cache id is
    /// `custom/<name>`.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Build`] if `build` fails, [`HarnessError::Exec`]
    /// if the profiling run faults or exceeds its step budget.
    pub fn try_with_build(
        name: impl Into<String>,
        suite: Suite,
        build: BuildFn,
        input: &Input,
    ) -> Result<Prep, HarnessError> {
        let name = name.into();
        let cache_id = format!("custom/{name}");
        Prep::try_prepare(name, suite, build, input, cache_id)
    }

    /// Like [`Prep::try_with_build`] but with a caller-declared stable
    /// cache id (an [`ExtraSource`](crate::engine::ExtraSource) /
    /// `mg_api` workload source): the id keys the warm-prep pool and is
    /// folded into every persistent-cache fingerprint, so bumping it
    /// invalidates the source's cached artifacts exactly like a
    /// registry-version bump does for registered workloads.
    ///
    /// # Errors
    ///
    /// As [`Prep::try_with_build`].
    pub fn try_with_source(
        name: impl Into<String>,
        suite: Suite,
        build: BuildFn,
        input: &Input,
        stable_id: impl Into<String>,
    ) -> Result<Prep, HarnessError> {
        Prep::try_prepare(name.into(), suite, build, input, stable_id.into())
    }

    fn try_prepare(
        name: String,
        suite: Suite,
        build: BuildFn,
        input: &Input,
        cache_id: String,
    ) -> Result<Prep, HarnessError> {
        let (prog, mut mem) = build(input)
            .map_err(|source| HarnessError::Build { workload: name.clone(), source })?;
        // Hash the data image before profiling mutates it: the
        // fingerprint must cover the *initial* memory.
        let mem_hash = mem.content_hash();
        let cfg = build_cfg(&prog);
        let prof = profile_program(&prog, &mut mem, None, STEP_BUDGET).map_err(|source| {
            HarnessError::Exec { workload: name.clone(), phase: "profile", source }
        })?;
        let candidates = enumerate_candidates(&prog, &cfg, &prof, ENUMERATION_SIZE);
        let fingerprint = prep_cache::fingerprint(&cache_id, input, &prog, mem_hash);
        Ok(Prep {
            name,
            suite,
            prog,
            cfg,
            total_dyn: prof.total,
            prof,
            candidates,
            build,
            input: *input,
            trace_budget: STEP_BUDGET,
            cache_id,
            fingerprint,
            cache: None,
            selections: Mutex::new(HashMap::new()),
            base_trace: OnceLock::new(),
            base_trace_init: Mutex::new(()),
            base_predecode: OnceLock::new(),
            base_catalog: HandleCatalog::new(),
            images: Mutex::new(ImageCache::default()),
        })
    }

    /// Caps recorded traces at `ops` operations (a prefix of the full
    /// committed path). Intended for quick-mode engines whose simulations
    /// are op-capped anyway: a capped trace yields bit-identical
    /// simulation results for any run with `max_ops <= ops` while
    /// skipping the functional execution of the never-replayed tail.
    ///
    /// Call before the first trace is recorded (traces and images
    /// memoize); the [`Engine`](crate::engine::Engine) builder does this
    /// at preparation time.
    ///
    /// # Panics
    ///
    /// Panics if a trace has already been recorded: a budget applied
    /// after the fact would leave memoized full-length traces alongside
    /// capped ones, silently skewing any cross-image comparison.
    pub fn with_trace_budget(mut self, ops: u64) -> Prep {
        assert!(
            self.base_trace.get().is_none() && self.images.lock().unwrap().map.is_empty(),
            "with_trace_budget must be called before any trace is recorded"
        );
        self.trace_budget = ops;
        self
    }

    /// Attaches a persistent artifact cache (see
    /// [`crate::prep_cache`]): selections, baseline traces,
    /// and rewritten images are loaded from disk when present and stored
    /// after computation. The in-process memo caches sit in front, so the
    /// disk is consulted at most once per artifact per prep.
    ///
    /// Attach before the first artifact is requested; artifacts computed
    /// earlier stay memoized in-process but are not written back.
    pub fn with_cache(mut self, cache: Option<Arc<PrepCache>>) -> Prep {
        self.cache = cache;
        self
    }

    /// The stable identifier used in cache keys and machine-readable
    /// reports (`<suite>/<name>@r<version>`, or `custom/<name>` for ad-hoc
    /// programs).
    pub fn cache_id(&self) -> &str {
        &self.cache_id
    }

    /// The artifact-cache fingerprint (see [`prep_cache::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The input this prep was built from.
    pub fn input(&self) -> Input {
        self.input
    }

    /// Builds a fresh memory image (the program is identical every time).
    ///
    /// # Errors
    ///
    /// [`HarnessError::Build`] if the build function fails on a rebuild
    /// (registered workloads never do; an `mg_api` source might).
    pub fn try_fresh_memory(&self) -> Result<Memory, HarnessError> {
        let (_, mem) = (self.build)(&self.input)
            .map_err(|source| HarnessError::Build { workload: self.name.clone(), source })?;
        Ok(mem)
    }

    /// The selection inputs this prep exposes to a [`Selector`]: its
    /// candidate pool, CFG, and block profile.
    pub fn select_inputs(&self) -> SelectInputs<'_> {
        SelectInputs { candidates: &self.candidates, cfg: &self.cfg, prof: &self.prof }
    }

    /// Selects mini-graphs under `policy` with the default greedy
    /// selector, memoized per policy (and, with a [`PrepCache`] attached,
    /// persisted across processes).
    pub fn select(&self, policy: &Policy) -> Arc<Selection> {
        self.select_with(&GreedySelector, policy)
    }

    /// Selects mini-graphs under `(selector, policy)`, memoized per pair
    /// (and, with a [`PrepCache`] attached, persisted across processes).
    /// The greedy selector's artifacts are keyed exactly as before the
    /// selector dimension existed, so alternative selectors never poison
    /// — or collide with — cached greedy selections.
    pub fn select_with(&self, selector: &dyn Selector, policy: &Policy) -> Arc<Selection> {
        let memo_key = (selector.id().to_string(), policy.clone());
        if let Some(sel) = self.selections.lock().unwrap().get(&memo_key) {
            return Arc::clone(sel);
        }
        // Computed outside the lock: selection over a large candidate pool
        // is the expensive part and must not serialize other policies.
        let sel = if let Some(hit) = self
            .cache
            .as_deref()
            .and_then(|c| c.load_selection_with(self.fingerprint, selector.id(), policy))
        {
            Arc::new(hit)
        } else {
            let sel = Arc::new(selector.select(&self.select_inputs(), policy));
            if let Some(c) = self.cache.as_deref() {
                c.store_selection_with(self.fingerprint, selector.id(), policy, &sel);
            }
            sel
        };
        let mut cache = self.selections.lock().unwrap();
        Arc::clone(cache.entry(memo_key).or_insert(sel))
    }

    /// [`Prep::try_base_trace`] for callers that already know the trace
    /// records (the `perfbench/` benchmark reads it this way).
    ///
    /// # Panics
    ///
    /// Panics with the [`HarnessError`] if recording fails.
    pub fn base_trace(&self) -> Arc<Trace> {
        self.try_base_trace().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The baseline dynamic trace (fresh memory, same input), memoized
    /// (and, with a [`PrepCache`] attached, persisted across processes).
    /// Concurrent callers block on one recording (exactly-once); a
    /// failed recording releases the lock and stays retryable.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Build`] / [`HarnessError::Exec`] if rebuilding the
    /// memory image or recording the trace fails.
    pub fn try_base_trace(&self) -> Result<Arc<Trace>, HarnessError> {
        if let Some(t) = self.base_trace.get() {
            return Ok(Arc::clone(t));
        }
        // Poison means a racer panicked mid-recording; the slot is still
        // uninitialized, so taking over the guard and retrying is sound.
        let _guard =
            self.base_trace_init.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(t) = self.base_trace.get() {
            return Ok(Arc::clone(t));
        }
        let trace = if let Some(hit) = self
            .cache
            .as_deref()
            .and_then(|c| c.load_trace(self.fingerprint, self.trace_budget))
        {
            Arc::new(hit)
        } else {
            let mut mem = self.try_fresh_memory()?;
            let trace = record_trace(&self.prog, &mut mem, None, self.trace_budget).map_err(
                |source| HarnessError::Exec {
                    workload: self.name.clone(),
                    phase: "trace",
                    source,
                },
            )?;
            if let Some(c) = self.cache.as_deref() {
                c.store_trace(self.fingerprint, self.trace_budget, &trace);
            }
            Arc::new(trace)
        };
        Ok(Arc::clone(self.base_trace.get_or_init(|| trace)))
    }

    /// Heap bytes of the traces this prep holds
    /// ([`Trace::heap_bytes`]): the base trace once recorded or loaded,
    /// and the trace of each memoized image.
    pub fn trace_bytes(&self) -> usize {
        let base = self.base_trace.get().map_or(0, |t| t.heap_bytes());
        let images = self.images.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        base + images.map.values().map(|img| img.trace.heap_bytes()).sum::<usize>()
    }

    /// The rewritten image for `(policy, style)` with its trace, memoized
    /// in a bounded FIFO cache ([`IMAGE_CACHE_CAP`]) (and, with a
    /// [`PrepCache`] attached, persisted across processes — a disk hit
    /// skips selection, rewriting, and trace recording in one step).
    ///
    /// # Errors
    ///
    /// [`HarnessError::Build`] if the memory rebuild fails,
    /// [`HarnessError::Rewrite`] if the rewritten image faults or fails
    /// to halt.
    pub fn try_image(
        &self,
        policy: &Policy,
        style: RewriteStyle,
    ) -> Result<Arc<MgImage>, HarnessError> {
        self.try_image_with(&GreedySelector, policy, style)
    }

    /// The rewritten image for `(selector, policy, style)`, memoized and
    /// persisted like [`Prep::try_image`] (which is the
    /// [`GreedySelector`] instance of this method, with byte-identical
    /// cache keys).
    ///
    /// # Errors
    ///
    /// As [`Prep::try_image`].
    pub fn try_image_with(
        &self,
        selector: &dyn Selector,
        policy: &Policy,
        style: RewriteStyle,
    ) -> Result<Arc<MgImage>, HarnessError> {
        let key = (selector.id().to_string(), policy.clone(), style);
        if let Some(img) = self.images.lock().unwrap().get(&key) {
            return Ok(img);
        }
        let img = if let Some(hit) = self.cache.as_deref().and_then(|c| {
            c.load_image_with(self.fingerprint, selector.id(), policy, style, self.trace_budget)
        }) {
            Arc::new(hit)
        } else {
            let selection = self.select_with(selector, policy);
            let img = Arc::new(self.try_build_image(&selection, style)?);
            if let Some(c) = self.cache.as_deref() {
                c.store_image_with(
                    self.fingerprint,
                    selector.id(),
                    policy,
                    style,
                    self.trace_budget,
                    &img,
                );
            }
            img
        };
        Ok(self.images.lock().unwrap().insert(key, img))
    }

    /// Rewrites with `selection` and returns the handle image + its trace
    /// (uncached; prefer [`Prep::try_image`] when the selection came from
    /// a policy).
    ///
    /// # Errors
    ///
    /// [`HarnessError::Build`] if the memory rebuild fails,
    /// [`HarnessError::Rewrite`] if the rewritten image faults or fails
    /// to halt within the trace budget.
    pub fn try_build_image(
        &self,
        selection: &Selection,
        style: RewriteStyle,
    ) -> Result<MgImage, HarnessError> {
        let rw = rewrite(&self.prog, selection, style);
        let mut mem = self.try_fresh_memory()?;
        let trace =
            record_trace(&rw.program, &mut mem, Some(&selection.catalog), self.trace_budget)
                .map_err(|source| HarnessError::Rewrite {
                    workload: self.name.clone(),
                    source,
                })?;
        Ok(MgImage::new(rw.program, trace, selection.catalog.clone()))
    }

    /// The baseline program's predecode plane, built on first use and
    /// shared by every baseline simulation of this prep.
    pub fn base_predecode(&self) -> Arc<Predecode> {
        Arc::clone(
            self.base_predecode
                .get_or_init(|| Arc::new(Predecode::new(&self.prog, &self.base_catalog))),
        )
    }

    /// Simulates the baseline image under every configuration of `cfgs`
    /// (see [`crate::fused`]): one shared predecode plane, deduplicated
    /// configs, one stats record per config. A single configuration is a
    /// one-element slice.
    ///
    /// # Errors
    ///
    /// Whatever [`Prep::try_base_trace`] raises (simulation itself is
    /// total over a recorded trace).
    pub fn try_run_baseline_sweep(
        &self,
        cfgs: &[SimConfig],
    ) -> Result<Vec<SimStats>, HarnessError> {
        Ok(stats_of(self.try_sweep(SweepImage::Baseline, cfgs)?))
    }

    /// Simulates the rewritten image of `policy` under every
    /// configuration of `cfgs` (see [`crate::fused`]), reusing the cached
    /// selection, image, and trace.
    ///
    /// # Errors
    ///
    /// Whatever [`Prep::try_image`] raises.
    pub fn try_run_policy_sweep(
        &self,
        policy: &Policy,
        style: RewriteStyle,
        cfgs: &[SimConfig],
    ) -> Result<Vec<SimStats>, HarnessError> {
        let image = SweepImage::MiniGraph { selector: &GreedySelector, policy, style };
        Ok(stats_of(self.try_sweep(image, cfgs)?))
    }

    /// Simulates each request's image under the request's configs,
    /// simulating each distinct image once.
    ///
    /// **The image-identity rule.** Within one prep, [`rewrite()`] and
    /// [`record_trace`] depend only on the [`Selection`] and the
    /// [`RewriteStyle`], so mini-graph requests with equal selections and
    /// equal styles simulate the same image, whatever selector or policy
    /// produced the selection. Such requests share one image, built or
    /// loaded for the first of them only, and one sweep over the union of
    /// their configs, whose config dedup (see [`crate::fused`]) then
    /// simulates each distinct (image, config) pair once. Baseline
    /// requests all share the original program. Selections are resolved
    /// (and memoized) first; nothing is kept beyond this call.
    pub fn run_shared(&self, requests: &[(SweepImage<'_>, Vec<SimConfig>)]) -> SharedSweeps {
        let keys: Vec<Option<(Arc<Selection>, RewriteStyle)>> = requests
            .iter()
            .map(|(image, _)| match *image {
                SweepImage::Baseline => None,
                SweepImage::MiniGraph { selector, policy, style } => {
                    Some((self.select_with(selector, policy), style))
                }
            })
            .collect();
        // Per distinct image: its first request and the union of configs.
        let mut images: Vec<(usize, Vec<SimConfig>)> = Vec::new();
        let mut cells = Vec::with_capacity(requests.len());
        for (i, (key, (_, cfgs))) in keys.iter().zip(requests).enumerate() {
            let at = match images.iter().position(|(first, _)| keys[*first] == *key) {
                Some(at) => at,
                None => {
                    images.push((i, Vec::new()));
                    images.len() - 1
                }
            };
            let union = &mut images[at].1;
            let start = union.len();
            union.extend_from_slice(cfgs);
            cells.push((at, start..union.len()));
        }
        let images = images
            .iter()
            .map(|(first, cfgs)| self.try_sweep(requests[*first].0, cfgs))
            .collect();
        SharedSweeps { images, cells }
    }

    /// Sweeps one image (see [`crate::fused`]) — every simulation entry
    /// point of a prep ends here.
    fn try_sweep(
        &self,
        image: SweepImage<'_>,
        cfgs: &[SimConfig],
    ) -> Result<Vec<SweptCell>, HarnessError> {
        Ok(match image {
            SweepImage::Baseline => {
                let t = self.try_base_trace()?;
                sweep(&self.prog, &t, &self.base_catalog, &self.base_predecode(), cfgs)
            }
            SweepImage::MiniGraph { selector, policy, style } => {
                let img = self.try_image_with(selector, policy, style)?;
                sweep(&img.program, &img.trace, &img.catalog, &img.predecode(), cfgs)
            }
        })
    }
}

fn stats_of(cells: Vec<SweptCell>) -> Vec<SimStats> {
    cells.into_iter().map(|c| c.stats).collect()
}

/// The image a [`Prep::run_shared`] request simulates.
#[derive(Clone, Copy)]
pub enum SweepImage<'a> {
    /// The original program.
    Baseline,
    /// The program rewritten in `style` with the mini-graphs `selector`
    /// picks under `policy`.
    MiniGraph {
        /// The selection algorithm.
        selector: &'a dyn Selector,
        /// The selection policy.
        policy: &'a Policy,
        /// The rewrite style.
        style: RewriteStyle,
    },
}

/// The results of [`Prep::run_shared`]: one sweep per distinct image,
/// addressed by request.
pub struct SharedSweeps {
    /// Per distinct image, in first-request order: the sweep over the
    /// union of its requests' configs, or the error the image raised.
    images: Vec<Result<Vec<SweptCell>, HarnessError>>,
    /// Per request: its image's index and its configs' range in that
    /// image's sweep.
    cells: Vec<(usize, Range<usize>)>,
}

impl SharedSweeps {
    /// Request `i`'s results in config order, or the error of the image
    /// it shares.
    pub fn get(&self, i: usize) -> Result<&[SweptCell], &HarnessError> {
        let (at, range) = &self.cells[i];
        self.images[*at].as_ref().map(|cells| &cells[range.clone()])
    }

    /// Every request's results, in request order.
    ///
    /// # Errors
    ///
    /// The first failing request's error. That request is the first of
    /// its image, so this is also the first failing image.
    pub fn into_results(self) -> Result<Vec<Vec<SweptCell>>, HarnessError> {
        let images = self.images.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(self.cells.into_iter().map(|(at, range)| images[at][range].to_vec()).collect())
    }
}

/// Groups prepared workloads by suite, preserving registration order.
pub fn by_suite<P: std::borrow::Borrow<Prep>>(preps: &[P]) -> Vec<(Suite, Vec<&Prep>)> {
    Suite::ALL
        .iter()
        .map(|&s| (s, preps.iter().map(|p| p.borrow()).filter(|p| p.suite == s).collect()))
        .collect()
}
