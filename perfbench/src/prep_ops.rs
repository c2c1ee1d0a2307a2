//! `prep_cold` and `prep_warm`: one op prepares one registry workload
//! the way a first (cold) or repeated (warm) quick `mg run` does —
//! `Prep::try_new` with the persistent cache attached, the baseline
//! trace, and the integer and integer-memory nop-padded images — with no
//! timing simulation.
//!
//! * `prep_cold` empties the run's cache root before every op, so every
//!   artifact is computed and stored.
//! * `prep_warm` runs against a root filled during set-up, so every
//!   artifact loads; a warm op must store nothing.
//!
//! Reference: the artifacts' signatures (`PrepSig`) from preparations
//! computed during set-up (uncached for `prep_cold`; the computing fill
//! of the root for `prep_warm`).

use crate::trace::Recorder;
use crate::{millis, secs, Measured, Order, Plan, Traced, SETUP_REPS};
use mg_core::{
    enumerate_candidates, rewrite, GreedySelector, Policy, RewriteStyle, SelectInputs,
    Selection, Selector,
};
use mg_harness::prep_cache::{self, PrepCache};
use mg_harness::{MgImage, Prep, ENUMERATION_SIZE, QUICK_MAX_OPS, STEP_BUDGET};
use mg_isa::wire::{self, Wire};
use mg_profile::{build_cfg, profile_program, record_trace, Trace};
use mg_workloads::{Input, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Instant, SystemTime};

/// The image policies every op prepares.
fn policies() -> [Policy; 2] {
    [Policy::integer(), Policy::integer_memory()]
}

const STYLE: RewriteStyle = RewriteStyle::NopPadded;

/// Files a cold op stores: the base trace, and a selection and an image
/// per policy.
const STORED: u64 = 5;

fn digest<T: Wire>(v: &T) -> u64 {
    wire::fnv1a(&wire::to_bytes(v))
}

/// What an op's output must reproduce exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PrepSig {
    fingerprint: u64,
    dyn_insts: u64,
    candidates: usize,
    base_trace: (usize, u64),
    images: Vec<ImageSig>,
}

/// Signature of one rewritten image and the selection behind it.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ImageSig {
    chosen: usize,
    selection: u64,
    trace_len: usize,
    image: (u64, u64, u64),
}

impl ImageSig {
    fn of(sel: &Selection, img: &MgImage) -> ImageSig {
        ImageSig {
            chosen: sel.chosen.len(),
            selection: digest(sel),
            trace_len: img.trace.len(),
            image: (digest(&img.program), digest(&img.trace), digest(&img.catalog)),
        }
    }
}

/// The signature of a prep whose trace and images are computed (or
/// loaded); selections are taken through `Prep::select`, outside any
/// timed region.
fn sig_of(p: &Prep) -> Result<PrepSig, String> {
    let trace = p.try_base_trace().map_err(|e| e.to_string())?;
    let mut images = Vec::new();
    for policy in policies() {
        let img = p.try_image(&policy, STYLE).map_err(|e| e.to_string())?;
        images.push(ImageSig::of(&p.select(&policy), &img));
    }
    Ok(PrepSig {
        fingerprint: p.fingerprint(),
        dyn_insts: p.total_dyn,
        candidates: p.candidates.len(),
        base_trace: (trace.len(), digest(&*trace)),
        images,
    })
}

/// The op through the `Prep` entry points.
fn prepare(w: &Workload, cache: Option<Arc<PrepCache>>) -> Result<Prep, String> {
    let p = Prep::try_new(w, &Input::reference()).map_err(|e| e.to_string())?;
    let p = p.with_trace_budget(QUICK_MAX_OPS).with_cache(cache);
    p.try_base_trace().map_err(|e| e.to_string())?;
    for policy in policies() {
        p.try_image(&policy, STYLE).map_err(|e| e.to_string())?;
    }
    Ok(p)
}

/// Every cache file with its length, modification time and inode: equal
/// snapshots before and after an op mean the op stored nothing.
type Snapshot = BTreeMap<PathBuf, (u64, Option<SystemTime>, u64)>;

fn snapshot(root: &Path) -> Snapshot {
    use std::os::unix::fs::MetadataExt;
    let mut out = BTreeMap::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(d) = dirs.pop() {
        for e in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_dir() {
                dirs.push(e.path());
            } else {
                out.insert(e.path(), (meta.len(), meta.modified().ok(), meta.ino()));
            }
        }
    }
    out
}

/// Runs `prep_cold` (`warm == false`) or `prep_warm`.
///
/// # Errors
///
/// Set-up failures.
pub fn run(plan: &Plan, warm: bool) -> Result<Measured, String> {
    let workloads = mg_workloads::all();
    let root = plan.work_dir.join("cache");
    let cache = Arc::new(PrepCache::new(&root));
    let clear = || cache.clear().map_err(|e| format!("cannot clear {}: {e}", root.display()));
    let mut m = Measured::default();
    let mut reference = Vec::new();
    for _ in 0..SETUP_REPS {
        clear()?;
        let t = Instant::now();
        let c = warm.then(|| Arc::clone(&cache));
        reference = workloads
            .iter()
            .map(|w| sig_of(&prepare(w, c.clone())?))
            .collect::<Result<Vec<_>, String>>()?;
        m.setup_s.push(secs(t));
    }
    let filled = snapshot(&root);
    // Every warm load must find its file: a warm op that missed would
    // store, which the snapshot comparison catches.
    if warm && filled.len() as u64 != STORED * workloads.len() as u64 {
        return Err(format!("the set-up fill stored {} files", filled.len()));
    }

    let check = |i: usize, p: Result<Prep, String>| -> bool {
        let ok = p.and_then(|p| sig_of(&p)).is_ok_and(|s| s == reference[i]);
        if warm {
            ok && snapshot(&root) == filled
        } else {
            ok && cache.stats().files() == STORED
        }
    };
    // Untimed warm-up pass over every workload, then the timed passes.
    for (pass, timed) in std::iter::once(false).chain(vec![true; plan.passes]).enumerate() {
        for i in Order::new(plan.seed, pass as u64).permutation(workloads.len()) {
            if !warm {
                clear()?;
            }
            let t = Instant::now();
            let p = black_box(prepare(&workloads[i], Some(Arc::clone(&cache))));
            let ms = millis(t);
            let ok = check(i, p);
            if timed {
                m.op_ms.push(ms);
                m.timed_wall_s += ms / 1e3;
                m.attempted += 1;
                m.failed += u64::from(!ok);
            }
        }
    }

    if plan.traced {
        m.traced = Some(traced(plan, warm, &workloads, &reference, &cache, &filled)?);
    }
    Ok(m)
}

/// The traced passes: each op decomposed into the layer calls `Prep`
/// makes (the same public functions, in the same order, against the same
/// cache root), with a span around each.
fn traced(
    plan: &Plan,
    warm: bool,
    workloads: &[Workload],
    reference: &[PrepSig],
    cache: &Arc<PrepCache>,
    filled: &Snapshot,
) -> Result<Traced, String> {
    let root = cache.root().to_path_buf();
    let mut rec = Recorder::new(Instant::now());
    let mut t = Traced::default();
    let mut op = 0u32;
    for pass in 0..plan.passes.div_ceil(2) {
        for i in
            Order::new(plan.seed, (plan.passes + 1 + pass) as u64).permutation(workloads.len())
        {
            if !warm {
                cache.clear().map_err(|e| e.to_string())?;
            }
            let start = Instant::now();
            let out = rec.op(op, |r| decomposed(r, &workloads[i], cache));
            t.op_ms.push(millis(start));
            op += 1;
            let ok = match out {
                Ok(d) => d.sig(cache).as_ref() == Some(&reference[i]),
                Err(_) => false,
            };
            let stored = if warm { None } else { Some(cache.stats()) };
            rec.count("prep_cache.bytes", stored.as_ref().map_or(0, |s| s.bytes));
            let stores_ok = match stored {
                None => snapshot(&root) == *filled,
                Some(s) => s.files() == STORED,
            };
            t.failed += u64::from(!(ok && stores_ok));
        }
    }
    t.counts = rec.counts().clone();
    t.spans = rec.spans().to_vec();
    t.inconsistent = crate::trace::inconsistent_ops(&t.spans, &t.op_ms) as u64;
    Ok(t)
}

/// The artifacts one decomposed op produced.
struct Decomposed {
    fingerprint: u64,
    dyn_insts: u64,
    candidates: usize,
    base_trace: Trace,
    /// Per policy: the selection if it was computed, and the image.
    images: Vec<(Option<Selection>, MgImage)>,
}

impl Decomposed {
    /// The signature, loading from the cache any selection the op did
    /// not need (a warm image hit skips selection).
    fn sig(&self, cache: &PrepCache) -> Option<PrepSig> {
        let mut images = Vec::new();
        for ((sel, img), policy) in self.images.iter().zip(policies()) {
            let loaded;
            let sel = match sel {
                Some(s) => s,
                None => {
                    loaded = cache.load_selection(self.fingerprint, &policy)?;
                    &loaded
                }
            };
            images.push(ImageSig::of(sel, img));
        }
        Some(PrepSig {
            fingerprint: self.fingerprint,
            dyn_insts: self.dyn_insts,
            candidates: self.candidates,
            base_trace: (self.base_trace.len(), digest(&self.base_trace)),
            images,
        })
    }
}

/// Loads through the cache under a `prep_cache.load` span, counting the
/// hit or miss.
fn load<T>(r: &mut Recorder, f: impl FnOnce() -> Option<T>) -> Option<T> {
    let hit = r.span("prep_cache.load", |_| f());
    r.count(if hit.is_some() { "prep_cache.load.hits" } else { "prep_cache.load.misses" }, 1);
    hit
}

/// One op as the sequence of layer calls `Prep::try_new`,
/// `Prep::try_base_trace` and `Prep::try_image` make.
fn decomposed(r: &mut Recorder, w: &Workload, cache: &PrepCache) -> Result<Decomposed, String> {
    let input = Input::reference();
    let budget = QUICK_MAX_OPS;
    let build = |r: &mut Recorder| r.span("workloads.build", |_| (w.build)(&input));
    let selector = GreedySelector;
    let sid = selector.id();

    let (prog, cfg, prof, candidates, fingerprint) = r.span("harness.prep", |r| {
        let (prog, mut mem) = build(r);
        let mem_hash = mem.content_hash();
        let cfg = build_cfg(&prog);
        let prof =
            r.span("profile.profile", |_| profile_program(&prog, &mut mem, None, STEP_BUDGET));
        let prof = prof.map_err(|e| e.to_string())?;
        r.count("profile.profile.dyn_insts", prof.total);
        let candidates = r.span("core.enumerate", |_| {
            enumerate_candidates(&prog, &cfg, &prof, ENUMERATION_SIZE)
        });
        r.count("core.enumerate.candidates", candidates.len() as u64);
        let fingerprint = prep_cache::fingerprint(&w.stable_id(), &input, &prog, mem_hash);
        Ok::<_, String>((prog, cfg, prof, candidates, fingerprint))
    })?;

    let base_trace = r.span("harness.base_trace", |r| {
        if let Some(t) = load(r, || cache.load_trace(fingerprint, budget)) {
            return Ok(t);
        }
        let (_, mut mem) = build(r);
        let t = r.span("profile.trace", |_| record_trace(&prog, &mut mem, None, budget));
        let t = t.map_err(|e| e.to_string())?;
        r.count("profile.trace.ops", t.len() as u64);
        r.span("prep_cache.store", |_| cache.store_trace(fingerprint, budget, &t));
        Ok::<_, String>(t)
    })?;

    let mut images = Vec::new();
    for policy in policies() {
        let image = r.span("harness.image", |r| {
            if let Some(img) =
                load(r, || cache.load_image_with(fingerprint, sid, &policy, STYLE, budget))
            {
                return Ok((None, img));
            }
            let sel = match load(r, || cache.load_selection_with(fingerprint, sid, &policy)) {
                Some(s) => s,
                None => {
                    let inputs =
                        SelectInputs { candidates: &candidates, cfg: &cfg, prof: &prof };
                    let s = r.span("core.select", |_| selector.select(&inputs, &policy));
                    r.count("core.select.chosen", s.chosen.len() as u64);
                    r.span("prep_cache.store", |_| {
                        cache.store_selection_with(fingerprint, sid, &policy, &s)
                    });
                    s
                }
            };
            let rw = r.span("core.rewrite", |_| rewrite(&prog, &sel, STYLE));
            r.count("core.rewrite.handles", rw.handles as u64);
            let (_, mut mem) = build(r);
            let t = r.span("profile.trace", |_| {
                record_trace(&rw.program, &mut mem, Some(&sel.catalog), budget)
            });
            let t = t.map_err(|e| e.to_string())?;
            r.count("profile.trace.ops", t.len() as u64);
            let img = MgImage::new(rw.program, t, sel.catalog.clone());
            r.span("prep_cache.store", |_| {
                cache.store_image_with(fingerprint, sid, &policy, STYLE, budget, &img)
            });
            Ok::<_, String>((Some(sel), img))
        })?;
        images.push(image);
    }
    Ok(Decomposed {
        fingerprint,
        dyn_insts: prof.total,
        candidates: candidates.len(),
        base_trace,
        images,
    })
}
