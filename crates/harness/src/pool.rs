//! A shared, concurrency-safe pool of prepared workloads.
//!
//! A one-shot experiment process builds its [`Prep`]s, runs, and exits —
//! the in-process memo dies with it. A long-running service (`mg serve`)
//! instead keeps one **warm** prep per (workload, input, trace budget,
//! cache root) alive across every request it handles: the first request
//! pays for profiling, enumeration, and artifact computation; every later
//! request — from any client — reuses the same [`Prep`] and with it every
//! memoized selection, image, and trace.
//!
//! The pool guarantees **exactly-once preparation** under concurrency:
//! each key maps to a [`OnceLock`] slot, so when two engines race to
//! prepare the same workload, one does the work and the other blocks
//! until the prep is ready. The [`PrepPool::prepared`] / [`PrepPool::reused`]
//! counters make the guarantee observable — the serve tests and the
//! `serve-smoke` CI job assert "two concurrent clients, one prep" through
//! them.
//!
//! Pooling is keyed on the prep's *stable cache id*, never on closure
//! identity, so only registered workloads are pooled;
//! ad-hoc [`Source::Custom`](crate::engine::EngineBuilder::program)
//! programs bypass the pool (two different closures could share a name).

use crate::error::{panic_message, HarnessError};
use crate::prep::Prep;
use mg_fault::{points, FaultPlan};
use mg_workloads::Input;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Bounded retry budget per pool slot: after this many failed (errored
/// or panicked) preparations of one key, the slot turns terminal and
/// answers [`HarnessError::Exhausted`] instead of re-running the
/// closure. Transient failures get retried; a deterministic failure
/// cannot starve a stream of waiters into serially re-running it
/// forever.
pub const MAX_PREP_ATTEMPTS: u64 = 3;

/// Everything a pooled prep's identity depends on. Two engines whose
/// preparation would produce bit-identical `Prep`s share an entry; any
/// difference — input, trace budget, cache root — separates them.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PoolKey {
    /// The workload's stable cache id (`<suite>/<name>@r<version>`).
    pub cache_id: String,
    /// Input seed.
    pub seed: u64,
    /// Input scale.
    pub scale: u32,
    /// Recorded-trace cap (quick engines lower it; see
    /// [`Prep::with_trace_budget`]).
    pub trace_budget: u64,
    /// Persistent artifact cache root, or `None` when the cache is off.
    pub cache_dir: Option<PathBuf>,
}

impl PoolKey {
    /// Builds a key from a prep's coordinates.
    pub fn new(
        cache_id: impl Into<String>,
        input: &Input,
        trace_budget: u64,
        cache_dir: Option<PathBuf>,
    ) -> PoolKey {
        PoolKey {
            cache_id: cache_id.into(),
            seed: input.seed,
            scale: input.scale,
            trace_budget,
            cache_dir,
        }
    }
}

/// A shared pool of warm [`Prep`]s (see the module docs).
///
/// Cheap to share: wrap in an [`Arc`] and hand a clone to every
/// [`EngineBuilder::pool`](crate::engine::EngineBuilder::pool).
#[derive(Default)]
pub struct PrepPool {
    slots: Mutex<HashMap<PoolKey, Arc<Slot>>>,
    prepared: AtomicU64,
    reused: AtomicU64,
    retried: AtomicU64,
    fault_plan: Mutex<Option<Arc<FaultPlan>>>,
}

/// One pool slot. `once` holds the warm prep; `init` serializes the
/// fallible preparation path, so concurrent first touches block on the
/// single preparation instead of duplicating it, while an `Err` (which
/// must not be cached) releases the lock and leaves the slot retryable —
/// up to [`MAX_PREP_ATTEMPTS`] failures, after which the slot is
/// exhausted.
#[derive(Default)]
struct Slot {
    once: OnceLock<Arc<Prep>>,
    init: Mutex<()>,
    /// Failed preparation attempts so far (written under `init`).
    failures: AtomicU64,
    /// The most recent failure, rendered (for the `Exhausted` report).
    last_error: Mutex<Option<String>>,
}

impl PrepPool {
    /// Creates an empty pool.
    pub fn new() -> PrepPool {
        PrepPool::default()
    }

    /// Returns the pooled prep for `key`, preparing it with `prepare` if
    /// (and only if) no other caller has. Concurrent callers with the
    /// same key block until the single preparation finishes and then
    /// share the resulting [`Arc`].
    pub fn get_or_prepare(&self, key: PoolKey, prepare: impl FnOnce() -> Prep) -> Arc<Prep> {
        // One initialization discipline for both paths (the slot's init
        // lock), so mixing the panicking and fallible entry points on a
        // key can never duplicate a preparation.
        self.try_get_or_prepare(key, || Ok(prepare())).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible, panic-containing [`PrepPool::get_or_prepare`] — the
    /// `mg_api` session path, where `prepare` may run an out-of-tree
    /// workload source.
    ///
    /// A `prepare` that returns `Err` leaves the slot **uninitialized**
    /// (errors are not cached: a transient failure — say, a source
    /// reading a file that appears later — may succeed on retry). A
    /// `prepare` that *panics* is caught here so it cannot unwind through
    /// the engine's worker scope, and likewise leaves the slot
    /// retryable; the panic is reported as [`HarnessError::Panicked`],
    /// the closest thing to a "poisoned" entry this pool has. The
    /// exactly-once guarantee matches [`PrepPool::get_or_prepare`]:
    /// concurrent callers with the same key block on the slot's init
    /// lock until the single successful preparation finishes.
    ///
    /// # Errors
    ///
    /// `prepare`'s own error, or [`HarnessError::Panicked`].
    pub fn try_get_or_prepare(
        &self,
        key: PoolKey,
        prepare: impl FnOnce() -> Result<Prep, HarnessError>,
    ) -> Result<Arc<Prep>, HarnessError> {
        let workload = key.cache_id.clone();
        let slot = {
            let mut slots = self.slots.lock().unwrap();
            Arc::clone(slots.entry(key).or_default())
        };
        if let Some(prep) = slot.once.get() {
            self.reused.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(prep));
        }
        // Serialize fallible initialization on the slot's init lock
        // (OnceLock::get_or_init cannot propagate an Err without caching
        // something). Losing racers block here, then find the slot warm.
        // An unwrap-on-poison would reintroduce a panic path: a racer
        // that panicked inside `prepare` poisons this mutex, so treat
        // poison as "the previous holder is gone" and take the guard.
        let guard = slot.init.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(prep) = slot.once.get() {
            self.reused.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(prep));
        }
        // Bounded retry: a slot whose preparation has failed
        // MAX_PREP_ATTEMPTS times is exhausted — without the cap, a
        // deterministic failure makes every concurrent waiter re-run the
        // closure serially, forever.
        let failures = slot.failures.load(Ordering::Relaxed);
        if failures >= MAX_PREP_ATTEMPTS {
            let last = slot
                .last_error
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .clone()
                .unwrap_or_else(|| "unrecorded failure".to_string());
            return Err(HarnessError::Exhausted { workload, attempts: failures, last });
        }
        let fault_plan = self.fault_plan.lock().unwrap().clone();
        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = &fault_plan {
                if plan.fires(points::PREP_PANIC) {
                    panic!("injected fault: prep panic");
                }
            }
            prepare()
        }))
        .map_err(|panic| HarnessError::Panicked {
            workload: workload.clone(),
            message: panic_message(panic.as_ref()),
        });
        let prep = match attempt.and_then(|r| r) {
            Ok(prep) => prep,
            Err(e) => {
                slot.failures.fetch_add(1, Ordering::Relaxed);
                *slot.last_error.lock().unwrap_or_else(|poisoned| poisoned.into_inner()) =
                    Some(e.to_string());
                self.retried.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        // Infallible from here: publish and count. (Every entry point
        // funnels through this init lock, so `built` is only ever false
        // here if a pre-lock fast path raced us to the publish.)
        let mut built = false;
        let shared = Arc::clone(slot.once.get_or_init(|| {
            built = true;
            Arc::new(prep)
        }));
        drop(guard);
        if built {
            self.prepared.fetch_add(1, Ordering::Relaxed);
        } else {
            self.reused.fetch_add(1, Ordering::Relaxed);
        }
        Ok(shared)
    }

    /// How many preps this pool has actually prepared (each key counts
    /// once, no matter how many callers raced on it).
    pub fn prepared(&self) -> u64 {
        self.prepared.load(Ordering::Relaxed)
    }

    /// How many requests were satisfied by an already-warm prep.
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// How many preparation attempts failed (each leaves its slot
    /// retryable until [`MAX_PREP_ATTEMPTS`] is reached). Exported as
    /// `preps_retried` by `mg serve --stats`.
    pub fn retried(&self) -> u64 {
        self.retried.load(Ordering::Relaxed)
    }

    /// Heap bytes of the traces the pooled preps hold: the sum of
    /// [`Prep::trace_bytes`] over every warm prep. Exported as
    /// `preps_trace_bytes` by `mg serve --stats`.
    pub fn trace_bytes(&self) -> usize {
        let slots: Vec<Arc<Slot>> = self
            .slots
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .values()
            .cloned()
            .collect();
        slots.iter().filter_map(|s| s.once.get()).map(|p| p.trace_bytes()).sum()
    }

    /// Installs (or clears) a deterministic fault plan: subsequent
    /// preparations consult its `harness.prep.panic` point and panic —
    /// inside the pool's containment — when it fires. Used by `mg chaos`
    /// to exercise the retry/exhaustion machinery.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.fault_plan.lock().unwrap() = plan;
    }

    /// Number of distinct warm preps currently held.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// Whether the pool holds no preps yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_workloads::Suite;

    fn tiny_prep(name: &str) -> Prep {
        let w = mg_workloads::by_name(name).expect("registered");
        Prep::try_new(&w, &Input::tiny()).unwrap()
    }

    fn key(name: &str, budget: u64) -> PoolKey {
        let w = mg_workloads::by_name(name).expect("registered");
        PoolKey::new(w.stable_id(), &Input::tiny(), budget, None)
    }

    #[test]
    fn pool_prepares_once_per_key_and_counts() {
        let pool = Arc::new(PrepPool::new());
        let p1 = pool.get_or_prepare(key("crc32", 1000), || tiny_prep("crc32"));
        let p2 = pool.get_or_prepare(key("crc32", 1000), || panic!("must not re-prepare"));
        assert!(Arc::ptr_eq(&p1, &p2), "same warm prep");
        assert_eq!((pool.prepared(), pool.reused()), (1, 1));
        // A different budget is a different prep.
        let p3 = pool.get_or_prepare(key("crc32", 2000), || tiny_prep("crc32"));
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!((pool.prepared(), pool.reused()), (2, 1));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn concurrent_callers_share_one_preparation() {
        let pool = Arc::new(PrepPool::new());
        let prepared = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let prepared = Arc::clone(&prepared);
                scope.spawn(move || {
                    pool.get_or_prepare(key("bitcount", 500), || {
                        prepared.fetch_add(1, Ordering::Relaxed);
                        tiny_prep("bitcount")
                    });
                });
            }
        });
        assert_eq!(prepared.load(Ordering::Relaxed), 1, "exactly one preparation ran");
        assert_eq!(pool.prepared(), 1);
        assert_eq!(pool.reused(), 3);
        assert_eq!(
            pool.get_or_prepare(key("bitcount", 500), || unreachable!()).suite,
            Suite::MiBench
        );
    }

    #[test]
    fn try_path_keeps_exactly_once_under_races() {
        let pool = Arc::new(PrepPool::new());
        let prepared = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let prepared = Arc::clone(&prepared);
                scope.spawn(move || {
                    pool.try_get_or_prepare(key("crc32", 700), || {
                        prepared.fetch_add(1, Ordering::Relaxed);
                        Ok(tiny_prep("crc32"))
                    })
                    .expect("prepares");
                });
            }
        });
        assert_eq!(prepared.load(Ordering::Relaxed), 1, "racers block on one preparation");
        assert_eq!((pool.prepared(), pool.reused()), (1, 3), "counters match reality");
    }

    #[test]
    fn try_path_does_not_cache_errors() {
        let pool = PrepPool::new();
        let err = pool.try_get_or_prepare(key("crc32", 800), || {
            Err(crate::error::HarnessError::UnknownWorkload { name: "x".into() })
        });
        assert!(err.is_err());
        assert_eq!((pool.prepared(), pool.reused()), (0, 0), "a failure counts as nothing");
        assert_eq!(pool.retried(), 1, "the failed attempt is counted");
        let ok = pool.try_get_or_prepare(key("crc32", 800), || Ok(tiny_prep("crc32")));
        assert!(ok.is_ok(), "the slot stayed retryable");
        assert_eq!((pool.prepared(), pool.reused()), (1, 0));
    }

    #[test]
    fn failing_slot_exhausts_after_bounded_retries() {
        let pool = PrepPool::new();
        let runs = AtomicU64::new(0);
        for attempt in 0..MAX_PREP_ATTEMPTS {
            let err = pool
                .try_get_or_prepare(key("crc32", 900), || {
                    runs.fetch_add(1, Ordering::Relaxed);
                    Err(crate::error::HarnessError::UnknownWorkload { name: "boom".into() })
                })
                .err()
                .expect("expected a preparation failure");
            assert!(
                !matches!(err, crate::error::HarnessError::Exhausted { .. }),
                "attempt {attempt} is still retryable, got {err}"
            );
        }
        // The budget is spent: the closure must not run again, and the
        // error is terminal with the last failure attached.
        let err = pool
            .try_get_or_prepare(key("crc32", 900), || {
                runs.fetch_add(1, Ordering::Relaxed);
                Ok(tiny_prep("crc32"))
            })
            .err()
            .expect("expected a preparation failure");
        match err {
            crate::error::HarnessError::Exhausted { attempts, ref last, .. } => {
                assert_eq!(attempts, MAX_PREP_ATTEMPTS);
                assert!(last.contains("boom"), "last failure preserved: {last}");
            }
            other => panic!("expected Exhausted, got {other}"),
        }
        assert_eq!(runs.load(Ordering::Relaxed), MAX_PREP_ATTEMPTS);
        assert_eq!(pool.retried(), MAX_PREP_ATTEMPTS);
        // Other keys are unaffected.
        assert!(pool.try_get_or_prepare(key("crc32", 901), || Ok(tiny_prep("crc32"))).is_ok());
    }

    #[test]
    fn panicking_preps_count_against_the_retry_budget() {
        let pool = PrepPool::new();
        for _ in 0..MAX_PREP_ATTEMPTS {
            let err = pool
                .try_get_or_prepare(key("bitcount", 900), || panic!("flaky source"))
                .err()
                .expect("expected a preparation failure");
            assert!(matches!(err, crate::error::HarnessError::Panicked { .. }), "{err}");
        }
        let err = pool
            .try_get_or_prepare(key("bitcount", 900), || Ok(tiny_prep("bitcount")))
            .err()
            .expect("expected a preparation failure");
        assert!(matches!(err, crate::error::HarnessError::Exhausted { .. }), "{err}");
    }

    #[test]
    fn injected_prep_panics_are_contained_and_deterministic() {
        let pool = PrepPool::new();
        // permille 1000 + one-fire cap: exactly the first preparation
        // panics, the retry succeeds.
        pool.set_fault_plan(Some(Arc::new(mg_fault::FaultPlan::new(7).with_burst(
            mg_fault::points::PREP_PANIC,
            1000,
            1,
        ))));
        let err = pool
            .try_get_or_prepare(key("crc32", 950), || Ok(tiny_prep("crc32")))
            .err()
            .expect("expected a preparation failure");
        assert!(
            matches!(err, crate::error::HarnessError::Panicked { ref message, .. }
                if message.contains("injected fault")),
            "{err}"
        );
        let ok = pool.try_get_or_prepare(key("crc32", 950), || Ok(tiny_prep("crc32")));
        assert!(ok.is_ok(), "slot recovered after the injected panic");
        assert_eq!((pool.prepared(), pool.retried()), (1, 1));
    }
}
