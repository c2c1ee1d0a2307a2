//! Persistent on-disk cache of preparation artifacts.
//!
//! [`Prep`](crate::prep::Prep) memoizes per-policy selections, rewritten
//! images, and dynamic traces *in process*; this module extends that memo
//! across processes. A [`PrepCache`] serializes each artifact (via the
//! `mg-isa::wire` codec) to a versioned file under `target/mg-cache/`, so
//! repeated experiment sweeps — and the CI smoke jobs that rerun every
//! figure — skip recomputing selection, rewriting, and functional trace
//! recording entirely. Timing simulation itself is never cached: it *is*
//! the experiment.
//!
//! # Key and invalidation scheme (see `DESIGN.md` §5)
//!
//! Every artifact key starts from the owning prep's **fingerprint**, an
//! FNV-1a hash over
//!
//! 1. the cache schema version ([`CACHE_SCHEMA_VERSION`]),
//! 2. the `mg-harness` crate version,
//! 3. the opcode-set fingerprint (`mg_isa::wire::opcode_fingerprint`),
//! 4. the workload registry version (`mg_workloads::REGISTRY_VERSION`),
//! 5. the workload's stable id and its [`Input`](mg_workloads::Input)
//!    (seed, scale),
//! 6. the built program image's exact encoding,
//! 7. the initial memory image's content hash
//!    ([`Memory::content_hash`](mg_isa::Memory::content_hash)), and
//! 8. the candidate-enumeration size
//!    ([`ENUMERATION_SIZE`](crate::prep::ENUMERATION_SIZE)) and the
//!    profiling step budget ([`STEP_BUDGET`](crate::prep::STEP_BUDGET)).
//!
//! to which each artifact appends its own coordinates: the wire-encoded
//! [`Policy`] (selections), plus the [`RewriteStyle`] and the trace budget
//! (images and traces). Artifacts produced by a non-default
//! [`Selector`](mg_core::Selector) additionally append the selector id —
//! appended *only* when the id differs from
//! [`GREEDY_SELECTOR_ID`](mg_core::GREEDY_SELECTOR_ID), so greedy keys
//! are byte-identical to the pre-selector layout and new selection
//! policies can never poison (or be poisoned by) cached greedy
//! artifacts. The fingerprint deliberately hashes the *program
//! image* rather than trusting names: editing a kernel invalidates its
//! artifacts immediately, while memory-image (data generation) changes are
//! covered by the registry version, whose bump is forced by the committed
//! workload checksum table (`crates/workloads/tests/checksums.rs`).
//! Selection/rewrite/trace *algorithm* changes must bump
//! [`CACHE_SCHEMA_VERSION`]; the golden-stats regression tests are the
//! tripwire that such a change happened.
//!
//! Files are named by the FNV hash of the full key, and the full key bytes
//! are stored in each file's header and verified on load — a hash
//! collision degrades to a miss, never to a wrong artifact. Every file
//! ends in a whole-file checksum trailer, hashed a word at a time
//! ([`wire::fnv1a_words`]: 32-byte blocks over four lanes, then whole
//! words, then the sub-word tail byte by byte) and verified before any
//! byte reaches the payload decoder: a flipped bit that would still
//! decode structurally (the codec cannot range-check cross-references)
//! is a miss, never a wrong prep. Traces — the bulk of every trace and
//! image file — use `mg-profile`'s columnar codec (per-64-op jump, mem,
//! store, br and taken bitsets, then the jump, mem and branch-target
//! side columns), so a load is a checksum pass plus bulk column walks.
//! Writes go to a unique temp file renamed into place, so concurrent
//! writers (the engine's worker threads, or parallel CI jobs sharing a
//! target dir) race benignly: both compute the identical artifact, last
//! rename wins, and readers only ever see complete files. Any read error
//! — truncation, foreign bytes, corruption, stale schema — is a miss;
//! the artifact is recomputed and the file overwritten.

use crate::prep::MgImage;
use mg_core::{Policy, RewriteStyle, Selection};
use mg_isa::wire::{self, Wire, Writer};
use mg_profile::Trace;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bump when the meaning of cached bytes changes: a new wire layout, or a
/// behavioural change to selection, rewriting, or trace recording.
///
/// History: 1 initial; 2 columnar trace codec, word-wide checksum
/// trailer, and word-wide memory-image content hash; 3 trace static
/// indices stored only at jumps, and flag bitsets in place of the flag
/// byte.
pub const CACHE_SCHEMA_VERSION: u32 = 3;

/// Magic bytes opening every cache file.
const MAGIC: &[u8; 4] = b"MGC\x01";

/// Traces longer than this many ops are not persisted (a full-size trace
/// can run to hundreds of millions of ops; writing those would trade a
/// recomputation for disk churn of the same magnitude). Quick-mode traces
/// are four orders of magnitude below this bound.
pub const TRACE_STORE_CAP_OPS: u64 = 2_000_000;

/// Artifact kinds, used as a file-name prefix and a header tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Selection,
    Trace,
    Image,
}

impl Kind {
    fn tag(self) -> u8 {
        match self {
            Kind::Selection => 1,
            Kind::Trace => 2,
            Kind::Image => 3,
        }
    }

    fn prefix(self) -> &'static str {
        match self {
            Kind::Selection => "sel",
            Kind::Trace => "trace",
            Kind::Image => "img",
        }
    }
}

/// Aggregate cache statistics (for `mg cache stats`).
#[derive(Clone, Debug, Default)]
pub struct CacheStats {
    /// Cached selection files.
    pub selections: u64,
    /// Cached trace files.
    pub traces: u64,
    /// Cached image files.
    pub images: u64,
    /// Files that are none of the known kinds (foreign or stale layouts).
    pub other: u64,
    /// Total bytes across all files.
    pub bytes: u64,
}

impl CacheStats {
    /// Total files of any kind.
    pub fn files(&self) -> u64 {
        self.selections + self.traces + self.images + self.other
    }
}

/// A persistent artifact cache rooted at one directory.
///
/// Cheap to clone conceptually — share it across preps with `Arc`.
#[derive(Debug)]
pub struct PrepCache {
    root: PathBuf,
    /// Read-through second level (see [`PrepCache::with_fallback`]):
    /// a primary miss falls through here, and a fallback hit is copied
    /// back into the primary root. `None` in the single-root case.
    fallback: Option<Box<PrepCache>>,
    /// Deterministic fault schedule for the write path (see
    /// [`PrepCache::with_fault_plan`]); `None` in production.
    fault_plan: Option<std::sync::Arc<mg_fault::FaultPlan>>,
}

/// Uniquifier for temp-file names within one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl PrepCache {
    /// Opens (lazily — no I/O happens until the first store) a cache
    /// rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> PrepCache {
        PrepCache { root: root.into(), fallback: None, fault_plan: None }
    }

    /// Chains a shared read-through root behind this cache: a load that
    /// misses the primary root is retried against `root`, and a hit
    /// there is copied (byte-identical, temp file + rename) into the
    /// primary root before it is returned; stores land in **both**
    /// roots. This is the cluster's cache topology — each shard owns a
    /// private primary root (so shard-local churn stays local) in front
    /// of one shared root that accumulates every shard's artifacts, and
    /// a workload re-routed to a fresh shard finds its preparation
    /// already paid for.
    pub fn with_fallback(mut self, root: impl Into<PathBuf>) -> PrepCache {
        self.fallback = Some(Box::new(PrepCache::new(root)));
        self
    }

    /// The shared read-through root, if one is chained.
    pub fn fallback_root(&self) -> Option<&Path> {
        self.fallback.as_deref().map(PrepCache::root)
    }

    /// Installs a deterministic fault plan: stores consult
    /// `harness.cache.write_fail` (the write is skipped, degrading to a
    /// recompute on the next load) and `harness.cache.corrupt` (one byte
    /// of the landed file is flipped *after* the rename, so the next
    /// load must reject it as a miss). Both faults must be invisible to
    /// results — the cache's own contract is that any bad file is a
    /// miss, never an error or a wrong artifact.
    pub fn with_fault_plan(mut self, plan: std::sync::Arc<mg_fault::FaultPlan>) -> PrepCache {
        self.fault_plan = Some(plan);
        self
    }

    /// The default cache root: `$MG_CACHE_DIR`, or `target/mg-cache`
    /// relative to the current directory.
    pub fn default_root() -> PathBuf {
        match std::env::var_os("MG_CACHE_DIR") {
            Some(d) if !d.is_empty() => PathBuf::from(d),
            _ => PathBuf::from("target").join("mg-cache"),
        }
    }

    /// Whether the environment disables the cache (`MG_NO_CACHE=1`).
    pub fn disabled_by_env() -> bool {
        matches!(
            std::env::var("MG_NO_CACHE").as_deref().map(str::trim),
            Ok("1") | Ok("true") | Ok("yes")
        )
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The versioned directory artifacts live in.
    fn dir(&self) -> PathBuf {
        self.root.join(format!("v{CACHE_SCHEMA_VERSION}"))
    }

    fn file_path(&self, kind: Kind, key: &[u8]) -> PathBuf {
        self.dir().join(format!("{}-{:016x}.bin", kind.prefix(), wire::fnv1a(key)))
    }

    /// Loads an artifact: the primary root first, then the read-through
    /// fallback (whose hit repopulates the primary root byte-for-byte).
    fn load<T: Wire>(&self, kind: Kind, key: &[u8]) -> Option<T> {
        if let Some(v) = self.load_local(kind, key) {
            return Some(v);
        }
        let fb = self.fallback.as_ref()?;
        let v = fb.load_local(kind, key)?;
        // Copy the fallback's file (already checksum-verified by the
        // load above) into the primary root so the next lookup stays
        // local. Best effort: a failed copy just means another
        // fall-through later.
        if let Ok(bytes) = std::fs::read(fb.file_path(kind, key)) {
            self.write_bytes(kind, key, &bytes);
        }
        Some(v)
    }

    /// Loads and payload-decodes an artifact from this root only,
    /// verifying the whole-file checksum, the magic, the kind, and the
    /// full key. Any mismatch or error is a miss.
    fn load_local<T: Wire>(&self, kind: Kind, key: &[u8]) -> Option<T> {
        let bytes = std::fs::read(self.file_path(kind, key)).ok()?;
        // Checksum first: nothing downstream (including the payload
        // decoder, which cannot range-check cross-references) ever
        // sees a damaged byte.
        if bytes.len() < 8 {
            return None;
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        if trailer != wire::fnv1a_words(body).to_le_bytes() {
            return None;
        }
        let mut r = wire::Reader::new(body);
        if r.raw(MAGIC.len()).ok()? != MAGIC || r.u8().ok()? != kind.tag() {
            return None;
        }
        let stored_key_len = r.seq_len().ok()?;
        if r.raw(stored_key_len).ok()? != key {
            return None; // hash collision: treat as miss
        }
        let v = T::take(&mut r).ok()?;
        r.is_exhausted().then_some(v)
    }

    /// Serializes and stores an artifact under `key` (temp file + rename;
    /// failures are ignored — the cache is an accelerator, not a store of
    /// record).
    fn store<T: Wire>(&self, kind: Kind, key: &[u8], value: &T) {
        if let Some(plan) = &self.fault_plan {
            if plan.fires(mg_fault::points::CACHE_WRITE_FAIL) {
                return; // an ignored write failure: next load recomputes
            }
        }
        let mut w = Writer::new();
        w.raw(MAGIC);
        w.u8(kind.tag());
        w.u64(key.len() as u64);
        w.raw(key);
        value.put(&mut w);
        // Whole-file checksum trailer: a flipped bit anywhere in the
        // body — including one that still decodes to a structurally
        // valid but semantically wrong artifact — must be a miss, not
        // a wrong prep (or a panic deep inside selection/rewriting).
        let mut bytes = w.into_bytes();
        let sum = wire::fnv1a_words(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        self.write_bytes(kind, key, &bytes);
        if let Some(fb) = &self.fallback {
            // Stores populate both levels; the fault plan (injected
            // corruption below) stays scoped to the primary root, so a
            // corrupted shard root degrades to a shared-root hit.
            fb.write_bytes(kind, key, &bytes);
        }
        let path = self.file_path(kind, key);
        if let Some(plan) = &self.fault_plan {
            if plan.fires(mg_fault::points::CACHE_CORRUPT) {
                // Post-write corruption: flip one byte in place, at a
                // key-dependent offset so different artifacts corrupt
                // in different places (header, key, payload, or
                // trailer). The checksum must turn every one of these
                // into a miss on the next load.
                if let Ok(mut corrupted) = std::fs::read(&path) {
                    if !corrupted.is_empty() {
                        let at = (wire::fnv1a(key) as usize) % corrupted.len();
                        corrupted[at] ^= 0x40;
                        let _ = std::fs::write(&path, corrupted);
                    }
                }
            }
        }
    }

    /// Looks up a cached (greedy) selection.
    pub fn load_selection(&self, fingerprint: u64, policy: &Policy) -> Option<Selection> {
        self.load_selection_with(fingerprint, mg_core::GREEDY_SELECTOR_ID, policy)
    }

    /// Persists a (greedy) selection.
    pub fn store_selection(&self, fingerprint: u64, policy: &Policy, sel: &Selection) {
        self.store_selection_with(fingerprint, mg_core::GREEDY_SELECTOR_ID, policy, sel);
    }

    /// Looks up a cached selection produced by the selector named
    /// `selector_id` (see the module docs: the greedy id keys exactly
    /// like the id-less legacy layout).
    pub fn load_selection_with(
        &self,
        fingerprint: u64,
        selector_id: &str,
        policy: &Policy,
    ) -> Option<Selection> {
        self.load(Kind::Selection, &selection_key(fingerprint, selector_id, policy))
    }

    /// Persists a selection produced by the selector named `selector_id`.
    pub fn store_selection_with(
        &self,
        fingerprint: u64,
        selector_id: &str,
        policy: &Policy,
        sel: &Selection,
    ) {
        self.store(Kind::Selection, &selection_key(fingerprint, selector_id, policy), sel);
    }

    /// Looks up a cached baseline trace (prefix) recorded under `budget`.
    pub fn load_trace(&self, fingerprint: u64, budget: u64) -> Option<Trace> {
        self.load(Kind::Trace, &trace_key(fingerprint, budget))
    }

    /// Persists a baseline trace, unless it exceeds
    /// [`TRACE_STORE_CAP_OPS`].
    pub fn store_trace(&self, fingerprint: u64, budget: u64, trace: &Trace) {
        if trace.len() as u64 > TRACE_STORE_CAP_OPS {
            return;
        }
        self.store(Kind::Trace, &trace_key(fingerprint, budget), trace);
    }

    /// Looks up a cached rewritten image (program + trace + catalog)
    /// produced by the greedy selector.
    pub fn load_image(
        &self,
        fingerprint: u64,
        policy: &Policy,
        style: RewriteStyle,
        budget: u64,
    ) -> Option<MgImage> {
        self.load_image_with(fingerprint, mg_core::GREEDY_SELECTOR_ID, policy, style, budget)
    }

    /// Persists a (greedy) rewritten image, unless its trace exceeds
    /// [`TRACE_STORE_CAP_OPS`].
    pub fn store_image(
        &self,
        fingerprint: u64,
        policy: &Policy,
        style: RewriteStyle,
        budget: u64,
        img: &MgImage,
    ) {
        self.store_image_with(
            fingerprint,
            mg_core::GREEDY_SELECTOR_ID,
            policy,
            style,
            budget,
            img,
        );
    }

    /// Looks up a cached rewritten image produced by the selector named
    /// `selector_id`.
    pub fn load_image_with(
        &self,
        fingerprint: u64,
        selector_id: &str,
        policy: &Policy,
        style: RewriteStyle,
        budget: u64,
    ) -> Option<MgImage> {
        let (program, (trace, catalog)) = self
            .load(Kind::Image, &image_key(fingerprint, selector_id, policy, style, budget))?;
        Some(MgImage::new(program, trace, catalog))
    }

    /// Persists a rewritten image produced by the selector named
    /// `selector_id`, unless its trace exceeds [`TRACE_STORE_CAP_OPS`].
    pub fn store_image_with(
        &self,
        fingerprint: u64,
        selector_id: &str,
        policy: &Policy,
        style: RewriteStyle,
        budget: u64,
        img: &MgImage,
    ) {
        if img.trace.len() as u64 > TRACE_STORE_CAP_OPS {
            return;
        }
        let mut w = Writer::new();
        img.program.put(&mut w);
        img.trace.put(&mut w);
        img.catalog.put(&mut w);
        self.store_raw(
            Kind::Image,
            &image_key(fingerprint, selector_id, policy, style, budget),
            w,
        );
    }

    /// Lands an already-encoded cache file (checksum trailer included)
    /// under this root via the temp-file + rename discipline. Failures
    /// are ignored, as everywhere on the store path.
    fn write_bytes(&self, kind: Kind, key: &[u8], bytes: &[u8]) {
        let dir = self.dir();
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let path = self.file_path(kind, key);
        if std::fs::write(&tmp, bytes).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
        let _ = std::fs::remove_file(&tmp); // no-op after a successful rename
    }

    /// Like [`PrepCache::store`] but for a pre-encoded payload.
    fn store_raw(&self, kind: Kind, key: &[u8], payload: Writer) {
        struct RawBytes(Vec<u8>);
        impl Wire for RawBytes {
            fn put(&self, w: &mut Writer) {
                w.raw(&self.0);
            }
            fn take(_: &mut wire::Reader<'_>) -> Result<Self, wire::WireError> {
                unreachable!("raw payloads are decoded field-by-field")
            }
        }
        self.store(kind, key, &RawBytes(payload.into_bytes()));
    }

    /// Walks the whole cache root — the current schema directory, stale
    /// ones from older schema versions, and nested roots like the perf
    /// driver's sweep dir — and tallies files and bytes.
    pub fn stats(&self) -> CacheStats {
        fn walk(dir: &Path, s: &mut CacheStats) {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return;
            };
            for entry in entries.flatten() {
                let Ok(meta) = entry.metadata() else { continue };
                if meta.is_dir() {
                    walk(&entry.path(), s);
                    continue;
                }
                if !meta.is_file() {
                    continue;
                }
                let name = entry.file_name();
                let name = name.to_string_lossy();
                s.bytes += meta.len();
                if name.starts_with("sel-") {
                    s.selections += 1;
                } else if name.starts_with("trace-") {
                    s.traces += 1;
                } else if name.starts_with("img-") {
                    s.images += 1;
                } else {
                    s.other += 1;
                }
            }
        }
        let mut s = CacheStats::default();
        walk(&self.root, &mut s);
        s
    }

    /// Deletes every cached artifact: all versioned directories under the
    /// root (current schema *and* stale older ones) plus nested cache
    /// roots (e.g. the perf driver's sweep dir). Foreign files placed
    /// directly in the root are left alone — `clear` only removes
    /// directories this cache layout owns, so a misdirected
    /// `MG_CACHE_DIR` cannot wipe unrelated data.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than the directory not existing.
    pub fn clear(&self) -> std::io::Result<()> {
        let entries = match std::fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let owned_dir = name == "perf-sweep"
                || (name.starts_with('v') && name[1..].chars().all(|c| c.is_ascii_digit()));
            if entry.metadata().map(|m| m.is_dir()).unwrap_or(false) && owned_dir {
                std::fs::remove_dir_all(entry.path())?;
            }
        }
        Ok(())
    }
}

fn selection_key(fingerprint: u64, selector_id: &str, policy: &Policy) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(fingerprint);
    policy.put(&mut w);
    // The selector id is appended only for non-default selectors: greedy
    // keys must stay byte-identical to the pre-selector layout so the
    // selector dimension cannot invalidate — or be served from — any
    // previously cached greedy artifact.
    if selector_id != mg_core::GREEDY_SELECTOR_ID {
        w.str(selector_id);
    }
    w.into_bytes()
}

fn trace_key(fingerprint: u64, budget: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(fingerprint);
    w.u64(budget);
    w.into_bytes()
}

fn image_key(
    fingerprint: u64,
    selector_id: &str,
    policy: &Policy,
    style: RewriteStyle,
    budget: u64,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(fingerprint);
    policy.put(&mut w);
    w.u8(match style {
        RewriteStyle::NopPadded => 0,
        RewriteStyle::Compressed => 1,
    });
    w.u64(budget);
    // Trailing for the same reason as in `selection_key`: greedy image
    // keys are byte-identical to the pre-selector layout.
    if selector_id != mg_core::GREEDY_SELECTOR_ID {
        w.str(selector_id);
    }
    w.into_bytes()
}

/// Computes a prep's cache fingerprint (see the module docs for the
/// ingredient list).
pub fn fingerprint(
    workload_id: &str,
    input: &mg_workloads::Input,
    prog: &mg_isa::Program,
    mem_hash: u64,
) -> u64 {
    fingerprint_at(CACHE_SCHEMA_VERSION, workload_id, input, prog, mem_hash)
}

/// [`fingerprint`] under an explicit schema version (the key-completeness
/// test mutates it).
fn fingerprint_at(
    schema: u32,
    workload_id: &str,
    input: &mg_workloads::Input,
    prog: &mg_isa::Program,
    mem_hash: u64,
) -> u64 {
    let mut w = Writer::new();
    w.u32(schema);
    w.str(env!("CARGO_PKG_VERSION"));
    w.u64(wire::opcode_fingerprint());
    w.u32(mg_workloads::REGISTRY_VERSION);
    w.str(workload_id);
    w.u64(input.seed);
    w.u32(input.scale);
    prog.put(&mut w);
    // The initial data image ([`mg_isa::Memory::content_hash`]): without
    // it, a custom workload whose build closure changes only its data
    // generation would silently replay stale artifacts (registered
    // workloads additionally have the REGISTRY_VERSION + checksum-table
    // guard).
    w.u64(mem_hash);
    // The preparation knobs selections depend on: the enumeration size
    // and the profiling step budget (a truncated profile changes
    // candidate frequencies and therefore the correct selection).
    w.u64(crate::prep::ENUMERATION_SIZE as u64);
    w.u64(crate::prep::STEP_BUDGET);
    wire::fnv1a(&w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_isa::{reg, Asm};

    fn tmp_cache(tag: &str) -> PrepCache {
        let dir =
            std::env::temp_dir().join(format!("mg-cache-test-{tag}-{}", std::process::id()));
        let c = PrepCache::new(&dir);
        c.clear().unwrap();
        c
    }

    fn sample_selection() -> Selection {
        let mut a = Asm::new();
        a.li(reg(18), 0);
        a.li(reg(5), 20);
        a.label("top");
        a.addl(reg(18), 2, reg(18));
        a.cmplt(reg(18), reg(5), reg(7));
        a.bne(reg(7), "top");
        a.halt();
        let prog = a.finish().unwrap();
        mg_core::extract(&prog, &mut mg_isa::Memory::new(), &Policy::default(), 100_000)
            .unwrap()
            .selection
    }

    #[test]
    fn selection_round_trips_and_misses_on_other_keys() {
        let c = tmp_cache("sel");
        let sel = sample_selection();
        let policy = Policy::default();
        assert!(c.load_selection(1, &policy).is_none(), "cold cache misses");
        c.store_selection(1, &policy, &sel);
        let back = c.load_selection(1, &policy).expect("warm cache hits");
        assert_eq!(wire::to_bytes(&back), wire::to_bytes(&sel), "bit-identical");
        assert!(c.load_selection(2, &policy).is_none(), "fingerprint isolates");
        assert!(c.load_selection(1, &Policy::integer()).is_none(), "policy isolates");
        assert_eq!(c.stats().selections, 1);
        c.clear().unwrap();
        assert!(c.load_selection(1, &policy).is_none(), "clear removes");
    }

    #[test]
    fn corrupt_files_read_as_misses() {
        let c = tmp_cache("corrupt");
        let policy = Policy::default();
        c.store_selection(9, &policy, &sample_selection());
        let path = c.file_path(
            Kind::Selection,
            &selection_key(9, mg_core::GREEDY_SELECTOR_ID, &policy),
        );
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&path, bytes).unwrap();
        assert!(c.load_selection(9, &policy).is_none(), "truncated file is a miss");
        std::fs::write(&path, b"not a cache file").unwrap();
        assert!(c.load_selection(9, &policy).is_none(), "foreign file is a miss");
        c.clear().unwrap();
    }

    #[test]
    fn fallback_reads_through_and_repopulates_the_primary() {
        let base =
            std::env::temp_dir().join(format!("mg-cache-test-fallback-{}", std::process::id()));
        let primary_root = base.join("shard0");
        let shared_root = base.join("shared");
        let _ = std::fs::remove_dir_all(&base);
        let sel = sample_selection();
        let policy = Policy::default();

        // Seed only the shared root (another shard's store).
        PrepCache::new(&shared_root).store_selection(7, &policy, &sel);

        let c = PrepCache::new(&primary_root).with_fallback(&shared_root);
        assert_eq!(c.fallback_root(), Some(shared_root.as_path()));
        let hit = c.load_selection(7, &policy).expect("read-through hit");
        assert_eq!(wire::to_bytes(&hit), wire::to_bytes(&sel), "bit-identical");
        // The fall-through repopulated the primary root byte-for-byte.
        let key = selection_key(7, mg_core::GREEDY_SELECTOR_ID, &policy);
        let local = c.file_path(Kind::Selection, &key);
        let shared_file = PrepCache::new(&shared_root).file_path(Kind::Selection, &key);
        assert_eq!(
            std::fs::read(&local).expect("primary populated").as_slice(),
            std::fs::read(&shared_file).unwrap().as_slice(),
        );

        // A fresh store lands in both roots.
        c.store_selection(8, &policy, &sel);
        assert!(
            PrepCache::new(&shared_root).load_selection(8, &policy).is_some(),
            "store populated the shared root too"
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn selector_ids_isolate_but_greedy_keys_match_the_legacy_layout() {
        let policy = Policy::default();
        // The greedy id must key byte-identically to the pre-selector
        // layout (fingerprint + policy, nothing appended): an id-free
        // legacy key and a greedy-id key are the same bytes.
        let legacy = {
            let mut w = Writer::new();
            w.u64(11);
            policy.put(&mut w);
            w.into_bytes()
        };
        assert_eq!(
            selection_key(11, mg_core::GREEDY_SELECTOR_ID, &policy),
            legacy,
            "greedy selection keys are the legacy layout"
        );
        assert_ne!(
            selection_key(11, "tiling", &policy),
            legacy,
            "non-greedy selector ids isolate"
        );

        // End-to-end: a greedy store is visible through both entry
        // points, and a non-greedy store lives under its own key.
        let c = tmp_cache("selector-ids");
        let sel = sample_selection();
        c.store_selection(11, &policy, &sel);
        assert!(c.load_selection_with(11, mg_core::GREEDY_SELECTOR_ID, &policy).is_some());
        assert!(c.load_selection_with(11, "tiling", &policy).is_none(), "id isolates");
        let empty = Selection::default();
        c.store_selection_with(11, "tiling", &policy, &empty);
        let greedy_back = c.load_selection(11, &policy).expect("greedy artifact intact");
        assert_eq!(
            wire::to_bytes(&greedy_back),
            wire::to_bytes(&sel),
            "storing a non-greedy selection must not poison the greedy artifact"
        );
        c.clear().unwrap();
    }

    /// Every file under `root` with its length, modification time and
    /// inode: equal snapshots mean nothing was stored in between.
    fn snapshot(root: &Path) -> Vec<(PathBuf, u64, Option<std::time::SystemTime>, u64)> {
        use std::os::unix::fs::MetadataExt;
        let mut out = Vec::new();
        let mut dirs = vec![root.to_path_buf()];
        while let Some(d) = dirs.pop() {
            for e in std::fs::read_dir(&d).into_iter().flatten().flatten() {
                let meta = e.metadata().unwrap();
                if meta.is_dir() {
                    dirs.push(e.path());
                } else {
                    out.push((e.path(), meta.len(), meta.modified().ok(), meta.ino()));
                }
            }
        }
        out.sort();
        out
    }

    /// Key completeness, by mutation: each ingredient of the fingerprint
    /// and each artifact coordinate, changed alone, must miss every
    /// artifact it keys; things that are not inputs (where the root
    /// lives, how many threads prepared it) must still hit.
    #[test]
    fn every_key_input_is_load_bearing_and_nothing_else_is() {
        let c = tmp_cache("keys");
        let w = mg_workloads::by_name("crc32").expect("registered");
        let input = mg_workloads::Input::tiny();
        let (prog, mem) = w.build(&input);
        let id = w.stable_id();
        let fp = fingerprint(&id, &input, &prog, mem.content_hash());
        let (policy, style, budget) = (Policy::integer_memory(), RewriteStyle::NopPadded, 500);
        let greedy = mg_core::GREEDY_SELECTOR_ID;
        let trace = mg_profile::record_trace(&prog, &mut mem.clone(), None, budget).unwrap();
        let img = MgImage::new(prog.clone(), trace.clone(), mg_isa::HandleCatalog::new());
        c.store_selection(fp, &policy, &sample_selection());
        c.store_trace(fp, budget, &trace);
        c.store_image(fp, &policy, style, budget, &img);

        // [selection, trace, image] hits under the given coordinates.
        let hits = |c: &PrepCache, fp, sid: &str, policy: &Policy, style, budget| {
            [
                c.load_selection_with(fp, sid, policy).is_some(),
                c.load_trace(fp, budget).is_some(),
                c.load_image_with(fp, sid, policy, style, budget).is_some(),
            ]
        };
        assert_eq!(hits(&c, fp, greedy, &policy, style, budget), [true; 3]);

        // Fingerprint ingredients: every artifact misses.
        let mut edited = prog.clone();
        edited.insts.push(mg_isa::Inst::nop());
        let mut poked = mem.clone();
        poked.write_u8(0x7_0000, 1);
        let reseeded = mg_workloads::Input { seed: input.seed + 1, ..input };
        let rescaled = mg_workloads::Input { scale: input.scale + 1, ..input };
        let mutated = [
            ("workload id", fingerprint("mibench/other@r1", &input, &prog, mem.content_hash())),
            ("input seed", fingerprint(&id, &reseeded, &prog, mem.content_hash())),
            ("input scale", fingerprint(&id, &rescaled, &prog, mem.content_hash())),
            ("program bytes", fingerprint(&id, &input, &edited, mem.content_hash())),
            ("memory image", fingerprint(&id, &input, &prog, poked.content_hash())),
            (
                "schema version",
                fingerprint_at(
                    CACHE_SCHEMA_VERSION - 1,
                    &id,
                    &input,
                    &prog,
                    mem.content_hash(),
                ),
            ),
        ];
        for (what, f) in mutated {
            assert_ne!(f, fp, "{what} keys the fingerprint");
            assert_eq!(hits(&c, f, greedy, &policy, style, budget), [false; 3], "{what}");
        }

        // Artifact coordinates: exactly the artifacts they key miss.
        let coords = [
            (
                "policy",
                hits(&c, fp, greedy, &Policy::integer(), style, budget),
                [false, true, false],
            ),
            (
                "style",
                hits(&c, fp, greedy, &policy, RewriteStyle::Compressed, budget),
                [true, true, false],
            ),
            ("selector", hits(&c, fp, "tiling", &policy, style, budget), [false, true, false]),
            (
                "trace budget",
                hits(&c, fp, greedy, &policy, style, budget + 1),
                [true, false, false],
            ),
        ];
        for (what, got, want) in coords {
            assert_eq!(got, want, "{what}");
        }

        // Not inputs: a copied root hits everything.
        let copy = tmp_cache("keys-copy");
        for (path, ..) in snapshot(c.root()) {
            let dest = copy.root().join(path.strip_prefix(c.root()).unwrap());
            std::fs::create_dir_all(dest.parent().unwrap()).unwrap();
            std::fs::copy(&path, &dest).unwrap();
        }
        assert_eq!(hits(&copy, fp, greedy, &policy, style, budget), [true; 3], "copied root");
        c.clear().unwrap();
        copy.clear().unwrap();

        // Nor is the thread count: a 2-thread engine over a root a
        // 1-thread engine filled loads every artifact and stores nothing.
        let prepare = |threads: usize| {
            let engine = crate::Engine::builder()
                .workloads(&["crc32", "bitcount"])
                .input(input)
                .quick(true)
                .threads(threads)
                .cache_dir(c.root())
                .build();
            for p in engine.preps() {
                p.try_base_trace().unwrap();
                p.try_image(&policy, style).unwrap();
            }
            engine.preps().iter().map(|p| p.fingerprint()).collect::<Vec<_>>()
        };
        let one = prepare(1);
        let filled = snapshot(c.root());
        assert!(!filled.is_empty(), "the 1-thread engine stored its artifacts");
        assert_eq!(prepare(2), one, "thread count is not a fingerprint input");
        assert_eq!(snapshot(c.root()), filled, "the 2-thread engine hit every artifact");
        c.clear().unwrap();
    }

    #[test]
    fn fingerprints_separate_programs_and_inputs() {
        let prog_a = {
            let mut a = Asm::new();
            a.li(reg(1), 1);
            a.halt();
            a.finish().unwrap()
        };
        let prog_b = {
            let mut a = Asm::new();
            a.li(reg(1), 2);
            a.halt();
            a.finish().unwrap()
        };
        let tiny = mg_workloads::Input::tiny();
        let reference = mg_workloads::Input::reference();
        let f = fingerprint("t/w@r1", &tiny, &prog_a, 0);
        assert_eq!(f, fingerprint("t/w@r1", &tiny, &prog_a, 0), "deterministic");
        assert_ne!(f, fingerprint("t/w@r1", &tiny, &prog_b, 0), "program image keys");
        assert_ne!(f, fingerprint("t/w@r1", &reference, &prog_a, 0), "input keys");
        assert_ne!(f, fingerprint("t/other@r1", &tiny, &prog_a, 0), "workload id keys");
        assert_ne!(f, fingerprint("t/w@r1", &tiny, &prog_a, 1), "data image keys");
    }
}
