//! The cache's byte layer on real artifacts: the columnar trace codec
//! round-trips every registry workload's base trace and rewritten-image
//! traces, and a single flipped bit anywhere in a cache file — header,
//! key, columns, the checksum's sub-word tail, or the trailer itself — is
//! a miss.

use mg_core::{Policy, RewriteStyle};
use mg_harness::{Prep, PrepCache, QUICK_MAX_OPS};
use mg_isa::wire;
use mg_profile::Trace;
use mg_workloads::Input;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn round_trip(t: &Trace, what: &str) {
    let bytes = wire::to_bytes(t);
    let back: Trace = wire::from_bytes(&bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(&back, t, "{what}: ops and insts");
    assert_eq!(wire::to_bytes(&back), bytes, "{what}: re-encodes identically");
}

#[test]
fn every_registry_trace_round_trips_through_the_columnar_codec() {
    let policies = [Policy::integer(), Policy::integer_memory()];
    for w in mg_workloads::all() {
        let prep = Prep::try_new(&w, &Input::tiny()).unwrap().with_trace_budget(QUICK_MAX_OPS);
        round_trip(&prep.try_base_trace().unwrap(), &format!("{} base", w.name));
        for policy in &policies {
            for style in [RewriteStyle::NopPadded, RewriteStyle::Compressed] {
                let img = prep.try_image(policy, style).unwrap();
                round_trip(&img.trace, &format!("{} image {policy:?} {style:?}", w.name));
            }
        }
    }
}

fn cache_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(d) = dirs.pop() {
        for e in fs::read_dir(&d).into_iter().flatten().flatten() {
            if e.path().is_dir() {
                dirs.push(e.path());
            } else {
                out.push(e.path());
            }
        }
    }
    out.sort();
    out
}

#[test]
fn a_flipped_bit_anywhere_in_a_cache_file_is_a_miss() {
    const BUDGET: u64 = 300;
    let root = std::env::temp_dir().join(format!("mg-cache-bitflip-{}", std::process::id()));
    let cache = Arc::new(PrepCache::new(&root));
    cache.clear().unwrap();
    let w = mg_workloads::by_name("crc32").expect("registered");
    let prep = Prep::try_new(&w, &Input::tiny())
        .unwrap()
        .with_trace_budget(BUDGET)
        .with_cache(Some(Arc::clone(&cache)));
    let (policy, style) = (Policy::integer_memory(), RewriteStyle::NopPadded);
    let _ = prep.select(&policy);
    let _ = prep.try_base_trace().unwrap();
    let _ = prep.try_image(&policy, style).unwrap();
    let fp = prep.fingerprint();

    let files = cache_files(&root);
    assert_eq!(files.len(), 3, "selection, trace and image stored: {files:?}");
    assert!(
        files.iter().any(|f| (fs::metadata(f).unwrap().len() - 8) % 8 != 0),
        "at least one checksummed body ends in a sub-word tail"
    );
    let hit = |file: &Path| {
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("sel-") {
            cache.load_selection(fp, &policy).is_some()
        } else if name.starts_with("trace-") {
            cache.load_trace(fp, BUDGET).is_some()
        } else {
            cache.load_image(fp, &policy, style, BUDGET).is_some()
        }
    };
    for file in &files {
        let original = fs::read(file).unwrap();
        assert!(hit(file), "{} loads intact", file.display());
        let n = original.len();
        // One bit per byte everywhere (cycling through bit positions), and
        // every bit of the last 16 bytes: the tail and the trailer.
        let flips = (0..n)
            .map(|pos| (pos, pos % 8))
            .chain((n.saturating_sub(16)..n).flat_map(|pos| (0..8).map(move |bit| (pos, bit))));
        for (pos, bit) in flips {
            let mut bytes = original.clone();
            bytes[pos] ^= 1 << bit;
            fs::write(file, &bytes).unwrap();
            assert!(!hit(file), "bit {bit} of byte {pos}/{n} of {} still hits", file.display());
        }
        fs::write(file, &original).unwrap();
        assert!(hit(file), "restoring {} restores the hit", file.display());
    }
    cache.clear().unwrap();
}
