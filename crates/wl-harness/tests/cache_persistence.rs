//! Pins the ISSUE-3 acceptance criteria through the public API:
//!
//! 1. a sweep run twice via the disk cache performs **zero** simulator
//!    executions on the second run (every lookup is a confirmed hit —
//!    a miss is the only thing that triggers a simulation);
//! 2. a 2-shard merged sweep is **byte-identical** to the unsharded
//!    sweep — at the outcome level (`index` + `bit_identical`)
//!    and at the store-file level (merged shard stores serialize to the
//!    same bytes as the 1-process store).
//!
//! And the ISSUE-4 extension: series-bearing sweeps
//! (`Capture::Series`, the payload behind `paper_report`'s `boundary` /
//! `mean_mid` / `figures` sections) round-trip through the disk store
//! with every series element intact, so their warm re-runs also execute
//! zero simulations.
//!
//! And the ISSUE-5 acceptance: a text store migrates to the v3 binary
//! segment format and back **byte-identically**, warm runs off the
//! migrated (smaller) binary store still execute zero simulations, and
//! `DiskSweepCache` persists/serves either format transparently.

use std::path::PathBuf;
use wl_core::Params;
use wl_harness::{
    derive_seed, Capture, DelayKind, DiskSweepCache, FaultKind, Maintenance, ScenarioSpec, Shard,
    StoreFormat, SweepCache, SweepRequest, SweepStore,
};
use wl_sim::ProcessId;
use wl_time::RealTime;

/// A machine-sized request memoized through `cache`.
fn cached(cache: &SweepCache) -> SweepRequest<'_> {
    SweepRequest::new().cached(cache)
}

fn grid(count: usize) -> Vec<ScenarioSpec> {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let delays = [
        DelayKind::Constant,
        DelayKind::Uniform,
        DelayKind::AdversarialSplit,
    ];
    (0..count)
        .map(|i| {
            ScenarioSpec::new(params.clone())
                .seed(derive_seed(0xABCD, i as u64))
                .delay(delays[i % 3])
                .t_end(RealTime::from_secs(2.0))
        })
        .collect()
}

/// `grid`, but every point designates a faulty process — so the cached
/// per-point body is served by the enum-dispatched fast path, not the
/// monomorphized all-correct one.
fn faulted_grid(count: usize) -> Vec<ScenarioSpec> {
    let kinds = [
        FaultKind::Silent,
        FaultKind::TwoFaced(0.002),
        FaultKind::RoundSpam,
    ];
    grid(count)
        .into_iter()
        .enumerate()
        .map(|(i, spec)| spec.fault(ProcessId(i % 4), kinds[i % 3]))
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wl-persist-{}-{name}.wls", std::process::id()))
}

#[test]
fn second_disk_cached_run_executes_zero_simulations() {
    let path = tmp("zero-exec");
    let _ = std::fs::remove_file(&path);

    // Cold run: everything misses, everything persists.
    let mut disk = DiskSweepCache::open(&path).unwrap();
    let cold = cached(disk.cache()).run::<Maintenance>(grid(6));
    assert_eq!(disk.cache().misses(), 6);
    assert_eq!(disk.persist().unwrap(), 6);

    // Fresh process simulated by a fresh handle: zero misses means zero
    // simulator executions — a simulation only ever runs on a miss.
    let disk2 = DiskSweepCache::open(&path).unwrap();
    let warm = cached(disk2.cache()).run::<Maintenance>(grid(6));
    assert_eq!(disk2.cache().hits(), 6, "every grid point served from disk");
    assert_eq!(disk2.cache().misses(), 0, "zero simulator executions");
    for (a, b) in warm.iter().zip(&cold) {
        assert!(a.bit_identical(b), "disk round trip must be lossless");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn faulted_warm_run_executes_zero_simulations_on_enum_path() {
    // PR-6: faulted grid points are served by the enum-dispatched fleet
    // fast path inside the cached per-point body. The cache must not
    // notice — cold run misses everything, warm run off a fresh handle
    // hits everything (zero simulator executions), and the round trip
    // is bit-identical.
    let specs = faulted_grid(6);
    for spec in &specs {
        assert!(
            wl_harness::assemble_mono::<Maintenance>(spec).is_none(),
            "faulted specs must not qualify for the all-correct mono path"
        );
        assert!(
            wl_harness::assemble_enum::<Maintenance>(spec).is_some(),
            "faulted specs must qualify for the enum fast path"
        );
    }

    let path = tmp("enum-zero-exec");
    let _ = std::fs::remove_file(&path);

    let mut disk = DiskSweepCache::open(&path).unwrap();
    let cold = cached(disk.cache()).run::<Maintenance>(specs.clone());
    assert_eq!(disk.cache().misses(), 6);
    assert_eq!(disk.persist().unwrap(), 6);

    let disk2 = DiskSweepCache::open(&path).unwrap();
    let warm = cached(disk2.cache()).run::<Maintenance>(specs);
    assert_eq!(disk2.cache().hits(), 6, "every faulted point served warm");
    assert_eq!(disk2.cache().misses(), 0, "zero simulator executions");
    for (a, b) in warm.iter().zip(&cold) {
        assert!(a.bit_identical(b), "enum-path round trip must be lossless");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn warm_series_run_executes_zero_simulations() {
    let path = tmp("series-zero-exec");
    let _ = std::fs::remove_file(&path);

    // Cold: capture series for every grid point, persist.
    let mut disk = DiskSweepCache::open(&path).unwrap();
    let cold = cached(disk.cache())
        .capture(Capture::Series)
        .run::<Maintenance>(grid(5));
    assert_eq!(disk.cache().misses(), 5);
    assert!(cold.iter().all(|o| o.series.is_some()));
    disk.persist().unwrap();

    // Warm, fresh handle: the series requirement is satisfied from disk
    // alone — zero misses means zero simulator executions, with every
    // series element surviving the round trip bit-for-bit.
    let disk2 = DiskSweepCache::open(&path).unwrap();
    let warm = cached(disk2.cache())
        .capture(Capture::Series)
        .run::<Maintenance>(grid(5));
    assert_eq!(disk2.cache().hits(), 5, "series served from disk");
    assert_eq!(disk2.cache().misses(), 0, "zero simulator executions");
    for (a, b) in warm.iter().zip(&cold) {
        assert!(a.bit_identical(b), "series round trip must be lossless");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn migrated_binary_store_serves_warm_series_run_with_zero_simulations() {
    // The ISSUE-5 acceptance flow end-to-end through the public API: a
    // text store produced the PR-4 way migrates to the v3 binary format
    // and back byte-identically, and warm runs off the *migrated* store
    // execute zero simulations.
    let text = tmp("mig-warm-text");
    let binary = tmp("mig-warm-binary");
    let round = tmp("mig-warm-round");
    let _ = std::fs::remove_file(&text);

    let mut disk = DiskSweepCache::open(&text).unwrap();
    let cold = cached(disk.cache())
        .capture(Capture::Series)
        .run::<Maintenance>(grid(4));
    disk.persist().unwrap();

    let report = SweepStore::migrate(&text, &binary, StoreFormat::Binary).unwrap();
    assert_eq!(report.records, 4);
    assert!(
        report.bytes_out < report.bytes_in,
        "binary series store ({}) must be smaller than text ({})",
        report.bytes_out,
        report.bytes_in
    );

    // Warm run off the binary store: zero misses = zero simulations.
    let warm_disk = DiskSweepCache::open(&binary).unwrap();
    assert_eq!(warm_disk.store().format(), StoreFormat::Binary);
    let warm = cached(warm_disk.cache())
        .capture(Capture::Series)
        .run::<Maintenance>(grid(4));
    assert_eq!(
        (warm_disk.cache().hits(), warm_disk.cache().misses()),
        (4, 0),
        "migrated store must serve the whole grid warm"
    );
    for (a, b) in warm.iter().zip(&cold) {
        assert!(a.bit_identical(b), "migration must be lossless");
    }

    // And back: byte-identical to the original text store.
    SweepStore::migrate(&binary, &round, StoreFormat::Text).unwrap();
    assert_eq!(
        std::fs::read(&text).unwrap(),
        std::fs::read(&round).unwrap(),
        "text -> binary -> text is byte-pinned"
    );
    for p in [&text, &binary, &round] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn binary_disk_cache_persists_and_serves_like_text() {
    // DiskSweepCache::set_format (the WL_SWEEP_FORMAT code path): the
    // persist writes binary, a fresh handle auto-detects it, and the
    // warm run is served entirely from disk.
    let path = tmp("bin-disk");
    let _ = std::fs::remove_file(&path);
    let mut disk = DiskSweepCache::open(&path).unwrap();
    disk.set_format(StoreFormat::Binary);
    let cold = cached(disk.cache()).run::<Maintenance>(grid(6));
    assert_eq!(disk.persist().unwrap(), 6);
    assert!(disk.status().contains("binary store"), "{}", disk.status());

    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(&bytes[..4], b"WLSB");

    let disk2 = DiskSweepCache::open(&path).unwrap();
    let warm = cached(disk2.cache()).run::<Maintenance>(grid(6));
    assert_eq!((disk2.cache().hits(), disk2.cache().misses()), (6, 0));
    for (a, b) in warm.iter().zip(&cold) {
        assert!(a.bit_identical(b));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn two_shard_merge_equals_unsharded_byte_for_byte() {
    let full = SweepRequest::new().run::<Maintenance>(grid(7));

    // Outcome level: run the two shards (different thread widths on
    // purpose — determinism is thread-count independent) and merge.
    let shard0 = SweepRequest::new()
        .threads(1)
        .shard(Shard::new(0, 2))
        .run::<Maintenance>(grid(7));
    let shard1 = SweepRequest::new()
        .threads(3)
        .shard(Shard::new(1, 2))
        .run::<Maintenance>(grid(7));
    // Each shard outcome carries its grid-global index: together the
    // two shards are the unsharded run, point for point.
    assert_eq!(shard0.len() + shard1.len(), full.len());
    for part in shard0.iter().chain(&shard1) {
        assert!(
            part.bit_identical(&full[part.index]),
            "sharded != unsharded at index {}",
            part.index
        );
    }

    // Store level: shard stores merged on disk == the 1-process store.
    let p_a = tmp("shard-a");
    let p_b = tmp("shard-b");
    let p_merged = tmp("shard-merged");
    let p_full = tmp("shard-full");
    for (path, shard) in [(&p_a, Shard::new(0, 2)), (&p_b, Shard::new(1, 2))] {
        let _ = std::fs::remove_file(path);
        let cache = SweepCache::new();
        let _ = SweepRequest::new()
            .shard(shard)
            .cached(&cache)
            .run::<Maintenance>(grid(7));
        let mut store = SweepStore::open(path).unwrap();
        store.absorb(&cache);
        store.save().unwrap();
    }
    let mut merged_store = SweepStore::new();
    merged_store
        .merge_from(&SweepStore::open(&p_a).unwrap())
        .unwrap();
    merged_store
        .merge_from(&SweepStore::open(&p_b).unwrap())
        .unwrap();
    merged_store.save_to(&p_merged).unwrap();

    let _ = std::fs::remove_file(&p_full);
    let full_cache = SweepCache::new();
    let _ = cached(&full_cache).run::<Maintenance>(grid(7));
    let mut full_store = SweepStore::open(&p_full).unwrap();
    full_store.absorb(&full_cache);
    full_store.save().unwrap();

    assert_eq!(
        std::fs::read(&p_merged).unwrap(),
        std::fs::read(&p_full).unwrap(),
        "merged shard stores must serialize byte-identically to the unsharded store"
    );
    for p in [&p_a, &p_b, &p_merged, &p_full] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn shard_stores_hydrate_other_shards() {
    // Cross-machine flow: shard 1 benefits from shard 0's store when the
    // grids overlap (here: identical grids, complementary shards — no
    // overlap, so no hits; then a full pass over the merged store hits
    // everything).
    let p = tmp("cross");
    let _ = std::fs::remove_file(&p);
    for k in 0..2 {
        let mut disk = DiskSweepCache::open(&p).unwrap();
        let _ = SweepRequest::new()
            .shard(Shard::new(k, 2))
            .cached(disk.cache())
            .run::<Maintenance>(grid(5));
        disk.persist().unwrap();
    }
    let disk = DiskSweepCache::open(&p).unwrap();
    let _ = cached(disk.cache()).run::<Maintenance>(grid(5));
    assert_eq!(disk.cache().hits(), 5);
    assert_eq!(disk.cache().misses(), 0);
    let _ = std::fs::remove_file(&p);
}
