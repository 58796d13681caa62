//! Golden-fixture pinning of the v5 sketch store formats and the
//! `sweep_stats` transcript.
//!
//! The fixtures under `tests/fixtures/` are a frozen sketch-capture
//! store in both on-disk formats plus the exact `store_report` text
//! they produce. Checked in, they pin three things at once:
//!
//! 1. **serialization** — a sketch sweep re-run today must save stores
//!    byte-identical to the frozen files (any drift in the canon
//!    grammar, tag bytes, segment framing, or sketch arithmetic shows
//!    up as a diff here first);
//! 2. **load compatibility** — the frozen files must keep loading as
//!    live records under the current [`ENGINE_VERSION`], serving a warm
//!    sweep with zero misses;
//! 3. **reporting** — `store_report` over the frozen records must stay
//!    character-identical, because CI `cmp`s its output across shard
//!    counts and machines.
//!
//! Beside them, `series-store.wlsb` pins the binary writer's plain
//! segments — per-record framing and checksums — which the packed
//! sketch fixture never exercises, and `faulted-store.wlsb` pins the
//! executions of fleets with faulty, rejoining and adversary members,
//! which every other fixture's fault-free grid never builds.
//! `sweep-stats-series.golden` pins the `store_report` text of the
//! series fixtures.
//!
//! Regenerate deliberately (after an intentional format change, with
//! the engine version bumped) via:
//!
//! ```text
//! WL_UPDATE_GOLDEN=1 cargo test -p wl-harness --test sketch_store_golden
//! ```
//!

use std::path::{Path, PathBuf};
use wl_clock::drift::DriftModel;
use wl_core::Params;
use wl_harness::cache::segment::{
    write_file, EncodedRecord, FILE_HEADER_LEN, PACKED_SEGMENT_HEADER_LEN, SEGMENT_HEADER_LEN,
    SEGMENT_MAGIC, SEGMENT_MAGIC_PACKED, TAG_SERIES,
};
use wl_harness::{
    derive_seed, store_report, AdversarySpec, AdversaryStrategy, Capture, DelayKind, FaultKind,
    LmCnv, MahaneySchneider, Maintenance, Rejoiner, ScenarioSpec, SrikanthToueg, Startup,
    StoreFormat, SweepCache, SweepOutcome, SweepRequest, SweepStore, SyncAlgorithm, ENGINE_VERSION,
};
use wl_sim::ProcessId;
use wl_time::RealTime;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// The frozen grid: two algorithm families over three delay models, so
/// the report exercises multi-family grouping and distinct γ bounds.
fn fixture_grid() -> Vec<ScenarioSpec> {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let delays = [
        DelayKind::Constant,
        DelayKind::Uniform,
        DelayKind::AdversarialSplit,
    ];
    (0..6)
        .map(|i| {
            ScenarioSpec::new(params.clone())
                .seed(derive_seed(0x601D_F11E, i as u64))
                .delay(delays[i % 3])
                .t_end(RealTime::from_secs(1.5))
        })
        .collect()
}

/// Runs the fixture grid in sketch-capture mode under both families and
/// returns the populated store (unsaved).
fn built_store() -> SweepStore {
    let cache = SweepCache::new();
    let _ = SweepRequest::new()
        .threads(1)
        .cached(&cache)
        .capture(Capture::Sketch)
        .run::<Maintenance>(fixture_grid());
    let _ = SweepRequest::new()
        .threads(1)
        .cached(&cache)
        .capture(Capture::Sketch)
        .run::<SrikanthToueg>(fixture_grid());
    let mut store = SweepStore::new();
    store.absorb(&cache);
    store
}

fn save_bytes(format: StoreFormat) -> Vec<u8> {
    save_store(built_store(), format, "sketch")
}

/// `store`'s bytes as saved in `format`, through a temp file named
/// after `name` (the tests in this file run concurrently).
fn save_store(mut store: SweepStore, format: StoreFormat, name: &str) -> Vec<u8> {
    store.set_format(format);
    let path = std::env::temp_dir().join(format!(
        "wl-golden-{}-{name}-{format}.wls",
        std::process::id()
    ));
    store.save_to(&path).expect("save fixture candidate");
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn sketch_store_and_stats_report_match_golden_fixtures() {
    let dir = fixture_dir();
    let text_path = dir.join("sketch-store.wls");
    let binary_path = dir.join("sketch-store.wlsb");
    let report_path = dir.join("sweep-stats.golden");

    let text = save_bytes(StoreFormat::Text);
    let binary = save_bytes(StoreFormat::Binary);
    let report = store_report(&built_store());

    if std::env::var("WL_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&text_path, &text).unwrap();
        std::fs::write(&binary_path, &binary).unwrap();
        std::fs::write(&report_path, &report).unwrap();
        eprintln!("golden fixtures regenerated under {}", dir.display());
    }

    // 1. Serialization: today's engine reproduces the frozen bytes.
    assert_eq!(
        std::fs::read(&text_path).expect("checked-in text fixture"),
        text,
        "text sketch store drifted from the golden fixture \
         (intentional? regenerate with WL_UPDATE_GOLDEN=1 and bump ENGINE_VERSION)"
    );
    assert_eq!(
        std::fs::read(&binary_path).expect("checked-in binary fixture"),
        binary,
        "binary sketch store drifted from the golden fixture"
    );

    // 2. Load compatibility: the frozen files hold 12 live sketch
    //    records and serve a warm sketch-need sweep without simulating.
    for path in [&text_path, &binary_path] {
        let frozen = SweepStore::open(path).unwrap();
        assert_eq!(frozen.len(), 12);
        assert_eq!(frozen.stale_records(), 0);
        assert_eq!(frozen.skipped_lines(), 0);
        let cache = frozen.hydrate();
        let _ = SweepRequest::new()
            .threads(1)
            .cached(&cache)
            .capture(Capture::Sketch)
            .expect_misses(0)
            .run::<Maintenance>(fixture_grid());
        assert_eq!(cache.misses(), 0, "frozen store must serve the grid warm");

        // 3. Reporting: character-identical from either format.
        let golden = std::fs::read_to_string(&report_path).expect("checked-in golden report");
        assert_eq!(
            store_report(&frozen),
            golden,
            "sweep_stats transcript drifted from the golden fixture"
        );
    }
}

/// Text is an import/export layout, pinned by the two fixtures as they
/// stand: the text fixture opened and saved is the binary fixture, the
/// binary fixture exported is the text fixture, and a store opened from
/// text checkpoints as that binary file too.
#[test]
fn text_fixture_imports_as_the_binary_fixture_and_exports_back() {
    let text_path = fixture_dir().join("sketch-store.wls");
    let binary_path = fixture_dir().join("sketch-store.wlsb");
    let text = std::fs::read(&text_path).expect("checked-in text fixture");
    let binary = std::fs::read(&binary_path).expect("checked-in binary fixture");
    let tmp = |name: &str| {
        std::env::temp_dir().join(format!("wl-golden-{}-{name}.wls", std::process::id()))
    };

    // Import, on a copy: the fixture itself is never rewritten.
    let imported = tmp("imported");
    std::fs::write(&imported, &text).unwrap();
    SweepStore::open(&imported).unwrap().save().unwrap();
    assert_eq!(std::fs::read(&imported).unwrap(), binary, "import");

    let exported = tmp("exported");
    SweepStore::migrate(&binary_path, &exported, StoreFormat::Text).unwrap();
    assert_eq!(std::fs::read(&exported).unwrap(), text, "export");

    let checkpointed = tmp("checkpointed");
    std::fs::write(&checkpointed, &text).unwrap();
    let mut store = SweepStore::open(&checkpointed).unwrap();
    assert_eq!(store.checkpoint().unwrap(), 0, "nothing new to flush");
    assert_eq!(std::fs::read(&checkpointed).unwrap(), binary, "checkpoint");
    let reloaded = SweepStore::open(&checkpointed).unwrap();
    assert_eq!((reloaded.len(), reloaded.skipped_lines()), (12, 0));
    for path in [imported, exported, checkpointed] {
        let _ = std::fs::remove_file(path);
    }
}

/// The magic of every segment in a binary store file, in file order,
/// walked header to header (a scan for the magic bytes could match
/// inside a compressed block).
fn segment_magics(file: &[u8]) -> Vec<[u8; 4]> {
    let u32_at = |at: usize| u32::from_le_bytes(file[at..at + 4].try_into().unwrap()) as usize;
    let mut magics = Vec::new();
    let mut at = FILE_HEADER_LEN;
    while at < file.len() {
        let magic: [u8; 4] = file[at..at + 4].try_into().unwrap();
        let header = match magic {
            SEGMENT_MAGIC => SEGMENT_HEADER_LEN,
            SEGMENT_MAGIC_PACKED => PACKED_SEGMENT_HEADER_LEN,
            other => panic!("no segment magic at byte {at}: {other:?}"),
        };
        magics.push(magic);
        at += header + u32_at(at + 12);
    }
    assert_eq!(at, file.len(), "the last segment ends the file");
    magics
}

/// Records a store keeps from an older engine: retained verbatim,
/// their outcome grammar never parsed. Their payloads are pseudo-random
/// text with no lowercase hex, which no codec shrinks — the one kind of
/// record a writer keeps in a plain segment, since canonical text,
/// series included, always packs smaller.
fn stale_noise_records() -> Vec<EncodedRecord> {
    const ALPHABET: &[u8] = b"GHIJKLMNOPQRSTUVWXYZ!#%-_+ghijk";
    let mut x = 0x57A1_E0F0_57A1_E0F1u64;
    let mut noise = |len: usize| -> String {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ALPHABET[(x >> 58) as usize % ALPHABET.len()] as char
            })
            .collect()
    };
    (0..3)
        .map(|i| EncodedRecord {
            tag: TAG_SERIES,
            content_hash: derive_seed(0x57A1_E000, i),
            engine_version: ENGINE_VERSION - 1,
            algo: "wl-maintenance".into(),
            spec_canon: noise(300),
            outcome_canon: noise(600),
        })
        .collect()
}

/// The plain-segment path, pinned. The sketch fixture above is one
/// packed (`WSGZ`) segment, so it never writes a record's own framing
/// or checksum; this one is a series-capture binary store over the same
/// grid, written one record per segment (capacity 1, adopted from the
/// file it was opened from) beside three stale-engine records that stay
/// plain (`WSEG`). Its live series records pack.
#[test]
fn series_store_matches_golden_fixture() {
    let path = fixture_dir().join("series-store.wlsb");
    let stale = std::env::temp_dir().join(format!("wl-golden-{}-stale.wlsb", std::process::id()));
    std::fs::write(&stale, write_file(&stale_noise_records(), 1)).unwrap();
    let mut store = SweepStore::open(&stale).unwrap();
    let _ = std::fs::remove_file(&stale);
    let cache = SweepCache::new();
    let _ = SweepRequest::new()
        .threads(1)
        .cached(&cache)
        .capture(Capture::Series)
        .run::<Maintenance>(fixture_grid());
    store.absorb(&cache);
    let binary = save_store(store, StoreFormat::Binary, "series");

    if std::env::var("WL_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &binary).unwrap();
        eprintln!("golden fixture regenerated at {}", path.display());
    }

    let frozen = std::fs::read(&path).expect("checked-in series fixture");
    let magics = segment_magics(&frozen);
    assert_eq!(magics.len(), 9, "one segment per record");
    assert!(
        magics.contains(&SEGMENT_MAGIC) && magics.contains(&SEGMENT_MAGIC_PACKED),
        "the series fixture must hold plain and packed segments: {magics:?}"
    );
    assert_eq!(
        frozen, binary,
        "binary series store drifted from the golden fixture"
    );
    let loaded = SweepStore::open(&path).unwrap();
    assert_eq!(
        (loaded.len(), loaded.stale_records(), loaded.skipped_lines()),
        (6, 3, 0)
    );
    // Saved again as loaded, the file is byte-identical.
    assert_eq!(
        save_store(loaded, StoreFormat::Binary, "series-resave"),
        frozen
    );
}

/// A series-capture grid on wandering clocks: four points at `n = 4`
/// over three delay models, each clock a `RandomPiecewise` drift. Two
/// points re-draw their rate every capture-grid step, so every grid
/// instant is also a segment start; two re-draw at an unaligned length
/// and stop re-drawing before the horizon. Every other fixture runs the
/// default `Split` drift, whose clocks are all linear.
fn piecewise_grid() -> Vec<ScenarioSpec> {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let rho = params.rho;
    let aligned = params.p_round / 10.0;
    let delays = [
        DelayKind::Constant,
        DelayKind::Uniform,
        DelayKind::AdversarialSplit,
    ];
    (0..4)
        .map(|i| {
            let (segment_secs, horizon_secs) = if i % 2 == 0 {
                (aligned, 1.5)
            } else {
                (0.0731, 1.1)
            };
            ScenarioSpec::new(params.clone())
                .seed(derive_seed(0x9_1ECE, i as u64))
                .delay(delays[i % 3])
                .drift(DriftModel::RandomPiecewise {
                    rho,
                    segment_secs,
                    horizon_secs,
                })
                .t_end(RealTime::from_secs(1.5))
        })
        .collect()
}

/// The piecewise-clock path, pinned: a series store of
/// [`piecewise_grid`] is the checked-in `piecewise-store.wlsb`, byte
/// for byte, and loads back as four live records.
#[test]
fn piecewise_series_store_matches_golden_fixture() {
    let path = fixture_dir().join("piecewise-store.wlsb");
    let cache = SweepCache::new();
    let _ = SweepRequest::new()
        .threads(1)
        .cached(&cache)
        .capture(Capture::Series)
        .run::<Maintenance>(piecewise_grid());
    let mut store = SweepStore::new();
    store.absorb(&cache);
    let binary = save_store(store, StoreFormat::Binary, "piecewise");

    if std::env::var("WL_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &binary).unwrap();
        eprintln!("golden fixture regenerated at {}", path.display());
    }

    let frozen = std::fs::read(&path).expect("checked-in piecewise fixture");
    assert_eq!(
        frozen, binary,
        "piecewise series store drifted from the golden fixture"
    );
    let loaded = SweepStore::open(&path).unwrap();
    assert_eq!(
        (loaded.len(), loaded.stale_records(), loaded.skipped_lines()),
        (4, 0, 0)
    );
}

/// Series-captures `specs` under `A` into `cache`, serially.
fn capture_into<A: SyncAlgorithm>(
    cache: &SweepCache,
    specs: Vec<ScenarioSpec>,
) -> Vec<SweepOutcome> {
    SweepRequest::new()
        .threads(1)
        .cached(cache)
        .capture(Capture::Series)
        .run::<A>(specs)
}

/// One series-capture point per kind of mixed fleet: Maintenance under
/// each of the six fault kinds, with a rejoiner (as `Maintenance` and
/// as `Rejoiner`) and with a churning adversary member; `Startup` with a
/// silent process; and each §10 baseline with a silent and with a
/// two-faced process — 16 records.
fn faulted_store() -> SweepStore {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let p = ProcessId(0);
    let point = |i: u64, spec: ScenarioSpec| {
        spec.seed(derive_seed(0xFA_17ED, i))
            .t_end(RealTime::from_secs(2.0))
    };
    let base = |i: u64| point(i, ScenarioSpec::new(params.clone()));
    let rejoining = base(6).rejoiner(ProcessId(2), RealTime::from_secs(1.0));
    let churn = AdversaryStrategy::Churn { up: 1.0, down: 0.5 };

    let cache = SweepCache::new();
    let mut maintenance: Vec<ScenarioSpec> = [
        FaultKind::CrashAt(1.0),
        FaultKind::Silent,
        FaultKind::RoundSpam,
        FaultKind::PullApart(0.002),
        FaultKind::PullApartHigh(0.002),
        FaultKind::TwoFaced(0.002),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, kind)| base(i as u64).fault(p, kind))
    .collect();
    maintenance.push(rejoining.clone());
    maintenance.push(base(7).adversary(AdversarySpec::new(vec![p], churn)));
    capture_into::<Maintenance>(&cache, maintenance);
    capture_into::<Rejoiner>(&cache, vec![rejoining]);

    let sp = wl_core::StartupParams::new(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let cold = point(8, ScenarioSpec::startup(&sp, 5.0)).fault(p, FaultKind::Silent);
    capture_into::<Startup>(&cache, vec![cold]);

    let baseline = || {
        [FaultKind::Silent, FaultKind::TwoFaced(0.002)]
            .into_iter()
            .enumerate()
            .map(|(i, kind)| base(9 + i as u64).fault(p, kind))
            .collect::<Vec<_>>()
    };
    capture_into::<LmCnv>(&cache, baseline());
    capture_into::<MahaneySchneider>(&cache, baseline());
    capture_into::<SrikanthToueg>(&cache, baseline());

    let mut store = SweepStore::new();
    store.absorb(&cache);
    store
}

/// The faulted fleets, pinned: a series store of [`faulted_store`] is
/// the checked-in `faulted-store.wlsb`, byte for byte, and loads back as
/// sixteen live records.
#[test]
fn faulted_series_store_matches_golden_fixture() {
    let path = fixture_dir().join("faulted-store.wlsb");
    let binary = save_store(faulted_store(), StoreFormat::Binary, "faulted");

    if std::env::var("WL_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &binary).unwrap();
        eprintln!("golden fixture regenerated at {}", path.display());
    }

    let frozen = std::fs::read(&path).expect("checked-in faulted fixture");
    assert_eq!(
        frozen, binary,
        "faulted series store drifted from the golden fixture"
    );
    let loaded = SweepStore::open(&path).unwrap();
    assert_eq!(
        (loaded.len(), loaded.stale_records(), loaded.skipped_lines()),
        (16, 0, 0)
    );
}

/// Every built-in strategy (all nine discriminants; both pull-apart
/// orientations), with payloads scaled to the family's β and P — the
/// gallery of `tests/adversary_determinism.rs`.
fn strategy_gallery(params: &Params) -> Vec<AdversaryStrategy> {
    let beta = params.beta;
    vec![
        AdversaryStrategy::Crash { at: 2.0 },
        AdversaryStrategy::Mute,
        AdversaryStrategy::Spam,
        AdversaryStrategy::PullApart {
            amplitude: beta,
            high: false,
        },
        AdversaryStrategy::PullApart {
            amplitude: beta,
            high: true,
        },
        AdversaryStrategy::TwoFacedValue { amplitude: beta },
        AdversaryStrategy::Collude { amplitude: beta },
        AdversaryStrategy::Churn {
            up: 2.0 * params.p_round,
            down: params.p_round,
        },
        AdversaryStrategy::TargetedDelay { victim: 2 },
        AdversaryStrategy::Partition,
    ]
}

/// One series-capture point per adversary realization, captured
/// through `cache`: Maintenance under the whole strategy gallery with
/// member 0, then Srikanth–Toueg (member 0) and LM-CNV (member 1) each
/// under Mute, TwoFacedValue, Churn, TargetedDelay and Partition — 20
/// outcomes, in those three grids.
fn adversary_grids(cache: &SweepCache) -> [Vec<SweepOutcome>; 3] {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let point = |i: u64, member: usize, strategy: AdversaryStrategy| {
        ScenarioSpec::new(params.clone())
            .seed(derive_seed(0xAD_5E75, i))
            .delay(DelayKind::Uniform)
            .adversary(AdversarySpec::new(vec![ProcessId(member)], strategy).seed(7))
            .t_end(RealTime::from_secs(2.0))
    };
    let gallery = strategy_gallery(&params);
    let baseline_strategies = || {
        gallery
            .iter()
            .copied()
            .filter(|s| {
                matches!(
                    s,
                    AdversaryStrategy::Mute
                        | AdversaryStrategy::TwoFacedValue { .. }
                        | AdversaryStrategy::Churn { .. }
                        | AdversaryStrategy::TargetedDelay { .. }
                        | AdversaryStrategy::Partition
                )
            })
            .enumerate()
    };

    let maintenance = gallery
        .iter()
        .enumerate()
        .map(|(i, &s)| point(i as u64, 0, s))
        .collect();
    let st = baseline_strategies()
        .map(|(i, s)| point(10 + i as u64, 0, s))
        .collect();
    let lm = baseline_strategies()
        .map(|(i, s)| point(15 + i as u64, 1, s))
        .collect();
    [
        capture_into::<Maintenance>(cache, maintenance),
        capture_into::<SrikanthToueg>(cache, st),
        capture_into::<LmCnv>(cache, lm),
    ]
}

/// The store of [`adversary_grids`], simulated cold.
fn adversary_store() -> SweepStore {
    let cache = SweepCache::new();
    adversary_grids(&cache);
    let mut store = SweepStore::new();
    store.absorb(&cache);
    store
}

/// Every adversary strategy's executions, pinned: a series store of
/// [`adversary_store`] is the checked-in `adversary-store.wlsb`, byte
/// for byte, and loads back as twenty live records.
#[test]
fn adversary_series_store_matches_golden_fixture() {
    let path = fixture_dir().join("adversary-store.wlsb");
    let binary = save_store(adversary_store(), StoreFormat::Binary, "adversary");

    if std::env::var("WL_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &binary).unwrap();
        eprintln!("golden fixture regenerated at {}", path.display());
    }

    let frozen = std::fs::read(&path).expect("checked-in adversary fixture");
    assert_eq!(
        frozen, binary,
        "adversary series store drifted from the golden fixture"
    );
    let loaded = SweepStore::open(&path).unwrap();
    assert_eq!(
        (loaded.len(), loaded.stale_records(), loaded.skipped_lines()),
        (20, 0, 0)
    );
}

/// The frozen adversary fixture serves its own grids warm: hydrated, it
/// answers all three with zero simulations and, bit for bit, the
/// outcomes a cold run computes. Every Maintenance execution in it (all
/// nine strategies) keeps Theorem 16's γ and the adjustment bound.
#[test]
fn adversary_fixture_serves_its_grids_warm_within_the_bounds() {
    let frozen = SweepStore::open(fixture_dir().join("adversary-store.wlsb"))
        .expect("checked-in adversary fixture");
    let cache = frozen.hydrate();
    let warm = adversary_grids(&cache);
    assert_eq!(
        cache.misses(),
        0,
        "the frozen store must serve its grids warm"
    );
    let cold = adversary_grids(&SweepCache::new());
    for (w, c) in warm.iter().flatten().zip(cold.iter().flatten()) {
        assert!(
            w.bit_identical(c),
            "point {}: warm {w:?} != cold {c:?}",
            c.index
        );
    }
    assert_eq!(warm.iter().flatten().count(), 20);
    for o in &warm[0] {
        assert!(
            o.agreement_holds && o.adjustment_holds,
            "Maintenance point {} broke a bound: {o:?}",
            o.index
        );
    }
}

/// The `sweep_stats` transcript of the four series fixtures, pinned:
/// series-derived sketches, six algorithm families, adversarial specs
/// and piecewise drift — what the sketch fixture's 12 records under
/// one `Params` block never reach. Each store's report follows a
/// `== <file> ==` line, in the order below.
#[test]
fn series_fixture_reports_match_golden() {
    let dir = fixture_dir();
    let path = dir.join("sweep-stats-series.golden");
    let mut report = String::new();
    for name in [
        "faulted-store.wlsb",
        "adversary-store.wlsb",
        "piecewise-store.wlsb",
        "series-store.wlsb",
    ] {
        let store = SweepStore::open(dir.join(name)).expect("checked-in fixture");
        report.push_str(&format!("== {name} ==\n"));
        report.push_str(&store_report(&store));
    }

    if std::env::var("WL_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &report).unwrap();
        eprintln!("golden report regenerated at {}", path.display());
    }

    let golden = std::fs::read_to_string(&path).expect("checked-in golden report");
    assert_eq!(
        report, golden,
        "sweep_stats transcript of the series fixtures drifted from the golden report"
    );
}
