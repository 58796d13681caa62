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
//! sketch fixture never exercises.
//!
//! Regenerate deliberately (after an intentional format change, with
//! the engine version bumped) via:
//!
//! ```text
//! WL_UPDATE_GOLDEN=1 cargo test -p wl-harness --test sketch_store_golden
//! ```
//!

use std::path::{Path, PathBuf};
use wl_core::Params;
use wl_harness::cache::segment::{
    write_file, EncodedRecord, FILE_HEADER_LEN, PACKED_SEGMENT_HEADER_LEN, SEGMENT_HEADER_LEN,
    SEGMENT_MAGIC, SEGMENT_MAGIC_PACKED, TAG_SERIES,
};
use wl_harness::{
    derive_seed, store_report, Capture, DelayKind, Maintenance, ScenarioSpec, SrikanthToueg,
    StoreFormat, SweepCache, SweepRequest, SweepStore, ENGINE_VERSION,
};
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
/// returns the populated store (unsaved, format unset).
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
