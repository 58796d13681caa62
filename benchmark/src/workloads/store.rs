//! `store_fold`: four shard stores opened, merged, reported and re-saved.
//!
//! The same store layer as `warm_sweep`, used the other way: writes
//! (encode, compress, pack) beside reads (unpack, sketch merge). A codec
//! change that buys one at the other's cost, or bytes for time, shows
//! here because all three are reported.

use super::{segment_ladder, wlz_ladder};
use crate::common::{
    binary_store, file_len, measure, median_rate, peak_rss_mb, ratio, read_records, secs,
    simulate_store, trace_pairs, Ctx, Scratch, Sizes, Tally, BATCH,
};
use crate::grids;
use crate::trace::Recorder;
use std::path::{Path, PathBuf};
use std::time::Instant;
use wl_harness::cache::segment::{write_file, EncodedRecord, DEFAULT_SEGMENT_CAPACITY};
use wl_harness::{store_report, SkewSketch, StoreFormat, SweepOutcome, SweepStore};

const SHARDS: usize = 4;

/// Appended 64-record checkpoints the traced ladder times.
const CHECKPOINTS: usize = 8;

pub struct Setup {
    full: PathBuf,
    shards: Vec<PathBuf>,
    records: Vec<EncodedRecord>,
    outcomes: Vec<SweepOutcome>,
    /// `store_report` of the one-process store.
    report: String,
    full_bytes: Vec<u8>,
}

struct Pass {
    open_s: f64,
    fold_s: f64,
    save_s: f64,
}

/// Writes `records` as the binary store file a save of them would be.
fn write_store<'a>(path: &Path, records: impl IntoIterator<Item = &'a EncodedRecord>) {
    std::fs::write(path, write_file(records, DEFAULT_SEGMENT_CAPACITY)).expect("write store file");
}

fn build(sizes: &Sizes, seed: u64, scratch: &Scratch) -> Setup {
    let grid = grids::small(seed, sizes.store);
    let full = scratch.path("fold-full.wls");
    let outcomes = simulate_store(&grid, &full);
    let records = read_records(&full);
    // The one-process store's records dealt round-robin into four shard
    // files; a saved store is sorted by key, and so is every fourth of it.
    let shards: Vec<PathBuf> = (0..SHARDS)
        .map(|k| {
            let path = scratch.path(&format!("fold-shard{k}.wls"));
            write_store(&path, records.iter().skip(k).step_by(SHARDS));
            path
        })
        .collect();
    let report = store_report(&SweepStore::open(&full).expect("open full store"));
    Setup {
        full_bytes: std::fs::read(&full).expect("read full store"),
        full,
        shards,
        records,
        outcomes,
        report,
    }
}

fn pass(
    setup: &Setup,
    scratch: &Scratch,
    tally: &mut Tally,
    rec: &mut Recorder,
    deep_check: bool,
) -> Pass {
    let n = setup.records.len();
    let out = scratch.path("fold-merged.wls");
    let started = Instant::now();
    let stores: Vec<SweepStore> = setup
        .shards
        .iter()
        .enumerate()
        .map(|(k, path)| {
            rec.time("cache.open", k, || SweepStore::open(path))
                .expect("open shard store")
        })
        .collect();
    let open_s = started.elapsed().as_secs_f64();
    let mut merged = binary_store();
    for (k, store) in stores.iter().enumerate() {
        rec.time("cache.merge", k, || merged.merge_from(store))
            .expect("shard stores agree");
    }
    let report = rec.time("sketch.report", 0, || store_report(&merged));
    let fold_s = started.elapsed().as_secs_f64();
    // The shard stores are done with; the save should not carry them.
    drop(stores);
    tally.check(
        report == setup.report,
        n,
        "store_fold: the four-shard fold reports exactly what the one-process store reports",
    );

    let (_, save_s) = secs(|| {
        rec.time("cache.save", 0, || merged.save_to(&out))
            .expect("save merged store")
    });
    let saved = std::fs::read(&out).expect("read merged store");
    tally.check(
        saved == setup.full_bytes,
        n,
        "store_fold: the merged store is byte-identical to the one-process store",
    );
    if deep_check {
        let again = scratch.path("fold-again.wls");
        SweepStore::open(&out)
            .and_then(|s| s.save_to(&again))
            .expect("re-save merged store");
        tally.check(
            std::fs::read(&again).is_ok_and(|bytes| bytes == saved),
            n,
            "store_fold: save, open, save is byte-stable",
        );
    }
    Pass {
        open_s,
        fold_s,
        save_s,
    }
}

pub fn run(ctx: &mut Ctx) {
    let (sizes, seed) = (ctx.sizes, ctx.seed);
    let setup = ctx.setup(|scratch| build(&sizes, seed, scratch));
    if ctx.trace {
        return traced(ctx, &setup);
    }
    let n = setup.records.len();
    let scratch = &ctx.scratch;
    let mut first = true;
    let passes = measure(ctx.seconds, &mut ctx.tally, |tally, rec| {
        let deep_check = std::mem::take(&mut first);
        pass(&setup, scratch, tally, rec, deep_check)
    });
    let m = &mut ctx.metrics;
    m.set(
        "points_per_s",
        median_rate(n, passes.iter().map(|t| t.at_reference(t.pass.fold_s))),
    );
    m.set(
        "load_points_per_s",
        median_rate(n, passes.iter().map(|t| t.at_reference(t.pass.open_s))),
    );
    m.set(
        "save_points_per_s",
        median_rate(n, passes.iter().map(|t| t.at_reference(t.pass.save_s))),
    );
    m.set(
        "store_bytes_per_point",
        setup.full_bytes.len() as f64 / n as f64,
    );
    m.set("peak_rss_mb", peak_rss_mb());
}

/// Microseconds per entry of absorbing the cache hydrated from the
/// first `len` records into an empty store.
fn absorb_us_per_entry(scratch: &Scratch, records: &[EncodedRecord], len: usize) -> f64 {
    let path = scratch.path("fold-absorb.wls");
    write_store(&path, &records[..len]);
    let cache = SweepStore::open(&path)
        .expect("open absorb store")
        .hydrate();
    let mut store = SweepStore::new();
    let (absorbed, s) = secs(|| store.absorb(&cache));
    assert_eq!(absorbed, len);
    s * 1e6 / len as f64
}

fn traced(ctx: &mut Ctx, setup: &Setup) {
    let n = setup.records.len();
    let (scratch, tally) = (&ctx.scratch, &mut ctx.tally);
    let (_, mut rec, traced_s, untraced_s) = trace_pairs(
        "store_fold",
        |rec| pass(setup, scratch, tally, rec, false),
        |p| p.fold_s + p.save_s,
    );
    let m = &mut ctx.metrics;

    segment_ladder(&mut rec, &setup.records, &setup.full_bytes, m);
    wlz_ladder(&mut rec, &setup.records, m);

    // Sketch merge: every point's sketch folded into one, as the report
    // does per algorithm family.
    let mut fleet = SkewSketch::new();
    rec.time("sketch.merge", 0, || {
        for outcome in &setup.outcomes {
            fleet.merge(outcome.sketch.as_ref().expect("sketch capture"));
        }
    });

    // The text format, for the one row that still measures it.
    let mut store = SweepStore::open(&setup.full).expect("open full store");
    store.set_format(StoreFormat::Text);
    let text = ctx.scratch.path("fold-text.wls");
    rec.time("cache.save_text", 0, || store.save_to(&text))
        .expect("save text store");

    // Appended checkpoints: a store holding all but the last 8 x 64
    // records takes them in 64-record merges, one checkpoint each.
    let tail = (CHECKPOINTS * BATCH).min(n / 2);
    let base = ctx.scratch.path("fold-base.wls");
    write_store(&base, &setup.records[..n - tail]);
    let base_len = file_len(&base);
    let mut live = SweepStore::open(&base).expect("open base store");
    for (i, batch) in setup.records[n - tail..].chunks(BATCH).enumerate() {
        let delta_path = ctx.scratch.path("fold-delta.wls");
        write_store(&delta_path, batch);
        let delta = SweepStore::open(&delta_path).expect("open delta store");
        rec.time("cache.checkpoint", i, || {
            live.merge_from(&delta).expect("delta records are new");
            live.checkpoint()
        })
        .expect("append checkpoint");
    }
    let appended = file_len(&base) - base_len;
    let canonical = setup.full_bytes.len() as u64 - base_len;
    rec.count("cache.checkpoint_bytes", appended);
    rec.count("sketch.samples", fleet.count);

    let absorb_full = absorb_us_per_entry(&ctx.scratch, &setup.records, n);
    let absorb_small = absorb_us_per_entry(&ctx.scratch, &setup.records, (n / 16).max(1));

    let per = |name: &str| rec.total_us(name) / n as f64;
    m.set("sketch.merge_us", per("sketch.merge"));
    m.set("sketch.report_us", per("sketch.report"));
    m.set("sketch.samples", fleet.count as f64);
    m.set("cache.open_us", per("cache.open"));
    m.set("cache.merge_us", per("cache.merge"));
    m.set("cache.save_us", per("cache.save"));
    m.set("cache.save_text_us", per("cache.save_text"));
    m.set("cache.checkpoint_us", rec.mean_us("cache.checkpoint"));
    m.set("cache.absorb_us", absorb_full);
    m.set(
        "cache.absorb_growth_ratio",
        ratio(absorb_full, absorb_small),
    );
    m.set("cache.bytes_written", setup.full_bytes.len() as f64);
    m.set("cache.write_amp", ratio(appended as f64, canonical as f64));
    ctx.finish_trace(&rec, traced_s, untraced_s);
}
