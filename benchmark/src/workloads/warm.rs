//! `warm_sweep`: a stored grid re-run with zero simulations.
//!
//! Spec canon + hash, the in-memory tier lookup and the segment decode
//! behind `DiskSweepCache::open` do all the work; the event loop does
//! none. A change to the event loop must show no movement here.

use super::{segment_ladder, spec_ladder};
use crate::common::{
    file_len, measure, median_rate, peak_rss_mb, print_budget, ratio, read_records, secs,
    simulate_store, trace_pairs, Ctx, Scratch, Sizes, Tally,
};
use crate::grids;
use crate::stats::median;
use crate::trace::Recorder;
use std::hint::black_box;
use std::path::PathBuf;
use wl_harness::{
    Capture, DiskSweepCache, Maintenance, ScenarioSpec, SweepOutcome, SweepRequest, SweepStore,
};

/// Warm sweeps of the whole grid per pass, between one open and one
/// persist: the sweep is the cheapest of the three phases per record.
const WARM_REPS: usize = 8;

/// Times the traced ladder walks each composite call and its parts.
const LADDER_REPS: usize = 3;

pub struct Setup {
    path: PathBuf,
    /// The grid in its seeded-shuffled lookup order.
    shuffled: Vec<ScenarioSpec>,
    /// The set-up run's outcome for each shuffled position, re-indexed
    /// to that position.
    expected: Vec<SweepOutcome>,
    store_bytes: Vec<u8>,
}

struct Pass {
    open_s: f64,
    warm_s: Vec<f64>,
    persist_s: f64,
    hits: u64,
    misses: u64,
}

fn build(sizes: &Sizes, seed: u64, scratch: &Scratch) -> Setup {
    let grid = grids::small(seed, sizes.store);
    let path = scratch.path("warm.wls");
    let outcomes = simulate_store(&grid, &path);
    let order = grids::shuffled(seed, grid.len());
    let expected = order
        .iter()
        .enumerate()
        .map(|(position, &i)| {
            let mut outcome = outcomes[i].clone();
            outcome.index = position;
            outcome
        })
        .collect();
    Setup {
        shuffled: order.iter().map(|&i| grid[i].clone()).collect(),
        expected,
        store_bytes: std::fs::read(&path).expect("read warm store"),
        path,
    }
}

fn pass(setup: &Setup, tally: &mut Tally, rec: &mut Recorder) -> Pass {
    let n = setup.shuffled.len();
    let (mut disk, open_s) = secs(|| {
        rec.time("warm.open", 0, || DiskSweepCache::open(&setup.path))
            .expect("open warm store")
    });
    tally.check(
        disk.store().len() == n,
        n,
        "warm_sweep: the store opens with every record",
    );

    let mut warm_s = Vec::with_capacity(WARM_REPS);
    for rep in 0..WARM_REPS {
        let grid = setup.shuffled.clone();
        let (outcomes, s) = secs(|| {
            rec.time("sweep.run", rep, || {
                SweepRequest::new()
                    .threads(1)
                    .capture(Capture::Sketch)
                    .cached(disk.cache())
                    .expect_misses(0)
                    .run::<Maintenance>(grid)
            })
        });
        warm_s.push(s);
        let identical = outcomes.len() == n
            && outcomes
                .iter()
                .zip(&setup.expected)
                .all(|(got, want)| got.bit_identical(want));
        tally.check(
            identical,
            n,
            "warm_sweep: every warm outcome is bit-identical to the set-up run's",
        );
    }
    let (hits, misses) = (disk.cache().hits(), disk.cache().misses());
    tally.check(misses == 0, 1, "warm_sweep: zero cache misses");

    let (_, persist_s) = secs(|| {
        rec.time("warm.persist", 0, || disk.persist())
            .expect("persist warm store")
    });
    tally.check(
        std::fs::read(&setup.path).is_ok_and(|bytes| bytes == setup.store_bytes),
        1,
        "warm_sweep: persisting a warm run leaves the store bytes unchanged",
    );
    Pass {
        open_s,
        warm_s,
        persist_s,
        hits,
        misses,
    }
}

pub fn run(ctx: &mut Ctx) {
    let (sizes, seed) = (ctx.sizes, ctx.seed);
    let setup = ctx.setup(|scratch| build(&sizes, seed, scratch));
    if ctx.trace {
        return traced(ctx, &setup);
    }
    let n = setup.shuffled.len();
    let passes = measure(ctx.seconds, &mut ctx.tally, |tally, rec| {
        pass(&setup, tally, rec)
    });

    let m = &mut ctx.metrics;
    m.set(
        "points_per_s",
        median_rate(
            n,
            passes
                .iter()
                .flat_map(|t| t.pass.warm_s.iter().map(|&s| t.at_reference(s))),
        ),
    );
    m.set(
        "load_points_per_s",
        median_rate(n, passes.iter().map(|t| t.at_reference(t.pass.open_s))),
    );
    m.set(
        "save_points_per_s",
        median_rate(n, passes.iter().map(|t| t.at_reference(t.pass.persist_s))),
    );
    m.set(
        "store_bytes_per_point",
        setup.store_bytes.len() as f64 / n as f64,
    );
    m.set("peak_rss_mb", peak_rss_mb());
}

fn traced(ctx: &mut Ctx, setup: &Setup) {
    let n = setup.shuffled.len() as f64;
    let tally = &mut ctx.tally;
    let (traced, mut rec, traced_s, untraced_s) = trace_pairs(
        "warm_sweep",
        |rec| pass(setup, tally, rec),
        |p| p.open_s + p.warm_s.iter().sum::<f64>() + p.persist_s,
    );

    let m = &mut ctx.metrics;
    spec_ladder(&mut rec, &setup.shuffled, m);

    // Each composite call first, then at once its public parts, three
    // times over: `DiskSweepCache::open` against `SweepStore::open` +
    // `hydrate`; `persist` against absorb, re-read of the file (for
    // records other processes added), adopt, save. Medians of the three.
    for rep in 0..LADDER_REPS {
        let mut disk = rec
            .time("ladder.open", rep, || DiskSweepCache::open(&setup.path))
            .expect("open warm store");
        let grid = setup.shuffled.clone();
        rec.time("ladder.sweep", rep, || {
            black_box(
                SweepRequest::new()
                    .threads(1)
                    .capture(Capture::Sketch)
                    .cached(disk.cache())
                    .run::<Maintenance>(grid),
            )
        });
        rec.time("ladder.persist", rep, || disk.persist())
            .expect("persist warm store");

        let mut store = rec
            .time("cache.open", rep, || SweepStore::open(&setup.path))
            .expect("open warm store");
        let cache = rec.time("cache.hydrate", rep, || store.hydrate());
        rec.time("persist.absorb", rep, || store.absorb(&cache));
        let on_disk = rec
            .time("persist.reopen", rep, || SweepStore::open(&setup.path))
            .expect("re-open warm store");
        rec.time("persist.adopt", rep, || store.adopt_missing_from(&on_disk));
        rec.time("persist.save", rep, || store.save())
            .expect("save warm store");
    }

    segment_ladder(&mut rec, &read_records(&setup.path), &setup.store_bytes, m);

    // Per record; the spec rungs are one span over the grid each.
    let per = |name: &str| median(&rec.durations_us(name)) / n;
    let warm_point = per("ladder.sweep");
    let lookup_self = warm_point - per("spec.canon") - per("spec.hash");
    // One open, one warm sweep, one persist.
    let point_us = per("ladder.open") + warm_point + per("ladder.persist");
    let layers = [
        ("cache.open", per("cache.open")),
        ("cache.hydrate", per("cache.hydrate")),
        ("spec.canon", per("spec.canon")),
        ("spec.hash", per("spec.hash")),
        ("sweep.lookup self", lookup_self),
        ("persist: cache.absorb", per("persist.absorb")),
        ("persist: cache.open", per("persist.reopen")),
        ("persist: adopt_missing_from", per("persist.adopt")),
        ("persist: cache.save", per("persist.save")),
    ];
    let residual = point_us - layers.iter().map(|(_, us)| us).sum::<f64>();

    m.set("sweep.warm_point_us", warm_point);
    m.set("sweep.lookup_self_us", lookup_self);
    m.set("sweep.hits", traced.hits as f64);
    m.set("sweep.misses", traced.misses as f64);
    m.set("cache.open_us", per("cache.open"));
    m.set("cache.hydrate_us", per("cache.hydrate"));
    m.set("cache.absorb_us", per("persist.absorb"));
    m.set("cache.save_us", per("persist.save"));
    m.set("cache.persist_noop_us", per("ladder.persist"));
    m.set("cache.bytes_written", file_len(&setup.path) as f64);
    m.set("residual.warm_us", residual);
    m.set("residual.warm_share", ratio(residual, point_us));
    print_budget(
        "warm_sweep",
        "record (open + sweep + persist)",
        point_us,
        &layers,
    );
    ctx.finish_trace(&rec, traced_s, untraced_s);
}
