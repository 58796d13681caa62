//! `cold_sweep`: a cold mixed grid simulated to a saved binary store.
//!
//! The event loop that runs the paper's automata, the Theorem-16 checks
//! and the series capture do nearly all the work here and the tier and
//! store layers almost none. The two baseline slices keep a change that
//! only helps the Maintenance automaton from passing as a general gain.

use super::spec_ladder;
use crate::common::{
    binary_store, file_len, measure, median_rate, peak_rss_mb, print_budget, ratio, secs, store_of,
    trace_pairs, Ctx, Scratch, Sizes, Tally,
};
use crate::grids;
use crate::trace::Recorder;
use std::hint::black_box;
use wl_harness::run::{run_capture_enum, run_capture_mono, run_summary_enum, run_summary_mono};
use wl_harness::{
    assemble, assemble_enum, assemble_mono, assemble_mono_null, Capture, LmCnv, Maintenance,
    ScenarioSpec, SkewSketch, SrikanthToueg, SweepAlgorithm, SweepCache, SweepRequest, SweepStore,
    SweepSummary,
};

/// Saves and loads of the pass's store, so the two store metrics are
/// medians of more than one sample per pass.
const SAVE_REPS: usize = 6;
const LOAD_REPS: usize = 32;

/// Leading points the traced ladder walks: a multiple of the grid's
/// shape, delay and fault periods (4, 3, 5), so the sample has the
/// grid's own proportions.
const LADDER_POINTS: usize = 60;

pub struct Setup {
    main: Vec<ScenarioSpec>,
    base: Vec<ScenarioSpec>,
}

impl Setup {
    fn points(&self) -> usize {
        self.main.len() + 2 * self.base.len()
    }
}

/// What one pass measured, and what must repeat exactly across passes.
struct Pass {
    wall_s: f64,
    save_s: Vec<f64>,
    load_s: Vec<f64>,
    events: u64,
    misses: u64,
    store_bytes: Vec<u8>,
}

fn request(cache: &SweepCache) -> SweepRequest<'_> {
    SweepRequest::new()
        .threads(1)
        .capture(Capture::Sketch)
        .cached(cache)
}

fn build(sizes: &Sizes, seed: u64) -> Setup {
    let main = grids::mixed(seed, sizes.cold_main);
    let base = main[..sizes.cold_base].to_vec();
    // Warm-up: first-touch costs (allocator growth, lazy statics) land
    // here, not in the first timed pass.
    let warm = SweepCache::new();
    let _ = request(&warm).run::<Maintenance>(base.clone());
    Setup { main, base }
}

fn pass(setup: &Setup, scratch: &Scratch, tally: &mut Tally, rec: &mut Recorder) -> Pass {
    let path = scratch.path("cold.wls");
    let (main, lm, st) = (setup.main.clone(), setup.base.clone(), setup.base.clone());
    let cache = SweepCache::new();

    let whole = rec.begin("cold.pass", 0);
    let (swept, wall_s) = secs(|| {
        let main = rec.time("sweep.run.maintenance", 0, || {
            request(&cache).run::<Maintenance>(main)
        });
        let lm = rec.time("sweep.run.lm_cnv", 0, || request(&cache).run::<LmCnv>(lm));
        let st = rec.time("sweep.run.srikanth_toueg", 0, || {
            request(&cache).run::<SrikanthToueg>(st)
        });
        let mut store = binary_store();
        rec.time("cache.absorb", 0, || store.absorb(&cache));
        rec.time("cache.save", 0, || store.save_to(&path))
            .expect("save cold store");
        [main, lm, st]
    });
    rec.end(whole);
    let events = swept
        .iter()
        .map(|outcomes| SweepSummary::collect(outcomes).events)
        .sum();
    let outcomes = &swept[0];

    tally.check(
        SweepSummary::collect(outcomes).all_hold(),
        outcomes.len(),
        "cold_sweep: Theorem 16 agreement holds at every Maintenance point",
    );
    tally.attempted += 2 * setup.base.len() as u64;

    let save_s = (0..SAVE_REPS)
        .map(|_| secs(|| store_of(&cache).save_to(&path).expect("save cold store")).1)
        .collect();
    let load_s = (0..LOAD_REPS)
        .map(|_| {
            let (loaded, s) = secs(|| {
                let store = SweepStore::open(&path).expect("open cold store");
                store.hydrate().len()
            });
            tally.check(
                loaded == setup.points(),
                loaded,
                "cold_sweep: the saved store loads back with every point",
            );
            s
        })
        .collect();

    Pass {
        wall_s,
        save_s,
        load_s,
        events,
        misses: cache.misses(),
        store_bytes: std::fs::read(&path).expect("read cold store"),
    }
}

pub fn run(ctx: &mut Ctx) {
    let (sizes, seed) = (ctx.sizes, ctx.seed);
    let setup = ctx.setup(|_| build(&sizes, seed));
    if ctx.trace {
        return traced(ctx, &setup);
    }
    let points = setup.points();
    let scratch = &ctx.scratch;
    let passes = measure(ctx.seconds, &mut ctx.tally, |tally, rec| {
        pass(&setup, scratch, tally, rec)
    });

    let first = &passes[0].pass;
    ctx.tally.check(
        passes.iter().all(|t| t.pass.events == first.events),
        passes.len(),
        "cold_sweep: simulated event count repeats across passes",
    );
    ctx.tally.check(
        passes
            .iter()
            .all(|t| t.pass.store_bytes == first.store_bytes),
        passes.len(),
        "cold_sweep: saved store bytes repeat across passes",
    );

    let m = &mut ctx.metrics;
    m.set(
        "points_per_s",
        median_rate(points, passes.iter().map(|t| t.at_reference(t.pass.wall_s))),
    );
    m.set(
        "save_points_per_s",
        median_rate(
            points,
            passes
                .iter()
                .flat_map(|t| t.pass.save_s.iter().map(|&s| t.at_reference(s))),
        ),
    );
    m.set(
        "load_points_per_s",
        median_rate(
            points,
            passes
                .iter()
                .flat_map(|t| t.pass.load_s.iter().map(|&s| t.at_reference(s))),
        ),
    );
    m.set(
        "store_bytes_per_point",
        first.store_bytes.len() as f64 / points as f64,
    );
    m.set("peak_rss_mb", peak_rss_mb());
}

/// Observed drive of `sample` under `A` on whichever fast path each
/// point dispatches to; returns `(events, microseconds)`.
fn observed_drive<A: SweepAlgorithm>(
    rec: &mut Recorder,
    name: &'static str,
    sample: &[ScenarioSpec],
) -> (u64, f64) {
    let mut events = 0;
    for (i, spec) in sample.iter().enumerate() {
        if let Some(mut built) = assemble_mono::<A>(spec) {
            rec.time(name, i, || built.sim.drive());
            events += built.sim.events_delivered();
        } else {
            let mut built = assemble_enum::<A>(spec).expect("benchmark faults ride the enum path");
            rec.time(name, i, || built.sim.drive());
            events += built.sim.events_delivered();
        }
    }
    (events, rec.total_us(name))
}

fn traced(ctx: &mut Ctx, setup: &Setup) {
    let (scratch, tally) = (&ctx.scratch, &mut ctx.tally);
    let (traced, mut rec, traced_s, untraced_s) = trace_pairs(
        "cold_sweep",
        |rec| pass(setup, scratch, tally, rec),
        |p| p.wall_s,
    );

    let sample = &setup.main[..LADDER_POINTS.min(setup.main.len())];
    let k = sample.len() as f64;
    let path = ctx.scratch.path("cold-sample.wls");
    let m = &mut ctx.metrics;
    spec_ladder(&mut rec, sample, m);

    // Each point first goes through the public cached sweep (the figure
    // the ladder must explain), then at once through the ladder's rungs,
    // so both see the same machine state: this container's speed drifts
    // under sustained load.
    let cache = SweepCache::new();
    for (i, spec) in sample.iter().enumerate() {
        let t_end = spec.t_end.as_secs();
        rec.time("sweep.point", i, || {
            black_box(request(&cache).run::<Maintenance>(vec![spec.clone()]))
        });

        let series = if let Some(mut built) = assemble_mono::<Maintenance>(spec) {
            rec.time("sim.drive.mono", i, || built.sim.drive());
            rec.count("sim.events.mono", built.sim.events_delivered());
            rec.time("assemble.mono", i, || {
                drop(black_box(assemble_mono::<Maintenance>(spec)));
            });
            let mut sim = assemble_mono_null::<Maintenance>(spec).expect("mono point");
            rec.time("sim.drive_null", i, || sim.drive());
            rec.count("sim.events.null", sim.events_delivered());
            rec.time("run.summary", i, || {
                let built = assemble_mono::<Maintenance>(spec).expect("mono point");
                black_box(run_summary_mono(built, t_end));
            });
            rec.time("run.capture", i, || {
                let built = assemble_mono::<Maintenance>(spec).expect("mono point");
                run_capture_mono(built, t_end).1
            })
        } else {
            let mut built = assemble_enum::<Maintenance>(spec).expect("enum point");
            rec.time("sim.drive.enum", i, || built.sim.drive());
            rec.count("sim.events.enum", built.sim.events_delivered());
            rec.time("assemble.enum", i, || {
                drop(black_box(assemble_enum::<Maintenance>(spec)));
            });
            rec.time("run.summary", i, || {
                let built = assemble_enum::<Maintenance>(spec).expect("enum point");
                black_box(run_summary_enum(built, t_end));
            });
            rec.time("run.capture", i, || {
                let built = assemble_enum::<Maintenance>(spec).expect("enum point");
                run_capture_enum(built, t_end).1
            })
        };
        let sketch = rec.time("sketch.of_series", i, || SkewSketch::of_series(&series));
        rec.count("sketch.samples", sketch.count);

        rec.time("assemble.boxed", i, || {
            drop(black_box(assemble::<Maintenance>(spec)));
        });
        let mut boxed = assemble::<Maintenance>(spec);
        rec.time("sim.drive.boxed", i, || boxed.sim.drive());
        rec.count("sim.events.boxed", boxed.sim.events_delivered());
    }
    let mut store = binary_store();
    rec.time("ladder.absorb", 0, || store.absorb(&cache));
    rec.time("ladder.save", 0, || store.save_to(&path))
        .expect("save sample store");

    let base = &sample[..setup.base.len().min(sample.len())];
    let (lm_events, lm_us) = observed_drive::<LmCnv>(&mut rec, "sim.drive.lm_cnv", base);
    let (st_events, st_us) =
        observed_drive::<SrikanthToueg>(&mut rec, "sim.drive.srikanth_toueg", base);

    // The informational thread ratio: the same uncached sample at one
    // and at two threads.
    let cold = |threads: usize| {
        secs(|| {
            black_box(
                SweepRequest::new()
                    .threads(threads)
                    .capture(Capture::Sketch)
                    .run::<Maintenance>(sample.to_vec()),
            )
        })
        .1
    };
    let threads2_ratio = ratio(cold(1), cold(2));

    // Per-point times. `run.summary` covers assemble + observed drive +
    // the theorem checks and `run.capture` all of that plus the series
    // capture, so self times are differences, and the ladder's sum is
    // capture + what the cached sweep adds around it.
    let per = |name: &str| rec.total_us(name) / k;
    let assemble_us = per("assemble.mono") + per("assemble.enum");
    let drive_us = per("sim.drive.mono") + per("sim.drive.enum");
    let summarize_self = per("run.summary") - assemble_us - drive_us;
    let capture_self = per("run.capture") - per("run.summary");
    let point_us = per("sweep.point") + per("ladder.absorb") + per("ladder.save");
    let layers = [
        ("spec.canon", m.get("spec.canon_us").unwrap_or(0.0)),
        ("spec.hash", m.get("spec.hash_us").unwrap_or(0.0)),
        ("assemble (as dispatched)", assemble_us),
        ("sim.drive (observed)", drive_us),
        ("run.summarize self", summarize_self),
        ("run.capture self", capture_self),
        ("sketch.of_series", per("sketch.of_series")),
        ("cache.absorb", per("ladder.absorb")),
        ("cache.save", per("ladder.save")),
    ];
    let residual = point_us - layers.iter().map(|(_, us)| us).sum::<f64>();

    let (mono, ..) = grids::dispatch(sample);
    let (grid_mono, grid_enum, grid_boxed) = grids::dispatch(&setup.main);

    let mev = |events: u64, us: f64| ratio(events as f64, us);
    let path_mev = |path: &str| {
        let (events, drive) = (format!("sim.events.{path}"), format!("sim.drive.{path}"));
        mev(rec.counted(&events), rec.total_us(&drive))
    };
    m.set("sweep.misses", traced.misses as f64);
    m.set("sweep.points_mono", grid_mono as f64);
    m.set("sweep.points_enum", grid_enum as f64);
    m.set("sweep.points_boxed", grid_boxed as f64);
    m.set("sweep.threads2_ratio", threads2_ratio);
    m.set(
        "assemble.mono_us",
        ratio(rec.total_us("assemble.mono"), mono as f64),
    );
    m.set(
        "assemble.enum_us",
        ratio(rec.total_us("assemble.enum"), k - mono as f64),
    );
    m.set("assemble.boxed_us", per("assemble.boxed"));
    m.set("sim.events", traced.events as f64);
    m.set(
        "sim.drive_null_us",
        ratio(rec.total_us("sim.drive_null"), mono as f64),
    );
    m.set(
        "sim.null_mev_per_s",
        mev(
            rec.counted("sim.events.null"),
            rec.total_us("sim.drive_null"),
        ),
    );
    m.set("sim.observed_mev_per_s.mono", path_mev("mono"));
    m.set("sim.observed_mev_per_s.enum", path_mev("enum"));
    m.set("sim.observed_mev_per_s.boxed", path_mev("boxed"));
    m.set("sim.observed_mev_per_s.lm_cnv", mev(lm_events, lm_us));
    m.set(
        "sim.observed_mev_per_s.srikanth_toueg",
        mev(st_events, st_us),
    );
    m.set("run.summary_us", per("run.summary"));
    m.set("run.summarize_self_us", summarize_self);
    m.set("run.capture_us", per("run.capture"));
    m.set("run.capture_self_us", capture_self);
    m.set("sketch.of_series_us", per("sketch.of_series"));
    m.set("sketch.samples", rec.counted("sketch.samples") as f64);
    m.set("cache.absorb_us", per("ladder.absorb"));
    m.set("cache.save_us", per("ladder.save"));
    m.set("cache.bytes_written", file_len(&path) as f64);
    m.set("residual.cold_us", residual);
    m.set("residual.cold_share", ratio(residual, point_us));
    print_budget("cold_sweep", "point", point_us, &layers);
    ctx.finish_trace(&rec, traced_s, untraced_s);
}
