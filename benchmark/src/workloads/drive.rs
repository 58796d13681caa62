//! `drive_2w`: two subprocess workers draining a frontier at the
//! driver's defaults (chunk 4, 50 ms poll), binary stores, sketch
//! capture.
//!
//! The only workload where frontier renames, per-chunk absorb +
//! checkpoint, process spawn, the monitor poll and the harvest merge do
//! the work. Defaults on purpose: what a user gets with no flag.

use crate::common::{
    binary_store, measure, median_rate, peak_rss_mb, ratio, secs, simulate_store, trace_pairs, Ctx,
    Scratch, Sizes, Tally,
};
use crate::grids;
use crate::stats::median;
use crate::trace::Recorder;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;
use wl_harness::{
    drive_frontier, run_worker_frontier, Capture, Frontier, FrontierDriveReport,
    FrontierDriverConfig, FrontierSpec, FrontierWorkerConfig, Maintenance, ScenarioSpec,
    StoreFormat, SubprocessTransport, SweepRunner, SweepStore, WorkerLaunch, WorkerTransport,
};

const WORKERS: u32 = 2;

/// Re-opens and outside re-merges of the drive's stores per pass.
const LOAD_REPS: usize = 4;
const MERGE_REPS: usize = 2;

/// Grid of the spawn + poll + harvest floor drive.
const SMALL_DRIVE: usize = 8;

pub struct Setup {
    grid: Vec<ScenarioSpec>,
    /// The one-process store every drive's merged store must equal.
    reference: Vec<u8>,
    /// Wall seconds of the one-process, one-thread reference sweep.
    inproc_s: f64,
}

struct Pass {
    wall_s: f64,
    load_s: Vec<f64>,
    merge_s: Vec<f64>,
    report: FrontierDriveReport,
}

/// The worker half: this binary re-entered by the transport. The grid is
/// rebuilt from `(seed, len)`, so parent and workers sweep the same one.
pub fn worker_main(args: &[String]) -> ExitCode {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .unwrap_or_else(|| panic!("frontier worker needs {flag}"))
    };
    let cfg = worker_config(
        Path::new(value("--frontier")),
        value("--worker-id"),
        Path::new(value("--store")),
    );
    let seed: u64 = value("--grid-seed").parse().expect("numeric --grid-seed");
    let len: usize = value("--grid").parse().expect("numeric --grid");
    match run_worker_frontier::<Maintenance>(
        &SweepRunner::serial(),
        grids::small(seed, len),
        &cfg,
        |_| {},
    ) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("frontier worker {}: {e}", cfg.worker);
            ExitCode::FAILURE
        }
    }
}

/// The worker settings `sweep_drive` passes by default, binary format
/// and sketch capture aside.
fn worker_config(frontier: &Path, worker: &str, store: &Path) -> FrontierWorkerConfig {
    FrontierWorkerConfig {
        frontier: frontier.into(),
        worker: worker.to_string(),
        store: store.into(),
        format: StoreFormat::Binary,
        steal_timeout: Duration::from_secs(2),
        poll: Duration::from_millis(100),
        crash_after_chunks: None,
        capture: Capture::Sketch,
    }
}

fn build(sizes: &Sizes, seed: u64, scratch: &Scratch) -> Setup {
    let grid = grids::small(seed, sizes.drive);
    let path = scratch.path("drive-reference.wls");
    let (_, inproc_s) = secs(|| simulate_store(&grid, &path));
    Setup {
        reference: std::fs::read(&path).expect("read reference store"),
        grid,
        inproc_s,
    }
}

/// One drive of `grid` into a fresh directory; returns the wall time,
/// the report, the driver config and the stores the transport harvested.
fn drive(
    scratch: &Scratch,
    seed: u64,
    grid: &[ScenarioSpec],
) -> (f64, FrontierDriveReport, FrontierDriverConfig, Vec<PathBuf>) {
    let dir = scratch.fresh_dir("drive");
    let mut cfg = FrontierDriverConfig::new(WORKERS, &dir, dir.join("merged.wls"));
    cfg.format = StoreFormat::Binary;
    let exe = std::env::current_exe().expect("path of this binary");
    let len = grid.len();
    let mut transport = SubprocessTransport::new(move |launch: &WorkerLaunch| {
        let mut cmd = Command::new(&exe);
        cmd.arg("--frontier-worker")
            .arg("--frontier")
            .arg(&launch.frontier)
            .arg("--worker-id")
            .arg(&launch.worker)
            .arg("--store")
            .arg(&launch.store)
            .args(["--grid-seed", &seed.to_string()])
            .args(["--grid", &len.to_string()]);
        cmd
    });
    let (report, wall_s) = secs(|| drive_frontier::<Maintenance>(&cfg, grid, &mut transport));
    let report = report.expect("frontier drive");
    let stores = transport.stores(&cfg).expect("worker stores");
    (wall_s, report, cfg, stores)
}

/// The harvest merge, from outside: every worker store opened, merged
/// and saved, as `drive_frontier` does once the frontier is done.
fn harvest(stores: &[PathBuf], out: &Path) -> usize {
    let mut merged = binary_store();
    for path in stores {
        merged
            .merge_from(&SweepStore::open(path).expect("open worker store"))
            .expect("worker stores agree");
    }
    merged.save_to(out).expect("save re-merged store");
    merged.len()
}

fn pass(
    setup: &Setup,
    seed: u64,
    scratch: &Scratch,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> Pass {
    let n = setup.grid.len();
    let open = rec.begin("transport.drive", 0);
    let (wall_s, report, cfg, stores) = drive(scratch, seed, &setup.grid);
    rec.end(open);
    rec.count("transport.stores_merged", report.stores_merged as u64);
    rec.count("transport.restarts", u64::from(report.restarts));
    rec.count("transport.requeued", report.requeued as u64);
    tally.check(
        std::fs::read(&cfg.out).is_ok_and(|bytes| bytes == setup.reference),
        n,
        "drive_2w: the merged store is byte-identical to the one-process reference",
    );
    tally.check(report.restarts == 0, 1, "drive_2w: no worker restarted");

    let load_s = (0..LOAD_REPS)
        .map(|rep| {
            let (loaded, s) = secs(|| {
                rec.time("cache.open+hydrate", rep, || {
                    SweepStore::open(&cfg.out).map(|store| store.hydrate().len())
                })
            });
            tally.check(
                loaded.is_ok_and(|len| len == n),
                n,
                "drive_2w: the merged store loads back with every point",
            );
            s
        })
        .collect();
    let remerged = cfg.dir.join("remerged.wls");
    let merge_s = (0..MERGE_REPS)
        .map(|rep| {
            let (merged, s) =
                secs(|| rec.time("transport.harvest", rep, || harvest(&stores, &remerged)));
            tally.check(
                merged == n,
                n,
                "drive_2w: the outside re-merge holds every point",
            );
            s
        })
        .collect();
    Pass {
        wall_s,
        load_s,
        merge_s,
        report,
    }
}

pub fn run(ctx: &mut Ctx) {
    let (sizes, seed) = (ctx.sizes, ctx.seed);
    let setup = ctx.setup(|scratch| build(&sizes, seed, scratch));
    if ctx.trace {
        return traced(ctx, &setup);
    }
    let n = setup.grid.len();
    let scratch = &ctx.scratch;
    let passes = measure(ctx.seconds, &mut ctx.tally, |tally, rec| {
        pass(&setup, seed, scratch, tally, rec)
    });
    let m = &mut ctx.metrics;
    m.set(
        "points_per_s",
        median_rate(n, passes.iter().map(|t| t.at_reference(t.pass.wall_s))),
    );
    m.set(
        "load_points_per_s",
        median_rate(
            n,
            passes
                .iter()
                .flat_map(|t| t.pass.load_s.iter().map(|&s| t.at_reference(s))),
        ),
    );
    m.set(
        "save_points_per_s",
        median_rate(
            n,
            passes
                .iter()
                .flat_map(|t| t.pass.merge_s.iter().map(|&s| t.at_reference(s))),
        ),
    );
    m.set(
        "store_bytes_per_point",
        setup.reference.len() as f64 / n as f64,
    );
    m.set("peak_rss_mb", peak_rss_mb());
}

/// One in-process worker draining a fresh `chunk`-point frontier of
/// `grid` alone; microseconds per point.
fn worker_point_us(scratch: &Scratch, grid: &[ScenarioSpec], chunk: usize) -> f64 {
    let dir = scratch.fresh_dir("worker");
    let frontier = dir.join("frontier");
    Frontier::init(
        &frontier,
        FrontierSpec::for_grid::<Maintenance>(grid, chunk),
    )
    .expect("init frontier");
    let cfg = worker_config(&frontier, "bench", &dir.join("worker.wls"));
    let (progress, s) = secs(|| {
        run_worker_frontier::<Maintenance>(&SweepRunner::serial(), grid.to_vec(), &cfg, |_| {})
    });
    assert_eq!(progress.expect("in-process worker").points, grid.len());
    s * 1e6 / grid.len() as f64
}

fn traced(ctx: &mut Ctx, setup: &Setup) {
    let seed = ctx.seed;
    let n = setup.grid.len() as f64;
    let (scratch, tally) = (&ctx.scratch, &mut ctx.tally);
    let (traced, mut rec, traced_s, untraced_s) = trace_pairs(
        "drive_2w",
        |rec| pass(setup, seed, scratch, tally, rec),
        |p| p.wall_s,
    );

    // Frontier bookkeeping alone: init, then claim + complete of every
    // chunk with no work in between.
    let spec = FrontierSpec::for_grid::<Maintenance>(&setup.grid, 4);
    let chunks = spec.chunks();
    let dir = ctx.scratch.fresh_dir("frontier-ladder");
    let frontier = rec
        .time("frontier.init", 0, || Frontier::init(&dir, spec))
        .expect("init frontier");
    for chunk in 0..chunks {
        rec.time("frontier.claim_complete", chunk, || {
            frontier
                .claim("bench")
                .and_then(|claim| claim.expect("a todo chunk").complete())
        })
        .expect("claim and complete");
    }

    // One in-process worker over the share of the grid one of the two
    // workers gets: per-chunk absorb grows with the worker's own cache,
    // so a worker's cost per point depends on how many points it owns.
    let share = &setup.grid[..setup.grid.len() / WORKERS as usize];
    let chunk4 = worker_point_us(&ctx.scratch, share, 4);
    let chunk256 = worker_point_us(&ctx.scratch, share, 256);
    let inproc_us = setup.inproc_s * 1e6 / n;
    let (small_drive_s, ..) = drive(
        &ctx.scratch,
        seed,
        &setup.grid[..SMALL_DRIVE.min(setup.grid.len())],
    );

    let harvest_s = median(&traced.merge_s);
    // The two workers run side by side, each over its share.
    let worker_s = share.len() as f64 * chunk4 / 1e6;
    let residual = traced.wall_s - small_drive_s - worker_s - harvest_s;

    let m = &mut ctx.metrics;
    m.set(
        "frontier.init_us_per_chunk",
        rec.total_us("frontier.init") / chunks as f64,
    );
    m.set(
        "frontier.claim_complete_us",
        rec.mean_us("frontier.claim_complete"),
    );
    m.set("frontier.chunks", chunks as f64);
    m.set("frontier.worker_point_us.chunk4", chunk4);
    m.set("frontier.worker_point_us.chunk256", chunk256);
    m.set("frontier.worker_overhead_ratio", ratio(chunk4, inproc_us));
    m.set("transport.drive_wall_s", traced.wall_s);
    m.set("transport.small_drive_s", small_drive_s);
    m.set("transport.harvest_merge_s", harvest_s);
    m.set(
        "transport.scaleout_ratio",
        ratio(setup.inproc_s, traced.wall_s),
    );
    m.set("transport.restarts", f64::from(traced.report.restarts));
    m.set("transport.requeued", traced.report.requeued as f64);
    m.set(
        "transport.stores_merged",
        traced.report.stores_merged as f64,
    );
    m.set("cache.bytes_written", setup.reference.len() as f64);
    m.set("residual.drive_s", residual);
    m.set("residual.drive_share", ratio(residual, traced.wall_s));
    eprintln!(
        "budget drive_2w: {:.3} s wall = {small_drive_s:.3} s spawn+poll+harvest floor + \
         {worker_s:.3} s worker points ({chunk4:.1} us x {} per worker) + {harvest_s:.3} s \
         harvest merge + {residual:.3} s residual",
        traced.wall_s,
        share.len()
    );
    ctx.finish_trace(&rec, traced_s, untraced_s);
}
