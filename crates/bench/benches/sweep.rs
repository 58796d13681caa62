//! Sweep throughput: a 64-scenario maintenance grid — serial vs
//! parallel, cold vs warm cache, instrumented vs unobserved.
//!
//! Expected shapes:
//!
//! * **parallel / serial** approaches `min(cores, 64)`× (each grid point
//!   is an independent discrete-event simulation; no shared state) —
//!   subject to the dev-container throttling caveat in PERF.md;
//! * **warm cache / cold** collapses to lookup cost: a warm
//!   [`SweepCache`] serves all 64 points without a single simulator
//!   execution, and a disk round trip (`SweepStore` save + open +
//!   rehydrate) adds only file I/O;
//! * **unobserved floor**: `run::drive_unobserved` (NullObserver +
//!   monomorphized `Vec<Maintenance>` fleet) bounds how fast the engine
//!   can go with every measurement cost removed;
//! * **store format**: the same series-bearing records saved as v2 text
//!   vs v3 compressed binary segments — binary should be ~2× smaller
//!   with comparable warm-load time (PERF.md tracks both);
//! * **faulted dispatch**: the same designated-faulty grid assembled as
//!   `Vec<Box<dyn Automaton>>` (the historical path) vs the PR-6
//!   enum-dispatched `Vec<WlAlgoFleet>` fast path — byte-identical
//!   outcomes (`fleet_parity` tests), so the ratio is pure dispatch +
//!   allocation overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use wl_core::Params;
use wl_harness::{
    assemble, assemble_enum, derive_seed, run, Capture, DelayKind, FaultKind, Maintenance,
    ScenarioSpec, StoreFormat, SweepCache, SweepRequest, SweepRunner, SweepStore,
};
use wl_sim::ProcessId;
use wl_time::RealTime;

const GRID: u64 = 64;

fn grid() -> Vec<ScenarioSpec> {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let delays = [
        DelayKind::Constant,
        DelayKind::Uniform,
        DelayKind::AdversarialSplit,
    ];
    (0..GRID)
        .map(|i| {
            ScenarioSpec::new(params.clone())
                .seed(derive_seed(0xBEEF, i))
                .delay(delays[(i % 3) as usize])
                .t_end(RealTime::from_secs(2.0))
        })
        .collect()
}

/// `grid`, but every point designates one faulty process (cycling the
/// maintenance fault gallery) — the shape that used to force the boxed
/// fleet.
fn faulted_grid() -> Vec<ScenarioSpec> {
    let kinds = [
        FaultKind::Silent,
        FaultKind::TwoFaced(0.002),
        FaultKind::RoundSpam,
    ];
    grid()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| spec.fault(ProcessId(i % 4), kinds[i % 3]))
        .collect()
}

fn run_faulted_boxed(specs: &[ScenarioSpec]) -> u64 {
    specs
        .iter()
        .map(|s| {
            let built = assemble::<Maintenance>(s);
            run::run_summary(built, s.t_end.as_secs())
                .stats
                .events_delivered
        })
        .sum()
}

fn run_faulted_enum(specs: &[ScenarioSpec]) -> u64 {
    specs
        .iter()
        .map(|s| {
            let built = assemble_enum::<Maintenance>(s).expect("faulted spec rides the enum path");
            run::run_summary_enum(built, s.t_end.as_secs())
                .stats
                .events_delivered
        })
        .sum()
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_64_scenarios");
    group.throughput(Throughput::Elements(GRID));
    group.bench_with_input(BenchmarkId::new("serial", GRID), &(), |b, ()| {
        b.iter(|| black_box(SweepRequest::new().threads(1).run::<Maintenance>(grid())));
    });
    group.bench_with_input(BenchmarkId::new("parallel", GRID), &(), |b, ()| {
        b.iter(|| black_box(SweepRequest::new().run::<Maintenance>(grid())));
    });
    group.bench_with_input(BenchmarkId::new("cold_cache", GRID), &(), |b, ()| {
        // Fresh cache every iteration: sweep + memoization overhead.
        b.iter(|| {
            let cache = SweepCache::new();
            black_box(
                SweepRequest::new()
                    .cached(&cache)
                    .run::<Maintenance>(grid()),
            )
        });
    });
    let warm = SweepCache::new();
    let _ = SweepRequest::new().cached(&warm).run::<Maintenance>(grid());
    group.bench_with_input(BenchmarkId::new("warm_cache", GRID), &(), |b, ()| {
        b.iter(|| black_box(SweepRequest::new().cached(&warm).run::<Maintenance>(grid())));
    });
    group.bench_with_input(BenchmarkId::new("unobserved_floor", GRID), &(), |b, ()| {
        // NullObserver + monomorphized Vec<Maintenance>: the engine with
        // all measurement externalized.
        b.iter(|| {
            let events: u64 = grid()
                .iter()
                .map(|s| run::drive_unobserved::<Maintenance>(s).expect("fault-free grid"))
                .sum();
            black_box(events)
        });
    });
    let faulted = faulted_grid();
    group.bench_with_input(BenchmarkId::new("faulted_boxed", GRID), &(), |b, ()| {
        b.iter(|| black_box(run_faulted_boxed(&faulted)));
    });
    group.bench_with_input(BenchmarkId::new("faulted_enum", GRID), &(), |b, ()| {
        b.iter(|| black_box(run_faulted_enum(&faulted)));
    });
    group.finish();

    // Print the headline numbers the PERF.md trajectory tracks.
    let t0 = std::time::Instant::now();
    black_box(SweepRequest::new().threads(1).run::<Maintenance>(grid()));
    let serial = t0.elapsed();
    let t1 = std::time::Instant::now();
    black_box(SweepRequest::new().run::<Maintenance>(grid()));
    let parallel = t1.elapsed();
    println!(
        "sweep speedup: serial {serial:?} / parallel {parallel:?} = {:.2}x on {} workers",
        serial.as_secs_f64() / parallel.as_secs_f64(),
        SweepRunner::new().threads(),
    );

    let t2 = std::time::Instant::now();
    black_box(SweepRequest::new().cached(&warm).run::<Maintenance>(grid()));
    let warm_dt = t2.elapsed();
    println!(
        "cache: cold {serial:?} -> warm {warm_dt:?} = {:.0}x ({} hits, 0 sims)",
        serial.as_secs_f64() / warm_dt.as_secs_f64(),
        GRID,
    );

    // Disk round trip: absorb + save + reopen + rehydrate + serve all 64.
    let path = std::env::temp_dir().join(format!("wl-bench-{}.wls", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let t3 = std::time::Instant::now();
    let mut store = SweepStore::open(&path).expect("open store");
    store.absorb(&warm);
    store.save().expect("save store");
    let reopened = SweepStore::open(&path).expect("reopen store");
    let hydrated = reopened.hydrate();
    black_box(
        SweepRequest::new()
            .cached(&hydrated)
            .run::<Maintenance>(grid()),
    );
    let disk_dt = t3.elapsed();
    println!(
        "disk round trip (save + load + serve {GRID}): {disk_dt:?}, {} records, {} bytes",
        reopened.len(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
    );
    let _ = std::fs::remove_file(&path);

    let t4 = std::time::Instant::now();
    let events: u64 = grid()
        .iter()
        .map(|s| run::drive_unobserved::<Maintenance>(s).expect("fault-free grid"))
        .sum();
    let floor = t4.elapsed();
    println!(
        "unobserved floor: {events} events in {floor:?} = {:.1} Mev/s (serial, NullObserver + Vec<Maintenance>)",
        events as f64 / floor.as_secs_f64() / 1e6,
    );

    // Faulted dispatch: boxed vs enum fleet on the same faulted grid,
    // best of 3 each (the container throttles sustained load).
    let faulted = faulted_grid();
    let best_of = |f: &dyn Fn() -> u64| {
        let mut best = f64::INFINITY;
        let mut ev = f(); // warmup
        for _ in 0..3 {
            let t = std::time::Instant::now();
            ev = f();
            best = best.min(t.elapsed().as_secs_f64());
        }
        (ev as f64 / best / 1e6, ev)
    };
    let (boxed_rate, ev_boxed) = best_of(&|| run_faulted_boxed(&faulted));
    let (enum_rate, ev_enum) = best_of(&|| run_faulted_enum(&faulted));
    assert_eq!(
        ev_boxed, ev_enum,
        "dispatch paths must run identical executions"
    );
    println!(
        "faulted dispatch: {ev_boxed} events; boxed {boxed_rate:.2} Mev/s -> enum {enum_rate:.2} Mev/s ({:.2}x)",
        enum_rate / boxed_rate,
    );

    // Store-format axis: text vs v3 binary segments, on the payload that
    // actually stresses the store — series-bearing records. Measures
    // what PERF.md tracks: file size and warm-load (open + hydrate +
    // serve) time per format.
    let series_cache = SweepCache::new();
    let series_grid: Vec<ScenarioSpec> = grid().into_iter().take(8).collect();
    let _ = SweepRequest::new()
        .cached(&series_cache)
        .capture(Capture::Series)
        .run::<Maintenance>(series_grid.clone());
    for format in [StoreFormat::Text, StoreFormat::Binary] {
        let path = std::env::temp_dir().join(format!(
            "wl-bench-series-{}-{format}.wls",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut store = SweepStore::open(&path).expect("open store");
        store.set_format(format);
        store.absorb(&series_cache);
        let t_save = std::time::Instant::now();
        store.save().expect("save store");
        let save_dt = t_save.elapsed();
        let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let t_load = std::time::Instant::now();
        let reopened = SweepStore::open(&path).expect("reopen store");
        let hydrated = reopened.hydrate();
        black_box(
            SweepRequest::new()
                .cached(&hydrated)
                .capture(Capture::Series)
                .run::<Maintenance>(series_grid.clone()),
        );
        let load_dt = t_load.elapsed();
        assert_eq!(hydrated.misses(), 0, "{format} store must serve warm");
        println!(
            "series store [{format}]: {} records, {size} bytes; save {save_dt:?}, \
             warm load+serve {load_dt:?}",
            reopened.len(),
        );
        let _ = std::fs::remove_file(&path);
    }
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
