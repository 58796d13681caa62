//! What every workload shares: sizes, the scratch directory, the
//! attempted/failed tally, timing loops, and the store helpers.

use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::Recorder;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wl_harness::cache::segment::{EncodedRecord, SegmentReader};
use wl_harness::{
    Capture, Maintenance, ScenarioSpec, StoreFormat, SweepCache, SweepOutcome, SweepRequest,
    SweepStore,
};

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Records per service batch (get and put alike).
pub const BATCH: usize = 64;

/// Grid and script sizes. One table, so `--quick` is one division and the
/// README can state them.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `cold_sweep`: points swept under Maintenance per pass.
    pub cold_main: usize,
    /// `cold_sweep`: leading points also swept under each baseline.
    pub cold_base: usize,
    /// `warm_sweep` and `store_fold`: records in the store.
    pub store: usize,
    /// `service_mix`: records the server starts with.
    pub service: usize,
    /// `service_mix`: fresh records put per pass.
    pub service_put: usize,
    /// `service_mix`: single gets per pass.
    pub gets: usize,
    /// `service_mix`: batch gets per pass.
    pub batch_gets: usize,
    /// `drive_2w`: grid points per drive.
    pub drive: usize,
}

impl Sizes {
    pub const FULL: Self = Self {
        cold_main: 192,
        cold_base: 32,
        store: 4096,
        service: 1024,
        service_put: 1024,
        gets: 8000,
        batch_gets: 96,
        drive: 2000,
    };

    /// Every size divided by 16, for smoke runs whose numbers are not
    /// comparable with anything.
    pub fn quick() -> Self {
        let f = Self::FULL;
        Self {
            cold_main: f.cold_main / 16,
            cold_base: f.cold_base / 16,
            store: f.store / 16,
            service: f.service / 16,
            service_put: f.service_put / 16,
            gets: f.gets / 16,
            batch_gets: f.batch_gets / 16,
            drive: f.drive / 16,
        }
    }
}

/// The one directory a run writes stores, sockets and frontiers into.
/// Relative to the working directory (the checkout root), which keeps
/// unix-socket paths short; removed when the run ends, however it ends.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> std::io::Result<Self> {
        let dir = Path::new("benchmark/out").join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// A fresh, empty subdirectory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.path(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch subdirectory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Operations attempted and operations that failed or answered wrongly.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts `ops` operations whose joint correctness is `ok`.
    pub fn check(&mut self, ok: bool, ops: usize, what: &str) {
        self.attempted += ops as u64;
        if !ok {
            self.failed += ops as u64;
            eprintln!("CHECK FAILED: {what}");
        }
    }
}

/// Everything a workload needs from the command line and the process.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    pub scratch: Scratch,
    pub tally: Tally,
    pub metrics: Metrics,
    /// Where the traced run writes its spans.
    pub spans_out: PathBuf,
}

impl Ctx {
    /// Runs `build` [`SETUP_REPS`] times, records the median wall time
    /// (at reference machine speed) as `setup_s`, and returns the last
    /// result.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&Scratch) -> T) -> T {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut bracket = Bracket::open();
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let timed = bracket.run(|| secs(|| build(&self.scratch)));
            times.push(timed.at_reference(timed.pass.1));
            last = Some(timed.pass.0);
        }
        self.metrics.set("setup_s", median(&times));
        last.expect("SETUP_REPS >= 1")
    }

    /// Closes a traced run: the tracing overhead (the traced pass against
    /// the untraced one), every span name's self time, and the spans file.
    pub fn finish_trace(&mut self, rec: &Recorder, traced_s: f64, untraced_s: f64) {
        self.metrics.set(
            "trace.overhead_share",
            ratio(traced_s - untraced_s, untraced_s),
        );
        self.metrics.set("trace.spans", rec.spans().len() as f64);
        // Per-layer times are raw wall-clock; this says what machine
        // they were read on.
        let kernel: Vec<f64> = (0..SETUP_REPS).map(|_| calibration_kernel()).collect();
        self.metrics
            .set("machine.speed_factor", median(&kernel) / KERNEL_REFERENCE_S);
        eprintln!(
            "tracing: pass {traced_s:.4} s traced, {untraced_s:.4} s untraced; self time by span:"
        );
        for (name, (self_ns, calls)) in rec.self_by_name() {
            eprintln!(
                "  {name:<28} {:>12.2} us self per call x {calls}",
                self_ns as f64 / 1e3 / calls as f64
            );
        }
        rec.write_json(&self.spans_out).expect("write spans file");
    }
}

/// One timed pass and how fast the machine ran around it.
pub struct Timed<P> {
    pub pass: P,
    /// The pass's machine-speed factor: the calibration kernel just
    /// before and just after it, against the reference.
    speed: f64,
}

impl<P> Timed<P> {
    /// `seconds` measured inside this pass, as they would have read at
    /// reference machine speed.
    pub fn at_reference(&self, seconds: f64) -> f64 {
        seconds / self.speed
    }
}

/// Times the calibration kernel at every boundary between passes, so
/// each pass knows the machine speed on both of its sides.
struct Bracket {
    before: f64,
}

impl Bracket {
    fn open() -> Self {
        Self {
            before: calibration_kernel(),
        }
    }

    fn run<P>(&mut self, pass: impl FnOnce() -> P) -> Timed<P> {
        let pass = pass();
        let after = calibration_kernel();
        let speed = (self.before + after) / 2.0 / KERNEL_REFERENCE_S;
        self.before = after;
        Timed { pass, speed }
    }
}

/// Repeats `pass` until `seconds` of measuring time are used up (at
/// least twice, so every metric is a median of passes), each pass
/// bracketed by the calibration kernel.
pub fn measure<P>(
    seconds: f64,
    tally: &mut Tally,
    mut pass: impl FnMut(&mut Tally, &mut Recorder) -> P,
) -> Vec<Timed<P>> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rec = Recorder::off();
    let mut passes = Vec::new();
    let mut bracket = Bracket::open();
    while passes.len() < 2 || Instant::now() < deadline {
        passes.push(bracket.run(|| pass(tally, &mut rec)));
    }
    let speeds: Vec<f64> = passes.iter().map(|t| t.speed).collect();
    eprintln!(
        "measured {} passes; machine {:.3} x slower than reference (median; the rates below are \
         at reference speed, wall-clock rates are about that much lower)",
        passes.len(),
        median(&speeds)
    );
    passes
}

/// What the calibration kernel takes on this container in its fast
/// state; timed metrics are reported as if the machine ran at that speed.
pub const KERNEL_REFERENCE_S: f64 = 0.045;

/// A fixed piece of work owned by the benchmark, timed next to every
/// pass: an event-queue loop (pop the earliest of 256 timers, push it
/// back later) and an allocation loop (format strings, insert them into
/// a map, keep a churning working set). Returns its wall seconds.
///
/// This sandbox changes speed under the benchmark: the same phase reads
/// up to 1.9 x apart minutes apart, memory-heavy code moving more than
/// register-bound code. The two halves bracket what the workloads do,
/// and their sum tracks every workload's in-process cost within a few
/// percent through such a change (README, "Environment"). The kernel
/// must never change: every later reading is relative to it.
pub fn calibration_kernel() -> f64 {
    // Interference only ever adds time, so the faster of two
    // back-to-back runs is the cleaner reading of the machine's state.
    kernel_once().min(kernel_once())
}

fn kernel_once() -> f64 {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let started = Instant::now();
    let mut heap = BinaryHeap::with_capacity(512);
    for id in 0..256_u64 {
        heap.push(Reverse((next() >> 40, id)));
    }
    let mut acc = 0_u64;
    for _ in 0..600_000 {
        let Reverse((at, id)) = heap.pop().expect("the queue never drains");
        acc = acc.wrapping_add(at ^ id);
        heap.push(Reverse((at + (next() >> 44) + 1, id)));
    }
    let mut keep: Vec<String> = Vec::new();
    let mut map = HashMap::new();
    for i in 0..40_000_u64 {
        let text = format!(
            "x{:016x},{i},{:e},{:016x}",
            next(),
            i as f64 * 1.000_001,
            next()
        );
        map.insert(next() % 8192, text.clone());
        keep.push(text);
        if keep.len() > 4096 {
            keep.swap_remove((next() % 4096) as usize);
        }
    }
    std::hint::black_box((acc, keep.len(), map.len()));
    started.elapsed().as_secs_f64()
}

/// Untraced/traced pass pairs a traced run makes; the tracing overhead
/// compares the medians of the two sides.
const TRACE_PAIRS: usize = 3;

/// Alternates untraced and traced passes, each bracketed by the
/// calibration kernel. Returns the last traced pass with its recorder
/// (earlier recorders are dropped, so span totals are one pass's), and
/// the median pass seconds, at reference speed, of the traced and of the
/// untraced side.
pub fn trace_pairs<P>(
    workload: &'static str,
    mut pass: impl FnMut(&mut Recorder) -> P,
    wall_s: impl Fn(&P) -> f64,
) -> (P, Recorder, f64, f64) {
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut bracket = Bracket::open();
    let mut last = None;
    for _ in 0..TRACE_PAIRS {
        let untraced = bracket.run(|| pass(&mut Recorder::off()));
        untraced_s.push(untraced.at_reference(wall_s(&untraced.pass)));
        let mut rec = Recorder::on(workload);
        let traced = bracket.run(|| pass(&mut rec));
        traced_s.push(traced.at_reference(wall_s(&traced.pass)));
        last = Some((traced.pass, rec));
    }
    let (traced, rec) = last.expect("TRACE_PAIRS >= 1");
    (traced, rec, median(&traced_s), median(&untraced_s))
}

/// Wall seconds of `f`.
pub fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// `VmHWM` of this process in MB: the peak resident set since it started.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The sweep every store-building set-up runs: one thread, sketch
/// capture, through a fresh cache.
pub fn sweep_into(cache: &SweepCache, grid: &[ScenarioSpec]) -> Vec<SweepOutcome> {
    SweepRequest::new()
        .threads(1)
        .capture(Capture::Sketch)
        .cached(cache)
        .run::<Maintenance>(grid.to_vec())
}

/// An empty, path-less store that saves in the binary format.
pub fn binary_store() -> SweepStore {
    let mut store = SweepStore::new();
    store.set_format(StoreFormat::Binary);
    store
}

/// A binary store holding exactly what `cache` holds.
pub fn store_of(cache: &SweepCache) -> SweepStore {
    let mut store = binary_store();
    store.absorb(cache);
    store
}

/// Simulates `grid` and saves it as a binary store at `path`.
pub fn simulate_store(grid: &[ScenarioSpec], path: &Path) -> Vec<SweepOutcome> {
    let cache = SweepCache::new();
    let outcomes = sweep_into(&cache, grid);
    store_of(&cache).save_to(path).expect("save set-up store");
    outcomes
}

/// Every record of a binary store file, in file order.
pub fn read_records(path: &Path) -> Vec<EncodedRecord> {
    let bytes = std::fs::read(path).expect("read store file");
    let mut reader = SegmentReader::new(&bytes).expect("a binary store");
    let records: Vec<EncodedRecord> = reader.by_ref().collect();
    assert_eq!(reader.damaged(), 0, "benchmark stores are undamaged");
    records
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Median of the rates `ops / seconds` over a set of timed samples.
pub fn median_rate(ops: usize, seconds: impl IntoIterator<Item = f64>) -> f64 {
    let rates: Vec<f64> = seconds.into_iter().map(|s| ops as f64 / s).collect();
    median(&rates)
}

/// `a / b`, or 0 when `b` is 0 (a layer that did not run).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The spec with its drift made explicit: the form the cached sweep
/// serializes on every lookup (`ScenarioSpec::canonical` is private, and
/// this is all it does).
pub fn canonical(spec: &ScenarioSpec) -> ScenarioSpec {
    spec.clone().drift(spec.effective_drift())
}

/// Prints a budget table (layer, microseconds per operation, share,
/// residual) to standard error, where it does not disturb the result
/// line.
pub fn print_budget(workload: &str, op: &str, total_us: f64, layers: &[(&str, f64)]) {
    eprintln!("budget {workload}: {total_us:.2} us per {op}");
    let mut explained = 0.0;
    for (name, us) in layers {
        explained += us;
        eprintln!(
            "  {name:<28} {us:>10.2} us  {:>5.1} %",
            100.0 * ratio(*us, total_us)
        );
    }
    let residual = total_us - explained;
    eprintln!(
        "  {:<28} {residual:>10.2} us  {:>5.1} %",
        "residual",
        100.0 * ratio(residual, total_us)
    );
}
