//! The transport conformance suite: the driver's contracts, proven
//! against the work-stealing frontier with real subprocesses (this test
//! binary re-enters itself as the worker, `argv[1] == "--frontier-worker"`,
//! and as the sweep service, `argv[1] == "--serve"`; hence
//! `harness = false` in the manifest). A drive has one topology — the
//! drive directory — so each scenario runs once:
//!
//! 1. **bytes** — a 3-worker drive merges byte-identical to the
//!    1-process reference store, ragged last chunk included; a completed
//!    3-worker directory re-driven by one worker, its output deleted,
//!    merges the same bytes from stores that worker's slot does not own;
//! 2. **crash** — a worker hard-aborted after checkpointing its first
//!    chunk (claim left orphaned — the `kill -9` shape) is restarted,
//!    the orphan is requeued and stolen, and the merge is still
//!    byte-identical;
//! 3. **stall** — a worker that wedges (alive, no progress, no peers to
//!    steal around it) is `SIGKILL`ed on heartbeat timeout, restarted,
//!    resumes from its checkpoints, and the merge is byte-identical;
//! 4. **exhaust** — a worker that crashes on every launch retires its
//!    slot; with no surviving slots the drive fails with
//!    `WorkersExhausted`, never hangs;
//! 5. **resume, not redo** — a lone worker crashed after its first chunk
//!    restarts with exactly that chunk as cache hits;
//! 6. **damaged store** — a worker store truncated mid-record, then at a
//!    record boundary, costs exactly the lost record on a re-drive;
//! 7. **wake on exit** — a drive whose monitor polls every 30 s still
//!    returns the moment its last worker exits;
//! 8. **service fleet** — workers launched with `WL_SWEEP_SERVICE` set
//!    merge the reference bytes, and the server, asked before shutdown,
//!    holds every record: the fleet really went through it;
//! 9. **recorded granule** — a half-drained chunk-4 frontier of a
//!    200-point grid is finished by a two-worker drive that names no
//!    granule: it adopts 4 and simulates only the undone points, and an
//!    explicit chunk of 8 over the same directory is refused.
//!
//! Chunk-interleaving determinism beyond these fixed schedules is pinned
//! by `tests/frontier_determinism.rs` (proptest, no subprocesses).

use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use wl_core::Params;
use wl_harness::cache::segment::{write_file, EncodedRecord, SegmentReader};
use wl_harness::{
    derive_seed, drive_frontier, run_worker_frontier, DelayKind, Frontier, FrontierDriveError,
    FrontierDriveReport, FrontierDriverConfig, FrontierError, FrontierSpec, FrontierWorkerConfig,
    Maintenance, ScenarioSpec, ServiceAddr, ServiceClient, SubprocessTransport, SweepCache,
    SweepRequest, SweepRunner, SweepStore, WorkerLaunch,
};
use wl_time::RealTime;

const GRID: usize = 8;

/// The test grid — small horizons so the full matrix stays fast, three
/// delay models so records are not all alike.
fn grid() -> Vec<ScenarioSpec> {
    grid_of(GRID)
}

/// The first `len` points of the test grid's sequence.
fn grid_of(len: usize) -> Vec<ScenarioSpec> {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let delays = [
        DelayKind::Constant,
        DelayKind::Uniform,
        DelayKind::AdversarialSplit,
    ];
    (0..len)
        .map(|i| {
            ScenarioSpec::new(params.clone())
                .seed(derive_seed(0x7C09_F04A, i as u64))
                .delay(delays[i % 3])
                .t_end(RealTime::from_secs(1.5))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--frontier-worker") => {
            worker_main(&args[2..]);
            return;
        }
        Some("--serve") => {
            serve_main(&args[2..]);
            return;
        }
        _ => {}
    }

    scenario_bytes_match();
    scenario_redrive_harvests_every_store();
    scenario_crash_mid_sweep();
    scenario_stall_kill();
    scenario_retry_exhaustion();
    scenario_crash_resumes_not_redoes();
    scenario_damaged_store_costs_only_the_tail();
    scenario_completion_is_noticed_when_it_happens();
    scenario_service_fleet();
    scenario_resume_adopts_the_recorded_granule();
    println!("transport_conformance: all scenarios passed");
}

// ---------------------------------------------------------------------------
// Worker mode.
// ---------------------------------------------------------------------------

/// `--frontier-worker --frontier DIR --worker-id ID --store FILE
/// [--grid LEN] [--steal-ms T] [--crash-after-chunks M]
/// [--hang-after-chunks M] [--hold-until FILE]`
fn worker_main(args: &[String]) {
    let mut it = args.iter();
    let mut frontier = None;
    let mut worker = None;
    let mut store = None;
    let mut len = GRID;
    let mut steal_ms = 2000u64;
    let mut crash_after_chunks = None;
    let mut hang_after_chunks: Option<usize> = None;
    let mut hold_until = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--frontier" => frontier = it.next().cloned(),
            "--worker-id" => worker = it.next().cloned(),
            "--store" => store = it.next().cloned(),
            "--grid" => len = it.next().unwrap().parse().unwrap(),
            "--steal-ms" => steal_ms = it.next().unwrap().parse().unwrap(),
            "--crash-after-chunks" => {
                crash_after_chunks = Some(it.next().unwrap().parse().unwrap())
            }
            "--hang-after-chunks" => hang_after_chunks = Some(it.next().unwrap().parse().unwrap()),
            "--hold-until" => hold_until = it.next().map(PathBuf::from),
            other => panic!("unknown worker flag {other}"),
        }
    }
    let worker = worker.expect("--worker-id");
    if let Some(release) = hold_until {
        // Touch nothing until the file appears.
        let deadline = Instant::now() + Duration::from_secs(60);
        while !release.exists() {
            assert!(
                Instant::now() < deadline,
                "{} never appeared",
                release.display()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let store = store.expect("--store");
    let mut cfg = FrontierWorkerConfig::new(frontier.expect("--frontier"), worker.clone(), store);
    cfg.steal_timeout = Duration::from_millis(steal_ms);
    cfg.poll = Duration::from_millis(20);
    cfg.crash_after_chunks = crash_after_chunks;
    let progress =
        run_worker_frontier::<Maintenance>(&SweepRunner::serial(), grid_of(len), &cfg, |p| {
            println!(
                "progress worker={worker} chunks={} points={} hits={} misses={}",
                p.chunks, p.points, p.hits, p.misses
            );
            if hang_after_chunks.is_some_and(|n| p.chunks >= n) {
                // A wedged worker: alive but never progressing again. The
                // driver's stall timeout is what gets us out of here.
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
        })
        .unwrap_or_else(|e| panic!("frontier worker {worker}: {e}"));
    println!(
        "worker {worker} complete: {} chunk(s), {} point(s) ({} hits, {} misses)",
        progress.chunks, progress.points, progress.hits, progress.misses
    );
}

// ---------------------------------------------------------------------------
// Server mode (for the service fleet).
// ---------------------------------------------------------------------------

/// `--serve --socket PATH --store FILE`
fn serve_main(args: &[String]) {
    let mut it = args.iter();
    let mut socket = None;
    let mut store = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--socket" => socket = it.next().cloned(),
            "--store" => store = it.next().cloned(),
            other => panic!("unknown serve flag {other}"),
        }
    }
    let cfg = wl_harness::ServeConfig {
        addr: ServiceAddr::parse(&format!("unix:{}", socket.expect("--socket"))).unwrap(),
        store: PathBuf::from(store.expect("--store")),
        threads: 1,
        crash_after_batches: None,
    };
    wl_harness::serve(&cfg, |addr| println!("ready on {addr}")).expect("serve");
}

// ---------------------------------------------------------------------------
// The fixture.
// ---------------------------------------------------------------------------

/// Per-slot fault injection for one drive.
#[derive(Clone, Copy, Default)]
struct Fault {
    slot: u32,
    /// `--crash-after-chunks 1` on this slot (first launch only unless
    /// `every_launch`).
    crash: bool,
    /// Crash injection survives restarts (for budget-exhaustion runs).
    every_launch: bool,
    /// `--hang-after-chunks 1` on this slot's first launch.
    hang: bool,
    /// This slot's first launch holds for a file that never appears: it
    /// claims nothing, and the driver kills it once its peers complete
    /// the frontier.
    idle: bool,
}

struct Server {
    child: Child,
    addr: ServiceAddr,
}

impl Server {
    fn spawn(dir: &Path) -> Self {
        let sock = dir.join("wl.sock");
        let child = Command::new(std::env::current_exe().expect("own path"))
            .arg("--serve")
            .arg("--socket")
            .arg(&sock)
            .arg("--store")
            .arg(dir.join("server.wls"))
            .spawn()
            .expect("spawn server");
        // The server removes any stale socket before binding, so the
        // file's (re)appearance is the ready signal.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !sock.exists() {
            assert!(Instant::now() < deadline, "server socket never appeared");
            std::thread::sleep(Duration::from_millis(5));
        }
        let addr = ServiceAddr::parse(&format!("unix:{}", sock.display())).unwrap();
        Self { child, addr }
    }

    fn shutdown(mut self) {
        ServiceClient::new(self.addr.clone())
            .shutdown()
            .expect("shutdown");
        let status = self.child.wait().expect("server exit");
        assert!(status.success(), "server exited {status}");
    }
}

/// A failed assertion must not leave the server running: it holds this
/// test's stdout, and `cargo test` would wait on it forever.
impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One frontier drive of the test grid with fault `fault`. Workers see
/// `WL_SWEEP_SERVICE` set to `service`, or `off` so an inherited one
/// cannot turn misses into hits.
fn run_drive(
    cfg: &FrontierDriverConfig,
    fault: Fault,
    service: Option<&ServiceAddr>,
) -> Result<FrontierDriveReport, FrontierDriveError> {
    run_drive_of(GRID, cfg, fault, service)
}

/// [`run_drive`] over the first `len` points of the test grid's sequence.
fn run_drive_of(
    len: usize,
    cfg: &FrontierDriverConfig,
    fault: Fault,
    service: Option<&ServiceAddr>,
) -> Result<FrontierDriveReport, FrontierDriveError> {
    let service = service.map_or_else(|| "off".to_string(), ToString::to_string);
    // A first-launch crash happens only if the faulted worker claims a
    // chunk, and a peer can drain the whole frontier before it does. So
    // its peers hold until the driver launches its restart — which it
    // does only once it has seen the crash.
    let hold = fault.crash && !fault.every_launch;
    let restart_launched = cfg.dir.join("restart-launched");
    let never = cfg.dir.join("never");
    let command_for = move |launch: &WorkerLaunch| {
        if hold && launch.slot == fault.slot && launch.attempt > 0 {
            std::fs::write(&restart_launched, b"").expect("release the held peers");
        }
        let mut cmd = Command::new(std::env::current_exe().expect("own path"));
        cmd.arg("--frontier-worker")
            .arg("--frontier")
            .arg(&launch.frontier)
            .arg("--worker-id")
            .arg(&launch.worker)
            .arg("--store")
            .arg(&launch.store)
            .arg("--grid")
            .arg(len.to_string())
            .arg("--steal-ms")
            .arg("400")
            .env("WL_SWEEP_SERVICE", &service);
        if launch.slot == fault.slot && (launch.attempt == 0 || fault.every_launch) {
            if fault.crash {
                cmd.arg("--crash-after-chunks").arg("1");
            }
            if fault.hang {
                cmd.arg("--hang-after-chunks").arg("1");
            }
            if fault.idle {
                cmd.arg("--hold-until").arg(&never);
            }
        } else if hold && launch.attempt == 0 {
            cmd.arg("--hold-until").arg(&restart_launched);
        }
        cmd
    };
    drive_frontier::<Maintenance>(
        cfg,
        &grid_of(len),
        &mut SubprocessTransport::new(command_for),
    )
}

fn config(name: &str, workers: u32, chunk: usize) -> FrontierDriverConfig {
    let dir = std::env::temp_dir().join(format!("wl-conform-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("merged.wls");
    let mut cfg = FrontierDriverConfig::new(workers, dir, out);
    cfg.chunk = Some(chunk);
    cfg.poll = Duration::from_millis(10);
    cfg.steal_timeout = Duration::from_millis(400);
    cfg
}

/// The 1-process reference bytes every scenario compares against,
/// computed in-process once for the whole suite.
fn reference_bytes() -> &'static [u8] {
    static REFERENCE: OnceLock<Vec<u8>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let cache = SweepCache::new();
        let _ = SweepRequest::new()
            .threads(1)
            .cached(&cache)
            .run::<Maintenance>(grid());
        saved_bytes(&cache, "ref")
    })
}

/// The bytes of a fresh store that absorbed `cache`.
fn saved_bytes(cache: &SweepCache, name: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("wl-conform-{}-{name}.wls", std::process::id()));
    let mut store = SweepStore::open(&path).unwrap();
    store.absorb(cache);
    store.save().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

/// Reads `(hits, misses)` off the last completion line in a worker log —
/// `worker ID complete: C chunk(s), P point(s) (H hits, M misses)`.
fn final_hits_misses(log: &Path) -> (u64, u64) {
    let text = std::fs::read_to_string(log).expect("worker log");
    let line = text
        .lines()
        .rev()
        .find(|l| l.contains("complete:"))
        .expect("completion line");
    let (_, counts) = line.rsplit_once('(').expect("counts in parentheses");
    let nums: Vec<u64> = counts
        .split([' ', ')'])
        .filter_map(|t| t.parse().ok())
        .collect();
    assert_eq!(nums.len(), 2, "hits, misses in {line:?}");
    (nums[0], nums[1])
}

// ---------------------------------------------------------------------------
// The scenarios.
// ---------------------------------------------------------------------------

/// 3 workers stealing 3-point chunks (ragged 2-point last chunk) merge
/// byte-identical to the 1-process reference.
fn scenario_bytes_match() {
    let cfg = config("bytes", 3, 3);
    let report = run_drive(&cfg, Fault::default(), None).expect("clean drive");
    assert_eq!(report.merged_records, GRID);
    assert_eq!(report.restarts, 0);
    // A worker that never won a claim writes no store, so how many
    // stores there are is timing, not contract.
    assert!(report.stores_merged >= 1, "no worker store harvested");
    assert_eq!(
        std::fs::read(&cfg.out).unwrap(),
        reference_bytes(),
        "3-worker merged store != 1-process reference"
    );
    let _ = std::fs::remove_dir_all(&cfg.dir);
    println!("ok: 3-worker drive byte-identical to 1-process run");
}

/// A completed 3-worker directory, its output deleted, re-driven by one
/// worker: the frontier is already complete, so the harvest alone must
/// rebuild the bytes. Slot 0 idles through the first drive, so every
/// record lives in a store the re-drive's one slot does not own.
fn scenario_redrive_harvests_every_store() {
    let cfg = config("redrive", 3, 3);
    let idle = Fault {
        slot: 0,
        idle: true,
        ..Fault::default()
    };
    let report = run_drive(&cfg, idle, None).expect("3-worker drive");
    assert!(!cfg.worker_store(0).exists(), "the idle slot wrote a store");
    assert!(report.stores_merged >= 1);
    assert_eq!(std::fs::read(&cfg.out).unwrap(), reference_bytes());

    std::fs::remove_file(&cfg.out).unwrap();
    let solo = FrontierDriverConfig { workers: 1, ..cfg };
    let again = run_drive(&solo, Fault::default(), None).expect("1-worker re-drive");
    assert_eq!(again.stores_merged, report.stores_merged);
    assert_eq!(
        std::fs::read(&solo.out).unwrap(),
        reference_bytes(),
        "1-worker re-drive of a 3-worker directory != 1-process reference"
    );
    let _ = std::fs::remove_dir_all(&solo.dir);
    println!(
        "ok: a 1-worker re-drive merges the {} store(s) its slot does not own",
        report.stores_merged
    );
}

/// A worker hard-aborted after checkpointing its first chunk — claim
/// left orphaned, the `kill -9` shape — is restarted; the orphan is
/// requeued after the steal timeout and re-claimed (by the restart or a
/// peer); the merge is byte-identical anyway. The peer starts only once
/// the restart is launched (see `run_drive`): a peer that drained the
/// frontier first would leave the faulted worker nothing to crash on.
fn scenario_crash_mid_sweep() {
    let cfg = config("crash", 2, 2);
    let fault = Fault {
        slot: 0,
        crash: true,
        ..Fault::default()
    };
    let report = run_drive(&cfg, fault, None).expect("crash drive");
    assert!(report.restarts >= 1, "the injected crash must restart");
    assert_eq!(report.merged_records, GRID);
    assert_eq!(report.skipped_lines, 0, "checkpoints load clean");
    let merged = std::fs::read(&cfg.out).unwrap();
    assert!(
        merged.starts_with(b"WLSB"),
        "merged output is a binary store"
    );
    assert_eq!(
        merged,
        reference_bytes(),
        "post-crash merged store != 1-process reference"
    );
    let _ = std::fs::remove_dir_all(&cfg.dir);
    println!("ok: kill-mid-sweep restart converges byte-identically");
}

/// A lone worker hard-aborted after checkpointing its first chunk is
/// restarted and *resumes*: the restart re-claims the orphaned chunk once
/// it is requeued and serves it from its hydrated store, so its
/// completion line reads one chunk of hits and the rest of the grid as
/// misses.
fn scenario_crash_resumes_not_redoes() {
    let cfg = config("resume", 1, 2);
    let fault = Fault {
        slot: 0,
        crash: true,
        ..Fault::default()
    };
    let report = run_drive(&cfg, fault, None).expect("resume drive");
    assert_eq!(report.restarts, 1, "exactly the injected crash restarted");
    assert_eq!(
        final_hits_misses(&cfg.worker_log(0)),
        (report.chunk as u64, (GRID - report.chunk) as u64),
        "restart must resume, not redo"
    );
    assert_eq!(std::fs::read(&cfg.out).unwrap(), reference_bytes());
    let _ = std::fs::remove_dir_all(&cfg.dir);
    println!("ok: crashed worker resumed from its checkpoint");
}

/// The parent is not the clock: a monitor that polls every 30 s still
/// returns — merged bytes right — when its last worker exits, a few
/// milliseconds in. The one wall-clock bound in this suite, at a 1000×
/// margin: a monitor that only slept `poll` would take the full 30 s.
fn scenario_completion_is_noticed_when_it_happens() {
    let mut cfg = config("wake", 2, 4);
    cfg.poll = Duration::from_secs(30);
    let started = Instant::now();
    let report = run_drive(&cfg, Fault::default(), None).expect("clean drive");
    let took = started.elapsed();
    assert!(took < cfg.poll, "the drive waited out its poll: {took:?}");
    assert_eq!((report.merged_records, report.restarts), (GRID, 0));
    assert_eq!(std::fs::read(&cfg.out).unwrap(), reference_bytes());
    let _ = std::fs::remove_dir_all(&cfg.dir);
    println!("ok: completion noticed in {took:?}, not at the 30 s poll");
}

/// A worker store damaged *between* drives — truncated mid-record, then
/// at a record boundary — costs exactly the lost record on a re-drive
/// into the same directory (the loader skips the tear, the worker
/// re-simulates only that point), and the merge is byte-identical. The
/// store is first rewritten one record per segment (a store keeps its
/// file's capacity), so a cut costs one record, not a packed segment.
fn scenario_damaged_store_costs_only_the_tail() {
    let cfg = config("truncate", 1, 3);
    let store = cfg.worker_store(0);
    run_drive(&cfg, Fault::default(), None).expect("initial drive");
    assert_eq!(std::fs::read(&cfg.out).unwrap(), reference_bytes());

    for name in ["mid-record", "boundary"] {
        // Mid-record: 10 bytes off the tail, so the last segment fails
        // its checksum. Boundary: the final segment dropped whole.
        let mid_record = name == "mid-record";
        let bytes = std::fs::read(&store).unwrap();
        let records: Vec<EncodedRecord> = SegmentReader::new(&bytes).expect("binary").collect();
        assert_eq!(records.len(), GRID, "{name}: one version of each record");
        let full = write_file(&records, 1);
        let boundary = write_file(&records[..GRID - 1], 1);
        assert!(full.starts_with(&boundary), "segments are written in order");
        let cut = if mid_record {
            full.len() - 10
        } else {
            boundary.len()
        };
        std::fs::write(&store, &full[..cut]).unwrap();
        let damaged = SweepStore::open(&store).unwrap();
        assert_eq!(damaged.len(), GRID - 1, "{name}: one record lost");
        assert_eq!(damaged.skipped_lines(), usize::from(mid_record), "{name}");

        // A fresh frontier and log, so every chunk is re-claimed and the
        // completion line below belongs to this drive.
        std::fs::remove_dir_all(cfg.frontier_dir()).unwrap();
        std::fs::remove_file(cfg.worker_log(0)).unwrap();
        std::fs::remove_file(&cfg.out).unwrap();
        run_drive(&cfg, Fault::default(), None).expect("resume drive");
        assert_eq!(
            final_hits_misses(&cfg.worker_log(0)),
            (GRID as u64 - 1, 1),
            "{name}: the worker re-runs exactly the damaged record"
        );
        assert_eq!(
            std::fs::read(&cfg.out).unwrap(),
            reference_bytes(),
            "{name}: resume over a damaged store != clean store"
        );
    }
    let _ = std::fs::remove_dir_all(&cfg.dir);
    println!("ok: mid-record and boundary truncations cost exactly the damaged tail");
}

/// A single wedged worker — alive, no progress, and *no peers* to steal
/// around it — is `SIGKILL`ed on heartbeat timeout and restarted; the
/// restart resumes from its checkpoints and the merge is byte-identical.
/// (One worker on purpose: with peers, work stealing would mask the
/// stall instead of exercising the kill path.)
fn scenario_stall_kill() {
    let mut cfg = config("stall", 1, 3);
    // Generous relative to a healthy worker's inter-chunk time (tens of
    // ms even in debug builds) so only the deliberately hung worker can
    // ever trip it.
    cfg.stall_timeout = Some(Duration::from_millis(2000));
    let fault = Fault {
        slot: 0,
        hang: true,
        ..Fault::default()
    };
    let report = run_drive(&cfg, fault, None).expect("stall drive");
    assert_eq!(report.stall_kills, 1, "the hung worker was SIGKILLed");
    assert_eq!(report.restarts, 1);
    assert_eq!(report.merged_records, GRID);
    assert_eq!(
        std::fs::read(&cfg.out).unwrap(),
        reference_bytes(),
        "post-stall merged store != 1-process reference"
    );
    let _ = std::fs::remove_dir_all(&cfg.dir);
    println!("ok: stalled worker killed, restarted; drive converged");
}

/// A worker that crashes on **every** launch exhausts its restart budget
/// and retires its slot; with no slots left the drive fails with
/// `WorkersExhausted` — a clear error, never a hang.
fn scenario_retry_exhaustion() {
    let mut cfg = config("exhaust", 1, 2);
    cfg.max_restarts = 1;
    let fault = Fault {
        slot: 0,
        crash: true,
        every_launch: true,
        ..Fault::default()
    };
    match run_drive(&cfg, fault, None).expect_err("budget must run out") {
        FrontierDriveError::WorkersExhausted { chunks_left, .. } => {
            assert!(chunks_left >= 1, "chunks must remain unfinished");
        }
        other => panic!("expected WorkersExhausted, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&cfg.dir);
    println!("ok: restart-budget exhaustion fails the drive cleanly");
}

/// A service-backed fleet is a drive whose workers see
/// `WL_SWEEP_SERVICE`: they offer each chunk to the server and push what
/// they simulate back. The merge is the reference bytes, and the server,
/// asked before it shuts down, holds every record — a tier that quietly
/// fell back to local simulation would leave it empty.
fn scenario_service_fleet() {
    let cfg = config("service", 3, 3);
    let server = Server::spawn(&cfg.dir);
    let report = run_drive(&cfg, Fault::default(), Some(&server.addr));
    let stats = ServiceClient::new(server.addr.clone())
        .stats()
        .expect("stats");
    server.shutdown();
    let report = report.expect("service-backed drive");
    assert_eq!(report.merged_records, GRID);
    assert_eq!(stats.records, GRID as u64, "the server holds every record");
    assert_eq!(
        std::fs::read(&cfg.out).unwrap(),
        reference_bytes(),
        "service-backed merged store != 1-process reference"
    );
    let _ = std::fs::remove_dir_all(&cfg.dir);
    println!("ok: service-backed fleet byte-identical; the server holds all {GRID} records");
}

/// A drive that names no granule over a directory whose frontier an
/// earlier drive cut into 4-point chunks and left half drained: it
/// adopts 4 (its own rule would pick 7 for 200 points on two workers)
/// and simulates only the undone half, counted off the two slots'
/// fresh stores, where every record is a miss. The same directory with
/// an explicit chunk of 8 is refused naming `chunk`, before any spawn.
fn scenario_resume_adopts_the_recorded_granule() {
    const LEN: usize = 200;
    let mut cfg = config("granule", 2, 8);
    let grid = grid_of(LEN);
    let frontier = Frontier::init(
        cfg.frontier_dir(),
        FrontierSpec::for_grid::<Maintenance>(&grid, 4),
    )
    .unwrap();
    // The earlier drive's first half: every chunk done, its records in a
    // store neither slot of this drive owns.
    let cache = SweepCache::new();
    let _ = SweepRequest::new()
        .threads(1)
        .cached(&cache)
        .run::<Maintenance>(grid[..LEN / 2].to_vec());
    std::fs::write(
        cfg.dir.join("worker-early.wls"),
        saved_bytes(&cache, "early"),
    )
    .unwrap();
    for _ in 0..LEN / 2 / 4 {
        let claim = frontier.claim("early").unwrap().expect("a todo chunk");
        assert!(claim.complete().unwrap());
    }
    let _ = SweepRequest::new()
        .threads(1)
        .cached(&cache)
        .run::<Maintenance>(grid.clone());
    let reference = saved_bytes(&cache, "granule-ref");

    let mut refuse = SubprocessTransport::new(|_: &WorkerLaunch| -> Command {
        panic!("no worker may be spawned against a frontier cut otherwise")
    });
    match drive_frontier::<Maintenance>(&cfg, &grid, &mut refuse) {
        Err(FrontierDriveError::Frontier(FrontierError::Mismatch { field, .. })) => {
            assert_eq!(field, "chunk");
        }
        other => panic!("expected a chunk mismatch, got {other:?}"),
    }

    cfg.chunk = None;
    let report = run_drive_of(LEN, &cfg, Fault::default(), None).expect("resumed drive");
    assert_eq!(report.chunk, 4, "the drive adopts the recorded granule");
    assert_eq!(report.merged_records, LEN);
    let simulated: usize = (0..cfg.workers)
        .map(|slot| cfg.worker_store(slot))
        .filter(|store| store.exists())
        .map(|store| SweepStore::open(&store).unwrap().len())
        .sum();
    assert_eq!(simulated, LEN / 2, "only the undone points are simulated");
    assert_eq!(std::fs::read(&cfg.out).unwrap(), reference);
    let _ = std::fs::remove_dir_all(&cfg.dir);
    println!("ok: a drive naming no granule resumes a chunk-4 frontier at 4");
}
