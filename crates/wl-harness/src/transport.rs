//! The multi-process sweep driver: [`drive_frontier`]'s monitor loop
//! over one worker topology, the drive directory:
//!
//! ```text
//! <dir>/frontier            # the work-stealing frontier
//! <dir>/worker-<slot>.wls   # slot <slot>'s checkpointed store
//! <dir>/worker-<slot>.log   # its stdout/stderr, across restarts
//! ```
//!
//! * [`WorkerTransport`] — how a worker process is invoked and which
//!   stores exist at harvest. [`SubprocessTransport`] is its one
//!   implementor: local subprocesses built by the caller's closure, and
//!   a harvest that merges every `worker-*.wls` in the drive directory.
//!   The directory is therefore also a drop box: a machine sharing
//!   `<dir>` that claims from `<dir>/frontier` and checkpoints into
//!   `<dir>/worker-<id>.wls` merges in like a local slot. A
//!   service-backed fleet is a drive run with `WL_SWEEP_SERVICE` set:
//!   workers inherit the driver's environment, so each resolves its
//!   chunks *local store → shared service → simulate* and pushes fresh
//!   results back per chunk.
//! * [`drive_frontier`] — the monitor loop: spawn `cfg.workers`
//!   processes, restart crashed ones under a per-slot budget, `SIGKILL`
//!   stalled ones, requeue orphaned frontier claims so live workers
//!   steal dead workers' chunks, and — once every chunk is `.done` —
//!   merge whatever [`WorkerTransport::stores`] reports into one
//!   canonical output store. A pass runs every `cfg.poll`, and at once
//!   when a worker exits: completion and crashes are noticed when they
//!   happen, not at the next quantum.
//!
//! A worker that exhausts its restart budget *retires its slot* but
//! does not fail the drive — its chunks are requeued and the survivors
//! absorb them. The drive fails only when every slot is retired and the
//! frontier is still incomplete.
//!
//! The contract, proven by `tests/transport_conformance.rs`: the merged
//! store is byte-identical to a 1-process run over the same grid, for
//! any worker count, chunk interleaving, mid-sweep kill schedule or
//! service tier. See `docs/sweeps.md` § "The driver".

use crate::cache::{MergeConflict, StoreFormat, SweepStore};
use crate::frontier::{Frontier, FrontierError, FrontierSpec};
use crate::spec::ScenarioSpec;
use crate::sweep::SweepAlgorithm;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

/// Configuration of a [`drive_frontier`] run (the parent side).
#[derive(Debug, Clone)]
pub struct FrontierDriverConfig {
    /// Worker subprocesses to keep alive.
    pub workers: u32,
    /// Driver working directory: the frontier, worker stores and worker
    /// logs live here. Created if missing.
    pub dir: PathBuf,
    /// Path of the merged output store.
    pub out: PathBuf,
    /// Grid points per frontier chunk (the work-stealing granule; see
    /// [`FrontierSpec::chunk`]).
    pub chunk: usize,
    /// Restart budget **per worker slot**: a slot's worker may crash (or
    /// stall) at most this many times before the slot retires. Retiring
    /// a slot is not fatal while other slots survive — work stealing
    /// reassigns its chunks.
    pub max_restarts: u32,
    /// Monitor poll interval.
    pub poll: Duration,
    /// If set, a worker whose heartbeat (store mtime/size, log size) has
    /// not changed for this long is `SIGKILL`ed and restarted, consuming
    /// one restart. `None` trusts workers to either exit or make
    /// progress.
    pub stall_timeout: Option<Duration>,
    /// Frontier claims whose heartbeat is older than this are requeued
    /// by the monitor loop, making a dead worker's chunks stealable.
    pub steal_timeout: Duration,
    /// Format of the merged output store (worker stores keep whatever
    /// format their workers wrote; the merge auto-detects per file).
    pub format: StoreFormat,
}

impl FrontierDriverConfig {
    /// A config with the defaults the `sweep_drive` bin uses: 2 restarts
    /// per slot, 50 ms poll, no stall timeout, 2 s steal timeout.
    #[must_use]
    pub fn new(workers: u32, dir: impl Into<PathBuf>, out: impl Into<PathBuf>) -> Self {
        Self {
            workers,
            dir: dir.into(),
            out: out.into(),
            chunk: 4,
            max_restarts: 2,
            poll: Duration::from_millis(50),
            stall_timeout: None,
            steal_timeout: Duration::from_secs(2),
            format: StoreFormat::default(),
        }
    }

    /// The frontier directory every worker opens: `<dir>/frontier`.
    #[must_use]
    pub fn frontier_dir(&self) -> PathBuf {
        self.dir.join("frontier")
    }

    /// The store worker slot `slot` checkpoints into:
    /// `<dir>/worker-<slot>.wls`. Stable per slot, not per launch, so a
    /// restarted worker hydrates its predecessor's checkpoints.
    #[must_use]
    pub fn worker_store(&self, slot: u32) -> PathBuf {
        self.dir.join(format!("worker-{slot}.wls"))
    }

    /// The log file worker slot `slot`'s stdout/stderr are appended to
    /// (across restarts, so the crash story reads in one place).
    #[must_use]
    pub fn worker_log(&self, slot: u32) -> PathBuf {
        self.dir.join(format!("worker-{slot}.log"))
    }
}

/// Everything a transport needs to build one worker invocation.
#[derive(Debug, Clone)]
pub struct WorkerLaunch {
    /// Stable worker slot (0-based).
    pub slot: u32,
    /// Launch attempt for this slot (0 = initial; restarts count up), so
    /// fault injection can be confined to first launches.
    pub attempt: u32,
    /// The claim identity this launch must use (`w<slot>-a<attempt>`) —
    /// unique per launch, so a restarted worker's fresh claims are
    /// distinguishable from its orphaned ones in a post-mortem.
    pub worker: String,
    /// The frontier directory the worker must open.
    pub frontier: PathBuf,
    /// The store the worker must checkpoint into
    /// ([`FrontierDriverConfig::worker_store`]).
    pub store: PathBuf,
}

// ---------------------------------------------------------------------------
// The transport.
// ---------------------------------------------------------------------------

/// How a frontier drive launches its workers and what it merges at
/// harvest. The merge is equality-confirmed, so reporting a store that
/// holds nothing new is safe and leaving one out loses work.
pub trait WorkerTransport {
    /// Builds the invocation for one worker launch — typically "this
    /// very binary with `--frontier-worker`". The driver owns
    /// stdout/stderr (both append to [`FrontierDriverConfig::worker_log`]).
    fn command(&mut self, cfg: &FrontierDriverConfig, launch: &WorkerLaunch) -> Command;

    /// Every store to merge once the frontier is complete.
    ///
    /// # Errors
    ///
    /// Directory enumeration failures.
    fn stores(&self, cfg: &FrontierDriverConfig) -> io::Result<Vec<PathBuf>>;
}

/// Workers as local subprocesses, built by a caller's closure, over the
/// drive directory's layout.
pub struct SubprocessTransport<F: FnMut(&WorkerLaunch) -> Command> {
    command_for: F,
}

impl<F: FnMut(&WorkerLaunch) -> Command> SubprocessTransport<F> {
    /// A subprocess transport launching workers via `command_for`.
    pub fn new(command_for: F) -> Self {
        Self { command_for }
    }
}

impl<F: FnMut(&WorkerLaunch) -> Command> WorkerTransport for SubprocessTransport<F> {
    fn command(&mut self, _cfg: &FrontierDriverConfig, launch: &WorkerLaunch) -> Command {
        (self.command_for)(launch)
    }

    /// Scans `<dir>/worker-*.wls`, sorted — the slots' stores, stores a
    /// wider earlier drive left behind, and deposits from machines this
    /// driver never launched.
    fn stores(&self, cfg: &FrontierDriverConfig) -> io::Result<Vec<PathBuf>> {
        let mut stores = Vec::new();
        for entry in std::fs::read_dir(&cfg.dir)? {
            let path = entry?.path();
            let is_worker = path
                .file_name()
                .is_some_and(|name| name.to_string_lossy().starts_with("worker-"));
            if is_worker && path.extension().is_some_and(|e| e == "wls") {
                stores.push(path);
            }
        }
        stores.sort();
        Ok(stores)
    }
}

// ---------------------------------------------------------------------------
// The drive.
// ---------------------------------------------------------------------------

/// What a completed [`drive_frontier`] did.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontierDriveReport {
    /// Records in the merged output store.
    pub merged_records: usize,
    /// Worker restarts across all slots (crashes + stall kills).
    pub restarts: u32,
    /// How many of those restarts were stall kills.
    pub stall_kills: u32,
    /// Worker slots that exhausted their restart budget and retired
    /// (their chunks were stolen by surviving slots).
    pub retired: u32,
    /// Orphaned frontier claims the monitor requeued.
    pub requeued: usize,
    /// Stores merged at harvest: at most one per slot that won a claim,
    /// plus any foreign deposit in the drive directory.
    pub stores_merged: usize,
    /// Corrupt lines skipped while loading stores for the merge.
    pub skipped_lines: usize,
    /// Stale-engine records ignored while loading stores.
    pub stale_records: usize,
    /// Binary-store records superseded by later checkpoint segments.
    pub superseded_records: usize,
}

/// Why a [`drive_frontier`] failed.
#[derive(Debug)]
pub enum FrontierDriveError {
    /// Spawning, polling, or store I/O failed.
    Io(io::Error),
    /// The frontier directory could not be initialized — most
    /// importantly [`FrontierError::Mismatch`]: the directory holds a
    /// *different sweep's* frontier and the drive refuses to touch it.
    Frontier(FrontierError),
    /// Every worker slot retired (restart budgets exhausted) with the
    /// frontier still incomplete — there is nobody left to steal the
    /// remaining chunks.
    WorkersExhausted {
        /// Chunks still not `.done` when the last slot retired.
        chunks_left: usize,
        /// The drive directory, where the worker logs tell the story.
        dir: PathBuf,
    },
    /// Two stores disagreed at harvest — the determinism contract was
    /// broken (mixed engine builds, foreign stores in the drive dir).
    Merge(MergeConflict),
}

impl std::fmt::Display for FrontierDriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "frontier driver I/O failure: {e}"),
            Self::Frontier(e) => write!(f, "{e}"),
            Self::WorkersExhausted { chunks_left, dir } => write!(
                f,
                "every worker slot exhausted its restart budget with {chunks_left} chunk(s) \
                 unfinished (see worker logs under {})",
                dir.display()
            ),
            Self::Merge(c) => write!(f, "store merge failed: {c}"),
        }
    }
}

impl std::error::Error for FrontierDriveError {}

impl From<io::Error> for FrontierDriveError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<FrontierError> for FrontierDriveError {
    fn from(e: FrontierError) -> Self {
        match e {
            FrontierError::Io(e) => Self::Io(e),
            e => Self::Frontier(e),
        }
    }
}

/// The heartbeat signature of one worker: (store mtime + size, log size).
/// Any change counts as life; checkpoint saves touch the store, progress
/// lines grow the log.
type BeatSig = (Option<(SystemTime, u64)>, u64);

fn beat_sig(store: &Path, log: &Path) -> BeatSig {
    let store_sig = std::fs::metadata(store)
        .ok()
        .and_then(|m| Some((m.modified().ok()?, m.len())));
    let log_len = std::fs::metadata(log).map_or(0, |m| m.len());
    (store_sig, log_len)
}

fn spawn_worker(mut cmd: Command, log: &Path) -> io::Result<Child> {
    let log_file = std::fs::File::options()
        .create(true)
        .append(true)
        .open(log)?;
    let err_file = log_file.try_clone()?;
    cmd.stdin(Stdio::null())
        .stdout(Stdio::from(log_file))
        .stderr(Stdio::from(err_file))
        .spawn()
}

struct Slot {
    slot: u32,
    store: PathBuf,
    log: PathBuf,
    child: Child,
    /// Launches so far (1 = initial).
    attempts: u32,
    last_beat: Instant,
    sig: BeatSig,
    /// Exited 0 (frontier was complete when it looked).
    done: bool,
    /// Restart budget exhausted; nobody mans this slot anymore.
    retired: bool,
}

impl Slot {
    fn live(&self) -> bool {
        !self.done && !self.retired
    }
}

/// Initializes the frontier for `grid` (refusing a foreign one), runs
/// `cfg.workers` worker processes over `transport`, keeps them alive
/// (restart on crash under a per-slot budget, optional stall kill,
/// orphan-claim requeue so survivors steal dead workers' chunks), and —
/// once every chunk is `.done` — merges the transport's stores into
/// [`FrontierDriverConfig::out`].
///
/// On success the merged store is canonical: byte-identical to what a
/// 1-process run over the same grid saves, whatever the worker count or
/// kill schedule (`tests/transport_conformance.rs`).
///
/// # Errors
///
/// [`FrontierDriveError::Frontier`] when the frontier directory belongs
/// to a different sweep, [`FrontierDriveError::WorkersExhausted`] when
/// every slot retires with chunks unfinished,
/// [`FrontierDriveError::Merge`] when stores disagree at harvest,
/// [`FrontierDriveError::Io`] for spawn/poll/store failures.
///
/// # Panics
///
/// Panics if `cfg.workers == 0` or `cfg.chunk == 0`.
pub fn drive_frontier<A: SweepAlgorithm>(
    cfg: &FrontierDriverConfig,
    grid: &[ScenarioSpec],
    transport: &mut impl WorkerTransport,
) -> Result<FrontierDriveReport, FrontierDriveError> {
    assert!(
        cfg.workers >= 1,
        "frontier driver needs at least one worker"
    );
    std::fs::create_dir_all(&cfg.dir)?;
    let frontier = Frontier::init(
        cfg.frontier_dir(),
        FrontierSpec::for_grid::<A>(grid, cfg.chunk),
    )?;
    let mut report = FrontierDriveReport::default();

    let mut slots: Vec<Slot> = Vec::with_capacity(cfg.workers as usize);
    for slot in 0..cfg.workers {
        let log = cfg.worker_log(slot);
        let child = match spawn_worker(transport.command(cfg, &launch_for(cfg, slot, 0)), &log) {
            Ok(child) => child,
            Err(e) => {
                kill_live(&mut slots);
                return Err(e.into());
            }
        };
        slots.push(Slot {
            slot,
            store: cfg.worker_store(slot),
            log,
            child,
            attempts: 1,
            last_beat: Instant::now(),
            sig: (None, 0),
            done: false,
            retired: false,
        });
    }

    let result = monitor(cfg, &frontier, &mut slots, transport, &mut report);
    kill_live(&mut slots);
    result?;

    let mut merged = SweepStore::new();
    merged.set_format(cfg.format);
    for path in transport.stores(cfg)? {
        let store = SweepStore::open(&path)?;
        report.skipped_lines += store.skipped_lines();
        report.stale_records += store.stale_records();
        report.superseded_records += store.superseded_records();
        merged
            .merge_from(&store)
            .map_err(FrontierDriveError::Merge)?;
        report.stores_merged += 1;
    }
    merged.save_to(&cfg.out)?;
    report.merged_records = merged.len();
    Ok(report)
}

fn launch_for(cfg: &FrontierDriverConfig, slot: u32, attempt: u32) -> WorkerLaunch {
    WorkerLaunch {
        slot,
        attempt,
        worker: format!("w{slot}-a{attempt}"),
        frontier: cfg.frontier_dir(),
        store: cfg.worker_store(slot),
    }
}

fn kill_live(slots: &mut [Slot]) {
    for slot in slots {
        if slot.live() {
            let _ = slot.child.kill();
            let _ = slot.child.wait();
        }
    }
}

fn monitor(
    cfg: &FrontierDriverConfig,
    frontier: &Frontier,
    slots: &mut [Slot],
    transport: &mut impl WorkerTransport,
    report: &mut FrontierDriveReport,
) -> Result<(), FrontierDriveError> {
    loop {
        // Completion first: `.done` files are only ever created, so a
        // complete frontier stays complete — even if the very last
        // worker crashed between its final rename and its exit(0).
        if frontier.is_complete()? {
            return Ok(());
        }
        let mut any_live = false;
        for slot in slots.iter_mut() {
            if !slot.live() {
                continue;
            }
            if let Some(status) = slot.child.try_wait()? {
                if status.success() {
                    slot.done = true;
                    continue;
                }
                restart(cfg, slot, transport, report)?;
            } else {
                // Still running: refresh the heartbeat, stall-kill if
                // asked.
                let sig = beat_sig(&slot.store, &slot.log);
                if sig != slot.sig {
                    slot.sig = sig;
                    slot.last_beat = Instant::now();
                } else if let Some(stall) = cfg.stall_timeout {
                    if slot.last_beat.elapsed() >= stall {
                        let _ = slot.child.kill(); // SIGKILL on unix
                        let _ = slot.child.wait();
                        report.stall_kills += 1;
                        restart(cfg, slot, transport, report)?;
                    }
                }
            }
            any_live = any_live || slot.live();
        }
        // A dead worker's claims go stale and get requeued here, so the
        // survivors steal its chunks instead of waiting for its restart.
        report.requeued += frontier.requeue_stale(cfg.steal_timeout)?;
        if !any_live {
            // Nobody left. A worker exits 0 only on a complete frontier,
            // so reaching here with `done` slots still demands the
            // completion re-check (a straggler's rename may have landed
            // after our scan above).
            if frontier.is_complete()? {
                return Ok(());
            }
            if slots.iter().all(|s| s.retired) {
                let status = frontier.status()?;
                return Err(FrontierDriveError::WorkersExhausted {
                    chunks_left: frontier.chunks() - status.done,
                    dir: cfg.dir.clone(),
                });
            }
        }
        // The next pass is due in `cfg.poll`, or the moment a worker
        // exits: a clean exit means the frontier is complete, a crash
        // wants its restart now — neither should wait out the quantum.
        // (`try_wait` keeps what it finds for the pass to read.)
        let pass = Instant::now();
        while pass.elapsed() < cfg.poll
            && (slots.iter_mut().filter(|slot| slot.live()))
                .all(|slot| matches!(slot.child.try_wait(), Ok(None)))
        {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

fn restart(
    cfg: &FrontierDriverConfig,
    slot: &mut Slot,
    transport: &mut impl WorkerTransport,
    report: &mut FrontierDriveReport,
) -> Result<(), FrontierDriveError> {
    if slot.attempts > cfg.max_restarts {
        // Budget spent: retire the slot. Not fatal — the frontier
        // requeues its claims and surviving slots steal them; the drive
        // fails only when *every* slot has retired (see `monitor`).
        slot.retired = true;
        report.retired += 1;
        return Ok(());
    }
    report.restarts += 1;
    let attempt = slot.attempts; // 1-based: first restart passes attempt=1
    let launch = launch_for(cfg, slot.slot, attempt);
    slot.child = spawn_worker(transport.command(cfg, &launch), &slot.log)?;
    slot.attempts += 1;
    slot.sig = beat_sig(&slot.store, &slot.log);
    slot.last_beat = Instant::now();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(dir: &Path) -> FrontierDriverConfig {
        FrontierDriverConfig::new(2, dir, dir.join("merged.wls"))
    }

    /// The one layout: frontier, per-slot store and per-slot log side by
    /// side in the drive directory, and a launch that names them.
    #[test]
    fn transports_lay_out_their_directories() {
        let dir = std::env::temp_dir().join("wl-transport-layout");
        let cfg = cfg(&dir);
        assert_eq!(cfg.frontier_dir(), dir.join("frontier"));
        assert_eq!(cfg.worker_store(1), dir.join("worker-1.wls"));
        assert_eq!(cfg.worker_log(1), dir.join("worker-1.log"));

        let launch = launch_for(&cfg, 1, 2);
        assert_eq!(launch.worker, "w1-a2");
        assert_eq!(launch.frontier, dir.join("frontier"));
        assert_eq!(launch.store, dir.join("worker-1.wls"));
    }

    /// The harvest merges every `worker-*.wls` in the drive directory —
    /// a deposit from a machine this driver never launched included —
    /// and nothing else that lives there.
    #[test]
    fn dropbox_harvest_scans_foreign_deposits() {
        let dir = std::env::temp_dir().join(format!("wl-transport-scan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = cfg(&dir);
        let transport = SubprocessTransport::new(|_: &WorkerLaunch| Command::new("true"));
        for name in [
            "worker-remote.wls",
            "worker-0.wls",
            "merged.wls",
            "worker-0.log",
            "notes.txt",
            "worker-0.tmp.4242",
        ] {
            std::fs::write(dir.join(name), b"").unwrap();
        }
        assert_eq!(
            transport.stores(&cfg).unwrap(),
            [dir.join("worker-0.wls"), dir.join("worker-remote.wls")]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The stale-frontier rejection path, at the driver level: a
    /// frontier directory left over from a *different* grid makes the
    /// drive fail up front with the mismatch — no worker is ever
    /// spawned, nothing hangs.
    #[test]
    fn foreign_frontier_fails_the_drive_before_any_spawn() {
        use crate::frontier::{Frontier, FrontierError, FrontierSpec};
        use crate::{DelayKind, Maintenance, ScenarioSpec};
        use wl_core::Params;
        use wl_time::RealTime;

        let grid_of = |n: usize| -> Vec<ScenarioSpec> {
            let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
            (0..n)
                .map(|i| {
                    ScenarioSpec::new(params.clone())
                        .seed(i as u64)
                        .delay(DelayKind::Constant)
                        .t_end(RealTime::from_secs(1.5))
                })
                .collect()
        };
        let dir = std::env::temp_dir().join(format!("wl-transport-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = cfg(&dir);

        // An earlier sweep left its frontier behind...
        Frontier::init(
            cfg.frontier_dir(),
            FrontierSpec::for_grid::<Maintenance>(&grid_of(6), cfg.chunk),
        )
        .unwrap();

        // ...and a drive over a different grid must refuse it, before
        // launching anything (the closure panics if consulted).
        let mut transport = SubprocessTransport::new(|_: &WorkerLaunch| -> Command {
            panic!("no worker may be spawned against a foreign frontier")
        });
        let err = drive_frontier::<Maintenance>(&cfg, &grid_of(4), &mut transport)
            .expect_err("foreign frontier must be refused");
        match err {
            FrontierDriveError::Frontier(FrontierError::Mismatch { field, .. }) => {
                assert_eq!(field, "grid_len");
            }
            other => panic!("expected a frontier mismatch, got {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
