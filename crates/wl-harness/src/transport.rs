//! The multi-process sweep driver: [`drive_frontier`]'s monitor loop
//! plus the pluggable *transports* that decide how a fleet of frontier
//! workers is launched, watched, and harvested — so one loop drives
//! local subprocesses, a shared "drop box" directory, or a
//! service-backed fleet.
//!
//! * [`WorkerTransport`] — the topology: where the frontier directory
//!   lives, where a worker's store lands, how a worker process is
//!   invoked, and which stores exist at harvest time. Three backends
//!   ship:
//!   * [`SubprocessTransport`] — the default: local subprocesses,
//!     frontier and stores in the drive directory.
//!   * [`DropBoxTransport`] — everything shared lives under one *drop
//!     box* directory (`frontier/` + `stores/`) that remote machines can
//!     mount or rsync; harvest scans `stores/*.wls`, so deposits from
//!     workers this driver never spawned merge in too.
//!   * [`ServiceTransport`] — subprocess topology plus a
//!     `WL_SWEEP_SERVICE` environment injection, so every worker
//!     resolves points *local store → shared service → simulate* and
//!     pushes fresh results back per chunk (the service's batch
//!     endpoints make that one frame each way per chunk).
//! * [`drive_frontier`] — the monitor loop, transport-agnostic: spawn
//!   `cfg.workers` processes, restart crashed ones under a per-slot
//!   budget, `SIGKILL` stalled ones, requeue orphaned frontier claims so
//!   live workers steal dead workers' chunks, and — once every chunk is
//!   `.done` — merge whatever [`WorkerTransport::stores`] reports into
//!   one canonical output store. A pass runs every `cfg.poll`, and at
//!   once when a worker exits: completion and crashes are noticed when
//!   they happen, not at the next quantum.
//!
//! A worker that exhausts its restart budget *retires its slot* but
//! does not fail the drive — its chunks are requeued and the survivors
//! absorb them. The drive fails only when every slot is retired and the
//! frontier is still incomplete.
//!
//! The contract, proven per transport by
//! `tests/transport_conformance.rs`: the merged store is byte-identical
//! to a 1-process run over the same grid, for any transport, worker
//! count, chunk interleaving, or mid-sweep kill schedule. See
//! `docs/sweeps.md` § "The driver".

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
    /// Driver working directory: worker logs (and, transport permitting,
    /// the frontier and worker stores) live here. Created if missing.
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
    /// The store the worker must checkpoint into. Stable per *slot*
    /// (not per attempt): a restarted worker hydrates its predecessor's
    /// checkpoints and pays only for what never saved.
    pub store: PathBuf,
}

// ---------------------------------------------------------------------------
// The transport trait and its three backends.
// ---------------------------------------------------------------------------

/// The topology half of a frontier drive: where shared state lives, how
/// workers launch, and which stores exist at harvest. Implementations
/// must keep [`WorkerLaunch::store`] stable per slot and must report
/// every store that might hold records in [`stores`](Self::stores) —
/// the merge is equality-confirmed, so over-reporting is safe and
/// under-reporting loses work.
pub trait WorkerTransport {
    /// The directory the frontier lives in (created by
    /// [`drive_frontier`]; workers open it). Must be shared with every
    /// worker the transport reaches.
    fn frontier_dir(&self, cfg: &FrontierDriverConfig) -> PathBuf;

    /// The store path assigned to worker slot `slot`.
    fn worker_store(&self, cfg: &FrontierDriverConfig, slot: u32) -> PathBuf;

    /// Builds the invocation for one worker launch — typically "this
    /// very binary with `--frontier-worker`". The driver owns
    /// stdout/stderr (both append to [`FrontierDriverConfig::worker_log`]).
    fn command(&mut self, cfg: &FrontierDriverConfig, launch: &WorkerLaunch) -> Command;

    /// Every store to merge once the frontier is complete. The default
    /// enumerates the per-slot stores; transports with shared deposit
    /// directories scan them instead.
    ///
    /// # Errors
    ///
    /// Directory enumeration failures.
    fn stores(&self, cfg: &FrontierDriverConfig) -> io::Result<Vec<PathBuf>> {
        Ok((0..cfg.workers)
            .map(|slot| self.worker_store(cfg, slot))
            .collect())
    }
}

/// The local topology: frontier and per-slot stores in the drive
/// directory, workers as local subprocesses.
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
    fn frontier_dir(&self, cfg: &FrontierDriverConfig) -> PathBuf {
        cfg.dir.join("frontier")
    }

    fn worker_store(&self, cfg: &FrontierDriverConfig, slot: u32) -> PathBuf {
        cfg.dir.join(format!("worker-{slot}.wls"))
    }

    fn command(&mut self, _cfg: &FrontierDriverConfig, launch: &WorkerLaunch) -> Command {
        (self.command_for)(launch)
    }
}

/// The shared-directory topology: one *drop box* root holds the frontier
/// (`<root>/frontier`) and every worker's deposited store
/// (`<root>/stores/w<slot>.wls`). Point the root at a shared mount and
/// machines this driver never spawned can join the sweep: they open the
/// same frontier, deposit `*.wls` files into `stores/`, and the harvest
/// scan merges their records exactly like a local worker's.
pub struct DropBoxTransport<F: FnMut(&WorkerLaunch) -> Command> {
    root: Option<PathBuf>,
    command_for: F,
}

impl<F: FnMut(&WorkerLaunch) -> Command> DropBoxTransport<F> {
    /// A drop-box transport rooted at `<drive dir>/dropbox`.
    pub fn new(command_for: F) -> Self {
        Self {
            root: None,
            command_for,
        }
    }

    /// A drop-box transport rooted at `root` (a shared mount, say).
    pub fn rooted(root: impl Into<PathBuf>, command_for: F) -> Self {
        Self {
            root: Some(root.into()),
            command_for,
        }
    }

    fn root(&self, cfg: &FrontierDriverConfig) -> PathBuf {
        self.root.clone().unwrap_or_else(|| cfg.dir.join("dropbox"))
    }
}

impl<F: FnMut(&WorkerLaunch) -> Command> WorkerTransport for DropBoxTransport<F> {
    fn frontier_dir(&self, cfg: &FrontierDriverConfig) -> PathBuf {
        self.root(cfg).join("frontier")
    }

    fn worker_store(&self, cfg: &FrontierDriverConfig, slot: u32) -> PathBuf {
        self.root(cfg).join("stores").join(format!("w{slot}.wls"))
    }

    fn command(&mut self, _cfg: &FrontierDriverConfig, launch: &WorkerLaunch) -> Command {
        (self.command_for)(launch)
    }

    /// Scans `<root>/stores/*.wls` — *every* deposit merges, including
    /// stores from workers this driver never launched.
    fn stores(&self, cfg: &FrontierDriverConfig) -> io::Result<Vec<PathBuf>> {
        let dir = self.root(cfg).join("stores");
        let mut stores = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "wls") {
                stores.push(path);
            }
        }
        stores.sort();
        Ok(stores)
    }
}

/// The service topology: subprocess layout plus `WL_SWEEP_SERVICE`
/// injected into every worker's environment, so workers resolve each
/// claimed chunk against the shared [`serve`](crate::serve) instance
/// (one batch claim per chunk) and push simulated results back (one
/// batch put per chunk). The service instance itself is external — a
/// running `sweep_serve` the caller points this transport at.
pub struct ServiceTransport<F: FnMut(&WorkerLaunch) -> Command> {
    addr: String,
    command_for: F,
}

impl<F: FnMut(&WorkerLaunch) -> Command> ServiceTransport<F> {
    /// A service transport against the service at `addr`
    /// (`unix:<path>` or `tcp:<host>:<port>`, as in `WL_SWEEP_SERVICE`).
    pub fn new(addr: impl Into<String>, command_for: F) -> Self {
        Self {
            addr: addr.into(),
            command_for,
        }
    }
}

impl<F: FnMut(&WorkerLaunch) -> Command> WorkerTransport for ServiceTransport<F> {
    fn frontier_dir(&self, cfg: &FrontierDriverConfig) -> PathBuf {
        cfg.dir.join("frontier")
    }

    fn worker_store(&self, cfg: &FrontierDriverConfig, slot: u32) -> PathBuf {
        cfg.dir.join(format!("worker-{slot}.wls"))
    }

    fn command(&mut self, _cfg: &FrontierDriverConfig, launch: &WorkerLaunch) -> Command {
        let mut cmd = (self.command_for)(launch);
        cmd.env("WL_SWEEP_SERVICE", &self.addr);
        cmd
    }
}

// ---------------------------------------------------------------------------
// The transport-agnostic drive.
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
    /// Stores merged at harvest (≥ worker count for drop-box deposits).
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
    /// broken (mixed engine builds, foreign stores in the deposit dir).
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
/// 1-process run over the same grid saves, whatever the transport,
/// worker count, or kill schedule (`tests/transport_conformance.rs`).
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
    let frontier_dir = transport.frontier_dir(cfg);
    let frontier = Frontier::init(&frontier_dir, FrontierSpec::for_grid::<A>(grid, cfg.chunk))?;
    let mut report = FrontierDriveReport::default();

    let mut slots: Vec<Slot> = Vec::with_capacity(cfg.workers as usize);
    for slot in 0..cfg.workers {
        let store = transport.worker_store(cfg, slot);
        if let Some(parent) = store.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let log = cfg.worker_log(slot);
        let launch = launch_for(slot, 0, &frontier_dir, &store);
        let child = match spawn_worker(transport.command(cfg, &launch), &log) {
            Ok(child) => child,
            Err(e) => {
                kill_live(&mut slots);
                return Err(e.into());
            }
        };
        slots.push(Slot {
            slot,
            store,
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

fn launch_for(slot: u32, attempt: u32, frontier: &Path, store: &Path) -> WorkerLaunch {
    WorkerLaunch {
        slot,
        attempt,
        worker: format!("w{slot}-a{attempt}"),
        frontier: frontier.into(),
        store: store.into(),
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
    let frontier_dir = frontier.dir().to_path_buf();
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
                restart(cfg, slot, &frontier_dir, transport, report)?;
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
                        restart(cfg, slot, &frontier_dir, transport, report)?;
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
    frontier_dir: &Path,
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
    let launch = launch_for(slot.slot, attempt, frontier_dir, &slot.store);
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

    #[test]
    fn transports_lay_out_their_directories() {
        let dir = std::env::temp_dir().join("wl-transport-layout");
        let cfg = cfg(&dir);
        let noop = |_: &WorkerLaunch| Command::new("true");

        let sub = SubprocessTransport::new(noop);
        assert_eq!(sub.frontier_dir(&cfg), dir.join("frontier"));
        assert_eq!(sub.worker_store(&cfg, 1), dir.join("worker-1.wls"));
        assert_eq!(sub.stores(&cfg).unwrap().len(), 2);

        let boxed = DropBoxTransport::new(noop);
        assert_eq!(boxed.frontier_dir(&cfg), dir.join("dropbox/frontier"));
        assert_eq!(
            boxed.worker_store(&cfg, 0),
            dir.join("dropbox/stores/w0.wls")
        );
        let rooted = DropBoxTransport::rooted("/mnt/shared", noop);
        assert_eq!(rooted.frontier_dir(&cfg), Path::new("/mnt/shared/frontier"));

        let mut svc = ServiceTransport::new("unix:/tmp/x.sock", noop);
        let launch = launch_for(0, 0, &dir.join("frontier"), &dir.join("worker-0.wls"));
        assert_eq!(launch.worker, "w0-a0");
        let cmd = svc.command(&cfg, &launch);
        assert!(cmd
            .get_envs()
            .any(|(k, v)| k == "WL_SWEEP_SERVICE" && v.is_some_and(|v| v == "unix:/tmp/x.sock")));
    }

    #[test]
    fn dropbox_harvest_scans_foreign_deposits() {
        let dir = std::env::temp_dir().join(format!("wl-transport-scan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = cfg(&dir);
        let boxed = DropBoxTransport::new(|_: &WorkerLaunch| Command::new("true"));
        let stores = dir.join("dropbox/stores");
        std::fs::create_dir_all(&stores).unwrap();
        std::fs::write(stores.join("w0.wls"), b"").unwrap();
        std::fs::write(stores.join("remote-deposit.wls"), b"").unwrap();
        std::fs::write(stores.join("notes.txt"), b"").unwrap();
        let found = boxed.stores(&cfg).unwrap();
        assert_eq!(found.len(), 2, "only .wls files harvest: {found:?}");
        assert!(found.iter().any(|p| p.ends_with("remote-deposit.wls")));
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
            dir.join("frontier"),
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
