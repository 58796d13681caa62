//! The work-stealing frontier: a persisted queue of grid **chunks** that
//! any number of workers — local subprocesses, or machines sharing the
//! drive directory — drain cooperatively.
//!
//! A static `k/N` slice makes a heterogeneous fleet finish at the pace
//! of its slowest member and makes a dead worker's slice wait for a
//! restart. The frontier is instead a directory of chunk files whose
//! *names* encode their state, moved between states with `rename(2)` —
//! the one filesystem operation that is atomic on every platform this
//! workspace targets, including NFS-style shared mounts:
//!
//! ```text
//! frontier/
//!   frontier.manifest      # the grid this frontier belongs to (identity)
//!   c00004.todo            # chunk 4: unclaimed
//!   c00002.claim-w1-a0     # chunk 2: claimed by worker "w1-a0"
//!   c00000.done            # chunk 0: results durably checkpointed
//! ```
//!
//! * **Claim** — rename `cNNNNN.todo` → `cNNNNN.claim-<worker>`. Two
//!   workers racing the same chunk issue two renames of the same source;
//!   exactly one succeeds, the loser moves on. A handle claims the lowest
//!   `.todo` at or past its *cursor* by trying the rename and advancing
//!   on `NotFound` — no directory read; chunks a requeue put back behind
//!   the cursor are found by a scan once that forward pass is exhausted.
//!   (Who runs which chunk, in what order, never reaches the output —
//!   see below.) While the chunk runs, the winner appends one byte to
//!   the claim file every quarter of the steal timeout: the file's
//!   *length* is the chunk's heartbeat.
//! * **Complete** — the worker checkpoints its store (the chunk's
//!   records are durable *first*), then renames the claim → `.done`.
//!   `.done` files are only ever created, never removed, so "all chunks
//!   done" is a stable, race-free completion test.
//! * **Orphan requeue** — a claim the watcher (a worker out of work, or
//!   the driver's monitor loop) has not seen grow for the steal timeout,
//!   on its own monotonic clock from its first sight of the claim, is
//!   renamed back to `.todo` and re-claimed. No file time is read, so no
//!   skew between machines' clocks can delay a steal or hasten one; the
//!   cost is one full timeout per claim a watcher first sees (a re-drive
//!   after the whole fleet died waits it once). A *falsely* orphaned
//!   claim (the owner was slow, not dead) is harmless: the owner's
//!   completion rename fails with `NotFound`, its results stay in its
//!   own store, and the equality-confirmed merge tolerates the duplicate
//!   coverage.
//!
//! Every transition is a single-source rename, so each chunk is in
//! exactly one state; re-execution is idempotent because outcomes are
//! pure functions of the spec and the merge refuses disagreement. That
//! is why the merged store is **byte-identical to a 1-process run for
//! any chunk size, claim interleaving, or worker death schedule** —
//! pinned by `tests/frontier_determinism.rs` (proptest) and the
//! transport conformance suite. Byte layout and protocol:
//! `docs/sweeps.md` § "The driver".
//!
//! The frontier refuses to operate on a directory initialized for a
//! *different* grid (other specs, other chunk size, other
//! [`ENGINE_VERSION`]): the manifest pins the identity, and a mismatch
//! is a [`FrontierError::Mismatch`] naming the offending field — never a
//! silent merge of two unrelated sweeps. Only the chunk size can be
//! adopted instead: by workers, and by a driver that names none
//! ([`Frontier::resume_or_init`]).

use crate::algo::SyncAlgorithm;
use crate::cache::{
    canon_string, fnv64_seeded, StoreFormat, SweepStore, ENGINE_VERSION, FNV_OFFSET,
};
use crate::spec::ScenarioSpec;
use crate::sweep::{run_point_recorded, Capture, SweepRunner};
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Name of the identity file inside a frontier directory.
const MANIFEST: &str = "frontier.manifest";

// ---------------------------------------------------------------------------
// Identity.
// ---------------------------------------------------------------------------

/// What makes two frontiers "the same sweep": the grid, the algorithm,
/// the chunking, and the engine that will execute the points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierSpec {
    /// Number of grid points.
    pub grid_len: usize,
    /// Grid points per chunk (the work-stealing granule).
    pub chunk: usize,
    /// Algorithm name ([`crate::SyncAlgorithm::NAME`]).
    pub algo: String,
    /// FNV-1a over every canonical spec serialization, in grid order —
    /// two grids hash equal iff they execute identically.
    pub grid_hash: u64,
    /// The [`ENGINE_VERSION`] whose records this frontier produces.
    pub engine_version: u32,
}

impl FrontierSpec {
    /// The identity of `grid` under algorithm `A`, cut into
    /// `chunk`-point chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    #[must_use]
    pub fn for_grid<A: SyncAlgorithm>(grid: &[ScenarioSpec], chunk: usize) -> Self {
        assert!(chunk >= 1, "frontier chunks must hold at least one point");
        let mut hash = FNV_OFFSET;
        for spec in grid {
            hash = fnv64_seeded(hash, canon_string(&spec.canonical()).as_bytes());
            hash = fnv64_seeded(hash, b"\n");
        }
        Self {
            grid_len: grid.len(),
            chunk,
            algo: A::NAME.to_string(),
            grid_hash: hash,
            engine_version: ENGINE_VERSION,
        }
    }

    /// Number of chunks this spec cuts the grid into.
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.grid_len.div_ceil(self.chunk)
    }

    fn manifest_text(&self) -> String {
        format!(
            "wl-frontier v1\nengine {}\nalgo {}\ngrid_len {}\nchunk {}\ngrid_hash {:016x}\n",
            self.engine_version, self.algo, self.grid_len, self.chunk, self.grid_hash
        )
    }

    fn parse_manifest(text: &str) -> Option<Self> {
        let mut lines = text.lines();
        if lines.next()? != "wl-frontier v1" {
            return None;
        }
        let mut field = |name: &str| -> Option<String> {
            let line = lines.next()?;
            let rest = line.strip_prefix(name)?.strip_prefix(' ')?;
            Some(rest.to_string())
        };
        Some(Self {
            engine_version: field("engine")?.parse().ok()?,
            algo: field("algo")?,
            grid_len: field("grid_len")?.parse().ok()?,
            chunk: field("chunk")?.parse().ok()?,
            grid_hash: u64::from_str_radix(&field("grid_hash")?, 16).ok()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------------

/// Why a frontier could not be initialized, opened, or drained.
#[derive(Debug)]
pub enum FrontierError {
    /// Filesystem trouble.
    Io(io::Error),
    /// The directory holds a frontier for a **different sweep** — wrong
    /// grid, wrong algorithm, wrong chunk size, or wrong engine. Using
    /// it would merge two unrelated sweeps, so the operation refuses.
    Mismatch {
        /// The frontier directory that was refused.
        dir: PathBuf,
        /// The manifest field that disagreed (`engine`, `algo`,
        /// `grid_len`, `chunk`, `grid_hash`).
        field: &'static str,
        /// What the on-disk manifest says.
        found: String,
        /// What this run expected.
        expected: String,
    },
    /// The directory has no (parseable) manifest where one is required —
    /// workers refuse to guess what grid a bare directory means.
    Missing {
        /// The directory lacking a manifest.
        dir: PathBuf,
    },
}

impl std::fmt::Display for FrontierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "frontier I/O failure: {e}"),
            Self::Mismatch {
                dir,
                field,
                found,
                expected,
            } => write!(
                f,
                "frontier at {} belongs to a different sweep: {field} is {found}, \
                 this run expects {expected} — use a fresh directory (or finish/delete \
                 the old sweep first)",
                dir.display()
            ),
            Self::Missing { dir } => write!(
                f,
                "no frontier manifest in {} — initialize the frontier (driver side) \
                 before starting workers",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for FrontierError {}

impl From<io::Error> for FrontierError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// How long a watched value has gone unchanged, timed on the watcher's
/// own monotonic clock: the one liveness rule of the distributed layer
/// (claim lengths here, worker store and log lengths in the driver).
#[derive(Debug)]
pub(crate) struct Quiet<T> {
    value: T,
    since: Instant,
}

impl<T: PartialEq> Quiet<T> {
    /// Starts watching `value`, first seen at `now`.
    pub(crate) fn new(value: T, now: Instant) -> Self {
        Self { value, since: now }
    }

    /// Records `value` as seen at `now` and returns how long it has not
    /// changed: zero on a change.
    pub(crate) fn observe(&mut self, value: T, now: Instant) -> Duration {
        if value != self.value {
            self.value = value;
            self.since = now;
        }
        now.saturating_duration_since(self.since)
    }
}

// ---------------------------------------------------------------------------
// The frontier.
// ---------------------------------------------------------------------------

/// Counts of chunks per state, from one directory scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontierStatus {
    /// Unclaimed chunks.
    pub todo: usize,
    /// Chunks currently claimed by some worker.
    pub claimed: usize,
    /// Chunks whose results are durably checkpointed.
    pub done: usize,
}

/// A handle on one frontier directory (see the module docs for the
/// on-disk protocol).
#[derive(Debug)]
pub struct Frontier {
    dir: PathBuf,
    spec: FrontierSpec,
    /// The lowest chunk this handle has not yet tried to claim: where
    /// [`claim`](Self::claim)'s forward pass resumes. The rename, not
    /// this, decides who owns a chunk.
    cursor: AtomicUsize,
    /// Directory reads made through this handle.
    dir_reads: AtomicUsize,
    /// Every claim this handle saw at its last requeue pass, by file
    /// name: its length, and for how long it has held.
    claims: Mutex<HashMap<String, Quiet<u64>>>,
}

impl Frontier {
    /// Initializes (or resumes) the frontier for `spec` in `dir` — the
    /// **driver** side. A fresh directory gets one `.todo` file per
    /// chunk plus the manifest (written last, atomically, so a manifest
    /// implies a fully populated frontier). A directory already holding
    /// a manifest is validated against `spec`: a match *resumes* (chunks
    /// already done stay done — a re-drive pays only the remainder); any
    /// mismatch is refused.
    ///
    /// # Errors
    ///
    /// [`FrontierError::Mismatch`] for a foreign frontier,
    /// [`FrontierError::Io`] for filesystem failures — a manifest that
    /// cannot be looked up among them: only an absent one means a fresh
    /// directory.
    pub fn init(dir: impl Into<PathBuf>, spec: FrontierSpec) -> Result<Self, FrontierError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let manifest = dir.join(MANIFEST);
        let frontier = Self::handle(dir, spec);
        if manifest.try_exists()? {
            frontier.validate()?;
            return Ok(frontier);
        }
        for c in 0..frontier.spec.chunks() {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(frontier.todo_path(c))
            {
                Ok(_) => {}
                // A torn previous init left this one behind; keep it.
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(e.into()),
            }
        }
        // Manifest last, atomically: its existence certifies the chunk
        // files above are all in place.
        let tmp = frontier.dir.join(format!("{MANIFEST}.tmp"));
        std::fs::write(&tmp, frontier.spec.manifest_text())?;
        std::fs::rename(&tmp, manifest)?;
        Ok(frontier)
    }

    /// [`init`](Self::init) for a driver that names no granule: a
    /// directory already holding a manifest is resumed at the chunk size
    /// that manifest records, every other identity field checked as
    /// [`open`](Self::open) checks it; a fresh one is initialized with
    /// `spec`'s.
    ///
    /// # Errors
    ///
    /// As [`init`](Self::init), less the `chunk` mismatch.
    pub fn resume_or_init(
        dir: impl Into<PathBuf>,
        spec: FrontierSpec,
    ) -> Result<Self, FrontierError> {
        let dir = dir.into();
        if dir.join(MANIFEST).try_exists()? {
            return Self::open(dir, spec);
        }
        Self::init(dir, spec)
    }

    /// Opens an existing frontier — the **worker** side. The manifest
    /// must exist and must match `spec` in every field except `chunk`
    /// (workers adopt whatever chunking the initializer picked, so the
    /// caller's `spec.chunk` is ignored).
    ///
    /// # Errors
    ///
    /// [`FrontierError::Missing`] if there is no manifest,
    /// [`FrontierError::Mismatch`] for a foreign frontier.
    pub fn open(dir: impl Into<PathBuf>, spec: FrontierSpec) -> Result<Self, FrontierError> {
        let dir = dir.into();
        let manifest = Self::read_manifest(&dir)?;
        let spec = FrontierSpec {
            chunk: manifest.chunk,
            ..spec
        };
        let frontier = Self::handle(dir, spec);
        frontier.validate()?;
        Ok(frontier)
    }

    fn handle(dir: PathBuf, spec: FrontierSpec) -> Self {
        Self {
            dir,
            spec,
            cursor: AtomicUsize::new(0),
            dir_reads: AtomicUsize::new(0),
            claims: Mutex::default(),
        }
    }

    fn read_manifest(dir: &Path) -> Result<FrontierSpec, FrontierError> {
        let text = match std::fs::read_to_string(dir.join(MANIFEST)) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(FrontierError::Missing { dir: dir.into() })
            }
            Err(e) => return Err(e.into()),
        };
        let found = FrontierSpec::parse_manifest(&text)
            .ok_or_else(|| FrontierError::Missing { dir: dir.into() })?;
        // A manifest is outside input (torn write, hand edit, shared drop
        // box): zero-point chunks would divide the grid by zero.
        if found.chunk == 0 {
            return Err(FrontierError::Mismatch {
                dir: dir.into(),
                field: "chunk",
                found: "0".into(),
                expected: "at least 1".into(),
            });
        }
        Ok(found)
    }

    /// Re-reads the manifest and checks every identity field.
    fn validate(&self) -> Result<(), FrontierError> {
        let found = Self::read_manifest(&self.dir)?;
        let want = &self.spec;
        let mismatch = |field, found: String, expected: String| {
            Err(FrontierError::Mismatch {
                dir: self.dir.clone(),
                field,
                found,
                expected,
            })
        };
        if found.engine_version != want.engine_version {
            return mismatch(
                "engine",
                format!("v{}", found.engine_version),
                format!("v{}", want.engine_version),
            );
        }
        if found.algo != want.algo {
            return mismatch("algo", found.algo, want.algo.clone());
        }
        if found.grid_len != want.grid_len {
            return mismatch(
                "grid_len",
                found.grid_len.to_string(),
                want.grid_len.to_string(),
            );
        }
        if found.chunk != want.chunk {
            return mismatch("chunk", found.chunk.to_string(), want.chunk.to_string());
        }
        if found.grid_hash != want.grid_hash {
            return mismatch(
                "grid_hash",
                format!("{:016x}", found.grid_hash),
                format!("{:016x}", want.grid_hash),
            );
        }
        Ok(())
    }

    /// The frontier directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The identity this handle operates under, its chunk size included.
    #[must_use]
    pub fn spec(&self) -> &FrontierSpec {
        &self.spec
    }

    /// Total chunk count.
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.spec.chunks()
    }

    /// The grid-index range chunk `c` owns.
    #[must_use]
    pub fn chunk_range(&self, c: usize) -> std::ops::Range<usize> {
        let start = c * self.spec.chunk;
        start..((c + 1) * self.spec.chunk).min(self.spec.grid_len)
    }

    fn todo_path(&self, c: usize) -> PathBuf {
        self.dir.join(format!("c{c:05}.todo"))
    }

    fn done_path(&self, c: usize) -> PathBuf {
        self.dir.join(format!("c{c:05}.done"))
    }

    fn claim_path(&self, c: usize, worker: &str) -> PathBuf {
        self.dir.join(format!("c{c:05}.claim-{worker}"))
    }

    /// Parses `cNNNNN.<state>` off a directory entry: five or more
    /// digits, which is what `{:05}` prints from chunk 100 000 on.
    fn parse_entry(name: &str) -> Option<(usize, &str)> {
        let rest = name.strip_prefix('c')?;
        let (digits, state) = rest.split_once('.')?;
        if digits.len() < 5 || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        Some((digits.parse().ok()?, state))
    }

    fn scan(&self) -> io::Result<Vec<(usize, String)>> {
        self.dir_reads.fetch_add(1, Ordering::Relaxed);
        let mut entries = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some((chunk, state)) = Self::parse_entry(name) {
                entries.push((chunk, state.to_string()));
            }
        }
        entries.sort();
        Ok(entries)
    }

    /// One directory scan, bucketed by state.
    ///
    /// # Errors
    ///
    /// Directory read failures.
    pub fn status(&self) -> io::Result<FrontierStatus> {
        let mut status = FrontierStatus::default();
        for (_, state) in self.scan()? {
            match state.as_str() {
                "todo" => status.todo += 1,
                "done" => status.done += 1,
                s if s.starts_with("claim-") => status.claimed += 1,
                _ => {}
            }
        }
        Ok(status)
    }

    /// Whether every chunk's results are durably checkpointed. `.done`
    /// files are only ever created, so a `true` is final — no rename
    /// race can un-complete a frontier.
    ///
    /// # Errors
    ///
    /// Directory read failures: a `.done` file that cannot be looked up
    /// is an error, only one that is absent is `Ok(false)`.
    pub fn is_complete(&self) -> io::Result<bool> {
        for chunk in 0..self.chunks() {
            if !self.done_path(chunk).try_exists()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Tries to claim one `.todo` chunk for `worker`: the lowest at or
    /// past this handle's cursor, by renaming forward with **no directory
    /// read**; once that pass is exhausted, the lowest a scan finds — by
    /// then only one a requeue put back behind the cursor. `Ok(None)` =
    /// nothing claimable *right now* — the caller distinguishes "all done"
    /// from "all claimed elsewhere" via [`status`](Self::status).
    ///
    /// # Errors
    ///
    /// Directory read failures. Losing a claim race is not an error.
    pub fn claim(&self, worker: &str) -> io::Result<Option<Claim>> {
        while self.cursor.load(Ordering::Relaxed) < self.chunks() {
            let chunk = self.cursor.fetch_add(1, Ordering::Relaxed);
            if let Some(claim) = self.try_claim(chunk, worker)? {
                return Ok(Some(claim));
            }
        }
        let todo = |(chunk, state): (usize, String)| (state == "todo").then_some(chunk);
        for chunk in self.scan()?.into_iter().filter_map(todo) {
            if let Some(claim) = self.try_claim(chunk, worker)? {
                return Ok(Some(claim));
            }
        }
        Ok(None)
    }

    /// The claim rename itself; `Ok(None)` = `chunk` is not `.todo`
    /// (claimed, done, or someone else just won the race).
    fn try_claim(&self, chunk: usize, worker: &str) -> io::Result<Option<Claim>> {
        let claim = self.claim_path(chunk, worker);
        match std::fs::rename(self.todo_path(chunk), &claim) {
            Ok(()) => Ok(Some(Claim {
                chunk,
                range: self.chunk_range(chunk),
                path: claim,
                done: self.done_path(chunk),
            })),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Requeues every claim this handle has not seen grow for `timeout`,
    /// timed from its first sight on this handle's own clock — the
    /// crash-recovery half of work stealing. Returns how many chunks went
    /// back to `.todo`.
    ///
    /// # Errors
    ///
    /// Directory read failures. A claim vanishing mid-requeue (its owner
    /// completed or another stealer got there first) is not an error.
    pub fn requeue_stale(&self, timeout: Duration) -> io::Result<usize> {
        let now = Instant::now();
        let mut claims = self.claims.lock().expect("claim watch poisoned");
        let mut watched = HashMap::with_capacity(claims.len());
        let mut requeued = 0;
        for (chunk, state) in self.scan()? {
            if !state.starts_with("claim-") {
                continue;
            }
            let name = format!("c{chunk:05}.{state}");
            let path = self.dir.join(&name);
            let Ok(len) = std::fs::metadata(&path).map(|m| m.len()) else {
                continue;
            };
            let mut quiet = claims.remove(&name).unwrap_or(Quiet::new(len, now));
            if quiet.observe(len, now) < timeout {
                watched.insert(name, quiet);
                continue;
            }
            match std::fs::rename(&path, self.todo_path(chunk)) {
                Ok(()) => requeued += 1,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        // Claims gone since the last pass are forgotten.
        *claims = watched;
        Ok(requeued)
    }
}

/// A claimed chunk: the worker's exclusive (until stolen) license to
/// execute one grid-index range.
#[derive(Debug)]
pub struct Claim {
    chunk: usize,
    range: std::ops::Range<usize>,
    path: PathBuf,
    done: PathBuf,
}

impl Claim {
    /// The claimed chunk's id.
    #[must_use]
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// The grid-index range this chunk owns.
    #[must_use]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.range.clone()
    }

    /// Refreshes the claim's heartbeat: appends one byte, so watchers
    /// see the claim grow. Returns `false` if the claim has been stolen —
    /// the worker may finish the chunk anyway (harmless; see module docs)
    /// or abandon it.
    pub fn beat(&self) -> bool {
        std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .and_then(|mut f| f.write_all(b"."))
            .is_ok()
    }

    /// Marks the chunk done. Call **only after** the store holding its
    /// records has been checkpointed — `.done` means durable. Returns
    /// `false` if the claim was stolen while the worker ran (the chunk
    /// is someone else's to finish; the caller's records merge fine).
    ///
    /// # Errors
    ///
    /// Rename failures other than the claim being gone.
    pub fn complete(self) -> io::Result<bool> {
        match std::fs::rename(&self.path, &self.done) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// The frontier worker body.
// ---------------------------------------------------------------------------

/// Configuration of one frontier worker (the subprocess side of a
/// drive).
#[derive(Debug, Clone)]
pub struct FrontierWorkerConfig {
    /// The frontier directory (must already be initialized).
    pub frontier: PathBuf,
    /// This worker's claim identity — unique per launch (the driver
    /// uses `w<slot>-a<attempt>`). It becomes part of a file name, so an
    /// empty id or one outside `[A-Za-z0-9_-]` is refused.
    pub worker: String,
    /// The worker's private store (created if missing, hydrated if
    /// present — a restarted worker resumes, paying only for points that
    /// never checkpointed).
    pub store: PathBuf,
    /// On-disk store format: binary, whose checkpoints are O(chunk)
    /// appends, unless a caller asks for a text store.
    pub format: StoreFormat,
    /// Claims that have not grown for this long, on this worker's clock,
    /// are considered orphaned and requeued when it runs out of `.todo`
    /// chunks.
    pub steal_timeout: Duration,
    /// How long to sleep between frontier scans while waiting for
    /// claimed-elsewhere chunks to resolve.
    pub poll: Duration,
    /// Fault injection: abort the process (as `kill -9` would) right
    /// after checkpointing this many chunks, **before** marking the last
    /// one done — the orphaned claim is what work stealing must recover.
    pub crash_after_chunks: Option<usize>,
    /// What each grid point records (scalar, sketch, or series). Every
    /// worker draining one frontier must agree — payload kinds are
    /// per-record, and a mixed fleet would leave the merged store's
    /// richness dependent on which worker won each chunk.
    pub capture: Capture,
}

impl FrontierWorkerConfig {
    /// A worker `worker` draining `frontier` into `store`, with the
    /// defaults `sweep_drive --frontier-worker` uses: binary store, 2 s
    /// steal timeout, 100 ms poll, no fault injection, scalar capture.
    #[must_use]
    pub fn new(
        frontier: impl Into<PathBuf>,
        worker: impl Into<String>,
        store: impl Into<PathBuf>,
    ) -> Self {
        Self {
            frontier: frontier.into(),
            worker: worker.into(),
            store: store.into(),
            format: StoreFormat::default(),
            steal_timeout: Duration::from_secs(2),
            poll: Duration::from_millis(100),
            crash_after_chunks: None,
            capture: Capture::Scalar,
        }
    }
}

/// Cumulative progress of a frontier worker, reported after every chunk.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontierProgress {
    /// Chunks this worker completed (claim → checkpoint → done).
    pub chunks: usize,
    /// Chunks this worker executed but could not mark done (its claim
    /// was stolen mid-run; the records still merge).
    pub stolen: usize,
    /// Orphaned claims this worker requeued for anyone to steal.
    pub requeued: usize,
    /// Grid points processed (hits and misses both count).
    pub points: usize,
    /// Cache hits (points served without simulating).
    pub hits: u64,
    /// Cache misses (points that ran a simulation).
    pub misses: u64,
    /// Records in the worker store after the last checkpoint.
    pub records: usize,
}

/// Whether a running chunk's heartbeat needs refreshing: a quarter of the
/// steal timeout has passed since the last beat. Asked after every grid
/// point, so a live claim reads as orphaned only if one point runs for
/// three quarters of the timeout.
fn beat_due(since_last: Duration, steal_timeout: Duration) -> bool {
    since_last >= steal_timeout / 4
}

/// Drains the frontier at `cfg.frontier`: claim a chunk, execute its
/// grid points through the shared cached per-point body, checkpoint,
/// mark done, repeat — until every chunk is `.done`. The worker protocol
/// body shared by `sweep_drive --frontier-worker`, the conformance
/// suite's workers, and any remote machine on a shared mount.
///
/// When `WL_SWEEP_SERVICE` is configured, each claimed chunk is first
/// offered to the service as one batch claim (warm points arrive as
/// records, cold ones simulate locally) and the simulated remainder is
/// pushed back per chunk — so a service-backed fleet shares work at
/// chunk granularity, not only per sweep.
///
/// `on_chunk` fires after every chunk resolution (done, stolen, or
/// requeue pass); workers print one progress line from it.
///
/// # Errors
///
/// [`FrontierError::Missing`]/[`FrontierError::Mismatch`] if the
/// directory does not hold this grid's frontier; I/O failures, among
/// them [`io::ErrorKind::InvalidInput`] for a `cfg.worker` that cannot
/// name a claim file (refused before anything is opened).
pub fn run_worker_frontier<A: SyncAlgorithm>(
    runner: &SweepRunner,
    grid: Vec<ScenarioSpec>,
    cfg: &FrontierWorkerConfig,
    mut on_chunk: impl FnMut(&FrontierProgress),
) -> Result<FrontierProgress, FrontierError> {
    let nameable = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'-';
    if cfg.worker.is_empty() || !cfg.worker.bytes().all(nameable) {
        // A rename onto such a name fails `NotFound`, which reads as a
        // lost claim race: the worker would poll forever.
        let id = &cfg.worker;
        let refusal = format!("worker id {id:?} cannot name a claim file: want [A-Za-z0-9_-]+");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, refusal).into());
    }
    let frontier = Frontier::open(&cfg.frontier, FrontierSpec::for_grid::<A>(&grid, 1))?;
    let mut store = SweepStore::open(&cfg.store)?;
    store.set_format(cfg.format);
    let cache = store.hydrate();
    let service = crate::service::ServiceSweepCache::from_env();
    let mut progress = FrontierProgress {
        records: store.len(),
        ..FrontierProgress::default()
    };
    let mut checkpointed = 0usize;
    loop {
        let Some(claim) = frontier.claim(&cfg.worker)? else {
            if frontier.is_complete()? {
                break;
            }
            // Everything is claimed elsewhere: requeue orphans, then
            // give the living owners a beat to finish.
            progress.requeued += frontier.requeue_stale(cfg.steal_timeout)?;
            on_chunk(&progress);
            std::thread::sleep(cfg.poll);
            continue;
        };
        if let Some(service) = &service {
            service.prefetch::<A>(&grid[claim.range()], cfg.capture, &cache);
        }
        // Started at the claim; `runner` may be many threads.
        let last_beat = Mutex::new(Instant::now());
        let records = runner.run(claim.range().collect(), |_, &index| {
            let (_, record) = run_point_recorded::<A>(cfg.capture, index, &grid[index], &cache);
            let mut last = last_beat.lock().expect("heartbeat clock poisoned");
            if beat_due(last.elapsed(), cfg.steal_timeout) {
                *last = Instant::now();
                claim.beat();
            }
            record
        });
        // The chunk's records; earlier chunks' are already in the store.
        store.absorb_records(records);
        // Records durable before the chunk can read as done.
        store.checkpoint()?;
        checkpointed += 1;
        if let Some(service) = &service {
            service.push_back::<A>(&cache);
        }
        if cfg.crash_after_chunks == Some(checkpointed) {
            // Simulated crash: no unwinding, no destructors, the claim
            // left orphaned — the closest safe stand-in for `kill -9`.
            // Work stealing (or this worker's restart) must recover it.
            std::process::abort();
        }
        let range_len = claim.range().len();
        if claim.complete()? {
            progress.chunks += 1;
        } else {
            progress.stolen += 1;
        }
        progress.points += range_len;
        progress.hits = cache.hits();
        progress.misses = cache.misses();
        progress.records = store.len();
        on_chunk(&progress);
    }
    Ok(progress)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{derive_seed, SweepCache, SweepRequest};
    use crate::Maintenance;
    use wl_core::Params;
    use wl_time::RealTime;

    fn grid(count: usize) -> Vec<ScenarioSpec> {
        let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
        (0..count)
            .map(|i| {
                ScenarioSpec::new(params.clone())
                    .seed(derive_seed(0xF407_713E, i as u64))
                    .t_end(RealTime::from_secs(1.5))
            })
            .collect()
    }

    impl Frontier {
        fn dir_reads(&self) -> usize {
            self.dir_reads.load(Ordering::Relaxed)
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wl-frontier-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn spec_identity_is_grid_sensitive() {
        let a = FrontierSpec::for_grid::<Maintenance>(&grid(4), 2);
        let b = FrontierSpec::for_grid::<Maintenance>(&grid(4), 2);
        assert_eq!(a, b);
        let c = FrontierSpec::for_grid::<Maintenance>(&grid(5), 2);
        assert_ne!(a.grid_hash, c.grid_hash);
        assert_eq!(a.chunks(), 2);
        assert_eq!(
            FrontierSpec::for_grid::<Maintenance>(&grid(5), 2).chunks(),
            3
        );
        // The manifest round-trips every field.
        let parsed = FrontierSpec::parse_manifest(&a.manifest_text()).unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn claims_are_exactly_once_and_complete() {
        let dir = tmp("claims");
        let spec = FrontierSpec::for_grid::<Maintenance>(&grid(5), 2);
        let frontier = Frontier::init(&dir, spec).unwrap();
        assert_eq!(frontier.chunks(), 3);
        assert_eq!(frontier.chunk_range(2), 4..5);

        let a = frontier.claim("a").unwrap().unwrap();
        let b = frontier.claim("b").unwrap().unwrap();
        let c = frontier.claim("c").unwrap().unwrap();
        assert_eq!((a.chunk(), b.chunk(), c.chunk()), (0, 1, 2));
        assert!(frontier.claim("d").unwrap().is_none(), "no fourth chunk");
        assert!(!frontier.is_complete().unwrap());

        assert!(a.complete().unwrap());
        assert!(b.complete().unwrap());
        // `c` is abandoned unexecuted: a zero-timeout requeue returns it
        // to `.todo`.
        assert_eq!(frontier.requeue_stale(Duration::ZERO).unwrap(), 1);
        let status = frontier.status().unwrap();
        assert_eq!((status.todo, status.claimed, status.done), (1, 0, 2));
        let c2 = frontier.claim("d").unwrap().unwrap();
        assert_eq!(c2.chunk(), 2, "requeued chunk re-claimable");
        assert!(c2.complete().unwrap());
        assert!(frontier.is_complete().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_claims_requeue_and_stolen_completion_is_reported() {
        let dir = tmp("steal");
        let spec = FrontierSpec::for_grid::<Maintenance>(&grid(2), 2);
        let frontier = Frontier::init(&dir, spec).unwrap();
        let claim = frontier.claim("slow").unwrap().unwrap();
        assert!(claim.beat());
        // Nothing is stale under a generous timeout…
        assert_eq!(
            frontier.requeue_stale(Duration::from_secs(3600)).unwrap(),
            0
        );
        // …and everything is under a zero timeout.
        assert_eq!(frontier.requeue_stale(Duration::ZERO).unwrap(), 1);
        let stolen = frontier.claim("thief").unwrap().unwrap();
        assert_eq!(stolen.chunk(), 0);
        // The original owner's completion reports the theft…
        assert!(!claim.complete().unwrap());
        assert!(!frontier.is_complete().unwrap());
        // …and its heartbeat fails, so a long-running owner can notice.
        assert!(stolen.complete().unwrap());
        assert!(frontier.is_complete().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completion_check_reports_what_it_cannot_read() {
        let dir = tmp("notadir");
        let spec = FrontierSpec::for_grid::<Maintenance>(&grid(2), 1);
        let frontier = Frontier::init(&dir, spec).unwrap();
        assert!(!frontier.is_complete().unwrap());
        // A regular file where the directory was: no chunk can be looked
        // up, which is an error, not "not done yet".
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a frontier").unwrap();
        let err = frontier.is_complete().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotADirectory, "{err}");
        let _ = std::fs::remove_file(&dir);
    }

    /// A manifest that cannot be looked up is not an absent one: init
    /// reports it instead of laying a fresh frontier over the directory
    /// and renaming a new manifest over the old one.
    #[cfg(unix)]
    #[test]
    fn init_reports_a_manifest_it_cannot_look_up() {
        let dir = tmp("manifest-loop");
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join(MANIFEST);
        std::os::unix::fs::symlink(MANIFEST, &manifest).unwrap();
        let spec = FrontierSpec::for_grid::<Maintenance>(&grid(2), 1);
        match Frontier::init(&dir, spec) {
            Err(FrontierError::Io(_)) => {}
            other => panic!("expected an I/O error, got {other:?}"),
        }
        let link = std::fs::symlink_metadata(&manifest).unwrap();
        assert!(link.file_type().is_symlink(), "the manifest was replaced");
        assert_eq!(std::fs::read_link(&manifest).unwrap(), Path::new(MANIFEST));
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "init laid chunk files beside the manifest"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Drains `frontier` through `handle`, returning the chunks claimed
    /// (each completed on the spot).
    fn drain(handle: &Frontier, worker: &str) -> Vec<usize> {
        let mut claimed = Vec::new();
        while let Some(claim) = handle.claim(worker).unwrap() {
            claimed.push(claim.chunk());
            assert!(claim.complete().unwrap());
        }
        claimed
    }

    #[test]
    fn two_cursors_interleaved_claim_every_chunk_once_each_in_order() {
        let dir = tmp("cursors");
        let spec = FrontierSpec::for_grid::<Maintenance>(&grid(37), 1);
        let handles = [
            Frontier::init(&dir, spec.clone()).unwrap(),
            Frontier::open(&dir, spec).unwrap(),
        ];
        let mut claimed: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        let mut exhausted = [false; 2];
        let mut step = 0u64;
        while exhausted != [true; 2] {
            let who = (derive_seed(0xC0_25_02, step) % 2) as usize;
            step += 1;
            match handles[who].claim(["left", "right"][who]).unwrap() {
                Some(claim) => claimed[who].push(claim.chunk()),
                None => exhausted[who] = true,
            }
        }
        for mine in &claimed {
            assert!(!mine.is_empty(), "the schedule starved a handle");
            assert!(mine.windows(2).all(|w| w[0] < w[1]), "not lowest-first");
        }
        let mut all = claimed.concat();
        all.sort_unstable();
        assert_eq!(all, (0..37).collect::<Vec<_>>(), "exactly once");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn requeued_chunk_behind_the_cursor_is_reclaimed() {
        let dir = tmp("behind");
        let spec = FrontierSpec::for_grid::<Maintenance>(&grid(8), 1);
        let frontier = Frontier::init(&dir, spec).unwrap();
        // Claim 0…4; complete all but chunk 2, whose owner dies.
        for chunk in 0..5 {
            let claim = frontier.claim("first").unwrap().unwrap();
            assert_eq!(claim.chunk(), chunk);
            if chunk != 2 {
                assert!(claim.complete().unwrap());
            }
        }
        assert_eq!(frontier.requeue_stale(Duration::ZERO).unwrap(), 1);
        // The forward pass comes first; the requeued chunk, now behind
        // the cursor, is what the fallback scan is for.
        assert_eq!(drain(&frontier, "second"), [5, 6, 7, 2]);
        assert!(frontier.is_complete().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn draining_a_frontier_alone_reads_the_directory_once() {
        let dir = tmp("reads");
        let spec = FrontierSpec::for_grid::<Maintenance>(&grid(64), 1);
        let frontier = Frontier::init(&dir, spec).unwrap();
        assert_eq!(drain(&frontier, "solo"), (0..64).collect::<Vec<_>>());
        // One per claim (65) before the cursor; now only the pass that
        // finds nothing left behind it.
        assert!(frontier.dir_reads() <= 2, "{} reads", frontier.dir_reads());
        assert!(frontier.is_complete().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunk_file_names_round_trip_past_five_digits() {
        let dir = tmp("digits");
        let frontier = Frontier::handle(dir, FrontierSpec::for_grid::<Maintenance>(&[], 1));
        for chunk in [0, 99_999, 100_000, 1_234_567] {
            for (path, state) in [
                (frontier.todo_path(chunk), "todo"),
                (frontier.done_path(chunk), "done"),
                (frontier.claim_path(chunk, "w0-a1"), "claim-w0-a1"),
            ] {
                let name = path.file_name().unwrap().to_str().unwrap();
                assert_eq!(Frontier::parse_entry(name), Some((chunk, state)), "{name}");
            }
        }
        for stray in [
            "c0001.todo",
            "c00001todo",
            "cx0001.todo",
            "frontier.manifest",
        ] {
            assert_eq!(Frontier::parse_entry(stray), None, "{stray}");
        }
    }

    #[test]
    fn heartbeat_is_due_every_quarter_of_the_steal_timeout() {
        let timeout = Duration::from_secs(2);
        assert!(!beat_due(Duration::ZERO, timeout));
        assert!(!beat_due(Duration::from_millis(499), timeout));
        assert!(beat_due(Duration::from_millis(500), timeout));
        assert!(beat_due(Duration::from_secs(3600), timeout));
        // A zero timeout (everything is stale at once) beats every point.
        assert!(beat_due(Duration::ZERO, Duration::ZERO));
    }

    #[test]
    fn quiet_counts_silence_and_any_change_resets_it() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let mut quiet = Quiet::new(7u64, t0);
        assert_eq!(quiet.observe(7, t0), Duration::ZERO);
        assert_eq!(quiet.observe(7, at(300)), Duration::from_millis(300));
        assert_eq!(quiet.observe(7, at(1000)), Duration::from_millis(1000));
        assert_eq!(quiet.observe(8, at(1200)), Duration::ZERO, "growth");
        assert_eq!(quiet.observe(8, at(1500)), Duration::from_millis(300));
        assert_eq!(quiet.observe(3, at(1600)), Duration::ZERO, "a shrink");
        // An instant before the last change reads as no silence at all.
        assert_eq!(quiet.observe(3, at(1000)), Duration::ZERO);
        assert_eq!(quiet.observe(3, at(2600)), Duration::from_millis(1000));
    }

    #[test]
    fn foreign_frontier_is_refused_with_the_offending_field() {
        let dir = tmp("foreign");
        let spec = FrontierSpec::for_grid::<Maintenance>(&grid(4), 2);
        Frontier::init(&dir, spec.clone()).unwrap();

        // Same dir, different grid: refused on grid_hash (same length).
        let other = FrontierSpec::for_grid::<Maintenance>(
            &{
                let mut g = grid(4);
                g[0] = g[0].clone().seed(0xBAD);
                g
            },
            2,
        );
        match Frontier::init(&dir, other).unwrap_err() {
            FrontierError::Mismatch { field, .. } => assert_eq!(field, "grid_hash"),
            e => panic!("expected Mismatch, got {e}"),
        }
        // Different chunking: refused on chunk (init validates it; open
        // adopts the manifest's).
        match Frontier::init(&dir, FrontierSpec::for_grid::<Maintenance>(&grid(4), 3)) {
            Err(FrontierError::Mismatch { field, .. }) => assert_eq!(field, "chunk"),
            other => panic!("expected chunk mismatch, got {other:?}"),
        }
        // Different grid length: refused on grid_len (checked before the
        // hash so the message names the simplest divergence).
        match Frontier::init(&dir, FrontierSpec::for_grid::<Maintenance>(&grid(6), 2)) {
            Err(FrontierError::Mismatch { field, .. }) => assert_eq!(field, "grid_len"),
            other => panic!("expected grid_len mismatch, got {other:?}"),
        }
        // A stale ENGINE_VERSION in the manifest is refused too.
        let manifest = dir.join(MANIFEST);
        let text = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(
            &manifest,
            text.replace(
                &format!("engine {ENGINE_VERSION}"),
                &format!("engine {}", ENGINE_VERSION + 1),
            ),
        )
        .unwrap();
        match Frontier::open(&dir, spec).unwrap_err() {
            FrontierError::Mismatch { field, .. } => assert_eq!(field, "engine"),
            e => panic!("expected Mismatch, got {e}"),
        }
        // A bare directory is Missing, not silently adopted.
        std::fs::remove_file(&manifest).unwrap();
        let spec = FrontierSpec::for_grid::<Maintenance>(&grid(4), 2);
        assert!(matches!(
            Frontier::open(&dir, spec).unwrap_err(),
            FrontierError::Missing { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A driver that names no granule resumes a frontier at the chunk
    /// size its manifest records, and initializes a fresh one at its
    /// own; every other identity field is still refused on mismatch.
    #[test]
    fn resume_adopts_the_recorded_granule_and_nothing_else() {
        let dir = tmp("resume");
        let fresh =
            Frontier::resume_or_init(&dir, FrontierSpec::for_grid::<Maintenance>(&grid(6), 2));
        assert_eq!(fresh.unwrap().spec().chunk, 2);
        let resumed =
            Frontier::resume_or_init(&dir, FrontierSpec::for_grid::<Maintenance>(&grid(6), 5))
                .unwrap();
        assert_eq!((resumed.spec().chunk, resumed.chunks()), (2, 3));
        match Frontier::resume_or_init(&dir, FrontierSpec::for_grid::<Maintenance>(&grid(4), 2)) {
            Err(FrontierError::Mismatch { field, .. }) => assert_eq!(field, "grid_len"),
            other => panic!("expected grid_len mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_chunk_manifest_is_refused_before_it_divides_the_grid() {
        let dir = tmp("chunk0");
        let spec = FrontierSpec::for_grid::<Maintenance>(&grid(4), 2);
        Frontier::init(&dir, spec.clone()).unwrap();
        let manifest = dir.join(MANIFEST);
        let text = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(&manifest, text.replace("chunk 2", "chunk 0")).unwrap();
        for reopened in [
            Frontier::open(&dir, spec.clone()),
            Frontier::init(&dir, spec),
        ] {
            match reopened {
                Err(FrontierError::Mismatch { field, found, .. }) => {
                    assert_eq!((field, found.as_str()), ("chunk", "0"));
                }
                // What a worker does next with an adopted manifest.
                Ok(frontier) => panic!("adopted: {:?}", frontier.is_complete()),
                Err(e) => panic!("expected a chunk mismatch, got {e}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The 1-process reference store bytes for `grid(n)`.
    fn reference_bytes(n: usize) -> Vec<u8> {
        let cache = SweepCache::new();
        let _ = SweepRequest::new()
            .threads(1)
            .cached(&cache)
            .run::<Maintenance>(grid(n));
        let mut store = SweepStore::new();
        store.absorb(&cache);
        let path =
            std::env::temp_dir().join(format!("wl-frontier-ref-{}-{n}.wls", std::process::id()));
        store.save_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        bytes
    }

    fn worker_cfg(dir: &Path, name: &str) -> FrontierWorkerConfig {
        let store = dir.join(format!("{name}.wls"));
        let mut cfg = FrontierWorkerConfig::new(dir.join("frontier"), name, store);
        cfg.steal_timeout = Duration::from_secs(3600);
        cfg.poll = Duration::from_millis(5);
        cfg
    }

    #[test]
    fn single_frontier_worker_store_matches_reference() {
        let dir = tmp("solo");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = FrontierSpec::for_grid::<Maintenance>(&grid(5), 2);
        Frontier::init(dir.join("frontier"), spec).unwrap();
        let cfg = worker_cfg(&dir, "solo");
        let progress =
            run_worker_frontier::<Maintenance>(&SweepRunner::serial(), grid(5), &cfg, |_| {})
                .unwrap();
        assert_eq!(progress.chunks, 3);
        assert_eq!(progress.points, 5);
        assert_eq!(progress.misses, 5);
        // The worker's store is already canonical-equivalent: merge into
        // a fresh store and compare against the reference.
        let mut merged = SweepStore::new();
        merged
            .merge_from(&SweepStore::open(cfg.store.clone()).unwrap())
            .unwrap();
        let out = dir.join("merged.wls");
        merged.save_to(&out).unwrap();
        assert_eq!(
            std::fs::read(&out).unwrap(),
            reference_bytes(5),
            "frontier store != 1-process reference"
        );
        // A re-run over the completed frontier is pure hits and touches
        // nothing.
        let progress =
            run_worker_frontier::<Maintenance>(&SweepRunner::serial(), grid(5), &cfg, |_| {})
                .unwrap();
        assert_eq!(progress.chunks, 0, "no chunks left to claim");
        assert_eq!(progress.points, 0);
        // A worker that wins no claim writes no store: the harvest scans
        // for the stores that exist.
        let idle = worker_cfg(&dir, "idle");
        run_worker_frontier::<Maintenance>(&SweepRunner::serial(), grid(5), &idle, |_| {}).unwrap();
        assert!(!idle.store.exists(), "idle worker wrote a store");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unnameable_worker_id_is_refused_before_anything_is_opened() {
        let dir = tmp("badid");
        for id in ["", "a/b", "w 0", "w0.a1"] {
            // No frontier exists: a `Missing` here would mean the id was
            // checked too late.
            let cfg = worker_cfg(&dir, id);
            match run_worker_frontier::<Maintenance>(&SweepRunner::serial(), grid(2), &cfg, |_| {})
            {
                Err(FrontierError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
                    assert!(e.to_string().contains(&format!("{id:?}")), "{e}");
                }
                other => panic!("worker id {id:?} not refused: {other:?}"),
            }
        }
        assert!(!dir.exists(), "the refusal created something");
    }

    /// A worker checkpoints each chunk's records — built or hit — and
    /// nothing else: draining from empty, and (the restarted-worker
    /// case) over a store that already holds the first half of the grid.
    #[test]
    fn worker_checkpoints_exactly_each_chunks_new_records() {
        const N: usize = 8;
        for held in [0, N / 2] {
            let dir = tmp(&format!("chunked-{held}"));
            std::fs::create_dir_all(&dir).unwrap();
            let spec = FrontierSpec::for_grid::<Maintenance>(&grid(N), 2);
            Frontier::init(dir.join("frontier"), spec).unwrap();
            let cfg = worker_cfg(&dir, "resumed");
            let cache = SweepCache::new();
            let _ = SweepRequest::new()
                .threads(1)
                .cached(&cache)
                .run::<Maintenance>(grid(N)[..held].to_vec());
            let mut store = SweepStore::open(&cfg.store).unwrap();
            store.absorb(&cache);
            store.save().unwrap();

            // (records, store bytes) after every chunk.
            let mut after_chunk = vec![(held, std::fs::metadata(&cfg.store).unwrap().len())];
            let progress =
                run_worker_frontier::<Maintenance>(&SweepRunner::serial(), grid(N), &cfg, |p| {
                    after_chunk.push((p.records, std::fs::metadata(&cfg.store).unwrap().len()))
                })
                .unwrap();
            assert_eq!((progress.chunks, progress.points), (N / 2, N));
            assert_eq!(progress.hits, held as u64);
            assert_eq!(progress.misses, (N - held) as u64);
            for (chunk, pair) in after_chunk.windows(2).enumerate() {
                let fresh = if chunk * 2 < held { 0 } else { 2 };
                assert_eq!(pair[1].0, pair[0].0 + fresh, "chunk {chunk} records");
                assert_eq!(pair[1].1 > pair[0].1, fresh > 0, "chunk {chunk} bytes");
            }

            let worker_store = SweepStore::open(&cfg.store).unwrap();
            assert_eq!(worker_store.len(), N);
            assert_eq!(
                worker_store.superseded_records(),
                0,
                "a record written twice"
            );
            let mut merged = SweepStore::new();
            merged.merge_from(&worker_store).unwrap();
            let out = dir.join("merged.wls");
            merged.save_to(&out).unwrap();
            assert_eq!(
                std::fs::read(&out).unwrap(),
                reference_bytes(N),
                "store resumed from {held} records != 1-process reference"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn two_threaded_workers_drain_the_frontier_to_reference_bytes() {
        let dir = tmp("duo");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = FrontierSpec::for_grid::<Maintenance>(&grid(6), 1);
        Frontier::init(dir.join("frontier"), spec).unwrap();
        let cfgs = [worker_cfg(&dir, "left"), worker_cfg(&dir, "right")];
        std::thread::scope(|scope| {
            for cfg in &cfgs {
                scope.spawn(move || {
                    run_worker_frontier::<Maintenance>(
                        &SweepRunner::serial(),
                        grid(6),
                        cfg,
                        |_| {},
                    )
                    .unwrap();
                });
            }
        });
        let mut merged = SweepStore::new();
        for cfg in &cfgs {
            merged
                .merge_from(&SweepStore::open(cfg.store.clone()).unwrap())
                .unwrap();
        }
        assert_eq!(merged.len(), 6, "the two workers covered the grid");
        let out = dir.join("merged.wls");
        merged.save_to(&out).unwrap();
        assert_eq!(std::fs::read(&out).unwrap(), reference_bytes(6));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
