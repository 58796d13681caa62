//! [`SweepRequest`] over [`SweepRunner`]: fan a grid of scenarios across
//! threads — and shards.
//!
//! [`SweepRequest::run`] is the one sweep entry point and
//! `run_point_as` the one per-point body under it. The runner executes any
//! per-item job over a work-stealing thread pool (`std::thread::scope` —
//! no external dependency) while guaranteeing that **results are a pure
//! function of the input grid**: output order matches input order, and
//! every scenario's randomness comes from its own spec seed, never from
//! which worker ran it. `threads = 1` degenerates to the serial loop, so
//! "parallel equals serial" is testable (`sweep_thread_independence`).
//!
//! Seeds for grid points come from [`derive_seed`], a SplitMix64 hop from
//! a base seed — decorrelated streams per scenario without coordination.
//! Because the seed of grid point `i` depends only on `(base, i)`, a grid
//! can also be split across *processes and machines*: [`Shard`] names a
//! `k/N` slice, [`SweepRequest::shard`] runs it, and the shards' stores
//! reassemble the full grid through
//! [`SweepStore::merge_from`](crate::cache::SweepStore::merge_from), with
//! equality-confirmed conflict detection (see `docs/sweeps.md`).

use crate::algo::SyncAlgorithm;
use crate::cache::segment::PayloadKind;
use crate::cache::{canon_string, Record};
use crate::run::{run_dispatched, RunSummary};
use crate::service::ServiceSweepCache;
use crate::sketch::SkewSketch;
use crate::spec::ScenarioSpec;
use std::collections::HashMap;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use wl_analysis::stats::Online;
use wl_sim::{Automaton, SimStats};

/// Derives the seed of grid point `idx` from a base seed (SplitMix64).
///
/// Adjacent indices give decorrelated streams, and the mapping is stable
/// across machines and sweep widths — a scenario's identity is
/// `(base, idx)`, not its position in some thread's work queue. This is
/// also what makes [sharding](Shard) sound: every shard derives the same
/// seed for the same grid index, on any machine.
#[must_use]
pub fn derive_seed(base: u64, idx: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(idx.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`SyncAlgorithm`] whose tag type is itself the correct-process
/// [`Automaton`] over its own message type — the pattern every algorithm
/// in this workspace follows (blanket-implemented; nothing to do).
///
/// [`SweepRequest::run`] requires it so it can take the
/// monomorphized `Vec<A>` fleet fast path on qualifying grid points; see
/// [`crate::assemble_mono`].
pub trait SweepAlgorithm: SyncAlgorithm + Automaton<Msg = <Self as SyncAlgorithm>::Msg> {}

impl<T> SweepAlgorithm for T where T: SyncAlgorithm + Automaton<Msg = <T as SyncAlgorithm>::Msg> {}

/// A `k/N` slice of a sweep grid: shard `k` owns the grid indices
/// congruent to `k` mod `N`.
///
/// Sharding is machine-independent: ownership depends only on the grid
/// index, and grid-point seeds depend only on `(base, index)` (see
/// [`derive_seed`]), so N processes — on N different machines — each
/// running a [`SweepRequest::shard`] request over the *same* grid cover it
/// exactly once, and merging their stores
/// ([`SweepStore::merge_from`](crate::cache::SweepStore::merge_from))
/// reassembles the unsharded store byte-for-byte.
///
/// Parses from the conventional CLI form `"k/N"`:
///
/// ```
/// use wl_harness::Shard;
///
/// let shard: Shard = "1/4".parse().unwrap();
/// assert_eq!((shard.index(), shard.count()), (1, 4));
/// assert!(shard.owns(5) && !shard.owns(6));
/// assert_eq!(Shard::full(), "0/1".parse().unwrap());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    index: u32,
    count: u32,
}

impl Shard {
    /// Shard `index` of `count` total.
    ///
    /// # Panics
    ///
    /// Panics unless `index < count` (which also forces `count >= 1`).
    #[must_use]
    pub fn new(index: u32, count: u32) -> Self {
        assert!(index < count, "shard index {index} out of range 0..{count}");
        Self { index, count }
    }

    /// The trivial shard `0/1`: owns every grid point.
    #[must_use]
    pub fn full() -> Self {
        Self::new(0, 1)
    }

    /// This shard's zero-based index.
    #[must_use]
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Total number of shards the grid is split into.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Whether this shard owns grid index `i`.
    #[must_use]
    pub fn owns(&self, i: usize) -> bool {
        i as u64 % u64::from(self.count) == u64::from(self.index)
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl FromStr for Shard {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (k, n) = s
            .split_once('/')
            .ok_or_else(|| format!("shard spec `{s}` is not of the form k/N"))?;
        let index: u32 = k
            .parse()
            .map_err(|_| format!("shard index `{k}` is not a number"))?;
        let count: u32 = n
            .parse()
            .map_err(|_| format!("shard count `{n}` is not a number"))?;
        if index >= count {
            return Err(format!("shard index {index} out of range 0..{count}"));
        }
        Ok(Self { index, count })
    }
}

/// Runs per-scenario jobs over a scoped thread pool, deterministically.
///
/// The thread policy under [`SweepRequest`], and a deterministic parallel
/// map in its own right:
///
/// ```
/// use wl_harness::SweepRunner;
///
/// let doubled = SweepRunner::with_threads(4).run(vec![1, 2, 3], |_, x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// A runner sized to the machine (`available_parallelism`).
    #[must_use]
    pub fn new() -> Self {
        Self { threads: 0 }
    }

    /// A single-threaded runner (the plain serial loop).
    #[must_use]
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// A runner with an explicit worker count (`0` = machine-sized).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self { threads }
    }

    /// The number of workers this runner will spawn.
    ///
    /// Machine-sized runners (`threads == 0`) honour the
    /// `WL_SWEEP_THREADS` environment variable before falling back to
    /// `available_parallelism()` — operational escape hatch for
    /// containers whose advertised core count does not match their
    /// actual CPU bandwidth. Explicit counts are never overridden.
    #[must_use]
    pub fn threads(&self) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        if let Some(n) = std::env::var("WL_SWEEP_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }

    /// Maps `job` over `items`, in parallel, preserving input order.
    ///
    /// `job(i, &items[i])` must be a pure function of its arguments for
    /// the thread-count-independence guarantee to mean anything; jobs that
    /// assemble and run a [`ScenarioSpec`] are (all randomness flows from
    /// the spec seed).
    ///
    /// # Panics
    ///
    /// Propagates panics from `job`.
    pub fn run<T, R, F>(&self, items: Vec<T>, job: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let threads = self.threads().min(items.len().max(1));
        if threads <= 1 {
            return items.iter().enumerate().map(|(i, t)| job(i, t)).collect();
        }

        let next = AtomicUsize::new(0);
        let n_items = items.len();
        let mut slots: Vec<Option<R>> = (0..n_items).map(|_| None).collect();
        std::thread::scope(|scope| {
            let items = &items;
            let job = &job;
            let next = &next;
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n_items {
                                break;
                            }
                            local.push((i, job(i, &items[i])));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                for (i, r) in handle.join().expect("sweep worker panicked") {
                    slots[i] = Some(r);
                }
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every grid index ran exactly once"))
            .collect()
    }
}

/// What each grid point keeps beyond its scalar summary — the capture
/// mode of a [`SweepRequest`] and the "how rich must a hit be" argument
/// of every cache lookup.
///
/// The three modes are strictly ordered by information content
/// (scalar ⊑ sketch ⊑ series): a series record satisfies any need (its
/// sketch is derivable on the fly via [`SkewSketch::of_series`]), a
/// sketch record satisfies scalar and sketch needs, and a scalar
/// record only scalar needs. Parses from the conventional CLI form:
///
/// ```
/// use wl_harness::Capture;
///
/// assert_eq!("sketch".parse::<Capture>().unwrap(), Capture::Sketch);
/// assert_eq!(Capture::Series.to_string(), "series");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Capture {
    /// Scalar summary only — the historical default.
    #[default]
    Scalar,
    /// Scalar plus a mergeable [`SkewSketch`] (~100 bytes/point) —
    /// the streaming-aggregation mode for million-scenario sweeps.
    Sketch,
    /// Scalar plus the full [`SweepSeries`] payload (100 KB–1 MB).
    Series,
}

impl Capture {
    /// Whether `outcome` carries enough payload to satisfy this need
    /// without re-simulating (a series payload satisfies a sketch need
    /// — the sketch is a pure derivation of it).
    #[must_use]
    pub fn satisfied_by(self, outcome: &SweepOutcome) -> bool {
        self.kind() <= outcome.kind()
    }

    /// The payload rung a record must reach to serve this need.
    pub(crate) fn kind(self) -> PayloadKind {
        match self {
            Self::Scalar => PayloadKind::Scalar,
            Self::Sketch => PayloadKind::Sketch,
            Self::Series => PayloadKind::Series,
        }
    }
}

impl std::fmt::Display for Capture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Scalar => "scalar",
            Self::Sketch => "sketch",
            Self::Series => "series",
        })
    }
}

impl FromStr for Capture {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(Self::Scalar),
            "sketch" => Ok(Self::Sketch),
            "series" => Ok(Self::Series),
            other => Err(format!(
                "capture mode `{other}` is not scalar|sketch|series"
            )),
        }
    }
}

/// The one sweep entry point: a builder over every combination of
/// capture mode, caching, sharding, thread count, and the CI
/// expect-misses assertion — behind a single per-point body, so the
/// combinations cannot drift apart.
///
/// A cached sweep: the second run serves every grid point from the cache
/// without executing a single simulation.
///
/// ```
/// use wl_core::Params;
/// use wl_harness::{derive_seed, Maintenance, ScenarioSpec, SweepCache, SweepRequest};
/// use wl_time::RealTime;
///
/// let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
/// let grid: Vec<ScenarioSpec> = (0..3)
///     .map(|i| {
///         ScenarioSpec::new(params.clone())
///             .seed(derive_seed(9, i))
///             .t_end(RealTime::from_secs(2.0))
///     })
///     .collect();
///
/// let cache = SweepCache::new();
/// let cold = SweepRequest::new().cached(&cache).run::<Maintenance>(grid.clone());
/// let warm = SweepRequest::new()
///     .cached(&cache)
///     .expect_misses(0) // CI-style assertion: this run simulates nothing
///     .run::<Maintenance>(grid);
/// assert_eq!((cache.hits(), cache.misses()), (3, 3));
/// assert!(cold.iter().zip(&warm).all(|(a, b)| a.bit_identical(b)));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepRequest<'a> {
    runner: SweepRunner,
    capture: Capture,
    shard: Option<Shard>,
    cache: Option<&'a SweepCache>,
    expect_misses: Option<u64>,
}

impl<'a> SweepRequest<'a> {
    /// A machine-sized, uncached, capture-off, unsharded request.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the underlying [`SweepRunner`] (thread policy).
    #[must_use]
    pub fn runner(mut self, runner: SweepRunner) -> Self {
        self.runner = runner;
        self
    }

    /// Shorthand for an explicit worker count (`0` = machine-sized).
    #[must_use]
    pub fn threads(self, threads: usize) -> Self {
        self.runner(SweepRunner::with_threads(threads))
    }

    /// What each outcome keeps beyond its scalar summary (default
    /// [`Capture::Scalar`]). Under [`Capture::Series`] every
    /// `outcome.series` is `Some`; under [`Capture::Sketch`] every
    /// `outcome.sketch` is `Some` and `outcome.series` is `None` — each
    /// grid point runs with series capture, folds the exact skew sample
    /// stream into a ~100-byte [`SkewSketch`], and drops the series.
    ///
    /// With a cache, a record poorer than the need is a miss: the point
    /// re-simulates once and the richer record replaces it in place, so
    /// series-hungry sections of `paper_report` (`boundary`, `mean_mid`,
    /// `figures`) regenerate their figures from a warm cache with
    /// **zero** simulator executions. A richer record satisfies a poorer
    /// need — scalar consumers hit series-bearing records freely, and a
    /// sketch need derives its sketch from a stored series.
    #[must_use]
    pub fn capture(mut self, capture: Capture) -> Self {
        self.capture = capture;
        self
    }

    /// Run only the grid points `shard` owns, with grid-global indices
    /// preserved in the outcomes. Sharded requests never consult the
    /// results service: their workers own disjoint store files.
    #[must_use]
    pub fn shard(mut self, shard: Shard) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Memoize through `cache` (and, when unsharded, the results service
    /// named by `WL_SWEEP_SERVICE`): grid points whose spec is already
    /// cached under algorithm `A` are served without assembling or
    /// simulating anything.
    ///
    /// Executions are pure functions of the spec, so a hit is exact, not
    /// approximate — lookups go through the 64-bit
    /// [`ScenarioSpec::content_hash`], and every hit is confirmed by
    /// comparing the stored canonical spec serialization byte-for-byte,
    /// so a hash collision degrades to a miss rather than a wrong
    /// result. Repeated experiment grids (tweak one axis, re-run) only
    /// pay for the points that changed; results still arrive in grid
    /// order with grid-relative indices. Caches hydrated from a
    /// [`crate::cache::SweepStore`] extend this across processes and
    /// machines.
    #[must_use]
    pub fn cached(mut self, cache: &'a SweepCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// CI assertion: this run must miss the cache exactly `want` times
    /// (`0` = "this sweep executes zero simulations"). Checked after
    /// the run; a mismatch panics with the observed count. Requires
    /// [`cached`](SweepRequest::cached).
    #[must_use]
    pub fn expect_misses(mut self, want: u64) -> Self {
        self.expect_misses = Some(want);
        self
    }

    /// Executes the request under algorithm `A`. Outcomes arrive in
    /// grid order (the owned subsequence of it, when sharded) and are a
    /// pure function of `(specs, A)` — every configuration knob only
    /// changes *how* they are computed, never what they are.
    ///
    /// # Panics
    ///
    /// Panics when an [`expect_misses`](SweepRequest::expect_misses)
    /// assertion fails or was set without
    /// [`cached`](SweepRequest::cached), or if a worker thread panics.
    #[must_use]
    pub fn run<A: SweepAlgorithm>(&self, specs: Vec<ScenarioSpec>) -> Vec<SweepOutcome> {
        assert!(
            self.expect_misses.is_none() || self.cache.is_some(),
            "expect_misses requires cached()"
        );
        let misses_before = self.cache.map(|c| c.misses());
        // The service tier: local cache → service → simulate, for cached
        // unsharded requests only.
        let service = match (self.cache, self.shard) {
            (Some(cache), None) => ServiceSweepCache::from_env().map(|s| (s, cache)),
            _ => None,
        };
        if let Some((service, cache)) = &service {
            service.prefetch::<A>(&specs, self.capture, cache);
        }
        // Grid indices, not specs, are what a shard selects: every point
        // runs on `&specs[i]`, sharded or not.
        let shard = self.shard.unwrap_or_else(Shard::full);
        let owned: Vec<usize> = (0..specs.len()).filter(|&i| shard.owns(i)).collect();
        let out = self.runner.run(owned, |_, &index| {
            run_point_as::<A>(self.capture, index, &specs[index], self.cache)
        });
        if let Some((service, cache)) = &service {
            service.push_back::<A>(cache);
        }
        if let (Some(want), Some(before)) = (self.expect_misses, misses_before) {
            let got = self.cache.map_or(0, SweepCache::misses) - before;
            assert!(
                got == want,
                "sweep expected exactly {want} cache miss(es), observed {got}"
            );
        }
        out
    }
}

/// Executes one grid point at `capture` richness, memoized through
/// `cache` when there is one — the single per-point body under
/// [`SweepRequest::run`], the frontier worker loop, and the service's
/// miss pool, so the cached, sharded, and plain paths cannot diverge.
///
/// A hit must be at least as rich as `capture` and is returned as
/// stored (grid index restored) — except that a
/// sketch need served by a series-bearing record derives the sketch on
/// the fly and drops the series from the *returned* outcome (never from
/// the cache: the richer record stays). A miss — including a poorer
/// near-hit — runs the spec through [`run_dispatched`] at `capture`,
/// which hands back the series, the [`SkewSketch`] folded sample by
/// sample without one, or neither, and replaces the cache entry in place.
/// The scalar half is bit-identical at every `capture` (the capture is a
/// read-only pass over the same run).
pub(crate) fn run_point_as<A: SweepAlgorithm>(
    capture: Capture,
    index: usize,
    spec: &ScenarioSpec,
    cache: Option<&SweepCache>,
) -> SweepOutcome {
    match cache {
        Some(cache) => run_point_recorded::<A>(capture, index, spec, cache).0,
        None => simulate_point::<A>(capture, index, spec),
    }
}

/// [`run_point_as`] through `cache`, also handing back the record the
/// cache now holds for the point — the one it hit, or the one it just
/// built — so the frontier worker can checkpoint exactly a chunk's
/// records without walking its whole cache.
pub(crate) fn run_point_recorded<A: SweepAlgorithm>(
    capture: Capture,
    index: usize,
    spec: &ScenarioSpec,
    cache: &SweepCache,
) -> (SweepOutcome, Arc<Record>) {
    // Canonical form on both sides: `drift: None` and its explicit
    // default are the same execution, and must hit each other.
    let (hash, spec_canon) = (spec.content_hash(), canon_string(&spec.canonical()));
    if let Some(record) = cache.lookup(hash, A::NAME, &spec_canon, capture) {
        let mut hit = record.outcome().clone();
        hit.index = index;
        if capture == Capture::Sketch && hit.sketch.is_none() {
            let series = hit
                .series
                .take()
                .expect("a sketch-satisfying hit without a sketch carries a series");
            hit.sketch = Some(SkewSketch::of_series(&series));
        }
        return (hit, record);
    }
    let outcome = simulate_point::<A>(capture, index, spec);
    let record = Record::of_outcome(A::NAME, hash, spec_canon, &outcome);
    cache.store(Arc::clone(&record));
    (outcome, record)
}

fn simulate_point<A: SweepAlgorithm>(
    capture: Capture,
    index: usize,
    spec: &ScenarioSpec,
) -> SweepOutcome {
    let (summary, sketch, series) = run_dispatched::<A>(spec, capture);
    let mut outcome = SweepOutcome::new(index, spec.seed, &summary);
    (outcome.sketch, outcome.series) = (sketch, series);
    outcome
}

/// Opt-in memo of per-scenario sweep results, keyed by
/// `(ScenarioSpec::content_hash, algorithm name)` and confirmed against
/// the canonical spec serialization on every hit.
///
/// Shareable across sweeps and threads (`&SweepCache` is all
/// [`SweepRequest::cached`] needs), and across *processes and
/// machines* through [`crate::cache::SweepStore`], which persists the
/// same entries to disk.
///
/// # Examples
///
/// ```
/// use wl_core::Params;
/// use wl_harness::{Maintenance, ScenarioSpec, SweepCache, SweepRequest};
/// use wl_time::RealTime;
///
/// let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
/// let spec = ScenarioSpec::new(params).seed(3).t_end(RealTime::from_secs(2.0));
///
/// let cache = SweepCache::new();
/// let _ = SweepRequest::new().cached(&cache).run::<Maintenance>(vec![spec.clone()]);
/// assert_eq!((cache.len(), cache.misses()), (1, 1));
///
/// // Same spec again: a hit, no simulation.
/// let _ = SweepRequest::new().cached(&cache).run::<Maintenance>(vec![spec]);
/// assert_eq!((cache.len(), cache.hits()), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct SweepCache {
    /// Keyed by a mix of the spec content hash and the algorithm name;
    /// the record holds both back, plus the canonical spec bytes, so any
    /// collision is detected instead of served.
    map: Mutex<HashMap<u64, Arc<Record>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Folds the algorithm name into the spec content hash (FNV-1a
/// continuation) — one `u64` map key per `(spec, algorithm)` pair.
fn entry_key(content_hash: u64, algo: &str) -> u64 {
    crate::cache::fnv64_seeded(content_hash ^ crate::cache::FNV_OFFSET, algo.as_bytes())
}

impl SweepCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// [`peek`](SweepCache::peek), counting a hit or a miss — the
    /// sweep loop's lookup. A record poorer than `need` is a miss (and
    /// the re-run will upgrade the entry).
    pub(crate) fn lookup(
        &self,
        content_hash: u64,
        algo: &str,
        spec_canon: &str,
        need: Capture,
    ) -> Option<Arc<Record>> {
        let found = self.peek(content_hash, algo, spec_canon, need);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Inserts a record (replacing any previous occupant of its slot)
    /// without touching the hit/miss counters — the sweep body's store,
    /// and how [`crate::cache::SweepStore::hydrate`] and the service
    /// tier's prefetch fill a cache.
    pub(crate) fn store(&self, record: Arc<Record>) {
        let encoded = record.encoded();
        let key = entry_key(encoded.content_hash, &encoded.algo);
        self.map
            .lock()
            .expect("sweep cache poisoned")
            .insert(key, record);
    }

    /// The record of `(content_hash, algo)`, confirmed against the
    /// canonical spec bytes and rich enough for `need`
    /// (`Record::answers`), without touching the hit/miss counters —
    /// how [`crate::service`]'s client tier decides which grid points
    /// still need resolving without disturbing the statistics contracts
    /// (`WL_SWEEP_EXPECT_MISSES` counts only what the sweep loop itself
    /// observes).
    pub(crate) fn peek(
        &self,
        content_hash: u64,
        algo: &str,
        spec_canon: &str,
        need: Capture,
    ) -> Option<Arc<Record>> {
        self.map
            .lock()
            .expect("sweep cache poisoned")
            .get(&entry_key(content_hash, algo))
            .filter(|record| record.answers(content_hash, algo, spec_canon, need))
            .cloned()
    }

    /// Every record, shared — the persistence export used by
    /// [`crate::cache::SweepStore::absorb`].
    pub(crate) fn snapshot(&self) -> Vec<Arc<Record>> {
        self.map
            .lock()
            .expect("sweep cache poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// Number of scenarios currently memoized.
    ///
    /// # Panics
    ///
    /// Panics if a previous cache user panicked mid-operation.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.lock().expect("sweep cache poisoned").len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed and had to simulate.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// One grid point's results, in grid order.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Position in the input grid.
    pub index: usize,
    /// The spec seed that produced this outcome.
    pub seed: u64,
    /// Steady-state skew (second half of the agreement window).
    pub steady_skew: f64,
    /// Worst skew over the whole agreement window.
    pub max_skew: f64,
    /// Whether Theorem 16's γ bound held.
    pub agreement_holds: bool,
    /// Largest observed |ADJ|.
    pub max_abs_adjustment: f64,
    /// Mean observed |ADJ| (first adjustment skipped as warm-up).
    pub mean_abs_adjustment: f64,
    /// Whether Theorem 4a's adjustment bound held.
    pub adjustment_holds: bool,
    /// Raw simulator counters.
    pub stats: SimStats,
    /// Optional mergeable skew sketch (see [`SkewSketch`]) — present
    /// only when the outcome was produced by a
    /// [`Capture::Sketch`] request (or hydrated from a `K`/`L` store
    /// record). Mutually exclusive with `series` in stored records:
    /// the series subsumes the sketch, so a record carries one or the
    /// other, never both.
    pub sketch: Option<SkewSketch>,
    /// Optional per-run series payload (see [`SweepSeries`]) — present
    /// only when the outcome was produced by a
    /// [`Capture::Series`] request (or hydrated from a
    /// series-bearing store record). How an outcome is stored is
    /// `cache/canon.rs`'s decision, not this declaration's: a new field
    /// needs its writer and reader there.
    pub series: Option<SweepSeries>,
}

impl SweepOutcome {
    /// Collapses a [`RunSummary`] into the scalar grid-point record —
    /// exactly what the sweep's per-point body stores. Public so parity
    /// tests can compare independently produced runs with
    /// [`SweepOutcome::bit_identical`].
    #[must_use]
    pub fn new(index: usize, seed: u64, summary: &RunSummary) -> Self {
        Self {
            index,
            seed,
            steady_skew: summary.agreement.steady_skew,
            max_skew: summary.agreement.max_skew,
            agreement_holds: summary.agreement.holds,
            max_abs_adjustment: summary.adjustments.max_abs,
            mean_abs_adjustment: summary.adjustments.mean_abs,
            adjustment_holds: summary.adjustments.holds,
            stats: summary.stats,
            sketch: None,
            series: None,
        }
    }

    /// Which rung of scalar ⊑ sketch ⊑ series this outcome's payload
    /// sits on (and which record tag family it persists under) — the
    /// one spelling of the order.
    pub(crate) fn kind(&self) -> PayloadKind {
        if self.series.is_some() {
            PayloadKind::Series
        } else if self.sketch.is_some() {
            PayloadKind::Sketch
        } else {
            PayloadKind::Scalar
        }
    }

    /// Bit-level equality: floats compared by their IEEE bit patterns
    /// (`NaN == NaN`, `-0.0 != 0.0`) — the determinism currency of the
    /// shard merge and the disk store, strictly stronger than any
    /// epsilon comparison. Series payloads (or their absence) must match
    /// too.
    #[must_use]
    pub fn bit_identical(&self, other: &Self) -> bool {
        let series_match = match (&self.series, &other.series) {
            (None, None) => true,
            (Some(a), Some(b)) => a.bit_identical(b),
            _ => false,
        };
        let sketch_match = match (&self.sketch, &other.sketch) {
            (None, None) => true,
            (Some(a), Some(b)) => a.bit_identical(b),
            _ => false,
        };
        sketch_match
            && self.index == other.index
            && self.seed == other.seed
            && self.steady_skew.to_bits() == other.steady_skew.to_bits()
            && self.max_skew.to_bits() == other.max_skew.to_bits()
            && self.agreement_holds == other.agreement_holds
            && self.max_abs_adjustment.to_bits() == other.max_abs_adjustment.to_bits()
            && self.mean_abs_adjustment.to_bits() == other.mean_abs_adjustment.to_bits()
            && self.adjustment_holds == other.adjustment_holds
            && self.stats == other.stats
            && series_match
    }
}

/// Per-run time series cached alongside the scalar summary — the payload
/// that lets figure-style experiments regenerate from a warm cache
/// without re-simulating anything.
///
/// All times are real seconds. The three series:
///
/// * **per-round skew** (`round_times`/`round_skews`) — the max
///   nonfaulty skew just after each resynchronization wave
///   (`wl_analysis::convergence::round_series` at wave gap `P/4`, the
///   same series [`RunSummary`] reports); its
///   last element is the *final skew*, the quantity "final skew vs
///   parameter" plots read off per grid point.
/// * **sampled skew** (`skew_times`/`skew_values`) — the max pairwise
///   nonfaulty skew on a uniform grid over `[0, 0.99·t_end]` (step
///   `P/10`, floored so a run yields at most ~4000 grid samples) *plus*
///   a sample immediately before and after every nonfaulty correction
///   change, where piecewise-linear local time makes the skew extremal —
///   so window maxima computed from the series are exact, not
///   grid-resolution approximations.
/// * **correction series** (`corr_procs`/`corr_times`/`corr_values`) —
///   every nonfaulty correction change as `(process, time, new CORR)`,
///   flattened in time order (ties broken by process id).
///
/// Stored in v2 (`S`-tagged) records of the sweep store; see
/// `docs/sweeps.md`.
#[derive(Debug, Clone)]
pub struct SweepSeries {
    /// Real time of each resynchronization wave measurement.
    pub round_times: Vec<f64>,
    /// Max nonfaulty skew just after each wave.
    pub round_skews: Vec<f64>,
    /// Sample times of the skew series (grid + correction events).
    pub skew_times: Vec<f64>,
    /// Max pairwise nonfaulty skew at each sample time.
    pub skew_values: Vec<f64>,
    /// Process id of each correction change, parallel to `corr_times`.
    pub corr_procs: Vec<u32>,
    /// Real time of each correction change.
    pub corr_times: Vec<f64>,
    /// The new correction value reported at each change.
    pub corr_values: Vec<f64>,
}

impl SweepSeries {
    /// The skew series restricted to `from <= t <= to`, as `(t, skew)`
    /// pairs — the shape plotting code consumes.
    #[must_use]
    pub fn skew_window(&self, from: f64, to: f64) -> Vec<(f64, f64)> {
        self.skew_times
            .iter()
            .zip(&self.skew_values)
            .filter(|&(&t, _)| t >= from && t <= to)
            .map(|(&t, &s)| (t, s))
            .collect()
    }

    /// The largest sampled skew with `from <= t <= to` (0 if the window
    /// is empty). Exact, because the series samples every correction
    /// event (where the piecewise-linear skew is extremal).
    #[must_use]
    pub fn max_skew_in(&self, from: f64, to: f64) -> f64 {
        self.skew_window(from, to)
            .iter()
            .map(|&(_, s)| s)
            .fold(0.0, f64::max)
    }

    /// The per-round series as a [`wl_analysis::convergence::RoundSeries`]
    /// (for `contraction_factor` / `final_skew` / `check_recurrence`).
    #[must_use]
    pub fn rounds(&self) -> wl_analysis::convergence::RoundSeries {
        wl_analysis::convergence::RoundSeries {
            skews: self.round_skews.clone(),
            times: self
                .round_times
                .iter()
                .map(|&t| wl_time::RealTime::from_secs(t))
                .collect(),
        }
    }

    /// Bit-level equality of every series element (same currency as
    /// [`SweepOutcome::bit_identical`]).
    #[must_use]
    pub fn bit_identical(&self, other: &Self) -> bool {
        fn eq(a: &[f64], b: &[f64]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        eq(&self.round_times, &other.round_times)
            && eq(&self.round_skews, &other.round_skews)
            && eq(&self.skew_times, &other.skew_times)
            && eq(&self.skew_values, &other.skew_values)
            && self.corr_procs == other.corr_procs
            && eq(&self.corr_times, &other.corr_times)
            && eq(&self.corr_values, &other.corr_values)
    }
}

/// Streaming aggregation of sweep outcomes into `wl-analysis` collectors.
#[derive(Debug, Default)]
pub struct SweepSummary {
    /// Steady-state skew across the grid.
    pub steady_skew: Online,
    /// Worst-case skew across the grid.
    pub max_skew: Online,
    /// |ADJ| maxima across the grid.
    pub max_abs_adjustment: Online,
    /// Total events simulated.
    pub events: u64,
    /// Grid points where Theorem 16 held.
    pub agreement_held: usize,
    /// Grid points aggregated.
    pub count: usize,
}

impl SweepSummary {
    /// Aggregates a slice of outcomes.
    #[must_use]
    pub fn collect(outcomes: &[SweepOutcome]) -> Self {
        let mut s = Self::default();
        for o in outcomes {
            s.push(o);
        }
        s
    }

    /// Adds one outcome.
    pub fn push(&mut self, o: &SweepOutcome) {
        self.steady_skew.push(o.steady_skew);
        self.max_skew.push(o.max_skew);
        self.max_abs_adjustment.push(o.max_abs_adjustment);
        self.events += o.stats.events_delivered;
        self.agreement_held += usize::from(o.agreement_holds);
        self.count += 1;
    }

    /// Whether agreement held at every grid point.
    #[must_use]
    pub fn all_hold(&self) -> bool {
        self.agreement_held == self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::{assemble, assemble_enum, assemble_mono, BuiltScenario};
    use crate::run::{drive_and_summarize, run_capture, run_summary};
    use crate::Maintenance;
    use wl_core::Params;
    use wl_time::RealTime;

    /// The scalar-capture, uncached per-point body.
    fn run_point<A: SweepAlgorithm>(index: usize, spec: &ScenarioSpec) -> SweepOutcome {
        run_point_as::<A>(Capture::Scalar, index, spec, None)
    }

    fn grid(count: usize) -> Vec<ScenarioSpec> {
        let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
        (0..count)
            .map(|i| {
                ScenarioSpec::new(params.clone())
                    .seed(derive_seed(7, i as u64))
                    .t_end(RealTime::from_secs(4.0))
            })
            .collect()
    }

    /// A single-threaded request memoized through `cache`.
    fn serial(cache: &SweepCache) -> SweepRequest<'_> {
        SweepRequest::new().threads(1).cached(cache)
    }

    #[test]
    fn derive_seed_is_stable_and_spread() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn run_preserves_input_order() {
        let doubled = SweepRunner::with_threads(4).run(vec![1, 2, 3, 4, 5], |_, x| x * 2);
        assert_eq!(doubled, vec![2, 4, 6, 8, 10]);
    }

    #[test]
    fn sweep_outcomes_independent_of_thread_count() {
        let serial = SweepRequest::new().threads(1).run::<Maintenance>(grid(6));
        let wide = SweepRequest::new().threads(4).run::<Maintenance>(grid(6));
        assert_eq!(serial.len(), wide.len());
        for (a, b) in serial.iter().zip(&wide) {
            assert!(a.bit_identical(b));
        }
    }

    /// The fastest rung a spec is expected on; every slower rung accepts
    /// it too (the boxed rung hosts everything).
    #[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
    enum Fastest {
        Mono,
        Enum,
        Boxed,
    }

    fn outcome_on<M, Q, F>(
        built: BuiltScenario<M, Q, F>,
        spec: &ScenarioSpec,
        capture: Capture,
    ) -> SweepOutcome
    where
        M: Clone + std::fmt::Debug + Send + 'static,
        Q: wl_sim::EventQueue<M>,
        F: wl_sim::Fleet<M>,
    {
        let t_end = spec.t_end.as_secs();
        let (summary, sketch, series) = match capture {
            Capture::Scalar => (run_summary(built, t_end), None, None),
            Capture::Sketch => drive_and_summarize(built, t_end, capture),
            Capture::Series => {
                let (summary, series) = run_capture(built, t_end);
                (summary, None, Some(series))
            }
        };
        let mut outcome = SweepOutcome::new(0, spec.seed, &summary);
        (outcome.sketch, outcome.series) = (sketch, series);
        outcome
    }

    fn traced_run<M, Q, F>(
        mut built: BuiltScenario<M, Q, F>,
    ) -> (Vec<wl_sim::trace::TraceEvent>, wl_sim::SimStats)
    where
        M: Clone + std::fmt::Debug + Send + 'static,
        Q: wl_sim::EventQueue<M>,
        F: wl_sim::Fleet<M>,
    {
        let outcome = built.sim.run();
        (outcome.trace.events().to_vec(), outcome.stats)
    }

    /// One row of the rung table: (a) which rungs accept `spec`, traced
    /// or not; (b) every accepting rung, and the ladder, reproduce the
    /// boxed rung's outcome bit for bit at all three captures — whose
    /// scalar halves are one another's, and whose in-pass sketch is the
    /// sketch of the stored series; (c) traced, every accepting rung
    /// records the boxed rung's trace and counters.
    fn check_rungs<A: SweepAlgorithm>(row: &str, spec: &ScenarioSpec, fastest: Fastest) {
        let row = format!("{} / {row}", A::NAME);
        let traced = spec.clone().trace(16);
        for s in [spec, &traced] {
            assert_eq!(
                assemble_mono::<A>(s).is_some(),
                fastest == Fastest::Mono,
                "{row}: mono acceptance"
            );
            assert_eq!(
                assemble_enum::<A>(s).is_some(),
                fastest <= Fastest::Enum,
                "{row}: enum acceptance"
            );
        }
        let [scalar, sketch, series] = [Capture::Scalar, Capture::Sketch, Capture::Series]
            .map(|capture| outcome_on(assemble::<A>(spec), spec, capture));
        let folded = sketch.sketch.as_ref().expect("sketch captured");
        let stored = series.series.as_ref().expect("series captured");
        assert!(
            folded.bit_identical(&SkewSketch::of_series(stored)),
            "{row}: in-pass sketch vs sketch of the series"
        );
        for richer in [&sketch, &series] {
            let mut half = richer.clone();
            (half.sketch, half.series) = (None, None);
            assert!(half.bit_identical(&scalar), "{row}: scalar half");
        }
        for (capture, boxed) in [
            (Capture::Scalar, scalar),
            (Capture::Sketch, sketch),
            (Capture::Series, series),
        ] {
            let ladder = run_point_as::<A>(capture, 0, spec, None);
            assert!(ladder.bit_identical(&boxed), "{row}: ladder at {capture}");
            if let Some(built) = assemble_mono::<A>(spec) {
                let mono = outcome_on(built, spec, capture);
                assert!(mono.bit_identical(&boxed), "{row}: mono at {capture}");
            }
            if let Some(built) = assemble_enum::<A>(spec) {
                let on_enum = outcome_on(built, spec, capture);
                assert!(on_enum.bit_identical(&boxed), "{row}: enum at {capture}");
            }
        }
        let boxed = traced_run(assemble::<A>(&traced));
        assert_eq!(boxed.0.len(), 16, "{row}: the trace fills");
        if let Some(built) = assemble_mono::<A>(&traced) {
            assert_eq!(traced_run(built), boxed, "{row}: mono trace");
        }
        if let Some(built) = assemble_enum::<A>(&traced) {
            assert_eq!(traced_run(built), boxed, "{row}: enum trace");
        }
    }

    #[test]
    fn rungs_agree() {
        use crate::{AdversarySpec, AdversaryStrategy, FaultKind, LmCnv, Startup};
        use crate::{MahaneySchneider, Rejoiner, SrikanthToueg};
        use wl_sim::ProcessId;
        use Fastest::{Boxed, Enum, Mono};

        let p = ProcessId(0);
        let rejoining = |spec: &ScenarioSpec| {
            spec.clone()
                .rejoiner(ProcessId(2), RealTime::from_secs(2.0))
        };
        let with = |spec: &ScenarioSpec, strategy| {
            spec.clone()
                .adversary(AdversarySpec::new(vec![p], strategy))
        };
        let churn = AdversaryStrategy::Churn { up: 1.0, down: 0.5 };

        let base = grid(1).remove(0);
        check_rungs::<Maintenance>("fault-free", &base, Mono);
        for kind in [
            FaultKind::CrashAt(2.0),
            FaultKind::Silent,
            FaultKind::RoundSpam,
            FaultKind::PullApart(0.002),
            FaultKind::PullApartHigh(0.002),
            FaultKind::TwoFaced(0.002),
        ] {
            check_rungs::<Maintenance>(&format!("{kind:?}"), &base.clone().fault(p, kind), Enum);
        }
        check_rungs::<Maintenance>("rejoiner", &rejoining(&base), Enum);
        check_rungs::<Maintenance>(
            "delay-only adversary",
            &with(&base, AdversaryStrategy::Partition),
            Mono,
        );
        check_rungs::<Maintenance>("churn adversary", &with(&base, churn), Boxed);
        // Declined by the enum rung as a *member*, though the automaton
        // it maps to (Silent) is one the fleet enum could hold.
        check_rungs::<Maintenance>(
            "mute adversary",
            &with(&base, AdversaryStrategy::Mute),
            Boxed,
        );

        let sp = wl_core::StartupParams::new(4, 1, 1e-6, 0.010, 0.001).unwrap();
        let cold = ScenarioSpec::startup(&sp, 5.0)
            .seed(7)
            .t_end(RealTime::from_secs(4.0));
        check_rungs::<Startup>("fault-free", &cold, Mono);
        check_rungs::<Startup>("Silent", &cold.clone().fault(p, FaultKind::Silent), Enum);
        check_rungs::<Startup>(
            "delay-only adversary",
            &with(&cold, AdversaryStrategy::TargetedDelay { victim: 1 }),
            Mono,
        );
        check_rungs::<Startup>("churn adversary", &with(&cold, churn), Boxed);

        check_rungs::<LmCnv>("fault-free", &base, Mono);
        for kind in [FaultKind::Silent, FaultKind::TwoFaced(0.002)] {
            check_rungs::<LmCnv>(&format!("{kind:?}"), &base.clone().fault(p, kind), Enum);
        }
        check_rungs::<LmCnv>(
            "delay-only adversary",
            &with(&base, AdversaryStrategy::Partition),
            Mono,
        );
        check_rungs::<LmCnv>("churn adversary", &with(&base, churn), Boxed);

        check_rungs::<Rejoiner>("rejoiner", &rejoining(&base), Enum);
        check_rungs::<MahaneySchneider>("fault-free", &base, Mono);
        check_rungs::<SrikanthToueg>("fault-free", &base, Mono);

        // A rejoiner the algorithm lacks: no fast rung takes it (the
        // boxed rung's refusal is `baselines_reject_rejoiners`).
        assert!(assemble_enum::<Startup>(&rejoining(&cold)).is_none());
        assert!(assemble_enum::<LmCnv>(&rejoining(&base)).is_none());
    }

    #[test]
    fn summary_aggregates() {
        let outcomes = SweepRequest::new().run::<Maintenance>(grid(4));
        let summary = SweepSummary::collect(&outcomes);
        assert_eq!(summary.count, 4);
        assert!(summary.all_hold());
        assert!(summary.steady_skew.mean() > 0.0);
        assert!(summary.events > 0);
    }

    #[test]
    fn empty_grid_is_fine() {
        let out = SweepRunner::new().run(Vec::<u32>::new(), |_, x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn cached_sweep_matches_uncached() {
        let cache = SweepCache::new();
        let cold = serial(&cache).run::<Maintenance>(grid(4));
        let plain = SweepRequest::new().threads(1).run::<Maintenance>(grid(4));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 4);
        for (a, b) in cold.iter().zip(&plain) {
            assert!(a.bit_identical(b));
        }
        // Second run: all hits, same results, grid indices remapped.
        let warm = SweepRequest::new()
            .threads(3)
            .cached(&cache)
            .run::<Maintenance>(grid(4));
        assert_eq!(cache.hits(), 4);
        for (a, b) in warm.iter().zip(&plain) {
            assert!(a.bit_identical(b));
        }
    }

    #[test]
    fn series_path_scalars_match_plain_sweep() {
        let plain = SweepRequest::new().threads(1).run::<Maintenance>(grid(3));
        let cache = SweepCache::new();
        let with_series = serial(&cache)
            .capture(Capture::Series)
            .run::<Maintenance>(grid(3));
        for (a, b) in with_series.iter().zip(&plain) {
            let series = a.series.as_ref().expect("series always captured");
            assert!(!series.skew_times.is_empty());
            assert_eq!(series.skew_times.len(), series.skew_values.len());
            assert_eq!(series.round_times.len(), series.round_skews.len());
            assert_eq!(series.corr_times.len(), series.corr_values.len());
            assert_eq!(series.corr_times.len(), series.corr_procs.len());
            // The scalar half must be exactly what the scalar sweep
            // produces — capture is a read-only pass over the same run.
            let mut scalar = a.clone();
            scalar.series = None;
            assert!(scalar.bit_identical(b), "series capture perturbed point");
        }
    }

    #[test]
    fn capture_lattice_over_cache_states() {
        use Capture::{Scalar, Series, Sketch};
        let spec = &grid(1)[0];
        let canon = canon_string(&spec.canonical());
        let hash = spec.content_hash();
        let plain = run_point::<Maintenance>(5, spec);
        let series_ref = run_point_as::<Maintenance>(Series, 5, spec, None)
            .series
            .expect("series captured");
        let sketch_ref = SkewSketch::of_series(&series_ref);
        let rank = |c: Capture| [Scalar, Sketch, Series].iter().position(|&x| x == c);

        // (need, what the cache holds beforehand, misses the call counts).
        // `None` = no cache at all; `Some(None)` = cold cache.
        let cells: [(Capture, Option<Option<Capture>>, u64); 12] = [
            (Scalar, None, 0),
            (Sketch, None, 0),
            (Series, None, 0),
            (Scalar, Some(None), 1),
            (Sketch, Some(None), 1),
            (Series, Some(None), 1),
            // Warm, record no richer than one step below the need: only a
            // scalar need is satisfied (nothing is poorer than scalar).
            (Scalar, Some(Some(Scalar)), 0),
            (Sketch, Some(Some(Scalar)), 1),
            (Series, Some(Some(Sketch)), 1),
            // Warm, record one step richer (series is the top).
            (Scalar, Some(Some(Sketch)), 0),
            (Sketch, Some(Some(Series)), 0),
            (Series, Some(Some(Series)), 0),
        ];
        for (need, state, want_misses) in cells {
            let cell = format!("need {need}, cache {state:?}");
            let cache = state.map(|seeded| {
                let cache = SweepCache::new();
                if let Some(seeded) = seeded {
                    let _ = run_point_as::<Maintenance>(seeded, 0, spec, Some(&cache));
                }
                cache
            });
            let before = cache.as_ref().map_or(0, SweepCache::misses);
            let got = run_point_as::<Maintenance>(need, 5, spec, cache.as_ref());
            let misses = cache.as_ref().map_or(0, SweepCache::misses) - before;
            assert_eq!(misses, want_misses, "{cell}: miss count");

            // Scalar half: identical in all twelve cells, index remapped.
            let mut scalar = got.clone();
            (scalar.sketch, scalar.series) = (None, None);
            assert!(scalar.bit_identical(&plain), "{cell}: scalar half");

            // Payload: what the need asks for — or, for a scalar need, the
            // stored record as-is.
            let stored = state.flatten();
            let (want_sketch, want_series) = match need {
                Scalar => (stored == Some(Sketch), stored == Some(Series)),
                Sketch => (true, false),
                Series => (false, true),
            };
            assert_eq!(got.sketch.is_some(), want_sketch, "{cell}: sketch");
            assert_eq!(got.series.is_some(), want_series, "{cell}: series");
            // Produced, stored, or derived from a series hit: one sketch.
            assert!(got.sketch.iter().all(|s| s.bit_identical(&sketch_ref)));
            assert!(got.series.iter().all(|s| s.bit_identical(&series_ref)));

            // The cache ends up holding exactly one record, the richer of
            // what it had and what was needed — upgraded in place on a
            // miss, left untouched (series kept) on a richer hit.
            if let Some(cache) = &cache {
                let richest = [Some(need), stored]
                    .into_iter()
                    .flatten()
                    .max_by_key(|&c| rank(c))
                    .expect("need is always there");
                assert_eq!(cache.len(), 1, "{cell}: one record");
                let held = cache.peek(hash, Maintenance::NAME, &canon, richest);
                assert!(held.is_some(), "{cell}: cache holds a {richest} record");
            }
        }
    }

    #[test]
    fn cache_hits_across_drift_canonicalization() {
        // `drift: None` and its explicit default assemble identically and
        // hash identically — they must hit each other in the cache.
        let cache = SweepCache::new();
        let implicit = grid(2);
        let explicit: Vec<ScenarioSpec> = implicit
            .iter()
            .map(|s| s.clone().drift(s.effective_drift()))
            .collect();
        let a = serial(&cache).run::<Maintenance>(implicit);
        let b = serial(&cache).run::<Maintenance>(explicit);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stats, y.stats);
        }
    }

    #[test]
    fn cache_distinguishes_algorithms_and_specs() {
        use crate::LmCnv;
        let cache = SweepCache::new();
        let _ = serial(&cache).run::<Maintenance>(grid(2));
        // Same specs, different algorithm: no hits.
        let _ = serial(&cache).run::<LmCnv>(grid(2));
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 4);
        // A changed grid point misses; unchanged ones hit.
        let mut shifted = grid(2);
        shifted[1] = shifted[1].clone().seed(0xDEAD);
        let _ = serial(&cache).run::<Maintenance>(shifted);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 5);
    }

    #[test]
    fn request_expect_misses_passes_and_fails() {
        let cache = SweepCache::new();
        let _ = serial(&cache).expect_misses(3).run::<Maintenance>(grid(3));
        // Warm: zero misses is enforceable.
        let _ = SweepRequest::new()
            .cached(&cache)
            .expect_misses(0)
            .run::<Maintenance>(grid(3));
        // And a wrong expectation panics.
        let err = std::panic::catch_unwind(|| {
            let _ = SweepRequest::new()
                .cached(&cache)
                .expect_misses(7)
                .run::<Maintenance>(grid(3));
        });
        assert!(err.is_err(), "miss-count mismatch must fail the sweep");
    }

    #[test]
    #[should_panic(expected = "expect_misses requires cached()")]
    fn request_expect_misses_without_cache_is_refused() {
        let _ = SweepRequest::new()
            .expect_misses(1)
            .run::<Maintenance>(grid(1));
    }

    #[test]
    fn shard_parsing_and_ownership() {
        let s: Shard = "2/5".parse().unwrap();
        assert_eq!((s.index(), s.count()), (2, 5));
        assert!(s.owns(2) && s.owns(7) && !s.owns(3));
        assert_eq!(s.to_string(), "2/5");
        assert!("5/5".parse::<Shard>().is_err());
        assert!("x/5".parse::<Shard>().is_err());
        assert!("3".parse::<Shard>().is_err());
        assert!(Shard::full().owns(0) && Shard::full().owns(123));
    }

    #[test]
    fn sharded_sweep_merges_to_unsharded() {
        let full = SweepRequest::new().threads(1).run::<Maintenance>(grid(5));
        // Count 1 is `Shard::full()` given explicitly: the same as no shard.
        assert_eq!(Shard::new(0, 1), Shard::full());
        for threads in [1, 2] {
            for count in 1..=3 {
                let mut union = Vec::new();
                for k in 0..count {
                    let part = SweepRequest::new()
                        .threads(threads)
                        .shard(Shard::new(k, count))
                        .run::<Maintenance>(grid(5));
                    // Exactly the owned subsequence, in grid order, with
                    // grid-global indices.
                    let owned: Vec<usize> = (k as usize..5).step_by(count as usize).collect();
                    let indices: Vec<usize> = part.iter().map(|o| o.index).collect();
                    assert_eq!(indices, owned, "shard {k}/{count}, {threads} thread(s)");
                    union.extend(part);
                }
                union.sort_by_key(|o| o.index);
                assert_eq!(union.len(), full.len());
                assert!(union.iter().zip(&full).all(|(a, b)| a.bit_identical(b)));
            }
        }
    }
}
