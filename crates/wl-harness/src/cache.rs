//! Disk persistence for [`SweepCache`]: a content-addressed, append-only
//! record store shared across experiment binaries and machines.
//!
//! Sweeps are pure functions of their specs (`docs/sweeps.md` spells out
//! the contract), so their results are cacheable *forever* — as long as
//! three identities line up:
//!
//! 1. **the spec** — keyed by [`ScenarioSpec::content_hash`] and
//!    confirmed byte-for-byte against a canonical serialization of the
//!    spec (a hash collision degrades to a miss, never a wrong result);
//! 2. **the algorithm** — the [`SyncAlgorithm::NAME`] string;
//! 3. **the engine** — [`ENGINE_VERSION`], bumped whenever simulator
//!    semantics, seed derivation, or the canonical encoding change.
//!    Records from another engine version are *stale* and ignored.
//!
//! [`SweepStore`] owns the on-disk formats — two of them, auto-detected
//! on load and selected per store on save ([`StoreFormat`]):
//!
//! * **text** (`wlsweep 1`): one human-greppable record line per
//!   `(spec, algorithm)` pair, each carrying its own checksum. Scalar
//!   summaries are `R`-tagged; records whose outcome additionally
//!   carries a [`SweepSeries`] payload are `S`-tagged (the v2 record
//!   kind, introduced with `ENGINE_VERSION` 3).
//! * **binary** (`WLSB`, the v3 format): the same records framed as
//!   length-prefixed, checksummed binary units with their canonical
//!   strings [`wlz`]-compressed, packed into fixed-capacity segments
//!   ([`segment`] is the framing layer). ~2× smaller on series-heavy
//!   grids (the hex-entropy floor, PERF.md's PR 5 note), and
//!   *appendable*: [`SweepStore::checkpoint`] extends the file by one
//!   segment instead of rewriting it. Migration between the two is
//!   lossless and byte-pinned ([`SweepStore::migrate`]).
//!
//! `docs/store-format.md` is the normative byte-level specification of
//! both formats. Loading tolerates arbitrary corruption (truncated
//! tails, mangled lines or segments, foreign files) by skipping what it
//! cannot verify; saving writes the whole store to a temp file and
//! atomically renames it, so readers never observe a half-written
//! store. Records are written in sorted key order, which makes saved
//! store files *canonical*: merging shard stores and then saving yields
//! byte-for-byte the file an unsharded run would have produced — CI
//! diffs the two, in both formats. Stale-engine records are **retained**
//! verbatim across saves (a new-engine process saving into a shared
//! store must not destroy another build's records);
//! [`SweepStore::compact`] is the explicit GC that drops them, along
//! with records superseded by appended checkpoint segments.
//!
//! **Record model.** In memory a record has one shape, the
//! crate-private `Record`: a validated [`EncodedRecord`] (the six fields
//! both formats and the wire carry) beside its parsed [`SweepOutcome`],
//! shared as `Arc<Record>`. It has two constructors — `Record::of_outcome`
//! for a result this process computed, `Record::admit` for bytes that
//! arrived from a file or a socket (live / stale / corrupt) — and after
//! either one the grid index is 0, the canonical outcome bytes are those
//! of the parsed outcome, and the tag is the one the payload and the spec
//! imply. [`SweepCache`]'s map, [`SweepStore`]'s map, the results server
//! and its client tier all hold the same pointer: hydrating, absorbing
//! and merging copy pointers, never strings, and two records are equal
//! iff their canonical bytes are.
//!
//! **Canonical text.** The strings records carry — spec canon, outcome
//! canon, the quoted algorithm name of a text line — follow one grammar,
//! and `cache/canon.rs` owns it: the [`Canon`] writer behind
//! [`canon_string`], hand-written for exactly the types that reach a
//! store, a hash or the wire, beside the hand-written outcome parser,
//! which accepts only what that writer emits. A golden corpus
//! (`tests/fixtures/canon.golden`) pins the grammar character for
//! character.
//!
//! [`ScenarioSpec::content_hash`]: crate::ScenarioSpec::content_hash
//! [`SyncAlgorithm::NAME`]: crate::SyncAlgorithm::NAME
//! [`SweepSeries`]: crate::SweepSeries

mod canon;
pub mod segment;

pub use canon::{canon_string, spec_is_adversarial, Canon};

use crate::sketch::SkewSketch;
use crate::sweep::Capture;
use crate::sweep::{SweepCache, SweepOutcome};
use canon::{parse_outcome, scalar_half, unescape};
use segment::{
    record_tag, tag_payload_kind, EncodedRecord, PayloadKind, SegmentReader, SegmentWriter,
    DEFAULT_SEGMENT_CAPACITY,
};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

/// The engine-semantics version stamped into every persisted record.
///
/// Cached results are only valid while executions remain bit-for-bit
/// reproducible, so **bump this** whenever anything that feeds an
/// execution changes: simulator event ordering, RNG draw order in
/// assembly, [`derive_seed`](crate::derive_seed), the spec hash, the
/// canonical encoding, or the [`SweepOutcome`] fields. Stale records are
/// ignored at load time (never an error), so old stores degrade to cold
/// caches instead of poisoning new runs.
///
/// History: 3 added the optional [`SweepSeries`](crate::SweepSeries)
/// payload (`S`-tagged records) and the `series` field to the canonical
/// [`SweepOutcome`] encoding. 4 added the adversary block to [`crate::ScenarioSpec`]
/// (an `adversary:` field in every spec canon) and the adversarial
/// record tags `A`/`B`; v3 stores still load — their records are
/// retained verbatim as stale, exactly like the v2→v3 migration.
/// 5 added the optional [`SkewSketch`] payload (`K`/`L`-tagged records)
/// and the `sketch` field to the canonical [`SweepOutcome`] encoding;
/// v4 stores load the same way — stale records retained verbatim,
/// re-served byte-for-byte across saves and text↔binary migration.
pub const ENGINE_VERSION: u32 = 5;

/// First line of every **text** store file: format magic + *format*
/// version (which is about the file layout; [`ENGINE_VERSION`] travels
/// per record). Binary stores open with [`segment::FILE_MAGIC`]
/// instead; [`SweepStore::open`] tells the two apart by these leading
/// bytes.
const HEADER: &str = "wlsweep 1";

/// Which on-disk layout a [`SweepStore`] reads and writes.
///
/// Both formats carry exactly the same records (`docs/store-format.md`
/// specifies each byte), so stores migrate between them losslessly —
/// text → binary → text reproduces the original file byte-for-byte.
/// [`SweepStore::open`] auto-detects the format of an existing file;
/// the format only has to be *chosen* when creating or migrating a
/// store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StoreFormat {
    /// Line-oriented, human-greppable text (`wlsweep 1`): the v1/v2
    /// format, and the default for new stores.
    #[default]
    Text,
    /// Compressed binary segments (`WLSB`): the v3 format — ~2×
    /// smaller on series grids (PERF.md, PR 5), appendable in O(new
    /// records) by [`SweepStore::checkpoint`].
    Binary,
}

impl std::fmt::Display for StoreFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Text => "text",
            Self::Binary => "binary",
        })
    }
}

impl FromStr for StoreFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" => Ok(Self::Text),
            "binary" => Ok(Self::Binary),
            other => Err(format!("unknown store format `{other}` (text|binary)")),
        }
    }
}

// ---------------------------------------------------------------------------
// The record store.
// ---------------------------------------------------------------------------

/// The FNV-1a offset basis and prime — one definition for every FNV use
/// in the crate (line, segment and frame checksums, cache slot keys in
/// `sweep.rs`).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a continued from an arbitrary running state.
pub(crate) fn fnv64_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over raw bytes — the checksum of every store line, segment
/// and block, and of every service frame.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_seeded(FNV_OFFSET, bytes)
}

type StoreKey = (u64, String);

/// The one in-memory record (see the module docs' record model): the
/// format-level [`EncodedRecord`] and the [`SweepOutcome`] it parses to.
/// Fields are private so the two constructors are the only way in.
#[derive(Debug)]
pub(crate) struct Record {
    encoded: EncodedRecord,
    outcome: SweepOutcome,
}

/// What [`Record::admit`] made of an arriving [`EncodedRecord`].
pub(crate) enum Admitted {
    /// Current engine, parses, tag agrees with payload and spec.
    Live(Arc<Record>),
    /// Another engine's record, handed back untouched: its outcome
    /// grammar may be unknown to this build, so it is never parsed —
    /// stores retain it verbatim, everything else refuses it.
    Stale(EncodedRecord),
    /// Unparseable outcome, or a tag the payload or spec contradicts.
    Corrupt,
}

impl Record {
    /// The record of a result this process computed: grid index
    /// normalized to zero (*what* was computed persists, not where in
    /// some grid it sat — this is what makes shard-store merges
    /// canonical), canonical bytes derived once, tag chosen from the
    /// payload and the spec's adversary block.
    pub(crate) fn of_outcome(
        algo: &str,
        content_hash: u64,
        spec_canon: String,
        outcome: &SweepOutcome,
    ) -> Arc<Self> {
        let mut outcome = outcome.clone();
        outcome.index = 0;
        let encoded = EncodedRecord {
            tag: record_tag(outcome.kind(), spec_is_adversarial(&spec_canon)),
            content_hash,
            engine_version: ENGINE_VERSION,
            algo: algo.to_string(),
            outcome_canon: canon_string(&outcome),
            spec_canon,
        };
        Arc::new(Self { encoded, outcome })
    }

    /// Validates a record that arrived as bytes — a text line, a binary
    /// segment record, a wire frame — taking ownership and cloning
    /// nothing. The canonical bytes are kept as they arrived unless a
    /// non-zero grid index has to be normalized away (no store this
    /// crate wrote holds one).
    pub(crate) fn admit(mut encoded: EncodedRecord) -> Admitted {
        if encoded.engine_version != ENGINE_VERSION {
            return Admitted::Stale(encoded);
        }
        let Some(mut outcome) = parse_outcome(&encoded.outcome_canon) else {
            return Admitted::Corrupt;
        };
        if encoded.tag != record_tag(outcome.kind(), spec_is_adversarial(&encoded.spec_canon)) {
            return Admitted::Corrupt;
        }
        if outcome.index != 0 {
            outcome.index = 0;
            encoded.outcome_canon = canon_string(&outcome);
        }
        Admitted::Live(Arc::new(Self { encoded, outcome }))
    }

    /// The six format-level fields store saves and wire frames carry.
    pub(crate) fn encoded(&self) -> &EncodedRecord {
        &self.encoded
    }

    /// The parsed view of `encoded().outcome_canon` (grid index 0).
    pub(crate) fn outcome(&self) -> &SweepOutcome {
        &self.outcome
    }

    /// Which rung of scalar ⊑ sketch ⊑ series the payload sits on —
    /// the one richness answer: a record serves `need` iff
    /// `need.kind() <= record.kind()`.
    pub(crate) fn kind(&self) -> PayloadKind {
        tag_payload_kind(self.encoded.tag)
    }

    /// Whether this is the record of `(content_hash, algo)` for exactly
    /// the spec `spec_canon` (a hash collision answers `false`), rich
    /// enough for `need` — the hit test of every tier.
    pub(crate) fn answers(
        &self,
        content_hash: u64,
        algo: &str,
        spec_canon: &str,
        need: Capture,
    ) -> bool {
        self.encoded.content_hash == content_hash
            && self.encoded.algo == algo
            && self.encoded.spec_canon == spec_canon
            && need.kind() <= self.kind()
    }

    fn key(&self) -> StoreKey {
        (self.encoded.content_hash, self.encoded.algo.clone())
    }

    /// The canonical outcome bytes up to the optional payloads — what
    /// both sides of any lattice transition must agree on byte-for-byte.
    fn scalar_half(&self) -> &str {
        scalar_half(&self.encoded.outcome_canon)
    }
}

/// Whether two records are one: the same pointer, or the same bytes.
fn same_record(a: &Arc<Record>, b: &Arc<Record>) -> bool {
    Arc::ptr_eq(a, b) || a.encoded == b.encoded
}

/// The scalar ⊑ sketch ⊑ series join of a held record with an arriving
/// one under the same key: `Ok(true)` = `theirs` is a strict upgrade
/// (richer payload over a byte-identical scalar half) and should replace
/// `ours`, `Ok(false)` = it teaches nothing (identical, or poorer over
/// the same scalar half), `Err` = the two contradict each other. A
/// sketch beside a series must also be that series' derivation — it is
/// not new information, so a disagreeing one is a contradiction.
fn lattice_join(ours: &Record, theirs: &Record) -> Result<bool, MergeConflictKind> {
    if ours.encoded.spec_canon != theirs.encoded.spec_canon {
        return Err(MergeConflictKind::SpecMismatch);
    }
    if ours.encoded.outcome_canon == theirs.encoded.outcome_canon {
        return Ok(false);
    }
    let (poorer, richer) = match ours.kind().cmp(&theirs.kind()) {
        std::cmp::Ordering::Less => (ours, theirs),
        std::cmp::Ordering::Greater => (theirs, ours),
        // Same kind but different bytes: a genuine contradiction.
        std::cmp::Ordering::Equal => return Err(MergeConflictKind::OutcomeMismatch),
    };
    let derived = match (&poorer.outcome.sketch, &richer.outcome.series) {
        (Some(sketch), Some(series)) => SkewSketch::of_series(series).bit_identical(sketch),
        _ => true,
    };
    if ours.scalar_half() != theirs.scalar_half() || !derived {
        return Err(MergeConflictKind::OutcomeMismatch);
    }
    Ok(ours.kind() < theirs.kind())
}

/// Whether two same-key records qualify for the [`SweepStore::merge_from`]
/// sketch ⊔ sketch arm: both are sketch-kind records whose scalar
/// halves are byte-identical — only the mergeable histogram payloads
/// differ.
fn sketches_mergeable(a: &Record, b: &Record) -> bool {
    a.kind() == PayloadKind::Sketch
        && b.kind() == PayloadKind::Sketch
        && a.scalar_half() == b.scalar_half()
}

/// Why two stores refused to merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeConflict {
    /// The colliding spec content hash.
    pub content_hash: u64,
    /// The algorithm whose record collided.
    pub algo: String,
    /// Whether the specs or (worse) the outcomes disagreed.
    pub kind: MergeConflictKind,
}

/// The two ways records under one key can disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeConflictKind {
    /// Same key, different canonical specs: a genuine 64-bit hash
    /// collision between distinct scenarios. Harmless in-process (the
    /// cache degrades it to a miss) but unrepresentable in the one-slot
    /// store, so merging refuses.
    SpecMismatch,
    /// Same key, same spec, different outcomes: the two stores were
    /// written by executions that were *not* bit-identical — mixed
    /// engine builds or hardware-dependent math. This is the error the
    /// determinism contract exists to catch; do not pick a winner.
    OutcomeMismatch,
}

impl MergeConflict {
    fn under((content_hash, algo): &StoreKey, kind: MergeConflictKind) -> Self {
        let (content_hash, algo) = (*content_hash, algo.clone());
        Self {
            content_hash,
            algo,
            kind,
        }
    }
}

impl std::fmt::Display for MergeConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.kind {
            MergeConflictKind::SpecMismatch => "distinct specs share a content hash",
            MergeConflictKind::OutcomeMismatch => "same spec, conflicting outcomes",
        };
        write!(
            f,
            "sweep store merge conflict under key {:016x}/{}: {what}",
            self.content_hash, self.algo
        )
    }
}

impl std::error::Error for MergeConflict {}

/// What [`SweepStore::merge_from`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Records the other store contributed that this one lacked.
    pub added: usize,
    /// Records present in both and confirmed byte-identical.
    pub agreed: usize,
    /// Sketch-kind records present in both with byte-identical scalar
    /// halves, combined by histogram add (the sketch ⊔ sketch arm).
    pub merged: usize,
}

/// A disk-persistent, content-addressed store of sweep records — the
/// serialization layer under [`SweepCache`].
///
/// See the [module docs](self) for the format and guarantees. Typical
/// shapes:
///
/// * **one process, warm restarts** — [`DiskSweepCache`] bundles a store
///   and a cache; experiment binaries use it via
///   [`DiskSweepCache::open_shared`].
/// * **N shards, one grid** — each shard opens its own store path, runs
///   a [`SweepRequest`] with `.shard(k/N).cached(..)`, saves; a merge step folds
///   the shard stores together with [`SweepStore::merge_from`] and saves
///   the canonical union (`cargo run -p bench --bin sweep_shard`).
///
/// [`SweepRequest`]: crate::SweepRequest
#[derive(Debug)]
pub struct SweepStore {
    path: Option<PathBuf>,
    records: BTreeMap<StoreKey, Arc<Record>>,
    format: StoreFormat,
    segment_capacity: u32,
    /// Stale-engine records carried verbatim (structurally) across
    /// saves and migrations; [`SweepStore::compact`] drops them.
    retained: Vec<EncodedRecord>,
    /// Keys changed since the last write to `path` — what
    /// [`SweepStore::checkpoint`] appends.
    unsaved: BTreeSet<StoreKey>,
    /// Whether the file at `path` is a cleanly-loaded (or just-written)
    /// binary store this process may extend by appending segments.
    append_base: bool,
    /// Ordinal the next appended segment should carry.
    next_ordinal: u32,
    skipped: usize,
    stale: usize,
    superseded: usize,
}

impl Default for SweepStore {
    fn default() -> Self {
        Self {
            path: None,
            records: BTreeMap::new(),
            format: StoreFormat::default(),
            segment_capacity: DEFAULT_SEGMENT_CAPACITY,
            retained: Vec::new(),
            unsaved: BTreeSet::new(),
            append_base: false,
            next_ordinal: 0,
            skipped: 0,
            stale: 0,
            superseded: 0,
        }
    }
}

impl SweepStore {
    /// An empty, path-less store (useful as a merge accumulator; save it
    /// with [`SweepStore::save_to`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the store at `path`, tolerating anything it finds there.
    ///
    /// The format is auto-detected from the leading bytes: a `WLSB`
    /// magic loads as v3 binary, a `wlsweep 1` header as v1/v2 text —
    /// the store remembers which, and [`save`](SweepStore::save) writes
    /// it back the same way unless
    /// [`set_format`](SweepStore::set_format) says otherwise. A missing
    /// file is an empty store (in the default text format).
    ///
    /// Damage never errors, whatever the format: records that fail
    /// their checksum or their parse are counted in
    /// [`skipped_lines`](SweepStore::skipped_lines); records from
    /// another [`ENGINE_VERSION`] are counted in
    /// [`stale_records`](SweepStore::stale_records) *and retained* for
    /// the next save; binary records superseded by a later appended
    /// checkpoint are counted in
    /// [`superseded_records`](SweepStore::superseded_records);
    /// everything valid loads. A file whose header is foreign
    /// contributes nothing but skips. Truncation mid-record costs
    /// exactly the truncated record, in either format.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures (permissions, hardware) — *content*
    /// never errors.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let mut store = Self {
            path: Some(path.clone()),
            ..Self::default()
        };
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(store),
            Err(e) => return Err(e),
        };
        if let Some(reader) = SegmentReader::new(&bytes) {
            store.load_binary(reader);
        } else {
            store.load_text(&String::from_utf8_lossy(&bytes));
        }
        Ok(store)
    }

    /// The v3 load path: drain a [`SegmentReader`]. Later records for a
    /// key a previous segment already supplied **supersede** it (last
    /// writer wins) — that is how an appended checkpoint upgrades a
    /// scalar record to a series-bearing one without rewriting the file.
    fn load_binary(&mut self, mut reader: SegmentReader<'_>) {
        self.format = StoreFormat::Binary;
        if reader.capacity() > 0 {
            self.segment_capacity = reader.capacity();
        }
        for encoded in reader.by_ref() {
            self.load_record(encoded, true);
        }
        self.skipped += reader.damaged();
        self.next_ordinal = reader.next_ordinal();
        // A store with damage must not be extended in place: the torn
        // tail would corrupt the first appended segment's framing.
        self.append_base = reader.damaged() == 0;
    }

    /// The v1/v2 load path, line-oriented. Duplicate keys keep the
    /// *first* record (the text format is never appended to by this
    /// crate, so an appended duplicate can only be a foreign artifact).
    fn load_text(&mut self, text: &str) {
        self.format = StoreFormat::Text;
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            self.skipped = text.lines().count();
            return;
        }
        for line in lines {
            match parse_line(line) {
                Some(encoded) => self.load_record(encoded, false),
                None => self.skipped += 1,
            }
        }
    }

    /// Sorts one loaded record into live / stale / skipped — the one
    /// admission both formats go through. A live record for a key
    /// already loaded replaces it (counted superseded) when `last_wins`,
    /// and is skipped otherwise.
    fn load_record(&mut self, encoded: EncodedRecord, last_wins: bool) {
        match Record::admit(encoded) {
            Admitted::Live(record) => match self.records.entry(record.key()) {
                Entry::Vacant(v) => {
                    v.insert(record);
                }
                Entry::Occupied(mut o) if last_wins => {
                    o.insert(record);
                    self.superseded += 1;
                }
                Entry::Occupied(_) => self.skipped += 1,
            },
            Admitted::Stale(encoded) => {
                self.stale += 1;
                self.retained.push(encoded);
            }
            Admitted::Corrupt => self.skipped += 1,
        }
    }

    /// Number of valid current-engine records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of valid current-engine records whose spec carries an
    /// adversary block (the `A`/`B`-tagged dimension of the store).
    #[must_use]
    pub fn adversarial_len(&self) -> usize {
        self.records
            .values()
            .filter(|r| spec_is_adversarial(&r.encoded.spec_canon))
            .count()
    }

    /// Lines the last [`open`](SweepStore::open) discarded as corrupt.
    #[must_use]
    pub fn skipped_lines(&self) -> usize {
        self.skipped
    }

    /// Records the last [`open`](SweepStore::open) ignored for carrying
    /// a different [`ENGINE_VERSION`]. They are not *lost*: the store
    /// retains them verbatim across saves until
    /// [`compact`](SweepStore::compact) drops them.
    #[must_use]
    pub fn stale_records(&self) -> usize {
        self.stale
    }

    /// Binary records the last [`open`](SweepStore::open) found
    /// superseded by a later appended checkpoint segment (their bytes
    /// still occupy the file until a rewrite —
    /// [`compact`](SweepStore::compact) reclaims them).
    #[must_use]
    pub fn superseded_records(&self) -> usize {
        self.superseded
    }

    /// The format this store loads from and saves to. Auto-detected by
    /// [`open`](SweepStore::open); change it with
    /// [`set_format`](SweepStore::set_format).
    #[must_use]
    pub fn format(&self) -> StoreFormat {
        self.format
    }

    /// Selects the on-disk format for subsequent saves — the in-place
    /// half of a migration (the next [`save`](SweepStore::save) rewrites
    /// the file in the new format; see [`SweepStore::migrate`] for the
    /// copying form).
    pub fn set_format(&mut self, format: StoreFormat) {
        if self.format != format {
            self.format = format;
            self.append_base = false;
        }
    }

    /// The capacity (in record-block bytes) binary saves pack segments
    /// to. Adopted from the file on load, [`segment::DEFAULT_SEGMENT_CAPACITY`]
    /// otherwise.
    #[must_use]
    pub fn segment_capacity(&self) -> u32 {
        self.segment_capacity
    }

    /// The path this store loads from and saves to, if it has one.
    #[must_use]
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Hydrates an in-memory [`SweepCache`] with every record — the
    /// read half of cross-process sharing. The cache shares the store's
    /// records; nothing is copied.
    #[must_use]
    pub fn hydrate(&self) -> SweepCache {
        let cache = SweepCache::new();
        self.hydrate_into(&cache);
        cache
    }

    fn hydrate_into(&self, cache: &SweepCache) {
        for record in self.records.values() {
            cache.store(Arc::clone(record));
        }
    }

    /// Folds a cache's entries into the store (the write half): a record
    /// the store lacks, or holds with different canonical bytes, is
    /// taken over by pointer; one hydrated from this store and untouched
    /// since is recognised by its pointer alone.
    ///
    /// Returns how many records were added or replaced.
    pub fn absorb(&mut self, cache: &SweepCache) -> usize {
        self.absorb_records(cache.snapshot())
    }

    /// [`absorb`](SweepStore::absorb) for records already in hand — the
    /// frontier worker's per-chunk fold, which knows the chunk's records
    /// and need not walk its whole cache for them.
    pub(crate) fn absorb_records(&mut self, records: Vec<Arc<Record>>) -> usize {
        let mut changed = 0;
        for record in records {
            let key = record.key();
            let held = self.records.get(&key);
            if !held.is_some_and(|ours| same_record(ours, &record)) {
                self.put(key, record);
                changed += 1;
            }
        }
        changed
    }

    /// Holds `record` under `key`, marked unsaved so the next
    /// [`checkpoint`](SweepStore::checkpoint) persists it.
    fn put(&mut self, key: StoreKey, record: Arc<Record>) {
        self.records.insert(key.clone(), record);
        self.unsaved.insert(key);
    }

    /// The live record under one key, if present — what
    /// [`crate::service`] puts on the wire, so served records are
    /// *exactly* what a store save would write.
    pub(crate) fn record(&self, content_hash: u64, algo: &str) -> Option<&Arc<Record>> {
        self.records.get(&(content_hash, algo.to_string()))
    }

    /// Inserts one record under the scalar ⊑ sketch ⊑ series lattice
    /// (`lattice_join`): a vacant key takes it, a richer record replaces
    /// a poorer one over a byte-identical scalar half, and an identical
    /// or poorer arrival is an agreeing no-op; one that contradicts the
    /// held record is a [`MergeConflict`]. Returns whether the store
    /// changed; changed records are marked unsaved, so the next
    /// [`checkpoint`](SweepStore::checkpoint) persists them.
    pub(crate) fn insert(&mut self, record: Arc<Record>) -> Result<bool, MergeConflict> {
        let key = record.key();
        let upgrade = match self.records.get(&key) {
            None => true,
            Some(ours) => {
                lattice_join(ours, &record).map_err(|kind| MergeConflict::under(&key, kind))?
            }
        };
        if upgrade {
            self.put(key, record);
        }
        Ok(upgrade)
    }

    /// [`insert`](SweepStore::insert) for a record that arrived as
    /// bytes: admitted first (`Record::admit`; anything but a live
    /// record is refused as a [`MergeConflict`]), then joined.
    pub(crate) fn insert_encoded(&mut self, encoded: EncodedRecord) -> Result<bool, MergeConflict> {
        let key = (encoded.content_hash, encoded.algo.clone());
        match Record::admit(encoded) {
            Admitted::Live(record) => self.insert(record),
            _ => Err(MergeConflict::under(
                &key,
                MergeConflictKind::OutcomeMismatch,
            )),
        }
    }

    /// Merges another store's records into this one, equality-confirmed:
    /// a key present in both must carry byte-identical spec *and*
    /// outcome, otherwise the merge refuses with a [`MergeConflict`]
    /// (and this store is left unchanged).
    ///
    /// # Errors
    ///
    /// See [`MergeConflictKind`] for the two refusal modes.
    pub fn merge_from(&mut self, other: &Self) -> Result<MergeStats, MergeConflict> {
        // Validate everything before mutating anything.
        for (key, theirs) in &other.records {
            let Some(ours) = self.records.get(key) else {
                continue;
            };
            let kind = if ours.encoded.spec_canon != theirs.encoded.spec_canon {
                MergeConflictKind::SpecMismatch
            } else if same_record(ours, theirs) || sketches_mergeable(ours, theirs) {
                continue;
            } else {
                MergeConflictKind::OutcomeMismatch
            };
            return Err(MergeConflict::under(key, kind));
        }
        let mut stats = MergeStats::default();
        for (key, theirs) in &other.records {
            let joined = match self.records.get(key) {
                None => {
                    stats.added += 1;
                    Arc::clone(theirs)
                }
                Some(ours) if same_record(ours, theirs) => {
                    stats.agreed += 1;
                    continue;
                }
                // The sketch ⊔ sketch arm (validated above): two partial
                // folds of one point's sample population combine by
                // histogram add — associative, commutative, and
                // order-independent, so merge order across shard stores
                // cannot change the result.
                Some(ours) => {
                    let mut outcome = ours.outcome.clone();
                    let both = outcome.sketch.as_mut().zip(theirs.outcome.sketch.as_ref());
                    let (sketch, theirs_sketch) = both.expect("validated as mergeable sketches");
                    sketch.merge(theirs_sketch);
                    stats.merged += 1;
                    Record::of_outcome(&key.1, key.0, ours.encoded.spec_canon.clone(), &outcome)
                }
            };
            self.put(key.clone(), joined);
        }
        Ok(stats)
    }

    /// Adopts from `other` what this store is missing, never raising a
    /// conflict — the silent sibling of [`SweepStore::merge_from`], for
    /// when "ours is fresher" is the right policy (e.g. folding in what
    /// another process wrote to the shared file while we were running).
    /// Missing means: a key this store lacks, **or** a record strictly
    /// richer than ours over a byte-identical scalar half (the upgrade
    /// arm of `insert`, sketch-is-the-derivation-of-the-series check
    /// included) — so a scalar copy never shadows the series record
    /// another process paid for. Anything that contradicts ours leaves
    /// ours untouched. Returns how many records were adopted.
    pub fn adopt_missing_from(&mut self, other: &Self) -> usize {
        let mut adopted = 0;
        for (key, theirs) in &other.records {
            let adopt = match self.records.get(key) {
                None => true,
                Some(ours) => lattice_join(ours, theirs) == Ok(true),
            };
            if adopt {
                self.put(key.clone(), Arc::clone(theirs));
                adopted += 1;
            }
        }
        adopted
    }

    /// Streams every live record as `(content_hash, algo, spec_canon,
    /// outcome)` in canonical (sorted-key) order — the read path
    /// [`crate::sketch::store_report`] aggregates over, deterministic so
    /// the report it feeds is too.
    pub(crate) fn iter_records(
        &self,
    ) -> impl Iterator<Item = (u64, &str, &str, &SweepOutcome)> + '_ {
        self.records.iter().map(|((hash, algo), record)| {
            (
                *hash,
                algo.as_str(),
                record.encoded.spec_canon.as_str(),
                &record.outcome,
            )
        })
    }

    /// Saves to the store's own path (see [`SweepStore::save_to`]) and
    /// resets the incremental-checkpoint bookkeeping: after a save the
    /// on-disk file is canonical, everything is flushed, and (for
    /// binary stores) subsequent [`checkpoint`](SweepStore::checkpoint)s
    /// may append to it.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`io::ErrorKind::InvalidInput`] if the store was
    /// created path-less.
    pub fn save(&mut self) -> io::Result<()> {
        let path = self.path.clone().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "sweep store has no path")
        })?;
        let (bytes, next_ordinal) = self.render();
        write_atomic(&path, &bytes)?;
        self.unsaved.clear();
        self.next_ordinal = next_ordinal;
        self.append_base = self.format == StoreFormat::Binary;
        Ok(())
    }

    /// Writes the canonical store file to an arbitrary path, in the
    /// store's [`format`](SweepStore::format): live records in sorted
    /// key order (then any retained stale records, in load order) — so
    /// any two stores with equal contents produce byte-identical files,
    /// regardless of insertion history.
    ///
    /// The write is atomic-by-rename: content goes to a sibling temp
    /// file (suffixed with this process id) which is then renamed over
    /// `path`. Concurrent savers last-write-win a *complete* file;
    /// readers never observe a torn store.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from create/write/rename.
    pub fn save_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_atomic(path.as_ref(), &self.render().0)
    }

    /// Serializes the whole store in its configured format, returning
    /// the file bytes and the ordinal an appended segment would carry
    /// (meaningful for binary only).
    fn render(&self) -> (Vec<u8>, u32) {
        let live = self.records.values().map(|record| &record.encoded);
        let all = live.chain(&self.retained);
        match self.format {
            StoreFormat::Text => {
                let mut content = String::with_capacity(64 + self.records.len() * 256);
                content.push_str(HEADER);
                content.push('\n');
                for encoded in all {
                    content.push_str(&text_line(encoded));
                    content.push('\n');
                }
                (content.into_bytes(), 0)
            }
            StoreFormat::Binary => segment::write_file_with_ordinal(all, self.segment_capacity),
        }
    }

    /// Flushes changes since the last write **incrementally** where the
    /// format allows it: on a cleanly-loaded (or just-saved) binary
    /// store this *appends* one or more segments holding only the
    /// changed records — O(changes), not O(store) — relying on the v3
    /// last-writer-wins load rule to supersede any older versions of
    /// those keys. Everywhere else (text stores, damaged files, fresh
    /// paths, format changes) it falls back to a full
    /// [`save`](SweepStore::save). Returns how many records were
    /// flushed.
    ///
    /// The append is *not* atomic — a crash mid-append leaves a torn
    /// trailing segment — but it is **safe**: the corruption-tolerant
    /// loader recovers every record before the tear, so the cost is
    /// exactly the records of the interrupted checkpoint, which a
    /// restarted worker re-runs. This is the call
    /// [`run_worker_frontier`](crate::frontier::run_worker_frontier)
    /// makes per chunk. An appended-to file is no longer *canonical* (records are
    /// no longer globally sorted); the next full save or
    /// [`compact`](SweepStore::compact) restores canonical form.
    ///
    /// # Errors
    ///
    /// I/O failures; [`io::ErrorKind::InvalidInput`] on a path-less
    /// store.
    pub fn checkpoint(&mut self) -> io::Result<usize> {
        let n = self.unsaved.len();
        if self.format != StoreFormat::Binary || !self.append_base {
            self.save()?;
            return Ok(n);
        }
        if n == 0 {
            return Ok(0);
        }
        let path = self.path.clone().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "sweep store has no path")
        })?;
        let mut writer = SegmentWriter::new(self.segment_capacity, self.next_ordinal);
        for record in self.unsaved.iter().filter_map(|key| self.records.get(key)) {
            writer.push(&record.encoded);
        }
        let (bytes, next_ordinal) = writer.into_parts();
        let result = (|| {
            use std::io::Write as _;
            let mut file = std::fs::File::options().append(true).open(&path)?;
            file.write_all(&bytes)
        })();
        if result.is_err() {
            // The file tail is now untrustworthy; force a rewrite next.
            self.append_base = false;
            return result.map(|()| n);
        }
        self.unsaved.clear();
        self.next_ordinal = next_ordinal;
        Ok(n)
    }

    /// Compaction / garbage collection: drops every stale-engine record
    /// retained from load and reclaims the bytes of superseded record
    /// versions by rewriting the file in canonical form (atomic
    /// tmp+rename, like any save). Live current-engine records are never
    /// touched — `compaction_preserves_live_records` pins that a
    /// compacted store serves exactly the same grid.
    ///
    /// ```
    /// use wl_harness::{StoreFormat, SweepStore};
    ///
    /// let path = std::env::temp_dir().join(format!("compact-doc-{}.wls", std::process::id()));
    /// # let _ = std::fs::remove_file(&path);
    /// let mut store = SweepStore::open(&path).expect("open");
    /// store.set_format(StoreFormat::Binary);
    /// let stats = store.compact().expect("compact");
    /// assert_eq!((stats.dropped_stale, stats.dropped_superseded), (0, 0));
    /// assert_eq!(stats.live, store.len());
    /// # let _ = std::fs::remove_file(&path);
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates save I/O failures (path-less stores compact in memory
    /// only and report `bytes_before == bytes_after == 0`).
    pub fn compact(&mut self) -> io::Result<CompactStats> {
        let on_disk = |path: &Option<PathBuf>| {
            path.as_ref()
                .and_then(|p| std::fs::metadata(p).ok())
                .map_or(0, |m| m.len())
        };
        let bytes_before = on_disk(&self.path);
        let stats = CompactStats {
            live: self.records.len(),
            dropped_stale: self.retained.len(),
            dropped_superseded: self.superseded,
            bytes_before,
            bytes_after: bytes_before,
        };
        self.retained.clear();
        self.stale = 0;
        self.superseded = 0;
        if self.path.is_some() {
            self.save()?;
        }
        Ok(CompactStats {
            bytes_after: on_disk(&self.path),
            ..stats
        })
    }

    /// Copies the store at `src` to `dst` in `format` — the lossless,
    /// byte-pinned migration: migrating text → binary → text (or the
    /// reverse) reproduces the original file **byte-for-byte**, stale
    /// records included, as long as both hops use the same segment
    /// capacity. `src` is left untouched; `src == dst` converts in
    /// place (the write is atomic-by-rename).
    ///
    /// ```
    /// use wl_harness::{StoreFormat, SweepStore};
    ///
    /// let dir = std::env::temp_dir();
    /// let text = dir.join(format!("migrate-doc-{}.wls", std::process::id()));
    /// let binary = dir.join(format!("migrate-doc-{}.wlb", std::process::id()));
    /// let round = dir.join(format!("migrate-doc-{}-round.wls", std::process::id()));
    /// # let _ = std::fs::remove_file(&text);
    /// let mut store = SweepStore::open(&text).expect("open");
    /// store.save().expect("write an (empty) text store");
    ///
    /// let report = SweepStore::migrate(&text, &binary, StoreFormat::Binary).expect("to binary");
    /// assert_eq!(report.records, 0);
    /// let _ = SweepStore::migrate(&binary, &round, StoreFormat::Text).expect("back to text");
    /// assert_eq!(
    ///     std::fs::read(&text).unwrap(),
    ///     std::fs::read(&round).unwrap(),
    ///     "text -> binary -> text is byte-identical",
    /// );
    /// # for p in [&text, &binary, &round] { let _ = std::fs::remove_file(p); }
    /// ```
    ///
    /// # Errors
    ///
    /// I/O failures from the read or the write; content damage never
    /// errors (it is skipped, and reported in the returned
    /// [`MigrationReport`]).
    pub fn migrate(
        src: impl AsRef<Path>,
        dst: impl AsRef<Path>,
        format: StoreFormat,
    ) -> io::Result<MigrationReport> {
        let bytes_in = std::fs::metadata(src.as_ref()).map_or(0, |m| m.len());
        let mut store = Self::open(src.as_ref().to_path_buf())?;
        store.set_format(format);
        store.save_to(dst.as_ref())?;
        Ok(MigrationReport {
            records: store.len(),
            stale_retained: store.retained.len(),
            skipped: store.skipped_lines(),
            superseded_dropped: store.superseded_records(),
            bytes_in,
            bytes_out: std::fs::metadata(dst.as_ref()).map_or(0, |m| m.len()),
        })
    }
}

/// Atomic-by-rename file write shared by every save path.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// What [`SweepStore::compact`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Current-engine records preserved (all of them, always).
    pub live: usize,
    /// Retained stale-engine records dropped.
    pub dropped_stale: usize,
    /// Superseded record versions whose file bytes were reclaimed.
    pub dropped_superseded: usize,
    /// File size before the rewrite (0 for path-less stores).
    pub bytes_before: u64,
    /// File size after the rewrite (0 for path-less stores).
    pub bytes_after: u64,
}

/// What [`SweepStore::migrate`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Live records carried across.
    pub records: usize,
    /// Stale-engine records carried across verbatim.
    pub stale_retained: usize,
    /// Damaged units in the source that could not be carried.
    pub skipped: usize,
    /// Superseded record versions left behind (migration always writes
    /// canonical files, so only the winning version survives).
    pub superseded_dropped: usize,
    /// Source file size in bytes.
    pub bytes_in: u64,
    /// Destination file size in bytes.
    pub bytes_out: u64,
}

/// Renders one text record line (any engine version — retained stale
/// records re-emit through the same path as live ones).
fn text_line(encoded: &EncodedRecord) -> String {
    let prefix = format!(
        "{} {:016x} {} {} {} {}",
        encoded.tag as char,
        encoded.content_hash,
        encoded.engine_version,
        canon_string(&encoded.algo),
        encoded.spec_canon,
        encoded.outcome_canon,
    );
    let crc = fnv64(prefix.as_bytes());
    format!("{prefix} {crc:016x}")
}

/// The inverse of [`text_line`]: checksum, then the six fields, as an
/// [`EncodedRecord`] of any engine version. `None` = a corrupt line.
/// What the record *means* is `Record::admit`'s business.
fn parse_line(line: &str) -> Option<EncodedRecord> {
    let (prefix, crc_tok) = line.rsplit_once(' ')?;
    if u64::from_str_radix(crc_tok, 16) != Ok(fnv64(prefix.as_bytes())) {
        return None;
    }
    let fields: Vec<&str> = prefix.split(' ').collect();
    let [tag, hash_tok, engine_tok, algo_tok, spec_tok, outcome_tok] = fields.as_slice() else {
        return None;
    };
    let [tag] = *tag.as_bytes() else {
        return None;
    };
    let algo = unescape(algo_tok)?;
    // The binary record frames the algorithm with a u16 length; a text
    // line whose algo cannot survive that framing is treated as corrupt
    // here rather than panicking in a later cross-format save.
    if !EncodedRecord::known_tag(tag) || algo.len() > usize::from(u16::MAX) {
        return None;
    }
    Some(EncodedRecord {
        tag,
        content_hash: u64::from_str_radix(hash_tok, 16).ok()?,
        engine_version: engine_tok.parse().ok()?,
        algo,
        spec_canon: (*spec_tok).to_string(),
        outcome_canon: (*outcome_tok).to_string(),
    })
}

// ---------------------------------------------------------------------------
// The convenience bundle experiment binaries use.
// ---------------------------------------------------------------------------

/// A [`SweepStore`] + the [`SweepCache`] hydrated from it — the two
/// lines every experiment binary actually wants:
///
/// ```no_run
/// use wl_harness::{DiskSweepCache, Maintenance, SweepRequest};
/// # let grid = Vec::new();
/// let mut disk = DiskSweepCache::open_shared();
/// let outcomes = SweepRequest::new().cached(disk.cache()).run::<Maintenance>(grid);
/// disk.persist().expect("save sweep cache");
/// ```
///
/// `open_shared` reads the `WL_SWEEP_CACHE_DIR` environment variable
/// (default `target/sweep-cache`; set it to `0` or `off` to disable
/// persistence) and *never fails*: an unreadable store degrades to an
/// in-memory cache with a warning on stderr, because a broken cache
/// must never break an experiment.
#[derive(Debug)]
pub struct DiskSweepCache {
    store: SweepStore,
    cache: SweepCache,
    enabled: bool,
}

impl DiskSweepCache {
    /// Opens the store at `path` and hydrates a cache from it.
    ///
    /// # Errors
    ///
    /// Genuine I/O failures from [`SweepStore::open`] only.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let store = SweepStore::open(path)?;
        let cache = store.hydrate();
        Ok(Self {
            store,
            cache,
            enabled: true,
        })
    }

    /// Opens the shared store under `WL_SWEEP_CACHE_DIR` (see the type
    /// docs). Infallible by design.
    ///
    /// The `WL_SWEEP_FORMAT` environment variable (`text` | `binary`)
    /// selects the on-disk [`StoreFormat`] future persists write —
    /// an existing store in the other format still loads (detection is
    /// by content, not by the variable) and is migrated in place on the
    /// next persist. Unset, the store keeps whatever format it already
    /// has (text for brand-new stores). Like every cache knob, the
    /// variable cannot change a *result* — only how it is stored.
    #[must_use]
    pub fn open_shared() -> Self {
        let dir = std::env::var("WL_SWEEP_CACHE_DIR").unwrap_or_default();
        let mut disk = match dir.as_str() {
            "0" | "off" => Self {
                store: SweepStore::new(),
                cache: SweepCache::new(),
                enabled: false,
            },
            "" => Self::open_or_warn(Path::new("target/sweep-cache").join("sweeps.wls")),
            dir => Self::open_or_warn(Path::new(dir).join("sweeps.wls")),
        };
        match std::env::var("WL_SWEEP_FORMAT").as_deref() {
            Err(_) | Ok("") => {}
            Ok(raw) => match raw.parse::<StoreFormat>() {
                Ok(format) => disk.store.set_format(format),
                Err(e) => eprintln!("warning: WL_SWEEP_FORMAT ignored: {e}"),
            },
        }
        disk
    }

    fn open_or_warn(path: PathBuf) -> Self {
        match Self::open(path.clone()) {
            Ok(disk) => disk,
            Err(e) => {
                eprintln!(
                    "warning: sweep cache at {} unavailable ({e}); running without persistence",
                    path.display()
                );
                Self {
                    store: SweepStore::new(),
                    cache: SweepCache::new(),
                    enabled: false,
                }
            }
        }
    }

    /// The cache to hand to [`SweepRequest::cached`].
    ///
    /// [`SweepRequest::cached`]: crate::SweepRequest::cached
    #[must_use]
    pub fn cache(&self) -> &SweepCache {
        &self.cache
    }

    /// The underlying store (for stats and inspection).
    #[must_use]
    pub fn store(&self) -> &SweepStore {
        &self.store
    }

    /// Selects the [`StoreFormat`] the next [`persist`](DiskSweepCache::persist)
    /// writes — the programmatic form of the `WL_SWEEP_FORMAT`
    /// environment knob (an existing store in the other format is
    /// migrated by that persist).
    pub fn set_format(&mut self, format: StoreFormat) {
        self.store.set_format(format);
    }

    /// Absorbs the cache into the store and saves it (no-op when
    /// persistence is disabled). Returns how many records were newly
    /// written.
    ///
    /// Before saving, the shared file is re-read and what other
    /// processes wrote since we opened it is adopted
    /// ([`SweepStore::adopt_missing_from`]: records we lack, and records
    /// strictly richer than our copy of the same point) — concurrent
    /// experiment binaries sharing `WL_SWEEP_CACHE_DIR` extend each
    /// other's stores instead of overwriting or downgrading them (the
    /// save itself is atomic-by-rename, so the residual race is a benign
    /// lose-the-interleaved-write, not a torn file). Adopted records are
    /// handed to the cache too, so a later persist cannot absorb the
    /// poorer copies back.
    ///
    /// # Errors
    ///
    /// Propagates save I/O failures.
    pub fn persist(&mut self) -> io::Result<usize> {
        if !self.enabled {
            return Ok(0);
        }
        let added = self.store.absorb(&self.cache);
        let path = self.store.path();
        let on_disk = path.and_then(|path| SweepStore::open(path).ok());
        if on_disk.is_some_and(|on_disk| self.store.adopt_missing_from(&on_disk) > 0) {
            self.store.hydrate_into(&self.cache);
        }
        self.store.save()?;
        Ok(added)
    }

    /// One status line for experiment binaries to print: hit/miss
    /// counts, where (whether) the store lives, and the full store-key
    /// dimensions — engine version and the adversarial record count —
    /// not just the service tier.
    #[must_use]
    pub fn status(&self) -> String {
        let target = match (self.enabled, self.store.path()) {
            (true, Some(p)) => format!("{} store {}", self.store.format(), p.display()),
            _ => "persistence off".to_string(),
        };
        let service = match crate::service::service_from_env() {
            Some(addr) => format!(", service tier {addr}"),
            None => String::new(),
        };
        format!(
            "sweep cache: {} hits, {} misses, {} records loaded \
             ({} adversarial, engine v{ENGINE_VERSION}, {target}{service})",
            self.cache.hits(),
            self.cache.misses(),
            self.store.len(),
            self.store.adversarial_len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;
    use crate::sweep::{derive_seed, Capture, SweepRequest, SweepSeries};
    use crate::Maintenance;
    use wl_core::Params;
    use wl_time::RealTime;

    fn grid(count: usize) -> Vec<ScenarioSpec> {
        let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
        (0..count)
            .map(|i| {
                ScenarioSpec::new(params.clone())
                    .seed(derive_seed(0xCAFE, i as u64))
                    .t_end(RealTime::from_secs(2.0))
            })
            .collect()
    }

    /// A single-threaded request memoized through `cache`.
    fn serial(cache: &SweepCache) -> SweepRequest<'_> {
        SweepRequest::new().threads(1).cached(cache)
    }

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("wl-cache-{}-{name}.wls", std::process::id()))
    }

    fn outcome_fixture() -> SweepOutcome {
        SweepOutcome {
            index: 3,
            seed: 0xDEAD_BEEF,
            steady_skew: 1.25e-3,
            max_skew: -0.0,
            agreement_holds: true,
            max_abs_adjustment: f64::NAN,
            mean_abs_adjustment: 7.5e-4,
            adjustment_holds: false,
            stats: wl_sim::SimStats {
                events_delivered: 1,
                messages_sent: 2,
                timers_set: 3,
                timers_suppressed: 4,
            },
            sketch: None,
            series: None,
        }
    }

    fn series_fixture() -> SweepSeries {
        SweepSeries {
            round_times: vec![1.0, 2.0],
            round_skews: vec![0.5, -0.0],
            skew_times: vec![0.0, 0.5, 1.0],
            skew_values: vec![1.0, f64::NAN, 0.25],
            corr_procs: vec![0, 3],
            corr_times: vec![1.0, 1.5],
            corr_values: vec![-0.125, 2.5e-3],
        }
    }

    #[test]
    fn insert_encoded_upgrade_lattice() {
        let mut store = SweepStore::new();
        let make = |outcome: &SweepOutcome| {
            let record = Record::of_outcome("A", 42, "Spec{n:4}".into(), outcome);
            record.encoded().clone()
        };
        let held = |store: &SweepStore, hash: u64, algo: &str| {
            store.record(hash, algo).map(|r| r.encoded().clone())
        };
        let scalar = outcome_fixture();
        let mut series = outcome_fixture();
        series.series = Some(series_fixture());
        // The middle lattice rung: the sketch *derived from* the series
        // fixture, so the sketch ⊑ series consistency check can pass.
        let mut sketch = outcome_fixture();
        sketch.sketch = Some(crate::sketch::SkewSketch::of_series(
            series.series.as_ref().unwrap(),
        ));

        // Vacant insert normalizes the grid index and round-trips.
        let rec_scalar = make(&scalar);
        assert!(store.insert_encoded(rec_scalar.clone()).unwrap());
        assert_eq!(held(&store, 42, "A"), Some(rec_scalar.clone()));
        assert!(held(&store, 42, "B").is_none());
        assert!(held(&store, 43, "A").is_none());

        // Same record again: agreed, unchanged.
        assert!(!store.insert_encoded(rec_scalar.clone()).unwrap());
        // An index-denormalized copy is the same record after
        // normalization.
        let mut denorm = scalar.clone();
        denorm.index = 7;
        let rec_denorm = EncodedRecord {
            outcome_canon: canon_string(&denorm),
            ..rec_scalar.clone()
        };
        assert!(!store.insert_encoded(rec_denorm.clone()).unwrap());

        // Sketch upgrade over the matching scalar half: accepted, and
        // the held record now carries the K tag.
        let rec_sketch = make(&sketch);
        assert!(store.insert_encoded(rec_sketch.clone()).unwrap());
        assert_eq!(held(&store, 42, "A").unwrap().tag, segment::TAG_SKETCH);
        // Scalar re-arrival against the held sketch record: agreed no-op.
        assert!(!store.insert_encoded(rec_scalar.clone()).unwrap());
        // A *different* sketch under the same scalar half is a same-kind
        // contradiction here — insert_encoded is equality-confirmed per
        // rung; only merge_from knows the sketch ⊔ sketch join.
        let mut other_sketch = sketch.clone();
        other_sketch.sketch.as_mut().unwrap().observe(1.25e-4);
        assert_eq!(
            store.insert_encoded(make(&other_sketch)).unwrap_err().kind,
            MergeConflictKind::OutcomeMismatch
        );

        // Series upgrade over the matching sketch: accepted *because*
        // the held sketch is the derivation of the arriving series.
        let rec_series = make(&series);
        assert!(store.insert_encoded(rec_series.clone()).unwrap());
        assert_eq!(held(&store, 42, "A").unwrap().tag, segment::TAG_SERIES);
        // Scalar and derived-sketch re-arrivals against the held series
        // record: agreed no-ops.
        assert!(!store.insert_encoded(rec_scalar.clone()).unwrap());
        assert!(!store.insert_encoded(rec_sketch.clone()).unwrap());
        assert_eq!(held(&store, 42, "A").unwrap(), rec_series);
        // A sketch that is NOT the derivation of the held series is a
        // contradiction, not an agreed downgrade.
        assert_eq!(
            store.insert_encoded(make(&other_sketch)).unwrap_err().kind,
            MergeConflictKind::OutcomeMismatch
        );

        // A contradicting scalar half is refused.
        let mut wrong = outcome_fixture();
        wrong.seed ^= 1;
        let conflict = store.insert_encoded(make(&wrong)).unwrap_err();
        assert_eq!(conflict.kind, MergeConflictKind::OutcomeMismatch);
        // A different spec behind the same key is refused.
        let rec_badspec = EncodedRecord {
            spec_canon: "Spec{n:5}".into(),
            ..rec_scalar.clone()
        };
        assert_eq!(
            store.insert_encoded(rec_badspec.clone()).unwrap_err().kind,
            MergeConflictKind::SpecMismatch
        );
        // A corrupt outcome payload is refused, not inserted.
        let rec_corrupt = EncodedRecord {
            content_hash: 77,
            outcome_canon: "not an outcome".into(),
            ..rec_scalar.clone()
        };
        assert!(store.insert_encoded(rec_corrupt.clone()).is_err());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn canon_encoding_is_pinned() {
        // The format contract: change this string only together with
        // ENGINE_VERSION.
        assert_eq!(canon_string(&true), "T");
        assert_eq!(canon_string(&1.0f64), "x3ff0000000000000");
        assert_eq!(canon_string(&Some(7u64)), "+7");
        assert_eq!(canon_string(&Option::<u64>::None), "~");
        assert_eq!(canon_string("a b\"c"), "\"a\\sb\\\"c\"");
        assert_eq!(
            canon_string(&crate::DelayKind::AdversarialSplit),
            "DelayKind::AdversarialSplit"
        );
        assert_eq!(
            canon_string(&wl_time::RealTime::from_secs(2.0)),
            "RealTime(x4000000000000000)"
        );
        let spec = grid(1).remove(0);
        let canon = canon_string(&spec.clone());
        assert!(canon.starts_with("ScenarioSpec{params:Params{n:4,f:1,"));
        assert!(
            !canon.contains(' '),
            "canonical encoding must be space-free"
        );
        assert_eq!(canon, canon_string(&spec), "encoding is deterministic");
    }

    #[test]
    fn outcome_roundtrip() {
        let outcome = outcome_fixture();
        let encoded = canon_string(&outcome);
        let decoded = parse_outcome(&encoded).expect("parses back");
        assert!(decoded.bit_identical(&outcome), "NaN and -0.0 must survive");
        // Any tampering is rejected, not misread.
        assert!(parse_outcome(&encoded[1..]).is_none());
        assert!(parse_outcome(&format!("{encoded}x")).is_none());
    }

    #[test]
    fn series_outcome_roundtrip() {
        let mut outcome = outcome_fixture();
        outcome.series = Some(series_fixture());
        let encoded = canon_string(&outcome);
        assert!(
            encoded.contains(",series:+SweepSeries{round_times:[x3ff0000000000000,"),
            "series payload is inlined in the outcome encoding: {encoded}"
        );
        assert!(!encoded.contains(' '), "series encoding must be space-free");
        let decoded = parse_outcome(&encoded).expect("series record parses back");
        assert!(
            decoded.bit_identical(&outcome),
            "every series element must survive bit-for-bit (incl. NaN, -0.0)"
        );
        // Truncating inside the series is rejected, not misread.
        assert!(parse_outcome(&encoded[..encoded.len() - 3]).is_none());
        // Empty series vectors round-trip too.
        outcome.series = Some(SweepSeries {
            round_times: vec![],
            round_skews: vec![],
            skew_times: vec![],
            skew_values: vec![],
            corr_procs: vec![],
            corr_times: vec![],
            corr_values: vec![],
        });
        let encoded = canon_string(&outcome);
        let decoded = parse_outcome(&encoded).expect("empty series parses back");
        assert!(decoded.bit_identical(&outcome));
    }

    #[test]
    fn unescape_rejects_malformed() {
        assert_eq!(unescape("\"a\\sb\"").as_deref(), Some("a b"));
        assert!(unescape("no-quotes").is_none());
        assert!(unescape("\"dangling\\\"").is_none());
        assert!(unescape("\"bad\\q\"").is_none());
    }

    /// A record whose outcome spells a value as the writer never does is
    /// not its canonical twin under other bytes (which `lattice_join`
    /// would then refuse as a contradiction): it is corrupt.
    #[test]
    fn admit_refuses_spellings_the_writer_never_emits() {
        let canonical = Record::of_outcome("A", 42, "Spec{n:4}".into(), &outcome_fixture());
        let canonical = canonical.encoded().clone();
        assert!(matches!(
            Record::admit(canonical.clone()),
            Admitted::Live(_)
        ));
        for (written, respelled) in [
            ("steady_skew:x3f54", "steady_skew:x3F54"),
            ("timers_set:3", "timers_set:03"),
        ] {
            let outcome_canon = canonical.outcome_canon.replace(written, respelled);
            assert_ne!(outcome_canon, canonical.outcome_canon);
            let respelled = EncodedRecord {
                outcome_canon,
                ..canonical.clone()
            };
            assert!(matches!(Record::admit(respelled), Admitted::Corrupt));
        }
    }

    #[test]
    fn store_roundtrip_and_rehydration() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);

        let cache = SweepCache::new();
        let outcomes = serial(&cache).run::<Maintenance>(grid(3));
        let mut store = SweepStore::open(&path).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.absorb(&cache), 3);
        store.save().unwrap();

        // Re-absorbing identical content changes nothing.
        assert_eq!(store.absorb(&cache), 0);

        let reopened = SweepStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 3);
        assert_eq!(reopened.skipped_lines(), 0);
        assert_eq!(reopened.stale_records(), 0);

        // The hydrated cache serves the whole grid without a single miss.
        let warm = reopened.hydrate();
        let served = serial(&warm).run::<Maintenance>(grid(3));
        assert_eq!(warm.hits(), 3);
        assert_eq!(warm.misses(), 0);
        for (a, b) in served.iter().zip(&outcomes) {
            assert!(a.bit_identical(b));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_store_loads_as_empty() {
        let path = tmp_path("truncated");
        let cache = SweepCache::new();
        let _ = serial(&cache).run::<Maintenance>(grid(1));
        let mut store = SweepStore::open(&path).unwrap();
        store.absorb(&cache);
        store.save().unwrap();

        let full = std::fs::read_to_string(&path).unwrap();
        // Cut mid-record: the single record line loses its tail (and its
        // checksum with it).
        let cut = full.len() - 10;
        std::fs::write(&path, &full[..cut]).unwrap();

        let reopened = SweepStore::open(&path).unwrap();
        assert!(reopened.is_empty());
        assert_eq!(reopened.skipped_lines(), 1);

        // Truncating into the *header* orphans every line.
        std::fs::write(&path, &full[3..]).unwrap();
        let reopened = SweepStore::open(&path).unwrap();
        assert!(reopened.is_empty());
        assert!(reopened.skipped_lines() > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let path = tmp_path("corrupt");
        let cache = SweepCache::new();
        let _ = serial(&cache).run::<Maintenance>(grid(2));
        let mut store = SweepStore::open(&path).unwrap();
        store.absorb(&cache);
        store.save().unwrap();

        let mut text = std::fs::read_to_string(&path).unwrap();
        // Flip a byte inside the first record line's spec blob.
        let lines: Vec<&str> = text.lines().collect();
        let vandalized = lines[1].replacen("Params", "Psrams", 1);
        text = format!("{}\n{}\n{}\ngarbage line\n", lines[0], vandalized, lines[2]);
        std::fs::write(&path, text).unwrap();

        let reopened = SweepStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 1, "the intact record survives");
        assert_eq!(reopened.skipped_lines(), 2, "vandalized + garbage");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_engine_records_are_ignored() {
        let path = tmp_path("stale");
        let cache = SweepCache::new();
        let _ = serial(&cache).run::<Maintenance>(grid(2));
        let mut store = SweepStore::open(&path).unwrap();
        store.absorb(&cache);
        store.save().unwrap();

        // Rewrite one record as if an older engine had produced it —
        // with a *valid* checksum, so only the version gate rejects it.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let old = lines[1].clone();
        let (prefix, _) = old.rsplit_once(' ').unwrap();
        let downgraded_prefix = prefix.replacen(
            &format!(" {ENGINE_VERSION} "),
            &format!(" {} ", ENGINE_VERSION - 1),
            1,
        );
        let crc = fnv64(downgraded_prefix.as_bytes());
        lines[1] = format!("{downgraded_prefix} {crc:016x}");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let reopened = SweepStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.stale_records(), 1);
        assert_eq!(reopened.skipped_lines(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn merge_confirms_equality_and_detects_conflicts() {
        let a_cache = SweepCache::new();
        let b_cache = SweepCache::new();
        let _ = serial(&a_cache).run::<Maintenance>(grid(3));
        let _ = serial(&b_cache).run::<Maintenance>(grid(2));

        let mut a = SweepStore::new();
        a.absorb(&a_cache);
        let mut b = SweepStore::new();
        b.absorb(&b_cache);

        // b ⊂ a: everything agrees, nothing added.
        let stats = a.merge_from(&b).unwrap();
        assert_eq!(
            stats,
            MergeStats {
                added: 0,
                agreed: 2,
                merged: 0
            }
        );

        // Tamper with one of b's outcomes: the merge must refuse.
        let key = b.records.keys().next().unwrap().clone();
        let mut encoded = b.records[&key].encoded.clone();
        let flipped = "agreement_holds:F";
        assert!(encoded.outcome_canon.contains("agreement_holds:T"));
        encoded.outcome_canon = encoded
            .outcome_canon
            .replacen("agreement_holds:T", flipped, 1);
        let Admitted::Live(tampered) = Record::admit(encoded) else {
            panic!("a flipped verdict is still a well-formed record");
        };
        b.records.insert(key, tampered);
        let err = a.merge_from(&b).unwrap_err();
        assert_eq!(err.kind, MergeConflictKind::OutcomeMismatch);
        assert_eq!(a.len(), 3, "failed merge left the target untouched");
    }

    /// Builds a one-record store holding `outcome` under `(hash, "A")`,
    /// for exercising the merge arms without running simulations.
    fn store_with(hash: u64, outcome: &SweepOutcome) -> SweepStore {
        let mut store = SweepStore::new();
        store.put(
            (hash, "A".to_string()),
            Record::of_outcome("A", hash, "Spec{n:4}".to_string(), outcome),
        );
        store
    }

    /// The full conflict matrix of [`SweepStore::merge_from`] across
    /// payload kinds: the sketch ⊔ sketch arm is the *only* same-key
    /// different-bytes combination that merges — every cross-kind or
    /// same-kind disagreement refuses, and refusal is atomic.
    #[test]
    fn merge_from_conflict_matrix_across_payload_kinds() {
        let scalar = outcome_fixture();
        let mut series = outcome_fixture();
        series.series = Some(series_fixture());
        let mut other_series = series.clone();
        other_series.series.as_mut().unwrap().round_skews[0] = 0.75;
        let sketch_over = |samples: &[f64]| {
            let mut out = outcome_fixture();
            let mut sk = crate::sketch::SkewSketch::new();
            for &v in samples {
                sk.observe(v);
            }
            out.sketch = Some(sk);
            out
        };
        let sk_a = sketch_over(&[1.0e-4, 3.0e-4, f64::NAN]);
        let sk_b = sketch_over(&[2.0e-4, -0.0]);

        // sketch ⊔ sketch over one scalar half: the single mergeable
        // cell — histogram add, equal to folding both sample sets.
        let mut target = store_with(1, &sk_a);
        let stats = target.merge_from(&store_with(1, &sk_b)).unwrap();
        assert_eq!(
            stats,
            MergeStats {
                added: 0,
                agreed: 0,
                merged: 1
            }
        );
        let mut joined = sketch_over(&[1.0e-4, 3.0e-4, f64::NAN, 2.0e-4, -0.0]);
        joined.index = 0; // stored outcomes are index-normalized
        let held = &target.records[&(1, "A".to_string())];
        assert!(
            held.outcome
                .sketch
                .as_ref()
                .unwrap()
                .bit_identical(joined.sketch.as_ref().unwrap()),
            "merged sketch must equal the 1-process fold of both shards"
        );
        assert_eq!(
            held.encoded.outcome_canon,
            canon_string(&joined),
            "the canonical bytes were re-derived after the join"
        );

        // Identical sketch records agree instead of double-counting.
        let stats = target.merge_from(&store_with(1, &joined)).unwrap();
        assert_eq!(
            stats,
            MergeStats {
                added: 0,
                agreed: 1,
                merged: 0
            }
        );

        // Every other same-key disagreement refuses: scalar × sketch,
        // sketch × series (even derivation-consistent), series × series,
        // and sketch × sketch with drifted scalar halves.
        let mut consistent_sketch = outcome_fixture();
        consistent_sketch.sketch = Some(crate::sketch::SkewSketch::of_series(
            series.series.as_ref().unwrap(),
        ));
        let mut drifted = sk_b.clone();
        drifted.seed ^= 1;
        for (ours, theirs) in [
            (&scalar, &sk_a),
            (&sk_a, &scalar),
            (&consistent_sketch, &series),
            (&series, &consistent_sketch),
            (&series, &other_series),
            (&sk_a, &drifted),
        ] {
            let mut target = store_with(1, ours);
            let before = target.records[&(1, "A".to_string())]
                .encoded
                .outcome_canon
                .clone();
            let err = target.merge_from(&store_with(1, theirs)).unwrap_err();
            assert_eq!(err.kind, MergeConflictKind::OutcomeMismatch);
            assert_eq!(
                target.records[&(1, "A".to_string())].encoded.outcome_canon,
                before,
                "refused merge must not touch the target"
            );
        }

        // Validation precedes mutation: a conflict on one key leaves a
        // mergeable sibling key untouched too.
        let mut target = store_with(1, &sk_a);
        target.merge_from(&store_with(2, &scalar)).unwrap();
        let mut incoming = store_with(1, &sk_b);
        incoming.merge_from(&store_with(2, &series)).unwrap();
        let before = target.records[&(1, "A".to_string())]
            .encoded
            .outcome_canon
            .clone();
        assert!(target.merge_from(&incoming).is_err());
        assert_eq!(
            target.records[&(1, "A".to_string())].encoded.outcome_canon,
            before,
            "the mergeable key must not merge when a sibling conflicts"
        );
    }

    #[test]
    fn save_is_canonical_regardless_of_insertion_order() {
        let cache = SweepCache::new();
        let _ = serial(&cache).run::<Maintenance>(grid(4));
        let shard_a = SweepCache::new();
        let shard_b = SweepCache::new();
        let _ = SweepRequest::new()
            .threads(1)
            .shard(crate::Shard::new(0, 2))
            .cached(&shard_a)
            .run::<Maintenance>(grid(4));
        let _ = SweepRequest::new()
            .threads(1)
            .shard(crate::Shard::new(1, 2))
            .cached(&shard_b)
            .run::<Maintenance>(grid(4));

        let p_full = tmp_path("canon-full");
        let p_merged = tmp_path("canon-merged");
        let mut full = SweepStore::open(&p_full).unwrap();
        full.absorb(&cache);
        full.save().unwrap();

        // Merge b into a (reverse of creation order on purpose).
        let mut sa = SweepStore::new();
        sa.absorb(&shard_b);
        let mut sb = SweepStore::new();
        sb.absorb(&shard_a);
        sa.merge_from(&sb).unwrap();
        sa.save_to(&p_merged).unwrap();

        let full_bytes = std::fs::read(&p_full).unwrap();
        let merged_bytes = std::fs::read(&p_merged).unwrap();
        assert_eq!(
            full_bytes, merged_bytes,
            "2-shard merged store must be byte-identical to the unsharded store"
        );
        let _ = std::fs::remove_file(&p_full);
        let _ = std::fs::remove_file(&p_merged);
    }

    #[test]
    fn interleaved_persists_union_instead_of_clobbering() {
        // Two processes share one store file: both open it empty, run
        // disjoint grids, and persist one after the other. The second
        // persist must adopt the first's records, not overwrite them.
        let path = tmp_path("interleaved");
        let _ = std::fs::remove_file(&path);
        let mut a = DiskSweepCache::open(&path).unwrap();
        let mut b = DiskSweepCache::open(&path).unwrap();
        let _ = serial(a.cache()).run::<Maintenance>(grid(2));
        let grid_b: Vec<ScenarioSpec> = grid(2)
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.seed(derive_seed(0xB0B, i as u64)))
            .collect();
        let _ = serial(b.cache()).run::<Maintenance>(grid_b);
        a.persist().unwrap();
        b.persist().unwrap();
        let merged = SweepStore::open(&path).unwrap();
        assert_eq!(merged.len(), 4, "both processes' records survive");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn persist_adopts_richer_records_instead_of_downgrading() {
        // Two processes open one store of scalar records. B re-sweeps at
        // series richness and persists; A — all scalar hits, nothing new
        // — persists after it. A's persist must adopt B's series records
        // over its own scalar copies, not write the scalar copies back.
        let path = tmp_path("persist-upgrade");
        let _ = std::fs::remove_file(&path);
        let mut seed = DiskSweepCache::open(&path).unwrap();
        let _ = serial(seed.cache()).run::<Maintenance>(grid(2));
        seed.persist().unwrap();

        let mut a = DiskSweepCache::open(&path).unwrap();
        let mut b = DiskSweepCache::open(&path).unwrap();
        let _ = serial(b.cache())
            .capture(Capture::Series)
            .run::<Maintenance>(grid(2));
        b.persist().unwrap();
        let rich_len = std::fs::metadata(&path).unwrap().len();
        let _ = serial(a.cache())
            .expect_misses(0)
            .run::<Maintenance>(grid(2));
        assert_eq!(a.persist().unwrap(), 0, "A swept nothing new");
        // A second persist has nothing poorer left to absorb back.
        a.persist().unwrap();
        assert!(
            std::fs::metadata(&path).unwrap().len() >= rich_len,
            "A's persist shrank the shared store"
        );

        let c = DiskSweepCache::open(&path).unwrap();
        let served = serial(c.cache())
            .capture(Capture::Series)
            .expect_misses(0)
            .run::<Maintenance>(grid(2));
        assert!(served.iter().all(|o| o.series.is_some()));

        // A contradiction is not an upgrade: ours stays, silently.
        let scalar = outcome_fixture();
        let mut wrong = outcome_fixture();
        wrong.seed ^= 1;
        wrong.series = Some(series_fixture());
        let mut ours = store_with(7, &scalar);
        assert_eq!(ours.adopt_missing_from(&store_with(7, &wrong)), 0);
        assert_eq!(
            ours.records[&(7, "A".to_string())].kind(),
            PayloadKind::Scalar
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hydrated_records_are_shared_not_copied() {
        let path = tmp_path("shared-records");
        let _ = std::fs::remove_file(&path);
        let g = grid(3);
        let cold = SweepCache::new();
        let _ = serial(&cold).run::<Maintenance>(g.clone());
        let mut store = SweepStore::open(&path).unwrap();
        store.set_format(StoreFormat::Binary);
        store.absorb(&cold);
        store.save().unwrap();
        let bytes = std::fs::read(&path).unwrap();

        // An untouched hydrated cache holds the store's own records:
        // nothing to absorb, nothing to flush, not a byte written.
        let mut store = SweepStore::open(&path).unwrap();
        let cache = store.hydrate();
        let shared = cache.snapshot();
        assert!(shared
            .iter()
            .all(|r| store.records.values().any(|ours| Arc::ptr_eq(ours, r))));
        assert_eq!(store.absorb(&cache), 0);
        assert_eq!(store.checkpoint().unwrap(), 0);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);

        // Upgrading one scalar record to a sketch changes exactly it.
        let _ = serial(&cache)
            .capture(Capture::Sketch)
            .run::<Maintenance>(vec![g[1].clone()]);
        assert_eq!(store.absorb(&cache), 1);
        assert_eq!(store.checkpoint().unwrap(), 1);
        let _ = std::fs::remove_file(&path);
    }

    // -----------------------------------------------------------------
    // v3 binary format, migration, checkpointing, compaction.
    // -----------------------------------------------------------------

    #[test]
    fn binary_store_roundtrip_and_rehydration() {
        let path = tmp_path("bin-roundtrip");
        let _ = std::fs::remove_file(&path);
        let cache = SweepCache::new();
        let outcomes = serial(&cache)
            .capture(Capture::Series)
            .run::<Maintenance>(grid(3));
        let mut store = SweepStore::open(&path).unwrap();
        store.set_format(StoreFormat::Binary);
        store.absorb(&cache);
        store.save().unwrap();

        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..4], b"WLSB", "binary magic");

        // Auto-detection: open() needs no format hint.
        let reopened = SweepStore::open(&path).unwrap();
        assert_eq!(reopened.format(), StoreFormat::Binary);
        assert_eq!(reopened.len(), 3);
        assert_eq!(reopened.skipped_lines(), 0);
        let warm = reopened.hydrate();
        let served = serial(&warm)
            .capture(Capture::Series)
            .run::<Maintenance>(grid(3));
        assert_eq!((warm.hits(), warm.misses()), (3, 0));
        for (a, b) in served.iter().zip(&outcomes) {
            assert!(a.bit_identical(b), "binary round trip must be lossless");
        }

        // Canonical regardless of how the records arrived: a merge
        // accumulator saving in binary produces the identical file.
        let mut merged = SweepStore::new();
        merged.set_format(StoreFormat::Binary);
        merged.merge_from(&reopened).unwrap();
        let p2 = tmp_path("bin-roundtrip-merged");
        merged.save_to(&p2).unwrap();
        assert_eq!(bytes, std::fs::read(&p2).unwrap());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&p2);
    }

    #[test]
    fn migration_text_binary_text_is_byte_identical() {
        // The PR-4-shaped store: scalar and series records mixed.
        let text1 = tmp_path("mig-text1");
        let binary = tmp_path("mig-binary");
        let text2 = tmp_path("mig-text2");
        let _ = std::fs::remove_file(&text1);
        let cache = SweepCache::new();
        let g = grid(4);
        let _ = serial(&cache).run::<Maintenance>(g[..2].to_vec());
        let _ = serial(&cache)
            .capture(Capture::Series)
            .run::<Maintenance>(g[2..].to_vec());
        let mut store = SweepStore::open(&text1).unwrap();
        store.absorb(&cache);
        store.save().unwrap();

        let to_bin = SweepStore::migrate(&text1, &binary, StoreFormat::Binary).unwrap();
        assert_eq!(
            (to_bin.records, to_bin.skipped, to_bin.stale_retained),
            (4, 0, 0)
        );
        let back = SweepStore::migrate(&binary, &text2, StoreFormat::Text).unwrap();
        assert_eq!(back.records, 4);
        assert_eq!(
            std::fs::read(&text1).unwrap(),
            std::fs::read(&text2).unwrap(),
            "text -> binary -> text must reproduce the file byte-for-byte"
        );
        // And binary -> binary is idempotent (the format is canonical).
        let binary2 = tmp_path("mig-binary2");
        SweepStore::migrate(&binary, &binary2, StoreFormat::Binary).unwrap();
        assert_eq!(
            std::fs::read(&binary).unwrap(),
            std::fs::read(&binary2).unwrap()
        );
        for p in [&text1, &binary, &text2, &binary2] {
            let _ = std::fs::remove_file(p);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 24,
            .. proptest::prelude::ProptestConfig::default()
        })]

        /// Migration round-trip byte-identity over *arbitrary* record
        /// contents: adversarial floats (NaN payloads, -0.0, subnormals
        /// — any bit pattern), algorithm names with spaces/quotes/
        /// escapes, empty and lopsided series vectors.
        #[test]
        fn prop_migration_roundtrip_byte_identity(seed in 0u64..u64::MAX) {
            use rand::{Rng, SeedableRng};
            fn f(rng: &mut rand::rngs::StdRng) -> f64 {
                f64::from_bits(rng.gen::<u64>())
            }
            fn fv(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<f64> {
                (0..n).map(|_| f(rng)).collect()
            }
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let cache = SweepCache::new();
            let records = 1 + (rng.gen::<u64>() % 5) as usize;
            for i in 0..records {
                let series = if rng.gen::<u64>() % 2 == 0 {
                    let n = (rng.gen::<u64>() % 40) as usize;
                    Some(SweepSeries {
                        round_times: fv(&mut rng, n),
                        round_skews: fv(&mut rng, n),
                        skew_times: fv(&mut rng, n / 2),
                        skew_values: fv(&mut rng, n / 2),
                        corr_procs: (0..n / 3).map(|_| rng.gen::<u64>() as u32).collect(),
                        corr_times: fv(&mut rng, n / 3),
                        corr_values: fv(&mut rng, n / 3),
                    })
                } else {
                    None
                };
                // A sketch folded from arbitrary (often hostile) floats:
                // NaNs and non-positives land in the `low` bucket, the
                // rest in log bins — every branch of the sketch codec.
                let sketch = if series.is_none() && rng.gen::<u64>() % 2 == 0 {
                    let mut sk = crate::sketch::SkewSketch::new();
                    let samples = (rng.gen::<u64>() % 30) as usize;
                    for v in fv(&mut rng, samples) {
                        sk.observe(v);
                    }
                    Some(sk)
                } else {
                    None
                };
                let outcome = SweepOutcome {
                    index: i,
                    seed: rng.gen(),
                    steady_skew: f(&mut rng),
                    max_skew: f(&mut rng),
                    agreement_holds: rng.gen::<u64>() % 2 == 0,
                    max_abs_adjustment: f(&mut rng),
                    mean_abs_adjustment: f(&mut rng),
                    adjustment_holds: rng.gen::<u64>() % 2 == 0,
                    stats: wl_sim::SimStats {
                        events_delivered: rng.gen(),
                        messages_sent: rng.gen(),
                        timers_set: rng.gen(),
                        timers_suppressed: rng.gen(),
                    },
                    sketch,
                    series,
                };
                let nasty = ["algo a", "q\"uote", "tab\there", "wl-maintenance", "∆-sync"];
                let algo = format!("{}-{i}", nasty[(rng.gen::<u64>() % 5) as usize]);
                // The spec canon is opaque to the store; use an escaped
                // arbitrary string (space-free, like real canon output).
                let spec_canon = canon_string(&format!("spec {i} of seed {seed}"));
                cache.store(Record::of_outcome(&algo, rng.gen(), spec_canon, &outcome));
            }
            let text1 = tmp_path(&format!("prop-mig-t1-{seed}"));
            let binary = tmp_path(&format!("prop-mig-b-{seed}"));
            let text2 = tmp_path(&format!("prop-mig-t2-{seed}"));
            let mut store = SweepStore::new();
            store.absorb(&cache);
            store.save_to(&text1).unwrap();
            SweepStore::migrate(&text1, &binary, StoreFormat::Binary).unwrap();
            SweepStore::migrate(&binary, &text2, StoreFormat::Text).unwrap();
            let t1 = std::fs::read(&text1).unwrap();
            let t2 = std::fs::read(&text2).unwrap();
            for p in [&text1, &binary, &text2] {
                let _ = std::fs::remove_file(p);
            }
            proptest::prop_assert_eq!(t1, t2, "seed {} round trip diverged", seed);
        }
    }

    #[test]
    fn compaction_preserves_live_records_and_drops_stale() {
        let path = tmp_path("compact");
        let _ = std::fs::remove_file(&path);
        let cache = SweepCache::new();
        let _ = serial(&cache).run::<Maintenance>(grid(3));
        let mut store = SweepStore::open(&path).unwrap();
        store.absorb(&cache);
        store.save().unwrap();

        // Downgrade one record's engine version (valid checksum), as in
        // `stale_engine_records_are_ignored`.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let (prefix, _) = lines[1]
            .clone()
            .rsplit_once(' ')
            .map(|(p, c)| (p.to_string(), c.to_string()))
            .unwrap();
        let downgraded = prefix.replacen(
            &format!(" {ENGINE_VERSION} "),
            &format!(" {} ", ENGINE_VERSION - 1),
            1,
        );
        let crc = fnv64(downgraded.as_bytes());
        lines[1] = format!("{downgraded} {crc:016x}");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        // Retention: a load + save must NOT destroy the stale record.
        let mut store = SweepStore::open(&path).unwrap();
        assert_eq!((store.len(), store.stale_records()), (2, 1));
        store.save().unwrap();
        let reopened = SweepStore::open(&path).unwrap();
        assert_eq!(
            reopened.stale_records(),
            1,
            "stale records must survive an ordinary save"
        );

        // Compaction is the explicit GC that drops them.
        let mut store = SweepStore::open(&path).unwrap();
        let stats = store.compact().unwrap();
        assert_eq!(stats.live, 2);
        assert_eq!(stats.dropped_stale, 1);
        assert_eq!(stats.dropped_superseded, 0);
        assert!(stats.bytes_after < stats.bytes_before);
        let compacted = SweepStore::open(&path).unwrap();
        assert_eq!((compacted.len(), compacted.stale_records()), (2, 0));

        // Live records still serve their grid points.
        let warm = compacted.hydrate();
        let _ = serial(&warm).run::<Maintenance>(grid(3));
        assert_eq!(
            (warm.hits(), warm.misses()),
            (2, 1),
            "both live records survive compaction; only the stale one re-runs"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_appends_segments_and_supersedes_older_versions() {
        let path = tmp_path("checkpoint-append");
        let _ = std::fs::remove_file(&path);
        let g = grid(2);

        // Scalar records first, full save.
        let cache = SweepCache::new();
        let _ = serial(&cache).run::<Maintenance>(g.clone());
        let mut store = SweepStore::open(&path).unwrap();
        store.set_format(StoreFormat::Binary);
        store.absorb(&cache);
        store.save().unwrap();
        let base = std::fs::read(&path).unwrap();

        // Upgrade both records to series-bearing; checkpoint() must
        // *append* (the old file is a byte prefix of the new one).
        let _ = serial(&cache)
            .capture(Capture::Series)
            .run::<Maintenance>(g.clone());
        assert_eq!(store.absorb(&cache), 2, "series upgrade rewrites both");
        let flushed = store.checkpoint().unwrap();
        assert_eq!(flushed, 2);
        let extended = std::fs::read(&path).unwrap();
        assert!(extended.len() > base.len());
        assert_eq!(&extended[..base.len()], &base[..], "checkpoint appends");

        // Loading sees the upgraded records (last writer wins) and
        // counts the superseded scalar versions.
        let reopened = SweepStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.superseded_records(), 2);
        let warm = reopened.hydrate();
        let served = serial(&warm).capture(Capture::Series).run::<Maintenance>(g);
        assert_eq!((warm.hits(), warm.misses()), (2, 0));
        assert!(served.iter().all(|o| o.series.is_some()));

        // Nothing new to flush: checkpoint is a no-op, not a rewrite.
        let mut reopened = reopened;
        assert_eq!(reopened.checkpoint().unwrap(), 0);
        assert_eq!(std::fs::read(&path).unwrap(), extended);

        // Compaction reclaims the dead scalar bytes.
        let stats = reopened.compact().unwrap();
        assert_eq!(stats.dropped_superseded, 2);
        assert!(stats.bytes_after < stats.bytes_before);
        let compacted = SweepStore::open(&path).unwrap();
        assert_eq!(compacted.superseded_records(), 0);
        assert_eq!(compacted.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn binary_truncation_costs_exactly_the_damaged_tail() {
        // Mirror of the v2 text pins (`truncated_store_loads_as_empty`,
        // transport_conformance's mid-record/boundary cuts), at the segment
        // level: one record per segment via a tiny capacity.
        let path = tmp_path("bin-truncate");
        let _ = std::fs::remove_file(&path);
        let cache = SweepCache::new();
        let _ = serial(&cache).run::<Maintenance>(grid(3));
        let mut store = SweepStore::new();
        store.absorb(&cache);
        // Capacity 1: every record overflows, so 1 segment each (a
        // store adopts the capacity its file's header states).
        let records = store.records.values().map(|r| &r.encoded);
        let full = segment::write_file(records, 1);

        // Mid-record cut: the torn record is lost, everything before it
        // survives.
        std::fs::write(&path, &full[..full.len() - 10]).unwrap();
        let reopened = SweepStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.skipped_lines(), 1);

        // A damaged store must not be appended to (the torn tail would
        // corrupt the next segment's framing): checkpoint falls back to
        // a full rewrite, which also repairs the file.
        let mut repaired = reopened;
        repaired.absorb(&cache);
        repaired.checkpoint().unwrap();
        let fixed = SweepStore::open(&path).unwrap();
        assert_eq!((fixed.len(), fixed.skipped_lines()), (3, 0));
        assert_eq!(std::fs::read(&path).unwrap(), full, "rewrite is canonical");

        // Segment-boundary cut: costs nothing but the records beyond it.
        let mut reader = segment::SegmentReader::new(&full).unwrap();
        reader.by_ref().for_each(drop);
        assert_eq!(reader.segments(), 3);
        // Find the last segment's start: walk two segments' worth
        // (either kind — both state their stored length at bytes 12..16).
        let mut offset = segment::FILE_HEADER_LEN;
        for _ in 0..2 {
            let header_len = if full[offset..offset + 4] == segment::SEGMENT_MAGIC_PACKED {
                segment::PACKED_SEGMENT_HEADER_LEN
            } else {
                segment::SEGMENT_HEADER_LEN
            };
            let block_len = u32::from_le_bytes(full[offset + 12..offset + 16].try_into().unwrap());
            offset += header_len + block_len as usize;
        }
        std::fs::write(&path, &full[..offset]).unwrap();
        let boundary = SweepStore::open(&path).unwrap();
        assert_eq!((boundary.len(), boundary.skipped_lines()), (2, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_binary_records_retained_and_format_portable() {
        // A stale record whose *outcome grammar* this build cannot parse
        // must still ride along through saves and format migrations.
        let path = tmp_path("bin-stale");
        let live_outcome = outcome_fixture();
        let live = EncodedRecord {
            tag: segment::TAG_SCALAR,
            content_hash: 0x1111,
            engine_version: ENGINE_VERSION,
            algo: "wl-maintenance".into(),
            spec_canon: canon_string("live spec"),
            outcome_canon: canon_string(&{
                let mut o = live_outcome;
                o.index = 0;
                o
            }),
        };
        let stale = EncodedRecord {
            tag: segment::TAG_SERIES,
            content_hash: 0x2222,
            engine_version: ENGINE_VERSION - 1,
            algo: "old algo".into(),
            spec_canon: "AncientSpec{v:1}".into(),
            outcome_canon: "AncientOutcome{grammar:unknown,series:+[]}".into(),
        };
        // Records the previous engine actually wrote: its outcome canon
        // had no `sketch:` field (that rung arrived with version 5), so
        // this build cannot parse them — every pre-bump tag must still
        // ride along verbatim, ready for the old engine to read back.
        let v4_canon = "SweepOutcome{index:0,seed:1,steady_skew:x3ff0000000000000,\
                        max_skew:x3ff0000000000000,agreement_holds:+,\
                        max_abs_adjustment:x0000000000000000,\
                        mean_abs_adjustment:x0000000000000000,adjustment_holds:+,\
                        stats:SimStats{events_delivered:1,messages_sent:1,timers_set:0,\
                        timers_suppressed:0},series:~}";
        let previous: Vec<EncodedRecord> = [
            segment::TAG_SCALAR,
            segment::TAG_ADV_SCALAR,
            segment::TAG_ADV_SERIES,
        ]
        .iter()
        .enumerate()
        .map(|(i, &tag)| EncodedRecord {
            tag,
            content_hash: 0x3333 + i as u64,
            engine_version: ENGINE_VERSION - 1,
            algo: format!("v4-algo-{i}"),
            spec_canon: "V4Spec{v:4}".into(),
            outcome_canon: v4_canon.into(),
        })
        .collect();
        let mut all = vec![&live, &stale];
        all.extend(previous.iter());
        std::fs::write(
            &path,
            segment::write_file(all, segment::DEFAULT_SEGMENT_CAPACITY),
        )
        .unwrap();

        let store = SweepStore::open(&path).unwrap();
        assert_eq!(
            (store.len(), store.stale_records(), store.skipped_lines()),
            (1, 4, 0)
        );

        let text = tmp_path("bin-stale-text");
        let binary2 = tmp_path("bin-stale-bin2");
        SweepStore::migrate(&path, &text, StoreFormat::Text).unwrap();
        let as_text = SweepStore::open(&text).unwrap();
        assert_eq!(
            (as_text.len(), as_text.stale_records()),
            (1, 4),
            "stale records survive binary -> text"
        );
        // Retention is *verbatim*: the old records' exact canon bytes,
        // tags, and versions appear in the migrated text store.
        let text_bytes = std::fs::read_to_string(&text).unwrap();
        assert!(text_bytes.contains(v4_canon));
        for (i, rec) in previous.iter().enumerate() {
            let line = text_bytes
                .lines()
                .find(|l| l.contains(&format!("v4-algo-{i}")))
                .expect("previous-engine record present");
            assert!(line.starts_with(char::from(rec.tag)));
            assert!(line.contains(&format!(" {} ", ENGINE_VERSION - 1)));
        }
        SweepStore::migrate(&text, &binary2, StoreFormat::Binary).unwrap();
        let back = SweepStore::open(&binary2).unwrap();
        assert_eq!(
            (back.len(), back.stale_records()),
            (1, 4),
            "and text -> binary again"
        );
        for p in [&path, &text, &binary2] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn disk_cache_disabled_by_env_value() {
        // `open` + `persist` path without env manipulation (env vars are
        // process-global; tests must not race each other over them).
        let path = tmp_path("disk-bundle");
        let _ = std::fs::remove_file(&path);
        let mut disk = DiskSweepCache::open(&path).unwrap();
        let _ = serial(disk.cache()).run::<Maintenance>(grid(2));
        assert_eq!(disk.persist().unwrap(), 2);
        assert!(disk.status().contains("2 misses"));

        let disk2 = DiskSweepCache::open(&path).unwrap();
        let _ = serial(disk2.cache()).run::<Maintenance>(grid(2));
        assert_eq!(disk2.cache().hits(), 2);
        assert_eq!(disk2.cache().misses(), 0);
        let _ = std::fs::remove_file(&path);
    }
}
