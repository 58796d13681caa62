//! Unified scenario harness: one assembly path and one sweep engine for
//! **every** synchronization algorithm in the workspace.
//!
//! Before this crate existed, `wl-core::scenario` and
//! `wl-baselines::scenario` each hand-rolled the same assembly steps —
//! draw initial offsets, build drift clocks, compute START times, wrap
//! faulty processes, pick a delay model, seed the simulator — and every
//! experiment binary wrote its own serial sweep loop on top. This crate
//! owns all of that:
//!
//! * [`ScenarioSpec`] — a plain-data description of a scenario: parameters,
//!   drift model, delay model, fault plan, seed, horizon. Algorithm
//!   agnostic; build it once, run it under any algorithm.
//! * [`SyncAlgorithm`] — the plug-in trait. Implemented for the paper's
//!   [`Maintenance`], [`Startup`] and [`Rejoiner`] automata and for the
//!   §10 baselines [`LmCnv`], [`MahaneySchneider`] and [`SrikanthToueg`].
//!   An algorithm contributes its message type, its per-process automata
//!   (correct, faulty, rejoining), and its start discipline; the harness
//!   contributes everything else.
//! * [`assemble()`](assemble()) — the single assembly path:
//!   `assemble::<A>(&spec)` → a ready-to-run [`BuiltScenario`];
//!   [`assemble_mono`] and [`assemble_enum`] are the same body at an
//!   unboxed fleet type, for the specs such a fleet can store.
//! * [`run`] — shared measurement helpers (`run_summary`, `run_capture`,
//!   `baseline_metrics`) generic over the scenario, so every algorithm
//!   on every fleet is summarized by the same code: one monotone pass of
//!   `wl_analysis`'s skew evaluator over every sample instant.
//! * [`SweepRequest`] — the one sweep entry point: fans a grid of specs
//!   across threads ([`SweepRunner`]) with
//!   deterministic per-scenario seed derivation ([`derive_seed`]). Results
//!   are identical at any thread count, including one. Grids also split
//!   across *processes and machines*: [`Shard`] covers a grid k/N-wise
//!   and [`SweepStore::merge_from`] reassembles the shards' stores,
//!   equality-confirmed.
//! * [`cache`] — the persistence layer: [`SweepCache`] memoizes per-spec
//!   results in memory; [`SweepStore`] persists them to a
//!   content-addressed, corruption-tolerant record file shared across
//!   experiment binaries and machines ([`DiskSweepCache`] bundles both).
//!   A sweep re-run against a warm store executes **zero** simulations —
//!   including series-hungry figure experiments, via the optional
//!   [`SweepSeries`] record payload
//!   ([`Capture::Series`]). See `docs/sweeps.md` for
//!   the format and the determinism contract.
//! * [`service`] — the results-service layer: [`serve`] runs a
//!   long-lived server that owns one hot [`SweepStore`], answers warm
//!   lookups at memory speed, simulates misses on a resident pool, and
//!   checkpoints every batch before answering (`kill -9`-safe, like
//!   workers); [`ServiceSweepCache`] + the `WL_SWEEP_SERVICE` env knob
//!   make every cached sweep resolve *local store → service →
//!   simulate* (`sweep_serve` is the CLI). See `docs/service.md`.
//! * [`frontier`] + [`transport`] — the multi-process layer:
//!   [`run_worker_frontier`] drains a rename-based work-stealing
//!   [`Frontier`] of grid chunks into a checkpointed, resumable store;
//!   [`drive_frontier`] spawns the workers as subprocesses over one
//!   drive directory, monitors heartbeats, restarts crashed or stalled
//!   workers under a bounded budget, and merges every worker store in
//!   that directory into a store byte-identical to a 1-process run
//!   (`sweep_drive` is the CLI). Another machine joins through a shared
//!   directory; `WL_SWEEP_SERVICE` in the driver's environment makes
//!   the fleet service-backed.
//!
//! # Quickstart
//!
//! ```
//! use wl_harness::{assemble, Maintenance, ScenarioSpec, SweepRunner};
//! use wl_core::Params;
//! use wl_time::RealTime;
//!
//! let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
//!
//! // One scenario:
//! let spec = ScenarioSpec::new(params.clone())
//!     .seed(42)
//!     .t_end(RealTime::from_secs(10.0));
//! let outcome = assemble::<Maintenance>(&spec).sim.run();
//! assert!(outcome.stats.events_delivered > 0);
//!
//! // A parallel sweep over seeds (deterministic at any thread count):
//! let specs: Vec<ScenarioSpec> = (0..4)
//!     .map(|i| {
//!         ScenarioSpec::new(params.clone())
//!             .seed(wl_harness::derive_seed(42, i))
//!             .t_end(RealTime::from_secs(5.0))
//!     })
//!     .collect();
//! let skews = SweepRunner::new().run(specs, |_, spec| {
//!     wl_harness::run::run_summary(assemble::<Maintenance>(spec), 5.0)
//!         .agreement
//!         .steady_skew
//! });
//! assert_eq!(skews.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod algo;
pub mod assemble;
pub mod cache;
pub mod fleet;
pub mod frontier;
pub mod run;
pub mod search;
pub mod service;
pub mod sketch;
pub mod spec;
pub mod sweep;
pub mod transport;

pub use adversary::{
    Adversary, AdversaryActor, AdversaryDelay, ChurnStrategy, LinkPlan, TargetedLinks,
};
pub use algo::{AssemblyCtx, FleetRole, StartDiscipline, SyncAlgorithm};
pub use assemble::{
    assemble, assemble_enum, assemble_enum_with_queue, assemble_mono, assemble_mono_null,
    assemble_with_queue, BuiltScenario, EnumScenario, MonoScenario,
};
pub use cache::{
    CompactStats, DiskSweepCache, MergeConflict, MergeConflictKind, MergeStats, MigrationReport,
    StoreFormat, SweepStore, ENGINE_VERSION,
};
pub use fleet::{CnvAlgoFleet, MsAlgoFleet, StAlgoFleet, WlAlgoFleet};
pub use frontier::{
    run_worker_frontier, Claim, Frontier, FrontierError, FrontierProgress, FrontierSpec,
    FrontierStatus, FrontierWorkerConfig,
};
pub use search::{search_worst_case, SearchConfig, SearchReport};
pub use service::{
    serve, service_from_env, ServeConfig, ServeReport, ServiceAddr, ServiceClient, ServiceStats,
    ServiceSweepCache,
};
pub use sketch::{store_report, SkewSketch};
pub use spec::{AdversarySpec, AdversaryStrategy, DelayKind, FaultKind, ScenarioSpec};
pub use sweep::{
    derive_seed, Capture, Shard, SweepAlgorithm, SweepCache, SweepOutcome, SweepRequest,
    SweepRunner, SweepSeries, SweepSummary,
};
pub use transport::{
    drive_frontier, FrontierDriveError, FrontierDriveReport, FrontierDriverConfig,
    SubprocessTransport, WorkerLaunch, WorkerTransport,
};

// The algorithms, re-exported so harness users need a single import.
pub use wl_baselines::lm_cnv::LmCnv;
pub use wl_baselines::mahaney_schneider::MahaneySchneider;
pub use wl_baselines::srikanth_toueg::SrikanthToueg;
pub use wl_core::{Maintenance, Rejoiner, Startup};
