//! # welch-lynch
//!
//! A complete Rust reproduction of *"A New Fault-Tolerant Algorithm for
//! Clock Synchronization"* by Jennifer Lundelius Welch and Nancy Lynch
//! (PODC 1984; Information and Computation 77:1–36, 1988).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`time`] — type-safe real/clock time quantities.
//! * [`clock`] — ρ-bounded physical and logical clocks.
//! * [`multiset`] — the fault-tolerant averaging function and the
//!   Appendix multiset machinery.
//! * [`sim`] — the discrete-event simulator implementing the paper's
//!   execution model (§2).
//! * [`core`] — the algorithm: maintenance (§4), startup (§9.2),
//!   reintegration (§9.1), variants (§7, §9.3), parameter feasibility
//!   (§5.2), and the closed-form theory bounds.
//! * [`baselines`] — the §10 comparison algorithms (Lamport/Melliar-Smith
//!   interactive convergence, Mahaney–Schneider, Srikanth–Toueg).
//! * [`harness`] — the unified scenario layer: an algorithm-agnostic
//!   [`harness::ScenarioSpec`], the [`harness::SyncAlgorithm`] plug-in
//!   trait implemented by every algorithm above, and the parallel
//!   [`harness::SweepRunner`] for parameter grids.
//! * [`analysis`] — skew measurement and property checking (Theorems 4,
//!   16, 19; Lemmas 10, 20).
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for the reproduction of
//! every quantitative claim in the paper.

pub use wl_analysis as analysis;
pub use wl_baselines as baselines;
pub use wl_clock as clock;
pub use wl_core as core;
pub use wl_harness as harness;
pub use wl_multiset as multiset;
pub use wl_sim as sim;
pub use wl_time as time;
