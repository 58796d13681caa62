//! The Welch–Lynch fault-tolerant clock synchronization algorithm.
//!
//! This crate is the paper's primary contribution, implemented on top of
//! the execution model in `wl-sim`:
//!
//! * [`Params`] — the global constants `n, f, ρ, β, δ, ε, P, T⁰` with the
//!   §5.2 feasibility constraints between `P` and `β` enforced at
//!   construction.
//! * [`theory`] — closed-form statements of every quantitative claim in
//!   the paper (the agreement bound `γ` of Theorem 16, the validity rates
//!   of Theorem 19, the adjustment bound of Theorem 4(a), the per-round
//!   halving recurrences, the startup recurrence of Lemma 20, …). The
//!   experiment harness compares measurements against these.
//! * [`Maintenance`] — the §4.2 algorithm: broadcast `Tⁱ` when your `i`-th
//!   logical clock reads `Tⁱ`, collect arrival times for
//!   `(1+ρ)(β+δ+ε)`, apply `mid(reduce(·))`, adjust, repeat. Includes the
//!   §9.3 staggered-broadcast variant, the §7 multi-exchange variant, and
//!   the §7 mean-averaging variant, all behind [`Params`] knobs.
//! * [`Startup`] — the §9.2 algorithm establishing synchronization from
//!   arbitrary initial clocks using READY messages.
//! * [`Rejoiner`] — the §9.1 reintegration procedure for a repaired
//!   process.
//! * [`byzantine`] — protocol-aware Byzantine strategies used by the
//!   experiments.
//! * [`reference`](mod@reference) — §4's round in closed form, with no
//!   queue and no automaton: the oracle the simulator is tested against.
//!
//! Scenario assembly (clocks + automata + delay models + fault plans into
//! a ready-to-run [`wl_sim::Simulation`]) lives one layer up, in
//! `wl-harness`, so that this algorithm and the §10 baselines share one
//! assembly path.
//!
//! # Quickstart
//!
//! ```
//! use wl_core::{Maintenance, Params};
//! use wl_sim::{Actions, Automaton, Input, ProcessId};
//! use wl_time::ClockTime;
//!
//! // n = 4 processes tolerating f = 1 Byzantine fault.
//! let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
//! // The maintenance automaton reacts to its START interrupt by arming
//! // the round timer for T0 on its own physical clock.
//! let mut p0 = Maintenance::new(ProcessId(0), params, 0.0);
//! let mut out = Actions::new();
//! p0.on_input(Input::Start, ClockTime::from_secs(0.5), &mut out);
//! assert!(!out.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod byzantine;
mod maintenance;
mod msg;
pub mod params;
pub mod reference;
mod reintegration;
mod startup;
pub mod theory;

pub use maintenance::{Maintenance, Phase};
pub use msg::WlMsg;
pub use params::{ParamError, Params, StartupParams};
pub use reintegration::Rejoiner;
pub use startup::Startup;

pub use wl_multiset::AveragingFn;
