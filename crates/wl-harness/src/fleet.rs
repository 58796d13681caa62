//! Enum-dispatched fleets: the statically typed storage for *mixed*
//! fleets (correct processes, crash wrappers, spammers, two-faced
//! attackers), where a `Vec<A>` of one automaton type cannot serve.
//!
//! One enum per protocol message family wraps every automaton the
//! corresponding [`crate::SyncAlgorithm`] implementations can realize, so
//! a mixed fleet is a `Vec<...AlgoFleet>` — contiguous storage,
//! enum-match dispatch the optimizer can inline, no per-process heap
//! allocation.
//!
//! # Dispatch contract
//!
//! Each enum's [`Automaton`] impl is a pure delegator: `on_input` and
//! `initial_correction` match on the variant and forward verbatim to the
//! wrapped automaton. Variants are constructed exclusively by
//! [`crate::SyncAlgorithm::fleet_automaton`], the same single body the
//! boxed rung boxes — so the enum rung is byte-identical to the boxed
//! one (pinned by the `rungs_agree` table and the `fleet_parity`
//! proptests).

use wl_baselines::byzantine::{TimedTwoFaced, ValueTwoFaced};
use wl_baselines::lm_cnv::{CnvMsg, LmCnv};
use wl_baselines::mahaney_schneider::{MahaneySchneider, MsMsg};
use wl_baselines::srikanth_toueg::{SrikanthToueg, StMsg};
use wl_core::byzantine::{PullApart, RoundSpammer};
use wl_core::{Maintenance, Rejoiner, Startup, WlMsg};
use wl_sim::faults::{CrashAt, SilentFor};
use wl_sim::{Actions, Automaton, Input};
use wl_time::ClockTime;

/// Every automaton a Welch–Lynch scenario ([`Maintenance`], [`Startup`],
/// [`Rejoiner`] and their fault galleries) can place in a fleet.
#[derive(Debug)]
pub enum WlAlgoFleet {
    /// A correct §4 maintenance process.
    Maintenance(Maintenance),
    /// A correct §9.2 startup process.
    Startup(Startup),
    /// A §9.1 rejoiner (self-silencing until its first full round).
    Rejoiner(Rejoiner),
    /// A maintenance process that crashes at a designated real time.
    Crashed(CrashAt<Maintenance>),
    /// A process that never speaks ([`crate::FaultKind::Silent`]).
    Silent(SilentFor<WlMsg>),
    /// The round-spam attacker ([`crate::FaultKind::RoundSpam`]).
    Spammer(RoundSpammer),
    /// The pull-apart / two-faced attacker
    /// ([`crate::FaultKind::PullApart`] and friends).
    PullApart(PullApart),
}

/// Every automaton an LM-CNV (§10) scenario can place in a fleet.
#[derive(Debug)]
pub enum CnvAlgoFleet {
    /// A correct LM-CNV process.
    Correct(LmCnv),
    /// A process that never speaks.
    Silent(SilentFor<CnvMsg>),
    /// The value-lying two-faced attacker.
    TwoFaced(ValueTwoFaced<CnvMsg, fn(f64) -> CnvMsg>),
}

/// Every automaton a Mahaney–Schneider (§10) scenario can place in a
/// fleet.
#[derive(Debug)]
pub enum MsAlgoFleet {
    /// A correct Mahaney–Schneider process.
    Correct(MahaneySchneider),
    /// A process that never speaks.
    Silent(SilentFor<MsMsg>),
    /// The value-lying two-faced attacker.
    TwoFaced(ValueTwoFaced<MsMsg, fn(f64) -> MsMsg>),
}

/// Every automaton a Srikanth–Toueg (§10) scenario can place in a fleet.
#[derive(Debug)]
pub enum StAlgoFleet {
    /// A correct Srikanth–Toueg process.
    Correct(SrikanthToueg),
    /// A process that never speaks.
    Silent(SilentFor<StMsg>),
    /// The timing-lying two-faced attacker.
    TwoFaced(TimedTwoFaced<StMsg, fn(u64, f64) -> StMsg>),
}

macro_rules! delegate_automaton {
    ($enum_ty:ident, $msg:ty, [$($variant:ident),+ $(,)?]) => {
        impl Automaton for $enum_ty {
            type Msg = $msg;

            #[inline]
            fn on_input(
                &mut self,
                input: Input<$msg>,
                phys_now: ClockTime,
                out: &mut Actions<$msg>,
            ) {
                match self {
                    $(Self::$variant(a) => a.on_input(input, phys_now, out),)+
                }
            }

            #[inline]
            fn initial_correction(&self) -> f64 {
                match self {
                    $(Self::$variant(a) => a.initial_correction(),)+
                }
            }
        }
    };
}

delegate_automaton!(
    WlAlgoFleet,
    WlMsg,
    [
        Maintenance,
        Startup,
        Rejoiner,
        Crashed,
        Silent,
        Spammer,
        PullApart
    ]
);
delegate_automaton!(CnvAlgoFleet, CnvMsg, [Correct, Silent, TwoFaced]);
delegate_automaton!(MsAlgoFleet, MsMsg, [Correct, Silent, TwoFaced]);
delegate_automaton!(StAlgoFleet, StMsg, [Correct, Silent, TwoFaced]);

#[cfg(test)]
mod tests {
    use super::*;
    use wl_core::Params;
    use wl_sim::ProcessId;

    #[test]
    fn enum_delegates_on_input_and_initial_correction() {
        let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
        let mut direct = Maintenance::new(ProcessId(0), params.clone(), 0.25);
        let mut wrapped = WlAlgoFleet::Maintenance(Maintenance::new(ProcessId(0), params, 0.25));
        assert_eq!(direct.initial_correction(), wrapped.initial_correction());

        let mut out_a = Actions::new();
        let mut out_b = Actions::new();
        direct.on_input(Input::Start, ClockTime::from_secs(1.0), &mut out_a);
        wrapped.on_input(Input::Start, ClockTime::from_secs(1.0), &mut out_b);
        assert_eq!(out_a.as_slice(), out_b.as_slice());
    }

    #[test]
    fn silent_variant_stays_silent() {
        let mut silent = WlAlgoFleet::Silent(SilentFor::default());
        let mut out = Actions::new();
        silent.on_input(Input::Start, ClockTime::from_secs(1.0), &mut out);
        assert!(out.is_empty());
    }
}
