//! The value liar for the baselines that exchange clock *values*.
//!
//! The timing attack — the round message early to half the fleet and late
//! to the other half — is one liar for every protocol whose estimates are
//! arrival times: [`wl_core::byzantine::PullApart`], built with the
//! protocol's round message. CNV and MS read the value a message carries
//! instead, so their two-faced liar lies in the value.

use wl_core::Params;
use wl_sim::{Actions, Automaton, Input, ProcessId};
use wl_time::ClockTime;

/// A content liar for value-exchanging protocols (CNV, MS): broadcasts on
/// the honest round schedule, but *claims* a clock value `amplitude` ahead
/// to the processes `high_mask` names and `amplitude` behind to the rest.
///
/// This is the attack behind CNV's `2nε`-style degradation: a lie that
/// stays inside the egocentric threshold shifts every receiver's average
/// by `±lie/n`, in opposite directions for the two halves.
#[derive(Debug)]
pub struct ValueTwoFaced<M> {
    params: Params,
    t_round: f64,
    amplitude: f64,
    /// `high_mask[q]` — whether `q` is told the value ahead.
    high_mask: Vec<bool>,
    make_msg: fn(f64) -> M,
}

impl<M> ValueTwoFaced<M> {
    /// Creates the liar; `make_msg(claimed_value)` builds the message.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from `n`.
    #[must_use]
    pub fn new(
        params: Params,
        amplitude: f64,
        high_mask: Vec<bool>,
        make_msg: fn(f64) -> M,
    ) -> Self {
        assert_eq!(high_mask.len(), params.n, "mask must cover all processes");
        let t_round = params.t0;
        Self {
            params,
            t_round,
            amplitude,
            high_mask,
            make_msg,
        }
    }
}

impl<M: Clone + std::fmt::Debug + Send> Automaton for ValueTwoFaced<M> {
    type Msg = M;

    fn on_input(&mut self, input: Input<M>, _phys_now: ClockTime, out: &mut Actions<M>) {
        match input {
            Input::Start | Input::Timer => {
                let high = (self.make_msg)(self.t_round + self.amplitude);
                let low = (self.make_msg)(self.t_round - self.amplitude);
                for q in 0..self.params.n {
                    let msg = if self.high_mask[q] {
                        high.clone()
                    } else {
                        low.clone()
                    };
                    out.send(ProcessId(q), msg);
                }
                self.t_round += self.params.p_round;
                out.set_timer(ClockTime::from_secs(self.t_round));
            }
            Input::Message { .. } => {}
        }
    }
}
