//! The protocol message alphabet.

use wl_time::ClockTime;

/// Messages exchanged by the Welch–Lynch algorithms.
///
/// A single alphabet covers the maintenance algorithm (§4), the startup
/// algorithm (§9.2), and reintegration (§9.1) so that scenarios can mix
/// correct processes, joiners, and Byzantine forgers on one network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WlMsg {
    /// The maintenance algorithm's `Tⁱ` message: "my `i`-th logical clock
    /// just reached `Tⁱ`". Receivers timestamp its *arrival*; the value
    /// identifies the round (used by reintegrating processes to orient).
    Round(ClockTime),
    /// The startup algorithm's clock-value broadcast: "my local time is
    /// `T`".
    Time(ClockTime),
    /// The startup algorithm's READY signal: "I have finished my second
    /// waiting interval".
    Ready,
}

impl WlMsg {
    /// The round value if this is a `Round` message.
    #[must_use]
    pub fn round_value(&self) -> Option<ClockTime> {
        match self {
            WlMsg::Round(v) => Some(*v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_value_accessor() {
        assert_eq!(
            WlMsg::Round(ClockTime::from_secs(5.0)).round_value(),
            Some(ClockTime::from_secs(5.0))
        );
        assert_eq!(WlMsg::Ready.round_value(), None);
        assert_eq!(WlMsg::Time(ClockTime::ZERO).round_value(), None);
    }
}
