//! `round_half_away` pinned against `f64::round`, which calls libm and
//! so may not appear in the engine crates' sources.

use wl_analysis::stats::round_half_away;

/// Bitwise equal, or both NaN: libm may quiet a signalling NaN that
/// `round_half_away` hands back untouched, and every caller casts a NaN
/// to the same integer either way.
fn same_rounding(x: f64) -> bool {
    let (ours, libm) = (round_half_away(x), x.round());
    ours.to_bits() == libm.to_bits() || (ours.is_nan() && libm.is_nan())
}

#[test]
fn round_half_away_is_f64_round_bit_for_bit() {
    let two52 = 4_503_599_627_370_496.0f64;
    let edges = [
        0.0,
        0.5,
        1.5,
        2.5,
        0.49999999999999994,
        f64::NAN,
        f64::INFINITY,
        f64::MIN_POSITIVE,
        f64::MAX,
        two52,
        two52 - 0.5,
        two52 - 1.0,
        two52 + 2.0,
        9_007_199_254_740_993.0,
    ];
    for x in edges.into_iter().flat_map(|x| [x, -x]) {
        assert!(
            same_rounding(x),
            "{x:e}: {} vs {}",
            round_half_away(x),
            x.round()
        );
    }
    assert_eq!(round_half_away(-0.0).to_bits(), (-0.0f64).to_bits());
    assert_eq!(round_half_away(-0.3).to_bits(), (-0.0f64).to_bits());
    assert_eq!((round_half_away(2.5), round_half_away(-2.5)), (3.0, -3.0));
    assert_eq!(round_half_away(two52 - 0.5), two52);

    // SplitMix64: one million raw bit patterns, then one million values
    // over every exponent whose values carry a fraction (2^-2 ..= 2^53).
    let mut state = 0x5EED_0F20_4300_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for _ in 0..1_000_000 {
        let x = f64::from_bits(next());
        assert!(same_rounding(x), "bits {:#018x}", x.to_bits());
    }
    for _ in 0..1_000_000 {
        let bits = next();
        let exponent = 1021 + (bits >> 52) % 56;
        let x = f64::from_bits((bits & (1 << 63 | ((1 << 52) - 1))) | exponent << 52);
        assert!(same_rounding(x), "bits {:#018x}", x.to_bits());
    }
}
