//! The two grid generators every workload draws its inputs from.
//!
//! A grid is a pure function of `(seed, len)`: each point's simulation
//! seed is `derive_seed(seed, index)`, so the program under test only
//! ever sees generated [`ScenarioSpec`]s, and two runs at one seed sweep
//! byte-identical grids.

use wl_core::Params;
use wl_harness::{derive_seed, DelayKind, FaultKind, ScenarioSpec};
use wl_sim::ProcessId;
use wl_time::RealTime;

const DELAYS: [DelayKind; 3] = [
    DelayKind::Constant,
    DelayKind::Uniform,
    DelayKind::AdversarialSplit,
];

/// `(n, f)` shapes of [`mixed`], round-robin. `(4, 1)` appears twice so
/// the small fleet the other workloads use is half of the cold grid.
const MIXED_SHAPES: [(usize, usize); 4] = [(4, 1), (7, 2), (4, 1), (16, 5)];

/// Every `MIXED_FAULT_EVERY`-th point of [`mixed`] carries a two-faced
/// fault, which moves it off the monomorphized dispatch path.
pub const MIXED_FAULT_EVERY: usize = 5;

fn params(n: usize, f: usize) -> Params {
    Params::auto(n, f, 1e-6, 0.010, 0.001).expect("benchmark parameters are feasible")
}

/// The cold grid: three fleet sizes, three delay models, one point in
/// five faulted (so 80 % of points dispatch mono and 20 % enum, and all
/// three benchmarked algorithms accept every point), 8 simulated seconds.
pub fn mixed(seed: u64, len: usize) -> Vec<ScenarioSpec> {
    let shapes: Vec<Params> = MIXED_SHAPES.iter().map(|&(n, f)| params(n, f)).collect();
    (0..len)
        .map(|i| {
            let spec = ScenarioSpec::new(shapes[i % shapes.len()].clone())
                .seed(derive_seed(seed, i as u64))
                .delay(DELAYS[i % DELAYS.len()])
                .t_end(RealTime::from_secs(8.0));
            if i % MIXED_FAULT_EVERY == MIXED_FAULT_EVERY - 1 {
                spec.fault(ProcessId(0), FaultKind::TwoFaced(0.002))
            } else {
                spec
            }
        })
        .collect()
}

/// The store grid: `(4, 1)` only, no faults, 2 simulated seconds — cheap
/// to simulate in set-up, so the timed phases see stores of many records.
pub fn small(seed: u64, len: usize) -> Vec<ScenarioSpec> {
    let params = params(4, 1);
    (0..len)
        .map(|i| {
            ScenarioSpec::new(params.clone())
                .seed(derive_seed(seed, i as u64))
                .delay(DELAYS[i % DELAYS.len()])
                .t_end(RealTime::from_secs(2.0))
        })
        .collect()
}

/// How many points of `grid` dispatch `(mono, enum, boxed)` under
/// `Maintenance`: the sweep tries the paths in that order.
pub fn dispatch(grid: &[ScenarioSpec]) -> (usize, usize, usize) {
    use wl_harness::{assemble_enum, assemble_mono, Maintenance};
    let mono = grid
        .iter()
        .filter(|s| assemble_mono::<Maintenance>(s).is_some())
        .count();
    let fast = grid
        .iter()
        .filter(|s| {
            assemble_mono::<Maintenance>(s).is_some() || assemble_enum::<Maintenance>(s).is_some()
        })
        .count();
    (mono, fast - mono, grid.len() - fast)
}

/// A seeded Fisher–Yates permutation of `0..len` (splitmix64 steps), for
/// the shuffled lookup orders of the warm and service workloads.
pub fn shuffled(seed: u64, len: usize) -> Vec<usize> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hashes(grid: &[ScenarioSpec]) -> Vec<u64> {
        grid.iter().map(ScenarioSpec::content_hash).collect()
    }

    #[test]
    fn grids_are_deterministic_per_seed_and_distinct_across_seeds() {
        assert_eq!(hashes(&mixed(0x11, 60)), hashes(&mixed(0x11, 60)));
        assert_eq!(hashes(&small(0x11, 60)), hashes(&small(0x11, 60)));
        let (a, b) = (hashes(&mixed(0x11, 60)), hashes(&mixed(0x12, 60)));
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
        let (a, b) = (hashes(&small(0x11, 60)), hashes(&small(0x12, 60)));
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
        // A longer grid extends a shorter one; points never repeat.
        assert_eq!(hashes(&small(7, 10)), hashes(&small(7, 20))[..10]);
        let mut all = hashes(&small(7, 500));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 500);
    }

    #[test]
    fn mixed_grid_dispatches_80_mono_20_enum_and_never_boxed() {
        assert_eq!(dispatch(&mixed(0x11, 60)), (48, 12, 0));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let order = shuffled(3, 100);
        assert_eq!(order, shuffled(3, 100));
        assert_ne!(order, shuffled(4, 100));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
