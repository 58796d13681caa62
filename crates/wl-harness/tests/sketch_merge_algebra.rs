//! The merge algebra of [`SkewSketch`], pinned by property tests.
//!
//! Sharded sweeps lean on one algebraic fact: folding a million skew
//! samples into one sketch and merging per-shard sketches of the same
//! samples are *the same function* — not approximately, but to the
//! bit. That is what lets `sweep_stats` over N shard stores print a
//! transcript character-identical to a 1-process run, and what lets
//! [`SweepStore::merge_from`] treat sketch records as a join
//! semilattice. The laws, over adversarial inputs (arbitrary f64 bit
//! patterns: NaNs, ±0.0, subnormals, infinities):
//!
//! * **identity** — `merge(s, empty) == s == merge(empty, s)`;
//! * **commutativity** — `merge(a, b) == merge(b, a)`;
//! * **associativity** — `merge(merge(a, b), c) == merge(a, merge(b, c))`;
//! * **shard-invariance** — for *any* assignment of samples to shards,
//!   `merge(fold(shard_0), …, fold(shard_k)) == fold(all)`;
//! * **canon-stability** — bit-identical sketches serialize to the same
//!   canonical string (so store bytes cannot drift across shardings).
//!
//! Equality throughout is [`SkewSketch::bit_identical`] — exact field
//! and bin equality — plus the serialized form, never a tolerance.

use proptest::prelude::*;
use wl_harness::cache::canon_string;
use wl_harness::SkewSketch;

/// Folds a sample stream into a fresh sketch.
fn fold(samples: &[f64]) -> SkewSketch {
    let mut sketch = SkewSketch::new();
    for &v in samples {
        sketch.observe(v);
    }
    sketch
}

fn merged(a: &SkewSketch, b: &SkewSketch) -> SkewSketch {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// Asserts bitwise *and* serialized equality — the store-level contract.
fn assert_same(a: &SkewSketch, b: &SkewSketch, law: &str) {
    assert!(
        a.bit_identical(b),
        "{law} violated:\n  left  = {a:?}\n  right = {b:?}"
    );
    assert_eq!(canon_string(a), canon_string(b), "{law}: canon drifted");
}

/// Arbitrary f64 *bit patterns* — the harshest sample distribution: every
/// NaN payload, both zero signs, subnormals, infinities — mixed with
/// realistically-scaled skews so the log-bin path is exercised too.
fn arb_samples(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..u64::MAX).prop_map(f64::from_bits),
            1e-9f64..1e-1f64,
            Just(0.0),
            Just(-0.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
        ],
        0..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn empty_is_the_two_sided_identity(samples in arb_samples(48)) {
        let s = fold(&samples);
        let empty = SkewSketch::new();
        assert_same(&merged(&s, &empty), &s, "right identity");
        assert_same(&merged(&empty, &s), &s, "left identity");
        prop_assert!(s.well_formed(), "fold must produce a well-formed sketch");
    }

    #[test]
    fn merge_commutes(a in arb_samples(48), b in arb_samples(48)) {
        let (sa, sb) = (fold(&a), fold(&b));
        assert_same(&merged(&sa, &sb), &merged(&sb, &sa), "commutativity");
    }

    #[test]
    fn merge_associates(a in arb_samples(32), b in arb_samples(32), c in arb_samples(32)) {
        let (sa, sb, sc) = (fold(&a), fold(&b), fold(&c));
        assert_same(
            &merged(&merged(&sa, &sb), &sc),
            &merged(&sa, &merged(&sb, &sc)),
            "associativity",
        );
    }

    /// The tentpole law: an arbitrary sharding of the sample stream —
    /// including empty shards and shards seeing the samples out of the
    /// global order — merges back to the 1-process fold, bit for bit.
    #[test]
    fn any_sharding_merges_to_the_unsharded_fold(
        samples in arb_samples(96),
        shards in 1usize..6,
        assignment_seed in 0u64..u64::MAX,
    ) {
        // Deterministic pseudo-random shard assignment per sample; a
        // multiplicative hash is enough spread and keeps the test
        // reproducible from the proptest seed alone.
        let mut parts: Vec<Vec<f64>> = vec![Vec::new(); shards];
        for (i, &v) in samples.iter().enumerate() {
            let h = (assignment_seed ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            parts[(h % shards as u64) as usize].push(v);
        }
        let mut reassembled = SkewSketch::new();
        for part in &parts {
            reassembled.merge(&fold(part));
        }
        assert_same(&reassembled, &fold(&samples), "shard-invariance");
        prop_assert_eq!(
            reassembled.count,
            samples.len() as u64,
            "every sample accounted for exactly once"
        );
    }

    /// Quantiles and the mean are functions of the sketch alone, so
    /// sharding cannot move them even in the last bit.
    #[test]
    fn summary_statistics_survive_sharding(samples in arb_samples(96), at in 0u64..u64::MAX) {
        let cut = (at % (samples.len() as u64 + 1)) as usize;
        let whole = fold(&samples);
        let halves = merged(&fold(&samples[..cut]), &fold(&samples[cut..]));
        for (num, den) in [(1, 2), (19, 20), (99, 100)] {
            prop_assert_eq!(
                whole.quantile(num, den).to_bits(),
                halves.quantile(num, den).to_bits(),
                "q{num}/{den} moved under sharding"
            );
        }
        prop_assert_eq!(whole.mean().to_bits(), halves.mean().to_bits());
        prop_assert_eq!(whole.max.to_bits(), halves.max.to_bits());
    }
}
