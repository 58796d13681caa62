//! Mergeable streaming skew sketches — the ~100-byte record kind that
//! makes million-scenario Monte Carlo affordable.
//!
//! A [`crate::SweepSeries`] costs 100 KB–1 MB per grid point; at the
//! ROADMAP's 10⁶-scenario target that is ~100 GB of store and an
//! analysis that does not fit in RAM. A [`SkewSketch`] keeps what the
//! paper's distributional claims actually need — sample count, exact
//! mean, max, and p50/p95/p99 skew — in a few dozen integers, and it
//! *merges*: the sketch of a union of sample streams is the
//! element-wise sum of the per-stream sketches, so shard stores fold
//! into fleet-level statistics without ever materializing a series.
//!
//! Everything here is integer-exact and byte-pinnable, deliberately
//! unlike t-digests or sampling sketches:
//!
//! * **Counts and histogram bins are integers.** Merge is integer
//!   addition — associative, commutative, with the empty sketch as
//!   identity, so `fold(all)` and `merge(fold(shard_k))` are
//!   byte-identical for *any* sharding (pinned by
//!   `tests/sketch_merge_algebra.rs`).
//! * **The mean is an exact integer tick sum.** Samples quantize to
//!   2⁻⁴⁰-second ticks (sub-picosecond resolution) and accumulate in a
//!   128-bit integer, so summation order cannot perturb a single bit.
//! * **Quantiles come from fixed bins, not interpolation.** The bin of
//!   a positive sample is its f64 bit pattern shifted right 49 places —
//!   the 11 exponent bits and the top 3 mantissa bits. That is a fixed
//!   log-linear grid (8 bins per power of two, ≤ 9.1 % relative
//!   width — a compact record beats a finer grid at fleet scale)
//!   computed with *no* floating-point arithmetic, monotone in
//!   the sample, whose bin edges are exact binary numbers. A reported
//!   quantile is always a bin's lower edge, never an average of
//!   samples.
//!
//! Sketches enter the store as the `K`/`L` record kinds (see
//! `docs/store-format.md`) and are produced per grid point by folding
//! the exact skew sample stream that series capture records — so a
//! sketch is a pure derivation of the series
//! ([`SkewSketch::of_series`]), which is what lets a series record
//! satisfy a sketch-needing lookup and lets the store upgrade
//! sketch records to series records without losing information.

use crate::sweep::SweepSeries;
use wl_analysis::stats::round_half_away;

/// Quantization grid of the exact mean accumulator: 2⁴⁰ ticks per
/// second (one tick ≈ 0.91 ps). Chosen as a power of two so the
/// tick size is exactly representable and `x * TICKS_PER_SEC` is a
/// pure exponent shift for binary values.
pub const TICKS_PER_SEC: f64 = 1_099_511_627_776.0; // 2^40

/// Number of histogram bins per power of two (2³ — the top three
/// mantissa bits of the sample select the sub-bin). Eight per octave
/// keeps every occupied-bin list short enough that a sketch record
/// stays near 100 bytes once block-compressed, at ≤ 9.1 % relative bin
/// width — quantiles read from bin edges are at worst one bin low.
pub const BINS_PER_OCTAVE: u32 = 8;

/// Exclusive upper bound of the bin-index space: 11 exponent bits ×
/// 8 sub-bins. The +∞ bin (16376) is the overflow bin; NaN patterns
/// above it are never emitted ([`SkewSketch::observe`] routes
/// non-finite-ordered samples to [`SkewSketch::low`]).
pub const BIN_LIMIT: u32 = 2048 * BINS_PER_OCTAVE;

/// The fixed bin of a positive sample: its IEEE-754 bit pattern shifted
/// right 49 — exponent and top-3-mantissa, a monotone log-linear grid.
#[must_use]
fn bin_of(v: f64) -> u32 {
    debug_assert!(v > 0.0);
    (v.to_bits() >> 49) as u32
}

/// The exact lower edge of bin `idx` — the inverse of `bin_of` on
/// bin boundaries. Edges are exact binary numbers, so printing or
/// comparing them is deterministic.
#[must_use]
pub fn bin_lower_edge(idx: u32) -> f64 {
    f64::from_bits(u64::from(idx) << 49)
}

/// A deterministic, mergeable sketch of a skew sample stream.
///
/// All fields are public because the store serializes them canonically
/// (`cache/canon.rs` owns that grammar: its writer and `parse_sketch`
/// spell every field themselves). The struct maintains these
/// invariants, which the store parser re-checks on load
/// ([`SkewSketch::well_formed`]):
///
/// * `bin_idx` is strictly increasing, parallel to `bin_count`, with
///   every count nonzero and every index below [`BIN_LIMIT`];
/// * `count == low + Σ bin_count`.
///
/// # Examples
///
/// ```
/// use wl_harness::sketch::SkewSketch;
///
/// let mut all = SkewSketch::new();
/// let (mut a, mut b) = (SkewSketch::new(), SkewSketch::new());
/// for (i, v) in [1e-4, 3e-4, 2e-4, 9e-5].iter().enumerate() {
///     all.observe(*v);
///     if i % 2 == 0 { a.observe(*v) } else { b.observe(*v) }
/// }
/// a.merge(&b);
/// assert!(a.bit_identical(&all)); // merge == fold, byte for byte
/// assert_eq!(all.count, 4);
/// assert!((all.mean() - 1.725e-4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SkewSketch {
    /// Total samples folded (including the `low` ones).
    pub count: u64,
    /// Samples that fall below every bin: non-positive values (a skew
    /// of exactly 0 included) and NaN. Ranked below all bins by the
    /// quantile walk.
    pub low: u64,
    /// High 64 bits of the two's-complement 128-bit tick sum.
    pub sum_hi: u64,
    /// Low 64 bits of the 128-bit tick sum.
    pub sum_lo: u64,
    /// Largest sample under IEEE total order (`-inf` when empty).
    pub max: f64,
    /// Sparse histogram: strictly increasing bin indices (see
    /// [`bin_lower_edge`] for the grid).
    pub bin_idx: Vec<u32>,
    /// Occupancy of each bin in `bin_idx`, parallel, all nonzero.
    pub bin_count: Vec<u64>,
}

impl Default for SkewSketch {
    fn default() -> Self {
        Self::new()
    }
}

/// A sample's contribution to the exact mean: ticks of 2⁻⁴⁰ s,
/// round-half-away-from-zero with no libm call, saturating at the `i64`
/// range (±inf saturate; NaN contributes 0 — all deterministic `as`
/// casts).
fn quantize_ticks(v: f64) -> i64 {
    round_half_away(v * TICKS_PER_SEC) as i64
}

impl SkewSketch {
    /// The empty sketch — the identity of [`merge`](SkewSketch::merge).
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            low: 0,
            sum_hi: 0,
            sum_lo: 0,
            max: f64::NEG_INFINITY,
            bin_idx: Vec::new(),
            bin_count: Vec::new(),
        }
    }

    /// Folds the skew sample stream of a captured series — the exact
    /// `skew_values` samples a series record stores — into a sketch.
    /// This is *the* definition of a grid point's sketch: a sketch
    /// record and a series record of the same spec are consistent iff
    /// `of_series(series)` is bit-identical to the sketch, which is
    /// what the store's upgrade lattice checks. Each sample's bin is
    /// looked for first where the one before it landed (a skew stream
    /// moves slowly, so it usually stays in its bin).
    #[must_use]
    pub fn of_series(series: &SweepSeries) -> Self {
        let mut sketch = Self::new();
        let mut last = 0;
        for &v in &series.skew_values {
            sketch.fold(v, &mut last);
        }
        sketch
    }

    /// The 128-bit tick sum, reassembled.
    #[must_use]
    fn sum_ticks(&self) -> i128 {
        (i128::from(self.sum_hi as i64) << 64) | i128::from(self.sum_lo)
    }

    fn set_sum_ticks(&mut self, s: i128) {
        self.sum_hi = (s >> 64) as u64;
        self.sum_lo = s as u64;
    }

    /// Adds `n` to bin `idx`, inserting it if absent; returns its
    /// position in `bin_idx`.
    fn bump(&mut self, idx: u32, n: u64) -> usize {
        match self.bin_idx.binary_search(&idx) {
            Ok(i) => {
                self.bin_count[i] += n;
                i
            }
            Err(i) => {
                self.bin_idx.insert(i, idx);
                self.bin_count.insert(i, n);
                i
            }
        }
    }

    /// Adds one sample.
    pub fn observe(&mut self, v: f64) {
        self.fold(v, &mut 0);
    }

    /// The one body of [`observe`](SkewSketch::observe): adds `v`,
    /// trying the bin at position `*last` before searching, and leaves
    /// `*last` at the bin `v` landed in.
    pub(crate) fn fold(&mut self, v: f64, last: &mut usize) {
        self.count += 1;
        self.set_sum_ticks(self.sum_ticks() + i128::from(quantize_ticks(v)));
        if v.total_cmp(&self.max).is_gt() && !v.is_nan() {
            self.max = v;
        }
        if v > 0.0 {
            let idx = bin_of(v);
            if self.bin_idx.get(*last) == Some(&idx) {
                self.bin_count[*last] += 1;
            } else {
                *last = self.bump(idx, 1);
            }
        } else {
            self.low += 1;
        }
    }

    /// Adds every sample of `other`: counts, tick sums, and bins add;
    /// `max` takes the larger under total order. Associative and
    /// commutative with [`SkewSketch::new`] as identity, bit-for-bit
    /// (the merge-algebra proptests pin this).
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.low += other.low;
        self.set_sum_ticks(self.sum_ticks() + other.sum_ticks());
        if other.max.total_cmp(&self.max).is_gt() {
            self.max = other.max;
        }
        for (&idx, &n) in other.bin_idx.iter().zip(&other.bin_count) {
            self.bump(idx, n);
        }
    }

    /// The exact mean of the quantized samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        (self.sum_ticks() as f64) / TICKS_PER_SEC / (self.count as f64)
    }

    /// The `num/den` quantile as the lower edge of the bin holding the
    /// rank-`⌈q·count⌉` sample (0 when that rank falls among the `low`
    /// samples, or the sketch is empty). Deterministic: a pure integer
    /// walk over the bins.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    #[must_use]
    pub fn quantile(&self, num: u64, den: u64) -> f64 {
        assert!(den > 0, "quantile denominator must be nonzero");
        if self.count == 0 {
            return 0.0;
        }
        let rank_wide = (u128::from(self.count) * u128::from(num)).div_ceil(u128::from(den));
        let Ok(rank) = u64::try_from(rank_wide) else {
            return self.max;
        };
        if rank <= self.low {
            return 0.0;
        }
        let mut seen = self.low;
        for (&idx, &n) in self.bin_idx.iter().zip(&self.bin_count) {
            seen += n;
            if seen >= rank {
                return bin_lower_edge(idx);
            }
        }
        // Unreachable for a well-formed sketch (count == low + Σ bins);
        // degrade gracefully rather than panic on a hostile one.
        self.max
    }

    /// Median skew (lower bin edge).
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(1, 2)
    }

    /// 95th-percentile skew (lower bin edge).
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.quantile(19, 20)
    }

    /// 99th-percentile skew (lower bin edge).
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(99, 100)
    }

    /// Bit-level equality — floats by IEEE bit pattern, the same
    /// currency as [`crate::SweepOutcome::bit_identical`].
    #[must_use]
    pub fn bit_identical(&self, other: &Self) -> bool {
        self.count == other.count
            && self.low == other.low
            && self.sum_hi == other.sum_hi
            && self.sum_lo == other.sum_lo
            && self.max.to_bits() == other.max.to_bits()
            && self.bin_idx == other.bin_idx
            && self.bin_count == other.bin_count
    }

    /// Structural validity — what the store parser enforces beyond the
    /// grammar, so a corrupted or hand-tampered record cannot smuggle
    /// an inconsistent histogram into a merge.
    #[must_use]
    pub fn well_formed(&self) -> bool {
        self.bin_idx.len() == self.bin_count.len()
            && self.bin_idx.windows(2).all(|w| w[0] < w[1])
            && self.bin_idx.iter().all(|&i| i < BIN_LIMIT)
            && self.bin_count.iter().all(|&n| n > 0)
            && self
                .bin_count
                .iter()
                .try_fold(self.low, |acc, &n| acc.checked_add(n))
                == Some(self.count)
    }
}

// ---------------------------------------------------------------------------
// Fleet-level reporting over a whole store (the `sweep_stats` bin).
// ---------------------------------------------------------------------------

/// Streams every live record of a store into one fleet-level report:
/// per algorithm family, the merged skew-sample sketch (count, exact
/// mean, quantiles, max), the per-point `max_skew` maximum, and the
/// margin to Theorem 16's γ bound. Series records contribute their
/// derived sketch; scalar-only records contribute only their point
/// maximum. The output is a pure function of the store contents
/// (records iterate in canonical key order), so golden tests pin it
/// character-for-character.
#[must_use]
pub fn store_report(store: &crate::cache::SweepStore) -> String {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    #[derive(Default)]
    struct Family {
        points: usize,
        sketched: usize,
        derived: usize,
        scalar_only: usize,
        sketch: SkewSketch,
        point_max: f64,
        gamma: Option<f64>,
    }

    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    let mut total = 0usize;
    for (_hash, algo, spec_canon, outcome) in store.iter_records() {
        total += 1;
        let fam = match families.get_mut(algo) {
            Some(fam) => fam,
            None => families.entry(algo.to_string()).or_default(),
        };
        fam.points += 1;
        if fam.points == 1 {
            fam.point_max = f64::NEG_INFINITY;
        }
        if outcome.max_skew.total_cmp(&fam.point_max).is_gt() {
            fam.point_max = outcome.max_skew;
        }
        if let Some(g) = crate::cache::spec_gamma(spec_canon) {
            fam.gamma = Some(fam.gamma.map_or(g, |cur| cur.min(g)));
        }
        if let Some(sketch) = &outcome.sketch {
            fam.sketch.merge(sketch);
            fam.sketched += 1;
        } else if let Some(series) = &outcome.series {
            fam.sketch.merge(&SkewSketch::of_series(series));
            fam.derived += 1;
        } else {
            fam.scalar_only += 1;
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "sweep_stats: {total} record(s), {} family(ies)",
        families.len()
    );
    for (algo, fam) in &families {
        let _ = writeln!(
            out,
            "family {algo}: {} point(s) ({} sketched, {} series-derived, {} scalar-only)",
            fam.points, fam.sketched, fam.derived, fam.scalar_only
        );
        if fam.sketch.count > 0 {
            let _ = writeln!(
                out,
                "  skew samples {}: mean {:e} s, p50 {:e} s, p95 {:e} s, p99 {:e} s, max {:e} s",
                fam.sketch.count,
                fam.sketch.mean(),
                fam.sketch.p50(),
                fam.sketch.p95(),
                fam.sketch.p99(),
                fam.sketch.max,
            );
        }
        let _ = writeln!(out, "  point max_skew {:e} s", fam.point_max);
        match fam.gamma {
            Some(g) => {
                let _ = writeln!(
                    out,
                    "  gamma bound {:e} s, max/gamma {:.3}%",
                    g,
                    100.0 * fam.point_max / g
                );
            }
            None => {
                let _ = writeln!(out, "  gamma bound unavailable (no Params in spec canon)");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_is_merge_identity() {
        let mut s = SkewSketch::new();
        s.observe(1e-4);
        s.observe(2.5e-3);
        let mut left = SkewSketch::new();
        left.merge(&s);
        assert!(left.bit_identical(&s));
        let mut right = s.clone();
        right.merge(&SkewSketch::new());
        assert!(right.bit_identical(&s));
        assert!(SkewSketch::new().well_formed());
    }

    #[test]
    fn bins_are_monotone_with_exact_edges() {
        let values = [1e-9, 3.7e-6, 1e-4, 1.03e-4, 0.25, 1.0, 1e6];
        let mut last = 0;
        for v in values {
            let idx = bin_of(v);
            assert!(idx >= last, "bins must be monotone in the sample");
            last = idx;
            let edge = bin_lower_edge(idx);
            assert!(edge <= v, "{v} below its own bin edge {edge}");
            assert!(bin_lower_edge(idx + 1) > v, "{v} beyond its bin");
        }
        // +inf lands in the overflow bin, still inside the index space.
        assert!(bin_of(f64::INFINITY) < BIN_LIMIT);
        assert_eq!(bin_lower_edge(bin_of(f64::INFINITY)), f64::INFINITY);
    }

    #[test]
    fn quantiles_walk_the_histogram() {
        let mut s = SkewSketch::new();
        // 90 small samples, 10 large: p50 small, p95/p99 large.
        for _ in 0..90 {
            s.observe(1e-5);
        }
        for _ in 0..10 {
            s.observe(1e-2);
        }
        assert_eq!(s.count, 100);
        assert!(s.p50() <= 1e-5 && s.p50() > 0.5e-5);
        assert!(s.p95() <= 1e-2 && s.p95() > 0.5e-2);
        assert_eq!(s.p99(), s.p95());
        assert_eq!(s.max, 1e-2);
        // Quantile edges are at most one bin (≤ 9.1 % relative) low.
        assert!(s.p50() >= 1e-5 * (1.0 - 1.0 / 8.0) * 0.999);
    }

    #[test]
    fn nonpositive_and_nan_samples_rank_low() {
        let mut s = SkewSketch::new();
        s.observe(0.0);
        s.observe(-1.0);
        s.observe(f64::NAN);
        s.observe(2e-4);
        assert_eq!(s.low, 3);
        assert_eq!(s.count, 4);
        assert!(s.well_formed());
        assert_eq!(s.p50(), 0.0); // rank 2 falls among the low samples
        assert_eq!(s.p99(), bin_lower_edge(bin_of(2e-4)));
        assert_eq!(s.max, 2e-4); // NaN never becomes the max
    }

    #[test]
    fn mean_is_exact_in_ticks() {
        let mut s = SkewSketch::new();
        s.observe(1.0);
        s.observe(3.0);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        // Tick sum is an exact integer: 2^40 + 3·2^40.
        assert_eq!(s.sum_ticks(), 4 * 1_099_511_627_776i128);
    }

    #[test]
    fn of_series_folds_skew_values_only() {
        let series = SweepSeries {
            round_times: vec![9.0],
            round_skews: vec![9.0],
            skew_times: vec![0.0, 1.0, 2.0],
            skew_values: vec![1e-4, 2e-4, 3e-4],
            corr_procs: vec![],
            corr_times: vec![],
            corr_values: vec![],
        };
        let s = SkewSketch::of_series(&series);
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 3e-4);
        let mut manual = SkewSketch::new();
        for v in [1e-4, 2e-4, 3e-4] {
            manual.observe(v);
        }
        assert!(s.bit_identical(&manual));
    }

    #[test]
    fn well_formed_rejects_tampered_histograms() {
        let mut s = SkewSketch::new();
        s.observe(1e-4);
        s.observe(5e-4);
        assert!(s.well_formed());
        let mut bad = s.clone();
        bad.count += 1; // count no longer matches low + bins
        assert!(!bad.well_formed());
        let mut bad = s.clone();
        bad.bin_idx.reverse(); // indices no longer increasing
        assert!(!bad.well_formed());
        let mut bad = s.clone();
        bad.bin_count[0] = 0; // empty bin encoded explicitly
        bad.count -= 1;
        assert!(!bad.well_formed());
        let mut bad = s;
        bad.bin_idx[0] = BIN_LIMIT; // index beyond the bin space
        assert!(!bad.well_formed());
    }

    #[test]
    fn gamma_recovers_from_spec_canon() {
        let params = wl_core::Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
        let spec = crate::ScenarioSpec::new(params.clone());
        let canon = crate::cache::canon_string(&spec.canonical());
        let g = crate::cache::spec_gamma(&canon).expect("Params block parses");
        assert_eq!(g.to_bits(), wl_core::theory::gamma(&params).to_bits());
        assert_eq!(crate::cache::spec_gamma("no params here"), None);
    }

    /// The report as it read γ before `spec_gamma`: `store_report` and
    /// `gamma_of_spec` verbatim, the oracle the tests below hold the
    /// one-pass reader and the report built on it to.
    mod oracle {
        use crate::sketch::SkewSketch;

        pub fn store_report(store: &crate::cache::SweepStore) -> String {
            use std::collections::BTreeMap;
            use std::fmt::Write as _;

            #[derive(Default)]
            struct Family {
                points: usize,
                sketched: usize,
                derived: usize,
                scalar_only: usize,
                sketch: SkewSketch,
                point_max: f64,
                gamma: Option<f64>,
            }

            let mut families: BTreeMap<String, Family> = BTreeMap::new();
            let mut total = 0usize;
            for (_hash, algo, spec_canon, outcome) in store.iter_records() {
                total += 1;
                let fam = families.entry(algo.to_string()).or_default();
                fam.points += 1;
                if fam.points == 1 {
                    fam.point_max = f64::NEG_INFINITY;
                }
                if outcome.max_skew.total_cmp(&fam.point_max).is_gt() {
                    fam.point_max = outcome.max_skew;
                }
                if let Some(g) = gamma_of_spec(spec_canon) {
                    fam.gamma = Some(fam.gamma.map_or(g, |cur| cur.min(g)));
                }
                if let Some(sketch) = &outcome.sketch {
                    fam.sketch.merge(sketch);
                    fam.sketched += 1;
                } else if let Some(series) = &outcome.series {
                    fam.sketch.merge(&SkewSketch::of_series(series));
                    fam.derived += 1;
                } else {
                    fam.scalar_only += 1;
                }
            }

            let mut out = String::new();
            let _ = writeln!(
                out,
                "sweep_stats: {total} record(s), {} family(ies)",
                families.len()
            );
            for (algo, fam) in &families {
                let _ = writeln!(
                    out,
                    "family {algo}: {} point(s) ({} sketched, {} series-derived, {} scalar-only)",
                    fam.points, fam.sketched, fam.derived, fam.scalar_only
                );
                if fam.sketch.count > 0 {
                    let _ = writeln!(
                        out,
                        "  skew samples {}: mean {:e} s, p50 {:e} s, p95 {:e} s, p99 {:e} s, max {:e} s",
                        fam.sketch.count,
                        fam.sketch.mean(),
                        fam.sketch.p50(),
                        fam.sketch.p95(),
                        fam.sketch.p99(),
                        fam.sketch.max,
                    );
                }
                let _ = writeln!(out, "  point max_skew {:e} s", fam.point_max);
                match fam.gamma {
                    Some(g) => {
                        let _ = writeln!(
                            out,
                            "  gamma bound {:e} s, max/gamma {:.3}%",
                            g,
                            100.0 * fam.point_max / g
                        );
                    }
                    None => {
                        let _ =
                            writeln!(out, "  gamma bound unavailable (no Params in spec canon)");
                    }
                }
            }
            out
        }

        pub fn gamma_of_spec(spec_canon: &str) -> Option<f64> {
            let params = spec_canon.split_once("Params{")?.1;
            let field = |name: &str| -> Option<f64> {
                let pat = format!("{name}:x");
                let at = params.find(&pat)? + pat.len();
                let hex = params.get(at..at + 16)?;
                Some(f64::from_bits(u64::from_str_radix(hex, 16).ok()?))
            };
            let p = wl_core::Params {
                n: 4,
                f: 1,
                rho: field("rho")?,
                delta: field("delta")?,
                eps: field("eps")?,
                beta: field("beta")?,
                p_round: 1.0,
                t0: 1.0,
                avg: wl_core::AveragingFn::Midpoint,
                sigma: 0.0,
                exchanges: 1,
            };
            Some(wl_core::theory::gamma(&p))
        }
    }

    fn fixture(name: &str) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(name)
    }

    /// Every checked-in store fixture, opened.
    fn fixture_stores() -> Vec<crate::cache::SweepStore> {
        [
            "sketch-store.wlsb",
            "faulted-store.wlsb",
            "adversary-store.wlsb",
            "piecewise-store.wlsb",
            "series-store.wlsb",
        ]
        .into_iter()
        .map(|name| crate::cache::SweepStore::open(fixture(name)).expect("fixture opens"))
        .collect()
    }

    /// A path-less store over three `Params` blocks (n, f and ε all
    /// differ, so each block's γ differs) and three families, each
    /// block holding a scalar-only, a sketch and a series record per
    /// family, plus one adversarial point — 28 records.
    fn mixed_store() -> crate::cache::SweepStore {
        use crate::sweep::{derive_seed, SweepRequest};
        use crate::{
            AdversarySpec, AdversaryStrategy, Capture, LmCnv, Maintenance, ScenarioSpec,
            SrikanthToueg, SweepCache, SyncAlgorithm,
        };
        use wl_time::RealTime;

        fn run<A: SyncAlgorithm>(cache: &SweepCache, capture: Capture, specs: &[ScenarioSpec]) {
            let _ = SweepRequest::new()
                .threads(1)
                .cached(cache)
                .capture(capture)
                .run::<A>(specs.to_vec());
        }

        let blocks = [
            wl_core::Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap(),
            wl_core::Params::auto(5, 1, 1e-6, 0.010, 0.002).unwrap(),
            wl_core::Params::auto(7, 2, 1e-6, 0.010, 0.0005).unwrap(),
        ];
        let cache = SweepCache::new();
        for (i, capture) in [Capture::Scalar, Capture::Sketch, Capture::Series]
            .into_iter()
            .enumerate()
        {
            let specs: Vec<ScenarioSpec> = blocks
                .iter()
                .enumerate()
                .map(|(b, params)| {
                    ScenarioSpec::new(params.clone())
                        .seed(derive_seed(0xD1FF, (3 * i + b) as u64))
                        .t_end(RealTime::from_secs(1.5))
                })
                .collect();
            run::<Maintenance>(&cache, capture, &specs);
            run::<SrikanthToueg>(&cache, capture, &specs);
            run::<LmCnv>(&cache, capture, &specs);
        }
        let adversarial = ScenarioSpec::new(blocks[1].clone())
            .seed(derive_seed(0xD1FF, 9))
            .adversary(AdversarySpec::new(
                vec![wl_sim::ProcessId(0)],
                AdversaryStrategy::Mute,
            ))
            .t_end(RealTime::from_secs(1.5));
        run::<Maintenance>(&cache, Capture::Sketch, &[adversarial]);
        let mut store = crate::cache::SweepStore::new();
        store.absorb(&cache);
        store
    }

    #[test]
    fn store_report_matches_the_oracle() {
        let mixed = mixed_store();
        assert_eq!(mixed.len(), 28);
        assert_eq!(mixed.adversarial_len(), 1);
        let report = store_report(&mixed);
        for line in [
            "sweep_stats: 28 record(s), 3 family(ies)",
            "family LM-CNV: 9 point(s) (3 sketched, 3 series-derived, 3 scalar-only)",
            "family Srikanth-Toueg: 9 point(s) (3 sketched, 3 series-derived, 3 scalar-only)",
            "family Welch-Lynch: 10 point(s) (4 sketched, 3 series-derived, 3 scalar-only)",
        ] {
            assert!(report.contains(line), "{line}\n{report}");
        }
        // Each family's γ is the least of the three blocks' distinct γ
        // (positive floats order as their bits).
        let gammas: std::collections::BTreeSet<u64> = mixed
            .iter_records()
            .filter_map(|(_, _, spec, _)| crate::cache::spec_gamma(spec).map(f64::to_bits))
            .collect();
        assert_eq!(gammas.len(), 3);
        let least = f64::from_bits(*gammas.first().unwrap());
        let bound = format!("gamma bound {least:e} s,");
        assert_eq!(report.matches(&bound).count(), 3, "{report}");
        for store in std::iter::once(mixed).chain(fixture_stores()) {
            assert_eq!(store_report(&store), oracle::store_report(&store));
        }
    }

    /// Every spec canon a fixture holds: the stores' records and the
    /// grammar golden's spec lines (saturated specs, edge floats).
    fn fixture_spec_canons() -> Vec<String> {
        let golden = std::fs::read_to_string(fixture("canon.golden")).expect("canon golden");
        let stores = fixture_stores();
        let stored = stores
            .iter()
            .flat_map(|store| store.iter_records().map(|(_, _, spec, _)| spec.to_owned()));
        golden
            .lines()
            .filter(|line| line.starts_with("ScenarioSpec{"))
            .map(str::to_owned)
            .chain(stored)
            .collect()
    }

    /// `spec_gamma` is `None` or the oracle's value, as bits.
    fn agrees_or_refuses(canon: &str) -> bool {
        crate::cache::spec_gamma(canon)
            .is_none_or(|g| oracle::gamma_of_spec(canon).map(f64::to_bits) == Some(g.to_bits()))
    }

    #[test]
    fn spec_gamma_reads_what_the_oracle_reads() {
        let canons = fixture_spec_canons();
        assert!(canons.len() > 60);
        for canon in &canons {
            let new = crate::cache::spec_gamma(canon).map(f64::to_bits);
            assert!(new.is_some(), "{canon}");
            assert_eq!(
                new,
                oracle::gamma_of_spec(canon).map(f64::to_bits),
                "{canon}"
            );
        }
        // Damage: the grammar golden's default spec, its `n = 7` spec
        // and the last adversarial record the stores hold, each cut at
        // every length and with every byte replaced by each of the 256
        // values (a non-UTF-8 result is read lossily).
        let n7 = canons
            .iter()
            .find(|c| c.starts_with("ScenarioSpec{params:Params{n:7,"));
        let adversarial = canons
            .iter()
            .rev()
            .find(|c| crate::cache::spec_is_adversarial(c));
        for canon in [canons.first(), n7, adversarial].map(|c| c.expect("fixture canon")) {
            for cut in 0..canon.len() {
                assert!(agrees_or_refuses(&canon[..cut]), "cut at {cut}: {canon}");
            }
            let mut bytes = canon.clone().into_bytes();
            for at in 0..bytes.len() {
                let was = bytes[at];
                for b in 0..=u8::MAX {
                    bytes[at] = b;
                    let damaged = String::from_utf8_lossy(&bytes);
                    assert!(agrees_or_refuses(&damaged), "byte {at} = {b}: {damaged}");
                }
                bytes[at] = was;
            }
        }
    }
}
