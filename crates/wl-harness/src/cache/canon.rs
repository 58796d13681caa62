//! The canonical text grammar: its one writer and its one reader.
//!
//! Every string this crate keys on follows this grammar — the spec canon
//! a cache hit is confirmed against and the frontier's grid hash is taken
//! over, the outcome canon a store record and a wire frame carry, the
//! quoted algorithm name of a text store line — so the grammar is this
//! file's decision, not a by-product of how a struct is declared.
//! [`Canon`] is the writer, implemented for exactly the types that reach
//! a store, a hash or the wire; [`parse_outcome`] is the reader, and
//! accepts only what the writer emits. Changing a field means editing
//! its writer and reader here, bumping
//! [`ENGINE_VERSION`](super::ENGINE_VERSION) and regenerating
//! `tests/fixtures/canon.golden`; renaming or reordering the Rust field
//! alone moves no byte.
//!
//! The grammar (`docs/store-format.md` is normative) is deterministic
//! and machine-independent: structs are `Name{field:value,…}`, variants
//! `Name::Variant`, `Name::Variant(value)` or `Name::Variant{field:value,…}`,
//! newtypes `Name(value)`, tuples `(a,b)`, sequences `[a,b,…]`, options
//! `~` or `+value`, booleans `T` / `F`. Floats are bit-exact — `x` and
//! the sixteen lower-case hex digits of the IEEE pattern, so `-0.0`, NaN
//! payloads and every last ULP survive; integers are decimal with no
//! leading zero, so each value has one spelling; and nothing contains
//! whitespace (records embed these strings in space-separated lines; the
//! string escape maps ` ` to `\s`).

use crate::sketch::SkewSketch;
use crate::spec::{AdversarySpec, AdversaryStrategy, DelayKind, FaultKind, ScenarioSpec};
use crate::sweep::{SweepOutcome, SweepSeries};
use wl_clock::drift::DriftModel;
use wl_core::{AveragingFn, Params};
use wl_sim::{ProcessId, SimStats};
use wl_time::RealTime;

/// A value with a canonical text form (see the grammar in
/// `docs/store-format.md`).
pub trait Canon {
    /// Appends the canonical form of `self` to `out`.
    fn canon(&self, out: &mut String);
}

/// The canonical, machine-independent text form of `value` — what the
/// cache is keyed on, stores persist and the service sends.
#[must_use]
pub fn canon_string<T: Canon + ?Sized>(value: &T) -> String {
    // One allocation holds a spec canon (≈ 500 B), the string every
    // cache lookup writes; longer canons grow from there.
    let mut out = String::with_capacity(512);
    value.canon(&mut out);
    out
}

/// Appends `key` — a field's punctuation and name, spelled as the
/// reader's `eat` spells it — and then the field's value.
fn put<T: Canon + ?Sized>(out: &mut String, key: &str, value: &T) {
    out.push_str(key);
    value.canon(out);
}

// ---------------------------------------------------------------------------
// Primitives: writers, and the cursor that reads them back.
// ---------------------------------------------------------------------------

impl Canon for bool {
    fn canon(&self, out: &mut String) {
        out.push(if *self { 'T' } else { 'F' });
    }
}

/// Appends ASCII `digits` (every writer below builds them on the stack).
fn put_ascii(out: &mut String, digits: &[u8]) {
    out.push_str(std::str::from_utf8(digits).expect("ASCII digits"));
}

/// Decimal, no leading zero — `format!("{n}")`'s spelling, written
/// without `core::fmt` (pinned by `digits_are_fmts`).
impl Canon for u64 {
    fn canon(&self, out: &mut String) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = *self;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        put_ascii(out, &digits[at..]);
    }
}

impl Canon for u32 {
    fn canon(&self, out: &mut String) {
        u64::from(*self).canon(out);
    }
}

impl Canon for usize {
    fn canon(&self, out: &mut String) {
        (*self as u64).canon(out);
    }
}

/// `x` and the sixteen lower-case hex digits of the bit pattern —
/// `format!("x{:016x}", bits)`'s spelling, written without `core::fmt`.
impl Canon for f64 {
    fn canon(&self, out: &mut String) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let bits = self.to_bits();
        let mut text = [b'x'; 17];
        for (i, digit) in text[1..].iter_mut().enumerate() {
            *digit = HEX[(bits >> (60 - 4 * i)) as usize & 0xf];
        }
        put_ascii(out, &text);
    }
}

impl Canon for str {
    fn canon(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                ' ' => out.push_str("\\s"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Canon for String {
    fn canon(&self, out: &mut String) {
        self.as_str().canon(out);
    }
}

impl<T: Canon> Canon for Option<T> {
    fn canon(&self, out: &mut String) {
        match self {
            None => out.push('~'),
            Some(value) => put(out, "+", value),
        }
    }
}

impl<T: Canon + ?Sized> Canon for &T {
    fn canon(&self, out: &mut String) {
        (**self).canon(out);
    }
}

/// `[a,b,…]`.
fn put_seq(out: &mut String, values: impl IntoIterator<Item = impl Canon>) {
    out.push('[');
    for (i, value) in values.into_iter().enumerate() {
        put(out, if i == 0 { "" } else { "," }, &value);
    }
    out.push(']');
}

impl<T: Canon> Canon for [T] {
    fn canon(&self, out: &mut String) {
        put_seq(out, self);
    }
}

impl<A: Canon, B: Canon> Canon for (A, B) {
    fn canon(&self, out: &mut String) {
        put(out, "(", &self.0);
        put(out, ",", &self.1);
        out.push(')');
    }
}

/// The inverse of `str`'s writer: `None` on a missing quote, a dangling
/// backslash or an escape the writer never emits.
pub(super) fn unescape(s: &str) -> Option<String> {
    let inner = s.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            '"' => out.push('"'),
            's' => out.push(' '),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            _ => return None,
        }
    }
    Some(out)
}

/// Strict cursor over a canonical string: every `eat` states exactly what
/// the writer must have put next, and every token has one accepted
/// spelling — the writer's — so any drift between writer and parser
/// surfaces as `None` (→ a skipped record), never as a misread value,
/// and two records that parse alike are alike byte for byte.
struct Cursor<'a> {
    s: &'a str,
}

impl<'a> Cursor<'a> {
    fn eat(&mut self, prefix: &str) -> Option<()> {
        self.s = self.s.strip_prefix(prefix)?;
        Some(())
    }

    fn take_while(&mut self, pred: impl Fn(char) -> bool) -> &'a str {
        let end = self
            .s
            .char_indices()
            .find(|&(_, c)| !pred(c))
            .map_or(self.s.len(), |(i, _)| i);
        let (head, tail) = self.s.split_at(end);
        self.s = tail;
        head
    }

    /// A decimal integer as the writer spells it: no leading zero.
    fn u64_dec(&mut self) -> Option<u64> {
        let digits = self.take_while(|c| c.is_ascii_digit());
        if digits.len() > 1 && digits.starts_with('0') {
            return None;
        }
        digits.parse().ok()
    }

    fn u32_dec(&mut self) -> Option<u32> {
        u32::try_from(self.u64_dec()?).ok()
    }

    /// `x` and sixteen hex digits as the writer spells them: lower case.
    fn f64_bits(&mut self) -> Option<f64> {
        self.eat("x")?;
        let hex = self.take_while(|c| matches!(c, '0'..='9' | 'a'..='f'));
        if hex.len() != 16 {
            return None;
        }
        Some(f64::from_bits(u64::from_str_radix(hex, 16).ok()?))
    }

    fn boolean(&mut self) -> Option<bool> {
        match self.take_while(|c| c == 'T' || c == 'F') {
            "T" => Some(true),
            "F" => Some(false),
            _ => None,
        }
    }

    /// `~`, or `+` and what `some` parses.
    fn option<T>(&mut self, some: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        if self.eat("~").is_some() {
            return Some(None);
        }
        self.eat("+")?;
        some(self).map(Some)
    }

    /// A `[a,b,c]` sequence, elements parsed by `elem`.
    fn seq<T>(&mut self, mut elem: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.eat("[")?;
        let mut out = Vec::new();
        if self.eat("]").is_some() {
            return Some(out);
        }
        loop {
            out.push(elem(self)?);
            if self.eat("]").is_some() {
                return Some(out);
            }
            self.eat(",")?;
        }
    }
}

// ---------------------------------------------------------------------------
// The spec grammar. Write-only: a spec canon is compared and hashed,
// never parsed (the wire carries specs in `service.rs`'s binary codec).
// ---------------------------------------------------------------------------

impl Canon for ScenarioSpec {
    fn canon(&self, out: &mut String) {
        put(out, "ScenarioSpec{params:", &self.params);
        put(out, ",drift:", &self.drift);
        put(out, ",delay:", &self.delay);
        put(out, ",seed:", &self.seed);
        put(out, ",t_end:", &self.t_end);
        put(out, ",spread_frac:", &self.spread_frac);
        put(out, ",faults:", &self.faults[..]);
        put(out, ",rejoiner:", &self.rejoiner);
        put(out, ",adversary:", &self.adversary);
        put(out, ",trace_capacity:", &self.trace_capacity);
        put(out, ",max_events:", &self.max_events);
        put(out, ",initial_spread:", &self.initial_spread);
        out.push('}');
    }
}

/// Whether a canonical spec string describes an adversarial scenario.
///
/// The canonical grammar is space-free and escapes every string, the
/// spec has no free-form string fields, and `adversary` is a unique
/// field name, so the `adversary:+` prefix of a populated
/// `Option<AdversarySpec>` appears in a spec canon *iff* the spec
/// carries an adversary block. This is the store's adversary dimension:
/// it selects between the `R`/`S` and `A`/`B` record tags without
/// parsing the spec.
#[must_use]
pub fn spec_is_adversarial(spec_canon: &str) -> bool {
    spec_canon.contains("adversary:+")
}

impl Canon for Params {
    fn canon(&self, out: &mut String) {
        put(out, "Params{n:", &self.n);
        put(out, ",f:", &self.f);
        put(out, ",rho:", &self.rho);
        put(out, ",delta:", &self.delta);
        put(out, ",eps:", &self.eps);
        put(out, ",beta:", &self.beta);
        put(out, ",p_round:", &self.p_round);
        put(out, ",t0:", &self.t0);
        put(out, ",avg:", &self.avg);
        put(out, ",sigma:", &self.sigma);
        put(out, ",exchanges:", &self.exchanges);
        out.push('}');
    }
}

impl Canon for AveragingFn {
    fn canon(&self, out: &mut String) {
        out.push_str(match self {
            Self::Midpoint => "AveragingFn::Midpoint",
            Self::Mean => "AveragingFn::Mean",
        });
    }
}

impl Canon for DriftModel {
    fn canon(&self, out: &mut String) {
        match self {
            Self::Ideal => return out.push_str("DriftModel::Ideal"),
            Self::EvenSpread { rho } => put(out, "DriftModel::EvenSpread{rho:", rho),
            Self::Split { rho } => put(out, "DriftModel::Split{rho:", rho),
            Self::RandomConstant { rho } => put(out, "DriftModel::RandomConstant{rho:", rho),
            Self::RandomPiecewise {
                rho,
                segment_secs,
                horizon_secs,
            } => {
                put(out, "DriftModel::RandomPiecewise{rho:", rho);
                put(out, ",segment_secs:", segment_secs);
                put(out, ",horizon_secs:", horizon_secs);
            }
        }
        out.push('}');
    }
}

impl Canon for DelayKind {
    fn canon(&self, out: &mut String) {
        out.push_str(match self {
            Self::Constant => "DelayKind::Constant",
            Self::Uniform => "DelayKind::Uniform",
            Self::AdversarialSplit => "DelayKind::AdversarialSplit",
            Self::SharedMedium => "DelayKind::SharedMedium",
        });
    }
}

impl Canon for FaultKind {
    fn canon(&self, out: &mut String) {
        match self {
            Self::CrashAt(at) => put(out, "FaultKind::CrashAt(", at),
            Self::Silent => return out.push_str("FaultKind::Silent"),
            Self::RoundSpam => return out.push_str("FaultKind::RoundSpam"),
            Self::PullApart(amplitude) => put(out, "FaultKind::PullApart(", amplitude),
            Self::PullApartHigh(amplitude) => put(out, "FaultKind::PullApartHigh(", amplitude),
            Self::TwoFaced(amplitude) => put(out, "FaultKind::TwoFaced(", amplitude),
        }
        out.push(')');
    }
}

impl Canon for AdversarySpec {
    fn canon(&self, out: &mut String) {
        put(out, "AdversarySpec{members:", &self.members[..]);
        put(out, ",strategy:", &self.strategy);
        put(out, ",seed:", &self.seed);
        out.push('}');
    }
}

impl Canon for AdversaryStrategy {
    fn canon(&self, out: &mut String) {
        match self {
            Self::Crash { at } => put(out, "AdversaryStrategy::Crash{at:", at),
            Self::Mute => return out.push_str("AdversaryStrategy::Mute"),
            Self::Spam => return out.push_str("AdversaryStrategy::Spam"),
            Self::PullApart { amplitude, high } => {
                put(out, "AdversaryStrategy::PullApart{amplitude:", amplitude);
                put(out, ",high:", high);
            }
            Self::TwoFacedValue { amplitude } => {
                put(
                    out,
                    "AdversaryStrategy::TwoFacedValue{amplitude:",
                    amplitude,
                );
            }
            Self::Collude { amplitude } => {
                put(out, "AdversaryStrategy::Collude{amplitude:", amplitude);
            }
            Self::Churn { up, down } => {
                put(out, "AdversaryStrategy::Churn{up:", up);
                put(out, ",down:", down);
            }
            Self::TargetedDelay { victim } => {
                put(out, "AdversaryStrategy::TargetedDelay{victim:", victim);
            }
            Self::Partition => return out.push_str("AdversaryStrategy::Partition"),
        }
        out.push('}');
    }
}

impl Canon for ProcessId {
    fn canon(&self, out: &mut String) {
        put(out, "ProcessId(", &self.0);
        out.push(')');
    }
}

impl Canon for RealTime {
    fn canon(&self, out: &mut String) {
        put(out, "RealTime(", &self.as_secs());
        out.push(')');
    }
}

// ---------------------------------------------------------------------------
// The outcome grammar: each writer above its reader.
// ---------------------------------------------------------------------------

impl Canon for SimStats {
    fn canon(&self, out: &mut String) {
        put(out, "SimStats{events_delivered:", &self.events_delivered);
        put(out, ",messages_sent:", &self.messages_sent);
        put(out, ",timers_set:", &self.timers_set);
        put(out, ",timers_suppressed:", &self.timers_suppressed);
        out.push('}');
    }
}

fn parse_stats(c: &mut Cursor<'_>) -> Option<SimStats> {
    c.eat("SimStats{events_delivered:")?;
    let events_delivered = c.u64_dec()?;
    c.eat(",messages_sent:")?;
    let messages_sent = c.u64_dec()?;
    c.eat(",timers_set:")?;
    let timers_set = c.u64_dec()?;
    c.eat(",timers_suppressed:")?;
    let timers_suppressed = c.u64_dec()?;
    c.eat("}")?;
    Some(SimStats {
        events_delivered,
        messages_sent,
        timers_set,
        timers_suppressed,
    })
}

/// **Delta-coded** bin indices: the first `bin_idx` element is written
/// verbatim, every later one as the gap to its predecessor. Occupied
/// bins cluster tightly (a typical skew distribution spans a handful of
/// octaves), so the gaps are small integers regardless of where on the
/// bin grid the mass sits — shorter digit strings in the canon and far
/// better match locality for the packed-segment compressor.
impl Canon for SkewSketch {
    fn canon(&self, out: &mut String) {
        put(out, "SkewSketch{count:", &self.count);
        put(out, ",low:", &self.low);
        put(out, ",sum_hi:", &self.sum_hi);
        put(out, ",sum_lo:", &self.sum_lo);
        put(out, ",max:", &self.max);
        out.push_str(",bin_idx:");
        let gaps = self.bin_idx.iter().scan(0, |prev, &idx| {
            let gap = idx - *prev;
            *prev = idx;
            Some(gap)
        });
        put_seq(out, gaps);
        put(out, ",bin_count:", &self.bin_count[..]);
        out.push('}');
    }
}

/// The payload of `K`/`L`-tagged records. Rejects structurally invalid
/// histograms ([`SkewSketch::well_formed`]) so a tampered record cannot
/// reach the merge arithmetic.
fn parse_sketch(c: &mut Cursor<'_>) -> Option<SkewSketch> {
    c.eat("SkewSketch{count:")?;
    let count = c.u64_dec()?;
    c.eat(",low:")?;
    let low = c.u64_dec()?;
    c.eat(",sum_hi:")?;
    let sum_hi = c.u64_dec()?;
    c.eat(",sum_lo:")?;
    let sum_lo = c.u64_dec()?;
    c.eat(",max:")?;
    let max = c.f64_bits()?;
    c.eat(",bin_idx:")?;
    // Undo the deltas so `well_formed` checks the real histogram.
    // Overflow means a tampered record: reject.
    let mut bin_idx = c.seq(Cursor::u32_dec)?;
    for i in 1..bin_idx.len() {
        bin_idx[i] = bin_idx[i - 1].checked_add(bin_idx[i])?;
    }
    c.eat(",bin_count:")?;
    let bin_count = c.seq(Cursor::u64_dec)?;
    c.eat("}")?;
    let sketch = SkewSketch {
        count,
        low,
        sum_hi,
        sum_lo,
        max,
        bin_idx,
        bin_count,
    };
    sketch.well_formed().then_some(sketch)
}

impl Canon for SweepSeries {
    fn canon(&self, out: &mut String) {
        put(out, "SweepSeries{round_times:", &self.round_times[..]);
        put(out, ",round_skews:", &self.round_skews[..]);
        put(out, ",skew_times:", &self.skew_times[..]);
        put(out, ",skew_values:", &self.skew_values[..]);
        put(out, ",corr_procs:", &self.corr_procs[..]);
        put(out, ",corr_times:", &self.corr_times[..]);
        put(out, ",corr_values:", &self.corr_values[..]);
        out.push('}');
    }
}

/// The payload of `S`/`B`-tagged records.
fn parse_series(c: &mut Cursor<'_>) -> Option<SweepSeries> {
    c.eat("SweepSeries{round_times:")?;
    let round_times = c.seq(Cursor::f64_bits)?;
    c.eat(",round_skews:")?;
    let round_skews = c.seq(Cursor::f64_bits)?;
    c.eat(",skew_times:")?;
    let skew_times = c.seq(Cursor::f64_bits)?;
    c.eat(",skew_values:")?;
    let skew_values = c.seq(Cursor::f64_bits)?;
    c.eat(",corr_procs:")?;
    let corr_procs = c.seq(Cursor::u32_dec)?;
    c.eat(",corr_times:")?;
    let corr_times = c.seq(Cursor::f64_bits)?;
    c.eat(",corr_values:")?;
    let corr_values = c.seq(Cursor::f64_bits)?;
    c.eat("}")?;
    Some(SweepSeries {
        round_times,
        round_skews,
        skew_times,
        skew_values,
        corr_procs,
        corr_times,
        corr_values,
    })
}

/// The optional payloads come last, `sketch` before `series`:
/// `scalar_half` splits at the first of them.
impl Canon for SweepOutcome {
    fn canon(&self, out: &mut String) {
        put(out, "SweepOutcome{index:", &self.index);
        put(out, ",seed:", &self.seed);
        put(out, ",steady_skew:", &self.steady_skew);
        put(out, ",max_skew:", &self.max_skew);
        put(out, ",agreement_holds:", &self.agreement_holds);
        put(out, ",max_abs_adjustment:", &self.max_abs_adjustment);
        put(out, ",mean_abs_adjustment:", &self.mean_abs_adjustment);
        put(out, ",adjustment_holds:", &self.adjustment_holds);
        put(out, ",stats:", &self.stats);
        put(out, ",sketch:", &self.sketch);
        put(out, ",series:", &self.series);
        out.push('}');
    }
}

/// Parses an outcome canon: `Some` exactly for the strings the writer
/// above emits (so `canon_string(&parsed)` is the input, byte for byte).
/// Its one caller outside the tests is `Record::admit`.
pub(super) fn parse_outcome(s: &str) -> Option<SweepOutcome> {
    let mut c = Cursor { s };
    c.eat("SweepOutcome{index:")?;
    let index = c.u64_dec()?;
    c.eat(",seed:")?;
    let seed = c.u64_dec()?;
    c.eat(",steady_skew:")?;
    let steady_skew = c.f64_bits()?;
    c.eat(",max_skew:")?;
    let max_skew = c.f64_bits()?;
    c.eat(",agreement_holds:")?;
    let agreement_holds = c.boolean()?;
    c.eat(",max_abs_adjustment:")?;
    let max_abs_adjustment = c.f64_bits()?;
    c.eat(",mean_abs_adjustment:")?;
    let mean_abs_adjustment = c.f64_bits()?;
    c.eat(",adjustment_holds:")?;
    let adjustment_holds = c.boolean()?;
    c.eat(",stats:")?;
    let stats = parse_stats(&mut c)?;
    c.eat(",sketch:")?;
    let sketch = c.option(parse_sketch)?;
    c.eat(",series:")?;
    let series = c.option(parse_series)?;
    c.eat("}")?;
    if !c.s.is_empty() {
        return None;
    }
    Some(SweepOutcome {
        index: usize::try_from(index).ok()?,
        seed,
        steady_skew,
        max_skew,
        agreement_holds,
        max_abs_adjustment,
        mean_abs_adjustment,
        adjustment_holds,
        stats,
        sketch,
        series,
    })
}

/// An outcome canon up to its optional payloads, the "scalar half".
pub(super) fn scalar_half(outcome_canon: &str) -> &str {
    outcome_canon
        .split_once(",sketch:")
        .map_or(outcome_canon, |(scalar, _)| scalar)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::derive_seed;

    /// Floats a decimal rendering would lose or conflate: NaN, −0.0, the
    /// smallest subnormal, both infinities.
    const EDGE_FLOATS: [f64; 5] = [
        f64::NAN,
        -0.0,
        f64::from_bits(1),
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    /// The `i`-th draw of a seeded stream as a raw float bit pattern
    /// (any NaN payload, any exponent).
    fn seeded_float(stream: u64, i: u64) -> f64 {
        f64::from_bits(derive_seed(stream, i))
    }

    fn base() -> ScenarioSpec {
        let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
        ScenarioSpec::new(params).t_end(RealTime::from_secs(2.0))
    }

    /// A spec with both `Option`s populated and multi-entry vectors,
    /// every float field drawn from `f` and every integer field `int`.
    fn saturated_spec(f: impl Fn(u64) -> f64, int: u64) -> ScenarioSpec {
        let id = ProcessId(int as usize);
        let churn = AdversaryStrategy::Churn {
            up: f(8),
            down: f(9),
        };
        let mut spec = base()
            .seed(int)
            .t_end(RealTime::from_secs(f(0)))
            .spread_frac(f(1))
            .drift(DriftModel::RandomPiecewise {
                rho: f(2),
                segment_secs: f(3),
                horizon_secs: f(4),
            })
            .fault(id, FaultKind::CrashAt(f(5)))
            .fault(ProcessId(0), FaultKind::TwoFaced(f(6)))
            .rejoiner(id, RealTime::from_secs(f(7)))
            .adversary(AdversarySpec::new(vec![id, ProcessId(0)], churn).seed(int))
            .trace(int as usize)
            .max_events(int);
        spec.initial_spread = f(10);
        spec.params = Params {
            n: int as usize,
            f: int as usize,
            rho: f(11),
            delta: f(12),
            eps: f(13),
            beta: f(14),
            p_round: f(15),
            t0: f(16),
            avg: AveragingFn::Mean,
            sigma: f(17),
            exchanges: int as usize,
        };
        spec
    }

    /// Specs hitting every variant of every enum in the spec grammar,
    /// both arms of every `Option`, empty, single- and multi-entry
    /// vectors, the edge floats, the integer extremes and seeded bit
    /// patterns.
    fn spec_corpus() -> Vec<ScenarioSpec> {
        let mut specs = vec![base(), base().canonical()];
        let drifts = [
            DriftModel::Ideal,
            DriftModel::EvenSpread { rho: 1e-6 },
            DriftModel::Split { rho: 2e-6 },
            DriftModel::RandomConstant { rho: 3e-6 },
        ];
        specs.extend(drifts.map(|drift| base().drift(drift)));
        let delays = [
            DelayKind::Constant,
            DelayKind::Uniform,
            DelayKind::AdversarialSplit,
            DelayKind::SharedMedium,
        ];
        specs.extend(delays.map(|delay| base().delay(delay)));
        let faults = [
            FaultKind::CrashAt(1.5),
            FaultKind::Silent,
            FaultKind::RoundSpam,
            FaultKind::PullApart(0.002),
            FaultKind::PullApartHigh(0.0025),
            FaultKind::TwoFaced(0.003),
        ];
        let faulty = |spec: ScenarioSpec, (i, &kind)| spec.fault(ProcessId(i), kind);
        specs.push(faults.iter().enumerate().fold(base(), faulty));
        specs.push(base().silent(&[ProcessId(3)]));
        let strategies = [
            AdversaryStrategy::Crash { at: 1.5 },
            AdversaryStrategy::Mute,
            AdversaryStrategy::Spam,
            AdversaryStrategy::PullApart {
                amplitude: 0.002,
                high: true,
            },
            AdversaryStrategy::TwoFacedValue { amplitude: 0.003 },
            AdversaryStrategy::Collude { amplitude: 0.001 },
            AdversaryStrategy::TargetedDelay { victim: usize::MAX },
            AdversaryStrategy::Partition,
        ];
        for (i, strategy) in strategies.into_iter().enumerate() {
            let members = (0..i % 3).map(ProcessId).collect();
            specs.push(base().adversary(AdversarySpec::new(members, strategy)));
        }
        let startup = wl_core::StartupParams::new(7, 2, 0.2, 0.010, 0.001).unwrap();
        specs.push(ScenarioSpec::startup(&startup, 2.0).seed(5));
        specs.extend(EDGE_FLOATS.map(|x| saturated_spec(|_| x, u64::MAX)));
        specs.extend((0..6).map(|s| saturated_spec(|i| seeded_float(s, i), derive_seed(s, 99))));
        specs
    }

    /// A scalar outcome, every float field drawn from `f` and every
    /// integer field `int`.
    fn scalar(f: impl Fn(u64) -> f64, int: u64) -> SweepOutcome {
        SweepOutcome {
            index: int as usize,
            seed: int,
            steady_skew: f(0),
            max_skew: f(1),
            agreement_holds: int.is_multiple_of(2),
            max_abs_adjustment: f(2),
            mean_abs_adjustment: f(3),
            adjustment_holds: !int.is_multiple_of(2),
            stats: SimStats {
                events_delivered: int,
                messages_sent: int / 10,
                timers_set: int / 100,
                timers_suppressed: int / 1000,
            },
            sketch: None,
            series: None,
        }
    }

    fn series(f: impl Fn(u64) -> f64, len: u64) -> SweepSeries {
        let column = |c: u64| (0..len).map(|i| f(7 * i + c)).collect::<Vec<f64>>();
        SweepSeries {
            round_times: column(0),
            round_skews: column(1),
            skew_times: column(2),
            skew_values: column(3),
            corr_procs: (0..len).map(|i| (f(i).to_bits() >> 7) as u32).collect(),
            corr_times: column(4),
            corr_values: column(5),
        }
    }

    fn sketch_of(samples: impl IntoIterator<Item = f64>) -> SkewSketch {
        let mut sketch = SkewSketch::new();
        samples.into_iter().for_each(|v| sketch.observe(v));
        sketch
    }

    /// Outcomes of all three payload kinds — scalar, sketch (≥ 3 bins, so
    /// the delta coding of `bin_idx` shows) and series (empty and
    /// non-empty vectors) — over plain values, the edge floats, the
    /// integer extremes and seeded bit patterns.
    fn outcome_corpus() -> Vec<SweepOutcome> {
        let plain = |i| 1.25e-3 / (i + 1) as f64;
        let edge = |i| EDGE_FLOATS[i as usize % 5];
        let mut outcomes = vec![scalar(plain, 0), scalar(plain, 1234)];
        outcomes.extend(EDGE_FLOATS.map(|x| scalar(|_| x, u64::MAX)));
        outcomes.extend((0..4).map(|s| scalar(|i| seeded_float(s, i), derive_seed(s, 99))));

        let wide = sketch_of([1e-6, 2e-6, 1e-4, 1.1e-4, 3e-3, 0.5, 0.0, f64::NAN, 4e9]);
        assert!(wide.bin_idx.len() >= 3 && wide.low == 2);
        let sketches = [
            SkewSketch::new(),
            sketch_of([2.5e-4]),
            wide,
            sketch_of((0..40).map(|i| seeded_float(0x5CE7, i).abs())),
        ];
        outcomes.extend(sketches.map(|sketch| SweepOutcome {
            sketch: Some(sketch),
            ..scalar(plain, 0)
        }));
        let serieses = [
            series(plain, 3),
            series(plain, 0),
            series(edge, 5),
            series(|i| seeded_float(0x5E71E5, i), 4),
        ];
        outcomes.extend(serieses.map(|series| SweepOutcome {
            series: Some(series),
            ..scalar(plain, 0)
        }));
        // The grammar allows both payloads at once, though no record
        // this crate stores carries both.
        outcomes.push(SweepOutcome {
            sketch: Some(SkewSketch::of_series(&series(plain, 3))),
            series: Some(series(plain, 3)),
            ..scalar(plain, 0)
        });
        outcomes
    }

    /// Strings through every escape (`\\`, `\"`, `\s`, `\n`, `\r`, `\t`)
    /// and past ASCII, beside the plain names records carry.
    const STRING_CORPUS: [&str; 6] = [
        "",
        "welch-lynch",
        "a b\"c",
        "tab\tnewline\nreturn\r",
        " \\s \" ",
        "ε ≤ δ — β",
    ];

    /// The hand-written digit writers spell every value as `core::fmt`
    /// does: decimal integers at every digit-count boundary, and float
    /// bit patterns across signs, infinities, NaN payloads, subnormals
    /// and 100 000 seeded draws.
    #[test]
    fn digits_are_fmts() {
        let powers = (0..20).map(|e| 10u64.pow(e));
        let boundaries = powers.flat_map(|p| [p - 1, p, p + 1]);
        for n in [0, 9, 10, u64::MAX - 1, u64::MAX]
            .into_iter()
            .chain(boundaries)
        {
            assert_eq!(canon_string(&n), format!("{n}"));
        }
        for n in [0, 7, u32::MAX] {
            assert_eq!(canon_string(&n), format!("{n}"));
        }
        assert_eq!(canon_string(&usize::MAX), format!("{}", usize::MAX));

        let named = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001), // quiet NaN, payload 1
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
            f64::from_bits(0xfff4_0000_dead_beef), // signalling, negative
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1.0,
        ];
        let seeded = (0..100_000).map(|i| seeded_float(0xD161, i));
        for x in named.into_iter().chain(seeded) {
            let bits = x.to_bits();
            assert_eq!(canon_string(&x), format!("x{bits:016x}"), "{bits:#x}");
        }
    }

    fn outcome_canons() -> Vec<String> {
        outcome_corpus().iter().map(canon_string).collect()
    }

    /// The whole corpus rendered, one canon per line — the content of
    /// `tests/fixtures/canon.golden`.
    fn rendered_corpus() -> String {
        let specs = spec_corpus();
        let lines = specs
            .iter()
            .map(canon_string)
            .chain(outcome_canons())
            .chain(STRING_CORPUS.iter().map(|s| canon_string(*s)));
        lines.fold(String::new(), |text, line| text + &line + "\n")
    }

    #[test]
    fn corpus_is_the_checked_in_golden() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/canon.golden");
        let text = rendered_corpus();
        if std::env::var("WL_UPDATE_GOLDEN").is_ok() {
            std::fs::write(path, &text).unwrap();
        }
        let golden = std::fs::read_to_string(path).expect("checked-in corpus");
        let differing = (1..)
            .zip(golden.lines().zip(text.lines()))
            .find(|(_, (g, t))| g != t);
        assert!(
            golden == text,
            "the canonical grammar drifted from tests/fixtures/canon.golden \
             ({} lines against {} rendered), first at line {differing:?} \
             (every store, hash and wire byte follows this grammar: an intended change \
             bumps ENGINE_VERSION, then WL_UPDATE_GOLDEN=1 cargo test -p wl-harness --lib canon)",
            golden.lines().count(),
            text.lines().count(),
        );
    }

    /// The reader accepts only what the writer emits: every truncation
    /// and every one-byte substitution of a corpus outcome either fails
    /// to parse or is itself canonical.
    #[test]
    fn reader_accepts_only_what_the_writer_emits() {
        let check = |mutant: &str| {
            if let Some(parsed) = parse_outcome(mutant) {
                assert_eq!(canon_string(&parsed), mutant, "accepted a second spelling");
            }
        };
        for canon in outcome_canons() {
            let parsed = parse_outcome(&canon).expect("the writer's own output parses");
            assert_eq!(canon_string(&parsed), canon);
            for cut in 0..canon.len() {
                check(&canon[..cut]);
            }
            for at in 0..canon.len() {
                for sub in "09aFx,:{}~+".chars() {
                    let mut mutant = canon.clone();
                    mutant.replace_range(at..=at, sub.encode_utf8(&mut [0; 4]));
                    check(&mutant);
                }
            }
        }
    }
}
