//! Shared argument layer for the sweep CLIs.
//!
//! `sweep_drive`, `sweep_shard`, and `sweep_serve` each grew their own
//! hand-rolled flag loops, and the flags they share — `--format`
//! (`sweep_shard --migrate` only), `--compact`, `--chunk`, `--capture` —
//! drifted in spelling, error text, and help strings. This module owns those:
//! every mode names the shared flags it honours and routes its flags
//! through [`CommonArgs::take`] first, so a shared flag parses
//! identically and rejects bad values with identical messages wherever
//! it means something, falls through to the binary's own `usage()`
//! wherever it does not, and is advertised by [`common_usage`] exactly
//! where it is accepted.

use wl_harness::run::agreement_window;
use wl_harness::{Capture, ScenarioSpec, StoreFormat};

/// The shared flags with their usage fragments, in advertised order.
const SHARED: [(&str, &str); 4] = [
    ("--format", "[--format text|binary]"),
    ("--compact", "[--compact]"),
    ("--chunk", "[--chunk C]"),
    ("--capture", "[--capture scalar|sketch|series]"),
];

/// The usage fragment for the shared flags a mode honours — splice into
/// that mode's usage line so help text cannot drift from what
/// [`CommonArgs::take`] accepts there.
#[must_use]
pub fn common_usage(honoured: &[&str]) -> String {
    let fragments: Vec<&str> = SHARED
        .iter()
        .filter(|(flag, _)| honoured.contains(flag))
        .map(|&(_, fragment)| fragment)
        .collect();
    fragments.join(" ")
}

/// Shared flags in their parsed form. `None` means "not given" — each
/// binary applies its own default.
#[derive(Debug, Default, Clone)]
pub struct CommonArgs {
    /// `--format text|binary`: the layout `--migrate` writes.
    pub format: Option<StoreFormat>,
    /// `--compact`: rewrite stores canonically after the run.
    pub compact: bool,
    /// `--chunk C`: frontier chunk size in grid points; `None` lets the
    /// driver size it to the fleet.
    pub chunk: Option<usize>,
    /// `--capture scalar|sketch|series`: what each grid point records.
    pub capture: Option<Capture>,
}

impl CommonArgs {
    /// Tries to consume `flag` (and its value, if it takes one) from
    /// the iterator. Returns `true` when the flag is a shared flag this
    /// mode `honoured`; the caller's match loop handles everything else
    /// — a shared flag the mode does not read included, so it ends in
    /// `usage()` instead of being silently ignored. Bad values exit 2
    /// with a uniform message.
    pub fn take(
        &mut self,
        honoured: &[&str],
        flag: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> bool {
        if !honoured.contains(&flag) {
            return false;
        }
        match flag {
            "--format" => self.format = Some(require("--format", it.next())),
            "--compact" => self.compact = true,
            "--chunk" => {
                let chunk: std::num::NonZeroUsize = require("--chunk", it.next());
                self.chunk = Some(chunk.get());
            }
            "--capture" => self.capture = Some(require("--capture", it.next())),
            _ => return false,
        }
        true
    }

    /// The chosen capture mode, or [`Capture::Scalar`].
    #[must_use]
    pub fn capture(&self) -> Capture {
        self.capture.unwrap_or(Capture::Scalar)
    }
}

/// Parses a required flag value, exiting 2 with a uniform message when
/// it is missing or malformed — the error surface every sweep CLI
/// shares.
pub fn require<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> T {
    let Some(raw) = v else {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    };
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse {raw:?}");
        std::process::exit(2);
    })
}

/// The demo grid at the horizon a `--t-end` flag asked for. A horizon
/// too short for the agreement window is a refused flag value — exit 2
/// naming the minimum — not a panic inside a sweep worker.
#[must_use]
pub fn demo_grid_at(size: usize, t_end: f64) -> Vec<ScenarioSpec> {
    let grid = crate::demo_grid_t(size, t_end);
    for spec in &grid {
        if let Err(refusal) = agreement_window(&spec.params, t_end) {
            eprintln!("--t-end: {refusal}");
            std::process::exit(2);
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &[&str] = &["--format", "--compact", "--chunk", "--capture"];

    fn scan(honoured: &[&str], args: &[&str]) -> (CommonArgs, Vec<String>) {
        let owned: Vec<String> = args.iter().map(ToString::to_string).collect();
        let mut common = CommonArgs::default();
        let mut rest = Vec::new();
        let mut it = owned.iter();
        while let Some(flag) = it.next() {
            if !common.take(honoured, flag, &mut it) {
                rest.push(flag.clone());
            }
        }
        (common, rest)
    }

    #[test]
    fn shared_flags_parse_and_pass_through_the_rest() {
        let (common, rest) = scan(
            ALL,
            &[
                "--grid",
                "--format",
                "binary",
                "--compact",
                "--chunk",
                "8",
                "--capture",
                "sketch",
                "--store",
            ],
        );
        assert_eq!(common.format, Some(StoreFormat::Binary));
        assert!(common.compact);
        assert_eq!(common.chunk, Some(8));
        assert_eq!(common.capture, Some(Capture::Sketch));
        assert_eq!(rest, ["--grid", "--store"]);
    }

    #[test]
    fn defaults_apply_when_flags_absent() {
        let (common, rest) = scan(ALL, &[]);
        assert_eq!(common.format, None);
        assert_eq!(common.chunk, None);
        assert_eq!(common.capture(), Capture::Scalar);
        assert!(!common.compact);
        assert!(rest.is_empty());
    }

    /// The six call sites' flag sets: a shared flag is parsed where
    /// the mode honours it, handed back (to reach `usage()`) where it
    /// does not, and advertised exactly where it is parsed. `--format`
    /// is `--migrate`'s alone.
    #[test]
    fn each_mode_takes_and_advertises_only_what_it_honours() {
        let modes: [(&str, &[&str]); 6] = [
            (
                "sweep_drive --workers",
                &["--compact", "--chunk", "--capture"],
            ),
            ("sweep_drive --frontier-worker", &["--capture"]),
            ("sweep_shard --shard", &["--compact", "--capture"]),
            ("sweep_shard --merge", &[]),
            ("sweep_shard --migrate", &["--format", "--compact"]),
            ("sweep_serve", &[]),
        ];
        type Parsed = fn(&CommonArgs) -> bool;
        let given: [(&str, &str, Parsed); 4] = [
            ("--format", "binary", |c| {
                c.format == Some(StoreFormat::Binary)
            }),
            ("--compact", "", |c| c.compact),
            ("--chunk", "8", |c| c.chunk == Some(8)),
            ("--capture", "sketch", |c| {
                c.capture == Some(Capture::Sketch)
            }),
        ];
        for (mode, honoured) in modes {
            let usage = common_usage(honoured);
            for (flag, value, parsed) in given {
                let (common, rest) = scan(honoured, &[flag, value]);
                let honours = honoured.contains(&flag);
                assert_eq!(parsed(&common), honours, "{mode}: {flag} parsed");
                assert_eq!(
                    rest.first().is_some_and(|r| r == flag),
                    !honours,
                    "{mode}: {flag} returned"
                );
                assert_eq!(usage.contains(flag), honours, "{mode}: {flag} advertised");
            }
        }
    }
}
