//! The canonical text grammar's golden corpus.

#[cfg(test)]
mod tests {
    use crate::cache::canon_string;
    use crate::sketch::SkewSketch;
    use crate::spec::{AdversarySpec, AdversaryStrategy, DelayKind, FaultKind, ScenarioSpec};
    use crate::sweep::{derive_seed, SweepOutcome, SweepSeries};
    use wl_clock::drift::DriftModel;
    use wl_core::{AveragingFn, Params};
    use wl_sim::{ProcessId, SimStats};
    use wl_time::RealTime;

    /// Floats a decimal rendering would lose or conflate: NaN, −0.0, the
    /// smallest subnormal, both infinities.
    fn edge_floats() -> [f64; 5] {
        [
            f64::NAN,
            -0.0,
            f64::from_bits(1),
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]
    }

    /// The `i`-th draw of the corpus's seeded stream as a raw float bit
    /// pattern (any NaN payload, any exponent).
    fn seeded_float(stream: u64, i: u64) -> f64 {
        f64::from_bits(derive_seed(stream, i))
    }

    /// Specs hitting every variant of every enum in the spec grammar,
    /// both arms of every `Option`, empty and multi-entry vectors, the
    /// edge floats and the integer extremes.
    fn spec_corpus() -> Vec<ScenarioSpec> {
        let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
        let base = || ScenarioSpec::new(params.clone()).t_end(RealTime::from_secs(2.0));
        let mut specs = vec![base(), base().canonical()];

        for drift in [
            DriftModel::Ideal,
            DriftModel::EvenSpread { rho: 1e-6 },
            DriftModel::Split { rho: 2e-6 },
            DriftModel::RandomConstant { rho: 3e-6 },
            DriftModel::RandomPiecewise {
                rho: 4e-6,
                segment_secs: 0.25,
                horizon_secs: 2.0,
            },
        ] {
            specs.push(base().drift(drift));
        }
        for delay in [
            DelayKind::Constant,
            DelayKind::Uniform,
            DelayKind::AdversarialSplit,
            DelayKind::SharedMedium,
        ] {
            specs.push(base().delay(delay));
        }

        let faults = [
            FaultKind::CrashAt(1.5),
            FaultKind::Silent,
            FaultKind::RoundSpam,
            FaultKind::PullApart(0.002),
            FaultKind::PullApartHigh(0.0025),
            FaultKind::TwoFaced(0.003),
        ];
        for (i, &kind) in faults.iter().enumerate() {
            specs.push(base().fault(ProcessId(i), kind));
        }
        specs.push(
            faults
                .iter()
                .enumerate()
                .fold(base(), |spec, (i, &kind)| spec.fault(ProcessId(i), kind))
                .silent(&[ProcessId(6), ProcessId(7)]),
        );
        specs.push(base().rejoiner(ProcessId(3), RealTime::from_secs(0.75)));

        let strategies = [
            AdversaryStrategy::Crash { at: 1.5 },
            AdversaryStrategy::Mute,
            AdversaryStrategy::Spam,
            AdversaryStrategy::PullApart {
                amplitude: 0.002,
                high: false,
            },
            AdversaryStrategy::PullApart {
                amplitude: 0.002,
                high: true,
            },
            AdversaryStrategy::TwoFacedValue { amplitude: 0.003 },
            AdversaryStrategy::Collude { amplitude: 0.001 },
            AdversaryStrategy::Churn {
                up: 0.5,
                down: 0.25,
            },
            AdversaryStrategy::TargetedDelay { victim: 2 },
            AdversaryStrategy::Partition,
        ];
        for (i, &strategy) in strategies.iter().enumerate() {
            let members = (0..i % 3).map(ProcessId).collect();
            let adversary = AdversarySpec::new(members, strategy).seed(derive_seed(0xAD, i as u64));
            specs.push(base().adversary(adversary));
        }

        let mut mean = params.clone();
        mean.avg = AveragingFn::Mean;
        mean.sigma = 1e-4;
        mean.exchanges = 3;
        specs.push(ScenarioSpec::new(mean).trace(64).max_events(1_000_000));
        let startup = wl_core::StartupParams::new(7, 2, 0.2, 0.010, 0.001).unwrap();
        specs.push(ScenarioSpec::startup(&startup, 2.0).seed(5));

        // Every float field at every edge value, beside every integer
        // field at its extreme.
        for (i, x) in edge_floats().into_iter().enumerate() {
            let mut spec = base()
                .seed(u64::MAX)
                .t_end(RealTime::from_secs(x))
                .spread_frac(x)
                .drift(DriftModel::RandomPiecewise {
                    rho: x,
                    segment_secs: x,
                    horizon_secs: x,
                })
                .fault(ProcessId(usize::MAX), FaultKind::CrashAt(x))
                .fault(ProcessId(i), FaultKind::TwoFaced(x))
                .rejoiner(ProcessId(usize::MAX), RealTime::from_secs(x))
                .adversary(
                    AdversarySpec::new(
                        vec![ProcessId(usize::MAX), ProcessId(0)],
                        AdversaryStrategy::Churn { up: x, down: x },
                    )
                    .seed(u64::MAX),
                )
                .trace(usize::MAX)
                .max_events(u64::MAX);
            spec.initial_spread = x;
            spec.params = Params {
                n: usize::MAX,
                f: usize::MAX,
                rho: x,
                delta: x,
                eps: x,
                beta: x,
                p_round: x,
                t0: x,
                avg: AveragingFn::Mean,
                sigma: x,
                exchanges: usize::MAX,
            };
            specs.push(spec);
        }
        specs.push(base().adversary(AdversarySpec::new(
            vec![ProcessId(1)],
            AdversaryStrategy::TargetedDelay { victim: usize::MAX },
        )));

        // Seeded: every float a raw bit pattern off the stream.
        for s in 0..6u64 {
            let f = |i| seeded_float(0xC0_4057 + s, i);
            let mut spec = base()
                .seed(derive_seed(s, 0))
                .t_end(RealTime::from_secs(f(0)))
                .spread_frac(f(1))
                .drift(DriftModel::RandomPiecewise {
                    rho: f(2),
                    segment_secs: f(3),
                    horizon_secs: f(4),
                })
                .fault(ProcessId(s as usize), FaultKind::PullApart(f(5)))
                .fault(ProcessId(s as usize + 1), FaultKind::PullApartHigh(f(6)))
                .rejoiner(ProcessId(2), RealTime::from_secs(f(7)))
                .adversary(
                    AdversarySpec::new(
                        vec![ProcessId(0), ProcessId(s as usize)],
                        AdversaryStrategy::PullApart {
                            amplitude: f(8),
                            high: s % 2 == 0,
                        },
                    )
                    .seed(derive_seed(s, 1)),
                );
            spec.initial_spread = f(9);
            spec.params.rho = f(10);
            spec.params.beta = f(11);
            spec.params.p_round = f(12);
            specs.push(spec);
        }
        specs
    }

    fn scalar_outcome() -> SweepOutcome {
        SweepOutcome {
            index: 0,
            seed: 0xDEAD_BEEF,
            steady_skew: 1.25e-3,
            max_skew: -0.0,
            agreement_holds: true,
            max_abs_adjustment: f64::NAN,
            mean_abs_adjustment: 7.5e-4,
            adjustment_holds: false,
            stats: SimStats {
                events_delivered: 1,
                messages_sent: 20,
                timers_set: 300,
                timers_suppressed: 0,
            },
            sketch: None,
            series: None,
        }
    }

    fn series_payload() -> SweepSeries {
        SweepSeries {
            round_times: vec![1.0, 2.0],
            round_skews: vec![0.5, -0.0],
            skew_times: vec![0.0, 0.5, 1.0],
            skew_values: vec![1.0, f64::NAN, 0.25],
            corr_procs: vec![0, 3, u32::MAX],
            corr_times: vec![1.0, 1.5, f64::INFINITY],
            corr_values: vec![-0.125, 2.5e-3, f64::from_bits(1)],
        }
    }

    fn sketch_of(samples: impl IntoIterator<Item = f64>) -> SkewSketch {
        let mut sketch = SkewSketch::new();
        for v in samples {
            sketch.observe(v);
        }
        sketch
    }

    /// Outcomes of all three payload kinds: scalar, sketch (≥ 3 bins, so
    /// the delta coding of `bin_idx` shows) and series (non-empty and
    /// empty vectors), plus the edge floats, the integer extremes and
    /// seeded bit patterns.
    fn outcome_corpus() -> Vec<SweepOutcome> {
        let mut outcomes = vec![scalar_outcome()];
        outcomes.push(SweepOutcome {
            index: usize::MAX,
            seed: u64::MAX,
            stats: SimStats {
                events_delivered: u64::MAX,
                messages_sent: u64::MAX,
                timers_set: u64::MAX,
                timers_suppressed: u64::MAX,
            },
            ..scalar_outcome()
        });
        for x in edge_floats() {
            outcomes.push(SweepOutcome {
                steady_skew: x,
                max_skew: x,
                max_abs_adjustment: x,
                mean_abs_adjustment: x,
                agreement_holds: false,
                adjustment_holds: true,
                ..scalar_outcome()
            });
        }

        let wide = sketch_of([1e-6, 2e-6, 1e-4, 1.1e-4, 3e-3, 0.5, 0.0, f64::NAN, 4e9]);
        assert!(wide.bin_idx.len() >= 3 && wide.low == 2);
        for sketch in [
            SkewSketch::new(),
            sketch_of([2.5e-4]),
            wide,
            sketch_of((0..40u64).map(|i| seeded_float(0x5CE7, i).abs())),
            SkewSketch::of_series(&series_payload()),
        ] {
            outcomes.push(SweepOutcome {
                sketch: Some(sketch),
                ..scalar_outcome()
            });
        }

        let empty_series = SweepSeries {
            round_times: vec![],
            round_skews: vec![],
            skew_times: vec![],
            skew_values: vec![],
            corr_procs: vec![],
            corr_times: vec![],
            corr_values: vec![],
        };
        let seeded_series = SweepSeries {
            round_times: (0..3).map(|i| seeded_float(1, i)).collect(),
            round_skews: (0..3).map(|i| seeded_float(2, i)).collect(),
            skew_times: (0..5).map(|i| seeded_float(3, i)).collect(),
            skew_values: (0..5).map(|i| seeded_float(4, i)).collect(),
            corr_procs: (0..4).map(|i| derive_seed(5, i) as u32).collect(),
            corr_times: (0..4).map(|i| seeded_float(6, i)).collect(),
            corr_values: (0..4).map(|i| seeded_float(7, i)).collect(),
        };
        for series in [series_payload(), empty_series, seeded_series] {
            outcomes.push(SweepOutcome {
                series: Some(series),
                ..scalar_outcome()
            });
        }
        // The grammar allows both payloads at once, though no record
        // this crate stores carries both.
        outcomes.push(SweepOutcome {
            sketch: Some(SkewSketch::of_series(&series_payload())),
            series: Some(series_payload()),
            ..scalar_outcome()
        });
        outcomes
    }

    /// Strings through every escape (`\\`, `\"`, `\s`, `\n`, `\r`, `\t`)
    /// and past ASCII; the algorithm names records carry are plain.
    const STRING_CORPUS: [&str; 7] = [
        "",
        "welch-lynch",
        "a b\"c",
        "back\\slash",
        "tab\tnewline\nreturn\r",
        " \\s \" ",
        "ε ≤ δ — β",
    ];

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
}
