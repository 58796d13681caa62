//! Assembly pin: seven configurations assembled through [`assemble`] must
//! reproduce `tests/fixtures/assembly-traces.golden`, which holds per run
//! an FNV-1a-64 digest of the `Debug`-formatted trace (every send,
//! delivery, timer and correction, with exact times), the [`SimStats`]
//! counters and each process's correction-history length. The digests
//! were generated from the executions of the per-crate scenario assembly
//! that preceded `wl-harness`, which the harness matched byte for byte,
//! so a moved line means a moved execution. Whether an execution is the paper's is `wl-core`'s
//! `tests/reference.rs`. Regenerate after an intended change with
//! `WL_UPDATE_GOLDEN=1 cargo test -p wl-harness --test assembly_traces`.

use std::path::Path;
use wl_clock::drift::DriftModel;
use wl_core::{Params, StartupParams};
use wl_harness::{
    assemble, DelayKind, FaultKind, LmCnv, MahaneySchneider, Maintenance, Rejoiner, ScenarioSpec,
    SrikanthToueg, Startup, SyncAlgorithm,
};
use wl_sim::{ProcessId, SimOutcome, SimStats};
use wl_time::RealTime;

fn run<A: SyncAlgorithm>(spec: ScenarioSpec) -> SimOutcome {
    assemble::<A>(&spec.trace(2_000_000)).sim.run()
}

/// The runs of one configuration.
fn runs(name: &str) -> Vec<SimOutcome> {
    let p = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let p7 = Params::auto(7, 2, 1e-6, 0.010, 0.001).unwrap();
    let at = |p: &Params, seed, secs| {
        ScenarioSpec::new(p.clone())
            .seed(seed)
            .t_end(RealTime::from_secs(secs))
    };
    let spec = |seed, secs| at(&p, seed, secs);
    match name {
        "maintenance_across_seeds" => [1, 42, 1337]
            .map(|seed| run::<Maintenance>(spec(seed, 12.0)))
            .into(),
        "maintenance_with_fault_gallery" => vec![run::<Maintenance>(
            at(&p7, 9, 10.0)
                .fault(ProcessId(0), FaultKind::PullApart(p7.beta / 2.0))
                .fault(ProcessId(3), FaultKind::RoundSpam)
                .fault(ProcessId(5), FaultKind::CrashAt(6.0)),
        )],
        "maintenance_with_delay_and_drift_overrides" => vec![run::<Maintenance>(
            spec(77, 10.0)
                .drift(DriftModel::EvenSpread { rho: p.rho })
                .delay(DelayKind::AdversarialSplit)
                .spread_frac(0.95),
        )],
        "rejoiner" => vec![run::<Rejoiner>(
            spec(19, 20.0).rejoiner(ProcessId(3), RealTime::from_secs(7.3)),
        )],
        "startup" => {
            let sp = StartupParams::new(4, 1, 1e-6, 0.010, 0.001).unwrap();
            let cold = ScenarioSpec::startup(&sp, 5.0).t_end(RealTime::from_secs(8.0));
            [23, 99]
                .map(|seed| run::<Startup>(cold.clone().seed(seed).silent(&[ProcessId(3)])))
                .into()
        }
        "baselines_lm_cnv_ms_st" => {
            let silent = || spec(61, 10.0).silent(&[ProcessId(3)]);
            vec![
                run::<LmCnv>(silent()),
                run::<MahaneySchneider>(silent()),
                run::<SrikanthToueg>(silent()),
            ]
        }
        "baselines_under_attack" => {
            let attacked = |amp| spec(61, 10.0).fault(ProcessId(0), FaultKind::TwoFaced(amp));
            vec![
                run::<LmCnv>(attacked(1.9 * (p.beta + p.delta + p.eps))),
                run::<SrikanthToueg>(attacked(p.delta / 2.0)),
            ]
        }
        _ => unreachable!("no configuration {name}"),
    }
}

/// One run as `digest:events:sent:timers:suppressed:corr-lengths`.
fn describe(out: &SimOutcome) -> String {
    let trace = format!("{:?}", out.trace.events());
    assert_ne!(trace, "[]", "an empty trace pins nothing");
    let digest = trace.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let SimStats {
        events_delivered,
        messages_sent,
        timers_set,
        timers_suppressed,
    } = out.stats;
    let lens: Vec<String> = out
        .corr
        .iter()
        .map(|h| h.entries().len().to_string())
        .collect();
    format!(
        "{digest:016x}:{events_delivered}:{messages_sent}:{timers_set}:{timers_suppressed}:{}",
        lens.join(",")
    )
}

fn line(name: &str) -> String {
    let runs: Vec<String> = runs(name).iter().map(describe).collect();
    format!("{name} {}", runs.join(" "))
}

fn check(name: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/assembly-traces.golden");
    if std::env::var_os("WL_UPDATE_GOLDEN").is_some() {
        // Each test writes the whole file through a rename, so the
        // parallel writers cannot tear it.
        let all: String = NAMES.iter().map(|n| line(n) + "\n").collect();
        std::fs::write(path.with_extension(name), all).unwrap();
        std::fs::rename(path.with_extension(name), &path).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("assembly-traces.golden is missing");
    let want = golden.lines().find(|l| l.split(' ').next() == Some(name));
    assert_eq!(
        Some(line(name).as_str()),
        want,
        "{name}: the execution moved"
    );
}

/// One test per configuration; `NAMES` lists them in fixture order.
macro_rules! pinned {
    ($($name:ident),*) => {
        const NAMES: &[&str] = &[$(stringify!($name)),*];
        $(#[test]
        fn $name() {
            check(stringify!($name));
        })*
    };
}

pinned!(
    maintenance_across_seeds,
    maintenance_with_fault_gallery,
    maintenance_with_delay_and_drift_overrides,
    rejoiner,
    startup,
    baselines_lm_cnv_ms_st,
    baselines_under_attack
);
