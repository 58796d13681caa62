//! The repo benchmark: five sweep-platform workloads, end-to-end metrics
//! with tracing off, and a traced per-layer breakdown with residuals.
//!
//! ```text
//! wl-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one result line
//! wl-benchmark [--trace] [--quick] [--json OUT]                all five, each in a child process
//! wl-benchmark --compare A.json B.json                         two result files against the bounds
//! ```
//!
//! See `benchmark/README.md` for what each workload and metric means.

#![forbid(unsafe_code)]

mod common;
mod compare;
mod grids;
mod json;
mod metrics;
mod stats;
mod trace;
mod workloads;

use common::{Ctx, Scratch, Sizes, Tally};
use json::Value;
use metrics::{Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 0x11;

/// Environment knobs of the program under test that would silently
/// change what a workload does (add a service tier, move the store,
/// resize the pool, change the format, assert a miss count).
const SCRUBBED_ENV: [&str; 5] = [
    "WL_SWEEP_SERVICE",
    "WL_SWEEP_CACHE_DIR",
    "WL_SWEEP_THREADS",
    "WL_SWEEP_FORMAT",
    "WL_SWEEP_EXPECT_MISSES",
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    json: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: wl-benchmark [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick] \
         [--json OUT]\n       wl-benchmark --compare A.json B.json\nworkloads:"
    );
    for w in &WORKLOADS {
        eprintln!("  {:<12} {}", w.name, w.why);
    }
    std::process::exit(2);
}

fn parse_seed(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Args {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        quick: false,
        json: None,
    };
    let mut seconds = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => out.workload = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--seed" => {
                out.seed = it
                    .next()
                    .and_then(|s| parse_seed(s))
                    .unwrap_or_else(|| usage());
            }
            "--seconds" => {
                seconds = Some(
                    it.next()
                        .and_then(|s| s.parse::<f64>().ok())
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage()),
                );
            }
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => out.quick = true,
            "--json" => out.json = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }
    out.seconds = seconds.unwrap_or(if out.quick { 0.5 } else { 10.0 });
    out
}

fn main() -> ExitCode {
    for name in SCRUBBED_ENV {
        std::env::remove_var(name);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--frontier-worker") => workloads::drive::worker_main(&args[1..]),
        Some("--compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare::main(a.as_ref(), b.as_ref()),
            _ => usage(),
        },
        _ => {
            let args = parse_args(&args);
            match &args.workload {
                Some(name) => run_one(name, &args),
                None => run_all(&args),
            }
        }
    }
}

/// One line of the human-readable table: workload, metric, value, unit.
fn metric_row(workload: &str, metric: &str, value: &Value) -> String {
    format!(
        "{workload:<12} {metric:<40} {:>16.4} {}",
        value.get("value").and_then(Value::as_f64).unwrap_or(0.0),
        value.get("unit").and_then(Value::as_str).unwrap_or("")
    )
}

/// Runs one workload in this process and prints its result line.
fn run_one(name: &str, args: &Args) -> ExitCode {
    if !WORKLOADS.iter().any(|w| w.name == name) {
        usage();
    }
    if name == "service_mix" {
        workloads::service::pin_to_one_cpu();
    }
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes: if args.quick {
            Sizes::quick()
        } else {
            Sizes::FULL
        },
        scratch: Scratch::create().expect("create the scratch directory under benchmark/out"),
        tally: Tally::default(),
        metrics: Metrics::default(),
        spans_out: PathBuf::from(format!("benchmark/out/spans-{name}.json")),
    };
    match name {
        "cold_sweep" => workloads::cold::run(&mut ctx),
        "warm_sweep" => workloads::warm::run(&mut ctx),
        "store_fold" => workloads::store::run(&mut ctx),
        "service_mix" => workloads::service::run(&mut ctx),
        "drive_2w" => workloads::drive::run(&mut ctx),
        _ => unreachable!("checked against WORKLOADS"),
    }
    let correct = ctx.tally.failed == 0;
    let metrics = if args.trace {
        ctx.metrics.per_layer()
    } else {
        ctx.metrics.end_to_end()
    };
    for (metric, value) in metrics.fields() {
        eprintln!("{}", metric_row(name, metric, value));
    }
    let result = Value::Obj(vec![
        ("correct".to_string(), Value::Bool(correct)),
        (
            "attempted".to_string(),
            Value::Num(ctx.tally.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Value::Num(ctx.tally.failed as f64)),
        ("metrics".to_string(), metrics),
    ]);
    // The scratch directory goes before the result line: whoever reads
    // the line may tear the checkout down at once.
    drop(ctx);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a fresh child process of this binary,
/// prints every metric by name and unit, and writes the results JSON.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this binary");
    let mut results = Vec::new();
    let mut ok = true;
    for workload in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        let output = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn workload child");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let parsed = stdout
            .lines()
            .last()
            .ok_or_else(|| "no result line".to_string())
            .and_then(json::parse);
        match parsed {
            Ok(result) => {
                ok &= output.status.success()
                    && result.get("correct").and_then(Value::as_bool) == Some(true);
                results.push((workload.name.to_string(), result));
            }
            Err(e) => {
                eprintln!("{}: {e} (exit {})", workload.name, output.status);
                ok = false;
            }
        }
    }

    let declared: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    println!(
        "# seed {:#x}, {} s per workload, tracing {}{}",
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" },
        if args.quick {
            ", QUICK: not comparable with anything"
        } else {
            ""
        }
    );
    for (name, result) in &results {
        let failed = result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        let attempted = result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(1.0);
        println!(
            "{name:<12} {:<40} {:>16.6} ratio   ({failed} of {attempted})",
            "failed_share",
            failed / attempted
        );
        for metric in &declared {
            let Some(value) = result.get("metrics").and_then(|m| m.get(metric)) else {
                continue;
            };
            println!("{}", metric_row(name, metric, value));
        }
    }
    if let Some(path) = &args.json {
        let doc = Value::Obj(vec![
            ("seed".to_string(), Value::Num(args.seed as f64)),
            ("seconds".to_string(), Value::Num(args.seconds)),
            ("trace".to_string(), Value::Bool(args.trace)),
            ("comparable".to_string(), Value::Bool(!args.quick)),
            ("workloads".to_string(), Value::Obj(results)),
        ]);
        std::fs::write(path, doc.render() + "\n").expect("write results JSON");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
