//! `--compare A.json B.json`: two result files of the full set, judged
//! against the bounds the benchmark fixes (the same ones `BENCHMARK.json`
//! states).
//!
//! Every workload × end-to-end metric is a row of its own; B may be worse
//! than A by at most the metric's bound. Two traced files hold per-layer
//! metrics instead; those are printed for information and never judged.

use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric(doc: &Value, workload: &str, name: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// By what share of `a` the value `b` is worse, given the direction in
/// which the metric improves. Negative when `b` is better.
pub fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    let delta = if better == "higher" { a - b } else { b - a };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

pub fn main(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match load(a_path).and_then(|a| Ok((a, load(b_path)?))) {
        Ok(docs) => docs,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let flag = |doc: &Value, key: &str| doc.get(key).and_then(Value::as_bool);
    for (doc, path) in [(&a, a_path), (&b, b_path)] {
        if flag(doc, "comparable") != Some(true) {
            eprintln!(
                "compare: {} is a --quick result and is not comparable",
                path.display()
            );
            return ExitCode::from(2);
        }
    }
    if flag(&a, "trace") != flag(&b, "trace") {
        eprintln!("compare: one file is traced and the other is not");
        return ExitCode::from(2);
    }
    let traced = flag(&a, "trace") == Some(true);
    let workloads = WORKLOADS.map(|w| w.name);

    let mut breaches = 0;
    let row = |workload: &str, name: &str, va: f64, vb: f64, worse: f64, verdict: &str| {
        println!(
            "{workload:<12} {name:<40} {va:>16.4} -> {vb:>16.4}  {:>+7.2} % worse  {verdict}",
            worse * 100.0
        );
    };
    for workload in workloads {
        if traced {
            for m in &PER_LAYER {
                let (va, vb) = (metric(&a, workload, m.name), metric(&b, workload, m.name));
                let (va, vb) = (va.unwrap_or(0.0), vb.unwrap_or(0.0));
                if va != 0.0 || vb != 0.0 {
                    row(workload, m.name, va, vb, worse_by(va, vb, m.better), "info");
                }
            }
            continue;
        }
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (metric(&a, workload, m.name), metric(&b, workload, m.name))
            else {
                println!("{workload:<12} {:<40} MISSING", m.name);
                breaches += 1;
                continue;
            };
            let worse = worse_by(va, vb, m.better);
            let verdict = if worse > m.bound {
                breaches += 1;
                format!("BREACH (bound {:.0} %)", m.bound * 100.0)
            } else {
                format!("ok (bound {:.0} %)", m.bound * 100.0)
            };
            row(workload, m.name, va, vb, worse, &verdict);
        }
    }
    for (doc, path) in [(&a, a_path), (&b, b_path)] {
        for workload in workloads {
            let failed = doc
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("failed"))
                .and_then(Value::as_f64);
            if failed != Some(0.0) {
                println!(
                    "{workload:<12} failed operations in {}: {failed:?}",
                    path.display()
                );
                breaches += 1;
            }
        }
    }
    if breaches == 0 {
        println!("compare: every workload x end-to-end metric within its bound");
        ExitCode::SUCCESS
    } else {
        println!("compare: {breaches} breach(es)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::worse_by;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, "lower"), 0.0);
        assert_eq!(worse_by(0.0, 1.0, "lower"), f64::INFINITY);
    }
}
