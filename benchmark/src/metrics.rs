//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repo root states the
//! same lists; a unit test keeps the two identical.

use crate::json::Value;
use std::collections::BTreeMap;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "cold_sweep",
        why: "cold mixed grid simulated to a saved store: event loop, theorem checks and capture do the work, the store layers almost none",
    },
    Workload {
        name: "warm_sweep",
        why: "zero simulations over a stored grid: spec canon + hash, tier lookup and segment decode do all the work",
    },
    Workload {
        name: "store_fold",
        why: "four shard stores opened, merged, reported and re-saved: the store codec's reads beside its writes, and bytes per point",
    },
    Workload {
        name: "service_mix",
        why: "warm gets, batch gets and put batches against the in-process results server: frame codec, socket round trip and checkpoints",
    },
    Workload {
        name: "drive_2w",
        why: "two subprocess workers over a frontier at default chunking: claims, per-chunk checkpoints, spawn, poll and harvest merge",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these with tracing off.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "points_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "load_points_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "save_points_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "store_bytes_per_point",
        unit: "B",
        better: "lower",
        bound: 0.03,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every workload reports every one of these with tracing on; a metric
/// whose layer is not on the workload's path reads 0 there.
pub const PER_LAYER: [PerLayer; 99] = [
    layer("spec.canon_us", "us", "lower"),
    layer("spec.hash_us", "us", "lower"),
    layer("spec.canon_bytes", "B", "lower"),
    layer("spec.wire_encode_us", "us", "lower"),
    layer("spec.wire_decode_us", "us", "lower"),
    layer("sweep.warm_point_us", "us", "lower"),
    layer("sweep.lookup_self_us", "us", "lower"),
    layer("sweep.hits", "count", "higher"),
    layer("sweep.misses", "count", "lower"),
    layer("sweep.points_mono", "count", "higher"),
    layer("sweep.points_enum", "count", "lower"),
    layer("sweep.points_boxed", "count", "lower"),
    layer("sweep.threads2_ratio", "ratio", "higher"),
    layer("assemble.mono_us", "us", "lower"),
    layer("assemble.enum_us", "us", "lower"),
    layer("assemble.boxed_us", "us", "lower"),
    layer("sim.events", "count", "lower"),
    layer("sim.drive_null_us", "us", "lower"),
    layer("sim.null_mev_per_s", "Mev/s", "higher"),
    layer("sim.observed_mev_per_s.mono", "Mev/s", "higher"),
    layer("sim.observed_mev_per_s.enum", "Mev/s", "higher"),
    layer("sim.observed_mev_per_s.boxed", "Mev/s", "higher"),
    layer("sim.observed_mev_per_s.lm_cnv", "Mev/s", "higher"),
    layer("sim.observed_mev_per_s.srikanth_toueg", "Mev/s", "higher"),
    layer("run.summary_us", "us", "lower"),
    layer("run.summarize_self_us", "us", "lower"),
    layer("run.capture_us", "us", "lower"),
    layer("run.capture_self_us", "us", "lower"),
    layer("sketch.of_series_us", "us", "lower"),
    layer("sketch.samples", "count", "lower"),
    layer("sketch.merge_us", "us", "lower"),
    layer("sketch.report_us", "us", "lower"),
    layer("cache.absorb_us", "us", "lower"),
    layer("cache.absorb_growth_ratio", "ratio", "lower"),
    layer("cache.save_us", "us", "lower"),
    layer("cache.save_text_us", "us", "lower"),
    layer("cache.open_us", "us", "lower"),
    layer("cache.hydrate_us", "us", "lower"),
    layer("cache.merge_us", "us", "lower"),
    layer("cache.checkpoint_us", "us", "lower"),
    layer("cache.bytes_written", "B", "lower"),
    layer("cache.write_amp", "ratio", "lower"),
    layer("cache.persist_noop_us", "us", "lower"),
    layer("segment.encode_us", "us", "lower"),
    layer("segment.decode_us", "us", "lower"),
    layer("segment.pack_us", "us", "lower"),
    layer("segment.unpack_us", "us", "lower"),
    layer("segment.read_us", "us", "lower"),
    layer("segment.plain_bytes_per_record", "B", "lower"),
    layer("segment.packed_bytes_per_record", "B", "lower"),
    layer("wlz.compress_mb_per_s", "MB/s", "higher"),
    layer("wlz.decompress_mb_per_s", "MB/s", "higher"),
    layer("wlz.hex_pack_mb_per_s", "MB/s", "higher"),
    layer("wlz.hex_unpack_mb_per_s", "MB/s", "higher"),
    layer("wlz.ratio", "ratio", "higher"),
    layer("service.encode_request_us", "us", "lower"),
    layer("service.decode_request_us", "us", "lower"),
    layer("service.encode_response_us", "us", "lower"),
    layer("service.decode_response_us", "us", "lower"),
    layer("service.echo_us_p50", "us", "lower"),
    layer("service.stats_us_p50", "us", "lower"),
    layer("service.get_us_p50", "us", "lower"),
    layer("service.get_us_p99", "us", "lower"),
    layer("service.get_us_p999", "us", "lower"),
    layer("service.get_self_us", "us", "lower"),
    layer("service.batch_us_p50", "us", "lower"),
    layer("service.put_batch_us_p50", "us", "lower"),
    layer("service.request_bytes", "B", "lower"),
    layer("service.response_bytes", "B", "lower"),
    layer("service.requests", "count", "lower"),
    layer("service.warm_hits", "count", "higher"),
    layer("service.simulated", "count", "lower"),
    layer("service.puts", "count", "lower"),
    layer("service.put_checkpoint_bytes", "B", "lower"),
    layer("service.local_ratio", "ratio", "lower"),
    layer("frontier.init_us_per_chunk", "us", "lower"),
    layer("frontier.claim_complete_us", "us", "lower"),
    layer("frontier.chunks", "count", "lower"),
    layer("frontier.worker_point_us.chunk4", "us", "lower"),
    layer("frontier.worker_point_us.chunk256", "us", "lower"),
    layer("frontier.worker_overhead_ratio", "ratio", "lower"),
    layer("transport.drive_wall_s", "s", "lower"),
    layer("transport.small_drive_s", "s", "lower"),
    layer("transport.harvest_merge_s", "s", "lower"),
    layer("transport.scaleout_ratio", "ratio", "higher"),
    layer("transport.restarts", "count", "lower"),
    layer("transport.requeued", "count", "lower"),
    layer("transport.stores_merged", "count", "lower"),
    layer("residual.cold_us", "us", "lower"),
    layer("residual.cold_share", "ratio", "lower"),
    layer("residual.warm_us", "us", "lower"),
    layer("residual.warm_share", "ratio", "lower"),
    layer("residual.service_us", "us", "lower"),
    layer("residual.service_share", "ratio", "lower"),
    layer("residual.drive_s", "s", "lower"),
    layer("residual.drive_share", "ratio", "lower"),
    layer("machine.speed_factor", "ratio", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
    layer("trace.spans", "count", "lower"),
];

/// Values measured by one run, checked against the vocabulary above.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// # Panics
    ///
    /// Panics on a name that is in neither list: a typo would otherwise
    /// silently drop the measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "metric `{name}` is not in the benchmark's vocabulary"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of an untraced run: every end-to-end metric.
    ///
    /// # Panics
    ///
    /// Panics if the workload left one unmeasured.
    pub fn end_to_end(&self) -> Value {
        Value::Obj(
            END_TO_END
                .iter()
                .map(|m| {
                    let value = self.get(m.name).unwrap_or_else(|| {
                        panic!("end-to-end metric `{}` was not measured", m.name)
                    });
                    (m.name.to_string(), metric_value(value, m.unit))
                })
                .collect(),
        )
    }

    /// The `metrics` object of a traced run: every per-layer metric,
    /// 0 for layers off this workload's path.
    pub fn per_layer(&self) -> Value {
        Value::Obj(
            PER_LAYER
                .iter()
                .map(|m| {
                    let value = self.get(m.name).unwrap_or(0.0);
                    (m.name.to_string(), metric_value(value, m.unit))
                })
                .collect(),
        )
    }
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::Obj(vec![
        ("value".to_string(), Value::Num(value)),
        ("unit".to_string(), Value::Str(unit.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn names(list: &Value) -> Vec<String> {
        list.items()
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    /// The results a run prints carry exactly the names, units,
    /// directions and bounds `BENCHMARK.json` declares.
    #[test]
    fn vocabulary_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");

        let workloads = doc.get("workloads").unwrap();
        assert_eq!(
            names(workloads),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (declared, ours) in workloads.items().iter().zip(&WORKLOADS) {
            assert_eq!(declared.get("why").and_then(Value::as_str), Some(ours.why));
        }

        let e2e = doc.get("end_to_end").unwrap();
        assert_eq!(
            names(e2e),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (declared, ours) in e2e.items().iter().zip(&END_TO_END) {
            assert_eq!(
                declared.get("unit").and_then(Value::as_str),
                Some(ours.unit)
            );
            assert_eq!(
                declared.get("better").and_then(Value::as_str),
                Some(ours.better)
            );
            assert_eq!(
                declared.get("bound").and_then(Value::as_f64),
                Some(ours.bound)
            );
        }

        let layers = doc.get("per_layer").unwrap();
        assert_eq!(
            names(layers),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (declared, ours) in layers.items().iter().zip(&PER_LAYER) {
            assert_eq!(
                declared.get("unit").and_then(Value::as_str),
                Some(ours.unit)
            );
            assert_eq!(
                declared.get("better").and_then(Value::as_str),
                Some(ours.better)
            );
        }
    }

    #[test]
    fn printed_metric_sets_carry_every_declared_name() {
        let mut m = Metrics::default();
        for e in &END_TO_END {
            m.set(e.name, 1.5);
        }
        m.set("sim.events", 12.0);
        assert_eq!(m.end_to_end().fields().len(), END_TO_END.len());
        let layers = m.per_layer();
        assert_eq!(layers.fields().len(), PER_LAYER.len());
        assert_eq!(
            layers
                .get("sim.events")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(12.0)
        );
        assert_eq!(
            layers
                .get("wlz.ratio")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
