//! Metric names, units and the one-line JSON result.
//!
//! The tables here are the benchmark's contract: every run prints every
//! end-to-end metric (untraced runs) or every per-layer metric (traced
//! runs), by name and unit, and `BENCHMARK.json` lists the same names.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("modeled_ms", "ms_modeled"),
    ("peak_heap_bytes", "B"),
    ("slo_frac", "fraction"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.im2col_ms", "ms"),
    ("qgemm.gemm_tile_ms", "ms"),
    ("qgemm.pack_b_ms", "ms"),
    ("qgemm.gemm_share", "fraction"),
    ("conv_arm.reshape_ms", "ms"),
    ("arm.conv_ms", "ms"),
    ("arm.host_over_modeled", "ratio"),
    ("arm.prepack_hit_rate", "fraction"),
    ("arm.workspace_bytes", "B"),
    ("executor.self_ms", "ms"),
    ("executor.requant_ms", "ms"),
    ("executor.allocs_per_run", "count"),
    ("executor.alloc_bytes_per_run", "B"),
    ("executor.arena_bytes", "B"),
    ("executor.heap_over_arena", "ratio"),
    ("planner.compile_ms", "ms"),
    ("verify.plan_ms", "ms"),
    ("neon_sim.rank_ms", "ms"),
    ("gpu.conv_ms", "ms"),
    ("gpu.estimate_ms", "ms"),
    ("serve.route_ms", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.batch_form_ms_p50", "ms"),
    ("serve.compile_ms_p99", "ms"),
    ("serve.execute_ms_p50", "ms"),
    ("serve.execute_ms_p99", "ms"),
    ("serve.batch_mean", "requests"),
    ("serve.batches", "count"),
    ("serve.plan_cache_hit_rate", "fraction"),
    ("serve.gpu_share", "fraction"),
    ("serve.queue_full", "count"),
    ("serve.gen_late_ms_max", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("host.calib_ms", "ms"),
    ("host.latency_p50_raw_ms", "ms"),
    ("fail_frac", "fraction"),
];

/// What one run measured. Host times are already in reference-speed units
/// unless the metric's name says `raw` or it lives under `host.`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (edge: executor runs) attempted in the measured phases.
    pub attempted: u64,
    /// Errors, rejections and output mismatches among them, plus any
    /// failed set-up check.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line for the metric table `table`. Fails if a metric of
    /// the table was not measured or is not a finite number.
    pub fn json_line(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let v = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}
