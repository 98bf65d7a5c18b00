//! The metric catalogue and the result line. The names and units here are
//! the ones `BENCHMARK.json` declares; `perfbench/layers.json` records
//! which end-to-end metric and workload each layer metric should move.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload (`--trace 0`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Endpoints the serve-side layer metrics are split by.
pub const ENDPOINTS: [&str; 4] = ["repair", "explain", "put", "mutate"];

/// Every per-layer metric with its unit (`--trace 1`). A layer that a
/// workload never calls reads 0 there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("core.fdr_parse_ms", "ms"),
        ("core.conflict_scan_ms", "ms"),
        ("core.table_free_ms", "ms"),
        ("core.rss_per_row_bytes", "bytes"),
        ("graph.components_ms", "ms"),
        ("graph.component_count", "count"),
        ("graph.largest_component", "count"),
        ("srepair.sharded_ms", "ms"),
        ("urepair.solve_ms", "ms"),
        ("engine.plan_us", "us"),
        ("engine.solve_ms", "ms"),
        ("engine.report_build_ms", "ms"),
        ("engine.serialize_ms", "ms"),
        ("engine.report_free_ms", "ms"),
        ("engine.report_bytes", "bytes"),
        ("engine.wire_parse_us", "us"),
        ("engine.table_doc_parse_ms", "ms"),
        ("engine.mutate_parse_us", "us"),
        ("engine.fingerprint_ms", "ms"),
        ("engine.session_new_ms", "ms"),
        ("engine.session_apply_us", "us"),
        ("engine.session_report_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for stage in ["ttfb_us", "queue_wait_us", "solve_us", "unaccounted_us"] {
        for endpoint in ENDPOINTS {
            out.push((format!("serve.{stage}.{endpoint}.p50"), "us"));
        }
        if stage != "unaccounted_us" {
            for endpoint in ["repair", "mutate"] {
                out.push((format!("serve.{stage}.{endpoint}.tail"), "us"));
            }
        }
    }
    for endpoint in ENDPOINTS {
        out.push((format!("serve.bytes_in_per_op.{endpoint}"), "bytes"));
        out.push((format!("serve.bytes_out_per_op.{endpoint}"), "bytes"));
    }
    for (name, unit) in [
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.coalesced", "count"),
        ("serve.fast_path_share", "ratio"),
        ("serve.queue_rejected", "count"),
        ("trace.coverage", "ratio"),
        ("trace.overhead_ms", "ms"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Timed operations attempted and failed (non-2xx, refused or reset
    /// connection, non-zero exit, or an output that differs from the
    /// in-process expectation).
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result: the workload's own
    /// metric names (`cli_wall_s`, `put_ms`, …), sample counts, coverage.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn line(&mut self, name: &str, value: f64, unit: &str) {
        self.lines.push(format!("{name:<36} {value:>16.4} {unit}"));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// The result object: every end-to-end metric, or with `trace` every
    /// per-layer metric.
    pub fn result_json(&self, trace: bool) -> String {
        let mut metrics = Vec::new();
        let mut push = |name: &str, value: f64, unit: &str| {
            let value = if value.is_finite() { value } else { 0.0 };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        };
        if trace {
            for (name, unit) in per_layer() {
                push(&name, self.layers.get(&name).copied().unwrap_or(0.0), unit);
            }
        } else {
            for (name, unit) in END_TO_END {
                push(name, self.e2e.get(name).copied().unwrap_or(0.0), unit);
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
