//! In-process timers around each crate's public calls, shared by the
//! traced pass of every workload. Each layer metric is the median of its
//! per-call samples.

use crate::metrics::Outcome;
use crate::util::{median, ms, proc_status_kb, reset_own_peak_rss, us};
use fd_repairs::core::{FdSet, Table};
use fd_repairs::engine::{
    parse_table_doc, table_fingerprint, Notion, Planner, RepairEngine, RepairRequest, Timings,
};
use fd_repairs::graph::conflict_components;
use fd_repairs::srepair::{sharded_s_repair, ShardConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Per-call samples of each layer; every metric is their median.
#[derive(Default)]
pub struct Samples {
    pub wire: Vec<f64>,
    pub fingerprint: Vec<f64>,
    pub plan: Vec<f64>,
    pub solve: Vec<f64>,
    pub urepair: Vec<f64>,
    pub build: Vec<f64>,
    pub serialize: Vec<f64>,
    pub free: Vec<f64>,
    pub bytes: Vec<f64>,
    pub scan: Vec<f64>,
    pub components: Vec<f64>,
    pub component_count: Vec<f64>,
    pub largest: Vec<f64>,
    pub sharded: Vec<f64>,
    pub mutate_parse: Vec<f64>,
    pub session_new: Vec<f64>,
    pub session_apply: Vec<f64>,
    pub session_report: Vec<f64>,
}

impl Samples {
    pub fn report(&self, out: &mut Outcome) {
        for (name, values) in [
            ("engine.wire_parse_us", &self.wire),
            ("engine.fingerprint_ms", &self.fingerprint),
            ("engine.plan_us", &self.plan),
            ("engine.solve_ms", &self.solve),
            ("urepair.solve_ms", &self.urepair),
            ("engine.report_build_ms", &self.build),
            ("engine.serialize_ms", &self.serialize),
            ("engine.report_free_ms", &self.free),
            ("engine.report_bytes", &self.bytes),
            ("core.conflict_scan_ms", &self.scan),
            ("graph.components_ms", &self.components),
            ("graph.component_count", &self.component_count),
            ("graph.largest_component", &self.largest),
            ("srepair.sharded_ms", &self.sharded),
            ("engine.mutate_parse_us", &self.mutate_parse),
            ("engine.session_new_ms", &self.session_new),
            ("engine.session_apply_us", &self.session_apply),
            ("engine.session_report_ms", &self.session_report),
        ] {
            if !values.is_empty() {
                out.layer(name, median(values));
            }
        }
    }
}

/// The timings of one report: the engine call and the two halves of
/// emission.
pub struct ReportTimes {
    pub solve: Duration,
    pub build: Duration,
    pub serialize: Duration,
}

/// Plans, solves and emits `request` on `table` with each step timed
/// into `s`; returns the report bytes (timings zeroed, as the server and
/// `--no-timings` emit them).
pub fn time_report(
    s: &mut Samples,
    table: &Table,
    fds: &FdSet,
    request: &RepairRequest,
) -> Result<(String, ReportTimes), String> {
    let t = Instant::now();
    let plan = Planner
        .plan(table, fds, request)
        .map_err(|e| e.to_string())?;
    let planning = t.elapsed();
    std::hint::black_box(plan);
    let t = Instant::now();
    let mut report = Planner
        .run(table, fds, request)
        .map_err(|e| e.to_string())?;
    let solve = t.elapsed();
    report.timings = Timings::default();
    let t = Instant::now();
    let value = report.to_json_value();
    let build = t.elapsed();
    let t = Instant::now();
    let body = value.to_string();
    let serialize = t.elapsed();
    let t = Instant::now();
    drop(value);
    drop(report);
    let free = t.elapsed();
    s.plan.push(us(planning));
    s.solve.push(ms(solve));
    if matches!(request.notion, Notion::Update | Notion::Mixed) {
        s.urepair.push(ms(solve));
    }
    s.build.push(ms(build));
    s.serialize.push(ms(serialize));
    s.free.push(ms(free));
    s.bytes.push(body.len() as f64);
    let times = ReportTimes {
        solve,
        build,
        serialize,
    };
    Ok((body, times))
}

/// Times the subset solver's inner layers one by one: the conflict scan,
/// the component partition and the sharded solve.
pub fn time_subset_layers(s: &mut Samples, table: &Table, fds: &FdSet, request: &RepairRequest) {
    let t = Instant::now();
    let mut grouped = 0usize;
    table.for_each_conflict_group(fds, |_, g| grouped += g.len());
    s.scan.push(ms(t.elapsed()));
    let t = Instant::now();
    let components = conflict_components(table, fds);
    s.components.push(ms(t.elapsed()));
    s.component_count.push(components.len() as f64);
    s.largest.push(components.largest() as f64);
    let config = ShardConfig {
        threads: request.budgets.threads,
        component_exact_limit: request.budgets.component_exact_limit,
        ..ShardConfig::default()
    };
    let t = Instant::now();
    std::hint::black_box((grouped, sharded_s_repair(table, fds, &config)));
    s.sharded.push(ms(t.elapsed()));
}

/// A stored-table document's ingest, measured in a fresh process so
/// that memory and heap state this process built up cannot skew it: this
/// binary re-runs itself as `perfbench --probe-doc <file>`. Returns the
/// probe's metrics by name.
pub fn probe_doc(file: &Path) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .arg("--probe-doc")
        .arg(file)
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!("the ingest probe failed: {stderr}"));
    }
    Ok(String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// The probe's body: read the document, then time `parse_table_doc` (with
/// the peak-RSS growth per row it causes) and `table_fingerprint`, the
/// two steps of a `PUT /tables/{id}`.
pub fn doc_ingest(file: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(file).map_err(|e| e.to_string())?;
    let limits = crate::inputs::server_limits();
    reset_own_peak_rss();
    let before = proc_status_kb("self", "VmRSS").unwrap_or(0);
    let t = Instant::now();
    let table = parse_table_doc(&text, &limits).map_err(|e| e.to_string())?;
    let parse = t.elapsed();
    let peak = proc_status_kb("self", "VmHWM").unwrap_or(before);
    let t = Instant::now();
    std::hint::black_box(table_fingerprint(&table));
    let fingerprint = t.elapsed();
    let per_row = peak.saturating_sub(before) as f64 * 1024.0 / table.len().max(1) as f64;
    Ok(vec![
        ("engine.table_doc_parse_ms".into(), ms(parse)),
        ("core.rss_per_row_bytes".into(), per_row),
        ("engine.fingerprint_ms".into(), ms(fingerprint)),
    ])
}
