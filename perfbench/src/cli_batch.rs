//! `cli_batch_1m`: the batch user's path. `fdrepair repair --json
//! --no-timings` on a one-million-row `fdrepair gen --workload tractable`
//! file (`K -> A B`), one invocation at a time, stdout to a file. `.fdr`
//! ingest, the sharded solve and report emission all do real work here,
//! while wire parsing, the cache and sockets do none.

use crate::layers::{time_subset_layers, Samples};
use crate::metrics::Outcome;
use crate::proc::run_cli;
use crate::reference;
use crate::util::{median, ms, proc_status_kb, reset_own_peak_rss, us};
use crate::Ctx;
use fd_repairs::engine::{MixedCosts, Notion, Planner, RepairEngine, RepairRequest, Timings};
use fd_repairs::instance::Instance;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

pub const WHY: &str =
    "1M-row .fdr through `fdrepair repair --json`: ingest, sharded solve and report emission do the work; wire parsing, the cache and sockets do none";

const ROWS: &str = "1000000";
/// `fdrepair gen` runs per set-up measurement; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Invocations a run makes at least, however long they take.
const MIN_RUNS: u64 = 3;

/// The request `fdrepair repair` builds when given no flags.
fn cli_request() -> RepairRequest {
    RepairRequest::new(Notion::Subset).mixed_costs(MixedCosts::new(1.0, 1.0))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let input = ctx.work.join("cli_batch_1m.fdr");
    let input_arg = input.to_str().ok_or("work path is not UTF-8")?;
    let seed = ctx.seed.to_string();
    let gen_args = [
        "gen",
        input_arg,
        "--rows",
        ROWS,
        "--workload",
        "tractable",
        "--seed",
        &seed,
    ];
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let run = run_cli(&ctx.fdrepair, &gen_args, &ctx.work.join("gen.out"))
            .map_err(|e| format!("fdrepair gen: {e}"))?;
        if !run.status.success() {
            return Err(format!("fdrepair gen exited with {}", run.status));
        }
        setup.push(run.wall.as_secs_f64());
    }

    // The expectation: the benchmark's own parse and solve of the same file.
    let text = std::fs::read_to_string(&input).map_err(|e| e.to_string())?;
    let instance = Instance::parse(&text).map_err(|e| e.to_string())?;
    let request = cli_request();
    let expected = format!(
        "{}\n",
        crate::inputs::expected_report(&instance.table, &instance.fds, &request)
    );
    drop(instance);
    drop(text);

    let report_path = ctx.work.join("cli_batch_1m.report.json");
    let repair_args = ["repair", "--json", "--no-timings", input_arg];
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut references = Vec::new();
    let mut peaks = Vec::new();
    let started = Instant::now();
    while out.attempted < MIN_RUNS || started.elapsed() < ctx.seconds {
        // The reference job right before each invocation samples the
        // host's speed at that moment.
        references.push(reference::time_once(&ctx.work)?);
        out.attempted += 1;
        match run_cli(&ctx.fdrepair, &repair_args, &report_path) {
            Ok(run) if run.status.success() => {
                walls.push(run.wall.as_secs_f64());
                cpus.push(run.cpu.as_secs_f64());
                peaks.push(run.peak_rss_mb);
                let produced = std::fs::read(&report_path).unwrap_or_default();
                if produced != expected.as_bytes() {
                    out.failed += 1;
                }
            }
            _ => out.failed += 1,
        }
    }
    let _ = std::fs::remove_file(&report_path);
    if walls.is_empty() {
        return Err("no fdrepair repair invocation completed".into());
    }
    let wall_s = median(&walls);
    // Invocation times as they would read on a host where the reference
    // job takes `reference::NOMINAL_S`.
    let scale = reference::NOMINAL_S / median(&references);
    out.e2e.insert("setup_s", median(&setup));
    out.e2e.insert("peak_rss_mb", median(&peaks));
    out.e2e.insert("op_p50_ms", wall_s * scale * 1e3);
    out.e2e.insert(
        "ops_per_s",
        walls.len() as f64 / (walls.iter().sum::<f64>() * scale),
    );
    out.line("cli_wall_s (median)", wall_s, "s");
    out.line("cli_cpu_s (median)", median(&cpus), "s (user + system)");
    out.line("reference_s (median)", median(&references), "s");
    out.line("cli_wall_s samples", walls.len() as f64, "invocations");
    out.line("report_bytes", expected.len() as f64, "bytes");

    if ctx.trace {
        trace(ctx, &mut out, &input, &request, &expected, wall_s)?;
    }
    Ok(out)
}

/// Traced runs of the CLI's pipeline per workload run; each layer metric
/// is the median over them.
const TRACED_RUNS: usize = 3;

/// The traced pass. The CLI's own pipeline is timed in fresh child
/// processes (`perfbench --traced-cli`), so that each stage pays the
/// same first-touch page faults the CLI pays; the solver's inner layers
/// are then timed here, on the benchmark's own parse of the same file.
fn trace(
    ctx: &Ctx,
    out: &mut Outcome,
    input: &Path,
    request: &RepairRequest,
    expected: &str,
    untraced_wall_s: f64,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let sink = ctx.work.join("cli_batch_1m.traced.json");
    let stages = ctx.work.join("cli_batch_1m.traced.txt");
    let args = [
        "--traced-cli",
        input.to_str().ok_or("work path is not UTF-8")?,
        sink.to_str().ok_or("work path is not UTF-8")?,
    ];
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut walls = Vec::new();
    for _ in 0..TRACED_RUNS {
        let run = run_cli(&exe, &args, &stages).map_err(|e| e.to_string())?;
        let produced = std::fs::read(&sink).unwrap_or_default();
        if !run.status.success() || produced != expected.as_bytes() {
            return Err("the traced pipeline failed or its report differs".into());
        }
        walls.push(ms(run.wall));
        let text = std::fs::read_to_string(&stages).map_err(|e| e.to_string())?;
        for line in text.lines() {
            if let Some((name, value)) = line.split_once(' ') {
                let value = value
                    .parse()
                    .map_err(|_| format!("bad stage line {line:?}"))?;
                samples.entry(name.to_string()).or_default().push(value);
            }
        }
    }
    let _ = std::fs::remove_file(&sink);
    for (name, values) in &samples {
        match name.strip_prefix("cli.") {
            Some(stage) => out.line(&format!("traced {stage}"), median(values), "ms"),
            None => out.layer(name, median(values)),
        }
    }
    let timed = samples.get("cli.timed_ms").map_or(0.0, |v| median(v));
    out.layer("trace.coverage", timed / (untraced_wall_s * 1e3));
    out.layer("trace.overhead_ms", median(&walls) - untraced_wall_s * 1e3);

    let text = std::fs::read_to_string(input).map_err(|e| e.to_string())?;
    let instance = Instance::parse(&text).map_err(|e| e.to_string())?;
    let (table, fds) = (&instance.table, &instance.fds);
    let mut s = Samples::default();
    let t = Instant::now();
    std::hint::black_box(
        Planner
            .plan(table, fds, request)
            .map_err(|e| e.to_string())?,
    );
    s.plan.push(us(t.elapsed()));
    time_subset_layers(&mut s, table, fds, request);
    s.report(out);
    Ok(())
}

/// `perfbench --traced-cli <input.fdr> <sink>`: what `fdrepair repair
/// --json --no-timings` does, stage by stage, in this fresh process.
/// Prints one `name value` line per layer metric, plus `cli.*` lines for
/// the file reads and writes and the sum of every timed stage.
pub fn traced_pipeline(input: &Path, sink: &Path) -> Result<Vec<(String, f64)>, String> {
    let t = Instant::now();
    let text = std::fs::read_to_string(input).map_err(|e| e.to_string())?;
    let read = t.elapsed();
    reset_own_peak_rss();
    let rss_before = proc_status_kb("self", "VmRSS").unwrap_or(0);
    let t = Instant::now();
    let instance = Instance::parse(&text).map_err(|e| e.to_string())?;
    let parse = t.elapsed();
    let rss_peak = proc_status_kb("self", "VmHWM").unwrap_or(rss_before);
    let rows = instance.table.len().max(1);
    let t = Instant::now();
    let mut report = Planner
        .run(&instance.table, &instance.fds, &cli_request())
        .map_err(|e| e.to_string())?;
    let solve = t.elapsed();
    report.timings = Timings::default();
    let t = Instant::now();
    let value = report.to_json_value();
    let build = t.elapsed();
    let t = Instant::now();
    let body = format!("{value}\n");
    let serialize = t.elapsed();
    let t = Instant::now();
    drop(value);
    drop(report);
    let free = t.elapsed();
    let t = Instant::now();
    std::fs::write(sink, &body).map_err(|e| e.to_string())?;
    let write = t.elapsed();
    let t = Instant::now();
    drop(instance);
    drop(text);
    let table_free = t.elapsed();
    let timed = read + parse + solve + build + serialize + free + write + table_free;
    Ok(vec![
        ("core.fdr_parse_ms".into(), ms(parse)),
        (
            "core.rss_per_row_bytes".into(),
            rss_peak.saturating_sub(rss_before) as f64 * 1024.0 / rows as f64,
        ),
        ("core.table_free_ms".into(), ms(table_free)),
        ("engine.solve_ms".into(), ms(solve)),
        ("engine.report_build_ms".into(), ms(build)),
        ("engine.serialize_ms".into(), ms(serialize)),
        ("engine.report_free_ms".into(), ms(free)),
        ("engine.report_bytes".into(), body.len() as f64),
        ("cli.read_ms".into(), ms(read)),
        ("cli.write_ms".into(), ms(write)),
        ("cli.timed_ms".into(), ms(timed)),
    ])
}
