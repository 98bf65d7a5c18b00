//! `bench_guard` — the CI bench-regression gate.
//!
//! ```text
//! bench_guard <committed.json> <fresh.json> [--factor 2.0] [--calibrate <id>]
//! ```
//!
//! Reads two `BENCH_*.json` documents (the committed seed and a freshly
//! produced run), matches entries by `id`, and fails (exit 1) when any
//! shared entry's fresh median exceeds `factor ×` the committed median
//! (default 2.0, overridable with `--factor` or `$BENCH_GUARD_FACTOR`).
//! Entries below a 200 µs noise floor are reported but never fail the
//! gate — sub-millisecond medians jitter with machine load, and the
//! scale suite's load-bearing entries are all far above it. Entries
//! present on only one side are reported and skipped, so adding a bench
//! never breaks the gate retroactively.
//!
//! `--calibrate <id>` makes the comparison **machine-independent**:
//! each side's medians are divided by that side's own median for the
//! calibration entry before comparing, so a uniformly slower (or
//! faster) runner cancels out and only *shape* regressions — one entry
//! slowing down relative to the others — fail. CI uses this, because
//! the committed seed and the CI runner are different machines;
//! omitting the flag compares raw wall-clock, which is what you want
//! when both files come from the same box.
//!
//! Besides `median_us` timings, entries may carry a `bytes_per_row`
//! number (the scale suite's peak-RSS-per-row probe) or a
//! `requests_per_sec` throughput (the serve suite). Bytes are gated
//! with the same factor but always compared raw — memory footprint
//! does not scale with machine speed — and skip the noise floor.
//! Throughput gates in the *opposite direction*: `requests_per_sec` is
//! higher-is-better, so the regression ratio is `committed / fresh`,
//! and an rps collapse fails exactly like a latency blow-up.

use fd_engine::Json;
use std::process::ExitCode;

/// Medians below this many microseconds are too noisy to gate on.
const NOISE_FLOOR_US: f64 = 200.0;

/// What an entry's number measures. Time entries are calibrated and
/// noise-floored; byte entries are compared raw — memory footprint does
/// not scale with machine speed, and it barely jitters. Throughput
/// entries are compared raw and *inverted*: higher is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Unit {
    TimeUs,
    BytesPerRow,
    Rps,
}

impl Unit {
    /// The regression ratio for this unit, normalized so that > 1 means
    /// "worse": fresh/committed for lower-is-better numbers,
    /// committed/fresh for higher-is-better throughput.
    fn regression_ratio(self, base: f64, now: f64) -> f64 {
        let (num, den) = match self {
            Unit::TimeUs | Unit::BytesPerRow => (now, base),
            Unit::Rps => (base, now),
        };
        if den > 0.0 {
            num / den
        } else {
            f64::INFINITY
        }
    }
}

fn load(path: &str) -> Result<Vec<(String, f64, Unit)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let Some(Json::Arr(entries)) = doc.get("entries") else {
        return Err(format!("{path}: missing \"entries\" array"));
    };
    let mut out = Vec::new();
    for entry in entries {
        let Some(id) = entry.get("id").and_then(Json::as_str) else {
            continue;
        };
        if let Some(median) = entry.get("median_us").and_then(Json::as_num) {
            out.push((id.to_string(), median, Unit::TimeUs));
        } else if let Some(p99) = entry.get("p99_us").and_then(Json::as_num) {
            out.push((id.to_string(), p99, Unit::TimeUs));
        } else if let Some(bytes) = entry.get("bytes_per_row").and_then(Json::as_num) {
            out.push((id.to_string(), bytes, Unit::BytesPerRow));
        } else if let Some(rps) = entry.get("requests_per_sec").and_then(Json::as_num) {
            out.push((id.to_string(), rps, Unit::Rps));
        }
    }
    Ok(out)
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut factor: f64 = std::env::var("BENCH_GUARD_FACTOR")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let mut calibrate: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--factor" {
            factor = it
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("--factor needs a number")?;
        } else if arg == "--calibrate" {
            calibrate = Some(it.next().ok_or("--calibrate needs an entry id")?.clone());
        } else {
            paths.push(arg.clone());
        }
    }
    let [committed_path, fresh_path] = paths.as_slice() else {
        return Err(
            "usage: bench_guard <committed.json> <fresh.json> [--factor 2.0] [--calibrate <id>]"
                .to_string(),
        );
    };
    let committed = load(committed_path)?;
    let fresh = load(fresh_path)?;

    // Per-side scale divisor: 1 (raw wall-clock) or the side's own
    // calibration-entry median. Only time entries can calibrate.
    let scale_of = |entries: &[(String, f64, Unit)], path: &str| -> Result<f64, String> {
        let Some(id) = calibrate.as_deref() else {
            return Ok(1.0);
        };
        entries
            .iter()
            .find(|(eid, _, unit)| eid == id && *unit == Unit::TimeUs)
            .map(|(_, m, _)| *m)
            .filter(|m| *m > 0.0)
            .ok_or(format!("{path}: calibration entry {id:?} missing or zero"))
    };
    let committed_scale = scale_of(&committed, committed_path)?;
    let fresh_scale = scale_of(&fresh, fresh_path)?;

    let mut failed = false;
    println!(
        "bench_guard: {committed_path} vs {fresh_path} (factor {factor}{})",
        calibrate
            .as_deref()
            .map(|id| format!(", calibrated on {id:?}"))
            .unwrap_or_default()
    );
    for (id, base, unit) in &committed {
        let Some((_, now, _)) = fresh.iter().find(|(fid, _, _)| fid == id) else {
            println!("  SKIP {id}: absent from the fresh run");
            continue;
        };
        // Byte and throughput entries compare raw: peak-RSS-per-row is
        // a property of the data layout, and rps across machines is
        // gated loosely enough that the factor absorbs runner speed.
        let (base_scaled, now_scaled) = match unit {
            Unit::TimeUs => (base / committed_scale, now / fresh_scale),
            Unit::BytesPerRow | Unit::Rps => (*base, *now),
        };
        let ratio = unit.regression_ratio(base_scaled, now_scaled);
        // The noise floor applies to the raw medians on both sides: an
        // entry that runs fast on either machine jitters too much to
        // gate on, calibrated or not. Byte entries have no floor.
        let noisy = *unit == Unit::TimeUs && (*base < NOISE_FLOOR_US || *now < NOISE_FLOOR_US);
        let verdict = if noisy {
            "noise"
        } else if ratio > factor {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        let label = match unit {
            Unit::TimeUs => "µs",
            Unit::BytesPerRow => "B/row",
            Unit::Rps => "req/s",
        };
        println!("  {verdict:<5} {id:<42} {base:>12.1} -> {now:>12.1} {label} ({ratio:.2}x)");
    }
    for (id, _, _) in &fresh {
        if !committed.iter().any(|(cid, _, _)| cid == id) {
            println!("  NEW  {id}: not in the committed seed (commit the fresh file to adopt)");
        }
    }
    Ok(failed)
}

fn main() -> ExitCode {
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => {
            eprintln!("bench_guard: regression beyond the allowed factor");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_guard: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{load, Unit};

    /// The median of a time entry in the committed scale seed.
    fn median(id: &str) -> f64 {
        let path = format!("{}/../../BENCH_scale.json", env!("CARGO_MANIFEST_DIR"));
        load(&path)
            .expect("committed BENCH_scale.json loads")
            .into_iter()
            .find(|(eid, _, unit)| eid == id && *unit == Unit::TimeUs)
            .map(|(_, m, _)| m)
            .unwrap_or_else(|| panic!("{path}: missing time entry {id:?}"))
    }

    /// The committed scale seed must keep the incremental engine's
    /// headline claim honest: a single-row mutation on the live 1M-row
    /// session stays at least 100× under the cold 1M-row solve. The
    /// seed is data, so drift (a slow delta path committed as the new
    /// normal) fails here rather than silently passing the 2× gate.
    #[test]
    fn committed_seed_keeps_the_incremental_speedup_above_100x() {
        let cold = median("subset/tractable/1000000");
        let delta = median("incremental/single_row_mutation/1000000");
        assert!(
            delta > 0.0 && cold / delta >= 100.0,
            "incremental single-row mutation ({delta} µs) must be ≥100× \
             under the cold 1M-row solve ({cold} µs); got {:.1}×",
            cold / delta
        );
    }

    /// A single-row mutation must cost O(change), not O(|T|): the
    /// session keeps its conflict index current, so a step on a 1M-row
    /// table touches the same few groups as one on 100k rows. A step
    /// that rescans the table (a partner pass per FD, say) is ten times
    /// slower at 1M and fails here.
    #[test]
    fn committed_seed_keeps_the_single_row_step_flat() {
        let small = median("incremental/single_row_mutation/100000");
        let large = median("incremental/single_row_mutation/1000000");
        assert!(
            small > 0.0 && large / small < 3.0,
            "incremental/single_row_mutation/1000000 ({large} µs) must stay \
             under 3× incremental/single_row_mutation/100000 ({small} µs); got {:.1}×",
            large / small
        );
    }

    /// The marriage rung must scale linearly: Algorithm 1 solves its
    /// maximum-weight matching per component, so ten times the rows
    /// cost about ten times the time. A matching that goes global again
    /// (dense Hungarian over every lhs value of the table) is cubic, and
    /// fails here even where a 2× gate against a fresh run would not.
    #[test]
    fn committed_seed_keeps_the_marriage_rung_linear() {
        let small = median("subset/marriage/100000");
        let large = median("subset/marriage/1000000");
        assert!(
            small > 0.0 && large / small < 15.0,
            "subset/marriage/1000000 ({large} µs) must stay under 15× \
             subset/marriage/100000 ({small} µs); got {:.1}×",
            large / small
        );
    }

    /// The report writer must scale linearly: it streams each row
    /// once, so ten times the rows cost about ten times the time. A
    /// writer that rescans or re-copies what it already wrote fails
    /// here.
    #[test]
    fn committed_seed_keeps_the_report_writer_linear() {
        let small = median("report/write/100000");
        let large = median("report/write/1000000");
        assert!(
            small > 0.0 && large / small < 15.0,
            "report/write/1000000 ({large} µs) must stay under 15× \
             report/write/100000 ({small} µs); got {:.1}×",
            large / small
        );
    }

    /// A warm session's report must not format the whole table: it
    /// copies the unchanged rows from its previous document and renders
    /// only the edited one, so at 1M rows it costs a memcpy, well under
    /// the writer's full pass. A spliced path that falls back to
    /// formatting every row costs about as much as `report/write` and
    /// fails here.
    #[test]
    fn committed_seed_keeps_spliced_reports_cheap() {
        let full = median("report/write/1000000");
        let spliced = median("incremental/report_bytes/1000000");
        assert!(
            spliced > 0.0 && spliced <= full / 4.0,
            "incremental/report_bytes/1000000 ({spliced} µs) must stay at or \
             under a quarter of report/write/1000000 ({full} µs); got {:.2}×",
            spliced / full
        );
    }

    /// The update rung must scale linearly: the KL re-admission looks
    /// each tuple up in a per-FD index of the consistent core, so ten
    /// times the rows cost about ten times the time. A scan of the whole
    /// core per re-admitted tuple is quadratic and fails here.
    #[test]
    fn committed_seed_keeps_the_update_rung_linear() {
        for (small, large) in [(10_000, 100_000), (100_000, 1_000_000)] {
            let (s, l) = (
                format!("update/hard/{small}"),
                format!("update/hard/{large}"),
            );
            let (small, large) = (median(&s), median(&l));
            assert!(
                small > 0.0 && large / small < 15.0,
                "{l} ({large} µs) must stay under 15× {s} ({small} µs); got {:.1}×",
                large / small
            );
        }
    }

    /// The tractable update rung must scale linearly: the subset solve
    /// is sharded, the update is written as the deleted tuples' cells,
    /// and the report applies them once, so ten times the rows cost
    /// about ten times the time. A stage that rescans or diffs the
    /// whole table per component fails here.
    #[test]
    fn committed_seed_keeps_the_tractable_update_rung_linear() {
        let small = median("update/tractable/100000");
        let large = median("update/tractable/1000000");
        assert!(
            small > 0.0 && large / small < 12.0,
            "update/tractable/1000000 ({large} µs) must stay under 12× \
             update/tractable/100000 ({small} µs); got {:.1}×",
            large / small
        );
    }

    /// `.fdr` ingest must scale linearly: the reader passes over each
    /// line once and interns each field once, so ten times the rows
    /// cost about ten times the time. A per-row rescan of the document,
    /// or a chunk merge that remaps through a growing search, fails
    /// here.
    #[test]
    fn committed_seed_keeps_fdr_ingest_linear() {
        let small = median("ingest/fdr/100000");
        let large = median("ingest/fdr/1000000");
        assert!(
            small > 0.0 && large / small < 15.0,
            "ingest/fdr/1000000 ({large} µs) must stay under 15× \
             ingest/fdr/100000 ({small} µs); got {:.1}×",
            large / small
        );
    }

    /// JSON ingest must scale linearly: the reader scans the document
    /// once, then streams each row into the columns once, so ten times
    /// the rows cost about ten times the time. A per-row rescan, or a
    /// member lookup that walks the rows, fails here.
    #[test]
    fn committed_seed_keeps_json_ingest_linear() {
        let small = median("ingest/json/100000");
        let large = median("ingest/json/1000000");
        assert!(
            small > 0.0 && large / small < 15.0,
            "ingest/json/1000000 ({large} µs) must stay under 15× \
             ingest/json/100000 ({small} µs); got {:.1}×",
            large / small
        );
    }

    /// `engine/fingerprint` hashes every id, weight and cell once, so
    /// ten times the rows cost about ten times the time. A hash that
    /// rescans, or sorts, or probes a map per row fails here.
    #[test]
    fn committed_seed_keeps_the_fingerprint_linear() {
        let small = median("engine/fingerprint/100000");
        let large = median("engine/fingerprint/1000000");
        assert!(
            small > 0.0 && large / small < 15.0,
            "engine/fingerprint/1000000 ({large} µs) must stay under 15× \
             engine/fingerprint/100000 ({small} µs); got {:.1}×",
            large / small
        );
    }

    #[test]
    fn time_and_bytes_fail_when_the_number_grows() {
        assert!(Unit::TimeUs.regression_ratio(100.0, 300.0) > 2.0);
        assert!(Unit::TimeUs.regression_ratio(300.0, 100.0) < 1.0);
        assert!(Unit::BytesPerRow.regression_ratio(64.0, 200.0) > 2.0);
    }

    #[test]
    fn throughput_fails_when_the_number_collapses() {
        // An rps collapse (5000 → 1000) is a 5× regression, not a 0.2×
        // improvement — the direction that used to slip through when
        // requests_per_sec entries were silently skipped.
        assert!(Unit::Rps.regression_ratio(5000.0, 1000.0) > 2.0);
        // Faster serving must pass, however large the improvement.
        assert!(Unit::Rps.regression_ratio(1000.0, 5000.0) < 1.0);
        // A throughput of zero is an infinite regression, not a skip.
        assert_eq!(Unit::Rps.regression_ratio(1000.0, 0.0), f64::INFINITY);
    }
}
