//! Scalability suite: the million-row trajectory of the sharded solve
//! path. Criterion covers the small sizes interactively; the summary
//! pass measures the full 1k → 1M ladder and writes the
//! machine-readable medians to `BENCH_scale.json` at the workspace root
//! (or `$BENCH_SCALE_JSON`). The committed copy is the scale-trajectory
//! seed that `bench_guard` diffs fresh runs against in CI (> 2×
//! regression on any shared entry fails the build).
//!
//! Measured per size, generation excluded:
//!
//! * `components/tractable/<n>` — edge-free conflict-component
//!   extraction (`fd_graph::conflict_components`) on the tractable
//!   workload;
//! * `subset/tractable/<n>` — `repair --notion s` end-to-end through
//!   the engine (sharded path, single thread);
//! * `subset/tractable_threads/<n>` — the same with the OS thread count;
//! * `subset/hard/<n>` — the hard-core workload `Δ_{A→C←B}`:
//!   per-component exact vertex cover at scale, a regime a whole-table
//!   exact cutoff could only 2-approximate;
//! * `subset/marriage/<n>` — the marriage workload `{A → B, B → A,
//!   B → C}`: Algorithm 1 with its maximum-weight matching solved per
//!   component. The committed `1000000/100000` median ratio must stay
//!   under 15 (asserted by a test in `bench_guard`), so a matching that
//!   goes global again fails as a superlinear blow-up;
//! * `csr/compact/<n>` — building the hard workload's conflict graph
//!   (streamed) and compacting it to [`fd_graph::CsrGraph`], the
//!   flat-array form for holding a large conflict graph as a graph;
//! * `scan/intern/<n>` — streaming CSV parse + dictionary interning
//!   into a columnar table (the load path of a million-row repair);
//! * `scan/key_extract/<n>` — hashing every row's lhs projection for
//!   every FD via [`fd_core::KeyExtractor`] over the symbol columns
//!   (the inner loop of the grouped conflict scan).
//!
//! After the ladder, `report/write/<n>` (100k and 1M rows) times
//! [`fd_engine::RepairReport::write_json`] of a solved tractable subset
//! report into `std::io::sink()`: the streaming writer alone. The
//! committed `1000000/100000` median ratio must stay under 15 (asserted
//! by a test in `bench_guard`), so the writer stays linear.
//!
//! Then the incremental tier measures a primed
//! [`fd_engine::IncrementalSession`] on the tractable workload:
//!
//! * `incremental/single_row_mutation/<n>` (100k and 1M rows) — one
//!   cell edit on a live session, repair kept current by delta
//!   maintenance. The committed 1M entry must stay ≥ 100× under
//!   `subset/tractable/1000000`, and under 3× the 100k entry, so a step
//!   costs O(change), not O(|T|) (both asserted by tests in
//!   `bench_guard`);
//! * `incremental/report_splice/1000000` — materializing the full
//!   spliced report after a mutation (O(rows) answer assembly);
//! * `incremental/report_bytes/<n>` (100k and 1M rows) — one cell
//!   edit, then the session's spliced report document written into a
//!   recycled buffer: unchanged rows copied from the previous document,
//!   the edited one rendered. The committed 1M entry must stay at or
//!   under a quarter of `report/write/1000000` (asserted by a test in
//!   `bench_guard`), so a warm report never formats the whole table;
//! * `incremental/trace_replay/100000` — a 1 000-step cell-edit trace
//!   plus one final report on a 100k-row session.
//!
//! The summary also records `mem/peak_rss_per_row/1000000`: the
//! process peak RSS (`VmHWM`) divided by the ladder's top row count,
//! in bytes per row. `bench_guard` gates it raw (never calibrated —
//! memory footprint does not scale with machine speed).
//!
//! `trace/overhead_disabled/1000000` pins the fd-trace fast path: one
//! million `fd_trace::span` constructions with **no collector
//! installed**. The disabled path is specified as a thread-local read
//! and a branch — no clock, no allocation — and this entry fails the
//! gate if anyone makes it expensive, which would silently tax every
//! instrumented pipeline stage.
//!
//! Last, after the ladder's peak RSS is read, `ingest/fdr/<n>` (100k and 1M
//! rows) times [`fd_repairs::instance::Instance::parse`] of the
//! `fdrepair gen` text of the tractable workload: the single-pass,
//! chunk-parallel `.fdr` reader into symbol columns. The committed
//! `1000000/100000` median ratio must stay under 15 (asserted by a
//! test in `bench_guard`), so ingest stays linear.
//!
//! `ingest/json/<n>` (100k and 1M rows) times
//! [`fd_engine::parse_table_doc`] of the same tables as the object-row
//! document `PUT /tables/{id}` takes: the syntax scan, then rows
//! streamed into symbol columns. Its `1000000/100000` median ratio must
//! stay under 15 too (asserted beside the `.fdr` one).
//!
//! `engine/fingerprint/<n>` (100k and 1M rows) times
//! [`fd_engine::table_fingerprint`] of the tractable table: the
//! content hash every `PUT` and every mutate compute over the whole
//! table. Its `1000000/100000` median ratio must stay under 15
//! (asserted by a test in `bench_guard`), so the hash stays linear.
//!
//! Then `update/hard/<n>` (10k, 100k and 1M rows) runs
//! `repair --notion u` through the engine on the hard workload: the
//! combined approximation of §4.4 (the sharded `2·mlc` subset solve
//! plus the Kolahi–Lakshmanan re-admission), off the ladder's peak RSS.
//! The committed `100000/10000` and `1000000/100000` median ratios must
//! each stay under 15 (asserted by a test in `bench_guard`), so a
//! re-admission that rescans the whole core per tuple fails as a
//! quadratic blow-up.
//!
//! Then `update/tractable/<n>` (100k and 1M rows) runs
//! `repair --notion u` through the engine on the tractable workload:
//! Corollary 4.6's sharded subset solve, its deleted tuples retagged as
//! cells, and the report's one `apply`. The committed
//! `1000000/100000` median ratio must stay under 12 (asserted by a test
//! in `bench_guard`), so no stage of the update path goes superlinear.

use criterion::{black_box, Criterion};
use fd_core::{
    table_from_csv_reader, table_to_csv, AttrId, CsvOptions, KeyExtractor, Table, Value,
};
use fd_engine::{
    parse_table_doc, table_fingerprint, IncrementalSession, Json, JsonLimits, Planner,
    RepairEngine, RepairRequest,
};
use fd_gen::scale::{hard_scale, marriage_scale, tractable_scale};
use fd_repairs::instance::Instance;
use std::time::Instant;

fn bench_small_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    group.sample_size(20);
    for n in [1_000usize, 10_000] {
        let (_, fds, table) = tractable_scale(n, false, 42);
        group.bench_function(format!("components/tractable/{n}"), |b| {
            b.iter(|| fd_graph::conflict_components(black_box(&table), black_box(&fds)));
        });
        let request = RepairRequest::subset();
        group.bench_function(format!("subset/tractable/{n}"), |b| {
            b.iter(|| {
                Planner
                    .run(black_box(&table), black_box(&fds), &request)
                    .unwrap()
            });
        });
        let (_, hard_fds, hard_table) = hard_scale(n, false, 42);
        group.bench_function(format!("subset/hard/{n}"), |b| {
            b.iter(|| {
                Planner
                    .run(black_box(&hard_table), black_box(&hard_fds), &request)
                    .unwrap()
            });
        });
    }
    group.finish();
}

/// Median wall-clock of `runs` executions of `f`, in microseconds.
fn median_us(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Repetitions per size: enough at the small end for stable medians,
/// few at the million-row end to keep CI affordable.
fn reps(n: usize) -> usize {
    match n {
        0..=1_000 => 50,
        1_001..=10_000 => 20,
        10_001..=100_000 => 7,
        _ => 3,
    }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); `None` on platforms without procfs.
fn peak_rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0)
}

/// The median cost of one cell edit on a primed `n`-row tractable
/// session: batches of 200 edits, each moving a strided row to a fresh
/// value of `attr`.
fn single_row_mutation_us(session: &mut IncrementalSession, attr: AttrId, n: usize) -> f64 {
    use fd_core::{Mutation, TupleId, Value};
    let mut next = 0u32;
    const BATCH: u32 = 200;
    let per_batch = median_us(5, || {
        for _ in 0..BATCH {
            next = next.wrapping_add(7919) % n as u32;
            let m = Mutation::SetCell {
                id: TupleId(next),
                attr,
                value: Value::Int(i64::from(next) + 1_000_000),
            };
            session.apply(&m).unwrap();
        }
    });
    per_batch / f64::from(BATCH)
}

/// A stored-table document, `{relation, attrs, rows}`, with one
/// `{"weight": w, "values": [...]}` object per row.
fn table_doc(table: &Table) -> String {
    let schema = table.schema();
    let attrs = schema.attr_names().iter().map(|a| Json::str(a.as_str()));
    let rows: Vec<String> = table
        .rows()
        .map(|row| {
            let values = row.tuple.values().iter().map(|v| match v {
                Value::Int(i) => Json::Num(*i as f64),
                other => Json::str(other.to_string()),
            });
            format!(
                "{{\"weight\":{},\"values\":{}}}",
                Json::Num(row.weight),
                Json::Arr(values.collect())
            )
        })
        .collect();
    format!(
        "{{\"relation\":{},\"attrs\":{},\"rows\":[{}]}}",
        Json::str(schema.relation()),
        Json::Arr(attrs.collect()),
        rows.join(",")
    )
}

fn write_summary() {
    let path = std::env::var("BENCH_SCALE_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_scale.json", env!("CARGO_MANIFEST_DIR")));
    let mut entries = Vec::new();
    let mut push = |id: String, us: f64| {
        println!("  {id:<40} {us:>12.1} µs");
        entries.push(Json::obj([
            ("id", Json::Str(id)),
            ("median_us", Json::Num((us * 1000.0).round() / 1000.0)),
        ]));
    };
    for n in [1_000usize, 10_000, 100_000, 1_000_000] {
        let runs = reps(n);
        let (_, fds, table) = tractable_scale(n, false, 42);
        push(
            format!("components/tractable/{n}"),
            median_us(runs, || {
                black_box(fd_graph::conflict_components(&table, &fds));
            }),
        );
        push(
            format!("subset/tractable/{n}"),
            median_us(runs, || {
                Planner.run(&table, &fds, &RepairRequest::subset()).unwrap();
            }),
        );
        push(
            format!("subset/tractable_threads/{n}"),
            median_us(runs, || {
                Planner
                    .run(&table, &fds, &RepairRequest::subset().threads(0))
                    .unwrap();
            }),
        );
        let (_, hard_fds, hard_table) = hard_scale(n, false, 42);
        push(
            format!("subset/hard/{n}"),
            median_us(runs, || {
                Planner
                    .run(&hard_table, &hard_fds, &RepairRequest::subset())
                    .unwrap();
            }),
        );
        push(
            format!("csr/compact/{n}"),
            median_us(runs, || {
                let cg = fd_graph::ConflictGraph::build(&hard_table, &hard_fds);
                black_box(cg.graph.to_csr());
            }),
        );
        // The load path: CSV bytes → streamed parse → dictionary
        // interning → columnar table, measured on the table's own CSV
        // rendering so every size exercises the real value mix.
        let csv = table_to_csv(&table, true);
        let options = CsvOptions {
            weight_column: Some("weight".to_string()),
        };
        push(
            format!("scan/intern/{n}"),
            median_us(runs, || {
                black_box(table_from_csv_reader("R", csv.as_bytes(), &options).unwrap());
            }),
        );
        // The scan's inner loop in isolation: hash every row's lhs
        // projection for every FD, straight over the symbol columns.
        push(
            format!("scan/key_extract/{n}"),
            median_us(runs, || {
                let cols = table.sym_cols();
                let mut acc = 0u64;
                for fd in fds.iter() {
                    let ex = KeyExtractor::new(fd.lhs());
                    for pos in 0..table.len() as u32 {
                        acc ^= ex.hash(cols, pos);
                    }
                }
                black_box(acc);
            }),
        );
    }
    // The marriage rung runs after the ladder above has dropped its
    // tables, so it does not raise the peak RSS the memory entry reads.
    for n in [1_000usize, 10_000, 100_000, 1_000_000] {
        let (_, fds, table) = marriage_scale(n, false, 42);
        push(
            format!("subset/marriage/{n}"),
            median_us(reps(n), || {
                Planner.run(&table, &fds, &RepairRequest::subset()).unwrap();
            }),
        );
    }
    // The report writer: streaming a solved tractable subset report
    // into a sink that discards the bytes, so only serialization is
    // timed. Runs after the ladder too, off its peak RSS.
    for n in [100_000usize, 1_000_000] {
        let (_, fds, table) = tractable_scale(n, false, 42);
        let report = Planner.run(&table, &fds, &RepairRequest::subset()).unwrap();
        push(
            format!("report/write/{n}"),
            median_us(reps(n), || {
                report.write_json(&mut std::io::sink()).unwrap();
            }),
        );
    }
    // The incremental tier: a primed IncrementalSession absorbing
    // mutations on the tractable workload — the "maintained service"
    // regime where every edit used to cost a full re-solve.
    //
    // * `single_row_mutation/<n>` — one cell edit on a 100k- and a
    //   1M-row table, per-mutation cost with the repair kept current
    //   (dirty component re-solved inside `apply`). The acceptance bars
    //   are ≥ 100× under `subset/tractable/1000000` and a 1M/100k ratio
    //   under 3, asserted by the committed-seed tests in `bench_guard`.
    // * `report_splice/1000000` — materializing the full spliced
    //   report after a mutation (O(rows) answer assembly, the cost a
    //   caller pays only when serializing the whole table).
    // * `report_bytes/<n>` — one cell edit and the spliced document
    //   that follows it, written into a recycled buffer: what a warm
    //   fd-serve mutate pays for its report.
    // * `trace_replay/100000` — replaying a 1 000-step cell-edit trace
    //   on a 100k-row table plus one final report: the throughput
    //   number bench_guard gates (the µs-scale entries sit under its
    //   noise floor by design).
    {
        use fd_core::{Mutation, TupleId, Value};
        for n in [100_000usize, 1_000_000] {
            let (schema, fds, table) = tractable_scale(n, false, 42);
            let attr = schema.attr("A").expect("tractable attr");
            let mut session = IncrementalSession::new(table, fds, RepairRequest::subset())
                .expect("valid request");
            assert!(
                session.is_incremental(),
                "tractable Δ must be delta-eligible"
            );
            push(
                format!("incremental/single_row_mutation/{n}"),
                single_row_mutation_us(&mut session, attr, n),
            );
            if n == 1_000_000 {
                push(
                    format!("incremental/report_splice/{n}"),
                    median_us(3, || {
                        black_box(session.report().unwrap());
                    }),
                );
            }
            // The first document renders every row; each step edits one
            // cell and writes the next document into the buffer of the
            // one before last, as fd-serve recycles a retired report.
            // Two untimed steps put both buffers in circulation.
            let mut doc = session.report_bytes_in(Vec::new()).unwrap();
            let mut spare = Vec::new();
            let mut next = 0u32;
            let mut step = || {
                next = next.wrapping_add(7919) % n as u32;
                let m = Mutation::SetCell {
                    id: TupleId(next),
                    attr,
                    value: Value::Int(i64::from(next) + 3_000_000),
                };
                session.apply(&m).unwrap();
                let fresh = session.report_bytes_in(std::mem::take(&mut spare)).unwrap();
                let old = std::mem::replace(&mut doc, fresh);
                spare = std::sync::Arc::try_unwrap(old).expect("the session let it go");
            };
            step();
            step();
            push(
                format!("incremental/report_bytes/{n}"),
                median_us(reps(n).max(5), step),
            );
        }

        let n = 100_000usize;
        let (schema, fds, table) = tractable_scale(n, false, 42);
        let attr = schema.attr("A").expect("tractable attr");
        let mut session =
            IncrementalSession::new(table, fds, RepairRequest::subset()).expect("valid request");
        let mut next = 0u32;
        push(
            format!("incremental/trace_replay/{n}"),
            median_us(reps(n), || {
                for _ in 0..1_000u32 {
                    next = next.wrapping_add(7919) % n as u32;
                    let m = Mutation::SetCell {
                        id: TupleId(next),
                        attr,
                        value: Value::Int(i64::from(next) + 2_000_000),
                    };
                    session.apply(&m).unwrap();
                }
                black_box(session.report().unwrap());
            }),
        );
    }
    // The disabled-tracing fast path: a million span constructions with
    // no collector installed. Must stay a thread-local read plus a
    // branch per call; regressions here tax every instrumented stage
    // even when nobody is tracing.
    push(
        "trace/overhead_disabled/1000000".to_string(),
        median_us(reps(1_000_000), || {
            for _ in 0..1_000_000u32 {
                black_box(fd_trace::span("bench/disabled"));
            }
        }),
    );
    let ladder_peak = peak_rss_bytes();
    // `.fdr` ingest: the text `fdrepair gen` writes, parsed back into a
    // table. Runs after the ladder's peak RSS is read, so the memory
    // entry keeps measuring the ladder alone.
    for n in [100_000usize, 1_000_000] {
        let (schema, fds, table) = tractable_scale(n, false, 42);
        let text = Instance { schema, fds, table }.to_fdr();
        push(
            format!("ingest/fdr/{n}"),
            median_us(reps(n), || {
                black_box(Instance::parse(&text).unwrap());
            }),
        );
    }
    // JSON ingest: the same tractable tables as the object-row table
    // document `PUT /tables/{id}` receives, read by `parse_table_doc`.
    let limits = JsonLimits {
        max_bytes: usize::MAX,
        max_depth: JsonLimits::DEFAULT_MAX_DEPTH,
    };
    for n in [100_000usize, 1_000_000] {
        let (_, _, table) = tractable_scale(n, false, 42);
        let doc = table_doc(&table);
        drop(table);
        push(
            format!("ingest/json/{n}"),
            median_us(reps(n), || {
                black_box(parse_table_doc(&doc, &limits).unwrap());
            }),
        );
    }
    // The content fingerprint a `PUT` and every mutate compute over the
    // whole table: ids, weight bits and symbol columns, 8 bytes at a
    // time.
    for n in [100_000usize, 1_000_000] {
        let (_, _, table) = tractable_scale(n, false, 42);
        push(
            format!("engine/fingerprint/{n}"),
            median_us(2 * reps(n) + 1, || {
                black_box(table_fingerprint(&table));
            }),
        );
    }
    // The update rung: `repair --notion u` on the hard workload, whose
    // one component takes the combined approximation (the sharded
    // `2·mlc` solve and the KL re-admission against its indexed core).
    // It runs after the ladder's peak RSS is read: KL's decoded core
    // at 1M rows would raise the memory entry.
    for n in [10_000usize, 100_000, 1_000_000] {
        let (_, fds, table) = hard_scale(n, false, 42);
        push(
            format!("update/hard/{n}"),
            median_us(reps(n), || {
                Planner.run(&table, &fds, &RepairRequest::update()).unwrap();
            }),
        );
    }
    // The tractable update rung: `repair --notion u` through the
    // engine, also after the ladder's peak RSS is read.
    for n in [100_000usize, 1_000_000] {
        let (_, fds, table) = tractable_scale(n, false, 42);
        push(
            format!("update/tractable/{n}"),
            median_us(reps(n), || {
                black_box(Planner.run(&table, &fds, &RepairRequest::update()).unwrap());
            }),
        );
    }
    // Memory trajectory: peak RSS over the whole ladder (read before
    // the ingest rung), amortized per row of the top size. Gated raw by
    // `bench_guard` (a `bytes_per_row` entry is never calibrated —
    // footprint is machine-independent).
    if let Some(bytes) = ladder_peak {
        let per_row = bytes / 1e6;
        println!(
            "  {:<40} {per_row:>12.1} B/row (peak RSS)",
            "mem/peak_rss_per_row/1000000"
        );
        entries.push(Json::obj([
            ("id", Json::str("mem/peak_rss_per_row/1000000")),
            (
                "bytes_per_row",
                Json::Num((per_row * 1000.0).round() / 1000.0),
            ),
        ]));
    }
    let doc = Json::obj([
        ("bench", Json::str("scale")),
        ("unit", Json::str("microseconds, median")),
        ("entries", Json::Arr(entries)),
    ]);
    match std::fs::write(&path, format!("{doc}\n")) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    bench_small_sizes(&mut criterion);
    // Skip the summary in `--test`/`--list` compile-check mode.
    let args: Vec<String> = std::env::args().collect();
    if !args.iter().any(|a| a == "--test" || a == "--list") {
        write_summary();
    }
}
