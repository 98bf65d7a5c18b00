//! `serve_mixed`: request-shaped traffic against `fdrepair serve`. Two
//! closed-loop clients (one per core, one connection per call) draw with
//! Zipf skew from a seeded pool of 2,000 distinct calls, more than the
//! 256-entry result cache holds:
//!
//! - inline `/repair` bodies of 4–2,048 rows, on both sides of the IO
//!   thread's 16 KB fast-path limit;
//! - Δ split between tractable `K -> A B` and hard `A -> C; B -> C`;
//! - mostly `s`, with `u` and `mixed` calls of at most 1,024 rows;
//! - by-reference calls against four tables PUT during set-up;
//! - a small `/explain` share.
//!
//! The IO loop, wire parsing, the LRU and single-flight dominate; the
//! solver does little.

use crate::http;
use crate::inputs::{self, Side};
use crate::layers::{probe_doc, time_report, time_subset_layers, Samples};
use crate::metrics::Outcome;
use crate::proc::Server;
use crate::reference;
use crate::serve_stats::{counters, read_access_log, serve_layers, ClientRecord};
use crate::util::{median, ms, nproc, quantile, tail_quantile, us, Rng, Zipf};
use crate::Ctx;
use fd_repairs::core::{FdSet, Table};
use fd_repairs::engine::{
    parse_table_doc, table_fingerprint, Notion, ParsedCall, Planner, RepairEngine, RepairRequest,
};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

pub const WHY: &str =
    "2 clients draw Zipf-skewed from 2,000 small /repair and /explain calls, about 40% cache hits: IO loop, wire parse, LRU and single-flight dominate";

const POOL: usize = 2_000;
/// Zipf exponent: about 40% of draws hit the 256-entry LRU, so the median
/// falls among misses instead of in the gap between hits and misses.
const ZIPF_S: f64 = 0.7;
/// Set-ups per run; `setup_s` is their median. Each takes about 50 ms
/// and their quartile spread within a run is wide, so the median needs
/// many.
const SETUP_REPEATS: usize = 21;
/// Closed-loop segments a run is cut into. The clients stop between
/// segments while the reference job is timed; its median scales
/// `op_p50_ms` and `ops_per_s` to the host's speed.
const SEGMENTS: u32 = 5;
/// Tables PUT during set-up for the by-reference share.
const PRELOAD: [(Side, usize); 4] = [
    (Side::Tractable, 256),
    (Side::Hard, 512),
    (Side::Tractable, 1024),
    (Side::Hard, 2048),
];

struct Preload {
    id: String,
    table: Table,
    fds: FdSet,
    doc: String,
}

struct Call {
    path: &'static str,
    body: String,
    expected: String,
    /// Index into the preloads for by-reference calls.
    by_ref: Option<usize>,
}

fn build(seed: u64) -> (Vec<Preload>, Vec<Call>) {
    let rng = Rng::new(seed);
    let preloads: Vec<Preload> = PRELOAD
        .iter()
        .enumerate()
        .map(|(k, &(side, rows))| {
            let (_, fds, table) = side.generate(rows, true, seed.wrapping_add(k as u64));
            let doc = inputs::table_doc(&table);
            Preload {
                id: format!("pre{k}"),
                table,
                fds,
                doc,
            }
        })
        .collect();
    // Shape (side, size, kind, notion) follows the pool index through
    // low-discrepancy sequences, and popularity follows the index too, so
    // every seed offers the same mix at every popularity rank; the seed
    // changes the tables' contents and the clients' draws.
    let calls = (0..POOL)
        .map(|i| {
            let mut r = rng.fork(i as u64 + 1);
            let side = if i % 2 == 0 {
                Side::Tractable
            } else {
                Side::Hard
            };
            let rows = (4.0 * 512f64.powf(weyl(i, 0.618_033_988_7))).round() as usize;
            let kind = weyl(i, 0.754_877_666_2);
            if kind < 0.10 {
                let k = i % preloads.len();
                let p = &preloads[k];
                let spec = PRELOAD[k].0.fd_spec();
                return Call {
                    path: "/repair",
                    body: inputs::by_ref_body(&p.id, spec, Notion::Subset),
                    expected: inputs::expected_report(&p.table, &p.fds, &RepairRequest::subset()),
                    by_ref: Some(k),
                };
            }
            let (_, fds, table) = side.generate(rows, true, r.next_u64());
            if kind < 0.15 {
                let request = RepairRequest::subset();
                return Call {
                    path: "/explain",
                    body: inputs::inline_body(&table, &fds, &request),
                    expected: inputs::expected_plan(&table, &fds, &request),
                    by_ref: None,
                };
            }
            // `u` and `mixed` stay at 1,024 rows or fewer. `mixed` also
            // stays above the 64-row exact-enumeration cutoff: at or
            // below it the exact search can exhaust its node budget and
            // panic on these inputs, which no benchmark op may do.
            let notion = match (weyl(i, 0.569_840_290_9) < 0.3, i % 3) {
                (true, 0) if rows <= 1024 => Notion::Update,
                (true, _) if (65..=1024).contains(&rows) => Notion::Mixed,
                _ => Notion::Subset,
            };
            let request = RepairRequest::new(notion);
            Call {
                path: "/repair",
                body: inputs::inline_body(&table, &fds, &request),
                expected: inputs::expected_report(&table, &fds, &request),
                by_ref: None,
            }
        })
        .collect();
    (preloads, calls)
}

/// The `i`-th point of the additive recurrence `frac((i + 1) * alpha)`.
fn weyl(i: usize, alpha: f64) -> f64 {
    ((i + 1) as f64 * alpha).fract()
}

fn endpoint(path: &str) -> &'static str {
    if path == "/explain" {
        "explain"
    } else {
        "repair"
    }
}

/// What one closed-loop client did: calls attempted and failed, and each
/// completed call with the pool index it drew.
struct ClientRun {
    attempted: u64,
    failed: u64,
    records: Vec<(usize, ClientRecord)>,
}

/// One closed-loop client: draw a call, send it on a fresh connection,
/// check the answer, repeat until the deadline.
fn client(
    segment: u32,
    c: usize,
    rng: &mut Rng,
    addr: SocketAddr,
    deadline: Instant,
    zipf: &Zipf,
    pool: &[Call],
) -> ClientRun {
    let mut run = ClientRun {
        attempted: 0,
        failed: 0,
        records: Vec::new(),
    };
    while Instant::now() < deadline {
        let i = zipf.draw(rng);
        let call = &pool[i];
        let request_id = format!("m{segment}.{c}-{}", run.attempted);
        run.attempted += 1;
        match http::call(addr, "POST", call.path, &request_id, call.body.as_bytes()) {
            Ok(x) if x.status == 200 && x.body == call.expected.as_bytes() => {
                let record = ClientRecord {
                    endpoint: endpoint(call.path),
                    request_id,
                    latency: x.latency,
                    ttfb: x.ttfb,
                    bytes_in: x.bytes_in,
                    bytes_out: x.bytes_out,
                };
                run.records.push((i, record));
            }
            _ => run.failed += 1,
        }
    }
    run
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (preloads, pool) = build(ctx.seed);
    let log = ctx.work.join("serve_mixed.access.log");

    // Set-up: spawn until /healthz answers, plus the preload PUTs. Done
    // several times; the last server carries the run.
    let mut setup = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_REPEATS {
        drop(server.take());
        let t = Instant::now();
        let started = Server::start(&ctx.fdrepair, &log, nproc()).map_err(|e| e.to_string())?;
        for p in &preloads {
            let path = format!("/tables/{}", p.id);
            let x = http::call(started.addr, "PUT", &path, "preload", p.doc.as_bytes())
                .map_err(|e| format!("preload PUT: {e}"))?;
            if x.status != 201 {
                return Err(format!("preload PUT answered {}", x.status));
            }
        }
        setup.push(t.elapsed().as_secs_f64());
        server = Some(started);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr;

    let zipf = Zipf::new(POOL, ZIPF_S);
    let before = counters(addr);
    let clients = nproc();
    let mut rngs: Vec<Rng> = (0..clients)
        .map(|c| Rng::new(ctx.seed).fork(0xc11e + c as u64))
        .collect();
    let mut runs: Vec<ClientRun> = Vec::new();
    let mut references = Vec::new();
    // Closed-loop time, without the reference timings between segments.
    let mut wall = Duration::ZERO;
    let run_start = Instant::now();
    let share = ctx.seconds / SEGMENTS;
    for segment in 0..SEGMENTS {
        references.push(reference::time_once(&ctx.work)?);
        let started = Instant::now();
        // The segment's share of the run, less the reference timing
        // before it, but never less than half a share.
        let deadline = (run_start + share * (segment + 1)).max(started + share / 2);
        std::thread::scope(|s| {
            let handles: Vec<_> = rngs
                .iter_mut()
                .enumerate()
                .map(|(c, rng)| {
                    let (zipf, pool) = (&zipf, &pool);
                    s.spawn(move || client(segment, c, rng, addr, deadline, zipf, pool))
                })
                .collect();
            for h in handles {
                runs.push(h.join().expect("client threads do not panic"));
            }
        });
        wall += started.elapsed();
    }
    let after = counters(addr);
    let peak = server
        .peak_rss_mb()
        .ok_or("the server exited during the run")?;
    std::thread::sleep(Duration::from_millis(50));
    drop(server);
    let access = read_access_log(&log);

    let mut entries = Vec::new();
    let mut records = Vec::new();
    for run in runs {
        out.attempted += run.attempted;
        out.failed += run.failed;
        for (i, r) in run.records {
            entries.push(i);
            records.push(r);
        }
    }
    if records.is_empty() {
        return Err("no call completed".into());
    }
    let latencies: Vec<f64> = records.iter().map(|r| ms(r.latency)).collect();
    let tail = tail_quantile(latencies.len());
    // Call times as they would read on a host where the reference job
    // takes `reference::NOMINAL_S`.
    let scale = reference::NOMINAL_S / median(&references);
    out.e2e.insert("setup_s", median(&setup));
    out.e2e.insert("peak_rss_mb", peak);
    out.e2e.insert("op_p50_ms", median(&latencies) * scale);
    out.e2e.insert(
        "ops_per_s",
        records.len() as f64 / (wall.as_secs_f64() * scale),
    );
    out.line(
        "reference_s (median)",
        median(&references),
        &format!("s ({} runs)", references.len()),
    );
    for q in [0.25, 0.5, 0.75] {
        let name = format!("repair_p{}_ms", q * 100.0);
        out.line(&name, quantile(&latencies, q), "ms");
    }
    out.line(
        &format!("repair_p{}_ms", (tail * 1000.0).round() / 10.0),
        quantile(&latencies, tail),
        &format!("ms ({} samples)", latencies.len()),
    );
    out.line(
        "repair_rps",
        records.len() as f64 / wall.as_secs_f64(),
        &format!("calls/s ({clients} closed-loop clients)"),
    );
    serve_layers(&mut out, &records, &access, before, after);
    if let Some(ratio) = out.layers.get("serve.cache_hit_ratio") {
        out.line("cache_hit_ratio", *ratio, "ratio");
    }

    if ctx.trace {
        let modeled = trace(ctx, &mut out, &preloads, &pool)?;
        let mut model_total = 0.0;
        for (r, &i) in records.iter().zip(&entries) {
            let hit = access.get(&r.request_id).and_then(|l| l.cache_hit) == Some(true);
            model_total += if hit { modeled[i].0 } else { modeled[i].1 };
        }
        let client_total: f64 = records.iter().map(|r| us(r.latency)).sum();
        out.layer("trace.coverage", model_total / client_total);
        out.layer(
            "trace.overhead_ms",
            (model_total - client_total) / 1e3 / records.len() as f64,
        );
    }
    Ok(out)
}

/// Times every pool call through the engine's public calls in-process.
/// Returns per call `(wire parse µs, whole in-process pipeline µs)`.
fn trace(
    ctx: &Ctx,
    out: &mut Outcome,
    preloads: &[Preload],
    pool: &[Call],
) -> Result<Vec<(f64, f64)>, String> {
    let limits = inputs::server_limits();
    let mut doc_parse = Vec::new();
    for p in preloads {
        let t = Instant::now();
        std::hint::black_box(parse_table_doc(&p.doc, &limits).map_err(|e| e.to_string())?);
        doc_parse.push(ms(t.elapsed()));
    }
    out.layer("engine.table_doc_parse_ms", median(&doc_parse));
    let largest = ctx.work.join("serve_mixed.preload.json");
    let doc = &preloads.last().expect("preloads").doc;
    std::fs::write(&largest, doc).map_err(|e| e.to_string())?;
    let probe = probe_doc(&largest)?;
    out.layer("core.rss_per_row_bytes", probe["core.rss_per_row_bytes"]);

    let mut s = Samples::default();
    let mut modeled = Vec::with_capacity(pool.len());
    for call in pool {
        let t = Instant::now();
        let parsed = ParsedCall::parse(&call.body, &limits).map_err(|e| e.to_string())?;
        let wire = us(t.elapsed());
        s.wire.push(wire);
        let (table, fds, request) = match parsed {
            ParsedCall::Inline(c) => {
                let t = Instant::now();
                std::hint::black_box(table_fingerprint(&c.table));
                s.fingerprint.push(ms(t.elapsed()));
                (c.table, c.fds, c.request)
            }
            ParsedCall::ByRef(c) => {
                let p = &preloads[call.by_ref.expect("by-ref calls name a preload")];
                let fds = c.resolve_fds(p.table.schema()).map_err(|e| e.to_string())?;
                (p.table.clone(), fds, c.request)
            }
        };
        if call.path == "/explain" {
            let t = Instant::now();
            let body = Planner
                .plan(&table, &fds, &request)
                .map_err(|e| e.to_string())?
                .to_json_value()
                .to_string();
            let explain = us(t.elapsed());
            s.plan.push(explain);
            if body != call.expected {
                return Err("an in-process plan differs from the expectation".into());
            }
            modeled.push((wire, wire + explain));
            continue;
        }
        let (body, times) = time_report(&mut s, &table, &fds, &request)?;
        if body != call.expected {
            return Err("an in-process report differs from the expectation".into());
        }
        modeled.push((wire, wire + us(times.solve + times.build + times.serialize)));
        if request.notion == Notion::Subset {
            time_subset_layers(&mut s, &table, &fds, &request);
        }
    }
    s.report(out);
    Ok(modeled)
}
