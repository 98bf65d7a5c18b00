//! `serve_tables`: the write path beside reads. One closed-loop client
//! (writes to one table are ordered) PUTs a fresh 20k-row table document
//! under a fresh id, deleting the previous one, then runs rounds of a
//! one-op `POST /tables/{id}/mutate` (`set`, `insert` and `delete`
//! rotating by seed), each followed by a by-reference `/repair` that
//! misses the cache (the fingerprint changed) and its repeat, which hits.
//!
//! Every byte goes through JSON parsing, the store, a session primed by
//! a cold solve, `table_fingerprint` and a full-table report. The size
//! is held at 20k rows because `PUT` parsing is quadratic at this commit
//! (about 3 s per PUT here; 100k rows would take minutes).

use crate::http;
use crate::inputs::{self, Side};
use crate::layers::{probe_doc, time_report, time_subset_layers, Samples};
use crate::metrics::Outcome;
use crate::proc::Server;
use crate::reference;
use crate::serve_stats::{counters, read_access_log, serve_layers, ClientRecord};
use crate::util::{median, ms, quantile, tail_quantile, us, Rng};
use crate::Ctx;
use fd_repairs::core::{FdSet, Table, Value};
use fd_repairs::engine::{
    table_fingerprint, IncrementalSession, MutateCall, Notion, ParsedCall, RepairRequest,
    WireMutation,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

pub const WHY: &str =
    "1 client PUTs 20k-row tables, then one-op /mutate, a by-ref /repair that misses and its repeat that hits: the write path beside reads";

const ROWS: usize = 20_000;
/// Tables PUT per run. Fixed, not time-driven: the server's peak RSS
/// grows with the number of PUTs it has parsed, so a run that fits more
/// PUTs in would read as a memory regression.
const TABLES: u64 = 2;
/// Rounds each table gets at least; beyond that, rounds run until the
/// table's share of `--seconds` is used. Every round's by-ref miss caches
/// a full report (about 0.87 MB), so the server's peak RSS grows until its
/// 256-entry LRU is full: 2 × 150 rounds always fill it, and the peak no
/// longer depends on how many rounds fit in the run.
const MIN_ROUNDS: usize = 150;
/// Mutation rounds the traced pass replays in-process.
const TRACED_ROUNDS: usize = 20;
/// Server spawns per run (about 1 ms each); `setup_s` is their median.
const SETUP_REPEATS: usize = 25;
/// One worker: the single closed-loop client never has two calls in
/// flight. With two, the server's peak RSS spread 8-14% between runs of
/// the same code, likely because which worker picked up a call decided
/// which malloc arena its 0.87 MB report landed in; with one, about 1%.
const SERVER_THREADS: usize = 1;
/// Rounds between two timings of the reference job, which scale
/// `op_p50_ms` and `ops_per_s` to the host's speed.
const REFERENCE_EVERY: usize = 50;
/// Fresh-process probes of the PUT's parse per traced run.
const PUT_PROBES: usize = 3;
const FD_SPEC: &str = "K -> A B";
/// The solve-time ceiling `fdrepair serve` clamps every request to by
/// default; the traced session mirrors it, since it decides whether a
/// session takes the delta engine.
const SERVER_TIME_CAP_MS: u64 = 30_000;

/// Everything the timed loop saw.
#[derive(Default)]
struct Timed {
    puts: Vec<f64>,
    mutates: Vec<f64>,
    misses: Vec<f64>,
    hits: Vec<f64>,
    records: Vec<ClientRecord>,
    /// Time spent inside calls, for `ops_per_s`.
    busy: Duration,
    /// Reference job times taken between rounds, in seconds.
    references: Vec<f64>,
    /// The first table, its document and its mutations, for the traced
    /// pass.
    first_table: Option<Table>,
    first_doc: String,
    first_mutations: Vec<WireMutation>,
}

/// The next seeded one-op edit of `table`: `op` 0 sets a cell, 1 inserts
/// a row, 2 deletes one.
fn next_mutation(rng: &mut Rng, table: &Table, op: usize) -> WireMutation {
    let live_id = |rng: &mut Rng| {
        let k = rng.below(table.len());
        u64::from(table.ids().nth(k).expect("k < len").0)
    };
    match op {
        0 => WireMutation::Set {
            id: live_id(rng),
            attr: "A".into(),
            value: Value::Int(rng.below(1000) as i64),
        },
        1 => {
            let key = rng.below(ROWS / 8) as i64;
            let a = if rng.below(2) == 0 {
                key % 1000
            } else {
                rng.below(1000) as i64
            };
            WireMutation::Insert {
                values: vec![Value::Int(key), Value::Int(a), Value::Int(key % 7)],
                weight: (1 + rng.below(5)) as f64,
            }
        }
        _ => WireMutation::Delete { id: live_id(rng) },
    }
}

/// The report a mutate response splices in after its delta: the bytes
/// between `,"report":` and the closing brace.
fn spliced_report(body: &[u8]) -> Option<&[u8]> {
    const KEY: &[u8] = b",\"report\":";
    let start = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    body.get(start..body.len().checked_sub(1)?)
}

/// One timed call: counts it, checks it with `ok`, records it.
struct Client<'a> {
    addr: SocketAddr,
    out: &'a mut Outcome,
    timed: &'a mut Timed,
}

impl Client<'_> {
    fn call(
        &mut self,
        endpoint: &'static str,
        method: &str,
        path: &str,
        body: &str,
        ok: impl FnOnce(u16, &[u8]) -> bool,
    ) -> Option<f64> {
        let request_id = format!("t-{}", self.out.attempted);
        self.out.attempted += 1;
        match http::call(self.addr, method, path, &request_id, body.as_bytes()) {
            Ok(x) if ok(x.status, &x.body) => {
                self.timed.busy += x.latency;
                self.timed.records.push(ClientRecord {
                    endpoint,
                    request_id,
                    latency: x.latency,
                    ttfb: x.ttfb,
                    bytes_in: x.bytes_in,
                    bytes_out: x.bytes_out,
                });
                Some(ms(x.latency))
            }
            _ => {
                self.out.failed += 1;
                None
            }
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let log = ctx.work.join("serve_tables.access.log");
    let mut setup = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_REPEATS {
        drop(server.take());
        let t = Instant::now();
        server =
            Some(Server::start(&ctx.fdrepair, &log, SERVER_THREADS).map_err(|e| e.to_string())?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    let before = counters(server.addr);

    let mut timed = Timed::default();
    let mut rng = Rng::new(ctx.seed).fork(0x7ab1e);
    let rotation = (ctx.seed % 3) as usize;
    let request = RepairRequest::subset();
    let started = Instant::now();
    for cycle in 0..TABLES {
        let cycle_end = started + ctx.seconds.mul_f64((cycle + 1) as f64 / TABLES as f64);
        let (_, fds, mut copy) = Side::Tractable.generate(ROWS, true, ctx.seed ^ (cycle << 32));
        let doc = inputs::table_doc(&copy);
        let first_table = copy.clone();
        let id = format!("t{cycle}");
        let mut client = Client {
            addr: server.addr,
            out: &mut out,
            timed: &mut timed,
        };
        if cycle > 0 {
            let previous = format!("/tables/t{}", cycle - 1);
            client.call("other", "DELETE", &previous, "", |status, _| status == 200);
        }
        let rows_field = format!("\"rows\":{ROWS},");
        let put = client.call(
            "put",
            "PUT",
            &format!("/tables/{id}"),
            &doc,
            |status, body| status == 201 && String::from_utf8_lossy(body).contains(&rows_field),
        );
        let Some(put) = put else {
            break; // every later call on this id would fail the same way
        };
        client.timed.puts.push(put);
        let mutate_path = format!("/tables/{id}/mutate");
        let ref_body = inputs::by_ref_body(&id, FD_SPEC, Notion::Subset);
        let schema = copy.schema().clone();
        let mut round = 0;
        while round < MIN_ROUNDS || Instant::now() < cycle_end {
            if round % REFERENCE_EVERY == 0 {
                client
                    .timed
                    .references
                    .push(reference::time_once(&ctx.work)?);
            }
            let wire = next_mutation(&mut rng, &copy, (round + rotation) % 3);
            let mutation = wire.resolve(&schema).map_err(|e| e.to_string())?;
            copy.apply_mutation(&mutation).map_err(|e| e.to_string())?;
            let expected = inputs::expected_report(&copy, &fds, &request);
            let body = inputs::mutate_body(FD_SPEC, &wire);
            if let Some(t) = client.call("mutate", "POST", &mutate_path, &body, |status, body| {
                status == 200 && spliced_report(body) == Some(expected.as_bytes())
            }) {
                client.timed.mutates.push(t);
            }
            for pass in 0..2 {
                if let Some(t) =
                    client.call("repair", "POST", "/repair", &ref_body, |status, body| {
                        status == 200 && body == expected.as_bytes()
                    })
                {
                    if pass == 0 {
                        client.timed.misses.push(t);
                    } else {
                        client.timed.hits.push(t);
                    }
                }
            }
            if cycle == 0 {
                client.timed.first_mutations.push(wire);
            }
            round += 1;
        }
        if cycle == 0 {
            timed.first_doc = doc;
            timed.first_table = Some(first_table);
        }
    }
    let after = counters(server.addr);
    let peak = server
        .peak_rss_mb()
        .ok_or("the server exited during the run")?;
    std::thread::sleep(Duration::from_millis(50));
    drop(server);
    let access = read_access_log(&log);
    if timed.mutates.is_empty() || timed.puts.is_empty() {
        return Err("no PUT or mutate completed".into());
    }

    let tail = tail_quantile(timed.mutates.len());
    // Call times as they would read on a host where the reference job
    // takes `reference::NOMINAL_S`.
    let scale = reference::NOMINAL_S / median(&timed.references);
    out.e2e.insert("setup_s", median(&setup));
    out.e2e.insert("peak_rss_mb", peak);
    out.e2e.insert("op_p50_ms", median(&timed.mutates) * scale);
    out.e2e.insert(
        "ops_per_s",
        timed.records.len() as f64 / (timed.busy.as_secs_f64() * scale),
    );
    out.line(
        "reference_s (median)",
        median(&timed.references),
        &format!("s ({} runs)", timed.references.len()),
    );
    out.line(
        "put_ms",
        median(&timed.puts),
        &format!("ms ({} PUTs of {ROWS} rows)", timed.puts.len()),
    );
    out.line("mutate_p50_ms", median(&timed.mutates), "ms");
    out.line(
        &format!("mutate_p{}_ms", (tail * 1000.0).round() / 10.0),
        quantile(&timed.mutates, tail),
        &format!("ms ({} samples)", timed.mutates.len()),
    );
    out.line(
        "ref_repair_p50_ms",
        median(&timed.misses),
        "ms (cache miss)",
    );
    out.line(
        "ref_repair_hit_p50_ms",
        median(&timed.hits),
        "ms (cache hit)",
    );
    serve_layers(&mut out, &timed.records, &access, before, after);

    if ctx.trace {
        trace(ctx, &mut out, &timed)?;
    }
    Ok(out)
}

/// The in-process pass: the first table's PUT and mutation rounds through
/// the same public calls the server makes, each timed.
fn trace(ctx: &Ctx, out: &mut Outcome, timed: &Timed) -> Result<(), String> {
    let limits = inputs::server_limits();
    // The PUT's two steps, each probe in a fresh process.
    let doc = ctx.work.join("serve_tables.doc.json");
    std::fs::write(&doc, &timed.first_doc).map_err(|e| e.to_string())?;
    let mut probes: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for _ in 0..PUT_PROBES {
        for (name, value) in probe_doc(&doc)? {
            probes.entry(name).or_default().push(value);
        }
    }
    let _ = std::fs::remove_file(&doc);
    let probed = |name: &str| probes.get(name).map_or(0.0, |v| median(v));
    let put_pipeline = probed("engine.table_doc_parse_ms") + probed("engine.fingerprint_ms");
    let put_ms = median(&timed.puts);
    out.layer(
        "engine.table_doc_parse_ms",
        probed("engine.table_doc_parse_ms"),
    );
    out.layer("core.rss_per_row_bytes", probed("core.rss_per_row_bytes"));
    out.layer("trace.coverage", put_pipeline / put_ms);
    out.layer("trace.overhead_ms", put_pipeline - put_ms);

    // The mutation rounds, replayed in-process from the first table.
    let mut table = timed.first_table.clone().ok_or("no table was stored")?;
    let fds = FdSet::parse(table.schema(), FD_SPEC).map_err(|e| e.to_string())?;
    let mut s = Samples::default();
    let mut mutate_pipeline = Vec::new();
    let ref_body = inputs::by_ref_body("t0", FD_SPEC, Notion::Subset);
    for wire in timed.first_mutations.iter().take(TRACED_ROUNDS) {
        let body = inputs::mutate_body(FD_SPEC, wire);
        let t = Instant::now();
        let call = MutateCall::parse(&body, &limits).map_err(|e| e.to_string())?;
        let parse = t.elapsed();
        let request = call.request.time_cap_ms(SERVER_TIME_CAP_MS);
        let t = Instant::now();
        let mut session = IncrementalSession::new(table.clone(), fds.clone(), request)
            .map_err(|e| e.to_string())?;
        let new = t.elapsed();
        let t = Instant::now();
        let mutation = wire.resolve(table.schema()).map_err(|e| e.to_string())?;
        session.apply(&mutation).map_err(|e| e.to_string())?;
        let apply = t.elapsed();
        let t = Instant::now();
        let spliced = session.report().map_err(|e| e.to_string())?.to_json();
        let report = t.elapsed();
        table = session.table().clone();
        let t = Instant::now();
        std::hint::black_box(table_fingerprint(&table));
        let fingerprint = t.elapsed();
        s.mutate_parse.push(us(parse));
        s.session_new.push(ms(new));
        s.session_apply.push(us(apply));
        s.session_report.push(ms(report));
        s.fingerprint.push(ms(fingerprint));
        mutate_pipeline.push(ms(parse + new + apply + report + fingerprint));

        // The by-reference /repair that follows: wire parse, plan, solve,
        // report build and serialization against the mutated table.
        let t = Instant::now();
        let ParsedCall::ByRef(call) =
            ParsedCall::parse(&ref_body, &limits).map_err(|e| e.to_string())?
        else {
            return Err("the by-reference body parsed as inline".into());
        };
        s.wire.push(us(t.elapsed()));
        let request = call.request;
        let body = time_report(&mut s, &table, &fds, &request)?.0;
        if body != spliced {
            return Err("a session report differs from a cold solve".into());
        }
        time_subset_layers(&mut s, &table, &fds, &request);
    }
    s.report(out);
    out.line(
        "traced mutate pipeline_ms (median)",
        median(&mutate_pipeline),
        "ms (parse + session new/apply/report + fingerprint)",
    );
    Ok(())
}
