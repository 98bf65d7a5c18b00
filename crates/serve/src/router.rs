//! Request routing: the endpoints, wire parsing, the result table,
//! engine invocation, and the 4xx/5xx mapping that keeps every
//! malformed or infeasible call a *response* rather than a crash.
//!
//! `/repair` and `/explain` accept either an inline table or
//! `"table_ref": "<id>"` naming a table stored via `PUT /tables/{id}`
//! (tables at rest, namespaced by the sanitized `X-Tenant` header).
//! One resolver, [`resolve`], turns either shape into the call the
//! engine runs and its cache slot, for the worker and for the IO
//! thread's [`fast_path`] alike, so a fast-path hit is exactly the
//! entry a solve filed. A cacheable call claims its slot in
//! [`crate::ResultCache`], so concurrent identical calls run one solve
//! and replay its bytes.
//! `POST /tables/{id}/mutate` replays a mutation trace against a stored
//! table through an [`IncrementalSession`] — the one kept at rest beside
//! the snapshot when the call's `(fds, request)` matches it — and
//! answers with the mutation delta plus a repair report byte-identical
//! to a cold solve of the mutated table.
//!
//! Observability rides alongside routing but never inside it: the
//! request id, per-request trace, and [`RequestInfo`] the access log
//! consumes are all derived *around* the report bytes. Cache keys and
//! cached bodies are computed exactly as before tracing existed, and a
//! `?trace=1` envelope wraps the verbatim report rather than editing
//! it, so replies stay bit-identical whether or not anyone is watching.

use crate::http::{Request, Response, Segment};
use crate::store::{StoreError, StoredTable};
use crate::{MutatePath, Served, Shared, Solved};
use fd_core::{FdSet, MutationEffect, Schema, Table};
use fd_engine::{
    parse_table_doc, table_fingerprint, EngineError, Fnv64, IncrementalSession, Json, JsonLimits,
    MutateCall, Notion, ParsedCall, Planner, RefCall, RepairCall, RepairEngine, RepairReport,
    RepairRequest, Timings, WireError,
};
use std::hash::Hasher;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinguishes `/repair` from `/explain` in the cache-key space: the
/// two endpoints return different documents for the same call.
const EXPLAIN_KEY_TAG: u64 = 0x9e37_79b9_7f4a_7c15;

/// Longest `X-Request-Id` value the server will echo rather than
/// replace.
const MAX_REQUEST_ID_LEN: usize = 64;

/// What one routed request looked like, for the access log and the
/// labeled metrics. Produced next to the [`Response`], never encoded
/// into it (the `request_id` response header and the `?trace=1`
/// envelope are additive wrappers around unchanged report bytes).
#[derive(Clone, Debug)]
pub struct RequestInfo {
    /// The id echoed in `X-Request-Id` (client-supplied or generated).
    pub request_id: String,
    /// Which endpoint label the request counts under (`repair`,
    /// `explain`, `healthz`, `metrics`, or `other`).
    pub endpoint: &'static str,
    /// The parsed notion, once known.
    pub notion: Option<Notion>,
    /// Rows in the submitted instance, once parsed.
    pub rows: Option<usize>,
    /// Conflict components the solve reported (subset path only).
    pub components: Option<usize>,
    /// Result-cache outcome for cacheable calls.
    pub cache_hit: Option<bool>,
    /// Engine time, µs (0 when nothing was solved).
    pub solve_us: u64,
    /// Time spent writing the report's bytes, µs: set on `/repair`
    /// misses and on `/mutate`, 0 on cache hits and errors.
    pub serialize_us: u64,
    /// Time spent parsing the request body, µs: set on `/repair`,
    /// `/explain`, PUT and mutate, wherever the one parse ran (the IO
    /// thread's, for a fast-path miss handed to a worker); 0 when a
    /// memoized probe answered without parsing.
    pub parse_us: u64,
    /// Time spent fingerprinting the table to store, µs: set on PUT and
    /// mutate, 0 everywhere else.
    pub fingerprint_us: u64,
}

impl RequestInfo {
    /// What is known of a request before routing: its id, and nothing
    /// else.
    pub(crate) fn new(request_id: String) -> RequestInfo {
        RequestInfo {
            request_id,
            endpoint: "other",
            notion: None,
            rows: None,
            components: None,
            cache_hit: None,
            solve_us: 0,
            serialize_us: 0,
            parse_us: 0,
            fingerprint_us: 0,
        }
    }
}

/// Dispatches one parsed request to its endpoint. Every response
/// carries an `X-Request-Id` header: the client's own (when it sent a
/// well-formed one) or a generated `req-<n>`. A `/repair` or `/explain`
/// call the fast path already took as far as it could comes `prepared`,
/// and is not parsed again.
pub(crate) fn handle(
    shared: &Shared,
    request: &Request,
    prepared: Option<Box<Prepared>>,
) -> (Response, RequestInfo) {
    let (path, query) = match request.path.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (request.path.as_str(), None),
    };
    let trace = query.is_some_and(|q| q.split('&').any(|p| p == "trace=1"));
    let mut info = RequestInfo::new(request_id_for(shared, request));
    let response = match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            info.endpoint = "healthz";
            healthz(shared)
        }
        ("GET", "/metrics") => {
            info.endpoint = "metrics";
            Response::text(200, shared.metrics.render())
        }
        ("POST", "/repair") => {
            info.endpoint = "repair";
            repair(
                shared,
                request,
                Endpoint::Repair,
                trace,
                prepared,
                &mut info,
            )
        }
        ("POST", "/explain") => {
            info.endpoint = "explain";
            repair(
                shared,
                request,
                Endpoint::Explain,
                trace,
                prepared,
                &mut info,
            )
        }
        (_, p) if p == "/tables" || p.starts_with("/tables/") => {
            info.endpoint = "tables";
            tables(shared, request, p, trace, &mut info)
        }
        ("GET" | "HEAD", "/repair" | "/explain") | ("POST", "/healthz" | "/metrics") => {
            Response::error(405, "wrong method for this path")
        }
        _ => Response::error(
            404,
            "no such endpoint (try /repair, /explain, /tables/{id}, /healthz, /metrics)",
        ),
    };
    let response = response.with_header("X-Request-Id", info.request_id.clone());
    (response, info)
}

/// Largest body the IO thread will parse inline. Bigger bodies always
/// take the worker queue: inline parse cost scales with the table, and
/// the event loop must never stall behind one request.
const FAST_PATH_MAX_BODY: usize = 16 * 1024;

/// A memoized fast-path probe: the cache slot, notion and row count
/// [`resolve`] derived from one inline body, which are pure functions
/// of the raw bytes (and fixed server config), so a byte-identical
/// repeat probes the result cache without parsing again.
///
/// The memo is keyed by an FNV hash of (endpoint, raw body) and the
/// stored bytes are compared on every lookup, so a hash collision
/// degrades to a re-parse, never to a wrong cache key. By-ref calls are
/// never memoized: their cache key hashes the *stored table's*
/// fingerprint, which a `DELETE` + re-`PUT` changes out from under
/// unchanged request bytes.
#[derive(Clone)]
pub(crate) struct ProbeMemo {
    body: Arc<[u8]>,
    slot: Slot,
    notion: Notion,
    rows: usize,
}

/// Serves a request on the IO thread, without a worker hop, when it is
/// provably cheap: `GET /healthz` (so liveness stays answerable even
/// with the worker queue saturated) and clean result-cache hits for
/// small, untraced `/repair`/`/explain` bodies. Everything else — cache
/// misses included — comes back as `Err` and takes the queue, with the
/// body's [`Prepared`] call when the probe parsed it, so the worker
/// never parses a body twice. Repeat probes for byte-identical inline
/// bodies skip even the parse via [`ProbeMemo`].
///
/// The slot probed is the one [`resolve`] derives for the worker, so
/// responses and metrics are byte-for-byte what [`handle`] would have
/// produced for the same request; only the thread differs.
pub(crate) fn fast_path(
    shared: &Shared,
    request: &Request,
) -> Result<(Response, RequestInfo), Option<Box<Prepared>>> {
    if request.path.contains('?') {
        return Err(None); // `?trace=1` needs a collector; take the full path
    }
    let endpoint = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => return Ok(handle(shared, request, None)),
        ("POST", "/repair") => Endpoint::Repair,
        ("POST", "/explain") => Endpoint::Explain,
        _ => return Err(None),
    };
    if request.body.len() > FAST_PATH_MAX_BODY || shared.config.cache_entries == 0 {
        return Err(None); // with caching off a probe can never hit: skip the parse
    }
    // Byte-identical repeat of a memoized inline body: straight to the
    // cache probe, no parse.
    let mut hasher = Fnv64::new();
    hasher.write_u8(endpoint as u8);
    hasher.write(&request.body);
    let body_hash = hasher.finish();
    let memo = shared
        .probe_memo
        .lock()
        .ok()
        .and_then(|mut memos| memos.get(body_hash).cloned())
        .filter(|memo| memo.body.as_ref() == request.body.as_slice());
    let (slot, notion, rows, prepared) = match memo {
        Some(memo) => (memo.slot, memo.notion, memo.rows, None),
        None => {
            let prepared = Box::new(prepare(shared, request, endpoint));
            let Ok(call) = &prepared.call else {
                return Err(Some(prepared));
            };
            let Some(slot) = call.slot.clone() else {
                return Err(Some(prepared));
            };
            let (notion, rows) = (call.request.notion, call.instance.table().len());
            if let (Instance::Inline(_), Ok(mut memos)) = (&call.instance, shared.probe_memo.lock())
            {
                let body = Arc::from(request.body.as_slice());
                let slot = slot.clone();
                memos.insert(
                    body_hash,
                    ProbeMemo {
                        body,
                        slot,
                        notion,
                        rows,
                    },
                );
            }
            (slot, notion, rows, Some(prepared))
        }
    };
    let Some(body) = shared.cache.get(slot.key, &slot.canonical) else {
        return Err(prepared);
    };
    let mut info = RequestInfo::new(request_id_for(shared, request));
    info.endpoint = endpoint.name();
    info.notion = Some(notion);
    info.rows = Some(rows);
    info.cache_hit = Some(true);
    info.parse_us = prepared.map_or(0, |prepared| prepared.parse_us);
    shared.metrics.observe_notion(notion);
    shared.metrics.observe_cache(true);
    let response = ok_response(shared, body, "hit", None, &info)
        .with_header("X-Request-Id", info.request_id.clone());
    Ok((response, info))
}

/// The client's `X-Request-Id` when it is printable and short enough to
/// echo safely (ASCII alphanumerics plus `-`, `_`, `.`), otherwise a
/// fresh `req-<n>` from the server's own counter.
fn request_id_for(shared: &Shared, request: &Request) -> String {
    match request.header("x-request-id") {
        Some(id) if valid_name(id) => id.to_string(),
        _ => shared.next_request_id(),
    }
}

fn healthz(shared: &Shared) -> Response {
    let doc = Json::obj([
        ("status", Json::str("ok")),
        ("service", Json::str("fd-serve")),
        ("version", Json::str(env!("CARGO_PKG_VERSION"))),
        (
            "uptime_seconds",
            Json::Num(shared.started.elapsed().as_secs() as f64),
        ),
    ]);
    Response::json(200, doc.to_string())
}

#[derive(Clone, Copy, PartialEq)]
enum Endpoint {
    Repair,
    Explain,
}

impl Endpoint {
    fn name(self) -> &'static str {
        match self {
            Endpoint::Repair => "repair",
            Endpoint::Explain => "explain",
        }
    }
}

/// A call's place in the result cache: the key it is filed under and
/// the canonical form a hit is verified against.
#[derive(Clone)]
struct Slot {
    key: u64,
    canonical: Arc<str>,
}

/// What a cache slot is derived from: an inline call, or a by-ref call
/// against one snapshot of its stored table (fingerprint, resolved Δ,
/// schema).
enum Keyed<'a> {
    Inline(&'a RepairCall),
    Stored(&'a RefCall, u64, &'a FdSet, &'a Schema),
}

/// The one derivation of a `/repair` or `/explain` cache slot. A by-ref
/// key hashes the snapshot's fingerprint (O(Δ + request), never the
/// rows) and its canonical form pins it, so a deleted-then-reuploaded
/// id can never replay stale bytes. [`resolve`] takes every call's slot
/// from here, for the worker and the fast path alike, and a mutate
/// publishing the read it answers takes that read's slot from here too.
fn slot(endpoint: Endpoint, keyed: Keyed<'_>) -> Slot {
    let name = endpoint.name();
    let (key, canonical) = match keyed {
        Keyed::Inline(call) => (call.cache_key(), format!("{name}\n{}", call.canonical())),
        Keyed::Stored(call, fingerprint, fds, schema) => (
            call.cache_key(fingerprint, fds, schema),
            format!("{name}\n{}", call.canonical(fingerprint, fds, schema)),
        ),
    };
    Slot {
        key: match endpoint {
            Endpoint::Repair => key,
            Endpoint::Explain => key ^ EXPLAIN_KEY_TAG,
        },
        canonical: Arc::from(canonical),
    }
}

/// Follower wait when the server caps no solve times: long enough that
/// only a wedged leader triggers a duplicate solve.
const UNCAPPED_FLIGHT_WAIT: Duration = Duration::from_secs(600);

/// How long a coalescing follower waits for its leader before giving up
/// and solving itself. The leader's engine time is bounded by the
/// clamped budget; the margin covers queueing and serialization.
fn flight_wait_cap(shared: &Shared) -> Duration {
    match shared.config.default_time_cap_ms {
        Some(ms) => Duration::from_millis(ms.saturating_mul(2).saturating_add(5_000)),
        None => UNCAPPED_FLIGHT_WAIT,
    }
}

/// The server's time cap is a ceiling: a request may ask for less,
/// never for more.
fn clamp_time_cap(shared: &Shared, request: &mut RepairRequest) {
    if let Some(server_cap) = shared.config.default_time_cap_ms {
        let cap = request
            .budgets
            .time_cap_ms
            .map_or(server_cap, |c| c.min(server_cap));
        request.budgets.time_cap_ms = Some(cap);
    }
}

/// `/repair` and `/explain` share everything up to the engine call:
/// [`prepare`] (bounded parsing and [`resolve`]) and the result table.
///
/// With `trace` set, a per-request collector observes the solve and the
/// 200 response becomes `{"request_id","trace","report"}` where
/// `report` is the *exact* bytes a traceless call would have returned
/// (and the exact bytes the cache stores — hits under `?trace=1` wrap
/// the cached body unchanged).
fn repair(
    shared: &Shared,
    request: &Request,
    endpoint: Endpoint,
    trace: bool,
    prepared: Option<Box<Prepared>>,
    info: &mut RequestInfo,
) -> Response {
    let collector = trace.then(fd_trace::Collector::default);
    let _trace_guard = collector.as_ref().map(fd_trace::Collector::install);
    let prepared = prepared.map_or_else(|| prepare(shared, request, endpoint), |p| *p);
    info.parse_us = prepared.parse_us;
    if let Some(notion) = prepared.notion {
        shared.metrics.observe_notion(notion);
        info.notion = Some(notion);
    }
    match prepared.call {
        Ok(call) => {
            info.rows = Some(call.instance.table().len());
            solve_and_respond(shared, &call, collector, info)
        }
        Err(Refused::Body(response) | Refused::Tenant(response)) => response,
        Err(Refused::UnknownRef) => store_error_response(&StoreError::NotFound),
        Err(Refused::Fds { rows, error }) => {
            info.rows = Some(rows);
            Response::error(400, &error.message)
        }
    }
}

/// A `/repair` or `/explain` body taken as far as the server goes
/// before solving: parsed once, then resolved, or refused. The fast
/// path hands a call it prepared but could not answer to the worker in
/// this form.
pub(crate) struct Prepared {
    /// How long the body's parse took, µs.
    parse_us: u64,
    /// The call's notion, once the body parsed.
    notion: Option<Notion>,
    call: Result<Resolved, Refused>,
}

/// Parses a `/repair` or `/explain` body and [`resolve`]s the call.
fn prepare(shared: &Shared, request: &Request, endpoint: Endpoint) -> Prepared {
    let mut parse_us = 0;
    let rows = |call: &ParsedCall| match call {
        ParsedCall::Inline(call) => call.table.len(),
        ParsedCall::ByRef(_) => 0,
    };
    let (notion, call) = match parse_body(shared, request, &mut parse_us, ParsedCall::parse, rows) {
        Ok(call) => (
            Some(call.request().notion),
            resolve(shared, request, endpoint, call),
        ),
        Err(response) => (None, Err(Refused::Body(response))),
    };
    Prepared {
        parse_us,
        notion,
        call,
    }
}

/// A `/repair` or `/explain` call resolved against the server, ready
/// for the engine.
struct Resolved {
    endpoint: Endpoint,
    instance: Instance,
    fds: FdSet,
    /// The call's request, its time cap clamped to the server's.
    request: RepairRequest,
    include_timings: bool,
    /// Where the call is cached; `None` when it is not cacheable.
    slot: Option<Slot>,
}

/// The table a call runs against: its own, or one stored at rest.
enum Instance {
    Inline(Table),
    Stored(Arc<StoredTable>),
}

impl Instance {
    fn table(&self) -> &Table {
        match self {
            Instance::Inline(table) => table,
            Instance::Stored(stored) => &stored.table,
        }
    }
}

/// Why a call has nothing to run against: a body that does not parse
/// (with its 400), or, for a by-ref call, a bad `X-Tenant` header (with
/// its 400), no table under the ref, or a Δ that does not parse against
/// the stored schema. Only the worker answers these.
enum Refused {
    Body(Response),
    Tenant(Response),
    UnknownRef,
    Fds { rows: usize, error: WireError },
}

/// The one resolver of `/repair` and `/explain` calls: a by-ref call's
/// table comes from the tenant's store and its Δ is parsed against that
/// table's schema, the time cap is clamped to the server's, and a
/// cacheable call gets its [`slot`]. The worker solves what it returns;
/// the fast path probes the cache with its slot.
fn resolve(
    shared: &Shared,
    request: &Request,
    endpoint: Endpoint,
    call: ParsedCall,
) -> Result<Resolved, Refused> {
    let (instance, fds, request, include_timings, slot) = match call {
        ParsedCall::Inline(mut call) => {
            clamp_time_cap(shared, &mut call.request);
            let slot = call
                .cacheable()
                .then(|| slot(endpoint, Keyed::Inline(&call)));
            let instance = Instance::Inline(call.table);
            (instance, call.fds, call.request, call.include_timings, slot)
        }
        ParsedCall::ByRef(mut call) => {
            let tenant = tenant_of(request).map_err(Refused::Tenant)?;
            let stored = shared
                .store
                .get(&tenant, &call.table_ref)
                .ok_or(Refused::UnknownRef)?;
            let schema = stored.table.schema();
            let fds = call.resolve_fds(schema).map_err(|error| Refused::Fds {
                rows: stored.rows,
                error,
            })?;
            clamp_time_cap(shared, &mut call.request);
            let slot = call.cacheable().then(|| {
                let keyed = Keyed::Stored(&call, stored.fingerprint, &fds, schema);
                slot(endpoint, keyed)
            });
            let instance = Instance::Stored(stored);
            (instance, fds, call.request, call.include_timings, slot)
        }
    };
    Ok(Resolved {
        endpoint,
        instance,
        fds,
        request,
        include_timings,
        slot,
    })
}

/// Result table → response: a cacheable call goes through
/// [`serve_cached`], anything else solves.
///
/// 200s get the cache-state header and (with a collector) the trace
/// envelope; error bodies ship as-is — identical deterministic calls
/// fail identically, so a replayed error is as correct as a replayed
/// report.
fn solve_and_respond(
    shared: &Shared,
    call: &Resolved,
    collector: Option<fd_trace::Collector>,
    info: &mut RequestInfo,
) -> Response {
    let (result, served) = match &call.slot {
        None => (solve_now(shared, call, info), Served::Miss),
        Some(slot) => {
            let (result, served) = serve_cached(shared, slot, || solve_now(shared, call, info));
            info.cache_hit = Some(served == Served::Hit);
            (result, served)
        }
    };
    if result.status == 200 {
        ok_response(shared, result.body, served.name(), collector, info)
    } else {
        Response::json_segments(result.status, vec![Segment::Shared(result.body)])
    }
}

/// Answers one cacheable call through the result table and counts it
/// once as a hit, a miss or coalesced, which keeps
/// `hits + misses + coalesced == cacheable calls` and
/// `misses == solves`.
fn serve_cached(shared: &Shared, slot: &Slot, solve: impl FnOnce() -> Solved) -> (Solved, Served) {
    let wait_cap = flight_wait_cap(shared);
    let (result, served) = shared
        .cache
        .serve(slot.key, &slot.canonical, wait_cap, solve);
    match served {
        Served::Coalesced => shared.metrics.observe_coalesced(),
        hit_or_miss => shared.metrics.observe_cache(hit_or_miss == Served::Hit),
    }
    (result, served)
}

/// Runs the engine once and returns its status and body, in the one
/// allocation the response and (for a leader's 200) the done entry
/// share.
fn solve_now(shared: &Shared, call: &Resolved, info: &mut RequestInfo) -> Solved {
    let solve_start = Instant::now();
    let table = call.instance.table();
    let result = match call.endpoint {
        Endpoint::Repair => Planner
            .run(table, &call.fds, &call.request)
            .map(|mut report| {
                info.components = report.components.as_ref().map(|c| c.count);
                if !call.include_timings {
                    report.timings = Timings::default();
                }
                report_bytes(&report, Vec::new(), info)
            }),
        Endpoint::Explain => Planner
            .plan(table, &call.fds, &call.request)
            .map(|plan| plan.to_json_value().to_string().into_bytes()),
    };
    observe_solve(shared, info, call.request.notion, solve_start);
    match result {
        Ok(body) => Solved {
            status: 200,
            body: shared_body(body),
        },
        Err(e) => {
            let (status, body) = engine_error_body(&e, call.request.notion);
            let body = Arc::new(body.into_bytes());
            Solved { status, body }
        }
    }
}

/// Records a solve's engine time since `start` on `info` and the
/// metrics, with the component count `info` carries, if any.
fn observe_solve(shared: &Shared, info: &mut RequestInfo, notion: Notion, start: Instant) {
    info.solve_us = start.elapsed().as_micros() as u64;
    shared.metrics.observe_notion_latency(notion, info.solve_us);
    if let Some(count) = info.components {
        shared.metrics.observe_components(count as u64);
    }
}

/// The report's bytes, written into `buf` (cleared first), with the
/// time the writer took recorded in `info.serialize_us`.
fn report_bytes(report: &RepairReport, buf: Vec<u8>, info: &mut RequestInfo) -> Vec<u8> {
    let start = Instant::now();
    let bytes = report.to_json_bytes_in(buf);
    info.serialize_us = start.elapsed().as_micros() as u64;
    bytes
}

/// The one allocation a report's bytes live in while the cache and the
/// responses shipping them share it. The writer sizes its buffer from a
/// generous hint; trimming the slack, in place, keeps a full cache from
/// holding more than the bytes themselves.
fn shared_body(mut body: Vec<u8>) -> Arc<Vec<u8>> {
    body.shrink_to_fit();
    Arc::new(body)
}

/// Builds the 200 response for `body` (the report/plan bytes). Without
/// a collector the body ships as-is; with one, it is spliced verbatim
/// into the trace envelope — the report bytes are never re-serialized
/// or copied, so tracing cannot perturb them.
fn ok_response(
    shared: &Shared,
    body: Arc<Vec<u8>>,
    cache_state: &'static str,
    collector: Option<fd_trace::Collector>,
    info: &RequestInfo,
) -> Response {
    let segments = match collector {
        None => vec![Segment::Shared(body)],
        // The id charset is sanitized on ingress, so quoting it directly
        // cannot break the JSON.
        collector => {
            let trace = trace_member(shared, collector);
            let prefix = format!(
                "{{\"request_id\":\"{}\"{trace},\"report\":",
                info.request_id
            );
            enveloped(prefix, body)
        }
    };
    Response::json_segments(200, segments).with_header("X-Fd-Cache", cache_state)
}

/// `,"trace":{…}` with the collector's spans as Chrome trace JSON, or
/// nothing without a collector: the member PUT and mutate add to their
/// response objects under `?trace=1`.
fn trace_member(shared: &Shared, collector: Option<fd_trace::Collector>) -> String {
    match collector {
        None => String::new(),
        Some(collector) => {
            shared.metrics.observe_trace_dropped(collector.dropped());
            format!(",\"trace\":{}", collector.to_chrome_json())
        }
    }
}

/// `prefix`, then the shared report, then the brace that closes the
/// object `prefix` opened: an envelope around a report that neither
/// re-serializes nor copies it.
fn enveloped(prefix: String, report: Arc<Vec<u8>>) -> Vec<Segment> {
    vec![
        Segment::Owned(prefix.into_bytes()),
        Segment::Shared(report),
        Segment::Owned(b"}".to_vec()),
    ]
}

/// Engine failures are the client's problem (4xx), each with a stable
/// `kind` so clients can branch without parsing prose.
fn engine_error_body(e: &EngineError, notion: Notion) -> (u16, String) {
    let (status, kind) = match e {
        EngineError::InvalidRequest(_) => (400, "invalid_request"),
        EngineError::InvalidProbability(_) => (422, "invalid_probability"),
        EngineError::ExactInfeasible(_) => (422, "exact_infeasible"),
        EngineError::RatioUnattainable { .. } => (422, "ratio_unattainable"),
        EngineError::NotAChain(_) => (422, "not_a_chain"),
        EngineError::TimeBudgetExceeded { .. } => (408, "time_budget_exceeded"),
    };
    let doc = Json::obj([
        ("error", Json::str(e.to_string())),
        ("kind", Json::str(kind)),
        ("notion", Json::str(notion.name())),
    ]);
    (status, doc.to_string())
}

/// The body as UTF-8 text, with the limits every wire parser runs it
/// under, or the 400 for a body that is not UTF-8: the one prologue of
/// every endpoint that takes a JSON body.
fn body_text<'r>(shared: &Shared, request: &'r Request) -> Result<(&'r str, JsonLimits), Response> {
    let limits = JsonLimits {
        max_bytes: shared.config.max_body_bytes,
        max_depth: JsonLimits::DEFAULT_MAX_DEPTH,
    };
    match std::str::from_utf8(&request.body) {
        Ok(text) => Ok((text, limits)),
        Err(_) => Err(Response::error(400, "body is not UTF-8")),
    }
}

/// The one parse site of every endpoint that takes a JSON body: the
/// body parsed by `parse`, or the 400 answering a body that
/// [`body_text`] or `parse` refuses. Opens the `wire/parse` span (with
/// the body's `bytes` and, once parsed, its `rows`) and records the
/// parse's time in `parse_us`.
fn parse_body<T>(
    shared: &Shared,
    request: &Request,
    parse_us: &mut u64,
    parse: fn(&str, &JsonLimits) -> Result<T, WireError>,
    rows: fn(&T) -> usize,
) -> Result<T, Response> {
    let start = Instant::now();
    let mut span = fd_trace::span("wire/parse");
    span.attr("bytes", request.body.len());
    let parsed = body_text(shared, request).and_then(|(text, limits)| {
        parse(text, &limits).map_err(|e| Response::error(400, &e.message))
    });
    if let Ok(parsed) = &parsed {
        span.attr("rows", rows(parsed));
    }
    drop(span);
    *parse_us = start.elapsed().as_micros() as u64;
    parsed
}

/// Charset shared by request ids, tenant names and table ids: 1–64
/// chars of `[A-Za-z0-9._-]` — safe to embed in paths, logs, and JSON
/// verbatim.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_REQUEST_ID_LEN
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
}

/// The tenant namespace for stored tables: the sanitized `X-Tenant`
/// header, defaulting to `public`. A malformed header is a 400, never a
/// silent merge into someone else's namespace.
fn tenant_of(request: &Request) -> Result<String, Response> {
    match request.header("x-tenant") {
        None => Ok("public".to_string()),
        Some(tenant) if valid_name(tenant) => Ok(tenant.to_string()),
        Some(_) => Err(Response::error(
            400,
            "X-Tenant must be 1-64 chars of [A-Za-z0-9._-]",
        )),
    }
}

/// `PUT`/`GET`/`DELETE /tables/{id}` (tables at rest) and the one
/// sub-resource, `POST /tables/{id}/mutate` (tables in motion). With
/// `trace` set, PUT and mutate install a per-request collector and add
/// a `"trace"` member to their response objects.
fn tables(
    shared: &Shared,
    request: &Request,
    path: &str,
    trace: bool,
    info: &mut RequestInfo,
) -> Response {
    let Some(rest) = path.strip_prefix("/tables/") else {
        return Response::error(404, "tables live under /tables/{id}");
    };
    let (id, mutate) = rest
        .strip_suffix("/mutate")
        .map_or((rest, false), |id| (id, true));
    if !valid_name(id) {
        return Response::error(400, "table ids are 1-64 chars of [A-Za-z0-9._-]");
    }
    let tenant = match tenant_of(request) {
        Ok(tenant) => tenant,
        Err(response) => return response,
    };
    match (request.method.as_str(), mutate) {
        ("POST", true) => mutate_table(shared, request, &tenant, id, trace, info, || {}),
        ("PUT", false) => put_table(shared, request, &tenant, id, trace, info),
        ("GET", false) => get_table(shared, &tenant, id, info),
        ("DELETE", false) => delete_table(shared, &tenant, id),
        _ => Response::error(405, "wrong method for this path"),
    }
}

fn put_table(
    shared: &Shared,
    request: &Request,
    tenant: &str,
    id: &str,
    trace: bool,
    info: &mut RequestInfo,
) -> Response {
    let collector = trace.then(fd_trace::Collector::default);
    let _trace_guard = collector.as_ref().map(fd_trace::Collector::install);
    let table = match parse_body(
        shared,
        request,
        &mut info.parse_us,
        parse_table_doc,
        Table::len,
    ) {
        Ok(table) => table,
        Err(response) => return response,
    };
    info.rows = Some(table.len());
    // Fingerprinted once at PUT; every by-ref call keys off this value
    // instead of rehashing rows.
    let fingerprint = timed_fingerprint(&table, info);
    match shared.store.put(tenant, id, table, fingerprint) {
        Ok(stored) => {
            shared.metrics.table_stored();
            let doc = table_doc("stored", id, tenant, &stored);
            // Close the object after the trace member, if any.
            let open = &doc[..doc.len() - 1];
            Response::json(201, format!("{open}{}}}", trace_member(shared, collector)))
        }
        Err(e) => store_error_response(&e),
    }
}

/// [`table_fingerprint`], with its time recorded in
/// `info.fingerprint_us`.
fn timed_fingerprint(table: &Table, info: &mut RequestInfo) -> u64 {
    let start = Instant::now();
    let fingerprint = table_fingerprint(table);
    info.fingerprint_us = start.elapsed().as_micros() as u64;
    fingerprint
}

fn get_table(shared: &Shared, tenant: &str, id: &str, info: &mut RequestInfo) -> Response {
    match shared.store.get(tenant, id) {
        Some(stored) => {
            info.rows = Some(stored.rows);
            Response::json(200, table_doc("id", id, tenant, &stored))
        }
        None => store_error_response(&StoreError::NotFound),
    }
}

/// A stored table's id (under `name`), tenant, rows and fingerprint:
/// the object PUT and GET answer with.
fn table_doc(name: &'static str, id: &str, tenant: &str, stored: &StoredTable) -> String {
    let fingerprint = format!("{:016x}", stored.fingerprint);
    Json::obj([
        (name, Json::str(id)),
        ("tenant", Json::str(tenant)),
        ("rows", Json::Num(stored.rows as f64)),
        ("fingerprint", Json::str(fingerprint)),
    ])
    .to_string()
}

fn delete_table(shared: &Shared, tenant: &str, id: &str) -> Response {
    match shared.store.remove(tenant, id) {
        Ok(stored) => {
            shared.metrics.table_removed();
            let doc = Json::obj([
                ("deleted", Json::str(id)),
                ("rows", Json::Num(stored.rows as f64)),
            ]);
            Response::json(200, doc.to_string())
        }
        Err(e) => store_error_response(&e),
    }
}

/// `POST /tables/{id}/mutate`: replays a wire mutation trace against
/// the stored table through an [`IncrementalSession`], persists the
/// mutated table under the same id with a fresh fingerprint, and
/// returns the mutation delta plus the post-mutation repair report.
///
/// The session comes from the store when one rests beside the snapshot
/// under the same `(fds, request)` (`warm`); otherwise a new one is
/// primed over a clone of the snapshot (`primed`), or, for a request
/// the delta engine cannot serve, falls back to a cold solve (`cold`).
/// A successful call hands a delta session back to the store with the
/// new snapshot; any failure drops it.
///
/// The call is transactional: a mutation that fails to resolve or
/// apply, a report the engine refuses, or a snapshot that changed since
/// the call read it (a concurrent mutate, or a DELETE and re-PUT: `409`)
/// leaves the stored table untouched. The spliced `report` carries
/// zeroed timings: it is byte-identical to a cold `/repair` of the
/// mutated table with `include_timings: false`. That is what lets a
/// successful swap [`publish`] it as the cache entry of exactly that
/// by-ref read, in the one allocation the response ships too.
/// `before_replace` runs just before the swap; it is a no-op except in
/// tests that interleave another writer there.
fn mutate_table(
    shared: &Shared,
    request: &Request,
    tenant: &str,
    id: &str,
    trace: bool,
    info: &mut RequestInfo,
    before_replace: impl FnOnce(),
) -> Response {
    let collector = trace.then(fd_trace::Collector::default);
    let _trace_guard = collector.as_ref().map(fd_trace::Collector::install);
    let parsed = parse_body(
        shared,
        request,
        &mut info.parse_us,
        MutateCall::parse,
        |_| 0,
    );
    let mut call = match parsed {
        Ok(call) => call,
        Err(response) => return response,
    };
    shared.metrics.observe_notion(call.request.notion);
    info.notion = Some(call.request.notion);
    let Some((read, at_rest)) = shared.store.checkout(tenant, id) else {
        return store_error_response(&StoreError::NotFound);
    };
    let schema = Arc::clone(read.table.schema());
    let fds = match call.resolve_fds(&schema) {
        Ok(fds) => fds,
        Err(WireError { message }) => return Response::error(400, &message),
    };
    clamp_time_cap(shared, &mut call.request);
    let engine_error = |e: &EngineError| {
        let (status, body) = engine_error_body(e, call.request.notion);
        Response::json(status, body)
    };

    let solve_start = Instant::now();
    let warm = at_rest.filter(|s| *s.fds() == fds && *s.request() == call.request);
    let mut session = match warm {
        Some(session) => {
            shared.metrics.observe_mutate_session(MutatePath::Warm);
            session
        }
        None => {
            let path = if IncrementalSession::delta_eligible(&fds, &call.request) {
                MutatePath::Primed
            } else {
                MutatePath::Cold
            };
            shared.metrics.observe_mutate_session(path);
            match IncrementalSession::new(read.table.clone(), fds.clone(), call.request) {
                Ok(session) => session,
                Err(e) => return engine_error(&e),
            }
        }
    };
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let mut changed = Vec::new();
    for (step, wire) in call.mutations.iter().enumerate() {
        let mutation = match wire.resolve(&schema) {
            Ok(mutation) => mutation,
            Err(WireError { message }) => {
                return Response::error(400, &format!("mutation {step}: {message}"));
            }
        };
        match session.apply(&mutation) {
            Ok(MutationEffect::Inserted { id }) => added.push(id),
            Ok(MutationEffect::Deleted { row }) => removed.push(row.id),
            Ok(MutationEffect::CellSet { id, .. }) => changed.push(id),
            Err(e) => return engine_error(&e),
        }
    }
    let report = match session.report() {
        Ok(report) => report,
        Err(e) => return engine_error(&e),
    };
    info.components = report.components.as_ref().map(|c| c.count);
    observe_solve(shared, info, call.request.notion, solve_start);

    let table = session.table().clone();
    info.rows = Some(table.len());
    let fingerprint = timed_fingerprint(&table, info);
    // Only a delta session is worth keeping: a cold one holds no cache.
    let at_rest = session.is_incremental().then_some(session);
    before_replace();
    let stored = match shared
        .store
        .replace(tenant, id, &read, table, fingerprint, at_rest)
    {
        Ok(stored) => stored,
        Err(e) => return store_error_response(&e),
    };
    // A poisoned lock only loses the spare: the report then takes a
    // fresh buffer, with the same bytes.
    let spare = match shared.spare_report.lock() {
        Ok(mut spare) => std::mem::take(&mut *spare),
        Err(_) => Vec::new(),
    };
    let report = shared_body(report_bytes(&report, spare, info));
    let snapshots = (read.fingerprint, stored.fingerprint);
    publish(
        shared,
        &call.published_ref(id),
        &fds,
        &schema,
        snapshots,
        &report,
    );
    let ids = |ids: &[fd_core::TupleId]| {
        Json::Arr(ids.iter().map(|id| Json::Num(f64::from(id.0))).collect())
    };
    let delta = Json::obj([
        ("added", ids(&added)),
        ("removed", ids(&removed)),
        ("changed", ids(&changed)),
    ]);
    // The envelope wraps the report's one allocation, the bytes the
    // cache now holds, as the trace envelope does; a trace member goes
    // before it, never into it. Id and tenant are charset-sanitized on
    // ingress, so quoting them directly is safe. `steps` counts this
    // call's mutations, not the session's lifetime.
    let prefix = format!(
        "{{\"mutated\":\"{id}\",\"tenant\":\"{tenant}\",\"rows\":{},\"steps\":{},\
         \"fingerprint\":\"{:016x}\",\"delta\":{delta}{},\"report\":",
        stored.rows,
        call.mutations.len(),
        stored.fingerprint,
        trace_member(shared, collector),
    );
    Response::json_segments(200, enveloped(prefix, report))
}

/// Read-your-writes: caches a mutate's report under the slot of the
/// by-ref `/repair` it answers (`call`, from
/// [`MutateCall::published_ref`]) against the stored snapshot, so that
/// read is a hit, and, in the same lock, retires that read's entry for
/// the superseded snapshot, so a table's chain of versions keeps one
/// live entry. `snapshots` is the (read, stored) pair of fingerprints.
/// Both slots come from [`slot`], and the retired entry goes only if
/// its canonical form is that read's. Nothing is published for an
/// uncacheable call (unseeded `sample`), with caching off, or over a
/// flight of that read, whose leader files the same bytes.
///
/// A concurrent mutate can swap a newer snapshot in before this runs;
/// the entry published here is then unreachable and ages out of the
/// LRU. It is never wrong: it pins the fingerprint its report answers.
fn publish(
    shared: &Shared,
    call: &RefCall,
    fds: &FdSet,
    schema: &Schema,
    (superseded, fingerprint): (u64, u64),
    report: &Arc<Vec<u8>>,
) {
    if !call.cacheable() || shared.config.cache_entries == 0 {
        return;
    }
    let read = |fingerprint| {
        slot(
            Endpoint::Repair,
            Keyed::Stored(call, fingerprint, fds, schema),
        )
    };
    let (stale, fresh) = (read(superseded), read(fingerprint));
    let (filed, retired) = shared.cache.publish(
        (fresh.key, fresh.canonical),
        report,
        (stale.key, &stale.canonical),
    );
    if filed {
        shared.metrics.observe_cache_published();
    }
    // The retired report's buffer becomes the next mutate's, unless a
    // response still ships it: then it is freed with that response.
    if let Some(Ok(buf)) = retired.map(Arc::try_unwrap) {
        if let Ok(mut spare) = shared.spare_report.lock() {
            *spare = buf;
        }
    }
}

/// Store failures, each with a stable `kind` like the engine errors.
fn store_error_response(e: &StoreError) -> Response {
    let (status, kind, message) = match e {
        StoreError::Exists => (
            409,
            "table_exists",
            "this id already holds a table; ids are immutable, DELETE it first".to_string(),
        ),
        StoreError::TableQuota { limit } => (
            413,
            "quota_exceeded",
            format!("tenant is at its quota of {limit} stored tables"),
        ),
        StoreError::RowQuota { limit } => (
            413,
            "quota_exceeded",
            format!("storing this table would exceed the tenant's quota of {limit} rows at rest"),
        ),
        StoreError::NotFound => (
            404,
            "unknown_table_ref",
            "no table stored under this id for this tenant".to_string(),
        ),
        StoreError::Changed => (
            409,
            "table_changed",
            "the table changed while this call ran (another mutate, or a DELETE and re-PUT); \
             nothing was applied, retry against the current table"
                .to_string(),
        ),
    };
    let doc = Json::obj([("error", Json::str(message)), ("kind", Json::str(kind))]);
    Response::json(status, doc.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use fd_engine::Json;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn shared() -> Shared {
        Shared::new(ServeConfig::default())
    }

    fn post_with_headers(
        shared: &Shared,
        path: &str,
        body: &str,
        headers: &[(&str, &str)],
    ) -> (Response, RequestInfo) {
        let request = Request {
            method: "POST".into(),
            path: path.into(),
            headers: headers
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: body.as_bytes().to_vec(),
        };
        handle(shared, &request, None)
    }

    fn post(shared: &Shared, path: &str, body: &str) -> Response {
        post_with_headers(shared, path, body, &[]).0
    }

    fn get(shared: &Shared, path: &str) -> Response {
        let request = Request {
            method: "GET".into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        handle(shared, &request, None).0
    }

    fn text_of(response: &Response) -> String {
        String::from_utf8(response.body_bytes()).expect("bodies are UTF-8")
    }

    fn header<'r>(response: &'r Response, name: &str) -> Option<&'r str> {
        response
            .headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    const OFFICE: &str = r#"{
        "relation": "Office",
        "attrs": ["facility", "room", "floor", "city"],
        "fds": "facility -> city; facility room -> floor",
        "rows": [
            {"weight": 2, "values": ["HQ", 322, 3, "Paris"]},
            {"weight": 1, "values": ["HQ", 322, 30, "Madrid"]},
            {"weight": 1, "values": ["HQ", 122, 1, "Madrid"]},
            {"weight": 2, "values": ["Lab1", "B35", 3, "London"]}
        ],
        "request": {"include_timings": false}
    }"#;

    #[test]
    fn repair_answers_with_the_paper_optimum() {
        let shared = shared();
        let resp = post(&shared, "/repair", OFFICE);
        assert_eq!(resp.status, 200);
        let doc = Json::parse(&text_of(&resp)).unwrap();
        assert_eq!(doc.get("cost").unwrap().as_num(), Some(2.0));
        assert_eq!(doc.get("optimal").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn identical_calls_hit_the_cache() {
        let shared = shared();
        let first = post(&shared, "/repair", OFFICE);
        let second = post(&shared, "/repair", OFFICE);
        assert_eq!(first.status, 200);
        assert_eq!(second.status, 200);
        assert_eq!(header(&first, "X-Fd-Cache"), Some("miss"));
        assert_eq!(header(&second, "X-Fd-Cache"), Some("hit"));
        assert_eq!(
            first.body_bytes(),
            second.body_bytes(),
            "a hit replays the exact bytes"
        );
        let metrics = shared.metrics.render();
        assert!(metrics.contains("fd_serve_cache_hits 1"), "{metrics}");
        assert!(metrics.contains("fd_serve_cache_misses 1"), "{metrics}");
    }

    #[test]
    fn timing_bearing_responses_are_never_cached() {
        let shared = shared();
        // Strip the include_timings override: the default (true) asks
        // for real wall-clock timings, which a replay would falsify.
        let body = OFFICE.replace(",\n        \"request\": {\"include_timings\": false}", "");
        assert_ne!(body, OFFICE, "fixture edit must apply");
        for _ in 0..2 {
            let resp = post(&shared, "/repair", &body);
            assert_eq!(resp.status, 200);
            assert_eq!(header(&resp, "X-Fd-Cache"), Some("miss"));
        }
        let metrics = shared.metrics.render();
        assert!(metrics.contains("fd_serve_cache_hits 0"), "{metrics}");
    }

    #[test]
    fn explain_plans_without_solving_and_caches_separately() {
        let shared = shared();
        let repair = post(&shared, "/repair", OFFICE);
        let explain = post(&shared, "/explain", OFFICE);
        assert_eq!(explain.status, 200);
        let doc = Json::parse(&text_of(&explain)).unwrap();
        assert!(doc.get("steps").is_some(), "plans carry steps");
        assert!(doc.get("result").is_none(), "plans carry no repair");
        assert_ne!(repair.body_bytes(), explain.body_bytes());
    }

    #[test]
    fn malformed_bodies_are_4xx_never_a_crash() {
        let shared = shared();
        for (body, expect) in [
            ("", 400),
            ("{", 400),
            ("[]", 400),
            ("{\"attrs\": [\"A\"]}", 400),
            (&"[".repeat(100_000), 400),
            ("{\"attrs\": [\"A\"], \"rows\": [[1]], \"bogus\": 0}", 400),
        ] {
            let resp = post(&shared, "/repair", body);
            assert_eq!(resp.status, expect, "body {body:.40?}");
            let doc = Json::parse(&text_of(&resp)).unwrap();
            assert!(doc.get("error").is_some());
        }
    }

    #[test]
    fn infeasible_engine_calls_are_422() {
        let shared = shared();
        // Sampling needs a chain; A->B, B->C is not one.
        let body = r#"{
            "attrs": ["A", "B", "C"],
            "fds": "A -> B; B -> C",
            "rows": [[1, 2, 3], [1, 3, 4]],
            "request": {"notion": "sample", "seed": 1}
        }"#;
        let resp = post(&shared, "/repair", body);
        assert_eq!(resp.status, 422);
        let doc = Json::parse(&text_of(&resp)).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("not_a_chain"));
    }

    #[test]
    fn healthz_metrics_and_unknown_routes() {
        let shared = shared();
        assert_eq!(get(&shared, "/healthz").status, 200);
        let _ = post(&shared, "/repair", OFFICE);
        let metrics = get(&shared, "/metrics");
        assert_eq!(metrics.status, 200);
        let text = text_of(&metrics);
        assert!(text.contains("fd_serve_requests{notion=\"s\"} 1"), "{text}");
        assert_eq!(get(&shared, "/nope").status, 404);
        assert_eq!(get(&shared, "/repair").status, 405);
        assert_eq!(post(&shared, "/healthz", "").status, 405);
    }

    #[test]
    fn server_time_cap_clamps_the_request() {
        let config = ServeConfig {
            default_time_cap_ms: Some(60_000),
            ..ServeConfig::default()
        };
        let shared = Shared::new(config);
        // A request asking for a looser cap than the server allows gets
        // the server's; one asking for a tighter cap keeps its own. Both
        // still succeed on this tiny instance.
        for request_cap in ["\"time_cap_ms\": 999999,", ""] {
            let body = format!(
                r#"{{"attrs": ["A", "B"], "fds": "A -> B",
                     "rows": [[1, 2], [1, 3]],
                     "request": {{"budgets": {{{request_cap} "threads": 1}}}}}}"#
            );
            let resp = post(&shared, "/repair", &body);
            assert_eq!(resp.status, 200, "{}", text_of(&resp));
        }
    }

    #[test]
    fn request_ids_echo_when_clean_and_regenerate_when_hostile() {
        let shared = shared();
        let (resp, info) =
            post_with_headers(&shared, "/repair", OFFICE, &[("x-request-id", "ab.C_1-2")]);
        assert_eq!(header(&resp, "X-Request-Id"), Some("ab.C_1-2"));
        assert_eq!(info.request_id, "ab.C_1-2");
        // Hostile or oversized ids are replaced, never echoed.
        let long = "x".repeat(65);
        for bad in ["with space", "crlf\r\ninject", "", long.as_str()] {
            let (resp, _) = post_with_headers(&shared, "/repair", OFFICE, &[("x-request-id", bad)]);
            let echoed = header(&resp, "X-Request-Id").unwrap();
            assert!(echoed.starts_with("req-"), "{bad:?} echoed as {echoed:?}");
        }
        // Generated ids are distinct per request, on every route.
        let a = get(&shared, "/healthz");
        let b = get(&shared, "/nope");
        assert_ne!(header(&a, "X-Request-Id"), header(&b, "X-Request-Id"));
    }

    #[test]
    fn trace_envelope_wraps_the_exact_report_bytes() {
        let shared = shared();
        let plain = post(&shared, "/repair", OFFICE);
        // Same call with ?trace=1: a cache hit whose envelope must embed
        // the cached bytes verbatim.
        let traced = post(&shared, "/repair?trace=1", OFFICE);
        assert_eq!(traced.status, 200);
        assert_eq!(header(&traced, "X-Fd-Cache"), Some("hit"));
        let text = &text_of(&traced);
        let plain_text = &text_of(&plain);
        assert!(
            text.contains(plain_text),
            "envelope must splice the report bytes unchanged"
        );
        let doc = Json::parse(text).unwrap();
        assert!(doc.get("request_id").is_some());
        assert!(doc.get("trace").unwrap().get("traceEvents").is_some());
        assert_eq!(
            doc.get("report").unwrap().get("cost").unwrap().as_num(),
            Some(2.0)
        );

        // A traced miss actually records the solve.
        let fresh = OFFICE.replace("\"Office\"", "\"Office2\"");
        let traced_miss = post(&shared, "/repair?trace=1", &fresh);
        assert_eq!(header(&traced_miss, "X-Fd-Cache"), Some("miss"));
        let doc = Json::parse(&text_of(&traced_miss)).unwrap();
        let events = doc
            .get("trace")
            .unwrap()
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap();
        assert!(!events.is_empty(), "traced solve must produce spans");
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"engine/solve"), "{names:?}");

        // The cache stored the bare report, not the envelope: a later
        // traceless call replays clean bytes.
        let replay = post(&shared, "/repair", &fresh);
        assert_eq!(header(&replay, "X-Fd-Cache"), Some("hit"));
        let doc = Json::parse(&text_of(&replay)).unwrap();
        assert!(doc.get("trace").is_none(), "no envelope on cached replay");
        assert!(doc.get("cost").is_some());
    }

    #[test]
    fn query_strings_route_and_unknown_flags_are_ignored() {
        let shared = shared();
        assert_eq!(get(&shared, "/healthz?x=1").status, 200);
        let resp = post(&shared, "/repair?verbose=1&trace=0", OFFICE);
        assert_eq!(resp.status, 200);
        let doc = Json::parse(&text_of(&resp)).unwrap();
        assert!(doc.get("trace").is_none(), "trace=0 must not wrap");
    }

    /// The OFFICE instance as a bare table document for `PUT
    /// /tables/{id}` (same rows, no fds/request).
    const OFFICE_TABLE: &str = r#"{
        "relation": "Office",
        "attrs": ["facility", "room", "floor", "city"],
        "rows": [
            {"weight": 2, "values": ["HQ", 322, 3, "Paris"]},
            {"weight": 1, "values": ["HQ", 322, 30, "Madrid"]},
            {"weight": 1, "values": ["HQ", 122, 1, "Madrid"]},
            {"weight": 2, "values": ["Lab1", "B35", 3, "London"]}
        ]
    }"#;

    const OFFICE_BY_REF: &str = r#"{
        "table_ref": "office",
        "fds": "facility -> city; facility room -> floor",
        "request": {"include_timings": false}
    }"#;

    fn send(
        shared: &Shared,
        method: &str,
        path: &str,
        body: &str,
        headers: &[(&str, &str)],
    ) -> (Response, RequestInfo) {
        let request = Request {
            method: method.into(),
            path: path.into(),
            headers: headers
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: body.as_bytes().to_vec(),
        };
        handle(shared, &request, None)
    }

    fn kind_of(response: &Response) -> Option<String> {
        let doc = Json::parse(&text_of(response)).ok()?;
        Some(doc.get("kind")?.as_str()?.to_string())
    }

    #[test]
    fn tables_put_ref_delete_round_trip_matches_inline_bytes() {
        let shared = shared();
        let inline = post(&shared, "/repair", OFFICE);
        assert_eq!(inline.status, 200);

        let (put, info) = send(&shared, "PUT", "/tables/office", OFFICE_TABLE, &[]);
        assert_eq!(put.status, 201, "{}", text_of(&put));
        assert_eq!(info.endpoint, "tables");
        assert_eq!(info.rows, Some(4));
        let doc = Json::parse(&text_of(&put)).unwrap();
        assert_eq!(doc.get("rows").unwrap().as_num(), Some(4.0));
        let fingerprint = doc
            .get("fingerprint")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();

        let meta = send(&shared, "GET", "/tables/office", "", &[]).0;
        assert_eq!(meta.status, 200);
        let doc = Json::parse(&text_of(&meta)).unwrap();
        assert_eq!(
            doc.get("fingerprint").unwrap().as_str(),
            Some(&fingerprint[..])
        );

        // The by-ref call returns the *exact* bytes of the inline call:
        // same table, same Δ, same request → same report.
        let (by_ref, info) = send(&shared, "POST", "/repair", OFFICE_BY_REF, &[]);
        assert_eq!(by_ref.status, 200);
        assert_eq!(
            by_ref.body_bytes(),
            inline.body_bytes(),
            "by-ref must replay inline bytes"
        );
        assert_eq!(info.rows, Some(4));
        // …but caches under its own (fingerprint-based) key: this was a
        // miss, not a hit on the inline entry.
        assert_eq!(header(&by_ref, "X-Fd-Cache"), Some("miss"));
        let again = send(&shared, "POST", "/repair", OFFICE_BY_REF, &[]).0;
        assert_eq!(header(&again, "X-Fd-Cache"), Some("hit"));
        assert_eq!(again.body_bytes(), inline.body_bytes());

        let deleted = send(&shared, "DELETE", "/tables/office", "", &[]).0;
        assert_eq!(deleted.status, 200);
        let gone = send(&shared, "POST", "/repair", OFFICE_BY_REF, &[]).0;
        assert_eq!(gone.status, 404);
        assert_eq!(kind_of(&gone).as_deref(), Some("unknown_table_ref"));

        let metrics = shared.metrics.render();
        assert!(metrics.contains("fd_serve_tables_stored 0"), "{metrics}");
    }

    #[test]
    fn table_errors_carry_stable_kinds_and_statuses() {
        let config = ServeConfig {
            max_tables_per_tenant: 1,
            max_rows_per_tenant: 100,
            ..ServeConfig::default()
        };
        let shared = Shared::new(config);
        assert_eq!(
            send(&shared, "PUT", "/tables/t1", OFFICE_TABLE, &[])
                .0
                .status,
            201
        );

        // Ids are immutable: re-PUT is a conflict, not an overwrite.
        let dup = send(&shared, "PUT", "/tables/t1", OFFICE_TABLE, &[]).0;
        assert_eq!(dup.status, 409);
        assert_eq!(kind_of(&dup).as_deref(), Some("table_exists"));

        // Second id for the same tenant: over the table quota.
        let over = send(&shared, "PUT", "/tables/t2", OFFICE_TABLE, &[]).0;
        assert_eq!(over.status, 413);
        assert_eq!(kind_of(&over).as_deref(), Some("quota_exceeded"));

        // Malformed pieces: bad id, bad tenant, bad body, bad method.
        assert_eq!(
            send(&shared, "PUT", "/tables/a b", OFFICE_TABLE, &[])
                .0
                .status,
            400
        );
        assert_eq!(send(&shared, "GET", "/tables", "", &[]).0.status, 404);
        let bad_tenant = send(
            &shared,
            "PUT",
            "/tables/x",
            OFFICE_TABLE,
            &[("x-tenant", "a b")],
        )
        .0;
        assert_eq!(bad_tenant.status, 400);
        assert_eq!(send(&shared, "PUT", "/tables/x", "{", &[]).0.status, 400);
        assert_eq!(
            send(&shared, "POST", "/tables/x", OFFICE_TABLE, &[])
                .0
                .status,
            405
        );
        assert_eq!(
            send(&shared, "GET", "/tables/missing", "", &[]).0.status,
            404
        );
        assert_eq!(
            send(&shared, "DELETE", "/tables/missing", "", &[]).0.status,
            404
        );

        // A by-ref call rejecting inline fields is a parse error.
        let mixed = post(
            &shared,
            "/repair",
            r#"{"table_ref": "t1", "attrs": ["A"], "rows": [[1]]}"#,
        );
        assert_eq!(mixed.status, 400);
    }

    /// The mutation trace the mutate tests replay: one delete, one
    /// insert, one cell edit — every `WireMutation` op once.
    const OFFICE_TRACE: &str = r#"[
            {"op": "delete", "id": 1},
            {"op": "insert", "values": ["HQ", 500, 5, "Paris"], "weight": 3},
            {"op": "set", "id": 2, "attr": "city", "value": "Paris"}
        ]"#;

    #[test]
    fn mutate_applies_a_trace_and_splices_cold_identical_report_bytes() {
        let shared = shared();
        let (put, _) = send(&shared, "PUT", "/tables/office", OFFICE_TABLE, &[]);
        assert_eq!(put.status, 201);
        let put_doc = Json::parse(&text_of(&put)).unwrap();
        let old_fp = put_doc
            .get("fingerprint")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();

        let body = format!(
            r#"{{"fds": "facility -> city; facility room -> floor",
                 "mutations": {OFFICE_TRACE}}}"#
        );
        let (resp, info) = send(&shared, "POST", "/tables/office/mutate", &body, &[]);
        assert_eq!(resp.status, 200, "{}", text_of(&resp));
        assert_eq!(info.endpoint, "tables");
        assert_eq!(info.notion, Some(Notion::Subset));
        assert_eq!(info.rows, Some(4));
        let text = &text_of(&resp);
        let doc = Json::parse(text).unwrap();
        assert_eq!(doc.get("mutated").unwrap().as_str(), Some("office"));
        assert_eq!(doc.get("steps").unwrap().as_num(), Some(3.0));
        assert_eq!(doc.get("rows").unwrap().as_num(), Some(4.0));
        let delta = doc.get("delta").unwrap();
        let ids = |field: &str| -> Vec<f64> {
            delta
                .get(field)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|v| v.as_num().unwrap())
                .collect()
        };
        assert_eq!(ids("removed"), vec![1.0]);
        assert_eq!(ids("added").len(), 1);
        assert_eq!(ids("changed"), vec![2.0]);
        let new_fp = doc
            .get("fingerprint")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert_ne!(new_fp, old_fp, "mutation must re-fingerprint the table");

        // GET sees the swapped snapshot.
        let meta = send(&shared, "GET", "/tables/office", "", &[]).0;
        let meta_doc = Json::parse(&text_of(&meta)).unwrap();
        assert_eq!(
            meta_doc.get("fingerprint").unwrap().as_str(),
            Some(&new_fp[..])
        );
        assert_eq!(meta_doc.get("rows").unwrap().as_num(), Some(4.0));

        // The spliced report is byte-identical to a cold solve of the
        // same mutated table with timings zeroed.
        let mut mutated = parse_table_doc(OFFICE_TABLE, &JsonLimits::UNTRUSTED).unwrap();
        let schema = Arc::clone(mutated.schema());
        for wire in fd_engine::parse_mutation_trace(OFFICE_TRACE, &JsonLimits::UNTRUSTED).unwrap() {
            let m = wire.resolve(&schema).unwrap();
            mutated.apply_mutation(&m).unwrap();
        }
        let fds = FdSet::parse(&schema, "facility -> city; facility room -> floor").unwrap();
        let mut cold = Planner
            .run(&mutated, &fds, &fd_engine::RepairRequest::subset())
            .unwrap();
        cold.timings = Timings::default();
        let marker = "\"report\":";
        let at = text.find(marker).unwrap() + marker.len();
        assert_eq!(
            &text[at..text.len() - 1],
            cold.to_json(),
            "spliced report must replay cold-solve bytes"
        );
    }

    #[test]
    fn mutate_is_transactional_and_maps_failures_to_stable_statuses() {
        let config = ServeConfig {
            max_rows_per_tenant: 5,
            ..ServeConfig::default()
        };
        let shared = Shared::new(config);
        let missing = send(&shared, "POST", "/tables/ghost/mutate", "{}", &[]).0;
        assert_eq!(missing.status, 400, "empty call bodies fail parse first");
        assert_eq!(
            send(&shared, "PUT", "/tables/office", OFFICE_TABLE, &[])
                .0
                .status,
            201
        );
        let fp_of = |shared: &Shared| fingerprint_of(shared, "office");
        let fp = fp_of(&shared);

        // Unknown table, wrong method, malformed and inapplicable traces.
        let one_delete = r#"{"mutations": [{"op": "delete", "id": 0}]}"#;
        let gone = send(&shared, "POST", "/tables/ghost/mutate", one_delete, &[]).0;
        assert_eq!(gone.status, 404);
        assert_eq!(kind_of(&gone).as_deref(), Some("unknown_table_ref"));
        assert_eq!(
            send(&shared, "GET", "/tables/office/mutate", one_delete, &[])
                .0
                .status,
            405
        );
        let bad_op = r#"{"mutations": [{"op": "truncate"}]}"#;
        assert_eq!(
            send(&shared, "POST", "/tables/office/mutate", bad_op, &[])
                .0
                .status,
            400
        );
        // A trace that dies mid-flight (id 99 does not exist) must leave
        // the stored table untouched — even though the first step was
        // applied to the session.
        let dies = r#"{"mutations": [
            {"op": "delete", "id": 0},
            {"op": "delete", "id": 99}
        ]}"#;
        let resp = send(&shared, "POST", "/tables/office/mutate", dies, &[]).0;
        assert_eq!(resp.status, 400);
        assert_eq!(kind_of(&resp).as_deref(), Some("invalid_request"));
        assert_eq!(fp_of(&shared), fp, "failed mutate must not swap the table");

        // Growing past the tenant's row quota fails at `replace`,
        // atomically.
        let grow = r#"{"mutations": [
            {"op": "insert", "values": ["X", 1, 1, "Y"], "weight": 1},
            {"op": "insert", "values": ["X", 2, 2, "Y"], "weight": 1}
        ]}"#;
        let resp = send(&shared, "POST", "/tables/office/mutate", grow, &[]).0;
        assert_eq!(resp.status, 413);
        assert_eq!(kind_of(&resp).as_deref(), Some("quota_exceeded"));
        assert_eq!(fp_of(&shared), fp);

        // One in-quota insert succeeds and recounts usage.
        let ok = r#"{"mutations": [
            {"op": "insert", "values": ["X", 1, 1, "Y"], "weight": 1}
        ]}"#;
        let resp = send(&shared, "POST", "/tables/office/mutate", ok, &[]).0;
        assert_eq!(resp.status, 200, "{}", text_of(&resp));
        assert_eq!(shared.store.usage("public"), (1, 5));
        assert_ne!(fp_of(&shared), fp);
    }

    #[test]
    fn traced_put_and_warm_mutate_carry_spans_and_keep_the_report_bytes() {
        let fds = "facility -> city; facility room -> floor";
        let prime = format!(r#"{{"fds": "{fds}", "mutations": [{{"op": "delete", "id": 1}}]}}"#);
        let step = format!(
            r#"{{"fds": "{fds}", "mutations":
                [{{"op": "set", "id": 2, "attr": "city", "value": "Paris"}}]}}"#
        );
        let mut reports = Vec::new();
        for trace in [false, true] {
            let shared = shared();
            let query = if trace { "?trace=1" } else { "" };
            let put = send(
                &shared,
                "PUT",
                &format!("/tables/office{query}"),
                OFFICE_TABLE,
                &[],
            )
            .0;
            assert_eq!(put.status, 201);
            let put_doc = Json::parse(&text_of(&put)).unwrap();
            assert_eq!(put_doc.get("stored").unwrap().as_str(), Some("office"));
            assert_eq!(put_doc.get("trace").is_some(), trace);
            // The first mutate primes the session; the second runs warm.
            let primed = send(&shared, "POST", "/tables/office/mutate", &prime, &[]).0;
            assert_eq!(primed.status, 200);
            let path = format!("/tables/office/mutate{query}");
            let resp = send(&shared, "POST", &path, &step, &[]).0;
            assert_eq!(resp.status, 200, "{}", text_of(&resp));
            let metrics = text_of(&get(&shared, "/metrics"));
            assert!(
                metrics.contains("fd_serve_mutate_sessions_total{path=\"warm\"} 1"),
                "{metrics}"
            );
            let text = text_of(&resp);
            let doc = Json::parse(&text).unwrap();
            match doc.get("trace") {
                None => assert!(!trace, "a traced mutate must carry a trace member"),
                Some(spans) => {
                    assert!(trace, "an untraced mutate must not carry a trace member");
                    let events = spans.get("traceEvents").unwrap().as_arr().unwrap();
                    let step_span = events
                        .iter()
                        .find(|e| {
                            e.get("name").and_then(Json::as_str) == Some("srepair/incremental_step")
                        })
                        .expect("the warm step is traced");
                    let args = step_span.get("args").unwrap();
                    assert!(args.get("dirty_components").is_some(), "{text}");
                    assert!(args.get("region_rows").is_some(), "{text}");
                }
            }
            let marker = "\"report\":";
            let at = text.find(marker).unwrap() + marker.len();
            reports.push(text[at..text.len() - 1].to_string());
        }
        assert_eq!(
            reports[0], reports[1],
            "tracing must not perturb the report bytes"
        );
    }

    fn fingerprint_of(shared: &Shared, id: &str) -> String {
        let meta = send(shared, "GET", &format!("/tables/{id}"), "", &[]).0;
        let doc = Json::parse(&text_of(&meta)).unwrap();
        doc.get("fingerprint")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    }

    #[test]
    fn a_mutate_whose_snapshot_changed_underneath_is_a_conflict_not_a_lost_update() {
        let shared = shared();
        assert_eq!(
            send(&shared, "PUT", "/tables/office", OFFICE_TABLE, &[])
                .0
                .status,
            201
        );
        let one = |op: &str| format!(r#"{{"mutations": [{op}]}}"#);
        let mutate = |op: &str| Request {
            method: "POST".into(),
            path: "/tables/office/mutate".into(),
            headers: Vec::new(),
            body: one(op).into_bytes(),
        };
        let mut info = RequestInfo::new("req-test".into());

        // Another mutate of the same id lands between this call's read
        // and its swap: the later swap loses, the earlier edit survives.
        let mut winner_fp = String::new();
        let lost = mutate_table(
            &shared,
            &mutate(r#"{"op": "delete", "id": 0}"#),
            "public",
            "office",
            false,
            &mut info,
            || {
                let set = one(r#"{"op": "set", "id": 1, "attr": "city", "value": "Paris"}"#);
                let won = send(&shared, "POST", "/tables/office/mutate", &set, &[]).0;
                assert_eq!(won.status, 200);
                winner_fp = fingerprint_of(&shared, "office");
            },
        );
        assert_eq!(lost.status, 409);
        assert_eq!(kind_of(&lost).as_deref(), Some("table_changed"));
        assert_eq!(fingerprint_of(&shared, "office"), winner_fp);
        assert_eq!(
            shared.store.usage("public"),
            (1, 4),
            "the delete never applied"
        );

        // A DELETE and re-PUT of the id in between: the new table stays
        // exactly as it was PUT.
        let mut reput_fp = String::new();
        let lost = mutate_table(
            &shared,
            &mutate(r#"{"op": "insert", "values": ["X", 1, 1, "Y"]}"#),
            "public",
            "office",
            false,
            &mut info,
            || {
                assert_eq!(
                    send(&shared, "DELETE", "/tables/office", "", &[]).0.status,
                    200
                );
                let put = send(&shared, "PUT", "/tables/office", OFFICE_TABLE, &[]).0;
                assert_eq!(put.status, 201);
                reput_fp = fingerprint_of(&shared, "office");
            },
        );
        assert_eq!(lost.status, 409);
        assert_eq!(kind_of(&lost).as_deref(), Some("table_changed"));
        assert_eq!(fingerprint_of(&shared, "office"), reput_fp);
        assert_eq!(shared.store.usage("public"), (1, 4));

        // The store is left serving: the retry goes through.
        let retry = send(
            &shared,
            "POST",
            "/tables/office/mutate",
            &one(r#"{"op": "delete", "id": 0}"#),
            &[],
        )
        .0;
        assert_eq!(retry.status, 200);
        assert_eq!(shared.store.usage("public"), (1, 3));
    }

    #[test]
    fn consecutive_mutates_reuse_the_session_at_rest_and_replay_cold_bytes() {
        let shared = shared();
        // 24 rows over a small domain, so one-op edits keep merging and
        // splitting conflict components under `K -> A B`.
        let mut seed = 0x5E55_u64;
        let mut next = |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        };
        let rows: Vec<String> = (0..24)
            .map(|_| format!("[{}, {}, {}]", next(8), next(3), next(2)))
            .collect();
        let doc = format!(
            r#"{{"attrs": ["K", "A", "B"], "rows": [{}]}}"#,
            rows.join(", ")
        );
        assert_eq!(send(&shared, "PUT", "/tables/t", &doc, &[]).0.status, 201);
        let mut mirror = parse_table_doc(&doc, &JsonLimits::UNTRUSTED).unwrap();
        let mut live: Vec<u64> = (0..24).collect();
        let sessions = |shared: &Shared| {
            let text = shared.metrics.render();
            ["warm", "primed", "cold"].map(|path| {
                counter(
                    &text,
                    &format!("fd_serve_mutate_sessions_total{{path=\"{path}\"}}"),
                )
            })
        };
        let mut request = r#"{"include_timings": false}"#;
        let mut expected = [0u64; 3];

        // One mutate and its checks: the envelope counts this call's
        // steps; the spliced report equals an in-process cold solve of a
        // mirror of the table, which no cache entry can have produced;
        // and the by-ref read that follows is a hit replaying the same
        // bytes.
        let mutate_and_compare = |shared: &Shared,
                                  mirror: &mut Table,
                                  live: &mut Vec<u64>,
                                  request: &str,
                                  op: String| {
            let body =
                format!(r#"{{"fds": "K -> A B", "request": {request}, "mutations": [{op}]}}"#);
            let resp = send(shared, "POST", "/tables/t/mutate", &body, &[]).0;
            assert_eq!(resp.status, 200, "{}", text_of(&resp));
            let text = &text_of(&resp);
            let doc = Json::parse(text).unwrap();
            assert_eq!(doc.get("steps").unwrap().as_num(), Some(1.0), "{op}");
            let delta = doc.get("delta").unwrap();
            let ids = |field: &str| -> Vec<u64> {
                let arr = delta.get(field).unwrap().as_arr().unwrap();
                arr.iter().map(|v| v.as_num().unwrap() as u64).collect()
            };
            live.extend(ids("added"));
            live.retain(|id| !ids("removed").contains(id));

            let schema = Arc::clone(mirror.schema());
            let trace = format!("[{op}]");
            for wire in fd_engine::parse_mutation_trace(&trace, &JsonLimits::UNTRUSTED).unwrap() {
                mirror
                    .apply_mutation(&wire.resolve(&schema).unwrap())
                    .unwrap();
            }
            let by_ref =
                format!(r#"{{"table_ref": "t", "fds": "K -> A B", "request": {request}}}"#);
            let Ok(ParsedCall::ByRef(mut call)) =
                ParsedCall::parse(&by_ref, &JsonLimits::UNTRUSTED)
            else {
                panic!("{by_ref} is a by-ref call");
            };
            clamp_time_cap(shared, &mut call.request);
            let fds = call.resolve_fds(&schema).unwrap();
            let mut cold = Planner.run(mirror, &fds, &call.request).unwrap();
            cold.timings = Timings::default();
            let at = text.find("\"report\":").unwrap() + "\"report\":".len();
            let report = &text[at..text.len() - 1];
            assert_eq!(
                report,
                cold.to_json(),
                "spliced report after {op} must replay cold-solve bytes"
            );
            let read = post(shared, "/repair", &by_ref);
            assert_eq!(header(&read, "X-Fd-Cache"), Some("hit"), "{op}");
            assert_eq!(
                text_of(&read),
                report,
                "the read replays the published bytes"
            );
        };
        for call in 0..30 {
            if call == 10 {
                // New request knobs: the session at rest no longer
                // matches and a fresh one is primed.
                request = r#"{"include_timings": false, "budgets": {"threads": 2}}"#;
            }
            if call == 20 {
                // A failing trace drops the session and leaves the
                // stored table as it was.
                let fp = fingerprint_of(&shared, "t");
                let dies = format!(
                    r#"{{"fds": "K -> A B", "request": {request},
                         "mutations": [{{"op": "delete", "id": 9999}}]}}"#
                );
                let resp = send(&shared, "POST", "/tables/t/mutate", &dies, &[]).0;
                assert_eq!(resp.status, 400);
                assert_eq!(fingerprint_of(&shared, "t"), fp);
                expected[0] += 1;
            }
            let primes = call == 0 || call == 10 || call == 20;
            expected[if primes { 1 } else { 0 }] += 1;
            let id = live[next(live.len() as u64) as usize];
            let op = match call % 3 {
                0 => format!(
                    r#"{{"op": "set", "id": {id}, "attr": "A", "value": {}}}"#,
                    next(3)
                ),
                1 => format!(
                    r#"{{"op": "insert", "values": [{}, {}, {}]}}"#,
                    next(8),
                    next(3),
                    next(2)
                ),
                _ => format!(r#"{{"op": "delete", "id": {id}}}"#),
            };
            mutate_and_compare(&shared, &mut mirror, &mut live, request, op);
            assert_eq!(sessions(&shared), expected, "after call {call}");
        }
        assert_eq!(expected, [28, 3, 0]);

        // A request the delta engine cannot serve solves cold.
        let update = r#"{"notion": "u", "include_timings": false}"#;
        let op = format!(r#"{{"op": "delete", "id": {}}}"#, live[0]);
        mutate_and_compare(&shared, &mut mirror, &mut live, update, op);
        assert_eq!(sessions(&shared), [28, 3, 1]);
    }

    /// The by-ref read of table `t` that a mutate under `K -> A B` with
    /// timings off answers, and so publishes.
    const T_READ: &str =
        r#"{"table_ref": "t", "fds": "K -> A B", "request": {"include_timings": false}}"#;

    /// A one-op mutate of table `t` under the Δ and request of [`T_READ`].
    fn t_mutate(op: &str) -> String {
        format!(
            r#"{{"fds": "K -> A B", "request": {{"include_timings": false}},
                 "mutations": [{op}]}}"#
        )
    }

    /// Stores `rows` rows as table `t`: keys over 8 values, so conflict
    /// components form, but no randomness.
    fn put_t(shared: &Shared, rows: usize) {
        let rows: Vec<String> = (0..rows)
            .map(|i| format!("[{}, {}, {}]", i % 8, (i * 7) % 3, (i * 5) % 2))
            .collect();
        let doc = format!(
            r#"{{"attrs": ["K", "A", "B"], "rows": [{}]}}"#,
            rows.join(", ")
        );
        assert_eq!(send(shared, "PUT", "/tables/t", &doc, &[]).0.status, 201);
    }

    fn cache_len(shared: &Shared) -> usize {
        shared.cache.len()
    }

    /// `(hits, misses, coalesced, published)` from `/metrics`.
    fn cache_counters(shared: &Shared) -> [u64; 4] {
        let text = shared.metrics.render();
        [
            "fd_serve_cache_hits",
            "fd_serve_cache_misses",
            "fd_serve_coalesced_total",
            "fd_serve_cache_published_total",
        ]
        .map(|name| counter(&text, name))
    }

    #[test]
    fn a_mutate_publishes_the_read_it_answers_and_retires_the_one_it_superseded() {
        let shared = shared();
        put_t(&shared, 24);
        let first = post(&shared, "/repair", T_READ);
        assert_eq!(header(&first, "X-Fd-Cache"), Some("miss"));
        let mut cacheable = 1;
        let mut last = String::new();
        for call in 0..30 {
            let op = match call % 3 {
                0 => format!(r#"{{"op": "set", "id": {call}, "attr": "A", "value": 9}}"#),
                1 => r#"{"op": "insert", "values": [3, 1, 1]}"#.to_string(),
                _ => format!(r#"{{"op": "delete", "id": {call}}}"#),
            };
            let resp = send(&shared, "POST", "/tables/t/mutate", &t_mutate(&op), &[]).0;
            assert_eq!(resp.status, 200, "{}", text_of(&resp));
            let read = post(&shared, "/repair", T_READ);
            cacheable += 1;
            assert_eq!(header(&read, "X-Fd-Cache"), Some("hit"), "after {op}");
            last = text_of(&read);
            assert!(text_of(&resp).ends_with(&format!("\"report\":{last}}}")));
        }
        // One live by-ref entry for the table and (Δ, request), not one
        // per version: each publish retired the entry it superseded, the
        // first read's included.
        assert_eq!(cache_len(&shared), 1);
        assert_eq!(cache_counters(&shared), [30, 1, 0, 30]);
        // The IO thread's probe finds the published entry too.
        let probe = Request {
            method: "POST".into(),
            path: "/repair".into(),
            headers: Vec::new(),
            body: T_READ.as_bytes().to_vec(),
        };
        let (fast, _) = fast_path(&shared, &probe)
            .ok()
            .expect("a published entry is a clean hit");
        assert_eq!(text_of(&fast), last);
        cacheable += 1;

        // Reads that differ from the published one still solve: a
        // smaller time cap (a cold solve whose bytes match the published
        // ones), live timings, another Δ.
        let capped = r#"{"table_ref": "t", "fds": "K -> A B",
                         "request": {"include_timings": false, "budgets": {"time_cap_ms": 20000}}}"#;
        let cold = post(&shared, "/repair", capped);
        cacheable += 1;
        assert_eq!(header(&cold, "X-Fd-Cache"), Some("miss"));
        assert_eq!(
            text_of(&cold),
            last,
            "the published bytes are a cold solve's"
        );
        let timed = post(
            &shared,
            "/repair",
            r#"{"table_ref": "t", "fds": "K -> A B"}"#,
        );
        assert_eq!(timed.status, 200);
        assert_eq!(header(&timed, "X-Fd-Cache"), Some("miss"));
        let other_fds = T_READ.replace("K -> A B", "K -> A");
        let other = post(&shared, "/repair", &other_fds);
        cacheable += 1;
        assert_eq!(header(&other, "X-Fd-Cache"), Some("miss"));
        // Publishes are not calls: the accounting identity holds.
        let [hits, misses, coalesced, published] = cache_counters(&shared);
        assert_eq!(hits + misses + coalesced, cacheable);
        assert_eq!(published, 30);
    }

    #[test]
    fn failed_and_uncacheable_mutates_publish_nothing() {
        let shared = shared();
        put_t(&shared, 24);
        let before = post(&shared, "/repair", T_READ);
        assert_eq!(header(&before, "X-Fd-Cache"), Some("miss"));

        // A trace that fails (a dangling id): 400, nothing published,
        // and the unchanged snapshot's entry still answers.
        let dies = t_mutate(r#"{"op": "delete", "id": 9999}"#);
        let resp = send(&shared, "POST", "/tables/t/mutate", &dies, &[]).0;
        assert_eq!(resp.status, 400);
        assert_eq!(cache_counters(&shared)[3], 0);
        let read = post(&shared, "/repair", T_READ);
        assert_eq!(header(&read, "X-Fd-Cache"), Some("hit"));
        assert_eq!(text_of(&read), text_of(&before));

        // A mutate that loses its swap (409) publishes nothing; the one
        // that won published its own report, which the next read hits.
        let loser = Request {
            method: "POST".into(),
            path: "/tables/t/mutate".into(),
            headers: Vec::new(),
            body: t_mutate(r#"{"op": "delete", "id": 0}"#).into_bytes(),
        };
        let mut won = String::new();
        let mut info = RequestInfo::new("req-test".into());
        let lost = mutate_table(&shared, &loser, "public", "t", false, &mut info, || {
            let set = t_mutate(r#"{"op": "set", "id": 1, "attr": "A", "value": 2}"#);
            let resp = send(&shared, "POST", "/tables/t/mutate", &set, &[]).0;
            assert_eq!(resp.status, 200);
            won = text_of(&resp);
        });
        assert_eq!(lost.status, 409);
        assert_eq!(kind_of(&lost).as_deref(), Some("table_changed"));
        assert_eq!(cache_counters(&shared)[3], 1, "only the winner published");
        let read = post(&shared, "/repair", T_READ);
        assert_eq!(header(&read, "X-Fd-Cache"), Some("hit"));
        assert!(won.ends_with(&format!("\"report\":{}}}", text_of(&read))));
        assert_eq!(cache_len(&shared), 1);

        // An unseeded `sample` is not cacheable, so its report is not
        // published, and the read after its swap solves.
        let sample = r#"{"fds": "K -> A B", "request": {"notion": "sample", "include_timings": false},
                         "mutations": [{"op": "set", "id": 2, "attr": "A", "value": 0}]}"#;
        let resp = send(&shared, "POST", "/tables/t/mutate", sample, &[]).0;
        assert_eq!(resp.status, 200, "{}", text_of(&resp));
        assert_eq!(cache_counters(&shared)[3], 1);
        let read = post(&shared, "/repair", T_READ);
        assert_eq!(header(&read, "X-Fd-Cache"), Some("miss"));

        // A mutate that runs over its time cap (408): priming a session
        // over 50,000 rows takes well over the 0 ms it is allowed.
        put_big(&shared, 50_000);
        let published = cache_counters(&shared)[3];
        let entries = cache_len(&shared);
        let zero_cap = r#"{"fds": "K -> A B",
                           "request": {"include_timings": false, "budgets": {"time_cap_ms": 0}},
                           "mutations": [{"op": "delete", "id": 0}]}"#;
        let resp = send(&shared, "POST", "/tables/big/mutate", zero_cap, &[]).0;
        assert_eq!(resp.status, 408, "{}", text_of(&resp));
        assert_eq!(cache_counters(&shared)[3], published);
        assert_eq!(cache_len(&shared), entries);

        // With caching off a successful mutate publishes nothing.
        let off = Shared::new(ServeConfig {
            cache_entries: 0,
            ..ServeConfig::default()
        });
        put_t(&off, 24);
        let set = t_mutate(r#"{"op": "set", "id": 1, "attr": "A", "value": 2}"#);
        assert_eq!(
            send(&off, "POST", "/tables/t/mutate", &set, &[]).0.status,
            200
        );
        assert_eq!(cache_counters(&off)[3], 0);
        assert_eq!(cache_len(&off), 0);
        let read = post(&off, "/repair", T_READ);
        assert_eq!(header(&read, "X-Fd-Cache"), Some("miss"));
    }

    /// Stores `rows` rows as table `big`, built in process: the JSON for
    /// a table this size would dominate the test.
    fn put_big(shared: &Shared, rows: usize) {
        let schema = fd_core::Schema::new("R", ["K", "A", "B"]).unwrap();
        let mut table = Table::new(schema);
        for i in 0..rows as i64 {
            let values = vec![
                fd_core::Value::Int(i % 5000),
                fd_core::Value::Int(i % 3),
                fd_core::Value::Int(i % 2),
            ];
            table.push(fd_core::Tuple::new(values), 1.0).unwrap();
        }
        let fingerprint = table_fingerprint(&table);
        shared
            .store
            .put("public", "big", table, fingerprint)
            .unwrap();
    }

    #[test]
    fn tenants_resolve_refs_in_their_own_namespace() {
        let shared = shared();
        let put = send(
            &shared,
            "PUT",
            "/tables/office",
            OFFICE_TABLE,
            &[("x-tenant", "acme")],
        )
        .0;
        assert_eq!(put.status, 201);
        // Another tenant (the default, here) cannot see acme's table…
        let other = send(&shared, "POST", "/repair", OFFICE_BY_REF, &[]).0;
        assert_eq!(other.status, 404);
        assert_eq!(
            send(&shared, "GET", "/tables/office", "", &[]).0.status,
            404
        );
        // …while acme can solve against it.
        let own = send(
            &shared,
            "POST",
            "/repair",
            OFFICE_BY_REF,
            &[("x-tenant", "acme")],
        )
        .0;
        assert_eq!(own.status, 200, "{}", text_of(&own));
    }

    #[test]
    fn invalid_ref_fds_are_400_against_the_stored_schema() {
        let shared = shared();
        assert_eq!(
            send(&shared, "PUT", "/tables/office", OFFICE_TABLE, &[])
                .0
                .status,
            201
        );
        let resp = post(
            &shared,
            "/repair",
            r#"{"table_ref": "office", "fds": "nope -> city"}"#,
        );
        assert_eq!(resp.status, 400);
        assert!(text_of(&resp).contains("fds"));
    }

    #[test]
    fn concurrent_identical_calls_solve_once_and_share_bytes() {
        let shared = Arc::new(shared());
        let n = 8;
        let results: Vec<Response> = {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || post(&shared, "/repair", OFFICE))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        };
        let first = &results[0];
        assert_eq!(first.status, 200);
        for r in &results {
            assert_eq!(
                r.body_bytes(),
                first.body_bytes(),
                "every caller gets the same bytes"
            );
        }
        // Exactly one solve: whoever probes during the flight coalesces,
        // whoever probes after it hits the cache. Either way the miss
        // count — calls that actually solved — is one.
        let metrics = shared.metrics.render();
        assert_eq!(counter(&metrics, "fd_serve_cache_misses"), 1, "{metrics}");
        assert_eq!(
            counter(&metrics, "fd_serve_cache_hits")
                + counter(&metrics, "fd_serve_coalesced_total")
                + 1,
            n as u64,
            "{metrics}"
        );
    }

    /// The value of one unlabelled counter in a `/metrics` rendering.
    fn counter(metrics: &str, name: &str) -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    }

    /// Drives `n` concurrent [`serve_cached`] calls for one slot, each
    /// running `park(i)` before it claims the slot. Returns the number
    /// of solves and the rendered metrics.
    fn parked_flights(
        n: usize,
        park: impl Fn(usize, &Shared, &AtomicUsize) + Sync,
    ) -> (usize, String) {
        let shared = shared();
        let slot = Slot {
            key: 0xF1,
            canonical: Arc::from("repair:parked"),
        };
        let solves = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for i in 0..n {
                let (shared, slot, solves, park) = (&shared, &slot, &solves, &park);
                scope.spawn(move || {
                    park(i, shared, solves);
                    let (result, _) = serve_cached(shared, slot, || {
                        solves.fetch_add(1, Ordering::SeqCst);
                        let body = Arc::new(b"{\"cost\": 2}".to_vec());
                        Solved { status: 200, body }
                    });
                    assert_eq!(result.body.as_slice(), b"{\"cost\": 2}");
                });
            }
        });
        (solves.load(Ordering::SeqCst), shared.metrics.render())
    }

    #[test]
    fn callers_parked_past_the_leaders_flight_hit_the_cache() {
        // Every caller but caller 0 claims only once caller 0's flight
        // has landed: each of them finds the done entry, so there is one
        // solve, and no caller can lead a second flight.
        let n = 6;
        let (solves, metrics) = parked_flights(n, |i, shared, solves| {
            if i > 0 {
                while solves.load(Ordering::SeqCst) == 0 || shared.cache.in_flight(0xF1) {
                    std::thread::yield_now();
                }
            }
        });
        assert_eq!(solves, 1, "{metrics}");
        assert_eq!(counter(&metrics, "fd_serve_cache_misses"), 1, "{metrics}");
        assert_eq!(
            counter(&metrics, "fd_serve_cache_hits"),
            n as u64 - 1,
            "{metrics}"
        );
        assert_eq!(
            counter(&metrics, "fd_serve_coalesced_total"),
            0,
            "{metrics}"
        );
    }

    #[test]
    fn parked_callers_keep_the_single_flight_accounting() {
        // Stress: staggered parks before the claim put callers on every
        // side of the leader's landing. Whatever the interleaving, one
        // call solves and every call is counted exactly once.
        for round in 0..40u64 {
            let n = 8;
            let (solves, metrics) = parked_flights(n, |i, _, _| {
                let micros = (i as u64 * 37 + round * 11) % 7 * 40;
                std::thread::sleep(std::time::Duration::from_micros(micros));
            });
            assert_eq!(solves, 1, "round {round}\n{metrics}");
            assert_eq!(
                counter(&metrics, "fd_serve_cache_misses"),
                1,
                "round {round}"
            );
            assert_eq!(
                counter(&metrics, "fd_serve_cache_hits")
                    + counter(&metrics, "fd_serve_cache_misses")
                    + counter(&metrics, "fd_serve_coalesced_total"),
                n as u64,
                "round {round}\n{metrics}"
            );
        }
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn the_fast_path_serves_exactly_what_handle_serves() {
        let shared = Shared::new(ServeConfig {
            default_time_cap_ms: Some(60_000),
            ..ServeConfig::default()
        });
        assert_eq!(
            send(&shared, "PUT", "/tables/office", OFFICE_TABLE, &[])
                .0
                .status,
            201
        );
        // The server clamps this call's cap to its own 60 s, and the key
        // hashes the clamped budget.
        let clamped = OFFICE.replace(
            "{\"include_timings\": false}",
            "{\"include_timings\": false, \"budgets\": {\"time_cap_ms\": 999999}}",
        );
        assert_ne!(clamped, OFFICE, "fixture edit must apply");
        let calls = [
            ("/repair", OFFICE),
            ("/explain", OFFICE),
            ("/repair", OFFICE_BY_REF),
            ("/explain", OFFICE_BY_REF),
            ("/repair", clamped.as_str()),
        ];
        for (path, body) in calls {
            let (first, _) = handle(&shared, &request("POST", path, body), None);
            assert_eq!(first.status, 200, "{path} {}", text_of(&first));
            let (hit, hit_info) = handle(&shared, &request("POST", path, body), None);
            assert_eq!(header(&hit, "X-Fd-Cache"), Some("hit"), "{path}");
            // Twice: the first probe parses, the second replays its memo.
            for round in 0..2 {
                let (fast, info) = fast_path(&shared, &request("POST", path, body))
                    .unwrap_or_else(|_| panic!("{path} round {round}: a clean hit"));
                assert_eq!(fast.status, hit.status, "{path}");
                assert_eq!(fast.body_bytes(), hit.body_bytes(), "{path}");
                assert_eq!(header(&fast, "X-Fd-Cache"), Some("hit"), "{path}");
                assert_eq!(info.endpoint, hit_info.endpoint, "{path}");
                assert_eq!(info.notion, hit_info.notion, "{path}");
                assert_eq!(info.rows, hit_info.rows, "{path}");
                assert_eq!(info.cache_hit, hit_info.cache_hit, "{path}");
            }
        }
    }

    #[test]
    fn the_fast_path_declines_what_it_cannot_serve_cleanly() {
        let shared = shared();
        let declines = |shared: &Shared, path: &str, body: &str| {
            let _ = handle(shared, &request("POST", path, body), None);
            let _ = handle(shared, &request("POST", path, body), None);
            assert!(
                fast_path(shared, &request("POST", path, body)).is_err(),
                "{path} {body:.60}"
            );
        };
        // A traced call needs a collector.
        declines(&shared, "/repair?trace=1", OFFICE);
        // A cacheable body over 16 KiB, cached by the worker path.
        let rows: Vec<String> = (0..2_000).map(|i| format!("[{i}, {}]", i % 7)).collect();
        let big = format!(
            r#"{{"attrs": ["A", "B"], "fds": "A -> B", "rows": [{}],
                 "request": {{"include_timings": false}}}}"#,
            rows.join(", ")
        );
        assert!(big.len() > FAST_PATH_MAX_BODY);
        declines(&shared, "/repair", &big);
        // An uncacheable call: live timings.
        let timed = OFFICE.replace(",\n        \"request\": {\"include_timings\": false}", "");
        assert_ne!(timed, OFFICE, "fixture edit must apply");
        declines(&shared, "/repair", &timed);
        // A ref to no stored table, and a malformed body.
        declines(&shared, "/repair", OFFICE_BY_REF);
        declines(&shared, "/repair", "{");
        // With caching off nothing can hit.
        let off = Shared::new(ServeConfig {
            cache_entries: 0,
            ..ServeConfig::default()
        });
        declines(&off, "/repair", OFFICE);
    }

    #[test]
    fn a_fast_path_miss_is_parsed_once_and_logs_its_parse_time() {
        let shared = shared();
        let rows: Vec<String> = (0..300).map(|i| format!("[{i}, {}]", i % 7)).collect();
        let body = format!(
            r#"{{"attrs": ["A", "B"], "fds": "A -> B", "rows": [{}],
                 "request": {{"include_timings": false}}}}"#,
            rows.join(", ")
        );
        assert!(body.len() <= FAST_PATH_MAX_BODY);
        let collector = fd_trace::Collector::default();
        let _guard = collector.install();
        let parses = || {
            let events = collector.events().into_iter();
            events
                .filter(|e| e.name == "wire/parse")
                .collect::<Vec<_>>()
        };
        let miss = request("POST", "/repair", &body);
        let Err(Some(prepared)) = fast_path(&shared, &miss) else {
            panic!("a cold cache misses, and the probe hands its call over");
        };
        let (response, info) = handle(&shared, &miss, Some(prepared));
        assert_eq!(response.status, 200, "{}", text_of(&response));
        assert_eq!(info.cache_hit, Some(false));
        assert!(info.parse_us > 0, "the probe's parse time is logged");
        let spans = parses();
        assert_eq!(spans.len(), 1, "the worker must not parse again");
        assert_eq!(
            spans[0].args,
            [
                ("bytes", fd_trace::AttrValue::U64(body.len() as u64)),
                ("rows", fd_trace::AttrValue::U64(300)),
            ]
        );
        // The repeat is a memoized hit: no parse at all.
        let (hit, info) = fast_path(&shared, &miss).ok().expect("a clean hit");
        assert_eq!(header(&hit, "X-Fd-Cache"), Some("hit"));
        assert_eq!(info.parse_us, 0);
        assert_eq!(parses().len(), 1);
        // A body the probe does not take parses once, on the worker,
        // inside the request's own trace.
        let traced = request("POST", "/explain?trace=1", &body);
        assert!(matches!(fast_path(&shared, &traced), Err(None)));
        let (response, info) = handle(&shared, &traced, None);
        assert_eq!(response.status, 200);
        assert!(info.parse_us > 0);
        let text = text_of(&response);
        assert_eq!(text.matches("\"name\":\"wire/parse\"").count(), 1, "{text}");
        assert_eq!(parses().len(), 1);
    }

    #[test]
    fn request_info_reports_the_solve_shape() {
        let shared = shared();
        let (_, info) = post_with_headers(&shared, "/repair", OFFICE, &[]);
        assert_eq!(info.endpoint, "repair");
        assert_eq!(info.notion, Some(Notion::Subset));
        assert_eq!(info.rows, Some(4));
        assert_eq!(info.cache_hit, Some(false));
        assert!(info.components.is_some());
        // Cache hits solve nothing and report no components.
        let (_, hit) = post_with_headers(&shared, "/repair", OFFICE, &[]);
        assert_eq!(hit.cache_hit, Some(true));
        assert_eq!(hit.components, None);
    }

    #[test]
    fn serialize_time_is_recorded_on_misses_and_mutates_only() {
        let (table, inline) = (wide_table_doc(), wide_inline_call());
        let shared = shared();
        let (miss, info) = post_with_headers(&shared, "/repair", &inline, &[]);
        assert_eq!(miss.status, 200);
        assert_eq!(info.cache_hit, Some(false));
        assert!(info.serialize_us > 0, "a miss writes its report");
        let (_, hit) = post_with_headers(&shared, "/repair", &inline, &[]);
        assert_eq!(hit.cache_hit, Some(true));
        assert_eq!(hit.serialize_us, 0, "a hit replays stored bytes");

        let (put, info) = send(&shared, "PUT", "/tables/t", &table, &[]);
        assert_eq!(put.status, 201);
        assert_eq!(info.serialize_us, 0);
        let mutate =
            r#"{"fds": "A -> B", "mutations": [{"op": "set", "id": 4, "attr": "B", "value": 9}]}"#;
        let (resp, info) = send(&shared, "POST", "/tables/t/mutate", mutate, &[]);
        assert_eq!(resp.status, 200, "{}", text_of(&resp));
        assert!(info.serialize_us > 0, "a mutate writes its report");
        let bad = r#"{"fds": "A -> Z", "mutations": []}"#;
        let (resp, info) = send(&shared, "POST", "/tables/t/mutate", bad, &[]);
        assert_eq!(resp.status, 400);
        assert_eq!(info.serialize_us, 0, "an error writes no report");
    }

    /// A 3 000-row table document (`A -> B` conflicts in every other
    /// row pair), large enough that hashing it or writing its report
    /// takes well over 1 µs.
    fn wide_table_doc() -> String {
        let rows: Vec<String> = (0..3_000)
            .map(|i| {
                format!(
                    r#"{{"weight": 1, "values": [{}, {}, "c{i}"]}}"#,
                    i / 2,
                    i % 3
                )
            })
            .collect();
        format!(
            r#"{{"relation": "R", "attrs": ["A", "B", "C"], "rows": [{}]}}"#,
            rows.join(",")
        )
    }

    /// [`wide_table_doc`] as an inline `/repair` call under `A -> B`,
    /// timings off.
    fn wide_inline_call() -> String {
        wide_table_doc().replacen(
            '{',
            r#"{"fds": "A -> B", "request": {"include_timings": false}, "#,
            1,
        )
    }

    /// A one-cell mutate of `/tables/t` under `A -> B`.
    fn set_b(id: u32, value: u32) -> String {
        format!(
            r#"{{"fds": "A -> B", "mutations": [{{"op": "set", "id": {id}, "attr": "B", "value": {value}}}]}}"#
        )
    }

    #[test]
    fn fingerprint_time_is_recorded_on_put_and_mutate_only() {
        let shared = shared();
        let table = wide_table_doc();
        let (put, info) = send(&shared, "PUT", "/tables/t", &table, &[]);
        assert_eq!(put.status, 201);
        assert!(info.fingerprint_us > 0, "a PUT hashes its table");
        let (resp, info) = send(&shared, "POST", "/tables/t/mutate", &set_b(4, 9), &[]);
        assert_eq!(resp.status, 200, "{}", text_of(&resp));
        assert!(info.fingerprint_us > 0, "a mutate hashes its new snapshot");

        let by_ref =
            r#"{"table_ref": "t", "fds": "A -> B", "request": {"include_timings": false}}"#;
        let inline = wide_inline_call();
        let mut others = Vec::new();
        for (method, path, body) in [
            ("POST", "/repair", by_ref),
            ("POST", "/repair", by_ref),
            ("POST", "/repair", &inline),
            ("POST", "/repair", &inline),
            ("POST", "/explain", &inline),
            ("GET", "/tables/t", ""),
            ("GET", "/healthz", ""),
            ("GET", "/metrics", ""),
            (
                "POST",
                "/tables/t/mutate",
                r#"{"fds": "A -> Z", "mutations": []}"#,
            ),
            ("DELETE", "/tables/t", ""),
        ] {
            let (resp, info) = send(&shared, method, path, body, &[]);
            others.push((
                method,
                path,
                resp.status,
                info.cache_hit,
                info.fingerprint_us,
            ));
        }
        assert!(
            others.iter().any(|o| o.3 == Some(true)),
            "the repeats are hits: {others:?}"
        );
        assert!(
            others.iter().all(|o| o.4 == 0),
            "only PUT and mutate fingerprint: {others:?}"
        );
    }

    #[test]
    fn a_retired_report_buffer_is_reused_only_once_no_response_ships_it() {
        let shared = shared();
        let spare_capacity = || shared.spare_report.lock().unwrap().capacity();
        let put = send(&shared, "PUT", "/tables/t", &wide_table_doc(), &[]).0;
        assert_eq!(put.status, 201);
        let mutate = |id, value| {
            let (resp, _) = send(&shared, "POST", "/tables/t/mutate", &set_b(id, value), &[]);
            assert_eq!(resp.status, 200, "{}", text_of(&resp));
            resp
        };
        // The first mutate's response shares its report with the cache
        // entry it publishes. Held, as an in-flight response holds it,
        // across the next mutate, which retires that entry: the buffer
        // must be neither handed on nor changed.
        let in_flight = mutate(4, 7);
        let shipped = in_flight.body_bytes();
        let second = mutate(6, 8);
        assert_eq!(spare_capacity(), 0, "a shared buffer is never recycled");
        assert_eq!(in_flight.body_bytes(), shipped);
        drop((in_flight, second));
        // Nothing holds the second mutate's entry when the third retires
        // it, so its buffer becomes the spare, and the fourth writes into
        // it and leaves the spare empty until its own publish retires the
        // third's.
        drop(mutate(8, 9));
        assert!(spare_capacity() > 0, "an unshared retired buffer is kept");
        let fourth = mutate(10, 10);
        let ship = fourth.body_bytes();
        assert!(spare_capacity() > 0);
        // The fourth's report is what the by-ref read answers, a hit
        // on the bytes the recycled buffer now holds.
        let by_ref =
            r#"{"table_ref": "t", "fds": "A -> B", "request": {"include_timings": false}}"#;
        let (read, info) = send(&shared, "POST", "/repair", by_ref, &[]);
        assert_eq!(info.cache_hit, Some(true));
        let read = read.body_bytes();
        assert!(ship.ends_with(&[read.as_slice(), b"}"].concat()));
    }

    #[test]
    fn a_poisoned_or_absent_spare_buffer_answers_the_same_bytes() {
        let recycling = shared();
        let poisoned = shared();
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = poisoned.spare_report.lock().unwrap();
                panic!("poison the spare buffer's lock");
            })
            .join()
        });
        assert!(poisoned.spare_report.is_poisoned());
        // With caching off nothing is published, so nothing is retired:
        // every report takes a fresh buffer.
        let uncached = Shared::new(ServeConfig {
            cache_entries: 0,
            ..ServeConfig::default()
        });
        let table = wide_table_doc();
        let mut answers = Vec::new();
        for shared in [&recycling, &poisoned, &uncached] {
            assert_eq!(send(shared, "PUT", "/tables/t", &table, &[]).0.status, 201);
            let bodies: Vec<Vec<u8>> = (0..6)
                .map(|step| {
                    let body = set_b(2 * step, 20 + step);
                    let (resp, _) = send(shared, "POST", "/tables/t/mutate", &body, &[]);
                    assert_eq!(resp.status, 200, "{}", text_of(&resp));
                    resp.body_bytes()
                })
                .collect();
            answers.push(bodies);
        }
        assert!(recycling.spare_report.lock().unwrap().capacity() > 0);
        assert_eq!(uncached.spare_report.lock().unwrap().capacity(), 0);
        assert_eq!(answers[0], answers[1], "poisoned spare");
        assert_eq!(answers[0], answers[2], "no spare");
    }
}
