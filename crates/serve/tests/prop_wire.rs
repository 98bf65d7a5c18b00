//! Property tests driving the wire format and the result cache through
//! randomly generated `RepairCall`s (the fd-gen adversarial pool):
//!
//! * every generated call round-trips the wire format exactly — table,
//!   FD set, request knobs and cache key all survive
//!   `to_json_value → parse`;
//! * a mutate call's published by-ref call keys and canonicalizes
//!   exactly like the by-ref `/repair` body a client sends to read the
//!   mutated table, so a published report is found by that read;
//! * against a live server, every cached response is byte-identical to
//!   the uncached response for the same body (and both to a direct
//!   engine run).

use fd_engine::{
    MixedCosts, MutateCall, Notion, Optimality, Planner, RepairCall, RepairEngine, RepairRequest,
    Timings, WireMutation,
};
use fd_gen::adversarial::{schema_pool, sized_instance};
use fd_serve::{client, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random deterministic wire call: pool schema, dirty table, random
/// request knobs. `include_timings` stays `false` so responses are
/// byte-deterministic (the cacheable regime).
fn random_call(seed: u64) -> RepairCall {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = schema_pool();
    let case = &pool[rng.gen_range(0..pool.len())];
    let rows = rng.gen_range(2..8usize);
    let table = sized_instance(case, rows, 3, rng.gen_range(0..2) == 0, seed ^ 0xC0FE);
    let notion = [Notion::Subset, Notion::Update, Notion::Mixed][rng.gen_range(0..3usize)];
    let mut request = RepairRequest::new(notion);
    if notion == Notion::Mixed {
        request = request.mixed_costs(MixedCosts::new(1.5, 1.0));
    }
    match rng.gen_range(0..5) {
        0 => request = request.optimality(Optimality::Approximate { max_ratio: 16.0 }),
        1 => {
            request = request
                .exact_fallback_limit(rng.gen_range(0..64usize))
                .threads(rng.gen_range(1..4usize));
        }
        2 => request = request.time_cap_ms(60_000).seed(rng.gen_range(0..1000)),
        3 => request = request.component_exact_limit(rng.gen_range(0..80usize)),
        _ => {}
    }
    RepairCall {
        table,
        fds: case.fds.clone(),
        request,
        include_timings: false,
    }
}

#[test]
fn random_calls_round_trip_the_wire_format() {
    for seed in 0..60u64 {
        let call = random_call(seed);
        let text = call.to_json_value().to_string();
        let again = RepairCall::parse(&text, &fd_engine::JsonLimits::UNTRUSTED)
            .unwrap_or_else(|e| panic!("seed {seed}: rendered call fails to parse: {e}\n{text}"));
        assert_eq!(again.table, call.table, "seed {seed}");
        assert_eq!(again.fds, call.fds, "seed {seed}");
        assert_eq!(again.request, call.request, "seed {seed}");
        assert_eq!(again.include_timings, call.include_timings, "seed {seed}");
        assert_eq!(again.cache_key(), call.cache_key(), "seed {seed}");
        // Rendering the reparsed call reproduces the same bytes: the
        // writer is a fixed point of the round trip.
        assert_eq!(again.to_json_value().to_string(), text, "seed {seed}");
    }
}

#[test]
fn cached_responses_are_byte_identical_to_uncached_ones() {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_entries: 128,
        ..ServeConfig::default()
    })
    .expect("ephemeral bind");
    let addr = server.local_addr().unwrap();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());

    for seed in 100..120u64 {
        let call = random_call(seed);
        let body = call.to_json_value().to_string();
        // First request: a cache miss, solved live.
        let cold = client::post(addr, "/repair", &body).expect("cold request");
        assert_eq!(cold.status, 200, "seed {seed}: {}", cold.body);
        // Second request: served from the cache.
        let warm = client::post(addr, "/repair", &body).expect("warm request");
        assert_eq!(warm.status, 200);
        assert_eq!(
            cold.body, warm.body,
            "seed {seed}: cached response must replay the uncached bytes"
        );
        // Both equal the direct engine run with zeroed timings.
        let mut report = Planner
            .run(&call.table, &call.fds, &call.request)
            .expect("generated calls are solvable");
        report.timings = Timings::default();
        assert_eq!(cold.body, report.to_json(), "seed {seed}");
    }

    let metrics = client::get(addr, "/metrics").unwrap().body;
    let hits: u64 = metrics
        .lines()
        .find(|l| l.starts_with("fd_serve_cache_hits "))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .expect("cache hit counter exported");
    assert!(hits >= 20, "expected ≥ 20 cache hits, saw {hits}");

    flag.store(true, std::sync::atomic::Ordering::SeqCst);
    // Nudge the accept loop so it observes the flag.
    let _ = client::get(addr, "/healthz");
    handle.join().expect("server thread").expect("clean run");
}

/// A random wire mutation over a 3-attribute schema: every op, int and
/// string values, small ids (some of which won't exist — the wire layer
/// round-trips them regardless; only `resolve`/`apply` care).
fn random_wire_mutation(rng: &mut StdRng) -> WireMutation {
    use fd_core::Value;
    let value = |rng: &mut StdRng| -> Value {
        if rng.gen_range(0..2) == 0 {
            Value::Int(rng.gen_range(0..9i64))
        } else {
            Value::str(&format!("v{}", rng.gen_range(0..9u32)))
        }
    };
    match rng.gen_range(0..3u8) {
        0 => WireMutation::Insert {
            values: (0..3).map(|_| value(rng)).collect(),
            weight: rng.gen_range(1..5usize) as f64,
        },
        1 => WireMutation::Delete {
            id: rng.gen_range(0..12usize) as u64,
        },
        _ => WireMutation::Set {
            id: rng.gen_range(0..12usize) as u64,
            attr: ["A", "B", "C"][rng.gen_range(0..3usize)].to_string(),
            value: value(rng),
        },
    }
}

/// A random mutate call: optional Δ, randomized request knobs, 1–6
/// steps.
fn random_mutate_call(seed: u64) -> MutateCall {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let mut request = RepairRequest::subset();
    match rng.gen_range(0..4) {
        0 => request = request.optimality(Optimality::Exact),
        1 => request = request.exact_fallback_limit(0),
        2 => {
            request = request
                .threads(rng.gen_range(1..4usize))
                .component_exact_limit(rng.gen_range(0..64usize));
        }
        _ => {}
    }
    let fds = if rng.gen_range(0..4) == 0 {
        None
    } else {
        Some("A -> B; B -> C".to_string())
    };
    let steps = rng.gen_range(1..7usize);
    MutateCall {
        fds,
        request,
        include_timings: rng.gen_range(0..2) == 0,
        mutations: (0..steps).map(|_| random_wire_mutation(&mut rng)).collect(),
    }
}

#[test]
fn random_mutate_calls_round_trip_the_wire_format() {
    for seed in 0..60u64 {
        let call = random_mutate_call(seed);
        let text = call.to_json_value().to_string();
        let again = MutateCall::parse(&text, &fd_engine::JsonLimits::UNTRUSTED)
            .unwrap_or_else(|e| panic!("seed {seed}: rendered call fails to parse: {e}\n{text}"));
        assert_eq!(again.fds, call.fds, "seed {seed}");
        assert_eq!(again.request, call.request, "seed {seed}");
        assert_eq!(again.include_timings, call.include_timings, "seed {seed}");
        assert_eq!(again.mutations, call.mutations, "seed {seed}");
        // The writer is a fixed point of the round trip.
        assert_eq!(again.to_json_value().to_string(), text, "seed {seed}");
    }
}

/// The by-reference `/repair` body a client sends to read table `id`
/// under a mutate call's Δ and request, timings off.
fn by_ref_body_for(call: &MutateCall, id: &str) -> String {
    use fd_engine::Json;
    let mut untimed = call.clone();
    untimed.include_timings = false;
    let full = untimed.to_json_value();
    let mut fields: Vec<(&'static str, Json)> = vec![("table_ref", Json::str(id))];
    if let Some(fds) = full.get("fds") {
        fields.push(("fds", fds.clone()));
    }
    fields.push(("request", full.get("request").expect("request").clone()));
    Json::obj(fields).to_string()
}

#[test]
fn a_mutates_published_ref_keys_like_the_by_ref_read_it_answers() {
    use fd_core::Schema;
    use fd_engine::ParsedCall;
    let schema = Schema::new("R", ["A", "B", "C"]).unwrap();
    for seed in 0..60u64 {
        let call = random_mutate_call(seed);
        let fds = call.resolve_fds(&schema).expect("pool specs resolve");
        let published = call.published_ref("t");
        assert!(!published.include_timings, "seed {seed}");
        let body = by_ref_body_for(&call, "t");
        let ParsedCall::ByRef(read) = ParsedCall::parse(&body, &fd_engine::JsonLimits::UNTRUSTED)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{body}"))
        else {
            panic!("seed {seed}: {body} is not a by-ref call");
        };
        assert_eq!(read.resolve_fds(&schema).unwrap(), fds, "seed {seed}");
        for fingerprint in [7, 8] {
            assert_eq!(
                published.cache_key(fingerprint, &fds, &schema),
                read.cache_key(fingerprint, &fds, &schema),
                "seed {seed}: {body}"
            );
            assert_eq!(
                published.canonical(fingerprint, &fds, &schema),
                read.canonical(fingerprint, &fds, &schema),
                "seed {seed}: {body}"
            );
        }
        // The entry a publish retires (the snapshot the mutate read) is
        // a different key from the one it writes.
        assert_ne!(
            published.cache_key(7, &fds, &schema),
            published.cache_key(8, &fds, &schema),
            "seed {seed}"
        );
        // Another table id is another entry.
        assert_ne!(
            published.canonical(7, &fds, &schema),
            call.published_ref("u").canonical(7, &fds, &schema),
            "seed {seed}"
        );
    }
}

#[test]
fn mutation_traces_round_trip_as_bare_arrays() {
    use fd_engine::Json;
    let mut rng = StdRng::seed_from_u64(99);
    let trace: Vec<WireMutation> = (0..20).map(|_| random_wire_mutation(&mut rng)).collect();
    let text = Json::Arr(trace.iter().map(WireMutation::to_json_value).collect()).to_string();
    let again = fd_engine::parse_mutation_trace(&text, &fd_engine::JsonLimits::UNTRUSTED)
        .expect("rendered trace parses");
    assert_eq!(again, trace);
    // Hostile shapes fail loudly: non-arrays, empty traces, unknown ops
    // and stowaway fields.
    for bad in [
        "{}",
        "[]",
        r#"[{"op": "truncate"}]"#,
        r#"[{"op": "delete", "id": 0, "bogus": 1}]"#,
        r#"[{"op": "insert", "values": [1], "id": 3}]"#,
        r#"[{"op": "set", "id": 0, "attr": "A"}]"#,
    ] {
        assert!(
            fd_engine::parse_mutation_trace(bad, &fd_engine::JsonLimits::UNTRUSTED).is_err(),
            "{bad} must be rejected"
        );
    }
}

/// Splits a rendered inline call into the table document `PUT
/// /tables/{id}` stores and the by-reference body that names it.
fn table_doc_and_ref_body(call: &RepairCall, id: &str) -> (String, String) {
    use fd_engine::Json;
    let full = call.to_json_value();
    let mut table_fields: Vec<(&'static str, Json)> = Vec::new();
    if let Some(relation) = full.get("relation") {
        table_fields.push(("relation", relation.clone()));
    }
    table_fields.push(("attrs", full.get("attrs").expect("attrs").clone()));
    table_fields.push(("rows", full.get("rows").expect("rows").clone()));
    let mut ref_fields: Vec<(&'static str, Json)> = vec![("table_ref", Json::str(id))];
    if let Some(fds) = full.get("fds") {
        ref_fields.push(("fds", fds.clone()));
    }
    if let Some(request) = full.get("request") {
        ref_fields.push(("request", request.clone()));
    }
    (
        Json::obj(table_fields).to_string(),
        Json::obj(ref_fields).to_string(),
    )
}

#[test]
fn by_ref_calls_replay_the_inline_bytes_exactly() {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_entries: 128,
        ..ServeConfig::default()
    })
    .expect("ephemeral bind");
    let addr = server.local_addr().unwrap();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());

    for seed in 200..215u64 {
        let call = random_call(seed);
        let id = format!("t{seed}");
        let (table_doc, ref_body) = table_doc_and_ref_body(&call, &id);
        let put = client::request(addr, "PUT", &format!("/tables/{id}"), Some(&table_doc))
            .expect("put table");
        assert_eq!(put.status, 201, "seed {seed}: {}", put.body);

        let inline = client::post(addr, "/repair", &call.to_json_value().to_string())
            .expect("inline request");
        assert_eq!(inline.status, 200, "seed {seed}: {}", inline.body);
        let by_ref = client::post(addr, "/repair", &ref_body).expect("by-ref request");
        assert_eq!(by_ref.status, 200, "seed {seed}: {}", by_ref.body);
        assert_eq!(
            inline.body, by_ref.body,
            "seed {seed}: a by-ref call must replay the inline bytes"
        );
        // The replay (now a cache hit under the ref key) stays identical,
        // and both match the direct engine run.
        let replay = client::post(addr, "/repair", &ref_body).expect("by-ref replay");
        assert_eq!(replay.header("x-fd-cache"), Some("hit"), "seed {seed}");
        assert_eq!(replay.body, by_ref.body, "seed {seed}");
        let mut report = Planner
            .run(&call.table, &call.fds, &call.request)
            .expect("generated calls are solvable");
        report.timings = Timings::default();
        assert_eq!(by_ref.body, report.to_json(), "seed {seed}");
    }

    flag.store(true, std::sync::atomic::Ordering::SeqCst);
    let _ = client::get(addr, "/healthz");
    handle.join().expect("server thread").expect("clean run");
}

/// The tree-based table reader the streaming one replaced, kept as the
/// reference the streaming reader must agree with: the whole document
/// parsed by `Json::parse_with_limits`, then each row's `Value`s, then
/// `Table::push`. `allowed` and `misplaced` are the call shape's
/// top-level grammar (`why` refuses a misplaced key).
mod reference {
    use fd_core::{Schema, Table, Tuple, Value};
    use fd_engine::{Json, JsonLimits};

    pub const TABLE_DOC: (&[&str], &[&str], &str) = (
        &["relation", "attrs", "rows"],
        &["fds", "request"],
        "does not belong in a stored table; send it with each /repair call",
    );
    pub const INLINE_CALL: (&[&str], &[&str], &str) = (
        &["relation", "attrs", "fds", "rows", "request"],
        &["table_ref"],
        "needs a server-side table store; this entry point only accepts inline tables",
    );

    pub fn read(
        text: &str,
        limits: &JsonLimits,
        (allowed, misplaced, why): (&[&str], &[&str], &str),
    ) -> Result<Table, String> {
        let doc = Json::parse_with_limits(text, limits).map_err(|e| e.to_string())?;
        let Json::Obj(pairs) = &doc else {
            return Err(if allowed.contains(&"fds") {
                "the document must be a JSON object".into()
            } else {
                "the table document must be a JSON object".into()
            });
        };
        let unknown = pairs
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| !allowed.contains(k))
            .min();
        match unknown {
            Some(key) if misplaced.contains(&key) => return Err(format!("{key:?} {why}")),
            Some(key) => return Err(format!("unknown field {key:?}")),
            None => {}
        }
        let relation = match doc.get("relation") {
            None => "R",
            Some(Json::Str(s)) => s.as_str(),
            Some(_) => return Err("\"relation\" must be a string".into()),
        };
        let attrs = match doc.get("attrs") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|a| a.as_str().map(str::to_string))
                .collect::<Option<Vec<String>>>()
                .ok_or("\"attrs\" must be an array of strings")?,
            _ => return Err("missing \"attrs\": an array of attribute names".into()),
        };
        let schema = Schema::new(relation, attrs).map_err(|e| format!("invalid schema: {e}"))?;
        let mut table = Table::new(schema);
        let Some(Json::Arr(rows)) = doc.get("rows") else {
            return Err("missing \"rows\": an array of rows".into());
        };
        for (i, row) in rows.iter().enumerate() {
            let (weight, values) = row_of(row).map_err(|e| format!("row {i}: {e}"))?;
            table
                .push(Tuple::new(values), weight)
                .map_err(|e| format!("row {i}: {e}"))?;
        }
        Ok(table)
    }

    fn row_of(row: &Json) -> Result<(f64, Vec<Value>), String> {
        match row {
            Json::Arr(values) => Ok((1.0, values_of(values)?)),
            Json::Obj(pairs) => {
                let unknown = pairs
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .filter(|k| !["weight", "values", "id"].contains(k))
                    .min();
                if let Some(key) = unknown {
                    return Err(format!("unknown row field {key:?}"));
                }
                let weight = match row.get("weight") {
                    None => 1.0,
                    Some(w) => match w.as_num() {
                        Some(w) => w,
                        None => return Err("\"weight\" must be a number".into()),
                    },
                };
                match row.get("values") {
                    Some(Json::Arr(values)) => Ok((weight, values_of(values)?)),
                    _ => Err("missing \"values\" array".into()),
                }
            }
            _ => Err("each row must be an array of values or an object with \"values\"".into()),
        }
    }

    fn values_of(values: &[Json]) -> Result<Vec<Value>, String> {
        values
            .iter()
            .map(|v| match (v, v.as_num()) {
                (Json::Str(s), _) => Ok(Value::str(s)),
                (_, Some(n)) if n.fract() == 0.0 && n.abs() < 9.0e15 => Ok(Value::Int(n as i64)),
                (_, Some(n)) => Err(format!(
                    "value {n} is not an integer; send non-integral values as strings"
                )),
                (other, None) => Err(format!("values must be strings or integers, got {other}")),
            })
            .collect()
    }
}

/// A table's raw symbol columns, ids and weights: what "equal symbol
/// for symbol" compares, beside `Table`'s own equality.
fn symbols(table: &fd_core::Table) -> (Vec<Vec<u32>>, Vec<u32>, Vec<u64>) {
    (
        table
            .sym_cols()
            .iter()
            .map(|col| col.iter().map(|s| s.raw()).collect())
            .collect(),
        table.ids().map(|id| id.0).collect(),
        table.weights().iter().map(|w| w.to_bits()).collect(),
    )
}

/// Runs `text` through the streaming reader as a stored-table document
/// and as an inline call, and through the reference as both, and checks
/// that they agree: the same table symbol for symbol (and so the same
/// fingerprint and cache key), or the same error text. A call that
/// parses writes the canonical form `to_json_value` renders.
fn assert_reader_parity(text: &str, limits: &fd_engine::JsonLimits) {
    use fd_engine::{parse_table_doc, table_fingerprint};
    let stored = parse_table_doc(text, limits).map_err(|e| e.message);
    let expected = reference::read(text, limits, reference::TABLE_DOC);
    match (&stored, &expected) {
        (Ok(got), Ok(want)) => {
            assert_eq!(symbols(got), symbols(want), "{text:.300}");
            assert_eq!(got, want, "{text:.300}");
            assert_eq!(table_fingerprint(got), table_fingerprint(want));
        }
        _ => assert_eq!(stored, expected, "{text:.300}"),
    }
    let inline = RepairCall::parse(text, limits).map_err(|e| e.message);
    match (
        inline,
        reference::read(text, limits, reference::INLINE_CALL),
    ) {
        (Ok(call), Ok(want)) => {
            assert_eq!(symbols(&call.table), symbols(&want), "{text:.300}");
            assert_eq!(table_fingerprint(&call.table), table_fingerprint(&want));
            let tree_read = RepairCall {
                table: want,
                ..call.clone()
            };
            assert_eq!(call.cache_key(), tree_read.cache_key(), "{text:.300}");
            assert_eq!(call.canonical(), call.to_json_value().to_string());
        }
        // A table the reference reads must not fail in the call: every
        // document here has a valid Δ and request, if any.
        (Err(got), Ok(_)) => panic!("{got}: {text:.300}"),
        (got, Err(want)) => assert_eq!(got.err(), Some(want), "{text:.300}"),
    }
}

/// Renders a call's table the many ways a client may: rows as arrays or
/// objects with keys in either order, `id` fields, duplicate keys whose
/// first copy wins at both levels, members in any order, and random
/// whitespace.
fn scrambled_body(call: &RepairCall, rng: &mut StdRng) -> String {
    use fd_engine::Json;
    let full = call.to_json_value();
    let ws = |rng: &mut StdRng| [" ", "", "\n  ", "\t", ""][rng.gen_range(0..5usize)].to_string();
    let mut rows = Vec::new();
    for (i, row) in full
        .get("rows")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .enumerate()
    {
        let weight = row.get("weight").unwrap().to_string();
        let values = row.get("values").unwrap().to_string();
        let mut members = vec![
            format!("\"values\":{}{values}", ws(rng)),
            format!("\"weight\":{weight}"),
        ];
        match rng.gen_range(0..6u8) {
            0 if weight == "1" => {
                rows.push(values);
                continue;
            }
            1 => members.push(format!("\"id\": {}", i * 7)),
            2 => members.push("\"values\": [\"shadowed\"]".into()),
            3 => members.push("\"weight\": \"shadowed\"".into()),
            4 => members.insert(0, "\"id\": {\"any\": [null]}".into()),
            _ => {}
        }
        if rng.gen_range(0..2) == 0 {
            members.swap(0, 1);
        }
        rows.push(format!("{{{}}}", members.join(&format!(",{}", ws(rng)))));
    }
    let rows = format!("[{}]", rows.join(&format!(",{}", ws(rng))));
    let mut members: Vec<String> = ["relation", "attrs", "fds", "request"]
        .iter()
        .map(|key| format!("\"{key}\":{}{}", ws(rng), full.get(key).unwrap()))
        .collect();
    members.insert(
        rng.gen_range(0..members.len() + 1),
        format!("\"rows\": {rows}"),
    );
    if rng.gen_range(0..3) == 0 {
        let shadow = Json::str("shadowed").to_string();
        members.push(format!("\"relation\": {shadow}"));
        members.push("\"rows\": 7".into());
    }
    format!("{}{{{}}}{}", ws(rng), members.join(","), ws(rng))
}

#[test]
fn the_streaming_reader_agrees_with_the_tree_reader() {
    let limits = fd_engine::JsonLimits::UNTRUSTED;
    for seed in 0..120u64 {
        let call = random_call(seed);
        assert_reader_parity(&call.to_json_value().to_string(), &limits);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        for _ in 0..4 {
            let body = scrambled_body(&call, &mut rng);
            assert_reader_parity(&body, &limits);
            // A scrambled body is the same call: same key, same slot.
            let again = RepairCall::parse(&body, &limits).unwrap();
            assert_eq!(again.cache_key(), call.cache_key(), "{body}");
            assert_eq!(again.canonical(), call.to_json_value().to_string());
        }
    }
}

#[test]
fn the_streaming_reader_agrees_on_adversarial_documents() {
    let limits = fd_engine::JsonLimits::UNTRUSTED;
    let doc = |rows: &str| format!(r#"{{"attrs": ["A", "B"], "rows": [{rows}]}}"#);
    let mut docs: Vec<String> = [
        // Numbers: exponents, signs, fractions, overflow, the 9·10¹⁵
        // edge, and strings that look like numbers.
        r#"[1e3, -0]"#,
        r#"[+1, 2]"#,
        r#"[1.5, 2]"#,
        r#"[1e400, 2]"#,
        r#"[-1e400, 2]"#,
        r#"[9e15, 1]"#,
        r#"[-9e15, 1]"#,
        r#"[8999999999999999, -8999999999999999]"#,
        r#"[123456789012345, 1234567890123456]"#,
        r#"[0.0, 1E2]"#,
        r#"[007, -00]"#,
        r#"["12", "-0"], [12, 0]"#,
        r#"["1e3", "+1"], [1000, 1]"#,
        r#"[1., 2]"#,
        r#"[.5, 2]"#,
        r#"[-, 2]"#,
        r#"[1e, 2]"#,
        r#"[--1, 2]"#,
        r#"[1e+2, 3e-0]"#,
        // Escapes and astral characters.
        r#"["a\"b\\c\/\b\f\n\r\t", "\u0041\u00e9\u4e2d"]"#,
        "[\"😀 Δ\", \"\\u0000\"]",
        r#"["\ud83d\ude00", 1]"#,
        r#"["\x", 1]"#,
        r#"["\u12", 1]"#,
        r#"["unterminated, 1]"#,
        // Arity and weights.
        r#"[1]"#,
        r#"[1, 2, 3]"#,
        r#"{"weight": 0, "values": [1, 2]}"#,
        r#"{"weight": -1, "values": [1, 2]}"#,
        r#"{"weight": 1e400, "values": [1, 2]}"#,
        r#"{"weight": 2.5, "values": [1, 2]}"#,
        r#"{"weight": "2", "values": [1, 2]}"#,
        r#"{"weight": null, "values": [1]}"#,
        r#"{"values": [1, 2], "weight": 0, "zz": 1, "aa": 2}"#,
        // An object row's errors rank: unknown field, weight, values.
        r#"{"weight": "x", "zz": 1, "values": [1, 2]}"#,
        r#"{"values": "x", "weight": "y"}"#,
        r#"{"values": [1.5, 2], "weight": "y"}"#,
        r#"{"values": [1.5, true], "zz": 1}"#,
        r#"{"weight": 0, "values": [1.5]}"#,
        r#"{"values": "x", "weight": 2}"#,
        r#"{"values": [1, true], "values": [1, 2]}"#,
        r#"{"values": [1, 2], "values": [true]}"#,
        r#"{"weight": 3}"#,
        r#"{}"#,
        r#"[1, null]"#,
        r#"[1, [2, {"x": [3]}]]"#,
        r#"[1, {"a": 1}], [2, 1.5]"#,
        r#"[1, 1.5], [1]"#,
        "true",
        "7",
        r#""row""#,
    ]
    .iter()
    .map(|rows| doc(rows))
    .collect();
    docs.extend(
        [
            // Duplicate members, `rows` before `attrs`, relation and
            // schema errors, misplaced and unknown members.
            r#"{"rows": [[1, 2]], "attrs": ["A", "B"]}"#,
            r#"{"attrs": ["A"], "attrs": ["A", "B"], "rows": [[1, 2]]}"#,
            r#"{"attrs": ["A", "B"], "rows": [[1, 2]], "rows": [[1]]}"#,
            r#"{"attrs": ["A", "B"], "rows": [[1, 2]], "relation": "S", "relation": 5}"#,
            r#"{"relation": 5, "attrs": ["A"], "rows": [[1.5]]}"#,
            r#"{"attrs": ["A", "A"], "rows": [[1, 2]]}"#,
            r#"{"attrs": ["A", 1], "rows": []}"#,
            r#"{"attrs": ["A"], "rows": {}}"#,
            r#"{"attrs": ["A"]}"#,
            r#"{"rows": [[1]]}"#,
            r#"{"attrs": ["A"], "rows": [[1]], "fds": "A -> A", "zz": 1}"#,
            r#"{"attrs": ["A"], "rows": [[1]], "table_ref": "t"}"#,
            r#"{"attrs": ["A"], "rows": [[1.5]], "zz": 1}"#,
            r#"{"attrs": ["A"], "rows": [[1.5]]"#,
            r#"{"attrs": ["A"], "rows": [[1.5]]} x"#,
            r#"{"attrs": ["A"], "rows": [[1]]} {}"#,
            r#"{"attrs": ["A"], "rows": [[1], ]}"#,
            r#"{"attrs": ["A"], "rows": [[1]],}"#,
            r#"{"attrs": ["A"] "rows": [[1]]}"#,
            r#"{"attrs": ["A"], "rows": [[1]], 5: 1}"#,
            r#"[{"attrs": ["A"], "rows": [[1]]}]"#,
            r#""a document""#,
            "",
            "  ",
            "{",
            "nul",
        ]
        .map(str::to_string),
    );
    // Nesting at the depth cap inside a value: a type error one level
    // under the cap, a depth error one level past it.
    for (row_depth, nest) in [(3, 125), (3, 126), (4, 124), (4, 125)] {
        let value = format!("{}1{}", "[".repeat(nest), "]".repeat(nest));
        let row = if row_depth == 3 {
            format!("[1, {value}]")
        } else {
            format!(r#"{{"values": [1, {value}]}}"#)
        };
        docs.push(doc(&row));
    }
    for text in &docs {
        assert_reader_parity(text, &limits);
    }
}

#[test]
fn the_streaming_reader_agrees_at_the_body_cap() {
    // The server's default 4 MB body cap: a document of exactly that
    // many bytes reads, one byte more is refused before any parsing.
    let limits = fd_engine::JsonLimits {
        max_bytes: 4 << 20,
        max_depth: fd_engine::JsonLimits::DEFAULT_MAX_DEPTH,
    };
    let rows: Vec<String> = (0..90_000)
        .map(|i| {
            format!(
                r#"{{"weight": {}, "values": [{i}, "s{}"]}}"#,
                1 + i % 3,
                i % 977
            )
        })
        .collect();
    let body = format!(r#"{{"attrs": ["A", "B"], "rows": [{}]}}"#, rows.join(","));
    assert!(body.len() < limits.max_bytes, "{}", body.len());
    let at_cap = format!("{body}{}", " ".repeat(limits.max_bytes - body.len()));
    assert_eq!(at_cap.len(), limits.max_bytes);
    assert_reader_parity(&at_cap, &limits);
    let over = format!("{at_cap} ");
    assert_reader_parity(&over, &limits);
    assert!(fd_engine::parse_table_doc(&over, &limits).is_err());
}
