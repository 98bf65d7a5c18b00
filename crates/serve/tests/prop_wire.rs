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
