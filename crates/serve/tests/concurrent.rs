//! Integration test of concurrent serving: a real server on an
//! ephemeral port, N client threads firing mixed notions, and the
//! acceptance bar from the issue — every response must be
//! **byte-identical** to a direct `RepairEngine::run` on the same
//! request (requests set `include_timings: false`, the wire knob that
//! zeroes the only nondeterministic report field).

use fd_core::{tup, FdSet, Schema, Table};
use fd_engine::{Notion, Optimality, Planner, RepairCall, RepairEngine, RepairRequest, Timings};
use fd_serve::{client, ServeConfig, Server};
use fd_urepair::MixedCosts;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The Figure-1 running example.
fn office() -> (Table, FdSet) {
    let s = Schema::new("Office", ["facility", "room", "floor", "city"]).unwrap();
    let fds = FdSet::parse(&s, "facility -> city; facility room -> floor").unwrap();
    let t = Table::build(
        s,
        vec![
            (tup!["HQ", 322, 3, "Paris"], 2.0),
            (tup!["HQ", 322, 30, "Madrid"], 1.0),
            (tup!["HQ", 122, 1, "Madrid"], 1.0),
            (tup!["Lab1", "B35", 3, "London"], 2.0),
        ],
    )
    .unwrap();
    (t, fds)
}

/// The sensors fixture: probabilistic weights, for the MPD notion.
fn sensors() -> (Table, FdSet) {
    let s = Schema::new("Reading", ["sensor", "room"]).unwrap();
    let fds = FdSet::parse(&s, "sensor -> room").unwrap();
    let t = Table::build(
        s,
        vec![
            (tup!["s1", "lab"], 0.9),
            (tup!["s1", "attic"], 0.6),
            (tup!["s1", "cellar"], 0.3),
            (tup!["s2", "lab"], 0.8),
            (tup!["s3", "attic"], 0.7),
            (tup!["s3", "roof"], 0.4),
        ],
    )
    .unwrap();
    (t, fds)
}

/// A deterministic wire call for one notion.
fn call_for(notion: Notion) -> RepairCall {
    let (table, fds) = match notion {
        Notion::Mpd => sensors(),
        _ => office(),
    };
    let mut request = RepairRequest::new(notion);
    if notion == Notion::Mixed {
        request = request.mixed_costs(MixedCosts::new(1.0, 0.5));
    }
    RepairCall {
        table,
        fds,
        request,
        include_timings: false,
    }
}

/// What the engine itself answers, serialized exactly as the server
/// serializes it.
fn direct_answer(call: &RepairCall) -> String {
    let mut report = Planner
        .run(&call.table, &call.fds, &call.request)
        .expect("fixture requests are feasible");
    report.timings = Timings::default();
    report.to_json()
}

fn start_server(
    config: ServeConfig,
) -> (
    SocketAddr,
    Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind(config).expect("ephemeral bind");
    let addr = server.local_addr().unwrap();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());
    (addr, flag, handle)
}

#[test]
fn concurrent_mixed_notions_match_direct_engine_runs_byte_for_byte() {
    let (addr, flag, handle) = start_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        cache_entries: 64,
        ..ServeConfig::default()
    });

    let notions = [Notion::Subset, Notion::Update, Notion::Mixed, Notion::Mpd];
    let fixtures: Vec<(String, String)> = notions
        .iter()
        .map(|&notion| {
            let call = call_for(notion);
            (call.to_json_value().to_string(), direct_answer(&call))
        })
        .collect();
    let fixtures = Arc::new(fixtures);

    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 6;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|client_id| {
            let fixtures = Arc::clone(&fixtures);
            std::thread::spawn(move || {
                for i in 0..REQUESTS_PER_CLIENT {
                    let (body, expected) = &fixtures[(client_id + i) % fixtures.len()];
                    let response = client::post(addr, "/repair", body).expect("round trip");
                    assert_eq!(response.status, 200, "client {client_id} req {i}");
                    assert_eq!(
                        response.body, *expected,
                        "client {client_id} req {i}: response must be byte-identical \
                         to the direct engine run"
                    );
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }

    // With 48 requests over 4 distinct cacheable bodies, one solve per
    // body suffices: concurrent first requests for the same body
    // coalesce onto one flight (single-flight), and everyone after that
    // hits the cache. Misses count exactly the calls that solved.
    let metrics = client::get(addr, "/metrics").unwrap().body;
    let counter = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name).map(str::trim))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} missing in:\n{metrics}"))
    };
    let hits = counter("fd_serve_cache_hits ");
    let misses = counter("fd_serve_cache_misses ");
    let coalesced = counter("fd_serve_coalesced_total ");
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    assert_eq!(hits + misses + coalesced, total, "{metrics}");
    assert!(
        misses <= notions.len() as u64,
        "one solve per distinct body:\n{metrics}"
    );

    flag.store(true, Ordering::SeqCst);
    handle.join().unwrap().unwrap();
}

#[test]
fn malformed_and_oversized_bodies_get_4xx_and_the_server_survives() {
    let (addr, flag, handle) = start_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        max_body_bytes: 4096,
        ..ServeConfig::default()
    });

    for (body, expect) in [
        ("", 411u16), // curl-style empty POST still sends a length… we send none
        ("{", 400),
        ("not json at all", 400),
        (&"[".repeat(3000), 400),
        (&"x".repeat(8192), 413),
    ] {
        let status = if body.is_empty() {
            // A POST without Content-Length must be 411.
            let raw = client::request(addr, "POST", "/repair", None);
            // Our client always sends Content-Length, so craft it by hand.
            drop(raw);
            use std::io::{Read, Write};
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            stream
                .write_all(b"POST /repair HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut text = String::new();
            stream.read_to_string(&mut text).unwrap();
            text.split_whitespace()
                .nth(1)
                .unwrap()
                .parse::<u16>()
                .unwrap()
        } else {
            client::post(addr, "/repair", body).unwrap().status
        };
        assert_eq!(status, expect, "body {body:.32?}");
    }

    // After all that abuse the server still answers healthily.
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    let good = call_for(Notion::Subset);
    let response = client::post(addr, "/repair", &good.to_json_value().to_string()).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.body, direct_answer(&good));

    flag.store(true, Ordering::SeqCst);
    handle.join().unwrap().unwrap();
}

/// Update calls the exact search must not take, and one it takes on a
/// row whose candidate cross product is millions of tuples: each answers
/// at once (a plan-time 422, the approximation, or the search), and the
/// one worker is free for `/healthz` afterwards.
#[test]
fn exact_update_calls_stay_bounded_and_the_server_keeps_serving() {
    let (addr, flag, handle) = start_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        ..ServeConfig::default()
    });
    let s = Schema::new("R", ["A", "B", "C"]).unwrap();
    let hard_fds = FdSet::parse(&s, "A -> C; B -> C").unwrap();
    let hard = Table::build_unweighted(s, (0..30i64).map(|i| tup![i % 5, i % 4, i % 3])).unwrap();
    let wide_schema = Schema::new("W", ["A", "B", "C", "D", "E", "F", "G", "H"]).unwrap();
    let wide_fds = FdSet::parse(&wide_schema, "A -> C D E F G H; B -> C D E F G H").unwrap();
    let wide = Table::build_unweighted(
        wide_schema,
        vec![
            tup![1, 1, 1, 1, 1, 1, 1, 1],
            tup![1, 2, 2, 2, 2, 2, 2, 2],
            tup![2, 1, 3, 3, 3, 3, 3, 3],
            tup![2, 2, 4, 4, 4, 4, 4, 4],
        ],
    )
    .unwrap();
    let update = RepairRequest::update();
    for (table, fds, request, status) in [
        (&hard, &hard_fds, update.optimality(Optimality::Exact), 422),
        (
            &hard,
            &hard_fds,
            update.optimality(Optimality::Approximate { max_ratio: 1.0 }),
            422,
        ),
        (&hard, &hard_fds, update.exact_row_limit(100_000), 200),
        (&wide, &wide_fds, update, 200),
    ] {
        let call = RepairCall {
            table: table.clone(),
            fds: fds.clone(),
            request,
            include_timings: false,
        };
        let response = client::post(addr, "/repair", &call.to_json_value().to_string()).unwrap();
        assert_eq!(response.status, status, "{}", response.body);
        if status == 200 {
            assert_eq!(response.body, direct_answer(&call));
        }
        assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    }

    flag.store(true, Ordering::SeqCst);
    handle.join().unwrap().unwrap();
}

#[test]
fn explain_healthz_and_graceful_shutdown() {
    let (addr, flag, handle) = start_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        ..ServeConfig::default()
    });

    let call = call_for(Notion::Update);
    let explain = client::post(addr, "/explain", &call.to_json_value().to_string()).unwrap();
    assert_eq!(explain.status, 200);
    let doc = fd_engine::Json::parse(&explain.body).unwrap();
    assert_eq!(doc.get("notion").unwrap().as_str(), Some("u"));
    assert!(!doc.get("steps").unwrap().as_arr().unwrap().is_empty());
    // The direct plan serializes identically.
    let direct = Planner
        .plan(&call.table, &call.fds, &call.request)
        .unwrap()
        .to_json_value()
        .to_string();
    assert_eq!(explain.body, direct);

    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    assert_eq!(client::get(addr, "/nope").unwrap().status, 404);

    flag.store(true, Ordering::SeqCst);
    handle.join().unwrap().unwrap();
    // The port is released after shutdown: a fresh bind to it succeeds.
    let rebound = std::net::TcpListener::bind(addr);
    assert!(rebound.is_ok(), "port must be free after graceful shutdown");
}
