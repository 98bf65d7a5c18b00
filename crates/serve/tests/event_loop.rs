//! Abuse-resistance tests for the readiness-driven serving tier: under
//! the event loop a hostile peer costs one slab slot, never a worker
//! thread, so stalls, trickles, and never-reading clients must not
//! delay healthy traffic. Each test runs twice where it matters — once
//! on the platform poller (epoll on Linux) and once on the portable
//! tick-based fallback — because both must uphold the same contract.

use fd_serve::{client, ServeConfig, Server};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const OFFICE: &str = r#"{
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

fn start(
    config: ServeConfig,
) -> (
    SocketAddr,
    std::sync::Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind(config).expect("ephemeral bind");
    let addr = server.local_addr().unwrap();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());
    (addr, flag, handle)
}

fn stop(
    addr: SocketAddr,
    flag: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
) {
    flag.store(true, Ordering::SeqCst);
    // Nudge the loop in case it is parked in a long poll.
    let _ = client::get(addr, "/healthz");
    handle.join().expect("server thread").expect("clean run");
}

/// Both pollers, labeled — the portable fallback must uphold the same
/// behavior as epoll, just with a tick instead of readiness.
fn poller_variants() -> [(&'static str, bool); 2] {
    [("platform", false), ("portable", true)]
}

#[test]
fn slowloris_and_silent_connections_do_not_delay_healthy_clients() {
    for (label, portable) in poller_variants() {
        let (addr, flag, handle) = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            io_timeout_ms: 2_000,
            portable_poller: portable,
            ..ServeConfig::default()
        });

        // 40 hostile connections: half silent, half trickling a request
        // head one byte at a time and then stalling.
        let hostile: Vec<TcpStream> = (0..40)
            .map(|i| {
                let mut stream = TcpStream::connect(addr).expect("connect");
                if i % 2 == 0 {
                    let _ = stream.write_all(b"POST /re");
                }
                stream
            })
            .collect();

        // Healthy requests answer promptly while every staller is open.
        let started = Instant::now();
        for _ in 0..3 {
            let response = client::post(addr, "/repair", OFFICE).expect("healthy round trip");
            assert_eq!(response.status, 200, "[{label}] {}", response.body);
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "[{label}] healthy traffic must not wait behind stallers"
        );

        // The stallers hit the io deadline and are closed server-side;
        // the server then keeps serving.
        drop(hostile);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);

        stop(addr, flag, handle);
    }
}

#[test]
fn the_connection_cap_closes_extras_and_counts_them() {
    let (addr, flag, handle) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        max_connections: 8,
        io_timeout_ms: 10_000,
        ..ServeConfig::default()
    });

    // Fill the slab with silent connections, then overflow it. Extras
    // are closed immediately (no 503 is owed — the bound is on sockets,
    // not work), which a client sees as EOF/reset on its next read.
    let held: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
    std::thread::sleep(Duration::from_millis(200));
    let mut closed = 0;
    for _ in 0..5 {
        use std::io::Read;
        let mut extra = TcpStream::connect(addr).unwrap();
        extra
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut buf = [0u8; 16];
        match extra.read(&mut buf) {
            Ok(0) => closed += 1,
            Ok(_) => {}
            Err(_) => closed += 1, // reset also counts as refused
        }
    }
    assert!(
        closed >= 4,
        "overflow connections must be closed, saw {closed}"
    );

    // Releasing slots restores service, and the closures were counted.
    drop(held);
    std::thread::sleep(Duration::from_millis(100));
    let metrics = client::get(addr, "/metrics").unwrap().body;
    let counted: u64 = metrics
        .lines()
        .find_map(|l| {
            l.strip_prefix("fd_serve_conn_limit_closed_total ")
                .map(str::trim)
        })
        .and_then(|v| v.parse().ok())
        .expect("conn limit counter exported");
    assert!(counted >= 4, "{metrics}");

    stop(addr, flag, handle);
}

#[test]
fn concurrent_identical_calls_coalesce_onto_one_flight_over_the_wire() {
    for (label, portable) in poller_variants() {
        let (addr, flag, handle) = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 4,
            portable_poller: portable,
            ..ServeConfig::default()
        });

        const CLIENTS: usize = 8;
        let responses: Vec<_> = {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| std::thread::spawn(move || client::post(addr, "/repair", OFFICE).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        };
        let first = &responses[0];
        assert_eq!(first.status, 200, "[{label}]");
        for response in &responses {
            assert_eq!(response.body, first.body, "[{label}] bytes must be shared");
        }

        let metrics = client::get(addr, "/metrics").unwrap().body;
        let counter = |name: &str| -> u64 {
            metrics
                .lines()
                .find_map(|l| l.strip_prefix(name).map(str::trim))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("[{label}] {name} missing:\n{metrics}"))
        };
        // One solve total; everyone else either coalesced onto the
        // flight or hit the cache after it completed.
        assert_eq!(counter("fd_serve_cache_misses "), 1, "[{label}]\n{metrics}");
        assert_eq!(
            counter("fd_serve_cache_hits ") + counter("fd_serve_coalesced_total "),
            (CLIENTS - 1) as u64,
            "[{label}]\n{metrics}"
        );

        stop(addr, flag, handle);
    }
}

#[test]
fn tables_round_trip_over_the_wire_with_tenant_isolation() {
    let (addr, flag, handle) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        max_tables_per_tenant: 2,
        ..ServeConfig::default()
    });

    let table_doc = r#"{
        "attrs": ["facility", "room", "floor", "city"],
        "rows": [
            {"weight": 2, "values": ["HQ", 322, 3, "Paris"]},
            {"weight": 1, "values": ["HQ", 322, 30, "Madrid"]},
            {"weight": 1, "values": ["HQ", 122, 1, "Madrid"]},
            {"weight": 2, "values": ["Lab1", "B35", 3, "London"]}
        ]
    }"#;
    let by_ref = r#"{
        "table_ref": "office",
        "fds": "facility -> city; facility room -> floor",
        "request": {"include_timings": false}
    }"#;
    let tenant = [("X-Tenant", "acme")];

    let put = client::request_with_headers(addr, "PUT", "/tables/office", Some(table_doc), &tenant)
        .unwrap();
    assert_eq!(put.status, 201, "{}", put.body);

    // The same id under another tenant resolves nothing…
    let foreign = client::post(addr, "/repair", by_ref).unwrap();
    assert_eq!(foreign.status, 404, "{}", foreign.body);
    // …while the owner's by-ref call matches its inline equivalent.
    let inline = client::post(addr, "/repair", OFFICE).unwrap();
    let own = client::request_with_headers(addr, "POST", "/repair", Some(by_ref), &tenant).unwrap();
    assert_eq!(own.status, 200, "{}", own.body);
    assert_eq!(own.body, inline.body, "by-ref must replay inline bytes");

    // Immutable ids and quotas over the wire: re-PUT conflicts; the
    // third table for the tenant exceeds its quota of two.
    let dup = client::request_with_headers(addr, "PUT", "/tables/office", Some(table_doc), &tenant)
        .unwrap();
    assert_eq!(dup.status, 409, "{}", dup.body);
    let second =
        client::request_with_headers(addr, "PUT", "/tables/two", Some(table_doc), &tenant).unwrap();
    assert_eq!(second.status, 201);
    let third =
        client::request_with_headers(addr, "PUT", "/tables/three", Some(table_doc), &tenant)
            .unwrap();
    assert_eq!(third.status, 413, "{}", third.body);

    // DELETE frees the id and the by-ref lookup 404s again.
    let del =
        client::request_with_headers(addr, "DELETE", "/tables/office", None, &tenant).unwrap();
    assert_eq!(del.status, 200);
    let gone =
        client::request_with_headers(addr, "POST", "/repair", Some(by_ref), &tenant).unwrap();
    assert_eq!(gone.status, 404);

    stop(addr, flag, handle);
}

#[test]
fn graceful_shutdown_finishes_in_flight_work_on_both_pollers() {
    for (label, portable) in poller_variants() {
        let (addr, flag, handle) = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            portable_poller: portable,
            ..ServeConfig::default()
        });
        // Prove the variant actually serves, then shut down cleanly.
        let response = client::post(addr, "/repair", OFFICE).unwrap();
        assert_eq!(response.status, 200, "[{label}]");
        stop(addr, flag, handle);
    }
}

/// Reads from `stream` until `want` bytes arrived or the peer closed.
fn read_at_least(stream: &mut TcpStream, want: usize) -> Vec<u8> {
    use std::io::Read;
    let mut got = Vec::new();
    let mut buf = [0u8; 4096];
    while got.len() < want {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => got.extend_from_slice(&buf[..n]),
        }
    }
    got
}

#[test]
fn expect_100_continue_is_answered_before_the_body_is_sent() {
    use std::io::Read;
    const CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";
    let io_timeout = Duration::from_millis(2_000);
    for (label, portable) in poller_variants() {
        let (addr, flag, handle) = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            io_timeout_ms: io_timeout.as_millis() as u64,
            max_body_bytes: 64 * 1024,
            portable_poller: portable,
            ..ServeConfig::default()
        });
        let connect = || {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_read_timeout(Some(io_timeout)).unwrap();
            stream
        };

        // The head alone earns `100 Continue` well inside the deadline;
        // the body then gets the normal response.
        let mut stream = connect();
        let head = format!(
            "POST /repair HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: {}\r\n\r\n",
            OFFICE.len()
        );
        let sent = Instant::now();
        stream.write_all(head.as_bytes()).unwrap();
        let interim = read_at_least(&mut stream, CONTINUE.len());
        assert_eq!(
            interim,
            CONTINUE,
            "{label}: {}",
            String::from_utf8_lossy(&interim)
        );
        assert!(sent.elapsed() < io_timeout, "{label}: {:?}", sent.elapsed());
        stream.write_all(OFFICE.as_bytes()).unwrap();
        let mut rest = String::new();
        stream.read_to_string(&mut rest).unwrap();
        assert!(rest.starts_with("HTTP/1.1 200 OK\r\n"), "{label}: {rest}");
        assert!(rest.contains("\"notion\":\"s\""), "{label}: {rest}");

        // An over-cap head is refused before any body is sent, and an
        // Expect value other than 100-continue is 417; neither gets an
        // interim response.
        for (head, status) in [
            (
                "POST /repair HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 999999\r\n\r\n",
                "HTTP/1.1 413 ",
            ),
            (
                "POST /repair HTTP/1.1\r\nExpect: 200-ok\r\nContent-Length: 10\r\n\r\n",
                "HTTP/1.1 417 ",
            ),
        ] {
            let mut stream = connect();
            stream.write_all(head.as_bytes()).unwrap();
            let reply =
                String::from_utf8_lossy(&read_at_least(&mut stream, usize::MAX)).into_owned();
            assert!(reply.starts_with(status), "{label}: {reply}");
        }

        stop(addr, flag, handle);
    }
}
