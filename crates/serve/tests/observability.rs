//! End-to-end observability: the access log, request ids, `?trace=1`
//! envelopes over real sockets, shed accounting, and the contract that
//! `/metrics` and `docs/API.md` describe exactly the same series.

use fd_engine::Json;
use fd_serve::{client, AccessRecord, Metrics, ServeConfig, Server, Shared};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

/// A `Write` handle into a shared buffer, so the test can read back
/// what the server's access log wrote.
struct BufSink(Arc<Mutex<Vec<u8>>>);

impl Write for BufSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Everything a test needs from [`server_with_log`]: where to connect,
/// the captured access log, and the handles to stop and join the server.
type RunningServer = (
    std::net::SocketAddr,
    Arc<Mutex<Vec<u8>>>,
    Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<std::io::Result<()>>,
);

/// Starts a server whose access log writes into the returned buffer.
fn server_with_log(config: ServeConfig) -> RunningServer {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let shared = Shared::with_access_sink(config, Some(Box::new(BufSink(Arc::clone(&buf)))));
    let server = Server::bind_shared(shared).unwrap();
    let addr = server.local_addr().unwrap();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());
    (addr, buf, flag, handle)
}

fn log_lines(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<Json> {
    let bytes = buf.lock().unwrap().clone();
    String::from_utf8(bytes)
        .unwrap()
        .lines()
        .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("bad log line {line:?}: {e:?}")))
        .collect()
}

#[test]
fn access_log_records_every_request_as_one_json_line() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        ..ServeConfig::default()
    };
    let (addr, buf, flag, handle) = server_with_log(config);

    let repair = client::post(addr, "/repair", OFFICE).unwrap();
    assert_eq!(repair.status, 200);
    let id = repair.header("x-request-id").unwrap().to_string();
    assert!(id.starts_with("req-"), "{id:?}");
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    assert_eq!(client::get(addr, "/nope").unwrap().status, 404);

    // The log write happens just before the response bytes, but give the
    // worker a beat in case the client read raced ahead.
    std::thread::sleep(Duration::from_millis(100));
    let lines = log_lines(&buf);
    assert_eq!(lines.len(), 3, "{lines:?}");

    let repair_line = lines
        .iter()
        .find(|l| l.get("path").and_then(Json::as_str) == Some("/repair"))
        .expect("repair line");
    assert_eq!(repair_line.get("request_id").unwrap().as_str(), Some(&*id));
    assert_eq!(repair_line.get("method").unwrap().as_str(), Some("POST"));
    assert_eq!(repair_line.get("status").unwrap().as_num(), Some(200.0));
    assert_eq!(repair_line.get("notion").unwrap().as_str(), Some("s"));
    assert_eq!(repair_line.get("rows").unwrap().as_num(), Some(4.0));
    assert_eq!(repair_line.get("cache_hit").unwrap().as_bool(), Some(false));
    assert_eq!(repair_line.get("queued").unwrap().as_bool(), Some(true));
    assert!(repair_line.get("queue_wait_us").unwrap().as_num().is_some());
    assert!(repair_line.get("components").unwrap().as_num().is_some());

    let miss_line = lines
        .iter()
        .find(|l| l.get("status").and_then(Json::as_num) == Some(404.0))
        .expect("404 line");
    assert!(matches!(miss_line.get("notion"), Some(Json::Null)));

    flag.store(true, Ordering::SeqCst);
    handle.join().unwrap().unwrap();
}

#[test]
fn traced_calls_return_an_envelope_with_identical_report_bytes() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        ..ServeConfig::default()
    };
    let (addr, _buf, flag, handle) = server_with_log(config);

    let traced = client::post(addr, "/repair?trace=1", OFFICE).unwrap();
    assert_eq!(traced.status, 200);
    let doc = Json::parse(&traced.body).unwrap();
    let events = doc
        .get("trace")
        .expect("trace")
        .get("traceEvents")
        .expect("traceEvents")
        .as_arr()
        .unwrap();
    assert!(!events.is_empty(), "a traced solve records spans");
    assert_eq!(
        doc.get("request_id").unwrap().as_str(),
        traced.header("x-request-id"),
        "envelope id matches the header"
    );

    // The untraced call replays the cached report — and those bytes must
    // appear verbatim inside the traced envelope.
    let plain = client::post(addr, "/repair", OFFICE).unwrap();
    assert_eq!(plain.header("x-fd-cache"), Some("hit"));
    assert!(
        traced.body.contains(&plain.body),
        "tracing must not perturb report bytes"
    );

    flag.store(true, Ordering::SeqCst);
    handle.join().unwrap().unwrap();
}

/// A `/repair` body that keeps one (debug-build) worker busy for
/// hundreds of milliseconds: a large all-conflicting subset instance.
/// `include_timings: true` makes it uncacheable, so concurrent copies
/// never coalesce, and `salt` makes the bodies distinct besides.
fn slow_body(salt: usize) -> String {
    let mut body =
        format!(r#"{{"relation": "Slow{salt}", "attrs": ["a", "b"], "fds": "a -> b", "rows": ["#);
    for i in 0..100_000 {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("[{}, {}]", i / 2, i));
    }
    body.push_str(r#"], "request": {"include_timings": true}}"#);
    body
}

#[test]
fn shed_requests_get_503_and_an_unqueued_log_line() {
    // One worker, queue depth one. Idle connections cost nothing under
    // the event loop (they hold a slab slot, not a worker), so the
    // saturation here is real *work*: two slow solves occupy the worker
    // and the queue, and the third fully-read request must be shed at
    // submit time — written back 503 by the event loop, never queued.
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    };
    let (addr, buf, flag, handle) = server_with_log(config);

    // Idle and never-reading connections must not delay anyone now.
    let _idle = TcpStream::connect(addr).unwrap();

    // Build the (large) bodies before the clock starts: constructing
    // them inside the client threads would delay the submissions past
    // the probe below. Stagger the two: the first occupies the worker,
    // the second the queue slot.
    let slow_workers: Vec<_> = (0..2)
        .map(|salt| {
            let body = slow_body(salt);
            let worker = std::thread::spawn(move || client::post(addr, "/repair", &body).unwrap());
            std::thread::sleep(Duration::from_millis(50));
            worker
        })
        .collect();
    assert_eq!(
        client::get(addr, "/healthz").unwrap().status,
        200,
        "liveness must not depend on worker capacity"
    );
    // The probe must be queueable work — healthz is answered by the IO
    // loop itself and stays 200 under any load (the assertion above).
    // How long each slow solve occupies the worker depends on the build
    // profile, so probe in a loop: while either slow call is mid-solve
    // with the other queued, a probe must shed. Tiny probes round-trip
    // in well under a solve, so the loop always lands in that window.
    let probe = r#"{"attrs": ["a", "b"], "fds": "a -> b",
        "rows": [[1, 1], [1, 2]], "request": {"include_timings": true}}"#;
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let shed = loop {
        let resp = client::post(addr, "/repair", probe).unwrap();
        if resp.status == 503 {
            break resp;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no probe was ever shed; last status {}",
            resp.status
        );
    };
    assert_eq!(shed.status, 503, "{}", shed.body);

    std::thread::sleep(Duration::from_millis(100));
    let shed_line = log_lines(&buf)
        .into_iter()
        .find(|l| l.get("status").and_then(Json::as_num) == Some(503.0))
        .expect("shed line must be logged");
    assert_eq!(
        shed_line.get("queued").unwrap().as_bool(),
        Some(false),
        "sheds never entered the queue"
    );
    assert_eq!(shed_line.get("path").unwrap().as_str(), Some("-"));

    // The slow solves drain (a probe racing one of them for the queue
    // slot can legitimately shed it, so only the statuses are pinned),
    // and once they do the queue gauge returns to zero.
    for worker in slow_workers {
        let status = worker.join().unwrap().status;
        assert!(status == 200 || status == 503, "unexpected status {status}");
    }
    let metrics = client::get(addr, "/metrics").unwrap().body;
    assert!(
        metrics.contains("fd_serve_queue_depth 0"),
        "gauge must drain back to zero:\n{metrics}"
    );
    let shed_total: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("fd_serve_queue_rejected_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("fd_serve_queue_rejected_total must be exported");
    assert!(shed_total >= 1, "{metrics}");

    flag.store(true, Ordering::SeqCst);
    handle.join().unwrap().unwrap();
}

/// The access-log fields the table in docs/OBSERVABILITY.md documents,
/// in its order.
fn documented_log_fields() -> Vec<String> {
    let docs = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/OBSERVABILITY.md"
    ))
    .expect("docs/OBSERVABILITY.md is part of the repo");
    let section = docs
        .split("**Access log.**")
        .nth(1)
        .expect("OBSERVABILITY.md documents the access log")
        .split("\n\n**")
        .next()
        .unwrap();
    let mut fields = Vec::new();
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        let cell = row.split('|').nth(1).unwrap();
        fields.extend(cell.split('`').skip(1).step_by(2).map(str::to_string));
    }
    fields
}

/// A line's keys, in the order it wrote them.
fn keys_of(line: &Json) -> Vec<String> {
    match line {
        Json::Obj(pairs) => pairs.iter().map(|(key, _)| key.clone()).collect(),
        other => panic!("a log line is an object, got {other}"),
    }
}

#[test]
fn shed_records_have_the_documented_shape() {
    // Every kind of line — a shed, a reject, a fast-path hit and a
    // worker line — carries exactly the documented fields, in the
    // documented order: no field lands in the log undocumented, and
    // none is documented that the log never writes.
    let documented = documented_log_fields();
    assert!(documented.len() >= 12, "{documented:?}");
    let shed = Json::parse(&AccessRecord::shed("req-1".into()).to_json_line()).unwrap();
    assert_eq!(keys_of(&shed), documented, "shed line");

    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        ..ServeConfig::default()
    };
    let (addr, buf, flag, handle) = server_with_log(config);
    assert_eq!(client::post(addr, "/repair", OFFICE).unwrap().status, 200);
    let hit = client::post(addr, "/repair", OFFICE).unwrap();
    assert_eq!(hit.header("x-fd-cache"), Some("hit"));
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
    let mut answer = String::new();
    std::io::Read::read_to_string(&mut raw, &mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");
    std::thread::sleep(Duration::from_millis(100));
    flag.store(true, Ordering::SeqCst);
    handle.join().unwrap().unwrap();

    let lines = log_lines(&buf);
    assert_eq!(lines.len(), 3, "{lines:?}");
    let flag_of = |line: &Json, key: &str| line.get(key).and_then(Json::as_bool);
    let worker = lines.iter().find(|l| flag_of(l, "queued") == Some(true));
    let fast = lines.iter().find(|l| flag_of(l, "cache_hit") == Some(true));
    let reject = lines
        .iter()
        .find(|l| l.get("status").and_then(Json::as_num) == Some(400.0));
    for (kind, line) in [("worker", worker), ("fast-path", fast), ("reject", reject)] {
        let line = line.unwrap_or_else(|| panic!("no {kind} line in {lines:?}"));
        assert_eq!(keys_of(line), documented, "{kind} line");
    }
    // Neither the fast path nor a reject takes a worker-queue slot.
    for line in [fast, reject].into_iter().flatten() {
        assert_eq!(flag_of(line, "queued"), Some(false), "{line}");
        assert_eq!(line.get("queue_wait_us").unwrap().as_num(), Some(0.0));
    }
    let fast = fast.unwrap();
    assert_eq!(fast.get("method").unwrap().as_str(), Some("POST"));
    assert_eq!(fast.get("path").unwrap().as_str(), Some("/repair"));
}

/// One parsed exposition line: family name, label pairs, value.
fn parse_series(line: &str) -> (String, Vec<(String, String)>, f64) {
    let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("{line:?}"));
    let value: f64 = value.parse().unwrap_or_else(|_| panic!("{line:?}"));
    match name_part.split_once('{') {
        None => (name_part.to_string(), Vec::new(), value),
        Some((family, rest)) => {
            let rest = rest.strip_suffix('}').unwrap_or_else(|| panic!("{line:?}"));
            let labels = rest
                .split(',')
                .map(|pair| {
                    let (k, v) = pair.split_once('=').unwrap_or_else(|| panic!("{line:?}"));
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .unwrap_or_else(|| panic!("unquoted label in {line:?}"));
                    (k.to_string(), v.to_string())
                })
                .collect();
            (family.to_string(), labels, value)
        }
    }
}

/// Every `fd_serve_*` token in a block of documentation text.
fn doc_families(text: &str) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    let mut rest = text;
    while let Some(pos) = rest.find("fd_serve_") {
        let tail = &rest[pos..];
        let end = tail
            .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        out.insert(tail[..end].to_string());
        rest = &tail[end..];
    }
    out
}

#[test]
fn metrics_exposition_matches_api_docs_exactly() {
    // Every family renders on every scrape (zeros included), so a fresh
    // Metrics shows the complete exposition surface.
    let text = Metrics::new().render();
    let mut rendered = std::collections::BTreeSet::new();
    for line in text.lines() {
        let (family, labels, _value) = parse_series(line);
        assert!(family.starts_with("fd_serve_"), "{line:?}");
        for (key, value) in &labels {
            assert!(
                matches!(key.as_str(), "class" | "notion" | "endpoint" | "path"),
                "undocumented label key in {line:?}"
            );
            assert!(!value.is_empty(), "{line:?}");
        }
        rendered.insert(family);
    }

    let docs = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/API.md"))
        .expect("docs/API.md is part of the repo");
    let metrics_section = docs
        .split("## Metrics")
        .nth(1)
        .expect("API.md has a Metrics section")
        .split("\n## ")
        .next()
        .unwrap();
    let documented = doc_families(metrics_section);

    let undocumented: Vec<&String> = rendered.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "series emitted but absent from docs/API.md: {undocumented:?}"
    );
    let phantom: Vec<&String> = documented.difference(&rendered).collect();
    assert!(
        phantom.is_empty(),
        "series documented in docs/API.md but never emitted: {phantom:?}"
    );
}
