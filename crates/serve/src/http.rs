//! Minimal HTTP/1.1 over `std::net`: exactly the subset the repair
//! service needs — incremental request parsing with hard header/body
//! limits, and response serialization with `Connection: close`
//! semantics (one request per connection; keep-alive buys nothing for
//! solve-dominated calls and would keep the event loop's slab pinned to
//! idle sockets).

use std::sync::Arc;

/// Maximum bytes of request line + headers; anything longer is hostile.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The method verb, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// The request path, query string included.
    pub path: String,
    /// Header name/value pairs in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (names are stored lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read; each maps to one 4xx response.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header syntax, or header overflow → 400.
    BadRequest(String),
    /// A body-carrying method without `Content-Length` → 411.
    LengthRequired,
    /// `Content-Length` exceeds the configured body cap → 413.
    PayloadTooLarge {
        /// The configured cap, echoed in the response.
        limit: usize,
    },
    /// An `Expect` header other than `100-continue` → 417.
    ExpectationFailed(String),
    /// The socket failed or timed out mid-request; no response is owed.
    /// Only the test-only blocking reader constructs this — the event
    /// loop owns its sockets and handles IO errors directly.
    #[cfg(test)]
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            HttpError::LengthRequired => write!(f, "length required"),
            HttpError::PayloadTooLarge { limit } => {
                write!(f, "payload exceeds the {limit}-byte limit")
            }
            HttpError::ExpectationFailed(value) => write!(f, "unsupported Expect {value:?}"),
            #[cfg(test)]
            HttpError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl HttpError {
    /// The error as a response, or `None` when the socket is gone.
    pub fn into_response(self) -> Option<Response> {
        match self {
            HttpError::BadRequest(msg) => Some(Response::error(400, &msg)),
            HttpError::LengthRequired => Some(Response::error(411, "POST requires Content-Length")),
            HttpError::PayloadTooLarge { limit } => Some(Response::error(
                413,
                &format!("request body exceeds the {limit}-byte limit"),
            )),
            HttpError::ExpectationFailed(value) => Some(Response::error(
                417,
                &format!("unsupported Expect {value:?}; only 100-continue is understood"),
            )),
            #[cfg(test)]
            HttpError::Io(_) => None,
        }
    }
}

/// Incremental request parsing: feed arbitrary byte chunks as they
/// arrive, get a [`Request`] back once the whole thing is in. The event
/// loop drives this directly; the tests also wrap it in a small
/// blocking reader, so the limits behave identically on either path.
///
/// The head-terminator scan *resumes* where the previous chunk left off
/// (`len - 3`, since `\r\n\r\n` can straddle a chunk boundary) instead
/// of rescanning the whole buffer per chunk — a slowloris trickling a
/// near-limit head byte-by-byte costs O(head) total, not O(head²).
pub struct RequestParser {
    max_body: usize,
    buf: Vec<u8>,
    /// Where the next head-terminator scan starts.
    scan_from: usize,
    /// Set once the head has been parsed; the body is still arriving.
    pending: Option<PendingBody>,
}

struct PendingBody {
    request: Request,
    body_start: usize,
    content_length: usize,
    /// The head carried `Expect: 100-continue` and no interim
    /// `100 Continue` has been handed out yet.
    continue_owed: bool,
}

/// The interim response that releases a client waiting on
/// `Expect: 100-continue` to send its body.
pub const CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

impl RequestParser {
    /// A fresh parser enforcing `max_body` (the head limit is the fixed
    /// [`MAX_HEAD_BYTES`]).
    pub fn new(max_body: usize) -> RequestParser {
        RequestParser {
            max_body,
            buf: Vec::with_capacity(1024),
            scan_from: 0,
            pending: None,
        }
    }

    /// Whether the head has been parsed and the body is being received
    /// (distinguishes "closed mid-request" from "closed mid-body").
    pub fn in_body(&self) -> bool {
        self.pending.is_some()
    }

    /// Whether the peer is waiting on [`CONTINUE`] before it sends its
    /// body: true at most once, after a head with
    /// `Expect: 100-continue` passed every check (the body cap
    /// included) and while its body is still incomplete. A request
    /// that completed in the same chunk is owed only its final
    /// response.
    pub fn take_continue(&mut self) -> bool {
        self.pending
            .as_mut()
            .is_some_and(|p| std::mem::take(&mut p.continue_owed))
    }

    /// Whether any request bytes have arrived at all (a peer that
    /// connects and closes without sending owes and is owed nothing).
    pub fn started(&self) -> bool {
        !self.buf.is_empty() || self.pending.is_some()
    }

    /// Appends one chunk and returns the completed request, if this
    /// chunk finished it. Errors are terminal: the connection owes at
    /// most one 4xx response and must then close.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Option<Request>, HttpError> {
        self.buf.extend_from_slice(chunk);
        if self.pending.is_none() {
            let Some(head_end) = self.scan_head_end() else {
                if self.buf.len() > MAX_HEAD_BYTES {
                    return Err(HttpError::BadRequest("request head too large".into()));
                }
                return Ok(None);
            };
            let (request, content_length) = parse_head(&self.buf[..head_end], self.max_body)?;
            let continue_owed = request.header("expect").is_some();
            self.pending = Some(PendingBody {
                request,
                body_start: head_end + 4,
                content_length,
                continue_owed,
            });
        }
        // Borrow-free completion check before moving the request out.
        let total = match &self.pending {
            Some(p) => p.body_start + p.content_length,
            None => return Ok(None),
        };
        if self.buf.len() > total {
            return Err(HttpError::BadRequest(
                "body longer than Content-Length".into(),
            ));
        }
        if self.buf.len() < total {
            return Ok(None);
        }
        let Some(pending) = self.pending.take() else {
            return Ok(None);
        };
        let mut request = pending.request;
        request.body = self.buf.split_off(pending.body_start);
        Ok(Some(request))
    }

    /// Byte offset of `\r\n\r\n`, resuming from the last scan position.
    fn scan_head_end(&mut self) -> Option<usize> {
        let start = self.scan_from;
        match self.buf[start..].windows(4).position(|w| w == b"\r\n\r\n") {
            Some(pos) => Some(start + pos),
            None => {
                self.scan_from = self.buf.len().saturating_sub(3);
                None
            }
        }
    }
}

/// Parses the request line and headers (everything before `\r\n\r\n`)
/// and validates the body framing against `max_body`.
fn parse_head(head: &[u8], max_body: usize) -> Result<(Request, usize), HttpError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| HttpError::BadRequest("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest(format!(
            "malformed request line {request_line:?}"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol {version:?}"
        )));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    };
    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::BadRequest(
            "chunked transfer encoding is not supported; send Content-Length".into(),
        ));
    }
    let content_length = match request.header("content-length") {
        None => {
            if request.method == "POST" || request.method == "PUT" {
                return Err(HttpError::LengthRequired);
            }
            0
        }
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest(format!("bad Content-Length {v:?}")))?,
    };
    if content_length > max_body {
        return Err(HttpError::PayloadTooLarge { limit: max_body });
    }
    if let Some(expect) = request.header("expect") {
        if !expect.eq_ignore_ascii_case("100-continue") {
            return Err(HttpError::ExpectationFailed(expect.to_string()));
        }
    }
    Ok((request, content_length))
}

/// The [`HttpError`] for a peer that closed before its request was
/// complete; the event loop's read path maps EOF through this so the
/// truncation answers the same 400 the blocking reader used to send.
pub fn truncated(parser: &RequestParser) -> HttpError {
    HttpError::BadRequest(if parser.in_body() {
        "connection closed mid-body".into()
    } else {
        "connection closed mid-request".into()
    })
}

/// One run of response body bytes: built for this response, or report
/// bytes behind one `Arc` that the result cache and every response
/// replaying them share, so shipping a cached report copies nothing.
#[derive(Clone, Debug)]
pub enum Segment {
    /// Bytes this response owns (errors, envelopes, small documents).
    Owned(Vec<u8>),
    /// Report bytes shared with the result cache.
    Shared(Arc<Vec<u8>>),
}

impl Segment {
    /// The segment's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Segment::Owned(bytes) => bytes,
            Segment::Shared(bytes) => bytes,
        }
    }
}

/// A response ready to serialize.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (name must be already well-formed).
    pub headers: Vec<(String, String)>,
    /// The body: these segments' bytes, in order.
    pub body: Vec<Segment>,
}

impl Response {
    /// An `application/json` response.
    pub fn json(status: u16, body: String) -> Response {
        Response::json_segments(status, vec![Segment::Owned(body.into_bytes())])
    }

    /// An `application/json` response whose body is the concatenation of
    /// `body`, such as an envelope around a shared report. The segments
    /// are written out in turn, never joined into one buffer.
    pub fn json_segments(status: u16, body: Vec<Segment>) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: vec![Segment::Owned(body.into_bytes())],
        }
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        let doc = fd_engine::Json::obj([("error", fd_engine::Json::str(message))]);
        Response::json(status, doc.to_string())
    }

    /// Adds a header, builder-style.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// The body as one buffer, for assertions: it copies every segment.
    #[cfg(test)]
    pub fn body_bytes(&self) -> Vec<u8> {
        self.body
            .iter()
            .flat_map(Segment::as_bytes)
            .copied()
            .collect()
    }
}

/// The reason phrase for every status the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        417 => "Expectation Failed",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Most segments one vectored write hands the kernel: a head, an
/// envelope prefix, a report and a closing brace fit with room to spare.
const MAX_WRITE_SEGMENTS: usize = 8;

/// One response on its way to the socket: the serialized head, then the
/// body segments, plus how far writing has got. Each write is one
/// vectored write from where the last one stopped, so a shared report
/// goes out of the cache's own allocation.
#[derive(Debug)]
pub struct Outgoing {
    /// Head first, then the body; empty segments are dropped up front,
    /// so "nothing left" is exactly "past the last segment".
    segments: Vec<Segment>,
    /// The segment the next byte comes from.
    next: usize,
    /// Bytes of `segments[next]` already written.
    offset: usize,
}

impl Outgoing {
    /// Writes as much as `w` takes in one vectored write and returns the
    /// byte count; 0 means the peer stopped taking bytes (or everything
    /// was already written).
    pub fn write_to(&mut self, w: &mut impl std::io::Write) -> std::io::Result<usize> {
        let pending = self.segments.get(self.next..).unwrap_or(&[]);
        let count = pending.len().min(MAX_WRITE_SEGMENTS);
        let mut slices = [std::io::IoSlice::new(&[]); MAX_WRITE_SEGMENTS];
        for (i, (slot, segment)) in slices.iter_mut().zip(pending).enumerate() {
            let skip = if i == 0 { self.offset } else { 0 };
            *slot = std::io::IoSlice::new(segment.as_bytes().get(skip..).unwrap_or(&[]));
        }
        let n = w.write_vectored(slices.get(..count).unwrap_or(&[]))?;
        self.advance(n);
        Ok(n)
    }

    /// Whether every byte has been written.
    pub fn is_done(&self) -> bool {
        self.next >= self.segments.len()
    }

    fn advance(&mut self, mut n: usize) {
        while n > 0 {
            let Some(segment) = self.segments.get(self.next) else {
                return;
            };
            let left = segment.as_bytes().len() - self.offset;
            if n < left {
                self.offset += n;
                return;
            }
            n -= left;
            self.next += 1;
            self.offset = 0;
        }
    }
}

/// The wire form of one response — status line, headers, then the body
/// segments as they are — ready for the event loop's incremental
/// nonblocking writes. Only the head is formatted here; no body byte is
/// copied.
pub fn serialize_response(response: Response) -> Outgoing {
    let body_len: usize = response.body.iter().map(|s| s.as_bytes().len()).sum();
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        body_len
    );
    for (name, value) in &response.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let segments = std::iter::once(Segment::Owned(head.into_bytes()))
        .chain(response.body)
        .filter(|segment| !segment.as_bytes().is_empty())
        .collect();
    Outgoing {
        segments,
        next: 0,
        offset: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn deadline() -> std::time::Instant {
        std::time::Instant::now() + std::time::Duration::from_secs(5)
    }

    /// The blocking reader the server used before the event loop,
    /// rebuilt over the same parser: reads until a request completes,
    /// the parser errors, the peer closes, or `deadline` passes. Kept
    /// as the test harness because it exercises the exact byte-feeding
    /// the event loop performs, minus the poller.
    fn read_request(
        stream: &mut TcpStream,
        max_body: usize,
        deadline: std::time::Instant,
    ) -> Result<Request, HttpError> {
        let mut parser = RequestParser::new(max_body);
        let mut chunk = [0u8; 4096];
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(HttpError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "request deadline exceeded",
                )));
            }
            stream
                .set_read_timeout(Some(remaining))
                .map_err(HttpError::Io)?;
            let n = stream.read(&mut chunk).map_err(HttpError::Io)?;
            if n == 0 {
                return Err(truncated(&parser));
            }
            if let Some(request) = parser.feed(&chunk[..n])? {
                return Ok(request);
            }
        }
    }

    /// Feeds raw bytes to `read_request` through a real socket pair.
    fn read_from_bytes(bytes: &[u8], max_body: usize) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(bytes).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        read_request(&mut server_side, max_body, deadline())
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = read_from_bytes(
            b"POST /repair HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/repair");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn get_without_length_has_empty_body() {
        let req = read_from_bytes(b"GET /healthz HTTP/1.1\r\n\r\n", 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn post_without_length_is_411() {
        let e = read_from_bytes(b"POST /repair HTTP/1.1\r\n\r\n", 1024).unwrap_err();
        assert!(matches!(e, HttpError::LengthRequired));
        assert_eq!(e.into_response().unwrap().status, 411);
    }

    #[test]
    fn oversized_body_is_413_without_buffering_it() {
        let e = read_from_bytes(
            b"POST /repair HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
            64,
        )
        .unwrap_err();
        assert!(matches!(e, HttpError::PayloadTooLarge { limit: 64 }));
        assert_eq!(e.into_response().unwrap().status, 413);
    }

    #[test]
    fn malformed_requests_are_400() {
        for bytes in [
            b"NOT-HTTP\r\n\r\n".as_slice(),
            b"GET /x SPDY/3\r\n\r\n".as_slice(),
            b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n".as_slice(),
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n".as_slice(),
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".as_slice(),
        ] {
            let e = read_from_bytes(bytes, 1024).unwrap_err();
            let resp = e.into_response().expect("responds");
            assert_eq!(resp.status, 400, "{bytes:?}");
        }
    }

    #[test]
    fn slow_trickle_hits_the_request_deadline() {
        // A client drip-feeding bytes keeps every individual read fast,
        // but the per-request deadline must still cut it off.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut client = TcpStream::connect(addr).unwrap();
            for _ in 0..40 {
                if client.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(200);
        let start = std::time::Instant::now();
        let result = read_request(&mut server_side, 1024, deadline);
        assert!(matches!(result, Err(HttpError::Io(_))), "{result:?}");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "must give up at the deadline, not per-read-timeout forever"
        );
        drop(server_side);
        writer.join().unwrap();
    }

    #[test]
    fn parser_accepts_one_byte_chunks() {
        // A request drip-fed a byte at a time must complete with the
        // exact same parse as a one-shot read — and in O(total bytes),
        // since the head scan resumes instead of restarting. A head
        // near the size limit keeps the quadratic regression visible:
        // rescans here would cost ~128M window comparisons.
        let mut head = String::from("POST /repair HTTP/1.1\r\nContent-Length: 4\r\n");
        let mut i = 0;
        while head.len() < 15 * 1024 {
            head.push_str(&format!("x-pad-{i}: {}\r\n", "v".repeat(64)));
            i += 1;
        }
        head.push_str("\r\n");
        let bytes: Vec<u8> = head.bytes().chain(*b"body").collect();
        let mut parser = RequestParser::new(1024);
        let mut result = None;
        for (fed, byte) in bytes.iter().enumerate() {
            match parser.feed(std::slice::from_ref(byte)).unwrap() {
                Some(request) => {
                    assert_eq!(fed + 1, bytes.len(), "completes on the last byte");
                    result = Some(request);
                }
                None => assert_eq!(parser.in_body(), fed + 1 >= head.len()),
            }
        }
        let request = result.expect("request must complete");
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/repair");
        assert_eq!(request.body, b"body");
        assert_eq!(request.header("x-pad-0"), Some("v".repeat(64).as_str()));
    }

    #[test]
    fn expect_continue_is_owed_once_and_only_while_the_body_is_pending() {
        let head = b"POST /x HTTP/1.1\r\nExpect: 100-Continue\r\nContent-Length: 4\r\n\r\n";
        let mut parser = RequestParser::new(1024);
        assert!(!parser.take_continue(), "no head yet");
        assert!(parser.feed(head).unwrap().is_none());
        assert!(parser.take_continue());
        assert!(!parser.take_continue(), "owed once");
        assert_eq!(parser.feed(b"body").unwrap().unwrap().body, b"body");
        // Head and body in one chunk: only the final response is owed.
        let mut parser = RequestParser::new(1024);
        let whole: Vec<u8> = head.iter().chain(b"body").copied().collect();
        assert!(parser.feed(&whole).unwrap().is_some());
        assert!(!parser.take_continue());
        // Over the cap: 413 before any body; other expectations: 417.
        let mut parser = RequestParser::new(2);
        let e = parser.feed(head).unwrap_err();
        assert_eq!(e.into_response().unwrap().status, 413);
        let mut parser = RequestParser::new(1024);
        let e = parser
            .feed(b"POST /x HTTP/1.1\r\nExpect: later\r\nContent-Length: 4\r\n\r\n")
            .unwrap_err();
        assert_eq!(e.into_response().unwrap().status, 417);
    }

    #[test]
    fn parser_enforces_the_head_limit_incrementally() {
        let mut parser = RequestParser::new(1024);
        let chunk = [b'a'; 1024];
        let mut fed = 0;
        let err = loop {
            match parser.feed(&chunk) {
                Ok(None) => fed += chunk.len(),
                Ok(Some(_)) => panic!("garbage must not parse"),
                Err(e) => break e,
            }
            assert!(fed <= 32 * 1024, "must reject near MAX_HEAD_BYTES");
        };
        assert!(matches!(err, HttpError::BadRequest(_)), "{err}");
    }

    #[test]
    fn parser_handles_terminator_split_across_chunks() {
        // Every split point of "\r\n\r\n" across two feeds must work.
        let bytes = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        for cut in 1..bytes.len() {
            let mut parser = RequestParser::new(0);
            assert!(parser.feed(&bytes[..cut]).unwrap().is_none(), "cut {cut}");
            let request = parser
                .feed(&bytes[cut..])
                .unwrap()
                .unwrap_or_else(|| panic!("cut {cut} must complete"));
            assert_eq!(request.path, "/healthz");
        }
    }

    /// Drains `out` into a buffer through a writer that takes at most
    /// `chunk` bytes per call, as a congested socket would.
    fn drain(mut out: Outgoing, chunk: usize) -> Vec<u8> {
        struct Trickle {
            bytes: Vec<u8>,
            chunk: usize,
        }
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(self.chunk);
                self.bytes.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Trickle {
            bytes: Vec::new(),
            chunk,
        };
        while !out.is_done() {
            assert!(out.write_to(&mut sink).unwrap() > 0);
        }
        assert_eq!(out.write_to(&mut sink).unwrap(), 0, "nothing left");
        sink.bytes
    }

    #[test]
    fn serialized_response_matches_the_written_bytes() {
        let response = Response::json(200, "{\"ok\":true}".into()).with_header("X-Fd-Cache", "hit");
        let text = String::from_utf8(drain(serialize_response(response), usize::MAX)).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("X-Fd-Cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn segmented_bodies_write_out_whole_across_short_writes() {
        let report = Arc::new(b"{\"cost\":2}".to_vec());
        let response = Response::json_segments(
            200,
            vec![
                Segment::Owned(b"{\"report\":".to_vec()),
                Segment::Owned(Vec::new()),
                Segment::Shared(Arc::clone(&report)),
                Segment::Owned(b"}".to_vec()),
            ],
        );
        assert_eq!(response.body_bytes(), b"{\"report\":{\"cost\":2}}");
        let whole = drain(serialize_response(response.clone()), usize::MAX);
        let text = String::from_utf8(whole.clone()).unwrap();
        assert!(text.contains("Content-Length: 21\r\n"), "{text}");
        assert!(
            text.ends_with("\r\n\r\n{\"report\":{\"cost\":2}}"),
            "{text}"
        );
        // Every split of the stream into short writes yields the same
        // bytes, segment boundaries included.
        for chunk in 1..=12 {
            assert_eq!(drain(serialize_response(response.clone()), chunk), whole);
        }
        // The cache's allocation is what went out: no copy was taken.
        assert_eq!(
            Arc::strong_count(&report),
            2,
            "the response still shares it"
        );
        drop(response);
        assert_eq!(Arc::strong_count(&report), 1);
    }

    #[test]
    fn truncated_requests_do_not_hang_or_panic() {
        // Closing mid-head and mid-body must both surface as errors.
        for bytes in [
            b"POST /x HTT".as_slice(),
            b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc".as_slice(),
        ] {
            assert!(read_from_bytes(bytes, 1024).is_err());
        }
    }
}
