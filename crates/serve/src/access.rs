//! The structured access log: one JSON line per finished (or shed)
//! request, written to a shared sink so operators can `grep`/`jq` live
//! traffic without scraping `/metrics`.
//!
//! The line is strictly out-of-band: nothing here feeds cache keys,
//! report bytes, or response envelopes, so turning the log on or off
//! cannot change what clients receive.

use crate::RequestInfo;
use std::fmt::{self, Write};

/// Everything one access-log line records: what the router learned
/// about the request, and how the server received and answered it.
/// Fields that a given request never produced (a 404 has no notion, a
/// cache hit re-solves nothing) render as JSON `null` rather than being
/// omitted, so every line has the same shape and `jq` filters never
/// miss keys.
#[derive(Clone, Debug)]
pub struct AccessRecord {
    /// The request id, notion, rows, components, cache outcome and
    /// parse, solve, fingerprint and serialize times (see
    /// [`RequestInfo`]).
    pub info: RequestInfo,
    /// The HTTP method, or `-` when the request never parsed.
    pub method: String,
    /// The request path (query stripped), or `-` when never parsed.
    pub path: String,
    /// The response status sent to the client.
    pub status: u16,
    /// Time spent waiting in the worker queue, µs, or `None` for a
    /// request that never took a worker-queue slot: accept-loop sheds
    /// (503 at capacity), requests that never parsed (answered 4xx on
    /// the IO thread) and fast-path responses. Renders as `queued` and
    /// `queue_wait_us` (0 when unqueued).
    pub queue_wait_us: Option<u64>,
}

impl AccessRecord {
    /// The record of one answered request; a query string on `path` is
    /// stripped.
    pub fn new(
        info: RequestInfo,
        method: &str,
        path: &str,
        status: u16,
        queue_wait_us: Option<u64>,
    ) -> AccessRecord {
        let path = path.split_once('?').map_or(path, |(path, _)| path);
        AccessRecord {
            info,
            method: method.to_string(),
            path: path.to_string(),
            status,
            queue_wait_us,
        }
    }

    /// A record for a connection shed at the accept loop: never queued,
    /// never parsed, answered 503.
    pub fn shed(request_id: String) -> AccessRecord {
        AccessRecord::new(RequestInfo::new(request_id), "-", "-", 503, None)
    }

    /// The record as one JSON object on one line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let info = &self.info;
        format!(
            "{{\"request_id\":{},\"method\":{},\"path\":{},\"status\":{},\"notion\":{},\
             \"rows\":{},\"components\":{},\"cache_hit\":{},\"queued\":{},\
             \"queue_wait_us\":{},\"parse_us\":{},\"solve_us\":{},\"fingerprint_us\":{},\
             \"serialize_us\":{}}}",
            JsonStr(&info.request_id),
            JsonStr(&self.method),
            JsonStr(&self.path),
            self.status,
            OrNull(info.notion.map(|n| JsonStr(n.name()))),
            OrNull(info.rows),
            OrNull(info.components),
            OrNull(info.cache_hit),
            self.queue_wait_us.is_some(),
            self.queue_wait_us.unwrap_or(0),
            info.parse_us,
            info.solve_us,
            info.fingerprint_us,
            info.serialize_us,
        )
    }
}

/// A string as a JSON string literal. Request ids are sanitized on
/// ingress, but paths come straight off the wire, so escape defensively.
struct JsonStr<'a>(&'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// A value, or JSON `null` for one the request never produced.
struct OrNull<T>(Option<T>);

impl<T: fmt::Display> fmt::Display for OrNull<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(value) => value.fmt(f),
            None => f.write_str("null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_engine::Json;

    #[test]
    fn a_full_record_renders_every_field() {
        let mut info = RequestInfo::new("req-7".into());
        info.notion = Some(fd_engine::Notion::Subset);
        info.rows = Some(1000);
        info.components = Some(42);
        info.cache_hit = Some(false);
        info.parse_us = 120;
        info.solve_us = 9000;
        info.fingerprint_us = 85;
        info.serialize_us = 700;
        let record = AccessRecord::new(info, "POST", "/repair?trace=1", 200, Some(15));
        let line = record.to_json_line();
        assert!(!line.contains('\n'), "one line, no embedded newlines");
        assert_eq!(
            line,
            "{\"request_id\":\"req-7\",\"method\":\"POST\",\"path\":\"/repair\",\"status\":200,\
             \"notion\":\"s\",\"rows\":1000,\"components\":42,\"cache_hit\":false,\"queued\":true,\
             \"queue_wait_us\":15,\"parse_us\":120,\"solve_us\":9000,\"fingerprint_us\":85,\
             \"serialize_us\":700}"
        );
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("request_id").unwrap().as_str(), Some("req-7"));
        assert_eq!(doc.get("path").unwrap().as_str(), Some("/repair"));
        assert_eq!(doc.get("status").unwrap().as_num(), Some(200.0));
        assert_eq!(doc.get("notion").unwrap().as_str(), Some("s"));
        assert_eq!(doc.get("components").unwrap().as_num(), Some(42.0));
        assert_eq!(doc.get("cache_hit").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("queued").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("queue_wait_us").unwrap().as_num(), Some(15.0));
        assert_eq!(doc.get("parse_us").unwrap().as_num(), Some(120.0));
        assert_eq!(doc.get("solve_us").unwrap().as_num(), Some(9000.0));
        assert_eq!(doc.get("fingerprint_us").unwrap().as_num(), Some(85.0));
        assert_eq!(doc.get("serialize_us").unwrap().as_num(), Some(700.0));
    }

    #[test]
    fn absent_fields_render_as_null_and_sheds_are_unqueued() {
        let line = AccessRecord::shed("req-9".into()).to_json_line();
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("status").unwrap().as_num(), Some(503.0));
        assert!(matches!(doc.get("notion"), Some(Json::Null)));
        assert!(matches!(doc.get("rows"), Some(Json::Null)));
        assert!(matches!(doc.get("cache_hit"), Some(Json::Null)));
        assert_eq!(doc.get("queued").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("queue_wait_us").unwrap().as_num(), Some(0.0));
    }

    #[test]
    fn hostile_paths_are_escaped() {
        let mut record = AccessRecord::shed("x".into());
        record.path = "/a\"b\\c\nd\u{1}".into();
        let line = record.to_json_line();
        assert!(!line.contains('\n'));
        assert!(line.contains(r#""path":"/a\"b\\c\nd\u0001""#), "{line}");
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("path").unwrap().as_str(), Some("/a\"b\\c\nd\u{1}"));
    }
}
