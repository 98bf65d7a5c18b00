//! The structured access log: one JSON line per finished (or shed)
//! request, written to a shared sink so operators can `grep`/`jq` live
//! traffic without scraping `/metrics`.
//!
//! The line is strictly out-of-band: nothing here feeds cache keys,
//! report bytes, or response envelopes, so turning the log on or off
//! cannot change what clients receive.

/// Everything one access-log line records. Fields that a given request
/// never produced (a 404 has no notion, a cache hit re-solves nothing)
/// render as JSON `null` rather than being omitted, so every line has
/// the same shape and `jq` filters never miss keys.
#[derive(Clone, Debug)]
pub struct AccessRecord {
    /// The request id (accepted from `X-Request-Id` or generated).
    pub request_id: String,
    /// The HTTP method, or `-` when the request never parsed.
    pub method: String,
    /// The request path (query stripped), or `-` when never parsed.
    pub path: String,
    /// The response status sent to the client.
    pub status: u16,
    /// The repair notion, for `/repair` and `/explain` calls that
    /// parsed far enough to have one.
    pub notion: Option<&'static str>,
    /// Rows in the submitted instance.
    pub rows: Option<usize>,
    /// Conflict-graph components the solve reported (subset path only;
    /// `None` for other notions and for cache hits, which solve
    /// nothing).
    pub components: Option<usize>,
    /// `Some(true)` on a result-cache hit, `Some(false)` on a miss,
    /// `None` when the request was not cacheable or never got that far.
    pub cache_hit: Option<bool>,
    /// Whether the connection made it into the worker queue. `false`
    /// exactly for accept-loop sheds (503 at capacity).
    pub queued: bool,
    /// Time spent waiting in the worker queue, µs.
    pub queue_wait_us: u64,
    /// Time inside the engine solve/plan, µs (0 when nothing solved).
    pub solve_us: u64,
    /// Time writing the report's bytes, µs: `/repair` misses and
    /// `/mutate` only, 0 on cache hits and errors.
    pub serialize_us: u64,
}

impl AccessRecord {
    /// A record for a connection shed at the accept loop: never queued,
    /// never parsed, answered 503.
    pub fn shed(request_id: String) -> AccessRecord {
        AccessRecord {
            request_id,
            method: "-".into(),
            path: "-".into(),
            status: 503,
            notion: None,
            rows: None,
            components: None,
            cache_hit: None,
            queued: false,
            queue_wait_us: 0,
            solve_us: 0,
            serialize_us: 0,
        }
    }

    /// The record as one JSON object on one line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(192);
        out.push_str("{\"request_id\":");
        push_json_str(&mut out, &self.request_id);
        out.push_str(",\"method\":");
        push_json_str(&mut out, &self.method);
        out.push_str(",\"path\":");
        push_json_str(&mut out, &self.path);
        out.push_str(&format!(",\"status\":{}", self.status));
        match self.notion {
            Some(n) => {
                out.push_str(",\"notion\":");
                push_json_str(&mut out, n);
            }
            None => out.push_str(",\"notion\":null"),
        }
        push_opt_num(&mut out, "rows", self.rows);
        push_opt_num(&mut out, "components", self.components);
        match self.cache_hit {
            Some(hit) => out.push_str(&format!(",\"cache_hit\":{hit}")),
            None => out.push_str(",\"cache_hit\":null"),
        }
        out.push_str(&format!(
            ",\"queued\":{},\"queue_wait_us\":{},\"solve_us\":{},\"serialize_us\":{}}}",
            self.queued, self.queue_wait_us, self.solve_us, self.serialize_us
        ));
        out
    }
}

fn push_opt_num(out: &mut String, key: &str, value: Option<usize>) {
    match value {
        Some(v) => out.push_str(&format!(",\"{key}\":{v}")),
        None => out.push_str(&format!(",\"{key}\":null")),
    }
}

/// Appends `s` as a JSON string literal. Request ids are sanitized on
/// ingress, but paths come straight off the wire, so escape defensively.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_engine::Json;

    #[test]
    fn a_full_record_renders_every_field() {
        let record = AccessRecord {
            request_id: "req-7".into(),
            method: "POST".into(),
            path: "/repair".into(),
            status: 200,
            notion: Some("s"),
            rows: Some(1000),
            components: Some(42),
            cache_hit: Some(false),
            queued: true,
            queue_wait_us: 15,
            solve_us: 9000,
            serialize_us: 700,
        };
        let line = record.to_json_line();
        assert!(!line.contains('\n'), "one line, no embedded newlines");
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("request_id").unwrap().as_str(), Some("req-7"));
        assert_eq!(doc.get("status").unwrap().as_num(), Some(200.0));
        assert_eq!(doc.get("notion").unwrap().as_str(), Some("s"));
        assert_eq!(doc.get("components").unwrap().as_num(), Some(42.0));
        assert_eq!(doc.get("cache_hit").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("queued").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("solve_us").unwrap().as_num(), Some(9000.0));
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
    }

    #[test]
    fn hostile_paths_are_escaped() {
        let mut record = AccessRecord::shed("x".into());
        record.path = "/a\"b\\c\nd".into();
        let line = record.to_json_line();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("path").unwrap().as_str(), Some("/a\"b\\c\nd"));
    }
}
