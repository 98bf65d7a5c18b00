//! # fd-trace
//!
//! Zero-dependency structured tracing for the repair pipeline: spans
//! with attributes, thread-local span stacks, and a per-request
//! ring-buffer [`Collector`] that can be handed across the
//! `round_robin_map` scoped-thread fan-out, then exported as a Chrome
//! trace-event JSON document (loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev)) or a compact text summary.
//!
//! ## Design constraints
//!
//! * **Out-of-band by construction.** Nothing here ever flows into
//!   repair reports, cache keys, or golden files: a collector is a
//!   side-channel the caller installs, drains, and serializes
//!   separately. Report bytes are bit-identical with tracing on or off.
//! * **Disabled mode is a branch.** [`span`] reads one thread-local
//!   `Option`; when no collector is installed the returned [`Span`] is
//!   inert — no clock read, no allocation, no formatting. The
//!   `trace/overhead_disabled/1000000` bench entry gates this.
//! * **Bounded memory.** Each collector is a fixed-capacity ring:
//!   when full, the oldest event is overwritten and a drop counter
//!   increments (spans record themselves when they *end*, so the
//!   survivors under overflow are the latest-finishing events — which
//!   includes every enclosing pipeline phase).
//!
//! ## Example
//!
//! ```
//! let collector = fd_trace::Collector::with_capacity(1024);
//! {
//!     let _guard = collector.install();
//!     let mut outer = fd_trace::span("engine/solve");
//!     outer.attr("rows", 3u64);
//!     {
//!         let _inner = fd_trace::span("srepair/component");
//!     }
//! }
//! assert_eq!(collector.len(), 2);
//! let json = collector.to_chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An attribute value attached to a span or event. Conversions exist
/// for the types instrumentation sites actually have in hand; `&'static
/// str` stays unallocated.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// An unsigned counter (row counts, component sizes).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (costs, ratios).
    F64(f64),
    /// A boolean flag (escalation, cache hit).
    Bool(bool),
    /// A static string (method names, notion names).
    Static(&'static str),
    /// An owned string (anything computed).
    Owned(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> AttrValue {
        AttrValue::U64(v as u64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> AttrValue {
        AttrValue::U64(u64::from(v))
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> AttrValue {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> AttrValue {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}
impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> AttrValue {
        AttrValue::Static(v)
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Owned(v)
    }
}

/// What kind of trace record an [`Event`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: has a duration (`ph:"X"` in Chrome terms).
    Complete,
    /// A point-in-time marker (`ph:"i"`).
    Instant,
}

/// One recorded trace event: a finished span or an instant marker.
/// Timestamps are microseconds relative to the collector's creation.
#[derive(Clone, Debug)]
pub struct Event {
    /// Span or marker name (static: the span taxonomy is a closed set).
    pub name: &'static str,
    /// Complete span or instant marker.
    pub kind: EventKind,
    /// Start time, µs since the collector was created.
    pub ts_us: u64,
    /// Duration in µs (0 for instants).
    pub dur_us: u64,
    /// Logical thread lane: 0 is the installing thread, workers count up.
    pub tid: u32,
    /// Attribute key/value pairs, in the order they were set.
    pub args: Vec<(&'static str, AttrValue)>,
}

/// The ring of recorded events, the per-name totals of every span ever
/// recorded, and the next logical-thread id.
struct State {
    /// Ring storage; once `events.len() == capacity`, `head` marks the
    /// oldest slot and new events overwrite it.
    events: Vec<Event>,
    head: usize,
    /// Count, total µs and max µs per span name, in first-seen order:
    /// kept beside the ring, so spans it overwrote still count.
    totals: Vec<SpanTotal>,
    next_tid: u32,
}

/// One span name's aggregate in [`Collector::summary`].
struct SpanTotal {
    name: &'static str,
    count: u64,
    total_us: u64,
    max_us: u64,
}

struct Inner {
    start: Instant,
    capacity: usize,
    state: Mutex<State>,
    dropped: AtomicU64,
}

/// A per-request trace sink: a cheap-to-clone handle (an `Arc`) over a
/// bounded ring buffer of [`Event`]s. Install it on a thread with
/// [`Collector::install`]; every [`span`] and [`event`] on that thread
/// (and on worker threads the handle is installed on) records here.
#[derive(Clone)]
pub struct Collector {
    inner: Arc<Inner>,
}

/// Default ring capacity: enough for the full pipeline plus tens of
/// thousands of per-component spans before anything is overwritten.
pub const DEFAULT_CAPACITY: usize = 65_536;

impl Default for Collector {
    fn default() -> Collector {
        Collector::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Collector {
    /// A collector whose ring holds at most `capacity` events
    /// (minimum 1). Overflow overwrites the oldest event and counts it
    /// in [`Collector::dropped`].
    pub fn with_capacity(capacity: usize) -> Collector {
        let capacity = capacity.max(1);
        Collector {
            inner: Arc::new(Inner {
                start: Instant::now(),
                capacity,
                state: Mutex::new(State {
                    events: Vec::new(),
                    head: 0,
                    totals: Vec::new(),
                    next_tid: 0,
                }),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Installs this collector on the *current* thread, assigning it
    /// the next logical thread lane. Spans opened on this thread record
    /// here until the returned guard drops (which restores whatever was
    /// installed before — collectors nest).
    pub fn install(&self) -> InstallGuard {
        let tid = match self.inner.state.lock() {
            Ok(mut state) => {
                let tid = state.next_tid;
                state.next_tid += 1;
                tid
            }
            // A poisoned lock means a panic elsewhere mid-record; keep
            // going on lane u32::MAX rather than propagating.
            Err(_) => u32::MAX,
        };
        let previous = CURRENT.with(|current| {
            current.borrow_mut().replace(ThreadCtx {
                collector: self.clone(),
                tid,
                stack: Vec::new(),
            })
        });
        InstallGuard { previous }
    }

    /// Microseconds elapsed since the collector was created.
    fn now_us(&self) -> u64 {
        self.inner.start.elapsed().as_micros() as u64
    }

    fn push(&self, event: Event) {
        let Ok(mut state) = self.inner.state.lock() else {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if event.kind == EventKind::Complete {
            let (name, dur_us) = (event.name, event.dur_us);
            match state.totals.iter_mut().find(|t| t.name == name) {
                Some(t) => {
                    t.count += 1;
                    t.total_us += dur_us;
                    t.max_us = t.max_us.max(dur_us);
                }
                None => state.totals.push(SpanTotal {
                    name,
                    count: 1,
                    total_us: dur_us,
                    max_us: dur_us,
                }),
            }
        }
        if state.events.len() < self.inner.capacity {
            state.events.push(event);
        } else {
            let head = state.head;
            state.events[head] = event;
            state.head = (head + 1) % self.inner.capacity;
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.state.lock().map_or(0, |s| s.events.len())
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten (or lost to a poisoned lock) because the ring
    /// was full. Surfaced as `fd_serve_trace_dropped_total`.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// A snapshot of the recorded events, sorted by start timestamp
    /// (ties broken by lane then name, so output is deterministic for
    /// a fixed set of recorded events).
    pub fn events(&self) -> Vec<Event> {
        let mut events = self
            .inner
            .state
            .lock()
            .map_or_else(|_| Vec::new(), |s| s.events.clone());
        events.sort_by(|a, b| {
            (a.ts_us, a.tid, a.name)
                .partial_cmp(&(b.ts_us, b.tid, b.name))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        events
    }

    /// The trace as a Chrome trace-event JSON document: an object with
    /// a `traceEvents` array of `ph:"X"` (complete) and `ph:"i"`
    /// (instant) records — the format `chrome://tracing` and Perfetto
    /// load directly.
    pub fn to_chrome_json(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            escape_into(&mut out, e.name);
            out.push_str("\",\"cat\":\"fd\",\"ph\":\"");
            match e.kind {
                EventKind::Complete => {
                    let _ = write!(out, "X\",\"ts\":{},\"dur\":{}", e.ts_us, e.dur_us);
                }
                EventKind::Instant => {
                    let _ = write!(out, "i\",\"ts\":{},\"s\":\"t\"", e.ts_us);
                }
            }
            let _ = write!(out, ",\"pid\":1,\"tid\":{}", e.tid);
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (key, value)) in e.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(&mut out, key);
                    out.push_str("\":");
                    write_attr_json(&mut out, value);
                }
                out.push('}');
            }
            out.push('}');
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped\":{}}}}}",
            self.dropped()
        );
        out
    }

    /// A compact per-span-name aggregation: count, total µs, max µs,
    /// ordered by total time descending. Meant for terminals, not
    /// machines. It counts every span recorded, those the ring has
    /// since overwritten included.
    pub fn summary(&self) -> String {
        let mut agg: Vec<(&'static str, u64, u64, u64)> = self.inner.state.lock().map_or_else(
            |_| Vec::new(),
            |state| {
                let totals = state.totals.iter();
                totals
                    .map(|t| (t.name, t.count, t.total_us, t.max_us))
                    .collect()
            },
        );
        agg.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12} {:>12}",
            "span", "count", "total µs", "max µs"
        );
        for (name, count, total, max) in &agg {
            let _ = writeln!(out, "{name:<28} {count:>8} {total:>12} {max:>12}");
        }
        let dropped = self.dropped();
        if dropped > 0 {
            let _ = writeln!(out, "({dropped} event(s) dropped: ring buffer full)");
        }
        out
    }
}

/// Restores the previously installed collector (if any) when dropped.
/// Returned by [`Collector::install`]; hold it for the scope the
/// collector should cover.
pub struct InstallGuard {
    previous: Option<ThreadCtx>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|current| {
            *current.borrow_mut() = self.previous.take();
        });
    }
}

struct ThreadCtx {
    collector: Collector,
    tid: u32,
    /// Names of the spans currently open on this thread, outermost
    /// first — the thread-local span stack.
    stack: Vec<&'static str>,
}

// fdlint: allow(D003, "the collector handle is request-scoped ambient context, never program state: it is installed and torn down by a guard, and nothing read from it flows into results")
thread_local! {
    // fdlint: allow(D003, "same rationale as the thread_local! above: guard-scoped ambient context, no value read from it reaches a report")
    static CURRENT: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

/// The collector installed on this thread, if any. `round_robin_map`
/// captures this before spawning workers and re-installs it on each,
/// so spans recorded inside the fan-out land in the caller's trace.
pub fn current() -> Option<Collector> {
    CURRENT.with(|current| current.borrow().as_ref().map(|ctx| ctx.collector.clone()))
}

/// Opens a span named `name`. When no collector is installed on this
/// thread the returned [`Span`] is inert and the call costs one
/// thread-local read and a branch. The span records itself (with its
/// duration and attributes) when dropped.
pub fn span(name: &'static str) -> Span {
    let active = CURRENT.with(|current| {
        let mut borrow = current.borrow_mut();
        let ctx = borrow.as_mut()?;
        ctx.stack.push(name);
        Some(ActiveSpan {
            collector: ctx.collector.clone(),
            tid: ctx.tid,
            name,
            start_us: ctx.collector.now_us(),
            args: Vec::new(),
        })
    });
    Span { active }
}

/// Records an instant marker named `name` (zero duration). The current
/// top-of-stack span name, if any, is attached as a `parent` attribute.
pub fn event(name: &'static str) {
    CURRENT.with(|current| {
        let borrow = current.borrow();
        let Some(ctx) = borrow.as_ref() else { return };
        let mut args = Vec::new();
        if let Some(parent) = ctx.stack.last() {
            args.push(("parent", AttrValue::Static(parent)));
        }
        let ts_us = ctx.collector.now_us();
        ctx.collector.push(Event {
            name,
            kind: EventKind::Instant,
            ts_us,
            dur_us: 0,
            tid: ctx.tid,
            args,
        });
    });
}

struct ActiveSpan {
    collector: Collector,
    tid: u32,
    name: &'static str,
    start_us: u64,
    args: Vec<(&'static str, AttrValue)>,
}

/// A guard for one span: created by [`span`], recorded on drop. All
/// methods are no-ops when tracing is disabled.
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Span {
    /// Attaches (or appends) an attribute. The value conversion runs
    /// only when the span is active, so pass the raw number or static
    /// string — not a preformatted `String` — at instrumentation sites.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(active) = self.active.as_mut() {
            active.args.push((key, value.into()));
        }
    }

    /// Like [`Span::attr`] but the value is computed lazily — use when
    /// producing it costs something (formatting, aggregation).
    pub fn attr_with(&mut self, key: &'static str, value: impl FnOnce() -> AttrValue) {
        if let Some(active) = self.active.as_mut() {
            active.args.push((key, value()));
        }
    }

    /// True when a collector is recording this span.
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        // Pop this span from the thread's stack. Guards drop LIFO in
        // straight-line code; a mismatched name (an escaped span) is
        // removed from wherever it sits rather than corrupting the top.
        CURRENT.with(|current| {
            let mut borrow = current.borrow_mut();
            if let Some(ctx) = borrow.as_mut() {
                if let Some(pos) = ctx.stack.iter().rposition(|n| *n == active.name) {
                    ctx.stack.remove(pos);
                }
            }
        });
        let end_us = active.collector.now_us();
        active.collector.push(Event {
            name: active.name,
            kind: EventKind::Complete,
            ts_us: active.start_us,
            dur_us: end_us.saturating_sub(active.start_us),
            tid: active.tid,
            args: active.args,
        });
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn write_attr_json(out: &mut String, value: &AttrValue) {
    match value {
        AttrValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        AttrValue::I64(v) => {
            let _ = write!(out, "{v}");
        }
        AttrValue::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v}");
        }
        AttrValue::F64(v) => {
            out.push('"');
            let _ = write!(out, "{v}");
            out.push('"');
        }
        AttrValue::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        AttrValue::Static(v) => {
            out.push('"');
            escape_into(out, v);
            out.push('"');
        }
        AttrValue::Owned(v) => {
            out.push('"');
            escape_into(out, v);
            out.push('"');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        let mut sp = span("nothing/installed");
        assert!(!sp.is_active());
        sp.attr("rows", 7u64);
        drop(sp);
        event("also/nothing");
        assert!(current().is_none());
    }

    #[test]
    fn spans_record_with_attributes_and_nesting() {
        let collector = Collector::with_capacity(16);
        {
            let _guard = collector.install();
            let mut outer = span("outer");
            outer.attr("rows", 100usize);
            outer.attr("method", "EXACT");
            {
                let _inner = span("inner");
                event("marker");
            }
        }
        let events = collector.events();
        assert_eq!(events.len(), 3);
        let marker = events.iter().find(|e| e.name == "marker").unwrap();
        assert_eq!(marker.kind, EventKind::Instant);
        assert_eq!(marker.args, vec![("parent", AttrValue::Static("inner"))]);
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        assert_eq!(outer.kind, EventKind::Complete);
        assert_eq!(outer.args[0], ("rows", AttrValue::U64(100)));
        assert_eq!(outer.args[1], ("method", AttrValue::Static("EXACT")));
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        assert!(inner.ts_us >= outer.ts_us);
    }

    #[test]
    fn install_guard_restores_the_previous_collector() {
        let first = Collector::with_capacity(8);
        let second = Collector::with_capacity(8);
        let _g1 = first.install();
        {
            let _g2 = second.install();
            drop(span("on_second"));
        }
        drop(span("on_first"));
        assert_eq!(first.events().len(), 1);
        assert_eq!(first.events()[0].name, "on_first");
        assert_eq!(second.events()[0].name, "on_second");
    }

    #[test]
    fn ring_overflow_overwrites_oldest_and_counts_drops() {
        let collector = Collector::with_capacity(4);
        {
            let _guard = collector.install();
            for _ in 0..10 {
                drop(span("s"));
            }
        }
        assert_eq!(collector.len(), 4);
        assert_eq!(collector.dropped(), 6);
        let json = collector.to_chrome_json();
        assert!(json.contains("\"dropped\":6"), "{json}");
    }

    #[test]
    fn collector_propagates_to_spawned_threads_via_install() {
        let collector = Collector::with_capacity(64);
        let _guard = collector.install();
        let handle = current().expect("installed");
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let handle = handle.clone();
                scope.spawn(move || {
                    let _g = handle.install();
                    drop(span("worker"));
                });
            }
        });
        drop(span("main"));
        let events = collector.events();
        assert_eq!(events.len(), 4);
        let mut tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4, "each install gets its own lane");
    }

    #[test]
    fn chrome_export_is_wellformed() {
        let collector = Collector::with_capacity(16);
        {
            let _guard = collector.install();
            let mut sp = span("solve");
            sp.attr("ratio", 1.5f64);
            sp.attr("escalated", true);
            sp.attr("note", String::from("a \"quoted\" note"));
        }
        let json = collector.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ratio\":1.5"), "{json}");
        assert!(json.contains("\"escalated\":true"), "{json}");
        assert!(json.contains("a \\\"quoted\\\" note"), "{json}");
        assert!(json.ends_with("}"), "{json}");
    }

    #[test]
    fn summary_aggregates_per_name() {
        let collector = Collector::with_capacity(16);
        {
            let _guard = collector.install();
            drop(span("a"));
            drop(span("a"));
            drop(span("b"));
        }
        let summary = collector.summary();
        assert!(summary.contains("span"), "{summary}");
        assert!(
            summary
                .lines()
                .any(|l| l.starts_with('a') && l.contains(" 2 ")
                    || l.split_whitespace().next() == Some("a")
                        && l.split_whitespace().nth(1) == Some("2")),
            "{summary}"
        );
        assert!(summary
            .lines()
            .any(|l| l.split_whitespace().next() == Some("b")));
    }

    #[test]
    fn summary_counts_spans_the_ring_overwrote() {
        let collector = Collector::with_capacity(8);
        {
            let _guard = collector.install();
            for i in 0..100 {
                drop(span(if i % 4 == 0 { "rare" } else { "common" }));
            }
            event("instants/are/not/spans");
        }
        assert_eq!(collector.len(), 8);
        assert_eq!(collector.dropped(), 93);
        let summary = collector.summary();
        let count = |name: &str| {
            let line = summary
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name));
            line.and_then(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        };
        assert_eq!(count("common"), Some(75), "{summary}");
        assert_eq!(count("rare"), Some(25), "{summary}");
        assert_eq!(count("instants/are/not/spans"), None, "{summary}");
        assert!(summary.contains("(93 event(s) dropped"), "{summary}");
    }

    #[test]
    fn attr_with_is_lazy_when_disabled() {
        let mut sp = span("inactive");
        let mut called = false;
        sp.attr_with("expensive", || {
            called = true;
            AttrValue::Owned("never".into())
        });
        drop(sp);
        assert!(!called, "lazy attrs must not run when disabled");
    }
}
