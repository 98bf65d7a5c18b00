//! Service counters and latency tracking, lock-free (atomics only) on
//! the hot path, rendered in Prometheus text-exposition style by
//! `GET /metrics`.
//!
//! Latency is a power-of-two histogram over microseconds: 32 buckets
//! cover 1 µs to ~1 hour, and p50/p99 are read off the cumulative
//! distribution. Quantiles are therefore bucket-upper-bound
//! approximations — within 2× of truth, which is what capacity planning
//! needs from a metrics endpoint (exact per-request numbers travel in
//! each report's `timings`).
//!
//! Every series the server can ever emit is rendered on every scrape,
//! zeros included: `docs/API.md` documents the full set, and the
//! exposition test in this crate holds the two equal in both
//! directions, so a new family cannot ship undocumented.

use fd_engine::Notion;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of power-of-two histogram buckets (`2^31` µs ≈ 36 minutes).
const BUCKETS: usize = 32;

/// The notions a request can count under, in wire-name order.
const NOTIONS: [Notion; 7] = [
    Notion::Subset,
    Notion::Update,
    Notion::Mixed,
    Notion::Mpd,
    Notion::Count,
    Notion::Sample,
    Notion::Classify,
];

/// The endpoint labels latency is broken down by. Anything that is not
/// one of the five routes (404s, 405s, unreadable requests) counts as
/// `other`.
pub const ENDPOINTS: [&str; 6] = ["repair", "explain", "tables", "healthz", "metrics", "other"];

/// How a `/mutate` call got the session it ran on — the label of
/// `fd_serve_mutate_sessions_total{path=…}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutatePath {
    /// A session at rest beside the snapshot was reused.
    Warm,
    /// A new delta session was primed by a solve of the whole table.
    Primed,
    /// The request is not delta-eligible: a cold `Planner::run`.
    Cold,
}

impl MutatePath {
    const ALL: [MutatePath; 3] = [MutatePath::Warm, MutatePath::Primed, MutatePath::Cold];

    fn name(self) -> &'static str {
        match self {
            MutatePath::Warm => "warm",
            MutatePath::Primed => "primed",
            MutatePath::Cold => "cold",
        }
    }
}

fn notion_index(notion: Notion) -> usize {
    NOTIONS
        .iter()
        .position(|n| *n == notion)
        .expect("every notion is listed")
}

/// One power-of-two histogram: bucket `i` counts values in
/// `[2^i, 2^(i+1))` (values clamp into the last bucket).
struct Hist {
    buckets: [AtomicU64; BUCKETS],
}

impl Hist {
    const fn new() -> Hist {
        Hist {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    fn observe(&self, value: u64) {
        let value = value.max(1);
        let bucket = (63 - value.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The `p`-quantile (0 < p ≤ 1): the upper bound of the bucket the
    /// quantile falls in, or 0 before any observation.
    fn quantile(&self, p: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        1u64 << BUCKETS
    }
}

/// All counters of one server instance.
pub struct Metrics {
    started: Instant,
    requests_total: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    queue_rejected: AtomicU64,
    handler_panics: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_published: AtomicU64,
    coalesced: AtomicU64,
    by_notion: [AtomicU64; 7],
    latency: Hist,
    endpoint_latency: [Hist; 6],
    notion_latency: [Hist; 7],
    components: Hist,
    queue_depth: AtomicU64,
    tables_stored: AtomicU64,
    conn_limit_closed: AtomicU64,
    trace_dropped: AtomicU64,
    mutate_sessions: [AtomicU64; 3],
}

impl Metrics {
    /// Fresh, all-zero metrics; the uptime clock starts now.
    pub fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            queue_rejected: AtomicU64::new(0),
            handler_panics: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_published: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            by_notion: Default::default(),
            latency: Hist::new(),
            endpoint_latency: [const { Hist::new() }; 6],
            notion_latency: [const { Hist::new() }; 7],
            components: Hist::new(),
            queue_depth: AtomicU64::new(0),
            tables_stored: AtomicU64::new(0),
            conn_limit_closed: AtomicU64::new(0),
            trace_dropped: AtomicU64::new(0),
            mutate_sessions: Default::default(),
        }
    }

    /// Records one finished request: its response status and wall time.
    pub fn observe_request(&self, status: u16, elapsed: Duration) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        self.latency.observe(elapsed.as_micros() as u64);
    }

    /// Records the same wall time against one endpoint label (an
    /// unknown label counts as `other`).
    pub fn observe_endpoint(&self, endpoint: &str, elapsed: Duration) {
        let idx = ENDPOINTS
            .iter()
            .position(|e| *e == endpoint)
            .unwrap_or(ENDPOINTS.len() - 1);
        self.endpoint_latency[idx].observe(elapsed.as_micros() as u64);
    }

    /// Counts a repair/explain call against its notion.
    pub fn observe_notion(&self, notion: Notion) {
        self.by_notion[notion_index(notion)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records the engine time of one solved (not cached) call against
    /// its notion.
    pub fn observe_notion_latency(&self, notion: Notion, solve_us: u64) {
        self.notion_latency[notion_index(notion)].observe(solve_us);
    }

    /// Records the conflict-component count one solve reported.
    pub fn observe_components(&self, count: u64) {
        self.components.observe(count);
    }

    /// Counts a connection shed at the accept loop (503): a request and
    /// a 5xx response, but *no* latency sample — the shed path's
    /// fabricated sub-µs timing would corrupt the quantiles exactly
    /// when the server is saturated.
    pub fn observe_shed(&self) {
        self.queue_rejected.fetch_add(1, Ordering::Relaxed);
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        self.responses_5xx.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a handler panic turned into a 500.
    pub fn observe_panic(&self) {
        self.handler_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a result-cache hit or miss (cacheable requests only).
    pub fn observe_cache(&self, hit: bool) {
        let counter = if hit {
            &self.cache_hits
        } else {
            &self.cache_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a report a `/mutate` published as the cache entry of the
    /// by-ref read it answers. Publishes are not calls: they move none
    /// of the hit, miss and coalesced counters.
    pub fn observe_cache_published(&self) {
        self.cache_published.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request that replayed a concurrent in-flight solve
    /// instead of solving (single-flight coalescing). Such a request is
    /// counted here only, not as a hit or a miss, so
    /// `hits + misses + coalesced` equals the cacheable total.
    pub fn observe_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one `/mutate` call by the session path it took.
    pub fn observe_mutate_session(&self, path: MutatePath) {
        self.mutate_sessions[path as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Tracks the tables-at-rest gauge: a table was stored.
    pub fn table_stored(&self) {
        self.tables_stored.fetch_add(1, Ordering::Relaxed);
    }

    /// Tracks the tables-at-rest gauge: a table was deleted.
    pub fn table_removed(&self) {
        let _ = self
            .tables_stored
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| d.checked_sub(1));
    }

    /// Counts a connection closed at accept because the event loop was
    /// at its connection cap (no response was written — distinct from a
    /// shed, which answers 503).
    pub fn observe_conn_limit_closed(&self) {
        self.conn_limit_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection entered the worker queue (gauge up).
    pub fn queue_enter(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker popped a connection off the queue (gauge down).
    pub fn queue_exit(&self) {
        // Saturating: a stray extra exit must not wrap the gauge to 2^64.
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| d.checked_sub(1));
    }

    /// Adds trace events dropped by one request's ring buffer.
    pub fn observe_trace_dropped(&self, dropped: u64) {
        if dropped > 0 {
            self.trace_dropped.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// The `p`-quantile (0 < p ≤ 1) of observed latency, in µs: the
    /// upper bound of the histogram bucket the quantile falls in, or 0
    /// before any observation.
    pub fn latency_quantile_us(&self, p: f64) -> u64 {
        self.latency.quantile(p)
    }

    /// Renders every counter in Prometheus text-exposition style.
    pub fn render(&self) -> String {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut out = String::new();
        out.push_str(&format!(
            "fd_serve_uptime_seconds {}\n",
            self.started.elapsed().as_secs()
        ));
        out.push_str(&format!(
            "fd_serve_requests_total {}\n",
            load(&self.requests_total)
        ));
        for (class, counter) in [
            ("2xx", &self.responses_2xx),
            ("4xx", &self.responses_4xx),
            ("5xx", &self.responses_5xx),
        ] {
            out.push_str(&format!(
                "fd_serve_responses{{class=\"{class}\"}} {}\n",
                load(counter)
            ));
        }
        for (notion, counter) in NOTIONS.iter().zip(&self.by_notion) {
            out.push_str(&format!(
                "fd_serve_requests{{notion=\"{}\"}} {}\n",
                notion.name(),
                load(counter)
            ));
        }
        out.push_str(&format!("fd_serve_cache_hits {}\n", load(&self.cache_hits)));
        out.push_str(&format!(
            "fd_serve_cache_misses {}\n",
            load(&self.cache_misses)
        ));
        out.push_str(&format!(
            "fd_serve_cache_published_total {}\n",
            load(&self.cache_published)
        ));
        out.push_str(&format!(
            "fd_serve_coalesced_total {}\n",
            load(&self.coalesced)
        ));
        out.push_str(&format!(
            "fd_serve_queue_rejected_total {}\n",
            load(&self.queue_rejected)
        ));
        out.push_str(&format!(
            "fd_serve_handler_panics_total {}\n",
            load(&self.handler_panics)
        ));
        out.push_str(&format!(
            "fd_serve_latency_p50_us {}\n",
            self.latency.quantile(0.5)
        ));
        out.push_str(&format!(
            "fd_serve_latency_p99_us {}\n",
            self.latency.quantile(0.99)
        ));
        out.push_str(&format!(
            "fd_serve_queue_depth {}\n",
            load(&self.queue_depth)
        ));
        out.push_str(&format!(
            "fd_serve_tables_stored {}\n",
            load(&self.tables_stored)
        ));
        out.push_str(&format!(
            "fd_serve_conn_limit_closed_total {}\n",
            load(&self.conn_limit_closed)
        ));
        for path in MutatePath::ALL {
            out.push_str(&format!(
                "fd_serve_mutate_sessions_total{{path=\"{}\"}} {}\n",
                path.name(),
                load(&self.mutate_sessions[path as usize])
            ));
        }
        for (endpoint, hist) in ENDPOINTS.iter().zip(&self.endpoint_latency) {
            out.push_str(&format!(
                "fd_serve_endpoint_latency_p50_us{{endpoint=\"{endpoint}\"}} {}\n",
                hist.quantile(0.5)
            ));
            out.push_str(&format!(
                "fd_serve_endpoint_latency_p99_us{{endpoint=\"{endpoint}\"}} {}\n",
                hist.quantile(0.99)
            ));
        }
        for (notion, hist) in NOTIONS.iter().zip(&self.notion_latency) {
            out.push_str(&format!(
                "fd_serve_notion_latency_p50_us{{notion=\"{}\"}} {}\n",
                notion.name(),
                hist.quantile(0.5)
            ));
            out.push_str(&format!(
                "fd_serve_notion_latency_p99_us{{notion=\"{}\"}} {}\n",
                notion.name(),
                hist.quantile(0.99)
            ));
        }
        out.push_str(&format!(
            "fd_serve_components_p50 {}\n",
            self.components.quantile(0.5)
        ));
        out.push_str(&format!(
            "fd_serve_components_p99 {}\n",
            self.components.quantile(0.99)
        ));
        out.push_str(&format!(
            "fd_serve_trace_dropped_total {}\n",
            load(&self.trace_dropped)
        ));
        out
    }
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::new();
        m.observe_request(200, Duration::from_micros(100));
        m.observe_request(200, Duration::from_micros(120));
        m.observe_request(400, Duration::from_micros(3));
        m.observe_notion(Notion::Subset);
        m.observe_notion(Notion::Subset);
        m.observe_notion(Notion::Mpd);
        m.observe_cache(true);
        m.observe_cache(false);
        m.observe_cache_published();
        m.observe_shed();
        let text = m.render();
        // The shed counts as a request and a 5xx but adds no latency sample.
        assert!(text.contains("fd_serve_requests_total 4"), "{text}");
        assert!(text.contains("fd_serve_responses{class=\"2xx\"} 2"));
        assert!(text.contains("fd_serve_responses{class=\"4xx\"} 1"));
        assert!(text.contains("fd_serve_responses{class=\"5xx\"} 1"));
        assert!(text.contains("fd_serve_requests{notion=\"s\"} 2"));
        assert!(text.contains("fd_serve_requests{notion=\"mpd\"} 1"));
        assert!(text.contains("fd_serve_cache_hits 1"));
        assert!(
            text.contains("fd_serve_cache_misses 1"),
            "publishes are not misses"
        );
        assert!(text.contains("fd_serve_cache_published_total 1"));
        assert!(text.contains("fd_serve_queue_rejected_total 1"));
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let m = Metrics::new();
        assert_eq!(m.latency_quantile_us(0.5), 0);
        // 99 fast requests (~100 µs) and one slow (~100 ms).
        for _ in 0..99 {
            m.observe_request(200, Duration::from_micros(100));
        }
        m.observe_request(200, Duration::from_millis(100));
        let p50 = m.latency_quantile_us(0.5);
        let p99 = m.latency_quantile_us(0.99);
        // 100 µs falls in bucket [64,128) → reported bound 128.
        assert_eq!(p50, 128);
        assert!(p50 <= p99);
        let p999 = m.latency_quantile_us(0.999);
        // The slow outlier dominates the extreme tail: 100 ms falls in
        // [65536, 131072) → reported bound 131072.
        assert_eq!(p999, 131_072);
    }

    #[test]
    fn endpoint_and_notion_latency_render_labeled_series() {
        let m = Metrics::new();
        m.observe_endpoint("repair", Duration::from_micros(100));
        m.observe_endpoint("/bogus", Duration::from_micros(100));
        m.observe_notion_latency(Notion::Subset, 1000);
        let text = m.render();
        assert!(
            text.contains("fd_serve_endpoint_latency_p50_us{endpoint=\"repair\"} 128"),
            "{text}"
        );
        // Unknown labels fold into `other` rather than minting a series.
        assert!(
            text.contains("fd_serve_endpoint_latency_p50_us{endpoint=\"other\"} 128"),
            "{text}"
        );
        // Unobserved families still render, as zeros.
        assert!(
            text.contains("fd_serve_endpoint_latency_p99_us{endpoint=\"explain\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("fd_serve_notion_latency_p50_us{notion=\"s\"} 1024"),
            "{text}"
        );
        assert!(
            text.contains("fd_serve_notion_latency_p50_us{notion=\"u\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn queue_depth_gauge_moves_and_never_wraps() {
        let m = Metrics::new();
        m.queue_enter();
        m.queue_enter();
        m.queue_exit();
        assert!(m.render().contains("fd_serve_queue_depth 1"));
        m.queue_exit();
        m.queue_exit(); // stray extra exit
        assert!(m.render().contains("fd_serve_queue_depth 0"));
    }

    #[test]
    fn component_and_trace_counters_render() {
        let m = Metrics::new();
        m.observe_components(40);
        m.observe_trace_dropped(0);
        m.observe_trace_dropped(7);
        let text = m.render();
        // 40 falls in [32, 64) → reported bound 64.
        assert!(text.contains("fd_serve_components_p50 64"), "{text}");
        assert!(text.contains("fd_serve_trace_dropped_total 7"), "{text}");
    }

    #[test]
    fn mutate_session_paths_count_under_their_own_labels() {
        let m = Metrics::new();
        m.observe_mutate_session(MutatePath::Primed);
        m.observe_mutate_session(MutatePath::Warm);
        m.observe_mutate_session(MutatePath::Warm);
        let text = m.render();
        for (path, n) in [("warm", 2), ("primed", 1), ("cold", 0)] {
            let line = format!("fd_serve_mutate_sessions_total{{path=\"{path}\"}} {n}");
            assert!(text.contains(&line), "{text}");
        }
    }
}
