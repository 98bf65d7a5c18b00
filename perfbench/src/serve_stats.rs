//! Serve-side layer numbers, taken from outside the program: the client's
//! own timings, the server's JSON access log, and `/metrics` deltas.

use crate::http;
use crate::metrics::Outcome;
use crate::util::{quantile, tail_quantile, us};
use fd_repairs::engine::Json;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

/// One timed call as the client saw it.
pub struct ClientRecord {
    /// One of [`crate::metrics::ENDPOINTS`], or `other` (deletes).
    pub endpoint: &'static str,
    pub request_id: String,
    pub latency: Duration,
    pub ttfb: Duration,
    pub bytes_in: usize,
    pub bytes_out: usize,
}

/// The `/metrics` counters the benchmark reads deltas of.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    pub hits: f64,
    pub misses: f64,
    pub coalesced: f64,
    pub rejected: f64,
}

pub fn counters(addr: SocketAddr) -> Counters {
    let mut c = Counters::default();
    let Ok(x) = http::call(addr, "GET", "/metrics", "metrics", b"") else {
        return c;
    };
    for line in String::from_utf8_lossy(&x.body).lines() {
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let value: f64 = value.parse().unwrap_or(0.0);
        match name {
            "fd_serve_cache_hits" => c.hits = value,
            "fd_serve_cache_misses" => c.misses = value,
            "fd_serve_coalesced_total" => c.coalesced = value,
            "fd_serve_queue_rejected_total" => c.rejected = value,
            _ => {}
        }
    }
    c
}

/// What the access log says about one request.
pub struct Logged {
    pub queued: bool,
    pub queue_wait_us: f64,
    pub solve_us: f64,
    pub cache_hit: Option<bool>,
}

/// The access log, by request id.
pub fn read_access_log(path: &Path) -> HashMap<String, Logged> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .filter_map(|line| {
            let doc = Json::parse(line).ok()?;
            let id = doc.get("request_id")?.as_str()?.to_string();
            let logged = Logged {
                queued: doc.get("queued")?.as_bool()?,
                queue_wait_us: doc.get("queue_wait_us")?.as_num()?,
                solve_us: doc.get("solve_us")?.as_num()?,
                cache_hit: doc.get("cache_hit").and_then(Json::as_bool),
            };
            Some((id, logged))
        })
        .collect()
}

/// Fills every `serve.*` layer metric from the run's client records,
/// access log and counter deltas.
pub fn serve_layers(
    out: &mut Outcome,
    records: &[ClientRecord],
    log: &HashMap<String, Logged>,
    before: Counters,
    after: Counters,
) {
    for endpoint in crate::metrics::ENDPOINTS {
        let mine: Vec<&ClientRecord> = records.iter().filter(|r| r.endpoint == endpoint).collect();
        if mine.is_empty() {
            continue;
        }
        let n = mine.len();
        let logged = |r: &ClientRecord| log.get(&r.request_id);
        let ttfb: Vec<f64> = mine.iter().map(|r| us(r.ttfb)).collect();
        let wait: Vec<f64> = mine
            .iter()
            .filter_map(|r| logged(r).map(|l| l.queue_wait_us))
            .collect();
        let solve: Vec<f64> = mine
            .iter()
            .filter_map(|r| logged(r).map(|l| l.solve_us))
            .collect();
        let unaccounted: Vec<f64> = mine
            .iter()
            .filter_map(|r| logged(r).map(|l| us(r.latency) - l.queue_wait_us - l.solve_us))
            .collect();
        for (stage, values) in [
            ("ttfb_us", &ttfb),
            ("queue_wait_us", &wait),
            ("solve_us", &solve),
            ("unaccounted_us", &unaccounted),
        ] {
            out.layer(
                &format!("serve.{stage}.{endpoint}.p50"),
                quantile(values, 0.5),
            );
            if matches!(endpoint, "repair" | "mutate") && stage != "unaccounted_us" {
                out.layer(
                    &format!("serve.{stage}.{endpoint}.tail"),
                    quantile(values, tail_quantile(values.len())),
                );
            }
        }
        let mean = |f: fn(&ClientRecord) -> usize| {
            mine.iter().map(|r| f(r) as f64).sum::<f64>() / n as f64
        };
        out.layer(
            &format!("serve.bytes_in_per_op.{endpoint}"),
            mean(|r| r.bytes_in),
        );
        out.layer(
            &format!("serve.bytes_out_per_op.{endpoint}"),
            mean(|r| r.bytes_out),
        );
        out.line(
            &format!("serve.{endpoint}.samples"),
            n as f64,
            &format!("calls ({} in the access log)", wait.len()),
        );
    }
    let cacheable = (after.hits - before.hits)
        + (after.misses - before.misses)
        + (after.coalesced - before.coalesced);
    if cacheable > 0.0 {
        out.layer(
            "serve.cache_hit_ratio",
            (after.hits - before.hits) / cacheable,
        );
    }
    out.layer("serve.coalesced", after.coalesced - before.coalesced);
    out.layer("serve.queue_rejected", after.rejected - before.rejected);
    let reads: Vec<&ClientRecord> = records
        .iter()
        .filter(|r| matches!(r.endpoint, "repair" | "explain"))
        .collect();
    if !reads.is_empty() {
        let fast = reads
            .iter()
            .filter(|r| log.get(&r.request_id).is_some_and(|l| !l.queued))
            .count();
        out.layer("serve.fast_path_share", fast as f64 / reads.len() as f64);
    }
}
