//! # fd-serve
//!
//! A concurrent, dependency-free HTTP repair service over the unified
//! engine: the ROADMAP's "serve heavy traffic" north star made
//! concrete, with nothing beyond `std::net`.
//!
//! The paper's framing makes repair a natural *service*: each call is
//! one instance of the same minimization problem, and the dichotomy
//! lets the server promise exact-vs-approximate behavior per request.
//! `fd-serve` exposes exactly that:
//!
//! | endpoint | method | body | response |
//! |---|---|---|---|
//! | `/repair` | POST | a [`RepairCall`](fd_engine::RepairCall) wire document | the engine's `RepairReport` JSON |
//! | `/explain` | POST | the same document | the planner's `Plan` JSON, nothing solved |
//! | `/healthz` | GET | — | liveness JSON |
//! | `/metrics` | GET | — | Prometheus-style counters, p50/p99 latency |
//!
//! Operationally it is a fixed worker pool over a bounded queue
//! (saturation answers **503**, never unbounded buffering), one result
//! table ([`ResultCache`]) that both caches reports and lets concurrent
//! identical calls share one solve, keyed by a hash of (instance, Δ,
//! request knobs), per-request body-size and time-budget ceilings, and
//! graceful shutdown: SIGINT/SIGTERM (or a programmatic flag) stops
//! accepting, drains the queue, and joins the workers.
//!
//! ## Example
//!
//! ```
//! use fd_serve::{client, ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:0".into(),     // ephemeral port
//!     threads: 2,
//!     ..ServeConfig::default()
//! }).unwrap();
//! let addr = server.local_addr().unwrap();
//! let flag = server.shutdown_flag();
//! let handle = std::thread::spawn(move || server.run());
//!
//! let health = client::get(addr, "/healthz").unwrap();
//! assert_eq!(health.status, 200);
//!
//! let report = client::post(addr, "/repair", r#"{
//!     "attrs": ["A", "B"],
//!     "fds": "A -> B",
//!     "rows": [{"weight": 2, "values": [1, 10]}, [1, 20]]
//! }"#).unwrap();
//! assert_eq!(report.status, 200);
//! assert!(report.body.contains("\"cost\":1"));
//!
//! flag.store(true, std::sync::atomic::Ordering::SeqCst);
//! handle.join().unwrap().unwrap();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod cache;
pub mod client;
mod event_loop;
mod http;
mod metrics;
mod pool;
mod router;
mod shutdown;
mod store;

pub use access::AccessRecord;
use cache::LruCache;
pub use cache::{ResultCache, Served, Solved};
pub use http::{Request, Response, Segment};
pub use metrics::{Metrics, MutatePath};
pub use pool::WorkerPool;
pub use router::RequestInfo;
pub use shutdown::{install_signal_handlers, request_shutdown, shutdown_requested};
pub use store::{StoreError, StoredTable, TableStore};

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Everything `fdrepair serve` can tune.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads (`0` = ask the OS).
    pub threads: usize,
    /// Pending connections the queue holds beyond in-flight work;
    /// beyond it, new connections get 503 (`0` = `4 × threads`).
    pub queue_depth: usize,
    /// LRU result-cache capacity in entries (`0` disables caching).
    pub cache_entries: usize,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Ceiling on every request's solve-time budget, ms. Requests may
    /// ask for less; asking for more (or not asking) gets this.
    /// `None` leaves requests uncapped.
    pub default_time_cap_ms: Option<u64>,
    /// Socket read/write timeout per connection, ms (slowloris guard).
    pub io_timeout_ms: u64,
    /// Write one JSON access-log line per finished (or shed) request to
    /// stderr. Strictly out-of-band: responses are byte-identical with
    /// the log on or off.
    pub access_log: bool,
    /// Open connections the event loop will hold at once (`0` = 1024).
    /// Beyond it, new connections are closed immediately — the bound is
    /// on *sockets*, where the worker queue bound is on *work*.
    pub max_connections: usize,
    /// Stored tables each tenant may keep via `PUT /tables/{id}`
    /// (`0` = unlimited).
    pub max_tables_per_tenant: usize,
    /// Total rows each tenant may keep at rest (`0` = unlimited).
    pub max_rows_per_tenant: usize,
    /// Force the portable tick-based poller even where epoll is
    /// available (CI exercises the fallback this way).
    pub portable_poller: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            threads: 4,
            queue_depth: 0,
            cache_entries: 256,
            max_body_bytes: 4 << 20,
            default_time_cap_ms: Some(30_000),
            io_timeout_ms: 10_000,
            access_log: false,
            max_connections: 0,
            max_tables_per_tenant: 64,
            max_rows_per_tenant: 4_000_000,
            portable_poller: false,
        }
    }
}

impl ServeConfig {
    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        }
    }

    fn effective_queue_depth(&self) -> usize {
        if self.queue_depth > 0 {
            self.queue_depth
        } else {
            4 * self.effective_threads()
        }
    }

    fn effective_max_connections(&self) -> usize {
        if self.max_connections > 0 {
            self.max_connections
        } else {
            1024
        }
    }
}

/// State shared by the accept loop and every worker.
pub struct Shared {
    /// The configuration the server was built with.
    pub config: ServeConfig,
    /// Service counters.
    pub metrics: Metrics,
    /// The result table: every cacheable call's entry, in flight or
    /// done, so that no call is solved twice (see [`ResultCache`]).
    pub cache: ResultCache,
    /// Memoized fast-path probes: byte-identical inline bodies re-probe
    /// the result cache without re-parsing (see `router::ProbeMemo`).
    pub(crate) probe_memo: Mutex<LruCache<router::ProbeMemo>>,
    /// Tables at rest (`PUT /tables/{id}`), namespaced per tenant.
    pub store: TableStore,
    /// A retired report's buffer, for the next mutate to write its
    /// report into (empty when there is none): a large report then
    /// lands in pages already mapped instead of fresh ones. Only a
    /// buffer no response shares any more is ever put here.
    pub(crate) spare_report: Mutex<Vec<u8>>,
    /// When the server came up (for `/healthz` uptime).
    pub started: Instant,
    /// Source of generated `req-<n>` request ids.
    request_counter: AtomicU64,
    /// The access-log sink, when logging is on. A mutex (not a channel)
    /// because one short line per request is far below the solve cost,
    /// and `writeln!` under the lock keeps lines atomic.
    access: Option<Mutex<Box<dyn std::io::Write + Send>>>,
}

impl Shared {
    /// Fresh shared state for `config`; with `access_log` set, lines go
    /// to stderr.
    pub fn new(config: ServeConfig) -> Shared {
        let sink: Option<Box<dyn std::io::Write + Send>> = config
            .access_log
            .then(|| Box::new(std::io::stderr()) as Box<dyn std::io::Write + Send>);
        Shared::with_access_sink(config, sink)
    }

    /// Shared state whose access log writes to `sink` (tests capture
    /// lines this way); `None` disables logging regardless of config.
    pub fn with_access_sink(
        config: ServeConfig,
        sink: Option<Box<dyn std::io::Write + Send>>,
    ) -> Shared {
        let cache = ResultCache::new(config.cache_entries);
        let probe_memo = Mutex::new(LruCache::new(config.cache_entries));
        let store = TableStore::new(config.max_tables_per_tenant, config.max_rows_per_tenant);
        Shared {
            config,
            metrics: Metrics::new(),
            cache,
            probe_memo,
            store,
            spare_report: Mutex::new(Vec::new()),
            started: Instant::now(),
            request_counter: AtomicU64::new(0),
            access: sink.map(Mutex::new),
        }
    }

    /// The next generated request id (`req-1`, `req-2`, …).
    pub fn next_request_id(&self) -> String {
        format!(
            "req-{}",
            self.request_counter.fetch_add(1, Ordering::Relaxed) + 1
        )
    }

    /// Writes one access-log line, if logging is on; `record` builds
    /// it only then, so a server logging nothing allocates nothing for
    /// the log. Failures are swallowed: observability must never take
    /// down serving.
    pub fn log_access(&self, record: impl FnOnce() -> AccessRecord) {
        use std::io::Write;
        if let Some(sink) = &self.access {
            let line = record().to_json_line();
            if let Ok(mut sink) = sink.lock() {
                let _ = writeln!(sink, "{line}");
            }
        }
    }
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener. The server does not accept until
    /// [`Server::run`].
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        Server::bind_shared(Shared::new(config))
    }

    /// Binds a listener for pre-built shared state (tests inject an
    /// access-log sink this way via [`Shared::with_access_sink`]).
    pub fn bind_shared(shared: Shared) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&shared.config.addr)?;
        Ok(Server {
            listener,
            shared: Arc::new(shared),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (the actual port when the config said `:0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A flag that stops the server when set: the accept loop exits,
    /// queued connections drain, workers join. Clone it into whatever
    /// should be able to stop serving (tests, the CLI's signal wiring).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The shared state (metrics and cache), for inspection.
    pub fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// Serves until the shutdown flag is set or a SIGINT/SIGTERM
    /// arrives (when [`install_signal_handlers`] was called), then
    /// drains gracefully. Blocks the calling thread.
    ///
    /// All socket IO happens on this thread's readiness-driven event
    /// loop (epoll on Linux, a tick-based poller elsewhere): it accepts,
    /// reads requests incrementally, and writes responses, handing only
    /// fully-read requests to the worker pool. A stalled or hostile peer
    /// therefore costs one slab slot, never a worker thread.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            shared,
            shutdown,
        } = self;
        event_loop::run(listener, shared, shutdown)
    }
}
