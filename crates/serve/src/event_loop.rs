//! The readiness-driven serving front end: one thread owns every
//! socket — accept, request reads, response writes — and hands only
//! *fully-read* requests to the worker pool. Workers never block on
//! peer IO, so a stalled upload or an unread response costs one slab
//! slot, never a worker thread, and shedding a saturated queue is a
//! nonblocking state transition instead of a synchronous write.
//!
//! On Linux the loop runs on `epoll(7)` (raw C-runtime declarations,
//! the same dependency-free precedent as `shutdown.rs`; see
//! `[rules.U001]` in lint.toml), with an `eventfd(2)` waker so workers
//! can hand finished responses back mid-wait. Everywhere else — and on
//! Linux when [`crate::ServeConfig::portable_poller`] is set — a
//! portable tick-based poller reports every registered connection as
//! ready roughly once a millisecond; correctness is identical because
//! every socket is nonblocking and `WouldBlock` is always a no-op.
//!
//! Connection lifecycle (one request per connection, `Connection:
//! close` semantics):
//!
//! ```text
//! Reading ──full request──▶ InFlight ──worker done──▶ Writing ──▶ Draining ──▶ closed
//!    │  parse error / shed ─────────────────────────────▲
//!    └─ deadline/EOF/error ──▶ closed
//! ```
//!
//! Every state carries a deadline except `InFlight` (solve time is
//! budgeted by the engine's time caps, not socket timeouts); a sweep
//! per loop iteration closes overdue connections, which is the whole
//! slowloris story: a peer that trickles bytes or never reads occupies
//! one of `max_connections` slots until `io_timeout_ms`, nothing more.

use crate::http::{self, HttpError, Outgoing, Request, RequestParser, Response};
use crate::pool::WorkerPool;
use crate::router::{self, Prepared};
use crate::shutdown::shutdown_requested;
use crate::{AccessRecord, RequestInfo, Shared};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Poller token for the listening socket.
const LISTENER: u64 = u64::MAX;
/// Poller token for the worker-completion waker.
const WAKER: u64 = u64::MAX - 1;

/// Bytes a post-response drain will read before giving up on a peer
/// that keeps sending (anti-RST bound, matching the old worker path).
const DRAIN_CAP_BYTES: usize = 1 << 20;
/// How long the drain state may linger before the socket is closed.
const DRAIN_WINDOW: Duration = Duration::from_millis(500);
/// How long the shutdown path keeps flushing pending responses.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);
/// Idle poll timeout: bounds shutdown-notice latency when nothing is
/// happening (completions interrupt the wait via the waker).
const IDLE_WAIT: Duration = Duration::from_millis(50);
/// Accepts taken per `accept_burst` call before the loop yields back
/// to event processing and the deadline sweep (see `accept_burst`).
const ACCEPT_BURST_MAX: usize = 256;

/// A connection slot: slab index + generation. The generation makes
/// tokens single-use — a completion for a connection that died and
/// whose slot was reused cannot write into the successor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Token {
    idx: u32,
    gen: u32,
}

impl Token {
    fn pack(self) -> u64 {
        (u64::from(self.idx) << 32) | u64::from(self.gen)
    }

    fn unpack(raw: u64) -> Token {
        Token {
            idx: (raw >> 32) as u32,
            gen: raw as u32,
        }
    }
}

/// One queued unit of work: a fully-read request, the call the fast
/// path already parsed from it (if it did), and the instants the access
/// log needs (accept → total latency, submit → queue wait).
pub(crate) struct Job {
    token: Token,
    request: Request,
    prepared: Option<Box<Prepared>>,
    accepted: Instant,
    submitted: Instant,
}

/// Finished responses, handed from workers back to the loop thread.
/// Pushing wakes the poller so a response never waits out an idle
/// timeout.
pub(crate) struct Completions {
    queue: Mutex<Vec<(Token, Outgoing)>>,
    waker: Arc<dyn Fn() + Send + Sync>,
}

impl Completions {
    fn new(waker: Arc<dyn Fn() + Send + Sync>) -> Completions {
        Completions {
            queue: Mutex::new(Vec::new()),
            waker,
        }
    }

    fn push(&self, token: Token, out: Outgoing) {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((token, out));
        (self.waker)();
    }

    fn drain(&self) -> Vec<(Token, Outgoing)> {
        std::mem::take(&mut *self.queue.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Where a connection is in its life. See the module diagram.
enum ConnState {
    /// Accumulating request bytes in the incremental parser.
    Reading(RequestParser),
    /// A worker owns the request; the loop ignores the socket until the
    /// completion arrives (no deadline — solves are engine-budgeted).
    InFlight,
    /// Flushing the response's head and body segments as the socket
    /// accepts them.
    Writing(Outgoing),
    /// Response sent, write side shut down; reading out the peer's
    /// unread leftovers so close doesn't RST the response away.
    Draining { seen: usize },
}

struct Conn {
    stream: TcpStream,
    token: Token,
    state: ConnState,
    /// When this connection is forfeit (None only while `InFlight`).
    deadline: Option<Instant>,
    accepted: Instant,
    /// What the poller currently watches for, `None` = deregistered.
    registered: Option<Interest>,
    /// The request was parsed to completion, so once the receive buffer
    /// reads empty nothing of the peer's remains unread — the
    /// post-response close can skip waiting for the peer's EOF (a close
    /// with an empty receive queue sends FIN, never RST). Early
    /// responses (rejects on partial requests) leave this false and
    /// drain until EOF or deadline.
    request_complete: bool,
}

impl Conn {
    fn start_writing(&mut self, out: Outgoing, io_timeout: Duration) {
        self.state = ConnState::Writing(out);
        self.deadline = Some(Instant::now() + io_timeout);
    }
}

/// What the poller should watch a socket for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Interest {
    Read,
    Write,
}

/// Should the connection stay after a drive pass?
enum StepOutcome {
    Keep,
    Close,
}

// ---------------------------------------------------------------------
// The slab: dense connection storage with generation-checked tokens.
// ---------------------------------------------------------------------

struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

struct Slab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    cap: usize,
    live: usize,
}

impl Slab {
    fn new(cap: usize) -> Slab {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            cap,
            live: 0,
        }
    }

    /// Claims a slot, or `None` at `max_connections`.
    fn insert(&mut self, make: impl FnOnce(Token) -> Conn) -> Option<Token> {
        if self.live >= self.cap {
            return None;
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                // u32::MAX slots would be fatal long before this cast
                // could truncate; cap is bounded by max_connections.
                let idx = self.slots.len() as u32;
                self.slots.push(Slot { gen: 0, conn: None });
                idx
            }
        };
        let gen = self.slots.get(idx as usize).map(|s| s.gen).unwrap_or(0);
        let token = Token { idx, gen };
        if let Some(slot) = self.slots.get_mut(idx as usize) {
            slot.conn = Some(make(token));
            self.live += 1;
            return Some(token);
        }
        None
    }

    fn get_mut(&mut self, token: Token) -> Option<&mut Conn> {
        let slot = self.slots.get_mut(token.idx as usize)?;
        if slot.gen != token.gen {
            return None;
        }
        slot.conn.as_mut()
    }

    /// Frees the slot (dropping the stream closes the socket) and bumps
    /// the generation so stale tokens miss.
    fn remove(&mut self, token: Token) {
        if let Some(slot) = self.slots.get_mut(token.idx as usize) {
            if slot.gen == token.gen && slot.conn.is_some() {
                slot.conn = None;
                slot.gen = slot.gen.wrapping_add(1);
                self.free.push(token.idx);
                self.live -= 1;
            }
        }
    }

    fn live(&self) -> usize {
        self.live
    }

    /// Tokens whose deadline passed at `now`.
    fn expired(&self, now: Instant) -> Vec<Token> {
        self.slots
            .iter()
            .filter_map(|slot| {
                let conn = slot.conn.as_ref()?;
                (conn.deadline? <= now).then_some(conn.token)
            })
            .collect()
    }

    /// The nearest deadline across live connections, if any.
    fn next_deadline(&self) -> Option<Instant> {
        self.slots
            .iter()
            .filter_map(|slot| slot.conn.as_ref()?.deadline)
            .min()
    }

    /// Tokens of every live connection (shutdown enumeration).
    fn tokens(&self) -> Vec<Token> {
        self.slots
            .iter()
            .filter_map(|slot| Some(slot.conn.as_ref()?.token))
            .collect()
    }
}

// ---------------------------------------------------------------------
// The poller: epoll where available, a 1 ms tick everywhere else.
// ---------------------------------------------------------------------

#[cfg(target_os = "linux")]
fn fd_of<T: std::os::fd::AsRawFd>(source: &T) -> i32 {
    source.as_raw_fd()
}

#[cfg(not(target_os = "linux"))]
fn fd_of<T>(_source: &T) -> i32 {
    -1
}

enum Poller {
    #[cfg(target_os = "linux")]
    Epoll(sys::Epoll),
    Portable(PortablePoller),
}

impl Poller {
    fn new(force_portable: bool) -> Poller {
        #[cfg(target_os = "linux")]
        if !force_portable {
            // epoll_create1 failing (rlimits, exotic sandboxes) is not
            // fatal: the portable poller serves identically, slower.
            if let Some(epoll) = sys::Epoll::new(WAKER) {
                return Poller::Epoll(epoll);
            }
        }
        #[cfg(not(target_os = "linux"))]
        let _ = force_portable;
        Poller::Portable(PortablePoller::new())
    }

    /// A handle workers call to interrupt a pending `wait`.
    fn waker(&self) -> Arc<dyn Fn() + Send + Sync> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(epoll) => {
                let wake = epoll.wake_handle();
                Arc::new(move || wake.wake())
            }
            Poller::Portable(portable) => {
                let flag = Arc::clone(&portable.wake);
                Arc::new(move || flag.store(true, Ordering::SeqCst))
            }
        }
    }

    fn register(&mut self, fd: i32, token: u64, interest: Interest) {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(epoll) => epoll.add(fd, interest, token),
            Poller::Portable(portable) => {
                portable.tokens.insert(token);
            }
        }
    }

    fn update(&mut self, fd: i32, token: u64, interest: Interest) {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(epoll) => epoll.modify(fd, interest, token),
            Poller::Portable(_) => {}
        }
    }

    fn deregister(&mut self, fd: i32, token: u64) {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(epoll) => epoll.del(fd),
            Poller::Portable(portable) => {
                portable.tokens.remove(&token);
            }
        }
    }

    /// Like `deregister`, for a socket that is about to be closed: the
    /// kernel removes a closed fd from an epoll set by itself (these
    /// fds are never dup'd), so the syscall would be pure overhead.
    fn forget(&mut self, _fd: i32, token: u64) {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => {}
            Poller::Portable(portable) => {
                portable.tokens.remove(&token);
            }
        }
    }

    /// Fills `out` with ready tokens, waiting up to `timeout`.
    fn wait(&mut self, out: &mut Vec<u64>, timeout: Duration) -> std::io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(epoll) => epoll.wait(out, timeout),
            Poller::Portable(portable) => {
                portable.wait(out, timeout);
                Ok(())
            }
        }
    }
}

/// The fallback poller: no readiness information at all, just a ~1 ms
/// tick that reports every registered token as ready. Every socket is
/// nonblocking, so "falsely ready" costs one `WouldBlock` per tick —
/// the same idle cost as the pre-epoll accept loop's 1 ms sleep.
struct PortablePoller {
    /// Registered tokens (BTreeSet: deterministic drive order).
    tokens: std::collections::BTreeSet<u64>,
    wake: Arc<AtomicBool>,
}

impl PortablePoller {
    fn new() -> PortablePoller {
        PortablePoller {
            tokens: std::collections::BTreeSet::new(),
            wake: Arc::new(AtomicBool::new(false)),
        }
    }

    fn wait(&self, out: &mut Vec<u64>, timeout: Duration) {
        out.clear();
        if !self.wake.swap(false, Ordering::SeqCst) {
            std::thread::sleep(timeout.min(Duration::from_millis(1)));
            self.wake.store(false, Ordering::SeqCst);
        }
        out.extend(self.tokens.iter().copied());
    }
}

#[cfg(target_os = "linux")]
mod sys {
    //! Raw `epoll(7)` + `eventfd(2)` through the C runtime the program
    //! already links — the same dependency-free route as `shutdown.rs`,
    //! and the other entry in lint.toml's `[rules.U001]` allowlist. The
    //! crate stays `#![deny(unsafe_code)]`; this module is the scoped
    //! exception, and every block carries its SAFETY argument.
    #![allow(unsafe_code)]

    use super::Interest;
    use std::sync::Arc;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0x0008_0000;
    const EFD_CLOEXEC: i32 = 0x0008_0000;
    const EFD_NONBLOCK: i32 = 0x800;
    /// Events per `epoll_wait` call; more simply arrive next iteration.
    const WAIT_CAPACITY: usize = 256;

    /// `struct epoll_event`. The kernel ABI packs it on x86-64 (12
    /// bytes) and aligns it naturally everywhere else.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        // Straight from the C runtime: `man epoll_create1`,
        // `epoll_ctl`, `epoll_wait`, `eventfd`, plus POSIX
        // `read`/`write`/`close` for the eventfd counter and `listen`
        // for re-arming the accept backlog.
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
        fn listen(sockfd: i32, backlog: i32) -> i32;
    }

    /// Re-arms the accept backlog: `std`'s `TcpListener::bind` listens
    /// with a backlog of 128, which a reconnect-per-request client fleet
    /// overflows — dropped SYNs then surface as whole-second retransmit
    /// stalls. Calling `listen` again on a listening socket just updates
    /// the backlog (`man 2 listen`); failure leaves 128, never breaks.
    pub fn deepen_backlog(fd: i32, backlog: i32) {
        // SAFETY: `fd` is the caller's live listening socket and
        // `listen` takes no pointers; a -1 return is ignored by design.
        let _ = unsafe { listen(fd, backlog) };
    }

    /// The eventfd side shared with worker threads: `wake` is the only
    /// cross-thread entry point into the poller, and it is one `write`.
    pub struct WakeHandle {
        fd: i32,
    }

    impl WakeHandle {
        pub fn wake(&self) {
            let one: u64 = 1;
            // SAFETY: `self.fd` is a live eventfd owned by this handle
            // (closed only in Drop), and the buffer is 8 valid bytes —
            // exactly what eventfd writes require. A failed write
            // (counter at max) is fine: the counter being nonzero is
            // already a pending wakeup.
            let _ = unsafe { write(self.fd, std::ptr::addr_of!(one).cast(), 8) };
        }

        fn drain(&self) {
            let mut counter: u64 = 0;
            // SAFETY: same fd ownership as `wake`; an 8-byte buffer is
            // what eventfd reads require. EAGAIN (already drained) is
            // harmless and ignored.
            let _ = unsafe { read(self.fd, std::ptr::addr_of_mut!(counter).cast(), 8) };
        }
    }

    impl Drop for WakeHandle {
        fn drop(&mut self) {
            // SAFETY: closing the fd this handle owns, exactly once.
            let _ = unsafe { close(self.fd) };
        }
    }

    pub struct Epoll {
        epfd: i32,
        wake: Arc<WakeHandle>,
        waker_token: u64,
    }

    impl Epoll {
        /// A ready instance with the eventfd waker registered, or
        /// `None` if the kernel refuses (caller falls back).
        pub fn new(waker_token: u64) -> Option<Epoll> {
            // SAFETY: epoll_create1 takes a flags word and returns a
            // new fd or -1; no pointers involved.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return None;
            }
            // SAFETY: eventfd takes an initial counter and flags and
            // returns a new fd or -1; no pointers involved.
            let efd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if efd < 0 {
                // SAFETY: closing the fd we just created.
                let _ = unsafe { close(epfd) };
                return None;
            }
            let epoll = Epoll {
                epfd,
                wake: Arc::new(WakeHandle { fd: efd }),
                waker_token,
            };
            // Dropping `epoll` on failure closes both fds.
            epoll
                .ctl(EPOLL_CTL_ADD, efd, EPOLLIN, waker_token)
                .then_some(epoll)
        }

        pub fn wake_handle(&self) -> Arc<WakeHandle> {
            Arc::clone(&self.wake)
        }

        fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> bool {
            let mut event = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `self.epfd` is the live epoll fd this struct
            // owns; `fd` is a caller-supplied live descriptor; `event`
            // is a properly laid-out epoll_event that outlives the
            // call (epoll_ctl reads it synchronously).
            unsafe { epoll_ctl(self.epfd, op, fd, std::ptr::addr_of_mut!(event)) == 0 }
        }

        fn mask(interest: Interest) -> u32 {
            match interest {
                Interest::Read => EPOLLIN,
                Interest::Write => EPOLLOUT,
            }
        }

        pub fn add(&self, fd: i32, interest: Interest, token: u64) {
            let _ = self.ctl(EPOLL_CTL_ADD, fd, Self::mask(interest), token);
        }

        pub fn modify(&self, fd: i32, interest: Interest, token: u64) {
            let _ = self.ctl(EPOLL_CTL_MOD, fd, Self::mask(interest), token);
        }

        pub fn del(&self, fd: i32) {
            // A non-null event pointer is required only by ancient
            // kernels, but it costs nothing to satisfy them.
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
        }

        pub fn wait(&self, out: &mut Vec<u64>, timeout: Duration) -> std::io::Result<()> {
            out.clear();
            let mut buf = [EpollEvent { events: 0, data: 0 }; WAIT_CAPACITY];
            let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            // SAFETY: `self.epfd` is our live epoll fd; `buf` is a
            // valid writable array of WAIT_CAPACITY epoll_events and
            // `maxevents` matches its length, so the kernel writes in
            // bounds.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    buf.as_mut_ptr(),
                    WAIT_CAPACITY as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = std::io::Error::last_os_error();
                // A signal landing mid-wait (SIGINT on shutdown) is an
                // empty wait, not a failure.
                if err.kind() == std::io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for event in buf.iter().take(n as usize) {
                let token = event.data; // by-value copy: packed-safe
                if token == self.waker_token {
                    self.wake.drain();
                }
                out.push(token);
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: closing the epoll fd this struct owns, exactly
            // once (the eventfd is owned and closed by WakeHandle).
            let _ = unsafe { close(self.epfd) };
        }
    }
}

// ---------------------------------------------------------------------
// The loop itself.
// ---------------------------------------------------------------------

/// Runs the serving loop until shutdown, then drains: stop accepting,
/// finish queued work, flush pending responses within a bounded grace.
pub(crate) fn run(
    listener: TcpListener,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    #[cfg(target_os = "linux")]
    sys::deepen_backlog(fd_of(&listener), 1024);
    let mut poller = Poller::new(shared.config.portable_poller);
    poller.register(fd_of(&listener), LISTENER, Interest::Read);
    let completions = Arc::new(Completions::new(poller.waker()));

    let io_timeout = Duration::from_millis(shared.config.io_timeout_ms.max(1));
    let threads = shared.config.effective_threads();
    let queue_depth = shared.config.effective_queue_depth();
    let max_connections = shared.config.effective_max_connections();

    let worker_shared = Arc::clone(&shared);
    let worker_completions = Arc::clone(&completions);
    let pool = WorkerPool::spawn(
        threads,
        queue_depth,
        Arc::new(move |job: Job| handle_job(&worker_shared, &worker_completions, job)),
    );

    let mut conns = Slab::new(max_connections);
    let mut ready: Vec<u64> = Vec::new();

    while !shutdown.load(Ordering::SeqCst) && !shutdown_requested() {
        let timeout = wait_timeout(&conns);
        poller.wait(&mut ready, timeout)?;
        apply_completions(
            &completions,
            &mut conns,
            &mut poller,
            &shared,
            Some(&pool),
            io_timeout,
        );
        let batch = std::mem::take(&mut ready);
        for &raw in &batch {
            match raw {
                LISTENER => {
                    accept_burst(
                        &listener,
                        &mut conns,
                        &mut poller,
                        &shared,
                        &pool,
                        io_timeout,
                    );
                }
                WAKER => {}
                raw => drive(
                    Token::unpack(raw),
                    &mut conns,
                    &mut poller,
                    &shared,
                    Some(&pool),
                    io_timeout,
                ),
            }
        }
        ready = batch;
        sweep_deadlines(&mut conns, &mut poller);
    }

    // Shutdown: stop accepting; a request that never fully arrived is
    // owed nothing, so Reading connections close now. Then let the pool
    // finish every queued job (its shutdown drains the queue), hand the
    // finished responses to their sockets, and flush within a grace
    // window — deadlines still apply, so a dead peer cannot stall exit.
    poller.deregister(fd_of(&listener), LISTENER);
    drop(listener);
    for token in conns.tokens() {
        let is_reading = conns
            .get_mut(token)
            .is_some_and(|conn| matches!(conn.state, ConnState::Reading(_)));
        if is_reading {
            close_conn(token, &mut conns, &mut poller);
        }
    }
    pool.shutdown();
    apply_completions(
        &completions,
        &mut conns,
        &mut poller,
        &shared,
        None,
        io_timeout,
    );
    let grace_until = Instant::now() + SHUTDOWN_GRACE;
    while conns.live() > 0 && Instant::now() < grace_until {
        poller.wait(&mut ready, Duration::from_millis(20))?;
        let batch = std::mem::take(&mut ready);
        for &raw in &batch {
            match raw {
                LISTENER | WAKER => {}
                raw => drive(
                    Token::unpack(raw),
                    &mut conns,
                    &mut poller,
                    &shared,
                    None,
                    io_timeout,
                ),
            }
        }
        ready = batch;
        sweep_deadlines(&mut conns, &mut poller);
    }
    Ok(())
}

/// How long the next wait may block: up to the nearest deadline, at
/// most [`IDLE_WAIT`] (completions cut the wait short via the waker).
fn wait_timeout(conns: &Slab) -> Duration {
    let now = Instant::now();
    conns
        .next_deadline()
        .map(|deadline| deadline.saturating_duration_since(now))
        .unwrap_or(IDLE_WAIT)
        .min(IDLE_WAIT)
}

/// Accepts until the backlog is empty or [`ACCEPT_BURST_MAX`] sockets
/// have been taken. Each connection is made nonblocking, slotted, and
/// driven once immediately — most clients have already sent their
/// request, so this usually reads it in full and dispatches without
/// another poller round trip.
///
/// The cap is a fairness bound, not a limit: the listener is
/// level-triggered, so a still-nonempty backlog re-reports on the next
/// wait. Without it, clients reconnecting as fast as they are refused
/// keep the backlog nonempty forever and this loop never returns —
/// starving the deadline sweep that frees slots, which is a livelock.
fn accept_burst(
    listener: &TcpListener,
    conns: &mut Slab,
    poller: &mut Poller,
    shared: &Shared,
    pool: &WorkerPool<Job>,
    io_timeout: Duration,
) {
    for _ in 0..ACCEPT_BURST_MAX {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue; // a socket we cannot manage is dropped
                }
                let _ = stream.set_nodelay(true);
                let now = Instant::now();
                let max_body = shared.config.max_body_bytes;
                let inserted = conns.insert(|token| Conn {
                    stream,
                    token,
                    state: ConnState::Reading(RequestParser::new(max_body)),
                    deadline: Some(now + io_timeout),
                    accepted: now,
                    registered: None,
                    request_complete: false,
                });
                match inserted {
                    Some(token) => drive(token, conns, poller, shared, Some(pool), io_timeout),
                    None => {
                        // At max_connections the socket (moved into the
                        // closure that never ran) is already dropped:
                        // refusal by close, counted, costing nothing.
                        shared.metrics.observe_conn_limit_closed();
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // EMFILE and friends: abandon this burst, the next loop
            // iteration retries. Dying would turn exhaustion into outage.
            Err(_) => break,
        }
    }
}

/// Hands every finished response to its connection and starts writing.
fn apply_completions(
    completions: &Completions,
    conns: &mut Slab,
    poller: &mut Poller,
    shared: &Shared,
    pool: Option<&WorkerPool<Job>>,
    io_timeout: Duration,
) {
    for (token, out) in completions.drain() {
        let Some(conn) = conns.get_mut(token) else {
            continue; // the peer died while its request was in flight
        };
        if !matches!(conn.state, ConnState::InFlight) {
            continue;
        }
        conn.start_writing(out, io_timeout);
        drive(token, conns, poller, shared, pool, io_timeout);
    }
}

/// Advances one connection as far as its socket allows, then reconciles
/// its poller registration (or removes it).
fn drive(
    token: Token,
    conns: &mut Slab,
    poller: &mut Poller,
    shared: &Shared,
    pool: Option<&WorkerPool<Job>>,
    io_timeout: Duration,
) {
    let Some(conn) = conns.get_mut(token) else {
        return;
    };
    match step(conn, shared, pool, io_timeout) {
        StepOutcome::Keep => {
            let want = match conn.state {
                ConnState::Reading(_) | ConnState::Draining { .. } => Some(Interest::Read),
                ConnState::Writing(_) => Some(Interest::Write),
                ConnState::InFlight => None,
            };
            if conn.registered != want {
                let fd = fd_of(&conn.stream);
                match (conn.registered, want) {
                    (None, Some(interest)) => poller.register(fd, token.pack(), interest),
                    (Some(_), Some(interest)) => poller.update(fd, token.pack(), interest),
                    (Some(_), None) => poller.deregister(fd, token.pack()),
                    (None, None) => {}
                }
                conn.registered = want;
            }
        }
        StepOutcome::Close => close_conn(token, conns, poller),
    }
}

/// Frees a connection; dropping the stream closes the socket, which
/// also evicts it from the platform poller (`forget` is a no-op there).
fn close_conn(token: Token, conns: &mut Slab, poller: &mut Poller) {
    if let Some(conn) = conns.get_mut(token) {
        if conn.registered.is_some() {
            let fd = fd_of(&conn.stream);
            poller.forget(fd, token.pack());
            conn.registered = None;
        }
    }
    conns.remove(token);
}

/// Closes every connection whose deadline has passed. This is the
/// slowloris guard *and* the unread-response guard: both failure modes
/// are just deadlines expiring in different states.
fn sweep_deadlines(conns: &mut Slab, poller: &mut Poller) {
    for token in conns.expired(Instant::now()) {
        close_conn(token, conns, poller);
    }
}

/// State-machine transition driver: reads, writes, dispatches, sheds —
/// whatever the current state and the socket permit, looping until the
/// socket would block or the connection is done.
fn step(
    conn: &mut Conn,
    shared: &Shared,
    pool: Option<&WorkerPool<Job>>,
    io_timeout: Duration,
) -> StepOutcome {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match &mut conn.state {
            ConnState::Reading(parser) => {
                let n = match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        // EOF before a full request. A probe that opened
                        // and closed without sending gets silence; a
                        // half-closed truncated request still gets its
                        // 400 (the peer's read side may well be open).
                        if parser.started() {
                            let error = http::truncated(parser);
                            reject(conn, error, shared, io_timeout);
                            continue;
                        }
                        return StepOutcome::Close;
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        return StepOutcome::Keep
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return StepOutcome::Close,
                };
                match parser.feed(buf.get(..n).unwrap_or(&[])) {
                    Ok(Some(request)) => dispatch(conn, request, shared, pool, io_timeout),
                    // The head passed its checks and the peer waits on
                    // `Expect: 100-continue`. Nothing was written to this
                    // socket before, so its send buffer is empty and the
                    // 25-byte interim response goes out whole; a failed
                    // or short write means the peer is gone.
                    Ok(None) if parser.take_continue() => match conn.stream.write(http::CONTINUE) {
                        Ok(n) if n == http::CONTINUE.len() => {}
                        _ => return StepOutcome::Close,
                    },
                    Ok(None) => {}
                    Err(error) => reject(conn, error, shared, io_timeout),
                }
            }
            ConnState::InFlight => return StepOutcome::Keep,
            ConnState::Writing(out) => {
                match out.write_to(&mut conn.stream) {
                    Ok(0) => return StepOutcome::Close,
                    Ok(_) => {
                        if out.is_done() {
                            // Half-close then drain: closing with unread
                            // bytes in our receive queue would RST the
                            // response out from under the peer.
                            let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                            conn.state = ConnState::Draining { seen: 0 };
                            conn.deadline = Some(Instant::now() + DRAIN_WINDOW);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        return StepOutcome::Keep
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return StepOutcome::Close,
                }
            }
            ConnState::Draining { seen } => match conn.stream.read(&mut buf) {
                Ok(0) => return StepOutcome::Close, // clean EOF: all done
                Ok(n) => {
                    *seen += n;
                    if *seen >= DRAIN_CAP_BYTES {
                        return StepOutcome::Close;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Empty receive queue + fully-consumed request means
                    // a close here sends FIN, not RST: done. Only early
                    // responses (rejects on partial requests) keep
                    // waiting for the peer's EOF — and under churn that
                    // matters: draining every normal connection held
                    // slots for a full DRAIN_WINDOW and filled the slab.
                    if conn.request_complete {
                        return StepOutcome::Close;
                    }
                    return StepOutcome::Keep;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return StepOutcome::Close,
            },
        }
    }
}

/// A full request arrived: queue it, or shed with a 503 written through
/// the normal nonblocking path (a shed peer that never reads can no
/// longer delay anyone — it just occupies its own slot until the
/// deadline sweep). With no pool (the shutdown grace window) everything
/// sheds.
fn dispatch(
    conn: &mut Conn,
    request: Request,
    shared: &Shared,
    pool: Option<&WorkerPool<Job>>,
    io_timeout: Duration,
) {
    // The parser returned a complete request, so the peer has nothing
    // left unread on this socket: the eventual close can skip the
    // EOF-drain wait (see `Conn::request_complete`).
    conn.request_complete = true;
    let Some(pool) = pool else {
        shed(conn, shared, io_timeout);
        return;
    };
    // Cheap requests — healthz, clean cache hits on small bodies —
    // answer straight from the IO thread: no queue slot, no worker
    // hand-off, and liveness stays answerable under a saturated queue.
    // A body the probe parsed but could not answer travels with the job.
    let prepared = match router::fast_path(shared, &request) {
        Ok(answer) => {
            let out = answered(shared, conn.accepted, Some(&request), answer, None);
            conn.start_writing(out, io_timeout);
            return;
        }
        Err(prepared) => prepared,
    };
    // Gauge before queue: the worker's matching `queue_exit` can run
    // the instant `try_submit` succeeds, and decrementing a gauge that
    // was never incremented would wrap it to 2^64. On refusal the
    // increment is taken straight back.
    shared.metrics.queue_enter();
    let job = Job {
        token: conn.token,
        request,
        prepared,
        accepted: conn.accepted,
        submitted: Instant::now(),
    };
    match pool.try_submit(job) {
        Ok(()) => {
            conn.state = ConnState::InFlight;
            conn.deadline = None;
        }
        Err(_refused) => {
            shared.metrics.queue_exit();
            shed(conn, shared, io_timeout);
        }
    }
}

/// Answers 503 without touching the latency histogram — a fabricated
/// sub-µs sample would drag p50/p99 down exactly when the operator
/// needs them real. Still one access-log line, marked `queued=false`.
fn shed(conn: &mut Conn, shared: &Shared, io_timeout: Duration) {
    shared.metrics.observe_shed();
    let request_id = shared.next_request_id();
    shared.log_access(|| AccessRecord::shed(request_id));
    let response = Response::error(503, "server is at capacity, retry later");
    conn.start_writing(http::serialize_response(response), io_timeout);
}

/// A request that never parsed: answer its 4xx (with request id,
/// metrics, and an unqueued access-log line) and move on to writing it
/// out.
fn reject(conn: &mut Conn, error: HttpError, shared: &Shared, io_timeout: Duration) {
    let Some(response) = error.into_response() else {
        // Io errors never come out of the parser; be safe anyway.
        conn.deadline = Some(Instant::now());
        return;
    };
    let info = RequestInfo::new(shared.next_request_id());
    let response = response.with_header("X-Request-Id", info.request_id.clone());
    let out = answered(shared, conn.accepted, None, (response, info), None);
    conn.start_writing(out, io_timeout);
}

/// The worker side: route the request (panics caught and answered as
/// 500 — a hostile request must never take a worker down), record
/// metrics and the access line, and hand the serialized bytes back to
/// the loop.
fn handle_job(shared: &Shared, completions: &Completions, job: Job) {
    shared.metrics.queue_exit();
    let queue_wait_us = job.submitted.elapsed().as_micros() as u64;
    let request = job.request;
    let prepared = job.prepared;
    let answer = match catch_unwind(AssertUnwindSafe(|| {
        router::handle(shared, &request, prepared)
    })) {
        Ok(answer) => answer,
        Err(_) => {
            shared.metrics.observe_panic();
            let info = RequestInfo::new(shared.next_request_id());
            let response = Response::error(500, "internal error while handling the request")
                .with_header("X-Request-Id", info.request_id.clone());
            (response, info)
        }
    };
    let queued = Some(queue_wait_us);
    let out = answered(shared, job.accepted, Some(&request), answer, queued);
    completions.push(job.token, out);
}

/// Records one answered request — latency from accept to response ready
/// (what a client experiences) and its access-log line — and serializes
/// it. `request` is `None` if it never parsed, `queue_wait_us` if it
/// never took a worker-queue slot.
fn answered(
    shared: &Shared,
    accepted: Instant,
    request: Option<&Request>,
    (response, info): (Response, RequestInfo),
    queue_wait_us: Option<u64>,
) -> Outgoing {
    let elapsed = accepted.elapsed();
    let status = response.status;
    shared.metrics.observe_request(status, elapsed);
    shared.metrics.observe_endpoint(info.endpoint, elapsed);
    let (method, path) = request.map_or(("-", "-"), |r| (&r.method, &r.path));
    shared.log_access(|| AccessRecord::new(info, method, path, status, queue_wait_us));
    http::serialize_response(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip_and_generations_isolate_slots() {
        let token = Token { idx: 7, gen: 42 };
        assert_eq!(Token::unpack(token.pack()), token);
        assert_ne!(Token { idx: 7, gen: 43 }.pack(), token.pack());
        assert_ne!(LISTENER, WAKER);
        // The sentinel tokens can never collide with a slab token: a
        // slab would need 2^32 - 1 slots for idx to reach them.
        assert_eq!(Token::unpack(LISTENER).idx, u32::MAX);
    }

    #[test]
    fn the_slab_caps_reuses_and_generation_checks() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let make_conn = |token: Token| {
            let stream = std::net::TcpStream::connect(addr).expect("connect");
            Conn {
                stream,
                token,
                state: ConnState::InFlight,
                deadline: None,
                accepted: Instant::now(),
                registered: None,
                request_complete: false,
            }
        };
        let mut slab = Slab::new(2);
        let a = slab.insert(make_conn).expect("slot a");
        let b = slab.insert(make_conn).expect("slot b");
        assert!(slab.insert(make_conn).is_none(), "cap of 2 must refuse");
        assert_eq!(slab.live(), 2);
        slab.remove(a);
        assert!(slab.get_mut(a).is_none(), "stale token must miss");
        let c = slab.insert(make_conn).expect("slot frees up");
        assert_eq!(c.idx, a.idx, "slots are reused");
        assert_ne!(c.gen, a.gen, "generation must advance on reuse");
        assert!(
            slab.get_mut(a).is_none(),
            "old token misses the reused slot"
        );
        assert!(slab.get_mut(c).is_some());
        assert!(slab.get_mut(b).is_some());
    }

    #[test]
    fn deadlines_expire_and_order_the_wait() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let now = Instant::now();
        let mut slab = Slab::new(8);
        let make = |deadline: Option<Instant>| {
            move |token: Token| Conn {
                stream: std::net::TcpStream::connect(addr).expect("connect"),
                token,
                state: ConnState::InFlight,
                deadline,
                accepted: now,
                registered: None,
                request_complete: false,
            }
        };
        let overdue = slab
            .insert(make(Some(now - Duration::from_secs(1))))
            .expect("slot");
        let _pending = slab
            .insert(make(Some(now + Duration::from_secs(60))))
            .expect("slot");
        let _untimed = slab.insert(make(None)).expect("slot");
        assert_eq!(slab.expired(now), vec![overdue]);
        assert_eq!(slab.next_deadline(), Some(now - Duration::from_secs(1)));
        slab.remove(overdue);
        assert_eq!(slab.expired(now), Vec::new());
        assert_eq!(slab.next_deadline(), Some(now + Duration::from_secs(60)));
    }
}
