//! The program under test as child processes: `fdrepair serve` behind a
//! handle that always kills and reaps it, and timed one-shot CLI runs
//! whose peak RSS and CPU time come from `wait4` when they exit.

use crate::http;
use crate::util::proc_status_kb;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// A running `fdrepair serve`. Dropping the handle kills the process
/// and waits for it, on every path out of a run, failures included.
pub struct Server {
    child: Child,
    /// Held open until the process is gone: the server prints its route
    /// table after the address line, and a closed pipe would kill it.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server on a free loopback port with `threads` workers
    /// and every other setting at its default, the access log going to
    /// `log`. Returns once `/healthz` answers 200.
    pub fn start(fdrepair: &Path, log: &Path, threads: usize) -> io::Result<Server> {
        let mut child = Command::new(fdrepair)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads"])
            .arg(threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(File::create(log)?)
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        // Hand the child to the handle before anything else can fail, so
        // that it is reaped on every error below.
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        server.addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("no address in {line:?}"),
                )
            })?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match http::call(server.addr, "GET", "/healthz", "healthz", b"") {
                Ok(x) if x.status == 200 => return Ok(server),
                _ if Instant::now() > deadline => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "/healthz never answered",
                    ))
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// The server's peak RSS so far, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        proc_status_kb(&self.child.id().to_string(), "VmHWM").map(|kb| kb as f64 / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One finished CLI invocation.
pub struct CliRun {
    pub status: ExitStatus,
    /// Spawn until exit.
    pub wall: Duration,
    /// User plus system CPU time of the process.
    pub cpu: Duration,
    /// The process's `VmHWM` when it exited, in MB.
    pub peak_rss_mb: f64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
/// which `ru_maxrss` (kB, the exited process's `VmHWM`) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `child` with `wait4`, which also returns its peak RSS and CPU
/// time: exact figures, with no sampler running beside the child.
fn reap(child: &Child) -> io::Result<(ExitStatus, Rusage)> {
    let pid = child.id() as i32;
    let mut status = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: both pointers are to live locals of the layout wait4
        // writes, and `pid` is a child of this process not yet reaped.
        if unsafe { wait4(pid, &mut status, 0, &mut usage) } == pid {
            return Ok((ExitStatus::from_raw(status), usage));
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Runs `fdrepair <args>` with stdout written to `stdout` and waits for
/// it to exit.
pub fn run_cli(fdrepair: &Path, args: &[&str], stdout: &Path) -> io::Result<CliRun> {
    let out = File::create(stdout)?;
    let start = Instant::now();
    let child = Command::new(fdrepair)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::null())
        .spawn()?;
    let (status, usage) = reap(&child)?;
    let wall = start.elapsed();
    let time = |t: [i64; 2]| Duration::new(t[0] as u64, t[1] as u32 * 1000);
    Ok(CliRun {
        status,
        wall,
        cpu: time(usage.utime) + time(usage.stime),
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}
