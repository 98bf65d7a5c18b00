//! A minimal HTTP/1.1 client that times one call the way a user sees it:
//! one connection per call (the server answers `Connection: close`),
//! timed from connect to the last response byte.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One finished call.
pub struct Exchange {
    pub status: u16,
    pub body: Vec<u8>,
    /// Connect until the last response byte.
    pub latency: Duration,
    /// Last request byte written until the first response byte read.
    pub ttfb: Duration,
    /// Request bytes sent, head included.
    pub bytes_in: usize,
    /// Response bytes received, head included.
    pub bytes_out: usize,
}

pub fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    request_id: &str,
    body: &[u8],
) -> io::Result<Exchange> {
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nX-Request-Id: {request_id}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);

    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.write_all(&request)?;
    let sent = Instant::now();
    let mut response = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let first = stream.read(&mut chunk)?;
    let ttfb = sent.elapsed();
    response.extend_from_slice(&chunk[..first]);
    if first > 0 {
        stream.read_to_end(&mut response)?;
    }
    let latency = start.elapsed();

    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no response head"))?;
    let head = String::from_utf8_lossy(&response[..head_end]);
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let content_length = head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse::<usize>().ok())?
    });
    let body = response[head_end + 4..].to_vec();
    if content_length != Some(body.len()) {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "response body shorter than its Content-Length",
        ));
    }
    Ok(Exchange {
        status,
        body,
        latency,
        ttfb,
        bytes_in: request.len(),
        bytes_out: response.len(),
    })
}
