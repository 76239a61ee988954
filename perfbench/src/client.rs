//! A minimal HTTP/1.1 keep-alive client for the load generator.
//!
//! One [`Conn`] is one client connection. It sends one request at a
//! time (closed loop) and reconnects transparently before the next
//! request when the server ended the previous connection — by
//! `connection: close` on its final response (the server's
//! per-connection request cap) or by closing the socket. A request that
//! fails is returned as an error and never retried, so failures stay
//! visible to the caller.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// The server will close the connection after this response.
    pub close: bool,
}

/// A keep-alive client connection that reconnects when the server
/// closes it.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    live: Option<(TcpStream, BufReader<TcpStream>)>,
    connects: u64,
}

impl Conn {
    /// A connection to `addr`, opened lazily by the first request.
    pub fn new(addr: SocketAddr) -> Self {
        Conn { addr, live: None, connects: 0 }
    }

    /// TCP connections opened so far.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// Connect, write, read or framing failures. The connection is
    /// dropped on any error, so the next request starts a fresh one.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let result = self.exchange(method, path, body);
        match &result {
            Ok(reply) if !reply.close => {}
            _ => self.live = None,
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        if self.live.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
            self.live = Some((stream, reader));
            self.connects += 1;
        }
        let (stream, reader) = self.live.as_mut().expect("connected above");
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        stream.write_all(&req)?;
        read_reply(reader)
    }
}

/// Reads one `content-length`-framed response.
///
/// # Errors
///
/// EOF before a full response, or a malformed status line or header.
pub fn read_reply<R: BufRead>(reader: &mut R) -> io::Result<Reply> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut len = None;
    let mut close = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed inside headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) = header.split_once(':').ok_or_else(|| bad("malformed header"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            len = Some(value.parse::<usize>().map_err(|_| bad("bad content-length"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let len = len.ok_or_else(|| bad("response without content-length"))?;
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(Reply { status, body, close })
}
