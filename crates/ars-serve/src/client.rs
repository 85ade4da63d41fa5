//! A minimal blocking HTTP/1.1 client for tests, examples and benches.
//!
//! Speaks exactly the dialect [`crate::server::FleetServer`] serves —
//! persistent connections and `Content-Length` framing — so the e2e
//! tests exercise the real socket path without an external HTTP tool.
//!
//! Each thread keeps at most one idle connection, to the server it last
//! talked to, and [`request`] reuses it when it targets the same
//! address. Talking to another server closes the idle one, so the cache
//! never grows with the number of servers a thread has used. A response
//! is read by its `Content-Length`, and the connection is kept only when
//! the response says `connection: keep-alive`.
//!
//! A reused connection may have been closed by the server while it sat
//! idle (its read timeout, or a shutdown). When a reused connection
//! returns no response byte at all, [`request`] retries once on a fresh
//! connection. That is safe because the server closes a kept-alive
//! connection only while it is idle, never after reading part of a
//! request. An error on a fresh connection is returned as is.

use std::cell::RefCell;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One open connection and the buffered reader over it.
struct Connection {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
}

thread_local! {
    /// This thread's idle connection, if the last response left one open.
    static IDLE: RefCell<Option<Connection>> = const { RefCell::new(None) };
}

/// How one exchange on a connection failed.
enum Failure {
    /// No response byte arrived: the server may have closed the idle
    /// connection before reading the request.
    NoResponse(io::Error),
    /// The exchange failed after the response had begun.
    Broken(io::Error),
}

/// Sends one request and returns `(status, body)`. A non-empty `body`
/// is framed with `Content-Length`; the response is read by its
/// `Content-Length`, and the connection is kept for the thread's next
/// request unless the server said `connection: close`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body.as_bytes());

    let idle = IDLE
        .with(|idle| idle.borrow_mut().take())
        .filter(|conn| conn.addr == addr);
    if let Some(conn) = idle {
        match exchange(conn, &wire) {
            Ok(answer) => return Ok(answer),
            Err(Failure::NoResponse(_)) => {}
            Err(Failure::Broken(err)) => return Err(err),
        }
    }
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let conn = Connection {
        addr,
        reader: BufReader::new(stream),
    };
    exchange(conn, &wire).map_err(|(Failure::NoResponse(err) | Failure::Broken(err))| err)
}

/// Writes `wire` on `conn`, reads one response, and parks `conn` as the
/// thread's idle connection if the server keeps it open.
fn exchange(mut conn: Connection, wire: &[u8]) -> Result<(u16, String), Failure> {
    conn.reader
        .get_mut()
        .write_all(wire)
        .map_err(Failure::NoResponse)?;
    match conn.reader.fill_buf() {
        Ok([]) => {
            return Err(Failure::NoResponse(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the response",
            )))
        }
        Ok(_) => {}
        Err(err) => return Err(Failure::NoResponse(err)),
    }
    let (status, body, keep_alive) = read_response(&mut conn.reader).map_err(Failure::Broken)?;
    if keep_alive {
        IDLE.with(|idle| *idle.borrow_mut() = Some(conn));
    }
    Ok((status, body))
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed response: {what}"),
    )
}

/// Reads one response: `(status, body, whether the connection stays
/// open)`. The server always frames with `Content-Length` and states
/// `connection`; a response without a length is malformed.
fn read_response<R: BufRead>(reader: &mut R) -> io::Result<(u16, String, bool)> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| malformed("status line"))?;
    let mut length: Option<usize> = None;
    let mut keep_alive = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(malformed("headers end before a blank line"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) = header.split_once(':').ok_or_else(|| malformed("header"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse().map_err(|_| malformed("content-length"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = value.eq_ignore_ascii_case("keep-alive");
        }
    }
    let length = length.ok_or_else(|| malformed("no content-length"))?;
    // The body grows as bytes arrive: a length header alone allocates
    // nothing.
    let mut body = Vec::new();
    reader.take(length as u64).read_to_end(&mut body)?;
    if body.len() < length {
        return Err(malformed("body shorter than content-length"));
    }
    let body = String::from_utf8(body).map_err(|_| malformed("body is not UTF-8"))?;
    Ok((status, body, keep_alive))
}

/// Percent-encodes a tenant name for use as one path segment: everything
/// outside RFC 3986 unreserved characters is `%XX`-escaped.
#[must_use]
pub fn encode_segment(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for byte in name.as_bytes() {
        match byte {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(*byte as char);
            }
            _ => out.push_str(&format!("%{byte:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Option<(u16, String, bool)> {
        read_response(&mut raw.as_bytes()).ok()
    }

    #[test]
    fn response_parsing_extracts_status_and_body() {
        let raw = "HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\n\r\nno";
        assert_eq!(parse(raw), Some((404, "no".to_string(), false)));
        assert_eq!(parse("garbage"), None);
        // The body stops at content-length: the rest is the next response.
        let mut two = "HTTP/1.1 200 OK\r\ncontent-length: 1\r\nconnection: keep-alive\r\n\r\na\
                       HTTP/1.1 201 Created\r\ncontent-length: 1\r\nconnection: close\r\n\r\nb"
            .as_bytes();
        assert_eq!(
            read_response(&mut two).unwrap(),
            (200, "a".to_string(), true)
        );
        assert_eq!(
            read_response(&mut two).unwrap(),
            (201, "b".to_string(), false)
        );
        // No content-length: this client cannot frame the body.
        assert_eq!(parse("HTTP/1.1 200 OK\r\n\r\nrest"), None);
        // A body cut short is an error, not a short reading.
        assert_eq!(
            parse("HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\nab"),
            None
        );
    }

    #[test]
    fn segment_encoding_round_trips_through_the_server_decoder() {
        let name = "edge \"eu\"/β tier";
        let encoded = encode_segment(name);
        assert!(!encoded.contains(' '), "{encoded}");
        assert!(!encoded.contains('/'), "{encoded}");
        assert_eq!(crate::http::percent_decode(&encoded).unwrap(), name);
    }
}
