//! Hand-rolled HTTP/1.1 wire handling: bounded request parsing and
//! response writing over any `Read`/`Write` pair.
//!
//! The build environment vendors no HTTP crate, and the serving surface
//! needs only a small, strict subset of RFC 9112: persistent connections
//! (HTTP/1.1's default; [`Request::keep_alive`] says whether the peer
//! asked for one), `Content-Length` bodies only (no chunked transfer),
//! and hard limits on every dimension an unauthenticated peer controls —
//! request-line length, header count and bytes, body size. Anything
//! outside the subset is a typed [`HttpError`] that the server maps to a
//! 4xx response; nothing in this module panics on attacker-controlled
//! input.
//!
//! [`read_request_from`] parses one request from a `BufRead` and reads
//! no byte past it, so a server can keep one buffered reader for the
//! whole life of a connection and parse request after request from it.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};

/// Hard limits on attacker-controlled request dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum request-line bytes (method + target + version).
    pub max_request_line: usize,
    /// Maximum total header bytes.
    pub max_header_bytes: usize,
    /// Maximum number of header fields.
    pub max_headers: usize,
    /// Maximum body bytes (`Content-Length` above this is refused with
    /// 413 before any body byte is read).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_request_line: 8 * 1024,
            max_header_bytes: 16 * 1024,
            max_headers: 64,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// A wire-level request defect, carrying the HTTP status it maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request is malformed (400).
    BadRequest(String),
    /// The request exceeds a [`Limits`] bound (413).
    PayloadTooLarge(String),
}

impl HttpError {
    /// The response status code for this defect.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            Self::BadRequest(_) => 400,
            Self::PayloadTooLarge(_) => 413,
        }
    }

    /// The human-readable reason.
    #[must_use]
    pub fn reason(&self) -> &str {
        match self {
            Self::BadRequest(reason) | Self::PayloadTooLarge(reason) => reason,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status(), self.reason())
    }
}

impl std::error::Error for HttpError {}

/// A parsed request: method, percent-decoded path segments, and the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// The raw request target (path + optional query), as received.
    pub target: String,
    /// The path's `/`-separated segments, percent-decoded. Empty segments
    /// are dropped, so `/tenants/edge%2Fus/query` parses to
    /// `["tenants", "edge/us", "query"]`.
    pub segments: Vec<String>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: String,
    /// Whether the peer asked to keep the connection open after the
    /// response: an HTTP/1.1 request unless it sent `connection: close`,
    /// an HTTP/1.0 request only if it sent `connection: keep-alive`.
    pub keep_alive: bool,
}

fn bad(reason: impl Into<String>) -> HttpError {
    HttpError::BadRequest(reason.into())
}

fn too_large(reason: impl Into<String>) -> HttpError {
    HttpError::PayloadTooLarge(reason.into())
}

/// Reads one line terminated by `\n` (tolerating a preceding `\r`),
/// refusing lines longer than `limit` and connections that close mid-line.
fn read_line<R: BufRead>(reader: &mut R, limit: usize, what: &str) -> Result<String, HttpError> {
    let mut line = Vec::with_capacity(128);
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                return Err(bad(format!("connection closed mid-{what}")));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
                if line.len() > limit {
                    return Err(too_large(format!("{what} exceeds {limit} bytes")));
                }
            }
            Err(err) => {
                return Err(bad(format!("read error in {what}: {err}")));
            }
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| bad(format!("{what} is not valid UTF-8")))
}

/// Percent-decodes one path segment. `%XX` escapes must be complete and
/// hexadecimal, and the decoded bytes must be valid UTF-8; `+` is left
/// alone (it only encodes a space in query strings, not in paths).
pub fn percent_decode(segment: &str) -> Result<String, HttpError> {
    let bytes = segment.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| bad(format!("truncated percent escape in {segment:?}")))?;
            let hex = std::str::from_utf8(hex)
                .ok()
                .and_then(|h| u8::from_str_radix(h, 16).ok())
                .ok_or_else(|| bad(format!("invalid percent escape in {segment:?}")))?;
            out.push(hex);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| bad(format!("percent-decoded {segment:?} is not UTF-8")))
}

/// Reads and parses one request from `stream`, enforcing `limits`.
///
/// Defects are typed, never panics: a malformed request line, unsupported
/// transfer encoding, bad or missing `Content-Length` framing, a body the
/// peer never delivers, or any limit violation all come back as
/// [`HttpError`]. The reader is dropped afterwards, so bytes buffered past
/// the request are lost; a server that reads several requests from one
/// connection uses [`read_request_from`].
pub fn read_request<R: Read>(stream: R, limits: &Limits) -> Result<Request, HttpError> {
    read_request_from(&mut BufReader::new(stream), limits)
}

/// [`read_request`] on a buffered reader the caller keeps: parses one
/// request and consumes exactly its bytes, leaving the next request's
/// bytes in `reader`.
pub fn read_request_from<R: BufRead>(
    reader: &mut R,
    limits: &Limits,
) -> Result<Request, HttpError> {
    let request_line = read_line(reader, limits.max_request_line, "request line")?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(bad(format!("malformed request line {request_line:?}")));
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("unsupported protocol version {version:?}")));
    }

    let mut header_bytes = 0usize;
    let mut header_count = 0usize;
    let mut content_length: Option<usize> = None;
    let (mut close, mut keep_alive) = (false, false);
    loop {
        let line = read_line(reader, limits.max_header_bytes, "header")?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        header_count += 1;
        if header_bytes > limits.max_header_bytes {
            return Err(too_large(format!(
                "headers exceed {} bytes",
                limits.max_header_bytes
            )));
        }
        if header_count > limits.max_headers {
            return Err(too_large(format!(
                "more than {} header fields",
                limits.max_headers
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(format!("malformed header field {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let parsed: usize = value
                    .parse()
                    .map_err(|_| bad(format!("bad content-length {value:?}")))?;
                if let Some(previous) = content_length {
                    if previous != parsed {
                        return Err(bad("conflicting content-length headers".to_string()));
                    }
                }
                content_length = Some(parsed);
            }
            "transfer-encoding" => {
                return Err(bad("transfer-encoding is not supported; \
                                send a content-length body"
                    .to_string()));
            }
            "connection" => {
                for token in value.split(',').map(str::trim) {
                    close |= token.eq_ignore_ascii_case("close");
                    keep_alive |= token.eq_ignore_ascii_case("keep-alive");
                }
            }
            "expect" => {
                return Err(bad(format!("expect: {value} is not supported")));
            }
            _ => {}
        }
    }

    let body = match content_length {
        None | Some(0) => String::new(),
        Some(len) => {
            if len > limits.max_body_bytes {
                return Err(too_large(format!(
                    "content-length {len} exceeds {} bytes",
                    limits.max_body_bytes
                )));
            }
            let mut buf = vec![0u8; len];
            reader
                .read_exact(&mut buf)
                .map_err(|_| bad(format!("body shorter than content-length {len}")))?;
            String::from_utf8(buf).map_err(|_| bad("body is not valid UTF-8".to_string()))?
        }
    };

    let path = target.split('?').next().unwrap_or("");
    let mut segments = Vec::new();
    for raw in path.split('/') {
        if raw.is_empty() {
            continue;
        }
        segments.push(percent_decode(raw)?);
    }

    Ok(Request {
        method: method.to_string(),
        target: target.to_string(),
        segments,
        body,
        keep_alive: !close && (keep_alive || version != "HTTP/1.0"),
    })
}

/// A response ready to serialize: status, content type, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// The response body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A plain-text response (the `/metrics` exposition format).
    #[must_use]
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.into(),
        }
    }

    /// Serializes the response to `stream` with `connection: close`
    /// framing, for a peer that gets one response on its connection.
    /// Write errors are returned (the peer may have hung up — routine for
    /// a server, not a defect).
    pub fn write_to<W: Write>(&self, stream: &mut W) -> std::io::Result<()> {
        self.write_framed(stream, false)
    }

    /// Serializes head and body in one write, with a `connection` header
    /// that says whether the server keeps the connection open afterwards.
    pub fn write_framed<W: Write>(&self, stream: &mut W, keep_alive: bool) -> std::io::Result<()> {
        let mut wire = String::with_capacity(128 + self.body.len());
        // Formatting into a `String` cannot fail.
        let _ = write!(
            wire,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        wire.push_str(&self.body);
        stream.write_all(wire.as_bytes())?;
        stream.flush()
    }
}

/// The canonical reason phrase for the status codes this server emits.
#[must_use]
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(raw.as_bytes(), &Limits::default())
    }

    #[test]
    fn parses_a_minimal_get() {
        let req = parse("GET /health HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.segments, vec!["health"]);
        assert_eq!(req.body, "");
    }

    #[test]
    fn parses_a_post_with_body_and_percent_escapes() {
        let req = parse(
            "POST /tenants/edge%20%22eu%22/update HTTP/1.1\r\ncontent-length: 20\r\n\r\n\
             {\"item\":1,\"delta\":1}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.segments, vec!["tenants", "edge \"eu\"", "update"]);
        assert_eq!(req.body, "{\"item\":1,\"delta\":1}");
    }

    #[test]
    fn query_strings_are_stripped_from_segments() {
        let req = parse("GET /tenants/a/query?verbose=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.segments, vec!["tenants", "a", "query"]);
        assert_eq!(req.target, "/tenants/a/query?verbose=1");
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for (raw, status) in [
            ("", 400),                              // empty connection
            ("GET\r\n\r\n", 400),                   // no target
            ("GET /x\r\n\r\n", 400),                // no version
            ("GET /x SPDY/3\r\n\r\n", 400),         // wrong protocol
            ("GET /x HTTP/1.1 extra\r\n\r\n", 400), // trailing junk
            ("GET /x HTTP/1.1\r\nbroken header\r\n\r\n", 400),
            ("POST /x HTTP/1.1\r\ncontent-length: ten\r\n\r\n", 400),
            (
                "POST /x HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 6\r\n\r\n",
                400,
            ),
            (
                "POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
                400,
            ),
            ("POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort", 400), // truncated body
            ("GET /tenants/%zz HTTP/1.1\r\n\r\n", 400),                   // bad escape
            ("GET /tenants/%2 HTTP/1.1\r\n\r\n", 400),                    // truncated escape
        ] {
            let err = parse(raw).expect_err(raw);
            assert_eq!(err.status(), status, "{raw:?}: {err}");
        }
    }

    #[test]
    fn limits_map_to_413() {
        let limits = Limits {
            max_request_line: 32,
            max_header_bytes: 64,
            max_headers: 2,
            max_body_bytes: 8,
        };
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64));
        assert_eq!(
            read_request(long_line.as_bytes(), &limits)
                .unwrap_err()
                .status(),
            413
        );
        let many_headers = "GET /x HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n";
        assert_eq!(
            read_request(many_headers.as_bytes(), &limits)
                .unwrap_err()
                .status(),
            413
        );
        let big_body = "POST /x HTTP/1.1\r\ncontent-length: 9\r\n\r\n123456789";
        assert_eq!(
            read_request(big_body.as_bytes(), &limits)
                .unwrap_err()
                .status(),
            413
        );
    }

    #[test]
    fn responses_frame_with_content_length_and_close() {
        let mut out = Vec::new();
        Response::json(201, "{\"ok\":true}")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 201 Created\r\n"), "{text}");
        assert!(text.contains("content-length: 11\r\n"), "{text}");
        assert!(text.contains("connection: close\r\n"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");
    }

    #[test]
    fn keep_alive_follows_the_version_and_the_connection_header() {
        for (raw, keep_alive) in [
            ("GET /x HTTP/1.1\r\n\r\n", true),
            ("GET /x HTTP/1.1\r\nconnection: close\r\n\r\n", false),
            (
                "GET /x HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\n",
                false,
            ),
            ("GET /x HTTP/1.0\r\n\r\n", false),
            ("GET /x HTTP/1.0\r\nconnection: keep-alive\r\n\r\n", true),
            (
                "GET /x HTTP/1.0\r\nconnection: keep-alive, close\r\n\r\n",
                false,
            ),
        ] {
            assert_eq!(parse(raw).unwrap().keep_alive, keep_alive, "{raw:?}");
        }
    }

    #[test]
    fn one_reader_parses_back_to_back_requests_without_over_reading() {
        let raw = "POST /a HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc\
                   GET /b HTTP/1.1\n\n\
                   GET /c HTTP/1.1\r\n\r\n";
        // A one-byte buffer forces every line to span many refills.
        for capacity in [1, 7, 8 * 1024] {
            let mut reader = BufReader::with_capacity(capacity, raw.as_bytes());
            let limits = Limits::default();
            let a = read_request_from(&mut reader, &limits).unwrap();
            assert_eq!(
                (a.segments, a.body),
                (vec!["a".to_string()], "abc".to_string())
            );
            let b = read_request_from(&mut reader, &limits).unwrap();
            assert_eq!(b.segments, vec!["b"]);
            let c = read_request_from(&mut reader, &limits).unwrap();
            assert_eq!(c.segments, vec!["c"]);
            assert!(reader.fill_buf().unwrap().is_empty(), "capacity {capacity}");
        }
    }

    #[test]
    fn framed_responses_say_whether_the_connection_stays_open() {
        for (keep_alive, header) in [
            (true, "connection: keep-alive\r\n"),
            (false, "connection: close\r\n"),
        ] {
            let mut out = Vec::new();
            Response::json(200, "{}")
                .write_framed(&mut out, keep_alive)
                .unwrap();
            let text = String::from_utf8(out).unwrap();
            assert!(text.contains(header), "{text}");
            assert!(text.ends_with("\r\n\r\n{}"), "{text}");
        }
    }
}
