//! Wire-robustness suite: every malformed or abusive byte sequence a peer
//! can send must come back as a typed 4xx over the real socket — the
//! workers never panic, and the server keeps serving afterwards.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

use ars_core::manager::SessionManager;
use ars_serve::client;
use ars_serve::server::FleetServer;

/// Sends raw bytes over one connection and returns the status code the
/// server answered with (0 if the server closed without a response —
/// which the suite treats as a failure).
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // A server that rejects an oversized request answers and closes
    // without reading the rest of the upload, so the write may fail with a
    // broken pipe or reset. Its answer is still readable below.
    if let Err(err) = stream.write_all(bytes) {
        assert!(
            matches!(
                err.kind(),
                ErrorKind::BrokenPipe | ErrorKind::ConnectionReset
            ),
            "write: {err}"
        );
    }
    // Half-close so `read_to_string` on the server's byte-at-a-time
    // reader observes EOF instead of waiting out the read timeout.
    stream.shutdown(std::net::Shutdown::Write).ok();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).ok();
    let text = String::from_utf8_lossy(&raw);
    text.strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|code| code.parse().ok())
        .unwrap_or(0)
}

#[test]
fn malformed_wire_input_is_a_typed_4xx_never_a_panic() {
    let handle = FleetServer::new(SessionManager::new())
        .spawn()
        .expect("spawn");
    let addr = handle.addr();

    let cases: &[(&str, &[u8], u16)] = &[
        ("empty request", b"", 400),
        ("garbage line", b"\x00\x01\x02\x03\r\n\r\n", 400),
        ("missing version", b"GET /health\r\n\r\n", 400),
        ("wrong protocol", b"GET /health GOPHER/7\r\n\r\n", 400),
        // The parser tolerates bare-LF line endings (lenient per RFC 9112
        // §2.2), so this is a well-formed health probe.
        ("bare newline line ending", b"GET /health HTTP/1.1\n\n", 200),
        (
            "non-numeric content-length",
            b"POST /restore HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
            400,
        ),
        (
            "conflicting content-lengths",
            b"POST /restore HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\nhi",
            400,
        ),
        (
            "chunked transfer encoding",
            b"POST /restore HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n",
            400,
        ),
        (
            "body shorter than content-length",
            b"POST /restore HTTP/1.1\r\ncontent-length: 64\r\n\r\n{}",
            400,
        ),
        (
            "header without a colon",
            b"GET /health HTTP/1.1\r\nbroken header\r\n\r\n",
            400,
        ),
        (
            "invalid percent escape in path",
            b"GET /tenants/%zz/query HTTP/1.1\r\n\r\n",
            400,
        ),
        (
            "oversized request line",
            &{
                let mut line = b"GET /".to_vec();
                line.extend(vec![b'a'; 32 * 1024]);
                line.extend_from_slice(b" HTTP/1.1\r\n\r\n");
                line
            }[..],
            413,
        ),
        (
            // Far more than the loopback socket buffers hold (a few MiB):
            // the server answers 413 and closes while the client is still
            // writing.
            "16 MiB request line",
            &{
                let mut line = b"GET /".to_vec();
                line.extend(vec![b'a'; 16 * 1024 * 1024]);
                line.extend_from_slice(b" HTTP/1.1\r\n\r\n");
                line
            }[..],
            413,
        ),
        (
            "oversized header block",
            &{
                let mut req = b"GET /health HTTP/1.1\r\n".to_vec();
                for i in 0..128 {
                    req.extend_from_slice(format!("x-pad-{i}: {}\r\n", "y".repeat(512)).as_bytes());
                }
                req.extend_from_slice(b"\r\n");
                req
            }[..],
            413,
        ),
        (
            "oversized body",
            &{
                let body = "z".repeat(2 * 1024 * 1024);
                let mut req = format!(
                    "POST /restore HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes();
                req.extend_from_slice(body.as_bytes());
                req
            }[..],
            413,
        ),
    ];

    for (label, bytes, expected) in cases {
        let status = raw_exchange(addr, bytes);
        assert_eq!(status, *expected, "case: {label}");
    }

    // Malformed JSON in an otherwise well-formed request is an
    // application-level 400 with the typed error envelope.
    let (status, body) = client::request(addr, "POST", "/tenants/edge", "{not json").unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\":\"wire\""), "{body}");
    let (status, body) = client::request(addr, "POST", "/restore", "[1,2,3]").unwrap();
    assert_eq!(status, 400, "{body}");

    // After the whole gauntlet the server still serves normal traffic.
    let (status, body) = client::request(addr, "GET", "/health", "").unwrap();
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}

#[test]
fn tenant_listing_enumerates_the_fleet_in_sorted_order() {
    let handle = FleetServer::new(SessionManager::new())
        .spawn()
        .expect("spawn");
    let addr = handle.addr();

    // Empty fleet: a well-formed empty roster, and only GET is allowed.
    let (status, body) = client::request(addr, "GET", "/tenants", "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, r#"{"count":0,"tenants":[]}"#);
    let (status, _) = client::request(addr, "DELETE", "/tenants", "").unwrap();
    assert_eq!(status, 405);

    for name in ["zeta", "alpha", "mid tier"] {
        let (status, body) = client::request(
            addr,
            "POST",
            &format!("/tenants/{}", client::encode_segment(name)),
            r#"{"problem":"f0","epsilon":0.25}"#,
        )
        .unwrap();
        assert_eq!(status, 201, "{body}");
    }

    let (status, body) = client::request(addr, "GET", "/tenants", "").unwrap();
    assert_eq!(status, 200, "{body}");
    // The manager stores tenants in a BTreeMap, so the roster is sorted —
    // and names that needed percent-encoding on the path come back raw.
    assert_eq!(body, r#"{"count":3,"tenants":["alpha","mid tier","zeta"]}"#);
    handle.shutdown();
}

#[test]
fn sequential_connection_churn_does_not_wedge_the_pool() {
    let handle = FleetServer::new(SessionManager::new())
        .spawn()
        .expect("spawn");
    let addr = handle.addr();

    let (status, _) = client::request(
        addr,
        "POST",
        "/tenants/churn",
        r#"{"problem":"f0","epsilon":0.25}"#,
    )
    .unwrap();
    assert_eq!(status, 201);

    for i in 0..50 {
        // Interleave good requests, bad requests, and connections that
        // hang up without sending anything.
        match i % 3 {
            0 => {
                let (status, body) =
                    client::request(addr, "GET", "/tenants/churn/query", "").unwrap();
                assert_eq!(status, 200, "iteration {i}: {body}");
            }
            1 => {
                let status = raw_exchange(addr, b"BOGUS\r\n\r\n");
                assert_eq!(status, 400, "iteration {i}");
            }
            _ => {
                drop(TcpStream::connect(addr).expect("connect"));
            }
        }
    }

    let (status, body) = client::request(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("ars_http_requests_total"), "{body}");
    handle.shutdown();
}
