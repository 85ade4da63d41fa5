//! Wire-robustness suite: every malformed or abusive byte sequence a peer
//! can send must come back as a typed 4xx over the real socket — the
//! workers never panic, and the server keeps serving afterwards — and
//! persistent connections follow their close rules: framing across
//! requests, `connection: close` and HTTP/1.0, a close after every wire
//! error, the keep-alive slot limit, shutdown and the client's retry.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ars_core::manager::SessionManager;
use ars_serve::client;
use ars_serve::server::{FleetServer, ServerConfig};

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
    // Half-close so the server reads EOF after its answer and closes,
    // instead of keeping the connection open for a next request.
    stream.shutdown(Shutdown::Write).ok();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).ok();
    status_of(&raw)
}

/// The status code at the head of a raw response, 0 if there is none.
fn status_of(raw: &[u8]) -> u16 {
    String::from_utf8_lossy(raw)
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|code| code.parse().ok())
        .unwrap_or(0)
}

/// Reads exactly one response off `reader` by its `content-length`:
/// `(status, the connection header, body)`.
fn read_framed(reader: &mut impl BufRead) -> (u16, String, String) {
    let mut head = String::new();
    let mut line = String::new();
    while line != "\r\n" {
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0, "EOF in {head:?}");
        head.push_str(&line);
    }
    let header = |name: &str| {
        head.lines()
            .find_map(|l| l.strip_prefix(name))
            .unwrap_or_else(|| panic!("no {name} in {head:?}"))
            .to_string()
    };
    let length: usize = header("content-length: ").parse().unwrap();
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).unwrap();
    (
        status_of(head.as_bytes()),
        header("connection: "),
        String::from_utf8(body).unwrap(),
    )
}

/// A connected socket with a read timeout, so a server that forgets to
/// close fails the test instead of hanging it.
fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    BufReader::new(stream)
}

/// Reads to EOF and returns everything, asserting the server closed the
/// connection rather than the read timing out.
fn read_until_closed(reader: &mut BufReader<TcpStream>) -> Vec<u8> {
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => {}
        // A close with request bytes still unread resets the connection;
        // the response that came before the reset is in `rest`.
        Err(err) if err.kind() == ErrorKind::ConnectionReset => {}
        Err(err) => panic!("the server did not close the connection: {err}"),
    }
    rest
}

/// A server with `workers` workers and the given idle `read_timeout`.
fn server_with(workers: usize, read_timeout: Duration) -> ars_serve::ServerHandle {
    FleetServer::with_config(
        SessionManager::new(),
        ServerConfig {
            workers,
            read_timeout,
            ..ServerConfig::default()
        },
    )
    .spawn()
    .expect("spawn")
}

/// Every malformed or abusive request the gauntlet fires, with the
/// status it must get.
fn gauntlet() -> Vec<(&'static str, Vec<u8>, u16)> {
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

    cases
        .iter()
        .map(|(label, bytes, status)| (*label, bytes.to_vec(), *status))
        .collect()
}

#[test]
fn malformed_wire_input_is_a_typed_4xx_never_a_panic() {
    let handle = FleetServer::new(SessionManager::new())
        .spawn()
        .expect("spawn");
    let addr = handle.addr();

    for (label, bytes, expected) in gauntlet() {
        let status = raw_exchange(addr, &bytes);
        assert_eq!(status, expected, "case: {label}");
    }

    // Malformed JSON in an otherwise well-formed request is an
    // application-level 400 with the typed error envelope.
    let (status, body) = client::request(addr, "POST", "/tenants/edge", "{not json").unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\":\"wire\""), "{body}");
    let (status, body) = client::request(addr, "POST", "/restore", "[1,2,3]").unwrap();
    assert_eq!(status, 400, "{body}");

    // A spec that parses but whose p is below the p-stable floor is a
    // typed build error, refused before anything is built under the fleet
    // lock.
    for spec in [
        r#"{"problem":"fp","epsilon":0.3,"p":0.001}"#,
        r#"{"problem":"turnstile-fp","epsilon":0.3,"p":0.001,"lambda":8}"#,
    ] {
        let (status, body) = client::request(addr, "POST", "/tenants/tiny-p", spec).unwrap();
        assert_eq!(status, 400, "{spec}: {body}");
        assert!(body.contains("\"kind\":\"build\""), "{spec}: {body}");
    }

    // After the whole gauntlet the server still serves normal traffic.
    let (status, body) = client::request(addr, "GET", "/health", "").unwrap();
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}

#[test]
fn a_malformed_pair_list_is_a_wire_error_in_updates_and_snapshots() {
    // Update batches and snapshot frequency state share one pair-list
    // codec, so one malformed list fails the same way in both bodies.
    let handle = FleetServer::new(SessionManager::new())
        .spawn()
        .expect("spawn");
    let addr = handle.addr();
    let spec = r#"{"problem":"f0","epsilon":0.25}"#;
    let (status, body) = client::request(addr, "POST", "/tenants/edge", spec).unwrap();
    assert_eq!(status, 201, "{body}");

    for pairs in ["{}", "[[1]]", r#"[[1,"a"]]"#] {
        let update = format!(r#"{{"updates":{pairs}}}"#);
        let snapshot = format!(
            r#"{{"version":1,"tenants":[{{"name":"edge","spec":{spec},"lambda":4,"frequency":{pairs}}}]}}"#
        );
        for (path, body) in [("/tenants/edge/update", update), ("/restore", snapshot)] {
            let (status, response) = client::request(addr, "POST", path, &body).unwrap();
            assert_eq!(status, 400, "{path} with {pairs}: {response}");
            assert!(
                response.contains("\"kind\":\"wire\""),
                "{path} with {pairs}: {response}"
            );
        }
    }
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

#[test]
fn one_connection_carries_several_correctly_framed_responses() {
    let handle = server_with(4, Duration::from_secs(10));
    let mut conn = connect(handle.addr());

    conn.get_mut()
        .write_all(b"GET /health HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    let (status, connection, body) = read_framed(&mut conn);
    assert_eq!((status, connection.as_str()), (200, "keep-alive"), "{body}");
    assert!(body.starts_with("{\"status\":\"ok\""), "{body}");

    // Two more requests in one write: the server's reader keeps the
    // second one's bytes while it answers the first.
    conn.get_mut()
        .write_all(
            b"GET /tenants HTTP/1.1\r\n\r\n\
              POST /tenants/edge HTTP/1.1\r\ncontent-length: 31\r\n\r\n\
              {\"problem\":\"f0\",\"epsilon\":0.25}",
        )
        .unwrap();
    let (status, connection, body) = read_framed(&mut conn);
    assert_eq!((status, connection.as_str()), (200, "keep-alive"));
    assert_eq!(body, r#"{"count":0,"tenants":[]}"#);
    let (status, connection, body) = read_framed(&mut conn);
    assert_eq!((status, connection.as_str()), (201, "keep-alive"), "{body}");

    // EOF between two requests closes the connection silently.
    conn.get_mut().shutdown(Shutdown::Write).unwrap();
    assert!(read_until_closed(&mut conn).is_empty());

    let (_, metrics) = client::request(handle.addr(), "GET", "/metrics", "").unwrap();
    assert!(
        metrics.contains("ars_http_connections_total 2\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("ars_http_requests_total{route=\"/tenants\"} 1\n"),
        "{metrics}"
    );
    handle.shutdown();
}

#[test]
fn close_requests_and_http_1_0_are_answered_once_then_closed() {
    let handle = server_with(4, Duration::from_secs(10));
    for request in [
        &b"GET /health HTTP/1.1\r\nconnection: close\r\n\r\n"[..],
        b"GET /health HTTP/1.0\r\n\r\n",
        b"GET /health HTTP/1.0\r\nconnection: keep-alive, close\r\n\r\n",
    ] {
        let label = String::from_utf8_lossy(request).into_owned();
        let mut conn = connect(handle.addr());
        conn.get_mut().write_all(request).unwrap();
        let (status, connection, _) = read_framed(&mut conn);
        assert_eq!((status, connection.as_str()), (200, "close"), "{label}");
        let started = Instant::now();
        assert!(read_until_closed(&mut conn).is_empty(), "{label}");
        assert!(started.elapsed() < Duration::from_secs(2), "{label}");
    }

    // An HTTP/1.0 peer that asks for keep-alive gets it.
    let mut conn = connect(handle.addr());
    for _ in 0..2 {
        conn.get_mut()
            .write_all(b"GET /health HTTP/1.0\r\nconnection: keep-alive\r\n\r\n")
            .unwrap();
        let (status, connection, _) = read_framed(&mut conn);
        assert_eq!((status, connection.as_str()), (200, "keep-alive"));
    }
    handle.shutdown();

    // One worker leaves no keep-alive slot: every response closes.
    let handle = server_with(1, Duration::from_secs(10));
    let mut conn = connect(handle.addr());
    conn.get_mut()
        .write_all(b"GET /health HTTP/1.1\r\n\r\n")
        .unwrap();
    let (status, connection, _) = read_framed(&mut conn);
    assert_eq!((status, connection.as_str()), (200, "close"));
    assert!(read_until_closed(&mut conn).is_empty());
    handle.shutdown();
}

#[test]
fn every_gauntlet_case_as_a_second_request_keeps_its_status_and_closes() {
    let handle = server_with(4, Duration::from_secs(10));
    for (label, bytes, expected) in gauntlet() {
        let mut conn = connect(handle.addr());
        conn.get_mut()
            .write_all(b"GET /health HTTP/1.1\r\n\r\n")
            .unwrap();
        let (status, connection, _) = read_framed(&mut conn);
        assert_eq!(
            (status, connection.as_str()),
            (200, "keep-alive"),
            "{label}"
        );

        if let Err(err) = conn.get_mut().write_all(&bytes) {
            assert!(
                matches!(
                    err.kind(),
                    ErrorKind::BrokenPipe | ErrorKind::ConnectionReset
                ),
                "{label}: write: {err}"
            );
        }
        conn.get_mut().shutdown(Shutdown::Write).ok();
        let raw = read_until_closed(&mut conn);
        let text = String::from_utf8_lossy(&raw);
        if bytes.is_empty() {
            // EOF between requests is not a request: no answer at all.
            assert!(raw.is_empty(), "{label}: {text}");
            continue;
        }
        assert_eq!(status_of(&raw), expected, "{label}: {text}");
        if expected >= 400 {
            assert!(text.contains("connection: close\r\n"), "{label}: {text}");
        }
    }
    let (status, _) = client::request(handle.addr(), "GET", "/health", "").unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn idle_kept_alive_connections_never_starve_new_ones() {
    // Two workers and a 10 s read timeout. This thread's client keeps an
    // idle connection, and each client thread keeps its own until every
    // client is done. If both workers could sit on idle kept-alive
    // connections, the other clients would wait out the 10 s.
    let handle = server_with(2, Duration::from_secs(10));
    let addr = handle.addr();
    let (status, _) = client::request(
        addr,
        "POST",
        "/tenants/edge",
        r#"{"problem":"f0","epsilon":0.25}"#,
    )
    .unwrap();
    assert_eq!(status, 201);

    let all_done = Arc::new(Barrier::new(4));
    let started = Instant::now();
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let all_done = Arc::clone(&all_done);
            std::thread::spawn(move || {
                for i in 0..50 {
                    let (status, body) = if i % 5 == 0 {
                        let update = format!("{{\"item\":{},\"delta\":1}}", c * 100 + i);
                        client::request(addr, "POST", "/tenants/edge/update", &update)
                    } else {
                        client::request(addr, "GET", "/tenants/edge/query", "")
                    }
                    .unwrap();
                    assert_eq!(status, 200, "client {c} request {i}: {body}");
                }
                all_done.wait();
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(2), "took {elapsed:?}");
    handle.shutdown();
}

#[test]
fn shutdown_does_not_wait_for_an_idle_kept_alive_connection() {
    let handle = server_with(4, Duration::from_secs(10));
    let mut conn = connect(handle.addr());
    conn.get_mut()
        .write_all(b"GET /health HTTP/1.1\r\n\r\n")
        .unwrap();
    let (status, connection, _) = read_framed(&mut conn);
    assert_eq!((status, connection.as_str()), (200, "keep-alive"));
    // This thread's client also holds an idle connection.
    let (status, _) = client::request(handle.addr(), "GET", "/health", "").unwrap();
    assert_eq!(status, 200);

    let started = Instant::now();
    handle.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "shutdown took {elapsed:?}"
    );
    assert!(read_until_closed(&mut conn).is_empty());
}

#[test]
fn a_request_after_the_server_dropped_the_idle_connection_is_retried_once() {
    let handle = server_with(4, Duration::from_millis(100));
    let addr = handle.addr();
    let (status, _) = client::request(addr, "GET", "/health", "").unwrap();
    assert_eq!(status, 200);
    // Let the server time the idle connection out and close it.
    std::thread::sleep(Duration::from_millis(400));
    let (status, body) = client::request(addr, "GET", "/tenants", "").unwrap();
    assert_eq!(status, 200, "{body}");
    // The retry opened a second connection, and the scrape reuses it.
    let (_, metrics) = client::request(addr, "GET", "/metrics", "").unwrap();
    assert!(
        metrics.contains("ars_http_connections_total 2\n"),
        "{metrics}"
    );
    handle.shutdown();
}
