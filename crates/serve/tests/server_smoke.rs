//! End-to-end tests against a live server on an ephemeral port: the
//! scoring round trip, every error status, OpenMetrics framing,
//! deterministic queue-full backpressure, and graceful shutdown.
//!
//! Clients are raw `std::net::TcpStream`s writing HTTP/1.1 by hand —
//! the server must interoperate with the wire format, not just with
//! its own parser.

#![cfg(feature = "parallel")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use edm::prelude::*;
use edm_serve::json::{self, Value};
use edm_serve::{AdmissionTier, ModelRegistry, Server, ServerConfig};

/// Sends raw bytes, reads to EOF, and splits the response into
/// (status, headers, body). The server keeps connections alive by
/// default, so the request must carry `connection: close` (as `get` /
/// `post` do) or be one the server answers with a close (malformed,
/// 413, accept-time 503) — otherwise this read parks until the idle
/// timeout.
fn exchange(addr: SocketAddr, raw: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("timeout");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status line in {head:?}"));
    (status, head.to_string(), body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    exchange(addr, &format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Reads exactly one response off a keep-alive stream using its
/// `content-length` framing (byte-at-a-time headers; fine for tests).
fn read_framed(stream: &mut TcpStream) -> (u16, String, String) {
    let mut head_bytes = Vec::new();
    let mut byte = [0u8; 1];
    while !head_bytes.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read header byte");
        assert!(n > 0, "EOF mid-headers after {:?}", String::from_utf8_lossy(&head_bytes));
        head_bytes.push(byte[0]);
    }
    let head =
        String::from_utf8(head_bytes[..head_bytes.len() - 4].to_vec()).expect("utf8 headers");
    let content_length: usize = head
        .lines()
        .find_map(|line| {
            let (k, v) = line.split_once(':')?;
            if k.eq_ignore_ascii_case("content-length") {
                v.trim().parse().ok()
            } else {
                None
            }
        })
        .unwrap_or_else(|| panic!("no content-length in {head:?}"));
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read body");
    let status: u16 =
        head.split(' ').nth(1).and_then(|s| s.parse().ok()).expect("parseable status line");
    (status, head, String::from_utf8(body).expect("utf8 body"))
}

/// The `x-request-id` header of a response head, parsed.
fn request_id(head: &str) -> Option<u64> {
    head.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        k.eq_ignore_ascii_case("x-request-id").then(|| v.trim().parse().ok())?
    })
}

fn training_data() -> (Vec<Vec<f64>>, Vec<f64>) {
    let x = vec![
        vec![0.0, 0.0],
        vec![0.2, 0.1],
        vec![0.1, 0.3],
        vec![2.0, 2.1],
        vec![2.2, 1.9],
        vec![1.9, 2.2],
    ];
    let y = vec![-1.0, -1.0, -1.0, 1.0, 1.0, 1.0];
    (x, y)
}

fn start_default() -> (Server, Ridge) {
    let (x, y) = training_data();
    let ridge = Ridge::fit(&x, &y, 0.05).expect("ridge fits");
    let mut reg = ModelRegistry::new();
    reg.register("ridge", ridge.clone()).expect("register ridge");
    reg.register(
        "svc",
        SvcTrainer::new(SvcParams::default())
            .kernel(RbfKernel::new(0.8))
            .fit(&x, &y)
            .expect("svc trains"),
    )
    .expect("register svc");
    let server =
        Server::start("127.0.0.1:0", reg, ServerConfig::default()).expect("bind ephemeral port");
    (server, ridge)
}

#[test]
fn healthz_models_and_predict_round_trip() {
    let (server, ridge) = start_default();
    let addr = server.local_addr();

    let (status, _, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, head, body) = get(addr, "/v1/models");
    assert_eq!(status, 200);
    assert!(head.contains("content-type: application/json"), "head was {head}");
    let doc = json::parse(&body).expect("valid JSON listing");
    let models = doc.get("models").and_then(Value::as_array).expect("models array");
    let names: Vec<&str> =
        models.iter().map(|m| m.get("name").and_then(Value::as_str).expect("name")).collect();
    assert_eq!(names, vec!["ridge", "svc"], "listing must be name-ordered");

    let queries = vec![vec![0.15, 0.2], vec![2.05, 2.0]];
    let expected = ridge.predict_batch(&queries);
    let (status, _, body) =
        post(addr, "/v1/models/ridge:predict", "{\"inputs\": [[0.15, 0.2], [2.05, 2.0]]}");
    assert_eq!(status, 200, "predict failed: {body}");
    let doc = json::parse(&body).expect("valid predict response");
    assert_eq!(doc.get("model").and_then(Value::as_str), Some("ridge"));
    assert_eq!(doc.get("family").and_then(Value::as_str), Some("ridge"));
    assert_eq!(doc.get("count").and_then(Value::as_f64), Some(2.0));
    let served: Vec<f64> = doc
        .get("predictions")
        .and_then(Value::as_array)
        .expect("predictions")
        .iter()
        .map(|v| v.as_f64().expect("number"))
        .collect();
    assert_eq!(served.len(), expected.len());
    for (s, e) in served.iter().zip(&expected) {
        assert_eq!(s.to_bits(), e.to_bits(), "HTTP round trip changed a prediction");
    }
    server.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let (server, ridge) = start_default();
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("timeout");

    // Three requests down the same socket, mixing GET and POST.
    let expected = ridge.predict_batch(&[vec![0.15, 0.2]]);
    for i in 0..3 {
        let body = "{\"inputs\": [[0.15, 0.2]]}";
        let raw = format!(
            "POST /v1/models/ridge:predict HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(raw.as_bytes()).expect("send request");
        let (status, head, resp_body) = read_framed(&mut stream);
        assert_eq!(status, 200, "request {i} on the shared connection: {resp_body}");
        assert!(head.contains("connection: keep-alive"), "request {i} head: {head}");
        // A fresh server numbers its requests from 1, one by one.
        assert_eq!(request_id(&head), Some(i + 1), "request {i} head: {head}");
        let doc = json::parse(&resp_body).expect("predict response json");
        let served = doc.get("predictions").and_then(Value::as_array).expect("predictions")[0]
            .as_f64()
            .expect("number");
        assert_eq!(served.to_bits(), expected[0].to_bits(), "request {i} changed the score");
    }

    // `connection: close` is honored: final framed response, then EOF.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .expect("send final request");
    let (status, head, body) = read_framed(&mut stream);
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    assert!(head.contains("connection: close"), "final head: {head}");
    assert_eq!(request_id(&head), Some(4), "final head: {head}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "server must close after connection: close");
    server.shutdown();
}

#[test]
fn request_cap_closes_the_connection() {
    let (x, y) = training_data();
    let mut reg = ModelRegistry::new();
    reg.register("ridge", Ridge::fit(&x, &y, 0.05).expect("fits")).expect("register");
    let config = ServerConfig { max_requests_per_conn: 2, ..ServerConfig::default() };
    let server = Server::start("127.0.0.1:0", reg, config).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("timeout");
    let raw = b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n";
    stream.write_all(raw).expect("first request");
    let (_, head1, _) = read_framed(&mut stream);
    assert!(head1.contains("connection: keep-alive"), "head was {head1}");
    stream.write_all(raw).expect("second request");
    let (_, head2, _) = read_framed(&mut stream);
    assert!(head2.contains("connection: close"), "cap reached, head was {head2}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "server must close at the per-connection cap");
    server.shutdown();
}

#[test]
fn idle_keep_alive_connections_are_reaped() {
    let (x, y) = training_data();
    let mut reg = ModelRegistry::new();
    reg.register("ridge", Ridge::fit(&x, &y, 0.05).expect("fits")).expect("register");
    let config =
        ServerConfig { idle_timeout: Duration::from_millis(300), ..ServerConfig::default() };
    let server = Server::start("127.0.0.1:0", reg, config).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("timeout");
    stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n").expect("request");
    let (status, _, _) = read_framed(&mut stream);
    assert_eq!(status, 200);
    // Send nothing more: the server must close the idle connection on
    // its own well before the client's 20 s read timeout.
    let t0 = Instant::now();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "no bytes expected after the idle close");
    assert!(t0.elapsed() < Duration::from_secs(10), "idle reap took {:?}", t0.elapsed());
    server.shutdown();
}

#[test]
fn error_statuses_over_the_wire() {
    let (server, _) = start_default();
    let addr = server.local_addr();

    assert_eq!(get(addr, "/nope").0, 404);
    assert_eq!(get(addr, "/v1/models/ghost:predict").0, 405, "GET on :predict");
    assert_eq!(post(addr, "/v1/models/ghost:predict", "{}").0, 404, "unknown model");
    assert_eq!(post(addr, "/v1/models/ridge:predict", "not json").0, 400);
    assert_eq!(post(addr, "/v1/models/ridge:predict", "{\"inputs\": [[1, 2, 3]]}").0, 400);
    assert_eq!(post(addr, "/healthz", "").0, 405);
    let (status, _, body) = exchange(addr, "BOGUS-REQUEST-LINE\r\n\r\n");
    assert_eq!(status, 400, "malformed request line; body {body}");
    server.shutdown();
}

#[test]
fn oversized_bodies_get_413() {
    let (x, y) = training_data();
    let mut reg = ModelRegistry::new();
    reg.register("ridge", Ridge::fit(&x, &y, 0.05).expect("fits")).expect("register");
    let config = ServerConfig { max_body_bytes: 256, ..ServerConfig::default() };
    let server = Server::start("127.0.0.1:0", reg, config).expect("bind");
    let big = format!("{{\"inputs\": [[{}]]}}", "1.0, ".repeat(200) + "1.0");
    let (status, _, _) = post(server.local_addr(), "/v1/models/ridge:predict", &big);
    assert_eq!(status, 413);
    server.shutdown();
}

#[test]
fn metrics_endpoint_speaks_openmetrics() {
    let (server, _) = start_default();
    let addr = server.local_addr();
    // Generate some traffic first so counters exist either way.
    let _ = get(addr, "/healthz");
    let (status, head, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        head.contains("content-type: application/openmetrics-text"),
        "metrics content-type missing: {head}"
    );
    assert!(
        body.ends_with("# EOF\n"),
        "OpenMetrics framing lost: {:?}",
        &body[body.len().saturating_sub(40)..]
    );
    server.shutdown();
}

/// A predictor that parks inside `predict_batch` until released, so
/// the test controls exactly when the single worker is busy.
struct GatedPredictor {
    started: Mutex<mpsc::Sender<()>>,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

/// Opens the gate on drop — including during a panic unwind. Without
/// this, a failed assertion would leave the worker parked inside
/// `predict_batch` and `Server::drop` would deadlock joining it.
struct GateGuard(Arc<(Mutex<bool>, Condvar)>);

impl GateGuard {
    fn open(&self) {
        let (open, cv) = &*self.0;
        *open.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        cv.notify_all();
    }
}

impl Drop for GateGuard {
    fn drop(&mut self) {
        self.open();
    }
}

impl Predictor for GatedPredictor {
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>, edm::Error> {
        // Later requests may arrive after the test dropped the
        // receiver; the signal only matters for the first one.
        let _ = self.started.lock().unwrap_or_else(std::sync::PoisonError::into_inner).send(());
        let (open, cv) = &*self.gate;
        let mut open = open.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while !*open {
            open = cv.wait(open).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        Ok(vec![0.0; xs.len()])
    }

    fn n_features(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "gated"
    }
}

/// Starts a gated server and parks connection A inside the single
/// worker, returning everything needed to drive the scenario further.
#[allow(clippy::type_complexity)]
fn park_one_request(
    config: ServerConfig,
) -> (Server, GateGuard, std::thread::JoinHandle<(u16, String, String)>) {
    let (started_tx, started_rx) = mpsc::channel();
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut reg = ModelRegistry::new();
    reg.register(
        "slow",
        GatedPredictor { started: Mutex::new(started_tx), gate: Arc::clone(&gate) },
    )
    .expect("register");
    let guard = GateGuard(gate);
    let server = Server::start("127.0.0.1:0", reg, config).expect("bind");
    let addr = server.local_addr();
    let handle_a =
        std::thread::spawn(move || post(addr, "/v1/models/slow:predict", "{\"inputs\": [[1]]}"));
    started_rx.recv_timeout(Duration::from_secs(20)).expect("worker picked up A");
    (server, guard, handle_a)
}

#[test]
fn queue_full_gets_503_with_retry_after() {
    let config = ServerConfig { workers: 1, queue_capacity: 1, ..ServerConfig::default() };
    let (server, guard, handle_a) = park_one_request(config);
    let addr = server.local_addr();

    // Connection B fills the single queue slot. Admission happens at
    // accept time, so once `queue_len` reports it the slot is gone.
    let handle_b =
        std::thread::spawn(move || post(addr, "/v1/models/slow:predict", "{\"inputs\": [[2]]}"));
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.queue_len() < 1 {
        assert!(Instant::now() < deadline, "B was never admitted to the queue");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Connection C must be refused, not hung.
    let (status, head, _) = get(addr, "/healthz");
    assert_eq!(status, 503, "third connection should hit backpressure");
    assert!(head.contains("\r\nretry-after: 1"), "503 must carry retry-after: {head}");

    // Open the gate: A and B drain normally.
    guard.open();
    let (status_a, _, _) = handle_a.join().expect("client A");
    let (status_b, _, _) = handle_b.join().expect("client B");
    assert_eq!((status_a, status_b), (200, 200), "queued work must complete after release");
    server.shutdown();
}

#[test]
fn tier_quota_isolates_a_hot_model() {
    let (started_tx, started_rx) = mpsc::channel();
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let (x, y) = training_data();
    let mut reg = ModelRegistry::new();
    reg.register_tiered(
        "slow",
        GatedPredictor { started: Mutex::new(started_tx), gate: Arc::clone(&gate) },
        AdmissionTier::new("hot", 1),
    )
    .expect("register tiered");
    reg.register("ridge", Ridge::fit(&x, &y, 0.05).expect("fits")).expect("register ridge");
    let guard = GateGuard(gate);
    let config = ServerConfig { workers: 4, ..ServerConfig::default() };
    let server = Server::start("127.0.0.1:0", reg, config).expect("bind");
    let addr = server.local_addr();

    // A occupies the hot model's single quota unit (parked inside
    // predict, holding its TierPermit)...
    let handle_a =
        std::thread::spawn(move || post(addr, "/v1/models/slow:predict", "{\"inputs\": [[1]]}"));
    started_rx.recv_timeout(Duration::from_secs(20)).expect("worker picked up A");

    // ...so a second request at the hot model is refused by the tier
    // even though workers are plainly free...
    let (status_b, head_b, _) = post(addr, "/v1/models/slow:predict", "{\"inputs\": [[2]]}");
    assert_eq!(status_b, 503, "saturated tier must refuse");
    assert!(head_b.contains("\r\nretry-after: 1"), "tier Retry-After missing: {head_b}");

    // ...while the *other* model keeps serving: the hot model cannot
    // starve the registry.
    let (status_c, _, body_c) =
        post(addr, "/v1/models/ridge:predict", "{\"inputs\": [[0.1, 0.2]]}");
    assert_eq!(status_c, 200, "untiered model must keep serving: {body_c}");

    guard.open();
    assert_eq!(handle_a.join().expect("client A").0, 200, "quota'd work completes");
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_admitted_work() {
    let config = ServerConfig { workers: 1, queue_capacity: 4, ..ServerConfig::default() };
    let (server, guard, handle_a) = park_one_request(config);
    let addr = server.local_addr();

    // Connection B is admitted to the queue behind the parked worker.
    let handle_b =
        std::thread::spawn(move || post(addr, "/v1/models/slow:predict", "{\"inputs\": [[2]]}"));
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.queue_len() < 1 {
        assert!(Instant::now() < deadline, "B was never admitted to the queue");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Shutdown must block on the in-flight work, not abandon it.
    let shutdown_handle = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(50));
    assert!(!shutdown_handle.is_finished(), "shutdown must wait for admitted connections");

    guard.open();
    shutdown_handle.join().expect("shutdown thread");
    let (status_a, _, _) = handle_a.join().expect("client A");
    let (status_b, _, _) = handle_b.join().expect("client B");
    assert_eq!(
        (status_a, status_b),
        (200, 200),
        "connections admitted before shutdown must still be answered"
    );
}

#[test]
fn dropping_an_idle_server_returns_promptly() {
    let (server, _) = start_default();
    let addr = server.local_addr();
    assert_eq!(get(addr, "/healthz").0, 200);
    let t0 = Instant::now();
    drop(server);
    // Drop runs the same drain path as `shutdown()`; with no admitted
    // work it must come back quickly instead of parking on a join.
    assert!(t0.elapsed() < Duration::from_secs(10), "idle drop took {:?}", t0.elapsed());
}
