//! Self-tests for the benchmark's helpers: order statistics, the
//! percentile-with-sample-count rule, fingerprints, response checks and
//! the load generator's reconnect-on-close.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;

use edm::prelude::*;
use edm_serve::{ModelRegistry, Server, ServerConfig};
use perfbench::client::Conn;
use perfbench::serve::{predict_body, predictions_match, reload_loaded, response_predictions};
use perfbench::stats::{describe, median, percentile, quartiles, MIN_BEYOND};
use perfbench::Fingerprint;

#[test]
fn median_and_quartiles_match_python_statistics() {
    // statistics.median / statistics.quantiles(xs, n=4) reference values.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(median(&ten), Some(5.5));
    assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    let five = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(median(&five), Some(3.0));
    assert_eq!(quartiles(&five), Some((1.5, 4.5)));
    assert_eq!(quartiles(&[2.0, 4.0]), Some((1.5, 4.5)));
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(median(&[]), None);
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    // p99 of 100 samples has one sample beyond it: not reportable.
    assert_eq!(percentile(&xs, 0.99), None);
    let p90 = percentile(&xs, 0.90).expect("10 samples beyond p90 of 100");
    assert_eq!((p90.value, p90.count, p90.beyond), (90.0, 100, 10));
    let many: Vec<f64> = (1..=1010).map(f64::from).collect();
    let p99 = percentile(&many, 0.99).expect("p99 of 1010 has 10 beyond");
    assert_eq!((p99.value, p99.count, p99.beyond), (1000.0, 1010, 10));
    assert!(percentile(&many[..1000], 0.99).is_some(), "1000 samples: 10 beyond p99");
    assert_eq!(percentile(&many[..999], 0.99), None);
    assert!(describe("p99_ms", &xs, 0.99).contains("unsupported (n=100"));
    assert!(describe("p50_ms", &xs, 0.5).contains("(n=100)"));
    assert_eq!(MIN_BEYOND, 10);
}

#[test]
fn failed_requests_count_as_misses() {
    // 20 fast successes and 20 failures: the median is a miss.
    let mut xs = vec![1.0; 20];
    xs.extend(std::iter::repeat_n(f64::INFINITY, 20));
    let p50 = percentile(&xs, 0.5).expect("20 beyond");
    assert_eq!(p50.value, 1.0);
    let p75 = percentile(&xs, 0.75).expect("10 beyond");
    assert!(p75.value.is_infinite());
}

#[test]
fn fingerprint_sees_every_bit() {
    let fp = |x: f64| {
        let mut f = Fingerprint::default();
        f.float(x);
        f
    };
    assert_eq!(fp(0.1), fp(0.1));
    assert_ne!(fp(0.0), fp(-0.0));
    assert_ne!(fp(1.0), fp(f64::from_bits(1.0f64.to_bits() + 1)));
    let mut a = Fingerprint::default();
    a.words([1u64, 2].into_iter());
    let mut b = Fingerprint::default();
    b.words([1u64].into_iter());
    b.word(2);
    assert_ne!(a, b, "length prefix separates runs");
    assert_eq!(a.hex().len(), 16);
}

#[test]
fn prediction_check_is_bitwise() {
    let body =
        br#"{"model":"m","family":"svc","count":3.0,"predictions":[1.0,-1.0,0.30000000000000004]}"#;
    assert_eq!(response_predictions(body), Some(vec![1.0, -1.0, 0.1 + 0.2]));
    assert!(predictions_match(body, &[1.0, -1.0, 0.1 + 0.2]));
    assert!(!predictions_match(body, &[1.0, -1.0, 0.3]));
    assert!(!predictions_match(body, &[1.0, -1.0]));
    assert!(!predictions_match(br#"{"error":"boom"}"#, &[]));
    assert!(predictions_match(br#"{"predictions":[]}"#, &[]));
}

#[test]
fn reload_check_requires_no_errors() {
    assert_eq!(reload_loaded(br#"{"generation":2,"loaded":["a","b"],"errors":{}}"#), Some(2));
    assert_eq!(reload_loaded(br#"{"generation":2,"loaded":["a"],"errors":{"b.edm":"bad"}}"#), None);
    assert_eq!(reload_loaded(b"not json"), None);
}

fn tiny_ridge() -> Ridge {
    let x = vec![vec![0.0, 0.0], vec![1.0, 0.5], vec![0.5, 1.0], vec![1.0, 1.0]];
    let y = vec![0.0, 1.0, 1.0, 2.0];
    Ridge::fit(&x, &y, 0.1).expect("tiny ridge fits")
}

#[test]
fn client_reconnects_when_the_server_caps_a_connection() {
    let model = tiny_ridge();
    let rows = vec![vec![0.3, 0.7]];
    let expected = edm::Predictor::predict_batch(&model, &rows).expect("in-process");
    let mut registry = ModelRegistry::new();
    registry.register("plane", model).expect("register");
    let config = ServerConfig { max_requests_per_conn: 3, ..Default::default() };
    let server = Server::start("127.0.0.1:0", registry, config).expect("bind");
    let mut conn = Conn::new(server.local_addr());
    let body = predict_body(&rows);
    for _ in 0..10 {
        let reply = conn.request("POST", "/v1/models/plane:predict", &body).expect("served");
        assert_eq!(reply.status, 200);
        assert!(predictions_match(&reply.body, &expected));
    }
    // 10 requests at 3 per connection: 4 connections.
    assert_eq!(conn.connects(), 4);
    server.shutdown();
}

#[test]
fn client_reports_an_abrupt_close_and_then_reconnects() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|s| {
        s.spawn(|| {
            // First connection: read one request, close without answering.
            let (stream, _) = listener.accept().expect("accept");
            read_request(&mut BufReader::new(stream));
            // Second connection: answer one request normally.
            let (mut stream, _) = listener.accept().expect("accept");
            read_request(&mut BufReader::new(stream.try_clone().expect("clone")));
            let body = br#"{"predictions":[2.0]}"#;
            let head = format!(
                "HTTP/1.1 200 OK\r\nconnection: keep-alive\r\ncontent-length: {}\r\n\r\n",
                body.len()
            );
            stream.write_all(head.as_bytes()).expect("write head");
            stream.write_all(body).expect("write body");
        });
        let mut conn = Conn::new(addr);
        assert!(conn.request("POST", "/x", b"{}").is_err(), "a dropped request is an error");
        let reply = conn.request("POST", "/x", b"{}").expect("fresh connection answers");
        assert!(predictions_match(&reply.body, &[2.0]));
        assert_eq!(conn.connects(), 2);
    });
}

fn read_request<R: BufRead>(r: &mut R) {
    let mut len = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        r.read_line(&mut line).expect("request line");
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if let Some(v) = l.strip_prefix("content-length: ") {
            len = v.parse().expect("length");
        }
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).expect("body");
}
