//! Hot-reload smoke tests against a live server: save → serve →
//! overwrite → `POST /v1/admin/reload`, with a concurrent predict
//! storm across the swap. A reload must bump the generation without
//! producing a single 5xx on admitted work.

#![cfg(feature = "parallel")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use edm::prelude::*;
use edm_serve::json::{self, Value};
use edm_serve::{ModelRegistry, ModelStore, Server, ServerConfig};

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

fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        k.eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edm-reload-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A ridge fit of `y = slope * (x0 + x1)` — distinguishable model
/// versions from one scalar.
fn sloped_ridge(slope: f64) -> Ridge {
    let x = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
    let y: Vec<f64> = x.iter().map(|r| slope * (r[0] + r[1])).collect();
    Ridge::fit(&x, &y, 1e-9).expect("ridge fits")
}

fn start_with_store(dir: &Path) -> Server {
    let mut reg = ModelRegistry::new();
    reg.register("baseline", sloped_ridge(1.0)).expect("register baseline");
    let config = ServerConfig { model_dir: Some(dir.to_path_buf()), ..ServerConfig::default() };
    Server::start("127.0.0.1:0", reg, config).expect("bind ephemeral port")
}

#[test]
fn save_serve_reload_bumps_the_generation() {
    let dir = scratch_dir("basic");
    let store = ModelStore::new(&dir);
    store.save("disk-model", &sloped_ridge(2.0)).expect("seed v1");

    let server = start_with_store(&dir);
    let addr = server.local_addr();

    // Generation 1 serves the startup scan: both models, provenance on
    // the disk one.
    let (status, head, body) =
        post(addr, "/v1/models/disk-model:predict", r#"{"inputs": [[1, 1]]}"#);
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(header_value(&head, "x-model-generation"), Some("1"));
    let doc = json::parse(&body).expect("json");
    let v1 = doc.get("predictions").and_then(Value::as_array).expect("preds")[0]
        .as_f64()
        .expect("number");
    assert!((v1 - 4.0).abs() < 1e-6, "slope-2 model scores 2*(1+1), got {v1}");

    // Overwrite the container on disk and reload.
    store.save("disk-model", &sloped_ridge(3.0)).expect("drop v2");
    let (status, _, body) = post(addr, "/v1/admin/reload", "");
    assert_eq!(status, 200, "reload body: {body}");
    let doc = json::parse(&body).expect("reload json");
    assert_eq!(doc.get("generation").and_then(Value::as_f64), Some(2.0));

    // Generation 2 serves the new fit; the baseline survives.
    let (status, head, body) =
        post(addr, "/v1/models/disk-model:predict", r#"{"inputs": [[1, 1]]}"#);
    assert_eq!(status, 200);
    assert_eq!(header_value(&head, "x-model-generation"), Some("2"));
    let doc = json::parse(&body).expect("json");
    let v2 = doc.get("predictions").and_then(Value::as_array).expect("preds")[0]
        .as_f64()
        .expect("number");
    assert!((v2 - 6.0).abs() < 1e-6, "slope-3 model scores 3*(1+1), got {v2}");
    let (status, _, body) = get(addr, "/v1/models");
    assert_eq!(status, 200);
    let doc = json::parse(&body).expect("models json");
    let models = doc.get("models").and_then(Value::as_array).expect("models");
    let names: Vec<&str> =
        models.iter().filter_map(|m| m.get("name").and_then(Value::as_str)).collect();
    assert_eq!(names, vec!["baseline", "disk-model"]);
    let disk = models.iter().find(|m| m.get("name").and_then(Value::as_str) == Some("disk-model"));
    let disk = disk.expect("disk-model listed");
    assert!(disk.get("loaded_from").and_then(Value::as_str).is_some());
    assert!(disk.get("checksum").and_then(Value::as_f64).is_some());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn train_endpoint_persists_and_serves_immediately() {
    let dir = scratch_dir("train");
    let server = start_with_store(&dir);
    let addr = server.local_addr();

    let body = r#"{"family": "ridge", "inputs": [[0, 0], [1, 0], [0, 1], [1, 1]], "targets": [0, 5, 5, 10]}"#;
    let (status, _, resp) = post(addr, "/v1/models/fresh:train", body);
    assert_eq!(status, 200, "train body: {resp}");
    let doc = json::parse(&resp).expect("train json");
    assert_eq!(doc.get("generation").and_then(Value::as_f64), Some(2.0));
    let saved_to = doc.get("saved_to").and_then(Value::as_str).expect("persisted");
    assert!(saved_to.ends_with("fresh.edm"), "saved to {saved_to}");
    assert!(dir.join("fresh.edm").is_file(), "container written to the model dir");

    let (status, head, body) = post(addr, "/v1/models/fresh:predict", r#"{"inputs": [[1, 1]]}"#);
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(header_value(&head, "x-model-generation"), Some("2"));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn predict_storm_across_reloads_sees_no_5xx() {
    let dir = scratch_dir("storm");
    let store = ModelStore::new(&dir);
    store.save("disk-model", &sloped_ridge(2.0)).expect("seed v1");
    let server = start_with_store(&dir);
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut statuses = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let (status, head, _) =
                        post(addr, "/v1/models/disk-model:predict", r#"{"inputs": [[0.5, 0.5]]}"#);
                    let generation: u64 = header_value(&head, "x-model-generation")
                        .and_then(|v| v.parse().ok())
                        .expect("every predict response carries its generation");
                    statuses.push((status, generation));
                }
                statuses
            })
        })
        .collect();

    // Swap generations under the storm: alternate two model versions
    // through the directory with a reload after each overwrite.
    let mut last_generation = 1.0;
    for round in 0..5u32 {
        let slope = if round % 2 == 0 { 3.0 } else { 2.0 };
        store.save("disk-model", &sloped_ridge(slope)).expect("overwrite");
        let (status, _, body) = post(addr, "/v1/admin/reload", "");
        assert_eq!(status, 200, "reload under load: {body}");
        let doc = json::parse(&body).expect("reload json");
        last_generation = doc.get("generation").and_then(Value::as_f64).expect("generation");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(last_generation, 6.0, "five reloads on top of generation 1");

    stop.store(true, Ordering::Relaxed);
    let mut total = 0usize;
    let mut max_generation = 0u64;
    for client in clients {
        for (status, generation) in client.join().expect("client thread") {
            assert!(status < 500, "predict failed with {status} during a reload");
            assert_eq!(status, 200);
            max_generation = max_generation.max(generation);
            total += 1;
        }
    }
    assert!(total > 0, "storm actually scored something");
    assert!(max_generation > 1, "storm observed a post-reload generation");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
