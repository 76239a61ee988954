//! The `serve-mixed` layers: a live in-process `edm-serve` with a
//! default [`ServerConfig`] plus a model directory, driven closed loop
//! from one process over two keep-alive connections.
//!
//! * Connection 0 sends 1-row predicts and, as every [`RELOAD_EVERY`]th
//!   request, `POST /v1/admin/reload` (the write path: it loads all nine
//!   model families from disk).
//! * Connection 1 sends 128-row predicts.
//!
//! A client reconnects only when the server closes its connection (at
//! `max_requests_per_conn`).
//!
//! Every served prediction must be bitwise equal to in-process
//! `predict_batch` on the same rows, and every reload must report all
//! nine models loaded with no errors.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use edm::kernels::HistogramIntersectionKernel;
use edm::litho::features::{density_histogram, HistogramSpec};
use edm::litho::layout::LayoutGenerator;
use edm::persist::{fit_family, load_predictor_from_bytes};
use edm::svm::SvcModel;
use edm::{PersistentPredictor, Predictor, FAMILIES};
use edm_serve::json::{self, Value};
use edm_serve::{ModelRegistry, ModelStore, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::client::Conn;
use crate::flows::{fit_hotspot_svc, litho_training_set};
use crate::trace::Recorder;

/// Rows per large request.
pub const LARGE_ROWS: usize = 128;
/// Connection 0 sends a reload as every this-many-th request.
pub const RELOAD_EVERY: usize = 500;
/// Distinct request rows (histograms of clips outside the training set).
const POOL: usize = 256;
/// Distinct large bodies (windows over the pool).
const LARGE_BODIES: usize = 8;
/// Registry name of the Fig. 9 SVC.
pub const HOTSPOT: &str = "hotspot";

/// One prepared request: its body and the predictions it must return.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// JSON request body.
    pub body: Vec<u8>,
    /// In-process `predict_batch` output for the body's rows.
    pub expected: Vec<f64>,
}

/// A trained model set: the Fig. 9 SVC plus one default fit of each
/// other family, named for the model directory.
pub struct ModelSet {
    /// `(registry name, family, model)`; the hotspot SVC first.
    pub models: Vec<(String, &'static str, Box<dyn PersistentPredictor + Send + Sync>)>,
}

/// Trains the model set at `seed` (spans go to `rec`).
///
/// # Errors
///
/// Any training failure, as text.
pub fn train_models(seed: u64, rec: &mut Recorder) -> Result<ModelSet, String> {
    let (h, y) = litho_training_set(seed, rec);
    let svc: SvcModel<HistogramIntersectionKernel> =
        rec.time("svm.svc_fit_s", || fit_hotspot_svc(&h, &y))?;
    let mut models: Vec<(String, &'static str, Box<dyn PersistentPredictor + Send + Sync>)> =
        vec![(HOTSPOT.to_string(), "svc", Box::new(svc))];
    for family in FAMILIES.iter().copied().filter(|&f| f != "svc") {
        let m = rec
            .time("model.fit_s", || fit_family(family, &h, &y))
            .map_err(|e| format!("{family}: {e}"))?;
        models.push((family.to_string(), family, m));
    }
    Ok(ModelSet { models })
}

/// Encodes rows as a predict body.
pub fn predict_body(rows: &[Vec<f64>]) -> Vec<u8> {
    let inputs = Value::Array(
        rows.iter().map(|r| Value::Array(r.iter().map(|&v| Value::Number(v)).collect())).collect(),
    );
    Value::Object(vec![("inputs".to_string(), inputs)]).encode().into_bytes()
}

/// Request rows at `seed`: histograms of clips drawn from a stream of
/// their own, so they are not training rows.
pub fn request_rows(seed: u64) -> Vec<Vec<f64>> {
    let generator = LayoutGenerator::default();
    let spec = HistogramSpec::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e57_ba7c_4e5f_0001);
    (0..POOL).map(|_| density_histogram(&generator.generate_random(&mut rng).1, &spec)).collect()
}

/// Builds the small (1-row) and large (128-row) requests and their
/// expected predictions from `model`.
///
/// # Errors
///
/// The model's shape error, as text.
pub fn prepare_requests(
    model: &dyn Predictor,
    rows: &[Vec<f64>],
) -> Result<(Vec<Prepared>, Vec<Prepared>), String> {
    let prep = |rows: Vec<Vec<f64>>| -> Result<Prepared, String> {
        let expected = model.predict_batch(&rows).map_err(|e| e.to_string())?;
        Ok(Prepared { body: predict_body(&rows), expected })
    };
    let small = rows.iter().map(|r| prep(vec![r.clone()])).collect::<Result<Vec<_>, _>>()?;
    let large = (0..LARGE_BODIES)
        .map(|j| prep((0..LARGE_ROWS).map(|i| rows[(j * 32 + i) % rows.len()].clone()).collect()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((small, large))
}

/// Predictions in a predict response body, parsed with
/// `str::parse::<f64>` (`null` reads as NaN).
pub fn response_predictions(body: &[u8]) -> Option<Vec<f64>> {
    let text = std::str::from_utf8(body).ok()?;
    let start = text.find("\"predictions\":[")? + "\"predictions\":[".len();
    let end = start + text[start..].find(']')?;
    let list = &text[start..end];
    if list.is_empty() {
        return Some(Vec::new());
    }
    list.split(',').map(|v| if v == "null" { Some(f64::NAN) } else { v.parse().ok() }).collect()
}

/// True when `body` carries exactly `expected`, bit for bit.
pub fn predictions_match(body: &[u8], expected: &[f64]) -> bool {
    response_predictions(body).is_some_and(|got| {
        got.len() == expected.len()
            && got.iter().zip(expected).all(|(a, b)| a.to_bits() == b.to_bits())
    })
}

/// Models a reload response reports loaded, when it reports no errors.
pub fn reload_loaded(body: &[u8]) -> Option<usize> {
    let doc = json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let loaded = doc.get("loaded")?.as_array()?.len();
    match doc.get("errors")? {
        Value::Object(errors) if errors.is_empty() => Some(loaded),
        _ => None,
    }
}

/// A running server over a fresh model directory.
pub struct Live {
    /// The server.
    pub server: Server,
    /// Its model directory (removed by [`Live::stop`]).
    pub dir: PathBuf,
    /// Small requests.
    pub small: Vec<Prepared>,
    /// Large requests.
    pub large: Vec<Prepared>,
}

impl Live {
    /// Saves `set` into `dir`, prepares requests against the hotspot
    /// model, and starts a default server over the directory.
    ///
    /// # Errors
    ///
    /// Persistence, preparation or bind failures, as text.
    pub fn start(set: &ModelSet, seed: u64, dir: &Path) -> Result<Live, String> {
        let _ = std::fs::remove_dir_all(dir);
        let store = ModelStore::new(dir);
        for (name, _, model) in &set.models {
            store.save(name, model.as_ref()).map_err(|e| format!("save {name}: {e}"))?;
        }
        let (small, large) = prepare_requests(set.models[0].2.as_ref(), &request_rows(seed))?;
        let config = ServerConfig { model_dir: Some(dir.to_path_buf()), ..Default::default() };
        let server = Server::start("127.0.0.1:0", ModelRegistry::new(), config)
            .map_err(|e| e.to_string())?;
        Ok(Live { server, dir: dir.to_path_buf(), small, large })
    }

    /// Shuts the server down (joining its threads) and removes the
    /// model directory.
    pub fn stop(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What a load run observed. Latencies are in ms; a failed request is
/// recorded as `f64::INFINITY`, a miss of every latency limit.
#[derive(Debug, Default, Clone)]
pub struct LoadStats {
    /// 1-row predict latencies.
    pub small_ms: Vec<f64>,
    /// 128-row predict latencies.
    pub large_ms: Vec<f64>,
    /// Reload latencies.
    pub reload_ms: Vec<f64>,
    /// Models each successful reload reported loaded.
    pub reload_models: Vec<usize>,
    /// Requests that failed or returned a wrong answer.
    pub failed: u64,
    /// Rows scored by successful predicts.
    pub rows: u64,
    /// TCP connections the two clients opened.
    pub connects: u64,
    /// Wall time of the load, in seconds.
    pub elapsed_s: f64,
}

impl LoadStats {
    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        (self.small_ms.len() + self.large_ms.len() + self.reload_ms.len()) as u64
    }
}

/// Drives `live` for `seconds` with the two-connection mix. Rows only
/// count toward throughput when the response was correct.
pub fn run_load(live: &Live, seconds: f64) -> LoadStats {
    let addr = live.server.local_addr();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (mut a, b) = std::thread::scope(|s| {
        let large = s.spawn(|| {
            let mut st = LoadStats::default();
            let mut conn = Conn::new(addr);
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let req = &live.large[i % live.large.len()];
                let t = Instant::now();
                let ok = predict(&mut conn, &req.body, &req.expected);
                st.large_ms.push(if ok { t.elapsed().as_secs_f64() * 1e3 } else { f64::INFINITY });
                if ok {
                    st.rows += req.expected.len() as u64;
                } else {
                    st.failed += 1;
                }
                i += 1;
            }
            st.connects = conn.connects();
            st
        });
        let mut st = LoadStats::default();
        let mut conn = Conn::new(addr);
        let mut i = 0usize;
        while Instant::now() < deadline {
            let t = Instant::now();
            if (i + 1).is_multiple_of(RELOAD_EVERY) {
                let loaded = conn
                    .request("POST", "/v1/admin/reload", b"")
                    .ok()
                    .filter(|r| r.status == 200)
                    .and_then(|r| reload_loaded(&r.body))
                    .filter(|&n| n == FAMILIES.len());
                st.reload_ms.push(match loaded {
                    Some(n) => {
                        st.reload_models.push(n);
                        t.elapsed().as_secs_f64() * 1e3
                    }
                    None => {
                        st.failed += 1;
                        f64::INFINITY
                    }
                });
            } else {
                let req = &live.small[i % live.small.len()];
                let ok = predict(&mut conn, &req.body, &req.expected);
                st.small_ms.push(if ok { t.elapsed().as_secs_f64() * 1e3 } else { f64::INFINITY });
                if ok {
                    st.rows += 1;
                } else {
                    st.failed += 1;
                }
            }
            i += 1;
        }
        stop.store(true, Ordering::Relaxed);
        st.connects = conn.connects();
        (st, large.join().expect("large-request client panicked"))
    });
    a.elapsed_s = t0.elapsed().as_secs_f64();
    a.large_ms = b.large_ms;
    a.rows += b.rows;
    a.failed += b.failed;
    a.connects += b.connects;
    a
}

fn predict(conn: &mut Conn, body: &[u8], expected: &[f64]) -> bool {
    let path = format!("/v1/models/{HOTSPOT}:predict");
    conn.request("POST", &path, body)
        .is_ok_and(|r| r.status == 200 && predictions_match(&r.body, expected))
}

/// Value of the first sample line of `body` whose series starts with
/// `prefix`.
pub fn metric_value(body: &str, prefix: &str) -> Option<f64> {
    body.lines()
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// Sum over every sample line whose series starts with `prefix`.
pub fn metric_sum(body: &str, prefix: &str) -> f64 {
    body.lines()
        .filter(|l| l.starts_with(prefix))
        .filter_map(|l| l.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()))
        .sum()
}

/// Median of `reps` timings of `f`, in µs.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    crate::stats::median(&samples).unwrap_or(0.0)
}

/// Per-family persistence costs: `(family, save µs, load µs, bytes)`,
/// medians of `reps` in-memory round trips.
///
/// # Errors
///
/// A save or load failure, as text.
pub fn model_io_costs(
    set: &ModelSet,
    reps: usize,
    rec: &mut Recorder,
) -> Result<Vec<(&'static str, f64, f64, usize)>, String> {
    let mut out = Vec::new();
    for (_, family, model) in &set.models {
        let mut bytes = Vec::new();
        model.save(&mut bytes).map_err(|e| e.to_string())?;
        let save_us = rec.time("model_io.save", || {
            median_us(reps, || {
                let mut buf = Vec::with_capacity(bytes.len());
                model.save(&mut buf).expect("a model that saved once saves again");
                std::hint::black_box(buf);
            })
        });
        let loaded = load_predictor_from_bytes(&bytes).map_err(|e| e.to_string())?;
        if loaded.model.name() != *family {
            return Err(format!("{family} reloaded as {}", loaded.model.name()));
        }
        let load_us = rec.time("model_io.load", || {
            median_us(reps, || {
                std::hint::black_box(load_predictor_from_bytes(&bytes).expect("loaded once"));
            })
        });
        out.push((*family, save_us, load_us, bytes.len()));
    }
    Ok(out)
}
