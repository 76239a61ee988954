//! Demo scoring server: trains a few models on synthetic data and
//! serves them until killed.
//!
//! ```text
//! cargo run --release -p edm-serve --bin edm_serve [addr]
//! cargo run --release -p edm-serve --bin edm_serve -- --save-demo DIR
//! ```
//!
//! `addr` defaults to `127.0.0.1:8080`. Set `EDM_TRACE=summary` (or
//! `full`) to populate `/metrics`. When `EDM_SERVE_MODEL_DIR` is set,
//! persisted `*.edm` containers in that directory are served alongside
//! the demo models and `POST /v1/admin/reload` rescans it without a
//! restart.
//!
//! `--save-demo DIR` skips serving entirely: it persists the demo
//! models into `DIR` as `*.edm` containers (handy for seeding a model
//! directory to exercise the reload path) and exits.

use std::time::Duration;

use edm::prelude::*;
use edm_serve::{ModelRegistry, ModelStore, Server, ServerConfig};

/// Deterministic SplitMix64 stream (the workspace bans ambient
/// entropy; a fixed seed also makes the demo responses reproducible).
struct Mix(u64);

impl Mix {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
    }
}

/// Two separable blobs with ±1 labels, mimicking a pass/fail test
/// outcome against two parametric measurements.
fn blobs(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut m = Mix(42);
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let label = if i % 2 == 0 { 1.0 } else { -1.0 };
        x.push(vec![m.next_f64() + label * 1.5, m.next_f64() + label * 1.5]);
        y.push(label);
    }
    (x, y)
}

/// The demo models, trained fresh: name → persistable predictor.
fn demo_models() -> Vec<(&'static str, Box<dyn edm::PersistentPredictor + Send + Sync>)> {
    let (x, y) = blobs(120);
    let labels: Vec<i32> = y.iter().map(|&v| v as i32).collect();
    // A smooth synthetic "fmax" response over the same features.
    let fmax: Vec<f64> = x.iter().map(|r| 3.1 + 0.8 * r[0] - 0.4 * r[1]).collect();
    vec![
        (
            "passfail-svc",
            Box::new(
                SvcTrainer::new(SvcParams::default())
                    .kernel(RbfKernel::new(0.5))
                    .fit(&x, &y)
                    .expect("separable blobs train"),
            ),
        ),
        ("fmax-ridge", Box::new(Ridge::fit(&x, &fmax, 0.1).expect("ridge fits"))),
        (
            "outlier-oneclass",
            Box::new(
                OneClassSvm::new(OneClassParams::default().with_nu(0.1))
                    .kernel(RbfKernel::new(0.5))
                    .fit(&x)
                    .expect("one-class fits"),
            ),
        ),
        ("passfail-knn", Box::new(KnnClassifier::fit(5, &x, &labels).expect("knn fits"))),
    ]
}

/// Serves each demo model through a thin adapter (the registry wants
/// `Arc<dyn Predictor>`, the persistence API hands out
/// `Box<dyn PersistentPredictor>`).
struct Demo(Box<dyn edm::PersistentPredictor + Send + Sync>);

impl edm::Predictor for Demo {
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>, edm::Error> {
        self.0.predict_batch(xs)
    }

    fn n_features(&self) -> usize {
        self.0.n_features()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

fn registry() -> ModelRegistry {
    let mut reg = ModelRegistry::new();
    for (name, model) in demo_models() {
        reg.register_arc(name, std::sync::Arc::new(Demo(model)))
            .unwrap_or_else(|e| panic!("register {name}: {e}"));
    }
    reg
}

/// Persists the demo models into `dir` as `*.edm` containers and
/// exits. Seeds a model directory for the reload path.
fn save_demo(dir: &str) {
    let store = ModelStore::new(dir);
    for (name, model) in demo_models() {
        let (path, checksum) =
            store.save(name, model.as_ref()).unwrap_or_else(|e| panic!("persist {name}: {e}"));
        println!("saved {} (crc32 {checksum:#010x})", path.display());
    }
}

fn main() {
    edm_trace::init_from_env_or(edm_trace::Level::Summary);
    let mut args = std::env::args().skip(1);
    let first = args.next();
    if first.as_deref() == Some("--save-demo") {
        let dir = args.next().unwrap_or_else(|| {
            eprintln!("usage: edm_serve --save-demo DIR");
            std::process::exit(2);
        });
        save_demo(&dir);
        return;
    }
    let addr = first.unwrap_or_else(|| "127.0.0.1:8080".to_string());
    let store = ModelStore::from_env();
    let config = ServerConfig {
        model_dir: store.as_ref().map(|s| s.dir().to_path_buf()),
        ..ServerConfig::default()
    };
    let server = Server::start(&addr, registry(), config).expect("bind the requested address");
    let bound = server.local_addr();
    println!("edm-serve listening on http://{bound}");
    if let Some(store) = &store {
        println!("model directory: {} (POST /v1/admin/reload to rescan)", store.dir().display());
    }
    println!();
    println!("try:");
    println!("  curl http://{bound}/healthz");
    println!("  curl http://{bound}/v1/models");
    println!(
        "  curl -d '{{\"inputs\": [[1.4, 1.6], [-1.5, -1.4]]}}' \\\n       http://{bound}/v1/models/passfail-svc:predict"
    );
    println!("  curl -X POST http://{bound}/v1/admin/reload");
    println!("  curl http://{bound}/metrics");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
