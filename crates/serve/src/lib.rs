//! # edm-serve — dependency-free model serving for trained edm models
//!
//! A small HTTP/1.1 scoring service built entirely on `std::net`: no
//! async runtime, no web framework, no serde on the wire. Models that
//! implement the facade's object-safe [`edm::Predictor`] trait are
//! registered by name in a [`ModelRegistry`] and served by a fixed
//! worker pool ([`edm_par::pool::WorkerPool`]) behind a bounded queue —
//! when the queue is full the server answers `503` with `retry-after`
//! instead of stalling the client or buffering without limit.
//!
//! Connections are **persistent** (HTTP/1.1 keep-alive): one worker
//! serves a request loop per connection until `Connection: close`, the
//! idle timeout, or the per-connection request cap. Concurrent predict
//! requests for the same model **coalesce** through the
//! [`batch::BatchScheduler`] into single `predict_batch` calls (bitwise
//! identical to unbatched scoring), and per-model
//! [`AdmissionTier`] quotas keep one hot model
//! from starving the rest of the registry.
//!
//! Endpoints:
//!
//! | Route | Method | Purpose |
//! |---|---|---|
//! | `/v1/models/{name}:predict` | POST | Score a JSON batch (`{"inputs": [[...], ...]}`) |
//! | `/v1/models/{name}:train` | POST | Fit a fresh model (`{"family", "inputs", "targets"}`), persist it to the model directory, publish it as the next generation |
//! | `/v1/models` | GET | List registered models with `{family, n_features, generation, loaded_from, checksum}` |
//! | `/v1/admin/reload` | POST | Rescan the model directory and swap in the next registry generation |
//! | `/v1/trace` | GET | Live [`edm_trace::TraceReport`] JSON (debug) |
//! | `/healthz` | GET | Liveness probe |
//! | `/metrics` | GET | OpenMetrics exposition: trace registry + per-`endpoint × model` request series (lifetime + rolling-window latency) + micro-batch and admission-tier families |
//!
//! Every request is answered with an `x-request-id` header that
//! matches the server's access log line (`EDM_SERVE_LOG=1`; slow
//! requests past `EDM_SERVE_SLOW_MS` are always logged).
//!
//! ## Train once, serve many
//!
//! Models persisted with the facade's [`edm::PersistentPredictor`]
//! API (`*.edm` containers, see `edm-model-io`) are served straight
//! from a **model directory** ([`ModelStore`], configured with
//! [`ServerConfig::model_dir`] or `EDM_SERVE_MODEL_DIR`): the
//! directory is scanned at startup and again on every
//! `POST /v1/admin/reload`, and each scan is published atomically as a
//! new registry **generation** ([`SharedRegistry`]). In-flight
//! requests keep scoring against the snapshot they started with —
//! a reload never fails or reroutes admitted work — and every predict
//! response reports the generation it was scored against in an
//! `x-model-generation` header.
//!
//! Scoring fans through the same `predict_batch` paths the library
//! exposes directly, so a prediction served over HTTP is bitwise
//! identical to one computed in-process (pinned by this crate's
//! property tests).
//!
//! The threaded server lives behind the `parallel` feature (mirroring
//! the workspace's "no threads without `parallel`" invariant); the
//! JSON codec, HTTP parser, and registry compile featureless.
//!
//! ```
//! use edm::prelude::*;
//! use edm_serve::ModelRegistry;
//!
//! let x = vec![vec![0.0, 0.0], vec![1.0, 0.5], vec![0.5, 1.0], vec![1.0, 1.0]];
//! let y = vec![0.0, 1.0, 1.0, 2.0];
//! let mut registry = ModelRegistry::new();
//! registry.register("fmax-ridge", Ridge::fit(&x, &y, 0.1)?)?;
//! assert_eq!(registry.names(), vec!["fmax-ridge"]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod http;
pub mod json;
pub mod metrics;
pub mod registry;
#[cfg(feature = "parallel")]
pub mod server;
pub mod store;

pub use batch::{BatchConfig, BatchScheduler};
pub use metrics::{BatchSnapshot, LatencySnapshot, ServeMetrics};
pub use registry::{
    AdmissionTier, ModelEntry, ModelInfo, ModelRegistry, RegistryError, RegistrySnapshot,
    ServedModel, SharedRegistry, TierGate, TierPermit,
};
#[cfg(feature = "parallel")]
pub use server::{ServeError, Server, ServerConfig};
pub use store::{ModelStore, ScanReport, StoredModel};
