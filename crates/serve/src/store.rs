//! The model directory behind hot reload: `*.edm` containers on disk,
//! scanned into a registry generation at startup and on
//! `POST /v1/admin/reload`, written back by `POST /v1/models/{name}:train`.
//!
//! The layout is deliberately flat: every file `<name>.edm` directly
//! under the directory serves one model, registered under its filename
//! stem (which must fit the registry's URL-safe alphabet). Writes are
//! atomic — containers are staged to `<name>.edm.tmp` and renamed into
//! place — so a reload can never observe a half-written model.
//!
//! A corrupt or unloadable file never takes the scan down with it: the
//! scan loads what it can, reports per-file failures in
//! [`ScanReport::errors`], and the serve layer keeps running on
//! whatever loaded. Directory-level failures (the directory itself is
//! unreadable) are the only hard errors.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use edm::model_io::ModelReader;
use edm::persist::load_predictor_from_bytes;
use edm::{Error, PersistentPredictor, Predictor};

use crate::registry::{ModelEntry, ModelRegistry, ServedModel};

/// File extension for persisted model containers.
pub const MODEL_EXTENSION: &str = "edm";

/// Adapter giving a reloaded `Box<dyn PersistentPredictor>` the
/// `Arc<dyn Predictor>` shape the registry serves (no trait upcasting
/// required).
struct LoadedPredictor(Box<dyn PersistentPredictor + Send + Sync>);

impl Predictor for LoadedPredictor {
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>, Error> {
        self.0.predict_batch(xs)
    }

    fn n_features(&self) -> usize {
        self.0.n_features()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// One model successfully loaded by a [`ModelStore::scan`].
pub struct StoredModel {
    /// Registry name (the filename stem).
    pub name: String,
    /// The reloaded predictor, ready to serve.
    pub model: ServedModel,
    /// Absolute-ish path the container was read from, as displayed in
    /// `/v1/models`.
    pub loaded_from: String,
    /// The container's whole-file CRC-32.
    pub checksum: u32,
}

impl std::fmt::Debug for StoredModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredModel")
            .field("name", &self.name)
            .field("family", &self.model.name())
            .field("loaded_from", &self.loaded_from)
            .field("checksum", &self.checksum)
            .finish()
    }
}

/// Outcome of one directory scan: what loaded, and what did not.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Successfully loaded models, in name order.
    pub models: Vec<StoredModel>,
    /// `(file name, why)` for every `*.edm` file that failed to load
    /// (corrupt container, unknown family, invalid stem), in file-name
    /// order. These are skipped, not fatal.
    pub errors: Vec<(String, String)>,
}

impl ScanReport {
    /// Overlays every loaded model onto `registry` (replacing
    /// same-named entries), producing the next generation's registry.
    /// A replaced entry keeps its admission gate: the tier is serving
    /// policy, not model data, and survives reloads.
    pub fn apply(&self, registry: &mut ModelRegistry) {
        for stored in &self.models {
            let gate = registry.get_entry(&stored.name).and_then(|e| e.gate);
            // Names were validated against the registry alphabet during
            // the scan, so upsert cannot fail here.
            let _ = registry.upsert_entry(
                &stored.name,
                ModelEntry {
                    model: Arc::clone(&stored.model),
                    gate,
                    loaded_from: Some(stored.loaded_from.clone()),
                    checksum: Some(stored.checksum),
                },
            );
        }
    }
}

/// A model directory. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ModelStore {
    dir: PathBuf,
}

impl ModelStore {
    /// A store rooted at `dir`. The directory is created lazily by the
    /// first [`ModelStore::save`]; scanning a missing directory yields
    /// an empty report.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ModelStore { dir: dir.into() }
    }

    /// A store at `EDM_SERVE_MODEL_DIR`, when that variable is set and
    /// non-empty.
    pub fn from_env() -> Option<Self> {
        match std::env::var("EDM_SERVE_MODEL_DIR") {
            Ok(dir) if !dir.is_empty() => Some(ModelStore::new(dir)),
            _ => None,
        }
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Loads every `*.edm` container directly under the directory.
    /// Per-file failures land in [`ScanReport::errors`]; a missing
    /// directory is an empty report.
    ///
    /// # Errors
    ///
    /// Only when the directory exists but cannot be read at all.
    pub fn scan(&self) -> io::Result<ScanReport> {
        let mut report = ScanReport::default();
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(report),
            Err(e) => return Err(e),
        };
        // Sort for deterministic load order and reporting (read_dir
        // order is filesystem-dependent).
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().and_then(|x| x.to_str()) == Some(MODEL_EXTENSION))
            .collect();
        paths.sort();
        for path in paths {
            let file = path.file_name().and_then(|f| f.to_str()).unwrap_or("?").to_string();
            let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
                report.errors.push((file, "non-UTF-8 file stem".to_string()));
                continue;
            };
            if !ModelRegistry::valid_name(name) {
                report.errors.push((
                    file,
                    format!("stem {name:?} is outside the registry alphabet [A-Za-z0-9_.-]"),
                ));
                continue;
            }
            match self.load_file(&path) {
                Ok(stored) => report.models.push(stored),
                Err(e) => report.errors.push((file, e.to_string())),
            }
        }
        Ok(report)
    }

    fn load_file(&self, path: &Path) -> Result<StoredModel, Error> {
        let bytes = fs::read(path).map_err(|e| Error::ModelIo(e.into()))?;
        let loaded = load_predictor_from_bytes(&bytes)?;
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("caller validated the stem")
            .to_string();
        Ok(StoredModel {
            name,
            model: Arc::new(LoadedPredictor(loaded.model)),
            loaded_from: path.display().to_string(),
            checksum: loaded.checksum,
        })
    }

    /// Persists `model` as `<name>.edm`, atomically (staged tmp file +
    /// rename). Returns the final path and the container's CRC-32.
    ///
    /// # Errors
    ///
    /// [`edm::Error::ModelIo`] when encoding or any filesystem step
    /// fails.
    pub fn save(
        &self,
        name: &str,
        model: &dyn PersistentPredictor,
    ) -> Result<(PathBuf, u32), Error> {
        let mut bytes = Vec::new();
        model.save(&mut bytes)?;
        // Re-open the fresh container for its sealed file CRC — the
        // same fingerprint a later load reports.
        let checksum = ModelReader::from_bytes(&bytes).map_err(Error::ModelIo)?.checksum();
        fs::create_dir_all(&self.dir).map_err(|e| Error::ModelIo(e.into()))?;
        let path = self.dir.join(format!("{name}.{MODEL_EXTENSION}"));
        let tmp = self.dir.join(format!("{name}.{MODEL_EXTENSION}.tmp"));
        fs::write(&tmp, &bytes).map_err(|e| Error::ModelIo(e.into()))?;
        fs::rename(&tmp, &path).map_err(|e| Error::ModelIo(e.into()))?;
        Ok((path, checksum))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm::prelude::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("edm-store-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_ridge() -> Ridge {
        let x = vec![vec![0.0, 0.0], vec![1.0, 0.5], vec![0.5, 1.0], vec![1.0, 1.0]];
        let y = vec![0.0, 1.0, 1.0, 2.0];
        Ridge::fit(&x, &y, 0.1).expect("tiny ridge fits")
    }

    #[test]
    fn save_scan_round_trip_preserves_predictions_and_checksum() {
        let store = ModelStore::new(scratch("roundtrip"));
        let ridge = tiny_ridge();
        let (path, checksum) = store.save("plane", &ridge).expect("save");
        assert!(path.ends_with("plane.edm"), "got {path:?}");

        let report = store.scan().expect("scan");
        assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
        assert_eq!(report.models.len(), 1);
        let stored = &report.models[0];
        assert_eq!((stored.name.as_str(), stored.checksum), ("plane", checksum));
        let probe = vec![vec![0.3, 0.7]];
        let direct = edm::Predictor::predict_batch(&ridge, &probe).expect("direct");
        let loaded = stored.model.predict_batch(&probe).expect("loaded");
        assert_eq!(direct[0].to_bits(), loaded[0].to_bits(), "reload changed a score");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_and_misnamed_files_are_skipped_not_fatal() {
        let store = ModelStore::new(scratch("corrupt"));
        store.save("good", &tiny_ridge()).expect("save good");
        fs::write(store.dir().join("broken.edm"), b"not a container").expect("write junk");
        fs::write(store.dir().join("bad name.edm"), b"x").expect("write bad stem");
        fs::write(store.dir().join("ignored.txt"), b"x").expect("write non-model");

        let report = store.scan().expect("scan survives junk");
        let names: Vec<&str> = report.models.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["good"]);
        let failed: Vec<&str> = report.errors.iter().map(|(f, _)| f.as_str()).collect();
        assert_eq!(failed, vec!["bad name.edm", "broken.edm"]);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_directory_scans_empty() {
        let store = ModelStore::new(scratch("missing"));
        let report = store.scan().expect("missing dir is empty, not fatal");
        assert!(report.models.is_empty() && report.errors.is_empty());
    }

    #[test]
    fn apply_overlays_and_replaces() {
        let store = ModelStore::new(scratch("apply"));
        store.save("shared", &tiny_ridge()).expect("save");
        let report = store.scan().expect("scan");

        let mut reg = ModelRegistry::new();
        reg.register("shared", tiny_ridge()).expect("register in-process");
        reg.register("builtin", tiny_ridge()).expect("register builtin");
        report.apply(&mut reg);
        assert_eq!(reg.len(), 2, "overlay replaces, never duplicates");
        let entry = reg.get_entry("shared").expect("entry");
        assert!(entry.loaded_from.is_some(), "disk model must replace the in-process one");
        assert!(reg.get_entry("builtin").expect("entry").loaded_from.is_none());
        let _ = fs::remove_dir_all(store.dir());
    }
}
