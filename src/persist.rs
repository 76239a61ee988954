//! Save/load for every [`Predictor`] family — the facade layer over
//! [`edm_model_io`]'s binary container.
//!
//! A model is saved as its serde [`Value`] — the same data model the
//! JSON round trip uses — [`encode`]d into one `model` section, so the
//! nine families share one codec. Floats travel bitwise
//! ([`f64::to_bits`]), so `save → load → predict` is bitwise identical
//! to predicting with the in-memory model (pinned by proptests in
//! `tests/persist_roundtrip.rs` for all nine families).
//!
//! The write side is the object-safe [`PersistentPredictor`] trait: a
//! `&dyn PersistentPredictor` saves itself with its family tag in the
//! header. The read side is [`load_predictor`], which dispatches on
//! that tag through a closed registry — no downcasting anywhere — then
//! checks what deserialization cannot see (row widths, split features,
//! kernel parameters), so a loaded model scores without panicking.
//! Kernel-generic models (`SvcModel<K>` …) are saved with their kernel
//! as an [`AnyKernel`] and reload as `Model<AnyKernel>`, whose
//! delegated `eval` is bitwise identical to the concrete kernel's.

use std::io::{Read, Write};

use serde::{Deserialize, Serialize, Value};

use crate::kernels::{AnyKernel, Kernel, RbfKernel};
use crate::learn::forest::RandomForestClassifier;
use crate::learn::gp::GpRegressor;
use crate::learn::knn::{KnnClassifier, KnnRegressor};
use crate::learn::linreg::{LeastSquares, Ridge};
use crate::model_io::{decode, encode, IoError, ModelReader, ModelWriter};
use crate::svm::{OneClassModel, SvcModel, SvrModel};
use crate::{Error, Predictor};

/// A [`Predictor`] that can serialize itself into the workspace's
/// versioned binary container and be reloaded by [`load_predictor`].
///
/// The trait is object-safe: `edm-serve` persists `dyn` registry
/// entries without knowing their concrete type. The family tag written
/// to the container header is [`Predictor::name`], which is also the
/// dispatch key [`load_predictor`] uses.
pub trait PersistentPredictor: Predictor {
    /// Serializes the model (header, checksummed section, file CRC)
    /// to `w`.
    ///
    /// # Errors
    ///
    /// [`Error::ModelIo`] if the writer fails, or if the model nests
    /// deeper than [`model_io::MAX_DEPTH`](crate::model_io::MAX_DEPTH)
    /// (a tree too deep to load again).
    fn save(&self, w: &mut dyn Write) -> Result<(), Error>;
}

/// A predictor reloaded from a container, with the file metadata the
/// serve layer reports.
pub struct LoadedModel {
    /// The reconstructed model, ready to score.
    pub model: Box<dyn PersistentPredictor + Send + Sync>,
    /// The container's whole-file CRC-32 — a stable fingerprint of the
    /// saved bytes.
    pub checksum: u32,
    /// The schema version the file was written with.
    pub version: u16,
}

impl std::fmt::Debug for LoadedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadedModel")
            .field("family", &self.model.name())
            .field("n_features", &self.model.n_features())
            .field("checksum", &self.checksum)
            .field("version", &self.version)
            .finish()
    }
}

/// The one section every container carries: the model's encoded value.
const SECTION: &str = "model";

fn malformed(mut detail: String) -> Error {
    // Deserialization errors quote the offending value, which can be
    // a whole support-vector matrix.
    if detail.len() > 240 {
        detail.truncate(detail.floor_char_boundary(240));
        detail.push('…');
    }
    Error::ModelIo(IoError::Malformed { detail })
}

fn write_container(family: &str, value: &Value, w: &mut dyn Write) -> Result<(), Error> {
    let mut mw = ModelWriter::new(family);
    mw.add_section(SECTION, encode(value)?);
    mw.write_to(w).map_err(Error::ModelIo)
}

macro_rules! persistent {
    ($($model:ty),*) => {$(
        impl PersistentPredictor for $model {
            fn save(&self, w: &mut dyn Write) -> Result<(), Error> {
                let _span = edm_trace::span("model_io.save");
                write_container(self.name(), &self.to_value(), w)
            }
        }
    )*};
}

persistent!(LeastSquares, Ridge, KnnClassifier, KnnRegressor, RandomForestClassifier);

/// Kernel-generic families store their kernel as an [`AnyKernel`], the
/// closed type they reload with.
macro_rules! persistent_kernel_model {
    ($($model:ident),*) => {$(
        impl<K> PersistentPredictor for $model<K>
        where
            K: Kernel<[f64]> + Clone + Serialize,
            AnyKernel: From<K>,
        {
            fn save(&self, w: &mut dyn Write) -> Result<(), Error> {
                let _span = edm_trace::span("model_io.save");
                let mut value = self.to_value();
                if let Value::Map(fields) = &mut value {
                    for (name, field) in fields {
                        if name == "kernel" {
                            *field = AnyKernel::from(self.kernel().clone()).to_value();
                        }
                    }
                }
                write_container(self.name(), &value, w)
            }
        }
    )*};
}

persistent_kernel_model!(SvcModel, SvrModel, OneClassModel, GpRegressor);

/// A family [`load_predictor`] rebuilds: deserialized from the
/// container's value, then checked for the invariants a fitted model
/// holds and the derive cannot see.
trait Loadable: PersistentPredictor + Deserialize + Send + Sync + 'static {
    /// Fails if scoring the model could panic or read out of bounds.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }
}

impl Loadable for LeastSquares {}
impl Loadable for Ridge {}

/// One coefficient per support vector, every support vector as wide as
/// the model, and a kernel its constructor would accept.
fn validate_svm(
    kernel: &AnyKernel,
    n_features: usize,
    support: &[Vec<f64>],
    coef: &[f64],
) -> Result<(), String> {
    kernel.check()?;
    if support.len() != coef.len() {
        return Err(format!("{} support vectors but {} coefficients", support.len(), coef.len()));
    }
    match support.iter().find(|sv| sv.len() != n_features) {
        Some(sv) => {
            Err(format!("support vector of width {} in a {n_features}-feature model", sv.len()))
        }
        None => Ok(()),
    }
}

macro_rules! loadable_svm {
    ($($model:ident),*) => {$(
        impl Loadable for $model<AnyKernel> {
            fn validate(&self) -> Result<(), String> {
                validate_svm(
                    self.kernel(),
                    self.n_features(),
                    self.support_vectors(),
                    self.coefficients(),
                )
            }
        }
    )*};
}

loadable_svm!(SvcModel, SvrModel, OneClassModel);

impl Loadable for GpRegressor<AnyKernel> {
    fn validate(&self) -> Result<(), String> {
        self.kernel().check()?;
        self.check().map_err(|e| e.to_string())
    }
}

macro_rules! loadable_checked {
    ($($model:ty),*) => {$(
        impl Loadable for $model {
            fn validate(&self) -> Result<(), String> {
                self.check().map_err(|e| e.to_string())
            }
        }
    )*};
}

loadable_checked!(KnnClassifier, KnnRegressor, RandomForestClassifier);

type Loader = fn(&Value) -> Result<Box<dyn PersistentPredictor + Send + Sync>, Error>;

fn load_as<M: Loadable>(
    value: &Value,
) -> Result<Box<dyn PersistentPredictor + Send + Sync>, Error> {
    let model = M::from_value(value).map_err(|e| malformed(e.0))?;
    model.validate().map_err(|detail| malformed(format!("{}: {detail}", model.name())))?;
    Ok(Box::new(model))
}

// ---- registry-dispatched load ------------------------------------------

/// The family tags [`load_predictor`] dispatches on, in registry order —
/// exactly the nine [`Predictor`] families.
pub const FAMILIES: [&str; 9] = [
    "svc",
    "svr",
    "one_class_svm",
    "least_squares",
    "ridge",
    "gp_regressor",
    "knn_classifier",
    "knn_regressor",
    "random_forest",
];

/// Reloads a model saved by [`PersistentPredictor::save`], dispatching
/// on the family tag in the container header.
///
/// # Errors
///
/// [`Error::ModelIo`] for container-level failures (bad magic,
/// unsupported schema version, checksum mismatch, truncation, missing
/// section, unknown family), and [`IoError::Malformed`] for a payload
/// that does not decode, nests too deep, or describes a model no fit
/// could produce (see the family checks in DESIGN.md §14).
pub fn load_predictor(r: &mut dyn Read) -> Result<LoadedModel, Error> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes).map_err(|e| Error::ModelIo(IoError::Io(e)))?;
    load_predictor_from_bytes(&bytes)
}

/// In-memory variant of [`load_predictor`].
///
/// # Errors
///
/// As for [`load_predictor`].
pub fn load_predictor_from_bytes(bytes: &[u8]) -> Result<LoadedModel, Error> {
    let _span = edm_trace::span("model_io.load");
    let reader = ModelReader::from_bytes(bytes)?;
    let load: Loader = match reader.family() {
        "svc" => load_as::<SvcModel<AnyKernel>>,
        "svr" => load_as::<SvrModel<AnyKernel>>,
        "one_class_svm" => load_as::<OneClassModel<AnyKernel>>,
        "least_squares" => load_as::<LeastSquares>,
        "ridge" => load_as::<Ridge>,
        "gp_regressor" => load_as::<GpRegressor<AnyKernel>>,
        "knn_classifier" => load_as::<KnnClassifier>,
        "knn_regressor" => load_as::<KnnRegressor>,
        "random_forest" => load_as::<RandomForestClassifier>,
        other => return Err(malformed(format!("unknown model family {other:?}"))),
    };
    let model = load(&decode(reader.section(SECTION)?)?)?;
    Ok(LoadedModel { model, checksum: reader.checksum(), version: reader.version() })
}

/// Trains a fresh model of the named family with that family's default
/// hyperparameters — the refit primitive behind `edm-serve`'s
/// `POST /v1/models/{name}:train`.
///
/// Label conventions follow [`Predictor`]:
/// classifiers cast `y` to integer labels (SVC wants `±1.0`), the
/// one-class family ignores `y` entirely, and regressors take `y` as
/// given. Training is deterministic (the forest uses a fixed seed).
///
/// # Errors
///
/// The underlying family's fit error, or [`Error::ModelIo`] with a
/// [`IoError::Malformed`] detail for an unknown family tag.
pub fn fit_family(
    family: &str,
    x: &[Vec<f64>],
    y: &[f64],
) -> Result<Box<dyn PersistentPredictor + Send + Sync>, Error> {
    use rand::SeedableRng;
    let knn_k = |n: usize| 5usize.min(n.max(1));
    match family {
        "svc" => {
            let m = crate::svm::SvcTrainer::new(crate::svm::SvcParams::default())
                .kernel(AnyKernel::from(RbfKernel::new(1.0)))
                .fit(x, y)?;
            Ok(Box::new(m))
        }
        "svr" => {
            let m = crate::svm::SvrTrainer::new(crate::svm::SvrParams::default())
                .kernel(AnyKernel::from(RbfKernel::new(1.0)))
                .fit(x, y)?;
            Ok(Box::new(m))
        }
        "one_class_svm" => {
            let m = crate::svm::OneClassSvm::new(crate::svm::OneClassParams::default())
                .kernel(AnyKernel::from(RbfKernel::new(1.0)))
                .fit(x)?;
            Ok(Box::new(m))
        }
        "least_squares" => Ok(Box::new(LeastSquares::fit(x, y)?)),
        "ridge" => Ok(Box::new(Ridge::fit(x, y, 1.0)?)),
        "gp_regressor" => {
            let m = GpRegressor::fit(x, y, AnyKernel::from(RbfKernel::new(1.0)), 1e-6)?;
            Ok(Box::new(m))
        }
        "knn_classifier" => {
            let labels: Vec<i32> = y.iter().map(|&v| v as i32).collect();
            Ok(Box::new(KnnClassifier::fit(knn_k(x.len()), x, &labels)?))
        }
        "knn_regressor" => Ok(Box::new(KnnRegressor::fit(knn_k(x.len()), x, y)?)),
        "random_forest" => {
            let labels: Vec<i32> = y.iter().map(|&v| v as i32).collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(0);
            let m = RandomForestClassifier::fit(
                x,
                &labels,
                crate::learn::forest::ForestParams::default(),
                &mut rng,
            )?;
            Ok(Box::new(m))
        }
        other => Err(malformed(format!("unknown model family {other:?}"))),
    }
}
