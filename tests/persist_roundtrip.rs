//! Persistence contract tests: `save → load → predict` is bitwise
//! identical for every model family, corrupted containers fail with
//! typed [`edm::Error::ModelIo`] variants instead of garbage models,
//! and a container with valid checksums but a hostile payload either
//! fails the same way or loads a model that scores without panicking.

use std::panic::{self, AssertUnwindSafe};
use std::sync::OnceLock;

use edm::learn::forest::RandomForestClassifier;
use edm::model_io::{decode, encode, IoError, ModelReader, ModelWriter, MAX_DEPTH};
use edm::{fit_family, load_predictor_from_bytes, Error, PersistentPredictor, FAMILIES};
use proptest::prelude::*;
use serde::{Deserialize, Value};

/// Training targets that satisfy every family: regressors see the
/// continuous values, classifier families (svc, knn_classifier,
/// random_forest) truncate them to i32 labels, so keeping them at
/// exactly ±1.0 gives two well-formed classes.
fn labels(n: usize) -> Vec<f64> {
    (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect()
}

fn save_to_vec(model: &dyn edm::PersistentPredictor) -> Vec<u8> {
    let mut bytes = Vec::new();
    model.save(&mut bytes).expect("in-memory save cannot fail");
    bytes
}

fn feature_rows(n: usize, d: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(-5.0..5.0f64, d), n)
}

proptest! {
    // Each case fits, saves, and reloads all nine families; a handful
    // of cases already exercises the full byte layout.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn save_load_predict_is_bitwise_identical_for_every_family(
        x in feature_rows(12, 3),
        probes in feature_rows(5, 3),
    ) {
        let y = labels(x.len());
        for family in FAMILIES {
            // Separate labels from features so svc always sees both
            // classes regardless of the sampled geometry.
            let model = match fit_family(family, &x, &y) {
                Ok(m) => m,
                // Degenerate samples (e.g. duplicate points) may
                // legitimately fail to train; the persistence contract
                // only covers models that exist.
                Err(_) => continue,
            };
            let bytes = save_to_vec(model.as_ref());
            let loaded = load_predictor_from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{family}: fresh container failed to load: {e}"));
            prop_assert_eq!(loaded.model.name(), model.name());
            prop_assert_eq!(loaded.model.n_features(), model.n_features());
            let direct = model.predict_batch(&probes).expect("direct predictions");
            let reloaded = loaded.model.predict_batch(&probes).expect("reloaded predictions");
            prop_assert_eq!(direct.len(), reloaded.len());
            for (i, (d, r)) in direct.iter().zip(&reloaded).enumerate() {
                prop_assert_eq!(
                    d.to_bits(),
                    r.to_bits(),
                    "{} changed probe {} across the round trip: {} vs {}",
                    family, i, d, r
                );
            }
            // Saving the reloaded model reproduces the container
            // byte-for-byte: the format has one canonical encoding.
            let again = save_to_vec(loaded.model.as_ref());
            prop_assert_eq!(&bytes, &again, "{} re-save diverged", family);
        }
    }
}

fn ridge_container() -> Vec<u8> {
    let x = vec![vec![0.0, 0.0], vec![1.0, 0.5], vec![0.5, 1.0], vec![1.0, 1.0]];
    let y = vec![0.0, 1.0, 1.0, 2.0];
    let model = fit_family("ridge", &x, &y).expect("ridge fits");
    save_to_vec(model.as_ref())
}

#[test]
fn truncated_container_is_a_typed_error() {
    let bytes = ridge_container();
    for keep in [bytes.len() - 1, bytes.len() / 2, 9, 3, 0] {
        match load_predictor_from_bytes(&bytes[..keep]) {
            Err(Error::ModelIo(IoError::Truncated { .. } | IoError::FileChecksum { .. })) => {}
            other => panic!("truncation at {keep} bytes gave {other:?}"),
        }
    }
}

#[test]
fn flipped_byte_fails_the_file_checksum() {
    let mut bytes = ridge_container();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    match load_predictor_from_bytes(&bytes) {
        Err(Error::ModelIo(IoError::FileChecksum { expected, found })) => {
            assert_ne!(expected, found);
        }
        other => panic!("corrupted payload gave {other:?}"),
    }
}

#[test]
fn future_schema_version_is_refused_up_front() {
    let mut bytes = ridge_container();
    // Bytes 4..6 hold the little-endian schema version, checked before
    // the file checksum so old builds explain new files crisply.
    let future = (edm::model_io::SCHEMA_VERSION + 1).to_le_bytes();
    bytes[4] = future[0];
    bytes[5] = future[1];
    match load_predictor_from_bytes(&bytes) {
        Err(Error::ModelIo(IoError::UnsupportedVersion { found, supported })) => {
            assert_eq!(found, edm::model_io::SCHEMA_VERSION + 1);
            assert_eq!(supported, edm::model_io::SCHEMA_VERSION);
        }
        other => panic!("future version gave {other:?}"),
    }
}

#[test]
fn wrong_magic_is_not_a_model_file() {
    let mut bytes = ridge_container();
    bytes[0] = b'X';
    match load_predictor_from_bytes(&bytes) {
        Err(Error::ModelIo(IoError::BadMagic { found })) => assert_eq!(&found, b"XDMM"),
        other => panic!("bad magic gave {other:?}"),
    }
}

#[test]
fn version_one_files_are_refused() {
    let mut bytes = ridge_container();
    bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
    match load_predictor_from_bytes(&bytes) {
        Err(Error::ModelIo(IoError::UnsupportedVersion { found: 1, supported })) => {
            assert_eq!(supported, edm::model_io::SCHEMA_VERSION);
        }
        other => panic!("version-1 file gave {other:?}"),
    }
}

// ---- crafted containers: valid CRCs, hostile payloads -------------------

/// The section every container carries its model value in.
const SECTION: &str = "model";

fn container(family: &str, payload: Vec<u8>) -> Vec<u8> {
    let mut w = ModelWriter::new(family);
    w.add_section(SECTION, payload);
    w.to_bytes().expect("in-memory container")
}

fn map(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn leaf(label: i64) -> Value {
    map(vec![(
        "Leaf",
        map(vec![
            ("value", Value::F64(label as f64)),
            ("counts", Value::Seq(vec![Value::Seq(vec![Value::I64(label), Value::I64(1)])])),
        ]),
    )])
}

/// A split on `feature` whose right subtree is `right`.
fn split(feature: i64, right: Value) -> Value {
    map(vec![(
        "Split",
        map(vec![
            ("feature", Value::I64(feature)),
            ("threshold", Value::F64(0.5)),
            ("left", leaf(0)),
            ("right", right),
        ]),
    )])
}

fn forest(root: Value, n_features: i64) -> Value {
    map(vec![
        ("trees", Value::Seq(vec![map(vec![("root", root)])])),
        ("n_features", Value::I64(n_features)),
    ])
}

/// A one-tree forest whose tree is a right-leaning chain of `depth`
/// splits on feature 0.
fn chain_forest(depth: usize) -> Value {
    forest((0..depth).fold(leaf(1), |right, _| split(0, right)), 1)
}

fn expect_malformed(bytes: &[u8], what: &str) {
    match load_predictor_from_bytes(bytes) {
        Err(Error::ModelIo(IoError::Malformed { .. })) => {}
        Err(other) => panic!("{what}: expected Malformed, got {other}"),
        Ok(m) => panic!("{what}: loaded a {} model", m.model.name()),
    }
}

#[test]
fn crafted_forest_chains_load_until_the_depth_cap() {
    // A chain of s splits nests 2s + 8 values deep (forest, trees,
    // tree, then two per split, then the leaf and its class counts).
    let deepest = (MAX_DEPTH - 8) / 2;
    let bytes = container("random_forest", encode(&chain_forest(deepest)).expect("fits"));
    let loaded = load_predictor_from_bytes(&bytes).expect("a chain within the cap loads");
    assert_eq!(loaded.model.predict_batch(&[vec![0.0], vec![1.0]]).unwrap(), vec![0.0, 1.0]);
    assert!(encode(&chain_forest(deepest + 1)).is_err(), "one split more exceeds the cap");
}

#[test]
fn ten_thousand_split_chain_is_malformed_not_a_crash() {
    // Spliced byte by byte, so the test never builds (or drops) a
    // 20 000-level value itself: the right subtree is the last field
    // of a split, so every split's encoding is a prefix that ends where
    // its right child starts.
    const HOLE: &str = "<subtree>";
    let hole = encode(&Value::Str(HOLE.into())).expect("flat");
    let prefix = |v: &Value| {
        let bytes = encode(v).expect("shallow");
        let at = bytes.windows(hole.len()).position(|w| w == hole).expect("hole present");
        (bytes[..at].to_vec(), bytes[at + hole.len()..].to_vec())
    };
    let (split_head, split_tail) = prefix(&split(0, Value::Str(HOLE.into())));
    assert!(split_tail.is_empty(), "the right child closes a split's encoding");
    let (forest_head, forest_tail) = prefix(&forest(Value::Str(HOLE.into()), 1));
    let mut payload = forest_head;
    for _ in 0..10_000 {
        payload.extend_from_slice(&split_head);
    }
    payload.extend_from_slice(&encode(&leaf(1)).expect("flat"));
    payload.extend_from_slice(&forest_tail);
    assert!(payload.len() > 300_000, "the chain is {} bytes", payload.len());
    expect_malformed(&container("random_forest", payload), "10 000-split chain");
}

#[test]
fn saving_a_tree_deeper_than_the_cap_fails_without_writing() {
    let too_deep = chain_forest((MAX_DEPTH - 8) / 2 + 1);
    let model = RandomForestClassifier::from_value(&too_deep).expect("any depth deserializes");
    let mut bytes = Vec::new();
    match model.save(&mut bytes) {
        Err(Error::ModelIo(IoError::Malformed { .. })) => {}
        other => panic!("saving an over-deep forest gave {other:?}"),
    }
    assert!(bytes.is_empty(), "a refused save writes nothing");
}

#[test]
fn forest_split_past_the_feature_count_is_malformed() {
    let bytes = container("random_forest", encode(&forest(split(7, leaf(1)), 1)).unwrap());
    expect_malformed(&bytes, "split on feature 7 of 1");
    let no_trees = map(vec![("trees", Value::Seq(vec![])), ("n_features", Value::I64(1))]);
    expect_malformed(&container("random_forest", encode(&no_trees).unwrap()), "zero trees");
}

/// Fits `family` on 3-feature data, saves it, and returns the container
/// with `edit` applied to the model value's top-level fields.
fn tampered(family: &str, edit: impl FnOnce(&mut Vec<(String, Value)>)) -> Vec<u8> {
    let x: Vec<Vec<f64>> =
        (0..10).map(|i| vec![i as f64 * 0.3, (i % 3) as f64, 1.0 - i as f64 * 0.1]).collect();
    let model = fit_family(family, &x, &labels(x.len())).expect("fits");
    let bytes = save_to_vec(model.as_ref());
    let reader = ModelReader::from_bytes(&bytes).expect("fresh container");
    let mut value = decode(reader.section(SECTION).expect("model section")).expect("decodes");
    let Value::Map(fields) = &mut value else { panic!("{family} saves a map") };
    edit(fields);
    container(family, encode(&value).expect("still shallow"))
}

fn field<'a>(fields: &'a mut [(String, Value)], name: &str) -> &'a mut Value {
    &mut fields.iter_mut().find(|(k, _)| k == name).unwrap_or_else(|| panic!("no {name}")).1
}

fn narrow_first_row(rows: &mut Value) {
    let Value::Seq(rows) = rows else { panic!("rows are a sequence") };
    rows[0] = Value::Seq(vec![Value::F64(0.0)]);
}

#[test]
fn rows_narrower_than_the_model_are_malformed() {
    for (family, rows) in [
        ("svc", "support"),
        ("svr", "support"),
        ("one_class_svm", "support"),
        ("gp_regressor", "x"),
        ("knn_classifier", "x"),
        ("knn_regressor", "x"),
    ] {
        let bytes = tampered(family, |f| narrow_first_row(field(f, rows)));
        expect_malformed(&bytes, &format!("{family} with a 1-wide {rows} row"));
    }
}

#[test]
fn gp_factor_of_the_wrong_shape_is_malformed() {
    let one_by_one = map(vec![
        ("rows", Value::I64(1)),
        ("cols", Value::I64(1)),
        ("data", Value::Seq(vec![Value::F64(1.0)])),
    ]);
    let bytes = tampered("gp_regressor", |f| *field(f, "chol") = map(vec![("l", one_by_one)]));
    expect_malformed(&bytes, "1x1 Cholesky factor for 10 samples");
    let bytes = tampered("gp_regressor", |f| {
        let Value::Map(chol) = field(f, "chol") else { panic!("chol is a struct") };
        let Value::Map(l) = field(chol, "l") else { panic!("l is a struct") };
        *field(l, "rows") = Value::I64(11);
    });
    expect_malformed(&bytes, "11x10 matrix holding 100 entries");
}

#[test]
fn the_loaders_older_checks_still_hold() {
    let drop_last_coef = |f: &mut Vec<(String, Value)>| {
        let Value::Seq(c) = field(f, "coef") else { panic!("coef is a sequence") };
        c.pop();
    };
    for family in ["svc", "svr", "one_class_svm"] {
        expect_malformed(&tampered(family, drop_last_coef), &format!("{family} coef mismatch"));
    }
    for family in ["knn_classifier", "knn_regressor"] {
        expect_malformed(&tampered(family, |f| *field(f, "k") = Value::I64(0)), "k = 0");
        let empty = |f: &mut Vec<(String, Value)>| {
            *field(f, "x") = Value::Seq(vec![]);
            *field(f, "y") = Value::Seq(vec![]);
        };
        expect_malformed(&tampered(family, empty), &format!("{family} without samples"));
    }
    let rbf = map(vec![("Rbf", map(vec![("gamma", Value::F64(-1.0))]))]);
    let poly = map(vec![(
        "Poly",
        map(vec![
            ("degree", Value::I64(0)),
            ("gamma", Value::F64(1.0)),
            ("coef0", Value::F64(0.0)),
        ]),
    )]);
    for kernel in [rbf, poly] {
        for family in ["svc", "gp_regressor"] {
            let bytes = tampered(family, |f| *field(f, "kernel") = kernel.clone());
            expect_malformed(&bytes, &format!("{family} with kernel {kernel:?}"));
        }
    }
}

// ---- adversarial payload mutation ----------------------------------------

/// One valid container per family, fitted once for every mutation case.
fn family_containers() -> &'static [(&'static str, Vec<u8>)] {
    static CONTAINERS: OnceLock<Vec<(&'static str, Vec<u8>)>> = OnceLock::new();
    CONTAINERS.get_or_init(|| {
        let x: Vec<Vec<f64>> =
            (0..12).map(|i| vec![(i as f64 * 0.7).sin(), (i % 4) as f64, i as f64 * 0.1]).collect();
        let y = labels(x.len());
        FAMILIES
            .iter()
            .map(|&family| {
                let model = fit_family(family, &x, &y).expect("every family fits this set");
                (family, save_to_vec(model.as_ref()))
            })
            .collect()
    })
}

/// Applies the mutation `op` packs to `payload`. Its low three bits
/// pick the kind: a bit flip (five times in eight, since flips are what
/// most often leave a decodable model), a byte insert, a byte delete
/// or a truncation; the higher bits pick the position and the byte.
fn mutate(payload: &mut Vec<u8>, op: u64) {
    let (pos, byte) = ((op >> 3) as usize, (op >> 40) as u8);
    let len = payload.len();
    match op & 7 {
        0..=4 if len > 0 => payload[pos % len] ^= 1 << (byte % 8),
        5 => payload.insert(pos % (len + 1), byte),
        6 if len > 0 => {
            payload.remove(pos % len);
        }
        7 => payload.truncate(pos % (len + 1)),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mutated_payloads_never_panic_on_load_or_predict(
        ops in proptest::collection::vec(0..u64::MAX, 1..3),
    ) {
        for (family, bytes) in family_containers() {
            let reader = ModelReader::from_bytes(bytes).expect("fresh container");
            let mut payload = reader.section(SECTION).expect("model section").to_vec();
            for &op in &ops {
                mutate(&mut payload, op);
            }
            // Re-wrapping re-seals both CRCs, so the mutated bytes reach
            // the decoder instead of failing the checksum.
            let resealed = container(family, payload);
            let loaded = panic::catch_unwind(|| load_predictor_from_bytes(&resealed));
            let Ok(loaded) = loaded else {
                panic!("{family}: load panicked on mutations {ops:?}");
            };
            let Ok(loaded) = loaded else { continue };
            let width = loaded.model.n_features();
            // Only a model with no rows can claim a width nothing in it
            // backs; there is nothing to score in it.
            if width > 1 << 12 {
                continue;
            }
            let probes = vec![vec![0.25; width], vec![-1.5; width], vec![3.0; width]];
            let scored = panic::catch_unwind(AssertUnwindSafe(|| loaded.model.predict_batch(&probes)));
            match scored {
                Ok(Ok(values)) => prop_assert_eq!(values.len(), probes.len()),
                Ok(Err(e)) => panic!("{family}: shaped probes refused after mutations {ops:?}: {e}"),
                Err(_) => panic!("{family}: predict panicked after mutations {ops:?}"),
            }
        }
    }
}
