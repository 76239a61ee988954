//! Adversarial properties of the JSON the server reads: the predict
//! fast path agrees bit for bit with the general `serde_json` path on
//! every number rendering it accepts, and arbitrarily deep nesting is
//! an error past the cap, never a stack overflow.

use edm_serve::json::{self, Value};
use proptest::prelude::*;

/// The rows of `{"inputs": ...}` through the general parser.
fn general_rows(body: &str) -> Option<Vec<Vec<f64>>> {
    let doc = json::parse(body).ok()?;
    doc.get("inputs")?
        .as_array()?
        .iter()
        .map(|row| row.as_array()?.iter().map(Value::as_f64).collect())
        .collect()
}

/// `x` rendered the ways Rust prints floats; non-finite values render
/// as `NaN`/`inf`, which both paths must reject.
fn renderings(x: f64) -> [String; 3] {
    [format!("{x:?}"), format!("{x}"), format!("{x:e}")]
}

/// Asserts the fast path accepts exactly what the general parser
/// accepts for `{"inputs": [cells]}`, with bitwise-equal rows.
fn assert_paths_agree(cells: &[String]) {
    let body = format!("{{\"inputs\": [[{}]]}}", cells.join(", "));
    let fast = json::parse_inputs_fast(&body);
    let general = general_rows(&body);
    assert_eq!(fast.is_some(), general.is_some(), "paths disagree on {body}");
    if let (Some(fast), Some(general)) = (fast, general) {
        let bits = |rows: &[Vec<f64>]| -> Vec<u64> {
            rows.iter().flatten().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(&fast), bits(&general), "rows differ for {body}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fast_path_matches_the_general_path_on_any_f64(bits in 0u64..u64::MAX) {
        let x = f64::from_bits(bits);
        for cell in renderings(x) {
            assert_paths_agree(&[cell]);
        }
        assert_paths_agree(&renderings(x));
    }

    #[test]
    fn fast_path_matches_the_general_path_on_integers(
        i in i64::MIN..i64::MAX,
        u in 0u64..u64::MAX,
        scale in -30i32..30,
    ) {
        let tiny = 10f64.powi(scale) * (i as f64);
        let cells = [i.to_string(), u.to_string(), "-0".to_string(), format!("{tiny:?}")];
        for cell in &cells {
            assert_paths_agree(std::slice::from_ref(cell));
        }
        assert_paths_agree(&cells);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deep_nesting_is_an_error_past_the_cap(depth in 1usize..10_000) {
        let arrays = "[".repeat(depth) + &"]".repeat(depth);
        assert_eq!(json::parse(&arrays).is_ok(), depth <= 128, "depth {depth}");
        let objects = "{\"k\":".repeat(depth) + "0" + &"}".repeat(depth);
        assert_eq!(json::parse(&objects).is_ok(), depth <= 128, "depth {depth}");
        // Unclosed, and inside a predict body: errors at any depth.
        assert!(json::parse(&"[".repeat(depth)).is_err());
        let body = format!("{{\"inputs\": {}}}", "[".repeat(depth) + &"]".repeat(depth));
        assert!(json::parse_inputs_fast(&body).is_none() || depth <= 2);
        assert_eq!(json::parse(&body).is_ok(), depth < 128, "inputs depth {depth}");
    }
}

#[test]
fn a_mebibyte_of_open_brackets_is_an_error() {
    let body = "[".repeat(1 << 20);
    assert!(json::parse(&body).is_err());
    assert!(json::parse_inputs_fast(&body).is_none());
}
