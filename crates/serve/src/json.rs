//! The scoring endpoints' JSON document type, over the workspace's
//! `serde_json`.
//!
//! [`Value`] is the tree the handlers walk; [`parse`] and
//! [`Value::encode`] go through `serde_json::from_str`/`to_string`, so
//! the server shares one strict RFC 8259 codec (nesting capped at 128
//! levels, byte offsets in every parse error) with the rest of the
//! workspace. [`parse_inputs_fast`] is the one hand-written reader
//! left: a scanner for the hot predict body that skips the tree.
//!
//! Objects preserve insertion order in a `Vec<(String, Value)>` — the
//! workspace's `unordered-iteration` lint bans `HashMap` in lib code,
//! and ordered output keeps responses byte-deterministic.
//!
//! Non-finite numbers serialize as `null` (JSON has no NaN/∞).

use std::fmt;

use serde::{DeError, Deserialize, Serialize};

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object (linear scan; serving payloads have
    /// a handful of keys). `None` for missing keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a `Number`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes to a compact JSON string.
    pub fn encode(&self) -> String {
        serde_json::to_string(self).expect("non-finite numbers are mapped to null")
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> serde::Value {
        match self {
            Value::Null => serde::Value::Null,
            Value::Bool(b) => serde::Value::Bool(*b),
            Value::Number(n) if n.is_finite() => serde::Value::F64(*n),
            Value::Number(_) => serde::Value::Null,
            Value::Str(s) => serde::Value::Str(s.clone()),
            Value::Array(items) => serde::Value::Seq(items.iter().map(Value::to_value).collect()),
            Value::Object(entries) => {
                serde::Value::Map(entries.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
            }
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &serde::Value) -> Result<Self, DeError> {
        Ok(match v {
            serde::Value::Null => Value::Null,
            serde::Value::Bool(b) => Value::Bool(*b),
            serde::Value::I64(n) => Value::Number(*n as f64),
            serde::Value::U64(n) => Value::Number(*n as f64),
            serde::Value::F64(x) => Value::Number(*x),
            serde::Value::Str(s) => Value::Str(s.clone()),
            serde::Value::Seq(items) => {
                Value::Array(items.iter().map(Value::from_value).collect::<Result<_, _>>()?)
            }
            serde::Value::Map(entries) => Value::Object(
                entries
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), Value::from_value(v)?)))
                    .collect::<Result<_, DeError>>()?,
            ),
        })
    }
}

/// Parses a complete JSON document (rejecting trailing garbage).
///
/// # Errors
///
/// The `serde_json` parse error, which names the byte offset of the
/// first problem.
pub fn parse(input: &str) -> Result<Value, serde_json::Error> {
    serde_json::from_str(input)
}

/// Fast path for the predict wire format: parses exactly
/// `{"inputs": [[<number>, ...], ...]}` (arbitrary whitespace, no other
/// keys, no string escapes) straight into rows, skipping the [`Value`]
/// tree — the hot scoring endpoint would otherwise allocate one node
/// per cell. Numbers follow the same RFC 8259 grammar as [`parse`] and
/// convert with `str::parse::<f64>`, so accepted bodies produce rows
/// bitwise-identical to the general path's.
/// Anything else — extra keys, non-numeric cells, malformed syntax,
/// non-finite numbers — returns `None`; the caller falls back to the
/// general parser for exact error reporting.
pub fn parse_inputs_fast(input: &str) -> Option<Vec<Vec<f64>>> {
    let mut c = Cursor { b: input.as_bytes(), pos: 0 };
    c.ws();
    if !c.eat(b'{') {
        return None;
    }
    c.ws();
    if !c.eat_slice(b"\"inputs\"") {
        return None;
    }
    c.ws();
    if !c.eat(b':') {
        return None;
    }
    c.ws();
    if !c.eat(b'[') {
        return None;
    }
    let mut rows = Vec::new();
    c.ws();
    if !c.eat(b']') {
        loop {
            c.ws();
            if !c.eat(b'[') {
                return None;
            }
            let mut row = Vec::new();
            c.ws();
            if !c.eat(b']') {
                loop {
                    c.ws();
                    row.push(c.number()?);
                    c.ws();
                    if c.eat(b',') {
                        continue;
                    }
                    if c.eat(b']') {
                        break;
                    }
                    return None;
                }
            }
            rows.push(row);
            c.ws();
            if c.eat(b',') {
                continue;
            }
            if c.eat(b']') {
                break;
            }
            return None;
        }
    }
    c.ws();
    if !c.eat(b'}') {
        return None;
    }
    c.ws();
    if c.pos == c.b.len() {
        Some(rows)
    } else {
        None
    }
}

/// Byte cursor for [`parse_inputs_fast`].
struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.b.get(self.pos) == Some(&byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_slice(&mut self, expected: &[u8]) -> bool {
        if self.b[self.pos..].starts_with(expected) {
            self.pos += expected.len();
            true
        } else {
            false
        }
    }

    /// Consumes a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.b.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// An RFC 8259 number, `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`,
    /// the grammar `serde_json` accepts, as a finite `f64`.
    fn number(&mut self) -> Option<f64> {
        let start = self.pos;
        self.eat(b'-');
        match self.b.get(self.pos) {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return None,
        }
        if self.eat(b'.') && self.digits() == 0 {
            return None;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return None;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).ok()?;
        text.parse::<f64>().ok().filter(|n| n.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rows of `{"inputs": ...}` through the general parser.
    fn general_rows(body: &str) -> Option<Vec<Vec<f64>>> {
        let doc = parse(body).ok()?;
        doc.get("inputs")?
            .as_array()?
            .iter()
            .map(|row| row.as_array()?.iter().map(Value::as_f64).collect())
            .collect()
    }

    #[test]
    fn encode_round_trips_through_parse() {
        let v = Value::Object(vec![
            ("z".to_string(), Value::Number(1.0)),
            ("a".to_string(), Value::Array(vec![Value::Bool(true), Value::Null])),
            ("s".to_string(), Value::Str("tab\t\"q\" 😀".to_string())),
        ]);
        let enc = v.encode();
        assert_eq!(enc, "{\"z\":1.0,\"a\":[true,null],\"s\":\"tab\\t\\\"q\\\" 😀\"}");
        assert_eq!(parse(&enc).unwrap(), v);
        assert_eq!(v.to_string(), enc);
    }

    #[test]
    fn nonfinite_numbers_become_null() {
        assert_eq!(Value::Number(f64::NAN).encode(), "null");
        assert_eq!(Value::Number(f64::INFINITY).encode(), "null");
        assert_eq!(Value::Array(vec![Value::Number(f64::NEG_INFINITY)]).encode(), "[null]");
    }

    #[test]
    fn float_values_survive_bitwise() {
        for v in [0.1, 1.0 / 3.0, 6.02214076e23, -1.7976931348623157e308, -0.0, 1e-7] {
            let enc = Value::Number(v).encode();
            let back = parse(&enc).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via {enc}");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let ok = "[".repeat(128) + &"]".repeat(128);
        assert!(parse(&ok).is_ok(), "128 deep is accepted");
        let deep = "[".repeat(129) + &"]".repeat(129);
        assert!(parse(&deep).is_err(), "129 deep is rejected");
    }

    #[test]
    fn fast_inputs_path_matches_the_general_parser_bitwise() {
        for body in [
            "{\"inputs\": [[1, 2.5], [3e-2, -0.125]]}",
            "{\"inputs\":[[0.1,0.2,0.3]]}",
            "{ \"inputs\" : [ [ 1e10 ] ] } ",
            "{\"inputs\": [[-0, 0, -0.0, 1E+2, 9007199254740993]]}",
            "{\"inputs\": []}",
            "{\"inputs\": [[]]}",
        ] {
            let fast = parse_inputs_fast(body).unwrap_or_else(|| panic!("fast rejects {body:?}"));
            let general = general_rows(body).expect(body);
            assert_eq!(fast.len(), general.len(), "{body}");
            for (f_row, g_row) in fast.iter().zip(&general) {
                let f_bits: Vec<u64> = f_row.iter().map(|x| x.to_bits()).collect();
                let g_bits: Vec<u64> = g_row.iter().map(|x| x.to_bits()).collect();
                assert_eq!(f_bits, g_bits, "{body}");
            }
        }
    }

    #[test]
    fn both_paths_reject_non_json_numbers() {
        for num in ["+1", ".5", "5.", "01", "-", "1e", "1.e3", "-.5", "0x1", "1e999", "NaN"] {
            let body = format!("{{\"inputs\": [[{num}]]}}");
            assert!(parse_inputs_fast(&body).is_none(), "fast path accepts {body}");
            assert!(parse(&body).is_err(), "general parser accepts {body}");
        }
    }

    #[test]
    fn fast_inputs_path_defers_everything_else() {
        for body in [
            "{\"inputs\": [[1]], \"extra\": 1}", // extra key
            "{\"rows\": [[1]]}",                 // wrong key
            "{\"inputs\": [[true]]}",            // non-number cell
            "{\"inputs\": [1]}",                 // non-array row
            "{\"inputs\": [[1]]",                // truncated
            "{\"inputs\": [[1]]} x",             // trailing garbage
            "{\"inputs\": [[1e999]]}",           // overflows f64
            "not json at all",
        ] {
            assert!(parse_inputs_fast(body).is_none(), "fast path must defer {body:?}");
        }
    }

    #[test]
    fn object_lookup_helpers() {
        let v = parse("{\"inputs\": [[1, 2]], \"n\": 2}").unwrap();
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(2.0));
        let rows = v.get("inputs").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(v.get("missing").is_none());
        assert!(Value::Null.get("x").is_none());
        assert_eq!(parse("\"s\"").unwrap().as_str(), Some("s"));
    }
}
