//! Workspace-local stand-in for `serde_json`.
//!
//! Serializes the `serde` stub's [`Value`] model to JSON text and parses
//! it back. Floats are written with Rust's shortest-round-trip `{}`
//! formatting and parsed with `str::parse::<f64>`, both of which are
//! exact, so `f64` values survive `to_string` → `from_str` bit-for-bit
//! (the `float_roundtrip` guarantee of the real crate).
//!
//! The parser is strict RFC 8259, as the real crate is, so it is safe on
//! untrusted input: nesting deeper than 128 levels is an error rather
//! than a stack overflow, numbers follow the RFC grammar and must fit an
//! `f64`, `\u` escapes take exactly four hex digits and combine
//! surrogate pairs (a lone surrogate is an error), and every parse error
//! names the byte offset it occurred at.

#![forbid(unsafe_code)]

use std::fmt::{self, Write as _};

use serde::{DeError, Deserialize, Serialize, Value};

/// Deepest array/object nesting [`from_str`] accepts (the real crate's
/// recursion limit).
const MAX_DEPTH: usize = 128;

/// Serialization/deserialization failure.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Serializes a value to compact JSON text.
///
/// # Errors
///
/// Fails if the value contains a non-finite float. (The real crate
/// writes such floats as `null` instead; callers here that need that
/// map them to `null` before serializing.)
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out)?;
    Ok(out)
}

/// Parses JSON text into a deserializable value.
///
/// # Errors
///
/// Fails on malformed JSON (the message names the byte offset) or a
/// shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser { src: s, pos: 0 };
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(T::from_value(&v)?)
}

fn write_value(v: &Value, out: &mut String) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => {
            if !x.is_finite() {
                return Err(Error(format!("non-finite float {x} cannot be serialized")));
            }
            // Rust's `{}` float formatting is shortest-round-trip; add a
            // `.0` to integral values so they parse back as floats.
            let start = out.len();
            let _ = write!(out, "{x}");
            if !out[start..].contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out)?;
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> Error {
        Error(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    /// Parses one value; `depth` counts the arrays/objects around it.
    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(b']') {
                        return Ok(Value::Seq(items));
                    }
                    if !self.eat(b',') {
                        return Err(self.err("expected `,` or `]`"));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    entries.push((key, self.parse_value(depth + 1)?));
                    self.skip_ws();
                    if self.eat(b'}') {
                        return Ok(Value::Map(entries));
                    }
                    if !self.eat(b',') {
                        return Err(self.err("expected `,` or `}`"));
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, v: Value) -> Result<Value, Error> {
        if self.src[self.pos..].starts_with(kw) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(self.err("invalid keyword"))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte
            // in one go; these are ASCII, so the slice ends on a char
            // boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => out.push(self.parse_unicode_escape()?),
                        _ => {
                            self.pos -= 1;
                            return Err(self.err("invalid escape"));
                        }
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The char of a `\uXXXX` escape (the `\u` already consumed),
    /// combining a UTF-16 surrogate pair.
    fn parse_unicode_escape(&mut self) -> Result<char, Error> {
        let first = self.hex4()?;
        let code = match first {
            0xD800..=0xDBFF => {
                if !(self.eat(b'\\') && self.eat(b'u')) {
                    return Err(self.err("lone leading surrogate"));
                }
                let second = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&second) {
                    return Err(self.err("invalid trailing surrogate"));
                }
                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.err("lone trailing surrogate")),
            _ => first,
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))
    }

    /// Exactly four hex digits.
    fn hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.err("expected 4 hex digits"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Consumes a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, in `f64` range.
    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.eat(b'-');
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("expected a digit")),
        }
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            if self.digits() == 0 {
                return Err(self.err("expected a fraction digit"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected an exponent digit"));
            }
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                // `-0` is an integer in the grammar but `-0.0` in value.
                return Ok(if i == 0 && negative { Value::F64(-0.0) } else { Value::I64(i) });
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::F64(x)),
            _ => Err(Error(format!("number out of range at byte {start}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `s` parsed into the value model.
    fn parse(s: &str) -> Result<Value, Error> {
        from_str::<Value>(s)
    }

    #[test]
    fn floats_round_trip_bit_for_bit() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            std::f64::consts::PI,
            1e-300,
            -2.5e17,
            f64::MIN_POSITIVE,
            0.0,
            -0.0,
            6.02214076e23,
            -1.7976931348623157e308,
        ] {
            let json = to_string(&x).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "value {x} via {json}");
        }
    }

    #[test]
    fn collections_round_trip() {
        let v = vec![vec![1.5, 2.0], vec![-3.25]];
        let json = to_string(&v).unwrap();
        let back: Vec<Vec<f64>> = from_str(&json).unwrap();
        assert_eq!(v, back);
        let pairs = vec![(1u32, "a".to_string()), (2, "b\"quoted\"".to_string())];
        let back2: Vec<(u32, String)> = from_str(&to_string(&pairs).unwrap()).unwrap();
        assert_eq!(pairs, back2);
    }

    #[test]
    fn scalars_and_containers_round_trip_preserving_order() {
        for (src, want) in [
            ("null", "null"),
            ("true", "true"),
            ("false", "false"),
            ("3.25", "3.25"),
            ("-0.5", "-0.5"),
            ("1e3", "1000.0"),
            ("\"hi\"", "\"hi\""),
            ("[1, 2.5, [3]]", "[1,2.5,[3]]"),
            ("{\"z\": 1, \"a\": {\"k\": [true, null]}}", "{\"z\":1,\"a\":{\"k\":[true,null]}}"),
        ] {
            assert_eq!(to_string(&parse(src).expect(src)).unwrap(), want, "{src}");
        }
    }

    #[test]
    fn string_escapes_both_ways() {
        let v = parse(r#""a\"b\\c\nd\/\b\f\r\t\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v, Value::Str("a\"b\\c\nd/\u{8}\u{c}\r\tAé😀".to_string()));
        let enc = to_string("tab\there \"q\" \u{1}").unwrap();
        assert_eq!(enc, "\"tab\\there \\\"q\\\" \\u0001\"");
        assert_eq!(from_str::<String>(&enc).unwrap(), "tab\there \"q\" \u{1}");
    }

    #[test]
    fn surrogate_pair_decodes_to_one_char() {
        assert_eq!(from_str::<String>(r#""\ud83d\ude00""#).unwrap(), "😀");
        assert_eq!(from_str::<String>("\"😀\"").unwrap(), "😀");
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        for bad in [r#""\ud800""#, r#""\ud800x""#, r#""\ud800\u0041""#, r#""\udc00""#] {
            assert!(from_str::<String>(bad).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn unicode_escapes_need_four_hex_digits() {
        for bad in [r#""\u+123""#, r#""\u12""#, r#""\u12g4""#, r#""\u-123""#, r#""\u 123""#] {
            assert!(from_str::<String>(bad).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn out_of_range_literals_are_rejected() {
        for bad in ["1e999", "-1e999", "[1e400]", &"9".repeat(400)] {
            assert!(parse(bad).is_err(), "should reject {bad}");
        }
        // Underflow rounds to zero, as in the real crate.
        assert_eq!(from_str::<f64>("1e-999").unwrap(), 0.0);
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        for src in ["-0", "-0.0", "-0e0"] {
            let x: f64 = from_str(src).unwrap();
            assert_eq!(x.to_bits(), (-0.0f64).to_bits(), "{src}");
        }
        assert_eq!(from_str::<f64>("0").unwrap().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for bad in ["+1", ".5", "5.", "01", "-", "-.5", "1e", "1e+", "0x10", "1.e3", "--1"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
            assert!(parse(&format!("[{bad}]")).is_err(), "should reject [{bad}]");
        }
        for good in ["0", "-0", "10", "0.5", "-1.25e-3", "1E+2", "1e2"] {
            assert!(parse(good).is_ok(), "should accept {good:?}");
        }
    }

    #[test]
    fn nesting_cap_is_128() {
        let ok = "[".repeat(128) + &"]".repeat(128);
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(129) + &"]".repeat(129);
        assert!(parse(&deep).unwrap_err().to_string().contains("nesting"));
        let objects = "{\"a\":".repeat(129) + "1" + &"}".repeat(129);
        assert!(parse(&objects).is_err());
        // A 1 MiB run of `[` fails at the cap instead of overflowing.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn parse_errors_name_the_byte_offset() {
        for (bad, at) in [
            ("", 0),
            ("[1,", 3),
            ("[1 2]", 3),
            ("{\"a\"}", 4),
            ("tru", 0),
            ("\"\\x\"", 2),
            ("\"\\u12\"", 5),
            ("[1] x", 4),
            ("1e999", 0),
            ("\"a\u{1}\"", 2),
        ] {
            let msg = parse(bad).unwrap_err().to_string();
            assert!(msg.contains(&format!("at byte {at}")), "{bad:?}: {msg}");
        }
    }

    #[test]
    fn malformed_input_rejected() {
        for bad in [
            "1.5garbage",
            "[1.0,",
            "\"unterminated",
            "{",
            "{\"a\":}",
            "1.2.3",
            "nan",
            "[1,]",
            "{\"a\":1,}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nan_is_rejected() {
        assert!(to_string(&f64::NAN).is_err());
    }
}
