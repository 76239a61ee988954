//! # edm-model-io — the versioned binary container for trained models
//!
//! Defines the on-disk format that lets a model trained in one process
//! be served by any other (the ROADMAP's "train once, serve many"
//! unlock). The crate knows nothing about kernels or predictors: a
//! section payload is one [`serde::Value`] (the in-tree compat serde
//! data model every model type already derives), written by [`encode`]
//! and read back by [`decode`]. The facade crate (`edm::persist`) turns
//! models into values and validates what comes back.
//!
//! ## Container layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"EDMM"
//! 4       2     schema version (u16, currently 2)
//! 6       2     family tag length F (u16)
//! 8       F     family tag (UTF-8, e.g. "svc")
//! 8+F     4     section count S (u32)
//!               then S sections, each:
//!                 2     name length N (u16)
//!                 N     section name (UTF-8)
//!                 8     payload length P (u64)
//!                 P     payload bytes (one encoded value)
//!                 4     CRC-32 of the payload
//! EOF-4   4     file CRC-32 over every preceding byte
//! ```
//!
//! Every section payload carries its own CRC so a flipped byte is
//! pinned to the section it corrupted; the trailing file CRC catches
//! truncation and header damage. Floats are stored via
//! [`f64::to_bits`], so a save → load round trip is bitwise exact —
//! the property the workspace proptests pin for all nine `Predictor`
//! families. The payload encoding is documented on [`encode`]; its
//! decoder checks every declared length against the bytes left and
//! caps nesting at [`MAX_DEPTH`], so hostile bytes fail with a typed
//! error instead of exhausting memory or the stack.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;

use serde::Value;

/// The four magic bytes opening every model file.
pub const MAGIC: [u8; 4] = *b"EDMM";

/// The schema version this crate writes and the only one it reads.
/// Version 2 carries one [`encode`]d [`Value`] per section; version 1
/// (per-family binary codecs) is refused.
pub const SCHEMA_VERSION: u16 = 2;

/// Hard cap on a single section payload (256 MiB) — a corrupted length
/// field must not trigger an enormous allocation.
const MAX_SECTION_BYTES: u64 = 256 * 1024 * 1024;

/// Hard cap on a declared string, sequence or map length inside a
/// payload, so a corrupted count fails cleanly.
const MAX_ELEMS: u64 = 64 * 1024 * 1024;

/// Errors raised while reading or writing a model container.
#[derive(Debug)]
#[non_exhaustive]
pub enum IoError {
    /// The file does not start with [`MAGIC`] — not a model file.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file's schema version is not the one this build reads.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// The version this build reads ([`SCHEMA_VERSION`]).
        supported: u16,
    },
    /// A section payload failed its CRC-32 check.
    SectionChecksum {
        /// Section whose payload was corrupted.
        section: String,
        /// CRC recorded in the file.
        expected: u32,
        /// CRC recomputed from the payload.
        found: u32,
    },
    /// The trailing whole-file CRC-32 did not match.
    FileChecksum {
        /// CRC recorded in the trailer.
        expected: u32,
        /// CRC recomputed over the file body.
        found: u32,
    },
    /// The file ended before a declared structure was complete.
    Truncated {
        /// What was being read when bytes ran out.
        context: &'static str,
    },
    /// A decoder asked for a section the file does not contain.
    MissingSection {
        /// The absent section's name.
        section: String,
    },
    /// A payload decoded to something structurally impossible.
    Malformed {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// The underlying reader or writer failed.
    Io(std::io::Error),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::BadMagic { found } => {
                write!(f, "not a model file: magic {found:?} != {MAGIC:?}")
            }
            IoError::UnsupportedVersion { found, supported } => {
                write!(f, "model schema version {found} unsupported (this build reads {supported})")
            }
            IoError::SectionChecksum { section, expected, found } => write!(
                f,
                "section {section:?} corrupted: crc {found:#010x} != recorded {expected:#010x}"
            ),
            IoError::FileChecksum { expected, found } => {
                write!(f, "file corrupted: crc {found:#010x} != recorded {expected:#010x}")
            }
            IoError::Truncated { context } => write!(f, "file truncated while reading {context}"),
            IoError::MissingSection { section } => {
                write!(f, "required section {section:?} missing")
            }
            IoError::Malformed { detail } => write!(f, "malformed payload: {detail}"),
            IoError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Computes the CRC-32 (ISO-HDLC, polynomial `0xEDB88320` reflected —
/// the zlib/PNG checksum) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state ^= u32::from(b);
        for _ in 0..8 {
            let mask = (state & 1).wrapping_neg();
            state = (state >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    state
}

/// Deepest [`Value`] nesting [`encode`] writes and [`decode`] accepts,
/// counting the root as depth 1. The decoder recurses once per level,
/// so this bound is what keeps a crafted file from overflowing the
/// stack; 256 admits decision trees about 125 splits deep.
pub const MAX_DEPTH: usize = 256;

// One tag byte per `Value` variant opens every encoded value.
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_I64: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_SEQ: u8 = 6;
const TAG_MAP: u8 = 7;

fn malformed(detail: String) -> IoError {
    IoError::Malformed { detail }
}

/// Encodes `v` as one section payload: a tag byte per value, then its
/// payload — `bool` as one byte, integers as 8 bytes LE, `f64` via
/// [`f64::to_bits`] (NaN payloads and signed zeros survive), strings as
/// a `u64` LE byte length then UTF-8, sequences and maps as a `u64` LE
/// element count then each element (map keys are bare strings).
///
/// # Errors
///
/// [`IoError::Malformed`] if `v` nests deeper than [`MAX_DEPTH`] or a
/// sequence, map or string is longer than [`decode`] accepts — so every
/// payload this returns decodes again.
pub fn encode(v: &Value) -> Result<Vec<u8>, IoError> {
    let mut out = Vec::new();
    put_value(&mut out, v, 1)?;
    Ok(out)
}

fn put_len(out: &mut Vec<u8>, n: usize) -> Result<(), IoError> {
    if n as u64 > MAX_ELEMS {
        return Err(malformed(format!("length {n} exceeds the {MAX_ELEMS} cap")));
    }
    out.extend_from_slice(&(n as u64).to_le_bytes());
    Ok(())
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), IoError> {
    put_len(out, s.len())?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_value(out: &mut Vec<u8>, v: &Value, depth: usize) -> Result<(), IoError> {
    if depth > MAX_DEPTH {
        return Err(malformed(format!("value nests deeper than {MAX_DEPTH} levels")));
    }
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => out.extend_from_slice(&[TAG_BOOL, u8::from(*b)]),
        Value::I64(x) => {
            out.push(TAG_I64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::U64(x) => {
            out.push(TAG_U64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(TAG_F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s)?;
        }
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            put_len(out, items.len())?;
            for item in items {
                put_value(out, item, depth + 1)?;
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            put_len(out, entries.len())?;
            for (key, item) in entries {
                put_str(out, key)?;
                put_value(out, item, depth + 1)?;
            }
        }
    }
    Ok(())
}

/// Decodes a payload written by [`encode`].
///
/// # Errors
///
/// [`IoError::Truncated`] if a value or a declared length runs past the
/// end of `bytes`; [`IoError::Malformed`] for an unknown tag, a bool
/// byte other than 0 or 1, non-UTF-8 text, a length over the element
/// cap, nesting deeper than [`MAX_DEPTH`], or trailing bytes.
pub fn decode(bytes: &[u8]) -> Result<Value, IoError> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    let v = c.get_value(1)?;
    if c.pos != bytes.len() {
        return Err(malformed(format!("{} trailing bytes after the value", bytes.len() - c.pos)));
    }
    Ok(v)
}

/// Builds a model container section by section, then serializes it.
#[derive(Debug)]
pub struct ModelWriter {
    family: String,
    sections: Vec<(String, Vec<u8>)>,
}

impl ModelWriter {
    /// Starts a container for the given family tag (e.g. `"svc"`).
    pub fn new(family: &str) -> Self {
        ModelWriter { family: family.to_string(), sections: Vec::new() }
    }

    /// Appends a named section carrying `payload` (an [`encode`]d
    /// value). Section order is preserved; names must be unique.
    pub fn add_section(&mut self, name: &str, payload: Vec<u8>) {
        debug_assert!(self.sections.iter().all(|(n, _)| n != name), "duplicate section {name:?}");
        self.sections.push((name.to_string(), payload));
    }

    /// Serializes the container to `w` (header, sections with per-payload
    /// CRCs, trailing file CRC).
    ///
    /// # Errors
    ///
    /// [`IoError::Io`] if the writer fails; [`IoError::Malformed`] if a
    /// name or payload exceeds the format's length fields.
    pub fn write_to(&self, w: &mut dyn Write) -> Result<(), IoError> {
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC);
        body.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        let fam_len = u16::try_from(self.family.len())
            .map_err(|_| IoError::Malformed { detail: "family tag too long".into() })?;
        body.extend_from_slice(&fam_len.to_le_bytes());
        body.extend_from_slice(self.family.as_bytes());
        let n_sections = u32::try_from(self.sections.len())
            .map_err(|_| IoError::Malformed { detail: "too many sections".into() })?;
        body.extend_from_slice(&n_sections.to_le_bytes());
        for (name, payload) in &self.sections {
            let name_len = u16::try_from(name.len())
                .map_err(|_| IoError::Malformed { detail: "section name too long".into() })?;
            if payload.len() as u64 > MAX_SECTION_BYTES {
                return Err(IoError::Malformed {
                    detail: format!("section {name:?} exceeds {MAX_SECTION_BYTES} bytes"),
                });
            }
            body.extend_from_slice(&name_len.to_le_bytes());
            body.extend_from_slice(name.as_bytes());
            body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            body.extend_from_slice(payload);
            body.extend_from_slice(&crc32(payload).to_le_bytes());
        }
        let file_crc = crc32(&body);
        w.write_all(&body)?;
        w.write_all(&file_crc.to_le_bytes())?;
        Ok(())
    }

    /// Serializes the container to a fresh byte vector.
    ///
    /// # Errors
    ///
    /// As for [`ModelWriter::write_to`].
    pub fn to_bytes(&self) -> Result<Vec<u8>, IoError> {
        let mut out = Vec::new();
        self.write_to(&mut out)?;
        Ok(out)
    }
}

/// A fully parsed, checksum-verified model container.
#[derive(Debug)]
pub struct ModelReader {
    family: String,
    version: u16,
    checksum: u32,
    sections: BTreeMap<String, Vec<u8>>,
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], IoError> {
        let end = self.pos.checked_add(n).ok_or(IoError::Truncated { context })?;
        if end > self.buf.len() {
            return Err(IoError::Truncated { context });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn get_u8(&mut self, context: &'static str) -> Result<u8, IoError> {
        Ok(self.take(1, context)?[0])
    }

    fn get_u16(&mut self, context: &'static str) -> Result<u16, IoError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn get_u32(&mut self, context: &'static str) -> Result<u32, IoError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn get_u64(&mut self, context: &'static str) -> Result<u64, IoError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// A declared length, checked against the element cap and against
    /// the bytes left (every element takes at least one byte).
    fn get_len(&mut self, context: &'static str) -> Result<usize, IoError> {
        let n = self.get_u64(context)?;
        if n > MAX_ELEMS {
            return Err(malformed(format!("{context} length {n} exceeds the {MAX_ELEMS} cap")));
        }
        if n > (self.buf.len() - self.pos) as u64 {
            return Err(IoError::Truncated { context });
        }
        Ok(n as usize)
    }

    fn get_str(&mut self, context: &'static str) -> Result<String, IoError> {
        let n = self.get_len(context)?;
        let b = self.take(n, context)?;
        String::from_utf8(b.to_vec()).map_err(|_| malformed(format!("{context} is not UTF-8")))
    }

    fn get_value(&mut self, depth: usize) -> Result<Value, IoError> {
        if depth > MAX_DEPTH {
            return Err(malformed(format!("value nests deeper than {MAX_DEPTH} levels")));
        }
        // A declared length only bounds the bytes left, not the memory
        // its elements will need, so preallocate at most this many.
        const PREALLOC: usize = 1024;
        let v = match self.get_u8("value tag")? {
            TAG_NULL => Value::Null,
            TAG_BOOL => match self.get_u8("bool")? {
                0 => Value::Bool(false),
                1 => Value::Bool(true),
                b => return Err(malformed(format!("bool byte {b}"))),
            },
            TAG_I64 => Value::I64(self.get_u64("i64")? as i64),
            TAG_U64 => Value::U64(self.get_u64("u64")?),
            TAG_F64 => Value::F64(f64::from_bits(self.get_u64("f64")?)),
            TAG_STR => Value::Str(self.get_str("string")?),
            TAG_SEQ => {
                let n = self.get_len("sequence")?;
                let mut items = Vec::with_capacity(n.min(PREALLOC));
                for _ in 0..n {
                    items.push(self.get_value(depth + 1)?);
                }
                Value::Seq(items)
            }
            TAG_MAP => {
                let n = self.get_len("map")?;
                let mut entries = Vec::with_capacity(n.min(PREALLOC));
                for _ in 0..n {
                    let key = self.get_str("map key")?;
                    entries.push((key, self.get_value(depth + 1)?));
                }
                Value::Map(entries)
            }
            tag => return Err(malformed(format!("unknown value tag {tag}"))),
        };
        Ok(v)
    }
}

impl ModelReader {
    /// Reads and validates a container from an in-memory byte slice.
    ///
    /// Validation order: magic → schema version → file CRC → per-section
    /// CRCs, so the most fundamental failure is the one reported.
    ///
    /// # Errors
    ///
    /// Any [`IoError`] variant; see the container layout in the crate
    /// docs for what each protects.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IoError> {
        let mut c = Cursor { buf: bytes, pos: 0 };
        let magic = c.take(4, "magic")?;
        if magic != MAGIC {
            return Err(IoError::BadMagic { found: [magic[0], magic[1], magic[2], magic[3]] });
        }
        let version = c.get_u16("schema version")?;
        if version != SCHEMA_VERSION {
            return Err(IoError::UnsupportedVersion { found: version, supported: SCHEMA_VERSION });
        }
        // Whole-file CRC first: it distinguishes truncation/corruption
        // from structural decode errors in everything below.
        if bytes.len() < 4 + 2 + 4 {
            return Err(IoError::Truncated { context: "file trailer" });
        }
        let body = &bytes[..bytes.len() - 4];
        let tail = &bytes[bytes.len() - 4..];
        let expected = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
        let found = crc32(body);
        if expected != found {
            return Err(IoError::FileChecksum { expected, found });
        }
        let fam_len = c.get_u16("family tag length")? as usize;
        let fam = c.take(fam_len, "family tag")?;
        let family = String::from_utf8(fam.to_vec())
            .map_err(|_| IoError::Malformed { detail: "family tag is not UTF-8".into() })?;
        let n_sections = c.get_u32("section count")?;
        let mut sections = BTreeMap::new();
        for _ in 0..n_sections {
            let name_len = c.get_u16("section name length")? as usize;
            let name_bytes = c.take(name_len, "section name")?;
            let name = String::from_utf8(name_bytes.to_vec())
                .map_err(|_| IoError::Malformed { detail: "section name is not UTF-8".into() })?;
            let payload_len = c.get_u64("section payload length")?;
            if payload_len > MAX_SECTION_BYTES {
                return Err(IoError::Malformed {
                    detail: format!("section {name:?} declares {payload_len} bytes"),
                });
            }
            let payload = c.take(payload_len as usize, "section payload")?.to_vec();
            let recorded = c.get_u32("section crc")?;
            let actual = crc32(&payload);
            if recorded != actual {
                return Err(IoError::SectionChecksum {
                    section: name,
                    expected: recorded,
                    found: actual,
                });
            }
            if sections.insert(name.clone(), payload).is_some() {
                return Err(IoError::Malformed { detail: format!("duplicate section {name:?}") });
            }
        }
        if c.pos != body.len() {
            return Err(IoError::Malformed {
                detail: format!("{} trailing bytes after last section", body.len() - c.pos),
            });
        }
        Ok(ModelReader { family, version, checksum: expected, sections })
    }

    /// The family tag recorded in the header (e.g. `"ridge"`).
    pub fn family(&self) -> &str {
        &self.family
    }

    /// The schema version the file was written with.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// The whole-file CRC-32 — a stable fingerprint of the saved model,
    /// reported by `edm-serve`'s `/v1/models`.
    pub fn checksum(&self) -> u32 {
        self.checksum
    }

    /// The named section's checksum-verified payload bytes.
    ///
    /// # Errors
    ///
    /// [`IoError::MissingSection`] if absent.
    pub fn section(&self, name: &str) -> Result<&[u8], IoError> {
        self.sections
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| IoError::MissingSection { section: name.to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the ISO-HDLC CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn sample_value() -> Value {
        Value::Map(vec![
            ("rate".into(), Value::F64(1.5)),
            ("zero".into(), Value::F64(-0.0)),
            ("nan".into(), Value::F64(f64::from_bits(0x7FF8_0000_0000_0123))),
            ("n".into(), Value::I64(-7)),
            ("big".into(), Value::U64(u64::MAX)),
            ("name".into(), Value::Str("héllo".into())),
            ("flags".into(), Value::Seq(vec![Value::Bool(true), Value::Bool(false), Value::Null])),
            (
                "rows".into(),
                Value::Seq(vec![
                    Value::Seq(vec![Value::F64(1.0), Value::F64(2.0)]),
                    Value::Seq(vec![]),
                ]),
            ),
        ])
    }

    fn sample_container() -> Vec<u8> {
        let mut w = ModelWriter::new("svc");
        w.add_section("params", encode(&sample_value()).unwrap());
        w.add_section("weights", encode(&Value::Seq(vec![Value::I64(5)])).unwrap());
        w.to_bytes().unwrap()
    }

    fn nested(depth: usize) -> Value {
        (1..depth).fold(Value::Null, |inner, _| Value::Seq(vec![inner]))
    }

    #[test]
    fn round_trip_is_bitwise() {
        let bytes = sample_container();
        let r = ModelReader::from_bytes(&bytes).unwrap();
        assert_eq!(r.family(), "svc");
        assert_eq!(r.version(), SCHEMA_VERSION);
        let back = decode(r.section("params").unwrap()).unwrap();
        // `PartialEq` on floats cannot see NaN payloads or the sign of
        // zero; re-encoding can.
        assert_eq!(encode(&back).unwrap(), encode(&sample_value()).unwrap());
        let m = back.as_map().unwrap();
        assert_eq!(m[1].1, Value::F64(-0.0));
        assert!(matches!(m[1].1, Value::F64(z) if z.is_sign_negative()));
        assert!(matches!(m[2].1, Value::F64(x) if x.to_bits() == 0x7FF8_0000_0000_0123));
        assert_eq!(m[3..], sample_value().as_map().unwrap()[3..]);
        assert_eq!(decode(r.section("weights").unwrap()).unwrap(), Value::Seq(vec![Value::I64(5)]));
    }

    #[test]
    fn depth_cap_is_shared_by_encoder_and_decoder() {
        let deepest = encode(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(decode(&deepest).unwrap(), nested(MAX_DEPTH));
        assert!(matches!(encode(&nested(MAX_DEPTH + 1)), Err(IoError::Malformed { .. })));
        // Hand-built bytes one level deeper than the cap.
        let mut too_deep = Vec::new();
        for _ in 0..MAX_DEPTH {
            too_deep.push(TAG_SEQ);
            too_deep.extend_from_slice(&1u64.to_le_bytes());
        }
        too_deep.push(TAG_NULL);
        assert!(matches!(decode(&too_deep), Err(IoError::Malformed { .. })));
    }

    #[test]
    fn hostile_lengths_and_tags_are_typed_errors() {
        // A count larger than the bytes left is truncation, not an
        // allocation; one over the cap is malformed.
        let mut huge = vec![TAG_SEQ];
        huge.extend_from_slice(&(MAX_ELEMS - 1).to_le_bytes());
        assert!(matches!(decode(&huge), Err(IoError::Truncated { .. })));
        let mut over = vec![TAG_STR];
        over.extend_from_slice(&(MAX_ELEMS + 1).to_le_bytes());
        assert!(matches!(decode(&over), Err(IoError::Malformed { .. })));
        assert!(matches!(decode(&[42]), Err(IoError::Malformed { .. })));
        assert!(matches!(decode(&[TAG_BOOL, 2]), Err(IoError::Malformed { .. })));
        assert!(matches!(decode(&[TAG_NULL, TAG_NULL]), Err(IoError::Malformed { .. })));
        let mut bad_utf8 = vec![TAG_STR];
        bad_utf8.extend_from_slice(&1u64.to_le_bytes());
        bad_utf8.push(0xFF);
        assert!(matches!(decode(&bad_utf8), Err(IoError::Malformed { .. })));
    }

    #[test]
    fn every_truncated_payload_fails() {
        let bytes = encode(&sample_value()).unwrap();
        for n in 0..bytes.len() {
            assert!(decode(&bytes[..n]).is_err(), "prefix of {n} bytes must not decode");
        }
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = sample_container();
        bytes[0] = b'X';
        assert!(matches!(ModelReader::from_bytes(&bytes), Err(IoError::BadMagic { .. })));
    }

    fn with_version(version: u16) -> Vec<u8> {
        let mut bytes = sample_container();
        // Rewrite the version field and re-seal the file CRC so only
        // the version check can fire.
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        let n = bytes.len();
        let fixed = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&fixed.to_le_bytes());
        bytes
    }

    #[test]
    fn other_versions_rejected() {
        for version in [1, SCHEMA_VERSION + 1, u16::MAX] {
            assert!(matches!(
                ModelReader::from_bytes(&with_version(version)),
                Err(IoError::UnsupportedVersion { found, supported: SCHEMA_VERSION }) if found == version
            ));
        }
    }

    #[test]
    fn flipped_byte_fails_file_crc() {
        let mut bytes = sample_container();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(ModelReader::from_bytes(&bytes), Err(IoError::FileChecksum { .. })));
    }

    #[test]
    fn flipped_payload_with_resealed_file_crc_fails_section_crc() {
        let mut w = ModelWriter::new("f");
        w.add_section("data", encode(&Value::F64(3.0)).unwrap());
        let mut bytes = w.to_bytes().unwrap();
        // Flip one payload byte, then re-seal the outer CRC so the
        // per-section check is what catches it.
        let flip_at = bytes.len() - 4 - 4 - 8;
        bytes[flip_at] ^= 0x01;
        let n = bytes.len();
        let fixed = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&fixed.to_le_bytes());
        assert!(matches!(ModelReader::from_bytes(&bytes), Err(IoError::SectionChecksum { .. })));
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let bytes = sample_container();
        for n in 0..bytes.len() {
            let err = ModelReader::from_bytes(&bytes[..n]);
            assert!(err.is_err(), "prefix of {n} bytes must not parse");
        }
    }

    #[test]
    fn missing_section_is_typed() {
        let r = ModelReader::from_bytes(&sample_container()).unwrap();
        assert!(matches!(
            r.section("nope"),
            Err(IoError::MissingSection { section }) if section == "nope"
        ));
    }

    #[test]
    fn checksum_is_stable_fingerprint() {
        let a = sample_container();
        let b = sample_container();
        assert_eq!(
            ModelReader::from_bytes(&a).unwrap().checksum(),
            ModelReader::from_bytes(&b).unwrap().checksum()
        );
    }
}
