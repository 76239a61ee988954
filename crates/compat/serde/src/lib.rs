//! Workspace-local stand-in for `serde`.
//!
//! The build environment has no network access, so this crate provides
//! the serialization machinery the workspace needs without the real
//! serde: a JSON-shaped [`Value`] data model, [`Serialize`] /
//! [`Deserialize`] traits that convert through it, and re-exported
//! derive macros (from the sibling `serde_derive` stub) mirroring
//! serde's default representations:
//!
//! * structs with named fields → maps keyed by field name;
//! * newtype structs → the inner value, transparently;
//! * tuple structs → sequences;
//! * unit enum variants → the variant name as a string;
//! * data-carrying enum variants → a single-entry map
//!   `{"Variant": payload}` (externally tagged).
//!
//! `f64` round-trips are exact: the JSON writer in the sibling
//! `serde_json` stub prints floats with Rust's shortest-round-trip
//! formatting.

#![forbid(unsafe_code)]

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped dynamic value: the interchange format between
/// [`Serialize`], [`Deserialize`], and the `serde_json` stub.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (JSON number without fraction/exponent).
    I64(i64),
    /// Unsigned integer too large for `i64`.
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Seq(Vec<Value>),
    /// JSON object; insertion order is preserved.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The map entries if this is an object.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if any, widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::F64(v) => Some(v),
            Value::I64(v) => Some(v as f64),
            Value::U64(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The integer value, if any, as `i128` (lossless for both `i64` and
    /// `u64`, and for floats that are exact integers).
    pub fn as_i128(&self) -> Option<i128> {
        match *self {
            Value::I64(v) => Some(v as i128),
            Value::U64(v) => Some(v as i128),
            Value::F64(v) if v.fract() == 0.0 && v.abs() < 2e18 => Some(v as i128),
            _ => None,
        }
    }
}

/// Deserialization failure: what was expected and what was found.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Conversion into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

/// Reconstruction from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`].
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] when the value's shape does not match.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Looks up a struct field by name (derive-macro helper).
///
/// # Errors
///
/// Returns [`DeError`] if the field is absent.
pub fn get_field<'v>(map: &'v [(String, Value)], name: &str) -> Result<&'v Value, DeError> {
    map.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError(format!("missing field `{name}`")))
}

/// The data model serializes as itself (like `serde_json::Value`).
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if (*self as i128) > i64::MAX as i128 {
                    Value::U64(*self as u64)
                } else {
                    Value::I64(*self as i64)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw = v
                    .as_i128()
                    .ok_or_else(|| DeError(format!("expected integer, got {v:?}")))?;
                <$t>::try_from(raw)
                    .map_err(|_| DeError(format!("integer {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_serde_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64().ok_or_else(|| DeError(format!("expected number, got {v:?}")))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64().map(|x| x as f32).ok_or_else(|| DeError(format!("expected number, got {v:?}")))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError(format!("expected bool, got {v:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError(format!("expected string, got {v:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().expect("checked")),
            _ => Err(DeError(format!("expected single-char string, got {v:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(t) => t.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_seq()
            .ok_or_else(|| DeError(format!("expected array, got {v:?}")))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Deserialize::from_value(v)?;
        let got = items.len();
        items.try_into().map_err(|_| DeError(format!("expected array of length {N}, got {got}")))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

macro_rules! impl_serde_tuple {
    ($(($($n:tt $t:ident),+)),+ $(,)?) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let s = v
                    .as_seq()
                    .ok_or_else(|| DeError(format!("expected tuple array, got {v:?}")))?;
                const LEN: usize = [$($n),+].len();
                if s.len() != LEN {
                    return Err(DeError(format!("expected {LEN}-tuple, got {} elements", s.len())));
                }
                Ok(($($t::from_value(&s[$n])?,)+))
            }
        }
    )+};
}
impl_serde_tuple!(
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(u8::from_value(&7u8.to_value()).unwrap(), 7);
        assert_eq!(i32::from_value(&(-3i32).to_value()).unwrap(), -3);
        assert!(bool::from_value(&true.to_value()).unwrap());
        let v: Vec<f64> = vec![1.0, 2.5];
        assert_eq!(Vec::<f64>::from_value(&v.to_value()).unwrap(), v);
        let t = (3usize, 4.5f64);
        assert_eq!(<(usize, f64)>::from_value(&t.to_value()).unwrap(), t);
        let o: Option<u32> = None;
        assert_eq!(Option::<u32>::from_value(&o.to_value()).unwrap(), None);
    }

    #[test]
    fn out_of_range_integer_rejected() {
        assert!(u8::from_value(&Value::I64(300)).is_err());
        assert!(u32::from_value(&Value::I64(-1)).is_err());
    }
}
