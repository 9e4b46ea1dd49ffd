//! Minimal, dependency-free stand-in for the subset of `serde` this workspace
//! uses.
//!
//! The build environment has no access to crates.io, so the workspace vendors a
//! small value-tree serialization framework with the same trait and derive
//! names: `#[derive(Serialize, Deserialize)]` (provided by the sibling
//! `serde_derive` proc-macro crate) plus a JSON text format in [`json`].
//!
//! Representation choices mirror serde's defaults closely enough for this
//! workspace: structs become maps, unit enum variants become strings, and
//! data-carrying variants become externally tagged single-entry maps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::fmt;

/// A serialized value tree (the shim's data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / `None` / JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer too large for `Int`.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Value>),
    /// An ordered map with string keys (field order is preserved).
    Map(Vec<(String, Value)>),
}

/// The `null` value, for returning references to missing fields.
pub const NULL: Value = Value::Null;

impl Value {
    /// Short name of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }

    /// Looks up a field in a map value; missing fields read as [`NULL`] so
    /// `Option` fields deserialize to `None`.
    pub fn get_field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Map(entries) => Ok(entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or(&NULL)),
            other => Err(Error::new(format!(
                "expected map with field `{name}`, got {}",
                other.kind()
            ))),
        }
    }

    /// Interprets the value as a sequence.
    pub fn as_seq(&self) -> Result<&[Value], Error> {
        match self {
            Value::Seq(items) => Ok(items),
            other => Err(Error::new(format!(
                "expected sequence, got {}",
                other.kind()
            ))),
        }
    }

    /// Interprets the value as a string.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Error::new(format!("expected string, got {}", other.kind()))),
        }
    }

    /// Interprets the value as an unsigned integer.
    pub fn as_u64(&self) -> Result<u64, Error> {
        match *self {
            Value::UInt(v) => Ok(v),
            Value::Int(v) if v >= 0 => Ok(v as u64),
            ref other => Err(Error::new(format!(
                "expected unsigned integer, got {}",
                other.kind()
            ))),
        }
    }

    /// Interprets the value as a signed integer.
    pub fn as_i64(&self) -> Result<i64, Error> {
        match *self {
            Value::Int(v) => Ok(v),
            Value::UInt(v) if v <= i64::MAX as u64 => Ok(v as i64),
            ref other => Err(Error::new(format!(
                "expected integer, got {}",
                other.kind()
            ))),
        }
    }

    /// Interprets the value as a float (integers coerce; the strings `"inf"`,
    /// `"-inf"` and `"NaN"` encode the non-finite values JSON cannot express).
    pub fn as_f64(&self) -> Result<f64, Error> {
        match *self {
            Value::Float(v) => Ok(v),
            Value::Int(v) => Ok(v as f64),
            Value::UInt(v) => Ok(v as f64),
            Value::Str(ref s) => match s.as_str() {
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                "NaN" => Ok(f64::NAN),
                _ => Err(Error::new(format!("expected number, got string `{s}`"))),
            },
            ref other => Err(Error::new(format!("expected number, got {}", other.kind()))),
        }
    }

    /// Interprets the value as a bool.
    pub fn as_bool(&self) -> Result<bool, Error> {
        match *self {
            Value::Bool(b) => Ok(b),
            ref other => Err(Error::new(format!("expected bool, got {}", other.kind()))),
        }
    }
}

/// A (de)serialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error from a message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde error: {}", self.message)
    }
}

impl std::error::Error for Error {}

/// Types that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Serializes `self` into the value data model.
    fn to_value(&self) -> Value;
}

/// Types that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserializes an instance from the value data model.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------- primitives --

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_bool()
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw = value.as_u64()?;
                <$t>::try_from(raw).map_err(|_| {
                    Error::new(format!("{raw} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw = value.as_i64()?;
                <$t>::try_from(raw).map_err(|_| {
                    Error::new(format!("{raw} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}
impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_f64()
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}
impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_f64().map(|v| v as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_str().map(str::to_owned)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}
impl Deserialize for char {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let s = value.as_str()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::new("expected single-character string")),
        }
    }
}

// ---------------------------------------------------------------- containers --

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
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
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_seq()?.iter().map(T::from_value).collect()
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
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_value(value)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::new(format!("expected array of {N}, got {len}")))
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        T::from_value(value).map(Box::new)
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}
impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(Error::new(format!("expected map, got {}", other.kind()))),
        }
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let items = value.as_seq()?;
                let expected = [$($idx),+].len();
                if items.len() != expected {
                    return Err(Error::new(format!(
                        "expected tuple of {expected}, got {}",
                        items.len()
                    )));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}
impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

/// JSON text format over the [`Value`] data model.
pub mod json {
    use super::{Deserialize, Error, Serialize, Value};
    use std::fmt::Write as _;

    /// The deepest nesting of arrays and objects [`parse`] accepts. The parser
    /// recurses once per level, so without a cap a single line of `[`s could
    /// overflow the stack of whichever thread reads it; past the cap, parsing
    /// fails with an error naming the limit. Checked-in documents nest at
    /// most 13 levels.
    pub const MAX_DEPTH: usize = 128;

    /// Serializes a value to a JSON string.
    pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        write_value(&mut out, &value.to_value());
        out
    }

    /// Deserializes a value from a JSON string.
    pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
        let value = parse(input)?;
        T::from_value(&value)
    }

    /// Parses JSON text into a [`Value`] tree.
    pub fn parse(input: &str) -> Result<Value, Error> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(Error::new("trailing characters after JSON value"));
        }
        Ok(value)
    }

    fn write_value(out: &mut String, value: &Value) {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Value::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Float(v) => {
                if v.is_finite() {
                    // `{:?}` always keeps a decimal point or exponent, so the
                    // value round-trips as a float.
                    let _ = write!(out, "{v:?}");
                } else if v.is_nan() {
                    // JSON has no non-finite numbers; encode them as tagged
                    // strings that `Value::as_f64` maps back.
                    out.push_str("\"NaN\"");
                } else if *v > 0.0 {
                    out.push_str("\"inf\"");
                } else {
                    out.push_str("\"-inf\"");
                }
            }
            Value::Str(s) => write_string(out, s),
            Value::Seq(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_value(out, item);
                }
                out.push(']');
            }
            Value::Map(entries) => {
                out.push('{');
                for (i, (key, item)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    write_value(out, item);
                }
                out.push('}');
            }
        }
    }

    fn write_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        /// Arrays and objects currently open.
        depth: usize,
    }

    impl<'a> Parser<'a> {
        fn skip_whitespace(&mut self) {
            while self.pos < self.bytes.len()
                && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
            {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, byte: u8) -> Result<(), Error> {
            if self.peek() == Some(byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(Error::new(format!(
                    "expected `{}` at byte {}",
                    byte as char, self.pos
                )))
            }
        }

        fn eat_literal(&mut self, literal: &str) -> bool {
            if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
                self.pos += literal.len();
                true
            } else {
                false
            }
        }

        fn parse_value(&mut self) -> Result<Value, Error> {
            self.skip_whitespace();
            match self.peek() {
                None => Err(Error::new("unexpected end of JSON input")),
                Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
                Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
                Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
                Some(b'"') => self.parse_string().map(Value::Str),
                Some(b'[') => self.nested(Self::parse_seq),
                Some(b'{') => self.nested(Self::parse_map),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
                Some(c) => Err(Error::new(format!(
                    "unexpected character `{}` at byte {}",
                    c as char, self.pos
                ))),
            }
        }

        /// Parses one array or object one level deeper, refusing to go past
        /// [`MAX_DEPTH`].
        fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
            if self.depth == MAX_DEPTH {
                return Err(Error::new(format!(
                    "JSON nested deeper than MAX_DEPTH ({MAX_DEPTH}) at byte {}",
                    self.pos
                )));
            }
            self.depth += 1;
            let value = parse(self);
            self.depth -= 1;
            value
        }

        fn parse_seq(&mut self) -> Result<Value, Error> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_whitespace();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Seq(items));
            }
            loop {
                items.push(self.parse_value()?);
                self.skip_whitespace();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Seq(items));
                    }
                    _ => return Err(Error::new("expected `,` or `]` in sequence")),
                }
            }
        }

        fn parse_map(&mut self) -> Result<Value, Error> {
            self.expect(b'{')?;
            let mut entries = Vec::new();
            self.skip_whitespace();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Map(entries));
            }
            loop {
                self.skip_whitespace();
                let key = self.parse_string()?;
                self.skip_whitespace();
                self.expect(b':')?;
                let value = self.parse_value()?;
                entries.push((key, value));
                self.skip_whitespace();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Map(entries));
                    }
                    _ => return Err(Error::new("expected `,` or `}` in map")),
                }
            }
        }

        fn parse_string(&mut self) -> Result<String, Error> {
            self.expect(b'"')?;
            let mut out = String::new();
            let raw = std::str::from_utf8(&self.bytes[self.pos..])
                .map_err(|_| Error::new("invalid UTF-8 in JSON input"))?;
            let mut chars = raw.char_indices();
            while let Some((offset, c)) = chars.next() {
                match c {
                    '"' => {
                        self.pos += offset + 1;
                        return Ok(out);
                    }
                    '\\' => match chars.next() {
                        Some((_, '"')) => out.push('"'),
                        Some((_, '\\')) => out.push('\\'),
                        Some((_, '/')) => out.push('/'),
                        Some((_, 'n')) => out.push('\n'),
                        Some((_, 'r')) => out.push('\r'),
                        Some((_, 't')) => out.push('\t'),
                        Some((_, 'b')) => out.push('\u{8}'),
                        Some((_, 'f')) => out.push('\u{c}'),
                        Some((start, 'u')) => {
                            let hex = raw
                                .get(start + 1..start + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u code point"))?,
                            );
                            // Skip the four hex digits.
                            for _ in 0..4 {
                                chars.next();
                            }
                        }
                        _ => return Err(Error::new("invalid escape sequence")),
                    },
                    c => out.push(c),
                }
            }
            Err(Error::new("unterminated string"))
        }

        fn parse_number(&mut self) -> Result<Value, Error> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            let mut is_float = false;
            while let Some(c) = self.peek() {
                match c {
                    b'0'..=b'9' => self.pos += 1,
                    b'.' | b'e' | b'E' | b'+' | b'-' => {
                        is_float = true;
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| Error::new("invalid number"))?;
            if is_float {
                text.parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| Error::new(format!("invalid float literal `{text}`")))
            } else if let Ok(v) = text.parse::<i64>() {
                Ok(Value::Int(v))
            } else if let Ok(v) = text.parse::<u64>() {
                Ok(Value::UInt(v))
            } else {
                Err(Error::new(format!("invalid integer literal `{text}`")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        assert_eq!(json::from_str::<u64>(&json::to_string(&42u64)).unwrap(), 42);
        assert_eq!(json::from_str::<i64>(&json::to_string(&-7i64)).unwrap(), -7);
        assert_eq!(
            json::from_str::<f64>(&json::to_string(&1.5f64)).unwrap(),
            1.5
        );
        assert_eq!(
            json::from_str::<String>(&json::to_string("hi \"there\"\n")).unwrap(),
            "hi \"there\"\n"
        );
        assert_eq!(
            json::from_str::<Option<bool>>(&json::to_string(&None::<bool>)).unwrap(),
            None
        );
        assert_eq!(
            json::from_str::<Vec<(u8, u8)>>(&json::to_string(&vec![(1u8, 2u8)])).unwrap(),
            vec![(1, 2)]
        );
    }

    #[test]
    fn map_round_trip_preserves_entries() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u64);
        m.insert("b".to_string(), 2u64);
        let back: BTreeMap<String, u64> = json::from_str(&json::to_string(&m)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn float_formatting_round_trips_exactly() {
        for v in [0.0, -0.0, 1.0, 2.828_427, 1e-12, 6.02e23, -3.5] {
            let s = json::to_string(&v);
            assert_eq!(json::from_str::<f64>(&s).unwrap(), v, "via {s}");
        }
    }

    #[test]
    fn missing_fields_read_as_null() {
        let v = json::parse(r#"{"a": 1}"#).unwrap();
        assert_eq!(v.get_field("missing").unwrap(), &Value::Null);
        assert_eq!(
            Option::<u64>::from_value(v.get_field("missing").unwrap()).unwrap(),
            None
        );
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |open: &str, close: &str, levels: usize| {
            format!("{}0{}", open.repeat(levels), close.repeat(levels))
        };
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let at_limit = nested(open, close, json::MAX_DEPTH);
            assert!(json::parse(&at_limit).is_ok(), "{open}: depth at the limit");
            let past_limit = nested(open, close, json::MAX_DEPTH + 1);
            let error = json::parse(&past_limit).unwrap_err();
            assert!(error.to_string().contains("MAX_DEPTH"), "{error}");
        }
        // Far past the limit fails the same way instead of overflowing the
        // stack.
        assert!(json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(json::parse("{").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("12 34").is_err());
        assert!(json::from_str::<u64>("-3").is_err());
    }
}
