//! Minimal self-contained JSON reading and writing.
//!
//! The workspace builds in environments with no access to crates.io, so
//! model persistence (trained networks) uses this small
//! JSON module instead of an external serialization framework. Floats are
//! written with Rust's shortest round-trip formatting (`{:?}`), so a
//! value → text → value trip reproduces every `f64` bit-for-bit; non-finite
//! floats are written as `null`.

use std::fmt;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also used to encode non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

/// Error produced by [`Value::parse`] or the typed accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    /// Byte offset of the error, when known.
    pub offset: Option<usize>,
}

impl JsonError {
    /// Builds an application-level error (schema mismatch, bad field), for
    /// use by callers layering typed decoding on top of [`Value`].
    pub fn custom(message: impl Into<String>) -> Self {
        Self::new(message)
    }

    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            offset: None,
        }
    }

    fn at(message: impl Into<String>, offset: usize) -> Self {
        Self {
            message: message.into(),
            offset: Some(offset),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "{} (at byte {o})", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at("trailing characters", pos));
        }
        Ok(value)
    }

    /// Renders the document as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }

    /// Builds a number, mapping non-finite floats to [`Value::Null`].
    pub fn num(x: f64) -> Value {
        if x.is_finite() {
            Value::Num(x)
        } else {
            Value::Null
        }
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Result<&Value, JsonError> {
        match self {
            Value::Object(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError::new(format!("missing key {key:?}"))),
            _ => Err(JsonError::new(format!(
                "expected object while looking up {key:?}"
            ))),
        }
    }

    /// The value as a finite `f64`.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Value::Num(x) => Ok(*x),
            _ => Err(JsonError::new("expected number")),
        }
    }

    /// The value as an `f64`, decoding `null` as the given non-finite
    /// stand-in (see module docs).
    pub fn as_f64_or(&self, non_finite: f64) -> Result<f64, JsonError> {
        match self {
            Value::Null => Ok(non_finite),
            other => other.as_f64(),
        }
    }

    /// The value as a non-negative integer.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        let x = self.as_f64()?;
        if x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53) {
            Ok(x as u64)
        } else {
            Err(JsonError::new(format!(
                "expected unsigned integer, got {x}"
            )))
        }
    }

    /// The value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        Ok(self.as_u64()? as usize)
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(JsonError::new("expected boolean")),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(JsonError::new("expected string")),
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Result<&[Value], JsonError> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(JsonError::new("expected array")),
        }
    }

    /// The value as a `Vec<f64>` (array of finite numbers).
    pub fn as_f64_vec(&self) -> Result<Vec<f64>, JsonError> {
        self.as_array()?.iter().map(Value::as_f64).collect()
    }

    /// Builds an array of numbers.
    pub fn from_f64s(xs: &[f64]) -> Value {
        Value::Array(xs.iter().map(|&x| Value::num(x)).collect())
    }
}

fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(x) => {
            if x.is_finite() {
                // `{:?}` is Rust's shortest representation that parses back
                // to the identical f64.
                out.push_str(&format!("{x:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(JsonError::at(format!("expected {lit:?}"), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::at("unexpected end of input", *pos)),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Value::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(JsonError::at("expected ',' or ']'", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(members));
                    }
                    _ => return Err(JsonError::at("expected ',' or '}'", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError::at("expected string", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::at("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError::at("truncated \\u escape", *pos))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError::at("bad \\u escape", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::at("bad \\u escape", *pos))?;
                        // Surrogate pairs are not needed by our own writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(JsonError::at("bad escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance by whole UTF-8 characters.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| JsonError::at("invalid UTF-8", *pos))?;
                let c = rest.chars().next().expect("nonempty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::at("invalid number", start))?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| JsonError::at(format!("invalid number {text:?}"), start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_f64_bit_pattern_tested() {
        for &x in &[
            0.0,
            -0.0,
            1.5,
            std::f64::consts::PI,
            1e-300,
            -2.225_073_858_507_201e-308,
            f64::MAX,
            f64::MIN_POSITIVE,
            0.1 + 0.2,
        ] {
            let text = Value::Num(x).to_json();
            let back = Value::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {text}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Value::num(f64::NAN), Value::Null);
        assert_eq!(Value::Num(f64::INFINITY).to_json(), "null");
        let v = Value::parse("null").unwrap();
        assert!(v.as_f64_or(f64::INFINITY).unwrap().is_infinite());
    }

    #[test]
    fn parses_nested_structures() {
        let text = r#"{"a": [1, 2.5, {"b": "x\ny"}], "c": true, "d": null}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.get("c").unwrap(), &Value::Bool(true));
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[1].as_f64().unwrap(), 2.5);
        assert_eq!(a[2].get("b").unwrap().as_str().unwrap(), "x\ny");
        // Round trip.
        let again = Value::parse(&v.to_json()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn rejects_malformed_documents() {
        for text in ["", "{", "[1,", "{\"a\" 1}", "tru", "1.2.3", "[1] tail"] {
            assert!(Value::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote \" backslash \\ newline \n tab \t control \u{1}";
        let text = Value::Str(s.to_string()).to_json();
        assert_eq!(Value::parse(&text).unwrap().as_str().unwrap(), s);
    }
}
