//! Offline stand-in for `serde_json` (1.x API subset): [`Value`],
//! [`to_string`], [`from_str`], and a [`json!`] macro covering flat
//! objects, arrays and scalars — the shapes the experiment harness emits
//! and reads back (committed `BENCH_*.json` baselines).

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All JSON numbers the workspace produces are machine ints or floats;
    /// a signed/unsigned split mirrors serde_json's `Number` closely enough.
    Int(i64),
    UInt(u64),
    Float(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value as `u64` if it is a non-negative integer (mirrors
    /// `serde_json::Value::as_u64`, including `Int`→`u64` promotion).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(x) => Some(x),
            Value::Int(x) if x >= 0 => Some(x as u64),
            _ => None,
        }
    }

    /// The value as `i64` if it is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(x) => Some(x),
            Value::UInt(x) if x <= i64::MAX as u64 => Some(x as i64),
            _ => None,
        }
    }

    /// The value as `f64` if it is any JSON number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Float(x) => Some(x),
            Value::Int(x) => Some(x as f64),
            Value::UInt(x) => Some(x as f64),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice if it is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object entries if it is an object (insertion order).
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Object field lookup without the `Null` fallback of `Index`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// `true` iff the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(x) => out.push_str(&x.to_string()),
            Value::UInt(x) => out.push_str(&x.to_string()),
            Value::Float(x) => {
                if x.is_finite() {
                    out.push_str(&x.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Value::String(s) => escape_str_into(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_into(out);
                }
                out.push(']');
            }
            Value::Object(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_str_into(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write_into(&mut s);
        f.write_str(&s)
    }
}

/// Append `s` to `out` as a quoted, escaped JSON string.
fn escape_str_into(s: &str, out: &mut String) {
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

macro_rules! impl_from_uint {
    ($($t:ty),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value { Value::UInt(x as u64) }
        }
    )*};
}
macro_rules! impl_from_int {
    ($($t:ty),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value { Value::Int(x as i64) }
        }
    )*};
}

impl_from_uint!(u8, u16, u32, u64, usize);
impl_from_int!(i8, i16, i32, i64, isize);

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Float(x)
    }
}

impl From<f32> for Value {
    fn from(x: f32) -> Value {
        Value::Float(x as f64)
    }
}

impl From<bool> for Value {
    fn from(x: bool) -> Value {
        Value::Bool(x)
    }
}

impl From<&str> for Value {
    fn from(x: &str) -> Value {
        Value::String(x.to_string())
    }
}

impl From<String> for Value {
    fn from(x: String) -> Value {
        Value::String(x)
    }
}

impl<T> From<Vec<T>> for Value
where
    Value: From<T>,
{
    fn from(xs: Vec<T>) -> Value {
        Value::Array(xs.into_iter().map(Value::from).collect())
    }
}

static NULL: Value = Value::Null;

/// `value["key"]` on objects, mirroring `serde_json`: a missing key (or a
/// non-object receiver) yields `Value::Null` rather than panicking.
impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        match self {
            Value::Object(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

/// `value["key"] = v` on objects, mirroring `serde_json`: inserts the key
/// if absent, treats a `Null` receiver as an empty object, and panics on
/// scalar receivers (as the real crate does).
impl std::ops::IndexMut<&str> for Value {
    fn index_mut(&mut self, key: &str) -> &mut Value {
        if matches!(self, Value::Null) {
            *self = Value::Object(Vec::new());
        }
        let Value::Object(entries) = self else {
            panic!("cannot index-assign into a scalar Value");
        };
        if let Some(pos) = entries.iter().position(|(k, _)| k == key) {
            return &mut entries[pos].1;
        }
        entries.push((key.to_string(), Value::Null));
        &mut entries.last_mut().unwrap().1
    }
}

/// Serialization/deserialization error. Serialization through the
/// stand-in is infallible (the signature mirrors `serde_json::to_string`
/// so call sites keep their `?`/`unwrap()`); parsing reports the byte
/// offset and cause of the first malformed construct.
#[derive(Debug)]
pub struct Error {
    msg: Option<String>,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.msg {
            Some(m) => f.write_str(m),
            None => f.write_str("serde_json stand-in error (unreachable)"),
        }
    }
}

impl std::error::Error for Error {}

/// Serialize `value` as a compact JSON string.
pub fn to_string(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    value.write_into(&mut out);
    Ok(out)
}

/// Parse a JSON document into a [`Value`]. Covers the full JSON grammar
/// the serializer above can emit (objects, arrays, strings with escapes,
/// integers, floats, booleans, `null`); numbers parse as `UInt`/`Int`
/// when integral and in range, `Float` otherwise — so serialize → parse
/// round-trips the workspace's committed `BENCH_*.json` exactly.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> Error {
        Error {
            msg: Some(format!("{msg} at byte {}", self.pos)),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("malformed \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by the
                            // serializer; reject rather than mis-decode.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape character")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // encoding is already valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("malformed number"))
    }
}

/// Build a [`Value`] from a JSON-shaped literal. Supports the forms the
/// workspace uses: flat `{"key": expr, ...}` objects, `[expr, ...]` arrays,
/// `null`, and bare expressions convertible via `Value::from`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( (($key).to_string(), $crate::Value::from($val)) ),*
        ])
    };
    ([ $($val:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::Value::from($val) ),* ])
    };
    ($val:expr) => { $crate::Value::from($val) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_rendering() {
        let v = json!({
            "s": "he said \"hi\"",
            "n": 3u64,
            "neg": -4i32,
            "f": 2.5f64,
            "b": true,
            "null": Value::Null,
            "arr": vec![1u32, 2],
        });
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"s":"he said \"hi\"","n":3,"neg":-4,"f":2.5,"b":true,"null":null,"arr":[1,2]}"#
        );
    }

    #[test]
    fn strings_escape_and_non_finite_floats_are_null() {
        assert_eq!(to_string(&json!("a\"b\\c\nd")).unwrap(), r#""a\"b\\c\nd""#);
        assert_eq!(to_string(&json!("\u{1}")).unwrap(), r#""\u0001""#);
        assert_eq!(to_string(&json!(f64::NAN)).unwrap(), "null");
    }

    #[test]
    fn nested_values_compose() {
        let inner = json!({"k": 1u64});
        let outer = json!({"inner": inner, "tag": "x"});
        assert_eq!(to_string(&outer).unwrap(), r#"{"inner":{"k":1},"tag":"x"}"#);
    }

    #[test]
    fn parse_round_trips_serializer_output() {
        let v = json!({
            "s": "he said \"hi\" \\ / \n",
            "n": 3u64,
            "neg": -4i32,
            "big": u64::MAX,
            "f": 2.5f64,
            "b": true,
            "null": Value::Null,
            "arr": vec![1u32, 2],
        });
        let text = to_string(&v).unwrap();
        let back = from_str(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(to_string(&back).unwrap(), text);
    }

    #[test]
    fn parse_accepts_whitespace_and_nesting() {
        let v = from_str(" { \"a\" : [ 1 , { \"b\" : null } ] , \"c\" : -2.5e1 } ").unwrap();
        assert_eq!(v["a"].as_array().unwrap().len(), 2);
        assert_eq!(v["a"].as_array().unwrap()[0].as_u64(), Some(1));
        assert!(v["a"].as_array().unwrap()[1]["b"].is_null());
        assert_eq!(v["c"].as_f64(), Some(-25.0));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1}x",
            "\"\\q\"",
        ] {
            assert!(from_str(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn accessors_follow_serde_json() {
        let v = json!({"u": 7u64, "i": -7i64, "f": 1.5f64, "s": "x", "b": false});
        assert_eq!(v["u"].as_u64(), Some(7));
        assert_eq!(v["u"].as_i64(), Some(7));
        assert_eq!(v["i"].as_u64(), None);
        assert_eq!(v["i"].as_i64(), Some(-7));
        assert_eq!(v["f"].as_f64(), Some(1.5));
        assert_eq!(v["s"].as_str(), Some("x"));
        assert_eq!(v["b"].as_bool(), Some(false));
        assert_eq!(v.get("missing"), None);
        assert!(v.get("u").is_some());
        assert_eq!(v.as_object().unwrap().len(), 5);
    }

    #[test]
    fn indexing_reads_and_inserts() {
        let mut v = json!({"a": 1u64});
        assert_eq!(v["a"], Value::UInt(1));
        assert_eq!(v["missing"], Value::Null);
        v["a"] = json!(2u64);
        v["b"] = json!("x");
        assert_eq!(to_string(&v).unwrap(), r#"{"a":2,"b":"x"}"#);
        // Null receivers become objects, as in real serde_json.
        let mut built = Value::Null;
        built["k"] = json!(1u64);
        assert_eq!(to_string(&built).unwrap(), r#"{"k":1}"#);
    }
}
