//! Offline stand-in for `serde_json`.
//!
//! Implements the subset of the `serde_json` API this repository uses:
//! [`Value`] (with the usual accessors and `Index`/`IndexMut` sugar),
//! [`Map`] (BTreeMap-backed, like serde_json's default), [`Number`] with
//! numeric equality across integer widths, the [`json!`] macro, and
//! [`to_string`] / [`from_str`] for `Value` round-trips (GMDB's JSON-lines
//! snapshots). Semantics follow serde_json: indexing a missing object key
//! yields `Null`, `IndexMut` auto-inserts into objects, integers parse as
//! `u64` when non-negative and `i64` otherwise.

use std::collections::BTreeMap;
use std::fmt;

/// Minimal error type for parse/print failures.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------- Number

/// A JSON number: distinguishes the u64 / i64 / f64 representations the
/// way serde_json does, with numeric (not representational) equality.
#[derive(Debug, Clone, Copy)]
pub struct Number(N);

#[derive(Debug, Clone, Copy)]
enum N {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

impl Number {
    pub fn is_i64(&self) -> bool {
        match self.0 {
            N::PosInt(v) => v <= i64::MAX as u64,
            N::NegInt(_) => true,
            N::Float(_) => false,
        }
    }

    pub fn is_u64(&self) -> bool {
        matches!(self.0, N::PosInt(_))
    }

    pub fn is_f64(&self) -> bool {
        matches!(self.0, N::Float(_))
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            N::PosInt(v) => i64::try_from(v).ok(),
            N::NegInt(v) => Some(v),
            N::Float(_) => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::PosInt(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self.0 {
            N::PosInt(v) => Some(v as f64),
            N::NegInt(v) => Some(v as f64),
            N::Float(v) => Some(v),
        }
    }

    pub fn from_f64(v: f64) -> Option<Self> {
        v.is_finite().then_some(Number(N::Float(v)))
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self.0, other.0) {
            (N::Float(a), N::Float(b)) => a == b,
            (N::Float(_), _) | (_, N::Float(_)) => false,
            (a, b) => int_of(a) == int_of(b),
        }
    }
}

fn int_of(n: N) -> i128 {
    match n {
        N::PosInt(v) => v as i128,
        N::NegInt(v) => v as i128,
        N::Float(_) => unreachable!("float compared as int"),
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            N::PosInt(v) => write!(f, "{v}"),
            N::NegInt(v) => write!(f, "{v}"),
            N::Float(v) => {
                if v == v.trunc() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
        }
    }
}

macro_rules! number_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Number {
            fn from(v: $t) -> Self {
                Number(N::PosInt(v as u64))
            }
        }
    )*};
}

macro_rules! number_from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Number {
            fn from(v: $t) -> Self {
                if v < 0 {
                    Number(N::NegInt(v as i64))
                } else {
                    Number(N::PosInt(v as u64))
                }
            }
        }
    )*};
}

number_from_unsigned!(u8, u16, u32, u64, usize);
number_from_signed!(i8, i16, i32, i64, isize);

impl From<f64> for Number {
    fn from(v: f64) -> Self {
        Number(N::Float(v))
    }
}

impl From<f32> for Number {
    fn from(v: f32) -> Self {
        Number(N::Float(v as f64))
    }
}

// ------------------------------------------------------------------- Map

/// An object map. serde_json's default is BTreeMap-backed (sorted keys);
/// we match that so iteration and equality are deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map<K = String, V = Value> {
    inner: BTreeMap<K, V>,
}

impl Map<String, Value> {
    pub fn new() -> Self {
        Self {
            inner: BTreeMap::new(),
        }
    }

    pub fn insert(&mut self, k: impl Into<String>, v: Value) -> Option<Value> {
        self.inner.insert(k.into(), v)
    }

    pub fn get<Q: AsRef<str>>(&self, key: Q) -> Option<&Value> {
        self.inner.get(key.as_ref())
    }

    pub fn get_mut<Q: AsRef<str>>(&mut self, key: Q) -> Option<&mut Value> {
        self.inner.get_mut(key.as_ref())
    }

    pub fn remove<Q: AsRef<str>>(&mut self, key: Q) -> Option<Value> {
        self.inner.remove(key.as_ref())
    }

    pub fn contains_key<Q: AsRef<str>>(&self, key: Q) -> bool {
        self.inner.contains_key(key.as_ref())
    }

    pub fn entry(
        &mut self,
        key: impl Into<String>,
    ) -> std::collections::btree_map::Entry<'_, String, Value> {
        self.inner.entry(key.into())
    }

    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.inner.keys()
    }

    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.inner.values()
    }

    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Value> {
        self.inner.values_mut()
    }

    pub fn into_values(self) -> impl Iterator<Item = Value> {
        self.inner.into_values()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.inner.iter()
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&String, &mut Value)> {
        self.inner.iter_mut()
    }

    pub fn len(&self) -> usize {
        self.inner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl IntoIterator for Map<String, Value> {
    type Item = (String, Value);
    type IntoIter = std::collections::btree_map::IntoIter<String, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.into_iter()
    }
}

impl<'a> IntoIterator for &'a Map<String, Value> {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::collections::btree_map::Iter<'a, String, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

impl FromIterator<(String, Value)> for Map<String, Value> {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Self {
            inner: iter.into_iter().collect(),
        }
    }
}

// ----------------------------------------------------------------- Value

/// Any JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// `value.get("key")` / `value.get(index)` without panicking.
    pub fn get<I: ValueIndex>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }

    /// Take the value, leaving `Null` behind.
    pub fn take(&mut self) -> Value {
        std::mem::take(self)
    }
}

/// Polymorphic index (string key or array position), as in serde_json.
pub trait ValueIndex {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value>;
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value;
}

impl ValueIndex for str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_object().and_then(|m| m.get(self))
    }

    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        v.as_object_mut().and_then(|m| m.get_mut(self))
    }

    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        if v.is_null() {
            *v = Value::Object(Map::new());
        }
        match v {
            Value::Object(m) => m.inner.entry(self.to_string()).or_insert(Value::Null),
            other => panic!("cannot index {} with a string key", kind(other)),
        }
    }
}

impl ValueIndex for &str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        (*self).index_into(v)
    }

    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        (*self).index_into_mut(v)
    }

    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        (*self).index_or_insert(v)
    }
}

impl ValueIndex for String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(v)
    }

    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        self.as_str().index_into_mut(v)
    }

    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        self.as_str().index_or_insert(v)
    }
}

impl ValueIndex for &String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(v)
    }

    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        self.as_str().index_into_mut(v)
    }

    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        self.as_str().index_or_insert(v)
    }
}

impl ValueIndex for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_array().and_then(|a| a.get(*self))
    }

    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        v.as_array_mut().and_then(|a| a.get_mut(*self))
    }

    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        match v {
            Value::Array(a) => a.get_mut(*self).expect("array index out of bounds"),
            other => panic!("cannot index {} with a usize", kind(other)),
        }
    }
}

fn kind(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Number(_) => "number",
        Value::String(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

impl<I: ValueIndex> std::ops::Index<I> for Value {
    type Output = Value;

    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

impl<I: ValueIndex> std::ops::IndexMut<I> for Value {
    fn index_mut(&mut self, index: I) -> &mut Value {
        index.index_or_insert(self)
    }
}

// From conversions for json! leaves.
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}

impl From<&String> for Value {
    fn from(v: &String) -> Self {
        Value::String(v.clone())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl From<Map<String, Value>> for Value {
    fn from(m: Map<String, Value>) -> Self {
        Value::Object(m)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(x) => x.into(),
            None => Value::Null,
        }
    }
}

macro_rules! value_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::Number(Number::from(v))
            }
        }
    )*};
}

value_from_number!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", print_value(self))
    }
}

// ----------------------------------------------------------------- print

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn print_value(v: &Value) -> String {
    let mut out = String::new();
    print_into(&mut out, v);
    out
}

fn print_into(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => escape_into(out, s),
        Value::Array(a) => {
            out.push('[');
            for (i, item) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print_into(out, item);
            }
            out.push(']');
        }
        Value::Object(m) => {
            out.push('{');
            for (i, (k, val)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, k);
                out.push(':');
                print_into(out, val);
            }
            out.push('}');
        }
    }
}

/// Serialize a `Value` to its compact JSON text.
pub fn to_string(value: &Value) -> Result<String> {
    Ok(print_value(value))
}

// ----------------------------------------------------------------- parse

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, msg: &str) -> Result<T> {
        Err(Error(format!("{msg} at byte {}", self.pos)))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => self.err("unexpected character"),
        }
    }

    fn keyword(&mut self, kw: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            self.err(&format!("expected '{kw}'"))
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return self.err("truncated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.parse_hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.parse_hex4()?;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at pos-1.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    if end > self.bytes.len() {
                        return self.err("truncated utf-8");
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return self.err("invalid utf-8"),
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return self.err("truncated \\u escape");
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error("bad hex".into()))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| Error("bad hex".into()))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("bad number".into()))?;
        if float {
            let v: f64 = text.parse().map_err(|_| Error("bad float".into()))?;
            Ok(Value::Number(Number(N::Float(v))))
        } else if let Some(stripped) = text.strip_prefix('-') {
            let v: i64 = format!("-{stripped}")
                .parse()
                .map_err(|_| Error("int out of range".into()))?;
            Ok(Value::Number(Number(N::NegInt(v))))
        } else {
            let v: u64 = text.parse().map_err(|_| Error("int out of range".into()))?;
            Ok(Value::Number(Number(N::PosInt(v))))
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            out.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(out));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut out = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(out));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Parse JSON text into a [`Value`].
pub fn from_str(s: &str) -> Result<Value> {
    let mut p = Parser::new(s);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters");
    }
    Ok(v)
}

// ----------------------------------------------------------------- json!

/// Construct a [`Value`] from a JSON-ish literal, as in serde_json.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::Array($crate::json_internal_array!([] $($tt)+))
    };
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut map = $crate::Map::new();
        $crate::json_internal_object!(map () $($tt)+);
        $crate::Value::Object(map)
    }};
    ($other:expr) => { $crate::Value::from($other) };
}

/// Internal: accumulate array elements. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_internal_array {
    // Done: no trailing elements.
    ([ $($elems:expr),* ]) => { vec![$($elems),*] };
    // Trailing comma then end.
    ([ $($elems:expr),* ] ,) => { vec![$($elems),*] };
    // Next element is a nested array.
    ([ $($elems:expr),* ] [ $($arr:tt)* ] $($rest:tt)*) => {
        $crate::json_internal_array!([ $($elems,)* $crate::json!([ $($arr)* ]) ] $($rest)*)
    };
    // Next element is a nested object.
    ([ $($elems:expr),* ] { $($obj:tt)* } $($rest:tt)*) => {
        $crate::json_internal_array!([ $($elems,)* $crate::json!({ $($obj)* }) ] $($rest)*)
    };
    // Next element is null / true / false.
    ([ $($elems:expr),* ] null $($rest:tt)*) => {
        $crate::json_internal_array!([ $($elems,)* $crate::Value::Null ] $($rest)*)
    };
    ([ $($elems:expr),* ] true $($rest:tt)*) => {
        $crate::json_internal_array!([ $($elems,)* $crate::Value::Bool(true) ] $($rest)*)
    };
    ([ $($elems:expr),* ] false $($rest:tt)*) => {
        $crate::json_internal_array!([ $($elems,)* $crate::Value::Bool(false) ] $($rest)*)
    };
    // Comma separator.
    ([ $($elems:expr),* ] , $($rest:tt)*) => {
        $crate::json_internal_array!([ $($elems),* ] $($rest)*)
    };
    // Next element is a general expression (consume until comma).
    ([ $($elems:expr),* ] $next:expr , $($rest:tt)*) => {
        $crate::json_internal_array!([ $($elems,)* $crate::Value::from($next) ] , $($rest)*)
    };
    // Last element is a general expression.
    ([ $($elems:expr),* ] $last:expr) => {
        vec![$($elems,)* $crate::Value::from($last)]
    };
}

/// Internal: accumulate object entries. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_internal_object {
    // Done.
    ($map:ident ()) => {};
    // key: nested object value.
    ($map:ident () $key:tt : { $($obj:tt)* } $($rest:tt)*) => {
        $map.insert(($key).to_string(), $crate::json!({ $($obj)* }));
        $crate::json_internal_object!($map () $($rest)*);
    };
    // key: nested array value.
    ($map:ident () $key:tt : [ $($arr:tt)* ] $($rest:tt)*) => {
        $map.insert(($key).to_string(), $crate::json!([ $($arr)* ]));
        $crate::json_internal_object!($map () $($rest)*);
    };
    // key: null / true / false.
    ($map:ident () $key:tt : null $($rest:tt)*) => {
        $map.insert(($key).to_string(), $crate::Value::Null);
        $crate::json_internal_object!($map () $($rest)*);
    };
    ($map:ident () $key:tt : true $($rest:tt)*) => {
        $map.insert(($key).to_string(), $crate::Value::Bool(true));
        $crate::json_internal_object!($map () $($rest)*);
    };
    ($map:ident () $key:tt : false $($rest:tt)*) => {
        $map.insert(($key).to_string(), $crate::Value::Bool(false));
        $crate::json_internal_object!($map () $($rest)*);
    };
    // key: expression value followed by more entries.
    ($map:ident () $key:tt : $value:expr , $($rest:tt)*) => {
        $map.insert(($key).to_string(), $crate::Value::from($value));
        $crate::json_internal_object!($map () $($rest)*);
    };
    // key: final expression value.
    ($map:ident () $key:tt : $value:expr) => {
        $map.insert(($key).to_string(), $crate::Value::from($value));
    };
    // Trailing comma.
    ($map:ident () ,) => {};
    // Skip leading comma between entries.
    ($map:ident () , $($rest:tt)*) => {
        $crate::json_internal_object!($map () $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_nested_values() {
        let v = json!({
            "id": "a",
            "n": 3,
            "neg": -4,
            "flag": true,
            "list": [1, {"x": null}, "s"],
        });
        assert_eq!(v["id"], json!("a"));
        assert_eq!(v["n"], json!(3u64));
        assert_eq!(v["neg"].as_i64(), Some(-4));
        assert_eq!(v["list"][1]["x"], Value::Null);
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn numeric_equality_across_widths() {
        assert_eq!(json!(7i32), json!(7u64));
        assert_eq!(json!(0usize), json!(0i64));
        assert_ne!(json!(1), json!(2));
        assert_ne!(json!(1), json!(1.5));
    }

    #[test]
    fn round_trip_through_text() {
        let v = json!({
            "s": "quote\" slash\\ newline\n",
            "i": -12,
            "u": 18446744073709551615u64,
            "a": [true, false, null, 1.5],
            "o": {"k": "v"}
        });
        let text = to_string(&v).unwrap();
        let back = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn index_mut_inserts_into_objects() {
        let mut v = json!({"a": 1});
        v["b"] = json!(2);
        assert_eq!(v["b"], json!(2));
        v["arr"] = json!([1, 2, 3]);
        v["arr"][0] = json!(9);
        assert_eq!(v["arr"][0], json!(9));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("nul").is_err());
        assert!(from_str("{} extra").is_err());
    }

    #[test]
    fn unicode_escapes() {
        let v = from_str(r#""A😀""#).unwrap();
        assert_eq!(v, json!("A😀"));
    }
}
