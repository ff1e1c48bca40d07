//! Runtime values (`Datum`) and logical column types (`DataType`) shared by
//! the relational storage engine, the SQL executor, and the multi-model
//! engines.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Logical column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
    /// Microseconds since an arbitrary epoch; used by the time-series engine.
    Timestamp,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
            DataType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

/// A runtime value. `Null` is a member of every type.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Datum {
    Null,
    Int(i64),
    Float(f64),
    Text(String),
    Bool(bool),
    /// Microseconds since epoch.
    Timestamp(i64),
}

impl Datum {
    /// The datum's type, or `None` for `Null` (which is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Datum::Null => None,
            Datum::Int(_) => Some(DataType::Int),
            Datum::Float(_) => Some(DataType::Float),
            Datum::Text(_) => Some(DataType::Text),
            Datum::Bool(_) => Some(DataType::Bool),
            Datum::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// Extract an integer, coercing from float/bool where lossless enough for
    /// the engine's arithmetic (SQL-style implicit cast).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(v) => Some(*v),
            Datum::Timestamp(v) => Some(*v),
            Datum::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Extract a float, widening from int.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Datum::Float(v) => Some(*v),
            Datum::Int(v) => Some(*v as f64),
            Datum::Timestamp(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_text(&self) -> Option<&str> {
        match self {
            Datum::Text(s) => Some(s),
            _ => None,
        }
    }

    #[inline]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Datum::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL comparison: `None` when either side is NULL or the types are
    /// incomparable (three-valued logic's UNKNOWN).
    #[inline]
    pub fn sql_cmp(&self, other: &Datum) -> Option<Ordering> {
        use Datum::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Timestamp(a), Timestamp(b)) => Some(a.cmp(b)),
            (Int(a), Timestamp(b)) | (Timestamp(b), Int(a)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total order for sorting (ORDER BY, index keys): NULLs sort first,
    /// cross-type falls back to a type rank so sorting never panics.
    #[inline]
    pub fn total_cmp(&self, other: &Datum) -> Ordering {
        fn rank(d: &Datum) -> u8 {
            match d {
                Datum::Null => 0,
                Datum::Bool(_) => 1,
                Datum::Int(_) => 2,
                Datum::Float(_) => 2, // comparable with Int via sql_cmp
                Datum::Timestamp(_) => 2,
                Datum::Text(_) => 3,
            }
        }
        match self.sql_cmp(other) {
            Some(o) => o,
            None => match (self, other) {
                (Datum::Null, Datum::Null) => Ordering::Equal,
                (Datum::Null, _) => Ordering::Less,
                (_, Datum::Null) => Ordering::Greater,
                (Datum::Float(a), Datum::Float(b)) => a.total_cmp(b),
                _ => rank(self).cmp(&rank(other)),
            },
        }
    }

    /// Approximate in-memory footprint in bytes, used by cost models.
    pub fn width(&self) -> usize {
        match self {
            Datum::Null => 1,
            Datum::Int(_) | Datum::Float(_) | Datum::Timestamp(_) => 8,
            Datum::Bool(_) => 1,
            Datum::Text(s) => s.len() + 4,
        }
    }

    /// A stable hash for distribution (sharding) and hash joins. NULL hashes
    /// to a fixed value; Int/Float that compare equal hash equal.
    #[inline]
    pub fn dist_hash(&self) -> u64 {
        const SEED: u64 = 0x9e3779b97f4a7c15;
        fn mix(mut h: u64) -> u64 {
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51afd7ed558ccd);
            h ^= h >> 33;
            h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
            h ^ (h >> 33)
        }
        match self {
            Datum::Null => mix(SEED),
            Datum::Int(v) | Datum::Timestamp(v) => mix(*v as u64 ^ SEED),
            Datum::Float(f) => {
                // Hash equal-comparing floats as their integer value when exact.
                if f.fract() == 0.0 && f.abs() < i64::MAX as f64 {
                    mix(*f as i64 as u64 ^ SEED)
                } else {
                    mix(f.to_bits() ^ SEED)
                }
            }
            Datum::Bool(b) => mix(*b as u64 ^ SEED),
            Datum::Text(s) => {
                let mut h = SEED;
                for b in s.as_bytes() {
                    h = h.wrapping_mul(0x100000001b3) ^ (*b as u64);
                }
                mix(h)
            }
        }
    }
}

impl PartialEq for Datum {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}
impl Eq for Datum {}

impl PartialOrd for Datum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Datum {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Datum {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.dist_hash());
    }
}

/// Builds the [`DatumHasher`] of a table keyed by datums.
pub type BuildDatumHasher = BuildHasherDefault<DatumHasher>;

/// The hasher of every per-statement table keyed by datums: hash-join
/// builds, aggregate groups, DISTINCT and set-operation sets, and
/// ANALYZE's distinct counts. `Datum`'s `Hash` writes its already-mixed
/// [`Datum::dist_hash`], so one multiply-rotate per written word spreads a
/// composite key; equal datums (`Int(7)` and `Float(7.0)` included) hash
/// equal because every key goes through `Datum::hash`.
///
/// Not flood-resistant: it keys only tables that live for one statement,
/// so keys crafted to collide slow down that statement and nothing else.
#[derive(Debug, Clone, Copy, Default)]
pub struct DatumHasher(u64);

impl DatumHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(23);
    }
}

impl Hasher for DatumHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.fold(word);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.fold(word as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => f.write_str("NULL"),
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Float(v) => write!(f, "{v}"),
            Datum::Text(s) => write!(f, "'{s}'"),
            Datum::Bool(b) => write!(f, "{b}"),
            Datum::Timestamp(v) => write!(f, "ts:{v}"),
        }
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::Int(v)
    }
}
impl From<f64> for Datum {
    fn from(v: f64) -> Self {
        Datum::Float(v)
    }
}
impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::Text(v.to_string())
    }
}
impl From<String> for Datum {
    fn from(v: String) -> Self {
        Datum::Text(v)
    }
}
impl From<bool> for Datum {
    fn from(v: bool) -> Self {
        Datum::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Datum::Null.sql_cmp(&Datum::Int(1)), None);
        assert_eq!(Datum::Int(1).sql_cmp(&Datum::Null), None);
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(
            Datum::Int(2).sql_cmp(&Datum::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Datum::Float(1.5).sql_cmp(&Datum::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn total_order_puts_null_first() {
        let mut v = [Datum::Int(3), Datum::Null, Datum::Int(1)];
        v.sort();
        assert_eq!(v[0], Datum::Null);
        assert_eq!(v[1], Datum::Int(1));
    }

    #[test]
    fn equal_int_and_float_hash_equal() {
        assert_eq!(Datum::Int(7).dist_hash(), Datum::Float(7.0).dist_hash());
    }

    /// Keys that compare equal hash equal under the table hasher, and
    /// distinct small integers spread over both ends of the hash (the low
    /// bits pick a bucket, the high bits its control byte).
    #[test]
    fn the_table_hasher_agrees_with_eq_and_spreads() {
        use std::hash::BuildHasher;
        let h = |key: &[Datum]| BuildDatumHasher::default().hash_one(key);
        assert_eq!(h(&[Datum::Int(7)]), h(&[Datum::Float(7.0)]));
        assert_eq!(
            h(&[Datum::Null, Datum::Timestamp(3)]),
            h(&[Datum::Null, Datum::Int(3)])
        );
        assert_ne!(
            h(&[Datum::Int(1), Datum::Int(2)]),
            h(&[Datum::Int(2), Datum::Int(1)])
        );
        let hashes: Vec<u64> = (0..4096).map(|i| h(&[Datum::Int(i)])).collect();
        let low: std::collections::HashSet<u64> = hashes.iter().map(|x| x & 0xfff).collect();
        let high: std::collections::HashSet<u64> = hashes.iter().map(|x| x >> 57).collect();
        assert!(
            low.len() > 2_000,
            "{} distinct low 12-bit values",
            low.len()
        );
        assert_eq!(high.len(), 128, "every control byte is used");
    }

    #[test]
    fn text_hash_spreads() {
        let a = Datum::Text("warehouse-1".into()).dist_hash();
        let b = Datum::Text("warehouse-2".into()).dist_hash();
        assert_ne!(a, b);
    }

    #[test]
    fn width_reflects_content() {
        assert_eq!(Datum::Int(0).width(), 8);
        assert!(Datum::Text("hello".into()).width() > 5);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Datum::Text("x".into()).to_string(), "'x'");
        assert_eq!(Datum::Null.to_string(), "NULL");
    }
}
