//! The GMDB tree object model and its record schemas.
//!
//! Objects are JSON trees (paper: "represented as a tree-modeled object in
//! a JSON format and stored in our KV store"). A schema describes the root
//! record: an *ordered* list of fields — order matters because re-ordering
//! fields is an illegal schema change (§III-B) — where each field is a
//! primitive or an array of sub-records.

use hdm_common::{HdmError, Result};
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Type of one field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldType {
    Int,
    Float,
    Str,
    Bool,
    /// An array of records with the given schema (the tree branch case).
    Record(RecordSchema),
}

impl FieldType {
    fn name(&self) -> &'static str {
        match self {
            FieldType::Int => "int",
            FieldType::Float => "float",
            FieldType::Str => "str",
            FieldType::Bool => "bool",
            FieldType::Record(_) => "record[]",
        }
    }

    /// Does `v` conform to this type?
    fn accepts(&self, v: &Value) -> bool {
        match (self, v) {
            (_, Value::Null) => true, // fields are nullable
            (FieldType::Int, Value::Number(n)) => n.is_i64() || n.is_u64(),
            (FieldType::Float, Value::Number(_)) => true,
            (FieldType::Str, Value::String(_)) => true,
            (FieldType::Bool, Value::Bool(_)) => true,
            (FieldType::Record(_), Value::Array(_)) => true, // items checked by caller
            _ => false,
        }
    }
}

/// One field definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldDef {
    pub name: String,
    pub ftype: FieldType,
    /// Value for this field when upgrading an object from a version that
    /// predates it. `None` means JSON null.
    pub default: Option<Value>,
}

impl FieldDef {
    pub fn new(name: &str, ftype: FieldType) -> Self {
        Self {
            name: name.to_string(),
            ftype,
            default: None,
        }
    }

    pub fn with_default(mut self, v: Value) -> Self {
        self.default = Some(v);
        self
    }

    /// The value a fresh/upgraded object gets for this field.
    pub fn default_value(&self) -> Value {
        match &self.default {
            Some(v) => v.clone(),
            None => match &self.ftype {
                FieldType::Record(_) => Value::Array(vec![]),
                _ => Value::Null,
            },
        }
    }
}

/// An ordered record schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RecordSchema {
    pub fields: Vec<FieldDef>,
}

impl RecordSchema {
    pub fn new(fields: Vec<FieldDef>) -> Self {
        Self { fields }
    }

    pub fn field(&self, name: &str) -> Option<&FieldDef> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Validate a JSON object against this record schema: every schema field
    /// present with a conforming value; no unknown fields.
    pub fn validate(&self, v: &Value) -> Result<()> {
        let Value::Object(map) = v else {
            return Err(HdmError::SchemaEvolution(format!(
                "expected a JSON object, got {v}"
            )));
        };
        for f in &self.fields {
            let Some(val) = map.get(&f.name) else {
                return Err(HdmError::SchemaEvolution(format!(
                    "missing field '{}'",
                    f.name
                )));
            };
            if !f.ftype.accepts(val) {
                return Err(HdmError::SchemaEvolution(format!(
                    "field '{}' expects {} but got {val}",
                    f.name,
                    f.ftype.name()
                )));
            }
            if let (FieldType::Record(sub), Value::Array(items)) = (&f.ftype, val) {
                for item in items {
                    sub.validate(item)?;
                }
            }
        }
        for k in map.keys() {
            if self.field(k).is_none() {
                return Err(HdmError::SchemaEvolution(format!("unknown field '{k}'")));
            }
        }
        Ok(())
    }

    /// A minimal conforming object (all defaults).
    pub fn empty_object(&self) -> Value {
        let mut map = serde_json::Map::new();
        for f in &self.fields {
            map.insert(f.name.clone(), f.default_value());
        }
        Value::Object(map)
    }
}

/// A named, versioned object schema with a primary-key field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectSchema {
    pub name: String,
    pub version: u32,
    pub root: RecordSchema,
    /// Field of the root record uniquely identifying the object
    /// ("a primary key is defined to uniquely identify a root record").
    pub primary_key: String,
}

impl ObjectSchema {
    pub fn new(name: &str, version: u32, root: RecordSchema, primary_key: &str) -> Result<Self> {
        if root.field(primary_key).is_none() {
            return Err(HdmError::SchemaEvolution(format!(
                "primary key '{primary_key}' is not a field of {name} v{version}"
            )));
        }
        Ok(Self {
            name: name.to_string(),
            version,
            root,
            primary_key: primary_key.to_string(),
        })
    }

    /// Extract the primary key of a conforming object as a string.
    pub fn key_of(&self, v: &Value) -> Result<String> {
        let key = v
            .get(&self.primary_key)
            .ok_or_else(|| HdmError::SchemaEvolution("object missing primary key".into()))?;
        Ok(match key {
            Value::String(s) => s.clone(),
            other => other.to_string(),
        })
    }

    /// Approximate serialized size in bytes (Fig 11 sizing).
    pub fn object_size(v: &Value) -> usize {
        serde_json::to_string(v).map(|s| s.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    /// A miniature MME-style session schema: id + bearers sub-records.
    pub(crate) fn session_v1() -> ObjectSchema {
        ObjectSchema::new(
            "session",
            1,
            RecordSchema::new(vec![
                FieldDef::new("id", FieldType::Str),
                FieldDef::new("imsi", FieldType::Int),
                FieldDef::new(
                    "bearers",
                    FieldType::Record(RecordSchema::new(vec![
                        FieldDef::new("bearer_id", FieldType::Int),
                        FieldDef::new("qci", FieldType::Int),
                    ])),
                ),
            ]),
            "id",
        )
        .unwrap()
    }

    #[test]
    fn validate_accepts_conforming_tree() {
        let s = session_v1();
        let obj = json!({
            "id": "jane",
            "imsi": 460001234,
            "bearers": [{"bearer_id": 5, "qci": 9}, {"bearer_id": 6, "qci": 8}]
        });
        assert!(s.root.validate(&obj).is_ok());
        assert_eq!(s.key_of(&obj).unwrap(), "jane");
    }

    #[test]
    fn validate_rejects_missing_unknown_and_mistyped() {
        let s = session_v1();
        assert!(s.root.validate(&json!({"id": "x"})).is_err(), "missing");
        let extra = json!({"id": "x", "imsi": 1, "bearers": [], "zz": 1});
        assert!(s.root.validate(&extra).is_err(), "unknown field");
        let bad = json!({"id": 5, "imsi": 1, "bearers": []});
        assert!(s.root.validate(&bad).is_err(), "id must be string");
        let bad_nested = json!({
            "id": "x", "imsi": 1,
            "bearers": [{"bearer_id": "not int", "qci": 9}]
        });
        assert!(s.root.validate(&bad_nested).is_err(), "nested type");
    }

    #[test]
    fn nulls_are_accepted_everywhere() {
        let s = session_v1();
        let obj = json!({"id": "x", "imsi": null, "bearers": []});
        assert!(s.root.validate(&obj).is_ok());
    }

    #[test]
    fn empty_object_conforms() {
        let s = session_v1();
        let e = s.root.empty_object();
        assert!(s.root.validate(&e).is_ok());
    }

    #[test]
    fn primary_key_must_exist() {
        let r = RecordSchema::new(vec![FieldDef::new("a", FieldType::Int)]);
        assert!(ObjectSchema::new("x", 1, r, "nope").is_err());
    }

    #[test]
    fn object_size_tracks_content() {
        let small = json!({"id": "x"});
        let big = json!({"id": "x", "blob": "y".repeat(5000)});
        assert!(ObjectSchema::object_size(&big) > ObjectSchema::object_size(&small) + 4000);
    }
}
