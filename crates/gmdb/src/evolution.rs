//! Online schema evolution (paper §III-B, Figs 8–10).
//!
//! A schema name owns a chain of versions. Registering a new version is
//! legal only if the previous version's fields appear unchanged, in order,
//! as a prefix (recursively for nested record types): adding fields at the
//! end is allowed, "deleting and re-ordering fields are two major cases that
//! are not allowed".
//!
//! Conversion happens at read time: "GMDB allows objects stored in the DNs
//! to be read by a client with a different schema version … by dynamically
//! converting objects from the DN schema version to the requesting client's
//! schema version". Upgrade fills appended fields with their defaults;
//! downgrade strips them. Direct conversion is defined between *adjacent*
//! registered versions (Fig 8 marks non-adjacent pairs `X`); longer hops
//! compose adjacent steps (U1 then U2 …), which [`SchemaRegistry::convert`]
//! performs automatically.

use crate::object::{FieldType, ObjectSchema, RecordSchema};
use hdm_common::{HdmError, Result};
use serde_json::Value;
use std::collections::BTreeMap;
use std::collections::HashMap;

/// Versioned schema store for all object types on a node.
#[derive(Debug, Clone, Default)]
pub struct SchemaRegistry {
    chains: HashMap<String, BTreeMap<u32, ObjectSchema>>,
}

/// Direction of a conversion, for stats and the Fig 8 matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConversionKind {
    Same,
    Upgrade,
    Downgrade,
}

impl SchemaRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a schema version. The first version of a name is accepted
    /// as-is; later versions must be legal evolutions of the latest.
    pub fn register(&mut self, schema: ObjectSchema) -> Result<()> {
        let chain = self.chains.entry(schema.name.clone()).or_default();
        if let Some((&latest, prev)) = chain.last_key_value() {
            if schema.version <= latest {
                return Err(HdmError::SchemaEvolution(format!(
                    "{} v{} is not newer than registered v{latest}",
                    schema.name, schema.version
                )));
            }
            check_legal_evolution(&prev.root, &schema.root).map_err(|e| prefix_err(&schema, e))?;
            if prev.primary_key != schema.primary_key {
                return Err(HdmError::SchemaEvolution(format!(
                    "{} v{}: primary key may not change",
                    schema.name, schema.version
                )));
            }
        }
        chain.insert(schema.version, schema);
        Ok(())
    }

    pub fn get(&self, name: &str, version: u32) -> Result<&ObjectSchema> {
        self.chains
            .get(name)
            .and_then(|c| c.get(&version))
            .ok_or_else(|| HdmError::SchemaEvolution(format!("unknown schema {name} v{version}")))
    }

    /// Latest registered version of a schema name.
    pub fn latest(&self, name: &str) -> Option<u32> {
        self.chains.get(name)?.last_key_value().map(|(&v, _)| v)
    }

    /// All registered versions of a name, ascending.
    pub fn versions(&self, name: &str) -> Vec<u32> {
        self.chains
            .get(name)
            .map(|c| c.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Is `(from, to)` an adjacent pair in the registered chain? Fig 8's
    /// matrix: only adjacent upgrades (U) and downgrades (D) are directly
    /// supported; everything else is `X`.
    pub fn is_adjacent(&self, name: &str, from: u32, to: u32) -> bool {
        let versions = self.versions(name);
        let (lo, hi) = (from.min(to), from.max(to));
        versions.windows(2).any(|w| w[0] == lo && w[1] == hi)
    }

    /// Convert an object between two registered versions, composing
    /// adjacent steps as needed. Returns the converted object and the
    /// conversion direction.
    pub fn convert(
        &self,
        name: &str,
        obj: &Value,
        from: u32,
        to: u32,
    ) -> Result<(Value, ConversionKind)> {
        if from == to {
            return Ok((obj.clone(), ConversionKind::Same));
        }
        let versions = self.versions(name);
        let fi = versions
            .iter()
            .position(|&v| v == from)
            .ok_or_else(|| HdmError::SchemaEvolution(format!("unknown {name} v{from}")))?;
        let ti = versions
            .iter()
            .position(|&v| v == to)
            .ok_or_else(|| HdmError::SchemaEvolution(format!("unknown {name} v{to}")))?;
        let mut cur = obj.clone();
        if fi < ti {
            for w in versions[fi..=ti].windows(2) {
                let target = self.get(name, w[1])?;
                cur = convert_record(&cur, &target.root);
            }
            Ok((cur, ConversionKind::Upgrade))
        } else {
            for w in versions[ti..=fi].windows(2).rev() {
                let target = self.get(name, w[0])?;
                cur = convert_record(&cur, &target.root);
            }
            Ok((cur, ConversionKind::Downgrade))
        }
    }

    /// One adjacent-step conversion (Fig 8's U_i / D_i); errors on
    /// non-adjacent pairs.
    pub fn convert_adjacent(
        &self,
        name: &str,
        obj: &Value,
        from: u32,
        to: u32,
    ) -> Result<(Value, ConversionKind)> {
        if from != to && !self.is_adjacent(name, from, to) {
            return Err(HdmError::SchemaEvolution(format!(
                "{name}: v{from} -> v{to} is not an adjacent conversion (X in the matrix)"
            )));
        }
        self.convert(name, obj, from, to)
    }
}

fn prefix_err(schema: &ObjectSchema, e: HdmError) -> HdmError {
    HdmError::SchemaEvolution(format!(
        "illegal evolution to {} v{}: {e}",
        schema.name, schema.version
    ))
}

/// The legality check: `old` must be a structural prefix of `new`.
fn check_legal_evolution(old: &RecordSchema, new: &RecordSchema) -> Result<()> {
    if new.fields.len() < old.fields.len() {
        return Err(HdmError::SchemaEvolution(
            "deleting fields is not allowed".into(),
        ));
    }
    for (i, of) in old.fields.iter().enumerate() {
        let nf = &new.fields[i];
        if nf.name != of.name {
            // Either a rename, a delete, or a re-order: all illegal.
            if new.fields.iter().any(|f| f.name == of.name) {
                return Err(HdmError::SchemaEvolution(format!(
                    "re-ordering fields is not allowed (field '{}' moved)",
                    of.name
                )));
            }
            return Err(HdmError::SchemaEvolution(format!(
                "deleting fields is not allowed (field '{}' gone)",
                of.name
            )));
        }
        match (&of.ftype, &nf.ftype) {
            (FieldType::Record(os), FieldType::Record(ns)) => {
                check_legal_evolution(os, ns)?;
            }
            (a, b) if a == b => {}
            _ => {
                return Err(HdmError::SchemaEvolution(format!(
                    "field '{}' may not change type",
                    of.name
                )))
            }
        }
    }
    Ok(())
}

/// Shape an object to a target record schema: keep known fields (recursing
/// into record arrays), fill appended fields with defaults, drop the rest.
fn convert_record(obj: &Value, target: &RecordSchema) -> Value {
    let src = obj.as_object();
    let mut out = serde_json::Map::new();
    for f in &target.fields {
        let val = src.and_then(|m| m.get(&f.name));
        let converted = match (val, &f.ftype) {
            (Some(Value::Array(items)), FieldType::Record(sub)) => {
                Value::Array(items.iter().map(|i| convert_record(i, sub)).collect())
            }
            (Some(v), _) => v.clone(),
            (None, _) => f.default_value(),
        };
        out.insert(f.name.clone(), converted);
    }
    Value::Object(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::FieldDef;
    use serde_json::json;

    /// The MME chain of Fig 8: V3, V5, V6, V7, V8 — each adding fields.
    pub(crate) fn mme_chain() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        let base = vec![
            FieldDef::new("id", FieldType::Str),
            FieldDef::new("imsi", FieldType::Int),
        ];
        let mut fields = base;
        for (version, new_field) in [
            (3u32, None),
            (
                5,
                Some(FieldDef::new("apn", FieldType::Str).with_default(json!("default-apn"))),
            ),
            (
                6,
                Some(FieldDef::new("qos", FieldType::Int).with_default(json!(9))),
            ),
            (
                7,
                Some(FieldDef::new("roaming", FieldType::Bool).with_default(json!(false))),
            ),
            (
                8,
                Some(FieldDef::new("slice_id", FieldType::Int).with_default(json!(0))),
            ),
        ] {
            if let Some(f) = new_field {
                fields.push(f);
            }
            reg.register(
                ObjectSchema::new("mme", version, RecordSchema::new(fields.clone()), "id").unwrap(),
            )
            .unwrap();
        }
        reg
    }

    fn v3_object() -> Value {
        json!({"id": "jane", "imsi": 46000})
    }

    #[test]
    fn chain_registers_and_reports_versions() {
        let reg = mme_chain();
        assert_eq!(reg.versions("mme"), vec![3, 5, 6, 7, 8]);
        assert_eq!(reg.latest("mme"), Some(8));
    }

    #[test]
    fn upgrade_fills_defaults_through_chain() {
        let reg = mme_chain();
        let (v8, kind) = reg.convert("mme", &v3_object(), 3, 8).unwrap();
        assert_eq!(kind, ConversionKind::Upgrade);
        assert_eq!(v8["apn"], json!("default-apn"));
        assert_eq!(v8["qos"], json!(9));
        assert_eq!(v8["roaming"], json!(false));
        assert_eq!(v8["slice_id"], json!(0));
        // Conforms to the v8 schema.
        reg.get("mme", 8).unwrap().root.validate(&v8).unwrap();
    }

    #[test]
    fn downgrade_strips_added_fields() {
        let reg = mme_chain();
        let v8_obj = json!({
            "id": "jane", "imsi": 46000, "apn": "internet",
            "qos": 5, "roaming": true, "slice_id": 7
        });
        let (v3, kind) = reg.convert("mme", &v8_obj, 8, 3).unwrap();
        assert_eq!(kind, ConversionKind::Downgrade);
        assert_eq!(v3, v3_object());
        reg.get("mme", 3).unwrap().root.validate(&v3).unwrap();
    }

    #[test]
    fn upgrade_then_downgrade_round_trips() {
        let reg = mme_chain();
        let (up, _) = reg.convert("mme", &v3_object(), 3, 8).unwrap();
        let (down, _) = reg.convert("mme", &up, 8, 3).unwrap();
        assert_eq!(down, v3_object());
    }

    /// Fig 8's matrix: U/D only between adjacent versions, X elsewhere.
    #[test]
    fn adjacency_matrix_matches_fig8() {
        let reg = mme_chain();
        let versions = [3u32, 5, 6, 7, 8];
        for (i, &a) in versions.iter().enumerate() {
            for (j, &b) in versions.iter().enumerate() {
                let expect = i.abs_diff(j) == 1;
                assert_eq!(reg.is_adjacent("mme", a, b), expect, "adjacency({a},{b})");
                if a != b {
                    let direct = reg.convert_adjacent("mme", &v3_object(), a, b);
                    assert_eq!(direct.is_ok(), expect, "direct({a},{b})");
                }
            }
        }
    }

    #[test]
    fn deleting_fields_rejected() {
        let mut reg = SchemaRegistry::new();
        reg.register(
            ObjectSchema::new(
                "s",
                1,
                RecordSchema::new(vec![
                    FieldDef::new("id", FieldType::Str),
                    FieldDef::new("a", FieldType::Int),
                ]),
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        let err = reg
            .register(
                ObjectSchema::new(
                    "s",
                    2,
                    RecordSchema::new(vec![FieldDef::new("id", FieldType::Str)]),
                    "id",
                )
                .unwrap(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("deleting"));
    }

    #[test]
    fn reordering_fields_rejected() {
        let mut reg = SchemaRegistry::new();
        reg.register(
            ObjectSchema::new(
                "s",
                1,
                RecordSchema::new(vec![
                    FieldDef::new("id", FieldType::Str),
                    FieldDef::new("a", FieldType::Int),
                    FieldDef::new("b", FieldType::Int),
                ]),
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        let err = reg
            .register(
                ObjectSchema::new(
                    "s",
                    2,
                    RecordSchema::new(vec![
                        FieldDef::new("id", FieldType::Str),
                        FieldDef::new("b", FieldType::Int),
                        FieldDef::new("a", FieldType::Int),
                    ]),
                    "id",
                )
                .unwrap(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("re-ordering"));
    }

    #[test]
    fn type_change_rejected_but_nested_append_allowed() {
        let mut reg = SchemaRegistry::new();
        let nested_v1 = RecordSchema::new(vec![FieldDef::new("x", FieldType::Int)]);
        reg.register(
            ObjectSchema::new(
                "s",
                1,
                RecordSchema::new(vec![
                    FieldDef::new("id", FieldType::Str),
                    FieldDef::new("subs", FieldType::Record(nested_v1)),
                ]),
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        // Nested append is fine.
        let nested_v2 = RecordSchema::new(vec![
            FieldDef::new("x", FieldType::Int),
            FieldDef::new("y", FieldType::Int).with_default(json!(0)),
        ]);
        reg.register(
            ObjectSchema::new(
                "s",
                2,
                RecordSchema::new(vec![
                    FieldDef::new("id", FieldType::Str),
                    FieldDef::new("subs", FieldType::Record(nested_v2)),
                ]),
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        // Type change is not.
        let err = reg
            .register(
                ObjectSchema::new(
                    "s",
                    3,
                    RecordSchema::new(vec![
                        FieldDef::new("id", FieldType::Int),
                        FieldDef::new("subs", FieldType::Record(RecordSchema::default())),
                    ]),
                    "id",
                )
                .unwrap(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("type"));
        // Nested upgrade converts array items.
        let obj = json!({"id": "k", "subs": [{"x": 1}]});
        let (up, _) = reg.convert("s", &obj, 1, 2).unwrap();
        assert_eq!(up["subs"][0]["y"], json!(0));
    }

    #[test]
    fn version_must_increase() {
        let mut reg = mme_chain();
        let dup = ObjectSchema::new(
            "mme",
            5,
            RecordSchema::new(vec![FieldDef::new("id", FieldType::Str)]),
            "id",
        )
        .unwrap();
        assert!(reg.register(dup).is_err());
    }
}
