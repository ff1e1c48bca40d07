//! The GMDB data-node store.
//!
//! Implements the Fig 9/Fig 10 flow: clients carry their own schema version;
//! "while DNs only store one copy of data, different GMDB clients may be
//! running applications with different schema versions … by dynamically
//! converting objects from the DN schema version to the requesting client's
//! schema version before returning data". Updates arrive as delta objects;
//! subscribers receive deltas converted into *their* version.
//!
//! Transactions are single-object only ("GMDB only supports transactions on
//! single objects"), so every mutation here is atomic by construction.

use crate::delta::Delta;
use crate::evolution::{ConversionKind, SchemaRegistry};
use hdm_common::{ClientId, HdmError, Result};
use serde_json::Value;
use std::collections::HashMap;

/// One stored object: the single copy on the DN.
#[derive(Debug, Clone)]
pub struct StoredObject {
    /// Schema version the object is currently materialized in.
    pub version: u32,
    pub value: Value,
    /// Monotonic per-object revision (bumped on every write).
    pub revision: u64,
}

/// A change notification for one subscriber, already converted to the
/// subscriber's schema version.
#[derive(Debug, Clone)]
pub struct Notification {
    pub schema: String,
    pub key: String,
    pub revision: u64,
    /// The delta in the subscriber's version.
    pub delta: Delta,
    /// Bytes this notification would cost on the wire.
    pub delta_bytes: usize,
    /// Bytes a whole-object sync would have cost (Fig 11 comparison).
    pub whole_bytes: usize,
}

#[derive(Debug, Clone, Copy)]
struct Subscription {
    client: ClientId,
    version: u32,
}

/// Read/write + conversion statistics (Fig 11 observability).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    pub reads_same_version: u64,
    pub reads_upgraded: u64,
    pub reads_downgraded: u64,
    pub writes: u64,
    pub delta_writes: u64,
    pub notifications: u64,
    pub delta_bytes_sent: u64,
    pub whole_bytes_equivalent: u64,
}

/// One exported object row: `(schema, key, version, value, revision)` — the
/// unit the async flusher snapshots and recovery imports.
pub type ObjectRow = (String, String, u32, Value, u64);

/// An in-memory tree-object store for one data node.
#[derive(Debug, Default)]
pub struct GmdbStore {
    registry: SchemaRegistry,
    objects: HashMap<(String, String), StoredObject>,
    subs: HashMap<(String, String), Vec<Subscription>>,
    outbox: HashMap<u64, Vec<Notification>>,
    stats: StoreStats,
}

impl GmdbStore {
    pub fn new(registry: SchemaRegistry) -> Self {
        Self {
            registry,
            ..Default::default()
        }
    }

    pub fn registry(&self) -> &SchemaRegistry {
        &self.registry
    }

    pub fn registry_mut(&mut self) -> &mut SchemaRegistry {
        &mut self.registry
    }

    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Create or replace an object, supplied in the client's version. The
    /// DN stores the single copy in that version.
    pub fn put(&mut self, schema: &str, client_version: u32, value: Value) -> Result<String> {
        let sch = self.registry.get(schema, client_version)?;
        sch.root.validate(&value)?;
        let key = sch.key_of(&value)?;
        let entry_key = (schema.to_string(), key.clone());
        let revision = self
            .objects
            .get(&entry_key)
            .map(|o| o.revision + 1)
            .unwrap_or(1);
        let old = self.objects.get(&entry_key).cloned();
        self.objects.insert(
            entry_key.clone(),
            StoredObject {
                version: client_version,
                value: value.clone(),
                revision,
            },
        );
        self.stats.writes += 1;
        self.notify(schema, &key, old.as_ref(), client_version, &value, revision)?;
        Ok(key)
    }

    /// Read an object in the client's version, converting as needed.
    pub fn get(&mut self, schema: &str, key: &str, client_version: u32) -> Result<Value> {
        let entry_key = (schema.to_string(), key.to_string());
        let stored = self
            .objects
            .get(&entry_key)
            .ok_or_else(|| HdmError::Execution(format!("no object {schema}/{key}")))?;
        let (value, kind) =
            self.registry
                .convert(schema, &stored.value, stored.version, client_version)?;
        match kind {
            ConversionKind::Same => self.stats.reads_same_version += 1,
            ConversionKind::Upgrade => self.stats.reads_upgraded += 1,
            ConversionKind::Downgrade => self.stats.reads_downgraded += 1,
        }
        Ok(value)
    }

    /// The stored version of an object (observability).
    pub fn stored_version(&self, schema: &str, key: &str) -> Option<u32> {
        self.objects
            .get(&(schema.to_string(), key.to_string()))
            .map(|o| o.version)
    }

    /// Apply a client's delta (expressed in the client's version) as one
    /// single-object transaction: convert the stored copy to the client's
    /// version, apply, validate, store back in the client's version.
    pub fn update_delta(
        &mut self,
        schema: &str,
        key: &str,
        client_version: u32,
        delta: &Delta,
    ) -> Result<u64> {
        let entry_key = (schema.to_string(), key.to_string());
        let stored = self
            .objects
            .get(&entry_key)
            .ok_or_else(|| HdmError::Execution(format!("no object {schema}/{key}")))?
            .clone();
        let (mut working, _) =
            self.registry
                .convert(schema, &stored.value, stored.version, client_version)?;
        delta.apply(&mut working)?;
        let sch = self.registry.get(schema, client_version)?;
        sch.root.validate(&working)?;
        let revision = stored.revision + 1;
        self.objects.insert(
            entry_key,
            StoredObject {
                version: client_version,
                value: working.clone(),
                revision,
            },
        );
        self.stats.writes += 1;
        self.stats.delta_writes += 1;
        self.notify(
            schema,
            key,
            Some(&stored),
            client_version,
            &working,
            revision,
        )?;
        Ok(revision)
    }

    /// Subscribe a client (at its version) to changes of one object.
    pub fn subscribe(
        &mut self,
        schema: &str,
        key: &str,
        client: ClientId,
        client_version: u32,
    ) -> Result<()> {
        self.registry.get(schema, client_version)?;
        self.subs
            .entry((schema.to_string(), key.to_string()))
            .or_default()
            .push(Subscription {
                client,
                version: client_version,
            });
        Ok(())
    }

    /// Drain pending notifications for a client.
    pub fn take_notifications(&mut self, client: ClientId) -> Vec<Notification> {
        self.outbox.remove(&client.raw()).unwrap_or_default()
    }

    /// Export all objects (snapshot for the async flusher).
    pub fn export_objects(&self) -> Vec<ObjectRow> {
        let mut v: Vec<_> = self
            .objects
            .iter()
            .map(|((s, k), o)| (s.clone(), k.clone(), o.version, o.value.clone(), o.revision))
            .collect();
        v.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        v
    }

    /// Import objects (recovery). Existing entries are replaced.
    pub fn import_objects(&mut self, objects: impl IntoIterator<Item = ObjectRow>) {
        for (schema, key, version, value, revision) in objects {
            self.objects.insert(
                (schema, key),
                StoredObject {
                    version,
                    value,
                    revision,
                },
            );
        }
    }

    fn notify(
        &mut self,
        schema: &str,
        key: &str,
        old: Option<&StoredObject>,
        new_version: u32,
        new_value: &Value,
        revision: u64,
    ) -> Result<()> {
        let Some(subs) = self.subs.get(&(schema.to_string(), key.to_string())) else {
            return Ok(());
        };
        let subs = subs.clone();
        for sub in subs {
            // Convert both states into the subscriber's version, then diff —
            // "data updates and schema evolution happen on delta objects".
            let old_sub = match old {
                Some(o) => {
                    self.registry
                        .convert(schema, &o.value, o.version, sub.version)?
                        .0
                }
                None => {
                    // First write: delta from the schema's empty object.
                    self.registry.get(schema, sub.version)?.root.empty_object()
                }
            };
            let new_sub = self
                .registry
                .convert(schema, new_value, new_version, sub.version)?
                .0;
            let delta = Delta::compute(&old_sub, &new_sub);
            if delta.is_empty() {
                continue;
            }
            let delta_bytes = delta.byte_size();
            let whole_bytes = serde_json::to_string(&new_sub)
                .map(|s| s.len())
                .unwrap_or(0);
            self.stats.notifications += 1;
            self.stats.delta_bytes_sent += delta_bytes as u64;
            self.stats.whole_bytes_equivalent += whole_bytes as u64;
            self.outbox
                .entry(sub.client.raw())
                .or_default()
                .push(Notification {
                    schema: schema.to_string(),
                    key: key.to_string(),
                    revision,
                    delta,
                    delta_bytes,
                    whole_bytes,
                });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{FieldDef, FieldType, ObjectSchema, RecordSchema};
    use serde_json::json;

    /// Fig 10's scenario: schema S {'id': string} and S' adding fields.
    fn registry() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        reg.register(
            ObjectSchema::new(
                "d",
                1,
                RecordSchema::new(vec![FieldDef::new("id", FieldType::Str)]),
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        reg.register(
            ObjectSchema::new(
                "d",
                2,
                RecordSchema::new(vec![
                    FieldDef::new("id", FieldType::Str),
                    FieldDef::new("age", FieldType::Int).with_default(json!(0)),
                ]),
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        reg
    }

    /// The paper's Fig 10 walkthrough: client X writes {id:'Jane'} at v1;
    /// client Y reads at v2 and receives the transformed object.
    #[test]
    fn fig10_cross_version_read() {
        let mut store = GmdbStore::new(registry());
        store.put("d", 1, json!({"id": "Jane"})).unwrap();
        let v2 = store.get("d", "Jane", 2).unwrap();
        assert_eq!(v2, json!({"id": "Jane", "age": 0}));
        assert_eq!(store.stats().reads_upgraded, 1);
        // And the reverse: a v2 write read by a v1 client.
        store.put("d", 2, json!({"id": "Bob", "age": 30})).unwrap();
        let v1 = store.get("d", "Bob", 1).unwrap();
        assert_eq!(v1, json!({"id": "Bob"}));
        assert_eq!(store.stats().reads_downgraded, 1);
    }

    #[test]
    fn single_copy_stored_at_writer_version() {
        let mut store = GmdbStore::new(registry());
        store.put("d", 1, json!({"id": "Jane"})).unwrap();
        assert_eq!(store.stored_version("d", "Jane"), Some(1));
        // A v2 client rewrites: the single copy is now v2.
        store.put("d", 2, json!({"id": "Jane", "age": 3})).unwrap();
        assert_eq!(store.stored_version("d", "Jane"), Some(2));
        assert_eq!(store.object_count(), 1);
    }

    #[test]
    fn delta_update_in_foreign_version() {
        let mut store = GmdbStore::new(registry());
        store.put("d", 1, json!({"id": "Jane"})).unwrap();
        // A v2 client patches age via delta against its own view.
        let old_v2 = store.get("d", "Jane", 2).unwrap();
        let mut new_v2 = old_v2.clone();
        new_v2["age"] = json!(29);
        let delta = Delta::compute(&old_v2, &new_v2);
        store.update_delta("d", "Jane", 2, &delta).unwrap();
        assert_eq!(store.get("d", "Jane", 2).unwrap()["age"], json!(29));
        assert_eq!(store.stats().delta_writes, 1);
    }

    #[test]
    fn subscription_delivers_converted_deltas() {
        let mut store = GmdbStore::new(registry());
        store.put("d", 1, json!({"id": "Jane"})).unwrap();
        // Client Y (v2) subscribes; client X (v1) rewrites the object.
        let y = ClientId::new(7);
        store.subscribe("d", "Jane", y, 2).unwrap();
        store.put("d", 1, json!({"id": "Jane"})).unwrap(); // no-op: same content
        assert!(
            store.take_notifications(y).is_empty(),
            "no-change writes are silent"
        );

        // An actual change: v1 has only `id`, but Y's delta is in v2 form.
        let mut obj = json!({"id": "Jane"});
        obj["id"] = json!("Jane"); // unchanged id...
        let _ = obj;
        // Rewrite under v2 with age change so the v2 subscriber sees it.
        store.put("d", 2, json!({"id": "Jane", "age": 31})).unwrap();
        let notes = store.take_notifications(y);
        assert_eq!(notes.len(), 1);
        let mut view = json!({"id": "Jane", "age": 0});
        notes[0].delta.apply(&mut view).unwrap();
        assert_eq!(view["age"], json!(31));
        assert!(notes[0].delta_bytes < notes[0].whole_bytes);
    }

    #[test]
    fn validation_guards_writes() {
        let mut store = GmdbStore::new(registry());
        assert!(store.put("d", 1, json!({"id": 5})).is_err(), "wrong type");
        assert!(
            store.put("d", 1, json!({"id": "x", "age": 1})).is_err(),
            "age unknown in v1"
        );
        assert!(store.put("d", 9, json!({"id": "x"})).is_err(), "no v9");
    }

    #[test]
    fn missing_object_errors() {
        let mut store = GmdbStore::new(registry());
        assert!(store.get("d", "nope", 1).is_err());
        assert!(store
            .update_delta("d", "nope", 1, &Delta::default())
            .is_err());
    }

    #[test]
    fn stats_accumulate_bandwidth_savings() {
        let mut store = GmdbStore::new(registry());
        let y = ClientId::new(1);
        store.put("d", 2, json!({"id": "k", "age": 0})).unwrap();
        store.subscribe("d", "k", y, 2).unwrap();
        for age in 1..=10 {
            store.put("d", 2, json!({"id": "k", "age": age})).unwrap();
        }
        let s = store.stats();
        assert_eq!(s.notifications, 10);
        assert!(s.delta_bytes_sent < s.whole_bytes_equivalent);
    }
}
