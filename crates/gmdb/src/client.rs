//! The GMDB client driver with a local data cache.
//!
//! "A client sends a query or DML statement directly to DNs without
//! involvement of CNs. Each client has a local data cache in its own schema
//! version to reduce latency" (§III-B, Fig 9). The driver reads through the
//! cache, writes through as deltas, and keeps cached objects coherent by
//! applying subscription notifications (which arrive already converted to
//! the client's schema version).

use crate::delta::Delta;
use crate::fibers::GmdbRuntime;
use hdm_common::{ClientId, HdmError, Result};
use serde_json::Value;
use std::collections::HashMap;

/// Cache effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub writes: u64,
    pub notifications_applied: u64,
}

/// A GMDB client bound to one schema name and version.
pub struct GmdbClient<'rt> {
    runtime: &'rt GmdbRuntime,
    id: ClientId,
    schema: String,
    version: u32,
    cache: HashMap<String, (Value, u64)>,
    stats: ClientStats,
}

impl<'rt> GmdbClient<'rt> {
    pub fn new(runtime: &'rt GmdbRuntime, id: ClientId, schema: &str, version: u32) -> Self {
        Self {
            runtime,
            id,
            schema: schema.to_string(),
            version,
            cache: HashMap::new(),
            stats: ClientStats::default(),
        }
    }

    pub fn id(&self) -> ClientId {
        self.id
    }

    pub fn version(&self) -> u32 {
        self.version
    }

    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    pub fn cached_objects(&self) -> usize {
        self.cache.len()
    }

    /// Create an object (in this client's version) and cache it.
    pub fn create(&mut self, value: Value) -> Result<String> {
        let key = self
            .runtime
            .put(&self.schema, self.version, value.clone())?;
        self.stats.writes += 1;
        self.cache.insert(key.clone(), (value, 1));
        // Keep the cache coherent against other writers.
        self.runtime
            .subscribe(&self.schema, &key, self.id, self.version)?;
        Ok(key)
    }

    /// Read through the cache: a hit costs no DN round trip.
    pub fn get(&mut self, key: &str) -> Result<Value> {
        self.pump_notifications()?;
        if let Some((v, _)) = self.cache.get(key) {
            self.stats.cache_hits += 1;
            return Ok(v.clone());
        }
        self.stats.cache_misses += 1;
        let v = self.runtime.get(&self.schema, key, self.version)?;
        self.cache.insert(key.to_string(), (v.clone(), 0));
        self.runtime
            .subscribe(&self.schema, key, self.id, self.version)?;
        Ok(v)
    }

    /// Modify an object with a closure; the change travels as a delta.
    pub fn update(&mut self, key: &str, f: impl FnOnce(&mut Value)) -> Result<()> {
        let old = self.get(key)?;
        let mut new = old.clone();
        f(&mut new);
        let delta = Delta::compute(&old, &new);
        if delta.is_empty() {
            return Ok(());
        }
        let rev = self
            .runtime
            .update_delta(&self.schema, key, self.version, delta)?;
        self.stats.writes += 1;
        self.cache.insert(key.to_string(), (new, rev));
        // Drain the echo of our own write so it is not re-applied.
        self.pump_notifications()?;
        Ok(())
    }

    /// Apply pending notifications (delta sync from the DN) to the cache.
    pub fn pump_notifications(&mut self) -> Result<()> {
        for note in self.runtime.take_notifications(self.id)? {
            if note.schema != self.schema {
                continue;
            }
            if let Some((cached, rev)) = self.cache.get_mut(&note.key) {
                if note.revision <= *rev {
                    continue; // our own write's echo, or stale
                }
                note.delta.apply(cached).map_err(|e| {
                    HdmError::Execution(format!("cache delta apply on {}: {e}", note.key))
                })?;
                *rev = note.revision;
                self.stats.notifications_applied += 1;
            }
        }
        Ok(())
    }

    /// Drop an object from the cache (tests / memory pressure).
    pub fn evict(&mut self, key: &str) {
        self.cache.remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{FieldDef, FieldType, ObjectSchema, RecordSchema};
    use serde_json::json;

    fn runtime() -> GmdbRuntime {
        let mut rt = GmdbRuntime::new(2);
        rt.register(
            ObjectSchema::new(
                "s",
                1,
                RecordSchema::new(vec![
                    FieldDef::new("id", FieldType::Str),
                    FieldDef::new("n", FieldType::Int),
                ]),
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        rt.register(
            ObjectSchema::new(
                "s",
                2,
                RecordSchema::new(vec![
                    FieldDef::new("id", FieldType::Str),
                    FieldDef::new("n", FieldType::Int),
                    FieldDef::new("extra", FieldType::Int).with_default(json!(0)),
                ]),
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        rt
    }

    #[test]
    fn reads_hit_the_cache_after_first_fetch() {
        let rt = runtime();
        let mut c = GmdbClient::new(&rt, ClientId::new(1), "s", 1);
        let key = c.create(json!({"id": "a", "n": 1})).unwrap();
        c.get(&key).unwrap();
        c.get(&key).unwrap();
        let s = c.stats();
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.cache_misses, 0, "create pre-populates");
        // After eviction the next read misses once.
        c.evict(&key);
        c.get(&key).unwrap();
        assert_eq!(c.stats().cache_misses, 1);
    }

    #[test]
    fn own_updates_keep_cache_coherent() {
        let rt = runtime();
        let mut c = GmdbClient::new(&rt, ClientId::new(1), "s", 1);
        let key = c.create(json!({"id": "a", "n": 1})).unwrap();
        c.update(&key, |v| v["n"] = json!(7)).unwrap();
        assert_eq!(c.get(&key).unwrap()["n"], json!(7));
        // The DN agrees.
        assert_eq!(rt.get("s", &key, 1).unwrap()["n"], json!(7));
        assert_eq!(c.stats().notifications_applied, 0, "own echo skipped");
    }

    #[test]
    fn foreign_writes_arrive_via_delta_notifications() {
        let rt = runtime();
        let mut x = GmdbClient::new(&rt, ClientId::new(1), "s", 1);
        let mut y = GmdbClient::new(&rt, ClientId::new(2), "s", 2);
        let key = x.create(json!({"id": "a", "n": 1})).unwrap();
        // Y caches its v2 view.
        assert_eq!(y.get(&key).unwrap(), json!({"id": "a", "n": 1, "extra": 0}));
        // X updates; Y's next read sees it through the notification.
        x.update(&key, |v| v["n"] = json!(42)).unwrap();
        assert_eq!(y.get(&key).unwrap()["n"], json!(42));
        assert_eq!(y.stats().notifications_applied, 1);
        assert_eq!(y.stats().cache_misses, 1, "only the initial fetch");
        assert_eq!(y.stats().cache_hits, 1, "no second DN fetch");
    }

    #[test]
    fn cross_version_clients_share_one_object() {
        let rt = runtime();
        let mut x = GmdbClient::new(&rt, ClientId::new(1), "s", 1);
        let mut y = GmdbClient::new(&rt, ClientId::new(2), "s", 2);
        let key = x.create(json!({"id": "a", "n": 1})).unwrap();
        y.update(&key, |v| v["extra"] = json!(9)).unwrap();
        // X (v1) never sees `extra` but still sees the shared object.
        let xv = x.get(&key).unwrap();
        assert!(xv.get("extra").is_none());
        assert_eq!(xv["n"], json!(1));
        // Y keeps its own-version view.
        assert_eq!(y.get(&key).unwrap()["extra"], json!(9));
    }

    #[test]
    fn noop_update_sends_nothing() {
        let rt = runtime();
        let mut c = GmdbClient::new(&rt, ClientId::new(1), "s", 1);
        let key = c.create(json!({"id": "a", "n": 1})).unwrap();
        let writes_before = c.stats().writes;
        c.update(&key, |_| {}).unwrap();
        assert_eq!(c.stats().writes, writes_before);
    }
}
