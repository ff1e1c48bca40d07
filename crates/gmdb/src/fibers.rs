//! The fiber-style runtime.
//!
//! "The storage engine of GMDB achieves great performance by adopting
//! light-weight fiber threads with a lock-free protocol to avoid the
//! overhead of concurrency control. Each fiber is also allocated to a
//! dedicated physical CPU core" (§III-A, citing the NFV fiber architecture).
//!
//! We reproduce the *architecture*: objects are hash-partitioned across N
//! single-threaded workers; each worker owns its partition exclusively, so
//! no object is ever touched by two threads — single-object transactions
//! are lock-free by construction. Requests travel over bounded channels
//! (the message-passing analogue of fiber scheduling).

use crate::delta::Delta;
use crate::evolution::SchemaRegistry;
use crate::object::ObjectSchema;
use crate::store::{GmdbStore, Notification, ObjectRow, StoreStats};
use crossbeam::channel::{bounded, unbounded, Sender};
use hdm_common::{ClientId, HdmError, Result};
use serde_json::Value;
use std::thread::JoinHandle;

enum Op {
    Register(ObjectSchema, Sender<Result<()>>),
    Put(String, u32, Value, Sender<Result<String>>),
    Get(String, String, u32, Sender<Result<Value>>),
    UpdateDelta(String, String, u32, Delta, Sender<Result<u64>>),
    Subscribe(String, String, ClientId, u32, Sender<Result<()>>),
    TakeNotifications(ClientId, Sender<Vec<Notification>>),
    Stats(Sender<StoreStats>),
    Export(Sender<Vec<ObjectRow>>),
    Import(Vec<ObjectRow>, Sender<()>),
    Shutdown,
}

/// The sharded fiber runtime: one store per worker thread.
pub struct GmdbRuntime {
    senders: Vec<Sender<Op>>,
    handles: Vec<JoinHandle<()>>,
    /// Routing copy of the registry (key extraction happens client-side,
    /// like GMDB's driver library).
    registry: SchemaRegistry,
}

impl GmdbRuntime {
    /// Spawn `workers` single-threaded partitions.
    ///
    /// # Panics
    /// If `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "runtime needs at least one worker");
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = unbounded::<Op>();
            senders.push(tx);
            handles.push(std::thread::spawn(move || {
                let mut store = GmdbStore::new(SchemaRegistry::new());
                while let Ok(op) = rx.recv() {
                    match op {
                        Op::Register(schema, reply) => {
                            let _ = reply.send(store.registry_mut().register(schema));
                        }
                        Op::Put(schema, version, value, reply) => {
                            let _ = reply.send(store.put(&schema, version, value));
                        }
                        Op::Get(schema, key, version, reply) => {
                            let _ = reply.send(store.get(&schema, &key, version));
                        }
                        Op::UpdateDelta(schema, key, version, delta, reply) => {
                            let _ = reply.send(store.update_delta(&schema, &key, version, &delta));
                        }
                        Op::Subscribe(schema, key, client, version, reply) => {
                            let _ = reply.send(store.subscribe(&schema, &key, client, version));
                        }
                        Op::TakeNotifications(client, reply) => {
                            let _ = reply.send(store.take_notifications(client));
                        }
                        Op::Stats(reply) => {
                            let _ = reply.send(store.stats());
                        }
                        Op::Export(reply) => {
                            let _ = reply.send(store.export_objects());
                        }
                        Op::Import(objects, reply) => {
                            store.import_objects(objects);
                            let _ = reply.send(());
                        }
                        Op::Shutdown => break,
                    }
                }
            }));
        }
        Self {
            senders,
            handles,
            registry: SchemaRegistry::new(),
        }
    }

    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    fn shard_of(&self, key: &str) -> usize {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in key.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
        }
        (h % self.senders.len() as u64) as usize
    }

    fn call<T>(&self, worker: usize, make: impl FnOnce(Sender<T>) -> Op) -> Result<T> {
        let (tx, rx) = bounded(1);
        self.senders[worker]
            .send(make(tx))
            .map_err(|_| HdmError::Execution("gmdb worker gone".into()))?;
        rx.recv()
            .map_err(|_| HdmError::Execution("gmdb worker dropped reply".into()))
    }

    /// Register a schema version on every worker (DDL is broadcast, like
    /// the CN dispatching a validated schema to all DNs in Fig 9).
    pub fn register(&mut self, schema: ObjectSchema) -> Result<()> {
        self.registry.register(schema.clone())?;
        for w in 0..self.senders.len() {
            self.call(w, |tx| Op::Register(schema.clone(), tx))??;
        }
        Ok(())
    }

    /// Write an object (routed by its primary key).
    pub fn put(&self, schema: &str, version: u32, value: Value) -> Result<String> {
        let sch = self.registry.get(schema, version)?;
        sch.root.validate(&value)?;
        let key = sch.key_of(&value)?;
        let w = self.shard_of(&key);
        self.call(w, |tx| Op::Put(schema.to_string(), version, value, tx))?
    }

    /// Read an object in the client's version.
    pub fn get(&self, schema: &str, key: &str, version: u32) -> Result<Value> {
        let w = self.shard_of(key);
        self.call(w, |tx| {
            Op::Get(schema.to_string(), key.to_string(), version, tx)
        })?
    }

    /// Apply a delta as a single-object transaction.
    pub fn update_delta(&self, schema: &str, key: &str, version: u32, delta: Delta) -> Result<u64> {
        let w = self.shard_of(key);
        self.call(w, |tx| {
            Op::UpdateDelta(schema.to_string(), key.to_string(), version, delta, tx)
        })?
    }

    pub fn subscribe(&self, schema: &str, key: &str, client: ClientId, version: u32) -> Result<()> {
        let w = self.shard_of(key);
        self.call(w, |tx| {
            Op::Subscribe(schema.to_string(), key.to_string(), client, version, tx)
        })?
    }

    /// Drain a client's notifications from every partition.
    pub fn take_notifications(&self, client: ClientId) -> Result<Vec<Notification>> {
        let mut all = Vec::new();
        for w in 0..self.senders.len() {
            all.extend(self.call(w, |tx| Op::TakeNotifications(client, tx))?);
        }
        Ok(all)
    }

    /// Merged statistics across partitions.
    pub fn stats(&self) -> Result<StoreStats> {
        let mut total = StoreStats::default();
        for w in 0..self.senders.len() {
            let s = self.call(w, Op::Stats)?;
            total.reads_same_version += s.reads_same_version;
            total.reads_upgraded += s.reads_upgraded;
            total.reads_downgraded += s.reads_downgraded;
            total.writes += s.writes;
            total.delta_writes += s.delta_writes;
            total.notifications += s.notifications;
            total.delta_bytes_sent += s.delta_bytes_sent;
            total.whole_bytes_equivalent += s.whole_bytes_equivalent;
        }
        Ok(total)
    }

    /// Export every partition's objects (used by the async flusher).
    pub fn export_all(&self) -> Result<Vec<ObjectRow>> {
        let mut all = Vec::new();
        for w in 0..self.senders.len() {
            all.extend(self.call(w, Op::Export)?);
        }
        Ok(all)
    }

    /// Import objects, routing each to its partition (recovery).
    pub fn import_all(&self, objects: Vec<ObjectRow>) -> Result<()> {
        let mut per_worker: Vec<Vec<_>> = vec![Vec::new(); self.senders.len()];
        for o in objects {
            let w = self.shard_of(&o.1);
            per_worker[w].push(o);
        }
        for (w, batch) in per_worker.into_iter().enumerate() {
            if !batch.is_empty() {
                self.call(w, |tx| Op::Import(batch, tx))?;
            }
        }
        Ok(())
    }

    /// Stop all workers and join.
    pub fn shutdown(mut self) {
        for tx in &self.senders {
            let _ = tx.send(Op::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for GmdbRuntime {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Op::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{FieldDef, FieldType, RecordSchema};
    use serde_json::json;

    fn session_schema(version: u32, extra: bool) -> ObjectSchema {
        let mut fields = vec![
            FieldDef::new("id", FieldType::Str),
            FieldDef::new("imsi", FieldType::Int),
        ];
        if extra {
            fields.push(FieldDef::new("apn", FieldType::Str).with_default(json!("apn0")));
        }
        ObjectSchema::new("session", version, RecordSchema::new(fields), "id").unwrap()
    }

    #[test]
    fn put_get_across_partitions() {
        let mut rt = GmdbRuntime::new(4);
        rt.register(session_schema(1, false)).unwrap();
        for i in 0..100 {
            rt.put("session", 1, json!({"id": format!("s{i}"), "imsi": i}))
                .unwrap();
        }
        for i in 0..100 {
            let v = rt.get("session", &format!("s{i}"), 1).unwrap();
            assert_eq!(v["imsi"], json!(i));
        }
        let stats = rt.stats().unwrap();
        assert_eq!(stats.writes, 100);
        assert_eq!(stats.reads_same_version, 100);
    }

    #[test]
    fn online_schema_upgrade_while_serving() {
        let mut rt = GmdbRuntime::new(2);
        rt.register(session_schema(1, false)).unwrap();
        rt.put("session", 1, json!({"id": "a", "imsi": 1})).unwrap();
        // Upgrade arrives while v1 clients keep working — no downtime.
        rt.register(session_schema(2, true)).unwrap();
        let v2 = rt.get("session", "a", 2).unwrap();
        assert_eq!(v2["apn"], json!("apn0"));
        let v1 = rt.get("session", "a", 1).unwrap();
        assert_eq!(v1, json!({"id": "a", "imsi": 1}));
        rt.put("session", 1, json!({"id": "b", "imsi": 2})).unwrap();
        assert_eq!(rt.get("session", "b", 2).unwrap()["apn"], json!("apn0"));
    }

    #[test]
    fn delta_update_and_subscription_through_runtime() {
        let mut rt = GmdbRuntime::new(3);
        rt.register(session_schema(1, false)).unwrap();
        rt.put("session", 1, json!({"id": "a", "imsi": 1})).unwrap();
        let client = ClientId::new(9);
        rt.subscribe("session", "a", client, 1).unwrap();
        let old = rt.get("session", "a", 1).unwrap();
        let mut new = old.clone();
        new["imsi"] = json!(42);
        rt.update_delta("session", "a", 1, Delta::compute(&old, &new))
            .unwrap();
        let notes = rt.take_notifications(client).unwrap();
        assert_eq!(notes.len(), 1);
        assert_eq!(rt.get("session", "a", 1).unwrap()["imsi"], json!(42));
    }

    #[test]
    fn export_import_round_trip() {
        let mut rt = GmdbRuntime::new(2);
        rt.register(session_schema(1, false)).unwrap();
        for i in 0..10 {
            rt.put("session", 1, json!({"id": format!("s{i}"), "imsi": i}))
                .unwrap();
        }
        let dump = rt.export_all().unwrap();
        assert_eq!(dump.len(), 10);
        let mut rt2 = GmdbRuntime::new(4); // different partition count
        rt2.register(session_schema(1, false)).unwrap();
        rt2.import_all(dump).unwrap();
        for i in 0..10 {
            assert_eq!(
                rt2.get("session", &format!("s{i}"), 1).unwrap()["imsi"],
                json!(i)
            );
        }
        rt.shutdown();
        rt2.shutdown();
    }

    #[test]
    fn concurrent_clients_hammer_distinct_objects() {
        // The lock-free-by-partitioning claim: many threads, no conflicts.
        use std::sync::Arc;
        let mut rt = GmdbRuntime::new(4);
        rt.register(session_schema(1, false)).unwrap();
        let rt = Arc::new(rt);
        let mut joins = Vec::new();
        for t in 0..4 {
            let rt = rt.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let key = format!("t{t}-{i}");
                    rt.put("session", 1, json!({"id": key, "imsi": i})).unwrap();
                    let v = rt.get("session", &format!("t{t}-{i}"), 1).unwrap();
                    assert_eq!(v["imsi"], json!(i));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(rt.stats().unwrap().writes, 200);
    }
}
