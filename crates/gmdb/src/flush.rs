//! Asynchronous periodic flush.
//!
//! "Since limited cases of data loss can be compensated through application
//! logic, GMDB only asynchronously flush data to disk periodically"
//! (§III-A): durability is best-effort by design — a crash loses at most
//! one flush interval of updates. Snapshots are JSON-lines files, one row
//! per object, written atomically (write-temp-then-rename).

use crate::fibers::GmdbRuntime;
use crate::store::ObjectRow;
use hdm_common::{HdmError, Result};
use serde_json::{Map, Value};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn encode_row(schema: &str, key: &str, version: u32, value: &Value, revision: u64) -> String {
    let mut row = Map::new();
    row.insert("schema", Value::from(schema));
    row.insert("key", Value::from(key));
    row.insert("version", Value::from(version));
    row.insert("value", value.clone());
    row.insert("revision", Value::from(revision));
    Value::Object(row).to_string()
}

fn decode_row(line: &str) -> Result<ObjectRow> {
    let bad = |what: &str| HdmError::Io(format!("snapshot decode: {what}"));
    let v = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
    let schema = v
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing schema"))?
        .to_string();
    let key = v
        .get("key")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing key"))?
        .to_string();
    let version = v
        .get("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| bad("missing version"))? as u32;
    let revision = v
        .get("revision")
        .and_then(Value::as_u64)
        .ok_or_else(|| bad("missing revision"))?;
    let value = v
        .get("value")
        .cloned()
        .ok_or_else(|| bad("missing value"))?;
    Ok((schema, key, version, value, revision))
}

/// Write one snapshot of all objects to `path` (atomic rename).
pub fn write_snapshot(objects: &[ObjectRow], path: &Path) -> Result<usize> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        for (schema, key, version, value, revision) in objects {
            let line = encode_row(schema, key, *version, value, *revision);
            writeln!(f, "{line}")?;
        }
        f.flush()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(objects.len())
}

/// Read a snapshot back.
pub fn read_snapshot(path: &Path) -> Result<Vec<ObjectRow>> {
    let f = std::fs::File::open(path)?;
    let mut out = Vec::new();
    for line in std::io::BufReader::new(f).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        out.push(decode_row(&line)?);
    }
    Ok(out)
}

/// A background thread flushing a runtime's objects periodically.
pub struct PeriodicFlusher {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    path: PathBuf,
}

impl PeriodicFlusher {
    /// Start flushing `runtime` every `interval` into `path`.
    pub fn start(runtime: Arc<GmdbRuntime>, path: PathBuf, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let path2 = path.clone();
        let handle = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
                if stop2.load(Ordering::Relaxed) {
                    break;
                }
                if let Ok(objects) = runtime.export_all() {
                    let _ = write_snapshot(&objects, &path2);
                }
            }
        });
        Self {
            stop,
            handle: Some(handle),
            path,
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stop the flusher (no final flush; the caller may snapshot manually).
    pub fn stop(mut self) {
        self.stop
            .store(Ordering::SeqCst as u8 != 0, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for PeriodicFlusher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{FieldDef, FieldType, ObjectSchema, RecordSchema};
    use serde_json::json;

    fn schema() -> ObjectSchema {
        ObjectSchema::new(
            "s",
            1,
            RecordSchema::new(vec![
                FieldDef::new("id", FieldType::Str),
                FieldDef::new("n", FieldType::Int),
            ]),
            "id",
        )
        .unwrap()
    }

    fn tempdir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "gmdb-flush-test-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let _ = std::fs::create_dir_all(&d);
        d
    }

    #[test]
    fn snapshot_round_trip() {
        let objects = vec![
            (
                "s".to_string(),
                "a".to_string(),
                1u32,
                json!({"id":"a","n":1}),
                1u64,
            ),
            (
                "s".to_string(),
                "b".to_string(),
                1,
                json!({"id":"b","n":2}),
                3,
            ),
        ];
        let path = tempdir().join("snap1.jsonl");
        assert_eq!(write_snapshot(&objects, &path).unwrap(), 2);
        let back = read_snapshot(&path).unwrap();
        assert_eq!(back, objects);
    }

    #[test]
    fn runtime_recovers_from_snapshot() {
        let mut rt = GmdbRuntime::new(2);
        rt.register(schema()).unwrap();
        for i in 0..20 {
            rt.put("s", 1, json!({"id": format!("k{i}"), "n": i}))
                .unwrap();
        }
        let path = tempdir().join("snap2.jsonl");
        write_snapshot(&rt.export_all().unwrap(), &path).unwrap();
        rt.shutdown();

        let mut rt2 = GmdbRuntime::new(3);
        rt2.register(schema()).unwrap();
        rt2.import_all(read_snapshot(&path).unwrap()).unwrap();
        for i in 0..20 {
            assert_eq!(rt2.get("s", &format!("k{i}"), 1).unwrap()["n"], json!(i));
        }
    }

    #[test]
    fn periodic_flusher_writes_in_background() {
        let mut rt = GmdbRuntime::new(1);
        rt.register(schema()).unwrap();
        rt.put("s", 1, json!({"id": "x", "n": 7})).unwrap();
        let rt = Arc::new(rt);
        let path = tempdir().join("snap3.jsonl");
        let flusher = PeriodicFlusher::start(rt.clone(), path.clone(), Duration::from_millis(10));
        // Wait for at least one flush.
        for _ in 0..100 {
            if path.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(flusher);
        let back = read_snapshot(&path).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].1, "x");
    }

    #[test]
    fn missing_snapshot_is_an_io_error() {
        let err = read_snapshot(Path::new("/nonexistent/snap.jsonl")).unwrap_err();
        assert_eq!(err.class(), "io");
    }
}
