//! Delta objects.
//!
//! "Data updates and schema evolution happen on delta objects instead of
//! whole objects. Similar is true when syncing data between clients and DNs.
//! Such an approach achieves better performance and consumes less network
//! bandwidth" (§III-B). A delta is a list of path-addressed operations; its
//! serialized size is the unit Fig 11's bandwidth comparison is measured in.

use hdm_common::{HdmError, Result};
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// One path segment into a tree object.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Seg {
    Field(String),
    Index(usize),
}

/// One delta operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DeltaOp {
    /// Set the value at `path` (appending when the final segment indexes one
    /// past the end of an array).
    Set { path: Vec<Seg>, value: Value },
    /// Truncate the array at `path` to `len` elements.
    Truncate { path: Vec<Seg>, len: usize },
}

/// A delta between two conforming objects of the same schema version.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Delta {
    pub ops: Vec<DeltaOp>,
}

impl Delta {
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Wire size in bytes — the "network bandwidth" a sync of this delta
    /// costs (Fig 11 accounting). Uses the compact wire encoding of
    /// [`Delta::wire_format`], not the verbose snapshot serialization.
    pub fn byte_size(&self) -> usize {
        self.wire_format().len()
    }

    /// The compact wire encoding: one line per op, dotted paths
    /// (`set bearers.1.qci=7`, `trunc bearers=1`).
    pub fn wire_format(&self) -> String {
        let mut s = String::new();
        for op in &self.ops {
            match op {
                DeltaOp::Set { path, value } => {
                    s.push_str("set ");
                    s.push_str(&path_text(path));
                    s.push('=');
                    s.push_str(&value.to_string());
                }
                DeltaOp::Truncate { path, len } => {
                    s.push_str("trunc ");
                    s.push_str(&path_text(path));
                    s.push('=');
                    s.push_str(&len.to_string());
                }
            }
            s.push('\n');
        }
        s
    }

    /// Compute the delta transforming `old` into `new`.
    pub fn compute(old: &Value, new: &Value) -> Delta {
        let mut ops = Vec::new();
        diff(old, new, &mut Vec::new(), &mut ops);
        Delta { ops }
    }

    /// Apply to an object in place.
    pub fn apply(&self, target: &mut Value) -> Result<()> {
        for op in &self.ops {
            match op {
                DeltaOp::Set { path, value } => {
                    set_at(target, path, value.clone())?;
                }
                DeltaOp::Truncate { path, len } => {
                    let v = navigate_mut(target, path)?;
                    let Value::Array(a) = v else {
                        return Err(HdmError::Execution(format!(
                            "truncate target is not an array: {v}"
                        )));
                    };
                    a.truncate(*len);
                }
            }
        }
        Ok(())
    }
}

fn diff(old: &Value, new: &Value, path: &mut Vec<Seg>, ops: &mut Vec<DeltaOp>) {
    if old == new {
        return;
    }
    match (old, new) {
        (Value::Object(o), Value::Object(n)) => {
            for (k, nv) in n {
                let ov = o.get(k).unwrap_or(&Value::Null);
                path.push(Seg::Field(k.clone()));
                diff(ov, nv, path, ops);
                path.pop();
            }
            // Keys present only in old (schema-conforming same-version diffs
            // should not produce these, but be safe): null them out.
            for k in o.keys() {
                if !n.contains_key(k) {
                    let mut p = path.clone();
                    p.push(Seg::Field(k.clone()));
                    ops.push(DeltaOp::Set {
                        path: p,
                        value: Value::Null,
                    });
                }
            }
        }
        (Value::Array(o), Value::Array(n)) => {
            let common = o.len().min(n.len());
            for i in 0..common {
                path.push(Seg::Index(i));
                diff(&o[i], &n[i], path, ops);
                path.pop();
            }
            for (i, item) in n.iter().enumerate().skip(common) {
                let mut p = path.clone();
                p.push(Seg::Index(i));
                ops.push(DeltaOp::Set {
                    path: p,
                    value: item.clone(),
                });
            }
            if n.len() < o.len() {
                ops.push(DeltaOp::Truncate {
                    path: path.clone(),
                    len: n.len(),
                });
            }
        }
        _ => ops.push(DeltaOp::Set {
            path: path.clone(),
            value: new.clone(),
        }),
    }
}

fn path_text(path: &[Seg]) -> String {
    path.iter()
        .map(|s| match s {
            Seg::Field(f) => f.clone(),
            Seg::Index(i) => i.to_string(),
        })
        .collect::<Vec<_>>()
        .join(".")
}

fn navigate_mut<'a>(v: &'a mut Value, path: &[Seg]) -> Result<&'a mut Value> {
    let mut cur = v;
    for seg in path {
        cur = match (seg, cur) {
            (Seg::Field(f), Value::Object(m)) => m
                .get_mut(f)
                .ok_or_else(|| HdmError::Execution(format!("delta path: no field '{f}'")))?,
            (Seg::Index(i), Value::Array(a)) => a
                .get_mut(*i)
                .ok_or_else(|| HdmError::Execution(format!("delta path: index {i} missing")))?,
            (seg, other) => {
                return Err(HdmError::Execution(format!(
                    "delta path segment {seg:?} does not match {other}"
                )))
            }
        };
    }
    Ok(cur)
}

fn set_at(target: &mut Value, path: &[Seg], value: Value) -> Result<()> {
    let Some((last, parents)) = path.split_last() else {
        *target = value;
        return Ok(());
    };
    let parent = navigate_mut(target, parents)?;
    match (last, parent) {
        (Seg::Field(f), Value::Object(m)) => {
            m.insert(f.clone(), value);
            Ok(())
        }
        (Seg::Index(i), Value::Array(a)) => {
            if *i < a.len() {
                a[*i] = value;
            } else if *i == a.len() {
                a.push(value);
            } else {
                return Err(HdmError::Execution(format!(
                    "delta set: index {i} beyond array of {}",
                    a.len()
                )));
            }
            Ok(())
        }
        (seg, other) => Err(HdmError::Execution(format!(
            "delta set segment {seg:?} does not match {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn session() -> Value {
        json!({
            "id": "jane",
            "imsi": 46000,
            "bearers": [
                {"bearer_id": 5, "qci": 9},
                {"bearer_id": 6, "qci": 8}
            ]
        })
    }

    #[test]
    fn identical_objects_produce_empty_delta() {
        let d = Delta::compute(&session(), &session());
        assert!(d.is_empty());
    }

    #[test]
    fn scalar_change_round_trips() {
        let old = session();
        let mut new = session();
        new["imsi"] = json!(46001);
        let d = Delta::compute(&old, &new);
        assert_eq!(d.len(), 1);
        let mut target = old;
        d.apply(&mut target).unwrap();
        assert_eq!(target, new);
    }

    #[test]
    fn nested_change_touches_one_path() {
        let old = session();
        let mut new = session();
        new["bearers"][1]["qci"] = json!(7);
        let d = Delta::compute(&old, &new);
        assert_eq!(d.len(), 1);
        assert!(matches!(
            &d.ops[0],
            DeltaOp::Set { path, .. }
                if path == &vec![
                    Seg::Field("bearers".into()),
                    Seg::Index(1),
                    Seg::Field("qci".into())
                ]
        ));
        let mut t = old;
        d.apply(&mut t).unwrap();
        assert_eq!(t, new);
    }

    #[test]
    fn array_append_and_truncate() {
        let old = session();
        let mut grown = session();
        grown["bearers"]
            .as_array_mut()
            .unwrap()
            .push(json!({"bearer_id": 7, "qci": 5}));
        let d = Delta::compute(&old, &grown);
        let mut t = old.clone();
        d.apply(&mut t).unwrap();
        assert_eq!(t, grown);

        let mut shrunk = session();
        shrunk["bearers"].as_array_mut().unwrap().truncate(1);
        let d = Delta::compute(&old, &shrunk);
        assert!(d
            .ops
            .iter()
            .any(|o| matches!(o, DeltaOp::Truncate { len: 1, .. })));
        let mut t = old;
        d.apply(&mut t).unwrap();
        assert_eq!(t, shrunk);
    }

    #[test]
    fn delta_is_much_smaller_than_whole_object() {
        // A 5–10 KB MME-sized object with one small change.
        let mut old = session();
        old["blob"] = json!("x".repeat(6000));
        let mut new = old.clone();
        new["imsi"] = json!(46099);
        let d = Delta::compute(&old, &new);
        let whole = serde_json::to_string(&new).unwrap().len();
        assert!(
            d.byte_size() * 20 < whole,
            "delta {}B vs whole {}B",
            d.byte_size(),
            whole
        );
    }

    #[test]
    fn apply_errors_on_bad_paths() {
        let mut obj = json!({"a": 1});
        let d = Delta {
            ops: vec![DeltaOp::Set {
                path: vec![Seg::Field("missing".into()), Seg::Field("x".into())],
                value: json!(1),
            }],
        };
        assert!(d.apply(&mut obj).is_err());
        let d = Delta {
            ops: vec![DeltaOp::Truncate {
                path: vec![Seg::Field("a".into())],
                len: 0,
            }],
        };
        assert!(d.apply(&mut obj).is_err(), "truncate non-array");
    }

    #[test]
    fn random_object_pairs_round_trip() {
        // Structured pseudo-random trees: diff/apply must reconstruct.
        use hdm_common::SplitMix64;
        let mut rng = SplitMix64::new(77);
        for _ in 0..50 {
            let a = random_tree(&mut rng, 3);
            let b = random_tree(&mut rng, 3);
            let d = Delta::compute(&a, &b);
            let mut t = a.clone();
            d.apply(&mut t).unwrap();
            assert_eq!(t, b, "from {a} to {b}");
        }
    }

    fn random_tree(rng: &mut hdm_common::SplitMix64, depth: u32) -> Value {
        // Fixed key set so objects overlap structurally.
        let mut m = serde_json::Map::new();
        for key in ["a", "b", "c"] {
            let v = if depth > 0 && rng.chance(0.4) {
                let n = rng.next_below(3);
                Value::Array((0..n).map(|_| random_tree(rng, depth - 1)).collect())
            } else {
                json!(rng.next_below(5))
            };
            m.insert(key.to_string(), v);
        }
        Value::Object(m)
    }
}
