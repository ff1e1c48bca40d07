//! The spatial engine: a uniform grid index with range and kNN queries.
//!
//! §II-B calls for "computation-intensive spatial-temporal algorithms" over
//! GPS-style coordinates. A uniform grid is the classic main-memory spatial
//! index for bounded, roughly uniform point sets (vehicle positions in a
//! city): O(1) insert, range queries visit only overlapping cells, and kNN
//! searches expand rings of cells outward from the query point.

use hdm_common::{HdmError, Result};
use std::collections::HashMap;

/// A 2-D point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    pub fn dist2(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    pub fn dist(&self, other: &Point) -> f64 {
        self.dist2(other).sqrt()
    }
}

/// An axis-aligned rectangle (min/max corners, inclusive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    pub min: Point,
    pub max: Point,
}

impl Rect {
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Self {
            min: Point::new(x0.min(x1), y0.min(y1)),
            max: Point::new(x0.max(x1), y0.max(y1)),
        }
    }

    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }
}

/// A uniform grid index over id-tagged points.
#[derive(Debug)]
pub struct GridIndex {
    cell_size: f64,
    cells: HashMap<(i64, i64), Vec<(i64, Point)>>,
    positions: HashMap<i64, Point>,
}

impl GridIndex {
    /// # Panics
    /// If `cell_size` is not positive and finite.
    pub fn new(cell_size: f64) -> Self {
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "cell size must be positive"
        );
        Self {
            cell_size,
            cells: HashMap::new(),
            positions: HashMap::new(),
        }
    }

    fn cell_of(&self, p: &Point) -> (i64, i64) {
        (
            (p.x / self.cell_size).floor() as i64,
            (p.y / self.cell_size).floor() as i64,
        )
    }

    /// Insert or move an object.
    pub fn upsert(&mut self, id: i64, p: Point) -> Result<()> {
        if !p.x.is_finite() || !p.y.is_finite() {
            return Err(HdmError::Execution("non-finite coordinate".into()));
        }
        if let Some(old) = self.positions.insert(id, p) {
            let oc = self.cell_of(&old);
            if let Some(v) = self.cells.get_mut(&oc) {
                v.retain(|(i, _)| *i != id);
            }
        }
        self.cells
            .entry(self.cell_of(&p))
            .or_default()
            .push((id, p));
        Ok(())
    }

    /// Remove an object; returns whether it existed.
    pub fn remove(&mut self, id: i64) -> bool {
        match self.positions.remove(&id) {
            None => false,
            Some(p) => {
                let c = self.cell_of(&p);
                if let Some(v) = self.cells.get_mut(&c) {
                    v.retain(|(i, _)| *i != id);
                }
                true
            }
        }
    }

    pub fn len(&self) -> usize {
        self.positions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    pub fn position(&self, id: i64) -> Option<Point> {
        self.positions.get(&id).copied()
    }

    /// All objects inside `rect`, id-ordered for determinism.
    pub fn range(&self, rect: &Rect) -> Vec<(i64, Point)> {
        let c0 = self.cell_of(&rect.min);
        let c1 = self.cell_of(&rect.max);
        let mut out = Vec::new();
        for cx in c0.0..=c1.0 {
            for cy in c0.1..=c1.1 {
                if let Some(v) = self.cells.get(&(cx, cy)) {
                    for (id, p) in v {
                        if rect.contains(p) {
                            out.push((*id, *p));
                        }
                    }
                }
            }
        }
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// The `k` nearest objects to `q`, nearest first. Expands cell rings
    /// outward until the best `k` cannot be improved.
    pub fn knn(&self, q: &Point, k: usize) -> Vec<(i64, Point)> {
        if k == 0 || self.positions.is_empty() {
            return vec![];
        }
        let qc = self.cell_of(q);
        let mut best: Vec<(f64, i64, Point)> = Vec::new();
        let mut ring = 0i64;
        // Upper bound on rings: enough to cover the whole populated grid.
        let max_ring = 2 + self
            .cells
            .keys()
            .map(|(cx, cy)| (cx - qc.0).abs().max((cy - qc.1).abs()))
            .max()
            .unwrap_or(0);
        loop {
            // Visit the cells of this ring.
            for cx in (qc.0 - ring)..=(qc.0 + ring) {
                for cy in (qc.1 - ring)..=(qc.1 + ring) {
                    let on_ring = (cx - qc.0).abs() == ring || (cy - qc.1).abs() == ring;
                    if !on_ring {
                        continue;
                    }
                    if let Some(v) = self.cells.get(&(cx, cy)) {
                        for (id, p) in v {
                            let d = q.dist2(p);
                            best.push((d, *id, *p));
                        }
                    }
                }
            }
            best.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            best.truncate(k);
            // Stop when we have k and the next ring cannot contain closer
            // points: the ring's inner boundary is `ring * cell_size` away.
            let ring_floor = ring as f64 * self.cell_size;
            let kth = best
                .last()
                .map(|(d, _, _)| d.sqrt())
                .unwrap_or(f64::INFINITY);
            if (best.len() == k && kth <= ring_floor) || ring > max_ring {
                break;
            }
            ring += 1;
        }
        best.into_iter().map(|(_, id, p)| (id, p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_10x10() -> GridIndex {
        let mut g = GridIndex::new(1.0);
        // 100 points at integer coordinates, id = 10*y + x.
        for y in 0..10 {
            for x in 0..10 {
                g.upsert((10 * y + x) as i64, Point::new(x as f64, y as f64))
                    .unwrap();
            }
        }
        g
    }

    #[test]
    fn range_query_exact() {
        let g = grid_10x10();
        let hits = g.range(&Rect::new(2.0, 3.0, 4.0, 5.0));
        assert_eq!(hits.len(), 9); // 3x3 integer lattice
        assert!(hits.iter().all(|(_, p)| (2.0..=4.0).contains(&p.x)));
    }

    #[test]
    fn knn_returns_nearest_first() {
        let g = grid_10x10();
        let hits = g.knn(&Point::new(5.2, 5.2), 3);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].1, Point::new(5.0, 5.0));
        // Next two are (6,5) and (5,6) at equal distance.
        let d1 = hits[1].1.dist(&Point::new(5.2, 5.2));
        let d2 = hits[2].1.dist(&Point::new(5.2, 5.2));
        assert!(d1 <= d2 + 1e-12);
    }

    #[test]
    fn knn_brute_force_agreement() {
        let g = grid_10x10();
        let q = Point::new(3.7, 8.1);
        let got: Vec<i64> = g.knn(&q, 7).into_iter().map(|(id, _)| id).collect();
        // Brute force.
        let mut all: Vec<(f64, i64)> = (0..10)
            .flat_map(|y| (0..10).map(move |x| (x, y)))
            .map(|(x, y)| {
                let p = Point::new(x as f64, y as f64);
                (q.dist2(&p), (10 * y + x) as i64)
            })
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let expect: Vec<i64> = all.into_iter().take(7).map(|(_, id)| id).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn upsert_moves_objects() {
        let mut g = GridIndex::new(1.0);
        g.upsert(1, Point::new(0.0, 0.0)).unwrap();
        g.upsert(1, Point::new(9.0, 9.0)).unwrap();
        assert_eq!(g.len(), 1);
        assert!(g.range(&Rect::new(0.0, 0.0, 1.0, 1.0)).is_empty());
        assert_eq!(g.range(&Rect::new(8.5, 8.5, 9.5, 9.5)).len(), 1);
    }

    #[test]
    fn remove_and_empty_knn() {
        let mut g = GridIndex::new(1.0);
        g.upsert(1, Point::new(0.0, 0.0)).unwrap();
        assert!(g.remove(1));
        assert!(!g.remove(1));
        assert!(g.knn(&Point::new(0.0, 0.0), 5).is_empty());
    }

    #[test]
    fn knn_with_k_larger_than_population() {
        let mut g = GridIndex::new(1.0);
        g.upsert(1, Point::new(0.0, 0.0)).unwrap();
        g.upsert(2, Point::new(5.0, 5.0)).unwrap();
        let hits = g.knn(&Point::new(1.0, 1.0), 10);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, 1);
    }

    #[test]
    fn negative_coordinates() {
        let mut g = GridIndex::new(2.0);
        g.upsert(1, Point::new(-3.5, -7.2)).unwrap();
        let hits = g.range(&Rect::new(-4.0, -8.0, -3.0, -7.0));
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn rejects_non_finite() {
        let mut g = GridIndex::new(1.0);
        assert!(g.upsert(1, Point::new(f64::NAN, 0.0)).is_err());
    }
}
