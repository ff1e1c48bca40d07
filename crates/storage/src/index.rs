//! Ordered secondary indexes over heap tuples.
//!
//! An index maps a key (one column's datum, or a composite) to the tuple ids
//! of *all versions* carrying that key; visibility is judged at lookup time
//! by the caller's snapshot, exactly as PostgreSQL consults the heap for
//! tuple liveness after an index probe.

use crate::heap::TupleId;
use hdm_common::Datum;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Composite index key (single-column keys are one-element vectors).
pub type IndexKey = Vec<Datum>;

/// A key as the map stores it. A one-column key keeps its datum in the
/// tree node itself, so a probe compares keys in place instead of chasing
/// one pointer per comparison; it orders, and is looked up, as the
/// `[Datum]` slice it borrows as.
#[derive(Debug, Clone)]
enum StoredKey {
    One(Datum),
    Many(Box<[Datum]>),
}

impl StoredKey {
    fn new(mut key: IndexKey) -> Self {
        match key.len() {
            1 => Self::One(key.pop().expect("one datum")),
            _ => Self::Many(key.into_boxed_slice()),
        }
    }
}

impl Borrow<[Datum]> for StoredKey {
    fn borrow(&self) -> &[Datum] {
        match self {
            Self::One(d) => std::slice::from_ref(d),
            Self::Many(k) => k,
        }
    }
}

impl PartialEq for StoredKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for StoredKey {}

impl PartialOrd for StoredKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for StoredKey {
    fn cmp(&self, other: &Self) -> Ordering {
        <Self as Borrow<[Datum]>>::borrow(self).cmp(other.borrow())
    }
}

/// The versions registered under one key. Most keys have one, kept in
/// place; a second version moves the list to the heap.
#[derive(Debug, Clone)]
enum Postings {
    One(TupleId),
    Many(Vec<TupleId>),
}

impl Postings {
    fn push(&mut self, tid: TupleId) {
        match self {
            Self::One(first) => *self = Self::Many(vec![*first, tid]),
            Self::Many(v) => v.push(tid),
        }
        debug_assert!(
            self.as_slice().is_sorted(),
            "tuple ids registered out of order"
        );
    }

    fn as_slice(&self) -> &[TupleId] {
        match self {
            Self::One(t) => std::slice::from_ref(t),
            Self::Many(v) => v,
        }
    }
}

/// An ordered (BTree) secondary index.
#[derive(Debug, Default, Clone)]
pub struct OrderedIndex {
    /// Column positions (in the table schema) forming the key.
    key_columns: Vec<usize>,
    map: BTreeMap<StoredKey, Postings>,
    entries: usize,
}

impl OrderedIndex {
    pub fn new(key_columns: Vec<usize>) -> Self {
        Self {
            key_columns,
            map: BTreeMap::new(),
            entries: 0,
        }
    }

    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    /// Extract this index's key from a full row.
    pub fn key_of(&self, row: &hdm_common::Row) -> IndexKey {
        self.key_columns
            .iter()
            .map(|&c| row.values()[c].clone())
            .collect()
    }

    /// Register tuple version `tid` under the key of its `row`, read from
    /// the row in place (a one-column key needs no key vector). Callers
    /// register a key's versions in ascending tuple-id order, as the heap
    /// hands ids out.
    pub fn insert(&mut self, row: &hdm_common::Row, tid: TupleId) {
        let key = match self.key_columns[..] {
            [c] => StoredKey::One(row.values()[c].clone()),
            _ => StoredKey::new(self.key_of(row)),
        };
        self.map
            .entry(key)
            .and_modify(|p| p.push(tid))
            .or_insert(Postings::One(tid));
        self.entries += 1;
    }

    /// Remove one version registration (abort cleanup), keeping the rest in
    /// order.
    pub fn remove(&mut self, key: &[Datum], tid: TupleId) -> bool {
        let Some(postings) = self.map.get_mut(key) else {
            return false;
        };
        let emptied = match postings {
            Postings::One(t) if *t == tid => true,
            Postings::One(_) => return false,
            Postings::Many(v) => {
                let Some(pos) = v.iter().position(|&t| t == tid) else {
                    return false;
                };
                v.remove(pos);
                v.is_empty()
            }
        };
        self.entries -= 1;
        if emptied {
            self.map.remove(key);
        }
        true
    }

    /// All versions with exactly `key`, in ascending tuple-id order.
    pub fn probe(&self, key: &[Datum]) -> &[TupleId] {
        self.map.get(key).map_or(&[], Postings::as_slice)
    }

    /// All versions whose key lies in `[lo, hi]` bounds (inclusive /
    /// exclusive per `Bound`), in key order.
    pub fn range<'a>(
        &'a self,
        lo: Bound<&'a IndexKey>,
        hi: Bound<&'a IndexKey>,
    ) -> impl Iterator<Item = (&'a [Datum], TupleId)> + 'a {
        let bounds = (lo.map(Vec::as_slice), hi.map(Vec::as_slice));
        self.map
            .range::<[Datum], _>(bounds)
            .flat_map(|(k, tids)| tids.as_slice().iter().map(move |&t| (k.borrow(), t)))
    }

    /// Number of (key, version) registrations.
    pub fn len(&self) -> usize {
        self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct keys (drives optimizer NDV estimates).
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::row;

    fn key(v: i64) -> IndexKey {
        vec![Datum::Int(v)]
    }

    /// Register `tid` under the one-column key `v`.
    fn insert(ix: &mut OrderedIndex, v: i64, tid: u64) {
        ix.insert(&row![v], TupleId(tid));
    }

    #[test]
    fn probe_finds_all_versions() {
        let mut ix = OrderedIndex::new(vec![0]);
        insert(&mut ix, 5, 1);
        insert(&mut ix, 5, 9);
        insert(&mut ix, 6, 2);
        assert_eq!(ix.probe(&key(5)), &[TupleId(1), TupleId(9)]);
        assert_eq!(ix.probe(&key(7)), &[] as &[TupleId]);
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.distinct_keys(), 2);
    }

    #[test]
    fn range_scans_in_key_order() {
        let mut ix = OrderedIndex::new(vec![0]);
        for v in [30i64, 10, 20, 40] {
            insert(&mut ix, v, v as u64);
        }
        let lo = key(15);
        let hi = key(35);
        let hits: Vec<u64> = ix
            .range(Bound::Included(&lo), Bound::Included(&hi))
            .map(|(_, t)| t.0)
            .collect();
        assert_eq!(hits, vec![20, 30]);
    }

    #[test]
    fn unbounded_range_is_full_scan_in_order() {
        let mut ix = OrderedIndex::new(vec![0]);
        for v in [3i64, 1, 2] {
            insert(&mut ix, v, v as u64);
        }
        let all: Vec<u64> = ix
            .range(Bound::Unbounded, Bound::Unbounded)
            .map(|(_, t)| t.0)
            .collect();
        assert_eq!(all, vec![1, 2, 3]);
    }

    #[test]
    fn remove_unregisters_one_version() {
        let mut ix = OrderedIndex::new(vec![0]);
        for t in 1..=3 {
            insert(&mut ix, 5, t);
        }
        assert!(ix.remove(&key(5), TupleId(1)));
        assert!(!ix.remove(&key(5), TupleId(1)), "already gone");
        assert_eq!(ix.probe(&key(5)), &[TupleId(2), TupleId(3)], "order kept");
        assert!(ix.remove(&key(5), TupleId(2)));
        assert!(ix.remove(&key(5), TupleId(3)));
        assert_eq!(ix.distinct_keys(), 0);
    }

    #[test]
    fn composite_keys_extract_and_order() {
        let mut ix = OrderedIndex::new(vec![1, 0]);
        let r = row![7, "beta"];
        let k = ix.key_of(&r);
        assert_eq!(k, vec![Datum::Text("beta".into()), Datum::Int(7)]);
        ix.insert(&r, TupleId(0));
        assert_eq!(ix.probe(&k), &[TupleId(0)]);
    }
}
