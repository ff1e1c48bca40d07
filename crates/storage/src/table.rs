//! A table: schema + MVCC heap + secondary indexes + statistics.
//!
//! This is the unit a data node stores and the SQL layer plans against. The
//! statistics block feeds the cost-based optimizer (§II-C): row counts and
//! per-column distinct-value/min/max estimates computed the classic way —
//! which is exactly the estimator the learning optimizer then corrects with
//! observed cardinalities.

use crate::heap::{HeapTable, TupleId};
use crate::index::{IndexKey, OrderedIndex};
use crate::mvcc::Visibility;
use hdm_common::{BuildDatumHasher, Datum, HdmError, Result, Row, Schema, Xid};
use std::collections::HashSet;

/// Per-column statistics for the optimizer.
#[derive(Debug, Clone, Default)]
pub struct ColumnStats {
    pub distinct: u64,
    pub min: Option<Datum>,
    pub max: Option<Datum>,
    pub null_count: u64,
}

/// Table-level statistics snapshot.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    pub row_count: u64,
    pub columns: Vec<ColumnStats>,
}

/// A named table with MVCC storage and optional indexes.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    heap: HeapTable,
    indexes: Vec<OrderedIndex>,
    stats: Option<TableStats>,
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Self {
            name: name.into(),
            schema,
            heap: HeapTable::new(),
            indexes: Vec::new(),
            stats: None,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn heap(&self) -> &HeapTable {
        &self.heap
    }

    /// Add an ordered index on the given column positions. Existing versions
    /// are back-filled.
    pub fn create_index(&mut self, key_columns: Vec<usize>) -> Result<usize> {
        for &c in &key_columns {
            if c >= self.schema.len() {
                return Err(HdmError::Catalog(format!(
                    "index column {c} out of range for {}",
                    self.name
                )));
            }
        }
        let mut ix = OrderedIndex::new(key_columns);
        for (tid, _hdr, row) in self.heap.scan_all() {
            ix.insert(row, tid);
        }
        self.indexes.push(ix);
        Ok(self.indexes.len() - 1)
    }

    pub fn indexes(&self) -> &[OrderedIndex] {
        &self.indexes
    }

    /// Find an index whose key is exactly `columns` (order-sensitive).
    pub fn index_on(&self, columns: &[usize]) -> Option<&OrderedIndex> {
        self.indexes.iter().find(|ix| ix.key_columns() == columns)
    }

    /// Insert a row as transaction `xid`.
    pub fn insert(&mut self, xid: Xid, row: Row) -> Result<TupleId> {
        self.schema.validate_row(&row).map_err(HdmError::Storage)?;
        let tid = self.heap.insert(xid, row);
        self.index_version(tid)?;
        Ok(tid)
    }

    /// Register version `tid` in every index, keyed from its row in the
    /// heap.
    fn index_version(&mut self, tid: TupleId) -> Result<()> {
        let row = self.heap.row(tid)?;
        for ix in &mut self.indexes {
            ix.insert(row, tid);
        }
        Ok(())
    }

    /// Delete a visible tuple as `xid`.
    pub fn delete(&mut self, xid: Xid, tid: TupleId) -> Result<()> {
        self.heap.delete(xid, tid)
    }

    /// Update a visible tuple as `xid`, returning the successor version id.
    pub fn update(&mut self, xid: Xid, tid: TupleId, new_row: Row) -> Result<TupleId> {
        self.schema
            .validate_row(&new_row)
            .map_err(HdmError::Storage)?;
        let new_tid = self.heap.update(xid, tid, new_row)?;
        self.index_version(new_tid)?;
        Ok(new_tid)
    }

    /// Abort cleanup for a version inserted by `xid`.
    pub fn undo_insert(&mut self, xid: Xid, tid: TupleId) -> Result<()> {
        let row = self.heap.row(tid)?.clone();
        for ix in &mut self.indexes {
            let key = ix.key_of(&row);
            ix.remove(&key, tid);
        }
        self.heap.undo_insert(xid, tid)
    }

    /// Abort cleanup for a delete stamped by `xid`.
    pub fn undo_delete(&mut self, xid: Xid, tid: TupleId) -> Result<()> {
        self.heap.undo_delete(xid, tid)
    }

    /// Visible-row scan under a visibility judge.
    pub fn scan<'a, V: Visibility + ?Sized>(
        &'a self,
        judge: &'a V,
    ) -> impl Iterator<Item = (TupleId, &'a Row)> + 'a {
        self.heap.scan_visible(judge)
    }

    /// Index-probe for visible tuples with `key` on index `ix_id`, in
    /// ascending tuple-id order; see [`Self::probe_each`].
    pub fn probe<'a, V: Visibility + ?Sized>(
        &'a self,
        ix_id: usize,
        key: &[Datum],
        judge: &'a V,
    ) -> Result<Vec<(TupleId, &'a Row)>> {
        let mut out = Vec::new();
        self.probe_each(ix_id, key, judge, |tid, row| {
            out.push((tid, row));
            Ok(())
        })?;
        Ok(out)
    }

    /// Hand every version under `key` on index `ix_id` that `judge` sees to
    /// `visit`, in ascending tuple-id order — heap-scan order, so a probed
    /// read yields rows in the order a scan would. The posting list is
    /// walked in place; an error from `visit` ends the walk.
    pub fn probe_each<'a, V: Visibility + ?Sized>(
        &'a self,
        ix_id: usize,
        key: &[Datum],
        judge: &V,
        mut visit: impl FnMut(TupleId, &'a Row) -> Result<()>,
    ) -> Result<()> {
        let ix = self
            .indexes
            .get(ix_id)
            .ok_or_else(|| HdmError::Catalog(format!("no index {ix_id} on {}", self.name)))?;
        ix.probe(key).iter().try_for_each(|&tid| {
            if judge.tuple_visible(self.heap.header(tid)?) {
                visit(tid, self.heap.row(tid)?)?;
            }
            Ok(())
        })
    }

    /// Ordered-index range walk for visible tuples whose single-column key
    /// lies within `[lo, hi]` on index `ix_id`. Hits come back in index key
    /// order; callers wanting heap order sort by tuple id.
    pub fn range_probe<'a, V: Visibility + ?Sized>(
        &'a self,
        ix_id: usize,
        lo: std::ops::Bound<&IndexKey>,
        hi: std::ops::Bound<&IndexKey>,
        judge: &'a V,
    ) -> Result<Vec<(TupleId, &'a Row)>> {
        let ix = self
            .indexes
            .get(ix_id)
            .ok_or_else(|| HdmError::Catalog(format!("no index {ix_id} on {}", self.name)))?;
        let mut out = Vec::new();
        for (_, tid) in ix.range(lo, hi) {
            let hdr = self.heap.header(tid)?;
            if judge.tuple_visible(hdr) {
                out.push((tid, self.heap.row(tid)?));
            }
        }
        Ok(out)
    }

    /// Recompute optimizer statistics from the rows visible to `judge`
    /// (ANALYZE). Distinct counts are exact here — tables are in-memory.
    pub fn analyze<V: Visibility + ?Sized>(&mut self, judge: &V) {
        let width = self.schema.len();
        let mut row_count = 0u64;
        let mut distinct: Vec<HashSet<&Datum, BuildDatumHasher>> = vec![HashSet::default(); width];
        let mut mins: Vec<Option<Datum>> = vec![None; width];
        let mut maxs: Vec<Option<Datum>> = vec![None; width];
        let mut nulls = vec![0u64; width];
        for (_tid, row) in self.heap.scan_visible(judge) {
            row_count += 1;
            for (c, v) in row.values().iter().enumerate() {
                if v.is_null() {
                    nulls[c] += 1;
                    continue;
                }
                distinct[c].insert(v);
                match &mins[c] {
                    None => mins[c] = Some(v.clone()),
                    Some(m) if v < m => mins[c] = Some(v.clone()),
                    _ => {}
                }
                match &maxs[c] {
                    None => maxs[c] = Some(v.clone()),
                    Some(m) if v > m => maxs[c] = Some(v.clone()),
                    _ => {}
                }
            }
        }
        let columns = (0..width)
            .map(|c| ColumnStats {
                distinct: distinct[c].len() as u64,
                min: mins[c].clone(),
                max: maxs[c].clone(),
                null_count: nulls[c],
            })
            .collect();
        self.stats = Some(TableStats { row_count, columns });
    }

    /// The last ANALYZE result, if any.
    pub fn stats(&self) -> Option<&TableStats> {
        self.stats.as_ref()
    }

    /// Install externally computed statistics — the CN-side path: a
    /// coordinator merges per-shard ANALYZE results and plants the merged
    /// block on its shadow catalog entry so the planner costs distributed
    /// scans from data-node truth rather than defaults.
    pub fn set_stats(&mut self, stats: TableStats) {
        self.stats = Some(stats);
    }

    /// Freeze the rows visible to `judge` into a compressed columnar
    /// snapshot — the hybrid row-column conversion: the mutable OLTP heap
    /// stays authoritative, the returned store serves analytic scans.
    pub fn to_column_store<V: Visibility + ?Sized>(
        &self,
        judge: &V,
    ) -> Result<crate::column::ColumnStore> {
        let rows: Vec<Row> = self.scan(judge).map(|(_, r)| r.clone()).collect();
        crate::column::ColumnStore::from_rows(self.schema.clone(), &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvcc::FixedVisibility;
    use hdm_common::{row, DataType};
    use std::ops::Bound;

    const TX: Xid = Xid(10);
    const TY: Xid = Xid(20);

    fn table() -> Table {
        Table::new(
            "accounts",
            Schema::from_pairs(&[("id", DataType::Int), ("balance", DataType::Int)]),
        )
    }

    #[test]
    fn insert_scan_visible_only() {
        let mut t = table();
        t.insert(TX, row![1, 100]).unwrap();
        t.insert(TY, row![2, 200]).unwrap();
        let judge = FixedVisibility::new([TX], None);
        let rows: Vec<_> = t.scan(&judge).map(|(_, r)| r.clone()).collect();
        assert_eq!(rows, vec![row![1, 100]]);
    }

    #[test]
    fn index_probe_respects_visibility() {
        let mut t = table();
        t.create_index(vec![0]).unwrap();
        let tid = t.insert(TX, row![1, 100]).unwrap();
        t.update(TY, tid, row![1, 150]).unwrap();
        let judge_old = FixedVisibility::new([TX], None);
        let hits = t.probe(0, &[Datum::Int(1)], &judge_old).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, &row![1, 100]);
        let judge_new = FixedVisibility::new([TX, TY], None);
        let hits = t.probe(0, &[Datum::Int(1)], &judge_new).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, &row![1, 150]);
    }

    #[test]
    fn create_index_backfills() {
        let mut t = table();
        t.insert(TX, row![7, 70]).unwrap();
        t.create_index(vec![0]).unwrap();
        let judge = FixedVisibility::new([TX], None);
        assert_eq!(t.probe(0, &[Datum::Int(7)], &judge).unwrap().len(), 1);
    }

    #[test]
    fn probes_visit_versions_in_tid_order_after_an_undo() {
        let mut t = table();
        t.create_index(vec![0]).unwrap();
        let tids: Vec<TupleId> = (0..4).map(|v| t.insert(TX, row![5, v]).unwrap()).collect();
        t.undo_insert(TX, tids[0]).unwrap();
        assert_eq!(t.indexes()[0].probe(&[Datum::Int(5)]), &tids[1..]);
        let judge = FixedVisibility::new([TX], None);
        let hits: Vec<TupleId> = (t.probe(0, &[Datum::Int(5)], &judge).unwrap())
            .into_iter()
            .map(|(tid, _)| tid)
            .collect();
        assert_eq!(hits, tids[1..]);
        let mut walked = Vec::new();
        t.probe_each(0, &[Datum::Int(5)], &judge, |tid, row| {
            walked.push((tid, row.clone()));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            walked,
            [
                (tids[1], row![5, 1]),
                (tids[2], row![5, 2]),
                (tids[3], row![5, 3])
            ]
        );
        // A visitor's error ends the walk.
        let mut seen = 0;
        let err = t.probe_each(0, &[Datum::Int(5)], &judge, |_, _| {
            seen += 1;
            Err(HdmError::Execution("stop".into()))
        });
        assert!(err.is_err());
        assert_eq!(seen, 1);
    }

    #[test]
    fn one_and_many_column_keys_probe_and_range_alike() {
        let mut t = table();
        t.create_index(vec![0]).unwrap();
        t.create_index(vec![1, 0]).unwrap();
        for (id, bal) in [(3, 30), (1, 10), (2, 20), (1, 11)] {
            t.insert(TX, row![id, bal]).unwrap();
        }
        let judge = FixedVisibility::new([TX], None);
        assert_eq!(t.probe(0, &[Datum::Int(1)], &judge).unwrap().len(), 2);
        let both = [Datum::Int(20), Datum::Int(2)];
        assert_eq!(t.probe(1, &both, &judge).unwrap().len(), 1);
        assert!(t.probe(1, &both[..1], &judge).unwrap().is_empty());
        let (lo, hi) = (vec![Datum::Int(1)], vec![Datum::Int(2)]);
        let ids: Vec<i64> = (t.range_probe(0, Bound::Included(&lo), Bound::Included(&hi), &judge))
            .unwrap()
            .iter()
            .filter_map(|(_, r)| r.get(0).and_then(Datum::as_int))
            .collect();
        assert_eq!(ids, [1, 1, 2]);
        assert_eq!(t.indexes()[0].distinct_keys(), 3);
        assert_eq!(t.indexes()[1].distinct_keys(), 4);
    }

    #[test]
    fn undo_insert_cleans_index() {
        let mut t = table();
        t.create_index(vec![0]).unwrap();
        let tid = t.insert(TX, row![9, 90]).unwrap();
        t.undo_insert(TX, tid).unwrap();
        assert_eq!(t.indexes()[0].len(), 0);
    }

    #[test]
    fn analyze_computes_stats() {
        let mut t = table();
        for i in 0..100i64 {
            t.insert(TX, row![i, i % 10]).unwrap();
        }
        t.analyze(&FixedVisibility::new([TX], None));
        let s = t.stats().unwrap();
        assert_eq!(s.row_count, 100);
        assert_eq!(s.columns[0].distinct, 100);
        assert_eq!(s.columns[1].distinct, 10);
        assert_eq!(s.columns[0].min, Some(Datum::Int(0)));
        assert_eq!(s.columns[0].max, Some(Datum::Int(99)));
    }

    #[test]
    fn schema_violation_rejected_on_insert_and_update() {
        let mut t = table();
        assert!(t.insert(TX, row!["bad", 1]).is_err());
        let tid = t.insert(TX, row![1, 1]).unwrap();
        assert!(t.update(TY, tid, row![1]).is_err());
    }

    #[test]
    fn hybrid_conversion_respects_visibility() {
        let mut t = table();
        for i in 0..100i64 {
            t.insert(TX, row![i, i * 2]).unwrap();
        }
        // An uncommitted writer's rows must not leak into the OLAP snapshot.
        t.insert(TY, row![999, 999]).unwrap();
        let judge = FixedVisibility::new([TX], None);
        let col = t.to_column_store(&judge).unwrap();
        assert_eq!(col.row_count(), 100);
        let rows = col.to_rows();
        assert_eq!(rows[7], row![7, 14]);
        assert!(col.encoded_bytes() < col.raw_bytes(), "compressed");
    }

    #[test]
    fn bad_index_column_rejected() {
        let mut t = table();
        assert!(t.create_index(vec![5]).is_err());
    }
}
