//! Compressed columnar table representation.
//!
//! FI-MPPDB stores analytic tables column-wise ("hybrid row-column storage",
//! §I): we freeze a set of rows into per-column compressed chunk sequences,
//! which the vectorized executor scans chunk-at-a-time. Column stores here
//! are immutable snapshots (the OLAP side of HTAP); the mutable OLTP side
//! lives in the MVCC row heap, and a table can be *converted* between the
//! two — the same "hybrid" pattern the paper describes.

use crate::compress::{encode_auto, Chunk};
use hdm_common::{Datum, HdmError, Result, Row, Schema};

/// Rows per column chunk; aligned with the executor batch size.
pub const CHUNK_ROWS: usize = 1024;

/// One column: a sequence of compressed chunks.
#[derive(Debug, Clone)]
pub struct ColumnData {
    chunks: Vec<Chunk>,
    rows: usize,
}

impl ColumnData {
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub fn encoded_bytes(&self) -> usize {
        self.chunks.iter().map(Chunk::encoded_bytes).sum()
    }

    /// Decode the whole column.
    pub fn decode(&self) -> Vec<Datum> {
        let mut out = Vec::with_capacity(self.rows);
        for c in &self.chunks {
            out.extend(c.decode());
        }
        out
    }
}

/// An immutable columnar snapshot of a table.
#[derive(Debug, Clone)]
pub struct ColumnStore {
    schema: Schema,
    columns: Vec<ColumnData>,
    rows: usize,
}

impl ColumnStore {
    /// Freeze row-major data into compressed columns.
    pub fn from_rows(schema: Schema, rows: &[Row]) -> Result<ColumnStore> {
        for r in rows {
            schema.validate_row(r).map_err(HdmError::Storage)?;
        }
        let width = schema.len();
        let mut columns = Vec::with_capacity(width);
        for c in 0..width {
            let mut chunks = Vec::new();
            for chunk_rows in rows.chunks(CHUNK_ROWS) {
                let values: Vec<Datum> = chunk_rows.iter().map(|r| r.values()[c].clone()).collect();
                chunks.push(encode_auto(&values));
            }
            columns.push(ColumnData {
                chunks,
                rows: rows.len(),
            });
        }
        Ok(ColumnStore {
            schema,
            columns,
            rows: rows.len(),
        })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn row_count(&self) -> usize {
        self.rows
    }

    pub fn column(&self, idx: usize) -> Result<&ColumnData> {
        self.columns
            .get(idx)
            .ok_or_else(|| HdmError::Storage(format!("no column {idx}")))
    }

    /// Total compressed size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.columns.iter().map(ColumnData::encoded_bytes).sum()
    }

    /// Uncompressed (row-format) size estimate.
    pub fn raw_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|c| c.decode().iter().map(Datum::width).sum::<usize>())
            .sum()
    }

    /// Thaw back into row-major form.
    pub fn to_rows(&self) -> Vec<Row> {
        let decoded: Vec<Vec<Datum>> = self.columns.iter().map(ColumnData::decode).collect();
        (0..self.rows)
            .map(|i| Row::new(decoded.iter().map(|c| c[i].clone()).collect()))
            .collect()
    }

    /// Scan one column, invoking `f(row_index, value)` — the columnar
    /// fast path used by vectorized aggregation.
    pub fn scan_column(&self, idx: usize, mut f: impl FnMut(usize, &Datum)) -> Result<()> {
        let col = self.column(idx)?;
        let mut row = 0usize;
        for chunk in &col.chunks {
            for v in chunk.decode() {
                f(row, &v);
                row += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::{row, DataType};

    fn store(n: i64) -> ColumnStore {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("region", DataType::Text),
            ("amount", DataType::Float),
        ]);
        let rows: Vec<Row> = (0..n)
            .map(|i| row![i, format!("region-{}", i % 3), (i as f64) * 0.5])
            .collect();
        ColumnStore::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn round_trip_preserves_rows() {
        let s = store(2_500);
        let rows = s.to_rows();
        assert_eq!(rows.len(), 2_500);
        assert_eq!(rows[7], row![7, "region-1", 3.5]);
    }

    #[test]
    fn compression_beats_raw_on_typical_data() {
        let s = store(10_000);
        assert!(
            s.encoded_bytes() < s.raw_bytes() / 2,
            "encoded={} raw={}",
            s.encoded_bytes(),
            s.raw_bytes()
        );
    }

    #[test]
    fn scan_column_visits_every_row_in_order() {
        let s = store(1_500);
        let mut seen = Vec::new();
        s.scan_column(0, |i, v| {
            assert_eq!(v.as_int().unwrap(), i as i64);
            seen.push(i);
        })
        .unwrap();
        assert_eq!(seen.len(), 1_500);
    }

    #[test]
    fn schema_violation_rejected() {
        let schema = Schema::from_pairs(&[("id", DataType::Int)]);
        let err = ColumnStore::from_rows(schema, &[row!["not an int"]]).unwrap_err();
        assert_eq!(err.class(), "storage");
    }

    #[test]
    fn empty_store() {
        let s = ColumnStore::from_rows(Schema::from_pairs(&[("x", DataType::Int)]), &[]).unwrap();
        assert_eq!(s.row_count(), 0);
        assert!(s.to_rows().is_empty());
    }
}
