//! Vectorized column batches.
//!
//! FI-MPPDB's "vectorized execution engine … with latest SIMD instructions"
//! (§I) processes tuples in column-major batches. We reproduce the
//! architecture — column vectors plus a selection vector so filters avoid
//! materializing — in portable Rust; the compiler auto-vectorizes the tight
//! integer loops where the host allows.

use hdm_common::{Datum, HdmError, Result, Row, Schema};

/// Default number of rows per batch (a common vector width in columnar
/// engines: large enough to amortize dispatch, small enough for cache).
pub const BATCH_SIZE: usize = 1024;

/// A column-major batch of rows with an optional selection vector.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    columns: Vec<Vec<Datum>>,
    /// Indices of live rows; `None` means all rows live.
    selection: Option<Vec<u32>>,
    rows: usize,
}

impl Batch {
    /// Build from row-major input.
    pub fn from_rows(schema_width: usize, rows: &[Row]) -> Result<Batch> {
        let mut columns = vec![Vec::with_capacity(rows.len()); schema_width];
        for r in rows {
            if r.len() != schema_width {
                return Err(HdmError::Execution(format!(
                    "row arity {} != batch width {schema_width}",
                    r.len()
                )));
            }
            for (c, v) in r.values().iter().enumerate() {
                columns[c].push(v.clone());
            }
        }
        Ok(Batch {
            columns,
            selection: None,
            rows: rows.len(),
        })
    }

    /// Build directly from column vectors (must be equal length).
    pub fn from_columns(columns: Vec<Vec<Datum>>) -> Result<Batch> {
        let rows = columns.first().map_or(0, Vec::len);
        if columns.iter().any(|c| c.len() != rows) {
            return Err(HdmError::Execution("ragged batch columns".into()));
        }
        Ok(Batch {
            columns,
            selection: None,
            rows,
        })
    }

    /// Number of *live* rows (after selection).
    pub fn len(&self) -> usize {
        match &self.selection {
            Some(sel) => sel.len(),
            None => self.rows,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Raw column data (pre-selection).
    pub fn column(&self, idx: usize) -> Result<&[Datum]> {
        self.columns
            .get(idx)
            .map(Vec::as_slice)
            .ok_or_else(|| HdmError::Execution(format!("no column {idx}")))
    }

    /// Iterate live physical row indices.
    pub fn live_indices(&self) -> Box<dyn Iterator<Item = usize> + '_> {
        match &self.selection {
            Some(sel) => Box::new(sel.iter().map(|&i| i as usize)),
            None => Box::new(0..self.rows),
        }
    }

    /// Value at a live position `(row, col)` where `row` is physical.
    pub fn value(&self, row: usize, col: usize) -> &Datum {
        &self.columns[col][row]
    }

    /// Vectorized filter on one column: narrow the selection vector to live
    /// rows whose `col` value satisfies `pred`. No data movement.
    pub fn filter_col(&mut self, col: usize, pred: impl Fn(&Datum) -> bool) {
        let column = &self.columns[col];
        let new_sel: Vec<u32> = match &self.selection {
            Some(sel) => sel
                .iter()
                .copied()
                .filter(|&i| pred(&column[i as usize]))
                .collect(),
            None => (0..self.rows as u32)
                .filter(|&i| pred(&column[i as usize]))
                .collect(),
        };
        self.selection = Some(new_sel);
    }

    /// Replace the selection with explicit physical indices (caller ensures
    /// they are in range and were live).
    pub fn select(&mut self, indices: Vec<u32>) {
        self.selection = Some(indices);
    }

    /// Materialize the live rows into row-major form.
    pub fn to_rows(&self) -> Vec<Row> {
        self.live_indices()
            .map(|i| {
                Row::new(
                    self.columns
                        .iter()
                        .map(|c| c[i].clone())
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    /// Compact: rewrite columns to contain only live rows and clear the
    /// selection vector. Amortizes repeated downstream passes.
    pub fn compact(&mut self) {
        if self.selection.is_none() {
            return;
        }
        let live: Vec<usize> = self.live_indices().collect();
        for col in &mut self.columns {
            let mut out = Vec::with_capacity(live.len());
            for &i in &live {
                out.push(col[i].clone());
            }
            *col = out;
        }
        self.rows = live.len();
        self.selection = None;
    }

    /// Validate live rows against a schema (debug/assertion helper).
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        for row in self.to_rows() {
            schema.validate_row(&row).map_err(HdmError::Execution)?;
        }
        Ok(())
    }
}

/// Split rows into batches of at most `batch_size`.
pub fn batched(schema_width: usize, rows: &[Row], batch_size: usize) -> Result<Vec<Batch>> {
    rows.chunks(batch_size.max(1))
        .map(|chunk| Batch::from_rows(schema_width, chunk))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::row;

    fn sample() -> Batch {
        let rows: Vec<Row> = (0..10).map(|i| row![i, i * 10]).collect();
        Batch::from_rows(2, &rows).unwrap()
    }

    #[test]
    fn from_rows_round_trips() {
        let b = sample();
        assert_eq!(b.len(), 10);
        assert_eq!(b.width(), 2);
        assert_eq!(b.to_rows()[3], row![3, 30]);
    }

    #[test]
    fn filter_narrows_without_moving_data() {
        let mut b = sample();
        b.filter_col(0, |d| d.as_int().unwrap() % 2 == 0);
        assert_eq!(b.len(), 5);
        assert_eq!(b.to_rows()[1], row![2, 20]);
        // Underlying storage untouched.
        assert_eq!(b.column(0).unwrap().len(), 10);
    }

    #[test]
    fn stacked_filters_intersect() {
        let mut b = sample();
        b.filter_col(0, |d| d.as_int().unwrap() % 2 == 0); // 0,2,4,6,8
        b.filter_col(0, |d| d.as_int().unwrap() > 3); // 4,6,8
        assert_eq!(b.len(), 3);
        assert_eq!(b.to_rows()[0], row![4, 40]);
    }

    #[test]
    fn compact_rewrites_storage() {
        let mut b = sample();
        b.filter_col(0, |d| d.as_int().unwrap() >= 8);
        b.compact();
        assert_eq!(b.len(), 2);
        assert_eq!(b.column(0).unwrap().len(), 2);
        assert_eq!(b.to_rows(), vec![row![8, 80], row![9, 90]]);
    }

    #[test]
    fn ragged_input_rejected() {
        assert!(Batch::from_rows(2, &[row![1]]).is_err());
        assert!(Batch::from_columns(vec![vec![Datum::Int(1)], vec![]]).is_err());
    }

    #[test]
    fn batched_splits_evenly() {
        let rows: Vec<Row> = (0..2500).map(|i| row![i]).collect();
        let batches = batched(1, &rows, BATCH_SIZE).unwrap();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 1024);
        assert_eq!(batches[2].len(), 452);
    }

    #[test]
    fn empty_batch_is_fine() {
        let b = Batch::from_rows(3, &[]).unwrap();
        assert!(b.is_empty());
        assert_eq!(b.to_rows().len(), 0);
    }
}
