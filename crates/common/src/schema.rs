//! Relational schemas and rows.

use crate::value::{DataType, Datum};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    pub name: String,
    pub data_type: DataType,
    pub nullable: bool,
}

impl Column {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Self {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }

    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    pub fn new(columns: Vec<Column>) -> Self {
        Self { columns }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Self {
        Self {
            columns: pairs.iter().map(|(n, t)| Column::new(*n, *t)).collect(),
        }
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Schema { columns }
    }

    /// Validate that a row conforms: arity matches, each non-null datum has
    /// the column's type, and NOT NULL columns are non-null.
    pub fn validate_row(&self, row: &Row) -> Result<(), String> {
        if row.len() != self.columns.len() {
            return Err(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                self.columns.len()
            ));
        }
        for (i, (col, datum)) in self.columns.iter().zip(row.values()).enumerate() {
            match datum.data_type() {
                None => {
                    if !col.nullable {
                        return Err(format!("column {} ({}) is NOT NULL", i, col.name));
                    }
                }
                Some(t) => {
                    let compatible = t == col.data_type
                        || matches!(
                            (t, col.data_type),
                            (DataType::Int, DataType::Float)
                                | (DataType::Int, DataType::Timestamp)
                                | (DataType::Timestamp, DataType::Int)
                        );
                    if !compatible {
                        return Err(format!(
                            "column {} ({}) expects {} but got {}",
                            i, col.name, col.data_type, t
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.data_type)?;
        }
        write!(f, ")")
    }
}

/// A materialized row of datums.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Row(Vec<Datum>);

impl Row {
    pub fn new(values: Vec<Datum>) -> Self {
        Self(values)
    }

    pub fn values(&self) -> &[Datum] {
        &self.0
    }

    pub fn values_mut(&mut self) -> &mut Vec<Datum> {
        &mut self.0
    }

    pub fn into_values(self) -> Vec<Datum> {
        self.0
    }

    pub fn get(&self, idx: usize) -> Option<&Datum> {
        self.0.get(idx)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Concatenate with another row (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut v = self.0.clone();
        v.extend(other.0.iter().cloned());
        Row(v)
    }

    /// Approximate byte width of the row (cost models, Fig 11 object sizing).
    pub fn width(&self) -> usize {
        self.0.iter().map(Datum::width).sum()
    }
}

impl From<Vec<Datum>> for Row {
    fn from(v: Vec<Datum>) -> Self {
        Row(v)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// Build a row from literals: `row![1, "a", 2.5]`.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::schema::Row::new(vec![$($crate::value::Datum::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_pairs(&[("id", DataType::Int), ("name", DataType::Text)])
    }

    #[test]
    fn index_of_is_case_insensitive() {
        let s = schema();
        assert_eq!(s.index_of("ID"), Some(0));
        assert_eq!(s.index_of("Name"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn validate_row_checks_arity_and_types() {
        let s = schema();
        assert!(s.validate_row(&row![1, "alice"]).is_ok());
        assert!(s.validate_row(&row![1]).is_err());
        assert!(s.validate_row(&row!["oops", "alice"]).is_err());
    }

    #[test]
    fn not_null_is_enforced() {
        let s = Schema::new(vec![Column::new("id", DataType::Int).not_null()]);
        let null_row = Row::new(vec![Datum::Null]);
        assert!(s.validate_row(&null_row).is_err());
    }

    #[test]
    fn join_concatenates_schemas_and_rows() {
        let a = schema();
        let b = Schema::from_pairs(&[("score", DataType::Float)]);
        let joined = a.join(&b);
        assert_eq!(joined.len(), 3);
        let r = row![1, "a"].concat(&row![0.5]);
        assert!(joined.validate_row(&r).is_ok());
    }

    #[test]
    fn int_allowed_in_float_column() {
        let s = Schema::from_pairs(&[("x", DataType::Float)]);
        assert!(s.validate_row(&row![3]).is_ok());
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(schema().to_string(), "(id INT, name TEXT)");
        assert_eq!(row![1, "a"].to_string(), "[1, 'a']");
    }
}
