//! The table catalog.

use hdm_common::{HdmError, Result, Schema};
use hdm_storage::Table;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Named tables with their storage and statistics. Names may be
/// schema-qualified (`olap.t1`); matching is case-insensitive (names are
/// normalized to lower case on entry).
#[derive(Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// `name` in lower case, borrowed when it already is.
    fn norm(name: &str) -> Cow<'_, str> {
        if name.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(name.to_ascii_lowercase())
        } else {
            Cow::Borrowed(name)
        }
    }

    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        let key = Self::norm(name).into_owned();
        if self.tables.contains_key(&key) {
            return Err(HdmError::Catalog(format!("table {name} already exists")));
        }
        self.tables.insert(key.clone(), Table::new(key, schema));
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(&*Self::norm(name))
            .map(|_| ())
            .ok_or_else(|| HdmError::Catalog(format!("no table {name}")))
    }

    pub fn get(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(&*Self::norm(name))
            .ok_or_else(|| HdmError::Catalog(format!("no table {name}")))
    }

    pub fn get_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&*Self::norm(name))
            .ok_or_else(|| HdmError::Catalog(format!("no table {name}")))
    }

    pub fn exists(&self, name: &str) -> bool {
        self.tables.contains_key(&*Self::norm(name))
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    pub fn tables_mut(&mut self) -> impl Iterator<Item = &mut Table> {
        self.tables.values_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::DataType;

    #[test]
    fn create_lookup_case_insensitive() {
        let mut c = Catalog::new();
        c.create_table("OLAP.T1", Schema::from_pairs(&[("a", DataType::Int)]))
            .unwrap();
        assert!(c.get("olap.t1").is_ok());
        assert!(c.get("OLAP.t1").is_ok());
        assert!(c.exists("olap.T1"));
        assert!(c.get("olap.t2").is_err());
    }

    #[test]
    fn duplicate_rejected() {
        let mut c = Catalog::new();
        c.create_table("t", Schema::from_pairs(&[("a", DataType::Int)]))
            .unwrap();
        assert!(c
            .create_table("T", Schema::from_pairs(&[("a", DataType::Int)]))
            .is_err());
    }

    #[test]
    fn drop_removes() {
        let mut c = Catalog::new();
        c.create_table("t", Schema::from_pairs(&[("a", DataType::Int)]))
            .unwrap();
        c.drop_table("t").unwrap();
        assert!(!c.exists("t"));
        assert!(c.drop_table("t").is_err());
    }
}
