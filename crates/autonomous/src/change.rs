//! The change manager: validated configuration transitions with rollback.
//!
//! "The change manager dynamically adapts to any change in system hardware
//! and software" (§IV-A). Configuration keys carry validators; every applied
//! change is journaled so a misbehaving change can be rolled back — the
//! self-configuring property "allows the addition and removal of system
//! components or resources without system service disruptions".

use hdm_common::{HdmError, Result};
use std::collections::HashMap;

type Validator = Box<dyn Fn(f64) -> std::result::Result<(), String>>;

/// One journaled change.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeRecord {
    pub key: String,
    pub from: f64,
    pub to: f64,
    pub tick: u64,
}

/// The configuration change manager.
pub struct ChangeManager {
    values: HashMap<String, f64>,
    validators: HashMap<String, Validator>,
    journal: Vec<ChangeRecord>,
}

impl ChangeManager {
    pub fn new() -> Self {
        Self {
            values: HashMap::new(),
            validators: HashMap::new(),
            journal: Vec::new(),
        }
    }

    /// Register a parameter with its initial value and validator.
    pub fn define(
        &mut self,
        key: &str,
        initial: f64,
        validator: impl Fn(f64) -> std::result::Result<(), String> + 'static,
    ) -> Result<()> {
        validator(initial).map_err(HdmError::Config)?;
        self.values.insert(key.to_string(), initial);
        self.validators.insert(key.to_string(), Box::new(validator));
        Ok(())
    }

    pub fn get(&self, key: &str) -> Result<f64> {
        self.values
            .get(key)
            .copied()
            .ok_or_else(|| HdmError::Config(format!("unknown parameter {key}")))
    }

    /// Apply a validated change, journaling it.
    pub fn apply(&mut self, key: &str, value: f64, tick: u64) -> Result<()> {
        let validator = self
            .validators
            .get(key)
            .ok_or_else(|| HdmError::Config(format!("unknown parameter {key}")))?;
        validator(value).map_err(HdmError::Config)?;
        let from = self.values[key];
        self.values.insert(key.to_string(), value);
        self.journal.push(ChangeRecord {
            key: key.to_string(),
            from,
            to: value,
            tick,
        });
        Ok(())
    }

    /// Roll back the most recent change (if any); returns it.
    pub fn rollback_last(&mut self) -> Option<ChangeRecord> {
        let rec = self.journal.pop()?;
        self.values.insert(rec.key.clone(), rec.from);
        Some(rec)
    }

    pub fn journal(&self) -> &[ChangeRecord] {
        &self.journal
    }
}

impl Default for ChangeManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> ChangeManager {
        let mut m = ChangeManager::new();
        m.define("buffer_pool_gb", 4.0, |v| {
            if (0.5..=64.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("buffer_pool_gb {v} out of [0.5, 64]"))
            }
        })
        .unwrap();
        m
    }

    #[test]
    fn apply_and_read_back() {
        let mut m = mgr();
        m.apply("buffer_pool_gb", 8.0, 1).unwrap();
        assert_eq!(m.get("buffer_pool_gb").unwrap(), 8.0);
        assert_eq!(m.journal().len(), 1);
    }

    #[test]
    fn invalid_values_rejected_without_side_effects() {
        let mut m = mgr();
        assert!(m.apply("buffer_pool_gb", 1000.0, 1).is_err());
        assert_eq!(m.get("buffer_pool_gb").unwrap(), 4.0);
        assert!(m.journal().is_empty());
    }

    #[test]
    fn rollback_restores_previous_value() {
        let mut m = mgr();
        m.apply("buffer_pool_gb", 8.0, 1).unwrap();
        m.apply("buffer_pool_gb", 16.0, 2).unwrap();
        let rec = m.rollback_last().unwrap();
        assert_eq!(rec.to, 16.0);
        assert_eq!(m.get("buffer_pool_gb").unwrap(), 8.0);
        m.rollback_last().unwrap();
        assert_eq!(m.get("buffer_pool_gb").unwrap(), 4.0);
        assert!(m.rollback_last().is_none());
    }

    #[test]
    fn unknown_parameters_error() {
        let mut m = mgr();
        assert!(m.get("nope").is_err());
        assert!(m.apply("nope", 1.0, 0).is_err());
    }

    #[test]
    fn initial_value_must_validate() {
        let mut m = ChangeManager::new();
        assert!(m
            .define("x", -1.0, |v| if v >= 0.0 {
                Ok(())
            } else {
                Err("neg".into())
            })
            .is_err());
    }
}
