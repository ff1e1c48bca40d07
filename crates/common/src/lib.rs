//! # hdm-common
//!
//! Shared foundation types for the `huawei-dm` workspace: datums and schemas
//! for the relational layers, error types, identifiers, a deterministic RNG,
//! virtual-time types used by the discrete-event simulator, and an MD5
//! implementation used by the learning optimizer's plan store (the paper keys
//! canonical step definitions by their MD5 hash, §II-C).

pub mod error;
pub mod ids;
pub mod md5;
pub mod rng;
pub mod schema;
pub mod stats;
pub mod time;
pub mod value;

pub use error::{HdmError, Result};
pub use ids::{ClientId, DeviceId, NodeId, ShardId, Xid};
pub use rng::SplitMix64;
pub use schema::{Column, Row, Schema};
pub use time::{SimDuration, SimInstant};
pub use value::{DataType, Datum};
