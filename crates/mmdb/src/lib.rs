//! # hdm-mmdb
//!
//! The multi-model database layer of paper §II-B: "a unified storage engine,
//! multiple runtime execution engines, and a uniformed framework".
//!
//! * [`graph`] — the graph engine: a property graph stored relationally
//!   ("graphs are represented through tables for vertexes and edges") with a
//!   **Gremlin-lite** traversal machine and a parser for the embedded
//!   Gremlin strings of the paper's Example 1 (`g.V().has('cid',11111)
//!   .inE('call')...`).
//! * [`timeseries`] — the time-series engine: time-partitioned segments,
//!   high-rate ingestion, window queries, and per-segment pre-aggregation
//!   (the device/edge "pre-aggregation for time series data" of §IV-B).
//! * [`spatial`] — the spatial engine: a uniform grid index with rectangle
//!   range queries and k-nearest-neighbour search.
//! * [`unified`] — the uniformed framework: one SQL surface where
//!   `gtimeseries(...)` and `ggraph(...)` table functions embed the other
//!   engines inside relational queries, reproducing Example 1.

//! * [`vision`] — the vision-metadata engine the paper "plan\[s\] to add …
//!   soon": detection storage with class/time indexes and embedding
//!   similarity search (the §IV-B high-dimensional challenge).
//! * [`stream`] — continuous queries: standing tumbling-window aggregations
//!   over ingestion streams (the "continuous query language" of §II-B).

pub mod graph;
pub mod spatial;
pub mod stream;
pub mod timeseries;
pub mod unified;
pub mod vision;

pub use graph::{GremlinResult, PropertyGraph};
pub use spatial::{GridIndex, Point, Rect};
pub use stream::{ContinuousQuery, Gate, StreamAgg, StreamEngine, WindowEvent};
pub use timeseries::TimeSeriesStore;
pub use unified::MultiModelDb;
pub use vision::{Detection, VisionStore};
