//! # hdm-storage
//!
//! Single-node storage engine underneath the FI-MPPDB reproduction:
//!
//! * [`mvcc`] — tuple headers carrying `xmin`/`xmax` transaction ids and the
//!   [`mvcc::Visibility`] abstraction, mirroring the PostgreSQL lineage of
//!   FI-MPPDB (Postgres-XC, paper §I). The Anomaly-2 walkthrough in the paper
//!   (Fig 2 and its tuple table) is expressed directly in these terms.
//! * [`heap`] — the MVCC row heap: insert/delete/update produce tuple version
//!   chains; scans filter through a caller-supplied visibility judge.
//! * [`index`] — ordered secondary indexes over heap tuples.
//! * [`compress`] — RLE / dictionary / delta codecs for column chunks
//!   ("data compression", §I).
//! * [`column`](mod@column) — a compressed columnar representation of a table
//!   ("hybrid row-column storage", §I).
//! * [`batch`] — vectorized column batches with selection vectors
//!   ("vectorized execution engine", §II).
//! * [`table`] — ties heap + schema + indexes + statistics together.

pub mod batch;
pub mod column;
pub mod compress;
pub mod heap;
pub mod index;
pub mod mvcc;
pub mod table;

pub use batch::Batch;
pub use heap::{HeapTable, TupleId};
pub use mvcc::{TupleHeader, Visibility};
pub use table::{ColumnStats, Table, TableStats};
