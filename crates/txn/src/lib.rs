//! # hdm-txn
//!
//! Distributed transaction management for the FI-MPPDB reproduction
//! (paper §II-A):
//!
//! * [`snapshot`] — PostgreSQL-style snapshots (`xmin`, `xmax`, active list).
//! * [`commitlog`] — per-node transaction status (the "clog").
//! * [`local`] — a data node's local transaction manager: local XIDs, local
//!   snapshots, the **local commit order (LCO)** and the **xidMap**
//!   (global→local XID) that Algorithm 1 consumes.
//! * [`gtm`] — the centralized Global Transaction Manager: in the *baseline*
//!   every transaction takes a GXID + global snapshot from it and reports
//!   commit to it; in *GTM-lite* only multi-shard transactions do.
//! * [`merge`] — **Algorithm 1 `MergeSnapshot`** with the UPGRADE and
//!   DOWNGRADE conflict resolutions for the two anomalies of §II-A.
//! * [`visibility`] — adapts a snapshot + commit log (+ own XID) into the
//!   storage layer's tuple-visibility judge.
//! * [`twopc`] — the two-phase-commit coordinator state machine used for
//!   multi-shard writes.

pub mod commitlog;
pub mod gtm;
pub mod local;
pub mod merge;
pub mod snapshot;
pub mod twopc;
pub mod visibility;

pub use commitlog::{CommitLog, TxnStatus};
pub use gtm::Gtm;
pub use local::LocalTxnManager;
pub use merge::{merge_snapshot, merge_with_manager, MergeInputs, MergeOutcome};
pub use snapshot::Snapshot;
pub use twopc::{Decision, TwoPcCoordinator, TwoPcState};
pub use visibility::{MemoVisibility, SnapshotVisibility};
