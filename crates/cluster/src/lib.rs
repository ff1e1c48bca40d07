//! # hdm-cluster
//!
//! The sharded OLTP cluster of §II-A: coordinator-routed transactions over
//! data nodes with either the **baseline** centralized-GTM protocol or
//! **GTM-lite**.
//!
//! * [`shard`] — application sharding (key prefix → shard placement).
//! * [`node`] — a data node: MVCC KV table + local transaction manager +
//!   pending-commit window.
//! * [`engine`] — the functional engine implementing both protocols with a
//!   split multi-shard commit for anomaly scripting.
//! * [`anomaly`] — scripted reproductions of the paper's Anomaly 1 and
//!   Anomaly 2 (Fig 2), runnable under the naive and full merge policies.
//! * [`sim`] — the timed Fig 3 experiment: a closed-loop TPC-C-style driver
//!   over the discrete-event kernel, reporting throughput per cluster size.
//! * [`retry`] — CN-side capped-exponential backoff with seeded jitter.
//! * [`chaos`] — the fault-injection harness: a bank-transfer workload under
//!   seeded message faults and node/GTM crashes, with a shadow-ledger audit.
//! * [`dist`] — distributed SQL: the CN plans shard-pruned scatter-gather
//!   plans over the data nodes through `hdm-sql`'s pluggable backend.
//! * [`replica`] — per-shard log-shipped followers (replica CSN, promotion
//!   catch-up, in-doubt reconstruction) backing automatic DN failover.
//! * [`chaos_dist`] — the chaos-dist sweep: the dist_equivalence corpus under
//!   scripted DN crash/restart with a fault-free twin as shadow ledger.
//! * [`health`] — the cluster health plane: the bounded `sys.events`
//!   journal and the per-shard lag/health monitor driven by
//!   `pump_replication` ticks.

pub mod anomaly;
pub mod chaos;
pub mod chaos_dist;
pub mod dist;
pub mod engine;
pub mod health;
pub mod node;
pub mod replica;
pub mod retry;
pub mod shard;
pub mod sim;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport, FaultPlanBuilder};
pub use chaos_dist::{run_chaos_dist, ChaosDistConfig, ChaosDistReport};
pub use dist::{DistCounters, DistDb, FaultOp, FaultScript};
pub use engine::{Cluster, ClusterConfig, ClusterCounters, MergePolicy, Protocol, Txn, TxnOptions};
pub use health::{EventJournal, HealthMonitor, SysEvent};
pub use node::{DataNode, TableId};
pub use replica::{Follower, LogRecord, ReplOp, ReplicaSet, ShardLog};
pub use retry::RetryPolicy;
pub use shard::{key_local, key_prefix, make_key, ShardMap};
pub use sim::{SimConfig, SimReport, WorkloadMix};
