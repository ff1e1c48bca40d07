//! # hdm-autonomous
//!
//! The autonomous-database architecture of paper §IV-A (Fig 12): "five major
//! components: information store, change manager, anomaly manager, workload
//! manager and In-DB machine learning".
//!
//! * [`infostore`] — "continuously monitoring the database system and
//!   collecting information on system performance and workloads, such as
//!   query response time and resource consumption".
//! * [`anomaly`] — "detects and manages the anomalies, such as datanode
//!   failures, slow disk or insufficient memory" (EWMA/z-score detectors +
//!   heartbeat tracking).
//! * [`workload`] — "monitors and controls query execution … to ensure
//!   efficient use of system resources and achieve targeted SLA" (admission
//!   control with AIMD concurrency adaptation against an SLA).
//! * [`change`] — "dynamically adapts to any change in system hardware and
//!   software" (validated configuration transitions with rollback).
//! * [`ml`] — "analyzing the stored information using machine-learning
//!   techniques" (least-squares regression and kNN over collected metrics).

pub mod anomaly;
pub mod change;
pub mod driver;
pub mod infostore;
pub mod ml;
pub mod workload;

pub use anomaly::{Anomaly, AnomalyClass, AnomalyManager};
pub use change::ChangeManager;
pub use driver::{AutonomousDriver, Managed, TickMetrics, TickReport};
pub use infostore::InformationStore;
pub use ml::{KnnClassifier, LinearRegression};
pub use workload::{SlaPolicy, WorkloadManager};
