//! # asterixdb — the full BDMS (Figure 1 / Figure 4)
//!
//! This crate assembles the substrates into the system the paper
//! describes: a simulated shared-nothing cluster (a Cluster Controller
//! plus Node Controllers hosting storage partitions), Datasets stored as
//! hash-partitioned LSM B+-trees with node-local secondary indexes,
//! record-level transactions with WAL + shadowing recovery, external
//! datasets, data feeds, metadata stored as queryable data, and an AQL
//! entry point ([`Instance::execute`]) that compiles statements through
//! Algebricks onto the Hyracks runtime.

pub mod cluster;
pub mod dataset;
pub mod error;
pub mod instance;
pub mod nodelog;
pub mod plancache;
pub mod profile;
pub mod provider;
pub mod session;
pub mod system;

pub use cluster::ClusterConfig;
pub use error::{AsterixError, Result};
pub use instance::{Instance, QueryOpts, StatementResult};
pub use plancache::PreparedQuery;
pub use profile::QueryProfile;
pub use session::Session;
pub use system::SystemSnapshot;

pub use asterix_rm::{AdmissionError, JobInfo, JobState};
