//! # asterix-txn — record-level transactions (§4.4)
//!
//! AsterixDB supports record-level ACID transactions that begin and end
//! implicitly per record inserted, deleted, or searched. This crate
//! reproduces that model:
//!
//! * [`locks`] — a node-local 2PL lock table keyed by (dataset, primary
//!   key). Locks are only acquired for primary-index modifications; the
//!   secondary indexes rely on latching plus post-validation in query plans.
//! * [`wal`] — logical write-ahead logging, no-force: one log record per
//!   LSM-index update operation, forced at commit. (The paper's no-steal
//!   does not hold here: a flush can write an uncommitted update, and
//!   recovery has no undo — DESIGN.md, "Known, documented
//!   simplifications".) The log knows each active transaction's first LSN and can be
//!   cut below any LSN, its LSNs rising across cuts and reopens.
//! * [`recovery`] — replay of committed log records newer than each index's
//!   last flushed component, paired with the storage layer's validity-marker
//!   shadowing (invalid components are garbage-collected by the LSM open
//!   path).

pub mod locks;
pub mod recovery;
pub mod wal;

pub use locks::{LockManager, LockMode};
pub use recovery::{recover, RecoveryStats, RecoveryTarget};
pub use wal::{LogManager, LogRecord, TxnId};

use std::fmt;

/// Transaction-layer error type.
#[derive(Debug)]
pub enum TxnError {
    Io(std::io::Error),
    Corrupt(String),
    /// Lock wait exceeded the deadlock-avoidance timeout.
    LockTimeout(String),
    Storage(asterix_storage::StorageError),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Io(e) => write!(f, "io error: {e}"),
            TxnError::Corrupt(m) => write!(f, "corrupt log: {m}"),
            TxnError::LockTimeout(m) => write!(f, "lock timeout: {m}"),
            TxnError::Storage(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TxnError {}

impl From<std::io::Error> for TxnError {
    fn from(e: std::io::Error) -> Self {
        TxnError::Io(e)
    }
}

impl From<asterix_storage::StorageError> for TxnError {
    fn from(e: asterix_storage::StorageError) -> Self {
        TxnError::Storage(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, TxnError>;
