//! Crash recovery (§4.4).
//!
//! The storage layer already garbage-collects disk components without a
//! validity marker when an index reopens (shadowing). What remains is to
//! selectively replay committed operations that were only in in-memory
//! components at crash time: every `Update` whose transaction committed and
//! whose LSN is newer than its index's last `Flush` watermark.
//!
//! Replay is idempotent — inserts are upserts and deletes are antimatter —
//! so replaying an operation that actually made it into a flushed component
//! is harmless, which lets the flush watermark be conservative. A replayed
//! update carries its original LSN into its memory component, so the log
//! is not cut below it until that component is flushed.

use std::collections::{HashMap, HashSet};
use std::path::Path;

use crate::wal::{LogManager, LogRecord, Lsn, TxnId};
use crate::Result;

/// Where replayed operations are applied (implemented by the dataset layer,
/// which routes them into the right LSM index).
pub trait RecoveryTarget {
    /// Apply the logical insert logged at `lsn` to (dataset, index).
    fn replay_insert(
        &mut self,
        dataset: u32,
        index: u32,
        lsn: Lsn,
        key: &[u8],
        value: &[u8],
    ) -> Result<()>;
    /// Apply the logical delete logged at `lsn` to (dataset, index).
    /// `value` carries the logical payload for indexes whose delete needs
    /// it (e.g. secondary indexes log `[field value, pk...]` rather than a
    /// storage key).
    fn replay_delete(
        &mut self,
        dataset: u32,
        index: u32,
        lsn: Lsn,
        key: &[u8],
        value: &[u8],
    ) -> Result<()>;
}

/// Counters describing what recovery did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryStats {
    pub records_scanned: usize,
    pub committed_txns: usize,
    pub replayed_inserts: usize,
    pub replayed_deletes: usize,
    pub skipped_flushed: usize,
    pub skipped_uncommitted: usize,
}

/// Run crash recovery from the log at `path` into `target`.
pub fn recover(path: &Path, target: &mut dyn RecoveryTarget) -> Result<RecoveryStats> {
    let mut stats = RecoveryStats::default();
    if !path.exists() {
        return Ok(stats);
    }
    let records = LogManager::read_all_records(path)?;
    stats.records_scanned = records.len();

    // Pass 1: committed transactions and per-index flush watermarks.
    let mut committed: HashSet<TxnId> = HashSet::new();
    let mut aborted: HashSet<TxnId> = HashSet::new();
    let mut watermark: HashMap<(u32, u32), Lsn> = HashMap::new();
    for (_, rec) in &records {
        match rec {
            LogRecord::Commit { txn } => {
                committed.insert(*txn);
            }
            LogRecord::Abort { txn } => {
                aborted.insert(*txn);
            }
            LogRecord::Flush { dataset, index, durable_lsn } => {
                let w = watermark.entry((*dataset, *index)).or_insert(0);
                *w = (*w).max(*durable_lsn);
            }
            LogRecord::Update { .. } => {}
        }
    }
    stats.committed_txns = committed.len();

    // Pass 2: selective redo in log order.
    for (lsn, rec) in &records {
        if let LogRecord::Update { txn, dataset, index, is_delete, key, value } = rec {
            if !committed.contains(txn) || aborted.contains(txn) {
                stats.skipped_uncommitted += 1;
                continue;
            }
            if *lsn <= watermark.get(&(*dataset, *index)).copied().unwrap_or(0) {
                stats.skipped_flushed += 1;
                continue;
            }
            if *is_delete {
                target.replay_delete(*dataset, *index, *lsn, key, value)?;
                stats.replayed_deletes += 1;
            } else {
                target.replay_insert(*dataset, *index, *lsn, key, value)?;
                stats.replayed_inserts += 1;
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::Durability;
    use asterix_testkit::TempDir;

    #[derive(Default)]
    struct MemTarget {
        state: HashMap<(u32, u32), HashMap<Vec<u8>, Vec<u8>>>,
    }

    impl RecoveryTarget for MemTarget {
        fn replay_insert(
            &mut self,
            dataset: u32,
            index: u32,
            _lsn: Lsn,
            key: &[u8],
            value: &[u8],
        ) -> Result<()> {
            self.state.entry((dataset, index)).or_default().insert(key.to_vec(), value.to_vec());
            Ok(())
        }

        fn replay_delete(
            &mut self,
            dataset: u32,
            index: u32,
            _lsn: Lsn,
            key: &[u8],
            _value: &[u8],
        ) -> Result<()> {
            self.state.entry((dataset, index)).or_default().remove(key);
            Ok(())
        }
    }

    fn update(txn: TxnId, k: u8, delete: bool) -> LogRecord {
        LogRecord::Update {
            txn,
            dataset: 1,
            index: 0,
            is_delete: delete,
            key: vec![k],
            value: vec![k, k],
        }
    }

    #[test]
    fn replays_committed_only() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        let t1 = log.begin();
        log.append(&update(t1, 1, false)).unwrap();
        log.commit(t1).unwrap();
        let t2 = log.begin();
        log.append(&update(t2, 2, false)).unwrap();
        // t2 never commits (crash).
        log.force().unwrap();

        let mut target = MemTarget::default();
        let stats = recover(&path, &mut target).unwrap();
        assert_eq!(stats.replayed_inserts, 1);
        assert_eq!(stats.skipped_uncommitted, 1);
        assert!(target.state[&(1, 0)].contains_key(&vec![1]));
        assert!(!target.state[&(1, 0)].contains_key(&vec![2]));
    }

    #[test]
    fn flush_watermark_skips_durable_ops() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        let t1 = log.begin();
        let lsn1 = log.append(&update(t1, 1, false)).unwrap();
        log.commit(t1).unwrap();
        log.append(&LogRecord::Flush { dataset: 1, index: 0, durable_lsn: lsn1 }).unwrap();
        let t2 = log.begin();
        log.append(&update(t2, 2, false)).unwrap();
        log.commit(t2).unwrap();
        log.force().unwrap();

        let mut target = MemTarget::default();
        let stats = recover(&path, &mut target).unwrap();
        assert_eq!(stats.skipped_flushed, 1);
        assert_eq!(stats.replayed_inserts, 1);
        assert!(!target.state[&(1, 0)].contains_key(&vec![1]));
        assert!(target.state[&(1, 0)].contains_key(&vec![2]));
    }

    #[test]
    fn deletes_replay_as_deletes() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        let t1 = log.begin();
        log.append(&update(t1, 1, false)).unwrap();
        log.commit(t1).unwrap();
        let t2 = log.begin();
        log.append(&update(t2, 1, true)).unwrap();
        log.commit(t2).unwrap();
        log.force().unwrap();

        let mut target = MemTarget::default();
        let stats = recover(&path, &mut target).unwrap();
        assert_eq!(stats.replayed_deletes, 1);
        assert!(target.state[&(1, 0)].is_empty());
    }

    #[test]
    fn aborted_txns_are_not_replayed() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        let t1 = log.begin();
        log.append(&update(t1, 9, false)).unwrap();
        log.append(&LogRecord::Abort { txn: t1 }).unwrap();
        log.force().unwrap();
        let mut target = MemTarget::default();
        let stats = recover(&path, &mut target).unwrap();
        assert_eq!(stats.replayed_inserts, 0);
    }

    #[test]
    fn missing_log_is_clean_start() {
        let dir = TempDir::new().unwrap();
        let mut target = MemTarget::default();
        let stats = recover(&dir.path().join("nope.log"), &mut target).unwrap();
        assert_eq!(stats, RecoveryStats::default());
    }

    #[test]
    fn multi_index_watermarks_are_independent() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        let t = log.begin();
        let l1 = log
            .append(&LogRecord::Update {
                txn: t,
                dataset: 1,
                index: 0,
                is_delete: false,
                key: vec![1],
                value: vec![1],
            })
            .unwrap();
        log.append(&LogRecord::Update {
            txn: t,
            dataset: 1,
            index: 1,
            is_delete: false,
            key: vec![1],
            value: vec![],
        })
        .unwrap();
        log.commit(t).unwrap();
        // Only the primary (index 0) flushed.
        log.append(&LogRecord::Flush { dataset: 1, index: 0, durable_lsn: l1 }).unwrap();
        log.force().unwrap();
        let mut target = MemTarget::default();
        let stats = recover(&path, &mut target).unwrap();
        assert_eq!(stats.replayed_inserts, 1);
        assert!(target.state.contains_key(&(1, 1)));
        assert!(!target.state.contains_key(&(1, 0)));
    }
}
