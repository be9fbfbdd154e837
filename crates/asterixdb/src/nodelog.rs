//! One node's write-ahead log and what recovery still needs of it (§4.4).
//!
//! Every index partition a node hosts logs its updates in the node's log
//! before applying them, and each write carries its LSN into the LSM
//! memory component, so every partition's [`LsnPin`] names the lowest LSN
//! it holds unflushed. When a flush installs, the node's cut is the lowest
//! of those pins, of every active transaction's first LSN and of the next
//! LSN: every update below it is in a disk component. The log is rewritten
//! without the records below the cut when that drops at least as many
//! bytes as it keeps, so copying never exceeds what is dropped (DESIGN.md
//! "Log truncation").

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use asterix_obs::log_event;
use asterix_storage::lsm::{LsmObserver, Lsn, LsnPin};
use asterix_sync::Mutex;
use asterix_txn::wal::{LogManager, LogRecord};

use crate::error::Result;

/// A node's log and the pins of the index partitions it hosts.
pub struct NodeLog {
    wal: LogManager,
    pins: Mutex<Vec<LsnPin>>,
    /// Whether recovery has replayed the log: until then the records it
    /// holds are in no memory component, so none is known to be applied.
    replayed: AtomicBool,
}

impl NodeLog {
    pub fn new(wal: LogManager) -> Arc<NodeLog> {
        Arc::new(NodeLog { wal, pins: Mutex::new(Vec::new()), replayed: AtomicBool::new(false) })
    }

    /// Recovery has replayed the log into the memory components: from now
    /// on flushes cut it and claim what they wrote durable.
    pub(crate) fn mark_replayed(&self) {
        self.replayed.store(true, Ordering::SeqCst);
    }

    /// The node's log.
    pub fn wal(&self) -> &LogManager {
        &self.wal
    }

    /// Count an index partition's unflushed writes in the cut.
    pub(crate) fn register(&self, pin: LsnPin) {
        self.pins.lock().push(pin);
    }

    /// The lowest LSN an update not yet applied to its index can have: the
    /// log's floor once recovery has replayed it, the first LSN of all
    /// before.
    fn floor(&self) -> Lsn {
        if self.replayed.load(Ordering::SeqCst) {
            self.wal.floor()
        } else {
            1
        }
    }

    /// The lowest LSN recovery could still need. The floor is read first:
    /// an update below it was applied before, so a pin read after it
    /// counts the update while it is still in memory.
    pub fn cut(&self) -> Lsn {
        let floor = self.floor();
        let mut pins = self.pins.lock();
        pins.retain(|p| !p.is_orphan() || p.get().is_some());
        pins.iter().filter_map(LsnPin::get).fold(floor, Lsn::min)
    }

    /// Drop the records below [`Self::cut`] when they are at least as many
    /// bytes as the records kept.
    pub fn truncate(&self) -> Result<()> {
        let cut = self.cut();
        let dropped = self.wal.bytes_below(cut)?;
        if dropped > 0 && 2 * dropped >= self.wal.size_bytes() {
            self.wal.truncate_below(cut)?;
        }
        Ok(())
    }
}

/// Observer of one index partition: after each flush it logs the LSN up
/// to which the partition's updates are durable (§4.4: recovery replays
/// only operations newer than the last flushed component) and cuts the
/// node's log.
pub(crate) struct FlushLogger {
    pub node: Arc<NodeLog>,
    pub dataset: u32,
    pub index_code: u32,
}

impl LsmObserver for FlushLogger {
    fn on_flush(&self, _path: &std::path::Path, _max_seq: u64, pin: &LsnPin) {
        // Everything below both the floor (read first, as in `cut`) and the
        // partition's pin is on disk.
        let floor = self.node.floor();
        let durable = pin.get().map_or(floor, |l| l.min(floor)) - 1;
        let _ = self.node.wal.append(&LogRecord::Flush {
            dataset: self.dataset,
            index: self.index_code,
            durable_lsn: durable,
        });
        let _ = self.node.wal.force();
        if let Err(e) = self.node.truncate() {
            log_event("txn.wal", "truncate_failed", &[("error", e.to_string().into())]);
        }
    }
}
