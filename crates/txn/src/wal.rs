//! Logical write-ahead logging (§4.4).
//!
//! "For logical logging, the no-steal/no-force buffer management policy and
//! write-ahead-log (WAL) protocols are followed, so each LSM-index-level
//! update operation generates a single log record."
//!
//! Record kinds:
//! * `Update` — one logical insert/delete against one LSM index;
//! * `Commit` — a record-level transaction committed (forces the log);
//! * `Abort`  — a transaction gave up; its updates are never replayed;
//! * `Flush`  — an index's in-memory component was flushed; carries the LSN
//!   up to which that index's updates are now durable in a component, so
//!   recovery replays only the tail ("only the committed operations from
//!   in-memory components need to be selectively replayed").
//!
//! A log cut by [`LogManager::truncate_below`] starts with a base record
//! naming the LSN of the record after it, so LSNs keep rising across cuts
//! and reopens.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use asterix_obs::{Counter, Gauge, MetricsRegistry};
use asterix_sync::Mutex;

use crate::{Result, TxnError};

pub use asterix_storage::lsm::Lsn;

/// Transaction identifier.
pub type TxnId = u64;

/// A logical log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// One LSM-index update: (txn, dataset, index, delete?, key, value).
    Update { txn: TxnId, dataset: u32, index: u32, is_delete: bool, key: Vec<u8>, value: Vec<u8> },
    /// Transaction commit.
    Commit { txn: TxnId },
    /// Transaction abort (its updates must not be replayed).
    Abort { txn: TxnId },
    /// Index flush watermark: updates of (dataset, index) with LSN <=
    /// `durable_lsn` are persisted in disk components.
    Flush { dataset: u32, index: u32, durable_lsn: Lsn },
}

const T_UPDATE: u8 = 1;
const T_COMMIT: u8 = 2;
const T_ABORT: u8 = 3;
const T_FLUSH: u8 = 4;
/// The base record a cut log starts with: the next record's LSN. It has
/// no LSN of its own and is not a [`LogRecord`].
const T_BASE: u8 = 5;

/// The reflected CRC-32 (IEEE) of every byte value.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of a record body, a byte at a time through a table.
fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in data {
        crc = CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// A record body framed as it is stored: length, CRC, body.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 8);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

impl LogRecord {
    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            LogRecord::Update { txn, dataset, index, is_delete, key, value } => {
                body.push(T_UPDATE);
                body.extend_from_slice(&txn.to_le_bytes());
                body.extend_from_slice(&dataset.to_le_bytes());
                body.extend_from_slice(&index.to_le_bytes());
                body.push(u8::from(*is_delete));
                body.extend_from_slice(&(key.len() as u32).to_le_bytes());
                body.extend_from_slice(key);
                body.extend_from_slice(&(value.len() as u32).to_le_bytes());
                body.extend_from_slice(value);
            }
            LogRecord::Commit { txn } => {
                body.push(T_COMMIT);
                body.extend_from_slice(&txn.to_le_bytes());
            }
            LogRecord::Abort { txn } => {
                body.push(T_ABORT);
                body.extend_from_slice(&txn.to_le_bytes());
            }
            LogRecord::Flush { dataset, index, durable_lsn } => {
                body.push(T_FLUSH);
                body.extend_from_slice(&dataset.to_le_bytes());
                body.extend_from_slice(&index.to_le_bytes());
                body.extend_from_slice(&durable_lsn.to_le_bytes());
            }
        }
        frame(&body)
    }

    fn decode(body: &[u8]) -> Result<LogRecord> {
        let corrupt = || TxnError::Corrupt("truncated log record body".into());
        let mut pos = 0usize;
        let u8_at = |pos: &mut usize| -> Result<u8> {
            let b = *body.get(*pos).ok_or_else(corrupt)?;
            *pos += 1;
            Ok(b)
        };
        let u32_at = |pos: &mut usize| -> Result<u32> {
            if *pos + 4 > body.len() {
                return Err(corrupt());
            }
            let v = u32::from_le_bytes(body[*pos..*pos + 4].try_into().unwrap());
            *pos += 4;
            Ok(v)
        };
        let u64_at = |pos: &mut usize| -> Result<u64> {
            if *pos + 8 > body.len() {
                return Err(corrupt());
            }
            let v = u64::from_le_bytes(body[*pos..*pos + 8].try_into().unwrap());
            *pos += 8;
            Ok(v)
        };
        let bytes_at = |pos: &mut usize| -> Result<Vec<u8>> {
            let n = u32_at(pos)? as usize;
            if *pos + n > body.len() {
                return Err(corrupt());
            }
            let out = body[*pos..*pos + n].to_vec();
            *pos += n;
            Ok(out)
        };
        Ok(match u8_at(&mut pos)? {
            T_UPDATE => LogRecord::Update {
                txn: u64_at(&mut pos)?,
                dataset: u32_at(&mut pos)?,
                index: u32_at(&mut pos)?,
                is_delete: u8_at(&mut pos)? != 0,
                key: bytes_at(&mut pos)?,
                value: bytes_at(&mut pos)?,
            },
            T_COMMIT => LogRecord::Commit { txn: u64_at(&mut pos)? },
            T_ABORT => LogRecord::Abort { txn: u64_at(&mut pos)? },
            T_FLUSH => LogRecord::Flush {
                dataset: u32_at(&mut pos)?,
                index: u32_at(&mut pos)?,
                durable_lsn: u64_at(&mut pos)?,
            },
            other => return Err(TxnError::Corrupt(format!("bad log record type {other}"))),
        })
    }
}

/// The base record of a log whose next record has LSN `next_lsn`.
fn encode_base(next_lsn: Lsn) -> Vec<u8> {
    let mut body = vec![T_BASE];
    body.extend_from_slice(&next_lsn.to_le_bytes());
    frame(&body)
}

/// One intact record of a log image: its LSN, where it starts, its body.
struct Framed<'a> {
    lsn: Lsn,
    offset: u64,
    body: &'a [u8],
}

/// Walk a log image: `visit` every intact record in order until it returns
/// `false`, and return the length of the prefix walked and the LSN the
/// next record gets. A base record sets the LSN of the record after it; a
/// torn or corrupt record ends the walk.
fn walk(buf: &[u8], mut visit: impl FnMut(Framed<'_>) -> bool) -> (u64, Lsn) {
    let mut pos = 0usize;
    let mut lsn: Lsn = 1;
    while pos + 8 <= buf.len() {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        let Some(body) = buf.get(pos + 8..pos + 8 + len) else { break };
        if body.is_empty() || crc32(body) != crc {
            break;
        }
        if body[0] == T_BASE {
            match body.get(1..9) {
                Some(next) if body.len() == 9 => lsn = u64::from_le_bytes(next.try_into().unwrap()),
                _ => break,
            }
        } else if visit(Framed { lsn, offset: pos as u64, body }) {
            lsn += 1;
        } else {
            break;
        }
        pos += 8 + len;
    }
    (pos as u64, lsn)
}

/// Where a rewrite of the log at `path` is staged. A leftover one (the
/// process died mid-rewrite) is removed at open and never read.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Durability level for commit forcing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Flush the userspace buffer to the OS (journaled-equivalent for the
    /// Table 4 comparison; crash of the *process* loses nothing).
    Buffer,
    /// Additionally fsync (survives OS crash). Slower; off by default in
    /// benches to keep insert costs comparable across systems.
    Fsync,
}

/// A record is marked at least every this many bytes, so a cut finds its
/// record's offset by reading at most this much of the log.
const MARK_SPACING: u64 = 64 << 10;

/// The log file's end and everything that moves with it, under one lock:
/// LSNs are handed out in file order, and a transaction's first LSN is
/// recorded in the step that appends it.
struct Tail {
    out: BufWriter<File>,
    /// LSN of the file's first record (the next LSN while it has none).
    base: Lsn,
    next_lsn: Lsn,
    /// The file's length, bytes still buffered included.
    len: u64,
    /// `(lsn, offset)` of the first record and then of a record every
    /// [`MARK_SPACING`] bytes or so, ascending.
    marks: Vec<(Lsn, u64)>,
    /// The first LSN of every transaction that has logged an update and
    /// has not yet committed or aborted.
    active: HashMap<TxnId, Lsn>,
}

impl Tail {
    /// The offset of record `lsn` (`base <= lsn <= next_lsn`; `next_lsn` is
    /// the end), read from the log after the nearest mark below it. The
    /// buffer must be flushed.
    fn offset_of(&self, path: &Path, lsn: Lsn) -> Result<u64> {
        if lsn >= self.next_lsn {
            return Ok(self.len);
        }
        let at = self.marks.partition_point(|&(l, _)| l <= lsn) - 1;
        let (mut cur, mut offset) = self.marks[at];
        let end = self.marks.get(at + 1).map_or(self.len, |&(_, o)| o);
        let mut span = vec![0u8; (end - offset) as usize];
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut span)?;
        let mut pos = 0usize;
        while cur < lsn {
            let len = span
                .get(pos..pos + 4)
                .ok_or_else(|| TxnError::Corrupt(format!("no record {lsn} in the log")))?;
            pos += 8 + u32::from_le_bytes(len.try_into().unwrap()) as usize;
            cur += 1;
        }
        offset += pos as u64;
        Ok(offset)
    }
}

/// The append-only log manager for one node.
pub struct LogManager {
    path: PathBuf,
    tail: Mutex<Tail>,
    next_txn: AtomicU64,
    durability: Durability,
    appends: Counter,
    forces: Counter,
    bytes: Gauge,
    truncations: Counter,
    truncated_bytes: Counter,
}

impl LogManager {
    /// Open (creating if needed) the log at `path`. A torn tail is cut off,
    /// so new records follow the last intact one; a rewrite the previous
    /// process left half done is discarded; transaction ids go on after
    /// the highest the log holds, so a commit after the reopen never
    /// claims an update an earlier process left uncommitted.
    pub fn open(path: &Path, durability: Durability) -> Result<LogManager> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let _ = std::fs::remove_file(temp_path(path));
        let mut buf = Vec::new();
        let mut file = OpenOptions::new().create(true).read(true).append(true).open(path)?;
        file.read_to_end(&mut buf)?;
        let mut marks: Vec<(Lsn, u64)> = Vec::new();
        let mut last_txn: TxnId = 0;
        let (len, next_lsn) = walk(&buf, |r| {
            if marks.last().is_none_or(|&(_, o)| r.offset - o >= MARK_SPACING) {
                marks.push((r.lsn, r.offset));
            }
            // Every record but a flush starts with its transaction id.
            if let (false, Some(txn)) = (r.body[0] == T_FLUSH, r.body.get(1..9)) {
                last_txn = last_txn.max(u64::from_le_bytes(txn.try_into().unwrap()));
            }
            true
        });
        if len < buf.len() as u64 {
            file.set_len(len)?;
        }
        let base = marks.first().map_or(next_lsn, |&(l, _)| l);
        let bytes = Gauge::new();
        bytes.set(len as i64);
        Ok(LogManager {
            path: path.to_path_buf(),
            tail: Mutex::new(Tail {
                out: BufWriter::new(file),
                base,
                next_lsn,
                len,
                marks,
                active: HashMap::new(),
            }),
            next_txn: AtomicU64::new(last_txn + 1),
            durability,
            appends: Counter::new(),
            forces: Counter::new(),
            bytes,
            truncations: Counter::new(),
            truncated_bytes: Counter::new(),
        })
    }

    /// Log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Allocate a fresh transaction id.
    pub fn begin(&self) -> TxnId {
        self.next_txn.fetch_add(1, Ordering::Relaxed)
    }

    /// Append a record, returning its LSN. WAL rule: callers append the
    /// Update record *before* applying the operation to the index. A
    /// transaction's first Update makes it active until its Commit or
    /// Abort.
    pub fn append(&self, rec: &LogRecord) -> Result<Lsn> {
        let bytes = rec.encode();
        let mut t = self.tail.lock();
        t.out.write_all(&bytes)?;
        let lsn = t.next_lsn;
        t.next_lsn += 1;
        let at = t.len;
        if t.marks.last().is_none_or(|&(_, o)| at - o >= MARK_SPACING) {
            t.marks.push((lsn, at));
        }
        t.len += bytes.len() as u64;
        match rec {
            LogRecord::Update { txn, .. } => {
                t.active.entry(*txn).or_insert(lsn);
            }
            LogRecord::Commit { txn } | LogRecord::Abort { txn } => {
                t.active.remove(txn);
            }
            LogRecord::Flush { .. } => {}
        }
        self.bytes.set(t.len as i64);
        drop(t);
        self.appends.inc();
        Ok(lsn)
    }

    /// Append a commit record and force the log (no-force: the data is
    /// not).
    pub fn commit(&self, txn: TxnId) -> Result<Lsn> {
        let lsn = self.append(&LogRecord::Commit { txn })?;
        self.force()?;
        Ok(lsn)
    }

    /// End a transaction that failed: an Abort record when it logged an
    /// update (recovery then skips its updates), nothing otherwise.
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        if self.tail.lock().active.contains_key(&txn) {
            self.append(&LogRecord::Abort { txn })?;
        }
        Ok(())
    }

    /// Force buffered records to the OS (and disk under `Fsync`).
    pub fn force(&self) -> Result<()> {
        let mut t = self.tail.lock();
        t.out.flush()?;
        if self.durability == Durability::Fsync {
            t.out.get_ref().sync_data()?;
        }
        self.forces.inc();
        Ok(())
    }

    /// The lowest LSN an update not yet applied to its index can have: the
    /// first LSN of the oldest active transaction, else the next LSN.
    pub fn floor(&self) -> Lsn {
        let t = self.tail.lock();
        t.active.values().copied().min().unwrap_or(t.next_lsn)
    }

    /// The log's length in bytes, buffered records included.
    pub fn size_bytes(&self) -> u64 {
        self.tail.lock().len
    }

    /// How many bytes of the log lie below record `lsn`: what a cut there
    /// would drop.
    pub fn bytes_below(&self, lsn: Lsn) -> Result<u64> {
        let mut t = self.tail.lock();
        if lsn <= t.base {
            return Ok(0);
        }
        t.out.flush()?;
        t.offset_of(&self.path, lsn)
    }

    /// Records appended since open (not persisted across reopen).
    pub fn append_count(&self) -> u64 {
        self.appends.get()
    }

    /// Log forces (buffer flushes / fsync-equivalents) since open.
    pub fn force_count(&self) -> u64 {
        self.forces.get()
    }

    /// Register the log's metrics under `{prefix}.`: the `appends`,
    /// `forces`, `truncations` and `truncated_bytes` counters and the
    /// `bytes` gauge (the log's length).
    pub fn register_into(&self, reg: &MetricsRegistry, prefix: &str) {
        reg.register_counter(&format!("{prefix}.appends"), &self.appends);
        reg.register_counter(&format!("{prefix}.forces"), &self.forces);
        reg.register_gauge(&format!("{prefix}.bytes"), &self.bytes);
        reg.register_counter(&format!("{prefix}.truncations"), &self.truncations);
        reg.register_counter(&format!("{prefix}.truncated_bytes"), &self.truncated_bytes);
    }

    /// Read every intact record (with LSNs) from a log file; a torn tail is
    /// tolerated (truncated/corrupt trailing records are dropped).
    pub fn read_all_records(path: &Path) -> Result<Vec<(Lsn, LogRecord)>> {
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        let mut out = Vec::new();
        walk(&buf, |r| match LogRecord::decode(r.body) {
            Ok(rec) => {
                out.push((r.lsn, rec));
                true
            }
            Err(_) => false,
        });
        Ok(out)
    }

    /// Drop every record below `cut` (clamped to the next LSN): write a
    /// base record naming `cut` and then the records from `cut` on to a
    /// temporary file, sync it, and rename it over the log — all under the
    /// writer lock, so no append lands in between. A crash before the
    /// rename leaves the old log and a temporary file the next open
    /// removes; after it, the cut log. Returns the bytes dropped.
    pub fn truncate_below(&self, cut: Lsn) -> Result<u64> {
        let mut t = self.tail.lock();
        let cut = cut.min(t.next_lsn);
        if cut <= t.base {
            return Ok(0);
        }
        t.out.flush()?;
        let from = t.offset_of(&self.path, cut)?;
        let base = encode_base(cut);
        let tmp = temp_path(&self.path);
        let mut out = BufWriter::new(File::create(&tmp)?);
        out.write_all(&base)?;
        if cfg!(test) && CRASH_BEFORE_TAIL.with(|c| c.get()) {
            out.flush()?;
            return Err(TxnError::Io(std::io::Error::other("crash before the tail is copied")));
        }
        let mut src = File::open(&self.path)?;
        src.seek(SeekFrom::Start(from))?;
        std::io::copy(&mut src.take(t.len - from), &mut out)?;
        out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            // Makes the rename durable where the file system allows it.
            let _ = File::open(dir).and_then(|d| d.sync_all());
        }
        t.out = BufWriter::new(OpenOptions::new().append(true).open(&self.path)?);
        let shift = from - base.len() as u64;
        let kept = t.marks.iter().filter(|&&(l, _)| l > cut).map(|&(l, o)| (l, o - shift));
        let mut marks: Vec<(Lsn, u64)> = Vec::with_capacity(t.marks.len());
        if cut < t.next_lsn {
            marks.push((cut, base.len() as u64));
        }
        marks.extend(kept);
        t.marks = marks;
        t.base = cut;
        t.len -= shift;
        self.bytes.set(t.len as i64);
        self.truncations.inc();
        self.truncated_bytes.add(shift);
        Ok(shift)
    }
}

thread_local! {
    /// Set by the tests to make this thread's next rewrite stop after the
    /// base record, as a crash would; read only in test builds.
    static CRASH_BEFORE_TAIL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_testkit::TempDir;

    fn upd(txn: TxnId, k: u8) -> LogRecord {
        LogRecord::Update {
            txn,
            dataset: 1,
            index: 0,
            is_delete: false,
            key: vec![k],
            value: vec![k, k],
        }
    }

    /// The bit-at-a-time CRC-32 the table replaced: the reference.
    fn bitwise_crc32(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    fn lsns(path: &Path) -> Vec<Lsn> {
        LogManager::read_all_records(path).unwrap().iter().map(|(l, _)| *l).collect()
    }

    #[test]
    fn crc32_matches_the_known_answer_and_the_bitwise_reference() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        use asterix_testkit::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(7);
        for len in [1usize, 7, 8, 9, 255, 256, 4097] {
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(crc32(&data), bitwise_crc32(&data), "{len} bytes");
        }
        // A log framed with the bitwise CRC reads back and recovers.
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let mut image = Vec::new();
        for rec in [upd(1, 1), LogRecord::Commit { txn: 1 }] {
            let body = rec.encode()[8..].to_vec();
            image.extend_from_slice(&(body.len() as u32).to_le_bytes());
            image.extend_from_slice(&bitwise_crc32(&body).to_le_bytes());
            image.extend_from_slice(&body);
        }
        std::fs::write(&path, &image).unwrap();
        let recs = LogManager::read_all_records(&path).unwrap();
        assert_eq!(recs, vec![(1, upd(1, 1)), (2, LogRecord::Commit { txn: 1 })]);
    }

    #[test]
    fn append_and_read_back() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        let t = log.begin();
        log.append(&upd(t, 1)).unwrap();
        log.append(&upd(t, 2)).unwrap();
        log.commit(t).unwrap();
        let recs = LogManager::read_all_records(&path).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].0, 1);
        assert_eq!(recs[2].1, LogRecord::Commit { txn: t });
    }

    #[test]
    fn wal_counters_track_appends_and_forces() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        let t = log.begin();
        log.append(&upd(t, 1)).unwrap();
        log.append(&upd(t, 2)).unwrap();
        log.commit(t).unwrap(); // one append + one force
        assert_eq!(log.append_count(), 3);
        assert_eq!(log.force_count(), 1);

        let reg = MetricsRegistry::new();
        log.register_into(&reg, "wal.node0");
        log.force().unwrap();
        match reg.get("wal.node0.forces") {
            Some(asterix_obs::Metric::Counter(c)) => assert_eq!(c.get(), 2),
            other => panic!("wrong metric: {other:?}"),
        }
        let gauge = |name: &str| match reg.get(name) {
            Some(asterix_obs::Metric::Gauge(g)) => g.get() as u64,
            other => panic!("wrong metric: {other:?}"),
        };
        let counter = |name: &str| match reg.get(name) {
            Some(asterix_obs::Metric::Counter(c)) => c.get(),
            other => panic!("wrong metric: {other:?}"),
        };
        let on_disk = || std::fs::metadata(&path).unwrap().len();
        assert_eq!(gauge("wal.node0.bytes"), on_disk());
        assert_eq!(counter("wal.node0.truncations"), 0);
        let before = on_disk();
        let dropped = log.truncate_below(log.floor()).unwrap();
        assert_eq!(gauge("wal.node0.bytes"), on_disk());
        assert_eq!(counter("wal.node0.truncations"), 1);
        assert_eq!(counter("wal.node0.truncated_bytes"), dropped);
        assert_eq!(before - dropped, on_disk());
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        {
            let log = LogManager::open(&path, Durability::Buffer).unwrap();
            log.append(&upd(1, 1)).unwrap();
            log.commit(1).unwrap();
        }
        // Append garbage simulating a torn write.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[42u8; 7]).unwrap();
        }
        let recs = LogManager::read_all_records(&path).unwrap();
        assert_eq!(recs.len(), 2);
        // Reopening cuts the torn bytes off, so what is appended next
        // follows the last intact record and reads back.
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        assert_eq!(log.append(&upd(2, 2)).unwrap(), 3);
        log.force().unwrap();
        assert_eq!(lsns(&path), vec![1, 2, 3]);
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        {
            let log = LogManager::open(&path, Durability::Buffer).unwrap();
            log.append(&upd(1, 1)).unwrap();
            log.append(&upd(1, 2)).unwrap();
            log.force().unwrap();
        }
        // Flip a byte in the second record's body.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let recs = LogManager::read_all_records(&path).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn reopen_continues_lsns() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        {
            let log = LogManager::open(&path, Durability::Buffer).unwrap();
            log.append(&upd(1, 1)).unwrap();
            log.force().unwrap();
        }
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        let lsn = log.append(&LogRecord::Commit { txn: 1 }).unwrap();
        assert_eq!(lsn, 2);
    }

    #[test]
    fn transaction_ids_go_on_after_a_reopen() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let left = {
            let log = LogManager::open(&path, Durability::Buffer).unwrap();
            let (t1, t2) = (log.begin(), log.begin());
            log.append(&upd(t2, 2)).unwrap();
            log.commit(t1).unwrap();
            log.append(&LogRecord::Flush { dataset: 9, index: 9, durable_lsn: 99 }).unwrap();
            log.force().unwrap();
            t2
        };
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        assert!(log.begin() > left);
    }

    #[test]
    fn flush_records_roundtrip() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        log.append(&LogRecord::Flush { dataset: 3, index: 1, durable_lsn: 17 }).unwrap();
        log.force().unwrap();
        let recs = LogManager::read_all_records(&path).unwrap();
        assert_eq!(recs[0].1, LogRecord::Flush { dataset: 3, index: 1, durable_lsn: 17 });
    }

    /// A cut keeps every record from the cut on under its LSN, and the
    /// LSNs go on rising after it and after a reopen, down to a log cut
    /// to nothing but its base record.
    #[test]
    fn truncate_below_keeps_lsns_rising() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        for t in 1..=4 {
            log.append(&upd(t, t as u8)).unwrap();
            log.commit(t).unwrap();
        }
        let dropped = log.truncate_below(5).unwrap();
        assert!(dropped > 0);
        let recs = LogManager::read_all_records(&path).unwrap();
        assert_eq!(recs.iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![5, 6, 7, 8]);
        assert_eq!(recs[0].1, upd(3, 3));
        assert_eq!(log.append(&upd(5, 5)).unwrap(), 9);
        log.force().unwrap();
        assert_eq!(lsns(&path), vec![5, 6, 7, 8, 9]);
        // A cut at or below the base is a no-op.
        assert_eq!(log.truncate_below(3).unwrap(), 0);
        drop(log);
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        assert_eq!(log.append(&LogRecord::Commit { txn: 5 }).unwrap(), 10);
        // Cut to nothing: the base record alone, and the LSNs still rise.
        log.truncate_below(log.floor()).unwrap();
        assert!(LogManager::read_all_records(&path).unwrap().is_empty());
        assert!(log.size_bytes() < 20, "{}", log.size_bytes());
        drop(log);
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        assert_eq!(log.append(&upd(6, 6)).unwrap(), 11);
        log.force().unwrap();
        assert_eq!(lsns(&path), vec![11]);
    }

    /// A cut inside a long log finds its record from the nearest mark, and
    /// `bytes_below` is what the cut drops.
    #[test]
    fn cut_inside_a_long_log_lands_on_its_record() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        let big = |txn: TxnId| LogRecord::Update {
            txn,
            dataset: 1,
            index: 0,
            is_delete: false,
            key: txn.to_le_bytes().to_vec(),
            value: vec![7; 1000],
        };
        for t in 1..=300 {
            log.append(&big(t)).unwrap();
        }
        log.force().unwrap();
        let size = log.size_bytes();
        assert!(size > 4 * MARK_SPACING, "{size}");
        let below = log.bytes_below(200).unwrap();
        assert_eq!(below, size / 300 * 199);
        assert_eq!(log.bytes_below(301).unwrap(), size);
        assert_eq!(log.bytes_below(1).unwrap(), 0);
        let dropped = log.truncate_below(200).unwrap();
        assert_eq!(dropped + encode_base(200).len() as u64, below);
        let recs = LogManager::read_all_records(&path).unwrap();
        assert_eq!(recs.len(), 101);
        assert_eq!(recs[0], (200, big(200)));
        // Later cuts find their records in the cut log's marks too.
        log.truncate_below(290).unwrap();
        assert_eq!(LogManager::read_all_records(&path).unwrap()[0], (290, big(290)));
    }

    /// The floor is the first LSN of the oldest active transaction; commit
    /// and abort end a transaction, and an abort with no update logs
    /// nothing. A cut at the floor keeps the active transaction's records.
    #[test]
    fn floor_is_the_oldest_active_transactions_first_lsn() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        let (t1, t2) = (log.begin(), log.begin());
        assert_eq!(log.floor(), 1);
        let l1 = log.append(&upd(t1, 1)).unwrap();
        let l2 = log.append(&upd(t2, 2)).unwrap();
        log.append(&upd(t1, 3)).unwrap();
        assert_eq!(log.floor(), l1);
        log.commit(t1).unwrap();
        assert_eq!(log.floor(), l2);
        log.truncate_below(log.floor()).unwrap();
        assert_eq!(LogManager::read_all_records(&path).unwrap()[0], (l2, upd(t2, 2)));
        let appended = log.append_count();
        log.abort(log.begin()).unwrap();
        assert_eq!(log.append_count(), appended, "an abort with no update logs nothing");
        log.abort(t2).unwrap();
        let next = log.append(&LogRecord::Commit { txn: 99 }).unwrap();
        assert_eq!(log.floor(), next + 1);
        log.force().unwrap();
        let recs = LogManager::read_all_records(&path).unwrap();
        assert!(recs.contains(&(next - 1, LogRecord::Abort { txn: t2 })), "{recs:?}");
    }

    /// A temporary file left by a rewrite the process did not finish is
    /// removed at open and never read.
    #[test]
    fn a_stale_temp_file_is_removed_at_open_and_never_read() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let other = dir.path().join("other.log");
        {
            let log = LogManager::open(&path, Durability::Buffer).unwrap();
            log.append(&upd(1, 1)).unwrap();
            log.commit(1).unwrap();
            let stale = LogManager::open(&other, Durability::Buffer).unwrap();
            for t in 1..=5 {
                stale.append(&upd(t, 9)).unwrap();
            }
            stale.force().unwrap();
        }
        std::fs::rename(&other, temp_path(&path)).unwrap();
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        assert!(!temp_path(&path).exists());
        assert_eq!(
            LogManager::read_all_records(&path).unwrap(),
            vec![(1, upd(1, 1)), (2, LogRecord::Commit { txn: 1 })]
        );
        assert_eq!(log.append(&upd(2, 2)).unwrap(), 3);
    }

    /// A rewrite that dies after its base record, before the tail is
    /// copied, leaves the log whole: the half-written temporary file never
    /// replaces it, and the next open removes it.
    #[test]
    fn a_half_written_rewrite_never_replaces_the_log() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        for t in 1..=3 {
            log.append(&upd(t, t as u8)).unwrap();
            log.commit(t).unwrap();
        }
        let before = LogManager::read_all_records(&path).unwrap();
        CRASH_BEFORE_TAIL.with(|c| c.set(true));
        assert!(log.truncate_below(3).is_err());
        CRASH_BEFORE_TAIL.with(|c| c.set(false));
        assert!(temp_path(&path).exists());
        assert_eq!(LogManager::read_all_records(&path).unwrap(), before);
        // The log goes on where it was, and a reopen discards the stage.
        assert_eq!(log.append(&upd(4, 4)).unwrap(), 7);
        log.force().unwrap();
        drop(log);
        let log = LogManager::open(&path, Durability::Buffer).unwrap();
        assert!(!temp_path(&path).exists());
        assert_eq!(lsns(&path), vec![1, 2, 3, 4, 5, 6, 7]);
        log.truncate_below(3).unwrap();
        assert_eq!(lsns(&path), vec![3, 4, 5, 6, 7]);
    }
}
