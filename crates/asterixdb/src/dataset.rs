//! Stored Datasets: hash-partitioned primary LSM B+-trees plus node-local
//! secondary indexes (§2.2, §4.3), with record-level transactions (§4.4).
//!
//! Every Dataset is stored as a B+-tree keyed on primary key, hash-
//! partitioned across the cluster's storage partitions; secondary indexes
//! are partitioned the same way so their entries point at records in the
//! co-located primary partition ("enabling secondary index lookups without
//! an additional network hop"). Inserts and deletes are record-level
//! transactions: an X lock on (dataset, primary key), one WAL record per
//! LSM-index update, no-steal/no-force commit.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use asterix_adm::value::Rectangle;
use asterix_adm::{colschema, serde as adm_serde, Datatype, TypeRegistry, Value};
use asterix_metadata::{DatasetMeta, IndexKindMeta, IndexMeta};
use asterix_storage::btree::{LsmBTree, ValueBound};
use asterix_storage::inverted::{InvertedIndex, Tokenizer};
use asterix_storage::keycodec;
use asterix_storage::lsm::{LsmConfig, LsmObserver, ScanValue};
use asterix_storage::rtree::LsmRTree;
use asterix_storage::{
    BufferCache, ColumnarOptions, ColumnarStats, Projection, RowCodec, ScanBound,
};
use asterix_txn::locks::LockMode;
use asterix_txn::wal::{LogManager, LogRecord};
use asterix_txn::LockManager;
use parking_lot::RwLock;

use crate::cluster::ClusterConfig;
use crate::error::{AsterixError, Result};

/// Encode (index id, partition) into the WAL's 32-bit index field so flush
/// watermarks are tracked per index *partition*.
pub fn wal_index_code(index_id: u32, partition: usize) -> u32 {
    (index_id << 8) | (partition as u32 & 0xFF)
}

/// Decode the WAL index field.
pub fn wal_index_decode(code: u32) -> (u32, usize) {
    (code >> 8, (code & 0xFF) as usize)
}

/// Extract a (possibly dotted) field path from a record.
pub fn extract_path(record: &Value, path: &str) -> Value {
    let mut cur = record.clone();
    for part in path.split('.') {
        cur = cur.field(part);
    }
    cur
}

/// [`RowCodec`] for typed-encoded primary-index rows: translates between
/// the schema-aware stored encoding and the self-describing encoding the
/// columnar shredder understands. Rows that fail either direction (or
/// fail the builder's byte-roundtrip check) ride the spill path verbatim,
/// so columnar components always reproduce the exact stored bytes.
pub struct TypedRowCodec {
    registry: TypeRegistry,
    datatype: Datatype,
}

impl RowCodec for TypedRowCodec {
    fn to_self_describing(&self, stored: &[u8]) -> Option<Vec<u8>> {
        let v = adm_serde::decode_typed(&self.registry, stored, &self.datatype).ok()?;
        Some(adm_serde::encode(&v))
    }

    fn to_stored(&self, sd: &[u8]) -> Option<Vec<u8>> {
        let v = adm_serde::decode(sd).ok()?;
        adm_serde::encode_typed(&self.registry, &v, &self.datatype).ok()
    }
}

/// Observer that writes LSM flush watermarks into the WAL (§4.4: recovery
/// replays only operations newer than the last flushed component).
struct FlushLogger {
    wal: Arc<LogManager>,
    dataset: u32,
    index_code: u32,
    last_lsn: Arc<AtomicU64>,
}

impl LsmObserver for FlushLogger {
    fn on_seal(&self) -> u64 {
        // Captured synchronously when the memory component is sealed, so the
        // watermark covers exactly the operations in the sealed component —
        // writes racing with the (now background) flush are not claimed
        // durable before their component reaches disk.
        self.last_lsn.load(Ordering::SeqCst)
    }

    fn on_flush(&self, _path: &std::path::Path, _max_seq: u64, watermark: u64) {
        let _ = self.wal.append(&LogRecord::Flush {
            dataset: self.dataset,
            index: self.index_code,
            durable_lsn: watermark,
        });
        let _ = self.wal.force();
    }
}

/// One partition of a secondary index.
pub enum SecondaryPartition {
    BTree(LsmBTree),
    RTree(LsmRTree),
    Inverted(InvertedIndex),
}

/// A secondary index across all partitions.
pub struct SecondaryIndexRuntime {
    pub meta: IndexMeta,
    /// Index id within the dataset (primary = 0, secondaries from 1).
    pub id: u32,
    pub partitions: Vec<SecondaryPartition>,
    last_lsns: Vec<Arc<AtomicU64>>,
}

/// A fully materialized stored dataset.
pub struct DatasetRuntime {
    /// Stable dataset id (creation order), used in WAL records.
    pub id: u32,
    pub meta: DatasetMeta,
    pub datatype: Datatype,
    pub registry: TypeRegistry,
    cfg: ClusterConfig,
    cache: Arc<BufferCache>,
    pub primary: Vec<LsmBTree>,
    primary_last_lsns: Vec<Arc<AtomicU64>>,
    pub secondaries: RwLock<Vec<Arc<SecondaryIndexRuntime>>>,
    locks: Arc<LockManager>,
    wals: Vec<Arc<LogManager>>,
    /// Next auto-generated key (datasets declared `autogenerated`).
    next_auto_key: AtomicI64,
    /// On-disk directory name: `{name}#{id}`, so a drop + re-create under
    /// the same name never sees the old incarnation's components (and DDL
    /// replay across restarts maps each incarnation to its own storage).
    dir_name: String,
}

impl DatasetRuntime {
    /// Open (or create) the dataset's storage across all partitions.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        id: u32,
        meta: DatasetMeta,
        datatype: Datatype,
        registry: TypeRegistry,
        cfg: &ClusterConfig,
        cache: Arc<BufferCache>,
        locks: Arc<LockManager>,
        wals: Vec<Arc<LogManager>>,
        columnar_stats: Arc<ColumnarStats>,
    ) -> Result<Arc<DatasetRuntime>> {
        let nparts = cfg.partitions();
        let dir_name = format!("{}#{id}", meta.name);
        let mut primary = Vec::with_capacity(nparts);
        let mut primary_last_lsns = Vec::with_capacity(nparts);
        // Primary indexes store whole records and flush them column-major
        // when the data's schema is stable; the options are supplied even
        // with the knob off so existing columnar components stay readable.
        let codec: Arc<dyn RowCodec> =
            Arc::new(TypedRowCodec { registry: registry.clone(), datatype: datatype.clone() });
        let mut columnar = ColumnarOptions::new(codec);
        columnar.enabled = !cfg.disable_columnar;
        columnar.stats = columnar_stats;
        for p in 0..nparts {
            let dir = cfg.index_dir(p, &meta.dataverse, &dir_name, "primary");
            let last = Arc::new(AtomicU64::new(0));
            let observer = Arc::new(FlushLogger {
                wal: Arc::clone(&wals[cfg.node_of(p)]),
                dataset: id,
                index_code: wal_index_code(0, p),
                last_lsn: Arc::clone(&last),
            });
            let config = LsmConfig { columnar: Some(columnar.clone()), ..Self::lsm_config(cfg) };
            primary.push(LsmBTree::open(
                &dir,
                meta.primary_key.len(),
                config,
                Arc::clone(&cache),
                observer,
            )?);
            primary_last_lsns.push(last);
        }
        let ds = Arc::new(DatasetRuntime {
            id,
            meta: meta.clone(),
            datatype,
            registry,
            cfg: cfg.clone(),
            cache,
            primary,
            primary_last_lsns,
            secondaries: RwLock::new(Vec::new()),
            locks,
            wals,
            next_auto_key: AtomicI64::new(1),
            dir_name,
        });
        // Materialize declared secondary indexes.
        for (i, ix) in meta.indexes.iter().enumerate() {
            ds.open_secondary(i as u32 + 1, ix.clone())?;
        }
        Ok(ds)
    }

    /// Base LSM configuration — row-major (secondary indexes store keys
    /// or posting lists, which have nothing to shred).
    fn lsm_config(cfg: &ClusterConfig) -> LsmConfig {
        LsmConfig {
            mem_budget: cfg.mem_component_budget,
            page_size: asterix_storage::cache::PAGE_SIZE,
            bloom_fpp: 0.01,
            merge_policy: cfg.merge_policy.clone(),
            max_frozen: 2,
            columnar: None,
        }
    }

    fn open_secondary(&self, id: u32, meta: IndexMeta) -> Result<()> {
        let nparts = self.cfg.partitions();
        let mut partitions = Vec::with_capacity(nparts);
        let mut last_lsns = Vec::with_capacity(nparts);
        for p in 0..nparts {
            let dir = self.cfg.index_dir(p, &self.meta.dataverse, &self.dir_name, &meta.name);
            let last = Arc::new(AtomicU64::new(0));
            let observer = Arc::new(FlushLogger {
                wal: Arc::clone(&self.wals[self.cfg.node_of(p)]),
                dataset: self.id,
                index_code: wal_index_code(id, p),
                last_lsn: Arc::clone(&last),
            });
            let part = match &meta.kind {
                IndexKindMeta::BTree => SecondaryPartition::BTree(LsmBTree::open(
                    &dir,
                    meta.fields.len(),
                    Self::lsm_config(&self.cfg),
                    Arc::clone(&self.cache),
                    observer,
                )?),
                IndexKindMeta::RTree => SecondaryPartition::RTree(LsmRTree::open(
                    &dir,
                    self.cfg.mem_component_budget,
                    Arc::clone(&self.cache),
                )?),
                IndexKindMeta::Keyword => SecondaryPartition::Inverted(InvertedIndex::open(
                    &dir,
                    Tokenizer::Keyword,
                    Self::lsm_config(&self.cfg),
                    Arc::clone(&self.cache),
                    observer,
                )?),
                IndexKindMeta::NGram(k) => SecondaryPartition::Inverted(InvertedIndex::open(
                    &dir,
                    Tokenizer::NGram(*k),
                    Self::lsm_config(&self.cfg),
                    Arc::clone(&self.cache),
                    observer,
                )?),
            };
            partitions.push(part);
            last_lsns.push(last);
        }
        self.secondaries.write().push(Arc::new(SecondaryIndexRuntime {
            meta,
            id,
            partitions,
            last_lsns,
        }));
        Ok(())
    }

    /// Create a new secondary index and backfill it from existing records.
    pub fn create_index(&self, meta: IndexMeta) -> Result<()> {
        let id = self.secondaries.read().len() as u32 + 1;
        self.open_secondary(id, meta.clone())?;
        // Backfill (bulk, outside record transactions — index build).
        let ix = Arc::clone(self.secondaries.read().last().unwrap());
        for p in 0..self.cfg.partitions() {
            let records = self.scan_partition(p)?;
            for r in records {
                let pk = self.pk_of(&r)?;
                self.apply_secondary(&ix, p, &r, &pk, false)?;
            }
        }
        Ok(())
    }

    /// Drop a secondary index.
    pub fn drop_index(&self, name: &str) -> Result<()> {
        let mut secs = self.secondaries.write();
        let before = secs.len();
        secs.retain(|s| s.meta.name != name);
        if secs.len() == before {
            return Err(AsterixError::Catalog(format!("unknown index {name}")));
        }
        Ok(())
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.primary.len()
    }

    /// Which partition owns a primary key.
    pub fn partition_of(&self, pk: &[Value]) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in pk {
            h ^= v.stable_hash();
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.partitions() as u64) as usize
    }

    /// Extract and coerce the primary key of a record.
    pub fn pk_of(&self, record: &Value) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(self.meta.primary_key.len());
        for f in &self.meta.primary_key {
            let v = extract_path(record, f);
            if v.is_unknown() {
                return Err(AsterixError::Execution(format!(
                    "record is missing primary key field '{f}'"
                )));
            }
            out.push(v);
        }
        Ok(out)
    }

    /// Allocate the next auto-generated key, skipping past any keys already
    /// present (replay/restart safety: seed from the stored maximum once).
    fn allocate_auto_key(&self) -> Result<i64> {
        loop {
            let candidate = self.next_auto_key.fetch_add(1, Ordering::SeqCst);
            let probe = self.coerce_pk(&[Value::Int64(candidate)]);
            let p = self.partition_of(&probe);
            if self.primary[p].get(&probe)?.is_none() {
                return Ok(candidate);
            }
        }
    }

    /// Coerce a probe key to the primary key's declared types (so int64
    /// literals match int32-typed keys).
    pub fn coerce_pk(&self, pk: &[Value]) -> Vec<Value> {
        self.coerce_pk_as(self.resolved_record_type().as_deref(), pk)
    }

    /// [`Self::coerce_pk`] against an already resolved record type.
    fn coerce_pk_as(&self, rt: Option<&asterix_adm::RecordType>, pk: &[Value]) -> Vec<Value> {
        let Some(rt) = rt else { return pk.to_vec() };
        self.meta
            .primary_key
            .iter()
            .zip(pk)
            .map(|(f, v)| match rt.field(f) {
                Some(ft) => self.registry.coerce(v, &ft.ty).unwrap_or_else(|_| v.clone()),
                None => v.clone(),
            })
            .collect()
    }

    /// The dataset's record type — the `Arc` its [`Datatype::Record`]
    /// already holds, not a copy: this sits on every key coercion.
    fn resolved_record_type(&self) -> Option<Arc<asterix_adm::RecordType>> {
        match self.registry.resolve(&self.datatype) {
            Ok(Datatype::Record(rt)) => Some(rt),
            _ => None,
        }
    }

    /// Coerce a probe key for a secondary index field.
    pub fn coerce_secondary_key(&self, index: &IndexMeta, key: &Value) -> Value {
        let Some(rt) = self.resolved_record_type() else { return key.clone() };
        let Some(field) = index.fields.first() else { return key.clone() };
        // Only top-level fields get declared-type coercion; dotted paths
        // walk nested records.
        match rt.field(field) {
            Some(ft) => self.registry.coerce(key, &ft.ty).unwrap_or_else(|_| key.clone()),
            None => key.clone(),
        }
    }

    // -- record-level transactions -------------------------------------------

    /// Insert one record (one record-level ACID transaction). Datasets
    /// declared with `primary key <f> autogenerated` fill in a fresh key
    /// when the record omits it (the paper's next-release feature).
    pub fn insert(&self, record: &Value) -> Result<()> {
        let generated;
        let record = if self.meta.autogenerated
            && self.meta.primary_key.len() == 1
            && extract_path(record, &self.meta.primary_key[0]).is_unknown()
        {
            let mut rec = record
                .as_record()
                .ok_or_else(|| AsterixError::Execution("insert expects a record".into()))?
                .clone();
            let key = self.allocate_auto_key()?;
            rec.set(self.meta.primary_key[0].clone(), Value::Int64(key));
            generated = Value::record(rec);
            &generated
        } else {
            record
        };
        self.registry.validate(record, &self.datatype)?;
        let record = self.registry.coerce(record, &self.datatype)?;
        let pk = self.pk_of(&record)?;
        let pk_bytes = keycodec::encode_key(&pk)?;
        let partition = self.partition_of(&pk);
        let node = self.cfg.node_of(partition);
        let wal = &self.wals[node];
        let txn = wal.begin();
        self.locks.lock(txn, &(self.id, pk_bytes.clone()), LockMode::Exclusive)?;
        let result = (|| -> Result<()> {
            // Checked under the record lock: of two sessions inserting one
            // key, the second sees the first's record. Nothing is logged
            // for the loser.
            if self.primary[partition].get(&pk)?.is_some() {
                return Err(AsterixError::Execution(format!(
                    "duplicate primary key {:?} in {}",
                    pk,
                    self.meta.qualified()
                )));
            }
            // Primary index: WAL then apply (write-ahead).
            let value_bytes = adm_serde::encode_typed(&self.registry, &record, &self.datatype)?;
            let lsn = wal.append(&LogRecord::Update {
                txn,
                dataset: self.id,
                index: wal_index_code(0, partition),
                is_delete: false,
                key: pk_bytes.clone(),
                value: value_bytes.clone(),
            })?;
            self.primary_last_lsns[partition].store(lsn, Ordering::SeqCst);
            self.primary[partition].insert(&pk, value_bytes)?;
            // Secondary indexes.
            let secs = self.secondaries.read().clone();
            for ix in &secs {
                self.log_and_apply_secondary(wal, txn, ix, partition, &record, &pk, false)?;
            }
            wal.commit(txn)?;
            Ok(())
        })();
        self.locks.release_all(txn);
        result
    }

    /// Delete by primary key; returns whether a record was removed.
    pub fn delete_by_pk(&self, pk: &[Value]) -> Result<bool> {
        let pk = self.coerce_pk(pk);
        let pk_bytes = keycodec::encode_key(&pk)?;
        let partition = self.partition_of(&pk);
        let node = self.cfg.node_of(partition);
        let wal = &self.wals[node];
        let txn = wal.begin();
        self.locks.lock(txn, &(self.id, pk_bytes.clone()), LockMode::Exclusive)?;
        let result = (|| -> Result<bool> {
            let Some(old_bytes) = self.primary[partition].get(&pk)? else {
                wal.commit(txn)?;
                return Ok(false);
            };
            let old = adm_serde::decode_typed(&self.registry, &old_bytes, &self.datatype)?;
            let lsn = wal.append(&LogRecord::Update {
                txn,
                dataset: self.id,
                index: wal_index_code(0, partition),
                is_delete: true,
                key: pk_bytes.clone(),
                value: Vec::new(),
            })?;
            self.primary_last_lsns[partition].store(lsn, Ordering::SeqCst);
            self.primary[partition].delete(&pk)?;
            let secs = self.secondaries.read().clone();
            for ix in &secs {
                self.log_and_apply_secondary(wal, txn, ix, partition, &old, &pk, true)?;
            }
            wal.commit(txn)?;
            Ok(true)
        })();
        self.locks.release_all(txn);
        result
    }

    fn log_and_apply_secondary(
        &self,
        wal: &Arc<LogManager>,
        txn: asterix_txn::TxnId,
        ix: &Arc<SecondaryIndexRuntime>,
        partition: usize,
        record: &Value,
        pk: &[Value],
        is_delete: bool,
    ) -> Result<()> {
        let Some(field) = ix.meta.fields.first() else { return Ok(()) };
        let fv = extract_path(record, field);
        if fv.is_unknown() {
            return Ok(()); // unknown keys are not indexed
        }
        // Logical log payload: [field value, pk...] (self-describing).
        let mut payload_items = vec![fv.clone()];
        payload_items.extend(pk.iter().cloned());
        let payload = adm_serde::encode(&Value::ordered_list(payload_items));
        let lsn = wal.append(&LogRecord::Update {
            txn,
            dataset: self.id,
            index: wal_index_code(ix.id, partition),
            is_delete,
            key: Vec::new(),
            value: payload,
        })?;
        ix.last_lsns[partition].store(lsn, Ordering::SeqCst);
        self.apply_secondary_value(ix, partition, &fv, pk, is_delete)
    }

    fn apply_secondary(
        &self,
        ix: &Arc<SecondaryIndexRuntime>,
        partition: usize,
        record: &Value,
        pk: &[Value],
        is_delete: bool,
    ) -> Result<()> {
        let Some(field) = ix.meta.fields.first() else { return Ok(()) };
        let fv = extract_path(record, field);
        if fv.is_unknown() {
            return Ok(());
        }
        self.apply_secondary_value(ix, partition, &fv, pk, is_delete)
    }

    fn apply_secondary_value(
        &self,
        ix: &Arc<SecondaryIndexRuntime>,
        partition: usize,
        field_value: &Value,
        pk: &[Value],
        is_delete: bool,
    ) -> Result<()> {
        match &ix.partitions[partition] {
            SecondaryPartition::BTree(t) => {
                let mut composite = vec![field_value.clone()];
                composite.extend(pk.iter().cloned());
                if is_delete {
                    t.delete(&composite)?;
                } else {
                    t.insert(&composite, Vec::new())?;
                }
            }
            SecondaryPartition::RTree(t) => {
                let mbr: Rectangle = asterix_adm::spatial::mbr(field_value)?;
                if is_delete {
                    t.delete(mbr, pk)?;
                } else {
                    t.insert(mbr, pk)?;
                }
            }
            SecondaryPartition::Inverted(t) => {
                if is_delete {
                    t.delete(field_value, pk)?;
                } else {
                    t.insert(field_value, pk)?;
                }
            }
        }
        Ok(())
    }

    // -- recovery redo (no locks/WAL: applied from the log) -------------------

    /// Redo one logical update from the WAL.
    pub fn replay(&self, index_code: u32, key: &[u8], value: &[u8], is_delete: bool) -> Result<()> {
        let (index_id, partition) = wal_index_decode(index_code);
        if index_id == 0 {
            let pk = keycodec::decode_key(key)?;
            if is_delete {
                self.primary[partition].delete(&pk)?;
            } else {
                self.primary[partition].insert(&pk, value.to_vec())?;
            }
            return Ok(());
        }
        let secs = self.secondaries.read().clone();
        let Some(ix) = secs.iter().find(|s| s.id == index_id) else {
            return Ok(()); // index dropped since
        };
        let payload = adm_serde::decode(value)?;
        let items = payload
            .as_list()
            .ok_or_else(|| AsterixError::Execution("corrupt secondary WAL payload".into()))?;
        let (fv, pk) = items
            .split_first()
            .ok_or_else(|| AsterixError::Execution("empty secondary WAL payload".into()))?;
        self.apply_secondary_value(ix, partition, fv, pk, is_delete)
    }

    // -- reads -----------------------------------------------------------------

    /// All records of one partition (decoded).
    pub fn scan_partition(&self, partition: usize) -> Result<Vec<Value>> {
        let mut out = Vec::new();
        let mut err: Option<AsterixError> = None;
        self.primary[partition].range_with(
            &ValueBound::Unbounded,
            &ValueBound::Unbounded,
            |_, bytes| match adm_serde::decode_typed(&self.registry, bytes, &self.datatype) {
                Ok(v) => {
                    out.push(v);
                    true
                }
                Err(e) => {
                    err = Some(e.into());
                    false
                }
            },
        )?;
        match err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Serialized full scan of one partition: every record, whole, as an
    /// encoded single-column tuple in the byte-frame wire format — the
    /// all-fields, no-filter case of [`Self::scan_partition_projected`].
    /// The visitor returns `false` to stop early (e.g. a downstream
    /// consumer closed); early stop is not an error.
    pub fn scan_partition_raw(
        &self,
        partition: usize,
        visit: &mut dyn FnMut(&[u8]) -> bool,
    ) -> Result<()> {
        self.scan_partition_projected(partition, &Projection::all(), visit)
    }

    /// Whether scans may push projections and filters into columnar
    /// components — the `disable_columnar` A/B knob.
    pub fn columnar_scans_enabled(&self) -> bool {
        !self.cfg.disable_columnar
    }

    /// The partition scan: the visitor receives, per surviving record, an
    /// encoded single-column tuple holding a self-describing record of
    /// the projected fields (every field for an all-fields projection).
    /// Rows in columnar components are filtered on raw column bytes and
    /// assembled from just the columns needed, with no `Value` in between;
    /// rows from row-major components, the memory component and spill
    /// runs are decoded and cut down to the same fields (the select above
    /// the scan filters those). Either way the bytes are identical: column
    /// bytes are exact slices of the record's self-describing encoding,
    /// and a whole record spliced from them is put into the field order
    /// `decode_typed` yields.
    pub fn scan_partition_projected(
        &self,
        partition: usize,
        proj: &Projection,
        visit: &mut dyn FnMut(&[u8]) -> bool,
    ) -> Result<()> {
        self.read_partition_projected(partition, ScanBound::ALL, proj, &mut |_, row| visit(row))
    }

    /// The batched primary fetch — the key-list case of
    /// [`Self::scan_partition_projected`], emitting the same tuples through
    /// the same body. `pks` may come in any order and repeat; each is
    /// routed to its owning partition, and a partition's keys are sorted
    /// by their encoding and fetched as one list, so every columnar row
    /// group holding some of them is visited once. The visitor receives
    /// `(position in pks, tuple)` per key whose record exists and survives
    /// `proj`'s filters, in primary-key order within a partition, and
    /// returns `false` to stop early.
    pub fn fetch_projected(
        &self,
        pks: &[Vec<Value>],
        proj: &Projection,
        visit: &mut dyn FnMut(usize, &[u8]) -> bool,
    ) -> Result<()> {
        let record_type = self.resolved_record_type();
        let mut wanted: Vec<Vec<(Vec<u8>, usize)>> = vec![Vec::new(); self.partitions()];
        for (i, pk) in pks.iter().enumerate() {
            let pk = self.coerce_pk_as(record_type.as_deref(), pk);
            wanted[self.partition_of(&pk)].push((keycodec::encode_key(&pk)?, i));
        }
        let mut go = true;
        for (partition, mut wanted) in wanted.into_iter().enumerate() {
            if wanted.is_empty() || !go {
                continue;
            }
            wanted.sort_unstable();
            // The distinct keys, and per requested key where it is in them.
            let mut keys: Vec<Vec<u8>> = Vec::with_capacity(wanted.len());
            let mut askers: Vec<(usize, usize)> = Vec::with_capacity(wanted.len());
            for (key, i) in wanted {
                if keys.last() != Some(&key) {
                    keys.push(key);
                }
                askers.push((keys.len() - 1, i));
            }
            // Rows come back in key order: hand each to everyone who asked.
            let mut next = 0;
            self.read_partition_projected(
                partition,
                ScanBound::Keys(&keys),
                proj,
                &mut |key, row| {
                    while next < askers.len() && keys[askers[next].0].as_slice() < key {
                        next += 1;
                    }
                    while go && next < askers.len() && keys[askers[next].0] == key {
                        go = visit(askers[next].1, row);
                        next += 1;
                    }
                    go
                },
            )?;
        }
        Ok(())
    }

    /// The one projected read of a partition's primary index, over a key
    /// range or a sorted key list: `visit(key, tuple)` per surviving record.
    fn read_partition_projected(
        &self,
        partition: usize,
        bound: ScanBound<'_>,
        proj: &Projection,
        visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<()> {
        let record_type = self.resolved_record_type();
        let mut scratch = Vec::new();
        let mut reordered = Vec::new();
        let mut err: Option<AsterixError> = None;
        self.primary[partition].lsm().scan_projected(bound, proj, |key, sv| {
            scratch.clear();
            let encoded = match sv {
                ScanValue::Assembled(sd) => {
                    // Named fields come assembled in projection order; a
                    // whole record comes in column order.
                    let rec = match (&proj.fields, &record_type) {
                        (None, Some(rt)) => colschema::in_typed_order(sd, rt, &mut reordered),
                        _ => Ok(sd),
                    };
                    rec.map(|rec| asterix_adm::tuple::encode_tuple_from_encoded(&mut scratch, rec))
                }
                ScanValue::Row(typed) => {
                    adm_serde::decode_typed(&self.registry, typed, &self.datatype).map(|v| {
                        let v = match &proj.fields {
                            None => v,
                            Some(fields) => {
                                let mut rec = asterix_adm::Record::new();
                                for f in fields {
                                    let fv = v.field(f);
                                    // Missing = absent from the record;
                                    // Null is a present field and must stay
                                    // (matching what the columnar assembly
                                    // produces).
                                    if !matches!(fv, Value::Missing) {
                                        rec.set(f.clone(), fv);
                                    }
                                }
                                Value::record(rec)
                            }
                        };
                        asterix_adm::encode_tuple_into(&mut scratch, std::slice::from_ref(&v));
                    })
                }
            };
            match encoded {
                Ok(()) => visit(key, &scratch),
                Err(e) => {
                    err = Some(e.into());
                    false
                }
            }
        })?;
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Point lookup by primary key (partition-local).
    pub fn get_in_partition(&self, partition: usize, pk: &[Value]) -> Result<Option<Value>> {
        self.get_coerced(partition, &self.coerce_pk(pk))
    }

    /// Point lookup routed to the owning partition.
    pub fn get(&self, pk: &[Value]) -> Result<Option<Value>> {
        let pk = self.coerce_pk(pk);
        self.get_coerced(self.partition_of(&pk), &pk)
    }

    /// Point lookup of an already coerced key in one partition.
    fn get_coerced(&self, partition: usize, pk: &[Value]) -> Result<Option<Value>> {
        match self.primary[partition].get(pk)? {
            Some(bytes) => {
                Ok(Some(adm_serde::decode_typed(&self.registry, &bytes, &self.datatype)?))
            }
            None => Ok(None),
        }
    }

    /// Live record count.
    pub fn count(&self) -> Result<usize> {
        let mut n = 0;
        for p in 0..self.partitions() {
            n += self.primary[p].lsm().live_count()?;
        }
        Ok(n)
    }

    /// Total on-disk + in-memory bytes across all indexes (Table 2).
    pub fn size_bytes(&self) -> u64 {
        let mut total: u64 = self.primary.iter().map(|t| t.lsm().size_bytes()).sum();
        for ix in self.secondaries.read().iter() {
            for p in &ix.partitions {
                total += match p {
                    SecondaryPartition::BTree(t) => t.lsm().size_bytes(),
                    SecondaryPartition::RTree(t) => t.size_bytes(),
                    SecondaryPartition::Inverted(t) => t.lsm().size_bytes(),
                };
            }
        }
        total
    }

    /// Size of the primary index only (Table 2 reports base data).
    pub fn primary_size_bytes(&self) -> u64 {
        self.primary.iter().map(|t| t.lsm().size_bytes()).sum()
    }

    /// Force-flush every in-memory component (checkpoint).
    pub fn flush_all(&self) -> Result<()> {
        for t in &self.primary {
            t.lsm().flush()?;
        }
        for ix in self.secondaries.read().iter() {
            for p in &ix.partitions {
                match p {
                    SecondaryPartition::BTree(t) => {
                        t.lsm().flush()?;
                    }
                    SecondaryPartition::RTree(t) => t.flush()?,
                    SecondaryPartition::Inverted(t) => {
                        t.lsm().flush()?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Find a secondary index runtime by name.
    pub fn secondary(&self, name: &str) -> Option<Arc<SecondaryIndexRuntime>> {
        self.secondaries.read().iter().find(|s| s.meta.name == name).cloned()
    }

    /// Remove this dataset incarnation's storage directories on every
    /// partition (called on `drop dataset` / `drop dataverse`).
    pub fn destroy_storage(&self) {
        for p in 0..self.cfg.partitions() {
            // index_dir is .../p{p}/{dataverse}/{dir_name}/{index}; remove
            // the dataset level.
            let ds_dir = self
                .cfg
                .index_dir(p, &self.meta.dataverse, &self.dir_name, "primary")
                .parent()
                .map(|d| d.to_path_buf());
            if let Some(dir) = ds_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}
