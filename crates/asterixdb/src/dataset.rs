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

use std::sync::atomic::{AtomicI64, AtomicU32, Ordering};
use std::sync::Arc;

use asterix_adm::strings::Tokenizer;
use asterix_adm::value::Rectangle;
use asterix_adm::{colschema, serde as adm_serde, Datatype, PrimitiveType, TypeRegistry, Value};
use asterix_algebricks::metadata::{IndexProbe, KeyBound};
use asterix_metadata::{DatasetMeta, IndexKindMeta, IndexMeta};
use asterix_storage::btree::{LsmBTree, ValueBound};
use asterix_storage::inverted::InvertedIndex;
use asterix_storage::keycodec;
use asterix_storage::lsm::{LsmConfig, LsmTree, Lsn, ScanValue};
use asterix_storage::spatial::SpatialIndex;
use asterix_storage::{
    BufferCache, ColumnarOptions, ColumnarStats, Projection, RowCodec, ScanBound,
};
use asterix_sync::RwLock;
use asterix_txn::locks::LockMode;
use asterix_txn::wal::LogRecord;
use asterix_txn::LockManager;

use crate::cluster::ClusterConfig;
use crate::error::{AsterixError, Result};
use crate::nodelog::{FlushLogger, NodeLog};

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
    /// The record type's declared fields, in declared order — the order
    /// `decode_typed` yields them, and the column order of every component.
    declared: Vec<String>,
}

impl TypedRowCodec {
    pub fn new(registry: TypeRegistry, datatype: Datatype) -> Self {
        let declared = match registry.resolve(&datatype) {
            Ok(Datatype::Record(rt)) => rt.fields.iter().map(|f| f.name.clone()).collect(),
            _ => Vec::new(),
        };
        TypedRowCodec { registry, datatype, declared }
    }
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

    fn declared_fields(&self) -> &[String] {
        &self.declared
    }
}

/// One partition of a secondary index.
pub enum SecondaryPartition {
    BTree(LsmBTree),
    Spatial(SpatialIndex),
    Inverted(InvertedIndex),
}

impl SecondaryPartition {
    /// The LSM tree every index kind keeps its entries in.
    pub fn lsm(&self) -> &LsmTree {
        match self {
            SecondaryPartition::BTree(t) => t.lsm(),
            SecondaryPartition::Spatial(t) => t.lsm(),
            SecondaryPartition::Inverted(t) => t.lsm(),
        }
    }

    /// The primary keys of this partition's entries that each of `probes`
    /// matches: `emit(i, pk)` with `pk` an encoded tuple of the key fields
    /// for every match of `probes[i]`, until it returns `Ok(false)` or an
    /// error — the one place a probe meets an index kind. A B-tree reads
    /// the union of its probes' ranges in one forward pass; the R-tree and
    /// the inverted indexes search probe by probe.
    pub fn search(
        &self,
        probes: &[IndexProbe],
        emit: &mut dyn FnMut(usize, &[u8]) -> Result<bool>,
    ) -> Result<()> {
        let mut enc = Vec::new();
        let mut emit = |i: usize, pk: &[Value]| {
            enc.clear();
            asterix_adm::encode_tuple_into(&mut enc, pk);
            emit(i, &enc)
        };
        let no_such =
            |probe: &IndexProbe| AsterixError::Execution(format!("no such search: {probe:?}"));
        if let SecondaryPartition::BTree(t) = self {
            let ranges = probes
                .iter()
                .map(|probe| match probe {
                    IndexProbe::Range { lo, hi } => {
                        Ok((to_value_bound(lo.clone()), to_value_bound(hi.clone())))
                    }
                    other => Err(no_such(other)),
                })
                .collect::<Result<Vec<_>>>()?;
            return t.ranges_with(&ranges, |i, key, _| emit(i, t.split_key(key).1));
        }
        for (i, probe) in probes.iter().enumerate() {
            let pks = match (self, probe) {
                (SecondaryPartition::Spatial(t), IndexProbe::Window(window)) => t.search(window)?,
                (SecondaryPartition::Inverted(t), IndexProbe::Tokens { tokens, min_matches }) => {
                    t.t_occurrence(tokens, *min_matches)?
                }
                _ => return Err(no_such(probe)),
            };
            for pk in pks {
                if !emit(i, &pk)? {
                    return Ok(());
                }
            }
        }
        Ok(())
    }
}

/// Remove a directory and everything in it, if it is there.
fn remove_dir(dir: &std::path::Path) -> Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
        _ => Ok(()),
    }
}

/// A compiler bound as a storage bound.
pub(crate) fn to_value_bound(b: KeyBound) -> ValueBound {
    match b {
        KeyBound::Unbounded => ValueBound::Unbounded,
        KeyBound::Inclusive(v) => ValueBound::Included(vec![v]),
        KeyBound::Exclusive(v) => ValueBound::Excluded(vec![v]),
    }
}

/// A secondary index across all partitions.
pub struct SecondaryIndexRuntime {
    pub meta: IndexMeta,
    /// Index id within the dataset (primary = 0, secondaries from 1).
    pub id: u32,
    pub partitions: Vec<SecondaryPartition>,
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
    pub secondaries: RwLock<Vec<Arc<SecondaryIndexRuntime>>>,
    /// The id the next secondary index gets: ids are never reused, so a
    /// log record of a dropped index never lands in a newer one.
    next_index_id: AtomicU32,
    locks: Arc<LockManager>,
    /// Each node's log, by node.
    logs: Vec<Arc<NodeLog>>,
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
        logs: Vec<Arc<NodeLog>>,
        columnar_stats: Arc<ColumnarStats>,
    ) -> Result<Arc<DatasetRuntime>> {
        let nparts = cfg.partitions();
        let dir_name = format!("{}#{id}", meta.name);
        let mut primary = Vec::with_capacity(nparts);
        // Primary indexes store whole records and flush them column-major
        // when the data's schema is stable.
        let codec: Arc<dyn RowCodec> =
            Arc::new(TypedRowCodec::new(registry.clone(), datatype.clone()));
        let columnar = ColumnarOptions { codec, stats: columnar_stats };
        for p in 0..nparts {
            let dir = cfg.index_dir(p, &meta.dataverse, &dir_name, "primary");
            let node = &logs[cfg.node_of(p)];
            let observer = Arc::new(FlushLogger {
                node: Arc::clone(node),
                dataset: id,
                index_code: wal_index_code(0, p),
            });
            let config = LsmConfig { columnar: Some(columnar.clone()), ..Self::lsm_config(cfg) };
            let tree =
                LsmBTree::open(&dir, meta.primary_key.len(), config, Arc::clone(&cache), observer)?;
            node.register(tree.lsm().lsn_pin());
            primary.push(tree);
        }
        Ok(Arc::new(DatasetRuntime {
            id,
            meta,
            datatype,
            registry,
            cfg: cfg.clone(),
            cache,
            primary,
            secondaries: RwLock::new(Vec::new()),
            next_index_id: AtomicU32::new(1),
            locks,
            logs,
            next_auto_key: AtomicI64::new(1),
            dir_name,
        }))
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

    /// Open the index partitions of `meta` under the next index id, in
    /// directories emptied first when `fresh`, and publish the index to
    /// writers.
    fn open_secondary(&self, meta: IndexMeta, fresh: bool) -> Result<Arc<SecondaryIndexRuntime>> {
        let id = self.next_index_id.fetch_add(1, Ordering::SeqCst);
        let nparts = self.cfg.partitions();
        let mut partitions = Vec::with_capacity(nparts);
        for p in 0..nparts {
            let dir = self.index_dir(p, &meta.name, id);
            if fresh {
                remove_dir(&dir)?;
            }
            let node = &self.logs[self.cfg.node_of(p)];
            let observer = Arc::new(FlushLogger {
                node: Arc::clone(node),
                dataset: self.id,
                index_code: wal_index_code(id, p),
            });
            let part = match &meta.kind {
                IndexKindMeta::BTree => SecondaryPartition::BTree(LsmBTree::open(
                    &dir,
                    meta.fields.len(),
                    Self::lsm_config(&self.cfg),
                    Arc::clone(&self.cache),
                    observer,
                )?),
                IndexKindMeta::RTree => SecondaryPartition::Spatial(SpatialIndex::open(
                    &dir,
                    Self::lsm_config(&self.cfg),
                    Arc::clone(&self.cache),
                    observer,
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
            node.register(part.lsm().lsn_pin());
            partitions.push(part);
        }
        let ix = Arc::new(SecondaryIndexRuntime { meta, id, partitions });
        self.secondaries.write().push(Arc::clone(&ix));
        Ok(ix)
    }

    /// On-disk directory of one partition of index `name`: `{name}#{id}`,
    /// so every incarnation of a name has storage of its own, as datasets
    /// do.
    fn index_dir(&self, partition: usize, name: &str, id: u32) -> std::path::PathBuf {
        let index = format!("{name}#{id}");
        self.cfg.index_dir(partition, &self.meta.dataverse, &self.dir_name, &index)
    }

    /// Create a new secondary index, durable before it returns: it starts
    /// from empty directories (an earlier run may have left some under its
    /// id before its DDL was persisted), is backfilled from the existing
    /// records, and every backfilled partition is flushed.
    pub fn create_index(&self, meta: IndexMeta) -> Result<()> {
        let ix = self.open_secondary(meta, true)?;
        for p in 0..self.cfg.partitions() {
            self.backfill(&ix, p)?;
        }
        Ok(())
    }

    /// Reopen a secondary index that [`Self::create_index`] made durable.
    /// A partition is rebuilt only when it has no valid component while
    /// its primary partition holds records (a directory emptied by hand,
    /// or scavenged: DESIGN.md "The spatial index").
    pub fn reopen_index(&self, meta: IndexMeta) -> Result<()> {
        let ix = self.open_secondary(meta, false)?;
        for (p, part) in ix.partitions.iter().enumerate() {
            if part.lsm().disk_component_count() == 0 && self.primary[p].lsm().stored_entries() > 0
            {
                self.backfill(&ix, p)?;
            }
        }
        Ok(())
    }

    /// Index every record of one primary partition (bulk, outside record
    /// transactions: nothing is logged) and flush the index partition. The
    /// partition is read for the fields the key and the indexed value need,
    /// and its entries are collected before the first one is written, so no
    /// index write runs under the primary read.
    fn backfill(&self, ix: &SecondaryIndexRuntime, partition: usize) -> Result<()> {
        let paths = self.meta.primary_key.iter().chain(ix.meta.fields.first());
        let mut fields: Vec<String> =
            paths.map(|f| f.split('.').next().unwrap_or(f).to_string()).collect();
        fields.sort();
        fields.dedup();
        let proj = Projection { fields: Some(fields), filters: Vec::new() };
        let mut entries = Vec::new();
        self.read_partition_projected(partition, ScanBound::ALL, &proj, |_, tuple| {
            let r = asterix_adm::TupleRef::new(tuple)?.field(0).to_value()?;
            if let Some(fv) = Self::indexed_value(ix, &r) {
                entries.push((self.pk_of(&r)?, fv));
            }
            Ok(true)
        })?;
        for (pk, fv) in entries {
            self.apply_secondary_value(ix, partition, &fv, &pk, false, 0)?;
        }
        ix.partitions[partition].lsm().flush()?;
        Ok(())
    }

    /// Drop a secondary index and its storage. What its memory components
    /// hold is discarded, so it pins no log record.
    pub fn drop_index(&self, name: &str) -> Result<()> {
        let mut secs = self.secondaries.write();
        let at = secs
            .iter()
            .position(|s| s.meta.name == name)
            .ok_or_else(|| AsterixError::Catalog(format!("unknown index {name}")))?;
        let ix = secs.remove(at);
        for (p, part) in ix.partitions.iter().enumerate() {
            part.lsm().discard_memory();
            remove_dir(&self.index_dir(p, name, ix.id))?;
        }
        Ok(())
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.primary.len()
    }

    /// Which partition owns a primary key.
    pub fn partition_of(&self, pk: &[Value]) -> usize {
        self.partition_of_hashes(pk.iter().map(Value::stable_hash))
    }

    /// [`Self::partition_of`] of the key whose fields hash to `hashes`.
    fn partition_of_hashes(&self, hashes: impl Iterator<Item = u64>) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for fh in hashes {
            h ^= fh;
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
        let Some(rt) = self.resolved_record_type() else { return pk.to_vec() };
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

    /// The storage key of an encoded primary-key tuple and the partition
    /// that owns it. Each field is coerced to its declared type in
    /// `key_types` (one per key field, `None` when undeclared) as
    /// [`Self::coerce_pk`] coerces a decoded key; a field that already has
    /// that type — every key a secondary index hands over — is encoded and
    /// hashed straight from its bytes.
    fn storage_key(&self, key_types: &[Option<Datatype>], pk: &[u8]) -> Result<(Vec<u8>, usize)> {
        let t = asterix_adm::TupleRef::new(pk)?;
        let mut key = Vec::with_capacity(16 * key_types.len());
        let mut hashes = Vec::with_capacity(key_types.len());
        for (i, ty) in key_types.iter().enumerate() {
            let v = t.field(i);
            let coerce_to = ty.as_ref().filter(|ty| match ty {
                Datatype::Primitive(p) => v.primitive_type() != Some(*p),
                _ => true,
            });
            match coerce_to {
                Some(ty) => {
                    let v = v.to_value()?;
                    let v = self.registry.coerce(&v, ty).unwrap_or(v);
                    keycodec::encode_value(&mut key, &v)?;
                    hashes.push(v.stable_hash());
                }
                None => {
                    keycodec::encode_value_ref(&mut key, v)?;
                    hashes.push(v.stable_hash());
                }
            }
        }
        Ok((key, self.partition_of_hashes(hashes.into_iter())))
    }

    /// The declared type of each primary-key field, for [`Self::storage_key`]
    /// (`None` for `any`, which every value has).
    fn key_types(&self) -> Vec<Option<Datatype>> {
        let rt = self.resolved_record_type();
        let declared = |f: &String| Some(rt.as_ref()?.field(f)?.ty.clone());
        let any = |ty: &Datatype| matches!(ty, Datatype::Primitive(PrimitiveType::Any));
        self.meta.primary_key.iter().map(|f| declared(f).filter(|ty| !any(ty))).collect()
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
        let wal = self.logs[self.cfg.node_of(partition)].wal();
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
            self.primary[partition].insert(&pk, value_bytes, lsn)?;
            // Secondary indexes.
            let secs = self.secondaries.read().clone();
            for ix in &secs {
                self.log_and_apply_secondary(txn, ix, partition, &record, &pk, false)?;
            }
            wal.commit(txn)?;
            Ok(())
        })();
        self.finish_txn(txn, &result, partition);
        result
    }

    /// End a record-level transaction: log the abort of one that failed
    /// (when it logged an update), and release its locks.
    fn finish_txn<T>(&self, txn: asterix_txn::TxnId, result: &Result<T>, partition: usize) {
        if result.is_err() {
            let _ = self.logs[self.cfg.node_of(partition)].wal().abort(txn);
        }
        self.locks.release_all(txn);
    }

    /// Delete by primary key; returns whether a record was removed.
    pub fn delete_by_pk(&self, pk: &[Value]) -> Result<bool> {
        let pk = self.coerce_pk(pk);
        let pk_bytes = keycodec::encode_key(&pk)?;
        let partition = self.partition_of(&pk);
        let wal = self.logs[self.cfg.node_of(partition)].wal();
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
            self.primary[partition].delete(&pk, lsn)?;
            let secs = self.secondaries.read().clone();
            for ix in &secs {
                self.log_and_apply_secondary(txn, ix, partition, &old, &pk, true)?;
            }
            wal.commit(txn)?;
            Ok(true)
        })();
        self.finish_txn(txn, &result, partition);
        result
    }

    /// Log and apply one secondary-index update of transaction `txn`, in
    /// the log of the node hosting `partition`.
    fn log_and_apply_secondary(
        &self,
        txn: asterix_txn::TxnId,
        ix: &Arc<SecondaryIndexRuntime>,
        partition: usize,
        record: &Value,
        pk: &[Value],
        is_delete: bool,
    ) -> Result<()> {
        let Some(fv) = Self::indexed_value(ix, record) else { return Ok(()) };
        // Logical log payload: [field value, pk...] (self-describing).
        let mut payload_items = vec![fv.clone()];
        payload_items.extend(pk.iter().cloned());
        let payload = adm_serde::encode(&Value::ordered_list(payload_items));
        let wal = self.logs[self.cfg.node_of(partition)].wal();
        let lsn = wal.append(&LogRecord::Update {
            txn,
            dataset: self.id,
            index: wal_index_code(ix.id, partition),
            is_delete,
            key: Vec::new(),
            value: payload,
        })?;
        self.apply_secondary_value(ix, partition, &fv, pk, is_delete, lsn)
    }

    /// The value `record` files under in `ix`; unknown values are not
    /// indexed.
    fn indexed_value(ix: &SecondaryIndexRuntime, record: &Value) -> Option<Value> {
        let fv = extract_path(record, ix.meta.fields.first()?);
        (!fv.is_unknown()).then_some(fv)
    }

    /// Apply one secondary-index update, the write of log record `lsn`
    /// (`0`: none).
    fn apply_secondary_value(
        &self,
        ix: &SecondaryIndexRuntime,
        partition: usize,
        field_value: &Value,
        pk: &[Value],
        is_delete: bool,
        lsn: Lsn,
    ) -> Result<()> {
        match &ix.partitions[partition] {
            SecondaryPartition::BTree(t) => {
                let mut composite = vec![field_value.clone()];
                composite.extend(pk.iter().cloned());
                if is_delete {
                    t.delete(&composite, lsn)?;
                } else {
                    t.insert(&composite, Vec::new(), lsn)?;
                }
            }
            SecondaryPartition::Spatial(t) => {
                let mbr: Rectangle = asterix_adm::spatial::mbr(field_value)?;
                if is_delete {
                    t.delete(mbr, pk, lsn)?;
                } else {
                    t.insert(mbr, pk, lsn)?;
                }
            }
            SecondaryPartition::Inverted(t) => {
                if is_delete {
                    t.delete(field_value, pk, lsn)?;
                } else {
                    t.insert(field_value, pk, lsn)?;
                }
            }
        }
        Ok(())
    }

    // -- recovery redo (no locks/WAL: applied from the log) -------------------

    /// Redo one logical update from the WAL, under its original LSN.
    pub fn replay(
        &self,
        index_code: u32,
        lsn: Lsn,
        key: &[u8],
        value: &[u8],
        is_delete: bool,
    ) -> Result<()> {
        let (index_id, partition) = wal_index_decode(index_code);
        if index_id == 0 {
            let pk = keycodec::decode_key(key)?;
            if is_delete {
                self.primary[partition].delete(&pk, lsn)?;
            } else {
                self.primary[partition].insert(&pk, value.to_vec(), lsn)?;
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
        self.apply_secondary_value(ix, partition, fv, pk, is_delete, lsn)
    }

    // -- reads -----------------------------------------------------------------

    /// Serialized full scan of one partition: every record, whole, as an
    /// encoded single-column tuple in the byte-frame wire format — the
    /// all-keys, all-fields, no-filter case of
    /// `read_partition_projected`. The visitor returns `false` to
    /// stop early (e.g. a downstream consumer closed); early stop is not an
    /// error.
    pub fn scan_partition_raw(
        &self,
        partition: usize,
        visit: &mut dyn FnMut(&[u8]) -> bool,
    ) -> Result<()> {
        self.read_partition_projected(partition, ScanBound::ALL, &Projection::all(), |_, row| {
            Ok(visit(row))
        })
    }

    /// The batched primary fetch — the key-list case of
    /// `read_partition_projected` across partitions. `pks` are encoded
    /// tuples of the key fields and may come in any order and repeat; each
    /// is routed to its owning partition (see `storage_key`), and a
    /// partition's keys are sorted by their encoding and fetched as one
    /// list, so every columnar row group holding some of them is visited
    /// once. The visitor receives `(position in pks, tuple)` per key whose
    /// record exists and survives `proj`'s filters, in primary-key order
    /// within a partition, and returns `Ok(false)` to stop early; its first
    /// error stops the fetch and is what the call returns.
    pub fn fetch_projected<'k>(
        &self,
        pks: impl IntoIterator<Item = &'k [u8]>,
        proj: &Projection,
        visit: &mut dyn FnMut(usize, &[u8]) -> Result<bool>,
    ) -> Result<()> {
        let key_types = self.key_types();
        let mut wanted: Vec<Vec<(Vec<u8>, usize)>> = vec![Vec::new(); self.partitions()];
        for (i, pk) in pks.into_iter().enumerate() {
            let (key, partition) = self.storage_key(&key_types, pk)?;
            wanted[partition].push((key, i));
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
            self.read_partition_projected(partition, ScanBound::Keys(&keys), proj, |key, row| {
                while next < askers.len() && keys[askers[next].0].as_slice() < key {
                    next += 1;
                }
                while go && next < askers.len() && keys[askers[next].0] == key {
                    go = visit(askers[next].1, row)?;
                    next += 1;
                }
                Ok(go)
            })?;
        }
        Ok(())
    }

    /// The one read of a partition's primary index — scans, primary-key
    /// searches and fetches alike — over a key range or a sorted key list:
    /// `visit(key, tuple)` per surviving record, in key order, returning
    /// `Ok(false)` to stop early; its first error, or the read's, stops the
    /// read and is what the call returns. The tuple is an encoded
    /// single-column tuple holding a self-describing record of the
    /// projected fields (every field for an all-fields projection). Rows in
    /// columnar components are filtered on raw column bytes and assembled
    /// from just the columns needed, with no `Value` in between; rows from
    /// row-major components, the memory component and spill runs are
    /// decoded and cut down to the same fields (the operator above applies
    /// the filters to those). Either way the bytes are identical: column bytes are exact
    /// slices of the record's self-describing encoding, and a whole record
    /// spliced from them is put into the field order `decode_typed` yields.
    pub(crate) fn read_partition_projected(
        &self,
        partition: usize,
        bound: ScanBound<'_>,
        proj: &Projection,
        mut visit: impl FnMut(&[u8], &[u8]) -> Result<bool>,
    ) -> Result<()> {
        let record_type = self.resolved_record_type();
        let mut scratch = Vec::new();
        let mut reordered = Vec::new();
        self.primary[partition].lsm().scan_projected(bound, proj, |key, sv| {
            scratch.clear();
            match sv {
                ScanValue::Assembled(sd) => {
                    // Named fields come assembled in projection order; a
                    // whole record comes in column order.
                    let rec = match (&proj.fields, &record_type) {
                        (None, Some(rt)) => colschema::in_typed_order(sd, rt, &mut reordered)?,
                        _ => sd,
                    };
                    asterix_adm::tuple::encode_tuple_from_encoded(&mut scratch, rec);
                }
                ScanValue::Row(typed) => {
                    let v = adm_serde::decode_typed(&self.registry, typed, &self.datatype)?;
                    let v = match &proj.fields {
                        None => v,
                        Some(fields) => {
                            let mut rec = asterix_adm::Record::new();
                            for f in fields {
                                let fv = v.field(f);
                                // Missing = absent from the record; Null is
                                // a present field and must stay (matching
                                // what the columnar assembly produces).
                                if !matches!(fv, Value::Missing) {
                                    rec.set(f.clone(), fv);
                                }
                            }
                            Value::record(rec)
                        }
                    };
                    asterix_adm::encode_tuple_into(&mut scratch, std::slice::from_ref(&v));
                }
            }
            visit(key, &scratch)
        })
    }

    /// Point lookup routed to the owning partition.
    pub fn get(&self, pk: &[Value]) -> Result<Option<Value>> {
        let pk = self.coerce_pk(pk);
        match self.primary[self.partition_of(&pk)].get(&pk)? {
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
            total += ix.partitions.iter().map(|p| p.lsm().size_bytes()).sum::<u64>();
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
                p.lsm().flush()?;
            }
        }
        Ok(())
    }

    /// Find a secondary index runtime by name.
    pub fn secondary(&self, name: &str) -> Option<Arc<SecondaryIndexRuntime>> {
        self.secondaries.read().iter().find(|s| s.meta.name == name).cloned()
    }

    /// Remove this dataset incarnation's storage directories on every
    /// partition (called on `drop dataset` / `drop dataverse`), and discard
    /// its memory components so they pin no log record.
    pub fn destroy_storage(&self) {
        for t in &self.primary {
            t.lsm().discard_memory();
        }
        for ix in self.secondaries.read().iter() {
            for part in &ix.partitions {
                part.lsm().discard_memory();
            }
        }
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
