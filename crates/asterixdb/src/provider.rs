//! The instance's [`MetadataProvider`] — the bridge from the Algebricks
//! compiler/interpreter to real storage — and its [`AqlCatalog`] for the
//! translator.

use std::collections::HashMap;
use std::sync::Arc;

use asterix_adm::Value;
use asterix_algebricks::metadata::{
    IndexInfo, IndexKind, IndexProbe, IndexSearchFn, KeyBound, MetadataProvider, ScanFilter,
    ScanProjection,
};
use asterix_aql::translate::{AqlCatalog, FunctionDef};
use asterix_hyracks::ops::{FetchFn, RawSourceFn};
use asterix_hyracks::{FilterConsult, HyracksError};
use asterix_metadata::{Catalog, DatasetKind, IndexKindMeta, METADATA_DATAVERSE};
use asterix_storage::btree::ValueBound;
use asterix_storage::ScanBound;
use asterix_sync::RwLock;

use crate::dataset::{to_value_bound, DatasetRuntime};
use crate::error::AsterixError;

fn op_err(e: impl std::fmt::Display) -> HyracksError {
    HyracksError::Operator(e.to_string())
}

/// A dataset read's error, handed back to the executor: an executor error
/// that crossed the read — a consumer's emit failing, a cancellation —
/// comes back as it was, anything else as `op_err` makes it.
impl From<AsterixError> for HyracksError {
    fn from(e: AsterixError) -> Self {
        match e {
            AsterixError::Hyracks(e) => e,
            AsterixError::Cancelled => HyracksError::Cancelled,
            e => op_err(e),
        }
    }
}

/// The executor's comparison kinds map one-to-one onto storage's.
fn cmp_kind_to_op(k: asterix_hyracks::ops::CmpKind) -> asterix_storage::CmpOp {
    use asterix_hyracks::ops::CmpKind as K;
    use asterix_storage::CmpOp as O;
    match k {
        K::Eq => O::Eq,
        K::Neq => O::Neq,
        K::Lt => O::Lt,
        K::Le => O::Le,
        K::Gt => O::Gt,
        K::Ge => O::Ge,
    }
}

/// The compiler's projection — the fields the query touches and the
/// conjuncts it filters by — as one run pushes it into storage, where
/// columnar components decide the filters on raw column bytes and assemble
/// only the survivors. A partner conjunct is decided by `partner`, the
/// run's own consult of the join's filter; without one it is left out.
fn storage_projection<'t>(
    projection: &ScanProjection,
    partner: Option<&'t ScanPartner<'_>>,
) -> asterix_storage::Projection<'t> {
    use asterix_storage::ColumnFilter;
    let filters = projection.filters.iter().filter_map(|f| match f {
        ScanFilter::Cmp { field, op, key } => Some(ColumnFilter::Cmp {
            field: field.clone(),
            op: cmp_kind_to_op(*op),
            key: key.clone(),
        }),
        ScanFilter::Partner { field, .. } => {
            partner.map(|test| ColumnFilter::Partner { field: field.clone(), test })
        }
    });
    asterix_storage::Projection { fields: projection.fields.clone(), filters: filters.collect() }
}

/// One run's consult of a join's runtime filter, as the partner test of
/// that run's scan.
struct ScanPartner<'a>(std::cell::RefCell<&'a mut FilterConsult>);

impl asterix_storage::PartnerTest for ScanPartner<'_> {
    fn poll(&self) {
        self.0.borrow_mut().poll();
    }

    fn rejects(&self, value: &[u8]) -> bool {
        !self.0.borrow_mut().keep_value(asterix_adm::ValueRef::new(value))
    }
}

/// A live system-view generator: called at scan time to materialize the
/// current records of a `Metadata.*` pseudo-dataset (`ActiveJobs`,
/// `Metrics`).
pub type SystemDatasetFn = Arc<dyn Fn() -> Vec<Value> + Send + Sync>;

/// Shared mutable instance state referenced by providers, feeds, and the
/// instance itself.
pub struct Shared {
    pub catalog: RwLock<Catalog>,
    pub datasets: RwLock<HashMap<String, Arc<DatasetRuntime>>>,
    /// Cached external dataset contents (read-only and static, §2.3).
    pub external_cache: RwLock<HashMap<String, Arc<Vec<Value>>>>,
    pub partitions: usize,
    /// Partitions per simulated node (locality domains).
    pub partitions_per_node: usize,
    /// Live system views under the `Metadata` dataverse, keyed by bare
    /// dataset name. Unlike catalog-backed metadata datasets these
    /// regenerate on every scan, so a query sees the instance's state *as
    /// of that scan* (running jobs, current metric values).
    pub system_datasets: RwLock<HashMap<String, SystemDatasetFn>>,
    /// Catalog epoch: bumped by every DDL statement. Cached compiled plans
    /// record the epoch they were built under and are invalidated when it
    /// moves, so a plan never reads a dropped or recreated dataset.
    pub epoch: std::sync::atomic::AtomicU64,
}

impl Shared {
    /// Advance the catalog epoch (call after any DDL that changes what a
    /// compiled plan could observe: datasets, indexes, types, functions,
    /// feeds, dataverses).
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }

    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::SeqCst)
    }
    pub fn dataset(&self, qualified: &str) -> Option<Arc<DatasetRuntime>> {
        self.datasets.read().get(qualified).cloned()
    }

    /// Read (and cache) an external dataset's records.
    pub fn external_records(&self, qualified: &str) -> crate::Result<Arc<Vec<Value>>> {
        if let Some(c) = self.external_cache.read().get(qualified) {
            return Ok(Arc::clone(c));
        }
        let (dv, name) = qualified
            .split_once('.')
            .ok_or_else(|| AsterixError::Catalog(format!("bad dataset name {qualified}")))?;
        let catalog = self.catalog.read();
        let meta = catalog
            .dataset(dv, name)
            .ok_or_else(|| AsterixError::Catalog(format!("unknown dataset {qualified}")))?;
        let DatasetKind::External { adaptor, properties } = &meta.kind else {
            return Err(AsterixError::Catalog(format!("{qualified} is not external")));
        };
        let dataverse = catalog
            .dataverse(dv)
            .ok_or_else(|| AsterixError::Catalog(format!("unknown dataverse {dv}")))?;
        let ty = dataverse
            .types
            .get(&meta.type_name)
            .ok_or_else(|| AsterixError::Catalog(format!("unknown type {}", meta.type_name)))?;
        let resolved = dataverse.types.resolve(ty)?;
        let rt = resolved
            .as_record()
            .ok_or_else(|| AsterixError::Catalog("external type must be a record".into()))?;
        let records = asterix_external::read_external(adaptor, properties, rt, &dataverse.types)?;
        let arc = Arc::new(records);
        self.external_cache.write().insert(qualified.to_string(), Arc::clone(&arc));
        Ok(arc)
    }

    /// Register a live system view queryable as `Metadata.{name}`.
    pub fn register_system_dataset(&self, name: &str, f: SystemDatasetFn) {
        self.system_datasets.write().insert(name.to_string(), f);
    }

    fn metadata_records(&self, qualified: &str) -> Option<Vec<Value>> {
        let (dv, name) = qualified.split_once('.')?;
        if dv != METADATA_DATAVERSE {
            return None;
        }
        if let Some(f) = self.system_datasets.read().get(name) {
            return Some(f());
        }
        self.catalog.read().metadata_dataset_records(name)
    }
}

/// The provider handed to the compiler/interpreter.
pub struct InstanceProvider {
    pub shared: Arc<Shared>,
}

/// The primary keys a read of a stored dataset covers, encoded once per
/// plan: an equality on a single-field key is a one-key list — the
/// bloom-checked read `get` and the fetch make — and anything else a byte
/// range, a bound on a composite key's first field a prefix range.
enum PkRange {
    Key(Vec<u8>),
    Range(Option<Vec<u8>>, Option<Vec<u8>>),
}

impl PkRange {
    /// `lo` and `hi` are coerced to the key's declared type.
    fn of(ds: &DatasetRuntime, lo: KeyBound, hi: KeyBound) -> asterix_storage::Result<PkRange> {
        Ok(match (to_value_bound(lo), to_value_bound(hi)) {
            (ValueBound::Included(l), ValueBound::Included(h))
                if l == h && ds.meta.primary_key.len() == 1 =>
            {
                PkRange::Key(asterix_storage::keycodec::encode_key(&l)?)
            }
            (lo, hi) => PkRange::Range(lo.encode_lo()?, hi.encode_hi()?),
        })
    }

    fn bound(&self) -> ScanBound<'_> {
        match self {
            PkRange::Key(key) => ScanBound::Keys(std::slice::from_ref(key)),
            PkRange::Range(lo, hi) => ScanBound::Range { lo: lo.as_deref(), hi: hi.as_deref() },
        }
    }
}

impl InstanceProvider {
    fn runtime(&self, dataset: &str) -> asterix_hyracks::Result<Arc<DatasetRuntime>> {
        self.shared.dataset(dataset).ok_or_else(|| op_err(format!("unknown dataset {dataset}")))
    }

    /// Records of non-stored datasets (metadata / external), if applicable.
    fn virtual_records(&self, dataset: &str) -> Option<asterix_hyracks::Result<Arc<Vec<Value>>>> {
        if let Some(records) = self.shared.metadata_records(dataset) {
            return Some(Ok(Arc::new(records)));
        }
        let is_external = {
            let catalog = self.shared.catalog.read();
            dataset.split_once('.').is_some_and(|(dv, n)| {
                catalog
                    .dataset(dv, n)
                    .is_some_and(|m| matches!(m.kind, DatasetKind::External { .. }))
            })
        };
        if is_external {
            return Some(self.shared.external_records(dataset).map_err(op_err));
        }
        None
    }

    /// `b` coerced to the declared type of the primary key's first field,
    /// or of `index`'s.
    fn coerce_bound(
        ds: &DatasetRuntime,
        index: Option<&asterix_metadata::IndexMeta>,
        b: KeyBound,
    ) -> KeyBound {
        let coerce = |v: Value| match index {
            None => ds.coerce_pk(&[v]).pop().unwrap(),
            Some(meta) => ds.coerce_secondary_key(meta, &v),
        };
        match b {
            KeyBound::Unbounded => KeyBound::Unbounded,
            KeyBound::Inclusive(v) => KeyBound::Inclusive(coerce(v)),
            KeyBound::Exclusive(v) => KeyBound::Exclusive(coerce(v)),
        }
    }
}

impl MetadataProvider for InstanceProvider {
    fn partitions(&self) -> usize {
        self.shared.partitions
    }

    fn partitions_per_node(&self) -> usize {
        self.shared.partitions_per_node
    }

    fn catalog_epoch(&self) -> u64 {
        self.shared.current_epoch()
    }

    fn dataset_exists(&self, dataset: &str) -> bool {
        self.shared.dataset(dataset).is_some()
            || self.shared.metadata_records(dataset).is_some()
            || {
                let catalog = self.shared.catalog.read();
                dataset.split_once('.').is_some_and(|(dv, n)| catalog.dataset(dv, n).is_some())
            }
    }

    fn primary_key_fields(&self, dataset: &str) -> Vec<String> {
        self.shared.dataset(dataset).map(|d| d.meta.primary_key.clone()).unwrap_or_default()
    }

    fn indexes(&self, dataset: &str) -> Vec<IndexInfo> {
        let Some(ds) = self.shared.dataset(dataset) else { return Vec::new() };
        let secs = ds.secondaries.read().clone();
        secs.iter()
            .map(|s| IndexInfo {
                name: s.meta.name.clone(),
                kind: match &s.meta.kind {
                    IndexKindMeta::BTree => IndexKind::BTree,
                    IndexKindMeta::RTree => IndexKind::RTree,
                    IndexKindMeta::Keyword => IndexKind::Keyword,
                    IndexKindMeta::NGram(k) => IndexKind::NGram(*k),
                },
                fields: s.meta.fields.clone(),
            })
            .collect()
    }

    fn primary_partition_of(&self, dataset: &str, key: &Value) -> Option<usize> {
        // Stored datasets only (virtual and external ones have no runtime),
        // and single-field keys only: a composite key's range is on its
        // first field but its hash is on all of them. Routed exactly as
        // `DatasetRuntime::get` and `insert` route, coercion included.
        let ds = self.shared.dataset(dataset)?;
        (ds.meta.primary_key.len() == 1)
            .then(|| ds.partition_of(&ds.coerce_pk(std::slice::from_ref(key))))
    }

    fn dataset_rows(&self, dataset: &str) -> Option<u64> {
        // Stored datasets only (virtual and external ones have no runtime),
        // counted off the components' metadata: never `DatasetRuntime::count`,
        // which scans.
        let ds = self.shared.dataset(dataset)?;
        Some(ds.primary.iter().map(|t| t.lsm().stored_entries()).sum())
    }

    fn raw_scan_source(
        &self,
        dataset: &str,
        projection: &ScanProjection,
        lo: KeyBound,
        hi: KeyBound,
    ) -> asterix_hyracks::Result<RawSourceFn> {
        let projection = projection.clone();
        let Some(ds) = self.shared.dataset(dataset) else {
            // A virtual dataset (metadata / external) has no primary index:
            // its records, evaluated here, are spread round-robin across
            // partitions so downstream operators still parallelize, and cut
            // to the projection; the select above decides the filters and
            // the search's post-validation the bounds. Unknown names error.
            let records = self
                .virtual_records(dataset)
                .unwrap_or_else(|| Err(op_err(format!("unknown dataset {dataset}"))))?;
            return Ok(Arc::new(move |partition, nparts, _consult, emit| {
                for r in records.iter().skip(partition).step_by(nparts) {
                    emit(&asterix_adm::encode_tuple(&[projection.cut(r)]))?;
                }
                Ok(())
            }));
        };
        let (lo, hi) = (Self::coerce_bound(&ds, None, lo), Self::coerce_bound(&ds, None, hi));
        let keys = PkRange::of(&ds, lo, hi).map_err(op_err)?;
        Ok(Arc::new(move |partition, _nparts, consult, emit| {
            let partner = consult.map(|c| ScanPartner(std::cell::RefCell::new(c)));
            let proj = storage_projection(&projection, partner.as_ref());
            let visit = |_: &[u8], bytes: &[u8]| {
                emit(bytes)?;
                Ok(true)
            };
            Ok(ds.read_partition_projected(partition, keys.bound(), &proj, visit)?)
        }))
    }

    fn secondary_search(
        &self,
        dataset: &str,
        index: &str,
    ) -> asterix_hyracks::Result<IndexSearchFn> {
        let ds = self.runtime(dataset)?;
        let ix = ds.secondary(index).ok_or_else(|| op_err(format!("unknown index {index}")))?;
        Ok(Arc::new(move |partitions, probes, emit| {
            // B-tree bounds are coerced to the indexed field's declared type.
            let coerced: Vec<IndexProbe> = probes
                .iter()
                .map(|probe| match probe {
                    IndexProbe::Range { lo, hi } => IndexProbe::Range {
                        lo: Self::coerce_bound(&ds, Some(&ix.meta), lo.clone()),
                        hi: Self::coerce_bound(&ds, Some(&ix.meta), hi.clone()),
                    },
                    other => other.clone(),
                })
                .collect();
            let mut visit = |i: usize, pk: &[u8]| {
                emit(i, pk)?;
                Ok(true)
            };
            for p in partitions {
                ix.partitions[p].search(&coerced, &mut visit)?;
            }
            Ok(())
        }))
    }

    fn primary_fetch(
        &self,
        dataset: &str,
        projection: &ScanProjection,
    ) -> asterix_hyracks::Result<FetchFn> {
        let ds = self.runtime(dataset)?;
        let projection = projection.clone();
        Ok(Arc::new(move |pks, emit| {
            let proj = storage_projection(&projection, None);
            Ok(ds.fetch_projected(pks.iter(), &proj, &mut |i, row| {
                emit(i, row)?;
                Ok(true)
            })?)
        }))
    }

    fn scan_all(&self, dataset: &str) -> asterix_hyracks::Result<Vec<Value>> {
        if let Some(records) = self.virtual_records(dataset) {
            return Ok(records?.as_ref().clone());
        }
        let ds = self.runtime(dataset)?;
        let mut out = Vec::new();
        for p in 0..ds.partitions() {
            out.extend(ds.scan_partition(p).map_err(op_err)?);
        }
        Ok(out)
    }

    fn lookup_pk(&self, dataset: &str, pk: &[Value]) -> asterix_hyracks::Result<Option<Value>> {
        let ds = self.runtime(dataset)?;
        ds.get(pk).map_err(op_err)
    }

    fn primary_range_all(
        &self,
        dataset: &str,
        lo: KeyBound,
        hi: KeyBound,
    ) -> asterix_hyracks::Result<Vec<Value>> {
        let ds = self.runtime(dataset)?;
        let lo = to_value_bound(Self::coerce_bound(&ds, None, lo));
        let hi = to_value_bound(Self::coerce_bound(&ds, None, hi));
        let mut out = Vec::new();
        for tree in &ds.primary {
            tree.range_with(&lo, &hi, |_, bytes| -> crate::Result<bool> {
                out.push(asterix_adm::serde::decode_typed(&ds.registry, bytes, &ds.datatype)?);
                Ok(true)
            })?;
        }
        Ok(out)
    }
}

/// The translator-facing catalog: resolves names against the session's
/// current dataverse and looks up UDFs (re-parsed from stored source).
pub struct SessionCatalog {
    pub shared: Arc<Shared>,
    pub current_dataverse: String,
}

impl AqlCatalog for SessionCatalog {
    fn resolve_dataset(&self, name: &str) -> Option<String> {
        let catalog = self.shared.catalog.read();
        if let Some(q) = catalog.resolve_dataset(&self.current_dataverse, name) {
            return Some(q);
        }
        // Metadata virtual datasets (catalog-backed and live system views).
        if let Some((dv, n)) = name.split_once('.') {
            if dv == METADATA_DATAVERSE
                && (self.shared.system_datasets.read().contains_key(n)
                    || catalog.metadata_dataset_records(n).is_some())
            {
                return Some(name.to_string());
            }
        }
        None
    }

    fn function(&self, name: &str, arity: usize) -> Option<FunctionDef> {
        let catalog = self.shared.catalog.read();
        let dv = catalog.dataverse(&self.current_dataverse)?;
        let f = dv.functions.get(name)?;
        if f.params.len() != arity {
            return None;
        }
        // The stored source is the whole `create function` statement;
        // re-parse it and pull out the body.
        let stmts = asterix_aql::parser::parse_statements(&f.body_src).ok()?;
        match stmts.into_iter().next()? {
            asterix_aql::ast::Statement::CreateFunction { body, params, .. } => {
                Some(FunctionDef { params, body })
            }
            _ => None,
        }
    }
}
