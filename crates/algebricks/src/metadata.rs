//! The metadata/provider interface between the compiler and the storage
//! layer — what AsterixDB calls the metadata provider: dataset existence,
//! partitioning, available indexes, and runtime data-access callbacks.

use std::sync::Arc;

use asterix_adm::strings::Tokenizer;
use asterix_adm::value::Rectangle;
use asterix_adm::Value;

use asterix_hyracks::ops::{CmpKind, FetchFn, RawSourceFn};
use asterix_hyracks::Result;

/// Secondary index kinds (§2.2: btree is the default; rtree, keyword and
/// ngram(k) are explicit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexKind {
    BTree,
    RTree,
    Keyword,
    NGram(usize),
}

impl IndexKind {
    /// How an inverted index of this kind tokenizes (`None` for B-trees
    /// and R-trees).
    pub fn tokenizer(&self) -> Option<Tokenizer> {
        match self {
            IndexKind::Keyword => Some(Tokenizer::Keyword),
            IndexKind::NGram(k) => Some(Tokenizer::NGram(*k)),
            IndexKind::BTree | IndexKind::RTree => None,
        }
    }
}

/// Descriptor of a secondary index.
#[derive(Debug, Clone)]
pub struct IndexInfo {
    pub name: String,
    pub kind: IndexKind,
    /// Indexed field paths (dot-separated for nested fields).
    pub fields: Vec<String>,
}

/// A key bound for B-tree searches.
#[derive(Debug, Clone)]
pub enum KeyBound {
    Unbounded,
    Inclusive(Value),
    Exclusive(Value),
}

/// What a search of a secondary index looks for, resolved from the plan's
/// [`IndexSearchSpec`](crate::plan::IndexSearchSpec) by
/// [`IndexSearchSpec::probe`](crate::plan::IndexSearchSpec::probe). A
/// B-tree answers `Range`, an R-tree `Window` and an inverted index
/// `Tokens`; the search emits primary keys, a superset of the answer the
/// post-validation then decides.
#[derive(Debug, Clone)]
pub enum IndexProbe {
    /// Entries whose (first) key field lies between the bounds.
    Range { lo: KeyBound, hi: KeyBound },
    /// Entries whose MBR intersects the window.
    Window(Rectangle),
    /// Entries holding at least `min_matches` (≥ 1) of the distinct
    /// `tokens` (T-occurrence).
    Tokens { tokens: Vec<String>, min_matches: usize },
}

/// A conjunct pushed into a read of the primary index as a pre-filter. It
/// is conservative: it only drops rows it *definitely* rejects, and the
/// operator it was derived from stays above the read and re-applies
/// itself to whatever comes through.
#[derive(Debug, Clone)]
pub enum ScanFilter {
    /// `field <op> constant`, from the select above the read. `key` is the
    /// order-preserving `ordkey` encoding of the constant, so a columnar
    /// source can decide most rows by memcmp on one column's bytes before
    /// assembling anything.
    Cmp { field: String, op: CmpKind, key: Vec<u8> },
    /// "`field` has a build partner": the read is the probe input of the
    /// inner hash join that publishes runtime filter `filter_id` — over
    /// `join_nparts` partitions — and `field` is its one join key. The
    /// source is handed the run's consult of that filter
    /// (`asterix_hyracks::ops::RawSourceFn`), and the consult operator
    /// above the read still sees every row the source lets through.
    Partner { field: String, filter_id: usize, join_nparts: usize },
}

impl ScanFilter {
    /// The conjunct as `explain` shows it, constants elided.
    fn label(&self) -> String {
        match self {
            ScanFilter::Cmp { field, op, .. } => format!("{field}{}?", op.symbol()),
            ScanFilter::Partner { field, filter_id, .. } => format!("{field} in join #{filter_id}"),
        }
    }
}

/// What a read of the primary index actually needs to produce, handed to
/// [`MetadataProvider::raw_scan_source`] and
/// [`MetadataProvider::primary_fetch`] so columnar storage can filter
/// first and late-materialize just the columns needed.
#[derive(Debug, Clone)]
pub struct ScanProjection {
    /// The top-level fields the query accesses, in deterministic (sorted)
    /// order, when every use of the record variable is `$v.field`; `None`
    /// when the variable escapes and whole records are needed.
    pub fields: Option<Vec<String>>,
    /// Every ordkey-decidable conjunct of the select directly above the
    /// read, then the partner test of the hash join it is the probe input
    /// of (empty when there is neither).
    pub filters: Vec<ScanFilter>,
}

impl ScanProjection {
    /// The partner test among the filters: `(field, filter id, join
    /// partitions)`.
    pub fn partner(&self) -> Option<(&str, usize, usize)> {
        self.filters.iter().find_map(|f| match f {
            ScanFilter::Partner { field, filter_id, join_nparts } => {
                Some((field.as_str(), *filter_id, *join_nparts))
            }
            ScanFilter::Cmp { .. } => None,
        })
    }

    /// `record` as the read is asked to produce it: cut to `fields` (the
    /// ones it has), whole when `fields` is `None`.
    pub fn cut(&self, record: &Value) -> Value {
        let Some(fields) = &self.fields else { return record.clone() };
        let mut rec = asterix_adm::Record::new();
        for f in fields {
            let v = record.field(f);
            if !matches!(v, Value::Missing) {
                rec.set(f.clone(), v);
            }
        }
        Value::record(rec)
    }

    /// What `explain` appends to every read's operator name: `[cols: a,b]`
    /// (`[cols: *]` for whole records, `[cols: none]` for no field) and
    /// the pushed filters, constants elided.
    pub fn label(&self) -> String {
        let cols = match &self.fields {
            None => "*".into(),
            Some(f) if f.is_empty() => "none".into(),
            Some(f) => f.join(","),
        };
        let mut label = format!(" [cols: {cols}]");
        if !self.filters.is_empty() {
            let fs: Vec<String> = self.filters.iter().map(ScanFilter::label).collect();
            label.push_str(&format!(" [filter: {}]", fs.join(", ")));
        }
        label
    }
}

/// Everything the compiler and interpreter need from the system catalog
/// and storage.
pub trait MetadataProvider: Send + Sync {
    /// Number of storage partitions per dataset (degree of parallelism for
    /// scans — "the number of partitions that is used to store the
    /// Dataset", §4.1).
    fn partitions(&self) -> usize;

    /// Partitions hosted per simulated node (locality domains for the
    /// locality-aware connector). Defaults to one partition per node.
    fn partitions_per_node(&self) -> usize {
        1
    }

    /// Monotonic catalog version, bumped by every DDL statement. Cached
    /// compiled plans record the epoch they were built under and are
    /// discarded when it moves (see DESIGN.md "Plan cache & prepared
    /// queries"). Providers without DDL can keep the constant default.
    fn catalog_epoch(&self) -> u64 {
        0
    }

    /// Does the dataset exist (dataverse-qualified name)?
    fn dataset_exists(&self, dataset: &str) -> bool;

    /// Primary-key field names of a dataset.
    fn primary_key_fields(&self, dataset: &str) -> Vec<String>;

    /// Secondary indexes of a dataset.
    fn indexes(&self, dataset: &str) -> Vec<IndexInfo>;

    /// The one partition that can hold the record whose primary key equals
    /// `key`, when the provider can tell: the dataset is hash-partitioned
    /// on a single-field key. The compiler then searches that partition
    /// alone for a primary-key equality. `None` (the default) searches
    /// every partition.
    fn primary_partition_of(&self, _dataset: &str, _key: &Value) -> Option<usize> {
        None
    }

    /// About how many records the dataset holds, when the provider can say
    /// without reading them — the compiler sizes join inputs by it, per
    /// execution. An over-count is fine (an LSM index counts superseded
    /// versions and tombstones); `None` (the default) leaves the plan as
    /// written.
    fn dataset_rows(&self, _dataset: &str) -> Option<u64> {
        None
    }

    // -- compiled-path sources (per-partition, run inside operators) -------

    /// The read of a dataset: emits the offset-prefixed tuple encoding of
    /// one single-column tuple per record directly, so the read feeds the
    /// byte-frame exchange without materializing a `Value` per record. It
    /// covers the primary keys between `lo` and `hi` — both `Unbounded`
    /// for a scan; a bound on a composite key applies to its first field —
    /// of the caller's partition. The compiler always passes the
    /// `projection` it derived and the provider always honors it: records
    /// come cut to `projection.fields` (whole when `None`), and the filters
    /// may drop rows early — the select above re-applies them; providers
    /// backed by columnar components decide them on raw column bytes and
    /// late-materialize the survivors (see DESIGN.md "Columnar storage").
    /// A dataset without a primary index (a virtual one) may ignore the
    /// bounds: the search's post-validation decides.
    fn raw_scan_source(
        &self,
        dataset: &str,
        projection: &ScanProjection,
        lo: KeyBound,
        hi: KeyBound,
    ) -> Result<RawSourceFn>;

    /// Search of a secondary index: emits the encoded tuple of one matching
    /// entry's primary key at a time — its columns the primary-key fields —
    /// for the caller's partition (§2.2: "The result of a secondary key
    /// lookup is a set of primary keys"). Like every Hyracks source it
    /// hands over bytes, never values; the search ignores the runtime
    /// filter consult a [`RawSourceFn`] is offered.
    fn secondary_search(
        &self,
        dataset: &str,
        index: &str,
        probe: IndexProbe,
    ) -> Result<RawSourceFn>;

    /// Batched primary-index fetch — the key-list twin of
    /// [`Self::raw_scan_source`], taking the same `projection` and emitting
    /// the same encoded single-column tuples, for the records a batch of
    /// primary keys names (see [`FetchFn`]). Serves the lookup after a
    /// secondary-index search and the inner side of an index nested-loop
    /// join.
    fn primary_fetch(&self, dataset: &str, projection: &ScanProjection) -> Result<FetchFn>;

    // -- interpreter-path access (whole dataset, partition-transparent) ----

    /// All records (interpreter / correlated subplans).
    fn scan_all(&self, dataset: &str) -> Result<Vec<Value>>;

    /// Point lookup by primary key across partitions.
    fn lookup_pk(&self, dataset: &str, pk: &[Value]) -> Result<Option<Value>>;

    /// Cross-partition primary-index range scan returning records.
    fn primary_range_all(&self, dataset: &str, lo: KeyBound, hi: KeyBound) -> Result<Vec<Value>>;

    /// [`Self::secondary_search`] over every partition, its keys decoded
    /// and collected: the probe of an index nested-loop join and the
    /// interpreter's searches. With no probe — the index cannot narrow the
    /// search, and the caller's postcondition decides — the key of every
    /// record, from a read of the key fields alone.
    fn secondary_search_all(
        &self,
        dataset: &str,
        index: &str,
        probe: Option<IndexProbe>,
    ) -> Result<Vec<Vec<Value>>> {
        let nparts = self.partitions();
        let mut out = Vec::new();
        let Some(probe) = probe else {
            let pk = self.primary_key_fields(dataset);
            let mut fields: Vec<String> =
                pk.iter().map(|f| f.split('.').next().unwrap_or(f).to_string()).collect();
            fields.sort();
            fields.dedup();
            let keys = ScanProjection { fields: Some(fields), filters: Vec::new() };
            let read =
                self.raw_scan_source(dataset, &keys, KeyBound::Unbounded, KeyBound::Unbounded)?;
            for p in 0..nparts {
                read(p, nparts, None, &mut |t| {
                    let r = asterix_adm::TupleRef::new(t)?.field(0).to_value()?;
                    out.push(
                        pk.iter()
                            .map(|f| f.split('.').fold(r.clone(), |v, s| v.field(s)))
                            .collect(),
                    );
                    Ok(())
                })?;
            }
            return Ok(out);
        };
        let search = self.secondary_search(dataset, index, probe)?;
        for p in 0..nparts {
            search(p, nparts, None, &mut |pk| {
                out.push(asterix_adm::decode_tuple(pk)?);
                Ok(())
            })?;
        }
        Ok(out)
    }
}

/// Test support: a provider with no datasets.
pub mod tests_support {
    use super::*;

    /// Provider exposing nothing; used by expression-level tests.
    pub struct EmptyProvider;

    impl MetadataProvider for EmptyProvider {
        fn partitions(&self) -> usize {
            1
        }

        fn dataset_exists(&self, _dataset: &str) -> bool {
            false
        }

        fn primary_key_fields(&self, _dataset: &str) -> Vec<String> {
            Vec::new()
        }

        fn indexes(&self, _dataset: &str) -> Vec<IndexInfo> {
            Vec::new()
        }

        fn raw_scan_source(
            &self,
            dataset: &str,
            _projection: &ScanProjection,
            _lo: KeyBound,
            _hi: KeyBound,
        ) -> Result<RawSourceFn> {
            Err(asterix_hyracks::HyracksError::Operator(format!("unknown dataset {dataset}")))
        }

        fn primary_range_all(
            &self,
            dataset: &str,
            _lo: KeyBound,
            _hi: KeyBound,
        ) -> Result<Vec<Value>> {
            Err(asterix_hyracks::HyracksError::Operator(format!("unknown dataset {dataset}")))
        }

        fn secondary_search(
            &self,
            dataset: &str,
            _index: &str,
            _probe: IndexProbe,
        ) -> Result<RawSourceFn> {
            Err(asterix_hyracks::HyracksError::Operator(format!("unknown dataset {dataset}")))
        }

        fn primary_fetch(&self, dataset: &str, _projection: &ScanProjection) -> Result<FetchFn> {
            Err(asterix_hyracks::HyracksError::Operator(format!("unknown dataset {dataset}")))
        }

        fn scan_all(&self, dataset: &str) -> Result<Vec<Value>> {
            Err(asterix_hyracks::HyracksError::Operator(format!("unknown dataset {dataset}")))
        }

        fn lookup_pk(&self, dataset: &str, _pk: &[Value]) -> Result<Option<Value>> {
            Err(asterix_hyracks::HyracksError::Operator(format!("unknown dataset {dataset}")))
        }
    }

    /// A simple in-memory provider for compiler tests: named datasets as
    /// vectors of records, hash-partitioned on demand, no declared indexes
    /// (its secondary search answers a `Range` probe and takes the index
    /// name as the name of the field it would index, for hand-built
    /// index-NL joins). Its read honors the key
    /// bounds (on the first key field), the projection's fields and its
    /// partner test, its fetch the projection's fields; comparisons are
    /// left to the select above.
    pub struct VecProvider {
        pub datasets: std::collections::HashMap<String, Vec<Value>>,
        pub pk_fields: std::collections::HashMap<String, Vec<String>>,
        pub nparts: usize,
        /// Answer [`MetadataProvider::primary_partition_of`] (the default);
        /// off, every primary-key search runs on all partitions.
        pub knows_owner: bool,
        /// Answer [`MetadataProvider::dataset_rows`] (the default); off,
        /// no dataset's size is known.
        pub counts_rows: bool,
    }

    impl VecProvider {
        pub fn new(nparts: usize) -> VecProvider {
            VecProvider {
                datasets: Default::default(),
                pk_fields: Default::default(),
                nparts,
                knows_owner: true,
                counts_rows: true,
            }
        }

        pub fn add(&mut self, name: &str, pk: &str, records: Vec<Value>) {
            self.datasets.insert(name.to_string(), records);
            self.pk_fields.insert(name.to_string(), vec![pk.to_string()]);
        }
    }

    /// The partition a record sits on: datasets are hash-partitioned by
    /// primary key, as real ones are.
    fn partition_of(record: &Value, pk_fields: &[String], nparts: usize) -> usize {
        let h = pk_fields.first().map(|f| record.field(f).stable_hash()).unwrap_or(0);
        (h % nparts as u64) as usize
    }

    fn has_pk(record: &Value, pk_fields: &[String], pk: &[Value]) -> bool {
        pk_fields.iter().zip(pk).all(|(f, v)| record.field(f).total_cmp(v).is_eq())
    }

    fn within(k: &Value, lo: &KeyBound, hi: &KeyBound) -> bool {
        let lo_ok = match lo {
            KeyBound::Unbounded => true,
            KeyBound::Inclusive(v) => k.total_cmp(v).is_ge(),
            KeyBound::Exclusive(v) => k.total_cmp(v).is_gt(),
        };
        let hi_ok = match hi {
            KeyBound::Unbounded => true,
            KeyBound::Inclusive(v) => k.total_cmp(v).is_le(),
            KeyBound::Exclusive(v) => k.total_cmp(v).is_lt(),
        };
        lo_ok && hi_ok
    }

    impl MetadataProvider for VecProvider {
        fn partitions(&self) -> usize {
            self.nparts
        }

        fn dataset_exists(&self, dataset: &str) -> bool {
            self.datasets.contains_key(dataset)
        }

        fn primary_key_fields(&self, dataset: &str) -> Vec<String> {
            self.pk_fields.get(dataset).cloned().unwrap_or_default()
        }

        fn indexes(&self, _dataset: &str) -> Vec<IndexInfo> {
            Vec::new()
        }

        fn primary_partition_of(&self, _dataset: &str, key: &Value) -> Option<usize> {
            // The partition the sources below emit a record with this key on.
            self.knows_owner.then(|| (key.stable_hash() % self.nparts as u64) as usize)
        }

        fn dataset_rows(&self, dataset: &str) -> Option<u64> {
            self.datasets.get(dataset).filter(|_| self.counts_rows).map(|rs| rs.len() as u64)
        }

        fn raw_scan_source(
            &self,
            dataset: &str,
            projection: &ScanProjection,
            lo: KeyBound,
            hi: KeyBound,
        ) -> Result<RawSourceFn> {
            let records = self.scan_all(dataset)?;
            let pk_fields = self.primary_key_fields(dataset);
            let pk = pk_fields.first().cloned().unwrap_or_default();
            let projection = projection.clone();
            let partner = projection.partner().map(|(field, ..)| field.to_string());
            Ok(Arc::new(move |partition, nparts, mut consult, emit| {
                for r in &records {
                    if partition_of(r, &pk_fields, nparts) != partition
                        || !within(&r.field(&pk), &lo, &hi)
                    {
                        continue;
                    }
                    if let (Some(field), Some(consult)) = (&partner, consult.as_deref_mut()) {
                        let key = asterix_adm::serde::encode(&r.field(field));
                        consult.poll();
                        if !consult.keep_value(asterix_adm::ValueRef::new(&key)) {
                            continue;
                        }
                    }
                    emit(&asterix_adm::encode_tuple(&[projection.cut(r)]))?;
                }
                Ok(())
            }))
        }

        fn primary_range_all(
            &self,
            dataset: &str,
            lo: KeyBound,
            hi: KeyBound,
        ) -> Result<Vec<Value>> {
            let pk = self.primary_key_fields(dataset).first().cloned().unwrap_or_default();
            Ok(self
                .scan_all(dataset)?
                .into_iter()
                .filter(|r| within(&r.field(&pk), &lo, &hi))
                .collect())
        }

        fn secondary_search(
            &self,
            dataset: &str,
            index: &str,
            probe: IndexProbe,
        ) -> Result<RawSourceFn> {
            let IndexProbe::Range { lo, hi } = probe else {
                return Err(asterix_hyracks::HyracksError::Operator("no indexes".into()));
            };
            let records = self.scan_all(dataset)?;
            let pk_fields = self.primary_key_fields(dataset);
            let field = index.to_string();
            Ok(Arc::new(move |partition, nparts, _consult, emit| {
                for r in &records {
                    if partition_of(r, &pk_fields, nparts) == partition
                        && within(&r.field(&field), &lo, &hi)
                    {
                        let pk: Vec<Value> = pk_fields.iter().map(|f| r.field(f)).collect();
                        emit(&asterix_adm::encode_tuple(&pk))?;
                    }
                }
                Ok(())
            }))
        }

        fn primary_fetch(&self, dataset: &str, projection: &ScanProjection) -> Result<FetchFn> {
            let records = self.datasets.get(dataset).cloned().unwrap_or_default();
            let pk_fields = self.primary_key_fields(dataset);
            let projection = projection.clone();
            Ok(Arc::new(move |pks, emit| {
                let mut order: Vec<usize> = (0..pks.len()).collect();
                order.sort_by(|a, b| {
                    let by_field = pks[*a].iter().zip(&pks[*b]).map(|(x, y)| x.total_cmp(y));
                    by_field.fold(std::cmp::Ordering::Equal, std::cmp::Ordering::then)
                });
                for i in order {
                    if let Some(r) = records.iter().find(|r| has_pk(r, &pk_fields, &pks[i])) {
                        emit(i, &asterix_adm::encode_tuple(&[projection.cut(r)]))?;
                    }
                }
                Ok(())
            }))
        }

        fn scan_all(&self, dataset: &str) -> Result<Vec<Value>> {
            self.datasets.get(dataset).cloned().ok_or_else(|| {
                asterix_hyracks::HyracksError::Operator(format!("unknown dataset {dataset}"))
            })
        }

        fn lookup_pk(&self, dataset: &str, pk: &[Value]) -> Result<Option<Value>> {
            let pk_fields = self.primary_key_fields(dataset);
            Ok(self.scan_all(dataset)?.into_iter().find(|r| has_pk(r, &pk_fields, pk)))
        }
    }
}
