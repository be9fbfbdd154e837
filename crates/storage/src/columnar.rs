//! Columnar-component support types: the row codec bridging the stored
//! row encoding to the self-describing ADM encoding, build options and
//! thresholds, projection descriptors for late-materialized scans, and the
//! `storage.columnar.*` observability counters.
//!
//! The storage layer stores opaque row bytes; shredding them into columns
//! requires translating to the self-describing record encoding that
//! [`asterix_adm::colschema`] understands. [`RowCodec`] is that bridge —
//! the engine above supplies one per dataset (typed ↔ self-describing),
//! and tests can use [`SelfDescribingCodec`] when rows already are the
//! self-describing encoding.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use asterix_adm::tuple::ValueRef;
use asterix_obs::{Counter, MetricsRegistry};

/// Bidirectional translation between the stored row encoding and the
/// self-describing ADM encoding. Both directions return `None` for rows
/// that cannot be translated — such rows ride the spill path verbatim.
///
/// The contract that makes columnar reads bit-exact: for every row the
/// builder shreds, `to_stored(splice(shred(to_self_describing(row)))) ==
/// row` is verified at build time, and rows failing it are spilled.
pub trait RowCodec: Send + Sync {
    fn to_self_describing(&self, stored: &[u8]) -> Option<Vec<u8>>;
    fn to_stored(&self, sd: &[u8]) -> Option<Vec<u8>>;

    /// The rows' declared top-level field names, in the order
    /// `to_self_describing` yields them: the column order schema inference
    /// follows ([`asterix_adm::colschema::SchemaBuilder::finish`]), so that
    /// every component of a stable dataset infers the same column list.
    /// Empty — first-seen order — for rows without a declared type.
    fn declared_fields(&self) -> &[String] {
        &[]
    }
}

/// Identity codec for stores whose row format already is the
/// self-describing encoding (tests, schemaless byte stores).
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfDescribingCodec;

impl RowCodec for SelfDescribingCodec {
    fn to_self_describing(&self, stored: &[u8]) -> Option<Vec<u8>> {
        Some(stored.to_vec())
    }

    fn to_stored(&self, sd: &[u8]) -> Option<Vec<u8>> {
        Some(sd.to_vec())
    }
}

/// Counters for the columnar path, registered under `storage.columnar.*`.
#[derive(Debug, Clone, Default)]
pub struct ColumnarStats {
    /// Columnar disk components built (flushes and merges).
    pub components: Counter,
    /// Column page runs actually read by projecting scans.
    pub columns_projected: Counter,
    /// Bytes of column runs a projecting scan did NOT have to read.
    pub bytes_skipped: Counter,
    /// Rows that fell back to the row-stored spill column at build time.
    pub fallback_rows: Counter,
    /// Shredded rows a scan's pushed filters rejected on raw column bytes
    /// (never assembled).
    pub rows_filtered: Counter,
    /// Shredded rows a scan assembled into a record.
    pub rows_assembled: Counter,
    /// Wanted keys a key-list fetch found in the row groups it visited
    /// (point probes — `DiskComponent::get` — count as neither).
    pub fetch_keys: Counter,
    /// Row groups a key-list fetch visited; `fetch_keys / fetch_groups` is
    /// what batching a fetch's keys per group buys.
    pub fetch_groups: Counter,
}

impl ColumnarStats {
    pub fn register_into(&self, reg: &MetricsRegistry, prefix: &str) {
        reg.register_counter(&format!("{prefix}.components"), &self.components);
        reg.register_counter(&format!("{prefix}.columns_projected"), &self.columns_projected);
        reg.register_counter(&format!("{prefix}.bytes_skipped"), &self.bytes_skipped);
        reg.register_counter(&format!("{prefix}.fallback_rows"), &self.fallback_rows);
        reg.register_counter(&format!("{prefix}.rows_filtered"), &self.rows_filtered);
        reg.register_counter(&format!("{prefix}.rows_assembled"), &self.rows_assembled);
        reg.register_counter(&format!("{prefix}.fetch_keys"), &self.fetch_keys);
        reg.register_counter(&format!("{prefix}.fetch_groups"), &self.fetch_groups);
    }
}

/// Minimum fraction of rows a field must appear in to earn a column.
pub const MIN_PRESENCE: f64 = 0.25;

/// Minimum fraction of rows that must shred cleanly for a columnar build
/// to go ahead; below it the component falls back to row format.
pub const MIN_SHRED_FRACTION: f64 = 0.5;

/// Cap on inferred columns (highest presence wins).
pub const MAX_COLUMNS: usize = 48;

/// Per-tree columnar configuration, carried on `LsmConfig`. Whether a
/// component is columnar is decided per flush and merge by the data it
/// holds (see [`MIN_PRESENCE`], [`MIN_SHRED_FRACTION`]).
#[derive(Clone)]
pub struct ColumnarOptions {
    /// Stored-row ↔ self-describing translation for this tree's values.
    pub codec: Arc<dyn RowCodec>,
    pub stats: Arc<ColumnarStats>,
}

impl ColumnarOptions {
    pub fn new(codec: Arc<dyn RowCodec>) -> Self {
        ColumnarOptions { codec, stats: Arc::new(ColumnarStats::default()) }
    }
}

impl fmt::Debug for ColumnarOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ColumnarOptions").finish_non_exhaustive()
    }
}

/// Comparison operator for [`ColumnFilter`], mirroring the executor's
/// `CmpKind` so jobgen predicates translate one-to-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn apply(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Neq => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// A membership test the engine above storage supplies for one scan: does
/// a join-key value have a partner on the build side of a hash join? It is
/// fed one column's raw values, so a row without a partner is dropped
/// before any other column of it is read.
pub trait PartnerTest {
    /// Pick up what the build side has published since the last call.
    /// Called once per row group, before any of its rows is tested.
    fn poll(&self);

    /// `true` when `value` — one field value's self-describing encoding —
    /// DEFINITELY has no partner. While the build side has not published
    /// yet nothing is rejected.
    fn rejects(&self, value: &[u8]) -> bool;
}

/// A pushed-down conjunct decided on one column's bytes before any row
/// assembly: `field <op> constant`, or "`field` has a join partner".
#[derive(Clone)]
pub enum ColumnFilter<'t> {
    /// `key` is the precomputed `ordkey` encoding of the constant.
    Cmp { field: String, op: CmpOp, key: Vec<u8> },
    /// The test belongs to one run of one scan (`'t`): it is handed in
    /// when the scan starts, never stored with a plan.
    Partner { field: String, test: &'t dyn PartnerTest },
}

impl fmt::Debug for ColumnFilter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnFilter::Cmp { field, op, key } => f
                .debug_struct("Cmp")
                .field("field", field)
                .field("op", op)
                .field("key", key)
                .finish(),
            ColumnFilter::Partner { field, .. } => {
                f.debug_struct("Partner").field("field", field).finish_non_exhaustive()
            }
        }
    }
}

impl ColumnFilter<'_> {
    /// The field whose bytes the filter reads.
    pub fn field(&self) -> &str {
        match self {
            ColumnFilter::Cmp { field, .. } | ColumnFilter::Partner { field, .. } => field,
        }
    }

    /// Called once per row group before its rows are decided.
    pub fn begin_group(&self) {
        if let ColumnFilter::Partner { test, .. } = self {
            test.poll();
        }
    }

    /// `true` when the row is DEFINITELY rejected by this filter. A
    /// comparison rejects a field that is absent or unknown (comparisons
    /// with MISSING/NULL are unknown, which a select drops) or whose
    /// ordkey transcoding compares false against the constant; a partner
    /// test rejects a present value its test rejects. Indecisive cases —
    /// non-scalar values, numerics past the exact bound, a key field that
    /// is absent, a build side that has not published — keep the row; the
    /// operator above re-evaluates every surviving row, so this can only
    /// be used under the predicate it was derived from.
    pub fn rejects(&self, field_sd: Option<&[u8]>, scratch: &mut Vec<u8>) -> bool {
        match self {
            ColumnFilter::Cmp { op, key, .. } => {
                let Some(bytes) = field_sd else { return true };
                if ValueRef::new(bytes).is_unknown() {
                    return true;
                }
                scratch.clear();
                if !asterix_adm::ordkey::encoded_scalar_key_into(bytes, scratch) {
                    return false; // indecisive: let the select decide
                }
                !op.apply(scratch.as_slice().cmp(key.as_slice()))
            }
            ColumnFilter::Partner { test, .. } => field_sd.is_some_and(|bytes| test.rejects(bytes)),
        }
    }
}

/// What a late-materializing scan should produce for each surviving row:
/// the named fields, in order, assembled into a self-describing record —
/// or, with `fields: None`, the whole record — after every pushed filter
/// has been decided on raw column bytes.
#[derive(Debug, Clone)]
pub struct Projection<'t> {
    /// `None` = all fields: the scan variable escapes, so surviving rows
    /// are spliced back into full records.
    pub fields: Option<Vec<String>>,
    /// Conjuncts of the predicate above the scan; a row any of them
    /// definitely rejects is never assembled.
    pub filters: Vec<ColumnFilter<'t>>,
}

impl Projection<'static> {
    /// Every field of every row: the plain full scan.
    pub fn all() -> Self {
        Projection { fields: None, filters: Vec::new() }
    }
}

/// Which keys a late-materializing scan covers: the range `[lo, hi)`
/// (`None` bounds are open); or — the primary fetch behind a secondary
/// index — a list of keys, sorted ascending and de-duplicated; or — the
/// B-tree probes of a batch of index nested-loop join tuples — a list of
/// ranges, sorted ascending and disjoint, read in one forward pass as
/// stored rows (a columnar component does not project them).
#[derive(Debug, Clone, Copy)]
pub enum ScanBound<'a> {
    Range { lo: Option<&'a [u8]>, hi: Option<&'a [u8]> },
    Keys(&'a [Vec<u8>]),
    Ranges(&'a [KeyRange]),
}

/// One `[lo, hi)` key range of a [`ScanBound::Ranges`] list (`None` bounds
/// are open).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRange {
    pub lo: Option<Vec<u8>>,
    pub hi: Option<Vec<u8>>,
}

impl KeyRange {
    /// Does the range hold no key at all?
    pub fn is_empty(&self) -> bool {
        matches!((&self.lo, &self.hi), (Some(lo), Some(hi)) if lo >= hi)
    }

    /// Does the range hold `key`?
    pub fn holds(&self, key: &[u8]) -> bool {
        self.lo.as_deref().is_none_or(|lo| lo <= key)
            && self.hi.as_deref().is_none_or(|hi| key < hi)
    }
}

impl ScanBound<'_> {
    /// Every key: the full scan.
    pub const ALL: ScanBound<'static> = ScanBound::Range { lo: None, hi: None };
}
