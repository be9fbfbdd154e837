//! The LSM-ification framework (§4.3).
//!
//! [`LsmTree`] converts an in-place-update index discipline into a
//! deferred-update, append-only one: writes land in an in-memory component;
//! when its budget is exceeded the component is **sealed** and handed to a
//! per-tree background maintenance thread that builds the immutable disk
//! component and applies the [`MergePolicy`] — the write path never waits
//! for flush or merge I/O (§4.2's non-stalling ingest). Readers consult the
//! mutable component, then sealed-but-unflushed components newest → oldest,
//! then disk components, so no visibility gap exists at any point of the
//! flush pipeline. Deletes are antimatter entries. This harness backs the
//! LSM B+-tree directly and, through their key layouts, the inverted and
//! spatial indexes.
//!
//! Background I/O failures are *deferred*: they surface as the error of the
//! next write, [`LsmTree::flush`], or [`LsmTree::close`] call, mirroring
//! how a real engine reports asynchronous flush failures.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use asterix_obs::{log_event, now_us, Counter, Gauge, Histogram, MetricsRegistry, TraceContext};
use asterix_sync::{Condvar, Mutex, RwLock};

use crate::cache::BufferCache;
use crate::columnar::{ColumnarOptions, KeyRange, Projection, ScanBound};
use crate::component::{
    ComponentConfig, ComponentIter, DiskComponent, Entry, ProjEntry, ProjKind, ProjectedIter,
};
use crate::error::{Result, StorageError};
use crate::merge::{merge_newest, MergeSource};

/// When and what to merge (§4.3 "subject to some merge policy").
#[derive(Debug, Clone)]
pub enum MergePolicy {
    /// Never merge — flushes accumulate (useful for tests and ablations).
    NoMerge,
    /// Keep at most `max` disk components; when exceeded, merge all of them
    /// into one (AsterixDB's "constant" policy).
    Constant { max: usize },
    /// AsterixDB's "prefix" policy: merge the longest prefix of (newest →
    /// oldest) components whose combined size is below
    /// `max_mergable_size` once more than `max_tolerance` such components
    /// accumulate.
    Prefix { max_mergable_size: u64, max_tolerance: usize },
}

impl Default for MergePolicy {
    fn default() -> Self {
        MergePolicy::Prefix { max_mergable_size: 64 << 20, max_tolerance: 4 }
    }
}

/// LSM tuning knobs.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// In-memory component budget in bytes before an automatic flush.
    pub mem_budget: usize,
    pub page_size: usize,
    pub bloom_fpp: f64,
    pub merge_policy: MergePolicy,
    /// How many sealed in-memory components may queue for background
    /// flushing before writers block (AsterixDB keeps a small fixed pool of
    /// memory components per index). Bounds write-path memory to roughly
    /// `(1 + max_frozen) × mem_budget`.
    pub max_frozen: usize,
    /// Columnar storage for this tree's values: flushes (and merges that
    /// cannot copy their inputs' runs) infer a schema from the rows and
    /// build column-major components when the data is stable enough (row
    /// layout remains the fallback). `None`
    /// keeps the tree purely row-oriented. A tree that ever built columnar
    /// components must keep supplying the codec here, or they cannot be
    /// reopened; a row-only tree reopened with it reads its row
    /// components as before and flushes columnar from then on.
    pub columnar: Option<ColumnarOptions>,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            mem_budget: 4 << 20,
            page_size: crate::cache::PAGE_SIZE,
            bloom_fpp: 0.01,
            merge_policy: MergePolicy::default(),
            max_frozen: 2,
            columnar: None,
        }
    }
}

#[derive(Debug, Clone)]
struct MemEntry {
    antimatter: bool,
    value: Vec<u8>,
}

/// A sealed in-memory component waiting for (or undergoing) its background
/// flush. Readers consult it between `mem` and `disk` so no window exists
/// in which sealed-but-not-yet-installed data is invisible.
struct FrozenComponent {
    seq: u64,
    /// Recovery watermark captured from [`LsmObserver::on_seal`] at seal
    /// time — it describes exactly the operations contained in `entries`,
    /// never ones that raced in after the seal.
    watermark: u64,
    bytes: usize,
    entries: Arc<BTreeMap<Vec<u8>, MemEntry>>,
}

struct LsmState {
    mem: BTreeMap<Vec<u8>, MemEntry>,
    mem_bytes: usize,
    /// Sealed components, oldest first (the maintenance thread flushes from
    /// the front; readers scan from the back).
    frozen: Vec<FrozenComponent>,
    /// Disk components, newest first.
    disk: Vec<Arc<DiskComponent>>,
    next_seq: u64,
}

/// Lifecycle events surfaced to the transaction/recovery layer.
pub trait LsmObserver: Send + Sync {
    /// Called synchronously on the writer's thread at the moment the
    /// mutable component is sealed, before any new write lands in the
    /// fresh component. Returns the recovery watermark (e.g. the last WAL
    /// LSN applied to this index) to associate with the eventual flush.
    /// Capturing it here — not when the flush completes — keeps the
    /// watermark consistent with the sealed contents under background
    /// flushing.
    fn on_seal(&self) -> u64 {
        0
    }
    /// A flush produced `component_path` covering flush sequences up to and
    /// including `max_seq`; `watermark` is the value [`LsmObserver::on_seal`]
    /// returned when the component was sealed.
    fn on_flush(&self, _component_path: &Path, _max_seq: u64, _watermark: u64) {}
    /// A merge replaced `inputs` with `output`.
    fn on_merge(&self, _inputs: &[PathBuf], _output: &Path) {}
}

/// No-op observer.
pub struct NullObserver;
impl LsmObserver for NullObserver {}

/// Per-tree maintenance metrics, updated by the background thread.
/// Cheap `Arc`-backed clones; adopt them into a [`MetricsRegistry`] with
/// [`LsmMetrics::register_into`].
#[derive(Clone, Debug, Default)]
pub struct LsmMetrics {
    /// Completed background flushes (disk components installed).
    pub flushes: Counter,
    /// Completed merges (policy-triggered or manual).
    pub merges: Counter,
    /// Those of them that copied column runs
    /// ([`DiskComponent::merge_columnar`]) instead of rebuilding.
    pub merges_copied: Counter,
    /// Flush durations (seal dequeue → component installed), microseconds.
    pub flush_us: Histogram,
    /// Merge durations, microseconds.
    pub merge_us: Histogram,
    /// Current number of disk components.
    pub components: Gauge,
}

impl LsmMetrics {
    /// Register every metric under `{prefix}.{flushes,merges,...}`.
    pub fn register_into(&self, reg: &MetricsRegistry, prefix: &str) {
        reg.register_counter(&format!("{prefix}.flushes"), &self.flushes);
        reg.register_counter(&format!("{prefix}.merges"), &self.merges);
        reg.register_counter(&format!("{prefix}.merges_copied"), &self.merges_copied);
        reg.register_histogram(&format!("{prefix}.flush_us"), &self.flush_us);
        reg.register_histogram(&format!("{prefix}.merge_us"), &self.merge_us);
        reg.register_gauge(&format!("{prefix}.components"), &self.components);
    }
}

/// Work orders for the maintenance thread. Synchronous requests carry the
/// requester's trace context so their flush/merge spans land in the
/// triggering query's trace; background `Work` uses the tree's installed
/// default.
enum MaintMsg {
    /// Sealed components are queued; flush them (and merge per policy).
    Work,
    /// Flush everything queued, then ack with the last component path.
    Drain(SyncSender<Result<Option<PathBuf>>>, TraceContext),
    /// Flush everything queued, then merge all disk components.
    MergeAll(SyncSender<Result<()>>, TraceContext),
    /// Exit after a best-effort drain.
    Shutdown,
}

/// State shared between the tree handle and its maintenance thread.
struct LsmInner {
    dir: PathBuf,
    cfg: LsmConfig,
    cache: Arc<BufferCache>,
    state: RwLock<LsmState>,
    observer: Arc<dyn LsmObserver>,
    /// First unreported background I/O error; surfaced to the next caller.
    deferred: Mutex<Option<StorageError>>,
    /// Signals a change in the frozen queue (for writers blocked on
    /// `max_frozen`).
    frozen_cv: Condvar,
    frozen_lock: Mutex<()>,
    metrics: LsmMetrics,
    /// Default trace for background maintenance spans (installed via
    /// [`LsmTree::set_trace`]; disabled unless an embedder opts in).
    trace: Mutex<TraceContext>,
}

impl LsmInner {
    fn defer_error(&self, e: StorageError) {
        let mut d = self.deferred.lock();
        if d.is_none() {
            *d = Some(e);
        }
    }

    fn take_deferred(&self) -> Option<StorageError> {
        self.deferred.lock().take()
    }

    /// Trace to record maintenance spans into: the requester's (when it is
    /// an enabled synchronous request), else the tree's installed default.
    /// Either way the spans carry the maintenance thread's label.
    fn maint_trace(&self, req: &TraceContext) -> TraceContext {
        let base = if req.is_enabled() { req.clone() } else { self.trace.lock().clone() };
        base.with_label("lsm-maint")
    }

    fn notify_frozen(&self) {
        let _g = self.frozen_lock.lock();
        self.frozen_cv.notify_all();
    }

    fn component_config(&self) -> ComponentConfig {
        ComponentConfig { page_size: self.cfg.page_size, bloom_fpp: self.cfg.bloom_fpp }
    }

    /// Build one disk component from sorted entries, preferring the
    /// columnar layout when the tree has one and the data's schema is
    /// stable enough; otherwise (or when the columnar build declines) the
    /// row layout is used. Flushes and rebuilding merges share this, which
    /// is what lets a merge re-infer across its inputs and promote row
    /// components to columnar.
    fn build_component(
        &self,
        path: &Path,
        min_seq: u64,
        max_seq: u64,
        entries: Vec<Entry>,
    ) -> Result<Arc<DiskComponent>> {
        let ccfg = self.component_config();
        if let Some(col) = &self.cfg.columnar {
            if let Some(c) = DiskComponent::build_columnar(
                path,
                Arc::clone(&self.cache),
                &ccfg,
                col,
                min_seq,
                max_seq,
                &entries,
            )? {
                return Ok(c);
            }
        }
        let n = entries.len();
        DiskComponent::build(path, Arc::clone(&self.cache), &ccfg, min_seq, max_seq, entries, n)
    }

    /// Block until the frozen queue has room (or a background error is
    /// pending, which the caller must surface instead of writing more).
    fn wait_for_frozen_capacity(&self, nudge: &Sender<MaintMsg>) -> Result<()> {
        let cap = self.cfg.max_frozen.max(1);
        let mut guard = self.frozen_lock.lock();
        loop {
            if self.state.read().frozen.len() < cap {
                return Ok(());
            }
            if let Some(e) = self.take_deferred() {
                return Err(e);
            }
            // Re-kick the worker in case an earlier error left the queue
            // stalled with no message in flight.
            let _ = nudge.send(MaintMsg::Work);
            self.frozen_cv.wait_for(&mut guard, Duration::from_millis(50));
        }
    }

    /// Flush every queued frozen component (oldest first), applying the
    /// merge policy after each install. Returns the path of the last
    /// component built.
    fn process_pending(self: &Arc<Self>, req: &TraceContext) -> Result<Option<PathBuf>> {
        let trace = self.maint_trace(req);
        let mut last = None;
        loop {
            let job = {
                let st = self.state.read();
                st.frozen.first().map(|f| (f.seq, f.watermark, Arc::clone(&f.entries)))
            };
            let Some((seq, watermark, entries)) = job else { break };
            let flush_started = Instant::now();
            let flush_start_us = now_us();
            let path = self.dir.join(format!("c_{seq:012}_{seq:012}.dat"));
            let n = entries.len();
            let comp = self.build_component(
                &path,
                seq,
                seq,
                entries
                    .iter()
                    .map(|(k, v)| Entry {
                        key: k.clone(),
                        antimatter: v.antimatter,
                        value: v.value.clone(),
                    })
                    .collect(),
            )?;
            let installed = {
                let mut st = self.state.write();
                // The snapshot may have been discarded while we built (crash
                // simulation); install only if it is still queued.
                match st.frozen.iter().position(|f| f.seq == seq) {
                    Some(pos) => {
                        st.frozen.remove(pos);
                        st.disk.insert(0, comp);
                        Some(st.disk.len())
                    }
                    None => None,
                }
            };
            self.notify_frozen();
            if let Some(ncomp) = installed {
                let took = flush_started.elapsed();
                self.metrics.flushes.inc();
                self.metrics.flush_us.record_duration(took);
                self.metrics.components.set(ncomp as i64);
                log_event(
                    "storage.lsm",
                    "flush",
                    &[
                        ("seq", seq.into()),
                        ("entries", n.into()),
                        ("duration_us", (took.as_micros() as u64).into()),
                        ("components", ncomp.into()),
                    ],
                );
                trace.record("lsm.flush", flush_start_us, took.as_micros() as u64);
                self.observer.on_flush(&path, seq, watermark);
                self.maybe_merge(&trace)?;
                last = Some(path);
            } else {
                let _ = std::fs::remove_file(&path);
            }
        }
        Ok(last)
    }

    /// Apply the merge policy; runs on the maintenance thread.
    fn maybe_merge(self: &Arc<Self>, trace: &TraceContext) -> Result<()> {
        let to_merge: Vec<Arc<DiskComponent>> = {
            let st = self.state.read();
            match &self.cfg.merge_policy {
                MergePolicy::NoMerge => Vec::new(),
                MergePolicy::Constant { max } => {
                    if st.disk.len() > *max {
                        st.disk.clone()
                    } else {
                        Vec::new()
                    }
                }
                MergePolicy::Prefix { max_mergable_size, max_tolerance } => {
                    // Longest prefix of newest components under the size cap.
                    let mut acc = 0u64;
                    let mut prefix = Vec::new();
                    for c in &st.disk {
                        if acc + c.file_len() > *max_mergable_size {
                            break;
                        }
                        acc += c.file_len();
                        prefix.push(Arc::clone(c));
                    }
                    if prefix.len() > *max_tolerance {
                        prefix
                    } else {
                        Vec::new()
                    }
                }
            }
        };
        if to_merge.len() < 2 {
            return Ok(());
        }
        self.merge_components(&to_merge, trace)
    }

    fn merge_components(
        self: &Arc<Self>,
        inputs: &[Arc<DiskComponent>],
        trace: &TraceContext,
    ) -> Result<()> {
        let merge_started = Instant::now();
        let merge_start_us = now_us();
        let min_seq = inputs.iter().map(|c| c.min_seq).min().unwrap();
        let max_seq = inputs.iter().map(|c| c.max_seq).max().unwrap();
        // Whether the merge includes the oldest on-disk data; if so,
        // antimatter entries can be dropped entirely.
        let includes_oldest = {
            let st = self.state.read();
            st.disk.iter().map(|c| c.min_seq).min() == Some(min_seq)
        };
        let out_path = self.dir.join(format!("c_{min_seq:012}_{max_seq:012}.dat"));
        // Inputs that are all columnar under one column list are merged by
        // copying their runs; anything else is rebuilt from stored rows.
        let copy = match &self.cfg.columnar {
            Some(col) => DiskComponent::merge_columnar(
                &out_path,
                Arc::clone(&self.cache),
                &self.component_config(),
                col,
                inputs,
                includes_oldest,
            )?,
            None => None,
        };
        let (comp, copied) = match copy {
            Some(comp) => (comp, true),
            None => {
                let merged = merge_entries(inputs, includes_oldest)?;
                (self.build_component(&out_path, min_seq, max_seq, merged)?, false)
            }
        };
        let n = comp.entry_count();
        // Atomically swap the component list, then destroy the inputs.
        let input_paths: Vec<PathBuf> = inputs.iter().map(|c| c.path().to_path_buf()).collect();
        let ncomp = {
            let mut st = self.state.write();
            st.disk.retain(|c| !input_paths.iter().any(|p| p == c.path()));
            let pos = st.disk.partition_point(|c| c.max_seq > max_seq);
            st.disk.insert(pos, comp);
            st.disk.len()
        };
        for c in inputs {
            c.destroy()?;
        }
        let took = merge_started.elapsed();
        self.metrics.merges.inc();
        if copied {
            self.metrics.merges_copied.inc();
        }
        self.metrics.merge_us.record_duration(took);
        self.metrics.components.set(ncomp as i64);
        log_event(
            "storage.lsm",
            "merge",
            &[
                ("output", out_path.display().to_string().into()),
                ("inputs", inputs.len().into()),
                ("copied", usize::from(copied).into()),
                ("entries", n.into()),
                ("duration_us", (took.as_micros() as u64).into()),
                ("components", ncomp.into()),
            ],
        );
        trace.record("lsm.merge", merge_start_us, took.as_micros() as u64);
        self.observer.on_merge(&input_paths, &out_path);
        Ok(())
    }
}

/// The rebuilding merge's input: every input's stored rows, merged
/// newest-wins — the inputs ordered by `max_seq`, newest first — with
/// antimatter dropped when `drop_antimatter`.
fn merge_entries(inputs: &[Arc<DiskComponent>], drop_antimatter: bool) -> Result<Vec<Entry>> {
    let mut inputs: Vec<&Arc<DiskComponent>> = inputs.iter().collect();
    inputs.sort_by_key(|c| std::cmp::Reverse(c.max_seq));
    let mut cursors = inputs
        .into_iter()
        .map(|c| Cursor::new(Source::Stored(c.range(None, None))))
        .collect::<Result<Vec<_>>>()?;
    let mut merged: Vec<Entry> = Vec::new();
    merge_newest(&mut cursors, |c| -> Result<bool> {
        if let Some(Head::Stored(mut entry)) = c.advance()? {
            if !(entry.antimatter && drop_antimatter) {
                // A value reconstructed from column runs comes out of the
                // codec's encoder with spare capacity, and every entry is
                // held until the merged component is built.
                entry.value.shrink_to_fit();
                merged.push(entry);
            }
        }
        Ok(true)
    })?;
    Ok(merged)
}

/// The maintenance thread: flushes sealed components and merges disk
/// components so the write path never blocks on I/O. All merges run here,
/// serializing them against flushes without any extra locking.
fn maintenance_loop(inner: Arc<LsmInner>, rx: Receiver<MaintMsg>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            MaintMsg::Work => {
                if let Err(e) = inner.process_pending(&TraceContext::disabled()) {
                    inner.defer_error(e);
                    inner.notify_frozen();
                }
            }
            MaintMsg::Drain(ack, req) => {
                let res = inner.process_pending(&req);
                let res = match (res, inner.take_deferred()) {
                    (Err(e), _) => Err(e),
                    (Ok(_), Some(e)) => Err(e),
                    (Ok(p), None) => Ok(p),
                };
                let _ = ack.send(res);
            }
            MaintMsg::MergeAll(ack, req) => {
                let res = inner.process_pending(&req).and_then(|_| {
                    let comps = inner.state.read().disk.clone();
                    if comps.len() < 2 {
                        Ok(())
                    } else {
                        inner.merge_components(&comps, &inner.maint_trace(&req))
                    }
                });
                let _ = ack.send(res);
            }
            MaintMsg::Shutdown => {
                if let Err(e) = inner.process_pending(&TraceContext::disabled()) {
                    inner.defer_error(e);
                }
                break;
            }
        }
    }
    // Wake any writer still blocked on frozen capacity so it can observe
    // the dead worker instead of hanging.
    inner.notify_frozen();
}

/// One value out of [`LsmTree::scan_projected`].
#[derive(Debug)]
pub enum ScanValue<'a> {
    /// A full stored row (from memory, sealed components, row-layout
    /// components, or a columnar spill run): the caller projects it.
    Row(&'a [u8]),
    /// The projected fields already assembled into a self-describing
    /// record by the columnar read path.
    Assembled(&'a [u8]),
}

/// The current entry of one source of a merged read. Memory entries stay
/// borrowed from the tree: the state lock is held for the whole read.
enum Head<'a> {
    Mem(&'a [u8], &'a MemEntry),
    /// A disk component's entry as stored.
    Stored(Entry),
    /// A columnar component's row, cut to a projection.
    Proj(ProjEntry),
}

impl Head<'_> {
    fn key(&self) -> &[u8] {
        match self {
            Head::Mem(k, _) => k,
            Head::Stored(e) => &e.key,
            Head::Proj(e) => &e.key,
        }
    }

    /// The key and what a reader sees of it; `None` for antimatter and for
    /// a row a pushed filter rejected.
    fn live(&self) -> Option<(&[u8], ScanValue<'_>)> {
        let value = match self {
            Head::Mem(_, v) => (!v.antimatter).then_some(ScanValue::Row(&v.value)),
            Head::Stored(e) => (!e.antimatter).then_some(ScanValue::Row(&e.value)),
            Head::Proj(e) => match &e.kind {
                ProjKind::Row(v) => Some(ScanValue::Row(v)),
                ProjKind::Assembled(v) => Some(ScanValue::Assembled(v)),
                ProjKind::Anti | ProjKind::Filtered => None,
            },
        };
        value.map(|v| (self.key(), v))
    }
}

type Keys<'a> = std::slice::Iter<'a, Vec<u8>>;
type Ranges<'a> = std::slice::Iter<'a, KeyRange>;
type MemRange<'a> = std::collections::btree_map::Range<'a, Vec<u8>, MemEntry>;

/// One component as a source of a merged read: ranged over, asked for each
/// key of a sorted list, or ranged over each range of a sorted list in
/// turn (the range being read, once one is open).
enum Source<'a> {
    Mem(MemRange<'a>),
    MemKeys(&'a BTreeMap<Vec<u8>, MemEntry>, Keys<'a>),
    MemRanges(&'a BTreeMap<Vec<u8>, MemEntry>, Ranges<'a>, Option<MemRange<'a>>),
    Stored(ComponentIter),
    StoredKeys(&'a DiskComponent, Keys<'a>),
    StoredRanges(&'a Arc<DiskComponent>, Ranges<'a>, Option<ComponentIter>),
    Proj(ProjectedIter<'a>),
}

/// The entries of a memory component in `[lo, hi)` — none when `lo` is
/// not below `hi` (a range `BTreeMap::range` would panic on).
fn mem_range<'a>(
    map: &'a BTreeMap<Vec<u8>, MemEntry>,
    lo: Option<&[u8]>,
    hi: Option<&[u8]>,
) -> MemRange<'a> {
    match (lo, hi) {
        (Some(lo), Some(hi)) if lo >= hi => {
            map.range::<[u8], _>((Bound::Included(hi), Bound::Excluded(hi)))
        }
        _ => map.range::<[u8], _>((
            lo.map_or(Bound::Unbounded, Bound::Included),
            hi.map_or(Bound::Unbounded, Bound::Excluded),
        )),
    }
}

impl<'a> Source<'a> {
    /// A memory or sealed component.
    fn mem(map: &'a BTreeMap<Vec<u8>, MemEntry>, bound: ScanBound<'a>) -> Source<'a> {
        match bound {
            ScanBound::Range { lo, hi } => Source::Mem(mem_range(map, lo, hi)),
            ScanBound::Keys(keys) => Source::MemKeys(map, keys.iter()),
            ScanBound::Ranges(ranges) => Source::MemRanges(map, ranges.iter(), None),
        }
    }

    /// A disk component: a columnar one through `proj` when there is one
    /// and the bound is a key range or keys, anything else as stored rows.
    fn disk(
        comp: &'a Arc<DiskComponent>,
        bound: ScanBound<'a>,
        proj: Option<&Projection<'a>>,
    ) -> Source<'a> {
        match (bound, proj) {
            (ScanBound::Ranges(ranges), _) => Source::StoredRanges(comp, ranges.iter(), None),
            (_, Some(proj)) if comp.is_columnar() => Source::Proj(comp.project_range(bound, proj)),
            (ScanBound::Range { lo, hi }, _) => Source::Stored(comp.range(lo, hi)),
            (ScanBound::Keys(keys), _) => Source::StoredKeys(comp, keys.iter()),
        }
    }

    fn next(&mut self) -> Result<Option<Head<'a>>> {
        Ok(match self {
            Source::Mem(it) => it.next().map(|(k, v)| Head::Mem(k, v)),
            Source::MemKeys(map, keys) => {
                keys.find_map(|k| map.get_key_value(k)).map(|(k, v)| Head::Mem(k, v))
            }
            Source::Stored(it) => match it.next() {
                Some(e) => Some(Head::Stored(e)),
                None => it.take_error().map_or(Ok(None), Err)?,
            },
            Source::MemRanges(map, ranges, open) => loop {
                if let Some((k, v)) = open.as_mut().and_then(Iterator::next) {
                    break Some(Head::Mem(k, v));
                }
                let Some(r) = ranges.next() else { break None };
                *open = Some(mem_range(map, r.lo.as_deref(), r.hi.as_deref()));
            },
            Source::StoredKeys(comp, keys) => loop {
                let Some(key) = keys.next() else { break None };
                if let Some(e) = comp.get(key)? {
                    break Some(Head::Stored(e));
                }
            },
            Source::StoredRanges(comp, ranges, open) => loop {
                if let Some(it) = open {
                    match it.next() {
                        Some(e) => break Some(Head::Stored(e)),
                        None => it.take_error().map_or(Ok(()), Err)?,
                    }
                }
                let Some(r) = ranges.next() else { break None };
                *open = Some(comp.range(r.lo.as_deref(), r.hi.as_deref()));
            },
            Source::Proj(it) => match it.next() {
                Some(e) => Some(Head::Proj(e)),
                None => it.take_error().map_or(Ok(None), Err)?,
            },
        })
    }
}

/// A source and its current entry: what a merged read hands
/// [`merge_newest`].
struct Cursor<'a> {
    source: Source<'a>,
    head: Option<Head<'a>>,
}

impl<'a> Cursor<'a> {
    fn new(mut source: Source<'a>) -> Result<Self> {
        let head = source.next()?;
        Ok(Cursor { source, head })
    }

    /// The current entry, moving past it.
    fn advance(&mut self) -> Result<Option<Head<'a>>> {
        let next = self.source.next()?;
        Ok(std::mem::replace(&mut self.head, next))
    }
}

impl MergeSource for Cursor<'_> {
    fn key(&self) -> Option<&[u8]> {
        self.head.as_ref().map(Head::key)
    }

    fn skip(&mut self) -> Result<()> {
        self.advance().map(drop)
    }
}

/// An LSM index over byte-string keys.
pub struct LsmTree {
    inner: Arc<LsmInner>,
    tx: Sender<MaintMsg>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl LsmTree {
    /// Create or reopen an LSM tree rooted at `dir`. Invalid (crash-orphaned)
    /// components are garbage-collected; valid ones are reopened. Spawns the
    /// tree's background maintenance thread.
    pub fn open(
        dir: &Path,
        cfg: LsmConfig,
        cache: Arc<BufferCache>,
        observer: Arc<dyn LsmObserver>,
    ) -> Result<LsmTree> {
        std::fs::create_dir_all(dir)?;
        let valid = DiskComponent::scavenge_dir(dir)?;
        let mut disk: Vec<Arc<DiskComponent>> = Vec::with_capacity(valid.len());
        for path in valid {
            disk.push(DiskComponent::open(&path, Arc::clone(&cache), cfg.columnar.as_ref())?);
        }
        // Newest first: components are named c_<min>_<max>.dat with
        // zero-padded sequence numbers, so path sort order is seq order.
        disk.sort_by_key(|c| std::cmp::Reverse(c.max_seq));
        let next_seq = disk.iter().map(|c| c.max_seq + 1).max().unwrap_or(0);
        let inner = Arc::new(LsmInner {
            dir: dir.to_path_buf(),
            cfg,
            cache,
            state: RwLock::new(LsmState {
                mem: BTreeMap::new(),
                mem_bytes: 0,
                frozen: Vec::new(),
                disk,
                next_seq,
            }),
            observer,
            deferred: Mutex::new(None),
            frozen_cv: Condvar::new(),
            frozen_lock: Mutex::new(()),
            metrics: LsmMetrics::default(),
            trace: Mutex::new(TraceContext::disabled()),
        });
        inner.metrics.components.set(inner.state.read().disk.len() as i64);
        let (tx, rx) = channel();
        let inner2 = Arc::clone(&inner);
        let worker = std::thread::Builder::new()
            .name("lsm-maint".into())
            .spawn(move || maintenance_loop(inner2, rx))?;
        Ok(LsmTree { inner, tx, worker: Mutex::new(Some(worker)) })
    }

    /// Root directory of this index.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Install a default trace context for *background* maintenance spans
    /// (`lsm.flush` / `lsm.merge` on the `lsm-maint` label). Synchronous
    /// [`LsmTree::flush_traced`] / [`LsmTree::merge_all_traced`] requests
    /// carry their own context instead. Pass
    /// [`TraceContext::disabled`] to detach.
    pub fn set_trace(&self, trace: TraceContext) {
        *self.inner.trace.lock() = trace;
    }

    fn entry_overhead(key: &[u8], value: &[u8]) -> usize {
        key.len() + value.len() + 48
    }

    fn send(&self, msg: MaintMsg) -> Result<()> {
        self.tx
            .send(msg)
            .map_err(|_| StorageError::InvalidState("lsm maintenance thread terminated".into()))
    }

    /// Insert or overwrite (upsert) a key. When the memory budget trips,
    /// the mutable component is sealed and queued for background flushing —
    /// the call returns without waiting for any I/O (unless `max_frozen`
    /// seals are already queued, the write-path memory bound).
    pub fn insert(&self, key: Vec<u8>, value: Vec<u8>) -> Result<()> {
        self.write(key, MemEntry { antimatter: false, value })
    }

    /// Delete a key by writing an antimatter entry.
    pub fn delete(&self, key: Vec<u8>) -> Result<()> {
        self.write(key, MemEntry { antimatter: true, value: Vec::new() })
    }

    fn write(&self, key: Vec<u8>, entry: MemEntry) -> Result<()> {
        // Background maintenance failures surface on the next write.
        if let Some(e) = self.inner.take_deferred() {
            return Err(e);
        }
        let needs_seal = {
            let mut st = self.inner.state.write();
            st.mem_bytes += Self::entry_overhead(&key, &entry.value);
            if let Some(old) = st.mem.insert(key, entry) {
                st.mem_bytes = st.mem_bytes.saturating_sub(old.value.len());
            }
            st.mem_bytes >= self.inner.cfg.mem_budget
        };
        if needs_seal {
            self.seal_and_enqueue()?;
        }
        Ok(())
    }

    /// Seal the mutable component and queue it for background flushing.
    fn seal_and_enqueue(&self) -> Result<()> {
        self.inner.wait_for_frozen_capacity(&self.tx)?;
        let sealed = {
            let mut st = self.inner.state.write();
            // A racing writer may have sealed already; only seal when the
            // budget is (still) exceeded.
            if st.mem.is_empty() || st.mem_bytes < self.inner.cfg.mem_budget {
                false
            } else {
                let watermark = self.inner.observer.on_seal();
                let mem = std::mem::take(&mut st.mem);
                let bytes = std::mem::replace(&mut st.mem_bytes, 0);
                let seq = st.next_seq;
                st.next_seq += 1;
                st.frozen.push(FrozenComponent { seq, watermark, bytes, entries: Arc::new(mem) });
                true
            }
        };
        if sealed {
            self.send(MaintMsg::Work)?;
        }
        Ok(())
    }

    /// Point lookup: mutable memory first, then sealed components newest →
    /// oldest, then disk components newest → oldest, with bloom filters
    /// pruning component probes.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let st = self.inner.state.read();
        if let Some(e) = st.mem.get(key) {
            return Ok(if e.antimatter { None } else { Some(e.value.clone()) });
        }
        for fr in st.frozen.iter().rev() {
            if let Some(e) = fr.entries.get(key) {
                return Ok(if e.antimatter { None } else { Some(e.value.clone()) });
            }
        }
        for comp in &st.disk {
            if let Some(e) = comp.get(key)? {
                return Ok(if e.antimatter { None } else { Some(e.value) });
            }
        }
        Ok(None)
    }

    /// Merged range scan over `[lo, hi)`; resolves antimatter so only live
    /// entries are yielded, in ascending key order.
    pub fn scan(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        self.scan_with(lo, hi, |k, v| -> Result<bool> {
            out.push((k.to_vec(), v.to_vec()));
            Ok(true)
        })?;
        Ok(out)
    }

    /// Streaming [`LsmTree::scan`] of the stored rows: `f` returns
    /// `Ok(false)` to stop early (LIMIT evaluation), and its first error
    /// stops the scan and is what the call returns.
    pub fn scan_with<E: From<StorageError>>(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]) -> std::result::Result<bool, E>,
    ) -> std::result::Result<(), E> {
        self.read(ScanBound::Range { lo, hi }, None, |key, value| {
            // Without a projection every source yields stored rows.
            let (ScanValue::Row(row) | ScanValue::Assembled(row)) = value;
            f(key, row)
        })
    }

    /// Streaming scan of the stored rows in a list of key ranges, sorted
    /// ascending and disjoint: one forward pass over each component, in key
    /// order, `f` stopping it as [`LsmTree::scan_with`]'s visitor does.
    pub fn scan_ranges_with<E: From<StorageError>>(
        &self,
        ranges: &[KeyRange],
        mut f: impl FnMut(&[u8], &[u8]) -> std::result::Result<bool, E>,
    ) -> std::result::Result<(), E> {
        self.read(ScanBound::Ranges(ranges), None, |key, value| {
            let (ScanValue::Row(row) | ScanValue::Assembled(row)) = value;
            f(key, row)
        })
    }

    /// Filter-first merged scan over `bound` — a key range, or the sorted
    /// key list of a primary fetch: columnar disk components decide
    /// `proj`'s filters on raw column bytes and hand back only the
    /// survivors, already assembled ([`ScanValue::Assembled`]: the
    /// projected fields, or the whole record for an all-fields
    /// projection); every other source (memory, sealed components, row
    /// components, spilled rows) yields full stored rows
    /// ([`ScanValue::Row`]) for the caller to project itself — for a key
    /// list those sources answer by lookup. Antimatter is resolved exactly
    /// as in [`LsmTree::scan_with`] — a newer filtered or deleted version
    /// still shadows older versions of its key. The filters only ever drop
    /// rows that are *definitely* rejected by the predicate they were
    /// derived from; the caller must still apply the full predicate to
    /// what comes through. `f` stops the scan as [`LsmTree::scan_with`]'s
    /// visitor does.
    pub fn scan_projected<E: From<StorageError>>(
        &self,
        bound: ScanBound<'_>,
        proj: &Projection,
        f: impl FnMut(&[u8], ScanValue<'_>) -> std::result::Result<bool, E>,
    ) -> std::result::Result<(), E> {
        self.read(bound, Some(proj), f)
    }

    /// The one merged read of the tree: the mutable memory component,
    /// sealed components newest → oldest, then disk components newest →
    /// oldest, all borrowed under the held state lock and merged by
    /// [`merge_newest`]. Columnar disk components are read through `proj`
    /// when there is one; every other source yields stored rows.
    fn read<E: From<StorageError>>(
        &self,
        bound: ScanBound<'_>,
        proj: Option<&Projection>,
        mut f: impl FnMut(&[u8], ScanValue<'_>) -> std::result::Result<bool, E>,
    ) -> std::result::Result<(), E> {
        let st = self.inner.state.read();
        let mut cursors = Vec::with_capacity(1 + st.frozen.len() + st.disk.len());
        cursors.push(Cursor::new(Source::mem(&st.mem, bound))?);
        for fr in st.frozen.iter().rev() {
            cursors.push(Cursor::new(Source::mem(&fr.entries, bound))?);
        }
        for c in &st.disk {
            cursors.push(Cursor::new(Source::disk(c, bound, proj))?);
        }
        merge_newest(&mut cursors, |c| match c.advance()?.as_ref().and_then(Head::live) {
            Some((key, value)) => f(key, value),
            None => Ok(true),
        })
    }

    /// How many of the tree's disk components are columnar (tests and
    /// migration observability).
    pub fn columnar_component_count(&self) -> usize {
        self.inner.state.read().disk.iter().filter(|c| c.is_columnar()).count()
    }

    /// Entries held in all components — memory, sealed and disk — without
    /// reading any of them: an upper bound on the live records, counting a
    /// rewritten key once per component that holds a version of it and
    /// every antimatter entry. What the compiler sizes join inputs by.
    pub fn stored_entries(&self) -> u64 {
        let st = self.inner.state.read();
        let in_memory = st.mem.len() + st.frozen.iter().map(|fr| fr.entries.len()).sum::<usize>();
        in_memory as u64 + st.disk.iter().map(|c| c.entry_count()).sum::<u64>()
    }

    /// Count of live entries (scan-based; used by tests and stats).
    pub fn live_count(&self) -> Result<usize> {
        let mut n = 0;
        self.scan_with(None, None, |_, _| -> Result<bool> {
            n += 1;
            Ok(true)
        })?;
        Ok(n)
    }

    /// Force-flush: seal the in-memory component (if non-empty) and wait
    /// for the maintenance thread to drain every queued seal to disk.
    /// Returns the path of the last component written, `None` when there
    /// was nothing to flush. Surfaces any deferred background error.
    /// Readers see the data throughout: it moves memory → sealed
    /// component → installed disk component without a visibility gap.
    pub fn flush(&self) -> Result<Option<PathBuf>> {
        self.flush_traced(&TraceContext::disabled())
    }

    /// [`LsmTree::flush`] with the caller's trace context: the resulting
    /// `lsm.flush` spans are recorded into `trace` (still labelled
    /// `lsm-maint`), attributing synchronous flush latency to the
    /// triggering query.
    pub fn flush_traced(&self, trace: &TraceContext) -> Result<Option<PathBuf>> {
        {
            let mut st = self.inner.state.write();
            if !st.mem.is_empty() {
                let watermark = self.inner.observer.on_seal();
                let mem = std::mem::take(&mut st.mem);
                let bytes = std::mem::replace(&mut st.mem_bytes, 0);
                let seq = st.next_seq;
                st.next_seq += 1;
                st.frozen.push(FrozenComponent { seq, watermark, bytes, entries: Arc::new(mem) });
            }
        }
        let (ack_tx, ack_rx) = sync_channel(1);
        self.send(MaintMsg::Drain(ack_tx, trace.clone()))?;
        ack_rx.recv().unwrap_or_else(|_| {
            Err(StorageError::InvalidState("lsm maintenance thread terminated".into()))
        })
    }

    /// Merge all current disk components into one (manual full merge),
    /// after draining any pending flushes. Runs on the maintenance thread
    /// (like policy-triggered merges) but blocks the caller until done.
    pub fn merge_all(&self) -> Result<()> {
        self.merge_all_traced(&TraceContext::disabled())
    }

    /// [`LsmTree::merge_all`] with the caller's trace context (see
    /// [`LsmTree::flush_traced`]).
    pub fn merge_all_traced(&self, trace: &TraceContext) -> Result<()> {
        let (ack_tx, ack_rx) = sync_channel(1);
        self.send(MaintMsg::MergeAll(ack_tx, trace.clone()))?;
        ack_rx.recv().unwrap_or_else(|_| {
            Err(StorageError::InvalidState("lsm maintenance thread terminated".into()))
        })
    }

    /// Drain pending background work, surface any deferred I/O error, and
    /// stop the maintenance thread. Reads keep working afterwards; writes
    /// that need maintenance will fail. Idempotent.
    pub fn close(&self) -> Result<()> {
        let (ack_tx, ack_rx) = sync_channel(1);
        let drained = match self.tx.send(MaintMsg::Drain(ack_tx, TraceContext::disabled())) {
            Ok(()) => ack_rx.recv().unwrap_or(Ok(None)),
            // Worker already gone: nothing pending except a possible
            // deferred error, handled below.
            Err(_) => Ok(None),
        };
        self.shutdown_worker();
        drained?;
        match self.inner.take_deferred() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn shutdown_worker(&self) {
        let _ = self.tx.send(MaintMsg::Shutdown);
        if let Some(h) = self.worker.lock().take() {
            let _ = h.join();
        }
    }

    /// Number of disk components (for tests/stats).
    pub fn disk_component_count(&self) -> usize {
        self.inner.state.read().disk.len()
    }

    /// Maintenance metrics (flush/merge counts and durations, component
    /// gauge). The returned handle stays live — clones share the counters.
    pub fn metrics(&self) -> &LsmMetrics {
        &self.inner.metrics
    }

    /// Total bytes across disk components plus the in-memory (mutable and
    /// sealed) components — Table 2's storage-size metric.
    pub fn size_bytes(&self) -> u64 {
        let st = self.inner.state.read();
        st.disk.iter().map(|c| c.file_len()).sum::<u64>()
            + st.mem_bytes as u64
            + st.frozen.iter().map(|f| f.bytes as u64).sum::<u64>()
    }

    /// Mutable in-memory component size in bytes.
    pub fn mem_bytes(&self) -> usize {
        self.inner.state.read().mem_bytes
    }

    /// Drop everything (dataset drop): removes the directory.
    pub fn destroy(self) -> Result<()> {
        {
            // Discard pending seals — their data is about to be deleted.
            let mut st = self.inner.state.write();
            st.mem.clear();
            st.mem_bytes = 0;
            st.frozen.clear();
        }
        self.shutdown_worker();
        // Destroy components first so their cached pages are invalidated.
        let disk = std::mem::take(&mut self.inner.state.write().disk);
        for c in disk {
            let _ = c.destroy();
        }
        std::fs::remove_dir_all(&self.inner.dir)?;
        Ok(())
    }

    /// Discard the in-memory component (crash simulation for recovery
    /// tests: memory — mutable and sealed-but-unflushed — is lost, disk
    /// components survive).
    pub fn simulate_crash_lose_memory(&self) {
        {
            let mut st = self.inner.state.write();
            st.mem.clear();
            st.mem_bytes = 0;
            st.frozen.clear();
        }
        self.inner.notify_frozen();
    }
}

impl Drop for LsmTree {
    fn drop(&mut self) {
        // Best-effort drain (Shutdown processes the queue) so auto-sealed
        // data reaches disk; errors are unreportable here.
        self.shutdown_worker();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_testkit::TempDir;

    fn open(dir: &Path, policy: MergePolicy, budget: usize) -> LsmTree {
        LsmTree::open(
            dir,
            LsmConfig {
                mem_budget: budget,
                page_size: 512,
                bloom_fpp: 0.01,
                merge_policy: policy,
                max_frozen: 2,
                columnar: None,
            },
            BufferCache::new(256),
            Arc::new(NullObserver),
        )
        .unwrap()
    }

    fn k(i: u32) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn insert_get_delete_in_memory() {
        let dir = TempDir::new().unwrap();
        let t = open(dir.path(), MergePolicy::NoMerge, 1 << 20);
        t.insert(k(1), b"a".to_vec()).unwrap();
        t.insert(k(2), b"b".to_vec()).unwrap();
        assert_eq!(t.get(&k(1)).unwrap(), Some(b"a".to_vec()));
        t.delete(k(1)).unwrap();
        assert_eq!(t.get(&k(1)).unwrap(), None);
        assert_eq!(t.get(&k(2)).unwrap(), Some(b"b".to_vec()));
        assert_eq!(t.live_count().unwrap(), 1);
    }

    #[test]
    fn traced_flush_and_merge_record_spans() {
        let dir = TempDir::new().unwrap();
        let t = open(dir.path(), MergePolicy::NoMerge, 1 << 20);
        let trace = TraceContext::new_trace(64);
        for i in 0..10 {
            t.insert(k(i), vec![b'x'; 100]).unwrap();
        }
        t.flush_traced(&trace).unwrap();
        for i in 10..20 {
            t.insert(k(i), vec![b'x'; 100]).unwrap();
        }
        t.flush_traced(&trace).unwrap();
        t.merge_all_traced(&trace).unwrap();
        let evs = trace.sink().unwrap().events();
        let flushes = evs.iter().filter(|e| e.name == "lsm.flush").count();
        let merges = evs.iter().filter(|e| e.name == "lsm.merge").count();
        assert_eq!(flushes, 2, "{evs:#?}");
        assert_eq!(merges, 1, "{evs:#?}");
        assert!(evs.iter().all(|e| e.label == "lsm-maint"));
        // Untraced maintenance records nothing new into this trace.
        t.insert(k(99), b"y".to_vec()).unwrap();
        t.flush().unwrap();
        assert_eq!(trace.sink().unwrap().len(), 3);
    }

    #[test]
    fn flush_and_read_back() {
        let dir = TempDir::new().unwrap();
        let t = open(dir.path(), MergePolicy::NoMerge, 1 << 20);
        for i in 0..100 {
            t.insert(k(i), vec![i as u8]).unwrap();
        }
        t.flush().unwrap();
        assert_eq!(t.disk_component_count(), 1);
        assert_eq!(t.mem_bytes(), 0);
        for i in 0..100 {
            assert_eq!(t.get(&k(i)).unwrap(), Some(vec![i as u8]));
        }
    }

    #[test]
    fn newest_component_wins() {
        let dir = TempDir::new().unwrap();
        let t = open(dir.path(), MergePolicy::NoMerge, 1 << 20);
        t.insert(k(5), b"old".to_vec()).unwrap();
        t.flush().unwrap();
        t.insert(k(5), b"new".to_vec()).unwrap();
        t.flush().unwrap();
        assert_eq!(t.get(&k(5)).unwrap(), Some(b"new".to_vec()));
        // Delete shadows both.
        t.delete(k(5)).unwrap();
        t.flush().unwrap();
        assert_eq!(t.get(&k(5)).unwrap(), None);
        let all = t.scan(None, None).unwrap();
        assert!(all.is_empty());
    }

    #[test]
    fn scan_merges_components() {
        let dir = TempDir::new().unwrap();
        let t = open(dir.path(), MergePolicy::NoMerge, 1 << 20);
        for i in (0..50).step_by(2) {
            t.insert(k(i), b"even".to_vec()).unwrap();
        }
        t.flush().unwrap();
        for i in (1..50).step_by(2) {
            t.insert(k(i), b"odd".to_vec()).unwrap();
        }
        // Half in memory, half on disk.
        let all = t.scan(None, None).unwrap();
        assert_eq!(all.len(), 50);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        let some = t.scan(Some(&k(10)), Some(&k(20))).unwrap();
        assert_eq!(some.len(), 10);
    }

    #[test]
    fn auto_flush_on_budget() {
        let dir = TempDir::new().unwrap();
        let t = open(dir.path(), MergePolicy::NoMerge, 2048);
        for i in 0..200 {
            t.insert(k(i), vec![0u8; 32]).unwrap();
        }
        // Everything stays visible while background flushes are in flight.
        assert_eq!(t.live_count().unwrap(), 200);
        t.flush().unwrap(); // drain pending background work
        assert!(t.disk_component_count() >= 2, "expected multiple auto-flushes");
        assert_eq!(t.live_count().unwrap(), 200);
    }

    #[test]
    fn constant_merge_policy_caps_components() {
        let dir = TempDir::new().unwrap();
        let t = open(dir.path(), MergePolicy::Constant { max: 3 }, 1 << 20);
        for round in 0..8u32 {
            for i in 0..20 {
                t.insert(k(round * 100 + i), vec![round as u8]).unwrap();
            }
            t.flush().unwrap();
        }
        assert!(t.disk_component_count() <= 4, "got {}", t.disk_component_count());
        assert_eq!(t.live_count().unwrap(), 160);
    }

    #[test]
    fn merge_drops_tombstones_when_covering_oldest() {
        let dir = TempDir::new().unwrap();
        let t = open(dir.path(), MergePolicy::NoMerge, 1 << 20);
        for i in 0..10 {
            t.insert(k(i), b"v".to_vec()).unwrap();
        }
        t.flush().unwrap();
        for i in 0..5 {
            t.delete(k(i)).unwrap();
        }
        t.flush().unwrap();
        t.merge_all().unwrap();
        assert_eq!(t.disk_component_count(), 1);
        assert_eq!(t.live_count().unwrap(), 5);
        // After a full merge, antimatter is gone: the single component holds
        // exactly the live entries.
        let st = t.inner.state.read();
        assert_eq!(st.disk[0].entry_count(), 5);
    }

    #[test]
    fn stored_entries_counts_every_component_and_reads_none() {
        let dir = TempDir::new().unwrap();
        let t = open(dir.path(), MergePolicy::NoMerge, 1 << 20);
        for i in 0..10 {
            t.insert(k(i), b"v".to_vec()).unwrap();
        }
        assert_eq!(t.stored_entries(), 10);
        t.flush().unwrap();
        // Five new keys, two rewritten, one deleted: eight memory entries
        // beside the ten on disk, for fourteen live records.
        for i in [10, 11, 12, 13, 14, 0, 1] {
            t.insert(k(i), b"w".to_vec()).unwrap();
        }
        t.delete(k(2)).unwrap();
        let reads = t.inner.cache.stats();
        assert_eq!(t.stored_entries(), 18);
        t.flush().unwrap();
        assert_eq!(t.stored_entries(), 18);
        assert_eq!(t.inner.cache.stats(), reads, "counted from the footers");
        assert_eq!(t.live_count().unwrap(), 14);
        t.merge_all().unwrap();
        assert_eq!(t.stored_entries(), 14);
    }

    #[test]
    fn reopen_recovers_disk_state() {
        let dir = TempDir::new().unwrap();
        {
            let t = open(dir.path(), MergePolicy::NoMerge, 1 << 20);
            for i in 0..30 {
                t.insert(k(i), vec![1]).unwrap();
            }
            t.flush().unwrap();
            t.insert(k(100), vec![2]).unwrap(); // stays in memory, lost
            t.simulate_crash_lose_memory();
        }
        let t = open(dir.path(), MergePolicy::NoMerge, 1 << 20);
        assert_eq!(t.live_count().unwrap(), 30);
        assert_eq!(t.get(&k(100)).unwrap(), None);
        // New writes get fresh sequence numbers beyond recovered ones.
        t.insert(k(200), vec![3]).unwrap();
        t.flush().unwrap();
        assert_eq!(t.get(&k(200)).unwrap(), Some(vec![3]));
    }

    #[test]
    fn prefix_merge_policy_triggers() {
        let dir = TempDir::new().unwrap();
        let t = open(
            dir.path(),
            MergePolicy::Prefix { max_mergable_size: 1 << 20, max_tolerance: 2 },
            1 << 20,
        );
        for round in 0..5u32 {
            for i in 0..10 {
                t.insert(k(round * 100 + i), vec![0u8; 16]).unwrap();
            }
            t.flush().unwrap();
        }
        assert!(t.disk_component_count() <= 3, "got {}", t.disk_component_count());
        assert_eq!(t.live_count().unwrap(), 50);
    }

    #[test]
    fn early_exit_scan() {
        let dir = TempDir::new().unwrap();
        let t = open(dir.path(), MergePolicy::NoMerge, 1 << 20);
        for i in 0..100 {
            t.insert(k(i), vec![0]).unwrap();
        }
        let mut seen = 0;
        t.scan_with(None, None, |_, _| -> Result<bool> {
            seen += 1;
            Ok(seen < 10)
        })
        .unwrap();
        assert_eq!(seen, 10);
    }

    /// Observer whose `on_flush` blocks until released — stands in for slow
    /// flush I/O so tests can prove the write path does not wait for it.
    struct GateObserver {
        entered: Sender<()>,
        release: Mutex<Receiver<()>>,
    }

    impl LsmObserver for GateObserver {
        fn on_flush(&self, _p: &Path, _s: u64, _w: u64) {
            let _ = self.entered.send(());
            // First call blocks until released; once the release sender is
            // dropped, later flushes pass straight through.
            let _ = self.release.lock().recv_timeout(Duration::from_secs(10));
        }
    }

    #[test]
    fn inserts_do_not_stall_on_flush_io() {
        let dir = TempDir::new().unwrap();
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel();
        let t = LsmTree::open(
            dir.path(),
            LsmConfig {
                mem_budget: 2048,
                page_size: 512,
                bloom_fpp: 0.01,
                merge_policy: MergePolicy::NoMerge,
                max_frozen: 2,
                columnar: None,
            },
            BufferCache::new(256),
            Arc::new(GateObserver { entered: entered_tx, release: Mutex::new(release_rx) }),
        )
        .unwrap();

        // ~84 bytes/entry: 60 inserts trip the 2048-byte budget twice.
        for i in 0..60u32 {
            t.insert(k(i), vec![0u8; 32]).unwrap();
        }
        // The background flush is now stuck in its (gated) completion path.
        entered_rx.recv_timeout(Duration::from_secs(10)).expect("background flush never started");

        // The paper's point (§4.2): ingest keeps landing while flush I/O is
        // incomplete. These inserts must return without waiting for the
        // gated flush (they stay under one budget, so no max_frozen block).
        let before = std::time::Instant::now();
        for i in 1000..1020u32 {
            t.insert(k(i), vec![0u8; 32]).unwrap();
        }
        assert!(before.elapsed() < Duration::from_secs(5), "inserts stalled behind flush I/O");

        // Everything is visible even though flushes are still in flight.
        assert_eq!(t.live_count().unwrap(), 80);

        // Release the gate, drain, and verify durability.
        release_tx.send(()).unwrap();
        drop(release_tx);
        t.flush().unwrap();
        assert!(t.disk_component_count() >= 2);
        assert_eq!(t.live_count().unwrap(), 80);
        for i in 0..60u32 {
            assert_eq!(t.get(&k(i)).unwrap(), Some(vec![0u8; 32]));
        }
        t.close().unwrap();
    }

    /// Key `i`'s record as written in `plane`.
    fn version(i: u32, plane: u32) -> Vec<u8> {
        let mut r = Record::new();
        r.set("id", Value::Int64(i as i64));
        r.set("plane", Value::Int64(plane as i64));
        encode(&Value::record(r))
    }

    /// `get`, `scan` and `scan_projected` over ranges and key lists all
    /// answer what `model` holds.
    fn assert_reads_match(t: &LsmTree, model: &BTreeMap<Vec<u8>, Vec<u8>>, when: &str) {
        for i in 0..84 {
            assert_eq!(t.get(&k(i)).unwrap().as_ref(), model.get(&k(i)), "{when}: get {i}");
        }
        let (lo, hi) = (k(10), k(50));
        let of = |want: &dyn Fn(&[u8]) -> bool| -> Vec<(Vec<u8>, Vec<u8>)> {
            model.iter().filter(|(key, _)| want(key)).map(|(k, v)| (k.clone(), v.clone())).collect()
        };
        let all = of(&|_| true);
        let ranged = of(&|key| lo.as_slice() <= key && key < hi.as_slice());
        let even = of(&|key| key[3] % 2 == 0);
        assert_eq!(t.scan(None, None).unwrap(), all, "{when}: scan");
        assert_eq!(t.scan(Some(&lo), Some(&hi)).unwrap(), ranged, "{when}: ranged scan");
        // Every key and a few absent ones past them; every other key.
        let every: Vec<Vec<u8>> = (0..84).map(k).collect();
        let evens: Vec<Vec<u8>> = (0..84).step_by(2).map(k).collect();
        // Sorted, disjoint ranges: open at either end, two that touch.
        let range = |lo: Option<u32>, hi: Option<u32>| KeyRange { lo: lo.map(k), hi: hi.map(k) };
        let ranges = [
            range(None, Some(3)),
            range(Some(9), Some(12)),
            range(Some(12), Some(14)),
            range(Some(40), Some(45)),
            range(Some(80), None),
        ];
        let in_ranges = of(&|key| ranges.iter().any(|r| r.holds(key)));
        for (bound, want) in [
            (ScanBound::ALL, &all),
            (ScanBound::Range { lo: Some(&lo), hi: Some(&hi) }, &ranged),
            (ScanBound::Keys(&every), &all),
            (ScanBound::Keys(&evens), &even),
            (ScanBound::Ranges(&ranges), &in_ranges),
        ] {
            let mut got = Vec::new();
            t.scan_projected(bound, &Projection::all(), |key, v| -> Result<bool> {
                let (ScanValue::Row(b) | ScanValue::Assembled(b)) = v;
                got.push((key.to_vec(), b.to_vec()));
                Ok(true)
            })
            .unwrap();
            assert_eq!(&got, want, "{when}: scan_projected over {bound:?}");
        }
    }

    /// Versions and tombstones of one key spread over two disk components,
    /// a sealed component whose flush is held, and memory: every read
    /// answers as a model that applies them oldest first.
    #[test]
    fn reads_across_a_sealed_unflushed_component_match_a_model() {
        let dir = TempDir::new().unwrap();
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel();
        let t = LsmTree::open(
            dir.path(),
            columnar_cfg(),
            BufferCache::new(256),
            Arc::new(GateObserver { entered: entered_tx, release: Mutex::new(release_rx) }),
        )
        .unwrap();
        let entered = || entered_rx.recv_timeout(Duration::from_secs(10)).expect("flush stalled");
        // What key `i` gets in plane `p` — 0 the older disk component, 1 the
        // newer, 2 the sealed one, 3 memory — is base-3 digit `p` of `i`:
        // nothing, a new version or a tombstone. The 81 keys cover every
        // sequence of the three.
        let mut model = BTreeMap::new();
        let write = |plane: u32, model: &mut BTreeMap<Vec<u8>, Vec<u8>>| {
            for i in 0..81u32 {
                match i / 3u32.pow(plane) % 3 {
                    1 => {
                        t.insert(k(i), version(i, plane)).unwrap();
                        model.insert(k(i), version(i, plane));
                    }
                    2 => {
                        t.delete(k(i)).unwrap();
                        model.remove(&k(i));
                    }
                    _ => {}
                }
            }
        };
        std::thread::scope(|scope| {
            write(0, &mut model);
            release_tx.send(()).unwrap();
            t.flush().unwrap();
            entered();
            // This flush installs its component, then is held in `on_flush`,
            write(1, &mut model);
            scope.spawn(|| t.flush().unwrap());
            entered();
            // so the next seal stays sealed.
            write(2, &mut model);
            scope.spawn(|| t.flush().unwrap());
            let deadline = Instant::now() + Duration::from_secs(10);
            while t.inner.state.read().frozen.is_empty() {
                assert!(Instant::now() < deadline, "seal never happened");
                std::thread::sleep(Duration::from_millis(1));
            }
            write(3, &mut model);
            let planes = {
                let st = t.inner.state.read();
                (st.disk.len(), st.frozen.len(), st.mem.len())
            };
            assert_eq!(planes, (2, 1, 54), "two disk components, one sealed, memory");
            assert_reads_match(&t, &model, "sealed");
            release_tx.send(()).unwrap();
            release_tx.send(()).unwrap();
        });
        assert_reads_match(&t, &model, "flushed");
        drop(release_tx);
        t.flush().unwrap();
        assert_eq!((t.disk_component_count(), t.columnar_component_count()), (4, 4));
        assert_reads_match(&t, &model, "all on disk");
    }

    #[test]
    fn maintenance_metrics_record_flushes_and_merges() {
        let dir = TempDir::new().unwrap();
        let t = open(dir.path(), MergePolicy::NoMerge, 1 << 20);
        for round in 0..3u32 {
            for i in 0..20 {
                t.insert(k(round * 100 + i), vec![round as u8]).unwrap();
            }
            t.flush().unwrap();
        }
        let m = t.metrics();
        assert_eq!(m.flushes.get(), 3, "one background flush per seal");
        assert_eq!(m.flush_us.count(), 3);
        assert!(m.flush_us.sum() > 0, "flush durations must be nonzero");
        assert_eq!(m.merges.get(), 0);
        assert_eq!(
            m.components.get(),
            t.disk_component_count() as i64,
            "component gauge tracks on-disk components"
        );

        t.merge_all().unwrap();
        assert_eq!(m.merges.get(), 1);
        assert_eq!(m.merge_us.count(), 1);
        assert!(m.merge_us.sum() > 0, "merge duration must be nonzero");
        assert_eq!(t.disk_component_count(), 1);
        assert_eq!(m.components.get(), 1);

        // Registered views read the same live counters.
        let reg = MetricsRegistry::new();
        m.register_into(&reg, "lsm.ds");
        match reg.get("lsm.ds.flushes") {
            Some(asterix_obs::Metric::Counter(c)) => assert_eq!(c.get(), 3),
            other => panic!("wrong metric: {other:?}"),
        }
    }

    #[test]
    fn reopen_seeds_component_gauge() {
        let dir = TempDir::new().unwrap();
        {
            let t = open(dir.path(), MergePolicy::NoMerge, 1 << 20);
            for i in 0..10 {
                t.insert(k(i), vec![1]).unwrap();
            }
            t.flush().unwrap();
        }
        let t = open(dir.path(), MergePolicy::NoMerge, 1 << 20);
        assert_eq!(t.metrics().components.get(), t.disk_component_count() as i64);
        assert_eq!(t.metrics().flushes.get(), 0, "counters start fresh on reopen");
    }

    #[test]
    fn seal_watermark_captured_at_seal_time() {
        use std::sync::atomic::{AtomicU64, Ordering};

        // The watermark delivered to on_flush must be the on_seal value of
        // the sealed component, even when on_seal advances afterwards.
        struct WatermarkProbe {
            next: AtomicU64,
            flushed: Mutex<Vec<u64>>,
        }
        impl LsmObserver for WatermarkProbe {
            fn on_seal(&self) -> u64 {
                self.next.load(Ordering::SeqCst)
            }
            fn on_flush(&self, _p: &Path, _s: u64, watermark: u64) {
                self.flushed.lock().push(watermark);
            }
        }

        let dir = TempDir::new().unwrap();
        let probe =
            Arc::new(WatermarkProbe { next: AtomicU64::new(7), flushed: Mutex::new(Vec::new()) });
        let t = LsmTree::open(
            dir.path(),
            LsmConfig { merge_policy: MergePolicy::NoMerge, ..Default::default() },
            BufferCache::new(256),
            Arc::clone(&probe) as Arc<dyn LsmObserver>,
        )
        .unwrap();
        t.insert(k(1), b"a".to_vec()).unwrap();
        t.flush().unwrap(); // seals at watermark 7
        probe.next.store(42, Ordering::SeqCst);
        t.insert(k(2), b"b".to_vec()).unwrap();
        t.flush().unwrap(); // seals at watermark 42
        assert_eq!(*probe.flushed.lock(), vec![7, 42]);
    }

    // ---- columnar components through the LSM lifecycle ----

    use crate::columnar::{ColumnarOptions, SelfDescribingCodec};
    use asterix_adm::serde::encode;
    use asterix_adm::value::{Record, Value};

    fn columnar_cfg() -> LsmConfig {
        LsmConfig {
            mem_budget: 1 << 20,
            page_size: 512,
            bloom_fpp: 0.01,
            merge_policy: MergePolicy::NoMerge,
            max_frozen: 2,
            columnar: Some(ColumnarOptions::new(Arc::new(SelfDescribingCodec))),
        }
    }

    fn row(i: u32) -> Vec<u8> {
        let mut r = Record::new();
        r.set("id", Value::Int64(i as i64));
        r.set("name", Value::string(format!("user-{i:04}")));
        r.set("score", Value::Double(i as f64 / 3.0));
        encode(&Value::record(r))
    }

    #[test]
    fn columnar_flush_merge_and_exact_reads() {
        let dir = TempDir::new().unwrap();
        let t = LsmTree::open(
            dir.path(),
            columnar_cfg(),
            BufferCache::new(256),
            Arc::new(NullObserver),
        )
        .unwrap();
        for i in 0..150u32 {
            t.insert(k(i), row(i)).unwrap();
        }
        t.flush().unwrap();
        assert_eq!(t.columnar_component_count(), 1);
        for i in 150..300u32 {
            t.insert(k(i), row(i)).unwrap();
        }
        t.delete(k(42)).unwrap();
        t.flush().unwrap();
        t.merge_all().unwrap();
        // Both flushes inferred one column list: the merge copies their
        // runs, and the output stays columnar.
        assert_eq!(t.metrics().merges_copied.get(), 1);
        assert_eq!(t.columnar_component_count(), 1);
        for i in 0..300u32 {
            let got = t.get(&k(i)).unwrap();
            if i == 42 {
                assert_eq!(got, None);
            } else {
                assert_eq!(got, Some(row(i)), "row {i} must read back byte-identical");
            }
        }
        assert_eq!(t.scan(None, None).unwrap().len(), 299);
    }

    /// Merges and whole-record reads (`live_count`, through the scans'
    /// group reader) read columnar components, but they are not queries:
    /// the scan counters of `storage.columnar.*` stay put.
    #[test]
    fn merges_and_live_count_leave_the_columnar_scan_counters_alone() {
        let dir = TempDir::new().unwrap();
        let cfg = columnar_cfg();
        let stats = Arc::clone(&cfg.columnar.as_ref().unwrap().stats);
        let t =
            LsmTree::open(dir.path(), cfg, BufferCache::new(256), Arc::new(NullObserver)).unwrap();
        for batch in 0..3u32 {
            for i in batch * 100..batch * 100 + 100 {
                t.insert(k(i), row(i)).unwrap();
            }
            t.flush().unwrap();
        }
        assert_eq!(t.columnar_component_count(), 3);
        let counters = || {
            let s = &stats;
            [&s.rows_assembled, &s.rows_filtered, &s.columns_projected, &s.bytes_skipped]
                .map(|c| c.get())
        };
        let before = counters();
        t.merge_all().unwrap();
        assert_eq!(t.columnar_component_count(), 1);
        assert_eq!(t.live_count().unwrap(), 300);
        assert_eq!(counters(), before);
        // A query's read of the same tree counts.
        t.scan_projected(ScanBound::ALL, &Projection::all(), |_, _| Ok::<_, StorageError>(true))
            .unwrap();
        assert_eq!(stats.rows_assembled.get(), before[0] + 300);
    }

    #[test]
    fn projected_scan_over_mixed_tree_matches_full_scan() {
        let dir = TempDir::new().unwrap();
        // Row component (columnar: None), then columnar component, then
        // mem entries: scan_projected must merge all three planes.
        {
            let t = open(dir.path(), MergePolicy::NoMerge, 1 << 20);
            for i in 0..60u32 {
                t.insert(k(i), row(i)).unwrap();
            }
            t.flush().unwrap();
        }
        let t = LsmTree::open(
            dir.path(),
            columnar_cfg(),
            BufferCache::new(256),
            Arc::new(NullObserver),
        )
        .unwrap();
        for i in 60..120u32 {
            t.insert(k(i), row(i)).unwrap();
        }
        t.delete(k(7)).unwrap();
        t.insert(k(30), row(999)).unwrap(); // newer version shadows row component
        t.flush().unwrap();
        assert_eq!(t.columnar_component_count(), 1);
        for i in 120..140u32 {
            t.insert(k(i), row(i)).unwrap(); // stays in memory
        }

        let full = t.scan(None, None).unwrap();
        let proj = Projection { fields: Some(vec!["name".into()]), filters: Vec::new() };
        enum ScanValue2 {
            Row(Vec<u8>),
            Assembled(Vec<u8>),
        }
        let mut projected: Vec<(Vec<u8>, ScanValue2)> = Vec::new();
        t.scan_projected(ScanBound::ALL, &proj, |key, v| -> Result<bool> {
            let owned = match v {
                ScanValue::Row(b) => ScanValue2::Row(b.to_vec()),
                ScanValue::Assembled(b) => ScanValue2::Assembled(b.to_vec()),
            };
            projected.push((key.to_vec(), owned));
            Ok(true)
        })
        .unwrap();
        assert_eq!(
            projected.iter().map(|(key, _)| key.clone()).collect::<Vec<_>>(),
            full.iter().map(|(key, _)| key.clone()).collect::<Vec<_>>()
        );
        let mut assembled = 0;
        for ((key, got), (_, full_row)) in projected.iter().zip(full.iter()) {
            match got {
                // Rows from the row component / memory come back whole.
                ScanValue2::Row(b) => assert_eq!(b, full_row, "key {key:?}"),
                // Columnar rows come back as just the projected field.
                ScanValue2::Assembled(b) => {
                    assembled += 1;
                    let i = u32::from_be_bytes(key[..4].try_into().unwrap());
                    let n = if i == 30 { 999 } else { i };
                    let mut r = Record::new();
                    r.set("name", Value::string(format!("user-{n:04}")));
                    assert_eq!(b, &encode(&Value::record(r)), "key {key:?}");
                }
            }
        }
        assert!(assembled >= 60, "columnar component rows must late-materialize");
    }
    /// A filtered or deleted newer version still shadows an older version
    /// that passes the filter, from every plane — memory, sealed, columnar
    /// over columnar, columnar over row — whether the scan is bounded by a
    /// range or by a key list.
    #[test]
    fn filtered_and_deleted_versions_shadow_older_passing_ones() {
        use crate::columnar::{CmpOp, ColumnFilter};

        /// Reports every seal, and holds every flush in `on_flush` (after
        /// its component is installed) until released — so a later seal
        /// stays sealed for as long as the test needs it.
        struct SealProbe {
            sealed: Sender<()>,
            installed: Sender<()>,
            release: Mutex<Receiver<()>>,
        }
        impl LsmObserver for SealProbe {
            fn on_seal(&self) -> u64 {
                let _ = self.sealed.send(());
                0
            }
            fn on_flush(&self, _p: &Path, _s: u64, _w: u64) {
                let _ = self.installed.send(());
                let _ = self.release.lock().recv_timeout(Duration::from_secs(10));
            }
        }

        let dir = TempDir::new().unwrap();
        // Oldest plane: a row component (columnar: None) with ids 0..40.
        {
            let t = open(dir.path(), MergePolicy::NoMerge, 1 << 20);
            for i in 0..40u32 {
                t.insert(k(i), row(i)).unwrap();
            }
            t.flush().unwrap();
        }
        let (sealed_tx, sealed_rx) = channel();
        let (installed_tx, installed_rx) = channel();
        let (release_tx, release_rx) = channel();
        let t = LsmTree::open(
            dir.path(),
            columnar_cfg(),
            BufferCache::new(256),
            Arc::new(SealProbe {
                sealed: sealed_tx,
                installed: installed_tx,
                release: Mutex::new(release_rx),
            }),
        )
        .unwrap();
        let wait = |rx: &Receiver<()>| rx.recv_timeout(Duration::from_secs(10)).expect("progress");
        std::thread::scope(|scope| {
            // Older columnar component: key 1 now fails the filter, key 2
            // is deleted, keys 40..80 are new.
            t.insert(k(1), row(500)).unwrap();
            t.delete(k(2)).unwrap();
            for i in 40..80u32 {
                t.insert(k(i), row(i)).unwrap();
            }
            release_tx.send(()).unwrap();
            t.flush().unwrap();
            wait(&sealed_rx);
            wait(&installed_rx);
            // Newest columnar component: key 41 fails, key 42 is deleted.
            // Its flush installs it and then waits in `on_flush`.
            t.insert(k(41), row(501)).unwrap();
            t.delete(k(42)).unwrap();
            scope.spawn(|| t.flush().unwrap());
            wait(&sealed_rx);
            wait(&installed_rx);
            // Sealed: key 45 fails, key 46 is deleted. The maintenance
            // thread is held, so this seal stays queued.
            t.insert(k(45), row(503)).unwrap();
            t.delete(k(46)).unwrap();
            scope.spawn(|| t.flush().unwrap());
            wait(&sealed_rx);
            // Memory: key 43 fails, key 44 is deleted.
            t.insert(k(43), row(502)).unwrap();
            t.delete(k(44)).unwrap();
            assert_eq!(t.inner.state.read().frozen.len(), 1, "one sealed component is waiting");

            let id_key = |v: i64| asterix_adm::ordkey::encode_value(&Value::Int64(v));
            let proj = Projection {
                fields: None,
                filters: vec![
                    ColumnFilter::Cmp { field: "id".into(), op: CmpOp::Ge, key: id_key(0) },
                    ColumnFilter::Cmp { field: "id".into(), op: CmpOp::Lt, key: id_key(100) },
                ],
            };
            // Every key, a few absent ones between and past them.
            let every_key: Vec<Vec<u8>> = (0..120u32).map(k).collect();
            for bound in [ScanBound::ALL, ScanBound::Keys(&every_key)] {
                let mut seen: Vec<u32> = Vec::new();
                t.scan_projected(bound, &proj, |key, v| -> Result<bool> {
                    let i = u32::from_be_bytes(key[..4].try_into().unwrap());
                    // Memory, sealed and row-component rows come through
                    // unfiltered (the select above the scan judges them);
                    // whatever comes through is the newest version.
                    let bytes = match v {
                        ScanValue::Row(b) | ScanValue::Assembled(b) => b,
                    };
                    match i {
                        43 => assert_eq!(bytes, row(502)),
                        45 => assert_eq!(bytes, row(503)),
                        _ => assert_eq!(bytes, row(i), "key {i}"),
                    }
                    seen.push(i);
                    Ok(true)
                })
                .unwrap();
                // 1 and 41 were rewritten in a columnar component to fail
                // the filter; 2, 42, 44 and 46 are deleted. The failing
                // versions of 43 and 45 sit in planes that do not filter.
                let expect: Vec<u32> =
                    (0..80).filter(|i| ![1, 2, 41, 42, 44, 46].contains(i)).collect();
                assert_eq!(seen, expect, "{bound:?}");
            }
            // A key list yields its keys alone.
            let some: Vec<Vec<u8>> = [0u32, 1, 2, 39, 41, 43, 44, 45, 46, 79, 300].map(k).to_vec();
            let mut seen: Vec<u32> = Vec::new();
            t.scan_projected(ScanBound::Keys(&some), &proj, |key, _| -> Result<bool> {
                seen.push(u32::from_be_bytes(key[..4].try_into().unwrap()));
                Ok(true)
            })
            .unwrap();
            assert_eq!(seen, [0, 39, 43, 45, 79]);
            // Let the two held flushes through.
            release_tx.send(()).unwrap();
            release_tx.send(()).unwrap();
        });
        assert_eq!(t.columnar_component_count(), 3);
    }

    // ---- merges never change what a tree reads ----

    use asterix_adm::{colschema, serde as adm_serde};
    use asterix_testkit::rng::{Rng, SeedableRng, StdRng};

    /// The identity codec with a declared field order, as a typed
    /// dataset's codec supplies one.
    struct DeclaredCodec(Vec<String>);

    impl crate::columnar::RowCodec for DeclaredCodec {
        fn to_self_describing(&self, stored: &[u8]) -> Option<Vec<u8>> {
            Some(stored.to_vec())
        }

        fn to_stored(&self, sd: &[u8]) -> Option<Vec<u8>> {
            Some(sd.to_vec())
        }

        fn declared_fields(&self) -> &[String] {
            &self.0
        }
    }

    /// The merge inputs a [`merge_never_changes_reads`] tree is given.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Inputs {
        /// Four columnar flushes under one column list: every merge copies.
        OneList,
        /// The second and third flushes' rows hold one more field, a
        /// column the others lack: every merge rebuilds.
        ListsDiffer,
        /// The first flush is written by a row-only tree: the merge of the
        /// two newest copies, the full merge rebuilds.
        RowFirst,
    }

    /// A random record: `id` — a string one row in thirty, a minority tag
    /// that spills the row — then the optional `name` and `score`
    /// (sometimes NULL), with `extra` the open field `extra`, the open field
    /// `tag` in half the rows, and a rare `note` that stays in the rest
    /// record.
    fn random_record(rng: &mut StdRng, id: u32, extra: bool) -> Vec<u8> {
        let mut r = Record::new();
        if rng.gen_bool(1.0 / 30.0) {
            r.set("id", Value::string(format!("s{id}")));
        } else {
            r.set("id", Value::Int64(id as i64));
        }
        if rng.gen_bool(0.7) {
            r.set("name", Value::string(format!("n{}", rng.gen_range(0..1000i64))));
        }
        if rng.gen_bool(0.8) {
            let score = if rng.gen_bool(0.1) {
                Value::Null
            } else {
                Value::Double(rng.gen_range(0.0..99.0))
            };
            r.set("score", score);
        }
        if extra {
            r.set("extra", Value::Boolean(true));
        }
        if rng.gen_bool(0.5) {
            r.set("tag", Value::Int64(rng.gen_range(0..5i64)));
        }
        if rng.gen_bool(0.08) {
            r.set("note", Value::string("rare"));
        }
        encode(&Value::record(r))
    }

    /// Everything a tree answers, each row as a reader sees it.
    #[derive(PartialEq)]
    struct Reads {
        gets: Vec<Option<Vec<u8>>>,
        scan: Vec<(Vec<u8>, Vec<u8>)>,
        /// `scan_projected` of all fields.
        whole: Vec<(Vec<u8>, Vec<u8>)>,
        /// `scan_projected` of `score` and `id` behind the pushed filter
        /// `id >= 40`, every row cut to those fields and the predicate
        /// applied, as the operators above a scan do.
        named: Vec<(Vec<u8>, Vec<u8>)>,
    }

    fn reads(t: &LsmTree) -> Reads {
        let fields = vec!["score".to_string(), "id".to_string()];
        let cut = |rec: &[u8]| {
            let parts: Vec<(&str, &[u8])> = fields
                .iter()
                .filter_map(|f| adm_serde::encoded_record_field(rec, f).map(|b| (f.as_str(), b)))
                .collect();
            colschema::encode_record_from_parts(&parts)
        };
        let passes = |rec: &[u8]| {
            let id = adm_serde::encoded_record_field(rec, "id").map(adm_serde::decode);
            matches!(id, Some(Ok(Value::Int64(id))) if id >= 40)
        };
        let projected = |proj: &Projection, named: bool| {
            let mut out = Vec::new();
            t.scan_projected(ScanBound::ALL, proj, |key, v| -> Result<bool> {
                let (ScanValue::Row(rec) | ScanValue::Assembled(rec)) = v;
                if !named {
                    out.push((key.to_vec(), rec.to_vec()));
                } else if passes(rec) {
                    out.push((key.to_vec(), cut(rec)));
                }
                Ok(true)
            })
            .unwrap();
            out
        };
        let filter = crate::columnar::ColumnFilter::Cmp {
            field: "id".into(),
            op: crate::columnar::CmpOp::Ge,
            key: asterix_adm::ordkey::encode_value(&Value::Int64(40)),
        };
        let named = Projection { fields: Some(fields.clone()), filters: vec![filter] };
        Reads {
            gets: (0..130).map(|i| t.get(&k(i)).unwrap()).collect(),
            scan: t.scan(None, None).unwrap(),
            whole: projected(&Projection::all(), false),
            named: projected(&named, true),
        }
    }

    fn assert_same_reads(got: &Reads, want: &Reads, when: &str) {
        fn first_diff<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
            (a.len() != b.len())
                .then_some(a.len().min(b.len()))
                .or_else(|| a.iter().zip(b).position(|(x, y)| x != y))
        }
        for (what, diff) in [
            ("get", first_diff(&got.gets, &want.gets)),
            ("scan", first_diff(&got.scan, &want.scan)),
            ("all-fields scan_projected", first_diff(&got.whole, &want.whole)),
            ("named scan_projected", first_diff(&got.named, &want.named)),
        ] {
            assert!(diff.is_none(), "{when}: {what} changed, first at row {diff:?}");
        }
    }

    /// Four flushes over keys that overlap across them — the first writes
    /// keys 0..80, each later one 60 random writes over 0..120, a third of
    /// them deletes — then a merge of the two newest components (which
    /// must keep their tombstones) and a full merge, each read before and
    /// after. Returns the tree's `(merges, merges_copied)`.
    fn merge_never_changes_reads(inputs: Inputs, seed: u64) -> (u64, u64) {
        let dir = TempDir::new().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let declared = ["id", "name", "score"].map(String::from).to_vec();
        let cfg = LsmConfig {
            columnar: Some(ColumnarOptions::new(Arc::new(DeclaredCodec(declared)))),
            ..columnar_cfg()
        };
        let first_flush = |t: &LsmTree, rng: &mut StdRng| {
            for i in 0..80u32 {
                t.insert(k(i), random_record(rng, i, false)).unwrap();
            }
            t.flush().unwrap();
        };
        if inputs == Inputs::RowFirst {
            first_flush(&open(dir.path(), MergePolicy::NoMerge, 1 << 20), &mut rng);
        }
        let t =
            LsmTree::open(dir.path(), cfg, BufferCache::new(256), Arc::new(NullObserver)).unwrap();
        if inputs != Inputs::RowFirst {
            first_flush(&t, &mut rng);
        }
        for flush in 1..4 {
            let extra = inputs == Inputs::ListsDiffer && flush < 3;
            for _ in 0..60 {
                let i = rng.gen_range(0..120usize) as u32;
                if rng.gen_bool(1.0 / 3.0) {
                    t.delete(k(i)).unwrap();
                } else {
                    t.insert(k(i), random_record(&mut rng, i, extra)).unwrap();
                }
            }
            t.flush().unwrap();
        }
        let columnar = if inputs == Inputs::RowFirst { 3 } else { 4 };
        assert_eq!((t.disk_component_count(), t.columnar_component_count()), (4, columnar));
        let before = reads(&t);
        assert!(before.gets.iter().any(Option::is_none) && before.named.len() > 10);

        let newest = t.inner.state.read().disk[..2].to_vec();
        t.inner.merge_components(&newest, &TraceContext::disabled()).unwrap();
        assert_eq!(t.disk_component_count(), 3);
        assert_same_reads(&reads(&t), &before, "after merging the two newest");
        t.merge_all().unwrap();
        assert_eq!((t.disk_component_count(), t.columnar_component_count()), (1, 1));
        assert_same_reads(&reads(&t), &before, "after the full merge");
        (t.metrics().merges.get(), t.metrics().merges_copied.get())
    }

    #[test]
    fn copy_merges_never_change_what_a_tree_reads() {
        for seed in 1..=4 {
            assert_eq!(merge_never_changes_reads(Inputs::OneList, seed), (2, 2), "seed {seed}");
        }
    }

    #[test]
    fn rebuilding_merges_never_change_what_a_tree_reads() {
        for seed in 1..=4 {
            assert_eq!(merge_never_changes_reads(Inputs::ListsDiffer, seed), (2, 0), "seed {seed}");
            assert_eq!(merge_never_changes_reads(Inputs::RowFirst, seed), (2, 1), "seed {seed}");
        }
    }
}
