//! Join operators (§4.1): the hybrid hash join (with Grace-style
//! spilling), which is also the nested-loop join — a join with no key, every
//! build tuple a candidate for every probe tuple — and the index
//! nested-loop join selected by the `/*+ indexnl */` hint (Query 14).
//!
//! The hash join works on *encoded* tuples throughout: hash-table keys are
//! the canonical `ordkey` encodings of the join-key values (byte equality
//! there is exactly ADM `total_cmp` equality, collapsing numeric widths),
//! buckets hold raw tuple encodings, output rows are built by byte-level
//! concatenation ([`concat_tuples_into`]), and Grace spill partitions are
//! files of raw tuple bytes hashed with the byte-level field hasher. A
//! residual decodes only the columns it reads, once per tuple.
//!
//! The hash join is two activities, one per input (§4.1): a build stage
//! takes input 0 and leaves what it built in a [`Handoff`] when it
//! finishes; the probe stage takes input 1 and emits.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::ops::Range;
use std::sync::Arc;

use asterix_adm::{concat_tuples_into, encode_tuple, ordkey, TupleRef, Value};

use super::{
    Batched, BatchedStage, FetchFn, OperatorDescriptor, Predicate, ProbeFn, SpillGuard, FETCH_BATCH,
};
use crate::filter::RuntimeFilterHub;
use crate::frame::{hash_encoded_fields, FrameBuf, Tuple};
use crate::pipeline::{FrameOut, Handoff, PipelineCtx, PipelineOp};
use crate::Result;
use asterix_sync::Mutex;

/// Join type. The hash join takes every kind, so either input of an
/// outer or semi join can build; the index nested-loop join takes the
/// probe-side kinds, its outer branch being the probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    /// Outer on the probe input: a probe tuple no match passed is emitted
    /// with nulls on the build side.
    ProbeOuter,
    /// Each probe tuple some match passed, once and alone.
    ProbeSemi,
    /// Outer on the build input: a build tuple no match passed is emitted
    /// with nulls on the probe side once the probe input has ended.
    BuildOuter,
    /// Each build tuple some match passed, once and alone.
    BuildSemi,
}

impl JoinType {
    /// Whether the build input is preserved, so each build tuple carries
    /// a flag that says whether a match passed.
    fn flags_build(self) -> bool {
        matches!(self, JoinType::BuildOuter | JoinType::BuildSemi)
    }
}

/// The hash-table key of one encoded tuple: concatenated canonical
/// comparison-key encodings of the key fields. `None` when any key value
/// is NULL/MISSING (unknown keys never join) — detected from the leading
/// type tag without decoding.
fn join_key(r: &TupleRef<'_>, fields: &[usize]) -> Result<Option<Vec<u8>>> {
    let mut key = Vec::new();
    for &f in fields {
        let vr = r.field(f);
        if vr.is_unknown() {
            return Ok(None);
        }
        ordkey::encode_value_into(&mut key, &vr.to_value()?);
    }
    Ok(Some(key))
}

/// Encoded all-NULL padding row for outer-join output.
fn null_pad(arity: usize) -> Vec<u8> {
    encode_tuple(&vec![Value::Null; arity])
}

/// Concatenate two encoded tuples and emit the result.
fn push_concat(
    out: &mut FrameOut,
    scratch: &mut Vec<u8>,
    b: &TupleRef<'_>,
    p: &TupleRef<'_>,
) -> Result<()> {
    scratch.clear();
    concat_tuples_into(scratch, b, p);
    out.push(scratch)
}

struct SpillWriter {
    w: BufWriter<File>,
    guard: SpillGuard,
    count: usize,
}

impl SpillWriter {
    fn create(tag: &str) -> Result<SpillWriter> {
        let guard = SpillGuard::new("join", tag, "part");
        let w = BufWriter::new(File::create(&guard.path)?);
        Ok(SpillWriter { w, guard, count: 0 })
    }

    /// Append one raw tuple encoding, length-prefixed.
    fn write(&mut self, bytes: &[u8]) -> Result<()> {
        self.w.write_all(&(bytes.len() as u32).to_le_bytes())?;
        self.w.write_all(bytes)?;
        self.count += 1;
        Ok(())
    }

    fn finish(mut self) -> Result<(SpillGuard, usize)> {
        self.w.flush()?;
        Ok((self.guard, self.count))
    }
}

fn read_spill(spill: &SpillGuard) -> Result<Vec<Vec<u8>>> {
    let mut r = BufReader::new(File::open(&spill.path)?);
    let mut out = Vec::new();
    loop {
        let mut len_buf = [0u8; 4];
        match r.read_exact(&mut len_buf) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        let mut buf = vec![0u8; len];
        r.read_exact(&mut buf)?;
        out.push(buf);
    }
    Ok(out)
}

/// Hybrid hash join, for every join kind. Input 0 is the Build activity
/// (blocking), input 1 the Probe activity, mirroring the two-activity
/// expansion described in §4.1. When the build side exceeds the memory
/// budget, both sides are Grace-partitioned to disk by join-key hash and
/// joined partition-wise.
///
/// A match is a build and a probe tuple with equal keys that the
/// `residual`, decided on `build ++ probe`, passes. Inner and outer joins
/// emit each match as `build ++ probe`; a semi-join emits each preserved
/// tuple with a match once, alone. An outer join pads the preserved side's
/// tuples no match passed: a probe tuple as it is probed, a build tuple —
/// NULL-keyed ones included — at the end of the probe activity, from the
/// in-memory table or from each Grace partition in turn.
///
/// With no keys it is the nested-loop join of a theta join: every tuple has
/// the one empty key, so every pair is a candidate, and the build side
/// never spills, Grace partitions having no key to tell tuples apart by.
pub struct HybridHashJoinOp {
    label: String,
    /// What `explain` appends to the name: which input builds, and the
    /// sizes the compiler chose it by.
    sides: String,
    pub build_keys: Vec<usize>,
    pub probe_keys: Vec<usize>,
    pub join_type: JoinType,
    /// Arity of the input an outer join pads with nulls: the build side's
    /// for `ProbeOuter`, the probe side's for `BuildOuter`.
    pub pad_arity: usize,
    /// What a pair of equal-keyed tuples must also pass to match.
    pub residual: Option<Predicate>,
    pub mem_budget: usize,
    /// Grace fan-out when spilling.
    pub fanout: usize,
    /// Runtime-filter hub slot this partition publishes to at end of
    /// build, when jobgen wired one. Pruning probe tuples without a build
    /// partner upstream is right for every kind but `ProbeOuter`, which
    /// must emit them.
    pub filter_id: Option<usize>,
}

impl HybridHashJoinOp {
    pub fn new(
        label: impl Into<String>,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
        join_type: JoinType,
        pad_arity: usize,
    ) -> HybridHashJoinOp {
        HybridHashJoinOp {
            label: label.into(),
            sides: String::new(),
            build_keys,
            probe_keys,
            join_type,
            pad_arity,
            residual: None,
            mem_budget: 64 << 20,
            fanout: 16,
            filter_id: None,
        }
    }

    pub fn with_budget(mut self, bytes: usize) -> Self {
        self.mem_budget = bytes.max(1024);
        self
    }

    /// Say in the operator's name which input builds (`[build=left ~2000,
    /// probe ~100000]`).
    pub fn with_sides(mut self, sides: impl Into<String>) -> Self {
        self.sides = sides.into();
        self
    }

    /// Match only the equal-keyed pairs `residual` passes, decided on
    /// `build ++ probe`.
    pub fn with_residual(mut self, residual: Predicate) -> Self {
        self.residual = Some(residual);
        self
    }

    /// Publish a runtime filter over the build-side key hashes through the
    /// executor's hub at end of build.
    pub fn with_runtime_filter(mut self, id: usize) -> Self {
        self.filter_id = Some(id);
        self
    }
}

impl OperatorDescriptor for HybridHashJoinOp {
    fn name(&self) -> String {
        if self.build_keys.is_empty() {
            format!("nested-loop-join {}", self.label)
        } else if self.sides.is_empty() {
            format!("hybrid-hash-join {}", self.label)
        } else {
            format!("hybrid-hash-join {} {}", self.label, self.sides)
        }
    }

    fn blocking_inputs(&self) -> Vec<usize> {
        vec![0] // the Build activity
    }

    fn activities(
        &self,
        ctx: PipelineCtx,
        next: Box<dyn PipelineOp>,
    ) -> Result<Vec<Box<dyn PipelineOp>>> {
        let built: Handoff<Built> = Arc::new(Mutex::new(None));
        let build = HashBuild {
            label: self.label.clone(),
            keys: self.build_keys.clone(),
            join_type: self.join_type,
            budget: self.mem_budget,
            fanout: self.fanout.max(2),
            rows: Vec::new(),
            bytes: 0,
            spill: Vec::new(),
            filter: self.filter_id.map(|id| (id, ctx.partition, Arc::clone(&ctx.env.filters))),
            filter_hashes: Vec::new(),
            built: Arc::clone(&built),
        };
        let probe = HashProbe {
            build_keys: self.build_keys.clone(),
            built,
            state: None,
            matches: Matches {
                keys: self.probe_keys.clone(),
                join_type: self.join_type,
                residual: self.residual.clone(),
                cols: None,
                pad: null_pad(self.pad_arity),
                scratch: Vec::new(),
                key_scratch: Vec::new(),
                out: FrameOut::new(&ctx.env, next),
            },
        };
        Ok(vec![Box::new(build), Box::new(probe)])
    }
}

/// A hash join's build tuples, their places by join key, and — for a
/// preserved build side — per tuple whether a match passed. A tuple with
/// an unknown key joins nothing (unknown keys never join): only an outer
/// build side keeps it, to emit it padded.
#[derive(Default)]
struct JoinTable {
    rows: Vec<Vec<u8>>,
    by_key: HashMap<Vec<u8>, Vec<usize>>,
    matched: Vec<bool>,
    /// Per row, the columns the residual reads of it, decoded when a pair
    /// first needs them (empty until one does).
    decoded: Vec<Option<Tuple>>,
}

fn join_table(build: Vec<Vec<u8>>, keys: &[usize], join_type: JoinType) -> Result<JoinTable> {
    let mut table = JoinTable::default();
    for bytes in build {
        match join_key(&TupleRef::new(&bytes)?, keys)? {
            Some(k) => table.by_key.entry(k).or_default().push(table.rows.len()),
            None if join_type == JoinType::BuildOuter => {}
            None => continue,
        }
        table.rows.push(bytes);
    }
    if join_type.flags_build() {
        table.matched = vec![false; table.rows.len()];
    }
    Ok(table)
}

/// What a hash join's probe activity joins against: the build side in
/// memory, or Grace-partitioned on disk with the probe side following it
/// there partition by partition. Each part's SpillGuard deletes its file
/// when the pair goes out of scope — after a clean merge, on an early `?`,
/// or on panic alike.
enum Built {
    Memory(JoinTable),
    Grace { build: Vec<(SpillGuard, usize)>, probe: Vec<SpillWriter> },
}

/// A hash join's Build activity: encoded tuples buffered until the budget,
/// then Grace-partitioned to disk by join-key hash.
struct HashBuild {
    label: String,
    keys: Vec<usize>,
    join_type: JoinType,
    budget: usize,
    fanout: usize,
    rows: Vec<Vec<u8>>,
    bytes: usize,
    /// One writer per Grace partition once the build side spilled.
    spill: Vec<SpillWriter>,
    /// `(filter id, partition, hub)` of the runtime filter published at
    /// end of build.
    filter: Option<(usize, usize, Arc<RuntimeFilterHub>)>,
    /// Every build tuple's key hash (unknown keys included — they can only
    /// make the filter pass more, never less, and probe-side unknowns are
    /// dropped at the join anyway).
    filter_hashes: Vec<u64>,
    built: Handoff<Built>,
}

impl HashBuild {
    fn spill_part(&self, r: &TupleRef<'_>) -> usize {
        hash_encoded_fields(r, &self.keys) as usize % self.fanout
    }

    fn spill_writers(&self, side: char) -> Result<Vec<SpillWriter>> {
        (0..self.fanout)
            .map(|i| SpillWriter::create(&format!("{}-{side}{i}", self.label)))
            .collect()
    }
}

impl PipelineOp for HashBuild {
    fn push(&mut self, enc: &[u8]) -> Result<()> {
        let r = TupleRef::new(enc)?;
        if self.filter.is_some() {
            self.filter_hashes.push(hash_encoded_fields(&r, &self.keys));
        }
        if !self.spill.is_empty() {
            let h = self.spill_part(&r);
            return self.spill[h].write(enc);
        }
        self.bytes += enc.len() + 32;
        self.rows.push(enc.to_vec());
        if self.bytes >= self.budget && !self.keys.is_empty() {
            self.spill = self.spill_writers('b')?;
            for enc in std::mem::take(&mut self.rows) {
                let h = self.spill_part(&TupleRef::new(&enc)?);
                self.spill[h].write(&enc)?;
            }
        }
        Ok(())
    }

    /// End of build: publish this partition's filter before the probe input
    /// is touched, so probe-side producers start pruning as early as
    /// possible. An empty build partition publishes too — its filter
    /// rejects every key, which is exactly right when no probe tuple
    /// without a partner is emitted.
    fn finish(&mut self) -> Result<()> {
        if let Some((id, partition, hub)) = &self.filter {
            hub.publish(*id, *partition, &std::mem::take(&mut self.filter_hashes));
        }
        let built = if self.spill.is_empty() {
            Built::Memory(join_table(std::mem::take(&mut self.rows), &self.keys, self.join_type)?)
        } else {
            let build = std::mem::take(&mut self.spill);
            let build = build.into_iter().map(|w| w.finish()).collect::<Result<_>>()?;
            Built::Grace { build, probe: self.spill_writers('p')? }
        };
        *self.built.lock() = Some(built);
        Ok(())
    }
}

/// A hash join's Probe activity: probe tuples stream against the table,
/// or follow the build side to disk and are joined partition-wise at end
/// of input.
struct HashProbe {
    build_keys: Vec<usize>,
    built: Handoff<Built>,
    /// Taken from the handoff at the first probe tuple.
    state: Option<Built>,
    matches: Matches,
}

/// Emits the matches of probe tuples against a build table.
struct Matches {
    keys: Vec<usize>,
    join_type: JoinType,
    residual: Option<Predicate>,
    /// What the residual reads of a pair, once the first pair it decodes
    /// tells the two sides' widths.
    cols: Option<PairCols>,
    /// The nulls an outer join pads the other side of an unmatched tuple
    /// with.
    pad: Vec<u8>,
    /// `build ++ probe` of the pair at hand.
    scratch: Vec<u8>,
    key_scratch: Vec<u8>,
    out: FrameOut,
}

/// The columns a residual reads of each side of a pair, and the pair they
/// are decoded into.
struct PairCols {
    build_width: usize,
    /// The build side's columns, and the probe side's, numbered within the
    /// probe tuple.
    build: Vec<usize>,
    probe: Vec<usize>,
    /// `build ++ probe`, decoded where the residual reads it and `Missing`
    /// elsewhere.
    pair: Tuple,
}

impl PairCols {
    /// The columns `fields` names (all of them when `None`) of a pair of
    /// `build_width` and `probe_width` columns.
    fn new(fields: Option<&[usize]>, build_width: usize, probe_width: usize) -> PairCols {
        let width = build_width + probe_width;
        let fields: Vec<usize> = fields.map_or_else(|| (0..width).collect(), <[usize]>::to_vec);
        PairCols {
            build_width,
            build: fields.iter().copied().filter(|&f| f < build_width).collect(),
            probe: fields.iter().filter(|&&f| f >= build_width).map(|f| f - build_width).collect(),
            pair: vec![Value::Missing; width],
        }
    }
}

impl Matches {
    fn probe(&mut self, table: &mut JoinTable, p: &[u8]) -> Result<()> {
        let jt = self.join_type;
        let probe = TupleRef::new(p)?;
        let hits = join_key(&probe, &self.keys)?.and_then(|k| table.by_key.get(&k));
        let (mut matched, mut probe_decoded) = (false, false);
        for &i in hits.map_or(&[][..], Vec::as_slice) {
            if jt == JoinType::BuildSemi && table.matched[i] {
                continue;
            }
            let b = TupleRef::new(&table.rows[i])?;
            if !self.passes(&b, &mut table.decoded, i, &probe, &mut probe_decoded)? {
                continue;
            }
            matched = true;
            match jt {
                JoinType::ProbeSemi => break,
                JoinType::BuildSemi => self.out.push(&table.rows[i])?,
                _ => push_concat(&mut self.out, &mut self.scratch, &b, &probe)?,
            }
            if jt.flags_build() {
                table.matched[i] = true;
            }
        }
        match jt {
            JoinType::ProbeSemi if matched => self.out.push(p),
            JoinType::ProbeOuter if !matched => {
                push_concat(&mut self.out, &mut self.scratch, &TupleRef::new(&self.pad)?, &probe)
            }
            _ => Ok(()),
        }
    }

    /// Whether the residual, if any, passes build row `i` (`b`) with
    /// `probe`. Its ordkey conjuncts decide on `build ++ probe` first; else
    /// its predicate does, over the columns it reads: the build row's,
    /// decoded once into `decoded[i]`, and the probe tuple's, decoded at its
    /// first pair that gets this far (`probe_decoded`).
    fn passes(
        &mut self,
        b: &TupleRef<'_>,
        decoded: &mut Vec<Option<Tuple>>,
        i: usize,
        probe: &TupleRef<'_>,
        probe_decoded: &mut bool,
    ) -> Result<bool> {
        let Some(residual) = &self.residual else { return Ok(true) };
        if !residual.ord.is_empty() {
            self.scratch.clear();
            concat_tuples_into(&mut self.scratch, b, probe);
            if let Some(pass) = residual.decide_encoded(&self.scratch, &mut self.key_scratch) {
                return Ok(pass);
            }
        }
        let cols = self.cols.get_or_insert_with(|| {
            PairCols::new(residual.fields.as_deref(), b.field_count(), probe.field_count())
        });
        if !*probe_decoded {
            for &f in &cols.probe {
                cols.pair[cols.build_width + f] = probe.field_value(f)?;
            }
            *probe_decoded = true;
        }
        if decoded.len() <= i {
            decoded.resize(i + 1, None);
        }
        let row = match &mut decoded[i] {
            Some(row) => row,
            slot => {
                let row = cols.build.iter().map(|&f| b.field_value(f));
                slot.insert(row.collect::<asterix_adm::Result<Tuple>>()?)
            }
        };
        for (&f, v) in cols.build.iter().zip(row.iter()) {
            cols.pair[f] = v.clone();
        }
        (residual.pred)(&cols.pair)
    }

    /// The end of a table's probing: an outer build side's tuples no match
    /// passed, padded.
    fn unmatched(&mut self, table: &JoinTable) -> Result<()> {
        if self.join_type != JoinType::BuildOuter {
            return Ok(());
        }
        let pad = TupleRef::new(&self.pad)?;
        for (b, _) in table.rows.iter().zip(&table.matched).filter(|(_, matched)| !**matched) {
            push_concat(&mut self.out, &mut self.scratch, &TupleRef::new(b)?, &pad)?;
        }
        Ok(())
    }
}

/// What the build activity left; a build that failed left nothing, which
/// joins as an empty build side.
fn take_built(built: &Handoff<Built>) -> Built {
    built.lock().take().unwrap_or_else(|| Built::Memory(JoinTable::default()))
}

impl HashProbe {
    /// End of the probe input: the in-memory table's unmatched build
    /// tuples, or the Grace partitions joined pairwise, each followed by
    /// its own.
    fn join_rest(&mut self) -> Result<()> {
        let jt = self.matches.join_type;
        let (build, probe) = match self.state.take().unwrap_or_else(|| take_built(&self.built)) {
            Built::Memory(table) => return self.matches.unmatched(&table),
            Built::Grace { build, probe } => (build, probe),
        };
        let probe: Vec<(SpillGuard, usize)> =
            probe.into_iter().map(|w| w.finish()).collect::<Result<_>>()?;
        for ((bspill, bcount), (pspill, pcount)) in build.into_iter().zip(probe) {
            // A side with no tuples leaves nothing to emit unless the other
            // is padded.
            if (bcount == 0 && jt != JoinType::ProbeOuter)
                || (pcount == 0 && jt != JoinType::BuildOuter)
            {
                continue;
            }
            let mut table = join_table(read_spill(&bspill)?, &self.build_keys, jt)?;
            for p in read_spill(&pspill)? {
                self.matches.probe(&mut table, &p)?;
            }
            self.matches.unmatched(&table)?;
        }
        Ok(())
    }
}

impl PipelineOp for HashProbe {
    fn push(&mut self, enc: &[u8]) -> Result<()> {
        let built = &self.built;
        match self.state.get_or_insert_with(|| take_built(built)) {
            Built::Memory(table) => self.matches.probe(table, enc),
            Built::Grace { probe, .. } => {
                let h = hash_encoded_fields(&TupleRef::new(enc)?, &self.matches.keys) as usize;
                let part = h % probe.len();
                probe[part].write(enc)
            }
        }
    }

    fn flush(&mut self) -> Result<()> {
        self.matches.out.flush()
    }

    fn finish(&mut self) -> Result<()> {
        let emitted = self.join_rest();
        self.matches.out.finish(emitted)
    }
}

/// Index nested-loop join: the outer tuples probe a secondary index for
/// the primary keys they join with, and the operator emits `outer ++ inner`
/// per fetched record. Selected by the `indexnl` hint (Query 14). Outer
/// tuples are buffered [`FETCH_BATCH`] at a time, Figure 6's shape per
/// batch: one [`ProbeFn`] call resolves every tuple's probe and searches
/// each index partition once for all of them. The batch is then fetched
/// and emitted in outer order, a chunk at a time: the tuples' groups' keys
/// are gathered until the next group would take them past `FETCH_BATCH`,
/// and one [`FetchFn`] call fetches the chunk as one sorted key list —
/// outer tuples arrive in no useful order, so a fetch per tuple would visit
/// the primary index at random. A group's keys are fetched once per chunk,
/// whatever number of its tuples the chunk holds. So a batch holds its
/// probes' keys, encoded, and at most `FETCH_BATCH` fetched records, or one
/// group's when that group alone matches more. A `filter` — the search's
/// post-validation — decides each `outer ++ inner` match inside the join,
/// so an outer tuple none of whose matches passes is padded like one that
/// found none.
pub struct IndexNlJoinOp {
    label: String,
    probe: ProbeFn,
    fetch: FetchFn,
    filter: Option<Predicate>,
    pub join_type: JoinType,
    /// Arity of the index-side tuples (for ProbeOuter null padding).
    pub inner_arity: usize,
}

impl IndexNlJoinOp {
    pub fn new(
        label: impl Into<String>,
        probe: ProbeFn,
        fetch: FetchFn,
        join_type: JoinType,
        inner_arity: usize,
    ) -> IndexNlJoinOp {
        IndexNlJoinOp { label: label.into(), probe, fetch, filter: None, join_type, inner_arity }
    }

    /// Keep only the matches `filter` accepts, decided on `outer ++ inner`.
    pub fn with_filter(mut self, filter: Predicate) -> IndexNlJoinOp {
        self.filter = Some(filter);
        self
    }

    fn batch(&self) -> IndexNlBatch {
        IndexNlBatch {
            probe: Arc::clone(&self.probe),
            fetch: Arc::clone(&self.fetch),
            filter: self.filter.clone(),
            join_type: self.join_type,
            pad: null_pad(self.inner_arity),
            outers: FrameBuf::new(),
            groups: Vec::new(),
            pks: FrameBuf::new(),
            askers: Vec::new(),
            by_group: Vec::new(),
            chunk: FrameBuf::new(),
            chunk_keys: Vec::new(),
            fetched_in: Vec::new(),
            inner: Vec::new(),
            found: Vec::new(),
            scratch: Vec::new(),
            key_scratch: Vec::new(),
        }
    }
}

impl OperatorDescriptor for IndexNlJoinOp {
    fn name(&self) -> String {
        format!("index-nested-loop-join {}", self.label)
    }

    fn pipeline(
        &self,
        _ctx: PipelineCtx,
        next: Box<dyn PipelineOp>,
    ) -> Result<Box<dyn PipelineOp>> {
        Ok(Box::new(BatchedStage { batch: self.batch(), next }))
    }
}

/// The buffered outer tuples of an [`IndexNlJoinOp`] instance, and
/// what their probes and the fetch found.
struct IndexNlBatch {
    probe: ProbeFn,
    fetch: FetchFn,
    filter: Option<Predicate>,
    join_type: JoinType,
    pad: Vec<u8>,
    outers: FrameBuf,
    /// Per outer tuple, the probe group it joins through.
    groups: Vec<usize>,
    /// The keys the batch's probes found, and the group each is for.
    pks: FrameBuf,
    askers: Vec<usize>,
    /// The keys by group, each group's in the order they were found.
    by_group: Vec<usize>,
    /// The chunk being gathered: its keys, and each one's place in `pks`.
    chunk: FrameBuf,
    chunk_keys: Vec<usize>,
    /// Per key, the number of the last chunk that gathered it.
    fetched_in: Vec<usize>,
    /// The chunk's fetched rows back to back, and each key's row in them.
    inner: Vec<u8>,
    found: Vec<Option<(usize, usize)>>,
    scratch: Vec<u8>,
    key_scratch: Vec<u8>,
}

impl Batched for IndexNlBatch {
    fn push(&mut self, enc: &[u8], out: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        self.outers.push_encoded(enc);
        if self.outers.tuple_count() >= FETCH_BATCH {
            self.drain(out)?;
        }
        Ok(())
    }

    fn drain(&mut self, out: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        if self.outers.is_empty() {
            return Ok(());
        }
        let res = self.join_batch(out);
        self.outers.clear();
        self.groups.clear();
        self.pks.clear();
        self.askers.clear();
        self.chunk_keys.clear();
        res
    }
}

impl IndexNlBatch {
    /// Probe the batch once, then fetch and emit it a chunk at a time.
    fn join_batch(&mut self, out: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        let (pks, askers) = (&mut self.pks, &mut self.askers);
        (self.probe)(&self.outers, &mut self.groups, &mut |g, pk| {
            pks.push_encoded(pk);
            askers.push(g);
            Ok(())
        })?;
        let askers = &self.askers;
        self.by_group.clear();
        self.by_group.extend(0..askers.len());
        self.by_group.sort_by_key(|&i| askers[i]);
        self.found.clear();
        self.found.resize(askers.len(), None);
        self.fetched_in.clear();
        self.fetched_in.resize(askers.len(), 0);
        let (mut first, mut chunk) = (0, 1);
        for o in 0..self.groups.len() {
            let keys = self.keys_of(self.groups[o]);
            if keys.is_empty() || self.fetched_in[self.by_group[keys.start]] == chunk {
                continue;
            }
            if !self.chunk_keys.is_empty() && self.chunk_keys.len() + keys.len() > FETCH_BATCH {
                self.join_chunk(first..o, out)?;
                (first, chunk) = (o, chunk + 1);
            }
            for &i in &self.by_group[keys] {
                self.fetched_in[i] = chunk;
                self.found[i] = None;
                self.chunk_keys.push(i);
            }
        }
        self.join_chunk(first..self.groups.len(), out)
    }

    /// Where group `g`'s keys sit in `by_group`.
    fn keys_of(&self, g: usize) -> Range<usize> {
        let askers = &self.askers;
        let from = self.by_group.partition_point(|&i| askers[i] < g);
        from..from + self.by_group[from..].partition_point(|&i| askers[i] == g)
    }

    /// Fetch the gathered keys, then emit the outer tuples `outers`, whose
    /// groups' keys they are.
    fn join_chunk(
        &mut self,
        outers: Range<usize>,
        out: &mut dyn FnMut(&[u8]) -> Result<()>,
    ) -> Result<()> {
        self.chunk.clear();
        for &i in &self.chunk_keys {
            self.chunk.push_encoded(self.pks.tuple_bytes(i));
        }
        let (inner, found, keys) = (&mut self.inner, &mut self.found, &self.chunk_keys);
        inner.clear();
        if !keys.is_empty() {
            (self.fetch)(&self.chunk, &mut |j, row| {
                found[keys[j]] = Some((inner.len(), inner.len() + row.len()));
                inner.extend_from_slice(row);
                Ok(())
            })?;
        }
        self.chunk_keys.clear();
        let pad = TupleRef::new(&self.pad)?;
        for o in outers {
            let outer = self.outers.tuple_ref(o)?;
            let mut matched = false;
            for k in self.keys_of(self.groups[o]) {
                let Some((a, b)) = self.found[self.by_group[k]] else { continue };
                self.scratch.clear();
                concat_tuples_into(&mut self.scratch, &outer, &TupleRef::new(&self.inner[a..b])?);
                if let Some(filter) = &self.filter {
                    if !filter.decide(&self.scratch, &mut self.key_scratch)? {
                        continue;
                    }
                }
                matched = true;
                out(&self.scratch)?;
            }
            if !matched && self.join_type == JoinType::ProbeOuter {
                self.scratch.clear();
                concat_tuples_into(&mut self.scratch, &outer, &pad);
                out(&self.scratch)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::{wire, ConnectorKind, ExchangeConfig};
    use crate::pipeline::testing::{read_all, run_partition};

    fn run_join(op: &dyn OperatorDescriptor, build: Vec<Tuple>, probe: Vec<Tuple>) -> Vec<Tuple> {
        let x = ExchangeConfig::default();
        let (mut b_out, b_in) = wire(&ConnectorKind::OneToOne, 1, 1, &x).unwrap();
        let (mut p_out, p_in) = wire(&ConnectorKind::OneToOne, 1, 1, &x).unwrap();
        let (mut r_out, mut r_in) = wire(&ConnectorKind::OneToOne, 1, 1, &x).unwrap();
        for t in build {
            b_out[0].push_encoded(&encode_tuple(&t)).unwrap();
        }
        for t in probe {
            p_out[0].push_encoded(&encode_tuple(&t)).unwrap();
        }
        drop(b_out);
        drop(p_out);
        let mut inputs = b_in;
        inputs.extend(p_in);
        run_partition(op, inputs, r_out.remove(0)).unwrap();
        read_all(&mut r_in[0]).unwrap()
    }

    fn kv(k: i64, v: &str) -> Tuple {
        vec![Value::Int64(k), Value::string(v)]
    }

    #[test]
    fn hash_join_inner() {
        let op = HybridHashJoinOp::new("j", vec![0], vec![0], JoinType::Inner, 2);
        let out = run_join(
            &op,
            vec![kv(1, "a"), kv(2, "b"), kv(2, "b2")],
            vec![kv(2, "x"), kv(3, "y"), kv(2, "z")],
        );
        assert_eq!(out.len(), 4); // 2 build rows × 2 probe rows for key 2
        for row in &out {
            assert_eq!(row.len(), 4);
            assert_eq!(row[0], row[2]);
        }
    }

    #[test]
    fn hash_join_probe_outer() {
        let op = HybridHashJoinOp::new("j", vec![0], vec![0], JoinType::ProbeOuter, 2);
        let mut out = run_join(&op, vec![kv(1, "a")], vec![kv(1, "x"), kv(9, "y")]);
        out.sort_by(|a, b| a[2].total_cmp(&b[2]));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0][0], Value::Int64(1)); // matched
        assert_eq!(out[1][0], Value::Null); // unmatched probe padded
        assert_eq!(out[1][2], Value::Int64(9));
    }

    /// A join partition whose build input is empty still pads an unmatched
    /// probe tuple to the build side's width: the schema above says
    /// "build ++ probe" whatever the partition happened to receive.
    #[test]
    fn probe_outer_pads_to_the_build_arity_where_a_build_partition_is_empty() {
        use crate::connector::ConnectorKind;
        use crate::job::JobSpec;
        use crate::ops::{SinkOp, SourceOp};

        // In memory, and with the build side Grace-partitioned to disk.
        for budget in [None, Some(1024)] {
            let mut job = JobSpec::new();
            // Every build key is 7: one of the two join partitions gets
            // the whole build side, the other nothing.
            let build = job.add(
                1,
                Arc::new(SourceOp::new("build", |_, _, emit| {
                    (0..200i64).try_for_each(|i| emit(vec![Value::Int64(7), Value::Int64(i)]))
                })),
            );
            let probe = job.add(
                1,
                Arc::new(SourceOp::new("probe", |_, _, emit| {
                    (0..40i64).try_for_each(|k| emit(vec![Value::Int64(k), Value::Int64(-k)]))
                })),
            );
            let mut op = HybridHashJoinOp::new("outer", vec![0], vec![0], JoinType::ProbeOuter, 2);
            if let Some(bytes) = budget {
                op = op.with_budget(bytes);
            }
            let join = job.add(2, Arc::new(op));
            let collector = Arc::new(asterix_sync::Mutex::new(Vec::new()));
            let sink = job.add(1, Arc::new(SinkOp::new(Arc::clone(&collector))));
            job.connect(ConnectorKind::MToNPartitioning { fields: vec![0] }, build, join);
            job.connect(ConnectorKind::MToNPartitioning { fields: vec![0] }, probe, join);
            job.connect(ConnectorKind::MToNReplicating, join, sink);
            crate::executor::run_job(&job).unwrap();

            let rows = collector.lock();
            assert_eq!(rows.len(), 200 + 39, "budget {budget:?}");
            for row in rows.iter() {
                assert_eq!(row.len(), 4, "budget {budget:?}: {row:?}");
                let k = row[2].as_i64().expect("the probe key, behind the build columns");
                assert_eq!(row[3], Value::Int64(-k));
                let padded = [Value::Null, Value::Null];
                assert_eq!(row[..2] == padded, k != 7, "budget {budget:?}: {row:?}");
            }
        }
    }

    /// What a join of `jt` answers, worked out pair by pair: each (build,
    /// probe) pair that `passes`, as `build ++ probe`; a preserved tuple
    /// without one padded, or for a semi-join each with one, alone.
    fn naive_join(
        jt: JoinType,
        build: &[Tuple],
        probe: &[Tuple],
        passes: impl Fn(&Tuple, &Tuple) -> bool,
    ) -> Vec<Tuple> {
        let pair = |b: &Tuple, p: &Tuple| [b.as_slice(), p.as_slice()].concat();
        let nulls = vec![Value::Null; 2];
        let mut out = Vec::new();
        if jt.flags_build() {
            for b in build {
                let ms: Vec<Tuple> =
                    probe.iter().filter(|p| passes(b, p)).map(|p| pair(b, p)).collect();
                match jt {
                    JoinType::BuildSemi if !ms.is_empty() => out.push(b.clone()),
                    JoinType::BuildOuter if ms.is_empty() => out.push(pair(b, &nulls)),
                    JoinType::BuildOuter => out.extend(ms),
                    _ => {}
                }
            }
        } else {
            for p in probe {
                let ms: Vec<Tuple> =
                    build.iter().filter(|b| passes(b, p)).map(|b| pair(b, p)).collect();
                match jt {
                    JoinType::ProbeSemi if !ms.is_empty() => out.push(p.clone()),
                    JoinType::ProbeOuter if ms.is_empty() => out.push(pair(&nulls, p)),
                    JoinType::ProbeSemi => {}
                    _ => out.extend(ms),
                }
            }
        }
        out
    }

    fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
        let cmp = |a: &Tuple, b: &Tuple| {
            let by_field = a.iter().zip(b).map(|(x, y)| x.total_cmp(y)).find(|o| o.is_ne());
            by_field.unwrap_or(a.len().cmp(&b.len()))
        };
        rows.sort_by(cmp);
        rows
    }

    /// Every kind on either build side, with a residual decided inside
    /// the join, in memory and Grace-partitioned under a 1 KiB budget:
    /// some build keys are NULL, and most build keys have no probe
    /// partner, so most Grace partitions hold build tuples alone.
    #[test]
    fn every_kind_decides_its_residual_inside_the_join_on_either_build_side() {
        let build: Vec<Tuple> = (0..300i64)
            .map(|i| {
                let k = if i % 7 == 0 { Value::Null } else { Value::Int64(i % 60) };
                vec![k, Value::Int64(i)]
            })
            .collect();
        let probe: Vec<Tuple> = (0..120i64)
            .map(|i| {
                let k = if i % 11 == 0 { Value::Null } else { Value::Int64(i % 4) };
                vec![k, Value::Int64(3 * i)]
            })
            .collect();
        // Over `build ++ probe`: the build value is below the probe value.
        let residual = Predicate {
            pred: Arc::new(|t: &Tuple| Ok(t[1].total_cmp(&t[3]).is_lt())),
            fields: None,
            ord: Vec::new(),
        };
        let passes = |b: &Tuple, p: &Tuple| {
            !b[0].is_unknown() && b[0] == p[0] && b[1].total_cmp(&p[1]).is_lt()
        };
        for jt in [
            JoinType::Inner,
            JoinType::ProbeOuter,
            JoinType::ProbeSemi,
            JoinType::BuildOuter,
            JoinType::BuildSemi,
        ] {
            let want = sorted(naive_join(jt, &build, &probe, passes));
            for budget in [None, Some(1024)] {
                let mut op = HybridHashJoinOp::new("kinds", vec![0], vec![0], jt, 2)
                    .with_residual(residual.clone());
                if let Some(bytes) = budget {
                    op = op.with_budget(bytes);
                }
                let got = sorted(run_join(&op, build.clone(), probe.clone()));
                assert_eq!(got.len(), want.len(), "{jt:?}, budget {budget:?}");
                assert_eq!(got, want, "{jt:?}, budget {budget:?}");
            }
        }
        // The data leaves every kind something to pad and to drop.
        let outer = naive_join(JoinType::BuildOuter, &build, &probe, passes);
        assert!(outer.iter().any(|r| r[0].is_unknown() && r[2].is_unknown()));
        assert!(outer.iter().any(|r| !r[0].is_unknown() && r[2].is_unknown()));
        let semi = naive_join(JoinType::BuildSemi, &build, &probe, passes);
        assert!(semi.len() > 10 && semi.len() < build.len(), "{}", semi.len());
    }

    #[test]
    fn nested_loop_pads_to_the_build_arity_over_an_empty_build_input() {
        let op = HybridHashJoinOp::new("nl", vec![], vec![], JoinType::ProbeOuter, 3);
        assert_eq!(op.name(), "nested-loop-join nl");
        let out = run_join(&op, vec![], vec![kv(1, "p")]);
        let mut padded = vec![Value::Null; 3];
        padded.extend(kv(1, "p"));
        assert_eq!(out, vec![padded]);
    }

    /// A residual over `build ++ probe` of two-column tuples that reads
    /// only the second column of each side: the build value is below the
    /// probe value.
    fn second_columns_ascend() -> Predicate {
        Predicate {
            pred: Arc::new(|t: &Tuple| {
                assert!(t[0].is_missing() && t[2].is_missing(), "undecoded columns: {t:?}");
                Ok(t[1].total_cmp(&t[3]).is_lt() && !t[1].is_unknown() && !t[3].is_unknown())
            }),
            fields: Some(vec![1, 3]),
            ord: Vec::new(),
        }
    }

    fn known_and_below(b: &Tuple, p: &Tuple) -> bool {
        !b[1].is_unknown() && !p[1].is_unknown() && b[1].total_cmp(&p[1]).is_lt()
    }

    /// With no keys every pair is a candidate: each kind matches exactly
    /// the pairs its residual passes, some values unknown, under a budget
    /// its build input exceeds.
    #[test]
    fn a_keyless_join_of_every_kind_matches_the_pairs_its_residual_passes() {
        let build: Vec<Tuple> = (0..90i64)
            .map(|i| {
                let v = if i % 9 == 0 { Value::Null } else { Value::Int64(i % 40) };
                vec![Value::Int64(i), v]
            })
            .collect();
        let probe: Vec<Tuple> = (0..50i64)
            .map(|i| {
                let v = if i % 7 == 0 { Value::Missing } else { Value::Int64(i % 30) };
                vec![Value::Int64(-i), v]
            })
            .collect();
        for jt in [
            JoinType::Inner,
            JoinType::ProbeOuter,
            JoinType::ProbeSemi,
            JoinType::BuildOuter,
            JoinType::BuildSemi,
        ] {
            let want = sorted(naive_join(jt, &build, &probe, known_and_below));
            let op = HybridHashJoinOp::new("theta", vec![], vec![], jt, 2)
                .with_residual(second_columns_ascend())
                .with_budget(1024);
            let got = sorted(run_join(&op, build.clone(), probe.clone()));
            assert_eq!(got, want, "{jt:?}");
            assert!(!want.is_empty() && want.len() < build.len() * probe.len(), "{jt:?}");
        }
    }

    /// A keyed join whose residual reads one column of each side decodes
    /// each build row's once, by row: every kind answers alike in memory,
    /// across Grace partitions under a 1 KiB budget, and pair by pair.
    #[test]
    fn a_residual_decides_alike_in_memory_and_across_grace_partitions() {
        let build: Vec<Tuple> = (0..400i64)
            .map(|i| {
                let v = if i % 13 == 0 { Value::Null } else { Value::Int64((i * 7) % 50) };
                vec![Value::Int64(i % 25), v]
            })
            .collect();
        let probe: Vec<Tuple> = (0..200i64)
            .map(|i| {
                let v = if i % 11 == 0 { Value::Missing } else { Value::Int64((i * 3) % 50) };
                vec![Value::Int64(i % 30), v]
            })
            .collect();
        let passes = |b: &Tuple, p: &Tuple| b[0] == p[0] && known_and_below(b, p);
        for jt in [
            JoinType::Inner,
            JoinType::ProbeOuter,
            JoinType::ProbeSemi,
            JoinType::BuildOuter,
            JoinType::BuildSemi,
        ] {
            let want = sorted(naive_join(jt, &build, &probe, passes));
            let op = |budget| {
                HybridHashJoinOp::new("cols", vec![0], vec![0], jt, 2)
                    .with_residual(second_columns_ascend())
                    .with_budget(budget)
            };
            let in_memory = sorted(run_join(&op(64 << 20), build.clone(), probe.clone()));
            let grace = sorted(run_join(&op(1024), build.clone(), probe.clone()));
            assert_eq!(in_memory, want, "{jt:?} in memory");
            assert_eq!(grace, in_memory, "{jt:?} across Grace partitions");
        }
    }

    #[test]
    fn null_keys_never_join() {
        let op = HybridHashJoinOp::new("j", vec![0], vec![0], JoinType::Inner, 2);
        let out = run_join(
            &op,
            vec![vec![Value::Null, Value::string("b")]],
            vec![vec![Value::Null, Value::string("p")]],
        );
        assert!(out.is_empty());
    }

    #[test]
    fn mixed_width_keys_join_by_value() {
        // Int32(7) on the build side joins Int64(7) / Double(7.0) probes:
        // the canonical key encoding collapses numeric widths just like
        // total_cmp equality did at the Value level.
        let op = HybridHashJoinOp::new("j", vec![0], vec![0], JoinType::Inner, 2);
        let out = run_join(
            &op,
            vec![vec![Value::Int32(7), Value::string("b")]],
            vec![
                vec![Value::Int64(7), Value::string("p1")],
                vec![Value::Double(7.0), Value::string("p2")],
                vec![Value::Int64(8), Value::string("p3")],
            ],
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn grace_spill_matches_in_memory() {
        let build: Vec<Tuple> = (0..2000i64).map(|i| kv(i % 500, "b")).collect();
        let probe: Vec<Tuple> = (0..1000i64).map(|i| kv(i % 500, "p")).collect();
        let big = HybridHashJoinOp::new("m", vec![0], vec![0], JoinType::Inner, 2);
        let expected = run_join(&big, build.clone(), probe.clone()).len();
        let tiny =
            HybridHashJoinOp::new("s", vec![0], vec![0], JoinType::Inner, 2).with_budget(2048);
        let got = run_join(&tiny, build, probe).len();
        assert_eq!(got, expected);
        assert_eq!(got, 2000 * 2); // each probe key matches 4 build rows; 1000 probes * 4
    }

    #[test]
    fn grace_spill_cleans_temp_files_on_error() {
        // Kill the downstream before running so the merge phase errors out
        // (DownstreamClosed) after the spill files exist, then check that
        // the SpillGuards removed every temp file for this label.
        let label = "guardtest";
        let build: Vec<Tuple> = (0..2000i64).map(|i| kv(i % 500, "b")).collect();
        let probe: Vec<Tuple> = (0..1000i64).map(|i| kv(i % 500, "p")).collect();
        let op =
            HybridHashJoinOp::new(label, vec![0], vec![0], JoinType::Inner, 2).with_budget(2048);
        let x = ExchangeConfig::default();
        let (mut b_out, b_in) = wire(&ConnectorKind::OneToOne, 1, 1, &x).unwrap();
        let (mut p_out, p_in) = wire(&ConnectorKind::OneToOne, 1, 1, &x).unwrap();
        let (mut r_out, r_in) = wire(&ConnectorKind::OneToOne, 1, 1, &x).unwrap();
        for t in build {
            b_out[0].push_encoded(&encode_tuple(&t)).unwrap();
        }
        for t in probe {
            p_out[0].push_encoded(&encode_tuple(&t)).unwrap();
        }
        drop(b_out);
        drop(p_out);
        drop(r_in); // downstream is gone
        let mut inputs = b_in;
        inputs.extend(p_in);
        let res = run_partition(&op, inputs, r_out.remove(0));
        assert!(res.is_err(), "merge into a closed downstream must error");
        let marker = format!("asterix-join-{}-{label}", std::process::id());
        let leaked: Vec<String> = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(&marker))
            .collect();
        assert!(leaked.is_empty(), "leaked spill files: {leaked:?}");
    }

    #[test]
    fn cancelled_grace_join_cleans_temp_files() {
        use asterix_rm::CancellationToken;

        // Like grace_spill_cleans_temp_files_on_error, but the unwind comes
        // from a cancellation token instead of a dead downstream: both
        // sides Grace-partition to disk, then the pairwise merge hits the
        // cancelled output port, and every SpillGuard must delete its file.
        let label = "canceljoin";
        let build: Vec<Tuple> = (0..2000i64).map(|i| kv(i % 500, "b")).collect();
        let probe: Vec<Tuple> = (0..1000i64).map(|i| kv(i % 500, "p")).collect();
        let op =
            HybridHashJoinOp::new(label, vec![0], vec![0], JoinType::Inner, 2).with_budget(2048);
        let x = ExchangeConfig::default();
        let (mut b_out, b_in) = wire(&ConnectorKind::OneToOne, 1, 1, &x).unwrap();
        let (mut p_out, p_in) = wire(&ConnectorKind::OneToOne, 1, 1, &x).unwrap();
        let token = CancellationToken::new();
        let out_cfg = ExchangeConfig { cancel: Some(token.clone()), ..Default::default() };
        let (mut r_out, r_in) = wire(&ConnectorKind::OneToOne, 1, 1, &out_cfg).unwrap();
        for t in build {
            b_out[0].push_encoded(&encode_tuple(&t)).unwrap();
        }
        for t in probe {
            p_out[0].push_encoded(&encode_tuple(&t)).unwrap();
        }
        drop(b_out);
        drop(p_out);
        token.cancel();
        let mut inputs = b_in;
        inputs.extend(p_in);
        let res = run_partition(&op, inputs, r_out.remove(0));
        assert!(
            matches!(res, Err(crate::HyracksError::Cancelled)),
            "expected Cancelled, got {res:?}"
        );
        drop(r_in);
        let marker = format!("asterix-join-{}-{label}", std::process::id());
        let leaked: Vec<String> = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(&marker))
            .collect();
        assert!(leaked.is_empty(), "leaked spill files after cancellation: {leaked:?}");
    }

    #[test]
    fn nested_loop_with_inequality() {
        let below = Predicate {
            pred: Arc::new(|t: &Tuple| Ok(t[0].total_cmp(&t[2]).is_lt())),
            fields: None,
            ord: Vec::new(),
        };
        let op =
            HybridHashJoinOp::new("nl", vec![], vec![], JoinType::Inner, 2).with_residual(below);
        let out = run_join(&op, vec![kv(1, "b1"), kv(5, "b5")], vec![kv(3, "p3"), kv(6, "p6")]);
        // b1<p3, b1<p6, b5<p6 → 3 rows.
        assert_eq!(out.len(), 3);
    }

    /// Runs an index-NL join over `outers`: key `k` probes to the primary
    /// keys `[k, k + 100, k + 200, ..]` (`fanout` of them) when even and to
    /// nothing when odd; the fetch knows records for keys below 100 only,
    /// and records the batches it was asked for.
    fn run_index_nl(
        join_type: JoinType,
        outers: Vec<Tuple>,
        fused: bool,
        fanout: i64,
    ) -> (Vec<Tuple>, Vec<usize>) {
        let int = |t: &[u8]| TupleRef::new(t).unwrap().field(0).as_i64().unwrap();
        let batches = Arc::new(asterix_sync::Mutex::new(Vec::new()));
        let seen = Arc::clone(&batches);
        let fetch: FetchFn = Arc::new(move |pks, emit| {
            seen.lock().push(pks.tuple_count());
            // Key order, as the contract says — not input order.
            let mut order: Vec<usize> = (0..pks.tuple_count()).collect();
            order.sort_by_key(|&i| int(pks.tuple_bytes(i)));
            for i in order {
                let k = int(pks.tuple_bytes(i));
                if k < 100 {
                    emit(i, &encode_tuple(&[Value::string(format!("rec-{k}"))]))?;
                }
            }
            Ok(())
        });
        let probe: ProbeFn = Arc::new(move |outers, groups, emit| {
            for (o, t) in outers.iter().enumerate() {
                groups.push(o);
                let k = int(t);
                if k % 2 == 0 {
                    for j in 0..fanout {
                        emit(o, &encode_tuple(&[Value::Int64(k + 100 * j)]))?;
                    }
                }
            }
            Ok(())
        });
        let op = IndexNlJoinOp::new("ix", probe, fetch, join_type, 1);
        let out = if fused {
            use crate::pipeline::testing::{Recorder, RecorderStage};
            let rec = Arc::new(asterix_sync::Mutex::new(Recorder::default()));
            let ctx = PipelineCtx { partition: 0, nparts: 1, env: Default::default() };
            let mut stage = op.pipeline(ctx, Box::new(RecorderStage(Arc::clone(&rec)))).unwrap();
            for t in &outers {
                stage.push(&encode_tuple(t)).unwrap();
            }
            assert!(
                outers.len() >= FETCH_BATCH || rec.lock().rows.is_empty(),
                "a partial batch waits for finish"
            );
            stage.finish().unwrap();
            let rec = rec.lock();
            assert!(rec.finished);
            rec.rows.iter().map(|r| asterix_adm::decode_tuple(r).unwrap()).collect()
        } else {
            // The join takes a single input (the outer side); the index
            // side is the two callbacks.
            let x = ExchangeConfig::default();
            let (mut b_out, b_in) = wire(&ConnectorKind::OneToOne, 1, 1, &x).unwrap();
            let (mut r_out, mut r_in) = wire(&ConnectorKind::OneToOne, 1, 1, &x).unwrap();
            for t in outers {
                b_out[0].push_encoded(&encode_tuple(&t)).unwrap();
            }
            drop(b_out);
            run_partition(&op, b_in, r_out.remove(0)).unwrap();
            read_all(&mut r_in[0]).unwrap()
        };
        let batches = batches.lock().clone();
        (out, batches)
    }

    #[test]
    fn index_nested_loop_fetches_a_batch_once_and_emits_in_outer_order() {
        // Outer keys descending, so outer order is the reverse of key order.
        let outers: Vec<Tuple> = (0..6i64).rev().map(|k| vec![Value::Int64(k)]).collect();
        for fused in [false, true] {
            let (out, batches) = run_index_nl(JoinType::ProbeOuter, outers.clone(), fused, 2);
            assert_eq!(batches, vec![6], "three probing outers, two keys each, one fetch");
            let got: Vec<(i64, Value)> =
                out.iter().map(|r| (r[0].as_i64().unwrap(), r[1].clone())).collect();
            let rec = |k: i64| Value::string(format!("rec-{k}"));
            assert_eq!(
                got,
                vec![
                    (5, Value::Null), // odd: no probe result, padded
                    (4, rec(4)),      // the k + 100 key has no record
                    (3, Value::Null),
                    (2, rec(2)),
                    (1, Value::Null),
                    (0, rec(0)),
                ],
                "fused={fused}"
            );
            let (inner, _) = run_index_nl(JoinType::Inner, outers.clone(), fused, 2);
            assert_eq!(inner.len(), 3, "fused={fused}");
        }
    }

    #[test]
    fn index_nested_loop_batches_are_bounded() {
        // Every outer probes to two keys: a fetch fills after half as many
        // outers as it holds keys, and the tail goes out on finish.
        let n = FETCH_BATCH as i64 + 10;
        let outers: Vec<Tuple> = (0..n).map(|k| vec![Value::Int64(2 * k)]).collect();
        for fused in [false, true] {
            let (out, batches) = run_index_nl(JoinType::Inner, outers.clone(), fused, 2);
            assert_eq!(batches, vec![FETCH_BATCH, FETCH_BATCH, 20], "fused={fused}");
            // Keys below 100 have records: outers 0, 2, .. 98.
            assert_eq!(out.len(), 50, "fused={fused}");
            assert!(out.windows(2).all(|w| w[0][0].total_cmp(&w[1][0]).is_lt()));
        }
    }

    #[test]
    fn index_nested_loop_wide_probes_fetch_in_bounded_chunks() {
        // Each outer probes to 20 keys: no fetch takes more than a fetch
        // batch of keys, and each key is fetched once.
        let n = 3 * FETCH_BATCH;
        let outers: Vec<Tuple> = (0..n as i64).map(|k| vec![Value::Int64(2 * k)]).collect();
        let (out, batches) = run_index_nl(JoinType::Inner, outers, true, 20);
        assert!(batches.iter().all(|&b| b <= FETCH_BATCH), "{batches:?}");
        assert_eq!(batches.iter().sum::<usize>(), 20 * n);
        assert_eq!(out.len(), 50);
        // A group wider than a fetch batch is fetched alone, in one piece.
        let wide = FETCH_BATCH as i64 + 1;
        let outers: Vec<Tuple> = [0, 1, 2].map(|k| vec![Value::Int64(k)]).into();
        let (out, batches) = run_index_nl(JoinType::ProbeOuter, outers, true, wide);
        assert_eq!(batches, [wide as usize, wide as usize]);
        let ks: Vec<i64> = out.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(ks, [0, 1, 2]);
    }

    /// Outer tuples that share a probe group share its keys: each key is
    /// fetched once and joined with every tuple of the group.
    #[test]
    fn index_nested_loop_tuples_of_one_group_share_its_keys() {
        let fetched = Arc::new(asterix_sync::Mutex::new(0));
        let seen = Arc::clone(&fetched);
        let fetch: FetchFn = Arc::new(move |pks, emit| {
            *seen.lock() += pks.tuple_count();
            (0..pks.tuple_count()).try_for_each(|i| emit(i, pks.tuple_bytes(i)))
        });
        // Every outer in group 0, which matches keys 1 and 2.
        let probe: ProbeFn = Arc::new(|outers, groups, emit| {
            groups.resize(outers.tuple_count(), 0);
            (1..=2i64).try_for_each(|k| emit(0, &encode_tuple(&[Value::Int64(k)])))
        });
        let op = IndexNlJoinOp::new("ix", probe, fetch, JoinType::Inner, 1);
        let x = ExchangeConfig::default();
        let (mut b_out, b_in) = wire(&ConnectorKind::OneToOne, 1, 1, &x).unwrap();
        let (mut r_out, mut r_in) = wire(&ConnectorKind::OneToOne, 1, 1, &x).unwrap();
        for o in 0..3i64 {
            b_out[0].push_encoded(&encode_tuple(&[Value::Int64(10 * o)])).unwrap();
        }
        drop(b_out);
        run_partition(&op, b_in, r_out.remove(0)).unwrap();
        let out = read_all(&mut r_in[0]).unwrap();
        let pairs: Vec<(i64, i64)> =
            out.iter().map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap())).collect();
        assert_eq!(pairs, [(0, 1), (0, 2), (10, 1), (10, 2), (20, 1), (20, 2)]);
        assert_eq!(*fetched.lock(), 2, "each key fetched once");
    }
}
