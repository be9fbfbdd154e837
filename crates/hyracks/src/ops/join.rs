//! Join operators (§4.1): HybridHash (with Grace-style spilling),
//! NestedLoop, and the index nested-loop join selected by the
//! `/*+ indexnl */` hint (Query 14).
//!
//! The hash join works on *encoded* tuples throughout: hash-table keys are
//! the canonical `ordkey` encodings of the join-key values (byte equality
//! there is exactly ADM `total_cmp` equality, collapsing numeric widths),
//! buckets hold raw tuple encodings, output rows are built by byte-level
//! concatenation ([`concat_tuples_into`]), and Grace spill partitions are
//! files of raw tuple bytes hashed with the byte-level field hasher.
//!
//! The hash and nested-loop joins are two activities each, one per input
//! (§4.1): a build stage takes input 0 and leaves what it built in a
//! [`Handoff`] when it finishes; the probe stage takes input 1 and emits.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::sync::Arc;

use asterix_adm::{concat_tuples_into, encode_tuple, ordkey, TupleRef, Value};

use super::{Batched, BatchedStage, FetchFn, OperatorDescriptor, PredFn, SpillGuard, FETCH_BATCH};
use crate::filter::RuntimeFilterHub;
use crate::frame::{hash_encoded_fields, FrameBuf, Tuple};
use crate::pipeline::{FrameOut, Handoff, PipelineCtx, PipelineOp};
use crate::Result;
use asterix_sync::Mutex;

/// Join type: inner, or outer on the probe input (unmatched probe tuples
/// are emitted with nulls on the build side; the compiler arranges the
/// outer branch to be the probe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    ProbeOuter,
    /// Each probe tuple with a build match, once and alone (nested-loop
    /// joins only).
    ProbeSemi,
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

/// Encoded all-NULL padding row for ProbeOuter output.
fn null_pad(arity: usize) -> Vec<u8> {
    encode_tuple(&vec![Value::Null; arity])
}

/// Concatenate two encoded tuples and emit the result.
fn push_concat(out: &mut FrameOut, scratch: &mut Vec<u8>, b: &[u8], p: &[u8]) -> Result<()> {
    scratch.clear();
    concat_tuples_into(scratch, &TupleRef::new(b)?, &TupleRef::new(p)?);
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

/// Hybrid hash join. Input 0 is the Build activity (blocking), input 1 the
/// Probe activity, mirroring the two-activity expansion described in §4.1.
/// When the build side exceeds the memory budget, both sides are
/// Grace-partitioned to disk by join-key hash and joined partition-wise.
pub struct HybridHashJoinOp {
    label: String,
    /// What `explain` appends to the name: which input builds, and the
    /// sizes the compiler chose it by.
    sides: String,
    pub build_keys: Vec<usize>,
    pub probe_keys: Vec<usize>,
    pub join_type: JoinType,
    /// Arity of the build-side tuples (for ProbeOuter null padding).
    pub build_arity: usize,
    pub mem_budget: usize,
    /// Grace fan-out when spilling.
    pub fanout: usize,
    /// Runtime-filter hub slot this partition publishes to at end of
    /// build, when jobgen wired one (inner joins only — an outer probe
    /// must keep unmatched tuples, so pruning them upstream would be
    /// wrong).
    pub filter_id: Option<usize>,
}

impl HybridHashJoinOp {
    pub fn new(
        label: impl Into<String>,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
        join_type: JoinType,
        build_arity: usize,
    ) -> HybridHashJoinOp {
        HybridHashJoinOp {
            label: label.into(),
            sides: String::new(),
            build_keys,
            probe_keys,
            join_type,
            build_arity,
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

    /// Publish a runtime filter over the build-side key hashes through the
    /// executor's hub at end of build.
    pub fn with_runtime_filter(mut self, id: usize) -> Self {
        self.filter_id = Some(id);
        self
    }
}

impl OperatorDescriptor for HybridHashJoinOp {
    fn name(&self) -> String {
        if self.sides.is_empty() {
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
                pad: null_pad(self.build_arity),
                scratch: Vec::new(),
                out: FrameOut::new(&ctx.env, next),
            },
        };
        Ok(vec![Box::new(build), Box::new(probe)])
    }
}

/// Build-side tuples by join key (unknown keys never join, so they are
/// left out).
type JoinTable = HashMap<Vec<u8>, Vec<Vec<u8>>>;

fn join_table(build: Vec<Vec<u8>>, keys: &[usize]) -> Result<JoinTable> {
    let mut table = JoinTable::new();
    for bytes in build {
        if let Some(k) = join_key(&TupleRef::new(&bytes)?, keys)? {
            table.entry(k).or_default().push(bytes);
        }
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
        if self.bytes >= self.budget {
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
    /// rejects every key, which is exactly right for an inner join.
    fn finish(&mut self) -> Result<()> {
        if let Some((id, partition, hub)) = &self.filter {
            hub.publish(*id, *partition, &std::mem::take(&mut self.filter_hashes));
        }
        let built = if self.spill.is_empty() {
            Built::Memory(join_table(std::mem::take(&mut self.rows), &self.keys)?)
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
    /// Build-side nulls an unmatched ProbeOuter tuple is padded with.
    pad: Vec<u8>,
    scratch: Vec<u8>,
    out: FrameOut,
}

impl Matches {
    fn probe(&mut self, table: &JoinTable, p: &[u8]) -> Result<()> {
        let out = &mut self.out;
        match join_key(&TupleRef::new(p)?, &self.keys)?.and_then(|k| table.get(&k)) {
            Some(ms) => ms.iter().try_for_each(|b| push_concat(out, &mut self.scratch, b, p)),
            None if self.join_type == JoinType::ProbeOuter => {
                push_concat(out, &mut self.scratch, &self.pad, p)
            }
            None => Ok(()),
        }
    }
}

/// What the build activity left; a build that failed left nothing, which
/// joins as an empty build side.
fn take_built(built: &Handoff<Built>) -> Built {
    built.lock().take().unwrap_or_else(|| Built::Memory(JoinTable::new()))
}

impl HashProbe {
    /// Join the Grace partitions pairwise.
    fn join_spilled(&mut self) -> Result<()> {
        let state = self.state.take().unwrap_or_else(|| take_built(&self.built));
        let Built::Grace { build, probe } = state else { return Ok(()) };
        let probe: Vec<(SpillGuard, usize)> =
            probe.into_iter().map(|w| w.finish()).collect::<Result<_>>()?;
        for ((bspill, bcount), (pspill, pcount)) in build.into_iter().zip(probe) {
            if pcount == 0 && (bcount == 0 || self.matches.join_type == JoinType::Inner) {
                continue;
            }
            let table = join_table(read_spill(&bspill)?, &self.build_keys)?;
            for p in read_spill(&pspill)? {
                self.matches.probe(&table, &p)?;
            }
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
        let emitted = self.join_spilled();
        self.matches.out.finish(emitted)
    }
}

/// Does a (build, probe) tuple pair join?
type JoinPredFn = Arc<dyn Fn(&Tuple, &Tuple) -> Result<bool> + Send + Sync>;

/// Block nested-loop join with an arbitrary predicate over (build, probe)
/// tuple pairs — the fallback for non-equijoins (spatial joins without an
/// index, Query 5's inner pairing).
pub struct NestedLoopJoinOp {
    label: String,
    pred: JoinPredFn,
    pub join_type: JoinType,
    /// Arity of the build-side tuples (for ProbeOuter null padding).
    pub build_arity: usize,
}

impl NestedLoopJoinOp {
    pub fn new(
        label: impl Into<String>,
        pred: impl Fn(&Tuple, &Tuple) -> Result<bool> + Send + Sync + 'static,
        join_type: JoinType,
        build_arity: usize,
    ) -> NestedLoopJoinOp {
        NestedLoopJoinOp { label: label.into(), pred: Arc::new(pred), join_type, build_arity }
    }
}

impl OperatorDescriptor for NestedLoopJoinOp {
    fn name(&self) -> String {
        format!("nested-loop-join {}", self.label)
    }

    fn blocking_inputs(&self) -> Vec<usize> {
        vec![0]
    }

    fn activities(
        &self,
        ctx: PipelineCtx,
        next: Box<dyn PipelineOp>,
    ) -> Result<Vec<Box<dyn PipelineOp>>> {
        let built: Handoff<NlRows> = Arc::new(Mutex::new(None));
        let probe = NlProbe {
            pred: Arc::clone(&self.pred),
            join_type: self.join_type,
            pad: null_pad(self.build_arity),
            built: Arc::clone(&built),
            build: None,
            scratch: Vec::new(),
            out: FrameOut::new(&ctx.env, next),
        };
        Ok(vec![Box::new(NlBuild { rows: Vec::new(), built }), Box::new(probe)])
    }
}

/// Build-side tuples of a nested-loop join: the predicate needs decoded
/// values; the encoding is kept alongside so matched rows are emitted by
/// byte concatenation, not cloning.
type NlRows = Vec<(Tuple, Vec<u8>)>;

/// A nested-loop join's build activity: buffers every build tuple.
struct NlBuild {
    rows: NlRows,
    built: Handoff<NlRows>,
}

impl PipelineOp for NlBuild {
    fn push(&mut self, enc: &[u8]) -> Result<()> {
        self.rows.push((asterix_adm::decode_tuple(enc)?, enc.to_vec()));
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        *self.built.lock() = Some(std::mem::take(&mut self.rows));
        Ok(())
    }
}

/// A nested-loop join's probe activity: every probe tuple against every
/// build tuple.
struct NlProbe {
    pred: JoinPredFn,
    join_type: JoinType,
    pad: Vec<u8>,
    built: Handoff<NlRows>,
    /// Taken from the handoff at the first probe tuple.
    build: Option<NlRows>,
    scratch: Vec<u8>,
    out: FrameOut,
}

impl PipelineOp for NlProbe {
    fn push(&mut self, penc: &[u8]) -> Result<()> {
        let built = &self.built;
        let build = self.build.get_or_insert_with(|| built.lock().take().unwrap_or_default());
        let p = asterix_adm::decode_tuple(penc)?;
        if self.join_type == JoinType::ProbeSemi {
            for (b, _) in build.iter() {
                if (self.pred)(b, &p)? {
                    return self.out.push(penc);
                }
            }
            return Ok(());
        }
        let mut matched = false;
        for (b, benc) in build.iter() {
            if (self.pred)(b, &p)? {
                matched = true;
                push_concat(&mut self.out, &mut self.scratch, benc, penc)?;
            }
        }
        if !matched && self.join_type == JoinType::ProbeOuter {
            push_concat(&mut self.out, &mut self.scratch, &self.pad, penc)?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.out.flush()
    }

    fn finish(&mut self) -> Result<()> {
        self.out.finish(Ok(()))
    }
}

/// Index nested-loop join: each outer tuple probes a secondary index for
/// the primary keys it joins with, and the operator emits `outer ++ inner`
/// per fetched record. Selected by the `indexnl` hint (Query 14). The
/// probes' keys are gathered [`FETCH_BATCH`] at a time and fetched as one
/// sorted key list — outer tuples arrive in no useful order, so a fetch
/// per tuple would visit the primary index at random — and the batch is
/// emitted in outer order. A `filter` — the search's post-validation —
/// decides each `outer ++ inner` match inside the join, so an outer tuple
/// none of whose matches passes is padded like one that found none.
pub struct IndexNestedLoopJoinOp {
    label: String,
    /// The primary keys one outer tuple joins with.
    probe: ProbeFn,
    fetch: FetchFn,
    filter: Option<PredFn>,
    pub join_type: JoinType,
    /// Arity of the index-side tuples (for ProbeOuter null padding).
    pub inner_arity: usize,
}

type ProbeFn = Arc<dyn Fn(&Tuple) -> Result<Vec<Tuple>> + Send + Sync>;

impl IndexNestedLoopJoinOp {
    pub fn new(
        label: impl Into<String>,
        probe: impl Fn(&Tuple) -> Result<Vec<Tuple>> + Send + Sync + 'static,
        fetch: FetchFn,
        join_type: JoinType,
        inner_arity: usize,
    ) -> IndexNestedLoopJoinOp {
        IndexNestedLoopJoinOp {
            label: label.into(),
            probe: Arc::new(probe),
            fetch,
            filter: None,
            join_type,
            inner_arity,
        }
    }

    /// Keep only the matches `filter` accepts, decided on `outer ++ inner`.
    pub fn with_filter(mut self, filter: PredFn) -> IndexNestedLoopJoinOp {
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
            pk_ends: Vec::new(),
            pks: Vec::new(),
            inner: Vec::new(),
            found: Vec::new(),
            scratch: Vec::new(),
        }
    }
}

impl OperatorDescriptor for IndexNestedLoopJoinOp {
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

/// The buffered outer tuples of an [`IndexNestedLoopJoinOp`] instance and
/// the keys their probes returned.
struct IndexNlBatch {
    probe: ProbeFn,
    fetch: FetchFn,
    filter: Option<PredFn>,
    join_type: JoinType,
    pad: Vec<u8>,
    outers: FrameBuf,
    /// Per buffered outer tuple, where its keys end in `pks` (they start
    /// where the previous tuple's end).
    pk_ends: Vec<usize>,
    pks: Vec<Tuple>,
    /// The fetched inner rows back to back, and each key's row in them.
    inner: Vec<u8>,
    found: Vec<Option<(usize, usize)>>,
    scratch: Vec<u8>,
}

impl Batched for IndexNlBatch {
    fn push(&mut self, enc: &[u8], out: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        let outer = asterix_adm::decode_tuple(enc)?;
        self.pks.extend((self.probe)(&outer)?);
        self.pk_ends.push(self.pks.len());
        self.outers.push_encoded(enc);
        if self.pks.len() >= FETCH_BATCH || self.pk_ends.len() >= FETCH_BATCH {
            self.drain(out)?;
        }
        Ok(())
    }

    fn drain(&mut self, out: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        let res = self.join_batch(out);
        self.outers.clear();
        self.pk_ends.clear();
        self.pks.clear();
        res
    }
}

impl IndexNlBatch {
    /// Fetch the batch's keys once, then emit in outer order.
    fn join_batch(&mut self, out: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        let (inner, found) = (&mut self.inner, &mut self.found);
        inner.clear();
        found.clear();
        found.resize(self.pks.len(), None);
        if !self.pks.is_empty() {
            (self.fetch)(&self.pks, &mut |i, row| {
                found[i] = Some((inner.len(), inner.len() + row.len()));
                inner.extend_from_slice(row);
                Ok(())
            })?;
        }
        let pad = TupleRef::new(&self.pad)?;
        let mut start = 0;
        for (o, &end) in self.pk_ends.iter().enumerate() {
            let outer = self.outers.tuple_ref(o)?;
            let mut matched = false;
            for &(a, b) in found[start..end].iter().flatten() {
                self.scratch.clear();
                concat_tuples_into(&mut self.scratch, &outer, &TupleRef::new(&inner[a..b])?);
                if let Some(filter) = &self.filter {
                    if !filter(&asterix_adm::decode_tuple(&self.scratch)?)? {
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
            start = end;
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
        let (mut b_out, b_in) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &x).unwrap();
        let (mut p_out, p_in) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &x).unwrap();
        let (mut r_out, mut r_in) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &x).unwrap();
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

    #[test]
    fn nested_loop_pads_to_the_build_arity_over_an_empty_build_input() {
        let op = NestedLoopJoinOp::new("nl", |_, _| Ok(true), JoinType::ProbeOuter, 3);
        let out = run_join(&op, vec![], vec![kv(1, "p")]);
        let mut padded = vec![Value::Null; 3];
        padded.extend(kv(1, "p"));
        assert_eq!(out, vec![padded]);
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
        let (mut b_out, b_in) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &x).unwrap();
        let (mut p_out, p_in) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &x).unwrap();
        let (mut r_out, r_in) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &x).unwrap();
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
        let (mut b_out, b_in) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &x).unwrap();
        let (mut p_out, p_in) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &x).unwrap();
        let token = CancellationToken::new();
        let out_cfg = ExchangeConfig { cancel: Some(token.clone()), ..Default::default() };
        let (mut r_out, r_in) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &out_cfg).unwrap();
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
        let op = NestedLoopJoinOp::new(
            "nl",
            |b, p| Ok(b[0].total_cmp(&p[0]).is_lt()),
            JoinType::Inner,
            2,
        );
        let out = run_join(&op, vec![kv(1, "b1"), kv(5, "b5")], vec![kv(3, "p3"), kv(6, "p6")]);
        // b1<p3, b1<p6, b5<p6 → 3 rows.
        assert_eq!(out.len(), 3);
    }

    /// Runs an index-NL join over `outers`: key `k` probes to the primary
    /// keys `[k, k + 100]` when even and to nothing when odd; the fetch
    /// knows records for keys below 100 only, and records the batches it
    /// was asked for.
    fn run_index_nl(
        join_type: JoinType,
        outers: Vec<Tuple>,
        fused: bool,
    ) -> (Vec<Tuple>, Vec<usize>) {
        let batches = Arc::new(asterix_sync::Mutex::new(Vec::new()));
        let seen = Arc::clone(&batches);
        let fetch: FetchFn = Arc::new(move |pks, emit| {
            seen.lock().push(pks.len());
            // Key order, as the contract says — not input order.
            let mut order: Vec<usize> = (0..pks.len()).collect();
            order.sort_by(|a, b| pks[*a][0].total_cmp(&pks[*b][0]));
            for i in order {
                let k = pks[i][0].as_i64().unwrap();
                if k < 100 {
                    emit(i, &encode_tuple(&[Value::string(format!("rec-{k}"))]))?;
                }
            }
            Ok(())
        });
        let op = IndexNestedLoopJoinOp::new(
            "ix",
            |t| {
                let k = t[0].as_i64().unwrap();
                Ok(if k % 2 == 0 {
                    vec![vec![Value::Int64(k)], vec![Value::Int64(k + 100)]]
                } else {
                    vec![]
                })
            },
            fetch,
            join_type,
            1,
        );
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
            let (mut b_out, b_in) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &x).unwrap();
            let (mut r_out, mut r_in) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &x).unwrap();
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
            let (out, batches) = run_index_nl(JoinType::ProbeOuter, outers.clone(), fused);
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
            let (inner, _) = run_index_nl(JoinType::Inner, outers.clone(), fused);
            assert_eq!(inner.len(), 3, "fused={fused}");
        }
    }

    #[test]
    fn index_nested_loop_batches_are_bounded() {
        // Every outer probes to two keys: a batch fills after half as many
        // outers as it holds keys, and the tail goes out on finish.
        let n = FETCH_BATCH as i64 + 10;
        let outers: Vec<Tuple> = (0..n).map(|k| vec![Value::Int64(2 * k)]).collect();
        for fused in [false, true] {
            let (out, batches) = run_index_nl(JoinType::Inner, outers.clone(), fused);
            assert_eq!(batches, vec![FETCH_BATCH, FETCH_BATCH, 20], "fused={fused}");
            // Keys below 100 have records: outers 0, 2, .. 98.
            assert_eq!(out.len(), 50, "fused={fused}");
            assert!(out.windows(2).all(|w| w[0][0].total_cmp(&w[1][0]).is_lt()));
        }
    }
}
