//! The operator library (§4.1).
//!
//! Operators are stateless descriptors. Per-partition state lives in the
//! push stages an operator instantiates per partition — one for a
//! single-input operator ([`OperatorDescriptor::pipeline`]), a build and a
//! probe for a join ([`OperatorDescriptor::activities`]) — whether the
//! operator is fused behind another or heads its own pipeline. Only a
//! source has a `run` body of its own. Expression evaluation is injected
//! as closures so the runtime stays data-language-neutral (the same
//! property that lets Hyracks host Hivesterix and VXQuery in the paper's
//! software stack, Figure 5).

mod group;
mod join;
mod sort;

pub use group::{AggKind, AggSpec, GroupMode, HashGroupOp, ScalarAggOp};
pub use join::{HybridHashJoinOp, IndexNlJoinOp, JoinType};
pub use sort::{sort_comparator, SortKey, SortOp};

use std::cmp::Ordering;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use asterix_adm::Value;
use asterix_sync::Mutex;

use crate::connector::{InputPort, OutputPort};
use crate::filter::FilterConsult;
use crate::frame::{FrameBuf, SelBitmap, Tuple};
use crate::pipeline::{finish_after, ExecEnv, PipelineCtx, PipelineOp, PortSink};
use crate::{HyracksError, Result};

/// Evaluate an expression over a tuple.
pub type EvalFn = Arc<dyn Fn(&Tuple) -> Result<Value> + Send + Sync>;

/// Evaluate a predicate over a tuple. `Ok(false)` for unknown (AQL's
/// 2.5-valued logic collapses to false at the select boundary).
pub type PredFn = Arc<dyn Fn(&Tuple) -> Result<bool> + Send + Sync>;

/// Produce the *encoded* tuples of one partition — the one source
/// contract: a scan or an index search hands the offset-prefixed tuple
/// encoding straight to the exchange without materializing `Value`s.
/// `(partition, nparts, partner, emit)`: `partner` is this run's consult
/// of the join filter the source was asked to apply
/// ([`SourceOp::with_join_filter`]), for the source to drop rows whose
/// join key has no build partner before it assembles them.
pub type RawSourceFn = Arc<
    dyn Fn(
            usize,
            usize,
            Option<&mut FilterConsult>,
            &mut dyn FnMut(&[u8]) -> Result<()>,
        ) -> Result<()>
        + Send
        + Sync,
>;

/// Resolve a batch of primary keys against the primary index:
/// `(pks, emit)`. `pks` holds the keys as encoded tuples of the key fields,
/// in any order and with repeats; the callee sorts them by storage key
/// itself and visits storage once per batch. For every key whose record
/// exists — and survives the filters pushed into the fetch — it calls
/// `emit(i, row)` with the key's position in `pks` and the record as an
/// encoded single-column tuple, in primary-key order within each storage
/// partition. `emit` runs with the index's read lock held: callers collect
/// the rows and push them downstream after the call.
pub type FetchFn =
    Arc<dyn Fn(&FrameBuf, &mut dyn FnMut(usize, &[u8]) -> Result<()>) -> Result<()> + Send + Sync>;

/// Resolve a batch of outer tuples to the primary keys each joins with
/// (the index side of an [`IndexNlJoinOp`]): `(outers, groups,
/// emit)`. The callee pushes onto `groups`, for each tuple of `outers` in
/// order, the number of the probe group it joins through — tuples whose
/// probes match the same keys (a probe that matches every key, say) may
/// share one — and calls `emit(g, pk)` for each primary key,
/// an encoded tuple of the key fields, that group `g` matches, in any
/// order. The callee searches each index partition once per call, and
/// `emit` may run with an index's read lock held: it only buffers.
pub type ProbeFn = Arc<
    dyn Fn(&FrameBuf, &mut Vec<usize>, &mut dyn FnMut(usize, &[u8]) -> Result<()>) -> Result<()>
        + Send
        + Sync,
>;

/// Keys a fetching stage buffers before it visits the primary index: enough
/// that the few thousand keys of a selective index search land several to
/// a row group, and a bounded slice of the query's memory either way.
pub const FETCH_BATCH: usize = 4096;

/// Per-partition execution context handed to `run`: what a source reads.
pub struct OpCtx {
    pub partition: usize,
    pub nparts: usize,
    /// The partition's output port.
    pub output: OutputPort,
    /// Job-wide execution environment (frame batching targets,
    /// runtime-filter hub, trace context, cancellation token).
    pub env: ExecEnv,
}

/// An operator: named, with declared blocking inputs (activity structure)
/// and a per-partition body — push stages for every operator but a
/// source, which overrides `run`.
pub trait OperatorDescriptor: Send + Sync {
    /// Display name (used by `JobSpec::describe`, Figure 6 style).
    fn name(&self) -> String;

    /// Input indexes that must be fully consumed before any output is
    /// produced — the activity split of §4.1 (e.g. hash-join input 0 is the
    /// Build activity).
    fn blocking_inputs(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Instantiate a single-input operator as a push stage feeding `next`.
    fn pipeline(&self, ctx: PipelineCtx, next: Box<dyn PipelineOp>) -> Result<Box<dyn PipelineOp>> {
        let _ = (ctx, next);
        Err(HyracksError::InvalidJob(format!(
            "operator {} cannot run as a pipeline stage",
            self.name()
        )))
    }

    /// Instantiate one push stage per input, in input order: the provided
    /// `run` feeds input `i` to stage `i` and finishes it before it feeds
    /// the next. The last stage feeds `next`; a join's build stage leaves
    /// its table for the probe stage. A single-input operator has one
    /// stage, its [`OperatorDescriptor::pipeline`].
    fn activities(
        &self,
        ctx: PipelineCtx,
        next: Box<dyn PipelineOp>,
    ) -> Result<Vec<Box<dyn PipelineOp>>> {
        Ok(vec![self.pipeline(ctx, next)?])
    }

    /// Execute one partition. The default drives an operator that heads
    /// its pipeline: its stages run over the partition's output port, each
    /// is fed its input's frames and finished exactly once — on success
    /// and on error. A stage returning [`HyracksError::DownstreamClosed`]
    /// stops its feed cleanly, as a closed channel does. Only a source
    /// overrides it.
    fn run(&self, ctx: &mut OpCtx, inputs: &mut [InputPort]) -> Result<()> {
        let pctx =
            PipelineCtx { partition: ctx.partition, nparts: ctx.nparts, env: ctx.env.clone() };
        let port = std::mem::replace(&mut ctx.output, OutputPort::sink());
        let mut stages = self.activities(pctx, Box::new(PortSink::new(port)))?;
        let mut res = Ok(());
        for (i, stage) in stages.iter_mut().enumerate() {
            if let (Ok(()), Some(input)) = (&res, inputs.get_mut(i)) {
                res = input.for_each_frame(|frame| match stage.push_frame(frame) {
                    Ok(()) => Ok(true),
                    Err(HyracksError::DownstreamClosed) => Ok(false),
                    Err(e) => Err(e),
                });
            }
            let finished = stage.finish();
            res = res.and(finished);
        }
        res
    }
}

/// One spill file of an operator (a sort run, a Grace partition), deleted
/// on drop — so *every* exit from the operator (clean merge, error `?`,
/// cancellation unwind, panic) removes its temp files.
pub(crate) struct SpillGuard {
    pub(crate) path: PathBuf,
}

impl SpillGuard {
    /// A fresh path, `asterix-<kind>-<pid>-<tag>-<n>.<ext>` in the temp dir.
    pub(crate) fn new(kind: &str, tag: &str, ext: &str) -> SpillGuard {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, AtomicOrdering::Relaxed);
        let name = format!("asterix-{kind}-{}-{tag}-{n}.{ext}", std::process::id());
        SpillGuard { path: std::env::temp_dir().join(name) }
    }
}

impl Drop for SpillGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Decode an encoded tuple for expression evaluation. With a referenced
/// field set, only those positions are decoded (through the O(1)
/// `TupleRef::field_value` accessor) into a sparse tuple whose other
/// positions hold `Missing` — callers passing a field set guarantee their
/// expressions read only these positions. Without one, the whole tuple is
/// decoded (the conservative fallback for open/variable-arity shapes).
fn decode_for_eval(bytes: &[u8], fields: Option<&[usize]>) -> Result<Tuple> {
    match fields {
        None => Ok(asterix_adm::decode_tuple(bytes)?),
        Some(fs) => {
            let r = asterix_adm::TupleRef::new(bytes)?;
            let width = fs.iter().copied().max().map_or(0, |m| m + 1);
            let mut t = vec![Value::Missing; width];
            for &f in fs {
                t[f] = r.field_value(f)?;
            }
            Ok(t)
        }
    }
}

// ---------------------------------------------------------------------------
// Sources and sinks
// ---------------------------------------------------------------------------

/// A data source driven by a closure (dataset scans, index searches, value
/// literals — the storage layer binds these). Every source emits encoded
/// tuple bytes ([`RawSourceFn`]) straight into frames: the runtime moves
/// bytes only, and values belong to the language layer above it.
pub struct SourceOp {
    label: String,
    source: RawSourceFn,
    /// `(filter id, join partitions)` of the runtime join filter the
    /// source applies to its rows.
    join_filter: Option<(usize, usize)>,
}

impl SourceOp {
    /// A source that emits encoded tuples (the serialized scan path).
    pub fn from_raw_fn(label: impl Into<String>, f: RawSourceFn) -> SourceOp {
        SourceOp { label: label.into(), source: f, join_filter: None }
    }

    /// A convenience for literal sources (tests, benches, the empty-tuple
    /// source): `f` emits tuples of values, each encoded on the way out.
    pub fn new(
        label: impl Into<String>,
        f: impl Fn(usize, usize, &mut dyn FnMut(Tuple) -> Result<()>) -> Result<()>
            + Send
            + Sync
            + 'static,
    ) -> SourceOp {
        let raw: RawSourceFn = Arc::new(move |partition, nparts, _partner, emit| {
            let mut enc = Vec::new();
            f(partition, nparts, &mut |t| {
                enc.clear();
                asterix_adm::encode_tuple_into(&mut enc, &t);
                emit(&enc)
            })
        });
        SourceOp::from_raw_fn(label, raw)
    }

    /// Hand the source a consult of runtime filter `filter_id` (of a
    /// join of `join_nparts` partitions). The consult is made per run, from
    /// the run's own hub: a job can run again, and what one run's build
    /// side published says nothing about the next run's.
    pub fn with_join_filter(mut self, filter_id: usize, join_nparts: usize) -> SourceOp {
        self.join_filter = Some((filter_id, join_nparts));
        self
    }
}

impl OperatorDescriptor for SourceOp {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn run(&self, ctx: &mut OpCtx, _inputs: &mut [InputPort]) -> Result<()> {
        let OpCtx { partition, nparts, output: out, env } = ctx;
        let mut partner = self
            .join_filter
            .map(|(id, join_nparts)| FilterConsult::new(&env.filters, id, join_nparts));
        // Batch emitted encodings into a frame and push it whole, so every
        // downstream batch-aware stage (and the exchange) sees frame
        // granularity.
        let tpf = env.tuples_per_frame.max(1);
        let mut batch = FrameBuf::new();
        let res = (self.source)(*partition, *nparts, partner.as_mut(), &mut |bytes| {
            batch.push_encoded(bytes);
            if batch.tuple_count() >= tpf {
                let res = out.push_frame(&batch);
                batch.clear();
                return res;
            }
            Ok(())
        });
        // What the source emitted before an error still goes out, as a
        // port flushes its frames on every exit; the source's error wins.
        let tail = if batch.is_empty() { Ok(()) } else { out.push_frame(&batch) };
        if let Some(partner) = &mut partner {
            partner.flush_stats();
        }
        res.and(tail)
    }
}

/// Collects every input tuple into a shared vector (job results).
pub struct SinkOp {
    collector: Arc<Mutex<Vec<Tuple>>>,
}

impl SinkOp {
    pub fn new(collector: Arc<Mutex<Vec<Tuple>>>) -> SinkOp {
        SinkOp { collector }
    }
}

impl OperatorDescriptor for SinkOp {
    fn name(&self) -> String {
        "result-sink".into()
    }

    fn pipeline(
        &self,
        _ctx: PipelineCtx,
        next: Box<dyn PipelineOp>,
    ) -> Result<Box<dyn PipelineOp>> {
        Ok(Box::new(SinkStage { collector: Arc::clone(&self.collector), local: Vec::new(), next }))
    }
}

struct SinkStage {
    collector: Arc<Mutex<Vec<Tuple>>>,
    local: Vec<Tuple>,
    next: Box<dyn PipelineOp>,
}

impl PipelineOp for SinkStage {
    fn push(&mut self, bytes: &[u8]) -> Result<()> {
        self.local.push(asterix_adm::decode_tuple(bytes)?);
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.next.flush()
    }

    fn finish(&mut self) -> Result<()> {
        // Results land in one batch at end of input (partial results still
        // land when an upstream error cut the run short: finish runs on
        // error too).
        self.collector.lock().extend(std::mem::take(&mut self.local));
        self.next.finish()
    }
}

// ---------------------------------------------------------------------------
// Tuple-at-a-time operators
// ---------------------------------------------------------------------------

/// Comparison kind of an ordkey-classified constant predicate (mirrors the
/// non-fuzzy compare operators of the expression language).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpKind {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpKind {
    fn apply(self, ord: Ordering) -> bool {
        match self {
            CmpKind::Eq => ord == Ordering::Equal,
            CmpKind::Neq => ord != Ordering::Equal,
            CmpKind::Lt => ord == Ordering::Less,
            CmpKind::Le => ord != Ordering::Greater,
            CmpKind::Gt => ord == Ordering::Greater,
            CmpKind::Ge => ord != Ordering::Less,
        }
    }

    /// The operator as written in a query (`explain` labels).
    pub fn symbol(self) -> &'static str {
        match self {
            CmpKind::Eq => "=",
            CmpKind::Neq => "!=",
            CmpKind::Lt => "<",
            CmpKind::Le => "<=",
            CmpKind::Gt => ">",
            CmpKind::Ge => ">=",
        }
    }
}

/// A constant comparison jobgen classified as ordkey-comparable:
/// `column [.path] <op> constant`, decided by memcmp of comparison-key
/// bytes without decoding the tuple. `key` is the constant's
/// `ordkey::encode_value` encoding, computed once at compile time.
///
/// Per-tuple evaluation is *partial*: tuples whose field cannot be
/// transcoded to a comparison key (non-scalar, or numeric at the |v| ≥
/// 9e15 collapse boundary where key order diverges from `total_cmp`)
/// return `None` and the caller falls back to the decoded predicate — so
/// the fast path can never change a verdict, only skip decode work.
#[derive(Clone, Debug)]
pub struct OrdPred {
    /// Tuple column holding the comparand (or the record it lives in).
    pub col: usize,
    /// When set, compare `column.path` (a record field addressed directly
    /// in the encoded bytes) instead of the column itself.
    pub path: Option<String>,
    pub op: CmpKind,
    /// `ordkey::encode_value` bytes of the constant.
    pub key: Vec<u8>,
}

impl OrdPred {
    /// Decide the predicate on encoded bytes alone. `Some(keep)` is
    /// authoritative; `None` means "decode and ask the real predicate".
    fn eval_encoded(&self, bytes: &[u8], scratch: &mut Vec<u8>) -> Option<bool> {
        let r = asterix_adm::TupleRef::new(bytes).ok()?;
        let mut fb = r.field_bytes(self.col);
        if let Some(name) = &self.path {
            // Fall back on anything but a record with the field present —
            // the decoded path owns the missing/non-record semantics.
            fb = asterix_adm::serde::encoded_record_field(fb, name)?;
        }
        // MISSING/NULL comparands: compare() yields NULL, which the select
        // boundary collapses to false. Decided without a key.
        if asterix_adm::ValueRef::new(fb).is_unknown() {
            return Some(false);
        }
        scratch.clear();
        if !asterix_adm::ordkey::encoded_scalar_key_into(fb, scratch) {
            return None;
        }
        Some(self.op.apply(scratch.as_slice().cmp(&self.key)))
    }
}

/// A predicate over encoded tuples, decided the cheapest way it can be:
/// its ordkey conjuncts on the bytes first, then — for a tuple they leave
/// open — the decoding predicate over the columns it reads. A select and
/// the index nested-loop join's postcondition decide through it, tuple by
/// tuple and frame by frame alike, so every path a tuple can take to it
/// gets the same verdict for the same work.
#[derive(Clone)]
pub struct Predicate {
    pub pred: PredFn,
    /// Columns the predicate reads, when the compiler knows them: only
    /// these are decoded per tuple, through `TupleRef::field_value`, and the
    /// predicate sees `Missing` everywhere else (`None` = full decode).
    pub fields: Option<Vec<usize>>,
    /// Ordkey-classified constant comparisons whose conjunction is the
    /// predicate (empty when some conjunct is not one): a tuple one of them
    /// rejects is dropped on memcmps of comparison-key bytes, and only
    /// tuples the transcoder refuses and none rejects are decoded. A
    /// comparison never fails to evaluate, so which conjunct rejects does
    /// not matter.
    pub ord: Vec<OrdPred>,
}

impl Predicate {
    /// Does the encoded tuple pass? `scratch` holds comparison keys.
    pub fn decide(&self, bytes: &[u8], scratch: &mut Vec<u8>) -> Result<bool> {
        if let Some(pass) = self.decide_encoded(bytes, scratch) {
            return Ok(pass);
        }
        let t = decode_for_eval(bytes, self.fields.as_deref())?;
        (self.pred)(&t)
    }

    /// The ordkey conjuncts' verdict on the bytes alone, where they reach
    /// one: some conjunct rejects the tuple, or every one accepts it.
    pub fn decide_encoded(&self, bytes: &[u8], scratch: &mut Vec<u8>) -> Option<bool> {
        let mut decided = !self.ord.is_empty();
        for o in &self.ord {
            match o.eval_encoded(bytes, scratch) {
                Some(false) => return Some(false),
                Some(true) => {}
                None => decided = false,
            }
        }
        decided.then_some(true)
    }
}

/// Filter by predicate (the `select` operator of Figure 6).
pub struct SelectOp {
    label: String,
    pred: Predicate,
}

impl SelectOp {
    pub fn new(label: impl Into<String>, pred: PredFn) -> SelectOp {
        SelectOp::with_predicate(label, Predicate { pred, fields: None, ord: Vec::new() })
    }

    pub fn with_predicate(label: impl Into<String>, pred: Predicate) -> SelectOp {
        SelectOp { label: label.into(), pred }
    }
}

impl OperatorDescriptor for SelectOp {
    fn name(&self) -> String {
        format!("select {}", self.label)
    }

    fn pipeline(
        &self,
        _ctx: PipelineCtx,
        next: Box<dyn PipelineOp>,
    ) -> Result<Box<dyn PipelineOp>> {
        Ok(Box::new(SelectStage {
            pred: self.pred.clone(),
            keep: SelBitmap::new(),
            key_scratch: Vec::new(),
            compacted: FrameBuf::new(),
            next,
        }))
    }
}

/// A select's stage: `push` and `push_frame` decide alike, through
/// [`Predicate::decide`] — an operator that emits tuple by tuple (the
/// primary fetch, the index nested-loop join) gets the ordkey fast path
/// too.
struct SelectStage {
    pred: Predicate,
    keep: SelBitmap,
    key_scratch: Vec<u8>,
    compacted: FrameBuf,
    next: Box<dyn PipelineOp>,
}

impl PipelineOp for SelectStage {
    fn push(&mut self, bytes: &[u8]) -> Result<()> {
        if self.pred.decide(bytes, &mut self.key_scratch)? {
            self.next.push(bytes)?;
        }
        Ok(())
    }

    fn push_frame(&mut self, frame: &FrameBuf) -> Result<()> {
        let n = frame.tuple_count();
        self.keep.reset(n);
        for i in 0..n {
            if self.pred.decide(frame.tuple_bytes(i), &mut self.key_scratch)? {
                self.keep.set(i);
            }
        }
        if self.keep.all() {
            self.next.push_frame(frame)
        } else if self.keep.count() > 0 {
            self.compacted.clear();
            frame.compact_into(&self.keep, &mut self.compacted);
            let compacted = std::mem::take(&mut self.compacted);
            let res = self.next.push_frame(&compacted);
            self.compacted = compacted;
            res
        } else {
            Ok(())
        }
    }

    fn flush(&mut self) -> Result<()> {
        self.next.flush()
    }

    fn finish(&mut self) -> Result<()> {
        self.next.finish()
    }
}

/// Append computed expression values to each tuple (Figure 6's `assign`).
pub struct AssignOp {
    label: String,
    exprs: Vec<EvalFn>,
    /// Columns the expressions read, when the compiler knows them: only
    /// those positions are decoded, and callers guarantee the expressions
    /// read input columns only. Without a field set the whole tuple is
    /// decoded and each expression also sees the values appended before
    /// it. Either way the appended values are spliced on at the byte level
    /// (`append_values_into`): input fields are never re-encoded.
    fields: Option<Vec<usize>>,
}

impl AssignOp {
    pub fn new(label: impl Into<String>, exprs: Vec<EvalFn>) -> AssignOp {
        AssignOp { label: label.into(), exprs, fields: None }
    }

    /// An assign whose expressions read only the given input columns.
    pub fn with_fields(
        label: impl Into<String>,
        exprs: Vec<EvalFn>,
        fields: Vec<usize>,
    ) -> AssignOp {
        AssignOp { label: label.into(), exprs, fields: Some(fields) }
    }
}

impl OperatorDescriptor for AssignOp {
    fn name(&self) -> String {
        format!("assign {}", self.label)
    }

    fn pipeline(
        &self,
        _ctx: PipelineCtx,
        next: Box<dyn PipelineOp>,
    ) -> Result<Box<dyn PipelineOp>> {
        Ok(Box::new(AssignStage {
            exprs: self.exprs.clone(),
            fields: self.fields.clone(),
            scratch: Vec::new(),
            next,
        }))
    }
}

struct AssignStage {
    exprs: Vec<EvalFn>,
    fields: Option<Vec<usize>>,
    scratch: Vec<u8>,
    next: Box<dyn PipelineOp>,
}

impl PipelineOp for AssignStage {
    fn push(&mut self, bytes: &[u8]) -> Result<()> {
        let mut t = decode_for_eval(bytes, self.fields.as_deref())?;
        let width = t.len();
        for e in &self.exprs {
            let v = e(&t)?;
            t.push(v);
        }
        self.scratch.clear();
        let base = asterix_adm::TupleRef::new(bytes)?;
        asterix_adm::tuple::append_values_into(&mut self.scratch, &base, &t[width..]);
        self.next.push(&self.scratch)
    }

    fn flush(&mut self) -> Result<()> {
        self.next.flush()
    }

    fn finish(&mut self) -> Result<()> {
        self.next.finish()
    }
}

/// Keep only the given field positions, in order.
pub struct ProjectOp {
    pub fields: Vec<usize>,
}

impl OperatorDescriptor for ProjectOp {
    fn name(&self) -> String {
        format!("project {:?}", self.fields)
    }

    fn pipeline(
        &self,
        _ctx: PipelineCtx,
        next: Box<dyn PipelineOp>,
    ) -> Result<Box<dyn PipelineOp>> {
        Ok(Box::new(ProjectStage {
            fields: self.fields.clone(),
            scratch: Vec::new(),
            projected: FrameBuf::new(),
            next,
        }))
    }
}

struct ProjectStage {
    fields: Vec<usize>,
    scratch: Vec<u8>,
    projected: FrameBuf,
    next: Box<dyn PipelineOp>,
}

impl PipelineOp for ProjectStage {
    fn push(&mut self, bytes: &[u8]) -> Result<()> {
        let r = asterix_adm::TupleRef::new(bytes)?;
        self.scratch.clear();
        asterix_adm::tuple::project_tuple_into(&mut self.scratch, &r, &self.fields);
        self.next.push(&self.scratch)
    }

    fn push_frame(&mut self, frame: &FrameBuf) -> Result<()> {
        self.projected.clear();
        for i in 0..frame.tuple_count() {
            let r = frame.tuple_ref(i)?;
            self.scratch.clear();
            asterix_adm::tuple::project_tuple_into(&mut self.scratch, &r, &self.fields);
            self.projected.push_encoded(&self.scratch);
        }
        let projected = std::mem::take(&mut self.projected);
        let res = self.next.push_frame(&projected);
        self.projected = projected;
        res
    }

    fn flush(&mut self) -> Result<()> {
        self.next.flush()
    }

    fn finish(&mut self) -> Result<()> {
        self.next.finish()
    }
}

/// Pass through at most `limit` tuples after skipping `offset` (per
/// instance — a global limit runs this at parallelism 1).
pub struct LimitOp {
    pub limit: usize,
    pub offset: usize,
}

impl OperatorDescriptor for LimitOp {
    fn name(&self) -> String {
        if self.offset > 0 {
            format!("limit {} offset {}", self.limit, self.offset)
        } else {
            format!("limit {}", self.limit)
        }
    }

    fn pipeline(
        &self,
        _ctx: PipelineCtx,
        next: Box<dyn PipelineOp>,
    ) -> Result<Box<dyn PipelineOp>> {
        Ok(Box::new(LimitStage {
            limit: self.limit,
            offset: self.offset,
            seen: 0,
            emitted: 0,
            next,
        }))
    }
}

struct LimitStage {
    limit: usize,
    offset: usize,
    seen: usize,
    emitted: usize,
    next: Box<dyn PipelineOp>,
}

impl PipelineOp for LimitStage {
    fn push(&mut self, bytes: &[u8]) -> Result<()> {
        if self.seen < self.offset {
            self.seen += 1;
            return Ok(());
        }
        if self.emitted >= self.limit {
            return Err(crate::HyracksError::DownstreamClosed);
        }
        self.next.push(bytes)?;
        self.emitted += 1;
        if self.emitted >= self.limit {
            // The fused analogue of a closed channel: tell upstream to stop
            // as soon as the last allowed tuple is delivered.
            return Err(crate::HyracksError::DownstreamClosed);
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.next.flush()
    }

    fn finish(&mut self) -> Result<()> {
        self.next.finish()
    }
}

/// Probe-side consult operator for runtime join filters: drops tuples
/// whose join-key hash certainly has no build-side match *before* the
/// exchange into the join. Jobgen inserts it on the probe branch of inner
/// hash joins, behind the scan, so it rides the scan-headed pipeline thread.
/// It stays there when the scan below applies the same filter itself
/// ([`SourceOp::with_join_filter`]): only columnar components decide
/// pushed filters, and rows scanned before the build side published pass.
pub struct RuntimeFilterProbeOp {
    /// Hub slot this probe consults ([`crate::job::JobSpec::alloc_runtime_filter`]).
    pub filter_id: usize,
    /// Probe-side columns holding the join key, in the join's key order —
    /// the columns the probe exchange hashes.
    pub key_cols: Vec<usize>,
    /// Partition count of the join: the modulus of the routing hash.
    pub join_nparts: usize,
}

impl OperatorDescriptor for RuntimeFilterProbeOp {
    fn name(&self) -> String {
        format!("runtime-filter-probe #{} {:?}", self.filter_id, self.key_cols)
    }

    fn pipeline(&self, ctx: PipelineCtx, next: Box<dyn PipelineOp>) -> Result<Box<dyn PipelineOp>> {
        Ok(Box::new(RuntimeFilterStage {
            consult: FilterConsult::new(&ctx.env.filters, self.filter_id, self.join_nparts),
            key_cols: self.key_cols.clone(),
            keep: SelBitmap::new(),
            compacted: FrameBuf::new(),
            next,
        }))
    }
}

struct RuntimeFilterStage {
    consult: FilterConsult,
    key_cols: Vec<usize>,
    keep: SelBitmap,
    compacted: FrameBuf,
    next: Box<dyn PipelineOp>,
}

impl PipelineOp for RuntimeFilterStage {
    fn push(&mut self, bytes: &[u8]) -> Result<()> {
        if self.consult.keep_tuple(&asterix_adm::TupleRef::new(bytes)?, &self.key_cols) {
            self.next.push(bytes)?;
        }
        Ok(())
    }

    fn push_frame(&mut self, frame: &FrameBuf) -> Result<()> {
        self.consult.poll();
        let n = frame.tuple_count();
        self.keep.reset(n);
        for i in 0..n {
            if self.consult.keep_tuple(&frame.tuple_ref(i)?, &self.key_cols) {
                self.keep.set(i);
            }
        }
        if self.keep.all() {
            self.next.push_frame(frame)
        } else if self.keep.count() > 0 {
            self.compacted.clear();
            frame.compact_into(&self.keep, &mut self.compacted);
            let compacted = std::mem::take(&mut self.compacted);
            let res = self.next.push_frame(&compacted);
            self.compacted = compacted;
            res
        } else {
            Ok(())
        }
    }

    fn flush(&mut self) -> Result<()> {
        self.next.flush()
    }

    fn finish(&mut self) -> Result<()> {
        self.consult.flush_stats();
        self.next.finish()
    }
}

/// Unnest a collection-valued expression: one output tuple per element,
/// with the element (and optionally its 1-based position, for AQL's `at`
/// positional variables) appended.
pub struct UnnestOp {
    label: String,
    expr: EvalFn,
    pub with_position: bool,
    /// When false (inner unnest), tuples whose collection is empty or
    /// unknown vanish; when true (outer), one tuple with `missing` appended
    /// survives — the left-outer shape of Query 4.
    pub outer: bool,
}

impl UnnestOp {
    pub fn new(label: impl Into<String>, expr: EvalFn) -> UnnestOp {
        UnnestOp { label: label.into(), expr, with_position: false, outer: false }
    }

    pub fn outer(label: impl Into<String>, expr: EvalFn) -> UnnestOp {
        UnnestOp { label: label.into(), expr, with_position: false, outer: true }
    }

    pub fn with_position(mut self) -> Self {
        self.with_position = true;
        self
    }
}

impl OperatorDescriptor for UnnestOp {
    fn name(&self) -> String {
        format!("unnest {}", self.label)
    }

    fn pipeline(
        &self,
        _ctx: PipelineCtx,
        next: Box<dyn PipelineOp>,
    ) -> Result<Box<dyn PipelineOp>> {
        Ok(Box::new(UnnestStage {
            expr: Arc::clone(&self.expr),
            with_position: self.with_position,
            outer: self.outer,
            scratch: Vec::new(),
            next,
        }))
    }
}

struct UnnestStage {
    expr: EvalFn,
    with_position: bool,
    outer: bool,
    scratch: Vec<u8>,
    next: Box<dyn PipelineOp>,
}

impl UnnestStage {
    /// Build one output row at the byte level: the input tuple's encoding
    /// plus the appended element (and position), never re-encoding the
    /// input fields.
    fn emit(&mut self, base: &asterix_adm::TupleRef<'_>, vals: &[Value]) -> Result<()> {
        self.scratch.clear();
        asterix_adm::tuple::append_values_into(&mut self.scratch, base, vals);
        self.next.push(&self.scratch)
    }
}

impl PipelineOp for UnnestStage {
    fn push(&mut self, bytes: &[u8]) -> Result<()> {
        let t = asterix_adm::decode_tuple(bytes)?;
        let coll = (self.expr)(&t)?;
        let base = asterix_adm::TupleRef::new(bytes)?;
        match coll.as_list() {
            Some(items) if !items.is_empty() => {
                for (i, item) in items.iter().enumerate() {
                    if self.with_position {
                        self.emit(&base, &[item.clone(), Value::Int64(i as i64 + 1)])?;
                    } else {
                        self.emit(&base, std::slice::from_ref(item))?;
                    }
                }
            }
            _ if self.outer => {
                if self.with_position {
                    self.emit(&base, &[Value::Missing, Value::Missing])?;
                } else {
                    self.emit(&base, &[Value::Missing])?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.next.flush()
    }

    fn finish(&mut self) -> Result<()> {
        self.next.finish()
    }
}

/// Primary-index lookup of a batch of keys (Figure 6's step after the
/// `$pk` sort): input tuples are primary keys, output tuples the records
/// they name. Keys are buffered [`FETCH_BATCH`] at a time and fetched as
/// one key list, so a row group of the primary index is visited once per
/// batch instead of once per key; what is left is fetched on
/// `flush`/`finish`.
pub struct PrimaryFetchOp {
    label: String,
    fetch: FetchFn,
}

impl PrimaryFetchOp {
    pub fn new(label: impl Into<String>, fetch: FetchFn) -> PrimaryFetchOp {
        PrimaryFetchOp { label: label.into(), fetch }
    }
}

impl OperatorDescriptor for PrimaryFetchOp {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn pipeline(
        &self,
        _ctx: PipelineCtx,
        next: Box<dyn PipelineOp>,
    ) -> Result<Box<dyn PipelineOp>> {
        Ok(Box::new(BatchedStage { batch: FetchBatch::new(&self.fetch), next }))
    }
}

/// The body of an operator that buffers input tuples and emits per batch
/// (the primary fetch, the index nested-loop join), run as a push stage by
/// [`BatchedStage`].
pub(crate) trait Batched: Send {
    /// Buffer one encoded input tuple; emits through `out` when the batch
    /// is full.
    fn push(&mut self, bytes: &[u8], out: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()>;

    /// Emit what is buffered.
    fn drain(&mut self, out: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()>;
}

pub(crate) struct BatchedStage<B> {
    pub(crate) batch: B,
    pub(crate) next: Box<dyn PipelineOp>,
}

impl<B: Batched> PipelineOp for BatchedStage<B> {
    fn push(&mut self, bytes: &[u8]) -> Result<()> {
        let next = &mut self.next;
        self.batch.push(bytes, &mut |row| next.push(row))
    }

    fn flush(&mut self) -> Result<()> {
        let next = &mut self.next;
        self.batch.drain(&mut |row| next.push(row))?;
        self.next.flush()
    }

    fn finish(&mut self) -> Result<()> {
        let next = &mut self.next;
        let drained = self.batch.drain(&mut |row| next.push(row));
        finish_after(drained, self.next.as_mut())
    }
}

/// The buffered keys of a [`PrimaryFetchOp`] instance, and the rows of the
/// batch being fetched. Keys stay the encoded tuples they arrived as.
struct FetchBatch {
    fetch: FetchFn,
    pks: FrameBuf,
    rows: FrameBuf,
}

impl FetchBatch {
    fn new(fetch: &FetchFn) -> FetchBatch {
        FetchBatch { fetch: Arc::clone(fetch), pks: FrameBuf::new(), rows: FrameBuf::new() }
    }
}

impl Batched for FetchBatch {
    fn push(&mut self, bytes: &[u8], out: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        self.pks.push_encoded(bytes);
        if self.pks.tuple_count() >= FETCH_BATCH {
            self.drain(out)?;
        }
        Ok(())
    }

    fn drain(&mut self, out: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        if self.pks.is_empty() {
            return Ok(());
        }
        // The fetch runs under the primary index's read lock: its rows go
        // downstream only once it has returned, so a slow consumer cannot
        // hold writers up.
        let rows = &mut self.rows;
        rows.clear();
        let fetched = (self.fetch)(&self.pks, &mut |_, row| {
            rows.push_encoded(row);
            Ok(())
        });
        self.pks.clear();
        fetched?;
        rows.iter().try_for_each(out)
    }
}

/// Duplicate elimination on a set of key columns: the first tuple of each
/// distinct key survives. Run after hash-partitioning on those columns for
/// global dedup.
pub struct DistinctOp {
    pub keys: Vec<usize>,
}

impl OperatorDescriptor for DistinctOp {
    fn name(&self) -> String {
        format!("distinct {:?}", self.keys)
    }

    fn pipeline(
        &self,
        _ctx: PipelineCtx,
        next: Box<dyn PipelineOp>,
    ) -> Result<Box<dyn PipelineOp>> {
        Ok(Box::new(DistinctStage {
            keys: self.keys.clone(),
            seen: std::collections::HashSet::new(),
            next,
        }))
    }
}

struct DistinctStage {
    keys: Vec<usize>,
    seen: std::collections::HashSet<Vec<u8>>,
    next: Box<dyn PipelineOp>,
}

impl PipelineOp for DistinctStage {
    fn push(&mut self, bytes: &[u8]) -> Result<()> {
        let r = asterix_adm::TupleRef::new(bytes)?;
        let mut key = Vec::new();
        for &i in &self.keys {
            asterix_adm::ordkey::encode_value_into(&mut key, &r.field_value(i)?);
        }
        if self.seen.insert(key) {
            self.next.push(bytes)?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.next.flush()
    }

    fn finish(&mut self) -> Result<()> {
        self.next.finish()
    }
}

/// Forwards its input unchanged, under a label: the one instance a
/// multi-partition ORDER BY merges into ("merge") and a global operator
/// gathers into ("gather"). It has no stage of its own — its stage is the
/// next one — so frames pass whole, never decoded or re-encoded.
pub struct ForwardOp {
    label: String,
}

impl ForwardOp {
    pub fn new(label: impl Into<String>) -> ForwardOp {
        ForwardOp { label: label.into() }
    }
}

impl OperatorDescriptor for ForwardOp {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn pipeline(
        &self,
        _ctx: PipelineCtx,
        next: Box<dyn PipelineOp>,
    ) -> Result<Box<dyn PipelineOp>> {
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::{wire, ConnectorKind, ExchangeConfig};
    use crate::pipeline::testing::{read_all, run_partition, Recorder, RecorderStage};

    /// A fetch that knows a record for every even key and logs the size of
    /// each batch it is handed.
    fn even_keys(batches: &Arc<Mutex<Vec<usize>>>) -> FetchFn {
        let batches = Arc::clone(batches);
        Arc::new(move |pks: &FrameBuf, emit| {
            batches.lock().push(pks.tuple_count());
            for (i, pk) in pks.iter().enumerate() {
                let k = asterix_adm::TupleRef::new(pk)?.field(0).as_i64().unwrap();
                if k % 2 == 0 {
                    emit(i, &asterix_adm::encode_tuple(&[Value::string(format!("rec-{k}"))]))?;
                }
            }
            Ok(())
        })
    }

    #[test]
    fn primary_fetch_stage_batches_and_drains_on_flush_and_finish() {
        let batches = Arc::new(Mutex::new(Vec::new()));
        let op = PrimaryFetchOp::new("fetch", even_keys(&batches));
        let rec = Arc::new(Mutex::new(Recorder::default()));
        let ctx = PipelineCtx { partition: 0, nparts: 1, env: Default::default() };
        let mut stage = op.pipeline(ctx, Box::new(RecorderStage(Arc::clone(&rec)))).unwrap();
        let push = |stage: &mut Box<dyn PipelineOp>, keys: std::ops::Range<i64>| {
            for k in keys {
                stage.push(&asterix_adm::encode_tuple(&[Value::Int64(k)])).unwrap();
            }
        };
        push(&mut stage, 0..10);
        assert!(rec.lock().rows.is_empty(), "a partial batch waits");
        stage.flush().unwrap();
        assert_eq!(rec.lock().rows.len(), 5, "flush fetches what is buffered");
        let n = FETCH_BATCH as i64;
        push(&mut stage, 10..10 + n + 6);
        assert_eq!(rec.lock().rows.len(), 5 + FETCH_BATCH / 2, "a full batch goes out at once");
        stage.finish().unwrap();
        assert_eq!(*batches.lock(), vec![10, FETCH_BATCH, 6]);
        let rec = rec.lock();
        assert!(rec.finished);
        assert_eq!(rec.rows.len(), 5 + FETCH_BATCH / 2 + 3);
        assert_eq!(rec.rows[1], asterix_adm::encode_tuple(&[Value::string("rec-2")]));
    }

    /// A select over `n >= 5 and n < 12` whose conjuncts both take the
    /// ordkey path keeps exactly what the decoding predicate keeps, and
    /// decodes only the tuples the transcoder refuses and no conjunct
    /// rejects.
    #[test]
    fn conjunct_ordkey_select_matches_the_decoding_predicate() {
        let n = |v: Value| {
            let mut r = asterix_adm::Record::new();
            r.set("n", v);
            vec![Value::record(r)]
        };
        let mut frame = FrameBuf::new();
        let mut tuples: Vec<Tuple> = (0..20).map(|i| n(Value::Int64(i))).collect();
        tuples.push(n(Value::Null));
        tuples.push(vec![Value::record(asterix_adm::Record::new())]);
        tuples.push(n(Value::string("7")));
        tuples.push(n(Value::Double(7.5)));
        tuples.push(n(Value::ordered_list(vec![Value::Int64(7)])));
        for t in &tuples {
            frame.push_tuple(t);
        }
        let decoded = Arc::new(AtomicU64::new(0));
        let calls = Arc::clone(&decoded);
        let (lo, hi) = (Value::Int64(5), Value::Int64(12));
        let pred: PredFn = Arc::new(move |t: &Tuple| {
            calls.fetch_add(1, AtomicOrdering::Relaxed);
            let v = t[0].field("n");
            Ok(!v.is_unknown() && v.total_cmp(&lo).is_ge() && v.total_cmp(&hi).is_lt())
        });
        let cmp = |op, v: &Value| OrdPred {
            col: 0,
            path: Some("n".into()),
            op,
            key: asterix_adm::ordkey::encode_value(v),
        };
        let ord = vec![cmp(CmpKind::Ge, &Value::Int64(5)), cmp(CmpKind::Lt, &Value::Int64(12))];
        let ordkey = Predicate { pred: Arc::clone(&pred), fields: None, ord };
        for per_tuple in [false, true] {
            let want = run_select(SelectOp::new("decoding", Arc::clone(&pred)), &frame, per_tuple);
            assert_eq!(decoded.swap(0, AtomicOrdering::Relaxed), tuples.len() as u64);
            let got =
                run_select(SelectOp::with_predicate("ordkey", ordkey.clone()), &frame, per_tuple);
            assert_eq!(got, want, "per_tuple={per_tuple}");
            assert_eq!(want.len(), 8, "5..12 and 7.5");
            let refused = decoded.swap(0, AtomicOrdering::Relaxed);
            assert_eq!(
                refused, 2,
                "per_tuple={per_tuple}: only the record without `n` and the list are decoded"
            );
        }
    }

    /// Runs a select over `frame`, whole or one tuple at a time, and
    /// returns the tuples it keeps.
    fn run_select(sel: SelectOp, frame: &FrameBuf, per_tuple: bool) -> Vec<Vec<u8>> {
        let rec = Arc::new(Mutex::new(Recorder::default()));
        let ctx = PipelineCtx { partition: 0, nparts: 1, env: Default::default() };
        let mut stage = sel.pipeline(ctx, Box::new(RecorderStage(Arc::clone(&rec)))).unwrap();
        if per_tuple {
            frame.iter().for_each(|t| stage.push(t).unwrap());
        } else {
            stage.push_frame(frame).unwrap();
        }
        let rows = rec.lock().rows.clone();
        rows
    }

    /// Without a field set, each expression of an assign sees the values
    /// appended before it, and the input fields reach the output as they
    /// came.
    #[test]
    fn assign_expressions_see_the_values_appended_before_them() {
        let int = |t: &Tuple, i: usize| t.get(i).and_then(Value::as_i64).unwrap_or(-1);
        let exprs: Vec<EvalFn> = vec![
            Arc::new(move |t: &Tuple| Ok(Value::Int64(int(t, 0) * 2))),
            Arc::new(move |t: &Tuple| Ok(Value::Int64(int(t, 2) + 1))),
        ];
        let rec = Arc::new(Mutex::new(Recorder::default()));
        let ctx = PipelineCtx { partition: 0, nparts: 1, env: Default::default() };
        let assign = AssignOp::new("chained", exprs);
        let mut stage = assign.pipeline(ctx, Box::new(RecorderStage(Arc::clone(&rec)))).unwrap();
        let input = [Value::Int64(3), Value::string("x")];
        stage.push(&asterix_adm::encode_tuple(&input)).unwrap();
        let want = [Value::Int64(3), Value::string("x"), Value::Int64(6), Value::Int64(7)];
        assert_eq!(rec.lock().rows, vec![asterix_adm::encode_tuple(&want)]);
    }

    #[test]
    fn primary_fetch_run_matches_the_stage() {
        let batches = Arc::new(Mutex::new(Vec::new()));
        let op = PrimaryFetchOp::new("fetch", even_keys(&batches));
        let x = ExchangeConfig::default();
        let (mut k_out, k_in) = wire(&ConnectorKind::OneToOne, 1, 1, &x).unwrap();
        let (mut r_out, mut r_in) = wire(&ConnectorKind::OneToOne, 1, 1, &x).unwrap();
        for k in 0..9i64 {
            k_out[0].push_encoded(&asterix_adm::encode_tuple(&[Value::Int64(k)])).unwrap();
        }
        drop(k_out);
        run_partition(&op, k_in, r_out.remove(0)).unwrap();
        let out = read_all(&mut r_in[0]).unwrap();
        assert_eq!(*batches.lock(), vec![9]);
        let want: Vec<Tuple> =
            (0..9).step_by(2).map(|k| vec![Value::string(format!("rec-{k}"))]).collect();
        assert_eq!(out, want);
    }
}
