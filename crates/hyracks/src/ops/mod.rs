//! The operator library (§4.1).
//!
//! Operators are stateless descriptors; per-partition state lives inside
//! `run`, which the executor invokes once per partition on its own thread.
//! Expression evaluation is injected as closures so the runtime stays
//! data-language-neutral (the same property that lets Hyracks host
//! Hivesterix and VXQuery in the paper's software stack, Figure 5).

mod group;
mod join;
mod sort;

pub use group::{AggKind, AggSpec, GroupMode, HashGroupOp, PreclusteredGroupOp, ScalarAggOp};
pub use join::{HybridHashJoinOp, IndexNestedLoopJoinOp, JoinType, NestedLoopJoinOp};
pub use sort::{sort_comparator, SortKey, SortOp};

use std::cmp::Ordering;
use std::sync::Arc;

use asterix_adm::Value;
use parking_lot::Mutex;

use crate::connector::{InputPort, OutputPort};
use crate::filter::FilterConsult;
use crate::frame::{FrameBuf, SelBitmap, Tuple};
use crate::pipeline::{ExecEnv, PipelineCtx, PipelineOp};
use crate::Result;

/// Evaluate an expression over a tuple.
pub type EvalFn = Arc<dyn Fn(&Tuple) -> Result<Value> + Send + Sync>;

/// Evaluate a predicate over a tuple. `Ok(false)` for unknown (AQL's
/// 2.5-valued logic collapses to false at the select boundary).
pub type PredFn = Arc<dyn Fn(&Tuple) -> Result<bool> + Send + Sync>;

/// Produce source tuples for one partition: `(partition, nparts, emit)`.
pub type SourceFn =
    Arc<dyn Fn(usize, usize, &mut dyn FnMut(Tuple) -> Result<()>) -> Result<()> + Send + Sync>;

/// Produce *encoded* source tuples for one partition — the zero-copy scan
/// path: storage hands the offset-prefixed tuple encoding straight to the
/// exchange without materializing `Value`s. `(partition, nparts, partner,
/// emit)`: `partner` is this run's consult of the join filter the source
/// was asked to apply ([`SourceOp::with_join_filter`]), for the source to
/// drop rows whose join key has no build partner before it assembles them.
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
/// `(pks, emit)`. `pks` may come in any order and repeat; the callee sorts
/// them by encoded key itself and visits storage once per batch. For every
/// key whose record exists — and survives the filters pushed into the
/// fetch — it calls `emit(i, row)` with the key's position in `pks` and the
/// record as an encoded single-column tuple, in primary-key order within
/// each storage partition. `emit` runs with the index's read lock held:
/// callers collect the rows and push them downstream after the call.
pub type FetchFn =
    Arc<dyn Fn(&[Tuple], &mut dyn FnMut(usize, &[u8]) -> Result<()>) -> Result<()> + Send + Sync>;

/// Keys a fetching stage buffers before it visits the primary index: enough
/// that the few thousand keys of a selective index search land several to
/// a row group, and a bounded slice of the query's memory either way.
pub const FETCH_BATCH: usize = 4096;

/// Per-partition execution context handed to `run`.
pub struct OpCtx {
    pub partition: usize,
    pub nparts: usize,
    /// Simulated node hosting this partition.
    pub node: usize,
    pub inputs: Vec<InputPort>,
    pub outputs: Vec<OutputPort>,
    /// Job-wide execution environment (vectorization switch, frame batching
    /// target, runtime-filter hub).
    pub env: ExecEnv,
}

/// An operator: named, with declared blocking inputs (activity structure)
/// and a per-partition run body.
pub trait OperatorDescriptor: Send + Sync {
    /// Display name (used by `JobSpec::describe`, Figure 6 style).
    fn name(&self) -> String;

    /// Input indexes that must be fully consumed before any output is
    /// produced — the activity split of §4.1 (e.g. hash-join input 0 is the
    /// Build activity).
    fn blocking_inputs(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Whether this operator can run as a push stage inside a fused
    /// pipeline: streaming, single-input, non-blocking. Sources are chain
    /// *heads* (they keep their `run` body), never stages, so they stay
    /// `false`; so do multi-input and multi-output operators.
    fn fusible(&self) -> bool {
        false
    }

    /// Instantiate this operator as a push stage feeding `next`. The
    /// executor only calls this when [`OperatorDescriptor::fusible`] is
    /// true.
    fn pipeline(&self, ctx: PipelineCtx, next: Box<dyn PipelineOp>) -> Result<Box<dyn PipelineOp>> {
        let _ = (ctx, next);
        Err(crate::HyracksError::InvalidJob(format!(
            "operator {} cannot run as a fused pipeline stage",
            self.name()
        )))
    }

    /// Execute one partition.
    fn run(&self, ctx: &mut OpCtx) -> Result<()>;
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
/// literals — the storage layer binds these). Sources either emit decoded
/// tuples ([`SourceFn`]) or already-encoded tuple bytes ([`RawSourceFn`]);
/// the raw form feeds the exchange without a decode/re-encode round trip.
pub struct SourceOp {
    label: String,
    source: SourceBody,
    /// `(filter id, join partitions)` of the runtime join filter a raw
    /// source applies to its rows.
    join_filter: Option<(usize, usize)>,
}

enum SourceBody {
    Decoded(SourceFn),
    Raw(RawSourceFn),
}

impl SourceOp {
    pub fn new(
        label: impl Into<String>,
        f: impl Fn(usize, usize, &mut dyn FnMut(Tuple) -> Result<()>) -> Result<()>
            + Send
            + Sync
            + 'static,
    ) -> SourceOp {
        SourceOp::from_fn(label, Arc::new(f))
    }

    pub fn from_fn(label: impl Into<String>, f: SourceFn) -> SourceOp {
        SourceOp { label: label.into(), source: SourceBody::Decoded(f), join_filter: None }
    }

    /// A source that emits encoded tuples (the serialized scan path).
    pub fn from_raw_fn(label: impl Into<String>, f: RawSourceFn) -> SourceOp {
        SourceOp { label: label.into(), source: SourceBody::Raw(f), join_filter: None }
    }

    /// Hand the raw source a consult of runtime filter `filter_id` (of a
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

    fn run(&self, ctx: &mut OpCtx) -> Result<()> {
        let env = ctx.env.clone();
        let OpCtx { partition, nparts, outputs, .. } = ctx;
        let out = &mut outputs[0];
        let f = match &self.source {
            SourceBody::Decoded(f) => return f(*partition, *nparts, &mut |t| out.push(t)),
            SourceBody::Raw(f) => f,
        };
        let mut partner = self
            .join_filter
            .map(|(id, join_nparts)| FilterConsult::new(&env.filters, id, join_nparts));
        let res = if env.vectorized {
            // Vectorized scan head: batch emitted encodings into a
            // frame and push it whole, so every downstream batch-aware
            // stage (and the exchange) sees frame granularity.
            let tpf = env.tuples_per_frame.max(1);
            let mut batch = FrameBuf::new();
            f(*partition, *nparts, partner.as_mut(), &mut |bytes| {
                batch.push_encoded(bytes);
                if batch.tuple_count() >= tpf {
                    let res = out.push_frame(&batch);
                    batch.clear();
                    return res;
                }
                Ok(())
            })
            .and_then(|()| if batch.is_empty() { Ok(()) } else { out.push_frame(&batch) })
        } else {
            f(*partition, *nparts, partner.as_mut(), &mut |bytes| out.push_encoded(bytes))
        };
        if let Some(partner) = &mut partner {
            partner.flush_stats();
        }
        res
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

    fn fusible(&self) -> bool {
        true
    }

    fn pipeline(
        &self,
        _ctx: PipelineCtx,
        next: Box<dyn PipelineOp>,
    ) -> Result<Box<dyn PipelineOp>> {
        Ok(Box::new(SinkStage { collector: Arc::clone(&self.collector), local: Vec::new(), next }))
    }

    fn run(&self, ctx: &mut OpCtx) -> Result<()> {
        let mut local = Vec::new();
        ctx.inputs[0].for_each(|t| {
            local.push(t);
            Ok(true)
        })?;
        self.collector.lock().extend(local);
        Ok(())
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
        // Match the pull body: results land in one batch at end of input
        // (partial results still land when an upstream error cut the run
        // short, exactly like the drop-flush path).
        self.collector.lock().extend(std::mem::take(&mut self.local));
        self.next.finish()
    }
}

/// Applies a side-effecting callback per tuple (index insert/delete — the
/// index lifecycle operators of §4.1), forwarding tuples downstream.
pub struct ApplyOp {
    label: String,
    apply: ApplyFn,
}

/// A side effect per `(partition, tuple)`.
type ApplyFn = Arc<dyn Fn(usize, &Tuple) -> Result<()> + Send + Sync>;

impl ApplyOp {
    pub fn new(
        label: impl Into<String>,
        apply: impl Fn(usize, &Tuple) -> Result<()> + Send + Sync + 'static,
    ) -> ApplyOp {
        ApplyOp { label: label.into(), apply: Arc::new(apply) }
    }
}

impl OperatorDescriptor for ApplyOp {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn fusible(&self) -> bool {
        true
    }

    fn pipeline(&self, ctx: PipelineCtx, next: Box<dyn PipelineOp>) -> Result<Box<dyn PipelineOp>> {
        Ok(Box::new(ApplyStage { partition: ctx.partition, apply: Arc::clone(&self.apply), next }))
    }

    fn run(&self, ctx: &mut OpCtx) -> Result<()> {
        let OpCtx { partition, inputs, outputs, .. } = ctx;
        let p = *partition;
        let out = &mut outputs[0];
        let apply = &self.apply;
        // Decode for the callback, but forward the original bytes verbatim.
        inputs[0].for_each_raw(|bytes| {
            let t = asterix_adm::decode_tuple(bytes)?;
            apply(p, &t)?;
            out.push_encoded(bytes)?;
            Ok(true)
        })
    }
}

struct ApplyStage {
    partition: usize,
    apply: ApplyFn,
    next: Box<dyn PipelineOp>,
}

impl PipelineOp for ApplyStage {
    fn push(&mut self, bytes: &[u8]) -> Result<()> {
        let t = asterix_adm::decode_tuple(bytes)?;
        (self.apply)(self.partition, &t)?;
        self.next.push(bytes)
    }

    fn flush(&mut self) -> Result<()> {
        self.next.flush()
    }

    fn finish(&mut self) -> Result<()> {
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

/// Filter by predicate (the `select` operator of Figure 6).
pub struct SelectOp {
    label: String,
    pred: PredFn,
    /// Columns the predicate reads, when the compiler knows them: only
    /// these are decoded per tuple (`None` = full decode).
    fields: Option<Vec<usize>>,
    /// Ordkey fast path for constant comparisons (vectorized runs only;
    /// the scalar A/B path always decodes).
    ord: Option<OrdPred>,
}

impl SelectOp {
    pub fn new(label: impl Into<String>, pred: PredFn) -> SelectOp {
        SelectOp { label: label.into(), pred, fields: None, ord: None }
    }

    /// A select whose predicate reads only the given columns: evaluation
    /// decodes just those positions through `TupleRef::field_value` and the
    /// predicate sees `Missing` everywhere else.
    pub fn with_fields(label: impl Into<String>, pred: PredFn, fields: Vec<usize>) -> SelectOp {
        SelectOp { label: label.into(), pred, fields: Some(fields), ord: None }
    }

    /// Attach an ordkey-classified constant comparison equivalent to the
    /// predicate: batch evaluation memcmps comparison-key bytes and only
    /// decodes tuples the transcoder refuses.
    pub fn with_ordkey(mut self, ord: OrdPred) -> SelectOp {
        self.ord = Some(ord);
        self
    }
}

impl OperatorDescriptor for SelectOp {
    fn name(&self) -> String {
        format!("select {}", self.label)
    }

    fn fusible(&self) -> bool {
        true
    }

    fn pipeline(&self, ctx: PipelineCtx, next: Box<dyn PipelineOp>) -> Result<Box<dyn PipelineOp>> {
        Ok(Box::new(SelectStage {
            pred: Arc::clone(&self.pred),
            fields: self.fields.clone(),
            ord: if ctx.env.vectorized { self.ord.clone() } else { None },
            keep: SelBitmap::new(),
            key_scratch: Vec::new(),
            compacted: FrameBuf::new(),
            next,
        }))
    }

    fn run(&self, ctx: &mut OpCtx) -> Result<()> {
        let vectorized = ctx.env.vectorized;
        let OpCtx { inputs, outputs, .. } = ctx;
        let out = &mut outputs[0];
        let pred = &self.pred;
        let fields = self.fields.as_deref();
        if !vectorized {
            // Scalar A/B path: evaluate on a (sparsely) decoded view;
            // surviving tuples are forwarded as their original bytes.
            return inputs[0].for_each_raw(|bytes| {
                let t = decode_for_eval(bytes, fields)?;
                if pred(&t)? {
                    out.push_encoded(bytes)?;
                }
                Ok(true)
            });
        }
        // Batch path: one pass over the slot directory builds the bitmap
        // (ordkey memcmp when classified, decoded predicate otherwise),
        // then survivors move in one slot-compacting copy — or the frame
        // passes through untouched when everything survived.
        let ord = self.ord.as_ref();
        let mut keep = SelBitmap::new();
        let mut key_scratch = Vec::new();
        let mut compacted = FrameBuf::new();
        inputs[0].for_each_frame(|frame| {
            let n = frame.tuple_count();
            keep.reset(n);
            for i in 0..n {
                let bytes = frame.tuple_bytes(i);
                let verdict = match ord.and_then(|o| o.eval_encoded(bytes, &mut key_scratch)) {
                    Some(v) => v,
                    None => pred(&decode_for_eval(bytes, fields)?)?,
                };
                if verdict {
                    keep.set(i);
                }
            }
            if keep.all() {
                out.push_frame(frame)?;
            } else if keep.count() > 0 {
                compacted.clear();
                frame.compact_into(&keep, &mut compacted);
                out.push_frame(&compacted)?;
            }
            Ok(true)
        })
    }
}

struct SelectStage {
    pred: PredFn,
    fields: Option<Vec<usize>>,
    /// Ordkey fast path — populated only on vectorized runs.
    ord: Option<OrdPred>,
    keep: SelBitmap,
    key_scratch: Vec<u8>,
    compacted: FrameBuf,
    next: Box<dyn PipelineOp>,
}

impl SelectStage {
    fn verdict(&mut self, bytes: &[u8]) -> Result<bool> {
        if let Some(v) =
            self.ord.as_ref().and_then(|o| o.eval_encoded(bytes, &mut self.key_scratch))
        {
            return Ok(v);
        }
        let t = decode_for_eval(bytes, self.fields.as_deref())?;
        (self.pred)(&t)
    }
}

impl PipelineOp for SelectStage {
    fn push(&mut self, bytes: &[u8]) -> Result<()> {
        let t = decode_for_eval(bytes, self.fields.as_deref())?;
        if (self.pred)(&t)? {
            self.next.push(bytes)?;
        }
        Ok(())
    }

    fn push_frame(&mut self, frame: &FrameBuf) -> Result<()> {
        let n = frame.tuple_count();
        self.keep.reset(n);
        for i in 0..n {
            if self.verdict(frame.tuple_bytes(i))? {
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
    /// Columns the expressions read, when the compiler knows them. With a
    /// field set, evaluation decodes only those positions and the appended
    /// values are spliced on at the byte level (`append_values_into`) — the
    /// input tuple is never fully decoded or re-encoded. Callers guarantee
    /// the expressions read input columns only (no expression sees the
    /// values appended before it, unlike the full-decode path).
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

    fn fusible(&self) -> bool {
        true
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
            vals: Vec::new(),
            next,
        }))
    }

    fn run(&self, ctx: &mut OpCtx) -> Result<()> {
        let OpCtx { inputs, outputs, .. } = ctx;
        let out = &mut outputs[0];
        let exprs = &self.exprs;
        match self.fields.as_deref() {
            // Full decode: each expression sees the values appended before
            // it (positions arity, arity+1, ...).
            None => inputs[0].for_each(|mut t| {
                for e in exprs {
                    let v = e(&t)?;
                    t.push(v);
                }
                out.push(t)?;
                Ok(true)
            }),
            // Sparse decode + byte-level append: only the referenced
            // columns are materialized, and the original tuple bytes are
            // copied verbatim into the output.
            Some(fs) => {
                let mut scratch = Vec::new();
                let mut vals = Vec::with_capacity(exprs.len());
                inputs[0].for_each_raw(|bytes| {
                    let t = decode_for_eval(bytes, Some(fs))?;
                    vals.clear();
                    for e in exprs {
                        vals.push(e(&t)?);
                    }
                    scratch.clear();
                    asterix_adm::tuple::append_values_into(
                        &mut scratch,
                        &asterix_adm::TupleRef::new(bytes)?,
                        &vals,
                    );
                    out.push_encoded(&scratch)?;
                    Ok(true)
                })
            }
        }
    }
}

struct AssignStage {
    exprs: Vec<EvalFn>,
    fields: Option<Vec<usize>>,
    scratch: Vec<u8>,
    vals: Vec<Value>,
    next: Box<dyn PipelineOp>,
}

impl PipelineOp for AssignStage {
    fn push(&mut self, bytes: &[u8]) -> Result<()> {
        self.scratch.clear();
        match self.fields.as_deref() {
            None => {
                let mut t = asterix_adm::decode_tuple(bytes)?;
                for e in &self.exprs {
                    let v = e(&t)?;
                    t.push(v);
                }
                asterix_adm::encode_tuple_into(&mut self.scratch, &t);
            }
            Some(fs) => {
                let t = decode_for_eval(bytes, Some(fs))?;
                self.vals.clear();
                for e in &self.exprs {
                    self.vals.push(e(&t)?);
                }
                asterix_adm::tuple::append_values_into(
                    &mut self.scratch,
                    &asterix_adm::TupleRef::new(bytes)?,
                    &self.vals,
                );
            }
        }
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

    fn fusible(&self) -> bool {
        true
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

    fn run(&self, ctx: &mut OpCtx) -> Result<()> {
        let vectorized = ctx.env.vectorized;
        let OpCtx { inputs, outputs, .. } = ctx;
        let out = &mut outputs[0];
        let fields = &self.fields;
        // Pure byte re-slicing: kept fields' encodings are copied into a
        // fresh tuple without ever decoding them (out-of-range fields
        // become MISSING, matching the decoded semantics).
        let mut scratch = Vec::new();
        if !vectorized {
            return inputs[0].for_each_raw(|bytes| {
                let r = asterix_adm::TupleRef::new(bytes)?;
                scratch.clear();
                asterix_adm::tuple::project_tuple_into(&mut scratch, &r, fields);
                out.push_encoded(&scratch)?;
                Ok(true)
            });
        }
        // Batch path: project every tuple of the frame into a scratch frame
        // walked off the slot directory once, then push it whole.
        let mut projected = FrameBuf::new();
        inputs[0].for_each_frame(|frame| {
            projected.clear();
            for i in 0..frame.tuple_count() {
                let r = frame.tuple_ref(i)?;
                scratch.clear();
                asterix_adm::tuple::project_tuple_into(&mut scratch, &r, fields);
                projected.push_encoded(&scratch);
            }
            out.push_frame(&projected)?;
            Ok(true)
        })
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

    fn fusible(&self) -> bool {
        true
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

    fn run(&self, ctx: &mut OpCtx) -> Result<()> {
        let OpCtx { inputs, outputs, .. } = ctx;
        let out = &mut outputs[0];
        let mut seen = 0usize;
        let mut emitted = 0usize;
        let (limit, offset) = (self.limit, self.offset);
        // Pure forwarding: never decodes a tuple.
        inputs[0].for_each_raw(|bytes| {
            if seen < offset {
                seen += 1;
                return Ok(true);
            }
            if emitted >= limit {
                return Ok(false);
            }
            out.push_encoded(bytes)?;
            emitted += 1;
            Ok(emitted < limit)
        })
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
/// hash joins; it is fusible, so it rides the scan-headed pipeline thread.
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

    fn fusible(&self) -> bool {
        true
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

    fn run(&self, ctx: &mut OpCtx) -> Result<()> {
        let env = ctx.env.clone();
        let mut consult = FilterConsult::new(&env.filters, self.filter_id, self.join_nparts);
        let key_cols = &self.key_cols;
        let OpCtx { inputs, outputs, .. } = ctx;
        let out = &mut outputs[0];
        let res = if env.vectorized {
            let mut keep = SelBitmap::new();
            let mut compacted = FrameBuf::new();
            inputs[0].for_each_frame(|frame| {
                consult.poll();
                let n = frame.tuple_count();
                keep.reset(n);
                for i in 0..n {
                    if consult.keep_tuple(&frame.tuple_ref(i)?, key_cols) {
                        keep.set(i);
                    }
                }
                if keep.all() {
                    out.push_frame(frame)?;
                } else if keep.count() > 0 {
                    compacted.clear();
                    frame.compact_into(&keep, &mut compacted);
                    out.push_frame(&compacted)?;
                }
                Ok(true)
            })
        } else {
            inputs[0].for_each_raw(|bytes| {
                if consult.keep_tuple(&asterix_adm::TupleRef::new(bytes)?, key_cols) {
                    out.push_encoded(bytes)?;
                }
                Ok(true)
            })
        };
        consult.flush_stats();
        res
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

    fn fusible(&self) -> bool {
        true
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

    fn run(&self, ctx: &mut OpCtx) -> Result<()> {
        let OpCtx { inputs, outputs, .. } = ctx;
        let out = &mut outputs[0];
        let expr = &self.expr;
        let (with_pos, outer) = (self.with_position, self.outer);
        inputs[0].for_each(|t| {
            let coll = expr(&t)?;
            match coll.as_list() {
                Some(items) if !items.is_empty() => {
                    for (i, item) in items.iter().enumerate() {
                        let mut row = t.clone();
                        row.push(item.clone());
                        if with_pos {
                            row.push(Value::Int64(i as i64 + 1));
                        }
                        out.push(row)?;
                    }
                }
                _ if outer => {
                    let mut row = t.clone();
                    row.push(Value::Missing);
                    if with_pos {
                        row.push(Value::Missing);
                    }
                    out.push(row)?;
                }
                _ => {}
            }
            Ok(true)
        })
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

/// Forward all inputs to the single output (bag union).
pub struct UnionAllOp;

impl OperatorDescriptor for UnionAllOp {
    fn name(&self) -> String {
        "union-all".into()
    }

    fn run(&self, ctx: &mut OpCtx) -> Result<()> {
        let OpCtx { inputs, outputs, .. } = ctx;
        let out = &mut outputs[0];
        for input in inputs.iter_mut() {
            // Pure forwarding: never decodes a tuple.
            input.for_each_raw(|bytes| {
                out.push_encoded(bytes)?;
                Ok(true)
            })?;
        }
        Ok(())
    }
}

/// Forward the input to every output — a Feed Joint (§4.5): "like a
/// network tap [...] allows data to be routed simultaneously along
/// multiple paths".
pub struct ReplicateOp;

impl OperatorDescriptor for ReplicateOp {
    fn name(&self) -> String {
        "replicate (feed joint)".into()
    }

    fn run(&self, ctx: &mut OpCtx) -> Result<()> {
        let OpCtx { inputs, outputs, .. } = ctx;
        let n = outputs.len();
        let mut closed = vec![false; n];
        // Byte forwarding: each tap gets the same encoding appended to its
        // frame — no per-tap tuple clone.
        inputs[0].for_each_raw(|bytes| {
            let mut all_closed = true;
            for (i, out) in outputs.iter_mut().enumerate() {
                if closed[i] {
                    continue;
                }
                // One tap hanging up must not starve the others; only stop
                // consuming once every downstream path is gone.
                match out.push_encoded(bytes) {
                    Ok(()) => all_closed = false,
                    Err(crate::HyracksError::DownstreamClosed) => closed[i] = true,
                    Err(e) => return Err(e),
                }
            }
            Ok(!all_closed)
        })
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

    fn fusible(&self) -> bool {
        true
    }

    fn pipeline(
        &self,
        _ctx: PipelineCtx,
        next: Box<dyn PipelineOp>,
    ) -> Result<Box<dyn PipelineOp>> {
        Ok(Box::new(BatchedStage { batch: FetchBatch::new(&self.fetch), next }))
    }

    fn run(&self, ctx: &mut OpCtx) -> Result<()> {
        run_batched(FetchBatch::new(&self.fetch), ctx)
    }
}

/// The body of an operator that buffers input tuples and emits per batch
/// (the primary fetch, the index nested-loop join) — written once, driven
/// by the fused stage ([`BatchedStage`]) and the unfused `run`
/// ([`run_batched`]) alike.
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
        self.batch.drain(&mut |row| next.push(row))?;
        self.next.finish()
    }
}

pub(crate) fn run_batched(mut batch: impl Batched, ctx: &mut OpCtx) -> Result<()> {
    let OpCtx { inputs, outputs, .. } = ctx;
    let out = &mut outputs[0];
    inputs[0].for_each_raw(|bytes| {
        batch.push(bytes, &mut |row| out.push_encoded(row))?;
        Ok(true)
    })?;
    batch.drain(&mut |row| out.push_encoded(row))
}

/// The buffered keys of a [`PrimaryFetchOp`] instance, and the rows of the
/// batch being fetched.
struct FetchBatch {
    fetch: FetchFn,
    pks: Vec<Tuple>,
    rows: FrameBuf,
}

impl FetchBatch {
    fn new(fetch: &FetchFn) -> FetchBatch {
        FetchBatch { fetch: Arc::clone(fetch), pks: Vec::new(), rows: FrameBuf::new() }
    }
}

impl Batched for FetchBatch {
    fn push(&mut self, bytes: &[u8], out: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        self.pks.push(asterix_adm::decode_tuple(bytes)?);
        if self.pks.len() >= FETCH_BATCH {
            self.drain(out)?;
        }
        Ok(())
    }

    fn drain(&mut self, out: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        let pks = std::mem::take(&mut self.pks);
        if pks.is_empty() {
            return Ok(());
        }
        // The fetch runs under the primary index's read lock: its rows go
        // downstream only once it has returned, so a slow consumer cannot
        // hold writers up.
        let rows = &mut self.rows;
        rows.clear();
        (self.fetch)(&pks, &mut |_, row| {
            rows.push_encoded(row);
            Ok(())
        })?;
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

    fn fusible(&self) -> bool {
        true
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

    fn run(&self, ctx: &mut OpCtx) -> Result<()> {
        let OpCtx { inputs, outputs, .. } = ctx;
        let out = &mut outputs[0];
        let keys = &self.keys;
        // Keyed by the canonical comparison-key encoding of the key
        // columns: byte equality there is exactly `total_cmp == Equal`
        // (numeric widths collapse), so no collision re-check is needed,
        // and survivors are forwarded as their original bytes.
        let mut seen: std::collections::HashSet<Vec<u8>> = std::collections::HashSet::new();
        inputs[0].for_each_raw(|bytes| {
            let r = asterix_adm::TupleRef::new(bytes)?;
            let mut key = Vec::new();
            for &i in keys {
                asterix_adm::ordkey::encode_value_into(&mut key, &r.field_value(i)?);
            }
            if seen.insert(key) {
                out.push_encoded(bytes)?;
            }
            Ok(true)
        })
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

/// General flat-map (used for compiled subplans that need bespoke tuple
/// shapes).
pub struct MapOp {
    label: String,
    f: FlatMapFn,
}

/// The tuples one input tuple becomes.
type FlatMapFn = Arc<dyn Fn(&Tuple) -> Result<Vec<Tuple>> + Send + Sync>;

impl MapOp {
    pub fn new(
        label: impl Into<String>,
        f: impl Fn(&Tuple) -> Result<Vec<Tuple>> + Send + Sync + 'static,
    ) -> MapOp {
        MapOp { label: label.into(), f: Arc::new(f) }
    }
}

impl OperatorDescriptor for MapOp {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn fusible(&self) -> bool {
        true
    }

    fn pipeline(
        &self,
        _ctx: PipelineCtx,
        next: Box<dyn PipelineOp>,
    ) -> Result<Box<dyn PipelineOp>> {
        Ok(Box::new(MapStage { f: Arc::clone(&self.f), scratch: Vec::new(), next }))
    }

    fn run(&self, ctx: &mut OpCtx) -> Result<()> {
        let OpCtx { inputs, outputs, .. } = ctx;
        let out = &mut outputs[0];
        let f = &self.f;
        inputs[0].for_each(|t| {
            for row in f(&t)? {
                out.push(row)?;
            }
            Ok(true)
        })
    }
}

struct MapStage {
    f: FlatMapFn,
    scratch: Vec<u8>,
    next: Box<dyn PipelineOp>,
}

impl PipelineOp for MapStage {
    fn push(&mut self, bytes: &[u8]) -> Result<()> {
        let t = asterix_adm::decode_tuple(bytes)?;
        for row in (self.f)(&t)? {
            self.scratch.clear();
            asterix_adm::encode_tuple_into(&mut self.scratch, &row);
            self.next.push(&self.scratch)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::{wire, ConnectorKind, ExchangeConfig};
    use crate::pipeline::testing::{Recorder, RecorderStage};

    /// A fetch that knows a record for every even key and logs the size of
    /// each batch it is handed.
    fn even_keys(batches: &Arc<Mutex<Vec<usize>>>) -> FetchFn {
        let batches = Arc::clone(batches);
        Arc::new(move |pks, emit| {
            batches.lock().push(pks.len());
            for (i, pk) in pks.iter().enumerate() {
                let k = pk[0].as_i64().unwrap();
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
        let ctx = PipelineCtx { partition: 0, nparts: 1, node: 0, env: Default::default() };
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

    #[test]
    fn primary_fetch_run_matches_the_stage() {
        let batches = Arc::new(Mutex::new(Vec::new()));
        let op = PrimaryFetchOp::new("fetch", even_keys(&batches));
        let x = ExchangeConfig::default();
        let (mut k_out, k_in) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &x).unwrap();
        let (r_out, mut r_in) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &x).unwrap();
        for k in 0..9i64 {
            k_out[0].push(vec![Value::Int64(k)]).unwrap();
        }
        drop(k_out);
        let mut ctx = OpCtx {
            partition: 0,
            nparts: 1,
            node: 0,
            inputs: k_in,
            outputs: r_out,
            env: Default::default(),
        };
        op.run(&mut ctx).unwrap();
        drop(ctx);
        let out = r_in[0].collect().unwrap();
        assert_eq!(*batches.lock(), vec![9]);
        let want: Vec<Tuple> =
            (0..9).step_by(2).map(|k| vec![Value::string(format!("rec-{k}"))]).collect();
        assert_eq!(out, want);
    }
}
