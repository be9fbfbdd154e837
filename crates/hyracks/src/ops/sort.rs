//! External sort (§4.1's sort operator; Figure 6 sorts primary keys
//! between the secondary- and primary-index searches).
//!
//! Run generation + k-way merge over *encoded* tuples: each arriving tuple
//! keeps its wire encoding and gets a cached **normalized key** — the
//! concatenated, length-prefixed `asterix_adm::ordkey` encodings of its
//! sort-key values. All comparisons during sorting, spilling, and merging
//! are segmented `memcmp`s over those key bytes (with per-key descending
//! reversal); tuple values are never re-decoded to compare. Spill runs
//! store the raw `(key, tuple)` byte pairs, so merging reads compare and
//! forward without any deserialization. The sort is one push stage: run
//! generation in `push`, the merge in `finish` — a blocking activity, so
//! nothing leaves the sort before its input has ended, exactly as §4.1
//! describes.

use std::cmp::Ordering;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::sync::Arc;

use asterix_adm::{ordkey, TupleRef, Value};
use asterix_obs::TraceContext;

use super::{EvalFn, OperatorDescriptor, SpillGuard};
use crate::connector::Comparator;
use crate::frame::Tuple;
use crate::pipeline::{FrameOut, PipelineCtx, PipelineOp};
use crate::Result;

/// One sort key: an expression and a direction. Keys built with
/// [`SortKey::field`] carry the field position, letting the sort read the
/// key straight out of the encoded tuple instead of decoding every field.
#[derive(Clone)]
pub struct SortKey {
    pub expr: EvalFn,
    pub descending: bool,
    /// Fast path: the key is plain field access at this position.
    field: Option<usize>,
}

impl SortKey {
    pub fn asc(expr: EvalFn) -> SortKey {
        SortKey { expr, descending: false, field: None }
    }

    pub fn desc(expr: EvalFn) -> SortKey {
        SortKey { expr, descending: true, field: None }
    }

    /// Sort by field position helper.
    pub fn field(idx: usize, descending: bool) -> SortKey {
        SortKey {
            expr: Arc::new(move |t: &Tuple| Ok(t.get(idx).cloned().unwrap_or(Value::Missing))),
            descending,
            field: Some(idx),
        }
    }
}

/// Append the normalized key of one encoded tuple: per sort key, a `u32`
/// length prefix followed by the order-preserving `ordkey` encoding of the
/// key value. Field-position keys read the single field from the encoding;
/// expression keys decode the tuple once, lazily.
fn norm_key_into(out: &mut Vec<u8>, keys: &[SortKey], bytes: &[u8]) -> Result<()> {
    let r = TupleRef::new(bytes)?;
    let mut decoded: Option<Tuple> = None;
    for k in keys {
        let v = match k.field {
            Some(i) => r.field_value(i)?,
            None => {
                if decoded.is_none() {
                    decoded = Some(r.decode()?);
                }
                // Expression failure sorts as MISSING, matching the
                // historical comparator's behavior.
                (k.expr)(decoded.as_ref().unwrap()).unwrap_or(Value::Missing)
            }
        };
        let pos = out.len();
        out.extend_from_slice(&[0u8; 4]);
        ordkey::encode_value_into(out, &v);
        let seg = (out.len() - pos - 4) as u32;
        out[pos..pos + 4].copy_from_slice(&seg.to_le_bytes());
    }
    Ok(())
}

/// Segmented memcmp of two normalized keys, reversing per-key descending
/// segments. `ordkey` encodings order exactly as `Value::total_cmp`, so
/// this is the byte-level equivalent of comparing the decoded key values.
fn cmp_norm(keys: &[SortKey], a: &[u8], b: &[u8]) -> Ordering {
    let (mut pa, mut pb) = (0usize, 0usize);
    for k in keys {
        let la = u32::from_le_bytes(a[pa..pa + 4].try_into().unwrap()) as usize;
        let lb = u32::from_le_bytes(b[pb..pb + 4].try_into().unwrap()) as usize;
        let sa = &a[pa + 4..pa + 4 + la];
        let sb = &b[pb + 4..pb + 4 + lb];
        pa += 4 + la;
        pb += 4 + lb;
        let ord = sa.cmp(sb);
        let ord = if k.descending { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Build a comparator over *encoded* tuples from sort keys (shared with
/// the merging connector so repartitioned sorted streams stay sorted).
/// Each call derives both tuples' normalized keys and compares the bytes —
/// the same ordering the sort itself uses.
pub fn sort_comparator(keys: &[SortKey]) -> Comparator {
    let keys: Vec<SortKey> = keys.to_vec();
    Arc::new(move |a: &[u8], b: &[u8]| {
        let mut ka = Vec::new();
        let mut kb = Vec::new();
        if norm_key_into(&mut ka, &keys, a).is_err() || norm_key_into(&mut kb, &keys, b).is_err() {
            return Ordering::Equal;
        }
        cmp_norm(&keys, &ka, &kb)
    })
}

/// One buffered row: cached normalized key plus the tuple's wire encoding.
struct Row {
    key: Vec<u8>,
    bytes: Vec<u8>,
}

/// Spill a sorted batch: `[u32 key_len][key][u32 tuple_len][tuple]` per
/// row — raw bytes in, raw bytes out, nothing re-encoded. The returned
/// guard owns the file from the moment it exists on disk.
fn write_run(label: &str, rows: &[Row]) -> Result<SpillGuard> {
    let guard = SpillGuard::new("sort", label, "run");
    let mut w = BufWriter::new(File::create(&guard.path)?);
    for row in rows {
        w.write_all(&(row.key.len() as u32).to_le_bytes())?;
        w.write_all(&row.key)?;
        w.write_all(&(row.bytes.len() as u32).to_le_bytes())?;
        w.write_all(&row.bytes)?;
    }
    w.flush()?;
    Ok(guard)
}

struct RunReader {
    reader: BufReader<File>,
    /// Keeps the run file alive while reading; deletes it when the reader
    /// goes away.
    _guard: SpillGuard,
    head: Option<Row>,
}

impl RunReader {
    fn open(guard: SpillGuard) -> Result<RunReader> {
        let reader = BufReader::new(File::open(&guard.path)?);
        let mut r = RunReader { reader, _guard: guard, head: None };
        r.advance()?;
        Ok(r)
    }

    fn read_chunk(&mut self) -> Result<Option<Vec<u8>>> {
        let mut len_buf = [0u8; 4];
        match self.reader.read_exact(&mut len_buf) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        let mut buf = vec![0u8; len];
        self.reader.read_exact(&mut buf)?;
        Ok(Some(buf))
    }

    fn advance(&mut self) -> Result<()> {
        self.head = match self.read_chunk()? {
            None => None,
            Some(key) => {
                let bytes = self
                    .read_chunk()?
                    .ok_or_else(|| crate::HyracksError::Operator("truncated sort run".into()))?;
                Some(Row { key, bytes })
            }
        };
        Ok(())
    }
}

/// External sort operator.
pub struct SortOp {
    label: String,
    keys: Vec<SortKey>,
    /// In-memory budget (approximate bytes) before a run is spilled.
    pub mem_budget: usize,
}

impl SortOp {
    pub fn new(label: impl Into<String>, keys: Vec<SortKey>) -> SortOp {
        SortOp { label: label.into(), keys, mem_budget: 32 << 20 }
    }

    pub fn with_budget(mut self, bytes: usize) -> SortOp {
        self.mem_budget = bytes.max(1024);
        self
    }
}

impl OperatorDescriptor for SortOp {
    fn name(&self) -> String {
        format!("sort {}", self.label)
    }

    fn blocking_inputs(&self) -> Vec<usize> {
        vec![0] // run generation consumes everything before merge emits
    }

    fn pipeline(&self, ctx: PipelineCtx, next: Box<dyn PipelineOp>) -> Result<Box<dyn PipelineOp>> {
        Ok(Box::new(SortStage {
            label: self.label.clone(),
            keys: self.keys.clone(),
            budget: self.mem_budget,
            trace: ctx.env.trace.clone(),
            mem: Vec::new(),
            mem_bytes: 0,
            runs: Vec::new(),
            out: FrameOut::new(&ctx.env, next),
        }))
    }
}

/// One partition of a sort: rows buffered in memory up to the budget, the
/// runs spilled before them, and where the merged output goes.
struct SortStage {
    label: String,
    keys: Vec<SortKey>,
    budget: usize,
    trace: TraceContext,
    mem: Vec<Row>,
    mem_bytes: usize,
    runs: Vec<SpillGuard>,
    out: FrameOut,
}

impl SortStage {
    /// K-way merge of the spilled runs and the in-memory tail; all head
    /// comparisons are normalized-key memcmps.
    fn emit(&mut self) -> Result<()> {
        let keys = &self.keys;
        let mut mem = std::mem::take(&mut self.mem);
        mem.sort_by(|a, b| cmp_norm(keys, &a.key, &b.key));
        let out = &mut self.out;
        if self.runs.is_empty() {
            return mem.iter().try_for_each(|row| out.push(&row.bytes));
        }
        let mut readers: Vec<RunReader> = Vec::with_capacity(self.runs.len());
        for guard in self.runs.drain(..) {
            readers.push(RunReader::open(guard)?);
        }
        let mut mem_iter = mem.into_iter().peekable();
        loop {
            // Choose the smallest head among runs and the memory iterator.
            let mut best: Option<usize> = None; // index into readers
            for (i, r) in readers.iter().enumerate() {
                if let Some(h) = &r.head {
                    match best {
                        None => best = Some(i),
                        Some(b) => {
                            let bh = readers[b].head.as_ref().unwrap();
                            if cmp_norm(keys, &h.key, &bh.key) == Ordering::Less {
                                best = Some(i);
                            }
                        }
                    }
                }
            }
            let take_mem = match (best, mem_iter.peek()) {
                (None, Some(_)) => true,
                (Some(b), Some(m)) => {
                    cmp_norm(keys, &m.key, &readers[b].head.as_ref().unwrap().key) == Ordering::Less
                }
                (_, None) => false,
            };
            if take_mem {
                out.push(&mem_iter.next().unwrap().bytes)?;
            } else if let Some(b) = best {
                let row = readers[b].head.take().unwrap();
                readers[b].advance()?;
                out.push(&row.bytes)?;
            } else {
                return Ok(());
            }
        }
    }
}

impl PipelineOp for SortStage {
    fn push(&mut self, bytes: &[u8]) -> Result<()> {
        let mut key = Vec::new();
        norm_key_into(&mut key, &self.keys, bytes)?;
        self.mem_bytes += key.len() + bytes.len() + 64;
        self.mem.push(Row { key, bytes: bytes.to_vec() });
        if self.mem_bytes >= self.budget {
            let spill = self.trace.span("sort.spill_run");
            let keys = &self.keys;
            self.mem.sort_by(|a, b| cmp_norm(keys, &a.key, &b.key));
            self.runs.push(write_run(&self.label, &self.mem)?);
            spill.finish();
            self.mem.clear();
            self.mem_bytes = 0;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        let emitted = self.emit();
        self.out.finish(emitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::{wire, ConnectorKind, ExchangeConfig};
    use crate::pipeline::testing::{read_all, run_partition};
    use asterix_adm::Value;

    fn run_sort(op: SortOp, input: Vec<Tuple>) -> Vec<Tuple> {
        let x = ExchangeConfig::default();
        let (mut in_outs, ins) = wire(&ConnectorKind::OneToOne, 1, 1, &x).unwrap();
        let (mut outs, mut res_ins) = wire(&ConnectorKind::OneToOne, 1, 1, &x).unwrap();
        for t in input {
            in_outs[0].push_encoded(&asterix_adm::encode_tuple(&t)).unwrap();
        }
        drop(in_outs);
        run_partition(&op, ins, outs.remove(0)).unwrap();
        read_all(&mut res_ins[0]).unwrap()
    }

    #[test]
    fn in_memory_sort() {
        let input: Vec<Tuple> =
            [3i64, 1, 4, 1, 5, 9, 2, 6].iter().map(|&i| vec![Value::Int64(i)]).collect();
        let out = run_sort(SortOp::new("k", vec![SortKey::field(0, false)]), input);
        let got: Vec<i64> = out.iter().map(|t| t[0].as_i64().unwrap()).collect();
        assert_eq!(got, vec![1, 1, 2, 3, 4, 5, 6, 9]);
    }

    #[test]
    fn descending_and_secondary_keys() {
        let input: Vec<Tuple> = vec![
            vec![Value::Int64(1), Value::string("b")],
            vec![Value::Int64(2), Value::string("a")],
            vec![Value::Int64(1), Value::string("a")],
        ];
        let out = run_sort(
            SortOp::new("k", vec![SortKey::field(0, true), SortKey::field(1, false)]),
            input,
        );
        let got: Vec<(i64, String)> = out
            .iter()
            .map(|t| (t[0].as_i64().unwrap(), t[1].as_str().unwrap().to_string()))
            .collect();
        assert_eq!(got, vec![(2, "a".into()), (1, "a".into()), (1, "b".into())]);
    }

    #[test]
    fn expression_keys_fall_back_to_decoded_eval() {
        // Non-field keys can't use the single-field fast path; they decode
        // the tuple and evaluate — sorting by -x ascending is x descending.
        let input: Vec<Tuple> = [3i64, 1, 4, 1, 5].iter().map(|&i| vec![Value::Int64(i)]).collect();
        let neg: EvalFn = Arc::new(|t: &Tuple| Ok(Value::Int64(-t[0].as_i64().unwrap_or(0))));
        let out = run_sort(SortOp::new("k", vec![SortKey::asc(neg)]), input);
        let got: Vec<i64> = out.iter().map(|t| t[0].as_i64().unwrap()).collect();
        assert_eq!(got, vec![5, 4, 3, 1, 1]);
    }

    #[test]
    fn mixed_numeric_widths_sort_by_value() {
        // The normalized key is canonical across numeric widths: Int32,
        // Int64 and Double interleave by numeric value, not by type tag.
        let input: Vec<Tuple> = vec![
            vec![Value::Double(2.5)],
            vec![Value::Int32(3)],
            vec![Value::Int64(1)],
            vec![Value::Double(1.5)],
        ];
        let out = run_sort(SortOp::new("k", vec![SortKey::field(0, false)]), input);
        let got: Vec<f64> = out.iter().map(|t| t[0].as_f64().unwrap()).collect();
        assert_eq!(got, vec![1.0, 1.5, 2.5, 3.0]);
    }

    #[test]
    fn spilling_sort_matches_in_memory() {
        let input: Vec<Tuple> = (0..5000i64)
            .map(|i| vec![Value::Int64((i * 7919) % 5000), Value::string("pad-pad-pad")])
            .collect();
        let tiny = SortOp::new("spill", vec![SortKey::field(0, false)]).with_budget(4096);
        let out = run_sort(tiny, input.clone());
        assert_eq!(out.len(), 5000);
        let got: Vec<i64> = out.iter().map(|t| t[0].as_i64().unwrap()).collect();
        let mut expect: Vec<i64> = input.iter().map(|t| t[0].as_i64().unwrap()).collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn sort_is_blocking_activity() {
        let op = SortOp::new("x", vec![SortKey::field(0, false)]);
        assert_eq!(op.blocking_inputs(), vec![0]);
    }

    #[test]
    fn cancelled_spilling_sort_cleans_temp_files() {
        use asterix_rm::CancellationToken;

        // Cancellation fires after run generation has spilled to disk but
        // before the merge can emit: the sort must surface `Cancelled` (the
        // merge's first push is a cancellation point) and its SpillGuards
        // must remove every run file on the unwind.
        let label = "cancelsort";
        let input: Vec<Tuple> = (0..5000i64)
            .map(|i| vec![Value::Int64((i * 7919) % 5000), Value::string("pad-pad-pad")])
            .collect();
        // Feed side carries no token so the accumulate phase runs (and
        // spills); only the output side observes the cancellation.
        let feed = ExchangeConfig::default();
        let (mut in_outs, ins) = wire(&ConnectorKind::OneToOne, 1, 1, &feed).unwrap();
        let token = CancellationToken::new();
        let out_cfg = ExchangeConfig { cancel: Some(token.clone()), ..Default::default() };
        let (mut outs, res_ins) = wire(&ConnectorKind::OneToOne, 1, 1, &out_cfg).unwrap();
        for t in input {
            in_outs[0].push_encoded(&asterix_adm::encode_tuple(&t)).unwrap();
        }
        drop(in_outs);
        token.cancel();
        let op = SortOp::new(label, vec![SortKey::field(0, false)]).with_budget(4096);
        let res = run_partition(&op, ins, outs.remove(0));
        assert!(
            matches!(res, Err(crate::HyracksError::Cancelled)),
            "expected Cancelled, got {res:?}"
        );
        drop(res_ins);
        let marker = format!("asterix-sort-{}-{label}", std::process::id());
        let leaked: Vec<String> = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(&marker))
            .collect();
        assert!(leaked.is_empty(), "leaked sort runs after cancellation: {leaked:?}");
    }
}
