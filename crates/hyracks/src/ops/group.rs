//! Aggregation operators (§4.1): HashGroup and the scalar Local/Global
//! aggregation pair that Figure 6 shows for Query 10 ("a Local Aggregation
//! Operator that pre-aggregates the records for the local node and a Global
//! Aggregation Operator that aggregates the results of the Local
//! Aggregation Operators"). Both are one push stage: accumulate in `push`,
//! emit in `finish` — a scalar aggregate is a group-by on no key that
//! emits its one row even over an empty input.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use asterix_adm::{ordkey, AdmError, TupleRef, Value};

use super::OperatorDescriptor;
use crate::frame::Tuple;
use crate::pipeline::{FrameOut, PipelineCtx, PipelineOp};
use crate::Result;

/// Aggregate function kinds. `sql` variants skip unknowns; AQL variants
/// return null when any input is null (Section 3's aggregate semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    Count,
    Sum,
    Min,
    Max,
    Avg,
    /// Collect the field values into an ordered list (materializes group
    /// variables — the `with $msg` of Query 11).
    Listify,
}

/// One aggregate: which kind over which input field position.
#[derive(Debug, Clone, Copy)]
pub struct AggSpec {
    pub kind: AggKind,
    pub field: usize,
    /// SQL null semantics (`sql-*` builtins) instead of AQL semantics.
    pub sql: bool,
}

impl AggSpec {
    pub fn new(kind: AggKind, field: usize) -> AggSpec {
        AggSpec { kind, field, sql: false }
    }

    pub fn sql(kind: AggKind, field: usize) -> AggSpec {
        AggSpec { kind, field, sql: true }
    }

    /// How many fields this aggregate's partial state occupies.
    pub fn partial_arity(&self) -> usize {
        match self.kind {
            AggKind::Avg => 2, // (sum, count)
            _ => 1,
        }
    }
}

/// Running state for one aggregate in one group.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    /// (sum as f64, all-int flag, int sum, poisoned-by-null)
    Sum {
        sum: f64,
        all_int: bool,
        isum: i64,
        poisoned: bool,
        seen: bool,
    },
    MinMax {
        best: Option<Value>,
        is_min: bool,
        poisoned: bool,
    },
    Avg {
        sum: f64,
        count: i64,
        poisoned: bool,
    },
    Listify(Vec<Value>),
}

impl AggState {
    fn init(spec: &AggSpec) -> AggState {
        match spec.kind {
            AggKind::Count => AggState::Count(0),
            AggKind::Sum => {
                AggState::Sum { sum: 0.0, all_int: true, isum: 0, poisoned: false, seen: false }
            }
            AggKind::Min => AggState::MinMax { best: None, is_min: true, poisoned: false },
            AggKind::Max => AggState::MinMax { best: None, is_min: false, poisoned: false },
            AggKind::Avg => AggState::Avg { sum: 0.0, count: 0, poisoned: false },
            AggKind::Listify => AggState::Listify(Vec::new()),
        }
    }

    fn accumulate(&mut self, spec: &AggSpec, v: &Value) -> Result<()> {
        match self {
            AggState::Count(n) => {
                let skip = if spec.sql { v.is_unknown() } else { v.is_missing() };
                if !skip {
                    *n += 1;
                }
            }
            AggState::Sum { sum, all_int, isum, poisoned, seen } => {
                if v.is_unknown() {
                    if !spec.sql {
                        *poisoned = true;
                    }
                    return Ok(());
                }
                *seen = true;
                let f = v.as_f64().ok_or_else(|| {
                    AdmError::InvalidArgument(format!("sum over {}", v.type_name()))
                })?;
                *sum += f;
                match v.as_i64() {
                    Some(i) => *isum = isum.wrapping_add(i),
                    None => *all_int = false,
                }
            }
            AggState::MinMax { best, is_min, poisoned } => {
                if v.is_unknown() {
                    if !spec.sql {
                        *poisoned = true;
                    }
                    return Ok(());
                }
                let better = match best {
                    None => true,
                    Some(b) => {
                        let c = v.total_cmp(b);
                        if *is_min {
                            c.is_lt()
                        } else {
                            c.is_gt()
                        }
                    }
                };
                if better {
                    *best = Some(v.clone());
                }
            }
            AggState::Avg { sum, count, poisoned } => {
                if v.is_unknown() {
                    if !spec.sql {
                        *poisoned = true;
                    }
                    return Ok(());
                }
                *sum += v.as_f64().ok_or_else(|| {
                    AdmError::InvalidArgument(format!("avg over {}", v.type_name()))
                })?;
                *count += 1;
            }
            AggState::Listify(items) => {
                if !v.is_missing() {
                    items.push(v.clone());
                }
            }
        }
        Ok(())
    }

    /// Emit partial-aggregate fields (local aggregation output).
    fn partial(&self) -> Vec<Value> {
        match self {
            AggState::Count(n) => vec![Value::Int64(*n)],
            AggState::Sum { sum, all_int, isum, poisoned, seen } => {
                if *poisoned {
                    vec![Value::Null]
                } else if !*seen {
                    vec![Value::Missing]
                } else if *all_int {
                    vec![Value::Int64(*isum)]
                } else {
                    vec![Value::Double(*sum)]
                }
            }
            AggState::MinMax { best, poisoned, .. } => {
                if *poisoned {
                    vec![Value::Null]
                } else {
                    vec![best.clone().unwrap_or(Value::Missing)]
                }
            }
            AggState::Avg { sum, count, poisoned } => {
                if *poisoned {
                    vec![Value::Null, Value::Null]
                } else {
                    vec![Value::Double(*sum), Value::Int64(*count)]
                }
            }
            AggState::Listify(items) => vec![Value::ordered_list(items.clone())],
        }
    }

    /// Fold partial fields (from a local aggregator) into this state.
    fn combine(&mut self, spec: &AggSpec, partial: &[Value]) -> Result<()> {
        match self {
            AggState::Count(n) => {
                if let Some(i) = partial[0].as_i64() {
                    *n += i;
                }
            }
            AggState::Sum { .. } | AggState::MinMax { .. } => {
                // A missing partial means that partition saw no values —
                // always skipped. A null partial poisons (AQL) or is
                // skipped (SQL); otherwise it folds in like a plain value.
                if partial[0].is_missing() {
                    return Ok(());
                }
                self.accumulate(spec, &partial[0])?;
            }
            AggState::Avg { sum, count, poisoned } => {
                if partial[0].is_null() {
                    if !spec.sql {
                        *poisoned = true;
                    }
                } else {
                    *sum += partial[0].as_f64().unwrap_or(0.0);
                    *count += partial[1].as_i64().unwrap_or(0);
                }
            }
            AggState::Listify(items) => {
                if let Some(list) = partial[0].as_list() {
                    items.extend(list.iter().cloned());
                }
            }
        }
        Ok(())
    }

    /// Emit the final aggregate value.
    fn finish(&self) -> Value {
        match self {
            AggState::Count(n) => Value::Int64(*n),
            AggState::Sum { sum, all_int, isum, poisoned, seen } => {
                if *poisoned || !*seen {
                    Value::Null
                } else if *all_int {
                    Value::Int64(*isum)
                } else {
                    Value::Double(*sum)
                }
            }
            AggState::MinMax { best, poisoned, .. } => {
                if *poisoned {
                    Value::Null
                } else {
                    best.clone().unwrap_or(Value::Null)
                }
            }
            AggState::Avg { sum, count, poisoned } => {
                if *poisoned || *count == 0 {
                    Value::Null
                } else {
                    Value::Double(*sum / *count as f64)
                }
            }
            AggState::Listify(items) => Value::ordered_list(items.clone()),
        }
    }
}

/// Whether a grouping operator computes partials, finals from partials, or
/// everything in one step — the local/global split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupMode {
    /// Consume raw tuples, emit `keys ++ partial fields`.
    Partial,
    /// Consume `keys ++ partial fields`, emit `keys ++ final values`.
    Final,
    /// Consume raw tuples, emit `keys ++ final values`.
    Complete,
}

/// What a grouping stage computes per group, and how it reads its input.
struct Aggregates {
    aggs: Vec<AggSpec>,
    /// Per aggregate, where its partial fields start in a `Final` input:
    /// they follow the key fields in declared order.
    offsets: Vec<usize>,
    mode: GroupMode,
}

impl Aggregates {
    fn new(nkeys: usize, aggs: &[AggSpec], mode: GroupMode) -> Aggregates {
        let offsets = aggs
            .iter()
            .scan(nkeys, |off, spec| {
                let at = *off;
                *off += spec.partial_arity();
                Some(at)
            })
            .collect();
        Aggregates { aggs: aggs.to_vec(), offsets, mode }
    }

    fn init(&self) -> Vec<AggState> {
        self.aggs.iter().map(AggState::init).collect()
    }

    /// Fold one input tuple into a group's states: only the aggregated
    /// fields are decoded, not the tuple.
    fn feed(&self, states: &mut [AggState], r: &TupleRef<'_>) -> Result<()> {
        for ((spec, st), &off) in self.aggs.iter().zip(states).zip(&self.offsets) {
            match self.mode {
                GroupMode::Partial | GroupMode::Complete => {
                    st.accumulate(spec, &r.field_value(spec.field)?)?;
                }
                GroupMode::Final => {
                    let slice: Vec<Value> = (0..spec.partial_arity())
                        .map(|i| r.field_value(off + i))
                        .collect::<asterix_adm::Result<_>>()?;
                    st.combine(spec, &slice)?;
                }
            }
        }
        Ok(())
    }

    /// A group's output row: its key values, then its partials or finals.
    fn row(&self, mut row: Tuple, states: &[AggState]) -> Tuple {
        for st in states {
            match self.mode {
                GroupMode::Partial => row.extend(st.partial()),
                GroupMode::Final | GroupMode::Complete => row.push(st.finish()),
            }
        }
        row
    }
}

/// One partition of a grouping operator: the groups seen so far, keyed by
/// the canonical comparison-key encodings of their key fields — byte
/// equality is ADM `total_cmp` equality, so no custom Eq/Hash wrapper is
/// needed — each with the first occurrence's decoded key values (for
/// emission) and its running aggregate states.
struct GroupStage {
    keys: Vec<usize>,
    aggs: Aggregates,
    /// Partial groups are flushed downstream once the table's approximate
    /// footprint passes this; 0 holds every group.
    budget: usize,
    /// A scalar aggregate emits its row even when no tuple arrived.
    scalar: bool,
    table: HashMap<Vec<u8>, (Tuple, Vec<AggState>)>,
    approx_bytes: usize,
    out: FrameOut,
}

impl GroupStage {
    fn new(
        keys: &[usize],
        aggs: &[AggSpec],
        mode: GroupMode,
        budget: usize,
        ctx: PipelineCtx,
        next: Box<dyn PipelineOp>,
    ) -> GroupStage {
        GroupStage {
            keys: keys.to_vec(),
            aggs: Aggregates::new(keys.len(), aggs, mode),
            budget,
            scalar: false,
            table: HashMap::new(),
            approx_bytes: 0,
            out: FrameOut::new(&ctx.env, next),
        }
    }

    /// Emit every group in the table, leaving it empty.
    fn emit(&mut self) -> Result<()> {
        for (_, (key, states)) in self.table.drain() {
            self.out.push_values(&self.aggs.row(key, &states))?;
        }
        self.approx_bytes = 0;
        Ok(())
    }
}

impl PipelineOp for GroupStage {
    fn push(&mut self, bytes: &[u8]) -> Result<()> {
        let r = TupleRef::new(bytes)?;
        let mut kb = Vec::new();
        let mut kvals: Tuple = Vec::with_capacity(self.keys.len());
        for &i in &self.keys {
            let v = r.field_value(i)?;
            ordkey::encode_value_into(&mut kb, &v);
            kvals.push(v);
        }
        let entry_cost = kb.len() * 2 + self.aggs.aggs.len() * 48 + 64;
        let (_, states) = match self.table.entry(kb) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                self.approx_bytes += entry_cost;
                e.insert((kvals, self.aggs.init()))
            }
        };
        self.aggs.feed(states, &r)?;
        // In Partial mode the table is bounded by the budget: the partial
        // groups so far go downstream and the table restarts. The Final
        // aggregator recombines by key, so early partials stay correct —
        // this trades output volume for bounded memory.
        if self.budget > 0 && self.approx_bytes > self.budget {
            self.emit()?;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        if self.scalar && self.table.is_empty() {
            self.table.insert(Vec::new(), (Vec::new(), self.aggs.init()));
        }
        let emitted = self.emit();
        self.out.finish(emitted)
    }
}

/// Default hash-group memory budget when the workload manager hands out
/// nothing more specific.
pub const DEFAULT_GROUP_MEM: usize = 32 << 20;

/// Hash-based group-by ("HashGroup" in §4.1's operator list).
pub struct HashGroupOp {
    label: String,
    pub keys: Vec<usize>,
    pub aggs: Vec<AggSpec>,
    pub mode: GroupMode,
    /// Approximate table budget in bytes. Partial-mode operators flush
    /// their groups downstream when they exceed it; Final/Complete tables
    /// must hold every group and ignore the budget.
    pub mem_budget: usize,
}

impl HashGroupOp {
    pub fn new(
        label: impl Into<String>,
        keys: Vec<usize>,
        aggs: Vec<AggSpec>,
        mode: GroupMode,
    ) -> HashGroupOp {
        HashGroupOp { label: label.into(), keys, aggs, mode, mem_budget: DEFAULT_GROUP_MEM }
    }

    pub fn with_budget(mut self, bytes: usize) -> HashGroupOp {
        self.mem_budget = bytes.max(1024);
        self
    }
}

impl OperatorDescriptor for HashGroupOp {
    fn name(&self) -> String {
        format!("hash-group {} ({:?})", self.label, self.mode)
    }

    fn blocking_inputs(&self) -> Vec<usize> {
        vec![0]
    }

    fn pipeline(&self, ctx: PipelineCtx, next: Box<dyn PipelineOp>) -> Result<Box<dyn PipelineOp>> {
        // Only partials may leave early: a Final or Complete table must
        // hold every group.
        let budget = if self.mode == GroupMode::Partial { self.mem_budget } else { 0 };
        Ok(Box::new(GroupStage::new(&self.keys, &self.aggs, self.mode, budget, ctx, next)))
    }
}

/// Scalar (ungrouped) aggregation — Figure 6's `aggregate local-avg` /
/// `aggregate global-avg` pair. With `GroupMode::Partial` this is the
/// Local Aggregation Operator; with `Final` the Global one (run at
/// parallelism 1 behind an n:1 replicating connector).
pub struct ScalarAggOp {
    label: String,
    pub aggs: Vec<AggSpec>,
    pub mode: GroupMode,
}

impl ScalarAggOp {
    pub fn new(label: impl Into<String>, aggs: Vec<AggSpec>, mode: GroupMode) -> ScalarAggOp {
        ScalarAggOp { label: label.into(), aggs, mode }
    }
}

impl OperatorDescriptor for ScalarAggOp {
    fn name(&self) -> String {
        let prefix = match self.mode {
            GroupMode::Partial => "aggregate local",
            GroupMode::Final => "aggregate global",
            GroupMode::Complete => "aggregate",
        };
        format!("{prefix} {}", self.label)
    }

    fn blocking_inputs(&self) -> Vec<usize> {
        vec![0]
    }

    fn pipeline(&self, ctx: PipelineCtx, next: Box<dyn PipelineOp>) -> Result<Box<dyn PipelineOp>> {
        let mut stage = GroupStage::new(&[], &self.aggs, self.mode, 0, ctx, next);
        stage.scalar = true;
        Ok(Box::new(stage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::{wire, ConnectorKind, ExchangeConfig};
    use crate::pipeline::testing::{read_all, run_partition};

    fn run_op(op: &dyn OperatorDescriptor, input: Vec<Tuple>) -> Vec<Tuple> {
        let x = ExchangeConfig::default();
        let (mut in_outs, ins) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &x).unwrap();
        let (mut outs, mut res_ins) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &x).unwrap();
        for t in input {
            in_outs[0].push_encoded(&asterix_adm::encode_tuple(&t)).unwrap();
        }
        drop(in_outs);
        run_partition(op, ins, outs.remove(0)).unwrap();
        read_all(&mut res_ins[0]).unwrap()
    }

    fn rows(pairs: &[(i64, i64)]) -> Vec<Tuple> {
        pairs.iter().map(|&(k, v)| vec![Value::Int64(k), Value::Int64(v)]).collect()
    }

    #[test]
    fn hash_group_count_sum() {
        let op = HashGroupOp::new(
            "g",
            vec![0],
            vec![AggSpec::new(AggKind::Count, 1), AggSpec::new(AggKind::Sum, 1)],
            GroupMode::Complete,
        );
        let mut out = run_op(&op, rows(&[(1, 10), (2, 20), (1, 30), (2, 2), (3, 5)]));
        out.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], vec![Value::Int64(1), Value::Int64(2), Value::Int64(40)]);
        assert_eq!(out[1], vec![Value::Int64(2), Value::Int64(2), Value::Int64(22)]);
        assert_eq!(out[2], vec![Value::Int64(3), Value::Int64(1), Value::Int64(5)]);
    }

    #[test]
    fn partial_then_final_equals_complete() {
        let aggs = vec![
            AggSpec::new(AggKind::Avg, 1),
            AggSpec::new(AggKind::Min, 1),
            AggSpec::new(AggKind::Count, 1),
        ];
        let data = rows(&[(1, 10), (1, 20), (2, 5), (1, 30), (2, 15)]);
        // Split the data across two "partitions", aggregate partially, then
        // feed both partials into a final aggregator.
        let p1 = run_op(
            &HashGroupOp::new("l", vec![0], aggs.clone(), GroupMode::Partial),
            data[..3].to_vec(),
        );
        let p2 = run_op(
            &HashGroupOp::new("l", vec![0], aggs.clone(), GroupMode::Partial),
            data[3..].to_vec(),
        );
        let mut partials = p1;
        partials.extend(p2);
        let mut two_step =
            run_op(&HashGroupOp::new("g", vec![0], aggs.clone(), GroupMode::Final), partials);
        let mut one_step = run_op(&HashGroupOp::new("c", vec![0], aggs, GroupMode::Complete), data);
        two_step.sort_by(|a, b| a[0].total_cmp(&b[0]));
        one_step.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(two_step, one_step);
        // avg of group 1 = 20.
        assert_eq!(one_step[0][1], Value::Double(20.0));
    }

    #[test]
    fn scalar_local_global_avg_like_figure6() {
        let aggs = vec![AggSpec::new(AggKind::Avg, 0)];
        let vals =
            |xs: &[i64]| -> Vec<Tuple> { xs.iter().map(|&v| vec![Value::Int64(v)]).collect() };
        let l1 =
            run_op(&ScalarAggOp::new("avg", aggs.clone(), GroupMode::Partial), vals(&[10, 20]));
        let l2 = run_op(&ScalarAggOp::new("avg", aggs.clone(), GroupMode::Partial), vals(&[60]));
        let mut partials = l1;
        partials.extend(l2);
        let fin = run_op(&ScalarAggOp::new("avg", aggs, GroupMode::Final), partials);
        assert_eq!(fin.len(), 1);
        assert_eq!(fin[0][0], Value::Double(30.0));
    }

    #[test]
    fn budgeted_partial_group_flushes_and_final_recombines() {
        let aggs = vec![AggSpec::new(AggKind::Count, 1), AggSpec::new(AggKind::Sum, 1)];
        let data: Vec<Tuple> =
            (0..300i64).map(|i| vec![Value::Int64(i % 7), Value::Int64(i)]).collect();
        let partials = run_op(
            &HashGroupOp::new("l", vec![0], aggs.clone(), GroupMode::Partial).with_budget(1024),
            data.clone(),
        );
        // Seven live groups overflow a 1 KiB budget, so the table must have
        // flushed at least once: more partial rows than distinct keys.
        assert!(partials.len() > 7, "expected repeated flushes, got {} rows", partials.len());
        let mut two_step =
            run_op(&HashGroupOp::new("g", vec![0], aggs.clone(), GroupMode::Final), partials);
        let mut one_step = run_op(&HashGroupOp::new("c", vec![0], aggs, GroupMode::Complete), data);
        two_step.sort_by(|a, b| a[0].total_cmp(&b[0]));
        one_step.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(two_step, one_step);
    }

    #[test]
    fn null_semantics_aql_vs_sql() {
        let data: Vec<Tuple> = vec![
            vec![Value::Int64(1), Value::Int64(10)],
            vec![Value::Int64(1), Value::Null],
            vec![Value::Int64(1), Value::Int64(20)],
        ];
        let aql = run_op(
            &HashGroupOp::new(
                "a",
                vec![0],
                vec![AggSpec::new(AggKind::Avg, 1)],
                GroupMode::Complete,
            ),
            data.clone(),
        );
        assert_eq!(aql[0][1], Value::Null);
        let sql = run_op(
            &HashGroupOp::new(
                "s",
                vec![0],
                vec![AggSpec::sql(AggKind::Avg, 1)],
                GroupMode::Complete,
            ),
            data,
        );
        assert_eq!(sql[0][1], Value::Double(15.0));
    }

    #[test]
    fn listify_collects_group_members() {
        let op = HashGroupOp::new(
            "l",
            vec![0],
            vec![AggSpec::new(AggKind::Listify, 1)],
            GroupMode::Complete,
        );
        let mut out = run_op(&op, rows(&[(1, 10), (1, 20), (2, 5)]));
        out.sort_by(|a, b| a[0].total_cmp(&b[0]));
        let l = out[0][1].as_list().unwrap();
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn empty_input_scalar_agg() {
        let out = run_op(
            &ScalarAggOp::new(
                "e",
                vec![AggSpec::new(AggKind::Avg, 0), AggSpec::new(AggKind::Count, 0)],
                GroupMode::Complete,
            ),
            Vec::new(),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Value::Null);
        assert_eq!(out[0][1], Value::Int64(0));
    }
}
