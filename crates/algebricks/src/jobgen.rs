//! Physical plan / Hyracks job generation (§4.2: "code generation
//! translates the resulting physical query plan into a corresponding
//! Hyracks Job").
//!
//! The generator walks the optimized logical plan bottom-up, tracking the
//! tuple **schema** (which variable lives in which column) and the
//! **partitioning property** of each operator's output, inserting exchange
//! connectors only where partitioning must change — "the optimizer keeps
//! track of data partitioning and only moves data as changes in parallelism
//! or partitioning require" (§5.1).

use std::sync::Arc;

use asterix_adm::functions::FunctionContext;
use asterix_adm::Value;
use asterix_sync::Mutex;

use asterix_hyracks::connector::ConnectorKind;
use asterix_hyracks::frame::Tuple;
use asterix_hyracks::job::{JobSpec, OperatorId};
use asterix_hyracks::ops::{
    sort_comparator, AggKind, AggSpec, AssignOp, CmpKind, DistinctOp, FetchFn, ForwardOp,
    GroupMode, HashGroupOp, HybridHashJoinOp, IndexNlJoinOp, JoinType, LimitOp, OrdPred, Predicate,
    PrimaryFetchOp, ProbeFn, ProjectOp, RawSourceFn, RuntimeFilterProbeOp, ScalarAggOp, SelectOp,
    SinkOp, SortKey, SortOp, SourceOp,
};
use asterix_hyracks::{HyracksError, Result};

use crate::expr::{eval, truthy, CompareOp, EvalCtx, LogicalExpr, TupleResolver, VarId};
use crate::metadata::{every_key, KeyBound, MetadataProvider, ScanFilter, ScanProjection};
use crate::plan::{key_bound, AggCall, AggFunc, IndexSearchSpec, JoinKind, LogicalOp, SortSpec};
use crate::rules::{fold_bound, OptimizerOptions};

/// How an operator's output is spread across partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    /// One instance per storage partition.
    Distributed,
    /// A single instance (post-merge / global operators).
    Single,
}

/// A compiled query: the Hyracks job plus the handle its results arrive in.
pub struct CompiledQuery {
    pub job: JobSpec,
    /// Result rows: single-column tuples holding the emitted values.
    pub collector: Arc<Mutex<Vec<Tuple>>>,
}

impl CompiledQuery {
    /// Execute and return the emitted values in arrival order.
    pub fn run(self) -> Result<Vec<Value>> {
        let cfg = asterix_hyracks::executor::ExecutorConfig::default();
        let stats = Arc::new(asterix_hyracks::ExchangeStats::new());
        Ok(self.run_with(&cfg, &stats, false)?.0)
    }

    /// Execute with explicit executor settings, accumulating exchange
    /// counters into `stats` (the instance keeps one handle across queries
    /// so the bench harness can report frames/tuples/stall totals).
    /// `profiled` meters every operator port and times every partition,
    /// returning the per-operator
    /// [`JobProfile`](asterix_hyracks::JobProfile) beside the results;
    /// its operator ids are the ids this compilation assigned, so rows map
    /// back to plan nodes.
    pub fn run_with(
        &self,
        cfg: &asterix_hyracks::executor::ExecutorConfig,
        stats: &Arc<asterix_hyracks::ExchangeStats>,
        profiled: bool,
    ) -> Result<(Vec<Value>, Option<asterix_hyracks::JobProfile>)> {
        let profile = if profiled {
            Some(asterix_hyracks::executor::run_job_profiled(&self.job, cfg, stats)?)
        } else {
            asterix_hyracks::executor::run_job_with_stats(&self.job, cfg, stats)?;
            None
        };
        // The job spec's sink operator also holds the collector Arc, so
        // take the rows out under the lock.
        let rows = std::mem::take(&mut *self.collector.lock());
        let values = rows.into_iter().map(|mut t| t.pop().unwrap_or(Value::Missing)).collect();
        Ok((values, profile))
    }

    /// The Figure 6-style description of the job.
    pub fn describe(&self) -> String {
        self.job.describe()
    }

    /// The job description with each operator line annotated with runtime
    /// stats from a profiled run of this same query shape.
    pub fn describe_profiled(&self, profile: &asterix_hyracks::JobProfile) -> String {
        self.job.describe_annotated(&|op| profile.annotation(op))
    }
}

struct Gen {
    job: JobSpec,
    ctx: Arc<EvalCtx>,
    nparts: usize,
    options: OptimizerOptions,
    /// Per-operator slice of the query's memory grant: the workload
    /// manager's total divided across the plan's memory-hungry operators.
    /// `None` leaves every operator on its built-in default.
    per_op_mem: Option<usize>,
    /// How each record variable (data scan, index search, index-NL join) is
    /// used across the whole plan — drives projecting (late-materializing)
    /// scans and fetches over columnar storage.
    scan_uses: std::collections::HashMap<VarId, VarUse>,
}

/// How a record variable is consumed by the rest of the plan.
#[derive(Debug, Clone)]
enum VarUse {
    /// Every use is a direct `$v.field` access: the read only needs to
    /// materialize these top-level fields.
    Fields(std::collections::BTreeSet<String>),
    /// The whole record escapes somewhere (returned, compared, passed to
    /// a function, unnested…): the read must produce full rows.
    Escaped,
}

/// Compute, for every variable the plan binds to stored records — by a
/// `DataSourceScan` or an index access (`IndexNlJoin`) — whether the query
/// only ever touches specific top-level fields of it. Walks every
/// expression of every operator, recursing into the dataset-free subplans
/// expressions still evaluate, whose references to outer variables are
/// uses. Conservative by construction: any use that is not a literal
/// `$v.field` marks the variable escaped — except a `count`/`sql-count`
/// aggregate of exactly `$v` and an `is-null`, `is-missing` or `is-unknown`
/// test of it, which need no field, and a group key that rebinds `$v` to
/// itself, which carries the variable through the group-by to its uses
/// above, and an assign of `$v` to another variable, whose uses are `$v`'s.
/// A projected read yields a record for every row (`{}` when no field is
/// asked for), and both counts skip only unknown values, which a read never
/// yields, so they count the same rows.
fn analyze_scan_uses(plan: &LogicalOp) -> std::collections::HashMap<VarId, VarUse> {
    fn collect_scans(
        op: &LogicalOp,
        map: &mut std::collections::HashMap<VarId, VarUse>,
        aliases: &mut Vec<(VarId, VarId)>,
    ) {
        match op {
            LogicalOp::DataSourceScan { var, .. } | LogicalOp::IndexNlJoin { var, .. } => {
                map.insert(*var, VarUse::Fields(Default::default()));
            }
            LogicalOp::Assign { var, expr: LogicalExpr::Var(v), .. } => aliases.push((*var, *v)),
            _ => {}
        }
        for child in op.inputs() {
            collect_scans(child, map, aliases);
        }
    }
    fn note_expr(e: &LogicalExpr, map: &mut std::collections::HashMap<VarId, VarUse>) {
        match e {
            LogicalExpr::Var(v) => {
                if let Some(u) = map.get_mut(v) {
                    *u = VarUse::Escaped;
                }
            }
            LogicalExpr::FieldAccess(base, name) => {
                if let LogicalExpr::Var(v) = base.as_ref() {
                    if let Some(VarUse::Fields(fields)) = map.get_mut(v) {
                        fields.insert(name.clone());
                    }
                } else {
                    note_expr(base, map);
                }
            }
            LogicalExpr::Subquery(plan) => note_op(plan, map),
            // Whether a read bound the record — the padding test of a
            // decorrelated subquery — needs none of its fields.
            LogicalExpr::Call(name, args)
                if matches!(name.as_str(), "is-null" | "is-missing" | "is-unknown")
                    && matches!(args.as_slice(), [LogicalExpr::Var(_)]) => {}
            e => e.for_each_child(&mut |c| note_expr(c, map)),
        }
    }
    fn note_op(op: &LogicalOp, map: &mut std::collections::HashMap<VarId, VarUse>) {
        match op {
            LogicalOp::GroupBy { keys, aggs, .. } => {
                for (k, e) in keys {
                    if !matches!(e, LogicalExpr::Var(v) if v == k) {
                        note_expr(e, map);
                    }
                }
                aggs.iter().for_each(|a| note_agg(a, map));
            }
            LogicalOp::Aggregate { aggs, .. } => aggs.iter().for_each(|a| note_agg(a, map)),
            LogicalOp::Assign { var, expr: LogicalExpr::Var(_), .. } if map.contains_key(var) => {}
            op => op.for_each_expr(&mut |e| note_expr(e, map)),
        }
        for child in op.inputs() {
            note_op(child, map);
        }
    }
    fn note_agg(a: &AggCall, map: &mut std::collections::HashMap<VarId, VarUse>) {
        if !(a.func == AggFunc::Count && matches!(a.input, LogicalExpr::Var(_))) {
            note_expr(&a.input, map);
        }
    }
    let (mut map, mut aliases) = (std::collections::HashMap::new(), Vec::new());
    collect_scans(plan, &mut map, &mut aliases);
    // Bottom-up, so that an alias of an alias is one too.
    let mut kept = Vec::new();
    for (alias, v) in aliases.into_iter().rev() {
        if map.contains_key(&v) {
            map.insert(alias, VarUse::Fields(Default::default()));
            kept.push((alias, v));
        }
    }
    note_op(plan, &mut map);
    // Top-down, so that an alias's uses reach the read through the chain.
    for (alias, v) in kept.iter().rev() {
        let used = map.remove(alias);
        match (map.get_mut(v), used) {
            (Some(VarUse::Fields(fields)), Some(VarUse::Fields(more))) => fields.extend(more),
            (Some(u), Some(VarUse::Escaped)) => *u = VarUse::Escaped,
            _ => {}
        }
    }
    map
}

/// Floor for a single operator's slice of the query grant: dividing a small
/// grant across a big plan must not produce unusable budgets.
const MIN_OP_MEM: usize = 1 << 20;

/// Count the plan nodes that become memory-hungry physical operators
/// (sorts, hash-group tables, hybrid hash joins), so a query-wide memory
/// grant can be divided among them. GroupBy counts twice (local partial +
/// global final table) and a selection's secondary-index search carries
/// the hidden `$pk` sort of the Figure 6 access path. The fetches of a
/// primary fetch and of an index-NL join hold at most
/// `asterix_hyracks::ops::FETCH_BATCH` keys, or one probe's matches, and
/// take no share of the grant.
fn memory_hungry_ops(op: &LogicalOp) -> usize {
    match op {
        LogicalOp::EmptyTupleSource | LogicalOp::DataSourceScan { .. } => 0,
        LogicalOp::Assign { input, .. }
        | LogicalOp::Select { input, .. }
        | LogicalOp::Unnest { input, .. }
        | LogicalOp::Limit { input, .. }
        | LogicalOp::Distinct { input, .. }
        | LogicalOp::Aggregate { input, .. }
        | LogicalOp::Emit { input, .. } => memory_hungry_ops(input),
        LogicalOp::Join { left, right, left_keys, .. } => {
            usize::from(!left_keys.is_empty()) + memory_hungry_ops(left) + memory_hungry_ops(right)
        }
        LogicalOp::IndexNlJoin { left, spec, .. } => {
            let sorts =
                op.is_index_selection() && !matches!(spec, IndexSearchSpec::PrimaryRange { .. });
            usize::from(sorts) + memory_hungry_ops(left)
        }
        LogicalOp::GroupBy { input, .. } => 2 + memory_hungry_ops(input),
        LogicalOp::Order { input, .. } => 1 + memory_hungry_ops(input),
    }
}

/// The share of its input a select — or of its dataset a selection's index
/// search — is taken to keep: one tenth, whatever the predicate.
const ASSUMED_SELECTIVITY: u64 = 10;

/// About how many rows `op` produces, bottom-up from what the provider
/// says its datasets hold; `None` when some input cannot be sized (an
/// unnest, a join, a dataset the provider does not count). Only its order
/// between the two inputs of a hash join matters: the smaller one builds.
pub(crate) fn estimated_rows(op: &LogicalOp, provider: &dyn MetadataProvider) -> Option<u64> {
    let input_rows = |input: &LogicalOp| estimated_rows(input, provider);
    Some(match op {
        LogicalOp::DataSourceScan { dataset, .. } => provider.dataset_rows(dataset)?,
        LogicalOp::IndexNlJoin { dataset, .. } if op.is_index_selection() => {
            (provider.dataset_rows(dataset)? / ASSUMED_SELECTIVITY).max(1)
        }
        LogicalOp::Select { input, .. } => (input_rows(input)? / ASSUMED_SELECTIVITY).max(1),
        LogicalOp::Limit { input, count, .. } => input_rows(input)?.min(*count as u64),
        LogicalOp::Aggregate { .. } => 1,
        LogicalOp::Assign { input, .. }
        | LogicalOp::Order { input, .. }
        | LogicalOp::GroupBy { input, .. } => input_rows(input)?,
        _ => return None,
    })
}

/// The field a hash join's probe input can test for build partners inside
/// its scan: the input is a scan — bare, or under the one select whose
/// conjuncts are pushed into that scan — and the join's one key is a field
/// of the scanned record.
fn probe_scan_field<'a>(probe: &LogicalOp, keys: &'a [LogicalExpr]) -> Option<&'a str> {
    let scanned = match probe {
        LogicalOp::DataSourceScan { var, .. } => var,
        LogicalOp::Select { input, .. } => match input.as_ref() {
            LogicalOp::DataSourceScan { var, .. } => var,
            _ => return None,
        },
        _ => return None,
    };
    match keys {
        [LogicalExpr::FieldAccess(base, field)] => match base.as_ref() {
            LogicalExpr::Var(v) if v == scanned => Some(field),
            _ => None,
        },
        _ => None,
    }
}

/// A condition's conjuncts: those of an `and`, else the condition itself.
fn conjuncts(condition: &LogicalExpr) -> &[LogicalExpr] {
    match condition {
        LogicalExpr::And(cs) => cs,
        e => std::slice::from_ref(e),
    }
}

/// Compile an optimized logical plan into a Hyracks job.
pub fn compile(
    plan: &LogicalOp,
    provider: Arc<dyn MetadataProvider>,
    fn_ctx: FunctionContext,
    options: &OptimizerOptions,
) -> Result<CompiledQuery> {
    compile_with_params(plan, provider, fn_ctx, options, Vec::new())
}

/// Compile with bind-time values for the plan's [`LogicalExpr::Param`]
/// slots. This is the plan cache's re-instantiation path: the optimized
/// plan is compiled once per execution, so every constant the generated
/// operators capture (ordkey predicate keys, index search bounds, pushed
/// scan filters) is derived from the *current* parameter vector.
pub fn compile_with_params(
    plan: &LogicalOp,
    provider: Arc<dyn MetadataProvider>,
    fn_ctx: FunctionContext,
    options: &OptimizerOptions,
    params: Vec<asterix_adm::Value>,
) -> Result<CompiledQuery> {
    let nparts = provider.partitions().max(1);
    let per_op_mem = options
        .query_mem_budget
        .map(|total| (total / memory_hungry_ops(plan).max(1)).max(MIN_OP_MEM));
    let mut gen = Gen {
        job: JobSpec::new(),
        ctx: Arc::new(EvalCtx::with_params(provider, fn_ctx, params)),
        nparts,
        options: options.clone(),
        per_op_mem,
        scan_uses: analyze_scan_uses(plan),
    };
    let LogicalOp::Emit { input, expr } = plan else {
        return Err(HyracksError::InvalidJob("top-level plan must end in emit".into()));
    };
    if plan.has_dataset_subquery() {
        return Err(HyracksError::InvalidJob(
            "internal error: an expression subquery that reads a dataset reached job generation"
                .into(),
        ));
    }
    let (op, schema, part) = gen.build(input)?;
    // Final emit: compute the output value, project it, sink at 1 partition.
    let emit_eval = gen.make_eval(expr, &schema)?;
    let width = schema.len();
    let emit_op = match Gen::referenced_cols(&[expr], &schema) {
        Some(fields) => AssignOp::with_fields("emit", vec![emit_eval], fields),
        None => AssignOp::new("emit", vec![emit_eval]),
    };
    let assign = gen.job.add(gen.parts(part), Arc::new(emit_op));
    gen.job.connect(ConnectorKind::OneToOne, op, assign);
    let project = gen.job.add(gen.parts(part), Arc::new(ProjectOp { fields: vec![width] }));
    gen.job.connect(ConnectorKind::OneToOne, assign, project);
    let collector = Arc::new(Mutex::new(Vec::new()));
    let sink = gen.job.add(1, Arc::new(SinkOp::new(Arc::clone(&collector))));
    match part {
        Part::Single => gen.job.connect(ConnectorKind::OneToOne, project, sink),
        Part::Distributed => gen.job.connect(ConnectorKind::MToNReplicating, project, sink),
    }
    Ok(CompiledQuery { job: gen.job, collector })
}

impl Gen {
    /// A sort operator carrying this query's per-operator memory slice.
    fn sort_op(&self, label: &str, keys: Vec<SortKey>) -> SortOp {
        let op = SortOp::new(label, keys);
        match self.per_op_mem {
            Some(b) => op.with_budget(b),
            None => op,
        }
    }

    /// A hash-group operator carrying this query's per-operator slice.
    fn group_op(
        &self,
        label: &str,
        keys: Vec<usize>,
        aggs: Vec<AggSpec>,
        mode: GroupMode,
    ) -> HashGroupOp {
        let op = HashGroupOp::new(label, keys, aggs, mode);
        match self.per_op_mem {
            Some(b) => op.with_budget(b),
            None => op,
        }
    }

    fn parts(&self, p: Part) -> usize {
        match p {
            Part::Distributed => self.nparts,
            Part::Single => 1,
        }
    }

    /// Column map for a schema: VarId → column index.
    fn columns_of(schema: &[VarId]) -> Vec<Option<usize>> {
        let max = schema.iter().copied().max().unwrap_or(0);
        let mut cols = vec![None; max + 1];
        for (i, v) in schema.iter().enumerate() {
            cols[*v] = Some(i);
        }
        cols
    }

    /// The input columns a set of expressions actually read — handed to
    /// Select/Assign so they decode only those positions instead of the
    /// whole tuple. `None` (decode everything) when any free variable is
    /// not a column of this schema, e.g. an assign expression referencing
    /// a column appended earlier in the same operator.
    fn referenced_cols(exprs: &[&LogicalExpr], schema: &[VarId]) -> Option<Vec<usize>> {
        let cols = Self::columns_of(schema);
        let mut vars: Vec<VarId> = Vec::new();
        for e in exprs {
            e.free_vars(&mut vars);
        }
        let mut out = Vec::with_capacity(vars.len());
        for v in vars {
            out.push(cols.get(v).copied().flatten()?);
        }
        out.sort_unstable();
        out.dedup();
        Some(out)
    }

    fn select_op(&self, label: &str, expr: &LogicalExpr, schema: &[VarId]) -> Result<SelectOp> {
        Ok(SelectOp::with_predicate(label, self.predicate(expr, schema)?))
    }

    /// `expr` as a predicate over encoded tuples of `schema`: decoding only
    /// the columns it reads, and decided on the bytes when every conjunct
    /// is an ordkey-decidable comparison.
    fn predicate(&self, expr: &LogicalExpr, schema: &[VarId]) -> Result<Predicate> {
        let ord: Option<Vec<OrdPred>> =
            conjuncts(expr).iter().map(|c| self.ordkey_pred(c, schema)).collect();
        Ok(Predicate {
            pred: self.make_pred(expr, schema)?,
            fields: Self::referenced_cols(&[expr], schema),
            ord: ord.unwrap_or_default(),
        })
    }

    /// Classify `expr` as an ordkey-decidable comparison: `$v <op> C` or
    /// `$v.field <op> C` (either operand order) where the other side folds
    /// to a known constant. The select then decides most tuples by memcmp
    /// on encoded comparison keys; anything the transcoder refuses (unknown
    /// fields, non-scalars, numerics at the exactness bound) falls back to
    /// the decoding predicate, so classification never changes results.
    fn ordkey_pred(&self, expr: &LogicalExpr, schema: &[VarId]) -> Option<OrdPred> {
        let LogicalExpr::Compare(op, lhs, rhs) = expr else { return None };
        let op = match op {
            CompareOp::Eq => CmpKind::Eq,
            CompareOp::Neq => CmpKind::Neq,
            CompareOp::Lt => CmpKind::Lt,
            CompareOp::Le => CmpKind::Le,
            CompareOp::Gt => CmpKind::Gt,
            CompareOp::Ge => CmpKind::Ge,
            CompareOp::FuzzyEq => return None,
        };
        let cols = Self::columns_of(schema);
        // A comparand the fast path can address: a column, or one encoded
        // record field of a column.
        let target = |e: &LogicalExpr| -> Option<(usize, Option<String>)> {
            match e {
                LogicalExpr::Var(v) => Some((cols.get(*v).copied().flatten()?, None)),
                LogicalExpr::FieldAccess(base, name) => match base.as_ref() {
                    LogicalExpr::Var(v) => {
                        Some((cols.get(*v).copied().flatten()?, Some(name.clone())))
                    }
                    _ => None,
                },
                _ => None,
            }
        };
        let is_const = |e: &LogicalExpr| {
            let mut vars = Vec::new();
            e.free_vars(&mut vars);
            vars.is_empty()
        };
        // `C <op> $v` mirrors to `$v <flipped op> C`.
        let flip = |op: CmpKind| match op {
            CmpKind::Lt => CmpKind::Gt,
            CmpKind::Le => CmpKind::Ge,
            CmpKind::Gt => CmpKind::Lt,
            CmpKind::Ge => CmpKind::Le,
            eq => eq,
        };
        let ((col, path), cexpr, op) = if let Some(t) = target(lhs) {
            if !is_const(rhs) {
                return None;
            }
            (t, rhs, op)
        } else if let Some(t) = target(rhs) {
            if !is_const(lhs) {
                return None;
            }
            (t, lhs, flip(op))
        } else {
            return None;
        };
        let c = self.const_value(cexpr).ok()?;
        // NULL/MISSING comparands make the whole comparison unknown; the
        // key encoding cannot express that, so leave them to the decoder.
        if c.is_unknown() {
            return None;
        }
        Some(OrdPred { col, path, op, key: asterix_adm::ordkey::encode_value(&c) })
    }

    /// A per-execution copy of `expr` with this execution's parameters
    /// folded in: the closures built from it do not re-evaluate a
    /// parameter-only subexpression such as `datetime(?1)` per tuple.
    fn bind(&self, expr: &LogicalExpr) -> LogicalExpr {
        if self.ctx.params.is_empty() {
            expr.clone()
        } else {
            fold_bound(expr.clone(), &self.ctx)
        }
    }

    fn make_eval(
        &self,
        expr: &LogicalExpr,
        schema: &[VarId],
    ) -> Result<asterix_hyracks::ops::EvalFn> {
        let cols = Self::columns_of(schema);
        let expr = self.bind(expr);
        let ctx = Arc::clone(&self.ctx);
        Ok(Arc::new(move |t: &Tuple| {
            let r = TupleResolver { columns: &cols, tuple: t };
            eval(&expr, &r, &ctx).map_err(HyracksError::from)
        }))
    }

    fn make_pred(
        &self,
        expr: &LogicalExpr,
        schema: &[VarId],
    ) -> Result<asterix_hyracks::ops::PredFn> {
        let cols = Self::columns_of(schema);
        let expr = self.bind(expr);
        let ctx = Arc::clone(&self.ctx);
        Ok(Arc::new(move |t: &Tuple| {
            let r = TupleResolver { columns: &cols, tuple: t };
            Ok(truthy(&eval(&expr, &r, &ctx).map_err(HyracksError::from)?))
        }))
    }

    /// Evaluate a compile-time constant expression (an index search's
    /// bounds must fold to constants; correlated bounds only occur in an
    /// index-NL join, which evaluates them per outer tuple).
    fn const_value(&self, expr: &LogicalExpr) -> Result<Value> {
        let empty: std::collections::HashMap<VarId, Value> = Default::default();
        eval(expr, &empty, &self.ctx).map_err(HyracksError::from)
    }

    /// Append computed expression columns; returns (op, new schema) where
    /// the new columns are bound to the given variables.
    fn append_columns(
        &mut self,
        input: OperatorId,
        schema: &[VarId],
        part: Part,
        label: &str,
        exprs: &[(VarId, LogicalExpr)],
    ) -> Result<(OperatorId, Vec<VarId>)> {
        let evals: Result<Vec<_>> = exprs.iter().map(|(_, e)| self.make_eval(e, schema)).collect();
        let erefs: Vec<&LogicalExpr> = exprs.iter().map(|(_, e)| e).collect();
        let assign = match Self::referenced_cols(&erefs, schema) {
            Some(fields) => AssignOp::with_fields(label, evals?, fields),
            None => AssignOp::new(label, evals?),
        };
        let op = self.job.add(self.parts(part), Arc::new(assign));
        self.job.connect(ConnectorKind::OneToOne, input, op);
        let mut new_schema = schema.to_vec();
        new_schema.extend(exprs.iter().map(|(v, _)| *v));
        Ok((op, new_schema))
    }

    /// Classify a select condition over a record variable into pushable
    /// pre-filters: every conjunct that is an ordkey-decidable
    /// `$v.field <op> C` comparison. Dropping rows any one conjunct
    /// definitely rejects is always safe.
    fn scan_filters(&self, condition: &LogicalExpr, var: VarId) -> Vec<ScanFilter> {
        let schema = [var];
        conjuncts(condition)
            .iter()
            .filter_map(|e| {
                let p = self.ordkey_pred(e, &schema)?;
                Some(ScanFilter::Cmp { field: p.path?, op: p.op, key: p.key })
            })
            .collect()
    }

    /// What a read of `var`'s records is asked to produce: the fields the
    /// plan touches of the variable, or all of them when it escapes, under
    /// `filters`.
    fn projection_of(&self, var: VarId, filters: Vec<ScanFilter>) -> ScanProjection {
        let fields = match self.scan_uses.get(&var) {
            Some(VarUse::Fields(fields)) => Some(fields.iter().cloned().collect()),
            _ => None,
        };
        ScanProjection { fields, filters }
    }

    /// The batched primary-index fetch of `var`'s records — a scan's
    /// projection, bounded by key lists instead of a range — and what
    /// `explain` says of it.
    fn primary_fetch(
        &self,
        dataset: &str,
        var: VarId,
        filters: Vec<ScanFilter>,
    ) -> Result<(FetchFn, String)> {
        let proj = self.projection_of(var, filters);
        Ok((self.ctx.provider.primary_fetch(dataset, &proj)?, proj.label()))
    }

    /// Build a read of the primary index: a data scan, or — given the
    /// evaluated bounds of a primary-key search as `pk_range` — the bounded
    /// case of the same read. Storage hands encoded tuple bytes straight
    /// into the byte-frame exchange. The provider is always handed a
    /// projection — the fields the plan touches of the variable, or all of
    /// them when it escapes — carrying the filters of the select directly
    /// above (or of the search's post-validation) and of the hash join the
    /// read feeds as probe input, so columnar components can filter first
    /// and assemble only what survives.
    fn build_scan(
        &mut self,
        dataset: &str,
        var: VarId,
        filters: Vec<ScanFilter>,
        pk_range: Option<(KeyBound, KeyBound)>,
    ) -> Result<(OperatorId, Vec<VarId>, Part)> {
        let provider = Arc::clone(&self.ctx.provider);
        let (mut label, (lo, hi)) = match pk_range {
            Some(bounds) => (format!("btree-search {dataset} (primary)"), bounds),
            None => (format!("data-scan {dataset}"), (KeyBound::Unbounded, KeyBound::Unbounded)),
        };
        // Datasets are hash-partitioned on their primary key, so a key
        // equality concerns the one partition that owns the key: search
        // there alone, as a single instance. The bounds are evaluated at
        // jobgen, so a cached plan prunes per execution.
        let owner = match (&lo, &hi) {
            (KeyBound::Inclusive(l), KeyBound::Inclusive(h)) if l == h => {
                provider.primary_partition_of(dataset, l)
            }
            _ => None,
        };
        let proj = self.projection_of(var, filters);
        let all = provider.raw_scan_source(dataset, &proj, lo, hi)?;
        label.push_str(&proj.label());
        let (source, part) = match owner {
            Some(owner) => {
                let nparts = self.nparts;
                let pruned: RawSourceFn =
                    Arc::new(move |_, _, consult, emit| all(owner, nparts, consult, emit));
                (pruned, Part::Single)
            }
            None => (all, Part::Distributed),
        };
        let source = SourceOp::from_raw_fn(label, source);
        let op = match proj.partner() {
            Some((_, id, join_nparts)) => source.with_join_filter(id, join_nparts),
            None => source,
        };
        let id = self.job.add(self.parts(part), Arc::new(op));
        Ok((id, vec![var], part))
    }

    fn build(&mut self, op: &LogicalOp) -> Result<(OperatorId, Vec<VarId>, Part)> {
        match op {
            LogicalOp::EmptyTupleSource => {
                let id = self.job.add(
                    1,
                    Arc::new(SourceOp::new("empty-tuple-source", |_, _, emit| emit(Vec::new()))),
                );
                Ok((id, Vec::new(), Part::Single))
            }
            LogicalOp::DataSourceScan { dataset, var } => {
                self.build_scan(dataset, *var, Vec::new(), None)
            }
            LogicalOp::Assign { input, var, expr } => {
                let (in_op, schema, part) = self.build(input)?;
                let (op, schema) = self.append_columns(
                    in_op,
                    &schema,
                    part,
                    &format!("$v{var}"),
                    &[(*var, expr.clone())],
                )?;
                Ok((op, schema, part))
            }
            LogicalOp::Select { input, condition } => self.build_select(input, condition, None),
            LogicalOp::Unnest { input, var, expr, positional, outer } => {
                let (in_op, schema, part) = self.build(input)?;
                let e = self.make_eval(expr, &schema)?;
                let mut unnest = if *outer {
                    asterix_hyracks::ops::UnnestOp::outer(format!("$v{var}"), e)
                } else {
                    asterix_hyracks::ops::UnnestOp::new(format!("$v{var}"), e)
                };
                if positional.is_some() {
                    unnest = unnest.with_position();
                }
                let id = self.job.add(self.parts(part), Arc::new(unnest));
                self.job.connect(ConnectorKind::OneToOne, in_op, id);
                let mut new_schema = schema;
                new_schema.push(*var);
                if let Some(p) = positional {
                    new_schema.push(*p);
                }
                Ok((id, new_schema, part))
            }
            LogicalOp::Join { left, right, left_keys, right_keys, residual, kind, .. } => {
                self.build_join(left, right, left_keys, right_keys, residual.as_ref(), *kind)
            }
            LogicalOp::IndexNlJoin { .. } => self.build_index_access(op, Vec::new()),
            LogicalOp::GroupBy { input, keys, aggs } => {
                let (in_op, schema, part) = self.build(input)?;
                // Materialize key and agg-input expressions as columns.
                let mut new_cols: Vec<(VarId, LogicalExpr)> = Vec::new();
                for (v, e) in keys {
                    new_cols.push((*v, e.clone()));
                }
                let agg_in_vars: Vec<VarId> = aggs
                    .iter()
                    .enumerate()
                    .map(|(i, _)| 1_000_000 + i) // synthetic column vars
                    .collect();
                for (v, a) in agg_in_vars.iter().zip(aggs) {
                    new_cols.push((*v, a.input.clone()));
                }
                let (keyed, keyed_schema) =
                    self.append_columns(in_op, &schema, part, "group-input", &new_cols)?;
                let nkeys = keys.len();
                let base = keyed_schema.len() - new_cols.len();
                let key_cols: Vec<usize> = (base..base + nkeys).collect();
                let specs: Vec<AggSpec> = aggs
                    .iter()
                    .enumerate()
                    .map(|(i, a)| AggSpec {
                        kind: agg_kind(a.func),
                        field: base + nkeys + i,
                        sql: a.sql,
                    })
                    .collect();
                // Local partial aggregation.
                let local = self.job.add(
                    self.parts(part),
                    Arc::new(self.group_op(
                        "local",
                        key_cols.clone(),
                        specs.clone(),
                        GroupMode::Partial,
                    )),
                );
                self.job.connect(ConnectorKind::OneToOne, keyed, local);
                // Partial output schema: keys 0..nkeys, partial fields after.
                let final_specs: Vec<AggSpec> =
                    specs.iter().map(|s| AggSpec { kind: s.kind, field: 0, sql: s.sql }).collect();
                let global = self.job.add(
                    self.nparts,
                    Arc::new(self.group_op(
                        "global",
                        (0..nkeys).collect(),
                        final_specs,
                        GroupMode::Final,
                    )),
                );
                self.job.connect(
                    ConnectorKind::MToNPartitioning { fields: (0..nkeys).collect() },
                    local,
                    global,
                );
                let mut out_schema: Vec<VarId> = keys.iter().map(|(v, _)| *v).collect();
                out_schema.extend(aggs.iter().map(|a| a.var));
                Ok((global, out_schema, Part::Distributed))
            }
            LogicalOp::Aggregate { input, aggs } => {
                let (in_op, schema, part) = self.build(input)?;
                let agg_in_vars: Vec<VarId> =
                    aggs.iter().enumerate().map(|(i, _)| 1_000_000 + i).collect();
                let new_cols: Vec<(VarId, LogicalExpr)> =
                    agg_in_vars.iter().zip(aggs).map(|(v, a)| (*v, a.input.clone())).collect();
                let (keyed, keyed_schema) =
                    self.append_columns(in_op, &schema, part, "agg-input", &new_cols)?;
                let base = keyed_schema.len() - aggs.len();
                let specs: Vec<AggSpec> = aggs
                    .iter()
                    .enumerate()
                    .map(|(i, a)| AggSpec { kind: agg_kind(a.func), field: base + i, sql: a.sql })
                    .collect();
                // Figure 6: local aggregate per partition, n:1 replicating
                // connector, single global aggregate.
                let local = self.job.add(
                    self.parts(part),
                    Arc::new(ScalarAggOp::new("local", specs.clone(), GroupMode::Partial)),
                );
                self.job.connect(ConnectorKind::OneToOne, keyed, local);
                let final_specs: Vec<AggSpec> =
                    specs.iter().map(|s| AggSpec { kind: s.kind, field: 0, sql: s.sql }).collect();
                let global = self
                    .job
                    .add(1, Arc::new(ScalarAggOp::new("global", final_specs, GroupMode::Final)));
                self.job.connect(ConnectorKind::MToNReplicating, local, global);
                let out_schema: Vec<VarId> = aggs.iter().map(|a| a.var).collect();
                Ok((global, out_schema, Part::Single))
            }
            LogicalOp::Order { input, keys } => self.build_order(input, keys),
            LogicalOp::Limit { input, count, offset } => {
                let (in_op, schema, part) = self.build(input)?;
                // A global limit needs a single stream.
                let (stream, spart) = self.gathered(in_op, part);
                let lim = self.job.add(1, Arc::new(LimitOp { limit: *count, offset: *offset }));
                self.job.connect(ConnectorKind::OneToOne, stream, lim);
                Ok((lim, schema, spart))
            }
            LogicalOp::Distinct { input, exprs } => {
                let (in_op, schema, part) = self.build(input)?;
                let vars: Vec<VarId> =
                    exprs.iter().enumerate().map(|(i, _)| 2_000_000 + i).collect();
                let cols: Vec<(VarId, LogicalExpr)> =
                    vars.iter().zip(exprs).map(|(v, e)| (*v, e.clone())).collect();
                let (keyed, keyed_schema) =
                    self.append_columns(in_op, &schema, part, "distinct-key", &cols)?;
                let base = keyed_schema.len() - exprs.len();
                let key_cols: Vec<usize> = (base..keyed_schema.len()).collect();
                let distinct =
                    self.job.add(self.nparts, Arc::new(DistinctOp { keys: key_cols.clone() }));
                self.job.connect(
                    ConnectorKind::MToNPartitioning { fields: key_cols },
                    keyed,
                    distinct,
                );
                Ok((distinct, keyed_schema, Part::Distributed))
            }
            LogicalOp::Emit { .. } => Err(HyracksError::InvalidJob("nested emit in plan".into())),
        }
    }

    /// A select. Directly over a data scan — or over an inner index-NL join
    /// or a selection's search, for its conjuncts on the fetched records —
    /// it pushes its ordkey-decidable conjuncts into the read: a columnar
    /// source then decides most rows on the filter columns' bytes before
    /// assembling anything. The select stays in the plan — the pushed
    /// filters only drop definite rejects. `partner` is the test of the hash
    /// join this select-over-a-scan is the probe input of; it rides into the
    /// scan behind the select's own conjuncts.
    fn build_select(
        &mut self,
        input: &LogicalOp,
        condition: &LogicalExpr,
        partner: Option<ScanFilter>,
    ) -> Result<(OperatorId, Vec<VarId>, Part)> {
        let (in_op, schema, part) = match input {
            LogicalOp::DataSourceScan { dataset, var } => {
                let mut filters = self.scan_filters(condition, *var);
                filters.extend(partner);
                self.build_scan(dataset, *var, filters, None)?
            }
            LogicalOp::IndexNlJoin { var, kind: JoinKind::Inner, .. } => {
                let filters = self.scan_filters(condition, *var);
                self.build_index_access(input, filters)?
            }
            _ => self.build(input)?,
        };
        let sel = self.select_op("filter", condition, &schema)?;
        let id = self.job.add(self.parts(part), Arc::new(sel));
        self.job.connect(ConnectorKind::OneToOne, in_op, id);
        Ok((id, schema, part))
    }

    /// A hash join's probe input, with the join's `partner` test — made
    /// only for an input [`probe_scan_field`] accepts — pushed into its
    /// scan.
    fn build_probe_input(
        &mut self,
        op: &LogicalOp,
        partner: Option<ScanFilter>,
    ) -> Result<(OperatorId, Vec<VarId>, Part)> {
        match (op, partner) {
            (LogicalOp::DataSourceScan { dataset, var }, Some(partner)) => {
                self.build_scan(dataset, *var, vec![partner], None)
            }
            (LogicalOp::Select { input, condition }, partner @ Some(_)) => {
                self.build_select(input, condition, partner)
            }
            _ => self.build(op),
        }
    }

    /// Append a join input's key expressions as columns bound to `var`,
    /// `var + 1`, …; returns the input keyed and its key columns.
    fn append_join_keys(
        &mut self,
        (op, schema, part): (OperatorId, Vec<VarId>, Part),
        keys: &[LogicalExpr],
        var: VarId,
    ) -> Result<(OperatorId, Vec<VarId>, Part, Vec<usize>)> {
        if keys.is_empty() {
            return Ok((op, schema, part, Vec::new()));
        }
        let kexprs: Vec<(VarId, LogicalExpr)> =
            keys.iter().enumerate().map(|(i, e)| (var + i, e.clone())).collect();
        let (op, schema) = self.append_columns(op, &schema, part, "join-key", &kexprs)?;
        let key_cols = (schema.len() - keys.len()..schema.len()).collect();
        Ok((op, schema, part, key_cols))
    }

    /// A join of any kind, as a hybrid hash join. The residual is decided
    /// inside the join, on `build ++ probe`, before a match counts.
    ///
    /// A keyed join builds the input estimated smaller — `left` when both
    /// inputs can be sized and it is the smaller; a tie or an input of
    /// unknown size keeps the order as written: build = right, probe =
    /// left. The left input of an outer or semi join is the preserved one,
    /// whichever side it takes. The estimates are taken here, so a cached
    /// plan chooses per execution. Both inputs are hash-partitioned on
    /// their keys.
    ///
    /// Unless the probe side is outer, a probe tuple without a build
    /// partner is dropped, so a keyed join also gets a runtime filter: the
    /// build side publishes its key hashes when the build finishes, and a
    /// consult operator on the probe branch drops non-matching tuples
    /// *before* the probe exchange ships them. When the probe input is a
    /// scan, bare or under one select, and the one join key is a field of
    /// the scanned record, the same test is also pushed into the scan,
    /// which then reads the other columns of a row only once its key has a
    /// partner.
    ///
    /// A join with no keys — a theta join, which `explain` calls a
    /// nested-loop join — builds its right input, replicated to every
    /// partition of its left, which probes it one-to-one at its own
    /// parallelism. It has no runtime filter, never spills, and takes no
    /// share of the query's memory grant.
    fn build_join(
        &mut self,
        left: &LogicalOp,
        right: &LogicalOp,
        left_keys: &[LogicalExpr],
        right_keys: &[LogicalExpr],
        residual: Option<&LogicalExpr>,
        kind: JoinKind,
    ) -> Result<(OperatorId, Vec<VarId>, Part)> {
        let keyed = !left_keys.is_empty();
        let provider = self.ctx.provider.as_ref();
        let sized = |op| if keyed { estimated_rows(op, provider) } else { None };
        let (l_rows, r_rows) = (sized(left), sized(right));
        let build_left = matches!((l_rows, r_rows), (Some(l), Some(r)) if l < r);
        let (probe, probe_keys, probe_rows, build_rows) = if build_left {
            (right, right_keys, r_rows, l_rows)
        } else {
            (left, left_keys, l_rows, r_rows)
        };
        let jt = match (kind, build_left) {
            (JoinKind::Inner, _) => JoinType::Inner,
            (JoinKind::LeftOuter, false) => JoinType::ProbeOuter,
            (JoinKind::LeftOuter, true) => JoinType::BuildOuter,
            (JoinKind::Semi, false) => JoinType::ProbeSemi,
            (JoinKind::Semi, true) => JoinType::BuildSemi,
        };
        let filter = (keyed && self.options.enable_runtime_filters && jt != JoinType::ProbeOuter)
            .then(|| self.job.alloc_runtime_filter());
        let partner = filter.zip(probe_scan_field(probe, probe_keys)).map(|(filter_id, field)| {
            ScanFilter::Partner { field: field.into(), filter_id, join_nparts: self.nparts }
        });
        // Inputs are built in written order, whichever of them probes.
        let (l_built, r_built) = if build_left {
            (self.build(left)?, self.build_probe_input(right, partner)?)
        } else {
            (self.build_probe_input(left, partner)?, self.build(right)?)
        };
        let key_var = fresh_var(&l_built.1, &r_built.1, 0);
        let l_keyed = self.append_join_keys(l_built, left_keys, key_var)?;
        let r_keyed = self.append_join_keys(r_built, right_keys, key_var + left_keys.len())?;
        let ((b_op, b_schema, _, b_key_cols), (p_op, p_schema, p_part, p_key_cols)) =
            if build_left { (l_keyed, r_keyed) } else { (r_keyed, l_keyed) };

        let pad_arity = if jt == JoinType::BuildOuter { p_schema.len() } else { b_schema.len() };
        let label = if keyed { "equi" } else { "theta" };
        let mut hh =
            HybridHashJoinOp::new(label, b_key_cols.clone(), p_key_cols.clone(), jt, pad_arity);
        if keyed {
            let size = |rows: Option<u64>| rows.map_or("?".into(), |n| n.to_string());
            hh = hh.with_sides(format!(
                "[build={} ~{}, probe ~{}]",
                if build_left { "left" } else { "right" },
                size(build_rows),
                size(probe_rows)
            ));
            if let Some(b) = self.per_op_mem {
                hh = hh.with_budget(b);
            }
        }
        // A semi-join emits its left input's tuples, others build ++ probe.
        let pair: Vec<VarId> = b_schema.iter().chain(&p_schema).copied().collect();
        if let Some(resid) = residual {
            hh = hh.with_residual(self.predicate(resid, &pair)?);
        }
        let schema = match (kind, build_left) {
            (JoinKind::Semi, true) => b_schema,
            (JoinKind::Semi, false) => p_schema,
            _ => pair,
        };
        let mut probe_src = p_op;
        if let Some(fid) = filter {
            hh = hh.with_runtime_filter(fid);
            let consult = self.job.add(
                self.parts(p_part),
                Arc::new(RuntimeFilterProbeOp {
                    filter_id: fid,
                    key_cols: p_key_cols.clone(),
                    join_nparts: self.nparts,
                }),
            );
            self.job.connect(ConnectorKind::OneToOne, p_op, consult);
            probe_src = consult;
        }
        let (build_conn, probe_conn, part) = if keyed {
            let build = ConnectorKind::MToNPartitioning { fields: b_key_cols };
            (build, ConnectorKind::MToNPartitioning { fields: p_key_cols }, Part::Distributed)
        } else {
            (ConnectorKind::MToNReplicating, ConnectorKind::OneToOne, p_part)
        };
        let join = self.job.add(self.parts(part), Arc::new(hh));
        self.job.connect(build_conn, b_op, join);
        self.job.connect(probe_conn, probe_src, join);
        Ok((join, schema, part))
    }

    /// Sort: per-partition external sort, then a partitioning-merging
    /// exchange into a single ordered stream.
    fn build_order(
        &mut self,
        input: &LogicalOp,
        keys: &[SortSpec],
    ) -> Result<(OperatorId, Vec<VarId>, Part)> {
        let (in_op, schema, part) = self.build(input)?;
        let vars: Vec<VarId> = keys.iter().enumerate().map(|(i, _)| 3_000_000 + i).collect();
        let cols: Vec<(VarId, LogicalExpr)> =
            vars.iter().zip(keys).map(|(v, k)| (*v, k.expr.clone())).collect();
        let (keyed, keyed_schema) = self.append_columns(in_op, &schema, part, "sort-key", &cols)?;
        let base = keyed_schema.len() - keys.len();
        let sort_keys: Vec<SortKey> =
            keys.iter().enumerate().map(|(i, k)| SortKey::field(base + i, k.descending)).collect();
        let sort =
            self.job.add(self.parts(part), Arc::new(self.sort_op("order-by", sort_keys.clone())));
        self.job.connect(ConnectorKind::OneToOne, keyed, sort);
        if self.parts(part) == 1 {
            return Ok((sort, keyed_schema, Part::Single));
        }
        let merge = self.job.add(1, Arc::new(ForwardOp::new("merge")));
        self.job.connect(
            ConnectorKind::MToNPartitioningMerging {
                fields: vec![],
                comparator: sort_comparator(&sort_keys),
            },
            sort,
            merge,
        );
        Ok((merge, keyed_schema, Part::Single))
    }

    /// `op`'s output as a single stream.
    fn gathered(&mut self, op: OperatorId, part: Part) -> (OperatorId, Part) {
        match part {
            Part::Single => (op, Part::Single),
            Part::Distributed => {
                let pass = self.job.add(1, Arc::new(ForwardOp::new("gather")));
                self.job.connect(ConnectorKind::MToNReplicating, op, pass);
                (pass, Part::Single)
            }
        }
    }

    /// The index access: search `index` of `dataset` as `spec` says, fetch
    /// each matching record into `var` with the projection a scan of `var`
    /// would get, under `filters` (the pushable conjuncts of a select above
    /// an index-NL join), and keep the records that pass the postcondition.
    /// The operator's input chooses the physical form.
    ///
    /// A selection (the empty tuple source, inner) has a constant probe, so
    /// its job is Figure 6's: each partition searches its own index (pk
    /// tuples) → sort(pk) → batched primary-index fetch → post-validation
    /// select. A primary-key search is the bounded read of the primary
    /// index a scan makes, and a probe the index cannot narrow scans, both
    /// under the same post-validation. Every read of the primary index
    /// carries the post-validation's pushable conjuncts as its filters.
    ///
    /// An index nested-loop join (any other input) resolves each outer
    /// tuple's probe, and per batch of outer tuples each index partition is
    /// searched once for all their probes; the matching records are
    /// fetched per batch, and the postcondition is applied to each match
    /// inside the join. A probe the index cannot narrow matches every key,
    /// read once per batch.
    fn build_index_access(
        &mut self,
        op: &LogicalOp,
        mut filters: Vec<ScanFilter>,
    ) -> Result<(OperatorId, Vec<VarId>, Part)> {
        let LogicalOp::IndexNlJoin { left, dataset, index, spec, postcondition, var, kind } = op
        else {
            unreachable!("build_index_access takes an IndexNlJoin")
        };
        let (provider, var) = (Arc::clone(&self.ctx.provider), *var);
        if op.is_index_selection() {
            // The postcondition's conjuncts, then the select's it lacks.
            let post: Vec<_> =
                postcondition.iter().flat_map(|p| self.scan_filters(p, var)).collect();
            filters.retain(|f| !post.contains(f));
            let filters = [post, filters].concat();
            let (mut out, schema, part) = match spec {
                IndexSearchSpec::PrimaryRange { lo, hi } => {
                    let value = |e: &LogicalExpr| self.const_value(e);
                    let bounds = (key_bound(lo, value)?, key_bound(hi, value)?);
                    self.build_scan(dataset, var, filters, Some(bounds))?
                }
                _ => match spec.probe(&*provider, dataset, index, |e| self.const_value(e))? {
                    Some(probe) => {
                        let label = format!("{}-search {dataset}.{index}", spec.kind_word());
                        let search = provider.secondary_search(dataset, index)?;
                        let source: RawSourceFn = Arc::new(move |partition, _, _, emit| {
                            let probe = std::slice::from_ref(&probe);
                            search(partition..partition + 1, probe, &mut |_, pk| emit(pk))
                        });
                        let source = Arc::new(SourceOp::from_raw_fn(label, source));
                        let search = self.job.add(self.nparts, source);
                        // Sort primary keys "to improve the access pattern on
                        // the primary index" (Figure 6 discussion): sorted keys
                        // reach the fetch in batches that each cover one
                        // stretch of it.
                        let sort_op = self.sort_op("$pk", vec![SortKey::field(0, false)]);
                        let sort = self.job.add(self.nparts, Arc::new(sort_op));
                        self.job.connect(ConnectorKind::OneToOne, search, sort);
                        let (fetch, projection) = self.primary_fetch(dataset, var, filters)?;
                        let label = format!("btree-search {dataset} (primary){projection}");
                        let fetch = Arc::new(PrimaryFetchOp::new(label, fetch));
                        let lookup = self.job.add(self.nparts, fetch);
                        self.job.connect(ConnectorKind::OneToOne, sort, lookup);
                        (lookup, vec![var], Part::Distributed)
                    }
                    // The index cannot narrow the search: scan, and let the
                    // post-validation decide.
                    None => self.build_scan(dataset, var, filters, None)?,
                },
            };
            if let Some(post) = postcondition {
                let sel_op = self.select_op("post-validate", post, &schema)?;
                let sel = self.job.add(self.parts(part), Arc::new(sel_op));
                self.job.connect(ConnectorKind::OneToOne, out, sel);
                out = sel;
            }
            return Ok((out, schema, part));
        }
        let (l_op, l_schema, part) = self.build(left)?;
        let cols = Self::columns_of(&l_schema);
        let ctx = Arc::clone(&self.ctx);
        let (dataset_c, index_c, spec_c) = (dataset.clone(), index.clone(), spec.clone());
        let search = provider.secondary_search(dataset, index)?;
        let nparts = self.nparts;
        // Each outer tuple's probe is its own group; every tuple the index
        // cannot narrow joins through EVERY, which every key matches.
        const EVERY: usize = usize::MAX;
        let probe: ProbeFn = Arc::new(move |outers, groups, emit| {
            let mut probes = Vec::new();
            for o in 0..outers.tuple_count() {
                let t = outers.tuple_ref(o)?.decode()?;
                let vars = TupleResolver { columns: &cols, tuple: &t };
                let value = |e: &LogicalExpr| eval(e, &vars, &ctx).map_err(HyracksError::from);
                let probe = spec_c.probe(&*ctx.provider, &dataset_c, &index_c, value)?;
                groups.push(probe.as_ref().map_or(EVERY, |_| probes.len()));
                probes.extend(probe);
            }
            // Each index partition is searched once for the batch, and the
            // keys are read once for the tuples that need them all.
            if !probes.is_empty() {
                search(0..nparts, &probes, emit)?;
            }
            if groups.contains(&EVERY) {
                let keys = every_key(&*ctx.provider, &dataset_c)?;
                (0..nparts).try_for_each(|p| keys(p, nparts, None, &mut |pk| emit(EVERY, pk)))?;
            }
            Ok(())
        });
        let (fetch, projection) = self.primary_fetch(dataset, var, filters)?;
        let mut schema = l_schema;
        schema.push(var);
        let label = format!("{dataset}.{index}{projection}");
        let mut op = IndexNlJoinOp::new(label, probe, fetch, join_type(*kind), 1);
        if let Some(post) = postcondition {
            op = op.with_filter(self.predicate(post, &schema)?);
        }
        let join = self.job.add(self.parts(part), Arc::new(op));
        self.job.connect(ConnectorKind::OneToOne, l_op, join);
        Ok((join, schema, part))
    }
}

/// The probe-side kind of an index nested-loop join, whose left input
/// probes.
fn join_type(kind: JoinKind) -> JoinType {
    match kind {
        JoinKind::Inner => JoinType::Inner,
        JoinKind::LeftOuter => JoinType::ProbeOuter,
        JoinKind::Semi => JoinType::ProbeSemi,
    }
}

fn fresh_var(l: &[VarId], r: &[VarId], i: usize) -> VarId {
    let max = l.iter().chain(r).copied().max().unwrap_or(0);
    4_000_000 + max + i + 1
}

fn agg_kind(f: AggFunc) -> AggKind {
    match f {
        AggFunc::Count => AggKind::Count,
        AggFunc::Sum => AggKind::Sum,
        AggFunc::Min => AggKind::Min,
        AggFunc::Max => AggKind::Max,
        AggFunc::Avg => AggKind::Avg,
        AggFunc::Listify => AggKind::Listify,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CompareOp;
    use crate::metadata::tests_support::VecProvider;
    use crate::plan::build::*;
    use crate::plan::AggCall;
    use crate::rules::optimize;
    use asterix_hyracks::ops::FETCH_BATCH;

    fn users(n: i64) -> Vec<Value> {
        (0..n)
            .map(|i| {
                asterix_adm::parse::parse_value(&format!(
                    r#"{{ "id": {i}, "grp": {}, "score": {} }}"#,
                    i % 7,
                    i * 3
                ))
                .unwrap()
            })
            .collect()
    }

    fn provider(n: i64) -> Arc<dyn MetadataProvider> {
        Arc::new(vec_provider(n))
    }

    /// `n` users and `2n` messages, message `m` written by user `m % n`.
    fn vec_provider(n: i64) -> VecProvider {
        let mut p = VecProvider::new(4);
        p.add("U", "id", users(n));
        p.add(
            "M",
            "mid",
            (0..n * 2)
                .map(|m| {
                    asterix_adm::parse::parse_value(&format!(
                        r#"{{ "mid": {m}, "author": {} }}"#,
                        m % n.max(1)
                    ))
                    .unwrap()
                })
                .collect(),
        );
        p
    }

    fn run_both(plan: LogicalOp, prov: Arc<dyn MetadataProvider>) -> (Vec<Value>, Vec<Value>) {
        let fctx = FunctionContext::default();
        let optimized = optimize(plan, &prov, &fctx, &OptimizerOptions::default());
        // Interpreter path.
        let ictx = EvalCtx::new(Arc::clone(&prov), fctx.clone());
        let interp =
            crate::interp::eval_subplan(&optimized, &std::collections::HashMap::new(), &ictx)
                .unwrap();
        // Compiled path.
        let compiled = compile(&optimized, prov, fctx, &OptimizerOptions::default()).unwrap();
        let exec = compiled.run().unwrap();
        (interp, exec)
    }

    fn sort_vals(mut v: Vec<Value>) -> Vec<Value> {
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    #[test]
    fn compiled_matches_interpreter_on_filter() {
        let plan = emit(
            select(
                scan("U", 0),
                LogicalExpr::Compare(
                    CompareOp::Lt,
                    Box::new(LogicalExpr::field(var(0), "id")),
                    Box::new(lit(Value::Int64(10))),
                ),
            ),
            LogicalExpr::field(var(0), "id"),
        );
        let (i, c) = run_both(plan, provider(50));
        assert_eq!(i.len(), 10);
        assert_eq!(sort_vals(i), sort_vals(c));
    }

    #[test]
    fn compiled_matches_interpreter_on_join() {
        let plan = emit(
            cross(
                scan("U", 0),
                scan("M", 1),
                LogicalExpr::Compare(
                    CompareOp::Eq,
                    Box::new(LogicalExpr::field(var(0), "id")),
                    Box::new(LogicalExpr::field(var(1), "author")),
                ),
            ),
            LogicalExpr::field(var(1), "mid"),
        );
        let (i, c) = run_both(plan, provider(20));
        assert_eq!(i.len(), 40); // every message joins its author
        assert_eq!(sort_vals(i), sort_vals(c));
    }

    #[test]
    fn compiled_matches_interpreter_on_group_by() {
        let plan = emit(
            LogicalOp::GroupBy {
                input: Box::new(scan("U", 0)),
                keys: vec![(1, LogicalExpr::field(var(0), "grp"))],
                aggs: vec![
                    AggCall { var: 2, func: AggFunc::Count, sql: false, input: var(0) },
                    AggCall {
                        var: 3,
                        func: AggFunc::Avg,
                        sql: false,
                        input: LogicalExpr::field(var(0), "score"),
                    },
                ],
            },
            LogicalExpr::RecordCtor(vec![
                ("g".into(), var(1)),
                ("n".into(), var(2)),
                ("avg".into(), var(3)),
            ]),
        );
        let (i, c) = run_both(plan, provider(70));
        assert_eq!(i.len(), 7);
        assert_eq!(sort_vals(i), sort_vals(c));
    }

    #[test]
    fn order_and_limit_preserved_globally() {
        let plan = emit(
            LogicalOp::Limit {
                input: Box::new(LogicalOp::Order {
                    input: Box::new(scan("U", 0)),
                    keys: vec![SortSpec {
                        expr: LogicalExpr::field(var(0), "id"),
                        descending: true,
                    }],
                }),
                count: 5,
                offset: 0,
            },
            LogicalExpr::field(var(0), "id"),
        );
        let (i, c) = run_both(plan, provider(100));
        // Order matters here — compare directly.
        assert_eq!(i, c);
        assert_eq!(c, (95..100).rev().map(Value::Int64).collect::<Vec<_>>());
    }

    #[test]
    fn scalar_aggregate_single_result() {
        let plan = emit(
            LogicalOp::Aggregate {
                input: Box::new(scan("U", 0)),
                aggs: vec![AggCall {
                    var: 1,
                    func: AggFunc::Avg,
                    sql: false,
                    input: LogicalExpr::field(var(0), "score"),
                }],
            },
            var(1),
        );
        let (i, c) = run_both(plan, provider(10));
        assert_eq!(i.len(), 1);
        assert_eq!(i, c);
        // avg of 3*(0..9) = 13.5
        assert_eq!(c[0], Value::Double(13.5));
    }

    #[test]
    fn figure6_plan_description_shape() {
        // A scalar aggregate plan must show the local/global split with an
        // n:1 replicating connector, as in Figure 6.
        let prov = provider(10);
        let fctx = FunctionContext::default();
        let plan = emit(
            LogicalOp::Aggregate {
                input: Box::new(scan("U", 0)),
                aggs: vec![AggCall {
                    var: 1,
                    func: AggFunc::Avg,
                    sql: false,
                    input: LogicalExpr::field(var(0), "score"),
                }],
            },
            var(1),
        );
        let optimized = optimize(plan, &prov, &fctx, &OptimizerOptions::default());
        let compiled = compile(&optimized, prov, fctx, &OptimizerOptions::default()).unwrap();
        let d = compiled.describe();
        assert!(d.contains("aggregate local"), "{d}");
        assert!(d.contains("aggregate global"), "{d}");
        assert!(d.contains("4:1 replicating"), "{d}");
    }

    #[test]
    fn nested_loop_join_for_non_equi() {
        let plan = emit(
            cross(
                scan("U", 0),
                scan("U", 1),
                LogicalExpr::And(vec![
                    LogicalExpr::Compare(
                        CompareOp::Lt,
                        Box::new(LogicalExpr::field(var(0), "id")),
                        Box::new(LogicalExpr::field(var(1), "id")),
                    ),
                    LogicalExpr::Compare(
                        CompareOp::Lt,
                        Box::new(LogicalExpr::field(var(1), "id")),
                        Box::new(lit(Value::Int64(4))),
                    ),
                ]),
            ),
            LogicalExpr::field(var(1), "id"),
        );
        let (i, c) = run_both(plan, provider(10));
        // pairs (a,b) with a<b<4: b=1 (1), b=2 (2), b=3 (3) → 6 rows.
        assert_eq!(i.len(), 6);
        assert_eq!(sort_vals(i), sort_vals(c));
    }

    /// A primary-index search of `U` as the optimizer writes it, bounds as
    /// `(key, inclusive)`.
    fn pk_search(var: VarId, lo: Option<(i64, bool)>, hi: Option<(i64, bool)>) -> LogicalOp {
        let bound = |b: Option<(i64, bool)>| b.map(|(k, incl)| (lit(Value::Int64(k)), incl));
        let spec = IndexSearchSpec::PrimaryRange { lo: bound(lo), hi: bound(hi) };
        index_search("U", "", var, spec, None)
    }

    fn compile_on(plan: &LogicalOp, knows_owner: bool) -> CompiledQuery {
        let p = VecProvider { knows_owner, ..vec_provider(20) };
        let (fctx, options) = (FunctionContext::default(), OptimizerOptions::default());
        compile(plan, Arc::new(p), fctx, &options).unwrap()
    }

    #[test]
    fn key_equality_searches_the_owning_partition_alone() {
        let ids = |lo, hi| emit(pk_search(0, lo, hi), LogicalExpr::field(var(0), "id"));
        let seven = vec![Value::Int64(7)];

        // Equal inclusive bounds and a provider that names the owner: one
        // source instance, and the whole job one pipeline.
        let pruned = compile_on(&ids(Some((7, true)), Some((7, true))), true);
        let d = pruned.describe();
        assert!(d.contains("btree-search U (primary) [cols: id] [parts=1"), "{d}");
        assert!(!d.contains("replicating"), "{d}");
        assert_eq!(pruned.job.fusion_plan().unwrap().total_threads(), 1, "{d}");
        assert_eq!(pruned.run().unwrap(), seven);

        // Anything else searches every partition: a range, an exclusive
        // bound, an open end, a provider that cannot tell.
        for (lo, hi, knows_owner, expect) in [
            (Some((7, true)), Some((8, true)), true, vec![Value::Int64(7), Value::Int64(8)]),
            (Some((7, true)), Some((8, false)), true, seven.clone()),
            (Some((6, false)), Some((7, true)), true, seven.clone()),
            (Some((7, true)), Some((7, false)), true, vec![]),
            (Some((19, true)), None, true, vec![Value::Int64(19)]),
            (Some((7, true)), Some((7, true)), false, seven.clone()),
        ] {
            let q = compile_on(&ids(lo, hi), knows_owner);
            let d = q.describe();
            assert!(
                d.contains("btree-search U (primary) [cols: id] [parts=4"),
                "{lo:?}..{hi:?}: {d}"
            );
            assert!(q.job.fusion_plan().unwrap().total_threads() > 1, "{d}");
            assert_eq!(sort_vals(q.run().unwrap()), expect, "{lo:?}..{hi:?}");
        }
    }

    /// A select directly above a selection's search pushes its ordkey
    /// conjuncts into the search's fetch, behind the postcondition's and
    /// without repeating one the postcondition pushes already.
    #[test]
    fn a_select_above_a_selection_pushes_into_its_fetch() {
        let (author, mid) =
            (LogicalExpr::field(var(1), "author"), LogicalExpr::field(var(1), "mid"));
        let below = |f: &LogicalExpr, k| cmp(CompareOp::Lt, f.clone(), lit(Value::Int64(k)));
        let spec =
            IndexSearchSpec::BTreeRange { lo: None, hi: Some((lit(Value::Int64(3)), false)) };
        let search = index_search("M", "author", 1, spec, Some(below(&author, 3)));
        let twice = LogicalExpr::And(vec![below(&author, 3), below(&mid, 21)]);
        for condition in [below(&mid, 21), twice] {
            let plan = emit(select(search.clone(), condition), mid.clone());
            let (job, rows) =
                compile_and_run(&plan, vec_provider(20), &OptimizerOptions::default());
            let fetch = "btree-search M (primary) [cols: author,mid] [filter: author<?, mid<?]";
            assert!(job.contains(fetch), "{job}");
            let mids = [0, 1, 2, 20].map(Value::Int64).to_vec();
            assert_eq!(rows, mids, "messages of authors 0-2 below 21");
        }
    }

    #[test]
    fn pruned_search_joins_like_the_all_partition_search() {
        let user = || pk_search(0, Some((3, true)), Some((3, true)));
        let (id, author) = (LogicalExpr::field(var(0), "id"), LogicalExpr::field(var(1), "author"));
        let hash_join = |user_left: bool| {
            let (left, right) = (Box::new(user()), Box::new(scan("M", 1)));
            let (left, right, left_keys, right_keys) = if user_left {
                (left, right, vec![id.clone()], vec![author.clone()])
            } else {
                (right, left, vec![author.clone()], vec![id.clone()])
            };
            let (kind, residual, index_nl_hint) = (JoinKind::Inner, None, false);
            LogicalOp::Join { left, right, left_keys, right_keys, residual, kind, index_nl_hint }
        };
        let index_nl = LogicalOp::IndexNlJoin {
            left: Box::new(user()),
            dataset: "M".into(),
            index: "author".into(),
            spec: IndexSearchSpec::BTreeRange {
                lo: Some((id.clone(), true)),
                hi: Some((id.clone(), true)),
            },
            postcondition: None,
            var: 1,
            kind: JoinKind::Inner,
        };
        // A spec the index cannot narrow — a window of no shape — probes
        // every key, and the postcondition decides.
        let unnarrowed = LogicalOp::IndexNlJoin {
            left: Box::new(user()),
            dataset: "M".into(),
            index: "author".into(),
            spec: IndexSearchSpec::RTree { query: lit(Value::Int64(0)) },
            postcondition: Some(cmp(CompareOp::Eq, author.clone(), id.clone())),
            var: 1,
            kind: JoinKind::Inner,
        };
        for join in [hash_join(true), hash_join(false), index_nl, unnarrowed] {
            let plan = emit(join, LogicalExpr::field(var(1), "mid"));
            let pruned = compile_on(&plan, true);
            let d = pruned.describe();
            assert!(d.contains("btree-search U (primary) [cols: id] [parts=1"), "{d}");
            let all = compile_on(&plan, false);
            assert!(all.describe().contains("btree-search U (primary) [cols: id] [parts=4"));
            let rows = sort_vals(pruned.run().unwrap());
            assert_eq!(rows, vec![Value::Int64(3), Value::Int64(23)], "{d}");
            assert_eq!(rows, sort_vals(all.run().unwrap()), "{d}");
        }
    }

    // -- index nested-loop joins: what one batch of outer tuples costs ------

    /// A [`VecProvider`] that counts the index partitions its secondary
    /// searches visit and the partition reads of dataset `M`.
    struct Counting {
        inner: VecProvider,
        searched: Arc<std::sync::atomic::AtomicUsize>,
        m_reads: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl MetadataProvider for Counting {
        fn partitions(&self) -> usize {
            self.inner.partitions()
        }
        fn dataset_exists(&self, d: &str) -> bool {
            self.inner.dataset_exists(d)
        }
        fn primary_key_fields(&self, d: &str) -> Vec<String> {
            self.inner.primary_key_fields(d)
        }
        fn indexes(&self, d: &str) -> Vec<crate::metadata::IndexInfo> {
            self.inner.indexes(d)
        }
        fn primary_partition_of(&self, d: &str, key: &Value) -> Option<usize> {
            self.inner.primary_partition_of(d, key)
        }
        fn dataset_rows(&self, d: &str) -> Option<u64> {
            self.inner.dataset_rows(d)
        }
        fn raw_scan_source(
            &self,
            d: &str,
            p: &ScanProjection,
            lo: KeyBound,
            hi: KeyBound,
        ) -> Result<RawSourceFn> {
            let read = self.inner.raw_scan_source(d, p, lo, hi)?;
            let (reads, counted) = (Arc::clone(&self.m_reads), d == "M");
            Ok(Arc::new(move |partition, nparts, consult, emit| {
                reads.fetch_add(usize::from(counted), std::sync::atomic::Ordering::Relaxed);
                read(partition, nparts, consult, emit)
            }))
        }
        fn secondary_search(&self, d: &str, i: &str) -> Result<crate::metadata::IndexSearchFn> {
            let search = self.inner.secondary_search(d, i)?;
            let searched = Arc::clone(&self.searched);
            Ok(Arc::new(move |partitions, probes, emit| {
                searched.fetch_add(partitions.len(), std::sync::atomic::Ordering::Relaxed);
                search(partitions, probes, emit)
            }))
        }
        fn primary_fetch(&self, d: &str, p: &ScanProjection) -> Result<FetchFn> {
            self.inner.primary_fetch(d, p)
        }
    }

    /// An index-NL join searches each index partition once per batch, not
    /// once per outer tuple, and a probe the index cannot narrow reads the
    /// keys of `M` once per batch: over 40 users in four partitions (one
    /// batch per join partition), and over `2·FETCH_BATCH + 10` users in
    /// one (three batches). Each answers what the interpreter answers.
    #[test]
    fn an_index_nl_join_searches_each_partition_once_per_batch() {
        let (id, author) = (LogicalExpr::field(var(0), "id"), LogicalExpr::field(var(1), "author"));
        let join = |spec: IndexSearchSpec, postcondition| LogicalOp::IndexNlJoin {
            left: Box::new(scan("U", 0)),
            dataset: "M".into(),
            index: "author".into(),
            spec,
            postcondition,
            var: 1,
            kind: JoinKind::LeftOuter,
        };
        let narrowed = IndexSearchSpec::BTreeRange {
            lo: Some((id.clone(), true)),
            hi: Some((id.clone(), true)),
        };
        let unnarrowed = IndexSearchSpec::RTree { query: lit(Value::Int64(0)) };
        let on_author = Some(cmp(CompareOp::Eq, author.clone(), id.clone()));
        let big = 2 * FETCH_BATCH as i64 + 10;
        // (users, messages, partitions, batches per join partition).
        for (n, msgs, nparts, batches) in [(40, 80, 4, 1), (big, 12, 1, 3)] {
            // (index partitions searched, partition reads of M's keys).
            let once = batches * nparts * nparts;
            let cases = [
                (narrowed.clone(), None, (once, 0)),
                (unnarrowed.clone(), on_author.clone(), (0, once)),
            ];
            for (spec, post, want) in cases {
                let plan = emit(join(spec, post), LogicalExpr::field(var(1), "mid"));
                let mut inner = VecProvider::new(nparts);
                inner.add("U", "id", users(n));
                let message = |m: i64| {
                    let text = format!(r#"{{ "mid": {m}, "author": {} }}"#, m % n);
                    asterix_adm::parse::parse_value(&text).unwrap()
                };
                inner.add("M", "mid", (0..msgs).map(message).collect());
                let counting =
                    Counting { inner, searched: Default::default(), m_reads: Default::default() };
                let (searched, m_reads) =
                    (Arc::clone(&counting.searched), Arc::clone(&counting.m_reads));
                let prov: Arc<dyn MetadataProvider> = Arc::new(counting);
                let fctx = FunctionContext::default();
                let ictx = EvalCtx::new(Arc::clone(&prov), fctx.clone());
                let no_vars = std::collections::HashMap::new();
                let interp = crate::interp::eval_subplan(&plan, &no_vars, &ictx).unwrap();
                let compiled = compile(&plan, prov, fctx, &OptimizerOptions::default()).unwrap();
                let ordering = std::sync::atomic::Ordering::Relaxed;
                let (searched0, reads0) = (searched.load(ordering), m_reads.load(ordering));
                let rows = sort_vals(compiled.run().unwrap());
                // Every message once, and a padded row per user without one.
                assert_eq!(rows.len() as i64, msgs + (n - msgs.min(n)));
                assert_eq!(rows, sort_vals(interp));
                let got = (searched.load(ordering) - searched0, m_reads.load(ordering) - reads0);
                assert_eq!(got, want, "{n} users");
            }
        }
    }

    /// Each execution's closures see its parameters folded: a
    /// parameter-only subexpression is a constant in the copy they are
    /// built from, and without parameters the expression stays as written.
    #[test]
    fn bound_parameters_fold_into_each_execution_copy() {
        let gen = |params: Vec<Value>| Gen {
            job: JobSpec::new(),
            ctx: Arc::new(EvalCtx::with_params(provider(1), FunctionContext::default(), params)),
            nparts: 1,
            options: OptimizerOptions::default(),
            per_op_mem: None,
            scan_uses: Default::default(),
        };
        let since = LogicalExpr::call("datetime", vec![LogicalExpr::Param(0)]);
        let e = cmp(CompareOp::Ge, LogicalExpr::field(var(0), "ts"), since);
        let bound = gen(vec![Value::string("2012-01-01T00:00:00")]).bind(&e);
        let LogicalExpr::Compare(_, _, rhs) = &bound else { panic!("{bound}") };
        assert!(matches!(**rhs, LogicalExpr::Const(Value::DateTime(_))), "{bound}");
        assert_eq!(gen(Vec::new()).bind(&e).to_string(), e.to_string());
    }

    // -- hash joins: which input builds, what the probe scan is asked -------

    fn cmp(op: CompareOp, l: LogicalExpr, r: LogicalExpr) -> LogicalExpr {
        LogicalExpr::Compare(op, Box::new(l), Box::new(r))
    }

    /// The first `n` users (`$0`), `n / 10` by estimate.
    fn few_users(n: i64) -> LogicalOp {
        let id = LogicalExpr::field(var(0), "id");
        select(scan("U", 0), cmp(CompareOp::Lt, id, lit(Value::Int64(n))))
    }

    /// `left ⋈ right` on the given key pairs, emitting (user, message) ids.
    fn join_plan(
        left: LogicalOp,
        right: LogicalOp,
        keys: Vec<(LogicalExpr, LogicalExpr)>,
        kind: JoinKind,
    ) -> LogicalOp {
        let (left_keys, right_keys) = keys.into_iter().unzip();
        let (left, right, residual, index_nl_hint) = (Box::new(left), Box::new(right), None, false);
        emit(
            LogicalOp::Join { left, right, left_keys, right_keys, residual, kind, index_nl_hint },
            LogicalExpr::RecordCtor(vec![
                ("u".into(), LogicalExpr::field(var(0), "id")),
                ("m".into(), LogicalExpr::field(var(1), "mid")),
            ]),
        )
    }

    /// The compiled job's description and its rows, which are the
    /// interpreter's.
    fn compile_and_run(
        plan: &LogicalOp,
        p: VecProvider,
        options: &OptimizerOptions,
    ) -> (String, Vec<Value>) {
        let prov: Arc<dyn MetadataProvider> = Arc::new(p);
        let fctx = FunctionContext::default();
        let ictx = EvalCtx::new(Arc::clone(&prov), fctx.clone());
        let interp =
            crate::interp::eval_subplan(plan, &std::collections::HashMap::new(), &ictx).unwrap();
        let compiled = compile(plan, prov, fctx, options).unwrap();
        let job = compiled.describe();
        let rows = sort_vals(compiled.run().unwrap());
        assert_eq!(rows, sort_vals(interp), "{job}");
        (job, rows)
    }

    fn u_id() -> LogicalExpr {
        LogicalExpr::field(var(0), "id")
    }

    fn m_author() -> LogicalExpr {
        LogicalExpr::field(var(1), "author")
    }

    #[test]
    fn estimates_follow_the_plan_bottom_up() {
        let p = vec_provider(100); // 100 users, 200 messages
        let rows = |op: &LogicalOp| estimated_rows(op, &p);
        assert_eq!(rows(&scan("M", 1)), Some(200));
        assert_eq!(rows(&few_users(3)), Some(10), "a select keeps a tenth, whatever it says");
        assert_eq!(rows(&select(few_users(3), lit(Value::Boolean(true)))), Some(1));
        assert_eq!(rows(&select(select(few_users(3), var(0)), var(0))), Some(1), "never zero");
        assert_eq!(rows(&pk_search(0, Some((3, true)), Some((3, true)))), Some(10));
        let limit = |count| LogicalOp::Limit { input: Box::new(scan("M", 1)), count, offset: 0 };
        assert_eq!((rows(&limit(7)), rows(&limit(700))), (Some(7), Some(200)));
        let aggs = || vec![AggCall { var: 2, func: AggFunc::Count, sql: false, input: var(1) }];
        assert_eq!(
            rows(&LogicalOp::Aggregate { input: Box::new(scan("M", 1)), aggs: aggs() }),
            Some(1)
        );
        let keys = vec![(3, m_author())];
        let group = LogicalOp::GroupBy { input: Box::new(scan("M", 1)), keys, aggs: aggs() };
        assert_eq!(rows(&assign(group, 4, var(3))), Some(200));
        // What cannot be sized: an unnest, a join, an uncounted dataset.
        let unnest = LogicalOp::Unnest {
            input: Box::new(scan("U", 0)),
            var: 5,
            expr: var(0),
            positional: None,
            outer: false,
        };
        assert_eq!(rows(&select(unnest, var(5))), None);
        assert_eq!(rows(&cross(scan("U", 0), scan("M", 1), var(0))), None);
        assert_eq!(rows(&scan("Nowhere", 0)), None);
        assert_eq!(estimated_rows(&scan("M", 1), &VecProvider { counts_rows: false, ..p }), None);
    }

    #[test]
    fn the_smaller_input_builds_whichever_is_written_first() {
        let options = OptimizerOptions::default();
        // Two users by estimate against forty messages.
        let users_first =
            join_plan(few_users(5), scan("M", 1), vec![(u_id(), m_author())], JoinKind::Inner);
        let messages_first =
            join_plan(scan("M", 1), few_users(5), vec![(m_author(), u_id())], JoinKind::Inner);
        let (job, rows) = compile_and_run(&users_first, vec_provider(20), &options);
        assert!(job.contains("hybrid-hash-join equi [build=left ~2, probe ~40]"), "{job}");
        assert_eq!(rows.len(), 10, "five users, two messages each");
        let (job, swapped) = compile_and_run(&messages_first, vec_provider(20), &options);
        assert!(job.contains("hybrid-hash-join equi [build=right ~2, probe ~40]"), "{job}");
        assert_eq!(swapped, rows);

        // Anything but "both sized, left smaller" keeps the order as
        // written: build = right. A left-outer join builds its smaller,
        // preserved left input like an inner one.
        let larger_left =
            join_plan(scan("M", 1), scan("U", 0), vec![(m_author(), u_id())], JoinKind::Inner);
        let unnested = LogicalOp::Unnest {
            input: Box::new(few_users(5)),
            var: 7,
            expr: LogicalExpr::ListCtor { ordered: true, items: vec![lit(Value::Int64(1))] },
            positional: None,
            outer: false,
        };
        let self_join = emit(
            LogicalOp::Join {
                left: Box::new(scan("U", 0)),
                right: Box::new(scan("U", 1)),
                left_keys: vec![u_id()],
                right_keys: vec![LogicalExpr::field(var(1), "id")],
                residual: None,
                kind: JoinKind::Inner,
                index_nl_hint: false,
            },
            u_id(),
        );
        let uncounted = VecProvider { counts_rows: false, ..vec_provider(20) };
        for (what, plan, p, sides) in [
            ("a tie", self_join, vec_provider(20), "[build=right ~20, probe ~20]"),
            ("the larger left", larger_left, vec_provider(30), "[build=right ~30, probe ~60]"),
            (
                "an unsized left",
                join_plan(unnested, scan("M", 1), vec![(u_id(), m_author())], JoinKind::Inner),
                vec_provider(20),
                "[build=right ~40, probe ~?]",
            ),
            ("uncounted datasets", users_first.clone(), uncounted, "[build=right ~?, probe ~?]"),
            (
                "a left-outer join",
                join_plan(
                    few_users(5),
                    scan("M", 1),
                    vec![(u_id(), m_author())],
                    JoinKind::LeftOuter,
                ),
                vec_provider(20),
                "[build=left ~2, probe ~40]",
            ),
        ] {
            let (job, _) = compile_and_run(&plan, p, &options);
            assert!(job.contains(&format!("hybrid-hash-join equi {sides}")), "{what}: {job}");
        }
    }

    #[test]
    fn the_partner_test_rides_into_a_probe_scan_keyed_by_one_field() {
        let options = OptimizerOptions::default();
        let inner = |left, right, keys| join_plan(left, right, keys, JoinKind::Inner);
        let pushed = "data-scan M [cols: author,mid] [filter: author in join #0]";
        let consult = "runtime-filter-probe #0";

        // A bare scan probing, on either side of the join as written.
        let users_first = inner(few_users(5), scan("M", 1), vec![(u_id(), m_author())]);
        let messages_first = inner(scan("M", 1), few_users(5), vec![(m_author(), u_id())]);
        for plan in [&users_first, &messages_first] {
            let (job, rows) = compile_and_run(plan, vec_provider(20), &options);
            assert!(job.contains(pushed) && job.contains(consult), "{job}");
            assert_eq!(rows.len(), 10);
        }
        // A scan under the select whose own conjuncts are pushed.
        let mid = LogicalExpr::field(var(1), "mid");
        let early = select(scan("M", 1), cmp(CompareOp::Lt, mid, lit(Value::Int64(30))));
        let plan = inner(few_users(5), early, vec![(u_id(), m_author())]);
        let (job, rows) = compile_and_run(&plan, vec_provider(20), &options);
        assert!(job.contains("[build=left ~2, probe ~4]"), "{job}");
        assert!(
            job.contains("data-scan M [cols: author,mid] [filter: mid<?, author in join #0]"),
            "{job}"
        );
        assert_eq!(rows.len(), 10, "messages 0-4 and 20-24, of users 0-4, are below 30");

        // Not pushed: the probe is no scan, the key is not one field of
        // the scanned record, or there is no filter to consult.
        let assigned = assign(scan("M", 1), 9, lit(Value::Int64(1)));
        let m_author_plus =
            LogicalExpr::Arith('+', Box::new(m_author()), Box::new(lit(Value::Int64(0))));
        let grp = LogicalExpr::field(var(0), "grp");
        for (what, plan, consulted) in [
            (
                "a probe that is not a scan",
                inner(few_users(5), assigned, vec![(u_id(), m_author())]),
                true,
            ),
            (
                "a computed key",
                inner(few_users(5), scan("M", 1), vec![(u_id(), m_author_plus)]),
                true,
            ),
            (
                "a composite key",
                inner(few_users(5), scan("M", 1), vec![(u_id(), m_author()), (grp, m_author())]),
                true,
            ),
            (
                "an outer join",
                join_plan(
                    scan("M", 1),
                    few_users(5),
                    vec![(m_author(), u_id())],
                    JoinKind::LeftOuter,
                ),
                false,
            ),
        ] {
            let (job, _) = compile_and_run(&plan, vec_provider(20), &options);
            assert!(!job.contains("in join"), "{what}: {job}");
            assert_eq!(job.contains(consult), consulted, "{what}: {job}");
        }
        let off = OptimizerOptions { enable_runtime_filters: false, ..Default::default() };
        let (job, rows) = compile_and_run(&users_first, vec_provider(20), &off);
        assert!(!job.contains("in join") && !job.contains(consult), "{job}");
        assert!(
            job.contains("[build=left ~2, probe ~40]"),
            "the build side is still chosen: {job}"
        );
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn memory_hungry_count_drives_budget_division() {
        // order-by over group-by: 1 sort + 2 hash-group tables.
        let plan = emit(
            LogicalOp::Order {
                input: Box::new(LogicalOp::GroupBy {
                    input: Box::new(scan("U", 0)),
                    keys: vec![(1, LogicalExpr::field(var(0), "grp"))],
                    aggs: vec![AggCall { var: 2, func: AggFunc::Count, sql: false, input: var(0) }],
                }),
                keys: vec![SortSpec { expr: var(1), descending: false }],
            },
            var(1),
        );
        assert_eq!(memory_hungry_ops(&plan), 3);
        // A hash join holds its build side in the grant's share; a theta
        // join, which never spills, takes none.
        let keyed =
            join_plan(scan("U", 0), scan("M", 1), vec![(u_id(), m_author())], JoinKind::Inner);
        assert_eq!(memory_hungry_ops(&keyed), 1);
        let theta = cross(scan("U", 0), scan("M", 1), lit(Value::Boolean(true)));
        assert_eq!(memory_hungry_ops(&theta), 0);

        // A compiled query under a tight grant still returns the same rows
        // as the unbudgeted plan (the grant only caps working memory).
        let prov = provider(70);
        let fctx = FunctionContext::default();
        let options = OptimizerOptions { query_mem_budget: Some(6 << 20), ..Default::default() };
        let optimized = optimize(plan, &prov, &fctx, &options);
        let compiled = compile(&optimized, prov, fctx, &options).unwrap();
        let out = compiled.run().unwrap();
        assert_eq!(out, (0..7).map(Value::Int64).collect::<Vec<_>>());
    }

    #[test]
    fn distinct_dedups_globally() {
        let plan = emit(
            LogicalOp::Distinct {
                input: Box::new(scan("U", 0)),
                exprs: vec![LogicalExpr::field(var(0), "grp")],
            },
            LogicalExpr::field(var(0), "grp"),
        );
        let (i, c) = run_both(plan, provider(70));
        assert_eq!(i.len(), 7);
        assert_eq!(c.len(), 7);
        assert_eq!(sort_vals(i), sort_vals(c));
    }

    /// The fields a read of `$v0` is asked for, `None` when it escapes.
    fn fields_read(plan: &LogicalOp) -> Option<Vec<String>> {
        match analyze_scan_uses(plan).remove(&0).unwrap() {
            VarUse::Fields(fields) => Some(fields.into_iter().collect()),
            VarUse::Escaped => None,
        }
    }

    fn agg(var: VarId, func: AggFunc, sql: bool, input: LogicalExpr) -> AggCall {
        AggCall { var, func, sql, input }
    }

    #[test]
    fn a_counted_record_needs_no_fields() {
        let counted = |input: LogicalOp, sql: bool| {
            let aggs = vec![agg(1, AggFunc::Count, sql, var(0))];
            emit(LogicalOp::Aggregate { input: Box::new(input), aggs }, var(1))
        };
        for sql in [false, true] {
            assert_eq!(fields_read(&counted(scan("U", 0), sql)), Some(vec![]));
        }
        let x_is_one = LogicalExpr::Compare(
            CompareOp::Eq,
            Box::new(LogicalExpr::field(var(0), "x")),
            Box::new(lit(Value::Int64(1))),
        );
        let filtered = counted(select(scan("U", 0), x_is_one), false);
        assert_eq!(fields_read(&filtered), Some(vec!["x".to_string()]));
        // Grouped by the whole record, which the query returns.
        let returned = emit(
            LogicalOp::GroupBy {
                input: Box::new(scan("U", 0)),
                keys: vec![(1, var(0))],
                aggs: vec![agg(2, AggFunc::Count, false, var(0))],
            },
            LogicalExpr::RecordCtor(vec![("m".into(), var(1)), ("n".into(), var(2))]),
        );
        assert_eq!(fields_read(&returned), None);
        // And the compiled count, which reads `[cols: none]`, counts every row.
        let prov = provider(30);
        let fctx = FunctionContext::default();
        let job = compile(&counted(scan("U", 0), false), prov.clone(), fctx, &Default::default())
            .unwrap();
        assert!(job.describe().contains("data-scan U [cols: none]"), "{}", job.describe());
        let thirty = vec![Value::Int64(30)];
        assert_eq!(run_both(counted(scan("U", 0), true), prov), (thirty.clone(), thirty));
    }

    #[test]
    fn every_other_aggregate_of_a_record_reads_all_of_it() {
        let summed = emit(
            LogicalOp::Aggregate {
                input: Box::new(scan("U", 0)),
                aggs: vec![agg(1, AggFunc::Sum, false, var(0))],
            },
            var(1),
        );
        assert_eq!(fields_read(&summed), None);
        let listified = emit(
            LogicalOp::GroupBy {
                input: Box::new(scan("U", 0)),
                keys: vec![(1, LogicalExpr::field(var(0), "grp"))],
                aggs: vec![agg(2, AggFunc::Listify, false, var(0))],
            },
            var(2),
        );
        assert_eq!(fields_read(&listified), None);
    }
}
