//! The rewrite rules (§4.2, §5.1).
//!
//! The paper is explicit that AsterixDB has no cost-based optimizer —
//! instead "a set of fairly sophisticated but safe rules [...] determine
//! the general shape of a physical query plan":
//!
//! * "(a) AsterixDB always chooses to use index-based access for selections
//!   if an index is available" — [`introduce_index_access`];
//! * "(b) it always chooses parallel hash-joins over other join techniques
//!   for equijoins" — [`extract_equijoins`], unless an `indexnl` hint
//!   overrides it (Query 14);
//! * constant folding, conjunction splitting, and select pushdown keep the
//!   plans normalized so the two rules above can fire;
//! * limits are **not** pushed into sorts (§5.3.2 calls this out as future
//!   work; a per-partition top-K was measured here and did not pay — see
//!   DESIGN.md "Known, documented simplifications").

use std::sync::Arc;

use asterix_adm::functions::FunctionContext;
use asterix_adm::Value;

use crate::expr::{eval, CompareOp, EvalCtx, LogicalExpr, QuantKind, VarId};
use crate::metadata::{IndexKind, MetadataProvider};
use crate::plan::{AggCall, AggFunc, IndexSearchSpec, JoinKind, LogicalOp};

/// Optimizer switches. Defaults match the paper's behavior; the non-default
/// settings exist for the "without index" runs of Table 3 and the
/// ablations.
#[derive(Debug, Clone)]
pub struct OptimizerOptions {
    /// Rule (a): use index access paths for selections when available.
    pub enable_index_access: bool,
    /// Avoid materializing group variables that are only aggregated:
    /// `group by ... with $m` + `count($m)` computes the count directly
    /// instead of listifying the group first. This is the improvement the
    /// §5.2 pilots drove into AsterixDB's second release; off = the
    /// first-release behavior (ablation).
    pub fuse_group_aggregates: bool,
    /// Publish a runtime filter from each hash join's build side and prune
    /// probe tuples against it before the probe exchange (every join but
    /// one whose probe side is outer). Needs a filter factory on the
    /// executor to take effect; with none injected the probe-side consult
    /// passes everything through.
    pub enable_runtime_filters: bool,
    /// Total working memory granted to this query by the workload manager.
    /// Job generation divides it across the plan's memory-hungry operators
    /// (sort, hash group, hash join); `None` keeps each operator's built-in
    /// default budget.
    pub query_mem_budget: Option<usize>,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            enable_index_access: true,
            fuse_group_aggregates: true,
            enable_runtime_filters: true,
            query_mem_budget: None,
        }
    }
}

/// Run the full rule pipeline.
pub fn optimize(
    plan: LogicalOp,
    provider: &Arc<dyn MetadataProvider>,
    fn_ctx: &FunctionContext,
    options: &OptimizerOptions,
) -> LogicalOp {
    let ctx = EvalCtx::new(Arc::clone(provider), fn_ctx.clone());
    let mut plan = normalize(fold_constants(plan, &ctx), provider, options);
    if options.enable_index_access {
        plan = introduce_index_access(plan, provider, fn_ctx);
    }
    // Recurse into subplans carried by expressions, then move each one
    // that reads a dataset into this plan, and normalize what that built.
    plan = optimize_subplans(plan, provider, fn_ctx, options);
    match decorrelate_subqueries(plan, provider) {
        (plan, true) => normalize(plan, provider, options),
        (plan, false) => plan,
    }
}

/// The normalization both passes of [`optimize`] run: fuse group
/// aggregates, split conjunctions, push selects down, extract equi-joins,
/// and merge select cascades so one decision sees every conjunct — both
/// bounds of a range land in one index search, or, without one, in the
/// scan's pre-filter.
fn normalize(
    mut plan: LogicalOp,
    provider: &Arc<dyn MetadataProvider>,
    options: &OptimizerOptions,
) -> LogicalOp {
    if options.fuse_group_aggregates {
        plan = fuse_group_aggregates(plan);
    }
    plan = split_conjunctions(plan);
    for _ in 0..8 {
        plan = push_selects_down(plan);
    }
    coalesce_selects(extract_equijoins(plan, provider))
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

fn fold_expr(e: LogicalExpr, ctx: &EvalCtx) -> LogicalExpr {
    fold_consts(e, ctx, false)
}

/// Fold a per-execution copy of an expression whose parameters `ctx`
/// binds: `datetime(?1)` becomes the constant it names for this execution,
/// and the plan the copy came from is left as it was.
pub(crate) fn fold_bound(e: LogicalExpr, ctx: &EvalCtx) -> LogicalExpr {
    fold_consts(e, ctx, true)
}

/// [`fold_expr`], parameters counted as constants when `bound`.
fn fold_consts(e: LogicalExpr, ctx: &EvalCtx, bound: bool) -> LogicalExpr {
    // Fold children first.
    let e = map_expr_children(e, &mut |c| fold_consts(c, ctx, bound));
    if !matches!(e, LogicalExpr::Const(_)) && e.is_foldable(bound) {
        if let Ok(v) = eval(&e, &std::collections::HashMap::new(), ctx) {
            return LogicalExpr::Const(v);
        }
    }
    e
}

/// Apply `f` to each direct child expression.
fn map_expr_children(
    e: LogicalExpr,
    f: &mut impl FnMut(LogicalExpr) -> LogicalExpr,
) -> LogicalExpr {
    match e {
        LogicalExpr::FieldAccess(b, n) => LogicalExpr::FieldAccess(Box::new(f(*b)), n),
        LogicalExpr::IndexAccess(a, b) => {
            LogicalExpr::IndexAccess(Box::new(f(*a)), Box::new(f(*b)))
        }
        LogicalExpr::Call(n, args) => LogicalExpr::Call(n, args.into_iter().map(f).collect()),
        LogicalExpr::Arith(op, a, b) => LogicalExpr::Arith(op, Box::new(f(*a)), Box::new(f(*b))),
        LogicalExpr::Neg(a) => LogicalExpr::Neg(Box::new(f(*a))),
        LogicalExpr::Compare(op, a, b) => {
            LogicalExpr::Compare(op, Box::new(f(*a)), Box::new(f(*b)))
        }
        LogicalExpr::And(es) => LogicalExpr::And(es.into_iter().map(f).collect()),
        LogicalExpr::Or(es) => LogicalExpr::Or(es.into_iter().map(f).collect()),
        LogicalExpr::Not(a) => LogicalExpr::Not(Box::new(f(*a))),
        LogicalExpr::RecordCtor(fs) => {
            LogicalExpr::RecordCtor(fs.into_iter().map(|(n, e)| (n, f(e))).collect())
        }
        LogicalExpr::ListCtor { ordered, items } => {
            LogicalExpr::ListCtor { ordered, items: items.into_iter().map(f).collect() }
        }
        LogicalExpr::Quantified { kind, var, collection, predicate } => LogicalExpr::Quantified {
            kind,
            var,
            collection: Box::new(f(*collection)),
            predicate: Box::new(f(*predicate)),
        },
        LogicalExpr::IfThenElse(c, t, e2) => {
            LogicalExpr::IfThenElse(Box::new(f(*c)), Box::new(f(*t)), Box::new(f(*e2)))
        }
        leaf @ (LogicalExpr::Const(_)
        | LogicalExpr::Var(_)
        | LogicalExpr::Subquery(_)
        | LogicalExpr::Param(_)) => leaf,
    }
}

fn map_op_exprs(op: LogicalOp, f: &mut impl FnMut(LogicalExpr) -> LogicalExpr) -> LogicalOp {
    match op {
        LogicalOp::Assign { input, var, expr } => LogicalOp::Assign { input, var, expr: f(expr) },
        LogicalOp::Select { input, condition } => {
            LogicalOp::Select { input, condition: f(condition) }
        }
        LogicalOp::Unnest { input, var, expr, positional, outer } => {
            LogicalOp::Unnest { input, var, expr: f(expr), positional, outer }
        }
        LogicalOp::Join { left, right, left_keys, right_keys, residual, kind, index_nl_hint } => {
            LogicalOp::Join {
                left,
                right,
                left_keys: left_keys.into_iter().map(&mut *f).collect(),
                right_keys: right_keys.into_iter().map(&mut *f).collect(),
                residual: residual.map(&mut *f),
                kind,
                index_nl_hint,
            }
        }
        LogicalOp::IndexNlJoin { left, dataset, index, spec, postcondition, var, kind } => {
            let postcondition = postcondition.map(&mut *f);
            LogicalOp::IndexNlJoin { left, dataset, index, spec, postcondition, var, kind }
        }
        LogicalOp::GroupBy { input, keys, aggs } => LogicalOp::GroupBy {
            input,
            keys: keys.into_iter().map(|(v, e)| (v, f(e))).collect(),
            aggs: aggs
                .into_iter()
                .map(|mut a| {
                    a.input = f(a.input);
                    a
                })
                .collect(),
        },
        LogicalOp::Aggregate { input, aggs } => LogicalOp::Aggregate {
            input,
            aggs: aggs
                .into_iter()
                .map(|mut a| {
                    a.input = f(a.input);
                    a
                })
                .collect(),
        },
        LogicalOp::Order { input, keys } => LogicalOp::Order {
            input,
            keys: keys
                .into_iter()
                .map(|mut k| {
                    k.expr = f(k.expr);
                    k
                })
                .collect(),
        },
        LogicalOp::Distinct { input, exprs } => {
            LogicalOp::Distinct { input, exprs: exprs.into_iter().map(&mut *f).collect() }
        }
        LogicalOp::Emit { input, expr } => LogicalOp::Emit { input, expr: f(expr) },
        other => other,
    }
}

/// Evaluate variable-free, clock-free expressions at compile time.
pub fn fold_constants(plan: LogicalOp, ctx: &EvalCtx) -> LogicalOp {
    plan.transform_up(&mut |op| map_op_exprs(op, &mut |e| fold_expr(e, ctx)))
}

// ---------------------------------------------------------------------------
// Conjunction splitting and select pushdown
// ---------------------------------------------------------------------------

fn conjuncts_of(e: LogicalExpr, out: &mut Vec<LogicalExpr>) {
    match e {
        LogicalExpr::And(es) => {
            for x in es {
                conjuncts_of(x, out);
            }
        }
        other => out.push(other),
    }
}

/// `Select(a AND b)` → `Select(a) over Select(b)`.
pub fn split_conjunctions(plan: LogicalOp) -> LogicalOp {
    plan.transform_up(&mut |op| {
        if let LogicalOp::Select { input, condition } = op {
            let mut cs = Vec::new();
            conjuncts_of(condition, &mut cs);
            let mut cur = *input;
            for c in cs {
                cur = LogicalOp::Select { input: Box::new(cur), condition: c };
            }
            cur
        } else {
            op
        }
    })
}

/// `Select(a) over Select(b)` → `Select(a AND b)` (inverse of
/// [`split_conjunctions`], used once selects are pushed down, before
/// access-path selection and job generation).
pub fn coalesce_selects(plan: LogicalOp) -> LogicalOp {
    plan.transform_up(&mut |op| {
        if let LogicalOp::Select { input, condition } = op {
            if let LogicalOp::Select { input: inner, condition: c2 } = *input {
                return LogicalOp::Select { input: inner, condition: and2(c2, condition) };
            }
            return LogicalOp::Select { input, condition };
        }
        op
    })
}

fn vars_subset(vars: &[VarId], bound: &[VarId]) -> bool {
    vars.iter().all(|v| bound.contains(v))
}

/// Push selects through joins (to the branch that binds their variables)
/// and below order/distinct.
pub fn push_selects_down(plan: LogicalOp) -> LogicalOp {
    plan.transform_up(&mut |op| {
        let LogicalOp::Select { input, condition } = op else { return op };
        match *input {
            join @ LogicalOp::Join { .. } => push_into_join(join, condition),
            LogicalOp::Order { input: oin, keys } => LogicalOp::Order {
                input: Box::new(LogicalOp::Select { input: oin, condition }),
                keys,
            },
            LogicalOp::Assign { input: ain, var, expr } => {
                let mut vars = Vec::new();
                condition.free_vars(&mut vars);
                if vars.contains(&var) {
                    LogicalOp::Select {
                        input: Box::new(LogicalOp::Assign { input: ain, var, expr }),
                        condition,
                    }
                } else {
                    LogicalOp::Assign {
                        input: Box::new(LogicalOp::Select { input: ain, condition }),
                        var,
                        expr,
                    }
                }
            }
            other => LogicalOp::Select { input: Box::new(other), condition },
        }
    })
}

/// A select over `join`: onto the input that binds its variables — the
/// right one of an inner join only — or else, for an inner join, into the
/// residual, where equijoin extraction sees it.
fn push_into_join(mut join: LogicalOp, condition: LogicalExpr) -> LogicalOp {
    let LogicalOp::Join { left, right, residual, kind, .. } = &mut join else {
        unreachable!("push_into_join takes a join")
    };
    let mut vars = Vec::new();
    condition.free_vars(&mut vars);
    let inner = *kind == JoinKind::Inner;
    let side = if vars_subset(&vars, &left.bound_vars()) {
        left
    } else if inner && vars_subset(&vars, &right.bound_vars()) {
        right
    } else if inner {
        *residual = Some(conjoin(residual.take(), condition));
        return join;
    } else {
        return LogicalOp::Select { input: Box::new(join), condition };
    };
    let input = std::mem::replace(side.as_mut(), LogicalOp::EmptyTupleSource);
    **side = LogicalOp::Select { input: Box::new(input), condition };
    join
}

/// `condition`, after `residual` when there is one.
fn conjoin(residual: Option<LogicalExpr>, condition: LogicalExpr) -> LogicalExpr {
    match residual {
        Some(r) => and2(r, condition),
        None => condition,
    }
}

fn and2(a: LogicalExpr, b: LogicalExpr) -> LogicalExpr {
    match a {
        LogicalExpr::Const(Value::Boolean(true)) => b,
        LogicalExpr::And(mut es) => {
            es.push(b);
            LogicalExpr::And(es)
        }
        other => LogicalExpr::And(vec![other, b]),
    }
}

// ---------------------------------------------------------------------------
// Equijoin extraction ("always hash-join equijoins")
// ---------------------------------------------------------------------------

/// Move the equality conjuncts of a join's residual that split cleanly
/// across its inputs into its keys — a join of any kind — the other
/// conjuncts staying its residual, which the join decides before a pair
/// matches; honors the `indexnl` hint by producing an `IndexNlJoin` when
/// the join's one key is a B-tree-indexed field of a dataset scanned on
/// the inner side — a bare scan, or (inner joins) one under pushed-down
/// selects, which then move above the join.
pub fn extract_equijoins(plan: LogicalOp, provider: &Arc<dyn MetadataProvider>) -> LogicalOp {
    plan.transform_up(&mut |op| {
        let LogicalOp::Join {
            left,
            right,
            mut left_keys,
            mut right_keys,
            residual: Some(condition),
            kind,
            index_nl_hint,
        } = op
        else {
            return op;
        };
        let mut cs = Vec::new();
        conjuncts_of(condition, &mut cs);
        let lb = left.bound_vars();
        let rb = right.bound_vars();
        let keyed = left_keys.len();
        let mut residual = Vec::new();
        for c in cs {
            if let LogicalExpr::Compare(CompareOp::Eq, a, b) = &c {
                let mut av = Vec::new();
                let mut bv = Vec::new();
                a.free_vars(&mut av);
                b.free_vars(&mut bv);
                if !av.is_empty()
                    && !bv.is_empty()
                    && vars_subset(&av, &lb)
                    && vars_subset(&bv, &rb)
                {
                    left_keys.push((**a).clone());
                    right_keys.push((**b).clone());
                    continue;
                }
                if !av.is_empty()
                    && !bv.is_empty()
                    && vars_subset(&av, &rb)
                    && vars_subset(&bv, &lb)
                {
                    left_keys.push((**b).clone());
                    right_keys.push((**a).clone());
                    continue;
                }
            }
            residual.push(c);
        }
        let residual = residual.into_iter().reduce(and2);

        // `indexnl` hint, as the join's first key is extracted: if the right
        // side is a dataset scan and the right key is a B-tree-indexed field
        // of it, use the index. Selects pushed down onto the scan are peeled
        // off and re-applied above the join — inner joins only: above a
        // left-outer join they would drop the padded rows.
        if index_nl_hint && keyed == 0 && left_keys.len() == 1 {
            let mut peeled = Vec::new();
            let mut inner = right.as_ref();
            while let (LogicalOp::Select { input, condition }, JoinKind::Inner) = (inner, kind) {
                peeled.push(condition.clone());
                inner = input;
            }
            if let LogicalOp::DataSourceScan { dataset, var } = inner {
                if let Some(field) = field_of(&right_keys[0], *var) {
                    if let Some(ix) = find_btree_index(provider, dataset, &field) {
                        let key = left_keys.into_iter().next().unwrap();
                        let out = LogicalOp::IndexNlJoin {
                            left,
                            dataset: dataset.clone(),
                            index: ix,
                            spec: IndexSearchSpec::BTreeRange {
                                lo: Some((key.clone(), true)),
                                hi: Some((key, true)),
                            },
                            postcondition: None,
                            var: *var,
                            kind,
                        };
                        // Innermost select first, as the cascade applied them.
                        return match peeled.into_iter().rev().chain(residual).reduce(and2) {
                            Some(c) => LogicalOp::Select { input: Box::new(out), condition: c },
                            None => out,
                        };
                    }
                }
            }
        }
        LogicalOp::Join { left, right, left_keys, right_keys, residual, kind, index_nl_hint }
    })
}

/// If `e` is `field-access chain over Var(var)`, return the dotted path.
fn field_of(e: &LogicalExpr, var: VarId) -> Option<String> {
    match e {
        LogicalExpr::FieldAccess(base, name) => match base.as_ref() {
            LogicalExpr::Var(v) if *v == var => Some(name.clone()),
            inner @ LogicalExpr::FieldAccess(..) => {
                field_of(inner, var).map(|p| format!("{p}.{name}"))
            }
            _ => None,
        },
        _ => None,
    }
}

fn find_btree_index(
    provider: &Arc<dyn MetadataProvider>,
    dataset: &str,
    field: &str,
) -> Option<String> {
    provider
        .indexes(dataset)
        .into_iter()
        .find(|i| i.kind == IndexKind::BTree && i.fields.first().is_some_and(|f| f == field))
        .map(|i| i.name)
}

// ---------------------------------------------------------------------------
// Index access-path introduction (Figure 6's shape)
// ---------------------------------------------------------------------------

struct RangeAcc {
    lo: Option<(LogicalExpr, bool)>,
    hi: Option<(LogicalExpr, bool)>,
    used: Vec<LogicalExpr>,
}

/// Replace `Select* over DataSourceScan` with an index search — the index
/// access over the empty tuple source — when one of the select conditions
/// is sargable against the primary key or a secondary index. The consumed
/// conditions become the search's postcondition — the §4.4 post-validation
/// select that Figure 6 shows above the primary-index search.
pub fn introduce_index_access(
    plan: LogicalOp,
    provider: &Arc<dyn MetadataProvider>,
    _fn_ctx: &FunctionContext,
) -> LogicalOp {
    plan.transform_up(&mut |op| try_index_access(op, provider))
}

fn try_index_access(op: LogicalOp, provider: &Arc<dyn MetadataProvider>) -> LogicalOp {
    // Gather the select cascade above a scan.
    let mut conditions: Vec<LogicalExpr> = Vec::new();
    let mut cur = &op;
    loop {
        match cur {
            LogicalOp::Select { input, condition } => {
                conjuncts_of(condition.clone(), &mut conditions);
                cur = input;
            }
            LogicalOp::DataSourceScan { dataset, var } => {
                if conditions.is_empty() {
                    return op;
                }
                let dataset = dataset.clone();
                let var = *var;
                if let Some(new_op) = build_access_path(&dataset, var, &conditions, provider) {
                    return new_op;
                }
                return op;
            }
            _ => return op,
        }
    }
}

fn build_access_path(
    dataset: &str,
    var: VarId,
    conditions: &[LogicalExpr],
    provider: &Arc<dyn MetadataProvider>,
) -> Option<LogicalOp> {
    let pk_fields = provider.primary_key_fields(dataset);
    let indexes = provider.indexes(dataset);

    // 1. Primary-key ranges (record lookup / pk range scan).
    if let Some(pk) = pk_fields.first() {
        if let Some(acc) = collect_range(conditions, var, pk) {
            return Some(finish_search(
                dataset,
                "",
                var,
                IndexSearchSpec::PrimaryRange { lo: acc.lo, hi: acc.hi },
                conditions,
                &acc.used,
            ));
        }
    }

    // 2. Secondary B-tree ranges: an equality first, then a two-sided
    //    range, then a one-sided one; catalog order among equals.
    let narrowness = |acc: &RangeAcc| {
        let equality =
            acc.used.iter().any(|c| matches!(c, LogicalExpr::Compare(CompareOp::Eq, ..)));
        if equality {
            0
        } else {
            2 - usize::from(acc.lo.is_some() && acc.hi.is_some())
        }
    };
    let btree = indexes.iter().filter(|i| i.kind == IndexKind::BTree).filter_map(|ix| {
        let acc = collect_range(conditions, var, ix.fields.first()?)?;
        Some((ix, acc))
    });
    if let Some((ix, acc)) = btree.min_by_key(|(_, acc)| narrowness(acc)) {
        return Some(finish_search(
            dataset,
            &ix.name,
            var,
            IndexSearchSpec::BTreeRange { lo: acc.lo, hi: acc.hi },
            conditions,
            &acc.used,
        ));
    }

    // 3. R-tree spatial predicates.
    for ix in indexes.iter().filter(|i| i.kind == IndexKind::RTree) {
        let Some(field) = ix.fields.first() else { continue };
        for c in conditions {
            if let Some(query) = spatial_query_of(c, var, field) {
                return Some(finish_search(
                    dataset,
                    &ix.name,
                    var,
                    IndexSearchSpec::RTree { query },
                    conditions,
                    std::slice::from_ref(c),
                ));
            }
        }
    }

    // 4. N-gram fuzzy predicates: edit-distance-check(field, needle, k) or
    //    contains-style checks produced by the fuzzy-eq lowering.
    for ix in indexes.iter() {
        let IndexKind::NGram(_) = ix.kind else { continue };
        let Some(field) = ix.fields.first() else { continue };
        for c in conditions {
            if let Some((needle, ed)) = fuzzy_pred_of(c, var, field) {
                return Some(finish_search(
                    dataset,
                    &ix.name,
                    var,
                    IndexSearchSpec::InvertedFuzzy { needle, edit_distance: ed },
                    conditions,
                    std::slice::from_ref(c),
                ));
            }
        }
    }

    // 5. Keyword indexes: `some $w in word-tokens(field) satisfies $w = S`.
    for ix in indexes.iter().filter(|i| i.kind == IndexKind::Keyword) {
        let Some(field) = ix.fields.first() else { continue };
        for c in conditions {
            if let Some(needle) = keyword_pred_of(c, var, field) {
                return Some(finish_search(
                    dataset,
                    &ix.name,
                    var,
                    IndexSearchSpec::InvertedConjunctive { needle },
                    conditions,
                    std::slice::from_ref(c),
                ));
            }
        }
    }

    None
}

/// Build the index search and re-apply unused conditions as selects above.
fn finish_search(
    dataset: &str,
    index: &str,
    var: VarId,
    spec: IndexSearchSpec,
    all_conditions: &[LogicalExpr],
    used: &[LogicalExpr],
) -> LogicalOp {
    let post = used.iter().cloned().reduce(and2);
    let mut out = crate::plan::build::index_search(dataset, index, var, spec, post);
    for c in all_conditions {
        let consumed = used.iter().any(|u| expr_eq_shallow(u, c));
        if !consumed {
            out = LogicalOp::Select { input: Box::new(out), condition: c.clone() };
        }
    }
    out
}

/// Structural equality good enough to match conditions we cloned ourselves.
fn expr_eq_shallow(a: &LogicalExpr, b: &LogicalExpr) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Collect range bounds on `var.field` from comparison conditions whose
/// other side does not depend on `var`.
fn collect_range(conditions: &[LogicalExpr], var: VarId, field: &str) -> Option<RangeAcc> {
    let mut acc = RangeAcc { lo: None, hi: None, used: Vec::new() };
    for c in conditions {
        let LogicalExpr::Compare(op, a, b) = c else { continue };
        // Normalize to field CMP bound.
        let (cmp, bound) = if field_of(a, var).as_deref() == Some(field) {
            let mut bv = Vec::new();
            b.free_vars(&mut bv);
            if bv.contains(&var) {
                continue;
            }
            (*op, (**b).clone())
        } else if field_of(b, var).as_deref() == Some(field) {
            let mut av = Vec::new();
            a.free_vars(&mut av);
            if av.contains(&var) {
                continue;
            }
            let flipped = match op {
                CompareOp::Lt => CompareOp::Gt,
                CompareOp::Le => CompareOp::Ge,
                CompareOp::Gt => CompareOp::Lt,
                CompareOp::Ge => CompareOp::Le,
                other => *other,
            };
            (flipped, (**a).clone())
        } else {
            continue;
        };
        match cmp {
            CompareOp::Eq => {
                acc.lo = Some((bound.clone(), true));
                acc.hi = Some((bound, true));
                acc.used.push(c.clone());
            }
            CompareOp::Ge if acc.lo.is_none() => {
                acc.lo = Some((bound, true));
                acc.used.push(c.clone());
            }
            CompareOp::Gt if acc.lo.is_none() => {
                acc.lo = Some((bound, false));
                acc.used.push(c.clone());
            }
            CompareOp::Le if acc.hi.is_none() => {
                acc.hi = Some((bound, true));
                acc.used.push(c.clone());
            }
            CompareOp::Lt if acc.hi.is_none() => {
                acc.hi = Some((bound, false));
                acc.used.push(c.clone());
            }
            _ => {}
        }
        if acc.lo.is_some() && acc.hi.is_some() {
            break;
        }
    }
    if acc.used.is_empty() {
        None
    } else {
        Some(acc)
    }
}

/// Match `spatial-intersect($v.field, Q)` (either side) or
/// `spatial-distance($v.field, P) <= r`, returning the window expression.
fn spatial_query_of(c: &LogicalExpr, var: VarId, field: &str) -> Option<LogicalExpr> {
    match c {
        LogicalExpr::Call(name, args) if name == "spatial-intersect" && args.len() == 2 => {
            if field_of(&args[0], var).as_deref() == Some(field) {
                Some(args[1].clone())
            } else if field_of(&args[1], var).as_deref() == Some(field) {
                Some(args[0].clone())
            } else {
                None
            }
        }
        LogicalExpr::Compare(CompareOp::Le | CompareOp::Lt, a, b) => {
            let LogicalExpr::Call(name, args) = a.as_ref() else { return None };
            if name != "spatial-distance" || args.len() != 2 {
                return None;
            }
            let center = if field_of(&args[0], var).as_deref() == Some(field) {
                args[1].clone()
            } else if field_of(&args[1], var).as_deref() == Some(field) {
                args[0].clone()
            } else {
                return None;
            };
            let mut bv = Vec::new();
            b.free_vars(&mut bv);
            if bv.contains(&var) {
                return None;
            }
            // Window = circle(center, r); its MBR is used by the R-tree and
            // the original distance predicate is re-checked as the
            // postcondition.
            Some(LogicalExpr::call("create-circle", vec![center, (**b).clone()]))
        }
        _ => None,
    }
}

/// Match `~=` / `edit-distance-check(field, needle, k)[0]`-shaped fuzzy
/// predicates produced by the AQL fuzzy lowering, returning (needle, ed).
fn fuzzy_pred_of(c: &LogicalExpr, var: VarId, field: &str) -> Option<(LogicalExpr, usize)> {
    if let LogicalExpr::Call(name, args) = c {
        if name == "edit-distance-ok" && args.len() == 3 {
            // Internal marker emitted by the translator for `~=` under
            // edit-distance semantics: edit-distance-ok(a, b, k).
            let (fa, fb) = (field_of(&args[0], var), field_of(&args[1], var));
            let ed = match &args[2] {
                LogicalExpr::Const(v) => v.as_i64()? as usize,
                _ => return None,
            };
            if fa.as_deref() == Some(field) {
                let mut bv = Vec::new();
                args[1].free_vars(&mut bv);
                if !bv.contains(&var) {
                    return Some((args[1].clone(), ed));
                }
            }
            if fb.as_deref() == Some(field) {
                let mut av = Vec::new();
                args[0].free_vars(&mut av);
                if !av.contains(&var) {
                    return Some((args[0].clone(), ed));
                }
            }
        }
    }
    None
}

/// Match `some $w in word-tokens($v.field) satisfies $w = <needle>` — the
/// Query 6 shape — where needle is var-independent.
fn keyword_pred_of(c: &LogicalExpr, var: VarId, field: &str) -> Option<LogicalExpr> {
    let LogicalExpr::Quantified { kind: QuantKind::Some, var: w, collection, predicate } = c else {
        return None;
    };
    let LogicalExpr::Call(fname, fargs) = collection.as_ref() else { return None };
    if fname != "word-tokens" || fargs.len() != 1 {
        return None;
    }
    if field_of(&fargs[0], var).as_deref() != Some(field) {
        return None;
    }
    let LogicalExpr::Compare(CompareOp::Eq, a, b) = predicate.as_ref() else { return None };
    let needle = match (a.as_ref(), b.as_ref()) {
        (LogicalExpr::Var(v), other) if *v == *w => other.clone(),
        (other, LogicalExpr::Var(v)) if *v == *w => other.clone(),
        _ => return None,
    };
    let mut nv = Vec::new();
    needle.free_vars(&mut nv);
    if nv.contains(&var) || nv.contains(w) {
        return None;
    }
    Some(needle)
}

// ---------------------------------------------------------------------------
// Group-materialization avoidance (§5.2 lesson)
// ---------------------------------------------------------------------------

/// Fuse every aggregate over a group variable into the `GroupBy` that
/// binds it: `agg(for $x in $g return e)` whose subquery only unnests
/// `$g`, and `count($g)` or an `sql-` aggregate of `$g`, become aggregate
/// variables of the `GroupBy` — wherever they sit above it: a `let`, the
/// `return`, an `order by` key, a `where` after the group. The listify is
/// dropped, so no group member list is materialized only to be counted or
/// summed — the §5.2 materialization lesson. A group variable with any
/// other use keeps its listify beside the fused aggregates.
pub fn fuse_group_aggregates(plan: LogicalOp) -> LogicalOp {
    use std::collections::HashMap;

    // Pass 1: listify vars and their members.
    let mut members: HashMap<VarId, GroupMember> = HashMap::new();
    fn walk(op: &LogicalOp, f: &mut impl FnMut(&LogicalOp)) {
        f(op);
        for i in op.inputs() {
            walk(i, f);
        }
    }
    walk(&plan, &mut |op| {
        if let LogicalOp::GroupBy { input, aggs, .. } = op {
            for a in aggs.iter().filter(|a| a.func == AggFunc::Listify) {
                let record = matches!(a.input, LogicalExpr::Var(v) if binds_record(input, v));
                members.insert(a.var, GroupMember { expr: a.input.clone(), record });
            }
        }
    });
    if members.is_empty() {
        return plan;
    }

    // Pass 2: replace each fused call by a fresh variable — a `let` of
    // exactly one keeps its own — collecting the aggregates it stands for.
    let mut next_var = plan.max_var().map_or(0, |v| v + 1);
    let mut fused: Vec<(VarId, AggCall)> = Vec::new();
    let plan = plan.transform_up(&mut |op| match op {
        LogicalOp::Assign { input, var, expr } => match group_aggregate(&expr, &members, var) {
            Some(agg) => {
                fused.push(agg);
                *input // the aggregate is now computed by the GroupBy
            }
            None => LogicalOp::Assign {
                input,
                var,
                expr: fuse_calls(expr, &members, &mut next_var, &mut fused),
            },
        },
        op => map_op_exprs(op, &mut |e| fuse_calls(e, &members, &mut next_var, &mut fused)),
    });

    // Pass 3: a listify var the rewritten plan still names has another use.
    let mut named: Vec<VarId> = Vec::new();
    walk(&plan, &mut |op| op.for_each_expr(&mut |e| e.free_vars(&mut named)));

    // Pass 4: each listify gains the aggregates fused over it, and goes
    // when nothing else names it.
    plan.transform_up(&mut |op| match op {
        LogicalOp::GroupBy { input, keys, aggs } => {
            let aggs = aggs
                .into_iter()
                .flat_map(|a| {
                    let g = a.var;
                    let over_a = fused.iter().filter(move |f| f.0 == g).map(|(_, f)| f.clone());
                    let keep = !members.contains_key(&g) || named.contains(&g);
                    keep.then_some(a).into_iter().chain(over_a).collect::<Vec<_>>()
                })
                .collect();
            LogicalOp::GroupBy { input, keys, aggs }
        }
        other => other,
    })
}

/// What a listify collects: `expr` for each group row, leaving out the
/// missing ones; `record` when `expr` is a variable a dataset read binds,
/// which is never missing.
struct GroupMember {
    expr: LogicalExpr,
    record: bool,
}

/// Whether a scan or an index access under `op` binds `v` to the records
/// it reads.
fn binds_record(op: &LogicalOp, v: VarId) -> bool {
    let binds = match op {
        LogicalOp::DataSourceScan { var, .. } | LogicalOp::IndexNlJoin { var, .. } => *var == v,
        _ => false,
    };
    binds || op.inputs().into_iter().any(|i| binds_record(i, v))
}

/// `e` with every fusable aggregate over a listify var of `members`
/// replaced by a fresh variable from `next_var`; `fused` gets each
/// replaced call as (listify var, aggregate).
fn fuse_calls(
    e: LogicalExpr,
    members: &std::collections::HashMap<VarId, GroupMember>,
    next_var: &mut VarId,
    fused: &mut Vec<(VarId, AggCall)>,
) -> LogicalExpr {
    if let Some(agg) = group_aggregate(&e, members, *next_var) {
        fused.push(agg);
        *next_var += 1;
        return LogicalExpr::Var(*next_var - 1);
    }
    map_expr_children(e, &mut |c| fuse_calls(c, members, next_var, fused))
}

/// The aggregate, bound to `var`, that the `GroupBy` binding listify var
/// `g` can compute in place of the call `e`, with `g`. `count($g)` or an
/// `sql-` aggregate of `$g` aggregates the listify's member expression;
/// `agg(for $x in $g return e)` — no `where`, `order`, positional variable
/// or outer unnest, and `e` naming no variable but `$x`, nor `$x` inside a
/// subquery — aggregates `e` with the member in place of `$x`.
///
/// The list leaves out missing members. Fused, a missing member gives a
/// missing input instead, which `count` and the `sql-` aggregates skip but
/// an AQL `sum`, `min`, `max` or `avg` is poisoned by; so those fuse only
/// over records, which are never missing.
fn group_aggregate(
    e: &LogicalExpr,
    members: &std::collections::HashMap<VarId, GroupMember>,
    var: VarId,
) -> Option<(VarId, AggCall)> {
    let LogicalExpr::Call(name, args) = e else { return None };
    let (func, sql) = AggFunc::from_name(name)?;
    let skips_missing = func == AggFunc::Count || sql;
    let (g, input) = match args.as_slice() {
        [LogicalExpr::Var(g)] if skips_missing => (*g, members.get(g)?.expr.clone()),
        [LogicalExpr::Subquery(sub)] => {
            let LogicalOp::Emit { input, expr } = sub.as_ref() else { return None };
            let LogicalOp::Unnest {
                input,
                var: x,
                expr: LogicalExpr::Var(g),
                positional: None,
                outer: false,
            } = input.as_ref()
            else {
                return None;
            };
            if !matches!(input.as_ref(), LogicalOp::EmptyTupleSource) {
                return None;
            }
            let member = members.get(g)?;
            let each = substitute(expr.clone(), *x, &member.expr)?;
            let input = if member.record {
                each
            } else if skips_missing {
                // if is-missing(member) then missing else each
                LogicalExpr::IfThenElse(
                    Box::new(LogicalExpr::call("is-missing", vec![member.expr.clone()])),
                    Box::new(LogicalExpr::Const(Value::Missing)),
                    Box::new(each),
                )
            } else {
                return None;
            };
            (*g, input)
        }
        _ => return None,
    };
    Some((g, AggCall { var, func, sql, input }))
}

/// `e` with variable `x` replaced by `by`; `None` when `e` names another
/// variable, or names `x` inside a subquery.
fn substitute(e: LogicalExpr, x: VarId, by: &LogicalExpr) -> Option<LogicalExpr> {
    let mut vars = Vec::new();
    e.free_vars(&mut vars);
    if vars.iter().any(|v| *v != x) {
        return None;
    }
    let mut in_subquery = false;
    fn go(e: LogicalExpr, x: VarId, by: &LogicalExpr, in_subquery: &mut bool) -> LogicalExpr {
        match e {
            LogicalExpr::Var(v) if v == x => by.clone(),
            LogicalExpr::Subquery(_) => {
                let mut vars = Vec::new();
                e.free_vars(&mut vars);
                *in_subquery |= vars.contains(&x);
                e
            }
            e => map_expr_children(e, &mut |c| go(c, x, by, in_subquery)),
        }
    }
    let out = go(e, x, by, &mut in_subquery);
    (!in_subquery).then_some(out)
}

// ---------------------------------------------------------------------------
// Decorrelation: a subquery that reads a dataset joins the enclosing plan
// ---------------------------------------------------------------------------

/// Move every subquery that reads a dataset into the plan around it, so
/// its reads run in the Hyracks job and not, once per outer tuple, in the
/// expression evaluator. Subqueries are optimized — and decorrelated —
/// before this runs, so a correlated select has become an index search
/// whose spec names outer variables. For the operator whose input `I`
/// the subquery `Emit(B, e)` sits over:
///
/// * `for $x in <subquery>` joins `I` with `B` and assigns `e` to `$x`;
/// * `where some $x in <subquery> satisfies p`, with `B` a dataset branch
///   under selects, is a semi-join of `I` with that branch on the selects'
///   conditions and `p`;
/// * a subquery that names no variable of `I` is a one-row `Aggregate` of
///   `B`, joined to `I` unless `I` is the empty tuple source;
/// * any other is a left-outer join of `I`, keyed by a row key, with `B`,
///   then a group-by on the row key that carries the variables of `I` and
///   aggregates `e`: a listify for the list, the aggregate for an
///   aggregate's argument, a count for a quantifier. Each row the join
///   only padded has a guard that makes its input missing, so it adds
///   nothing: `[]`, a count of 0, an aggregate's answer over `[]`. The
///   join reads `I` once, whichever of its inputs is the smaller: the hash
///   join lets either side of an outer or semi join build.
///
/// The blocking operators of `B` above a correlated one — an inner
/// `order by`, `limit`, group-by, `distinct`, aggregate — run per outer
/// row as a dataset-free subplan over the group's list. Returns the plan
/// and whether it moved any subquery. One it cannot move stays, and job
/// generation refuses the plan.
pub fn decorrelate_subqueries(
    mut plan: LogicalOp,
    provider: &Arc<dyn MetadataProvider>,
) -> (LogicalOp, bool) {
    let mut moved = false;
    while plan.has_dataset_subquery() {
        let mut used = Vec::new();
        plan.collect_expr_vars(&mut used);
        let mut cx = Decorrelation {
            provider: provider.as_ref(),
            next_var: plan.max_var().map_or(0, |v| v + 1),
            used,
            outer: Vec::new(),
            state: None,
        };
        plan = plan.transform_up(&mut |op| if cx.state.is_some() { op } else { cx.op(op) });
        match cx.state {
            Some(true) => moved = true,
            _ => break,
        }
    }
    (plan, moved)
}

/// How the subquery's answer is used where it sits.
enum SubqueryUse {
    /// As the list of its emitted values.
    List,
    /// As the one argument of an aggregate function.
    Agg(AggFunc, bool),
    /// As a quantifier's collection: `kind $var in … satisfies pred`.
    Quant(QuantKind, VarId, LogicalExpr),
}

/// One pass: moves the first subquery it can, bottom-up.
struct Decorrelation<'a> {
    provider: &'a dyn MetadataProvider,
    next_var: VarId,
    /// Every variable an expression of the plan names.
    used: Vec<VarId>,
    /// The variables the input of the operator being rewritten binds.
    outer: Vec<VarId>,
    /// `Some(true)` once a subquery moved, `Some(false)` when one could not.
    state: Option<bool>,
}

/// What [`Decorrelation::apply`] built: the joined operator, the guards
/// that mark a row no member of the subquery's answer (a padded row, a
/// row a select above the join rejects), and whether a condition can
/// still fold into the join it just made.
struct Applied {
    op: LogicalOp,
    guards: Vec<LogicalExpr>,
    fresh: bool,
}

impl Decorrelation<'_> {
    fn fresh(&mut self) -> VarId {
        self.next_var += 1;
        self.next_var - 1
    }

    fn correlated(&self, op: &LogicalOp) -> bool {
        let mut free = Vec::new();
        op.free_vars(&mut free);
        free.iter().any(|v| self.outer.contains(v))
    }

    fn op(&mut self, mut op: LogicalOp) -> LogicalOp {
        // A condition pushed into an inner join applies above it.
        if let LogicalOp::Join { residual, kind: JoinKind::Inner, .. } = &mut op {
            if let Some(condition) = residual.take_if(|c| c.reads_dataset()) {
                op = LogicalOp::Select { input: Box::new(op), condition };
            }
        }
        let Some(input) = unary_input(&mut op) else { return op };
        self.outer = visible_vars(input);
        let moved = match &op {
            LogicalOp::Unnest {
                input,
                var,
                expr: LogicalExpr::Subquery(sub),
                positional: None,
                outer: false,
            } if sub.reads_dataset() => self.unnest_join(input, *var, sub),
            LogicalOp::Select { input, condition } => self.semi_join(input, condition),
            _ => None,
        };
        if let Some(moved) = moved {
            self.state = Some(true);
            return moved;
        }
        let r = self.fresh();
        let mut found = None;
        let rewritten = map_op_exprs(op.clone(), &mut |e| take_subquery(e, r, &mut found));
        let Some((usage, sub)) = found else { return op };
        let mut rewritten = rewritten;
        let slot = unary_input(&mut rewritten).expect("the same operator");
        match self.decorrelate(slot, &sub, usage, r) {
            Some(input) => {
                *slot = input;
                self.state = Some(true);
                rewritten
            }
            None => {
                self.state = Some(false);
                op
            }
        }
    }

    /// `for $x in Emit(B, e)` over `input`: `input` joined with `B`, and
    /// `$x := e`. `None` when a blocking operator of `B` needs the list.
    fn unnest_join(&mut self, input: &LogicalOp, var: VarId, sub: &LogicalOp) -> Option<LogicalOp> {
        let LogicalOp::Emit { input: body, expr } = sub else { return None };
        let joined = if !self.correlated(sub) {
            cross_join(input.clone(), (**body).clone(), JoinKind::Inner)
        } else if split_blocking(body, &|op| self.correlated(op)).is_some() {
            return None;
        } else {
            self.apply(input.clone(), body, JoinKind::Inner)?.op
        };
        Some(LogicalOp::Assign { input: Box::new(joined), var, expr: expr.clone() })
    }

    /// A `some $x in Emit(B, e) satisfies p` conjunct of a select over
    /// `input`, `B` a dataset branch under selects that names no variable
    /// of `input`: a semi-join of `input` with the branch on the selects'
    /// conditions and `p` of `e`, those that name only the branch's
    /// variables filtering the branch below the join (`fold`).
    fn semi_join(&mut self, input: &LogicalOp, condition: &LogicalExpr) -> Option<LogicalOp> {
        let mut conjuncts = Vec::new();
        conjuncts_of(condition.clone(), &mut conjuncts);
        let at = conjuncts.iter().position(|c| {
            matches!(c, LogicalExpr::Quantified { kind: QuantKind::Some, collection, .. }
                if matches!(collection.as_ref(), LogicalExpr::Subquery(s) if s.reads_dataset()))
        })?;
        let LogicalExpr::Quantified { var, collection, predicate, .. } = &conjuncts[at] else {
            unreachable!()
        };
        let LogicalExpr::Subquery(sub) = collection.as_ref() else { unreachable!() };
        let LogicalOp::Emit { input: body, expr } = sub.as_ref() else { return None };
        let mut branch = body.as_ref();
        let mut on = vec![subst_var(predicate.as_ref().clone(), *var, expr)];
        while let LogicalOp::Select { input, condition } = branch {
            on.push(condition.clone());
            branch = input;
        }
        if self.correlated(branch) || !branch.reads_dataset() {
            return None;
        }
        let mut semi =
            crate::plan::build::join(input.clone(), branch.clone(), None, JoinKind::Semi);
        fold(&mut semi, on.into_iter().rev().reduce(and2).expect("one condition"));
        conjuncts.remove(at);
        Some(match conjuncts.into_iter().reduce(and2) {
            Some(rest) => LogicalOp::Select { input: Box::new(semi), condition: rest },
            None => semi,
        })
    }

    /// `input` extended with a variable `r` that holds what `usage` makes
    /// of the subquery `sub`'s answer for each of its rows.
    fn decorrelate(
        &mut self,
        input: &LogicalOp,
        sub: &LogicalOp,
        usage: SubqueryUse,
        r: VarId,
    ) -> Option<LogicalOp> {
        let LogicalOp::Emit { input: body, expr } = sub else { return None };
        let quant_correlated = match &usage {
            SubqueryUse::Quant(_, _, pred) => {
                let mut free = Vec::new();
                pred.free_vars(&mut free);
                free.iter().any(|v| self.outer.contains(v))
            }
            _ => false,
        };
        if !self.correlated(sub) && !quant_correlated {
            // One row for the whole input: the scalar aggregate of Figure 6.
            let (agg, bind) = self.aggregate(usage, body, expr, None, &[], r);
            let one = LogicalOp::Aggregate { input: body.clone(), aggs: vec![agg] };
            let joined = match input {
                LogicalOp::EmptyTupleSource => one,
                input => cross_join(input.clone(), one, JoinKind::Inner),
            };
            return Some(bind_var(joined, bind));
        }
        let (low, high) = match split_blocking(body, &|op| self.correlated(op)) {
            Some((low, high)) => (low, Some(high)),
            None => ((**body).clone(), None),
        };
        let mut keyed = input.clone();
        let row_key = self.row_key(&mut keyed);
        let carried: Vec<VarId> =
            visible_vars(&keyed).into_iter().filter(|v| self.used.contains(v)).collect();
        let mut joined = self.apply(keyed, &low, JoinKind::LeftOuter)?;
        if let (SubqueryUse::Quant(QuantKind::Some, var, pred), None, true) =
            (&usage, &high, joined.fresh)
        {
            fold(&mut joined.op, subst_var(pred.clone(), *var, expr));
        }
        let (agg, bind) = self.aggregate(usage, &low, expr, high, &joined.guards, r);
        let mut keys: Vec<(VarId, LogicalExpr)> = Vec::new();
        for k in row_key {
            if !matches!(k, LogicalExpr::Var(v) if carried.contains(&v)) {
                keys.push((self.fresh(), k));
            }
        }
        keys.extend(carried.iter().map(|v| (*v, LogicalExpr::Var(*v))));
        let mut grouped = LogicalOp::GroupBy { input: Box::new(joined.op), keys, aggs: vec![agg] };
        // The group-by shuffles: an outer `order by` sorts again.
        if let Some(sort) = outer_order(input) {
            grouped = LogicalOp::Order { input: Box::new(grouped), keys: sort };
        }
        Some(bind_var(grouped, bind))
    }

    /// The aggregate of `e` over the rows of `low` each group collects,
    /// `guards` marking the rows that are none, and the assign of `r` it
    /// needs, if any. With a blocking part `high` of the subquery, see
    /// [`Self::aggregate_above`].
    fn aggregate(
        &mut self,
        usage: SubqueryUse,
        low: &LogicalOp,
        e: &LogicalExpr,
        high: Option<LogicalOp>,
        guards: &[LogicalExpr],
        r: VarId,
    ) -> (AggCall, Option<(VarId, LogicalExpr)>) {
        if let Some(high) = high {
            return self.aggregate_above(usage, low, e, high, guards, r);
        }
        let listify = |var, input| AggCall { var, func: AggFunc::Listify, sql: false, input };
        match usage {
            SubqueryUse::Agg(func, sql) if guards.is_empty() || sql || func == AggFunc::Count => {
                (AggCall { var: r, func, sql, input: guarded(guards, e.clone()) }, None)
            }
            // The missing a guard gives poisons an AQL `sum`, `avg`, `min`
            // or `max`: it aggregates the group's list instead.
            SubqueryUse::Agg(func, sql) => {
                let l = self.fresh();
                let (agg, list) = self.aggregate(SubqueryUse::List, low, e, None, guards, l);
                let list = list.map_or(LogicalExpr::Var(l), |(_, list)| list);
                let name = AggCall { var: r, func, sql, input: missing() }.name();
                (agg, Some((r, LogicalExpr::call(name, vec![list]))))
            }
            SubqueryUse::Quant(kind, var, pred) => {
                // Count the members that decide the quantifier.
                let (yes, no) = (LogicalExpr::Const(Value::Boolean(true)), missing());
                let (counted, test) = match kind {
                    QuantKind::Some => ((yes, no), CompareOp::Gt),
                    QuantKind::Every => ((no, yes), CompareOp::Eq),
                };
                let counted = LogicalExpr::IfThenElse(
                    Box::new(subst_var(pred, var, e)),
                    Box::new(counted.0),
                    Box::new(counted.1),
                );
                let c = self.fresh();
                let zero = Box::new(LogicalExpr::Const(Value::Int64(0)));
                let test = LogicalExpr::Compare(test, Box::new(LogicalExpr::Var(c)), zero);
                let input = guarded(guards, counted);
                (AggCall { var: c, func: AggFunc::Count, sql: false, input }, Some((r, test)))
            }
            SubqueryUse::List if never_missing(e, low) => {
                (listify(r, guarded(guards, e.clone())), None)
            }
            // A listify leaves out missing members, and the list must not:
            // each member goes in a record, and a subplan takes it out.
            SubqueryUse::List => {
                let (l, x) = (self.fresh(), self.fresh());
                let list =
                    emit_subquery(unnest_list(l, x), LogicalExpr::field(LogicalExpr::Var(x), "v"));
                let member = LogicalExpr::RecordCtor(vec![("v".into(), e.clone())]);
                (listify(l, guarded(guards, member)), Some((r, list)))
            }
        }
    }

    /// The group's rows listified as records of the variables of `low`
    /// that `high` names, and `r` what `usage` makes of `high` — the
    /// blocking part of the subquery, above `low` — run over them.
    fn aggregate_above(
        &mut self,
        usage: SubqueryUse,
        low: &LogicalOp,
        e: &LogicalExpr,
        high: LogicalOp,
        guards: &[LogicalExpr],
        r: VarId,
    ) -> (AggCall, Option<(VarId, LogicalExpr)>) {
        // Every variable `high` names: a group-by that carries a variable
        // rebinds it, and still needs it from below.
        let above = LogicalOp::Emit { input: Box::new(high.clone()), expr: e.clone() };
        let mut named = Vec::new();
        above.collect_expr_vars(&mut named);
        let below = visible_vars(low);
        named.retain(|v| below.contains(v));
        let (l, x) = (self.fresh(), self.fresh());
        let rows = unpacked(unnest_list(l, x), x, &named);
        let answer = emit_subquery(replace_spine_leaf(high, rows), e.clone());
        let value = match usage {
            SubqueryUse::List => answer,
            SubqueryUse::Agg(func, sql) => {
                let name = AggCall { var: r, func, sql, input: missing() }.name();
                LogicalExpr::call(name, vec![answer])
            }
            SubqueryUse::Quant(kind, var, predicate) => LogicalExpr::Quantified {
                kind,
                var,
                collection: Box::new(answer),
                predicate: Box::new(predicate),
            },
        };
        let input = guarded(guards, record_of(&named));
        (AggCall { var: l, func: AggFunc::Listify, sql: false, input }, Some((r, value)))
    }

    /// `left` joined with `x` — a subquery's operator, whose correlated
    /// parts name variables of `left` — so that each row of `left` meets
    /// the rows `x` produces for it; for a left-outer `kind` every row of
    /// `left` survives, and the guards tell the rows that are no member.
    /// `None` for a shape it cannot rewrite: a blocking operator that reads
    /// a dataset, or a correlated right side of a left-outer join.
    fn apply(&mut self, left: LogicalOp, x: &LogicalOp, kind: JoinKind) -> Option<Applied> {
        let outer = kind == JoinKind::LeftOuter;
        let none = |op| Some(Applied { op, guards: Vec::new(), fresh: false });
        if !self.correlated(x) {
            if let LogicalOp::EmptyTupleSource = x {
                return none(left);
            }
            let (right, marker) = match marker_var(x) {
                Some(v) => (x.clone(), v),
                None => {
                    let v = self.fresh();
                    let expr = LogicalExpr::Const(Value::Boolean(true));
                    (LogicalOp::Assign { input: Box::new(x.clone()), var: v, expr }, v)
                }
            };
            let guards = if outer { vec![is_null(marker)] } else { Vec::new() };
            return Some(Applied { op: cross_join(left, right, kind), guards, fresh: true });
        }
        Some(match x {
            // A correlated primary-key search is a select of a scan: a join.
            LogicalOp::IndexNlJoin {
                dataset,
                var,
                spec: IndexSearchSpec::PrimaryRange { .. },
                postcondition: Some(post),
                ..
            } if x.is_index_selection() => {
                let scan = LogicalOp::DataSourceScan { dataset: dataset.clone(), var: *var };
                let select = LogicalOp::Select { input: Box::new(scan), condition: post.clone() };
                return self.apply(left, &select, kind);
            }
            LogicalOp::Select { input, condition } => {
                let mut a = self.apply(left, input, kind)?;
                self.restrict(&mut a, condition.clone(), outer);
                a
            }
            LogicalOp::Assign { input, var, expr } => {
                let a = self.apply(left, input, kind)?;
                let op = LogicalOp::Assign { input: Box::new(a.op), var: *var, expr: expr.clone() };
                Applied { op, guards: a.guards, fresh: false }
            }
            LogicalOp::Unnest { input, var, expr, positional, outer: keeps } => {
                let mut a = self.apply(left, input, kind)?;
                let mut positional = *positional;
                if outer && !keeps {
                    let p = positional.unwrap_or_else(|| self.fresh());
                    a.guards.push(is_missing(p));
                    positional = Some(p);
                }
                let op = LogicalOp::Unnest {
                    input: Box::new(a.op),
                    var: *var,
                    expr: expr.clone(),
                    positional,
                    outer: outer || *keeps,
                };
                Applied { op, guards: a.guards, fresh: false }
            }
            LogicalOp::Join {
                left: l,
                right: r,
                left_keys,
                right_keys,
                residual,
                kind: jk,
                ..
            } => {
                let (l, r) = match jk {
                    JoinKind::Inner if !self.correlated(l) => (r, l),
                    _ => (l, r),
                };
                let a = self.apply(left, l, kind)?;
                match jk {
                    JoinKind::Inner => {
                        let mut b = self.apply(a.op, r, kind)?;
                        let keys =
                            left_keys.iter().zip(right_keys).map(|(l, r)| eq(l.clone(), r.clone()));
                        if let Some(condition) = keys.chain(residual.clone()).reduce(and2) {
                            self.restrict(&mut b, condition, outer);
                        }
                        b.guards.splice(0..0, a.guards);
                        b
                    }
                    _ if self.correlated(r) => return None,
                    jk => {
                        let op = LogicalOp::Join {
                            left: Box::new(a.op),
                            right: r.clone(),
                            left_keys: left_keys.clone(),
                            right_keys: right_keys.clone(),
                            residual: residual.clone(),
                            kind: *jk,
                            index_nl_hint: false,
                        };
                        Applied { op, guards: a.guards, fresh: false }
                    }
                }
            }
            LogicalOp::IndexNlJoin {
                left: l,
                dataset,
                index,
                spec,
                postcondition,
                var,
                kind: jk,
            } => {
                let mut a = self.apply(left, l, kind)?;
                let pads = outer && *jk == JoinKind::Inner;
                if pads {
                    a.guards.push(is_null(*var));
                }
                let op = LogicalOp::IndexNlJoin {
                    left: Box::new(a.op),
                    dataset: dataset.clone(),
                    index: index.clone(),
                    spec: spec.clone(),
                    postcondition: postcondition.clone(),
                    var: *var,
                    kind: if pads { JoinKind::LeftOuter } else { *jk },
                };
                // Over a selection's search, the join is made here.
                Applied { op, guards: a.guards, fresh: pads || x.is_index_selection() }
            }
            // A dependent branch that reads no dataset: a subplan per row of
            // `left`, its rows unnested as records of the branch's variables.
            branch if !branch.reads_dataset() => {
                let vars = visible_vars(branch);
                let (d, p) = (self.fresh(), self.fresh());
                let rows = LogicalOp::Unnest {
                    input: Box::new(left),
                    var: d,
                    expr: emit_subquery(branch.clone(), record_of(&vars)),
                    positional: outer.then_some(p),
                    outer,
                };
                let guards = if outer { vec![is_missing(p)] } else { Vec::new() };
                Applied { op: unpacked(rows, d, &vars), guards, fresh: false }
            }
            _ => return None,
        })
    }

    /// Apply `condition` to what `apply` built: into the join it just made,
    /// as a select of an inner join, or as a guard that marks the rows it
    /// rejects.
    fn restrict(&mut self, a: &mut Applied, condition: LogicalExpr, outer: bool) {
        if a.fresh {
            fold(&mut a.op, condition);
        } else if !outer {
            let input = std::mem::replace(&mut a.op, LogicalOp::EmptyTupleSource);
            a.op = LogicalOp::Select { input: Box::new(input), condition };
        } else {
            let no = LogicalExpr::Const(Value::Boolean(false));
            let yes = LogicalExpr::Const(Value::Boolean(true));
            let rejects = LogicalExpr::IfThenElse(Box::new(condition), Box::new(no), Box::new(yes));
            a.guards.push(rejects);
        }
    }

    /// The expressions whose values tell the rows of `op` apart: the
    /// primary keys of its dataset variables, its group keys, an unnest's
    /// position — added where the unnest has none.
    fn row_key(&mut self, op: &mut LogicalOp) -> Vec<LogicalExpr> {
        let pk = |provider: &dyn MetadataProvider, dataset: &str, var: VarId| {
            let fields = provider.primary_key_fields(dataset);
            if fields.is_empty() {
                return vec![LogicalExpr::Var(var)];
            }
            let path = |f: &String| f.split('.').fold(LogicalExpr::Var(var), LogicalExpr::field);
            fields.iter().map(path).collect()
        };
        match op {
            LogicalOp::EmptyTupleSource | LogicalOp::Aggregate { .. } | LogicalOp::Emit { .. } => {
                Vec::new()
            }
            LogicalOp::DataSourceScan { dataset, var } => pk(self.provider, dataset, *var),
            LogicalOp::GroupBy { keys, .. } => {
                keys.iter().map(|(k, _)| LogicalExpr::Var(*k)).collect()
            }
            LogicalOp::Distinct { exprs, .. } => exprs.clone(),
            LogicalOp::Unnest { input, positional, .. } => {
                let mut key = self.row_key(input);
                let p = match positional {
                    Some(p) => *p,
                    None => *positional.insert(self.fresh()),
                };
                key.push(LogicalExpr::Var(p));
                key
            }
            LogicalOp::IndexNlJoin { left, dataset, var, .. } => {
                let mut key = self.row_key(left);
                key.extend(pk(self.provider, dataset, *var));
                key
            }
            LogicalOp::Join { left, kind: JoinKind::Semi, .. } => self.row_key(left),
            LogicalOp::Join { left, right, .. } => {
                let mut key = self.row_key(left);
                key.extend(self.row_key(right));
                key
            }
            LogicalOp::Assign { input, .. }
            | LogicalOp::Select { input, .. }
            | LogicalOp::Order { input, .. }
            | LogicalOp::Limit { input, .. } => self.row_key(input),
        }
    }
}

/// The input of an operator whose expressions see one input row at a time.
fn unary_input(op: &mut LogicalOp) -> Option<&mut LogicalOp> {
    match op {
        LogicalOp::Assign { input, .. }
        | LogicalOp::Select { input, .. }
        | LogicalOp::Unnest { input, .. }
        | LogicalOp::GroupBy { input, .. }
        | LogicalOp::Aggregate { input, .. }
        | LogicalOp::Order { input, .. }
        | LogicalOp::Distinct { input, .. }
        | LogicalOp::Emit { input, .. } => Some(input),
        _ => None,
    }
}

/// `e` with its first subquery that reads a dataset — outside a
/// quantifier's predicate — replaced by variable `r`; `found` gets how the
/// subquery was used and its plan. An aggregate of the subquery or a
/// quantifier over it is replaced whole.
fn take_subquery(
    e: LogicalExpr,
    r: VarId,
    found: &mut Option<(SubqueryUse, Arc<LogicalOp>)>,
) -> LogicalExpr {
    fn dataset_subquery(e: &LogicalExpr) -> Option<&Arc<LogicalOp>> {
        match e {
            LogicalExpr::Subquery(sub) if sub.reads_dataset() => Some(sub),
            _ => None,
        }
    }
    if found.is_some() {
        return e;
    }
    let usage = match &e {
        LogicalExpr::Call(name, args) if args.len() == 1 => AggFunc::from_name(name)
            .zip(dataset_subquery(&args[0]))
            .map(|((func, sql), sub)| (SubqueryUse::Agg(func, sql), Arc::clone(sub))),
        LogicalExpr::Quantified { kind, var, collection, predicate } => {
            dataset_subquery(collection).map(|sub| {
                (SubqueryUse::Quant(*kind, *var, (**predicate).clone()), Arc::clone(sub))
            })
        }
        e => dataset_subquery(e).map(|sub| (SubqueryUse::List, Arc::clone(sub))),
    };
    if usage.is_some() {
        *found = usage;
        return LogicalExpr::Var(r);
    }
    match e {
        LogicalExpr::Quantified { kind, var, collection, predicate } => LogicalExpr::Quantified {
            kind,
            var,
            collection: Box::new(take_subquery(*collection, r, found)),
            predicate,
        },
        e => map_expr_children(e, &mut |c| take_subquery(c, r, found)),
    }
}

/// The variables an operator's output rows bind.
fn visible_vars(op: &LogicalOp) -> Vec<VarId> {
    let mut vars = match op {
        LogicalOp::GroupBy { .. } | LogicalOp::Aggregate { .. } => Vec::new(),
        LogicalOp::Join { left, kind: JoinKind::Semi, .. } => visible_vars(left),
        op => op.inputs().into_iter().flat_map(visible_vars).collect(),
    };
    for v in op.introduced_vars() {
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    vars
}

/// A variable each row of `op` binds to a value that is never null: a
/// record a read binds, on a side of the joins no padding reaches.
fn marker_var(op: &LogicalOp) -> Option<VarId> {
    match op {
        LogicalOp::DataSourceScan { var, .. } => Some(*var),
        LogicalOp::Join { left, right, kind: JoinKind::Inner, .. } => {
            marker_var(left).or_else(|| marker_var(right))
        }
        LogicalOp::IndexNlJoin { left, var, kind, .. } => {
            marker_var(left).or((*kind == JoinKind::Inner).then_some(*var))
        }
        LogicalOp::Join { left, .. } => marker_var(left),
        LogicalOp::Select { input, .. }
        | LogicalOp::Assign { input, .. }
        | LogicalOp::Unnest { input, .. }
        | LogicalOp::Order { input, .. }
        | LogicalOp::Limit { input, .. }
        | LogicalOp::Distinct { input, .. } => marker_var(input),
        _ => None,
    }
}

/// The lowest blocking operator on `body`'s spine (inputs and left join
/// inputs) that is correlated and reads a dataset, split off: `(low, high)`
/// with `low` its input and `high` the body above, its spine ending in an
/// empty tuple source where `low` was.
fn split_blocking(
    body: &LogicalOp,
    correlated: &dyn Fn(&LogicalOp) -> bool,
) -> Option<(LogicalOp, LogicalOp)> {
    let child = body.inputs().into_iter().next()?;
    let with_child = |child: LogicalOp| {
        let mut op = body.clone();
        *spine_child(&mut op).expect("a spine child") = child;
        op
    };
    if let Some((low, high)) = split_blocking(child, correlated) {
        return Some((low, with_child(high)));
    }
    let blocking = matches!(
        body,
        LogicalOp::GroupBy { .. }
            | LogicalOp::Aggregate { .. }
            | LogicalOp::Order { .. }
            | LogicalOp::Limit { .. }
            | LogicalOp::Distinct { .. }
    );
    (blocking && correlated(body) && body.reads_dataset())
        .then(|| (child.clone(), with_child(LogicalOp::EmptyTupleSource)))
}

/// The first input of `op`: its input, or its left one.
fn spine_child(op: &mut LogicalOp) -> Option<&mut LogicalOp> {
    match op {
        LogicalOp::Join { left, .. } | LogicalOp::IndexNlJoin { left, .. } => Some(left),
        LogicalOp::Limit { input, .. } => Some(input),
        op => unary_input(op),
    }
}

/// `op` with the leaf its spine ends in replaced by `leaf`.
fn replace_spine_leaf(mut op: LogicalOp, leaf: LogicalOp) -> LogicalOp {
    match spine_child(&mut op) {
        Some(child) => {
            let below = std::mem::replace(child, LogicalOp::EmptyTupleSource);
            *child = replace_spine_leaf(below, leaf);
            op
        }
        None => leaf,
    }
}

/// The sort keys of an `order by` that decides the order of `op`'s rows.
fn outer_order(op: &LogicalOp) -> Option<Vec<crate::plan::SortSpec>> {
    match op {
        LogicalOp::Order { keys, .. } => Some(keys.clone()),
        LogicalOp::Select { input, .. }
        | LogicalOp::Assign { input, .. }
        | LogicalOp::Limit { input, .. } => outer_order(input),
        _ => None,
    }
}

/// Fold `condition` into the join `apply` just made: the conjuncts that
/// name only its right side's variables filter that side, the others join.
fn fold(join: &mut LogicalOp, condition: LogicalExpr) {
    match join {
        LogicalOp::Join { right, residual, .. } => {
            let bound = right.bound_vars();
            let mut conjuncts = Vec::new();
            conjuncts_of(condition, &mut conjuncts);
            for c in conjuncts {
                let mut vars = Vec::new();
                c.free_vars(&mut vars);
                if !vars.is_empty() && vars_subset(&vars, &bound) {
                    let input = std::mem::replace(right.as_mut(), LogicalOp::EmptyTupleSource);
                    **right = LogicalOp::Select { input: Box::new(input), condition: c };
                } else {
                    *residual = Some(conjoin(residual.take(), c));
                }
            }
        }
        LogicalOp::IndexNlJoin { postcondition, .. } => {
            *postcondition = Some(match postcondition.take() {
                Some(post) => and2(post, condition),
                None => condition,
            });
        }
        _ => unreachable!("only a join just made folds a condition"),
    }
}

/// `left` × `right`; `right` itself when `left` is the one empty row.
fn cross_join(left: LogicalOp, right: LogicalOp, kind: JoinKind) -> LogicalOp {
    if let (LogicalOp::EmptyTupleSource, JoinKind::Inner) = (&left, kind) {
        return right;
    }
    crate::plan::build::join(left, right, None, kind)
}

fn bind_var(op: LogicalOp, bind: Option<(VarId, LogicalExpr)>) -> LogicalOp {
    match bind {
        Some((var, expr)) => LogicalOp::Assign { input: Box::new(op), var, expr },
        None => op,
    }
}

fn emit_subquery(input: LogicalOp, expr: LogicalExpr) -> LogicalExpr {
    LogicalExpr::Subquery(Arc::new(LogicalOp::Emit { input: Box::new(input), expr }))
}

fn missing() -> LogicalExpr {
    LogicalExpr::Const(Value::Missing)
}

fn is_null(v: VarId) -> LogicalExpr {
    LogicalExpr::call("is-null", vec![LogicalExpr::Var(v)])
}

fn is_missing(v: VarId) -> LogicalExpr {
    LogicalExpr::call("is-missing", vec![LogicalExpr::Var(v)])
}

fn eq(a: LogicalExpr, b: LogicalExpr) -> LogicalExpr {
    LogicalExpr::Compare(CompareOp::Eq, Box::new(a), Box::new(b))
}

/// `{ "v<id>": $v<id>, … }` of `vars`, as [`unpacked`] reads it back.
fn record_of(vars: &[VarId]) -> LogicalExpr {
    LogicalExpr::RecordCtor(vars.iter().map(|v| (format!("v{v}"), LogicalExpr::Var(*v))).collect())
}

/// `op` with each of `vars` assigned from its field of the record `from`.
fn unpacked(op: LogicalOp, from: VarId, vars: &[VarId]) -> LogicalOp {
    vars.iter().fold(op, |op, v| {
        let expr = LogicalExpr::field(LogicalExpr::Var(from), format!("v{v}"));
        LogicalOp::Assign { input: Box::new(op), var: *v, expr }
    })
}

/// `for $x in $l` over the empty tuple source.
fn unnest_list(l: VarId, x: VarId) -> LogicalOp {
    LogicalOp::Unnest {
        input: Box::new(LogicalOp::EmptyTupleSource),
        var: x,
        expr: LogicalExpr::Var(l),
        positional: None,
        outer: false,
    }
}

/// `e`, or missing — which every aggregate skips or answers as over `[]` —
/// on a row one of `guards` marks.
fn guarded(guards: &[LogicalExpr], e: LogicalExpr) -> LogicalExpr {
    match guards.iter().cloned().reduce(|a, b| LogicalExpr::Or(vec![a, b])) {
        Some(any) => LogicalExpr::IfThenElse(Box::new(any), Box::new(missing()), Box::new(e)),
        None => e,
    }
}

/// Whether `e` is never missing on a row of `low`: a constructor, a
/// constant that is not missing, a record a read of `low` binds.
fn never_missing(e: &LogicalExpr, low: &LogicalOp) -> bool {
    match e {
        LogicalExpr::RecordCtor(_) | LogicalExpr::ListCtor { .. } => true,
        LogicalExpr::Const(v) => !v.is_missing(),
        LogicalExpr::Var(v) => binds_record(low, *v),
        _ => false,
    }
}

/// `e` with variable `x` replaced by `by`.
fn subst_var(e: LogicalExpr, x: VarId, by: &LogicalExpr) -> LogicalExpr {
    match e {
        LogicalExpr::Var(v) if v == x => by.clone(),
        e => map_expr_children(e, &mut |c| subst_var(c, x, by)),
    }
}

// ---------------------------------------------------------------------------
// Subplan recursion
// ---------------------------------------------------------------------------

fn optimize_subplans(
    plan: LogicalOp,
    provider: &Arc<dyn MetadataProvider>,
    fn_ctx: &FunctionContext,
    options: &OptimizerOptions,
) -> LogicalOp {
    plan.transform_up(&mut |op| {
        map_op_exprs(op, &mut |e| optimize_expr_subplans(e, provider, fn_ctx, options))
    })
}

fn optimize_expr_subplans(
    e: LogicalExpr,
    provider: &Arc<dyn MetadataProvider>,
    fn_ctx: &FunctionContext,
    options: &OptimizerOptions,
) -> LogicalExpr {
    let e = map_expr_children(e, &mut |c| optimize_expr_subplans(c, provider, fn_ctx, options));
    if let LogicalExpr::Subquery(plan) = e {
        let optimized = optimize((*plan).clone(), provider, fn_ctx, options);
        LogicalExpr::Subquery(Arc::new(optimized))
    } else {
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::tests_support::VecProvider;
    use crate::metadata::{IndexInfo, IndexProbe};
    use crate::plan::build::*;
    use asterix_adm::AdmError;

    struct IndexedProvider {
        inner: VecProvider,
        ixs: Vec<IndexInfo>,
    }

    impl MetadataProvider for IndexedProvider {
        fn partitions(&self) -> usize {
            self.inner.partitions()
        }
        fn dataset_exists(&self, d: &str) -> bool {
            self.inner.dataset_exists(d)
        }
        fn primary_key_fields(&self, d: &str) -> Vec<String> {
            self.inner.primary_key_fields(d)
        }
        fn indexes(&self, _d: &str) -> Vec<IndexInfo> {
            self.ixs.clone()
        }
        fn raw_scan_source(
            &self,
            d: &str,
            p: &crate::metadata::ScanProjection,
            lo: crate::metadata::KeyBound,
            hi: crate::metadata::KeyBound,
        ) -> asterix_hyracks::Result<asterix_hyracks::ops::RawSourceFn> {
            self.inner.raw_scan_source(d, p, lo, hi)
        }
        fn secondary_search(
            &self,
            d: &str,
            i: &str,
        ) -> asterix_hyracks::Result<crate::metadata::IndexSearchFn> {
            self.inner.secondary_search(d, i)
        }
        fn primary_fetch(
            &self,
            d: &str,
            p: &crate::metadata::ScanProjection,
        ) -> asterix_hyracks::Result<asterix_hyracks::ops::FetchFn> {
            self.inner.primary_fetch(d, p)
        }
    }

    fn provider_with_index(kind: IndexKind, field: &str) -> Arc<dyn MetadataProvider> {
        let mut inner = VecProvider::new(2);
        inner.add("DS", "id", vec![]);
        Arc::new(IndexedProvider {
            inner,
            ixs: vec![IndexInfo { name: "ix".into(), kind, fields: vec![field.into()] }],
        })
    }

    fn fctx() -> FunctionContext {
        FunctionContext::default()
    }

    fn eq(a: LogicalExpr, b: LogicalExpr) -> LogicalExpr {
        LogicalExpr::Compare(CompareOp::Eq, Box::new(a), Box::new(b))
    }

    /// The probe `spec` resolves to on an index `ix` of `kind`.
    fn probe_of(kind: IndexKind, spec: IndexSearchSpec) -> Result<Option<IndexProbe>, AdmError> {
        let provider = provider_with_index(kind, "f");
        spec.probe(&*provider, "DS", "ix", |e| match e {
            LogicalExpr::Const(v) => Ok(v.clone()),
            other => Err(AdmError::InvalidArgument(format!("{other:?}"))),
        })
    }

    fn fuzzy(needle: Value, edit_distance: usize) -> IndexSearchSpec {
        IndexSearchSpec::InvertedFuzzy { needle: LogicalExpr::Const(needle), edit_distance }
    }

    fn tokens(probe: Option<IndexProbe>) -> Option<(Vec<String>, usize)> {
        match probe? {
            IndexProbe::Tokens { tokens, min_matches } => Some((tokens, min_matches)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ngram_bound_of_zero_scans() {
        let grams = |t: &[&str]| t.iter().map(|g| g.to_string()).collect::<Vec<_>>();
        // |G("ab")| = 4 with k = 3: ed 1 leaves 1 gram, ed 2 none — a scan.
        let probe = probe_of(IndexKind::NGram(3), fuzzy(Value::string("ab"), 1)).unwrap();
        assert_eq!(tokens(probe), Some((grams(&["##a", "#ab", "ab#", "b##"]), 1)));
        assert!(probe_of(IndexKind::NGram(3), fuzzy(Value::string("ab"), 2)).unwrap().is_none());
        // The bound counts distinct grams: "aaaaa" has 6 bigrams but 3
        // distinct ones, and "aaaaa" itself matches only those 3.
        let probe = probe_of(IndexKind::NGram(2), fuzzy(Value::string("AAAAA"), 1)).unwrap();
        assert_eq!(tokens(probe), Some((grams(&["#a", "a#", "aa"]), 1)));
        // A needle that is not one string cannot name an indexed string.
        for needle in [Value::Null, Value::Int64(7), Value::ordered_list(vec![Value::string("ab")])]
        {
            assert!(probe_of(IndexKind::NGram(2), fuzzy(needle, 0)).unwrap().is_none());
        }
    }

    #[test]
    fn fuzzy_search_needs_an_ngram_index() {
        assert!(probe_of(IndexKind::Keyword, fuzzy(Value::string("abc"), 1)).is_err());
        assert!(probe_of(IndexKind::BTree, fuzzy(Value::string("abc"), 1)).is_err());
    }

    #[test]
    fn keyword_needles_tokenize_as_indexed_values() {
        let keyword = |needle: Value| {
            let spec = IndexSearchSpec::InvertedConjunctive { needle: LogicalExpr::Const(needle) };
            tokens(probe_of(IndexKind::Keyword, spec).unwrap())
        };
        let words =
            |t: &[&str]| Some((t.iter().map(|w| w.to_string()).collect::<Vec<_>>(), t.len()));
        assert_eq!(keyword(Value::string("Tonight, tonight!")), words(&["tonight"]));
        let bag = Value::unordered_list(vec![Value::string("Live Music"), Value::Null]);
        assert_eq!(keyword(bag), words(&["live music"]));
        // No token to require, or a needle no keyword index stores: scan.
        assert_eq!(keyword(Value::string("!?")), None);
        assert_eq!(keyword(Value::Missing), None);
        assert_eq!(keyword(Value::unordered_list(vec![Value::Int64(1)])), None);
    }

    #[test]
    fn group_aggregate_fusion() {
        use crate::plan::{AggCall, AggFunc};
        // group by $k with $m; let $cnt := count($m) — Query 11's shape.
        let group = LogicalOp::GroupBy {
            input: Box::new(scan("DS", 0)),
            keys: vec![(1, LogicalExpr::field(var(0), "author"))],
            aggs: vec![AggCall { var: 2, func: AggFunc::Listify, sql: false, input: var(0) }],
        };
        let plan = emit(
            LogicalOp::Assign {
                input: Box::new(group),
                var: 3,
                expr: LogicalExpr::call("count", vec![var(2)]),
            },
            var(3),
        );
        let fused = fuse_group_aggregates(plan.clone());
        fn find_group(op: &LogicalOp) -> Option<&LogicalOp> {
            if matches!(op, LogicalOp::GroupBy { .. }) {
                return Some(op);
            }
            op.inputs().into_iter().find_map(find_group)
        }
        let LogicalOp::GroupBy { aggs, .. } = find_group(&fused).unwrap() else { panic!() };
        assert_eq!(aggs.len(), 1, "listify replaced by count");
        assert_eq!(aggs[0].func, AggFunc::Count);
        assert_eq!(aggs[0].var, 3);
        // The assign is gone.
        assert!(!fused.pretty().contains("assign $v3"), "{}", fused.pretty());

        // A plan that also returns the group list must NOT fuse away the
        // listify.
        let group2 = LogicalOp::GroupBy {
            input: Box::new(scan("DS", 0)),
            keys: vec![(1, LogicalExpr::field(var(0), "author"))],
            aggs: vec![AggCall { var: 2, func: AggFunc::Listify, sql: false, input: var(0) }],
        };
        let plan2 = emit(
            LogicalOp::Assign {
                input: Box::new(group2),
                var: 3,
                expr: LogicalExpr::call("count", vec![var(2)]),
            },
            LogicalExpr::RecordCtor(vec![
                ("cnt".into(), var(3)),
                ("members".into(), var(2)), // general use of the group list
            ]),
        );
        let fused2 = fuse_group_aggregates(plan2);
        let LogicalOp::GroupBy { aggs, .. } = find_group(&fused2).unwrap() else { panic!() };
        assert!(
            aggs.iter().any(|a| a.func == AggFunc::Listify),
            "listify with other uses must survive"
        );
    }

    #[test]
    fn aggregates_over_a_group_fuse_wherever_they_sit_above_it() {
        let gt = |a, b| LogicalExpr::Compare(CompareOp::Gt, Box::new(a), Box::new(b));
        let len_of = |x| LogicalExpr::call("string-length", vec![LogicalExpr::field(var(x), "s")]);
        // `for $x in $g return <ret>` over group var 2, `$x` = var 9.
        let over_members = |ret: LogicalExpr, where_: Option<LogicalExpr>| {
            let mut members = LogicalOp::Unnest {
                input: Box::new(LogicalOp::EmptyTupleSource),
                var: 9,
                expr: var(2),
                positional: None,
                outer: false,
            };
            if let Some(c) = where_ {
                members = select(members, c);
            }
            LogicalExpr::Subquery(Arc::new(emit(members, ret)))
        };
        // group by $k := $m.author with $m (var 2)
        // where count($m) > 1
        // order by sum(for $x in $m return string-length($x.s)) desc
        // return { "k": $k, "n": sql-count($m), "long": max(...) }
        let plan = |long: LogicalExpr| {
            let group = LogicalOp::GroupBy {
                input: Box::new(scan("DS", 0)),
                keys: vec![(1, LogicalExpr::field(var(0), "author"))],
                aggs: vec![AggCall { var: 2, func: AggFunc::Listify, sql: false, input: var(0) }],
            };
            let filtered =
                select(group, gt(LogicalExpr::call("count", vec![var(2)]), lit(Value::Int64(1))));
            let ordered = LogicalOp::Order {
                input: Box::new(filtered),
                keys: vec![crate::plan::SortSpec {
                    expr: LogicalExpr::call("sum", vec![over_members(len_of(9), None)]),
                    descending: true,
                }],
            };
            emit(
                ordered,
                LogicalExpr::RecordCtor(vec![
                    ("k".into(), var(1)),
                    ("n".into(), LogicalExpr::call("sql-count", vec![var(2)])),
                    ("long".into(), LogicalExpr::call("max", vec![long])),
                ]),
            )
        };
        let rows: Vec<Value> = (0..40)
            .map(|i| {
                asterix_adm::parse::parse_value(&format!(
                    r#"{{ "id": {i}, "author": {}, "s": "{}" }}"#,
                    i % 6,
                    "x".repeat((i % 5) as usize)
                ))
                .unwrap()
            })
            .collect();
        let mut provider = VecProvider::new(2);
        provider.add("DS", "id", rows);
        let ctx = EvalCtx::new(Arc::new(provider), fctx());
        let run = |p: &LogicalOp| {
            let mut out =
                crate::interp::eval_subplan(p, &std::collections::HashMap::new(), &ctx).unwrap();
            out.sort_by(|a, b| a.total_cmp(b));
            out
        };

        let fusable = plan(over_members(len_of(9), None));
        let fused = fuse_group_aggregates(fusable.clone());
        let shown = fused.pretty();
        assert!(shown.contains("group-by (1 keys) [aggs: count,sum,sql-count,max]"), "{shown}");
        // The fresh variables number above every variable the plan names.
        let LogicalOp::Emit { expr: LogicalExpr::RecordCtor(fields), .. } = &fused else {
            panic!("{shown}")
        };
        assert!(matches!(fields[1].1, LogicalExpr::Var(v) if v > 9), "{fields:?}");
        assert_eq!(run(&fused), run(&fusable));
        assert_eq!(run(&fused).len(), 6);

        // A subquery that filters the members is another use of the group
        // variable: the list is materialized beside the fused aggregates.
        let filtered_members = over_members(len_of(9), Some(gt(len_of(9), lit(Value::Int64(2)))));
        let kept = plan(filtered_members);
        let partly_fused = fuse_group_aggregates(kept.clone());
        let shown = partly_fused.pretty();
        assert!(shown.contains("[aggs: listify,count,sum,sql-count]"), "{shown}");
        assert_eq!(run(&partly_fused), run(&kept));
    }

    #[test]
    fn constant_folding() {
        let provider = provider_with_index(IndexKind::BTree, "ts");
        let plan = emit(
            LogicalOp::EmptyTupleSource,
            LogicalExpr::Arith('+', Box::new(lit(Value::Int64(1))), Box::new(lit(Value::Int64(1)))),
        );
        let out = optimize(plan, &provider, &fctx(), &OptimizerOptions::default());
        match out {
            LogicalOp::Emit { expr: LogicalExpr::Const(Value::Int64(2)), .. } => {}
            other => panic!("not folded: {other:?}"),
        }
    }

    #[test]
    fn equijoin_becomes_hash_join() {
        let provider = provider_with_index(IndexKind::BTree, "ts");
        let plan = emit(
            cross(
                scan("DS", 0),
                scan("DS", 1),
                eq(LogicalExpr::field(var(0), "id"), LogicalExpr::field(var(1), "author")),
            ),
            var(0),
        );
        let out = optimize(plan, &provider, &fctx(), &OptimizerOptions::default());
        assert!(out.pretty().contains("hash-join"), "{}", out.pretty());
    }

    #[test]
    fn non_equijoin_stays_nested_loop() {
        let provider = provider_with_index(IndexKind::BTree, "ts");
        let plan = emit(
            cross(
                scan("DS", 0),
                scan("DS", 1),
                LogicalExpr::Compare(
                    CompareOp::Lt,
                    Box::new(LogicalExpr::field(var(0), "id")),
                    Box::new(LogicalExpr::field(var(1), "id")),
                ),
            ),
            var(0),
        );
        let out = optimize(plan, &provider, &fctx(), &OptimizerOptions::default());
        assert!(out.pretty().contains("join (Inner)"), "{}", out.pretty());
        assert!(!out.pretty().contains("hash-join"), "{}", out.pretty());
    }

    #[test]
    fn range_scan_uses_btree_index() {
        let provider = provider_with_index(IndexKind::BTree, "ts");
        // where $v.ts >= 10 and $v.ts <= 20
        let plan = emit(
            select(
                select(
                    scan("DS", 0),
                    LogicalExpr::Compare(
                        CompareOp::Ge,
                        Box::new(LogicalExpr::field(var(0), "ts")),
                        Box::new(lit(Value::Int64(10))),
                    ),
                ),
                LogicalExpr::Compare(
                    CompareOp::Le,
                    Box::new(LogicalExpr::field(var(0), "ts")),
                    Box::new(lit(Value::Int64(20))),
                ),
            ),
            var(0),
        );
        let out = optimize(plan, &provider, &fctx(), &OptimizerOptions::default());
        let p = out.pretty();
        assert!(p.contains("btree-search DS.ix"), "{p}");
        assert!(!p.contains("data-scan"), "{p}");
    }

    /// Among the B-tree indexes that apply, an equality beats a two-sided
    /// range, which beats a one-sided one, whatever the catalog order —
    /// for a selection and for a correlated search alike.
    #[test]
    fn the_narrowest_btree_search_wins_over_catalog_order() {
        let btree = |name: &str, field: &str| IndexInfo {
            name: name.into(),
            kind: IndexKind::BTree,
            fields: vec![field.into()],
        };
        let mut inner = VecProvider::new(2);
        inner.add("DS", "id", vec![]);
        let ixs = vec![btree("tsIx", "ts"), btree("sinceIx", "since"), btree("authorIx", "author")];
        let provider: Arc<dyn MetadataProvider> = Arc::new(IndexedProvider { inner, ixs });
        let field = |f: &str| LogicalExpr::field(var(0), f);
        let cmp = |op, f: &str, bound: LogicalExpr| {
            LogicalExpr::Compare(op, Box::new(field(f)), Box::new(bound))
        };
        let int = |v: i64| lit(Value::Int64(v));
        let outer = |f: &str| LogicalExpr::field(var(1), f);
        for (conditions, chosen) in [
            (
                vec![cmp(CompareOp::Gt, "ts", int(5)), cmp(CompareOp::Eq, "author", int(3))],
                "authorIx",
            ),
            (
                vec![
                    cmp(CompareOp::Gt, "ts", outer("since")),
                    cmp(CompareOp::Eq, "author", outer("id")),
                ],
                "authorIx",
            ),
            (
                vec![
                    cmp(CompareOp::Gt, "ts", int(5)),
                    cmp(CompareOp::Ge, "since", int(1)),
                    cmp(CompareOp::Le, "since", int(9)),
                ],
                "sinceIx",
            ),
            (vec![cmp(CompareOp::Gt, "since", int(1)), cmp(CompareOp::Gt, "ts", int(5))], "tsIx"),
        ] {
            let plan = emit(conditions.into_iter().fold(scan("DS", 0), select), var(0));
            let p = optimize(plan, &provider, &fctx(), &OptimizerOptions::default()).pretty();
            assert!(p.contains(&format!("btree-search DS.{chosen}")), "{p}");
        }
    }

    #[test]
    fn pk_equality_uses_primary_index() {
        let provider = provider_with_index(IndexKind::BTree, "ts");
        let plan = emit(
            select(scan("DS", 0), eq(LogicalExpr::field(var(0), "id"), lit(Value::Int64(7)))),
            var(0),
        );
        let out = optimize(plan, &provider, &fctx(), &OptimizerOptions::default());
        assert!(out.pretty().contains("btree-search DS (primary)"), "{}", out.pretty());
    }

    #[test]
    fn index_access_can_be_disabled() {
        let provider = provider_with_index(IndexKind::BTree, "ts");
        let plan = emit(
            select(scan("DS", 0), eq(LogicalExpr::field(var(0), "ts"), lit(Value::Int64(7)))),
            var(0),
        );
        let opts = OptimizerOptions { enable_index_access: false, ..Default::default() };
        let out = optimize(plan, &provider, &fctx(), &opts);
        assert!(out.pretty().contains("data-scan"), "{}", out.pretty());
    }

    #[test]
    fn indexnl_hint_uses_index_join() {
        let provider = provider_with_index(IndexKind::BTree, "author");
        let plan = emit(
            LogicalOp::Join {
                left: Box::new(scan("DS", 0)),
                right: Box::new(scan("DS", 1)),
                left_keys: Vec::new(),
                right_keys: Vec::new(),
                residual: Some(eq(
                    LogicalExpr::field(var(0), "id"),
                    LogicalExpr::field(var(1), "author"),
                )),
                kind: JoinKind::Inner,
                index_nl_hint: true,
            },
            var(0),
        );
        let out = optimize(plan, &provider, &fctx(), &OptimizerOptions::default());
        assert!(out.pretty().contains("index-nl-join DS.ix"), "{}", out.pretty());
    }

    /// Selects pushed down onto the hinted inner side do not defeat the
    /// hint: on an inner join they move above the index-NL join; a
    /// left-outer join, where that would drop padded rows, stays a hash
    /// join.
    #[test]
    fn indexnl_hint_peels_selects_off_the_inner_side() {
        let provider = provider_with_index(IndexKind::BTree, "author");
        let len_cmp = |op, n| {
            LogicalExpr::Compare(
                op,
                Box::new(LogicalExpr::field(var(1), "len")),
                Box::new(lit(Value::Int64(n))),
            )
        };
        let plan = |kind| {
            emit(
                LogicalOp::Join {
                    left: Box::new(scan("DS", 0)),
                    right: Box::new(select(
                        select(scan("DS", 1), len_cmp(CompareOp::Ge, 5)),
                        len_cmp(CompareOp::Lt, 9),
                    )),
                    left_keys: Vec::new(),
                    right_keys: Vec::new(),
                    residual: Some(eq(
                        LogicalExpr::field(var(0), "id"),
                        LogicalExpr::field(var(1), "author"),
                    )),
                    kind,
                    index_nl_hint: true,
                },
                var(0),
            )
        };
        let opts = OptimizerOptions::default();
        let out = optimize(plan(JoinKind::Inner), &provider, &fctx(), &opts);
        assert_eq!(
            out.pretty(),
            "emit\n  select\n    index-nl-join DS.ix\n      data-scan DS\n",
            "the selects sit above the join, coalesced"
        );
        let LogicalOp::Emit { input, .. } = &out else { unreachable!() };
        let LogicalOp::Select { condition, .. } = input.as_ref() else { unreachable!() };
        let mut conjuncts = Vec::new();
        conjuncts_of(condition.clone(), &mut conjuncts);
        let want = [len_cmp(CompareOp::Ge, 5), len_cmp(CompareOp::Lt, 9)];
        assert!(
            conjuncts.len() == 2
                && conjuncts.iter().zip(&want).all(|(got, want)| expr_eq_shallow(got, want)),
            "{conjuncts:?}"
        );

        let outer = optimize(plan(JoinKind::LeftOuter), &provider, &fctx(), &opts);
        assert!(outer.pretty().contains("hash-join (LeftOuter)"), "{}", outer.pretty());
        assert!(!outer.pretty().contains("index-nl-join"), "{}", outer.pretty());
    }

    #[test]
    fn spatial_predicate_uses_rtree() {
        let provider = provider_with_index(IndexKind::RTree, "loc");
        let q = asterix_adm::parse::parse_value("rectangle(\"0,0 5,5\")").unwrap();
        let plan = emit(
            select(
                scan("DS", 0),
                LogicalExpr::call(
                    "spatial-intersect",
                    vec![LogicalExpr::field(var(0), "loc"), lit(q)],
                ),
            ),
            var(0),
        );
        let out = optimize(plan, &provider, &fctx(), &OptimizerOptions::default());
        assert!(out.pretty().contains("rtree-search DS.ix"), "{}", out.pretty());
    }

    #[test]
    fn selects_push_through_joins() {
        let provider = provider_with_index(IndexKind::BTree, "ts");
        // select on left var above a cross join should sink into the left
        // branch (and then become an index search).
        let plan = emit(
            select(
                cross(
                    scan("DS", 0),
                    scan("DS", 1),
                    eq(LogicalExpr::field(var(0), "id"), LogicalExpr::field(var(1), "author")),
                ),
                eq(LogicalExpr::field(var(0), "ts"), lit(Value::Int64(3))),
            ),
            var(0),
        );
        let out = optimize(plan, &provider, &fctx(), &OptimizerOptions::default());
        let p = out.pretty();
        assert!(p.contains("hash-join"), "{p}");
        assert!(p.contains("btree-search DS.ix"), "{p}");
    }
}
