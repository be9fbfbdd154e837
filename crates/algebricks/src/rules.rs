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
use crate::plan::{IndexSearchSpec, JoinKind, LogicalOp};

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
    /// probe tuples against it before the probe exchange (inner joins
    /// only). Needs a filter factory on the executor to take effect; with
    /// none injected the probe-side consult passes everything through.
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
    let mut plan = fold_constants(plan, &ctx);
    if options.fuse_group_aggregates {
        plan = fuse_group_aggregates(plan);
    }
    plan = split_conjunctions(plan);
    for _ in 0..8 {
        plan = push_selects_down(plan);
    }
    plan = extract_equijoins(plan, provider);
    if options.enable_index_access {
        // Merge select cascades so a single access-path decision sees every
        // conjunct (both bounds of a range land in one index search).
        plan = coalesce_selects(plan);
        plan = introduce_index_access(plan, provider, fn_ctx);
    }
    // Recurse into subplans carried by expressions.
    plan = optimize_subplans(plan, provider, fn_ctx, options);
    plan
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

fn fold_expr(e: LogicalExpr, ctx: &EvalCtx) -> LogicalExpr {
    // Fold children first.
    let e = map_expr_children(e, &mut |c| fold_expr(c, ctx));
    if !matches!(e, LogicalExpr::Const(_)) && e.is_foldable_const() {
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
        LogicalOp::Join { left, right, condition, kind, index_nl_hint } => {
            LogicalOp::Join { left, right, condition: f(condition), kind, index_nl_hint }
        }
        LogicalOp::HashJoin { left, right, left_keys, right_keys, residual, kind } => {
            LogicalOp::HashJoin {
                left,
                right,
                left_keys: left_keys.into_iter().map(&mut *f).collect(),
                right_keys: right_keys.into_iter().map(&mut *f).collect(),
                residual: residual.map(&mut *f),
                kind,
            }
        }
        LogicalOp::IndexNlJoin { left, dataset, index, probe, var, kind } => {
            LogicalOp::IndexNlJoin { left, dataset, index, probe: f(probe), var, kind }
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
        LogicalOp::IndexSearch { dataset, index, var, spec, postcondition } => {
            LogicalOp::IndexSearch {
                dataset,
                index,
                var,
                spec,
                postcondition: postcondition.map(&mut *f),
            }
        }
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
/// [`split_conjunctions`], used right before access-path selection).
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
            LogicalOp::Join { left, right, condition: jcond, kind, index_nl_hint } => {
                let mut vars = Vec::new();
                condition.free_vars(&mut vars);
                let lb = left.bound_vars();
                let rb = right.bound_vars();
                if vars_subset(&vars, &lb) {
                    LogicalOp::Join {
                        left: Box::new(LogicalOp::Select { input: left, condition }),
                        right,
                        condition: jcond,
                        kind,
                        index_nl_hint,
                    }
                } else if vars_subset(&vars, &rb) && kind == JoinKind::Inner {
                    LogicalOp::Join {
                        left,
                        right: Box::new(LogicalOp::Select { input: right, condition }),
                        condition: jcond,
                        kind,
                        index_nl_hint,
                    }
                } else if kind == JoinKind::Inner {
                    // Fold into the join condition so equijoin extraction
                    // can see it.
                    LogicalOp::Join {
                        left,
                        right,
                        condition: and2(jcond, condition),
                        kind,
                        index_nl_hint,
                    }
                } else {
                    LogicalOp::Select {
                        input: Box::new(LogicalOp::Join {
                            left,
                            right,
                            condition: jcond,
                            kind,
                            index_nl_hint,
                        }),
                        condition,
                    }
                }
            }
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

/// Find equality conjuncts splitting cleanly across a join and convert the
/// cartesian `Join` into a `HashJoin`; honors the `indexnl` hint by
/// producing an `IndexNlJoin` when the inner side is a scan of a dataset
/// with a B-tree index on the join field — a bare scan, or (inner joins)
/// one under pushed-down selects, which then move above the join.
pub fn extract_equijoins(plan: LogicalOp, provider: &Arc<dyn MetadataProvider>) -> LogicalOp {
    plan.transform_up(&mut |op| {
        let LogicalOp::Join { left, right, condition, kind, index_nl_hint } = op else {
            return op;
        };
        let mut cs = Vec::new();
        conjuncts_of(condition, &mut cs);
        let lb = left.bound_vars();
        let rb = right.bound_vars();
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
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
        if left_keys.is_empty() {
            // Not an equijoin: keep as nested-loop join.
            let condition = residual
                .into_iter()
                .reduce(and2)
                .unwrap_or(LogicalExpr::Const(Value::Boolean(true)));
            return LogicalOp::Join { left, right, condition, kind, index_nl_hint };
        }
        let residual = residual.into_iter().reduce(and2);

        // `indexnl` hint: if the right side is a dataset scan and the right
        // key is a B-tree-indexed field of it, use the index. Selects pushed
        // down onto the scan are peeled off and re-applied above the join
        // — inner joins only: above a left-outer join they would drop the
        // padded rows.
        if index_nl_hint && left_keys.len() == 1 {
            let mut peeled = Vec::new();
            let mut inner = right.as_ref();
            while let (LogicalOp::Select { input, condition }, JoinKind::Inner) = (inner, kind) {
                peeled.push(condition.clone());
                inner = input;
            }
            if let LogicalOp::DataSourceScan { dataset, var } = inner {
                if let Some(field) = field_of(&right_keys[0], *var) {
                    if let Some(ix) = find_btree_index(provider, dataset, &field) {
                        let out = LogicalOp::IndexNlJoin {
                            left,
                            dataset: dataset.clone(),
                            index: ix,
                            probe: left_keys.into_iter().next().unwrap(),
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
        LogicalOp::HashJoin { left, right, left_keys, right_keys, residual, kind }
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

/// Replace `Select* over DataSourceScan` with an `IndexSearch` when one of
/// the select conditions is sargable against the primary key or a secondary
/// index. The consumed conditions become the search's postcondition — the
/// §4.4 post-validation select that Figure 6 shows above the primary-index
/// search.
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

    // 2. Secondary B-tree ranges.
    for ix in indexes.iter().filter(|i| i.kind == IndexKind::BTree) {
        let Some(field) = ix.fields.first() else { continue };
        if let Some(acc) = collect_range(conditions, var, field) {
            return Some(finish_search(
                dataset,
                &ix.name,
                var,
                IndexSearchSpec::BTreeRange { lo: acc.lo, hi: acc.hi },
                conditions,
                &acc.used,
            ));
        }
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

/// Build the IndexSearch and re-apply unused conditions as selects above.
fn finish_search(
    dataset: &str,
    index: &str,
    var: VarId,
    spec: IndexSearchSpec,
    all_conditions: &[LogicalExpr],
    used: &[LogicalExpr],
) -> LogicalOp {
    let post = used.iter().cloned().reduce(and2);
    let mut out = LogicalOp::IndexSearch {
        dataset: dataset.to_string(),
        index: index.to_string(),
        var,
        spec,
        postcondition: post,
    };
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

/// Rewrite `Assign(v, agg(Var(g)))` over `GroupBy{.., Listify g := e}` into
/// a direct aggregate in the GroupBy, dropping the Listify when it has no
/// other uses. This avoids materializing group member lists that exist
/// only to be counted/summed — the §5.2 materialization lesson.
pub fn fuse_group_aggregates(plan: LogicalOp) -> LogicalOp {
    use crate::plan::{AggCall, AggFunc};
    use std::collections::HashMap;

    // Pass 1: listify vars and their member-input expressions.
    let mut listify: HashMap<VarId, LogicalExpr> = HashMap::new();
    fn walk(op: &LogicalOp, f: &mut impl FnMut(&LogicalOp)) {
        f(op);
        for i in op.inputs() {
            walk(i, f);
        }
    }
    walk(&plan, &mut |op| {
        if let LogicalOp::GroupBy { aggs, .. } = op {
            for a in aggs {
                if a.func == AggFunc::Listify {
                    listify.insert(a.var, a.input.clone());
                }
            }
        }
    });
    if listify.is_empty() {
        return plan;
    }

    // Pass 2: classify every use of each listify var. A use is *fusable*
    // when it is exactly `Assign(v, <agg>(Var(g)))`; anything else blocks
    // fusion for that var.
    let mut blocked: std::collections::HashSet<VarId> = Default::default();
    // (assign var, agg func, sql, listify var)
    let mut fusable: Vec<(VarId, AggFunc, bool, VarId)> = Vec::new();
    walk(&plan, &mut |op| {
        let note_expr = |e: &LogicalExpr, blocked: &mut std::collections::HashSet<VarId>| {
            let mut vars = Vec::new();
            e.free_vars(&mut vars);
            for v in vars {
                if listify.contains_key(&v) {
                    blocked.insert(v);
                }
            }
        };
        match op {
            LogicalOp::Assign { var, expr, .. } => {
                if let LogicalExpr::Call(name, args) = expr {
                    if args.len() == 1 {
                        if let (Some((func, sql)), LogicalExpr::Var(g)) =
                            (AggFunc::from_name(name), &args[0])
                        {
                            if listify.contains_key(g) {
                                fusable.push((*var, func, sql, *g));
                                return;
                            }
                        }
                    }
                }
                note_expr(expr, &mut blocked);
            }
            LogicalOp::GroupBy { keys, aggs, .. } => {
                // The defining GroupBy's own Listify inputs don't count as
                // uses; key exprs and other agg inputs do.
                for (_, e) in keys {
                    note_expr(e, &mut blocked);
                }
                for a in aggs {
                    if a.func != AggFunc::Listify {
                        note_expr(&a.input, &mut blocked);
                    }
                }
            }
            other => {
                // Every expression of every other operator is a general use.
                let mut vars = Vec::new();
                other.free_vars(&mut vars);
                // free_vars excludes vars bound in the subtree; listify vars
                // are bound below, so inspect expressions directly instead.
                let mut exprs: Vec<&LogicalExpr> = Vec::new();
                match other {
                    LogicalOp::Select { condition, .. } => exprs.push(condition),
                    LogicalOp::Unnest { expr, .. } | LogicalOp::Emit { expr, .. } => {
                        exprs.push(expr)
                    }
                    LogicalOp::Join { condition, .. } => exprs.push(condition),
                    LogicalOp::HashJoin { left_keys, right_keys, residual, .. } => {
                        exprs.extend(left_keys.iter());
                        exprs.extend(right_keys.iter());
                        if let Some(r) = residual {
                            exprs.push(r);
                        }
                    }
                    LogicalOp::IndexNlJoin { probe, .. } => exprs.push(probe),
                    LogicalOp::Aggregate { aggs, .. } => {
                        exprs.extend(aggs.iter().map(|a| &a.input))
                    }
                    LogicalOp::Order { keys, .. } => exprs.extend(keys.iter().map(|k| &k.expr)),
                    LogicalOp::Distinct { exprs: es, .. } => exprs.extend(es.iter()),
                    LogicalOp::IndexSearch { postcondition: Some(p), .. } => exprs.push(p),
                    _ => {}
                }
                for e in exprs {
                    note_expr(e, &mut blocked);
                }
            }
        }
    });

    let fusable: Vec<_> = fusable.into_iter().filter(|(_, _, _, g)| !blocked.contains(g)).collect();
    if fusable.is_empty() {
        return plan;
    }
    let fused_assigns: std::collections::HashSet<VarId> =
        fusable.iter().map(|(v, _, _, _)| *v).collect();
    let dead_listifies: std::collections::HashSet<VarId> =
        fusable.iter().map(|(_, _, _, g)| *g).collect();

    // Pass 3: rebuild — drop the fused Assigns, extend GroupBys, remove
    // dead Listify aggregates.
    plan.transform_up(&mut |op| match op {
        LogicalOp::Assign { input, var, expr } => {
            if fused_assigns.contains(&var) {
                *input // the aggregate is now computed by the GroupBy
            } else {
                LogicalOp::Assign { input, var, expr }
            }
        }
        LogicalOp::GroupBy { input, keys, mut aggs } => {
            let my_listifies: Vec<VarId> =
                aggs.iter().filter(|a| a.func == AggFunc::Listify).map(|a| a.var).collect();
            for (v, func, sql, g) in &fusable {
                if my_listifies.contains(g) {
                    let member = listify.get(g).cloned().unwrap();
                    aggs.push(AggCall { var: *v, func: *func, sql: *sql, input: member });
                }
            }
            aggs.retain(|a| !(a.func == AggFunc::Listify && dead_listifies.contains(&a.var)));
            LogicalOp::GroupBy { input, keys, aggs }
        }
        other => other,
    })
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
            probe: crate::metadata::IndexProbe,
        ) -> asterix_hyracks::Result<asterix_hyracks::ops::SourceFn> {
            self.inner.secondary_search(d, i, probe)
        }
        fn primary_fetch(
            &self,
            d: &str,
            p: &crate::metadata::ScanProjection,
        ) -> asterix_hyracks::Result<asterix_hyracks::ops::FetchFn> {
            self.inner.primary_fetch(d, p)
        }
        fn scan_all(&self, d: &str) -> asterix_hyracks::Result<Vec<Value>> {
            self.inner.scan_all(d)
        }
        fn lookup_pk(&self, d: &str, pk: &[Value]) -> asterix_hyracks::Result<Option<Value>> {
            self.inner.lookup_pk(d, pk)
        }
        fn primary_range_all(
            &self,
            d: &str,
            lo: crate::metadata::KeyBound,
            hi: crate::metadata::KeyBound,
        ) -> asterix_hyracks::Result<Vec<Value>> {
            self.inner.primary_range_all(d, lo, hi)
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
                condition: eq(
                    LogicalExpr::field(var(0), "id"),
                    LogicalExpr::field(var(1), "author"),
                ),
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
                    condition: eq(
                        LogicalExpr::field(var(0), "id"),
                        LogicalExpr::field(var(1), "author"),
                    ),
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
