//! Tuple-at-a-time interpreter for logical plans.
//!
//! It is the **differential-testing oracle** for the compiled (Hyracks)
//! path: integration tests run both over the same data and compare, and
//! over a plan before `optimize` it answers with the per-outer-row
//! semantics of nested queries that the decorrelation rule must keep.
//!
//! It also evaluates the **dataset-free subplans** that stay inside
//! expressions — `for $f in $u.friend-ids …`, an expression-bodied UDF,
//! the part of a decorrelated subquery that runs over the group's list.
//! Each evaluation sees the outer tuple's bindings. A subquery that reads
//! a dataset never gets here from a compiled job: the rule moves it into
//! the job, and job generation refuses one that is left.

use std::collections::HashMap;

use asterix_adm::{AdmError, Value};

use crate::expr::{eval, truthy, EvalCtx, VarId, VarResolver};
use crate::plan::{key_bound, AggCall, AggFunc, IndexSearchSpec, JoinKind, LogicalOp};

/// A row of variable bindings.
pub type Env = HashMap<VarId, Value>;

struct ChainResolver<'a> {
    env: &'a Env,
    outer: &'a dyn VarResolver,
}

impl VarResolver for ChainResolver<'_> {
    fn get(&self, var: VarId) -> Option<Value> {
        self.env.get(&var).cloned().or_else(|| self.outer.get(var))
    }
}

fn adm_err(msg: impl std::fmt::Display) -> AdmError {
    AdmError::InvalidArgument(msg.to_string())
}

/// Evaluate a subplan under outer bindings; the plan's root must be `Emit`,
/// and the result is the ordered list of emitted values.
pub fn eval_subplan(
    plan: &LogicalOp,
    outer: &dyn VarResolver,
    ctx: &EvalCtx,
) -> asterix_adm::Result<Vec<Value>> {
    match plan {
        LogicalOp::Emit { input, expr } => {
            let rows = eval_rows(input, outer, ctx)?;
            let mut out = Vec::with_capacity(rows.len());
            for env in rows {
                let r = ChainResolver { env: &env, outer };
                out.push(eval(expr, &r, ctx)?);
            }
            Ok(out)
        }
        other => Err(adm_err(format!("subplan root must be emit, found {}", other.op_name()))),
    }
}

/// Evaluate a plan subtree into binding rows.
pub fn eval_rows(
    op: &LogicalOp,
    outer: &dyn VarResolver,
    ctx: &EvalCtx,
) -> asterix_adm::Result<Vec<Env>> {
    match op {
        LogicalOp::EmptyTupleSource => Ok(vec![Env::new()]),
        LogicalOp::DataSourceScan { dataset, var } => {
            let records = ctx.provider.scan_all(dataset).map_err(adm_err)?;
            Ok(records
                .into_iter()
                .map(|r| {
                    let mut env = Env::new();
                    env.insert(*var, r);
                    env
                })
                .collect())
        }
        LogicalOp::IndexSearch { dataset, index, var, spec, postcondition } => {
            let records = index_search_records(dataset, index, spec, outer, ctx)?;
            let mut out = Vec::with_capacity(records.len());
            for r in records {
                let mut env = Env::new();
                env.insert(*var, r);
                if let Some(post) = postcondition {
                    let resolver = ChainResolver { env: &env, outer };
                    if !truthy(&eval(post, &resolver, ctx)?) {
                        continue;
                    }
                }
                out.push(env);
            }
            Ok(out)
        }
        LogicalOp::Assign { input, var, expr } => {
            let rows = eval_rows(input, outer, ctx)?;
            let mut out = Vec::with_capacity(rows.len());
            for mut env in rows {
                let v = {
                    let r = ChainResolver { env: &env, outer };
                    eval(expr, &r, ctx)?
                };
                env.insert(*var, v);
                out.push(env);
            }
            Ok(out)
        }
        LogicalOp::Select { input, condition } => {
            let rows = eval_rows(input, outer, ctx)?;
            let mut out = Vec::new();
            for env in rows {
                let keep = {
                    let r = ChainResolver { env: &env, outer };
                    truthy(&eval(condition, &r, ctx)?)
                };
                if keep {
                    out.push(env);
                }
            }
            Ok(out)
        }
        LogicalOp::Unnest { input, var, expr, positional, outer: is_outer } => {
            let rows = eval_rows(input, outer, ctx)?;
            let mut out = Vec::new();
            for env in rows {
                let coll = {
                    let r = ChainResolver { env: &env, outer };
                    eval(expr, &r, ctx)?
                };
                match coll.as_list() {
                    Some(items) if !items.is_empty() => {
                        for (i, item) in items.iter().enumerate() {
                            let mut e = env.clone();
                            e.insert(*var, item.clone());
                            if let Some(p) = positional {
                                e.insert(*p, Value::Int64(i as i64 + 1));
                            }
                            out.push(e);
                        }
                    }
                    _ if *is_outer => {
                        let mut e = env.clone();
                        e.insert(*var, Value::Missing);
                        if let Some(p) = positional {
                            e.insert(*p, Value::Missing);
                        }
                        out.push(e);
                    }
                    _ => {}
                }
            }
            Ok(out)
        }
        LogicalOp::Join { left, right, condition, kind, .. } => {
            let lrows = eval_rows(left, outer, ctx)?;
            let rrows = eval_rows(right, outer, ctx)?;
            let right_vars: Vec<VarId> = right.bound_vars();
            let mut out = Vec::new();
            for l in &lrows {
                let mut matched = false;
                for r in &rrows {
                    let mut env = l.clone();
                    env.extend(r.iter().map(|(k, v)| (*k, v.clone())));
                    let keep = {
                        let res = ChainResolver { env: &env, outer };
                        truthy(&eval(condition, &res, ctx)?)
                    };
                    if keep && *kind == JoinKind::Semi {
                        out.push(l.clone());
                        break;
                    }
                    if keep {
                        matched = true;
                        out.push(env);
                    }
                }
                if !matched && *kind == JoinKind::LeftOuter {
                    let mut env = l.clone();
                    for v in &right_vars {
                        env.insert(*v, Value::Null);
                    }
                    out.push(env);
                }
            }
            Ok(out)
        }
        LogicalOp::HashJoin { left, right, left_keys, right_keys, residual, kind } => {
            let lrows = eval_rows(left, outer, ctx)?;
            let rrows = eval_rows(right, outer, ctx)?;
            let right_vars: Vec<VarId> = right.bound_vars();
            // Hash the right side.
            let mut table: HashMap<u64, Vec<(Vec<Value>, &Env)>> = HashMap::new();
            for r in &rrows {
                let res = ChainResolver { env: r, outer };
                let mut keys = Vec::with_capacity(right_keys.len());
                let mut unknown = false;
                for k in right_keys {
                    let v = eval(k, &res, ctx)?;
                    if v.is_unknown() {
                        unknown = true;
                        break;
                    }
                    keys.push(v);
                }
                if unknown {
                    continue;
                }
                let h = combined_hash(&keys);
                table.entry(h).or_default().push((keys, r));
            }
            let mut out = Vec::new();
            for l in &lrows {
                let res = ChainResolver { env: l, outer };
                let mut keys = Vec::with_capacity(left_keys.len());
                let mut unknown = false;
                for k in left_keys {
                    let v = eval(k, &res, ctx)?;
                    if v.is_unknown() {
                        unknown = true;
                        break;
                    }
                    keys.push(v);
                }
                let mut matched = false;
                if !unknown {
                    if let Some(cands) = table.get(&combined_hash(&keys)) {
                        for (rkeys, r) in cands {
                            if rkeys.len() == keys.len()
                                && rkeys.iter().zip(&keys).all(|(a, b)| a.total_cmp(b).is_eq())
                            {
                                let mut env = l.clone();
                                env.extend(r.iter().map(|(k, v)| (*k, v.clone())));
                                let keep = match residual {
                                    None => true,
                                    Some(resid) => {
                                        let res2 = ChainResolver { env: &env, outer };
                                        truthy(&eval(resid, &res2, ctx)?)
                                    }
                                };
                                if keep {
                                    matched = true;
                                    out.push(env);
                                }
                            }
                        }
                    }
                }
                if !matched && *kind == JoinKind::LeftOuter {
                    let mut env = l.clone();
                    for v in &right_vars {
                        env.insert(*v, Value::Null);
                    }
                    out.push(env);
                }
            }
            Ok(out)
        }
        LogicalOp::IndexNlJoin { left, dataset, index, spec, postcondition, var, kind } => {
            let lrows = eval_rows(left, outer, ctx)?;
            let mut out = Vec::new();
            for l in lrows {
                let res = ChainResolver { env: &l, outer };
                let records = index_search_records(dataset, index, spec, &res, ctx)?;
                let mut matched = false;
                for r in records {
                    let mut env = l.clone();
                    env.insert(*var, r);
                    if let Some(post) = postcondition {
                        if !truthy(&eval(post, &ChainResolver { env: &env, outer }, ctx)?) {
                            continue;
                        }
                    }
                    matched = true;
                    out.push(env);
                }
                if !matched && *kind == JoinKind::LeftOuter {
                    let mut env = l;
                    env.insert(*var, Value::Null);
                    out.push(env);
                }
            }
            Ok(out)
        }
        LogicalOp::GroupBy { input, keys, aggs } => {
            let rows = eval_rows(input, outer, ctx)?;
            // Group rows by evaluated keys.
            let mut order: Vec<Vec<Value>> = Vec::new();
            let mut groups: Vec<Vec<Env>> = Vec::new();
            for env in rows {
                let res = ChainResolver { env: &env, outer };
                let mut kv = Vec::with_capacity(keys.len());
                for (_, ke) in keys {
                    kv.push(eval(ke, &res, ctx)?);
                }
                let idx = order.iter().position(|o| {
                    o.len() == kv.len() && o.iter().zip(&kv).all(|(a, b)| a.total_cmp(b).is_eq())
                });
                match idx {
                    Some(i) => groups[i].push(env),
                    None => {
                        order.push(kv);
                        groups.push(vec![env]);
                    }
                }
            }
            let mut out = Vec::with_capacity(groups.len());
            for (kv, members) in order.into_iter().zip(groups) {
                let mut env = Env::new();
                for ((kvar, _), v) in keys.iter().zip(kv) {
                    env.insert(*kvar, v);
                }
                for agg in aggs {
                    let v = eval_agg(agg, &members, outer, ctx)?;
                    env.insert(agg.var, v);
                }
                out.push(env);
            }
            Ok(out)
        }
        LogicalOp::Aggregate { input, aggs } => {
            let rows = eval_rows(input, outer, ctx)?;
            let mut env = Env::new();
            for agg in aggs {
                let v = eval_agg(agg, &rows, outer, ctx)?;
                env.insert(agg.var, v);
            }
            Ok(vec![env])
        }
        LogicalOp::Order { input, keys } => {
            let rows = eval_rows(input, outer, ctx)?;
            let mut keyed: Vec<(Vec<Value>, Env)> = Vec::with_capacity(rows.len());
            for env in rows {
                let res = ChainResolver { env: &env, outer };
                let mut kv = Vec::with_capacity(keys.len());
                for k in keys {
                    kv.push(eval(&k.expr, &res, ctx)?);
                }
                keyed.push((kv, env));
            }
            keyed.sort_by(|(a, _), (b, _)| {
                for (i, k) in keys.iter().enumerate() {
                    let ord = a[i].total_cmp(&b[i]);
                    let ord = if k.descending { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(keyed.into_iter().map(|(_, e)| e).collect())
        }
        LogicalOp::Limit { input, count, offset } => {
            let rows = eval_rows(input, outer, ctx)?;
            Ok(rows.into_iter().skip(*offset).take(*count).collect())
        }
        LogicalOp::Distinct { input, exprs } => {
            let rows = eval_rows(input, outer, ctx)?;
            let mut seen: Vec<Vec<Value>> = Vec::new();
            let mut out = Vec::new();
            for env in rows {
                let res = ChainResolver { env: &env, outer };
                let mut kv = Vec::with_capacity(exprs.len());
                for e in exprs {
                    kv.push(eval(e, &res, ctx)?);
                }
                let dup =
                    seen.iter().any(|o| o.iter().zip(&kv).all(|(a, b)| a.total_cmp(b).is_eq()));
                if !dup {
                    seen.push(kv);
                    out.push(env);
                }
            }
            Ok(out)
        }
        LogicalOp::Emit { .. } => Err(adm_err("emit cannot be nested below another operator")),
    }
}

fn combined_hash(keys: &[Value]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for k in keys {
        h ^= k.stable_hash();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Resolve an index search spec into matching records.
pub fn index_search_records(
    dataset: &str,
    index: &str,
    spec: &IndexSearchSpec,
    outer: &dyn VarResolver,
    ctx: &EvalCtx,
) -> asterix_adm::Result<Vec<Value>> {
    let value = |e: &crate::expr::LogicalExpr| eval(e, outer, ctx);
    if let IndexSearchSpec::PrimaryRange { lo, hi } = spec {
        let (lo, hi) = (key_bound(lo, value)?, key_bound(hi, value)?);
        return ctx.provider.primary_range_all(dataset, lo, hi).map_err(adm_err);
    }
    let probe = spec.probe(&*ctx.provider, dataset, index, value)?;
    let pks = ctx.provider.secondary_search_all(dataset, index, probe).map_err(adm_err)?;
    fetch_records(dataset, pks, ctx)
}

fn fetch_records(
    dataset: &str,
    mut pks: Vec<Vec<Value>>,
    ctx: &EvalCtx,
) -> asterix_adm::Result<Vec<Value>> {
    // Sort primary keys before the primary lookups — the same access-
    // pattern optimization Figure 6 shows.
    pks.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let c = x.total_cmp(y);
            if c != std::cmp::Ordering::Equal {
                return c;
            }
        }
        a.len().cmp(&b.len())
    });
    pks.dedup_by(|a, b| {
        a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.total_cmp(y).is_eq())
    });
    let mut out = Vec::with_capacity(pks.len());
    for pk in pks {
        if let Some(r) = ctx.provider.lookup_pk(dataset, &pk).map_err(adm_err)? {
            out.push(r);
        }
    }
    Ok(out)
}

fn eval_agg(
    agg: &AggCall,
    members: &[Env],
    outer: &dyn VarResolver,
    ctx: &EvalCtx,
) -> asterix_adm::Result<Value> {
    let mut values = Vec::with_capacity(members.len());
    for env in members {
        let res = ChainResolver { env, outer };
        values.push(eval(&agg.input, &res, ctx)?);
    }
    if agg.func == AggFunc::Listify {
        // A missing member does not exist: the list holds the others, as
        // the compiled group-by's listify does.
        values.retain(|v| !v.is_missing());
        return Ok(Value::ordered_list(values));
    }
    let list = Value::ordered_list(values);
    let name = match (agg.func, agg.sql) {
        (AggFunc::Count, false) => "count",
        (AggFunc::Sum, false) => "sum",
        (AggFunc::Min, false) => "min",
        (AggFunc::Max, false) => "max",
        (AggFunc::Avg, false) => "avg",
        (AggFunc::Count, true) => "sql-count",
        (AggFunc::Sum, true) => "sql-sum",
        (AggFunc::Min, true) => "sql-min",
        (AggFunc::Max, true) => "sql-max",
        (AggFunc::Avg, true) => "sql-avg",
        (AggFunc::Listify, _) => unreachable!(),
    };
    asterix_adm::functions::eval(name, &[list], &ctx.fn_ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CompareOp, LogicalExpr};
    use crate::metadata::tests_support::VecProvider;
    use crate::plan::build::*;
    use asterix_adm::functions::FunctionContext;
    use std::sync::Arc;

    fn users() -> Vec<Value> {
        (0..10i64)
            .map(|i| {
                asterix_adm::parse::parse_value(&format!(
                    r#"{{ "id": {i}, "name": "u{i}", "age": {} }}"#,
                    20 + i
                ))
                .unwrap()
            })
            .collect()
    }

    fn ctx_with_users() -> EvalCtx {
        let mut p = VecProvider::new(2);
        p.add("Users", "id", users());
        EvalCtx::new(Arc::new(p), FunctionContext::default())
    }

    fn run(plan: &LogicalOp, ctx: &EvalCtx) -> Vec<Value> {
        eval_subplan(plan, &Env::new(), ctx).unwrap()
    }

    #[test]
    fn scan_select_emit() {
        let ctx = ctx_with_users();
        let plan = emit(
            select(
                scan("Users", 0),
                LogicalExpr::Compare(
                    CompareOp::Ge,
                    Box::new(LogicalExpr::field(var(0), "age")),
                    Box::new(lit(Value::Int64(27))),
                ),
            ),
            LogicalExpr::field(var(0), "name"),
        );
        let out = run(&plan, &ctx);
        assert_eq!(out.len(), 3); // ages 27, 28, 29
    }

    #[test]
    fn correlated_subquery_sees_outer() {
        let ctx = ctx_with_users();
        // Outer binds var 9 = 5; subplan: users with id < $9.
        let sub = emit(
            select(
                scan("Users", 0),
                LogicalExpr::Compare(
                    CompareOp::Lt,
                    Box::new(LogicalExpr::field(var(0), "id")),
                    Box::new(var(9)),
                ),
            ),
            LogicalExpr::field(var(0), "id"),
        );
        let mut outer = Env::new();
        outer.insert(9, Value::Int64(5));
        let out = eval_subplan(&sub, &outer, &ctx).unwrap();
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn group_by_and_aggregates() {
        let ctx = ctx_with_users();
        // Group by id % 2, count.
        let plan = emit(
            LogicalOp::GroupBy {
                input: Box::new(scan("Users", 0)),
                keys: vec![(
                    1,
                    LogicalExpr::Arith(
                        '%',
                        Box::new(LogicalExpr::field(var(0), "id")),
                        Box::new(lit(Value::Int64(2))),
                    ),
                )],
                aggs: vec![AggCall { var: 2, func: AggFunc::Count, sql: false, input: var(0) }],
            },
            LogicalExpr::RecordCtor(vec![("k".into(), var(1)), ("n".into(), var(2))]),
        );
        let mut out = run(&plan, &ctx);
        out.sort_by(|a, b| a.field("k").total_cmp(&b.field("k")));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].field("n"), Value::Int64(5));
    }

    #[test]
    fn order_limit() {
        let ctx = ctx_with_users();
        let plan = emit(
            LogicalOp::Limit {
                input: Box::new(LogicalOp::Order {
                    input: Box::new(scan("Users", 0)),
                    keys: vec![crate::plan::SortSpec {
                        expr: LogicalExpr::field(var(0), "id"),
                        descending: true,
                    }],
                }),
                count: 3,
                offset: 0,
            },
            LogicalExpr::field(var(0), "id"),
        );
        let out = run(&plan, &ctx);
        assert_eq!(out, vec![Value::Int64(9), Value::Int64(8), Value::Int64(7)]);
    }

    #[test]
    fn hash_join_inner_and_outer() {
        let mut p = VecProvider::new(1);
        p.add("Users", "id", users());
        p.add(
            "Msgs",
            "mid",
            (0..6i64)
                .map(|m| {
                    asterix_adm::parse::parse_value(&format!(
                        r#"{{ "mid": {m}, "author": {} }}"#,
                        m % 3
                    ))
                    .unwrap()
                })
                .collect(),
        );
        let ctx = EvalCtx::new(Arc::new(p), FunctionContext::default());
        let join = LogicalOp::HashJoin {
            left: Box::new(scan("Users", 0)),
            right: Box::new(scan("Msgs", 1)),
            left_keys: vec![LogicalExpr::field(var(0), "id")],
            right_keys: vec![LogicalExpr::field(var(1), "author")],
            residual: None,
            kind: JoinKind::Inner,
        };
        let plan = emit(join.clone(), LogicalExpr::field(var(1), "mid"));
        let out = run(&plan, &ctx);
        assert_eq!(out.len(), 6);

        let outer_join = LogicalOp::HashJoin {
            left: Box::new(scan("Users", 0)),
            right: Box::new(scan("Msgs", 1)),
            left_keys: vec![LogicalExpr::field(var(0), "id")],
            right_keys: vec![LogicalExpr::field(var(1), "author")],
            residual: None,
            kind: JoinKind::LeftOuter,
        };
        let plan = emit(outer_join, LogicalExpr::field(var(0), "id"));
        let out = run(&plan, &ctx);
        // 6 matches + 7 unmatched users (ids 3..9).
        assert_eq!(out.len(), 13);
    }

    #[test]
    fn unnest_inner_and_outer() {
        let mut p = VecProvider::new(1);
        p.add(
            "D",
            "id",
            vec![
                asterix_adm::parse::parse_value(r#"{ "id": 1, "xs": [10, 20] }"#).unwrap(),
                asterix_adm::parse::parse_value(r#"{ "id": 2, "xs": [] }"#).unwrap(),
            ],
        );
        let ctx = EvalCtx::new(Arc::new(p), FunctionContext::default());
        let inner = emit(
            LogicalOp::Unnest {
                input: Box::new(scan("D", 0)),
                var: 1,
                expr: LogicalExpr::field(var(0), "xs"),
                positional: None,
                outer: false,
            },
            var(1),
        );
        assert_eq!(run(&inner, &ctx).len(), 2);
        let outer_plan = emit(
            LogicalOp::Unnest {
                input: Box::new(scan("D", 0)),
                var: 1,
                expr: LogicalExpr::field(var(0), "xs"),
                positional: Some(2),
                outer: true,
            },
            var(1),
        );
        let out = run(&outer_plan, &ctx);
        assert_eq!(out.len(), 3); // 2 items + 1 empty row with missing
        assert!(out.iter().any(|v| v.is_missing()));
    }

    #[test]
    fn distinct_rows() {
        let ctx = ctx_with_users();
        let plan = emit(
            LogicalOp::Distinct {
                input: Box::new(scan("Users", 0)),
                exprs: vec![LogicalExpr::Arith(
                    '%',
                    Box::new(LogicalExpr::field(var(0), "id")),
                    Box::new(lit(Value::Int64(3))),
                )],
            },
            lit(Value::Boolean(true)),
        );
        assert_eq!(run(&plan, &ctx).len(), 3);
    }
}
