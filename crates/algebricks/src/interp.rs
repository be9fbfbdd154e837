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
//! a dataset gets here from a feed's apply function, never from a compiled
//! job (the rule moves it into the job), and reads only through the
//! sources a job takes: [`MetadataProvider::raw_scan_source`] and
//! [`MetadataProvider::secondary_search`].

use std::collections::{BTreeMap, HashMap};

use asterix_adm::ordkey::encode_values;
use asterix_adm::{AdmError, TupleRef, Value};

use crate::expr::{eval, truthy, EvalCtx, LogicalExpr, VarId, VarResolver};
use crate::metadata::{every_key, IndexProbe, KeyBound, MetadataProvider, ScanProjection};
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
            let (lo, hi) = (KeyBound::Unbounded, KeyBound::Unbounded);
            let records = read_records(&*ctx.provider, dataset, lo, hi).map_err(adm_err)?;
            Ok(records
                .into_iter()
                .map(|r| {
                    let mut env = Env::new();
                    env.insert(*var, r);
                    env
                })
                .collect())
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
        LogicalOp::Join { left, right, left_keys, right_keys, residual, kind, .. } => {
            let lrows = eval_rows(left, outer, ctx)?;
            let rrows = eval_rows(right, outer, ctx)?;
            let right_vars: Vec<VarId> = right.bound_vars();
            // A row's key values; `None` when one is unknown, as unknown
            // keys match nothing under `=`, or in a hash table.
            let keys_of = |env: &Env, keys: &[LogicalExpr]| -> asterix_adm::Result<_> {
                let res = ChainResolver { env, outer };
                let values: Vec<Value> =
                    keys.iter().map(|k| eval(k, &res, ctx)).collect::<Result<_, _>>()?;
                Ok((!values.iter().any(Value::is_unknown)).then_some(values))
            };
            let rkeys: Vec<Option<Vec<Value>>> =
                rrows.iter().map(|r| keys_of(r, right_keys)).collect::<Result<_, _>>()?;
            let mut out = Vec::new();
            for l in &lrows {
                let lkeys = keys_of(l, left_keys)?;
                let mut matched = false;
                for (r, rk) in rrows.iter().zip(&rkeys) {
                    let equal = match (&lkeys, rk) {
                        (Some(lk), Some(rk)) => {
                            lk.iter().zip(rk).all(|(a, b)| a.total_cmp(b).is_eq())
                        }
                        _ => false,
                    };
                    if !equal {
                        continue;
                    }
                    let mut env = l.clone();
                    env.extend(r.iter().map(|(k, v)| (*k, v.clone())));
                    let keep = match residual {
                        Some(c) => truthy(&eval(c, &ChainResolver { env: &env, outer }, ctx)?),
                        None => true,
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
        LogicalOp::IndexNlJoin { left, dataset, index, spec, postcondition, var, kind } => {
            let lrows = eval_rows(left, outer, ctx)?;
            let mut out = Vec::new();
            for l in lrows {
                let res = ChainResolver { env: &l, outer };
                let value = |e: &LogicalExpr| eval(e, &res, ctx);
                let provider = &*ctx.provider;
                let records = match spec {
                    IndexSearchSpec::PrimaryRange { lo, hi } => {
                        let (lo, hi) = (key_bound(lo, value)?, key_bound(hi, value)?);
                        read_records(provider, dataset, lo, hi)
                    }
                    _ => {
                        let probe = spec.probe(provider, dataset, index, value)?;
                        search_records(provider, dataset, index, probe)
                    }
                }
                .map_err(adm_err)?;
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

/// The records of `dataset` whose primary keys lie between `lo` and `hi`,
/// whole: the job's read of every partition in turn, with no field cut and
/// no filter pushed.
fn read_records(
    provider: &dyn MetadataProvider,
    dataset: &str,
    lo: KeyBound,
    hi: KeyBound,
) -> asterix_hyracks::Result<Vec<Value>> {
    let whole = ScanProjection { fields: None, filters: Vec::new() };
    let read = provider.raw_scan_source(dataset, &whole, lo, hi)?;
    let nparts = provider.partitions();
    let mut out = Vec::new();
    for p in 0..nparts {
        read(p, nparts, None, &mut |t| {
            out.push(TupleRef::new(t)?.field(0).to_value()?);
            Ok(())
        })?;
    }
    Ok(out)
}

/// The records a search of every partition of `index` for `probe` finds,
/// in key order; with no probe — the index cannot narrow the search, and
/// the caller's postcondition decides — every record. They are picked out
/// of a whole read of the dataset, not fetched by key, so the oracle
/// checks the compiled plan's key-list fetch against the scan.
fn search_records(
    provider: &dyn MetadataProvider,
    dataset: &str,
    index: &str,
    probe: Option<IndexProbe>,
) -> asterix_hyracks::Result<Vec<Value>> {
    let nparts = provider.partitions();
    // Keyed by the comparison key, in `total_cmp` order.
    let mut found: BTreeMap<Vec<u8>, Option<Value>> = BTreeMap::new();
    let mut want = |pk: &[u8]| {
        found.insert(encode_values(&asterix_adm::decode_tuple(pk)?), None);
        Ok(())
    };
    match probe {
        None => {
            let keys = every_key(provider, dataset)?;
            (0..nparts).try_for_each(|p| keys(p, nparts, None, &mut want))?;
        }
        Some(probe) => {
            let search = provider.secondary_search(dataset, index)?;
            search(0..nparts, std::slice::from_ref(&probe), &mut |_, pk| want(pk))?;
        }
    }
    if !found.is_empty() {
        let pk = provider.primary_key_fields(dataset);
        for r in read_records(provider, dataset, KeyBound::Unbounded, KeyBound::Unbounded)? {
            let key: Vec<Value> =
                pk.iter().map(|f| f.split('.').fold(r.clone(), |v, s| v.field(s))).collect();
            if let Some(slot) = found.get_mut(&encode_values(&key)) {
                *slot = Some(r);
            }
        }
    }
    Ok(found.into_values().flatten().collect())
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
    use crate::expr::CompareOp;
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
        let join = LogicalOp::Join {
            left: Box::new(scan("Users", 0)),
            right: Box::new(scan("Msgs", 1)),
            left_keys: vec![LogicalExpr::field(var(0), "id")],
            right_keys: vec![LogicalExpr::field(var(1), "author")],
            residual: None,
            kind: JoinKind::Inner,
            index_nl_hint: false,
        };
        let plan = emit(join.clone(), LogicalExpr::field(var(1), "mid"));
        let out = run(&plan, &ctx);
        assert_eq!(out.len(), 6);

        let outer_join = LogicalOp::Join {
            left: Box::new(scan("Users", 0)),
            right: Box::new(scan("Msgs", 1)),
            left_keys: vec![LogicalExpr::field(var(0), "id")],
            right_keys: vec![LogicalExpr::field(var(1), "author")],
            residual: None,
            kind: JoinKind::LeftOuter,
            index_nl_hint: false,
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
