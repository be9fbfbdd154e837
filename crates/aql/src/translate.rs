//! AQL → Algebricks translation.
//!
//! FLWOR clauses become a pipeline of logical operators; adjacent dataset
//! `for` clauses become joins (which the optimizer turns into hash joins
//! when equality predicates exist — the paper's safe rule (b)); nested
//! FLWORs become correlated subplans; user-defined functions (views with
//! parameters, §2.5) are inlined at their call sites.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use asterix_adm::Value;
use asterix_algebricks::expr::{CompareOp, LogicalExpr, QuantKind, VarId};
use asterix_algebricks::plan::{AggCall, AggFunc, JoinKind, LogicalOp, SortSpec};

use crate::ast::*;

/// A stored user-defined function.
#[derive(Debug, Clone)]
pub struct FunctionDef {
    pub params: Vec<String>,
    pub body: Expr,
}

/// What the translator needs from the catalog: dataset name resolution
/// (against the session's `use dataverse`) and UDF lookup.
pub trait AqlCatalog {
    /// Resolve `name` (possibly `Dataverse.Name`) to the qualified dataset
    /// name, or `None` if no such dataset exists.
    fn resolve_dataset(&self, name: &str) -> Option<String>;

    /// Look up a user-defined function by name and arity.
    fn function(&self, name: &str, arity: usize) -> Option<FunctionDef>;
}

/// Translation errors.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslateError(pub String);

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "translation error: {}", self.0)
    }
}

impl std::error::Error for TranslateError {}

type TResult<T> = Result<T, TranslateError>;

fn terr<T>(msg: impl Into<String>) -> TResult<T> {
    Err(TranslateError(msg.into()))
}

/// The AQL-to-plan translator. One per statement.
pub struct Translator<'a> {
    catalog: &'a dyn AqlCatalog,
    next_var: usize,
    /// Session fuzzy-matching settings (`set simfunction/simthreshold`).
    pub simfunction: String,
    pub simthreshold: String,
    /// Inlining depth guard against recursive UDFs.
    depth: usize,
}

/// Variable scope: AQL variable name → compiler variable id.
pub type Scope = HashMap<String, VarId>;

impl<'a> Translator<'a> {
    pub fn new(catalog: &'a dyn AqlCatalog) -> Translator<'a> {
        Translator {
            catalog,
            next_var: 0,
            simfunction: "jaccard".into(),
            simthreshold: "0.5".into(),
            depth: 0,
        }
    }

    fn fresh(&mut self) -> VarId {
        let v = self.next_var;
        self.next_var += 1;
        v
    }

    /// Allocate a fresh variable id (for callers seeding scopes manually,
    /// e.g. feed compute functions).
    pub fn fresh_var(&mut self) -> VarId {
        self.fresh()
    }

    /// Translate a top-level query expression into an `Emit`-rooted plan.
    pub fn translate_query(&mut self, e: &Expr) -> TResult<LogicalOp> {
        let scope = Scope::new();
        match e {
            Expr::Flwor(f) => self.translate_flwor(f, &scope),
            other => {
                // Non-FLWOR query (e.g. `1+1`, or a bare function call):
                // one row from the empty tuple source. An aggregate over a
                // FLWOR — Query 10's `avg(for … return …)` — is a subquery
                // here, which the optimizer turns into a scalar aggregate.
                let expr = self.translate_expr(other, &scope)?;
                Ok(LogicalOp::Emit { input: Box::new(LogicalOp::EmptyTupleSource), expr })
            }
        }
    }

    fn translate_flwor(&mut self, f: &Flwor, outer: &Scope) -> TResult<LogicalOp> {
        let mut scope = outer.clone();
        let mut plan = LogicalOp::EmptyTupleSource;
        let mut saw_indexnl_hint = false;

        for clause in &f.clauses {
            match clause {
                Clause::For { var, positional, source } => {
                    let v = self.fresh();
                    let p = positional.as_ref().map(|_| self.fresh());
                    plan = self.translate_for_source(plan, source, v, p, &scope)?;
                    scope.insert(var.clone(), v);
                    if let (Some(pv), Some(pname)) = (p, positional) {
                        scope.insert(pname.clone(), pv);
                    }
                }
                Clause::Let { var, expr } => {
                    let e = self.translate_expr(expr, &scope)?;
                    let v = self.fresh();
                    plan = LogicalOp::Assign { input: Box::new(plan), var: v, expr: e };
                    scope.insert(var.clone(), v);
                }
                Clause::Where(cond) => {
                    if contains_indexnl_hint(cond) {
                        saw_indexnl_hint = true;
                    }
                    let c = self.translate_expr(cond, &scope)?;
                    plan = LogicalOp::Select { input: Box::new(plan), condition: c };
                }
                Clause::GroupBy { keys, with } => {
                    let mut key_pairs = Vec::with_capacity(keys.len());
                    let mut new_scope = Scope::new();
                    // Keep outer (pre-FLWOR) variables visible: AQL group by
                    // hides only the FLWOR-local ungrouped variables.
                    for (name, v) in outer {
                        new_scope.insert(name.clone(), *v);
                    }
                    for (kname, kexpr) in keys {
                        let ke = self.translate_expr(kexpr, &scope)?;
                        let kv = self.fresh();
                        key_pairs.push((kv, ke));
                        new_scope.insert(kname.clone(), kv);
                    }
                    let mut aggs = Vec::with_capacity(with.len());
                    for wname in with {
                        let Some(&old) = scope.get(wname) else {
                            return terr(format!("undefined group variable ${wname}"));
                        };
                        let av = self.fresh();
                        aggs.push(AggCall {
                            var: av,
                            func: AggFunc::Listify,
                            sql: false,
                            input: LogicalExpr::Var(old),
                        });
                        new_scope.insert(wname.clone(), av);
                    }
                    plan = LogicalOp::GroupBy { input: Box::new(plan), keys: key_pairs, aggs };
                    scope = new_scope;
                }
                Clause::OrderBy(keys) => {
                    let mut specs = Vec::with_capacity(keys.len());
                    for (e, desc) in keys {
                        specs.push(SortSpec {
                            expr: self.translate_expr(e, &scope)?,
                            descending: *desc,
                        });
                    }
                    plan = LogicalOp::Order { input: Box::new(plan), keys: specs };
                }
                Clause::Limit { count, offset } => {
                    let c = self.const_usize(count, &scope)?;
                    let o = match offset {
                        Some(e) => self.const_usize(e, &scope)?,
                        None => 0,
                    };
                    plan = LogicalOp::Limit { input: Box::new(plan), count: c, offset: o };
                }
                Clause::DistinctBy(exprs) => {
                    let mut es = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        es.push(self.translate_expr(e, &scope)?);
                    }
                    plan = LogicalOp::Distinct { input: Box::new(plan), exprs: es };
                }
            }
        }
        let ret = self.translate_expr(&f.ret, &scope)?;
        let mut plan = LogicalOp::Emit { input: Box::new(plan), expr: ret };
        if saw_indexnl_hint {
            plan = mark_joins_indexnl(plan);
        }
        Ok(plan)
    }

    /// Translate the source of a `for` clause, combining with the plan so
    /// far (scan / join for datasets, unnest for everything else).
    fn translate_for_source(
        &mut self,
        plan: LogicalOp,
        source: &Expr,
        var: VarId,
        positional: Option<VarId>,
        scope: &Scope,
    ) -> TResult<LogicalOp> {
        // Iterating a dataset?
        if let Expr::DatasetAccess { dataverse, name } = source {
            let qualified = self.resolve_dataset(dataverse, name)?;
            let scan = LogicalOp::DataSourceScan { dataset: qualified, var };
            if positional.is_some() {
                return terr("positional variables are not supported over datasets");
            }
            return Ok(match plan {
                LogicalOp::EmptyTupleSource => scan,
                prev => LogicalOp::Join {
                    left: Box::new(prev),
                    right: Box::new(scan),
                    condition: LogicalExpr::Const(Value::Boolean(true)),
                    kind: JoinKind::Inner,
                    index_nl_hint: false,
                },
            });
        }
        // General collection expression: unnest.
        let e = self.translate_expr(source, scope)?;
        Ok(LogicalOp::Unnest { input: Box::new(plan), var, expr: e, positional, outer: false })
    }

    fn resolve_dataset(&self, dataverse: &Option<String>, name: &str) -> TResult<String> {
        let full = match dataverse {
            Some(dv) => format!("{dv}.{name}"),
            None => name.to_string(),
        };
        self.catalog
            .resolve_dataset(&full)
            .ok_or_else(|| TranslateError(format!("cannot find dataset {full}")))
    }

    fn const_usize(&mut self, e: &Expr, scope: &Scope) -> TResult<usize> {
        let le = self.translate_expr(e, scope)?;
        match le {
            LogicalExpr::Const(v) => {
                v.as_i64().filter(|i| *i >= 0).map(|i| i as usize).ok_or_else(|| {
                    TranslateError("limit/offset must be a non-negative integer".into())
                })
            }
            _ => terr("limit/offset must be a constant"),
        }
    }

    /// Translate an expression under a variable scope.
    pub fn translate_expr(&mut self, e: &Expr, scope: &Scope) -> TResult<LogicalExpr> {
        Ok(match e {
            Expr::Literal(v) => LogicalExpr::Const(v.clone()),
            Expr::Param(i) => LogicalExpr::Param(*i),
            Expr::Variable(name) => match scope.get(name) {
                Some(v) => LogicalExpr::Var(*v),
                None => return terr(format!("undefined variable ${name}")),
            },
            Expr::DatasetAccess { dataverse, name } => {
                // A dataset used as a value: subquery returning its records.
                let qualified = self.resolve_dataset(dataverse, name)?;
                let v = self.fresh();
                LogicalExpr::Subquery(Arc::new(LogicalOp::Emit {
                    input: Box::new(LogicalOp::DataSourceScan { dataset: qualified, var: v }),
                    expr: LogicalExpr::Var(v),
                }))
            }
            Expr::FieldAccess(base, name) => {
                LogicalExpr::field(self.translate_expr(base, scope)?, name.clone())
            }
            Expr::IndexAccess(base, idx) => LogicalExpr::IndexAccess(
                Box::new(self.translate_expr(base, scope)?),
                Box::new(self.translate_expr(idx, scope)?),
            ),
            Expr::Arith(op, a, b) => LogicalExpr::Arith(
                match op {
                    ArithOp::Add => '+',
                    ArithOp::Sub => '-',
                    ArithOp::Mul => '*',
                    ArithOp::Div => '/',
                    ArithOp::Mod => '%',
                },
                Box::new(self.translate_expr(a, scope)?),
                Box::new(self.translate_expr(b, scope)?),
            ),
            Expr::Neg(a) => LogicalExpr::Neg(Box::new(self.translate_expr(a, scope)?)),
            Expr::Compare { op, left, right, .. } => {
                let l = self.translate_expr(left, scope)?;
                let r = self.translate_expr(right, scope)?;
                if *op == CmpOp::FuzzyEq && self.simfunction == "edit-distance" {
                    // Lower `~=` under edit-distance to a named predicate so
                    // the ngram-index rule can recognize it.
                    let t: i64 = self.simthreshold.parse().map_err(|_| {
                        TranslateError(format!(
                            "simthreshold {:?} is not an integer",
                            self.simthreshold
                        ))
                    })?;
                    LogicalExpr::call(
                        "edit-distance-ok",
                        vec![l, r, LogicalExpr::Const(Value::Int64(t))],
                    )
                } else {
                    LogicalExpr::Compare(
                        match op {
                            CmpOp::Eq => CompareOp::Eq,
                            CmpOp::Neq => CompareOp::Neq,
                            CmpOp::Lt => CompareOp::Lt,
                            CmpOp::Le => CompareOp::Le,
                            CmpOp::Gt => CompareOp::Gt,
                            CmpOp::Ge => CompareOp::Ge,
                            CmpOp::FuzzyEq => CompareOp::FuzzyEq,
                        },
                        Box::new(l),
                        Box::new(r),
                    )
                }
            }
            Expr::And(es) => {
                let mut out = Vec::with_capacity(es.len());
                for x in es {
                    out.push(self.translate_expr(x, scope)?);
                }
                LogicalExpr::And(out)
            }
            Expr::Or(es) => {
                let mut out = Vec::with_capacity(es.len());
                for x in es {
                    out.push(self.translate_expr(x, scope)?);
                }
                LogicalExpr::Or(out)
            }
            Expr::Not(a) => LogicalExpr::Not(Box::new(self.translate_expr(a, scope)?)),
            Expr::RecordCtor(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (name, x) in fields {
                    out.push((name.clone(), self.translate_expr(x, scope)?));
                }
                LogicalExpr::RecordCtor(out)
            }
            Expr::ListCtor { ordered, items } => {
                let mut out = Vec::with_capacity(items.len());
                for x in items {
                    out.push(self.translate_expr(x, scope)?);
                }
                LogicalExpr::ListCtor { ordered: *ordered, items: out }
            }
            Expr::Quantified { q, var, collection, predicate } => {
                let coll = self.translate_expr(collection, scope)?;
                let v = self.fresh();
                let mut inner = scope.clone();
                inner.insert(var.clone(), v);
                let pred = self.translate_expr(predicate, &inner)?;
                LogicalExpr::Quantified {
                    kind: match q {
                        Quantifier::Some => QuantKind::Some,
                        Quantifier::Every => QuantKind::Every,
                    },
                    var: v,
                    collection: Box::new(coll),
                    predicate: Box::new(pred),
                }
            }
            Expr::IfThenElse(c, t, e2) => LogicalExpr::IfThenElse(
                Box::new(self.translate_expr(c, scope)?),
                Box::new(self.translate_expr(t, scope)?),
                Box::new(self.translate_expr(e2, scope)?),
            ),
            Expr::Flwor(f) => LogicalExpr::Subquery(Arc::new(self.translate_flwor(f, scope)?)),
            Expr::Call { name, args } => {
                // `dataset("X")`-style calls are not in the subset; check
                // UDFs first (they shadow nothing — builtin names win).
                if asterix_adm::functions::is_builtin(name) {
                    let mut out = Vec::with_capacity(args.len());
                    for a in args {
                        out.push(self.translate_expr(a, scope)?);
                    }
                    LogicalExpr::Call(name.clone(), out)
                } else if let Some(def) = self.catalog.function(name, args.len()) {
                    self.inline_udf(&def, args, scope)?
                } else {
                    return terr(format!("unknown function {name}({} args)", args.len()));
                }
            }
        })
    }

    /// Inline a UDF call: `f($a) { <flwor> }` becomes a subquery whose plan
    /// binds the parameters with assigns before the body's clauses.
    fn inline_udf(
        &mut self,
        def: &FunctionDef,
        args: &[Expr],
        scope: &Scope,
    ) -> TResult<LogicalExpr> {
        if self.depth > 16 {
            return terr("UDF inlining too deep (recursive function?)");
        }
        self.depth += 1;
        let result = (|| {
            // Bind parameters to fresh vars assigned from the arguments.
            let mut inner_scope = scope.clone();
            let mut assigns: Vec<(VarId, LogicalExpr)> = Vec::with_capacity(args.len());
            for (param, arg) in def.params.iter().zip(args) {
                let e = self.translate_expr(arg, scope)?;
                let v = self.fresh();
                assigns.push((v, e));
                inner_scope.insert(param.clone(), v);
            }
            match &def.body {
                Expr::Flwor(f) => {
                    let body = self.translate_flwor(f, &inner_scope)?;
                    // Prepend the parameter assigns below the body's leaves:
                    // wrap them as outer bindings using a synthetic pipeline:
                    // Emit is the root; we rewrite its input to join with an
                    // assign chain only when parameters exist.
                    let plan =
                        if assigns.is_empty() { body } else { prepend_assigns(body, assigns) };
                    Ok(LogicalExpr::Subquery(Arc::new(plan)))
                }
                other => {
                    // Expression-bodied function: a single-row subplan.
                    let body = self.translate_expr(other, &inner_scope)?;
                    let mut plan: LogicalOp = LogicalOp::EmptyTupleSource;
                    for (v, e) in assigns {
                        plan = LogicalOp::Assign { input: Box::new(plan), var: v, expr: e };
                    }
                    let sub = LogicalOp::Emit { input: Box::new(plan), expr: body };
                    // The subquery yields a 1-element list; take item 0.
                    Ok(LogicalExpr::IndexAccess(
                        Box::new(LogicalExpr::Subquery(Arc::new(sub))),
                        Box::new(LogicalExpr::Const(Value::Int64(0))),
                    ))
                }
            }
        })();
        self.depth -= 1;
        result
    }
}

/// Insert parameter assigns at the bottom of a plan tree (below the
/// leftmost source).
fn prepend_assigns(plan: LogicalOp, assigns: Vec<(VarId, LogicalExpr)>) -> LogicalOp {
    // Build the assign chain over the empty source.
    let mut chain = LogicalOp::EmptyTupleSource;
    for (v, e) in assigns {
        chain = LogicalOp::Assign { input: Box::new(chain), var: v, expr: e };
    }
    // Replace the leftmost leaf of `plan` with a join against the chain
    // (one row, so semantically a parameter binding).
    fn rewrite(op: LogicalOp, chain: &mut Option<LogicalOp>) -> LogicalOp {
        match op {
            LogicalOp::EmptyTupleSource => match chain.take() {
                Some(c) => c,
                None => LogicalOp::EmptyTupleSource,
            },
            LogicalOp::DataSourceScan { .. } | LogicalOp::IndexSearch { .. } => {
                match chain.take() {
                    Some(c) => LogicalOp::Join {
                        left: Box::new(c),
                        right: Box::new(op),
                        condition: LogicalExpr::Const(Value::Boolean(true)),
                        kind: JoinKind::Inner,
                        index_nl_hint: false,
                    },
                    None => op,
                }
            }
            LogicalOp::Assign { input, var, expr } => {
                LogicalOp::Assign { input: Box::new(rewrite(*input, chain)), var, expr }
            }
            LogicalOp::Select { input, condition } => {
                LogicalOp::Select { input: Box::new(rewrite(*input, chain)), condition }
            }
            LogicalOp::Unnest { input, var, expr, positional, outer } => LogicalOp::Unnest {
                input: Box::new(rewrite(*input, chain)),
                var,
                expr,
                positional,
                outer,
            },
            LogicalOp::Join { left, right, condition, kind, index_nl_hint } => LogicalOp::Join {
                left: Box::new(rewrite(*left, chain)),
                right,
                condition,
                kind,
                index_nl_hint,
            },
            LogicalOp::GroupBy { input, keys, aggs } => {
                LogicalOp::GroupBy { input: Box::new(rewrite(*input, chain)), keys, aggs }
            }
            LogicalOp::Aggregate { input, aggs } => {
                LogicalOp::Aggregate { input: Box::new(rewrite(*input, chain)), aggs }
            }
            LogicalOp::Order { input, keys } => {
                LogicalOp::Order { input: Box::new(rewrite(*input, chain)), keys }
            }
            LogicalOp::Limit { input, count, offset } => {
                LogicalOp::Limit { input: Box::new(rewrite(*input, chain)), count, offset }
            }
            LogicalOp::Distinct { input, exprs } => {
                LogicalOp::Distinct { input: Box::new(rewrite(*input, chain)), exprs }
            }
            LogicalOp::Emit { input, expr } => {
                LogicalOp::Emit { input: Box::new(rewrite(*input, chain)), expr }
            }
            other => other,
        }
    }
    rewrite(plan, &mut Some(chain))
}

/// Does the condition AST contain an `/*+ indexnl */`-hinted comparison?
fn contains_indexnl_hint(e: &Expr) -> bool {
    match e {
        Expr::Compare { index_nl_hint: true, .. } => true,
        Expr::Compare { left, right, .. } => {
            contains_indexnl_hint(left) || contains_indexnl_hint(right)
        }
        Expr::And(es) | Expr::Or(es) => es.iter().any(contains_indexnl_hint),
        Expr::Not(x) | Expr::Neg(x) => contains_indexnl_hint(x),
        _ => false,
    }
}

/// Set the `indexnl` hint on every join in the plan (the paper's hints are
/// per-query in practice: Query 14 has exactly one join).
fn mark_joins_indexnl(plan: LogicalOp) -> LogicalOp {
    plan.transform_up(&mut |op| match op {
        LogicalOp::Join { left, right, condition, kind, .. } => {
            LogicalOp::Join { left, right, condition, kind, index_nl_hint: true }
        }
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;

    struct TestCatalog;

    impl AqlCatalog for TestCatalog {
        fn resolve_dataset(&self, name: &str) -> Option<String> {
            let known = [
                "MugshotUsers",
                "MugshotMessages",
                "AccessLog",
                "Metadata.Dataset",
                "Metadata.Index",
            ];
            known
                .iter()
                .find(|k| **k == name || k.split('.').next_back() == Some(name))
                .map(|k| format!("TinySocial.{}", k.split('.').next_back().unwrap()))
        }

        fn function(&self, name: &str, arity: usize) -> Option<FunctionDef> {
            if name == "unemployed" && arity == 0 {
                let body = parse_expression(
                    r#"for $msu in dataset MugshotUsers
                       where every $e in $msu.employment satisfies not(is-null($e.end-date))
                       return { "name" : $msu.name }"#,
                )
                .unwrap();
                return Some(FunctionDef { params: vec![], body });
            }
            if name == "add2" && arity == 1 {
                let body = parse_expression("$x + 2").unwrap();
                return Some(FunctionDef { params: vec!["x".into()], body });
            }
            None
        }
    }

    fn translate(src: &str) -> LogicalOp {
        let e = parse_expression(src).unwrap();
        Translator::new(&TestCatalog).translate_query(&e).unwrap()
    }

    #[test]
    fn simple_scan_return() {
        let plan = translate("for $ds in dataset Metadata.Dataset return $ds");
        let p = plan.pretty();
        assert!(p.contains("data-scan TinySocial.Dataset"), "{p}");
        assert!(p.starts_with("emit"), "{p}");
    }

    #[test]
    fn two_fors_become_join() {
        let plan = translate(
            r#"for $user in dataset MugshotUsers
               for $message in dataset MugshotMessages
               where $message.author-id = $user.id
               return { "uname": $user.name }"#,
        );
        let p = plan.pretty();
        assert!(p.contains("join"), "{p}");
        assert!(p.matches("data-scan").count() == 2, "{p}");
    }

    #[test]
    fn hint_marks_join() {
        let plan = translate(
            r#"for $user in dataset MugshotUsers
               for $message in dataset MugshotMessages
               where $message.author-id /*+ indexnl */ = $user.id
               return $user"#,
        );
        fn has_hinted_join(op: &LogicalOp) -> bool {
            if let LogicalOp::Join { index_nl_hint: true, .. } = op {
                return true;
            }
            op.inputs().iter().any(|i| has_hinted_join(i))
        }
        assert!(has_hinted_join(&plan), "{}", plan.pretty());
    }

    #[test]
    fn group_by_with_listify() {
        let plan = translate(
            r#"for $msg in dataset MugshotMessages
               group by $aid := $msg.author-id with $msg
               let $cnt := count($msg)
               order by $cnt desc
               limit 3
               return { "author": $aid, "cnt": $cnt }"#,
        );
        let p = plan.pretty();
        assert!(p.contains("group-by (1 keys)"), "{p}");
        assert!(p.contains("order"), "{p}");
        assert!(p.contains("limit 3"), "{p}");
    }

    #[test]
    fn nested_flwor_is_subquery() {
        let plan = translate(
            r#"for $user in dataset MugshotUsers
               return {
                   "name": $user.name,
                   "messages": for $m in dataset MugshotMessages
                               where $m.author-id = $user.id
                               return $m.message
               }"#,
        );
        let LogicalOp::Emit { expr, .. } = &plan else { panic!() };
        let LogicalExpr::RecordCtor(fields) = expr else { panic!() };
        assert!(matches!(&fields[1].1, LogicalExpr::Subquery(_)));
    }

    #[test]
    fn let_scoping_and_undefined_vars() {
        let plan = translate("for $x in dataset MugshotUsers let $y := $x.id return $y");
        assert!(plan.pretty().contains("assign"));
        let e = parse_expression("for $x in dataset MugshotUsers return $zzz").unwrap();
        let err = Translator::new(&TestCatalog).translate_query(&e).unwrap_err();
        assert!(err.0.contains("zzz"), "{err}");
    }

    #[test]
    fn udf_flwor_inlining() {
        let plan = translate(
            r#"for $un in unemployed()
               where $un.name = "X"
               return $un"#,
        );
        let p = plan.pretty();
        // The UDF body becomes a subquery under an unnest.
        assert!(p.contains("unnest"), "{p}");
    }

    #[test]
    fn udf_expr_inlining() {
        let plan = translate("add2(40)");
        // Expression-bodied UDF: evaluates through a 1-row subplan.
        let LogicalOp::Emit { expr, .. } = &plan else { panic!() };
        assert!(matches!(expr, LogicalExpr::IndexAccess(..)), "{expr:?}");
    }

    #[test]
    fn fuzzy_lowering_depends_on_session() {
        let e = parse_expression(
            "for $m in dataset MugshotMessages where $m.message ~= \"tonight\" return $m",
        )
        .unwrap();
        let mut tr = Translator::new(&TestCatalog);
        tr.simfunction = "edit-distance".into();
        tr.simthreshold = "3".into();
        let plan = tr.translate_query(&e).unwrap();
        fn find_call(op: &LogicalOp, name: &str) -> bool {
            fn expr_has(e: &LogicalExpr, name: &str) -> bool {
                match e {
                    LogicalExpr::Call(n, args) => {
                        n == name || args.iter().any(|a| expr_has(a, name))
                    }
                    _ => false,
                }
            }
            if let LogicalOp::Select { condition, .. } = op {
                if expr_has(condition, name) {
                    return true;
                }
            }
            op.inputs().iter().any(|i| find_call(i, name))
        }
        assert!(find_call(&plan, "edit-distance-ok"), "{}", plan.pretty());

        // Under jaccard semantics the ~= stays a fuzzy comparison.
        let mut tr = Translator::new(&TestCatalog);
        tr.simfunction = "jaccard".into();
        let plan = tr.translate_query(&e).unwrap();
        assert!(!find_call(&plan, "edit-distance-ok"), "{}", plan.pretty());
    }

    #[test]
    fn unknown_dataset_and_function_error() {
        let e = parse_expression("for $x in dataset NoSuch return $x").unwrap();
        assert!(Translator::new(&TestCatalog).translate_query(&e).is_err());
        let e = parse_expression("nosuchfn(1, 2)").unwrap();
        assert!(Translator::new(&TestCatalog).translate_query(&e).is_err());
    }

    #[test]
    fn quantified_scoping() {
        let plan = translate(
            r#"for $u in dataset MugshotUsers
               where some $e in $u.employment satisfies $e.job-kind = "part-time"
               return $u"#,
        );
        assert!(plan.pretty().contains("select"), "{}", plan.pretty());
    }

    #[test]
    fn non_flwor_query() {
        let plan = translate("1 + 1");
        let LogicalOp::Emit { input, .. } = &plan else { panic!() };
        assert!(matches!(**input, LogicalOp::EmptyTupleSource));
    }
}
