//! Logical expressions and their evaluator.
//!
//! Expressions are shared by the interpreter and the compiled path (which
//! wraps them in closures over runtime tuples). Evaluation needs a
//! [`VarResolver`] for variable bindings and an [`EvalCtx`] carrying the
//! statement clock, fuzzy-match session settings, and the metadata provider
//! (for the subplans the interpreter evaluates).

use std::sync::Arc;

use asterix_adm::functions::{self, FunctionContext};
use asterix_adm::{AdmError, Value};

use crate::metadata::MetadataProvider;
use crate::plan::LogicalOp;

/// A compiler-assigned variable id (`$user` → some VarId).
pub type VarId = usize;

/// Comparison operators, including the fuzzy `~=` of Queries 6/13.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    FuzzyEq,
}

/// Quantifier kinds (Query 7/8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantKind {
    Some,
    Every,
}

/// A logical expression.
#[derive(Debug, Clone)]
pub enum LogicalExpr {
    Const(Value),
    Var(VarId),
    /// `$x.field` — missing-propagating field access.
    FieldAccess(Box<LogicalExpr>, String),
    /// `$x[i]` — list indexing (0-based, as in AQL).
    IndexAccess(Box<LogicalExpr>, Box<LogicalExpr>),
    /// Builtin function call.
    Call(String, Vec<LogicalExpr>),
    /// `+ - * / %`.
    Arith(char, Box<LogicalExpr>, Box<LogicalExpr>),
    /// Unary minus.
    Neg(Box<LogicalExpr>),
    Compare(CompareOp, Box<LogicalExpr>, Box<LogicalExpr>),
    And(Vec<LogicalExpr>),
    Or(Vec<LogicalExpr>),
    Not(Box<LogicalExpr>),
    /// `{ "name": expr, ... }` — record constructor.
    RecordCtor(Vec<(String, LogicalExpr)>),
    /// `[ ... ]` / `{{ ... }}`.
    ListCtor {
        ordered: bool,
        items: Vec<LogicalExpr>,
    },
    /// `some/every $v in <coll> satisfies <pred>`.
    Quantified {
        kind: QuantKind,
        var: VarId,
        collection: Box<LogicalExpr>,
        predicate: Box<LogicalExpr>,
    },
    /// `if (c) then a else b` (used by some rewrites; AQL surface syntax
    /// does not expose it in this subset but the algebra supports it).
    IfThenElse(Box<LogicalExpr>, Box<LogicalExpr>, Box<LogicalExpr>),
    /// A correlated subplan (nested FLWOR). Evaluates to the ordered list
    /// of its emitted values under the outer bindings.
    Subquery(Arc<LogicalOp>),
    /// A parameter slot filled at bind time from [`EvalCtx::params`].
    /// Produced by AQL statement normalization (literal lifting) — never by
    /// the parser — so cached plans can be re-instantiated with different
    /// constants.
    Param(usize),
}

impl LogicalExpr {
    pub fn call(name: impl Into<String>, args: Vec<LogicalExpr>) -> LogicalExpr {
        LogicalExpr::Call(name.into(), args)
    }

    pub fn field(base: LogicalExpr, name: impl Into<String>) -> LogicalExpr {
        LogicalExpr::FieldAccess(Box::new(base), name.into())
    }

    /// Calls `f` on each direct sub-expression, in order (a subquery's
    /// plan is not one).
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a LogicalExpr)) {
        match self {
            LogicalExpr::Const(_)
            | LogicalExpr::Var(_)
            | LogicalExpr::Subquery(_)
            | LogicalExpr::Param(_) => {}
            LogicalExpr::FieldAccess(e, _) | LogicalExpr::Neg(e) | LogicalExpr::Not(e) => f(e),
            LogicalExpr::IndexAccess(a, b)
            | LogicalExpr::Arith(_, a, b)
            | LogicalExpr::Compare(_, a, b)
            | LogicalExpr::Quantified { collection: a, predicate: b, .. } => {
                f(a);
                f(b);
            }
            LogicalExpr::Call(_, es)
            | LogicalExpr::And(es)
            | LogicalExpr::Or(es)
            | LogicalExpr::ListCtor { items: es, .. } => es.iter().for_each(f),
            LogicalExpr::RecordCtor(fields) => fields.iter().for_each(|(_, e)| f(e)),
            LogicalExpr::IfThenElse(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
        }
    }

    /// Calls `f` on the plan of each subquery the expression holds, outside
    /// the plans of other subqueries.
    pub fn for_each_subquery<'a>(&'a self, f: &mut impl FnMut(&'a LogicalOp)) {
        match self {
            LogicalExpr::Subquery(plan) => f(plan),
            e => e.for_each_child(&mut |c| c.for_each_subquery(f)),
        }
    }

    /// Whether the expression holds a subquery that reads a dataset.
    pub fn reads_dataset(&self) -> bool {
        let mut reads = false;
        self.for_each_subquery(&mut |plan| reads |= plan.reads_dataset());
        reads
    }

    /// The largest variable id the expression names, bound (by a
    /// quantifier or inside a subquery) or free.
    pub fn max_var(&self) -> Option<VarId> {
        let mut max = match self {
            LogicalExpr::Var(v) | LogicalExpr::Quantified { var: v, .. } => Some(*v),
            LogicalExpr::Subquery(plan) => plan.max_var(),
            _ => None,
        };
        self.for_each_child(&mut |c| max = max.max(c.max_var()));
        max
    }

    /// Collect every variable referenced by this expression (free
    /// variables; quantifier/subplan-bound variables are excluded).
    pub fn free_vars(&self, out: &mut Vec<VarId>) {
        match self {
            LogicalExpr::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            LogicalExpr::Quantified { var, collection, predicate, .. } => {
                collection.free_vars(out);
                let mut inner = Vec::new();
                predicate.free_vars(&mut inner);
                for v in inner {
                    if v != *var && !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            LogicalExpr::Subquery(plan) => {
                let mut inner = Vec::new();
                plan.free_vars(&mut inner);
                let bound = plan.bound_vars();
                for v in inner {
                    if !bound.contains(&v) && !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            // Params bind to per-execution constants, not tuple variables,
            // so they are variable-free for plan analysis (ordkey
            // classification, projection inference).
            e => e.for_each_child(&mut |c| c.free_vars(out)),
        }
    }

    /// True when the expression references no variables and no clock- or
    /// data-dependent function (safe to constant-fold).
    pub fn is_foldable_const(&self) -> bool {
        match self {
            LogicalExpr::Const(_) => true,
            // A param's value is unknown until bind time: folding it into
            // the cached plan would freeze one execution's constant.
            LogicalExpr::Var(_) | LogicalExpr::Subquery(_) | LogicalExpr::Param(_) => false,
            LogicalExpr::Call(name, args) => {
                !matches!(name.as_str(), "current-datetime" | "current-date" | "current-time")
                    && args.iter().all(|a| a.is_foldable_const())
            }
            LogicalExpr::FieldAccess(e, _) | LogicalExpr::Neg(e) | LogicalExpr::Not(e) => {
                e.is_foldable_const()
            }
            LogicalExpr::IndexAccess(a, b)
            | LogicalExpr::Arith(_, a, b)
            | LogicalExpr::Compare(_, a, b) => a.is_foldable_const() && b.is_foldable_const(),
            LogicalExpr::And(es) | LogicalExpr::Or(es) => es.iter().all(|e| e.is_foldable_const()),
            LogicalExpr::RecordCtor(fs) => fs.iter().all(|(_, e)| e.is_foldable_const()),
            LogicalExpr::ListCtor { items, .. } => items.iter().all(|e| e.is_foldable_const()),
            LogicalExpr::Quantified { collection, predicate, .. } => {
                collection.is_foldable_const() && predicate.is_foldable_const()
            }
            LogicalExpr::IfThenElse(c, t, e) => {
                c.is_foldable_const() && t.is_foldable_const() && e.is_foldable_const()
            }
        }
    }
}

/// The expression as `explain` prints it: variables as `$vN`, a subquery
/// as `(subplan)`, whose plan the operator's `subplan` block shows.
impl std::fmt::Display for LogicalExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let list = |f: &mut std::fmt::Formatter<'_>, es: &[LogicalExpr], sep: &str| {
            es.iter()
                .enumerate()
                .try_for_each(|(i, e)| write!(f, "{}{e}", if i == 0 { "" } else { sep }))
        };
        match self {
            LogicalExpr::Const(v) => write!(f, "{}", asterix_adm::print::to_adm_string(v)),
            LogicalExpr::Var(v) => write!(f, "$v{v}"),
            LogicalExpr::Param(i) => write!(f, "?{i}"),
            LogicalExpr::FieldAccess(base, name) => write!(f, "{base}.{name}"),
            LogicalExpr::IndexAccess(base, i) => write!(f, "{base}[{i}]"),
            LogicalExpr::Call(name, args) => {
                write!(f, "{name}(")?;
                list(f, args, ", ")?;
                write!(f, ")")
            }
            LogicalExpr::Arith(op, a, b) => write!(f, "({a} {op} {b})"),
            LogicalExpr::Neg(e) => write!(f, "-{e}"),
            LogicalExpr::Compare(op, a, b) => {
                let op = match op {
                    CompareOp::Eq => "=",
                    CompareOp::Neq => "!=",
                    CompareOp::Lt => "<",
                    CompareOp::Le => "<=",
                    CompareOp::Gt => ">",
                    CompareOp::Ge => ">=",
                    CompareOp::FuzzyEq => "~=",
                };
                write!(f, "({a} {op} {b})")
            }
            LogicalExpr::And(es) | LogicalExpr::Or(es) => {
                let sep = if matches!(self, LogicalExpr::And(_)) { " and " } else { " or " };
                write!(f, "(")?;
                list(f, es, sep)?;
                write!(f, ")")
            }
            LogicalExpr::Not(e) => write!(f, "not({e})"),
            LogicalExpr::RecordCtor(fields) => {
                write!(f, "{{")?;
                for (i, (name, e)) in fields.iter().enumerate() {
                    write!(f, "{}\"{name}\": {e}", if i == 0 { " " } else { ", " })?;
                }
                write!(f, " }}")
            }
            LogicalExpr::ListCtor { ordered, items } => {
                let (open, close) = if *ordered { ("[", "]") } else { ("{{", "}}") };
                write!(f, "{open}")?;
                list(f, items, ", ")?;
                write!(f, "{close}")
            }
            LogicalExpr::Quantified { kind, var, collection, predicate } => {
                let kind = if *kind == QuantKind::Some { "some" } else { "every" };
                write!(f, "({kind} $v{var} in {collection} satisfies {predicate})")
            }
            LogicalExpr::IfThenElse(c, t, e) => write!(f, "(if {c} then {t} else {e})"),
            LogicalExpr::Subquery(_) => write!(f, "(subplan)"),
        }
    }
}

/// Variable resolution during evaluation.
pub trait VarResolver {
    fn get(&self, var: VarId) -> Option<Value>;
}

/// Resolver over a hash map (interpreter bindings).
impl VarResolver for std::collections::HashMap<VarId, Value> {
    fn get(&self, var: VarId) -> Option<Value> {
        std::collections::HashMap::get(self, &var).cloned()
    }
}

/// Resolver layering one binding over another resolver (quantifiers,
/// subplans).
pub struct Overlay<'a> {
    pub base: &'a dyn VarResolver,
    pub var: VarId,
    pub value: Value,
}

impl VarResolver for Overlay<'_> {
    fn get(&self, var: VarId) -> Option<Value> {
        if var == self.var {
            Some(self.value.clone())
        } else {
            self.base.get(var)
        }
    }
}

/// Resolver over a runtime tuple plus a VarId → column map (compiled path).
pub struct TupleResolver<'a> {
    pub columns: &'a [Option<usize>],
    pub tuple: &'a [Value],
}

impl VarResolver for TupleResolver<'_> {
    fn get(&self, var: VarId) -> Option<Value> {
        self.columns.get(var).copied().flatten().and_then(|i| self.tuple.get(i).cloned())
    }
}

/// Evaluation context shared by interpreter and compiled closures.
pub struct EvalCtx {
    pub provider: Arc<dyn MetadataProvider>,
    pub fn_ctx: FunctionContext,
    /// Bind-time values for [`LogicalExpr::Param`] slots (empty for
    /// non-parameterized plans).
    pub params: Vec<Value>,
}

impl EvalCtx {
    pub fn new(provider: Arc<dyn MetadataProvider>, fn_ctx: FunctionContext) -> EvalCtx {
        EvalCtx { provider, fn_ctx, params: Vec::new() }
    }

    pub fn with_params(
        provider: Arc<dyn MetadataProvider>,
        fn_ctx: FunctionContext,
        params: Vec<Value>,
    ) -> EvalCtx {
        EvalCtx { provider, fn_ctx, params }
    }
}

/// Evaluate an expression to a value.
pub fn eval(
    expr: &LogicalExpr,
    vars: &dyn VarResolver,
    ctx: &EvalCtx,
) -> asterix_adm::Result<Value> {
    match expr {
        LogicalExpr::Const(v) => Ok(v.clone()),
        LogicalExpr::Param(i) => ctx.params.get(*i).cloned().ok_or_else(|| {
            asterix_adm::AdmError::InvalidArgument(format!("unbound parameter ${i}"))
        }),
        LogicalExpr::Var(v) => Ok(vars.get(*v).unwrap_or(Value::Missing)),
        LogicalExpr::FieldAccess(base, name) => Ok(eval(base, vars, ctx)?.field(name)),
        LogicalExpr::IndexAccess(base, idx) => {
            let b = eval(base, vars, ctx)?;
            let i = eval(idx, vars, ctx)?;
            match (b.as_list(), i.as_i64()) {
                (Some(items), Some(i)) if i >= 0 && (i as usize) < items.len() => {
                    Ok(items[i as usize].clone())
                }
                _ => Ok(Value::Missing),
            }
        }
        LogicalExpr::Call(name, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, vars, ctx)?);
            }
            functions::eval(name, &vals, &ctx.fn_ctx)
        }
        LogicalExpr::Arith(op, a, b) => {
            functions::arith(*op, &eval(a, vars, ctx)?, &eval(b, vars, ctx)?)
        }
        LogicalExpr::Neg(e) => functions::neg(&eval(e, vars, ctx)?),
        LogicalExpr::Compare(op, a, b) => {
            let va = eval(a, vars, ctx)?;
            let vb = eval(b, vars, ctx)?;
            compare(*op, &va, &vb, &ctx.fn_ctx)
        }
        LogicalExpr::And(es) => {
            let mut saw_unknown = false;
            for e in es {
                match eval(e, vars, ctx)? {
                    Value::Boolean(false) => return Ok(Value::Boolean(false)),
                    Value::Boolean(true) => {}
                    v if v.is_unknown() => saw_unknown = true,
                    other => {
                        return Err(AdmError::InvalidArgument(format!(
                            "and over {}",
                            other.type_name()
                        )))
                    }
                }
            }
            Ok(if saw_unknown { Value::Null } else { Value::Boolean(true) })
        }
        LogicalExpr::Or(es) => {
            let mut saw_unknown = false;
            for e in es {
                match eval(e, vars, ctx)? {
                    Value::Boolean(true) => return Ok(Value::Boolean(true)),
                    Value::Boolean(false) => {}
                    v if v.is_unknown() => saw_unknown = true,
                    other => {
                        return Err(AdmError::InvalidArgument(format!(
                            "or over {}",
                            other.type_name()
                        )))
                    }
                }
            }
            Ok(if saw_unknown { Value::Null } else { Value::Boolean(false) })
        }
        LogicalExpr::Not(e) => match eval(e, vars, ctx)? {
            Value::Boolean(b) => Ok(Value::Boolean(!b)),
            v if v.is_unknown() => Ok(Value::Null),
            other => Err(AdmError::InvalidArgument(format!("not over {}", other.type_name()))),
        },
        LogicalExpr::RecordCtor(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (name, e) in fields {
                out.push((name.clone(), eval(e, vars, ctx)?));
            }
            Ok(functions::build_record(out))
        }
        LogicalExpr::ListCtor { ordered, items } => {
            let mut out = Vec::with_capacity(items.len());
            for e in items {
                out.push(eval(e, vars, ctx)?);
            }
            Ok(functions::build_list(out, *ordered))
        }
        LogicalExpr::Quantified { kind, var, collection, predicate } => {
            let coll = eval(collection, vars, ctx)?;
            let Some(items) = coll.as_list() else {
                // Quantification over non-collections / unknowns: `some`
                // finds nothing, `every` is vacuously true.
                return Ok(Value::Boolean(*kind == QuantKind::Every));
            };
            for item in items {
                let overlay = Overlay { base: vars, var: *var, value: item.clone() };
                let p = eval(predicate, &overlay, ctx)?;
                match (kind, p) {
                    (QuantKind::Some, Value::Boolean(true)) => return Ok(Value::Boolean(true)),
                    (QuantKind::Every, Value::Boolean(true)) => {}
                    (QuantKind::Every, _) => return Ok(Value::Boolean(false)),
                    (QuantKind::Some, _) => {}
                }
            }
            Ok(Value::Boolean(*kind == QuantKind::Every))
        }
        LogicalExpr::IfThenElse(c, t, e) => match eval(c, vars, ctx)? {
            Value::Boolean(true) => eval(t, vars, ctx),
            _ => eval(e, vars, ctx),
        },
        LogicalExpr::Subquery(plan) => {
            let rows = crate::interp::eval_subplan(plan, vars, ctx)?;
            Ok(Value::ordered_list(rows))
        }
    }
}

/// Evaluate a comparison with AQL semantics (unknown operands → null).
pub fn compare(
    op: CompareOp,
    a: &Value,
    b: &Value,
    fn_ctx: &FunctionContext,
) -> asterix_adm::Result<Value> {
    if op == CompareOp::FuzzyEq {
        return Ok(Value::Boolean(asterix_adm::similarity::fuzzy_eq(
            a,
            b,
            &fn_ctx.simfunction,
            &fn_ctx.simthreshold,
        )?));
    }
    if a.is_unknown() || b.is_unknown() {
        return Ok(Value::Null);
    }
    let ord = a.total_cmp(b);
    Ok(Value::Boolean(match op {
        CompareOp::Eq => ord.is_eq(),
        CompareOp::Neq => !ord.is_eq(),
        CompareOp::Lt => ord.is_lt(),
        CompareOp::Le => ord.is_le(),
        CompareOp::Gt => ord.is_gt(),
        CompareOp::Ge => ord.is_ge(),
        CompareOp::FuzzyEq => unreachable!(),
    }))
}

/// Truthiness at a select boundary: unknown collapses to false.
pub fn truthy(v: &Value) -> bool {
    matches!(v, Value::Boolean(true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::tests_support::EmptyProvider;
    use std::collections::HashMap;

    fn ctx() -> EvalCtx {
        EvalCtx::new(Arc::new(EmptyProvider), FunctionContext::default())
    }

    fn ev(e: &LogicalExpr) -> Value {
        eval(e, &HashMap::new(), &ctx()).unwrap()
    }

    #[test]
    fn arithmetic_and_compare() {
        let e = LogicalExpr::Arith(
            '+',
            Box::new(LogicalExpr::Const(Value::Int64(1))),
            Box::new(LogicalExpr::Const(Value::Int64(1))),
        );
        assert_eq!(ev(&e), Value::Int64(2)); // "1+1 is a valid AQL query"
        let c = LogicalExpr::Compare(
            CompareOp::Lt,
            Box::new(e),
            Box::new(LogicalExpr::Const(Value::Int64(5))),
        );
        assert_eq!(ev(&c), Value::Boolean(true));
    }

    #[test]
    fn three_valued_logic() {
        let unknown = LogicalExpr::Compare(
            CompareOp::Eq,
            Box::new(LogicalExpr::Const(Value::Null)),
            Box::new(LogicalExpr::Const(Value::Int64(1))),
        );
        assert_eq!(ev(&unknown), Value::Null);
        // false AND unknown = false; true AND unknown = unknown.
        let f = LogicalExpr::Const(Value::Boolean(false));
        let t = LogicalExpr::Const(Value::Boolean(true));
        assert_eq!(ev(&LogicalExpr::And(vec![f, unknown.clone()])), Value::Boolean(false));
        assert_eq!(ev(&LogicalExpr::And(vec![t.clone(), unknown.clone()])), Value::Null);
        // true OR unknown = true; false OR unknown = unknown.
        assert_eq!(ev(&LogicalExpr::Or(vec![t, unknown.clone()])), Value::Boolean(true));
        assert_eq!(
            ev(&LogicalExpr::Or(vec![LogicalExpr::Const(Value::Boolean(false)), unknown])),
            Value::Null
        );
    }

    #[test]
    fn field_and_index_access() {
        let rec = asterix_adm::parse::parse_value(r#"{ "a": { "b": [10, 20] } }"#).unwrap();
        let e = LogicalExpr::IndexAccess(
            Box::new(LogicalExpr::field(LogicalExpr::field(LogicalExpr::Const(rec), "a"), "b")),
            Box::new(LogicalExpr::Const(Value::Int64(1))),
        );
        assert_eq!(ev(&e), Value::Int64(20));
    }

    #[test]
    fn quantifiers() {
        let coll = LogicalExpr::Const(Value::ordered_list(vec![
            Value::Int64(1),
            Value::Int64(2),
            Value::Int64(3),
        ]));
        let some_gt2 = LogicalExpr::Quantified {
            kind: QuantKind::Some,
            var: 99,
            collection: Box::new(coll.clone()),
            predicate: Box::new(LogicalExpr::Compare(
                CompareOp::Gt,
                Box::new(LogicalExpr::Var(99)),
                Box::new(LogicalExpr::Const(Value::Int64(2))),
            )),
        };
        assert_eq!(ev(&some_gt2), Value::Boolean(true));
        let every_gt2 = LogicalExpr::Quantified {
            kind: QuantKind::Every,
            var: 99,
            collection: Box::new(coll),
            predicate: Box::new(LogicalExpr::Compare(
                CompareOp::Gt,
                Box::new(LogicalExpr::Var(99)),
                Box::new(LogicalExpr::Const(Value::Int64(2))),
            )),
        };
        assert_eq!(ev(&every_gt2), Value::Boolean(false));
        // every over empty collection is vacuously true.
        let empty = LogicalExpr::Quantified {
            kind: QuantKind::Every,
            var: 1,
            collection: Box::new(LogicalExpr::Const(Value::ordered_list(vec![]))),
            predicate: Box::new(LogicalExpr::Const(Value::Boolean(false))),
        };
        assert_eq!(ev(&empty), Value::Boolean(true));
    }

    #[test]
    fn record_ctor_drops_missing() {
        let e = LogicalExpr::RecordCtor(vec![
            ("a".into(), LogicalExpr::Const(Value::Int64(1))),
            ("b".into(), LogicalExpr::Const(Value::Missing)),
        ]);
        let v = ev(&e);
        assert_eq!(v.as_record().unwrap().len(), 1);
    }

    #[test]
    fn free_vars_exclude_bound() {
        let q = LogicalExpr::Quantified {
            kind: QuantKind::Some,
            var: 5,
            collection: Box::new(LogicalExpr::Var(3)),
            predicate: Box::new(LogicalExpr::Compare(
                CompareOp::Eq,
                Box::new(LogicalExpr::Var(5)),
                Box::new(LogicalExpr::Var(7)),
            )),
        };
        let mut vars = Vec::new();
        q.free_vars(&mut vars);
        vars.sort_unstable();
        assert_eq!(vars, vec![3, 7]);
    }

    #[test]
    fn foldability() {
        assert!(LogicalExpr::call("string-length", vec![LogicalExpr::Const(Value::string("abc"))])
            .is_foldable_const());
        assert!(!LogicalExpr::call("current-datetime", vec![]).is_foldable_const());
        assert!(!LogicalExpr::Var(0).is_foldable_const());
    }
}
