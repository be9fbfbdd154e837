//! Statement normalization for the plan cache (prepared queries).
//!
//! [`normalize_query`] walks a parsed query expression and lifts every
//! literal constant into a parameter vector, replacing it with an
//! [`Expr::Param`] slot numbered in walk order. Two queries that differ
//! only in constants normalize to the same shape — `$x.f < 5` and
//! `$x.f < 7` produce identical fingerprints — so they share one compiled
//! plan, re-bound per execution with their own parameter vectors.
//!
//! What is *not* parameterized:
//! * `limit`/`offset` expressions — the translator folds them into the
//!   plan's `Limit` operator at compile time (`const_usize` requires a
//!   constant), so they stay literal and differing limits get distinct
//!   cache entries;
//! * anything that is not a literal (dataset names, field names,
//!   variables, function names, hints) — those are the query's shape.
//!
//! Session state that changes a query's *translation* (current dataverse,
//! `simfunction`/`simthreshold`) is not visible in the AST; the cache key
//! built on top of the fingerprint must include it (see the asterixdb
//! crate's plan cache).

use asterix_adm::Value;

use crate::ast::{Clause, Expr, Flwor};

/// A query normalized for caching: the literal-stripped expression, the
/// lifted literals (the statement's own parameter vector), and a canonical
/// fingerprint of the stripped shape.
#[derive(Debug, Clone)]
pub struct NormalizedQuery {
    /// The query with literals replaced by `Expr::Param` slots.
    pub expr: Expr,
    /// The lifted literals, in slot order. Executing the normalized query
    /// with exactly these parameters is equivalent to the original.
    pub params: Vec<Value>,
    /// Canonical text of the literal-stripped AST — identical across
    /// queries differing only in parameterizable constants.
    pub fingerprint: String,
}

/// Normalize a parsed query expression (the body of `Statement::Query`).
pub fn normalize_query(expr: &Expr) -> NormalizedQuery {
    let mut params = Vec::new();
    let stripped = lift_expr(expr, &mut params);
    let fingerprint = format!("{stripped:?}");
    NormalizedQuery { expr: stripped, params, fingerprint }
}

fn lift_expr(e: &Expr, params: &mut Vec<Value>) -> Expr {
    match e {
        Expr::Literal(v) => {
            params.push(v.clone());
            Expr::Param(params.len() - 1)
        }
        // Already a slot (normalizing an already-normalized tree is the
        // identity on shape; keep the existing numbering).
        Expr::Param(i) => Expr::Param(*i),
        Expr::Variable(_) | Expr::DatasetAccess { .. } => e.clone(),
        Expr::FieldAccess(base, name) => {
            Expr::FieldAccess(Box::new(lift_expr(base, params)), name.clone())
        }
        Expr::IndexAccess(base, idx) => {
            Expr::IndexAccess(Box::new(lift_expr(base, params)), Box::new(lift_expr(idx, params)))
        }
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(|a| lift_expr(a, params)).collect(),
        },
        Expr::Arith(op, a, b) => {
            Expr::Arith(*op, Box::new(lift_expr(a, params)), Box::new(lift_expr(b, params)))
        }
        Expr::Neg(a) => Expr::Neg(Box::new(lift_expr(a, params))),
        Expr::Compare { op, left, right, index_nl_hint } => Expr::Compare {
            op: *op,
            left: Box::new(lift_expr(left, params)),
            right: Box::new(lift_expr(right, params)),
            index_nl_hint: *index_nl_hint,
        },
        Expr::And(es) => Expr::And(es.iter().map(|x| lift_expr(x, params)).collect()),
        Expr::Or(es) => Expr::Or(es.iter().map(|x| lift_expr(x, params)).collect()),
        Expr::Not(a) => Expr::Not(Box::new(lift_expr(a, params))),
        Expr::RecordCtor(fields) => Expr::RecordCtor(
            fields.iter().map(|(n, x)| (n.clone(), lift_expr(x, params))).collect(),
        ),
        Expr::ListCtor { ordered, items } => Expr::ListCtor {
            ordered: *ordered,
            items: items.iter().map(|x| lift_expr(x, params)).collect(),
        },
        Expr::Quantified { q, var, collection, predicate } => Expr::Quantified {
            q: *q,
            var: var.clone(),
            collection: Box::new(lift_expr(collection, params)),
            predicate: Box::new(lift_expr(predicate, params)),
        },
        Expr::IfThenElse(c, t, e2) => Expr::IfThenElse(
            Box::new(lift_expr(c, params)),
            Box::new(lift_expr(t, params)),
            Box::new(lift_expr(e2, params)),
        ),
        Expr::Flwor(f) => Expr::Flwor(Box::new(lift_flwor(f, params))),
    }
}

fn lift_flwor(f: &Flwor, params: &mut Vec<Value>) -> Flwor {
    Flwor {
        clauses: f.clauses.iter().map(|c| lift_clause(c, params)).collect(),
        ret: lift_expr(&f.ret, params),
    }
}

fn lift_clause(c: &Clause, params: &mut Vec<Value>) -> Clause {
    match c {
        Clause::For { var, positional, source } => Clause::For {
            var: var.clone(),
            positional: positional.clone(),
            source: lift_expr(source, params),
        },
        Clause::Let { var, expr } => {
            Clause::Let { var: var.clone(), expr: lift_expr(expr, params) }
        }
        Clause::Where(e) => Clause::Where(lift_expr(e, params)),
        Clause::GroupBy { keys, with } => Clause::GroupBy {
            keys: keys.iter().map(|(n, e)| (n.clone(), lift_expr(e, params))).collect(),
            with: with.clone(),
        },
        Clause::OrderBy(keys) => {
            Clause::OrderBy(keys.iter().map(|(e, d)| (lift_expr(e, params), *d)).collect())
        }
        // Limit/offset stay literal: the translator requires compile-time
        // constants here (they shape the plan's Limit operator), so
        // differing limits are legitimately different cache entries.
        Clause::Limit { .. } => c.clone(),
        Clause::DistinctBy(es) => {
            Clause::DistinctBy(es.iter().map(|e| lift_expr(e, params)).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;

    fn norm(src: &str) -> NormalizedQuery {
        normalize_query(&parse_expression(src).unwrap())
    }

    #[test]
    fn literals_lift_in_walk_order() {
        let n = norm("for $x in [1, 2, 3] where $x.f < 5 return $x");
        assert_eq!(
            n.params,
            vec![Value::Int64(1), Value::Int64(2), Value::Int64(3), Value::Int64(5)]
        );
        assert!(!format!("{:?}", n.expr).contains("Literal"), "{:?}", n.expr);
    }

    #[test]
    fn differing_literals_share_a_fingerprint() {
        let a = norm("for $x in dataset Metadata.Dataverse where $x.f < 5 return $x.f");
        let b = norm("for $x in dataset Metadata.Dataverse where $x.f < 7 return $x.f");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.params, b.params);
    }

    #[test]
    fn differing_shapes_do_not_collide() {
        let a = norm("for $x in dataset Metadata.Dataverse where $x.f < 5 return $x.f");
        let b = norm("for $x in dataset Metadata.Dataverse where $x.g < 5 return $x.f");
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn limit_and_offset_stay_literal() {
        let a = norm("for $x in dataset Metadata.Dataverse limit 5 return $x");
        let b = norm("for $x in dataset Metadata.Dataverse limit 10 return $x");
        assert_ne!(a.fingerprint, b.fingerprint, "limits must not share an entry");
        assert!(a.params.is_empty(), "limit literal must not be lifted: {:?}", a.params);
        let c = norm("for $x in dataset Metadata.Dataverse limit 5 offset 2 return $x");
        assert!(c.params.is_empty());
    }

    #[test]
    fn a_delete_is_a_query_whose_condition_literals_lift() {
        let pk = ["id".to_string(), "at.day".to_string()];
        let delete = |src: &str| {
            let cond = parse_expression(src).unwrap();
            normalize_query(&crate::ast::delete_query("d", "Dv", "DS", &pk, Some(cond)))
        };
        let (a, b) = (delete("$d.id = 2"), delete("$d.id = 3"));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!((a.params, b.params), (vec![Value::Int64(2)], vec![Value::Int64(3)]));
        let written = norm("for $d in dataset Dv.DS where $d.id = 2 return [$d.id, $d.at.day]");
        assert_eq!(a.fingerprint, written.fingerprint, "the same AST as the query text");
    }

    #[test]
    fn normalization_is_idempotent_on_shape() {
        let once = norm("for $x in dataset Metadata.Dataverse where $x.f = \"a\" return $x");
        let mut again_params = Vec::new();
        let again = super::lift_expr(&once.expr, &mut again_params);
        assert_eq!(format!("{again:?}"), once.fingerprint);
        assert!(again_params.is_empty());
    }
}
