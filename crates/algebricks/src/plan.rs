//! The logical operator algebra.
//!
//! Plans are single-rooted trees; each operator produces a stream of
//! variable bindings. This mirrors Algebricks' logical operators (assign,
//! select, unnest, join, group-by, order, limit, distinct, datasource-scan)
//! plus the access-path operators that the index-introduction rules insert.

use asterix_adm::strings::Tokenizer;
use asterix_adm::{AdmError, Value};

use crate::expr::{LogicalExpr, VarId};
use crate::metadata::{IndexKind, IndexProbe, KeyBound, MetadataProvider};

/// Join kinds. AQL surfaces inner joins and (through nested plans /
/// outer-unnest) left-outer semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    /// Left-outer: unmatched left tuples survive with right vars null.
    LeftOuter,
}

/// Aggregate function in a group-by / scalar aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
    /// Materialize group members as an ordered list (AQL `with $var`).
    Listify,
}

impl AggFunc {
    /// Map AQL function names (count/sum/... and sql-* variants) to
    /// (function, sql-semantics flag).
    pub fn from_name(name: &str) -> Option<(AggFunc, bool)> {
        Some(match name {
            "count" => (AggFunc::Count, false),
            "sum" => (AggFunc::Sum, false),
            "min" => (AggFunc::Min, false),
            "max" => (AggFunc::Max, false),
            "avg" => (AggFunc::Avg, false),
            "sql-count" => (AggFunc::Count, true),
            "sql-sum" => (AggFunc::Sum, true),
            "sql-min" => (AggFunc::Min, true),
            "sql-max" => (AggFunc::Max, true),
            "sql-avg" => (AggFunc::Avg, true),
            _ => return None,
        })
    }
}

/// One aggregate computation: `var := func(input-expr)`.
#[derive(Debug, Clone)]
pub struct AggCall {
    pub var: VarId,
    pub func: AggFunc,
    pub sql: bool,
    pub input: LogicalExpr,
}

impl AggCall {
    /// The function's AQL name, as `explain` prints it: `count`,
    /// `sql-avg`, `listify`…
    pub fn name(&self) -> String {
        let func = match self.func {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
            AggFunc::Listify => "listify",
        };
        if self.sql {
            format!("sql-{func}")
        } else {
            func.into()
        }
    }
}

/// What `explain` appends to a group-by or aggregate: ` [aggs: count,listify]`.
fn aggs_label(aggs: &[AggCall]) -> String {
    let names: Vec<String> = aggs.iter().map(AggCall::name).collect();
    format!(" [aggs: {}]", if names.is_empty() { "none".into() } else { names.join(",") })
}

/// One sort key.
#[derive(Debug, Clone)]
pub struct SortSpec {
    pub expr: LogicalExpr,
    pub descending: bool,
}

/// Index search specifications inserted by the access-path rules.
///
/// Bounds and probes are expressions rather than constants so the same
/// plan shape works both for top-level queries (bounds fold to constants)
/// and for correlated subplans, where a bound may reference an outer
/// variable (e.g. Query 4's `author-id = $user.id` becomes a per-outer-
/// tuple B-tree probe). The `bool` on each bound is "inclusive".
#[derive(Debug, Clone)]
pub enum IndexSearchSpec {
    /// Range over the dataset's *primary* B+-tree (record lookups and
    /// primary-key ranges; `index` is ignored).
    PrimaryRange { lo: Option<(LogicalExpr, bool)>, hi: Option<(LogicalExpr, bool)> },
    /// Range over a secondary B-tree.
    BTreeRange { lo: Option<(LogicalExpr, bool)>, hi: Option<(LogicalExpr, bool)> },
    /// R-tree intersection; `query` evaluates to a spatial value whose MBR
    /// is the search window.
    RTree { query: LogicalExpr },
    /// Keyword index: records whose indexed value contains all tokens of
    /// `needle` (a string or bag of strings).
    InvertedConjunctive { needle: LogicalExpr },
    /// N-gram index: records whose indexed string is within
    /// `edit_distance` of `needle` (candidates; the postcondition
    /// verifies).
    InvertedFuzzy { needle: LogicalExpr, edit_distance: usize },
}

impl IndexSearchSpec {
    /// The word `explain` names the search by, in the plan and the job
    /// alike: `btree`, `rtree`, `keyword` or `ngram-fuzzy`.
    pub fn kind_word(&self) -> &'static str {
        match self {
            IndexSearchSpec::PrimaryRange { .. } | IndexSearchSpec::BTreeRange { .. } => "btree",
            IndexSearchSpec::RTree { .. } => "rtree",
            IndexSearchSpec::InvertedConjunctive { .. } => "keyword",
            IndexSearchSpec::InvertedFuzzy { .. } => "ngram-fuzzy",
        }
    }

    /// The probe this search makes of secondary index `index` of
    /// `dataset`, `value` evaluating its bounds, window and needle — the
    /// one resolution the compiled job and the interpreter share. A needle
    /// is tokenized as the index tokenizes what it stores. `None`: the
    /// index cannot narrow the search, so the dataset is scanned and the
    /// post-validation decides. That is so when no token is required (an
    /// n-gram needle of at most `k·ed` distinct grams, a keyword needle of
    /// none, an unknown needle), when the needle cannot be an indexed
    /// value (an n-gram needle that is not a string, a keyword needle the
    /// tokenizer rejects) and when the window has no bounding rectangle (a
    /// null, missing or non-spatial window).
    pub fn probe<E: From<AdmError>>(
        &self,
        provider: &dyn MetadataProvider,
        dataset: &str,
        index: &str,
        value: impl Fn(&LogicalExpr) -> Result<Value, E>,
    ) -> Result<Option<IndexProbe>, E> {
        let (needle, edit_distance) = match self {
            IndexSearchSpec::BTreeRange { lo, hi } => {
                let (lo, hi) = (key_bound(lo, &value)?, key_bound(hi, &value)?);
                return Ok(Some(IndexProbe::Range { lo, hi }));
            }
            IndexSearchSpec::RTree { query } => {
                let window = asterix_adm::spatial::mbr(&value(query)?);
                return Ok(window.ok().map(IndexProbe::Window));
            }
            IndexSearchSpec::InvertedConjunctive { needle } => (needle, None),
            IndexSearchSpec::InvertedFuzzy { needle, edit_distance } => {
                (needle, Some(*edit_distance))
            }
            IndexSearchSpec::PrimaryRange { .. } => {
                return Err(
                    AdmError::InvalidArgument("a primary-key search has no probe".into()).into()
                )
            }
        };
        let indexes = provider.indexes(dataset);
        let kind = indexes.iter().find(|i| i.name == index).map(|i| &i.kind);
        let needle = value(needle)?;
        let (tokenizer, slack) = match (kind.and_then(IndexKind::tokenizer), edit_distance) {
            (Some(tokenizer), None) => (tokenizer, 0),
            (Some(Tokenizer::NGram(_)), Some(_)) if needle.as_str().is_none() => return Ok(None),
            // An edit touches at most k grams, so a string within `ed` edits
            // of the needle shares at least |G| − k·ed of its distinct grams.
            (Some(Tokenizer::NGram(k)), Some(ed)) => (Tokenizer::NGram(k), k.saturating_mul(ed)),
            _ => {
                let word = self.kind_word();
                return Err(
                    AdmError::InvalidArgument(format!("{index} has no {word} search")).into()
                );
            }
        };
        let Ok(mut tokens) = tokenizer.tokens(&needle) else { return Ok(None) };
        tokens.sort_unstable();
        tokens.dedup();
        let min_matches = tokens.len().saturating_sub(slack);
        Ok((min_matches > 0).then_some(IndexProbe::Tokens { tokens, min_matches }))
    }
}

/// A search bound, `value` evaluating its expression.
pub fn key_bound<E>(
    bound: &Option<(LogicalExpr, bool)>,
    value: impl Fn(&LogicalExpr) -> Result<Value, E>,
) -> Result<KeyBound, E> {
    Ok(match bound {
        None => KeyBound::Unbounded,
        Some((e, true)) => KeyBound::Inclusive(value(e)?),
        Some((e, false)) => KeyBound::Exclusive(value(e)?),
    })
}

/// A logical operator. `input` boxes form the tree.
#[derive(Debug, Clone)]
pub enum LogicalOp {
    /// Produces exactly one empty binding (the leaf under constant-only
    /// plans, e.g. the `1+1` query).
    EmptyTupleSource,
    /// Full dataset scan binding each record to `var`.
    DataSourceScan { dataset: String, var: VarId },
    /// Secondary-index search followed by primary lookup, producing the
    /// record in `var`. Carries Figure 6's full shape: the generated job
    /// sorts primary keys before the primary-index search, and
    /// `postcondition` re-checks the predicate on the fetched record (the
    /// §4.4 consistency validation select).
    IndexSearch {
        dataset: String,
        index: String,
        var: VarId,
        spec: IndexSearchSpec,
        /// Residual predicate re-applied to the record (post-validation).
        postcondition: Option<LogicalExpr>,
    },
    /// Bind `var` to `expr` for each input tuple.
    Assign { input: Box<LogicalOp>, var: VarId, expr: LogicalExpr },
    /// Keep tuples where `condition` is true.
    Select { input: Box<LogicalOp>, condition: LogicalExpr },
    /// Iterate `expr` (a collection), binding each item to `var`
    /// (`for $x in <expr>`); `positional` binds the 1-based position
    /// (`at $p`). Outer unnests keep empty collections with missing.
    Unnest {
        input: Box<LogicalOp>,
        var: VarId,
        expr: LogicalExpr,
        positional: Option<VarId>,
        outer: bool,
    },
    /// Cartesian product with an optional residual condition — produced by
    /// the translator for adjacent `for` clauses; the equijoin-extraction
    /// rule turns it into `HashJoin` when it finds equality predicates.
    Join {
        left: Box<LogicalOp>,
        right: Box<LogicalOp>,
        condition: LogicalExpr,
        kind: JoinKind,
        /// `/*+ indexnl */` hint from the query (Query 14).
        index_nl_hint: bool,
    },
    /// Equi-join on extracted key expressions (physical: hybrid hash).
    HashJoin {
        left: Box<LogicalOp>,
        right: Box<LogicalOp>,
        left_keys: Vec<LogicalExpr>,
        right_keys: Vec<LogicalExpr>,
        residual: Option<LogicalExpr>,
        kind: JoinKind,
    },
    /// Index nested-loop join: for each left tuple, search `dataset` via
    /// `index` with key `probe` and bind matching records to `var`.
    IndexNlJoin {
        left: Box<LogicalOp>,
        dataset: String,
        index: String,
        probe: LogicalExpr,
        var: VarId,
        kind: JoinKind,
    },
    /// Grouping: evaluates `keys` (each bound to a fresh var) and
    /// aggregates over the group.
    GroupBy { input: Box<LogicalOp>, keys: Vec<(VarId, LogicalExpr)>, aggs: Vec<AggCall> },
    /// Scalar aggregation over the whole input (no keys).
    Aggregate { input: Box<LogicalOp>, aggs: Vec<AggCall> },
    /// Sort.
    Order { input: Box<LogicalOp>, keys: Vec<SortSpec> },
    /// Limit/offset: skips `offset` rows, then passes at most `count`, on
    /// one gathered stream. It is never fused into the sort below it as a
    /// top-K (the paper notes AsterixDB does not do this yet; see
    /// EXPERIMENTS.md).
    Limit { input: Box<LogicalOp>, count: usize, offset: usize },
    /// Duplicate elimination on the given expressions.
    Distinct { input: Box<LogicalOp>, exprs: Vec<LogicalExpr> },
    /// Final projection: the value each result row yields.
    Emit { input: Box<LogicalOp>, expr: LogicalExpr },
}

impl LogicalOp {
    /// Children accessors for generic traversal.
    pub fn inputs(&self) -> Vec<&LogicalOp> {
        match self {
            LogicalOp::EmptyTupleSource
            | LogicalOp::DataSourceScan { .. }
            | LogicalOp::IndexSearch { .. } => vec![],
            LogicalOp::Assign { input, .. }
            | LogicalOp::Select { input, .. }
            | LogicalOp::Unnest { input, .. }
            | LogicalOp::GroupBy { input, .. }
            | LogicalOp::Aggregate { input, .. }
            | LogicalOp::Order { input, .. }
            | LogicalOp::Limit { input, .. }
            | LogicalOp::Distinct { input, .. }
            | LogicalOp::Emit { input, .. }
            | LogicalOp::IndexNlJoin { left: input, .. } => vec![input],
            LogicalOp::Join { left, right, .. } | LogicalOp::HashJoin { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Variables introduced by this operator alone.
    pub fn introduced_vars(&self) -> Vec<VarId> {
        match self {
            LogicalOp::DataSourceScan { var, .. } | LogicalOp::IndexSearch { var, .. } => {
                vec![*var]
            }
            LogicalOp::Assign { var, .. } => vec![*var],
            LogicalOp::Unnest { var, positional, .. } => {
                let mut v = vec![*var];
                if let Some(p) = positional {
                    v.push(*p);
                }
                v
            }
            LogicalOp::IndexNlJoin { var, .. } => vec![*var],
            LogicalOp::GroupBy { keys, aggs, .. } => {
                let mut v: Vec<VarId> = keys.iter().map(|(k, _)| *k).collect();
                v.extend(aggs.iter().map(|a| a.var));
                v
            }
            LogicalOp::Aggregate { aggs, .. } => aggs.iter().map(|a| a.var).collect(),
            _ => vec![],
        }
    }

    /// All variables bound anywhere in this subtree.
    pub fn bound_vars(&self) -> Vec<VarId> {
        let mut out = self.introduced_vars();
        for i in self.inputs() {
            out.extend(i.bound_vars());
        }
        out
    }

    /// Variables this subtree references but does not bind.
    pub fn free_vars(&self, out: &mut Vec<VarId>) {
        let mut referenced = Vec::new();
        self.collect_expr_vars(&mut referenced);
        let bound = self.bound_vars();
        for v in referenced {
            if !bound.contains(&v) && !out.contains(&v) {
                out.push(v);
            }
        }
    }

    fn collect_expr_vars(&self, out: &mut Vec<VarId>) {
        self.for_each_expr(&mut |e| e.free_vars(out));
        for i in self.inputs() {
            i.collect_expr_vars(out);
        }
    }

    /// Calls `f` on each expression this operator evaluates itself, its
    /// inputs' not included: an index search's bounds, window or needle
    /// among them.
    pub fn for_each_expr<'a>(&'a self, f: &mut impl FnMut(&'a LogicalExpr)) {
        match self {
            LogicalOp::EmptyTupleSource
            | LogicalOp::DataSourceScan { .. }
            | LogicalOp::Limit { .. } => {}
            LogicalOp::IndexSearch { spec, postcondition, .. } => {
                match spec {
                    IndexSearchSpec::PrimaryRange { lo, hi }
                    | IndexSearchSpec::BTreeRange { lo, hi } => {
                        lo.iter().chain(hi).for_each(|(e, _)| f(e))
                    }
                    IndexSearchSpec::RTree { query: e }
                    | IndexSearchSpec::InvertedConjunctive { needle: e }
                    | IndexSearchSpec::InvertedFuzzy { needle: e, .. } => f(e),
                }
                postcondition.iter().for_each(f);
            }
            LogicalOp::Assign { expr, .. }
            | LogicalOp::Unnest { expr, .. }
            | LogicalOp::Emit { expr, .. }
            | LogicalOp::Select { condition: expr, .. }
            | LogicalOp::Join { condition: expr, .. }
            | LogicalOp::IndexNlJoin { probe: expr, .. } => f(expr),
            LogicalOp::HashJoin { left_keys, right_keys, residual, .. } => {
                left_keys.iter().chain(right_keys).chain(residual).for_each(f)
            }
            LogicalOp::GroupBy { keys, aggs, .. } => {
                keys.iter().for_each(|(_, e)| f(e));
                aggs.iter().for_each(|a| f(&a.input));
            }
            LogicalOp::Aggregate { aggs, .. } => aggs.iter().for_each(|a| f(&a.input)),
            LogicalOp::Order { keys, .. } => keys.iter().for_each(|k| f(&k.expr)),
            LogicalOp::Distinct { exprs, .. } => exprs.iter().for_each(f),
        }
    }

    /// The largest variable id the plan names anywhere — bound, referenced,
    /// or inside its subqueries and quantifiers. A rewrite that introduces
    /// variables numbers them above it.
    pub fn max_var(&self) -> Option<VarId> {
        let mut max = self.introduced_vars().into_iter().max();
        self.for_each_expr(&mut |e| max = max.max(e.max_var()));
        self.inputs().into_iter().map(LogicalOp::max_var).fold(max, Ord::max)
    }

    /// Operator name for plan printing.
    pub fn op_name(&self) -> String {
        match self {
            LogicalOp::EmptyTupleSource => "empty-tuple-source".into(),
            LogicalOp::DataSourceScan { dataset, .. } => format!("data-scan {dataset}"),
            LogicalOp::IndexSearch { dataset, index, spec, .. } => {
                if let IndexSearchSpec::PrimaryRange { .. } = spec {
                    return format!("btree-search {dataset} (primary)");
                }
                format!("{}-search {dataset}.{index}", spec.kind_word())
            }
            LogicalOp::Assign { var, .. } => format!("assign $v{var}"),
            LogicalOp::Select { .. } => "select".into(),
            LogicalOp::Unnest { var, outer, .. } => {
                if *outer {
                    format!("outer-unnest $v{var}")
                } else {
                    format!("unnest $v{var}")
                }
            }
            LogicalOp::Join { kind, .. } => format!("join ({kind:?})"),
            LogicalOp::HashJoin { kind, .. } => format!("hash-join ({kind:?})"),
            LogicalOp::IndexNlJoin { dataset, index, .. } => {
                format!("index-nl-join {dataset}.{index}")
            }
            LogicalOp::GroupBy { keys, aggs, .. } => {
                format!("group-by ({} keys){}", keys.len(), aggs_label(aggs))
            }
            LogicalOp::Aggregate { aggs, .. } => format!("aggregate{}", aggs_label(aggs)),
            LogicalOp::Order { .. } => "order".into(),
            LogicalOp::Limit { count, offset, .. } => format!("limit {count} offset {offset}"),
            LogicalOp::Distinct { .. } => "distinct".into(),
            LogicalOp::Emit { .. } => "emit".into(),
        }
    }

    /// Indented plan rendering (EXPLAIN-style).
    pub fn pretty(&self) -> String {
        fn walk(op: &LogicalOp, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&op.op_name());
            out.push('\n');
            for i in op.inputs() {
                walk(i, depth + 1, out);
            }
        }
        let mut s = String::new();
        walk(self, 0, &mut s);
        s
    }

    /// Rewrite helper: apply `f` bottom-up to every operator in the tree.
    pub fn transform_up(self, f: &mut impl FnMut(LogicalOp) -> LogicalOp) -> LogicalOp {
        let with_new_children = match self {
            LogicalOp::Assign { input, var, expr } => {
                LogicalOp::Assign { input: Box::new(input.transform_up(f)), var, expr }
            }
            LogicalOp::Select { input, condition } => {
                LogicalOp::Select { input: Box::new(input.transform_up(f)), condition }
            }
            LogicalOp::Unnest { input, var, expr, positional, outer } => LogicalOp::Unnest {
                input: Box::new(input.transform_up(f)),
                var,
                expr,
                positional,
                outer,
            },
            LogicalOp::Join { left, right, condition, kind, index_nl_hint } => LogicalOp::Join {
                left: Box::new(left.transform_up(f)),
                right: Box::new(right.transform_up(f)),
                condition,
                kind,
                index_nl_hint,
            },
            LogicalOp::HashJoin { left, right, left_keys, right_keys, residual, kind } => {
                LogicalOp::HashJoin {
                    left: Box::new(left.transform_up(f)),
                    right: Box::new(right.transform_up(f)),
                    left_keys,
                    right_keys,
                    residual,
                    kind,
                }
            }
            LogicalOp::IndexNlJoin { left, dataset, index, probe, var, kind } => {
                LogicalOp::IndexNlJoin {
                    left: Box::new(left.transform_up(f)),
                    dataset,
                    index,
                    probe,
                    var,
                    kind,
                }
            }
            LogicalOp::GroupBy { input, keys, aggs } => {
                LogicalOp::GroupBy { input: Box::new(input.transform_up(f)), keys, aggs }
            }
            LogicalOp::Aggregate { input, aggs } => {
                LogicalOp::Aggregate { input: Box::new(input.transform_up(f)), aggs }
            }
            LogicalOp::Order { input, keys } => {
                LogicalOp::Order { input: Box::new(input.transform_up(f)), keys }
            }
            LogicalOp::Limit { input, count, offset } => {
                LogicalOp::Limit { input: Box::new(input.transform_up(f)), count, offset }
            }
            LogicalOp::Distinct { input, exprs } => {
                LogicalOp::Distinct { input: Box::new(input.transform_up(f)), exprs }
            }
            LogicalOp::Emit { input, expr } => {
                LogicalOp::Emit { input: Box::new(input.transform_up(f)), expr }
            }
            leaf => leaf,
        };
        f(with_new_children)
    }
}

/// Helpers for building plans in tests and the translator.
pub mod build {
    use super::*;

    pub fn scan(dataset: &str, var: VarId) -> LogicalOp {
        LogicalOp::DataSourceScan { dataset: dataset.into(), var }
    }

    pub fn select(input: LogicalOp, condition: LogicalExpr) -> LogicalOp {
        LogicalOp::Select { input: Box::new(input), condition }
    }

    pub fn assign(input: LogicalOp, var: VarId, expr: LogicalExpr) -> LogicalOp {
        LogicalOp::Assign { input: Box::new(input), var, expr }
    }

    pub fn emit(input: LogicalOp, expr: LogicalExpr) -> LogicalOp {
        LogicalOp::Emit { input: Box::new(input), expr }
    }

    pub fn cross(left: LogicalOp, right: LogicalOp, condition: LogicalExpr) -> LogicalOp {
        LogicalOp::Join {
            left: Box::new(left),
            right: Box::new(right),
            condition,
            kind: JoinKind::Inner,
            index_nl_hint: false,
        }
    }

    pub fn var(v: VarId) -> LogicalExpr {
        LogicalExpr::Var(v)
    }

    pub fn lit(v: Value) -> LogicalExpr {
        LogicalExpr::Const(v)
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;
    use crate::expr::CompareOp;

    #[test]
    fn bound_and_free_vars() {
        let plan = emit(
            select(
                scan("ds", 0),
                LogicalExpr::Compare(
                    CompareOp::Eq,
                    Box::new(LogicalExpr::field(var(0), "id")),
                    Box::new(var(9)), // free (outer) variable
                ),
            ),
            var(0),
        );
        assert_eq!(plan.bound_vars(), vec![0]);
        let mut free = Vec::new();
        plan.free_vars(&mut free);
        assert_eq!(free, vec![9]);
    }

    #[test]
    fn pretty_prints_tree() {
        let plan = emit(select(scan("ds", 0), lit(Value::Boolean(true))), var(0));
        let p = plan.pretty();
        assert!(p.contains("emit"), "{p}");
        assert!(p.contains("  select"), "{p}");
        assert!(p.contains("    data-scan ds"), "{p}");
    }

    #[test]
    fn transform_up_visits_all() {
        let plan = emit(select(scan("ds", 0), lit(Value::Boolean(true))), var(0));
        let mut n = 0;
        let _ = plan.transform_up(&mut |op| {
            n += 1;
            op
        });
        assert_eq!(n, 3);
    }
}
