//! The AQL abstract syntax tree.

use asterix_adm::Value;

/// Binary comparison operators (including fuzzy `~=`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    FuzzyEq,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// `some` / `every` quantifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantifier {
    Some,
    Every,
}

/// An AQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Value),
    /// A parameter slot. Never produced by the parser — statement
    /// normalization ([`crate::normalize`]) lifts literals into these so
    /// queries differing only in constants share one compiled plan.
    Param(usize),
    /// `$name`.
    Variable(String),
    /// `dataset Name` / `dataset Dataverse.Name`.
    DatasetAccess {
        dataverse: Option<String>,
        name: String,
    },
    /// `expr.field`.
    FieldAccess(Box<Expr>, String),
    /// `expr[index]`.
    IndexAccess(Box<Expr>, Box<Expr>),
    /// `name(args...)` — builtin or user-defined function.
    Call {
        name: String,
        args: Vec<Expr>,
    },
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    /// Comparison; `index_nl_hint` records a `/*+ indexnl */` hint placed
    /// before the operator (Query 14).
    Compare {
        op: CmpOp,
        left: Box<Expr>,
        right: Box<Expr>,
        index_nl_hint: bool,
    },
    And(Vec<Expr>),
    Or(Vec<Expr>),
    Not(Box<Expr>),
    /// `{ "name": expr, ... }`.
    RecordCtor(Vec<(String, Expr)>),
    /// `[ ... ]` (ordered) / `{{ ... }}` (bag).
    ListCtor {
        ordered: bool,
        items: Vec<Expr>,
    },
    /// `some|every $v in coll satisfies pred`.
    Quantified {
        q: Quantifier,
        var: String,
        collection: Box<Expr>,
        predicate: Box<Expr>,
    },
    /// `if (cond) then a else b`.
    IfThenElse(Box<Expr>, Box<Expr>, Box<Expr>),
    /// A FLWOR expression.
    Flwor(Box<Flwor>),
}

/// One FLWOR clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// `for $v [at $p] in expr`.
    For { var: String, positional: Option<String>, source: Expr },
    /// `let $v := expr`.
    Let { var: String, expr: Expr },
    /// `where expr`.
    Where(Expr),
    /// `group by $k := e, ... with $v1, $v2, ...`.
    GroupBy { keys: Vec<(String, Expr)>, with: Vec<String> },
    /// `order by e [desc], ...`.
    OrderBy(Vec<(Expr, bool)>),
    /// `limit e [offset e]`.
    Limit { count: Expr, offset: Option<Expr> },
    /// `distinct by e, ...`.
    DistinctBy(Vec<Expr>),
}

/// A FLWOR expression: clauses then `return`.
#[derive(Debug, Clone, PartialEq)]
pub struct Flwor {
    pub clauses: Vec<Clause>,
    pub ret: Expr,
}

/// Type expressions in `create type` statements.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeExpr {
    /// Named primitive or user type.
    Named(String),
    Record {
        fields: Vec<(String, TypeExpr, bool)>,
        open: bool,
    },
    OrderedList(Box<TypeExpr>),
    UnorderedList(Box<TypeExpr>),
}

/// Index kinds in `create index` (§2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexTypeAst {
    BTree,
    RTree,
    Keyword,
    NGram(usize),
}

/// A parsed AQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateDataverse {
        name: String,
        if_not_exists: bool,
    },
    DropDataverse {
        name: String,
        if_exists: bool,
    },
    UseDataverse(String),
    CreateType {
        name: String,
        ty: TypeExpr,
    },
    DropType {
        name: String,
        if_exists: bool,
    },
    CreateDataset {
        name: String,
        type_name: String,
        primary_key: Vec<String>,
        /// `primary key <f> autogenerated` — the paper's announced
        /// next-release feature (§2.1).
        autogenerated: bool,
    },
    CreateExternalDataset {
        name: String,
        type_name: String,
        adaptor: String,
        properties: Vec<(String, String)>,
    },
    DropDataset {
        name: String,
        if_exists: bool,
    },
    CreateIndex {
        name: String,
        dataset: String,
        fields: Vec<String>,
        index_type: IndexTypeAst,
    },
    DropIndex {
        dataset: String,
        name: String,
        if_exists: bool,
    },
    CreateFeed {
        name: String,
        adaptor: String,
        properties: Vec<(String, String)>,
    },
    /// `create secondary feed <name> from feed <parent>;` — cascading
    /// feeds (§2.4: "Secondary Feeds that are fed from other feeds").
    CreateSecondaryFeed {
        name: String,
        parent: String,
    },
    ConnectFeed {
        feed: String,
        dataset: String,
        apply_function: Option<String>,
    },
    DisconnectFeed {
        feed: String,
        dataset: String,
    },
    CreateFunction {
        name: String,
        params: Vec<String>,
        body: Expr,
    },
    DropFunction {
        name: String,
        if_exists: bool,
    },
    /// `set key "value";` (e.g. simfunction / simthreshold).
    Set {
        key: String,
        value: String,
    },
    /// `insert into dataset DS ( expr );`.
    Insert {
        dataset: String,
        expr: Expr,
    },
    /// `delete $v from dataset DS where cond;` (its victims are found by
    /// [`delete_query`]).
    Delete {
        var: String,
        dataset: String,
        condition: Option<Expr>,
    },
    /// `load dataset DS using ADAPTOR (props);`.
    Load {
        dataset: String,
        adaptor: String,
        properties: Vec<(String, String)>,
    },
    /// A standalone query expression.
    Query(Expr),
}

/// The query a `delete $var from dataset DS [where cond]` runs to find its
/// victims: `for $var in dataset DS [where cond] return [$var.pk₁, …]`,
/// one list of primary-key values per matching record. A delete is thus
/// normalized, cached and run like any other query.
pub fn delete_query(
    var: &str,
    dataverse: &str,
    dataset: &str,
    primary_key: &[String],
    condition: Option<Expr>,
) -> Expr {
    let source =
        Expr::DatasetAccess { dataverse: Some(dataverse.to_string()), name: dataset.to_string() };
    let mut clauses = vec![Clause::For { var: var.to_string(), positional: None, source }];
    clauses.extend(condition.map(Clause::Where));
    let key = |field: &String| {
        field.split('.').fold(Expr::Variable(var.to_string()), |e, part| {
            Expr::FieldAccess(Box::new(e), part.to_string())
        })
    };
    let ret = Expr::ListCtor { ordered: true, items: primary_key.iter().map(key).collect() };
    Expr::Flwor(Box::new(Flwor { clauses, ret }))
}
