//! The statement shapes the workloads run, how their parameters are
//! drawn, and how each answer is checked against the oracle.

use asterix_adm::print::to_adm_string;
use asterix_adm::temporal::format_datetime;
use asterix_adm::Value;

use crate::env::{MESSAGES, USERS};
use crate::gen::{Oracle, Rng, EPOCH_2010, SPAN_MS};

/// A literal the statement templates take; each becomes one prepared
/// parameter, in order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg {
    Id(i64),
    /// Milliseconds since the epoch, written as `datetime("...")`.
    Time(i64),
}

impl Arg {
    fn literal(&self) -> String {
        match self {
            Arg::Id(i) => i.to_string(),
            Arg::Time(ms) => format!("datetime(\"{}\")", format_datetime(*ms)),
        }
    }

    /// The value the normalizer lifts this literal to.
    pub fn param(&self) -> Value {
        match self {
            Arg::Id(i) => Value::Int64(*i),
            Arg::Time(ms) => Value::string(format_datetime(*ms)),
        }
    }
}

pub fn params(args: &[Arg]) -> Vec<Value> {
    args.iter().map(Arg::param).collect()
}

/// The query templates (Table 3 of the paper plus a message lookup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `[id]`
    UserLookup,
    /// `[message-id]`
    MessageLookup,
    /// `[lo, hi)` on `timestamp`
    Range,
    /// `[lo, hi]` on `user-since`, joined to the users' messages
    SelJoin,
    /// `SelJoin` plus `[lo, hi)` on the messages' `timestamp`
    Sel2Join,
    /// `avg(string-length(message))` over `[lo, hi)`
    Agg,
    /// top-10 authors by message count over `[lo, hi)`
    GrpAgg,
}

impl Family {
    pub fn arity(&self) -> usize {
        match self {
            Family::UserLookup | Family::MessageLookup => 1,
            Family::Range | Family::SelJoin | Family::Agg | Family::GrpAgg => 2,
            Family::Sel2Join => 4,
        }
    }

    /// The AQL text with `args` as literals. `indexnl` adds the paper's
    /// index-nested-loop join hint (Query 14) to the join families.
    pub fn text(&self, args: &[Arg], indexnl: bool) -> String {
        assert_eq!(args.len(), self.arity(), "{self:?} takes {} arguments", self.arity());
        let a: Vec<String> = args.iter().map(Arg::literal).collect();
        let hint = if indexnl { "/*+ indexnl */ " } else { "" };
        match self {
            Family::UserLookup => {
                format!("for $u in dataset {USERS} where $u.id = {} return $u", a[0])
            }
            Family::MessageLookup => {
                format!("for $m in dataset {MESSAGES} where $m.message-id = {} return $m", a[0])
            }
            Family::Range => format!(
                "for $m in dataset {MESSAGES} \
                 where $m.timestamp >= {} and $m.timestamp < {} return $m",
                a[0], a[1]
            ),
            Family::SelJoin => format!(
                "for $u in dataset {USERS} for $m in dataset {MESSAGES} \
                 where $m.author-id {hint}= $u.id \
                   and $u.user-since >= {} and $u.user-since <= {} \
                 return {{ \"uname\": $u.name, \"message\": $m.message }}",
                a[0], a[1]
            ),
            Family::Sel2Join => format!(
                "for $u in dataset {USERS} for $m in dataset {MESSAGES} \
                 where $m.author-id {hint}= $u.id \
                   and $u.user-since >= {} and $u.user-since <= {} \
                   and $m.timestamp >= {} and $m.timestamp < {} \
                 return {{ \"uname\": $u.name, \"message\": $m.message }}",
                a[0], a[1], a[2], a[3]
            ),
            Family::Agg => format!(
                "avg( for $m in dataset {MESSAGES} \
                      where $m.timestamp >= {} and $m.timestamp < {} \
                      return string-length($m.message) )",
                a[0], a[1]
            ),
            Family::GrpAgg => format!(
                "for $m in dataset {MESSAGES} \
                 where $m.timestamp >= {} and $m.timestamp < {} \
                 group by $aid := $m.author-id with $m \
                 let $cnt := count($m) \
                 order by $cnt desc \
                 limit 10 \
                 return {{ \"author\": $aid, \"cnt\": $cnt }}",
                a[0], a[1]
            ),
        }
    }
}

/// One named statement shape: a family at a fixed selectivity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub name: &'static str,
    pub family: Family,
    /// Records the window is sized to select (0 for lookups).
    pub target: usize,
    pub indexnl: bool,
}

const fn shape(name: &'static str, family: Family, target: usize, indexnl: bool) -> Shape {
    Shape { name, family, target, indexnl }
}

/// Records selected of the full-size corpus's messages. A window's width
/// is that share of the time span at any corpus size, so `--smoke` keeps
/// the selectivity and scales the row counts.
const SM: usize = 300;
const LG: usize = 3_000;
const FULL_SIZE_MESSAGES: usize = 100_000;

pub const POINT_LOOKUP: Shape = shape("point_lookup", Family::UserLookup, 0, false);

/// `index_queries`: every shape goes through a secondary index.
pub const INDEX_SHAPES: [Shape; 10] = [
    shape("range_ix_sm", Family::Range, SM, false),
    shape("range_ix_lg", Family::Range, LG, false),
    shape("seljoin_ix_sm", Family::SelJoin, SM, true),
    shape("seljoin_ix_lg", Family::SelJoin, LG, true),
    shape("sel2join_ix_sm", Family::Sel2Join, SM, true),
    shape("sel2join_ix_lg", Family::Sel2Join, LG, true),
    shape("agg_ix_sm", Family::Agg, SM, false),
    shape("agg_ix_lg", Family::Agg, LG, false),
    shape("grpagg_ix_sm", Family::GrpAgg, SM, false),
    shape("grpagg_ix_lg", Family::GrpAgg, LG, false),
];

/// `scan_queries`: the same predicates as their `_ix` twins, on an
/// instance without secondary indexes.
pub const SCAN_SHAPES: [Shape; 6] = [
    shape("range_scan_lg", Family::Range, LG, false),
    shape("seljoin_hash_sm", Family::SelJoin, SM, false),
    shape("seljoin_hash_lg", Family::SelJoin, LG, false),
    shape("sel2join_hash_lg", Family::Sel2Join, LG, false),
    shape("agg_scan_lg", Family::Agg, LG, false),
    shape("grpagg_scan_lg", Family::GrpAgg, LG, false),
];

/// Rows `range_ix_fresh` is sized to select when the run starts (at full
/// size).
const FRESH: usize = 100;

pub const LOOKUP_RECENT: Shape = shape("lookup_recent", Family::MessageLookup, 0, false);
pub const LOOKUP_OLD: Shape = shape("lookup_old", Family::MessageLookup, 0, false);
pub const RANGE_IX_FRESH: Shape = shape("range_ix_fresh", Family::Range, FRESH, false);

/// The un-preparable steps of an `ingest_mixed` cycle.
pub const INSERT_BATCH20: &str = "insert_batch20";
pub const INSERT_SINGLE: &str = "insert_single";
pub const DELETE_PK: &str = "delete_pk";

/// Every `shape.<name>.p50_ms` the traced run reports, in report order.
pub fn all_shape_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = INDEX_SHAPES.iter().map(|s| s.name).collect();
    names.extend(SCAN_SHAPES.iter().map(|s| s.name));
    names.extend([
        INSERT_BATCH20,
        INSERT_SINGLE,
        LOOKUP_RECENT.name,
        LOOKUP_OLD.name,
        RANGE_IX_FRESH.name,
        DELETE_PK,
    ]);
    names
}

impl Shape {
    /// Arguments used when the shape is prepared and explained; windows
    /// start a year into the span.
    pub fn default_args(&self) -> Vec<Arg> {
        let lo = EPOCH_2010 + SPAN_MS / 4;
        let w = Oracle::window_ms(self.target, FULL_SIZE_MESSAGES);
        match self.family {
            Family::UserLookup | Family::MessageLookup => vec![Arg::Id(0)],
            Family::Sel2Join => {
                let mw = Oracle::window_ms(LG, FULL_SIZE_MESSAGES);
                vec![Arg::Time(lo), Arg::Time(lo + w), Arg::Time(lo), Arg::Time(lo + mw)]
            }
            _ => vec![Arg::Time(lo), Arg::Time(lo + w)],
        }
    }

    /// Draw this shape's window: the start varies, the selectivity does
    /// not. The message window of `Sel2Join` always selects `LG` messages,
    /// so its `_sm` and `_lg` differ in the users selected, as `SelJoin`'s do.
    pub fn draw_args(&self, rng: &mut Rng) -> Vec<Arg> {
        let w = Oracle::window_ms(self.target, FULL_SIZE_MESSAGES);
        let (lo, hi) = Oracle::draw_window(rng, w);
        match self.family {
            Family::UserLookup | Family::MessageLookup => {
                unreachable!("lookup ids are drawn by the workload")
            }
            Family::Sel2Join => {
                let (mlo, mhi) =
                    Oracle::draw_window(rng, Oracle::window_ms(LG, FULL_SIZE_MESSAGES));
                vec![Arg::Time(lo), Arg::Time(hi), Arg::Time(mlo), Arg::Time(mhi)]
            }
            _ => vec![Arg::Time(lo), Arg::Time(hi)],
        }
    }

    /// The oracle's answer for `args` on the loaded corpus.
    pub fn expect(&self, o: &Oracle, args: &[Arg]) -> Expect {
        let t = |i: usize| match args[i] {
            Arg::Time(ms) => ms,
            Arg::Id(_) => panic!("{}: argument {i} is not a time", self.name),
        };
        match self.family {
            Family::UserLookup => match args[0] {
                Arg::Id(id) if (id as usize) < o.scale.users => Expect::User(id),
                _ => Expect::Rows(0),
            },
            Family::MessageLookup => match args[0] {
                Arg::Id(id) if (id as usize) < o.scale.messages => Expect::Message(id),
                _ => Expect::Rows(0),
            },
            Family::Range => Expect::Rows(o.range_count(t(0), t(1))),
            Family::SelJoin => Expect::Rows(o.sel_join_count(t(0), t(1))),
            Family::Sel2Join => Expect::Rows(o.sel2_join_count(t(0), t(1), t(2), t(3))),
            Family::Agg => Expect::Avg(o.avg_len(t(0), t(1))),
            Family::GrpAgg => Expect::Top10(o.top10_counts(t(0), t(1))),
        }
    }
}

/// What a correct answer looks like.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// This many rows.
    Rows(usize),
    /// Exactly the user with this id (`id` and `alias` compared).
    User(i64),
    /// Exactly the message with this id (`message-id`, `author-id`,
    /// `timestamp` and `message` compared).
    Message(i64),
    /// One row: the average within 1e-9, or null for an empty window.
    Avg(Option<f64>),
    /// The `cnt` fields, largest first.
    Top10(Vec<u64>),
    /// A DML statement affecting this many records.
    Count(u64),
}

/// A statement's outcome, as the wire client or the in-process entry
/// points returned it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Answer {
    pub rows: Vec<Value>,
    /// Records affected, for DML.
    pub count: u64,
}

impl Expect {
    /// `Ok` if `got` is the expected answer, else what differs.
    pub fn check(&self, o: &Oracle, got: &Answer) -> Result<(), String> {
        let rows = &got.rows;
        let one = || match rows.as_slice() {
            [row] => Ok(row),
            _ => Err(format!("expected 1 row, got {}", rows.len())),
        };
        match self {
            Expect::Rows(n) if rows.len() == *n => Ok(()),
            Expect::Rows(n) => Err(format!("expected {n} rows, got {}", rows.len())),
            Expect::User(id) => {
                let (row, want) = (one()?, o.user(*id));
                same_fields(row, &want, &["id", "alias"])
            }
            Expect::Message(id) => {
                let (row, want) = (one()?, o.message(*id));
                same_fields(row, &want, &["message-id", "author-id", "timestamp", "message"])
            }
            Expect::Avg(want) => match (one()?.as_f64(), want) {
                (Some(g), Some(w)) if (g - w).abs() <= 1e-9 * w.abs().max(1.0) => Ok(()),
                (None, None) => Ok(()),
                (g, w) => Err(format!("expected avg {w:?}, got {g:?}")),
            },
            Expect::Top10(want) => {
                let mut counts: Vec<u64> =
                    rows.iter().filter_map(|r| r.field("cnt").as_i64()).map(|c| c as u64).collect();
                counts.sort_unstable_by(|a, b| b.cmp(a));
                if rows.len() == want.len() && counts == *want {
                    Ok(())
                } else {
                    Err(format!("expected group counts {want:?}, got {counts:?}"))
                }
            }
            Expect::Count(n) if got.count == *n => Ok(()),
            Expect::Count(n) => Err(format!("expected {n} records affected, got {}", got.count)),
        }
    }
}

fn same_fields(got: &Value, want: &Value, fields: &[&str]) -> Result<(), String> {
    for f in fields {
        let (g, w) = (got.field(f), want.field(f));
        if g.total_cmp(&w).is_ne() {
            return Err(format!("field {f}: expected {w:?}, got {g:?}"));
        }
    }
    Ok(())
}

/// `insert into dataset Perf.MugshotMessages ( ... );` for one record, or
/// a list constructor for several: text the server parses every time.
pub fn insert_text(records: &[Value]) -> String {
    let body = match records {
        [one] => to_adm_string(one),
        many => format!("[{}]", many.iter().map(to_adm_string).collect::<Vec<_>>().join(", ")),
    };
    format!("insert into dataset {MESSAGES} ({body});")
}

pub fn delete_text(message_id: i64) -> String {
    format!("delete $m from dataset {MESSAGES} where $m.message-id = {message_id};")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{stream_corpus, Scale};

    fn oracle() -> Oracle {
        let scale = Scale { users: 200, messages: 2_000 };
        stream_corpus::<()>(5, scale, |_| Ok(()), |_| Ok(())).unwrap()
    }

    #[test]
    fn every_template_parses_and_lifts_one_parameter_per_argument() {
        let mut shapes = vec![POINT_LOOKUP, LOOKUP_OLD, RANGE_IX_FRESH];
        shapes.extend(INDEX_SHAPES);
        shapes.extend(SCAN_SHAPES);
        for s in shapes {
            let args = s.default_args();
            let text = s.family.text(&args, s.indexnl);
            let stmts = asterix_aql::parse_statements(&text)
                .unwrap_or_else(|e| panic!("{}: {e:?}\n{text}", s.name));
            let asterix_aql::Statement::Query(e) = &stmts[0] else {
                panic!("{}: not a query", s.name)
            };
            let n = asterix_aql::normalize_query(e);
            let lifted: Vec<Value> = n.params;
            assert_eq!(lifted.len(), args.len(), "{}", s.name);
            for (l, a) in lifted.iter().zip(&args) {
                assert!(l.total_cmp(&a.param()).is_eq(), "{}: {l:?} vs {a:?}", s.name);
            }
        }
        assert_eq!(all_shape_names().len(), 22);
    }

    #[test]
    fn checks_accept_right_answers_and_name_wrong_ones() {
        let o = oracle();
        let user = Answer { rows: vec![o.user(7)], count: 0 };
        assert!(Expect::User(7).check(&o, &user).is_ok());
        assert!(Expect::User(8).check(&o, &user).unwrap_err().contains("field id"));
        assert!(Expect::Rows(0).check(&o, &user).is_err());
        let avg = Answer { rows: vec![Value::Double(10.0 + 1e-12)], count: 0 };
        assert!(Expect::Avg(Some(10.0)).check(&o, &avg).is_ok());
        assert!(Expect::Avg(Some(10.1)).check(&o, &avg).is_err());
        let mut r1 = asterix_adm::Record::new();
        r1.push_unchecked("cnt", Value::Int64(2));
        let mut r2 = asterix_adm::Record::new();
        r2.push_unchecked("cnt", Value::Int64(5));
        let top = Answer { rows: vec![Value::record(r1), Value::record(r2)], count: 0 };
        assert!(Expect::Top10(vec![5, 2]).check(&o, &top).is_ok());
        assert!(Expect::Top10(vec![5, 3]).check(&o, &top).is_err());
        assert!(Expect::Count(20).check(&o, &Answer { rows: vec![], count: 20 }).is_ok());
    }

    #[test]
    fn dml_texts_parse() {
        let o = oracle();
        let batch: Vec<Value> = (3_000..3_020).map(|i| o.message(i)).collect();
        for text in [insert_text(&batch), insert_text(&batch[..1]), delete_text(17)] {
            asterix_aql::parse_statements(&text).unwrap_or_else(|e| panic!("{e:?}\n{text}"));
        }
    }
}
