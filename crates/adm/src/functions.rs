//! The builtin scalar function library (Table 1 and Section 3).
//!
//! Functions are evaluated by name against already-computed argument values.
//! The runtime's expression evaluator dispatches here for everything that is
//! not a core operator (field access, comparison, boolean connectives).
//!
//! Unknown-value semantics: unless documented otherwise, a `null` or
//! `missing` argument makes the result `null` (SQL-style propagation), which
//! matches AQL's handling of missing information.

use crate::error::{AdmError, Result};
use crate::parse::construct_from_str;
use crate::similarity::{jaccard, jaccard_check};
use crate::spatial;
use crate::strings;
use crate::temporal::{self, MILLIS_PER_DAY};
use crate::value::{DurationValue, IntervalKind, IntervalValue, Record, Value};

/// Evaluation context: the statement clock and the fuzzy-matching session
/// parameters set by `set simfunction` / `set simthreshold` (Query 6).
#[derive(Debug, Clone)]
pub struct FunctionContext {
    /// `current-datetime()` source, fixed per statement for determinism.
    pub now_millis: i64,
    pub simfunction: String,
    pub simthreshold: String,
}

impl Default for FunctionContext {
    fn default() -> Self {
        FunctionContext {
            now_millis: 0,
            simfunction: "jaccard".to_string(),
            simthreshold: "0.5".to_string(),
        }
    }
}

fn arity(name: &str, args: &[Value], n: usize) -> Result<()> {
    if args.len() != n {
        Err(AdmError::InvalidArgument(format!(
            "{name} expects {n} argument(s), got {}",
            args.len()
        )))
    } else {
        Ok(())
    }
}

fn str_arg<'a>(name: &str, v: &'a Value) -> Result<&'a str> {
    v.as_str().ok_or_else(|| {
        AdmError::InvalidArgument(format!("{name} expects a string, got {}", v.type_name()))
    })
}

fn num_arg(name: &str, v: &Value) -> Result<f64> {
    v.as_f64().ok_or_else(|| {
        AdmError::InvalidArgument(format!("{name} expects a number, got {}", v.type_name()))
    })
}

fn int_arg(name: &str, v: &Value) -> Result<i64> {
    v.as_i64().ok_or_else(|| {
        AdmError::InvalidArgument(format!("{name} expects an integer, got {}", v.type_name()))
    })
}

fn list_arg<'a>(name: &str, v: &'a Value) -> Result<&'a [Value]> {
    v.as_list().ok_or_else(|| {
        AdmError::InvalidArgument(format!("{name} expects a collection, got {}", v.type_name()))
    })
}

fn duration_arg(name: &str, v: &Value) -> Result<DurationValue> {
    match v {
        Value::Duration(d) => Ok(*d),
        Value::YearMonthDuration(m) => Ok(DurationValue { months: *m, millis: 0 }),
        Value::DayTimeDuration(ms) => Ok(DurationValue { months: 0, millis: *ms }),
        other => Err(AdmError::InvalidArgument(format!(
            "{name} expects a duration, got {}",
            other.type_name()
        ))),
    }
}

/// Functions whose semantics *inspect* unknowns rather than propagate them.
fn handles_unknowns(name: &str) -> bool {
    matches!(
        name,
        "is-null"
            | "is-missing"
            | "is-unknown"
            | "not"
            | "if-missing"
            | "if-null"
            | "if-missing-or-null"
            | "count"
            | "sql-count"
            | "sql-sum"
            | "sql-min"
            | "sql-max"
            | "sql-avg"
            | "deep-equal"
    )
}

/// Evaluate a builtin function by name.
pub fn eval(name: &str, args: &[Value], ctx: &FunctionContext) -> Result<Value> {
    // Default unknown propagation.
    if !handles_unknowns(name) {
        if args.iter().any(|a| a.is_null()) {
            return Ok(Value::Null);
        }
        if args.iter().any(|a| a.is_missing()) {
            return Ok(Value::Missing);
        }
    }
    match name {
        // -- unknown handling ------------------------------------------------
        "is-null" => {
            // Legacy AQL (the paper's language) predates MISSING: an absent
            // field evaluates as null, so is-null is true for both unknowns
            // (Query 7 relies on this for the optional end-date).
            arity(name, args, 1)?;
            Ok(Value::Boolean(args[0].is_unknown()))
        }
        "is-missing" => {
            arity(name, args, 1)?;
            Ok(Value::Boolean(args[0].is_missing()))
        }
        "is-unknown" => {
            arity(name, args, 1)?;
            Ok(Value::Boolean(args[0].is_unknown()))
        }
        "if-missing" => {
            arity(name, args, 2)?;
            Ok(if args[0].is_missing() { args[1].clone() } else { args[0].clone() })
        }
        "if-null" => {
            arity(name, args, 2)?;
            Ok(if args[0].is_null() { args[1].clone() } else { args[0].clone() })
        }
        "if-missing-or-null" => {
            arity(name, args, 2)?;
            Ok(if args[0].is_unknown() { args[1].clone() } else { args[0].clone() })
        }
        "not" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Boolean(b) => Ok(Value::Boolean(!b)),
                v if v.is_unknown() => Ok(Value::Null),
                other => Err(AdmError::InvalidArgument(format!(
                    "not() expects boolean, got {}",
                    other.type_name()
                ))),
            }
        }
        "deep-equal" => {
            arity(name, args, 2)?;
            Ok(Value::Boolean(args[0].total_cmp(&args[1]).is_eq()))
        }

        // -- string functions -------------------------------------------------
        "contains" => {
            arity(name, args, 2)?;
            Ok(Value::Boolean(strings::contains(
                str_arg(name, &args[0])?,
                str_arg(name, &args[1])?,
            )))
        }
        "like" => {
            arity(name, args, 2)?;
            Ok(Value::Boolean(strings::like(str_arg(name, &args[0])?, str_arg(name, &args[1])?)))
        }
        "matches" => {
            arity(name, args, 2)?;
            Ok(Value::Boolean(strings::matches(
                str_arg(name, &args[0])?,
                str_arg(name, &args[1])?,
            )?))
        }
        "replace" => {
            arity(name, args, 3)?;
            Ok(Value::string(strings::replace(
                str_arg(name, &args[0])?,
                str_arg(name, &args[1])?,
                str_arg(name, &args[2])?,
            )?))
        }
        "word-tokens" => {
            arity(name, args, 1)?;
            let toks = strings::word_tokens(str_arg(name, &args[0])?);
            Ok(Value::ordered_list(toks.into_iter().map(Value::from).collect()))
        }
        "gram-tokens" => {
            arity(name, args, 2)?;
            let k = int_arg(name, &args[1])? as usize;
            let toks = strings::gram_tokens(str_arg(name, &args[0])?, k);
            Ok(Value::ordered_list(toks.into_iter().map(Value::from).collect()))
        }
        "string-length" => {
            arity(name, args, 1)?;
            Ok(Value::Int64(str_arg(name, &args[0])?.chars().count() as i64))
        }
        "lowercase" => {
            arity(name, args, 1)?;
            Ok(Value::string(str_arg(name, &args[0])?.to_lowercase()))
        }
        "uppercase" => {
            arity(name, args, 1)?;
            Ok(Value::string(str_arg(name, &args[0])?.to_uppercase()))
        }
        "trim" => {
            arity(name, args, 1)?;
            Ok(Value::string(str_arg(name, &args[0])?.trim()))
        }
        "starts-with" => {
            arity(name, args, 2)?;
            Ok(Value::Boolean(str_arg(name, &args[0])?.starts_with(str_arg(name, &args[1])?)))
        }
        "ends-with" => {
            arity(name, args, 2)?;
            Ok(Value::Boolean(str_arg(name, &args[0])?.ends_with(str_arg(name, &args[1])?)))
        }
        "substring" => {
            // substring(s, start[, len]) — 1-based start as in AQL.
            if args.len() < 2 || args.len() > 3 {
                return Err(AdmError::InvalidArgument("substring expects 2 or 3 arguments".into()));
            }
            let s = str_arg(name, &args[0])?;
            let start = (int_arg(name, &args[1])? - 1).max(0) as usize;
            let chars: Vec<char> = s.chars().collect();
            let end = if args.len() == 3 {
                (start + int_arg(name, &args[2])?.max(0) as usize).min(chars.len())
            } else {
                chars.len()
            };
            if start >= chars.len() {
                return Ok(Value::string(""));
            }
            Ok(Value::string(chars[start..end].iter().collect::<String>()))
        }
        "string-concat" => {
            arity(name, args, 1)?;
            let items = list_arg(name, &args[0])?;
            let mut out = String::new();
            for v in items {
                out.push_str(str_arg(name, v)?);
            }
            Ok(Value::string(out))
        }
        "string-join" => {
            arity(name, args, 2)?;
            let items = list_arg(name, &args[0])?;
            let sep = str_arg(name, &args[1])?;
            let parts: Result<Vec<&str>> = items.iter().map(|v| str_arg(name, v)).collect();
            Ok(Value::string(parts?.join(sep)))
        }
        "codepoint-to-string" => {
            arity(name, args, 1)?;
            let items = list_arg(name, &args[0])?;
            let mut out = String::new();
            for v in items {
                let cp = int_arg(name, v)? as u32;
                out.push(
                    char::from_u32(cp).ok_or_else(|| {
                        AdmError::InvalidArgument(format!("invalid codepoint {cp}"))
                    })?,
                );
            }
            Ok(Value::string(out))
        }

        // -- edit distance / similarity ---------------------------------------
        "edit-distance" => {
            arity(name, args, 2)?;
            Ok(Value::Int64(strings::edit_distance(
                str_arg(name, &args[0])?,
                str_arg(name, &args[1])?,
            ) as i64))
        }
        "edit-distance-check" => {
            arity(name, args, 3)?;
            let t = int_arg(name, &args[2])?.max(0) as usize;
            match strings::edit_distance_check(
                str_arg(name, &args[0])?,
                str_arg(name, &args[1])?,
                t,
            ) {
                Some(d) => {
                    Ok(Value::ordered_list(vec![Value::Boolean(true), Value::Int64(d as i64)]))
                }
                None => {
                    Ok(Value::ordered_list(vec![Value::Boolean(false), Value::Int64(t as i64 + 1)]))
                }
            }
        }
        "edit-distance-ok" => {
            // Boolean form of edit-distance-check, used by the compiled
            // lowering of `~=` under edit-distance semantics.
            arity(name, args, 3)?;
            let t = int_arg(name, &args[2])?.max(0) as usize;
            Ok(Value::Boolean(
                strings::edit_distance_check(str_arg(name, &args[0])?, str_arg(name, &args[1])?, t)
                    .is_some(),
            ))
        }
        "edit-distance-contains" => {
            arity(name, args, 3)?;
            let t = int_arg(name, &args[2])?.max(0) as usize;
            Ok(Value::Boolean(strings::edit_distance_contains(
                str_arg(name, &args[0])?,
                str_arg(name, &args[1])?,
                t,
            )))
        }
        "similarity-jaccard" => {
            arity(name, args, 2)?;
            Ok(Value::Double(jaccard(list_arg(name, &args[0])?, list_arg(name, &args[1])?)))
        }
        "similarity-jaccard-check" => {
            arity(name, args, 3)?;
            let t = num_arg(name, &args[2])?;
            match jaccard_check(list_arg(name, &args[0])?, list_arg(name, &args[1])?, t) {
                Some(sim) => {
                    Ok(Value::ordered_list(vec![Value::Boolean(true), Value::Double(sim)]))
                }
                None => Ok(Value::ordered_list(vec![Value::Boolean(false), Value::Double(0.0)])),
            }
        }
        "fuzzy-eq" => {
            arity(name, args, 2)?;
            Ok(Value::Boolean(crate::similarity::fuzzy_eq(
                &args[0],
                &args[1],
                &ctx.simfunction,
                &ctx.simthreshold,
            )?))
        }

        // -- temporal functions ------------------------------------------------
        "current-datetime" => {
            arity(name, args, 0)?;
            Ok(Value::DateTime(ctx.now_millis))
        }
        "current-date" => {
            arity(name, args, 0)?;
            Ok(Value::Date(ctx.now_millis.div_euclid(MILLIS_PER_DAY) as i32))
        }
        "current-time" => {
            arity(name, args, 0)?;
            Ok(Value::Time(ctx.now_millis.rem_euclid(MILLIS_PER_DAY) as i32))
        }
        "date"
        | "time"
        | "datetime"
        | "duration"
        | "year-month-duration"
        | "day-time-duration"
        | "point"
        | "line"
        | "rectangle"
        | "circle"
        | "polygon"
        | "hex" => {
            arity(name, args, 1)?;
            // Constructor applied to a string (e.g. `datetime($log.time)`,
            // Query 12); applied to a same-typed value it is the identity.
            match &args[0] {
                Value::String(s) => construct_from_str(name, s),
                other if other.type_name() == name => Ok(other.clone()),
                other => Err(AdmError::InvalidArgument(format!(
                    "{name}() cannot be applied to {}",
                    other.type_name()
                ))),
            }
        }
        "int8" | "int16" | "int32" | "int64" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::String(s) => construct_from_str(name, s),
                v if v.as_i64().is_some() => {
                    crate::value::coerce_int(v, &format!("int{}", &name[3..]))
                }
                other => Err(AdmError::InvalidArgument(format!(
                    "{name}() cannot be applied to {}",
                    other.type_name()
                ))),
            }
        }
        "double" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::String(s) => construct_from_str(name, s),
                v if v.is_numeric() => Ok(Value::Double(v.as_f64().unwrap())),
                other => Err(AdmError::InvalidArgument(format!(
                    "double() cannot be applied to {}",
                    other.type_name()
                ))),
            }
        }
        "string" => {
            arity(name, args, 1)?;
            Ok(Value::string(crate::print::to_adm_string(&args[0]).trim_matches('"')))
        }
        "subtract-datetime" => {
            arity(name, args, 2)?;
            match (&args[0], &args[1]) {
                (Value::DateTime(a), Value::DateTime(b)) => Ok(Value::DayTimeDuration(a - b)),
                _ => Err(AdmError::InvalidArgument("subtract-datetime expects datetimes".into())),
            }
        }
        "subtract-date" => {
            arity(name, args, 2)?;
            match (&args[0], &args[1]) {
                (Value::Date(a), Value::Date(b)) => {
                    Ok(Value::DayTimeDuration((*a as i64 - *b as i64) * MILLIS_PER_DAY))
                }
                _ => Err(AdmError::InvalidArgument("subtract-date expects dates".into())),
            }
        }
        "subtract-time" => {
            arity(name, args, 2)?;
            match (&args[0], &args[1]) {
                (Value::Time(a), Value::Time(b)) => {
                    Ok(Value::DayTimeDuration(*a as i64 - *b as i64))
                }
                _ => Err(AdmError::InvalidArgument("subtract-time expects times".into())),
            }
        }
        "adjust-datetime-for-timezone" => {
            arity(name, args, 2)?;
            match &args[0] {
                Value::DateTime(t) => Ok(Value::DateTime(temporal::adjust_for_timezone(
                    *t,
                    str_arg(name, &args[1])?,
                )?)),
                _ => Err(AdmError::InvalidArgument("expects a datetime".into())),
            }
        }
        "adjust-time-for-timezone" => {
            arity(name, args, 2)?;
            match &args[0] {
                Value::Time(t) => {
                    let adj = temporal::adjust_for_timezone(*t as i64, str_arg(name, &args[1])?)?;
                    Ok(Value::Time(adj.rem_euclid(MILLIS_PER_DAY) as i32))
                }
                _ => Err(AdmError::InvalidArgument("expects a time".into())),
            }
        }
        "interval-start-from-date" => {
            arity(name, args, 2)?;
            let d = match &args[0] {
                Value::Date(d) => *d as i64,
                Value::String(s) => temporal::parse_date(s)? as i64,
                _ => return Err(AdmError::InvalidArgument("expects a date".into())),
            };
            let dur = duration_arg(name, &args[1])?;
            let end = temporal::date_add_duration(d as i32, &dur) as i64;
            Ok(Value::Interval(IntervalValue { kind: IntervalKind::Date, start: d, end }))
        }
        "interval-start-from-time" => {
            arity(name, args, 2)?;
            let t = match &args[0] {
                Value::Time(t) => *t as i64,
                Value::String(s) => temporal::parse_time(s)? as i64,
                _ => return Err(AdmError::InvalidArgument("expects a time".into())),
            };
            let dur = duration_arg(name, &args[1])?;
            if dur.months != 0 {
                return Err(AdmError::InvalidArgument(
                    "time intervals need a day-time duration".into(),
                ));
            }
            Ok(Value::Interval(IntervalValue {
                kind: IntervalKind::Time,
                start: t,
                end: t + dur.millis,
            }))
        }
        "interval-start-from-datetime" => {
            arity(name, args, 2)?;
            let t = match &args[0] {
                Value::DateTime(t) => *t,
                Value::String(s) => temporal::parse_datetime(s)?,
                _ => return Err(AdmError::InvalidArgument("expects a datetime".into())),
            };
            let dur = duration_arg(name, &args[1])?;
            let end = temporal::datetime_add_duration(t, &dur);
            Ok(Value::Interval(IntervalValue { kind: IntervalKind::DateTime, start: t, end }))
        }
        "interval-bin" => {
            arity(name, args, 3)?;
            let (val, kind) = match &args[0] {
                Value::Date(d) => (*d as i64, IntervalKind::Date),
                Value::Time(t) => (*t as i64, IntervalKind::Time),
                Value::DateTime(t) => (*t, IntervalKind::DateTime),
                other => {
                    return Err(AdmError::InvalidArgument(format!(
                        "interval-bin expects a temporal value, got {}",
                        other.type_name()
                    )))
                }
            };
            let anchor = match (&args[1], kind) {
                (Value::Date(d), IntervalKind::Date) => *d as i64,
                (Value::Date(d), IntervalKind::DateTime) => *d as i64 * MILLIS_PER_DAY,
                (Value::Time(t), IntervalKind::Time) => *t as i64,
                (Value::DateTime(t), IntervalKind::DateTime) => *t,
                _ => {
                    return Err(AdmError::InvalidArgument(
                        "interval-bin anchor type mismatch".into(),
                    ))
                }
            };
            let dur = duration_arg(name, &args[2])?;
            Ok(Value::Interval(temporal::interval_bin(val, kind, anchor, &dur)?))
        }
        "get-interval-start" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Interval(iv) => Ok(interval_endpoint(iv, iv.start)),
                _ => Err(AdmError::InvalidArgument("expects an interval".into())),
            }
        }
        "get-interval-end" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Interval(iv) => Ok(interval_endpoint(iv, iv.end)),
                _ => Err(AdmError::InvalidArgument("expects an interval".into())),
            }
        }
        n if n.starts_with("interval-") => {
            arity(name, args, 2)?;
            match (&args[0], &args[1]) {
                (Value::Interval(a), Value::Interval(b)) => {
                    Ok(Value::Boolean(temporal::check_allen(n, a, b)?))
                }
                _ => Err(AdmError::InvalidArgument(format!("{n} expects two intervals"))),
            }
        }
        "year" | "month" | "day" | "hour" | "minute" | "second" => {
            arity(name, args, 1)?;
            temporal_component(name, &args[0])
        }

        // -- spatial functions --------------------------------------------------
        "spatial-distance" => {
            arity(name, args, 2)?;
            Ok(Value::Double(spatial::spatial_distance(&args[0], &args[1])?))
        }
        "spatial-area" => {
            arity(name, args, 1)?;
            Ok(Value::Double(spatial::spatial_area(&args[0])?))
        }
        "spatial-intersect" => {
            arity(name, args, 2)?;
            Ok(Value::Boolean(spatial::spatial_intersect(&args[0], &args[1])?))
        }
        "spatial-cell" => {
            arity(name, args, 4)?;
            let r = spatial::spatial_cell(
                &args[0],
                &args[1],
                num_arg(name, &args[2])?,
                num_arg(name, &args[3])?,
            )?;
            Ok(Value::Rectangle(r))
        }
        "create-circle" => {
            arity(name, args, 2)?;
            match &args[0] {
                Value::Point(p) => Ok(Value::Circle(crate::value::Circle {
                    center: *p,
                    radius: num_arg(name, &args[1])?,
                })),
                _ => Err(AdmError::InvalidArgument("create-circle expects a point".into())),
            }
        }
        "create-rectangle" => {
            arity(name, args, 2)?;
            match (&args[0], &args[1]) {
                (Value::Point(a), Value::Point(b)) => {
                    Ok(Value::Rectangle(crate::value::Rectangle {
                        low: crate::value::Point::new(a.x.min(b.x), a.y.min(b.y)),
                        high: crate::value::Point::new(a.x.max(b.x), a.y.max(b.y)),
                    }))
                }
                _ => Err(AdmError::InvalidArgument("create-rectangle expects two points".into())),
            }
        }
        "create-point" => {
            arity(name, args, 2)?;
            Ok(Value::Point(crate::value::Point::new(
                num_arg(name, &args[0])?,
                num_arg(name, &args[1])?,
            )))
        }
        "get-x" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Point(p) => Ok(Value::Double(p.x)),
                _ => Err(AdmError::InvalidArgument("get-x expects a point".into())),
            }
        }
        "get-y" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Point(p) => Ok(Value::Double(p.y)),
                _ => Err(AdmError::InvalidArgument("get-y expects a point".into())),
            }
        }

        // -- numeric ---------------------------------------------------------
        "abs" => {
            arity(name, args, 1)?;
            match &args[0] {
                v if v.as_i64().is_some() => Ok(Value::Int64(v.as_i64().unwrap().abs())),
                v if v.is_numeric() => Ok(Value::Double(v.as_f64().unwrap().abs())),
                other => Err(AdmError::InvalidArgument(format!(
                    "abs expects a number, got {}",
                    other.type_name()
                ))),
            }
        }
        "round" => {
            arity(name, args, 1)?;
            Ok(Value::Double(num_arg(name, &args[0])?.round()))
        }
        "floor" => {
            arity(name, args, 1)?;
            Ok(Value::Double(num_arg(name, &args[0])?.floor()))
        }
        "ceiling" => {
            arity(name, args, 1)?;
            Ok(Value::Double(num_arg(name, &args[0])?.ceil()))
        }
        "sqrt" => {
            arity(name, args, 1)?;
            Ok(Value::Double(num_arg(name, &args[0])?.sqrt()))
        }

        // -- collections ------------------------------------------------------
        "len" => {
            arity(name, args, 1)?;
            Ok(Value::Int64(list_arg(name, &args[0])?.len() as i64))
        }
        "get-item" => {
            arity(name, args, 2)?;
            let items = list_arg(name, &args[0])?;
            let i = int_arg(name, &args[1])?;
            if i < 0 || i as usize >= items.len() {
                Ok(Value::Missing)
            } else {
                Ok(items[i as usize].clone())
            }
        }
        "range" => {
            arity(name, args, 2)?;
            let lo = int_arg(name, &args[0])?;
            let hi = int_arg(name, &args[1])?;
            Ok(Value::ordered_list((lo..=hi).map(Value::Int64).collect()))
        }

        // -- aggregates over collection values (AQL allows avg(<list>)) ------
        "count" => {
            // AQL count: the cardinality of the collection (nulls count;
            // missing items do not exist).
            arity(name, args, 1)?;
            match &args[0] {
                v if v.is_unknown() => Ok(Value::Int64(0)),
                v => Ok(Value::Int64(
                    list_arg(name, v)?.iter().filter(|x| !x.is_missing()).count() as i64,
                )),
            }
        }
        "sql-count" => {
            // SQL count: unknowns are skipped.
            arity(name, args, 1)?;
            match &args[0] {
                v if v.is_unknown() => Ok(Value::Int64(0)),
                v => Ok(Value::Int64(
                    list_arg(name, v)?.iter().filter(|x| !x.is_unknown()).count() as i64,
                )),
            }
        }
        "sum" | "min" | "max" | "avg" => scalar_aggregate(name, &args[0], false),
        "sql-sum" | "sql-min" | "sql-max" | "sql-avg" => {
            scalar_aggregate(&name[4..], &args[0], true)
        }

        other => Err(AdmError::UnknownFunction(other.to_string())),
    }
}

fn interval_endpoint(iv: &IntervalValue, v: i64) -> Value {
    match iv.kind {
        IntervalKind::Date => Value::Date(v as i32),
        IntervalKind::Time => Value::Time(v as i32),
        IntervalKind::DateTime => Value::DateTime(v),
    }
}

fn temporal_component(name: &str, v: &Value) -> Result<Value> {
    let (days, millis_of_day) = match v {
        Value::Date(d) => (*d as i64, 0),
        Value::DateTime(t) => (t.div_euclid(MILLIS_PER_DAY), t.rem_euclid(MILLIS_PER_DAY)),
        Value::Time(t) => (0, *t as i64),
        other => {
            return Err(AdmError::InvalidArgument(format!(
                "{name} expects a temporal value, got {}",
                other.type_name()
            )))
        }
    };
    let (y, mo, d) = temporal::civil_from_days(days);
    Ok(Value::Int64(match name {
        "year" => y as i64,
        "month" => mo as i64,
        "day" => d as i64,
        "hour" => millis_of_day / temporal::MILLIS_PER_HOUR,
        "minute" => (millis_of_day % temporal::MILLIS_PER_HOUR) / temporal::MILLIS_PER_MINUTE,
        "second" => (millis_of_day % temporal::MILLIS_PER_MINUTE) / temporal::MILLIS_PER_SECOND,
        _ => unreachable!(),
    }))
}

/// Aggregates over a materialized collection.
///
/// AQL semantics (`sum`/`min`/`max`/`avg`): any `null` element makes the
/// result `null` ("proper" semantics per Section 3). SQL semantics
/// (`sql-*`): unknowns are skipped, empty input yields `null`.
fn scalar_aggregate(op: &str, input: &Value, sql: bool) -> Result<Value> {
    if input.is_unknown() {
        return Ok(Value::Null);
    }
    let items = list_arg(op, input)?;
    let mut vals: Vec<&Value> = Vec::with_capacity(items.len());
    for v in items {
        if v.is_unknown() {
            if sql {
                continue;
            }
            return Ok(Value::Null);
        }
        vals.push(v);
    }
    if vals.is_empty() {
        return Ok(Value::Null);
    }
    match op {
        "min" => Ok(vals
            .iter()
            .fold(vals[0], |acc, v| if v.total_cmp(acc).is_lt() { v } else { acc })
            .clone()),
        "max" => Ok(vals
            .iter()
            .fold(vals[0], |acc, v| if v.total_cmp(acc).is_gt() { v } else { acc })
            .clone()),
        "sum" => {
            if vals.iter().all(|v| v.as_i64().is_some()) {
                let mut acc: i64 = 0;
                for v in &vals {
                    acc = acc
                        .checked_add(v.as_i64().unwrap())
                        .ok_or_else(|| AdmError::Arithmetic("integer overflow in sum".into()))?;
                }
                Ok(Value::Int64(acc))
            } else {
                let mut acc = 0.0;
                for v in &vals {
                    acc += v.as_f64().ok_or_else(|| {
                        AdmError::InvalidArgument(format!("sum over non-numeric {}", v.type_name()))
                    })?;
                }
                Ok(Value::Double(acc))
            }
        }
        "avg" => {
            let mut acc = 0.0;
            for v in &vals {
                acc += v.as_f64().ok_or_else(|| {
                    AdmError::InvalidArgument(format!("avg over non-numeric {}", v.type_name()))
                })?;
            }
            Ok(Value::Double(acc / vals.len() as f64))
        }
        other => Err(AdmError::UnknownFunction(other.to_string())),
    }
}

// ---------------------------------------------------------------------------
// Arithmetic with numeric promotion and temporal rules
// ---------------------------------------------------------------------------

/// Binary arithmetic used by AQL `+ - * / %` (Section 3, e.g. Query 12's
/// `$end - duration("P30D")`). Unknowns propagate as null/missing.
pub fn arith(op: char, a: &Value, b: &Value) -> Result<Value> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    if a.is_missing() || b.is_missing() {
        return Ok(Value::Missing);
    }
    // Temporal rules first.
    match (op, a, b) {
        ('+', Value::DateTime(t), d) | ('+', d, Value::DateTime(t))
            if duration_arg("+", d).is_ok() =>
        {
            return Ok(Value::DateTime(temporal::datetime_add_duration(
                *t,
                &duration_arg("+", d)?,
            )));
        }
        ('-', Value::DateTime(t), d) if duration_arg("-", d).is_ok() => {
            let dur = duration_arg("-", d)?;
            let neg = DurationValue { months: -dur.months, millis: -dur.millis };
            return Ok(Value::DateTime(temporal::datetime_add_duration(*t, &neg)));
        }
        ('+', Value::Date(t), d) | ('+', d, Value::Date(t)) if duration_arg("+", d).is_ok() => {
            return Ok(Value::Date(temporal::date_add_duration(*t, &duration_arg("+", d)?)));
        }
        ('-', Value::Date(t), d) if duration_arg("-", d).is_ok() => {
            let dur = duration_arg("-", d)?;
            let neg = DurationValue { months: -dur.months, millis: -dur.millis };
            return Ok(Value::Date(temporal::date_add_duration(*t, &neg)));
        }
        ('-', Value::DateTime(x), Value::DateTime(y)) => {
            return Ok(Value::DayTimeDuration(x - y));
        }
        ('-', Value::Date(x), Value::Date(y)) => {
            return Ok(Value::DayTimeDuration((*x as i64 - *y as i64) * MILLIS_PER_DAY));
        }
        ('-', Value::Time(x), Value::Time(y)) => {
            return Ok(Value::DayTimeDuration(*x as i64 - *y as i64));
        }
        ('+', x, y) if duration_arg("+", x).is_ok() && duration_arg("+", y).is_ok() => {
            let (dx, dy) = (duration_arg("+", x)?, duration_arg("+", y)?);
            return Ok(Value::Duration(DurationValue {
                months: dx.months + dy.months,
                millis: dx.millis + dy.millis,
            }));
        }
        _ => {}
    }
    // Numeric rules.
    let (x, y) = match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => (x, y),
        _ => {
            return Err(AdmError::InvalidArgument(format!(
                "cannot apply '{op}' to {} and {}",
                a.type_name(),
                b.type_name()
            )))
        }
    };
    let both_int = a.as_i64().is_some() && b.as_i64().is_some();
    if both_int {
        let (ia, ib) = (a.as_i64().unwrap(), b.as_i64().unwrap());
        let out = match op {
            '+' => ia.checked_add(ib),
            '-' => ia.checked_sub(ib),
            '*' => ia.checked_mul(ib),
            '/' => {
                if ib == 0 {
                    return Err(AdmError::Arithmetic("division by zero".into()));
                }
                // Integer division stays integral when exact, else double —
                // matching AQL's numeric promotion behavior.
                if ia % ib == 0 {
                    ia.checked_div(ib)
                } else {
                    return Ok(Value::Double(x / y));
                }
            }
            '%' => {
                if ib == 0 {
                    return Err(AdmError::Arithmetic("modulo by zero".into()));
                }
                ia.checked_rem(ib)
            }
            _ => return Err(AdmError::InvalidArgument(format!("unknown operator '{op}'"))),
        };
        return out
            .map(Value::Int64)
            .ok_or_else(|| AdmError::Arithmetic(format!("integer overflow in '{op}'")));
    }
    Ok(Value::Double(match op {
        '+' => x + y,
        '-' => x - y,
        '*' => x * y,
        '/' => {
            if y == 0.0 {
                return Err(AdmError::Arithmetic("division by zero".into()));
            }
            x / y
        }
        '%' => x % y,
        _ => return Err(AdmError::InvalidArgument(format!("unknown operator '{op}'"))),
    }))
}

/// Unary negation.
pub fn neg(v: &Value) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Missing => Ok(Value::Missing),
        _ if v.as_i64().is_some() => Ok(Value::Int64(-v.as_i64().unwrap())),
        _ if v.is_numeric() => Ok(Value::Double(-v.as_f64().unwrap())),
        Value::Duration(d) => {
            Ok(Value::Duration(DurationValue { months: -d.months, millis: -d.millis }))
        }
        other => Err(AdmError::InvalidArgument(format!("cannot negate {}", other.type_name()))),
    }
}

/// Construct a record value (used by the `return { ... }` record
/// constructor in translated plans). Missing-valued fields are omitted, as
/// in AQL record construction.
pub fn build_record(fields: Vec<(String, Value)>) -> Value {
    let mut rec = Record::with_capacity(fields.len());
    for (name, v) in fields {
        if !v.is_missing() {
            rec.push_unchecked(name, v);
        }
    }
    Value::record(rec)
}

/// Flatten helper used by list constructors.
pub fn build_list(items: Vec<Value>, ordered: bool) -> Value {
    if ordered {
        Value::ordered_list(items)
    } else {
        Value::unordered_list(items)
    }
}

/// All builtin names, used by the AQL translator to distinguish builtin
/// calls from user-defined functions.
pub fn is_builtin(name: &str) -> bool {
    const NAMES: &[&str] = &[
        "is-null",
        "is-missing",
        "is-unknown",
        "if-missing",
        "if-null",
        "if-missing-or-null",
        "not",
        "deep-equal",
        "contains",
        "like",
        "matches",
        "replace",
        "word-tokens",
        "gram-tokens",
        "string-length",
        "lowercase",
        "uppercase",
        "trim",
        "starts-with",
        "ends-with",
        "substring",
        "string-concat",
        "string-join",
        "codepoint-to-string",
        "edit-distance",
        "edit-distance-check",
        "edit-distance-ok",
        "edit-distance-contains",
        "similarity-jaccard",
        "similarity-jaccard-check",
        "fuzzy-eq",
        "current-datetime",
        "current-date",
        "current-time",
        "date",
        "time",
        "datetime",
        "duration",
        "year-month-duration",
        "day-time-duration",
        "point",
        "line",
        "rectangle",
        "circle",
        "polygon",
        "hex",
        "int8",
        "int16",
        "int32",
        "int64",
        "double",
        "string",
        "subtract-datetime",
        "subtract-date",
        "subtract-time",
        "adjust-datetime-for-timezone",
        "adjust-time-for-timezone",
        "interval-start-from-date",
        "interval-start-from-time",
        "interval-start-from-datetime",
        "interval-bin",
        "get-interval-start",
        "get-interval-end",
        "year",
        "month",
        "day",
        "hour",
        "minute",
        "second",
        "spatial-distance",
        "spatial-area",
        "spatial-intersect",
        "spatial-cell",
        "create-point",
        "create-circle",
        "create-rectangle",
        "get-x",
        "get-y",
        "abs",
        "round",
        "floor",
        "ceiling",
        "sqrt",
        "len",
        "get-item",
        "range",
        "count",
        "sum",
        "min",
        "max",
        "avg",
        "sql-count",
        "sql-sum",
        "sql-min",
        "sql-max",
        "sql-avg",
    ];
    NAMES.contains(&name) || name.starts_with("interval-")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> FunctionContext {
        FunctionContext {
            now_millis: 1_000_000,
            simfunction: "edit-distance".into(),
            simthreshold: "3".into(),
        }
    }

    fn call(name: &str, args: &[Value]) -> Value {
        eval(name, args, &ctx()).unwrap()
    }

    #[test]
    fn unknown_propagation() {
        assert_eq!(call("string-length", &[Value::Null]), Value::Null);
        assert_eq!(call("string-length", &[Value::Missing]), Value::Missing);
        assert_eq!(call("is-null", &[Value::Null]), Value::Boolean(true));
        assert_eq!(call("is-missing", &[Value::Missing]), Value::Boolean(true));
        assert_eq!(call("is-null", &[Value::Missing]), Value::Boolean(true));
    }

    #[test]
    fn string_functions() {
        assert_eq!(
            call("contains", &[Value::string("hello"), Value::string("ell")]),
            Value::Boolean(true)
        );
        assert_eq!(call("string-length", &[Value::string("héllo")]), Value::Int64(5));
        assert_eq!(
            call("substring", &[Value::string("hello"), Value::Int64(2), Value::Int64(3)]),
            Value::string("ell")
        );
        assert_eq!(call("uppercase", &[Value::string("ab")]), Value::string("AB"));
        let toks = call("word-tokens", &[Value::string("See you tonight!")]);
        assert_eq!(toks.as_list().unwrap().len(), 3);
    }

    #[test]
    fn aggregate_null_semantics() {
        // AQL avg: null poisons; SQL avg: null skipped.
        let with_null = Value::ordered_list(vec![Value::Int64(2), Value::Null, Value::Int64(4)]);
        assert_eq!(call("avg", std::slice::from_ref(&with_null)), Value::Null);
        assert_eq!(call("sql-avg", std::slice::from_ref(&with_null)), Value::Double(3.0));
        assert_eq!(call("count", std::slice::from_ref(&with_null)), Value::Int64(3));
        assert_eq!(call("sum", std::slice::from_ref(&with_null)), Value::Null);
        assert_eq!(call("sql-sum", &[with_null]), Value::Int64(6));
        let empty = Value::ordered_list(vec![]);
        assert_eq!(call("avg", std::slice::from_ref(&empty)), Value::Null);
        assert_eq!(call("count", &[empty]), Value::Int64(0));
    }

    #[test]
    fn min_max() {
        let l = Value::ordered_list(vec![Value::Int64(3), Value::Int64(1), Value::Int64(2)]);
        assert_eq!(call("min", std::slice::from_ref(&l)), Value::Int64(1));
        assert_eq!(call("max", &[l]), Value::Int64(3));
    }

    #[test]
    fn constructors_and_current() {
        assert!(matches!(
            call("datetime", &[Value::string("2014-01-01T00:00:00")]),
            Value::DateTime(_)
        ));
        assert_eq!(call("current-datetime", &[]), Value::DateTime(1_000_000));
        assert_eq!(call("int32", &[Value::Int64(9)]), Value::Int32(9));
    }

    #[test]
    fn temporal_arith() {
        let dt = call("datetime", &[Value::string("2014-01-31T00:00:00")]);
        let dur = call("duration", &[Value::string("P30D")]);
        let sum = arith('+', &dt, &dur).unwrap();
        assert_eq!(crate::print::to_adm_string(&sum), "datetime(\"2014-03-02T00:00:00\")");
        let diff = arith('-', &sum, &dt).unwrap();
        assert_eq!(diff, Value::DayTimeDuration(30 * MILLIS_PER_DAY));
    }

    #[test]
    fn numeric_arith() {
        assert_eq!(arith('+', &Value::Int32(2), &Value::Int32(3)).unwrap(), Value::Int64(5));
        assert_eq!(arith('/', &Value::Int32(6), &Value::Int32(3)).unwrap(), Value::Int64(2));
        assert_eq!(arith('/', &Value::Int32(7), &Value::Int32(2)).unwrap(), Value::Double(3.5));
        assert!(arith('/', &Value::Int32(1), &Value::Int32(0)).is_err());
        assert_eq!(arith('+', &Value::Null, &Value::Int32(1)).unwrap(), Value::Null);
        assert_eq!(arith('*', &Value::Double(1.5), &Value::Int32(2)).unwrap(), Value::Double(3.0));
        assert!(arith('+', &Value::Int64(i64::MAX), &Value::Int64(1)).is_err());
    }

    #[test]
    fn fuzzy_eq_uses_ctx() {
        let r = call("fuzzy-eq", &[Value::string("tonight"), Value::string("tonite")]);
        assert_eq!(r, Value::Boolean(true));
    }

    #[test]
    fn edit_distance_check_shape() {
        let r = call(
            "edit-distance-check",
            &[Value::string("abc"), Value::string("abd"), Value::Int64(1)],
        );
        assert_eq!(r, Value::ordered_list(vec![Value::Boolean(true), Value::Int64(1)]));
    }

    #[test]
    fn interval_functions() {
        let iv = call(
            "interval-start-from-datetime",
            &[Value::string("2014-01-01T00:00:00"), call("duration", &[Value::string("P1D")])],
        );
        let start = call("get-interval-start", std::slice::from_ref(&iv));
        assert!(matches!(start, Value::DateTime(_)));
        let iv2 = call(
            "interval-start-from-datetime",
            &[Value::string("2014-01-01T12:00:00"), call("duration", &[Value::string("P1D")])],
        );
        assert_eq!(call("interval-overlaps", &[iv, iv2]), Value::Boolean(true));
    }

    #[test]
    fn temporal_components() {
        let dt = call("datetime", &[Value::string("2014-07-02T13:45:59")]);
        assert_eq!(call("year", std::slice::from_ref(&dt)), Value::Int64(2014));
        assert_eq!(call("month", std::slice::from_ref(&dt)), Value::Int64(7));
        assert_eq!(call("day", std::slice::from_ref(&dt)), Value::Int64(2));
        assert_eq!(call("hour", std::slice::from_ref(&dt)), Value::Int64(13));
        assert_eq!(call("minute", std::slice::from_ref(&dt)), Value::Int64(45));
        assert_eq!(call("second", &[dt]), Value::Int64(59));
    }

    #[test]
    fn unknown_function_errors() {
        assert!(matches!(eval("no-such-fn", &[], &ctx()), Err(AdmError::UnknownFunction(_))));
    }

    #[test]
    fn record_builder_drops_missing() {
        let v = build_record(vec![("a".into(), Value::Int64(1)), ("b".into(), Value::Missing)]);
        assert_eq!(v.as_record().unwrap().len(), 1);
    }
}
