//! Differential testing: the compiled (Hyracks) path vs. the interpreter,
//! and indexed vs. scan plans, must agree on randomized data — the
//! cross-checking oracle for the whole query stack.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use asterix_adm::functions::FunctionContext;
use asterix_adm::value::{Circle, Line, Point, Rectangle};
use asterix_adm::Value;
use asterix_algebricks::expr::EvalCtx;
use asterix_algebricks::interp;
use asterix_algebricks::metadata::MetadataProvider;
use asterix_algebricks::rules::{optimize, OptimizerOptions};
use asterix_aql::parser::parse_expression;
use asterix_aql::translate::Translator;
use asterix_testkit::rng::{Rng, SeedableRng, StdRng};
use asterixdb::{ClusterConfig, Instance};
use common::{for_each_setup, staged_instance, Corpus, Layout, Setup};

fn build_instance(seed: u64, n: usize) -> (Arc<Instance>, asterix_testkit::TempDir) {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let instance = Instance::open(ClusterConfig::small(dir.path())).unwrap();
    instance
        .execute(
            r#"
        create dataverse Diff;
        use dataverse Diff;
        create type UT as open { id: int64, grp: int64, score: int64, name: string };
        create dataset U(UT) primary key id;
        create index grpIdx on U(grp);
        create type MT as open { mid: int64, author: int64, len: int64 };
        create dataset M(MT) primary key mid;
        create index authorIdx on M(author);
    "#,
        )
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let users = instance.dataset("U").unwrap();
    for i in 0..n as i64 {
        let rec = asterix_adm::parse::parse_value(&format!(
            "{{ \"id\": {i}, \"grp\": {}, \"score\": {}, \"name\": \"u{i}\" }}",
            rng.gen_range(0..7),
            rng.gen_range(0..1000)
        ))
        .unwrap();
        users.insert(&rec).unwrap();
    }
    let msgs = instance.dataset("M").unwrap();
    for m in 0..(n * 3) as i64 {
        let rec = asterix_adm::parse::parse_value(&format!(
            "{{ \"mid\": {m}, \"author\": {}, \"len\": {} }}",
            rng.gen_range(0..n as i64),
            rng.gen_range(1..200)
        ))
        .unwrap();
        msgs.insert(&rec).unwrap();
    }
    (instance, dir)
}

/// Queries exercising scans, index paths, joins, groups, sorts, subqueries.
const QUERIES: &[&str] = &[
    "for $u in dataset U where $u.grp = 3 return $u.id",
    "for $u in dataset U where $u.id = 17 return $u.name",
    "for $u in dataset U where $u.score >= 100 and $u.score < 300 return $u.id",
    "for $u in dataset U for $m in dataset M where $m.author = $u.id and $u.grp = 2 \
     return { \"n\": $u.name, \"l\": $m.len }",
    "for $u in dataset U for $m in dataset M where $m.author /*+ indexnl */ = $u.id \
     and $u.grp = 2 return $m.mid",
    "for $m in dataset M group by $a := $m.author with $m let $c := count($m) \
     where $c > 2 return { \"a\": $a, \"c\": $c }",
    "for $u in dataset U order by $u.score desc, $u.id asc limit 7 return $u.id",
    "avg(for $m in dataset M where $m.author < 10 return $m.len)",
    "for $u in dataset U where $u.grp = 1 \
     return { \"u\": $u.id, \"msgs\": for $m in dataset M where $m.author = $u.id \
     return $m.mid }",
    "sum(for $u in dataset U return $u.score)",
    "for $u in dataset U where some $x in [1, 2, 3] satisfies $u.grp = $x return $u.id",
];

fn canonical(mut rows: Vec<Value>) -> Vec<String> {
    rows.sort_by(|a, b| a.total_cmp(b));
    rows.iter().map(asterix_adm::print::to_adm_string).collect()
}

/// For nested queries the inner list order is nondeterministic across
/// plans; normalize by sorting inner lists too.
fn deep_canonical(rows: Vec<Value>) -> Vec<String> {
    fn norm(v: &Value) -> Value {
        match v {
            Value::Record(r) => {
                let mut out = asterix_adm::Record::new();
                for (k, x) in r.iter() {
                    out.push_unchecked(k, norm(x));
                }
                Value::record(out)
            }
            Value::OrderedList(items) => {
                let mut xs: Vec<Value> = items.iter().map(norm).collect();
                xs.sort_by(|a, b| a.total_cmp(b));
                Value::ordered_list(xs)
            }
            other => other.clone(),
        }
    }
    canonical(rows.iter().map(norm).collect())
}

#[test]
fn compiled_equals_interpreted_on_random_data() {
    let (instance, _d) = build_instance(0xA57E, 120);
    for q in QUERIES {
        let compiled_rows = instance.query(q).unwrap();

        // Interpreter path over the same optimized plan.
        let interp_rows = interpreted(&instance, "Diff", q);

        let ordered = q.contains("order by");
        if ordered {
            assert_eq!(compiled_rows, interp_rows, "ordered results differ for {q}");
        } else {
            assert_eq!(
                deep_canonical(compiled_rows),
                deep_canonical(interp_rows),
                "results differ for {q}"
            );
        }
    }
}

#[test]
fn indexed_and_scan_plans_agree() {
    let (instance, _d) = build_instance(0xBEEF, 150);
    for q in QUERIES {
        instance.optimizer_options.write().enable_index_access = true;
        let with_ix = instance.query(q).unwrap();
        instance.optimizer_options.write().enable_index_access = false;
        let without = instance.query(q).unwrap();
        if q.contains("order by") {
            assert_eq!(with_ix, without, "ordered results differ for {q}");
        } else {
            assert_eq!(deep_canonical(with_ix), deep_canonical(without), "results differ for {q}");
        }
    }
}

#[test]
fn compiled_jobgen_and_run_random_filters() {
    // Fuzz filter thresholds: compiled results must equal a straight scan
    // filter computed in the test.
    let (instance, _d) = build_instance(0xF00D, 200);
    let all = instance.query("for $u in dataset U return $u;").unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..12 {
        let lo = rng.gen_range(0..900i64);
        let hi = lo + rng.gen_range(1..100i64);
        let rows = instance
            .query(&format!(
                "for $u in dataset U where $u.score >= {lo} and $u.score < {hi} return $u.id;"
            ))
            .unwrap();
        let expect = all
            .iter()
            .filter(|u| {
                let s = u.field("score").as_i64().unwrap();
                s >= lo && s < hi
            })
            .count();
        assert_eq!(rows.len(), expect, "score in [{lo},{hi})");
    }
}

// ---------------------------------------------------------------------------
// Filter-first scans: one logical dataset, in memory and in columnar components
// ---------------------------------------------------------------------------

/// Record `i` of the pushdown dataset. `ts` (declared, optional) is
/// MISSING or NULL in some rows and absent from the very first one, so the
/// inferred column order drifts from the declared order; `v` is an open
/// field that is a string in a few rows (those spill); `w` is an open
/// field too rare and too mixed to earn a column (it lives in the rest
/// record); `big` crosses the ordkey exact bound.
fn pushdown_record(i: i64, ts: i64) -> Value {
    let mut fields = vec![format!("\"id\": {i}"), format!("\"grp\": {}", i % 5)];
    if i % 11 == 0 {
        // MISSING
    } else if i % 13 == 0 {
        fields.push("\"ts\": null".into());
    } else {
        fields.push(format!("\"ts\": {ts}"));
    }
    match i % 9 {
        0 => fields.push("\"big\": 1.0e16".into()),
        1 => fields.push("\"big\": 9.1e15".into()),
        _ => fields.push(format!("\"big\": {i}.5")),
    }
    if i % 20 == 19 {
        fields.push(format!("\"v\": \"s{i}\""));
    } else {
        fields.push(format!("\"v\": {}", i % 300));
    }
    match i % 7 {
        0 => fields.push(format!("\"w\": \"s{i}\"")),
        1 => fields.push(format!("\"w\": {}", i % 300)),
        _ => {}
    }
    asterix_adm::parse::parse_value(&format!("{{ {} }}", fields.join(", "))).unwrap()
}

fn pushdown_ts(i: i64) -> i64 {
    (i * 37) % 1000
}

/// The pushdown dataset, loaded in three stages: ids 0..300; then
/// 300..600, with id 5 (ts 185, inside the window) rewritten with a ts
/// outside it and id 8 (ts 296) deleted; then, left in memory, 600..650,
/// with id 305 (ts 285) rewritten and id 316 (ts 692 … inside the wide
/// window) deleted.
fn pushdown_corpus() -> Corpus {
    Corpus {
        dataverse: "Push",
        ddl: "create type DT as open { id: int64, grp: int64, ts: int64?, big: double? };
              create dataset D(DT) primary key id;"
            .into(),
        flushed: vec!["D"],
        load: Box::new(|instance, stage| {
            let d = instance.dataset("D").unwrap();
            let (ids, changed) = match stage {
                0 => (0..300, None),
                1 => (300..600, Some((5, 8))),
                _ => (600..650, Some((305, 316))),
            };
            for i in ids {
                d.insert(&pushdown_record(i, pushdown_ts(i))).unwrap();
            }
            if let Some((rewritten, deleted)) = changed {
                assert!(d.delete_by_pk(&[Value::Int64(rewritten)]).unwrap());
                d.insert(&pushdown_record(rewritten, 5000)).unwrap();
                assert!(d.delete_by_pk(&[Value::Int64(deleted)]).unwrap());
            }
        }),
    }
}

fn pushdown_instance(layout: Layout) -> (Arc<Instance>, asterix_testkit::TempDir) {
    staged_instance(Setup { layout, topology: (2, 2) }, &pushdown_corpus())
}

/// Scans whose select sits directly on the data scan: every
/// ordkey-decidable conjunct is pushed, whether or not `$d` escapes.
const PUSHDOWN_QUERIES: &[&str] = &[
    // The record escapes under a two-sided range.
    "for $d in dataset D where $d.ts >= 100 and $d.ts < 400 return $d",
    "for $d in dataset D where $d.ts >= 100 and $d.ts < 400 \
     group by $g := $d.grp with $d let $c := count($d) return { \"g\": $g, \"c\": $c }",
    "for $d in dataset D where $d.ts >= 100 and $d.ts < 800 return $d.id",
    // MISSING / NULL under every operator, `!=` included.
    "for $d in dataset D where $d.ts != 185 return $d",
    "for $d in dataset D where $d.ts <= 50 return { \"id\": $d.id, \"ts\": $d.ts }",
    // A column whose minority-typed rows spill.
    "for $d in dataset D where $d.v >= 50 and $d.v < 150 return $d",
    "for $d in dataset D where $d.v >= \"s2\" return $d.id",
    // A field of mixed type that only lives in the rest record.
    "for $d in dataset D where $d.w >= 50 and $d.w < 150 return $d",
    // Past the ordkey exact bound the pushed filter must not decide.
    "for $d in dataset D where $d.big >= 9.05e15 and $d.big < 2.0e16 return $d",
    "for $d in dataset D where $d.big > 9.1e15 return $d.id",
    // One pushable conjunct beside one that is not.
    "for $d in dataset D where $d.ts >= 100 and $d.grp + 1 = 3 return $d",
    // No select at all: the all-fields, no-filter scan.
    "for $d in dataset D return $d",
];

#[test]
fn pushed_filters_answer_identically_on_every_storage_layout() {
    let (reference, _d0) = pushdown_instance(Layout::Memory);
    let expected: Vec<Vec<String>> =
        PUSHDOWN_QUERIES.iter().map(|q| canonical(reference.query(q).unwrap())).collect();
    // The queries select something, and the shadowed versions are gone.
    assert!(expected.iter().all(|rows| !rows.is_empty()));
    let window_ids = canonical(reference.query(PUSHDOWN_QUERIES[2]).unwrap());
    for gone in ["5", "8", "305", "316"] {
        assert!(!window_ids.contains(&gone.to_string()), "id {gone} must be shadowed");
    }
    for_each_setup(&Layout::ALL[1..], &[(2, 2)], &pushdown_corpus(), |setup, instance| {
        assert!(instance.columnar_stats().components.get() > 0, "{setup:?}");
        for (q, want) in PUSHDOWN_QUERIES.iter().zip(&expected) {
            // Printed ADM pins field order as well as values.
            assert_eq!(&canonical(instance.query(q).unwrap()), want, "{setup:?}: {q}");
        }
        assert!(instance.columnar_stats().rows_filtered.get() > 0, "{setup:?}");
    });
}

/// A 3 % window over a columnar tree assembles the rows it keeps, not the
/// rows it visits.
#[test]
fn selective_window_assembles_a_small_share_of_visited_rows() {
    let (instance, _d) = pushdown_instance(Layout::Columnar);
    let stats = instance.columnar_stats();
    let (filtered0, assembled0) = (stats.rows_filtered.get(), stats.rows_assembled.get());
    let rows =
        instance.query("for $d in dataset D where $d.ts >= 100 and $d.ts < 130 return $d").unwrap();
    let filtered = stats.rows_filtered.get() - filtered0;
    let assembled = stats.rows_assembled.get() - assembled0;
    assert!(!rows.is_empty() && assembled > 0);
    assert!(filtered + assembled >= 550, "the scan visits the flushed rows");
    assert!(
        assembled * 10 < filtered + assembled,
        "{assembled} of {} visited rows assembled",
        filtered + assembled
    );
    // `explain` shows what was pushed.
    let (_, job) = instance
        .explain("for $d in dataset D where $d.ts >= 100 and $d.ts < 130 return $d")
        .unwrap();
    assert!(job.contains("data-scan Push.D [cols: *] [filter: ts>=?, ts<?]"), "{job}");
}

// ---------------------------------------------------------------------------
// Secondary-index plans: the batched primary fetch against the interpreter
// ---------------------------------------------------------------------------

const IX_USERS: i64 = 80;
const IX_MESSAGES: i64 = 600;
const USERS: &str = "Perf.MugshotUsers";
const MESSAGES: &str = "Perf.MugshotMessages";

fn minute(t: i64) -> String {
    format!("datetime(\"2010-01-01T{:02}:{:02}:00\")", t / 60 % 24, t % 60)
}

fn ix_user(i: i64) -> Value {
    asterix_adm::parse::parse_value(&format!(
        "{{ \"id\": {i}, \"name\": \"u{i}\", \"user-since\": {} }}",
        minute(i * 11 % 1440)
    ))
    .unwrap()
}

/// Message `m` at minute `ts`. Users 60.. write nothing; `in-response-to`
/// (declared, optional) is absent from the first rows, so the inferred
/// column order drifts from the declared one; the message text varies in
/// length.
fn ix_message(m: i64, ts: i64) -> Value {
    let mut fields = vec![
        format!("\"message-id\": {m}"),
        format!("\"author-id\": {}", m * 7 % 60),
        format!("\"timestamp\": {}", minute(ts)),
    ];
    if m % 3 == 2 {
        fields.push(format!("\"in-response-to\": {}", m / 2));
    }
    fields.push(format!("\"message\": \"m{m}{}\"", "!".repeat((m % 13) as usize)));
    asterix_adm::parse::parse_value(&format!("{{ {} }}", fields.join(", "))).unwrap()
}

fn ix_ts(m: i64) -> i64 {
    m * 37 % 1440
}

/// Record `i` of a key dataset: `A` (30 records; `k` an int32 in 0..12) or
/// `B` (150 records; `k` an int64 in 0..20, so two fifths of them have no
/// partner in `A`), each with `s`, the key as a string. In either, `k` and
/// `s` are NULL in some records and MISSING in others; `k` overrides the
/// key.
fn key_record(dataset: &str, i: i64, k: Option<i64>) -> Value {
    let (modulus, nulls) = if dataset == "A" { (12, 7) } else { (20, 11) };
    let k = k.unwrap_or(i % modulus);
    let mut r = asterix_adm::Record::new();
    r.set("id", Value::Int64(i));
    match i % nulls {
        3 => r.set("k", Value::Null),
        5 => {}
        _ if dataset == "A" => r.set("k", Value::Int32(k as i32)),
        _ => r.set("k", Value::Int64(k)),
    }
    match i % nulls {
        4 => r.set("s", Value::Null),
        6 => {}
        _ => r.set("s", Value::string(format!("s{k}"))),
    }
    Value::record(r)
}

/// The benchmark's schema (`perf/src/env.rs`) cut down to the fields its
/// shapes touch, under the benchmark's names, loaded in three stages like
/// [`pushdown_corpus`], each later stage rewriting and deleting messages of
/// the earlier ones: with the benchmark's secondary indexes (its
/// `index_queries` instance), or without them (its `scan_queries`
/// instance) and with the key datasets of [`key_record`], staged the same
/// way.
fn perf_corpus(indexed: bool) -> Corpus {
    let more = if indexed {
        "create index msUserSinceIdx on MugshotUsers(user-since);
         create index msTimestampIdx on MugshotMessages(timestamp);
         create index msAuthorIdx on MugshotMessages(author-id) type btree;"
    } else {
        "create type K32 as open { id: int64, k: int32?, s: string? };
         create type K64 as open { id: int64, k: int64?, s: string? };
         create dataset A(K32) primary key id;
         create dataset B(K64) primary key id;
         create dataset E(K32) primary key id;"
    };
    let mut flushed = vec!["MugshotUsers", "MugshotMessages"];
    if !indexed {
        flushed.extend(["A", "B"]);
    }
    Corpus {
        dataverse: "Perf",
        ddl: format!(
            "create type MugshotUserType as open {{
                 id: int64, name: string, user-since: datetime
             }};
             create type MugshotMessageType as open {{
                 message-id: int64, author-id: int64, timestamp: datetime,
                 in-response-to: int64?, message: string
             }};
             create dataset MugshotUsers(MugshotUserType) primary key id;
             create dataset MugshotMessages(MugshotMessageType) primary key message-id;
             {more}"
        ),
        flushed,
        load: Box::new(move |instance, stage| {
            let messages = instance.dataset("MugshotMessages").unwrap();
            // Every twentieth message loads an `A` record beside it, every
            // fourth a `B` record.
            let load = |ids: std::ops::Range<i64>| {
                for m in ids.clone() {
                    messages.insert(&ix_message(m, ix_ts(m))).unwrap();
                }
                if !indexed {
                    let (a, b) = (instance.dataset("A").unwrap(), instance.dataset("B").unwrap());
                    for i in ids {
                        if i % 20 == 0 {
                            a.insert(&key_record("A", i / 20, None)).unwrap();
                        }
                        if i % 4 == 0 {
                            b.insert(&key_record("B", i / 4, None)).unwrap();
                        }
                    }
                }
            };
            // A rewrite moves the message out of every window the queries
            // use (and its index entries with it); a delete removes it. An
            // early `B` record goes the same way: to a key without a
            // partner, or away.
            let rewrite = |m: i64| {
                assert!(messages.delete_by_pk(&[Value::Int64(m)]).unwrap());
                messages.insert(&ix_message(m, 1439)).unwrap();
                if !indexed {
                    let b = instance.dataset("B").unwrap();
                    assert!(b.delete_by_pk(&[Value::Int64(m % 100)]).unwrap());
                    b.insert(&key_record("B", m % 100, Some(1000))).unwrap();
                }
            };
            let delete = |m: i64| {
                assert!(messages.delete_by_pk(&[Value::Int64(m)]).unwrap());
                if !indexed {
                    let b = instance.dataset("B").unwrap();
                    assert!(b.delete_by_pk(&[Value::Int64(m % 100)]).unwrap());
                }
            };
            match stage {
                0 => {
                    let users = instance.dataset("MugshotUsers").unwrap();
                    for i in 0..IX_USERS {
                        users.insert(&ix_user(i)).unwrap();
                    }
                    load(0..250);
                }
                1 => {
                    load(250..550);
                    rewrite(3);
                    delete(6);
                }
                _ => {
                    load(550..IX_MESSAGES);
                    rewrite(9);
                    rewrite(253);
                    delete(12);
                    delete(256);
                }
            }
        }),
    }
}

/// The benchmark's five query families (`perf/src/shapes.rs`) at a small
/// and a large window each — its ten `_ix` shapes. `GrpAgg` also orders by
/// the author, so that ties in the count cannot make two correct answers
/// differ.
fn ix_queries() -> Vec<String> {
    let mut out = Vec::new();
    // (user-since window, message timestamp window), minutes of the day.
    for ((ulo, uhi), (lo, hi)) in [((100, 160), (200, 260)), ((0, 900), (100, 1000))] {
        let a = [minute(ulo), minute(uhi), minute(lo), minute(hi)];
        out.push(format!(
            "for $m in dataset {MESSAGES} \
             where $m.timestamp >= {} and $m.timestamp < {} return $m",
            a[2], a[3]
        ));
        out.push(format!(
            "for $u in dataset {USERS} for $m in dataset {MESSAGES} \
             where $m.author-id /*+ indexnl */ = $u.id \
               and $u.user-since >= {} and $u.user-since <= {} \
             return {{ \"uname\": $u.name, \"message\": $m.message }}",
            a[0], a[1]
        ));
        out.push(sel2join_text(&a, true));
        out.push(format!(
            "avg( for $m in dataset {MESSAGES} \
                  where $m.timestamp >= {} and $m.timestamp < {} \
                  return string-length($m.message) )",
            a[2], a[3]
        ));
        out.push(format!(
            "for $m in dataset {MESSAGES} \
             where $m.timestamp >= {} and $m.timestamp < {} \
             group by $aid := $m.author-id with $m \
             let $cnt := count($m) \
             order by $cnt desc, $aid \
             limit 10 \
             return {{ \"author\": $aid, \"cnt\": $cnt }}",
            a[2], a[3]
        ));
    }
    out
}

/// `Family::Sel2Join` of `perf/src/shapes.rs`, verbatim.
fn sel2join_text(a: &[String; 4], indexnl: bool) -> String {
    let hint = if indexnl { "/*+ indexnl */ " } else { "" };
    format!(
        "for $u in dataset {USERS} for $m in dataset {MESSAGES} \
         where $m.author-id {hint}= $u.id \
           and $u.user-since >= {} and $u.user-since <= {} \
           and $m.timestamp >= {} and $m.timestamp < {} \
         return {{ \"uname\": $u.name, \"message\": $m.message }}",
        a[0], a[1], a[2], a[3]
    )
}

/// The interpreter's answer over the plan the instance would compile:
/// provider and translator built the way the instance builds them, so the
/// interpreter runs against the same storage.
fn interpreted(instance: &Instance, dataverse: &str, q: &str) -> Vec<Value> {
    interpreted_with(instance, dataverse, q, |_| {})
}

/// [`interpreted`] under the session settings `session` gives the
/// translator (`set simfunction`, `set simthreshold`).
fn interpreted_with(
    instance: &Instance,
    dataverse: &str,
    q: &str,
    session: impl FnOnce(&mut Translator),
) -> Vec<Value> {
    let provider: Arc<dyn MetadataProvider> =
        Arc::new(asterixdb::provider::InstanceProvider { shared: instance_shared(instance) });
    let catalog = asterixdb::provider::SessionCatalog {
        shared: instance_shared(instance),
        current_dataverse: dataverse.to_string(),
    };
    let mut translator = Translator::new(&catalog);
    session(&mut translator);
    let plan = translator.translate_query(&parse_expression(q).unwrap()).unwrap();
    let fctx = FunctionContext::default();
    let optimized = optimize(plan, &provider, &fctx, &OptimizerOptions::default());
    let ctx = EvalCtx::new(provider, fctx);
    interp::eval_subplan(&optimized, &HashMap::new(), &ctx).unwrap()
}

/// A left-outer index-NL join — no AQL construct compiles to one — of
/// every user with the ids of their messages; users 60.. have none and
/// come out padded.
fn left_outer_index_nl_plan() -> asterix_algebricks::plan::LogicalOp {
    use asterix_algebricks::expr::LogicalExpr;
    use asterix_algebricks::plan::{IndexSearchSpec, JoinKind, LogicalOp};
    let id = LogicalExpr::field(LogicalExpr::Var(0), "id");
    LogicalOp::Emit {
        input: Box::new(LogicalOp::IndexNlJoin {
            left: Box::new(LogicalOp::DataSourceScan { dataset: USERS.into(), var: 0 }),
            dataset: MESSAGES.into(),
            index: "msAuthorIdx".into(),
            spec: IndexSearchSpec::BTreeRange {
                lo: Some((id.clone(), true)),
                hi: Some((id, true)),
            },
            postcondition: None,
            var: 1,
            kind: JoinKind::LeftOuter,
        }),
        expr: LogicalExpr::RecordCtor(vec![
            ("u".into(), LogicalExpr::field(LogicalExpr::Var(0), "id")),
            ("m".into(), LogicalExpr::field(LogicalExpr::Var(1), "message-id")),
        ]),
    }
}

/// Every secondary-index plan of the benchmark — the sorted, batched
/// primary fetch behind an index search, the index-NL join that batches
/// its probes, both with projections and filters pushed into the fetch —
/// answers as the interpreter does with its per-key lookups, and as an
/// instance that never flushed does, on every storage layout, on one
/// partition and on four.
#[test]
fn index_plans_answer_identically_on_every_layout_and_topology() {
    let queries = ix_queries();
    let corpus = perf_corpus(true);
    let (reference, _d0) =
        staged_instance(Setup { layout: Layout::Memory, topology: (1, 1) }, &corpus);
    let expected: Vec<Vec<String>> =
        queries.iter().map(|q| canonical(reference.query(q).unwrap())).collect();
    for (q, rows) in queries.iter().zip(&expected) {
        assert!(!rows.is_empty(), "selects nothing: {q}");
    }
    // The wide range selects every stage's messages but the rewritten and
    // the deleted ones.
    let wide = reference.query(&queries[5]).unwrap();
    let ids: Vec<i64> = wide.iter().map(|m| m.field("message-id").as_i64().unwrap()).collect();
    for gone in [3, 6, 9, 12, 253, 256] {
        assert!(!ids.contains(&gone), "message {gone} must be shadowed");
    }
    assert!([0, 251, 551].iter().all(|m| ids.contains(m) == (100..1000).contains(&ix_ts(*m))));

    let outer_plan = left_outer_index_nl_plan();
    let mut outer_expected: Option<Vec<String>> = None;
    for_each_setup(&Layout::ALL, &[(1, 1), (2, 2)], &corpus, |setup, instance| {
        // Every compiled query fetched through the key-list path of the
        // columnar components, where there are any (counted around the
        // query itself: the loads' duplicate checks and the interpreter's
        // per-key lookups are point probes, not fetches), with the filters
        // pushed into the fetch.
        let stats = instance.columnar_stats();
        let columnar_on_disk = setup.layout == Layout::Columnar;
        let mut filtered = 0;
        for (q, want) in queries.iter().zip(&expected) {
            let before =
                (stats.fetch_groups.get(), stats.fetch_keys.get(), stats.rows_filtered.get());
            let got = canonical(instance.query(q).unwrap());
            assert_eq!(&got, want, "{setup:?}: {q}");
            let fetched = stats.fetch_groups.get() > before.0 && stats.fetch_keys.get() > before.1;
            assert_eq!(fetched, columnar_on_disk, "{setup:?}: {q}");
            filtered += stats.rows_filtered.get() - before.2;
            let before = (stats.fetch_groups.get(), stats.fetch_keys.get());
            assert_eq!(
                &canonical(interpreted(instance, "Perf", q)),
                want,
                "{setup:?} interpreted: {q}"
            );
            assert_eq!((stats.fetch_groups.get(), stats.fetch_keys.get()), before);
        }
        assert_eq!(filtered > 0, columnar_on_disk, "{setup:?}");

        // The left-outer join: compiled against interpreted, and the same
        // on every instance.
        let (got, interp_rows) = compiled_and_interpreted(instance, &outer_plan);
        assert_eq!(got, interp_rows, "{setup:?}: left-outer index-NL join");
        // A padded row's `$m` is null, so its `m` field is missing.
        let padded = got.iter().filter(|r| !r.contains("\"m\"")).count();
        assert_eq!(padded, (IX_USERS - 60) as usize, "{setup:?}");
        assert_eq!(got.len(), padded + IX_MESSAGES as usize - 3, "three messages are deleted");
        let want = outer_expected.get_or_insert_with(|| got.clone());
        assert_eq!(&got, want, "{setup:?}: left-outer index-NL join");
    });
}

// ---------------------------------------------------------------------------
// Hash joins: the smaller input builds, the probe scan tests its key first
// ---------------------------------------------------------------------------

/// `Family::SelJoin` of `perf/src/shapes.rs` without the hint, verbatim —
/// or with its `for` clauses the other way round.
fn seljoin_text(a: &[String; 4], users_first: bool) -> String {
    format!(
        "{} where $m.author-id = $u.id \
           and $u.user-since >= {} and $u.user-since <= {} \
         return {{ \"uname\": $u.name, \"message\": $m.message }}",
        join_fors(users_first),
        a[0],
        a[1]
    )
}

fn join_fors(users_first: bool) -> String {
    let (u, m) = (format!("for $u in dataset {USERS}"), format!("for $m in dataset {MESSAGES}"));
    if users_first {
        format!("{u} {m}")
    } else {
        format!("{m} {u}")
    }
}

/// The benchmark's two un-indexed join families in both written orders at
/// a small and a large window, then joins of the key datasets: an int32
/// key against an int64 one from either side, string keys, NULL and
/// MISSING keys on both sides throughout, and build sides that are empty.
fn hash_join_queries() -> Vec<String> {
    let mut out = Vec::new();
    for ((ulo, uhi), (lo, hi)) in [((100, 160), (200, 260)), ((0, 900), (100, 1000))] {
        let a = [minute(ulo), minute(uhi), minute(lo), minute(hi)];
        for users_first in [true, false] {
            out.push(seljoin_text(&a, users_first));
            let sel2join = sel2join_text(&a, false);
            out.push(match users_first {
                true => sel2join,
                false => sel2join.replace(&join_fors(true), &join_fors(false)),
            });
        }
    }
    let ab = "return { \"a\": $a.id, \"b\": $b.id }";
    for fors in
        ["for $a in dataset A for $b in dataset B", "for $b in dataset B for $a in dataset A"]
    {
        // `A` is the smaller: `B` probes, its int64 keys against int32s.
        out.push(format!("{fors} where $a.k = $b.k {ab}"));
        out.push(format!("{fors} where $b.s = $a.s {ab}"));
        // A tenth of `B` is smaller still: `A` probes.
        out.push(format!("{fors} where $a.k = $b.k and $b.id < 70 {ab}"));
        out.push(format!("{fors} where $a.s = $b.s and $b.id >= 40 and $a.id < 25 {ab}"));
        // Nothing to build on.
        out.push(format!("{fors} where $a.k = $b.k and $a.id < 0 {ab}"));
    }
    out.push("for $e in dataset E for $b in dataset B where $e.k = $b.k return $b.id".into());
    out.push("for $b in dataset B for $e in dataset E where $e.s = $b.s return $b.id".into());
    out
}

/// Every user with the ids of the messages they wrote in a narrow window,
/// as a left-outer hash join (no AQL construct compiles to one): few
/// messages build, so on twelve partitions most build inputs are empty.
fn left_outer_hash_plan() -> asterix_algebricks::plan::LogicalOp {
    use asterix_algebricks::expr::{CompareOp, LogicalExpr};
    use asterix_algebricks::plan::{JoinKind, LogicalOp};
    let field = |v, name: &str| LogicalExpr::field(LogicalExpr::Var(v), name);
    let early = LogicalExpr::Compare(
        CompareOp::Lt,
        Box::new(field(1, "message-id")),
        Box::new(LogicalExpr::Const(Value::Int64(20))),
    );
    LogicalOp::Emit {
        input: Box::new(LogicalOp::HashJoin {
            left: Box::new(LogicalOp::DataSourceScan { dataset: USERS.into(), var: 0 }),
            right: Box::new(LogicalOp::Select {
                input: Box::new(LogicalOp::DataSourceScan { dataset: MESSAGES.into(), var: 1 }),
                condition: early,
            }),
            left_keys: vec![field(0, "id")],
            right_keys: vec![field(1, "author-id")],
            residual: None,
            kind: JoinKind::LeftOuter,
        }),
        expr: LogicalExpr::RecordCtor(vec![
            ("u".into(), field(0, "id")),
            ("name".into(), field(0, "name")),
            ("m".into(), field(1, "message-id")),
        ]),
    }
}

/// Run `plan` compiled and interpreted.
fn compiled_and_interpreted(
    instance: &Instance,
    plan: &asterix_algebricks::plan::LogicalOp,
) -> (Vec<String>, Vec<String>) {
    let provider: Arc<dyn MetadataProvider> =
        Arc::new(asterixdb::provider::InstanceProvider { shared: instance_shared(instance) });
    let fctx = FunctionContext::default();
    let options = OptimizerOptions::default();
    let compiled =
        asterix_algebricks::jobgen::compile(plan, Arc::clone(&provider), fctx.clone(), &options)
            .unwrap();
    let got = canonical(compiled.run().unwrap());
    let ctx = EvalCtx::new(provider, fctx);
    let interp_rows = interp::eval_subplan(plan, &HashMap::new(), &ctx).unwrap();
    (got, canonical(interp_rows))
}

/// The ids of the messages a scan lets through when it is asked for
/// partners among `authors`, their filter published before it starts.
fn message_ids_with_partners(instance: &Instance, authors: &[i64]) -> Vec<i64> {
    let authors: Vec<Value> = authors.iter().map(|a| Value::Int64(*a)).collect();
    let rows = common::scan_with_published_partners(
        instance,
        MESSAGES,
        "author-id",
        &["message-id"],
        &authors,
    );
    let mut ids: Vec<i64> = rows.iter().map(|m| m.field("message-id").as_i64().unwrap()).collect();
    ids.sort_unstable();
    ids
}

/// An un-indexed equijoin answers as the interpreter does — rows compared
/// sorted: which input builds changes the order they come out in, and AQL
/// promises none — whichever `for` is written first, whatever the key's
/// type and wherever it is NULL or MISSING, on every storage layout, on one
/// partition, on four and on twelve; and as an instance that never flushed
/// does.
#[test]
fn hash_joins_answer_identically_on_every_layout_and_topology() {
    let queries = hash_join_queries();
    let corpus = perf_corpus(false);
    let (reference, _d0) =
        staged_instance(Setup { layout: Layout::Memory, topology: (1, 1) }, &corpus);
    let expected: Vec<Vec<String>> =
        queries.iter().map(|q| canonical(reference.query(q).unwrap())).collect();
    for (q, rows) in queries.iter().zip(&expected) {
        let empty_build = q.contains("$a.id < 0") || q.contains("dataset E");
        assert_eq!(rows.is_empty(), empty_build, "{} rows: {q}", rows.len());
    }
    // Written either way round a join is the same join.
    for pair in expected[..8].chunks(4) {
        assert_eq!((&pair[0], &pair[1]), (&pair[2], &pair[3]));
    }
    assert_eq!(expected[8..13], expected[13..18]);

    let outer_plan = left_outer_hash_plan();
    let mut outer_expected: Option<Vec<String>> = None;
    for_each_setup(&Layout::ALL, &[(1, 1), (2, 2), (4, 3)], &corpus, |setup, instance| {
        for (q, want) in queries.iter().zip(&expected) {
            assert_eq!(&canonical(instance.query(q).unwrap()), want, "{setup:?}: {q}");
            assert_eq!(
                &canonical(interpreted(instance, "Perf", q)),
                want,
                "{setup:?} interpreted: {q}"
            );
        }

        // The selected users build and the messages' scan is asked for
        // partners, whichever is written first.
        let a = [minute(100), minute(160), minute(200), minute(260)];
        for users_first in [true, false] {
            let (_, job) = instance.explain(&seljoin_text(&a, users_first)).unwrap();
            let sides = if users_first { "build=left" } else { "build=right" };
            // 80 users, a tenth selected; 600 messages and, once flushed,
            // the six superseded versions and three tombstones beside them.
            assert!(job.contains(&format!("equi [{sides} ~8, probe ~60")), "{setup:?}: {job}");
            assert!(
                job.contains(
                    "data-scan Perf.MugshotMessages [cols: author-id,message] \
                     [filter: author-id in join #0]"
                ),
                "{setup:?}: {job}"
            );
            assert!(job.contains("runtime-filter-probe #0"), "{setup:?}: {job}");
            let (_, job) = instance.explain(&sel2join_text(&a, false)).unwrap();
            assert!(
                job.contains(
                    "[cols: author-id,message,timestamp] \
                     [filter: timestamp>=?, timestamp<?, author-id in join #0]"
                ),
                "{setup:?}: {job}"
            );
        }

        // What the test in the scan decides, with the filter there before
        // the scan: no message of a wanted author is lost, and those of the
        // others go where columnar components hold them — 550 were flushed,
        // and twelve (of sixty) authors are wanted.
        let authors: Vec<i64> = (0..60).step_by(5).collect();
        let through = message_ids_with_partners(instance, &authors);
        let wanted =
            format!("for $m in dataset {MESSAGES} where $m.author-id % 5 = 0 return $m.message-id");
        let wanted: Vec<i64> =
            reference.query(&wanted).unwrap().iter().map(|m| m.as_i64().unwrap()).collect();
        assert!(wanted.iter().all(|m| through.binary_search(m).is_ok()), "{setup:?}");
        let dropped = IX_MESSAGES as usize - 3 - through.len();
        let decided = match setup.layout {
            Layout::Columnar => 550,
            Layout::Memory => 0,
        };
        assert!(
            if decided == 0 { dropped == 0 } else { dropped > decided / 2 },
            "{setup:?}: {dropped} messages dropped in the scan"
        );

        // The left-outer join: compiled against interpreted, and the same on
        // every instance; a user without a message in the window comes out
        // padded — `$m` null, `m` missing — with its own fields where they
        // belong.
        let (got, interp_rows) = compiled_and_interpreted(instance, &outer_plan);
        assert_eq!(got, interp_rows, "{setup:?}: left-outer hash join");
        let padded: Vec<&String> = got.iter().filter(|r| !r.contains("\"m\"")).collect();
        assert!(padded.len() > 60 && padded.iter().all(|r| r.contains("\"name\": \"u")));
        let want = outer_expected.get_or_insert_with(|| got.clone());
        assert_eq!(&got, want, "{setup:?}: left-outer hash join");
    });
}

/// The `indexnl` hint means index-NL also when a select sits on the inner
/// side: the benchmark's `Sel2Join` compiles to the paper's plan — one
/// secondary search on the users, the join probing the messages' author
/// index with the timestamp window pushed into its fetch — not to a hash
/// join of two index searches.
#[test]
fn sel2join_hint_compiles_to_an_index_nl_join() {
    let setup = Setup { layout: Layout::Columnar, topology: (1, 1) };
    let (instance, _d) = staged_instance(setup, &perf_corpus(true));
    let a = [minute(100), minute(160), minute(200), minute(260)];
    let (plan, job) = instance.explain(&sel2join_text(&a, true)).unwrap();
    assert!(plan.contains("index-nl-join Perf.MugshotMessages.msAuthorIdx"), "{plan}");
    assert!(!plan.contains("hash-join") && !job.contains("hash-join"), "{plan}\n{job}");
    let secondary: Vec<&str> =
        job.lines().filter(|l| l.contains("btree-search") && !l.contains("(primary)")).collect();
    assert_eq!(secondary.len(), 1, "{job}");
    assert!(secondary[0].contains("btree-search Perf.MugshotUsers.msUserSinceIdx"), "{job}");
    assert!(
        job.contains(
            "index-nested-loop-join Perf.MugshotMessages.msAuthorIdx \
             [cols: message,timestamp] [filter: timestamp>=?, timestamp<?]"
        ),
        "{job}"
    );
    // Without the hint it is the hash join of two index searches.
    let (plan, _) = instance.explain(&sel2join_text(&a, false)).unwrap();
    assert!(plan.contains("hash-join") && !plan.contains("index-nl-join"), "{plan}");
}

// ---------------------------------------------------------------------------
// Primary-key lookups, pruned to the owning partition
// ---------------------------------------------------------------------------

/// Record `i` of the lookup datasets: `K32` keyed by an int32, `K64` by an
/// int64, `KS` by the string `k{i}`, `KP` by the pair (`i / 4`, `k{i}`).
fn lookup_record(dataset: &str, i: i64, v: i64) -> Value {
    let key = match dataset {
        "KS" => format!("\"id\": \"k{i}\""),
        "KP" => format!("\"a\": {}, \"b\": \"k{i}\"", i / 4),
        _ => format!("\"id\": {i}"),
    };
    asterix_adm::parse::parse_value(&format!("{{ {key}, \"v\": {v} }}")).unwrap()
}

/// The primary key of [`lookup_record`]`(dataset, i, _)`.
fn lookup_key(dataset: &str, i: i64) -> Vec<Value> {
    let record = lookup_record(dataset, i, 0);
    let fields: &[&str] = if dataset == "KP" { &["a", "b"] } else { &["id"] };
    fields.iter().map(|f| record.field(f)).collect()
}

/// Four datasets of 100 records loaded in three stages like
/// [`pushdown_corpus`]: two flushes and a tail left in memory, each later
/// stage rewriting (`v` becomes 5000) and deleting keys of the earlier ones.
fn lookup_corpus() -> Corpus {
    Corpus {
        dataverse: "Look",
        ddl: "create type T32 as open { id: int32, v: int64 };
              create type T64 as open { id: int64, v: int64 };
              create type TS as open { id: string, v: int64 };
              create type TP as open { a: int32, b: string, v: int64 };
              create dataset K32(T32) primary key id;
              create dataset K64(T64) primary key id;
              create dataset KS(TS) primary key id;
              create dataset KP(TP) primary key a, b;"
            .into(),
        flushed: vec!["K32", "K64", "KS", "KP"],
        load: Box::new(|instance, stage| {
            let (ids, changed) = match stage {
                0 => (0..40, None),
                1 => (40..80, Some((5, 8))),
                _ => (80..100, Some((45, 48))),
            };
            for name in ["K32", "K64", "KS", "KP"] {
                let d = instance.dataset(name).unwrap();
                for i in ids.clone() {
                    d.insert(&lookup_record(name, i, i * 10)).unwrap();
                }
                if let Some((rewritten, deleted)) = changed {
                    assert!(d.delete_by_pk(&lookup_key(name, rewritten)).unwrap());
                    d.insert(&lookup_record(name, rewritten, 5000)).unwrap();
                    assert!(d.delete_by_pk(&lookup_key(name, deleted)).unwrap());
                }
            }
        }),
    }
}

/// Primary-key ranges and how many records each selects (ids 8 and 48
/// are deleted): both kinds of bound on each side, open on one side, a
/// double bound on the int32 key, a string range, and a range on the first
/// field of the composite key, which is a prefix range of its key.
const KEY_RANGES: [(&str, usize); 7] = [
    ("for $d in dataset K32 where $d.id >= 40 and $d.id < 48 return $d", 8),
    ("for $d in dataset K64 where $d.id > 5 and $d.id <= 45 return $d", 39),
    ("for $d in dataset K64 where $d.id >= 90 return $d", 10),
    ("for $d in dataset K32 where $d.id < 9 return $d.v", 8),
    ("for $d in dataset K32 where $d.id > 56.5 and $d.id <= 58 return $d", 2),
    ("for $d in dataset KS where $d.id >= \"k45\" and $d.id < \"k5\" return $d", 4),
    ("for $d in dataset KP where $d.a >= 10 and $d.a < 12 return $d.b", 8),
];

/// A primary-key equality runs on the one partition that owns the key. It
/// must answer as the interpreter does (which still asks every partition)
/// and as `DatasetRuntime::get` does (which routes the same way), whatever
/// the key's type, the literal's width, the topology, the components the
/// record sits in — and keep doing so after a `delete`. A primary-key
/// range ([`KEY_RANGES`]) answers as the interpreter and as the instance
/// that never flushed do.
#[test]
fn key_lookups_answer_identically_on_every_layout_and_topology() {
    // (dataset, literal, the key `get` is asked for): present in each
    // stage, rewritten, deleted, absent; int64 and double literals against
    // the int32 key, one of them too wide for it; a string key; keys of
    // the wrong type.
    let mut probes: Vec<(&str, String, Value)> = Vec::new();
    for i in [17, 57, 90, 5, 45, 8, 48, 1000, -1] {
        probes.push(("K32", i.to_string(), Value::Int64(i)));
        probes.push(("K64", i.to_string(), Value::Int64(i)));
        probes.push(("KS", format!("\"k{i}\""), Value::string(format!("k{i}"))));
    }
    probes.push(("K32", "57.0".into(), Value::Double(57.0)));
    probes.push(("K32", "57.5".into(), Value::Double(57.5)));
    probes.push(("K32", "3000000000".into(), Value::Int64(3_000_000_000)));
    probes.push(("KS", "57".into(), Value::Int64(57)));
    probes.push(("K64", "\"k57\"".into(), Value::string("k57")));

    let layouts = &Layout::ALL;
    assert_eq!(layouts[0], Layout::Memory, "the never-flushed reference runs first");
    let mut reference: Option<Vec<Vec<String>>> = None;
    for_each_setup(layouts, &[(1, 1), (2, 2), (4, 3)], &lookup_corpus(), |setup, instance| {
        // Primary-key ranges: compiled, interpreted and never flushed alike.
        let ranges: Vec<Vec<String>> = KEY_RANGES
            .iter()
            .map(|(q, n)| {
                let (_, job) = instance.explain(q).unwrap();
                assert!(job.contains(" (primary)"), "{setup:?}: {job}");
                let got = canonical(instance.query(q).unwrap());
                assert_eq!(got, canonical(interpreted(instance, "Look", q)), "{setup:?}: {q}");
                assert_eq!(got.len(), *n, "{setup:?}: {q}");
                got
            })
            .collect();
        assert_eq!(&ranges, reference.get_or_insert_with(|| ranges.clone()), "{setup:?}");

        let lookup = |dataset: &str, literal: &str, key: &Value| -> Vec<String> {
            let q = format!("for $d in dataset {dataset} where $d.id = {literal} return $d");
            let got = canonical(instance.query(&q).unwrap());
            assert_eq!(got, canonical(interpreted(instance, "Look", &q)), "{setup:?}: {q}");
            let stored = instance.dataset(dataset).unwrap().get(std::slice::from_ref(key)).unwrap();
            assert_eq!(got, canonical(stored.into_iter().collect()), "{setup:?}: {q}");
            got
        };
        let mut found = 0;
        for (dataset, literal, key) in &probes {
            found += lookup(dataset, literal, key).len();
        }
        // Per dataset 17, 57, 90, 5 and 45. (Not 57.0: the key
        // encoding keeps a double apart from the integer beside
        // it, on every path alike.)
        assert_eq!(found, 3 * 5, "{setup:?}");
        let rewritten = lookup("K32", "45", &Value::Int64(45));
        assert!(rewritten[0].contains("5000"), "{setup:?}: {rewritten:?}");

        // One partition searched, nothing gathered — and the same
        // plan, re-bound, serves every key. The search is the projected
        // read a scan makes, with the key conjunct pushed as its filter.
        let (_, job) =
            instance.explain("for $d in dataset K32 where $d.id = 17 return $d.v").unwrap();
        let search = job.lines().find(|l| l.contains("(primary)")).unwrap_or_default();
        assert!(search.starts_with("btree-search Look.K32 (primary)"), "{setup:?}: {job}");
        assert!(search.contains("[parts=1"), "{setup:?}: {job}");
        assert!(search.contains("[cols: id,v] [filter: id=?]"), "{setup:?}: {job}");
        assert!(!job.contains("replicating"), "{setup:?}: {job}");

        // `delete` finds its victim through the same pruned search.
        for (dataset, literal, key) in &probes[3..6] {
            assert_eq!(lookup(dataset, literal, key).len(), 1, "{setup:?}");
            let del = format!("delete $d from dataset {dataset} where $d.id = {literal};");
            instance.execute(&del).unwrap();
            assert_eq!(lookup(dataset, literal, key).len(), 0, "{setup:?}: {del}");
        }
        assert_eq!(lookup("K64", "17", &Value::Int64(17)).len(), 1, "{setup:?}");
    });
}

// ---------------------------------------------------------------------------
// Spatial searches: Z-order point keys and the linear pass over other MBRs
// ---------------------------------------------------------------------------

/// Record `id` of `G`: a point `pt` and, if any, a `shape`.
fn geo_record(id: i64, pt: Point, shape: Option<Value>) -> Value {
    let mut fields = vec![("id", Value::Int64(id)), ("pt", Value::Point(pt))];
    fields.extend(shape.map(|s| ("shape", s)));
    Value::record(asterix_adm::Record::from_fields(fields))
}

/// A shape near `p`, of the kind `k` picks: rectangle, circle, line,
/// polygon or point.
fn geo_shape(k: i64, p: Point) -> Value {
    let at = |dx: f64, dy: f64| Point::new(p.x + dx, p.y + dy);
    match k % 5 {
        0 => Value::Rectangle(Rectangle::new(p, at(3.0, 1.5))),
        1 => Value::Circle(Circle { center: p, radius: 2.5 }),
        2 => Value::Line(Line { a: p, b: at(-4.0, 2.0) }),
        3 => Value::Polygon(Arc::from(vec![p, at(5.0, 0.0), at(2.5, 4.0)])),
        _ => Value::Point(p),
    }
}

/// `G` loaded in three stages: 120 points a stage on a half-unit lattice,
/// so many lie on the windows' edges, every fourth record with a shape
/// too; stage 0 adds a point at x = −0.0 and three at magnitudes near
/// 1e300; each later stage deletes records of the stage before it and
/// re-inserts one deleted key at a new location.
fn geo_corpus() -> Corpus {
    Corpus {
        dataverse: "Geo",
        ddl: "create type GT as open { id: int64, pt: point };
              create dataset G(GT) primary key id;
              create index ptIdx on G(pt) type rtree;
              create index shapeIdx on G(shape) type rtree;"
            .into(),
        flushed: vec!["G"],
        load: Box::new(|instance, stage| {
            let g = instance.dataset("G").unwrap();
            let mut rng = StdRng::seed_from_u64(0x5EA + stage as u64);
            let mut lattice = || {
                Point::new(
                    rng.gen_range(-100..100) as f64 * 0.5,
                    rng.gen_range(-100..100) as f64 * 0.5,
                )
            };
            let base = stage as i64 * 1000;
            for id in base..base + 120 {
                let p = lattice();
                g.insert(&geo_record(id, p, (id % 4 == 0).then(|| geo_shape(id / 4, p)))).unwrap();
            }
            if stage == 0 {
                let minus_zero = Point::new(-0.0, 5.0);
                g.insert(&geo_record(900, minus_zero, Some(Value::Point(minus_zero)))).unwrap();
                for (id, x, y) in [(901, 1e300, -1e300), (902, -1e300, 3.0), (903, 4.0, 9e299)] {
                    g.insert(&geo_record(id, Point::new(x, y), None)).unwrap();
                }
                return;
            }
            let prev = base - 1000;
            for id in [prev + 3, prev + 8, prev + 12, prev + 40] {
                assert!(g.delete_by_pk(&[Value::Int64(id)]).unwrap());
            }
            let moved = lattice();
            g.insert(&geo_record(prev + 8, moved, Some(geo_shape(stage as i64, moved)))).unwrap();
        }),
    }
}

/// Windows over `pt` and `shape`, and distances from a point.
/// Each query, and whether its job probes the index.
fn geo_queries() -> Vec<(String, bool)> {
    let windows = [
        "0,0 10,10",
        "-20,-7.5 -5,7.5",
        "-2.5,-30 -2.5,30",
        "12.5,-50 50,-12.5",
        "1e299,-1e301 1e301,0",
        "-1e301,-1e301 1e301,1e301",
    ];
    let ret = "return $g.id";
    let mut queries: Vec<String> = Vec::new();
    let mut probed = Vec::new();
    for field in ["pt", "shape"] {
        for w in windows {
            queries.push(format!(
                "for $g in dataset G where spatial-intersect($g.{field}, rectangle(\"{w}\")) {ret}"
            ));
        }
    }
    for (center, d) in [("3,4", "6.5"), ("-0.0,5", "2.5"), ("-20,-20", "10.0"), ("4,9e299", "1.0")]
    {
        queries.push(format!(
            "for $g in dataset G where spatial-distance($g.pt, point(\"{center}\")) <= {d} {ret}"
        ));
    }
    probed.extend(queries.drain(..).map(|q| (q, true)));
    // Windows with no bounding rectangle make no probe: the data is
    // scanned, and the post-validation decides as it does without the index.
    for w in ["null", "missing", "\"abc\""] {
        let q = format!("for $g in dataset G where spatial-intersect($g.pt, {w}) {ret}");
        probed.push((q, false));
    }
    probed
}

/// Each query's answer — or error — through the spatial index, checked
/// against the same query with index access off.
fn spatial_answers(
    setup: Setup,
    step: &str,
    instance: &Instance,
    queries: &[(String, bool)],
) -> Vec<Vec<String>> {
    queries
        .iter()
        .map(|(q, probed)| {
            let (plan, job) = instance.explain(q).unwrap();
            assert!(plan.contains("rtree-search"), "{setup:?} {step}: {plan}");
            let probes = job.contains("rtree-search Geo.G.");
            assert_eq!(probes, *probed, "{setup:?} {step}: {job}");
            // Only a window with no probe may error: the post-validation
            // then decides on both paths.
            let answer = |q: &str| match instance.query(q) {
                Ok(rows) => canonical(rows),
                Err(e) if !probed => vec![format!("error: {e}")],
                Err(e) => panic!("{setup:?} {step}: {q}: {e}"),
            };
            let got = answer(q);
            instance.optimizer_options.write().enable_index_access = false;
            let (plan, _) = instance.explain(q).unwrap();
            assert!(!plan.contains("rtree-search"), "{setup:?} {step}: {plan}");
            let want = answer(q);
            instance.optimizer_options.write().enable_index_access = true;
            assert_eq!(got, want, "{setup:?} {step}: {q}");
            got
        })
        .collect()
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// A spatial search answers as a scan does — points on the window's
/// edges, at x = −0.0 and near ±1e300, rectangles, circles, lines and
/// polygons, deleted and moved records alike — on every layout and
/// topology, staged, after a flush and a full merge of every index, and
/// after a kill and reopen.
#[test]
fn spatial_searches_answer_identically_on_every_layout_and_topology() {
    let queries = geo_queries();
    let mut reference: Option<Vec<Vec<String>>> = None;
    for_each_setup(&Layout::ALL, &[(1, 1), (2, 2), (4, 3)], &geo_corpus(), |setup, instance| {
        let answers = spatial_answers(setup, "staged", instance, &queries);
        let want = reference.get_or_insert_with(|| answers.clone());
        assert_eq!(&answers, want, "{setup:?}");
        let has = |q: usize, id: i64| want[q].contains(&id.to_string());
        assert!(has(0, 900) && has(6, 900) && has(13, 900), "the point at x = -0.0");
        assert!(has(4, 901) && has(5, 902) && has(15, 903), "the points near 1e300");
        assert!(want.iter().map(Vec::len).sum::<usize>() > 300, "{want:?}");
        let no_window = &want[16..];
        assert!(no_window[0].is_empty() && no_window[1].is_empty(), "{no_window:?}");
        assert_eq!(
            no_window[2],
            ["error: invalid argument: spatial-intersect over point and string"]
        );

        let g = instance.dataset("G").unwrap();
        g.flush_all().unwrap();
        for ix in g.secondaries.read().iter() {
            for p in &ix.partitions {
                p.lsm().merge_all().unwrap();
                assert!(p.lsm().disk_component_count() <= 1, "{setup:?}");
            }
        }
        assert_eq!(&spatial_answers(setup, "merged", instance, &queries), want, "{setup:?}");

        // The files as a kill would leave them, opened as a new instance.
        let copy = asterix_testkit::TempDir::new().unwrap();
        copy_dir(&instance.config().base_dir, copy.path());
        let cfg =
            ClusterConfig { base_dir: copy.path().to_path_buf(), ..instance.config().clone() };
        let reopened = Instance::open(cfg).unwrap();
        reopened.execute("use dataverse Geo;").unwrap();
        assert_eq!(&spatial_answers(setup, "reopened", &reopened, &queries), want, "{setup:?}");
    });
}

// ---------------------------------------------------------------------------
// Text searches: the keyword and n-gram indexes
// ---------------------------------------------------------------------------

const TEXT_WORDS: [&str; 12] = [
    "tonight", "Tonight!", "TONIGHT", "ship", "the", "release", "c++", "Naïve", "concert", "great",
    "we", "rare",
];

const TEXT_NAMES: [&str; 14] = [
    "tonight",
    "Tonight",
    "tonite",
    "tonigth",
    "knight",
    "aaaaaaa",
    "aaaaaa",
    "aaaaaaaa",
    "ab",
    "abc",
    "b",
    "jonathan",
    "Jonathon",
    "johnathan",
];

/// Record `id` of `T`: a `msg` of up to five words (none every seventh
/// record) and a `name` (none every fifth).
fn text_record(id: i64, rng: &mut StdRng) -> Value {
    let mut fields = vec![("id", Value::Int64(id))];
    if id % 7 != 3 {
        let words: Vec<&str> =
            (0..rng.gen_range(0..6)).map(|_| TEXT_WORDS[rng.gen_range(0..12)]).collect();
        fields.push(("msg", Value::string(words.join(" "))));
    }
    if id % 5 != 4 {
        fields.push(("name", Value::string(TEXT_NAMES[rng.gen_range(0..14)])));
    }
    Value::record(asterix_adm::Record::from_fields(fields))
}

/// `T` loaded in three stages of 100 records; each later stage deletes
/// records of the stage before it and re-inserts one deleted key with new
/// text.
fn text_corpus() -> Corpus {
    Corpus {
        dataverse: "Txt",
        ddl: "create type TT as open { id: int64, msg: string?, name: string? };
              create dataset T(TT) primary key id;
              create index msgKw on T(msg) type keyword;
              create index nameGram on T(name) type ngram(3);"
            .into(),
        flushed: vec!["T"],
        load: Box::new(|instance, stage| {
            let t = instance.dataset("T").unwrap();
            let mut rng = StdRng::seed_from_u64(0x7E47 + stage as u64);
            let base = stage as i64 * 1000;
            for id in base..base + 100 {
                t.insert(&text_record(id, &mut rng)).unwrap();
            }
            if stage > 0 {
                let prev = base - 1000;
                for id in [prev + 2, prev + 5, prev + 11, prev + 40] {
                    assert!(t.delete_by_pk(&[Value::Int64(id)]).unwrap());
                }
                t.insert(&text_record(prev + 5, &mut rng)).unwrap();
            }
        }),
    }
}

/// A text query: its AQL, the edit distance `~=` stands for (`None`: a
/// keyword search), and whether its job searches the index — `false` where
/// the index cannot narrow the search and the job scans.
type TextQuery = (String, Option<usize>, bool);

fn text_queries() -> Vec<TextQuery> {
    let ret = "return $t.id";
    let keyword = |needle: &str, searches| {
        let q = format!(
            "for $t in dataset T where some $w in word-tokens($t.msg) satisfies $w = {needle} {ret}"
        );
        (q, None, searches)
    };
    let fuzzy = |needle: &str, k, searches| {
        (format!("for $t in dataset T where $t.name ~= {needle} {ret}"), Some(k), searches)
    };
    vec![
        keyword(r#""tonight""#, true),
        keyword(r#""naïve""#, true),
        // Candidates the post-validation rejects: tokens are lowercase
        // words, so neither needle is one.
        keyword(r#""Tonight""#, true),
        keyword(r#""c++""#, true),
        // A word never equals a bag: the answer is empty, index or not.
        keyword(r#"{{"tonight", "Ship"}}"#, true),
        // Needles that name no token or that no keyword index stores.
        keyword(r#"{{"tonight", 3}}"#, false),
        keyword("null", false),
        keyword(r#""!?""#, false),
        fuzzy(r#""tonight""#, 1, true),
        fuzzy(r#""tonight""#, 2, true),
        fuzzy(r#""Jonathan""#, 2, true),
        // 9 trigrams but 5 distinct ones: the bound counts distinct grams.
        fuzzy(r#""aaaaaaa""#, 1, true),
        fuzzy(r#""ab""#, 1, true),
        // |G| − k·ed ≤ 0, and an unknown needle: the job scans.
        fuzzy(r#""ab""#, 2, false),
        fuzzy("null", 1, false),
    ]
}

/// Each query's answer through the text indexes, checked against the same
/// query with index access off and against the interpreter, with the job
/// naming its search as the plan does.
fn text_answers(
    setup: Setup,
    step: &str,
    instance: &Instance,
    queries: &[TextQuery],
) -> Vec<Vec<String>> {
    queries
        .iter()
        .map(|(q, edit_distance, searches)| {
            let k = edit_distance.unwrap_or(0).to_string();
            let set = format!(r#"set simfunction "edit-distance"; set simthreshold "{k}";"#);
            instance.execute(&set).unwrap();
            let label = match edit_distance {
                Some(_) => "ngram-fuzzy-search Txt.T.nameGram",
                None => "keyword-search Txt.T.msgKw",
            };
            let (plan, job) = instance.explain(q).unwrap();
            assert!(plan.contains(label), "{setup:?} {step}: {plan}");
            assert_eq!(job.contains(label), *searches, "{setup:?} {step}: {q}\n{job}");
            assert!(!job.contains("btree-search Txt.T."), "{setup:?} {step}: {job}");
            let got = canonical(instance.query(q).unwrap());
            instance.optimizer_options.write().enable_index_access = false;
            let (plan, _) = instance.explain(q).unwrap();
            assert!(!plan.contains(label), "{setup:?} {step}: {plan}");
            let want = canonical(instance.query(q).unwrap());
            instance.optimizer_options.write().enable_index_access = true;
            assert_eq!(got, want, "{setup:?} {step}: {q}");
            let interp = interpreted_with(instance, "Txt", q, |tr| {
                tr.simfunction = "edit-distance".into();
                tr.simthreshold = k.clone();
            });
            assert_eq!(canonical(interp), want, "{setup:?} {step}: interpreted {q}");
            got
        })
        .collect()
}

/// Keyword and n-gram searches answer as a scan and the interpreter do —
/// string and bag needles, needles that are no indexed token, fuzzy
/// needles with repeated grams and with a bound of 0, unknown needles,
/// deleted and re-inserted records — on every layout and topology,
/// staged, after a flush and a full merge of every index, and after a kill
/// and reopen.
#[test]
fn text_searches_answer_identically_on_every_layout_and_topology() {
    let queries = text_queries();
    let mut reference: Option<Vec<Vec<String>>> = None;
    for_each_setup(&Layout::ALL, &[(1, 1), (2, 2), (4, 3)], &text_corpus(), |setup, instance| {
        let answers = text_answers(setup, "staged", instance, &queries);
        let want = reference.get_or_insert_with(|| answers.clone());
        assert_eq!(&answers, want, "{setup:?}");
        for q in [0, 1, 8, 9, 10, 11, 12, 13] {
            assert!(!want[q].is_empty(), "{}: {want:?}", queries[q].0);
        }

        let t = instance.dataset("T").unwrap();
        t.flush_all().unwrap();
        for ix in t.secondaries.read().iter() {
            for p in &ix.partitions {
                p.lsm().merge_all().unwrap();
                assert!(p.lsm().disk_component_count() <= 1, "{setup:?}");
            }
        }
        assert_eq!(&text_answers(setup, "merged", instance, &queries), want, "{setup:?}");

        let copy = asterix_testkit::TempDir::new().unwrap();
        copy_dir(&instance.config().base_dir, copy.path());
        let cfg =
            ClusterConfig { base_dir: copy.path().to_path_buf(), ..instance.config().clone() };
        let reopened = Instance::open(cfg).unwrap();
        reopened.execute("use dataverse Txt;").unwrap();
        assert_eq!(&text_answers(setup, "reopened", &reopened, &queries), want, "{setup:?}");
    });
}

/// Access the instance's shared state (the provider constructor is public
/// for embedding scenarios like this one).
fn instance_shared(instance: &Instance) -> Arc<asterixdb::provider::Shared> {
    instance.shared_state()
}

// ---------------------------------------------------------------------------
// Secondary indexes over a composite primary key
// ---------------------------------------------------------------------------

const CK_WORDS: [&str; 5] = ["tonight", "ship", "release", "great", "rare"];

/// Record `i` of `P`, keyed on (`a` = `i / 3`, `b` = `k{i % 3}`), in its
/// `generation`-th version: every version moves `v` and rewrites `msg` (none
/// every seventh record).
fn ck_record(i: i64, generation: i64) -> Value {
    let v = (i * 37 + generation * 50) % 200;
    let mut fields = vec![
        ("a", Value::Int32((i / 3) as i32)),
        ("b", Value::string(format!("k{}", i % 3))),
        ("v", Value::Int64(v)),
    ];
    if i % 7 != 3 {
        let words: Vec<&str> =
            (0..3).map(|w| CK_WORDS[((i + generation + w * w) % 5) as usize]).collect();
        fields.push(("msg", Value::string(words.join(" "))));
    }
    Value::record(asterix_adm::Record::from_fields(fields))
}

/// The primary key of [`ck_record`]`(i, _)`.
fn ck_key(i: i64) -> Vec<Value> {
    vec![Value::Int32((i / 3) as i32), Value::string(format!("k{}", i % 3))]
}

/// `P` (composite key, a B-tree index on `v` and a keyword index on `msg`)
/// and `Q` (the outer side of an index-NL join onto `P.v`), loaded in
/// three stages: each later stage rewrites records of the ones before it
/// and deletes some.
fn ck_corpus() -> Corpus {
    Corpus {
        dataverse: "Ck",
        ddl: "create type PT as open { a: int32, b: string, v: int64, msg: string? };
              create type QT as open { id: int64, w: int64 };
              create dataset P(PT) primary key a, b;
              create dataset Q(QT) primary key id;
              create index pV on P(v);
              create index pMsg on P(msg) type keyword;"
            .into(),
        flushed: vec!["P", "Q"],
        load: Box::new(|instance, stage| {
            let p = instance.dataset("P").unwrap();
            let base = stage as i64 * 60;
            for i in base..base + 60 {
                p.insert(&ck_record(i, 0)).unwrap();
            }
            if stage > 0 {
                for i in [base - 59, base - 40, base - 13, base - 2] {
                    assert!(p.delete_by_pk(&ck_key(i)).unwrap());
                    p.insert(&ck_record(i, stage as i64)).unwrap();
                }
                for i in [base - 57, base - 30, base - 1] {
                    assert!(p.delete_by_pk(&ck_key(i)).unwrap());
                }
            }
            let q = instance.dataset("Q").unwrap();
            for id in stage as i64 * 10..stage as i64 * 10 + 10 {
                let record = format!("{{ \"id\": {id}, \"w\": {} }}", id * 13 % 200);
                q.insert(&asterix_adm::parse::parse_value(&record).unwrap()).unwrap();
            }
        }),
    }
}

/// Each query, the label its plan names the search by, and the label its
/// job does.
fn ck_queries() -> Vec<(String, &'static str, &'static str)> {
    let row = "{ \"a\": $p.a, \"b\": $p.b, \"v\": $p.v }";
    let range = format!("for $p in dataset P where $p.v >= 40 and $p.v < 90 return {row}");
    let btree = "btree-search Ck.P.pV";
    vec![
        (range.clone(), btree, btree),
        (
            format!(
                "for $p in dataset P \
                 where some $w in word-tokens($p.msg) satisfies $w = \"tonight\" return {row}"
            ),
            "keyword-search Ck.P.pMsg",
            "keyword-search Ck.P.pMsg",
        ),
        (
            "for $q in dataset Q for $p in dataset P where $p.v /*+ indexnl */ = $q.w \
             return { \"q\": $q.id, \"a\": $p.a, \"b\": $p.b }"
                .into(),
            "index-nl-join Ck.P.pV",
            "index-nested-loop-join Ck.P.pV",
        ),
        (format!("count({range})"), btree, btree),
    ]
}

/// B-tree and keyword searches of a dataset keyed on (int32, string), an
/// index-NL join onto it and a count through its index hand the whole
/// composite key on: they answer as the same queries do without index
/// access (the join without its hint) and as the interpreter does, on
/// every layout and topology, after rewrites and deletes.
#[test]
fn composite_key_index_searches_answer_identically_on_every_layout_and_topology() {
    let queries = ck_queries();
    let mut reference: Option<Vec<Vec<String>>> = None;
    for_each_setup(&Layout::ALL, &[(1, 1), (2, 2), (4, 3)], &ck_corpus(), |setup, instance| {
        let answers: Vec<Vec<String>> = queries
            .iter()
            .map(|(q, plan_label, job_label)| {
                let (plan, job) = instance.explain(q).unwrap();
                assert!(plan.contains(plan_label), "{setup:?}: {plan}");
                assert!(job.contains(job_label), "{setup:?}: {job}");
                let got = canonical(instance.query(q).unwrap());
                let unhinted = q.replace("/*+ indexnl */ ", "");
                instance.optimizer_options.write().enable_index_access = false;
                let (plan, _) = instance.explain(&unhinted).unwrap();
                let want = canonical(instance.query(&unhinted).unwrap());
                instance.optimizer_options.write().enable_index_access = true;
                assert!(!plan.contains("Ck.P.p"), "{setup:?}: {plan}");
                assert_eq!(got, want, "{setup:?}: {q}");
                assert_eq!(canonical(interpreted(instance, "Ck", q)), want, "{setup:?}: {q}");
                got
            })
            .collect();
        let want = reference.get_or_insert_with(|| answers.clone());
        assert_eq!(&answers, want, "{setup:?}");
        // 180 records, 9 deleted; every query selects some, on both key
        // fields.
        assert!(want[..3].iter().all(|rows| rows.len() > 10), "{want:?}");
        assert!(want[0].iter().any(|r| r.contains("\"k2\"")), "{want:?}");
        assert_eq!(want[3], [want[0].len().to_string()], "the count counts the range");
    });
}

// ---------------------------------------------------------------------------
// Grouped aggregates: fused into the group-by, or over the materialized list
// ---------------------------------------------------------------------------

/// Record `i` of `G` in its `generation`-th version: group `k` = `i % 7`,
/// and `v` null (in group 0 only), missing (in groups 1 and 2 only), an int
/// or a double by turns.
fn grp_record(i: i64, generation: i64) -> Value {
    let (k, turn) = (i % 7, i + generation);
    let mut fields = vec![("id", Value::Int64(i)), ("k", Value::Int64(k))];
    if k == 0 && turn % 3 == 0 {
        fields.push(("v", Value::Null));
    } else if (k == 1 || k == 2) && turn % 5 == 0 {
    } else if turn % 2 == 0 {
        fields.push(("v", Value::Int64(turn * 7 % 41 - 20)));
    } else {
        fields.push(("v", Value::Double((turn % 23) as f64 + 0.5)));
    }
    Value::record(asterix_adm::Record::from_fields(fields))
}

/// `G`, loaded in three stages; each later stage rewrites records of the
/// ones before it (moving their `v` to another kind) and deletes some.
fn grp_corpus() -> Corpus {
    Corpus {
        dataverse: "Grp",
        ddl: "create type GT as open { id: int64, k: int64 };
              create dataset G(GT) primary key id;"
            .into(),
        flushed: vec!["G"],
        load: Box::new(|instance, stage| {
            let g = instance.dataset("G").unwrap();
            let (fresh, rewritten, deleted): (_, &[i64], &[i64]) = match stage {
                0 => (0..120, &[], &[]),
                1 => (120..240, &[3, 50, 77], &[10, 60]),
                _ => (240..300, &[130, 5, 51], &[200, 11]),
            };
            for i in fresh {
                g.insert(&grp_record(i, 0)).unwrap();
            }
            for &i in rewritten {
                assert!(g.delete_by_pk(&[Value::Int64(i)]).unwrap());
                g.insert(&grp_record(i, stage as i64)).unwrap();
            }
            for &i in deleted {
                assert!(g.delete_by_pk(&[Value::Int64(i)]).unwrap());
            }
        }),
    }
}

/// One grouped query: its text, the same text with the group list also
/// returned as `"l"`, and whether its aggregate fuses into the group-by.
struct GrpQuery {
    text: String,
    with_list: String,
    fuses: bool,
}

/// Each aggregate over each group variable, of the variable or of a
/// subquery over it, in each place above the group: a `let`, the `return`,
/// an `order by` key and a `where`. Every query ends ordered on a total
/// key, so its rows compare in order.
fn grp_queries() -> Vec<GrpQuery> {
    let mut out = Vec::new();
    let functions = ["count", "sql-count", "sum", "avg", "min", "max", "sql-avg"];
    let by_k = "for $r in dataset G";
    for f in functions {
        // (head, aggregate, group variable, fuses)
        let by_v = format!("{by_k} let $v := $r.v group by $k := $r.k with $v");
        // A member of `$v` can be missing, which the list leaves out.
        let skips_missing = f.starts_with("sql-") || f == "count";
        let mut sources = vec![
            (by_v.clone(), format!("{f}($v)"), "$v", skips_missing),
            (by_v.clone(), format!("{f}(for $x in $v return $x)"), "$v", skips_missing),
            (
                format!("{by_k} group by $k := $r.k with $r"),
                format!("{f}(for $x in $r return $x.v)"),
                "$r",
                true,
            ),
        ];
        if f.ends_with("count") {
            let head = format!("{by_k} group by $k := $r.k with $r");
            sources.push((head, format!("{f}($r)"), "$r", true));
            sources.push((by_v.clone(), format!("{f}(for $x in $v return 1)"), "$v", true));
        }
        for (head, agg, g, fuses) in sources {
            let forms = [
                format!("{head} let $a := {agg} order by $k return {{ \"k\": $k, \"a\": $a L }}"),
                format!("{head} order by $k return {{ \"k\": $k, \"a\": {agg} L }}"),
                format!("{head} order by {agg} desc, $k return {{ \"k\": $k L }}"),
                format!("{head} where {agg} > 3 order by $k return {{ \"k\": $k L }}"),
            ];
            for form in forms {
                out.push(GrpQuery {
                    text: form.replace(" L }", " }"),
                    with_list: form.replace(" L }", &format!(", \"l\": {g} }}")),
                    fuses,
                });
            }
        }
    }
    out
}

/// Each query's rows, in order, checked against its oracle — the query
/// compiled with its aggregates left unfused, so that they run over the
/// materialized list — against the query that also returns the list (the
/// list cut off), and against the interpreter, with the plan holding a
/// listify exactly when the aggregate does not fuse and no job reading
/// whole records.
fn grp_answers(setup: Setup, step: &str, instance: &Instance) -> Vec<Vec<String>> {
    let rows = |values: Vec<Value>| -> Vec<String> {
        values
            .into_iter()
            .map(|v| {
                let mut rec = v.as_record().unwrap().clone();
                rec.remove("l");
                asterix_adm::print::to_adm_string(&Value::record(rec))
            })
            .collect()
    };
    grp_queries()
        .iter()
        .map(|q| {
            let text = &q.text;
            let (plan, job) = instance.explain(text).unwrap();
            assert_eq!(plan.contains("listify"), !q.fuses, "{setup:?} {step}: {text}\n{plan}");
            assert!(!job.contains("[cols: *]"), "{setup:?} {step}: {text}\n{job}");
            let (list_plan, _) = instance.explain(&q.with_list).unwrap();
            assert!(list_plan.contains("listify"), "{setup:?} {step}: {list_plan}");
            let got = rows(instance.query(&q.text).unwrap());
            let want = rows(compiled_unfused(instance, "Grp", &q.text));
            assert_eq!(got, want, "{setup:?} {step}: {}", q.text);
            let with_list = rows(instance.query(&q.with_list).unwrap());
            assert_eq!(with_list, want, "{setup:?} {step}: {}", q.with_list);
            let interp = rows(interpreted(instance, "Grp", &q.text));
            assert_eq!(interp, want, "{setup:?} {step}: interpreted {}", q.text);
            got
        })
        .collect()
}

/// `q` compiled with its group aggregates left unfused, so that each runs
/// over the materialized member list, and run.
fn compiled_unfused(instance: &Instance, dataverse: &str, q: &str) -> Vec<Value> {
    let provider: Arc<dyn MetadataProvider> =
        Arc::new(asterixdb::provider::InstanceProvider { shared: instance_shared(instance) });
    let catalog = asterixdb::provider::SessionCatalog {
        shared: instance_shared(instance),
        current_dataverse: dataverse.to_string(),
    };
    let plan = Translator::new(&catalog).translate_query(&parse_expression(q).unwrap()).unwrap();
    let fctx = FunctionContext::default();
    let options = OptimizerOptions { fuse_group_aggregates: false, ..Default::default() };
    let optimized = optimize(plan, &provider, &fctx, &options);
    asterix_algebricks::jobgen::compile(&optimized, provider, fctx, &options)
        .unwrap()
        .run()
        .unwrap()
}

/// Every user-side `G` record with id below 14 beside the records of the
/// third stage in its group `k`, as a left-outer hash join (no AQL
/// construct compiles to one), grouped by the id and counted both ways:
/// `count` counts the null an unmatched row carries, `sql-count` does not.
fn left_outer_group_count_plan() -> asterix_algebricks::plan::LogicalOp {
    use asterix_algebricks::expr::{CompareOp, LogicalExpr};
    use asterix_algebricks::plan::{AggCall, AggFunc, JoinKind, LogicalOp};
    let field = |v, name: &str| LogicalExpr::field(LogicalExpr::Var(v), name);
    let cmp = |op, v, bound| {
        LogicalExpr::Compare(op, Box::new(field(v, "id")), Box::new(LogicalExpr::Const(bound)))
    };
    let count = |var, sql| AggCall { var, func: AggFunc::Count, sql, input: LogicalExpr::Var(1) };
    LogicalOp::Emit {
        input: Box::new(LogicalOp::GroupBy {
            input: Box::new(LogicalOp::HashJoin {
                left: Box::new(LogicalOp::Select {
                    input: Box::new(LogicalOp::DataSourceScan { dataset: "Grp.G".into(), var: 0 }),
                    condition: cmp(CompareOp::Lt, 0, Value::Int64(14)),
                }),
                right: Box::new(LogicalOp::Select {
                    input: Box::new(LogicalOp::DataSourceScan { dataset: "Grp.G".into(), var: 1 }),
                    condition: cmp(CompareOp::Ge, 1, Value::Int64(240)),
                }),
                left_keys: vec![field(0, "id")],
                right_keys: vec![field(1, "k")],
                residual: None,
                kind: JoinKind::LeftOuter,
            }),
            keys: vec![(2, field(0, "id"))],
            aggs: vec![count(3, false), count(4, true)],
        }),
        expr: LogicalExpr::RecordCtor(vec![
            ("id".into(), LogicalExpr::Var(2)),
            ("n".into(), LogicalExpr::Var(3)),
            ("sql".into(), LogicalExpr::Var(4)),
        ]),
    }
}

/// Every grouped aggregate — `count`, `sql-count`, `sum`, `avg`, `min`,
/// `max` and `sql-avg`, of the group variable or of a subquery over it, in
/// a `let`, the `return`, an `order by` key or a `where` — answers as the
/// same query with its aggregates unfused does (so that they run over the
/// materialized list) and as the interpreter does, over members
/// whose field is null, missing, an int or a double, on every layout and
/// topology, staged and after a flush and a full merge. A counted record
/// is read with no field, also on the right of a left-outer join.
#[test]
fn grouped_aggregates_answer_identically_on_every_layout_and_topology() {
    let mut reference: Option<Vec<Vec<String>>> = None;
    let outer_plan = left_outer_group_count_plan();
    for_each_setup(&Layout::ALL, &[(1, 1), (2, 2), (4, 3)], &grp_corpus(), |setup, instance| {
        let answers = grp_answers(setup, "staged", instance);
        let want = reference.get_or_insert_with(|| answers.clone());
        assert_eq!(&answers, want, "{setup:?}");
        // Groups 0–2 hold unknown members, groups 3–6 none: a sum over the
        // records' fields is null in those three; a sum over the `$v` list,
        // which leaves the missing members out, only in group 0's.
        let sums =
            |agg: &str| &want[grp_queries().iter().position(|q| q.text.contains(agg)).unwrap()];
        for (agg, nulls) in [("sum(for $x in $r", 3), ("sum(for $x in $v", 1), ("sum($v)", 1)] {
            let sums = sums(agg);
            assert_eq!(sums.len(), 7, "{agg}: {sums:?}");
            assert_eq!(
                sums.iter().filter(|r| r.contains("null")).count(),
                nulls,
                "{agg}: {sums:?}"
            );
        }

        let g = instance.dataset("G").unwrap();
        g.flush_all().unwrap();
        for p in &g.primary {
            p.lsm().merge_all().unwrap();
            assert!(p.lsm().disk_component_count() <= 1, "{setup:?}");
        }
        assert_eq!(&grp_answers(setup, "merged", instance), want, "{setup:?}");

        let (got, interp_rows) = compiled_and_interpreted(instance, &outer_plan);
        assert_eq!(got, interp_rows, "{setup:?}: left-outer group count");
        let unmatched: Vec<&String> = got.iter().filter(|r| r.contains("\"sql\": 0")).collect();
        // Ids 7–13 have no partner; 10 and 11 are deleted.
        assert_eq!(unmatched.len(), 5, "{setup:?}: {got:?}");
        assert!(unmatched.iter().all(|r| r.contains("\"n\": 1")), "{setup:?}: {got:?}");
        let provider: Arc<dyn MetadataProvider> =
            Arc::new(asterixdb::provider::InstanceProvider { shared: instance_shared(instance) });
        let job = asterix_algebricks::jobgen::compile(
            &outer_plan,
            provider,
            FunctionContext::default(),
            &OptimizerOptions::default(),
        )
        .unwrap()
        .describe();
        assert!(job.contains("data-scan Grp.G [cols: id,k]"), "{job}");
        assert!(!job.contains("[cols: *]"), "{job}");
    });
}

/// The benchmark's `GrpAgg` shapes read two columns of the messages — the
/// group key and the filtered timestamp — through the index and through a
/// scan alike, and build no member list.
#[test]
fn grouped_counts_read_the_group_key_and_the_filter_only() {
    for indexed in [true, false] {
        let setup = Setup { layout: Layout::Memory, topology: (1, 1) };
        let (instance, _d) = staged_instance(setup, &perf_corpus(indexed));
        let grouped: Vec<String> =
            ix_queries().into_iter().filter(|q| q.contains("group by")).collect();
        assert_eq!(grouped.len(), 2);
        for q in grouped {
            let (plan, job) = instance.explain(&q).unwrap();
            assert!(plan.contains("group-by (1 keys) [aggs: count]"), "{plan}");
            assert!(job.contains("[cols: author-id,timestamp]"), "{job}");
            assert!(!job.contains("[cols: *]"), "{job}");
        }
    }
}

// ---------------------------------------------------------------------------
// Nested queries: decorrelated into the job, answered per outer row
// ---------------------------------------------------------------------------

/// User `i` of `NU`: a group, a list of favourite authors with repeats, a
/// `boss` that is an author id, null or missing, and a location.
fn nest_user(i: i64) -> Value {
    let mut fields = vec![
        ("id", Value::Int64(i)),
        ("grp", Value::Int64(i % 3)),
        (
            "fav",
            Value::ordered_list(vec![Value::Int64(i % 5), Value::Int64(i % 5), Value::Int64(7)]),
        ),
    ];
    match i % 4 {
        0 => fields.push(("boss", Value::Null)),
        1 => {}
        _ => fields.push(("boss", Value::Int64(i / 2))),
    }
    Value::record(asterix_adm::Record::from_fields(fields))
}

/// Message `m` of `NM` in its `generation`-th version: authors 0–29 (none
/// for users 30–39), some null or missing; a length that is sometimes
/// null; the message it replies to; a point near one of a few centres, or
/// none; and a bag of tags.
fn nest_message(m: i64, generation: i64) -> Value {
    let words = ["music", "phone", "plan", "concert", "tweet"];
    let mut fields = vec![("mid", Value::Int64(m)), ("reply", Value::Int64(m / 3))];
    match m % 11 {
        0 => fields.push(("author", Value::Null)),
        1 => {}
        _ => fields.push(("author", Value::Int64((m * 7 + generation) % 30))),
    }
    let len = if m % 13 == 0 { Value::Null } else { Value::Int64((m * 37 + generation) % 200) };
    fields.push(("len", len));
    if m % 9 != 0 {
        let (cx, cy) = ((m % 4) as f64 * 10.0, (m % 3) as f64 * 10.0);
        let p = Point { x: cx + (m % 5) as f64 * 0.3, y: cy + (m % 7) as f64 * 0.2 };
        fields.push(("loc", Value::Point(p)));
    }
    let tags = (0..1 + m % 3).map(|k| Value::string(words[((m + k * 2) % 5) as usize])).collect();
    fields.push(("tags", Value::unordered_list(tags)));
    Value::record(asterix_adm::Record::from_fields(fields))
}

/// `NU` (40 users) and `NM` (260 messages), indexed on the correlation
/// fields, loaded in three stages; the later ones rewrite and delete
/// messages of the earlier.
fn nest_corpus() -> Corpus {
    Corpus {
        dataverse: "Nest",
        ddl: "create type NUT as open { id: int64 };
              create type NMT as open { mid: int64 };
              create dataset NU(NUT) primary key id;
              create dataset NM(NMT) primary key mid;
              create index nmAuthorIdx on NM(author) type btree;
              create index nmReplyIdx on NM(reply) type btree;
              create index nmLocIdx on NM(loc) type rtree;
              create index nmTagsIdx on NM(tags) type keyword;
              create function big() {
                  for $m in dataset NM where $m.len > 120 return $m
              };
              create function messages_of($id) {
                  for $m in dataset NM where $m.author = $id return $m.mid
              };"
        .into(),
        flushed: vec!["NU", "NM"],
        load: Box::new(|instance, stage| {
            let (users, messages) =
                (instance.dataset("NU").unwrap(), instance.dataset("NM").unwrap());
            let (fresh, rewritten, deleted): (_, &[i64], &[i64]) = match stage {
                0 => (0..150, &[], &[]),
                1 => (150..230, &[4, 40, 99], &[12, 77]),
                _ => (230..260, &[160, 5], &[200, 13]),
            };
            if stage == 0 {
                for i in 0..40 {
                    users.insert(&nest_user(i)).unwrap();
                }
            }
            for m in fresh {
                messages.insert(&nest_message(m, 0)).unwrap();
            }
            for &m in rewritten {
                assert!(messages.delete_by_pk(&[Value::Int64(m)]).unwrap());
                messages.insert(&nest_message(m, stage as i64)).unwrap();
            }
            for &m in deleted {
                assert!(messages.delete_by_pk(&[Value::Int64(m)]).unwrap());
            }
        }),
    }
}

/// One nested query: the session's `set simfunction/simthreshold` it runs
/// under, its text, whether its rows and inner lists come in a defined
/// order, and its flat twin, where it has one.
struct NestQuery {
    settings: Option<(&'static str, &'static str)>,
    text: String,
    ordered: bool,
    twin: Option<String>,
}

fn nest_queries() -> Vec<NestQuery> {
    let q =
        |text: &str, ordered| NestQuery { settings: None, text: text.into(), ordered, twin: None };
    let twin = |text: &str, flat: &str| NestQuery {
        settings: None,
        text: text.into(),
        ordered: false,
        twin: Some(flat.into()),
    };
    let of_u = "for $m in dataset NM where $m.author = $u.id";
    let aggregates = ["count", "sum", "avg", "min", "max", "sql-count", "sql-sum", "sql-avg"]
        .iter()
        .map(|f| format!("\"{f}\": {f}({of_u} return $m.len)"))
        .collect::<Vec<_>>()
        .join(", ");
    // The AQL aggregates over a body some of whose rows in a non-empty
    // group are no member: a second join's unmatched rows, an unnest of a
    // list that is sometimes empty, a `where` after a `let`.
    let poisonable = |body: &str| {
        let aggs = ["sum", "avg", "min", "max"].map(|f| format!("\"{f}\": {f}({body})"));
        format!(
            "for $u in dataset NU order by $u.id return {{ \"u\": $u.id, {} }}",
            aggs.join(", ")
        )
    };
    let per_member = [
        format!("{of_u} for $r in dataset NM where $r.reply = $m.mid return $r.mid"),
        format!(
            "{of_u} for $t in (for $g in $m.tags where $g = \"music\" return $g) return $m.mid"
        ),
        format!("{of_u} let $k := $m.mid % 4 where $k = 1 return $m.mid"),
    ];
    let mut queries = vec![
        // Empty groups under every aggregate (users 30-39 have no message),
        // and the list itself.
        q(
            &format!(
                "for $u in dataset NU order by $u.id \
                 return {{ \"u\": $u.id, {aggregates}, \"l\": {of_u} order by $m.mid return $m.mid }}"
            ),
            true,
        ),
        // Empty groups of the later users, whose answers are grouped apart
        // and joined back: a count, and a list of records.
        q(
            &format!(
                "for $u in dataset NU where $u.id >= 25 \
                 return {{ \"u\": $u.id, \"n\": count({of_u} return $m) }}"
            ),
            false,
        ),
        q(
            &format!(
                "for $u in dataset NU where $u.id >= 25 \
                 return {{ \"u\": $u.id, \"r\": {of_u} return {{ \"m\": $m.mid }} }}"
            ),
            false,
        ),
        // An inner order by and limit, per outer row.
        q(
            &format!(
                "for $u in dataset NU where $u.id < 20 order by $u.id \
                 return {{ \"u\": $u.id, \"top\": {of_u} order by $m.len desc, $m.mid limit 2 \
                 return $m.mid }}"
            ),
            true,
        ),
        // An inner group-by, then a second `for` over a dataset.
        q(
            &format!(
                "for $u in dataset NU where $u.id < 15 \
                 return {{ \"u\": $u.id, \"g\": {of_u} group by $k := $m.mid % 3 with $m \
                 for $v in dataset NU where $v.grp = $k \
                 return {{ \"k\": $k, \"v\": $v.id, \"n\": count($m) }} }}"
            ),
            false,
        ),
        // Duplicate outer rows from a list unnest.
        q(
            "for $u in dataset NU for $f in $u.fav where $u.id < 10 \
             return { \"u\": $u.id, \"f\": $f, \
                      \"n\": count(for $m in dataset NM where $m.author = $f return $m) }",
            false,
        ),
        // Null and missing correlation keys, on both sides.
        q(
            "for $u in dataset NU \
             return { \"u\": $u.id, \"m\": for $m in dataset NM where $m.author = $u.boss \
                      return $m.mid }",
            false,
        ),
        // A correlated primary-key lookup.
        q(
            "for $m in dataset NM where $m.mid < 30 \
             return { \"m\": $m.mid, \"a\": for $u in dataset NU where $u.id = $m.author \
                      return $u.grp }",
            false,
        ),
        // Nesting two deep, the innermost naming both outer rows.
        q(
            &format!(
                "for $u in dataset NU where $u.id < 12 \
                 return {{ \"u\": $u.id, \"m\": {of_u} return {{ \"m\": $m.mid, \
                 \"r\": for $r in dataset NM where $r.reply = $m.mid and $r.len > $u.id \
                 return $r.mid }} }}"
            ),
            false,
        ),
        // `some` and `every` over a subquery: a where and a return.
        q(
            "for $u in dataset NU \
             where some $m in dataset NM satisfies $m.author = $u.id and $m.len > 150 \
             return $u.id",
            false,
        ),
        q(
            &format!(
                "for $u in dataset NU return {{ \"u\": $u.id, \
                 \"all\": every $m in ({of_u} return $m) satisfies $m.len > 20, \
                 \"any\": some $m in dataset NM satisfies $m.author = $u.boss }}"
            ),
            false,
        ),
        // A dataset as a value, bare and in an expression.
        twin("count(dataset NM)", "count(for $m in dataset NM return $m)"),
        q("{ \"m\": count(dataset NM) + 0, \"u\": count(dataset NU) }", false),
        // `for` over a subquery, a UDF over a dataset in `for`, and a UDF
        // with a parameter as a value.
        twin(
            "for $x in (for $m in dataset NM where $m.author < 4 return $m) return $x.mid",
            "for $m in dataset NM where $m.author < 4 return $m.mid",
        ),
        twin(
            "for $b in big() where $b.author < 9 return $b.mid",
            "for $m in dataset NM where $m.len > 120 and $m.author < 9 return $m.mid",
        ),
        q("for $u in dataset NU where $u.id < 8 return { \"u\": $u.id, \"m\": messages_of($u.id) }", false),
        // Query 5's spatial shape, some points unknown.
        q(
            "for $t in dataset NM where $t.mid < 40 \
             return { \"m\": $t.mid, \"near\": for $t2 in dataset NM \
                      where spatial-distance($t.loc, $t2.loc) <= 1.5 return $t2.mid }",
            false,
        ),
        // Query 13's jaccard shape.
        NestQuery {
            settings: Some(("jaccard", "0.5")),
            text: "for $m in dataset NM where $m.mid < 30 \
                   let $sim := (for $m2 in dataset NM \
                                where $m2.tags ~= $m.tags and $m2.mid != $m.mid \
                                return $m2.mid) \
                   where count($sim) > 0 \
                   return { \"m\": $m.mid, \"sim\": $sim }"
                .into(),
            ordered: false,
            twin: None,
        },
    ];
    queries.extend(per_member.iter().map(|b| q(&poisonable(b), true)));
    queries
}

/// The interpreter's answer over the plan the translator writes — before
/// `optimize`, so that every nested FLWOR is evaluated once per outer row.
fn per_outer_row(instance: &Instance, q: &NestQuery) -> Vec<Value> {
    let provider: Arc<dyn MetadataProvider> =
        Arc::new(asterixdb::provider::InstanceProvider { shared: instance_shared(instance) });
    let catalog = asterixdb::provider::SessionCatalog {
        shared: instance_shared(instance),
        current_dataverse: "Nest".into(),
    };
    let mut translator = Translator::new(&catalog);
    if let Some((function, threshold)) = q.settings {
        translator.simfunction = function.into();
        translator.simthreshold = threshold.into();
    }
    let plan = translator.translate_query(&parse_expression(&q.text).unwrap()).unwrap();
    let mut fctx = FunctionContext::default();
    if let Some((function, threshold)) = q.settings {
        fctx.simfunction = function.into();
        fctx.simthreshold = threshold.into();
    }
    let ctx = EvalCtx::new(provider, fctx);
    interp::eval_subplan(&plan, &HashMap::new(), &ctx).unwrap()
}

/// A query's rows as the instance answers it, under its settings.
fn nested_answer(instance: &Instance, q: &NestQuery, text: &str) -> Vec<String> {
    let text = match q.settings {
        Some((f, t)) => format!("set simfunction \"{f}\"; set simthreshold \"{t}\"; {text}"),
        None => text.to_string(),
    };
    let rows = instance.query(&text).unwrap();
    nested_canonical(q, rows)
}

fn nested_canonical(q: &NestQuery, rows: Vec<Value>) -> Vec<String> {
    if q.ordered {
        rows.iter().map(asterix_adm::print::to_adm_string).collect()
    } else {
        deep_canonical(rows)
    }
}

/// Whether every `subplan` block of an `explain` plan — what expressions
/// still evaluate per tuple — reads no dataset.
fn subplans_read_no_dataset(plan: &str) -> bool {
    let depth = |l: &str| l.len() - l.trim_start().len();
    let mut block: Option<usize> = None;
    for line in plan.lines() {
        match block {
            Some(d) if depth(line) > d => {
                if ["data-scan", "-search", "index-nl-join"].iter().any(|r| line.contains(r)) {
                    return false;
                }
            }
            _ => block = (line.trim() == "subplan").then(|| depth(line)),
        }
    }
    true
}

/// Every nested query answers as the interpreter does when it evaluates
/// each nested FLWOR once per outer row — and as its flat twin does — on
/// every layout and topology, with the indexes on the correlation fields
/// and without them; and no plan reads a dataset in an expression.
#[test]
fn nested_queries_answer_identically_on_every_layout_and_topology() {
    let queries = nest_queries();
    let corpus = nest_corpus();
    let mut expected: Option<Vec<Vec<String>>> = None;
    for_each_setup(&Layout::ALL, &[(1, 1), (2, 2), (4, 3)], &corpus, |setup, instance| {
        let want = expected.get_or_insert_with(|| {
            queries.iter().map(|q| nested_canonical(q, per_outer_row(instance, q))).collect()
        });
        for drop_indexes in [false, true] {
            if drop_indexes {
                instance
                    .execute(
                        "use dataverse Nest; drop index NM.nmAuthorIdx; drop index NM.nmReplyIdx; \
                         drop index NM.nmLocIdx; drop index NM.nmTagsIdx;",
                    )
                    .unwrap();
            }
            for (q, want) in queries.iter().zip(want.iter()) {
                let step = format!("{setup:?} indexes dropped: {drop_indexes}");
                let (plan, _) = instance.explain(&q.text).unwrap();
                assert!(subplans_read_no_dataset(&plan), "{step}: {}\n{plan}", q.text);
                assert_eq!(&nested_answer(instance, q, &q.text), want, "{step}: {}", q.text);
                if let Some(flat) = &q.twin {
                    assert_eq!(&nested_answer(instance, q, flat), want, "{step}: twin {flat}");
                }
            }
        }
        // The empty groups: users 30-39 count 0, and sum, avg, min and max
        // answer as over `[]`.
        let rows = instance.query(&queries[0].text).unwrap();
        for r in &rows[30..] {
            assert_eq!(r.field("count"), Value::Int64(0), "{r:?}");
            assert_eq!(r.field("l"), Value::ordered_list(vec![]), "{r:?}");
            for f in ["sum", "avg", "min", "max", "sql-sum", "sql-avg"] {
                assert_eq!(r.field(f), Value::Null, "{f}: {r:?}");
            }
        }
        assert!(rows[..30].iter().any(|r| r.field("count").as_i64() > Some(0)));
    });
}
