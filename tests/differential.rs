//! Differential testing: the compiled (Hyracks) path vs. the interpreter,
//! and indexed vs. scan plans, must agree on randomized data — the
//! cross-checking oracle for the whole query stack.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use asterix_adm::functions::FunctionContext;
use asterix_adm::Value;
use asterix_algebricks::expr::EvalCtx;
use asterix_algebricks::interp;
use asterix_algebricks::metadata::MetadataProvider;
use asterix_algebricks::rules::{optimize, OptimizerOptions};
use asterix_aql::parser::parse_expression;
use asterix_aql::translate::Translator;
use asterixdb::{ClusterConfig, Instance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_instance(seed: u64, n: usize) -> (Arc<Instance>, tempfile::TempDir) {
    let dir = tempfile::TempDir::new().unwrap();
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
fn limit_pushdown_ablation_agrees() {
    let (instance, _d) = build_instance(0xCAFE, 150);
    let q = "for $u in dataset U order by $u.score desc, $u.id asc limit 9 return $u.id";
    instance.optimizer_options.write().push_limit_into_sort = false;
    let plain = instance.query(q).unwrap();
    instance.optimizer_options.write().push_limit_into_sort = true;
    let pushed = instance.query(q).unwrap();
    assert_eq!(plain, pushed);
    assert_eq!(plain.len(), 9);
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
// Filter-first scans: one logical dataset, five storage layouts
// ---------------------------------------------------------------------------

/// Where the records of the pushdown dataset sit when the queries run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Layout {
    /// Never flushed: the scan only sees memory rows, which no pushed
    /// filter touches — the select alone decides. The reference.
    Memory,
    /// `disable_columnar`: row-major components, projection declined.
    RowComponents,
    /// Columnar components (plus the last writes still in memory).
    Columnar,
    /// First flush row-major, second flush columnar, the rest in memory.
    Mixed,
    /// Columnar components read back with `disable_columnar` set.
    ColumnarKnobOff,
}

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

fn pushdown_instance(layout: Layout) -> (Arc<Instance>, tempfile::TempDir) {
    let dir = tempfile::TempDir::new().unwrap();
    let open = |disable_columnar: bool| {
        let mut cfg = ClusterConfig::small(dir.path());
        cfg.disable_columnar = disable_columnar;
        let instance = Instance::open(cfg).unwrap();
        instance.execute("create dataverse Push if not exists; use dataverse Push;").unwrap();
        instance
    };
    let flush = |instance: &Arc<Instance>| {
        if layout != Layout::Memory {
            instance.dataset("D").unwrap().flush_all().unwrap();
        }
    };
    let mut instance = open(matches!(layout, Layout::RowComponents | Layout::Mixed));
    instance
        .execute(
            "create type DT as open { id: int64, grp: int64, ts: int64?, big: double? };
             create dataset D(DT) primary key id;",
        )
        .unwrap();

    // First flush: ids 0..300.
    let d = instance.dataset("D").unwrap();
    for i in 0..300 {
        d.insert(&pushdown_record(i, pushdown_ts(i))).unwrap();
    }
    flush(&instance);
    drop(d);
    if layout == Layout::Mixed {
        drop(instance);
        instance = open(false);
    }

    // Second flush: ids 300..600; id 5 (ts 185, inside the window) is
    // rewritten with a ts outside it, id 8 (ts 296) is deleted.
    let rewrite = |d: &asterixdb::dataset::DatasetRuntime, i: i64| {
        assert!(d.delete_by_pk(&[Value::Int64(i)]).unwrap());
        d.insert(&pushdown_record(i, 5000)).unwrap();
    };
    let d = instance.dataset("D").unwrap();
    for i in 300..600 {
        d.insert(&pushdown_record(i, pushdown_ts(i))).unwrap();
    }
    rewrite(&d, 5);
    assert!(d.delete_by_pk(&[Value::Int64(8)]).unwrap());
    flush(&instance);
    drop(d);
    if layout == Layout::ColumnarKnobOff {
        drop(instance);
        instance = open(true);
    }

    // Still in memory: ids 600..650; id 305 (ts 285) rewritten, id 316
    // (ts 692 … inside the wide window) deleted.
    let d = instance.dataset("D").unwrap();
    for i in 600..650 {
        d.insert(&pushdown_record(i, pushdown_ts(i))).unwrap();
    }
    rewrite(&d, 305);
    assert!(d.delete_by_pk(&[Value::Int64(316)]).unwrap());
    (instance, dir)
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
    for layout in [Layout::RowComponents, Layout::Columnar, Layout::Mixed, Layout::ColumnarKnobOff]
    {
        let (instance, _d) = pushdown_instance(layout);
        let columnar_built = instance.columnar_stats().components.get() > 0;
        assert_eq!(columnar_built, matches!(layout, Layout::Columnar | Layout::Mixed));
        for (q, want) in PUSHDOWN_QUERIES.iter().zip(&expected) {
            // Printed ADM pins field order as well as values.
            assert_eq!(&canonical(instance.query(q).unwrap()), want, "{layout:?}: {q}");
        }
        let pushed = instance.columnar_stats().rows_filtered.get() > 0;
        assert_eq!(pushed, matches!(layout, Layout::Columnar | Layout::Mixed), "{layout:?}");
    }
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

/// How an instance of the index-plan corpus is laid out and run.
#[derive(Debug, Clone, Copy)]
struct IxSetup {
    layout: Layout,
    disable_fusion: bool,
    /// Nodes, and partitions per node.
    topology: (usize, usize),
}

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

/// Open (or re-open) the instance under `dir` the way `setup` runs it, in
/// `dataverse`.
fn open_setup(
    dir: &std::path::Path,
    setup: IxSetup,
    disable_columnar: bool,
    dataverse: &str,
) -> Arc<Instance> {
    let mut cfg = ClusterConfig::small(dir);
    (cfg.nodes, cfg.partitions_per_node) = setup.topology;
    cfg.disable_columnar = disable_columnar;
    cfg.disable_fusion = setup.disable_fusion;
    let instance = Instance::open(cfg).unwrap();
    let enter = format!("create dataverse {dataverse} if not exists; use dataverse {dataverse};");
    instance.execute(&enter).unwrap();
    instance
}

/// The corpus of [`corpus_instance`] with the benchmark's secondary
/// indexes (its `index_queries` instance).
fn ix_instance(setup: IxSetup) -> (Arc<Instance>, tempfile::TempDir) {
    corpus_instance(setup, true)
}

/// The benchmark's schema (`perf/src/env.rs`) cut down to the fields its
/// shapes touch, under the benchmark's names, loaded in three stages like
/// [`pushdown_instance`]: two flushes and a tail left in memory, each
/// later stage rewriting and deleting messages of the earlier ones.
/// Without the secondary indexes (the benchmark's `scan_queries` instance)
/// it also holds the key datasets of [`key_record`], staged the same way.
fn corpus_instance(setup: IxSetup, indexed: bool) -> (Arc<Instance>, tempfile::TempDir) {
    let dir = tempfile::TempDir::new().unwrap();
    let layout = setup.layout;
    let open = |disable_columnar: bool| open_setup(dir.path(), setup, disable_columnar, "Perf");
    let flush = |instance: &Arc<Instance>| {
        if layout != Layout::Memory {
            let keyed: &[&str] = if indexed { &[] } else { &["A", "B"] };
            for name in ["MugshotUsers", "MugshotMessages"].iter().chain(keyed) {
                instance.dataset(name).unwrap().flush_all().unwrap();
            }
        }
    };
    let mut instance = open(matches!(layout, Layout::RowComponents | Layout::Mixed));
    instance
        .execute(
            "create type MugshotUserType as open {
                 id: int64, name: string, user-since: datetime
             };
             create type MugshotMessageType as open {
                 message-id: int64, author-id: int64, timestamp: datetime,
                 in-response-to: int64?, message: string
             };
             create dataset MugshotUsers(MugshotUserType) primary key id;
             create dataset MugshotMessages(MugshotMessageType) primary key message-id;",
        )
        .unwrap();
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
    instance.execute(more).unwrap();
    // Every twentieth message loads an `A` record beside it, every fourth
    // a `B` record.
    let load = |instance: &Arc<Instance>, ids: std::ops::Range<i64>| {
        let messages = instance.dataset("MugshotMessages").unwrap();
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
    // A rewrite moves the message out of every window the queries use (and
    // its index entries with it); a delete removes it. An early `B` record
    // goes the same way: to a key without a partner, or away.
    let rewrite = |instance: &Arc<Instance>, m: i64| {
        let messages = instance.dataset("MugshotMessages").unwrap();
        assert!(messages.delete_by_pk(&[Value::Int64(m)]).unwrap());
        messages.insert(&ix_message(m, 1439)).unwrap();
        if !indexed {
            let b = instance.dataset("B").unwrap();
            assert!(b.delete_by_pk(&[Value::Int64(m % 100)]).unwrap());
            b.insert(&key_record("B", m % 100, Some(1000))).unwrap();
        }
    };
    let delete = |instance: &Arc<Instance>, m: i64| {
        let messages = instance.dataset("MugshotMessages").unwrap();
        assert!(messages.delete_by_pk(&[Value::Int64(m)]).unwrap());
        if !indexed {
            assert!(instance.dataset("B").unwrap().delete_by_pk(&[Value::Int64(m % 100)]).unwrap());
        }
    };

    let users = instance.dataset("MugshotUsers").unwrap();
    for i in 0..IX_USERS {
        users.insert(&ix_user(i)).unwrap();
    }
    drop(users);
    load(&instance, 0..250);
    flush(&instance);
    if layout == Layout::Mixed {
        drop(instance);
        instance = open(false);
    }
    load(&instance, 250..550);
    rewrite(&instance, 3);
    delete(&instance, 6);
    flush(&instance);
    if layout == Layout::ColumnarKnobOff {
        drop(instance);
        instance = open(true);
    }
    load(&instance, 550..IX_MESSAGES);
    rewrite(&instance, 9);
    rewrite(&instance, 253);
    delete(&instance, 12);
    delete(&instance, 256);
    (instance, dir)
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
    let provider: Arc<dyn MetadataProvider> =
        Arc::new(asterixdb::provider::InstanceProvider { shared: instance_shared(instance) });
    let catalog = asterixdb::provider::SessionCatalog {
        shared: instance_shared(instance),
        current_dataverse: dataverse.to_string(),
    };
    let plan = Translator::new(&catalog).translate_query(&parse_expression(q).unwrap()).unwrap();
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
    use asterix_algebricks::plan::{JoinKind, LogicalOp};
    LogicalOp::Emit {
        input: Box::new(LogicalOp::IndexNlJoin {
            left: Box::new(LogicalOp::DataSourceScan { dataset: USERS.into(), var: 0 }),
            dataset: MESSAGES.into(),
            index: "msAuthorIdx".into(),
            probe: LogicalExpr::field(LogicalExpr::Var(0), "id"),
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
/// instance that never flushed does, on every storage layout, fused and
/// unfused, on one partition and on four.
#[test]
fn index_plans_answer_identically_on_every_layout_and_topology() {
    let queries = ix_queries();
    let reference_setup =
        IxSetup { layout: Layout::Memory, disable_fusion: false, topology: (1, 1) };
    let (reference, _d0) = ix_instance(reference_setup);
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
    for layout in [
        Layout::Memory,
        Layout::RowComponents,
        Layout::Columnar,
        Layout::Mixed,
        Layout::ColumnarKnobOff,
    ] {
        for (disable_fusion, topology) in
            [(false, (1, 1)), (true, (1, 1)), (false, (2, 2)), (true, (2, 2))]
        {
            let setup = IxSetup { layout, disable_fusion, topology };
            let (instance, _d) = ix_instance(setup);
            // Every compiled query fetched through the key-list path of the
            // columnar components, where there are any (counted around the
            // query itself: the loads' duplicate checks and the
            // interpreter's per-key lookups are point probes, not fetches);
            // filters are pushed into the fetch with the knob on.
            let stats = instance.columnar_stats();
            let columnar_on_disk =
                matches!(layout, Layout::Columnar | Layout::Mixed | Layout::ColumnarKnobOff);
            let mut filtered = 0;
            for (q, want) in queries.iter().zip(&expected) {
                let before =
                    (stats.fetch_groups.get(), stats.fetch_keys.get(), stats.rows_filtered.get());
                let got = canonical(instance.query(q).unwrap());
                assert_eq!(&got, want, "{setup:?}: {q}");
                let fetched =
                    stats.fetch_groups.get() > before.0 && stats.fetch_keys.get() > before.1;
                assert_eq!(fetched, columnar_on_disk, "{setup:?}: {q}");
                filtered += stats.rows_filtered.get() - before.2;
                let before = (stats.fetch_groups.get(), stats.fetch_keys.get());
                assert_eq!(
                    &canonical(interpreted(&instance, "Perf", q)),
                    want,
                    "{setup:?} interpreted: {q}"
                );
                assert_eq!((stats.fetch_groups.get(), stats.fetch_keys.get()), before);
            }
            assert_eq!(
                filtered > 0,
                matches!(layout, Layout::Columnar | Layout::Mixed),
                "{setup:?}"
            );

            // The left-outer join: compiled against interpreted, and the
            // same on every instance.
            let (got, interp_rows) = compiled_and_interpreted(&instance, setup, &outer_plan);
            assert_eq!(got, interp_rows, "{setup:?}: left-outer index-NL join");
            // A padded row's `$m` is null, so its `m` field is missing.
            let padded = got.iter().filter(|r| !r.contains("\"m\"")).count();
            assert_eq!(padded, (IX_USERS - 60) as usize, "{setup:?}");
            assert_eq!(got.len(), padded + IX_MESSAGES as usize - 3, "three messages are deleted");
            let want = outer_expected.get_or_insert_with(|| got.clone());
            assert_eq!(&got, want, "{setup:?}: left-outer index-NL join");
        }
    }
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

/// Run `plan` compiled, as `setup` runs queries, and interpreted.
fn compiled_and_interpreted(
    instance: &Instance,
    setup: IxSetup,
    plan: &asterix_algebricks::plan::LogicalOp,
) -> (Vec<String>, Vec<String>) {
    let provider: Arc<dyn MetadataProvider> =
        Arc::new(asterixdb::provider::InstanceProvider { shared: instance_shared(instance) });
    let fctx = FunctionContext::default();
    let options = OptimizerOptions::default();
    let compiled =
        asterix_algebricks::jobgen::compile(plan, Arc::clone(&provider), fctx.clone(), &options)
            .unwrap();
    let cfg = asterix_hyracks::ExecutorConfig {
        disable_fusion: setup.disable_fusion,
        ..Default::default()
    };
    let stats = Arc::new(asterix_hyracks::ExchangeStats::new());
    let got = canonical(compiled.run_with(&cfg, &stats).unwrap());
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
/// type and wherever it is NULL or MISSING, on every storage layout, fused
/// and unfused, on one partition, on four and on twelve; and as an
/// instance that never flushed does.
#[test]
fn hash_joins_answer_identically_on_every_layout_and_topology() {
    let queries = hash_join_queries();
    let reference_setup =
        IxSetup { layout: Layout::Memory, disable_fusion: false, topology: (1, 1) };
    let (reference, _d0) = corpus_instance(reference_setup, false);
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
    for layout in [
        Layout::Memory,
        Layout::RowComponents,
        Layout::Columnar,
        Layout::Mixed,
        Layout::ColumnarKnobOff,
    ] {
        for topology in [(1, 1), (2, 2), (4, 3)] {
            for disable_fusion in [false, true] {
                let setup = IxSetup { layout, disable_fusion, topology };
                let (instance, _d) = corpus_instance(setup, false);
                for (q, want) in queries.iter().zip(&expected) {
                    assert_eq!(&canonical(instance.query(q).unwrap()), want, "{setup:?}: {q}");
                    assert_eq!(
                        &canonical(interpreted(&instance, "Perf", q)),
                        want,
                        "{setup:?} interpreted: {q}"
                    );
                }

                // The selected users build and the messages' scan is asked
                // for partners, whichever is written first — unless the
                // knob declines what is pushed into scans.
                let a = [minute(100), minute(160), minute(200), minute(260)];
                let pushing = !matches!(layout, Layout::RowComponents | Layout::ColumnarKnobOff);
                for users_first in [true, false] {
                    let (_, job) = instance.explain(&seljoin_text(&a, users_first)).unwrap();
                    let sides = if users_first { "build=left" } else { "build=right" };
                    // 80 users, a tenth selected; 600 messages and, once
                    // flushed, the six superseded versions and three
                    // tombstones beside them.
                    assert!(
                        job.contains(&format!("equi [{sides} ~8, probe ~60")),
                        "{setup:?}: {job}"
                    );
                    let pushed = job.contains(
                        "data-scan Perf.MugshotMessages [cols: author-id,message] \
                         [filter: author-id in join #0]",
                    );
                    assert_eq!(pushed, pushing, "{setup:?}: {job}");
                    assert!(job.contains("runtime-filter-probe #0"), "{setup:?}: {job}");
                    let (_, job) = instance.explain(&sel2join_text(&a, false)).unwrap();
                    let pushed = job.contains(
                        "[cols: author-id,message,timestamp] \
                         [filter: timestamp>=?, timestamp<?, author-id in join #0]",
                    );
                    assert_eq!(pushed, pushing, "{setup:?}: {job}");
                }

                // What the test in the scan decides, with the filter there
                // before the scan: no message of a wanted author is lost,
                // and those of the others go where columnar components
                // hold them — 550 were flushed, the first 250 row-major on
                // the mixed instance, and twelve (of sixty) authors are
                // wanted.
                let authors: Vec<i64> = (0..60).step_by(5).collect();
                let through = message_ids_with_partners(&instance, &authors);
                let wanted = format!(
                    "for $m in dataset {MESSAGES} where $m.author-id % 5 = 0 return $m.message-id"
                );
                let wanted: Vec<i64> =
                    reference.query(&wanted).unwrap().iter().map(|m| m.as_i64().unwrap()).collect();
                assert!(wanted.iter().all(|m| through.binary_search(m).is_ok()), "{setup:?}");
                let dropped = IX_MESSAGES as usize - 3 - through.len();
                let decided = match layout {
                    Layout::Columnar => 550,
                    Layout::Mixed => 300,
                    _ => 0,
                };
                assert!(
                    if decided == 0 { dropped == 0 } else { dropped > decided / 2 },
                    "{setup:?}: {dropped} messages dropped in the scan"
                );

                // The left-outer join: compiled against interpreted, and
                // the same on every instance; a user without a message in
                // the window comes out padded — `$m` null, `m` missing —
                // with its own fields where they belong.
                let (got, interp_rows) = compiled_and_interpreted(&instance, setup, &outer_plan);
                assert_eq!(got, interp_rows, "{setup:?}: left-outer hash join");
                let padded: Vec<&String> = got.iter().filter(|r| !r.contains("\"m\"")).collect();
                assert!(padded.len() > 60 && padded.iter().all(|r| r.contains("\"name\": \"u")));
                let want = outer_expected.get_or_insert_with(|| got.clone());
                assert_eq!(&got, want, "{setup:?}: left-outer hash join");
            }
        }
    }
}

/// The `indexnl` hint means index-NL also when a select sits on the inner
/// side: the benchmark's `Sel2Join` compiles to the paper's plan — one
/// secondary search on the users, the join probing the messages' author
/// index with the timestamp window pushed into its fetch — not to a hash
/// join of two index searches.
#[test]
fn sel2join_hint_compiles_to_an_index_nl_join() {
    let setup = IxSetup { layout: Layout::Columnar, disable_fusion: false, topology: (1, 1) };
    let (instance, _d) = ix_instance(setup);
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
/// int64, `KS` by the string `k{i}`.
fn lookup_record(dataset: &str, i: i64, v: i64) -> Value {
    let id = if dataset == "KS" { format!("\"k{i}\"") } else { i.to_string() };
    asterix_adm::parse::parse_value(&format!("{{ \"id\": {id}, \"v\": {v} }}")).unwrap()
}

/// Three datasets of 100 records loaded in three stages like
/// [`pushdown_instance`]: two flushes and a tail left in memory, each later
/// stage rewriting (`v` becomes 5000) and deleting keys of the earlier ones.
fn lookup_instance(setup: IxSetup) -> (Arc<Instance>, tempfile::TempDir) {
    let dir = tempfile::TempDir::new().unwrap();
    let layout = setup.layout;
    let open = |disable_columnar: bool| open_setup(dir.path(), setup, disable_columnar, "Look");
    let mut instance = open(matches!(layout, Layout::RowComponents | Layout::Mixed));
    instance
        .execute(
            "create type T32 as open { id: int32, v: int64 };
             create type T64 as open { id: int64, v: int64 };
             create type TS as open { id: string, v: int64 };
             create dataset K32(T32) primary key id;
             create dataset K64(T64) primary key id;
             create dataset KS(TS) primary key id;",
        )
        .unwrap();
    let stage = |instance: &Arc<Instance>,
                 ids: std::ops::Range<i64>,
                 rewritten: Option<i64>,
                 deleted: Option<i64>,
                 flush: bool| {
        for name in ["K32", "K64", "KS"] {
            let d = instance.dataset(name).unwrap();
            let key = |i| lookup_record(name, i, 0).field("id");
            for i in ids.clone() {
                d.insert(&lookup_record(name, i, i * 10)).unwrap();
            }
            if let Some(i) = rewritten {
                assert!(d.delete_by_pk(&[key(i)]).unwrap());
                d.insert(&lookup_record(name, i, 5000)).unwrap();
            }
            if let Some(i) = deleted {
                assert!(d.delete_by_pk(&[key(i)]).unwrap());
            }
            if flush && layout != Layout::Memory {
                d.flush_all().unwrap();
            }
        }
    };
    stage(&instance, 0..40, None, None, true);
    if layout == Layout::Mixed {
        drop(instance);
        instance = open(false);
    }
    stage(&instance, 40..80, Some(5), Some(8), true);
    stage(&instance, 80..100, Some(45), Some(48), false);
    (instance, dir)
}

/// A primary-key equality runs on the one partition that owns the key. It
/// must answer as the interpreter does (which still asks every partition)
/// and as `DatasetRuntime::get` does (which routes the same way), whatever
/// the key's type, the literal's width, the topology, the components the
/// record sits in, fused or not — and keep doing so after a `delete`.
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

    for layout in [Layout::Memory, Layout::RowComponents, Layout::Columnar, Layout::Mixed] {
        for topology in [(1, 1), (2, 2), (4, 3)] {
            for disable_fusion in [false, true] {
                let setup = IxSetup { layout, disable_fusion, topology };
                let (instance, _d) = lookup_instance(setup);
                let lookup = |dataset: &str, literal: &str, key: &Value| -> Vec<String> {
                    let q =
                        format!("for $d in dataset {dataset} where $d.id = {literal} return $d");
                    let got = canonical(instance.query(&q).unwrap());
                    assert_eq!(
                        got,
                        canonical(interpreted(&instance, "Look", &q)),
                        "{setup:?}: {q}"
                    );
                    let stored =
                        instance.dataset(dataset).unwrap().get(std::slice::from_ref(key)).unwrap();
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
                // plan, re-bound, serves every key.
                let (_, job) =
                    instance.explain("for $d in dataset K32 where $d.id = 17 return $d").unwrap();
                assert!(job.contains("btree-search Look.K32 (primary) [parts=1"), "{job}");
                assert!(!job.contains("replicating"), "{setup:?}: {job}");

                // `delete` finds its victim through the same pruned search.
                for (dataset, literal, key) in &probes[3..6] {
                    assert_eq!(lookup(dataset, literal, key).len(), 1, "{setup:?}");
                    let del = format!("delete $d from dataset {dataset} where $d.id = {literal};");
                    instance.execute(&del).unwrap();
                    assert_eq!(lookup(dataset, literal, key).len(), 0, "{setup:?}: {del}");
                }
                assert_eq!(lookup("K64", "17", &Value::Int64(17)).len(), 1, "{setup:?}");
            }
        }
    }
}

/// Access the instance's shared state (the provider constructor is public
/// for embedding scenarios like this one).
fn instance_shared(instance: &Instance) -> Arc<asterixdb::provider::Shared> {
    instance.shared_state()
}
