//! The compiled-plan cache end-to-end: cached and uncached executions —
//! the latter on an instance whose cache holds nothing — must be
//! bit-identical across the Table 3 query shapes; different literals of one query shape must share a single
//! cache entry; DDL must invalidate cached plans; and prepared statements
//! must bind fresh parameters on every execution, including under
//! concurrency.

use std::sync::Arc;

use asterix_adm::Value;
use asterixdb::{ClusterConfig, Instance, StatementResult};

/// A small two-dataset instance in the Table 3 shape: users with a
/// secondary range index, messages with an author index, 1:1 authorship;
/// its plan cache holds `plan_cache_capacity` entries.
fn tiny_instance(plan_cache_capacity: usize) -> (Arc<Instance>, asterix_testkit::TempDir) {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let mut cfg = ClusterConfig::small(dir.path().join("db"));
    cfg.nodes = 2;
    cfg.partitions_per_node = 2;
    cfg.plan_cache_capacity = plan_cache_capacity;
    let instance = Instance::open(cfg).unwrap();
    instance
        .execute(
            r#"
        create dataverse Cachet;
        use dataverse Cachet;
        create type UserType as open { id: int64 };
        create type MsgType as open { message-id: int64 };
        create dataset MugshotUsers(UserType) primary key id;
        create dataset MugshotMessages(MsgType) primary key message-id;
        create index msAuthorIdx on MugshotMessages(author-id) type btree;
        create index uSinceIdx on MugshotUsers(since) type btree;
    "#,
        )
        .unwrap();
    for i in 1..=30i64 {
        instance
            .execute(&format!(
                r#"insert into dataset MugshotUsers (
                    {{ "id": {i}, "name": "user{i}", "since": {since} }});"#,
                since = 2000 + i
            ))
            .unwrap();
        instance
            .execute(&format!(
                r#"insert into dataset MugshotMessages (
                    {{ "message-id": {i}, "author-id": {i}, "message": "msg{i}" }});"#
            ))
            .unwrap();
    }
    instance.dataset("MugshotUsers").unwrap().flush_all().unwrap();
    instance.dataset("MugshotMessages").unwrap().flush_all().unwrap();
    (instance, dir)
}

/// The Table 3 shapes: exact lookup, secondary range, indexed join,
/// group-by aggregation, order-by + limit.
const SHAPES: &[&str] = &[
    r#"for $u in dataset MugshotUsers where $u.id = 7 return $u.name"#,
    r#"for $u in dataset MugshotUsers
       where $u.since >= 2005 and $u.since <= 2015
       order by $u.id
       return { "id": $u.id, "since": $u.since }"#,
    r#"for $u in dataset MugshotUsers
       for $m in dataset MugshotMessages
       where $m.author-id /*+ indexnl */ = $u.id and $u.id <= 10
       order by $u.id
       return { "u": $u.id, "m": $m.message-id }"#,
    r#"for $m in dataset MugshotMessages
       group by $aid := $m.author-id with $m
       order by $aid
       return { "aid": $aid, "cnt": count($m) }"#,
    r#"for $u in dataset MugshotUsers order by $u.since desc limit 5 return $u.id"#,
];

/// Every shape returns bit-identical rows on the cold (miss) run, the hot
/// (hit) run, and on an instance whose cache holds nothing.
#[test]
fn cached_and_uncached_results_are_bit_identical() {
    let (cached, _d1) = tiny_instance(64);
    let (uncached, _d2) = tiny_instance(0);
    let uncached_misses0 = uncached.plan_cache().stats.misses.get();
    // Setup's repeated inserts also ride the cache (their value
    // expressions share one entry per shape); start counting from here.
    cached.plan_cache().clear();
    let (hits0, misses0) =
        (cached.plan_cache().stats.hits.get(), cached.plan_cache().stats.misses.get());
    for q in SHAPES {
        let cold = cached.query(q).unwrap();
        let hot = cached.query(q).unwrap();
        let off = uncached.query(q).unwrap();
        assert!(!cold.is_empty(), "shape returns rows: {q}");
        assert_eq!(cold, hot, "hot run differs from cold: {q}");
        assert_eq!(cold, off, "uncached run differs: {q}");
    }
    let stats = &cached.plan_cache().stats;
    assert_eq!(stats.misses.get() - misses0, SHAPES.len() as u64, "one miss per shape");
    assert_eq!(stats.hits.get() - hits0, SHAPES.len() as u64, "one hit per shape");
    assert_eq!(cached.plan_cache().len(), SHAPES.len());
    // The zero-capacity instance missed every time and stored nothing.
    let uncached_misses = uncached.plan_cache().stats.misses.get() - uncached_misses0;
    assert_eq!(uncached_misses, SHAPES.len() as u64);
    assert_eq!(uncached.plan_cache().stats.hits.get(), 0);
    assert!(uncached.plan_cache().is_empty());
}

/// Queries differing only in literal values share a single cache entry:
/// the second literal is a hit on the first literal's plan, with the new
/// constant bound into the parameter slots.
#[test]
fn different_literals_share_one_cache_entry() {
    let (instance, _dir) = tiny_instance(64);
    instance.plan_cache().clear();
    let hits0 = instance.plan_cache().stats.hits.get();
    let a = instance
        .query(
            r#"for $u in dataset MugshotUsers where $u.since < 2010 order by $u.id return $u.id"#,
        )
        .unwrap();
    assert_eq!(instance.plan_cache().len(), 1);
    assert_eq!(instance.plan_cache().stats.hits.get(), hits0);
    let b = instance
        .query(
            r#"for $u in dataset MugshotUsers where $u.since < 2020 order by $u.id return $u.id"#,
        )
        .unwrap();
    assert_eq!(instance.plan_cache().len(), 1, "same shape, one entry");
    assert_eq!(instance.plan_cache().stats.hits.get(), hits0 + 1);
    assert_eq!(a.len(), 9, "since 2001..=2009");
    assert_eq!(b.len(), 19, "since 2001..=2019 — new literal, new bounds");
}

/// A hot repeat collapses the compile side to a single sub-millisecond
/// `plan_cache` bind: no parse/translate/optimize/jobgen spans.
#[test]
fn hot_profile_shows_only_the_plan_cache_bind() {
    let (instance, _dir) = tiny_instance(64);
    let q = r#"for $u in dataset MugshotUsers where $u.id = 3 return $u.name"#;
    let cold = instance.profile(q).unwrap();
    let cold_names: Vec<&str> = cold.phases.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(cold_names, ["parse", "translate", "optimize", "jobgen", "plan_cache", "execute"]);
    let hot = instance.profile(q).unwrap();
    let hot_names: Vec<&str> = hot.phases.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(hot_names, ["parse", "plan_cache", "execute"], "hit skips compilation");
    assert_eq!(cold.rows, hot.rows);
    assert!(instance.plan_cache().stats.bind_us.count() >= 1, "bind time recorded");
}

/// DDL bumps the catalog epoch: a cached plan compiled before the DDL is
/// invalidated, so queries see the new catalog state (here, a dataset
/// dropped and recreated with different contents).
#[test]
fn ddl_invalidates_cached_plans() {
    let (instance, _dir) = tiny_instance(64);
    let q = r#"for $u in dataset MugshotUsers order by $u.id return $u.id"#;
    let hits0 = instance.plan_cache().stats.hits.get();
    assert_eq!(instance.query(q).unwrap().len(), 30);
    assert_eq!(instance.query(q).unwrap().len(), 30); // cached hit
    assert_eq!(instance.plan_cache().stats.hits.get(), hits0 + 1);
    instance
        .execute(
            r#"
        drop dataset MugshotUsers;
        create type SlimUser as open { id: int64 };
        create dataset MugshotUsers(SlimUser) primary key id;
        insert into dataset MugshotUsers ({ "id": 99 });
    "#,
        )
        .unwrap();
    let rows = instance.query(q).unwrap();
    assert_eq!(rows, vec![Value::Int64(99)], "post-DDL query sees the new dataset");
    assert!(
        instance.plan_cache().stats.invalidations.get() >= 1,
        "stale entry was invalidated, not served"
    );
}

/// `use dataverse` changes only its own session, and the plan key carries
/// the session's dataverse: one session's `use` leaves every other
/// session's cached plans valid.
#[test]
fn use_dataverse_in_one_session_keeps_the_others_plans() {
    let (instance, _dir) = tiny_instance(64);
    let (a, b) = (instance.new_session(), instance.new_session());
    let q = r#"for $u in dataset MugshotUsers where $u.id = 7 return $u.name"#;
    instance.execute_in(&a, "use dataverse Cachet;").unwrap();
    instance.execute_in(&a, q).unwrap();
    instance.execute_in(&a, q).unwrap();
    let stats = &instance.plan_cache().stats;
    let (hits, misses) = (stats.hits.get(), stats.misses.get());
    assert_eq!(stats.invalidations.get(), 0);
    instance.execute_in(&b, "use dataverse Cachet;").unwrap();
    let rows = instance.execute_in(&a, q).unwrap();
    assert!(matches!(&rows[..], [StatementResult::Rows(r)] if r.len() == 1), "{rows:?}");
    assert_eq!((stats.hits.get(), stats.misses.get()), (hits + 1, misses), "A's query still hits");
    assert_eq!(stats.invalidations.get(), 0, "no plan was invalidated");
}

/// A delete is the query `for $u in dataset DS where cond return [$u.id]`,
/// normalized and looked up like any other: deletes differing only in the
/// key literal share one entry, DDL invalidates it, and every delete
/// removes exactly what it removes on an instance whose cache holds
/// nothing.
#[test]
fn deletes_ride_the_plan_cache() {
    let (cached, _dir) = tiny_instance(64);
    let (uncached, _dir0) = tiny_instance(0);
    let stats = &cached.plan_cache().stats;
    let counts = || (stats.hits.get(), stats.misses.get(), stats.invalidations.get());
    cached.plan_cache().clear();
    let (h, m, i) = counts();
    // (statement, records deleted, (hits, misses, invalidations) after it)
    let steps = [
        ("delete $u from dataset MugshotUsers where $u.id = 3;", 1, (h, m + 1, i)),
        ("delete $u from dataset MugshotUsers where $u.id = 4;", 1, (h + 1, m + 1, i)),
        ("delete $u from dataset MugshotUsers where $u.id = 99;", 0, (h + 2, m + 1, i)),
        ("create index uNameIdx on MugshotUsers(name) type btree;", 0, (h + 2, m + 1, i)),
        ("delete $u from dataset MugshotUsers where $u.id = 5;", 1, (h + 2, m + 2, i + 1)),
        ("delete $u from dataset MugshotUsers where $u.since > 2020;", 10, (h + 2, m + 3, i + 1)),
    ];
    for (statement, n, after) in steps {
        for instance in [&*cached, &*uncached] {
            let want = if statement.starts_with("delete") {
                StatementResult::Count(n)
            } else {
                StatementResult::Ok
            };
            assert_eq!(instance.execute(statement).unwrap(), [want], "{statement}");
        }
        assert_eq!(counts(), after, "{statement}");
    }
    let survivors = |instance: &Instance| {
        instance.query("for $u in dataset MugshotUsers order by $u.id return $u").unwrap()
    };
    assert_eq!(survivors(&cached).len(), 30 - 3 - 10);
    assert_eq!(survivors(&cached), survivors(&uncached));
}

/// Prepared statements: `prepare` lifts the literals, `execute_prepared`
/// binds replacements per execution, and arity mismatches are rejected.
#[test]
fn prepared_queries_rebind_parameters() {
    let (instance, _dir) = tiny_instance(64);
    instance.plan_cache().clear();
    let hits0 = instance.plan_cache().stats.hits.get();
    let prepared = instance
        .prepare(r#"for $u in dataset MugshotUsers where $u.id = 7 return $u.name"#)
        .unwrap();
    assert_eq!(prepared.param_count(), 1);
    assert_eq!(prepared.default_params(), &[Value::Int64(7)]);

    let with_default = instance.execute_prepared(&prepared, prepared.default_params()).unwrap();
    assert_eq!(with_default, vec![Value::String("user7".into())]);
    let with_other = instance.execute_prepared(&prepared, &[Value::Int64(12)]).unwrap();
    assert_eq!(with_other, vec![Value::String("user12".into())]);

    // Both executions and the equivalent ad-hoc query share one entry.
    assert_eq!(instance.plan_cache().len(), 1);
    let adhoc = instance
        .query(r#"for $u in dataset MugshotUsers where $u.id = 12 return $u.name"#)
        .unwrap();
    assert_eq!(adhoc, with_other);
    assert_eq!(instance.plan_cache().len(), 1);
    assert_eq!(instance.plan_cache().stats.hits.get(), hits0 + 2);

    let err = instance.execute_prepared(&prepared, &[]).unwrap_err();
    assert!(err.to_string().contains("expects 1 parameters"), "{err}");

    // Prepared profiles have no parse phase; the hot path is just the bind.
    let p = instance.profile_prepared(&prepared, &[Value::Int64(3)]).unwrap();
    let names: Vec<&str> = p.phases.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["plan_cache", "execute"]);
    assert_eq!(p.rows, vec![Value::String("user3".into())]);
}

/// Prepared execution still works (recompiling each time) when the cache
/// holds nothing, with identical results.
#[test]
fn prepared_queries_work_with_cache_disabled() {
    let (instance, _dir) = tiny_instance(0);
    let prepared = instance
        .prepare(r#"for $u in dataset MugshotUsers where $u.id = 7 return $u.name"#)
        .unwrap();
    for id in [7i64, 21] {
        let rows = instance.execute_prepared(&prepared, &[Value::Int64(id)]).unwrap();
        assert_eq!(rows, vec![Value::String(format!("user{id}").into())]);
    }
    assert!(instance.plan_cache().is_empty());
}

/// Concurrent prepared executions hammer one cache entry under a two-slot
/// admission gate: every execution returns its own parameter's row.
#[test]
fn concurrent_prepared_executions_share_one_entry() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let mut cfg = ClusterConfig::small(dir.path().join("db"));
    cfg.max_concurrent_queries = 2;
    cfg.max_queued_queries = 256;
    let instance = Instance::open(cfg).unwrap();
    instance
        .execute(
            r#"
        create dataverse Cachet;
        use dataverse Cachet;
        create type UserType as open { id: int64 };
        create dataset MugshotUsers(UserType) primary key id;
    "#,
        )
        .unwrap();
    for i in 1..=16i64 {
        instance
            .execute(&format!(
                r#"insert into dataset MugshotUsers ({{ "id": {i}, "name": "user{i}" }});"#
            ))
            .unwrap();
    }
    instance.plan_cache().clear();
    let (hits0, misses0) =
        (instance.plan_cache().stats.hits.get(), instance.plan_cache().stats.misses.get());
    let prepared = Arc::new(
        instance
            .prepare(r#"for $u in dataset MugshotUsers where $u.id = 1 return $u.name"#)
            .unwrap(),
    );
    let threads: Vec<_> = (1..=8i64)
        .map(|t| {
            let instance = Arc::clone(&instance);
            let prepared = Arc::clone(&prepared);
            std::thread::spawn(move || {
                for round in 0..4 {
                    let id = ((t + round) % 16) + 1;
                    let rows = instance.execute_prepared(&prepared, &[Value::Int64(id)]).unwrap();
                    assert_eq!(rows, vec![Value::String(format!("user{id}").into())]);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(instance.plan_cache().len(), 1, "all executions share one entry");
    let stats = &instance.plan_cache().stats;
    let (hits, misses) = (stats.hits.get() - hits0, stats.misses.get() - misses0);
    assert_eq!(hits + misses, 32, "every execution consulted the cache");
    // With a 2-slot gate, only the executions admitted before the first
    // insert can miss.
    assert!(misses <= 2, "misses: {misses}");
}
