//! Query profiling end-to-end: `Instance::profile` on the paper's join
//! queries must return per-operator breakdowns that reconcile with result
//! cardinalities, lifecycle spans for every compilation phase, and a
//! metrics registry that carries the storage-layer counters.

use std::sync::Arc;

use asterix_obs::{Metric, MetricValue};
use asterixdb::{ClusterConfig, Instance};

/// Two datasets with a 1:1 author relationship (message i's author-id is
/// user i), plus the paper's `msAuthorIdx` secondary index — the shape of
/// the Table 3/4 indexed join workload.
fn join_instance(n: usize) -> (Arc<Instance>, asterix_testkit::TempDir) {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let mut cfg = ClusterConfig::small(dir.path().join("db"));
    cfg.nodes = 2;
    cfg.partitions_per_node = 2;
    let instance = Instance::open(cfg).unwrap();
    instance
        .execute(
            r#"
        create dataverse Prof;
        use dataverse Prof;
        create type UserType as open { id: int64 };
        create type MsgType as open { message-id: int64 };
        create dataset MugshotUsers(UserType) primary key id;
        create dataset MugshotMessages(MsgType) primary key message-id;
        create index msAuthorIdx on MugshotMessages(author-id) type btree;
    "#,
        )
        .unwrap();
    for i in 1..=n as i64 {
        instance
            .execute(&format!(
                r#"insert into dataset MugshotUsers ({{ "id": {i}, "name": "user{i}" }});"#
            ))
            .unwrap();
        instance
            .execute(&format!(
                r#"insert into dataset MugshotMessages (
                    {{ "message-id": {i}, "author-id": {i}, "message": "msg{i}" }});"#
            ))
            .unwrap();
    }
    // Flush so scans read disk components and LSM flush metrics populate.
    instance.dataset("MugshotUsers").unwrap().flush_all().unwrap();
    instance.dataset("MugshotMessages").unwrap().flush_all().unwrap();
    (instance, dir)
}

const N: usize = 20;

/// Query 14's `indexnl` join: the outer scan's output tuple count equals
/// the result cardinality (1:1 relationship), the index-NL join probes
/// once per outer tuple, and every lifecycle phase is recorded.
#[test]
fn profile_reconciles_index_nl_join_with_cardinalities() {
    let (instance, _dir) = join_instance(N);
    let profile = instance
        .profile(
            r#"for $u in dataset MugshotUsers
               for $m in dataset MugshotMessages
               where $m.author-id /*+ indexnl */ = $u.id
               return { "u": $u.id, "m": $m.message-id }"#,
        )
        .unwrap();
    assert_eq!(profile.rows.len(), N, "1:1 join returns one row per user");

    // The outer data-scan emitted every user; with the 1:1 relationship
    // that equals the result cardinality.
    let scan = profile
        .operators
        .operators
        .iter()
        .find(|o| o.name.starts_with("data-scan") && o.name.contains("MugshotUsers"))
        .expect("users data-scan in profile");
    assert_eq!(scan.tuples_out() as usize, N, "scan output = result cardinality");

    // The index-NL join consumed each outer tuple and emitted one match
    // per probe. Its name carries the dataset.index label from the plan.
    let join = profile
        .operators
        .operators
        .iter()
        .find(|o| o.name.contains("msAuthorIdx"))
        .expect("index-NL join named after its index");
    assert_eq!(join.tuples_in() as usize, N, "one probe per outer tuple");
    assert_eq!(join.tuples_out() as usize, N, "one match per probe");

    // Lifecycle spans: every phase present, in order, and the execute
    // phase (which ran the Hyracks job) took measurable time.
    let names: Vec<&str> = profile.phases.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["parse", "translate", "optimize", "jobgen", "plan_cache", "execute"]);
    let execute = profile.phase("execute").unwrap();
    assert!(execute.duration > std::time::Duration::ZERO);
    assert!(profile.operators.elapsed <= execute.duration);

    // The annotated job description carries runtime counts per operator.
    assert!(profile.job.contains("out="), "annotated explain: {}", profile.job);
    assert!(profile.describe().contains("execute"));
}

/// The unhinted equijoin compiles to a hybrid hash join whose build port
/// (0) saw the inner input and probe port (1) the outer input: between
/// inputs of one size the join builds on the right one, as written.
#[test]
fn profile_distinguishes_hash_join_build_and_probe_inputs() {
    let (instance, _dir) = join_instance(N);
    let profile = instance
        .profile(
            r#"for $u in dataset MugshotUsers
               for $m in dataset MugshotMessages
               where $m.author-id = $u.id
               return { "u": $u.id, "m": $m.message-id }"#,
        )
        .unwrap();
    assert_eq!(profile.rows.len(), N);

    let join = profile.operator("hybrid-hash-join").expect("hash join in profile");
    assert!(join.name.contains("equi [build=right ~20, probe ~20]"), "{}", join.name);
    assert_eq!(join.tuples_in_port(0) as usize, N, "build side = messages input");
    assert_eq!(join.tuples_in_port(1) as usize, N, "probe side = users input");
    assert_eq!(join.tuples_out() as usize, N);

    // Both scans fed the join in full (every user has a partner, so the
    // users scan drops none).
    for ds in ["MugshotUsers", "MugshotMessages"] {
        let scan = profile
            .operators
            .operators
            .iter()
            .find(|o| o.name.starts_with("data-scan") && o.name.contains(ds))
            .unwrap_or_else(|| panic!("{ds} data-scan in profile"));
        assert_eq!(scan.tuples_out() as usize, N, "{ds} scan output");
    }
}

/// Exchange byte counters are exact, not estimates: the `bytes_sent`
/// delta for a profiled query equals the frame occupancy summed over
/// every operator's metered output port — both counters are incremented
/// at the same frame hand-off with the same serialized byte count.
#[test]
fn exchange_bytes_equal_summed_frame_occupancy() {
    let (instance, _dir) = join_instance(N);
    let before = instance.exchange_stats().bytes_sent();
    let profile = instance
        .profile(
            r#"for $u in dataset MugshotUsers
               for $m in dataset MugshotMessages
               where $m.author-id = $u.id
               return { "u": $u.id, "m": $m.message-id }"#,
        )
        .unwrap();
    assert_eq!(profile.rows.len(), N);

    let sent = instance.exchange_stats().bytes_sent() - before;
    let metered: u64 = profile.operators.operators.iter().map(|o| o.bytes_out()).sum();
    assert!(sent > 0, "query moved bytes through the exchange");
    assert_eq!(sent, metered, "exchange bytes_sent must equal summed output-port frame occupancy");

    // Registry view agrees with the accessor.
    match instance.metrics().get("exchange.bytes_sent") {
        Some(Metric::Counter(c)) => {
            assert_eq!(c.get(), instance.exchange_stats().bytes_sent())
        }
        other => panic!("exchange.bytes_sent missing: {other:?}"),
    }
}

/// A LIMIT running inside a fused chain still stops the upstream early:
/// the query returns exactly the limited rows and the executor reports
/// fused pipelines for the job.
#[test]
fn fused_limit_stops_early_through_chain() {
    let (instance, _dir) = join_instance(N);
    let profile = instance
        .profile(
            r#"for $m in dataset MugshotMessages
               limit 3
               return $m.message-id"#,
        )
        .unwrap();
    assert_eq!(profile.rows.len(), 3, "limit 3 returns exactly 3 rows");
    assert!(
        instance.exchange_stats().pipelines_fused() > 0,
        "the limit ran inside a fused pipeline"
    );
    // The limit's downstream (emit/project/sink) saw exactly 3 tuples.
    let limit = profile.operator("limit").expect("limit operator in profile");
    assert_eq!(limit.tuples_out(), 3);
}

/// A join fixture with `extra` partner-less users beyond the `n` matched
/// pairs, under an arbitrary config tweak, flushed to disk components.
fn ab_instance(
    n: usize,
    extra: usize,
    tweak: impl FnOnce(&mut ClusterConfig),
) -> (Arc<Instance>, asterix_testkit::TempDir) {
    let (instance, dir) = unflushed_instance(n, extra, tweak);
    instance.dataset("MugshotUsers").unwrap().flush_all().unwrap();
    instance.dataset("MugshotMessages").unwrap().flush_all().unwrap();
    (instance, dir)
}

/// [`ab_instance`]'s records, never flushed: every read sees memory rows
/// only — the reference a flushed instance must answer like.
fn unflushed_instance(
    n: usize,
    extra: usize,
    tweak: impl FnOnce(&mut ClusterConfig),
) -> (Arc<Instance>, asterix_testkit::TempDir) {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let mut cfg = ClusterConfig::small(dir.path().join("db"));
    cfg.nodes = 2;
    cfg.partitions_per_node = 2;
    tweak(&mut cfg);
    let instance = Instance::open(cfg).unwrap();
    instance
        .execute(
            r#"
        create dataverse Prof;
        use dataverse Prof;
        create type UserType as open { id: int64 };
        create type MsgType as open { message-id: int64 };
        create dataset MugshotUsers(UserType) primary key id;
        create dataset MugshotMessages(MsgType) primary key message-id;
    "#,
        )
        .unwrap();
    for i in 1..=(n + extra) as i64 {
        instance
            .execute(&format!(
                r#"insert into dataset MugshotUsers ({{ "id": {i}, "name": "user{i}" }});"#
            ))
            .unwrap();
        if i <= n as i64 {
            instance
                .execute(&format!(
                    r#"insert into dataset MugshotMessages (
                        {{ "message-id": {i}, "author-id": {i}, "message": "msg{i}" }});"#
                ))
                .unwrap();
        }
    }
    (instance, dir)
}

fn sorted_rows(rows: &[asterix_adm::Value]) -> Vec<asterix_adm::Value> {
    let mut v = rows.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Runtime join filters prune partner-less probe tuples before the
/// exchange without changing results, and the profiled tuple counts
/// reconcile exactly: what the probe scan dropped on its key column plus
/// the consult operator's in/out delta equals the `filters.pruned_tuples`
/// metric delta, and what the consult let through is what the join's
/// probe port received.
#[test]
fn runtime_filters_prune_probe_tuples_and_reconcile_counts() {
    let query = r#"for $u in dataset MugshotUsers
                   for $m in dataset MugshotMessages
                   where $m.author-id = $u.id
                   return { "u": $u.id, "m": $m.message-id }"#;
    // N matched users + N partner-less ones: the probe side scans 2N
    // tuples, only N can ever join.
    let (on, _d1) = ab_instance(N, N, |_| {});
    let (off, _d2) = ab_instance(N, N, |_| {});
    off.optimizer_options.write().enable_runtime_filters = false;

    let on_profile = on.profile(query).unwrap();
    let off_profile = off.profile(query).unwrap();
    assert_eq!(on_profile.rows.len(), N);
    assert_eq!(
        sorted_rows(&on_profile.rows),
        sorted_rows(&off_profile.rows),
        "runtime filters must not change results"
    );

    // With filters disabled nothing is published, checked, or pruned —
    // and the compiler doesn't even insert the consult operator.
    assert_eq!(off.filter_stats().published.get(), 0);
    assert_eq!(off.filter_stats().pruned_tuples.get(), 0);
    assert!(off_profile.operators.find("runtime-filter-probe").is_none());

    // Filters-on: each build partition published at end-of-build. Pruning
    // itself is best-effort (the probe may outrun publication), but the
    // counts must reconcile exactly: scan out + dropped in the scan = rows
    // scanned, and dropped in the scan + consult in − consult out = pruned
    // tuples. (The users scan carries the partner test and nothing else,
    // and this is the instance's only query: the rows its columnar
    // components filtered are the rows that test dropped.)
    assert_eq!(on.filter_stats().published.get(), on.config().partitions() as u64);
    let consult =
        on_profile.operators.find("runtime-filter-probe").expect("consult operator in profile");
    let scan = on_profile
        .operators
        .operators
        .iter()
        .find(|o| o.name.starts_with("data-scan") && o.name.contains("MugshotUsers"))
        .expect("users data-scan in profile");
    let join = on_profile.operator("hybrid-hash-join").expect("hash join in profile");
    assert!(scan.name.ends_with("[cols: id] [filter: id in join #0]"), "{}", scan.name);
    assert!(join.name.contains("equi [build=right ~20, probe ~40]"), "{}", join.name);
    let scan_pruned = on.columnar_stats().rows_filtered.get();
    assert_eq!(
        scan.tuples_out() + scan_pruned,
        2 * N as u64,
        "probe scan reads matched + partner-less users"
    );
    let pruned = on.filter_stats().pruned_tuples.get();
    assert_eq!(
        scan_pruned + consult.tuples_in() - consult.tuples_out(),
        pruned,
        "scan drops + consult drops = pruned"
    );
    assert_eq!(join.tuples_in_port(1), consult.tuples_out(), "join probe port = consult out");
    assert_eq!(join.tuples_out(), N as u64);

    // The registry carries the same counters under `filters.*`.
    match on.metrics().get("filters.pruned_tuples") {
        Some(Metric::Counter(c)) => assert_eq!(c.get(), pruned),
        other => panic!("filters.pruned_tuples missing: {other:?}"),
    }
}

/// The instance registry aggregates every layer: exchange counters moved
/// out of `ExchangeStats`, per-shard cache counters, WAL appends, and the
/// LSM flush metrics recorded by `flush_all` — with the component gauges
/// matching the on-disk component counts.
#[test]
fn registry_carries_storage_and_exchange_metrics() {
    let (instance, _dir) = join_instance(N);
    instance.query("for $u in dataset MugshotUsers return $u").unwrap();

    let reg = instance.metrics();
    let snapshot = reg.snapshot();
    let counter_sum = |pred: &dyn Fn(&str) -> bool| -> u64 {
        snapshot
            .iter()
            .filter(|(name, _)| pred(name))
            .map(|(_, v)| match v {
                MetricValue::Counter(n) => *n,
                _ => 0,
            })
            .sum()
    };

    // Exchange counters live in the registry and agree with the legacy
    // accessors (which are now views over the same handles).
    match reg.get("exchange.tuples_sent") {
        Some(Metric::Counter(c)) => {
            assert_eq!(c.get(), instance.exchange_stats().tuples_sent());
            assert!(c.get() >= N as u64, "scan moved at least N tuples");
        }
        other => panic!("exchange.tuples_sent missing: {other:?}"),
    }

    // Per-shard cache counters sum to the aggregate hit/miss stats.
    let (hits, misses, _) = instance.cache_stats();
    let shard_sum: u64 = instance.per_shard_cache_stats().iter().map(|(h, m, _)| h + m).sum();
    assert_eq!(shard_sum, hits + misses);
    assert_eq!(counter_sum(&|n: &str| n.starts_with("cache.shard") && n.ends_with(".hits")), hits);

    // WAL appends were counted for the inserts.
    assert!(
        counter_sum(&|n: &str| n.starts_with("wal.node") && n.ends_with(".appends")) > 0,
        "inserts appended WAL records"
    );

    // Flushes were recorded and the component gauges match the trees.
    let flushes =
        counter_sum(&|n: &str| n.starts_with("lsm.Prof.MugshotUsers.") && n.ends_with(".flushes"));
    assert!(flushes >= 1, "flush_all recorded flush events");
    let users = instance.dataset("MugshotUsers").unwrap();
    let disk_total: i64 = users.primary.iter().map(|t| t.lsm().disk_component_count() as i64).sum();
    let gauge_total: i64 = snapshot
        .iter()
        .filter(|(name, _)| {
            name.starts_with("lsm.Prof.MugshotUsers.")
                && name.ends_with(".components")
                && !name.contains("msAuthorIdx")
        })
        .map(|(_, v)| match v {
            MetricValue::Gauge { value, .. } => *value,
            _ => 0,
        })
        .sum();
    assert_eq!(gauge_total, disk_total, "component gauges track disk components");

    // The schema-versioned JSON document wraps the same registry.
    let json = instance.metrics_json();
    assert!(json.starts_with("{\"schema_version\":1,\"metrics\":{"), "{json}");
    assert!(json.contains("\"exchange.frames_sent\""));
}

/// The Table 3 shapes as compiled on 2 nodes × 1 partition, counted in
/// threads: a job of N pipelines spawns N − 1. A sort, group-by or
/// aggregate behind a 1:1 edge rides its producer's pipeline, so Figure 6's
/// `secondary search →1:1→ sort $pk →1:1→ primary fetch` is one pipeline
/// per partition; a hash join's two inputs still arrive over exchanges.
#[test]
fn table3_shapes_spawn_one_thread_per_pipeline_but_the_callers() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let mut cfg = ClusterConfig::small(dir.path().join("db"));
    cfg.nodes = 2;
    cfg.partitions_per_node = 1;
    let instance = Instance::open(cfg).unwrap();
    instance
        .execute(
            r#"
        create dataverse T3;
        use dataverse T3;
        create type UserType as open { id: int64, user-since: datetime };
        create type MsgType as open { message-id: int64, author-id: int64, timestamp: datetime };
        create dataset MugshotUsers(UserType) primary key id;
        create dataset MugshotMessages(MsgType) primary key message-id;
        create index msUserSinceIdx on MugshotUsers(user-since);
        create index msTimestampIdx on MugshotMessages(timestamp);
        create index msAuthorIdx on MugshotMessages(author-id) type btree;
    "#,
        )
        .unwrap();
    let day = |d: i64| format!("datetime(\"2010-01-{:02}T00:00:00\")", d % 28 + 1);
    for i in 0..40i64 {
        instance
            .execute(&format!(
                r#"use dataverse T3; insert into dataset MugshotUsers (
                    {{ "id": {i}, "name": "u{i}", "user-since": {} }});"#,
                day(i)
            ))
            .unwrap();
    }
    for i in 0..200i64 {
        instance
            .execute(&format!(
                r#"use dataverse T3; insert into dataset MugshotMessages (
                    {{ "message-id": {i}, "author-id": {}, "timestamp": {}, "message": "m{i}" }});"#,
                i % 40,
                day(i * 7)
            ))
            .unwrap();
    }
    let (lo, hi) = (day(4), day(20));
    let join = |hint: &str, two: bool| {
        let also = if two {
            format!(" and $m.timestamp >= {lo} and $m.timestamp < {hi}")
        } else {
            String::new()
        };
        format!(
            "for $u in dataset MugshotUsers for $m in dataset MugshotMessages \
             where $m.author-id {hint}= $u.id and $u.user-since >= {lo} and $u.user-since <= {hi}{also} \
             return {{ \"uname\": $u.name, \"message\": $m.message }}"
        )
    };
    let range = format!(
        "for $m in dataset MugshotMessages where $m.timestamp >= {lo} and $m.timestamp < {hi} return $m"
    );
    let agg = format!(
        "avg( for $m in dataset MugshotMessages where $m.timestamp >= {lo} and $m.timestamp < {hi} \
         return string-length($m.message) )"
    );
    let grpagg = format!(
        "for $m in dataset MugshotMessages where $m.timestamp >= {lo} and $m.timestamp < {hi} \
         group by $aid := $m.author-id with $m let $cnt := count($m) \
         order by $cnt desc limit 10 return {{ \"author\": $aid, \"cnt\": $cnt }}"
    );
    // (shape, query, threads spawned through the indexes, and without).
    let shapes = [
        ("range", range.clone(), range, 2, 2),
        ("seljoin", join("/*+ indexnl */ ", false), join("", false), 2, 6),
        ("sel2join", join("/*+ indexnl */ ", true), join("", true), 2, 6),
        ("agg", agg.clone(), agg, 2, 2),
        ("grpagg", grpagg.clone(), grpagg, 4, 4),
    ];
    let spawned = || instance.exchange_stats().threads_spawned();
    let use_t3 = |aql: &str| format!("use dataverse T3; {aql}");
    let mut got = Vec::new();
    let mut want = Vec::new();
    for indexes in [true, false] {
        instance.optimizer_options.write().enable_index_access = indexes;
        for (name, ix, scan, via_ix, via_scan) in &shapes {
            let aql = use_t3(if indexes { ix } else { scan });
            let before = spawned();
            let rows = instance.query(&aql).unwrap();
            assert!(!rows.is_empty(), "{name} (indexes: {indexes}) selects nothing");
            got.push((*name, indexes, spawned() - before));
            want.push((*name, indexes, if indexes { *via_ix } else { *via_scan }));
        }
    }
    assert_eq!(got, want);
}

/// `explain`, `profile` and `query_with`, like `query`, run the statements
/// before their query first: a leading `use dataverse` resolves the
/// query's dataset from a session that starts in `Metadata`.
#[test]
fn explain_and_profile_run_the_statements_before_their_query() {
    let (instance, _dir) = join_instance(N);
    let aql = "use dataverse Prof; for $u in dataset MugshotUsers where $u.id < 3 return $u.id;";
    let from_metadata = || instance.execute("use dataverse Metadata;").unwrap();
    let want = [asterix_adm::Value::Int64(1), asterix_adm::Value::Int64(2)];

    from_metadata();
    assert_eq!(sorted_rows(&instance.query(aql).unwrap()), want);
    from_metadata();
    let (plan, job) = instance.explain(aql).unwrap();
    assert!(plan.contains("Prof.MugshotUsers") && job.contains("Prof.MugshotUsers"), "{job}");
    from_metadata();
    assert_eq!(sorted_rows(&instance.profile(aql).unwrap().rows), want);
    from_metadata();
    let rows = instance.query_with(aql, &asterixdb::QueryOpts::default()).unwrap();
    assert_eq!(sorted_rows(&rows), want);
}

/// "Zero threads for a point query" as a count: a primary-key equality is
/// pruned to the partition that owns the key, so the lookup — like the
/// constant query of an `insert` and the key search of a `delete` — is one
/// pipeline, which the calling thread runs itself. Only jobs of several
/// pipelines spawn, and they spawn one fewer than they have.
#[test]
fn point_queries_spawn_no_threads() {
    let (instance, _dir) = join_instance(N);
    instance
        .execute(
            r#"use dataverse Prof;
               create type PairType as open { a: int64, b: int64 };
               create dataset Pairs(PairType) primary key a, b;
               insert into dataset Pairs ({ "a": 1, "b": 2, "c": "x" });"#,
        )
        .unwrap();
    let spawned = || instance.exchange_stats().threads_spawned();
    let frames = || instance.exchange_stats().frames_sent();

    let before = (spawned(), frames());
    let lookup =
        instance.prepare("for $u in dataset MugshotUsers where $u.id = 7 return $u").unwrap();
    for k in 1..=100i64 {
        let rows = instance.execute_prepared(&lookup, &[asterix_adm::Value::Int64(k)]).unwrap();
        let ids: Vec<i64> = rows.iter().map(|r| r.field("id").as_i64().unwrap()).collect();
        assert_eq!(ids, if k <= N as i64 { vec![k] } else { vec![] }, "lookup of {k}");
    }
    for i in 0..10 {
        let id = 1000 + i;
        instance
            .execute(&format!(
                r#"insert into dataset MugshotUsers ({{ "id": {id}, "name": "new" }});"#
            ))
            .unwrap();
    }
    instance.execute("delete $u from dataset MugshotUsers where $u.id = 1003;").unwrap();
    assert_eq!(
        instance.query("for $u in dataset MugshotUsers where $u.id = 1003 return $u").unwrap(),
        vec![]
    );
    assert_eq!(
        (spawned(), frames()),
        before,
        "112 one-pipeline jobs started no thread and crossed no channel"
    );

    // A full scan on 4 partitions is 4 fused scan pipelines and the sink:
    // four threads, the sink on the caller.
    let rows = instance.query("for $u in dataset MugshotUsers return $u.id").unwrap();
    assert_eq!(rows.len(), N + 9);
    assert_eq!(spawned() - before.0, 4);
    match instance.metrics().get("exchange.threads_spawned") {
        Some(Metric::Counter(c)) => assert_eq!(c.get(), spawned()),
        other => panic!("exchange.threads_spawned missing: {other:?}"),
    }
    assert!(instance.metrics_json().contains("\"exchange.threads_spawned\""));

    // The plans say the same: the equality searches one partition and
    // gathers nothing; a key range, and an equality on the first field of
    // a composite key (hashed on both), search all four.
    let job_of = |aql: &str| instance.explain(aql).unwrap().1;
    let job = job_of("for $u in dataset MugshotUsers where $u.id = 7 return $u");
    let search = "btree-search Prof.MugshotUsers (primary) [cols: *] [filter: id=?] [parts=1";
    assert!(job.contains(search), "{job}");
    assert!(!job.contains("replicating") && !job.contains("parts=4"), "{job}");
    let job = job_of("for $u in dataset MugshotUsers where $u.id >= 7 and $u.id <= 8 return $u");
    let search =
        "btree-search Prof.MugshotUsers (primary) [cols: *] [filter: id>=?, id<=?] [parts=4";
    assert!(job.contains(search), "{job}");
    let pair = "for $p in dataset Pairs where $p.a = 1 return $p.c";
    let job = job_of(pair);
    assert!(
        job.contains("btree-search Prof.Pairs (primary) [cols: a,c] [filter: a=?] [parts=4"),
        "{job}"
    );
    assert_eq!(instance.query(pair).unwrap(), vec![asterix_adm::Value::string("x")]);
}

/// The profiled Table-3 join yields a span tree rooted at the query's
/// trace ID: compile phases and `execute` under the root, per-partition
/// pipeline spans under `execute`, and an `op:` span for every operator
/// that moved tuples — reconciled against the port meters.
#[test]
fn trace_spans_reconcile_with_operator_meters() {
    let (instance, _dir) = join_instance(N);
    let profile = instance
        .profile(
            r#"for $u in dataset MugshotUsers
               for $m in dataset MugshotMessages
               where $m.author-id = $u.id
               return { "u": $u.id, "m": $m.message-id }"#,
        )
        .unwrap();
    assert_eq!(profile.rows.len(), N);
    assert!(profile.trace_id > 0, "profiled query runs under a trace");
    assert!(!profile.trace.is_empty());

    // Root `query` span; queue wait and every compile phase directly under
    // it.
    let root = profile.trace_root().expect("root span");
    assert_eq!(root.name, "query");
    assert_eq!(root.parent_id, 0);
    let top: Vec<&str> =
        profile.trace_children(root.span_id).iter().map(|e| e.name.as_str()).collect();
    for phase in
        ["rm.queue_wait", "parse", "translate", "optimize", "jobgen", "plan_cache", "execute"]
    {
        assert!(top.contains(&phase), "{phase} missing under root: {top:?}");
    }

    // The execute subtree: one pipeline span per (chain, partition), each
    // labelled with its partition, with `op:` spans nested beneath.
    let execute =
        profile.trace.iter().find(|e| e.name == "execute").expect("execute span in trace");
    let threads = profile.trace_children(execute.span_id);
    assert!(!threads.is_empty(), "pipeline spans under execute");
    for t in &threads {
        assert!(t.label.starts_with('p'), "partition label on {t:?}");
        assert!(
            t.end_us() <= execute.end_us() + 1_000,
            "pipeline span inside execute: {t:?} vs {execute:?}"
        );
        for op in profile.trace_children(t.span_id) {
            assert!(op.name.starts_with("op:"), "pipeline children are operator spans: {op:?}");
            assert!(
                op.duration_us <= t.duration_us + 1_000,
                "operator span within its pipeline's busy time: {op:?} vs {t:?}"
            );
        }
    }

    // Every operator that moved tuples has at least one operator span, and
    // every operator span sits under a pipeline span of the execute
    // subtree.
    let thread_ids: Vec<u64> = threads.iter().map(|t| t.span_id).collect();
    for o in &profile.operators.operators {
        if o.tuples_in() + o.tuples_out() == 0 {
            continue;
        }
        let spans: Vec<_> =
            profile.trace.iter().filter(|e| e.name == format!("op:{}", o.name)).collect();
        assert!(!spans.is_empty(), "no trace span for metered operator {}", o.name);
        for s in &spans {
            assert!(thread_ids.contains(&s.parent_id), "operator span outside execute: {s:?}");
        }
    }
}

/// Under admission contention the queue wait is visible in the trace: with
/// one slot held, a profiled query's `rm.queue_wait` span covers the time
/// until the slot frees.
#[test]
fn queue_wait_span_appears_under_admission_contention() {
    let (instance, _dir) = ab_instance(5, 0, |cfg| cfg.max_concurrent_queries = 1);
    let hog = instance.resource_manager().begin("hog", None).unwrap();
    let release = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(60));
        drop(hog);
    });
    let profile = instance.profile("for $u in dataset MugshotUsers return $u.id").unwrap();
    release.join().unwrap();
    let root = profile.trace_root().expect("root span");
    let wait = profile
        .trace_children(root.span_id)
        .into_iter()
        .find(|e| e.name == "rm.queue_wait")
        .expect("queue-wait span under root");
    assert!(
        wait.duration_us >= 40_000,
        "queue wait must cover the held slot: {}us",
        wait.duration_us
    );
}

/// `to_chrome_trace` emits valid Chrome trace-event JSON: a `traceEvents`
/// array of complete (`ph:"X"`) events carrying the trace ID as `pid`,
/// plus `thread_name` metadata naming each partition lane.
#[test]
fn chrome_trace_export_is_valid_and_complete() {
    let (instance, _dir) = join_instance(N);
    let profile = instance
        .profile(
            r#"for $u in dataset MugshotUsers
               for $m in dataset MugshotMessages
               where $m.author-id = $u.id
               return { "u": $u.id, "m": $m.message-id }"#,
        )
        .unwrap();
    let doc = asterix_obs::json_parse(&profile.to_chrome_trace()).expect("valid JSON");
    let events = doc.get("traceEvents").and_then(|v| v.as_arr()).expect("traceEvents array");
    assert_eq!(
        events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).count(),
        profile.trace.len(),
        "one complete event per trace span"
    );
    for e in events {
        assert!(e.get("name").and_then(|v| v.as_str()).is_some(), "name in {e:?}");
        assert_eq!(e.get("pid").and_then(|v| v.as_f64()), Some(profile.trace_id as f64));
        match e.get("ph").and_then(|p| p.as_str()) {
            Some("X") => {
                assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
                assert!(e.get("dur").and_then(|v| v.as_f64()).is_some());
                assert!(e.get("args").and_then(|a| a.get("span_id")).is_some());
            }
            Some("M") => {
                assert_eq!(e.get("name").and_then(|v| v.as_str()), Some("thread_name"));
            }
            other => panic!("unexpected phase {other:?} in {e:?}"),
        }
    }
    // The main thread and at least one partition lane are named.
    let lanes: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(|v| v.as_str()))
        .collect();
    assert!(lanes.contains(&"cc"), "main-thread lane named: {lanes:?}");
    assert!(lanes.iter().any(|l| l.starts_with('p')), "partition lane named: {lanes:?}");
}

/// `Metadata.ActiveJobs` is queryable with ordinary AQL while a query
/// runs, and shows the running query with live tuple progress.
#[test]
fn active_jobs_dataset_shows_running_query_live() {
    let (instance, _dir) = join_instance(N);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let worker = {
        let instance = Arc::clone(&instance);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Keep a profiled query in flight (description "profile", so
            // the poller can tell it apart from its own "query" jobs).
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                instance
                    .profile(
                        r#"for $u in dataset MugshotUsers
                           for $m in dataset MugshotMessages
                           where $m.author-id = $u.id
                           return { "u": $u.id, "m": $m.message-id }"#,
                    )
                    .unwrap();
            }
        })
    };
    let mut seen = None;
    for _ in 0..500 {
        let rows = instance
            .query(
                r#"for $j in dataset Metadata.ActiveJobs
                   where $j.Description = "profile" and $j.State = "running"
                   return $j"#,
            )
            .unwrap();
        if let Some(job) = rows.iter().find(|j| j.field("Tuples").as_i64().unwrap_or(0) > 0) {
            seen = Some(job.clone());
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    worker.join().unwrap();
    let job = seen.expect("observed the profiled query running with live tuple progress");
    assert!(job.field("JobId").as_i64().unwrap() > 0);
    assert!(job.field("TraceId").as_i64().unwrap() > 0, "profiled job carries its trace ID");
    assert!(job.field("MemGrantedBytes").as_i64().unwrap() > 0);
}

/// The live views, the one-call snapshot, the Prometheus exposition, and
/// the continuous sampler all read the same registry.
#[test]
fn system_views_snapshot_and_sampler_agree() {
    let (instance, _dir) = ab_instance(N, 0, |cfg| {
        cfg.metrics_sample_interval = Some(std::time::Duration::from_millis(20));
    });
    instance.query("for $u in dataset MugshotUsers return $u.id").unwrap();

    // Metadata.Metrics: ordinary AQL over the registry.
    let rows = instance
        .query(
            r#"for $m in dataset Metadata.Metrics
               where $m.Name = "exchange.tuples_sent"
               return $m"#,
        )
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].field("Kind").as_str(), Some("counter"));
    assert!(rows[0].field("Value").as_i64().unwrap() > 0);

    // system_snapshot: same registry, one call, valid JSON.
    let snap = instance.system_snapshot();
    assert!(snap.metrics.iter().any(|(n, _)| n == "exchange.tuples_sent"));
    let doc = asterix_obs::json_parse(&snap.to_json()).expect("snapshot JSON parses");
    assert!(doc.get("ts_us").is_some() && doc.get("jobs").is_some());
    assert!(doc.get("metrics").and_then(|m| m.get("exchange.tuples_sent")).is_some());

    // Prometheus text exposition.
    let prom = instance.metrics_prometheus();
    assert!(prom.contains("# TYPE exchange_tuples_sent counter"), "{prom}");

    // The sampler accumulates per-interval deltas; the queries above moved
    // counters, so a frame must land within a few intervals.
    let mut frames = asterix_obs::json_parse(&instance.metrics_timeseries_json()).unwrap();
    for _ in 0..100 {
        if frames.as_arr().is_some_and(|a| !a.is_empty()) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        instance.query("for $u in dataset MugshotUsers return $u.id").unwrap();
        frames = asterix_obs::json_parse(&instance.metrics_timeseries_json()).unwrap();
    }
    let frames = frames.as_arr().expect("timeseries is a JSON array");
    assert!(!frames.is_empty(), "sampler recorded registry deltas");
    assert!(frames[0].get("ts_us").is_some() && frames[0].get("values").is_some());
}

/// Columnar components are a storage-layout change only: every Table-3
/// query shape — projecting scans, pushed-down constant filters,
/// equijoins, aggregation, and full-record scans (which read columnar
/// components through whole-row reconstruction) — returns bit-identical
/// rows to an instance that never flushed, while the columnar instance
/// actually projects columns and skips bytes.
#[test]
fn columnar_preserves_results_and_projects_columns() {
    let queries = [
        // Projecting scan: only two fields of the record are touched.
        r#"for $u in dataset MugshotUsers
           return { "u": $u.id, "name": $u.name }"#,
        // Pushed-down constant filter decided on raw column bytes.
        r#"for $u in dataset MugshotUsers
           where $u.id <= 10
           return { "u": $u.id, "name": $u.name }"#,
        // Equijoin: both scans project.
        r#"for $u in dataset MugshotUsers
           for $m in dataset MugshotMessages
           where $m.author-id = $u.id
           return { "u": $u.id, "m": $m.message-id }"#,
        // Aggregation over a selected projecting scan.
        r#"avg(
            for $m in dataset MugshotMessages
            where $m.message-id > 5
            return $m.message-id
        )"#,
        // Full-record scan: the variable escapes, so the projection is
        // "all fields" — the columnar component splices whole rows.
        r#"for $u in dataset MugshotUsers return $u"#,
        // ... and still takes the pushed filters.
        r#"for $m in dataset MugshotMessages
           where $m.author-id >= 3 and $m.author-id < 9 return $m"#,
    ];
    let (on, _d1) = ab_instance(N, N, |_| {});
    let (reference, _d2) = unflushed_instance(N, N, |_| {});

    // Flushes wrote columnar components.
    assert!(on.columnar_stats().components.get() > 0, "flushes must build columnar components");

    for q in queries {
        assert_eq!(
            sorted_rows(&on.query(q).unwrap()),
            sorted_rows(&reference.query(q).unwrap()),
            "columnar rows must equal the never-flushed instance's: {q}"
        );
    }

    // The projecting queries read only the requested columns.
    assert!(on.columnar_stats().columns_projected.get() > 0, "scans must project columns");
    assert!(on.columnar_stats().bytes_skipped.get() > 0, "projection must skip column bytes");

    // The scan label advertises the projection (and the registry carries
    // the counters under stable names).
    let profile = on
        .profile(r#"for $u in dataset MugshotUsers return { "u": $u.id, "name": $u.name }"#)
        .unwrap();
    let scan = profile
        .operators
        .operators
        .iter()
        .find(|o| o.name.starts_with("data-scan"))
        .expect("data-scan in profile");
    assert!(scan.name.contains("[cols: id,name]"), "projecting scan label: {}", scan.name);
    for name in ["columns_projected", "rows_filtered", "rows_assembled"] {
        match on.metrics().get(&format!("storage.columnar.{name}")) {
            Some(Metric::Counter(c)) => assert!(c.get() > 0, "{name}"),
            other => panic!("storage.columnar.{name} missing: {other:?}"),
        }
    }
    // An escaping variable scans all fields; every ordkey-decidable
    // conjunct of the select above it rides along.
    let escaping = r#"for $m in dataset MugshotMessages
                      where $m.author-id >= 3 and $m.author-id < 9 return $m"#;
    let (_, job) = on.explain(escaping).unwrap();
    assert!(job.contains("MugshotMessages [cols: *] [filter: author-id>=?, author-id<?]"), "{job}");
}

/// Secondary-index plans fetch through the projected key-list read: the
/// primary fetch and the index-NL join advertise the projection and the
/// pushed filters they were given, answers are those of an instance that
/// never flushed, the join's port counts still reconcile with the result,
/// and the registry carries the batching counters.
#[test]
fn index_fetch_labels_counters_and_port_counts() {
    let (on, _d1) = ab_instance(N, N, |_| {});
    let (reference, _d2) = unflushed_instance(N, N, |_| {});
    for instance in [&on, &reference] {
        instance
            .execute(
                "use dataverse Prof;
                 create index msAuthorIdx on MugshotMessages(author-id) type btree;",
            )
            .unwrap();
    }
    let range = r#"for $m in dataset MugshotMessages
                   where $m.author-id >= 3 and $m.author-id < 9 return $m.message"#;
    // The select on the inner side moves above the join and its conjunct
    // rides into the join's fetch.
    let join = r#"for $u in dataset MugshotUsers
                  for $m in dataset MugshotMessages
                  where $m.author-id /*+ indexnl */ = $u.id and $m.message-id < 15
                  return { "u": $u.id, "m": $m.message }"#;
    for q in [range, join] {
        let want = sorted_rows(&reference.query(q).unwrap());
        assert_eq!(sorted_rows(&on.query(q).unwrap()), want, "{q}");
    }

    let op = |profile: &asterixdb::QueryProfile, name: &str| {
        let found = profile.operators.operators.iter().find(|o| o.name.starts_with(name));
        found.unwrap_or_else(|| panic!("no {name} in {}", profile.job)).clone()
    };
    let primary = "btree-search Prof.MugshotMessages (primary)";
    let fetch = op(&on.profile(range).unwrap(), primary);
    assert_eq!(
        fetch.name,
        format!("{primary} [cols: author-id,message] [filter: author-id>=?, author-id<?]")
    );
    assert_eq!((fetch.tuples_in(), fetch.tuples_out()), (6, 6), "six keys in, six records out");

    // Index-NL join: one probe per outer tuple; with the filter pushed
    // into its fetch it emits the result's rows.
    let nl = "index-nested-loop-join Prof.MugshotMessages.msAuthorIdx";
    let profile = on.profile(join).unwrap();
    assert_eq!(profile.rows.len(), 14);
    let j = op(&profile, nl);
    assert_eq!(j.name, format!("{nl} [cols: message,message-id] [filter: message-id<?]"));
    assert_eq!(j.tuples_in() as usize, 2 * N, "one probe per user");
    assert_eq!(j.tuples_out() as usize, profile.rows.len());

    for name in ["fetch_keys", "fetch_groups"] {
        match on.metrics().get(&format!("storage.columnar.{name}")) {
            Some(Metric::Counter(c)) => assert!(c.get() > 0, "{name}"),
            other => panic!("storage.columnar.{name} missing: {other:?}"),
        }
    }
    let stats = on.columnar_stats();
    assert!(stats.fetch_keys.get() >= stats.fetch_groups.get());
}

/// The one production route to a row-major primary component: a flush
/// whose rows do not shred falls back to the row layout. Seven open int
/// fields; on each partition the `j`-th of its 48 records carries a string
/// in field `j % 12` — each field keeps a dominant int tag (a twelfth of
/// its rows differ), but the 7 of every 12 rows carrying a string spill,
/// more than the columnar build tolerates. A second flush of clean rows comes
/// out columnar, so every partition's tree mixes both layouts — and every
/// read (projected, filtered, whole-record, counted, by key equality, by
/// key range, through a secondary index) answers as an instance that never
/// flushed does.
#[test]
fn shred_fallback_row_components_read_identically() {
    const FIELDS: usize = 7;
    const PER_PARTITION: usize = 48;
    let ddl = r#"
        create dataverse Prof;
        use dataverse Prof;
        create type RowType as open { id: int64, grp: int64 };
        create dataset D(RowType) primary key id;
        create index grpIdx on D(grp) type btree;
    "#;
    let open = |dir: &std::path::Path| {
        let mut cfg = ClusterConfig::small(dir.join("db"));
        (cfg.nodes, cfg.partitions_per_node) = (2, 2);
        let instance = Instance::open(cfg).unwrap();
        instance.execute(ddl).unwrap();
        instance
    };
    let (dir, ref_dir) =
        (asterix_testkit::TempDir::new().unwrap(), asterix_testkit::TempDir::new().unwrap());
    let (mixed, reference) = (open(dir.path()), open(ref_dir.path()));
    let ds = mixed.dataset("D").unwrap();
    let nparts = ds.primary.len();

    // Record `id`, the `j`-th of its partition; `dirty` puts a string in
    // field `j % 12`.
    let record = |id: i64, j: usize, dirty: bool| {
        let mut fields = vec![format!("\"id\": {id}"), format!("\"grp\": {}", id % 7)];
        for f in 0..FIELDS {
            if dirty && j % 12 == f {
                fields.push(format!("\"f{f}\": \"s{id}\""));
            } else {
                fields.push(format!("\"f{f}\": {}", (id * 7 + f as i64) % 100));
            }
        }
        format!("{{ {} }}", fields.join(", "))
    };
    // The next `PER_PARTITION` records of every partition, each numbered
    // on its own partition: ids in order, skipping those of a partition
    // already served. Returns the ids written.
    let mut seen = vec![0usize; nparts];
    let mut next_id = 0i64;
    let mut load = |dirty: bool| -> Vec<i64> {
        let target = seen[0] + PER_PARTITION;
        let mut ids = Vec::new();
        while seen.iter().any(|&n| n < target) {
            let (id, p) = (next_id, ds.partition_of(&[asterix_adm::Value::Int64(next_id)]));
            next_id += 1;
            if seen[p] == target {
                continue;
            }
            let stmt = format!("insert into dataset D ({});", record(id, seen[p], dirty));
            seen[p] += 1;
            for instance in [&mixed, &reference] {
                instance.execute(&stmt).unwrap();
            }
            ids.push(id);
        }
        ids
    };
    let dirty = load(true);
    ds.flush_all().unwrap();
    assert_eq!(mixed.columnar_stats().components.get(), 0, "the first flush falls back");
    for t in &ds.primary {
        assert_eq!((t.lsm().disk_component_count(), t.lsm().columnar_component_count()), (1, 0));
    }
    let clean = load(false);
    ds.flush_all().unwrap();
    assert!(mixed.columnar_stats().components.get() > 0, "clean rows flush columnar");
    for t in &ds.primary {
        assert_eq!((t.lsm().disk_component_count(), t.lsm().columnar_component_count()), (2, 1));
    }

    let (in_row, in_columnar) = (dirty[1], clean[clean.len() / 2]);
    let queries = [
        // Projected scan.
        r#"for $r in dataset D return { "id": $r.id, "f1": $r.f1 }"#.to_string(),
        // Pushed filter, on a field some row-stored records hold a string in.
        r#"for $r in dataset D where $r.f2 >= 10 and $r.f2 < 50 return $r.id"#.into(),
        // Whole record.
        r#"for $r in dataset D return $r"#.into(),
        r#"count(for $r in dataset D return $r.id)"#.into(),
        // Primary-key equality, in the row and in the columnar component.
        format!("for $r in dataset D where $r.id = {in_row} return $r"),
        format!("for $r in dataset D where $r.id = {in_columnar} return $r"),
        // Primary-key range across both.
        format!("for $r in dataset D where $r.id >= {in_row} and $r.id < {in_columnar} return $r"),
        // Secondary-index search and primary fetch.
        r#"for $r in dataset D where $r.grp = 3 return $r"#.into(),
    ];
    let (_, job) = mixed.explain(&queries[7]).unwrap();
    assert!(job.contains("btree-search Prof.D.grpIdx"), "{job}");
    for q in &queries {
        let want = sorted_rows(&reference.query(q).unwrap());
        assert!(!want.is_empty(), "selects nothing: {q}");
        assert_eq!(sorted_rows(&mixed.query(q).unwrap()), want, "{q}");
    }
}

/// A merge of columnar components that share one column list copies their
/// runs, reading nothing through the buffer cache. The two flushes infer
/// one list because columns follow the declared order: the first row of
/// the first flush lacks both optional fields, which in first-seen order
/// would put the open field `tag` before them. What the copy writes is an
/// ordinary component: it validates, it reopens, and a whole record
/// spliced from it is already in typed order.
#[test]
fn merge_of_one_column_list_copies_runs_outside_the_buffer_cache() {
    use asterix_adm::{colschema, Datatype};
    use asterix_storage::{DiskComponent, MergePolicy, Projection, ScanBound, ScanValue};

    let dir = asterix_testkit::TempDir::new().unwrap();
    let mut cfg = ClusterConfig::small(dir.path().join("db"));
    (cfg.nodes, cfg.partitions_per_node) = (1, 1);
    cfg.merge_policy = MergePolicy::NoMerge;
    let instance = Instance::open(cfg.clone()).unwrap();
    instance
        .execute(
            r#"
        create dataverse Prof;
        use dataverse Prof;
        create type MsgType as open { id: int64, author: string, score: double?, note: string? };
        create dataset D(MsgType) primary key id;
    "#,
        )
        .unwrap();
    let ds = instance.dataset("D").unwrap();
    let lsm = ds.primary[0].lsm();
    for batch in 0..2i64 {
        for id in batch * 40..batch * 40 + 40 {
            let optional = match id {
                0 => String::new(),
                _ => format!(r#", "score": {id}.5, "note": "n{id}""#),
            };
            let record =
                format!(r#"{{ "id": {id}, "author": "a{id}"{optional}, "tag": "t{id}" }}"#);
            instance.execute(&format!("insert into dataset D ({record});")).unwrap();
        }
        ds.flush_all().unwrap();
    }
    assert_eq!((lsm.disk_component_count(), lsm.columnar_component_count()), (2, 2));
    let all = "for $m in dataset D order by $m.id return $m;";
    let before = instance.query(all).unwrap();
    assert_eq!(before.len(), 80);

    let (hits, misses, _) = instance.cache_stats();
    lsm.merge_all().unwrap();
    let (hits_after, misses_after, _) = instance.cache_stats();
    assert_eq!((hits_after, misses_after), (hits, misses), "the merge read through the cache");
    assert_eq!((lsm.metrics().merges.get(), lsm.metrics().merges_copied.get()), (1, 1));
    match instance.metrics().get("lsm.Prof.D.p0.merges_copied") {
        Some(Metric::Counter(c)) => assert_eq!(c.get(), 1),
        other => panic!("lsm.Prof.D.p0.merges_copied: {other:?}"),
    }
    assert_eq!((lsm.disk_component_count(), lsm.columnar_component_count()), (1, 1));
    let files = DiskComponent::scavenge_dir(lsm.dir()).unwrap();
    assert_eq!(files.len(), 1, "{files:?}");
    DiskComponent::validate(&files[0]).unwrap();

    // Every row is spliced from the copied runs, and comes out in the
    // order the typed encoding yields.
    let Ok(Datatype::Record(rt)) = ds.registry.resolve(&ds.datatype) else {
        panic!("D's type is a record type")
    };
    let mut buf = Vec::new();
    let mut spliced = 0;
    lsm.scan_projected(ScanBound::ALL, &Projection::all(), |_, value| {
        let ScanValue::Assembled(sd) = value else { panic!("a row came back unshredded") };
        let ordered = colschema::in_typed_order(sd, &rt, &mut buf).unwrap();
        assert!(std::ptr::eq(ordered, sd), "re-ordered a spliced record");
        spliced += 1;
        Ok::<_, asterix_storage::StorageError>(true)
    })
    .unwrap();
    assert_eq!(spliced, 80);
    assert_eq!(instance.query(all).unwrap(), before);

    drop((ds, instance));
    let instance = Instance::open(cfg).unwrap();
    instance.execute("use dataverse Prof;").unwrap();
    let ds = instance.dataset("D").unwrap();
    assert_eq!(ds.primary[0].lsm().columnar_component_count(), 1);
    assert_eq!(instance.query(all).unwrap(), before, "the merged component reopens");
}
