//! Feature-coverage integration tests: the §5.2 pilot-driven features
//! (temporal binning, positional variables), keyword-index access paths,
//! `load`, and the simulated-DFS external adaptor.

use asterix_adm::Value;
use asterixdb::{ClusterConfig, Instance};

fn instance(dir: &std::path::Path) -> std::sync::Arc<Instance> {
    Instance::open(ClusterConfig::small(dir)).unwrap()
}

#[test]
fn temporal_binning_windowed_aggregation() {
    // §5.2's behavioral-analysis pilot "led us to add support for temporal
    // binning, as time-windowed aggregation was needed."
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance(dir.path());
    ins.execute(
        r#"
        create dataverse W;
        use dataverse W;
        create type E as open { id: int64, at: datetime, hr: int64 };
        create dataset Events(E) primary key id;
    "#,
    )
    .unwrap();
    // Heart-rate-style samples every 20 minutes over 4 hours.
    for i in 0..12i64 {
        let minutes = i * 20;
        let (h, m) = (minutes / 60, minutes % 60);
        ins.execute(&format!(
            "insert into dataset Events ({{ \"id\": {i}, \
             \"at\": datetime(\"2014-03-01T{h:02}:{m:02}:00\"), \"hr\": {} }});",
            60 + i
        ))
        .unwrap();
    }
    // Hourly windows via interval-bin, averaged per window.
    let rows = ins
        .query(
            r#"for $e in dataset Events
               let $bin := interval-bin($e.at, datetime("2014-03-01T00:00:00"),
                                        day-time-duration("PT1H"))
               group by $w := get-interval-start($bin) with $e
               let $avg := avg(for $x in $e return $x.hr)
               order by $w
               return { "window": $w, "avg-hr": $avg };"#,
        )
        .unwrap();
    assert_eq!(rows.len(), 4, "4 hourly windows");
    // First window holds samples 0,1,2 → avg hr = 61.
    assert_eq!(rows[0].field("avg-hr"), Value::Double(61.0));
    // Last window holds samples 9,10,11 → avg 70.
    assert_eq!(rows[3].field("avg-hr"), Value::Double(70.0));
}

#[test]
fn positional_variables() {
    // §5.2's cell-phone-analytics pilot "drove us to add support for
    // positional variables in AQL (akin to those in XQuery)."
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance(dir.path());
    ins.execute(
        r#"
        create dataverse P;
        use dataverse P;
        create type S as open { id: int64, steps: [string] };
        create dataset Sessions(S) primary key id;
        insert into dataset Sessions (
            { "id": 1, "steps": ["open", "search", "click", "buy"] });
    "#,
    )
    .unwrap();
    let rows = ins
        .query(
            r#"for $s in dataset Sessions
               for $step at $i in $s.steps
               where $i <= 2
               return { "pos": $i, "step": $step };"#,
        )
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].field("pos"), Value::Int64(1));
    assert_eq!(rows[0].field("step"), Value::string("open"));
    assert_eq!(rows[1].field("step"), Value::string("search"));
}

#[test]
fn keyword_index_access_path() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance(dir.path());
    ins.execute(
        r#"
        create dataverse K;
        use dataverse K;
        create type M as open { id: int64, message: string };
        create dataset Msgs(M) primary key id;
        create index kwIdx on Msgs(message) type keyword;
    "#,
    )
    .unwrap();
    for (i, text) in [
        "the concert tonight was great",
        "work deadline tomorrow",
        "tonight we ship the release",
        "lunch was nice",
    ]
    .iter()
    .enumerate()
    {
        ins.execute(&format!(
            "insert into dataset Msgs ({{ \"id\": {i}, \"message\": \"{text}\" }});"
        ))
        .unwrap();
    }
    let q = r#"for $m in dataset Msgs
               where some $w in word-tokens($m.message) satisfies $w = "tonight"
               return $m.id;"#;
    // The Query 6 pattern routes through the keyword index, and the job
    // names its search as the plan does.
    let (plan, job) = ins.explain(q).unwrap();
    assert!(plan.contains("keyword-search K.Msgs.kwIdx"), "{plan}");
    assert!(
        job.contains("keyword-search K.Msgs.kwIdx") && !job.contains("btree-search K.Msgs.kwIdx"),
        "{job}"
    );
    let mut ids: Vec<i64> = ins.query(q).unwrap().iter().map(|v| v.as_i64().unwrap()).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 2]);
    // Same answer without the index.
    ins.optimizer_options.write().enable_index_access = false;
    let mut ids2: Vec<i64> = ins.query(q).unwrap().iter().map(|v| v.as_i64().unwrap()).collect();
    ids2.sort_unstable();
    assert_eq!(ids, ids2);
}

#[test]
fn load_dataset_from_adm_file() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let data = dir.path().join("users.adm");
    std::fs::write(
        &data,
        r#"{ "id": 1, "name": "a" }
           { "id": 2, "name": "b" }
           { "id": 3, "name": "c" }"#,
    )
    .unwrap();
    let ins = instance(&dir.path().join("db"));
    ins.execute(
        r#"
        create dataverse L;
        use dataverse L;
        create type U as open { id: int64, name: string };
        create dataset Users(U) primary key id;
    "#,
    )
    .unwrap();
    let res = ins
        .execute(&format!(
            "load dataset Users using localfs ((\"path\"=\"{}\"), (\"format\"=\"adm\"));",
            data.display()
        ))
        .unwrap();
    assert_eq!(res[0].count(), 3);
    assert_eq!(ins.query("for $u in dataset Users return $u;").unwrap().len(), 3);
}

#[test]
fn dfs_external_dataset() {
    // The simulated-HDFS adaptor (§2.3's "data residing in HDFS").
    let dir = asterix_testkit::TempDir::new().unwrap();
    let dfs = dir.path().join("warehouse");
    std::fs::create_dir_all(&dfs).unwrap();
    std::fs::write(dfs.join("part-00000"), "{ \"k\": 1 }\n{ \"k\": 2 }").unwrap();
    std::fs::write(dfs.join("part-00001"), "{ \"k\": 3 }").unwrap();
    let ins = instance(&dir.path().join("db"));
    ins.execute(&format!(
        r#"create dataverse H;
           use dataverse H;
           create type T as open {{ k: int64 }};
           create external dataset Blocks(T)
               using dfs (("path"="hdfs://{}"), ("format"="adm"));"#,
        dfs.display()
    ))
    .unwrap();
    let total = ins.query("sum( for $b in dataset Blocks return $b.k );").unwrap();
    assert_eq!(total[0].as_i64(), Some(6));
    // External datasets are read-only: inserts are rejected.
    let err = ins.execute("insert into dataset Blocks ({ \"k\": 9 });").unwrap_err();
    assert!(err.to_string().contains("not a stored dataset"), "{err}");
}

#[test]
fn sql_vs_aql_aggregate_semantics_through_aql() {
    // §3: AQL's avg is null if any value is null; sql-avg skips nulls.
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance(dir.path());
    ins.execute(
        r#"
        create dataverse A;
        use dataverse A;
        create type T as open { id: int64, v: int64? };
        create dataset D(T) primary key id;
        insert into dataset D ([{ "id": 1, "v": 2 }, { "id": 2, "v": null },
                                { "id": 3, "v": 4 }]);
    "#,
    )
    .unwrap();
    let aql = ins.query("avg(for $d in dataset D return $d.v);").unwrap();
    assert_eq!(aql[0], Value::Null);
    let sql = ins.query("sql-avg(for $d in dataset D return $d.v);").unwrap();
    assert_eq!(sql[0], Value::Double(3.0));
    let cnt = ins.query("sql-count(for $d in dataset D return $d.v);").unwrap();
    assert_eq!(cnt[0], Value::Int64(2));
}

#[test]
fn drop_statements_and_reuse() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance(dir.path());
    ins.execute(
        r#"
        create dataverse X;
        use dataverse X;
        create type T as open { id: int64 };
        create dataset D(T) primary key id;
        create index ix on D(id);
        insert into dataset D ({ "id": 1 });
    "#,
    )
    .unwrap();
    ins.execute("drop index D.ix;").unwrap();
    ins.execute("drop dataset D;").unwrap();
    // The type is droppable once the dataset is gone; then the whole
    // dataverse can be rebuilt under the same names.
    ins.execute("drop type T;").unwrap();
    ins.execute(
        r#"
        create type T as open { id: int64, extra: string? };
        create dataset D(T) primary key id;
        insert into dataset D ({ "id": 7, "extra": "hi" });
    "#,
    )
    .unwrap();
    let rows = ins.query("for $d in dataset D return $d;").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].field("extra"), Value::string("hi"));
}

#[test]
fn rtree_spatial_intersect_access_path() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance(dir.path());
    ins.execute(
        r#"
        create dataverse S;
        use dataverse S;
        create type P as open { id: int64, loc: point };
        create dataset Places(P) primary key id;
        create index locIdx on Places(loc) type rtree;
    "#,
    )
    .unwrap();
    for i in 0..100i64 {
        let (x, y) = ((i % 10) as f64, (i / 10) as f64);
        ins.execute(&format!(
            "insert into dataset Places ({{ \"id\": {i}, \"loc\": point(\"{x},{y}\") }});"
        ))
        .unwrap();
    }
    let q = r#"for $p in dataset Places
               where spatial-intersect($p.loc, rectangle("2,2 4,4"))
               return $p.id;"#;
    let (plan, _) = ins.explain(q).unwrap();
    assert!(plan.contains("rtree-search"), "{plan}");
    let rows = ins.query(q).unwrap();
    assert_eq!(rows.len(), 9); // 3x3 grid cells
    ins.optimizer_options.write().enable_index_access = false;
    assert_eq!(ins.query(q).unwrap().len(), 9);
}

#[test]
fn autogenerated_primary_keys() {
    // §2.1: "The only fields that must currently be specified a priori are
    // the primary key fields. This restriction is temporary, as AsterixDB's
    // next release will offer auto-generated keys." — implemented here.
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance(dir.path());
    ins.execute(
        r#"
        create dataverse G;
        use dataverse G;
        create type T as open { id: int64, note: string };
        create dataset D(T) primary key id autogenerated;
    "#,
    )
    .unwrap();
    // Records without keys get fresh ones.
    for i in 0..5 {
        ins.execute(&format!("insert into dataset D ({{ \"note\": \"auto{i}\" }});")).unwrap();
    }
    // A record that brings its own key keeps it; later generated keys skip
    // past it.
    ins.execute("insert into dataset D ({ \"id\": 7, \"note\": \"manual\" });").unwrap();
    for i in 5..10 {
        ins.execute(&format!("insert into dataset D ({{ \"note\": \"auto{i}\" }});")).unwrap();
    }
    let ids = ins.query("for $d in dataset D order by $d.id return $d.id;").unwrap();
    assert_eq!(ids.len(), 11);
    // All ids distinct.
    let mut uniq: Vec<i64> = ids.iter().map(|v| v.as_i64().unwrap()).collect();
    uniq.dedup();
    assert_eq!(uniq.len(), 11, "auto keys must never collide: {uniq:?}");
    // And survives restart (replayed counter skips existing keys).
    drop(ins);
    let ins = instance(dir.path());
    ins.execute("use dataverse G;").unwrap();
    ins.execute("insert into dataset D ({ \"note\": \"after restart\" });").unwrap();
    assert_eq!(ins.query("for $d in dataset D return $d;").unwrap().len(), 12);
}

#[test]
fn secondary_feeds_cascade() {
    // §2.4: "AsterixDB also supports Secondary Feeds that are fed from
    // other feeds [...] to transform data and to feed Datasets or feed
    // other feeds."
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance(dir.path());
    ins.execute(
        r#"
        create dataverse SF;
        use dataverse SF;
        create type T as open { id: int64, v: int64 };
        create dataset Raw(T) primary key id;
        create dataset Doubled(T) primary key id;
        create function double_v($r) {
            { "id": $r.id, "v": $r.v * 2 }
        };
        create feed base using socket_adaptor (("format"="adm"));
        create secondary feed derived from feed base;
        connect feed base to dataset Raw;
        connect feed derived apply function double_v to dataset Doubled;
    "#,
    )
    .unwrap();
    let ep = ins.feed_endpoint("base").unwrap();
    for i in 0..30 {
        ep.send_text(format!("{{ \"id\": {i}, \"v\": {i} }}")).unwrap();
    }
    assert!(ins.feed_wait_stored("base", 30, std::time::Duration::from_secs(5)));
    assert!(ins.feed_wait_stored("derived", 30, std::time::Duration::from_secs(5)));
    ins.execute("disconnect feed derived from dataset Doubled;").unwrap();
    ins.execute("disconnect feed base from dataset Raw;").unwrap();
    let raw = ins.query("for $r in dataset Raw return $r.v;").unwrap();
    assert_eq!(raw.len(), 30);
    let doubled = ins.query("for $d in dataset Doubled where $d.id = 7 return $d.v;").unwrap();
    assert_eq!(doubled, vec![Value::Int64(14)]);
}

/// A feed's apply function runs per record outside any job, so a dataset
/// it reads goes through the interpreter's read of the job's sources. Each
/// stored record holds what the same expression answers as a query.
#[test]
fn feed_apply_function_reads_another_dataset() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance(dir.path());
    ins.execute(
        r#"
        create dataverse AF;
        use dataverse AF;
        create type T as open { id: int32, v: int64 };
        create dataset Raw(T) primary key id;
        create dataset Counts(T) primary key id;
        create function below($r) {
            { "id": $r.id, "v": $r.v,
              "n": count(for $x in dataset Raw where $x.v < $r.v return $x) }
        };
        create feed f using socket_adaptor (("format"="adm"));
    "#,
    )
    .unwrap();
    // Raw spans a flushed component and the memory component.
    for i in 0..40 {
        ins.execute(&format!("insert into dataset Raw ({{ \"id\": {i}, \"v\": {} }});", i * 3))
            .unwrap();
        if i == 25 {
            ins.dataset("Raw").unwrap().flush_all().unwrap();
        }
    }
    ins.execute("connect feed f apply function below to dataset Counts;").unwrap();
    let ep = ins.feed_endpoint("f").unwrap();
    for i in 0..30 {
        ep.send_text(format!("{{ \"id\": {i}, \"v\": {} }}", i * 5 - 7)).unwrap();
    }
    assert!(ins.feed_wait_stored("f", 30, std::time::Duration::from_secs(5)));
    ins.execute("disconnect feed f from dataset Counts;").unwrap();
    let stored = ins.query("for $c in dataset Counts order by $c.id return $c;").unwrap();
    assert_eq!(stored.len(), 30);
    for c in &stored {
        let v = c.field("v").as_i64().unwrap();
        let want = ins
            .query(&format!("count(for $x in dataset Raw where $x.v < {v} return $x);"))
            .unwrap();
        assert_eq!(vec![c.field("n")], want, "record {c:?}");
    }
    assert!(stored.iter().any(|c| c.field("n").as_i64() == Some(40)));
}
