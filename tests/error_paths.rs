//! Error-path and edge-case coverage through the public API.

use asterixdb::{ClusterConfig, Instance};

fn instance(dir: &std::path::Path) -> std::sync::Arc<Instance> {
    Instance::open(ClusterConfig::small(dir)).unwrap()
}

#[test]
fn statement_errors_are_reported_not_panicked() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance(dir.path());
    // Parse error.
    assert!(ins.execute("for $x in").is_err());
    // Unknown dataverse.
    assert!(ins.execute("use dataverse Nope;").is_err());
    // Unknown dataset in a query.
    ins.execute("create dataverse E; use dataverse E;").unwrap();
    let err = ins.query("for $x in dataset Ghost return $x;").unwrap_err();
    assert!(err.to_string().contains("Ghost"), "{err}");
    // Unknown session parameter.
    assert!(ins.execute("set bogus \"1\";").is_err());
    // Dataset with an unknown type.
    assert!(ins.execute("create dataset D(NoType) primary key id;").is_err());
    // Duplicate dataverse.
    assert!(ins.execute("create dataverse E;").is_err());
    // Drop of missing things without `if exists` errors; with it, succeeds.
    assert!(ins.execute("drop dataset Ghost;").is_err());
    ins.execute("drop dataset Ghost if exists;").unwrap();
    ins.execute("drop type Ghost if exists;").unwrap();
    ins.execute("drop function ghost if exists;").unwrap();
}

/// A range whose lower bound lies above its upper bound selects nothing —
/// through a secondary index and through the primary index, with the
/// records still in the memory component.
#[test]
fn an_empty_range_answers_nothing() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance(dir.path());
    ins.execute(
        "create dataverse R; use dataverse R; create type T as open { id: int64 };
         create dataset D(T) primary key id; create index vIdx on D(v);
         insert into dataset D ({ \"id\": 1, \"v\": 5 });",
    )
    .unwrap();
    for field in ["v", "id"] {
        let q = format!("for $d in dataset D where $d.{field} >= 9 and $d.{field} <= 3 return $d;");
        assert_eq!(ins.query(&q).unwrap(), vec![], "{field}");
    }
}

#[test]
fn feed_rejects_records_that_fail_type_validation() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance(dir.path());
    ins.execute(
        r#"
        create dataverse F;
        use dataverse F;
        create type Strict as closed { id: int64 };
        create dataset D(Strict) primary key id;
        create feed f using socket_adaptor (("format"="adm"));
        connect feed f to dataset D;
    "#,
    )
    .unwrap();
    let ep = ins.feed_endpoint("f").unwrap();
    ep.send_text("{ \"id\": 1 }").unwrap(); // ok
    ep.send_text("{ \"id\": 2, \"extra\": true }").unwrap(); // closed-type violation
    ep.send_text("not adm at all").unwrap(); // parse failure
    ep.send_text("{ \"id\": 3 }").unwrap(); // ok
    assert!(ins.feed_wait_stored("f", 2, std::time::Duration::from_secs(5)));
    // Give the failing records a beat to be counted, then disconnect.
    std::thread::sleep(std::time::Duration::from_millis(50));
    ins.execute("disconnect feed f from dataset D;").unwrap();
    let rows = ins.query("for $d in dataset D return $d.id;").unwrap();
    assert_eq!(rows.len(), 2, "only valid records stored");
}

#[test]
fn distinct_by_through_full_stack() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance(dir.path());
    ins.execute(
        r#"
        create dataverse Q;
        use dataverse Q;
        create type T as open { id: int64, c: string };
        create dataset D(T) primary key id;
        insert into dataset D ([
            { "id": 1, "c": "x" }, { "id": 2, "c": "y" },
            { "id": 3, "c": "x" }, { "id": 4, "c": "z" },
            { "id": 5, "c": "y" }
        ]);
    "#,
    )
    .unwrap();
    let rows = ins.query("for $d in dataset D distinct by $d.c return $d.c;").unwrap();
    assert_eq!(rows.len(), 3);
}

#[test]
fn deeply_nested_queries_and_records() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance(dir.path());
    ins.execute(
        r#"
        create dataverse N;
        use dataverse N;
        create type T as open { id: int64 };
        create dataset D(T) primary key id;
        insert into dataset D ([{ "id": 1 }, { "id": 2 }, { "id": 3 }]);
    "#,
    )
    .unwrap();
    // Three levels of nesting: for each record, the list of records whose
    // id is smaller, each with the list of ids smaller than *that*.
    let rows = ins
        .query(
            r#"for $a in dataset D
               order by $a.id
               return {
                   "id": $a.id,
                   "below": for $b in dataset D
                            where $b.id < $a.id
                            return {
                                "id": $b.id,
                                "below": for $c in dataset D
                                         where $c.id < $b.id
                                         return $c.id
                            }
               };"#,
        )
        .unwrap();
    assert_eq!(rows.len(), 3);
    let third = &rows[2];
    let below = third.field("below");
    assert_eq!(below.as_list().unwrap().len(), 2);
    // Record printing of the whole nested result round-trips.
    let text = asterix_adm::print::to_adm_string(third);
    let back = asterix_adm::parse::parse_value(&text).unwrap();
    assert!(third.total_cmp(&back).is_eq());
}

#[test]
fn empty_dataset_edge_cases() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance(dir.path());
    ins.execute(
        r#"
        create dataverse Z;
        use dataverse Z;
        create type T as open { id: int64, v: int64 };
        create dataset D(T) primary key id;
        create index vIdx on D(v);
    "#,
    )
    .unwrap();
    assert!(ins.query("for $d in dataset D return $d;").unwrap().is_empty());
    assert_eq!(
        ins.query("count(for $d in dataset D return $d);").unwrap()[0],
        asterix_adm::Value::Int64(0)
    );
    assert_eq!(
        ins.query("avg(for $d in dataset D return $d.v);").unwrap()[0],
        asterix_adm::Value::Null
    );
    // Indexed query over empty data.
    assert!(ins.query("for $d in dataset D where $d.v = 5 return $d;").unwrap().is_empty());
    // Group by over empty input yields no groups.
    assert!(ins
        .query(
            "for $d in dataset D group by $k := $d.v with $d \
             let $c := count($d) return $c;"
        )
        .unwrap()
        .is_empty());
    // Delete from empty dataset affects nothing.
    let res = ins.execute("delete $d from dataset D where $d.id = 1;").unwrap();
    assert_eq!(res[0].count(), 0);
}

#[test]
fn dropped_dataset_storage_does_not_resurrect() {
    // A dropped dataset's flushed components must not reappear when a new
    // dataset is created under the same name.
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance(dir.path());
    ins.execute(
        r#"
        create dataverse RZ;
        use dataverse RZ;
        create type T as open { id: int64 };
        create dataset D(T) primary key id;
        insert into dataset D ([{ "id": 1 }, { "id": 2 }, { "id": 3 }]);
    "#,
    )
    .unwrap();
    // Force the data onto disk, then drop.
    ins.dataset("D").unwrap().flush_all().unwrap();
    ins.execute("drop dataset D;").unwrap();
    ins.execute("create dataset D(T) primary key id;").unwrap();
    assert!(
        ins.query("for $d in dataset D return $d;").unwrap().is_empty(),
        "recreated dataset must start empty"
    );
    ins.execute("insert into dataset D ({ \"id\": 1 });").unwrap();
    assert_eq!(ins.query("for $d in dataset D return $d;").unwrap().len(), 1);
}
