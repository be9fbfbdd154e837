//! Crash recovery (§4.4's logical logging + shadowing) and record-level
//! transaction behavior under concurrency, exercised through the full
//! stack.

use std::sync::Arc;

use asterixdb::{ClusterConfig, Instance};

const DDL: &str = r#"
    create dataverse R;
    use dataverse R;
    create type T as open { id: int64, v: int64, tag: string };
    create dataset D(T) primary key id;
    create index vIdx on D(v);
"#;

fn open(dir: &std::path::Path) -> Arc<Instance> {
    Instance::open(ClusterConfig::small(dir)).unwrap()
}

fn insert(instance: &Instance, id: i64, v: i64) {
    instance
        .execute(&format!(
            "insert into dataset D ({{ \"id\": {id}, \"v\": {v}, \"tag\": \"t{id}\" }});"
        ))
        .unwrap();
}

#[test]
fn recovery_replays_committed_work_including_secondary_indexes() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    {
        let instance = open(dir.path());
        instance.execute(DDL).unwrap();
        for i in 0..100 {
            insert(&instance, i, i % 10);
        }
        instance.execute("delete $d from dataset D where $d.id < 10;").unwrap();
        // Crash: drop without flushing.
    }
    let instance = open(dir.path());
    instance.execute("use dataverse R;").unwrap();
    let all = instance.query("for $d in dataset D return $d.id;").unwrap();
    assert_eq!(all.len(), 90);
    // The secondary index was rebuilt by replay too: an indexed query finds
    // the right records.
    let via_ix = instance.query("for $d in dataset D where $d.v = 3 return $d.id;").unwrap();
    // v = 3 for ids ≡ 3 (mod 10); ids 13..93 → 9 records (id 3 deleted).
    assert_eq!(via_ix.len(), 9);
    let (plan, _) = instance.explain("for $d in dataset D where $d.v = 3 return $d.id;").unwrap();
    assert!(plan.contains("vIdx"), "{plan}");
}

/// `use dataverse` is not logged — each dataverse-relative DDL record
/// carries its own — yet DDL from two sessions in two dataverses, issued
/// interleaved, replays into the dataverses it was issued in: the catalog
/// after a reopen is the catalog before it.
#[test]
fn ddl_after_use_replays_into_its_dataverse() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let catalog = |instance: &Instance| -> Vec<String> {
        let mut rows: Vec<String> = ["Dataverse", "Datatype", "Dataset", "Index"]
            .iter()
            .flat_map(|v| {
                instance.query(&format!("for $x in dataset Metadata.{v} return $x;")).unwrap()
            })
            .map(|r| asterix_adm::print::to_adm_string(&r))
            .collect();
        rows.sort();
        rows
    };
    let log = ClusterConfig::small(dir.path()).ddl_log_path();
    let before = {
        let instance = open(dir.path());
        let (a, b) = (instance.new_session(), instance.new_session());
        instance
            .execute_in(&a, "create dataverse P; create dataverse Q; use dataverse P;")
            .unwrap();
        let logged = std::fs::read_to_string(&log).unwrap();
        instance.execute_in(&b, "use dataverse Q;").unwrap();
        assert_eq!(std::fs::read_to_string(&log).unwrap(), logged, "`use` writes nothing");
        instance
            .execute_in(
                &a,
                "create type T as open { id: int64 }; create dataset D(T) primary key id;",
            )
            .unwrap();
        instance
            .execute_in(
                &b,
                "create type T as open { id: string }; create dataset D(T) primary key id;",
            )
            .unwrap();
        instance
            .execute_in(&a, "create index nIdx on D(n); insert into dataset D ({ \"id\": 1 });")
            .unwrap();
        instance.execute_in(&b, "insert into dataset D ({ \"id\": \"q\" });").unwrap();
        catalog(&instance)
    };
    let instance = open(dir.path());
    assert_eq!(catalog(&instance), before);
    let ids = |dv: &str| {
        instance.query(&format!("use dataverse {dv}; for $d in dataset D return $d.id;")).unwrap()
    };
    assert_eq!(ids("P"), vec![asterix_adm::Value::Int64(1)]);
    assert_eq!(ids("Q"), vec![asterix_adm::Value::string("q")]);
}

#[test]
fn recovery_after_flush_and_more_writes() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    {
        let instance = open(dir.path());
        instance.execute(DDL).unwrap();
        for i in 0..50 {
            insert(&instance, i, i);
        }
        // Flush everything to disk components (writes Flush watermarks).
        instance.dataset("D").unwrap().flush_all().unwrap();
        // More writes that stay only in memory + WAL.
        for i in 50..80 {
            insert(&instance, i, i);
        }
    }
    let instance = open(dir.path());
    instance.execute("use dataverse R;").unwrap();
    let n = instance.query("for $d in dataset D return $d;").unwrap().len();
    assert_eq!(n, 80, "flushed (50) + replayed (30)");
}

#[test]
fn checkpoint_truncates_log_and_still_recovers() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    {
        let instance = open(dir.path());
        instance.execute(DDL).unwrap();
        for i in 0..40 {
            insert(&instance, i, i);
        }
        instance.checkpoint().unwrap();
        for i in 40..60 {
            insert(&instance, i, i);
        }
    }
    let instance = open(dir.path());
    instance.execute("use dataverse R;").unwrap();
    assert_eq!(instance.query("for $d in dataset D return $d;").unwrap().len(), 60);
}

#[test]
fn double_crash_recovery_is_idempotent() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    {
        let instance = open(dir.path());
        instance.execute(DDL).unwrap();
        for i in 0..30 {
            insert(&instance, i, i);
        }
    }
    // First recovery, then crash again without any new write.
    {
        let instance = open(dir.path());
        instance.execute("use dataverse R;").unwrap();
        assert_eq!(instance.query("for $d in dataset D return $d;").unwrap().len(), 30);
    }
    // Second recovery replays the same log over the recovered state —
    // replay is idempotent (inserts are upserts).
    let instance = open(dir.path());
    instance.execute("use dataverse R;").unwrap();
    assert_eq!(instance.query("for $d in dataset D return $d;").unwrap().len(), 30);
}

#[test]
fn ddl_survives_restart() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    {
        let instance = open(dir.path());
        instance.execute(DDL).unwrap();
        instance
            .execute(
                r#"create function tagged() {
                       for $d in dataset D return $d.tag
                   };"#,
            )
            .unwrap();
        insert(&instance, 1, 1);
    }
    let instance = open(dir.path());
    instance.execute("use dataverse R;").unwrap();
    // Types, datasets, indexes, and functions all came back.
    let idx = instance.query("for $ix in dataset Metadata.Index return $ix;").unwrap();
    assert_eq!(idx.len(), 2); // primary + vIdx
    let tags = instance.query("for $t in tagged() return $t;").unwrap();
    assert_eq!(tags.len(), 1);
}

#[test]
fn concurrent_inserts_from_many_threads() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let instance = open(dir.path());
    instance.execute(DDL).unwrap();
    let mut handles = Vec::new();
    for t in 0..8i64 {
        let instance = Arc::clone(&instance);
        handles.push(std::thread::spawn(move || {
            for i in 0..50 {
                let id = t * 1000 + i;
                instance
                    .execute(&format!(
                        "insert into dataset D ({{ \"id\": {id}, \"v\": {t}, \"tag\": \"x\" }});"
                    ))
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(instance.query("for $d in dataset D return $d;").unwrap().len(), 400);
    // Per-thread groups all have exactly 50.
    let counts = instance
        .query(
            "for $d in dataset D group by $v := $d.v with $d \
             let $c := count($d) return $c;",
        )
        .unwrap();
    assert_eq!(counts.len(), 8);
    assert!(counts.iter().all(|c| c.as_i64() == Some(50)));
}

#[test]
fn concurrent_duplicate_inserts_exactly_one_wins() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let instance = open(dir.path());
    instance.execute(DDL).unwrap();
    let mut handles = Vec::new();
    for t in 0..8i64 {
        let instance = Arc::clone(&instance);
        handles.push(std::thread::spawn(move || {
            let mut wins = 0;
            for _ in 0..20 {
                let ok = instance
                    .execute(&format!(
                        "insert into dataset D ({{ \"id\": 42, \"v\": {t}, \"tag\": \"x\" }});"
                    ))
                    .is_ok();
                if ok {
                    wins += 1;
                }
            }
            wins
        }));
    }
    let total_wins: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total_wins, 1, "exactly one insert of pk 42 may succeed");
    assert_eq!(instance.query("for $d in dataset D where $d.id = 42 return $d;").unwrap().len(), 1);
}

#[test]
fn readers_see_consistent_data_during_writes() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let instance = open(dir.path());
    instance.execute(DDL).unwrap();
    for i in 0..200 {
        insert(&instance, i, 1);
    }
    let writer = {
        let instance = Arc::clone(&instance);
        std::thread::spawn(move || {
            for i in 200..400 {
                instance
                    .execute(&format!(
                        "insert into dataset D ({{ \"id\": {i}, \"v\": 1, \"tag\": \"w\" }});"
                    ))
                    .unwrap();
            }
        })
    };
    // Concurrent readers always see at least the initial 200 records and a
    // consistent (whole-record) view.
    for _ in 0..20 {
        let rows = instance.query("for $d in dataset D return $d.id;").unwrap();
        assert!(rows.len() >= 200);
    }
    writer.join().unwrap();
    assert_eq!(instance.query("for $d in dataset D return $d;").unwrap().len(), 400);
}

const GEO_DDL: &str = r#"
    create dataverse G;
    use dataverse G;
    create type P as open { id: int64, loc: point };
    create dataset Places(P) primary key id;
    create index locIdx on Places(loc) type rtree;
"#;

const GEO_QUERY: &str = r#"for $p in dataset Places
    where spatial-intersect($p.loc, rectangle("2,2 6,6")) return $p.id;"#;

fn insert_place(instance: &Instance, id: i64) {
    let (x, y) = ((id % 10) as f64, (id / 10 % 10) as f64);
    instance
        .execute(&format!(
            "insert into dataset Places ({{ \"id\": {id}, \"loc\": point(\"{x},{y}\") }});"
        ))
        .unwrap();
}

fn sorted_ids(instance: &Instance, q: &str) -> Vec<i64> {
    let mut ids: Vec<i64> =
        instance.query(q).unwrap().iter().map(|v| v.as_i64().unwrap()).collect();
    ids.sort_unstable();
    ids
}

/// Counts the replayed updates per (dataset, index code).
#[derive(Default)]
struct CountingTarget(std::collections::HashMap<(u32, u32), usize>);

impl asterix_txn::RecoveryTarget for CountingTarget {
    fn replay_insert(&mut self, ds: u32, ix: u32, _: &[u8], _: &[u8]) -> asterix_txn::Result<()> {
        *self.0.entry((ds, ix)).or_default() += 1;
        Ok(())
    }

    fn replay_delete(&mut self, ds: u32, ix: u32, _: &[u8], _: &[u8]) -> asterix_txn::Result<()> {
        *self.0.entry((ds, ix)).or_default() += 1;
        Ok(())
    }
}

/// The spatial index writes flush watermarks like every LSM index, so
/// recovery skips its flushed updates; a kill and reopen keeps its answers
/// and its `lsm.*` metrics.
#[test]
fn recovery_skips_flushed_spatial_updates_and_keeps_the_answers() {
    use asterix_txn::wal::{LogManager, LogRecord};
    let dir = asterix_testkit::TempDir::new().unwrap();
    let flushes = "lsm.G.Places.locIdx.p0.flushes";
    let before = {
        let instance = open(dir.path());
        instance.execute(GEO_DDL).unwrap();
        for id in 0..100 {
            insert_place(&instance, id);
        }
        let ds = instance.dataset("Places").unwrap();
        ds.flush_all().unwrap();
        // Writes the flush did not cover: a move and new records.
        instance.execute("delete $p from dataset Places where $p.id = 33;").unwrap();
        for id in 100..130 {
            insert_place(&instance, id);
        }
        assert!(instance.metrics_json().contains(flushes), "{}", instance.metrics_json());

        let ix = ds.secondary("locIdx").unwrap();
        let log = instance.config().node_log_path(instance.config().node_of(0));
        let code = asterixdb::dataset::wal_index_code(ix.id, 0);
        let records = LogManager::read_all_records(&log).unwrap();
        let is_ix = |d: &u32, i: &u32| (*d, *i) == (ds.id, code);
        let logged = records
            .iter()
            .filter(|(_, r)| matches!(r, LogRecord::Update { dataset, index, .. } if is_ix(dataset, index)))
            .count();
        assert!(records.iter().any(
            |(_, r)| matches!(r, LogRecord::Flush { dataset, index, .. } if is_ix(dataset, index))
        ));
        let mut target = CountingTarget::default();
        let stats = asterix_txn::recover(&log, &mut target).unwrap();
        let replayed = target.0.get(&(ds.id, code)).copied().unwrap_or(0);
        assert!(
            stats.skipped_flushed > 0 && replayed < logged,
            "{replayed} of {logged}: {stats:?}"
        );
        sorted_ids(&instance, GEO_QUERY)
        // Killed: dropped without a flush.
    };
    assert_eq!(before.len(), 24 + 5, "a 5x5 block less 33, and 122..=126: {before:?}");
    let instance = open(dir.path());
    instance.execute("use dataverse G;").unwrap();
    let (plan, _) = instance.explain(GEO_QUERY).unwrap();
    assert!(plan.contains("rtree-search"), "{plan}");
    assert_eq!(sorted_ids(&instance, GEO_QUERY), before);
    assert!(instance.metrics_json().contains(flushes));
}

/// Points loaded before and during a stream of background flushes stay
/// visible to a concurrent window search at every moment: a sealed memory
/// component is searched until its disk component is installed.
#[test]
fn spatial_search_sees_every_point_while_flushes_run() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use asterix_adm::value::{Point, Rectangle};
    use asterix_adm::Value;
    use asterix_storage::lsm::{LsmConfig, NullObserver};
    use asterix_storage::spatial::SpatialIndex;
    use asterix_storage::BufferCache;

    let dir = asterix_testkit::TempDir::new().unwrap();
    let cfg = LsmConfig { mem_budget: 8 << 10, ..LsmConfig::default() };
    let ix = SpatialIndex::open(dir.path(), cfg, BufferCache::new(1024), Arc::new(NullObserver))
        .unwrap();
    // Every tenth point falls inside the window.
    let point = |i: usize| {
        let (x, y) = ((i % 10) as f64 * 2.0, (i / 10 % 100) as f64);
        Rectangle::new(Point::new(x, y), Point::new(x, y))
    };
    let window = Rectangle::new(Point::new(0.0, 0.0), Point::new(1.0, 100.0));
    const PRELOADED: usize = 100;
    const TOTAL: usize = 5_000;
    for i in 0..PRELOADED {
        ix.insert(point(i), &[Value::Int64(i as i64)]).unwrap();
    }
    let inserted = AtomicUsize::new(PRELOADED);
    let searches = std::thread::scope(|s| {
        s.spawn(|| {
            for i in PRELOADED..TOTAL {
                ix.insert(point(i), &[Value::Int64(i as i64)]).unwrap();
                inserted.store(i + 1, Ordering::SeqCst);
            }
        });
        let mut searches = 0;
        loop {
            let done = inserted.load(Ordering::SeqCst);
            let mut hits: Vec<i64> =
                ix.search(&window).unwrap().iter().map(|pk| pk[0].as_i64().unwrap()).collect();
            hits.sort_unstable();
            let missing: Vec<usize> = (0..done)
                .step_by(10)
                .filter(|i| hits.binary_search(&(*i as i64)).is_err())
                .collect();
            assert!(missing.is_empty(), "search {searches} lost {missing:?} of {done}");
            searches += 1;
            if done == TOTAL {
                break searches;
            }
        }
    });
    assert!(ix.lsm().metrics().flushes.get() >= 10, "{}", ix.lsm().metrics().flushes.get());
    assert!(searches > 1);
}
