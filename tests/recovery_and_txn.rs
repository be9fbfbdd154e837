//! Crash recovery (§4.4's logical logging + shadowing) and record-level
//! transaction behavior under concurrency, exercised through the full
//! stack.

use std::sync::Arc;

use asterix_adm::{Record, Value};
use asterix_storage::keycodec;
use asterix_txn::wal::{LogManager, LogRecord, Lsn, TxnId};
use asterix_txn::Result as TxnResult;
use asterixdb::dataset::{wal_index_code, DatasetRuntime};
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
    fn replay_insert(&mut self, ds: u32, ix: u32, _: Lsn, _: &[u8], _: &[u8]) -> TxnResult<()> {
        *self.0.entry((ds, ix)).or_default() += 1;
        Ok(())
    }

    fn replay_delete(&mut self, ds: u32, ix: u32, _: Lsn, _: &[u8], _: &[u8]) -> TxnResult<()> {
        *self.0.entry((ds, ix)).or_default() += 1;
        Ok(())
    }
}

/// The spatial index pins and releases the log like every LSM index: a
/// flush of everything cuts every flushed update out of the log, recovery
/// replays each update left; a kill and reopen keeps its answers and its
/// `lsm.*` metrics.
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
        let log = instance.config().node_log_path(instance.config().node_of(0));
        let updates = || {
            let records = LogManager::read_all_records(&log).unwrap();
            records.into_iter().filter(|(_, r)| matches!(r, LogRecord::Update { .. })).count()
        };
        assert!(updates() > 0);
        ds.flush_all().unwrap();
        assert_eq!(updates(), 0, "the flush cut every flushed update");
        // Writes the flush did not cover: a move and new records.
        instance.execute("delete $p from dataset Places where $p.id = 33;").unwrap();
        for id in 100..130 {
            insert_place(&instance, id);
        }
        assert!(instance.metrics_json().contains(flushes), "{}", instance.metrics_json());

        let ix = ds.secondary("locIdx").unwrap();
        let code = asterixdb::dataset::wal_index_code(ix.id, 0);
        let records = LogManager::read_all_records(&log).unwrap();
        let is_ix = |d: &u32, i: &u32| (*d, *i) == (ds.id, code);
        let logged = records
            .iter()
            .filter(|(_, r)| matches!(r, LogRecord::Update { dataset, index, .. } if is_ix(dataset, index)))
            .count();
        let mut target = CountingTarget::default();
        let stats = asterix_txn::recover(&log, &mut target).unwrap();
        let replayed = target.0.get(&(ds.id, code)).copied().unwrap_or(0);
        assert!(
            logged > 0 && replayed == logged && stats.skipped_flushed == 0,
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
        ix.insert(point(i), &[Value::Int64(i as i64)], 0).unwrap();
    }
    let inserted = AtomicUsize::new(PRELOADED);
    let searches = std::thread::scope(|s| {
        s.spawn(|| {
            for i in PRELOADED..TOTAL {
                ix.insert(point(i), &[Value::Int64(i as i64)], 0).unwrap();
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

/// Record `id` of `DDL`'s type as dataset `D` stores it: its storage key
/// and its value.
fn stored(ds: &DatasetRuntime, id: i64) -> (Vec<u8>, Vec<u8>) {
    let rec = Value::record(Record::from_fields(vec![
        ("id", Value::Int64(id)),
        ("v", Value::Int64(id)),
        ("tag", Value::string("t")),
    ]));
    let rec = ds.registry.coerce(&rec, &ds.datatype).unwrap();
    let value = asterix_adm::serde::encode_typed(&ds.registry, &rec, &ds.datatype).unwrap();
    (keycodec::encode_key(&[Value::Int64(id)]).unwrap(), value)
}

/// The log record of transaction `txn` inserting record `id` into the
/// primary partition `p` of `ds`.
fn primary_insert(ds: &DatasetRuntime, txn: TxnId, p: usize, id: i64) -> LogRecord {
    let (key, value) = stored(ds, id);
    LogRecord::Update {
        txn,
        dataset: ds.id,
        index: wal_index_code(0, p),
        is_delete: false,
        key,
        value,
    }
}

/// Apply an update logged by [`primary_insert`] under its LSN, as the
/// insert path does after logging it.
fn apply(ds: &DatasetRuntime, rec: &LogRecord, lsn: Lsn) {
    let LogRecord::Update { index, key, value, .. } = rec else { unreachable!() };
    ds.replay(*index, lsn, key, value, false).unwrap();
}

fn present(instance: &Instance, id: i64) -> bool {
    instance.dataset("D").unwrap().get(&[Value::Int64(id)]).unwrap().is_some()
}

/// An update logged before a seal and applied after it lands in the next
/// memory component, so the flush of the sealed one must not claim it
/// durable: L1 appended, L2 appended and applied, seal and flush, L1
/// applied, both commit, a crash — both writes survive.
#[test]
fn an_update_logged_before_a_seal_and_applied_after_it_survives_a_crash() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let b = {
        let instance = open(dir.path());
        instance.execute(DDL).unwrap();
        let ds = instance.dataset("D").unwrap();
        let p = ds.partition_of(&[Value::Int64(1)]);
        let b = (2..).find(|&id| ds.partition_of(&[Value::Int64(id)]) == p).unwrap();
        let wal = instance.node_log(instance.config().node_of(p)).wal();
        let (t1, t2) = (wal.begin(), wal.begin());
        let (r1, r2) = (primary_insert(&ds, t1, p, 1), primary_insert(&ds, t2, p, b));
        let l1 = wal.append(&r1).unwrap();
        let l2 = wal.append(&r2).unwrap();
        apply(&ds, &r2, l2);
        ds.flush_all().unwrap();
        apply(&ds, &r1, l1);
        wal.commit(t1).unwrap();
        wal.commit(t2).unwrap();
        assert!(present(&instance, 1) && present(&instance, b));
        b
        // Killed: dropped without a flush.
    };
    let instance = open(dir.path());
    instance.execute("use dataverse R;").unwrap();
    assert!(present(&instance, 1), "the write applied after the seal was lost");
    assert!(present(&instance, b));
}

/// A flush cuts the log below every active transaction's first record:
/// one that logged an update and has not applied it keeps its record, and
/// its commit after the cut survives a crash.
#[test]
fn the_cut_never_passes_an_active_transactions_first_record() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    {
        let instance = open(dir.path());
        instance.execute(DDL).unwrap();
        for i in 0..50 {
            insert(&instance, i, i);
        }
        let ds = instance.dataset("D").unwrap();
        let p = ds.partition_of(&[Value::Int64(1000)]);
        let node = instance.node_log(instance.config().node_of(p));
        let t = node.wal().begin();
        let rec = primary_insert(&ds, t, p, 1000);
        let lsn = node.wal().append(&rec).unwrap();
        ds.flush_all().unwrap();
        node.wal().force().unwrap();
        assert_eq!(node.cut(), lsn);
        let path = instance.config().node_log_path(instance.config().node_of(p));
        let records = LogManager::read_all_records(&path).unwrap();
        assert_eq!(records.first(), Some(&(lsn, rec.clone())), "the cut dropped what it could");
        apply(&ds, &rec, lsn);
        node.wal().commit(t).unwrap();
    }
    let instance = open(dir.path());
    instance.execute("use dataverse R;").unwrap();
    assert!(present(&instance, 1000));
    assert_eq!(instance.query("for $d in dataset D return $d;").unwrap().len(), 51);
}

/// LSNs go on rising across a cut and a reopen: no record logged after
/// either is mistaken for one a flush already covered.
#[test]
fn lsns_rise_across_a_cut_and_a_reopen() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let log = ClusterConfig::small(dir.path()).node_log_path(0);
    let lsns = || -> Vec<Lsn> {
        LogManager::read_all_records(&log).unwrap().iter().map(|(l, _)| *l).collect()
    };
    let before = {
        let instance = open(dir.path());
        instance.execute(DDL).unwrap();
        for i in 0..40 {
            insert(&instance, i, i);
        }
        let before = *lsns().last().unwrap();
        instance.checkpoint().unwrap();
        assert!(lsns().is_empty(), "{:?}", lsns());
        assert!(instance.node_log(0).wal().floor() > before);
        before
    };
    let instance = open(dir.path());
    instance.execute("use dataverse R;").unwrap();
    for i in 40..80 {
        insert(&instance, i, i);
    }
    let after = lsns();
    assert!(!after.is_empty() && after[0] > before, "{before} then {after:?}");
    drop(instance);
    let instance = open(dir.path());
    instance.execute("use dataverse R;").unwrap();
    assert_eq!(instance.query("for $d in dataset D return $d;").unwrap().len(), 80);
}

/// Writers on every partition while a loop flushes everything, then a
/// crash: every acknowledged write is there after the reopen, and after a
/// final flush the logs hold no update.
#[test]
fn writers_and_a_flush_loop_lose_nothing_across_a_crash() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let dir = asterix_testkit::TempDir::new().unwrap();
    let cfg = ClusterConfig { mem_component_budget: 32 << 10, ..ClusterConfig::small(dir.path()) };
    const WRITERS: i64 = 4;
    const EACH: i64 = 120;
    {
        let instance = Instance::open(cfg.clone()).unwrap();
        instance.execute(DDL).unwrap();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|t| {
                    let instance = &instance;
                    s.spawn(move || {
                        for i in 0..EACH {
                            insert(instance, t * 1000 + i, i);
                            if i % 10 == 9 {
                                let id = t * 1000 + i - 5;
                                instance
                                    .execute(&format!(
                                        "use dataverse R; delete $d from dataset D where $d.id = {id};"
                                    ))
                                    .unwrap();
                            }
                        }
                    })
                })
                .collect();
            s.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    instance.checkpoint().unwrap();
                }
            });
            for w in writers {
                w.join().unwrap();
            }
            done.store(true, Ordering::SeqCst);
        });
        // Killed: dropped without a flush.
    }
    let instance = Instance::open(cfg.clone()).unwrap();
    instance.execute("use dataverse R;").unwrap();
    let ids = sorted_ids(&instance, "for $d in dataset D return $d.id;");
    let want: Vec<i64> = (0..WRITERS)
        .flat_map(|t| (0..EACH).filter(|i| i % 10 != 4).map(move |i| t * 1000 + i))
        .collect();
    assert_eq!(ids, want);
    assert_eq!(sorted_ids(&instance, "for $d in dataset D where $d.v = 3 return $d.id;").len(), 4);
    instance.checkpoint().unwrap();
    for n in 0..cfg.nodes {
        let records = LogManager::read_all_records(&cfg.node_log_path(n)).unwrap();
        assert!(
            !records.iter().any(|(_, r)| matches!(r, LogRecord::Update { .. })),
            "node {n}: {} records",
            records.len()
        );
    }
}

/// `create index` is durable before it returns, so a reopen opens every
/// index as it was: a flushed instance replays no secondary insert, and
/// its indexed answers are the ones it gave before.
#[test]
fn reopening_a_flushed_instance_rebuilds_no_index() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let q = "for $d in dataset D where $d.v = 3 return $d.id;";
    let before = {
        let instance = open(dir.path());
        instance.execute(DDL).unwrap();
        for i in 0..200 {
            insert(&instance, i, i % 10);
        }
        instance.checkpoint().unwrap();
        sorted_ids(&instance, q)
    };
    assert_eq!(before.len(), 20);
    let instance = open(dir.path());
    instance.execute("use dataverse R;").unwrap();
    let ix = instance.dataset("D").unwrap().secondary("vIdx").unwrap();
    for part in &ix.partitions {
        let lsm = part.lsm();
        assert!(lsm.disk_component_count() > 0);
        assert_eq!((lsm.mem_bytes(), lsm.metrics().flushes.get()), (0, 0), "an index was rebuilt");
    }
    let (plan, _) = instance.explain(q).unwrap();
    assert!(plan.contains("vIdx"), "{plan}");
    assert_eq!(sorted_ids(&instance, q), before);
}

/// An index created over records that live only in memory and the log,
/// then a crash: its backfill was flushed before the statement returned,
/// so the reopened index answers.
#[test]
fn an_index_created_right_before_a_crash_answers_after_reopen() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let q = "for $d in dataset D where $d.v = 3 return $d.id;";
    {
        let instance = open(dir.path());
        instance.execute(DDL).unwrap();
        instance.execute("use dataverse R; drop index D.vIdx;").unwrap();
        for i in 0..100 {
            insert(&instance, i, i % 10);
        }
        instance.execute("use dataverse R; create index vIdx on D(v);").unwrap();
    }
    let instance = open(dir.path());
    instance.execute("use dataverse R;").unwrap();
    let (plan, _) = instance.explain(q).unwrap();
    assert!(plan.contains("vIdx"), "{plan}");
    assert_eq!(sorted_ids(&instance, q), (0..10).map(|i| i * 10 + 3).collect::<Vec<_>>());
}

/// Every directory under `root` whose name starts with `prefix`.
fn dirs_named(root: &std::path::Path, prefix: &str, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(root).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().unwrap().to_string_lossy().starts_with(prefix) {
                out.push(path.clone());
            }
            dirs_named(&path, prefix, out);
        }
    }
}

/// The one index a reopen rebuilds: a partition with no valid component
/// while its primary partition holds records.
#[test]
fn an_index_directory_emptied_by_hand_is_rebuilt() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let q = "for $d in dataset D where $d.v = 3 return $d.id;";
    {
        let instance = open(dir.path());
        instance.execute(DDL).unwrap();
        for i in 0..100 {
            insert(&instance, i, i % 10);
        }
        instance.checkpoint().unwrap();
    }
    let mut ix_dirs = Vec::new();
    dirs_named(dir.path(), "vIdx#", &mut ix_dirs);
    assert_eq!(ix_dirs.len(), 4, "{ix_dirs:?}");
    for d in &ix_dirs {
        for f in std::fs::read_dir(d).unwrap() {
            std::fs::remove_file(f.unwrap().path()).unwrap();
        }
    }
    let instance = open(dir.path());
    instance.execute("use dataverse R;").unwrap();
    let ix = instance.dataset("D").unwrap().secondary("vIdx").unwrap();
    assert!(ix.partitions.iter().all(|p| p.lsm().disk_component_count() > 0));
    assert_eq!(sorted_ids(&instance, q), (0..10).map(|i| i * 10 + 3).collect::<Vec<_>>());
}

/// The log's size and its cuts are metrics like any other: AQL over
/// `Metadata.Metrics` reads them before and after a flush.
#[test]
fn the_logs_size_and_cuts_read_from_metadata_metrics() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let instance = open(dir.path());
    instance.execute(DDL).unwrap();
    for i in 0..60 {
        insert(&instance, i, i);
    }
    let metric = |name: &str| -> i64 {
        let q = format!(
            "for $m in dataset Metadata.Metrics where $m.Name = \"{name}\" return $m.Value;"
        );
        let rows = instance.query(&q).unwrap();
        assert_eq!(rows.len(), 1, "{name}");
        rows[0].as_i64().unwrap()
    };
    let file =
        |n: usize| std::fs::metadata(instance.config().node_log_path(n)).unwrap().len() as i64;
    let before: Vec<i64> = (0..2).map(|n| metric(&format!("wal.node{n}.bytes"))).collect();
    assert_eq!(before, vec![file(0), file(1)]);
    assert!(before.iter().all(|b| *b > 1000), "{before:?}");
    assert_eq!(metric("wal.node0.truncations") + metric("wal.node1.truncations"), 0);
    instance.dataset("D").unwrap().flush_all().unwrap();
    for (n, before) in before.iter().enumerate() {
        let bytes = metric(&format!("wal.node{n}.bytes"));
        assert_eq!(bytes, file(n));
        assert!(bytes < 100, "node {n}: {bytes} bytes left");
        assert!(metric(&format!("wal.node{n}.truncations")) >= 1);
        assert!(metric(&format!("wal.node{n}.truncated_bytes")) >= before - bytes);
    }
}
