//! Dataset-runtime behaviors below the AQL surface: partition routing,
//! key coercion, index backfill, storage accounting, and direct storage
//! reads.

use std::sync::Arc;

use asterix_adm::Value;
use asterixdb::{ClusterConfig, Instance};

fn setup() -> (Arc<Instance>, asterix_testkit::TempDir) {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let instance = Instance::open(ClusterConfig::small(dir.path())).unwrap();
    instance
        .execute(
            r#"
        create dataverse U;
        use dataverse U;
        create type T as open { id: int32, v: int64, text: string };
        create dataset D(T) primary key id;
    "#,
        )
        .unwrap();
    (instance, dir)
}

#[test]
fn hash_partitioning_spreads_and_routes_records() {
    let (instance, _d) = setup();
    let ds = instance.dataset("D").unwrap();
    let scan_partition = |p: usize| {
        let mut records = Vec::new();
        ds.scan_partition_raw(p, &mut |row| {
            records.push(asterix_adm::decode_tuple(row).unwrap().remove(0));
            true
        })
        .unwrap();
        records
    };
    for i in 0..200i64 {
        ds.insert(
            &asterix_adm::parse::parse_value(&format!(
                "{{ \"id\": {i}, \"v\": {i}, \"text\": \"x\" }}"
            ))
            .unwrap(),
        )
        .unwrap();
    }
    // All partitions hold data, the counts sum, and point reads route to
    // the partition that owns the key.
    let mut total = 0;
    let mut nonempty = 0;
    for p in 0..ds.partitions() {
        let n = scan_partition(p).len();
        total += n;
        if n > 0 {
            nonempty += 1;
        }
    }
    assert_eq!(total, 200);
    assert_eq!(nonempty, ds.partitions(), "every partition owns a share");
    for i in [0i64, 13, 77, 199] {
        let pk = ds.coerce_pk(&[Value::Int64(i)]);
        let p = ds.partition_of(&pk);
        // The owning partition holds the key, and no other does.
        for q in 0..ds.partitions() {
            let holds = scan_partition(q).iter().any(|r| r.field("id") == pk[0]);
            assert_eq!(holds, q == p, "key {i} in partition {q}");
        }
    }
}

#[test]
fn pk_coercion_matches_declared_width() {
    let (instance, _d) = setup();
    let ds = instance.dataset("D").unwrap();
    ds.insert(
        &asterix_adm::parse::parse_value("{ \"id\": 7, \"v\": 1, \"text\": \"a\" }").unwrap(),
    )
    .unwrap();
    // The declared pk type is int32; an int64 probe must still hit.
    assert!(ds.get(&[Value::Int64(7)]).unwrap().is_some());
    assert!(ds.get(&[Value::Int32(7)]).unwrap().is_some());
    assert!(ds.get(&[Value::Int64(8)]).unwrap().is_none());
}

#[test]
fn index_backfill_covers_existing_records() {
    let (instance, _d) = setup();
    let ds = instance.dataset("D").unwrap();
    for i in 0..50i64 {
        ds.insert(
            &asterix_adm::parse::parse_value(&format!(
                "{{ \"id\": {i}, \"v\": {}, \"text\": \"t\" }}",
                i % 5
            ))
            .unwrap(),
        )
        .unwrap();
    }
    // Create the index *after* the data exists: backfill must cover it.
    instance.execute("use dataverse U; create index vIdx on D(v);").unwrap();
    let rows = instance.query("for $d in dataset D where $d.v = 2 return $d.id;").unwrap();
    assert_eq!(rows.len(), 10);
    let (plan, _) = instance.explain("for $d in dataset D where $d.v = 2 return $d.id;").unwrap();
    assert!(plan.contains("vIdx"), "{plan}");
}

#[test]
fn deletes_clean_secondary_indexes() {
    let (instance, _d) = setup();
    instance.execute("use dataverse U; create index vIdx on D(v);").unwrap();
    let ds = instance.dataset("D").unwrap();
    for i in 0..20i64 {
        ds.insert(
            &asterix_adm::parse::parse_value(&format!(
                "{{ \"id\": {i}, \"v\": 1, \"text\": \"t\" }}"
            ))
            .unwrap(),
        )
        .unwrap();
    }
    for i in 0..10i64 {
        assert!(ds.delete_by_pk(&[Value::Int64(i)]).unwrap());
    }
    // Deleting a missing key reports false, not an error.
    assert!(!ds.delete_by_pk(&[Value::Int64(999)]).unwrap());
    let rows = instance.query("for $d in dataset D where $d.v = 1 return $d.id;").unwrap();
    assert_eq!(rows.len(), 10, "index must not return deleted records");
}

#[test]
fn storage_accounting_grows_and_flushes() {
    let (instance, _d) = setup();
    let ds = instance.dataset("D").unwrap();
    let before = ds.size_bytes();
    for i in 0..500i64 {
        ds.insert(
            &asterix_adm::parse::parse_value(&format!(
                "{{ \"id\": {i}, \"v\": {i}, \"text\": \"payload payload payload\" }}"
            ))
            .unwrap(),
        )
        .unwrap();
    }
    let in_memory = ds.size_bytes();
    assert!(in_memory > before);
    ds.flush_all().unwrap();
    let on_disk = ds.size_bytes();
    assert!(on_disk > 0);
    assert_eq!(ds.count().unwrap(), 500);
}

#[test]
fn validation_rejects_wrong_types_on_insert_path() {
    let (instance, _d) = setup();
    let ds = instance.dataset("D").unwrap();
    // v declared int64; a string is rejected.
    let bad =
        asterix_adm::parse::parse_value("{ \"id\": 1, \"v\": \"nope\", \"text\": \"x\" }").unwrap();
    assert!(ds.insert(&bad).is_err());
    // Missing pk rejected.
    let no_pk = asterix_adm::parse::parse_value("{ \"v\": 4, \"text\": \"x\" }").unwrap();
    assert!(ds.insert(&no_pk).is_err());
    assert_eq!(ds.count().unwrap(), 0);
}

/// The batched fetch routes every key to its owning partition, answers
/// repeated and uncoerced keys, skips absent ones, reports each result
/// under the position of the key that asked, and stops when told to —
/// with the rows on disk (columnar), in memory, or deleted.
#[test]
fn batched_fetch_routes_dedups_and_reports_positions() {
    use asterix_storage::Projection;
    let (instance, _d) = setup();
    let ds = instance.dataset("D").unwrap();
    let rec = |i: i64| {
        asterix_adm::parse::parse_value(&format!(
            "{{ \"id\": {i}, \"v\": {}, \"text\": \"t{i}\" }}",
            i * 10
        ))
        .unwrap()
    };
    for i in 0..100 {
        ds.insert(&rec(i)).unwrap();
    }
    ds.flush_all().unwrap();
    for i in 100..120 {
        ds.insert(&rec(i)).unwrap();
    }
    assert!(ds.delete_by_pk(&[Value::Int64(50)]).unwrap());

    // Unsorted, with a repeat (as int32 and int64), absent keys and the
    // deleted one.
    let ids = [77i64, 3, 500, 110, 3, 50, 99, -1, 0];
    let mut pks: Vec<Vec<Value>> = ids.iter().map(|i| vec![Value::Int64(*i)]).collect();
    pks[4] = vec![Value::Int32(3)];
    let enc: Vec<Vec<u8>> = pks.iter().map(|pk| asterix_adm::encode_tuple(pk)).collect();
    let keys = || enc.iter().map(Vec::as_slice);
    let proj = Projection { fields: Some(vec!["v".into()]), filters: Vec::new() };
    let mut got: Vec<(usize, Value)> = Vec::new();
    ds.fetch_projected(keys(), &proj, &mut |i, row| {
        got.push((i, asterix_adm::decode_tuple(row).unwrap().pop().unwrap()));
        Ok(true)
    })
    .unwrap();
    // Per partition the rows arrive in key order.
    let partition = |i: usize| ds.partition_of(&ds.coerce_pk(&pks[i]));
    assert!(got.windows(2).all(|w| partition(w[0].0) < partition(w[1].0)
        || (partition(w[0].0) == partition(w[1].0) && ids[w[0].0] <= ids[w[1].0])));
    got.sort_by_key(|(i, _)| *i);
    let positions: Vec<usize> = got.iter().map(|(i, _)| *i).collect();
    assert_eq!(positions, [0, 1, 3, 4, 6, 8], "500, -1 are absent and 50 is deleted");
    for (i, row) in &got {
        // Only the projected field, from disk and from memory alike.
        let want = format!("{{ \"v\": {} }}", ids[*i] * 10);
        assert_eq!(asterix_adm::print::to_adm_string(row), want);
    }

    // Whole records equal what a point lookup returns.
    let mut whole = Vec::new();
    ds.fetch_projected(keys(), &Projection::all(), &mut |i, row| {
        whole.push((i, asterix_adm::decode_tuple(row).unwrap().pop().unwrap()));
        Ok(true)
    })
    .unwrap();
    assert_eq!(whole.len(), 6);
    for (i, row) in whole {
        assert_eq!(Some(row), ds.get(&pks[i]).unwrap());
    }

    // `Ok(false)` from the visitor ends the fetch, across partitions too.
    let mut seen = 0;
    ds.fetch_projected(keys(), &proj, &mut |_, _| {
        seen += 1;
        Ok(false)
    })
    .unwrap();
    assert_eq!(seen, 1);
}
