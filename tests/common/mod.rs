//! Helpers shared by the integration suites (`mod common;`).

use std::collections::HashSet;
use std::sync::Arc;

use asterix_adm::Value;
use asterix_algebricks::metadata::{MetadataProvider, ScanFilter, ScanProjection};
use asterix_hyracks::{FilterConsult, FilterFactory, FilterStats, KeyTest, RuntimeFilterHub};
use asterixdb::Instance;

/// The records (cut down to `fields`) a scan of `dataset` lets through
/// when it is asked for partners of `key_field` among `build_keys` — under
/// an exact filter published before the scan starts, which a running join
/// cannot promise: what the test inside the scan decides, made repeatable.
pub fn scan_with_published_partners(
    instance: &Instance,
    dataset: &str,
    key_field: &str,
    fields: &[&str],
    build_keys: &[Value],
) -> Vec<Value> {
    let nparts = instance.config().partitions();
    let exact: FilterFactory = Arc::new(|hashes: &[u64]| {
        let set: HashSet<u64> = hashes.iter().copied().collect();
        Arc::new(move |h| set.contains(&h)) as KeyTest
    });
    let hub = RuntimeFilterHub::new(1, Some(exact), FilterStats::default());
    let hashes: Vec<u64> = build_keys
        .iter()
        .map(|k| {
            let key = asterix_adm::serde::encode(k);
            asterix_hyracks::hash_encoded_key(asterix_adm::ValueRef::new(&key))
        })
        .collect();
    // What each build partition of the join would publish.
    for p in 0..nparts {
        let routed: Vec<u64> =
            hashes.iter().copied().filter(|h| (h % nparts as u64) as usize == p).collect();
        hub.publish(0, p, &routed);
    }
    let partner =
        ScanFilter::Partner { field: key_field.into(), filter_id: 0, join_nparts: nparts };
    let projection = ScanProjection {
        fields: Some(fields.iter().map(|f| f.to_string()).collect()),
        filters: vec![partner],
    };
    let provider = asterixdb::provider::InstanceProvider { shared: instance.shared_state() };
    let scan = provider.raw_scan_source(dataset, &projection).unwrap().expect("a stored dataset");
    let mut rows = Vec::new();
    for partition in 0..nparts {
        let mut consult = FilterConsult::new(&hub, 0, nparts);
        (scan.source)(partition, nparts, Some(&mut consult), &mut |tuple| {
            rows.extend(asterix_adm::decode_tuple(tuple).unwrap());
            Ok(())
        })
        .unwrap();
    }
    rows
}
