//! The instance's public counters, read through `Instance::metrics_json`
//! and flattened to numbers so two snapshots subtract.

use std::collections::BTreeMap;

use asterixdb::Instance;

use crate::json::{self, Json};

/// One reading of the registry. Counters keep their name; a gauge is
/// `name` (value) and `name#peak`; a histogram is `name#count`,
/// `name#sum`, `name#max` and `name#p50`.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    values: BTreeMap<String, f64>,
}

impl Snapshot {
    pub fn take(instance: &Instance) -> Snapshot {
        Snapshot::from_json(&instance.metrics_json()).expect("metrics_json() is valid JSON")
    }

    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let doc = json::parse(text)?;
        let metrics = doc.get("metrics").ok_or("no \"metrics\" member")?;
        let mut values = BTreeMap::new();
        for (name, v) in metrics.members() {
            match v {
                Json::Num(n) => {
                    values.insert(name.clone(), *n);
                }
                Json::Obj(fields) => {
                    for (field, fv) in fields {
                        let Some(n) = fv.num() else { continue };
                        let key =
                            if field == "value" { name.clone() } else { format!("{name}#{field}") };
                        values.insert(key, n);
                    }
                }
                _ => {}
            }
        }
        Ok(Snapshot { values })
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every value whose name starts with `prefix` and ends with
    /// `suffix` (per-shard, per-node and per-partition families).
    pub fn sum(&self, prefix: &str, suffix: &str) -> f64 {
        self.matching(prefix, suffix).map(|(_, v)| v).sum()
    }

    pub fn matching<'a>(
        &'a self,
        prefix: &'a str,
        suffix: &'a str,
    ) -> impl Iterator<Item = (&'a str, f64)> + 'a {
        self.values
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .filter(move |(k, _)| k.ends_with(suffix))
            .map(|(k, v)| (k.as_str(), *v))
    }

    /// `self - earlier`, name by name. Meaningful for counters and
    /// histogram counts/sums; gauges and maxima subtract to nonsense and
    /// are read from a single snapshot instead.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let values = self.values.iter().map(|(k, v)| (k.clone(), v - earlier.get(k))).collect();
        Snapshot { values }
    }

    /// Per-partition values of one primary index's LSM metric, e.g.
    /// `primary_lsm("Perf.MugshotMessages", "flushes")`. Secondary
    /// indexes carry an index name between dataset and partition and are
    /// left out.
    pub fn primary_lsm(&self, dataset: &str, metric: &str) -> Vec<f64> {
        let prefix = format!("lsm.{dataset}.p");
        let suffix = format!(".{metric}");
        self.matching(&prefix, &suffix)
            .filter(|(k, _)| {
                k[prefix.len()..k.len() - suffix.len()].bytes().all(|b| b.is_ascii_digit())
            })
            .map(|(_, v)| v)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"schema_version":1,"metrics":{
        "cache.shard0.hits":10,"cache.shard1.hits":5,"cache.shard0.misses":1,
        "exchange.buffered_frames":{"value":2,"peak":24},
        "rm.queue_wait_us":{"count":4,"sum":8,"max":3,"p50":50,"buckets":[[100,4],[null,0]]},
        "lsm.Perf.MugshotMessages.p0.flushes":3,"lsm.Perf.MugshotMessages.p1.flushes":4,
        "lsm.Perf.MugshotMessages.msAuthorIdx.p0.flushes":9}}"#;

    #[test]
    fn flattens_and_sums_families() {
        let s = Snapshot::from_json(DOC).unwrap();
        assert_eq!(s.sum("cache.", ".hits"), 15.0);
        assert_eq!(s.get("exchange.buffered_frames"), 2.0);
        assert_eq!(s.get("exchange.buffered_frames#peak"), 24.0);
        assert_eq!(s.get("rm.queue_wait_us#sum"), 8.0);
        assert_eq!(s.get("absent"), 0.0);
        assert_eq!(s.primary_lsm("Perf.MugshotMessages", "flushes"), vec![3.0, 4.0]);
    }

    #[test]
    fn snapshots_subtract() {
        let a = Snapshot::from_json(DOC).unwrap();
        let b = Snapshot::from_json(
            &DOC.replace("\"cache.shard0.hits\":10", "\"cache.shard0.hits\":25"),
        )
        .unwrap();
        assert_eq!(b.since(&a).sum("cache.", ".hits"), 15.0);
        assert_eq!(b.since(&a).get("cache.shard0.misses"), 0.0);
    }
}
