//! Metric names and units — the one list `BENCHMARK.json`, the README and
//! the output agree on — and the result line a run prints.

use crate::json::{escape, number};
use crate::shapes::all_shape_names;

/// End-to-end metrics, the same six on every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("cpu_s_per_kop", "s"),
    ("peak_rss_mb", "MiB"),
    ("stored_bytes_per_user_byte", "B/B"),
];

/// Per-layer metrics with a fixed name; layer = crate name. The 22
/// `shape.<name>.p50_ms` follow them in the output.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("net.round_trip_overhead_us", "us"),
    ("net.bytes_out_per_op", "B"),
    ("net.bytes_in_per_op", "B"),
    ("net.wire_errors", "count"),
    ("adm.result_encode_us_per_krow", "us"),
    ("adm.result_decode_us_per_krow", "us"),
    ("adm.record_encode_ns", "ns"),
    ("adm.record_decode_ns", "ns"),
    ("aql.parse_us", "us"),
    ("aql.normalize_us", "us"),
    ("algebricks.compile_cold_us", "us"),
    ("asterixdb.compile_hot_us", "us"),
    ("asterixdb.plan_cache_hit_rate", "ratio"),
    ("asterixdb.execute_inproc_us", "us"),
    ("rm.ticket_us", "us"),
    ("rm.queue_wait_us_p50", "us"),
    ("rm.rejected", "count"),
    ("hyracks.empty_job_us", "us"),
    ("hyracks.execute_phase_us", "us"),
    ("hyracks.frames_sent_per_op", "count"),
    ("hyracks.tuples_sent_per_op", "count"),
    ("hyracks.bytes_sent_per_op", "B"),
    ("hyracks.tuples_sent_per_result_row", "ratio"),
    ("hyracks.backpressure_stalls", "count"),
    ("hyracks.pipeline_busy_us_per_op", "us"),
    ("hyracks.filter_pruned_share", "ratio"),
    ("storage.get_us", "us"),
    ("storage.scan_rows_per_s", "1/s"),
    ("storage.cache_hit_rate", "ratio"),
    ("storage.cache_misses_per_op", "count"),
    ("storage.columnar_bytes_skipped_per_op", "B"),
    ("storage.insert_us", "us"),
    ("storage.flush_all_ms", "ms"),
    ("storage.flushes", "count"),
    ("storage.merges", "count"),
    ("storage.flush_ms_total", "ms"),
    ("storage.merge_ms_total", "ms"),
    ("storage.components_final", "count"),
    ("storage.data_bytes_per_user_byte", "B/B"),
    ("storage.bytes_written_per_user_byte", "B/B"),
    ("txn.wal_appends_per_record", "ratio"),
    ("txn.wal_forces", "count"),
    ("txn.wal_bytes_per_user_byte", "B/B"),
    ("txn.recovery_s", "s"),
    ("obs.profile_overhead_pct", "%"),
    ("obs.metrics_snapshot_us", "us"),
    ("client.lat_p99_ms", "ms"),
    ("client.lat_max_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

pub fn shape_metric(shape: &str) -> String {
    format!("shape.{shape}.p50_ms")
}

/// Every per-layer metric name with its unit, in output order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    names.extend(all_shape_names().into_iter().map(|s| (shape_metric(s), "ms")));
    names
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Values gathered under metric names; [`Metrics::in_order`] lays them
/// out against a name list, filling what a workload does not exercise
/// with 0.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// One [`Metric`] per `(name, unit)`, in that order. A value set under
    /// a name not in `names` is a bug in the driver.
    pub fn in_order<'a>(
        &self,
        names: impl IntoIterator<Item = (&'a str, &'static str)>,
    ) -> Vec<Metric> {
        let out: Vec<Metric> = names
            .into_iter()
            .map(|(name, unit)| Metric {
                name: name.to_string(),
                unit,
                value: self.get(name).unwrap_or(0.0),
            })
            .collect();
        for (n, _) in &self.values {
            assert!(out.iter().any(|m| m.name == *n), "metric {n} is not in the name list");
        }
        out
    }
}

/// What one invocation found.
#[derive(Debug)]
pub struct Outcome {
    /// Every operation succeeded with the oracle's answer.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// A JSON object describing the run: environment, sizes, sample
    /// counts, guards, and for a traced run the ladder.
    pub details: String,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    escape(&m.name),
                    number(m.value),
                    escape(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer_names().into_iter().map(|(n, _)| n));
        assert_eq!(per_layer_names().len(), 71);
        let ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for n in &names {
            assert!(ok(n), "{n}");
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 77);
        for (_, unit) in END_TO_END.iter().copied().chain(PER_LAYER) {
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.25);
        m.set("ops_per_s", 1000.5);
        let o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: m.in_order(END_TO_END),
            details: "{}".into(),
        };
        let doc = json::parse(&o.result_line()).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.members().len(), 6);
        assert_eq!(metrics.get("setup_s").unwrap().get("value").unwrap().num(), Some(1.25));
        assert_eq!(metrics.get("setup_s").unwrap().get("unit").unwrap().str(), Some("s"));
        assert_eq!(metrics.get("peak_rss_mb").unwrap().get("value").unwrap().num(), Some(0.0));
    }
}
