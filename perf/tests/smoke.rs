//! `--smoke` through the library: every workload end to end and traced,
//! the output schema, the trace file, and `BENCHMARK.json` against the
//! names the driver reports.

use std::path::PathBuf;

use asterix_perf::env::default_data_root;
use asterix_perf::json::{self, Json};
use asterix_perf::report::{per_layer_names, Outcome, END_TO_END};
use asterix_perf::run::{run, Options};
use asterix_perf::workloads::Workload;

fn smoke(workload: Workload, trace: bool, trace_out: Option<PathBuf>) -> Outcome {
    let opts = Options {
        workload,
        seed: 3,
        seconds: 0.45,
        trace,
        trace_out,
        smoke: true,
        data_root: default_data_root(),
        host_cpus: 0,
        pinned_cpu: None,
    };
    run(&opts).unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", workload.name()))
}

/// The result line parsed back, checked for the contract's shape.
fn checked_metrics(outcome: &Outcome, names: &[(String, &'static str)]) -> Vec<(String, f64)> {
    assert!(outcome.correct && outcome.failed == 0 && outcome.attempted >= 1);
    let line = outcome.result_line();
    assert!(!line.contains('\n'));
    let doc = json::parse(&line).expect("result line is JSON");
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = doc.get("metrics").unwrap().members();
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = names.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, want);
    let mut out = Vec::new();
    for ((name, m), (_, unit)) in metrics.iter().zip(names) {
        assert_eq!(m.get("unit").and_then(Json::str), Some(*unit), "{name}");
        let v = m.get("value").and_then(Json::num).unwrap_or_else(|| panic!("{name}: no value"));
        assert!(v.is_finite(), "{name} = {v}");
        out.push((name.clone(), v));
    }
    json::parse(&outcome.details).expect("details line is JSON");
    out
}

#[test]
fn every_workload_runs_end_to_end_and_reports_the_six_metrics() {
    let names: Vec<(String, &'static str)> =
        END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for workload in Workload::ALL {
        let outcome = smoke(workload, false, None);
        for (name, v) in checked_metrics(&outcome, &names) {
            assert!(v > 0.0, "{}: {name} = {v}", workload.name());
        }
        let details = json::parse(&outcome.details).unwrap();
        assert_eq!(details.get("workload").and_then(Json::str), Some(workload.name()));
        assert!(!details.get("guards").unwrap().items().is_empty());
    }
}

#[test]
fn traced_runs_report_every_layer_metric_and_write_a_sound_trace() {
    let names = per_layer_names();
    for workload in Workload::ALL {
        let path = default_data_root().join(format!("smoke-trace-{}.json", workload.name()));
        let outcome = smoke(workload, true, Some(path.clone()));
        let metrics = checked_metrics(&outcome, &names);
        let value = |n: &str| metrics.iter().find(|(k, _)| k == n).unwrap().1;
        for always in [
            "net.bytes_out_per_op",
            "asterixdb.execute_inproc_us",
            "asterixdb.compile_hot_us",
            "algebricks.compile_cold_us",
            "hyracks.empty_job_us",
            "storage.get_us",
            "storage.scan_rows_per_s",
            "storage.insert_us",
            "adm.record_encode_ns",
            "txn.wal_appends_per_record",
            "txn.recovery_s",
            "obs.metrics_snapshot_us",
            "client.lat_p99_ms",
        ] {
            assert!(value(always) > 0.0, "{}: {always} = {}", workload.name(), value(always));
        }
        if workload == Workload::IngestMixed {
            assert!(value("aql.parse_us") > 0.0);
            assert!(value("shape.insert_batch20.p50_ms") > 0.0);
        } else {
            assert_eq!(value("aql.parse_us"), 0.0);
        }
        assert_eq!(value("net.wire_errors"), 0.0);

        let text = std::fs::read_to_string(&path).expect("trace file written");
        std::fs::remove_file(&path).ok();
        let doc = json::parse(&text).expect("trace file is JSON");
        let spans: Vec<&Json> = doc
            .get("traceEvents")
            .expect("traceEvents")
            .items()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::str) == Some("X"))
            .collect();
        assert!(!spans.is_empty());
        let arg = |s: &Json, k: &str| s.get("args").and_then(|a| a.get(k)).and_then(Json::num);
        let by_id: std::collections::HashMap<u64, &Json> =
            spans.iter().map(|s| (arg(s, "span_id").expect("span_id") as u64, *s)).collect();
        assert_eq!(by_id.len(), spans.len(), "span ids are unique");
        let mut rungs_below_the_wire = 0;
        for s in &spans {
            assert!(s.get("dur").and_then(Json::num).is_some_and(|d| d >= 0.0));
            let Some(parent) = arg(s, "parent") else { continue };
            let parent = by_id.get(&(parent as u64)).expect("every span's parent exists");
            assert_eq!(arg(parent, "op_id"), arg(s, "op_id"), "rungs of an op share op_id");
            rungs_below_the_wire += 1;
        }
        assert!(rungs_below_the_wire > 0);
    }
}

#[test]
fn benchmark_json_names_what_the_driver_reports() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(&text).unwrap();
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    let names_of = |list: &str| -> Vec<(String, String)> {
        doc.get(list)
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::str).unwrap_or_default().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let workloads: Vec<String> = names_of("workloads").into_iter().map(|(n, _)| n).collect();
    let want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, want);
    for w in doc.get("workloads").unwrap().items() {
        let why = w.get("why").and_then(Json::str).unwrap();
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'), "{why}");
    }

    let want: Vec<(String, String)> =
        END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(names_of("end_to_end"), want);
    for m in doc.get("end_to_end").unwrap().items() {
        let bound = m.get("bound").and_then(Json::num).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let want: Vec<(String, String)> =
        per_layer_names().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    assert_eq!(names_of("per_layer"), want);
    assert!(want.len() <= 128);

    let seconds = doc.get("run_seconds").and_then(Json::num).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    assert_eq!(doc.get("paths").unwrap().items(), [Json::Str("perf".into())]);
}
