//! `perf-agree`: do two sets of runs of the benchmark agree?
//!
//! A set is a directory of files, each the captured standard output of
//! one `asterix-perf` run (its last line the result object, the line
//! before it the description naming the workload). For every workload ×
//! metric the table gives each set's median, quartiles and spreads, and
//! how far the second set's median is from the first's; the verdict
//! fails when that distance, in the direction that is worse, exceeds the
//! metric's bound in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Json};
use crate::stats::{median, quartiles};

/// `name → (bound, higher_is_better)` for the gated metrics; ungated
/// metrics are absent.
pub type Bounds = BTreeMap<String, (f64, bool)>;

/// The bounds of the `end_to_end` metrics of a `BENCHMARK.json`.
pub fn read_bounds(benchmark_json: &str) -> Result<Bounds, String> {
    let doc = json::parse(benchmark_json)?;
    let mut bounds = Bounds::new();
    for m in doc.get("end_to_end").ok_or("no end_to_end list")?.items() {
        let name = m.get("name").and_then(Json::str).ok_or("metric without a name")?;
        let bound = m.get("bound").and_then(Json::num).ok_or("metric without a bound")?;
        let higher = m.get("better").and_then(Json::str) == Some("higher");
        bounds.insert(name.to_string(), (bound, higher));
    }
    Ok(bounds)
}

/// `workload → metric → values`, one value per run.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Add one run's captured output to `set`.
pub fn add_run(set: &mut RunSet, output: &str) -> Result<(), String> {
    let mut lines = output.lines().rev().filter(|l| !l.trim().is_empty());
    let result = json::parse(lines.next().ok_or("empty output")?)?;
    let details = json::parse(lines.next().ok_or("no description line")?)?;
    let workload = details.get("workload").and_then(Json::str).ok_or("no workload name")?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("a run of {workload} is not correct"));
    }
    let by_metric = set.entry(workload.to_string()).or_default();
    for (name, m) in result.get("metrics").ok_or("no metrics")?.members() {
        let v = m.get("value").and_then(Json::num).ok_or("metric without a value")?;
        by_metric.entry(name.clone()).or_default().push(v);
    }
    Ok(())
}

/// Every regular file of `dir` as one run.
pub fn read_set(dir: &Path) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    for p in paths {
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        add_run(&mut set, &text).map_err(|e| format!("{}: {e}", p.display()))?;
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// (q3 − q1) / median
    pub iqr_share: f64,
    /// (max − min) / median
    pub range_share: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let med = median(values);
    let (q1, q3) = quartiles(values).unwrap_or((med, med));
    let (min, max) =
        values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let share = |x: f64| if med != 0.0 { x / med.abs() } else { 0.0 };
    Summary {
        n: values.len(),
        median: med,
        q1,
        q3,
        iqr_share: share(q3 - q1),
        range_share: share(max - min),
    }
}

/// The comparison table (Markdown) and whether the sets agree.
pub fn compare(a: &RunSet, b: &RunSet, bounds: &Bounds) -> (String, bool) {
    let mut out = String::from(
        "| workload | metric | set | n | median | q1 | q3 | IQR/median | (max-min)/median | \
         B vs A | bound | verdict |\n|---|---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut agree = true;
    for (workload, metrics_a) in a {
        let Some(metrics_b) = b.get(workload) else {
            let _ = writeln!(out, "| {workload} | | B | 0 | | | | | | | | missing |");
            agree = false;
            continue;
        };
        for (metric, values_a) in metrics_a {
            let Some(values_b) = metrics_b.get(metric) else { continue };
            let (sa, sb) = (summarize(values_a), summarize(values_b));
            let delta = if sa.median != 0.0 { sb.median / sa.median - 1.0 } else { 0.0 };
            let (bound_text, verdict) = match bounds.get(metric) {
                None => ("".to_string(), "ungated"),
                Some(&(bound, higher_is_better)) => {
                    let worse = if higher_is_better { -delta } else { delta };
                    let spread = sa.iqr_share.max(sb.iqr_share);
                    let verdict = if worse > bound {
                        agree = false;
                        "DISAGREE"
                    } else if metric != "setup_s" && spread > bound / 2.0 {
                        "agree, spread over half the bound"
                    } else {
                        "agree"
                    };
                    (format!("{:.1} %", bound * 100.0), verdict)
                }
            };
            for (label, s) in [("A", sa), ("B", sb)] {
                let last = label == "B";
                let _ = writeln!(
                    out,
                    "| {workload} | {metric} | {label} | {} | {:.6} | {:.6} | {:.6} | {:.2} % | {:.2} % | {} | {} | {} |",
                    s.n,
                    s.median,
                    s.q1,
                    s.q3,
                    s.iqr_share * 100.0,
                    s.range_share * 100.0,
                    if last { format!("{:+.2} %", delta * 100.0) } else { String::new() },
                    if last { bound_text.as_str() } else { "" },
                    if last { verdict } else { "" },
                );
            }
        }
    }
    (out, agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, ops: f64, setup: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\"}}\n{{\"correct\":true,\"attempted\":1,\"failed\":0,\
             \"metrics\":{{\"ops_per_s\":{{\"value\":{ops},\"unit\":\"1/s\"}},\
             \"setup_s\":{{\"value\":{setup},\"unit\":\"s\"}}}}}}\n"
        )
    }

    const BENCHMARK: &str = r#"{"end_to_end":[
        {"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.07},
        {"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#;

    fn set(ops: &[f64]) -> RunSet {
        let mut s = RunSet::new();
        for &o in ops {
            add_run(&mut s, &run("w", o, 1.0)).unwrap();
        }
        s
    }

    #[test]
    fn sets_within_the_bound_agree_and_beyond_it_do_not() {
        let bounds = read_bounds(BENCHMARK).unwrap();
        assert_eq!(bounds["ops_per_s"], (0.07, true));
        let a = set(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let (table, ok) = compare(&a, &set(&[97.0, 98.0, 96.0, 97.5, 96.5]), &bounds);
        assert!(ok, "{table}");
        assert!(table.contains("-3.00 %"), "{table}");
        // 10 % fewer operations per second is worse than the 7 % bound...
        let (table, ok) = compare(&a, &set(&[90.0, 91.0, 89.0, 90.5, 89.5]), &bounds);
        assert!(!ok && table.contains("DISAGREE"), "{table}");
        // ...and 10 % more is not a regression at all.
        let (_, ok) = compare(&a, &set(&[110.0, 111.0, 109.0, 110.5, 109.5]), &bounds);
        assert!(ok);
    }

    #[test]
    fn wide_spread_is_flagged_and_bad_runs_are_refused() {
        let bounds = read_bounds(BENCHMARK).unwrap();
        let wide = set(&[100.0, 90.0, 110.0, 95.0, 105.0]);
        let (table, ok) = compare(&wide, &wide, &bounds);
        assert!(ok && table.contains("spread over half the bound"), "{table}");
        let mut s = RunSet::new();
        let bad = run("w", 1.0, 1.0).replace("\"correct\":true", "\"correct\":false");
        assert!(add_run(&mut s, &bad).is_err());
        assert!(add_run(&mut s, "").is_err());
        let (_, ok) = compare(&wide, &RunSet::new(), &bounds);
        assert!(!ok);
    }

    #[test]
    fn summary_uses_the_contract_quartiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.median, s.q1, s.q3), (5.5, 2.75, 8.25));
        assert!((s.iqr_share - 1.0).abs() < 1e-12);
    }
}
