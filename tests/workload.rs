//! Workload-manager integration tests: admission control bounding
//! concurrent queries, typed rejection when the wait queue is full, and
//! cooperative cancellation / deadlines unwinding running queries without
//! leaking memory grants or spill files.

use std::sync::Arc;
use std::time::{Duration, Instant};

use asterixdb::{AdmissionError, AsterixError, ClusterConfig, Instance, JobState, QueryOpts};

fn instance_with(
    dir: &std::path::Path,
    tune: impl FnOnce(&mut ClusterConfig),
) -> std::sync::Arc<Instance> {
    let mut cfg = ClusterConfig::small(dir);
    tune(&mut cfg);
    Instance::open(cfg).unwrap()
}

/// Create dataverse `W` with dataset `Big` holding `rows` padded records in
/// three groups, so a self-join on `grp` fans out to (rows/3)^2 * 3 pairs.
fn load_big(ins: &Instance, rows: usize) {
    ins.execute(
        r#"
        create dataverse W;
        use dataverse W;
        create type R as open { id: int64, grp: int64, pad: string };
        create dataset Big(R) primary key id;
    "#,
    )
    .unwrap();
    for start in (0..rows).step_by(300) {
        let objs: Vec<String> = (start..(start + 300).min(rows))
            .map(|i| {
                format!("{{ \"id\": {i}, \"grp\": {}, \"pad\": \"{}\" }}", i % 3, "x".repeat(40))
            })
            .collect();
        ins.execute(&format!("insert into dataset Big ([{}]);", objs.join(", "))).unwrap();
    }
}

/// A query heavy enough (self-join fan-out plus a large sort) that it is
/// reliably still running when the test cancels it.
const HEAVY: &str = r#"for $a in dataset Big
for $b in dataset Big
where $a.grp = $b.grp
order by $a.id
return { "a": $a.id, "b": $b.id };"#;

/// Spin until the workload manager shows a Running job, then return it.
fn wait_for_running(ins: &Instance) -> asterixdb::JobInfo {
    let start = Instant::now();
    loop {
        if let Some(j) = ins.list_jobs().into_iter().find(|j| j.state == JobState::Running) {
            return j;
        }
        assert!(start.elapsed() < Duration::from_secs(10), "query never reached Running");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn admission_caps_concurrent_queries() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance_with(dir.path(), |cfg| {
        cfg.max_concurrent_queries = 2;
        cfg.max_queued_queries = 64;
        cfg.admission_timeout = Duration::from_secs(60);
    });
    load_big(&ins, 60);
    let mut handles = Vec::new();
    for _ in 0..6 {
        let ins = Arc::clone(&ins);
        handles.push(std::thread::spawn(move || {
            ins.query("for $x in dataset Big where $x.grp = 1 return $x.id;")
        }));
    }
    for h in handles {
        let rows = h.join().unwrap().unwrap();
        assert_eq!(rows.len(), 20);
    }
    let stats = ins.resource_manager().stats();
    // The six query threads (plus the sequential setup statements) were all
    // admitted, but never more than two executed at once.
    assert!(stats.admitted.get() >= 6);
    assert!(stats.running.peak() <= 2, "admission cap exceeded: peak {}", stats.running.peak());
    assert_eq!(stats.rejected.get(), 0);
    assert!(ins.list_jobs().is_empty());
}

#[test]
fn admission_rejects_when_queue_is_full() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance_with(dir.path(), |cfg| {
        cfg.max_concurrent_queries = 1;
        cfg.max_queued_queries = 0;
    });
    load_big(&ins, 900);
    let runner = {
        let ins = Arc::clone(&ins);
        std::thread::spawn(move || ins.query(HEAVY))
    };
    let hog = wait_for_running(&ins);
    // One slot, zero queue capacity: the next query is rejected outright
    // with a typed error rather than blocking.
    match ins.query("for $x in dataset Big return $x.id;") {
        Err(AsterixError::Admission(AdmissionError::Rejected { queued, max_queued })) => {
            assert_eq!((queued, max_queued), (0, 0));
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert!(ins.resource_manager().stats().rejected.get() >= 1);
    // Put the hog out of its misery and confirm it unwound as cancelled.
    assert!(ins.cancel(hog.id));
    match runner.join().unwrap() {
        Err(AsterixError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn cancel_and_deadline_unwind_without_leaks() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance_with(dir.path(), |cfg| {
        // A tiny per-query grant forces the heavy join/sort to spill, so
        // this also exercises spill-file cleanup on the cancel path.
        cfg.per_query_mem_bytes = 2 << 20;
    });
    load_big(&ins, 1500);

    // Part 1: explicit cancel of a running query.
    let runner = {
        let ins = Arc::clone(&ins);
        std::thread::spawn(move || ins.query(HEAVY))
    };
    let victim = wait_for_running(&ins);
    assert!(victim.mem_granted > 0, "running job should hold a grant");
    assert!(ins.cancel(victim.id));
    let cancelled_at = Instant::now();
    match runner.join().unwrap() {
        Err(AsterixError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(
        cancelled_at.elapsed() < Duration::from_secs(5),
        "cancellation must unwind promptly, took {:?}",
        cancelled_at.elapsed()
    );
    let stats = ins.resource_manager().stats();
    assert_eq!(stats.cancelled.get(), 1);

    // Part 2: a deadline fires the same cooperative unwind on its own.
    let res = ins.query_with(HEAVY, &QueryOpts { deadline: Some(Duration::from_millis(50)) });
    match res {
        Err(AsterixError::Cancelled) => {}
        other => panic!("expected Cancelled from deadline, got {other:?}"),
    }
    assert_eq!(stats.cancelled.get(), 2);

    // Both tickets dropped: jobs table empty, every grant returned.
    assert!(ins.list_jobs().is_empty());
    assert_eq!(stats.mem_granted_bytes.get(), 0);

    // No spill files survive the unwinds. (The other tests in this binary
    // run entirely in memory, so any marker here is a leak from this test.)
    let pid = std::process::id();
    let leaked: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| {
            n.starts_with(&format!("asterix-sort-{pid}-"))
                || n.starts_with(&format!("asterix-join-{pid}-"))
        })
        .collect();
    assert!(leaked.is_empty(), "spill files leaked: {leaked:?}");
}

/// A nested query is one job like any other: its decorrelated join and
/// group-by unwind on a deadline, and the grant comes back.
#[test]
fn a_nested_query_honours_a_deadline() {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ins = instance_with(dir.path(), |_| {});
    load_big(&ins, 1200);
    let nested = r#"for $a in dataset Big
        return { "a": $a.id,
                 "n": count(for $b in dataset Big
                            where $b.grp = $a.grp and $b.id != $a.id
                            return $b) };"#;
    let res = ins.query_with(nested, &QueryOpts { deadline: Some(Duration::from_millis(50)) });
    match res {
        Err(AsterixError::Cancelled) => {}
        other => panic!("expected Cancelled from deadline, got {:?}", other.map(|r| r.len())),
    }
    let stats = ins.resource_manager().stats();
    assert_eq!(stats.cancelled.get(), 1);
    assert!(ins.list_jobs().is_empty());
    assert_eq!(stats.mem_granted_bytes.get(), 0);
    // Without the deadline it answers: each row counts the rest of its group.
    let rows = ins.query(nested).unwrap();
    assert_eq!(rows.len(), 1200);
    assert!(rows.iter().all(|r| r.field("n") == asterix_adm::Value::Int64(399)));
}
