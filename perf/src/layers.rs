//! Per-layer probes of the traced run: timed calls into each layer's
//! public functions, made from here rather than from code added to the
//! program. Counter-derived metrics are computed in `run`; these are the
//! ones that need calls of their own.

use std::time::{Duration, Instant};

use asterix_adm::serde::{decode, encode};
use asterix_adm::Value;
use asterix_aql::{normalize_query, parse_statements, Statement};
use asterixdb::dataset::DatasetRuntime;

use crate::env::{Env, Result};
use crate::gen::{Oracle, Rng};
use crate::report::Metrics;
use crate::shapes;
use crate::stats::median;
use crate::workloads::{Stmt, Workload};

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median microseconds of `reps` calls of `f`.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            micros(t.elapsed())
        })
        .collect();
    median(&samples)
}

/// The statement texts one operation of `workload` sends unprepared, so
/// that the server parses and compiles them each time.
fn unprepared_texts(workload: Workload, o: &Oracle) -> Vec<String> {
    if workload != Workload::IngestMixed {
        return Vec::new();
    }
    // Ids far above any the run inserts; the texts are only parsed.
    let first = 1_000_000_000i64;
    let records: Vec<Value> = (first..first + 21).map(|id| o.message(id)).collect();
    let batch = shapes::insert_text(&records[..20]);
    let single = shapes::insert_text(&records[20..]);
    vec![batch.clone(), single.clone(), batch, single]
}

/// Probes that leave the stored data as it is.
pub fn probe_reads(env: &Env, stmts: &[Stmt], workload: Workload, m: &mut Metrics) -> Result<()> {
    let o = &env.oracle;

    // adm: the self-describing record codec on 10 000 sampled messages.
    let sample: Vec<Value> =
        (0..10_000i64).map(|i| o.message(i * o.scale.messages as i64 / 10_000)).collect();
    let t = Instant::now();
    let encoded: Vec<Vec<u8>> = sample.iter().map(encode).collect();
    m.set("adm.record_encode_ns", t.elapsed().as_nanos() as f64 / sample.len() as f64);
    let t = Instant::now();
    for bytes in &encoded {
        std::hint::black_box(decode(bytes)?);
    }
    m.set("adm.record_decode_ns", t.elapsed().as_nanos() as f64 / sample.len() as f64);

    // aql: parsing and literal-lifting of what an operation sends as text.
    let (mut parse_us, mut normalize_us) = (0.0, 0.0);
    for text in unprepared_texts(workload, o) {
        parse_us += median_us(9, || {
            std::hint::black_box(parse_statements(&text).is_ok());
        });
        let parsed = parse_statements(&text).map_err(|e| format!("{e:?}"))?;
        for stmt in &parsed {
            let expr = match stmt {
                Statement::Query(e) => e,
                Statement::Insert { expr, .. } => expr,
                _ => continue,
            };
            normalize_us += median_us(9, || {
                std::hint::black_box(normalize_query(expr));
            });
        }
    }
    m.set("aql.parse_us", parse_us);
    m.set("aql.normalize_us", normalize_us);

    // algebricks: a full parse → translate → optimize → jobgen per
    // statement, the plan cache emptied before each.
    let mut cold = Vec::new();
    for s in stmts {
        for _ in 0..5 {
            env.instance.plan_cache().clear();
            let t = Instant::now();
            env.instance.explain(&s.text)?;
            cold.push(micros(t.elapsed()));
        }
        // Leave the entry hot again for the probes below.
        env.instance.explain(&s.text)?;
    }
    m.set("algebricks.compile_cold_us", median(&cold));

    // rm: an admission ticket taken and returned with nobody else waiting.
    let rm = env.instance.resource_manager();
    let ticket_us = median_us(1_000, || {
        drop(std::hint::black_box(rm.begin("probe", None)));
    });
    m.set("rm.ticket_us", ticket_us);

    // hyracks: the floor of any job — a constant query — and the
    // program's own execute-phase timing of the first shape (reported by
    // the program, not timed from here).
    let floor = env.instance.prepare("for $x in [1] return $x")?;
    let one = floor.default_params().to_vec();
    for _ in 0..50 {
        env.instance.execute_prepared_in(&env.session, &floor, &one)?;
    }
    let mut failed = false;
    let empty_job_us = median_us(500, || {
        failed |= env.instance.execute_prepared_in(&env.session, &floor, &one).is_err();
    });
    if failed {
        return Err("the constant query failed".into());
    }
    m.set("hyracks.empty_job_us", empty_job_us);

    // obs: profiling on against profiling off, same statement and
    // parameters, interleaved; and one registry snapshot.
    let first = &stmts[0];
    let values = first.inproc.default_params().to_vec();
    let (mut plain, mut profiled, mut execute_phase) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.len() < 200 && (plain.len() < 5 || start.elapsed() < Duration::from_secs(2)) {
        let t = Instant::now();
        env.instance.execute_prepared_in(&env.session, &first.inproc, &values)?;
        plain.push(micros(t.elapsed()));
        let t = Instant::now();
        let profile = env.instance.profile_prepared(&first.inproc, &values)?;
        profiled.push(micros(t.elapsed()));
        if let Some(phase) = profile.phase("execute") {
            execute_phase.push(micros(phase.duration));
        }
    }
    m.set("hyracks.execute_phase_us", median(&execute_phase));
    let (plain, profiled) = (median(&plain), median(&profiled));
    m.set(
        "obs.profile_overhead_pct",
        if plain > 0.0 { (profiled / plain - 1.0) * 100.0 } else { 0.0 },
    );
    let snapshot_us = median_us(20, || {
        std::hint::black_box(env.instance.metrics_json());
    });
    m.set("obs.metrics_snapshot_us", snapshot_us);

    // storage: primary-key gets of users, and one raw scan of messages.
    let rng = &mut Rng::new(o.seed ^ 0x6765_7473);
    let mut missing = 0u64;
    let get_us = median_us(2_000, || {
        let id = rng.range(0, o.scale.users as i64);
        missing += !matches!(env.users.get(&[Value::Int64(id)]), Ok(Some(_))) as u64;
    });
    if missing > 0 {
        return Err(format!("{missing} of 2000 direct user gets found nothing").into());
    }
    m.set("storage.get_us", get_us);
    let t = Instant::now();
    let mut rows = 0u64;
    for p in 0..env.messages.partitions() {
        env.messages.scan_partition_raw(p, &mut |_| {
            rows += 1;
            true
        })?;
    }
    m.set("storage.scan_rows_per_s", rows as f64 / t.elapsed().as_secs_f64());
    Ok(())
}

/// Direct inserts of `n` new messages and a flush of everything: the
/// write path without the wire, the compiler or the executor. Changes the
/// stored data, so it runs last.
pub fn probe_writes(
    messages: &DatasetRuntime,
    users: &DatasetRuntime,
    o: &Oracle,
    n: usize,
    m: &mut Metrics,
) -> Result<()> {
    // Ids no workload reaches.
    let first = 2_000_000_000i64;
    let records: Vec<Value> = (first..first + n as i64).map(|id| o.message(id)).collect();
    // Whatever recovery replayed into the memory components goes first, so
    // that the timed flush below is of the probe's own inserts.
    messages.flush_all()?;
    users.flush_all()?;
    let mut samples = Vec::with_capacity(n);
    for r in &records {
        let t = Instant::now();
        messages.insert(r)?;
        samples.push(micros(t.elapsed()));
    }
    m.set("storage.insert_us", median(&samples));
    let t = Instant::now();
    messages.flush_all()?;
    users.flush_all()?;
    m.set("storage.flush_all_ms", t.elapsed().as_secs_f64() * 1e3);
    Ok(())
}
