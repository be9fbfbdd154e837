//! Vectorized-evaluation microbenchmarks: the batch (frame-at-a-time)
//! select/project path against the per-tuple scalar path, and the hash
//! join's probe with and without runtime filters.
//!
//! The select rides the ordkey fast path (`id < C` decided by memcmp on
//! encoded comparison keys); `disable_vectorization` forces the decoded
//! per-tuple predicate — the same A/B the `ClusterConfig` knob exposes.
//! The join shape is the one runtime filters exist for: a selective build
//! side against a large probe, where pruning before the exchange saves
//! shipping (and joining) partner-less tuples.

use std::collections::HashSet;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use parking_lot::Mutex;

use asterix_adm::{ordkey, Value};
use asterix_hyracks::filter::{FilterStats, KeyTest};
use asterix_hyracks::ops::{
    CmpKind, HybridHashJoinOp, JoinType, OrdPred, ProjectOp, RuntimeFilterProbeOp, SelectOp,
    SinkOp, SourceOp,
};
use asterix_hyracks::{run_job_with_stats, ConnectorKind, ExchangeStats, ExecutorConfig, JobSpec};

const TUPLES_PER_PART: i64 = 25_000;
const BUILD_KEYS: i64 = 1_000;

/// scan → select (`id < half`, ordkey-classified) → project [id] → sink.
fn select_project_job(parts: usize) -> JobSpec {
    let mut job = JobSpec::new();
    let src = job.add(
        parts,
        Arc::new(SourceOp::new("gen", |_p, _n, emit| {
            for i in 0..TUPLES_PER_PART {
                emit(vec![Value::Int64(i), Value::Int64(i * 7), Value::Int64(i % 97)])?;
            }
            Ok(())
        })),
    );
    let half = Value::Int64(TUPLES_PER_PART / 2);
    let sel = job.add(
        parts,
        Arc::new(
            SelectOp::with_fields(
                "lt-half",
                Arc::new(move |t: &Vec<Value>| {
                    Ok(matches!(t.first(), Some(Value::Int64(i)) if *i < TUPLES_PER_PART / 2))
                }),
                vec![0],
            )
            .with_ordkey(OrdPred {
                col: 0,
                path: None,
                op: CmpKind::Lt,
                key: ordkey::encode_value(&half),
            }),
        ),
    );
    let proj = job.add(parts, Arc::new(ProjectOp { fields: vec![0] }));
    let sink = job.add(1, Arc::new(SinkOp::new(Arc::new(Mutex::new(Vec::new())))));
    job.connect(ConnectorKind::OneToOne, src, sel);
    job.connect(ConnectorKind::OneToOne, sel, proj);
    job.connect(ConnectorKind::MToNReplicating, proj, sink);
    job
}

fn bench_select_project(c: &mut Criterion) {
    for parts in [1usize, 4, 8] {
        let mut g = c.benchmark_group(format!("vectorized/select_project_p{parts}"));
        g.sample_size(10);
        for (label, disable) in [("batch", false), ("disable_vectorization", true)] {
            g.bench_function(label, |b| {
                b.iter(|| {
                    let job = select_project_job(parts);
                    let cfg = ExecutorConfig {
                        partitions_per_node: parts,
                        disable_vectorization: disable,
                        ..Default::default()
                    };
                    let stats = Arc::new(ExchangeStats::new());
                    run_job_with_stats(&job, &cfg, &stats).unwrap();
                    // Survivor count is mode-independent: half of each
                    // partition's tuples pass, one exchange hop to the sink.
                    assert_eq!(
                        stats.tuples_sent(),
                        (parts as i64 * TUPLES_PER_PART / 2) as u64,
                        "batch and scalar select must agree"
                    );
                    stats.tuples_sent()
                })
            });
        }
        g.finish();
    }
}

/// build (selective) ⋈ probe (large): keys 0..1k against probes 0..25k —
/// 96% of probe tuples have no partner and are prunable pre-exchange.
fn join_job(parts: usize) -> (JobSpec, Arc<Mutex<Vec<Vec<Value>>>>) {
    let mut job = JobSpec::new();
    let build = job.add(
        parts,
        Arc::new(SourceOp::new("build", move |p, n, emit| {
            for i in 0..BUILD_KEYS {
                if i % n as i64 == p as i64 {
                    emit(vec![Value::Int64(i)])?;
                }
            }
            Ok(())
        })),
    );
    let probe = job.add(
        parts,
        Arc::new(SourceOp::new("probe", |_p, _n, emit| {
            for i in 0..TUPLES_PER_PART {
                emit(vec![Value::Int64(i), Value::Int64(i * 3)])?;
            }
            Ok(())
        })),
    );
    let fid = job.alloc_runtime_filter();
    let consult = job.add(
        parts,
        Arc::new(RuntimeFilterProbeOp { filter_id: fid, key_cols: vec![0], join_nparts: parts }),
    );
    let join = job.add(
        parts,
        Arc::new(
            HybridHashJoinOp::new("equi", vec![0], vec![0], JoinType::Inner, 1)
                .with_runtime_filter(fid),
        ),
    );
    let collector = Arc::new(Mutex::new(Vec::new()));
    let sink = job.add(1, Arc::new(SinkOp::new(Arc::clone(&collector))));
    job.connect(ConnectorKind::MToNPartitioning { fields: vec![0] }, build, join);
    job.connect(ConnectorKind::OneToOne, probe, consult);
    job.connect(ConnectorKind::MToNPartitioning { fields: vec![0] }, consult, join);
    job.connect(ConnectorKind::MToNReplicating, join, sink);
    (job, collector)
}

fn bench_join_probe(c: &mut Criterion) {
    for parts in [4usize, 8] {
        let mut g = c.benchmark_group(format!("vectorized/join_probe_p{parts}"));
        g.sample_size(10);
        for (label, disable) in [("runtime_filter", false), ("disable_runtime_filters", true)] {
            g.bench_function(label, |b| {
                b.iter(|| {
                    let (job, collector) = join_job(parts);
                    let fstats = FilterStats::default();
                    let cfg = ExecutorConfig {
                        partitions_per_node: parts,
                        disable_runtime_filters: disable,
                        // Exact-set filter: prunes every partner-less probe
                        // tuple the publish beat to the consult.
                        filter_factory: Some(Arc::new(|hashes: &[u64]| {
                            let set: HashSet<u64> = hashes.iter().copied().collect();
                            Arc::new(move |h| set.contains(&h)) as KeyTest
                        })),
                        filter_stats: fstats.clone(),
                        ..Default::default()
                    };
                    let stats = Arc::new(ExchangeStats::new());
                    run_job_with_stats(&job, &cfg, &stats).unwrap();
                    // Pruning never changes the join's output: every probe
                    // key 0..1k matches once per partition's probe source.
                    let rows = collector.lock().len();
                    assert_eq!(rows, (parts as i64 * BUILD_KEYS) as usize);
                    if disable {
                        assert_eq!(fstats.published.get(), 0, "filters must be off");
                    }
                    rows
                })
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_select_project, bench_join_probe);
criterion_main!(benches);
