//! Runtime-filter microbenchmark: the hash join's probe with a filter
//! factory installed and without one (`filter_factory: None`, which leaves
//! every consult a pass-through).
//!
//! The join shape is the one runtime filters exist for: a selective build
//! side against a large probe, where pruning before the exchange saves
//! shipping (and joining) partner-less tuples.

use std::collections::HashSet;
use std::sync::Arc;

use asterix_sync::Mutex;
use asterix_testkit::bench::{criterion_group, criterion_main, Criterion};

use asterix_adm::Value;
use asterix_hyracks::filter::{FilterStats, KeyTest};
use asterix_hyracks::ops::{HybridHashJoinOp, JoinType, RuntimeFilterProbeOp, SinkOp, SourceOp};
use asterix_hyracks::{run_job_with_stats, ConnectorKind, ExchangeStats, ExecutorConfig, JobSpec};

const TUPLES_PER_PART: i64 = 25_000;
const BUILD_KEYS: i64 = 1_000;

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
        let mut g = c.benchmark_group(format!("runtime_filters/join_probe_p{parts}"));
        g.sample_size(10);
        for (label, filtered) in [("runtime_filter", true), ("no_filter_factory", false)] {
            g.bench_function(label, |b| {
                b.iter(|| {
                    let (job, collector) = join_job(parts);
                    let fstats = FilterStats::default();
                    let cfg = ExecutorConfig {
                        partitions_per_node: parts,
                        // Exact-set filter: prunes every partner-less probe
                        // tuple the publish beat to the consult.
                        filter_factory: filtered.then(|| {
                            Arc::new(|hashes: &[u64]| {
                                let set: HashSet<u64> = hashes.iter().copied().collect();
                                Arc::new(move |h| set.contains(&h)) as KeyTest
                            }) as asterix_hyracks::FilterFactory
                        }),
                        filter_stats: fstats.clone(),
                        ..Default::default()
                    };
                    let stats = Arc::new(ExchangeStats::new());
                    run_job_with_stats(&job, &cfg, &stats).unwrap();
                    // Pruning never changes the join's output: every probe
                    // key 0..1k matches once per partition's probe source.
                    let rows = collector.lock().len();
                    assert_eq!(rows, (parts as i64 * BUILD_KEYS) as usize);
                    if !filtered {
                        assert_eq!(fstats.published.get(), 0, "filters must be off");
                    }
                    rows
                })
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_join_probe);
criterion_main!(benches);
