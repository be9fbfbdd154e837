//! Exchange-layer microbenchmarks: bounded-memory dataflow under
//! backpressure (§4.1's frame-based exchanges) and non-stalling LSM ingest
//! (§4.2: the write path never waits for flush I/O).
//!
//! The first group pushes a fixed tuple volume through a producer →
//! repartition → consumer pipeline at different `frames_in_flight`
//! settings and asserts, inside the measured closure, that peak buffered
//! frames stayed within the configured bound — demonstrating that
//! throughput is bought with a *constant* memory ceiling, not an unbounded
//! queue. The second group compares LSM ingest with background maintenance
//! against an explicit flush-every-batch discipline.

use std::sync::Arc;

use asterix_sync::Mutex;
use asterix_testkit::bench::{criterion_group, criterion_main, Criterion};

use asterix_adm::Value;
use asterix_hyracks::ops::{SelectOp, SinkOp, SourceOp};
use asterix_hyracks::{run_job_with_stats, ConnectorKind, ExchangeStats, ExecutorConfig, JobSpec};
use asterix_storage::lsm::{LsmConfig, LsmTree, MergePolicy};
use asterix_storage::{BufferCache, NullObserver};

const TUPLES_PER_PART: i64 = 25_000;
const PARTS: usize = 2;

fn exchange_job() -> JobSpec {
    let mut job = JobSpec::new();
    let src = job.add(
        PARTS,
        Arc::new(SourceOp::new("gen", |p, _n, emit| {
            for i in 0..TUPLES_PER_PART {
                emit(vec![Value::Int64(i), Value::Int64(p as i64)])?;
            }
            Ok(())
        })),
    );
    let pass = job.add(PARTS, Arc::new(SelectOp::new("pass", Arc::new(|_t| Ok(true)))));
    let sink = job.add(1, Arc::new(SinkOp::new(Arc::new(Mutex::new(Vec::new())))));
    job.connect(ConnectorKind::MToNPartitioning { fields: vec![0] }, src, pass);
    job.connect(ConnectorKind::MToNReplicating, pass, sink);
    job
}

fn bench_exchange(c: &mut Criterion) {
    let mut g = c.benchmark_group("exchange/50k_tuples_2x2");
    g.sample_size(10);
    for fif in [1usize, 4, 16] {
        g.bench_function(format!("fif_{fif}"), |b| {
            b.iter(|| {
                let job = exchange_job();
                let cfg = ExecutorConfig { frames_in_flight: fif, ..Default::default() };
                let stats = Arc::new(ExchangeStats::new());
                run_job_with_stats(&job, &cfg, &stats).unwrap();
                // Bounded-memory claim: every channel holds at most `fif`
                // frames; the job wires PARTS² partitioning channels plus
                // PARTS replicating ones.
                let channels = (PARTS * PARTS + PARTS) as i64;
                let peak = stats.peak_buffered_frames();
                assert!(
                    peak <= fif as i64 * channels,
                    "peak {peak} frames exceeds bound for fif={fif}"
                );
                stats.frames_sent()
            })
        });
    }
    g.finish();
}

/// Frame-size sweep over the same exchange path: small frames amortize
/// badly (one channel send per handful of tuples), big frames batch well.
/// Inside the measured closure we also assert the byte counter is *exact*:
/// every tuple costs its serialized length plus one 4-byte slot entry, so
/// total bytes are independent of how tuples are cut into frames.
fn bench_frame_size(c: &mut Criterion) {
    let wire_tuple_bytes: u64 = {
        let enc = asterix_adm::encode_tuple(&[Value::Int64(0), Value::Int64(0)]);
        enc.len() as u64 + 4 // payload + slot-directory entry
    };
    let total_tuples = (TUPLES_PER_PART * PARTS as i64) as u64;

    let mut g = c.benchmark_group("exchange/frame_size_50k_2x2");
    g.sample_size(10);
    for tpf in [4usize, 64, 1024] {
        g.bench_function(format!("tuples_per_frame_{tpf}"), |b| {
            b.iter(|| {
                let job = exchange_job();
                let cfg = ExecutorConfig {
                    frames_in_flight: 8,
                    tuples_per_frame: tpf,
                    ..Default::default()
                };
                let stats = Arc::new(ExchangeStats::new());
                run_job_with_stats(&job, &cfg, &stats).unwrap();
                // Byte-exactness: the partitioning hop and the replicating
                // hop each forward every tuple exactly once, so the counter
                // must equal 2 legs * tuples * per-tuple wire size.
                let expected = 2 * total_tuples * wire_tuple_bytes;
                assert_eq!(
                    stats.bytes_sent(),
                    expected,
                    "exchange bytes must be exact frame occupancy at tpf={tpf}"
                );
                stats.frames_sent()
            })
        });
    }
    g.finish();
}

fn bench_nonstall_ingest(c: &mut Criterion) {
    let mut g = c.benchmark_group("lsm/ingest_20k_x64B");
    g.sample_size(10);

    // Background maintenance: inserts return as soon as the memory
    // component is sealed; flush I/O overlaps ingest.
    g.bench_function("background_flush", |b| {
        b.iter(|| {
            let dir = asterix_testkit::TempDir::new().unwrap();
            let t = LsmTree::open(
                dir.path(),
                LsmConfig {
                    mem_budget: 64 << 10,
                    merge_policy: MergePolicy::NoMerge,
                    ..Default::default()
                },
                BufferCache::new(1024),
                Arc::new(NullObserver),
            )
            .unwrap();
            for i in 0..20_000i64 {
                t.insert(i.to_be_bytes().to_vec(), vec![0u8; 64], 0).unwrap();
            }
            t.flush().unwrap();
        })
    });

    // Foreground discipline: force a blocking flush at the same cadence the
    // budget would trip, serializing ingest behind flush I/O.
    g.bench_function("foreground_flush", |b| {
        b.iter(|| {
            let dir = asterix_testkit::TempDir::new().unwrap();
            let t = LsmTree::open(
                dir.path(),
                LsmConfig {
                    mem_budget: 64 << 20, // never trips on its own
                    merge_policy: MergePolicy::NoMerge,
                    ..Default::default()
                },
                BufferCache::new(1024),
                Arc::new(NullObserver),
            )
            .unwrap();
            // 64 KiB budget / ~120 bytes per entry ≈ one flush per 546.
            for i in 0..20_000i64 {
                t.insert(i.to_be_bytes().to_vec(), vec![0u8; 64], 0).unwrap();
                if i % 546 == 545 {
                    t.flush().unwrap();
                }
            }
            t.flush().unwrap();
        })
    });
    g.finish();
}

criterion_group!(benches, bench_exchange, bench_frame_size, bench_nonstall_ingest);
criterion_main!(benches);
