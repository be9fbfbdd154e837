//! LSM storage microbenchmarks: ingestion rate, point lookups against many
//! components (bloom-filter effect), merged scans, the merge-policy
//! ablation from DESIGN.md (§4.3: merge policies trade write amplification
//! for read cost), and the spatial index's load and window searches.

use asterix_testkit::bench::{criterion_group, criterion_main, Criterion};
use asterix_testkit::rng::{Rng, SeedableRng, StdRng};
use std::sync::Arc;

use asterix_adm::value::{Point, Rectangle};
use asterix_adm::Value;
use asterix_storage::btree::{LsmBTree, ValueBound};
use asterix_storage::lsm::{LsmConfig, MergePolicy};
use asterix_storage::spatial::SpatialIndex;
use asterix_storage::{BufferCache, NullObserver};

fn tree(dir: &std::path::Path, policy: MergePolicy) -> LsmBTree {
    LsmBTree::open(
        dir,
        1,
        LsmConfig {
            mem_budget: 256 << 10,
            page_size: 4096,
            bloom_fpp: 0.01,
            merge_policy: policy,
            max_frozen: 2,
            columnar: None,
        },
        BufferCache::new(1024),
        Arc::new(NullObserver),
    )
    .unwrap()
}

fn bench_lsm(c: &mut Criterion) {
    // Ingestion (the paper's design goal: LSM for high ingest rates).
    let mut g = c.benchmark_group("lsm/ingest_10k");
    g.sample_size(10);
    for (name, policy) in [
        ("no_merge", MergePolicy::NoMerge),
        ("constant4", MergePolicy::Constant { max: 4 }),
        ("prefix", MergePolicy::default()),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let dir = asterix_testkit::TempDir::new().unwrap();
                let t = tree(dir.path(), policy.clone());
                for i in 0..10_000i64 {
                    t.insert(&[Value::Int64(i)], vec![0u8; 64], 0).unwrap();
                }
            })
        });
    }
    g.finish();

    // Point lookups across many components: merge policy ablation.
    let mut g = c.benchmark_group("lsm/get_after_ingest");
    for (name, policy) in
        [("no_merge", MergePolicy::NoMerge), ("constant4", MergePolicy::Constant { max: 4 })]
    {
        let dir = asterix_testkit::TempDir::new().unwrap();
        let t = tree(dir.path(), policy);
        for i in 0..20_000i64 {
            t.lsm()
                .insert(
                    asterix_storage::keycodec::encode_single(&Value::Int64(i)).unwrap(),
                    vec![0u8; 64],
                    0,
                )
                .unwrap();
        }
        t.lsm().flush().unwrap();
        eprintln!("{name}: {} disk components", t.lsm().disk_component_count());
        g.bench_function(name, |b| {
            let mut i = 0i64;
            b.iter(|| {
                i = (i + 7919) % 20_000;
                t.get(&[Value::Int64(i)]).unwrap()
            })
        });
    }
    g.finish();

    // Range scans.
    let mut g = c.benchmark_group("lsm/scan_1k_of_20k");
    let dir = asterix_testkit::TempDir::new().unwrap();
    let t = tree(dir.path(), MergePolicy::Constant { max: 4 });
    for i in 0..20_000i64 {
        t.insert(&[Value::Int64(i)], vec![0u8; 64], 0).unwrap();
    }
    t.lsm().flush().unwrap();
    let range =
        [(ValueBound::included(Value::Int64(5000)), ValueBound::excluded(Value::Int64(6000)))];
    g.bench_function("range", |b| {
        b.iter(|| {
            let mut rows = 0usize;
            t.ranges_with(&range, |_, _, _| {
                rows += 1;
                Ok::<_, asterix_storage::StorageError>(true)
            })
            .unwrap();
            rows
        })
    });
    g.finish();
}

/// The spatial index over 100 000 points spread like the Mugshot
/// `sender-location`s (x in [-120, -80], y in [25, 48]), with a 4 MiB
/// memory budget: load (inserts plus the final flush), then batches of
/// 200 square windows of side 0.2, 0.6 and 2.0 (≈ 4, 40 and 435 hits each).
fn bench_spatial(c: &mut Criterion) {
    const N: usize = 100_000;
    const WINDOWS: usize = 200;
    let mut rng = StdRng::seed_from_u64(7);
    let points: Vec<Point> = (0..N)
        .map(|_| Point::new(rng.gen_range(-120.0..-80.0), rng.gen_range(25.0..48.0)))
        .collect();
    let open = |dir: &std::path::Path| {
        let cfg = LsmConfig { mem_budget: 4 << 20, ..LsmConfig::default() };
        SpatialIndex::open(dir, cfg, BufferCache::new(4096), Arc::new(NullObserver)).unwrap()
    };
    let load = |ix: &SpatialIndex| {
        for (i, p) in points.iter().enumerate() {
            ix.insert(Rectangle::new(*p, *p), &[Value::Int64(i as i64)], 0).unwrap();
        }
        ix.lsm().flush().unwrap();
    };
    let mut g = c.benchmark_group("spatial");
    g.sample_size(10);
    g.bench_function("insert_flush_100k", |b| {
        b.iter(|| {
            let dir = asterix_testkit::TempDir::new().unwrap();
            load(&open(dir.path()));
        })
    });
    let dir = asterix_testkit::TempDir::new().unwrap();
    let ix = open(dir.path());
    load(&ix);
    for side in [0.2, 0.6, 2.0] {
        let windows: Vec<Rectangle> = (0..WINDOWS)
            .map(|_| {
                let low = Point::new(
                    rng.gen_range(-120.0..-80.0 - side),
                    rng.gen_range(25.0..48.0 - side),
                );
                Rectangle::new(low, Point::new(low.x + side, low.y + side))
            })
            .collect();
        let search = || windows.iter().map(|w| ix.search(w).unwrap().len()).sum::<usize>();
        eprintln!(
            "spatial/window_{side}: {:.1} hits a window over {} components",
            search() as f64 / WINDOWS as f64,
            ix.lsm().disk_component_count()
        );
        g.bench_function(format!("window_{side}_x{WINDOWS}"), |b| b.iter(search));
    }
    g.finish();
}

criterion_group!(benches, bench_lsm, bench_spatial);
criterion_main!(benches);
