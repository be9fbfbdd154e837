//! A shared buffer cache for disk-component reads.
//!
//! Disk components read their data through this cache one entry at a
//! time: a row component's page, or a columnar component's column chunk —
//! one run of one row group, whatever its size (a key chunk is about one
//! [`PAGE_SIZE`], a chunk of long text values many times that). Capacity
//! is a number of entries, not of bytes or 4 KiB pages, so the bytes held
//! depend on which runs are hot; a byte budget was tried and lowered the
//! hit rate of a mixed ingest workload, because a few large chunks pushed
//! out many small hot ones. The cache avoids re-reading hot entries (key
//! runs, filter columns, frequently probed pages). Merges do not read
//! through it: a copy merge fetches each input group with one positioned
//! read of the file. Eviction is CLOCK — simpler than LRU under a lock and
//! good enough for a scan+probe mix.
//!
//! The cache is **lock-striped**: pages are spread across N shards by a
//! hash of their [`PageKey`], each shard guarded by its own mutex with its
//! own CLOCK hand. Concurrent partition scans that previously serialized
//! on one global lock now mostly touch distinct shards. Hit/miss counters
//! are kept **per shard** (obs [`Counter`]s, so they can be registered in
//! a [`MetricsRegistry`]) and aggregated on read.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use asterix_obs::{Counter, MetricsRegistry};
use asterix_sync::Mutex;

/// Default page size for disk components (4 KiB): the size at which a row
/// page, or a columnar row group's key run, is cut.
pub const PAGE_SIZE: usize = 4096;

/// Cache key: a component-unique file id plus the entry's index in that
/// file (a page number, or a column chunk's `group * slots + slot`).
pub type PageKey = (u64, u32);

/// Default shard count for [`BufferCache::new`]; small caches collapse to
/// fewer shards so every shard keeps a useful number of slots.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// Minimum slots per shard — below this, striping hurts hit rates more
/// than the lock contention it saves.
const MIN_SLOTS_PER_SHARD: usize = 8;

struct Slot {
    key: PageKey,
    data: Arc<Vec<u8>>,
    referenced: bool,
}

struct CacheShard {
    map: HashMap<PageKey, usize>,
    slots: Vec<Option<Slot>>,
    hand: usize,
}

impl CacheShard {
    fn new(capacity: usize) -> CacheShard {
        CacheShard {
            map: HashMap::with_capacity(capacity),
            slots: (0..capacity).map(|_| None).collect(),
            hand: 0,
        }
    }

    fn evict_slot(&mut self) -> usize {
        let capacity = self.slots.len();
        // CLOCK sweep: clear reference bits until an unreferenced slot (or
        // an empty one) is found.
        for _ in 0..capacity * 2 {
            let idx = self.hand;
            self.hand = (self.hand + 1) % capacity;
            match self.slots[idx].as_mut() {
                None => return idx,
                Some(slot) if !slot.referenced => return idx,
                Some(slot) => slot.referenced = false,
            }
        }
        self.hand
    }
}

/// Per-shard hit/miss counters, cheap to clone into a metrics registry.
#[derive(Debug, Default)]
struct ShardCounters {
    hits: Counter,
    misses: Counter,
}

/// A fixed-capacity page cache shared by every LSM index on a node.
pub struct BufferCache {
    shards: Vec<Mutex<CacheShard>>,
    counters: Vec<ShardCounters>,
}

impl BufferCache {
    /// Create a cache holding at most (about) `capacity` entries, of any
    /// size each, with the default shard count.
    pub fn new(capacity: usize) -> Arc<Self> {
        BufferCache::with_shards(capacity, DEFAULT_CACHE_SHARDS)
    }

    /// Create a cache with an explicit shard count. The shard count is
    /// clamped so each shard keeps at least `MIN_SLOTS_PER_SHARD` slots:
    /// a capacity-8 cache is one shard regardless of the request, so small
    /// configurations keep the exact eviction behaviour of a single CLOCK.
    pub fn with_shards(capacity: usize, shards: usize) -> Arc<Self> {
        let capacity = capacity.max(MIN_SLOTS_PER_SHARD);
        let nshards = shards.max(1).min(capacity / MIN_SLOTS_PER_SHARD).max(1);
        let per_shard = capacity / nshards;
        Arc::new(BufferCache {
            shards: (0..nshards).map(|_| Mutex::new(CacheShard::new(per_shard))).collect(),
            counters: (0..nshards).map(|_| ShardCounters::default()).collect(),
        })
    }

    fn shard_of(&self, key: &PageKey) -> usize {
        // FNV-1a over the key bytes; independent of HashMap's hasher.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.0.to_le_bytes().into_iter().chain(key.1.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Look up a page; on miss, `load` is invoked to fetch it and the result
    /// is cached.
    pub fn get_or_load<E>(
        &self,
        key: PageKey,
        load: impl FnOnce() -> std::result::Result<Vec<u8>, E>,
    ) -> std::result::Result<Arc<Vec<u8>>, E> {
        let shard_idx = self.shard_of(&key);
        let shard = &self.shards[shard_idx];
        {
            let mut inner = shard.lock();
            if let Some(&slot_idx) = inner.map.get(&key) {
                if let Some(slot) = inner.slots[slot_idx].as_mut() {
                    slot.referenced = true;
                    self.counters[shard_idx].hits.inc();
                    return Ok(Arc::clone(&slot.data));
                }
            }
        }
        // Load outside the lock; a racing thread may load the same page —
        // harmless (last writer wins, both Arcs are valid).
        self.counters[shard_idx].misses.inc();
        let data = Arc::new(load()?);
        let mut inner = shard.lock();
        let idx = inner.evict_slot();
        if let Some(old) = inner.slots[idx].take() {
            inner.map.remove(&old.key);
        }
        inner.map.insert(key, idx);
        inner.slots[idx] = Some(Slot { key, data: Arc::clone(&data), referenced: true });
        Ok(data)
    }

    /// Drop all pages belonging to a file (component deletion after merge).
    pub fn invalidate_file(&self, file_id: u64) {
        for shard in &self.shards {
            let mut inner = shard.lock();
            let keys: Vec<PageKey> =
                inner.map.keys().filter(|(f, _)| *f == file_id).copied().collect();
            for k in keys {
                if let Some(idx) = inner.map.remove(&k) {
                    inner.slots[idx] = None;
                }
            }
        }
    }

    /// Number of lock stripes in use.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// (hits, misses) counters aggregated over every shard — used by
    /// cache-behaviour tests and stats.
    pub fn stats(&self) -> (u64, u64) {
        self.counters.iter().fold((0, 0), |(h, m), c| (h + c.hits.get(), m + c.misses.get()))
    }

    /// Per-shard (hits, misses) readings, in shard order.
    pub fn per_shard_stats(&self) -> Vec<(u64, u64)> {
        self.counters.iter().map(|c| (c.hits.get(), c.misses.get())).collect()
    }

    /// Register every shard's hit/miss counters under
    /// `{prefix}.shard{N}.{hits,misses}`.
    pub fn register_into(&self, reg: &MetricsRegistry, prefix: &str) {
        for (i, c) in self.counters.iter().enumerate() {
            reg.register_counter(&format!("{prefix}.shard{i}.hits"), &c.hits);
            reg.register_counter(&format!("{prefix}.shard{i}.misses"), &c.misses);
        }
    }

    /// Fraction of lookups served from memory, 0.0 when the cache is cold.
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.stats();
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// Generator of unique file ids for cache keying.
static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique file id.
pub fn next_file_id() -> u64 {
    NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_load() {
        let cache = BufferCache::new(16);
        let loads = std::cell::Cell::new(0);
        for _ in 0..3 {
            let page = cache
                .get_or_load::<()>((1, 0), || {
                    loads.set(loads.get() + 1);
                    Ok(vec![7u8; 10])
                })
                .unwrap();
            assert_eq!(page[0], 7);
        }
        assert_eq!(loads.get(), 1);
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (2, 1));
    }

    #[test]
    fn eviction_under_pressure() {
        let cache = BufferCache::new(8);
        for i in 0..64u32 {
            cache.get_or_load::<()>((1, i), || Ok(vec![i as u8])).unwrap();
        }
        // Cache holds at most 8 pages; re-reading an early page must reload.
        let mut reloaded = false;
        cache
            .get_or_load::<()>((1, 0), || {
                reloaded = true;
                Ok(vec![0])
            })
            .unwrap();
        assert!(reloaded);
    }

    #[test]
    fn invalidation() {
        let cache = BufferCache::new(8);
        cache.get_or_load::<()>((5, 0), || Ok(vec![1])).unwrap();
        cache.invalidate_file(5);
        let mut reloaded = false;
        cache
            .get_or_load::<()>((5, 0), || {
                reloaded = true;
                Ok(vec![2])
            })
            .unwrap();
        assert!(reloaded);
    }

    #[test]
    fn load_errors_propagate() {
        let cache = BufferCache::new(8);
        let r = cache.get_or_load::<String>((9, 9), || Err("boom".to_string()));
        assert_eq!(r.unwrap_err(), "boom");
    }

    #[test]
    fn small_caches_collapse_to_one_shard() {
        assert_eq!(BufferCache::with_shards(8, 8).shard_count(), 1);
        assert_eq!(BufferCache::with_shards(64, 8).shard_count(), 8);
        assert_eq!(BufferCache::with_shards(32, 8).shard_count(), 4);
        assert_eq!(BufferCache::with_shards(4096, 8).shard_count(), 8);
    }

    #[test]
    fn per_shard_stats_sum_to_aggregate_and_register() {
        let cache = BufferCache::with_shards(64, 4);
        for i in 0..32u32 {
            cache.get_or_load::<()>((1, i), || Ok(vec![0])).unwrap();
        }
        for i in 0..32u32 {
            cache.get_or_load::<()>((1, i), || Ok(vec![0])).unwrap();
        }
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (32, 32));
        let shards = cache.per_shard_stats();
        assert_eq!(shards.len(), cache.shard_count());
        assert_eq!(shards.iter().map(|(h, _)| h).sum::<u64>(), hits);
        assert_eq!(shards.iter().map(|(_, m)| m).sum::<u64>(), misses);

        let reg = MetricsRegistry::default();
        cache.register_into(&reg, "cache.node0");
        assert_eq!(reg.names().len(), 2 * cache.shard_count());
        // The registered counters are live views of the shard counters.
        cache.get_or_load::<()>((1, 0), || Ok(vec![0])).unwrap();
        let total: u64 = reg
            .snapshot()
            .into_iter()
            .map(|(_, v)| match v {
                asterix_obs::MetricValue::Counter(n) => n,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 65);
    }

    #[test]
    fn sharded_cache_serves_concurrent_readers() {
        let cache = BufferCache::with_shards(256, 8);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for round in 0..3 {
                    for i in 0..32u32 {
                        let page =
                            cache.get_or_load::<()>((t, i), || Ok(vec![(i % 251) as u8])).unwrap();
                        assert_eq!(page[0], (i % 251) as u8, "round {round}");
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (hits, misses) = cache.stats();
        // 4 threads × 3 rounds × 32 pages = 384 lookups; at most one load
        // per distinct page (no eviction pressure at 256 slots), modulo
        // benign double-loads from the race outside the lock.
        assert_eq!(hits + misses, 384);
        assert!(hits >= 4 * 2 * 32, "re-reads should hit: {hits} hits / {misses} misses");
        assert!(cache.hit_rate() > 0.5);
    }
}
