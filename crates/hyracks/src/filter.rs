//! Runtime join-filter pushdown: the hub that carries build-side key
//! membership filters from a hash join's build phase to probe-side
//! producers.
//!
//! At end-of-build, each partition of a [`crate::ops::HybridHashJoinOp`]
//! publishes a filter over the 64-bit hashes of its build-side join keys
//! ([`crate::frame::hash_encoded_fields`] of the key columns — the same
//! hash the probe exchange routes by). Probe-side producers upstream of the
//! exchange consult the filter through a [`FilterConsult`] and drop what
//! certainly has no build match: a columnar dataset scan per row, on the
//! key column's raw bytes, before it reads any other column of the row;
//! and the [`crate::ops::RuntimeFilterProbeOp`] per tuple, for whatever
//! the scan could not decide. Either way less is read, shipped and probed.
//!
//! Timing is best-effort by design: probe-side threads start before the
//! build finishes, so early tuples pass unchecked until the filter appears
//! (the bounded probe exchange stops them a few frames in, until the build
//! has ended). A consult belongs to one run of a job: it is made from the
//! run's hub when the producer starts, never stored in the job.
//! Correctness never depends on a filter — the membership test may return
//! false positives but never false negatives, so consulting it only ever
//! removes tuples the join would discard anyway (which is also why only
//! INNER joins install filters; outer probes must keep unmatched tuples).
//!
//! The filter *representation* is type-erased: this crate sits below
//! `asterix-storage`, so the bloom-filter implementation is injected as a
//! [`FilterFactory`] (see `ExecutorConfig::filter_factory`; the asterixdb
//! layer installs one backed by `storage::bloom::BloomFilter`). With no
//! factory installed nothing is ever published and every probe passes.

use std::sync::Arc;

use asterix_adm::{TupleRef, ValueRef};
use asterix_obs::{Counter, MetricsRegistry};
use parking_lot::Mutex;

use crate::frame::{hash_encoded_fields, hash_encoded_key};

/// A type-erased membership test over a 64-bit key hash. False positives
/// allowed, false negatives not.
pub type KeyTest = Arc<dyn Fn(u64) -> bool + Send + Sync>;

/// Builds a [`KeyTest`] from the complete set of build-side key hashes of
/// one join partition.
pub type FilterFactory = Arc<dyn Fn(&[u64]) -> KeyTest + Send + Sync>;

/// `filters.*` observability counters (registered by the instance layer
/// under the `filters` prefix, riding the bench metrics JSON).
#[derive(Clone, Default)]
pub struct FilterStats {
    /// Filters published by join build phases (one per partition).
    pub published: Counter,
    /// Probe-side tuples tested against a published filter.
    pub checked: Counter,
    /// Probe-side tuples dropped before the exchange.
    pub pruned_tuples: Counter,
}

impl FilterStats {
    /// Adopt these live handles into `reg` under `{prefix}.published` etc.
    pub fn register_into(&self, reg: &MetricsRegistry, prefix: &str) {
        reg.register_counter(&format!("{prefix}.published"), &self.published);
        reg.register_counter(&format!("{prefix}.checked"), &self.checked);
        reg.register_counter(&format!("{prefix}.pruned_tuples"), &self.pruned_tuples);
    }
}

/// Per-job registry of runtime filters, one slot per filter id (allocated
/// at jobgen time via `JobSpec::alloc_runtime_filter`), each holding the
/// per-build-partition filters as they are published.
pub struct RuntimeFilterHub {
    factory: Option<FilterFactory>,
    stats: FilterStats,
    slots: Vec<Mutex<Vec<Option<KeyTest>>>>,
}

impl RuntimeFilterHub {
    /// A hub with `nfilters` slots. Without a factory, `publish` is a
    /// no-op and every probe passes unchecked.
    pub fn new(nfilters: usize, factory: Option<FilterFactory>, stats: FilterStats) -> Arc<Self> {
        Arc::new(RuntimeFilterHub {
            factory,
            stats,
            slots: (0..nfilters).map(|_| Mutex::new(Vec::new())).collect(),
        })
    }

    /// The inert hub: no slots, no factory. Default for contexts built
    /// outside a job run (unit tests, standalone operators).
    pub fn disabled() -> Arc<Self> {
        RuntimeFilterHub::new(0, None, FilterStats::default())
    }

    /// Build and publish the filter for `(id, partition)` over the given
    /// key hashes. No-op without a factory or for an unknown id.
    pub fn publish(&self, id: usize, partition: usize, hashes: &[u64]) {
        let (Some(factory), Some(slot)) = (&self.factory, self.slots.get(id)) else {
            return;
        };
        let test = factory(hashes);
        let mut parts = slot.lock();
        if parts.len() <= partition {
            parts.resize(partition + 1, None);
        }
        parts[partition] = Some(test);
        self.stats.published.inc();
    }

    /// The filter published for `(id, partition)`, if any yet. Consumers
    /// cache the returned handle and re-poll only while it is absent.
    pub fn get(&self, id: usize, partition: usize) -> Option<KeyTest> {
        self.slots.get(id)?.lock().get(partition)?.clone()
    }

    /// Number of filter slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The shared stats handles.
    pub fn stats(&self) -> &FilterStats {
        &self.stats
    }
}

/// How many pass-through tuples a per-tuple consumer routes to a
/// not-yet-published partition before re-polling the hub.
const FILTER_POLL_EVERY: u32 = 64;

/// Consult-side state for one runtime join filter, owned by one probe-side
/// producer instance for one run: per-join-partition cached [`KeyTest`]s
/// and locally-accumulated stats (folded into the hub counters once, at
/// end of stream). The consult operator asks it per tuple
/// ([`FilterConsult::keep_tuple`]), a scan per key value
/// ([`FilterConsult::keep_value`]); both route and test the same way.
pub struct FilterConsult {
    hub: Arc<RuntimeFilterHub>,
    filter_id: usize,
    join_nparts: usize,
    cached: Vec<Option<KeyTest>>,
    since_poll: u32,
    checked: u64,
    pruned: u64,
}

impl FilterConsult {
    /// A consult of filter `filter_id` of the run `hub` belongs to, for a
    /// join of `join_nparts` partitions (the modulus of the routing hash).
    pub fn new(hub: &Arc<RuntimeFilterHub>, filter_id: usize, join_nparts: usize) -> FilterConsult {
        let join_nparts = join_nparts.max(1);
        FilterConsult {
            hub: Arc::clone(hub),
            filter_id,
            join_nparts,
            cached: vec![None; join_nparts],
            // Start saturated so the first tuple polls immediately: when
            // the build finishes before the probe starts (small build
            // sides, the common case), pruning kicks in from tuple one.
            since_poll: FILTER_POLL_EVERY,
            checked: 0,
            pruned: 0,
        }
    }

    /// Fetch filters published since the last poll. Per-tuple consumers
    /// call it per frame, a scan per row group.
    pub fn poll(&mut self) {
        self.since_poll = 0;
        for p in 0..self.join_nparts {
            if self.cached[p].is_none() {
                self.cached[p] = self.hub.get(self.filter_id, p);
            }
        }
    }

    /// The join partition a key hash is routed to, exactly as the exchange
    /// routes it.
    fn partition_of(&self, h: u64) -> usize {
        (h % self.join_nparts as u64) as usize
    }

    /// Keep a probe row whose join key hashes to `h`, routed to partition
    /// `p`? Tests that partition's filter; pass-through until the filter
    /// is published (best-effort by design — the filter has no false
    /// negatives, so a late check never changes results, only prunes
    /// less).
    fn keep(&mut self, h: u64, p: usize) -> bool {
        match &self.cached[p] {
            None => true,
            Some(test) => {
                self.checked += 1;
                let keep = test(h);
                self.pruned += u64::from(!keep);
                keep
            }
        }
    }

    /// Keep this tuple, whose join key is in `key_cols`? Re-polls on its
    /// own while tuples keep meeting an unpublished partition.
    pub fn keep_tuple(&mut self, tuple: &TupleRef<'_>, key_cols: &[usize]) -> bool {
        let h = hash_encoded_fields(tuple, key_cols);
        let p = self.partition_of(h);
        if self.cached[p].is_none() {
            self.since_poll += 1;
            if self.since_poll >= FILTER_POLL_EVERY {
                self.poll();
            }
        }
        self.keep(h, p)
    }

    /// Keep the row whose one-column join key is `value`? Never polls: the
    /// scan calls [`FilterConsult::poll`] where it suits it.
    pub fn keep_value(&mut self, value: ValueRef<'_>) -> bool {
        let h = hash_encoded_key(value);
        self.keep(h, self.partition_of(h))
    }

    /// Fold the locally-accumulated counts into the hub's shared stats.
    pub fn flush_stats(&mut self) {
        if self.checked > 0 {
            self.hub.stats().checked.add(std::mem::take(&mut self.checked));
        }
        if self.pruned > 0 {
            self.hub.stats().pruned_tuples.add(std::mem::take(&mut self.pruned));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// An exact-set factory for tests (no false positives at all).
    pub(crate) fn exact_factory() -> FilterFactory {
        Arc::new(|hashes: &[u64]| {
            let set: HashSet<u64> = hashes.iter().copied().collect();
            Arc::new(move |h| set.contains(&h)) as KeyTest
        })
    }

    #[test]
    fn publish_then_get_per_partition() {
        let hub = RuntimeFilterHub::new(2, Some(exact_factory()), FilterStats::default());
        assert_eq!(hub.len(), 2);
        assert!(hub.get(0, 0).is_none(), "nothing published yet");
        hub.publish(0, 1, &[7, 9]);
        assert!(hub.get(0, 0).is_none(), "other partition still absent");
        let f = hub.get(0, 1).unwrap();
        assert!(f(7) && f(9) && !f(8));
        assert_eq!(hub.stats().published.get(), 1);
        // Unknown ids are ignored, not panics.
        hub.publish(5, 0, &[1]);
        assert!(hub.get(5, 0).is_none());
    }

    #[test]
    fn consult_keeps_every_row_routed_to_an_unpublished_partition() {
        use asterix_adm::{encode_tuple, serde, Value};

        let stats = FilterStats::default();
        let hub = RuntimeFilterHub::new(1, Some(exact_factory()), stats.clone());
        let key = |k: i64| serde::encode(&Value::Int64(k));
        let hash = |k: i64| hash_encoded_key(ValueRef::new(&key(k)));
        // The build side holds the even keys below 20; of the join's two
        // partitions only partition 0 has published.
        let built =
            |p: u64| -> Vec<u64> { (0..20).step_by(2).map(hash).filter(|h| h % 2 == p).collect() };
        hub.publish(0, 0, &built(0));
        let mut consult = FilterConsult::new(&hub, 0, 2);
        consult.poll();
        let mut routed = [0u64; 2];
        for k in 0..40 {
            let p = (hash(k) % 2) as usize;
            routed[p] += 1;
            let partner = k < 20 && k % 2 == 0;
            let kept = consult.keep_value(ValueRef::new(&key(k)));
            assert_eq!(kept, p == 1 || partner, "key {k}, partition {p}");
            // A tuple is decided as its one-column key value is.
            let tuple = encode_tuple(&[Value::string("x"), Value::Int64(k)]);
            assert_eq!(consult.keep_tuple(&TupleRef::new(&tuple).unwrap(), &[1]), kept);
        }
        assert!(routed[0] > 0 && routed[1] > 0, "{routed:?}");
        consult.flush_stats();
        assert_eq!(stats.checked.get(), 2 * routed[0], "unpublished partitions check nothing");
        let pruned_p0 = stats.pruned_tuples.get();

        // Partition 1 publishes: seen from the next poll on, not before.
        hub.publish(0, 1, &built(1));
        assert!((0..40).all(|k| hash(k) % 2 == 0 || consult.keep_value(ValueRef::new(&key(k)))));
        consult.poll();
        for k in 0..40 {
            let kept = consult.keep_value(ValueRef::new(&key(k)));
            assert_eq!(kept, k < 20 && k % 2 == 0, "key {k}");
        }
        consult.flush_stats();
        assert_eq!(stats.pruned_tuples.get(), pruned_p0 + 30, "the 30 keys without a partner");
    }

    #[test]
    fn disabled_hub_never_publishes() {
        let hub = RuntimeFilterHub::disabled();
        hub.publish(0, 0, &[1, 2, 3]);
        assert!(hub.get(0, 0).is_none());
        assert_eq!(hub.stats().published.get(), 0);
    }

    #[test]
    fn hub_without_factory_passes_everything() {
        let hub = RuntimeFilterHub::new(1, None, FilterStats::default());
        hub.publish(0, 0, &[42]);
        assert!(hub.get(0, 0).is_none(), "no factory, nothing published");
    }

    #[test]
    fn stats_register_under_prefix() {
        let stats = FilterStats::default();
        stats.published.add(2);
        stats.checked.add(10);
        stats.pruned_tuples.add(4);
        let reg = MetricsRegistry::new();
        stats.register_into(&reg, "filters");
        let json = reg.to_json();
        assert!(json.contains("\"filters.published\":2"), "{json}");
        assert!(json.contains("\"filters.checked\":10"), "{json}");
        assert!(json.contains("\"filters.pruned_tuples\":4"), "{json}");
    }
}
