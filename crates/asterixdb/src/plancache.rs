//! The compiled-plan cache (prepared queries).
//!
//! Query compilation (parse → translate → optimize → jobgen) dominates
//! end-to-end latency for short queries. The cache stores the *optimized
//! logical plan* of each normalized query shape — literals lifted into
//! [`asterix_algebricks::expr::LogicalExpr::Param`] slots by
//! `asterix_aql::normalize` — keyed by everything that shapes the plan:
//! the literal-stripped AST fingerprint, the session's dataverse and
//! similarity settings, and the optimizer options (minus the per-execution
//! memory grant). A hit skips parse-to-optimize entirely and re-runs only
//! job generation with the execution's parameter vector bound into the
//! `EvalCtx`, so index bounds, ordkey predicate keys, and pushed scan
//! filters all resolve against the *current* constants and the *current*
//! storage state.
//!
//! Invalidation is epoch-based: every DDL bumps the instance's catalog
//! epoch; a hit whose entry was compiled under an older epoch is discarded
//! and recompiled. Eviction is LRU under
//! [`crate::ClusterConfig::plan_cache_capacity`].

use std::collections::HashMap;
use std::sync::Arc;

use asterix_adm::Value;
use asterix_algebricks::plan::LogicalOp;
use asterix_algebricks::rules::OptimizerOptions;
use asterix_obs::{Counter, Histogram, MetricsRegistry};
use asterix_sync::Mutex;

/// Everything that must match for a cached plan to be reusable.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Literal-stripped AST fingerprint (`asterix_aql::normalize`).
    pub fingerprint: String,
    /// Session dataverse — dataset name resolution happens at translate
    /// time, so `use dataverse` changes the plan.
    pub dataverse: String,
    /// Session `simfunction`/`simthreshold` — the `~=` lowering bakes the
    /// threshold into the translated plan as a constant.
    pub simfunction: String,
    pub simthreshold: String,
    /// Canonical text of the plan-shaping optimizer options and A/B knobs
    /// (see [`options_key`]).
    pub options: String,
}

/// Canonical key text for the optimizer options, excluding the per-query
/// memory grant: the grant changes per execution and is applied at job
/// generation (which a cache hit re-runs anyway), not at plan shaping.
pub fn options_key(options: &OptimizerOptions) -> String {
    format!("{:?}", OptimizerOptions { query_mem_budget: None, ..options.clone() })
}

/// One cached entry: the optimized parameterized plan and the catalog
/// epoch it was compiled under.
#[derive(Clone)]
pub struct CachedPlan {
    pub plan: Arc<LogicalOp>,
    pub epoch: u64,
    /// Number of parameter slots the plan expects.
    pub nparams: usize,
}

/// Cache counters, adopted into the instance registry under
/// `compile.plan_cache.*` / `compile.cached_bind_us`.
#[derive(Clone, Default)]
pub struct PlanCacheStats {
    pub hits: Counter,
    pub misses: Counter,
    pub evictions: Counter,
    pub invalidations: Counter,
    /// Time spent binding parameters into a cached plan (the hit-path
    /// jobgen re-run).
    pub bind_us: Histogram,
}

impl PlanCacheStats {
    fn new() -> PlanCacheStats {
        PlanCacheStats { bind_us: Histogram::duration_us(), ..Default::default() }
    }

    pub fn register_into(&self, reg: &MetricsRegistry) {
        reg.register_counter("compile.plan_cache.hits", &self.hits);
        reg.register_counter("compile.plan_cache.misses", &self.misses);
        reg.register_counter("compile.plan_cache.evictions", &self.evictions);
        reg.register_counter("compile.plan_cache.invalidations", &self.invalidations);
        reg.register_histogram("compile.cached_bind_us", &self.bind_us);
    }
}

struct Entry {
    plan: CachedPlan,
    last_used: u64,
}

struct Inner {
    map: HashMap<PlanKey, Entry>,
    tick: u64,
}

/// LRU cache of optimized parameterized plans.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
    pub stats: PlanCacheStats,
}

impl PlanCache {
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            inner: Mutex::new(Inner { map: HashMap::new(), tick: 0 }),
            stats: PlanCacheStats::new(),
        }
    }

    /// Look up a plan. Counts a hit only when the entry exists *and* its
    /// epoch is current; a stale entry is dropped (invalidation + miss),
    /// and an absent key is a plain miss.
    pub fn lookup(&self, key: &PlanKey, current_epoch: u64) -> Option<CachedPlan> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(e) if e.plan.epoch == current_epoch => {
                e.last_used = tick;
                self.stats.hits.inc();
                Some(e.plan.clone())
            }
            Some(_) => {
                inner.map.remove(key);
                self.stats.invalidations.inc();
                self.stats.misses.inc();
                None
            }
            None => {
                self.stats.misses.inc();
                None
            }
        }
    }

    /// Insert (or refresh) an entry, LRU-evicting when over capacity.
    pub fn insert(&self, key: PlanKey, plan: CachedPlan) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some(victim) =
                inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
                self.stats.evictions.inc();
            }
        }
        inner.map.insert(key, Entry { plan, last_used: tick });
    }

    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (tests / manual reset).
    pub fn clear(&self) {
        self.inner.lock().map.clear();
    }
}

/// A query prepared with [`crate::Instance::prepare`]: the normalized
/// (literal-stripped) AST plus the literals the normalizer lifted, which
/// double as the default parameter vector. Execute it with
/// [`crate::Instance::execute_prepared`], passing either the defaults or a
/// same-length vector of replacement constants.
#[derive(Clone)]
pub struct PreparedQuery {
    pub(crate) expr: Arc<asterix_aql::Expr>,
    pub(crate) fingerprint: String,
    pub(crate) default_params: Vec<Value>,
}

impl PreparedQuery {
    /// Number of parameter slots (and the length `execute_prepared`
    /// expects of its parameter vector).
    pub fn param_count(&self) -> usize {
        self.default_params.len()
    }

    /// The literals lifted from the original statement, in slot order.
    pub fn default_params(&self) -> &[Value] {
        &self.default_params
    }

    /// The canonical fingerprint of the normalized statement.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The fingerprint with `params` bound into the slots, once their
    /// count matches [`PreparedQuery::param_count`].
    pub(crate) fn bind<'a>(&'a self, params: &'a [Value]) -> crate::Result<(&'a str, &'a [Value])> {
        if params.len() != self.param_count() {
            return Err(crate::AsterixError::Execution(format!(
                "prepared query expects {} parameters, got {}",
                self.param_count(),
                params.len()
            )));
        }
        Ok((&self.fingerprint, params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(fp: &str) -> PlanKey {
        PlanKey {
            fingerprint: fp.into(),
            dataverse: "Default".into(),
            simfunction: "jaccard".into(),
            simthreshold: "0.5f".into(),
            options: "opts".into(),
        }
    }

    fn plan(epoch: u64) -> CachedPlan {
        CachedPlan { plan: Arc::new(LogicalOp::EmptyTupleSource), epoch, nparams: 0 }
    }

    #[test]
    fn hit_miss_and_epoch_invalidation() {
        let c = PlanCache::new(4);
        assert!(c.lookup(&key("q1"), 0).is_none());
        c.insert(key("q1"), plan(0));
        assert!(c.lookup(&key("q1"), 0).is_some());
        // DDL moved the epoch: the entry must not be served.
        assert!(c.lookup(&key("q1"), 1).is_none());
        assert_eq!(c.stats.invalidations.get(), 1);
        assert_eq!(c.stats.hits.get(), 1);
        assert_eq!(c.stats.misses.get(), 2);
        assert!(c.is_empty());
    }

    #[test]
    fn lru_eviction_order() {
        let c = PlanCache::new(2);
        c.insert(key("a"), plan(0));
        c.insert(key("b"), plan(0));
        // Touch "a" so "b" is the LRU victim.
        assert!(c.lookup(&key("a"), 0).is_some());
        c.insert(key("c"), plan(0));
        assert_eq!(c.stats.evictions.get(), 1);
        assert!(c.lookup(&key("a"), 0).is_some());
        assert!(c.lookup(&key("b"), 0).is_none());
        assert!(c.lookup(&key("c"), 0).is_some());
    }

    #[test]
    fn zero_capacity_never_stores() {
        let c = PlanCache::new(0);
        c.insert(key("a"), plan(0));
        assert!(c.lookup(&key("a"), 0).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn options_key_ignores_memory_grant() {
        let a = OptimizerOptions::default();
        let b = OptimizerOptions { query_mem_budget: Some(64 << 20), ..Default::default() };
        assert_eq!(options_key(&a), options_key(&b));
        let c = OptimizerOptions { enable_index_access: false, ..Default::default() };
        assert_ne!(options_key(&a), options_key(&c));
    }
}
