//! The simulated shared-nothing cluster (Figure 1 / Figure 4).
//!
//! One process hosts a Cluster Controller (the query entry point — in this
//! reproduction, [`crate::Instance`]) and N Node Controllers, each managing
//! P storage partitions on its own directory subtree. Operator instances
//! run one thread per partition, so "nodes" are failure/locality domains
//! rather than processes; every data path (hash partitioning by primary
//! key, node-local secondary indexes, per-node transaction logs) follows
//! the paper's architecture.

use std::path::{Path, PathBuf};

/// Cluster layout and storage tuning.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Node Controllers in the simulated cluster.
    pub nodes: usize,
    /// Storage partitions per node (the paper's setup: 3 data disks per
    /// node → 30 partitions over 10 nodes).
    pub partitions_per_node: usize,
    /// Root directory for all node storage.
    pub base_dir: PathBuf,
    /// In-memory LSM component budget per index partition, in bytes.
    pub mem_component_budget: usize,
    /// Buffer cache capacity in entries (shared per instance): a row page
    /// or one column chunk each, whatever its size (see `storage::cache`).
    pub buffer_cache_pages: usize,
    /// Lock stripes in the shared buffer cache (clamped so small caches
    /// keep useful per-shard capacity).
    pub cache_shards: usize,
    /// Merge policy for all LSM indexes.
    pub merge_policy: asterix_storage::MergePolicy,
    /// fsync on commit (see `asterix_txn::wal::Durability`).
    pub fsync_commits: bool,
    /// Bound on frames buffered per exchange channel — the executor's
    /// backpressure knob (see DESIGN.md "Execution & storage tuning").
    pub frames_in_flight: usize,
    /// Compiled-plan cache capacity (entries, LRU-evicted). One entry per
    /// normalized query shape × session/options state; 0 caches nothing,
    /// so every execution compiles its normalized shape afresh.
    pub plan_cache_capacity: usize,
    /// Queries allowed to run at once; later arrivals queue (admission
    /// control — the workload manager's concurrency gate).
    pub max_concurrent_queries: usize,
    /// Queries allowed to wait for a slot before new arrivals are rejected
    /// outright.
    pub max_queued_queries: usize,
    /// How long a queued query waits for a slot before timing out.
    pub admission_timeout: std::time::Duration,
    /// Cluster-wide working-memory pool the workload manager grants
    /// per-query budgets from.
    pub query_mem_pool_bytes: usize,
    /// Working memory requested for each admitted query (clamped to the
    /// pool's headroom at grant time).
    pub per_query_mem_bytes: usize,
    /// Per-trace ring capacity (finished spans retained) for profiled
    /// queries. Tracing itself is per-query: `Instance::profile` traces,
    /// `Instance::query` does not.
    pub trace_capacity: usize,
    /// When set, a background sampler thread snapshots the instance
    /// metrics registry at this cadence, retaining per-interval deltas in
    /// a bounded in-memory ring (`Instance::metrics_timeseries_json`).
    /// `None` (the default) spawns no sampler.
    pub metrics_sample_interval: Option<std::time::Duration>,
}

impl ClusterConfig {
    /// A small local cluster: 2 nodes × 2 partitions.
    pub fn small(base_dir: impl Into<PathBuf>) -> ClusterConfig {
        ClusterConfig {
            nodes: 2,
            partitions_per_node: 2,
            base_dir: base_dir.into(),
            mem_component_budget: 4 << 20,
            buffer_cache_pages: 4096,
            cache_shards: 8,
            merge_policy: asterix_storage::MergePolicy::default(),
            fsync_commits: false,
            frames_in_flight: 8,
            plan_cache_capacity: 64,
            max_concurrent_queries: 16,
            max_queued_queries: 64,
            admission_timeout: std::time::Duration::from_secs(10),
            query_mem_pool_bytes: 1 << 30,
            per_query_mem_bytes: 128 << 20,
            trace_capacity: asterix_obs::DEFAULT_TRACE_CAPACITY,
            metrics_sample_interval: None,
        }
    }

    /// Total storage partitions.
    pub fn partitions(&self) -> usize {
        (self.nodes * self.partitions_per_node).max(1)
    }

    /// Which node hosts a partition.
    pub fn node_of(&self, partition: usize) -> usize {
        partition / self.partitions_per_node.max(1)
    }

    /// Storage directory of one node.
    pub fn node_dir(&self, node: usize) -> PathBuf {
        self.base_dir.join(format!("node{node}"))
    }

    /// Transaction-log path of one node ("system data" disk in the paper's
    /// setup).
    pub fn node_log_path(&self, node: usize) -> PathBuf {
        self.node_dir(node).join("txn.log")
    }

    /// Directory of one index partition.
    pub fn index_dir(
        &self,
        partition: usize,
        dataverse: &str,
        dataset: &str,
        index: &str,
    ) -> PathBuf {
        self.node_dir(self.node_of(partition))
            .join(format!("p{partition}"))
            .join(dataverse)
            .join(dataset)
            .join(index)
    }

    /// The DDL replay log (persisted catalog).
    pub fn ddl_log_path(&self) -> PathBuf {
        self.base_dir.join("ddl.log")
    }
}

/// Summary of the simulated topology (for diagnostics and the README
/// architecture walkthrough).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    pub nodes: usize,
    pub partitions: usize,
}

/// Compute the topology of a config.
pub fn topology(cfg: &ClusterConfig) -> Topology {
    Topology { nodes: cfg.nodes, partitions: cfg.partitions() }
}

/// True if `path` belongs to the node directory layout (sanity checks in
/// drop/cleanup paths).
pub fn is_node_path(cfg: &ClusterConfig, path: &Path) -> bool {
    path.starts_with(&cfg.base_dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_to_node_mapping() {
        let cfg =
            ClusterConfig { nodes: 3, partitions_per_node: 2, ..ClusterConfig::small("/tmp/x") };
        assert_eq!(cfg.partitions(), 6);
        assert_eq!(cfg.node_of(0), 0);
        assert_eq!(cfg.node_of(1), 0);
        assert_eq!(cfg.node_of(2), 1);
        assert_eq!(cfg.node_of(5), 2);
    }

    #[test]
    fn paths_are_per_node() {
        let cfg = ClusterConfig::small("/tmp/base");
        let d = cfg.index_dir(3, "TinySocial", "MugshotUsers", "primary");
        assert!(d.starts_with("/tmp/base/node1/p3"), "{}", d.display());
        assert!(is_node_path(&cfg, &d));
        assert!(!is_node_path(&cfg, Path::new("/etc")));
    }
}
