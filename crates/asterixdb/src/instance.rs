//! The AsterixDB instance: the Cluster Controller role of Figure 1 —
//! receives AQL statements, compiles them through Algebricks, runs Hyracks
//! jobs over the node partitions, and manages DDL, DML, feeds, and
//! recovery.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use asterix_adm::functions::FunctionContext;
use asterix_adm::types::{Datatype, FieldType, RecordType};
use asterix_adm::Value;
use asterix_algebricks::jobgen;
use asterix_algebricks::metadata::MetadataProvider;
use asterix_algebricks::plan::LogicalOp;
use asterix_algebricks::rules::{optimize, OptimizerOptions};
use asterix_aql::ast::{delete_query, Expr, IndexTypeAst, Statement, TypeExpr};
use asterix_aql::normalize::normalize_query;
use asterix_aql::parser::parse_statements_spanned;
use asterix_aql::translate::Translator;
use asterix_feeds::{socket_adaptor, ComputeFn, IngestionPipeline, SocketEndpoint};
use asterix_metadata::{
    Catalog, DatasetKind, DatasetMeta, FeedMeta, FunctionMeta, IndexKindMeta, IndexMeta,
    ACTIVE_JOBS_DATASET, METRICS_DATASET,
};
use asterix_obs::{
    log_event, now_us, Gauge, MetricsRegistry, Sampler, Span, SpanRecord, TraceContext,
};
use asterix_storage::BufferCache;
use asterix_sync::{Mutex, RwLock};
use asterix_txn::wal::{Durability, LogManager, Lsn};
use asterix_txn::{recover, LockManager, RecoveryTarget};

use crate::cluster::ClusterConfig;
use crate::dataset::DatasetRuntime;
use crate::error::{AsterixError, Result};
use crate::nodelog::NodeLog;
use crate::profile::QueryProfile;
use crate::provider::{InstanceProvider, SessionCatalog, Shared};
use crate::session::Session;

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    /// DDL / session statement completed.
    Ok,
    /// DML completed, affecting this many records.
    Count(usize),
    /// Query rows.
    Rows(Vec<Value>),
}

impl StatementResult {
    /// Rows of a query result (empty for non-queries).
    pub fn rows(&self) -> &[Value] {
        match self {
            StatementResult::Rows(r) => r,
            _ => &[],
        }
    }

    pub fn count(&self) -> usize {
        match self {
            StatementResult::Count(n) => *n,
            StatementResult::Rows(r) => r.len(),
            StatementResult::Ok => 0,
        }
    }
}

struct FeedRuntime {
    endpoint: SocketEndpoint,
    pipelines: HashMap<String, IngestionPipeline>, // by target dataset
}

/// A running AsterixDB instance.
pub struct Instance {
    cfg: ClusterConfig,
    shared: Arc<Shared>,
    locks: Arc<LockManager>,
    /// Each node's write-ahead log, by node.
    logs: Vec<Arc<NodeLog>>,
    next_dataset_id: AtomicU32,
    by_id: RwLock<HashMap<u32, Arc<DatasetRuntime>>>,
    cache: Arc<BufferCache>,
    /// Exchange-layer counters accumulated across every query this
    /// instance runs (frames/tuples sent, backpressure stalls).
    exchange_stats: Arc<asterix_hyracks::ExchangeStats>,
    /// Runtime-join-filter counters accumulated across every query
    /// (filters published, probe tuples checked/pruned).
    filter_stats: asterix_hyracks::FilterStats,
    /// The unified stats registry: exchange counters, per-shard cache
    /// hit/miss, per-node WAL appends/forces, and per-index LSM
    /// maintenance metrics, all adopted under stable names.
    metrics: Arc<MetricsRegistry>,
    /// The built-in session behind the legacy session-less API
    /// (`execute`/`query`/...). Callers that need isolation — the network
    /// front end, concurrent in-process threads — create their own with
    /// [`Instance::new_session`] and use the `*_in` entry points.
    default_session: Session,
    /// Live count of sessions created by [`Instance::new_session`]
    /// (registered as `sessions.active`; the built-in session is excluded).
    sessions_active: Gauge,
    /// Serializes appends to the DDL replay log so a statement and its
    /// `use dataverse` context record land adjacently.
    ddl_append: Mutex<()>,
    feeds: Mutex<HashMap<String, FeedRuntime>>,
    /// Optimizer switches (Table 3's no-index runs, limit-pushdown
    /// ablation).
    pub optimizer_options: RwLock<OptimizerOptions>,
    /// The workload manager: admission control, per-query memory grants,
    /// and cooperative cancellation (DESIGN.md "Workload management").
    rm: Arc<asterix_rm::ResourceManager>,
    /// Columnar-storage counters shared by every dataset's primary trees
    /// (components built, columns projected, bytes skipped, spilled rows).
    columnar_stats: Arc<asterix_storage::ColumnarStats>,
    /// Continuous metrics sampler (running when the config sets
    /// `metrics_sample_interval`); stopped on drop.
    sampler: Mutex<Option<Sampler>>,
    /// When true, DDL is not persisted (used internally during replay).
    replaying: std::sync::atomic::AtomicBool,
    /// LRU cache of optimized parameterized plans, keyed by normalized
    /// statement shape × session/options state (DESIGN.md "Plan cache &
    /// prepared queries").
    plan_cache: crate::plancache::PlanCache,
}

/// Frames the continuous sampler retains (at a 1 s cadence, 10 minutes of
/// registry deltas).
const SAMPLER_RING_CAPACITY: usize = 600;

/// Per-query execution options for [`Instance::query_with`].
#[derive(Debug, Clone, Default)]
pub struct QueryOpts {
    /// Cancel the query if it has not finished within this duration
    /// (measured from admission, including any queue wait).
    pub deadline: Option<Duration>,
}

/// A compiled, runnable query plus everything the callers report: the
/// optimized plan (for EXPLAIN / profiles), the compile-side lifecycle
/// spans, and how the plan cache was involved.
struct CompiledStatement {
    job: jobgen::CompiledQuery,
    plan: Arc<LogicalOp>,
    /// Compile-phase spans in order (everything between parse and execute):
    /// `[plan_cache]` on a hit, `[translate, optimize, jobgen, plan_cache]`
    /// on a miss.
    phases: Vec<asterix_obs::SpanRecord>,
    /// The plan was bound from the cache rather than compiled.
    cache_hit: bool,
}

/// What [`Instance::run_admitted_query`] produced: the rows and the
/// statement that produced them; a traced run adds its `execute` phase to
/// the statement's phases and returns the per-operator profile.
struct AdmittedRun {
    rows: Vec<Value>,
    compiled: CompiledStatement,
    operators: Option<asterix_hyracks::JobProfile>,
}

/// Build-side runtime-filter factory: a Bloom filter over the join-key
/// hashes (the same structure storage uses for LSM point lookups), sized
/// for ~1% false positives. False positives only cost shipping a tuple the
/// join would drop anyway; there are no false negatives, so probe-side
/// pruning never changes results.
fn bloom_filter_factory() -> asterix_hyracks::FilterFactory {
    Arc::new(|hashes: &[u64]| {
        let mut bloom = asterix_storage::bloom::BloomFilter::with_capacity(hashes.len(), 0.01);
        for h in hashes {
            bloom.insert(&h.to_le_bytes());
        }
        Arc::new(move |h: u64| bloom.may_contain(&h.to_le_bytes())) as asterix_hyracks::KeyTest
    })
}

impl Instance {
    /// Open (or create) an instance rooted at the config's base dir,
    /// replaying persisted DDL and running WAL crash recovery.
    pub fn open(cfg: ClusterConfig) -> Result<Arc<Instance>> {
        std::fs::create_dir_all(&cfg.base_dir)?;
        let mut logs = Vec::with_capacity(cfg.nodes);
        for n in 0..cfg.nodes {
            std::fs::create_dir_all(cfg.node_dir(n))?;
            let durability = if cfg.fsync_commits { Durability::Fsync } else { Durability::Buffer };
            logs.push(NodeLog::new(LogManager::open(&cfg.node_log_path(n), durability)?));
        }
        let shared = Arc::new(Shared {
            catalog: RwLock::new(Catalog::new()),
            datasets: RwLock::new(HashMap::new()),
            external_cache: RwLock::new(HashMap::new()),
            partitions: cfg.partitions(),
            system_datasets: RwLock::new(HashMap::new()),
            epoch: std::sync::atomic::AtomicU64::new(0),
        });
        let instance = Arc::new(Instance {
            cache: BufferCache::with_shards(cfg.buffer_cache_pages, cfg.cache_shards),
            exchange_stats: Arc::new(asterix_hyracks::ExchangeStats::new()),
            filter_stats: asterix_hyracks::FilterStats::default(),
            columnar_stats: Arc::new(asterix_storage::ColumnarStats::default()),
            metrics: Arc::new(MetricsRegistry::new()),
            locks: LockManager::new(Duration::from_secs(10)),
            logs,
            next_dataset_id: AtomicU32::new(1),
            by_id: RwLock::new(HashMap::new()),
            shared,
            default_session: Session::new(None),
            sessions_active: Gauge::new(),
            ddl_append: Mutex::new(()),
            feeds: Mutex::new(HashMap::new()),
            optimizer_options: RwLock::new(OptimizerOptions::default()),
            rm: asterix_rm::ResourceManager::new(asterix_rm::RmConfig {
                max_concurrent: cfg.max_concurrent_queries,
                max_queued: cfg.max_queued_queries,
                queue_timeout: cfg.admission_timeout,
                mem_pool_bytes: cfg.query_mem_pool_bytes,
                per_query_mem_bytes: cfg.per_query_mem_bytes,
                ..Default::default()
            }),
            sampler: Mutex::new(None),
            replaying: std::sync::atomic::AtomicBool::new(false),
            plan_cache: crate::plancache::PlanCache::new(cfg.plan_cache_capacity),
            cfg,
        });
        // Adopt every subsystem's intrinsic counters under stable names so
        // one snapshot covers the whole instance.
        instance.exchange_stats.register_into(&instance.metrics, "exchange");
        instance.filter_stats.register_into(&instance.metrics, "filters");
        instance.columnar_stats.register_into(&instance.metrics, "storage.columnar");
        instance.cache.register_into(&instance.metrics, "cache");
        instance.rm.stats().register_into(&instance.metrics, "rm");
        instance.plan_cache.stats.register_into(&instance.metrics);
        instance.metrics.register_gauge("sessions.active", &instance.sessions_active);
        for (n, log) in instance.logs.iter().enumerate() {
            log.wal().register_into(&instance.metrics, &format!("wal.node{n}"));
        }
        // Live system views: ordinary AQL over `Metadata.ActiveJobs` /
        // `Metadata.Metrics` observes the instance as of the scan.
        let rm = Arc::clone(&instance.rm);
        instance.shared.register_system_dataset(
            ACTIVE_JOBS_DATASET,
            Arc::new(move || crate::system::active_jobs_records(&rm.list_jobs())),
        );
        let metrics = Arc::clone(&instance.metrics);
        instance.shared.register_system_dataset(
            METRICS_DATASET,
            Arc::new(move || crate::system::metrics_records(&metrics.snapshot())),
        );
        if let Some(interval) = instance.cfg.metrics_sample_interval {
            *instance.sampler.lock() = Some(Sampler::start(
                Arc::clone(&instance.metrics),
                interval,
                SAMPLER_RING_CAPACITY,
            ));
        }
        instance.replay_ddl()?;
        instance.recover_from_wal()?;
        Ok(instance)
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The write-ahead log of node `n`.
    pub fn node_log(&self, n: usize) -> &NodeLog {
        &self.logs[n]
    }

    /// Executor settings derived from the cluster config (partition count
    /// is set per query by the compiler).
    fn executor_config(&self) -> asterix_hyracks::ExecutorConfig {
        asterix_hyracks::ExecutorConfig {
            frames_in_flight: self.cfg.frames_in_flight,
            filter_factory: Some(bloom_filter_factory()),
            filter_stats: self.filter_stats.clone(),
            ..Default::default()
        }
    }

    /// Cumulative runtime-join-filter counters across every job this
    /// instance ran (a view over the registry's `filters.*` metrics).
    pub fn filter_stats(&self) -> &asterix_hyracks::FilterStats {
        &self.filter_stats
    }

    /// Cumulative exchange counters across every job this instance ran.
    /// A thin view over the registry's `exchange.*` metrics.
    pub fn exchange_stats(&self) -> &asterix_hyracks::ExchangeStats {
        &self.exchange_stats
    }

    /// Buffer-cache hit/miss counters and hit rate, aggregated over the
    /// cache's shards (a view over the registry's `cache.*` metrics).
    pub fn cache_stats(&self) -> (u64, u64, f64) {
        let (hits, misses) = self.cache.stats();
        (hits, misses, self.cache.hit_rate())
    }

    /// Per-shard `(hits, misses, hit_rate)` of the buffer cache, in shard
    /// order.
    pub fn per_shard_cache_stats(&self) -> Vec<(u64, u64, f64)> {
        self.cache
            .per_shard_stats()
            .into_iter()
            .map(|(h, m)| {
                let total = h + m;
                let rate = if total == 0 { 0.0 } else { h as f64 / total as f64 };
                (h, m, rate)
            })
            .collect()
    }

    /// The unified metrics registry for this instance.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Columnar-storage counters (shared across every dataset).
    pub fn columnar_stats(&self) -> &asterix_storage::ColumnarStats {
        &self.columnar_stats
    }

    /// Schema-versioned JSON snapshot of every registered metric.
    pub fn metrics_json(&self) -> String {
        format!("{{\"schema_version\":1,\"metrics\":{}}}", self.metrics.to_json())
    }

    /// Point-in-time view of the whole instance: the workload manager's
    /// jobs table (with live tuple progress) plus a full metrics snapshot.
    /// The same data backs the queryable `Metadata.ActiveJobs` and
    /// `Metadata.Metrics` pseudo-datasets.
    pub fn system_snapshot(&self) -> crate::system::SystemSnapshot {
        crate::system::SystemSnapshot {
            ts_us: now_us(),
            jobs: self.rm.list_jobs(),
            metrics: self.metrics.snapshot(),
        }
    }

    /// Prometheus text exposition of every registered metric.
    pub fn metrics_prometheus(&self) -> String {
        self.metrics.to_prometheus()
    }

    /// The continuous sampler's retained per-interval registry deltas as a
    /// JSON array (empty when `metrics_sample_interval` is unset).
    pub fn metrics_timeseries_json(&self) -> String {
        self.sampler.lock().as_ref().map_or_else(|| "[]".to_string(), Sampler::to_json)
    }

    /// The shared catalog/dataset state (for embedding scenarios that build
    /// their own providers, e.g. differential tests running the interpreter
    /// against live storage).
    pub fn shared_state(&self) -> Arc<crate::provider::Shared> {
        Arc::clone(&self.shared)
    }

    fn replay_ddl(&self) -> Result<()> {
        let path = self.cfg.ddl_log_path();
        if !path.exists() {
            return Ok(());
        }
        let content = std::fs::read_to_string(&path)?;
        self.replaying.store(true, Ordering::SeqCst);
        let result = (|| -> Result<()> {
            for stmt_src in content.split('\u{1e}') {
                let stmt_src = stmt_src.trim();
                if stmt_src.is_empty() {
                    continue;
                }
                self.execute(stmt_src)?;
            }
            Ok(())
        })();
        self.replaying.store(false, Ordering::SeqCst);
        result
    }

    /// Persist a dataverse-scoped DDL statement: the record is prefixed
    /// with the issuing session's `use dataverse` so replay re-creates the
    /// object in the right namespace even when statements from different
    /// sessions (different current dataverses) interleave in the log.
    fn persist_ddl(&self, sess: &Session, source: &str) -> Result<()> {
        let dv = sess.current_dataverse();
        self.persist_ddl_records(&[&format!("use dataverse {dv}"), source])
    }

    /// Persist a dataverse-independent statement (`create/drop dataverse`)
    /// verbatim.
    fn persist_ddl_absolute(&self, source: &str) -> Result<()> {
        self.persist_ddl_records(&[source])
    }

    fn persist_ddl_records(&self, records: &[&str]) -> Result<()> {
        if self.replaying.load(Ordering::SeqCst) {
            return Ok(());
        }
        use std::io::Write;
        // One writer at a time so a statement and its session-context
        // record land adjacently in the log.
        let _guard = self.ddl_append.lock();
        let mut f =
            std::fs::OpenOptions::new().create(true).append(true).open(self.cfg.ddl_log_path())?;
        for source in records {
            // Record-separator-delimited statements (statements may contain
            // semicolons inside string literals).
            writeln!(f, "{source}\u{1e}")?;
        }
        f.sync_data()?;
        Ok(())
    }

    fn recover_from_wal(&self) -> Result<()> {
        struct Target<'a> {
            by_id: &'a HashMap<u32, Arc<DatasetRuntime>>,
        }
        impl RecoveryTarget for Target<'_> {
            fn replay_insert(
                &mut self,
                dataset: u32,
                index: u32,
                lsn: Lsn,
                key: &[u8],
                value: &[u8],
            ) -> asterix_txn::Result<()> {
                if let Some(ds) = self.by_id.get(&dataset) {
                    ds.replay(index, lsn, key, value, false).map_err(|e| {
                        asterix_txn::TxnError::Corrupt(format!("replay failed: {e}"))
                    })?;
                }
                Ok(())
            }

            fn replay_delete(
                &mut self,
                dataset: u32,
                index: u32,
                lsn: Lsn,
                key: &[u8],
                value: &[u8],
            ) -> asterix_txn::Result<()> {
                if let Some(ds) = self.by_id.get(&dataset) {
                    ds.replay(index, lsn, key, value, true).map_err(|e| {
                        asterix_txn::TxnError::Corrupt(format!("replay failed: {e}"))
                    })?;
                }
                Ok(())
            }
        }
        let by_id = self.by_id.read().clone();
        let mut target = Target { by_id: &by_id };
        for (n, log) in self.logs.iter().enumerate() {
            recover(&self.cfg.node_log_path(n), &mut target)?;
            log.mark_replayed();
        }
        Ok(())
    }

    /// Checkpoint: flush every dataset. Each flush cuts its node's log
    /// below what recovery still needs (DESIGN.md "Log truncation").
    pub fn checkpoint(&self) -> Result<()> {
        let datasets: Vec<_> = self.shared.datasets.read().values().cloned().collect();
        for ds in datasets {
            ds.flush_all()?;
        }
        Ok(())
    }

    fn provider(&self) -> Arc<dyn MetadataProvider> {
        Arc::new(InstanceProvider { shared: Arc::clone(&self.shared) })
    }

    fn session_catalog(&self, sess: &Session) -> SessionCatalog {
        SessionCatalog {
            shared: Arc::clone(&self.shared),
            current_dataverse: sess.current_dataverse(),
        }
    }

    fn fn_ctx(&self, sess: &Session) -> FunctionContext {
        let (simfunction, simthreshold) = sess.similarity();
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as i64)
            .unwrap_or(0);
        FunctionContext { now_millis: now, simfunction, simthreshold }
    }

    /// Create a fresh session (current dataverse `Metadata`, default
    /// similarity settings). Statements run through the `*_in` entry points
    /// with this session see their own `use dataverse` / `set` state,
    /// isolated from every other session — one session per client
    /// connection or worker thread is the intended shape.
    pub fn new_session(&self) -> Session {
        Session::new(Some(self.sessions_active.clone()))
    }

    /// Live count of sessions created by [`Instance::new_session`] and not
    /// yet dropped (the `sessions.active` gauge).
    pub fn active_sessions(&self) -> i64 {
        self.sessions_active.get()
    }

    /// Execute a string of AQL statements, returning one result per
    /// statement (the Asterix Client Interface of Figure 4). Runs in the
    /// instance's built-in session; see [`Instance::execute_in`].
    pub fn execute(&self, aql: &str) -> Result<Vec<StatementResult>> {
        self.execute_in(&self.default_session, aql)
    }

    /// [`Instance::execute`] in an explicit session: `use dataverse` and
    /// `set` statements mutate `sess` and nothing else.
    pub fn execute_in(&self, sess: &Session, aql: &str) -> Result<Vec<StatementResult>> {
        let statements = parse_statements_spanned(aql)?;
        let mut out = Vec::with_capacity(statements.len());
        for (stmt, source) in statements {
            out.push(self.execute_statement(sess, stmt, &source)?);
        }
        Ok(out)
    }

    /// Execute a single query and return its rows (convenience).
    pub fn query(&self, aql: &str) -> Result<Vec<Value>> {
        self.query_in(&self.default_session, aql)
    }

    /// [`Instance::query`] in an explicit session.
    pub fn query_in(&self, sess: &Session, aql: &str) -> Result<Vec<Value>> {
        let results = self.execute_in(sess, aql)?;
        for r in results.into_iter().rev() {
            if let StatementResult::Rows(rows) = r {
                return Ok(rows);
            }
        }
        Ok(Vec::new())
    }

    /// Compile a query and return (optimized logical plan, Hyracks job
    /// description) — the EXPLAIN path used to reproduce Figure 6. The
    /// statements before the first query run first, as
    /// [`Instance::execute`] runs them, so a leading `use dataverse`
    /// applies to the query.
    pub fn explain(&self, aql: &str) -> Result<(String, String)> {
        let sess = &self.default_session;
        let e = self.run_to_query(sess, parse_statements_spanned(aql)?, "explain")?;
        let options = self.optimizer_options.read().clone();
        let compiled = self.compile_query(sess, &e, None, &options, None)?;
        Ok((compiled.plan.pretty(), compiled.job.describe()))
    }

    /// Execute the first query in `aql` with full profiling: lifecycle
    /// spans for parse → translate → optimize → jobgen → execute, plus a
    /// per-operator runtime profile of the Hyracks job whose operator ids
    /// map back to the plan nodes the compiler emitted. The statements
    /// before the query run first, as [`Instance::execute`] runs them.
    pub fn profile(&self, aql: &str) -> Result<QueryProfile> {
        let parse_span = Span::start("parse");
        let statements = parse_statements_spanned(aql)?;
        let parse = parse_span.finish();
        let e = self.run_to_query(&self.default_session, statements, "profile")?;
        self.profile_in(&self.default_session, &e, None, Some(parse))
    }

    /// The EXPLAIN pair of [`Instance::explain`], but produced from a real
    /// profiled run: the job description carries each operator's observed
    /// tuple counts and busy time.
    pub fn explain_profiled(&self, aql: &str) -> Result<(String, String)> {
        let p = self.profile(aql)?;
        Ok((p.plan, p.job))
    }

    /// Run `statements` up to the first query as [`Instance::execute_in`]
    /// runs them, and return that query (`what` names the caller's action
    /// in the error when there is none).
    fn run_to_query(
        &self,
        sess: &Session,
        statements: Vec<(Statement, String)>,
        what: &str,
    ) -> Result<Expr> {
        for (stmt, source) in statements {
            match stmt {
                Statement::Query(e) => return Ok(e),
                stmt => {
                    self.execute_statement(sess, stmt, &source)?;
                }
            }
        }
        Err(AsterixError::Execution(format!("no query statement to {what}")))
    }

    /// Profile one query under a fresh trace: a root `query` span with the
    /// queue wait, the compile phases and the per-thread execution spans
    /// nested beneath it. `parse` is the query's parse phase, when it was
    /// parsed for this run.
    fn profile_in(
        &self,
        sess: &Session,
        e: &Expr,
        prepared: Option<(&str, &[Value])>,
        parse: Option<SpanRecord>,
    ) -> Result<QueryProfile> {
        let trace = TraceContext::new_trace(self.cfg.trace_capacity);
        let root = trace.span("query");
        let root_ctx = root.context();
        if let Some(p) = &parse {
            root_ctx.record_span(p);
        }
        let run = self.admit_and_run(sess, e, prepared, "profile", None, Some(&root_ctx));
        root.finish();
        let AdmittedRun { rows, compiled, operators } = run?;
        let operators = operators.expect("a traced run is profiled");
        let profile = QueryProfile {
            job: compiled.job.describe_profiled(&operators),
            plan: compiled.plan.pretty(),
            phases: parse.into_iter().chain(compiled.phases).collect(),
            rows,
            operators,
            trace_id: trace.trace_id(),
            trace: trace.sink().map(|s| s.events()).unwrap_or_default(),
        };
        log_event(
            "asterix.query",
            "profiled",
            &[
                ("rows", profile.rows.len().into()),
                ("operators", profile.operators.operators.len().into()),
                ("total_us", profile.total_us().into()),
                (
                    "execute_us",
                    profile
                        .phase("execute")
                        .map(|s| s.duration.as_micros() as u64)
                        .unwrap_or(0)
                        .into(),
                ),
                ("plan_cache", if compiled.cache_hit { "hit" } else { "miss" }.into()),
            ],
        );
        Ok(profile)
    }

    /// The single compile path behind `query`, `profile`, `explain`, and
    /// the prepared-statement API: normalize the query (literals → `Param`
    /// slots), consult the plan cache, and on a miss run
    /// translate → optimize → jobgen on the normalized shape before
    /// publishing the optimized plan. A hit skips straight to job
    /// generation with this execution's parameter vector bound into the
    /// evaluation context.
    ///
    /// `prepared` short-circuits normalization for [`Instance::prepare`]d
    /// statements: `e` is already literal-stripped and the caller supplies
    /// the fingerprint and parameters.
    fn compile_query(
        &self,
        sess: &Session,
        e: &Expr,
        prepared: Option<(&str, &[Value])>,
        options: &OptimizerOptions,
        trace: Option<&TraceContext>,
    ) -> Result<CompiledStatement> {
        let (expr, fingerprint, params): (std::borrow::Cow<'_, Expr>, String, Vec<Value>) =
            match prepared {
                Some((fp, ps)) => (std::borrow::Cow::Borrowed(e), fp.to_string(), ps.to_vec()),
                None => {
                    let n = normalize_query(e);
                    (std::borrow::Cow::Owned(n.expr), n.fingerprint, n.params)
                }
            };

        let key = {
            let s = sess.snapshot();
            crate::plancache::PlanKey {
                fingerprint,
                dataverse: s.dataverse,
                simfunction: s.simfunction,
                simthreshold: s.simthreshold,
                options: crate::plancache::options_key(options),
            }
        };
        // Epoch is read before compiling: if a DDL lands mid-compile, the
        // entry is stored under the older epoch and the next lookup
        // invalidates it — stale plans are never served.
        let epoch = self.shared.current_epoch();
        if let Some(cached) = self.plan_cache.lookup(&key, epoch) {
            let span = Span::start("plan_cache");
            let job = jobgen::compile_with_params(
                &cached.plan,
                self.provider(),
                self.fn_ctx(sess),
                options,
                params,
            )?;
            let rec = span.finish();
            self.plan_cache.stats.bind_us.record_duration(rec.duration);
            if let Some(t) = trace {
                t.with_label("hit").record_span(&rec);
            }
            return Ok(CompiledStatement {
                job,
                plan: cached.plan,
                phases: vec![rec],
                cache_hit: true,
            });
        }
        let nparams = params.len();
        let mut out = self.compile_fresh(sess, &expr, params, options, trace)?;
        let span = Span::start("plan_cache");
        self.plan_cache.insert(
            key,
            crate::plancache::CachedPlan { plan: Arc::clone(&out.plan), epoch, nparams },
        );
        let rec = span.finish();
        if let Some(t) = trace {
            t.with_label("miss").record_span(&rec);
        }
        out.phases.push(rec);
        Ok(out)
    }

    /// The full translate → optimize → jobgen chain of a cache miss.
    /// `params` fills the plan's `Param` slots at job generation.
    fn compile_fresh(
        &self,
        sess: &Session,
        e: &Expr,
        params: Vec<Value>,
        options: &OptimizerOptions,
        trace: Option<&TraceContext>,
    ) -> Result<CompiledStatement> {
        let catalog = self.session_catalog(sess);
        let translate_span = Span::start("translate");
        let plan = translator(sess, &catalog).translate_query(e)?;
        let translate = translate_span.finish();

        let provider = self.provider();
        let optimize_span = Span::start("optimize");
        let optimized = optimize(plan, &provider, &self.fn_ctx(sess), options);
        let optimize_rec = optimize_span.finish();

        let jobgen_span = Span::start("jobgen");
        let job =
            jobgen::compile_with_params(&optimized, provider, self.fn_ctx(sess), options, params)?;
        let jobgen_rec = jobgen_span.finish();

        if let Some(t) = trace {
            t.record_span(&translate);
            t.record_span(&optimize_rec);
            t.record_span(&jobgen_rec);
        }
        Ok(CompiledStatement {
            job,
            plan: Arc::new(optimized),
            phases: vec![translate, optimize_rec, jobgen_rec],
            cache_hit: false,
        })
    }

    fn execute_statement(
        &self,
        sess: &Session,
        stmt: Statement,
        source: &str,
    ) -> Result<StatementResult> {
        // Any statement that can change the catalog (DDL, feed wiring)
        // bumps the catalog epoch, invalidating every cached plan. DML and
        // queries leave plans valid, and so do the statements that change
        // only their own session (`use dataverse`, `set`): the plan key
        // carries the session's dataverse and settings. A bump on a
        // statement that then fails only costs an extra recompile.
        if !matches!(
            stmt,
            Statement::Query(_)
                | Statement::Insert { .. }
                | Statement::Delete { .. }
                | Statement::Load { .. }
                | Statement::Set { .. }
                | Statement::UseDataverse(_)
        ) {
            self.shared.bump_epoch();
        }
        match stmt {
            Statement::CreateDataverse { name, if_not_exists } => {
                let mut catalog = self.shared.catalog.write();
                match catalog.create_dataverse(&name) {
                    Ok(()) => {}
                    Err(_) if if_not_exists => return Ok(StatementResult::Ok),
                    Err(e) => return Err(e.into()),
                }
                drop(catalog);
                self.persist_ddl_absolute(source)?;
                Ok(StatementResult::Ok)
            }
            Statement::DropDataverse { name, if_exists } => {
                let dropped = {
                    let mut catalog = self.shared.catalog.write();
                    match catalog.drop_dataverse(&name) {
                        Ok(dv) => Some(dv),
                        Err(_) if if_exists => None,
                        Err(e) => return Err(e.into()),
                    }
                };
                if let Some(dv) = dropped {
                    // Drop the stored datasets of the dataverse, including
                    // their on-disk storage.
                    let mut datasets = self.shared.datasets.write();
                    for ds_meta in dv.datasets.values() {
                        self.tear_down_dataset(&mut datasets, &ds_meta.qualified());
                    }
                    self.persist_ddl_absolute(source)?;
                }
                Ok(StatementResult::Ok)
            }
            Statement::UseDataverse(name) => {
                if self.shared.catalog.read().dataverse(&name).is_none() {
                    return Err(AsterixError::Catalog(format!("unknown dataverse {name}")));
                }
                // Not logged: every dataverse-relative DDL record carries
                // its own `use dataverse` (`persist_ddl`).
                sess.set_dataverse(name);
                Ok(StatementResult::Ok)
            }
            Statement::CreateType { name, ty } => {
                let dv = sess.current_dataverse();
                let datatype = lower_type_expr(&ty);
                self.shared.catalog.write().create_type(&dv, &name, datatype)?;
                self.persist_ddl(sess, source)?;
                Ok(StatementResult::Ok)
            }
            Statement::DropType { name, if_exists } => {
                let dv = sess.current_dataverse();
                match self.shared.catalog.write().drop_type(&dv, &name) {
                    Ok(()) => {
                        self.persist_ddl(sess, source)?;
                        Ok(StatementResult::Ok)
                    }
                    Err(_) if if_exists => Ok(StatementResult::Ok),
                    Err(e) => Err(e.into()),
                }
            }
            Statement::CreateDataset { name, type_name, primary_key, autogenerated } => {
                let dv = sess.current_dataverse();
                let meta = DatasetMeta {
                    dataverse: dv.clone(),
                    name: name.clone(),
                    type_name,
                    primary_key,
                    autogenerated,
                    kind: DatasetKind::Internal,
                    indexes: vec![],
                };
                self.shared.catalog.write().create_dataset(meta.clone())?;
                self.materialize_dataset(meta)?;
                self.persist_ddl(sess, source)?;
                Ok(StatementResult::Ok)
            }
            Statement::CreateExternalDataset { name, type_name, adaptor, properties } => {
                let dv = sess.current_dataverse();
                let meta = DatasetMeta {
                    dataverse: dv,
                    name,
                    type_name,
                    primary_key: vec![],
                    autogenerated: false,
                    kind: DatasetKind::External { adaptor, properties },
                    indexes: vec![],
                };
                self.shared.catalog.write().create_dataset(meta)?;
                self.persist_ddl(sess, source)?;
                Ok(StatementResult::Ok)
            }
            Statement::DropDataset { name, if_exists } => {
                let dv = sess.current_dataverse();
                let (dataverse, ds_name) = split_name(&dv, &name);
                match self.shared.catalog.write().drop_dataset(&dataverse, &ds_name) {
                    Ok(meta) => {
                        let mut datasets = self.shared.datasets.write();
                        self.tear_down_dataset(&mut datasets, &meta.qualified());
                        self.persist_ddl(sess, source)?;
                        Ok(StatementResult::Ok)
                    }
                    Err(_) if if_exists => Ok(StatementResult::Ok),
                    Err(e) => Err(e.into()),
                }
            }
            Statement::CreateIndex { name, dataset, fields, index_type } => {
                let dv = sess.current_dataverse();
                let (dataverse, ds_name) = split_name(&dv, &dataset);
                let kind = match index_type {
                    IndexTypeAst::BTree => IndexKindMeta::BTree,
                    IndexTypeAst::RTree => IndexKindMeta::RTree,
                    IndexTypeAst::Keyword => IndexKindMeta::Keyword,
                    IndexTypeAst::NGram(k) => IndexKindMeta::NGram(k),
                };
                let ix = IndexMeta { name: name.clone(), fields, kind };
                self.shared.catalog.write().add_index(&dataverse, &ds_name, ix.clone())?;
                let qualified = format!("{dataverse}.{ds_name}");
                if let Some(rt) = self.shared.dataset(&qualified) {
                    // Replay reopens what the original statement made durable.
                    if self.replaying.load(Ordering::SeqCst) {
                        rt.reopen_index(ix)?;
                    } else {
                        rt.create_index(ix)?;
                    }
                    self.register_lsm_metrics(&rt);
                }
                self.persist_ddl(sess, source)?;
                Ok(StatementResult::Ok)
            }
            Statement::DropIndex { dataset, name, if_exists } => {
                let dv = sess.current_dataverse();
                let (dataverse, ds_name) = split_name(&dv, &dataset);
                match self.shared.catalog.write().drop_index(&dataverse, &ds_name, &name) {
                    Ok(()) => {
                        if let Some(rt) = self.shared.dataset(&format!("{dataverse}.{ds_name}")) {
                            rt.drop_index(&name)?;
                        }
                        self.persist_ddl(sess, source)?;
                        Ok(StatementResult::Ok)
                    }
                    Err(_) if if_exists => Ok(StatementResult::Ok),
                    Err(e) => Err(e.into()),
                }
            }
            Statement::CreateFeed { name, adaptor, properties } => {
                let dv = sess.current_dataverse();
                {
                    let mut catalog = self.shared.catalog.write();
                    let dataverse = catalog.dataverse_mut(&dv)?;
                    if dataverse.feeds.contains_key(&name) {
                        return Err(AsterixError::Catalog(format!("feed {name} already exists")));
                    }
                    dataverse.feeds.insert(
                        name.clone(),
                        FeedMeta { name, adaptor, properties, parent: None, connections: vec![] },
                    );
                }
                self.persist_ddl(sess, source)?;
                Ok(StatementResult::Ok)
            }
            Statement::CreateSecondaryFeed { name, parent } => {
                let dv = sess.current_dataverse();
                {
                    let mut catalog = self.shared.catalog.write();
                    let dataverse = catalog.dataverse_mut(&dv)?;
                    if !dataverse.feeds.contains_key(&parent) {
                        return Err(AsterixError::Catalog(format!("unknown parent feed {parent}")));
                    }
                    if dataverse.feeds.contains_key(&name) {
                        return Err(AsterixError::Catalog(format!("feed {name} already exists")));
                    }
                    dataverse.feeds.insert(
                        name.clone(),
                        FeedMeta {
                            name,
                            adaptor: "secondary".into(),
                            properties: vec![],
                            parent: Some(parent),
                            connections: vec![],
                        },
                    );
                }
                self.persist_ddl(sess, source)?;
                Ok(StatementResult::Ok)
            }
            Statement::ConnectFeed { feed, dataset, apply_function } => {
                self.connect_feed(sess, &feed, &dataset, apply_function.as_deref())?;
                Ok(StatementResult::Ok)
            }
            Statement::DisconnectFeed { feed, dataset } => {
                self.disconnect_feed(sess, &feed, &dataset)?;
                Ok(StatementResult::Ok)
            }
            Statement::CreateFunction { name, params, body: _ } => {
                let dv = sess.current_dataverse();
                {
                    let mut catalog = self.shared.catalog.write();
                    let dataverse = catalog.dataverse_mut(&dv)?;
                    dataverse.functions.insert(
                        name.clone(),
                        FunctionMeta {
                            name,
                            params,
                            // Store the whole statement; the catalog lookup
                            // re-parses it and extracts the body.
                            body_src: source.to_string(),
                        },
                    );
                }
                self.persist_ddl(sess, source)?;
                Ok(StatementResult::Ok)
            }
            Statement::DropFunction { name, if_exists } => {
                let dv = sess.current_dataverse();
                let mut catalog = self.shared.catalog.write();
                let dataverse = catalog.dataverse_mut(&dv)?;
                if dataverse.functions.remove(&name).is_none() && !if_exists {
                    return Err(AsterixError::Catalog(format!("unknown function {name}")));
                }
                drop(catalog);
                self.persist_ddl(sess, source)?;
                Ok(StatementResult::Ok)
            }
            Statement::Set { key, value } => {
                match key.as_str() {
                    "simfunction" => sess.set_simfunction(value),
                    "simthreshold" => sess.set_simthreshold(value),
                    _ => {
                        return Err(AsterixError::Execution(format!(
                            "unknown session parameter {key}"
                        )))
                    }
                }
                Ok(StatementResult::Ok)
            }
            Statement::Insert { dataset, expr } => {
                let n = self.run_insert(sess, &dataset, &expr)?;
                Ok(StatementResult::Count(n))
            }
            Statement::Delete { var, dataset, condition } => {
                let n = self.run_delete(sess, &var, &dataset, condition)?;
                Ok(StatementResult::Count(n))
            }
            Statement::Load { dataset, adaptor, properties } => {
                let n = self.run_load(sess, &dataset, &adaptor, &properties)?;
                Ok(StatementResult::Count(n))
            }
            Statement::Query(e) => {
                let rows = self.run_query(sess, &e)?;
                Ok(StatementResult::Rows(rows))
            }
        }
    }

    fn materialize_dataset(&self, meta: DatasetMeta) -> Result<()> {
        let catalog = self.shared.catalog.read();
        let dv = catalog.dataverse(&meta.dataverse).ok_or_else(|| {
            AsterixError::Catalog(format!("unknown dataverse {}", meta.dataverse))
        })?;
        let datatype = Datatype::Named(meta.type_name.clone());
        let registry = dv.types.clone();
        drop(catalog);
        let id = self.next_dataset_id.fetch_add(1, Ordering::SeqCst);
        let rt = DatasetRuntime::open(
            id,
            meta.clone(),
            datatype,
            registry,
            &self.cfg,
            Arc::clone(&self.cache),
            Arc::clone(&self.locks),
            self.logs.clone(),
            Arc::clone(&self.columnar_stats),
        )?;
        self.register_lsm_metrics(&rt);
        self.shared.datasets.write().insert(meta.qualified(), Arc::clone(&rt));
        self.by_id.write().insert(id, rt);
        Ok(())
    }

    /// Unregister a dropped dataset's runtime from `datasets` (whose write
    /// guard the caller holds) and `by_id`, destroy its on-disk storage,
    /// and forget any cached external records under its name.
    fn tear_down_dataset(
        &self,
        datasets: &mut HashMap<String, Arc<DatasetRuntime>>,
        qualified: &str,
    ) {
        if let Some(rt) = datasets.remove(qualified) {
            self.by_id.write().retain(|_, v| !Arc::ptr_eq(v, &rt));
            rt.destroy_storage();
        }
        self.shared.external_cache.write().remove(qualified);
    }

    /// Adopt the dataset's per-partition LSM maintenance metrics (primary
    /// tree plus any LSM-backed secondaries) into the registry under
    /// `lsm.{dataverse}.{dataset}[.{index}].p{partition}.*`.
    fn register_lsm_metrics(&self, rt: &DatasetRuntime) {
        let base = format!("lsm.{}", rt.meta.qualified());
        for (p, t) in rt.primary.iter().enumerate() {
            t.lsm().metrics().register_into(&self.metrics, &format!("{base}.p{p}"));
        }
        for ix in rt.secondaries.read().iter() {
            for (p, part) in ix.partitions.iter().enumerate() {
                let prefix = format!("{base}.{}.p{p}", ix.meta.name);
                part.lsm().metrics().register_into(&self.metrics, &prefix);
            }
        }
    }

    fn run_query(&self, sess: &Session, e: &Expr) -> Result<Vec<Value>> {
        Ok(self.admit_and_run(sess, e, None, "query", None, None)?.rows)
    }

    /// Parse and normalize the (single) query in `aql` for repeated
    /// execution with [`Instance::execute_prepared`]: every literal is
    /// lifted into a parameter slot, so re-executions with different
    /// constants share one compiled-plan cache entry and skip
    /// parse → translate → optimize entirely.
    pub fn prepare(&self, aql: &str) -> Result<crate::plancache::PreparedQuery> {
        let statements = parse_statements_spanned(aql)?;
        for (stmt, _) in statements {
            if let Statement::Query(e) = stmt {
                let n = normalize_query(&e);
                return Ok(crate::plancache::PreparedQuery {
                    expr: Arc::new(n.expr),
                    fingerprint: n.fingerprint,
                    default_params: n.params,
                });
            }
        }
        Err(AsterixError::Execution("no query statement to prepare".into()))
    }

    /// Execute a prepared query with `params` bound into its slots, in slot
    /// order (pass [`PreparedQuery::default_params`] to run with the
    /// original literals). Admission, memory grants, and cancellation work
    /// exactly as for [`Instance::query`].
    ///
    /// [`PreparedQuery::default_params`]: crate::plancache::PreparedQuery::default_params
    pub fn execute_prepared(
        &self,
        prepared: &crate::plancache::PreparedQuery,
        params: &[Value],
    ) -> Result<Vec<Value>> {
        self.execute_prepared_in(&self.default_session, prepared, params)
    }

    /// [`Instance::execute_prepared`] in an explicit session. The session
    /// matters even for prepared statements: dataset names resolve (and the
    /// plan cache is keyed) against the session's current dataverse.
    pub fn execute_prepared_in(
        &self,
        sess: &Session,
        prepared: &crate::plancache::PreparedQuery,
        params: &[Value],
    ) -> Result<Vec<Value>> {
        let bound = prepared.bind(params)?;
        Ok(self.admit_and_run(sess, &prepared.expr, Some(bound), "query", None, None)?.rows)
    }

    /// [`Instance::profile`] for a prepared query: the profile has no
    /// `parse` phase (parsing happened at prepare time) and its compile
    /// side is the cache lookup plus parameter bind on a hit.
    pub fn profile_prepared(
        &self,
        prepared: &crate::plancache::PreparedQuery,
        params: &[Value],
    ) -> Result<QueryProfile> {
        let bound = prepared.bind(params)?;
        self.profile_in(&self.default_session, &prepared.expr, Some(bound), None)
    }

    /// The compiled-plan cache (counters, length, manual `clear`).
    pub fn plan_cache(&self) -> &crate::plancache::PlanCache {
        &self.plan_cache
    }

    /// Admit `e` under `label` (cancelled at `deadline`, if any) and run
    /// it with [`Instance::run_admitted_query`]. Given a `trace`, the queue
    /// wait is recorded under it and the ticket carries its id.
    fn admit_and_run(
        &self,
        sess: &Session,
        e: &Expr,
        prepared: Option<(&str, &[Value])>,
        label: &str,
        deadline: Option<Duration>,
        trace: Option<&TraceContext>,
    ) -> Result<AdmittedRun> {
        let queue_span = trace.map(|t| t.span("rm.queue_wait")).unwrap_or_default();
        let ticket = self.rm.begin(label, deadline)?;
        queue_span.finish();
        if let Some(t) = trace {
            ticket.set_trace_id(t.trace_id());
        }
        let res = self.run_admitted_query(sess, e, prepared, &ticket, trace);
        self.note_cancelled(&res);
        res
    }

    /// The one path from statement to job, behind queries, inserts,
    /// deletes, profiles and prepared executions: compile `e` through the
    /// plan cache with the ticket's grant as working memory (divided across
    /// the plan's sorts/groups/joins), then run the job with the ticket's
    /// token making every exchange a cancellation point. Given a `trace`,
    /// the compile and execute phases are recorded under it and in
    /// [`AdmittedRun::compiled`], and the job is profiled.
    fn run_admitted_query(
        &self,
        sess: &Session,
        e: &Expr,
        prepared: Option<(&str, &[Value])>,
        ticket: &asterix_rm::QueryTicket,
        trace: Option<&TraceContext>,
    ) -> Result<AdmittedRun> {
        if ticket.token().is_cancelled() {
            return Err(AsterixError::Cancelled);
        }
        let mut options = self.optimizer_options.read().clone();
        options.query_mem_budget = Some(ticket.mem_granted());
        let mut compiled = self.compile_query(sess, e, prepared, &options, trace)?;
        let mut cfg = self.executor_config();
        cfg.cancel = Some(ticket.token().clone());
        // Live tuple progress for `Metadata.ActiveJobs` / `list_jobs`.
        cfg.progress = Some(ticket.progress());
        let execute_span = Span::start("execute");
        let exec_tspan = trace.map(|t| t.span("execute")).unwrap_or_default();
        cfg.trace = exec_tspan.context();
        let (rows, operators) =
            compiled.job.run_with(&cfg, &self.exchange_stats, trace.is_some())?;
        exec_tspan.finish();
        let execute = execute_span.finish();
        log_event(
            "asterix.query",
            "query",
            &[
                ("rows", rows.len().into()),
                ("elapsed_us", (execute.duration.as_micros() as u64).into()),
            ],
        );
        if trace.is_some() {
            compiled.phases.push(execute);
        }
        Ok(AdmittedRun { rows, compiled, operators })
    }

    /// Record a cooperative cancellation in the workload manager's stats.
    /// Counted where the query actually unwinds (not in `cancel()`), so a
    /// cancel racing normal completion is never miscounted and deadline
    /// expiries are included.
    fn note_cancelled<T>(&self, res: &Result<T>) {
        if matches!(res, Err(AsterixError::Cancelled)) {
            self.rm.stats().cancelled.inc();
        }
    }

    /// Cooperatively cancel a queued or running query by the job id shown
    /// in [`Instance::list_jobs`]. The query unwinds at its next exchange
    /// boundary, releases its memory grant and admission slot, and removes
    /// any spill files. Returns false if the id is not live.
    pub fn cancel(&self, job_id: u64) -> bool {
        self.rm.cancel(job_id)
    }

    /// The workload manager's live jobs table: queued, running, and
    /// cancelling queries with their memory grants.
    pub fn list_jobs(&self) -> Vec<asterix_rm::JobInfo> {
        self.rm.list_jobs()
    }

    /// The workload manager itself (admission control, the memory pool,
    /// and `rm.*` stats).
    pub fn resource_manager(&self) -> &Arc<asterix_rm::ResourceManager> {
        &self.rm
    }

    /// Like [`Instance::query`], but with per-query options (deadline) for
    /// the first query in `aql`; the statements before it run first, as
    /// [`Instance::execute`] runs them.
    pub fn query_with(&self, aql: &str, opts: &QueryOpts) -> Result<Vec<Value>> {
        let sess = &self.default_session;
        let e = self.run_to_query(sess, parse_statements_spanned(aql)?, "run")?;
        Ok(self.admit_and_run(sess, &e, None, "query", opts.deadline, None)?.rows)
    }

    /// Look up a stored dataset runtime by session-relative name.
    pub fn dataset(&self, name: &str) -> Result<Arc<DatasetRuntime>> {
        self.dataset_in(&self.default_session, name)
    }

    /// [`Instance::dataset`] resolved against an explicit session's
    /// current dataverse.
    pub fn dataset_in(&self, sess: &Session, name: &str) -> Result<Arc<DatasetRuntime>> {
        let dv = sess.current_dataverse();
        let qualified = self
            .shared
            .catalog
            .read()
            .resolve_dataset(&dv, name)
            .ok_or_else(|| AsterixError::Catalog(format!("cannot find dataset {name}")))?;
        self.shared
            .dataset(&qualified)
            .ok_or_else(|| AsterixError::Catalog(format!("{qualified} is not a stored dataset")))
    }

    fn run_insert(&self, sess: &Session, dataset: &str, expr: &Expr) -> Result<usize> {
        let ds = self.dataset_in(sess, dataset)?;
        let rows = self.run_query(sess, expr)?;
        let mut n = 0;
        for row in rows {
            // A collection-valued row inserts its elements (batch insert:
            // `insert into dataset DS ([r1, r2, ...])`, the Table 4
            // batching shape).
            match row.as_list() {
                Some(items) => {
                    for item in items {
                        ds.insert(item)?;
                        n += 1;
                    }
                }
                None => {
                    ds.insert(&row)?;
                    n += 1;
                }
            }
        }
        Ok(n)
    }

    /// Delete the records [`delete_query`] finds, one `delete_by_pk` per
    /// returned key list.
    fn run_delete(
        &self,
        sess: &Session,
        var: &str,
        dataset: &str,
        condition: Option<Expr>,
    ) -> Result<usize> {
        let ds = self.dataset_in(sess, dataset)?;
        let meta = &ds.meta;
        let victims = delete_query(var, &meta.dataverse, &meta.name, &meta.primary_key, condition);
        let pk_rows = self.admit_and_run(sess, &victims, None, "delete", None, None)?.rows;
        let mut n = 0;
        for pk_row in pk_rows {
            let pk = pk_row
                .as_list()
                .ok_or_else(|| AsterixError::Execution("bad delete pk row".into()))?;
            if ds.delete_by_pk(pk)? {
                n += 1;
            }
        }
        Ok(n)
    }

    fn run_load(
        &self,
        sess: &Session,
        dataset: &str,
        adaptor: &str,
        properties: &[(String, String)],
    ) -> Result<usize> {
        let ds = self.dataset_in(sess, dataset)?;
        let resolved = ds.registry.resolve(&ds.datatype)?;
        let rt = resolved
            .as_record()
            .ok_or_else(|| AsterixError::Catalog("dataset type must be a record".into()))?;
        let records = asterix_external::read_external(adaptor, properties, rt, &ds.registry)?;
        let n = records.len();
        for r in &records {
            ds.insert(r)?;
        }
        Ok(n)
    }

    // -- feeds -----------------------------------------------------------------

    fn connect_feed(
        &self,
        sess: &Session,
        feed: &str,
        dataset: &str,
        apply_function: Option<&str>,
    ) -> Result<()> {
        let ds = self.dataset_in(sess, dataset)?;
        let dv = sess.current_dataverse();
        {
            let mut catalog = self.shared.catalog.write();
            let dataverse = catalog.dataverse_mut(&dv)?;
            let meta = dataverse
                .feeds
                .get_mut(feed)
                .ok_or_else(|| AsterixError::Catalog(format!("unknown feed {feed}")))?;
            if !meta.connections.contains(&ds.meta.qualified()) {
                meta.connections.push(ds.meta.qualified());
            }
        }
        // Compute stage from `apply function f`.
        let compute: Option<ComputeFn> = match apply_function {
            None => None,
            Some(fname) => {
                let catalog = self.session_catalog(sess);
                let def = catalog
                    .shared
                    .catalog
                    .read()
                    .dataverse(&dv)
                    .and_then(|d| d.functions.get(fname).cloned())
                    .ok_or_else(|| AsterixError::Catalog(format!("unknown function {fname}")))?;
                let parsed = asterix_aql::parser::parse_statements(&def.body_src)?;
                let Some(Statement::CreateFunction { body, params, .. }) =
                    parsed.into_iter().next()
                else {
                    return Err(AsterixError::Catalog(format!(
                        "stored function {fname} is corrupt"
                    )));
                };
                if params.len() != 1 {
                    return Err(AsterixError::Execution(
                        "feed apply functions take exactly one parameter".into(),
                    ));
                }
                let mut tr = translator(sess, &catalog);
                let v = tr.fresh_var();
                let mut scope = asterix_aql::translate::Scope::new();
                scope.insert(params[0].clone(), v);
                let lowered = tr.translate_expr(&body, &scope)?;
                let provider = self.provider();
                let fn_ctx = self.fn_ctx(sess);
                let compute: ComputeFn = Arc::new(move |record: Value| {
                    let ctx = asterix_algebricks::expr::EvalCtx::new(
                        Arc::clone(&provider),
                        fn_ctx.clone(),
                    );
                    let mut bindings = std::collections::HashMap::new();
                    bindings.insert(v, record);
                    match asterix_algebricks::expr::eval(&lowered, &bindings, &ctx) {
                        Ok(out) if out.is_unknown() => Ok(None),
                        Ok(out) => Ok(Some(out)),
                        Err(e) => Err(asterix_feeds::FeedError::Adm(e)),
                    }
                });
                Some(compute)
            }
        };
        // Secondary feeds cascade from a parent pipeline's compute joint
        // rather than owning an adaptor (§2.4 / §4.5's Feed Joints).
        let parent = {
            let catalog = self.shared.catalog.read();
            catalog.dataverse(&dv).and_then(|d| d.feeds.get(feed)).and_then(|f| f.parent.clone())
        };
        let ds2 = Arc::clone(&ds);
        let store = Arc::new(move |v: Value| {
            ds2.insert(&v).map_err(|e| asterix_feeds::FeedError::Config(e.to_string()))
        });
        let mut feeds = self.feeds.lock();
        if let Some(parent_name) = parent {
            let Some(parent_rt) = feeds.get(&parent_name) else {
                return Err(AsterixError::Feed(format!(
                    "parent feed {parent_name} must be connected first"
                )));
            };
            let Some(parent_pipeline) = parent_rt.pipelines.values().next() else {
                return Err(AsterixError::Feed(format!(
                    "parent feed {parent_name} has no active pipeline"
                )));
            };
            let joint = Arc::clone(&parent_pipeline.compute_joint);
            let endpoint = parent_rt.endpoint.clone();
            let pipeline = asterix_feeds::secondary_feed(
                format!("{feed}->{dataset}"),
                &joint,
                compute,
                store,
                1024,
            );
            let runtime = feeds
                .entry(feed.to_string())
                .or_insert_with(|| FeedRuntime { endpoint, pipelines: HashMap::new() });
            runtime.pipelines.insert(ds.meta.qualified(), pipeline);
            return Ok(());
        }
        let runtime = feeds.entry(feed.to_string()).or_insert_with(|| {
            let (endpoint, _rx) = socket_adaptor(1024);
            FeedRuntime { endpoint, pipelines: HashMap::new() }
        });
        // Each connection gets its own intake channel fed from the shared
        // endpoint: simplest correct model is one endpoint per (feed,
        // dataset) pipeline; re-create the endpoint when this is the first
        // connection so pushes reach the new pipeline.
        let (endpoint, rx) = socket_adaptor(1024);
        runtime.endpoint = endpoint;
        let pipeline = IngestionPipeline::start(format!("{feed}->{dataset}"), rx, compute, store);
        runtime.pipelines.insert(ds.meta.qualified(), pipeline);
        Ok(())
    }

    fn disconnect_feed(&self, sess: &Session, feed: &str, dataset: &str) -> Result<()> {
        let ds = self.dataset_in(sess, dataset)?;
        let mut feeds = self.feeds.lock();
        let Some(runtime) = feeds.get_mut(feed) else {
            return Err(AsterixError::Feed(format!("feed {feed} is not connected")));
        };
        runtime.endpoint.close();
        if let Some(p) = runtime.pipelines.remove(&ds.meta.qualified()) {
            p.disconnect()?;
        }
        let dv = sess.current_dataverse();
        let mut catalog = self.shared.catalog.write();
        if let Ok(dataverse) = catalog.dataverse_mut(&dv) {
            if let Some(meta) = dataverse.feeds.get_mut(feed) {
                meta.connections.retain(|c| c != &ds.meta.qualified());
            }
        }
        Ok(())
    }

    /// The push endpoint of a connected feed (what a TCP client would see).
    pub fn feed_endpoint(&self, feed: &str) -> Option<SocketEndpoint> {
        self.feeds.lock().get(feed).map(|f| f.endpoint.clone())
    }

    /// Wait until a feed has stored at least `n` records (test/demo sync).
    /// Blocks on the pipelines' progress notifiers instead of sleep-polling
    /// the counters.
    pub fn feed_wait_stored(&self, feed: &str, n: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            // Capture each pipeline's change sequence BEFORE summing the
            // counters: a store landing after the sum advances the
            // sequence, so the wait below returns immediately.
            let (stored, watch): (u64, Vec<_>) = {
                let feeds = self.feeds.lock();
                match feeds.get(feed) {
                    Some(f) => (
                        f.pipelines.values().map(|p| p.stats.stored.load(Ordering::Relaxed)).sum(),
                        f.pipelines
                            .values()
                            .map(|p| (Arc::clone(&p.progress), p.progress.current()))
                            .collect(),
                    ),
                    None => (0, Vec::new()),
                }
            };
            if stored >= n {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            // Wait on the first pipeline's notifier; cap the wait so
            // progress on sibling pipelines (or a feed connected after this
            // call) is observed within a bounded interval.
            let slice = (deadline - now).min(Duration::from_millis(250));
            match watch.first() {
                Some((progress, last)) => {
                    progress.wait_change(*last, slice);
                }
                None => std::thread::sleep(slice.min(Duration::from_millis(5))),
            }
        }
    }
}

/// A translator resolving names through `catalog`, with the session's
/// `set simfunction` / `set simthreshold` settings.
fn translator<'a>(sess: &Session, catalog: &'a SessionCatalog) -> Translator<'a> {
    let mut tr = Translator::new(catalog);
    (tr.simfunction, tr.simthreshold) = sess.similarity();
    tr
}

fn split_name(default_dv: &str, name: &str) -> (String, String) {
    match name.split_once('.') {
        Some((dv, n)) => (dv.to_string(), n.to_string()),
        None => (default_dv.to_string(), name.to_string()),
    }
}

/// Lower a parsed type expression into an ADM Datatype.
fn lower_type_expr(t: &TypeExpr) -> Datatype {
    match t {
        TypeExpr::Named(n) => match asterix_adm::PrimitiveType::from_name(n) {
            Some(p) => Datatype::Primitive(p),
            None => Datatype::Named(n.clone()),
        },
        TypeExpr::Record { fields, open } => {
            let fs = fields
                .iter()
                .map(|(name, ty, optional)| FieldType {
                    name: name.clone(),
                    ty: lower_type_expr(ty),
                    optional: *optional,
                })
                .collect();
            Datatype::Record(Arc::new(RecordType { fields: fs, open: *open }))
        }
        TypeExpr::OrderedList(inner) => Datatype::OrderedList(Arc::new(lower_type_expr(inner))),
        TypeExpr::UnorderedList(inner) => Datatype::UnorderedList(Arc::new(lower_type_expr(inner))),
    }
}
