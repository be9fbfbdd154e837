//! One invocation: set the environment up, run one workload's measured
//! phase (or, traced, its ladder and layer probes), check the validity
//! guards, and hand back the metrics.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use asterix_adm::Value;
use asterixdb::Instance;

use crate::counters::Snapshot;
use crate::env::{self, BoxError, Env, MESSAGES};
use crate::gen::{Oracle, Rng};
use crate::json::{escape, number};
use crate::layers;
use crate::report::{per_layer_names, shape_metric, Metrics, Outcome, END_TO_END};
use crate::shapes::all_shape_names;
use crate::stats::{self, median, quantile, segment_rates};
use crate::trace::{
    Tracer, RUNG_COMPILE, RUNG_DECODE, RUNG_ENCODE, RUNG_INPROC, RUNG_STORAGE, RUNG_WIRE,
};
use crate::workloads::{prepare, run_phase, Ops, Recorder, Stmt, Until, Workload};

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where a traced run writes its Chrome trace; default
    /// `<data_root>/trace-<workload>.json`.
    pub trace_out: Option<PathBuf>,
    /// 1/20 of the corpus and the counts; every check and guard but the
    /// ones that need the full size.
    pub smoke: bool,
    /// Directory the run keeps its instance directories under.
    pub data_root: PathBuf,
    /// CPUs the process could run on when it started, and the one it
    /// pinned itself to, for the record.
    pub host_cpus: usize,
    pub pinned_cpu: Option<usize>,
}

#[derive(Debug)]
pub enum RunError {
    /// A validity guard tripped: the numbers would not mean what their
    /// names say, so none are printed.
    Invalid(String),
    /// The run could not be carried out.
    Failed(BoxError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Invalid(why) => write!(f, "invalid run: {why}"),
            RunError::Failed(e) => write!(f, "run failed: {e}"),
        }
    }
}

// Not `std::error::Error` itself, so that `?` can lift any error into it.
impl<E: Into<BoxError>> From<E> for RunError {
    fn from(e: E) -> Self {
        RunError::Failed(e.into())
    }
}

fn invalid<T>(why: String) -> Result<T, RunError> {
    Err(RunError::Invalid(why))
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Equal-count segments whose median rate is `ops_per_s`.
const SEGMENTS: usize = 8;

/// Buffer-cache hit rates that tell "fits" from "does not fit".
const HIT_RATE_FITS: f64 = 0.95;

fn millis(ds: &[Duration]) -> Vec<f64> {
    ds.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// Everything a prepared environment needs to run operations.
struct Ready {
    env: Env,
    stmts: Vec<Stmt>,
    ops: Ops,
    dir: PathBuf,
}

/// Open + DDL + load + index build + flush + server start + prepare +
/// warm-up: what `setup_s` times.
fn set_up(opts: &Options) -> Result<(Ready, Duration), RunError> {
    let t = Instant::now();
    let dir = env::fresh_dir(&opts.data_root)?;
    let spec = opts.workload.env_spec(opts.smoke);
    let mut env = Env::build(spec, opts.seed, &dir)?;
    let stmts = prepare(&mut env, opts.workload)?;
    let mut ops = Ops::new(opts.workload, opts.seed, &env.oracle);
    let mut warm = Recorder::default();
    let n = opts.workload.warmup_ops(opts.smoke);
    run_phase(&mut env, &stmts, &mut ops, &mut warm, None, Until::Ops(n));
    if warm.failed > 0 {
        return Err(format!(
            "warm-up: {} of {} operations failed: {:?}",
            warm.failed, n, warm.failures
        )
        .into());
    }
    Ok((Ready { env, stmts, ops, dir }, t.elapsed()))
}

fn tear_down(ready: Ready) -> Result<(), RunError> {
    let Ready { env, stmts, ops, dir } = ready;
    drop((stmts, ops));
    env.shut_down()?;
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}

/// Index plans must search a secondary index; scan plans must not.
fn check_plans(ready: &Ready, workload: Workload) -> Result<(), RunError> {
    for s in &ready.stmts {
        let (plan, job) = ready.env.instance.explain(&s.text)?;
        let secondary = plan
            .lines()
            .chain(job.lines())
            .any(|l| l.contains("btree-search") && !l.contains("(primary)"));
        match workload {
            Workload::IndexQueries if !secondary => {
                return invalid(format!("{}: no secondary btree-search in\n{plan}", s.shape.name));
            }
            Workload::ScanQueries if secondary => {
                return invalid(format!("{}: a secondary btree-search in\n{plan}", s.shape.name));
            }
            _ => {}
        }
    }
    Ok(())
}

/// One closed-loop phase with the counters and CPU time around it.
struct Phase {
    rec: Recorder,
    wall: Duration,
    cpu_s: f64,
    counters: Snapshot,
}

/// Cycles of `ingest_mixed` per second of `--seconds`, about its rate at
/// the commit that added the benchmark. The count, not the clock, ends its
/// measured phase: what a cycle costs depends on how far the flushes and
/// merges have got, so runs must stop in the same state to compare.
const INGEST_CYCLES_PER_SECOND: f64 = 70.0;
/// ...unless the machine is so slow that the count would take this many
/// times `--seconds`; then the clock ends it after all.
const INGEST_TIME_CAP: f64 = 1.5;

fn measured_phase(
    ready: &mut Ready,
    workload: Workload,
    seconds: f64,
    smoke: bool,
) -> Result<Phase, RunError> {
    let before = Snapshot::take(&ready.env.instance);
    let cpu0 = stats::process_cpu_seconds();
    let start = Instant::now();
    let mut rec = Recorder::default();
    let until = match workload {
        Workload::IngestMixed => Until::OpsOrElapsed(
            // The smoke corpus is 1/20 the size; so is the work per second.
            ((INGEST_CYCLES_PER_SECOND * seconds) as usize / if smoke { 4 } else { 1 }).max(2),
            Duration::from_secs_f64(seconds * INGEST_TIME_CAP),
        ),
        _ => Until::Elapsed(Duration::from_secs_f64(seconds)),
    };
    run_phase(&mut ready.env, &ready.stmts, &mut ready.ops, &mut rec, None, until);
    if workload == Workload::IngestMixed {
        // Charge the deferred flushes and merges to the writes that
        // caused them.
        ready.env.messages.flush_all()?;
        ready.env.users.flush_all()?;
    }
    let wall = start.elapsed();
    let cpu_s = stats::process_cpu_seconds() - cpu0;
    let counters = Snapshot::take(&ready.env.instance).since(&before);
    Ok(Phase { rec, wall, cpu_s, counters })
}

fn hit_rate(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        1.0
    }
}

/// ADM-text bytes of the records now live: the corpus plus what
/// `ingest_mixed` added, minus what it deleted.
fn live_user_bytes(o: &Oracle, ops: &Ops) -> u64 {
    let base = o.user_text_bytes + o.msg_text_bytes;
    match ops {
        Ops::Ingest(s) => base + s.live.text_bytes_added - s.live.text_bytes_removed,
        _ => base,
    }
}

/// ADM-text bytes ever written: deletes take nothing back.
fn written_user_bytes(o: &Oracle, ops: &Ops) -> u64 {
    let base = o.user_text_bytes + o.msg_text_bytes;
    match ops {
        Ops::Ingest(s) => base + s.live.text_bytes_added,
        _ => base,
    }
}

fn wal_bytes(env: &Env) -> u64 {
    (0..env.cfg.nodes)
        .filter_map(|n| std::fs::metadata(env.cfg.node_log_path(n)).ok())
        .map(|m| m.len())
        .sum()
}

/// The guards that need a finished phase.
fn check_phase(
    opts: &Options,
    ready: &Ready,
    phase: &Phase,
    setup_counters: &Snapshot,
) -> Result<Vec<String>, RunError> {
    let c = &phase.counters;
    let mut passed = Vec::new();
    if opts.workload != Workload::IngestMixed && phase.wall.as_secs_f64() < 0.9 * opts.seconds {
        return invalid(format!(
            "measured phase lasted {:.2} s of the {:.2} s asked for",
            phase.wall.as_secs_f64(),
            opts.seconds
        ));
    }
    passed.push(format!("measured phase {:.2} s", phase.wall.as_secs_f64()));

    let plan_hits = hit_rate(c.get("compile.plan_cache.hits"), c.get("compile.plan_cache.misses"));
    if opts.workload != Workload::IngestMixed {
        if plan_hits < 0.99 {
            return invalid(format!("plan-cache hit rate {plan_hits:.4} is below 0.99"));
        }
        passed.push(format!("plan-cache hit rate {plan_hits:.4}"));
    }

    let cache_hits = hit_rate(c.sum("cache.", ".hits"), c.sum("cache.", ".misses"));
    let (users_bytes, messages_bytes) = ready.env.stored_bytes();
    let cache = ready.env.cache_bytes();
    match opts.workload {
        Workload::PointLookup => {
            if users_bytes > cache || cache_hits < HIT_RATE_FITS {
                return invalid(format!(
                    "users ({users_bytes} B) should fit the {cache} B buffer cache, \
                     hit rate {cache_hits:.4}"
                ));
            }
            passed.push(format!("users fit the cache, hit rate {cache_hits:.4}"));
        }
        Workload::ScanQueries => {
            if messages_bytes < 3 * cache || cache_hits >= HIT_RATE_FITS {
                return invalid(format!(
                    "messages ({messages_bytes} B) should be at least 3x the {cache} B buffer \
                     cache, hit rate {cache_hits:.4}"
                ));
            }
            passed.push(format!(
                "messages are {:.1}x the cache, hit rate {cache_hits:.4}",
                messages_bytes as f64 / cache as f64
            ));
        }
        Workload::IngestMixed if !opts.smoke => {
            // Over set-up and the measured phase together, every primary
            // partition must have cycled through maintenance.
            let total = |metric: &str| -> Vec<f64> {
                let a = setup_counters.primary_lsm(MESSAGES, metric);
                let b = c.primary_lsm(MESSAGES, metric);
                a.iter().zip(&b).map(|(x, y)| x + y).collect()
            };
            let (flushes, merges) = (total("flushes"), total("merges"));
            let measured_flushes = c.primary_lsm(MESSAGES, "flushes");
            if flushes.is_empty()
                || flushes.iter().any(|&f| f < 8.0)
                || merges.iter().any(|&m| m < 2.0)
                || measured_flushes.iter().any(|&f| f < 2.0)
            {
                return invalid(format!(
                    "each primary partition of messages needs >= 8 flushes and >= 2 merges \
                     (>= 2 flushes while measured): flushes {flushes:?}, merges {merges:?}, \
                     measured flushes {measured_flushes:?}"
                ));
            }
            passed.push(format!("flushes {flushes:?}, merges {merges:?} per primary partition"));
        }
        _ => {}
    }
    Ok(passed)
}

/// An instance opened again from the directory a run left behind.
struct Reopened {
    instance: Arc<Instance>,
    oracle: Oracle,
    dir: PathBuf,
    /// How long `Instance::open` took, WAL replay included.
    recovery: Duration,
}

/// Drop the instance, open it again from the same directory, and check
/// that every acknowledged insert and delete survived: the live count and
/// 1 000 sampled primary keys.
fn reopen_and_verify(ready: Ready, smoke: bool) -> Result<Reopened, RunError> {
    let Ready { env, stmts, ops, dir } = ready;
    drop(stmts);
    let oracle = env.oracle.clone();
    let cfg = env.cfg.clone();
    env.shut_down()?;
    let t = Instant::now();
    let instance = Instance::open(cfg)?;
    let recovery = t.elapsed();
    let sess = instance.new_session();
    instance.execute_in(&sess, "use dataverse Perf;")?;
    let messages = instance.dataset_in(&sess, "MugshotMessages")?;
    let users = instance.dataset_in(&sess, "MugshotUsers")?;
    if users.count()? != oracle.scale.users {
        return Err(format!(
            "after re-open: {} users, expected {}",
            users.count()?,
            oracle.scale.users
        )
        .into());
    }
    if let Ops::Ingest(state) = &ops {
        let live = &state.live;
        let want = live.live_messages(&oracle);
        let got = messages.count()?;
        if got != want {
            return Err(format!("after re-open: {got} live messages, expected {want}").into());
        }
        let rng = &mut Rng::new(oracle.seed ^ 0x7265_6F70_656E);
        let added: Vec<i64> = live.added.iter().map(|&(_, id)| id).collect();
        let removed: Vec<i64> = live.removed.iter().copied().collect();
        let samples = if smoke { 100 } else { 1_000 };
        for i in 0..samples {
            let (id, present) = match i % 4 {
                0 if !removed.is_empty() => {
                    (removed[rng.below(removed.len() as u64) as usize], false)
                }
                1 | 2 if !added.is_empty() => (added[rng.below(added.len() as u64) as usize], true),
                _ => {
                    let id = rng.range(0, oracle.scale.messages as i64);
                    (id, !live.is_removed(id))
                }
            };
            let got = messages.get(&[Value::Int64(id)])?;
            let ok = match (&got, present) {
                (Some(row), true) => {
                    let want = oracle.message(id);
                    ["author-id", "timestamp", "message"]
                        .iter()
                        .all(|f| row.field(f).total_cmp(&want.field(f)).is_eq())
                }
                (None, false) => true,
                _ => false,
            };
            if !ok {
                return Err(format!(
                    "after re-open: message {id} should be {}, found {got:?}",
                    if present { "present" } else { "absent" }
                )
                .into());
            }
        }
    }
    drop((sess, users, messages));
    Ok(Reopened { instance, oracle, dir, recovery })
}

fn environment_json(opts: &Options, env: &Env) -> String {
    let (users_bytes, messages_bytes) = env.stored_bytes();
    format!(
        "{{\"nproc\":{},\"pinned_cpu\":{},\"nodes\":{},\"partitions\":{},\"clients\":1,\"loop\":\"closed\",\
         \"fsync_commits\":{},\"mem_component_budget\":{},\"buffer_cache_bytes\":{},\
         \"users\":{},\"messages\":{},\"users_stored_bytes\":{users_bytes},\
         \"messages_stored_bytes\":{messages_bytes},\"users_text_bytes\":{},\
         \"messages_text_bytes\":{},\"indexed\":{},\"smoke\":{}}}",
        opts.host_cpus,
        opts.pinned_cpu.map_or("null".to_string(), |c| c.to_string()),
        env.cfg.nodes,
        env.cfg.partitions(),
        env.cfg.fsync_commits,
        env.cfg.mem_component_budget,
        env.cache_bytes(),
        env.oracle.scale.users,
        env.oracle.scale.messages,
        env.oracle.user_text_bytes,
        env.oracle.msg_text_bytes,
        env.spec.indexed,
        opts.smoke,
    )
}

fn string_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", quoted.join(","))
}

fn shape_medians_json(rec: &Recorder) -> String {
    let members: Vec<String> = rec
        .shape_latency
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{}\":{{\"p50_ms\":{},\"samples\":{}}}",
                escape(name),
                number(median(&millis(v))),
                v.len()
            )
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

pub fn run(opts: &Options) -> Result<Outcome, RunError> {
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {}", opts.seconds).into());
    }
    std::fs::create_dir_all(&opts.data_root)?;
    if opts.trace {
        run_traced(opts)
    } else {
        run_end_to_end(opts)
    }
}

fn run_end_to_end(opts: &Options) -> Result<Outcome, RunError> {
    let reps = if opts.smoke { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::new();
    let mut ready = None;
    for rep in 0..reps {
        let (r, took) = set_up(opts)?;
        setup_times.push(took.as_secs_f64());
        if rep + 1 < reps {
            tear_down(r)?;
        } else {
            ready = Some(r);
        }
    }
    let mut ready = ready.expect("at least one set-up");
    check_plans(&ready, opts.workload)?;
    let setup_counters = Snapshot::take(&ready.env.instance);

    let phase = measured_phase(&mut ready, opts.workload, opts.seconds, opts.smoke)?;
    let rec = &phase.rec;
    let ops_done = rec.attempted as f64;
    let mut guards = check_phase(opts, &ready, &phase, &setup_counters)?;

    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_times));
    let rates = segment_rates(&rec.op_end, SEGMENTS);
    let ops_per_s = match opts.workload {
        // Every cycle over the cycles' wall time plus the final drain.
        Workload::IngestMixed => ops_done / phase.wall.as_secs_f64(),
        _ => median(&rates),
    };
    m.set("ops_per_s", ops_per_s);
    let latencies = millis(&rec.op_latency);
    m.set("lat_p50_ms", median(&latencies));
    m.set("cpu_s_per_kop", phase.cpu_s / ops_done * 1e3);

    ready.env.users.flush_all()?;
    ready.env.messages.flush_all()?;
    let stored = stats::dir_bytes(&ready.dir);
    let user_bytes = live_user_bytes(&ready.env.oracle, &ready.ops);
    m.set("stored_bytes_per_user_byte", stored as f64 / user_bytes as f64);
    m.set("peak_rss_mb", stats::peak_rss_mib());

    let mut details = String::from("{");
    let _ = write!(
        details,
        "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":false,\"environment\":{},\
         \"setup_s_each\":[{}],\"measured_wall_s\":{},\"samples\":{},\
         \"segment_ops_per_s\":[{}],\"lat_p99_ms\":{},\"lat_max_ms\":{},\"rows_returned\":{},\
         \"stored_bytes\":{stored},\"live_user_bytes\":{user_bytes},\"shapes\":{},",
        opts.workload.name(),
        opts.seed,
        number(opts.seconds),
        environment_json(opts, &ready.env),
        setup_times.iter().map(|s| number(*s)).collect::<Vec<_>>().join(","),
        number(phase.wall.as_secs_f64()),
        rec.attempted,
        rates.iter().map(|r| number(*r)).collect::<Vec<_>>().join(","),
        number(quantile(&latencies, 0.99)),
        number(quantile(&latencies, 1.0)),
        rec.rows_returned,
        shape_medians_json(rec),
    );

    let (attempted, failed, failures) = (rec.attempted, rec.failed, rec.failures.clone());
    if opts.workload == Workload::IngestMixed {
        // Durability: nothing acknowledged may be lost across a restart.
        let reopened = reopen_and_verify(ready, opts.smoke)?;
        guards.push(format!(
            "re-opened in {:.2} s, every acknowledged write present",
            reopened.recovery.as_secs_f64()
        ));
        drop(reopened.instance);
        std::fs::remove_dir_all(&reopened.dir)?;
    } else {
        tear_down(ready)?;
    }
    let _ = write!(
        details,
        "\"guards\":{},\"failures\":{}}}",
        string_list(&guards),
        string_list(&failures)
    );

    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m.in_order(END_TO_END),
        details,
    })
}

/// Self time per layer of one operation, from the ladder's medians: each
/// rung minus the rungs substituted below it.
struct LadderSelf {
    net_us: f64,
    adm_us: f64,
    hyracks_us: f64,
    compile_us: f64,
    storage_us: f64,
    wire_p50_us: f64,
}

fn ladder_self_times(tr: &Tracer) -> LadderSelf {
    let med = |name: &str| median(&tr.per_op_micros(name));
    let (wire, inproc) = (med(RUNG_WIRE), med(RUNG_INPROC));
    let (compile, storage) = (med(RUNG_COMPILE), med(RUNG_STORAGE));
    let codec = med(RUNG_ENCODE) + med(RUNG_DECODE);
    LadderSelf {
        // The wire's share beyond the in-process call, less the result
        // codec that runs inside it.
        net_us: (wire - inproc - codec).max(0.0),
        adm_us: codec,
        // What the in-process call spends outside compiling and the
        // storage calls: admission, job start-up, operators, exchange.
        hyracks_us: (inproc - compile - storage).max(0.0),
        compile_us: compile,
        storage_us: storage,
        wire_p50_us: wire,
    }
}

fn run_traced(opts: &Options) -> Result<Outcome, RunError> {
    let io0 = stats::bytes_written();
    let (mut ready, setup_took) = set_up(opts)?;
    check_plans(&ready, opts.workload)?;
    let mut m = Metrics::default();

    // A plain stretch, as in an end-to-end run but shorter: the counter
    // deltas around it give the per-operation counts.
    let net0 = (ready.env.server.stats().bytes_in.get(), ready.env.server.stats().bytes_out.get());
    let plain = measured_phase(&mut ready, opts.workload, opts.seconds / 3.0, opts.smoke)?;
    let net1 = (ready.env.server.stats().bytes_in.get(), ready.env.server.stats().bytes_out.get());
    let c = &plain.counters;
    let n = plain.rec.attempted as f64;
    m.set("net.bytes_in_per_op", (net1.0 - net0.0) as f64 / n);
    m.set("net.bytes_out_per_op", (net1.1 - net0.1) as f64 / n);
    m.set(
        "asterixdb.plan_cache_hit_rate",
        hit_rate(c.get("compile.plan_cache.hits"), c.get("compile.plan_cache.misses")),
    );
    m.set("hyracks.frames_sent_per_op", c.get("exchange.frames_sent") / n);
    m.set("hyracks.tuples_sent_per_op", c.get("exchange.tuples_sent") / n);
    m.set("hyracks.bytes_sent_per_op", c.get("exchange.bytes_sent") / n);
    let rows = plain.rec.rows_returned.max(1) as f64;
    m.set("hyracks.tuples_sent_per_result_row", c.get("exchange.tuples_sent") / rows);
    m.set("hyracks.backpressure_stalls", c.get("exchange.backpressure_stalls"));
    m.set("hyracks.pipeline_busy_us_per_op", c.get("exchange.pipeline_busy_us#sum") / n);
    let checked = c.get("filters.checked");
    m.set(
        "hyracks.filter_pruned_share",
        if checked > 0.0 { c.get("filters.pruned_tuples") / checked } else { 0.0 },
    );
    m.set("storage.cache_hit_rate", hit_rate(c.sum("cache.", ".hits"), c.sum("cache.", ".misses")));
    m.set("storage.cache_misses_per_op", c.sum("cache.", ".misses") / n);
    m.set("storage.columnar_bytes_skipped_per_op", c.get("storage.columnar.bytes_skipped") / n);
    let plain_lat = millis(&plain.rec.op_latency);
    m.set("client.lat_p99_ms", quantile(&plain_lat, 0.99));
    m.set("client.lat_max_ms", quantile(&plain_lat, 1.0));
    // `point_lookup`'s one shape is its operation: `lat_p50_ms` already.
    let reported = all_shape_names();
    for (shape, v) in plain.rec.shape_latency.iter().filter(|(s, _)| reported.contains(s)) {
        m.set(shape_metric(shape), median(&millis(v)));
    }

    // The ladder stretch: every statement again on each rung below the wire.
    let mut tracer = Tracer::new();
    let mut ladder_rec = Recorder::default();
    let until = Until::Elapsed(Duration::from_secs_f64(opts.seconds / 3.0));
    run_phase(
        &mut ready.env,
        &ready.stmts,
        &mut ready.ops,
        &mut ladder_rec,
        Some(&mut tracer),
        until,
    );
    let wire_us = tracer.per_op_micros(RUNG_WIRE);
    let inproc_us = tracer.per_op_micros(RUNG_INPROC);
    let overhead: Vec<f64> = wire_us.iter().zip(&inproc_us).map(|(w, i)| w - i).collect();
    m.set("net.round_trip_overhead_us", median(&overhead));
    m.set("asterixdb.execute_inproc_us", median(&inproc_us));
    let compile_spans: Vec<f64> =
        tracer.spans.iter().filter(|s| s.name == RUNG_COMPILE).map(|s| s.micros()).collect();
    m.set("asterixdb.compile_hot_us", median(&compile_spans));
    let span_total = |name: &str| -> f64 {
        tracer.spans.iter().filter(|s| s.name == name).map(|s| s.micros()).sum()
    };
    let ladder_rows = ladder_rec.rows_returned.max(1) as f64;
    m.set("adm.result_encode_us_per_krow", span_total(RUNG_ENCODE) / ladder_rows * 1e3);
    m.set("adm.result_decode_us_per_krow", span_total(RUNG_DECODE) / ladder_rows * 1e3);
    let plain_p50_us = median(&plain_lat) * 1e3;
    let traced_p50_us = median(&wire_us);
    m.set("bench.trace_overhead_pct", (traced_p50_us / plain_p50_us - 1.0) * 100.0);
    let ladder = ladder_self_times(&tracer);

    layers::probe_reads(&ready.env, &ready.stmts, opts.workload, &mut m)?;

    // Totals since the instance was opened: the load, the warm-up and
    // both stretches.
    ready.env.users.flush_all()?;
    ready.env.messages.flush_all()?;
    let total = Snapshot::take(&ready.env.instance);
    m.set("net.wire_errors", total.get("net.wire_errors"));
    m.set("rm.rejected", total.get("rm.rejected"));
    let waited = total.get("rm.queue_wait_us#max") > 0.0;
    m.set("rm.queue_wait_us_p50", if waited { total.get("rm.queue_wait_us#p50") } else { 0.0 });
    m.set("storage.flushes", total.sum("lsm.", ".flushes"));
    m.set("storage.merges", total.sum("lsm.", ".merges"));
    m.set("storage.flush_ms_total", total.sum("lsm.", ".flush_us#sum") / 1e3);
    m.set("storage.merge_ms_total", total.sum("lsm.", ".merge_us#sum") / 1e3);
    m.set("storage.components_final", total.sum("lsm.", ".components"));
    let o = &ready.env.oracle;
    let records = (o.scale.users + o.scale.messages) as f64
        + match &ready.ops {
            Ops::Ingest(s) => s.records_written as f64,
            _ => 0.0,
        };
    m.set("txn.wal_appends_per_record", total.sum("wal.", ".appends") / records);
    m.set("txn.wal_forces", total.sum("wal.", ".forces"));
    let live = live_user_bytes(o, &ready.ops) as f64;
    let written = written_user_bytes(o, &ready.ops) as f64;
    let wal = wal_bytes(&ready.env);
    m.set("txn.wal_bytes_per_user_byte", wal as f64 / written);
    let stored = stats::dir_bytes(&ready.dir);
    m.set("storage.data_bytes_per_user_byte", stored.saturating_sub(wal) as f64 / live);
    // Everything written to files: all `write` calls less the two
    // directions of the loopback socket.
    let socket = total.get("net.bytes_in") + total.get("net.bytes_out");
    let wrote = (stats::bytes_written() - io0) as f64 - socket;
    m.set("storage.bytes_written_per_user_byte", wrote.max(0.0) / written);

    let environment = environment_json(opts, &ready.env);
    let (attempted, failed) =
        (plain.rec.attempted + ladder_rec.attempted, plain.rec.failed + ladder_rec.failed);
    let mut failures = plain.rec.failures.clone();
    failures.extend(ladder_rec.failures.iter().cloned());

    // The timed re-open, then the write-path probes on what it opened.
    let smoke = opts.smoke;
    let Reopened { instance, oracle, dir, recovery } = reopen_and_verify(ready, smoke)?;
    m.set("txn.recovery_s", recovery.as_secs_f64());
    {
        let sess = instance.new_session();
        instance.execute_in(&sess, "use dataverse Perf;")?;
        let messages = instance.dataset_in(&sess, "MugshotMessages")?;
        let users = instance.dataset_in(&sess, "MugshotUsers")?;
        layers::probe_writes(&messages, &users, &oracle, if smoke { 100 } else { 2_000 }, &mut m)?;
    }
    drop(instance);
    std::fs::remove_dir_all(&dir)?;

    let trace_path = opts
        .trace_out
        .clone()
        .unwrap_or_else(|| opts.data_root.join(format!("trace-{}.json", opts.workload.name())));
    write_trace(&trace_path, &tracer, opts.workload)?;

    let details = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":true,\"environment\":{environment},\
         \"setup_s\":{},\"plain_samples\":{},\"ladder_samples\":{},\"spans\":{},\"trace_file\":\"{}\",\
         \"ladder_self_us\":{{\"net\":{},\"adm\":{},\"hyracks_rm\":{},\"asterixdb_compile\":{},\
         \"storage\":{},\"sum\":{},\"wire_p50\":{},\"plain_lat_p50\":{}}},\"failures\":{}}}",
        opts.workload.name(),
        opts.seed,
        number(opts.seconds),
        number(setup_took.as_secs_f64()),
        plain.rec.attempted,
        ladder_rec.attempted,
        tracer.spans.len(),
        escape(&trace_path.display().to_string()),
        number(ladder.net_us),
        number(ladder.adm_us),
        number(ladder.hyracks_us),
        number(ladder.compile_us),
        number(ladder.storage_us),
        number(ladder.net_us + ladder.adm_us + ladder.hyracks_us + ladder.compile_us + ladder.storage_us),
        number(ladder.wire_p50_us),
        number(plain_p50_us),
        string_list(&failures),
    );

    let names = per_layer_names();
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m.in_order(names.iter().map(|(n, u)| (n.as_str(), *u))),
        details,
    })
}

fn write_trace(path: &Path, tracer: &Tracer, workload: Workload) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, tracer.to_chrome_trace(workload.name()))
}
