//! The job executor: wires connectors, runs one pipeline per fused chain
//! partition, and propagates failures.
//!
//! This is the Node Controller side of §4.1 collapsed into one process:
//! every pipeline of every chain partition runs concurrently. A pipeline is
//! its head's `run` — a source's own, or the provided driver feeding the
//! head's activities from its input ports in input order — with the rest
//! of the chain stacked behind it as push stages. Blocking activities
//! (sort, group-by, aggregate, a join's build) impose the stage ordering
//! implicitly by consuming their input to completion before emitting.
//!
//! A job of N pipelines spawns N − 1 threads: the calling thread runs one
//! pipeline itself, through the same body as the spawned ones, between
//! spawning and joining the rest. All N still coexist, so nothing about
//! blocking inputs or backpressure changes — but a job that *is* one
//! pipeline (a primary-key lookup pruned to its owning partition, the
//! constant query of an `insert`) starts no thread and crosses no channel.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use asterix_obs::{Counter, TraceContext, TraceSpan};

use crate::connector::{wire, ExchangeConfig, ExchangeStats, InputPort, OutputPort};
use crate::filter::{FilterFactory, FilterStats, RuntimeFilterHub};
use crate::frame::FramePool;
use crate::job::JobSpec;
use crate::ops::{OpCtx, OperatorDescriptor};
use crate::pipeline::{ExecEnv, FusedEdge, PipelineCtx, PipelineOp, PortSink};
use crate::profile::{JobProfile, PortMeter, ProfileBuilder};
use crate::{HyracksError, Result};

/// Execution settings for the simulated cluster.
#[derive(Clone)]
pub struct ExecutorConfig {
    /// Per-channel bound on exchange frames in flight (§4.1's bounded frame
    /// buffers). Lower = tighter memory and earlier backpressure; higher =
    /// more pipeline slack. Minimum 1.
    pub frames_in_flight: usize,
    /// Flush an exchange frame once it holds this many tuples.
    pub tuples_per_frame: usize,
    /// Flush an exchange frame once its occupancy reaches this many bytes.
    pub frame_bytes: usize,
    /// Upper bound on the pipelines — fused chains × partitions — of a
    /// single job, each of which occupies a thread while the job runs: one
    /// is the caller's, the rest are spawned. Jobs exceeding it are
    /// rejected up front with a clear error instead of exhausting the OS
    /// thread table mid-run.
    pub max_threads: usize,
    /// Builds the per-join key-membership test published at end-of-build.
    /// Hyracks carries no filter implementation of its own (the embedding
    /// system injects one — AsterixDB wires a bloom filter from its storage
    /// layer); `None` leaves runtime filters inert pass-throughs.
    pub filter_factory: Option<FilterFactory>,
    /// Shared counters for runtime-filter activity (filters published,
    /// tuples checked, tuples pruned) the embedder can register into its
    /// metrics registry.
    pub filter_stats: FilterStats,
    /// Cooperative cancellation token for the job. When set, every port
    /// push and frame receive is a cancellation point: once the token fires
    /// (explicit cancel or deadline), operator threads unwind with
    /// [`HyracksError::Cancelled`] through the same drain/cleanup paths as
    /// `DownstreamClosed`, and the job reports `Cancelled`.
    pub cancel: Option<asterix_rm::CancellationToken>,
    /// Tracing handle for the job. When enabled, every pipeline records a
    /// span (children of this context's parent), with per-chain-member
    /// operator spans and exchange send-block spans nested beneath.
    /// Disabled by default — the untraced path costs one `Option` check per
    /// pipeline.
    pub trace: TraceContext,
    /// Live tuple-progress counter (the RM jobs table's view), bumped per
    /// delivered frame by every output port.
    pub progress: Option<Counter>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            frames_in_flight: 8,
            tuples_per_frame: crate::frame::FRAME_CAPACITY,
            frame_bytes: crate::frame::DEFAULT_FRAME_BYTES,
            max_threads: 512,
            filter_factory: None,
            filter_stats: FilterStats::default(),
            cancel: None,
            trace: TraceContext::disabled(),
            progress: None,
        }
    }
}

impl std::fmt::Debug for ExecutorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorConfig")
            .field("frames_in_flight", &self.frames_in_flight)
            .field("tuples_per_frame", &self.tuples_per_frame)
            .field("frame_bytes", &self.frame_bytes)
            .field("max_threads", &self.max_threads)
            .field("filter_factory", &self.filter_factory.as_ref().map(|_| "<factory>"))
            .field("trace_enabled", &self.trace.is_enabled())
            .finish_non_exhaustive()
    }
}

/// Run a job to completion, returning the first operator error if any.
pub fn run_job(job: &JobSpec) -> Result<()> {
    run_job_with(job, &ExecutorConfig::default())
}

/// Run a job with explicit cluster configuration.
pub fn run_job_with(job: &JobSpec, cfg: &ExecutorConfig) -> Result<()> {
    run_job_with_stats(job, cfg, &Arc::new(ExchangeStats::new()))
}

/// Run a job, accumulating exchange counters (frames/tuples sent,
/// backpressure stalls, peak in-flight frames) into `stats` — the handle an
/// embedding system (or bench harness) keeps to report on the run.
pub fn run_job_with_stats(
    job: &JobSpec,
    cfg: &ExecutorConfig,
    stats: &Arc<ExchangeStats>,
) -> Result<()> {
    run_job_inner(job, cfg, stats, None).map(|_| ())
}

/// Run a job while collecting a per-operator [`JobProfile`]: every port of
/// every operator partition gets a tuple/frame/byte meter and every
/// partition's `run` is timed. Metering costs a little per tuple, so it is
/// opt-in — the unprofiled paths carry `None` meters and skip it entirely.
pub fn run_job_profiled(
    job: &JobSpec,
    cfg: &ExecutorConfig,
    stats: &Arc<ExchangeStats>,
) -> Result<JobProfile> {
    run_job_inner(job, cfg, stats, Some(ProfileBuilder::for_job(job)))
        .map(|p| p.expect("profiled run yields a profile"))
}

/// One pipeline of a job, wired and ready to run: a fused chain (or a lone
/// operator) on one partition. The head operator runs its `run` body; the
/// members after it are instantiated as push stages stacked onto the
/// head's output port when the pipeline starts, under its trace context.
struct Pipeline {
    /// Chain members, head first.
    ops: Vec<Arc<dyn OperatorDescriptor>>,
    partition: usize,
    nparts: usize,
    inputs: Vec<InputPort>,
    /// The tail's real output port, or a discard sink when the chain ends
    /// the job.
    output: OutputPort,
    /// Profiled runs: per fused edge, head first, the upstream member's
    /// output meter and the downstream member's input meter.
    edge_meters: Vec<Vec<Arc<PortMeter>>>,
    /// Busy-time slots for every chain member on a profiled run (all get
    /// the pipeline's elapsed run time — they shared the thread).
    busy: Vec<Arc<asterix_sync::Mutex<Duration>>>,
}

impl Pipeline {
    /// Thread and span name; formatted only for a pipeline that is spawned
    /// or traced.
    fn name(&self) -> String {
        format!("{}[{}]", self.ops[0].name(), self.partition)
    }

    /// The head's output port: `output` itself, or — for a chain — a port
    /// backed by the other members' push stages, stacked tail-first onto
    /// `output`. Each interior edge gets a FusedEdge adapter that meters
    /// tuples for the adjacent operators' profiles.
    fn head_output(&mut self, env: &ExecEnv, output: OutputPort) -> Result<OutputPort> {
        if self.ops.len() == 1 {
            return Ok(output);
        }
        let mut next: Box<dyn PipelineOp> = Box::new(PortSink::new(output));
        for (i, op) in self.ops.iter().enumerate().skip(1).rev() {
            let ctx =
                PipelineCtx { partition: self.partition, nparts: self.nparts, env: env.clone() };
            let stage = op.pipeline(ctx, next)?;
            let meters = self.edge_meters.get(i - 1).cloned().unwrap_or_default();
            next = Box::new(FusedEdge::new(meters, stage));
        }
        Ok(OutputPort::fused(next, env.cancel.clone()))
    }

    /// The body of every pipeline, whichever thread runs it: a spawned
    /// operator thread or the job's caller.
    fn run(mut self, mut env: ExecEnv, trace: &TraceContext, stats: &ExchangeStats) -> Result<()> {
        let run_started = Instant::now();
        // Per-pipeline trace context: a span labelled with the partition,
        // under which operator spans, send-block spans, and spill spans of
        // every chain member nest. Untraced, nothing is formatted or
        // allocated.
        let tspan = if trace.is_enabled() {
            trace.with_label(&format!("p{}", self.partition)).span(&self.name())
        } else {
            TraceSpan::default()
        };
        let child = tspan.context();
        let mut output = std::mem::replace(&mut self.output, OutputPort::sink());
        if child.is_enabled() {
            output.set_trace(child.clone());
            env.trace = child.clone();
        }
        let (result, fin) = match self.head_output(&env, output) {
            Ok(output) => {
                let mut ctx = OpCtx { partition: self.partition, nparts: self.nparts, output, env };
                let result = self.ops[0].run(&mut ctx, &mut self.inputs);
                // Drain remaining input so upstream memory is freed even on
                // early exit/error, then finish the output port — a fused
                // port's stages deliver their buffered output — before it
                // drops and closes.
                for input in self.inputs.iter_mut() {
                    input.drain();
                }
                (result, ctx.output.finish())
            }
            Err(e) => (Err(e), Ok(())),
        };
        let elapsed = run_started.elapsed();
        if self.ops.len() > 1 {
            stats.on_pipeline_done(elapsed);
        }
        for b in &self.busy {
            *b.lock() = elapsed;
        }
        if child.is_enabled() {
            // One span per chain member, mirroring the busy meters: all
            // share the thread, so all get the pipeline's elapsed time.
            let elapsed_us = elapsed.as_micros() as u64;
            for op in &self.ops {
                child.record(&format!("op:{}", op.name()), tspan.start_us(), elapsed_us);
            }
        }
        tspan.finish();
        match (result, fin) {
            (Ok(()), fin) => fin,
            // A head stopped by a fused LIMIT is clean, but a real failure
            // while finishing still surfaces.
            (Err(HyracksError::DownstreamClosed), Err(e)) if !e.is_downstream_closed() => Err(e),
            (result, _) => result,
        }
    }
}

fn run_job_inner(
    job: &JobSpec,
    cfg: &ExecutorConfig,
    stats: &Arc<ExchangeStats>,
    mut profile: Option<ProfileBuilder>,
) -> Result<Option<JobProfile>> {
    // Fusion pass: collapse maximal same-partition OneToOne chains into
    // single push-driven pipelines. Validates acyclicity as a side effect.
    let plan = job.fusion_plan()?;
    let started = Instant::now();

    // Every pipeline partition gets a thread of its own — all but one, which
    // the calling thread runs itself — and ALL of them must coexist for the
    // duration of the job: stage ordering here is implicit — a blocking
    // operator (hash-join build, sort run generation) simply consumes its
    // blocking input to completion before emitting, so its thread must be
    // alive and consuming while every transitive upstream thread is alive
    // and producing. Running partitions through a smaller worker pool would
    // deadlock (a queued-but-unscheduled consumer leaves its producers
    // blocked on full channels forever). Hence a *guard*, not a pool: jobs
    // with more pipelines than `max_threads` are rejected before anything
    // is spawned. Fusion lowers the count — a fused chain is one pipeline
    // per partition.
    let total_threads = plan.total_threads();
    if total_threads > cfg.max_threads.max(1) {
        return Err(HyracksError::InvalidJob(format!(
            "job needs {total_threads} pipelines (a thread each), exceeding \
             ExecutorConfig::max_threads = {}; reduce partition counts or raise the cap",
            cfg.max_threads
        )));
    }
    stats.on_job_fusion(plan.fused_pipelines() as i64, plan.saved_threads() as i64);

    let xcfg = ExchangeConfig {
        frames_in_flight: cfg.frames_in_flight.max(1),
        tuples_per_frame: cfg.tuples_per_frame.max(1),
        frame_bytes: cfg.frame_bytes.max(1),
        stats: Arc::clone(stats),
        pool: Arc::new(FramePool::new()),
        cancel: cfg.cancel.clone(),
        trace: cfg.trace.clone(),
        progress: cfg.progress.clone(),
    };

    // Job-wide execution environment: the frame batching target and a
    // runtime-filter hub with one slot per filter the job allocated. With
    // no factory, publish is a no-op and every consult passes tuples
    // through.
    let env = ExecEnv {
        tuples_per_frame: xcfg.tuples_per_frame,
        frame_bytes: xcfg.frame_bytes,
        filters: RuntimeFilterHub::new(
            job.nfilters(),
            cfg.filter_factory.clone(),
            cfg.filter_stats.clone(),
        ),
        // Each pipeline swaps in its own labelled child context.
        trace: TraceContext::disabled(),
        cancel: cfg.cancel.clone(),
    };

    // Wire every surviving connector: per source partition output ports,
    // per destination partition input ports. Fused edges get no channel at
    // all (empty port lists keep connector indexes aligned).
    let mut conn_outs: Vec<Vec<Option<OutputPort>>> = Vec::with_capacity(job.conns.len());
    let mut conn_ins: Vec<Vec<Option<InputPort>>> = Vec::with_capacity(job.conns.len());
    for (ci, c) in job.conns.iter().enumerate() {
        if plan.fused_conns[ci] {
            conn_outs.push(Vec::new());
            conn_ins.push(Vec::new());
            continue;
        }
        let n_src = job.ops[c.src.0].nparts;
        let n_dst = job.ops[c.dst.0].nparts;
        let (outs, ins) = wire(&c.kind, n_src, n_dst, &xcfg)?;
        conn_outs.push(outs.into_iter().map(Some).collect());
        conn_ins.push(ins.into_iter().map(Some).collect());
    }

    // One pipeline per (chain, partition). Wire every one before running
    // any, so no thread starts against half-wired channels.
    let mut pending: Vec<Pipeline> = Vec::with_capacity(total_threads);
    // The last pipeline whose chain ends the job (its tail feeds no
    // connector): the one holding the result sink.
    let mut last_terminal: Option<usize> = None;
    for chain in &plan.chains {
        let head = chain.ops[0];
        let tail = *chain.ops.last().expect("chains are non-empty");
        let in_conns = job.inputs_of(head);
        let out_conn = job.outputs_of(tail).first().copied();
        for p in 0..chain.nparts {
            let mut inputs: Vec<InputPort> = in_conns
                .iter()
                .map(|&ci| conn_ins[ci][p].take().expect("input port taken twice"))
                .collect();
            let mut output = match out_conn {
                Some(ci) => conn_outs[ci][p].take().expect("output port taken twice"),
                None => OutputPort::sink(),
            };
            // When profiling, meter every real port (in connector order)
            // and every fused edge, and keep busy-time handles for every
            // chain member.
            let mut edge_meters = Vec::new();
            let mut busy: Vec<Arc<asterix_sync::Mutex<Duration>>> = Vec::new();
            if let Some(pb) = profile.as_mut() {
                for port in inputs.iter_mut() {
                    let m = Arc::new(PortMeter::default());
                    port.set_meter(Arc::clone(&m));
                    pb.meters[head.0][p].inputs.push(m);
                }
                if out_conn.is_some() {
                    let m = Arc::new(PortMeter::default());
                    output.set_meter(Arc::clone(&m));
                    pb.meters[tail.0][p].outputs.push(m);
                }
                for edge in chain.ops.windows(2) {
                    let (m_out, m_in) = (Arc::default(), Arc::default());
                    pb.meters[edge[0].0][p].outputs.push(Arc::clone(&m_out));
                    pb.meters[edge[1].0][p].inputs.push(Arc::clone(&m_in));
                    edge_meters.push(vec![m_out, m_in]);
                }
                for op in &chain.ops {
                    busy.push(Arc::clone(&pb.meters[op.0][p].busy));
                }
            }
            if out_conn.is_none() {
                last_terminal = Some(pending.len());
            }
            pending.push(Pipeline {
                ops: chain.ops.iter().map(|op| Arc::clone(&job.ops[op.0].desc)).collect(),
                partition: p,
                nparts: chain.nparts,
                inputs,
                output,
                edge_meters,
                busy,
            });
        }
    }

    // The caller stands in for one pipeline instead of parking in `join`:
    // the one holding the result sink (which is also the last to finish),
    // else simply the last. Every other pipeline is spawned first, so all
    // of them still coexist — and a job that is one pipeline (a pruned
    // primary-key lookup, an insert's constant query) starts no thread and
    // crosses no channel.
    let own = last_terminal.or(pending.len().checked_sub(1)).map(|i| pending.remove(i));
    stats.on_threads_spawned(pending.len() as u64);
    let handles: Vec<_> = pending
        .into_iter()
        .map(|pl| {
            let (env, trace, stats) = (env.clone(), cfg.trace.clone(), Arc::clone(stats));
            thread::Builder::new()
                .name(pl.name())
                .spawn(move || pl.run(env, &trace, &stats))
                .expect("spawn operator thread")
        })
        .collect();
    // A panic on the caller's pipeline is caught like a spawned thread's is
    // by `join`: the unwind drops its ports, the rest of the job winds down
    // through them, and the session thread lives on.
    let own_outcome = own.map(|pl| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pl.run(env, &cfg.trace, stats)))
    });

    let mut first_err: Option<HyracksError> = None;
    for outcome in handles.into_iter().map(|h| h.join()).chain(own_outcome) {
        match outcome {
            Ok(Ok(())) => {}
            // A producer cut short because every consumer hung up (LIMIT
            // satisfied, etc.) is a clean early exit, not a job failure.
            Ok(Err(HyracksError::DownstreamClosed)) => {}
            Ok(Err(e)) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
            Err(_) => {
                if first_err.is_none() {
                    first_err = Some(HyracksError::Operator("operator thread panicked".into()));
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(profile.map(|pb| pb.finish(job, started.elapsed()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::ConnectorKind;
    use crate::ops::{
        AggKind, AggSpec, AssignOp, GroupMode, HashGroupOp, HybridHashJoinOp, JoinType, LimitOp,
        ScalarAggOp, SelectOp, SinkOp, SortKey, SortOp, SourceOp,
    };
    use asterix_adm::Value;
    use asterix_sync::Mutex;
    use std::sync::Arc;

    fn int_source(label: &str, per_partition: i64) -> Arc<SourceOp> {
        Arc::new(SourceOp::new(label.to_string(), move |p, _n, emit| {
            for i in 0..per_partition {
                emit(vec![Value::Int64(p as i64 * per_partition + i)])?;
            }
            Ok(())
        }))
    }

    fn collect_sink(job: &mut JobSpec) -> (crate::job::OperatorId, Arc<Mutex<Vec<Vec<Value>>>>) {
        let collector = Arc::new(Mutex::new(Vec::new()));
        let id = job.add(1, Arc::new(SinkOp::new(Arc::clone(&collector))));
        (id, collector)
    }

    #[test]
    fn scan_select_sink_pipeline() {
        let mut job = JobSpec::new();
        let src = job.add(4, int_source("scan", 100));
        let sel = job.add(
            4,
            Arc::new(SelectOp::new(
                "even",
                Arc::new(|t: &Vec<Value>| Ok(t[0].as_i64().unwrap() % 2 == 0)),
            )),
        );
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::OneToOne, src, sel);
        job.connect(ConnectorKind::MToNReplicating, sel, sink);
        run_job(&job).unwrap();
        let out = collector.lock();
        assert_eq!(out.len(), 200);
        assert!(out.iter().all(|t| t[0].as_i64().unwrap() % 2 == 0));
    }

    #[test]
    fn traced_run_emits_thread_and_operator_spans() {
        let trace = asterix_obs::TraceContext::new_trace(1024);
        let root = trace.span("execute");
        let mut job = JobSpec::new();
        let src = job.add(2, int_source("scan", 50));
        let sel = job.add(2, Arc::new(SelectOp::new("keep", Arc::new(|_t: &Vec<Value>| Ok(true)))));
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::OneToOne, src, sel);
        job.connect(ConnectorKind::MToNReplicating, sel, sink);
        let cfg = ExecutorConfig { trace: root.context(), ..Default::default() };
        run_job_with(&job, &cfg).unwrap();
        let root_id = root.span_id();
        root.finish();
        assert_eq!(collector.lock().len(), 100);
        let events = trace.sink().unwrap().events();
        // Every executor thread records a pipeline span under `execute`,
        // labelled with its partition.
        let threads: Vec<&asterix_obs::TraceEvent> = events
            .iter()
            .filter(|e| e.parent_id == root_id && !e.name.starts_with("op:"))
            .collect();
        assert_eq!(threads.len(), 3, "2 fused scan/select chains + 1 sink: {events:#?}");
        assert!(threads.iter().any(|e| e.label == "p0"));
        assert!(threads.iter().any(|e| e.label == "p1"));
        // Per-operator spans nest under their thread's span and cover every
        // chain member.
        let ops: Vec<&asterix_obs::TraceEvent> =
            events.iter().filter(|e| e.name.starts_with("op:")).collect();
        assert_eq!(ops.len(), 5, "2x(scan+select) + sink: {events:#?}");
        for op in &ops {
            assert!(threads.iter().any(|t| t.span_id == op.parent_id), "orphan op span {op:?}");
        }
        assert!(ops.iter().any(|e| e.name.contains("scan")));

        // The disabled default records nothing and changes nothing.
        let mut job2 = JobSpec::new();
        let s2 = job2.add(2, int_source("scan", 10));
        let (k2, c2) = collect_sink(&mut job2);
        job2.connect(ConnectorKind::MToNReplicating, s2, k2);
        run_job(&job2).unwrap();
        assert_eq!(c2.lock().len(), 20);
    }

    #[test]
    fn figure6_shape_local_global_agg() {
        // scan → assign(double it) → local avg → n:1 replicating → global avg
        let mut job = JobSpec::new();
        let src = job.add(3, int_source("scan", 10)); // values 0..30
        let assign = job.add(
            3,
            Arc::new(AssignOp::new(
                "x2",
                vec![Arc::new(|t: &Vec<Value>| {
                    asterix_adm::functions::arith('*', &t[0], &Value::Int64(2)).map_err(Into::into)
                })],
            )),
        );
        let local = job.add(
            3,
            Arc::new(ScalarAggOp::new(
                "avg",
                vec![AggSpec::new(AggKind::Avg, 1)],
                GroupMode::Partial,
            )),
        );
        let global = job.add(
            1,
            Arc::new(ScalarAggOp::new(
                "avg",
                vec![AggSpec::new(AggKind::Avg, 0)],
                GroupMode::Final,
            )),
        );
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::OneToOne, src, assign);
        job.connect(ConnectorKind::OneToOne, assign, local);
        job.connect(ConnectorKind::MToNReplicating, local, global);
        job.connect(ConnectorKind::OneToOne, global, sink);
        run_job(&job).unwrap();
        let out = collector.lock();
        assert_eq!(out.len(), 1);
        // avg of 2*(0..29) = 29.
        assert_eq!(out[0][0], Value::Double(29.0));
        // Stage analysis: global agg runs a stage after local agg.
        let stages = job.stages().unwrap();
        assert!(stages[global.0] > stages[assign.0]);
    }

    #[test]
    fn partitioned_group_by() {
        let mut job = JobSpec::new();
        let src = job.add(4, int_source("scan", 100)); // 0..400
                                                       // Local partial group by (i mod 10), then repartition by key, final.
        let keyed = job.add(
            4,
            Arc::new(AssignOp::new(
                "key",
                vec![Arc::new(|t: &Vec<Value>| Ok(Value::Int64(t[0].as_i64().unwrap() % 10)))],
            )),
        );
        let local = job.add(
            4,
            Arc::new(HashGroupOp::new(
                "local",
                vec![1],
                vec![AggSpec::new(AggKind::Count, 0), AggSpec::new(AggKind::Sum, 0)],
                GroupMode::Partial,
            )),
        );
        let global = job.add(
            2,
            Arc::new(HashGroupOp::new(
                "global",
                vec![0],
                vec![AggSpec::new(AggKind::Count, 1), AggSpec::new(AggKind::Sum, 2)],
                GroupMode::Final,
            )),
        );
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::OneToOne, src, keyed);
        job.connect(ConnectorKind::OneToOne, keyed, local);
        job.connect(ConnectorKind::MToNPartitioning { fields: vec![0] }, local, global);
        job.connect(ConnectorKind::MToNReplicating, global, sink);
        run_job(&job).unwrap();
        let mut out = collector.lock().clone();
        out.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(out.len(), 10);
        for (k, row) in out.iter().enumerate() {
            assert_eq!(row[1], Value::Int64(40), "count of group {k}");
            // sum of {k, k+10, ..., k+390} = 40k + 10*(0+..+39)
            let expect = 40 * k as i64 + 10 * (39 * 40 / 2);
            assert_eq!(row[2], Value::Int64(expect), "sum of group {k}");
        }
    }

    #[test]
    fn distributed_hash_join() {
        let mut job = JobSpec::new();
        // Build: keys 0..50 twice; probe: keys 0..100 once.
        let build = job.add(
            2,
            Arc::new(SourceOp::new("build", |p, _n, emit| {
                for i in 0..50i64 {
                    emit(vec![Value::Int64(i), Value::string(format!("b{p}"))])?;
                }
                Ok(())
            })),
        );
        let probe = job.add(
            2,
            Arc::new(SourceOp::new("probe", |p, _n, emit| {
                for i in 0..50i64 {
                    emit(vec![Value::Int64(p as i64 * 50 + i), Value::string("p")])?;
                }
                Ok(())
            })),
        );
        let join =
            job.add(3, Arc::new(HybridHashJoinOp::new("j", vec![0], vec![0], JoinType::Inner, 1)));
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::MToNPartitioning { fields: vec![0] }, build, join);
        job.connect(ConnectorKind::MToNPartitioning { fields: vec![0] }, probe, join);
        job.connect(ConnectorKind::MToNReplicating, join, sink);
        run_job(&job).unwrap();
        // Keys 0..50 exist on probe side once (from partition 0's range)
        // and build side twice (both partitions) → 100 result rows.
        assert_eq!(collector.lock().len(), 100);
    }

    #[test]
    fn sort_merge_connector_gives_global_order() {
        let mut job = JobSpec::new();
        let src = job.add(4, int_source("scan", 250)); // 0..1000 across parts
        let sort = job.add(4, Arc::new(SortOp::new("k", vec![SortKey::field(0, true)])));
        let merge = job.add(1, Arc::new(LimitOp { limit: 5, offset: 0 }));
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::OneToOne, src, sort);
        job.connect(
            ConnectorKind::MToNPartitioningMerging {
                fields: vec![],
                comparator: crate::ops::sort_comparator(&[SortKey::field(0, true)]),
            },
            sort,
            merge,
        );
        job.connect(ConnectorKind::OneToOne, merge, sink);
        run_job(&job).unwrap();
        let got: Vec<i64> = collector.lock().iter().map(|t| t[0].as_i64().unwrap()).collect();
        assert_eq!(got, vec![999, 998, 997, 996, 995]);
    }

    #[test]
    fn operator_errors_propagate() {
        let mut job = JobSpec::new();
        let src = job.add(1, int_source("scan", 10));
        let bad = job.add(
            1,
            Arc::new(SelectOp::new(
                "boom",
                Arc::new(|_t: &Vec<Value>| Err(HyracksError::Operator("intentional".into()))),
            )),
        );
        let (sink, _collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::OneToOne, src, bad);
        job.connect(ConnectorKind::OneToOne, bad, sink);
        let err = run_job(&job).unwrap_err();
        assert!(matches!(err, HyracksError::Operator(m) if m.contains("intentional")));
    }

    #[test]
    fn limit_stops_early_without_hanging() {
        let mut job = JobSpec::new();
        let src = job.add(1, int_source("scan", 100_000));
        let limit = job.add(1, Arc::new(LimitOp { limit: 3, offset: 1 }));
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::OneToOne, src, limit);
        job.connect(ConnectorKind::OneToOne, limit, sink);
        run_job(&job).unwrap();
        let got: Vec<i64> = collector.lock().iter().map(|t| t[0].as_i64().unwrap()).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn runtime_filter_prunes_probe_tuples_before_exchange() {
        use crate::filter::FilterStats;
        use crate::ops::RuntimeFilterProbeOp;
        use std::collections::HashSet;

        let mut job = JobSpec::new();
        // Build side: keys 0..20 across 2 partitions.
        let build = job.add(2, int_source("build", 10));
        // Probe side: keys 0..40 — half have no build partner. The source
        // waits until every build partition has published its filter, so
        // the probe-side consult deterministically sees a cached filter
        // (in production it is best-effort and passes through until then).
        let stats = FilterStats::default();
        let gate = stats.clone();
        let probe = job.add(
            2,
            Arc::new(SourceOp::new("probe".to_string(), move |p, _n, emit| {
                while gate.published.get() < 2 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                for i in 0..20i64 {
                    emit(vec![Value::Int64(p as i64 * 20 + i)])?;
                }
                Ok(())
            })),
        );
        let fid = job.alloc_runtime_filter();
        let consult = job.add(
            2,
            Arc::new(RuntimeFilterProbeOp { filter_id: fid, key_cols: vec![0], join_nparts: 2 }),
        );
        let join = job.add(
            2,
            Arc::new(
                HybridHashJoinOp::new("equi", vec![0], vec![0], JoinType::Inner, 1)
                    .with_runtime_filter(fid),
            ),
        );
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::MToNPartitioning { fields: vec![0] }, build, join);
        job.connect(ConnectorKind::OneToOne, probe, consult);
        job.connect(ConnectorKind::MToNPartitioning { fields: vec![0] }, consult, join);
        job.connect(ConnectorKind::MToNReplicating, join, sink);

        // Exact-set factory: no false positives, so every partner-less
        // probe tuple is pruned before the exchange.
        let cfg = ExecutorConfig {
            filter_factory: Some(Arc::new(|hashes: &[u64]| {
                let set: HashSet<u64> = hashes.iter().copied().collect();
                Arc::new(move |h| set.contains(&h)) as crate::filter::KeyTest
            })),
            filter_stats: stats.clone(),
            ..Default::default()
        };
        run_job_with(&job, &cfg).unwrap();

        let mut got: Vec<i64> = collector.lock().iter().map(|t| t[0].as_i64().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<i64>>(), "join results unchanged by pruning");
        assert_eq!(stats.published.get(), 2, "one filter per build partition");
        assert_eq!(stats.checked.get(), 40, "every probe tuple consulted");
        assert_eq!(stats.pruned_tuples.get(), 20, "all partner-less probe tuples pruned");

        // Without a filter factory the consult is a pass-through: same
        // results, nothing published, checked or pruned.
        let stats_off = FilterStats::default();
        let off = ExecutorConfig {
            filter_factory: None,
            filter_stats: stats_off.clone(),
            ..Default::default()
        };
        collector.lock().clear();
        run_job_with(&job, &off).unwrap();
        let mut got: Vec<i64> = collector.lock().iter().map(|t| t[0].as_i64().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<i64>>());
        assert_eq!(stats_off.published.get(), 0);
        assert_eq!(stats_off.checked.get(), 0);
        assert_eq!(stats_off.pruned_tuples.get(), 0);
    }

    /// A source that applies its join's filter gets the consult of the run
    /// it is in: the same job, run again over another build side, prunes by
    /// that run's filter — what the first run published is gone with it.
    #[test]
    fn a_source_consults_the_filter_of_its_own_run() {
        use crate::filter::FilterStats;
        use crate::ops::RuntimeFilterProbeOp;
        use std::collections::HashSet;
        use std::sync::atomic::{AtomicU64, Ordering};

        let build_keys = Arc::new(Mutex::new(0..20i64));
        let stats = FilterStats::default();
        // Filters published once every build partition of the current run
        // has: the counter runs on across runs.
        let all_published = Arc::new(AtomicU64::new(0));

        let mut job = JobSpec::new();
        let keys = Arc::clone(&build_keys);
        let build = job.add(
            2,
            Arc::new(SourceOp::new("build", move |p, n, emit| {
                let keys = keys.lock().clone();
                keys.filter(|k| *k as usize % n == p).try_for_each(|k| emit(vec![Value::Int64(k)]))
            })),
        );
        let fid = job.alloc_runtime_filter();
        // Probe keys 0..40, tested as a columnar scan tests them: on the
        // key's encoded value, before there is a tuple — here once the
        // build side has published, so that every key is decided.
        let (gate, target) = (stats.clone(), Arc::clone(&all_published));
        let probe = SourceOp::from_raw_fn(
            "probe",
            Arc::new(move |p, _n, partner, emit| {
                let partner = partner.expect("the consult of the filter the source asked for");
                while gate.published.get() < target.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                partner.poll();
                for k in (p as i64 * 20..).take(20) {
                    let key = asterix_adm::serde::encode(&Value::Int64(k));
                    if partner.keep_value(asterix_adm::ValueRef::new(&key)) {
                        emit(&asterix_adm::encode_tuple(&[Value::Int64(k)]))?;
                    }
                }
                Ok(())
            }),
        );
        let probe = job.add(2, Arc::new(probe.with_join_filter(fid, 2)));
        let consult = job.add(
            2,
            Arc::new(RuntimeFilterProbeOp { filter_id: fid, key_cols: vec![0], join_nparts: 2 }),
        );
        let join = job.add(
            2,
            Arc::new(
                HybridHashJoinOp::new("equi", vec![0], vec![0], JoinType::Inner, 1)
                    .with_runtime_filter(fid),
            ),
        );
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::MToNPartitioning { fields: vec![0] }, build, join);
        job.connect(ConnectorKind::OneToOne, probe, consult);
        job.connect(ConnectorKind::MToNPartitioning { fields: vec![0] }, consult, join);
        job.connect(ConnectorKind::MToNReplicating, join, sink);
        let cfg = ExecutorConfig {
            filter_factory: Some(Arc::new(|hashes: &[u64]| {
                let set: HashSet<u64> = hashes.iter().copied().collect();
                Arc::new(move |h| set.contains(&h)) as crate::filter::KeyTest
            })),
            filter_stats: stats.clone(),
            ..Default::default()
        };

        for (run, built) in [(1, 0..20i64), (2, 15..35)] {
            *build_keys.lock() = built.clone();
            all_published.store(2 * run, Ordering::SeqCst);
            collector.lock().clear();
            run_job_with(&job, &cfg).unwrap();
            let mut got: Vec<i64> =
                collector.lock().iter().map(|t| t[0].as_i64().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, built.collect::<Vec<i64>>(), "run {run}");
            // The source checked all 40 keys and pruned the 20 without a
            // partner; the operator above checked its 20 survivors again.
            assert_eq!(stats.checked.get(), run * 60, "run {run}");
            assert_eq!(stats.pruned_tuples.get(), run * 20, "run {run}");
        }
    }

    #[test]
    fn backpressure_bounds_buffered_frames() {
        use crate::connector::ExchangeStats;

        // A fast producer feeding a slow consumer: with unbounded channels
        // the whole 100k-tuple dataset would sit in exchange memory; with
        // bounded channels the in-flight frame count must stay within
        // frames_in_flight × channels.
        let mut job = JobSpec::new();
        let src = job.add(1, int_source("scan", 100_000));
        let slow = job.add(
            1,
            Arc::new(SelectOp::new(
                "slow",
                Arc::new(|t: &Vec<Value>| {
                    if t[0].as_i64().unwrap() % 4096 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    Ok(true)
                }),
            )),
        );
        let (sink, collector) = collect_sink(&mut job);
        // OneToOne edges would fuse into one thread with no channel at all;
        // this test is about the channels, so the edges repartition.
        let edge = || ConnectorKind::MToNPartitioning { fields: vec![0] };
        job.connect(edge(), src, slow);
        job.connect(edge(), slow, sink);
        assert_eq!(job.fusion_plan().unwrap().total_threads(), 3);

        let cfg = ExecutorConfig { frames_in_flight: 2, ..Default::default() };
        let stats = Arc::new(ExchangeStats::new());
        run_job_with_stats(&job, &cfg, &stats).unwrap();

        assert_eq!(collector.lock().len(), 100_000);
        // Two 1:1 repartitioning connectors with one sender each. The gauge counts a
        // frame from the moment its sender enqueues it (over-counting
        // in-flight memory, never under-counting), so each sender blocked
        // in a full channel contributes one frame beyond the channel's
        // frames_in_flight budget.
        let bound = ((cfg.frames_in_flight + 1) * 2) as i64;
        assert!(
            stats.peak_buffered_frames() <= bound,
            "peak {} exceeds frames_in_flight bound {}",
            stats.peak_buffered_frames(),
            bound
        );
        assert!(stats.backpressure_stalls() > 0, "producer never felt backpressure");
        assert!(stats.frames_sent() >= (100_000 / crate::FRAME_CAPACITY as u64));
        assert_eq!(stats.tuples_sent(), 200_000); // both hops counted
    }

    #[test]
    fn producer_stops_early_when_downstream_closes() {
        use std::sync::atomic::{AtomicU64, Ordering};

        // Regression for the silent-discard bug: a producer feeding a
        // closed LIMIT must terminate early, not grind through all 100k
        // tuples into a void.
        let emitted = Arc::new(AtomicU64::new(0));
        let emitted2 = Arc::clone(&emitted);
        let mut job = JobSpec::new();
        let src = job.add(
            1,
            Arc::new(SourceOp::new("scan", move |_p, _n, emit| {
                for i in 0..100_000i64 {
                    emitted2.fetch_add(1, Ordering::Relaxed);
                    emit(vec![Value::Int64(i)])?;
                }
                Ok(())
            })),
        );
        let limit = job.add(1, Arc::new(LimitOp { limit: 3, offset: 0 }));
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::OneToOne, src, limit);
        job.connect(ConnectorKind::OneToOne, limit, sink);

        let cfg = ExecutorConfig { frames_in_flight: 2, ..Default::default() };
        run_job_with(&job, &cfg).unwrap();

        let got: Vec<i64> = collector.lock().iter().map(|t| t[0].as_i64().unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2]);
        let n = emitted.load(Ordering::Relaxed);
        assert!(n < 20_000, "producer emitted {n} tuples after the consumer hung up");
    }

    #[test]
    fn thread_fanout_over_cap_is_rejected() {
        let mut job = JobSpec::new();
        let src = job.add(8, int_source("scan", 1));
        let (sink, _collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::MToNReplicating, src, sink);
        let cfg = ExecutorConfig { max_threads: 4, ..Default::default() };
        let err = run_job_with(&job, &cfg).unwrap_err();
        assert!(
            matches!(&err, HyracksError::InvalidJob(m) if m.contains("max_threads")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn fusion_collapses_chain_to_one_thread_per_partition() {
        // scan(4) → select(4) → assign(4) → MToNReplicating → sink(1):
        // the OneToOne chain fuses to one pipeline per partition, so the
        // whole job runs on 4 + 1 threads — where the same operators behind
        // repartitioning edges need 12 + 1.
        let build_job = |edge: ConnectorKind| {
            let mut job = JobSpec::new();
            let src = job.add(4, int_source("scan", 100));
            let sel = job.add(
                4,
                Arc::new(SelectOp::new(
                    "even",
                    Arc::new(|t: &Vec<Value>| Ok(t[0].as_i64().unwrap() % 2 == 0)),
                )),
            );
            let asg = job.add(
                4,
                Arc::new(AssignOp::new(
                    "x2",
                    vec![Arc::new(|t: &Vec<Value>| Ok(Value::Int64(t[0].as_i64().unwrap() * 2)))],
                )),
            );
            let (sink, collector) = collect_sink(&mut job);
            job.connect(edge.clone(), src, sel);
            job.connect(edge, sel, asg);
            job.connect(ConnectorKind::MToNReplicating, asg, sink);
            (job, collector)
        };

        let (job, collector) = build_job(ConnectorKind::OneToOne);
        let plan = job.fusion_plan().unwrap();
        assert_eq!(plan.total_threads(), 5, "4 fused pipelines plus the sink");
        assert_eq!(plan.fused_pipelines(), 4);
        assert_eq!(plan.saved_threads(), 8);

        // The max_threads guard counts pipelines, so 5 suffices fused...
        let cfg = ExecutorConfig { max_threads: 5, ..Default::default() };
        let stats = Arc::new(ExchangeStats::new());
        run_job_with_stats(&job, &cfg, &stats).unwrap();
        assert_eq!(stats.pipelines_fused(), 4);
        assert_eq!(stats.fusion_saved_threads(), 8);
        let mut fused_rows = collector.lock().clone();

        // ...but behind repartitioning edges every operator partition is
        // a pipeline of its own: 13 threads, rejected.
        let (job2, collector2) = build_job(ConnectorKind::MToNPartitioning { fields: vec![0] });
        assert_eq!(job2.fusion_plan().unwrap().total_threads(), 13);
        let err = run_job_with(&job2, &cfg).unwrap_err();
        assert!(
            matches!(&err, HyracksError::InvalidJob(m) if m.contains("max_threads")),
            "unexpected error: {err}"
        );

        // With room to run, the select and the assign head their own
        // pipelines, and the results must be bit-identical.
        run_job(&job2).unwrap();
        let mut split_rows = collector2.lock().clone();
        fused_rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        split_rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(fused_rows.len(), 200);
        assert_eq!(fused_rows, split_rows);
    }

    #[test]
    fn fused_limit_stops_the_whole_chain_early() {
        use std::sync::atomic::{AtomicU64, Ordering};

        // LIMIT inside a fully fused chain: DownstreamClosed must unwind
        // through the push stack to the head and stop the scan early.
        let emitted = Arc::new(AtomicU64::new(0));
        let emitted2 = Arc::clone(&emitted);
        let mut job = JobSpec::new();
        let src = job.add(
            1,
            Arc::new(SourceOp::new("scan", move |_p, _n, emit| {
                for i in 0..100_000i64 {
                    emitted2.fetch_add(1, Ordering::Relaxed);
                    emit(vec![Value::Int64(i)])?;
                }
                Ok(())
            })),
        );
        let limit = job.add(1, Arc::new(LimitOp { limit: 3, offset: 1 }));
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::OneToOne, src, limit);
        job.connect(ConnectorKind::OneToOne, limit, sink);

        let plan = job.fusion_plan().unwrap();
        assert_eq!(plan.total_threads(), 1, "scan→limit→sink fuses to a single thread");
        let stats = Arc::new(ExchangeStats::new());
        // A source pushes whole frames: at one tuple a frame, every emit
        // is a push.
        let cfg = ExecutorConfig { tuples_per_frame: 1, ..Default::default() };
        run_job_with_stats(&job, &cfg, &stats).unwrap();
        let got: Vec<i64> = collector.lock().iter().map(|t| t[0].as_i64().unwrap()).collect();
        assert_eq!(got, vec![1, 2, 3]);
        let n = emitted.load(Ordering::Relaxed);
        assert_eq!(n, 4, "fused LIMIT stops the scan on the very next push");
        // ...and that thread was the caller's: the early stop ends an
        // inline chain as cleanly as a spawned one.
        assert_eq!(stats.threads_spawned(), 0);
    }

    #[test]
    fn profiled_run_reconciles_tuple_counts() {
        let mut job = JobSpec::new();
        let src = job.add(2, int_source("scan", 100));
        let sel = job.add(
            2,
            Arc::new(SelectOp::new(
                "even",
                Arc::new(|t: &Vec<Value>| Ok(t[0].as_i64().unwrap() % 2 == 0)),
            )),
        );
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::OneToOne, src, sel);
        job.connect(ConnectorKind::MToNReplicating, sel, sink);

        let stats = Arc::new(ExchangeStats::new());
        let profile = run_job_profiled(&job, &ExecutorConfig::default(), &stats).unwrap();

        assert_eq!(collector.lock().len(), 100);
        let scan = profile.operator(src).unwrap();
        assert_eq!(scan.tuples_out(), 200, "scan emits every source tuple");
        // scan→select fuses: the interior edge moves tuples, not frames.
        assert_eq!(scan.frames_out(), 0, "no frames cross a fused edge");
        assert_eq!(scan.bytes_out(), 0);
        let select = profile.operator(sel).unwrap();
        assert_eq!(select.tuples_in(), 200);
        assert_eq!(select.tuples_out(), 100, "selectivity 0.5");
        assert!(select.frames_out() > 0 && select.bytes_out() > 0, "real exchange after the chain");
        let sink_prof = profile.operator(sink).unwrap();
        assert_eq!(sink_prof.tuples_in(), 100, "sink input equals result cardinality");
        assert_eq!(sink_prof.partitions.len(), 1);
        assert!(profile.elapsed > std::time::Duration::ZERO);
        assert!(profile.describe().contains("result-sink"));
    }

    #[test]
    fn profiled_join_distinguishes_build_and_probe_ports() {
        let mut job = JobSpec::new();
        let build = job.add(
            2,
            Arc::new(SourceOp::new("build", |p, _n, emit| {
                for i in 0..50i64 {
                    emit(vec![Value::Int64(i), Value::string(format!("b{p}"))])?;
                }
                Ok(())
            })),
        );
        let probe = job.add(
            2,
            Arc::new(SourceOp::new("probe", |p, _n, emit| {
                for i in 0..50i64 {
                    emit(vec![Value::Int64(p as i64 * 50 + i), Value::string("p")])?;
                }
                Ok(())
            })),
        );
        let join =
            job.add(3, Arc::new(HybridHashJoinOp::new("j", vec![0], vec![0], JoinType::Inner, 1)));
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::MToNPartitioning { fields: vec![0] }, build, join);
        job.connect(ConnectorKind::MToNPartitioning { fields: vec![0] }, probe, join);
        job.connect(ConnectorKind::MToNReplicating, join, sink);

        let stats = Arc::new(ExchangeStats::new());
        let profile = run_job_profiled(&job, &ExecutorConfig::default(), &stats).unwrap();

        assert_eq!(collector.lock().len(), 100);
        let jp = profile.operator(join).unwrap();
        assert_eq!(jp.tuples_in_port(0), 100, "build side sees both build partitions");
        assert_eq!(jp.tuples_in_port(1), 100, "probe side sees both probe partitions");
        assert_eq!(jp.tuples_out(), 100);
    }

    #[test]
    fn cancellation_token_stops_a_running_job() {
        use asterix_rm::CancellationToken;

        // An endless source can only stop when its output port observes the
        // token; the whole job must unwind with Cancelled instead of hanging.
        let mut job = JobSpec::new();
        let src = job.add(
            2,
            Arc::new(SourceOp::new("endless", |p, _n, emit| {
                let mut i = 0i64;
                loop {
                    emit(vec![Value::Int64(p as i64), Value::Int64(i)])?;
                    i += 1;
                }
            })),
        );
        let (sink, _collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::MToNReplicating, src, sink);

        let token = CancellationToken::new();
        let cfg = ExecutorConfig { cancel: Some(token.clone()), ..Default::default() };
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(50));
                token.cancel();
            })
        };
        let res = run_job_with(&job, &cfg);
        canceller.join().unwrap();
        assert!(
            matches!(res, Err(crate::HyracksError::Cancelled)),
            "expected Cancelled, got {res:?}"
        );
    }

    #[test]
    fn deadline_expiry_cancels_a_running_job() {
        use asterix_rm::CancellationToken;

        // Same endless job, but nobody calls cancel(): the deadline baked
        // into the token fires on its own.
        let mut job = JobSpec::new();
        let src = job.add(
            1,
            Arc::new(SourceOp::new("endless", |_p, _n, emit| {
                let mut i = 0i64;
                loop {
                    emit(vec![Value::Int64(i)])?;
                    i += 1;
                }
            })),
        );
        let (sink, _collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::OneToOne, src, sink);

        let token = CancellationToken::deadline_in(std::time::Duration::from_millis(50));
        let cfg = ExecutorConfig { cancel: Some(token), ..Default::default() };
        let res = run_job_with(&job, &cfg);
        assert!(
            matches!(res, Err(crate::HyracksError::Cancelled)),
            "expected Cancelled, got {res:?}"
        );
    }

    /// Where an operator ran: a select that notes its thread.
    fn noting_select(seen: &Arc<Mutex<Vec<thread::ThreadId>>>) -> Arc<SelectOp> {
        let seen = Arc::clone(seen);
        Arc::new(SelectOp::new(
            "where",
            Arc::new(move |_t: &Vec<Value>| {
                seen.lock().push(thread::current().id());
                Ok(true)
            }),
        ))
    }

    #[test]
    fn the_caller_runs_one_pipeline_of_every_job() {
        let me = thread::current().id();

        // scan → select → sink is one pipeline: it runs here, no thread is
        // spawned and no frame crosses a channel.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut job = JobSpec::new();
        let src = job.add(1, int_source("scan", 10));
        let sel = job.add(1, noting_select(&seen));
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::OneToOne, src, sel);
        job.connect(ConnectorKind::OneToOne, sel, sink);
        let stats = Arc::new(ExchangeStats::new());
        run_job_with_stats(&job, &ExecutorConfig::default(), &stats).unwrap();
        assert_eq!(collector.lock().len(), 10);
        assert!(seen.lock().iter().all(|&t| t == me), "the only pipeline ran elsewhere");
        assert_eq!((stats.threads_spawned(), stats.frames_sent()), (0, 0));

        // Two pipelines, one spawned: the scan side gets a thread, the
        // chain holding the sink runs here.
        let (up, down) = (Arc::new(Mutex::new(Vec::new())), Arc::new(Mutex::new(Vec::new())));
        let mut job = JobSpec::new();
        let src = job.add(1, int_source("scan", 10));
        let sel_up = job.add(1, noting_select(&up));
        let sel_down = job.add(1, noting_select(&down));
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::OneToOne, src, sel_up);
        job.connect(ConnectorKind::MToNReplicating, sel_up, sel_down);
        job.connect(ConnectorKind::OneToOne, sel_down, sink);
        assert_eq!(job.fusion_plan().unwrap().total_threads(), 2);
        run_job_with_stats(&job, &ExecutorConfig::default(), &stats).unwrap();
        assert_eq!(collector.lock().len(), 10);
        assert_eq!(stats.threads_spawned(), 1, "a job spawns its pipeline count minus one");
        assert!(up.lock().iter().all(|&t| t != me) && down.lock().iter().all(|&t| t == me));

        // Behind repartitioning edges the same operators are four
        // pipelines: three threads, the sink's on the caller.
        let mut job = JobSpec::new();
        let edge = || ConnectorKind::MToNPartitioning { fields: vec![0] };
        let src = job.add(1, int_source("scan", 10));
        let sel_up = job.add(1, noting_select(&up));
        let sel_down = job.add(1, noting_select(&down));
        let (sink, collector) = collect_sink(&mut job);
        job.connect(edge(), src, sel_up);
        job.connect(edge(), sel_up, sel_down);
        job.connect(edge(), sel_down, sink);
        assert_eq!(job.fusion_plan().unwrap().total_threads(), 4);
        run_job_with_stats(&job, &ExecutorConfig::default(), &stats).unwrap();
        assert_eq!(collector.lock().len(), 10);
        assert_eq!(stats.threads_spawned(), 1 + 3);
    }

    #[test]
    fn a_panicking_pipeline_fails_the_job_not_the_caller() {
        let panicking = |connector: ConnectorKind| {
            let mut job = JobSpec::new();
            let src = job.add(
                1,
                Arc::new(SourceOp::new("boom", |_p, _n, emit| {
                    emit(vec![Value::Int64(1)])?;
                    panic!("intentional test panic");
                })),
            );
            let (sink, _collector) = collect_sink(&mut job);
            job.connect(connector, src, sink);
            job
        };
        let stats = Arc::new(ExchangeStats::new());
        // The source on the caller's thread (one fused pipeline), then on a
        // spawned one (the caller runs the sink).
        for (connector, spawned) in
            [(ConnectorKind::OneToOne, 0), (ConnectorKind::MToNReplicating, 1)]
        {
            let before = stats.threads_spawned();
            let err = run_job_with_stats(&panicking(connector), &ExecutorConfig::default(), &stats)
                .unwrap_err();
            assert!(
                matches!(&err, HyracksError::Operator(m) if m == "operator thread panicked"),
                "unexpected error: {err}"
            );
            assert_eq!(stats.threads_spawned() - before, spawned);
        }
        // This thread is none the worse: its next job runs, inline.
        let mut job = JobSpec::new();
        let src = job.add(1, int_source("scan", 5));
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::OneToOne, src, sink);
        run_job(&job).unwrap();
        assert_eq!(collector.lock().len(), 5);
    }

    #[test]
    fn an_endless_inline_pipeline_is_cancelled_by_token_and_by_deadline() {
        use asterix_rm::CancellationToken;

        // scan → sink fuses into the caller's own pipeline: nobody else is
        // there to unwind it, so its own pushes must observe the token.
        let mut job = JobSpec::new();
        let src = job.add(
            1,
            Arc::new(SourceOp::new("endless", |_p, _n, emit| loop {
                emit(vec![Value::Int64(0)])?;
            })),
        );
        let (sink, _collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::OneToOne, src, sink);
        assert_eq!(job.fusion_plan().unwrap().total_threads(), 1);

        let stats = Arc::new(ExchangeStats::new());
        let explicit = CancellationToken::new();
        let canceller = {
            let token = explicit.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(50));
                token.cancel();
            })
        };
        let deadline = CancellationToken::deadline_in(Duration::from_millis(50));
        for token in [explicit, deadline] {
            let cfg = ExecutorConfig { cancel: Some(token), ..Default::default() };
            let res = run_job_with_stats(&job, &cfg, &stats);
            assert!(matches!(res, Err(HyracksError::Cancelled)), "expected Cancelled, got {res:?}");
        }
        canceller.join().unwrap();
        assert_eq!(stats.threads_spawned(), 0);
    }

    #[test]
    fn a_spawned_pipelines_error_wins_over_the_callers_early_stop() {
        // The caller runs gather → limit → sink and is stopped by its own
        // fused LIMIT (DownstreamClosed, a clean exit); the spawned source
        // fails for real after feeding it. The job reports the failure.
        let mut job = JobSpec::new();
        let src = job.add(
            1,
            Arc::new(SourceOp::new("fails-late", |_p, _n, emit| {
                for i in 0..10i64 {
                    emit(vec![Value::Int64(i)])?;
                }
                Err(HyracksError::Operator("intentional".into()))
            })),
        );
        let gather = job.add(1, Arc::new(crate::ops::ForwardOp::new("gather")));
        let limit = job.add(1, Arc::new(LimitOp { limit: 3, offset: 0 }));
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::MToNReplicating, src, gather);
        job.connect(ConnectorKind::OneToOne, gather, limit);
        job.connect(ConnectorKind::OneToOne, limit, sink);
        assert_eq!(job.fusion_plan().unwrap().total_threads(), 2);
        let err = run_job(&job).unwrap_err();
        assert!(matches!(&err, HyracksError::Operator(m) if m == "intentional"), "{err}");
        assert_eq!(collector.lock().len(), 3, "the limit was satisfied before the failure");
    }

    /// Emits `(i, i % 10)` for `i` in `0..n`, flushing its port every 1000
    /// tuples: a flush reaches the stages fused behind it (never past a
    /// channel), and must not make a blocking one emit early.
    struct FlushingGen(i64);

    impl OperatorDescriptor for FlushingGen {
        fn name(&self) -> String {
            "gen".into()
        }

        fn run(&self, ctx: &mut OpCtx, _inputs: &mut [InputPort]) -> Result<()> {
            for i in 0..self.0 {
                ctx.output.push_encoded(&asterix_adm::encode_tuple(&[
                    Value::Int64(i),
                    Value::Int64(i % 10),
                ]))?;
                if i % 1000 == 999 {
                    ctx.output.flush()?;
                }
            }
            Ok(())
        }
    }

    /// Every single-input operator has one body, its push stage, whether
    /// it is fused behind a source or heads its own pipeline behind a
    /// repartitioning edge (the provided `run` drives it): both answer
    /// byte-identically. The heads that buffer — the fetch and the index-NL
    /// join hold a partial key batch, the sink its rows, the sort, group
    /// and aggregate everything — deliver only because the provided `run`
    /// finishes their stage.
    #[test]
    fn every_streaming_operator_answers_alike_fused_and_at_the_head() {
        use crate::ops::{
            DistinctOp, FetchFn, ForwardOp, IndexNlJoinOp, PrimaryFetchOp, ProjectOp,
            RuntimeFilterProbeOp, UnnestOp, FETCH_BATCH,
        };
        use crate::Tuple;
        use std::sync::atomic::{AtomicU64, Ordering};

        // More keys than one fetch batch holds, so a tail is left over.
        const N: i64 = FETCH_BATCH as i64 + 904;
        let key = |t: &Tuple| t[0].as_i64().unwrap();
        let enc_key = |t: &[u8]| asterix_adm::TupleRef::new(t).unwrap().field(0).as_i64().unwrap();
        // A record for every even key.
        let fetch: FetchFn = Arc::new(move |pks, emit| {
            for (i, pk) in pks.iter().enumerate() {
                let k = enc_key(pk);
                if k % 2 == 0 {
                    emit(i, &asterix_adm::encode_tuple(&[Value::string(format!("rec-{k}"))]))?;
                }
            }
            Ok(())
        });
        let streaming = |name: &str, job: &mut JobSpec, rows: &Arc<Mutex<Vec<Tuple>>>| {
            let op: Arc<dyn OperatorDescriptor> = match name {
                "sink" => Arc::new(SinkOp::new(Arc::clone(rows))),
                "select" => Arc::new(SelectOp::new(
                    "not-x3",
                    Arc::new(move |t: &Tuple| Ok(key(t) % 3 != 0)),
                )),
                "assign" => Arc::new(AssignOp::new(
                    "x2",
                    vec![Arc::new(move |t: &Tuple| Ok(Value::Int64(key(t) * 2)))],
                )),
                "project" => Arc::new(ProjectOp { fields: vec![1, 0] }),
                "limit" => Arc::new(LimitOp { limit: 7, offset: 2 }),
                "runtime-filter" => Arc::new(RuntimeFilterProbeOp {
                    filter_id: job.alloc_runtime_filter(),
                    key_cols: vec![0],
                    join_nparts: 2,
                }),
                "unnest" => {
                    let upto = move |t: &Tuple| {
                        Ok(Value::ordered_list((0..key(t) % 3).map(Value::Int64).collect()))
                    };
                    Arc::new(UnnestOp::outer("upto", Arc::new(upto)).with_position())
                }
                "fetch" => Arc::new(PrimaryFetchOp::new("fetch", Arc::clone(&fetch))),
                "distinct" => Arc::new(DistinctOp { keys: vec![1] }),
                "forward" => Arc::new(ForwardOp::new("merge")),
                "index-nl" => Arc::new(IndexNlJoinOp::new(
                    "ix",
                    Arc::new(move |outers, groups, emit| {
                        for (o, t) in outers.iter().enumerate() {
                            groups.push(o);
                            let k = enc_key(t);
                            emit(o, &asterix_adm::encode_tuple(&[Value::Int64(k)]))?;
                            emit(o, &asterix_adm::encode_tuple(&[Value::Int64(k + 1)]))?;
                        }
                        Ok(())
                    }),
                    Arc::clone(&fetch),
                    JoinType::ProbeOuter,
                    1,
                )),
                "sort" | "sort-spilling" => {
                    let keys = vec![SortKey::field(1, false), SortKey::field(0, true)];
                    let sort = SortOp::new("k", keys);
                    Arc::new(if name == "sort" { sort } else { sort.with_budget(4096) })
                }
                "group-partial" => Arc::new(
                    HashGroupOp::new(
                        "p",
                        vec![1],
                        vec![AggSpec::new(AggKind::Count, 0), AggSpec::new(AggKind::Sum, 0)],
                        GroupMode::Partial,
                    )
                    .with_budget(1024),
                ),
                "group-complete" => Arc::new(HashGroupOp::new(
                    "c",
                    vec![1],
                    vec![AggSpec::new(AggKind::Avg, 0), AggSpec::new(AggKind::Max, 0)],
                    GroupMode::Complete,
                )),
                "aggregate" => Arc::new(ScalarAggOp::new(
                    "a",
                    vec![AggSpec::new(AggKind::Sum, 0), AggSpec::new(AggKind::Count, 1)],
                    GroupMode::Complete,
                )),
                other => unreachable!("{other}"),
            };
            op
        };
        // gen → op (→ sink), the op fused behind the source or heading a
        // pipeline of its own behind a repartitioning edge.
        let run = |name: &str, head: bool| -> Vec<Vec<u8>> {
            let rows = Arc::new(Mutex::new(Vec::new()));
            let mut job = JobSpec::new();
            let src = job.add(1, Arc::new(FlushingGen(N)));
            let op = streaming(name, &mut job, &rows);
            let op = job.add(1, op);
            let edge = match head {
                true => ConnectorKind::MToNPartitioning { fields: vec![0] },
                false => ConnectorKind::OneToOne,
            };
            job.connect(edge, src, op);
            if name != "sink" {
                let sink = job.add(1, Arc::new(SinkOp::new(Arc::clone(&rows))));
                job.connect(ConnectorKind::OneToOne, op, sink);
            }
            let chains = job.fusion_plan().unwrap().chains;
            assert_eq!(chains.len(), 1 + usize::from(head), "{name}");
            assert_eq!(chains.last().unwrap().ops[0] == op, head, "{name}");
            run_job(&job).unwrap();
            let rows = rows.lock();
            let mut rows: Vec<Vec<u8>> =
                rows.iter().map(|t| asterix_adm::encode_tuple(t)).collect();
            // A hash table emits in no particular order.
            if name.starts_with("group") {
                rows.sort();
            }
            rows
        };
        let mut differ = Vec::new();
        for name in [
            "sink",
            "select",
            "assign",
            "project",
            "limit",
            "runtime-filter",
            "unnest",
            "fetch",
            "distinct",
            "forward",
            "index-nl",
            "sort",
            "sort-spilling",
            "group-partial",
            "group-complete",
            "aggregate",
        ] {
            let (fused, head) = (run(name, false), run(name, true));
            assert!(!fused.is_empty(), "{name}");
            if name == "group-partial" {
                assert!(fused.len() > 10, "the budget flushes partial groups early");
            }
            if fused != head {
                differ.push(format!(
                    "{name}: {} rows fused, {} at the head",
                    fused.len(),
                    head.len()
                ));
            }
        }
        assert!(differ.is_empty(), "{differ:?}");

        // A LIMIT fused behind a sort stops its emission early: the select
        // between them sees a few tuples of the first emitted frame.
        let seen = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&seen);
        let mut job = JobSpec::new();
        let src = job.add(1, int_source("scan", 100_000));
        let sort = job.add(1, Arc::new(SortOp::new("k", vec![SortKey::field(0, true)])));
        let count = move |_: &Tuple| {
            counted.fetch_add(1, Ordering::Relaxed);
            Ok(true)
        };
        let counter = job.add(1, Arc::new(SelectOp::new("count", Arc::new(count))));
        let limit = job.add(1, Arc::new(LimitOp { limit: 3, offset: 0 }));
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::OneToOne, src, sort);
        job.connect(ConnectorKind::OneToOne, sort, counter);
        job.connect(ConnectorKind::OneToOne, counter, limit);
        job.connect(ConnectorKind::OneToOne, limit, sink);
        assert_eq!(job.fusion_plan().unwrap().total_threads(), 1);
        run_job(&job).unwrap();
        let got: Vec<i64> = collector.lock().iter().map(|t| t[0].as_i64().unwrap()).collect();
        assert_eq!(got, vec![99_999, 99_998, 99_997]);
        let n = seen.load(Ordering::Relaxed);
        assert!(n < 20_000, "the sort emitted {n} tuples after the limit was satisfied");

        // A LIMIT heading its pipeline stops its producer early: the
        // closed input port hangs up on the channel it reads.
        let emitted = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&emitted);
        let mut job = JobSpec::new();
        let src = job.add(
            1,
            Arc::new(SourceOp::new("scan", move |_p, _n, emit| {
                for i in 0..100_000i64 {
                    counted.fetch_add(1, Ordering::Relaxed);
                    emit(vec![Value::Int64(i)])?;
                }
                Ok(())
            })),
        );
        let limit = job.add(1, Arc::new(LimitOp { limit: 3, offset: 0 }));
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::MToNPartitioning { fields: vec![0] }, src, limit);
        job.connect(ConnectorKind::OneToOne, limit, sink);
        run_job_with(&job, &ExecutorConfig { frames_in_flight: 2, ..Default::default() }).unwrap();
        let got: Vec<i64> = collector.lock().iter().map(|t| t[0].as_i64().unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2]);
        let n = emitted.load(Ordering::Relaxed);
        assert!(n < 20_000, "producer emitted {n} tuples after the limit was satisfied");
    }

    /// A sort fused behind its producer records its spill runs under the
    /// span of the pipeline it rides.
    #[test]
    fn a_fused_sort_traces_its_spill_runs_under_the_pipeline_span() {
        let trace = asterix_obs::TraceContext::new_trace(4096);
        let root = trace.span("execute");
        let mut job = JobSpec::new();
        let src = job.add(1, int_source("scan", 2000));
        let sort =
            job.add(1, Arc::new(SortOp::new("k", vec![SortKey::field(0, true)]).with_budget(1024)));
        let (sink, collector) = collect_sink(&mut job);
        job.connect(ConnectorKind::OneToOne, src, sort);
        job.connect(ConnectorKind::OneToOne, sort, sink);
        let cfg = ExecutorConfig { trace: root.context(), ..Default::default() };
        run_job_with(&job, &cfg).unwrap();
        let root_id = root.span_id();
        root.finish();
        assert_eq!(collector.lock().len(), 2000);
        let events = trace.sink().unwrap().events();
        let pipelines: Vec<u64> = events
            .iter()
            .filter(|e| e.parent_id == root_id && !e.name.starts_with("op:"))
            .map(|e| e.span_id)
            .collect();
        let spills: Vec<&asterix_obs::TraceEvent> =
            events.iter().filter(|e| e.name == "sort.spill_run").collect();
        assert!(spills.len() > 1, "a 1 KiB budget spills runs: {events:#?}");
        for spill in spills {
            assert!(pipelines.contains(&spill.parent_id), "orphan spill span {spill:?}");
        }
    }

    /// A sort emits long after its last input frame was checked: the
    /// cancellation of its job, explicit or by deadline, still stops the
    /// emission — here by a select fused behind it, at its 10th tuple.
    #[test]
    fn a_cancelled_job_stops_a_fused_sort_emitting() {
        use asterix_rm::CancellationToken;
        use std::sync::atomic::{AtomicU64, Ordering};

        const N: i64 = 200_000;
        // At its 10th tuple the select cancels the token (`explicit`) or
        // waits out its deadline. Returns the job's outcome, the rows the
        // sink landed, and the time from the start of the job to the 10th
        // tuple, if the sort emitted one before the job was cancelled.
        let run = |token: CancellationToken, explicit: bool| {
            let started = Instant::now();
            let reached = Arc::new(Mutex::new(None));
            let seen = Arc::new(AtomicU64::new(0));
            let (cancel, at) = (token.clone(), Arc::clone(&reached));
            let mut job = JobSpec::new();
            let src = job.add(1, int_source("scan", N));
            let sort = job.add(1, Arc::new(SortOp::new("k", vec![SortKey::field(0, true)])));
            let wait = move |_: &crate::Tuple| {
                if seen.fetch_add(1, Ordering::Relaxed) + 1 == 10 {
                    *at.lock() = Some(started.elapsed());
                    if explicit {
                        cancel.cancel();
                    }
                    while !cancel.is_cancelled() {
                        thread::sleep(Duration::from_millis(1));
                    }
                }
                Ok(true)
            };
            let canceller = job.add(1, Arc::new(SelectOp::new("cancel", Arc::new(wait))));
            let (sink, collector) = collect_sink(&mut job);
            job.connect(ConnectorKind::OneToOne, src, sort);
            job.connect(ConnectorKind::OneToOne, sort, canceller);
            job.connect(ConnectorKind::OneToOne, canceller, sink);
            let cfg = ExecutorConfig { cancel: Some(token), ..Default::default() };
            let res = run_job_with(&job, &cfg);
            let rows = collector.lock().len();
            let reached = *reached.lock();
            (res, rows, reached)
        };

        let (res, rows, reached) = run(CancellationToken::new(), true);
        let reached = reached.expect("the sort emitted");
        assert!(matches!(res, Err(HyracksError::Cancelled)), "expected Cancelled, got {res:?}");
        assert!(rows < 20_000, "the sink landed {rows} of {N} rows after the cancel");

        // The deadline fires while the select waits at its 10th tuple: well
        // after the whole input was sorted, as the first run measured (a
        // host slow enough to be cancelled while sorting still passes).
        let deadline = CancellationToken::deadline_in(3 * reached + Duration::from_millis(100));
        let (res, rows, _) = run(deadline, false);
        assert!(matches!(res, Err(HyracksError::Cancelled)), "expected Cancelled, got {res:?}");
        assert!(rows < 20_000, "the sink landed {rows} of {N} rows after the deadline");
    }
}
