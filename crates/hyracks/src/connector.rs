//! Connectors redistribute data between operator partitions (§4.1).
//!
//! The six kinds from the paper are implemented: `OneToOne`,
//! `MToNReplicating`, `MToNPartitioning`, `LocalityAwareMToNPartitioning`,
//! `MToNPartitioningMerging`, and `HashPartitioningShuffle`. *Byte frames*
//! ([`Frame`] = [`crate::frame::FrameBuf`]) of serialized tuples move over
//! **bounded** `std::sync::mpsc::sync_channel`s sized by
//! [`ExchangeConfig::frames_in_flight`]: one per consumer partition, which
//! all its producers share, or one per (producer, consumer) pair for a
//! merging connector. A fast producer blocks once the frame budget is
//! reached and backpressure propagates upstream — peak exchange memory is
//! `O(channels × frames_in_flight × frame_bytes)` rather than
//! `O(dataset)`. A port takes encoded tuples only — one at a time
//! ([`OutputPort::push_encoded`]) or a frame at a time
//! ([`OutputPort::push_frame`]) — and receivers decode lazily at the
//! operator boundary. Hash routing reads the encoded key fields
//! (`hash_encoded_fields`, bit-identical to the decoded `hash_fields`). A
//! merging connector's receive side performs a streaming k-way merge over
//! the per-sender channels, comparing *encoded* tuples. Drained frames are
//! returned to a shared [`FramePool`] and reused by senders, so
//! steady-state exchange does no per-frame allocation.

use std::cmp::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, OnceLock};

use asterix_adm::TupleRef;
use asterix_obs::{Counter, Gauge, Histogram, MetricsRegistry, TraceContext};
use asterix_rm::CancellationToken;

use crate::frame::{hash_encoded_fields, Frame, FramePool, DEFAULT_FRAME_BYTES, FRAME_CAPACITY};
use crate::pipeline::PipelineOp;
use crate::profile::PortMeter;
use crate::{HyracksError, Result};

/// Comparator over *encoded* tuples, used by merging connectors and sorts.
/// Both arguments are offset-prefixed tuple encodings
/// (`asterix_adm::tuple`); implementations compare key bytes directly.
pub type Comparator = Arc<dyn Fn(&[u8], &[u8]) -> Ordering + Send + Sync>;

/// Counters for one job run's exchange activity, shared by every port.
///
/// `buffered_frames` is a gauge of frames handed to a channel (queued or
/// mid-send) and not yet received; its high-water mark proves the
/// bounded-memory claim: with `frames_in_flight = F`, a channel never holds
/// more than `F` frames (capacity `F - 1` queued plus one in a blocked
/// sender's hand). `bytes_sent` sums the exact frame occupancy (tuple data
/// plus slot directory) of every delivered frame — a measurement, not an
/// estimate.
#[derive(Debug)]
pub struct ExchangeStats {
    frames_sent: Counter,
    tuples_sent: Counter,
    bytes_sent: Counter,
    backpressure_stalls: Counter,
    buffered_frames: Gauge,
    /// Operator-partition pipelines that ran fused (chains of length ≥ 2)
    /// in the most recent job on this exchange.
    pipelines_fused: Gauge,
    /// Threads the most recent job did NOT spawn thanks to fusion: the
    /// one-thread-per-(operator, partition) count minus the pipeline count.
    fusion_saved_threads: Gauge,
    /// Threads spawned by every job so far: a job's pipeline count minus
    /// the one its caller runs. A one-pipeline job adds nothing.
    threads_spawned: Counter,
    /// Wall time each pipeline spent in its run body (µs).
    pipeline_busy_us: Histogram,
}

impl Default for ExchangeStats {
    fn default() -> Self {
        ExchangeStats {
            frames_sent: Counter::new(),
            tuples_sent: Counter::new(),
            bytes_sent: Counter::new(),
            backpressure_stalls: Counter::new(),
            buffered_frames: Gauge::new(),
            pipelines_fused: Gauge::new(),
            fusion_saved_threads: Gauge::new(),
            threads_spawned: Counter::new(),
            pipeline_busy_us: Histogram::duration_us(),
        }
    }
}

impl ExchangeStats {
    pub fn new() -> ExchangeStats {
        ExchangeStats::default()
    }

    /// A frame is being handed to a channel (before the send completes, so
    /// the gauge over-counts rather than under-counts in-flight memory).
    fn on_enqueue(&self) {
        self.buffered_frames.add(1);
    }

    fn on_send_ok(&self, tuples: u64, bytes: u64) {
        self.frames_sent.inc();
        self.tuples_sent.add(tuples);
        self.bytes_sent.add(bytes);
    }

    /// The send failed (receiver gone): undo the gauge increment.
    fn on_send_fail(&self) {
        self.buffered_frames.sub(1);
    }

    fn on_stall(&self) {
        self.backpressure_stalls.inc();
    }

    fn on_recv(&self) {
        self.buffered_frames.sub(1);
    }

    /// Record the fusion outcome of a job: how many operator-partition
    /// pipelines ran fused and how many threads that saved versus the
    /// one-thread-per-(operator, partition) baseline. Gauges reflect the
    /// most recent job; peaks track the high-water mark.
    pub(crate) fn on_job_fusion(&self, pipelines_fused: i64, saved_threads: i64) {
        self.pipelines_fused.set(pipelines_fused);
        self.fusion_saved_threads.set(saved_threads);
    }

    /// Record the threads a job spawned (its pipelines but the caller's).
    pub(crate) fn on_threads_spawned(&self, n: u64) {
        self.threads_spawned.add(n);
    }

    /// Record one pipeline's busy time.
    pub(crate) fn on_pipeline_done(&self, busy: std::time::Duration) {
        self.pipeline_busy_us.record_duration(busy);
    }

    /// Frames delivered to channels so far.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.get()
    }

    /// Tuples delivered to channels so far.
    pub fn tuples_sent(&self) -> u64 {
        self.tuples_sent.get()
    }

    /// Exact wire bytes delivered to channels so far: the summed
    /// [`Frame::occupancy`] of every sent frame.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.get()
    }

    /// Times a sender found its channel full and had to block.
    pub fn backpressure_stalls(&self) -> u64 {
        self.backpressure_stalls.get()
    }

    /// Frames currently in flight (sent, not yet received).
    pub fn buffered_frames(&self) -> i64 {
        self.buffered_frames.get()
    }

    /// High-water mark of `buffered_frames` over the run.
    pub fn peak_buffered_frames(&self) -> i64 {
        self.buffered_frames.peak()
    }

    /// Operator-partition pipelines that ran fused in the most recent job.
    pub fn pipelines_fused(&self) -> i64 {
        self.pipelines_fused.get()
    }

    /// Threads the most recent job avoided spawning thanks to fusion.
    pub fn fusion_saved_threads(&self) -> i64 {
        self.fusion_saved_threads.get()
    }

    /// Threads spawned by every job so far (the caller's own pipeline of
    /// each job is not one).
    pub fn threads_spawned(&self) -> u64 {
        self.threads_spawned.get()
    }

    /// Per-pipeline busy-time histogram (µs).
    pub fn pipeline_busy_us(&self) -> &Histogram {
        &self.pipeline_busy_us
    }

    /// Adopt this bundle's handles into a [`MetricsRegistry`] under
    /// `{prefix}.*` names. The counters stay live — the registry snapshot
    /// and the legacy accessors read the same atomics.
    pub fn register_into(&self, reg: &MetricsRegistry, prefix: &str) {
        reg.register_counter(&format!("{prefix}.frames_sent"), &self.frames_sent);
        reg.register_counter(&format!("{prefix}.tuples_sent"), &self.tuples_sent);
        reg.register_counter(&format!("{prefix}.bytes_sent"), &self.bytes_sent);
        reg.register_counter(&format!("{prefix}.backpressure_stalls"), &self.backpressure_stalls);
        reg.register_gauge(&format!("{prefix}.buffered_frames"), &self.buffered_frames);
        reg.register_gauge(&format!("{prefix}.pipelines_fused"), &self.pipelines_fused);
        reg.register_gauge(&format!("{prefix}.fusion_saved_threads"), &self.fusion_saved_threads);
        reg.register_counter(&format!("{prefix}.threads_spawned"), &self.threads_spawned);
        reg.register_histogram(&format!("{prefix}.pipeline_busy_us"), &self.pipeline_busy_us);
    }
}

/// Exchange-layer settings threaded through [`wire`] into every port.
#[derive(Clone)]
pub struct ExchangeConfig {
    /// Per-channel bound on frames in flight (queued plus one mid-send).
    /// Minimum 1 (a rendezvous channel: every send waits for its receive).
    pub frames_in_flight: usize,
    /// Flush a frame once it holds this many tuples.
    pub tuples_per_frame: usize,
    /// Flush a frame once its occupancy reaches this many bytes.
    pub frame_bytes: usize,
    /// Shared counters for the run.
    pub stats: Arc<ExchangeStats>,
    /// Shared frame-recycling pool for the run.
    pub pool: Arc<FramePool>,
    /// Cooperative cancellation token for the job, checked at every port
    /// push and frame receive so a cancelled query unwinds at frame
    /// granularity. `None` (the default) means the job is uncancellable.
    pub cancel: Option<CancellationToken>,
    /// Tracing handle for the job; ports record `exchange.send_block`
    /// spans under it when backpressure blocks a send. Disabled by
    /// default; the executor swaps in a per-thread labelled context.
    pub trace: TraceContext,
    /// Live tuple-progress counter for the job (the RM jobs table's view);
    /// bumped once per delivered frame's tuple count.
    pub progress: Option<Counter>,
}

impl Default for ExchangeConfig {
    fn default() -> Self {
        ExchangeConfig {
            frames_in_flight: 8,
            tuples_per_frame: FRAME_CAPACITY,
            frame_bytes: DEFAULT_FRAME_BYTES,
            stats: Arc::new(ExchangeStats::new()),
            pool: Arc::new(FramePool::new()),
            cancel: None,
            trace: TraceContext::disabled(),
            progress: None,
        }
    }
}

impl ExchangeConfig {
    fn channel(&self) -> (SyncSender<Frame>, Receiver<Frame>) {
        // Capacity F-1 so queued + one frame in a blocked sender's hand
        // never exceeds frames_in_flight. F=1 is a rendezvous channel.
        sync_channel(self.frames_in_flight.max(1) - 1)
    }
}

/// The connector kinds of §4.1.
#[derive(Clone)]
pub enum ConnectorKind {
    /// Partition i → partition i; requires equal partition counts. No data
    /// movement — the pipelined fast path highlighted in Figure 6.
    OneToOne,
    /// Every source partition sends every frame to every destination
    /// partition (used e.g. to feed a 1-partition global aggregator).
    MToNReplicating,
    /// Hash partitioning on the given tuple fields.
    MToNPartitioning { fields: Vec<usize> },
    /// Hash partitioning that keeps data on the same node when the
    /// destination has partitions there (one network hop saved per §4.1's
    /// operator library).
    LocalityAwareMToNPartitioning { fields: Vec<usize> },
    /// Hash partitioning whose receive side merges the per-sender streams
    /// by a sort order, preserving sortedness across repartitioning.
    MToNPartitioningMerging { fields: Vec<usize>, comparator: Comparator },
    /// Alias of hash partitioning used for shuffle stages.
    HashPartitioningShuffle { fields: Vec<usize> },
}

impl ConnectorKind {
    /// Display name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            ConnectorKind::OneToOne => "OneToOneConnector",
            ConnectorKind::MToNReplicating => "MToNReplicatingConnector",
            ConnectorKind::MToNPartitioning { .. } => "MToNPartitioningConnector",
            ConnectorKind::LocalityAwareMToNPartitioning { .. } => {
                "LocalityAwareMToNPartitioningConnector"
            }
            ConnectorKind::MToNPartitioningMerging { .. } => "MToNPartitioningMergingConnector",
            ConnectorKind::HashPartitioningShuffle { .. } => "HashPartitioningShuffle",
        }
    }
}

impl std::fmt::Debug for ConnectorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The stats and pool of a port with no channel — a discard sink, a fused
/// port, an empty input. Such a port never sends, receives or recycles a
/// frame, so it touches neither, and every one of them shares this pair
/// instead of allocating its own per job.
fn inert() -> (Arc<ExchangeStats>, Arc<FramePool>) {
    static INERT: OnceLock<(Arc<ExchangeStats>, Arc<FramePool>)> = OnceLock::new();
    INERT.get_or_init(Default::default).clone()
}

/// How an output port routes each tuple.
enum RouteStrategy {
    /// All tuples to one fixed destination channel.
    Fixed(usize),
    /// Hash of fields modulo destination count.
    Hash(Vec<usize>),
    /// Hash of fields within the sender's node group when possible.
    LocalityAware { fields: Vec<usize>, group: Vec<usize> },
    /// Every tuple to every destination.
    Replicate,
}

/// The sending half of one connector for one source partition.
pub struct OutputPort {
    senders: Vec<SyncSender<Frame>>,
    buffers: Vec<Frame>,
    /// Destinations whose receiver has hung up; sends to them are skipped.
    dead: Vec<bool>,
    strategy: RouteStrategy,
    stats: Arc<ExchangeStats>,
    pool: Arc<FramePool>,
    tuples_per_frame: usize,
    frame_bytes: usize,
    /// Per-operator profiling meter (attached only on profiled runs).
    meter: Option<Arc<PortMeter>>,
    /// When set, this port bypasses the exchange entirely: every tuple is
    /// handed synchronously to the fused downstream chain. `senders` and
    /// `buffers` are empty, and metering lives inside the chain's
    /// [`crate::pipeline::FusedEdge`] adapters, not on this port.
    fused: Option<Box<dyn PipelineOp>>,
    /// The fused chain's `finish` has run (it must run exactly once).
    fused_done: bool,
    /// Job cancellation token, checked on every push.
    cancel: Option<CancellationToken>,
    /// Trace context for send-block spans (disabled unless profiled).
    trace: TraceContext,
    /// Job-wide tuple-progress counter (live views), if any.
    progress: Option<Counter>,
}

impl OutputPort {
    fn new(
        senders: Vec<SyncSender<Frame>>,
        strategy: RouteStrategy,
        xcfg: &ExchangeConfig,
    ) -> OutputPort {
        let n = senders.len();
        OutputPort {
            senders,
            buffers: (0..n).map(|_| xcfg.pool.take()).collect(),
            dead: vec![false; n],
            strategy,
            stats: Arc::clone(&xcfg.stats),
            pool: Arc::clone(&xcfg.pool),
            tuples_per_frame: xcfg.tuples_per_frame.max(1),
            frame_bytes: xcfg.frame_bytes.max(1),
            meter: None,
            fused: None,
            fused_done: false,
            cancel: xcfg.cancel.clone(),
            trace: xcfg.trace.clone(),
            progress: xcfg.progress.clone(),
        }
    }

    /// A port that discards everything (for dangling outputs).
    pub fn sink() -> OutputPort {
        let (stats, pool) = inert();
        OutputPort {
            senders: Vec::new(),
            buffers: Vec::new(),
            dead: Vec::new(),
            strategy: RouteStrategy::Replicate,
            stats,
            pool,
            tuples_per_frame: FRAME_CAPACITY,
            frame_bytes: DEFAULT_FRAME_BYTES,
            meter: None,
            fused: None,
            fused_done: false,
            cancel: None,
            trace: TraceContext::disabled(),
            progress: None,
        }
    }

    /// A port backed by a fused pipeline chain instead of channels: pushes
    /// go straight into `chain` on the caller's thread. The token makes the
    /// head of the chain a cancellation point, matching channel-backed
    /// ports (the chain's tail `PortSink` re-checks on its real port).
    pub(crate) fn fused(
        chain: Box<dyn PipelineOp>,
        cancel: Option<CancellationToken>,
    ) -> OutputPort {
        let mut port = OutputPort::sink();
        port.fused = Some(chain);
        port.cancel = cancel;
        port
    }

    /// Attach a profiling meter counting tuples/frames/bytes emitted
    /// through this port.
    pub(crate) fn set_meter(&mut self, meter: Arc<PortMeter>) {
        self.meter = Some(meter);
    }

    /// Swap in the executor thread's labelled trace context (send-block
    /// spans recorded on this port become children of the thread's span).
    pub(crate) fn set_trace(&mut self, trace: TraceContext) {
        self.trace = trace;
    }

    fn all_dead(&self) -> bool {
        !self.dead.is_empty() && self.dead.iter().all(|&d| d)
    }

    /// True once the job's cancellation token has fired. Plain tokens cost
    /// one relaxed load; an un-fired deadline token also reads the clock.
    fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
    }

    /// Hand one frame to channel `j`, blocking if the frame budget is
    /// exhausted. Returns `false` (after recycling the frame) when the
    /// receiver has hung up.
    fn send_frame(&mut self, j: usize, frame: Frame) -> bool {
        if self.dead[j] || frame.is_empty() {
            self.pool.give(frame);
            return !self.dead[j];
        }
        let tuples = frame.tuple_count() as u64;
        let bytes = frame.occupancy() as u64;
        self.stats.on_enqueue();
        let undeliverable = match self.senders[j].try_send(frame) {
            Ok(()) => None,
            Err(TrySendError::Full(frame)) => {
                self.stats.on_stall();
                let block = self.trace.span("exchange.send_block");
                match self.senders[j].send(frame) {
                    Ok(()) => {
                        block.finish();
                        None
                    }
                    Err(e) => Some(e.0),
                }
            }
            Err(TrySendError::Disconnected(frame)) => Some(frame),
        };
        match undeliverable {
            None => {
                self.stats.on_send_ok(tuples, bytes);
                if let Some(m) = &self.meter {
                    m.frames.inc();
                    m.bytes.add(bytes);
                }
                if let Some(p) = &self.progress {
                    p.add(tuples);
                }
                true
            }
            Some(frame) => {
                self.stats.on_send_fail();
                self.pool.give(frame);
                self.dead[j] = true;
                false
            }
        }
    }

    /// Emit one encoded tuple into its destination's frame. Returns
    /// [`HyracksError::DownstreamClosed`] once every destination's receiver
    /// has hung up (e.g. a downstream LIMIT finished), so the producer can
    /// stop instead of computing data nobody will read.
    pub fn push_encoded(&mut self, bytes: &[u8]) -> Result<()> {
        if self.is_cancelled() {
            return Err(HyracksError::Cancelled);
        }
        if let Some(chain) = &mut self.fused {
            return chain.push(bytes);
        }
        self.route(bytes)
    }

    /// Emit a whole frame of encoded tuples — the vectorized producer path.
    /// One cancellation check covers the batch. Fixed-destination and
    /// replicating routes append the frame with a single bulk copy per
    /// destination ([`Frame::append_frame`]); hash routes still place each
    /// tuple individually (routing is inherently per tuple).
    pub fn push_frame(&mut self, frame: &Frame) -> Result<()> {
        if self.is_cancelled() {
            return Err(HyracksError::Cancelled);
        }
        if let Some(chain) = &mut self.fused {
            return chain.push_frame(frame);
        }
        if frame.is_empty() {
            return Ok(());
        }
        match &self.strategy {
            RouteStrategy::Fixed(j) => {
                let j = *j;
                if let Some(m) = &self.meter {
                    m.tuples.add(frame.tuple_count() as u64);
                }
                self.bulk_to(j, frame)
            }
            RouteStrategy::Replicate => {
                if let Some(m) = &self.meter {
                    m.tuples.add(frame.tuple_count() as u64);
                }
                for j in 0..self.senders.len() {
                    self.bulk_to(j, frame)?;
                }
                Ok(())
            }
            RouteStrategy::Hash(_) | RouteStrategy::LocalityAware { .. } => {
                for bytes in frame.iter() {
                    self.route(bytes)?;
                }
                Ok(())
            }
        }
    }

    /// Bulk-append `frame` to destination `j`'s buffer, sending when a
    /// flush threshold is crossed — [`OutputPort::buffer_to`] at frame
    /// granularity.
    fn bulk_to(&mut self, j: usize, frame: &Frame) -> Result<()> {
        if self.senders.is_empty() {
            return Ok(());
        }
        if self.dead[j] {
            return if self.all_dead() { Err(HyracksError::DownstreamClosed) } else { Ok(()) };
        }
        self.buffers[j].append_frame(frame);
        if self.buffers[j].tuple_count() >= self.tuples_per_frame
            || self.buffers[j].occupancy() >= self.frame_bytes
        {
            let out = std::mem::replace(&mut self.buffers[j], self.pool.take());
            if !self.send_frame(j, out) && self.all_dead() {
                return Err(HyracksError::DownstreamClosed);
            }
        }
        Ok(())
    }

    fn route(&mut self, bytes: &[u8]) -> Result<()> {
        if let Some(m) = &self.meter {
            m.tuples.inc();
        }
        if matches!(self.strategy, RouteStrategy::Replicate) {
            // One serialization, appended to every destination's frame —
            // replication no longer clones the tuple per destination.
            for j in 0..self.senders.len() {
                self.buffer_to(j, bytes)?;
            }
            return Ok(());
        }
        let n = self.senders.len().max(1) as u64;
        let j = match &self.strategy {
            RouteStrategy::Fixed(j) => *j,
            RouteStrategy::Hash(fields) => {
                (hash_encoded_fields(&TupleRef::new(bytes)?, fields) % n) as usize
            }
            RouteStrategy::LocalityAware { fields, group } => {
                let h = hash_encoded_fields(&TupleRef::new(bytes)?, fields);
                group[(h % group.len() as u64) as usize]
            }
            RouteStrategy::Replicate => unreachable!(),
        };
        self.buffer_to(j, bytes)
    }

    fn buffer_to(&mut self, j: usize, bytes: &[u8]) -> Result<()> {
        if self.senders.is_empty() {
            return Ok(());
        }
        if self.dead[j] {
            // This destination is gone; its share of the data has no
            // consumer. Only when *every* destination is gone does the
            // producer get told to stop.
            return if self.all_dead() { Err(HyracksError::DownstreamClosed) } else { Ok(()) };
        }
        self.buffers[j].push_encoded(bytes);
        if self.buffers[j].tuple_count() >= self.tuples_per_frame
            || self.buffers[j].occupancy() >= self.frame_bytes
        {
            let frame = std::mem::replace(&mut self.buffers[j], self.pool.take());
            if !self.send_frame(j, frame) && self.all_dead() {
                return Err(HyracksError::DownstreamClosed);
            }
        }
        Ok(())
    }

    /// Flush remaining buffered tuples. Called automatically when the
    /// operator finishes (executor drops the port), but operators may flush
    /// early to bound latency (feeds do). Returns
    /// [`HyracksError::DownstreamClosed`] when every destination has hung
    /// up — explicit callers can stop early; the `Drop` path ignores it.
    pub fn flush(&mut self) -> Result<()> {
        if let Some(chain) = &mut self.fused {
            return chain.flush();
        }
        for j in 0..self.senders.len() {
            if !self.buffers[j].is_empty() {
                let frame = std::mem::take(&mut self.buffers[j]);
                self.send_frame(j, frame);
            }
        }
        if self.all_dead() {
            Err(HyracksError::DownstreamClosed)
        } else {
            Ok(())
        }
    }

    /// End of stream: run a fused port's chain `finish` exactly once
    /// (emitting buffered downstream state and flushing the tail's real
    /// port), or flush a channel-backed port's partial frames — whose
    /// disconnect still happens on drop.
    pub(crate) fn finish(&mut self) -> Result<()> {
        match &mut self.fused {
            Some(_) if self.fused_done => Ok(()),
            Some(chain) => {
                self.fused_done = true;
                chain.finish()
            }
            None => self.flush(),
        }
    }
}

impl Drop for OutputPort {
    fn drop(&mut self) {
        // Backstop: the executor finishes every port explicitly; if the
        // operator body bailed before that, still finish a fused chain so
        // buffered results reach the real tail port.
        let _ = self.finish();
    }
}

/// How an input port combines multiple incoming channels.
enum InputMode {
    /// Take frames in arrival order from the port's one channel.
    Any,
    /// K-way merge of sorted per-sender streams, comparing encoded tuples.
    Merge(Comparator),
}

/// Merge-mode read position within one sender's current frame.
struct MergeCursor {
    frame: Frame,
    idx: usize,
}

/// The receiving half of one connector for one destination partition.
pub struct InputPort {
    receivers: Vec<Receiver<Frame>>,
    mode: InputMode,
    /// Merge-mode lookahead: the current frame of each sender, read in
    /// place — tuples are compared and handed out as borrowed slices.
    lookahead: Vec<Option<MergeCursor>>,
    exhausted: Vec<bool>,
    stats: Arc<ExchangeStats>,
    pool: Arc<FramePool>,
    /// Per-operator profiling meter (attached only on profiled runs).
    meter: Option<Arc<PortMeter>>,
    /// Job cancellation token, checked at frame granularity while reading.
    cancel: Option<CancellationToken>,
}

impl InputPort {
    fn new(receivers: Vec<Receiver<Frame>>, mode: InputMode, xcfg: &ExchangeConfig) -> InputPort {
        let n = receivers.len();
        debug_assert!(n == 1 || matches!(mode, InputMode::Merge(_)), "an Any port has one channel");
        InputPort {
            receivers,
            mode,
            lookahead: (0..n).map(|_| None).collect(),
            exhausted: vec![false; n],
            stats: Arc::clone(&xcfg.stats),
            pool: Arc::clone(&xcfg.pool),
            meter: None,
            cancel: xcfg.cancel.clone(),
        }
    }

    /// Attach a profiling meter counting tuples/frames/bytes arriving at
    /// this port.
    pub(crate) fn set_meter(&mut self, meter: Arc<PortMeter>) {
        self.meter = Some(meter);
    }

    /// Account one received frame against the run gauge and, when
    /// profiling, this port's meter. Bytes are the exact frame occupancy.
    fn note_frame(&self, frame: &Frame) {
        self.stats.on_recv();
        if let Some(m) = &self.meter {
            m.frames.inc();
            m.tuples.add(frame.tuple_count() as u64);
            m.bytes.add(frame.occupancy() as u64);
        }
    }

    /// Receive the next frame (Any mode) — `None` at end of stream. [`wire`]
    /// gives an arrival-order port exactly one channel, which every sender
    /// shares, so this is one blocking `recv`.
    fn recv_any(&mut self) -> Option<Frame> {
        let rx = self.receivers.first().filter(|_| !self.exhausted[0])?;
        match rx.recv() {
            Ok(f) => {
                self.note_frame(&f);
                Some(f)
            }
            Err(_) => {
                self.exhausted[0] = true;
                None
            }
        }
    }

    fn refill(&mut self, i: usize) {
        while self.lookahead[i].is_none() && !self.exhausted[i] {
            match self.receivers[i].recv() {
                Ok(frame) => {
                    self.note_frame(&frame);
                    if frame.is_empty() {
                        self.pool.give(frame);
                    } else {
                        self.lookahead[i] = Some(MergeCursor { frame, idx: 0 });
                    }
                }
                Err(_) => self.exhausted[i] = true,
            }
        }
    }

    /// The sender whose current head tuple is smallest (merge mode).
    fn best_source(&mut self, cmp: &Comparator) -> Option<usize> {
        for i in 0..self.receivers.len() {
            self.refill(i);
        }
        let mut best: Option<usize> = None;
        for i in 0..self.receivers.len() {
            let Some(cur) = &self.lookahead[i] else { continue };
            match best {
                None => best = Some(i),
                Some(b) => {
                    let bb = self.lookahead[b].as_ref().unwrap();
                    if cmp(cur.frame.tuple_bytes(cur.idx), bb.frame.tuple_bytes(bb.idx))
                        == Ordering::Less
                    {
                        best = Some(i);
                    }
                }
            }
        }
        best
    }

    /// Step sender `i` past its head tuple, recycling finished frames.
    fn advance(&mut self, i: usize) {
        let done = match &mut self.lookahead[i] {
            Some(cur) => {
                cur.idx += 1;
                cur.idx >= cur.frame.tuple_count()
            }
            None => false,
        };
        if done {
            let cur = self.lookahead[i].take().unwrap();
            self.pool.give(cur.frame);
        }
    }

    /// Drain the port frame-at-a-time — the port's one reader. In
    /// arrival-order mode each received frame is handed to `f` whole (no
    /// per-tuple dispatch at all); in merge mode the merged stream is
    /// re-batched into a scratch frame so `f` still sees order-preserving
    /// batches. Stops early (and discards the rest) if `f` returns `false`.
    pub fn for_each_frame(&mut self, mut f: impl FnMut(&Frame) -> Result<bool>) -> Result<()> {
        match &self.mode {
            InputMode::Any => {
                while let Some(frame) = self.recv_any() {
                    // Blocking stages (sorts, join builds) consume whole
                    // inputs before pushing anything, so the read side is a
                    // cancellation point too — at frame granularity, before
                    // more work is invested in the frame's tuples.
                    if self.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                        self.pool.give(frame);
                        self.drain();
                        return Err(HyracksError::Cancelled);
                    }
                    let keep = f(&frame);
                    self.pool.give(frame);
                    match keep {
                        Ok(true) => {}
                        Ok(false) => {
                            self.drain();
                            return Ok(());
                        }
                        Err(e) => return Err(e),
                    }
                }
                Ok(())
            }
            InputMode::Merge(cmp) => {
                let cmp = Arc::clone(cmp);
                let mut scratch = Frame::new();
                loop {
                    if self.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                        self.drain();
                        return Err(HyracksError::Cancelled);
                    }
                    let Some(i) = self.best_source(&cmp) else { break };
                    let cur = self.lookahead[i].as_ref().unwrap();
                    scratch.push_encoded(cur.frame.tuple_bytes(cur.idx));
                    self.advance(i);
                    if scratch.tuple_count() >= FRAME_CAPACITY {
                        if !f(&scratch)? {
                            self.drain();
                            return Ok(());
                        }
                        scratch.clear();
                    }
                }
                if !scratch.is_empty() {
                    f(&scratch)?;
                }
                Ok(())
            }
        }
    }

    /// Consume and discard what is currently queued, recycle the frames,
    /// and mark the port exhausted. With bounded channels this also opens
    /// queue space so blocked senders make progress until the port is
    /// dropped (which disconnects the channels and wakes them for good).
    pub fn drain(&mut self) {
        for i in 0..self.receivers.len() {
            while let Ok(f) = self.receivers[i].try_recv() {
                self.note_frame(&f);
                self.pool.give(f);
            }
            self.exhausted[i] = true;
        }
        for slot in self.lookahead.iter_mut() {
            if let Some(cur) = slot.take() {
                self.pool.give(cur.frame);
            }
        }
    }
}

impl Drop for InputPort {
    fn drop(&mut self) {
        // Keep the in-flight gauge honest: account for frames still queued
        // when the consumer exits early.
        self.drain();
    }
}

/// Build the channel fabric for one connector between `n_src` source and
/// `n_dst` destination partitions. Returns (per-source output ports,
/// per-destination input ports).
///
/// `node_of` maps a partition index to its (simulated) node id, used by the
/// locality-aware connector. `xcfg` supplies the frames-in-flight bound and
/// the shared stats/pool for the run.
pub fn wire(
    kind: &ConnectorKind,
    n_src: usize,
    n_dst: usize,
    node_of: &dyn Fn(usize) -> usize,
    xcfg: &ExchangeConfig,
) -> Result<(Vec<OutputPort>, Vec<InputPort>)> {
    match kind {
        ConnectorKind::OneToOne => {
            if n_src != n_dst {
                return Err(crate::HyracksError::InvalidJob(format!(
                    "OneToOne connector between {n_src} and {n_dst} partitions"
                )));
            }
            let mut outs = Vec::with_capacity(n_src);
            let mut ins = Vec::with_capacity(n_dst);
            for _ in 0..n_src {
                let (tx, rx) = xcfg.channel();
                outs.push(OutputPort::new(vec![tx], RouteStrategy::Fixed(0), xcfg));
                ins.push(InputPort::new(vec![rx], InputMode::Any, xcfg));
            }
            Ok((outs, ins))
        }
        ConnectorKind::MToNReplicating => {
            let (txs, rxs): (Vec<_>, Vec<_>) = (0..n_dst).map(|_| xcfg.channel()).unzip();
            let outs = (0..n_src)
                .map(|_| OutputPort::new(txs.clone(), RouteStrategy::Replicate, xcfg))
                .collect();
            let ins =
                rxs.into_iter().map(|rx| InputPort::new(vec![rx], InputMode::Any, xcfg)).collect();
            Ok((outs, ins))
        }
        ConnectorKind::MToNPartitioning { fields }
        | ConnectorKind::HashPartitioningShuffle { fields } => {
            let (txs, rxs): (Vec<_>, Vec<_>) = (0..n_dst).map(|_| xcfg.channel()).unzip();
            let outs = (0..n_src)
                .map(|_| OutputPort::new(txs.clone(), RouteStrategy::Hash(fields.clone()), xcfg))
                .collect();
            let ins =
                rxs.into_iter().map(|rx| InputPort::new(vec![rx], InputMode::Any, xcfg)).collect();
            Ok((outs, ins))
        }
        ConnectorKind::LocalityAwareMToNPartitioning { fields } => {
            let (txs, rxs): (Vec<_>, Vec<_>) = (0..n_dst).map(|_| xcfg.channel()).unzip();
            let outs = (0..n_src)
                .map(|p| {
                    // Destinations on the same node as source partition p,
                    // falling back to all destinations.
                    let my_node = node_of(p);
                    let local: Vec<usize> = (0..n_dst).filter(|&j| node_of(j) == my_node).collect();
                    let group = if local.is_empty() { (0..n_dst).collect() } else { local };
                    OutputPort::new(
                        txs.clone(),
                        RouteStrategy::LocalityAware { fields: fields.clone(), group },
                        xcfg,
                    )
                })
                .collect();
            let ins =
                rxs.into_iter().map(|rx| InputPort::new(vec![rx], InputMode::Any, xcfg)).collect();
            Ok((outs, ins))
        }
        ConnectorKind::MToNPartitioningMerging { fields, comparator } => {
            // One channel per (src, dst) pair so the receiver can merge the
            // sorted per-sender streams.
            let mut per_dst_rxs: Vec<Vec<Receiver<Frame>>> =
                (0..n_dst).map(|_| Vec::with_capacity(n_src)).collect();
            let mut per_src_txs: Vec<Vec<SyncSender<Frame>>> =
                (0..n_src).map(|_| Vec::with_capacity(n_dst)).collect();
            for txs in per_src_txs.iter_mut() {
                for rxs in per_dst_rxs.iter_mut() {
                    let (tx, rx) = xcfg.channel();
                    txs.push(tx);
                    rxs.push(rx);
                }
            }
            let outs = per_src_txs
                .into_iter()
                .map(|txs| OutputPort::new(txs, RouteStrategy::Hash(fields.clone()), xcfg))
                .collect();
            let ins = per_dst_rxs
                .into_iter()
                .map(|rxs| InputPort::new(rxs, InputMode::Merge(Arc::clone(comparator)), xcfg))
                .collect();
            Ok((outs, ins))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{hash_fields, Tuple};
    use crate::ops::{sort_comparator, SortKey};
    use crate::pipeline::testing::read_all;
    use asterix_adm::{encode_tuple, Value};

    fn t(i: i64) -> Tuple {
        vec![Value::Int64(i)]
    }

    fn xcfg() -> ExchangeConfig {
        ExchangeConfig::default()
    }

    #[test]
    fn one_to_one_preserves_partition() {
        let (mut outs, ins) = wire(&ConnectorKind::OneToOne, 2, 2, &|_| 0, &xcfg()).unwrap();
        outs[0].push_encoded(&encode_tuple(&t(0))).unwrap();
        outs[1].push_encoded(&encode_tuple(&t(1))).unwrap();
        drop(outs);
        for (i, mut port) in ins.into_iter().enumerate() {
            let got = read_all(&mut port).unwrap();
            assert_eq!(got, vec![t(i as i64)]);
        }
    }

    #[test]
    fn one_to_one_arity_mismatch_rejected() {
        assert!(wire(&ConnectorKind::OneToOne, 2, 3, &|_| 0, &xcfg()).is_err());
    }

    #[test]
    fn partitioning_routes_by_hash() {
        let kind = ConnectorKind::MToNPartitioning { fields: vec![0] };
        let (mut outs, ins) = wire(&kind, 2, 4, &|_| 0, &xcfg()).unwrap();
        for i in 0..100 {
            outs[(i % 2) as usize].push_encoded(&encode_tuple(&t(i))).unwrap();
        }
        drop(outs);
        let mut total = 0;
        let mut per_part: Vec<Vec<i64>> = Vec::new();
        for mut port in ins {
            let got = read_all(&mut port).unwrap();
            total += got.len();
            per_part.push(got.iter().map(|t| t[0].as_i64().unwrap()).collect());
        }
        assert_eq!(total, 100);
        // Same key always lands in the same partition: re-send key 7.
        let (mut outs2, ins2) = wire(&kind, 1, 4, &|_| 0, &xcfg()).unwrap();
        outs2[0].push_encoded(&encode_tuple(&t(7))).unwrap();
        drop(outs2);
        let landed: Vec<usize> = ins2
            .into_iter()
            .enumerate()
            .filter_map(|(i, mut p)| (!read_all(&mut p).unwrap().is_empty()).then_some(i))
            .collect();
        assert_eq!(landed.len(), 1);
        assert!(per_part[landed[0]].contains(&7));
    }

    #[test]
    fn encoded_and_decoded_pushes_route_identically() {
        // The port routes by the byte-level hash, which is bit-identical to
        // the decoded one: every tuple lands where the decoded `hash_fields`
        // sends it, whatever the width of its number.
        let kind = ConnectorKind::MToNPartitioning { fields: vec![0] };
        let (mut outs, ins) = wire(&kind, 1, 4, &|_| 0, &xcfg()).unwrap();
        for i in 0..50 {
            outs[0].push_encoded(&encode_tuple(&t(i))).unwrap();
            outs[0].push_encoded(&encode_tuple(&[Value::Int32(i as i32)])).unwrap();
        }
        drop(outs);
        let mut total = 0;
        for (j, mut port) in ins.into_iter().enumerate() {
            let got = read_all(&mut port).unwrap();
            total += got.len();
            for row in &got {
                assert_eq!(hash_fields(row, &[0]) % 4, j as u64, "{row:?} misrouted");
            }
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn replicating_duplicates() {
        let (mut outs, ins) = wire(&ConnectorKind::MToNReplicating, 2, 3, &|_| 0, &xcfg()).unwrap();
        outs[0].push_encoded(&encode_tuple(&t(1))).unwrap();
        outs[1].push_encoded(&encode_tuple(&t(2))).unwrap();
        drop(outs);
        for mut port in ins {
            let mut got: Vec<i64> =
                read_all(&mut port).unwrap().iter().map(|t| t[0].as_i64().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, vec![1, 2]);
        }
    }

    #[test]
    fn merging_connector_preserves_order() {
        // The real jobgen comparator: encoded-key bytes on field 0.
        let cmp: Comparator = sort_comparator(&[SortKey::field(0, false)]);
        let kind = ConnectorKind::MToNPartitioningMerging { fields: vec![], comparator: cmp };
        // fields=[] → every tuple hashes identically → all to dst 0.
        let (mut outs, mut ins) = wire(&kind, 3, 1, &|_| 0, &xcfg()).unwrap();
        // Each source emits a sorted run.
        for (s, base) in [(0usize, 0i64), (1, 1), (2, 2)] {
            for i in 0..10 {
                outs[s].push_encoded(&encode_tuple(&t(base + i * 3))).unwrap();
            }
        }
        drop(outs);
        let got: Vec<i64> =
            read_all(&mut ins[0]).unwrap().iter().map(|t| t[0].as_i64().unwrap()).collect();
        let expect: Vec<i64> = (0..30).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn locality_aware_stays_on_node() {
        // 4 partitions on 2 nodes: partitions 0,1 on node 0; 2,3 on node 1.
        let node_of = |p: usize| p / 2;
        let kind = ConnectorKind::LocalityAwareMToNPartitioning { fields: vec![0] };
        let (mut outs, ins) = wire(&kind, 4, 4, &node_of, &xcfg()).unwrap();
        for i in 0..100 {
            outs[0].push_encoded(&encode_tuple(&t(i))).unwrap(); // src partition 0, node 0
        }
        drop(outs);
        let counts: Vec<usize> =
            ins.into_iter().map(|mut p| read_all(&mut p).unwrap().len()).collect();
        // Everything from node 0 stays on node 0's partitions (0 and 1).
        assert_eq!(counts[2] + counts[3], 0);
        assert_eq!(counts[0] + counts[1], 100);
    }

    #[test]
    fn early_exit_drains() {
        let (mut outs, mut ins) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &xcfg()).unwrap();
        for i in 0..5000 {
            outs[0].push_encoded(&encode_tuple(&t(i))).unwrap();
        }
        drop(outs);
        let mut frames = 0;
        ins[0]
            .for_each_frame(|_| {
                frames += 1;
                Ok(false)
            })
            .unwrap();
        assert_eq!(frames, 1);
        // Port fully drained afterwards.
        assert!(read_all(&mut ins[0]).unwrap().is_empty());
    }

    #[test]
    fn closed_receiver_surfaces_downstream_closed() {
        // Producer feeding a hung-up consumer learns about it within one
        // frame instead of silently discarding data forever.
        let cfg = ExchangeConfig { frames_in_flight: 2, ..Default::default() };
        let (mut outs, ins) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &cfg).unwrap();
        drop(ins);
        let mut stopped_at = None;
        for i in 0..100_000 {
            if outs[0].push_encoded(&encode_tuple(&t(i))).is_err() {
                stopped_at = Some(i);
                break;
            }
        }
        // First full frame (FRAME_CAPACITY tuples) hits the disconnect.
        assert_eq!(stopped_at, Some(FRAME_CAPACITY as i64 - 1));
        assert!(matches!(outs[0].flush(), Err(HyracksError::DownstreamClosed)));
    }

    #[test]
    fn partial_disconnect_keeps_live_destinations() {
        // 1 source, 2 destinations; destination 1 hangs up. Data routed to
        // the live destination still flows; push only errors once ALL
        // destinations are gone.
        let cfg = ExchangeConfig { frames_in_flight: 8, ..Default::default() };
        let kind = ConnectorKind::MToNPartitioning { fields: vec![0] };
        let (mut outs, mut ins) = wire(&kind, 1, 2, &|_| 0, &cfg).unwrap();
        let dead = ins.pop().unwrap();
        drop(dead);
        let mut pushed = 0u64;
        for i in 0..(FRAME_CAPACITY as i64 * 4) {
            if outs[0].push_encoded(&encode_tuple(&t(i))).is_err() {
                break;
            }
            pushed += 1;
        }
        assert_eq!(pushed, FRAME_CAPACITY as u64 * 4, "live destination keeps accepting");
        drop(outs);
        let got = read_all(&mut ins[0]).unwrap();
        assert!(!got.is_empty());
        assert!(got.iter().all(|t| hash_fields(t, &[0]).is_multiple_of(2)));
    }

    #[test]
    fn frames_are_recycled_through_the_pool() {
        let cfg = xcfg();
        let (mut outs, mut ins) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &cfg).unwrap();
        for i in 0..(FRAME_CAPACITY as i64 * 2) {
            outs[0].push_encoded(&encode_tuple(&t(i))).unwrap();
        }
        drop(outs);
        assert_eq!(read_all(&mut ins[0]).unwrap().len(), FRAME_CAPACITY * 2);
        drop(ins);
        assert!(cfg.pool.pooled() >= 2, "drained frames return to the pool");
        assert_eq!(cfg.stats.frames_sent(), 2);
        assert_eq!(cfg.stats.tuples_sent(), FRAME_CAPACITY as u64 * 2);
        assert_eq!(cfg.stats.buffered_frames(), 0, "gauge returns to zero");
    }

    #[test]
    fn exchange_bytes_are_exact_frame_occupancy() {
        // bytes_sent is a measurement of wire bytes: per-tuple encoded
        // length plus 4 slot-directory bytes, summed over sent frames.
        let cfg = xcfg();
        let (mut outs, mut ins) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &cfg).unwrap();
        let rows: Vec<Tuple> =
            (0..10).map(|i| vec![Value::Int64(i), Value::string("pad")]).collect();
        let expected: u64 = rows.iter().map(|r| encode_tuple(r).len() as u64 + 4).sum();
        for r in &rows {
            outs[0].push_encoded(&encode_tuple(r)).unwrap();
        }
        outs[0].flush().unwrap();
        drop(outs);
        assert_eq!(read_all(&mut ins[0]).unwrap().len(), 10);
        assert_eq!(cfg.stats.bytes_sent(), expected);
    }

    #[test]
    fn fused_port_bypasses_channels_and_finishes_once() {
        use crate::pipeline::testing::{Recorder, RecorderStage};
        use asterix_sync::Mutex;

        let rec = Arc::new(Mutex::new(Recorder::default()));
        let mut port = OutputPort::fused(Box::new(RecorderStage(Arc::clone(&rec))), None);
        // Both push paths reach the chain with identical encodings.
        port.push_encoded(&encode_tuple(&t(1))).unwrap();
        port.push_encoded(&encode_tuple(&t(2))).unwrap();
        port.finish().unwrap();
        port.finish().unwrap(); // idempotent
        {
            let r = rec.lock();
            assert_eq!(r.rows, vec![encode_tuple(&t(1)), encode_tuple(&t(2))]);
            assert!(r.finished);
        }
        drop(port); // Drop after an explicit finish is a no-op.
        assert_eq!(rec.lock().rows.len(), 2);
    }

    #[test]
    fn push_frame_routes_identically_to_per_tuple() {
        // The batch producer path must land every tuple on the same
        // destination the per-tuple path picks, for every strategy.
        for kind in [
            ConnectorKind::OneToOne,
            ConnectorKind::MToNReplicating,
            ConnectorKind::MToNPartitioning { fields: vec![0] },
        ] {
            let n_dst = if matches!(kind, ConnectorKind::OneToOne) { 1 } else { 3 };
            let cfg = ExchangeConfig { frames_in_flight: 64, ..Default::default() };
            let (mut outs, ins) = wire(&kind, 1, n_dst, &|_| 0, &cfg).unwrap();
            let mut frame = Frame::new();
            for i in 0..40 {
                frame.push_encoded(&encode_tuple(&t(i)));
            }
            outs[0].push_frame(&frame).unwrap();
            // Reference: the per-tuple path over a second wiring.
            let cfg2 = ExchangeConfig { frames_in_flight: 64, ..Default::default() };
            let (mut outs2, ins2) = wire(&kind, 1, n_dst, &|_| 0, &cfg2).unwrap();
            for i in 0..40 {
                outs2[0].push_encoded(&encode_tuple(&t(i))).unwrap();
            }
            drop(outs);
            drop(outs2);
            for (mut a, mut b) in ins.into_iter().zip(ins2) {
                assert_eq!(read_all(&mut a).unwrap(), read_all(&mut b).unwrap(), "{}", kind.name());
            }
        }
    }

    #[test]
    fn for_each_frame_sees_whole_frames_and_merges_in_order() {
        // Any mode: received frames arrive whole.
        let cfg = ExchangeConfig { frames_in_flight: 64, ..Default::default() };
        let (mut outs, mut ins) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &cfg).unwrap();
        for i in 0..(FRAME_CAPACITY as i64 + 10) {
            outs[0].push_encoded(&encode_tuple(&t(i))).unwrap();
        }
        drop(outs);
        let mut sizes = Vec::new();
        let mut rows = Vec::new();
        ins[0]
            .for_each_frame(|frame| {
                sizes.push(frame.tuple_count());
                for i in 0..frame.tuple_count() {
                    rows.push(
                        frame.tuple_ref(i).unwrap().field_value(0).unwrap().as_i64().unwrap(),
                    );
                }
                Ok(true)
            })
            .unwrap();
        assert_eq!(sizes, vec![FRAME_CAPACITY, 10]);
        assert_eq!(rows, (0..(FRAME_CAPACITY as i64 + 10)).collect::<Vec<_>>());

        // Merge mode: batches preserve the k-way merge order.
        let cmp: Comparator = sort_comparator(&[SortKey::field(0, false)]);
        let kind = ConnectorKind::MToNPartitioningMerging { fields: vec![], comparator: cmp };
        let cfg = ExchangeConfig { frames_in_flight: 64, ..Default::default() };
        let (mut outs, mut ins) = wire(&kind, 3, 1, &|_| 0, &cfg).unwrap();
        for (s, base) in [(0usize, 0i64), (1, 1), (2, 2)] {
            for i in 0..10 {
                outs[s].push_encoded(&encode_tuple(&t(base + i * 3))).unwrap();
            }
        }
        drop(outs);
        let mut merged = Vec::new();
        ins[0]
            .for_each_frame(|frame| {
                for i in 0..frame.tuple_count() {
                    merged.push(
                        frame.tuple_ref(i).unwrap().field_value(0).unwrap().as_i64().unwrap(),
                    );
                }
                Ok(true)
            })
            .unwrap();
        assert_eq!(merged, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn small_frame_bytes_forces_early_flush() {
        // The byte capacity is a flush threshold of its own: tiny frames
        // mean many sends even when the tuple count is far below capacity.
        // Enough frames in flight that the single-threaded test never
        // blocks on the bounded channel before the consumer drains it.
        let cfg = ExchangeConfig { frame_bytes: 64, frames_in_flight: 64, ..Default::default() };
        let (mut outs, mut ins) = wire(&ConnectorKind::OneToOne, 1, 1, &|_| 0, &cfg).unwrap();
        for i in 0..100 {
            outs[0].push_encoded(&encode_tuple(&t(i))).unwrap();
        }
        drop(outs);
        assert_eq!(read_all(&mut ins[0]).unwrap().len(), 100);
        assert!(
            cfg.stats.frames_sent() > 10,
            "only {} frames for 100 tuples at 64-byte frames",
            cfg.stats.frames_sent()
        );
    }
}
