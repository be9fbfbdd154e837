//! Push stages: the one body every operator but a source has (§4.1's
//! activities, run together as pipelines).
//!
//! An operator is instantiated per partition as a [`PipelineOp`] — one per
//! input for a join (build, then probe), one for every other operator. The
//! executor's fusion pass ([`crate::job::JobSpec::fusion_plan`]) collapses
//! maximal chains of single-input operators linked by same-partition
//! OneToOne connectors into a single thread per partition: the head runs
//! its `run` body (a source's own, or the provided driver feeding the
//! head's stages from its input ports), and its output port is backed by
//! the stack of the other members' stages instead of a channel, so every
//! encoded tuple is handed *synchronously* to the next stage — no frame
//! copy, no channel, no thread hand-off. The stack bottoms out in a
//! `PortSink` wrapping the tail operator's real output port, so channels
//! and backpressure are untouched at every surviving (repartition,
//! broadcast, merge, fan-in) edge.
//!
//! A blocking stage (sort, group-by, aggregate) takes everything in `push`
//! and emits in `finish`; a join's build stage leaves its table for the
//! probe stage. They emit through a `FrameOut`: the stages behind see
//! frames, and every frame is a cancellation point.
//!
//! Early-stop composes: a LIMIT stage returns
//! [`crate::HyracksError::DownstreamClosed`] from `push` once satisfied,
//! which unwinds through the chain to the head exactly like a closed
//! channel does between pipelines.

use std::sync::Arc;

use asterix_adm::Value;
use asterix_obs::TraceContext;
use asterix_rm::CancellationToken;
use asterix_sync::Mutex;

use crate::connector::OutputPort;
use crate::filter::RuntimeFilterHub;
use crate::frame::{FrameBuf, DEFAULT_FRAME_BYTES, FRAME_CAPACITY};
use crate::profile::PortMeter;
use crate::{HyracksError, Result};

/// Job-wide execution environment threaded into every operator and push
/// stage: the frame batching targets, the runtime-filter hub, the
/// per-pipeline trace context and the job's cancellation token. Cheap to
/// clone (a few words plus `Arc` bumps).
#[derive(Clone)]
pub struct ExecEnv {
    /// Tuples a producer batches into one frame before pushing it.
    pub tuples_per_frame: usize,
    /// Occupancy at which a blocking stage hands on the frame it emits
    /// into, short of `tuples_per_frame` tuples.
    pub frame_bytes: usize,
    /// Runtime join filters published by build phases, consulted by
    /// probe-side producers.
    pub filters: Arc<RuntimeFilterHub>,
    /// Tracing handle for this executor thread; operators record coarse
    /// events (spill runs, send blocks) under it. Disabled (no-op) unless
    /// the job runs under a profiled/traced query.
    pub trace: TraceContext,
    /// The job's cancellation token, checked by every frame a blocking
    /// stage emits (its input was checked as it arrived).
    pub cancel: Option<CancellationToken>,
}

impl Default for ExecEnv {
    fn default() -> ExecEnv {
        ExecEnv {
            tuples_per_frame: FRAME_CAPACITY,
            frame_bytes: DEFAULT_FRAME_BYTES,
            filters: RuntimeFilterHub::disabled(),
            trace: TraceContext::disabled(),
            cancel: None,
        }
    }
}

/// Per-partition context handed to an operator when it is instantiated as
/// push stages.
#[derive(Clone)]
pub struct PipelineCtx {
    pub partition: usize,
    pub nparts: usize,
    /// Job-wide execution environment.
    pub env: ExecEnv,
}

/// One operator activity instantiated as a push stage: fused behind a
/// chain's head, or driven from an input port by the provided
/// [`crate::ops::OperatorDescriptor::run`] when its operator heads the
/// chain itself.
///
/// `push` receives one *encoded* tuple (the offset-prefixed
/// `asterix_adm::tuple` wire format) and forwards zero or more tuples to
/// the next stage. Returning [`crate::HyracksError::DownstreamClosed`]
/// tells the upstream producer to stop — the push analogue of a closed
/// channel.
pub trait PipelineOp: Send {
    /// Process one encoded tuple.
    fn push(&mut self, bytes: &[u8]) -> Result<()>;

    /// Process a whole frame of encoded tuples at once. Stages that can
    /// evaluate batch-at-a-time (select via bitmap + compaction, project
    /// into a scratch frame) override this; the default degrades to
    /// per-tuple `push`, so correctness never depends on a stage being
    /// batch-aware.
    fn push_frame(&mut self, frame: &FrameBuf) -> Result<()> {
        for bytes in frame.iter() {
            self.push(bytes)?;
        }
        Ok(())
    }

    /// Propagate an early flush downstream (operators that flush to bound
    /// latency reach the real tail port through this); a streaming stage
    /// forwards it. The default suits a blocking stage: it holds its input
    /// until `finish`, so a flush stops there.
    fn flush(&mut self) -> Result<()> {
        Ok(())
    }

    /// End of input: emit any buffered state, then finish downstream.
    /// Called exactly once, after the last `push` — on success *and* on
    /// error, so partial results still reach the real port.
    fn finish(&mut self) -> Result<()>;
}

/// The metering adapter between two fused operators: counts tuples crossing
/// the fused edge on behalf of the upstream op's output port and the
/// downstream op's input port, then forwards. Frames and bytes stay zero —
/// no frame exists on a fused edge, which keeps "summed port-meter bytes ==
/// exchange bytes_sent" exact over the surviving channel edges.
pub(crate) struct FusedEdge {
    meters: Vec<Arc<PortMeter>>,
    next: Box<dyn PipelineOp>,
}

impl FusedEdge {
    pub(crate) fn new(meters: Vec<Arc<PortMeter>>, next: Box<dyn PipelineOp>) -> FusedEdge {
        FusedEdge { meters, next }
    }
}

impl PipelineOp for FusedEdge {
    fn push(&mut self, bytes: &[u8]) -> Result<()> {
        for m in &self.meters {
            m.tuples.inc();
        }
        self.next.push(bytes)
    }

    fn push_frame(&mut self, frame: &FrameBuf) -> Result<()> {
        let n = frame.tuple_count() as u64;
        for m in &self.meters {
            m.tuples.add(n);
        }
        self.next.push_frame(frame)
    }

    fn flush(&mut self) -> Result<()> {
        self.next.flush()
    }

    fn finish(&mut self) -> Result<()> {
        self.next.finish()
    }
}

/// Terminal stage: hands tuples to the operator's *real* output port (a
/// channel-backed exchange port, a discard sink when the chain ends the
/// job, or — for a streaming head — the port backed by the rest of its
/// chain). This is where pushed data re-enters the frame/backpressure
/// world.
pub(crate) struct PortSink {
    port: OutputPort,
}

impl PortSink {
    pub(crate) fn new(port: OutputPort) -> PortSink {
        PortSink { port }
    }
}

impl PipelineOp for PortSink {
    fn push(&mut self, bytes: &[u8]) -> Result<()> {
        self.port.push_encoded(bytes)
    }

    fn push_frame(&mut self, frame: &FrameBuf) -> Result<()> {
        self.port.push_frame(frame)
    }

    fn flush(&mut self) -> Result<()> {
        self.port.flush()
    }

    fn finish(&mut self) -> Result<()> {
        self.port.finish()
    }
}

/// Where a stage emits what it built up — a sort's merge, a group-by's
/// table, a join's matches: tuples are batched into frames of the job's
/// size and handed on a frame at a time, so the stages behind see frames,
/// and every frame is a cancellation point (a sort emits long after its
/// last input frame was checked).
pub(crate) struct FrameOut {
    next: Box<dyn PipelineOp>,
    frame: FrameBuf,
    tuples_per_frame: usize,
    frame_bytes: usize,
    cancel: Option<CancellationToken>,
}

impl FrameOut {
    pub(crate) fn new(env: &ExecEnv, next: Box<dyn PipelineOp>) -> FrameOut {
        FrameOut {
            next,
            frame: FrameBuf::new(),
            tuples_per_frame: env.tuples_per_frame.max(1),
            frame_bytes: env.frame_bytes.max(1),
            cancel: env.cancel.clone(),
        }
    }

    /// Emit one encoded tuple.
    pub(crate) fn push(&mut self, bytes: &[u8]) -> Result<()> {
        self.frame.push_encoded(bytes);
        self.send_if_full()
    }

    /// Emit one tuple of values.
    pub(crate) fn push_values(&mut self, values: &[Value]) -> Result<()> {
        self.frame.push_tuple(values);
        self.send_if_full()
    }

    fn send_if_full(&mut self) -> Result<()> {
        if self.frame.tuple_count() >= self.tuples_per_frame
            || self.frame.occupancy() >= self.frame_bytes
        {
            return self.send();
        }
        Ok(())
    }

    fn send(&mut self) -> Result<()> {
        if self.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            return Err(HyracksError::Cancelled);
        }
        if self.frame.is_empty() {
            return Ok(());
        }
        let res = self.next.push_frame(&self.frame);
        self.frame.clear();
        res
    }

    /// Hand on the partial frame, then flush downstream.
    pub(crate) fn flush(&mut self) -> Result<()> {
        self.send()?;
        self.next.flush()
    }

    /// End of the stage: hand on what `emitted` left in the frame, then
    /// finish downstream ([`finish_after`]).
    pub(crate) fn finish(&mut self, emitted: Result<()>) -> Result<()> {
        let emitted = emitted.and_then(|()| self.send());
        finish_after(emitted, self.next.as_mut())
    }
}

/// Finish `next` after a stage's last emission, whatever it returned: a
/// satisfied LIMIT behind still finishes, and a sink lands its rows there.
/// An emission error other than a closed downstream wins over the finish's
/// own result.
pub(crate) fn finish_after(emitted: Result<()>, next: &mut dyn PipelineOp) -> Result<()> {
    let finished = next.finish();
    match emitted {
        Ok(()) | Err(HyracksError::DownstreamClosed) => finished,
        Err(e) => Err(e),
    }
}

/// The blocking edge between two activities of one operator partition: the
/// earlier activity's `finish` leaves what it built here, and the later one
/// takes it before its first tuple. The driver runs both on one thread, in
/// that order, so the lock is taken once on each side.
pub(crate) type Handoff<T> = Arc<Mutex<Option<T>>>;

#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::connector::InputPort;
    use crate::frame::Tuple;
    use crate::ops::{OpCtx, OperatorDescriptor};

    /// Records every pushed tuple; used by unit tests across the crate.
    #[derive(Default)]
    pub(crate) struct Recorder {
        pub rows: Vec<Vec<u8>>,
        pub finished: bool,
    }

    pub(crate) struct RecorderStage(pub std::sync::Arc<asterix_sync::Mutex<Recorder>>);

    /// Every tuple a port delivers, decoded, in order.
    pub(crate) fn read_all(port: &mut InputPort) -> Result<Vec<Tuple>> {
        let mut out = Vec::new();
        port.for_each_frame(|frame| {
            for i in 0..frame.tuple_count() {
                out.push(frame.tuple_ref(i)?.decode()?);
            }
            Ok(true)
        })?;
        Ok(out)
    }

    /// Run partition 0 of 1 of `op` over `inputs` into `output`, as the
    /// executor runs a pipeline head: its `run`, then its port's finish.
    pub(crate) fn run_partition(
        op: &dyn OperatorDescriptor,
        mut inputs: Vec<InputPort>,
        output: OutputPort,
    ) -> Result<()> {
        let mut ctx = OpCtx { partition: 0, nparts: 1, output, env: ExecEnv::default() };
        let res = op.run(&mut ctx, &mut inputs);
        res.and(ctx.output.finish())
    }

    impl PipelineOp for RecorderStage {
        fn push(&mut self, bytes: &[u8]) -> Result<()> {
            self.0.lock().rows.push(bytes.to_vec());
            Ok(())
        }

        fn flush(&mut self) -> Result<()> {
            Ok(())
        }

        fn finish(&mut self) -> Result<()> {
            self.0.lock().finished = true;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{Recorder, RecorderStage};
    use super::*;
    use asterix_adm::{encode_tuple, Value};
    use asterix_sync::Mutex;

    #[test]
    fn fused_edge_meters_tuples_only() {
        let rec = Arc::new(Mutex::new(Recorder::default()));
        let m_out = Arc::new(PortMeter::default());
        let m_in = Arc::new(PortMeter::default());
        let mut edge = FusedEdge::new(
            vec![Arc::clone(&m_out), Arc::clone(&m_in)],
            Box::new(RecorderStage(Arc::clone(&rec))),
        );
        for i in 0..5i64 {
            edge.push(&encode_tuple(&[Value::Int64(i)])).unwrap();
        }
        edge.finish().unwrap();
        assert_eq!(rec.lock().rows.len(), 5);
        assert!(rec.lock().finished);
        for m in [&m_out, &m_in] {
            assert_eq!(m.tuples.get(), 5);
            assert_eq!(m.frames.get(), 0, "no frames exist on a fused edge");
            assert_eq!(m.bytes.get(), 0, "fused edges move no wire bytes");
        }
    }
}
