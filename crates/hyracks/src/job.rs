//! Job specifications: DAGs of operators and connectors, plus the
//! activity/stage analysis of §4.1 and the fusion plan the executor runs.
//!
//! "As the first step in the execution of a submitted Hyracks Job, its
//! Operators are expanded into their constituent Activities. [...] the
//! separation of an Operator into two or more Activities surfaces the
//! constraint that it can produce no output until all of its input has been
//! consumed." Stages are maximal sets of activities executable together.

use std::sync::Arc;

use crate::connector::ConnectorKind;
use crate::ops::OperatorDescriptor;
use crate::Result;

/// Identifies an operator within a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OperatorId(pub usize);

pub(crate) struct OpNode {
    pub desc: Arc<dyn OperatorDescriptor>,
    pub nparts: usize,
}

pub(crate) struct ConnSpec {
    pub kind: ConnectorKind,
    pub src: OperatorId,
    pub dst: OperatorId,
}

/// A Hyracks job: a DAG of operators and connectors.
#[derive(Default)]
pub struct JobSpec {
    pub(crate) ops: Vec<OpNode>,
    pub(crate) conns: Vec<ConnSpec>,
    /// Runtime join filters allocated for this job (see
    /// [`JobSpec::alloc_runtime_filter`]); sizes the per-job
    /// [`crate::filter::RuntimeFilterHub`].
    nfilters: usize,
}

/// One maximal fused chain: the operators that share a thread per
/// partition, head first. A chain of length 1 is an unfused operator.
#[derive(Debug, Clone)]
pub struct FusedChain {
    /// Chain members in push order (the head runs its `run` body — a
    /// source's own or the provided driver of its activities — and the
    /// rest run as push stages behind it).
    pub ops: Vec<OperatorId>,
    /// Partition count shared by every member.
    pub nparts: usize,
}

/// The executor's pipeline-fusion plan for one job (see
/// [`JobSpec::fusion_plan`]).
#[derive(Debug, Clone)]
pub struct FusionPlan {
    /// Every operator appears in exactly one chain.
    pub chains: Vec<FusedChain>,
    /// Per-connector flag: `true` when the edge is fused away (no channel
    /// is wired for it).
    pub(crate) fused_conns: Vec<bool>,
}

impl FusionPlan {
    /// Pipelines of the job, one per (chain, partition): each occupies a
    /// thread while the job runs — the caller's for one, a spawned one for
    /// each of the rest — and this is what `ExecutorConfig::max_threads`
    /// guards.
    pub fn total_threads(&self) -> usize {
        self.chains.iter().map(|c| c.nparts).sum()
    }

    /// Operator-partition pipelines running fused (chains of length ≥ 2).
    pub fn fused_pipelines(&self) -> usize {
        self.chains.iter().filter(|c| c.ops.len() >= 2).map(|c| c.nparts).sum()
    }

    /// Threads saved versus one thread per (operator, partition).
    pub fn saved_threads(&self) -> usize {
        self.chains.iter().map(|c| (c.ops.len() - 1) * c.nparts).sum()
    }
}

impl JobSpec {
    pub fn new() -> JobSpec {
        JobSpec::default()
    }

    /// Add an operator running with `nparts` partitions.
    pub fn add(&mut self, nparts: usize, desc: Arc<dyn OperatorDescriptor>) -> OperatorId {
        self.ops.push(OpNode { desc, nparts: nparts.max(1) });
        OperatorId(self.ops.len() - 1)
    }

    /// Connect `src`'s next output to `dst`'s next input through `kind`.
    /// Input/output indexes are assigned in connection order.
    pub fn connect(&mut self, kind: ConnectorKind, src: OperatorId, dst: OperatorId) {
        self.conns.push(ConnSpec { kind, src, dst });
    }

    /// Number of operators.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Allocate a runtime-filter slot, pairing a join's build side (which
    /// publishes into it) with probe-side consult stages. Returns the
    /// filter id to hand both ends.
    pub fn alloc_runtime_filter(&mut self) -> usize {
        self.nfilters += 1;
        self.nfilters - 1
    }

    /// Runtime-filter slots this job allocated.
    pub fn nfilters(&self) -> usize {
        self.nfilters
    }

    /// Partition count of an operator.
    pub fn partitions(&self, op: OperatorId) -> usize {
        self.ops[op.0].nparts
    }

    /// Operator display name.
    pub fn op_name(&self, op: OperatorId) -> String {
        self.ops[op.0].desc.name()
    }

    /// Incoming connector indexes of `dst`, in input order.
    pub(crate) fn inputs_of(&self, dst: OperatorId) -> Vec<usize> {
        self.conns.iter().enumerate().filter_map(|(i, c)| (c.dst == dst).then_some(i)).collect()
    }

    /// Outgoing connector indexes of `src`, in output order.
    pub(crate) fn outputs_of(&self, src: OperatorId) -> Vec<usize> {
        self.conns.iter().enumerate().filter_map(|(i, c)| (c.src == src).then_some(i)).collect()
    }

    /// Topological order of operators; errors on cycles.
    pub fn topo_order(&self) -> Result<Vec<OperatorId>> {
        let n = self.ops.len();
        let mut indegree = vec![0usize; n];
        for c in &self.conns {
            indegree[c.dst.0] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut out = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            out.push(OperatorId(i));
            for c in &self.conns {
                if c.src.0 == i {
                    indegree[c.dst.0] -= 1;
                    if indegree[c.dst.0] == 0 {
                        queue.push(c.dst.0);
                    }
                }
            }
        }
        if out.len() != n {
            return Err(crate::HyracksError::InvalidJob("job graph has a cycle".into()));
        }
        Ok(out)
    }

    /// Pipeline-fusion analysis: find maximal chains of operators linked by
    /// same-partition OneToOne connectors, so the executor can run each
    /// chain as **one thread per partition** instead of one per (operator,
    /// partition).
    ///
    /// A connector edge `src → dst` is fused away iff it is a
    /// [`ConnectorKind::OneToOne`] between equal partition counts (so
    /// partition `p` feeds partition `p` with no data movement) and `dst`'s
    /// only input: `dst` then runs as a push stage behind `src`, blocking
    /// or not. Everything else — repartition, broadcast, merge, a join's
    /// inputs — keeps its channel, bounded-frame backpressure, and thread.
    ///
    /// Errors on a cycle, and on an operator feeding more than one
    /// connector (an operator has one output).
    pub fn fusion_plan(&self) -> Result<FusionPlan> {
        self.topo_order()?; // validates acyclicity
        let n = self.ops.len();
        for op in (0..n).map(OperatorId) {
            let outputs = self.outputs_of(op).len();
            if outputs > 1 {
                return Err(crate::HyracksError::InvalidJob(format!(
                    "operator {} feeds {outputs} connectors; an operator has one output",
                    self.op_name(op)
                )));
            }
        }
        let mut fused_conns = vec![false; self.conns.len()];
        for (ci, c) in self.conns.iter().enumerate() {
            // A mismatched OneToOne arity stays unfused so wiring raises
            // its usual error.
            fused_conns[ci] = matches!(c.kind, ConnectorKind::OneToOne)
                && self.ops[c.src.0].nparts == self.ops[c.dst.0].nparts
                && self.inputs_of(c.dst) == [ci];
        }

        // Chains: follow fused edges from every op with no fused
        // predecessor. Each op appears in exactly one chain (a fused dst
        // has exactly one input, so predecessors are unique).
        let mut next_of: Vec<Option<usize>> = vec![None; n];
        let mut has_fused_pred = vec![false; n];
        for (ci, c) in self.conns.iter().enumerate() {
            if fused_conns[ci] {
                next_of[c.src.0] = Some(c.dst.0);
                has_fused_pred[c.dst.0] = true;
            }
        }
        let mut chains = Vec::new();
        for (head, &fused_pred) in has_fused_pred.iter().enumerate() {
            if fused_pred {
                continue;
            }
            let mut ops = vec![OperatorId(head)];
            let mut cur = head;
            while let Some(nx) = next_of[cur] {
                ops.push(OperatorId(nx));
                cur = nx;
            }
            chains.push(FusedChain { nparts: self.ops[head].nparts, ops });
        }
        Ok(FusionPlan { chains, fused_conns })
    }

    /// Stage analysis: expand operators into activities and split the graph
    /// at blocking activity boundaries. Returns the stage index of each
    /// operator (stage k must fully finish its blocking consumption before
    /// stage k+1's results flow).
    pub fn stages(&self) -> Result<Vec<usize>> {
        let order = self.topo_order()?;
        let mut stage = vec![0usize; self.ops.len()];
        for op in order {
            let inputs = self.inputs_of(op);
            let blocking = self.ops[op.0].desc.blocking_inputs();
            let mut s = 0;
            for (input_idx, &conn_idx) in inputs.iter().enumerate() {
                let src = self.conns[conn_idx].src;
                let src_stage = stage[src.0];
                let bump = usize::from(blocking.contains(&input_idx));
                s = s.max(src_stage + bump);
            }
            stage[op.0] = s;
        }
        Ok(stage)
    }

    /// Pretty-print the job in Figure 6's style: one line per operator
    /// (bottom-up source-first), with the connector kind annotated between
    /// producer and consumer.
    pub fn describe(&self) -> String {
        self.describe_annotated(&|_| None)
    }

    /// Like [`JobSpec::describe`], but appends `annot(op)` (when `Some`) to
    /// each operator line — used by profiled explain to show runtime stats
    /// next to the plan node that produced each operator.
    pub fn describe_annotated(&self, annot: &dyn Fn(OperatorId) -> Option<String>) -> String {
        let mut out = String::new();
        let Ok(order) = self.topo_order() else {
            return "<cyclic job>".to_string();
        };
        let stages = self.stages().unwrap_or_else(|_| vec![0; self.ops.len()]);
        for op in order {
            let inputs = self.inputs_of(op);
            for &ci in &inputs {
                let c = &self.conns[ci];
                let (ns, nd) = (self.ops[c.src.0].nparts, self.ops[c.dst.0].nparts);
                let arrow = match c.kind {
                    ConnectorKind::OneToOne => "1:1".to_string(),
                    ConnectorKind::MToNReplicating => format!("{ns}:{nd} replicating"),
                    ConnectorKind::MToNPartitioning { .. } => {
                        format!("{ns}:{nd} partitioning")
                    }
                    ConnectorKind::LocalityAwareMToNPartitioning { .. } => {
                        format!("{ns}:{nd} locality-aware")
                    }
                    ConnectorKind::MToNPartitioningMerging { .. } => {
                        format!("{ns}:{nd} partitioning-merging")
                    }
                    ConnectorKind::HashPartitioningShuffle { .. } => {
                        format!("{ns}:{nd} shuffle")
                    }
                };
                out.push_str(&format!("  |{arrow}|\n"));
            }
            let extra = annot(op).map(|a| format!("  -- {a}")).unwrap_or_default();
            out.push_str(&format!(
                "{} [parts={}, stage={}]{extra}\n",
                self.ops[op.0].desc.name(),
                self.ops[op.0].nparts,
                stages[op.0]
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{SinkOp, SourceOp};
    use asterix_adm::Value;
    use asterix_sync::Mutex;

    fn source() -> Arc<dyn OperatorDescriptor> {
        Arc::new(SourceOp::new("scan", |_, _, emit| {
            emit(vec![Value::Int64(1)])?;
            Ok(())
        }))
    }

    #[test]
    fn topo_order_and_cycles() {
        let mut job = JobSpec::new();
        let a = job.add(1, source());
        let sink = Arc::new(Mutex::new(Vec::new()));
        let b = job.add(1, Arc::new(SinkOp::new(Arc::clone(&sink))));
        job.connect(ConnectorKind::OneToOne, a, b);
        let order = job.topo_order().unwrap();
        assert_eq!(order, vec![a, b]);

        // A cycle is rejected.
        let mut bad = JobSpec::new();
        let x = bad.add(1, source());
        let y = bad.add(1, source());
        bad.connect(ConnectorKind::OneToOne, x, y);
        bad.connect(ConnectorKind::OneToOne, y, x);
        assert!(bad.topo_order().is_err());
    }

    #[test]
    fn fusion_plan_finds_maximal_one_to_one_chains() {
        use crate::ops::{AssignOp, SelectOp};

        // scan(2) -1:1-> select(2) -1:1-> assign(2) -repl-> sink(1)
        let mut job = JobSpec::new();
        let scan = job.add(2, source());
        let sel = job.add(2, Arc::new(SelectOp::new("f", Arc::new(|_: &Vec<Value>| Ok(true)))));
        let asg = job.add(2, Arc::new(AssignOp::new("a", vec![])));
        let collector = Arc::new(Mutex::new(Vec::new()));
        let sink = job.add(1, Arc::new(SinkOp::new(collector)));
        job.connect(ConnectorKind::OneToOne, scan, sel);
        job.connect(ConnectorKind::OneToOne, sel, asg);
        job.connect(ConnectorKind::MToNReplicating, asg, sink);

        let plan = job.fusion_plan().unwrap();
        let chains: Vec<Vec<OperatorId>> = plan.chains.iter().map(|c| c.ops.clone()).collect();
        assert_eq!(chains, vec![vec![scan, sel, asg], vec![sink]]);
        assert_eq!(plan.total_threads(), 3, "2 fused pipelines + 1 sink");
        assert_eq!(plan.fused_pipelines(), 2);
        assert_eq!(plan.saved_threads(), 4, "select and assign partitions ride along");
        assert_eq!(plan.fused_conns, vec![true, true, false]);
    }

    #[test]
    fn fusion_plan_keeps_blocking_fan_in_and_mismatched_edges() {
        use crate::ops::{HybridHashJoinOp, JoinType, SelectOp, SortKey, SortOp};

        // a(2) -1:1-> sort(2) -1:1-> join(2) <-1:1- b(2): the sort is a
        // single-input operator behind a 1:1 edge, so it fuses — blocking
        // or not — while neither of the join's two inputs does.
        let mut job = JobSpec::new();
        let a = job.add(2, source());
        let b = job.add(2, source());
        let sort = job.add(2, Arc::new(SortOp::new("k", vec![SortKey::field(0, false)])));
        let join =
            job.add(2, Arc::new(HybridHashJoinOp::new("j", vec![0], vec![0], JoinType::Inner, 1)));
        job.connect(ConnectorKind::OneToOne, a, sort);
        job.connect(ConnectorKind::OneToOne, sort, join);
        job.connect(ConnectorKind::OneToOne, b, join);
        let plan = job.fusion_plan().unwrap();
        assert_eq!(plan.fused_conns, vec![true, false, false]);
        let chains: Vec<Vec<OperatorId>> = plan.chains.iter().map(|c| c.ops.clone()).collect();
        assert_eq!(chains, vec![vec![a, sort], vec![b], vec![join]]);
        assert_eq!(plan.total_threads(), 6);

        // A OneToOne between mismatched partition counts stays unfused so
        // wiring reports the arity error instead of fusion hiding it.
        let mut bad = JobSpec::new();
        let x = bad.add(2, source());
        let y = bad.add(3, Arc::new(SelectOp::new("f", Arc::new(|_: &Vec<Value>| Ok(true)))));
        bad.connect(ConnectorKind::OneToOne, x, y);
        let plan = bad.fusion_plan().unwrap();
        assert!(plan.fused_conns.iter().all(|&f| !f));
    }

    #[test]
    fn describe_contains_connector_names() {
        let mut job = JobSpec::new();
        let a = job.add(2, source());
        let sink = Arc::new(Mutex::new(Vec::new()));
        let b = job.add(1, Arc::new(SinkOp::new(sink)));
        job.connect(ConnectorKind::MToNReplicating, a, b);
        let d = job.describe();
        assert!(d.contains("2:1 replicating"), "{d}");
        assert!(d.contains("scan [parts=2"), "{d}");
    }
}
