//! The four workloads: what one operation of each is, and the executor
//! that sends its statements over the wire, checks every answer, and —
//! in a traced run — repeats each statement down the ladder of
//! substitutions.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use asterix_adm::Value;
use asterix_net::proto::{decode_results, encode_results};
use asterix_net::{PreparedHandle, WireResult};
use asterixdb::{PreparedQuery, StatementResult};

use crate::env::{Env, EnvSpec, Result};
use crate::gen::{LiveSet, Oracle, Rng};
use crate::shapes::{
    self, params, Answer, Arg, Expect, Shape, DELETE_PK, INDEX_SHAPES, INSERT_BATCH20,
    INSERT_SINGLE, LOOKUP_OLD, LOOKUP_RECENT, POINT_LOOKUP, RANGE_IX_FRESH, SCAN_SHAPES,
};
use crate::trace::{
    Tracer, RUNG_COMPILE, RUNG_DECODE, RUNG_ENCODE, RUNG_INPROC, RUNG_STORAGE, RUNG_WIRE,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointLookup,
    IndexQueries,
    ScanQueries,
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointLookup,
        Workload::IndexQueries,
        Workload::ScanQueries,
        Workload::IngestMixed,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Workload::PointLookup => "point_lookup",
            Workload::IndexQueries => "index_queries",
            Workload::ScanQueries => "scan_queries",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Memory-component budget of `ingest_mixed`: small enough that every
    /// primary partition flushes and merges several times while measured.
    const INGEST_MEM_BUDGET: usize = 1 << 20;

    pub fn env_spec(&self, smoke: bool) -> EnvSpec {
        let indexed = *self != Workload::ScanQueries;
        let mut spec = if smoke { EnvSpec::smoke(indexed) } else { EnvSpec::full(indexed) };
        if *self == Workload::IngestMixed {
            spec.mem_component_budget = Self::INGEST_MEM_BUDGET / if smoke { 20 } else { 1 };
        }
        spec
    }

    /// Shapes prepared once, hot for every operation.
    pub fn shapes(&self) -> Vec<Shape> {
        match self {
            Workload::PointLookup => vec![POINT_LOOKUP],
            Workload::IndexQueries => INDEX_SHAPES.to_vec(),
            Workload::ScanQueries => SCAN_SHAPES.to_vec(),
            Workload::IngestMixed => vec![LOOKUP_RECENT, RANGE_IX_FRESH],
        }
    }

    /// Untimed operations run before the measured phase (part of set-up).
    pub fn warmup_ops(&self, smoke: bool) -> usize {
        let full = match self {
            Workload::PointLookup => 2_000,
            Workload::IndexQueries | Workload::ScanQueries => 2,
            Workload::IngestMixed => 60,
        };
        if smoke {
            (full / 20).max(2)
        } else {
            full
        }
    }
}

/// One prepared shape: its text with the default literals, the
/// server-side handle, and the in-process twin the ladder uses.
pub struct Stmt {
    pub shape: Shape,
    pub text: String,
    pub wire: PreparedHandle,
    pub inproc: PreparedQuery,
}

/// Prepare the workload's shapes on the wire connection and in process,
/// checking that the normalizer lifts exactly the literals the driver
/// will bind.
pub fn prepare(env: &mut Env, workload: Workload) -> Result<Vec<Stmt>> {
    let mut stmts = Vec::new();
    for shape in workload.shapes() {
        let args = shape.default_args();
        let text = shape.family.text(&args, shape.indexnl);
        let wire = env.client.prepare(&text)?;
        let inproc = env.instance.prepare(&text)?;
        let want = params(&args);
        let lifted = inproc.default_params();
        if wire.param_count != want.len()
            || lifted.len() != want.len()
            || lifted.iter().zip(&want).any(|(l, w)| l.total_cmp(w).is_ne())
        {
            return Err(format!(
                "{}: prepared parameters {lifted:?} are not the literals {want:?}",
                shape.name
            )
            .into());
        }
        stmts.push(Stmt { shape, text, wire, inproc });
    }
    Ok(stmts)
}

/// A direct dataset call standing in for a lookup statement (rung 3).
#[derive(Debug, Clone, Copy)]
enum Direct {
    User(i64),
    Message(i64),
}

/// What the executor has seen so far.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Wire latency of each operation (its statements' latencies summed).
    pub op_latency: Vec<Duration>,
    /// Completion time of each operation since the phase began.
    pub op_end: Vec<Duration>,
    /// Wire latency of every statement, by shape name.
    pub shape_latency: Vec<(&'static str, Vec<Duration>)>,
    pub attempted: u64,
    pub failed: u64,
    pub rows_returned: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Recorder {
    fn note_statement(&mut self, shape: &'static str, latency: Duration) {
        match self.shape_latency.iter_mut().find(|(n, _)| *n == shape) {
            Some((_, v)) => v.push(latency),
            None => self.shape_latency.push((shape, vec![latency])),
        }
    }

    fn note_failure(&mut self, shape: &str, what: String) {
        if self.failures.len() < 8 {
            self.failures.push(format!("{shape}: {what}"));
        }
    }
}

/// Executes the statements of one operation at a time.
struct Executor<'a> {
    env: &'a mut Env,
    stmts: &'a [Stmt],
    rec: &'a mut Recorder,
    /// `Some` in the ladder stretch of a traced run.
    tracer: Option<&'a mut Tracer>,
    /// Statements that have run on rung 0 and not yet on the rungs below.
    pending: Vec<Pending>,
    op_id: u64,
    op_latency: Duration,
    op_ok: bool,
}

impl<'a> Executor<'a> {
    fn new(
        env: &'a mut Env,
        stmts: &'a [Stmt],
        rec: &'a mut Recorder,
        tracer: Option<&'a mut Tracer>,
    ) -> Executor<'a> {
        Executor {
            env,
            stmts,
            rec,
            tracer,
            pending: Vec::new(),
            op_id: 0,
            op_latency: Duration::ZERO,
            op_ok: true,
        }
    }

    fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    fn begin_op(&mut self) {
        self.op_latency = Duration::ZERO;
        self.op_ok = true;
    }

    fn end_op(&mut self, since_start: Duration) {
        self.rec.attempted += 1;
        if !self.op_ok {
            self.rec.failed += 1;
        }
        self.rec.op_latency.push(self.op_latency);
        self.rec.op_end.push(since_start);
        self.op_id += 1;
        if self.pending.len() >= LADDER_BLOCK {
            self.descend();
        }
    }

    /// Take the pending statements down the rungs below the wire, one rung
    /// at a time over the whole block.
    fn descend(&mut self) {
        if let Some(tr) = &mut self.tracer {
            ladder_below_wire(tr, self.env, self.stmts, std::mem::take(&mut self.pending));
        }
    }

    fn settle(&mut self, shape: &'static str, latency: Duration, outcome: Result<()>) -> bool {
        self.op_latency += latency;
        self.rec.note_statement(shape, latency);
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.op_ok = false;
                self.rec.note_failure(shape, e.to_string());
                false
            }
        }
    }

    /// Run prepared statement `stmt` with `args` over the wire and check
    /// its answer, filing its latency under `name`. Returns whether the
    /// statement succeeded.
    fn prepared(
        &mut self,
        stmt: usize,
        name: &'static str,
        args: &[Arg],
        expect: &Expect,
        direct: Option<Direct>,
    ) -> bool {
        let s = &self.stmts[stmt];
        let values = params(args);
        let (latency, got) = match &mut self.tracer {
            None => {
                let t = Instant::now();
                let got = self.env.client.execute_prepared(&s.wire, &values);
                (t.elapsed(), got)
            }
            Some(tr) => {
                let t = Instant::now();
                let (wire, got) = tr.span(RUNG_WIRE, name, self.op_id, None, || {
                    self.env.client.execute_prepared(&s.wire, &values)
                });
                let latency = t.elapsed();
                self.pending.push(Pending { stmt, name, values, direct, op_id: self.op_id, wire });
                (latency, got)
            }
        };
        let outcome = got.map_err(Into::into).and_then(|rows| {
            self.rec.rows_returned += rows.len() as u64;
            expect.check(&self.env.oracle, &Answer { rows, count: 0 }).map_err(Into::into)
        });
        self.settle(name, latency, outcome)
    }

    /// Send `text` (one DML statement) over the wire and check its
    /// affected-record count. In a traced run `twin`, the same statement
    /// over different records, goes through the in-process entry point as
    /// rung 1; the result says whether it too succeeded.
    fn text(
        &mut self,
        shape: &'static str,
        text: &str,
        twin: Option<&str>,
        expect: &Expect,
    ) -> (bool, bool) {
        let (latency, got, twin_ok) = match &mut self.tracer {
            None => {
                let t = Instant::now();
                let got = self.env.client.execute(text);
                (t.elapsed(), got, false)
            }
            Some(tr) => {
                let t = Instant::now();
                let (wire, got) =
                    tr.span(RUNG_WIRE, shape, self.op_id, None, || self.env.client.execute(text));
                let latency = t.elapsed();
                let twin_ok = twin.is_some_and(|twin| {
                    let (_, res) = tr.span(RUNG_INPROC, shape, self.op_id, Some(wire), || {
                        self.env.instance.execute_in(&self.env.session, twin)
                    });
                    res.is_ok_and(|r| {
                        expect.check(&self.env.oracle, &answer_of_statements(r)).is_ok()
                    })
                });
                (latency, got, twin_ok)
            }
        };
        let outcome = got.map_err(Into::into).and_then(|results| {
            expect.check(&self.env.oracle, &answer_of_wire(results)).map_err(Into::into)
        });
        (self.settle(shape, latency, outcome), twin_ok)
    }
}

fn answer_of_wire(results: Vec<WireResult>) -> Answer {
    let mut a = Answer::default();
    for r in results {
        match r {
            WireResult::Ok => {}
            WireResult::Count(n) => a.count += n,
            WireResult::Rows(rows) => a.rows = rows,
        }
    }
    a
}

fn answer_of_statements(results: Vec<StatementResult>) -> Answer {
    let mut a = Answer::default();
    for r in results {
        match r {
            StatementResult::Ok => {}
            StatementResult::Count(n) => a.count += n as u64,
            StatementResult::Rows(rows) => a.rows = rows,
        }
    }
    a
}

/// Statements per block of the ladder stretch. The rungs are descended a
/// block at a time — all of rung 0, then all of rung 1, ... — so that each
/// rung runs back to back with itself, as it does in an end-to-end run,
/// and not with the other rungs' code and data in between.
const LADDER_BLOCK: usize = 64;

/// A prepared statement that ran over the wire in the ladder stretch.
struct Pending {
    stmt: usize,
    name: &'static str,
    values: Vec<Value>,
    direct: Option<Direct>,
    op_id: u64,
    /// Its rung-0 span.
    wire: u32,
}

/// Rungs 1–4 for a block of prepared statements: in process, compile
/// only, the direct dataset call, and the result rows through the wire
/// codec.
fn ladder_below_wire(tr: &mut Tracer, env: &Env, stmts: &[Stmt], block: Vec<Pending>) {
    let inproc: Vec<(u32, Option<Vec<Value>>)> = block
        .iter()
        .map(|p| {
            let (span, rows) = tr.span(RUNG_INPROC, p.name, p.op_id, Some(p.wire), || {
                env.instance.execute_prepared_in(&env.session, &stmts[p.stmt].inproc, &p.values)
            });
            (span, rows.ok())
        })
        .collect();
    for (p, (span, _)) in block.iter().zip(&inproc) {
        tr.span(RUNG_COMPILE, p.name, p.op_id, Some(*span), || {
            std::hint::black_box(env.instance.explain(&stmts[p.stmt].text).is_ok())
        });
    }
    for (p, (span, _)) in block.iter().zip(&inproc) {
        let Some(direct) = p.direct else { continue };
        tr.span(RUNG_STORAGE, p.name, p.op_id, Some(*span), || match direct {
            Direct::User(id) => std::hint::black_box(env.users.get(&[Value::Int64(id)]).is_ok()),
            Direct::Message(id) => {
                std::hint::black_box(env.messages.get(&[Value::Int64(id)]).is_ok())
            }
        });
    }
    let encoded: Vec<Option<(u32, Vec<u8>)>> = block
        .iter()
        .zip(inproc)
        .map(|(p, (_, rows))| {
            let results = [StatementResult::Rows(rows?)];
            Some(tr.span(RUNG_ENCODE, p.name, p.op_id, Some(p.wire), || encode_results(&results)))
        })
        .collect();
    for (p, (span, payload)) in block.iter().zip(encoded).filter_map(|(p, e)| Some((p, e?))) {
        tr.span(RUNG_DECODE, p.name, p.op_id, Some(span), || {
            std::hint::black_box(decode_results(&payload).is_ok())
        });
    }
}

/// The per-workload state that decides what the next operation is.
pub enum Ops {
    /// op = one hot-prepared primary-key lookup of a user; 5 % absent.
    PointLookup { rng: Rng },
    /// op = one round of every prepared shape, windows drawn per round.
    Rounds { rng: Rng },
    /// op = one cycle of inserts, lookups, a range query and sometimes a
    /// delete, all on the one connection.
    Ingest(Box<Ingest>),
}

pub struct Ingest {
    rng: Rng,
    pub live: LiveSet,
    next_id: i64,
    /// Ids inserted in the last `RECENT_CYCLES` cycles, oldest first.
    recent: VecDeque<Vec<i64>>,
    cycle: u64,
    /// Acknowledged inserts and deletes (records), for the write-path
    /// ratios.
    pub records_written: u64,
}

const RECENT_CYCLES: usize = 50;
const DELETE_EVERY: u64 = 10;

impl Ops {
    pub fn new(workload: Workload, seed: u64, oracle: &Oracle) -> Ops {
        // A stream of its own, so operations do not replay the corpus draws.
        let rng = Rng::new(seed ^ 0x6F70_735F_7374_7265);
        match workload {
            Workload::PointLookup => Ops::PointLookup { rng },
            Workload::IndexQueries | Workload::ScanQueries => Ops::Rounds { rng },
            Workload::IngestMixed => Ops::Ingest(Box::new(Ingest {
                rng,
                live: LiveSet::default(),
                next_id: oracle.scale.messages as i64,
                recent: VecDeque::new(),
                cycle: 0,
                records_written: 0,
            })),
        }
    }

    fn op(&mut self, x: &mut Executor<'_>) {
        match self {
            Ops::PointLookup { rng } => {
                let users = x.env.oracle.scale.users as i64;
                let id = if rng.chance(0.05) {
                    users + rng.range(0, users)
                } else {
                    rng.range(0, users)
                };
                let args = [Arg::Id(id)];
                let expect = POINT_LOOKUP.expect(&x.env.oracle, &args);
                x.prepared(0, POINT_LOOKUP.name, &args, &expect, Some(Direct::User(id)));
            }
            Ops::Rounds { rng } => {
                for i in 0..x.stmts.len() {
                    let shape = x.stmts[i].shape;
                    let args = shape.draw_args(rng);
                    let expect = shape.expect(&x.env.oracle, &args);
                    x.prepared(i, shape.name, &args, &expect, None);
                }
            }
            Ops::Ingest(state) => state.cycle(x),
        }
    }
}

impl Ingest {
    fn fresh_records(&mut self, o: &Oracle, n: usize) -> Vec<Value> {
        let first = self.next_id;
        self.next_id += n as i64;
        (first..self.next_id).map(|id| o.message(id)).collect()
    }

    fn note_inserted(&mut self, records: &[Value]) {
        let ids = self.recent.back_mut().expect("cycle pushed its id list");
        for m in records {
            ids.push(self.live.note_insert(m));
        }
        self.records_written += records.len() as u64;
    }

    fn insert(&mut self, x: &mut Executor<'_>, shape: &'static str, n: usize) {
        let records = self.fresh_records(&x.env.oracle, n);
        let twin = x.traced().then(|| self.fresh_records(&x.env.oracle, n));
        let twin_text = twin.as_deref().map(shapes::insert_text);
        let expect = Expect::Count(n as u64);
        let (ok, twin_ok) =
            x.text(shape, &shapes::insert_text(&records), twin_text.as_deref(), &expect);
        if ok {
            self.note_inserted(&records);
        }
        if let (true, Some(twin)) = (twin_ok, &twin) {
            self.note_inserted(twin);
        }
    }

    /// Both lookup steps run the one prepared message lookup; the latency
    /// is filed under the step's own name.
    fn lookup(&mut self, x: &mut Executor<'_>, step: &'static str, id: i64) {
        let expect = if self.live.is_removed(id) { Expect::Rows(0) } else { Expect::Message(id) };
        x.prepared(0, step, &[Arg::Id(id)], &expect, Some(Direct::Message(id)));
    }

    fn delete(&mut self, x: &mut Executor<'_>, id: i64) {
        let base = x.env.oracle.scale.messages;
        let (ok, _) = x.text(DELETE_PK, &shapes::delete_text(id), None, &Expect::Count(1));
        if ok {
            self.live.note_delete(&x.env.oracle.message(id), base);
            self.records_written += 1;
        }
    }

    fn cycle(&mut self, x: &mut Executor<'_>) {
        self.recent.push_back(Vec::new());
        if self.recent.len() > RECENT_CYCLES {
            self.recent.pop_front();
        }
        let base = x.env.oracle.scale.messages as i64;
        for _ in 0..2 {
            self.insert(x, INSERT_BATCH20, 20);
            self.insert(x, INSERT_SINGLE, 1);
            // A recent cycle, then one of the ids it inserted (none if its
            // inserts failed).
            let ids = &self.recent[self.rng.below(self.recent.len() as u64) as usize];
            if !ids.is_empty() {
                let id = ids[self.rng.below(ids.len() as u64) as usize];
                self.lookup(x, LOOKUP_RECENT.name, id);
            }
            let old = self.rng.range(0, base);
            self.lookup(x, LOOKUP_OLD.name, old);
        }
        let args = RANGE_IX_FRESH.draw_args(&mut self.rng);
        let (Arg::Time(lo), Arg::Time(hi)) = (args[0], args[1]) else {
            unreachable!("range windows are times")
        };
        let expect = Expect::Rows(self.live.range_count(&x.env.oracle, lo, hi));
        x.prepared(1, RANGE_IX_FRESH.name, &args, &expect, None);
        self.cycle += 1;
        if self.cycle.is_multiple_of(DELETE_EVERY) {
            // Alternate between a corpus message and a fresh one.
            let id = if (self.cycle / DELETE_EVERY).is_multiple_of(2) {
                self.rng.range(0, base)
            } else {
                self.live.added.iter().next().map(|&(_, id)| id).unwrap_or(0)
            };
            if !self.live.is_removed(id) {
                self.delete(x, id);
            }
        }
    }
}

/// How a phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this many operations (warm-up).
    Ops(usize),
    /// When this much time has passed, finishing the operation under way.
    Elapsed(Duration),
    /// Whichever comes first.
    OpsOrElapsed(usize, Duration),
}

/// Run operations back to back — a closed loop of one client — until
/// `until`, and return the wall time of the phase.
pub fn run_phase(
    env: &mut Env,
    stmts: &[Stmt],
    ops: &mut Ops,
    rec: &mut Recorder,
    tracer: Option<&mut Tracer>,
    until: Until,
) -> Duration {
    let mut x = Executor::new(env, stmts, rec, tracer);
    let start = Instant::now();
    let mut done = 0usize;
    loop {
        x.begin_op();
        ops.op(&mut x);
        x.end_op(start.elapsed());
        done += 1;
        let over = match until {
            Until::Ops(n) => done >= n,
            Until::Elapsed(d) => start.elapsed() >= d,
            Until::OpsOrElapsed(n, d) => done >= n || start.elapsed() >= d,
        };
        if over {
            let wall = start.elapsed();
            x.descend();
            return wall;
        }
    }
}
