//! In-memory spans recorded by the driver around its calls into each
//! layer, written out as Chrome-trace JSON when the run ends.
//!
//! The traced run decomposes an operation by a ladder of substitutions:
//! the same statement with the same parameters over the wire (rung 0),
//! through the in-process entry point (rung 1), compiled only (rung 2),
//! as direct dataset calls (rung 3), and its result rows through the
//! wire codec alone (rung 4). Each rung is one span; the spans of one
//! operation share `op_id`, and a rung's `parent` is the rung it was
//! substituted for. The executor descends the rungs a block of statements
//! at a time, so an operation's spans are not adjacent in time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json::escape;

/// The rungs, named after the crate whose cost the rung adds to the one
/// below it.
pub const RUNG_WIRE: &str = "net.wire";
pub const RUNG_INPROC: &str = "asterixdb.inproc";
pub const RUNG_COMPILE: &str = "asterixdb.compile";
pub const RUNG_STORAGE: &str = "storage.direct";
pub const RUNG_ENCODE: &str = "adm.result_encode";
pub const RUNG_DECODE: &str = "adm.result_decode";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    /// The statement shape the span ran, for the trace viewer.
    pub shape: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    /// Span id of the rung this one was substituted for; `None` at rung 0.
    pub parent: Option<u32>,
    pub op_id: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_us - self.start_us) as f64
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Run `f` inside a span and return the span's id with `f`'s result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        shape: &'static str,
        op_id: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (u32, T) {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name,
            shape,
            start_us: start.as_micros() as u64,
            end_us: end.as_micros() as u64,
            parent,
            op_id,
        });
        (id, out)
    }

    /// Total microseconds per operation spent in spans called `name`, in
    /// operation order (an operation of several statements has several).
    pub fn per_op_micros(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op_id).or_default() += s.micros();
        }
        by_op.into_values().collect()
    }

    /// Chrome-trace ("Trace Event Format") JSON: one complete event per
    /// span, one lane per rung, with `span_id`, `parent` and `op_id` in
    /// `args`.
    pub fn to_chrome_trace(&self, workload: &str) -> String {
        let mut lanes: Vec<&str> = Vec::new();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let tid = match lanes.iter().position(|l| *l == s.name) {
                Some(t) => t,
                None => {
                    lanes.push(s.name);
                    lanes.len() - 1
                }
            };
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\
                 \"tid\":{tid},\"args\":{{\"span_id\":{},\"parent\":{parent},\"op_id\":{},\
                 \"shape\":\"{}\"}}}}",
                escape(s.name),
                escape(s.name.split('.').next().unwrap_or("span")),
                s.start_us,
                s.end_us - s.start_us,
                s.id,
                s.op_id,
                escape(s.shape),
            );
        }
        for (tid, lane) in lanes.iter().enumerate() {
            let _ = write!(
                out,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(lane)
            );
        }
        let _ = write!(
            out,
            ",{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"asterix-perf {}\"}}}}",
            escape(workload)
        );
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn spans_nest_by_parent_and_sum_per_op() {
        let mut t = Tracer::new();
        for op in 0..3u64 {
            let (wire, _) = t.span(RUNG_WIRE, "a", op, None, || std::hint::black_box(1));
            let (inproc, _) = t.span(RUNG_INPROC, "a", op, Some(wire), || ());
            t.span(RUNG_COMPILE, "a", op, Some(inproc), || ());
            t.span(RUNG_WIRE, "b", op, None, || ());
        }
        assert_eq!(t.spans.len(), 12);
        assert_eq!(t.per_op_micros(RUNG_WIRE).len(), 3);
        assert_eq!(t.per_op_micros(RUNG_COMPILE).len(), 3);
        assert!(t.per_op_micros("absent").is_empty());

        let doc = json::parse(&t.to_chrome_trace("w")).unwrap();
        let events = doc.get("traceEvents").unwrap().items();
        let spans: Vec<&json::Json> =
            events.iter().filter(|e| e.get("ph").and_then(|p| p.str()) == Some("X")).collect();
        assert_eq!(spans.len(), 12);
        for s in &spans {
            let args = s.get("args").unwrap();
            if let Some(p) = args.get("parent").and_then(|p| p.num()) {
                let parent = spans
                    .iter()
                    .find(|c| c.get("args").unwrap().get("span_id").unwrap().num() == Some(p))
                    .expect("parent span exists");
                assert_eq!(parent.get("args").unwrap().get("op_id"), args.get("op_id"));
            }
        }
    }
}
