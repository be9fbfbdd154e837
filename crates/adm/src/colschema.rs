//! Flush-time schema inference and record shredding for columnar LSM
//! components.
//!
//! The LSM tuple-compaction idea: no schema is declared up front, so the
//! flush watches the self-describing records that actually arrive, freezes
//! a schema of the stable top-level fields, and shreds matching records
//! into per-column byte runs. Everything that does not fit — rare fields,
//! heterogeneously-typed fields, non-record rows — falls back to a
//! row-stored "spill" representation, so the columnar format never loses
//! information and reads can reproduce the original encoding byte for
//! byte.
//!
//! Everything here operates on the self-describing [`crate::serde`]
//! encoding directly; no `Value` is materialized on either the shred or
//! the splice path.

use std::collections::BTreeMap;

use crate::error::{AdmError, Result};
use crate::serde::{self, for_each_record_field};
use crate::types::RecordType;

/// Append one LEB128 varint (same wire format as [`crate::serde`]).
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// One stable top-level column chosen by schema inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSpec {
    pub name: String,
    /// The self-describing type tag shared by every non-null occurrence
    /// of the field in the observed rows.
    pub tag: u8,
    /// Number of observed rows in which the field was present.
    pub count: u64,
}

/// The schema inferred from one frozen component's records: the ordered
/// set of columns worth storing column-major, plus how many rows were
/// observed to pick them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InferredSchema {
    pub columns: Vec<ColumnSpec>,
    pub rows: u64,
}

impl InferredSchema {
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Serialize for the component footer's schema blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_varint(&mut out, self.rows);
        write_varint(&mut out, self.columns.len() as u64);
        for c in &self.columns {
            write_varint(&mut out, c.name.len() as u64);
            out.extend_from_slice(c.name.as_bytes());
            out.push(c.tag);
            write_varint(&mut out, c.count);
        }
        out
    }

    /// Parse a schema blob, requiring full consumption.
    pub fn from_bytes(buf: &[u8]) -> Option<InferredSchema> {
        let mut pos = 0;
        let varint = |pos: &mut usize| -> Option<u64> {
            let (v, n) = serde::read_varint(buf.get(*pos..)?)?;
            *pos += n;
            Some(v)
        };
        let rows = varint(&mut pos)?;
        let ncols = varint(&mut pos)? as usize;
        let mut columns = Vec::with_capacity(ncols.min(1 << 12));
        for _ in 0..ncols {
            let len = varint(&mut pos)? as usize;
            let name = std::str::from_utf8(buf.get(pos..pos + len)?).ok()?.to_string();
            pos += len;
            let tag = *buf.get(pos)?;
            pos += 1;
            let count = varint(&mut pos)?;
            columns.push(ColumnSpec { name, tag, count });
        }
        if pos != buf.len() {
            return None;
        }
        Some(InferredSchema { columns, rows })
    }
}

/// Per-path observation stats: which type tags a field path was seen
/// with (null excluded — a nullable column is still a column) and in how
/// many rows it appeared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldPathStat {
    /// Dot-joined path from the record root (`"user.name"`).
    pub path: String,
    /// Distinct non-null type tags observed, ascending.
    pub tags: Vec<u8>,
    /// Rows in which the path was present.
    pub count: u64,
}

#[derive(Debug, Default)]
struct PathStat {
    /// Per non-null tag occurrence counts, ascending by tag.
    tags: Vec<(u8, u64)>,
    count: u64,
}

/// A field qualifies for a column only when its most frequent non-null
/// tag covers at least this fraction of its non-null occurrences; rows
/// carrying a minority tag spill whole. Below the bar the field is
/// genuinely heterogeneous and lives in the per-row rest record instead.
const DOMINANT_TAG_FRACTION: f64 = 0.9;

impl PathStat {
    fn note(&mut self, tag: u8) {
        self.count += 1;
        if tag != serde::T_NULL {
            match self.tags.binary_search_by_key(&tag, |&(t, _)| t) {
                Ok(i) => self.tags[i].1 += 1,
                Err(i) => self.tags.insert(i, (tag, 1)),
            }
        }
    }

    fn distinct_tags(&self) -> Vec<u8> {
        self.tags.iter().map(|&(t, _)| t).collect()
    }

    /// The dominant non-null tag, if one covers enough of the non-null
    /// occurrences to anchor a column.
    fn dominant(&self) -> Option<u8> {
        let total: u64 = self.tags.iter().map(|&(_, n)| n).sum();
        let &(tag, n) = self.tags.iter().max_by_key(|&&(_, n)| n)?;
        (n as f64 >= total as f64 * DOMINANT_TAG_FRACTION).then_some(tag)
    }
}

/// How deep [`SchemaBuilder::observe`] descends into nested records when
/// collecting dotted path statistics. Only top-level fields become
/// columns; deeper paths feed observability and future nested shredding.
const MAX_PATH_DEPTH: usize = 3;

/// Streaming schema inference over a frozen component's records.
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    rows: u64,
    /// Top-level field names in first-seen order: the column order of
    /// fields the record type does not declare.
    order: Vec<String>,
    top: BTreeMap<String, PathStat>,
    nested: BTreeMap<String, PathStat>,
}

impl SchemaBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Observe one self-describing encoded record. Returns `false`
    /// (recording nothing) when the bytes do not encode a record — such
    /// rows can only be stored on the spill path.
    pub fn observe(&mut self, record_sd: &[u8]) -> bool {
        let SchemaBuilder { rows, order, top, nested } = self;
        // One path buffer for every nested field of the row; a name or a
        // path is allocated only the first time it is seen.
        let mut path = String::new();
        let is_record = for_each_record_field(record_sd, &mut |name, bytes| {
            let tag = bytes.first().copied().unwrap_or(serde::T_MISSING);
            match top.get_mut(name) {
                Some(s) => s.note(tag),
                None => {
                    order.push(name.to_string());
                    top.entry(name.to_string()).or_default().note(tag);
                }
            }
            if tag == serde::T_RECORD {
                path.clear();
                path.push_str(name);
                Self::observe_nested(nested, &mut path, bytes, 1);
            }
            true
        });
        match is_record {
            Ok(true) => {
                *rows += 1;
                true
            }
            _ => false,
        }
    }

    /// Note every field of the nested record `bytes` found at `path`,
    /// which is restored before returning.
    fn observe_nested(
        nested: &mut BTreeMap<String, PathStat>,
        path: &mut String,
        bytes: &[u8],
        depth: usize,
    ) {
        if depth > MAX_PATH_DEPTH {
            return;
        }
        let prefix = path.len();
        let _ = for_each_record_field(bytes, &mut |name, fbytes| {
            let tag = fbytes.first().copied().unwrap_or(serde::T_MISSING);
            path.truncate(prefix);
            path.push('.');
            path.push_str(name);
            match nested.get_mut(path.as_str()) {
                Some(s) => s.note(tag),
                None => nested.entry(path.clone()).or_default().note(tag),
            }
            if tag == serde::T_RECORD {
                Self::observe_nested(nested, path, fbytes, depth + 1);
            }
            true
        });
        path.truncate(prefix);
    }

    /// Every observed field path (top-level and dotted nested) with its
    /// presence count and distinct non-null tags.
    pub fn field_paths(&self) -> Vec<FieldPathStat> {
        let mut out: Vec<FieldPathStat> = self
            .top
            .iter()
            .chain(self.nested.iter())
            .map(|(path, s)| FieldPathStat {
                path: path.clone(),
                tags: s.distinct_tags(),
                count: s.count,
            })
            .collect();
        out.sort_by(|a, b| a.path.cmp(&b.path));
        out
    }

    /// Freeze the schema: a top-level field becomes a column when it was
    /// present in at least `min_presence` of the observed rows and one
    /// type tag dominates its non-null occurrences (see
    /// [`DOMINANT_TAG_FRACTION`]); rows carrying a minority tag spill
    /// whole at shred time. Genuinely heterogeneous and rare fields are
    /// left to the per-row "rest" record; always-null fields have no
    /// useful column representation either. At most `max_columns` survive
    /// (highest presence wins).
    ///
    /// Columns come in `declared` order — the record type's fields, in
    /// the order the typed encoding yields them — and then the undeclared
    /// (open) fields in first-seen order. Which fields a component's first
    /// rows hold therefore moves no declared column, so the components of
    /// a stable dataset infer one column list, and a spliced record
    /// already is in typed order.
    pub fn finish(
        self,
        declared: &[String],
        min_presence: f64,
        max_columns: usize,
    ) -> InferredSchema {
        if self.rows == 0 {
            return InferredSchema::default();
        }
        let threshold = ((self.rows as f64) * min_presence).ceil().max(1.0) as u64;
        let rank = |name: &str, seen: usize| {
            declared.iter().position(|d| d == name).unwrap_or(declared.len() + seen)
        };
        let mut picked: Vec<(usize, ColumnSpec)> = Vec::new();
        for (i, name) in self.order.iter().enumerate() {
            let s = &self.top[name];
            if s.count >= threshold {
                if let Some(tag) = s.dominant() {
                    picked.push((
                        rank(name, i),
                        ColumnSpec { name: name.clone(), tag, count: s.count },
                    ));
                }
            }
        }
        if picked.len() > max_columns {
            picked.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(&b.0)));
            picked.truncate(max_columns);
        }
        picked.sort_by_key(|(rank, _)| *rank);
        InferredSchema { columns: picked.into_iter().map(|(_, c)| c).collect(), rows: self.rows }
    }
}

/// A record shredded against an [`InferredSchema`]: per-column encoded
/// field bytes (`None` = absent in this record) plus a row-stored "rest"
/// record carrying every leftover field in its original order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shredded<'a> {
    pub cols: Vec<Option<&'a [u8]>>,
    pub rest: Option<Vec<u8>>,
}

/// Shred one encoded record. Returns `None` — the caller's whole-row
/// spill signal — when the bytes are not a record, a field name repeats
/// (splice order would be ambiguous), or a schema column occurs with a
/// tag other than its inferred one (heterogeneous data that slipped past
/// inference, e.g. across merge inputs).
pub fn shred<'a>(schema: &InferredSchema, record_sd: &'a [u8]) -> Option<Shredded<'a>> {
    let mut cols: Vec<Option<&'a [u8]>> = vec![None; schema.columns.len()];
    let mut rest_parts: Vec<(&str, &[u8])> = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    let mut spill = false;
    let walked = for_each_record_field(record_sd, &mut |name, bytes| {
        if seen.contains(&name) {
            spill = true;
            return false;
        }
        seen.push(name);
        match schema.column_index(name) {
            Some(i) => {
                let tag = bytes.first().copied().unwrap_or(serde::T_MISSING);
                if tag == schema.columns[i].tag || tag == serde::T_NULL {
                    cols[i] = Some(bytes);
                } else {
                    spill = true;
                    return false;
                }
            }
            None => rest_parts.push((name, bytes)),
        }
        true
    });
    if spill || !matches!(walked, Ok(true)) {
        return None;
    }
    let rest =
        if rest_parts.is_empty() { None } else { Some(encode_record_from_parts(&rest_parts)) };
    Some(Shredded { cols, rest })
}

/// Build a self-describing record encoding from already-encoded field
/// values — the assembly primitive for both the spill "rest" record and
/// the late-materialized projection output.
pub fn encode_record_from_parts(parts: &[(&str, &[u8])]) -> Vec<u8> {
    let mut out = Vec::new();
    write_record(&mut out, parts.len(), parts.iter().copied());
    out
}

fn write_record<'a>(out: &mut Vec<u8>, n: usize, parts: impl Iterator<Item = (&'a str, &'a [u8])>) {
    out.push(serde::T_RECORD);
    write_varint(out, n as u64);
    for (name, bytes) in parts {
        write_varint(out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(bytes);
    }
}

/// Reassemble the full record from shredded parts: present schema columns
/// in schema order, then the rest record's fields verbatim. Build-time
/// verification compares this against the original encoding; rows where
/// the two differ (open-field order drift, anything surprising) are
/// spilled instead, so reads always reproduce original bytes exactly.
pub fn splice_full(
    schema: &InferredSchema,
    cols: &[Option<&[u8]>],
    rest: Option<&[u8]>,
) -> Result<Vec<u8>> {
    debug_assert_eq!(cols.len(), schema.columns.len());
    let (rest_fields, rest_body) = match rest {
        None => (0u64, &[][..]),
        Some(buf) => {
            let (&tag, after) =
                buf.split_first().ok_or_else(|| AdmError::Corrupt("empty rest record".into()))?;
            if tag != serde::T_RECORD {
                return Err(AdmError::Corrupt(format!("rest blob tag {tag} is not a record")));
            }
            let (n, used) = serde::read_varint(after)
                .ok_or_else(|| AdmError::Corrupt("rest record field count".into()))?;
            (n, &after[used..])
        }
    };
    let present = cols.iter().filter(|c| c.is_some()).count() as u64;
    let mut out = Vec::new();
    out.push(serde::T_RECORD);
    write_varint(&mut out, present + rest_fields);
    for (spec, col) in schema.columns.iter().zip(cols) {
        if let Some(bytes) = col {
            write_varint(&mut out, spec.name.len() as u64);
            out.extend_from_slice(spec.name.as_bytes());
            out.extend_from_slice(bytes);
        }
    }
    out.extend_from_slice(rest_body);
    Ok(out)
}

/// The record `sd` with its top-level fields in the order the typed
/// encoding yields them for `rt` ([`serde::decode_typed`]): declared fields
/// in declared order, then open fields as encountered. [`splice_full`]
/// emits the columns first and the rest record's fields after them, which
/// differs from that order when a declared field did not earn a column
/// but an open field did, or when the schema was inferred without the
/// declared order; a reader that hands spliced records out without a
/// typed round trip calls this to give every storage format the same
/// field order. Returns `sd` itself when it is already in that order (or
/// is not a record), else the re-ordered copy built in `buf`.
pub fn in_typed_order<'a>(sd: &'a [u8], rt: &RecordType, buf: &'a mut Vec<u8>) -> Result<&'a [u8]> {
    // A field's rank: its declared position, or past every declared field.
    let rank = |name: &str| rt.fields.iter().position(|f| f.name == name).unwrap_or(usize::MAX);
    let mut last = 0usize;
    let mut ordered = true;
    for_each_record_field(sd, &mut |name, _| {
        let r = rank(name);
        ordered = r >= last;
        last = r;
        ordered
    })?;
    if ordered {
        return Ok(sd);
    }
    let mut parts: Vec<(usize, &str, &[u8])> = Vec::new();
    for_each_record_field(sd, &mut |name, bytes| {
        parts.push((rank(name), name, bytes));
        true
    })?;
    parts.sort_by_key(|(r, _, _)| *r); // stable: open fields keep their order
    buf.clear();
    write_record(buf, parts.len(), parts.iter().map(|(_, n, b)| (*n, *b)));
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serde::encode;
    use crate::value::{Record, Value};

    fn rec(fields: &[(&str, Value)]) -> Value {
        let mut r = Record::new();
        for (n, v) in fields {
            r.set(*n, v.clone());
        }
        Value::record(r)
    }

    #[test]
    fn inference_picks_stable_fields_and_spills_heterogeneous() {
        let mut b = SchemaBuilder::new();
        for i in 0..10i64 {
            let mixed = if i % 2 == 0 { Value::Int64(i) } else { Value::string("s") };
            let mut fields = vec![
                ("id", Value::Int64(i)),
                ("name", Value::string(format!("u{i}"))),
                ("mixed", mixed),
            ];
            if i == 3 {
                fields.push(("rare", Value::Boolean(true)));
            }
            if i % 3 == 0 {
                fields.push(("nullable", Value::Null));
            } else {
                fields.push(("nullable", Value::Double(0.5)));
            }
            assert!(b.observe(&encode(&rec(&fields))));
        }
        let schema = b.finish(&[], 0.5, 16);
        let names: Vec<&str> = schema.columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["id", "name", "nullable"]);
        assert_eq!(schema.rows, 10);
        let roundtrip = InferredSchema::from_bytes(&schema.to_bytes()).unwrap();
        assert_eq!(roundtrip, schema);
    }

    #[test]
    fn non_records_are_rejected() {
        let mut b = SchemaBuilder::new();
        assert!(!b.observe(&encode(&Value::Int64(7))));
        assert_eq!(b.rows(), 0);
    }

    #[test]
    fn max_columns_keeps_highest_presence_in_arrival_order() {
        let mut b = SchemaBuilder::new();
        for i in 0..4i64 {
            let mut fields = vec![("a", Value::Int64(i)), ("b", Value::Int64(i))];
            if i == 0 {
                fields.push(("c", Value::Int64(i)));
            }
            b.observe(&encode(&rec(&fields)));
        }
        let schema = b.finish(&[], 0.0, 2);
        let names: Vec<&str> = schema.columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    /// Which fields the first rows hold does not move a declared column:
    /// declared fields come in declared order, open fields after them in
    /// first-seen order, also when `max_columns` cuts the list.
    #[test]
    fn columns_follow_the_declared_order_then_first_seen_open_fields() {
        let declared = ["id", "name", "score"].map(String::from);
        let mut b = SchemaBuilder::new();
        // The first row lacks `name` and `score` and holds the open `z`.
        b.observe(&encode(&rec(&[("id", Value::Int64(0)), ("z", Value::Int64(0))])));
        for i in 1..4i64 {
            b.observe(&encode(&rec(&[
                ("id", Value::Int64(i)),
                ("name", Value::string("n")),
                ("score", Value::Double(0.5)),
                ("y", Value::Int64(i)),
                ("z", Value::Int64(i)),
            ])));
        }
        let names = |s: &InferredSchema| -> Vec<String> {
            s.columns.iter().map(|c| c.name.clone()).collect()
        };
        let all = b.finish(&declared, 0.0, 16);
        assert_eq!(names(&all), ["id", "name", "score", "z", "y"]);
        assert_eq!(all.columns.iter().map(|c| c.count).collect::<Vec<_>>(), [4, 3, 3, 4, 3]);
        // Without a declared order, columns are in first-seen order.
        let mut b = SchemaBuilder::new();
        b.observe(&encode(&rec(&[("id", Value::Int64(0)), ("z", Value::Int64(0))])));
        b.observe(&encode(&rec(&[("name", Value::string("n")), ("id", Value::Int64(1))])));
        assert_eq!(names(&b.finish(&[], 0.0, 16)), ["id", "z", "name"]);
        // A cut keeps the most present columns, still in declared order.
        let mut b = SchemaBuilder::new();
        b.observe(&encode(&rec(&[("z", Value::Int64(0)), ("score", Value::Double(0.5))])));
        b.observe(&encode(&rec(&[("z", Value::Int64(1)), ("id", Value::Int64(1))])));
        b.observe(&encode(&rec(&[("score", Value::Double(1.5)), ("id", Value::Int64(2))])));
        b.observe(&encode(&rec(&[("id", Value::Int64(3))])));
        assert_eq!(names(&b.finish(&declared, 0.0, 2)), ["id", "score"]);
    }

    #[test]
    fn shred_splice_roundtrips_bytes() {
        let values = [
            rec(&[
                ("id", Value::Int64(1)),
                ("name", Value::string("alice")),
                ("tags", Value::ordered_list(vec![Value::string("x"), Value::Int64(3)])),
                ("addr", rec(&[("city", Value::string("irvine")), ("zip", Value::Int64(92617))])),
            ]),
            rec(&[("id", Value::Int64(2)), ("extra", Value::Boolean(false))]),
            rec(&[("id", Value::Null), ("name", Value::string("bob"))]),
        ];
        let mut b = SchemaBuilder::new();
        let encoded: Vec<Vec<u8>> = values.iter().map(encode).collect();
        for e in &encoded {
            assert!(b.observe(e));
        }
        let schema = b.finish(&[], 0.5, 16);
        assert!(schema.column_index("id").is_some());
        for e in &encoded {
            let s = shred(&schema, e).expect("shreddable");
            let spliced = splice_full(&schema, &s.cols, s.rest.as_deref()).unwrap();
            assert_eq!(&spliced, e, "splice must reproduce original bytes");
        }
    }

    #[test]
    fn tag_mismatch_and_duplicate_names_spill() {
        let mut b = SchemaBuilder::new();
        let good = encode(&rec(&[("id", Value::Int64(1))]));
        b.observe(&good);
        let schema = b.finish(&[], 0.0, 4);
        let bad_tag = encode(&rec(&[("id", Value::string("oops"))]));
        assert!(shred(&schema, &bad_tag).is_none());
        // A duplicate field name makes splice order ambiguous.
        let dup = encode_record_from_parts(&[
            ("id", &encode(&Value::Int64(1))),
            ("id", &encode(&Value::Int64(2))),
        ]);
        assert!(shred(&schema, &dup).is_none());
        assert!(shred(&schema, &encode(&Value::Int64(9))).is_none());
    }

    #[test]
    fn field_paths_include_nested_records() {
        let mut b = SchemaBuilder::new();
        b.observe(&encode(&rec(&[("addr", rec(&[("geo", rec(&[("lat", Value::Double(1.0))]))]))])));
        let paths: Vec<String> = b.field_paths().into_iter().map(|p| p.path).collect();
        assert!(paths.contains(&"addr".to_string()));
        assert!(paths.contains(&"addr.geo".to_string()));
        assert!(paths.contains(&"addr.geo.lat".to_string()));
    }
}
