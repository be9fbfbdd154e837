//! Offset-prefixed tuple codec and zero-copy accessors.
//!
//! Hyracks moves *serialized* tuples between operators inside fixed-size
//! byte frames; comparators, hashers and partitioners work directly on the
//! bytes (Section 4.1). This module defines the wire format of one tuple
//! and the borrowed views over it:
//!
//! ```text
//! [u16 field_count n][u32 end_0][u32 end_1]...[u32 end_{n-1}][field bytes]
//! ```
//!
//! `end_i` is the exclusive end offset of field `i` *relative to the start
//! of the field-bytes region*, so field `i` occupies
//! `data[end_{i-1}..end_i]` (with `end_{-1} = 0`). Each field is one
//! self-describing [`crate::serde`] value. The offset prefix makes any
//! field addressable in O(1) without decoding its neighbours:
//! [`TupleRef`] slices a field, [`ValueRef`] decodes it lazily.

use std::cmp::Ordering;

use crate::error::{AdmError, Result};
use crate::serde;
use crate::types::PrimitiveType;
use crate::value::Value;

/// Size of the per-tuple field-count header.
pub const TUPLE_HEADER: usize = 2;

/// Encoding of a lone MISSING value — what an out-of-range field access
/// yields, mirroring `Tuple::get(i) == None` semantics.
const MISSING_BYTES: [u8; 1] = [serde::T_MISSING];

/// Append the offset-prefixed encoding of `fields` to `out`.
pub fn encode_tuple_into(out: &mut Vec<u8>, fields: &[Value]) {
    let n = fields.len();
    debug_assert!(n <= u16::MAX as usize, "tuple arity {n} exceeds u16");
    out.extend_from_slice(&(n as u16).to_le_bytes());
    let ends_pos = out.len();
    out.resize(ends_pos + 4 * n, 0);
    let data_start = out.len();
    for (i, v) in fields.iter().enumerate() {
        serde::encode_append(out, v);
        let end = (out.len() - data_start) as u32;
        out[ends_pos + 4 * i..ends_pos + 4 * i + 4].copy_from_slice(&end.to_le_bytes());
    }
}

/// Append a one-column tuple whose single field is already encoded —
/// the columnar scan's late-materialization path, where the record bytes
/// were assembled from column runs without a `Value` detour.
pub fn encode_tuple_from_encoded(out: &mut Vec<u8>, value_bytes: &[u8]) {
    out.extend_from_slice(&1u16.to_le_bytes());
    out.extend_from_slice(&(value_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(value_bytes);
}

/// Encode a tuple into a fresh buffer.
pub fn encode_tuple(fields: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(TUPLE_HEADER + 12 * fields.len());
    encode_tuple_into(&mut out, fields);
    out
}

/// Byte-level tuple concatenation: the row `a ++ b` without decoding a
/// single field (the hash-join output path). Field bytes are copied
/// verbatim; only the header and offset prefix are rebuilt.
pub fn concat_tuples_into(out: &mut Vec<u8>, a: &TupleRef<'_>, b: &TupleRef<'_>) {
    let n = a.field_count() + b.field_count();
    debug_assert!(n <= u16::MAX as usize, "tuple arity {n} exceeds u16");
    out.extend_from_slice(&(n as u16).to_le_bytes());
    let shift = a.data.len() as u32;
    for i in 0..a.field_count() {
        out.extend_from_slice(&(a.end(i) as u32).to_le_bytes());
    }
    for i in 0..b.field_count() {
        out.extend_from_slice(&(b.end(i) as u32 + shift).to_le_bytes());
    }
    out.extend_from_slice(a.data);
    out.extend_from_slice(b.data);
}

/// A borrowed, validated view over one encoded tuple.
#[derive(Clone, Copy)]
pub struct TupleRef<'a> {
    /// The `u32` end-offset prefix, one entry per field.
    ends: &'a [u8],
    /// The concatenated field encodings.
    data: &'a [u8],
}

impl<'a> TupleRef<'a> {
    /// Validate the header and offsets of `buf` and return a view.
    pub fn new(buf: &'a [u8]) -> Result<TupleRef<'a>> {
        if buf.len() < TUPLE_HEADER {
            return Err(AdmError::Corrupt("tuple shorter than its header".into()));
        }
        let n = u16::from_le_bytes([buf[0], buf[1]]) as usize;
        let data_start = TUPLE_HEADER + 4 * n;
        if buf.len() < data_start {
            return Err(AdmError::Corrupt(format!(
                "tuple of arity {n} truncated at {} bytes",
                buf.len()
            )));
        }
        let t = TupleRef { ends: &buf[TUPLE_HEADER..data_start], data: &buf[data_start..] };
        let mut prev = 0usize;
        for i in 0..n {
            let end = t.end(i);
            if end < prev || end > t.data.len() {
                return Err(AdmError::Corrupt(format!("field {i} end offset {end} out of order")));
            }
            prev = end;
        }
        if prev != t.data.len() {
            return Err(AdmError::Corrupt(format!(
                "{} trailing bytes after last field",
                t.data.len() - prev
            )));
        }
        Ok(t)
    }

    /// Number of fields.
    pub fn field_count(&self) -> usize {
        self.ends.len() / 4
    }

    fn end(&self, i: usize) -> usize {
        u32::from_le_bytes(self.ends[4 * i..4 * i + 4].try_into().unwrap()) as usize
    }

    /// The encoded bytes of field `i`; the MISSING encoding when `i` is out
    /// of range (matching `Vec<Value>::get` returning `None`).
    pub fn field_bytes(&self, i: usize) -> &'a [u8] {
        if i >= self.field_count() {
            return &MISSING_BYTES;
        }
        let start = if i == 0 { 0 } else { self.end(i - 1) };
        &self.data[start..self.end(i)]
    }

    /// Lazy single-field view.
    pub fn field(&self, i: usize) -> ValueRef<'a> {
        ValueRef(self.field_bytes(i))
    }

    /// Decode field `i` into an owned `Value` (MISSING when out of range).
    pub fn field_value(&self, i: usize) -> Result<Value> {
        self.field(i).to_value()
    }

    /// Decode the whole tuple.
    pub fn decode(&self) -> Result<Vec<Value>> {
        let n = self.field_count();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(self.field_value(i)?);
        }
        Ok(out)
    }
}

/// A lazily-decoded view over one encoded field.
///
/// Scalar accessors parse just the tag and payload they need; `to_value`
/// materializes the full `Value` for staged-migration call sites.
#[derive(Clone, Copy)]
pub struct ValueRef<'a>(&'a [u8]);

impl<'a> ValueRef<'a> {
    /// View over a standalone encoded value.
    pub fn new(bytes: &'a [u8]) -> ValueRef<'a> {
        ValueRef(bytes)
    }

    /// The raw encoded bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.0
    }

    /// The self-describing type tag (MISSING for an empty slice).
    pub fn tag(&self) -> u8 {
        self.0.first().copied().unwrap_or(serde::T_MISSING)
    }

    pub fn is_missing(&self) -> bool {
        self.tag() == serde::T_MISSING
    }

    pub fn is_null(&self) -> bool {
        self.tag() == serde::T_NULL
    }

    /// Null or missing, without decoding.
    pub fn is_unknown(&self) -> bool {
        self.tag() <= serde::T_NULL
    }

    /// The primitive type of a scalar, read off its tag (`None` for null,
    /// missing, records and lists).
    pub fn primitive_type(&self) -> Option<PrimitiveType> {
        use PrimitiveType as P;
        Some(match self.tag() {
            serde::T_FALSE | serde::T_TRUE => P::Boolean,
            serde::T_INT8 => P::Int8,
            serde::T_INT16 => P::Int16,
            serde::T_INT32 => P::Int32,
            serde::T_INT64 => P::Int64,
            serde::T_FLOAT => P::Float,
            serde::T_DOUBLE => P::Double,
            serde::T_STRING => P::String,
            serde::T_DATE => P::Date,
            serde::T_TIME => P::Time,
            serde::T_DATETIME => P::DateTime,
            serde::T_DURATION => P::Duration,
            serde::T_YM_DURATION => P::YearMonthDuration,
            serde::T_DT_DURATION => P::DayTimeDuration,
            serde::T_INTERVAL => P::Interval,
            serde::T_POINT => P::Point,
            serde::T_LINE => P::Line,
            serde::T_RECTANGLE => P::Rectangle,
            serde::T_CIRCLE => P::Circle,
            serde::T_POLYGON => P::Polygon,
            serde::T_BINARY => P::Binary,
            _ => return None,
        })
    }

    /// Integer fast path, mirroring `Value::as_i64`.
    pub fn as_i64(&self) -> Option<i64> {
        let p = self.0.get(1..).unwrap_or(&[]);
        match self.tag() {
            serde::T_INT8 => Some(*p.first()? as i8 as i64),
            serde::T_INT16 => Some(i16::from_le_bytes(p.get(..2)?.try_into().unwrap()) as i64),
            serde::T_INT32 => Some(i32::from_le_bytes(p.get(..4)?.try_into().unwrap()) as i64),
            serde::T_INT64 => Some(i64::from_le_bytes(p.get(..8)?.try_into().unwrap())),
            _ => None,
        }
    }

    /// Numeric fast path, mirroring `Value::as_f64`.
    pub fn as_f64(&self) -> Option<f64> {
        let p = self.0.get(1..).unwrap_or(&[]);
        match self.tag() {
            serde::T_FLOAT => Some(f32::from_le_bytes(p.get(..4)?.try_into().unwrap()) as f64),
            serde::T_DOUBLE => Some(f64::from_le_bytes(p.get(..8)?.try_into().unwrap())),
            _ => self.as_i64().map(|v| v as f64),
        }
    }

    /// Zero-copy string access, mirroring `Value::as_str`.
    pub fn as_str(&self) -> Option<&'a str> {
        if self.tag() != serde::T_STRING {
            return None;
        }
        let (len, consumed) = read_varint(&self.0[1..])?;
        let start = 1 + consumed;
        let bytes = self.0.get(start..start + len as usize)?;
        std::str::from_utf8(bytes).ok()
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self.tag() {
            serde::T_FALSE => Some(false),
            serde::T_TRUE => Some(true),
            _ => None,
        }
    }

    /// Decode into an owned `Value`.
    pub fn to_value(&self) -> Result<Value> {
        serde::decode(self.0)
    }

    /// `self.to_value()?.stable_hash()` computed over the encoded bytes,
    /// bit-identical to `Value::stable_hash` (see
    /// [`serde::stable_hash_encoded`]). Corrupt bytes fall back to hashing
    /// the raw slice so routing stays total.
    pub fn stable_hash(&self) -> u64 {
        serde::stable_hash_encoded(self.0).unwrap_or_else(|_| {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let mut h = DefaultHasher::new();
            self.0.hash(&mut h);
            h.finish()
        })
    }

    /// Total order over two encoded values, via the canonical comparison
    /// key: agrees with `Value::total_cmp` (see `crate::ordkey` caveats).
    pub fn total_cmp(&self, other: &ValueRef<'_>) -> Result<Ordering> {
        let a = self.to_value()?;
        let b = other.to_value()?;
        Ok(a.total_cmp(&b))
    }
}

fn read_varint(buf: &[u8]) -> Option<(u64, usize)> {
    let mut v: u64 = 0;
    let mut shift = 0;
    for (i, &byte) in buf.iter().enumerate() {
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some((v, i + 1));
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
    None
}

/// Convenience: decode a standalone encoded tuple.
pub fn decode_tuple(buf: &[u8]) -> Result<Vec<Value>> {
    TupleRef::new(buf)?.decode()
}

/// Append computed values to an encoded tuple at the byte level: the row
/// `t ++ vals` without decoding any of `t`'s fields (the fused Assign
/// path). `t`'s field bytes are copied verbatim; only the header and
/// offset prefix are rebuilt, and the new values are encoded in place.
pub fn append_values_into(out: &mut Vec<u8>, t: &TupleRef<'_>, vals: &[Value]) {
    let n = t.field_count() + vals.len();
    debug_assert!(n <= u16::MAX as usize, "tuple arity {n} exceeds u16");
    out.extend_from_slice(&(n as u16).to_le_bytes());
    for i in 0..t.field_count() {
        out.extend_from_slice(&(t.end(i) as u32).to_le_bytes());
    }
    let ends_pos = out.len();
    out.resize(ends_pos + 4 * vals.len(), 0);
    let data_start = out.len();
    out.extend_from_slice(t.data);
    for (i, v) in vals.iter().enumerate() {
        serde::encode_append(out, v);
        let end = (out.len() - data_start) as u32;
        out[ends_pos + 4 * i..ends_pos + 4 * i + 4].copy_from_slice(&end.to_le_bytes());
    }
}

/// Project a subset of fields at the byte level: re-slices the kept
/// fields' encodings into a fresh tuple without decoding them.
pub fn project_tuple_into(out: &mut Vec<u8>, t: &TupleRef<'_>, fields: &[usize]) {
    let n = fields.len();
    debug_assert!(n <= u16::MAX as usize);
    out.extend_from_slice(&(n as u16).to_le_bytes());
    let ends_pos = out.len();
    out.resize(ends_pos + 4 * n, 0);
    let data_start = out.len();
    for (i, &f) in fields.iter().enumerate() {
        out.extend_from_slice(t.field_bytes(f));
        let end = (out.len() - data_start) as u32;
        out[ends_pos + 4 * i..ends_pos + 4 * i + 4].copy_from_slice(&end.to_le_bytes());
    }
}

impl std::fmt::Debug for TupleRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.decode() {
            Ok(vals) => write!(f, "TupleRef{vals:?}"),
            Err(_) => write!(f, "TupleRef<corrupt {} bytes>", self.data.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Point, Record};

    fn sample_tuple() -> Vec<Value> {
        vec![
            Value::Int64(42),
            Value::string("hello"),
            Value::Missing,
            Value::Null,
            Value::record(Record::from_fields([
                ("a", Value::Int32(1)),
                ("b", Value::ordered_list(vec![Value::Double(2.5), Value::Boolean(true)])),
            ])),
            Value::Point(Point::new(1.0, -2.0)),
        ]
    }

    #[test]
    fn roundtrip_and_field_access() {
        let t = sample_tuple();
        let bytes = encode_tuple(&t);
        let r = TupleRef::new(&bytes).unwrap();
        assert_eq!(r.field_count(), t.len());
        assert_eq!(r.decode().unwrap(), t);
        assert_eq!(r.field(0).as_i64(), Some(42));
        assert_eq!(r.field(1).as_str(), Some("hello"));
        assert!(r.field(2).is_missing());
        assert!(r.field(3).is_null());
        assert!(r.field(3).is_unknown());
        assert!(!r.field(0).is_unknown());
        // Out-of-range access behaves like a missing field.
        assert!(r.field(99).is_missing());
        assert_eq!(r.field_value(99).unwrap(), Value::Missing);
    }

    #[test]
    fn empty_tuple() {
        let bytes = encode_tuple(&[]);
        let r = TupleRef::new(&bytes).unwrap();
        assert_eq!(r.field_count(), 0);
        assert_eq!(r.decode().unwrap(), Vec::<Value>::new());
    }

    #[test]
    fn concat_matches_value_level_concat() {
        let a = vec![Value::Int64(1), Value::string("x")];
        let b = vec![Value::Double(2.5), Value::Null, Value::string("y")];
        let (ea, eb) = (encode_tuple(&a), encode_tuple(&b));
        let mut out = Vec::new();
        concat_tuples_into(&mut out, &TupleRef::new(&ea).unwrap(), &TupleRef::new(&eb).unwrap());
        let mut joined = a.clone();
        joined.extend(b.iter().cloned());
        assert_eq!(out, encode_tuple(&joined));
    }

    #[test]
    fn append_values_matches_value_level_append() {
        let t = sample_tuple();
        let bytes = encode_tuple(&t);
        let vals = vec![Value::Int64(7), Value::string("computed"), Value::Missing];
        let mut out = Vec::new();
        append_values_into(&mut out, &TupleRef::new(&bytes).unwrap(), &vals);
        let mut joined = t.clone();
        joined.extend(vals.iter().cloned());
        assert_eq!(out, encode_tuple(&joined));
        // Appending nothing is an exact copy.
        let mut copy = Vec::new();
        append_values_into(&mut copy, &TupleRef::new(&bytes).unwrap(), &[]);
        assert_eq!(copy, bytes);
    }

    #[test]
    fn project_reslices_fields() {
        let t = sample_tuple();
        let bytes = encode_tuple(&t);
        let r = TupleRef::new(&bytes).unwrap();
        let mut out = Vec::new();
        project_tuple_into(&mut out, &r, &[1, 0, 9]);
        let projected = decode_tuple(&out).unwrap();
        assert_eq!(projected, vec![t[1].clone(), t[0].clone(), Value::Missing]);
    }

    #[test]
    fn stable_hash_matches_value_hash() {
        for v in sample_tuple() {
            let enc = crate::serde::encode(&v);
            assert_eq!(
                ValueRef::new(&enc).stable_hash(),
                v.stable_hash(),
                "byte-level hash differs for {v}"
            );
        }
    }

    #[test]
    fn corrupt_tuples_rejected() {
        assert!(TupleRef::new(&[]).is_err());
        assert!(TupleRef::new(&[5, 0]).is_err()); // arity 5, no offsets
        let mut bytes = encode_tuple(&sample_tuple());
        bytes.pop();
        assert!(TupleRef::new(&bytes).is_err());
    }
}
