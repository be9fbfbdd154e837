//! Order-preserving key encoding for ADM values.
//!
//! B+-tree components store keys as byte strings compared with `memcmp`;
//! this module encodes (composite) ADM keys such that the byte order agrees
//! with [`Value::total_cmp`] for same-type keys, and with the cross-type
//! rank order otherwise.
//!
//! Numeric caveat (documented, deliberate): all numerics share one rank and
//! are encoded as a sortable `f64` followed by an exact `i64` tiebreak for
//! integers, so `int32 5` and `int64 5` encode identically while `int64 5`
//! and `double 5.0` are adjacent but distinct. Point lookups therefore
//! coerce the probe to the indexed field's declared type before encoding.
//!
//! The bit-flipping primitives and escape scheme are shared with the
//! runtime's comparison-only normalized keys in [`asterix_adm::ordkey`];
//! this module differs in keeping a width tag (keys must *decode* back to
//! their original numeric type) and in rejecting non-key types.

use asterix_adm::ordkey::{
    encode_terminated_bytes, sortable_f64, sortable_i32, sortable_i64, unsortable_f64,
    unsortable_i32, unsortable_i64, ESCAPE, ESCAPED_00,
};
use asterix_adm::value::{DurationValue, IntervalKind, IntervalValue};
use asterix_adm::{AdmError, PrimitiveType, Value, ValueRef};

use crate::error::{Result, StorageError};

const TERMINATOR: [u8; 2] = asterix_adm::ordkey::TERMINATOR;

/// Append the order-preserving encoding of `v` to `out`.
pub fn encode_value(out: &mut Vec<u8>, v: &Value) -> Result<()> {
    match v {
        Value::Null => out.push(0),
        Value::Missing => out.push(1),
        Value::Boolean(b) => {
            out.push(2);
            out.push(u8::from(*b));
        }
        _ if v.is_numeric() => {
            out.push(3);
            let f = v.as_f64().unwrap();
            out.extend_from_slice(&sortable_f64(f).to_be_bytes());
            let tie = v.as_i64().unwrap_or(0);
            out.extend_from_slice(&sortable_i64(tie).to_be_bytes());
            // Width tag so decoding restores the original numeric type.
            out.push(match v {
                Value::Int8(_) => 0,
                Value::Int16(_) => 1,
                Value::Int32(_) => 2,
                Value::Int64(_) => 3,
                Value::Float(_) => 4,
                _ => 5,
            });
        }
        Value::String(s) => {
            out.push(4);
            encode_terminated_bytes(out, s.as_bytes());
        }
        Value::Date(d) => {
            out.push(5);
            out.extend_from_slice(&sortable_i32(*d).to_be_bytes());
        }
        Value::Time(t) => {
            out.push(6);
            out.extend_from_slice(&sortable_i32(*t).to_be_bytes());
        }
        Value::DateTime(t) => {
            out.push(7);
            out.extend_from_slice(&sortable_i64(*t).to_be_bytes());
        }
        Value::Duration(d) => {
            out.push(8);
            out.extend_from_slice(&sortable_i32(d.months).to_be_bytes());
            out.extend_from_slice(&sortable_i64(d.millis).to_be_bytes());
        }
        Value::YearMonthDuration(m) => {
            out.push(9);
            out.extend_from_slice(&sortable_i32(*m).to_be_bytes());
        }
        Value::DayTimeDuration(ms) => {
            out.push(10);
            out.extend_from_slice(&sortable_i64(*ms).to_be_bytes());
        }
        Value::Interval(iv) => {
            out.push(11);
            out.push(match iv.kind {
                IntervalKind::Date => 0,
                IntervalKind::Time => 1,
                IntervalKind::DateTime => 2,
            });
            out.extend_from_slice(&sortable_i64(iv.start).to_be_bytes());
            out.extend_from_slice(&sortable_i64(iv.end).to_be_bytes());
        }
        Value::Binary(b) => {
            out.push(17);
            encode_terminated_bytes(out, b);
        }
        Value::OrderedList(items) | Value::UnorderedList(items) => {
            out.push(if matches!(v, Value::OrderedList(_)) { 18 } else { 19 });
            for item in items.iter() {
                out.push(0x02); // element marker > terminator byte pair start
                encode_value(out, item)?;
            }
            out.extend_from_slice(&TERMINATOR);
        }
        other => {
            // Spatial values and records are not valid B+-tree keys; the
            // spatial index keys MBRs its own way.
            return Err(StorageError::Adm(AdmError::InvalidArgument(format!(
                "{} cannot be used as a B+-tree key",
                other.type_name()
            ))));
        }
    }
    Ok(())
}

/// [`encode_value`] of an encoded ADM value: integer and string keys —
/// what primary keys nearly always are — straight from their bytes,
/// anything else decoded first.
pub fn encode_value_ref(out: &mut Vec<u8>, v: ValueRef<'_>) -> Result<()> {
    let width = match v.primitive_type() {
        Some(PrimitiveType::String) => {
            let s = v.as_str().ok_or_else(|| AdmError::Corrupt("bad string".into()))?;
            out.push(4);
            encode_terminated_bytes(out, s.as_bytes());
            return Ok(());
        }
        Some(PrimitiveType::Int8) => 0,
        Some(PrimitiveType::Int16) => 1,
        Some(PrimitiveType::Int32) => 2,
        Some(PrimitiveType::Int64) => 3,
        _ => return encode_value(out, &v.to_value()?),
    };
    let i = v.as_i64().ok_or_else(|| AdmError::Corrupt("bad integer".into()))?;
    out.push(3);
    out.extend_from_slice(&sortable_f64(i as f64).to_be_bytes());
    out.extend_from_slice(&sortable_i64(i).to_be_bytes());
    out.push(width);
    Ok(())
}

/// Encode a composite key (one or more values).
pub fn encode_key(values: &[Value]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(16 * values.len());
    for v in values {
        encode_value(&mut out, v)?;
    }
    Ok(out)
}

/// Encode a single-value key.
pub fn encode_single(v: &Value) -> Result<Vec<u8>> {
    encode_key(std::slice::from_ref(v))
}

struct KeyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> KeyReader<'a> {
    fn u8(&mut self) -> Result<u8> {
        let b =
            *self.buf.get(self.pos).ok_or_else(|| StorageError::Corrupt("truncated key".into()))?;
        self.pos += 1;
        Ok(b)
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N]> {
        if self.pos + N > self.buf.len() {
            return Err(StorageError::Corrupt("truncated key".into()));
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[self.pos..self.pos + N]);
        self.pos += N;
        Ok(out)
    }

    fn bytes(&mut self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        loop {
            let b = self.u8()?;
            if b == ESCAPE {
                let next = self.u8()?;
                match next {
                    x if x == ESCAPED_00 => out.push(ESCAPE),
                    0x01 => return Ok(out), // terminator
                    other => {
                        return Err(StorageError::Corrupt(format!(
                            "bad escape byte {other:#x} in key"
                        )))
                    }
                }
            } else {
                out.push(b);
            }
        }
    }
}

fn decode_one(r: &mut KeyReader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Missing,
        2 => Value::Boolean(r.u8()? != 0),
        3 => {
            let f = unsortable_f64(u64::from_be_bytes(r.take::<8>()?));
            let tie = unsortable_i64(u64::from_be_bytes(r.take::<8>()?));
            match r.u8()? {
                0 => Value::Int8(tie as i8),
                1 => Value::Int16(tie as i16),
                2 => Value::Int32(tie as i32),
                3 => Value::Int64(tie),
                4 => Value::Float(f as f32),
                _ => Value::Double(f),
            }
        }
        4 => {
            let bytes = r.bytes()?;
            Value::string(
                String::from_utf8(bytes)
                    .map_err(|_| StorageError::Corrupt("invalid utf8 in key".into()))?,
            )
        }
        5 => Value::Date(unsortable_i32(u32::from_be_bytes(r.take::<4>()?))),
        6 => Value::Time(unsortable_i32(u32::from_be_bytes(r.take::<4>()?))),
        7 => Value::DateTime(unsortable_i64(u64::from_be_bytes(r.take::<8>()?))),
        8 => Value::Duration(DurationValue {
            months: unsortable_i32(u32::from_be_bytes(r.take::<4>()?)),
            millis: unsortable_i64(u64::from_be_bytes(r.take::<8>()?)),
        }),
        9 => Value::YearMonthDuration(unsortable_i32(u32::from_be_bytes(r.take::<4>()?))),
        10 => Value::DayTimeDuration(unsortable_i64(u64::from_be_bytes(r.take::<8>()?))),
        11 => {
            let kind = match r.u8()? {
                0 => IntervalKind::Date,
                1 => IntervalKind::Time,
                _ => IntervalKind::DateTime,
            };
            Value::Interval(IntervalValue {
                kind,
                start: unsortable_i64(u64::from_be_bytes(r.take::<8>()?)),
                end: unsortable_i64(u64::from_be_bytes(r.take::<8>()?)),
            })
        }
        17 => Value::Binary(std::sync::Arc::from(r.bytes()?)),
        tag @ (18 | 19) => {
            let mut items = Vec::new();
            loop {
                match r.u8()? {
                    0x02 => items.push(decode_one(r)?),
                    0x00 => {
                        let n = r.u8()?;
                        if n != 0x01 {
                            return Err(StorageError::Corrupt("bad list terminator".into()));
                        }
                        break;
                    }
                    other => {
                        return Err(StorageError::Corrupt(format!("bad list marker {other:#x}")))
                    }
                }
            }
            if tag == 18 {
                Value::ordered_list(items)
            } else {
                Value::unordered_list(items)
            }
        }
        other => return Err(StorageError::Corrupt(format!("bad key tag {other}"))),
    })
}

/// Decode a composite key back into its values.
pub fn decode_key(buf: &[u8]) -> Result<Vec<Value>> {
    let mut r = KeyReader { buf, pos: 0 };
    let mut out = Vec::new();
    while r.pos < r.buf.len() {
        out.push(decode_one(&mut r)?);
    }
    Ok(out)
}

/// The smallest possible encoding ≥ every key starting with `prefix`'s
/// successor — used to build exclusive upper bounds for prefix scans.
pub fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut out = prefix.to_vec();
    while let Some(&last) = out.last() {
        if last == 0xFF {
            out.pop();
        } else {
            *out.last_mut().unwrap() += 1;
            return Some(out);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::value::Point;

    fn enc(v: &Value) -> Vec<u8> {
        encode_single(v).unwrap()
    }

    /// The byte path encodes every value exactly as the value path does.
    #[test]
    fn encoding_from_bytes_matches_encoding_the_value() {
        let values = [
            Value::Int8(-7),
            Value::Int16(300),
            Value::Int32(i32::MIN),
            Value::Int64(i64::MAX),
            Value::Int64(-1),
            Value::Double(2.5),
            Value::Float(-0.5),
            Value::string(""),
            Value::string("a\u{0}b"),
            Value::DateTime(1_234_567),
            Value::Boolean(true),
            Value::Null,
        ];
        for v in &values {
            let mut from_bytes = Vec::new();
            let bytes = asterix_adm::serde::encode(v);
            encode_value_ref(&mut from_bytes, ValueRef::new(&bytes)).unwrap();
            assert_eq!(from_bytes, enc(v), "{v:?}");
        }
    }

    #[test]
    fn ordering_matches_total_cmp_within_types() {
        let groups: Vec<Vec<Value>> = vec![
            vec![
                Value::Int64(i64::MIN),
                Value::Int64(-100),
                Value::Int64(-1),
                Value::Int64(0),
                Value::Int64(1),
                Value::Int64(42),
                Value::Int64(i64::MAX / 2),
            ],
            vec![
                Value::Double(f64::NEG_INFINITY),
                Value::Double(-1.5),
                Value::Double(-0.0),
                Value::Double(0.25),
                Value::Double(1e10),
                Value::Double(f64::INFINITY),
            ],
            vec![
                Value::string(""),
                Value::string("a"),
                Value::string("a\u{0}b"),
                Value::string("ab"),
                Value::string("b"),
                Value::string("ba"),
            ],
            vec![Value::Date(-10), Value::Date(0), Value::Date(100)],
            vec![Value::DateTime(-5), Value::DateTime(0), Value::DateTime(999)],
            vec![Value::Boolean(false), Value::Boolean(true)],
        ];
        for group in groups {
            for a in &group {
                for b in &group {
                    let ka = enc(a);
                    let kb = enc(b);
                    assert_eq!(ka.cmp(&kb), a.total_cmp(b), "byte order disagrees for {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn mixed_numerics_sort_correctly() {
        let vals = [
            Value::Int32(-5),
            Value::Double(-4.5),
            Value::Int64(0),
            Value::Double(0.5),
            Value::Int32(1),
            Value::Int64(1000),
        ];
        for w in vals.windows(2) {
            assert!(enc(&w[0]) < enc(&w[1]), "{} !< {}", w[0], w[1]);
        }
        // Same numeric value in different int widths encodes identically up
        // to the width byte, so lookups after coercion hit.
        let a = enc(&Value::Int32(7));
        let b = enc(&Value::Int64(7));
        assert_eq!(a[..a.len() - 1], b[..b.len() - 1]);
    }

    #[test]
    fn string_escaping_preserves_prefix_order() {
        // "a\0" sorts after "a" and before "b".
        let a = enc(&Value::string("a"));
        let a0 = enc(&Value::string("a\u{0}"));
        let b = enc(&Value::string("b"));
        assert!(a < a0, "a !< a\\0");
        assert!(a0 < b);
    }

    #[test]
    fn composite_keys_order_lexicographically() {
        let k1 = encode_key(&[Value::string("alice"), Value::Int64(1)]).unwrap();
        let k2 = encode_key(&[Value::string("alice"), Value::Int64(2)]).unwrap();
        let k3 = encode_key(&[Value::string("bob"), Value::Int64(0)]).unwrap();
        assert!(k1 < k2);
        assert!(k2 < k3);
    }

    #[test]
    fn roundtrip() {
        let keys = vec![
            vec![Value::Int32(5), Value::string("x")],
            vec![Value::DateTime(123456789)],
            vec![Value::string("hello\u{0}world")],
            vec![Value::Boolean(true), Value::Null],
            vec![Value::ordered_list(vec![Value::Int64(1), Value::string("a")])],
            vec![Value::Binary(std::sync::Arc::from(vec![0u8, 1, 255]))],
            vec![Value::Double(3.25), Value::Float(1.5)],
        ];
        for k in keys {
            let bytes = encode_key(&k).unwrap();
            let back = decode_key(&bytes).unwrap();
            assert_eq!(k.len(), back.len());
            for (a, b) in k.iter().zip(back.iter()) {
                assert_eq!(a.total_cmp(b), std::cmp::Ordering::Equal, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn spatial_rejected() {
        assert!(encode_single(&Value::Point(Point::new(1.0, 2.0))).is_err());
    }

    #[test]
    fn prefix_successor_bounds() {
        let p = vec![1, 2, 3];
        assert_eq!(prefix_successor(&p).unwrap(), vec![1, 2, 4]);
        let p = vec![1, 0xFF];
        assert_eq!(prefix_successor(&p).unwrap(), vec![2]);
        let p = vec![0xFF, 0xFF];
        assert_eq!(prefix_successor(&p), None);
    }

    #[test]
    fn date_key_ordering_across_sign() {
        assert!(enc(&Value::Date(-1)) < enc(&Value::Date(0)));
        assert!(enc(&Value::DateTime(-1)) < enc(&Value::DateTime(1)));
    }
}
