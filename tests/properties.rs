//! Property-based tests (proptest) on the core invariants:
//! * the order-preserving key codec agrees with ADM's total order;
//! * binary serialization round-trips (self-describing and schema-aware);
//! * ADM text printing round-trips through the parser;
//! * the LSM tree behaves like a sorted map under arbitrary workloads with
//!   interleaved flushes and merges.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use asterix_adm::{serde as adm_serde, Record, Value};
use asterix_storage::keycodec;
use asterix_storage::lsm::{LsmConfig, LsmTree, MergePolicy};
use asterix_storage::{BufferCache, NullObserver};
use asterix_testkit::prop::prelude::*;

// ---------------------------------------------------------------------------
// Value generators
// ---------------------------------------------------------------------------

fn scalar_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Boolean),
        any::<i64>().prop_map(Value::Int64),
        any::<i32>().prop_map(Value::Int32),
        (-1.0e12f64..1.0e12).prop_map(Value::Double),
        "[a-zA-Z0-9 _-]{0,24}".prop_map(Value::string),
        (-100_000i32..100_000).prop_map(Value::Date),
        (0i32..86_400_000).prop_map(Value::Time),
        any::<i32>().prop_map(|v| Value::DateTime(v as i64 * 1000)),
    ]
}

fn nested_value() -> impl Strategy<Value = Value> {
    scalar_value().prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::ordered_list),
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::unordered_list),
            prop::collection::vec(("[a-z]{1,8}", inner), 0..5).prop_map(|fields| {
                let mut r = Record::new();
                for (name, v) in fields {
                    r.set(name, v);
                }
                Value::record(r)
            }),
        ]
    })
}

/// Keys usable in the B+-tree codec (no spatial/record keys).
fn key_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int64),
        "[a-zA-Z0-9]{0,16}".prop_map(Value::string),
        (-100_000i32..100_000).prop_map(Value::Date),
        any::<i32>().prop_map(|v| Value::DateTime(v as i64)),
        any::<bool>().prop_map(Value::Boolean),
    ]
}

/// The pair `keycodec_order_agrees_with_total_cmp` once failed on: keys of
/// different kinds order by kind, in both directions.
#[test]
fn keycodec_orders_int64_zero_against_the_empty_string() {
    let (a, b) = (Value::Int64(0), Value::string(""));
    let (ka, kb) = (keycodec::encode_single(&a).unwrap(), keycodec::encode_single(&b).unwrap());
    assert_eq!(ka.cmp(&kb), a.total_cmp(&b));
    assert_eq!(kb.cmp(&ka), b.total_cmp(&a));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Key encoding preserves ADM's total order for same-kind keys.
    #[test]
    fn keycodec_order_agrees_with_total_cmp(a in key_value(), b in key_value()) {
        // The byte order matches ADM's total order everywhere except the
        // documented caveat: *equal* numerics of different widths encode
        // adjacently-but-distinctly (point lookups coerce first).
        let ka = keycodec::encode_single(&a).unwrap();
        let kb = keycodec::encode_single(&b).unwrap();
        let caveat = a.is_numeric()
            && b.is_numeric()
            && a.total_cmp(&b).is_eq()
            && std::mem::discriminant(&a) != std::mem::discriminant(&b);
        if !caveat {
            prop_assert_eq!(ka.cmp(&kb), a.total_cmp(&b), "{} vs {}", a, b);
        }
    }

    /// Composite keys roundtrip through the codec.
    #[test]
    fn keycodec_roundtrip(parts in prop::collection::vec(key_value(), 1..4)) {
        let bytes = keycodec::encode_key(&parts).unwrap();
        let back = keycodec::decode_key(&bytes).unwrap();
        prop_assert_eq!(parts.len(), back.len());
        for (x, y) in parts.iter().zip(&back) {
            prop_assert!(x.total_cmp(y).is_eq(), "{} vs {}", x, y);
        }
    }

    /// Self-describing binary serialization round-trips any value.
    #[test]
    fn serde_roundtrip(v in nested_value()) {
        let bytes = adm_serde::encode(&v);
        let back = adm_serde::decode(&bytes).unwrap();
        prop_assert!(v.total_cmp(&back).is_eq(), "{} vs {}", v, back);
    }

    /// ADM text printing round-trips through the parser.
    #[test]
    fn print_parse_roundtrip(v in nested_value()) {
        let text = asterix_adm::print::to_adm_string(&v);
        let back = asterix_adm::parse::parse_value(&text).unwrap();
        prop_assert!(v.total_cmp(&back).is_eq(), "{} -> {} -> {}", v, text, back);
    }

    /// Decoding arbitrary bytes never panics (it may error).
    #[test]
    fn serde_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = adm_serde::decode(&bytes);
        let _ = keycodec::decode_key(&bytes);
    }
}

// ---------------------------------------------------------------------------
// Byte-frame tuple codec and canonical order keys
// ---------------------------------------------------------------------------

use asterix_adm::value::{Circle, DurationValue, IntervalKind, IntervalValue, Line, Point};
use asterix_adm::{decode_tuple, encode_tuple, ordkey, TupleRef};

fn any_point() -> impl Strategy<Value = Point> {
    ((-1.0e6f64..1.0e6), (-1.0e6f64..1.0e6)).prop_map(|(x, y)| Point::new(x, y))
}

/// Every `Value` variant, scalars only. `exact_numerics` keeps integers
/// inside the f64-exact range where ordkey's byte order matches
/// `total_cmp` without the documented ≥9.0e15 caveat.
fn every_scalar(exact_numerics: bool) -> impl Strategy<Value = Value> {
    let int64 =
        if exact_numerics { (-(1i64 << 52)..(1i64 << 52)).boxed() } else { any::<i64>().boxed() };
    let numerics = prop_oneof![
        any::<i8>().prop_map(Value::Int8),
        any::<i16>().prop_map(Value::Int16),
        any::<i32>().prop_map(Value::Int32),
        int64.prop_map(Value::Int64),
        (-1.0e6f32..1.0e6).prop_map(Value::Float),
        (-1.0e12f64..1.0e12).prop_map(Value::Double),
    ];
    let temporals = prop_oneof![
        (-100_000i32..100_000).prop_map(Value::Date),
        (0i32..86_400_000).prop_map(Value::Time),
        any::<i32>().prop_map(|v| Value::DateTime(v as i64 * 1000)),
        (any::<i32>(), any::<i32>()).prop_map(|(months, ms)| {
            Value::Duration(DurationValue { months, millis: ms as i64 })
        }),
        any::<i32>().prop_map(Value::YearMonthDuration),
        any::<i32>().prop_map(|v| Value::DayTimeDuration(v as i64)),
        (any::<i32>(), any::<i32>()).prop_map(|(s, e)| {
            Value::Interval(IntervalValue {
                kind: IntervalKind::DateTime,
                start: s as i64,
                end: e as i64,
            })
        }),
    ];
    let spatials = prop_oneof![
        any_point().prop_map(Value::Point),
        (any_point(), any_point()).prop_map(|(a, b)| Value::Line(Line { a, b })),
        (any_point(), any_point())
            .prop_map(|(a, b)| { Value::Rectangle(asterix_adm::value::Rectangle::new(a, b)) }),
        (any_point(), 0.0f64..1.0e6)
            .prop_map(|(center, radius)| { Value::Circle(Circle { center, radius }) }),
        prop::collection::vec(any_point(), 0..5).prop_map(|ps| Value::Polygon(Arc::from(ps))),
    ];
    prop_oneof![
        Just(Value::Missing),
        Just(Value::Null),
        any::<bool>().prop_map(Value::Boolean),
        numerics,
        "[a-zA-Z0-9 _-]{0,24}".prop_map(Value::string),
        temporals,
        spatials,
        prop::collection::vec(any::<u8>(), 0..16).prop_map(|b| Value::Binary(Arc::from(b))),
    ]
}

/// Every `Value` variant including nested lists and records.
fn every_value(exact_numerics: bool) -> impl Strategy<Value = Value> {
    every_scalar(exact_numerics).prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::ordered_list),
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::unordered_list),
            prop::collection::vec(("[a-z]{1,8}", inner), 0..5).prop_map(|fields| {
                let mut r = Record::new();
                for (name, v) in fields {
                    r.set(name, v);
                }
                Value::record(r)
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The frame tuple codec round-trips tuples over every `Value`
    /// variant, and the zero-copy accessors agree with the bulk decode.
    #[test]
    fn tuple_codec_roundtrip(fields in prop::collection::vec(every_value(false), 0..6)) {
        let bytes = encode_tuple(&fields);
        let back = decode_tuple(&bytes).unwrap();
        prop_assert_eq!(fields.len(), back.len());
        for (x, y) in fields.iter().zip(&back) {
            prop_assert!(x.total_cmp(y).is_eq(), "{} vs {}", x, y);
        }
        let r = TupleRef::new(&bytes).unwrap();
        prop_assert_eq!(r.field_count(), fields.len());
        for (i, x) in fields.iter().enumerate() {
            let v = r.field_value(i).unwrap();
            prop_assert!(x.total_cmp(&v).is_eq(), "field {}: {} vs {}", i, x, v);
        }
    }

    /// The canonical order key's byte order is exactly ADM's total order —
    /// across types and across numeric widths (the encoding carries no
    /// width tag, so `int32 5`, `int64 5` and `double 5.0` tie).
    #[test]
    fn ordkey_byte_order_agrees_with_total_cmp(
        a in every_value(true),
        b in every_value(true),
    ) {
        let ka = ordkey::encode_value(&a);
        let kb = ordkey::encode_value(&b);
        prop_assert_eq!(ka.cmp(&kb), a.total_cmp(&b), "{} vs {}", a, b);
        // Byte equality is exactly total_cmp equality — what lets joins
        // and group-bys key hash tables on the encoded bytes directly.
        prop_assert_eq!(ka == kb, a.total_cmp(&b).is_eq());
    }

    /// Byte-level field hashing over the serialized tuple is bit-identical
    /// to hashing the decoded `Value`s, including out-of-range fields
    /// (which hash as MISSING on both sides).
    #[test]
    fn encoded_field_hash_matches_decoded_hash(
        fields in prop::collection::vec(every_value(false), 0..5),
        keys in prop::collection::vec(0usize..7, 0..4),
    ) {
        let bytes = encode_tuple(&fields);
        let r = TupleRef::new(&bytes).unwrap();
        prop_assert_eq!(
            asterix_hyracks::hash_encoded_fields(&r, &keys),
            asterix_hyracks::hash_fields(&fields, &keys)
        );
    }
}

// ---------------------------------------------------------------------------
// LSM model test
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum LsmOp {
    Insert(u16, u8),
    Delete(u16),
    Flush,
    MergeAll,
}

fn lsm_op() -> impl Strategy<Value = LsmOp> {
    prop_oneof![
        6 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| LsmOp::Insert(k, v)),
        3 => any::<u16>().prop_map(LsmOp::Delete),
        1 => Just(LsmOp::Flush),
        1 => Just(LsmOp::MergeAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under arbitrary insert/delete/flush/merge sequences, the LSM tree
    /// stays equivalent to a plain sorted map: same point lookups, same
    /// full scan.
    #[test]
    fn lsm_behaves_like_btreemap(ops in prop::collection::vec(lsm_op(), 1..120)) {
        let dir = asterix_testkit::TempDir::new().unwrap();
        let tree = LsmTree::open(
            dir.path(),
            LsmConfig {
                mem_budget: 1 << 20,
                page_size: 256,
                bloom_fpp: 0.01,
                merge_policy: MergePolicy::NoMerge,
                max_frozen: 2,
                columnar: None,
            },
            BufferCache::new(64),
            Arc::new(NullObserver),
        )
        .unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match op {
                LsmOp::Insert(k, v) => {
                    let key = k.to_be_bytes().to_vec();
                    let val = vec![*v];
                    tree.insert(key.clone(), val.clone()).unwrap();
                    model.insert(key, val);
                }
                LsmOp::Delete(k) => {
                    let key = k.to_be_bytes().to_vec();
                    tree.delete(key.clone()).unwrap();
                    model.remove(&key);
                }
                LsmOp::Flush => {
                    tree.flush().unwrap();
                }
                LsmOp::MergeAll => {
                    tree.merge_all().unwrap();
                }
            }
        }
        // Full scans agree.
        let scanned = tree.scan(None, None).unwrap();
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scanned, expected);
        // Random point lookups agree (including misses).
        for probe in [0u16, 1, 7, 1000, 65535] {
            let key = probe.to_be_bytes().to_vec();
            prop_assert_eq!(tree.get(&key).unwrap(), model.get(&key).cloned());
        }
    }
}

// ---------------------------------------------------------------------------
// Columnar shredding properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shredding against an inferred schema loses nothing: whenever a
    /// record shreds (heterogeneous records spill instead), splicing the
    /// columns and the rest back together yields exactly the original
    /// (name, encoded-value) fields — over every `Value` variant,
    /// including nested records, lists, and mixed field types.
    #[test]
    fn shred_splice_preserves_fields(
        rows in prop::collection::vec(
            prop::collection::vec(("[a-d]{1,2}", every_value(false)), 0..6),
            1..40
        ),
    ) {
        use asterix_adm::colschema::{shred, splice_full, SchemaBuilder};
        let encoded: Vec<Vec<u8>> = rows
            .iter()
            .map(|fields| {
                let mut r = Record::new();
                for (n, v) in fields {
                    r.set(n.clone(), v.clone());
                }
                adm_serde::encode(&Value::record(r))
            })
            .collect();
        let mut b = SchemaBuilder::new();
        for e in &encoded {
            b.observe(e);
        }
        let schema = b.finish(&[], 0.25, 16);
        let fields_of = |buf: &[u8]| {
            let mut v: Vec<(String, Vec<u8>)> = Vec::new();
            adm_serde::for_each_record_field(buf, &mut |n, b| {
                v.push((n.to_string(), b.to_vec()));
                true
            })
            .unwrap();
            v.sort();
            v
        };
        for e in &encoded {
            let Some(s) = shred(&schema, e) else { continue };
            let back = splice_full(&schema, &s.cols, s.rest.as_deref()).unwrap();
            prop_assert_eq!(fields_of(e), fields_of(&back));
        }
    }

    /// A columnar LSM tree is invisible at the read boundary: under
    /// arbitrary record shapes — stable, heterogeneous, and non-record
    /// values mixed in — its flushed scan is byte-identical to a plain
    /// row tree holding the same data. (The build-time verify contract:
    /// any row the shredder cannot reproduce bit-exactly spills whole.)
    #[test]
    fn columnar_tree_scans_bit_identical_to_row_tree(
        rows in prop::collection::vec(
            (any::<u16>(), prop::collection::vec(("[a-d]{1,2}", every_value(false)), 0..6)),
            1..60
        ),
        bare in prop::collection::vec((any::<u16>(), every_value(false)), 0..8),
    ) {
        use asterix_storage::{ColumnarOptions, SelfDescribingCodec};
        let mk = |dir: &std::path::Path, columnar: Option<ColumnarOptions>| {
            LsmTree::open(
                dir,
                LsmConfig {
                    mem_budget: 1 << 20,
                    page_size: 256,
                    bloom_fpp: 0.01,
                    merge_policy: MergePolicy::NoMerge,
                    max_frozen: 2,
                    columnar,
                },
                BufferCache::new(64),
                Arc::new(NullObserver),
            )
            .unwrap()
        };
        let d1 = asterix_testkit::TempDir::new().unwrap();
        let d2 = asterix_testkit::TempDir::new().unwrap();
        let col = mk(d1.path(), Some(ColumnarOptions::new(Arc::new(SelfDescribingCodec))));
        let row = mk(d2.path(), None);
        let put = |k: u16, bytes: Vec<u8>| {
            col.insert(k.to_be_bytes().to_vec(), bytes.clone()).unwrap();
            row.insert(k.to_be_bytes().to_vec(), bytes).unwrap();
        };
        for (k, fields) in &rows {
            let mut r = Record::new();
            for (n, v) in fields {
                r.set(n.clone(), v.clone());
            }
            put(*k, adm_serde::encode(&Value::record(r)));
        }
        // Non-record rows can only ride the spill path (or force the whole
        // component back to row format) — either way reads are identical.
        for (k, v) in &bare {
            put(*k, adm_serde::encode(v));
        }
        col.flush().unwrap();
        row.flush().unwrap();
        prop_assert_eq!(col.scan(None, None).unwrap(), row.scan(None, None).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The all-fields scan hands a record spliced from column runs out
    /// without the typed round trip the reader used to make
    /// (`to_stored` → `decode_typed` → `encode_tuple_into`). For every row
    /// the component builder would shred, putting the spliced fields into
    /// typed order gives the same tuple bytes — field order included —
    /// although optional fields absent from the first rows make the
    /// inferred column order drift from the declared one.
    #[test]
    fn spliced_record_in_typed_order_equals_typed_round_trip(
        rows in prop::collection::vec(
            (
                any::<i64>(),
                (any::<bool>(), "[a-z]{0,6}"),
                (any::<bool>(), -1.0e6f64..1.0e6),
                (any::<bool>(), any::<i64>()),
                prop::collection::vec(("[x-z]", every_value(false)), 0..3),
            ),
            1..40
        ),
    ) {
        use asterix_adm::colschema::{in_typed_order, shred, splice_full, SchemaBuilder};
        use asterix_adm::{Datatype, PrimitiveType, RecordTypeBuilder, TypeRegistry};
        let prim = Datatype::Primitive;
        let ty = RecordTypeBuilder::open()
            .field("a", prim(PrimitiveType::Int64))
            .optional_field("b", prim(PrimitiveType::String))
            .optional_field("c", prim(PrimitiveType::Double))
            .optional_field("d", prim(PrimitiveType::Int64))
            .build();
        let Datatype::Record(rt) = &ty else { unreachable!() };
        let reg = TypeRegistry::new();
        // What the primary index stores, and its self-describing twin the
        // shredder sees.
        let stored: Vec<(Vec<u8>, Vec<u8>)> = rows
            .iter()
            .map(|(a, b, c, d, open)| {
                let mut r = Record::new();
                // Open fields first: the typed encoding moves them last.
                for (n, v) in open {
                    r.set(n.clone(), v.clone());
                }
                if d.0 {
                    r.set("d", Value::Int64(d.1));
                }
                if c.0 {
                    r.set("c", Value::Double(c.1));
                }
                if b.0 {
                    r.set("b", Value::string(b.1.clone()));
                }
                r.set("a", Value::Int64(*a));
                let typed = adm_serde::encode_typed(&reg, &Value::record(r), &ty).unwrap();
                let sd = adm_serde::encode(&adm_serde::decode_typed(&reg, &typed, &ty).unwrap());
                (typed, sd)
            })
            .collect();
        let mut b = SchemaBuilder::new();
        for (_, sd) in &stored {
            b.observe(sd);
        }
        let schema = b.finish(&[], 0.25, 16);
        let mut buf = Vec::new();
        for (typed, sd) in &stored {
            let Some(s) = shred(&schema, sd) else { continue };
            let spliced = splice_full(&schema, &s.cols, s.rest.as_deref()).unwrap();
            // The build-time check: rows failing it spill and never reach
            // the splice path.
            let back =
                adm_serde::encode_typed(&reg, &adm_serde::decode(&spliced).unwrap(), &ty).unwrap();
            if &back != typed {
                continue;
            }
            let old = asterix_adm::encode_tuple(&[adm_serde::decode_typed(&reg, &back, &ty).unwrap()]);
            let mut new = Vec::new();
            asterix_adm::tuple::encode_tuple_from_encoded(
                &mut new,
                in_typed_order(&spliced, rt, &mut buf).unwrap(),
            );
            prop_assert_eq!(&new, &old);
            prop_assert_eq!(in_typed_order(&spliced, rt, &mut buf).unwrap(), sd.as_slice());
        }
    }
}

// ---------------------------------------------------------------------------
// Key-list fetch
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The primary fetch is the key-list case of the projected scan: for
    /// any tree — columnar and row components, rewritten and deleted keys
    /// in newer ones, rows still in memory — any projection and any sorted
    /// key list, it yields exactly what the full scan yields for those
    /// keys, byte for byte. A tree whose first component was written
    /// without columnar options (files from before columnar) reopens with
    /// them and reads alike; merging its disk components, row and columnar
    /// together, changes no record.
    #[test]
    fn key_list_fetch_equals_full_scan_filtered_to_the_keys(
        batches in prop::collection::vec(
            prop::collection::vec(
                (0u16..200, prop_oneof![
                    // A delete, a stable record, or anything at all.
                    1 => Just(None),
                    6 => (0i64..50, "[a-c]{0,3}", any::<bool>()).prop_map(|(n, s, extra)| {
                        let mut r = Record::new();
                        r.set("n", Value::Int64(n));
                        r.set("s", Value::string(s));
                        if extra {
                            r.set("x", Value::Double(n as f64 / 2.0));
                        }
                        Some(Value::record(r))
                    }),
                    1 => prop::collection::vec(("[a-d]{1,2}", every_value(false)), 0..4)
                        .prop_map(|fields| {
                            let mut r = Record::new();
                            for (name, v) in fields {
                                r.set(name, v);
                            }
                            Some(Value::record(r))
                        }),
                ]),
                20..80
            ),
            2..5
        ),
        row_first in any::<bool>(),
        merge in any::<bool>(),
        fields in prop_oneof![
            Just(None),
            prop::collection::vec("[nsxa]", 0..3).prop_map(Some),
        ],
        bounds in prop::collection::vec((any::<bool>(), 0i64..50), 0..3),
        wanted in prop::collection::vec(0u16..220, 0..80),
    ) {
        use asterix_storage::lsm::ScanValue;
        use asterix_storage::{
            CmpOp, ColumnFilter, ColumnarOptions, Projection, ScanBound, SelfDescribingCodec,
        };
        let dir = asterix_testkit::TempDir::new().unwrap();
        let open = |columnar: bool| {
            LsmTree::open(
                dir.path(),
                LsmConfig {
                    mem_budget: 1 << 20,
                    page_size: 256,
                    bloom_fpp: 0.01,
                    merge_policy: MergePolicy::NoMerge,
                    max_frozen: 2,
                    columnar: columnar
                        .then(|| ColumnarOptions::new(Arc::new(SelfDescribingCodec))),
                },
                BufferCache::new(64),
                Arc::new(NullObserver),
            )
            .unwrap()
        };
        // Every batch but the last is flushed; the first one by a row-only
        // tree when `row_first`, so the reopened tree mixes both layouts.
        let mut tree = open(!row_first);
        let last = batches.len() - 1;
        for (b, batch) in batches.iter().enumerate() {
            for (k, v) in batch {
                let key = k.to_be_bytes().to_vec();
                match v {
                    Some(v) => tree.insert(key, adm_serde::encode(v)).unwrap(),
                    None => tree.delete(key).unwrap(),
                }
            }
            if b < last {
                tree.flush().unwrap();
            }
            if b == 0 && row_first {
                drop(tree);
                tree = open(true);
            }
        }
        if merge {
            let before = tree.scan(None, None).unwrap();
            tree.merge_all().unwrap();
            prop_assert_eq!(tree.scan(None, None).unwrap(), before);
        }
        let filters = bounds
            .iter()
            .map(|(ge, n)| ColumnFilter::Cmp {
                field: "n".into(),
                op: if *ge { CmpOp::Ge } else { CmpOp::Lt },
                key: ordkey::encode_value(&Value::Int64(*n)),
            })
            .collect();
        let proj = Projection {
            fields: fields.map(|fs| fs.into_iter().collect()),
            filters,
        };
        let mut keys: Vec<Vec<u8>> = wanted.iter().map(|k| k.to_be_bytes().to_vec()).collect();
        keys.sort();
        keys.dedup();

        let collect = |bound: ScanBound<'_>| {
            let mut out: Vec<(Vec<u8>, bool, Vec<u8>)> = Vec::new();
            tree.scan_projected(bound, &proj, |key, v| {
                out.push(match v {
                    ScanValue::Row(b) => (key.to_vec(), false, b.to_vec()),
                    ScanValue::Assembled(b) => (key.to_vec(), true, b.to_vec()),
                });
                Ok::<_, asterix_storage::StorageError>(true)
            })
            .unwrap();
            out
        };
        let mut expected = collect(ScanBound::ALL);
        expected.retain(|(key, _, _)| keys.binary_search(key).is_ok());
        prop_assert_eq!(collect(ScanBound::Keys(&keys)), expected);
    }
}

// ---------------------------------------------------------------------------
// Partition pruning
// ---------------------------------------------------------------------------

/// A lookup key as a query may spell it: an integer at any width, an
/// integral double, or a string — small (likely stored) or anywhere inside
/// the exact numeric range the ordkey tests keep.
fn probe_key() -> impl Strategy<Value = Value> {
    let n = prop_oneof![3 => -40i64..40, 1 => -8_999_999_999_999_999i64..9_000_000_000_000_000];
    (n, 0u8..6).prop_map(|(n, shape)| match shape {
        0 => Value::Int8(n as i8),
        1 => Value::Int16(n as i16),
        2 => Value::Int32(n as i32),
        3 => Value::Int64(n),
        4 => Value::Double(n as f64),
        _ => Value::string(format!("k{n}")),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A primary-key equality is searched on the owning partition alone.
    /// Whatever the key's declared type and the probe's spelling, that
    /// pruned plan finds what a search of every partition finds and what
    /// `DatasetRuntime::get` — which routes the same way — finds.
    #[test]
    fn pruned_key_lookup_equals_all_partition_search_and_get(
        key_type in prop_oneof![Just("int32"), Just("int64"), Just("string")],
        stored in prop::collection::vec(
            prop_oneof![3 => -40i64..40, 1 => -8_999_999_999_999_999i64..9_000_000_000_000_000],
            0..60,
        ),
        flush_after in 0usize..60,
        probes in prop::collection::vec(probe_key(), 1..40),
    ) {
        use asterix_algebricks::metadata::{KeyBound, MetadataProvider};
        use asterixdb::{ClusterConfig, Instance};

        let dir = asterix_testkit::TempDir::new().unwrap();
        let mut cfg = ClusterConfig::small(dir.path());
        (cfg.nodes, cfg.partitions_per_node) = (2, 2);
        let instance = Instance::open(cfg).unwrap();
        instance
            .execute(&format!(
                "create dataverse P; use dataverse P;
                 create type T as open {{ id: {key_type} }};
                 create dataset D(T) primary key id;"
            ))
            .unwrap();
        let d = instance.dataset("D").unwrap();
        let mut keys: Vec<Value> = stored
            .iter()
            .map(|&n| match key_type {
                "int32" => Value::Int32(n as i32),
                "int64" => Value::Int64(n),
                _ => Value::string(format!("k{n}")),
            })
            .collect();
        keys.sort_by(|a, b| a.total_cmp(b));
        keys.dedup();
        for (i, key) in keys.iter().enumerate() {
            let mut r = Record::new();
            r.set("id", key.clone());
            r.set("n", Value::Int64(i as i64));
            d.insert(&Value::record(r)).unwrap();
            if i == flush_after {
                d.flush_all().unwrap();
            }
        }

        let provider = asterixdb::provider::InstanceProvider { shared: instance.shared_state() };
        let lookup = instance.prepare("for $d in dataset D where $d.id = 0 return $d").unwrap();
        // Every stored key is a probe too, so hits are never rare.
        for probe in probes.iter().chain(&keys) {
            let pruned = instance.execute_prepared(&lookup, std::slice::from_ref(probe)).unwrap();
            let bound = || KeyBound::Inclusive(probe.clone());
            let everywhere = provider.primary_range_all("P.D", bound(), bound()).unwrap();
            prop_assert_eq!(&pruned, &everywhere, "{} key, probe {:?}", key_type, probe);
            let got: Vec<Value> = d.get(std::slice::from_ref(probe)).unwrap().into_iter().collect();
            prop_assert_eq!(&pruned, &got, "{} key, probe {:?}", key_type, probe);
        }
        let job = instance.explain("for $d in dataset D where $d.id = 0 return $d").unwrap().1;
        let search = "btree-search P.D (primary) [cols: *] [filter: id=?] [parts=1";
        prop_assert!(job.contains(search), "{}", job);
    }
}

// ---------------------------------------------------------------------------
// Hash joins: the partner test in the probe scan
// ---------------------------------------------------------------------------

/// A join key as one record holds it: a small number (so that partners are
/// common), NULL, or absent.
fn join_key() -> impl Strategy<Value = Option<Option<i64>>> {
    prop_oneof![8 => (-12i64..12).prop_map(|n| Some(Some(n))), 1 => Just(Some(None)), 1 => Just(None)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An inner equijoin whose probe scan is asked for partners answers as
    /// the plan without runtime filters does and as the interpreter does,
    /// whatever the keys' types and widths and wherever they are NULL or
    /// MISSING. And the test in the scan itself — here with the build
    /// side's filter published before the scan starts, which a running
    /// join cannot promise — never drops a row the join would match, and
    /// drops every flushed row whose key has no partner.
    #[test]
    fn partner_test_never_drops_a_row_the_join_would_match(
        key_type in prop_oneof![Just("int32"), Just("int64"), Just("string")],
        probe_keys in prop::collection::vec(join_key(), 1..80),
        build_keys in prop::collection::vec(join_key(), 0..12),
        flush_after in 0usize..80,
    ) {
        use std::collections::HashSet;
        use asterix_adm::functions::FunctionContext;
        use asterix_algebricks::metadata::MetadataProvider;
        use asterix_algebricks::rules::{optimize, OptimizerOptions};
        use asterixdb::{ClusterConfig, Instance};

        let dir = asterix_testkit::TempDir::new().unwrap();
        let mut cfg = ClusterConfig::small(dir.path());
        (cfg.nodes, cfg.partitions_per_node) = (2, 2);
        let instance = Instance::open(cfg).unwrap();
        // The build side always holds int64s — or strings — whatever the
        // probe side's width.
        let build_type = if key_type == "string" { "string" } else { "int64" };
        instance
            .execute(&format!(
                "create dataverse J; use dataverse J;
                 create type PT as open {{ id: int64, k: {key_type}? }};
                 create type ST as open {{ id: int64, k: {build_type}? }};
                 create dataset P(PT) primary key id;
                 create dataset S(ST) primary key id;"
            ))
            .unwrap();
        let key_value = |ty: &str, n: i64| match ty {
            "int32" => Value::Int32(n as i32),
            "int64" => Value::Int64(n),
            _ => Value::string(format!("k{n}")),
        };
        let load = |name: &str, ty: &str, keys: &[Option<Option<i64>>], flush_after: usize| {
            let d = instance.dataset(name).unwrap();
            for (i, key) in keys.iter().enumerate() {
                let mut r = Record::new();
                r.set("id", Value::Int64(i as i64));
                match key {
                    Some(Some(n)) => r.set("k", key_value(ty, *n)),
                    Some(None) => r.set("k", Value::Null),
                    None => {}
                }
                d.insert(&Value::record(r)).unwrap();
                if i == flush_after {
                    d.flush_all().unwrap();
                }
            }
        };
        // Ten times the build side and more, so that it is `P` that probes.
        let probe_keys: Vec<_> = probe_keys.iter().cycle().take(probe_keys.len().max(130)).collect();
        let probe_keys: Vec<Option<Option<i64>>> = probe_keys.into_iter().copied().collect();
        load("P", key_type, &probe_keys, flush_after);
        load("S", build_type, &build_keys, usize::MAX);

        // End to end, three ways.
        let q = "for $s in dataset S for $p in dataset P where $s.k = $p.k \
                 return { \"s\": $s.id, \"p\": $p.id }";
        let sorted = |mut rows: Vec<Value>| {
            rows.sort_by(|a, b| a.total_cmp(b));
            rows
        };
        let job = instance.explain(q).unwrap().1;
        prop_assert!(job.contains("data-scan J.P [cols: id,k] [filter: k in join #0]"), "{}", job);
        let pushed = sorted(instance.query(q).unwrap());
        let partners: HashSet<i64> = build_keys.iter().filter_map(|k| k.flatten()).collect();
        let has_partner = |k: &Option<Option<i64>>| k.flatten().is_some_and(|n| partners.contains(&n));
        let matches = |n: i64| build_keys.iter().filter(|k| **k == Some(Some(n))).count();
        let joined: usize = probe_keys.iter().filter_map(|k| k.flatten()).map(matches).sum();
        prop_assert_eq!(pushed.len(), joined);

        let shared = instance.shared_state();
        let provider: Arc<dyn MetadataProvider> =
            Arc::new(asterixdb::provider::InstanceProvider { shared: Arc::clone(&shared) });
        let catalog =
            asterixdb::provider::SessionCatalog { shared, current_dataverse: "J".into() };
        let plan = asterix_aql::translate::Translator::new(&catalog)
            .translate_query(&asterix_aql::parser::parse_expression(q).unwrap())
            .unwrap();
        let fctx = FunctionContext::default();
        let plan = optimize(plan, &provider, &fctx, &OptimizerOptions::default());
        let ctx = asterix_algebricks::expr::EvalCtx::new(Arc::clone(&provider), fctx);
        let interpreted =
            asterix_algebricks::interp::eval_subplan(&plan, &std::collections::HashMap::new(), &ctx)
                .unwrap();
        prop_assert_eq!(&pushed, &sorted(interpreted));

        instance.optimizer_options.write().enable_runtime_filters = false;
        prop_assert!(!instance.explain(q).unwrap().1.contains("in join"));
        prop_assert_eq!(&pushed, &sorted(instance.query(q).unwrap()));

        // The scan alone, under the filter the build side would publish:
        // an exact one, so what it lets through it cannot blame on chance.
        let built: Vec<Value> = partners.iter().map(|n| key_value(build_type, *n)).collect();
        let came_through: HashSet<i64> =
            common::scan_with_published_partners(&instance, "J.P", "k", &["id", "k"], &built)
                .iter()
                .map(|row| row.field("id").as_i64().unwrap())
                .collect();
        for (i, key) in probe_keys.iter().enumerate() {
            // Undecided: a row still in memory, a row without the key field.
            let decided = i <= flush_after && key.is_some();
            let through = came_through.contains(&(i as i64));
            prop_assert!(
                if decided { through == has_partner(key) } else { through },
                "row {} with key {:?}: through = {}, partners {:?}", i, key, through, partners
            );
        }
    }
}
