//! The LSM B+-tree: a typed wrapper over the LSM framework keyed by ADM
//! values through the order-preserving key codec.
//!
//! Two usage patterns, matching §2.2:
//! * **Primary index**: key = primary-key value(s), payload = the encoded
//!   record. Every Dataset is stored this way.
//! * **Secondary index**: key = (secondary-key value(s), primary-key
//!   value(s)), payload empty. Lookups and range scans return the primary
//!   keys, which are then sorted and used to probe the primary index
//!   (Figure 6's plan shape).

use std::path::Path;
use std::sync::Arc;

use asterix_adm::Value;

use crate::cache::BufferCache;
use crate::columnar::KeyRange;
use crate::error::{Result, StorageError};
use crate::keycodec::{decode_key, encode_key, prefix_successor};
use crate::lsm::{LsmConfig, LsmObserver, LsmTree};

/// A bound for a value-typed range scan.
#[derive(Debug, Clone)]
pub enum ValueBound {
    Unbounded,
    Included(Vec<Value>),
    Excluded(Vec<Value>),
}

impl ValueBound {
    pub fn included(v: Value) -> Self {
        ValueBound::Included(vec![v])
    }

    pub fn excluded(v: Value) -> Self {
        ValueBound::Excluded(vec![v])
    }

    /// This bound as the inclusive lower byte bound of a key scan (`None`
    /// = open). Bounds apply to the leading key fields, so a partial bound
    /// over a composite key behaves as a prefix range.
    pub fn encode_lo(&self) -> Result<Option<Vec<u8>>> {
        Ok(match self {
            ValueBound::Unbounded => None,
            ValueBound::Included(vs) => Some(encode_key(vs)?),
            // Lower-exclusive: skip every key equal to or prefixed by vs.
            ValueBound::Excluded(vs) => prefix_successor(&encode_key(vs)?),
        })
    }

    /// This bound as the exclusive upper byte bound of a key scan (`None`
    /// = open), with the prefix rule of [`Self::encode_lo`].
    pub fn encode_hi(&self) -> Result<Option<Vec<u8>>> {
        Ok(match self {
            ValueBound::Unbounded => None,
            // Upper-inclusive over a (possibly partial) key prefix: the
            // exclusive byte bound is the successor of the prefix.
            ValueBound::Included(vs) => prefix_successor(&encode_key(vs)?),
            ValueBound::Excluded(vs) => Some(encode_key(vs)?),
        })
    }
}

/// An LSM B+-tree over ADM keys.
pub struct LsmBTree {
    tree: LsmTree,
    /// Number of leading key fields that form the indexed (searchable) part;
    /// for secondary indexes the remaining fields are the primary key.
    key_arity: usize,
}

impl LsmBTree {
    /// Open (or create) a B+-tree at `dir`. `key_arity` is the number of
    /// searchable leading key fields.
    pub fn open(
        dir: &Path,
        key_arity: usize,
        cfg: LsmConfig,
        cache: Arc<BufferCache>,
        observer: Arc<dyn LsmObserver>,
    ) -> Result<LsmBTree> {
        Ok(LsmBTree { tree: LsmTree::open(dir, cfg, cache, observer)?, key_arity })
    }

    /// The underlying LSM tree (flush/merge/stat access).
    pub fn lsm(&self) -> &LsmTree {
        &self.tree
    }

    /// Insert `key → value`.
    pub fn insert(&self, key: &[Value], value: Vec<u8>) -> Result<()> {
        self.tree.insert(encode_key(key)?, value)
    }

    /// Delete by exact key.
    pub fn delete(&self, key: &[Value]) -> Result<()> {
        self.tree.delete(encode_key(key)?)
    }

    /// Exact-key point lookup.
    pub fn get(&self, key: &[Value]) -> Result<Option<Vec<u8>>> {
        self.tree.get(&encode_key(key)?)
    }

    /// Streaming range scan: `f` returns `Ok(false)` to stop early, and
    /// its first error stops the scan and is what the call returns.
    pub fn range_with<E: From<StorageError>>(
        &self,
        lo: &ValueBound,
        hi: &ValueBound,
        mut f: impl FnMut(&[Value], &[u8]) -> std::result::Result<bool, E>,
    ) -> std::result::Result<(), E> {
        let lo_b = lo.encode_lo()?;
        let hi_b = hi.encode_hi()?;
        self.tree.scan_with(lo_b.as_deref(), hi_b.as_deref(), |k, v| f(&decode_key(k)?, v))
    }

    /// Streaming scan of a batch of ranges — the B-tree probes of an index
    /// nested-loop join's outer tuples — as one forward pass over each
    /// component: the ranges are sorted and their union read once, and `f`
    /// gets `(i, key, value)` for every entry, once for each range
    /// `ranges[i]` that holds it, in key order. A range holding nothing
    /// (`lo` above `hi`) matches nothing. `f` stops the scan as
    /// [`Self::range_with`]'s visitor does.
    pub fn ranges_with<E: From<StorageError>>(
        &self,
        ranges: &[(ValueBound, ValueBound)],
        mut f: impl FnMut(usize, &[Value], &[u8]) -> std::result::Result<bool, E>,
    ) -> std::result::Result<(), E> {
        let mut probes: Vec<(KeyRange, usize)> = Vec::with_capacity(ranges.len());
        for (i, (lo, hi)) in ranges.iter().enumerate() {
            let r = KeyRange { lo: lo.encode_lo()?, hi: hi.encode_hi()? };
            if !r.is_empty() {
                probes.push((r, i));
            }
        }
        // An open lower bound (`None`) sorts first.
        probes.sort_by(|a, b| a.0.lo.cmp(&b.0.lo));
        // What storage reads: the union of the ranges, ascending and
        // disjoint (ranges that overlap or touch are one).
        let mut union: Vec<KeyRange> = Vec::new();
        for (r, _) in &probes {
            match union.last_mut() {
                Some(u)
                    if u.hi.as_ref().is_none_or(|hi| r.lo.as_ref().is_none_or(|lo| lo <= hi)) =>
                {
                    if u.hi.is_some() && r.hi.as_ref().is_none_or(|hi| Some(hi) > u.hi.as_ref()) {
                        u.hi = r.hi.clone();
                    }
                }
                _ => union.push(r.clone()),
            }
        }
        // Entries come in key order: the ranges holding one are among those
        // whose lower bound it has reached and whose upper bound it has not.
        let (mut next, mut open) = (0, Vec::new());
        self.tree.scan_ranges_with(&union, |k, v| {
            while probes.get(next).is_some_and(|(r, _)| r.lo.as_deref().is_none_or(|lo| lo <= k)) {
                open.push(next);
                next += 1;
            }
            open.retain(|&p| probes[p].0.holds(k));
            let key = decode_key(k)?;
            for &p in &open {
                if !f(probes[p].1, &key, v)? {
                    return Ok(false);
                }
            }
            Ok(true)
        })
    }

    /// For a secondary-index entry key, split into (secondary part, primary
    /// part) per the declared arity.
    pub fn split_key<'a>(&self, full: &'a [Value]) -> (&'a [Value], &'a [Value]) {
        let n = self.key_arity.min(full.len());
        full.split_at(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsm::{MergePolicy, NullObserver};
    use asterix_testkit::TempDir;

    fn open(dir: &Path, arity: usize) -> LsmBTree {
        LsmBTree::open(
            dir,
            arity,
            LsmConfig {
                mem_budget: 1 << 20,
                page_size: 512,
                bloom_fpp: 0.01,
                merge_policy: MergePolicy::NoMerge,
                max_frozen: 2,
                columnar: None,
            },
            BufferCache::new(128),
            Arc::new(NullObserver),
        )
        .unwrap()
    }

    /// Every `(key, payload)` of `t` between `lo` and `hi`, in key order.
    fn range(t: &LsmBTree, lo: &ValueBound, hi: &ValueBound) -> Vec<(Vec<Value>, Vec<u8>)> {
        let mut out = Vec::new();
        t.range_with(lo, hi, |k, v| -> Result<bool> {
            out.push((k.to_vec(), v.to_vec()));
            Ok(true)
        })
        .unwrap();
        out
    }

    #[test]
    fn primary_index_pattern() {
        let dir = TempDir::new().unwrap();
        let t = open(dir.path(), 1);
        for i in 0..100i64 {
            t.insert(&[Value::Int64(i)], format!("rec{i}").into_bytes()).unwrap();
        }
        t.lsm().flush().unwrap();
        assert_eq!(t.get(&[Value::Int64(42)]).unwrap(), Some(b"rec42".to_vec()));
        assert_eq!(t.get(&[Value::Int64(1000)]).unwrap(), None);
        let r = range(
            &t,
            &ValueBound::included(Value::Int64(10)),
            &ValueBound::excluded(Value::Int64(15)),
        );
        assert_eq!(r.len(), 5);
        assert_eq!(r[0].0, vec![Value::Int64(10)]);
        // Inclusive upper bound.
        let r = range(
            &t,
            &ValueBound::included(Value::Int64(10)),
            &ValueBound::included(Value::Int64(15)),
        );
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn secondary_index_pattern() {
        let dir = TempDir::new().unwrap();
        // Secondary key = (author-id), full key = (author-id, message-id).
        let t = open(dir.path(), 1);
        for mid in 0..60i64 {
            let author = mid % 3;
            t.insert(&[Value::Int64(author), Value::Int64(mid)], Vec::new()).unwrap();
        }
        // A bound on the leading field alone is a prefix range.
        let probe = ValueBound::included(Value::Int64(1));
        let hits = range(&t, &probe, &probe);
        assert_eq!(hits.len(), 20);
        for (k, _) in &hits {
            let (sk, pk) = t.split_key(k);
            assert_eq!(sk, &[Value::Int64(1)]);
            assert_eq!(pk.len(), 1);
            assert_eq!(pk[0].as_i64().unwrap() % 3, 1);
        }
    }

    /// A batch of ranges — points, repeats, overlaps, an empty one and open
    /// ones — over entries in memory, in a flushed component and deleted
    /// there: each range gets exactly what its own range scan gets.
    #[test]
    fn a_batch_of_ranges_matches_a_scan_per_range() {
        let dir = TempDir::new().unwrap();
        // Secondary key = (author), full key = (author, message-id).
        let t = open(dir.path(), 1);
        for mid in 0..200i64 {
            t.insert(&[Value::Int64(mid % 20), Value::Int64(mid)], Vec::new()).unwrap();
            if mid == 120 {
                t.lsm().flush().unwrap();
            }
        }
        t.delete(&[Value::Int64(7), Value::Int64(27)]).unwrap();
        let (inc, exc) = (
            |k: i64| ValueBound::included(Value::Int64(k)),
            |k: i64| ValueBound::excluded(Value::Int64(k)),
        );
        let ranges = vec![
            (inc(7), inc(7)),
            (inc(3), inc(3)),
            (inc(7), inc(7)),
            (inc(5), exc(9)),
            (inc(12), inc(4)),
            (ValueBound::Unbounded, exc(2)),
            (exc(17), ValueBound::Unbounded),
            (inc(8), inc(8)),
        ];
        let mut got = vec![Vec::new(); ranges.len()];
        let mut last = None;
        t.ranges_with(&ranges, |i, k, _| -> Result<bool> {
            let enc = encode_key(k)?;
            assert!(last.as_ref().is_none_or(|l| l <= &enc), "key order");
            last = Some(enc);
            got[i].push(k.to_vec());
            Ok(true)
        })
        .unwrap();
        for (i, (lo, hi)) in ranges.iter().enumerate() {
            let want: Vec<Vec<Value>> = range(&t, lo, hi).into_iter().map(|(k, _)| k).collect();
            assert_eq!(got[i], want, "range {i}");
        }
        assert_eq!(got[0].len(), 9, "author 7 lost one message");
        assert!(got[4].is_empty());
    }

    #[test]
    fn datetime_range_scan_like_query2() {
        let dir = TempDir::new().unwrap();
        let t = open(dir.path(), 1);
        // Index on user-since datetime; entries (ts, user-id).
        for i in 0..1000i64 {
            t.insert(&[Value::DateTime(i * 1000), Value::Int64(i)], Vec::new()).unwrap();
        }
        t.lsm().flush().unwrap();
        let r = range(
            &t,
            &ValueBound::included(Value::DateTime(100_000)),
            &ValueBound::included(Value::DateTime(110_000)),
        );
        assert_eq!(r.len(), 11);
    }

    #[test]
    fn delete_and_exclusive_lower() {
        let dir = TempDir::new().unwrap();
        let t = open(dir.path(), 1);
        for i in 0..10i64 {
            t.insert(&[Value::Int64(i)], vec![1]).unwrap();
        }
        t.delete(&[Value::Int64(5)]).unwrap();
        assert_eq!(t.get(&[Value::Int64(5)]).unwrap(), None);
        let r = range(&t, &ValueBound::excluded(Value::Int64(3)), &ValueBound::Unbounded);
        let keys: Vec<i64> = r.iter().map(|(k, _)| k[0].as_i64().unwrap()).collect();
        assert_eq!(keys, vec![4, 6, 7, 8, 9]);
    }

    #[test]
    fn string_keys() {
        let dir = TempDir::new().unwrap();
        let t = open(dir.path(), 1);
        for name in ["alice", "bob", "carol", "dave"] {
            t.insert(&[Value::string(name)], name.as_bytes().to_vec()).unwrap();
        }
        let r = range(
            &t,
            &ValueBound::included(Value::string("b")),
            &ValueBound::excluded(Value::string("d")),
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].1, b"bob");
        assert_eq!(r[1].1, b"carol");
    }
}
