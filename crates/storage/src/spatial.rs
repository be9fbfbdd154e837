//! The spatial index: §2.2's `create index ... type rtree`, used for
//! `sender-location` queries.
//!
//! Layered on the LSM framework exactly as the inverted indexes are: each
//! `(MBR, primary-key)` entry is a key of one [`LsmTree`], with an empty
//! value, so flushing, merging, recovery watermarks and metrics are the
//! framework's. A point is keyed by its Z-order value, the bit-interleave
//! of its coordinates' order-preserving images, so a window is a few key
//! ranges (the "LSM B+-tree on a space-filling curve" of Kim, Kim, Carey
//! and Li's comparison of LSM spatial indexes, ICDE 2017). Any other MBR
//! is keyed by its four coordinates under a tag of its own and found by
//! one pass over that tag's range:
//!
//! ```text
//! point  0x00 ‖ z(x, y)                    (16 bytes) ‖ encode_key(pk)
//! other  0x01 ‖ lo.x ‖ lo.y ‖ hi.x ‖ hi.y  (32 bytes) ‖ encode_key(pk)
//! ```

use std::path::Path;
use std::sync::Arc;

use asterix_adm::value::{Point, Rectangle};
use asterix_adm::Value;

use crate::cache::BufferCache;
use crate::error::{Result, StorageError};
use crate::keycodec::{decode_key, encode_key};
use crate::lsm::{LsmConfig, LsmObserver, LsmTree, Lsn};

const POINT: u8 = 0x00;
const OTHER: u8 = 0x01;

/// How many z-ranges a window is split into. One range reads every key
/// between the window's corners, most of them outside it; each further
/// range trims that but costs one more merged scan to set up. Two to four
/// measured best on points spread like the Mugshot `sender-location`s.
const RANGES: usize = 4;

/// The order-preserving image of `v`: `a < b` iff `ordered(a) < ordered(b)`
/// for non-NaN values. −0.0 is folded onto +0.0, which `f64` (and with it
/// `spatial-intersect`) holds equal.
fn ordered(v: f64) -> u64 {
    let bits = if v == 0.0 { 0 } else { v.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`ordered`].
fn unordered(o: u64) -> f64 {
    f64::from_bits(if o >> 63 == 1 { o & !(1 << 63) } else { !o })
}

/// `v`'s bits moved to the even positions of a `u128`.
fn spread(v: u64) -> u128 {
    let mut x = v as u128;
    x = (x | x << 32) & 0x0000_0000_FFFF_FFFF_0000_0000_FFFF_FFFF;
    x = (x | x << 16) & 0x0000_FFFF_0000_FFFF_0000_FFFF_0000_FFFF;
    x = (x | x << 8) & 0x00FF_00FF_00FF_00FF_00FF_00FF_00FF_00FF;
    x = (x | x << 4) & 0x0F0F_0F0F_0F0F_0F0F_0F0F_0F0F_0F0F_0F0F;
    x = (x | x << 2) & 0x3333_3333_3333_3333_3333_3333_3333_3333;
    (x | x << 1) & 0x5555_5555_5555_5555_5555_5555_5555_5555
}

/// The inverse of [`spread`]: the even bits of `z`.
fn gather(z: u128) -> u64 {
    let mut x = z & 0x5555_5555_5555_5555_5555_5555_5555_5555;
    x = (x | x >> 1) & 0x3333_3333_3333_3333_3333_3333_3333_3333;
    x = (x | x >> 2) & 0x0F0F_0F0F_0F0F_0F0F_0F0F_0F0F_0F0F_0F0F;
    x = (x | x >> 4) & 0x00FF_00FF_00FF_00FF_00FF_00FF_00FF_00FF;
    x = (x | x >> 8) & 0x0000_FFFF_0000_FFFF_0000_FFFF_0000_FFFF;
    x = (x | x >> 16) & 0x0000_0000_FFFF_FFFF_0000_0000_FFFF_FFFF;
    (x | x >> 32) as u64
}

/// The Z-order value of the images `(x, y)`: x's bits at the odd positions.
fn interleave(x: u64, y: u64) -> u128 {
    spread(x) << 1 | spread(y)
}

/// A box of images, `[x.0, x.1] × [y.0, y.1]`: the points inside have
/// Z-order values between those of its corners.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ZBox {
    x: (u64, u64),
    y: (u64, u64),
}

impl ZBox {
    fn z_range(&self) -> (u128, u128) {
        (interleave(self.x.0, self.y.0), interleave(self.x.1, self.y.1))
    }

    fn contains(&self, x: u64, y: u64) -> bool {
        (self.x.0..=self.x.1).contains(&x) && (self.y.0..=self.y.1).contains(&y)
    }

    /// Split at the highest bit where the corners' Z-order values differ.
    /// Every point of the box agrees on the bits above it, so the lower
    /// half's z-range ends before the upper half's begins.
    fn split(self) -> Option<(ZBox, ZBox)> {
        let (lo, hi) = self.z_range();
        let bit = (lo ^ hi).checked_ilog2()?;
        let (mut lower, mut upper) = (self, self);
        let (dim, low_dim, up_dim) = if bit % 2 == 1 {
            (self.x, &mut lower.x, &mut upper.x)
        } else {
            (self.y, &mut lower.y, &mut upper.y)
        };
        // The corners agree above this bit of `dim` and the high one has it
        // set: the upper half starts at their common prefix plus the bit.
        let mid = dim.1 >> (bit / 2) << (bit / 2);
        low_dim.1 = mid - 1;
        up_dim.0 = mid;
        Some((lower, upper))
    }

    /// At most `n` disjoint boxes covering this one, in z order, found by
    /// splitting the one of widest z-range until there are `n` or the
    /// widest is a single point.
    fn split_into(self, n: usize) -> Vec<ZBox> {
        let mut boxes = vec![self];
        while boxes.len() < n {
            let span = |b: &ZBox| {
                let (lo, hi) = b.z_range();
                hi - lo
            };
            let i = (0..boxes.len()).max_by_key(|&i| span(&boxes[i])).unwrap_or(0);
            let Some((lower, upper)) = boxes[i].split() else { break };
            boxes[i] = lower;
            boxes.insert(i + 1, upper);
        }
        boxes
    }
}

fn point_key(z: u128) -> Vec<u8> {
    let mut key = vec![POINT];
    key.extend_from_slice(&z.to_be_bytes());
    key
}

/// The `u64` at `key[at..at + 8]`.
fn read_u64(key: &[u8], at: usize) -> Result<u64> {
    key.get(at..at + 8)
        .map(|b| u64::from_be_bytes(b.try_into().unwrap()))
        .ok_or_else(|| StorageError::Corrupt(format!("spatial key of {} bytes", key.len())))
}

/// A spatial index over `(MBR, primary-key)` entries.
pub struct SpatialIndex {
    tree: LsmTree,
}

impl SpatialIndex {
    /// Open (or create) a spatial index at `dir`.
    pub fn open(
        dir: &Path,
        cfg: LsmConfig,
        cache: Arc<BufferCache>,
        observer: Arc<dyn LsmObserver>,
    ) -> Result<SpatialIndex> {
        Ok(SpatialIndex { tree: LsmTree::open(dir, cfg, cache, observer)? })
    }

    /// The underlying LSM tree.
    pub fn lsm(&self) -> &LsmTree {
        &self.tree
    }

    fn entry_key(mbr: &Rectangle, pk: &[Value]) -> Result<Vec<u8>> {
        let mut key = if mbr.low == mbr.high {
            point_key(interleave(ordered(mbr.low.x), ordered(mbr.low.y)))
        } else {
            let mut key = vec![OTHER];
            for c in [mbr.low.x, mbr.low.y, mbr.high.x, mbr.high.y] {
                key.extend_from_slice(&ordered(c).to_be_bytes());
            }
            key
        };
        key.extend_from_slice(&encode_key(pk)?);
        Ok(key)
    }

    /// Index `mbr` under primary key `pk`, the write of log record `lsn`
    /// (`0`: none).
    pub fn insert(&self, mbr: Rectangle, pk: &[Value], lsn: Lsn) -> Result<()> {
        self.tree.insert(Self::entry_key(&mbr, pk)?, Vec::new(), lsn)
    }

    /// Remove the entry `(mbr, pk)` (antimatter), the write of log record
    /// `lsn` (`0`: none).
    pub fn delete(&self, mbr: Rectangle, pk: &[Value], lsn: Lsn) -> Result<()> {
        self.tree.delete(Self::entry_key(&mbr, pk)?, lsn)
    }

    /// All live primary keys whose MBR intersects `query`.
    pub fn search(&self, query: &Rectangle) -> Result<Vec<Vec<Value>>> {
        let mut out = Vec::new();
        let (lo, hi) = (query.low, query.high);
        if [lo.x, lo.y, hi.x, hi.y].iter().any(|c| c.is_nan()) {
            return Ok(out);
        }
        let window = ZBox { x: (ordered(lo.x), ordered(hi.x)), y: (ordered(lo.y), ordered(hi.y)) };
        if window.x.0 <= window.x.1 && window.y.0 <= window.y.1 {
            for part in window.split_into(RANGES) {
                let (zlo, zhi) = part.z_range();
                let end = zhi.checked_add(1).map_or_else(|| vec![OTHER], point_key);
                self.tree.scan_with(Some(&point_key(zlo)), Some(&end), |k, _| -> Result<bool> {
                    let z = (u128::from(read_u64(k, 1)?) << 64) | u128::from(read_u64(k, 9)?);
                    if part.contains(gather(z >> 1), gather(z)) {
                        out.push(decode_key(&k[17..])?);
                    }
                    Ok(true)
                })?;
            }
        }
        self.tree.scan_with(Some(&[OTHER]), Some(&[OTHER + 1]), |k, _| -> Result<bool> {
            let c = |i: usize| read_u64(k, 1 + 8 * i).map(unordered);
            let mbr = Rectangle::new(Point::new(c(0)?, c(1)?), Point::new(c(2)?, c(3)?));
            if mbr.intersects(query) {
                out.push(decode_key(&k[33..])?);
            }
            Ok(true)
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsm::{MergePolicy, NullObserver};
    use asterix_testkit::TempDir;

    fn open(dir: &Path, mem_budget: usize, merge_policy: MergePolicy) -> SpatialIndex {
        let cfg = LsmConfig { mem_budget, merge_policy, ..LsmConfig::default() };
        SpatialIndex::open(dir, cfg, BufferCache::new(256), Arc::new(NullObserver)).unwrap()
    }

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rectangle {
        Rectangle::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    fn pt(x: f64, y: f64) -> Rectangle {
        rect(x, y, x, y)
    }

    fn ids(hits: Vec<Vec<Value>>) -> Vec<i64> {
        let mut ids: Vec<i64> = hits.iter().map(|pk| pk[0].as_i64().unwrap()).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn ordered_images_keep_order_and_invert() {
        let vals =
            [f64::NEG_INFINITY, -1e300, -2.5, -1e-300, 0.0, 1e-300, 3.0, 1e300, f64::INFINITY];
        for w in vals.windows(2) {
            assert!(ordered(w[0]) < ordered(w[1]), "{w:?}");
        }
        for v in vals {
            assert_eq!(unordered(ordered(v)), v);
        }
        assert_eq!(ordered(-0.0), ordered(0.0));
        let (x, y) = (0xDEAD_BEEF_0123_4567, 0x89AB_CDEF_FEDC_BA98);
        let z = interleave(x, y);
        assert_eq!((gather(z >> 1), gather(z)), (x, y));
    }

    #[test]
    fn a_split_window_is_disjoint_z_ranges_covering_it() {
        let window = ZBox { x: (ordered(-3.5), ordered(7.25)), y: (ordered(-1.0), ordered(2.0)) };
        let parts = window.split_into(RANGES);
        assert_eq!(parts.len(), RANGES);
        for w in parts.windows(2) {
            assert!(w[0].z_range().1 < w[1].z_range().0, "{parts:?}");
        }
        for x in [-3.5, -1.0, -0.0, 0.5, 7.25] {
            for y in [-1.0, 0.0, 1.5, 2.0] {
                let n = parts.iter().filter(|b| b.contains(ordered(x), ordered(y))).count();
                assert_eq!(n, 1, "({x}, {y}) in {parts:?}");
            }
        }
        // A one-point window cannot split.
        let one = ZBox { x: (5, 5), y: (9, 9) };
        assert_eq!(one.split_into(RANGES), vec![one]);
    }

    #[test]
    fn search_in_memory() {
        let dir = TempDir::new().unwrap();
        let ix = open(dir.path(), 1 << 20, MergePolicy::NoMerge);
        for i in 0..100 {
            ix.insert(pt(i as f64, i as f64), &[Value::Int64(i)], 0).unwrap();
        }
        assert_eq!(
            ids(ix.search(&rect(10.0, 10.0, 20.0, 20.0)).unwrap()),
            (10..=20).collect::<Vec<_>>()
        );
    }

    #[test]
    fn flush_and_reopen() {
        let dir = TempDir::new().unwrap();
        let ix = open(dir.path(), 1 << 20, MergePolicy::NoMerge);
        for i in 0..500 {
            ix.insert(pt((i % 50) as f64, (i / 50) as f64), &[Value::Int64(i)], 0).unwrap();
        }
        ix.lsm().flush().unwrap();
        assert_eq!(ix.lsm().disk_component_count(), 1);
        assert_eq!(ix.search(&rect(0.0, 0.0, 4.0, 4.0)).unwrap().len(), 25);
        drop(ix);
        let ix = open(dir.path(), 1 << 20, MergePolicy::NoMerge);
        assert_eq!(ix.search(&rect(0.0, 0.0, 4.0, 4.0)).unwrap().len(), 25);
    }

    #[test]
    fn antimatter_shadows_older_components_until_merged_away() {
        let dir = TempDir::new().unwrap();
        let ix = open(dir.path(), 1 << 20, MergePolicy::NoMerge);
        let window = rect(0.0, 0.0, 2.0, 2.0);
        ix.insert(pt(1.0, 1.0), &[Value::Int64(7)], 0).unwrap();
        ix.insert(rect(1.5, 1.5, 3.0, 3.0), &[Value::Int64(8)], 0).unwrap();
        ix.lsm().flush().unwrap();
        ix.delete(pt(1.0, 1.0), &[Value::Int64(7)], 0).unwrap();
        ix.delete(rect(1.5, 1.5, 3.0, 3.0), &[Value::Int64(8)], 0).unwrap();
        assert!(ix.search(&window).unwrap().is_empty());
        ix.lsm().flush().unwrap();
        assert!(ix.search(&window).unwrap().is_empty());
        ix.lsm().merge_all().unwrap();
        assert_eq!(ix.lsm().disk_component_count(), 1);
        assert_eq!(ix.lsm().stored_entries(), 0, "the merge drops the tombstones");
        assert!(ix.search(&window).unwrap().is_empty());
    }

    #[test]
    fn exact_windows_on_a_grid() {
        let dir = TempDir::new().unwrap();
        let ix = open(dir.path(), 8 << 20, MergePolicy::NoMerge);
        let grid = |i: i64| ((i / 100) as f64 - 50.0, (i % 100) as f64 - 50.0);
        for i in 0..10_000 {
            let (x, y) = grid(i);
            ix.insert(pt(x, y), &[Value::Int64(i)], 0).unwrap();
        }
        ix.lsm().flush().unwrap();
        for w in [
            rect(-40.0, -40.0, -38.0, -38.0),
            rect(-0.5, -3.0, 0.0, 3.0),
            rect(-50.0, 10.0, 49.0, 10.0),
            rect(3.3, 3.3, 3.7, 3.7),
            rect(-60.0, -60.0, 60.0, 60.0),
            rect(5.0, 5.0, 4.0, 6.0),
        ] {
            let want: Vec<i64> = (0..10_000)
                .filter(|&i| {
                    let (x, y) = grid(i);
                    w.intersects(&pt(x, y))
                })
                .collect();
            assert_eq!(ids(ix.search(&w).unwrap()), want, "{w:?}");
        }
        assert_eq!(ix.search(&rect(-40.0, -40.0, -38.0, -38.0)).unwrap().len(), 9);
    }

    #[test]
    fn mixed_shapes() {
        let dir = TempDir::new().unwrap();
        let ix = open(dir.path(), 1 << 20, MergePolicy::NoMerge);
        ix.insert(rect(0.0, 0.0, 5.0, 5.0), &[Value::Int64(1)], 0).unwrap();
        ix.insert(rect(10.0, 10.0, 15.0, 15.0), &[Value::Int64(2)], 0).unwrap();
        ix.insert(pt(-0.0, 7.0), &[Value::Int64(3)], 0).unwrap();
        ix.insert(pt(f64::NAN, 7.0), &[Value::Int64(4)], 0).unwrap();
        assert_eq!(ids(ix.search(&rect(4.0, 4.0, 11.0, 11.0)).unwrap()), vec![1, 2]);
        assert!(ix.search(&rect(6.0, 6.0, 9.0, 9.0)).unwrap().is_empty());
        assert_eq!(ids(ix.search(&rect(0.0, 6.0, 1.0, 8.0)).unwrap()), vec![3]);
        assert_eq!(ids(ix.search(&rect(f64::MIN, 6.0, f64::MAX, 8.0)).unwrap()), vec![3]);
        assert!(ix.search(&rect(f64::NAN, 6.0, 1.0, 8.0)).unwrap().is_empty());
    }

    #[test]
    fn components_stay_bounded_by_the_merge_policy() {
        let dir = TempDir::new().unwrap();
        let policy = MergePolicy::Prefix { max_mergable_size: 64 << 20, max_tolerance: 3 };
        let ix = open(dir.path(), 16 << 10, policy);
        for i in 0..4_000 {
            ix.insert(pt((i % 97) as f64, (i / 97) as f64), &[Value::Int64(i)], 0).unwrap();
        }
        ix.lsm().flush().unwrap();
        let m = ix.lsm().metrics();
        assert!(m.flushes.get() >= 10, "{} flushes", m.flushes.get());
        assert!(m.merges.get() > 0);
        assert!(ix.lsm().disk_component_count() <= 3 + 1, "{}", ix.lsm().disk_component_count());
        assert_eq!(ix.search(&rect(0.0, 0.0, 96.0, 9.0)).unwrap().len(), 970);
    }

    #[test]
    fn undecodable_keys_are_errors() {
        let dir = TempDir::new().unwrap();
        let ix = open(dir.path(), 1 << 20, MergePolicy::NoMerge);
        ix.insert(pt(1.0, 1.0), &[Value::Int64(1)], 0).unwrap();
        let mut key = point_key(interleave(ordered(1.0), ordered(1.0)));
        key.extend_from_slice(&[0xEE, 0xEE]);
        ix.lsm().insert(key, Vec::new(), 0).unwrap();
        assert!(ix.search(&rect(0.0, 0.0, 2.0, 2.0)).is_err());
        ix.lsm().insert(vec![OTHER, 1, 2], Vec::new(), 0).unwrap();
        assert!(ix.search(&rect(5.0, 5.0, 6.0, 6.0)).is_err());
    }
}
