//! Byte frames and tuples — the unit of dataflow between operators.
//!
//! Hyracks moves fixed-size *byte frames* of serialized tuples between
//! operators (Section 4.1); comparators, hashers and partitioners work on
//! the bytes directly. [`FrameBuf`] is that frame: a byte buffer of
//! offset-prefixed tuple encodings (see `asterix_adm::tuple`) plus a slot
//! directory addressing each tuple. Hyracks proper writes the slot
//! directory at the frame's tail growing backwards; here it lives in a
//! companion array, and [`FrameBuf::occupancy`] accounts for it at 4 bytes
//! per slot exactly as the tail layout would — so summed occupancy is the
//! byte-exact wire size of the exchange.

use std::sync::OnceLock;

use asterix_adm::{encode_tuple_into, AdmError, TupleRef, Value, ValueRef};
use asterix_sync::Mutex;

/// A decoded runtime tuple: positional ADM values. Field-name → position
/// mapping is a compile-time (Algebricks) concern; the runtime is purely
/// positional. Tuples are decoded only where an injected closure needs
/// values (expressions, side effects, fetch keys, the result sink);
/// sources and connectors move encoded ones, in [`FrameBuf`]s.
pub type Tuple = Vec<Value>;

/// Default tuples per frame (the flush threshold on tuple count).
pub const FRAME_CAPACITY: usize = 1024;

/// Default byte capacity of a frame (the flush threshold on occupancy).
pub const DEFAULT_FRAME_BYTES: usize = 32 * 1024;

/// A frame: a batch of serialized tuples moved through a connector in one
/// channel send, amortizing synchronization cost.
#[derive(Default)]
pub struct FrameBuf {
    /// Concatenated offset-prefixed tuple encodings.
    data: Vec<u8>,
    /// Slot directory: exclusive end offset of each tuple in `data`.
    slots: Vec<u32>,
}

/// `Frame` as sent and received by connector channels is the serialized
/// byte frame.
pub type Frame = FrameBuf;

impl FrameBuf {
    pub fn new() -> FrameBuf {
        FrameBuf { data: Vec::with_capacity(DEFAULT_FRAME_BYTES), slots: Vec::with_capacity(64) }
    }

    /// Serialize `t` and append it.
    pub fn push_tuple(&mut self, t: &[Value]) {
        encode_tuple_into(&mut self.data, t);
        self.slots.push(self.data.len() as u32);
    }

    /// Append an already-encoded tuple verbatim (the zero-copy re-slice
    /// path: forwarding operators never decode).
    pub fn push_encoded(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
        self.slots.push(self.data.len() as u32);
    }

    /// Number of tuples in the frame.
    pub fn tuple_count(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Occupied wire bytes: tuple data plus 4 bytes of slot directory per
    /// tuple. Exchange byte counters sum exactly this.
    pub fn occupancy(&self) -> usize {
        self.data.len() + 4 * self.slots.len()
    }

    /// The encoded bytes of tuple `i`.
    pub fn tuple_bytes(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.slots[i - 1] as usize };
        &self.data[start..self.slots[i] as usize]
    }

    /// Zero-copy accessor over tuple `i`.
    pub fn tuple_ref(&self, i: usize) -> Result<TupleRef<'_>, AdmError> {
        TupleRef::new(self.tuple_bytes(i))
    }

    /// Iterate the encoded tuples.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.tuple_count()).map(move |i| self.tuple_bytes(i))
    }

    /// Drop all tuples, keeping both backing allocations.
    pub fn clear(&mut self) {
        self.data.clear();
        self.slots.clear();
    }

    /// Bulk-append every tuple of `other`: one data copy plus a rebased
    /// slot run, instead of `tuple_count` `push_encoded` calls.
    pub fn append_frame(&mut self, other: &FrameBuf) {
        let base = self.data.len() as u32;
        self.data.extend_from_slice(&other.data);
        self.slots.extend(other.slots.iter().map(|&s| s + base));
    }

    /// Copy the tuples selected by `keep` into `dst` (appending), walking
    /// the slot directory once and coalescing each maximal run of kept
    /// tuples into a single data copy — the batch select's slot-compacting
    /// emission. Bits at or beyond `tuple_count` are ignored.
    pub fn compact_into(&self, keep: &SelBitmap, dst: &mut FrameBuf) {
        let n = self.tuple_count();
        let mut i = 0;
        while i < n {
            if !keep.get(i) {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < n && keep.get(j) {
                j += 1;
            }
            let start = if i == 0 { 0 } else { self.slots[i - 1] as usize };
            let end = self.slots[j - 1] as usize;
            let rebase = (dst.data.len() as u32).wrapping_sub(start as u32);
            dst.data.extend_from_slice(&self.data[start..end]);
            dst.slots.extend(self.slots[i..j].iter().map(|&s| s.wrapping_add(rebase)));
            i = j;
        }
    }
}

/// A selection bitmap over one frame's slot directory: the batch select
/// path evaluates the predicate for every slot first, then emits survivors
/// with [`FrameBuf::compact_into`] in one pass. Backed by `u64` words; the
/// allocation is reused across frames.
#[derive(Default)]
pub struct SelBitmap {
    words: Vec<u64>,
    len: usize,
}

impl SelBitmap {
    pub fn new() -> SelBitmap {
        SelBitmap::default()
    }

    /// Clear and resize to cover `len` slots, all unselected.
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
    }

    /// Select slot `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Is slot `i` selected?
    pub fn get(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of slots covered.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of selected slots.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Every covered slot selected?
    pub fn all(&self) -> bool {
        self.count() == self.len
    }
}

/// A pool of recycled frames shared by the ports of one job run.
///
/// Hyracks proper allocates fixed-size byte frames once and circulates
/// them; here the analogue is reusing the byte buffer and slot directory
/// backing each [`FrameBuf`] so steady-state exchange does no per-frame
/// allocation: receivers return drained frames via [`FramePool::give`],
/// senders grab them back via [`FramePool::take`].
pub struct FramePool {
    frames: Mutex<Vec<Frame>>,
    max_pooled: usize,
}

impl Default for FramePool {
    fn default() -> Self {
        FramePool::new()
    }
}

impl FramePool {
    /// A pool retaining at most a generous default number of idle frames.
    pub fn new() -> FramePool {
        FramePool::with_max(4096)
    }

    /// A pool retaining at most `max_pooled` idle frames; surplus returns
    /// are dropped so the pool itself cannot hoard memory.
    pub fn with_max(max_pooled: usize) -> FramePool {
        FramePool { frames: Mutex::new(Vec::new()), max_pooled }
    }

    /// Take a cleared frame, reusing a recycled one when available.
    pub fn take(&self) -> Frame {
        self.frames.lock().pop().unwrap_or_default()
    }

    /// Return a frame for reuse. Its tuples are dropped; the backing
    /// allocations are kept.
    pub fn give(&self, mut frame: Frame) {
        let mut frames = self.frames.lock();
        if frames.len() < self.max_pooled {
            frame.clear();
            frames.push(frame);
        }
    }

    /// Idle frames currently pooled (used by tests and stats).
    pub fn pooled(&self) -> usize {
        self.frames.lock().len()
    }
}

/// The stable hash of an absent field. A distinguished value — *not* 0 —
/// so a missing field can never collide with a present value whose
/// `stable_hash` happens to be 0.
fn missing_hash() -> u64 {
    static H: OnceLock<u64> = OnceLock::new();
    *H.get_or_init(|| Value::Missing.stable_hash())
}

/// Fold the stable hashes of a key's fields, in order, into the key's
/// routing hash (FNV-1a over the field hashes).
fn fold_key_hash(field_hashes: impl Iterator<Item = u64>) -> u64 {
    field_hashes.fold(0xcbf2_9ce4_8422_2325, |h, vh| (h ^ vh).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Compute the hash of the given tuple fields, for hash partitioning and
/// hash joins. Uses the ADM stable hash so equal-comparing values (across
/// numeric widths) land in the same partition; absent fields hash as
/// MISSING.
pub fn hash_fields(tuple: &Tuple, fields: &[usize]) -> u64 {
    fold_key_hash(
        fields.iter().map(|&f| tuple.get(f).map_or_else(missing_hash, |v| v.stable_hash())),
    )
}

/// [`hash_fields`] computed directly over an encoded tuple, bit-identical
/// to the decoded version: `ValueRef::stable_hash` replays the exact
/// hasher sequence of `Value::stable_hash`, and an out-of-range field
/// yields the MISSING encoding, which hashes as `Value::Missing`.
pub fn hash_encoded_fields(tuple: &TupleRef<'_>, fields: &[usize]) -> u64 {
    fold_key_hash(fields.iter().map(|&f| tuple.field(f).stable_hash()))
}

/// [`hash_encoded_fields`] of a one-column key, from the encoded key value
/// alone — what a scan has in hand when it tests a join key before there
/// is a tuple around it.
pub fn hash_encoded_key(value: ValueRef<'_>) -> u64 {
    fold_key_hash(std::iter::once(value.stable_hash()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::encode_tuple;

    #[test]
    fn hash_respects_numeric_promotion() {
        let a: Tuple = vec![Value::Int32(5), Value::string("x")];
        let b: Tuple = vec![Value::Int64(5), Value::string("x")];
        assert_eq!(hash_fields(&a, &[0, 1]), hash_fields(&b, &[0, 1]));
        let c: Tuple = vec![Value::Int64(6), Value::string("x")];
        assert_ne!(hash_fields(&a, &[0]), hash_fields(&c, &[0]));
    }

    #[test]
    fn one_value_hashes_as_the_one_column_key_holding_it() {
        let mut record = asterix_adm::Record::new();
        record.set("a", Value::Int32(1));
        for v in [
            Value::Int32(7),
            Value::Int64(7),
            Value::Double(7.0),
            Value::string("seven"),
            Value::Null,
            Value::Missing,
            Value::record(record),
        ] {
            let tuple = vec![v];
            let in_tuple =
                hash_encoded_fields(&TupleRef::new(&encode_tuple(&tuple)).unwrap(), &[0]);
            let alone = hash_encoded_key(ValueRef::new(&asterix_adm::serde::encode(&tuple[0])));
            assert_eq!(alone, in_tuple, "{tuple:?}");
            assert_eq!(alone, hash_fields(&tuple, &[0]), "{tuple:?}");
        }
    }

    #[test]
    fn missing_fields_hash_consistently() {
        let a: Tuple = vec![Value::Int32(1)];
        assert_eq!(hash_fields(&a, &[5]), hash_fields(&a, &[9]));
    }

    #[test]
    fn missing_field_hash_is_distinguished_from_zero_hash() {
        // An absent field must not collide with any "hash 0" sentinel: it
        // hashes exactly as an explicit MISSING value does.
        let absent: Tuple = vec![];
        let explicit: Tuple = vec![Value::Missing];
        assert_eq!(hash_fields(&absent, &[0]), hash_fields(&explicit, &[0]));
        assert_ne!(
            hash_fields(&absent, &[0]),
            0xcbf2_9ce4_8422_2325u64.wrapping_mul(0x0000_0100_0000_01b3)
        );
    }

    #[test]
    fn encoded_hash_is_bit_identical_to_decoded_hash() {
        let tuples: Vec<Tuple> = vec![
            vec![Value::Int32(5), Value::string("x")],
            vec![Value::Int64(5), Value::string("x")],
            vec![Value::Missing, Value::Null, Value::Double(2.5)],
            vec![],
        ];
        for t in &tuples {
            let enc = encode_tuple(t);
            let r = TupleRef::new(&enc).unwrap();
            for fields in [&[0usize][..], &[0, 1], &[2], &[7], &[1, 5, 0]] {
                assert_eq!(
                    hash_fields(t, fields),
                    hash_encoded_fields(&r, fields),
                    "hash mismatch for {t:?} fields {fields:?}"
                );
            }
        }
    }

    #[test]
    fn frame_occupancy_is_byte_exact() {
        let mut f = FrameBuf::new();
        let t1 = encode_tuple(&[Value::Int64(1), Value::string("abc")]);
        let t2 = encode_tuple(&[Value::Null]);
        f.push_encoded(&t1);
        f.push_tuple(&[Value::Null]);
        assert_eq!(f.tuple_count(), 2);
        assert_eq!(f.occupancy(), t1.len() + t2.len() + 2 * 4);
        assert_eq!(f.tuple_bytes(0), &t1[..]);
        assert_eq!(f.tuple_bytes(1), &t2[..]);
        assert_eq!(f.tuple_ref(1).unwrap().decode().unwrap(), vec![Value::Null]);
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.occupancy(), 0);
    }

    #[test]
    fn compact_into_matches_per_tuple_filter() {
        let tuples: Vec<Tuple> =
            (0..10).map(|i| vec![Value::Int64(i), Value::string(format!("row{i}"))]).collect();
        let mut src = FrameBuf::new();
        for t in &tuples {
            src.push_tuple(t);
        }
        // Several selection shapes: runs, singletons, empty, full.
        let shapes: Vec<Vec<usize>> = vec![
            vec![],
            (0..10).collect(),
            vec![0, 1, 2, 7, 8],
            vec![9],
            vec![0, 2, 4, 6, 8],
            vec![3, 4, 5],
        ];
        for shape in shapes {
            let mut keep = SelBitmap::new();
            keep.reset(src.tuple_count());
            for &i in &shape {
                keep.set(i);
            }
            assert_eq!(keep.count(), shape.len());
            let mut dst = FrameBuf::new();
            dst.push_tuple(&[Value::string("pre-existing")]);
            src.compact_into(&keep, &mut dst);
            assert_eq!(dst.tuple_count(), 1 + shape.len(), "shape {shape:?}");
            for (k, &i) in shape.iter().enumerate() {
                assert_eq!(dst.tuple_bytes(1 + k), src.tuple_bytes(i), "shape {shape:?} slot {i}");
            }
        }
    }

    #[test]
    fn append_frame_is_bulk_push_encoded() {
        let mut a = FrameBuf::new();
        let mut b = FrameBuf::new();
        a.push_tuple(&[Value::Int64(1)]);
        b.push_tuple(&[Value::string("x")]);
        b.push_tuple(&[Value::Null, Value::Int64(2)]);
        let mut expect = FrameBuf::new();
        expect.push_encoded(a.tuple_bytes(0));
        for t in b.iter() {
            expect.push_encoded(t);
        }
        a.append_frame(&b);
        assert_eq!(a.tuple_count(), 3);
        assert_eq!(a.occupancy(), expect.occupancy());
        for i in 0..3 {
            assert_eq!(a.tuple_bytes(i), expect.tuple_bytes(i));
        }
        // Appending an empty frame is a no-op.
        a.append_frame(&FrameBuf::new());
        assert_eq!(a.tuple_count(), 3);
    }

    #[test]
    fn sel_bitmap_basics() {
        let mut s = SelBitmap::new();
        s.reset(70);
        assert_eq!(s.len(), 70);
        assert_eq!(s.count(), 0);
        assert!(!s.all());
        for i in 0..70 {
            s.set(i);
        }
        assert!(s.all());
        assert!(!s.get(70), "out-of-range reads are false");
        s.reset(3);
        assert_eq!(s.count(), 0, "reset clears prior bits");
        s.set(2);
        assert!(s.get(2) && !s.get(0));
    }

    #[test]
    fn pool_recycles_byte_buffers() {
        let pool = FramePool::with_max(2);
        let mut f = pool.take();
        f.push_tuple(&[Value::Int64(7)]);
        pool.give(f);
        assert_eq!(pool.pooled(), 1);
        let f = pool.take();
        assert!(f.is_empty(), "recycled frame comes back cleared");
        assert_eq!(pool.pooled(), 0);
    }
}
