//! Seeded streaming corpus generator and the compact oracle the workloads
//! check answers against.
//!
//! Every record is a pure function of `(seed, kind, id)`, so nothing but a
//! few columns per record is kept after it has been handed to the loader:
//! a lookup's expected answer is regenerated from its id, and range, join
//! and aggregate answers come from the timestamp / author / length /
//! user-since columns. `peak_rss_mb` therefore measures the program, not
//! the generator.

use std::collections::{BTreeSet, HashSet};

use asterix_adm::print::to_adm_string;
use asterix_adm::value::Point;
use asterix_adm::{Record, Value};

pub const EPOCH_2010: i64 = 1_262_304_000_000; // 2010-01-01T00:00:00Z, ms
pub const YEAR_MS: i64 = 365 * 24 * 3600 * 1000;
/// Width of the window `user-since` and `timestamp` are uniform over.
pub const SPAN_MS: i64 = 4 * YEAR_MS;

const FIRST_NAMES: &[&str] = &[
    "Ada", "Grace", "Alan", "Edsger", "Barbara", "Donald", "John", "Dana", "Nicola", "Margaret",
    "Tim", "Leslie", "Tony", "Frances", "Niklaus", "Ken",
];
const LAST_NAMES: &[&str] = &[
    "Lovelace", "Hopper", "Turing", "Dijkstra", "Liskov", "Knuth", "Backus", "Scott", "Hamilton",
    "Lee", "Lamport", "Hoare", "Allen", "Wirth", "Thompson", "Codd",
];
const CITIES: &[&str] = &[
    "Irvine",
    "Riverside",
    "San Harry",
    "Springfield",
    "Portland",
    "Austin",
    "Madison",
    "Boulder",
];
const STATES: &[&str] = &["CA", "OR", "TX", "WI", "CO", "WA"];
const COUNTRIES: &[&str] = &["USA", "Canada", "Mexico", "Germany", "India", "Japan"];
const ORGS: &[&str] =
    &["Kongreen", "Hexbit", "Dataverse Inc", "Streamworks", "Quanta", "Mugshot.com", "Acme"];
const JOB_KINDS: &[&str] = &["full-time", "part-time", "contract"];
const WORDS: &[&str] = &[
    "love", "this", "phone", "network", "tonight", "coffee", "deadline", "paper", "weather",
    "game", "concert", "great", "terrible", "slow", "fast", "battery", "service", "signal",
    "happy", "meeting", "traffic", "beach", "music", "launch", "release", "update", "crash",
    "awesome", "bug", "query",
];
const TAGS: &[&str] =
    &["tech", "music", "sports", "food", "travel", "news", "movies", "science", "art", "coding"];

/// SplitMix64 (Steele, Lea, Flood 2014): one add and three xor-shift
/// multiplies per draw, and good enough that consecutive seeds give
/// unrelated streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len() as u64) as usize]
    }
}

const KIND_USER: u64 = 1;
const KIND_MESSAGE: u64 = 2;

/// The generator stream of one record: independent of every other
/// record's, so records can be regenerated in any order.
fn record_rng(seed: u64, kind: u64, id: i64) -> Rng {
    let mut r = Rng::new(seed ^ kind.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let a = r.next_u64();
    Rng::new(a ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Corpus sizes; ids are `0..users` and `0..messages`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub users: usize,
    pub messages: usize,
}

/// One `MugshotUserType` record (Data definition 1 of the paper).
pub fn user(seed: u64, id: i64, scale: Scale) -> Value {
    let rng = &mut record_rng(seed, KIND_USER, id);
    let first = rng.pick(FIRST_NAMES);
    let last = rng.pick(LAST_NAMES);
    let user_since = EPOCH_2010 + rng.range(0, SPAN_MS);
    let friends: Vec<Value> =
        (0..rng.range(1, 8)).map(|_| Value::Int64(rng.range(0, scale.users as i64))).collect();
    let employment: Vec<Value> = (0..rng.range(0, 3))
        .map(|_| {
            let start = (user_since / 86_400_000) as i32 - rng.range(0, 2000) as i32;
            let mut emp = Record::new();
            emp.push_unchecked("organization-name", Value::string(rng.pick(ORGS)));
            emp.push_unchecked("start-date", Value::Date(start));
            if rng.chance(0.5) {
                emp.push_unchecked("end-date", Value::Date(start + rng.range(30, 1500) as i32));
            }
            // An undeclared field: the type is open.
            if rng.chance(0.7) {
                emp.push_unchecked("job-kind", Value::string(rng.pick(JOB_KINDS)));
            }
            Value::record(emp)
        })
        .collect();
    let mut address = Record::new();
    address.push_unchecked("street", Value::string(format!("{} Main St", rng.range(1, 999))));
    address.push_unchecked("city", Value::string(rng.pick(CITIES)));
    address.push_unchecked("state", Value::string(rng.pick(STATES)));
    address.push_unchecked("zip", Value::string(format!("{:05}", rng.range(10000, 99999))));
    address.push_unchecked("country", Value::string(rng.pick(COUNTRIES)));

    let mut r = Record::new();
    r.push_unchecked("id", Value::Int64(id));
    r.push_unchecked("alias", Value::string(format!("{first}{id}")));
    r.push_unchecked("name", Value::string(format!("{first} {last}")));
    r.push_unchecked("user-since", Value::DateTime(user_since));
    r.push_unchecked("address", Value::record(address));
    r.push_unchecked("friend-ids", Value::unordered_list(friends));
    r.push_unchecked("employment", Value::ordered_list(employment));
    Value::record(r)
}

/// One `MugshotMessageType` record.
pub fn message(seed: u64, id: i64, scale: Scale) -> Value {
    let rng = &mut record_rng(seed, KIND_MESSAGE, id);
    let ts = EPOCH_2010 + rng.range(0, SPAN_MS);
    let tags: Vec<Value> = (0..rng.range(1, 4)).map(|_| Value::string(rng.pick(TAGS))).collect();
    let mut r = Record::new();
    r.push_unchecked("message-id", Value::Int64(id));
    r.push_unchecked("author-id", Value::Int64(rng.range(0, scale.users as i64)));
    r.push_unchecked("timestamp", Value::DateTime(ts));
    if rng.chance(0.3) {
        r.push_unchecked("in-response-to", Value::Int64(rng.range(0, id.max(1))));
    }
    if rng.chance(0.8) {
        let x = -120.0 + 40.0 * rng.unit();
        let y = 25.0 + 23.0 * rng.unit();
        r.push_unchecked("sender-location", Value::Point(Point::new(x, y)));
    }
    r.push_unchecked("tags", Value::unordered_list(tags));
    let mut text = String::new();
    for i in 0..rng.range(12, 40) {
        if i > 0 {
            text.push(' ');
        }
        text.push_str(rng.pick(WORDS));
    }
    r.push_unchecked("message", Value::string(text));
    Value::record(r)
}

fn datetime_of(v: &Value, field: &str) -> i64 {
    match v.field(field) {
        Value::DateTime(t) => t,
        other => panic!("generated {field} is {other:?}, not a datetime"),
    }
}

/// What the workloads need to know about the loaded corpus, in columns
/// indexed by record id.
#[derive(Debug, Clone, PartialEq)]
pub struct Oracle {
    pub seed: u64,
    pub scale: Scale,
    pub user_since: Vec<i64>,
    pub msg_ts: Vec<i64>,
    pub msg_author: Vec<u32>,
    /// `string-length(message)`; the generator's words are ASCII.
    pub msg_len: Vec<u16>,
    /// Message ids ordered by `(timestamp, id)`.
    pub msgs_by_ts: Vec<u32>,
    /// Messages per author id.
    pub msgs_of_user: Vec<u32>,
    /// ADM-text bytes of every user / message record of the corpus: the
    /// "user bytes" the storage ratios are relative to.
    pub user_text_bytes: u64,
    pub msg_text_bytes: u64,
}

/// Generate the corpus, handing each record to `load_user` / `load_message`
/// and dropping it, and return the oracle.
pub fn stream_corpus<E>(
    seed: u64,
    scale: Scale,
    mut load_user: impl FnMut(&Value) -> Result<(), E>,
    mut load_message: impl FnMut(&Value) -> Result<(), E>,
) -> Result<Oracle, E> {
    let mut o = Oracle {
        seed,
        scale,
        user_since: Vec::with_capacity(scale.users),
        msg_ts: Vec::with_capacity(scale.messages),
        msg_author: Vec::with_capacity(scale.messages),
        msg_len: Vec::with_capacity(scale.messages),
        msgs_by_ts: Vec::new(),
        msgs_of_user: vec![0; scale.users],
        user_text_bytes: 0,
        msg_text_bytes: 0,
    };
    for id in 0..scale.users as i64 {
        let u = user(seed, id, scale);
        o.user_since.push(datetime_of(&u, "user-since"));
        o.user_text_bytes += to_adm_string(&u).len() as u64;
        load_user(&u)?;
    }
    for id in 0..scale.messages as i64 {
        let m = message(seed, id, scale);
        let author = m.field("author-id").as_i64().expect("generated author-id") as u32;
        o.msg_ts.push(datetime_of(&m, "timestamp"));
        o.msg_author.push(author);
        o.msg_len.push(m.field("message").as_str().expect("generated message").len() as u16);
        o.msgs_of_user[author as usize] += 1;
        o.msg_text_bytes += to_adm_string(&m).len() as u64;
        load_message(&m)?;
    }
    let mut by_ts: Vec<u32> = (0..scale.messages as u32).collect();
    by_ts.sort_unstable_by_key(|&i| (o.msg_ts[i as usize], i));
    o.msgs_by_ts = by_ts;
    Ok(o)
}

/// Expected answer of a grouped top-10: the counts, largest first. Which
/// author carries a count is not compared, as ties order arbitrarily.
pub type TopCounts = Vec<u64>;

impl Oracle {
    /// Width of a window expected to select `target` of `population`
    /// uniformly spread values.
    pub fn window_ms(target: usize, population: usize) -> i64 {
        (SPAN_MS as f64 * target as f64 / population.max(1) as f64) as i64
    }

    /// A window start such that `[lo, lo + width)` stays inside the corpus
    /// span, away from its edges.
    pub fn draw_window(rng: &mut Rng, width: i64) -> (i64, i64) {
        let margin = SPAN_MS / 50;
        let lo = EPOCH_2010 + margin + rng.range(0, SPAN_MS - 2 * margin - width);
        (lo, lo + width)
    }

    /// Ids of messages with `lo <= timestamp < hi`, in timestamp order.
    pub fn msgs_in(&self, lo: i64, hi: i64) -> &[u32] {
        let a = self.msgs_by_ts.partition_point(|&i| self.msg_ts[i as usize] < lo);
        let b = self.msgs_by_ts.partition_point(|&i| self.msg_ts[i as usize] < hi);
        &self.msgs_by_ts[a..b]
    }

    pub fn range_count(&self, lo: i64, hi: i64) -> usize {
        self.msgs_in(lo, hi).len()
    }

    fn user_selected(&self, id: u32, lo: i64, hi: i64) -> bool {
        let s = self.user_since[id as usize];
        lo <= s && s <= hi
    }

    /// Rows of users with `lo <= user-since <= hi` joined to their messages.
    pub fn sel_join_count(&self, lo: i64, hi: i64) -> usize {
        (0..self.scale.users as u32)
            .filter(|&u| self.user_selected(u, lo, hi))
            .map(|u| self.msgs_of_user[u as usize] as usize)
            .sum()
    }

    /// As `sel_join_count`, restricted to messages in `[mlo, mhi)`.
    pub fn sel2_join_count(&self, ulo: i64, uhi: i64, mlo: i64, mhi: i64) -> usize {
        self.msgs_in(mlo, mhi)
            .iter()
            .filter(|&&m| self.user_selected(self.msg_author[m as usize], ulo, uhi))
            .count()
    }

    /// `avg(string-length(message))` over `[lo, hi)`; `None` when empty.
    pub fn avg_len(&self, lo: i64, hi: i64) -> Option<f64> {
        let ids = self.msgs_in(lo, hi);
        if ids.is_empty() {
            return None;
        }
        let sum: u64 = ids.iter().map(|&m| self.msg_len[m as usize] as u64).sum();
        Some(sum as f64 / ids.len() as f64)
    }

    /// Message counts of the ten chattiest authors in `[lo, hi)`.
    pub fn top10_counts(&self, lo: i64, hi: i64) -> TopCounts {
        let mut authors: Vec<u32> =
            self.msgs_in(lo, hi).iter().map(|&m| self.msg_author[m as usize]).collect();
        authors.sort_unstable();
        let mut counts: Vec<u64> =
            authors.chunk_by(|a, b| a == b).map(|g| g.len() as u64).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts.truncate(10);
        counts
    }

    pub fn user(&self, id: i64) -> Value {
        user(self.seed, id, self.scale)
    }

    pub fn message(&self, id: i64) -> Value {
        message(self.seed, id, self.scale)
    }
}

/// The write side of the oracle: which messages `ingest_mixed` has added
/// to and removed from the loaded corpus.
#[derive(Debug, Default)]
pub struct LiveSet {
    /// `(timestamp, id)` of acknowledged inserts still live.
    pub added: BTreeSet<(i64, i64)>,
    /// `(timestamp, id)` of acknowledged deletes of corpus messages.
    pub removed_base: BTreeSet<(i64, i64)>,
    /// Ids of all acknowledged deletes.
    pub removed: HashSet<i64>,
    pub text_bytes_added: u64,
    pub text_bytes_removed: u64,
}

impl LiveSet {
    /// Record an acknowledged insert of `m`; returns its id.
    pub fn note_insert(&mut self, m: &Value) -> i64 {
        let id = m.field("message-id").as_i64().expect("generated message-id");
        self.added.insert((datetime_of(m, "timestamp"), id));
        self.text_bytes_added += to_adm_string(m).len() as u64;
        id
    }

    /// Record an acknowledged delete of `m`, a corpus message if its id is
    /// below `base_messages`.
    pub fn note_delete(&mut self, m: &Value, base_messages: usize) {
        let id = m.field("message-id").as_i64().expect("generated message-id");
        let key = (datetime_of(m, "timestamp"), id);
        if (id as usize) < base_messages {
            self.removed_base.insert(key);
        } else {
            self.added.remove(&key);
        }
        self.removed.insert(id);
        self.text_bytes_removed += to_adm_string(m).len() as u64;
    }

    pub fn is_removed(&self, id: i64) -> bool {
        self.removed.contains(&id)
    }

    /// Live messages with `lo <= timestamp < hi`.
    pub fn range_count(&self, base: &Oracle, lo: i64, hi: i64) -> usize {
        let span = (lo, i64::MIN)..(hi, i64::MIN);
        base.range_count(lo, hi) - self.removed_base.range(span.clone()).count()
            + self.added.range(span).count()
    }

    pub fn live_messages(&self, base: &Oracle) -> usize {
        base.scale.messages - self.removed_base.len() + self.added.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::serde::encode;

    const SCALE: Scale = Scale { users: 2_000, messages: 20_000 };

    fn collect(seed: u64) -> (Oracle, Vec<Vec<u8>>) {
        let mut bytes = Vec::new();
        let sink = std::cell::RefCell::new(&mut bytes);
        let o = stream_corpus::<()>(
            seed,
            SCALE,
            |u| {
                sink.borrow_mut().push(encode(u));
                Ok(())
            },
            |m| {
                sink.borrow_mut().push(encode(m));
                Ok(())
            },
        )
        .unwrap();
        (o, bytes)
    }

    #[test]
    fn one_seed_gives_identical_records_and_answers_twice() {
        let (a, bytes_a) = collect(7);
        let (b, bytes_b) = collect(7);
        assert_eq!(bytes_a, bytes_b);
        assert_eq!(a, b);
        let (lo, hi) =
            (EPOCH_2010 + YEAR_MS, EPOCH_2010 + YEAR_MS + Oracle::window_ms(300, 20_000));
        assert_eq!(a.range_count(lo, hi), b.range_count(lo, hi));
        assert_eq!(a.avg_len(lo, hi), b.avg_len(lo, hi));
        assert_eq!(a.top10_counts(lo, hi), b.top10_counts(lo, hi));
        assert_eq!(a.sel_join_count(lo, hi), b.sel_join_count(lo, hi));
        // Records regenerate from their id alone.
        assert_eq!(encode(&a.user(17)), bytes_a[17]);
        assert_eq!(encode(&a.message(123)), bytes_a[SCALE.users + 123]);
    }

    #[test]
    fn another_seed_differs() {
        let (a, bytes_a) = collect(7);
        let (b, bytes_b) = collect(8);
        assert_ne!(bytes_a[0], bytes_b[0]);
        assert_ne!(a.msg_ts, b.msg_ts);
        assert_ne!(a.user_since, b.user_since);
    }

    #[test]
    fn selectivities_land_near_their_targets() {
        let (o, _) = collect(11);
        let rng = &mut Rng::new(5);
        for target in [300usize, 3_000] {
            let width = Oracle::window_ms(target, SCALE.messages);
            let (mut total, rounds) = (0usize, 40);
            for _ in 0..rounds {
                let (lo, hi) = Oracle::draw_window(rng, width);
                total += o.range_count(lo, hi);
            }
            let mean = total as f64 / rounds as f64;
            let t = target as f64;
            assert!((mean - t).abs() <= 0.15 * t, "target {target}: mean selected {mean}");
        }
        // A user window sized for `k` joined rows selects about `k`.
        let width = Oracle::window_ms(300, SCALE.messages);
        let (mut total, rounds) = (0usize, 40);
        for _ in 0..rounds {
            let (lo, hi) = Oracle::draw_window(rng, width);
            total += o.sel_join_count(lo, hi);
        }
        let mean = total as f64 / rounds as f64;
        assert!((mean - 300.0).abs() <= 45.0, "join target 300: mean selected {mean}");
    }

    #[test]
    fn oracle_answers_match_a_brute_force_pass() {
        let (o, _) = collect(3);
        let (lo, hi) = (EPOCH_2010 + YEAR_MS, EPOCH_2010 + 2 * YEAR_MS);
        let in_range: Vec<Value> = (0..SCALE.messages as i64)
            .map(|i| o.message(i))
            .filter(|m| (lo..hi).contains(&datetime_of(m, "timestamp")))
            .collect();
        assert_eq!(o.range_count(lo, hi), in_range.len());
        let total: usize =
            in_range.iter().map(|m| m.field("message").as_str().unwrap().chars().count()).sum();
        let avg = o.avg_len(lo, hi).unwrap();
        assert!((avg - total as f64 / in_range.len() as f64).abs() < 1e-9);
        let (ulo, uhi) = (EPOCH_2010, EPOCH_2010 + YEAR_MS / 10);
        let joined = (0..SCALE.messages as i64)
            .map(|i| o.message(i))
            .filter(|m| {
                let u = o.user(m.field("author-id").as_i64().unwrap());
                (ulo..=uhi).contains(&datetime_of(&u, "user-since"))
            })
            .count();
        assert_eq!(o.sel_join_count(ulo, uhi), joined);
        assert!(o.top10_counts(lo, hi).windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn live_set_tracks_inserts_and_deletes() {
        let (o, _) = collect(3);
        let mut live = LiveSet::default();
        let (lo, hi) = (EPOCH_2010, EPOCH_2010 + SPAN_MS);
        assert_eq!(live.range_count(&o, lo, hi), SCALE.messages);
        let fresh = o.message(SCALE.messages as i64 + 5);
        live.note_insert(&fresh);
        assert_eq!(live.range_count(&o, lo, hi), SCALE.messages + 1);
        live.note_delete(&o.message(9), SCALE.messages);
        live.note_delete(&fresh, SCALE.messages);
        assert_eq!(live.range_count(&o, lo, hi), SCALE.messages - 1);
        assert_eq!(live.live_messages(&o), SCALE.messages - 1);
        assert!(live.is_removed(9) && !live.is_removed(10));
    }
}
