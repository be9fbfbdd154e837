//! The five-system Table 3 harness.
//!
//! Each system loads the same [`crate::datagen`] corpus and answers the
//! same workload; the harness validates that all systems return the same
//! row counts before timing anything, then reports per-query times.

use std::sync::Arc;
use std::time::{Duration, Instant};

use asterix_adm::temporal::format_datetime;
use asterix_adm::Value;
use asterix_baselines::docstore::Collection;
use asterix_baselines::relational::{self, NormalizedDataset};
use asterix_baselines::scanengine::Table as OrcTable;
use asterixdb::{ClusterConfig, Instance};

use crate::datagen::Corpus;

/// Which AsterixDB type declaration to use (Table 2/3's Schema vs KeyOnly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaMode {
    /// All fields declared a priori.
    Schema,
    /// Only the primary key declared (fully open instances).
    KeyOnly,
}

/// The common workload interface all five systems implement.
pub trait Table3System {
    fn name(&self) -> &'static str;

    /// Single-record primary-key fetch.
    fn rec_lookup(&self, id: i64) -> usize;

    /// Messages with timestamp in `[lo, hi)`.
    fn range_scan(&self, lo: i64, hi: i64) -> usize;

    /// Users filtered by user-since range joined with their messages.
    fn sel_join(&self, lo: i64, hi: i64) -> usize;

    /// As `sel_join` plus a timestamp filter on the message side.
    fn sel2_join(&self, ulo: i64, uhi: i64, mlo: i64, mhi: i64) -> usize;

    /// Average message length in a timestamp range.
    fn agg(&self, lo: i64, hi: i64) -> Option<f64>;

    /// Top-10 chattiest authors in a timestamp range; returns group count
    /// reported (≤ 10).
    fn grp_agg(&self, lo: i64, hi: i64) -> usize;

    /// Total storage bytes (Table 2).
    fn size_bytes(&self) -> u64;

    /// Machine-readable runtime counters as one JSON object, for systems
    /// that track them (AsterixDB reports buffer-cache hit rate and
    /// exchange frame/stall totals).
    fn runtime_stats_json(&self) -> Option<String> {
        None
    }
}

/// Insert-capable systems (Table 4; Hive is excluded, as in the paper).
pub trait Table4System {
    fn insert_one(&mut self, doc: &Value);
    fn insert_batch(&mut self, docs: &[Value]);
}

// ---------------------------------------------------------------------------
// AsterixDB
// ---------------------------------------------------------------------------

/// An AsterixDB instance loaded with the corpus.
pub struct AsterixSystem {
    pub instance: Arc<Instance>,
    pub mode: SchemaMode,
    pub indexed: bool,
    _dir: tempfile::TempDir,
}

const SCHEMA_DDL: &str = r#"
    create dataverse Bench;
    use dataverse Bench;
    create type EmploymentType as open {
        organization-name: string,
        start-date: date,
        end-date: date?
    };
    create type AddressType as open {
        street: string, city: string, state: string, zip: string, country: string
    };
    create type MugshotUserType as open {
        id: int64,
        alias: string,
        name: string,
        user-since: datetime,
        address: AddressType,
        friend-ids: {{ int64 }},
        employment: [EmploymentType]
    };
    create type MugshotMessageType as open {
        message-id: int64,
        author-id: int64,
        timestamp: datetime,
        in-response-to: int64?,
        sender-location: point?,
        tags: {{ string }},
        message: string
    };
    create type TweetUserType as open {
        screen-name: string, followers: int64
    };
    create type TweetType as open {
        tweetid: int64,
        user: TweetUserType,
        sender-location: point,
        send-time: datetime,
        referred-topics: {{ string }},
        message-text: string
    };
    create dataset MugshotUsers(MugshotUserType) primary key id;
    create dataset MugshotMessages(MugshotMessageType) primary key message-id;
    create dataset Tweets(TweetType) primary key tweetid;
"#;

const KEYONLY_DDL: &str = r#"
    create dataverse Bench;
    use dataverse Bench;
    create type MugshotUserType as open { id: int64 };
    create type MugshotMessageType as open { message-id: int64 };
    create type TweetType as open { tweetid: int64 };
    create dataset MugshotUsers(MugshotUserType) primary key id;
    create dataset MugshotMessages(MugshotMessageType) primary key message-id;
    create dataset Tweets(TweetType) primary key tweetid;
"#;

const INDEX_DDL: &str = r#"
    use dataverse Bench;
    create index msUserSinceIdx on MugshotUsers(user-since);
    create index msTimestampIdx on MugshotMessages(timestamp);
    create index msAuthorIdx on MugshotMessages(author-id) type btree;
"#;

/// Stand up an AsterixDB instance and load the corpus. The
/// `ASTERIX_BENCH_QUERY_MEM` environment variable (bytes) overrides the
/// per-query working-memory request, so the Table 3 binaries can run
/// memory-pressure sweeps without a recompile.
pub fn setup_asterix(corpus: &Corpus, mode: SchemaMode, indexed: bool) -> AsterixSystem {
    let query_mem = std::env::var("ASTERIX_BENCH_QUERY_MEM").ok().and_then(|v| v.parse().ok());
    setup_asterix_tuned(corpus, mode, indexed, query_mem, None)
}

/// [`setup_asterix`] with explicit workload-manager settings: `query_mem`
/// is the per-query working-memory request the jobs divide across their
/// sorts/groups/joins (small values force spilling), and `max_concurrent`
/// caps simultaneously admitted queries (admission sweeps).
pub fn setup_asterix_tuned(
    corpus: &Corpus,
    mode: SchemaMode,
    indexed: bool,
    query_mem: Option<usize>,
    max_concurrent: Option<usize>,
) -> AsterixSystem {
    setup_asterix_with(corpus, mode, indexed, query_mem, max_concurrent, |_| {})
}

/// [`setup_asterix_tuned`] plus a config hook applied after the env knobs,
/// so ablation harnesses can force a knob both ways inside one process
/// (the env flags cover whole-process A/B runs in CI).
pub fn setup_asterix_with(
    corpus: &Corpus,
    mode: SchemaMode,
    indexed: bool,
    query_mem: Option<usize>,
    max_concurrent: Option<usize>,
    tweak: impl FnOnce(&mut ClusterConfig),
) -> AsterixSystem {
    let dir = tempfile::TempDir::new().expect("tempdir");
    let mut cfg = ClusterConfig::small(dir.path());
    cfg.nodes = 2;
    cfg.partitions_per_node = 2;
    if let Some(m) = query_mem {
        cfg.per_query_mem_bytes = m;
    }
    if let Some(c) = max_concurrent {
        cfg.max_concurrent_queries = c;
    }
    // A/B smoke knobs (CI runs the tiny-scale workload once per knob; the
    // shape checks then double as a results-parity gate for each path).
    let env_flag = |k: &str| std::env::var(k).is_ok_and(|v| v == "1");
    cfg.disable_vectorization = env_flag("ASTERIX_BENCH_DISABLE_VECTORIZATION");
    cfg.disable_runtime_filters = env_flag("ASTERIX_BENCH_DISABLE_RUNTIME_FILTERS");
    cfg.disable_columnar = env_flag("ASTERIX_BENCH_DISABLE_COLUMNAR");
    cfg.disable_plan_cache = env_flag("ASTERIX_BENCH_DISABLE_PLAN_CACHE");
    // Continuous metrics sampling for the bench JSON's time-series block
    // (`ASTERIX_BENCH_SAMPLE_MS=0` disables it).
    let sample_ms = std::env::var("ASTERIX_BENCH_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200u64);
    if sample_ms > 0 {
        cfg.metrics_sample_interval = Some(Duration::from_millis(sample_ms));
    }
    tweak(&mut cfg);
    let instance = Instance::open(cfg).expect("open instance");
    let ddl = match mode {
        SchemaMode::Schema => SCHEMA_DDL,
        SchemaMode::KeyOnly => KEYONLY_DDL,
    };
    instance.execute(ddl).expect("bench DDL");
    if indexed {
        instance.execute(INDEX_DDL).expect("index DDL");
    } else {
        instance.optimizer_options.write().enable_index_access = false;
    }
    let users = instance.dataset("MugshotUsers").unwrap();
    for u in &corpus.users {
        users.insert(u).expect("load user");
    }
    let msgs = instance.dataset("MugshotMessages").unwrap();
    for m in &corpus.messages {
        msgs.insert(m).expect("load message");
    }
    let tweets = instance.dataset("Tweets").unwrap();
    for t in &corpus.tweets {
        tweets.insert(t).expect("load tweet");
    }
    // Settle storage: flush memory components so reads hit disk components
    // (the paper's measurements are warm reads over persisted data).
    users.flush_all().unwrap();
    msgs.flush_all().unwrap();
    tweets.flush_all().unwrap();
    net_smoke(&instance);
    AsterixSystem { instance, mode, indexed, _dir: dir }
}

/// One loopback round-trip through the wire-protocol server, so the
/// `net.*` counters are live in every bench instance's registry (the
/// committed bench JSON carries them and the gate checks key presence).
fn net_smoke(instance: &Arc<Instance>) {
    let server =
        asterix_net::Server::start(Arc::clone(instance), asterix_net::ServerConfig::default())
            .expect("net smoke: server");
    let mut wire =
        asterix_net::Client::connect(server.local_addr(), None).expect("net smoke: connect");
    let rows = wire.query("for $x in [1, 2, 3] return $x").expect("net smoke: query");
    assert_eq!(rows.len(), 3, "net smoke query shape");
    wire.close().expect("net smoke: close");
    server.shutdown();
}

fn dt(ms: i64) -> String {
    format!("datetime(\"{}\")", format_datetime(ms))
}

impl Table3System for AsterixSystem {
    fn name(&self) -> &'static str {
        match (self.mode, self.indexed) {
            (SchemaMode::Schema, true) => "Asterix(Schema)+IX",
            (SchemaMode::Schema, false) => "Asterix(Schema)",
            (SchemaMode::KeyOnly, true) => "Asterix(KeyOnly)+IX",
            (SchemaMode::KeyOnly, false) => "Asterix(KeyOnly)",
        }
    }

    fn rec_lookup(&self, id: i64) -> usize {
        self.instance
            .query(&format!("for $u in dataset MugshotUsers where $u.id = {id} return $u"))
            .expect("rec lookup")
            .len()
    }

    fn range_scan(&self, lo: i64, hi: i64) -> usize {
        self.instance
            .query(&format!(
                "for $m in dataset MugshotMessages \
                 where $m.timestamp >= {} and $m.timestamp < {} return $m",
                dt(lo),
                dt(hi)
            ))
            .expect("range scan")
            .len()
    }

    fn sel_join(&self, lo: i64, hi: i64) -> usize {
        // The indexed variant uses the paper's `indexnl` hint (Query 14);
        // the unindexed variant compiles to a hybrid hash join (§5.1 rule
        // (b)).
        let hint = if self.indexed { "/*+ indexnl */ " } else { "" };
        self.instance
            .query(&format!(
                "for $u in dataset MugshotUsers \
                 for $m in dataset MugshotMessages \
                 where $m.author-id {hint}= $u.id \
                   and $u.user-since >= {} and $u.user-since <= {} \
                 return {{ \"uname\": $u.name, \"message\": $m.message }}",
                dt(lo),
                dt(hi)
            ))
            .expect("sel join")
            .len()
    }

    fn sel2_join(&self, ulo: i64, uhi: i64, mlo: i64, mhi: i64) -> usize {
        let hint = if self.indexed { "/*+ indexnl */ " } else { "" };
        self.instance
            .query(&format!(
                "for $u in dataset MugshotUsers \
                 for $m in dataset MugshotMessages \
                 where $m.author-id {hint}= $u.id \
                   and $u.user-since >= {} and $u.user-since <= {} \
                   and $m.timestamp >= {} and $m.timestamp < {} \
                 return {{ \"uname\": $u.name, \"message\": $m.message }}",
                dt(ulo),
                dt(uhi),
                dt(mlo),
                dt(mhi)
            ))
            .expect("sel2 join")
            .len()
    }

    fn agg(&self, lo: i64, hi: i64) -> Option<f64> {
        // Query 10, verbatim shape.
        let rows = self
            .instance
            .query(&format!(
                "avg( for $m in dataset MugshotMessages \
                      where $m.timestamp >= {} and $m.timestamp < {} \
                      return string-length($m.message) )",
                dt(lo),
                dt(hi)
            ))
            .expect("agg");
        rows.first().and_then(|v| v.as_f64())
    }

    fn grp_agg(&self, lo: i64, hi: i64) -> usize {
        // Query 11 with limit 10.
        self.instance
            .query(&format!(
                "for $m in dataset MugshotMessages \
                 where $m.timestamp >= {} and $m.timestamp < {} \
                 group by $aid := $m.author-id with $m \
                 let $cnt := count($m) \
                 order by $cnt desc \
                 limit 10 \
                 return {{ \"author\": $aid, \"cnt\": $cnt }}",
                dt(lo),
                dt(hi)
            ))
            .expect("grp agg")
            .len()
    }

    fn size_bytes(&self) -> u64 {
        ["MugshotUsers", "MugshotMessages", "Tweets"]
            .iter()
            .map(|d| self.instance.dataset(d).unwrap().primary_size_bytes())
            .sum()
    }

    fn runtime_stats_json(&self) -> Option<String> {
        // Schema-versioned: the legacy flat keys stay for old consumers,
        // and the full registry snapshot rides under the stable `metrics`
        // top-level key.
        let (hits, misses, rate) = self.instance.cache_stats();
        let x = self.instance.exchange_stats();
        Some(format!(
            "{{\"schema_version\":1,\"system\":\"{}\",\"cache_hits\":{hits},\
             \"cache_misses\":{misses},\"cache_hit_rate\":{rate:.4},\
             \"frames_sent\":{},\"tuples_sent\":{},\"bytes_sent\":{},\
             \"backpressure_stalls\":{},\
             \"metrics\":{},\
             \"timeseries\":{}}}",
            self.name(),
            x.frames_sent(),
            x.tuples_sent(),
            x.bytes_sent(),
            x.backpressure_stalls(),
            self.instance.metrics().to_json(),
            self.instance.metrics_timeseries_json(),
        ))
    }
}

// ---------------------------------------------------------------------------
// System-X stand-in
// ---------------------------------------------------------------------------

pub struct SystemX {
    pub users: NormalizedDataset,
    pub messages: NormalizedDataset,
    pub tweets: NormalizedDataset,
    pub indexed: bool,
}

pub fn setup_systemx(corpus: &Corpus, indexed: bool) -> SystemX {
    let mut users = relational::normalize(
        "users",
        &corpus.users,
        "id",
        &[
            "id",
            "alias",
            "name",
            "user-since",
            "address.street",
            "address.city",
            "address.state",
            "address.zip",
            "address.country",
        ],
        &[
            ("friend-ids", &[] as &[&str]),
            ("employment", &["organization-name", "start-date", "end-date"]),
        ],
    );
    let mut messages = relational::normalize(
        "messages",
        &corpus.messages,
        "message-id",
        &["message-id", "author-id", "timestamp", "sender-location", "message"],
        &[("tags", &[] as &[&str])],
    );
    let tweets = relational::normalize(
        "tweets",
        &corpus.tweets,
        "tweetid",
        &["tweetid", "user.screen-name", "send-time", "message-text"],
        &[("referred-topics", &[] as &[&str])],
    );
    // Primary-key indexes always exist in an RDBMS; side tables are keyed
    // by parent.
    users.main.create_index("id");
    messages.main.create_index("message-id");
    for s in users.side.iter_mut().chain(messages.side.iter_mut()) {
        s.create_index("_parent");
    }
    if indexed {
        users.main.create_index("user-since");
        messages.main.create_index("timestamp");
        messages.main.create_index("author-id");
    }
    SystemX { users, messages, tweets, indexed }
}

impl Table3System for SystemX {
    fn name(&self) -> &'static str {
        if self.indexed {
            "System-X+IX"
        } else {
            "System-X"
        }
    }

    fn rec_lookup(&self, id: i64) -> usize {
        // PK lookup plus the small joins to reassemble nested fields.
        let ids = self.users.main.select_range("id", &Value::Int64(id), &Value::Int64(id));
        self.users.reassemble(&ids, "id").len()
    }

    fn range_scan(&self, lo: i64, hi: i64) -> usize {
        let ids = self.messages.main.select_range(
            "timestamp",
            &Value::DateTime(lo),
            &Value::DateTime(hi),
        );
        // Reassembly joins pull the tag bags back in.
        self.messages.reassemble(&ids, "message-id").len()
    }

    fn sel_join(&self, lo: i64, hi: i64) -> usize {
        let uids =
            self.users.main.select_range("user-since", &Value::DateTime(lo), &Value::DateTime(hi));
        relational::join(&self.users.main, &uids, "id", &self.messages.main, "author-id").len()
    }

    fn sel2_join(&self, ulo: i64, uhi: i64, mlo: i64, mhi: i64) -> usize {
        let uids = self.users.main.select_range(
            "user-since",
            &Value::DateTime(ulo),
            &Value::DateTime(uhi),
        );
        let pairs =
            relational::join(&self.users.main, &uids, "id", &self.messages.main, "author-id");
        let ts = self.messages.main.col("timestamp").unwrap();
        pairs
            .iter()
            .filter(|(_, mid)| {
                let Value::DateTime(t) = self.messages.main.rows[*mid][ts] else {
                    return false;
                };
                t >= mlo && t < mhi
            })
            .count()
    }

    fn agg(&self, lo: i64, hi: i64) -> Option<f64> {
        let ids = self.messages.main.select_range(
            "timestamp",
            &Value::DateTime(lo),
            &Value::DateTime(hi),
        );
        let mc = self.messages.main.col("message").unwrap();
        let lens: Vec<f64> = ids
            .iter()
            .filter_map(|&i| {
                self.messages.main.rows[i][mc].as_str().map(|s| s.chars().count() as f64)
            })
            .collect();
        (!lens.is_empty()).then(|| lens.iter().sum::<f64>() / lens.len() as f64)
    }

    fn grp_agg(&self, lo: i64, hi: i64) -> usize {
        let ids = self.messages.main.select_range(
            "timestamp",
            &Value::DateTime(lo),
            &Value::DateTime(hi),
        );
        let ac = self.messages.main.col("author-id").unwrap();
        let mut counts: std::collections::HashMap<i64, usize> = Default::default();
        for &i in &ids {
            if let Some(a) = self.messages.main.rows[i][ac].as_i64() {
                *counts.entry(a).or_default() += 1;
            }
        }
        let mut v: Vec<(i64, usize)> = counts.into_iter().collect();
        v.sort_by_key(|b| std::cmp::Reverse(b.1));
        v.truncate(10);
        v.len()
    }

    fn size_bytes(&self) -> u64 {
        self.users.size_bytes() + self.messages.size_bytes() + self.tweets.size_bytes()
    }
}

// ---------------------------------------------------------------------------
// Hive/ORC stand-in
// ---------------------------------------------------------------------------

pub struct HiveLike {
    pub users: OrcTable,
    pub user_employment: OrcTable,
    pub messages: OrcTable,
    pub message_tags: OrcTable,
    pub tweets: OrcTable,
}

pub fn setup_hive(corpus: &Corpus) -> HiveLike {
    // Normalized like System-X (§5.3.1), but columnar + compressed.
    let emp_rows: Vec<Value> = corpus
        .users
        .iter()
        .flat_map(|u| {
            let pid = u.field("id");
            u.field("employment").as_list().map(|l| l.to_vec()).unwrap_or_default().into_iter().map(
                move |e| {
                    let mut r = asterix_adm::Record::new();
                    r.push_unchecked("_parent", pid.clone());
                    r.push_unchecked("organization-name", e.field("organization-name"));
                    r.push_unchecked("start-date", e.field("start-date"));
                    Value::record(r)
                },
            )
        })
        .collect();
    let tag_rows: Vec<Value> = corpus
        .messages
        .iter()
        .flat_map(|m| {
            let pid = m.field("message-id");
            m.field("tags").as_list().map(|l| l.to_vec()).unwrap_or_default().into_iter().map(
                move |t| {
                    let mut r = asterix_adm::Record::new();
                    r.push_unchecked("_parent", pid.clone());
                    r.push_unchecked("tag", t);
                    Value::record(r)
                },
            )
        })
        .collect();
    // Flatten dotted fields for the columnar layout.
    let flat_users: Vec<Value> = corpus
        .users
        .iter()
        .map(|u| {
            let mut r = asterix_adm::Record::new();
            r.push_unchecked("id", u.field("id"));
            r.push_unchecked("alias", u.field("alias"));
            r.push_unchecked("name", u.field("name"));
            r.push_unchecked("user-since", u.field("user-since"));
            r.push_unchecked("zip", u.field("address").field("zip"));
            r.push_unchecked("country", u.field("address").field("country"));
            Value::record(r)
        })
        .collect();
    HiveLike {
        users: OrcTable::from_records(
            &flat_users,
            &["id", "alias", "name", "user-since", "zip", "country"],
        ),
        user_employment: OrcTable::from_records(
            &emp_rows,
            &["_parent", "organization-name", "start-date"],
        ),
        messages: OrcTable::from_records(
            &corpus.messages,
            &["message-id", "author-id", "timestamp", "message"],
        ),
        message_tags: OrcTable::from_records(&tag_rows, &["_parent", "tag"]),
        tweets: OrcTable::from_records(&corpus.tweets, &["tweetid", "send-time", "message-text"]),
    }
}

impl Table3System for HiveLike {
    fn name(&self) -> &'static str {
        "Hive-like"
    }

    fn rec_lookup(&self, id: i64) -> usize {
        // No indexes: full scan even for one record (the parenthesized
        // Table 3 number).
        self.users.scan_where("id", |v| v.as_i64() == Some(id)).len()
    }

    fn range_scan(&self, lo: i64, hi: i64) -> usize {
        self.messages
            .scan_where("timestamp", |v| v.as_i64().is_some_and(|t| t >= lo && t < hi))
            .len()
    }

    fn sel_join(&self, lo: i64, hi: i64) -> usize {
        let uids =
            self.users.scan_where("user-since", |v| v.as_i64().is_some_and(|t| t >= lo && t <= hi));
        let pairs = self.users.hash_join("id", &self.messages, "author-id");
        let uset: std::collections::HashSet<usize> = uids.into_iter().collect();
        pairs.iter().filter(|(u, _)| uset.contains(u)).count()
    }

    fn sel2_join(&self, ulo: i64, uhi: i64, mlo: i64, mhi: i64) -> usize {
        let uids = self
            .users
            .scan_where("user-since", |v| v.as_i64().is_some_and(|t| t >= ulo && t <= uhi));
        let mids = self
            .messages
            .scan_where("timestamp", |v| v.as_i64().is_some_and(|t| t >= mlo && t < mhi));
        let uset: std::collections::HashSet<usize> = uids.into_iter().collect();
        let mset: std::collections::HashSet<usize> = mids.into_iter().collect();
        let pairs = self.users.hash_join("id", &self.messages, "author-id");
        pairs.iter().filter(|(u, m)| uset.contains(u) && mset.contains(m)).count()
    }

    fn agg(&self, lo: i64, hi: i64) -> Option<f64> {
        let rows = self
            .messages
            .scan_where("timestamp", |v| v.as_i64().is_some_and(|t| t >= lo && t < hi));
        let texts = self.messages.gather("message", &rows);
        let lens: Vec<f64> =
            texts.iter().filter_map(|v| v.as_str().map(|s| s.chars().count() as f64)).collect();
        (!lens.is_empty()).then(|| lens.iter().sum::<f64>() / lens.len() as f64)
    }

    fn grp_agg(&self, lo: i64, hi: i64) -> usize {
        let rows = self
            .messages
            .scan_where("timestamp", |v| v.as_i64().is_some_and(|t| t >= lo && t < hi));
        let authors = self.messages.gather("author-id", &rows);
        let mut counts: std::collections::HashMap<i64, usize> = Default::default();
        for a in authors {
            if let Some(a) = a.as_i64() {
                *counts.entry(a).or_default() += 1;
            }
        }
        let mut v: Vec<(i64, usize)> = counts.into_iter().collect();
        v.sort_by_key(|b| std::cmp::Reverse(b.1));
        v.truncate(10);
        v.len()
    }

    fn size_bytes(&self) -> u64 {
        self.users.size_bytes()
            + self.user_employment.size_bytes()
            + self.messages.size_bytes()
            + self.message_tags.size_bytes()
            + self.tweets.size_bytes()
    }
}

// ---------------------------------------------------------------------------
// MongoDB stand-in
// ---------------------------------------------------------------------------

pub struct MongoLike {
    pub users: Collection,
    pub messages: Collection,
    pub tweets: Collection,
    pub indexed: bool,
}

pub fn setup_mongo(corpus: &Corpus, indexed: bool) -> MongoLike {
    let mut users = Collection::new("id");
    let mut messages = Collection::new("message-id");
    let mut tweets = Collection::new("tweetid");
    for u in &corpus.users {
        users.insert(u).unwrap();
    }
    for m in &corpus.messages {
        messages.insert(m).unwrap();
    }
    for t in &corpus.tweets {
        tweets.insert(t).unwrap();
    }
    if indexed {
        users.ensure_index("user-since");
        messages.ensure_index("timestamp");
        messages.ensure_index("author-id");
    }
    MongoLike { users, messages, tweets, indexed }
}

impl Table3System for MongoLike {
    fn name(&self) -> &'static str {
        if self.indexed {
            "Mongo-like+IX"
        } else {
            "Mongo-like"
        }
    }

    fn rec_lookup(&self, id: i64) -> usize {
        usize::from(self.users.find_by_pk(&Value::Int64(id)).is_some())
    }

    fn range_scan(&self, lo: i64, hi: i64) -> usize {
        self.messages.find_range("timestamp", &Value::DateTime(lo), &Value::DateTime(hi - 1)).len()
    }

    fn sel_join(&self, lo: i64, hi: i64) -> usize {
        // The paper's client-side join: select users, then bulk-look-up
        // their messages from the client.
        let users = self.users.find_range("user-since", &Value::DateTime(lo), &Value::DateTime(hi));
        let mut n = 0;
        for u in &users {
            let id = u.field("id");
            n += self.messages.find_range("author-id", &id, &id).len();
        }
        n
    }

    fn sel2_join(&self, ulo: i64, uhi: i64, mlo: i64, mhi: i64) -> usize {
        let users =
            self.users.find_range("user-since", &Value::DateTime(ulo), &Value::DateTime(uhi));
        let mut n = 0;
        for u in &users {
            let id = u.field("id");
            n += self
                .messages
                .find_range("author-id", &id, &id)
                .iter()
                .filter(
                    |m| matches!(m.field("timestamp"), Value::DateTime(t) if t >= mlo && t < mhi),
                )
                .count();
        }
        n
    }

    fn agg(&self, lo: i64, hi: i64) -> Option<f64> {
        // The paper used Mongo's map-reduce for this query.
        self.messages.map_reduce_avg(
            |m| matches!(m.field("timestamp"), Value::DateTime(t) if t >= lo && t < hi),
            |m| m.field("message").as_str().map(|s| s.chars().count() as f64).unwrap_or(0.0),
        )
    }

    fn grp_agg(&self, lo: i64, hi: i64) -> usize {
        let msgs = self.messages.scan_filter(
            |m| matches!(m.field("timestamp"), Value::DateTime(t) if t >= lo && t < hi),
        );
        let mut counts: std::collections::HashMap<i64, usize> = Default::default();
        for m in msgs {
            if let Some(a) = m.field("author-id").as_i64() {
                *counts.entry(a).or_default() += 1;
            }
        }
        let mut v: Vec<(i64, usize)> = counts.into_iter().collect();
        v.sort_by_key(|b| std::cmp::Reverse(b.1));
        v.truncate(10);
        v.len()
    }

    fn size_bytes(&self) -> u64 {
        self.users.size_bytes() + self.messages.size_bytes() + self.tweets.size_bytes()
    }
}

// ---------------------------------------------------------------------------
// Timing helpers
// ---------------------------------------------------------------------------

/// Run `f` `runs` times after `warmup` discarded runs; returns the average
/// (the paper: 20 runs, first 5 discarded).
pub fn time_avg(warmup: usize, runs: usize, mut f: impl FnMut()) -> Duration {
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..runs {
        f();
    }
    start.elapsed() / runs.max(1) as u32
}

/// Pretty milliseconds.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{generate, ts_range_for, Scale};

    /// All five systems agree on every workload answer — the harness's
    /// correctness gate before any timing.
    #[test]
    fn all_systems_agree_on_answers() {
        let scale = Scale::tiny();
        let corpus = generate(&scale, 1);
        let (lo, hi) = ts_range_for(60, corpus.messages.len());
        let (ulo, uhi) = ts_range_for(30, corpus.users.len());

        let asx = setup_asterix(&corpus, SchemaMode::Schema, true);
        let asx_ko = setup_asterix(&corpus, SchemaMode::KeyOnly, false);
        let sx = setup_systemx(&corpus, true);
        let sx_noix = setup_systemx(&corpus, false);
        let hive = setup_hive(&corpus);
        let mongo = setup_mongo(&corpus, true);

        let systems: Vec<&dyn Table3System> = vec![&asx, &asx_ko, &sx, &sx_noix, &hive, &mongo];

        let expected_scan = sx.range_scan(lo, hi);
        assert!(expected_scan > 0, "range must select something");
        for s in &systems {
            assert_eq!(s.rec_lookup(7), 1, "{} rec_lookup", s.name());
            assert_eq!(s.rec_lookup(-5), 0, "{} rec_lookup miss", s.name());
            assert_eq!(s.range_scan(lo, hi), expected_scan, "{} range_scan", s.name());
        }

        let expected_join = sx.sel_join(ulo, uhi);
        for s in &systems {
            assert_eq!(s.sel_join(ulo, uhi), expected_join, "{} sel_join", s.name());
        }

        let expected_join2 = sx.sel2_join(ulo, uhi, lo, hi);
        for s in &systems {
            assert_eq!(s.sel2_join(ulo, uhi, lo, hi), expected_join2, "{} sel2_join", s.name());
        }

        let expected_avg = sx.agg(lo, hi).unwrap();
        for s in &systems {
            let got = s.agg(lo, hi).unwrap();
            assert!((got - expected_avg).abs() < 1e-9, "{}: avg {got} != {expected_avg}", s.name());
        }

        let expected_groups = sx.grp_agg(lo, hi);
        for s in &systems {
            assert_eq!(s.grp_agg(lo, hi), expected_groups, "{} grp_agg", s.name());
        }
    }

    /// The JSON stats sidecar carries live counters once queries have run.
    #[test]
    fn runtime_stats_json_reports_counters() {
        let scale = Scale::tiny();
        let corpus = generate(&scale, 3);
        let asx = setup_asterix(&corpus, SchemaMode::Schema, false);
        let (lo, hi) = ts_range_for(60, corpus.messages.len());
        assert!(asx.range_scan(lo, hi) > 0);
        let json = asx.runtime_stats_json().expect("asterix reports stats");
        for key in [
            "schema_version",
            "cache_hits",
            "cache_misses",
            "cache_hit_rate",
            "frames_sent",
            "tuples_sent",
            "bytes_sent",
            "backpressure_stalls",
            "\"metrics\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The registry snapshot carries the migrated exchange counters and
        // the per-shard cache counters.
        assert!(json.contains("\"exchange.frames_sent\""), "registry snapshot in {json}");
        assert!(json.contains("\"cache.shard0.hits\""), "per-shard cache in {json}");
        // Pipeline-fusion gauges ride the same snapshot (Table 3/4 JSON).
        assert!(json.contains("\"exchange.pipelines_fused\""), "fusion gauges in {json}");
        assert!(json.contains("\"exchange.fusion_saved_threads\""), "fusion gauges in {json}");
        // Workload-manager counters: the scan above was admitted and got a
        // memory grant, all visible under the rm.* prefix.
        assert!(json.contains("\"rm.admitted\""), "rm counters in {json}");
        assert!(json.contains("\"rm.mem_granted_bytes\""), "rm gauges in {json}");
        assert!(json.contains("\"rm.queue_wait_us\""), "rm histograms in {json}");
        assert!(asx.instance.resource_manager().stats().admitted.get() > 0);
        // A scan moved at least one frame with at least one tuple, and the
        // byte counter measured its serialized occupancy.
        assert!(asx.instance.exchange_stats().frames_sent() > 0);
        assert!(asx.instance.exchange_stats().tuples_sent() > 0);
        assert!(asx.instance.exchange_stats().bytes_sent() > 0);
    }

    /// Squeezing the per-query memory grant changes the physical plans
    /// (spilling sorts/joins, flushing partial groups) but never the
    /// answers.
    #[test]
    fn memory_pressure_sweep_preserves_answers() {
        let scale = Scale::tiny();
        let corpus = generate(&scale, 5);
        let (lo, hi) = ts_range_for(60, corpus.messages.len());
        let roomy = setup_asterix(&corpus, SchemaMode::Schema, false);
        let tight = setup_asterix_tuned(&corpus, SchemaMode::Schema, false, Some(4 << 20), None);
        assert_eq!(tight.range_scan(lo, hi), roomy.range_scan(lo, hi));
        assert_eq!(tight.grp_agg(lo, hi), roomy.grp_agg(lo, hi));
        assert_eq!(tight.agg(lo, hi), roomy.agg(lo, hi));
    }

    /// Table 2's size ordering: Hive (compressed columns) smallest;
    /// KeyOnly (self-describing) larger than Schema (declared fields).
    #[test]
    fn table2_size_ordering_holds() {
        let scale = Scale::tiny();
        let corpus = generate(&scale, 2);
        let schema = setup_asterix(&corpus, SchemaMode::Schema, false);
        let keyonly = setup_asterix(&corpus, SchemaMode::KeyOnly, false);
        let hive = setup_hive(&corpus);
        let mongo = setup_mongo(&corpus, false);
        let s = schema.size_bytes();
        let k = keyonly.size_bytes();
        let h = hive.size_bytes();
        let m = mongo.size_bytes();
        assert!(s < k, "Schema ({s}) must be smaller than KeyOnly ({k})");
        assert!(h < s, "Hive compressed ({h}) must be smallest (schema {s})");
        assert!(m > s, "Mongo ({m}) stores field names, bigger than Schema ({s})");
    }
}
