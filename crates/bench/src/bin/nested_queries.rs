//! Nested queries against their flat twins: paper Query 4 (a nested
//! left-outer join) at about 1 % and 10 % of the users, with and without
//! `msAuthorIdx` + `msUserSinceIdx`; each message with its author's name,
//! whose outer input outnumbers the users it nests; `count(dataset …)`
//! against `count(for …)`; and `for` over a subquery against its flat
//! form. With the indexes, also the cost of an index nested-loop join per
//! outer tuple: Table 3's Sel-Join (Lg) with `/*+ indexnl */`, its `count`,
//! and a counted range selection on `msAuthorIdx` over about as many
//! message keys (`index_nl` in the JSON).
//!
//! Each pair (and the trio) runs in process through `Instance::query`,
//! after one warm-up, `ASTERIX_BENCH_RUNS` times (default 5), the forms
//! taking turns going first; the binary asserts that the
//! forms answer alike — Query 4's twin is an inner join, so it is compared
//! with the nested rows whose list is not empty; the join's `count` is its
//! row count, and the range's count is the corpus's — and prints medians
//! as JSON, to `ASTERIX_BENCH_JSON_OUT` when set. `ASTERIX_BENCH_SCALE`
//! scales the corpus (default 4 000 users, 20 000 messages).
//!
//! ```text
//! cargo run --release -p asterix-bench --bin nested_queries
//! ```

use std::time::Instant;

use asterix_adm::print::to_adm_string;
use asterix_adm::temporal::format_datetime;
use asterix_adm::Value;
use asterix_bench::datagen::{generate, ts_range_for, Corpus, Scale};
use asterix_bench::harness::{setup_asterix, SchemaMode};
use asterixdb::Instance;

/// One pair: the nested form, its flat twin, and how their rows compare.
struct Pair {
    name: String,
    nested: String,
    flat: String,
    /// The twin is an inner join: compare the nested rows with a non-empty
    /// `messages` list, each list sorted. Rows are records of a key and
    /// that list.
    inner_twin: bool,
}

/// Query 4 over the users whose `user-since` lies in `[lo, hi]`, nested
/// and as a join grouped by user.
fn query_4(lo: i64, hi: i64) -> (String, String) {
    let window = format!(
        "$user.user-since >= datetime(\"{}\") and $user.user-since <= datetime(\"{}\")",
        format_datetime(lo),
        format_datetime(hi)
    );
    let nested = format!(
        "for $user in dataset MugshotUsers where {window} \
         return {{ \"uname\": $user.name, \"messages\": \
                   for $message in dataset MugshotMessages \
                   where $message.author-id = $user.id return $message.message }}"
    );
    let flat = format!(
        "for $user in dataset MugshotUsers for $message in dataset MugshotMessages \
         where $message.author-id = $user.id and {window} \
         group by $uid := $user.id, $uname := $user.name with $message \
         return {{ \"uname\": $uname, \"messages\": for $m in $message return $m.message }}"
    );
    (nested, flat)
}

/// Each message, the outer input, with the names of its author, nested
/// and as a join grouped by message: the nested form's left-outer join
/// builds the users, its smaller side.
fn authors_per_message() -> (String, String) {
    let nested = "for $message in dataset MugshotMessages \
                  return { \"mid\": $message.message-id, \"messages\": \
                           for $user in dataset MugshotUsers \
                           where $user.id = $message.author-id return $user.name }";
    let flat = "for $message in dataset MugshotMessages for $user in dataset MugshotUsers \
                where $user.id = $message.author-id \
                group by $mid := $message.message-id with $user \
                return { \"mid\": $mid, \"messages\": for $u in $user return $u.name }";
    (nested.into(), flat.into())
}

/// `rows` as sorted text, each `messages` list sorted; with `inner_twin`,
/// only the rows whose list is not empty.
fn canonical(rows: Vec<Value>, inner_twin: bool) -> Vec<String> {
    let mut out: Vec<String> = rows
        .into_iter()
        .filter(|r| !inner_twin || r.field("messages").as_list().is_some_and(|l| !l.is_empty()))
        .map(|r| match (r.as_record(), r.field("messages").as_list()) {
            (Some(record), Some(messages)) => {
                let mut ms: Vec<String> = messages.iter().map(to_adm_string).collect();
                ms.sort();
                let key = record.iter().filter(|(name, _)| *name != "messages");
                let key: Vec<String> = key.map(|(_, v)| to_adm_string(v)).collect();
                format!("{} {}", key.join(" "), ms.join(","))
            }
            _ => to_adm_string(&r),
        })
        .collect();
    out.sort();
    out
}

/// The medians, in milliseconds, of `runs` timed executions of each of
/// `queries` after one warm-up — each run times them all, in an order
/// that turns from run to run — and their rows.
fn time<const N: usize>(
    instance: &Instance,
    queries: [&str; N],
    runs: usize,
) -> ([f64; N], [Vec<Value>; N]) {
    let rows = queries.map(|q| instance.query(q).expect("query"));
    let mut ms = [(); N].map(|_| Vec::new());
    for run in 0..runs {
        for k in 0..N {
            let i = (run + k) % N;
            let start = Instant::now();
            std::hint::black_box(instance.query(queries[i]).expect("query"));
            ms[i].push(start.elapsed().as_secs_f64() * 1000.0);
        }
    }
    let median = |mut ms: Vec<f64>| {
        ms.sort_by(f64::total_cmp);
        ms[ms.len() / 2]
    };
    (ms.map(median), rows)
}

/// Table 3's Sel-Join (Lg) as an index nested-loop join, its `count`, and
/// a counted range selection on `msAuthorIdx` over the messages of as many
/// authors as the join's users: the JSON object that tracks what the join
/// costs per outer tuple beyond fetching the same number of keys.
fn index_nl_trio(instance: &Instance, corpus: &Corpus, runs: usize) -> String {
    let (lo, hi) = ts_range_for(corpus.users.len() / 10, corpus.users.len());
    let window = format!(
        "$u.user-since >= datetime(\"{}\") and $u.user-since <= datetime(\"{}\")",
        format_datetime(lo),
        format_datetime(hi)
    );
    let join = format!(
        "for $u in dataset MugshotUsers for $m in dataset MugshotMessages \
         where $m.author-id /*+ indexnl */ = $u.id and {window} \
         return {{ \"uname\": $u.name, \"message\": $m.message }}"
    );
    let count = format!(
        "count(for $u in dataset MugshotUsers for $m in dataset MugshotMessages \
         where $m.author-id /*+ indexnl */ = $u.id and {window} return $m)"
    );
    let users = instance
        .query(&format!("count(for $u in dataset MugshotUsers where {window} return $u)"))
        .expect("query")[0]
        .as_i64()
        .expect("a count");
    let range = format!(
        "count(for $m in dataset MugshotMessages \
         where $m.author-id >= 0 and $m.author-id < {users} return $m)"
    );
    let ([join_ms, count_ms, range_ms], [join_rows, count_rows, range_rows]) =
        time(instance, [&join, &count, &range], runs);
    let counted = |rows: &[Value]| rows[0].as_i64().expect("a count") as usize;
    assert_eq!(counted(&count_rows), join_rows.len(), "the join's count is its row count");
    let in_range =
        |m: &Value| m.field("author-id").as_i64().is_some_and(|a| (0..users).contains(&a));
    let keys = corpus.messages.iter().filter(|m| in_range(m)).count();
    assert_eq!(counted(&range_rows), keys, "the range counts the messages it covers");
    format!(
        "{{ \"users\": {users}, \"rows\": {}, \"join_ms\": {join_ms:.3}, \
         \"join_count_ms\": {count_ms:.3}, \"range_keys\": {keys}, \"range_count_ms\": {range_ms:.3}, \
         \"count_ratio\": {:.3} }}",
        join_rows.len(),
        count_ms / range_ms
    )
}

fn main() {
    let scale = Scale::from_env();
    let runs: usize =
        std::env::var("ASTERIX_BENCH_RUNS").ok().and_then(|v| v.parse().ok()).unwrap_or(5).max(1);
    let corpus = generate(&scale, 20140702);
    let mut results = Vec::new();
    let mut index_nl = String::new();
    for indexed in [false, true] {
        let sys = setup_asterix(&corpus, SchemaMode::Schema, indexed);
        if indexed {
            eprintln!("running index_nl ...");
            index_nl = index_nl_trio(&sys.instance, &corpus, runs);
        }
        let ix = if indexed { "ix" } else { "noix" };
        let mut pairs = Vec::new();
        for (label, percent) in [("1pct", 1), ("10pct", 10)] {
            let (lo, hi) = ts_range_for(corpus.users.len() * percent / 100, corpus.users.len());
            let (nested, flat) = query_4(lo, hi);
            pairs.push(Pair { name: format!("q4_{label}_{ix}"), nested, flat, inner_twin: true });
        }
        let (nested, flat) = authors_per_message();
        pairs.push(Pair {
            name: format!("authors_per_message_{ix}"),
            nested,
            flat,
            inner_twin: true,
        });
        pairs.push(Pair {
            name: format!("count_dataset_{ix}"),
            nested: "count(dataset MugshotMessages)".into(),
            flat: "count(for $m in dataset MugshotMessages return $m)".into(),
            inner_twin: false,
        });
        pairs.push(Pair {
            name: format!("for_over_subquery_{ix}"),
            nested: "for $x in (for $m in dataset MugshotMessages where $m.author-id < 40 \
                     return $m) return $x.message-id"
                .into(),
            flat: "for $m in dataset MugshotMessages where $m.author-id < 40 \
                   return $m.message-id"
                .into(),
            inner_twin: false,
        });
        for p in pairs {
            eprintln!("running {} ...", p.name);
            let ([nested_ms, flat_ms], [nested_rows, flat_rows]) =
                time(&sys.instance, [&p.nested, &p.flat], runs);
            let rows = nested_rows.len();
            assert_eq!(
                canonical(nested_rows, p.inner_twin),
                canonical(flat_rows, false),
                "{}: the nested form and its twin answer differently",
                p.name
            );
            results.push(format!(
                "    {{ \"shape\": \"{}\", \"rows\": {rows}, \"nested_ms\": {nested_ms:.3}, \
                 \"flat_ms\": {flat_ms:.3}, \"ratio\": {:.3} }}",
                p.name,
                nested_ms / flat_ms
            ));
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"nested_queries\",\n  \"users\": {},\n  \"messages\": {},\n  \
         \"runs\": {runs},\n  \"shapes\": [\n{}\n  ],\n  \"index_nl\": {index_nl}\n}}\n",
        scale.users,
        scale.messages,
        results.join(",\n")
    );
    match std::env::var("ASTERIX_BENCH_JSON_OUT") {
        Ok(path) => std::fs::write(&path, &json).expect("write the JSON"),
        Err(_) => print!("{json}"),
    }
}
