//! Every statement from the paper, executed end-to-end: Data definitions
//! 1-4, Queries 1-14, Updates 1-2 (host/port placeholders in DDL 3/4 are
//! substituted with real paths / the simulated socket endpoint).

use std::sync::Arc;

use asterix_adm::Value;
use asterixdb::{ClusterConfig, Instance};

/// Build the TinySocial dataverse with the paper's DDL and a small, known
/// data population.
fn tiny_social() -> (Arc<Instance>, asterix_testkit::TempDir) {
    let dir = asterix_testkit::TempDir::new().unwrap();
    let instance = Instance::open(ClusterConfig::small(dir.path().join("db"))).unwrap();
    // Data definitions 1 and 2, verbatim.
    instance
        .execute(
            r#"
        drop dataverse TinySocial if exists;
        create dataverse TinySocial;
        use dataverse TinySocial;

        create type EmploymentType as open {
            organization-name: string,
            start-date: date,
            end-date: date?
        };

        create type MugshotUserType as {
            id: int32,
            alias: string,
            name: string,
            user-since: datetime,
            address: {
                street: string, city: string, state: string,
                zip: string, country: string
            },
            friend-ids: {{ int32 }},
            employment: [EmploymentType]
        };

        create type MugshotMessageType as closed {
            message-id: int32,
            author-id: int32,
            timestamp: datetime,
            in-response-to: int32?,
            sender-location: point?,
            tags: {{ string }},
            message: string
        };

        create dataset MugshotUsers(MugshotUserType) primary key id;
        create dataset MugshotMessages(MugshotMessageType) primary key message-id;

        create index msUserSinceIdx on MugshotUsers(user-since);
        create index msTimestampIdx on MugshotMessages(timestamp);
        create index msAuthorIdx on MugshotMessages(author-id) type btree;
        create index msSenderLocIndex on MugshotMessages(sender-location) type rtree;
        create index msMessageIdx on MugshotMessages(message) type keyword;
    "#,
        )
        .unwrap();
    // Population: 6 users, 8 messages with known properties.
    for (id, alias, since, zip, emp) in [
        (
            1,
            "Margarita",
            "2012-08-20T10:10:00",
            "98765",
            r#"[{"organization-name":"Codetechno","start-date":date("2006-08-06")}]"#,
        ),
        (
            2,
            "Isbel",
            "2011-01-22T10:10:00",
            "95014",
            r#"[{"organization-name":"Hexviane","start-date":date("2010-04-27"),"end-date":date("2012-09-18")}]"#,
        ),
        (
            3,
            "Emory",
            "2012-07-10T10:10:00",
            "92617",
            r#"[{"organization-name":"geomedia","start-date":date("2010-06-17"),"job-kind":"part-time"}]"#,
        ),
        (
            4,
            "Nicholas",
            "2010-01-15T08:00:00",
            "98765",
            r#"[{"organization-name":"Mugshot.com","start-date":date("2009-01-01"),"end-date":date("2012-01-01")}]"#,
        ),
        (5, "Von", "2012-12-01T00:00:00", "90210", r#"[]"#),
        (
            6,
            "Willis",
            "2013-01-01T00:00:00",
            "98765",
            r#"[{"organization-name":"Acme","start-date":date("2011-03-01")}]"#,
        ),
    ] {
        instance
            .execute(&format!(
                r#"insert into dataset MugshotUsers (
                    {{ "id": {id}, "alias": "{alias}", "name": "{alias} Person",
                       "user-since": datetime("{since}"),
                       "address": {{ "street": "1 St", "city": "X", "state": "CA",
                                     "zip": "{zip}", "country": "USA" }},
                       "friend-ids": {{{{ {} }}}},
                       "employment": {emp} }});"#,
                (id % 6) + 1
            ))
            .unwrap();
    }
    for (mid, aid, ts, loc, tags, msg) in [
        (
            1,
            1,
            "2012-09-01T12:00:00",
            "47.4,80.9",
            r#""tweet","phone""#,
            "cant stand att the network is horrible",
        ),
        (
            2,
            1,
            "2014-02-20T10:00:00",
            "40.3,70.1",
            r#""phone","plan""#,
            "see you tonite at the concert",
        ),
        (
            3,
            2,
            "2014-02-20T18:30:00",
            "40.5,70.2",
            r#""concert","music""#,
            "going out tonight for some music",
        ),
        (4, 3, "2014-02-20T21:00:00", "44.0,75.0", r#""music""#, "what a great concert that was"),
        (
            5,
            2,
            "2014-02-20T22:00:00",
            "40.6,70.3",
            r#""music","concert""#,
            "that band was awesome tonight",
        ),
        (6, 4, "2014-01-10T09:00:00", "47.5,80.8", r#""phone""#, "my phone battery died again"),
        (7, 5, "2014-03-01T15:00:00", "30.0,60.0", r#""plan""#, "new data plan is terrible"),
        (8, 6, "2013-06-15T11:00:00", "48.0,81.0", r#""tweet""#, "first message here"),
    ] {
        instance
            .execute(&format!(
                r#"insert into dataset MugshotMessages (
                    {{ "message-id": {mid}, "author-id": {aid},
                       "timestamp": datetime("{ts}"),
                       "sender-location": point("{loc}"),
                       "tags": {{{{ {tags} }}}},
                       "message": "{msg}" }});"#
            ))
            .unwrap();
    }
    (instance, dir)
}

#[test]
fn query_1_metadata_is_data() {
    let (instance, _d) = tiny_social();
    let datasets = instance.query("for $ds in dataset Metadata.Dataset return $ds;").unwrap();
    assert_eq!(datasets.len(), 2);
    let indexes = instance.query("for $ix in dataset Metadata.Index return $ix;").unwrap();
    // 2 primary + 5 secondary.
    assert_eq!(indexes.len(), 7);
}

#[test]
fn query_2_datetime_range_scan() {
    let (instance, _d) = tiny_social();
    let rows = instance
        .query(
            r#"for $user in dataset MugshotUsers
               where $user.user-since >= datetime('2010-07-22T00:00:00')
                 and $user.user-since <= datetime('2012-07-29T23:59:59')
               return $user;"#,
        )
        .unwrap();
    // Isbel (2011-01) and Emory (2012-07).
    assert_eq!(rows.len(), 2);
    // The plan routes through the user-since index.
    let (plan, _) = instance
        .explain(
            r#"for $user in dataset MugshotUsers
               where $user.user-since >= datetime('2010-07-22T00:00:00')
                 and $user.user-since <= datetime('2012-07-29T23:59:59')
               return $user;"#,
        )
        .unwrap();
    assert!(plan.contains("msUserSinceIdx"), "{plan}");
}

#[test]
fn query_3_equijoin() {
    let (instance, _d) = tiny_social();
    let rows = instance
        .query(
            r#"for $user in dataset MugshotUsers
               for $message in dataset MugshotMessages
               where $message.author-id = $user.id
                 and $user.user-since >= datetime('2010-07-22T00:00:00')
                 and $user.user-since <= datetime('2012-07-29T23:59:59')
               return { "uname": $user.name, "message": $message.message };"#,
        )
        .unwrap();
    // Isbel: messages 3,5; Emory: message 4.
    assert_eq!(rows.len(), 3);
    for r in &rows {
        assert!(r.field("uname").as_str().is_some());
        assert!(r.field("message").as_str().is_some());
    }
}

#[test]
fn query_4_nested_left_outer_join() {
    let (instance, _d) = tiny_social();
    let rows = instance
        .query(
            r#"for $user in dataset MugshotUsers
               where $user.user-since >= datetime('2010-07-22T00:00:00')
                 and $user.user-since <= datetime('2012-12-31T23:59:59')
               return {
                   "uname": $user.name,
                   "messages":
                       for $message in dataset MugshotMessages
                       where $message.author-id = $user.id
                       return $message.message
               };"#,
        )
        .unwrap();
    // Margarita, Isbel, Emory, Von — including Von with no messages? Von has
    // message 7; Margarita messages 1,2.
    assert_eq!(rows.len(), 4);
    let margarita =
        rows.iter().find(|r| r.field("uname").as_str() == Some("Margarita Person")).unwrap();
    assert_eq!(margarita.field("messages").as_list().unwrap().len(), 2);
}

#[test]
fn query_5_spatial_join() {
    let (instance, _d) = tiny_social();
    let rows = instance
        .query(
            r#"for $t in dataset MugshotMessages
               return {
                   "message": $t.message,
                   "nearby-messages":
                       for $t2 in dataset MugshotMessages
                       where spatial-distance($t.sender-location, $t2.sender-location) <= 1
                       return { "msgtxt": $t2.message }
               };"#,
        )
        .unwrap();
    assert_eq!(rows.len(), 8);
    // Messages 2, 3, 5 cluster around (40.x, 70.x): each sees >= 3 nearby
    // (including itself).
    let m3 =
        rows.iter().find(|r| r.field("message").as_str().unwrap().contains("going out")).unwrap();
    assert!(m3.field("nearby-messages").as_list().unwrap().len() >= 3);
}

#[test]
fn query_6_fuzzy_selection() {
    let (instance, _d) = tiny_social();
    let rows = instance
        .query(
            r#"set simfunction "edit-distance";
               set simthreshold "3";
               for $msu in dataset MugshotUsers
               for $msm in dataset MugshotMessages
               where $msu.id = $msm.author-id
                 and (some $word in word-tokens($msm.message)
                      satisfies $word ~= "tonight")
               return { "name": $msu.name, "message": $msm.message };"#,
        )
        .unwrap();
    // "tonite" (msg 2), "tonight" (msgs 3, 5) — 3 matches.
    assert_eq!(rows.len(), 3);
}

#[test]
fn query_7_existential_open_field() {
    let (instance, _d) = tiny_social();
    let rows = instance
        .query(
            r#"for $msu in dataset MugshotUsers
               where (some $e in $msu.employment
                      satisfies is-null($e.end-date) and $e.job-kind = "part-time")
               return $msu;"#,
        )
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].field("alias"), Value::string("Emory"));
}

#[test]
fn queries_8_and_9_udf() {
    let (instance, _d) = tiny_social();
    instance
        .execute(
            r#"create function unemployed() {
                for $msu in dataset MugshotUsers
                where (every $e in $msu.employment
                       satisfies not(is-null($e.end-date)))
                return { "name": $msu.name, "address": $msu.address }
            };"#,
        )
        .unwrap();
    let all = instance.query("for $un in unemployed() return $un;").unwrap();
    // Unemployed = every employment ended: Isbel, Nicholas, and Von
    // (vacuously — no employment records).
    assert_eq!(all.len(), 3);
    let rows = instance
        .query(
            r#"for $un in unemployed()
               where $un.address.zip = "98765"
               return $un;"#,
        )
        .unwrap();
    assert_eq!(rows.len(), 1); // Nicholas
}

#[test]
fn query_10_simple_aggregation() {
    let (instance, _d) = tiny_social();
    let rows = instance
        .query(
            r#"avg(
                for $m in dataset MugshotMessages
                where $m.timestamp >= datetime("2014-01-01T00:00:00")
                  and $m.timestamp < datetime("2014-04-01T00:00:00")
                return string-length($m.message)
            )"#,
        )
        .unwrap();
    assert_eq!(rows.len(), 1);
    // Messages 2,3,4,5,6,7 are in range; average of their lengths.
    let lens = [29usize, 32, 29, 29, 27, 25];
    let expect = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
    assert!(
        (rows[0].as_f64().unwrap() - expect).abs() < 1e-9,
        "avg = {:?}, expected {expect}",
        rows[0]
    );
}

#[test]
fn query_11_group_order_limit() {
    let (instance, _d) = tiny_social();
    let rows = instance
        .query(
            r#"for $msg in dataset MugshotMessages
               where $msg.timestamp >= datetime("2014-02-20T00:00:00")
                 and $msg.timestamp < datetime("2014-02-21T00:00:00")
               group by $aid := $msg.author-id with $msg
               let $cnt := count($msg)
               order by $cnt desc
               limit 3
               return { "author": $aid, "no messages": $cnt };"#,
        )
        .unwrap();
    // On 2014-02-20: author 1 (msg 2), author 2 (msgs 3,5), author 3 (msg 4).
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0].field("no messages"), Value::Int64(2));
    assert_eq!(rows[0].field("author"), Value::Int32(2));
}

/// Query 11 counts its groups inside the group-by and reads two columns,
/// whether the count is a `let`, in the `order by` or in the `return`; a
/// counted record needs no field at all.
#[test]
fn query_11_counts_in_the_group_by_and_reads_two_columns() {
    let (instance, _d) = tiny_social();
    let head = r#"for $msg in dataset MugshotMessages
               where $msg.timestamp >= datetime("2014-02-20T00:00:00")
                 and $msg.timestamp < datetime("2014-02-21T00:00:00")
               group by $aid := $msg.author-id with $msg"#;
    let forms = [
        format!(
            r#"{head} let $cnt := count($msg) order by $cnt desc, $aid limit 3
               return {{ "author": $aid, "no messages": $cnt }};"#
        ),
        format!(
            r#"{head} order by count($msg) desc, $aid limit 3
               return {{ "author": $aid, "no messages": count($msg) }};"#
        ),
    ];
    let mut answers = Vec::new();
    for q in &forms {
        let (plan, job) = instance.explain(q).unwrap();
        assert!(plan.contains("group-by (1 keys) [aggs: count"), "{plan}");
        assert!(!plan.contains("listify"), "{plan}");
        assert!(job.contains("[cols: author-id,timestamp]"), "{job}");
        assert!(!job.contains("[cols: *]"), "{job}");
        answers.push(instance.query(q).unwrap());
    }
    assert_eq!(answers[0], answers[1]);
    assert_eq!(answers[0][0].field("no messages"), Value::Int64(2));
    assert_eq!(answers[0][0].field("author"), Value::Int32(2));

    let all = "count(for $m in dataset MugshotMessages return $m)";
    let (plan, job) = instance.explain(all).unwrap();
    assert!(plan.contains("aggregate [aggs: count]"), "{plan}");
    assert!(job.contains("data-scan TinySocial.MugshotMessages [cols: none]"), "{job}");
    let everything = instance.query("for $m in dataset MugshotMessages return $m").unwrap();
    assert_eq!(instance.query(all).unwrap(), [Value::Int64(everything.len() as i64)]);
    // Through the index, the fetch reads the post-validated field alone.
    let (_, job) = instance
        .explain(
            r#"count(for $m in dataset MugshotMessages
                     where $m.timestamp >= datetime("2014-02-20T00:00:00")
                       and $m.timestamp < datetime("2014-02-21T00:00:00")
                     return $m)"#,
        )
        .unwrap();
    assert!(job.contains("msTimestampIdx"), "{job}");
    assert!(job.contains("(primary) [cols: timestamp]"), "{job}");
}

#[test]
fn query_12_active_users_external_join() {
    let (instance, dir) = tiny_social();
    // Data definition 3: the web log external dataset (Figure 3's format).
    let log = dir.path().join("access.log");
    std::fs::write(
        &log,
        "12.34.56.78|2013-12-22T12:13:32-0800|Nicholas|GET|/|200|2279\n\
         12.34.56.78|2013-12-22T12:13:33-0800|Nicholas|GET|/list|200|5299\n\
         99.9.9.9|2013-12-23T10:00:00-0800|Isbel|GET|/x|200|10\n",
    )
    .unwrap();
    instance
        .execute(&format!(
            r#"create type AccessLogType as closed {{
                   ip: string, time: string, user: string, verb: string,
                   path: string, stat: int32, size: int32
               }};
               create external dataset AccessLog(AccessLogType)
                   using localfs
                   (("path"="localhost://{}"),
                    ("format"="delimited-text"),
                    ("delimiter"="|"));"#,
            log.display()
        ))
        .unwrap();
    // Query 12, with a fixed window instead of current-datetime so the test
    // is deterministic.
    let query_12 = r#"let $start := datetime("2013-12-01T00:00:00")
               let $end := datetime("2013-12-31T00:00:00")
               for $user in dataset MugshotUsers
               where some $logrecord in dataset AccessLog
                     satisfies $user.alias = $logrecord.user
                       and datetime($logrecord.time) >= $start
                       and datetime($logrecord.time) <= $end
               group by $country := $user.address.country with $user
               return { "country": $country, "active users": count($user) };"#;
    let rows = instance.query(query_12).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].field("active users"), Value::Int64(2));
    // The count of the group fuses into the group-by: no member list is
    // built, and the users are read for the two fields the query names.
    let (plan, job) = instance.explain(query_12).unwrap();
    assert!(!plan.contains("listify"), "{plan}");
    assert!(job.contains("data-scan TinySocial.MugshotUsers [cols: address,alias]"), "{job}");
}

#[test]
fn query_12_datetime_arithmetic_with_duration() {
    let (instance, _d) = tiny_social();
    // The `$end - duration("P30D")` arithmetic from Query 12's prologue.
    let rows = instance
        .query(
            r#"let $end := datetime("2014-03-01T00:00:00")
               let $start := $end - duration("P30D")
               for $m in dataset MugshotMessages
               where $m.timestamp >= $start and $m.timestamp <= $end
               return $m.message-id;"#,
        )
        .unwrap();
    // Window 2014-01-30 .. 2014-03-01T00:00 covers messages 2,3,4,5
    // (message 7 is at 15:00 on 03-01, past the inclusive end instant).
    assert_eq!(rows.len(), 4);
}

#[test]
fn query_13_fuzzy_join_on_tags() {
    let (instance, _d) = tiny_social();
    let rows = instance
        .query(
            r#"set simfunction "jaccard";
               set simthreshold "0.3";
               for $msg in dataset MugshotMessages
               let $msgsSimilarTags := (
                   for $m2 in dataset MugshotMessages
                   where $m2.tags ~= $msg.tags
                     and $m2.message-id != $msg.message-id
                   return $m2.message
               )
               where count($msgsSimilarTags) > 0
               return { "message": $msg.message,
                        "similarly tagged": $msgsSimilarTags };"#,
        )
        .unwrap();
    // Tag overlaps: {concert,music}~{music}~{music,concert}; {phone,plan}~{phone};
    // {tweet,phone}~{phone}/{tweet}...
    assert!(rows.len() >= 4, "got {}", rows.len());
    for r in &rows {
        assert!(!r.field("similarly tagged").as_list().unwrap().is_empty());
    }
}

#[test]
fn query_14_index_hint() {
    let (instance, _d) = tiny_social();
    let q = r#"for $user in dataset MugshotUsers
               for $message in dataset MugshotMessages
               where $message.author-id /*+ indexnl */ = $user.id
               return { "uname": $user.name, "message": $message.message };"#;
    let (plan, _) = instance.explain(q).unwrap();
    assert!(plan.contains("index-nl-join"), "hint must force index NL join:\n{plan}");
    let rows = instance.query(q).unwrap();
    assert_eq!(rows.len(), 8); // every message joins its author

    // Without the hint: hash join, same answer (§5.1 rule (b)).
    let q2 = q.replace("/*+ indexnl */ ", "");
    let (plan2, _) = instance.explain(&q2).unwrap();
    assert!(plan2.contains("hash-join"), "{plan2}");
    assert_eq!(instance.query(&q2).unwrap().len(), 8);
}

#[test]
fn updates_1_and_2() {
    let (instance, _d) = tiny_social();
    // Update 1, verbatim.
    instance
        .execute(
            r#"insert into dataset MugshotUsers (
                {
                    "id":11,
                    "alias":"John",
                    "name":"JohnDoe",
                    "address":{
                        "street":"789 Jane St",
                        "city":"San Harry",
                        "zip":"98767",
                        "state":"CA",
                        "country":"USA"
                    },
                    "user-since":datetime("2010-08-15T08:10:00"),
                    "friend-ids":{{ 5, 9, 11 }},
                    "employment":[{
                        "organization-name":"Kongreen",
                        "start-date":date("2012-06-05")
                    }]
                }
            );"#,
        )
        .unwrap();
    let rows =
        instance.query("for $u in dataset MugshotUsers where $u.id = 11 return $u.alias;").unwrap();
    assert_eq!(rows, vec![Value::string("John")]);
    // Update 2, verbatim.
    let res =
        instance.execute("delete $user from dataset MugshotUsers where $user.id = 11;").unwrap();
    assert_eq!(res[0].count(), 1);
    let rows =
        instance.query("for $u in dataset MugshotUsers where $u.id = 11 return $u;").unwrap();
    assert!(rows.is_empty());
}

#[test]
fn data_definition_4_feed() {
    let (instance, _d) = tiny_social();
    // Data definition 4's statements (socket placeholders bind to the
    // simulated endpoint).
    instance
        .execute(
            r#"use dataverse TinySocial;
               create feed socket_feed using socket_adaptor
                   (("sockets"="127.0.0.1:10001"),
                    ("addressType"="IP"),
                    ("type-name"="MugshotMessageType"),
                    ("format"="adm"));
               connect feed socket_feed to dataset MugshotMessages;"#,
        )
        .unwrap();
    let endpoint = instance.feed_endpoint("socket_feed").unwrap();
    for i in 100..120 {
        endpoint
            .send_text(format!(
                r#"{{ "message-id": {i}, "author-id": 1,
                     "timestamp": datetime("2014-05-01T00:00:00"),
                     "tags": {{{{ "feed" }}}},
                     "message": "from the feed {i}" }}"#
            ))
            .unwrap();
    }
    assert!(instance.feed_wait_stored("socket_feed", 20, std::time::Duration::from_secs(10)));
    instance.execute("disconnect feed socket_feed from dataset MugshotMessages;").unwrap();
    let n = instance
        .query("for $m in dataset MugshotMessages where $m.message-id >= 100 return $m;")
        .unwrap()
        .len();
    assert_eq!(n, 20);
    // Closed-type enforcement applies on the feed path too: a record with
    // an extra field is counted as failed, not stored.
    // (MugshotMessageType is closed.)
}

#[test]
fn one_plus_one_is_a_valid_query() {
    let (instance, _d) = tiny_social();
    assert_eq!(instance.query("1+1;").unwrap(), vec![Value::Int64(2)]);
}

/// Query 4 as the paper writes it, over `user-since` window `[lo, hi]`.
fn query_4_text(lo: &str, hi: &str) -> String {
    format!(
        r#"for $user in dataset MugshotUsers
           where $user.user-since >= datetime('{lo}')
             and $user.user-since <= datetime('{hi}')
           return {{
               "uname": $user.name,
               "messages":
                   for $message in dataset MugshotMessages
                   where $message.author-id = $user.id
                   return $message.message
           }};"#
    )
}

/// The nested Query 4 runs in the job: a left-outer hash join and a
/// group-by on the user without indexes, an index-NL join through
/// `msAuthorIdx` with them; users without messages keep an empty list.
#[test]
fn query_4_decorrelates_into_a_left_outer_join_and_a_group_by() {
    let (instance, _d) = tiny_social();
    let q = query_4_text("2010-07-22T00:00:00", "2012-12-31T23:59:59");
    // Rows and each user's messages sorted: the nested FLWOR has no
    // `order by`, so its list comes in no defined order.
    let answer = |instance: &Instance| {
        let print = asterix_adm::print::to_adm_string;
        let mut rows: Vec<String> = (instance.query(&q).unwrap().iter())
            .map(|r| {
                let messages = r.field("messages");
                let mut ms: Vec<String> = messages.as_list().unwrap().iter().map(print).collect();
                ms.sort();
                format!("{} {}", print(&r.field("uname")), ms.join(", "))
            })
            .collect();
        rows.sort();
        rows
    };
    let (plan, job) = instance.explain(&q).unwrap();
    assert!(plan.contains("index-nl-join TinySocial.MugshotMessages.msAuthorIdx"), "{plan}");
    assert!(plan.contains("group-by"), "{plan}");
    assert!(job.contains("index-nested-loop-join"), "{job}");
    assert!(!plan.contains("data-scan TinySocial.MugshotMessages"), "{plan}");
    let indexed = answer(&instance);
    assert_eq!(indexed.len(), 4);
    assert!(indexed.iter().any(|r| r.contains("\"Von Person\"")), "{indexed:?}");

    instance
        .execute(
            "use dataverse TinySocial; drop index MugshotMessages.msAuthorIdx; \
             drop index MugshotUsers.msUserSinceIdx;",
        )
        .unwrap();
    let (plan, job) = instance.explain(&q).unwrap();
    assert!(plan.contains("hash-join (LeftOuter)"), "{plan}");
    assert!(plan.contains("group-by"), "{plan}");
    assert!(!plan.contains("index-nl-join"), "{plan}");
    assert!(job.contains("hybrid-hash-join"), "{job}");
    assert_eq!(answer(&instance), indexed);

    // A user with no message in the window gets `[]`, not `[null]`.
    let q = query_4_text("2012-12-01T00:00:00", "2013-01-31T23:59:59");
    let rows = instance.query(&q).unwrap();
    let willis = rows.iter().find(|r| r.field("uname").as_str() == Some("Willis Person")).unwrap();
    assert_eq!(willis.field("messages").as_list().unwrap().len(), 1);
    instance.execute("use dataverse TinySocial; delete $m from dataset MugshotMessages where $m.author-id = 6;").unwrap();
    let rows = instance.query(&q).unwrap();
    let willis = rows.iter().find(|r| r.field("uname").as_str() == Some("Willis Person")).unwrap();
    assert_eq!(willis.field("messages"), Value::ordered_list(vec![]));
}

/// Query 5's nested spatial join probes the R-tree once per message.
#[test]
fn query_5_decorrelates_into_an_rtree_index_nl_join() {
    let (instance, _d) = tiny_social();
    let q = r#"for $t in dataset MugshotMessages
               return {
                   "message": $t.message,
                   "nearby-messages":
                       for $t2 in dataset MugshotMessages
                       where spatial-distance($t.sender-location, $t2.sender-location) <= 1
                       return { "msgtxt": $t2.message }
               };"#;
    let (plan, job) = instance.explain(q).unwrap();
    assert!(plan.contains("index-nl-join TinySocial.MugshotMessages.msSenderLocIndex"), "{plan}");
    assert!(
        job.contains("index-nested-loop-join TinySocial.MugshotMessages.msSenderLocIndex"),
        "{job}"
    );
    let rows = instance.query(q).unwrap();
    assert_eq!(rows.len(), 8);
    for r in &rows {
        // Every message is near itself.
        assert!(!r.field("nearby-messages").as_list().unwrap().is_empty(), "{r:?}");
    }
}

/// Query 13's fuzzy join on tags has no index path: a nested-loop join.
#[test]
fn query_13_decorrelates_into_a_nested_loop_join() {
    let (instance, _d) = tiny_social();
    let q = r#"set simfunction "jaccard";
               set simthreshold "0.3";
               for $msg in dataset MugshotMessages
               let $msgsSimilarTags := (
                   for $m2 in dataset MugshotMessages
                   where $m2.tags ~= $msg.tags
                     and $m2.message-id != $msg.message-id
                   return $m2.message
               )
               where count($msgsSimilarTags) > 0
               return { "message": $msg.message,
                        "similarly tagged": $msgsSimilarTags };"#;
    let (plan, job) = instance.explain(q).unwrap();
    assert!(plan.contains("join (LeftOuter)"), "{plan}");
    assert!(job.contains("nested-loop-join"), "{job}");
    assert!(!plan.contains("subplan\n        emit\n          select"), "{plan}");
    assert!(instance.query(q).unwrap().len() >= 4);
}

/// A dataset used as a value is a subquery like any FLWOR: counting it is
/// the scalar aggregate that counts the FLWOR's rows, reading no column.
#[test]
fn count_of_a_dataset_explains_and_answers_like_count_of_its_flwor() {
    let (instance, _d) = tiny_social();
    let bare = "count(dataset MugshotMessages)";
    let flwor = "count(for $m in dataset MugshotMessages return $m)";
    assert_eq!(instance.explain(bare).unwrap(), instance.explain(flwor).unwrap());
    let (plan, job) = instance.explain(bare).unwrap();
    assert!(plan.contains("aggregate [aggs: count]"), "{plan}");
    assert!(job.contains("data-scan TinySocial.MugshotMessages [cols: none]"), "{job}");
    assert_eq!(instance.query(bare).unwrap(), [Value::Int64(8)]);
    assert_eq!(instance.query(&format!("{bare} + 0")).unwrap(), [Value::Int64(8)]);
}

/// What still runs inside an expression shows in `explain`: a dataset-free
/// subplan prints as a `subplan` block under the operator that evaluates
/// it, and an unnest names what it iterates.
#[test]
fn explain_shows_the_subplans_expressions_still_evaluate() {
    let (instance, _d) = tiny_social();
    let q = r#"for $u in dataset MugshotUsers
               where $u.id < 3
               return { "u": $u.id,
                        "friends": for $f in $u.friend-ids where $f > 1 return $f };"#;
    let (plan, _) = instance.explain(q).unwrap();
    assert!(plan.starts_with("emit\n  subplan\n    emit\n      select\n"), "{plan}");
    assert!(plan.contains("        unnest $v1 in $v0.friend-ids\n"), "{plan}");
    assert!(plan.contains("          empty-tuple-source\n"), "{plan}");
    assert!(plan.ends_with("\n  btree-search TinySocial.MugshotUsers (primary)\n"), "{plan}");
    let rows = instance.query(q).unwrap();
    assert_eq!(rows.len(), 2);
}
