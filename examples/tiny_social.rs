//! The paper's running example, end to end: the TinySocial dataverse for
//! Mugshot.com (Data definitions 1-2, Updates 1-2, and a tour of the
//! paper's queries — equijoins, nested FLWORs, quantifiers, fuzzy
//! matching, grouped aggregation with limits).
//!
//! Run with: `cargo run --example tiny_social`

use asterix_adm::Value;
use asterixdb::{ClusterConfig, Instance};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = asterix_testkit::TempDir::new()?;
    let instance = Instance::open(ClusterConfig::small(dir.path()))?;

    // Data definition 1 + 2 (verbatim from the paper, modulo whitespace).
    instance.execute(
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
    )?;

    // A few users (including Update 1's John Doe record, verbatim).
    instance.execute(
        r#"
        insert into dataset MugshotUsers ([
            { "id": 1, "alias": "Margarita", "name": "Margarita Stoddard",
              "user-since": datetime("2012-08-20T10:10:00"),
              "address": { "street": "234 Thomas Ave", "city": "San Hugo",
                           "state": "CA", "zip": "98765", "country": "USA" },
              "friend-ids": {{ 2, 3 }},
              "employment": [ { "organization-name": "Codetechno",
                                "start-date": date("2006-08-06") } ] },
            { "id": 2, "alias": "Isbel", "name": "Isbel Dull",
              "user-since": datetime("2011-01-22T10:10:00"),
              "address": { "street": "345 James Ave", "city": "San Jose",
                           "state": "CA", "zip": "95014", "country": "USA" },
              "friend-ids": {{ 1, 4 }},
              "employment": [ { "organization-name": "Hexviane",
                                "start-date": date("2010-04-27"),
                                "end-date": date("2012-09-18") } ] },
            { "id": 3, "alias": "Emory", "name": "Emory Unk",
              "user-since": datetime("2012-07-10T10:10:00"),
              "address": { "street": "456 Jose Ave", "city": "Irvine",
                           "state": "CA", "zip": "92617", "country": "USA" },
              "friend-ids": {{ 1, 5 }},
              "employment": [ { "organization-name": "geomedia",
                                "start-date": date("2010-06-17"),
                                "job-kind": "part-time" } ] }
        ]);
        insert into dataset MugshotUsers (
            { "id": 11, "alias": "John", "name": "JohnDoe",
              "address": { "street": "789 Jane St", "city": "San Harry",
                           "zip": "98767", "state": "CA", "country": "USA" },
              "user-since": datetime("2010-08-15T08:10:00"),
              "friend-ids": {{ 5, 9, 11 }},
              "employment": [ { "organization-name": "Kongreen",
                                "start-date": date("2012-06-05") } ] }
        );
    "#,
    )?;

    // Some messages.
    instance.execute(
        r#"
        insert into dataset MugshotMessages ([
            { "message-id": 1, "author-id": 1,
              "timestamp": datetime("2012-09-01T12:00:00"),
              "sender-location": point("47.4,80.9"),
              "tags": {{ "tweet", "phone" }},
              "message": "cant stand att the network is horrible" },
            { "message-id": 2, "author-id": 1,
              "timestamp": datetime("2014-02-20T10:00:00"),
              "sender-location": point("40.3,70.1"),
              "tags": {{ "phone", "plan" }},
              "message": "see you tonite at the concert" },
            { "message-id": 3, "author-id": 2,
              "timestamp": datetime("2014-02-20T18:30:00"),
              "sender-location": point("40.5,70.2"),
              "tags": {{ "concert", "music" }},
              "message": "going out tonight for some music" },
            { "message-id": 4, "author-id": 3,
              "timestamp": datetime("2014-02-21T09:00:00"),
              "in-response-to": 3,
              "sender-location": point("44.0,75.0"),
              "tags": {{ "music" }},
              "message": "what a great concert that was" }
        ]);
    "#,
    )?;

    // Query 2: datetime range scan (routes through msUserSinceIdx).
    let q2 = instance.query(
        r#"for $user in dataset MugshotUsers
           where $user.user-since >= datetime("2010-07-22T00:00:00")
             and $user.user-since <= datetime("2012-07-29T23:59:59")
           return $user;"#,
    )?;
    println!("Query 2 (range scan): {} users", q2.len());

    // Query 3: equijoin (compiles to a hybrid hash join).
    let q3 = instance.query(
        r#"for $user in dataset MugshotUsers
           for $message in dataset MugshotMessages
           where $message.author-id = $user.id
           return { "uname": $user.name, "message": $message.message };"#,
    )?;
    println!("Query 3 (equijoin): {} pairs", q3.len());

    // Query 4: nested left outer join — users keep empty message lists.
    let q4 = instance.query(
        r#"for $user in dataset MugshotUsers
           return { "uname": $user.name,
                    "messages": for $message in dataset MugshotMessages
                                where $message.author-id = $user.id
                                return $message.message };"#,
    )?;
    println!("Query 4 (nested):");
    for r in &q4 {
        println!("  {r}");
    }

    // Query 6: fuzzy selection with edit distance ("tonite" ~ "tonight").
    instance.execute(r#"set simfunction "edit-distance"; set simthreshold "3";"#)?;
    let q6 = instance.query(
        r#"for $msu in dataset MugshotUsers
           for $msm in dataset MugshotMessages
           where $msu.id = $msm.author-id
             and (some $word in word-tokens($msm.message)
                  satisfies $word ~= "tonight")
           return { "name": $msu.name, "message": $msm.message };"#,
    )?;
    println!("Query 6 (fuzzy): {} matches", q6.len());
    assert!(q6.len() >= 2, "tonite + tonight should both match");

    // Query 7: existential quantifier over an open field.
    let q7 = instance.query(
        r#"for $msu in dataset MugshotUsers
           where (some $e in $msu.employment
                  satisfies is-null($e.end-date) and $e.job-kind = "part-time")
           return $msu;"#,
    )?;
    println!("Query 7 (quantified, open field): {} users", q7.len());
    assert_eq!(q7.len(), 1, "Emory's part-time job has no end-date");

    // Queries 8+9: a UDF (view with parameters) and its use.
    instance.execute(
        r#"create function unemployed() {
               for $msu in dataset MugshotUsers
               where (every $e in $msu.employment
                      satisfies not(is-null($e.end-date)))
               return { "name": $msu.name, "address": $msu.address }
           };"#,
    )?;
    let q9 = instance.query(
        r#"for $un in unemployed()
           where $un.address.zip = "95014"
           return $un;"#,
    )?;
    println!("Query 9 (UDF): {} unemployed in 95014", q9.len());

    // Query 11: grouped aggregation with sorting and limit. The count runs
    // inside the group-by, so the messages are read for two columns only.
    let query_11 = r#"for $msg in dataset MugshotMessages
           where $msg.timestamp >= datetime("2014-02-20T00:00:00")
             and $msg.timestamp < datetime("2014-02-21T00:00:00")
           group by $aid := $msg.author-id with $msg
           let $cnt := count($msg)
           order by $cnt desc
           limit 3
           return { "author": $aid, "no messages": $cnt };"#;
    let q11 = instance.query(query_11)?;
    println!("Query 11 (top chatty users): {q11:?}");
    // On 2014-02-20: author 1 (message 2) and author 2 (message 3).
    let mut authors: Vec<Value> = q11.iter().map(|r| r.field("author")).collect();
    authors.sort_by(|a, b| a.total_cmp(b));
    assert_eq!(authors, [Value::Int32(1), Value::Int32(2)], "{q11:?}");
    assert!(q11.iter().all(|r| r.field("no messages") == Value::Int64(1)), "{q11:?}");
    let (plan, job) = instance.explain(query_11)?;
    assert!(!plan.contains("listify"), "{plan}");
    assert!(job.contains("[cols: author-id,timestamp]"), "{job}");

    // Update 2: delete.
    let del = instance.execute("delete $user from dataset MugshotUsers where $user.id = 11;")?;
    println!("Update 2 deleted {} record(s)", del[0].count());

    Ok(())
}
