//! The paper's **Example 1** as a runnable program: cross-model fraud/suspect
//! detection (§II-B).
//!
//! "In this query, we integrate a graph query written in Gremlin and a
//! time-series [query] into a relational query" — find people who received
//! more than three calls recently (graph), whose cars were caught speeding
//! in the last half hour (time series), joined through the relational
//! `car2cid` mapping.
//!
//! Run: `cargo run --example fraud_detection`

use huawei_dm::common::Datum;
use huawei_dm::mmdb::MultiModelDb;

fn main() -> hdm_common::Result<()> {
    let mut mm = MultiModelDb::new();

    // --- Graph engine: the call graph ---
    mm.create_graph("calls");
    mm.with_graph_mut("calls", |g| {
        // Persons 1..=6; person 3 (cid 11113) is the suspect: five recent
        // incoming calls.
        for id in 1..=6i64 {
            g.add_vertex(id, [("cid".to_string(), Datum::Int(11110 + id))]);
        }
        for (src, t) in [(1i64, 2100i64), (2, 2200), (4, 2300), (5, 2400), (6, 2500)] {
            g.add_edge(src, 3, "call", [("time".to_string(), Datum::Int(t))])?;
        }
        // Person 1 got two old calls — below the threshold.
        g.add_edge(2, 1, "call", [("time".to_string(), Datum::Int(100))])?;
        g.add_edge(4, 1, "call", [("time".to_string(), Datum::Int(200))])?;
        hdm_common::Result::Ok(())
    })??;

    // --- Time-series engine: highway speed cameras ---
    mm.create_series("high_speed", 60_000_000);
    // 30 minutes of per-second samples; car-3 speeds in the last 10 minutes.
    for s in 0..1800i64 {
        let car = format!("car-{}", s % 6);
        let speed = if s % 6 == 3 && s > 1200 { 150.0 } else { 90.0 };
        mm.ingest("high_speed", s * 1_000_000, &car, speed)?;
    }

    // --- Relational: car ownership and person records ---
    mm.sql("create table car2cid (carid text, cid int)")?;
    for c in 0..6 {
        mm.sql(&format!(
            "insert into car2cid values ('car-{c}', {})",
            11110 + c
        ))?;
    }
    mm.sql("create table persons (cid int, phone text, photo text)")?;
    for p in 1..=6 {
        mm.sql(&format!(
            "insert into persons values ({}, '+86-555-010{p}', 'photo-{p}.jpg')",
            11110 + p
        ))?;
    }

    // --- The unified query (paper Example 1) ---
    let query = "\
        with cars as (select tag as carid from \
                 gtimeseries('high_speed', 1800000000) hs where hs.value > 120), \
             suspects as (select v from \
                 ggraph('calls', 'g.V().where(inE(''call'').has(''time'', gt(1000)).count().gt(3)).dedup()') g) \
        select p.cid, p.phone, p.photo, c.carid \
        from suspects s, persons p, car2cid cc, cars c \
        where p.cid = 11110 + s.v and cc.cid = p.cid and cc.carid = c.carid \
        order by p.cid limit 10";

    println!("Example 1 — unified multi-model query:\n{query}\n");
    let r = mm.sql(query)?;
    println!("suspects with speeding cars:");
    println!("  {:?}", r.columns);
    let mut seen = std::collections::BTreeSet::new();
    for row in &r.rows {
        if seen.insert(format!("{row}")) {
            println!("  {row}");
        }
    }
    assert!(
        r.rows
            .iter()
            .any(|row| row.get(0).and_then(Datum::as_int) == Some(11113)),
        "person 11113 must be caught"
    );
    println!("\n(person 11113: >3 recent calls AND car-3 speeding — caught across three models)");
    Ok(())
}
