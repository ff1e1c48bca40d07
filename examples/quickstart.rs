//! Quickstart: the FI-MPPDB public API in five minutes.
//!
//! Creates an embedded instance, runs SQL (analytics), uses the HTAP
//! transactional surface, and shows the learning optimizer correcting its
//! own estimates — the three §II features in one sitting.
//!
//! Run: `cargo run --example quickstart`

use huawei_dm::core::{make_key, FiConfig, FiMppDb, TxnOptions};

fn main() -> hdm_common::Result<()> {
    let mut db = FiMppDb::new(FiConfig::default());

    // --- Relational SQL ---
    db.sql("create table accounts (id int, region text, balance int)")?;
    db.sql(
        "insert into accounts values \
         (1, 'emea', 120), (2, 'emea', 80), (3, 'apac', 50), (4, 'apac', 300)",
    )?;
    let r = db.sql(
        "select region, count(*), sum(balance) from accounts \
         group by region order by region",
    )?;
    println!("balances by region:");
    for row in &r.rows {
        println!("  {row}");
    }

    // --- HTAP: the OLTP surface under GTM-lite ---
    // Keys pack (shard-prefix, local-id); single-shard transactions commit
    // at the data node without touching the GTM.
    let key = make_key(7, 1);
    db.oltp().bump(Some(7), key, 500)?;
    db.oltp().bump(Some(7), key, -120)?;
    println!(
        "\nOLTP balance after two single-shard transactions: {}",
        db.oltp().bump(Some(7), key, 0)?
    );
    println!(
        "GTM interactions so far: {} (single-shard fast path)",
        db.oltp().counters().gtm_interactions
    );
    // A multi-shard transfer runs 2PC through the GTM.
    let other = make_key(8, 1);
    let mut txn = db.oltp().begin(TxnOptions::multi())?;
    db.oltp().put(&mut txn, other, 120)?;
    db.oltp().put(&mut txn, key, 260)?;
    db.oltp().commit(txn)?;
    println!(
        "after one multi-shard transfer: {} GTM interactions",
        db.oltp().counters().gtm_interactions
    );

    // --- The learning optimizer ---
    db.sql("create table events (kind int)")?;
    let vals: Vec<String> = (0..3000)
        .map(|i| format!("({})", if i % 50 == 0 { 1 } else { 0 }))
        .collect();
    for chunk in vals.chunks(500) {
        db.sql(&format!("insert into events values {}", chunk.join(",")))?;
    }
    db.sql("analyze")?;
    let q = "select * from events where kind = 1";
    let cold = db.sql(q)?;
    let cold_scan = &cold.steps[0];
    println!(
        "\ncold run : estimated {:.0} rows, actual {} (captured into the plan store)",
        cold_scan.estimated, cold_scan.actual
    );
    let warm = db.sql(q)?;
    let warm_scan = &warm.steps[0];
    println!(
        "warm run : estimated {:.0} rows, actual {} (estimate from the plan store)",
        warm_scan.estimated, warm_scan.actual
    );
    let stats = db.plan_store_stats().expect("learning optimizer on");
    println!(
        "plan store: {} captured steps, {} hits",
        stats.captures, stats.hits
    );
    Ok(())
}
