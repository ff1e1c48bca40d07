//! The MPP analytics layer (Fig 1): scatter–gather SQL over sharded data
//! nodes, the way FI-MPPDB runs reporting queries.
//!
//! Loads a star schema — a fact table and a dimension, each hash-distributed
//! by its first column — into a 4-shard GTM-lite cluster, then runs a
//! reporting query and shows its distributed plan, its rows and the
//! data-exchange accounting. A point lookup on the fact table's key prunes
//! to one shard leg and never touches the GTM.
//!
//! Run: `cargo run --example mpp_analytics`

use huawei_dm::cluster::{Cluster, ClusterConfig, DistDb};
use huawei_dm::common::{Datum, Result};

fn main() -> Result<()> {
    let mut db = DistDb::new(Cluster::new(ClusterConfig::gtm_lite(4)))?;
    println!(
        "MPP cluster: {} data nodes\n",
        db.cluster().shard_map().all().count()
    );

    // Star schema: sales distributed by sale_id, customers by cust_id.
    db.execute("create table sales (sale_id int, cust_id int, region int, amount int)")?;
    db.execute("create table customers (cust_id int, segment text)")?;
    let mut rows = Vec::new();
    for i in 0..20_000i64 {
        rows.push(format!(
            "({i}, {}, {}, {})",
            i % 500,
            i % 8,
            (i * 13) % 1000
        ));
        if rows.len() == 1000 {
            db.execute(&format!("insert into sales values {}", rows.join(",")))?;
            rows.clear();
        }
    }
    let dims: Vec<String> = (0..500)
        .map(|i| format!("({i}, 'segment-{}')", i % 4))
        .collect();
    db.execute(&format!("insert into customers values {}", dims.join(",")))?;
    db.execute("analyze")?;
    println!("loaded 20,000 fact rows + 500 dimension rows, hash-distributed over the shards");

    // The distributed plan: every base-table scan is an Exchange leaf that
    // names the shards its fragments run on; the join and the aggregate run
    // on the coordinator.
    let report = "select c.segment, count(*), sum(s.amount) \
                  from sales s, customers c \
                  where s.cust_id = c.cust_id and s.amount > 500 \
                  group by c.segment order by c.segment";
    println!("\nreporting query:\n  {report}\n\nplan:");
    for line in db.execute(&format!("explain {report}"))?.rows {
        if let Some(Datum::Text(text)) = line.get(0) {
            println!("  {text}");
        }
    }

    let before = db.counters().rows_exchanged;
    let r = db.execute(report)?;
    println!("\nresults:");
    for row in &r.rows {
        println!("  {row}");
    }
    println!(
        "\ndata exchange: {} rows shipped from the data nodes to the coordinator",
        db.counters().rows_exchanged - before
    );

    // A point lookup on the distribution key prunes to one shard leg and
    // runs as a single-shard transaction: no GTM round trip at all.
    let (counters, gtm) = (db.counters(), db.cluster().counters().gtm_interactions);
    let hit = db.execute("select * from sales where sale_id = 4242")?;
    println!(
        "\npoint lookup sale_id = 4242: {} row(s), {} shard leg(s), {} GTM interaction(s)",
        hit.rows.len(),
        db.counters().fragments_run - counters.fragments_run,
        db.cluster().counters().gtm_interactions - gtm
    );
    Ok(())
}
