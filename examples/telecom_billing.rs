//! GMDB for telecom session management (§III): the In-Service Software
//! Upgrade story.
//!
//! A fleet of MME applications manages subscriber sessions through GMDB.
//! Mid-run, a new application version registers schema V5 (more fields) and
//! starts serving — while V3 applications keep reading and writing the same
//! objects with zero downtime. Updates travel as delta objects.
//!
//! Run: `cargo run --example telecom_billing`

use huawei_dm::common::{ClientId, SplitMix64};
use huawei_dm::gmdb::{Delta, GmdbRuntime};
use huawei_dm::workloads::mme::{generate_session, mme_schema_chain, MmeConfig};
use serde_json::json;

fn main() -> hdm_common::Result<()> {
    // The fiber runtime: objects partitioned over single-threaded workers.
    let mut gmdb = GmdbRuntime::new(2);
    let chain = mme_schema_chain();

    // Day 0: only V3 is deployed.
    gmdb.register(chain[0].clone())?;
    let cfg = MmeConfig::default();
    let mut rng = SplitMix64::new(42);
    let mut keys = Vec::new();
    for _ in 0..200 {
        let session = generate_session(&mut rng, 3, &cfg);
        keys.push(gmdb.put("mme_session", 3, session)?);
    }
    println!(
        "V3 MME serving {} sessions (5-10KB tree objects)",
        keys.len()
    );

    // A phone attaches: the V3 app updates its session via a delta.
    let old = gmdb.get("mme_session", &keys[0], 3)?;
    let mut new = old.clone();
    new["tracking_area"] = json!(777);
    let delta = Delta::compute(&old, &new);
    println!(
        "attach update as delta: {} bytes on the wire (whole object: {} bytes)",
        delta.byte_size(),
        serde_json::to_string(&new).unwrap().len()
    );
    gmdb.update_delta("mme_session", &keys[0], 3, delta)?;

    // --- ISSU: V5 registers while V3 keeps serving ---
    println!("\n== In-Service Software Upgrade: registering schema V5 ==");
    gmdb.register(chain[1].clone())?;

    // The monitoring app (V5) subscribes to a session still owned by V3.
    let monitor = ClientId::new(99);
    gmdb.subscribe("mme_session", &keys[0], monitor, 5)?;

    // V5 reads a V3-stored object: upgraded on the fly with defaults.
    let v5_view = gmdb.get("mme_session", &keys[0], 5)?;
    println!(
        "V5 app reads V3 session: csfb_capable={} srvcc_target={:?} (defaults filled)",
        v5_view["csfb_capable"], v5_view["srvcc_target"]
    );

    // V3 app keeps writing the same object — no downtime.
    let old = gmdb.get("mme_session", &keys[0], 3)?;
    let mut new = old.clone();
    new["tracking_area"] = json!(778);
    gmdb.update_delta("mme_session", &keys[0], 3, Delta::compute(&old, &new))?;

    // The V5 subscriber receives the change as a delta in ITS schema.
    let notes = gmdb.take_notifications(monitor)?;
    println!(
        "V5 subscriber received {} delta notification(s); first delta: {:?}",
        notes.len(),
        notes[0].delta.wire_format().trim()
    );

    // A V5 app writes a session with the new fields; a V3 app still reads it.
    let v5_session = generate_session(&mut rng, 5, &cfg);
    let key5 = gmdb.put("mme_session", 5, v5_session)?;
    let v3_view = gmdb.get("mme_session", &key5, 3)?;
    assert!(
        v3_view.get("csfb_capable").is_none(),
        "V3 never sees V5 fields"
    );
    println!(
        "V3 app reads V5 session: downgraded view has {} fields",
        v3_view.as_object().unwrap().len()
    );

    // Rollback drill (Fig 8's downgrade path): a V5-written object is
    // readable by V3 — so rolling the application back is safe.
    let stats = gmdb.stats()?;
    println!(
        "\nstats: {} writes ({} as deltas), {} upgraded reads, {} downgraded reads",
        stats.writes, stats.delta_writes, stats.reads_upgraded, stats.reads_downgraded
    );
    println!(
        "sync bandwidth: {}B as deltas vs {}B whole-object equivalent",
        stats.delta_bytes_sent, stats.whole_bytes_equivalent
    );
    gmdb.shutdown();
    Ok(())
}
