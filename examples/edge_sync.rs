//! Device–edge–cloud data collaboration (§IV-B, Fig 13).
//!
//! A phone, a smart watch, a home edge router and the cloud share a
//! keyspace. The phone and watch sync *directly* (the Bluetooth path the
//! paper argues is ≥10x faster than a cloud round trip), keep working
//! offline, and converge with the cloud when connectivity returns — with
//! exactly-once delivery and drift-safe last-writer-wins throughout.
//!
//! Run: `cargo run --example edge_sync`

use huawei_dm::common::{DeviceId, SimDuration};
use huawei_dm::edgesync::replica::{sync_pair, Role};
use huawei_dm::edgesync::Replica;
use huawei_dm::simnet::NetLink;

fn main() -> hdm_common::Result<()> {
    let mut phone = Replica::new(DeviceId::new(1), Role::Device);
    let mut watch = Replica::new(DeviceId::new(2), Role::Device);
    let mut edge = Replica::new(DeviceId::new(10), Role::Edge);
    let mut cloud = Replica::new(DeviceId::new(100), Role::Cloud);
    // The watch's clock drifts 40 minutes behind.
    watch.clock_skew = -2_400_000_000;

    // The watch subscribes to location updates (query-based subscription).
    watch.subscribe_prefix("location/");

    // Offline: phone records a run; watch records heart rate. No Internet.
    for i in 0..5u64 {
        phone.write(
            1_000_000 * i,
            &format!("location/run/{i}"),
            Some("47.37,8.54"),
        )?;
        watch.write(1_000_000 * i + 500, &format!("health/hr/{i}"), Some("142"))?;
    }

    // Direct device-to-device sync over Bluetooth.
    let report = sync_pair(&mut phone, &mut watch, 6_000_000)?;
    let mut bt = NetLink::bluetooth(1);
    let mut inet = NetLink::internet(1);
    let bt_time = bt.round_trip() + bt.round_trip(); // vector + batch
    let inet_time = SimDuration::from_micros(
        (inet.round_trip() + inet.round_trip()).micros() * 2, // up + down via cloud
    );
    println!(
        "phone<->watch direct sync: {} ops, {}B | modeled Bluetooth time {} vs via-cloud {} ({}x)",
        report.ops_sent + report.ops_received,
        report.bytes_sent + report.bytes_received,
        bt_time,
        inet_time,
        inet_time.micros() / bt_time.micros().max(1)
    );
    println!(
        "watch saw {} location events via subscription",
        watch.take_events().len()
    );
    assert_eq!(phone.snapshot(), watch.snapshot());

    // Drift-safe conflict: both edit the same note concurrently; the
    // watch's wall clock is far behind, but HLC ordering keeps the system
    // consistent and both replicas agree on the winner.
    phone.write(7_000_000, "notes/todo", Some("buy milk"))?;
    watch.write(7_000_100, "notes/todo", Some("buy oat milk"))?;
    sync_pair(&mut phone, &mut watch, 8_000_000)?;
    println!(
        "concurrent edit resolved identically on both: {:?}",
        phone.read("notes/todo")
    );
    assert_eq!(phone.read("notes/todo"), watch.read("notes/todo"));

    // Back online: phone syncs to the edge, edge to the cloud.
    sync_pair(&mut phone, &mut edge, 9_000_000)?;
    sync_pair(&mut edge, &mut cloud, 10_000_000)?;
    println!(
        "cloud has {} keys after edge relay (no loss)",
        cloud.keys().len()
    );
    assert_eq!(cloud.snapshot(), phone.snapshot());

    // Re-sync is free: no redundant data.
    let again = sync_pair(&mut phone, &mut edge, 11_000_000)?;
    println!(
        "re-sync transfers {} ops (no redundant data)",
        again.ops_sent + again.ops_received
    );

    // A new tablet joins the ad hoc network and catches up from the watch.
    let mut tablet = Replica::new(DeviceId::new(3), Role::Device);
    let joined = sync_pair(&mut watch, &mut tablet, 12_000_000)?;
    println!(
        "tablet joined dynamically: received {} ops, state matches: {}",
        joined.ops_sent,
        tablet.snapshot() == watch.snapshot()
    );
    Ok(())
}
