//! A device/edge/cloud replica with P2P anti-entropy sync.
//!
//! State is last-writer-wins by HLC (time-drift safe); the op log +
//! version vector machinery gives exactly-once delivery. A sync session is
//! symmetric: exchange vectors, ship the difference both ways — usable
//! device↔device over Bluetooth or device↔cloud over the Internet, which is
//! exactly the MBaaS deployment flexibility §IV-B argues for. Replicas can
//! join dynamically ("allows devices to be added and removed dynamically"):
//! a fresh replica simply syncs from any peer.

use crate::hlc::{Hlc, HlcClock};
use crate::oplog::{Op, OpLog, VersionVector};
use hdm_common::{DeviceId, Result};
use std::collections::{BTreeMap, HashMap};

/// Where a replica sits in the hierarchy (Fig 13). Roles do not change the
/// protocol — that is the point of the P2P design — but label capabilities
/// and drive the bench's latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Device,
    Edge,
    Cloud,
}

/// One key's resolved state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cell {
    value: Option<String>,
    hlc: Hlc,
}

/// Bytes shipped during one sync session (for the Bluetooth-vs-cloud bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncReport {
    pub ops_sent: usize,
    pub ops_received: usize,
    pub bytes_sent: usize,
    pub bytes_received: usize,
}

/// A replica of the shared keyspace.
#[derive(Debug)]
pub struct Replica {
    id: DeviceId,
    role: Role,
    clock: HlcClock,
    log: OpLog,
    state: BTreeMap<String, Cell>,
    seq: u64,
    /// Prefix-subscriptions → pending events ("query-based event
    /// subscriptions (e.g. object location changes)").
    subscriptions: Vec<String>,
    events: Vec<Op>,
    /// Physical clock skew (µs) applied to this device's clock reads — test
    /// and bench hook for the time-drift scenario.
    pub clock_skew: i64,
}

impl Replica {
    pub fn new(id: DeviceId, role: Role) -> Self {
        Self {
            id,
            role,
            clock: HlcClock::new(id),
            log: OpLog::new(),
            state: BTreeMap::new(),
            seq: 0,
            subscriptions: Vec::new(),
            events: Vec::new(),
            clock_skew: 0,
        }
    }

    pub fn id(&self) -> DeviceId {
        self.id
    }

    pub fn role(&self) -> Role {
        self.role
    }

    pub fn vector(&self) -> &VersionVector {
        self.log.vector()
    }

    fn now(&self, physical: u64) -> u64 {
        (physical as i64 + self.clock_skew).max(0) as u64
    }

    /// Local write (`None` deletes).
    pub fn write(&mut self, physical_now: u64, key: &str, value: Option<&str>) -> Result<Hlc> {
        let now = self.now(physical_now);
        let hlc = self.clock.tick(now);
        self.seq += 1;
        let op = Op {
            origin: self.id,
            seq: self.seq,
            hlc,
            key: key.to_string(),
            value: value.map(str::to_string),
        };
        self.apply(&op)?;
        Ok(hlc)
    }

    /// Read the resolved value.
    pub fn read(&self, key: &str) -> Option<&str> {
        self.state.get(key).and_then(|c| c.value.as_deref())
    }

    /// All live keys (deterministic order).
    pub fn keys(&self) -> Vec<&str> {
        self.state
            .iter()
            .filter(|(_, c)| c.value.is_some())
            .map(|(k, _)| k.as_str())
            .collect()
    }

    /// Full resolved state (for convergence checks).
    pub fn snapshot(&self) -> HashMap<String, Option<String>> {
        self.state
            .iter()
            .map(|(k, c)| (k.clone(), c.value.clone()))
            .collect()
    }

    /// Subscribe to changes of keys with this prefix.
    pub fn subscribe_prefix(&mut self, prefix: &str) {
        self.subscriptions.push(prefix.to_string());
    }

    /// Drain subscription events.
    pub fn take_events(&mut self) -> Vec<Op> {
        std::mem::take(&mut self.events)
    }

    fn apply(&mut self, op: &Op) -> Result<()> {
        self.log.append(op.clone())?;
        let insert = match self.state.get(&op.key) {
            // Last-writer-wins on the HLC total order.
            Some(cell) => op.hlc > cell.hlc,
            None => true,
        };
        if insert {
            self.state.insert(
                op.key.clone(),
                Cell {
                    value: op.value.clone(),
                    hlc: op.hlc,
                },
            );
        }
        if self
            .subscriptions
            .iter()
            .any(|p| op.key.starts_with(p.as_str()))
        {
            self.events.push(op.clone());
        }
        Ok(())
    }

    /// Receive a batch of ops (anti-entropy payload) at local time
    /// `physical_now`; returns how many were applied.
    pub fn receive(&mut self, ops: &[Op], physical_now: u64) -> Result<usize> {
        let now = self.now(physical_now);
        let mut applied = 0;
        for op in ops {
            if self.log.vector().covers(op.origin, op.seq) {
                // Guaranteed "no redundant data": the sender uses our
                // vector, so this only happens on overlapping sessions.
                continue;
            }
            self.clock.observe(op.hlc, now);
            self.apply(op)?;
            applied += 1;
        }
        Ok(applied)
    }

    /// Which ops a peer with `their` vector is missing.
    pub fn ops_for(&self, their: &VersionVector) -> Vec<Op> {
        self.log.missing_for(their)
    }
}

fn op_bytes(op: &Op) -> usize {
    // Wire estimate: header (origin+seq+hlc ≈ 28B) + key + value.
    28 + op.key.len() + op.value.as_deref().map(str::len).unwrap_or(0)
}

/// One symmetric P2P sync session between two replicas.
pub fn sync_pair(a: &mut Replica, b: &mut Replica, physical_now: u64) -> Result<SyncReport> {
    let to_b = a.ops_for(b.vector());
    let to_a = b.ops_for(a.vector());
    let bytes_sent: usize = to_b.iter().map(op_bytes).sum();
    let bytes_received: usize = to_a.iter().map(op_bytes).sum();
    let received = b.receive(&to_b, physical_now)?;
    let sent_back = a.receive(&to_a, physical_now)?;
    debug_assert_eq!(received, to_b.len(), "no loss");
    debug_assert_eq!(sent_back, to_a.len(), "no loss");
    Ok(SyncReport {
        ops_sent: to_b.len(),
        ops_received: to_a.len(),
        bytes_sent,
        bytes_received,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device(id: u64) -> Replica {
        Replica::new(DeviceId::new(id), Role::Device)
    }

    #[test]
    fn local_write_read() {
        let mut r = device(1);
        r.write(100, "photo/1", Some("beach")).unwrap();
        assert_eq!(r.read("photo/1"), Some("beach"));
        r.write(101, "photo/1", None).unwrap();
        assert_eq!(r.read("photo/1"), None);
    }

    #[test]
    fn pairwise_sync_converges_both_ways() {
        let mut a = device(1);
        let mut b = device(2);
        a.write(100, "a-key", Some("1")).unwrap();
        b.write(100, "b-key", Some("2")).unwrap();
        let report = sync_pair(&mut a, &mut b, 200).unwrap();
        assert_eq!(report.ops_sent, 1);
        assert_eq!(report.ops_received, 1);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.read("b-key"), Some("2"));
    }

    #[test]
    fn resync_sends_nothing_new() {
        let mut a = device(1);
        let mut b = device(2);
        a.write(100, "k", Some("v")).unwrap();
        sync_pair(&mut a, &mut b, 150).unwrap();
        let second = sync_pair(&mut a, &mut b, 200).unwrap();
        assert_eq!(
            second.ops_sent + second.ops_received,
            0,
            "no redundant data"
        );
    }

    #[test]
    fn lww_resolves_concurrent_writes_identically_everywhere() {
        let mut a = device(1);
        let mut b = device(2);
        a.write(100, "k", Some("from-a")).unwrap();
        b.write(100, "k", Some("from-b")).unwrap(); // concurrent
        sync_pair(&mut a, &mut b, 200).unwrap();
        assert_eq!(a.read("k"), b.read("k"));
        // Equal (physical, logical) → device 2 wins the tie-break.
        assert_eq!(a.read("k"), Some("from-b"));
    }

    #[test]
    fn time_drift_does_not_invert_causality() {
        // Device 2's clock is far behind. It syncs (observes device 1's
        // writes), then *overwrites* the key: its update must win even
        // though its wall clock is smaller.
        let mut fast = device(1);
        let mut slow = device(2);
        slow.clock_skew = -3_600_000_000; // one hour behind
        fast.write(3_600_001_000, "doc", Some("v1")).unwrap();
        sync_pair(&mut fast, &mut slow, 3_600_002_000).unwrap();
        assert_eq!(slow.read("doc"), Some("v1"));
        slow.write(3_600_003_000, "doc", Some("v2")).unwrap();
        sync_pair(&mut fast, &mut slow, 3_600_004_000).unwrap();
        assert_eq!(fast.read("doc"), Some("v2"), "causally-later write wins");
    }

    #[test]
    fn gossip_over_a_chain_converges() {
        // a-b-c-d chain: writes at the ends meet in the middle.
        let mut reps: Vec<Replica> = (1..=4).map(device).collect();
        reps[0].write(10, "left", Some("L")).unwrap();
        reps[3].write(10, "right", Some("R")).unwrap();
        // Left-to-right data moves one sweep; right-to-left needs one sweep
        // per hop against the sweep direction: 3 sweeps for a 4-chain.
        for sweep in 0..3 {
            for i in 0..3 {
                let (l, r) = reps.split_at_mut(i + 1);
                sync_pair(&mut l[i], &mut r[0], 100 + sweep * 10 + i as u64).unwrap();
            }
        }
        let base = reps[0].snapshot();
        for r in &reps[1..] {
            assert_eq!(r.snapshot(), base);
        }
        assert_eq!(reps[0].read("right"), Some("R"));
    }

    #[test]
    fn dynamic_join_catches_up_from_any_peer() {
        let mut a = device(1);
        for i in 0..20 {
            a.write(100 + i, &format!("k{i}"), Some("v")).unwrap();
        }
        let mut newcomer = device(9);
        let report = sync_pair(&mut a, &mut newcomer, 500).unwrap();
        assert_eq!(report.ops_sent, 20);
        assert_eq!(newcomer.keys().len(), 20);
    }

    #[test]
    fn subscriptions_fire_on_prefix_matches() {
        let mut phone = device(1);
        let mut watch = device(2);
        watch.subscribe_prefix("location/");
        phone.write(100, "location/car", Some("garage")).unwrap();
        phone.write(101, "music/track", Some("song")).unwrap();
        sync_pair(&mut phone, &mut watch, 200).unwrap();
        let events = watch.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].key, "location/car");
        assert!(watch.take_events().is_empty(), "drained");
    }

    #[test]
    fn tombstones_replicate() {
        let mut a = device(1);
        let mut b = device(2);
        a.write(100, "k", Some("v")).unwrap();
        sync_pair(&mut a, &mut b, 150).unwrap();
        a.write(200, "k", None).unwrap();
        sync_pair(&mut a, &mut b, 250).unwrap();
        assert_eq!(b.read("k"), None);
    }
}
