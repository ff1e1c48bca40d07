//! Property-based tests over the core invariants (proptest).

use proptest::collection::vec;
use proptest::prelude::*;

use huawei_dm::common::{Datum, DeviceId, SplitMix64, Xid};
use huawei_dm::edgesync::replica::{sync_pair, Role};
use huawei_dm::edgesync::{Replica, VersionVector};
use huawei_dm::gmdb::Delta;
use huawei_dm::storage::compress::{encode_as, encode_auto, Encoding};
use huawei_dm::txn::{merge_snapshot, MergeInputs, Snapshot};

// ---------- compression codecs ----------

fn datum_strategy() -> impl Strategy<Value = Datum> {
    prop_oneof![
        Just(Datum::Null),
        any::<i64>().prop_map(Datum::Int),
        (-1000i64..1000).prop_map(|v| Datum::Int(v / 7)), // runs & dict repeats
    ]
}

/// Every codec that accepts `data` reproduces it exactly.
fn check_codecs_round_trip(data: &[Datum]) {
    for enc in [
        Encoding::Plain,
        Encoding::Rle,
        Encoding::Dict,
        Encoding::DeltaI64,
    ] {
        if let Some(chunk) = encode_as(data, enc) {
            assert_eq!(chunk.decode(), data, "{enc:?}");
            assert_eq!(chunk.len(), data.len());
        }
    }
    assert_eq!(encode_auto(data).decode(), data);
}

proptest! {
    #[test]
    fn codecs_round_trip(data in vec(datum_strategy(), 0..300)) {
        check_codecs_round_trip(&data);
    }
}

/// The input a past run of `codecs_round_trip` shrank to: two extreme
/// `Int`s, far enough apart that their delta overflows an `i64`.
#[test]
fn codecs_round_trip_two_extreme_ints() {
    check_codecs_round_trip(&[
        Datum::Int(-4_877_056_419_515_979_709),
        Datum::Int(4_346_315_617_338_796_099),
    ]);
}

// ---------- MergeSnapshot (Algorithm 1) ----------

proptest! {
    /// Invariants of the merged snapshot for arbitrary (well-formed)
    /// global/local histories:
    /// 1. locally-active transactions are never visible;
    /// 2. a local commit whose gxid is globally visible+committed is
    ///    visible (UPGRADE);
    /// 3. every LCO entry at or after the first globally-invisible
    ///    multi-shard commit is invisible unless rule 2 restored it.
    #[test]
    fn merge_snapshot_invariants(
        lco_kinds in vec(0u8..3, 0..20),
        global_active_mask in any::<u32>(),
        committed_mask in any::<u32>(),
    ) {
        // Build a deterministic history: local xids 10,11,...; multi-shard
        // legs get gxid 1000+i.
        let mut lco = Vec::new();
        let mut xid_map = std::collections::HashMap::new();
        let mut gxids = Vec::new();
        for (i, kind) in lco_kinds.iter().enumerate() {
            let local = Xid(10 + i as u64);
            lco.push(local);
            if *kind > 0 {
                let g = Xid(1000 + i as u64);
                xid_map.insert(g, local);
                gxids.push((g, local, i));
            }
        }
        let global_active: std::collections::BTreeSet<Xid> = gxids
            .iter()
            .filter(|(_, _, i)| global_active_mask & (1 << (i % 32)) != 0)
            .map(|(g, _, _)| *g)
            .collect();
        let globally_committed: std::collections::HashSet<Xid> = gxids
            .iter()
            .filter(|(g, _, i)| {
                committed_mask & (1 << (i % 32)) != 0 && !global_active.contains(g)
            })
            .map(|(g, _, _)| *g)
            .collect();

        let global = Snapshot::capture(Xid(2000), global_active.iter().copied());
        // All LCO entries are committed locally; nothing active.
        let local = Snapshot::capture(Xid(10 + lco_kinds.len() as u64), []);
        let rev: std::collections::HashMap<Xid, Xid> =
            xid_map.iter().map(|(g, l)| (*l, *g)).collect();
        let out = merge_snapshot(&MergeInputs {
            global: &global,
            local: &local,
            lco: &lco,
            xid_map: &xid_map,
            gxid_of: &|x| rev.get(&x).copied(),
            globally_committed: &|g| globally_committed.contains(&g),
        });

        // Rule 2: globally visible+committed legs are visible.
        for (g, l, _) in &gxids {
            if global.sees(*g) && globally_committed.contains(g) {
                prop_assert!(out.merged.sees(*l), "upgrade lost {l}");
            }
        }
        // Rule 3: taint suffix.
        let first_taint = gxids
            .iter()
            .filter(|(g, _, _)| global.is_active(*g))
            .map(|(_, _, i)| *i)
            .min();
        if let Some(t) = first_taint {
            for (i, l) in lco.iter().enumerate() {
                if i >= t {
                    let restored = rev
                        .get(l)
                        .map(|g| global.sees(*g) && globally_committed.contains(g))
                        .unwrap_or(false);
                    if !restored {
                        prop_assert!(!out.merged.sees(*l), "taint leak at {i}");
                    }
                }
            }
        }
        // No upgrade waits possible: nothing is locally active.
        prop_assert!(out.upgrade_waits.is_empty());
    }
}

// ---------- GMDB deltas ----------

fn json_tree(rng: &mut SplitMix64, depth: u32) -> serde_json::Value {
    let mut m = serde_json::Map::new();
    for key in ["a", "b", "c", "d"] {
        let v = if depth > 0 && rng.chance(0.35) {
            let n = rng.next_below(4);
            serde_json::Value::Array((0..n).map(|_| json_tree(rng, depth - 1)).collect())
        } else {
            serde_json::json!(rng.next_below(6))
        };
        m.insert(key.to_string(), v);
    }
    serde_json::Value::Object(m)
}

proptest! {
    /// compute∘apply is the identity transformation between any two trees.
    #[test]
    fn delta_compute_apply_identity(seed_a in any::<u64>(), seed_b in any::<u64>()) {
        let a = json_tree(&mut SplitMix64::new(seed_a), 3);
        let b = json_tree(&mut SplitMix64::new(seed_b), 3);
        let d = Delta::compute(&a, &b);
        let mut t = a;
        d.apply(&mut t).unwrap();
        prop_assert_eq!(t, b);
    }
}

// ---------- GMDB schema evolution ----------

proptest! {
    /// For any legal chain of appended fields, upgrading an object from the
    /// first version to the last and back is the identity, and every
    /// intermediate conversion validates against its schema.
    #[test]
    fn schema_chain_round_trips(added_per_version in vec(1usize..4, 1..5)) {
        use huawei_dm::gmdb::{FieldDef, FieldType, ObjectSchema, RecordSchema, SchemaRegistry};
        use serde_json::json;

        let mut reg = SchemaRegistry::new();
        let mut fields = vec![FieldDef::new("id", FieldType::Str)];
        let mut versions = vec![1u32];
        reg.register(
            ObjectSchema::new("s", 1, RecordSchema::new(fields.clone()), "id").unwrap(),
        )
        .unwrap();
        let mut counter = 0;
        for (vi, &n) in added_per_version.iter().enumerate() {
            for _ in 0..n {
                counter += 1;
                fields.push(
                    FieldDef::new(&format!("f{counter}"), FieldType::Int)
                        .with_default(json!(counter)),
                );
            }
            let v = (vi + 2) as u32;
            versions.push(v);
            reg.register(
                ObjectSchema::new("s", v, RecordSchema::new(fields.clone()), "id").unwrap(),
            )
            .unwrap();
        }
        let first = *versions.first().unwrap();
        let last = *versions.last().unwrap();
        let obj = json!({"id": "k"});
        let (up, _) = reg.convert("s", &obj, first, last).unwrap();
        reg.get("s", last).unwrap().root.validate(&up).unwrap();
        let (down, _) = reg.convert("s", &up, last, first).unwrap();
        prop_assert_eq!(down, obj);
        // Every pairwise conversion validates.
        for &a in &versions {
            let (at_a, _) = reg.convert("s", &up, last, a).unwrap();
            reg.get("s", a).unwrap().root.validate(&at_a).unwrap();
            for &b in &versions {
                let (at_b, _) = reg.convert("s", &at_a, a, b).unwrap();
                reg.get("s", b).unwrap().root.validate(&at_b).unwrap();
            }
        }
    }
}

// ---------- version vectors & edge sync ----------

proptest! {
    /// Version-vector merge is a join: commutative, idempotent, dominating.
    #[test]
    fn version_vector_merge_is_lattice_join(
        a_counts in vec(0u64..5, 4),
        b_counts in vec(0u64..5, 4),
    ) {
        let build = |counts: &[u64]| {
            let mut v = VersionVector::new();
            for (i, &n) in counts.iter().enumerate() {
                for s in 1..=n {
                    v.advance(DeviceId::new(i as u64), s).unwrap();
                }
            }
            v
        };
        let a = build(&a_counts);
        let b = build(&b_counts);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "commutative");
        let mut abb = ab.clone();
        abb.merge(&b);
        prop_assert_eq!(&abb, &ab, "idempotent");
        prop_assert!(a.dominated_by(&ab) && b.dominated_by(&ab), "dominates");
    }

    /// Any interleaving of writes and random pairwise syncs, followed by a
    /// full round of syncs, converges every replica to the same state.
    #[test]
    fn edge_sync_converges(script in vec((0usize..4, 0usize..4, 0u8..6), 1..60)) {
        let mut reps: Vec<Replica> = (0..4)
            .map(|i| Replica::new(DeviceId::new(i as u64 + 1), Role::Device))
            .collect();
        let mut t = 1_000u64;
        for (i, j, key) in script {
            t += 17;
            if i == j {
                reps[i].write(t, &format!("k{key}"), Some(&format!("v{t}"))).unwrap();
            } else {
                let (lo, hi) = (i.min(j), i.max(j));
                let (l, r) = reps.split_at_mut(hi);
                sync_pair(&mut l[lo], &mut r[0], t).unwrap();
            }
        }
        // Final full gossip: enough rounds for a 4-clique.
        for _round in 0..2 {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    t += 17;
                    let (l, r) = reps.split_at_mut(j);
                    sync_pair(&mut l[i], &mut r[0], t).unwrap();
                }
            }
        }
        let base = reps[0].snapshot();
        for rep in &reps[1..] {
            prop_assert_eq!(rep.snapshot(), base.clone());
        }
    }
}

// ---------- distributed vs single-node differential testing ----------

proptest! {
    /// Any aggregate reporting query over randomly generated data returns
    /// identical rows, in identical order, from a 4-shard distributed
    /// engine (scatter legs, aggregation on the coordinator) and a
    /// single-node engine.
    #[test]
    fn dist_agrees_with_single_node(
        seed in any::<u64>(),
        rows in 1usize..200,
        threshold in 0i64..100,
        group_mod in 1i64..8,
    ) {
        use huawei_dm::cluster::{Cluster, ClusterConfig, DistDb};
        use huawei_dm::sql::Database;

        let mut rng = SplitMix64::new(seed);
        let data: Vec<(i64, i64)> = (0..rows as i64)
            .map(|i| (i, rng.range_i64(0, 100)))
            .collect();
        let values: Vec<String> = data
            .iter()
            .map(|(i, v)| format!("({i}, {}, {v})", i % group_mod))
            .collect();
        let insert = format!("insert into t values {}", values.join(","));

        let mut single = Database::new();
        single.execute("create table t (id int, g int, v int)").unwrap();
        single.execute(&insert).unwrap();

        // The first column, `id`, is the distribution key.
        let mut dist = DistDb::new(Cluster::new(ClusterConfig::gtm_lite(4))).unwrap();
        dist.execute("create table t (id int, g int, v int)").unwrap();
        dist.execute(&insert).unwrap();

        let queries = [
            format!("select count(*), sum(v), min(v), max(v) from t where v > {threshold}"),
            format!(
                "select g, count(*), sum(v) from t where v > {threshold} \
                 group by g order by g"
            ),
            format!("select id from t where v > {threshold} order by id"),
            "select g, avg(v) from t group by g order by g".to_string(),
        ];
        for q in &queries {
            let a = single.execute(q).unwrap().rows;
            let b = dist.execute(q).unwrap().rows;
            prop_assert_eq!(&a, &b, "query {} diverged", q);
        }
    }
}

// ---------- 2PC coordinator interleavings ----------

proptest! {
    /// Drive a coordinator with an arbitrary interleaving of votes, vote
    /// timeouts and acks. Illegal steps are rejected with errors; however the
    /// accepted steps interleave, the outcome is never contradictory:
    /// * the decision, once made, never flips;
    /// * an accepted no-vote or vote timeout forces the abort path;
    /// * a terminal state is reached only after every participant acked.
    #[test]
    fn twopc_interleavings_never_contradict(
        n in 1u64..5,
        script in vec((0u8..3, 0u64..5, any::<bool>()), 0..40),
    ) {
        use huawei_dm::common::ShardId;
        use huawei_dm::txn::{Decision, TwoPcCoordinator, TwoPcState};

        let participants: Vec<ShardId> = (0..n).map(ShardId::new).collect();
        let mut c = TwoPcCoordinator::new(participants.clone());
        let mut decision: Option<Decision> = None;
        let mut abort_forced = false;
        for (kind, shard, yes) in script {
            let shard = ShardId::new(shard % n);
            match kind {
                0 => {
                    if let Ok(d) = c.vote(shard, yes) {
                        if !yes {
                            abort_forced = true;
                        }
                        if let Some(d) = d {
                            prop_assert!(decision.is_none(), "second decision");
                            decision = Some(d);
                        }
                    }
                }
                1 => {
                    if let Ok(d) = c.timeout_votes() {
                        abort_forced = true;
                        prop_assert_eq!(d, Decision::Abort);
                        prop_assert!(decision.is_none(), "second decision");
                        decision = Some(d);
                    }
                }
                _ => {
                    let _ = c.ack(shard);
                }
            }
            // The live state never contradicts the recorded decision.
            match (decision, c.state()) {
                (None, s) => prop_assert_eq!(s, TwoPcState::Collecting),
                (Some(Decision::Commit), s) => prop_assert!(
                    matches!(s, TwoPcState::Committing | TwoPcState::Committed),
                    "commit decision but state {s:?}"
                ),
                (Some(Decision::Abort), s) => prop_assert!(
                    matches!(s, TwoPcState::Aborting | TwoPcState::Aborted),
                    "abort decision but state {s:?}"
                ),
            }
        }
        if abort_forced {
            prop_assert!(
                decision != Some(Decision::Commit),
                "committed despite a no-vote or timeout"
            );
        }
        if c.is_done() {
            prop_assert!(c.missing_acks().is_empty());
            for p in &participants {
                prop_assert!(c.has_acked(*p));
            }
        }
    }

    /// In-doubt recovery terminates: resolve against the commit-log answer,
    /// then retransmit the decision to `missing_acks()` over a lossy channel.
    /// Because each round moves at least one participant and `has_acked`
    /// dedupes retransmissions, the coordinator reaches the terminal state
    /// matching the log in at most |participants| rounds.
    #[test]
    fn in_doubt_recovery_terminates(
        n in 1u64..6,
        committed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use huawei_dm::common::ShardId;
        use huawei_dm::txn::{Decision, TwoPcCoordinator, TwoPcState};

        let participants: Vec<ShardId> = (0..n).map(ShardId::new).collect();
        let mut c = TwoPcCoordinator::recover_in_doubt(participants);
        prop_assert!(c.is_in_doubt());
        let decision = if committed { Decision::Commit } else { Decision::Abort };
        c.resolve(decision).unwrap();
        let mut rng = SplitMix64::new(seed);
        let mut rounds = 0;
        while !c.is_done() {
            rounds += 1;
            prop_assert!(rounds <= n, "recovery failed to terminate");
            let mut progressed = false;
            for p in c.missing_acks() {
                // Lossy delivery; the transport dedupes via has_acked.
                if rng.chance(0.5) {
                    prop_assert!(!c.has_acked(p));
                    c.ack(p).unwrap();
                    progressed = true;
                }
            }
            if !progressed {
                // Guaranteed retransmission progress per round keeps the
                // |participants| bound tight.
                if let Some(p) = c.missing_acks().first().copied() {
                    c.ack(p).unwrap();
                }
            }
        }
        prop_assert_eq!(
            c.state(),
            if committed { TwoPcState::Committed } else { TwoPcState::Aborted }
        );
    }
}

// ---------- canonical step text ----------

proptest! {
    /// Predicate conjunct order and equality operand order never change the
    /// canonical SCAN step text (the plan-store key).
    #[test]
    fn canonical_text_is_order_insensitive(cols in vec(0usize..3, 2..5)) {
        use huawei_dm::sql::Database;
        let mut db = Database::new();
        db.execute("create table t (a int, b int, c int)").unwrap();
        let names = ["a", "b", "c"];
        let preds: Vec<String> = cols
            .iter()
            .enumerate()
            .map(|(i, &c)| format!("{} > {}", names[c], i))
            .collect();
        let fwd = preds.join(" and ");
        let rev = preds.iter().rev().cloned().collect::<Vec<_>>().join(" and ");
        let p1 = db.plan_only(&format!("select * from t where {fwd}")).unwrap();
        let p2 = db.plan_only(&format!("select * from t where {rev}")).unwrap();
        prop_assert_eq!(p1.canonical(), p2.canonical());
    }
}
