//! Golden-file pin of the flight-recorder JSONL schema.
//!
//! The recorder hand-renders its statement profiles with a fixed field
//! order so that one simulation seed produces one byte sequence, forever.
//! This test builds a small scripted recorder — a local point lookup, a
//! distributed scatter aggregate with a per-shard Exchange breakdown, and a
//! slow statement over the threshold — and compares the dump byte-for-byte
//! against the committed golden file. If you change the schema on purpose,
//! regenerate the file:
//!
//! ```sh
//! cargo test -p hdm-telemetry --test golden_recorder -- --ignored regenerate
//! ```
//! then copy `/tmp/hdm_golden_recorder.jsonl` over
//! `tests/golden/recorder.jsonl`.

use hdm_telemetry::{FlightRecorder, OpProfile, RecorderConfig, ShardLeg, StatementProfile};

const GOLDEN: &str = include_str!("golden/recorder.jsonl");

fn leaf(
    label: &str,
    kind: &str,
    canonical: Option<&str>,
    est: f64,
    rows: u64,
    us: u64,
) -> OpProfile {
    OpProfile {
        label: label.to_string(),
        kind: kind.to_string(),
        canonical: canonical.map(str::to_string),
        est_rows: est,
        rows_out: rows,
        loops: 1,
        time_us: us,
        shards: vec![],
        children: vec![],
    }
}

/// A fixed scripted recorder covering every schema feature: null root,
/// nested children, per-shard Exchange legs, escapes, and the slow flag.
fn scripted_recorder() -> FlightRecorder {
    let mut rec = FlightRecorder::new(RecorderConfig {
        capacity: 8,
        slow_threshold_us: 500,
    });

    rec.record(StatementProfile {
        sql: "select cust from orders where cust = 7".to_string(),
        scope: "single".to_string(),
        start_us: 10,
        plan_us: 4,
        exec_us: 9,
        total_us: 13,
        rows_out: 1,
        gtm_interactions: 0,
        twopc_legs: 0,
        root: Some(leaf(
            "Exchange Scan on orders (filter: cust = 7)",
            "scan",
            Some("EXCHANGE(SCAN(ORDERS), SHARDS(1))"),
            3.0,
            1,
            9,
        )),
    });

    let exchange = OpProfile {
        label: "Exchange Scan on orders".to_string(),
        kind: "scan".to_string(),
        canonical: Some("EXCHANGE(SCAN(ORDERS), SHARDS(4))".to_string()),
        est_rows: 400.0,
        rows_out: 96,
        loops: 4,
        time_us: 410,
        shards: vec![
            ShardLeg {
                shard: 0,
                rows: 25,
                time_us: 100,
            },
            ShardLeg {
                shard: 1,
                rows: 23,
                time_us: 105,
            },
            ShardLeg {
                shard: 2,
                rows: 26,
                time_us: 102,
            },
            ShardLeg {
                shard: 3,
                rows: 22,
                time_us: 103,
            },
        ],
        children: vec![],
    };
    let agg = OpProfile {
        label: "HashAggregate (groups: 1)".to_string(),
        kind: "agg".to_string(),
        canonical: Some("AGG(EXCHANGE(SCAN(ORDERS), SHARDS(4)))".to_string()),
        est_rows: 4.0,
        rows_out: 4,
        loops: 1,
        time_us: 540,
        shards: vec![],
        children: vec![exchange],
    };
    rec.record(StatementProfile {
        sql: "select region, sum(amount) from orders group by region".to_string(),
        scope: "multi".to_string(),
        start_us: 40,
        plan_us: 12,
        exec_us: 540,
        total_us: 552,
        rows_out: 4,
        gtm_interactions: 2,
        twopc_legs: 4,
        root: Some(agg),
    });

    rec.record(StatementProfile {
        sql: "insert into t values (1, 'a\"b')".to_string(),
        scope: "local".to_string(),
        start_us: 700,
        plan_us: 2,
        exec_us: 3,
        total_us: 5,
        rows_out: 0,
        gtm_interactions: 0,
        twopc_legs: 0,
        root: None,
    });

    rec
}

#[test]
fn dump_matches_the_committed_golden_file() {
    let got = scripted_recorder().to_jsonl();
    assert!(
        got == GOLDEN,
        "flight-recorder JSONL drifted from tests/golden/recorder.jsonl.\n\
         If the schema change is intentional, regenerate the golden file \
         (see the module docs).\n--- got ---\n{got}\n--- want ---\n{GOLDEN}"
    );
}

#[test]
fn every_golden_line_is_a_stmt_object() {
    assert_eq!(GOLDEN.lines().count(), 3);
    for line in GOLDEN.lines() {
        let v: serde_json::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        assert_eq!(v["type"].as_str(), Some("stmt"));
        for field in [
            "seq",
            "scope",
            "sql",
            "start_us",
            "plan_us",
            "exec_us",
            "total_us",
            "rows_out",
            "gtm",
            "twopc_legs",
            "slow",
            "root",
        ] {
            assert!(
                !v[field].is_null() || field == "root",
                "missing {field}: {line}"
            );
        }
    }
}

#[test]
fn golden_covers_shard_legs_and_the_slow_flag() {
    let lines: Vec<serde_json::Value> = GOLDEN
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(lines[0]["slow"].as_bool(), Some(false));
    assert_eq!(
        lines[1]["slow"].as_bool(),
        Some(true),
        "552us >= 500us threshold"
    );
    let shards = lines[1]["root"]["children"][0]["shards"]
        .as_array()
        .unwrap();
    assert_eq!(shards.len(), 4);
    assert_eq!(shards[1]["rows"].as_u64(), Some(23));
    assert!(lines[2]["root"].is_null());
}

/// Not a test: writes the current dump to /tmp for manual regeneration.
#[test]
#[ignore]
fn regenerate() {
    std::fs::write(
        "/tmp/hdm_golden_recorder.jsonl",
        scripted_recorder().to_jsonl(),
    )
    .unwrap();
}
