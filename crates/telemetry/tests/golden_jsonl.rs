//! Golden-file pin of the JSONL export format.
//!
//! The exporters hand-render JSON with a fixed field order precisely so
//! that one seed produces one byte sequence, forever. This test replays a
//! small scripted trace on the virtual clock and compares the export
//! byte-for-byte against the committed golden file. If you change the
//! format on purpose, regenerate the file:
//!
//! ```sh
//! cargo test -p hdm-telemetry --test golden_jsonl -- --ignored regenerate
//! ```
//! then copy `/tmp/hdm_golden_trace.jsonl` over `tests/golden/trace.jsonl`.

use hdm_telemetry::{export, Telemetry};

const GOLDEN: &str = include_str!("golden/trace.jsonl");

/// A fixed scripted workload: one distributed transaction with a retried
/// prepare leg, one single-shard transaction, and a few metrics.
fn scripted_trace() -> Telemetry {
    let tel = Telemetry::simulated();

    tel.set_time_us(10);
    let multi = tel.tracer.begin("txn");
    tel.tracer.field(multi, "path", "distributed");
    tel.tracer.field(multi, "gxid", 7u64);
    let parse = tel.tracer.begin_child(multi, "cn.parse");
    tel.set_time_us(18);
    tel.tracer.end(parse);
    let prepare = tel.tracer.begin_child(multi, "leg.prepare");
    tel.set_time_us(40);
    tel.tracer.event(prepare, "retry", &[("attempt", "0")]);
    tel.set_time_us(95);
    tel.tracer.end(prepare);
    tel.tracer.end(multi);

    tel.set_time_us(100);
    let single = tel.tracer.begin("txn");
    tel.tracer.field(single, "path", "single");
    tel.set_time_us(160);
    tel.tracer.end(single);

    tel.set_time_us(200);
    tel.tracer
        .instant("crash", &[("target", "dn"), ("shard", "1")]);

    tel.metrics
        .counter("txn.begin", &[("path", "distributed")])
        .inc();
    tel.metrics
        .counter("txn.begin", &[("path", "single")])
        .inc();
    tel.metrics.counter("cn.backoff", &[]).add(2);
    tel.metrics.gauge("gtm.active_txns", &[]).set(1);
    let lat = tel.metrics.histogram("txn.latency", &[("path", "single")]);
    lat.record(60);
    lat.record(85);
    tel
}

#[test]
fn export_matches_the_committed_golden_file() {
    let tel = scripted_trace();
    let got = tel.export_jsonl();
    assert!(
        got == GOLDEN,
        "JSONL export drifted from tests/golden/trace.jsonl.\n\
         If the format change is intentional, regenerate the golden file \
         (see the module docs).\n--- got ---\n{got}\n--- want ---\n{GOLDEN}"
    );
}

#[test]
fn golden_file_parses_back_to_the_original_spans() {
    let tel = scripted_trace();
    let parsed = export::spans_from_jsonl(GOLDEN);
    // The parser returns fields key-sorted (JSON maps don't preserve
    // insertion order); normalize the live spans the same way.
    let mut want = tel.tracer.finished();
    for s in &mut want {
        s.fields.sort();
        for e in &mut s.events {
            e.fields.sort();
        }
    }
    assert_eq!(parsed, want);
    // Non-span lines exist (counters/gauge/histogram) and are skipped.
    assert!(GOLDEN.lines().count() > parsed.len());
}

#[test]
fn every_golden_line_is_valid_json() {
    for line in GOLDEN.lines() {
        let v: serde_json::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        assert!(v["type"].as_str().is_some(), "line missing type: {line}");
    }
}

/// Not a test: writes the current export to /tmp for manual regeneration.
#[test]
#[ignore]
fn regenerate() {
    let tel = scripted_trace();
    std::fs::write("/tmp/hdm_golden_trace.jsonl", tel.export_jsonl()).unwrap();
}
