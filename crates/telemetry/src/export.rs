//! Exporters: JSONL dumps, a console span tree, and JSONL re-import.
//!
//! The JSONL format is one object per line with a `type` discriminator
//! (`span`, `counter`, `gauge`, `histogram`). Field order is hand-rendered
//! and therefore **stable** — the golden-file test pins it — so two runs of
//! one simulation seed produce byte-identical files.

use crate::metrics::MetricsSnapshot;
use crate::span::{SpanEvent, SpanRecord};
use std::fmt::Write as _;

/// Escape a string for a JSON string literal.
pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn write_fields(out: &mut String, fields: &[(String, String)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", esc(k), esc(v));
    }
    out.push('}');
}

fn write_event(out: &mut String, e: &SpanEvent) {
    let _ = write!(
        out,
        "{{\"at_us\":{},\"name\":\"{}\",\"fields\":",
        e.at_us,
        esc(&e.name)
    );
    write_fields(out, &e.fields);
    out.push('}');
}

/// One span as a single JSONL line (no trailing newline).
pub fn span_to_json(s: &SpanRecord) -> String {
    let mut out = String::with_capacity(128);
    let _ = write!(
        out,
        "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"fields\":",
        s.id,
        s.parent,
        esc(&s.name),
        s.start_us,
        s.end_us
    );
    write_fields(&mut out, &s.fields);
    out.push_str(",\"events\":[");
    for (i, e) in s.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_event(&mut out, e);
    }
    out.push_str("]}");
    out
}

/// All spans, one line each.
pub fn spans_to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&span_to_json(s));
        out.push('\n');
    }
    out
}

/// A metrics snapshot as JSONL: counters, then gauges, then histograms,
/// each in key order.
pub fn metrics_to_jsonl(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (k, v) in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"key\":\"{}\",\"value\":{v}}}",
            esc(k)
        );
    }
    for (k, v) in &snap.gauges {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"key\":\"{}\",\"value\":{v}}}",
            esc(k)
        );
    }
    for (k, h) in &snap.histograms {
        let _ = writeln!(
            out,
            "{{\"type\":\"histogram\",\"key\":\"{}\",\"count\":{},\"mean_us\":{:.3},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{}}}",
            esc(k),
            h.count,
            h.mean_us,
            h.p50_us,
            h.p95_us,
            h.p99_us,
            h.max_us
        );
    }
    out
}

/// Render a metrics snapshot for humans: counters, gauges, then histograms
/// with their percentile summary (`p50/p95/p99/max`), one series per line in
/// key order.
pub fn metrics_console(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (k, v) in &snap.counters {
        let _ = writeln!(out, "counter   {k} = {v}");
    }
    for (k, v) in &snap.gauges {
        let _ = writeln!(out, "gauge     {k} = {v}");
    }
    for (k, h) in &snap.histograms {
        let _ = writeln!(
            out,
            "histogram {k}: n={} mean={:.1}us p50={}us p95={}us p99={}us max={}us",
            h.count, h.mean_us, h.p50_us, h.p95_us, h.p99_us, h.max_us
        );
    }
    out
}

/// Parse the spans back out of a JSONL dump (lines of other types are
/// skipped). The inverse of [`spans_to_jsonl`] up to field order: JSON
/// objects parse into key-sorted maps, so each span's `fields` come back
/// sorted by key rather than in insertion order. The txn-timeline tooling
/// uses this to decompose latency from a file rather than a live tracer.
pub fn spans_from_jsonl(text: &str) -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = serde_json::from_str(line) else {
            continue;
        };
        if v["type"].as_str() != Some("span") {
            continue;
        }
        let fields = |val: &serde_json::Value| -> Vec<(String, String)> {
            val.as_object()
                .map(|m| {
                    m.iter()
                        .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                        .collect()
                })
                .unwrap_or_default()
        };
        let events = v["events"]
            .as_array()
            .map(|evs| {
                evs.iter()
                    .map(|e| SpanEvent {
                        at_us: e["at_us"].as_u64().unwrap_or(0),
                        name: e["name"].as_str().unwrap_or("").to_string(),
                        fields: fields(&e["fields"]),
                    })
                    .collect()
            })
            .unwrap_or_default();
        out.push(SpanRecord {
            id: v["id"].as_u64().unwrap_or(0),
            parent: v["parent"].as_u64().unwrap_or(0),
            name: v["name"].as_str().unwrap_or("").to_string(),
            start_us: v["start_us"].as_u64().unwrap_or(0),
            end_us: v["end_us"].as_u64().unwrap_or(0),
            fields: fields(&v["fields"]),
            events,
        });
    }
    out
}

/// Render spans as an indented tree (roots in start order), for humans.
pub fn console_tree(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent == 0).collect();
    for root in roots {
        render_node(&mut out, spans, root, 0);
    }
    out
}

fn render_node(out: &mut String, spans: &[SpanRecord], node: &SpanRecord, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    let _ = write!(
        out,
        "{} [{}..{}us, {}us]",
        node.name,
        node.start_us,
        node.end_us,
        node.duration_us()
    );
    if !node.fields.is_empty() {
        let rendered: Vec<String> = node
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let _ = write!(out, " {{{}}}", rendered.join(", "));
    }
    out.push('\n');
    for e in &node.events {
        for _ in 0..depth + 1 {
            out.push_str("  ");
        }
        let _ = writeln!(out, "! {} @{}us", e.name, e.at_us);
    }
    for child in spans.iter().filter(|s| s.parent == node.id) {
        render_node(out, spans, child, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    fn sample() -> Vec<SpanRecord> {
        let (tr, clock) = Tracer::with_virtual_clock();
        let root = tr.begin("txn");
        tr.field(root, "path", "distributed");
        clock.set(5);
        let child = tr.begin_child(root, "leg.prepare");
        clock.set(12);
        tr.event(child, "retry", &[("attempt", "1")]);
        clock.set(20);
        tr.end(child);
        clock.set(30);
        tr.end(root);
        tr.finished()
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let spans = sample();
        let text = spans_to_jsonl(&spans);
        let parsed = spans_from_jsonl(&text);
        assert_eq!(spans, parsed);
    }

    #[test]
    fn strings_are_escaped() {
        let (tr, _clock) = Tracer::with_virtual_clock();
        let s = tr.begin("weird\"name");
        tr.field(s, "k", "line\nbreak\\and\ttab");
        tr.end(s);
        let text = spans_to_jsonl(&tr.finished());
        let parsed = spans_from_jsonl(&text);
        assert_eq!(parsed[0].name, "weird\"name");
        assert_eq!(parsed[0].field("k"), Some("line\nbreak\\and\ttab"));
    }

    #[test]
    fn console_tree_nests_children() {
        let text = console_tree(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("txn ["));
        assert!(lines[1].starts_with("  leg.prepare ["));
        assert!(lines[2].contains("! retry @12us"));
    }

    #[test]
    fn metrics_console_shows_percentile_summary() {
        let reg = crate::MetricsRegistry::new();
        reg.counter("txn.commit", &[("path", "single")]).add(2);
        reg.gauge("inflight", &[]).set(3);
        let h = reg.histogram("lat", &[]);
        for v in 1..=100u64 {
            h.record(v);
        }
        let text = metrics_console(&reg.snapshot());
        assert!(text.contains("counter   txn.commit{path=single} = 2"));
        assert!(text.contains("gauge     inflight = 3"));
        let hist_line = text
            .lines()
            .find(|l| l.starts_with("histogram lat"))
            .unwrap();
        for needle in ["n=100", "p50=", "p95=", "p99=", "max=100us"] {
            assert!(
                hist_line.contains(needle),
                "missing {needle} in {hist_line}"
            );
        }
    }

    #[test]
    fn metric_lines_are_valid_json() {
        let reg = crate::MetricsRegistry::new();
        reg.counter("c", &[("a", "b")]).inc();
        reg.gauge("g", &[]).set(-2);
        reg.histogram("h", &[]).record(10);
        let text = metrics_to_jsonl(&reg.snapshot());
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v["type"].as_str().is_some());
        }
    }
}
