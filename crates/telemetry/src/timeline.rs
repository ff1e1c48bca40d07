//! Per-transaction timeline reports.
//!
//! Decomposes traced transactions into their named child segments — for the
//! cluster harness: `cn.parse`, `gtm.begin`, `leg.exec`, `leg.prepare`,
//! `gtm.decide`, `leg.finish` — grouped by the root span's `path` label
//! (`single` vs `distributed`). The **coverage** ratio (child time over
//! root time) says how much of end-to-end commit latency the segments
//! explain; the instrumentation keeps segments contiguous, so coverage
//! should sit at ~100%.

use crate::span::SpanRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregated decomposition for one `path` label.
#[derive(Debug, Clone, PartialEq)]
pub struct PathTimeline {
    /// Number of root transactions aggregated.
    pub txns: u64,
    /// Mean root (end-to-end) duration in µs.
    pub mean_total_us: f64,
    /// `(segment name, mean µs per txn)` in first-seen trace order.
    pub segments: Vec<(String, f64)>,
    /// Sum of segment time over sum of root time, in `[0, 1]`-ish
    /// (can exceed 1 if segments overlap).
    pub coverage: f64,
    /// Point-event counts by name (e.g. retries) across these txns.
    pub events: BTreeMap<String, u64>,
}

/// A full report: one [`PathTimeline`] per `path` label value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimelineReport {
    pub paths: BTreeMap<String, PathTimeline>,
}

/// Build a timeline report from a span dump.
///
/// Roots are spans named `root_name` with `parent == 0`; they are grouped
/// by their `path` field (roots without one land under `"unlabeled"`).
/// Direct children contribute their durations to the segment means.
pub fn decompose(spans: &[SpanRecord], root_name: &str) -> TimelineReport {
    struct Acc {
        txns: u64,
        total_us: u64,
        seg_order: Vec<String>,
        seg_us: BTreeMap<String, u64>,
        events: BTreeMap<String, u64>,
    }
    let mut by_path: BTreeMap<String, Acc> = BTreeMap::new();

    for root in spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == root_name)
    {
        let path = root.field("path").unwrap_or("unlabeled").to_string();
        let acc = by_path.entry(path).or_insert_with(|| Acc {
            txns: 0,
            total_us: 0,
            seg_order: Vec::new(),
            seg_us: BTreeMap::new(),
            events: BTreeMap::new(),
        });
        acc.txns += 1;
        acc.total_us += root.duration_us();
        for e in &root.events {
            *acc.events.entry(e.name.clone()).or_insert(0) += 1;
        }
        for child in spans.iter().filter(|s| s.parent == root.id) {
            if !acc.seg_us.contains_key(&child.name) {
                acc.seg_order.push(child.name.clone());
            }
            *acc.seg_us.entry(child.name.clone()).or_insert(0) += child.duration_us();
            for e in &child.events {
                *acc.events.entry(e.name.clone()).or_insert(0) += 1;
            }
        }
    }

    TimelineReport {
        paths: by_path
            .into_iter()
            .map(|(path, acc)| {
                let n = acc.txns as f64;
                let seg_sum: u64 = acc.seg_us.values().sum();
                let coverage = if acc.total_us == 0 {
                    0.0
                } else {
                    seg_sum as f64 / acc.total_us as f64
                };
                let segments = acc
                    .seg_order
                    .into_iter()
                    .map(|name| {
                        let us = acc.seg_us[&name];
                        (name, us as f64 / n)
                    })
                    .collect();
                (
                    path,
                    PathTimeline {
                        txns: acc.txns,
                        mean_total_us: acc.total_us as f64 / n,
                        segments,
                        coverage,
                        events: acc.events,
                    },
                )
            })
            .collect(),
    }
}

/// Render a report as an aligned text table.
pub fn render(report: &TimelineReport) -> String {
    let mut out = String::new();
    for (path, t) in &report.paths {
        let _ = writeln!(
            out,
            "path={path}: {} txns, mean total {:.1}us, coverage {:.1}%",
            t.txns,
            t.mean_total_us,
            t.coverage * 100.0
        );
        for (name, mean_us) in &t.segments {
            let share = if t.mean_total_us > 0.0 {
                mean_us / t.mean_total_us * 100.0
            } else {
                0.0
            };
            let _ = writeln!(out, "  {name:<14} {mean_us:>10.1}us  {share:>5.1}%");
        }
        if !t.events.is_empty() {
            let rendered: Vec<String> = t.events.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(out, "  events: {}", rendered.join(", "));
        }
    }
    out
}

/// Render the console tree of the single transaction tagged `gxid=<gxid>`,
/// if traced.
pub fn render_gxid(spans: &[SpanRecord], gxid: u64) -> Option<String> {
    let want = gxid.to_string();
    let root = spans
        .iter()
        .find(|s| s.parent == 0 && s.field("gxid") == Some(want.as_str()))?;
    let mut subtree: Vec<SpanRecord> = vec![root.clone()];
    // Spans are sorted by start time; one pass per level is enough for the
    // shallow trees the harnesses produce.
    let mut frontier = vec![root.id];
    while !frontier.is_empty() {
        let next: Vec<SpanRecord> = spans
            .iter()
            .filter(|s| frontier.contains(&s.parent))
            .cloned()
            .collect();
        frontier = next.iter().map(|s| s.id).collect();
        subtree.extend(next);
    }
    // Re-parent the root to 0 view: it already is a root, so just render.
    subtree.sort_by_key(|s| (s.start_us, s.id));
    Some(crate::export::console_tree(&subtree))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    /// Two txns on `path=distributed` with contiguous segments and one on
    /// `path=single`.
    fn trace() -> Vec<SpanRecord> {
        let (tr, clock) = Tracer::with_virtual_clock();
        for (i, base) in [(0u64, 0u64), (1, 1_000)] {
            clock.set(base);
            let root = tr.begin("txn");
            tr.field(root, "path", "distributed");
            tr.field(root, "gxid", i + 10);
            let parse = tr.begin_child(root, "cn.parse");
            clock.set(base + 10);
            tr.end(parse);
            let prep = tr.begin_child(root, "leg.prepare");
            clock.set(base + 60);
            tr.event(prep, "retry", &[]);
            tr.end(prep);
            let fin = tr.begin_child(root, "leg.finish");
            clock.set(base + 100);
            tr.end(fin);
            tr.end(root);
        }
        clock.set(5_000);
        let root = tr.begin("txn");
        tr.field(root, "path", "single");
        tr.field(root, "gxid", 99);
        let ex = tr.begin_child(root, "dn.exec");
        clock.set(5_040);
        tr.end(ex);
        tr.end(root);
        tr.finished()
    }

    #[test]
    fn decomposes_by_path_with_full_coverage() {
        let report = decompose(&trace(), "txn");
        assert_eq!(report.paths.len(), 2);
        let d = &report.paths["distributed"];
        assert_eq!(d.txns, 2);
        assert!((d.mean_total_us - 100.0).abs() < 1e-9);
        assert_eq!(
            d.segments,
            vec![
                ("cn.parse".to_string(), 10.0),
                ("leg.prepare".to_string(), 50.0),
                ("leg.finish".to_string(), 40.0),
            ]
        );
        assert!((d.coverage - 1.0).abs() < 1e-9, "coverage={}", d.coverage);
        assert_eq!(d.events["retry"], 2);

        let s = &report.paths["single"];
        assert_eq!(s.txns, 1);
        assert_eq!(s.segments, vec![("dn.exec".to_string(), 40.0)]);
    }

    #[test]
    fn render_mentions_paths_and_coverage() {
        let text = render(&decompose(&trace(), "txn"));
        assert!(text.contains("path=distributed"));
        assert!(text.contains("path=single"));
        assert!(text.contains("coverage 100.0%"));
        assert!(text.contains("leg.prepare"));
    }

    #[test]
    fn gxid_lookup_renders_one_txn_tree() {
        let spans = trace();
        let tree = render_gxid(&spans, 11).expect("gxid 11 traced");
        assert!(tree.contains("gxid=11"));
        assert!(tree.contains("leg.prepare"));
        assert!(!tree.contains("gxid=10"), "other txns excluded");
        assert!(render_gxid(&spans, 7777).is_none());
    }
}
