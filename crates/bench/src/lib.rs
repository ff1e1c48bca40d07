//! # hdm-bench
//!
//! Harness binaries and criterion benches regenerating the paper's
//! evaluation artifacts. One binary per table/figure:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig3_gtm_lite_scalability` | Fig 3: GTM-lite vs baseline throughput over 1/2/4/8 nodes, SS and MS workloads (plus `--sweep-ms-fraction` ablation and `--demo-anomalies`) |
//! | `table1_canonical_form` | Table I: captured step definitions with estimated vs actual cardinalities, Fig 6's plan, and the `--sweep-threshold` ablation (its only flag; engine performance numbers come from `perf/`) |
//! | `fig8_mme_matrix` | Fig 8: the MME schema upgrade/downgrade support matrix |
//! | `fig11_schema_evolution` | Fig 11: GMDB read/write throughput under schema conversion, and delta-vs-whole sync bandwidth |
//!
//! Criterion benches cover the ablations DESIGN.md lists: `gtm_lite`
//! (MergeSnapshot overhead, protocol sweeps), `learnopt` (MD5 keys vs full
//! text, differential thresholds), `schema_evolution` (conversion chains,
//! delta computation), `storage` (row vs column, codecs), `edgesync`
//! (anti-entropy sessions).

/// Tiny flag parser shared by the harness binaries: `--name value` pairs.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Is a bare flag present?
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Render an aligned text table (first row = header).
pub fn render_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for r in rows {
        for (i, cell) in r.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (ri, r) in rows.iter().enumerate() {
        for (i, cell) in r.iter().enumerate() {
            out.push_str(&format!("{:<w$}", cell, w = widths[i] + 2));
        }
        out.push('\n');
        if ri == 0 {
            for (i, w) in widths.iter().enumerate() {
                out.push_str(&"-".repeat(*w));
                if i < cols - 1 {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(&[
            vec!["a".into(), "long-header".into()],
            vec!["xxxx".into(), "1".into()],
        ]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn empty_table_is_empty() {
        assert!(render_table(&[]).is_empty());
    }
}
