//! What the harness prints: the run header, each run's metrics by name with
//! units, the one-line result, and the repeat/compare verdicts.

use crate::{stats, Args};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

pub const WORKLOADS: [&str; 5] = [
    "point_read",
    "analytic_scatter",
    "write_mix",
    "tpcc_ms",
    "failover_rw",
];

/// End-to-end metrics, the same names on every workload. Failures are
/// carried by the result line's `attempted`/`failed` (a metric that reads 0
/// on a healthy run cannot carry a relative bound).
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n, u))
        .chain(crate::layers::PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str, attempted: u64, failed: u64) -> Self {
        Self {
            workload,
            attempted,
            failed,
            metrics: Vec::new(),
            notes: Vec::new(),
            problems: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} is not a finite number: {value}");
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, every value with all its digits.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit_of(n)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn print(&self) -> ExitCode {
        println!("== {} ==", self.workload);
        for n in &self.notes {
            println!("  {n}");
        }
        for p in &self.problems {
            println!("  MISMATCH {p}");
        }
        for (n, v) in &self.metrics {
            println!("  {n:<48} {v:>16.4} {}", unit_of(n));
        }
        println!("{}", self.result_line());
        if self.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    }
}

fn benchmark_json() -> Option<Value> {
    let text = std::fs::read_to_string("BENCHMARK.json").ok()?;
    serde_json::from_str(&text).ok()
}

/// `run_seconds` of the BENCHMARK.json in the working directory, so a bare
/// `perf` run measures what the recorded bounds were measured on.
pub fn default_seconds() -> u64 {
    benchmark_json()
        .and_then(|v| v.get("run_seconds").and_then(Value::as_u64))
        .unwrap_or(10)
}

/// `(bound, lower_is_better)` per end-to-end metric, from BENCHMARK.json.
fn bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let v = benchmark_json().ok_or("no readable BENCHMARK.json in the working directory")?;
    let list = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = BTreeMap::new();
    for m in list {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a name")?;
        let bound = m
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or("metric without a bound")?;
        let lower = m.get("better").and_then(Value::as_str) == Some("lower");
        out.insert(name.to_string(), (bound, lower));
    }
    Ok(out)
}

fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown (not a git checkout)".into()
    } else {
        hash.to_string()
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Everything needed to judge two result files comparable.
fn header_fields(args: &Args, workloads: &[&str]) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut f = vec![
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("smoke".to_string(), args.smoke.to_string()),
        ("nproc".to_string(), nproc.to_string()),
        ("commit".to_string(), commit()),
        ("rustc".to_string(), rustc_version()),
        (
            "pump".to_string(),
            format!(
                "pump_replication({}) after every {}th operation",
                crate::workload::PUMP_BUDGET,
                crate::workload::PUMP_EVERY
            ),
        ),
        (
            "cluster".to_string(),
            format!(
                "gtm_lite({}) replicas=1, one closed-loop client, one thread",
                crate::data::SHARDS
            ),
        ),
    ];
    for w in workloads {
        let (rows, ops) = crate::sizes_of(w, args);
        f.push((format!("{w}.rows"), rows.to_string()));
        f.push((format!("{w}.ops"), ops.to_string()));
    }
    f
}

pub fn print_header(args: &Args, workloads: &[&str]) {
    println!("# perf run header");
    for (k, v) in header_fields(args, workloads) {
        println!("#   {k}: {v}");
    }
}

struct ChildRun {
    ok: bool,
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

/// Run one workload in a process of its own and read back its result line.
fn child(
    args: &Args,
    workload: &str,
    seed: u64,
    trace: bool,
    echo: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    if echo {
        for l in text.lines().filter(|l| !l.starts_with('#') && *l != last) {
            println!("{l}");
        }
    }
    let v: Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "{workload} printed no result line ({e}); exit {:?}",
            out.status.code()
        )
    })?;
    let mut metrics = BTreeMap::new();
    if let Some(m) = v.get("metrics").and_then(Value::as_object) {
        for (k, x) in m.iter() {
            if let Some(f) = x.get("value").and_then(Value::as_f64) {
                metrics.insert(k.clone(), f);
            }
        }
    }
    Ok(ChildRun {
        ok: out.status.success() && v.get("correct").and_then(Value::as_bool) == Some(true),
        metrics,
        attempted: v.get("attempted").and_then(Value::as_u64).unwrap_or(0),
        failed: v.get("failed").and_then(Value::as_u64).unwrap_or(0),
    })
}

/// The one command: every workload, each in its own process, measured and
/// then traced, ending in one table of the end-to-end metrics.
pub fn run_matrix(args: &Args) -> ExitCode {
    print_header(args, &WORKLOADS);
    let mut all_ok = true;
    let mut rows = Vec::new();
    for w in WORKLOADS {
        for trace in [false, true] {
            match child(args, w, args.seed, trace, true) {
                Ok(run) => {
                    all_ok &= run.ok;
                    if !trace {
                        rows.push((w, run));
                    }
                }
                Err(e) => {
                    eprintln!("perf: {e}");
                    all_ok = false;
                }
            }
        }
    }
    println!("\n== end-to-end, seed {} ==", args.seed);
    print!("{:<18}", "workload");
    for (n, u) in END_TO_END {
        print!(" {:>24}", format!("{n} [{u}]"));
    }
    println!(" {:>22}", "failed_frac [ratio]");
    for (w, run) in &rows {
        print!("{w:<18}");
        for (n, _) in END_TO_END {
            print!(" {:>24.3}", run.metrics.get(n).copied().unwrap_or(f64::NAN));
        }
        println!(
            " {:>22}",
            format!(
                "{:.6} ({}/{})",
                run.failed as f64 / run.attempted.max(1) as f64,
                run.failed,
                run.attempted
            )
        );
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--repeat N`: N measured runs per workload on seeds `seed..seed+N`,
/// reported as median and quartiles and judged against the recorded bounds.
pub fn repeat(args: &Args, n: usize) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![WORKLOADS
            .iter()
            .copied()
            .find(|x| x == w)
            .expect("validated")],
        None => WORKLOADS.to_vec(),
    };
    print_header(args, &workloads);
    let mut all_ok = true;
    let mut file = serde_json::Map::new();
    let mut header = serde_json::Map::new();
    for (k, v) in header_fields(args, &workloads) {
        header.insert(k, Value::from(v));
    }
    header.insert("runs", Value::from(n as u64));
    file.insert("header", Value::Object(header));
    let mut results = serde_json::Map::new();
    for w in &workloads {
        let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..n {
            match child(args, w, args.seed + i as u64, false, false) {
                Ok(run) => {
                    all_ok &= run.ok;
                    for (k, v) in run.metrics {
                        series.entry(k).or_default().push(v);
                    }
                }
                Err(e) => {
                    eprintln!("perf: {e}");
                    all_ok = false;
                }
            }
        }
        println!(
            "\n== {w}: {n} runs, seeds {}..{} ==",
            args.seed,
            args.seed + n as u64 - 1
        );
        println!(
            "  {:<20} {:>14} {:>14} {:>14} {:>8} {:>8}  verdict",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        let mut per_metric = serde_json::Map::new();
        for (name, unit) in END_TO_END {
            let Some(v) = series.get(name).filter(|v| v.len() >= 2) else {
                println!("  {name:<20} no samples");
                all_ok = false;
                continue;
            };
            let (q1, q3) = stats::quartiles(v);
            let spread = stats::spread(v);
            let bound = bounds.get(name).map_or(f64::NAN, |b| b.0);
            // A metric noisier than its bound cannot resolve a change of
            // that size; set-up time is judged on medians only.
            let verdict = if name == "setup_s" || spread <= bound {
                "PASS"
            } else {
                all_ok = false;
                "UNRESOLVED (spread exceeds bound)"
            };
            println!(
                "  {:<20} {q1:>14.3} {:>14.3} {q3:>14.3} {:>7.2}% {:>7.2}%  {verdict}",
                format!("{name} [{unit}]"),
                stats::median(v),
                spread * 100.0,
                bound * 100.0
            );
            per_metric.insert(
                name,
                Value::from(v.iter().map(|&x| Value::from(x)).collect::<Vec<_>>()),
            );
        }
        results.insert(*w, Value::Object(per_metric));
    }
    file.insert("results", Value::Object(results));
    if let Some(path) = &args.out {
        let text = serde_json::to_string(&Value::Object(file)).expect("result file renders");
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("perf: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("\nresult file written to {path}");
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn load_results(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn series_of(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    file.get("results")
        .and_then(|r| r.get(workload))
        .and_then(|w| w.get(metric))
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// The verdict for one metric × workload: B against A under `bound`. A
/// metric noisier than its bound is unresolved, not unchanged — except
/// set-up time, which is judged on medians whatever its spread.
pub fn judge(
    a: &[f64],
    b: &[f64],
    bound: f64,
    lower_is_better: bool,
    spread_matters: bool,
) -> &'static str {
    if a.len() < 2 || b.len() < 2 {
        return "NO DATA";
    }
    if spread_matters && (stats::spread(a) > bound || stats::spread(b) > bound) {
        return "UNRESOLVED";
    }
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = if lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    if worse_by > bound {
        "FAIL"
    } else {
        "PASS"
    }
}

/// `perf compare A.json B.json`: B judged against A, metric × workload.
pub fn compare(paths: &[String]) -> ExitCode {
    let [a_path, b_path] = paths else {
        eprintln!("usage: perf compare <A.json> <B.json>");
        return ExitCode::from(2);
    };
    let loaded = bounds().and_then(|bo| Ok((bo, load_results(a_path)?, load_results(b_path)?)));
    let (bounds, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    for (label, f) in [("A", &a), ("B", &b)] {
        println!("# {label}: {}", if label == "A" { a_path } else { b_path });
        if let Some(h) = f.get("header").and_then(Value::as_object) {
            for (k, v) in h.iter() {
                println!(
                    "#   {k}: {}",
                    v.as_str().map_or_else(|| v.to_string(), str::to_string)
                );
            }
        }
    }
    let mut all_pass = true;
    let in_file = |f: &Value, w: &str| f.get("results").and_then(|r| r.get(w)).is_some();
    for w in WORKLOADS {
        if !in_file(&a, w) && !in_file(&b, w) {
            continue;
        }
        println!("\n== {w} ==");
        println!(
            "  {:<20} {:>14} {:>14} {:>9} {:>8}  verdict",
            "metric", "A median", "B median", "change", "bound"
        );
        for (name, unit) in END_TO_END {
            let (sa, sb) = (series_of(&a, w, name), series_of(&b, w, name));
            let (bound, lower) = bounds.get(name).copied().unwrap_or((f64::NAN, true));
            let verdict = judge(&sa, &sb, bound, lower, name != "setup_s");
            all_pass &= verdict == "PASS";
            let (ma, mb) = match (sa.is_empty(), sb.is_empty()) {
                (false, false) => (stats::median(&sa), stats::median(&sb)),
                _ => (f64::NAN, f64::NAN),
            };
            println!(
                "  {:<20} {ma:>14.3} {mb:>14.3} {:>+8.2}% {:>7.2}%  {verdict}",
                format!("{name} [{unit}]"),
                (mb / ma - 1.0) * 100.0,
                bound * 100.0
            );
        }
    }
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 100.5, 99.5, 100.0];
        let faster = [90.0, 91.0, 90.5, 89.5, 90.0];
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        // latency: lower is better
        assert_eq!(judge(&steady, &faster, 0.05, true, true), "PASS");
        assert_eq!(judge(&faster, &steady, 0.05, true, true), "FAIL");
        // throughput: higher is better
        assert_eq!(judge(&steady, &faster, 0.05, false, true), "FAIL");
        // a spread wider than the bound resolves nothing
        assert_eq!(judge(&steady, &noisy, 0.05, true, true), "UNRESOLVED");
        assert_eq!(judge(&steady, &noisy, 0.05, true, false), "PASS");
        assert_eq!(judge(&steady, &[1.0], 0.05, true, true), "NO DATA");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::new("point_read", 10, 0);
        o.metric("setup_s", 0.8127);
        let v: Value = serde_json::from_str(&o.result_line()).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(0.8127));
    }

    /// BENCHMARK.json and the harness must name the same metrics, units and
    /// workloads.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the repo root");
        let v: Value = serde_json::from_str(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            v[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m.get("unit")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = crate::layers::PER_LAYER
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        let w: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(w, WORKLOADS);
    }
}
