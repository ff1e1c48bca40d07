//! `perf`: the repository's benchmark. See README.md beside this crate.

mod alloc;
mod data;
mod layers;
mod report;
mod stats;
mod trace;
mod w_analytic;
mod w_failover;
mod w_point;
mod w_tpcc;
mod w_write;
mod workload;

use report::{Outcome, WORKLOADS};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Generator, Workload, CHUNKS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per measured run; `setup_s` is their median and the timed phase
/// runs on the first.
const SETUPS: usize = 3;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub spans: Option<String>,
    pub repeat: Option<usize>,
    pub out: Option<String>,
}

const USAGE: &str = "usage:
  perf --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--spans FILE] [--smoke]
  perf [--seed <u64>] [--seconds <n>] [--smoke]      every workload, measured then traced
  perf --repeat <n> [--seed <u64>] [--seconds <n>] [--out FILE]
  perf compare <A.json> <B.json>
workloads: point_read analytic_scatter write_mix tpcc_ms failover_rw";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: report::default_seconds(),
        trace: false,
        smoke: false,
        spans: None,
        repeat: None,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--spans" => a.spans = Some(value()?),
            "--out" => a.out = Some(value()?),
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs for quartiles".into());
                }
                a.repeat = Some(n);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.spans.is_some() && !(a.trace && a.workload.is_some()) {
        return Err("--spans goes with --workload and --trace 1".into());
    }
    Ok(a)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_measured<W: Workload>(args: &Args) -> Outcome
where
    W::Op: Clone,
{
    let sizes = workload::sizes_for::<W>(args.seconds, args.smoke);
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let t = Instant::now();
        let w = W::setup(args.seed, sizes);
        setup_s.push(t.elapsed().as_secs_f64());
        w
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut w = timed_setup(&mut setup_s);
    let mut gen = W::Gen::new(args.seed, sizes);
    let mut timed = workload::drive_measured(&mut w, &mut gen, sizes, CHUNKS);
    let peak = peak_rss_mb();
    let problems = w.finish(&gen);
    // The other set-ups come after the timed phase, each once the previous
    // database is released: peak memory is then that of one deployment, not
    // of whatever earlier set-ups left fragmented.
    drop(w);
    while setup_s.len() < SETUPS {
        drop(timed_setup(&mut setup_s));
    }

    let n = timed.lat_ns.len();
    let p50 = stats::percentile(&mut timed.lat_ns, 0.50) as f64 / 1e3;
    let p99 = stats::percentile(&mut timed.lat_ns, 0.99) as f64 / 1e3;
    let beyond = timed
        .lat_ns
        .iter()
        .filter(|&&x| x as f64 / 1e3 > p99)
        .count();
    let timed_s = timed.chunk_ns.iter().sum::<u64>() as f64 / 1e9;
    let failed = timed.failed + problems.len() as u64;
    let mut out = Outcome::new(W::NAME, n as u64, failed);
    out.metric(
        "throughput_ops_s",
        stats::chunk_throughput(sizes.ops / CHUNKS, &timed.chunk_ns),
    );
    out.metric("latency_p50_us", p50);
    out.metric("latency_p99_us", p99);
    out.metric("setup_s", stats::median(&setup_s));
    out.metric("peak_rss_mb", peak);
    out.note(format!(
        "rows {} ops {} timed {timed_s:.2}s latency samples {n} ({beyond} beyond p99) \
         stream {:016x} gen {:.3}us/op",
        sizes.rows,
        sizes.ops,
        timed.hash.0,
        timed.gen_ns as f64 / 1e3 / n as f64
    ));
    out.note(format!(
        "failed_frac {:.6} ({failed} of {n})",
        failed as f64 / n as f64
    ));
    out.problems = problems;
    out
}

fn run_one<W: Workload>(args: &Args) -> Outcome
where
    W::Op: Clone,
{
    if args.trace {
        layers::run_traced::<W>(args)
    } else {
        run_measured::<W>(args)
    }
}

/// Call a function generic over the workload type for the workload `$name`.
macro_rules! for_workload {
    ($name:expr, $f:ident($($arg:expr),*)) => {
        match $name {
            "point_read" => $f::<w_point::PointRead>($($arg),*),
            "analytic_scatter" => $f::<w_analytic::AnalyticScatter>($($arg),*),
            "write_mix" => $f::<w_write::WriteMix>($($arg),*),
            "tpcc_ms" => $f::<w_tpcc::TpccMs>($($arg),*),
            "failover_rw" => $f::<w_failover::FailoverRw>($($arg),*),
            other => unreachable!("workload {other} passed validation"),
        }
    };
}

/// `(rows, ops)` of a workload under `args`, for the run header.
pub fn sizes_of(workload: &str, args: &Args) -> (i64, usize) {
    fn of<W: Workload>(args: &Args) -> (i64, usize) {
        let s = workload::sizes_for::<W>(args.seconds, args.smoke);
        (s.rows, s.ops)
    }
    for_workload!(workload, of(args))
}

/// Why this build must not be measured, if it must not.
fn debug_refusal() -> Option<&'static str> {
    cfg!(debug_assertions)
        .then_some("refusing to measure a build with debug assertions: run with --release")
}

fn main() -> ExitCode {
    if let Some(why) = debug_refusal() {
        eprintln!("perf: {why}");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return report::compare(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return report::repeat(&args, n);
    }
    let Some(name) = args.workload.clone() else {
        return report::run_matrix(&args);
    };
    report::print_header(&args, &[name.as_str()]);
    for_workload!(name.as_str(), run_one(&args)).print()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{sizes_for, stream_hash};

    fn hashes(seed: u64) -> Vec<u64> {
        vec![
            stream_hash::<w_point::PointRead>(seed, sizes_for::<w_point::PointRead>(1, true)).0,
            stream_hash::<w_analytic::AnalyticScatter>(
                seed,
                sizes_for::<w_analytic::AnalyticScatter>(1, true),
            )
            .0,
            stream_hash::<w_write::WriteMix>(seed, sizes_for::<w_write::WriteMix>(1, true)).0,
            stream_hash::<w_tpcc::TpccMs>(seed, sizes_for::<w_tpcc::TpccMs>(1, true)).0,
            stream_hash::<w_failover::FailoverRw>(
                seed,
                sizes_for::<w_failover::FailoverRw>(1, true),
            )
            .0,
        ]
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let (a, b, c) = (hashes(7), hashes(7), hashes(8));
        assert_eq!(a, b);
        for (x, y) in a.iter().zip(&c) {
            assert_ne!(x, y);
        }
    }

    #[test]
    fn chunks_hold_whole_blocks() {
        for seconds in [1, 7, 10] {
            let s = sizes_for::<w_failover::FailoverRw>(seconds, false);
            assert_eq!(s.ops % (CHUNKS * w_failover::CRASH_EVERY), 0);
            assert!(s.ops >= 4_000);
            let s = sizes_for::<w_analytic::AnalyticScatter>(seconds, false);
            assert_eq!(s.ops % (CHUNKS * 100), 0);
            assert!(s.ops >= 4_000);
        }
    }

    #[test]
    fn strict_argument_parsing() {
        let ok = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(ok(&[
            "--workload",
            "tpcc_ms",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1"
        ])
        .is_ok());
        assert!(ok(&["--workload", "nope"]).is_err());
        assert!(ok(&["--seed", "x"]).is_err());
        assert!(ok(&["--trace", "yes"]).is_err());
        assert!(ok(&["--seconds", "0"]).is_err());
        assert!(ok(&["--bogus"]).is_err());
    }

    #[test]
    fn debug_builds_are_refused() {
        assert_eq!(debug_refusal().is_some(), cfg!(debug_assertions));
    }
}
