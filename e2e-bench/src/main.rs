//! End-to-end benchmark of the Spinner workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload <partition-batch|stream-serve|elastic-ring> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload builds its inputs from the seed, sets itself up several
//! times (`setup_s` is the median), measures for `--seconds`, checks every
//! output, and prints one JSON line last: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! End-to-end timings are given in units of the benchmark's reference pass
//! (see `refpass.rs`), which cancels most of the host's speed drift. An
//! untraced run is made by child processes of this program run one after
//! another (see [`children`]), and reports the mean of their metrics.
//! Traced runs also write their spans as JSON lines under `e2e-bench/out/`.
//! The benchmark only calls public functions of `spinner-graph`,
//! `spinner-core`, `spinner-pregel` and `spinner-serving`.

mod batch;
mod checks;
mod inputs;
mod reader;
mod refpass;
mod report;
mod serve;
mod service;
mod trace;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use spinner_core::{partition, SpinnerConfig};
use spinner_graph::UndirectedGraph;

use checks::Checks;
use refpass::{RefPass, RelTimes};
use report::{median, Metrics};

/// The seed used when `--seed` is not given (README.md names the held-out
/// seed).
pub const DEFAULT_SEED: u64 = 1;

/// Processes an untraced run of `workload` is split over, each measuring
/// an equal share of `--seconds` on the same inputs. On `partition-batch`
/// some timings settle at one of two levels for the life of a process
/// (restarts read 8.6 or 9.7 reference passes, set-ups 0.13 or 0.18 s), so
/// a mean over three processes varies less from run to run than one
/// process does. The other two workloads show no such levels, and a third
/// of a run holds too few of their cycles: split three ways, the spread of
/// `elastic-ring`'s `window_rel.p50` over ten seeds rose from 0.05 to 0.09.
fn children(workload: &str) -> u32 {
    match workload {
        "partition-batch" => 3,
        _ => 1,
    }
}

/// What a child process prints as the last line of its stdout.
const CHILD_RESULT: &str = "child-result";

/// End-to-end metrics (every workload, `--trace 0`), with units. A `ref`
/// is the time of one reference pass (see `refpass.rs`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("partition_rel.p50", "ref"),
    ("window_rel.p50", "ref"),
    ("resume_rel", "ref"),
    ("phi", "ratio"),
    ("rho", "ratio"),
];

/// Per-layer metrics (every workload, `--trace 1`), with units. A metric
/// of a layer the workload leaves idle reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("graph.apply_delta_ms", "ms"),
    ("graph.undirected_ms", "ms"),
    ("core.apply_ms", "ms"),
    ("core.reload_ms", "ms"),
    ("core.migration_fraction", "ratio"),
    ("pregel.superstep_ms", "ms"),
    ("pregel.supersteps", "count"),
    ("pregel.computed", "count"),
    ("pregel.active_fraction", "ratio"),
    ("pregel.remote_records", "count"),
    ("pregel.local_share", "ratio"),
    ("pregel.fabric_reallocs", "count"),
    ("pregel.pool_speedup", "ratio"),
    ("wire.bytes", "bytes"),
    ("wire.frames", "count"),
    ("wire.bytes_per_record", "bytes"),
    ("wire.folded", "count"),
    ("transport.retransmits", "count"),
    ("transport.ring_direct_ratio", "ratio"),
    ("serving.state_capture_ms", "ms"),
    ("serving.wal_diff_ms", "ms"),
    ("serving.wal_append_ms", "ms"),
    ("serving.wal_record_bytes", "bytes"),
    ("routing.publish_us", "us"),
    ("serving.compact_ms", "ms"),
    ("serving.snapshot_bytes", "bytes"),
    ("serving.resume_load_ms", "ms"),
    ("serving.resume_rebuild_ms", "ms"),
    ("routing.lookup_ns.p50", "ns"),
    ("routing.lookup_ns.p99", "ns"),
    ("routing.seqlock_retries", "count"),
    ("routing.stale_reads", "count"),
    ("trace.window_ms", "ms"),
    ("trace.residual_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("self.graph_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.pregel_ms", "ms"),
    ("self.serving_ms", "ms"),
    ("self.routing_ms", "ms"),
    ("raw.partition_ms.p50", "ms"),
    ("raw.window_ms.p50", "ms"),
    ("raw.resume_ms.p50", "ms"),
    ("raw.ref_ms.p50", "ms"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    /// Run as one of the processes of an untraced run.
    pub child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        budget: Duration::from_secs(10),
        trace: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"want 0 < seconds <= 600"));
                }
                args.budget = Duration::from_secs_f64(s);
            }
            "--trace" | "--child" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                };
                if flag == "--trace" {
                    args.trace = on;
                } else {
                    args.child = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub checks: Checks,
    /// Operations attempted (partitions, windows, resumes, lookups) and
    /// how many of them failed.
    pub ops: u64,
    pub failed_ops: u64,
}

impl Outcome {
    /// Counts one operation, failed when `result` is an error.
    pub fn op<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.ops += 1;
        match result {
            Ok(v) => Some(v),
            Err(msg) => {
                eprintln!("operation failed: {msg}");
                self.failed_ops += 1;
                None
            }
        }
    }
}

/// Runs `build` `reps` times, keeping the last result; returns it with
/// the median set-up time in seconds.
pub fn repeated_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Engine threads for the pooled arm of `pregel.pool_speedup`: the
/// machine's cores, capped at 2.
fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// `pregel.pool_speedup`: median from-scratch partition time at 1 engine
/// thread over that at [`pool_threads`], arms alternating on the same
/// graph. The two arms must agree bit for bit.
pub fn pool_speedup(graph: &UndirectedGraph, cfg: &SpinnerConfig, out: &mut Outcome) -> f64 {
    let mut arms = [cfg.clone(), cfg.clone()];
    arms[0].num_threads = 1;
    arms[1].num_threads = pool_threads();
    let mut times = [Vec::new(), Vec::new()];
    let mut labels: [Vec<u32>; 2] = Default::default();
    for _ in 0..2 {
        for (arm, cfg) in arms.iter().enumerate() {
            let start = Instant::now();
            let result = partition(graph, cfg);
            times[arm].push(start.elapsed().as_secs_f64());
            labels[arm] = result.labels;
        }
    }
    out.checks.record(if labels[0] == labels[1] {
        Ok(())
    } else {
        Err(format!("partition differs between 1 and {} engine threads", arms[1].num_threads))
    });
    median(&times[0]) / median(&times[1])
}

/// `routing.lookup_ns.p50` / `.p99`: percentiles of the per-batch mean ns
/// per lookup. A p99 needs a thousand batches behind it.
pub fn lookup_metrics(out: &mut Outcome, batch_hist: &[u64]) {
    let n: u64 = batch_hist.iter().sum();
    out.checks.record(match report::supported_percentile(n as usize) {
        Some(p) if p >= 99.0 => Ok(()),
        _ => Err(format!("only {n} lookup batches: too few for a p99")),
    });
    for (name, p) in [("routing.lookup_ns.p50", 50.0), ("routing.lookup_ns.p99", 99.0)] {
        let ns = report::hist_percentile(batch_hist, p).unwrap_or_default();
        out.metrics.set(name, ns as f64 / reader::BATCH as f64, "ns");
    }
}

/// `raw.*`: the untraced operations' median times in ms, and the median
/// time of the run's reference passes.
pub fn raw_metrics(m: &mut Metrics, [partition, window, resume]: [&RelTimes; 3], rp: &RefPass) {
    m.set("raw.partition_ms.p50", partition.ms_p50(), "ms");
    m.set("raw.window_ms.p50", window.ms_p50(), "ms");
    m.set("raw.resume_ms.p50", resume.ms_p50(), "ms");
    m.set("raw.ref_ms.p50", rp.ms_p50(), "ms");
}

/// The `raw.*` metrics, in the order [`log_raw`] prints them.
const RAW: [&str; 4] =
    ["raw.partition_ms.p50", "raw.window_ms.p50", "raw.resume_ms.p50", "raw.ref_ms.p50"];

/// Logs the raw medians of an untraced run to stderr, for comparing their
/// spread with that of the relative timings (`spread.py` reads this line).
fn log_raw(m: &Metrics) {
    let [partition, window, resume, pass] = RAW.map(|name| m.get(name).unwrap_or(f64::NAN));
    eprintln!("raw ms: partition {partition} window {window} resume {resume} ref {pass}");
}

/// The untraced run: [`children`] child processes one after another, each
/// for an equal share of the budget. Every metric is the mean of the
/// children's; the run is correct when every child's is.
fn run_children(args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this program: {e}"))?;
    let count = children(&args.workload);
    let share = args.budget.as_secs_f64() / f64::from(count);
    let mut values: HashMap<String, Vec<f64>> = HashMap::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for i in 0..count {
        let output = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &share.to_string(), "--trace", "0", "--child", "1"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("child {i} did not start: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        let mut words = line.split_whitespace();
        if words.next() != Some(CHILD_RESULT) {
            return Err(format!("child {i} exited with {} and no result", output.status));
        }
        let mut number = |what: &str| {
            words
                .next()
                .and_then(|w| w.parse::<f64>().ok())
                .ok_or_else(|| format!("child {i}: bad {what} in {line:?}"))
        };
        correct &= number("correct")? == 1.0;
        attempted += number("attempted")? as u64;
        failed += number("failed")? as u64;
        let rest: Vec<&str> = line.split_whitespace().skip(4).collect();
        for pair in rest.chunks(2) {
            let [name, value] = pair else { return Err(format!("child {i}: odd {line:?}")) };
            let value = value.parse().map_err(|e| format!("child {i}: {name} {value}: {e}"))?;
            values.entry(name.to_string()).or_default().push(value);
        }
    }
    let mut metrics = Metrics::default();
    for (name, unit) in
        END_TO_END.iter().chain(PER_LAYER.iter().filter(|(n, _)| RAW.contains(n)))
    {
        match values.get(*name) {
            Some(v) if v.len() == count as usize => metrics.set(name, report::mean(v), unit),
            _ => return Err(format!("metric {name} missing from a child's result")),
        }
    }
    Ok((correct, attempted, failed, metrics))
}

/// `self.<layer>_ms`: each layer's self time per operation, over the spans
/// under the operations' root spans `roots`.
pub fn layer_self_metrics(m: &mut Metrics, tr: &trace::Tracer, roots: &[&str], ops: f64) {
    let self_ms = tr.layer_self_ms(roots);
    for (name, layer) in [
        ("self.graph_ms", "graph"),
        ("self.core_ms", "core"),
        ("self.pregel_ms", "pregel"),
        ("self.serving_ms", "serving"),
        ("self.routing_ms", "routing"),
    ] {
        m.set(name, self_ms[layer] / ops.max(1.0), "ms");
    }
}

/// Where a traced run writes its spans.
pub fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: spinner-e2e-bench --workload <partition-batch|stream-serve|elastic-ring> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    if !["partition-batch", "stream-serve", "elastic-ring"].contains(&args.workload.as_str()) {
        eprintln!("error: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    }
    if !args.trace && !args.child {
        let (correct, attempted, failed, metrics) = match run_children(&args) {
            Ok(result) => result,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(1);
            }
        };
        log_raw(&metrics);
        return finish(
            correct,
            attempted,
            failed,
            &metrics.select(&END_TO_END).expect("means"),
        );
    }
    let outcome = match args.workload.as_str() {
        "partition-batch" => batch::run(&args),
        "stream-serve" => serve::run(&args, serve::Kind::Stream),
        _ => serve::run(&args, serve::Kind::Elastic),
    };
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = match outcome.metrics.select(declared) {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(1);
        }
    };
    let failed = outcome.failed_ops + outcome.checks.failures.len() as u64;
    let attempted = (outcome.ops + outcome.checks.made).max(1);
    let correct = failed == 0;
    if args.child {
        let mut line = format!("{CHILD_RESULT} {} {attempted} {failed}", u8::from(correct));
        for (name, value, _) in metrics.iter() {
            line.push_str(&format!(" {name} {value:?}"));
        }
        for name in RAW {
            line.push_str(&format!(
                " {name} {:?}",
                outcome.metrics.get(name).unwrap_or(f64::NAN)
            ));
        }
        println!("{line}");
        return if correct { ExitCode::SUCCESS } else { ExitCode::from(1) };
    }
    finish(correct, attempted, failed, &metrics)
}

/// Prints the metrics and the result line; exit code 0 when correct.
fn finish(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> ExitCode {
    for (name, value, unit) in metrics.iter() {
        eprintln!("{name:>28} {value:>16.6} {unit}");
    }
    eprintln!("attempted {attempted}, failed {failed}, correct {correct}");
    println!("{}", report::result_json(correct, attempted, failed, metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names declared here are the ones BENCHMARK.json lists.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside e2e-bench/");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(report::valid_metric_name(name), "{name}");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = json.matches("\"name\": ").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + 3, "3 workloads + metrics");
    }
}
