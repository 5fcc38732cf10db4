//! The fedrecattack benchmark: four single-process workloads, measured
//! end to end through the real drivers and, in a separate traced run,
//! attributed to the workspace's layers.
//!
//! ```text
//! fedrec-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; everything else goes to standard
//! error. See `perfbench/README.md` for the workloads and metrics.

mod cells;
mod serve;
mod stats;
mod trace;

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["mf-attack-50k", "ncf-50k", "mf-million", "serve-million"];

/// Metrics of an untraced run; every workload reports each of them.
const END_TO_END: [&str; 5] = ["setup_s", "run_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb"];

/// Metrics of a traced run. A workload that does not exercise a layer
/// reports 0 for it.
const PER_LAYER: [(&str, Unit); 52] = [
    ("core.share", Unit::Ratio),
    ("baselines.share", Unit::Ratio),
    ("defense.share", Unit::Ratio),
    ("recsys.share", Unit::Ratio),
    ("ncf.share", Unit::Ratio),
    ("data.share", Unit::Ratio),
    ("federated.share", Unit::Ratio),
    ("experiments.share", Unit::Ratio),
    ("core.poison_ms", Unit::Ms),
    ("core.poison_calls", Unit::Count),
    ("core.poison_uploads", Unit::Count),
    ("baselines.poison_ms", Unit::Ms),
    ("defense.aggregate_ms", Unit::Ms),
    ("defense.aggregate_inputs", Unit::Count),
    ("defense.detect_ms", Unit::Ms),
    ("defense.detect_inspected", Unit::Count),
    ("defense.detect_flagged", Unit::Count),
    ("recsys.eval_ms", Unit::Ms),
    ("recsys.eval_calls", Unit::Count),
    ("recsys.items_scored", Unit::Count),
    ("recsys.items_skipped", Unit::Count),
    ("recsys.dots_per_us", Unit::PerUs),
    ("ncf.eval_ms", Unit::Ms),
    ("ncf.items_scored", Unit::Count),
    ("ncf.dots_per_us", Unit::PerUs),
    ("data.user_items_calls", Unit::Count),
    ("data.user_items_ms", Unit::Ms),
    ("data.shards_generated", Unit::Count),
    ("data.interactions_generated", Unit::Count),
    ("federated.round_ms_p50", Unit::Ms),
    ("federated.first_round_ms", Unit::Ms),
    ("federated.self_ms", Unit::Ms),
    ("federated.local_round_ms", Unit::Ms),
    ("federated.local_round_calls", Unit::Count),
    ("federated.local_round_idle_ratio", Unit::Ratio),
    ("federated.rows_materialized", Unit::Count),
    ("federated.participants_touched", Unit::Count),
    ("federated.fault_dropped", Unit::Count),
    ("federated.fault_late", Unit::Count),
    ("federated.fault_rejected", Unit::Count),
    ("federated.quorum_skipped", Unit::Count),
    ("serve.hit_rate", Unit::Ratio),
    ("serve.hit_p50_us", Unit::Us),
    ("serve.miss_p50_us", Unit::Us),
    ("serve.miss_p99_us", Unit::Us),
    ("serve.batches", Unit::Count),
    ("serve.mean_batch", Unit::Count),
    ("serve.publish_calls", Unit::Count),
    ("serve.publish_ms_p50", Unit::Ms),
    ("serve.publish_share", Unit::Ratio),
    ("serve.epoch_lag_max", Unit::Count),
    ("experiments.trace_overhead", Unit::Ratio),
];

/// Metric units, as printed.
#[derive(Clone, Copy)]
pub enum Unit {
    S,
    Ms,
    Us,
    Mb,
    Count,
    Ratio,
    PerUs,
}

impl Unit {
    fn label(self) -> &'static str {
        match self {
            Unit::S => "s",
            Unit::Ms => "ms",
            Unit::Us => "us",
            Unit::Mb => "MB",
            Unit::Count => "count",
            Unit::Ratio => "ratio",
            Unit::PerUs => "1/us",
        }
    }
}

/// Operations and metrics of one run.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, Unit)>,
}

impl Outcome {
    /// One operation; it failed if any check reported an error.
    pub fn op(&mut self, errors: Vec<String>) {
        for e in &errors {
            eprintln!("check failed: {e}");
        }
        self.attempted += 1;
        self.failed += u64::from(!errors.is_empty());
    }

    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: Unit) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Put the metrics in the order of the benchmark's list, adding a 0
    /// for each traced metric the workload has no layer for.
    fn complete(&mut self, trace: bool) {
        let mut done = Vec::new();
        if trace {
            for (name, unit) in PER_LAYER {
                let v = self.value(name).unwrap_or(0.0);
                done.push((name.to_string(), v, unit));
            }
        } else {
            for name in END_TO_END {
                let (_, v, u) = self
                    .metrics
                    .iter()
                    .find(|m| m.0 == name)
                    .unwrap_or_else(|| panic!("workload did not measure {name}"));
                done.push((name.to_string(), *v, *u));
            }
        }
        for (n, _, _) in &self.metrics {
            assert!(
                done.iter().any(|d| &d.0 == n),
                "metric {n} is not in the benchmark's list"
            );
        }
        self.metrics = done;
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\":{{\"value\":{v},\"unit\":\"{}\"}}", u.label())
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// The benchmark's one clock: every timing it reports starts here.
pub fn now() -> std::time::Instant {
    // fedrec-lint: allow(wall-clock) — the benchmark's purpose is timing; no timestamp reaches program state
    std::time::Instant::now()
}

/// Time `setup` at least `min` times and until `budget` seconds have gone
/// by, at most 50 times, appending each duration to `secs`; returns the
/// last result. Many repeats keep the median of a set-up of a few
/// milliseconds steady.
pub fn time_setups<T>(
    secs: &mut Vec<f64>,
    min: usize,
    budget: f64,
    mut setup: impl FnMut() -> T,
) -> T {
    let started = now();
    let mut last = None;
    let mut n = 0;
    while n < min || (n < 50 && started.elapsed().as_secs_f64() < budget) {
        // The previous result is torn down outside the timed window.
        drop(last.take());
        let t = now();
        let made = setup();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(made);
        n += 1;
    }
    last.expect("at least one set-up")
}

/// Write a trace file; a failure to write is reported, not fatal.
pub fn write_trace(path: &Path, f: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) {
    let result = (|| {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        f(&mut w)?;
        w.flush()
    })();
    match result {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("could not write trace {}: {e}", path.display()),
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    // fedrec-lint: allow(wall-clock) — command-line flags select the workload and seed; the program only sees generated inputs
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: fedrec-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "workload {} seed {} seconds {} trace {} | nproc {nproc} | cpu {} | {} | rev {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cpu_model(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
    );
    let trace_path = PathBuf::from(".bench_build")
        .join("trace")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let mut out = Outcome::default();
    match (args.workload.as_str(), args.trace) {
        ("serve-million", false) => serve::run_e2e(args.seed, args.seconds, &mut out),
        ("serve-million", true) => serve::run_traced(args.seed, &trace_path, &mut out),
        (w, trace) => {
            let plan = cells::Plan::new(w, args.seed).expect("workload names are checked");
            if trace {
                cells::run_traced(&plan, &trace_path, &mut out);
            } else {
                cells::run_e2e(&plan, args.seconds, &mut out);
            }
        }
    }
    if !args.trace {
        out.metric("peak_rss_mb", peak_rss_mb(), Unit::Mb);
    }
    out.complete(args.trace);
    for (n, v, u) in &out.metrics {
        eprintln!("  {n:<36} {v:>16.6} {}", u.label());
    }
    eprintln!(
        "  operations: {} attempted, {} failed",
        out.attempted, out.failed
    );
    println!("{}", out.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in BENCHMARK.json, in order.
    fn listed(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start
            ..text[start..]
                .find(']')
                .map(|e| start + e)
                .expect("list ends")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            obj[at..at + obj[at..].find('"').expect("string ends")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let e2e: Vec<String> = listed("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(e2e, END_TO_END);
        let per_layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.label().to_string()))
            .collect();
        assert_eq!(listed("per_layer"), per_layer);
    }
}
