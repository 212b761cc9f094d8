//! perfbench: the rsmem benchmark. See README.md for the workloads, the
//! metrics and what each layer metric should move.
//!
//! ```text
//! python3 perfbench/run.py --workload duplex_curve --seed 42 --seconds 20 --trace 0
//! ```
//!
//! `run.py` builds this binary and `rsmem-cli` (which `service_mix`
//! starts from next to this executable), then runs it from the
//! repository root. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). A wrong output prints `"correct": false` with no
//! metrics and exits with status 1.

mod curve;
mod mc;
mod service;
mod stats;

use stats::{metric, Metric};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["duplex_curve", "mc_scrub", "mc_readback", "service_mix"];

/// What one run did and measured.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Sum of the in-process global registry's counters named `name` whose
/// labels include every filter pair.
pub fn counter_sum(name: &str, filter: &[(&str, &str)]) -> u64 {
    stats::exposition_sum(&rsmem_obs::global().render(), name, filter) as u64
}

/// `(count, sum)` of an unlabelled histogram in the global registry.
pub fn histogram(name: &str) -> (u64, f64) {
    let text = rsmem_obs::global().render();
    (
        stats::exposition_sum(&text, &format!("{name}_count"), &[]) as u64,
        stats::exposition_sum(&text, &format!("{name}_sum"), &[]),
    )
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: 42,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or_else(|| bad(&format!("expected one of {WORKLOADS:?}")))?;
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad(&"expected 0 < seconds <= 120"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required, one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// End-to-end run of one workload, tracing off.
fn end_to_end(args: &Args) -> Result<Outcome, String> {
    match args.workload {
        "duplex_curve" => curve::run(args.seconds),
        "mc_scrub" => mc::run(&mc::SCRUB, args.seed, args.seconds),
        "mc_readback" => mc::run(&mc::READBACK, args.seed, args.seconds),
        _ => service::run(args.seed, args.seconds),
    }
}

/// Traced run: every per-layer metric, each measured on the input of the
/// workload that owns its layer, plus the tracing overhead of the
/// selected workload's own job.
fn traced(args: &Args) -> Result<Outcome, String> {
    rsmem::register_solver_metrics();
    let (mut metrics, curve_overhead) = curve::trace(args.workload == "duplex_curve")?;
    let profiled = match args.workload {
        "mc_scrub" => Some(&mc::SCRUB),
        "mc_readback" => Some(&mc::READBACK),
        _ => None,
    };
    let (mc_metrics, mc_overhead) = mc::trace(args.seed, profiled)?;
    metrics.extend(mc_metrics);
    let session_s = (args.seconds / 4.0).max(3.0);
    let (mut outcome, service_overhead) =
        service::trace(args.seed, session_s, args.workload == "service_mix")?;
    metrics.append(&mut outcome.metrics);
    let overhead = curve_overhead
        .or(mc_overhead)
        .or(service_overhead)
        .expect("the selected workload measured its overhead");
    metrics.push(metric("trace.overhead_ratio", overhead, "ratio"));
    outcome.metrics = metrics;
    Ok(outcome)
}

fn print_result(correct: bool, outcome: &Outcome) {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    match result {
        Ok(outcome) if outcome.metrics.iter().all(|m| m.value.is_finite()) => {
            print_result(true, &outcome);
            ExitCode::SUCCESS
        }
        Ok(outcome) => {
            eprintln!("perfbench: a metric is not finite: {:?}", outcome.metrics);
            print_result(
                false,
                &Outcome {
                    metrics: Vec::new(),
                    ..outcome
                },
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            print_result(
                false,
                &Outcome {
                    attempted: 1,
                    failed: 1,
                    metrics: Vec::new(),
                },
            );
            ExitCode::FAILURE
        }
    }
}
