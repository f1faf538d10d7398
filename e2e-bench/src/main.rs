//! `preserva-e2e-bench --workload <serve-read|edit-churn>
//! --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints per-class accounting and run-level checks, then, as its last
//! line, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A run that is not correct — a failed check, a failed
//! operation, or a metric with no sample (printed as `null`) — exits
//! with code 1.

use std::path::PathBuf;
use std::process::ExitCode;

use preserva_e2e_bench::workloads::{self, Options, Scale, Workload};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    // Scratch space inside the benchmark's own directory, one per process.
    let base = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    Ok(Options {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        scale: Scale::paper(),
        work_dir: base.join(".work").join(std::process::id().to_string()),
        trace_file: base
            .join(".out")
            .join(format!("trace-{}-{seed}.jsonl", workload.name())),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workloads::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {} seed {}: {e}", opts.workload.name(), opts.seed);
            return ExitCode::FAILURE;
        }
    };
    print!("{}", outcome.tally.render());
    for (name, c) in &outcome.checks {
        match c {
            Ok(()) => println!("check {name}: ok"),
            Err(e) => println!("check {name}: FAILED: {e}"),
        }
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    for name in outcome.unmeasured() {
        println!("metric {name}: FAILED: no sample");
    }
    // Both metric sets are printed as text; the JSON line carries one.
    for (name, value, unit) in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!("metric {name} {value} {unit}");
    }
    let metrics: Vec<String> = outcome
        .reported()
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = outcome.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.attempted(),
        outcome.tally.failed(),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
