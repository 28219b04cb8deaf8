//! `unroller-perfbench` — the engine's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! unroller-perfbench --workload walked|memoized|churn --seed N --seconds S --trace 0|1 [--spans PATH]
//! ```
//!
//! Each invocation builds the workload's inputs from the seed and runs
//! the real engine on them over and over for `--seconds`, each run
//! gated for correctness, and reports medians over the runs. With `--trace 0` the
//! last stdout line carries the end-to-end metrics; with `--trace 1` it
//! carries the per-layer metrics, which add a traced pass: the engine
//! run again behind a timing source decorator, then a single-threaded
//! replay through the layers' public functions (see [`trace`]). A
//! human-readable account, including the host block, goes to stderr.

mod gate;
mod measure;
mod run;
#[cfg(test)]
mod selftest;
mod trace;
mod workload;

use measure::{busy_threads, Host};
use std::process::ExitCode;
use workload::SHARDS;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--spans" => spans = Some(value()?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: unroller-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]"
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workload::by_name(&args.workload) else {
        let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload `{}` (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let host = Host::probe();
    eprintln!("host: {}", host.to_json(SHARDS).render());
    if busy_threads(SHARDS) > host.nproc {
        eprintln!(
            "perfbench: refusing to run: {} busy threads (dispatcher + {SHARDS} shard) on {} CPUs \
             would time-share, not measure",
            busy_threads(SHARDS),
            host.nproc
        );
        return ExitCode::from(2);
    }
    let outcome = run::benchmark(
        &workload,
        args.seed,
        args.seconds,
        args.trace,
        args.spans.as_deref(),
    );
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
