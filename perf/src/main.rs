//! `asterix-perf --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--trace-out FILE] [--smoke]` — run one workload and print its metrics.
//!
//! The last line of standard output is the result object; the line before
//! it describes the run. A run whose validity guards trip prints no result
//! and exits 2; one with failed operations prints its result and exits 1.

use std::path::PathBuf;
use std::process::ExitCode;

use asterix_perf::env::{default_data_root, pin_to_one_cpu};
use asterix_perf::run::{run, Options, RunError};
use asterix_perf::workloads::Workload;

const USAGE: &str = "usage: asterix-perf --workload <point_lookup|index_queries|scan_queries|\
ingest_mixed> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--smoke]";

/// `run_seconds` of BENCHMARK.json, for runs started by hand.
const DEFAULT_SECONDS: f64 = 12.0;

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::PointLookup,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        smoke: false,
        data_root: default_data_root(),
        host_cpus: std::thread::available_parallelism().map_or(0, |n| n.get()),
        pinned_cpu: None,
    };
    let (mut workload, mut seconds) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    opts.seconds =
        seconds.unwrap_or(if opts.smoke { DEFAULT_SECONDS / 20.0 } else { DEFAULT_SECONDS });
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("asterix-perf: {e}\n{USAGE}");
            return ExitCode::from(64);
        }
    };
    let opts = Options { pinned_cpu: pin_to_one_cpu(), ..opts };
    if opts.pinned_cpu.is_none() {
        eprintln!("asterix-perf: could not pin to one CPU; timings will be noisier");
    }
    match run(&opts) {
        Ok(outcome) => {
            println!("{}", outcome.details);
            println!("{}", outcome.result_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "asterix-perf: {} of {} operations failed",
                    outcome.failed, outcome.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e @ RunError::Invalid(_)) => {
            eprintln!("asterix-perf: {e}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("asterix-perf: {e}");
            ExitCode::from(3)
        }
    }
}
