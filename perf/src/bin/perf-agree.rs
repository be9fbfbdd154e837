//! `perf-agree <BENCHMARK.json> <set-A-dir> <set-B-dir>` — print the
//! comparison table of two sets of `asterix-perf` outputs and exit 1 if
//! a gated metric's medians differ by more than its bound.

use std::path::Path;
use std::process::ExitCode;

use asterix_perf::agree::{compare, read_bounds, read_set};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [benchmark, a, b] = args.as_slice() else {
        eprintln!("usage: perf-agree <BENCHMARK.json> <set-A-dir> <set-B-dir>");
        return ExitCode::from(64);
    };
    let loaded = std::fs::read_to_string(benchmark)
        .map_err(|e| format!("{benchmark}: {e}"))
        .and_then(|text| read_bounds(&text))
        .and_then(|bounds| Ok((bounds, read_set(Path::new(a))?, read_set(Path::new(b))?)));
    match loaded {
        Ok((bounds, set_a, set_b)) => {
            let (table, agree) = compare(&set_a, &set_b, &bounds);
            print!("{table}");
            if agree {
                ExitCode::SUCCESS
            } else {
                eprintln!("perf-agree: the two sets disagree");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perf-agree: {e}");
            ExitCode::from(2)
        }
    }
}
