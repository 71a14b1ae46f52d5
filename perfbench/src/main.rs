//! Runs one benchmark workload for a wall-clock budget and prints its
//! measurements as one JSON line (see `run.py`, which drives it).
//!
//! ```text
//! accl-perfbench --workload fig_sweep --seed 1 --seconds 20
//!                [--workers N] [--spans] [--tiny] [--min-passes N]
//! ```

use std::process::ExitCode;

use accl_perfbench::probe::CountingAlloc;
use accl_perfbench::{run_passes, Opts, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {flag}: {v}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = || -> Result<String, String> {
        let name = value(&args, "--workload").ok_or("missing --workload")?;
        let workload = Workload::from_name(name).ok_or(format!("unknown workload {name}"))?;
        let opts = Opts {
            seed: parse(&args, "--seed", 1)?,
            workers: parse(&args, "--workers", 1)?,
            spans: args.iter().any(|a| a == "--spans"),
            tiny: args.iter().any(|a| a == "--tiny"),
        };
        if opts.spans && !cfg!(feature = "trace") {
            return Err("--spans needs the trace build (--features trace)".into());
        }
        let seconds: f64 = parse(&args, "--seconds", 10.0)?;
        let min_passes: usize = parse(&args, "--min-passes", 1)?;
        Ok(run_passes(workload, opts, seconds, min_passes)?.to_json())
    };
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("accl-perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}
