//! `chaos_sweep` — the CI chaos gate.
//!
//! Sweep mode (default) runs N seeded fault-injection experiments and
//! exits 0 if every invariant held at every seed. On the first violation
//! it shrinks the schedule to a minimal repro, writes it as JSON (for CI
//! artifact upload) and exits 1.
//!
//! Replay mode (`--replay FILE`) re-runs a repro file and reports whether
//! the violation still reproduces (exit 1) or the bug is fixed (exit 0).

use std::process::ExitCode;

use accl_chaos::{run_sweep, Repro, SweepConfig};
use accl_core::Transport;

const USAGE: &str = "\
usage: chaos_sweep [--seeds N] [--start-seed S] [--nodes N] [--count ELEMS]
                   [--transport tcp|udp|rdma] [--overload] [--membership]
                   [--break-fcs] [--out FILE] [-q]
       chaos_sweep --replay FILE

  --seeds N        seeds to run (default 8)
  --start-seed S   first seed (default 0); lets CI shards split a sweep
  --nodes N        cluster size (default 3)
  --count ELEMS    i32 elements per rank (default 65536; 16384 under
                   --overload)
  --transport T    protocol offload engine (default tcp)
  --overload       bound every cluster resource (switch buffers, tx credit
                   windows, uC admission, driver queue) and swap in the
                   resource-pressure fault mix: credit leaks, pause
                   storms, buffer shrinks
  --membership     swap in the membership fault mix (crash/restart pairs,
                   partition windows) and require every schedule to heal:
                   after the faults play out, restarted nodes are
                   reinstated and readmitted via expand, and the reissued
                   collective must complete with golden data
  --break-fcs      disable TCP FCS verification (harness self-test: the
                   sweep must catch the resulting silent corruption)
  --out FILE       where to write the shrunk repro on failure
                   (default chaos-repro.json)
  -q               only print the verdict and failures
  --replay FILE    re-run a repro file instead of sweeping
";

struct Args {
    cfg: SweepConfig,
    out: String,
    replay: Option<String>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: SweepConfig::new(8),
        out: "chaos-repro.json".to_string(),
        replay: None,
        quiet: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let mut count_set = false;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--seeds" => {
                args.cfg.seeds = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?
            }
            "--start-seed" => {
                args.cfg.start_seed = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--start-seed: {e}"))?
            }
            "--nodes" => {
                args.cfg.nodes = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?;
                args.cfg.profile = accl_net::ChaosProfile::default_profile(args.cfg.nodes as u32);
            }
            "--count" => {
                args.cfg.count = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--count: {e}"))?;
                count_set = true;
            }
            "--transport" => {
                args.cfg.transport = match value(&mut i)?.as_str() {
                    "tcp" => Transport::Tcp,
                    "udp" => Transport::Udp,
                    "rdma" => Transport::Rdma,
                    other => return Err(format!("unknown transport `{other}`")),
                }
            }
            "--overload" => args.cfg.overload = true,
            "--membership" => args.cfg.membership = true,
            "--break-fcs" => args.cfg.verify_fcs = false,
            "--out" => args.out = value(&mut i)?,
            "--replay" => args.replay = Some(value(&mut i)?),
            "-q" | "--quiet" => args.quiet = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    // Resolved after the loop so `--overload` composes with `--nodes` and
    // `--count` in any order.
    if args.cfg.overload {
        args.cfg.profile = accl_net::ChaosProfile::overload_profile(args.cfg.nodes as u32);
        if !count_set {
            args.cfg.count = 16384;
        }
    }
    if args.cfg.membership {
        if args.cfg.overload {
            return Err("--membership and --overload are separate fault mixes".into());
        }
        args.cfg.profile = accl_net::ChaosProfile::membership_profile(args.cfg.nodes as u32);
        if !count_set {
            args.cfg.count = 16384;
        }
    }
    Ok(args)
}

fn replay(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("chaos_sweep: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let repro = match Repro::from_json(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos_sweep: cannot parse {path}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying seed {} ({} event(s), {:?} workload)",
        repro.seed,
        repro.events.len(),
        repro.spec.kind
    );
    let report = repro.replay();
    match &report.violation {
        Some(v) => {
            println!("REPRODUCED: {v}");
            ExitCode::FAILURE
        }
        None => {
            println!("clean: the repro no longer violates any invariant");
            ExitCode::SUCCESS
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chaos_sweep: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.replay {
        return replay(path);
    }

    let cfg = args.cfg;
    println!(
        "sweeping {} seed(s) from {} ({} nodes, {} elems, {:?}, fcs {}{})",
        cfg.seeds,
        cfg.start_seed,
        cfg.nodes,
        cfg.count,
        cfg.transport,
        if cfg.verify_fcs { "on" } else { "OFF" },
        if cfg.overload { ", overload" } else { "" },
    );
    if cfg.membership {
        println!("  membership mode: every schedule must self-heal");
    }
    let outcome = run_sweep(&cfg, |seed, report| {
        if !args.quiet {
            println!(
                "  seed {seed}: {} ({} events, {} dropped, {} corrupt-discards, {} retries)",
                if report.passed() { "ok" } else { "VIOLATION" },
                report.events_executed,
                report.frames_dropped,
                report.corrupted_drops,
                report.retries
            );
        }
    });
    match outcome {
        Ok(stats) => {
            println!(
                "PASS: {} seed(s), {} fault(s) scheduled, {} typed error(s), {} retr(ies), \
                 {} frame(s) dropped, {} corrupt discard(s)",
                stats.seeds_run,
                stats.faults_scheduled,
                stats.typed_errors,
                stats.retries,
                stats.frames_dropped,
                stats.corrupted_drops
            );
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!("FAIL at seed {}: {}", failure.repro.seed, failure.violation);
            eprintln!(
                "  shrunk {} scheduled event(s) to {} in {} replay(s)",
                failure.original_events,
                failure.repro.events.len(),
                failure.replays
            );
            let json = failure.repro.to_json();
            match std::fs::write(&args.out, &json) {
                Ok(()) => eprintln!("  minimal repro written to {}", args.out),
                Err(e) => eprintln!("  cannot write {}: {e}; repro follows\n{json}", args.out),
            }
            eprintln!("  replay with: chaos_sweep --replay {}", args.out);
            ExitCode::FAILURE
        }
    }
}
