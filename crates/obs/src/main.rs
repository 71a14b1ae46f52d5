//! `accl-obs` — trace analytics CLI for the ACCL+ simulator.
//!
//! ```text
//! accl-obs dump --workload allreduce8|dlrm [--seed N]
//!               [--window-us N] [--no-window] [--degrade-rank R]
//!               -o trace.json
//!     Run a reference workload with tracing on and write the
//!     accl-obs-trace-v1 snapshot.
//!
//! accl-obs perfetto trace.json -o perfetto.json
//!     Render the snapshot as Chrome/Perfetto trace_event JSON (load it
//!     at ui.perfetto.dev or chrome://tracing).
//!
//! accl-obs critical-path trace.json [--roots NAME] [--digest-only]
//!     Walk the causal critical path of every collective root, print the
//!     integer-exact attribution table and the critical-path digest.
//!
//! accl-obs diff base.json current.json [--gate] [--threshold-ps N]
//!               [--threshold-permille N] [--roots NAME]
//!     Compare two runs per (component, span type, rank). With --gate,
//!     exit 1 when any regression clears both thresholds.
//!
//! accl-obs slo trace.json [--metric KEY]
//!     Print the windowed SLO time-series (or one metric's trajectory).
//!     Windows that completed collectives carry a derived availability
//!     column; `--metric availability_milli` prints it as a series.
//!
//! accl-obs mttr trace.json
//!     Extract the recovery timeline of a self-healing run (capture with
//!     `dump --workload rejoin`): suspect → confirm → service restored →
//!     full strength, with per-phase deltas, MTTR, and the whole-run
//!     availability summary.
//! ```
//!
//! Exit codes: 0 success / no gated regression, 1 gated regression,
//! 2 usage or input error.

use std::process::ExitCode;

use accl_obs::{capture, critpath, diff, graph, json, mttr, perfetto, slo};
use accl_obs::{CaptureConfig, TraceDoc, Workload};
use accl_sim::prelude::*;

fn fail(msg: &str) -> ExitCode {
    eprintln!("accl-obs: {msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("dump") => cmd_dump(&args[1..]),
        Some("perfetto") => cmd_perfetto(&args[1..]),
        Some("critical-path") => cmd_critical_path(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("slo") => cmd_slo(&args[1..]),
        Some("mttr") => cmd_mttr(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!(
                "usage: accl-obs <dump|perfetto|critical-path|diff|slo|mttr> ... (see crate docs)"
            );
            ExitCode::from(if args.is_empty() { 2 } else { 0 })
        }
        Some(other) => fail(&format!("unknown subcommand \"{other}\"")),
    }
}

/// Pulls the value following a `--flag` out of `args`, if present.
fn opt_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return match it.next() {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("{flag} needs a value")),
            };
        }
    }
    Ok(None)
}

fn positional(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip = false;
    for (i, a) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        if let Some(flag) = a.strip_prefix("--") {
            // Flags that take a value consume the next token.
            skip = matches!(
                flag,
                "workload"
                    | "seed"
                    | "window-us"
                    | "degrade-rank"
                    | "o"
                    | "out"
                    | "roots"
                    | "threshold-ps"
                    | "threshold-permille"
                    | "metric"
            );
            continue;
        }
        if a == "-o" {
            skip = true;
            continue;
        }
        out.push(&args[i]);
    }
    out
}

fn parse_u64(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match opt_value(args, flag)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{flag}: bad number \"{v}\"")),
    }
}

/// The `-o` / `--out` path a writing subcommand requires.
fn out_path(args: &[String], cmd: &str) -> Result<String, String> {
    opt_value(args, "-o")?
        .or(opt_value(args, "--out")?)
        .ok_or_else(|| format!("{cmd} needs -o <path>"))
}

fn load(path: &str) -> Result<TraceDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn paths_of(
    doc: &TraceDoc,
    roots_flag: &Option<String>,
) -> Result<Vec<critpath::CriticalPath>, String> {
    let g = graph::SpanGraph::build(doc);
    let roots = match roots_flag {
        Some(w) => g.roots(|name| name == w),
        None => {
            // Host-driven runs root at `driver.coll`; kernel-driven runs
            // (the DLRM pipeline) at `uc.call`.
            let host = g.roots(|name| name == "driver.coll");
            if host.is_empty() {
                g.roots(|name| name == "uc.call")
            } else {
                host
            }
        }
    };
    if roots.is_empty() {
        return Err(format!(
            "no completed root spans named \"{}\" in the trace",
            roots_flag.as_deref().unwrap_or("driver.coll / uc.call")
        ));
    }
    Ok(roots
        .iter()
        .filter_map(|&r| critpath::critical_path(&g, r))
        .collect())
}

/// The options `dump` accepts; any other `-`-prefixed argument is an
/// error.
const DUMP_OPTIONS: [&str; 7] = [
    "--workload",
    "--seed",
    "--window-us",
    "--no-window",
    "--degrade-rank",
    "-o",
    "--out",
];

fn cmd_dump(args: &[String]) -> ExitCode {
    let run = || -> Result<(), String> {
        if let Some(bad) = args
            .iter()
            .find(|a| a.starts_with('-') && !DUMP_OPTIONS.contains(&a.as_str()))
        {
            return Err(format!("unknown option \"{bad}\""));
        }
        let workload = match opt_value(args, "--workload")? {
            Some(w) => Workload::from_label(&w)
                .ok_or_else(|| format!("unknown workload \"{w}\" (allreduce8|dlrm|rejoin)"))?,
            None => Workload::Allreduce8,
        };
        let window = if args.iter().any(|a| a == "--no-window") {
            None
        } else {
            Some(Dur::from_us(parse_u64(args, "--window-us", 1)?))
        };
        let degrade_rank = opt_value(args, "--degrade-rank")?
            .map(|v| v.parse::<u32>().map_err(|_| format!("bad rank \"{v}\"")))
            .transpose()?;
        let cfg = CaptureConfig {
            workload,
            seed: parse_u64(args, "--seed", 1)?,
            window,
            span_capacity: 1 << 20,
            degrade_rank,
        };
        cfg.validate()?;
        let out = out_path(args, "dump")?;
        let doc = capture(&cfg);
        std::fs::write(&out, json::serialize(&doc)).map_err(|e| format!("write {out}: {e}"))?;
        eprintln!(
            "wrote {} ({} events, {} components)",
            out,
            doc.events.len(),
            doc.components.len()
        );
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn cmd_perfetto(args: &[String]) -> ExitCode {
    let run = || -> Result<(), String> {
        let pos = positional(args);
        let path = pos.first().ok_or("perfetto needs a trace file")?;
        let doc = load(path)?;
        let out = out_path(args, "perfetto")?;
        std::fs::write(&out, perfetto::render(&doc)).map_err(|e| format!("write {out}: {e}"))?;
        eprintln!("wrote {out} ({} events)", doc.events.len());
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn cmd_critical_path(args: &[String]) -> ExitCode {
    let run = || -> Result<(), String> {
        let pos = positional(args);
        let path = pos.first().ok_or("critical-path needs a trace file")?;
        let doc = load(path)?;
        let roots_flag = opt_value(args, "--roots")?;
        let paths = paths_of(&doc, &roots_flag)?;
        let digest = critpath::critical_path_digest(&paths);
        if args.iter().any(|a| a == "--digest-only") {
            println!("{digest:#018x}");
            return Ok(());
        }
        let attr = critpath::attribute(&doc, &paths);
        assert_eq!(
            attr.attributed_ps(),
            attr.total_ps,
            "attribution must partition the end-to-end time exactly"
        );
        print!(
            "{}",
            attr.table(&format!(
                "critical-path attribution: {} ({} roots, seed {})",
                doc.workload,
                paths.len(),
                doc.seed
            ))
        );
        println!("critical-path digest: {digest:#018x}");
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let run = || -> Result<bool, String> {
        let pos = positional(args);
        let (base_path, cur_path) = match pos.as_slice() {
            [b, c, ..] => (b.as_str(), c.as_str()),
            _ => return Err("diff needs <base.json> <current.json>".to_string()),
        };
        let base = load(base_path)?;
        let cur = load(cur_path)?;
        let roots_flag = opt_value(args, "--roots")?;
        let base_attr = critpath::attribute(&base, &paths_of(&base, &roots_flag)?);
        let cur_attr = critpath::attribute(&cur, &paths_of(&cur, &roots_flag)?);
        let report = diff::diff_attributions(&base_attr, &cur_attr);
        // Defaults: 1 µs absolute AND 5 % relative growth.
        let abs_ps = parse_u64(args, "--threshold-ps", 1_000_000)?;
        let permille = parse_u64(args, "--threshold-permille", 50)?;
        print!("{}", report.render(abs_ps, permille));
        let regressed = !report.regressions(abs_ps, permille).is_empty();
        Ok(regressed && args.iter().any(|a| a == "--gate"))
    };
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => {
            eprintln!("accl-obs: critical-path regression gate FAILED");
            ExitCode::from(1)
        }
        Err(e) => fail(&e),
    }
}

fn cmd_mttr(args: &[String]) -> ExitCode {
    let run = || -> Result<(), String> {
        let pos = positional(args);
        let path = pos.first().ok_or("mttr needs a trace file")?;
        let doc = load(path)?;
        let timeline = mttr::analyze(&doc).ok_or(
            "no recovery timeline in this trace (no confirmed failure, or no \
             collective completed afterwards) — capture with `dump --workload rejoin`",
        )?;
        print!(
            "{}",
            timeline.table(&format!(
                "recovery timeline: {} (seed {})",
                doc.workload, doc.seed
            ))
        );
        if let Some(w) = &doc.windows {
            let a = mttr::availability(w);
            println!(
                "availability: {} milli ({} of {} completions ok, {} of {} windows degraded)",
                a.availability_milli(),
                a.calls - a.failed,
                a.calls,
                a.degraded_windows,
                a.windows
            );
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn cmd_slo(args: &[String]) -> ExitCode {
    let run = || -> Result<(), String> {
        let pos = positional(args);
        let path = pos.first().ok_or("slo needs a trace file")?;
        let doc = load(path)?;
        match opt_value(args, "--metric")? {
            Some(key) => {
                let w = doc
                    .windows
                    .as_ref()
                    .ok_or("no windowed metrics in this trace")?;
                let series = slo::metric_series(w, &key)
                    .ok_or_else(|| format!("metric \"{key}\" not present in any window"))?;
                print!("{series}");
            }
            None => print!("{}", slo::render(&doc)),
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}
