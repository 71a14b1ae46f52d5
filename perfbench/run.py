#!/usr/bin/env python3
"""Runs one workload of the ACCL+ simulator benchmark and prints its metrics.

    python3 perfbench/run.py --workload fig_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds the benchmark package (perfbench/) in
release mode into $CARGO_TARGET_DIR (default .bench_build), runs the
workload for the given wall-clock budget, checks its outputs and its
determinism, and prints as the last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics from the default build.
--trace 1 reports the per-layer metrics: it runs the default build, the
trace-compiled build with spans off and with spans on, checks that every
simulated result and count agrees across them, splits host and simulated
time by layer, and compares the default build at one and at two simulator
workers.
See perfbench/README.md for every metric's definition.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("fig_sweep", "dlrm_pipeline", "lossy_stream")


class BenchError(Exception):
    """A failure that must end the run without a result."""


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(trace):
    """Builds the benchmark binary (default or trace-compiled); returns its path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml"), "--target-dir", str(target_dir())]
    if trace:
        cmd += ["--features", "trace"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise BenchError("cargo build failed:\n" + proc.stderr[-4000:])
    built = target_dir() / "release" / "accl-perfbench"
    # Both builds write the same path; keep each under its own name.
    dest = target_dir() / ("perfbench-trace" if trace else "perfbench-default")
    dest.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy2(built, dest)
    return dest


def run_binary(binary, workload, seed, seconds, extra=(), min_passes=3, tiny=False):
    """Runs the benchmark binary once; returns its JSON report."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--min-passes", str(min_passes), *extra]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_same(a, b, what, workload):
    """Fails unless two runs' fingerprints agree, naming the first difference."""
    fa, fb = a["fingerprint"], b["fingerprint"]
    for key in sorted(set(fa) | set(fb)):
        if fa.get(key) != fb.get(key):
            raise BenchError(f"determinism: {key} differs on {workload} ({what}): "
                             f"{fa.get(key)} vs {fb.get(key)}")


def timed(values):
    """The timed passes: every pass after the first, which warms caches and
    the allocator (all of them when there are fewer than three)."""
    return values[1:] if len(values) >= 3 else values


def med(report, key):
    return statistics.median(timed(report[key]))


def host_rows(r):
    """Per timed pass of the spans-off trace build: host seconds per layer,
    from the spans the benchmark records around its calls into each layer.
    The DLRM reference model is timed on its own after the pipeline call,
    and its time is subtracted from that same pass's pipeline call;
    `sim_s` is the host time of every simulated run in the pass."""
    n, h, aside = int(r["passes"]), r["host_s"], r["aside"]
    reference = aside.get("dlrm.reference_s", [0.0] * n)
    reference_allocs = aside.get("dlrm.reference_allocs", [0.0] * n)
    rows = []
    for i in range(n):
        # Small against the reference model, so on a noisy host this
        # difference can read negative; it is reported as measured.
        dlrm_sim = h["DlrmPipeline"][i] - reference[i]
        rows.append({
            "core.build_s": h["CoreBuild"][i],
            "core.run_s": h["CoreRun"][i],
            "mem.buffer_io_s": h["MemFill"][i] + h["MemRead"][i],
            "swmpi.run_s": h["Swmpi"][i],
            "dlrm.generate_s": h["DlrmGenerate"][i],
            "dlrm.reference_s": min(reference[i], h["DlrmPipeline"][i]),
            "dlrm.sim_s": dlrm_sim,
            "sim_s": h["CoreRun"][i] + h["Swmpi"][i] + max(dlrm_sim, 0.0),
            "total": r["setup_s"][i] + r["run_s"][i],
            "allocs": max(r["sim_allocs"][i] - reference_allocs[i], 0.0),
        })
    return timed(rows)


def engine_s(report):
    """Host seconds spent in simulated ACCL+ runs, median of the timed passes."""
    h = report["host_s"]
    return statistics.median(timed([a + b for a, b in zip(h["CoreRun"], h["DlrmPipeline"])]))


def divergent_ops(a, b):
    """Ops whose simulated latency or verdict differs between two runs."""
    la, lb = a["op_latency_ps"], b["op_latency_ps"]
    if len(la) != len(lb):
        return max(len(la), len(lb))
    return sum(1 for x, y in zip(la, lb) if x != y)


def end_to_end(r):
    """The end-to-end metrics of one default-build run."""
    sim = r["sim"]
    values = {
        "setup_s": (med(r, "setup_s"), "s"),
        "run_s": (med(r, "run_s"), "s"),
        "peak_rss_mib": (r["peak_rss_mib"], "MiB"),
        "sim_lat_geomean_us": (sim["sim_lat_geomean_us"], "sim_us"),
        "sim_lat_p50_us": (sim["sim_lat_p50_us"], "sim_us"),
        "sim_lat_tail_us": (sim["sim_lat_tail_us"], "sim_us"),
        "sim_goodput_gbps": (sim["sim_goodput_gbps"], "Gb/sim_s"),
        "sim_ops_per_s": (sim["sim_ops_per_s"], "1/sim_s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(base, idle, spans_on, workers2):
    """The per-layer metrics: host spans and counts from the spans-off
    trace build, simulated attribution from the spans-on run, and the
    parallel-engine row from the default build at 1 and at 2 workers."""
    counts = idle["counts"]
    rows = host_rows(idle)
    host = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    layer_s = {
        "core": lambda row: row["core.build_s"],
        "mem": lambda row: row["mem.buffer_io_s"],
        "swmpi": lambda row: row["swmpi.run_s"],
        "dlrm": lambda row: row["dlrm.generate_s"] + row["dlrm.reference_s"],
    }
    shares = {layer: [f(row) / row["total"] for row in rows] for layer, f in layer_s.items()}
    shares["unattributed"] = [max(1 - sum(s[i] for s in shares.values()), 0.0)
                              for i in range(len(rows))]
    events = max(counts["sim.events"], 1)
    extra = base["extra"]
    attr = spans_on["sim_attr_ps"]
    attr_total = sum(attr.values()) or 1

    m = {
        "sim.events": (counts["sim.events"], "count"),
        "sim.host_ns_per_event": (host["sim_s"] * 1e9 / events, "ns"),
        "sim.allocs_per_event": (host["allocs"] / events, "count"),
        "sim.max_queue_depth": (counts["sim.max_queue_depth"], "count"),
        "sim.workers2_speedup": (engine_s(base) / engine_s(workers2), "ratio"),
        "sim.workers2_divergent_ops": (divergent_ops(base, workers2), "count"),
        "sim.trace_idle_overhead": (med(idle, "run_s") / med(base, "run_s"), "ratio"),
        "sim.trace_on_overhead": (med(spans_on, "run_s") / med(idle, "run_s"), "ratio"),
        "net.useful_byte_ratio": (base["useful_bytes"] / max(counts["net.switch.bytes"], 1),
                                  "ratio"),
        "dlrm.infer_latency_us": (extra.get("dlrm.infer_latency_us", 0.0), "sim_us"),
        "dlrm.infer_per_s": (extra.get("dlrm.infer_per_s", 0.0), "1/sim_s"),
        "failed_ops_ratio": (base["failed_ops_ratio"], "ratio"),
    }
    for key in ("core.driver.calls", "core.driver.retries", "core.driver.calls_failed",
                "mem.tlb.misses", "mem.tlb.faults", "mem.xdma.bytes",
                "net.switch.bytes", "net.switch.drops", "net.switch.corrupted",
                "net.switch.duplicated", "poe.tcp.retransmits", "poe.rdma.retransmissions",
                "poe.rdma.rto_fired", "poe.rdma.rx_gap_naks", "poe.rdma.rx_duplicates",
                "poe.frames_corrupted_discarded", "cclo.uc.calls", "cclo.uc.decode_cycles",
                "cclo.dmp.instrs", "cclo.txsys.jobs", "cclo.rxsys.messages",
                "cclo.rbm.exhausted", "cclo.uc.collective_timeouts", "swmpi.nic.msgs"):
        m[key] = (counts[key], "bytes" if key.endswith("bytes") else "count")
    for key in ("core.build_s", "core.run_s", "mem.buffer_io_s", "swmpi.run_s",
                "dlrm.generate_s", "dlrm.reference_s", "dlrm.sim_s"):
        m[key] = (host[key], "s")
    for layer, values in shares.items():
        m[f"{layer}.host_share"] = (statistics.median(values), "ratio")
    for layer in ("net", "mem", "poe", "cclo", "core", "unattributed"):
        m[f"{layer}.sim_share"] = (attr.get(layer, 0) / attr_total, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def provenance(args, trace, passes):
    rustc = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE, text=True).stdout
    try:
        # Never look above the checkout for a repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else "none"
    except OSError:
        commit = "none"
    digest = hashlib.sha256()
    for path in sorted(ROOT.glob("crates/*/src/**/*.rs")) + sorted(BENCH.glob("src/*.rs")):
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": passes,
        "trace": trace,
        "host_cpus": os.cpu_count(),
        "rustc": rustc.strip(),
        "profile": "release (lto=thin, codegen-units=1)",
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few small ops per workload (smoke tests)")
    args = ap.parse_args()
    w, seed, secs, tiny = args.workload, args.seed, args.seconds, args.tiny

    default_bin = build(trace=False)
    if not args.trace:
        base = run_binary(default_bin, w, seed, secs, tiny=tiny)
        metrics = end_to_end(base)
        passes = {"default": int(base["passes"])}
    else:
        trace_bin = build(trace=True)
        # Half the budget goes to the two runs the layer host times come
        # from; the spans-on run and the two-worker run take three passes
        # each, so their ratios compare medians of two timed passes.
        quarter = secs / 4
        base = run_binary(default_bin, w, seed, quarter, tiny=tiny)
        idle = run_binary(trace_bin, w, seed, quarter, tiny=tiny)
        spans_on = run_binary(trace_bin, w, seed, 0, ["--spans"], tiny=tiny)
        workers2 = run_binary(default_bin, w, seed, 0, ["--workers", "2"], tiny=tiny)
        check_same(base, idle, "default vs trace build", w)
        check_same(base, spans_on, "spans off vs on", w)
        metrics = per_layer(base, idle, spans_on, workers2)
        passes = {name: int(r["passes"]) for name, r in (
            ("default", base), ("spans_off", idle), ("spans_on", spans_on),
            ("workers2", workers2))}

    print(json.dumps({"provenance": provenance(args, args.trace, passes)}))
    print(json.dumps({
        "correct": bool(base["correct"]),
        "attempted": int(base["attempted"]),
        "failed": int(base["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
