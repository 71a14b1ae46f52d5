#!/usr/bin/env python3
"""Gate the simulator kernel's sustained dispatch rate against a reference.

Compares two sets of `BENCH_simcore.json` files — reference runs vs.
candidate runs — taking the best events/sec per workload on each side
(best-of-N masks scheduler noise; the tracked quantity is the machine's
capability, not its worst moment). Fails if the candidate's sustained
dispatch workload regresses by more than the tolerance.

Only `chain_1m_events` (sustained dispatch) gates: it is the longest,
steadiest workload and the one the observability PR's zero-overhead
contract is written against. The other workloads are reported for
context — short runs swing tens of percent with CPU frequency state, so
gating on them would be flaky, not strict.

One refinement over raw wall-clock comparison: when both sides carry a
`critical_path` section (sim-time critical-path digests per workload,
produced by `accl-obs`), the gated workload is compared by digest
equality instead of wall-clock ratio: equal digests mean the simulated
timeline is bit-identical, so the run cannot have regressed in sim time
no matter what the host clock says; unequal digests fail loudly because
the timeline itself changed. Wall-clock gating remains the fallback when
digests are absent.

Same-build mode (`--same-run ROW`) gates one workload against
`chain_1m_events` from the *same* runs instead of against a reference
build: best-of-N of ROW must stay within the tolerance of best-of-N of
`chain_1m_events`. CI uses it for `chain_1m_spans_off`, the chain with a
span opened and closed on every event while recording is off, so the idle
cost of the instrumentation is measured inside one build.

Usage:
  check_simcore_regression.py --ref ref1.json [ref2.json ...] \
      --cur cur1.json [cur2.json ...] [--tolerance 0.02]
  check_simcore_regression.py --same-run ROW run1.json [run2.json ...] \
      [--tolerance 0.02]
"""

import json
import sys

GATED = "chain_1m_events"


def collect(files):
    """Best events/sec per workload, and digests."""
    rates, digests = {}, {}
    for path in files:
        with open(path) as f:
            doc = json.load(f)
        for name, row in doc["current"].items():
            rate = float(row["events_per_sec"])
            if rate > rates.get(name, 0.0):
                rates[name] = rate
        for name, digest in doc.get("critical_path", {}).items():
            prior = digests.setdefault(name, digest)
            if prior != digest:
                sys.exit(
                    f"{path}: critical-path digest for {name!r} disagrees "
                    f"across same-side runs ({prior} vs {digest}) — the "
                    f"workload is nondeterministic, fix that first"
                )
    return rates, digests


def same_run(row, files, tol):
    """Gates best-of-N `row` against best-of-N GATED from the same runs."""
    rates, _ = collect(files)
    for name in (row, GATED):
        if name not in rates:
            sys.exit(f"runs are missing workload {name!r}")
    ratio = rates[row] / rates[GATED]
    ok = ratio >= 1.0 - tol
    verdict = "OK" if ok else f"FAIL (allowed cost {tol:.0%})"
    print(
        f"{row} {rates[row]:,.0f} vs {GATED} {rates[GATED]:,.0f} events/s "
        f"(best of {len(files)}): ratio {ratio:5.3f}  {verdict}"
    )
    if not ok:
        sys.exit(1)


def main():
    argv = sys.argv[1:]
    tol = 0.02
    refs, curs, bucket = [], [], None
    row = None
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--ref":
            bucket = refs
        elif a == "--cur":
            bucket = curs
        elif a == "--same-run":
            i += 1
            row = argv[i]
            bucket = curs
        elif a == "--tolerance":
            i += 1
            tol = float(argv[i])
        elif bucket is not None:
            bucket.append(a)
        else:
            sys.exit(f"unexpected argument {a!r} (see --help in the docstring)")
        i += 1
    if row is not None:
        if refs or not curs:
            sys.exit("--same-run takes run files only, no --ref")
        same_run(row, curs, tol)
        return
    if not refs or not curs:
        sys.exit("need at least one --ref file and one --cur file")

    (ref, ref_dig) = collect(refs)
    (cur, cur_dig) = collect(curs)
    failed = False
    digest_gated = GATED in ref_dig and GATED in cur_dig
    for name in sorted(ref):
        if name not in cur:
            sys.exit(f"candidate runs are missing workload {name!r}")
        ratio = cur[name] / ref[name]
        gate = name == GATED
        verdict = ""
        if gate and digest_gated:
            if ref_dig[GATED] == cur_dig[GATED]:
                verdict = "  (gated by digest: identical timeline, OK)"
            else:
                verdict = (
                    f"  << FAIL (critical-path digest changed: "
                    f"{ref_dig[GATED]} -> {cur_dig[GATED]})"
                )
                failed = True
        elif gate:
            if ratio < 1.0 - tol:
                verdict = f"  << FAIL (allowed regression {tol:.0%})"
                failed = True
            else:
                verdict = "  (gated: OK)"
        print(
            f"{name:26s} ref {ref[name]:>12,.0f}  cur {cur[name]:>12,.0f}  "
            f"ratio {ratio:5.3f}{verdict}"
        )
    # Ungated digests still report drift: a changed timeline on an
    # ungated workload is worth a loud line even when it doesn't fail.
    for name in sorted(set(ref_dig) & set(cur_dig)):
        if name == GATED and digest_gated:
            continue
        same = ref_dig[name] == cur_dig[name]
        state = "identical" if same else f"CHANGED {ref_dig[name]} -> {cur_dig[name]}"
        print(f"{name:26s} critical-path digest: {state}")
    if failed:
        sys.exit(1)
    how = "digest-identical" if digest_gated else f"within {tol:.0%} of reference"
    print(f"check_simcore_regression: OK ({GATED} {how})")


if __name__ == "__main__":
    main()
