"""Compare a fresh hot-path benchmark run against a committed baseline.

Not a pytest module: CI runs it after the bench smoke, with the
baseline read from git (the smoke overwrites the working-tree copy)::

    git show HEAD:results/BENCH_hotpaths.json > /tmp/baseline.json
    python tests/tools/check_bench_regression.py \
        --baseline /tmp/baseline.json --fresh results/BENCH_hotpaths.json

Two kinds of gate:

* **ratio** metrics (diff speedups, span speedups) compare a fast path
  against its reference loop on the *same* machine in the same run, so
  they are machine-independent and gate directly against the committed
  baseline;
* **host-time** metrics (µs per fault / per acquire / per merge) move
  with the machine. Comparing them raw against a baseline committed on
  a different (often faster) machine false-fails on slower runners, so
  the bound is rescaled by the ratio of the two runs' ``calibration_us``
  -- a fixed deterministic spin recorded alongside each benchmark run
  that measures only machine speed. A 2x-slower runner doubles its
  calibration and its allowance in lockstep; an accidentally-reverted
  fast path still blows through the band because the calibration does
  not move with protocol code. When either file lacks a calibration
  (pre-rescale baselines), the checker warns and falls back to the raw
  compare;
* **exact** metrics (engine events per NIC message) are deterministic
  work counts, identical on every machine and build: any increase over
  the baseline fails, whatever the tolerance. Lowering one is a
  deliberate baseline update.
"""

from __future__ import annotations

import argparse
import json
import sys

#: (json path, kind) -- "higher" metrics must stay >= baseline/tol,
#: "lower" metrics must stay <= baseline*tol (calibration-rescaled),
#: "exact" metrics must stay <= baseline.
GATES = [
    (("diff", "sparse", "speedup"), "higher"),
    (("diff", "dense", "speedup"), "higher"),
    (("diff", "clean", "speedup"), "higher"),
    (("diff", "fragmented", "speedup"), "higher"),
    (("span_access", "span_read_speedup"), "higher"),
    (("span_access", "span_write_speedup"), "higher"),
    (("span_access", "read_array_speedup"), "higher"),
    (("fault_fetch", "host_us_per_fault"), "lower"),
    (("lock_handoff", "host_us_per_acquire"), "lower"),
    (("merge", "merge_8diffs_us"), "lower"),
    (("event_counts", "deposit", "engine_events_per_message"), "exact"),
    (("event_counts", "fetch", "engine_events_per_message"), "exact"),
]


def _lookup(data: dict, path: tuple):
    for part in path:
        data = data[part]
    return data


def _calibration_scale(baseline: dict, fresh: dict):
    """fresh-machine slowdown factor, or None when not measurable."""
    base_cal = baseline.get("calibration_us")
    fresh_cal = fresh.get("calibration_us")
    if not base_cal or not fresh_cal:
        return None
    return fresh_cal / base_cal


def check(baseline: dict, fresh: dict, tolerance: float) -> list:
    failures = []
    scale = _calibration_scale(baseline, fresh)
    if scale is None:
        print("warn: calibration_us missing from baseline or fresh run; "
              "host-time gates use the raw (machine-dependent) compare")
    else:
        print(f"calibration: fresh machine is {scale:.2f}x the baseline "
              f"machine's cost (host-time bounds rescaled accordingly)")
    for path, kind in GATES:
        name = ".".join(path)
        try:
            base = _lookup(baseline, path)
        except KeyError:
            # Metric added after the committed baseline: nothing to
            # gate against yet. It starts gating on the next baseline.
            print(f"  new  {name}: no baseline entry, skipped")
            continue
        now = _lookup(fresh, path)
        if kind == "higher":
            # Same-machine ratios: no calibration scaling.
            bound = base / tolerance
            ok = now >= bound
            rel = "<" if not ok else ">="
        elif kind == "exact":
            # Deterministic work counts: no tolerance at all.
            bound = base
            ok = now <= bound
            rel = ">" if not ok else "<="
        else:
            bound = base * tolerance * (scale if scale is not None else 1.0)
            ok = now <= bound
            rel = ">" if not ok else "<="
        band = "exact" if kind == "exact" else f"tolerance {tolerance}x"
        line = (f"{name}: {now} {rel} bound {bound:.2f} "
                f"(baseline {base}, {band})")
        print(("FAIL  " if not ok else "  ok  ") + line)
        if not ok:
            failures.append(line)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--fresh", required=True)
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="allowed multiplicative drift (default 2.0)")
    args = parser.parse_args(argv)

    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)
    with open(args.fresh, encoding="utf-8") as fh:
        fresh = json.load(fh)

    failures = check(baseline, fresh, args.tolerance)
    if failures:
        print(f"\n{len(failures)} hot-path metric(s) regressed past the "
              f"{args.tolerance}x band")
        return 1
    print("\nall hot-path metrics within the tolerance band")
    return 0


if __name__ == "__main__":
    sys.exit(main())
