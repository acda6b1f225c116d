"""Checks of the benchmark itself (about 5 s)::

    python3 perfbench/selftest.py

* the metric names ``run.py`` emits are exactly those ``BENCHMARK.json``
  declares;
* the benchmark's FFT/ft/1-thread/8-node cell at seed 2003 equals a
  direct ``run_app("FFT", "ft")`` and its pinned figures (14,755.66 us,
  46,270 engine events);
* failure accounting: a cell that raises, and a cell stopped by the
  host-time limit, come back as counted outcomes, not exceptions.

Exits 1 on the first failed check.
"""

import json
import os
import sys

import paths

PIN = {"seed": 2003, "elapsed_us": 14755.66, "events": 46270}


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        raise SystemExit(1)


def check_metric_names() -> None:
    import run

    with open(os.path.join(paths.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = [m["name"] for m in spec["end_to_end"]]
    check(declared == list(run.E2E),
          f"end_to_end names {declared} != run.E2E {list(run.E2E)}")
    declared = [m["name"] for m in spec["per_layer"]]
    check(declared == run.per_layer_names(),
          "per_layer names differ from run.per_layer_names()")


def check_pinned_cell() -> None:
    import workloads
    from repro.harness.experiments import run_app

    cell = next(c for c in workloads.splash_cells(PIN["seed"])
                if c.label == "FFT/ft/1t")
    outcome = workloads.run_cell(cell, limit_s=60.0)
    check(outcome.ok, f"pinned cell failed: {outcome.status}")
    check(round(outcome.sim["elapsed_us"], 2) == PIN["elapsed_us"],
          f"elapsed {outcome.sim['elapsed_us']!r} != {PIN['elapsed_us']}")
    check(outcome.sim["events"] == PIN["events"],
          f"events {outcome.sim['events']} != {PIN['events']}")
    direct = run_app("FFT", "ft", seed=PIN["seed"])
    check(direct.elapsed_us == outcome.sim["elapsed_us"],
          "benchmark cell differs from a direct run_app")


def check_failure_accounting() -> None:
    import workloads

    cell = workloads.server_cells(PIN["seed"])[0]
    real_build = workloads.build

    def broken_build(_cell):
        raise ValueError("deliberately broken cell")

    workloads.build = broken_build
    try:
        outcome = workloads.run_cell(cell, limit_s=60.0)
    finally:
        workloads.build = real_build
    check(outcome.status == "ValueError" and not outcome.ok,
          f"raising cell recorded as {outcome.status!r}")
    outcome = workloads.run_cell(cell, limit_s=0.05)
    check(outcome.status == "Timeout" and outcome.sim is None,
          f"hung cell recorded as {outcome.status!r}")


def main() -> None:
    paths.use_program()
    for name, fn in (("metric names", check_metric_names),
                     ("pinned cell", check_pinned_cell),
                     ("failure accounting", check_failure_accounting)):
        fn()
        print(f"ok: {name}")


if __name__ == "__main__":
    sys.exit(main())
