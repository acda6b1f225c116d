"""End-to-end benchmark of the simulator, with per-layer attribution.

Three workloads, each a fixed list of simulation cells run serially in
this process (see ``workloads.py`` and ``NOTES.md``)::

    python3 perfbench/run.py --workload splash-8n --seed 2003 \
        --seconds 10 --trace 0

``--trace 0`` times untraced passes over the cells until ``--seconds``
have elapsed (at least one pass) and reports the end-to-end metrics.
``--trace 1`` runs one untraced pass and then one pass under the
profiler and reports the per-layer metrics. Both modes print a readable
report first (every metric with its unit and sample count, every
failed cell with its error class, the machine provenance) and end with
one JSON line::

    {"correct": ..., "attempted": <cells>, "failed": <failed cells>,
     "metrics": {name: {"value": ..., "unit": ...}}}

A failed cell is a counted result, never an aborted run. ``correct``
is false only for a benchmark error: simulated results that differ
between passes, between the traced and untraced runs, or from a
direct ``run_app`` of the same cell.

Host times in the JSON line are rescaled by a speed spin timed around
every cell (``spin.py``); the report prints the wall times beside them.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import paths
import spin

#: Host-time limit per untraced cell; ten times the slowest cell here.
CELL_LIMIT_S = 25.0
#: The traced pass runs several times slower.
TRACED_LIMIT_FACTOR = 6.0
#: No cell's limit reaches past this many seconds into the run (each
#: gets at least 1 s), so a run of hangs still ends within 3 minutes.
RUN_BUDGET_S = 160.0
#: Set-up measurements per run (after one discarded warm-up).
SETUP_PROBES = 5
#: The cell pinned against a direct ``run_app`` on ``splash-8n``.
PIN_LABEL = "FFT/ft/1t"
#: Tail percentiles tried, highest first; one is reported when at
#: least ten samples lie beyond it.
TAIL_LEVELS = (0.999, 0.99, 0.9)
#: The layer self times must sum to the traced host time within this.
ATTRIBUTION_TOLERANCE = 0.05


class Report:
    """Metrics in report order: name -> (value, unit, samples)."""

    def __init__(self) -> None:
        self.rows = {}

    def add(self, name, value, unit, samples=None) -> None:
        self.rows[name] = (value, unit, samples)

    def timing(self, name, p50, tail, count, suffix="") -> None:
        """A median in us, its highest well-sampled tail and the count;
        ``suffix`` ends the percentile names."""
        self.add(f"{name}.p50{suffix}", p50, "us", count)
        if tail is not None:
            level, value = tail
            self.add(f"{name}.{_pct_name(level)}{suffix}", value, "us",
                     count)
        self.add(f"{name}.count", count, "count")

    def print(self, title: str) -> None:
        print(f"\n== {title}")
        for name, (value, unit, samples) in self.rows.items():
            n = "" if samples is None else f"  (n={samples})"
            shown = f"{value:>16d}" if isinstance(value, int) else \
                f"{value:>16.6g}"
            print(f"  {name:38s} {shown} {unit}{n}")

    def json_metrics(self, names):
        return {name: {"value": self.rows[name][0],
                       "unit": self.rows[name][1]} for name in names}


def _pct_name(level: float) -> str:
    return "p" + f"{level * 100:g}".replace(".", "")


def _tail_level(count: int):
    for level in TAIL_LEVELS:
        if count * (1.0 - level) >= 10:
            return level
    return None


def sample_timing(samples):
    """(p50, (level, value) or None, count) of raw samples."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0, None, 0

    def rank(q):
        return ordered[min(len(ordered) - 1,
                           max(0, math.ceil(q * len(ordered)) - 1))]

    level = _tail_level(len(ordered))
    return (rank(0.5), None if level is None else (level, rank(level)),
            len(ordered))


def hist_timing(hist):
    """(p50, (level, value) or None, count) of a Log2Histogram."""
    level = _tail_level(hist.count)
    tail = None if level is None else (level, hist.percentile_us(level))
    return hist.percentile_us(0.5), tail, hist.count


# -- running -----------------------------------------------------------------

def measure_setup(workload: str, seed: int):
    """(wall seconds, spin seconds) of set-up -- imports plus the first
    runtime -- in fresh interpreters, after one discarded warm-up that
    fills the bytecode caches."""
    samples = []
    probe = os.path.join(paths.HERE, "setup_probe.py")
    for index in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, probe, workload, str(seed)],
                              capture_output=True, text=True, timeout=60,
                              check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        if index:
            samples.append(tuple(map(float, proc.stdout.split()[-2:])))
    return samples


def run_pass(cells, deadline, profiler=None, reuse=None):
    """One pass over the cells, with the speed spin timed before the
    first cell and after every cell. ``reuse`` maps labels to outcomes
    that are copied instead of re-run (cells that hit the host-time
    limit untraced are not re-run under the profiler)."""
    from workloads import run_cell

    limit = CELL_LIMIT_S * (TRACED_LIMIT_FACTOR if profiler else 1.0)
    outcomes = []
    before = spin.measure()
    for cell in cells:
        if reuse and cell.label in reuse:
            outcomes.append(reuse[cell.label])
            continue
        remaining = deadline - time.perf_counter()
        outcome = run_cell(cell, max(1.0, min(limit, remaining)), profiler)
        after = spin.measure()
        outcome.host_ref_s = spin.rescale(outcome.host_s,
                                          (before + after) / 2.0)
        outcomes.append(outcome)
        before = after
    return outcomes


def compare(reference, other, what: str):
    """Benchmark errors for cells whose simulated results differ."""
    return [f"{a.cell.label}: simulated results differ {what}"
            for a, b in zip(reference, other)
            if a.fingerprint() != b.fingerprint()]


def check_pin(outcomes, seed: int):
    """The benchmark's FFT/ft/1t cell must equal a direct ``run_app``."""
    from repro.harness.experiments import run_app

    cell = next(o for o in outcomes if o.cell.label == PIN_LABEL)
    if not cell.ok:
        return []   # counted as a failed cell already
    direct = run_app("FFT", "ft", seed=seed)
    if (direct.elapsed_us != cell.sim["elapsed_us"]
            or direct.breakdown.six_component() != cell.sim["six_way"]):
        return [f"{PIN_LABEL}: differs from run_app('FFT', 'ft', "
                f"seed={seed}): {cell.sim['elapsed_us']!r} != "
                f"{direct.elapsed_us!r} us"]
    return []


def host_s(outcomes, exclude_timeouts=False, wall=False) -> float:
    """Summed host seconds of cells, rescaled by the speed spins unless
    ``wall``."""
    return sum(o.host_s if wall else o.host_ref_s for o in outcomes
               if not (exclude_timeouts and o.sim is None))


# -- metrics -----------------------------------------------------------------

E2E = ("host_s", "setup_s", "peak_rss_mb", "sim_ms")


def end_to_end(report, passes, setup):
    outcomes = passes[0]
    ok = [o for o in outcomes if o.ok]
    report.add("host_s", statistics.median(host_s(p) for p in passes), "s",
               len(passes))
    report.add("host_wall_s",
               statistics.median(host_s(p, wall=True) for p in passes), "s",
               len(passes))
    if setup:
        report.add("setup_s", statistics.median(
            spin.rescale(wall, spin_s) for wall, spin_s in setup), "s",
            len(setup))
        report.add("setup_wall_s",
                   statistics.median(wall for wall, _ in setup), "s",
                   len(setup))
    report.add("peak_rss_mb",
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "MB", 1)
    # A failed cell counts up to its failure, so a fix that lets it
    # complete moves sim_ms by the remainder only.
    ran = [o for o in outcomes if o.sim]
    report.add("sim_ms", sum(o.sim["ran_us"] for o in ran) / 1000.0, "ms",
               len(ran))
    report.add("sim_ms_completed",
               sum(o.sim["elapsed_us"] for o in ok) / 1000.0, "ms", len(ok))
    failed = len(outcomes) - len(ok)
    report.add("failed_frac", failed / len(outcomes), "frac",
               len(outcomes))
    overhead = ft_overhead(ok)
    if overhead is not None:
        report.add("ft_overhead_pct", overhead[0], "%", overhead[1])
    for name in ("recovery_us", "exposed_window_us"):
        samples = [v for o in ran for v in o.sim[name]]
        if samples:
            report.timing(name, *sample_timing(samples))


def ft_overhead(ok):
    """(geometric mean of ft/base - 1, in %, pair count) over pairs of
    cells that differ only in variant and both completed."""
    elapsed = {}
    for o in ok:
        c = o.cell
        elapsed[(c.app, c.stream_seed, c.threads_per_node, c.num_nodes,
                 c.variant)] = o.sim["elapsed_us"]
    ratios = [elapsed[key[:-1] + ("ft",)] / base
              for key, base in elapsed.items()
              if key[-1] == "base" and key[:-1] + ("ft",) in elapsed]
    if not ratios:
        return None
    geo = math.exp(statistics.fmean(math.log(r) for r in ratios))
    return (geo - 1.0) * 100.0, len(ratios)


#: Latency classes of the protocol's histograms.
LATENCY_OPS = ("lock_wait", "page_fault", "barrier_wait", "release")
SIX_WAY = ("compute", "data_wait", "synchronization", "diffs", "protocol",
           "checkpointing")


def per_layer_names():
    """Per-layer metrics carried in the JSON line (``--trace 1``)."""
    from layers import LAYERS

    names = ["sim.events", "sim.host_us_per_event",
             "net.messages", "net.bytes", "net.post_queue_stalls",
             "net.hot_node_ratio",
             "memory.twins", "memory.pages_diffed", "memory.diff_bytes",
             "memory.home_diff_frac",
             "memory.diff.compute_calls", "memory.diff.compute_s",
             "memory.diff.apply_calls",
             "protocol.page_faults", "protocol.remote_fetches",
             "protocol.lock_acquires", "protocol.lock_retry_ratio",
             "protocol.barriers"]
    for op in LATENCY_OPS:
        names += [f"protocol.{op}.mean_us", f"protocol.{op}.count"]
    names += [f"breakdown.{part}_ms" for part in SIX_WAY]
    names += ["ft.checkpoints", "ft.checkpoint_bytes", "ft.recoveries",
              "verify.invariant_violations"]
    for layer in LAYERS:
        # verify.self_s is exactly zero wherever the checker is not
        # attached; the report prints it, the JSON line leaves it out.
        if layer != "verify":
            names.append(f"{layer}.self_s")
        names.append(f"{layer}.boundary_calls")
    names.append("tracing_overhead")
    return names


def per_layer(report, untraced, traced, attribution):
    from repro.metrics.hist import Log2Histogram

    ran = [o for o in untraced if o.sim]
    totals = {}
    for o in ran:
        for name, value in o.sim["counters"].items():
            totals[name] = totals.get(name, 0) + value

    def total(key):
        return sum(o.sim[key] for o in ran)

    # Profiler times are rescaled by the traced pass's overall factor.
    traced_wall = host_s(traced, exclude_timeouts=True, wall=True)
    traced_s = host_s(traced, exclude_timeouts=True)
    to_ref = traced_s / traced_wall
    events = total("events")
    report.add("sim.events", events, "count", len(ran))
    report.add("sim.host_us_per_event",
               host_s(ran) * 1e6 / max(events, 1), "us", len(ran))
    report.add("net.messages", total("messages"), "count")
    report.add("net.bytes", total("bytes"), "B")
    report.add("net.post_queue_stalls", total("post_queue_stalls"), "count")
    report.add("net.hot_node_ratio", max(
        (max(o.sim["nic_received"])
         / max(statistics.median(o.sim["nic_received"]), 1))
        for o in ran), "ratio", len(ran))
    report.add("memory.twins", totals["twins_created"], "count")
    report.add("memory.pages_diffed", totals["pages_diffed"], "count")
    report.add("memory.diff_bytes", totals["diff_bytes_sent"], "B")
    report.add("memory.home_diff_frac",
               totals["home_pages_diffed"] / max(totals["pages_diffed"], 1),
               "frac")
    diff = attribution["diff"]
    for name in ("compute", "apply"):
        report.add(f"memory.diff.{name}_calls", diff[name]["calls"], "count")
        report.add(f"memory.diff.{name}_s", diff[name]["s"] * to_ref, "s",
                   diff[name]["calls"])
    report.add("protocol.page_faults", totals["page_faults"], "count")
    report.add("protocol.remote_fetches", totals["remote_page_fetches"],
               "count")
    report.add("protocol.lock_acquires", totals["lock_acquires"], "count")
    report.add("protocol.lock_retry_ratio",
               totals["lock_retries"] / max(totals["lock_acquires"], 1),
               "ratio")
    report.add("protocol.barriers", totals["barriers"], "count")
    for op in LATENCY_OPS:
        hist = Log2Histogram.merged(
            Log2Histogram.from_dict(o.sim["latency"][op])
            for o in ran if op in o.sim["latency"])
        report.timing(f"protocol.{op}", *hist_timing(hist), suffix="_us")
        report.add(f"protocol.{op}.mean_us", hist.mean_us, "us", hist.count)
    # Each cell's mean-thread six-way split, scaled to its simulated
    # time, so the parts sum to sim_ms.
    parts = dict.fromkeys(SIX_WAY, 0.0)
    for o in ran:
        split = o.sim["six_way"]
        scale = o.sim["ran_us"] / (sum(split.values()) or 1.0)
        for part in SIX_WAY:
            parts[part] += split[part] * scale / 1000.0
    for part in SIX_WAY:
        report.add(f"breakdown.{part}_ms", parts[part], "ms", len(ran))
    report.add("ft.checkpoints", totals["checkpoints"], "count")
    report.add("ft.checkpoint_bytes", totals["checkpoint_bytes"], "B")
    report.add("ft.recoveries", total("recoveries"), "count")
    report.add("verify.invariant_violations", total("violations"), "count")
    for layer, seconds in attribution["self_s"].items():
        report.add(f"{layer}.self_s", seconds * to_ref, "s")
        report.add(f"{layer}.boundary_calls",
                   attribution["boundary_calls"][layer], "count")
    report.add("tracing_overhead",
               traced_s / host_s(untraced, exclude_timeouts=True), "ratio")
    return traced_wall


# -- report ------------------------------------------------------------------

def print_cells(outcomes) -> None:
    print(f"\n== cells ({len(outcomes)})")
    for o in outcomes:
        sim = o.sim or {}
        elapsed = sim.get("elapsed_us")
        print(f"  {o.cell.label:28s} {o.status:20s} host {o.host_s:7.3f}s"
              f"  events {sim.get('events', 0):8d}"
              + (f"  sim {elapsed:11.2f}us" if elapsed is not None else ""))
    failed = [o for o in outcomes if not o.ok]
    print(f"\n== failed cells ({len(failed)})")
    for o in failed:
        print(f"  {o.cell.label}: {o.status}: {o.detail[:160]}")


def print_provenance() -> None:
    from repro.sim import ACCELERATED

    # The calibration spin the hot-path bench and its regression gate
    # rescale host times by; its module imports ``benchmarks.conftest``.
    sys.path.insert(0, paths.ROOT)
    spec = importlib.util.spec_from_file_location(
        "bench_hotpaths",
        os.path.join(paths.ROOT, "benchmarks", "bench_hotpaths.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    print("\n== provenance")
    print(f"  calibration_us   {module.bench_calibration()}")
    print(f"  accelerated      {ACCELERATED}")
    print(f"  python           {platform.python_version()}")
    print(f"  nproc            {os.cpu_count()}")
    print(f"  machine          {platform.machine()}")


# -- main --------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("splash-8n", "faults-8n", "server-16n"))
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    paths.use_program()
    import workloads
    from layers import attribute

    cells = workloads.WORKLOADS[args.workload](args.seed)
    errors = []
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    measuring = time.perf_counter()
    passes = [run_pass(cells, deadline)]
    while not args.trace and time.perf_counter() - measuring < args.seconds:
        passes.append(run_pass(cells, deadline))
        errors += compare(passes[0], passes[-1], "between passes")
    untraced = passes[0]
    if args.workload == "splash-8n":
        errors += check_pin(untraced, args.seed)
    e2e = Report()
    end_to_end(e2e, passes, setup)
    layers = None
    if args.trace:
        profiler = cProfile.Profile()
        reuse = {o.cell.label: o for o in untraced if o.sim is None}
        traced = run_pass(cells, deadline, profiler, reuse)
        errors += compare(untraced, traced, "between traced and untraced")
        attribution = attribute(profiler, paths.PACKAGE)
        layers = Report()
        traced_wall = per_layer(layers, untraced, traced, attribution)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print_cells(untraced)
    e2e.print("end-to-end metrics (untraced)")
    if layers is not None:
        layers.print("per-layer metrics (traced run)")
        attributed = sum(attribution["self_s"].values())
        ratio = attributed / traced_wall
        verdict = ("ok" if abs(ratio - 1.0) <= ATTRIBUTION_TOLERANCE
                   else "GAP")
        print(f"\n  layer self times sum to {attributed:.3f}s = "
              f"{ratio:.3f} x the traced pass's wall time ({verdict}); "
              f"{attribution['outside_s']:.3f}s of it ran in builtins or "
              "outside repro and is charged to the calling layer")
    print_provenance()
    for error in errors:
        print(f"BENCHMARK ERROR: {error}")
    metrics = (layers.json_metrics(per_layer_names()) if layers is not None
               else e2e.json_metrics(E2E))
    print(json.dumps({"correct": not errors, "attempted": len(untraced),
                      "failed": sum(1 for o in untraced if not o.ok),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
