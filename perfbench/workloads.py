"""The benchmark's workloads: fixed lists of simulation cells.

A cell is one :class:`~repro.harness.runner.SvmRuntime` run at
``bench`` scale, built only through the public harness API
(``evaluation_config`` / ``workload_factories``, ``KVStore``,
``FaultPlan``, ``RecoveryInvariantChecker``). The workload seed derives
every seed a cell uses: the cluster seed, the KVStore stream seeds and
the fault-plan seeds.

:func:`run_cell` never raises for a cell's own failure. An exception,
an application ``verify`` error, an invariant violation or a host-time
limit all become a :class:`CellOutcome` with a status other than
``"ok"``; the benchmark counts them and carries on.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

from repro.apps import KVStore
from repro.cluster import Hooks
from repro.harness.experiments import (
    APP_ORDER,
    evaluation_config,
    workload_factories,
)
from repro.harness.faultplan import FaultPlan
from repro.harness.runner import SvmRuntime
from repro.metrics import Breakdown
from repro.metrics.latency import LatencyBook
from repro.verify import RecoveryInvariantChecker

VARIANTS = ("base", "ft")
THREADS_PER_NODE = (1, 2)

#: Applications of the fault sweep slice and plans per application.
FAULT_APPS = ("FFT", "LU", "WaterNsq", "RadixLocal")
PLANS_PER_APP = 6

#: KVStore shape for the transaction-server workload. Four streams, not
#: two: a cell's simulated time varies about 15% with its stream, and
#: four halve the seed-to-seed spread of the workload's sum.
KV_BUCKETS = 64
KV_TXNS_PER_THREAD = 20
KV_STREAMS = 4


@dataclass(frozen=True)
class Cell:
    """One simulation run of a workload."""

    label: str
    app: str
    variant: str
    threads_per_node: int
    num_nodes: int
    cluster_seed: int
    #: KVStore transaction-stream seed (server cells only).
    stream_seed: Optional[int] = None
    #: ``random.Random`` seed of the cell's fault plan (fault cells only).
    plan_seed: Optional[str] = None
    failures: int = 0


def splash_cells(seed: int) -> List[Cell]:
    """The paper's evaluation matrix: 6 apps x {base, ft} x {1, 2}
    threads per node on 8 nodes, failure-free."""
    return [Cell(f"{app}/{variant}/{tpn}t", app, variant, tpn, 8, seed)
            for app in APP_ORDER
            for variant in VARIANTS
            for tpn in THREADS_PER_NODE]


def fault_cells(seed: int) -> List[Cell]:
    """A fault-sweep slice: ft, 1 thread per node, 8 nodes; each cell a
    seeded random plan of one or two fail-stop failures sparing node 0,
    audited by the invariant checker."""
    cells = []
    for app in FAULT_APPS:
        for index in range(PLANS_PER_APP):
            failures = 1 + index % 2
            cells.append(Cell(f"{app}/ft/1t/plan{index}x{failures}", app,
                              "ft", 1, 8, seed,
                              plan_seed=f"{seed}/{app}/{index}",
                              failures=failures))
    return cells


def server_cells(seed: int) -> List[Cell]:
    """KVStore bank transfers on 16 nodes: 4 stream seeds x {base, ft}
    x {1, 2} threads per node."""
    return [Cell(f"KVStore.s{stream}/{variant}/{tpn}t", "KVStore", variant,
                 tpn, 16, seed, stream_seed=stream)
            for stream in range(seed, seed + KV_STREAMS)
            for variant in VARIANTS
            for tpn in THREADS_PER_NODE]


WORKLOADS: Dict[str, Callable[[int], List[Cell]]] = {
    "splash-8n": splash_cells,
    "faults-8n": fault_cells,
    "server-16n": server_cells,
}


def build(cell: Cell):
    """The cell's runtime (fault plan installed) and its invariant
    checker, or ``None`` when the cell is not audited."""
    config = evaluation_config(cell.variant, cell.threads_per_node,
                               num_nodes=cell.num_nodes,
                               seed=cell.cluster_seed)
    if cell.app == "KVStore":
        workload = KVStore(buckets=KV_BUCKETS,
                           txns_per_thread=KV_TXNS_PER_THREAD,
                           seed=cell.stream_seed)
    else:
        workload = workload_factories("bench")[cell.app]()
    runtime = SvmRuntime(config, workload)
    checker = None
    if cell.plan_seed is not None:
        FaultPlan.random_plan(random.Random(cell.plan_seed),
                              cell.num_nodes, failures=cell.failures,
                              spare=(0,)).apply(runtime)
        checker = RecoveryInvariantChecker(runtime, strict=False)
    return runtime, checker


@dataclass
class CellOutcome:
    """What one cell did. ``sim`` holds every simulated quantity and
    count; it is a function of the cell alone, so it must repeat
    bit-for-bit across passes and between traced and untraced runs.
    It is ``None`` only for a cell stopped by the host-time limit."""

    cell: Cell
    status: str
    detail: str
    host_s: float
    sim: Optional[dict]
    #: ``host_s`` rescaled by the speed spins around the cell (see
    #: ``spin.py``); set by the pass that ran it.
    host_ref_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def fingerprint(self):
        return (self.status, self.detail if self.sim is not None else "",
                self.sim)


class CellTimeout(BaseException):
    """Raised by the host-time limit. A ``BaseException`` so that no
    ``except Exception`` inside the simulator can swallow it."""


@contextmanager
def host_time_limit(seconds: float):
    """Raise :class:`CellTimeout` in the main thread after ``seconds``
    of host wall time. This bounds a hang without capping simulated
    time: ``run(max_sim_us=...)`` fast-forwards the clock to the cap
    and inflates ``elapsed_us`` (see NOTES.md)."""
    def _expire(_signum, _frame):
        raise CellTimeout(f"host-time limit of {seconds:.0f}s exceeded")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_cell(cell: Cell, limit_s: float, profiler=None) -> CellOutcome:
    """Build, run and verify one cell, timing it on the host clock.

    ``profiler`` (a ``cProfile.Profile``) is enabled for exactly the
    cell's build, run and audit.
    """
    recovery_us: List[float] = []

    def on_recovery_done(_node, duration_us=0.0, final=True, **_info):
        # One sample per recovery: RECOVERY_START to the final DONE.
        if final:
            recovery_us.append(duration_us)

    runtime = checker = result = None
    status, detail = "ok", ""
    started = time.perf_counter()
    try:
        with host_time_limit(limit_s):
            if profiler is not None:
                profiler.enable()
            try:
                runtime, checker = build(cell)
                runtime.cluster.hooks.on(Hooks.RECOVERY_DONE,
                                         on_recovery_done)
                result = runtime.run(verify=True)
                if checker is not None and checker.finalize():
                    status = "InvariantViolation"
                    detail = "; ".join(str(f)
                                       for f in checker.violations[:3])
            finally:
                if profiler is not None:
                    profiler.disable()
    except CellTimeout as exc:
        return CellOutcome(cell, "Timeout", str(exc),
                           time.perf_counter() - started, None)
    except Exception as exc:  # noqa: BLE001 -- a failed cell is a result
        status, detail = type(exc).__name__, str(exc)
    sim = _simulated_record(runtime, checker, result if status == "ok"
                            else None, recovery_us)
    # The cell pays for collecting its own garbage, not the next one.
    runtime = checker = result = None
    gc.collect()
    return CellOutcome(cell, status, detail, time.perf_counter() - started,
                       sim)


def _simulated_record(runtime, checker, result, recovery_us) -> dict:
    """Work counts and simulated times of a cell that ran to an end,
    completed or failed; a failed cell counts up to its failure."""
    if runtime is None:
        return {}
    nics = [node.nic for node in runtime.cluster.nodes]
    counters = {}
    for agent in runtime.agents:
        for name, value in asdict(agent.counters).items():
            counters[name] = counters.get(name, 0) + value
    manager = runtime.recovery_manager
    record = {
        "events": runtime.engine.events_executed,
        "ran_us": runtime.engine.now - runtime._timing_start_us,
        "six_way": Breakdown.merge(
            rec.clock for rec in runtime.threads).six_component(),
        "latency": LatencyBook.merged(
            agent.latency for agent in runtime.agents).to_dict(),
        "counters": counters,
        "nic_received": [nic.messages_received for nic in nics],
        "messages": sum(nic.messages_sent for nic in nics),
        "bytes": sum(nic.bytes_sent for nic in nics),
        "post_queue_stalls": sum(nic.post_queue_stalls for nic in nics),
        "recoveries": manager.recoveries if manager else 0,
        "recovery_us": list(recovery_us),
        "exposed_window_us": list(manager.exposed_windows) if manager
        else [],
        "violations": len(checker.violations) if checker else 0,
    }
    if result is not None:
        record["elapsed_us"] = result.elapsed_us
    return record
