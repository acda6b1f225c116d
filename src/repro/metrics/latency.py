"""Per-operation latency statistics.

Section 5.3 argues through *average* operation latencies: lock wait
time ("more than a two-fold increase" for Water-Nsquared), data wait
per page fault ("the average wait time per page increases", 3-15%
overhead), and release cost. This module collects those samples at the
protocol layer so benchmarks can report them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.metrics.hist import Log2Histogram


@dataclass
class LatencyStats:
    """Streaming summary of one operation's latency samples."""

    count: int = 0
    total_us: float = 0.0
    min_us: float = math.inf
    max_us: float = 0.0

    def add(self, value_us: float) -> None:
        self.count += 1
        self.total_us += value_us
        if value_us < self.min_us:
            self.min_us = value_us
        if value_us > self.max_us:
            self.max_us = value_us

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0

    def merge(self, other: "LatencyStats") -> None:
        self.count += other.count
        self.total_us += other.total_us
        self.min_us = min(self.min_us, other.min_us)
        self.max_us = max(self.max_us, other.max_us)


#: Operation names tracked by the protocol agents.
LOCK_WAIT = "lock_wait"
PAGE_FAULT = "page_fault"
RELEASE = "release"
BARRIER_WAIT = "barrier_wait"

ALL_OPS = (LOCK_WAIT, PAGE_FAULT, RELEASE, BARRIER_WAIT)


class LatencyBook:
    """Per-node collection of operation latency statistics.

    Each sample lands twice: in the streaming :class:`LatencyStats`
    (mean/max, the paper's section 5.3 lens) and in a deterministic
    :class:`~repro.metrics.hist.Log2Histogram` (p50/p99/p999, the SLO
    lens). Histograms merge bit-identically across any worker
    partition of the sample stream.
    """

    def __init__(self) -> None:
        self._stats: Dict[str, LatencyStats] = {
            op: LatencyStats() for op in ALL_OPS}
        self._hists: Dict[str, Log2Histogram] = {
            op: Log2Histogram() for op in ALL_OPS}

    def record(self, op: str, value_us: float) -> None:
        self._stats[op].add(value_us)
        self._hists[op].record(value_us)

    def stats(self, op: str) -> LatencyStats:
        return self._stats[op]

    def hist(self, op: str) -> Log2Histogram:
        return self._hists[op]

    def percentiles(self, op: str) -> Dict[str, float]:
        """p50/p99/p999 upper bounds (us) for one operation class."""
        return self._hists[op].percentiles()

    def to_dict(self) -> dict:
        """Canonical JSON-portable form (histograms only -- the stats
        are derivable views for tables, the histograms are the
        mergeable ground truth shipped in run summaries)."""
        return {op: self._hists[op].to_dict() for op in ALL_OPS
                if self._hists[op].count}

    @classmethod
    def from_dict(cls, data) -> "LatencyBook":
        out = cls()
        for op, hist in (data or {}).items():
            restored = Log2Histogram.from_dict(hist)
            out._hists[op] = restored
            # Rebuild the coarse stats view so .stats(op).mean_us keeps
            # working on restored books (min/max are lost; the
            # histogram is the authoritative record).
            stats = out._stats.setdefault(op, LatencyStats())
            stats.count = restored.count
            stats.total_us = restored.total_us
        return out

    @classmethod
    def merged(cls, books: Iterable["LatencyBook"]) -> "LatencyBook":
        out = cls()
        for book in books:
            for op in ALL_OPS:
                out._stats[op].merge(book._stats[op])
                out._hists[op].merge(book._hists[op])
        return out

    def table(self) -> str:
        lines = [f"{'operation':14s} {'count':>8s} {'mean_us':>10s} "
                 f"{'max_us':>10s}"]
        for op in ALL_OPS:
            stats = self._stats[op]
            if not stats.count:
                continue
            lines.append(f"{op:14s} {stats.count:8d} "
                         f"{stats.mean_us:10.2f} {stats.max_us:10.2f}")
        return "\n".join(lines)
