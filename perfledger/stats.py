"""Order statistics with their sample counts stated."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile and the evidence behind it."""

    q: float
    value: float
    #: Samples the percentile was taken over.
    n: int
    #: Samples strictly greater than ``value``.
    beyond: int

    def describe(self, unit: str) -> str:
        return (f"p{self.q:g}={self.value:.4f} {unit} "
                f"(n={self.n}, {self.beyond} beyond)")


def percentile(values, q: float) -> Percentile:
    """Nearest-rank *q*-th percentile of *values* (no interpolation, so
    the reported value is always one that was measured)."""
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for v in ordered[rank:] if v > value)
    return Percentile(q, value, len(ordered), beyond)


def median(values) -> float:
    return float(statistics.median(values))


def windows(latencies_s: list, done_s: list, size: int):
    """Consecutive windows of *size* completions (in completion order):
    yields each window's p99 latency (ms) and throughput (1/s).

    A run shorter than one window is one window.  The leftover partial
    window is dropped.
    """
    n = len(latencies_s)
    size = min(size, n)
    for k in range(n // size):
        lo, hi = k * size, (k + 1) * size
        began = done_s[lo - 1] if lo else 0.0
        yield (percentile([x * 1e3 for x in latencies_s[lo:hi]], 99),
               size / (done_s[hi - 1] - began))


def peak_rss_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of process *pid*, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM of process {pid} is not available")
