"""Scheduling evaluation metrics (Section VII-A).

* **Makespan** — total time to finish the whole workload (system
  throughput view, Fig. 7).
* **Average bounded slowdown** — mean over jobs of
  ``max((wait + run) / max(run, bound), 1)`` with a 10-second bound to
  avoid over-penalizing very short jobs (per-job responsiveness view,
  Fig. 8).

Resilience metrics (extensions beyond the paper) read the fault
bookkeeping a failure-aware run leaves in ``result.extra["faults"]``;
on a fault-free result they return their perfect-world values (zero
waste, goodput 1, no retries) so reporting code needs no branching.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

import numpy as np

from repro.sched.simulator import ScheduleResult

__all__ = [
    "makespan",
    "average_bounded_slowdown",
    "average_wait_time",
    "per_machine_job_counts",
    "machine_utilization",
    "utilization_timeline",
    "jain_fairness",
    "wasted_node_seconds",
    "goodput",
    "retry_count",
    "completed_fraction",
    "degraded_prediction_fraction",
    "resilience_summary",
]

#: Standard bounded-slowdown threshold (seconds).
DEFAULT_BOUND = 10.0


def makespan(result: ScheduleResult) -> float:
    """Seconds from the first submission to the last completion."""
    return float(result.end_times.max() - result.submit_times.min())


def average_bounded_slowdown(
    result: ScheduleResult, bound: float = DEFAULT_BOUND
) -> float:
    """Mean bounded slowdown over all jobs."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    wait = result.wait_times
    run = result.runtimes
    slowdown = (wait + run) / np.maximum(run, bound)
    return float(np.maximum(slowdown, 1.0).mean())


def average_wait_time(result: ScheduleResult) -> float:
    """Mean queue wait in seconds."""
    return float(result.wait_times.mean())


def per_machine_job_counts(result: ScheduleResult) -> dict[str, int]:
    """Number of jobs placed on each machine."""
    return dict(Counter(result.machines))


def machine_utilization(
    result: ScheduleResult, node_counts: dict[str, int],
    nodes_per_job: dict[int, int] | None = None,
) -> dict[str, float]:
    """Node-time utilization per machine over the makespan.

    ``sum(job nodes * runtime) / (machine nodes * makespan)`` — the
    standard system-administrator throughput view.  *nodes_per_job*
    maps job id to node count (default: 1 node per job).
    """
    span = makespan(result)
    if span <= 0:
        raise ValueError("degenerate schedule with zero makespan")
    busy: dict[str, float] = {name: 0.0 for name in node_counts}
    for jid, machine, run in zip(result.job_ids, result.machines,
                                 result.runtimes):
        nodes = 1 if nodes_per_job is None else nodes_per_job.get(int(jid), 1)
        if machine not in busy:
            raise KeyError(f"machine {machine!r} not in node_counts")
        busy[machine] += nodes * run
    return {
        name: busy[name] / (node_counts[name] * span)
        for name in node_counts
    }


def utilization_timeline(
    result: ScheduleResult, machine: str, resolution: int = 200,
    nodes_per_job: dict[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Busy-node count over time for one machine.

    Returns ``(times, busy_nodes)`` sampled at *resolution* uniform
    points across the makespan — the data behind a utilization plot.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    t0 = float(result.submit_times.min())
    t1 = float(result.end_times.max())
    times = np.linspace(t0, t1, resolution)
    busy = np.zeros(resolution)
    for jid, m, start, end in zip(result.job_ids, result.machines,
                                  result.start_times, result.end_times):
        if m != machine:
            continue
        nodes = 1 if nodes_per_job is None else nodes_per_job.get(int(jid), 1)
        busy += nodes * ((times >= start) & (times < end))
    return times, busy


def _fault_info(result: ScheduleResult) -> dict:
    return result.extra.get("faults", {})


def wasted_node_seconds(result: ScheduleResult) -> float:
    """Node-seconds of work lost to kills (0 for a fault-free run).

    Checkpointed kills waste nothing: the completed fraction survives
    the restart.
    """
    return float(_fault_info(result).get("wasted_node_seconds", 0.0))


def goodput(
    result: ScheduleResult, nodes_per_job: dict[int, int] | None = None
) -> float:
    """Fraction of consumed node-seconds that produced completed work.

    ``useful / (useful + wasted)`` where useful is the node-time of
    successful (final-attempt) executions and wasted is the node-time
    of killed attempts.  1.0 in a perfect world; degrades with crash
    rate unless checkpointing is on.
    """
    useful = 0.0
    for jid, run in zip(result.job_ids, result.runtimes):
        nodes = 1 if nodes_per_job is None else nodes_per_job.get(int(jid), 1)
        useful += nodes * run
    wasted = wasted_node_seconds(result)
    if useful + wasted <= 0:
        raise ValueError("degenerate schedule with no consumed node-time")
    return float(useful / (useful + wasted))


def retry_count(result: ScheduleResult) -> int:
    """Total resubmissions across all jobs (0 for a fault-free run)."""
    return int(_fault_info(result).get("retries", 0))


def completed_fraction(result: ScheduleResult) -> float:
    """Jobs that finished / jobs submitted (1.0 unless a finite
    ``RetryPolicy.max_attempts`` abandoned some)."""
    failed = len(_fault_info(result).get("failed_jobs", ()))
    total = result.num_jobs + failed
    if total == 0:
        raise ValueError("empty schedule result")
    return result.num_jobs / total


def degraded_prediction_fraction(tier_counts: Mapping[str, int]) -> float:
    """Fraction of predictions served below the full-model tier.

    *tier_counts* maps degradation tier name to usage count — e.g.
    :attr:`repro.resilience.ResilientPredictor.tier_counts`.  0.0 when
    nothing was predicted (nothing degraded either).
    """
    from repro.resilience.degrade import degraded_fraction_of

    return degraded_fraction_of(tier_counts)


def resilience_summary(result: ScheduleResult) -> dict[str, float]:
    """One-line fault report: the numbers an operator would page on."""
    info = _fault_info(result)
    return {
        "node_failures": int(info.get("node_failures", 0)),
        "job_crashes": int(info.get("job_crashes", 0)),
        "preemptions": int(info.get("preemptions", 0)),
        "retries": retry_count(result),
        "failed_jobs": len(info.get("failed_jobs", ())),
        "wasted_node_seconds": wasted_node_seconds(result),
        "goodput": goodput(result),
        "completed_fraction": completed_fraction(result),
    }


def jain_fairness(result: ScheduleResult, bound: float = DEFAULT_BOUND) -> float:
    """Jain's fairness index over per-job bounded slowdowns.

    1.0 means every job experienced identical slowdown; 1/n means one
    job absorbed everything.  A per-user-experience complement to the
    paper's average bounded slowdown.
    """
    wait = result.wait_times
    run = result.runtimes
    slowdown = np.maximum((wait + run) / np.maximum(run, bound), 1.0)
    return float(slowdown.sum() ** 2 / (len(slowdown) * (slowdown**2).sum()))
