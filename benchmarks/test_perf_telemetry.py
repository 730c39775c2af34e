"""Microbenchmark: telemetry overhead on the scheduling hot loop.

The telemetry subsystem promises that instrumentation is boundary-only:
the scheduler's event loop carries no per-event telemetry calls, and
with telemetry *off* every accessor collapses to a global read plus a
branch.  This benchmark holds that promise to numbers:

* the contended scheduling workload from ``test_perf_sched`` is run
  in interleaved passes with telemetry off, metrics and trace; the
  median over passes of each pass's same-host wall-time ratio must stay
  under :data:`OVERHEAD_LIMIT` (the < 5% gate — and since disabled
  mode does strictly less work than metrics mode, it is bounded by the
  same ratio);
* a no-op microbenchmark times ``telemetry.counter()`` /
  ``telemetry.span()`` in disabled mode, pinning the fast path to
  nanoseconds per call;
* ``telemetry.event()`` gets the same no-op gate with metrics off and
  the flight ring disabled, and the scheduling workload with the ring
  enabled gets the same ratio gate.

Results land in ``benchmarks/BENCH_telemetry.json``.  Gates are
same-host ratios, never absolute wall times, so they hold across
differently-sized CI hosts.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro import telemetry
from repro.sched import Scheduler, strategy_by_name

from test_perf_sched import _cluster, _workload

BENCH_PATH = Path(__file__).parent / "BENCH_telemetry.json"

N_JOBS = 5_000
#: Metrics-on (and therefore disabled-mode) overhead on the sched hot
#: loop must stay under 5%.
OVERHEAD_LIMIT = 1.05
#: Disabled accessors must stay in no-op territory (generous bound;
#: measured values are ~0.1 µs/call).
MAX_NOOP_US_PER_CALL = 2.0
N_NOOP_CALLS = 200_000
#: Interleaved passes (off/metrics/trace, and ring off/on), one
#: scheduling run per mode each.  A gate is the median of the per-pass
#: ratios: a pass's modes run back to back, so host drift between
#: passes cancels, and one rare fast outlier cannot decide it the way
#: it decides a best-pass ratio.
REPEATS = 24


def _paired_ratio(slow: list, base: list) -> float:
    """Median over passes of ``slow[i] / base[i]``."""
    return statistics.median(a / b for a, b in zip(slow, base))


def _time_once(jobs) -> float:
    """Wall time of one full scheduling run."""
    sched = Scheduler(strategy_by_name("model", seed=11), _cluster())
    t0 = time.perf_counter()
    sched.run(list(jobs))
    return time.perf_counter() - t0


def test_perf_telemetry_overhead():
    jobs = _workload(N_JOBS)
    results: dict = {}

    try:
        # A few percent is inside one run's host noise, so the modes are
        # timed as interleaved passes and compared pass by pass; the
        # order rotates per pass so no mode always runs first or last.
        telemetry.reset()
        modes = ("off", "metrics", "trace")
        passes: dict = {mode: [] for mode in modes}
        for k in range(REPEATS):
            for mode in modes[k % 3:] + modes[:k % 3]:
                telemetry.configure(mode)
                passes[mode].append(_time_once(jobs))
        t_off, t_metrics, t_trace = map(statistics.median, passes.values())
        overhead_metrics = _paired_ratio(passes["metrics"], passes["off"])
        overhead_trace = _paired_ratio(passes["trace"], passes["off"])
        # Every metrics and trace run really recorded.
        assert telemetry.snapshot()["counters"]["sched.runs"] == 2 * REPEATS
        assert len(telemetry.spans()) == REPEATS

        # --- disabled-mode no-op accessors ----------------------------
        telemetry.configure("off")
        t0 = time.perf_counter()
        for _ in range(N_NOOP_CALLS):
            telemetry.counter("bench.noop").inc()
        counter_us = (time.perf_counter() - t0) / N_NOOP_CALLS * 1e6

        t0 = time.perf_counter()
        for _ in range(N_NOOP_CALLS):
            with telemetry.span("bench.noop"):
                pass
        span_us = (time.perf_counter() - t0) / N_NOOP_CALLS * 1e6
    finally:
        telemetry.configure("off")
        telemetry.reset()

    results["sched_overhead"] = {
        "n_jobs": N_JOBS,
        "repeats": REPEATS,
        "wall_s_off": round(t_off, 4),
        "wall_s_metrics": round(t_metrics, 4),
        "wall_s_trace": round(t_trace, 4),
        "overhead_metrics_vs_off": round(overhead_metrics, 4),
        "overhead_trace_vs_off": round(overhead_trace, 4),
    }
    results["noop_accessors"] = {
        "calls": N_NOOP_CALLS,
        "counter_us_per_call": round(counter_us, 4),
        "span_us_per_call": round(span_us, 4),
    }

    data = {}
    if BENCH_PATH.exists():
        data = json.loads(BENCH_PATH.read_text())
    data.update(results)
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")

    assert overhead_metrics <= OVERHEAD_LIMIT, (
        f"metrics-mode scheduling overhead {overhead_metrics:.3f}x exceeds "
        f"the {OVERHEAD_LIMIT}x gate (off {t_off:.3f}s vs "
        f"metrics {t_metrics:.3f}s)")
    assert overhead_trace <= OVERHEAD_LIMIT, (
        f"trace-mode scheduling overhead {overhead_trace:.3f}x exceeds "
        f"the {OVERHEAD_LIMIT}x gate (boundary-only spans should be "
        f"invisible at run granularity)")
    assert counter_us <= MAX_NOOP_US_PER_CALL, (
        f"disabled counter() costs {counter_us:.2f} µs/call")
    assert span_us <= MAX_NOOP_US_PER_CALL, (
        f"disabled span() costs {span_us:.2f} µs/call")


def test_perf_event_overhead():
    """``telemetry.event`` must be free with both sinks off and
    boundary-cheap with the flight ring on.

    ``telemetry.event`` sits on serve/sched boundary paths that run with
    metrics off and the ring disabled by default, so that call gets the
    same no-op gate as the other accessors.  The enabled ring append is
    O(1) and lock-guarded; the sched workload (one ``sched.runs`` event
    per run) must not move past the 5% gate either.
    """
    jobs = _workload(N_JOBS)
    results: dict = {}

    try:
        telemetry.configure("off")
        telemetry.reset()
        # One event per run cannot move a run by percents, so the ratio
        # is host noise unless the two sides are interleaved: REPEATS
        # passes of ring off then on, compared pass by pass.
        disabled, enabled = [], []
        for _ in range(REPEATS):
            telemetry.flight.disable()
            disabled.append(_time_once(jobs))
            telemetry.flight.enable(512)
            enabled.append(_time_once(jobs))
        t_disabled = statistics.median(disabled)
        t_enabled = statistics.median(enabled)
        overhead = _paired_ratio(enabled, disabled)
        # One sched.runs event per scheduling run really landed.
        assert len(telemetry.flight) == REPEATS

        # --- both sinks off: the no-op event --------------------------
        telemetry.flight.disable()
        t0 = time.perf_counter()
        for _ in range(N_NOOP_CALLS):
            telemetry.event("bench.noop", value=1)
        noop_us = (time.perf_counter() - t0) / N_NOOP_CALLS * 1e6

        # --- ring alone: the append (informational) -------------------
        telemetry.flight.enable(512)
        t0 = time.perf_counter()
        for i in range(N_NOOP_CALLS):
            telemetry.event("bench.append", value=i)
        append_us = (time.perf_counter() - t0) / N_NOOP_CALLS * 1e6
        assert len(telemetry.flight) == 512  # ring stayed bounded
    finally:
        telemetry.flight.disable()
        telemetry.reset()

    results["event"] = {
        "n_jobs": N_JOBS,
        "repeats": REPEATS,
        "wall_s_disabled": round(t_disabled, 4),
        "wall_s_ring": round(t_enabled, 4),
        "overhead_ring_vs_disabled": round(overhead, 4),
        "disabled_event_us_per_call": round(noop_us, 4),
        "ring_append_us_per_call": round(append_us, 4),
    }

    data = {}
    if BENCH_PATH.exists():
        data = json.loads(BENCH_PATH.read_text())
    data.update(results)
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")

    assert overhead <= OVERHEAD_LIMIT, (
        f"enabled flight ring costs {overhead:.3f}x on the sched "
        f"workload (gate {OVERHEAD_LIMIT}x)")
    assert noop_us <= MAX_NOOP_US_PER_CALL, (
        f"disabled telemetry.event() costs {noop_us:.2f} µs/call")
