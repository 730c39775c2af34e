"""Microbenchmark: fast scheduling engine + flat ensemble inference.

Times the optimized :class:`repro.sched.Scheduler` against the frozen
pre-optimization :class:`repro.sched._reference.ReferenceScheduler` on
a contended 10,000-job workload (verifying bit-identical schedules on
the way), and the flat vectorized ensemble predict against the per-tree
traversal it replaced (verifying exact equality).  Throughput numbers —
scheduling events/sec and prediction rows/sec — are recorded to
``benchmarks/BENCH_sched.json`` so the performance trajectory is
tracked from this PR onward.

Regression gate: the committed ``BENCH_sched.json`` is read *before*
being overwritten; if a measured speedup ratio fell to less than half
its committed value the test fails.  Gating on same-host speedup ratios
(optimized vs reference, measured back to back) rather than absolute
wall times keeps the gate meaningful across differently-sized CI hosts.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.arch.machines import SYSTEM_ORDER
from repro.ml.boosting import GradientBoostedTrees
from repro.sched import ClusterState, Job, Scheduler, strategy_by_name
from repro.sched._reference import ReferenceScheduler

from conftest import record_bench

BENCH_PATH = Path(__file__).parent / "BENCH_sched.json"

N_JOBS = 10_000
#: Minimum fresh-measurement speedups (acceptance criteria floor for
#: the scheduler; the predict path must simply not be slower).
MIN_SCHED_SPEEDUP = 5.0
#: A measured ratio below half its committed value is a regression.
REGRESSION_FACTOR = 2.0


def _workload(n: int, seed: int = 7) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    t = 0.0
    for i in range(n):
        t += float(rng.exponential(4.0))
        rpv = rng.uniform(0.5, 3.0, size=len(SYSTEM_ORDER))
        base = float(rng.uniform(10.0, 600.0))
        jobs.append(Job(
            job_id=i, app="CoMD", uses_gpu=bool(rng.integers(2)),
            nodes_required=int(rng.integers(1, 16)),
            runtimes={s: base * float(r)
                      for s, r in zip(SYSTEM_ORDER, rpv)},
            submit_time=t,
            predicted_rpv=rpv * rng.uniform(0.9, 1.1, size=rpv.shape),
            true_rpv=rpv,
        ))
    return jobs


def _cluster() -> ClusterState:
    # Small enough that queues form and backfilling works hard.
    return ClusterState({s: 32 for s in SYSTEM_ORDER})


def _baseline() -> dict:
    if BENCH_PATH.exists():
        return json.loads(BENCH_PATH.read_text())
    return {}


def test_perf_sched_and_predict():
    results: dict = {}

    # --- scheduler -----------------------------------------------------
    jobs = _workload(N_JOBS)
    t0 = time.perf_counter()
    ref_result = ReferenceScheduler(
        strategy_by_name("model"), _cluster()).run(jobs)
    t_ref = time.perf_counter() - t0

    fast = Scheduler(strategy_by_name("model"), _cluster())
    t0 = time.perf_counter()
    fast_result = fast.run(jobs)
    t_fast = time.perf_counter() - t0

    # Bit-identical schedule before any throughput claims.
    assert np.array_equal(fast_result.job_ids, ref_result.job_ids)
    assert fast_result.machines == ref_result.machines
    assert np.array_equal(fast_result.start_times, ref_result.start_times)
    assert np.array_equal(fast_result.end_times, ref_result.end_times)
    assert fast_result.backfilled == ref_result.backfilled

    sched_speedup = t_ref / t_fast
    events_per_sec = fast.last_run_stats.sched_events / t_fast
    results["sched"] = {
        "n_jobs": N_JOBS,
        "strategy": "model",
        "events_per_sec": round(events_per_sec),
        "wall_s_fast": round(t_fast, 3),
        "wall_s_reference": round(t_ref, 3),
        "speedup_vs_reference": round(sched_speedup, 2),
    }

    # --- ensemble inference -------------------------------------------
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2000, 12))
    Y = rng.normal(size=(2000, len(SYSTEM_ORDER)))
    gbt = GradientBoostedTrees(n_estimators=80, max_depth=5,
                               random_state=0).fit(X, Y)
    Xq = rng.normal(size=(20_000, 12))
    Xb = gbt.binner_.transform(Xq)

    def per_tree():
        pred = np.tile(gbt.base_score_, (Xb.shape[0], 1))
        for round_trees in gbt.trees_:
            for out, tree in enumerate(round_trees):
                pred[:, out] += tree.predict_binned(Xb)[:, 0]
        return pred

    old_pred = per_tree()
    t0 = time.perf_counter()
    old_pred = per_tree()
    t_old = time.perf_counter() - t0

    new_pred = gbt.predict_binned(Xb)  # warm the flat cache
    t0 = time.perf_counter()
    new_pred = gbt.predict_binned(Xb)
    t_new = time.perf_counter() - t0

    assert np.array_equal(old_pred, new_pred)

    predict_speedup = t_old / t_new
    rows_per_sec = Xb.shape[0] / t_new
    results["predict"] = {
        "n_rows": Xb.shape[0],
        "n_trees": sum(len(r) for r in gbt.trees_),
        "rows_per_sec": round(rows_per_sec),
        "wall_s_flat": round(t_new, 4),
        "wall_s_per_tree": round(t_old, 4),
        "speedup_vs_per_tree": round(predict_speedup, 2),
    }

    # --- gates ---------------------------------------------------------
    baseline = _baseline()
    record_bench(results)

    assert sched_speedup >= MIN_SCHED_SPEEDUP, (
        f"scheduler speedup {sched_speedup:.1f}x below the "
        f"{MIN_SCHED_SPEEDUP}x acceptance floor")
    assert predict_speedup >= 1.0, (
        f"flat predict is slower than the per-tree path "
        f"({predict_speedup:.2f}x)")

    for section, key in (("sched", "speedup_vs_reference"),
                         ("predict", "speedup_vs_per_tree")):
        committed = baseline.get(section, {}).get(key)
        if committed is None:
            continue
        measured = results[section][key]
        assert measured * REGRESSION_FACTOR >= committed, (
            f"{section}.{key} regressed >{REGRESSION_FACTOR}x: "
            f"measured {measured} vs committed baseline {committed}")
