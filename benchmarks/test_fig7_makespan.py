"""Figure 7: makespan per machine-assignment strategy.

Paper: Model-based assignment gives the lowest makespan (0.87 h for the
50,000-job workload), followed by User+RR, then Round-Robin and Random
— "reducing makespan by up to 20%".
"""

from __future__ import annotations

from repro.frame import Frame
from repro.sched import Scheduler, makespan, strategy_by_name
from repro.workloads import build_workload

from conftest import PAPER_SCALE, report

#: Jobs in the scheduling workload (paper: 50,000).
N_JOBS = 50_000 if PAPER_SCALE else 10_000
STRATEGIES = ("round_robin", "random", "user_rr", "model", "oracle")


def _run_all(dataset, predictor):
    jobs = build_workload(dataset, n_jobs=N_JOBS, seed=7,
                          predictor=predictor)
    rows = []
    results = {}
    for name in STRATEGIES:
        result = Scheduler(strategy_by_name(name, seed=11)).run(jobs)
        results[name] = result
        rows.append(
            {
                "strategy": name,
                "makespan_hours": makespan(result) / 3600.0,
                "backfilled": result.backfilled,
            }
        )
    return Frame.from_records(rows), results


def test_fig7_makespan(benchmark, bench_dataset, bench_predictor):
    frame, _ = benchmark.pedantic(
        lambda: _run_all(bench_dataset, bench_predictor),
        rounds=1, iterations=1,
    )
    spans = dict(zip(frame["strategy"], frame["makespan_hours"]))
    frame = frame.with_column(
        "reduction_vs_random",
        [1 - s / spans["random"] for s in frame["makespan_hours"]],
    )
    report(
        "fig7_makespan",
        f"Fig. 7 — Makespan per assignment strategy ({N_JOBS} jobs)",
        frame,
        paper_notes="paper: Model best (0.87 h at 50k jobs), then User+RR, "
                    "then RR and Random; up to 20% reduction",
    )
    # Shape: model better than the blind strategies and not worse than
    # User+RR beyond noise.  Makespan is floored by the longest job's
    # best achievable finish, so Model and User+RR can tie when that
    # job is GPU-capable (both place it on a GPU system); the paper's
    # decisive separation shows up in Fig. 8's slowdown metric.
    assert spans["model"] <= spans["user_rr"] * 1.05
    assert spans["model"] < spans["round_robin"]
    assert spans["model"] < spans["random"]
