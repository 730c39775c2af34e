"""Figure 9 (extension): scheduling onto a machine the model never saw.

Leave-one-machine-out acceptance experiment for the descriptor-
conditioned stack: the zero-shot head trains with Corona **completely
absent** (neither source nor target rows), then schedules a workload
that includes Corona using only Corona's machine descriptor.  The
claim being validated: descriptor-conditioned placement beats blind
round-robin on the held-out machine, and the risk-aware strategy —
which widens its tie margin by the head's own predictive spread — is
no worse than trusting the zero-shot point estimates outright.

This is the generalization mode the fixed 4-slot RPV head cannot even
attempt: its output dimensions ARE the training machines.
"""

from __future__ import annotations

import numpy as np

from repro.arch.descriptor import descriptor_from_spec
from repro.arch.machines import MACHINES, SYSTEM_ORDER
from repro.core.zeroshot import DescriptorConditionedPredictor
from repro.dataset.longform import build_longform
from repro.frame import Frame
from repro.sched import Scheduler, makespan, strategy_by_name
from repro.workloads import build_workload

from conftest import PAPER_SCALE, report

HOLDOUT = "Corona"
N_JOBS = 20_000 if PAPER_SCALE else 5_000
STRATEGIES = ("round_robin", "model", "risk-aware", "oracle")


class ZeroShotRPVAdapter:
    """Presents the descriptor-conditioned head through the 4-slot
    predictor interface :func:`build_workload` expects.

    ``predict`` returns each job's rel-time against every machine in
    canonical order — same smaller-is-faster semantics the strategies
    argsort, so the whole scheduling stack runs unmodified on zero-shot
    scores (including for the machine the head never trained on).
    """

    def __init__(self, head: DescriptorConditionedPredictor):
        self.head = head
        self.descriptors = [
            descriptor_from_spec(MACHINES[name]) for name in SYSTEM_ORDER
        ]

    def predict(self, X: np.ndarray, *, uncertainty: bool = False):
        return self.head.predict_wide(X, self.descriptors,
                                      uncertainty=uncertainty)


def _train_holdout_head(dataset) -> DescriptorConditionedPredictor:
    longform = build_longform(dataset).exclude_machine(HOLDOUT)
    return DescriptorConditionedPredictor.train(
        longform, n_estimators=80, max_depth=5, n_quantile_rounds=40,
    )


def _run_all(dataset):
    head = _train_holdout_head(dataset)
    assert HOLDOUT not in head.train_targets
    jobs = build_workload(dataset, n_jobs=N_JOBS, seed=9,
                          predictor=ZeroShotRPVAdapter(head),
                          with_uncertainty=True)
    rows = []
    for name in STRATEGIES:
        result = Scheduler(strategy_by_name(name, seed=11)).run(jobs)
        rows.append({
            "strategy": name,
            "makespan_hours": makespan(result) / 3600.0,
            "backfilled": result.backfilled,
        })
    return Frame.from_records(rows), jobs


def test_fig9_holdout_machine(benchmark, bench_dataset):
    frame, jobs = benchmark.pedantic(
        lambda: _run_all(bench_dataset), rounds=1, iterations=1,
    )
    spans = dict(zip(frame["strategy"], frame["makespan_hours"]))
    frame = frame.with_column(
        "reduction_vs_rr",
        [1 - s / spans["round_robin"] for s in frame["makespan_hours"]],
    )
    # Per-machine predictive spread — largest on the held-out machine
    # is the expected (not asserted) shape; what IS load-bearing is
    # that every job carries a finite non-null spread for Corona.
    stds = np.vstack([job.rpv_std for job in jobs])
    holdout_idx = list(SYSTEM_ORDER).index(HOLDOUT)
    assert np.isfinite(stds[:, holdout_idx]).all()
    spread_note = ", ".join(
        f"{name}={stds[:, i].mean():.3f}"
        for i, name in enumerate(SYSTEM_ORDER)
    )
    report(
        "fig9_holdout_machine",
        f"Fig. 9 (ext) — Makespan with {HOLDOUT} held out of training "
        f"({N_JOBS} jobs, zero-shot descriptors)",
        frame,
        paper_notes="extension: leave-one-machine-out; mean rel-time "
                    f"spread per machine: {spread_note}",
    )
    # The acceptance bar: descriptor-conditioned placement (point
    # estimates or risk-aware) beats blind round-robin even though one
    # of the four machines was never in the training set.
    assert spans["model"] < spans["round_robin"]
    assert spans["risk-aware"] < spans["round_robin"]
    # And trusting spreads must not cost more than a small overhead
    # relative to trusting the point estimates blindly.
    assert spans["risk-aware"] <= spans["model"] * 1.10
