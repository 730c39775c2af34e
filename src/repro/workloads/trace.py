"""Sampling job traces from the MP-HPC dataset."""

from __future__ import annotations

import numpy as np

from repro.apps.catalog import APPLICATIONS
from repro.arch.machines import SYSTEM_ORDER
from repro.core.predictor import CrossArchPredictor
from repro.dataset.generate import MPHPCDataset
from repro.sched.job import Job

__all__ = ["build_workload", "poisson_arrivals"]


def poisson_arrivals(
    n_jobs: int, rate_per_second: float, seed: int = 0
) -> np.ndarray:
    """Cumulative Poisson-process arrival times (seconds)."""
    if n_jobs < 1 or rate_per_second <= 0:
        raise ValueError("need n_jobs >= 1 and positive rate")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_per_second, size=n_jobs)
    return np.cumsum(gaps)


def build_workload(
    dataset: MPHPCDataset,
    n_jobs: int = 50_000,
    seed: int = 0,
    predictor: CrossArchPredictor | None = None,
    arrival_rate: float | None = None,
    with_uncertainty: bool = False,
) -> list[Job]:
    """Sample *n_jobs* jobs (with replacement) from the dataset.

    Each sampled job corresponds to one (app, input, scale) execution
    group; its per-system runtimes are the group's observed times.  When
    *predictor* is given, each job gets a ``predicted_rpv`` computed
    from the features of one randomly chosen source system's row (batch
    predicted for speed).  ``true_rpv`` is always attached.

    *with_uncertainty* additionally attaches ``rpv_std`` from the
    predictor's ``predict(X, uncertainty=True)`` (for the risk-aware
    strategy).  The mean side of that call is bit-identical to
    ``predict``, so enabling it never changes ``predicted_rpv``.

    *arrival_rate* (jobs/second) switches from the paper's batch
    submission (everything at t=0) to Poisson arrivals.
    """
    if with_uncertainty and predictor is None:
        raise ValueError("with_uncertainty requires a predictor")
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    frame = dataset.frame
    groups = dataset.group_labels()
    uniq, inverse = np.unique(groups.astype(str), return_inverse=True)
    n_groups = len(uniq)

    # Index rows by group, remembering each row's system.
    machine_col = np.array([str(m) for m in frame["machine"]])
    times_col = np.asarray(frame["time_seconds"], dtype=np.float64)
    scale_col = np.array([str(s) for s in frame["scale"]])
    app_col = np.array([str(a) for a in frame["app"]])
    sys_index = {name: i for i, name in enumerate(SYSTEM_ORDER)}

    group_rows: list[list[int]] = [[] for _ in range(n_groups)]
    for row, g in enumerate(inverse):
        group_rows[g].append(row)

    rng = np.random.default_rng(seed)
    picks = rng.integers(0, n_groups, size=n_jobs)
    submit = (
        poisson_arrivals(n_jobs, arrival_rate, seed=seed + 1)
        if arrival_rate is not None
        else np.zeros(n_jobs)
    )

    # Choose a source row per job for prediction and batch-predict.
    source_rows = np.empty(n_jobs, dtype=np.int64)
    for j, g in enumerate(picks):
        rows = group_rows[g]
        source_rows[j] = rows[int(rng.integers(len(rows)))]
    predicted = None
    pred_std = None
    if predictor is not None:
        X = dataset.X()[source_rows]
        if with_uncertainty:
            predicted, pred_std = predictor.predict(X, uncertainty=True)
        else:
            predicted = predictor.predict(X)

    jobs: list[Job] = []
    for j, g in enumerate(picks):
        rows = group_rows[g]
        runtimes = {machine_col[r]: float(times_col[r]) for r in rows}
        any_row = rows[0]
        app_name = app_col[any_row]
        times_vec = np.full(len(SYSTEM_ORDER), np.nan)
        for r in rows:
            times_vec[sys_index[machine_col[r]]] = times_col[r]
        true_rpv = times_vec / np.nanmax(times_vec)
        jobs.append(
            Job(
                job_id=j,
                app=app_name,
                uses_gpu=APPLICATIONS[app_name].gpu_support,
                nodes_required=2 if scale_col[any_row] == "2node" else 1,
                runtimes=runtimes,
                submit_time=float(submit[j]),
                predicted_rpv=None if predicted is None else predicted[j],
                true_rpv=true_rpv,
                rpv_std=None if pred_std is None else pred_std[j],
            )
        )
    return jobs
