"""Worker process of the fig7-study and train-warm workloads.

``worker.py <workload> --seed N --fixtures DIR [--seconds S --trace T]``
sets up (imports and fixture loads), prints ``ready``, and waits for one
line on stdin: ``go`` runs the timed ops and prints one JSON result
line, anything else exits.  ``worker.py prefill --seed N`` fills the
shard cache for one dataset seed and exits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfledger import layers  # noqa: E402
from perfledger.fixtures import (  # noqa: E402
    INPUTS_PER_APP,
    PRODUCTION_SEED,
    dataset_seeds,
    model_path,
)
from perfledger.ledger import Ledger  # noqa: E402
from perfledger.stats import peak_rss_mb  # noqa: E402

#: Jobs in one Fig. 7 scheduling study.
STUDY_JOBS = 10_000
#: Seed of every strategy instance (the Fig. 7 benchmark's choice).
STRATEGY_SEED = 11
#: One ``assign`` call in this many is timed: the scheduler makes
#: millions per study, each well under a microsecond.
ASSIGN_SAMPLE = 16
#: Boosting rounds of one train-warm op.  Each round still grows one
#: production-shaped (depth-9, multi-output) tree.
TRAIN_ROUNDS = 10
#: Test share of the train-warm split.
TEST_FRACTION = 0.1


def schedule_digest(result) -> str:
    """SHA-256 over placements and exact IEEE-754 times of a schedule."""
    h = hashlib.sha256("\0".join(result.machines).encode())
    for arr in (result.job_ids, result.submit_times, result.start_times,
                result.end_times):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def bounded_slowdown(result, bound_s: float = 10.0) -> float:
    """Mean bounded slowdown (the Fig. 8 metric) of a schedule."""
    run = np.asarray(result.runtimes, dtype=np.float64)
    wait = np.asarray(result.start_times) - np.asarray(result.submit_times)
    return float(np.maximum((wait + run) / np.maximum(run, bound_s),
                            1.0).mean())


class Fig7Study:
    """One op = build a 10 000-job workload, schedule it five ways."""

    def __init__(self, fixtures: Path, seed: int):
        from repro.core import CrossArchPredictor
        from repro.dataset import generate_dataset

        self.seed = seed
        self.dataset = generate_dataset(
            inputs_per_app=INPUTS_PER_APP, seed=PRODUCTION_SEED,
            cache_dir=fixtures / "shards")
        self.predictor = CrossArchPredictor.load(model_path(fixtures))

    def install(self, ledger: Ledger) -> None:
        layers.install_predict(ledger)

    def op(self, ledger: Ledger, traced: bool) -> dict:
        from repro.sched import Scheduler
        from repro.sched.strategies import strategy_by_name
        from repro.workloads import build_workload

        with ledger.span("workloads.build"):
            jobs = build_workload(self.dataset, STUDY_JOBS, self.seed,
                                  predictor=self.predictor)
        results = {}
        for name in layers.STRATEGIES:
            strategy = strategy_by_name(name, seed=STRATEGY_SEED)
            if traced:
                ledger.wrap_sampled(strategy, "assign", "sched.assign",
                                    every=ASSIGN_SAMPLE)
            scheduler = Scheduler(strategy)
            with ledger.span(f"sched.run.{name}"):
                results[name] = scheduler.run(jobs)
            stats = scheduler.last_run_stats
            ledger.count(f"sched.events.{name}", stats.wakeups + stats.starts)
        return results

    def check(self, results: dict) -> tuple[dict, list[str]]:
        """The op's fingerprint, and the checks it failed."""
        makespan = {name: float(r.end_times.max() - r.submit_times.min())
                    for name, r in results.items()}
        slowdown = {name: bounded_slowdown(r) for name, r in results.items()}
        failures = [
            f"bounded slowdown of model {slowdown['model']:.4f} is not "
            f"below {blind} {slowdown[blind]:.4f}"
            for blind in ("round_robin", "random")
            if not slowdown["model"] < slowdown[blind]
        ]
        fingerprint = {
            "digests": {name: schedule_digest(r)
                        for name, r in results.items()},
            "makespan_h": makespan["model"] / 3600.0,
            "model_makespan_below_blind": all(
                makespan["model"] < makespan[b]
                for b in ("round_robin", "random")),
        }
        return fingerprint, failures


class TrainWarm:
    """One op = for each dataset of the run's seed: load it from the warm
    cache, train, evaluate."""

    def __init__(self, fixtures: Path, seed: int):
        from repro.core import CrossArchPredictor
        from repro.dataset import generate_dataset

        self.generate = generate_dataset
        self.train = CrossArchPredictor.train
        self.shards = fixtures / "shards"
        self.seeds = dataset_seeds(seed)

    def install(self, ledger: Ledger) -> None:
        layers.install_train(ledger)

    def op(self, ledger: Ledger, traced: bool) -> list[float]:
        return [self.train_eval(ledger, seed) for seed in self.seeds]

    def train_eval(self, ledger: Ledger, seed: int) -> float:
        """Test-split MAE of the model trained on dataset *seed*."""
        with ledger.span("dataset.generate"):
            ds = self.generate(inputs_per_app=INPUTS_PER_APP, seed=seed,
                               cache_dir=self.shards)
        order = np.random.default_rng(seed).permutation(ds.num_rows)
        n_test = int(round(ds.num_rows * TEST_FRACTION))
        test, train = np.sort(order[:n_test]), np.sort(order[n_test:])
        with ledger.span("ml.fit"):
            predictor = self.train(ds, "xgboost", rows=train,
                                   n_estimators=TRAIN_ROUNDS)
        with ledger.span("eval.predict"):
            pred = predictor.predict(ds.X()[test])
        return float(np.abs(pred - ds.Y()[test]).mean())

    def check(self, maes: list[float]) -> tuple[dict, list[str]]:
        failures = [f"test MAE is {mae}" for mae in maes
                    if not np.isfinite(mae)]
        return {"test_mae": maes}, failures


WORKLOADS = {"fig7-study": Fig7Study, "train-warm": TrainWarm}


def run_ops(workload, seconds: float, traced: bool) -> dict:
    """Run whole ops until *seconds* have passed (at least one op)."""
    ledger = Ledger()
    if traced:
        workload.install(ledger)
    ops_s, fingerprints, failures = [], [], []
    deadline = time.perf_counter() + seconds
    while not ops_s or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        out = workload.op(ledger, traced)
        ops_s.append(time.perf_counter() - t0)
        fingerprint, failed = workload.check(out)
        fingerprints.append(fingerprint)
        failures.append(failed)
    ledger.restore()
    return {"ops_s": ops_s, "fingerprints": fingerprints,
            "failures": failures, "ledger": ledger.to_dict()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=[*WORKLOADS, "prefill"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--fixtures", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "prefill":
        from repro.dataset import generate_dataset

        generate_dataset(inputs_per_app=INPUTS_PER_APP, seed=args.seed,
                         cache_dir=args.fixtures / "shards")
        return 0
    workload = WORKLOADS[args.workload](args.fixtures, args.seed)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    phases = ([run_ops(workload, args.seconds / 2, False),
               run_ops(workload, args.seconds / 2, True)]
              if args.trace else [run_ops(workload, args.seconds, False)])
    print(json.dumps({"phases": phases, "peak_rss_mb": peak_rss_mb()}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
