"""The per-layer performance ledger: one command, three workloads.

    python3 perfledger/run.py --workload serve-records --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` times the end-to-end metrics with no wrapper installed;
``--trace 1`` runs half the time untraced and half with the layer
wrappers, and reports the per-layer metrics.  Every metric is printed
by name with its unit; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Fixtures (model,
shard cache, native kernel, bytecode) are built on first use, before
any timed phase.  See ``perfledger/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfledger import layers  # noqa: E402
from perfledger.fixtures import (  # noqa: E402
    TRAIN_DATASETS,
    Fixtures,
    dataset_seeds,
    model_path,
    src_digest,
)
from perfledger.ledger import unattributed_pct  # noqa: E402
from perfledger.stats import (  # noqa: E402
    median,
    peak_rss_mb,
    percentile,
    windows,
)

WORKLOADS = ("serve-records", "fig7-study", "train-warm")
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "p50_ms": "ms",
              "rps": "1/s"}
#: Set-ups timed per run; setup_s is their median.
SETUPS = 3
#: serve-records reports p99 and throughput per window of this many
#: requests (so each p99 has 10 samples beyond it), median over the
#: run's windows: one burst of host noise then moves one window, not
#: the run.
WINDOW = 1000


def windowed(tally) -> tuple[float, float, list]:
    """Median window p99 (ms) and throughput (1/s), and the windows."""
    per_window = list(windows(tally.latencies_s, tally.done_s, WINDOW))
    return (median(p.value for p, _ in per_window),
            median(r for _, r in per_window), per_window)


def host_probe_ms() -> float:
    """A fixed pure-Python reference loop; it moves only with the host."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


class Run:
    """What one run measured, checked and noted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []
        self.fingerprint = None

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"FAILED x{count}: {why}")


# ----------------------------------------------------------------------
# serve-records
# ----------------------------------------------------------------------
def run_serve(fx: Fixtures, seed: int, seconds: float, trace: bool) -> Run:
    from perfledger import serve

    run = Run()
    workload = serve.Workload(seed, model_path(fx.dir))

    def load(server, secs):
        try:
            warm, tally, cpu_s = asyncio.run(
                serve.load_phase(server, workload, secs))
            rss = peak_rss_mb(server.proc.pid)
        finally:
            server.stop()
        run.attempted += warm.sent + tally.sent
        run.fail(warm.failed + tally.failed,
                 "answers not 200, wrong tier, or not bit-equal offline")
        return warm, tally, cpu_s, rss

    if not trace:
        servers = [serve.Server(fx)]
        for _ in range(SETUPS - 1):
            servers[-1].stop()
            servers.append(serve.Server(fx))
        warm, tally, cpu_s, rss = load(servers[-1], seconds)
        ms = [t * 1e3 for t in tally.latencies_s]
        p99, rps, per_window = windowed(tally)
        run.metrics = {
            "setup_s": median(s.setup_s for s in servers),
            "peak_rss_mb": rss,
            "p50_ms": median(ms),
            "rps": rps,
        }
        run.notes += [
            f"requests: {tally.sent} in {tally.sent // serve.PAYLOADS} "
            f"passes of {serve.PAYLOADS} payloads, "
            f"{tally.ok / tally.elapsed_s:.2f}/s overall, "
            f"whole-run {percentile(ms, 99).describe('ms')}, "
            f"median window p99={p99:.4f} ms",
            *(f"window {k}: {p.describe('ms')}, {r:.2f}/s"
              for k, (p, r) in enumerate(per_window)),
        ]
        return run

    _, plain, _, _ = load(serve.Server(fx), seconds / 2)
    ledger_path = fx.dir / f"serve-ledger-{os.getpid()}.json"
    try:
        warm, tally, cpu_s, _ = load(
            serve.Server(fx, traced_ledger=ledger_path),
            seconds / 2)
        ledger = json.loads(ledger_path.read_text())
    finally:
        ledger_path.unlink(missing_ok=True)
    run.metrics = layers.serve_metrics(
        ledger, warm.latencies_s + tally.latencies_s)
    run.metrics["client.us_per_req"] = cpu_s * 1e6
    run.metrics["serve.p99_ms"] = windowed(plain)[0]
    run.metrics["trace.overhead_pct"] = 100.0 * (
        median(tally.latencies_s) / median(plain.latencies_s) - 1)
    run.metrics["trace.absent_layers"] = len(ledger["absent"])
    run.notes += [f"absent layer: {name}" for name in ledger["absent"]]
    return run


# ----------------------------------------------------------------------
# fig7-study and train-warm (worker processes)
# ----------------------------------------------------------------------
def spawn_worker(fx: Fixtures, workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it once ready, with its set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfledger" / "worker.py"), workload,
         "--seed", str(seed), "--fixtures", str(fx.dir),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        env=fx.env(), text=True, stdin=subprocess.PIPE,
        stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload} worker failed during set-up")
    return proc, time.perf_counter() - t0


def run_worker(fx: Fixtures, workload: str, seed: int, seconds: float,
               trace: bool) -> Run:
    run = Run()
    if workload == "train-warm":
        fx.prefill(dataset_seeds(seed))
    setups = []
    for k in range(1 if trace else SETUPS):
        proc, setup_s = spawn_worker(fx, workload, seed, seconds, trace)
        setups.append(setup_s)
        if k < SETUPS - 1 and not trace:
            proc.communicate("exit\n", timeout=60)
    try:
        out, _ = proc.communicate("go\n", timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    phases = result["phases"]

    fingerprints = [f for p in phases for f in p["fingerprints"]]
    run.fingerprint = fingerprints[0]
    run.attempted = len(fingerprints)
    failures = [f for p in phases for f in p["failures"]]
    run.fail(sum(1 for f in failures if f), "; ".join(
        sorted({msg for f in failures for msg in f})))
    run.fail(sum(1 for f in fingerprints if f != run.fingerprint),
             "an op's outputs differ from the first op's")
    if workload == "fig7-study":
        below = run.fingerprint["model_makespan_below_blind"]
        run.notes.append(
            f"makespan(model) = {run.fingerprint['makespan_h']:.4f} h, "
            f"{'' if below else 'not '}below round_robin's and random's")

    ops = phases[-1]["ops_s"]
    if not trace:
        p99 = percentile([s * 1e3 for s in ops], 99)
        run.metrics = {
            "setup_s": median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "p50_ms": median(ops) * 1e3,
            "rps": len(ops) / sum(ops),
        }
        run.notes.append(f"ops: {p99.describe('ms')}; op times (s): "
                         + " ".join(f"{t:.3f}" for t in ops))
        return run

    ledger = phases[1]["ledger"]
    if workload == "fig7-study":
        run.metrics = layers.fig7_metrics(ledger, len(ops))
        run.metrics["sched.makespan_h"] = run.fingerprint["makespan_h"]
        covered = layers.fig7_covered_s(ledger)
    else:
        run.metrics = layers.train_metrics(ledger,
                                           len(ops) * TRAIN_DATASETS)
        run.metrics["eval.test_mae"] = sum(
            run.fingerprint["test_mae"]) / TRAIN_DATASETS
        covered = layers.train_covered_s(ledger)
    run.metrics["trace.unattributed_pct"] = unattributed_pct(sum(ops),
                                                             covered)
    run.metrics["trace.overhead_pct"] = 100.0 * (
        median(ops) / median(phases[0]["ops_s"]) - 1)
    run.metrics["trace.absent_layers"] = len(ledger["absent"])
    run.notes += [f"absent layer: {name}" for name in ledger["absent"]]
    return run


def check_record(fx: Fixtures, key: str, run: Run) -> None:
    """Outputs of one seed must repeat across runs of the same program
    and benchmark (the key carries the benchmark's own digest; the
    fixture directory, the program's)."""
    if run.fingerprint is None:
        return
    path = fx.dir / "records.json"
    records = json.loads(path.read_text()) if path.is_file() else {}
    if key not in records:
        records[key] = run.fingerprint
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
        os.replace(tmp, path)
    elif records[key] != run.fingerprint:
        run.fail(1, f"outputs differ from an earlier run of {key}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    fx = Fixtures(ROOT)
    # Before numpy or the program is imported in this process: thread
    # pins, and the native kernel cache inside the fixture directory
    # (the offline serve reference predicts here).
    os.environ.update(fx.env())
    fx.ensure()
    probes = [host_probe_ms() for _ in range(3)]
    if args.workload == "serve-records":
        run = run_serve(fx, args.seed, args.seconds, bool(args.trace))
    else:
        run = run_worker(fx, args.workload, args.seed, args.seconds,
                         bool(args.trace))
    bench = src_digest(ROOT / "perfledger")[:16]
    check_record(fx, f"{args.workload}/{args.seed}/{bench}", run)
    probes += [host_probe_ms() for _ in range(3)]

    if args.trace:
        units = layers.PER_LAYER
        metrics = dict.fromkeys(units, 0.0)
        metrics.update(run.metrics)
        metrics["host.probe_ms"] = median(probes)
    else:
        units = END_TO_END
        metrics = run.metrics
    run.notes.append(f"host.probe_ms={median(probes):.3f} "
                     f"(before {min(probes[:3]):.3f}, "
                     f"after {min(probes[3:]):.3f})")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    for note in run.notes:
        print(f"{args.workload} {note}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
