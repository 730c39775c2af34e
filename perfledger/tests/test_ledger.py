"""Tests of the benchmark's own code (not of the program it measures).

Run with ``python3 -m pytest perfledger/tests -q`` from the repository
root.
"""

from __future__ import annotations

import asyncio
import types

import pytest

from perfledger.fixtures import src_digest
from perfledger.ledger import Ledger, unattributed_pct
from perfledger.serve import closed_loop
from perfledger.stats import percentile, windows


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# percentile
# ----------------------------------------------------------------------
def test_percentile_states_sample_count_and_samples_beyond():
    p = percentile(range(1, 1001), 99)
    assert (p.value, p.n, p.beyond) == (990, 1000, 10)
    assert "n=1000" in p.describe("ms") and "10 beyond" in p.describe("ms")


def test_percentile_of_few_samples_is_the_max_with_none_beyond():
    p = percentile([3.0, 1.0, 2.0], 99)
    assert (p.value, p.n, p.beyond) == (3.0, 3, 0)


def test_percentile_counts_ties_as_not_beyond():
    p = percentile([1, 2, 2, 2, 2], 50)
    assert (p.value, p.beyond) == (2, 0)


def test_windows_give_per_window_p99_and_throughput():
    latencies = [0.001] * 150 + [0.1] * 50
    done = [0.01 * (i + 1) for i in range(200)]
    out = list(windows(latencies, done, 100))
    assert [p.value for p, _ in out] == [1.0, 100.0]
    assert all(p.n == 100 for p, _ in out)
    assert [round(r, 6) for _, r in out] == [100.0, 100.0]
    # Shorter than one window: the whole run is one window.
    (p, r), = windows(latencies[:10], done[:10], 100)
    assert p.n == 10 and round(r, 6) == 100.0


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


# ----------------------------------------------------------------------
# self time and unattributed share
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_covered_child_time():
    clock = FakeClock()
    ledger = Ledger(clock)
    ledger.push("op")
    clock.now = 1.0
    with ledger.span("child"):
        clock.now = 3.0
    with ledger.span("child"):
        with ledger.span("grandchild"):
            clock.now = 4.0
        clock.now = 4.5
    clock.now = 5.0
    assert ledger.pop() == (5.0, 3.5)
    assert ledger.total["op"] == 5.0
    assert ledger.self_time["op"] == 1.5
    assert ledger.calls["child"] == 2
    assert ledger.total["child"] == 3.5
    assert ledger.self_time["child"] == 2.5
    assert ledger.self_time["grandchild"] == 1.0


def test_unattributed_share():
    assert unattributed_pct(10.0, 9.0) == pytest.approx(10.0)
    assert unattributed_pct(4.0, 4.0) == 0.0
    with pytest.raises(ValueError):
        unattributed_pct(0.0, 0.0)


def test_serve_attribution_leaves_only_the_residual_unattributed():
    from perfledger.layers import serve_metrics

    # Two requests of 10 ms each, served by one 2-row flush whose named
    # layers (featurize, predict) took 3 ms; 1 ms of each request is
    # parse + rank + respond, 4 ms is coalesce wait.  One more
    # from_records call came from inside the degrade tier.
    ledger = {
        "calls": {"serve.parse": 2, "sched.rank": 2, "serve.respond": 2,
                  "serve.coalesce_wait": 2, "serve.flush": 1,
                  "frame.from_records": 3, "featurize.derive": 2,
                  "ml.predict": 1},
        "total": {"serve.parse": 0.0006, "sched.rank": 0.0008,
                  "serve.respond": 0.0006, "serve.coalesce_wait": 0.008,
                  "frame.from_records": 0.0006, "featurize.derive": 0.0006,
                  "ml.predict": 0.002},
        "self": {"ml.predict": 0.0015},
        "counts": {"serve.flush_rows": 2, "serve.flush_named_s": 0.006,
                   "ml.predict_rows": 2},
        "absent": [],
    }
    out = serve_metrics(ledger, [0.010, 0.010])
    assert out["serve.coalesce_wait_us"] == pytest.approx(4000)
    # 200 µs per from_records call + 300 µs per derive call
    assert out["serve.featurize_us"] == pytest.approx(500)
    assert out["serve.batch_rows"] == 2
    # covered per request: 0.3 + 0.4 + 0.3 + 4 + 3 = 8 ms of 10 ms
    assert out["serve.other_us"] == pytest.approx(2000)
    assert out["trace.unattributed_pct"] == pytest.approx(20.0)
    assert out["ml.accumulate_us"] == pytest.approx(1500)


def test_wrappers_time_nested_calls_and_restore():
    clock = FakeClock()
    ledger = Ledger(clock)
    mod = types.SimpleNamespace()

    class Model:
        def predict(self, x):
            clock.now += 2.0
            return mod.inner(x) + 1

        @classmethod
        def build(cls, x):
            return cls()

    def inner(x):
        clock.now += 3.0
        return x

    mod.inner = inner
    assert ledger.wrap(mod, "inner", "inner")
    assert ledger.wrap(Model, "predict", "predict",
                       observe=lambda y, args: ledger.count("rows", y))
    assert ledger.wrap(Model, "build", "build")
    model = Model.build(1)
    assert isinstance(model, Model)
    assert model.predict(4) == 5
    assert ledger.counts["rows"] == 5
    assert ledger.total["predict"] == 5.0
    assert ledger.self_time["predict"] == 2.0
    assert ledger.self_time["inner"] == 3.0
    ledger.restore()
    assert mod.inner is inner
    assert Model.predict.__name__ == "predict"
    assert not hasattr(Model.predict, "__wrapped__")
    assert isinstance(Model.__dict__["build"], classmethod)


def test_wrapper_of_a_missing_target_reports_absent():
    ledger = Ledger()
    assert not ledger.wrap(None, "predict", "gone.module")
    assert not ledger.wrap(types.SimpleNamespace(), "nope", "gone.attr")
    assert ledger.to_dict()["absent"] == ["gone.attr", "gone.module"]


def test_sampled_wrapper_counts_every_call_and_times_some():
    ledger = Ledger()

    class Strategy:
        def assign(self, job):
            return job * 2

    strategy = Strategy()
    assert ledger.wrap_sampled(strategy, "assign", "assign", every=4)
    assert [strategy.assign(i) for i in range(10)] == [
        i * 2 for i in range(10)]
    assert ledger.calls["assign"] == 2
    ledger.restore()
    assert ledger.counts["assign"] == 10
    assert "assign" not in vars(strategy)


# ----------------------------------------------------------------------
# closed-loop driver
# ----------------------------------------------------------------------
def test_closed_loop_keeps_exact_counts():
    clock = FakeClock()
    n = 10
    deadline = 25.0

    async def send(session, i):
        await asyncio.sleep(0)
        clock.now += 1.0
        if i == 3:
            raise ConnectionResetError("dropped")
        return (500 if i == 7 else 200), {"i": i}

    def check(i, status, body):
        return status == 200 and body["i"] == i

    tally = asyncio.run(closed_loop(["a", "b"], send, n, deadline, check,
                                    clock=clock))
    # Stops on the first pass boundary after the deadline: 3 passes.
    assert tally.sent == 30
    assert tally.failed == 6  # index 3 (transport) and 7 (status) x3
    assert tally.ok == 24
    assert len(tally.latencies_s) == 27
    assert tally.elapsed_s == clock.now


def test_closed_loop_with_passed_deadline_sends_one_pass():
    async def send(session, i):
        return 200, {}

    tally = asyncio.run(closed_loop(["a", "b"], send, 7, 0.0,
                                    lambda i, s, b: True))
    assert (tally.sent, tally.ok, tally.failed) == (7, 7, 0)


# ----------------------------------------------------------------------
# fixture digest
# ----------------------------------------------------------------------
def test_source_change_invalidates_fixture_digest(tmp_path):
    pkg = tmp_path / "repro"
    (pkg / "ml").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "ml" / "boosting.py").write_text("ROUNDS = 400\n")
    before = src_digest(pkg)
    assert src_digest(pkg) == before
    (pkg / "__pycache__").mkdir()
    (pkg / "__pycache__" / "x.cpython-311.pyc").write_bytes(b"\0")
    assert src_digest(pkg) == before, "bytecode must not change the key"
    (pkg / "ml" / "boosting.py").write_text("ROUNDS = 401\n")
    assert src_digest(pkg) != before
    (pkg / "ml" / "boosting.py").write_text("ROUNDS = 400\n")
    assert src_digest(pkg) == before
    (pkg / "ml" / "new.py").write_text("")
    assert src_digest(pkg) != before


def test_eviction_keeps_recent_versions_and_live_builds(tmp_path):
    import os

    from perfledger.fixtures import evict

    for age, name in enumerate(["d", "c", "b", "a"]):
        (tmp_path / name).mkdir()
        ready = tmp_path / name / "READY"
        ready.write_text("")
        os.utime(ready, (1000 - age, 1000 - age))
    (tmp_path / f"e.tmp{os.getpid()}").mkdir()
    (tmp_path / "f.tmp999999999").mkdir()
    evict(tmp_path, 2)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c", "d", f"e.tmp{os.getpid()}"]


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what the runs print
# ----------------------------------------------------------------------
def test_benchmark_json_lists_every_printed_metric():
    import json
    import re
    from pathlib import Path

    from perfledger.layers import PER_LAYER
    from perfledger.run import END_TO_END, WORKLOADS

    bench = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in bench["workloads"]) == WORKLOADS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for unit in {**END_TO_END, **PER_LAYER}.values():
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
