"""Telemetry subsystem: spans, metrics, merging, and CLI integration.

Pins the subsystem's contracts:

* spans nest, close exception-safely (recording ``error=True``), and
  work as decorators — including functions decorated while telemetry
  was still off;
* histogram bucket edges follow upper-edge-inclusive (Prometheus
  ``le``) semantics, and merging is exact with matching edges / a typed
  error otherwise;
* metrics merged across ``repro.parallel`` worker processes equal the
  sequential run's numbers for deterministic workloads;
* ``SimStats`` / ``CacheStats`` keep their pinned schemas;
* the CLI round-trip: ``--telemetry trace`` writes manifest-inventoried
  ``trace.json``/``metrics.json`` and ``repro report <run-dir>``
  renders them.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.errors import TelemetryError
from repro.sched.simulator import SimStats
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.spans import Tracer


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with telemetry off and empty."""
    telemetry.configure("off")
    telemetry.reset()
    yield
    telemetry.configure("off")
    telemetry.reset()


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
class TestSpans:
    def test_nesting_records_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans()
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_siblings_share_a_parent(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, parent = tracer.spans()
        assert a.parent_id == parent.span_id
        assert b.parent_id == parent.span_id

    def test_span_closes_and_flags_error_when_body_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.spans()
        assert span.error is True
        assert span.error_type == "RuntimeError"
        assert span.end_ns >= span.start_ns
        # The stack unwound: a new span is again a root.
        with tracer.span("next"):
            pass
        assert tracer.spans()[-1].parent_id is None

    def test_durations_are_monotonic_and_attrs_kept(self):
        tracer = Tracer()
        with tracer.span("timed", shards=3) as sp:
            sp.annotate(rows=12)
        (span,) = tracer.spans()
        assert span.duration_ns >= 0
        assert span.duration_s >= 0.0
        assert span.attrs == {"shards": 3, "rows": 12}

    def test_decorator_form(self):
        tracer = Tracer()

        @tracer.span("work", kind="test")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert work(2) == 3
        spans = tracer.spans()
        assert [s.name for s in spans] == ["work", "work"]
        assert spans[0].attrs == {"kind": "test"}

    def test_decorator_applied_while_disabled_activates_later(self):
        tracer = Tracer(enabled=False)

        @tracer.span("late")
        def work():
            return 42

        assert work() == 42
        assert tracer.spans() == []
        tracer.enabled = True
        assert work() == 42
        assert [s.name for s in tracer.spans()] == ["late"]

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ghost"):
            pass
        assert tracer.spans() == []

    def test_module_level_span_obeys_mode(self):
        with telemetry.span("off-mode"):
            pass
        assert telemetry.spans() == []
        telemetry.configure("trace")
        with telemetry.span("on-mode"):
            pass
        assert [s.name for s in telemetry.spans()] == ["on-mode"]

    def test_metrics_mode_does_not_trace(self):
        telemetry.configure("metrics")
        with telemetry.span("not-recorded"):
            pass
        assert telemetry.spans() == []


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(TelemetryError, match="negative"):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("rows")
        g.set(10)
        g.set(3)
        assert g.value == 3.0

    def test_histogram_bucket_edges(self):
        h = Histogram("lat", (1.0, 10.0, 100.0))
        # Upper-edge-inclusive: v == edge lands in that edge's bucket.
        for value, bucket in ((0.5, 0), (1.0, 0), (1.5, 1), (10.0, 1),
                              (99.0, 2), (100.0, 2), (101.0, 3)):
            before = list(h.counts)
            h.observe(value)
            after = list(h.counts)
            changed = [i for i in range(len(after))
                       if after[i] != before[i]]
            assert changed == [bucket], (value, changed)
        assert h.count == 7
        assert h.counts == [2, 2, 2, 1]
        assert h.sum == pytest.approx(0.5 + 1 + 1.5 + 10 + 99 + 100 + 101)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(TelemetryError, match="strictly"):
            Histogram("bad", (1.0, 1.0))
        with pytest.raises(TelemetryError, match="bucket"):
            Histogram("empty", ())

    def test_histogram_merge_exact(self):
        a = Histogram("h", (1.0, 2.0))
        b = Histogram("h", (1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.sum == pytest.approx(11.0)
        assert a.state()["min"] == 0.5
        assert a.state()["max"] == 9.0

    def test_histogram_merge_mismatched_edges_raises(self):
        a = Histogram("h", (1.0, 2.0))
        b = Histogram("h", (1.0, 3.0))
        with pytest.raises(TelemetryError, match="mismatched bucket"):
            a.merge(b)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TelemetryError, match="Counter"):
            reg.gauge("x")

    def test_histogram_bucket_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1.0, 2.0))
        with pytest.raises(TelemetryError, match="already exists"):
            reg.histogram("h", (1.0, 3.0))

    def test_snapshot_and_merge_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(7)
        reg.histogram("h", (1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 7.0}
        assert snap["histograms"]["h"]["counts"] == [1, 0]
        other = MetricsRegistry()
        other.merge_snapshot(snap)
        other.merge_snapshot(snap)
        merged = other.snapshot()
        assert merged["counters"] == {"c": 4}
        assert merged["histograms"]["h"]["counts"] == [2, 0]

    def test_snapshot_is_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h", (1.0,)).observe(2.0)
        json.dumps(reg.snapshot())  # must not raise

    def test_disabled_accessors_return_shared_null_metric(self):
        assert telemetry.counter("a") is telemetry.NULL_METRIC
        assert telemetry.gauge("b") is telemetry.NULL_METRIC
        assert telemetry.histogram("c") is telemetry.NULL_METRIC
        telemetry.counter("a").inc()
        telemetry.histogram("c").observe(1.0)
        telemetry.configure("metrics")
        assert telemetry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_unknown_mode_rejected(self):
        with pytest.raises(TelemetryError, match="unknown telemetry mode"):
            telemetry.configure("verbose")


# ---------------------------------------------------------------------------
# Cross-process merging via repro.parallel
# ---------------------------------------------------------------------------
def _metric_task(n: int) -> int:
    """Module-level worker: deterministic metric updates per task."""
    telemetry.counter("xp.tasks").inc()
    telemetry.counter("xp.total").inc(n)
    telemetry.histogram("xp.size", (2.0, 8.0)).observe(float(n))
    return n * n


class TestCrossProcessMerge:
    def test_jobs2_snapshot_equals_jobs1(self):
        from repro.parallel import run_tasks

        tasks = [1, 2, 3, 4, 5, 6, 7, 8]

        telemetry.configure("metrics")
        telemetry.reset()
        seq = run_tasks(_metric_task, tasks, jobs=1)
        seq_snap = telemetry.snapshot()

        telemetry.reset()
        par = run_tasks(_metric_task, tasks, jobs=2)
        par_snap = telemetry.snapshot()

        assert par == seq
        assert par_snap == seq_snap
        assert par_snap["counters"] == {"xp.tasks": 8, "xp.total": 36}
        assert par_snap["histograms"]["xp.size"]["counts"] == [2, 6, 0]

    def test_pool_path_untouched_when_telemetry_off(self):
        from repro.parallel import run_tasks

        results = run_tasks(_metric_task, [3, 4], jobs=2)
        assert results == [9, 16]
        telemetry.configure("metrics")
        assert telemetry.snapshot()["counters"] == {}


# ---------------------------------------------------------------------------
# Typed stats dataclasses
# ---------------------------------------------------------------------------
class TestSimStats:
    def test_key_schema_pinned(self):
        assert SimStats.KEYS == (
            "wakeups", "starts", "backfilled", "retries", "sched_events"
        )

    def test_derived_sched_events_and_dict_access(self):
        stats = SimStats(wakeups=10, starts=7, backfilled=2, retries=1)
        assert stats.sched_events == 17
        assert stats.backfilled == 2
        assert stats.as_dict() == {
            "wakeups": 10, "starts": 7, "backfilled": 2,
            "retries": 1, "sched_events": 17,
        }
        # Dict-style reads go through as_dict(); the stats object itself
        # is not subscriptable.
        with pytest.raises(TypeError):
            stats["sched_events"]

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SimStats().wakeups = 5

    def test_scheduler_fills_simstats(self):
        import numpy as np

        from repro.sched import ClusterState, Job, Scheduler
        from repro.sched.strategies import RoundRobinStrategy

        jobs = [
            Job(job_id=i, app="CoMD", uses_gpu=False, nodes_required=1,
                runtimes={"Quartz": 60.0, "Ruby": 60.0, "Lassen": 60.0,
                          "Corona": 60.0},
                submit_time=float(i),
                predicted_rpv=np.ones(4), true_rpv=np.ones(4))
            for i in range(5)
        ]
        sched = Scheduler(RoundRobinStrategy(), ClusterState())
        sched.run(jobs)
        stats = sched.last_run_stats
        assert isinstance(stats, SimStats)
        assert stats.starts == 5
        assert stats.sched_events == stats.wakeups + stats.starts


class TestCacheStats:
    def test_merge_and_since(self):
        from repro.dataset.store import CacheStats

        a = CacheStats(hits=1, misses=2, evictions=0)
        b = CacheStats(hits=3, misses=1, evictions=2)
        assert a.merge(b) is a
        assert a.as_dict() == {"hits": 4, "misses": 3, "evictions": 2}
        delta = a.since(CacheStats(hits=1, misses=1, evictions=1))
        assert delta == CacheStats(hits=3, misses=2, evictions=1)

    def test_generate_dataset_returns_cache_stats(self, tmp_path):
        from repro.dataset import generate_dataset
        from repro.dataset.store import CacheStats

        kwargs = dict(inputs_per_app=1, seed=3, apps=["CoMD"],
                      cache_dir=tmp_path / "cache")
        cold = generate_dataset(**kwargs)
        assert isinstance(cold.cache_stats, CacheStats)
        assert cold.cache_stats.hits == 0
        assert cold.cache_stats.misses > 0
        warm = generate_dataset(**kwargs)
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.hits == cold.cache_stats.misses
        # Cacheless generation reports no stats at all.
        plain = generate_dataset(inputs_per_app=1, seed=3, apps=["CoMD"])
        assert plain.cache_stats is None

    def test_cache_stats_feed_telemetry_counters(self, tmp_path):
        from repro.dataset import generate_dataset

        telemetry.configure("metrics")
        generate_dataset(inputs_per_app=1, seed=3, apps=["CoMD"],
                         cache_dir=tmp_path / "cache")
        counters = telemetry.snapshot()["counters"]
        assert counters["dataset.cache.misses"] > 0
        assert counters["dataset.cache.hits"] == 0
        assert counters["dataset.shards.generated"] > 0


# ---------------------------------------------------------------------------
# Exporters and report rendering
# ---------------------------------------------------------------------------
class TestExport:
    def _spans(self):
        tracer = Tracer()
        with tracer.span("outer", phase="x"):
            with tracer.span("inner"):
                pass
        return tracer.spans()

    def test_chrome_trace_shape(self):
        doc = telemetry.chrome_trace(self._spans())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 2
        for event in complete:
            assert {"name", "ph", "ts", "dur", "pid", "tid",
                    "args"} <= set(event)
            assert event["ts"] >= 0
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "repro"
        json.dumps(doc)

    def test_jsonl_one_object_per_line(self):
        text = telemetry.spans_jsonl(self._spans())
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert {json.loads(line)["name"] for line in lines} == {
            "inner", "outer"
        }

    def test_sim_events_to_chrome(self):
        events = [(0.0, "start", 1, "Quartz"),
                  (5.0, "backfill_start", 2, "Lassen"),
                  (9.0, "reserve", 3, "")]
        doc = telemetry.sim_events_to_chrome(events)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 3
        rows = {e["args"]["machine"] for e in instants}
        assert rows == {"Quartz", "Lassen", ""}
        json.dumps(doc)

    def test_report_self_time_rollup(self):
        from repro.telemetry.report import span_rollup

        doc = telemetry.chrome_trace(self._spans())
        rollup = {r["name"]: r for r in span_rollup(doc)}
        assert rollup["inner"]["calls"] == 1
        # Parent self time excludes the child's duration.
        outer = rollup["outer"]
        assert outer["self_s"] <= outer["total_s"]

    def test_render_run_report_smoke(self):
        telemetry.configure("trace")
        with telemetry.span("phase"):
            telemetry.counter("c").inc(3)
        text = telemetry.render_run_report(
            {"command": "x", "config_hash": "abc", "seed": 1, "files": {}},
            {"telemetry": telemetry.snapshot(), "mae": 0.03},
            telemetry.chrome_trace(telemetry.spans()),
        )
        assert "phase" in text
        assert "c" in text
        assert "mae" in text

    def test_format_uncertainty_table(self):
        from repro.telemetry.report import format_uncertainty_table

        text = format_uncertainty_table({
            "Ruby": {"mean_std": 0.12, "p95_std": 0.3, "max_std": 0.45},
            "Quartz": {"mean_std": 0.08, "p95_std": 0.2, "max_std": 0.3},
        })
        lines = text.splitlines()
        assert lines[0].split() == ["machine", "mean_std", "p95_std",
                                    "max_std"]
        # Sorted by machine name; values rendered to 4 decimals.
        assert lines[2].startswith("Quartz")
        assert "0.1200" in lines[3]
        assert format_uncertainty_table({}) \
            == "no per-machine uncertainty recorded"

    def test_render_run_report_includes_uncertainty(self):
        text = telemetry.render_run_report(
            {"command": "schedule", "config_hash": "abc", "seed": 1,
             "files": {}},
            {"uncertainty": {"Ruby": {"mean_std": 0.1, "p95_std": 0.2,
                                      "max_std": 0.3}},
             "mae": 0.03},
            None,
        )
        assert "per-machine predictive uncertainty" in text
        assert "Ruby" in text
        # The mapping renders as a table, not a headline dump.
        assert "'mean_std'" not in text
        assert "mae" in text


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------
class TestCLI:
    def test_schedule_trace_roundtrip(self, tmp_path, capsys):
        from repro.artifacts import load_run, verify_run
        from repro.cli import main

        run_root = tmp_path / "runs"
        rc = main([
            "schedule", "--jobs", "50", "--inputs-per-app", "1",
            "--strategies", "model", "--telemetry", "trace",
            "--run-dir", str(run_root),
        ])
        assert rc == 0
        (run_dir,) = list(run_root.iterdir())

        run = verify_run(run_dir)  # everything inventoried, no orphans
        assert "trace.json" in run.manifest["files"]
        assert "metrics.json" in run.manifest["files"]
        assert "sim_trace_model.json" in run.manifest["files"]

        trace = run.read_json("trace.json")
        names = {e["name"] for e in trace["traceEvents"]
                 if e["ph"] == "X"}
        assert "sched.run" in names
        assert "dataset.generate" in names

        metrics = run.read_json("metrics.json")
        assert metrics["telemetry"]["counters"]["sched.runs"] == 1
        assert "model" in metrics  # headline metrics survive the merge

        capsys.readouterr()
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "top spans by self time" in out
        assert "sched.run" in out
        assert "sched.runs" in out

        # load_run still reads the run plainly.
        assert load_run(run_dir).command == "schedule"

    def test_schedule_with_uncertainty_report_roundtrip(self, tmp_path,
                                                        capsys):
        from repro.artifacts import verify_run
        from repro.cli import main

        run_root = tmp_path / "runs"
        rc = main([
            "schedule", "--jobs", "50", "--inputs-per-app", "1",
            "--strategies", "model", "risk-aware",
            "--with-uncertainty", "--run-dir", str(run_root),
        ])
        assert rc == 0
        (run_dir,) = list(run_root.iterdir())
        metrics = verify_run(run_dir).read_json("metrics.json")
        assert set(metrics["uncertainty"]) \
            == {"Quartz", "Ruby", "Lassen", "Corona"}
        for stats in metrics["uncertainty"].values():
            assert 0 <= stats["mean_std"] <= stats["p95_std"] \
                <= stats["max_std"]

        capsys.readouterr()
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "per-machine predictive uncertainty" in out
        assert "Corona" in out

    def test_telemetry_off_writes_no_artifacts(self, tmp_path):
        from repro.artifacts import verify_run
        from repro.cli import main

        run_root = tmp_path / "runs"
        rc = main([
            "schedule", "--jobs", "50", "--inputs-per-app", "1",
            "--strategies", "model", "--run-dir", str(run_root),
        ])
        assert rc == 0
        (run_dir,) = list(run_root.iterdir())
        run = verify_run(run_dir)
        assert "trace.json" not in run.manifest["files"]
        metrics = run.read_json("metrics.json")
        assert "telemetry" not in metrics

    def test_main_resets_telemetry_between_invocations(self, tmp_path):
        from repro.cli import main

        run_root = tmp_path / "runs"
        rc = main([
            "schedule", "--jobs", "50", "--inputs-per-app", "1",
            "--strategies", "model", "--telemetry", "metrics",
            "--run-dir", str(run_root),
        ])
        assert rc == 0
        assert telemetry.mode() == "off"
        telemetry.configure("metrics")
        assert telemetry.snapshot()["counters"] == {}

    def test_report_without_run_still_reports_dataset(self, capsys):
        from repro.cli import main

        assert main(["report", "--inputs-per-app", "1"]) == 0
        assert "rows" in capsys.readouterr().out.lower()

    def test_report_rejects_non_run_directory(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", str(tmp_path)]) == 2
        assert "not a run directory" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Reset keeps handed-out metric handles live (regression: reset() used
# to discard the objects, so any module that cached a counter kept
# feeding an orphan the snapshot never saw again)
# ---------------------------------------------------------------------------
class TestResetRebind:
    def test_registry_handles_survive_reset(self):
        reg = MetricsRegistry()
        counter = reg.counter("c")
        hist = reg.histogram("h", (1.0,))
        gauge = reg.gauge("g")
        counter.inc(3)
        hist.observe(0.5)
        gauge.set(7)
        reg.reset()
        # Untouched-since-reset metrics stay out of the snapshot...
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }
        # ...and the PRE-reset handles still feed the registry.
        counter.inc(2)
        hist.observe(2.0)
        gauge.set(1)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.0}
        assert snap["histograms"]["h"]["counts"] == [0, 1]
        # Same objects, not re-registered lookalikes.
        assert reg.counter("c") is counter
        assert reg.histogram("h", (1.0,)) is hist

    def test_module_level_handle_survives_reset(self):
        telemetry.configure("metrics")
        cached = telemetry.counter("xr.cached")
        cached.inc()
        telemetry.reset()
        cached.inc(5)
        assert telemetry.snapshot()["counters"] == {"xr.cached": 5}


# ---------------------------------------------------------------------------
# Cross-process span merging: jobs=2 must rebuild jobs=1's span tree
# ---------------------------------------------------------------------------
def _span_task(n: int) -> int:
    """Module-level worker: a two-level span tree per task."""
    with telemetry.span("xp.item", n=n):
        with telemetry.span("xp.inner"):
            pass
    return n


def _tree_digest(records):
    """Structural digest of a span forest: names + parent-child shape.

    Ignores span ids, timing, and sibling order — the only things
    allowed to differ between an inline run and a pool run.
    """
    names = {r.span_id: r.name for r in records}
    children: dict = {}
    for r in records:
        parent = r.parent_id if r.parent_id in names else None
        children.setdefault(parent, []).append(r.span_id)

    def node(span_id):
        kids = tuple(sorted(node(c) for c in children.get(span_id, [])))
        return (names[span_id], kids)

    return tuple(sorted(node(root) for root in children.get(None, [])))


class TestCrossProcessSpanMerge:
    def _run(self, jobs: int):
        from repro.parallel import run_tasks

        telemetry.configure("trace")
        telemetry.reset()
        with telemetry.trace_context("trace-xp"):
            with telemetry.span("xp.run"):
                run_tasks(_span_task, [1, 2, 3], jobs=jobs)
        return telemetry.spans()

    def test_jobs2_tree_structurally_equals_jobs1(self):
        seq = self._run(jobs=1)
        par = self._run(jobs=2)
        digest = _tree_digest(seq)
        assert _tree_digest(par) == digest
        # Pin the shape itself, not just the equality: one xp.run root
        # holding three xp.item children, each with one xp.inner child.
        item = ("xp.item", (("xp.inner", ()),))
        assert digest == (("xp.run", (item, item, item)),)

    def test_adopted_spans_join_the_callers_trace(self):
        par = self._run(jobs=2)
        assert {r.trace_id for r in par} == {"trace-xp"}
        run_span = [r for r in par if r.name == "xp.run"][0]
        items = [r for r in par if r.name == "xp.item"]
        assert len(items) == 3
        assert {r.parent_id for r in items} == {run_span.span_id}
