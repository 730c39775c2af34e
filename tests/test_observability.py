"""Request-level observability: SLO burn engine, flight recorder,
Prometheus exposition, and the trace-context plumbing they ride on.

Everything here is deterministic by construction: the SLO layers take
an injected clock, the flight recorder is driven synchronously, and the
exposition checks parse the exporter's own output — no wall-clock
assertions anywhere.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro import telemetry
from repro.errors import TelemetryError
from repro.serve.admission import AdmissionController
from repro.telemetry import FlightRecorder
from repro.telemetry.report import format_slo_table
from repro.telemetry.slo import (
    BurnAlert,
    BurnRateTracker,
    SLOShedPolicy,
    SLOSpec,
    histogram_good_total,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.configure("off")
    telemetry.reset()
    telemetry.flight.disable()
    yield
    telemetry.configure("off")
    telemetry.reset()
    telemetry.flight.disable()


def _load_prom_checker():
    """The CI exposition checker, imported straight from tools/."""
    path = Path(__file__).resolve().parent.parent / "tools" \
        / "check_prometheus.py"
    spec = importlib.util.spec_from_file_location("check_prometheus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LATENCY_SPEC = SLOSpec(
    name="predict-latency", objective="latency", target=0.9,
    histogram="serve.http.predict.seconds", threshold_s=0.05,
)


# ---------------------------------------------------------------------------
# SLO specs
# ---------------------------------------------------------------------------
class TestSLOSpec:
    def test_error_budget_is_target_complement(self):
        assert LATENCY_SPEC.error_budget == pytest.approx(0.1)

    def test_round_trips_through_json(self):
        payload = LATENCY_SPEC.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert SLOSpec.from_dict(payload) == LATENCY_SPEC

    @pytest.mark.parametrize("kwargs,match", [
        (dict(name="", objective="latency", target=0.9, threshold_s=1.0),
         "non-empty name"),
        (dict(name="x", objective="throughput", target=0.9),
         "unknown objective"),
        (dict(name="x", objective="availability", target=1.0),
         "target must be in"),
        (dict(name="x", objective="availability", target=0.0),
         "target must be in"),
        (dict(name="x", objective="latency", target=0.9),
         "threshold_s"),
        (dict(name="x", objective="latency", target=0.9, threshold_s=0),
         "threshold_s"),
    ])
    def test_validation_is_typed(self, kwargs, match):
        with pytest.raises(TelemetryError, match=match):
            SLOSpec(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(TelemetryError, match="unknown key"):
            SLOSpec.from_dict({"name": "x", "objective": "availability",
                               "target": 0.9, "burn": 2})


# ---------------------------------------------------------------------------
# Burn-rate math (injected clock; every number is exact)
# ---------------------------------------------------------------------------
class TestBurnRateTracker:
    def test_histogram_good_total_le_semantics(self):
        state = {"edges": [0.01, 0.05, 0.25], "counts": [3, 4, 2],
                 "count": 10}  # 1 overflow observation beyond the edges
        assert histogram_good_total(state, 0.05) == (7, 10)
        # Threshold inside a bucket: the whole bucket reads as bad.
        assert histogram_good_total(state, 0.04) == (3, 10)
        assert histogram_good_total(state, 1.0) == (9, 10)

    def test_windowed_burn_is_exact(self):
        clock = [0.0]
        tracker = BurnRateTracker(LATENCY_SPEC, clock=lambda: clock[0])
        # 100 requests, 80 good, all in the first 10 seconds.
        tracker.record(80, 100, now=10.0)
        clock[0] = 10.0
        # bad fraction 0.2 over any window covering all traffic;
        # budget 0.1 -> burn 2.0.
        assert tracker.bad_fraction(60.0) == pytest.approx(0.2)
        assert tracker.burn_rate(60.0) == pytest.approx(2.0)
        assert tracker.budget_remaining(60.0) == pytest.approx(-1.0)
        assert tracker.window_total(60.0) == 100

    def test_window_excludes_old_traffic(self):
        clock = [0.0]
        tracker = BurnRateTracker(LATENCY_SPEC, clock=lambda: clock[0])
        tracker.record(50, 100, now=10.0)   # terrible early traffic
        tracker.record(150, 200, now=100.0)  # then 100 perfect requests
        clock[0] = 100.0
        # A 30s window baselines at the t=10 sample: only the clean
        # 100 requests are inside it.
        assert tracker.bad_fraction(30.0) == pytest.approx(0.0)
        assert tracker.window_total(30.0) == 100
        # The full-history window still sees the early badness.
        assert tracker.bad_fraction(1000.0) == pytest.approx(0.25)

    def test_young_tracker_reads_zero_burn(self):
        tracker = BurnRateTracker(LATENCY_SPEC, clock=lambda: 0.0)
        assert tracker.burn_rate(60.0) == 0.0
        assert tracker.budget_remaining(60.0) == 1.0

    def test_horizon_prunes_but_keeps_baseline(self):
        tracker = BurnRateTracker(LATENCY_SPEC, clock=lambda: 0.0,
                                  horizon_s=100.0)
        for i in range(1, 1001):
            tracker.record(i, i, now=float(i))
        assert len(tracker._samples) < 200  # pruned, not unbounded
        assert tracker.window_total(50.0, now=1000.0) == 50

    def test_observe_histogram_requires_latency_spec(self):
        spec = SLOSpec(name="avail", objective="availability", target=0.99)
        tracker = BurnRateTracker(spec, clock=lambda: 0.0)
        with pytest.raises(TelemetryError, match="no latency threshold"):
            tracker.observe_histogram({"edges": [], "counts": [],
                                       "count": 0})

    def test_observe_histogram_feeds_tracker(self):
        tracker = BurnRateTracker(LATENCY_SPEC, clock=lambda: 0.0)
        tracker.observe_histogram(
            {"edges": [0.05, 0.5], "counts": [9, 1], "count": 10},
            now=1.0,
        )
        assert tracker.bad_fraction(60.0, now=1.0) == pytest.approx(0.1)
        assert tracker.burn_rate(60.0, now=1.0) == pytest.approx(1.0)


class TestBurnAlert:
    def test_fires_only_when_both_windows_burn(self):
        clock = [0.0]
        tracker = BurnRateTracker(LATENCY_SPEC, clock=lambda: clock[0])
        alert = BurnAlert(name="page", burn_threshold=2.0,
                          fast_window_s=60.0, slow_window_s=600.0)
        # Clean hour of traffic, then a bad burst in the last minute.
        tracker.record(1000, 1000, now=3590.0)
        tracker.record(1000, 1050, now=3650.0)
        clock[0] = 3650.0
        result = alert.evaluate(tracker)
        # Fast window: 50 bad / 50 -> burn 10; slow window dilutes the
        # burst below the bar -> the alert must NOT fire on the blip.
        assert result["fast_burn"] == pytest.approx(10.0)
        assert result["slow_burn"] < 2.0
        assert result["firing"] is False
        # Sustained burn moves the slow window too -> fires.
        tracker.record(1000, 1600, now=4200.0)
        clock[0] = 4200.0
        assert alert.evaluate(tracker)["firing"] is True


# ---------------------------------------------------------------------------
# Shed policy + admission integration
# ---------------------------------------------------------------------------
class TestSLOShedPolicy:
    def _policy(self, clock, **kwargs):
        kwargs.setdefault("fast_window_s", 5.0)
        kwargs.setdefault("slow_window_s", 30.0)
        return SLOShedPolicy(LATENCY_SPEC, clock=clock, **kwargs)

    def test_validation_is_typed(self):
        with pytest.raises(TelemetryError, match="fast_window_s"):
            SLOShedPolicy(LATENCY_SPEC, fast_window_s=10.0,
                          slow_window_s=5.0)
        with pytest.raises(TelemetryError, match="degrade_burn"):
            SLOShedPolicy(LATENCY_SPEC, degrade_burn=4.0, shed_burn=1.0)

    def test_full_before_any_traffic(self):
        policy = self._policy(lambda: 0.0)
        assert policy.decision() == "full"

    def test_decision_ladder_is_deterministic(self):
        clock = [0.0]
        policy = self._policy(lambda: clock[0], degrade_burn=1.0,
                              shed_burn=4.0)
        # 100 requests: 96 under the threshold, 4 over -> bad fraction
        # 0.04, burn 0.4 -> full.
        for _ in range(96):
            policy.observe(0.01)
        for _ in range(4):
            policy.observe(0.10)
        assert policy.decision() == "full"
        # 20 more bad -> 24 bad / 120 -> burn 2.0: degrade, not shed.
        for _ in range(20):
            policy.observe(0.10)
        assert policy.decision() == "degraded"
        # Sustained all-bad traffic pushes both windows past 4x: shed.
        for _ in range(200):
            policy.observe(0.10)
        assert policy.decision() == "shed"

    def test_not_ok_counts_as_bad_regardless_of_latency(self):
        policy = self._policy(lambda: 0.0)
        for _ in range(10):
            policy.observe(0.001, ok=False)
        assert policy.tracker.bad_fraction(5.0) == pytest.approx(1.0)

    def test_snapshot_is_json_clean(self):
        policy = self._policy(lambda: 0.0)
        policy.observe(0.01)
        snapshot = policy.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["decision"] == "full"
        assert set(snapshot["windows"]) == {"fast", "slow"}

    def test_admission_slo_mode_decisions(self):
        clock = [0.0]
        policy = self._policy(lambda: clock[0], degrade_burn=1.0,
                              shed_burn=4.0)
        controller = AdmissionController(soft_limit=10, hard_limit=20,
                                         slo=policy)
        assert controller.state() == "full"
        for _ in range(50):
            policy.observe(1.0)  # every request blows the threshold
        # burn = 1.0 / 0.1 = 10x in both windows -> shed, although the
        # in-flight count is zero.
        assert controller.state() == "shed"
        assert controller.decide() == "shed"
        assert controller.snapshot()["slo"]["decision"] == "shed"

    def test_admission_hard_limit_backstops_slo_mode(self):
        policy = self._policy(lambda: 0.0)
        controller = AdmissionController(soft_limit=10, hard_limit=20,
                                         slo=policy)
        controller.inflight = 20
        assert controller.state() == "shed"  # memory safety beats burn

    def test_admission_soft_limit_still_degrades_in_slo_mode(self):
        policy = self._policy(lambda: 0.0)
        controller = AdmissionController(soft_limit=4, hard_limit=20,
                                         slo=policy)
        controller.inflight = 4
        assert controller.state() == "degraded"

    def test_feature_off_is_watermark_identical(self):
        """slo=None must reproduce the pure watermark controller."""
        plain = AdmissionController(soft_limit=2, hard_limit=4)
        wired = AdmissionController(soft_limit=2, hard_limit=4, slo=None)
        for inflight in range(6):
            plain.inflight = wired.inflight = inflight
            assert plain.state() == wired.state()
        wired.observe(99.0, ok=False)  # no-op without a policy
        assert "slo" not in wired.snapshot()


# ---------------------------------------------------------------------------
# SLO report rendering
# ---------------------------------------------------------------------------
class TestSLOReport:
    def test_budget_table_rows(self):
        clock = [0.0]
        policy = SLOShedPolicy(LATENCY_SPEC, fast_window_s=5.0,
                               slow_window_s=30.0,
                               clock=lambda: clock[0])
        for _ in range(8):
            policy.observe(0.01)
        for _ in range(2):
            policy.observe(0.2)
        text = format_slo_table(policy.snapshot())
        assert "predict-latency" in text
        assert "fast 5s" in text and "slow 30s" in text
        assert "burn" in text and "budget_left" in text
        # burn = 0.2 / 0.1 = 2.0 in both windows
        assert "2.000" in text

    def test_empty_payload_reads_as_no_state(self):
        assert format_slo_table([]) == "no SLO state recorded"
        assert format_slo_table({}) == "no SLO state recorded"

    def test_run_report_renders_slo_section(self):
        policy = SLOShedPolicy(LATENCY_SPEC, clock=lambda: 0.0)
        policy.observe(0.01)
        text = telemetry.render_run_report(
            {"command": "serve", "config_hash": "abc", "seed": 0},
            {"slo": policy.snapshot()},
            None,
        )
        assert "SLO error-budget status:" in text
        assert "predict-latency" in text


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------
class TestFlightRecorder:
    def test_disabled_record_is_a_noop(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record("event", n=1)
        assert len(recorder) == 0

    def test_ring_is_bounded_oldest_falls_off(self):
        recorder = FlightRecorder(capacity=3, enabled=True)
        for i in range(10):
            recorder.record("event", i=i)
        dump = recorder.dump("test")
        assert dump["capacity"] == 3
        assert dump["recorded"] == 10
        assert [e["i"] for e in dump["events"]] == [7, 8, 9]

    def test_dump_shape_is_versioned_and_json_clean(self):
        recorder = FlightRecorder(capacity=8, enabled=True)
        recorder.record("serve.promote.ok", config_hash="abc")
        dump = recorder.dump("shed-transition")
        assert dump["flight_format_version"] == 2
        assert dump["reason"] == "shed-transition"
        assert dump["dumped_at_unix_ns"] > 0
        assert dump["events"][0]["kind"] == "serve.promote.ok"
        assert dump["events"][0]["ts_unix_ns"] > 0
        assert json.loads(json.dumps(dump)) == dump

    def test_module_recorder_enable_disable(self):
        telemetry.flight.enable(16)
        assert telemetry.flight.enabled
        telemetry.event("boundary", layer="test")
        events = telemetry.flight.dump("manual")["events"]
        assert events[-1]["kind"] == "boundary"
        telemetry.flight.disable()
        telemetry.event("after-disable")
        kinds = [e["kind"] for e in telemetry.flight.dump("manual")["events"]]
        assert "after-disable" not in kinds

    @pytest.mark.parametrize("mode,ring", [
        ("off", False), ("metrics", False), ("off", True), ("metrics", True),
    ])
    def test_event_feeds_each_enabled_sink(self, mode, ring):
        telemetry.configure(mode)
        if ring:
            telemetry.flight.enable(8)
        telemetry.event("serve.promote.ok", config_hash="abc")
        counters = telemetry.snapshot()["counters"]
        events = telemetry.flight.dump("manual")["events"]
        assert counters == ({"serve.promote.ok": 1}
                            if mode == "metrics" else {})
        assert [(e["kind"], e["config_hash"]) for e in events] == (
            [("serve.promote.ok", "abc")] if ring else [])

    def test_latest_of_each_kind_outlives_a_flush_storm(self):
        telemetry.flight.enable(512)
        telemetry.event("serve.promote.ok", config_hash="abc")
        telemetry.event("serve.admission.transition", previous="full",
                        decision="shed", inflight=3)
        for i in range(2000):
            telemetry.event("serve.coalescer.flush.idle", rows=i)
        dump = telemetry.flight.dump("shed-transition")
        assert dump["recorded"] == 2002
        assert len(dump["events"]) == 512
        assert {e["kind"] for e in dump["events"]} == {
            "serve.coalescer.flush.idle"}
        latest = [(e["kind"], e.get("config_hash"), e.get("decision"),
                   e.get("rows")) for e in dump["latest"]]
        assert latest == [
            ("serve.promote.ok", "abc", None, None),
            ("serve.admission.transition", None, "shed", None),
            ("serve.coalescer.flush.idle", None, None, 1999),
        ]
        telemetry.flight.clear()
        assert telemetry.flight.dump("manual")["latest"] == []

    def test_resize_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=8, enabled=True).enable(0)

    def test_sched_run_drops_a_boundary_record(self):
        from repro.sched import (
            ClusterState,
            Job,
            RoundRobinStrategy,
            Scheduler,
        )

        telemetry.flight.enable(16)
        jobs = [Job(job_id=0, app="a", uses_gpu=False, nodes_required=1,
                    runtimes={"X": 1.0})]
        Scheduler(RoundRobinStrategy(), ClusterState({"X": 2})).run(jobs)
        events = telemetry.flight.dump("manual")["events"]
        assert any(e["kind"] == "sched.runs" and e["jobs"] == 1
                   for e in events)


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------
class TestPrometheusExposition:
    def test_counter_gauge_histogram_families(self):
        telemetry.configure("metrics")
        telemetry.counter("serve.admission.full").inc(5)
        telemetry.gauge("serve.inflight").set(2)
        hist = telemetry.histogram("promtest.predict.seconds",
                                   (0.01, 0.1))
        for value in (0.005, 0.05, 0.5):
            hist.observe(value)
        text = telemetry.prometheus_text(telemetry.snapshot())
        lines = text.splitlines()
        assert "# TYPE repro_serve_admission_full_total counter" in lines
        assert "repro_serve_admission_full_total 5" in lines
        assert "repro_serve_inflight 2.0" in lines
        # le-bucket semantics: cumulative counts, +Inf equals _count.
        assert 'repro_promtest_predict_seconds_bucket{le="0.01"} 1' \
            in lines
        assert 'repro_promtest_predict_seconds_bucket{le="0.1"} 2' \
            in lines
        assert 'repro_promtest_predict_seconds_bucket{le="+Inf"} 3' \
            in lines
        assert "repro_promtest_predict_seconds_count 3" in lines

    def test_sample_escapes_label_values(self):
        line = telemetry.prometheus_sample(
            "m", {"path": 'a"b\\c\nd'}, 1
        )
        assert line == 'm{path="a\\"b\\\\c\\nd"} 1'

    def test_empty_snapshot_renders_empty_document(self):
        assert telemetry.prometheus_text(
            {"counters": {}, "gauges": {}, "histograms": {}}
        ) == ""

    def test_checker_accepts_exporter_output(self):
        checker = _load_prom_checker()
        telemetry.configure("metrics")
        telemetry.counter("a.b").inc(2)
        hist = telemetry.histogram("lat.seconds", (0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        text = telemetry.prometheus_text(telemetry.snapshot())
        assert checker.check_exposition(text) == []

    def test_checker_catches_seeded_corruption(self):
        checker = _load_prom_checker()
        telemetry.configure("metrics")
        hist = telemetry.histogram("lat.seconds", (0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        text = telemetry.prometheus_text(telemetry.snapshot())
        broken = text.replace('le="+Inf"} 2', 'le="+Inf"} 1')
        assert any("monotone" in e or "_count" in e
                   for e in checker.check_exposition(broken))
        assert checker.check_exposition("not a metric line\n")
        assert checker.check_exposition("") == [
            "document contains no samples"
        ]
