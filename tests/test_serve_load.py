"""Deterministic load tests for the serving stack (marked slow).

The harness drives the real HTTP server with the scheduler
simulation's seeded Poisson arrival process and seeded payload
synthesis, so the defect mix (clean / degraded / malformed) is exact
and assertions are equalities, not tolerances.  Latency numbers are of
course machine-dependent — the tests assert the *counters* and that
the histograms are populated, not wall-clock values.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import telemetry
from repro.serve import (
    ModelManager,
    PredictionService,
    http_request,
    run_load,
    synthesize_payloads,
)

from .test_serve import make_train_run

pytestmark = pytest.mark.slow

N_REQUESTS = 40
DEGRADED_FRACTION = 0.1
MALFORMED_FRACTION = 0.1


@pytest.fixture(scope="module")
def load_registry(tmp_path_factory, trained_xgb, small_dataset):
    root = tmp_path_factory.mktemp("load_registry")
    make_train_run(root, trained_xgb, small_dataset, seed=0)
    return root


@pytest.fixture(scope="module")
def load_payloads():
    return synthesize_payloads(
        N_REQUESTS, seed=11,
        degraded_fraction=DEGRADED_FRACTION,
        malformed_fraction=MALFORMED_FRACTION,
    )


async def _serve_load(registry_root, payloads, rate_per_second,
                      seed=11, **service_kwargs):
    """Start a service, drive it over HTTP, shut down cleanly."""
    manager = ModelManager(registry_root)
    manager.promote(manager.resolve_hash(None))
    service = PredictionService(manager, **service_kwargs)
    host, port = await service.start(port=0)
    manager.start_watching()
    try:
        report = await run_load(host, port, payloads,
                                rate_per_second=rate_per_second,
                                seed=seed)
        metrics = service.metrics_payload()
    finally:
        await service.stop()
    return report, metrics


def test_seeded_payloads_are_reproducible():
    """Same seed, byte-identical payload stream; different seed, not."""
    a = synthesize_payloads(8, seed=3, degraded_fraction=0.25)
    b = synthesize_payloads(8, seed=3, degraded_fraction=0.25)
    c = synthesize_payloads(8, seed=4, degraded_fraction=0.25)
    dumps = lambda p: json.dumps(p, sort_keys=True)  # noqa: E731
    assert [dumps(x) for x in a] == [dumps(x) for x in b]
    assert [dumps(x) for x in a] != [dumps(x) for x in c]


def test_load_run_counters_and_histograms(load_registry, load_payloads):
    """The headline load test: exact goodput/defect accounting plus
    populated latency and batch-size histograms."""
    telemetry.configure("metrics")
    telemetry.reset()
    try:
        report, metrics = asyncio.run(_serve_load(
            load_registry, load_payloads, rate_per_second=400.0,
        ))
    finally:
        telemetry.configure("off")
        telemetry.reset()

    n_degraded = round(N_REQUESTS * DEGRADED_FRACTION)
    n_malformed = round(N_REQUESTS * MALFORMED_FRACTION)
    assert report.sent == N_REQUESTS
    assert report.failed == 0
    assert report.shed == 0  # default limits dwarf 40 requests
    assert report.rejected == n_malformed  # typed 400s, exactly
    assert report.ok == N_REQUESTS - n_malformed
    # Degraded records still answer 200 — from the imputed tier.
    assert report.tiers == {
        "model": N_REQUESTS - n_malformed - n_degraded,
        "imputed": n_degraded,
    }
    assert report.goodput_per_sec > 0
    assert report.percentile_ms(99) >= report.percentile_ms(50) > 0

    # The service's own view agrees and the histograms are populated.
    service_view = metrics["service"]
    assert service_view["requests"]["predict"] == N_REQUESTS
    assert service_view["admission"]["decisions"]["shed"] == 0
    assert service_view["tiers"]["counts"]["imputed"] == n_degraded
    tel = metrics["telemetry"]["histograms"]
    batch_rows = tel["serve.coalescer.batch_rows"]
    assert batch_rows["count"] >= 1
    assert batch_rows["sum"] == report.ok  # every 200 rode a batch
    latency = tel["serve.http.predict.seconds"]
    assert latency["count"] == N_REQUESTS
    assert latency["sum"] > 0

    # The report is a JSON-clean artifact (what --self-test persists).
    as_dict = report.to_dict()
    assert json.loads(json.dumps(as_dict)) == as_dict
    assert as_dict["latency_ms"]["p99"] >= as_dict["latency_ms"]["p50"]


def test_load_outcome_is_seed_deterministic(load_registry, load_payloads):
    """Two identical load runs produce identical outcome counters
    (latency varies; accounting must not)."""
    report1, _ = asyncio.run(_serve_load(
        load_registry, load_payloads, rate_per_second=400.0,
    ))
    report2, _ = asyncio.run(_serve_load(
        load_registry, load_payloads, rate_per_second=400.0,
    ))
    for report in (report1, report2):
        assert report.sent == N_REQUESTS
    assert (report1.ok, report1.rejected, report1.shed, report1.failed) \
        == (report2.ok, report2.rejected, report2.shed, report2.failed)
    assert report1.tiers == report2.tiers
    assert report1.statuses == report2.statuses


def test_overload_sheds_and_recovers(load_registry):
    """A simultaneous burst against a hard_limit=1 service sheds most
    of the burst with typed 503s, serves at least one model answer, and
    the service stays healthy afterwards."""
    payloads = synthesize_payloads(12, seed=5)

    async def scenario():
        manager = ModelManager(load_registry)
        manager.promote(manager.resolve_hash(None))
        service = PredictionService(
            manager, soft_inflight=1, max_inflight=1,
            max_batch=64, batch_deadline_s=0.1,
        )
        host, port = await service.start(port=0)
        try:
            # rate 0 = everything at once: the overload shape.
            report = await run_load(host, port, payloads,
                                    rate_per_second=0.0)
            status, health = await http_request(host, port, "GET",
                                                "/healthz")
            return report, service.admission.snapshot(), status, health
        finally:
            await service.stop()

    report, admission, status, health = asyncio.run(scenario())
    assert report.sent == 12
    assert report.failed == 0
    assert report.ok >= 1
    assert report.shed >= 1  # the burst must hit the hard limit
    assert report.ok + report.shed == 12
    assert admission["decisions"]["shed"] == report.shed
    assert admission["inflight"] == 0  # drained
    assert status == 200 and health["status"] == "ok"


def test_http_surface(load_registry, load_payloads):
    """The non-predict endpoints and HTTP-level error handling."""

    async def scenario():
        manager = ModelManager(load_registry)
        chash = manager.resolve_hash(None)
        manager.promote(chash)
        service = PredictionService(manager)
        host, port = await service.start(port=0)
        try:
            results = {
                "healthz": await http_request(host, port, "GET",
                                              "/healthz"),
                "model": await http_request(host, port, "GET", "/model"),
                "metrics": await http_request(host, port, "GET",
                                              "/metrics"),
                "nowhere": await http_request(host, port, "GET",
                                              "/nowhere"),
                "get_predict": await http_request(host, port, "GET",
                                                  "/predict"),
                "bad_json": await http_request(
                    host, port, "POST", "/predict",
                    payload=None, timeout_s=30.0,
                ),
                "predict": await http_request(
                    host, port, "POST", "/predict",
                    payload=dict(load_payloads[0]),
                ),
                "bad_payload": await http_request(
                    host, port, "POST", "/predict", payload={"nope": 1}
                ),
            }
            return chash, results
        finally:
            await service.stop()

    chash, results = asyncio.run(scenario())
    status, health = results["healthz"]
    assert (status, health["status"]) == (200, "ok")
    status, model = results["model"]
    assert status == 200 and model["config_hash"] == chash
    assert model["n_features"] > 0 and model["degradation_armed"]
    status, metrics = results["metrics"]
    assert status == 200 and metrics["service"]["model"]["config_hash"] \
        == chash
    assert results["nowhere"][0] == 404
    assert results["get_predict"][0] == 405
    status, body = results["bad_json"]  # empty body is not JSON
    assert status == 400 and body["reason"] == "bad-payload"
    status, body = results["predict"]
    assert status == 200 and body["model_hash"] == chash
    assert body["recommended"] in body["systems"]
    status, body = results["bad_payload"]
    assert status == 400 and "unknown request key" in body["error"]


def _latency_slo(threshold_s):
    from repro.telemetry.slo import SLOShedPolicy, SLOSpec

    spec = SLOSpec(name="serve-predict-latency", objective="latency",
                   target=0.9, histogram="serve.http.predict.seconds",
                   threshold_s=threshold_s)
    return SLOShedPolicy(spec, degrade_burn=1.0, shed_burn=4.0)


def test_slo_burn_sheds_exact_counts(load_registry):
    """SLO admission over real HTTP: with an unmeetable latency
    threshold every answered request burns budget, so the shed count is
    exact and identical run after run — one 200, then typed 503s whose
    bodies name the request and the admission state."""
    payloads = synthesize_payloads(8, seed=7)

    async def scenario():
        manager = ModelManager(load_registry)
        manager.promote(manager.resolve_hash(None))
        service = PredictionService(manager, slo=_latency_slo(1e-9),
                                    max_batch=1, batch_deadline_s=0.001)
        host, port = await service.start(port=0)
        try:
            results = []
            for i, payload in enumerate(payloads):
                payload = dict(payload)
                payload["request_id"] = f"req-load-{i}"
                results.append(await http_request(
                    host, port, "POST", "/predict", payload=payload
                ))
            return results, service.admission.snapshot()
        finally:
            await service.stop()

    results, admission = asyncio.run(scenario())
    statuses = [status for status, _ in results]
    assert statuses == [200] + [503] * 7
    for i, (status, body) in enumerate(results):
        assert body["request_id"] == f"req-load-{i}"
        if status == 503:
            assert body["reason"] == "shed"
            assert body["admission"]["state"] == "shed"
    assert admission["decisions"] == {"full": 1, "degraded": 0, "shed": 7}
    # Shed 503s never feed the burn tracker: one answered request.
    assert admission["slo"]["total"] == 1
    assert admission["slo"]["decision"] == "shed"


def test_slo_feature_off_counters_unchanged(load_registry, load_payloads):
    """No policy installed: the SLO-capable controller reproduces the
    watermark run bit-for-bit (the feature-off contract)."""
    report, metrics = asyncio.run(_serve_load(
        load_registry, load_payloads, rate_per_second=400.0, slo=None,
    ))
    n_malformed = round(N_REQUESTS * MALFORMED_FRACTION)
    assert report.sent == N_REQUESTS
    assert report.shed == 0 and report.failed == 0
    assert report.rejected == n_malformed
    admission = metrics["service"]["admission"]
    assert "slo" not in admission
    assert admission["decisions"]["full"] == N_REQUESTS - n_malformed


def test_shed_flight_dump_survives_verify_run(load_registry, tmp_path):
    """A shed transition dumps flight.json into the run dir, and the
    finalized run (dump included) passes artifact verification."""
    from repro.artifacts import RunDir, verify_run
    from repro.config import ExperimentConfig, ServeConfig

    payloads = synthesize_payloads(4, seed=9)
    run = RunDir.create(
        tmp_path, ExperimentConfig("serve",
                                   ServeConfig(registry=str(load_registry)))
    )

    async def scenario():
        manager = ModelManager(load_registry)
        manager.promote(manager.resolve_hash(None))
        service = PredictionService(manager, slo=_latency_slo(1e-9),
                                    max_batch=1, batch_deadline_s=0.001,
                                    flight_events=128)
        service.flight_path = run.file("flight.json")
        host, port = await service.start(port=0)
        try:
            return [
                (await http_request(host, port, "POST", "/predict",
                                    payload=dict(p)))[0]
                for p in payloads
            ]
        finally:
            await service.stop()

    try:
        statuses = asyncio.run(scenario())
        assert statuses == [200, 503, 503, 503]
        dump = json.loads(run.file("flight.json").read_text())
        assert dump["flight_format_version"] == 2
        assert dump["reason"] == "shed-transition"
        kinds = {event["kind"] for event in dump["events"]}
        assert "serve.admission.transition" in kinds
        # the batch path records too
        assert any(kind.startswith("serve.coalescer.flush.")
                   for kind in kinds)
        run.finalize()
        verified = verify_run(run.path)
        assert "flight.json" in verified.files()
    finally:
        telemetry.flight.disable()
        telemetry.flight.clear()
