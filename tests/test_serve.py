"""The online prediction service: protocol, coalescing, hot-swap,
admission, and the bit-identicality contract.

The acceptance bar pinned here:

* batched service predictions are **bit-identical** (``np.array_equal``,
  not allclose) to offline single-row ``predict_record``/``predict``;
* a promotion that lands mid-stream never breaks an in-flight request —
  each batch completes on the model it captured;
* a *torn* promotion (tampered/truncated run dir) is detected by
  ``verify_run`` before the swap and the old model keeps serving, with
  zero failed in-flight requests.

No pytest-asyncio in the image: async scenarios run via ``asyncio.run``
inside plain test functions.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.artifacts import RunDir
from repro.config import ExperimentConfig, TrainConfig
from repro.core.predictor import CrossArchPredictor
from repro.errors import ArtifactError, ServeError
from repro.resilience import ResilientPredictor
from repro.serve import (
    AdmissionController,
    MicroBatcher,
    ModelManager,
    PredictionService,
    parse_predict_payload,
    publish_model,
    synthesize_payloads,
)
from repro.serve.model_manager import CURRENT_NAME
from repro.serve.protocol import error_response, predict_response


# ----------------------------------------------------------------------
# Registry scaffolding
# ----------------------------------------------------------------------
def make_train_run(root, predictor, dataset=None, seed=0) -> str:
    """Finalize a train run dir holding *predictor*; returns its config
    hash.  Distinct *seed* values produce distinct run dirs."""
    experiment = ExperimentConfig("train", TrainConfig(seed=seed))
    run = RunDir.create(root, experiment)
    predictor.save(run.file("predictor.pkl"))
    if dataset is not None:
        resilient = ResilientPredictor.from_training(predictor, dataset)
        run.save_json("resilience.json", {
            "feature_fill": [float(v) for v in resilient.feature_fill],
            "mean_rpv": [float(v) for v in resilient.mean_rpv],
        })
    run.finalize()
    return experiment.content_hash()


@pytest.fixture(scope="module")
def second_model(small_dataset, split_indices) -> CrossArchPredictor:
    """A second, distinguishable predictor for hot-swap scenarios.

    Another (smaller) tree ensemble, not a linear model: dense
    ``X @ W`` takes different BLAS paths at different batch sizes, so
    only tree traversal gives the bit-identical batch-vs-single
    guarantee the swap tests assert.
    """
    train_rows, _ = split_indices
    return CrossArchPredictor.train(small_dataset, model="xgboost",
                                    rows=train_rows,
                                    n_estimators=20, max_depth=4)


@pytest.fixture(scope="module")
def registry(tmp_path_factory, trained_xgb, small_dataset):
    """A read-only registry with one armed train run.  Tests that
    mutate a registry build their own with :func:`make_train_run`."""
    root = tmp_path_factory.mktemp("registry")
    chash = make_train_run(root, trained_xgb, small_dataset, seed=0)
    return root, chash


@pytest.fixture(scope="module")
def sample_payloads():
    """Six seeded profiled-run payloads (records + nodes_required)."""
    return synthesize_payloads(6, seed=42)


def make_service(registry_root, **kwargs) -> PredictionService:
    manager = ModelManager(registry_root, poll_interval_s=0.05)
    manager.promote(manager.resolve_hash(None))
    return PredictionService(manager, **kwargs)


# ----------------------------------------------------------------------
# Protocol validation
# ----------------------------------------------------------------------
class TestProtocol:
    def test_rejects_non_object(self):
        with pytest.raises(ServeError, match="JSON object"):
            parse_predict_payload([1, 2])

    def test_rejects_unknown_keys(self):
        with pytest.raises(ServeError, match="unknown request key"):
            parse_predict_payload({"record": {"a": 1}, "recrod": {}})

    def test_rejects_neither_and_both(self):
        with pytest.raises(ServeError, match="exactly one"):
            parse_predict_payload({})
        with pytest.raises(ServeError, match="exactly one"):
            parse_predict_payload({"record": {"a": 1}, "features": [1.0]})

    @pytest.mark.parametrize("nodes", [0, -3, True, "2", 1.5, None])
    def test_rejects_bad_nodes_required(self, nodes):
        with pytest.raises(ServeError, match="nodes_required"):
            parse_predict_payload({"features": [1.0],
                                   "nodes_required": nodes})

    @pytest.mark.parametrize("record", [{}, [], "x", {1: 2.0}])
    def test_rejects_bad_record(self, record):
        with pytest.raises(ServeError, match="record"):
            parse_predict_payload({"record": record})

    @pytest.mark.parametrize("features", [[], {}, [1.0, "x"], [True]])
    def test_rejects_bad_features(self, features):
        with pytest.raises(ServeError, match="features"):
            parse_predict_payload({"features": features})

    def test_rejects_oversized_features(self):
        with pytest.raises(ServeError, match="limit"):
            parse_predict_payload({"features": [1.0] * 5000})

    def test_uses_gpu_inferred_from_record(self):
        parsed = parse_predict_payload({"record": {"uses_gpu": 1.0}})
        assert parsed.uses_gpu is True
        parsed = parse_predict_payload(
            {"record": {"uses_gpu": 1.0}, "uses_gpu": False}
        )
        assert parsed.uses_gpu is False

    def test_error_response_carries_code_and_reason(self):
        status, body = error_response(
            ServeError("nope", code=503, reason="shed")
        )
        assert status == 503
        assert body["reason"] == "shed"
        assert "nope" in body["error"]

    def test_predict_response_ranked_fastest_first(self):
        body = predict_response(
            np.array([0.5, 0.2, 1.0]), ("A", "B", "C"), "B", "model",
            "hash", 3,
        )
        assert body["ranked"] == ["B", "A", "C"]
        assert body["recommended"] == "B"
        assert body["batch_size"] == 3
        assert json.loads(json.dumps(body)) == body  # JSON-clean


# ----------------------------------------------------------------------
# MicroBatcher semantics
# ----------------------------------------------------------------------
class TestCoalescer:
    def test_rejects_bad_config(self):
        with pytest.raises(ServeError, match="max_batch"):
            MicroBatcher(lambda items: items, max_batch=0)
        with pytest.raises(ServeError, match="max_delay"):
            MicroBatcher(lambda items: items, max_delay_s=-1)

    def test_flush_on_size(self):
        batches = []

        def flush(items):
            batches.append(list(items))
            return [i * 10 for i in items]

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=4, max_delay_s=30.0)
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(4))
            )
            return results

        assert asyncio.run(scenario()) == [0, 10, 20, 30]
        # One flush, size exactly max_batch, submission order preserved.
        assert batches == [[0, 1, 2, 3]]

    def test_flush_on_deadline_for_lone_item(self):
        batches = []

        def flush(items):
            batches.append(list(items))
            return items

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=100, max_delay_s=0.02)
            return await batcher.submit("only")

        assert asyncio.run(scenario()) == "only"
        assert batches == [["only"]]

    def test_same_turn_submits_share_one_flush(self):
        """Submissions made in one loop turn ride one flush, in
        submission order, without waiting for the deadline."""
        batches = []

        def flush(items):
            batches.append(list(items))
            return items

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=100, max_delay_s=30.0)
            return await asyncio.gather(*(batcher.submit(i)
                                          for i in range(5)))

        assert asyncio.run(scenario()) == [0, 1, 2, 3, 4]
        assert batches == [[0, 1, 2, 3, 4]]

    def test_lone_item_does_not_wait_for_the_deadline(self):
        """An item submitted into an idle loop is flushed at once: the
        deadline is an upper bound, not a wait."""

        async def scenario():
            batcher = MicroBatcher(lambda items: items, max_batch=100,
                                   max_delay_s=30.0)
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            result = await batcher.submit("only")
            return result, loop.time() - t0

        result, waited = asyncio.run(scenario())
        assert result == "only"
        assert waited < 1.0

    def test_deadline_armed_by_oldest_item(self):
        """A producer that submits one item every loop turn keeps the
        batch from going idle, so the deadline cuts it — measured from
        the batch's oldest item, never re-armed by later arrivals.  The
        producer runs until two batches are cut, so a stalled loop turn
        delays the cuts instead of ending the producer first."""
        max_delay_s = 0.02
        submitted: dict[int, float] = {}
        flushes = []  # (flush time, batch)

        def flush(items):
            flushes.append((asyncio.get_running_loop().time(), list(items)))
            return items

        async def scenario():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher(flush, max_batch=10**9,
                                   max_delay_s=max_delay_s)

            async def submit(i):
                submitted[i] = loop.time()
                return await batcher.submit(i)

            tasks = []
            give_up = loop.time() + 30.0
            while len(flushes) < 2 and loop.time() < give_up:
                tasks.append(asyncio.create_task(submit(len(tasks))))
                await asyncio.sleep(0)
            return len(tasks), await asyncio.gather(*tasks)

        n, results = asyncio.run(scenario())
        assert results == list(range(n))
        # Cut while the producer was still submitting: several batches,
        # in submission order, every item in exactly one of them.
        assert len(flushes) >= 2
        assert [i for _, batch in flushes for i in batch] == results
        for flushed_at, batch in flushes[:-1]:
            assert len(batch) > 1
            assert flushed_at - submitted[batch[0]] >= max_delay_s

    def test_flush_counters_name_the_trigger(self):
        from repro import telemetry

        async def scenario():
            sized = MicroBatcher(lambda items: items, max_batch=2,
                                 max_delay_s=30.0, name="t.coalescer")
            # Two items fill a batch (size); the third is alone once
            # the loop has nothing more to add (idle).
            await asyncio.gather(*(sized.submit(i) for i in range(3)))
            # A zero deadline has run out by the first check of a batch
            # that is still growing (deadline).
            timed = MicroBatcher(lambda items: items, max_batch=100,
                                 max_delay_s=0.0, name="t.coalescer")
            await asyncio.gather(timed.submit(0), timed.submit(1))

        telemetry.configure("metrics")
        telemetry.reset()
        try:
            asyncio.run(scenario())
            counters = telemetry.snapshot()["counters"]
        finally:
            telemetry.configure("off")
            telemetry.reset()
        assert {name: n for name, n in counters.items()
                if name.startswith("t.coalescer.flush.")} == {
            "t.coalescer.flush.size": 1,
            "t.coalescer.flush.idle": 1,
            "t.coalescer.flush.deadline": 1,
        }

    def test_per_item_exception_spares_batch_mates(self):
        def flush(items):
            return [
                ServeError("bad item") if i == "bad" else i for i in items
            ]

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=3, max_delay_s=30.0)
            ok1, bad, ok2 = await asyncio.gather(
                batcher.submit("a"), batcher.submit("bad"),
                batcher.submit("b"), return_exceptions=True,
            )
            return ok1, bad, ok2

        ok1, bad, ok2 = asyncio.run(scenario())
        assert (ok1, ok2) == ("a", "b")
        assert isinstance(bad, ServeError)

    def test_flush_fn_raise_fails_whole_batch(self):
        def flush(items):
            raise RuntimeError("model exploded")

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=2, max_delay_s=30.0)
            return await asyncio.gather(
                batcher.submit(1), batcher.submit(2),
                return_exceptions=True,
            )

        results = asyncio.run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_length_mismatch_is_typed_batch_failure(self):
        async def scenario():
            batcher = MicroBatcher(lambda items: [1], max_batch=2,
                                   max_delay_s=30.0)
            return await asyncio.gather(
                batcher.submit(1), batcher.submit(2),
                return_exceptions=True,
            )

        results = asyncio.run(scenario())
        assert all(
            isinstance(r, ServeError) and r.reason == "batch-failure"
            for r in results
        )

    def test_closed_batcher_refuses_submissions(self):
        async def scenario():
            batcher = MicroBatcher(lambda items: items)
            await batcher.close()
            with pytest.raises(ServeError, match="closed"):
                await batcher.submit(1)

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Bit-identicality: the batched path vs the offline path
# ----------------------------------------------------------------------
class TestBitIdentical:
    def test_batched_records_match_predict_record(
        self, registry, trained_xgb, sample_payloads
    ):
        """One coalesced batch of raw records answers exactly what N
        separate offline ``predict_record`` calls answer — bit for bit."""
        root, _ = registry
        service = make_service(root, max_batch=len(sample_payloads),
                               batch_deadline_s=30.0)

        async def scenario():
            return await asyncio.gather(
                *(service.handle_predict(dict(p)) for p in sample_payloads)
            )

        responses = asyncio.run(scenario())
        assert len(responses) == len(sample_payloads)
        for payload, response in zip(sample_payloads, responses):
            assert response["tier"] == "model"
            # All requests were concurrent: one batch served them all.
            assert response["batch_size"] == len(sample_payloads)
            offline = trained_xgb.predict_record(payload["record"])
            assert np.array_equal(np.asarray(response["rpv"]), offline)

    def test_lone_request_does_not_wait_out_the_deadline(
        self, registry, sample_payloads
    ):
        """The batch deadline is an upper bound: a request with no
        company is answered as soon as the loop has nothing to add."""
        import time

        root, _ = registry
        service = make_service(root, batch_deadline_s=30.0)

        async def scenario():
            t0 = time.perf_counter()
            response = await service.handle_predict(dict(sample_payloads[0]))
            return response, time.perf_counter() - t0

        response, elapsed_s = asyncio.run(scenario())
        assert response["tier"] == "model"
        assert response["batch_size"] == 1
        assert elapsed_s < 1.0

    def test_batched_features_match_predict(
        self, registry, trained_xgb, small_dataset
    ):
        root, _ = registry
        X = small_dataset.X()[:5]
        service = make_service(root, max_batch=5, batch_deadline_s=30.0)

        async def scenario():
            return await asyncio.gather(*(
                service.handle_predict({"features": list(map(float, row))})
                for row in X
            ))

        responses = asyncio.run(scenario())
        offline = trained_xgb.predict(X)
        for i, response in enumerate(responses):
            assert np.array_equal(np.asarray(response["rpv"]), offline[i])

    def test_nan_features_degrade_without_poisoning_batch(
        self, registry, trained_xgb, small_dataset
    ):
        root, _ = registry
        X = small_dataset.X()[:3].copy()
        broken = list(map(float, X[1]))
        broken[0] = float("nan")
        service = make_service(root, max_batch=3, batch_deadline_s=30.0)

        async def scenario():
            return await asyncio.gather(
                service.handle_predict(
                    {"features": list(map(float, X[0]))}
                ),
                service.handle_predict({"features": broken}),
                service.handle_predict(
                    {"features": list(map(float, X[2]))}
                ),
            )

        clean0, degraded, clean2 = asyncio.run(scenario())
        assert degraded["tier"] == "imputed"
        assert clean0["tier"] == clean2["tier"] == "model"
        offline = trained_xgb.predict(X[[0, 2]])
        assert np.array_equal(np.asarray(clean0["rpv"]), offline[0])
        assert np.array_equal(np.asarray(clean2["rpv"]), offline[1])

    def test_width_mismatch_fails_only_its_caller(self, registry):
        root, _ = registry
        service = make_service(root, max_batch=2, batch_deadline_s=30.0)

        async def scenario():
            return await asyncio.gather(
                service.handle_predict({"features": [1.0, 2.0]}),
                service.handle_predict(
                    {"features": [0.0] * service.manager.active.n_features}
                ),
                return_exceptions=True,
            )

        bad, good = asyncio.run(scenario())
        assert isinstance(bad, ServeError) and "expects" in str(bad)
        assert good["tier"] == "model"

    def test_broken_record_degrades_with_tier_label(
        self, registry, sample_payloads
    ):
        root, _ = registry
        record = dict(sample_payloads[0]["record"])
        record.pop("total_instructions")
        service = make_service(root)

        async def scenario():
            return await service.handle_predict({"record": record})

        response = asyncio.run(scenario())
        assert response["tier"] == "imputed"
        assert len(response["rpv"]) == len(response["systems"])

    def test_recommendation_names_a_real_machine(
        self, registry, sample_payloads
    ):
        root, _ = registry
        service = make_service(root)

        async def scenario():
            return await service.handle_predict(dict(sample_payloads[0]))

        response = asyncio.run(scenario())
        assert response["recommended"] in response["systems"]
        assert response["ranked"][0] == min(
            zip(response["rpv"], response["systems"])
        )[1]


# ----------------------------------------------------------------------
# One degradation chain: the server's answers are the chain's answers
# ----------------------------------------------------------------------
class TestOneChain:
    def test_batched_featurization_is_bit_equal_per_row(
        self, trained_xgb
    ):
        from repro.dataset.features import (
            featurize_record,
            featurize_records,
            screen_record,
        )

        records = [p["record"] for p in synthesize_payloads(40, seed=7)]
        normalizer = trained_xgb.normalizer
        columns = trained_xgb.feature_columns
        single = np.array([featurize_record(r, normalizer, columns)
                           for r in records])
        for size in (1, 2, 7, 40):
            for start in range(0, len(records), size):
                chunk = records[start:start + size]
                batch = featurize_records(
                    [screen_record(r)[0] for r in chunk], normalizer,
                    columns,
                )
                assert np.array_equal(batch,
                                      single[start:start + size])

    def test_unknown_machine_answers_the_chain_tier(
        self, registry, sample_payloads
    ):
        """An unregistered machine, and a registered name that is not an
        exact Table I system (its architecture one-hot would read all
        zero), are both imputed, exactly as the chain answers alone."""
        root, _ = registry
        service = make_service(root)
        for machine in ("Frontier", "quartz", "QUARTZ"):
            record = dict(sample_payloads[0]["record"], machine=machine)
            response = asyncio.run(
                service.handle_predict({"record": record}))
            chain = service.manager.active.resilient.predict_record_detailed(
                record
            )
            assert response["tier"] == chain.tier == "imputed", machine
            assert np.array_equal(np.asarray(response["rpv"]), chain.rpv)

    def test_mixed_batch_matches_single_item_chain(
        self, registry, trained_xgb, small_dataset, sample_payloads
    ):
        """One flush holding every kind of defect answers each item
        exactly as the chain answers it alone; one underivable record
        fails neither the batch nor its clean batch-mates."""
        root, _ = registry
        clean = dict(sample_payloads[0]["record"])
        missing = {k: v for k, v in sample_payloads[1]["record"].items()
                   if k != "branch"}
        unknown = dict(sample_payloads[2]["record"], machine="Frontier")
        zero_total = dict(sample_payloads[3]["record"],
                          total_instructions=0.0)
        row = [float(v) for v in small_dataset.X()[0]]
        row[2] = float("nan")
        payloads = [{"record": clean}, {"record": missing},
                    {"record": unknown}, {"record": zero_total},
                    {"features": row}]
        service = make_service(root, max_batch=len(payloads),
                               batch_deadline_s=30.0)

        async def scenario():
            return await asyncio.gather(
                *(service.handle_predict(p) for p in payloads)
            )

        responses = asyncio.run(scenario())
        assert [r["batch_size"] for r in responses] == [5] * 5
        assert [r["tier"] for r in responses] == [
            "model", "imputed", "imputed", "mean_rpv", "imputed",
        ]
        chain = service.manager.active.resilient
        alone = [chain.predict_record_detailed(p["record"])
                 for p in payloads[:4]]
        alone.append(chain.predict_batch([np.asarray(row)])[0])
        for response, outcome in zip(responses, alone):
            assert response["tier"] == outcome.tier
            assert np.array_equal(np.asarray(response["rpv"]), outcome.rpv)
        assert np.array_equal(np.asarray(responses[0]["rpv"]),
                              trained_xgb.predict_record(clean))


# ----------------------------------------------------------------------
# ModelManager: resolution, promotion, torn-promotion detection
# ----------------------------------------------------------------------
class TestModelManager:
    def test_resolve_explicit_beats_current(self, registry):
        root, chash = registry
        manager = ModelManager(root)
        assert manager.resolve_hash("deadbeef") == "deadbeef"
        assert manager.resolve_hash(None) == chash  # single-run fallback

    def test_resolve_prefers_current_file(self, tmp_path, trained_xgb):
        h1 = make_train_run(tmp_path, trained_xgb, seed=1)
        make_train_run(tmp_path, trained_xgb, seed=2)
        publish_model(tmp_path, h1)
        assert ModelManager(tmp_path).resolve_hash(None) == h1

    def test_resolve_empty_registry_is_typed(self, tmp_path):
        with pytest.raises(ServeError, match="no finalized train runs"):
            ModelManager(tmp_path).resolve_hash(None)

    def test_resolve_ambiguous_registry_is_typed(
        self, tmp_path, trained_xgb
    ):
        make_train_run(tmp_path, trained_xgb, seed=1)
        make_train_run(tmp_path, trained_xgb, seed=2)
        with pytest.raises(ServeError, match="publish one hash"):
            ModelManager(tmp_path).resolve_hash(None)

    def test_promote_by_prefix(self, registry):
        root, chash = registry
        manager = ModelManager(root)
        assert manager.promote(chash[:12]) is True
        assert manager.active.config_hash == chash

    def test_promotion_probe_is_not_traffic(self, registry):
        """The smoke probe that guards a promotion asks the model
        directly: no tier is counted before a request arrives."""
        root, chash = registry
        manager = ModelManager(root)
        assert manager.promote(chash) is True
        assert manager.active.resilient.tier_snapshot().total == 0

    def test_first_load_failure_raises(self, tmp_path):
        manager = ModelManager(tmp_path)
        with pytest.raises(ServeError, match="cannot load model"):
            manager.promote("0123456789ab")

    def test_promote_same_hash_is_noop(self, registry):
        root, chash = registry
        manager = ModelManager(root)
        manager.promote(chash)
        first = manager.active
        assert manager.promote(chash[:12]) is True
        assert manager.active is first  # not reloaded

    def test_tampered_run_keeps_old_model_live(
        self, tmp_path, trained_xgb, second_model
    ):
        """verify_run catches a flipped byte before the swap."""
        h1 = make_train_run(tmp_path, trained_xgb, seed=1)
        h2 = make_train_run(tmp_path, second_model, seed=2)
        manager = ModelManager(tmp_path)
        manager.promote(h1)
        # Same-size tamper in the new run's pickle: only the checksum
        # pass can see it.
        victim = next(tmp_path.glob(f"train-{h2[:12]}/predictor.pkl"))
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))

        publish_model(tmp_path, h2)
        assert manager.check_registry() is False
        assert manager.active.config_hash == h1
        with pytest.raises(ArtifactError):
            manager.load_model(h2)

    def test_torn_promotion_missing_file_detected(
        self, tmp_path, trained_xgb, second_model
    ):
        """A half-copied run (file missing vs manifest) never swaps in,
        and the watcher converges once the publisher finishes."""
        h1 = make_train_run(tmp_path, trained_xgb, seed=1)
        h2 = make_train_run(tmp_path, second_model, seed=2)
        manager = ModelManager(tmp_path)
        manager.promote(h1)
        victim = next(tmp_path.glob(f"train-{h2[:12]}/predictor.pkl"))
        stashed = victim.read_bytes()
        victim.unlink()

        publish_model(tmp_path, h2)
        assert manager.check_registry() is False  # torn: old stays
        assert manager.active.config_hash == h1
        victim.write_bytes(stashed)  # publisher finishes the copy
        assert manager.check_registry() is True  # next poll converges
        assert manager.active.config_hash == h2

    def test_check_registry_ignores_missing_current(self, registry):
        root, chash = registry
        manager = ModelManager(root)
        manager.promote(chash)
        # The read-only module registry has no CURRENT file.
        assert manager.check_registry() is False
        assert manager.active.config_hash == chash

    def test_active_before_load_is_typed_503(self, tmp_path):
        manager = ModelManager(tmp_path)
        with pytest.raises(ServeError) as excinfo:
            _ = manager.active
        assert excinfo.value.code == 503
        assert excinfo.value.reason == "no-model"


# ----------------------------------------------------------------------
# Hot-swap atomicity under load
# ----------------------------------------------------------------------
class TestHotSwap:
    def test_mid_stream_swap_keeps_every_answer_consistent(
        self, tmp_path, trained_xgb, second_model, small_dataset,
        sample_payloads,
    ):
        """Requests in flight across a promotion each get an answer
        that is bit-identical to *some* whole model — the one their
        batch captured — never a mixture."""
        h1 = make_train_run(tmp_path, trained_xgb, small_dataset, seed=1)
        h2 = make_train_run(tmp_path, second_model, small_dataset, seed=2)
        publish_model(tmp_path, h1)
        # max_batch above the wave size: the wave stays parked until the
        # test decides to flush, which is what puts it "in flight"
        # across the swap.
        service = make_service(tmp_path, max_batch=64,
                               batch_deadline_s=30.0)
        manager = service.manager
        by_hash = {h1: trained_xgb, h2: second_model}

        async def wave():
            tasks = [
                asyncio.create_task(service.handle_predict(dict(p)))
                for p in sample_payloads
            ]
            await asyncio.sleep(0)  # run each task up to its submit()
            assert service.batcher.pending == len(sample_payloads)
            service.batcher.flush_now()
            return await asyncio.gather(*tasks)

        async def scenario():
            first_tasks = [
                asyncio.create_task(service.handle_predict(dict(p)))
                for p in sample_payloads
            ]
            await asyncio.sleep(0)  # wave 1 enqueued, still pending
            assert service.batcher.pending == len(sample_payloads)
            publish_model(tmp_path, h2)
            assert manager.check_registry() is True  # swap mid-stream
            service.batcher.flush_now()
            first = await asyncio.gather(*first_tasks)
            second = await wave()
            return first, second

        first, second = asyncio.run(scenario())
        # Wave 1 enqueued before the swap; the flush ran after it.  The
        # batch captured exactly one model — whichever — and every
        # answer must match that model bit-for-bit.
        for responses in (first, second):
            for payload, response in zip(sample_payloads, responses):
                model = by_hash[response["model_hash"]]
                offline = model.predict_record(payload["record"])
                assert np.array_equal(np.asarray(response["rpv"]), offline)
        # After the swap, new batches must serve the new model.
        assert {r["model_hash"] for r in second} == {h2}

    def test_kill_during_hot_swap_chaos(
        self, tmp_path, trained_xgb, second_model, small_dataset,
        sample_payloads,
    ):
        """Acceptance: the publisher dies mid-copy (torn run dir) while
        requests are in flight — the old model keeps serving and zero
        in-flight requests fail."""
        h1 = make_train_run(tmp_path, trained_xgb, small_dataset, seed=1)
        h2 = make_train_run(tmp_path, second_model, small_dataset, seed=2)
        publish_model(tmp_path, h1)
        # The "kill": the new run dir is left half-copied.
        victim = next(tmp_path.glob(f"train-{h2[:12]}/predictor.pkl"))
        victim.write_bytes(victim.read_bytes()[:100])  # truncated

        service = make_service(tmp_path, max_batch=64,
                               batch_deadline_s=30.0)

        async def scenario():
            inflight = [
                asyncio.create_task(service.handle_predict(dict(p)))
                for p in sample_payloads
            ]
            await asyncio.sleep(0)
            assert service.batcher.pending == len(sample_payloads)
            publish_model(tmp_path, h2)  # promote the torn run...
            assert service.manager.check_registry() is False  # ...refused
            service.batcher.flush_now()
            return await asyncio.gather(*inflight, return_exceptions=True)

        responses = asyncio.run(scenario())
        failures = [r for r in responses if isinstance(r, Exception)]
        assert failures == []  # zero failed in-flight requests
        assert {r["model_hash"] for r in responses} == {h1}
        for payload, response in zip(sample_payloads, responses):
            offline = trained_xgb.predict_record(payload["record"])
            assert np.array_equal(np.asarray(response["rpv"]), offline)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_rejects_bad_watermarks(self):
        with pytest.raises(ServeError, match="soft_limit"):
            AdmissionController(soft_limit=0)
        with pytest.raises(ServeError, match="hard_limit"):
            AdmissionController(soft_limit=10, hard_limit=5)

    def test_three_way_transitions(self):
        controller = AdmissionController(soft_limit=2, hard_limit=4)
        assert controller.decide() == "full"
        controller.inflight = 2
        assert controller.decide() == "degraded"
        controller.inflight = 4
        assert controller.decide() == "shed"
        controller.inflight = 1
        assert controller.decide() == "full"
        assert controller.counts == {"full": 2, "degraded": 1, "shed": 1}

    def test_shed_error_is_typed_503(self):
        error = AdmissionController().shed_error()
        assert error.code == 503 and error.reason == "shed"

    def test_degraded_requests_get_instant_model_free_answers(
        self, registry, sample_payloads
    ):
        """With soft_limit=1, the first request parks in the batch and
        every later one answers instantly from the mean_rpv tier."""
        root, _ = registry
        service = make_service(root, soft_inflight=1, max_inflight=100,
                               max_batch=100, batch_deadline_s=0.03)

        async def scenario():
            return await asyncio.gather(*(
                service.handle_predict(dict(sample_payloads[0]))
                for _ in range(6)
            ))

        responses = asyncio.run(scenario())
        tiers = [r["tier"] for r in responses]
        assert tiers.count("model") == 1
        assert tiers.count("mean_rpv") == 5  # armed by resilience.json
        assert all(r["batch_size"] == 1 for r in responses
                   if r["tier"] == "mean_rpv")
        assert service.admission.counts["degraded"] == 5

    def test_overload_sheds_with_typed_503(
        self, registry, sample_payloads
    ):
        root, _ = registry
        service = make_service(root, soft_inflight=1, max_inflight=1,
                               max_batch=100, batch_deadline_s=0.03)

        async def scenario():
            return await asyncio.gather(
                *(service.handle_predict(dict(sample_payloads[0]))
                  for _ in range(5)),
                return_exceptions=True,
            )

        responses = asyncio.run(scenario())
        ok = [r for r in responses if isinstance(r, dict)]
        shed = [r for r in responses if isinstance(r, ServeError)]
        assert len(ok) == 1 and ok[0]["tier"] == "model"
        assert len(shed) == 4
        assert all(e.code == 503 and e.reason == "shed" for e in shed)
        assert service.admission.counts["shed"] == 4


# ----------------------------------------------------------------------
# TierSnapshot: live, pollable degradation stats
# ----------------------------------------------------------------------
class TestTierSnapshot:
    def test_snapshot_is_pollable_mid_stream(
        self, trained_xgb, small_dataset, sample_payloads
    ):
        resilient = ResilientPredictor.from_training(
            trained_xgb, small_dataset
        )
        record = dict(sample_payloads[0]["record"])
        before = resilient.tier_snapshot()
        assert before.total == 0 and before.degraded_fraction == 0.0

        resilient.predict_record_detailed(record)
        mid = resilient.tier_snapshot()
        assert mid.count("model") == 1

        broken = {k: v for k, v in record.items() if k != "branch"}
        resilient.predict_record_detailed(broken)
        resilient.predict_record_detailed(broken)
        after = resilient.tier_snapshot()
        assert after.count("imputed") == 2
        assert after.total == 3

        window = after.delta(mid)
        assert window.count("imputed") == 2
        assert window.count("model") == 0
        assert window.degraded_fraction == 1.0
        # Snapshots are frozen values, not live views.
        resilient.predict_record_detailed(record)
        assert after.total == 3

    def test_snapshot_round_trips_to_json(self, trained_xgb):
        resilient = ResilientPredictor(predictor=trained_xgb)
        snapshot = resilient.tier_snapshot()
        payload = snapshot.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert set(payload) == {"counts", "total", "degraded_fraction"}


# ----------------------------------------------------------------------
# Request-level observability: correlation ids, error context, spans
# ----------------------------------------------------------------------
@pytest.fixture()
def tracing():
    """Trace mode for one test, restored to off afterwards."""
    from repro import telemetry

    telemetry.configure("trace")
    telemetry.reset()
    yield telemetry
    telemetry.configure("off")
    telemetry.reset()


class TestObservability:
    def test_response_echoes_wire_ids(self, registry, sample_payloads):
        root, _ = registry
        service = make_service(root)
        payload = dict(sample_payloads[0])
        payload["request_id"] = "req-caller-7"
        payload["trace_id"] = "trace-caller-7"
        response = asyncio.run(service.handle_predict(payload))
        assert response["request_id"] == "req-caller-7"
        assert response["trace_id"] == "trace-caller-7"

    def test_absent_ids_are_minted(self, registry, sample_payloads):
        root, _ = registry
        service = make_service(root)
        response = asyncio.run(
            service.handle_predict(dict(sample_payloads[0]))
        )
        assert response["request_id"].startswith("req-")
        # No wire trace and tracing off: no trace to speak of.
        assert "trace_id" not in response

    @pytest.mark.parametrize("value", [7, "", "x" * 129, "bad id!"])
    def test_invalid_wire_id_is_typed(self, value):
        with pytest.raises(ServeError, match="request_id"):
            parse_predict_payload({"features": [1.0],
                                   "request_id": value})

    def test_error_bodies_carry_request_context(self, registry):
        """Every 4xx/5xx body names the request, the serving model,
        and the live admission state (satellite: debuggable errors)."""
        root, chash = registry
        service = make_service(root)

        async def scenario():
            return [
                await service._route("POST", "/predict", b"{not json"),
                await service._route("POST", "/predict",
                                     json.dumps({}).encode()),
                await service._route("GET", "/nope", b""),
                await service._route("GET", "/metrics?format=xml", b""),
            ]

        for status, body in asyncio.run(scenario()):
            assert status >= 400
            assert body["request_id"].startswith("req-")
            assert body["model_hash"] == chash
            assert body["admission"] == {"inflight": 0, "state": "full"}

    def test_error_body_preserves_wire_ids(self, registry):
        """Ids peeked off an invalid payload still reach the error
        body, so the caller can correlate its own failed request."""
        root, _ = registry
        service = make_service(root)
        bad = {"request_id": "req-mine", "trace_id": "trace-mine"}
        status, body = asyncio.run(
            service._route("POST", "/predict", json.dumps(bad).encode())
        )
        assert status == 400
        assert body["request_id"] == "req-mine"
        assert body["trace_id"] == "trace-mine"

    def test_unhandled_error_answers_500_and_dumps_flight(
        self, registry, tmp_path, monkeypatch
    ):
        from repro import telemetry

        root, chash = registry
        service = make_service(root, flight_events=64)
        service.flight_path = tmp_path / "flight.json"

        def boom():
            raise RuntimeError("exporter bug")

        monkeypatch.setattr(service, "metrics_payload", boom)
        try:
            status, body = asyncio.run(
                service._route("GET", "/metrics", b"")
            )
            assert status == 500
            assert body["reason"] == "internal"
            assert "RuntimeError" in body["error"]
            assert body["model_hash"] == chash
            dump = json.loads(service.flight_path.read_text())
            assert dump["flight_format_version"] == 2
            assert dump["reason"] == "unhandled-error"
            assert any(e["kind"] == "serve.http.unhandled"
                       and e["endpoint"] == "metrics"
                       for e in dump["events"])
        finally:
            telemetry.flight.disable()
            telemetry.flight.clear()

    def test_batch_spans_link_to_request_spans(
        self, registry, sample_payloads, tracing
    ):
        """One coalesced flush yields serve.request -> serve.predict
        parent-child links per caller plus one batch span naming every
        trace it served (the tentpole's causality contract)."""
        root, _ = registry
        service = make_service(root, max_batch=3, batch_deadline_s=5.0)

        async def scenario():
            calls = []
            for i in range(3):
                payload = dict(sample_payloads[i])
                payload["request_id"] = f"req-{i}"
                payload["trace_id"] = f"trace-{i}"
                calls.append(service.handle_predict(payload))
            return await asyncio.gather(*calls)

        responses = asyncio.run(scenario())
        assert [r["trace_id"] for r in responses] == [
            "trace-0", "trace-1", "trace-2"
        ]
        spans = {name: [] for name in
                 ("serve.request", "serve.predict",
                  "serve.coalescer.batch")}
        for record in tracing.spans():
            if record.name in spans:
                spans[record.name].append(record)
        assert len(spans["serve.request"]) == 3
        assert len(spans["serve.predict"]) == 3
        assert len(spans["serve.coalescer.batch"]) == 1
        batch = spans["serve.coalescer.batch"][0]
        assert batch.attrs["rows"] == 3
        assert batch.attrs["trace_ids"] == [
            "trace-0", "trace-1", "trace-2"
        ]
        request_by_trace = {r.trace_id: r for r in spans["serve.request"]}
        for predict in spans["serve.predict"]:
            parent = request_by_trace[predict.trace_id]
            assert predict.parent_id == parent.span_id
            assert predict.attrs["batch_span_id"] == batch.span_id
            assert predict.attrs["tier"] == "model"
        for i, request in enumerate(spans["serve.request"]):
            assert request.attrs["decision"] == "full"
            assert request.attrs["request_id"].startswith("req-")
        # The Chrome export carries the trace ids where viewers (and
        # repro report) can see them.
        trace_doc = tracing.chrome_trace(tracing.spans())
        exported = {e["args"].get("trace_id")
                    for e in trace_doc["traceEvents"]
                    if e.get("ph") == "X" and e["name"] == "serve.predict"}
        assert exported == {"trace-0", "trace-1", "trace-2"}

    def test_degraded_answers_get_a_tier_span(
        self, registry, sample_payloads, tracing
    ):
        root, _ = registry
        service = make_service(root, soft_inflight=1, max_inflight=100,
                               max_batch=100, batch_deadline_s=0.03)
        payload = dict(sample_payloads[0])
        payload["trace_id"] = "trace-deg"

        async def scenario():
            return await asyncio.gather(*(
                service.handle_predict(dict(payload)) for _ in range(4)
            ))

        asyncio.run(scenario())
        degrades = [r for r in tracing.spans()
                    if r.name == "serve.degrade"]
        requests = {r.span_id: r for r in tracing.spans()
                    if r.name == "serve.request"}
        assert len(degrades) == 3
        for span in degrades:
            assert span.trace_id == "trace-deg"
            assert span.attrs["tier"] == "mean_rpv"
            assert span.parent_id in requests

    def test_minted_trace_id_when_tracing(
        self, registry, sample_payloads, tracing
    ):
        root, _ = registry
        service = make_service(root)
        response = asyncio.run(
            service.handle_predict(dict(sample_payloads[0]))
        )
        assert response["trace_id"]  # minted, echoed
        request = [r for r in tracing.spans()
                   if r.name == "serve.request"][0]
        assert request.trace_id == response["trace_id"]

    def test_prometheus_exposition_over_route(self, registry,
                                              sample_payloads):
        import importlib.util
        from pathlib import Path

        from repro import telemetry

        root, _ = registry
        service = make_service(root)
        telemetry.configure("metrics")
        telemetry.reset()
        try:
            async def scenario():
                await service._route(
                    "POST", "/predict",
                    json.dumps(dict(sample_payloads[0])).encode(),
                )
                return await self._respond_capture(service)

            status, body = asyncio.run(scenario())
            assert status == 200
            text = str(body)
            assert text.startswith("# TYPE repro_serve_http_requests_total")
            assert 'repro_serve_http_requests_total{endpoint="predict"} 1' \
                in text
            assert "# TYPE repro_serve_http_predict_seconds histogram" \
                in text
            assert 'repro_serve_http_predict_seconds_bucket{le="+Inf"} 1' \
                in text
            checker_path = (Path(__file__).resolve().parent.parent
                            / "tools" / "check_prometheus.py")
            spec = importlib.util.spec_from_file_location(
                "check_prometheus", checker_path
            )
            checker = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(checker)
            assert checker.check_exposition(text) == []
        finally:
            telemetry.configure("off")
            telemetry.reset()

    @staticmethod
    async def _respond_capture(service):
        return await service._route("GET", "/metrics?format=prometheus",
                                    b"")

    def test_prometheus_body_is_plain_text_over_http(
        self, registry, sample_payloads
    ):
        """End-to-end over a real socket: the exposition answers with
        the text content type, not JSON."""
        root, _ = registry
        service = make_service(root)

        async def scenario():
            host, port = await service.start("127.0.0.1", 0)
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"GET /metrics?format=prometheus HTTP/1.1\r\n"
                    b"connection: close\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read(-1)
                writer.close()
                return raw
            finally:
                await service.stop()

        raw = asyncio.run(scenario()).decode()
        head, _, body = raw.partition("\r\n\r\n")
        assert "200 OK" in head
        assert "content-type: text/plain; version=0.0.4" in head
        assert body.startswith("# TYPE ")

    def test_conflicting_content_length_is_typed_400_and_closes(
        self, registry, sample_payloads
    ):
        """A keep-alive request with two disagreeing content-length
        headers gets the typed bad-http 400 and a closed connection —
        its unread body bytes are never parsed as a next request."""
        root, _ = registry
        service = make_service(root)
        body = json.dumps(dict(sample_payloads[0])).encode()

        async def scenario():
            host, port = await service.start("127.0.0.1", 0)
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"POST /predict HTTP/1.1\r\n"
                    b"content-length: 2\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(-1), 10.0)
                writer.close()
                return raw
            finally:
                await service.stop()

        raw = asyncio.run(scenario()).decode()
        assert raw.count("HTTP/1.1 ") == 1
        head, _, payload = raw.partition("\r\n\r\n")
        assert head.startswith("HTTP/1.1 400 ")
        assert "connection: close" in head
        assert json.loads(payload)["reason"] == "bad-http"
        assert service.request_counts == {}

    def test_metrics_bad_format_is_typed_400(self, registry):
        root, _ = registry
        service = make_service(root)
        status, body = asyncio.run(
            service._route("GET", "/metrics?format=xml", b"")
        )
        assert status == 400
        assert body["reason"] == "bad-format"


# ----------------------------------------------------------------------
# SLO-driven admission at the service level
# ----------------------------------------------------------------------
class TestSLOAdmission:
    def _policy(self, threshold_s=1e-9, shed_burn=4.0):
        from repro.telemetry.slo import SLOShedPolicy, SLOSpec

        spec = SLOSpec(name="serve-predict-latency", objective="latency",
                       target=0.9, histogram="serve.http.predict.seconds",
                       threshold_s=threshold_s)
        return SLOShedPolicy(spec, degrade_burn=1.0, shed_burn=shed_burn)

    def test_default_service_has_no_slo(self, registry):
        root, _ = registry
        service = make_service(root)
        assert service.admission.slo is None
        assert "slo" not in service.metrics_payload()["service"]["admission"]

    def test_sustained_burn_sheds_deterministically(
        self, registry, sample_payloads
    ):
        """With an unmeetable threshold every answered request burns
        budget, so exactly one request succeeds and every later one is
        shed — the same count on every run (seeded determinism)."""
        root, _ = registry
        service = make_service(root, slo=self._policy(threshold_s=1e-9),
                               max_batch=1, batch_deadline_s=0.001)

        async def scenario():
            outcomes = []
            for payload in sample_payloads:
                try:
                    response = await service.handle_predict(dict(payload))
                    outcomes.append(response["tier"])
                except ServeError as exc:
                    outcomes.append(exc.reason)
            return outcomes

        outcomes = asyncio.run(scenario())
        assert outcomes == ["model"] + ["shed"] * 5
        assert service.admission.counts["shed"] == 5
        snapshot = service.metrics_payload()["service"]["admission"]
        assert snapshot["slo"]["decision"] == "shed"
        assert snapshot["slo"]["total"] == 1  # shed requests never observe

    def test_healthy_latency_stays_full(self, registry, sample_payloads):
        root, _ = registry
        service = make_service(root, slo=self._policy(threshold_s=60.0),
                               max_batch=1, batch_deadline_s=0.001)

        async def scenario():
            for payload in sample_payloads:
                await service.handle_predict(dict(payload))

        asyncio.run(scenario())
        assert service.admission.counts == {"full": 6, "degraded": 0,
                                            "shed": 0}
        snapshot = service.admission.snapshot()["slo"]
        assert snapshot["decision"] == "full"
        assert snapshot["good"] == 6

    def test_shed_transition_records_flight_event(
        self, registry, sample_payloads, tmp_path
    ):
        from repro import telemetry

        root, _ = registry
        service = make_service(root, slo=self._policy(threshold_s=1e-9),
                               max_batch=1, batch_deadline_s=0.001,
                               flight_events=64)
        service.flight_path = tmp_path / "flight.json"
        try:
            async def scenario():
                await service.handle_predict(dict(sample_payloads[0]))
                with pytest.raises(ServeError):
                    await service.handle_predict(dict(sample_payloads[1]))

            asyncio.run(scenario())
            dump = json.loads(service.flight_path.read_text())
            assert dump["reason"] == "shed-transition"
            transitions = [e for e in dump["events"]
                           if e["kind"] == "serve.admission.transition"]
            assert transitions[-1]["previous"] == "full"
            assert transitions[-1]["decision"] == "shed"
        finally:
            telemetry.flight.disable()
            telemetry.flight.clear()

    def test_flight_kinds_are_counter_names(
        self, registry, sample_payloads, tmp_path, monkeypatch
    ):
        """A flush, a shed transition and an unhandled 500 each reach
        the flight ring under the counter name ``/metrics`` reports."""
        from repro import telemetry

        telemetry.configure("metrics")
        telemetry.reset()
        root, _ = registry
        service = make_service(root, slo=self._policy(threshold_s=1e-9),
                               max_batch=1, batch_deadline_s=0.001,
                               flight_events=64)
        service.flight_path = tmp_path / "flight.json"

        def boom():
            raise RuntimeError("exporter bug")

        monkeypatch.setattr(service, "metrics_payload", boom)
        try:
            async def scenario():
                await service.handle_predict(dict(sample_payloads[0]))
                with pytest.raises(ServeError):
                    await service.handle_predict(dict(sample_payloads[1]))
                return await service._route("GET", "/metrics", b"")

            status, _ = asyncio.run(scenario())
            assert status == 500
            dump = json.loads(service.flight_path.read_text())
            counters = telemetry.snapshot()["counters"]
            kinds = {event["kind"] for event in dump["events"]}
            assert {"serve.coalescer.flush.size",
                    "serve.admission.transition",
                    "serve.http.unhandled"} <= kinds
            assert kinds <= set(counters)
        finally:
            telemetry.configure("off")
            telemetry.reset()
            telemetry.flight.disable()
