"""The online prediction + placement service.

A :class:`PredictionService` answers "which machine should this job run
on" at decision time: JSON profile/counter payloads arrive over a local
HTTP endpoint, concurrent requests coalesce into micro-batches through
the active model's vectorized predict path, and each response carries
the predicted RPV plus a placement recommendation from a registered
scheduling strategy.

Request path (``POST /predict``)::

    parse -> admission -> [full]     coalesce -> batch predict -> place
                          [degraded] model-free tier answer     -> place
                          [shed]     typed 503

Batch atomicity under hot-swap: a flush captures ``manager.active``
*once* and featurizes + predicts the entire batch against that one
model; the response's ``model_hash`` names it.  A promotion landing
mid-batch affects only later batches — no request ever observes a
half-loaded model (pinned by tests/test_serve.py).

Endpoints: ``POST /predict``, ``GET /metrics`` (admission counters,
tier snapshot, coalescer state, telemetry snapshot; add
``?format=prometheus`` for text exposition), ``GET /healthz``,
``GET /model``.  The HTTP layer is deliberately minimal stdlib asyncio
(request line + headers + content-length body, framed by the bounded
:func:`~repro.serve.protocol.read_message`; a framing defect gets its
typed 400/431 and a closed connection) — the service binds to loopback
for a scheduler sidecar, not the open internet.

Observability: every request gets a ``request_id``/``trace_id`` (wire
values win, absent ones are minted) echoed in the response — success
*and* error — and stamped on the request's span tree, so one Chrome
trace shows ``serve.request`` → ``serve.coalescer.batch`` →
``serve.predict``/``serve.degrade`` as linked parent-child spans even
though the batch flush runs outside any request's call stack.  Error
bodies additionally carry the serving model hash and the live admission
state.  Admission transitions, batch flushes, swaps and unhandled errors
are ``telemetry.event`` calls, so they also land in the flight ring
(``telemetry.flight``); transitions *into* shed and unhandled server
errors dump it to ``flight.json``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import sys
import time
from dataclasses import dataclass
from urllib.parse import parse_qs

import numpy as np

from repro import telemetry
from repro.errors import ReproError, ServeError
from repro.serve.admission import AdmissionController
from repro.serve.coalescer import MicroBatcher
from repro.serve.model_manager import ActiveModel, ModelManager
from repro.serve.protocol import (
    ParsedRequest,
    error_response,
    mint_request_id,
    parse_predict_payload,
    peek_wire_ids,
    predict_response,
    read_message,
    zeroshot_response,
)

__all__ = ["PredictionService", "BatchResult"]

#: Response statuses the minimal HTTP writer knows how to phrase.
_PHRASES = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}


class _TextBody(str):
    """A plain-text response body (``_respond`` defaults to JSON)."""

    #: Prometheus text exposition format version 0.0.4.
    content_type = "text/plain; version=0.0.4; charset=utf-8"


@dataclass
class BatchResult:
    """One request's share of a flushed batch."""

    rpv: np.ndarray
    tier: str
    model: ActiveModel
    batch_size: int


class PredictionService:
    """Micro-batching prediction server over a hot-swappable model."""

    def __init__(
        self,
        manager: ModelManager,
        strategy: str = "model",
        max_batch: int = 32,
        batch_deadline_s: float = 0.005,
        soft_inflight: int = 64,
        max_inflight: int = 256,
        cluster=None,
        slo=None,
        flight_events: int = 0,
    ):
        from repro.sched.machines import ClusterState
        from repro.sched.strategies import strategy_by_name

        self.manager = manager
        self.batcher = MicroBatcher(
            self._predict_batch, max_batch=max_batch,
            max_delay_s=batch_deadline_s,
        )
        self.admission = AdmissionController(
            soft_limit=soft_inflight, hard_limit=max_inflight, slo=slo
        )
        #: Where :meth:`dump_flight` writes (set by ``repro serve`` to
        #: the run dir's ``flight.json``); None = no dumps.
        self.flight_path = None
        #: Last admission decision, for transition detection.
        self._last_decision = "full"
        if flight_events:
            telemetry.flight.enable(flight_events)
        self.strategy_name = strategy
        self.strategy = strategy_by_name(strategy)
        self.cluster = cluster if cluster is not None else ClusterState()
        self._job_ids = itertools.count()
        self._assign_index = 0
        self._server: asyncio.base_events.Server | None = None
        self._started = time.monotonic()
        self.address: tuple[str, int] | None = None
        #: endpoint -> request count; status -> response count.  Kept
        #: service-side (not only in telemetry) so ``/metrics`` answers
        #: even with telemetry off.
        self.request_counts: dict[str, int] = {}
        self.status_counts: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Batch prediction (runs inside MicroBatcher flushes)
    # ------------------------------------------------------------------
    def _predict_batch(self, items: list[ParsedRequest]) -> list:
        """Predict one coalesced batch against ONE captured model.

        Per-item results are :class:`BatchResult`; an item whose
        features cannot fit the captured model gets a
        :class:`ServeError` result (its caller alone fails).  Every
        other item — raw record or feature row — goes to the model's
        degradation chain in one call, which decides each answer's tier.
        """
        model = self.manager.active  # the swap point: captured once
        n = len(items)
        # The flush runs on the event loop, outside every request's call
        # stack, so causality is wired explicitly: one batch span, plus
        # one serve.predict span per item parented under that item's
        # serve.request span (item.span_id) in the item's own trace.
        batch_span = telemetry.start_span("serve.coalescer.batch")
        item_spans = None
        if batch_span.span_id is not None:
            batch_span.annotate(
                rows=n,
                trace_ids=sorted({item.trace_id for item in items
                                  if item.trace_id}),
            )
            item_spans = [
                telemetry.start_span(
                    "serve.predict", trace_id=item.trace_id,
                    parent_id=item.span_id, kind=item.kind,
                    batch_span_id=batch_span.span_id,
                )
                for item in items
            ]
        results: list = [None] * n
        answered: list[int] = []
        inputs: list = []
        for i, item in enumerate(items):
            if item.kind == "record":
                inputs.append(item.record)
            elif len(item.features) == model.n_features:
                inputs.append(item.features)
            else:
                results[i] = ServeError(
                    f"'features' has {len(item.features)} entries; "
                    f"model {model.config_hash[:12]} expects "
                    f"{model.n_features}"
                )
                continue
            answered.append(i)
        outcomes = model.resilient.predict_batch(inputs)
        for i, outcome in zip(answered, outcomes):
            results[i] = BatchResult(outcome.rpv, outcome.tier, model,
                                     len(inputs))
        if item_spans is not None:
            for span, result in zip(item_spans, results):
                if isinstance(result, BatchResult):
                    span.annotate(tier=result.tier)
                    span.end()
                else:
                    span.end(type(result) if result is not None else None)
            batch_span.end()
        return results

    # ------------------------------------------------------------------
    # Zero-shot scoring (inline machine descriptors)
    # ------------------------------------------------------------------
    def _predict_zeroshot(self, request: ParsedRequest) -> dict:
        """Score one request against its inline machine descriptors.

        Captures ``manager.active`` once (same hot-swap atomicity as a
        batch flush) and routes through the descriptor-conditioned
        head.  The response ranks the *request's* machines by predicted
        ``t_machine / t_source`` and carries per-machine uncertainty.
        """
        model = self.manager.active  # the swap point: captured once
        zeroshot = model.zeroshot
        if zeroshot is None:
            raise ServeError(
                f"model {model.config_hash[:12]} has no zero-shot head; "
                f"retrain with --zeroshot to score inline machines",
                code=503, reason="no-zeroshot-model",
            )
        machines = request.machines
        try:
            if request.kind == "features":
                if len(request.features) != model.n_features:
                    raise ServeError(
                        f"'features' has {len(request.features)} entries; "
                        f"model {model.config_hash[:12]} expects "
                        f"{model.n_features}"
                    )
                row = np.asarray(request.features, dtype=np.float64)
                scores, spread = zeroshot.predict_wide(
                    row[None, :], machines, uncertainty=True
                )
                scores, spread = scores[0], spread[0]
            else:
                scores, spread = zeroshot.score_record(
                    request.record, machines
                )
        except ServeError:
            raise
        except (ReproError, ValueError, KeyError, TypeError,
                RuntimeError) as exc:
            # Unlike the RPV path there is no degradation tier to fall
            # into: a heuristic has no opinion on a machine it has
            # never seen, so a bad profile is the caller's error.
            raise ServeError(
                f"cannot score request against inline machines: {exc}"
            ) from exc
        telemetry.counter("serve.zeroshot.requests").inc()
        return zeroshot_response(
            machines, scores, spread, "zeroshot", model.config_hash,
            request_id=request.request_id, trace_id=request.trace_id,
        )

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _recommend(self, request: ParsedRequest, rpv: np.ndarray,
                   model: ActiveModel) -> str:
        """Route the predicted RPV through the configured strategy."""
        from repro.sched.job import Job

        app = "request"
        if request.record is not None:
            app = str(request.record.get("app", app)) or app
        job = Job(
            job_id=next(self._job_ids),
            app=app,
            uses_gpu=request.uses_gpu,
            nodes_required=request.nodes_required,
            # RPVs are relative times: positive-clamped they double as
            # the placeholder runtimes Job validation requires.
            runtimes={
                s: max(float(v), 1e-9)
                for s, v in zip(model.systems, rpv)
            },
            predicted_rpv=np.asarray(rpv, dtype=np.float64),
        )
        try:
            choice = self.strategy.assign(job, self._assign_index,
                                          self.cluster)
            self._assign_index += 1
            return choice
        finally:
            release = getattr(self.strategy, "release", None)
            if release is not None:
                release(job.job_id)

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def handle_predict(self, payload, request_id: str | None = None,
                             trace_id: str | None = None) -> dict:
        """Full ``/predict`` flow for one parsed JSON payload.

        *request_id*/*trace_id* are transport-level fallbacks; ids in
        the payload win, and whatever is still missing is minted here.
        The resolved pair is echoed in the response and stamped on the
        request's ``serve.request`` span, which the coalesced batch
        parents its per-item spans under.
        """
        request = parse_predict_payload(payload)
        request_id = request.request_id or request_id or mint_request_id()
        trace_id = request.trace_id or trace_id
        if trace_id is None and telemetry.tracing_enabled():
            trace_id = (telemetry.current_trace()[0]
                        or telemetry.new_trace_id())
        span = telemetry.start_span(
            "serve.request", trace_id=trace_id, request_id=request_id,
            kind=request.kind,
        )
        request = dataclasses.replace(
            request, request_id=request_id, trace_id=trace_id,
            span_id=span.span_id,
        )
        decision = self.admission.decide()
        span.annotate(decision=decision)
        self._note_decision(decision)
        if decision == "shed":
            span.end(ServeError)
            error = self.admission.shed_error()
            error.request_id = request_id
            error.trace_id = trace_id
            raise error
        self.admission.enter()
        t0 = time.perf_counter()
        ok = False
        try:
            if request.machines is not None:
                # Zero-shot scoring of inline descriptors: a rare
                # control-plane request (capacity planning, onboarding a
                # new machine), answered directly — no micro-batching,
                # and no degraded tier (there is no model-free answer
                # for machines the heuristics have never seen).
                response = self._predict_zeroshot(request)
            elif decision == "degraded":
                model = self.manager.active
                with telemetry.start_span(
                    "serve.degrade", trace_id=trace_id,
                    parent_id=span.span_id,
                ) as dspan:
                    outcome = model.resilient.baseline(request.uses_gpu)
                    dspan.annotate(tier=outcome.tier)
                recommended = self._recommend(request, outcome.rpv, model)
                response = predict_response(
                    outcome.rpv, model.systems, recommended, outcome.tier,
                    model.config_hash, 1,
                    request_id=request_id, trace_id=trace_id,
                )
            else:
                result = await self.batcher.submit(request)
                recommended = self._recommend(
                    request, result.rpv, result.model
                )
                response = predict_response(
                    result.rpv, result.model.systems, recommended,
                    result.tier, result.model.config_hash,
                    result.batch_size,
                    request_id=request_id, trace_id=trace_id,
                )
            ok = True
            return response
        except ServeError as exc:
            # Stamp the resolved ids on the propagating error so the
            # error body names the same request the span tree does.
            exc.request_id = request_id
            exc.trace_id = trace_id
            raise
        finally:
            self.admission.exit()
            # Shed requests never get here: only *answered* requests
            # feed the SLO burn tracker (an already-shedding service
            # must not count its own 503s as budget burn).
            self.admission.observe(time.perf_counter() - t0, ok)
            span.end(None if ok else sys.exc_info()[0])

    # ------------------------------------------------------------------
    # Flight recorder
    # ------------------------------------------------------------------
    def _note_decision(self, decision: str) -> None:
        """Track admission transitions; entering shed dumps the ring.

        A transition *into* shed is exactly the moment a post-mortem
        needs the recent history, and transitions are rare by
        construction — this can never become a dump-per-request.
        """
        previous, self._last_decision = self._last_decision, decision
        if decision == previous:
            return
        telemetry.event(
            "serve.admission.transition", previous=previous,
            decision=decision, inflight=self.admission.inflight,
        )
        if decision == "shed":
            self.dump_flight("shed-transition")

    def dump_flight(self, reason: str):
        """Write the flight ring to ``flight.json``; returns the path
        (None when no path is configured or recording is off)."""
        if self.flight_path is None or not telemetry.flight.enabled:
            return None
        telemetry.write_json(self.flight_path, telemetry.flight.dump(reason))
        return self.flight_path

    async def _route(self, method: str, target: str,
                     body: bytes) -> tuple[int, dict]:
        target, _, query = target.partition("?")
        endpoint = target.strip("/") or "root"
        self.request_counts[endpoint] = (
            self.request_counts.get(endpoint, 0) + 1
        )
        t0 = time.perf_counter()
        request_id = trace_id = None
        try:
            if method != ("POST" if target == "/predict" else "GET"):
                raise ServeError(f"{method} not allowed on {target!r}",
                                 code=405, reason="method")
            if target == "/predict":
                try:
                    data = json.loads(body or b"")
                except json.JSONDecodeError as exc:
                    raise ServeError(
                        f"request body is not valid JSON: {exc}"
                    ) from exc
                request_id, trace_id = peek_wire_ids(data)
                status, payload = 200, await self.handle_predict(
                    data, request_id=request_id, trace_id=trace_id
                )
            elif target == "/metrics":
                fmt = parse_qs(query).get("format", ["json"])[-1]
                if fmt == "prometheus":
                    status, payload = 200, self.prometheus_payload()
                elif fmt == "json":
                    status, payload = 200, self.metrics_payload()
                else:
                    raise ServeError(
                        f"unknown metrics format {fmt!r} (choose json "
                        f"or prometheus)", reason="bad-format",
                    )
            elif target == "/healthz":
                status, payload = 200, {
                    "status": "ok" if self.manager.has_model else "no-model",
                    "model_hash": (
                        self.manager.active.config_hash
                        if self.manager.has_model else None
                    ),
                }
            elif target == "/model":
                status, payload = 200, self.manager.active.describe()
            else:
                raise ServeError(f"no such endpoint {target!r}", code=404,
                                 reason="not-found")
        except ServeError as exc:
            status, payload = error_response(exc)
            request_id = getattr(exc, "request_id", None) or request_id
            trace_id = getattr(exc, "trace_id", None) or trace_id
        except Exception as exc:  # noqa: BLE001 - the 500 must not crash
            # An unhandled handler error is a server bug: record it,
            # dump the flight ring for the post-mortem, and answer a
            # typed 500 instead of tearing down the connection.
            telemetry.event("serve.http.unhandled", endpoint=endpoint,
                            error=type(exc).__name__)
            self.dump_flight("unhandled-error")
            status, payload = 500, {
                "error": f"internal error: {type(exc).__name__}",
                "reason": "internal",
            }
        finally:
            if telemetry.metrics_enabled():
                telemetry.histogram(
                    f"serve.http.{endpoint}.seconds"
                ).observe(time.perf_counter() - t0)
                telemetry.counter(f"serve.http.{endpoint}.requests").inc()
        if status >= 400 and isinstance(payload, dict):
            payload = self._with_error_context(payload, request_id,
                                               trace_id)
        return status, payload

    def _with_error_context(self, body: dict, request_id: str | None,
                            trace_id: str | None) -> dict:
        """Stamp correlation + state context onto an error body.

        Every 4xx/5xx carries the request id (minted when the caller
        sent none), the serving model hash, and the live admission
        state, so one error line is debuggable without a second probe.
        """
        body.setdefault("request_id", request_id or mint_request_id())
        if trace_id is not None:
            body.setdefault("trace_id", trace_id)
        body.setdefault("model_hash",
                        self.manager.active.config_hash
                        if self.manager.has_model else None)
        body.setdefault("admission", {
            "inflight": self.admission.inflight,
            "state": self.admission.state(),
        })
        return body

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics_payload(self) -> dict:
        """Everything ``/metrics`` serves (also a run-dir artifact)."""
        service = {
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "requests": dict(sorted(self.request_counts.items())),
            "responses_by_status": {
                str(k): v for k, v in sorted(self.status_counts.items())
            },
            "admission": self.admission.snapshot(),
            "coalescer": {
                "pending": self.batcher.pending,
                "max_batch": self.batcher.max_batch,
                "max_delay_ms": self.batcher.max_delay_s * 1000.0,
            },
            "strategy": self.strategy_name,
        }
        if self.manager.has_model:
            active = self.manager.active
            service["model"] = active.describe()
            service["tiers"] = active.resilient.tier_snapshot().to_dict()
        else:
            service["model"] = None
            service["tiers"] = None
        payload = {"service": service}
        if telemetry.metrics_enabled():
            payload["telemetry"] = telemetry.snapshot()
        return payload

    def prometheus_payload(self) -> _TextBody:
        """The ``GET /metrics?format=prometheus`` exposition document.

        Service-side series (request/response counts, in-flight) render
        with labels so they survive even with telemetry off; when the
        registry is recording, its whole snapshot follows via
        :func:`~repro.telemetry.export.prometheus_text` — histograms
        keep their native upper-edge-inclusive ``le`` semantics.
        """
        lines = ["# TYPE repro_serve_http_requests_total counter"]
        lines += [
            telemetry.prometheus_sample(
                "repro_serve_http_requests_total",
                {"endpoint": endpoint}, count,
            )
            for endpoint, count in sorted(self.request_counts.items())
        ]
        lines.append("# TYPE repro_serve_http_responses_total counter")
        lines += [
            telemetry.prometheus_sample(
                "repro_serve_http_responses_total",
                {"status": str(status)}, count,
            )
            for status, count in sorted(self.status_counts.items())
        ]
        lines.append("# TYPE repro_serve_admission_inflight gauge")
        lines.append(telemetry.prometheus_sample(
            "repro_serve_admission_inflight", None,
            self.admission.inflight,
        ))
        text = "\n".join(lines) + "\n"
        if telemetry.metrics_enabled():
            text += telemetry.prometheus_text(telemetry.snapshot())
        return _TextBody(text)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> tuple[str, int]:
        """Bind and serve; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        sock = self._server.sockets[0].getsockname()
        self.address = (sock[0], sock[1])
        return self.address

    async def stop(self, drain_timeout_s: float = 5.0) -> None:
        """Graceful shutdown: stop accepting, drain in-flight, flush."""
        await self.manager.stop_watching()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + drain_timeout_s
        while self.admission.inflight > 0 and time.monotonic() < deadline:
            self.batcher.flush_now()
            await asyncio.sleep(0.005)
        await self.batcher.close()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    message = await read_message(reader)
                except ServeError as exc:
                    # A framing defect leaves the stream position
                    # unknowable: answer it (unless the client went away
                    # mid-message) and close.
                    if exc.reason != "truncated":
                        status, payload = error_response(exc)
                        payload = self._with_error_context(payload, None, None)
                        await self._respond(writer, status, payload, close=True)
                    break
                if message is None:
                    break
                (method, target, _version), headers, body = message
                status, payload = await self._route(
                    method.upper(), target, body
                )
                close = headers.get("connection", "").lower() == "close"
                await self._respond(writer, status, payload, close=close)
                if close:
                    break
        except ConnectionError:
            pass  # client went away mid-exchange
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload, close: bool = False) -> None:
        self.status_counts[status] = self.status_counts.get(status, 0) + 1
        if isinstance(payload, _TextBody):
            body = str(payload).encode()
            content_type = payload.content_type
        else:
            body = json.dumps(payload).encode()
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {_PHRASES.get(status, 'Unknown')}\r\n"
            f"content-type: {content_type}\r\n"
            f"content-length: {len(body)}\r\n"
            f"connection: {'close' if close else 'keep-alive'}\r\n"
            f"\r\n"
        ).encode("ascii")
        writer.write(head + body)
        await writer.drain()
