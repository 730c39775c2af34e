"""Wire schema for the online prediction service.

One request shape covers both deployment modes the paper implies:

* ``{"record": {...}}`` — a raw profiled run record (the output of
  :func:`repro.hatchet_lite.run_record`: canonical counter fields plus
  run metadata).  The service featurizes it with the active model's
  fitted normalizer, exactly as
  :meth:`repro.core.CrossArchPredictor.predict_record` would.
* ``{"features": [...]}`` — an already-featurized row, matching the
  active model's feature columns.  The fast path for callers that
  featurize upstream (e.g. a scheduler holding a feature cache).

Optional keys: ``nodes_required`` (placement sizing, default 1) and
``uses_gpu`` (drives the model-free heuristic tier; inferred from the
record when present).

A third, zero-shot mode rides on the same request: add ``"machines"``,
a list of inline :class:`~repro.arch.descriptor.MachineDescriptor`
objects (``MachineDescriptor.to_dict()`` shape).  The service then
scores the profile against *those* machines — seen in training or not —
via the active model's descriptor-conditioned head, and the response
carries per-machine ``scores`` (predicted ``t_machine / t_source``) and
``uncertainty`` instead of a fixed-slot RPV.

Responses always carry ``rpv`` (time ratios, canonical system order),
``systems``, ``ranked`` (fastest first), ``recommended`` (the strategy's
placement), ``tier`` (which degradation tier answered), ``model_hash``
(the config hash of the model that answered — hot-swap observability),
and ``batch_size`` (how many requests shared the micro-batch).

Correlation ids: a request may carry ``request_id`` and/or
``trace_id`` (bounded, log-safe strings); the server echoes them —
minting any that are absent — in every response, success or error, and
stamps its spans with the trace id so one id follows a request from
the caller's logs through the coalesced batch to the Chrome trace.

Every defect raises a typed :class:`~repro.errors.ServeError` carrying
an HTTP status code and a machine-readable ``reason`` slug, so the
server maps malformed input to one 400 response shape and load tests
assert on slugs instead of prose.

Framing: :func:`read_message` is the one HTTP/1.1 reader of the serve
wire.  The server reads requests with it and
:class:`~repro.serve.loadgen.HttpSession` reads responses with it, so
both ends enforce the same bounds.
"""

from __future__ import annotations

import asyncio
import os
import re
from dataclasses import dataclass

import numpy as np

from repro.arch.descriptor import MachineDescriptor
from repro.errors import ConfigError, ServeError

__all__ = [
    "PROTOCOL_VERSION",
    "ParsedRequest",
    "parse_predict_payload",
    "predict_response",
    "zeroshot_response",
    "error_response",
    "mint_request_id",
    "peek_wire_ids",
    "read_message",
]

#: Bumped whenever the request/response schema changes incompatibly.
PROTOCOL_VERSION = 1

#: Hard cap on one request's feature width; anything wider is hostile.
_MAX_FEATURES = 4096

#: Hard cap on inline descriptors per request (each one is a model
#: evaluation; a thousand-machine list is a DoS, not a placement).
_MAX_MACHINES = 64

#: Wire-supplied correlation ids: bounded, log-safe charset (no
#: whitespace, quotes, or control bytes to smuggle into logs/traces).
_ID_PATTERN = re.compile(r"^[A-Za-z0-9._:-]{1,128}$")

#: Wire bounds of one message.  The head (start line and headers) is
#: also bounded by the stream's limit, asyncio's default 64 KiB.
MAX_HEADERS = 100
MAX_BODY_BYTES = 1 << 22

#: ``content-length`` is ``1*DIGIT``; over seven significant digits is
#: over MAX_BODY_BYTES (and a hostile value never reaches ``int()``).
_CONTENT_LENGTH = re.compile(r"0*([0-9]{1,7})")


async def read_message(reader: asyncio.StreamReader):
    """Read one HTTP/1.1 message: ``(start_line, headers, body)``.

    The start line comes split into its three fields (method, target,
    version or version, status, reason), header names lower-cased, and
    the body is ``content-length`` bytes.  Returns None when the stream
    ends before a message starts.  A framing defect is a typed
    :class:`ServeError`, after which the connection must close: 431
    ``headers-too-large`` for a head over the stream limit or
    MAX_HEADERS; 400 ``bad-http`` for a start line that is not three
    ASCII fields, a nameless header, any ``transfer-encoding`` (only
    ``content-length`` framing is read), or a ``content-length`` that is
    not digits, exceeds MAX_BODY_BYTES or repeats with another value;
    ``truncated`` when the stream ends mid-message.
    """
    head = b""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
        start, *lines = head[:-4].split(b"\r\n")
        if len(lines) > MAX_HEADERS:
            raise ServeError(f"over {MAX_HEADERS} header lines", code=431,
                             reason="headers-too-large")
        start_line = start.decode("latin-1").split(maxsplit=2)
        if not start.isascii() or len(start_line) != 3:
            raise ServeError("malformed start line", reason="bad-http")
        headers: dict[str, str] = {}
        for line in lines:
            name, colon, value = line.decode("latin-1").partition(":")
            name, value = name.strip().lower(), value.strip()
            if not colon or not name:
                raise ServeError("malformed header line", reason="bad-http")
            if name == "content-length" and headers.get(name, value) != value:
                raise ServeError("content-length repeats with another value",
                                 reason="bad-http")
            headers[name] = value
        digits = _CONTENT_LENGTH.fullmatch(headers.get("content-length", "0"))
        if (digits is None or int(digits[1]) > MAX_BODY_BYTES
                or "transfer-encoding" in headers):
            raise ServeError("body not framed by one valid content-length",
                             reason="bad-http")
        body = await reader.readexactly(int(digits[1]))
    except asyncio.IncompleteReadError as exc:
        if not head and not exc.partial:
            return None
        raise ServeError("stream ended mid-message",
                         reason="truncated") from None
    except asyncio.LimitOverrunError:
        raise ServeError("message head exceeds the stream limit", code=431,
                         reason="headers-too-large") from None
    return start_line, headers, body


def mint_request_id() -> str:
    """A fresh server-side request id (``req-`` + 12 hex chars)."""
    return "req-" + os.urandom(6).hex()


def peek_wire_ids(payload) -> "tuple[str | None, str | None]":
    """Best-effort ``(request_id, trace_id)`` extraction, never raises.

    The transport layer needs the caller's correlation ids even when the
    request is malformed (they go into the error body); a bad id simply
    reads as absent here — the strict parse in
    :func:`parse_predict_payload` still rejects the request.
    """
    if not isinstance(payload, dict):
        return None, None
    ids = []
    for key in ("request_id", "trace_id"):
        value = payload.get(key)
        ids.append(value if isinstance(value, str)
                   and _ID_PATTERN.match(value) else None)
    return ids[0], ids[1]


def _parse_wire_id(payload: dict, key: str) -> str | None:
    """The optional ``request_id``/``trace_id`` a caller supplied."""
    if key not in payload:
        return None
    value = payload[key]
    if not isinstance(value, str) or not _ID_PATTERN.match(value):
        raise ServeError(
            f"'{key}' must be 1-128 characters from [A-Za-z0-9._:-]"
        )
    return value


@dataclass(frozen=True)
class ParsedRequest:
    """One validated prediction request.

    ``kind`` is ``"record"`` or ``"features"``; exactly one of
    ``record``/``features`` is set.  ``features`` width is validated
    against the *active model* at batch time (the model can change
    between admission and flush under hot-swap), not here.
    """

    kind: str
    record: dict | None
    features: tuple[float, ...] | None
    nodes_required: int
    uses_gpu: bool
    #: Inline descriptors for zero-shot scoring; None = classic RPV mode.
    machines: tuple[MachineDescriptor, ...] | None = None
    #: Correlation ids: wire-supplied or minted by the server, echoed in
    #: every response (success and error) for end-to-end tracing.
    request_id: str | None = None
    trace_id: str | None = None
    #: The request's root span id (server-side), so batch-flush spans in
    #: other scopes can parent themselves under the request span.
    span_id: int | None = None


def parse_predict_payload(payload) -> ParsedRequest:
    """Validate one ``/predict`` body; typed :class:`ServeError` on any
    defect (the server turns these into one 400 JSON shape)."""
    if not isinstance(payload, dict):
        raise ServeError(
            f"request body must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    unknown = sorted(
        set(payload) - {"record", "features", "nodes_required", "uses_gpu",
                        "machines", "request_id", "trace_id"}
    )
    if unknown:
        raise ServeError(f"unknown request key(s): {', '.join(unknown)}")
    has_record = "record" in payload
    has_features = "features" in payload
    if has_record == has_features:
        raise ServeError(
            "request must carry exactly one of 'record' or 'features'"
        )

    nodes = payload.get("nodes_required", 1)
    if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 1:
        raise ServeError(
            f"nodes_required must be a positive integer, got {nodes!r}"
        )

    record = None
    features = None
    if has_record:
        record = payload["record"]
        if not isinstance(record, dict) or not record:
            raise ServeError("'record' must be a non-empty object of "
                             "counter fields")
        bad_keys = [k for k in record if not isinstance(k, str)]
        if bad_keys:
            raise ServeError("'record' keys must be strings")
        uses_gpu = bool(payload.get("uses_gpu",
                                    record.get("uses_gpu", False)))
    else:
        raw = payload["features"]
        if not isinstance(raw, list) or not raw:
            raise ServeError("'features' must be a non-empty array of "
                             "numbers")
        if len(raw) > _MAX_FEATURES:
            raise ServeError(
                f"'features' has {len(raw)} entries (limit {_MAX_FEATURES})"
            )
        values = []
        for i, v in enumerate(raw):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ServeError(
                    f"'features'[{i}] is {type(v).__name__}, expected a "
                    "number"
                )
            values.append(float(v))
        features = tuple(values)
        uses_gpu = bool(payload.get("uses_gpu", False))
    return ParsedRequest(
        kind="record" if has_record else "features",
        record=record,
        features=features,
        nodes_required=nodes,
        uses_gpu=uses_gpu,
        machines=_parse_machines(payload),
        request_id=_parse_wire_id(payload, "request_id"),
        trace_id=_parse_wire_id(payload, "trace_id"),
    )


def _parse_machines(payload: dict):
    """Validate the optional ``machines`` list of inline descriptors."""
    if "machines" not in payload:
        return None
    raw = payload["machines"]
    if not isinstance(raw, list) or not raw:
        raise ServeError(
            "'machines' must be a non-empty array of machine descriptors",
            reason="bad-descriptor",
        )
    if len(raw) > _MAX_MACHINES:
        raise ServeError(
            f"'machines' has {len(raw)} entries (limit {_MAX_MACHINES})",
            reason="bad-descriptor",
        )
    machines = []
    for i, entry in enumerate(raw):
        try:
            machines.append(MachineDescriptor.from_dict(entry))
        except ConfigError as exc:
            raise ServeError(
                f"'machines'[{i}]: {exc}", reason="bad-descriptor"
            ) from exc
    names = [m.name for m in machines]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ServeError(
            f"'machines' repeats name(s): {', '.join(dupes)}",
            reason="bad-descriptor",
        )
    return tuple(machines)


def predict_response(
    rpv: np.ndarray,
    systems: tuple[str, ...],
    recommended: str,
    tier: str,
    model_hash: str,
    batch_size: int,
    request_id: str | None = None,
    trace_id: str | None = None,
) -> dict:
    """The one ``/predict`` success shape (JSON-ready)."""
    values = [float(v) for v in np.asarray(rpv, dtype=np.float64)]
    order = np.argsort(np.asarray(values), kind="stable")
    out = {
        "protocol_version": PROTOCOL_VERSION,
        "rpv": values,
        "systems": list(systems),
        "ranked": [systems[i] for i in order],
        "recommended": recommended,
        "tier": tier,
        "model_hash": model_hash,
        "batch_size": int(batch_size),
    }
    if request_id is not None:
        out["request_id"] = request_id
    if trace_id is not None:
        out["trace_id"] = trace_id
    return out


def zeroshot_response(
    machines: "tuple[MachineDescriptor, ...]",
    scores: np.ndarray,
    uncertainty: np.ndarray,
    tier: str,
    model_hash: str,
    request_id: str | None = None,
    trace_id: str | None = None,
) -> dict:
    """The ``/predict`` success shape for inline-descriptor requests.

    ``scores`` are predicted ``t_machine / t_source`` ratios (lower is
    faster) in request order; ``uncertainty`` is the per-machine
    predictive spread (quantile band half-width or ensemble std), never
    null for a served zero-shot head.
    """
    names = [m.name for m in machines]
    values = [float(v) for v in np.asarray(scores, dtype=np.float64)]
    spread = [float(v) for v in np.asarray(uncertainty, dtype=np.float64)]
    order = np.argsort(np.asarray(values), kind="stable")
    ranked = [names[i] for i in order]
    out = {
        "protocol_version": PROTOCOL_VERSION,
        "machines": names,
        "scores": values,
        "uncertainty": spread,
        "ranked": ranked,
        "recommended": ranked[0],
        "tier": tier,
        "model_hash": model_hash,
    }
    if request_id is not None:
        out["request_id"] = request_id
    if trace_id is not None:
        out["trace_id"] = trace_id
    return out


def error_response(exc: ServeError) -> tuple[int, dict]:
    """Map a typed serve error to ``(status, body)``."""
    return exc.code, {
        "protocol_version": PROTOCOL_VERSION,
        "error": str(exc),
        "reason": exc.reason,
    }
