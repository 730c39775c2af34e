"""Online prediction + scheduling service (``repro serve``).

The deployment story the paper's Section VIII implies, made concrete:
a long-running service that answers "which machine should this job run
on" at job-submission time.  Profile/counter payloads arrive as JSON
over a local HTTP endpoint; concurrent requests coalesce into
micro-batches through the model's vectorized predict path; each
response carries the predicted RPV plus a placement recommendation
from a registered scheduling strategy.

The moving parts, one module each:

* :mod:`repro.serve.protocol` — wire schema, typed validation and the
  one bounded HTTP/1.1 reader both ends of the wire use;
* :mod:`repro.serve.coalescer` — :class:`MicroBatcher`, flush on
  idle/size/deadline, per-item result fan-out;
* :mod:`repro.serve.model_manager` — :class:`ModelManager`, loads
  models by config hash from a verified run-dir registry and hot-swaps
  them atomically when ``CURRENT`` changes;
* :mod:`repro.serve.admission` — :class:`AdmissionController`,
  watermark-based full/degraded/shed decisions backed by the
  resilience degradation chain;
* :mod:`repro.serve.server` — :class:`PredictionService`, the asyncio
  HTTP server tying it together;
* :mod:`repro.serve.loadgen` — deterministic payload synthesis and the
  seeded Poisson load driver used by tests and CI.

Layering: ``serve`` sits above artifacts/resilience/sched/telemetry
and below cli — it never imports ``repro.cli`` or ``repro.sweep``
(enforced by ``tools/check_layering.py``).
"""

from repro.serve.admission import AdmissionController
from repro.serve.coalescer import MicroBatcher
from repro.serve.loadgen import (
    LoadReport,
    http_request,
    run_load,
    synthesize_payloads,
)
from repro.serve.model_manager import (
    ActiveModel,
    ModelManager,
    publish_model,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ParsedRequest,
    parse_predict_payload,
    predict_response,
)
from repro.serve.server import PredictionService

__all__ = [
    "PROTOCOL_VERSION",
    "ActiveModel",
    "AdmissionController",
    "LoadReport",
    "MicroBatcher",
    "ModelManager",
    "ParsedRequest",
    "PredictionService",
    "http_request",
    "parse_predict_payload",
    "predict_response",
    "publish_model",
    "run_load",
    "synthesize_payloads",
]
