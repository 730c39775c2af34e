"""``repro serve``: the online prediction + scheduling service.

Points at a model registry (a run-dir root that ``repro train
--run-dir`` wrote into), loads the promoted model, and serves
predictions + placement recommendations over local HTTP until
interrupted.  The watcher hot-swaps the model whenever the registry's
``CURRENT`` file names a new config hash — publish one with
``repro serve --publish HASH``.

``--self-test N`` runs the service against its own deterministic load
generator instead of waiting for traffic: N seeded payloads arrive on
the scheduler simulation's Poisson process, and the run dir collects
the load report plus the service's merged metrics.  CI's serve-smoke
job is exactly this mode.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal

from repro.cli._options import (
    add_spine_options,
    close_run,
    experiment_from_args,
    open_run,
)
from repro.config import ServeConfig


def add_subparsers(sub) -> None:
    s = ServeConfig(registry="_")
    p = sub.add_parser(
        "serve", help="online prediction + placement service"
    )
    p.add_argument("--registry", default="",
                   help="run-dir root holding finalized train runs")
    p.add_argument("--model-hash", default=s.model_hash,
                   help="config hash (prefix ok) to serve; default: the "
                        "registry's CURRENT file, else its single train "
                        "run")
    p.add_argument("--publish", metavar="HASH", default=None,
                   help="write HASH to the registry's CURRENT file and "
                        "exit (atomic promotion; a running server "
                        "hot-swaps to it)")
    p.add_argument("--host", default=s.host)
    p.add_argument("--port", type=int, default=s.port,
                   help="0 picks a free port (printed at startup)")
    p.add_argument("--max-batch", type=int, default=s.max_batch)
    p.add_argument("--batch-deadline-ms", type=float,
                   default=s.batch_deadline_ms,
                   help="upper bound on a micro-batch's oldest request's "
                        "wait; a batch flushes as soon as the event "
                        "loop has no more requests to add")
    p.add_argument("--soft-inflight", type=int, default=s.soft_inflight,
                   help="above this many in-flight requests, answer "
                        "from the model-free degradation tiers")
    p.add_argument("--max-inflight", type=int, default=s.max_inflight,
                   help="above this, shed with a typed 503")
    p.add_argument("--strategy", default=s.strategy,
                   help="placement strategy (registry name)")
    p.add_argument("--watch-interval-ms", type=float,
                   default=s.watch_interval_ms)
    p.add_argument("--slo-target", type=float, default=s.slo_target,
                   help="SLO availability target in (0, 1), e.g. 0.99; "
                        "0 disables SLO-driven admission")
    p.add_argument("--slo-threshold-ms", type=float,
                   default=s.slo_threshold_ms,
                   help="latency above this burns SLO error budget")
    p.add_argument("--slo-degrade-burn", type=float,
                   default=s.slo_degrade_burn,
                   help="burn-rate multiple that degrades service")
    p.add_argument("--slo-shed-burn", type=float,
                   default=s.slo_shed_burn,
                   help="sustained burn-rate multiple that sheds")
    p.add_argument("--flight-events", type=int, default=s.flight_events,
                   help="flight-recorder ring capacity (0 disables)")
    p.add_argument("--self-test", dest="selftest_requests", type=int,
                   default=s.selftest_requests, metavar="N",
                   help="serve N generated requests to myself, print the "
                        "load report, and exit")
    p.add_argument("--selftest-rate", type=float, default=s.selftest_rate,
                   help="self-test arrival rate (requests/second)")
    p.add_argument("--seed", type=int, default=s.seed)
    add_spine_options(p)
    p.set_defaults(func=cmd_serve)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ModelManager, PredictionService, publish_model

    if getattr(args, "publish", None):
        if not args.registry:
            raise ValueError("--publish requires --registry")
        path = publish_model(args.registry, args.publish)
        print(f"published {args.publish} to {path}")
        return 0

    experiment = experiment_from_args(args)
    cfg = experiment.config
    manager = ModelManager(cfg.registry,
                           poll_interval_s=cfg.watch_interval_ms / 1e3)
    service = PredictionService(
        manager,
        strategy=cfg.strategy,
        max_batch=cfg.max_batch,
        batch_deadline_s=cfg.batch_deadline_ms / 1e3,
        soft_inflight=cfg.soft_inflight,
        max_inflight=cfg.max_inflight,
        slo=_build_slo(cfg),
        flight_events=cfg.flight_events,
    )
    # Promote after the service enabled the flight ring, so the startup
    # model's serve.promote.ok is in every flight.json.
    manager.promote(manager.resolve_hash(cfg.model_hash))
    run = open_run(args, experiment)
    if run is not None and cfg.flight_events:
        service.flight_path = run.file("flight.json")
    try:
        if cfg.selftest_requests:
            report = asyncio.run(_self_test(service, cfg))
            print(json.dumps(report, indent=2))
            if run is not None:
                metrics = {"load_report": report}
                if service.admission.slo is not None:
                    metrics["slo"] = service.admission.slo.snapshot()
                run.save_metrics(metrics)
                run.save_json("serve_metrics.json",
                              service.metrics_payload())
                run.save_text("metrics.prom",
                              str(service.prometheus_payload()))
                service.dump_flight("selftest-complete")
        else:
            asyncio.run(_serve_forever(service, cfg, run))
    finally:
        close_run(run)
    return 0


def _build_slo(cfg):
    """The configured SLO admission policy, or None (slo_target == 0)."""
    if not cfg.slo_target:
        return None
    from repro.telemetry.slo import SLOShedPolicy, SLOSpec

    spec = SLOSpec(
        name="serve-predict-latency",
        objective="latency",
        target=cfg.slo_target,
        histogram="serve.http.predict.seconds",
        threshold_s=cfg.slo_threshold_ms / 1e3,
        description="fraction of /predict answers under the latency "
                    "threshold",
    )
    return SLOShedPolicy(spec, degrade_burn=cfg.slo_degrade_burn,
                         shed_burn=cfg.slo_shed_burn)


async def _self_test(service, cfg) -> dict:
    """Start the service, drive it with the seeded load generator."""
    from repro.serve import run_load, synthesize_payloads

    payloads = synthesize_payloads(cfg.selftest_requests, seed=cfg.seed)
    host, port = await service.start(cfg.host, cfg.port)
    service.manager.start_watching()
    print(f"self-test: {len(payloads)} requests against "
          f"http://{host}:{port}")
    try:
        report = await run_load(host, port, payloads,
                                rate_per_second=cfg.selftest_rate,
                                seed=cfg.seed)
    finally:
        await service.stop()
    return report.to_dict()


async def _serve_forever(service, cfg, run) -> None:
    host, port = await service.start(cfg.host, cfg.port)
    service.manager.start_watching()
    active = service.manager.active
    print(f"serving model {active.config_hash[:12]} "
          f"({active.predictor.kind}) on http://{host}:{port}")
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(sig, stop.set)
    try:
        await stop.wait()
    finally:
        print("shutting down...")
        # Dump before the drain: the ring as it stood when the signal
        # arrived is the post-mortem state of interest.
        service.dump_flight("shutdown-signal")
        await service.stop()
        if run is not None:
            run.save_json("serve_metrics.json", service.metrics_payload())
            run.save_text("metrics.prom",
                          str(service.prometheus_payload()))
