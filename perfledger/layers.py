"""The layer map: which program function each layer wraps, and the
per-layer metrics a traced run derives from the ledger.

Every wrapper is installed where the caller looks the name up, so the
program runs unmodified.  Per-call times are in µs, times summed per op
in ms.  A layer a workload never enters reports 0.
"""

from __future__ import annotations

from perfledger.ledger import Ledger, resolve, unattributed_pct

STRATEGIES = ("round_robin", "random", "user_rr", "model", "oracle")

#: Every per-layer metric, with its unit, in report order.
PER_LAYER = {
    # serve-records
    "serve.p99_ms": "ms",
    "serve.parse_us": "us",
    "serve.featurize_us": "us",
    "serve.coalesce_wait_us": "us",
    "serve.batch_rows": "rows",
    "sched.rank_us": "us",
    "serve.respond_us": "us",
    "serve.other_us": "us",
    "serve.admission.full": "count",
    "serve.admission.degraded": "count",
    "serve.admission.shed": "count",
    "resilience.degraded": "%",
    "resilience.degrade_us": "us",
    "client.us_per_req": "us",
    # predict: serve-records and fig7-study
    "ml.predict_us": "us",
    "ml.predict_rows": "rows",
    "ml.bin_us": "us",
    "ml.route_us": "us",
    "ml.accumulate_us": "us",
    "ml.native": "flag",
    # fig7-study
    "workloads.build_ms": "ms",
    **{f"sched.run_ms.{s}": "ms" for s in STRATEGIES},
    "sched.assign_us": "us",
    "sched.assign_calls": "count",
    "sched.events_per_s": "1/s",
    **{f"sched.events.{s}": "count" for s in STRATEGIES},
    "sched.makespan_h": "h",
    # train-warm
    "dataset.cache_hits": "count",
    "dataset.cache_misses": "count",
    "dataset.load_ms": "ms",
    "dataset.featurize_ms": "ms",
    "ml.binner_fit_ms": "ms",
    "ml.grow_tree_ms": "ms",
    "ml.trees": "count",
    "ml.tree_nodes": "count",
    "ml.tree_predict_ms": "ms",
    "ml.boost_other_ms": "ms",
    "eval.predict_ms": "ms",
    "eval.test_mae": "rpv",
    # every workload
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
    "trace.absent_layers": "count",
    "host.probe_ms": "ms",
}


# ----------------------------------------------------------------------
# Installers
# ----------------------------------------------------------------------
def install_predict(ledger: Ledger) -> None:
    """predict = bin + route + accumulate (the predict span's self time)."""
    ledger.wrap(resolve("repro.core.predictor:CrossArchPredictor"),
                "predict", "ml.predict",
                observe=lambda y, args: ledger.count("ml.predict_rows",
                                                     len(y)))
    ledger.wrap(resolve("repro.ml.tree:Binner"), "transform", "ml.bin")
    ledger.wrap(resolve("repro.ml.tree:FlatEnsemble"), "predict_leaves",
                "ml.route")
    ledger.wrap(resolve("repro.native"), "route_leaves", "ml.native",
                timed=False,
                observe=lambda ran, args: ledger.count(
                    "ml.native_runs" if ran else "ml.native_fallbacks"))


def install_featurize(ledger: Ledger, module: str) -> None:
    """Frame.from_records + derive_feature_frame, as *module* calls it."""
    ledger.wrap(resolve("repro.frame:Frame"), "from_records",
                "frame.from_records")
    ledger.wrap(resolve(module), "derive_feature_frame", "featurize.derive")


def install_serve(ledger: Ledger) -> None:
    """Server-side layers of one ``/predict`` request."""
    install_predict(ledger)
    install_featurize(ledger, "repro.dataset.features")
    server = resolve("repro.serve.server")
    ledger.wrap(server, "parse_predict_payload", "serve.parse")
    ledger.wrap(server, "predict_response", "serve.respond")
    ledger.wrap(resolve("repro.serve.admission:AdmissionController"),
                "decide", "serve.admission", timed=False,
                observe=lambda d, args: ledger.count(f"serve.admission.{d}"))
    ledger.wrap(resolve("repro.resilience.degrade:ResilientPredictor"),
                "predict_record_detailed", "resilience.degrade")
    # The service builds its strategy through strategy_by_name; wrap
    # the assign method of the instance it gets back.
    ledger.wrap(resolve("repro.sched.strategies"), "strategy_by_name",
                "sched.strategy", timed=False,
                observe=lambda s, args: ledger.wrap(s, "assign",
                                                    "sched.rank"))
    _install_coalescer(ledger)


def _install_coalescer(ledger: Ledger) -> None:
    """coalesce wait = ``MicroBatcher.submit`` minus the flush that
    served the item; the flush callback is the ``flush_fn`` the batcher
    is constructed with."""
    cls = resolve("repro.serve.coalescer:MicroBatcher")
    if cls is None or not hasattr(cls, "submit"):
        ledger.absent.add("serve.coalesce_wait")
        return
    init, submit = cls.__init__, cls.submit
    #: id(item) -> (flush duration, time the flush's named layers took)
    served: dict[int, tuple[float, float]] = {}

    def timed_flush(flush_fn):
        def flush(items):
            ledger.push("serve.flush")
            try:
                return flush_fn(items)
            finally:
                flushed = ledger.pop()
                ledger.count("serve.flush_rows", len(items))
                for item in items:
                    served[id(item)] = flushed
        return flush

    def __init__(self, flush_fn, *args, **kwargs):
        init(self, timed_flush(flush_fn), *args, **kwargs)

    async def timed_submit(self, item):
        t0 = ledger.clock()
        try:
            return await submit(self, item)
        finally:
            flush_s, named_s = served.pop(id(item), (0.0, 0.0))
            ledger.add("serve.coalesce_wait", ledger.clock() - t0 - flush_s)
            ledger.count("serve.flush_named_s", named_s)

    ledger.patch(cls, "__init__", __init__)
    ledger.patch(cls, "submit", timed_submit)


def install_train(ledger: Ledger) -> None:
    ledger.wrap(resolve("repro.dataset.store:ShardCache"), "get",
                "dataset.load",
                observe=lambda rec, args: ledger.count(
                    "dataset.cache_misses" if rec is None
                    else "dataset.cache_hits"))
    install_featurize(ledger, "repro.dataset.generate")
    ledger.wrap(resolve("repro.ml.tree:Binner"), "fit_transform",
                "ml.binner_fit")

    def tree_grown(tree, args):
        ledger.count("ml.trees")
        ledger.count("ml.tree_nodes", tree.n_nodes)

    ledger.wrap(resolve("repro.ml.boosting"), "grow_tree", "ml.grow_tree",
                observe=tree_grown)
    ledger.wrap(resolve("repro.ml.tree:Tree"), "predict_binned",
                "ml.tree_predict")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _mean_us(ledger: dict, name: str, part: str = "total") -> float:
    """Mean µs per timed call of layer *name* (0 when never called)."""
    calls = ledger["calls"].get(name, 0)
    return ledger[part][name] / calls * 1e6 if calls else 0.0


def predict_metrics(ledger: dict) -> dict:
    n = ledger["calls"].get("ml.predict", 0)
    if not n:
        return {}
    counts = ledger["counts"]
    return {
        "ml.predict_us": _mean_us(ledger, "ml.predict"),
        "ml.predict_rows": counts.get("ml.predict_rows", 0) / n,
        "ml.bin_us": _mean_us(ledger, "ml.bin"),
        "ml.route_us": _mean_us(ledger, "ml.route"),
        "ml.accumulate_us": _mean_us(ledger, "ml.predict", "self"),
        "ml.native": float(counts.get("ml.native_runs", 0) > 0
                           and not counts.get("ml.native_fallbacks", 0)),
    }


def serve_metrics(ledger: dict, latencies_s: list[float]) -> dict:
    """Per-request layer means; *latencies_s* are the client-measured
    latencies of every request the traced server answered."""
    calls, total, counts = ledger["calls"], ledger["total"], ledger["counts"]
    n = len(latencies_s)
    per_request = {
        "serve.parse_us": total.get("serve.parse", 0.0),
        "serve.coalesce_wait_us": total.get("serve.coalesce_wait", 0.0),
        "sched.rank_us": total.get("sched.rank", 0.0),
        "serve.respond_us": total.get("serve.respond", 0.0),
    }
    # Each request waits for its whole batch's flush; the named layers
    # inside that flush (featurize, degrade, predict) count once per
    # member request, the flush's own bookkeeping stays unattributed.
    covered = sum(per_request.values()) + counts.get("serve.flush_named_s",
                                                     0.0)
    other = sum(latencies_s) - covered
    out = {name: value / n * 1e6 for name, value in per_request.items()}
    out.update({
        # One record per call of each; the degrade tier's own
        # from_records calls are one-record calls too.
        "serve.featurize_us": (_mean_us(ledger, "frame.from_records")
                               + _mean_us(ledger, "featurize.derive")),
        "serve.batch_rows": (counts.get("serve.flush_rows", 0)
                             / calls["serve.flush"]
                             if calls.get("serve.flush") else 0.0),
        "serve.other_us": other / n * 1e6,
        "resilience.degraded": 100.0 * calls.get("resilience.degrade", 0) / n,
        "resilience.degrade_us": _mean_us(ledger, "resilience.degrade"),
        "trace.unattributed_pct": unattributed_pct(sum(latencies_s),
                                                   covered),
    })
    for decision in ("full", "degraded", "shed"):
        out[f"serve.admission.{decision}"] = counts.get(
            f"serve.admission.{decision}", 0)
    out.update(predict_metrics(ledger))
    return out


def fig7_metrics(ledger: dict, ops: int) -> dict:
    total, counts = ledger["total"], ledger["counts"]
    runs = {s: total.get(f"sched.run.{s}", 0.0) for s in STRATEGIES}
    events = sum(counts.get(f"sched.events.{s}", 0) for s in STRATEGIES)
    out = {
        "workloads.build_ms": total.get("workloads.build", 0.0) / ops * 1e3,
        **{f"sched.run_ms.{s}": t / ops * 1e3 for s, t in runs.items()},
        **{f"sched.events.{s}": counts.get(f"sched.events.{s}", 0) / ops
           for s in STRATEGIES},
        # Sampled: the time is over the timed calls, the count over all.
        "sched.assign_us": _mean_us(ledger, "sched.assign"),
        "sched.assign_calls": counts.get("sched.assign", 0) / ops,
        "sched.events_per_s": events / sum(runs.values()),
    }
    out.update(predict_metrics(ledger))
    return out


def fig7_covered_s(ledger: dict) -> float:
    total = ledger["total"]
    return total.get("workloads.build", 0.0) + sum(
        total.get(f"sched.run.{s}", 0.0) for s in STRATEGIES)


TRAIN_LAYERS = ("dataset.load", "frame.from_records", "featurize.derive",
                "ml.binner_fit", "ml.grow_tree", "ml.tree_predict",
                "eval.predict")


def train_metrics(ledger: dict, trains: int) -> dict:
    """Per-train means over *trains* train + eval passes."""
    total, counts = ledger["total"], ledger["counts"]

    def ms(name):
        return total.get(name, 0.0) / trains * 1e3

    return {
        "dataset.cache_hits": counts.get("dataset.cache_hits", 0) / trains,
        "dataset.cache_misses": counts.get("dataset.cache_misses", 0) / trains,
        "dataset.load_ms": ms("dataset.load"),
        "dataset.featurize_ms": ms("frame.from_records")
        + ms("featurize.derive"),
        "ml.binner_fit_ms": ms("ml.binner_fit"),
        "ml.grow_tree_ms": ms("ml.grow_tree"),
        "ml.trees": counts.get("ml.trees", 0) / trains,
        "ml.tree_nodes": counts.get("ml.tree_nodes", 0) / trains,
        "ml.tree_predict_ms": ms("ml.tree_predict"),
        # The fit span's self time: the boosting loop minus the layers
        # it calls.
        "ml.boost_other_ms": ledger["self"].get("ml.fit", 0.0) / trains * 1e3,
        "eval.predict_ms": ms("eval.predict"),
    }


def train_covered_s(ledger: dict) -> float:
    return sum(ledger["total"].get(n, 0.0) for n in TRAIN_LAYERS) + \
        ledger["self"].get("ml.fit", 0.0)
