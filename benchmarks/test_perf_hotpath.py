"""Microbenchmark: the perf-campaign hot paths, gated by speedup ratios.

Covers the two inference optimizations the self-profiler (``repro perf``)
pointed at and the training one, each verified for exactness before any
throughput claim:

* **native tree routing** — the compiled ``route_leaves`` kernel vs the
  numpy fallback inside ``FlatEnsemble.predict_leaves`` (bit-identical
  leaves, then the speedup ratio);
* **uint8 packed predict** — ``CrossArchPredictor.predict_packed`` on a
  pre-packed matrix vs ``predict`` re-binning floats every call
  (bit-identical predictions);
* **native tree growth** — a production-shaped boosted fit (depth-9,
  4-output trees) with the compiled ``grow_tree`` kernel vs the numpy
  fallback (equal ``model_to_dict``, then the speedup ratio).

Ratios land in ``benchmarks/BENCH_hotpath.json``.  Like
``BENCH_sched.json``, the committed file is read before being
overwritten and a measured ratio below half its committed value fails
the run — ratio gates survive differently-sized CI hosts where absolute
wall-time gates cannot.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import native
from repro.core.predictor import CrossArchPredictor
from repro.dataset.generate import generate_dataset
from repro.ml.boosting import GradientBoostedTrees
from repro.ml.serialization import model_to_dict

BENCH_PATH = Path(__file__).parent / "BENCH_hotpath.json"

#: A measured ratio below half its committed value is a regression.
REGRESSION_FACTOR = 2.0
#: Ratio keys the gate checks (section, key).
GATED = (("native_routing", "speedup_vs_numpy"),
         ("packed_predict", "speedup_vs_unpacked"),
         ("native_grow", "speedup_vs_numpy"))


def _baseline() -> dict:
    if BENCH_PATH.exists():
        return json.loads(BENCH_PATH.read_text())
    return {}


def test_perf_hotpath():
    results: dict = {}

    # --- native routing kernel vs numpy fallback -----------------------
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2000, 12))
    Y = rng.normal(size=(2000, 4))
    gbt = GradientBoostedTrees(n_estimators=80, max_depth=5,
                               random_state=0).fit(X, Y)
    Xb = gbt.binner_.transform(rng.normal(size=(20_000, 12)))
    flat, _ = gbt._flat_stack()

    flat.predict_leaves(Xb)  # warm (compiles the kernel on first use)
    t0 = time.perf_counter()
    leaves_fast = flat.predict_leaves(Xb)
    t_fast = time.perf_counter() - t0

    saved_state = native._state
    native._state = (None, "disabled for fallback timing")
    try:
        flat.predict_leaves(Xb)  # warm the numpy path too
        t0 = time.perf_counter()
        leaves_numpy = flat.predict_leaves(Xb)
        t_numpy = time.perf_counter() - t0
    finally:
        native._state = saved_state

    assert np.array_equal(leaves_fast, leaves_numpy), (
        "native kernel routes different leaves than the numpy path")
    results["native_routing"] = {
        "available": native.available(),
        "n_rows": Xb.shape[0],
        "n_trees": flat.n_trees,
        "wall_s_native": round(t_fast, 4),
        "wall_s_numpy": round(t_numpy, 4),
        "speedup_vs_numpy": round(t_numpy / t_fast, 2),
    }

    # --- uint8 packed predict vs float re-binning ----------------------
    dataset = generate_dataset(inputs_per_app=3, seed=0)
    predictor = CrossArchPredictor.train(dataset, n_estimators=40)
    Xf = dataset.frame.to_matrix(list(predictor.feature_columns))
    Xf = np.tile(Xf, (4, 1))
    packed = predictor.pack(Xf)
    assert packed.dtype == np.uint8

    assert np.array_equal(predictor.predict_packed(packed),
                          predictor.predict(Xf)), (
        "packed predictions differ from the float path")
    predictor.predict(Xf)
    t0 = time.perf_counter()
    for _ in range(3):
        predictor.predict(Xf)
    t_float = (time.perf_counter() - t0) / 3
    predictor.predict_packed(packed)
    t0 = time.perf_counter()
    for _ in range(3):
        predictor.predict_packed(packed)
    t_packed = (time.perf_counter() - t0) / 3
    results["packed_predict"] = {
        "n_rows": Xf.shape[0],
        "wall_s_unpacked": round(t_float, 4),
        "wall_s_packed": round(t_packed, 4),
        "speedup_vs_unpacked": round(t_float / t_packed, 2),
    }

    # --- native grow kernel vs numpy fallback --------------------------
    X = rng.normal(size=(2880, 30))
    Y = np.column_stack([X[:, :4].sum(axis=1), np.sin(X[:, 4]),
                         X[:, 5] * X[:, 6], rng.normal(size=2880)])

    def fit():
        t0 = time.perf_counter()
        model = GradientBoostedTrees(
            n_estimators=10, max_depth=9, learning_rate=0.07,
            multi_strategy="multi_output_tree", random_state=0,
        ).fit(X, Y)
        return model, time.perf_counter() - t0

    fit()  # warm
    fast, t_fast = fit()
    native._state = (None, "disabled for fallback timing")
    try:
        slow, t_numpy = fit()
    finally:
        native._state = saved_state
    assert model_to_dict(fast) == model_to_dict(slow), (
        "native kernel grows different trees than the numpy path")
    results["native_grow"] = {
        "available": native.available(),
        "n_rows": X.shape[0],
        "n_trees": len(fast.trees_),
        "n_nodes": sum(t.n_nodes for r in fast.trees_ for t in r),
        "wall_s_native": round(t_fast, 4),
        "wall_s_numpy": round(t_numpy, 4),
        "speedup_vs_numpy": round(t_numpy / t_fast, 2),
    }

    # --- record + ratio gates ------------------------------------------
    baseline = _baseline()
    BENCH_PATH.write_text(json.dumps(results, indent=2) + "\n")

    for section, key in GATED:
        if not results[section].get("available", True):
            continue  # no compiler on this host: the ratio is meaningless
        committed = baseline.get(section, {}).get(key)
        if committed is None:
            continue
        measured = results[section][key]
        assert measured * REGRESSION_FACTOR >= committed, (
            f"{section}.{key} regressed >{REGRESSION_FACTOR}x: "
            f"measured {measured} vs committed baseline {committed}")
