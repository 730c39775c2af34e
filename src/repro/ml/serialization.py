"""Portable JSON serialization for the from-scratch models.

The paper "exports" its trained model for downstream scheduling use.
Pickle works within one Python ecosystem; this module adds a portable,
inspectable JSON format covering every model class in :mod:`repro.ml`
(trees are serialized node-by-node with their binning edges, linear
models by coefficients).  ``model_to_dict`` / ``model_from_dict``
round-trip exactly: predictions from a restored model are bit-identical.

Every payload carries :data:`MODEL_FORMAT_VERSION`; a missing or
mismatched version, an unknown ``kind``, or a structurally incomplete
payload raises a typed :class:`~repro.errors.SerializationError`
(instead of mis-deserializing a future format or leaking a raw
``KeyError`` from deep inside the decoder).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import SerializationError
from repro.ml.baseline import MeanPredictor
from repro.ml.boosting import GradientBoostedTrees
from repro.ml.forest import DecisionTreeRegressor, RandomForestRegressor
from repro.ml.linear import LinearRegression, RidgeRegression
from repro.ml.tree import Binner, Tree, _Node

__all__ = [
    "MODEL_FORMAT_VERSION",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

#: On-disk model format.  Version 1 was the unversioned launch format
#: (identical fields minus ``format_version``); readers accept payloads
#: without the field as version 1 for backward compatibility and reject
#: anything else that does not match.
MODEL_FORMAT_VERSION = 2


# ---------------------------------------------------------------------------
# Tree / binner helpers
# ---------------------------------------------------------------------------
def _tree_to_dict(tree: Tree) -> dict:
    return {
        "n_outputs": tree.n_outputs,
        "n_features": tree.n_features,
        "nodes": [
            {
                "feature": feature,
                "bin_threshold": threshold,
                "value": value,
                "left": left,
                "right": right,
                "gain": gain,
                "n_samples": n_samples,
            }
            for feature, threshold, value, left, right, gain, n_samples
            in zip(tree._feat.tolist(), tree._thr.tolist(),
                   tree._values.tolist(), tree._left.tolist(),
                   tree._right.tolist(), tree._gain.tolist(),
                   tree._n_samples.tolist())
        ],
    }


def _tree_from_dict(data: dict) -> Tree:
    nodes = []
    for spec in data["nodes"]:
        node = _Node(
            feature=spec["feature"],
            bin_threshold=spec["bin_threshold"],
            value=np.array(spec["value"], dtype=np.float64),
            left=spec["left"],
            right=spec["right"],
            gain=spec["gain"],
            n_samples=spec["n_samples"],
        )
        nodes.append(node)
    return Tree(nodes, n_outputs=data["n_outputs"],
                n_features=data["n_features"])


def _rounds_to_list(rounds: list[list[Tree]]) -> list:
    return [[_tree_to_dict(t) for t in round_trees] for round_trees in rounds]


def _rounds_from_list(data: list) -> list[list[Tree]]:
    return [[_tree_from_dict(t) for t in round_trees] for round_trees in data]


def _binner_to_dict(binner: Binner) -> dict:
    assert binner.edges_ is not None
    return {
        "n_bins": binner.n_bins,
        "edges": [[float(e) for e in edges] for edges in binner.edges_],
    }


def _binner_from_dict(data: dict) -> Binner:
    binner = Binner(n_bins=data["n_bins"])
    binner.edges_ = [np.array(e, dtype=np.float64) for e in data["edges"]]
    return binner


# ---------------------------------------------------------------------------
# Per-model encoders
# ---------------------------------------------------------------------------
def model_to_dict(model) -> dict:
    """Serialize any :mod:`repro.ml` estimator to a JSON-safe dict.

    The payload carries ``format_version`` so future readers can refuse
    formats they do not understand instead of guessing.
    """
    payload = _encode_model(model)
    payload["format_version"] = MODEL_FORMAT_VERSION
    return payload


def _encode_model(model) -> dict:
    if isinstance(model, GradientBoostedTrees):
        if model.binner_ is None:
            raise ValueError("cannot serialize an unfitted model")
        payload = {
            "kind": "gbt",
            "params": {
                "n_estimators": model.n_estimators,
                "learning_rate": model.learning_rate,
                "n_bins": model.n_bins,
                "objective": model.objective,
                "multi_strategy": model.multi_strategy,
            },
            "base_score": [float(v) for v in model.base_score_],
            "n_features": model.n_features_,
            "n_outputs": model.n_outputs_,
            "binner": _binner_to_dict(model.binner_),
            "rounds": _rounds_to_list(model.trees_),
        }
        # Only a model with heads carries the key: a payload without it
        # is unchanged from older writers and loads without heads.
        if model.quantile_trees_:
            payload["quantile_heads"] = [
                {"level": level, "base_score": [float(v) for v in base],
                 "rounds": _rounds_to_list(rounds)}
                for level, (base, rounds) in model.quantile_trees_.items()
            ]
        return payload
    if isinstance(model, RandomForestRegressor):
        if model.binner_ is None:
            raise ValueError("cannot serialize an unfitted model")
        return {
            "kind": "forest",
            "n_features": model.n_features_,
            "n_outputs": model.n_outputs_,
            "binner": _binner_to_dict(model.binner_),
            "trees": [_tree_to_dict(t) for t in model.trees_],
        }
    if isinstance(model, DecisionTreeRegressor):
        if model.binner_ is None or model.tree_ is None:
            raise ValueError("cannot serialize an unfitted model")
        return {
            "kind": "tree",
            "n_features": model.n_features_,
            "n_outputs": model.n_outputs_,
            "binner": _binner_to_dict(model.binner_),
            "tree": _tree_to_dict(model.tree_),
        }
    if isinstance(model, (LinearRegression, RidgeRegression)):
        if model.coef_ is None:
            raise ValueError("cannot serialize an unfitted model")
        return {
            "kind": "ridge" if isinstance(model, RidgeRegression) else "linear",
            "alpha": getattr(model, "alpha", None),
            "coef": np.asarray(model.coef_).tolist(),
            "intercept": np.asarray(model.intercept_).tolist(),
            "n_features": model.n_features_,
            "n_outputs": model.n_outputs_,
        }
    if isinstance(model, MeanPredictor):
        if model.mean_ is None:
            raise ValueError("cannot serialize an unfitted model")
        return {
            "kind": "mean",
            "mean": [float(v) for v in model.mean_],
            "n_features": model.n_features_,
            "n_outputs": model.n_outputs_,
        }
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(data: dict):
    """Restore an estimator serialized by :func:`model_to_dict`.

    Raises :class:`~repro.errors.SerializationError` on a format-version
    mismatch, an unknown ``kind``, or a payload with missing keys.
    """
    if not isinstance(data, dict):
        raise SerializationError(
            f"model payload must be an object, got {type(data).__name__}"
        )
    version = data.get("format_version", 1)
    if version not in (1, MODEL_FORMAT_VERSION):
        raise SerializationError(
            f"model format version {version!r} not supported "
            f"(this package reads 1..{MODEL_FORMAT_VERSION})"
        )
    try:
        return _decode_model(data)
    except KeyError as exc:
        missing = exc.args[0] if exc.args else "?"
        raise SerializationError(
            f"model payload (kind {data.get('kind')!r}) is missing "
            f"key {missing!r}"
        ) from None


def _decode_model(data: dict):
    kind = data.get("kind")
    if kind == "gbt":
        heads = data.get("quantile_heads") or []
        model = GradientBoostedTrees(
            n_estimators=data["params"]["n_estimators"],
            learning_rate=data["params"]["learning_rate"],
            n_bins=data["params"]["n_bins"],
            objective=data["params"]["objective"],
            multi_strategy=data["params"]["multi_strategy"],
            quantile_heads=tuple(h["level"] for h in heads) or None,
        )
        model.base_score_ = np.array(data["base_score"], dtype=np.float64)
        model.n_features_ = data["n_features"]
        model.n_outputs_ = data["n_outputs"]
        model.binner_ = _binner_from_dict(data["binner"])
        model.trees_ = _rounds_from_list(data["rounds"])
        model.quantile_trees_ = {
            h["level"]: (np.array(h["base_score"], dtype=np.float64),
                         _rounds_from_list(h["rounds"]))
            for h in heads
        }
        return model
    if kind == "forest":
        model = RandomForestRegressor(n_estimators=max(1, len(data["trees"])))
        model.n_features_ = data["n_features"]
        model.n_outputs_ = data["n_outputs"]
        model.binner_ = _binner_from_dict(data["binner"])
        model.trees_ = [_tree_from_dict(t) for t in data["trees"]]
        return model
    if kind == "tree":
        model = DecisionTreeRegressor()
        model.n_features_ = data["n_features"]
        model.n_outputs_ = data["n_outputs"]
        model.binner_ = _binner_from_dict(data["binner"])
        model.tree_ = _tree_from_dict(data["tree"])
        return model
    if kind in ("linear", "ridge"):
        model = (RidgeRegression(alpha=data["alpha"])
                 if kind == "ridge" else LinearRegression())
        model.coef_ = np.array(data["coef"], dtype=np.float64)
        model.intercept_ = np.array(data["intercept"], dtype=np.float64)
        model.n_features_ = data["n_features"]
        model.n_outputs_ = data["n_outputs"]
        return model
    if kind == "mean":
        model = MeanPredictor()
        model.mean_ = np.array(data["mean"], dtype=np.float64)
        model.n_features_ = data["n_features"]
        model.n_outputs_ = data["n_outputs"]
        return model
    raise SerializationError(f"unknown serialized model kind {kind!r}")


def save_model(model, path: str | Path) -> None:
    """Write an estimator as JSON."""
    Path(path).write_text(json.dumps(model_to_dict(model)))


def load_model(path: str | Path):
    """Read an estimator written by :func:`save_model`."""
    return model_from_dict(json.loads(Path(path).read_text()))
