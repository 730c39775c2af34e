"""Failure-injection tests: corrupted inputs fail loudly, not silently."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.predictor import CrossArchPredictor
from repro.errors import ProfileError, ReproError, TraceError
from repro.frame import Frame, read_csv
from repro.ml.serialization import model_from_dict
from repro.profiler import load_profile, profile_run, save_profile
from repro.workloads.swf import read_swf


class TestCorruptedProfiles:
    def _profile(self):
        from repro.apps import APPLICATIONS, generate_inputs
        from repro.arch import QUARTZ
        from repro.perfsim.config import make_run_config

        app = APPLICATIONS["CoMD"]
        inp = generate_inputs(app, 1, seed=0)[0]
        return profile_run(app, inp, QUARTZ,
                           make_run_config(app, QUARTZ, "1core"), seed=0)

    def test_truncated_json(self, tmp_path):
        path = tmp_path / "p.json"
        save_profile(self._profile(), path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ProfileError) as err:
            load_profile(path)
        assert str(path) in str(err.value)
        assert "line" in str(err.value)

    def test_orphan_node(self, tmp_path):
        path = tmp_path / "p.json"
        save_profile(self._profile(), path)
        doc = json.loads(path.read_text())
        doc["nodes"][0]["parent"] = 5  # root must be parentless
        path.write_text(json.dumps(doc))
        with pytest.raises(ProfileError) as err:
            load_profile(path)
        assert str(path) in str(err.value)

    def test_profile_error_is_value_error(self):
        # Backwards compatibility: callers that caught ValueError keep
        # working after the switch to the ProfileError hierarchy.
        assert issubclass(ProfileError, ValueError)
        assert issubclass(ProfileError, ReproError)

    def test_missing_file_is_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_profile(tmp_path / "absent.json")

    def test_missing_counter_fails_decode(self, tmp_path):
        from repro.hatchet_lite import run_record

        profile = self._profile()
        for node in profile.root.walk():
            node.metrics.pop("PAPI_BR_INS", None)
        with pytest.raises(KeyError):
            run_record(profile)


class TestCorruptedModels:
    def test_missing_kind(self):
        with pytest.raises(ValueError):
            model_from_dict({"coef": [1.0]})

    def test_mangled_tree_nodes(self):
        from repro.ml import GradientBoostedTrees, model_to_dict

        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(50, 2)), rng.normal(size=50)
        doc = model_to_dict(
            GradientBoostedTrees(n_estimators=2, random_state=0).fit(X, y)
        )
        del doc["rounds"][0][0]["nodes"][0]["value"]
        with pytest.raises(KeyError):
            model_from_dict(doc)

    def test_predictor_load_garbage(self, tmp_path):
        path = tmp_path / "junk.pkl"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(Exception):
            CrossArchPredictor.load(path)


class TestCorruptedTables:
    def test_csv_with_inconsistent_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_predictor_rejects_missing_feature_columns(self, small_dataset,
                                                       trained_xgb):
        frame = Frame({"branch_intensity": [0.1]})
        with pytest.raises(KeyError):
            trained_xgb.predict(
                frame.to_matrix(list(trained_xgb.feature_columns)))

    def test_predict_record_missing_fields(self, trained_xgb):
        with pytest.raises(KeyError):
            trained_xgb.predict_record({"app": "CoMD"})


class TestCorruptedTraces:
    def test_swf_with_text_fields(self, tmp_path):
        path = tmp_path / "bad.swf"
        path.write_text("1 two 3 4 5\n")
        with pytest.raises(TraceError) as err:
            read_swf(path)
        assert f"{path}:1" in str(err.value)

    def test_swf_with_short_line(self, tmp_path):
        path = tmp_path / "short.swf"
        path.write_text("; header survives\n1 0 0 10 1\n42 7\n")
        with pytest.raises(TraceError) as err:
            read_swf(path)
        assert f"{path}:3" in str(err.value)

    def test_trace_error_is_value_error(self):
        assert issubclass(TraceError, ValueError)
        assert issubclass(TraceError, ReproError)

    def test_job_with_zero_runtime_rejected(self):
        from repro.sched import Job

        with pytest.raises(ValueError):
            Job(job_id=0, app="x", uses_gpu=False, nodes_required=1,
                runtimes={"Quartz": 0.0})

    def test_negative_submit_rejected(self):
        from repro.sched import Job

        with pytest.raises(ValueError):
            Job(job_id=0, app="x", uses_gpu=False, nodes_required=1,
                runtimes={"Quartz": 1.0}, submit_time=-5.0)
