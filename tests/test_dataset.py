"""Tests for MP-HPC dataset generation and feature derivation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import SYSTEM_ORDER
from repro.dataset import (
    ARCH_COLUMNS,
    FEATURE_COLUMNS,
    MAGNITUDE_FEATURES,
    RATIO_FEATURES,
    TARGET_COLUMNS,
    FeatureNormalizer,
    MPHPCDataset,
    derive_feature_frame,
    generate_dataset,
    load_npz,
    save_npz,
)
from repro.errors import DatasetError, ReproError
from repro.frame import Frame, write_csv


class TestSchema:
    def test_twenty_one_features(self):
        # "The final MP-HPC dataset has 21 columns" (feature columns).
        assert len(FEATURE_COLUMNS) == 21

    def test_feature_blocks(self):
        assert len(RATIO_FEATURES) == 6
        assert len(MAGNITUDE_FEATURES) == 8
        assert len(ARCH_COLUMNS) == 4

    def test_targets_per_system(self):
        assert len(TARGET_COLUMNS) == len(SYSTEM_ORDER)
        assert TARGET_COLUMNS[0] == "rpv_quartz"


class TestGeneration:
    def test_row_count(self, small_dataset):
        # 20 apps x 4 inputs x 3 scales x 4 systems
        assert small_dataset.num_rows == 20 * 4 * 3 * 4

    def test_paper_scale_row_count(self):
        # At the default 47 inputs/app the dataset matches the paper's
        # 11,312-row scale: 20 * 47 * 3 * 4 = 11,280.
        from repro.dataset.generate import DEFAULT_INPUTS_PER_APP
        assert 20 * DEFAULT_INPUTS_PER_APP * 3 * 4 == 11280

    def test_matrix_shapes(self, small_dataset):
        assert small_dataset.X().shape == (small_dataset.num_rows, 21)
        assert small_dataset.Y().shape == (small_dataset.num_rows, 4)

    def test_deterministic(self):
        a = generate_dataset(inputs_per_app=2, seed=9, apps=["CoMD"])
        b = generate_dataset(inputs_per_app=2, seed=9, apps=["CoMD"])
        assert a.frame == b.frame

    def test_seed_changes_data(self):
        a = generate_dataset(inputs_per_app=2, seed=1, apps=["CoMD"])
        b = generate_dataset(inputs_per_app=2, seed=2, apps=["CoMD"])
        assert a.frame != b.frame

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            generate_dataset(inputs_per_app=1, apps=["HPL"])

    def test_bad_inputs_per_app(self):
        with pytest.raises(ValueError):
            generate_dataset(inputs_per_app=0)

    def test_targets_are_rpv_to_slowest(self, small_dataset):
        Y = small_dataset.Y()
        assert Y.max() <= 1.0 + 1e-12
        assert Y.min() > 0.0
        # every group's slowest component is exactly 1
        assert np.isclose(Y.max(axis=1), 1.0).all()

    def test_group_rows_share_target(self, small_dataset):
        groups = small_dataset.group_labels()
        Y = small_dataset.Y()
        first = groups[0]
        rows = np.flatnonzero(groups == first)
        assert len(rows) == 4  # one per system
        assert np.allclose(Y[rows], Y[rows[0]])

    def test_one_hot_arch(self, small_dataset):
        onehot = small_dataset.frame.to_matrix(list(ARCH_COLUMNS))
        assert np.array_equal(onehot.sum(axis=1), np.ones(len(onehot)))
        machines = small_dataset.frame["machine"]
        for i in range(0, 50):
            j = list(SYSTEM_ORDER).index(str(machines[i]))
            assert onehot[i, j] == 1.0

    def test_gpu_flag_only_for_gpu_apps_on_gpu_systems(self, small_dataset):
        frame = small_dataset.frame
        gpu = frame.to_matrix(["uses_gpu"])[:, 0]
        machines = np.array([str(m) for m in frame["machine"]])
        cpu_sys = (machines == "Quartz") | (machines == "Ruby")
        assert gpu[cpu_sys].sum() == 0

    def test_subset_filters_rows(self, small_dataset):
        machines = np.array([str(m) for m in small_dataset.frame["machine"]])
        sub = small_dataset.subset(machines == "Ruby")
        assert sub.num_rows == small_dataset.num_rows // 4

    def test_csv_roundtrip(self, small_dataset, tmp_path):
        path = tmp_path / "mphpc.csv"
        small_dataset.save(path)
        back = MPHPCDataset.load(path)
        assert back.frame == small_dataset.frame


class TestLoadSchemaDrift:
    """``MPHPCDataset.load`` rejects drifted tables with a typed error
    naming the path and the offending columns, instead of a bare
    ``KeyError`` at first column access."""

    def test_missing_column_raises_dataset_error(self, small_dataset,
                                                 tmp_path):
        path = tmp_path / "drift.csv"
        write_csv(small_dataset.frame.drop("branch_intensity"), path)
        with pytest.raises(DatasetError) as exc:
            MPHPCDataset.load(path)
        message = str(exc.value)
        assert str(path) in message
        assert "branch_intensity" in message

    def test_extra_column_raises_dataset_error(self, small_dataset,
                                               tmp_path):
        path = tmp_path / "drift.csv"
        write_csv(
            small_dataset.frame.with_column("bogus_column", 1.0), path
        )
        with pytest.raises(DatasetError) as exc:
            MPHPCDataset.load(path)
        assert "bogus_column" in str(exc.value)

    def test_dataset_error_is_catchable_as_value_error(self, small_dataset,
                                                       tmp_path):
        path = tmp_path / "drift.csv"
        write_csv(small_dataset.frame.drop("rpv_quartz"), path)
        with pytest.raises(ValueError):
            MPHPCDataset.load(path)
        with pytest.raises(ReproError):
            MPHPCDataset.load(path)

    def test_arbitrary_csv_rejected(self, tmp_path):
        path = tmp_path / "other.csv"
        write_csv(Frame({"x": [1.0, 2.0], "y": [3.0, 4.0]}), path)
        with pytest.raises(DatasetError):
            MPHPCDataset.load(path)

    def test_valid_csv_still_loads(self, small_dataset, tmp_path):
        path = tmp_path / "ok.csv"
        small_dataset.save(path)
        assert MPHPCDataset.load(path).num_rows == small_dataset.num_rows


class TestFeatures:
    def _records(self):
        return Frame.from_records([
            {
                "machine": "Quartz", "total_instructions": 1000.0,
                "branch": 100.0, "load": 300.0, "store": 100.0,
                "fp_sp": 50.0, "fp_dp": 200.0, "int_arith": 100.0,
                "l1_load_miss": 50.0, "l1_store_miss": 10.0,
                "l2_load_miss": 20.0, "l2_store_miss": 5.0,
                "io_read_bytes": 1e6, "io_write_bytes": 1e5,
                "ept_bytes": 1e7, "mem_stall_cycles": 1e8,
                "nodes": 1.0, "cores": 36.0, "uses_gpu": 0.0,
            },
            {
                "machine": "Lassen", "total_instructions": 2000.0,
                "branch": 100.0, "load": 700.0, "store": 150.0,
                "fp_sp": 500.0, "fp_dp": 20.0, "int_arith": 200.0,
                "l1_load_miss": 70.0, "l1_store_miss": 20.0,
                "l2_load_miss": 30.0, "l2_store_miss": 8.0,
                "io_read_bytes": 2e6, "io_write_bytes": 3e5,
                "ept_bytes": 2e7, "mem_stall_cycles": 3e8,
                "nodes": 2.0, "cores": 88.0, "uses_gpu": 1.0,
            },
        ])

    def test_ratios(self):
        out, _ = derive_feature_frame(self._records())
        assert out["branch_intensity"][0] == pytest.approx(0.1)
        assert out["load_intensity"][1] == pytest.approx(0.35)

    def test_magnitudes_zscored(self):
        out, _ = derive_feature_frame(self._records())
        for feature in MAGNITUDE_FEATURES:
            col = out[feature]
            assert abs(float(np.mean(col))) < 1e-9
            assert float(np.std(col)) == pytest.approx(1.0)

    def test_one_hot(self):
        out, _ = derive_feature_frame(self._records())
        assert out["arch_quartz"][0] == 1.0 and out["arch_quartz"][1] == 0.0
        assert out["arch_lassen"][1] == 1.0

    def test_reuse_normalizer(self):
        records = self._records()
        _, norm = derive_feature_frame(records)
        out2, norm2 = derive_feature_frame(records, normalizer=norm)
        assert norm2 is norm

    def test_normalizer_serialization(self):
        _, norm = derive_feature_frame(self._records())
        back = FeatureNormalizer.from_dict(norm.to_dict())
        assert back.means_ == norm.means_
        assert back.stds_ == norm.stds_

    def test_identity_normalizer_survives_serialization(self, tmp_path,
                                                        small_dataset):
        """An identity normalizer stays identity through ``to_dict`` /
        ``from_dict`` and through ``save_npz`` -> ``load_npz`` of a
        dataset loaded from CSV, so reloaded data featurizes new records
        exactly as before (no ``log1p`` sneaks in)."""
        records = self._records().with_column("l1_load_miss", [10.0, 1000.0])
        identity = FeatureNormalizer.identity()
        back = FeatureNormalizer.from_dict(identity.to_dict())
        for norm in (identity, back):
            out, _ = derive_feature_frame(records, normalizer=norm)
            assert out["l1_load_misses"].tolist() == [10.0, 1000.0]
        small_dataset.save(tmp_path / "d.csv")
        from_csv = MPHPCDataset.load(tmp_path / "d.csv")
        save_npz(from_csv, tmp_path / "d.npz")
        reloaded = load_npz(tmp_path / "d.npz").normalizer
        out, _ = derive_feature_frame(records, normalizer=reloaded)
        assert out["l1_load_misses"].tolist() == [10.0, 1000.0]

    def test_fitted_normalizer_dict_is_unchanged(self):
        _, norm = derive_feature_frame(self._records())
        assert set(norm.to_dict()) == {"means", "stds"}

    def test_unfitted_normalizer_raises(self):
        with pytest.raises(RuntimeError):
            derive_feature_frame(self._records(),
                                 normalizer=FeatureNormalizer())

    def test_zero_instructions_rejected(self):
        records = self._records().with_column(
            "total_instructions", [0.0, 1.0]
        )
        with pytest.raises(ValueError):
            derive_feature_frame(records)


class TestDatasetStatistics:
    """Structural expectations about the generated data distribution."""

    def test_gpu_rows_fraction(self, small_dataset):
        # 11 GPU apps x 2 GPU systems / (20 apps x 4 systems) = 27.5%.
        gpu = small_dataset.frame.to_matrix(["uses_gpu"])[:, 0]
        assert gpu.mean() == pytest.approx(11 * 2 / 80, abs=0.01)

    def test_quartz_rarely_fastest(self, small_dataset):
        """Quartz (oldest CPUs) should almost never win a group."""
        Y = small_dataset.Y()
        wins = (Y.argmin(axis=1) == 0).mean()
        assert wins < 0.15

    def test_gpu_systems_win_gpu_apps(self, small_dataset):
        from repro.apps import GPU_APPS
        apps = np.array([str(a) for a in small_dataset.frame["app"]])
        Y = small_dataset.Y()
        mask = np.isin(apps, GPU_APPS)
        winner = Y[mask].argmin(axis=1)
        assert (winner >= 2).mean() > 0.6  # Lassen=2 or Corona=3
