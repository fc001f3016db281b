import numpy as np
import pytest

from breakeven.datasets import make_dataset
from breakeven.errors import CsvParseError, InvalidParamsError


class TestBlobs:
    def test_separable_limit_and_class_counts(self):
        ds = make_dataset(
        {"kind": "gaussian_blobs", "n": 100, "classes": 2, "radius": 1.0, "sigma": 1e-6},
            seed=3,
        )
        counts = np.bincount(ds.labels)
        assert list(counts) == [50, 50]
        # sigma -> 0: a separating line through the origin classifies perfectly
        means = np.array([ds.inputs[ds.labels == c].mean(axis=0) for c in range(2)])
        w = means[1] - means[0]
        preds = (ds.inputs @ w > 0).astype(int)
        assert np.mean(preds == ds.labels) == 1.0

    def test_determinism_bitwise(self):
        p = {"kind": "gaussian_blobs", "n": 64, "classes": 3, "sigma": 0.4}
        a = make_dataset(p, seed=9)
        b = make_dataset(p, seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_class_means_within_sampling_error(self):
        n, classes, sigma, radius = 3000, 3, 0.3, 2.0
        ds = make_dataset(
            {"kind": "gaussian_blobs", "n": n, "classes": classes, "radius": radius, "sigma": sigma},
            seed=17,
        )
        per_class = n // classes
        tol = 4.0 * sigma / np.sqrt(per_class)
        for c in range(classes):
            angle = 2 * np.pi * c / classes
            expected = radius * np.array([np.cos(angle), np.sin(angle)])
            got = ds.inputs[ds.labels == c].mean(axis=0)
            assert np.all(np.abs(got - expected) <= tol)

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            make_dataset({"kind": "gaussian_blobs", "n": 10, "classes": 1}, seed=0)
        with pytest.raises(InvalidParamsError):
            make_dataset({"kind": "gaussian_blobs", "n": 10, "sigma": -1.0}, seed=0)

    def test_splits_disjoint(self):
        ds = make_dataset({"kind": "gaussian_blobs", "n": 50, "sigma": 0.5}, seed=2)
        assert set(ds.train_idx).isdisjoint(ds.val_idx)
        assert len(ds.train_idx) + len(ds.val_idx) == 50


class TestOtherKinds:
    def test_spirals_shape_and_labels(self):
        ds = make_dataset({"kind": "spirals", "n": 120, "classes": 2, "sigma": 0.02}, seed=4)
        assert ds.inputs.shape == (120, 2)
        assert ds.n_classes == 2

    def test_xor_labels_match_quadrants(self):
        ds = make_dataset({"kind": "xor", "n": 400, "sigma": 0.05}, seed=5)
        expected = (np.sign(ds.inputs[:, 0]) != np.sign(ds.inputs[:, 1])).astype(int)
        assert np.mean(expected == ds.labels) > 0.99

    def test_unknown_kind(self):
        with pytest.raises(InvalidParamsError):
            make_dataset({"kind": "moons"}, seed=0)

    @pytest.mark.parametrize(
        "kind, key", [("gaussian_blobs", "sigmaa"), ("spirals", "d"), ("xor", "classes"), ("csv", "sigma")]
    )
    def test_key_the_kind_does_not_read(self, kind, key):
        with pytest.raises(InvalidParamsError) as err:
            make_dataset({"kind": kind, "val_fraction": 0.2, "seed": 1, key: 1}, seed=0)
        assert err.value.field == key


class TestCsv:
    def test_roundtrip_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label,x,y\n0,1.5,-2.0\n1,0.25,3.5\n0,0.0,0.0\n")
        ds = make_dataset({"kind": "csv", "path": str(path), "val_fraction": 0.0}, seed=0)
        assert ds.inputs.shape == (3, 2)
        assert list(ds.labels) == [0, 1, 0]
        assert "sha256" in ds.provenance

    def test_no_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1.0\n1,2.0\n")
        ds = make_dataset({"kind": "csv", "path": str(path), "val_fraction": 0.0}, seed=0)
        assert ds.inputs.shape == (2, 1)

    def test_non_numeric_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0\n1,oops\n")
        with pytest.raises(CsvParseError) as err:
            make_dataset({"kind": "csv", "path": str(path)}, seed=0)
        assert err.value.line_number == 2

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0,2.0\n1,3.0\n")
        with pytest.raises(CsvParseError):
            make_dataset({"kind": "csv", "path": str(path)}, seed=0)

    def test_fractional_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,1.0\n1,2.0\n")
        with pytest.raises(CsvParseError):
            make_dataset({"kind": "csv", "path": str(path)}, seed=0)
