import numpy as np
import pytest

from ogaprox.datasets import (
    DatasetSpec,
    ParseError,
    UnknownDatasetError,
    load_dataset,
    train_test_split,
    zscore,
)
from ogaprox.rng import make_rng


def _write_breast_cancer(path, rng, rows=699, missing_rows=16):
    """Synthetic file in the original Wisconsin format: id, 9 integer
    features (missing marked '?'), class 2/4."""
    lines = []
    missing_at = set(rng.choice(rows, size=missing_rows, replace=False).tolist())
    for i in range(rows):
        feats = rng.integers(1, 11, size=9).astype(object)
        if i in missing_at:
            feats[int(rng.integers(0, 9))] = "?"
        label = 2 if rng.uniform() < 0.65 else 4
        lines.append(",".join([str(1000000 + i)] + [str(f) for f in feats] + [str(label)]))
    path.write_text("\n".join(lines) + "\n")


def _write_heart(path, rng, rows=270):
    """Statlog-style: 13 space-separated features, label 1/2; column 0 is
    age, column 1 sex."""
    lines = []
    for _ in range(rows):
        age = float(rng.integers(29, 78))
        sex = float(rng.integers(0, 2))
        rest = rng.normal(0, 1, size=11)
        label = 1 if rng.uniform() < 0.55 else 2
        row = [age, sex, *rest]
        lines.append(" ".join(f"{v:.4f}" for v in row) + f" {label}")
    path.write_text("\n".join(lines) + "\n")


def test_breast_cancer_fixture_drops_incomplete_rows(tmp_path):
    rng = make_rng(90, 0)
    path = tmp_path / "breast-cancer-wisconsin.data"
    _write_breast_cancer(path, rng)
    data = load_dataset(DatasetSpec(name="breast-cancer", path=str(path)))
    assert data.n_rows == 683
    assert data.n_dropped_rows == 16
    assert data.features.shape[1] == 9  # id column dropped, label removed
    assert set(np.unique(data.labels)) == {-1.0, 1.0}
    np.testing.assert_allclose(data.features.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(data.features.std(axis=0), 1.0, atol=1e-10)


def test_heart_fixture_groups_and_normalization(tmp_path):
    rng = make_rng(91, 0)
    path = tmp_path / "heart.dat"
    _write_heart(path, rng)
    data = load_dataset(DatasetSpec(name="heart-disease", path=str(path)))
    assert data.n_rows == 270
    assert data.features.shape[1] == 13
    np.testing.assert_allclose(data.features.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(data.features.std(axis=0), 1.0, atol=1e-10)
    assert set(data.groups) == {"sex", "age"}
    assert set(np.unique(data.groups["sex"])) <= {0, 1}
    assert set(np.unique(data.groups["age"])) <= {0, 1, 2}
    # group bands come from the raw age values, not the z-scored ones
    raw_ages = [float(line.split()[0]) for line in path.read_text().splitlines()]
    expected = np.digitize(raw_ages, [50.0, 60.0])
    np.testing.assert_array_equal(data.groups["age"], expected)


def test_constant_column_dropped_with_warning(tmp_path):
    rng = make_rng(92, 0)
    path = tmp_path / "heart.dat"
    lines = []
    for _ in range(40):
        row = [float(rng.integers(30, 70)), 1.0, *rng.normal(size=11)]
        label = 1 if rng.uniform() < 0.5 else 2
        lines.append(" ".join(f"{v:.3f}" for v in row) + f" {label}")
    path.write_text("\n".join(lines))
    with pytest.warns(UserWarning, match="constant feature column"):
        data = load_dataset(DatasetSpec(name="heart-disease", path=str(path)))
    assert data.features.shape[1] == 12
    assert data.dropped_columns == (1,)


def test_parse_error_reports_row(tmp_path):
    path = tmp_path / "sonar.all-data"
    good = ",".join(["0.1"] * 60) + ",R"
    bad = ",".join(["0.1"] * 59 + ["oops"]) + ",M"
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(ParseError, match="row 1"):
        load_dataset(DatasetSpec(name="sonar", path=str(path)))


def test_unknown_dataset_rejected(tmp_path):
    with pytest.raises(UnknownDatasetError):
        DatasetSpec(name="mystery", path="x.csv")


def test_split_fraction_validated():
    for fraction in (0.0, 1.0):
        with pytest.raises(ValueError, match="split_fraction"):
            train_test_split(10, fraction, make_rng(94, 0))


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(DatasetSpec(name="sonar", path=str(tmp_path / "none.data")))


def test_ionosphere_format_and_header_skip(tmp_path):
    rng = make_rng(93, 0)
    path = tmp_path / "ionosphere.data"
    lines = [",".join(f"f{i}" for i in range(34)) + ",label"]  # header
    for _ in range(30):
        feats = rng.normal(size=34)
        label = "g" if rng.uniform() < 0.6 else "b"
        lines.append(",".join(f"{v:.3f}" for v in feats) + f",{label}")
    path.write_text("\n".join(lines))
    data = load_dataset(DatasetSpec(name="ionosphere", path=str(path)))
    assert data.n_rows == 30
    assert data.features.shape[1] == 34


def test_train_test_split_disjoint_covering():
    rng = make_rng(94, 0)
    train, test = train_test_split(270, 0.8, rng)
    assert train.size == 216 and test.size == 54
    assert np.intersect1d(train, test).size == 0
    assert np.union1d(train, test).size == 270
    # deterministic under the same generator state
    rng2 = make_rng(94, 0)
    train2, _ = train_test_split(270, 0.8, rng2)
    np.testing.assert_array_equal(train, train2)


def test_zscore_direct():
    x = np.array([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]])
    with pytest.warns(UserWarning):
        out, dropped = zscore(x)
    assert dropped == (1,)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-15)
    np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-15)
