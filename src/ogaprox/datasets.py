"""Loading, cleaning and splitting of the four benchmark datasets.

Files are plain delimited text (comma or whitespace); the per-dataset
column maps below say which column carries the label, which columns to
drop, and how raw labels map to +-1.  Rows with missing values are
dropped, features are z-scored over the full dataset, and constant
columns are removed with a warning.  The heart-disease table additionally
yields group labels by sex and by age band (<50, 50-59, >=60), computed
from the raw values before normalization.
"""

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "DatasetSpec",
    "DatasetFormat",
    "LoadedDataset",
    "ParseError",
    "UnknownDatasetError",
    "DATASET_FORMATS",
    "load_dataset",
    "train_test_split",
    "zscore",
]


class UnknownDatasetError(ValueError):
    pass


class ParseError(ValueError):
    def __init__(self, message: str, row: int, column: int | None = None):
        place = f"row {row}" + ("" if column is None else f", column {column}")
        super().__init__(f"{message} ({place})")
        self.row = row
        self.column = column


@dataclass(frozen=True)
class DatasetFormat:
    filename: str  # name of the file as distributed by the UCI repository
    label_column: int
    label_map: dict
    drop_columns: tuple[int, ...] = ()
    missing_marker: str | None = None
    n_columns: int | None = None


DATASET_FORMATS = {
    # id column dropped; labels 2 = benign, 4 = malignant; '?' marks missing
    "breast-cancer": DatasetFormat(
        filename="breast-cancer-wisconsin.data", label_column=10,
        label_map={"2": -1.0, "4": 1.0}, drop_columns=(0,), missing_marker="?", n_columns=11,
    ),
    # 13 features then the class (1 = absence, 2 = presence)
    "heart-disease": DatasetFormat(
        filename="heart.dat", label_column=13, label_map={"1": -1.0, "2": 1.0}, n_columns=14,
    ),
    "ionosphere": DatasetFormat(
        filename="ionosphere.data", label_column=34, label_map={"b": -1.0, "g": 1.0},
        n_columns=35,
    ),
    "sonar": DatasetFormat(
        filename="sonar.all-data", label_column=60, label_map={"R": -1.0, "M": 1.0},
        n_columns=61,
    ),
}

# raw heart-disease columns used to derive groups (before normalization)
_HEART_AGE_COLUMN = 0
_HEART_SEX_COLUMN = 1


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    path: str

    def __post_init__(self):
        if self.name not in DATASET_FORMATS:
            raise UnknownDatasetError(f"unknown dataset {self.name!r}")


@dataclass
class LoadedDataset:
    name: str
    features: np.ndarray
    labels: np.ndarray
    groups: dict[str, np.ndarray] = field(default_factory=dict)
    n_dropped_rows: int = 0
    dropped_columns: tuple[int, ...] = ()

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


def _tokenize(line: str) -> list[str]:
    line = line.strip()
    if "," in line:
        return [tok.strip() for tok in line.split(",")]
    return line.split()


def zscore(features: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Column-wise standardization; constant columns are dropped."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    constant = np.flatnonzero(std <= 1e-12 * np.maximum(1.0, np.abs(mean)))
    if constant.size:
        warnings.warn(
            f"dropping constant feature column(s) {tuple(int(c) for c in constant)}:"
            " zero standard deviation",
            stacklevel=2,
        )
    keep = np.setdiff1d(np.arange(features.shape[1]), constant)
    out = (features[:, keep] - mean[keep]) / std[keep]
    return out, tuple(int(c) for c in constant)


def load_dataset(spec: DatasetSpec) -> LoadedDataset:
    fmt = DATASET_FORMATS[spec.name]
    path = Path(spec.path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")

    raw_rows: list[list[float]] = []
    labels: list[float] = []
    dropped = 0
    with path.open() as handle:
        lines = [line for line in handle if line.strip()]
    for index, line in enumerate(lines):
        tokens = _tokenize(line)
        if fmt.n_columns is not None and len(tokens) != fmt.n_columns:
            if index == 0:
                continue  # header row
            raise ParseError(
                f"expected {fmt.n_columns} columns, found {len(tokens)}", index
            )
        if fmt.missing_marker is not None and fmt.missing_marker in tokens:
            dropped += 1
            continue
        label_token = tokens[fmt.label_column]
        if label_token not in fmt.label_map:
            if index == 0:
                continue  # header row
            raise ParseError(f"unknown label {label_token!r}", index, fmt.label_column)
        feature_tokens = [
            tok for col, tok in enumerate(tokens)
            if col != fmt.label_column and col not in fmt.drop_columns
        ]
        try:
            raw_rows.append([float(tok) for tok in feature_tokens])
        except ValueError:
            bad = next(
                col for col, tok in enumerate(feature_tokens)
                if not _is_float(tok)
            )
            raise ParseError(f"non-numeric feature {feature_tokens[bad]!r}",
                             index, bad) from None
        labels.append(fmt.label_map[label_token])

    raw = np.asarray(raw_rows, dtype=float)
    label_arr = np.asarray(labels, dtype=float)
    groups: dict[str, np.ndarray] = {}
    if spec.name == "heart-disease":
        age = raw[:, _HEART_AGE_COLUMN]
        sex = raw[:, _HEART_SEX_COLUMN]
        groups["sex"] = sex.astype(int)
        groups["age"] = np.digitize(age, [50.0, 60.0])  # <50, 50-59, >=60
    features, dropped_cols = zscore(raw)
    return LoadedDataset(
        name=spec.name,
        features=features,
        labels=label_arr,
        groups=groups,
        n_dropped_rows=dropped,
        dropped_columns=dropped_cols,
    )


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def train_test_split(n_rows: int, fraction: float,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint covering index split with ``round(fraction * n)`` training rows."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("split_fraction must lie in (0, 1)")
    order = rng.permutation(n_rows)
    n_train = int(round(fraction * n_rows))
    n_train = min(max(n_train, 1), n_rows - 1)
    return np.sort(order[:n_train]), np.sort(order[n_train:])
