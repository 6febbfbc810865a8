"""Seeded generators for UCI-format text files shaped like the paper's data.

The UCI tables the experiments use are not redistributed, so the benchmark
writes look-alikes from its seed and lets the real ``load_dataset`` parse
them.  Every feature is a noisy function of the class, so held-out accuracy
is well above chance but below 100%.
"""

import numpy as np

IONOSPHERE_ROWS, IONOSPHERE_FEATURES = 351, 34
HEART_ROWS, HEART_FEATURES = 270, 13


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), stream])))


def ionosphere_text(seed: int, rows: int = IONOSPHERE_ROWS) -> str:
    """Comma-separated rows of 34 features then ``g`` or ``b``.

    As in the real file, column 0 is binary, column 1 is constant zero (the
    loader drops it with a warning) and the remaining 32 lie in [-1, 1].
    """
    rng = _rng(seed, 1)
    good = rng.uniform(size=rows) < 0.64
    good[:2] = (True, False)  # both classes present at any size
    sign = np.where(good, 1.0, -1.0)
    loadings = rng.uniform(0.15, 0.45, IONOSPHERE_FEATURES - 2) * rng.choice([-1.0, 1.0], IONOSPHERE_FEATURES - 2)
    rest = np.clip(sign[:, None] * loadings + rng.normal(0.0, 0.45, (rows, IONOSPHERE_FEATURES - 2)), -1.0, 1.0)
    binary = (rng.uniform(size=rows) < np.where(good, 0.99, 0.8)).astype(int)
    lines = []
    for i in range(rows):
        cells = [str(binary[i]), "0"] + [f"{v:.5f}" for v in rest[i]] + ["g" if good[i] else "b"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def heart_text(seed: int, rows: int = HEART_ROWS) -> str:
    """Whitespace-separated rows of 13 features then class ``1`` or ``2``.

    Columns follow Statlog heart: raw age (29-77) and sex (0/1) first, so the
    loader can derive the sex and age-band groupings, then eleven clinical
    columns whose means shift with the class.
    """
    rng = _rng(seed, 2)
    sick = rng.uniform(size=rows) < 0.44
    sick[:2] = (True, False)
    s = sick.astype(float)
    sex = (rng.uniform(size=rows) < np.where(sick, 0.83, 0.56)).astype(float)
    sex[2:4] = (0.0, 1.0)  # both sexes present at any size
    age = np.clip(np.round(rng.normal(52.5 + 4.0 * s, 8.5)), 29, 77)
    cols = [
        age,
        sex,
        np.clip(np.round(rng.normal(2.9 + 0.9 * s, 0.8)), 1, 4),             # chest pain type
        np.round(rng.normal(129.0 + 5.0 * s, 17.0)),                         # resting blood pressure
        np.round(rng.normal(245.0 + 10.0 * s, 50.0)),                        # cholesterol
        (rng.uniform(size=rows) < 0.15).astype(float),                       # fasting blood sugar
        np.clip(np.round(rng.normal(0.8 + 0.5 * s, 0.8)), 0, 2),             # resting ECG
        np.round(rng.normal(158.0 - 19.0 * s, 20.0)),                        # max heart rate
        (rng.uniform(size=rows) < 0.15 + 0.4 * s).astype(float),             # exercise angina
        np.round(np.clip(rng.normal(0.6 + 1.0 * s, 0.9), 0.0, 6.2), 1),      # ST depression
        np.clip(np.round(rng.normal(1.4 + 0.5 * s, 0.55)), 1, 3),            # ST slope
        np.clip(np.round(rng.exponential(0.4 + 0.8 * s)), 0, 3),             # vessels
        np.where(rng.uniform(size=rows) < 0.2 + 0.5 * s, 7.0, 3.0),          # thal
    ]
    table = np.column_stack(cols)
    lines = [" ".join(f"{v:.1f}" for v in row) + f" {2 if sick[i] else 1}"
             for i, row in enumerate(table)]
    return "\n".join(lines) + "\n"
