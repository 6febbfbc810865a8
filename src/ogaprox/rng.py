"""Deterministic random-number streams for experiments and tests.

All randomness in the package flows through Philox, a counter-based
generator, so that a (seed, stream, run index) triple reproduces its draws
bit-exactly across processes and platforms.
"""

import numpy as np

# Stream constants keep experiment verbs statistically independent even
# when the user passes the same base seed to each of them.
STREAMS = {
    "toy": 1,
    "mksvm": 2,
    "fairness": 3,
    "synthetic": 4,
    "validate": 5,
    "test": 6,
}


def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Philox generator keyed by ``seed`` plus integer sub-stream path."""
    seq = np.random.SeedSequence([int(seed), *[int(p) for p in path]])
    return np.random.Generator(np.random.Philox(seq))


def experiment_rng(seed: int, experiment: str, run_index: int = 0) -> np.random.Generator:
    """Generator for one run of a named experiment."""
    try:
        stream = STREAMS[experiment]
    except KeyError:
        raise ValueError(f"unknown experiment stream {experiment!r}") from None
    return make_rng(seed, stream, run_index)
