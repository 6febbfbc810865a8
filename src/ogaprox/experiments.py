"""Experiment drivers: cone toy problem, synthetic linear-rate study,
multi-kernel SVM training and minimax-fair classification.

Each experiment driver is a pure function of (data, options, seed) that
returns its :class:`~ogaprox.report.RunReport`, whose ``config`` holds
every summary value (``d0``, the certificate verdict, per-run and
per-group accuracies); the library self-check returns its verdict and
lines.  Drivers do not time themselves: wall time belongs to the
caller.  The drivers own their defaults and check their options; the CLI
is a thin wrapper that maps config keys to driver keywords, times the
calls whose seconds it prints and writes the reports out.  All randomness
is drawn from per-(experiment, run) Philox streams, so a seed reproduces
every output bit-exactly under one BLAS thread count.
"""

import numpy as np

from .datasets import LoadedDataset, train_test_split
from .problem import SaddleProblem, validate_problem
from .problems import (
    FairnessProblem,
    Group,
    MkSvmProblem,
    QuadraticSaddleProblem,
    mksvm_predict,
    random_toy_problem,
)
from .problems.mksvm import build_kernels, conjugated_kernels, kernel_diagonal
from .report import MetricRecord, RunReport
from .rng import STREAMS, experiment_rng, make_rng
from .schedule import (
    ADAPTIVE_SIGMA0_FACTOR,
    default_adaptive,
    default_linear,
    make_schedule,
    sigma_tilde,
)
from .solver import gap_certificate, initial_distance, run

__all__ = [
    "log_checkpoints",
    "toy_experiments",
    "synthetic_experiment",
    "mksvm_experiment",
    "fairness_experiment",
    "validation_experiment",
    "MKSVM_VARIANTS",
]


def log_checkpoints(max_iter: int) -> list[int]:
    """Ascending, duplicate-free, roughly log-spaced iteration counts
    (about 20 per decade)."""
    if max_iter < 1:
        return []
    decades = max(1.0, np.log10(max_iter))
    points = max(2, int(round(20 * decades)))
    grid = np.unique(np.round(10 ** np.linspace(0.0, np.log10(max_iter), points)).astype(int))
    return [int(k) for k in grid if 1 <= k <= max_iter]


def _at_least_one(**counts: int) -> None:
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _sorted_checkpoints(checkpoints) -> tuple[int, ...]:
    """Ascending distinct checkpoints; rejects an empty list and counts below 1."""
    marks = tuple(sorted(set(checkpoints)))
    if not marks or marks[0] < 1:
        raise ValueError(f"checkpoints must be one or more counts >= 1, got {list(marks)}")
    return marks


# -- toy problem -------------------------------------------------------------

def toy_experiments(
    seed: int,
    nus: tuple[float, ...] = (0.0, 0.3),
    d: int = 250,
    n: int = 350,
    max_iter: int = 10_000,
    checkpoints: list[int] | None = None,
    tau0: float | None = None,
    sigma0: float | None = None,
) -> list[RunReport]:
    """Cone problem run under the adaptive law, whose steps stay constant at
    ``nu = 0``: one report per value of ``nus``, in order, all on one instance
    whose matrix is drawn and projector built (one SVD) once, with every ``nu``
    checked before the first run.  The matrix has entries uniform on [-3, 3];
    starting points are uniform on [-5, 5], with ``y0`` projected onto the cone
    to make it feasible.  A seed draws them the same way whatever ``nus``."""
    _at_least_one(max_iter=max_iter)
    if not nus:
        raise ValueError("nu must be given at least once, got no values")
    marks = log_checkpoints(max_iter) if checkpoints is None else _sorted_checkpoints(checkpoints)
    if marks[-1] > max_iter:
        raise ValueError(f"checkpoints must not exceed max_iter = {max_iter}, got {marks[-1]}")
    marks = set(marks)
    rng = experiment_rng(seed, "toy", 0)
    base = random_toy_problem(d, n, 0.0, rng)
    x0 = rng.uniform(-5.0, 5.0, d)
    v0 = rng.uniform(-5.0, 5.0, n)  # projected per nu: prox_g scales it by 1/(1 + nu)

    def one_run(nu, problem):
        y0 = problem.prox_g(1.0, v0)
        # the generic default keeps nu*sigma0 too small for the contraction to show
        # here: sigma0 sits at a quarter of its cap, and default_adaptive fills tau0
        s0 = 0.25 * ADAPTIVE_SIGMA0_FACTOR / nu if nu > 0 and sigma0 is None else sigma0
        kind = default_adaptive(problem.constants, tau0=tau0, sigma0=s0)
        sched0 = make_schedule(kind, problem.constants)
        saddle = problem.saddle_point()
        d0 = initial_distance(saddle, x0, y0, sched0.tau, sched0.sigma)

        def metrics(k, state, sched):
            if k not in marks:
                return None
            out = {"gap": problem.gap_value(saddle, state.ergodic()),
                   "dist_x": float(np.linalg.norm(state.x - saddle[0]))}
            if nu > 0:
                out["dist_y"] = float(np.linalg.norm(state.y - saddle[1]))
            return out

        report = run(problem, kind, x0, y0, max_iter, callbacks=(metrics,)).report
        report.config = {
            "experiment": "toy", "seed": seed, "d": d, "n": n, "nu": nu,
            "max_iter": max_iter, "tau0": sched0.tau, "sigma0": sched0.sigma,
            "d0": d0,
        }
        return report

    return [one_run(nu, problem) for nu, problem in zip(nus, [base.with_nu(nu) for nu in nus])]


# -- synthetic strongly convex-strongly concave ------------------------------

def synthetic_experiment(
    seed: int,
    dim: int = 40,
    max_iter: int = 500,
    theta: float = 0.9,
    record_every: int = 1,
) -> RunReport:
    """Quadratic instance with unit coupling norm, mu = nu = 1.

    Runs the linear-rate schedule with the balanced Young weight and
    checks the full linear certificate at every iteration.  ``theta``
    defaults to 0.9 rather than the midpoint rule so the certified
    quantities stay above double-precision noise through 500 iterations;
    past that, the certificate is checked against a roundoff floor, its
    own value at a point 16 ulps from the saddle point, once the bound
    falls below it.  The report's config holds the verdict
    (``certificate_ok``) and the largest lhs/bound ratio (``max_certificate_ratio``).
    """
    _at_least_one(dim=dim, max_iter=max_iter, record_every=record_every)
    rng = experiment_rng(seed, "synthetic", 0)
    a = rng.standard_normal((dim, dim))
    a /= np.linalg.svd(a, compute_uv=False)[0]
    problem = QuadraticSaddleProblem(
        a, rng.standard_normal(dim), rng.standard_normal(dim), mu=1.0, nu=1.0
    )
    saddle = problem.saddle_point()
    kind = default_linear(problem.constants, theta=theta)
    x0 = rng.standard_normal(dim)
    y0 = rng.standard_normal(dim)
    sched0 = make_schedule(kind, problem.constants)
    d0 = initial_distance(saddle, x0, y0, sched0.tau, sched0.sigma)
    ok = True
    max_ratio = 0.0
    # a point 16 ulps (relative) from the saddle point has these distance
    # terms times 1/(2 tau) and 1/(2 sigma_tilde); lhs settles at 14-35
    # eps**2 times the same, so a bound below this floor certifies roundoff
    ulps2 = (16.0 * float(np.finfo(float).eps)) ** 2
    x_floor, y_floor = (ulps2 * float(u @ u) for u in saddle)
    floor = x_floor / (2.0 * sched0.tau) + y_floor / (2.0 * sigma_tilde(kind, problem.constants))

    def certify(k, state, sched):
        nonlocal ok, max_ratio
        cert = gap_certificate(problem, saddle, state, kind, d0)
        bound = max(cert.bound, floor)
        max_ratio = max(max_ratio, cert.lhs / bound if bound > 0 else np.inf)
        ok = ok and cert.lhs <= max(cert.bound * (1 + 1e-8), floor)
        if k % record_every == 0 or k == max_iter:
            return {"gap": cert.gap,
                    "dist_x": float(np.linalg.norm(state.x - saddle[0])),
                    "dist_y": float(np.linalg.norm(state.y - saddle[1]))}
        return None

    report = run(problem, kind, x0, y0, max_iter, callbacks=(certify,)).report
    report.config = {
        "experiment": "synthetic", "seed": seed, "dim": dim,
        "max_iter": max_iter, "theta": theta, "alpha": kind.alpha,
        "d0": d0, "certificate_ok": ok, "max_certificate_ratio": max_ratio,
    }
    return report


# -- multi-kernel SVM --------------------------------------------------------

MKSVM_VARIANTS = {
    "c1": {"mu": 0.0, "nu": 0.0},
    "a": {"mu": 0.0, "nu": 0.5},
    "c2": {"mu": 1.0, "nu": 0.5},
}


def mksvm_experiment(
    data: LoadedDataset,
    variant: str = "c1",
    seed: int = 0,
    runs: int = 12,
    checkpoints: tuple[int, ...] = (250, 500, 1000, 1500, 2000),
    box_c: float = 1.0,
    split_fraction: float = 0.8,
    tau0: float | None = None,
    sigma0: float | None = None,
) -> RunReport:
    """Multi-kernel SVM accuracy study on one dataset.

    Per run: fresh 80/20 split, polynomial/Gaussian/linear kernels built
    over all rows and unit-diagonal normalized, the dual iterate starts
    at zero and the kernel weights at the simplex center.  Test-set
    accuracy is measured at the checkpoints; the aggregate over three or more
    runs drops one minimum and one maximum, over one or two it is their mean.
    The report has one ``tsa`` record per checkpoint, the aggregate, and
    ``config["per_run"]`` holds each run's scores keyed by checkpoint string.
    """
    if variant not in MKSVM_VARIANTS:
        raise ValueError(f"variant must be one of {sorted(MKSVM_VARIANTS)}")
    if variant == "c2" and (tau0 is not None or sigma0 is not None):
        raise ValueError("tau0 and sigma0 do not apply to the linear law of variant c2")
    mu, nu = MKSVM_VARIANTS[variant]["mu"], MKSVM_VARIANTS[variant]["nu"]
    _at_least_one(runs=runs)
    checkpoints = _sorted_checkpoints(checkpoints)
    max_iter = checkpoints[-1]
    kernels = build_kernels(data.features)
    traces = np.array([np.sum(kernel_diagonal(k)) for k in kernels])
    c_total = float(np.sum(traces))
    per_run: list[dict[int, float]] = []
    for run_index in range(runs):
        rng = experiment_rng(seed, "mksvm", run_index)
        train_idx, test_idx = train_test_split(data.n_rows, split_fraction, rng)
        labels_train = data.labels[train_idx]
        labels_test = data.labels[test_idx]
        problem = MkSvmProblem(conjugated_kernels(kernels, train_idx, labels_train),
                               labels_train, box_c=box_c, mu=mu, nu=nu)
        if variant == "c2":
            kind = default_linear(problem.constants)
        else:
            kind = default_adaptive(problem.constants, tau0=tau0, sigma0=sigma0)
        x0 = np.full(problem.dim_x, 1.0 / problem.dim_x)
        y0 = np.zeros(problem.dim_y)

        def accuracy(k, state, sched):
            if k not in checkpoints:
                return None
            eta = c_total * state.x / traces
            pred = mksvm_predict(kernels, train_idx, test_idx, labels_train,
                                 state.y, eta, nu=nu, box_c=box_c)
            return {"tsa": 100.0 * float(np.mean(pred.labels == labels_test))}

        records = run(problem, kind, x0, y0, max_iter, callbacks=(accuracy,)).report.records
        per_run.append({rec.k: rec.tsa for rec in records})
        del problem  # the next run's blocks are built without this run's alive

    report = RunReport()
    for k in checkpoints:
        report.add(MetricRecord(k=k, tsa=_trimmed_mean([s[k] for s in per_run])))
    report.config = {
        "experiment": "mksvm", "dataset": data.name, "variant": variant,
        "seed": seed, "runs": runs, "mu": mu, "nu": nu, "box_c": box_c,
        "checkpoints": list(checkpoints), "per_run": [
            {str(k): v for k, v in s.items()} for s in per_run
        ],
    }
    return report


def _trimmed_mean(values: list[float]) -> float:
    """Mean after removing one minimum and one maximum (of three or more values)."""
    if len(values) <= 2:
        return float(np.mean(values))
    ordered = sorted(values)
    return float(np.mean(ordered[1:-1]))


# -- minimax-fair classification ---------------------------------------------

def _groups_from_rows(features, labels, group_vector, row_idx) -> list[Group]:
    groups = []
    for gid in np.unique(group_vector):
        rows = row_idx[group_vector[row_idx] == gid]
        if rows.size == 0:
            raise ValueError(f"group {gid} has no rows in this partition")
        groups.append(Group(features[rows], labels[rows]))
    return groups


def fairness_experiment(
    data: LoadedDataset,
    grouping: str = "sex",
    seed: int = 0,
    partitions: int = 5,
    checkpoints: tuple[int, ...] = (100, 500, 1000),
    split_fraction: float = 0.8,
) -> RunReport:
    """Worst-group-fair classifier versus plain average-loss training.

    Both classifiers are trained per partition with the adaptive law at
    ``nu = 0``, whose steps stay constant; accuracies (overall and per
    group of the held-out rows) are averaged over the partitions.  The
    report's ``tsa`` records are the fair classifier's overall accuracy;
    ``config["with_fairness"]`` and ``config["without_fairness"]`` map each
    checkpoint, as a string, to its accuracy cells.
    """
    if grouping not in data.groups:
        raise ValueError(f"dataset has no grouping {grouping!r}")
    group_vector = data.groups[grouping]
    group_ids = [int(g) for g in np.unique(group_vector)]
    _at_least_one(partitions=partitions)
    checkpoints = _sorted_checkpoints(checkpoints)
    max_iter = checkpoints[-1]
    # accuracies per classifier, checkpoint and key: "overall", then "group<id>"
    table: dict[str, dict[int, dict[str, list[float]]]] = {
        name: {k: {} for k in checkpoints} for name in ("with_fairness", "without_fairness")}
    for part in range(partitions):
        rng = experiment_rng(seed, "fairness", part)
        train_idx, test_idx = train_test_split(data.n_rows, split_fraction, rng)
        test_rows = [("overall", test_idx)] + [
            (f"group{gid}", rows) for gid in group_ids
            if (rows := test_idx[group_vector[test_idx] == gid]).size]
        fair_groups = _groups_from_rows(data.features, data.labels,
                                        group_vector, train_idx)
        plain_group = [Group(data.features[train_idx], data.labels[train_idx])]
        for name, groups in (("with_fairness", fair_groups), ("without_fairness", plain_group)):
            problem, cells = FairnessProblem(groups), table[name]

            def record(k, state, sched):
                if k in checkpoints:
                    for key, rows in test_rows:
                        cells[k].setdefault(key, []).append(problem.accuracy(
                            state.x, data.features[rows], data.labels[rows]))

            run(problem, default_adaptive(problem.constants), np.zeros(problem.dim_x),
                np.full(problem.dim_y, 1.0 / problem.dim_y), max_iter, callbacks=(record,))

    # averages per key over the partitions that observed it (a group can
    # miss a small test split)
    averages = {name: {str(k): {key: float(np.mean(vals)) for key, vals in cell.items()}
                       for k, cell in cells.items()} for name, cells in table.items()}
    report = RunReport()
    for k in checkpoints:
        report.add(MetricRecord(k=k, tsa=averages["with_fairness"][str(k)]["overall"]))
    report.config = {
        "experiment": "fairness", "dataset": data.name, "grouping": grouping,
        "seed": seed, "partitions": partitions, "checkpoints": list(checkpoints),
        **averages,
    }
    return report


# -- library self-check -------------------------------------------------------

def validation_experiment(seed: int = 0, trials: int = 1000) -> tuple[bool, list[str]]:
    """Validate the standing assumptions on one instance of every problem."""
    rng = make_rng(seed, STREAMS["validate"])
    cases: list[tuple[str, SaddleProblem]] = []
    cases.append(("toy nu=0", random_toy_problem(15, 22, 0.0, rng)))
    cases.append(("toy nu=0.3", random_toy_problem(15, 22, 0.3, rng)))
    cases.append(("bilinear", QuadraticSaddleProblem(rng.standard_normal((8, 8)),
                                                     box=(-1.0, 1.0))))
    cases.append(("quadratic", QuadraticSaddleProblem(
        rng.standard_normal((7, 6)), rng.standard_normal(6),
        rng.standard_normal(7), mu=1.0, nu=1.0)))

    feats = rng.standard_normal((24, 4))
    labels = np.where(rng.uniform(size=24) < 0.5, -1.0, 1.0)
    labels[:2] = (1.0, -1.0)
    kernels = build_kernels(feats)
    train_idx = np.arange(18)
    mats = conjugated_kernels(kernels, train_idx, labels[:18])
    cases.append(("mksvm", MkSvmProblem(mats, labels[:18], box_c=1.0,
                                        mu=0.5, nu=0.5)))
    cases.append(("fairness", FairnessProblem([
        Group(feats[:12], labels[:12]), Group(feats[12:], labels[12:]),
    ])))

    all_ok = True
    lines = []
    for name, problem in cases:
        report = validate_problem(problem, trials=trials, seed=seed)
        all_ok = all_ok and report.ok
        prox = "skipped" if report.prox_violation is None else f"{report.prox_violation:.3e}"
        lines.append(
            f"{'PASS' if report.ok else 'FAIL'} {name}: "
            f"lipschitz {report.lipschitz_violation:.3e}, prox {prox}"
        )
    return all_ok, lines
