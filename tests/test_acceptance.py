"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The two dataset-backed
criteria (7 and 8) need the UCI files under ``data/`` (or ``$OGAPROX_DATA``)
and are skipped with an explicit message when the files are absent; all
other criteria are self-contained.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from ogaprox.datasets import DATASET_FORMATS, DatasetSpec, load_dataset
from ogaprox.experiments import (
    fairness_experiment,
    mksvm_experiment,
    synthetic_experiment,
    toy_experiments,
)
from ogaprox.problem import prox_inequality_gap, validate_problem
from ogaprox.problems import (
    FairnessProblem,
    Group,
    MkSvmProblem,
    QuadraticSaddleProblem,
    random_toy_problem,
)
from ogaprox.problems.mksvm import (
    conjugated_kernels,
    gaussian_kernel,
    linear_kernel,
    normalize_kernel,
    polynomial_kernel,
)
from ogaprox.prox import (
    BoxHyperplaneSet,
    PolytopeProjector,
    project_box_hyperplane,
    project_polytope,
    project_simplex,
)
from ogaprox.qp import QpProblem, QpStatus, solve_qp
from ogaprox.rng import make_rng
from ogaprox.schedule import (
    AdaptiveSchedule,
    adaptive_rates,
    advance_schedule,
    default_adaptive,
    make_schedule,
    sigma_tilde,
)
from ogaprox.solver import SolverState, run, step

from _oracles import assumption_slacks, prox_oracle, prox_positive_part_scaled, spy_on_run

SEED = 9001

DATA_DIR = Path(os.environ.get("OGAPROX_DATA", Path(__file__).resolve().parent.parent / "data"))


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{label}]: {status}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def _slope(records, lo=100, hi=10_000):
    ks = np.array([r.k for r in records if lo <= r.k <= hi])
    gaps = np.array([max(r.gap, 1e-300) for r in records if lo <= r.k <= hi])
    return float(np.polyfit(np.log(ks), np.log(gaps), 1)[0])


def _dataset(name: str):
    path = DATA_DIR / DATASET_FORMATS[name].filename
    if not path.exists():
        pytest.skip(
            f"dataset file {path} not present; place the UCI files under "
            f"{DATA_DIR} or set OGAPROX_DATA (see README)"
        )
    return load_dataset(DatasetSpec(name=name, path=str(path)))


def test_criterion_1_gap_rate_merely_convex():
    started = time.perf_counter()
    report = toy_experiments(SEED, (0.0,), d=250, n=350, max_iter=10_000)[0]
    elapsed = time.perf_counter() - started
    slope = _slope(report.records)
    d0 = report.config["d0"]
    bound_ok = all(r.gap <= d0 / r.k + 1e-9 for r in report.records)
    detail = f"slope {slope:.3f}, bound ok {bound_ok}, {elapsed:.1f}s"
    _report(1, "O(1/K) gap, nu=0", slope <= -0.9 and bound_ok and elapsed <= 60.0, detail)


def test_criterion_2_gap_rate_strongly_concave(monkeypatch):
    calls = spy_on_run(monkeypatch)
    started = time.perf_counter()
    report = toy_experiments(SEED, (0.3,), d=250, n=350, max_iter=10_000)[0]
    elapsed = time.perf_counter() - started
    [(problem, kind, _, _)] = calls
    slope = _slope(report.records)
    c2, c1 = adaptive_rates(kind, problem.constants)
    d0 = report.config["d0"]
    gap_ok = all(r.gap <= c2 * d0 / r.k**2 + 1e-9
                 for r in report.records if r.k >= 2)
    dist_ok = all(r.dist_y <= c1 * math.sqrt(d0) / r.k + 1e-9
                  for r in report.records if r.k >= 2)
    detail = f"slope {slope:.3f}, c2 ok {gap_ok}, c1 ok {dist_ok}, {elapsed:.1f}s"
    _report(2, "O(1/K^2) gap and O(1/K) iterate, nu=0.3",
            slope <= -1.8 and gap_ok and dist_ok and elapsed <= 60.0, detail)


def test_criterion_3_linear_rate_certificate(monkeypatch):
    calls = spy_on_run(monkeypatch)
    started = time.perf_counter()
    report = synthetic_experiment(seed=SEED, dim=40, max_iter=500, theta=0.9)
    elapsed = time.perf_counter() - started
    [(problem, kind, _, _)] = calls
    theta = kind.theta
    tau = make_schedule(kind, problem.constants).tau
    sig_tilde = sigma_tilde(kind, problem.constants)
    dist_ok = True
    full_ok = report.config["certificate_ok"]
    for rec in report.records:
        bound = math.exp(rec.k * math.log(theta)) * report.config["d0"]
        dist_term = rec.dist_x**2 / (2 * tau) + rec.dist_y**2 / (2 * sig_tilde)
        dist_ok = dist_ok and dist_term <= bound * (1 + 1e-8)
        lhs = theta * rec.gap + dist_term
        full_ok = full_ok and lhs <= bound * (1 + 1e-8)
    detail = f"max lhs/bound {report.config['max_certificate_ratio']:.3f}, {elapsed:.2f}s"
    _report(3, "linear rate, full certificate to K=500",
            full_ok and dist_ok and elapsed <= 5.0, detail)


def test_criterion_4_pdhg_reduction():
    rng = make_rng(SEED, 41)
    n = 30
    a = rng.standard_normal((n, n)) / math.sqrt(n)
    problem = QuadraticSaddleProblem(a, box=(-1.0, 1.0))
    norm_a = problem.constants.l_yx
    tau = 0.5 / norm_a
    sigma = 0.5 / norm_a
    kind = AdaptiveSchedule(tau0=tau, sigma0=sigma, c_alpha=2.0 * norm_a)
    x0 = rng.standard_normal(n)
    y0 = np.clip(rng.standard_normal(n), -1.0, 1.0)
    result = run(problem, kind, x0, y0, max_iter=100)

    x_cur, x_prev, y_cur = x0.copy(), x0.copy(), y0.copy()
    for _ in range(100):
        x_bar = 2.0 * x_cur - x_prev
        y_cur = np.clip(y_cur + sigma * (a @ x_bar), -1.0, 1.0)
        x_prev = x_cur
        x_cur = x_cur - tau * (a.T @ y_cur)
    diff = max(float(np.max(np.abs(result.state.x - x_cur))),
               float(np.max(np.abs(result.state.y - y_cur))))
    _report(4, "PDHG reduction on bilinear coupling", diff <= 1e-10,
            f"max coordinate diff {diff:.2e}")


def test_criterion_5_adaptive_schedule_invariants():
    constants_nu1 = dict(l_yx=1.0, l_yy=0.0, nu=1.0)
    from ogaprox.problem import ProblemConstants

    constants = ProblemConstants(**constants_nu1)
    kind = AdaptiveSchedule(tau0=1.0, sigma0=0.45, c_alpha=2.0)
    state = make_schedule(kind, constants)
    product0 = state.tau * state.sigma
    ok = True
    worst = 0.0
    for k in range(1, 10_001):
        prev_tau, state = state.tau, advance_schedule(state, kind, constants)
        prod_err = abs(state.tau * state.sigma - product0) / product0
        t_err = abs(state.t - state.tau / kind.tau0) / state.t
        worst = max(worst, prod_err, t_err)
        ok = ok and prod_err <= 1e-12 and t_err <= 1e-12
        ok = ok and state.sigma <= 3.0 / (constants.nu * k) * (1 + 1e-12)
        ok = ok and state.tau >= constants.nu * kind.tau0 * kind.sigma0 * k / 3.0 * (1 - 1e-12)
        s_tau, s_sigma = assumption_slacks(state, prev_tau, kind, constants)
        ok = ok and s_tau >= -1e-12 and s_sigma >= -1e-12
    _report(5, "adaptive schedule invariants over 10^4 steps", ok,
            f"worst relative identity error {worst:.2e}")


def test_criterion_6_prox_and_qp_correctness():
    rng = make_rng(SEED, 61)
    ok = True
    worst_oracle = -np.inf
    cases = []

    # projections and their sets
    labels = np.where(rng.uniform(size=12) < 0.5, -1.0, 1.0)
    labels[:2] = (1.0, -1.0)
    box_set = BoxHyperplaneSet(upper=1.0, normal=labels)
    cone_a = rng.uniform(-3.0, 3.0, (5, 12))
    projector = PolytopeProjector(cone_a)
    cases.append(("project_simplex", 12, project_simplex))
    cases.append(("project_box_hyperplane", 12, lambda v: project_box_hyperplane(box_set, v)))
    cases.append(("project_polytope(qp)", 12, lambda v: project_polytope(cone_a, v)))
    cases.append(("cone projector(dual)", 12, projector.project))

    # indicator-style oracle for projections, plus metric properties
    for name, dim, proj in cases:
        v = rng.standard_normal(dim) * 2
        cand = proj(v)

        def indicator(u, _proj=proj):
            return 0.0 if np.linalg.norm(_proj(u) - u) <= 1e-8 else np.inf

        violation = prox_oracle(indicator, v, cand, trials=1000, seed=SEED)
        worst_oracle = max(worst_oracle, violation)
        ok = ok and violation <= 1e-8
        for _ in range(1000):
            u1 = rng.standard_normal(dim) * 3
            u2 = rng.standard_normal(dim) * 3
            p1, p2 = proj(u1), proj(u2)
            ok = ok and np.linalg.norm(p1 - p2) <= np.linalg.norm(u1 - u2) * (1 + 1e-10) + 1e-10
            ok = ok and np.max(np.abs(proj(p1) - p1)) <= 1e-10

    # scalar positive-part prox through the same oracle
    tau, weight = 0.8, 1.7
    for x_val in (-1.0, 0.4, 3.0, 0.0, tau * weight):
        cand = np.array([prox_positive_part_scaled(tau, weight, x_val)])
        violation = prox_oracle(
            lambda u: tau * weight * max(0.0, float(u[0])),
            np.array([x_val]), cand, trials=1000, seed=SEED + 1,
        )
        worst_oracle = max(worst_oracle, violation)
        ok = ok and violation <= 1e-8

    # model-problem proxes
    toy = random_toy_problem(6, 9, 0.3, make_rng(SEED, 62))
    quad = QuadraticSaddleProblem(
        make_rng(SEED, 63).standard_normal((5, 4)),
        make_rng(SEED, 64).standard_normal(4),
        make_rng(SEED, 65).standard_normal(5), mu=1.0, nu=0.7,
    )
    feats = make_rng(SEED, 66).standard_normal((18, 4))
    flabels = np.where(make_rng(SEED, 67).uniform(size=18) < 0.5, -1.0, 1.0)
    flabels[:2] = (1.0, -1.0)
    kernels = [normalize_kernel(polynomial_kernel(feats)),
               normalize_kernel(gaussian_kernel(feats)),
               normalize_kernel(linear_kernel(feats))]
    mats = conjugated_kernels(kernels, np.arange(14), flabels[:14])
    mksvm = MkSvmProblem(mats, flabels[:14], box_c=1.0, mu=0.5, nu=0.5)
    fairness = FairnessProblem([Group(feats[:9], flabels[:9]),
                                Group(feats[9:], flabels[9:])])
    fair_y = np.array([0.35, 0.65])
    problem_cases = [
        ("toy", toy, toy.sample_point(make_rng(SEED, 68))[1], 0.9),
        ("quadratic", quad, make_rng(SEED, 69).standard_normal(5), 0.7),
        ("mksvm", mksvm, mksvm.sample_point(make_rng(SEED, 70))[1], 0.05),
        ("fairness", fairness, fair_y, 0.6),
    ]
    worst_gap = -np.inf
    for name, prob, y_ref, tau_val in problem_cases:
        rng_p = make_rng(SEED, 71)
        x_query = rng_p.standard_normal(prob.dim_x)
        cand = prob.prox_phi_x(tau_val, y_ref, x_query)
        violation = prox_oracle(lambda u: tau_val * prob.phi_value(u, y_ref),
                                x_query, cand, trials=1000, seed=SEED + 2)
        worst_oracle = max(worst_oracle, violation)
        ok = ok and violation <= 1e-8
        # the library's check, on points from cand toward feasible samples
        rng_s = make_rng(SEED, 73)
        targets = [prob.sample_point(rng_s)[0] for _ in range(4)]
        gap = prox_inequality_gap(lambda u: tau_val * prob.phi_value(u, y_ref), x_query, cand,
                                  [cand + t * (s - cand) for s in targets for t in (1e-3, 0.1, 1.0)])
        worst_gap = max(worst_gap, gap)
        ok = ok and gap <= 1e-10
        v_query = y_ref + 0.5 * rng_p.standard_normal(prob.dim_y)
        cand = prob.prox_g(0.8, v_query)
        violation = prox_oracle(lambda w: 0.8 * prob.g_value(w),
                                v_query, cand, trials=1000, seed=SEED + 3)
        worst_oracle = max(worst_oracle, violation)
        ok = ok and violation <= 1e-8

    # dense QP solutions carry KKT residuals at 1e-9
    kkt_worst = 0.0
    for trial in range(20):
        rng_q = make_rng(SEED, 72, trial)
        mat = rng_q.standard_normal((8, 8))
        problem = QpProblem(
            q_matrix=mat @ mat.T + 8 * np.eye(8),
            q_vector=rng_q.standard_normal(8),
            ineq_matrix=rng_q.standard_normal((5, 8)),
            ineq_vector=rng_q.standard_normal(5) - 2.0,
        )
        result = solve_qp(problem, tol=1e-9)
        ok = ok and result.status is QpStatus.OPTIMAL and result.kkt.max <= 1e-9
        kkt_worst = max(kkt_worst, result.kkt.max)

    # full problem validation with 1000 trials each
    for name, prob in (("toy", toy), ("quadratic", quad), ("mksvm", mksvm),
                       ("fairness", fairness)):
        report = validate_problem(prob, trials=1000, seed=SEED)
        ok = ok and report.ok

    _report(6, "prox oracles, metric properties, QP KKT residuals", ok,
            f"worst oracle violation {worst_oracle:.2e}, worst prox inequality {worst_gap:.2e}, "
            f"worst KKT {kkt_worst:.2e}")


TABLE_TSA = {
    "breast-cancer": 97.45,
    "heart-disease": 82.78,
    "ionosphere": 93.24,
    "sonar": 85.95,
}


def test_criterion_7_mksvm_accuracy():
    started = time.perf_counter()
    ok = True
    details = []
    for name, target in TABLE_TSA.items():
        data = _dataset(name)
        report = mksvm_experiment(data, variant="c1", seed=SEED, runs=12,
                                  checkpoints=(250, 500, 1000, 1500, 2000))
        tsa = report.records[-1].tsa
        details.append(f"{name} {tsa:.2f} (target {target})")
        ok = ok and abs(tsa - target) <= 4.0
    elapsed = time.perf_counter() - started
    ok = ok and elapsed <= 600.0
    _report(7, "multi-kernel SVM accuracy", ok,
            "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_8_fairness_accuracy():
    data = _dataset("heart-disease")
    ok = True
    details = []
    targets = {"sex": 85.93, "age": 86.67}
    for grouping, target in targets.items():
        config = fairness_experiment(data, grouping=grouping, seed=SEED, partitions=5,
                                     checkpoints=(100, 500, 1000)).config
        cell, plain = config["with_fairness"]["1000"], config["without_fairness"]["1000"]
        overall = cell["overall"]
        ok = ok and abs(overall - target) <= 4.0
        group_keys = [key for key in cell if key.startswith("group")]
        min_with = min(cell[key] for key in group_keys)
        min_without = min(plain[key] for key in group_keys)
        ok = ok and min_with >= min_without - 1.0
        details.append(
            f"{grouping}: overall {overall:.2f} (target {target}), "
            f"min-group with {min_with:.2f} vs without {min_without:.2f}"
        )
    _report(8, "minimax-fairness accuracy and worst-group property", ok,
            "; ".join(details))


def test_criterion_9_fixed_point_residual():
    toy = random_toy_problem(250, 350, 0.3, make_rng(SEED, 91))
    quad_rng = make_rng(SEED, 92)
    a = quad_rng.standard_normal((40, 40))
    a /= np.linalg.svd(a, compute_uv=False)[0]
    quad = QuadraticSaddleProblem(a, quad_rng.standard_normal(40),
                                  quad_rng.standard_normal(40), mu=1.0, nu=1.0)
    worst = 0.0
    for prob in (toy, quad):
        saddle = prob.saddle_point()
        kind = default_adaptive(prob.constants)
        sched = make_schedule(kind, prob.constants)
        state = SolverState.initial(prob, *saddle)
        new = step(prob, state, sched)
        worst = max(worst,
                    float(np.linalg.norm(new.x - saddle[0])),
                    float(np.linalg.norm(new.y - saddle[1])))
    _report(9, "fixed point at known saddle points", worst <= 1e-9,
            f"max displacement {worst:.2e}")
