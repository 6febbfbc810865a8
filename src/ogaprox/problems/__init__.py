"""Concrete saddle-point problems."""

from .fairness import FairnessProblem
from .mksvm import (
    MkSvmPrediction,
    MkSvmProblem,
    gaussian_kernel,
    linear_kernel,
    mksvm_predict,
    normalize_kernel,
    polynomial_kernel,
)
from .quadratic import QuadraticSaddleProblem
from .toy import ToyProblem, random_toy_problem

__all__ = [
    "FairnessProblem",
    "MkSvmPrediction",
    "MkSvmProblem",
    "QuadraticSaddleProblem",
    "ToyProblem",
    "random_toy_problem",
    "gaussian_kernel",
    "linear_kernel",
    "mksvm_predict",
    "normalize_kernel",
    "polynomial_kernel",
]
