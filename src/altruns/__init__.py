"""Exact counting of permutations of 1..n by their number of alternating runs.

Four independent routes to the triangle P(n, s): brute-force enumeration, the
classical row recurrence, rational generating functions per column, and the
closed formula built from their partial fractions. A fifth angle, the
injective map into ordered block tuples, rederives the leading constant by
exhaustive census.
"""
from .bijection import image_census, permutation_to_settuple, phi, reconstruct
from .closed_form import evaluate_closed_form, formula_from_pfd, k_constant, psi_from_recurrence
from .genfun import build_us
from .run_counts import (
    andre_column,
    andre_triangle,
    brute_force_row,
    count_runs,
    log_concavity_check,
    run_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "andre_column",
    "andre_triangle",
    "brute_force_row",
    "build_us",
    "count_runs",
    "evaluate_closed_form",
    "formula_from_pfd",
    "image_census",
    "k_constant",
    "log_concavity_check",
    "permutation_to_settuple",
    "phi",
    "psi_from_recurrence",
    "reconstruct",
    "run_polynomial",
    "__version__",
]
