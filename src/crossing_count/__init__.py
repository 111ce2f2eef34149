"""Exact enumeration and growth analysis of k-noncrossing structures
with minimum arc length 3.

Counting is exact (arbitrary-precision integers), generating-function
identities are verified with exact series (integer ones, and rational
only for the Bessel-determinant EGF), and the growth
constants come from closed-form quartic solving plus Newton refinement.
"""

from .counting import catalan, fk_closed_form_k3, fk_partial, fk_perfect, tk_total
from .oracle import BudgetExceededError, Diagram, EnumSpec, crossing_number, enumerate_count
from .powerseries import TruncatedSeries
from .structures import LambdaTable, lambda_weight, s_k3, s_k3_by_isolated

__all__ = [
    "BudgetExceededError",
    "Diagram",
    "EnumSpec",
    "LambdaTable",
    "TruncatedSeries",
    "catalan",
    "crossing_number",
    "enumerate_count",
    "fk_closed_form_k3",
    "fk_partial",
    "fk_perfect",
    "lambda_weight",
    "s_k3",
    "s_k3_by_isolated",
    "tk_total",
]
