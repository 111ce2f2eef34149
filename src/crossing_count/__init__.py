"""Exact enumeration and growth analysis of k-noncrossing structures
with minimum arc length 3.

Counting is exact (arbitrary-precision integers), generating-function
identities are verified with exact integer series, and the growth
constants come from closed-form quartic solving plus Newton refinement,
with rho_k and 1/rho_k rounded once from exact integer arithmetic.

Importing the package loads none of its modules, so each CLI command
starts with only the layers it runs.  It defines BudgetExceededError,
which every layer raises and counting and oracle re-export.  Import the
module you need:

- counting: f_k(n, 0), T_k(n), the Catalan numbers;
- structures: lam(n, b) and the structure counts S_{k,3}(n);
- asymptotics: the quartic solver, growth constants, asymptotic factors;
- powerseries: truncated series and the identity checks;
- oracle: brute-force enumeration;
- cli: the command-line front end.
"""


class BudgetExceededError(Exception):
    """Raised when a request would pass a deterministic size bound: the walk
    frontier, the lam row, the series order or the oracle's search size."""
