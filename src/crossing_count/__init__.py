"""Exact enumeration and growth analysis of k-noncrossing structures
with minimum arc length 3.

Counting is exact (arbitrary-precision integers), generating-function
identities are verified with exact integer series, and the growth
constants rho_k and 1/rho_k are the floats nearest the roots of an
integer quartic, by bisection with exact integer signs; the other
quartic roots come from Aberth-Ehrlich iteration on the quartic's
integer coefficients, with multiple roots split off exactly.

Importing the package loads none of its modules, so each CLI command
starts with only the layers it runs.  It defines BudgetExceededError,
which every layer raises and counting and oracle re-export, and U and W,
the one statement of the arc-length-3 substitution: the functional check
reads them, and so does every growth constant, evaluated exactly on
integers and rounded once.  Import the module you need:

- counting: f_k(n, 0), T_k(n), the Catalan numbers;
- walks: the walk DP behind f_k(2m, 0) for a k with no recurrence;
- structures: lam(n, b) and the structure counts S_{k,3}(n);
- asymptotics: the root finder, growth constants, asymptotic factors;
- powerseries: truncated series and the identity checks;
- oracle: brute-force enumeration;
- cli: the command-line parser, exit codes and shared output helpers;
- commands: one handler module per subcommand, which cli.main imports
  only for the command it runs.
"""


class BudgetExceededError(Exception):
    """Raised when a request would pass a deterministic size bound: the walk
    frontier, the lam row, the series order or the oracle's search size."""


# The paper's functional equation: sum S_{k,3}(n) x^n = (1/u) F_k(w/u), with
# u = 1 - x + x^2 + x^3 - x^4 and w = x - x^3; coefficients lowest degree first.
U = (1, -1, 1, 1, -1)
W = (0, 1, 0, -1)
