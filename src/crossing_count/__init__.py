"""Exact enumeration and growth analysis of k-noncrossing structures
with minimum arc length 3.

Counting is exact (arbitrary-precision integers), generating-function
identities are verified with exact series (integer ones, and rational
only for the Bessel-determinant EGF), and the growth
constants come from closed-form quartic solving plus Newton refinement.

Importing the package loads none of its modules, so each CLI command
starts with only the layers it runs.  Import the one you need:

- counting: f_k(n, 0), T_k(n), the Catalan numbers, BudgetExceededError;
- structures: lam(n, b) and the structure counts S_{k,3}(n);
- asymptotics: the quartic solver, growth constants, asymptotic factors;
- powerseries: truncated series and the identity checks;
- oracle: brute-force enumeration;
- cli: the command-line front end.
"""
