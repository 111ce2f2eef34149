"""Seeded command lists for each workload, and the correctness gate.

A workload is a fixed list of `crossing-count` command lines.  The seed
only picks the concrete sizes, from ranges chosen so that every seed does
the same amount of work (see README.md).  Each command carries a check
that reads its stdout and returns a problem description, or None.

The gate compares exact integers with golden values (golden.json, made
and cross-checked by make_golden.py) and floats with tolerances derived
from those exact values, never with stdout digests, so an intended change
of float output (for example an exact radius for k >= 4) still passes.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# k3_counts: N in (128, 256).  s_k3 asks for f_3(0) first and then up to N,
# so any such N grows the f_3 table by doubling to exactly 256 rows.  Taking
# N from the top sixteenth of the range keeps the O(N^2) sums within 6% of
# each other across seeds.  The sizes are kept small so that a run holds
# a dozen passes or more (README.md, "Steadiness").
K3_N = range(248, 256)
# N - L for `count --ell L`: that query builds the f_3 table to exactly
# N - L rows, so a fixed gap fixes its cost.
K3_ELL_GAP = 200
TABLE_STEP = 10
# highk_identities, counting half: both commands ask for f_k(2m) with 2m <= n, so every n in
# 66..128 grows the f_k table to 128 rows and every n in 34..64 to 64; the
# seed does not move the DP cost.
HIGHK_COUNT_N = {4: range(66, 129), 5: range(34, 65), 6: range(34, 65)}
HIGHK_GROWTH_N = {4: range(34, 65), 5: range(34, 65), 6: range(34, 65)}
# highk_identities, identity half: truncation orders per k, and the oracle size.
VERIFY_ORDER = {3: 60, 4: 40, 5: 30}
ORACLE_N = 12
ORACLE_K = (3, 4)
# make_golden.py checks the oracle against the counts up to this size
ORACLE_CHECK_N = 14

# Reference constants the CLI uses by default (README "Asymptotics").
KPRIME = 6.11170
BASE_K3 = 4.54920

WORKLOADS = ("k3_counts", "highk_identities")


@dataclass(frozen=True)
class Command:
    """One CLI invocation (arguments after `crossing-count`) and its gate."""

    argv: tuple[str, ...]
    check: Callable[[str], str | None]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def load_golden() -> dict:
    """Golden counts with integer keys and values."""
    raw = json.loads(GOLDEN_PATH.read_text())

    def ints(table: dict) -> dict[int, int]:
        return {int(key): int(value) for key, value in table.items()}

    return {
        "s3": ints(raw["s3"]),
        "s3_ell": ints(raw["s3_ell"]),
        "sk": {int(k): ints(table) for k, table in raw["sk"].items()},
        "oracle": {int(k): ints(hist) for k, hist in raw["oracle"].items()},
    }


def build_commands(workload: str, seed: int, golden: dict, cache_path: str) -> list[Command]:
    """The workload's command list for this seed; same seed, same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "k3_counts":
        n = rng.choice(K3_N)
        ell = n - K3_ELL_GAP
        table = ("table", "--n-max", str(n), "--step", str(TABLE_STEP), "--cache", cache_path)
        table_check = _check_table(golden["s3"], n, TABLE_STEP)
        return [
            Command(("count", "--k", "3", "--n", str(n)), _check_int(golden["s3"][n])),
            Command(
                ("count", "--k", "3", "--n", str(n), "--ell", str(ell)),
                _check_int(golden["s3_ell"][n]),
            ),
            Command(("asym", "--n", str(n), "--n-max", str(n)), _check_asym(golden["s3"], n)),
            Command(table, table_check),
            Command(table, table_check),  # same cache file, now warm
        ]
    if workload == "highk_identities":
        counts = [(k, rng.choice(sizes)) for k, sizes in HIGHK_COUNT_N.items()]
        growths = [(k, rng.choice(sizes)) for k, sizes in HIGHK_GROWTH_N.items()]
        verifies = [
            Command(
                ("verify", "--which", "all", "--k", str(k), "--order", str(order)),
                _check_verify(k, order),
            )
            for k, order in VERIFY_ORDER.items()
        ]
        oracles = [
            Command(
                (
                    "oracle", "--n", str(ORACLE_N), "--k", str(k), "--by-isolated",
                    "--shuffle-seed", str(rng.randrange(2**31)),
                ),
                _check_histogram(golden["oracle"][k]),
            )
            for k in ORACLE_K
        ]
        return (
            [
                Command(("count", "--k", str(k), "--n", str(n)), _check_int(golden["sk"][k][n]))
                for k, n in counts
            ]
            + [
                Command(("growth", "--k", str(k), "--n-max", str(n)), _check_growth(k))
                for k, n in growths
            ]
            + verifies
            + oracles
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ------------------------------------------------------------ exact values

def scaled(count: int, base: float, n: int) -> float:
    """count / base^n, rounded once from the exact rational."""
    return float(Fraction(count) / Fraction(base) ** n)


def falling5(n: int) -> int:
    return n * (n - 1) * (n - 2) * (n - 3) * (n - 4)


def subexp(n: int) -> float:
    return KPRIME * 24 / falling5(n)


def smallest_root(r) -> float:
    """Smallest z in (0, 0.7) with (z - z^3) = r (1 - z + z^2 + z^3 - z^4).

    This is rho_k for radius r_k.  A Fraction r is solved by exact
    bisection, so rho_3 comes straight from the quartic
    z^4 - 5z^3 - z^2 + 5z - 1 without floating-point error.
    """

    def q(z):
        return (z - z**3) - r * (1 - z + z * z + z**3 - z**4)

    step = Fraction(1, 1000) if isinstance(r, Fraction) else 1e-3
    grid = [i * step for i in range(701)]
    lo, hi = next((a, b) for a, b in zip(grid, grid[1:]) if (q(a) < 0) != (q(b) < 0))
    for _ in range(100):
        mid = (lo + hi) / 2
        if (q(lo) < 0) == (q(mid) < 0):
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


RHO_K3 = smallest_root(Fraction(1, 4))


def kprime_value(count: int, n: int) -> float:
    """K'(n) = S(n) rho_3^n n(n-1)...(n-4) / 4!."""
    return math.exp(math.log(count) + n * math.log(RHO_K3) + math.log(falling5(n)) - math.log(24))


# ------------------------------------------------------------ checks

def gate(command: Command, exit_code: int, out: str) -> str | None:
    """Why this run of the command fails the gate, or None if it passes."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        return command.check(out)
    except Exception as exc:  # any unreadable output is a failed command
        return f"unreadable output: {exc!r}"


def _close(value: float, expected: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(value - expected) <= max(rel * abs(expected), abs_)


def _check_int(expected: int) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        text = out.strip()
        return None if text == str(expected) else f"count {text[:30]} is not the golden value"

    return check


def _check_table(s3: dict[int, int], n_max: int, step: int) -> Callable[[str], str | None]:
    # text output keeps 4 significant digits: relative rounding <= 5e-4
    def check(out: str) -> str | None:
        lines = out.splitlines()
        if not _close(float(lines[0].removeprefix("base = ")), BASE_K3, 1e-9):
            return f"table: {lines[0]!r}"
        rows = [line.split() for line in lines[2:]]
        wanted = list(range(step, n_max + 1, step))
        if [int(row[0]) for row in rows] != wanted:
            return f"table: rows {[row[0] for row in rows]} are not {wanted}"
        for n_text, exact, asym in rows:
            n = int(n_text)
            if not _close(float(exact), scaled(s3[n], BASE_K3, n), 1e-3):
                return f"table: exact factor {exact} wrong at n={n}"
            if not _close(float(asym), subexp(n), 1e-3):
                return f"table: asymptotic factor {asym} wrong at n={n}"
        return None

    return check


def _check_asym(s3: dict[int, int], n: int) -> Callable[[str], str | None]:
    # floats carry 6 significant digits or 6 decimals
    exact, asym = scaled(s3[n], BASE_K3, n), subexp(n)
    raw, half = kprime_value(s3[n], n), kprime_value(s3[n // 2], n // 2)

    def check(out: str) -> str | None:
        got = dict(line.split(" = ", 1) for line in out.splitlines())
        log10_count = math.log10(asym) + n * math.log10(BASE_K3)
        checks = {
            "n": int(got["n"]) == n,
            "base": _close(float(got["base"]), BASE_K3, 1e-9),
            "count": got["count"] == str(s3[n]),
            "exact_factor": _close(float(got["exact_factor"]), exact, 1e-5),
            "asymptotic_factor": _close(float(got["asymptotic_factor"]), asym, 1e-5),
            "asymptotic_count_log10": _close(
                float(got["asymptotic_count_log10"]), log10_count, 0, 2e-6
            ),
            "ratio": _close(float(got["ratio"]), exact / asym, 1e-5, 2e-6),
            "kprime_raw": _close(float(got["kprime_raw"]), raw, 0, 2e-6),
            # a better extrapolation may move the estimate, but not far from the tail
            "kprime_estimate": abs(float(got["kprime_estimate"]) - raw)
            <= 3 * abs(raw - half) + 1e-6,
            "kprime_n_max": int(got["kprime_n_max"]) == n,
        }
        bad = [name for name, ok in checks.items() if not ok]
        return f"asym: wrong {', '.join(bad)}" if bad else None

    return check


def _check_growth(k: int) -> Callable[[str], str | None]:
    """r_k near 1/(2(k-1)); rho, growth rate and singularities consistent with r_k."""
    exact_r = 1 / (2 * (k - 1))

    def field(pattern: str, out: str) -> float:
        return float(re.search(pattern, out, re.M).group(1))

    def check(out: str) -> str | None:
        r = field(r"^r_k = (\S+)", out)
        rho = field(r"^rho_k = (\S+)", out)
        rate = field(r"^growth rate 1/rho_k = (\S+)", out)
        residual = field(r"^residual \S+ = (\S+)", out)
        sing = [
            complex(float(x), float(y)) for x, y in re.findall(r"^  (\S+) (\S+)i$", out, re.M)
        ]
        # the ratio estimates at these depths are off by at most 0.72% (k = 6, n-max 36)
        if not _close(r, exact_r, 2e-2):
            return f"growth: r_k = {r} is not near {exact_r}"
        if not _close(rho, smallest_root(r), 0, 1e-9):
            return f"growth: rho_k = {rho} is not the smallest root for r_k = {r}"
        if not _close(rate, 1 / rho, 1e-9):
            return f"growth: growth rate {rate} is not 1/rho_k"
        if not residual <= 1e-9:
            return f"growth: residual {residual} too large"
        if len(sing) != 8:
            return f"growth: {len(sing)} singularities, expected 8"
        for z in sing:
            u = 1 - z + z * z + z**3 - z**4
            # printed to 6 decimals; the slack grows with the quartic's slope
            if min(abs((z - z**3) - s * r * u) for s in (1, -1)) > 1e-5 * (1 + abs(z)) ** 4:
                return f"growth: {z} is not a singularity for r_k = {r}"
        return None

    return check


def _check_verify(k: int, order: int) -> Callable[[str], str | None]:
    required = {f"laplace(k={k})", f"functional(k={k})", f"bessel-egf(k={k})"}
    required |= {f"phi(n={n})" for n in range(6)}

    def check(out: str) -> str | None:
        seen = set()
        for line in out.splitlines():
            name, _, verdict = line.partition(": ")
            if verdict != f"holds to order {order}":
                return f"verify: {line!r}"
            seen.add(name)
        missing = required - seen
        return f"verify: no report for {sorted(missing)}" if missing else None

    return check


def _check_histogram(expected: dict[int, int]) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        got = {int(a): int(b) for a, b in (line.split() for line in out.splitlines())}
        return None if got == expected else f"oracle: histogram {got} != {expected}"

    return check
