"""Write golden.json: the exact counts the benchmark's gate compares against.

Run once, from the repository root, when the workload ranges change:

    PYTHONPATH=src python3 perfbench/make_golden.py

Each value comes from the package's production path and is cross-checked
against independent routes before anything is written:

- k = 3: f_3 from the Catalan closed form, fed through a signed sum coded
  here, reproduces every S_{3,3}(n) and S_{3,3}(N, L);
- k >= 4: the Bessel-determinant EGF reproduces f_k, and the functional
  equation ties S_{k,3} to that f_k, up to the largest n stored;
- every k: the brute-force oracle matches S_{k,3}(n) for n <= 14 (ORACLE_CHECK_N), with
  the histogram by isolated vertices.
"""

from __future__ import annotations

import json
import math
import sys

from crossing_count import counting, oracle, powerseries, structures

import workloads as wl


def _lambda_rows(n_max: int) -> list[list[int]]:
    """lam(n, b) from its four-term recursion, independently of structures.py."""
    rows: list[list[int]] = []

    def get(n: int, b: int) -> int:
        return rows[n][b] if n >= 0 and 0 <= b and 2 * b <= n else 0

    for n in range(n_max + 1):
        rows.append([1] + [0] * (n // 2))
        for b in range(1, n // 2 + 1):
            rows[n][b] = get(n - 1, b) + get(n - 2, b - 1) + get(n - 3, b - 1) + get(n - 4, b - 2)
    return rows


def _closed_form_s3(n_max: int, ells: dict[int, int]) -> tuple[list[int], dict[int, int]]:
    """S_{3,3}(n) for n <= n_max, and S_{3,3}(N, ells[N]), from the Catalan closed form."""
    f = [counting.fk_closed_form_k3(m) if m % 2 == 0 else 0 for m in range(n_max + 1)]
    t = [sum(math.comb(n, m) * f[m] for m in range(0, n + 1, 2)) for n in range(n_max + 1)]
    lam = _lambda_rows(n_max)
    s = [
        sum((-1) ** b * lam[n][b] * t[n - 2 * b] for b in range(n // 2 + 1))
        for n in range(n_max + 1)
    ]
    s_ell = {
        n: sum(
            (-1) ** b * lam[n][b] * math.comb(n - 2 * b, ell) * f[n - 2 * b - ell]
            for b in range((n - ell) // 2 + 1)
        )
        for n, ell in ells.items()
    }
    return s, s_ell


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")


def build() -> dict:
    n3 = max(wl.K3_N)
    ells = {n: n - wl.K3_ELL_GAP for n in wl.K3_N}
    s3 = [structures.s_k3(3, n) for n in range(n3 + 1)]
    s3_ell = {n: structures.s_k3_by_isolated(3, n, ell) for n, ell in ells.items()}
    closed, closed_ell = _closed_form_s3(n3, ells)
    _require(s3 == closed, "S_{3,3}(n) against the Catalan closed form")
    _require(s3_ell == closed_ell, "S_{3,3}(N, L) against the Catalan closed form")

    sk = {}
    for k in sorted(set(wl.HIGHK_COUNT_N)):
        top = max(wl.HIGHK_COUNT_N[k])
        for report in (
            powerseries.verify_bessel_egf(k, top),
            powerseries.verify_functional_equation(k, top),
        ):
            _require(report.ok, report.describe())
        sk[k] = {n: structures.s_k3(k, n) for n in wl.HIGHK_COUNT_N[k]}

    hist = {}
    for k in sorted({3, *wl.ORACLE_K, *wl.HIGHK_COUNT_N}):
        for n in range(wl.ORACLE_CHECK_N + 1):
            spec = oracle.EnumSpec(n=n, max_crossing=k, min_arc_length=3, by_isolated=True)
            found = oracle.enumerate_count(spec)
            exact = {ell: structures.s_k3_by_isolated(k, n, ell) for ell in range(n + 1)}
            _require(
                found == {ell: c for ell, c in exact.items() if c}
                and sum(found.values()) == structures.s_k3(k, n),
                f"oracle against S_{{{k},3}}({n})",
            )
            if n == wl.ORACLE_N and k in wl.ORACLE_K:
                hist[k] = found

    def text(table: dict) -> dict[str, str]:
        return {str(key): str(value) for key, value in sorted(table.items())}

    return {
        "s3": text(dict(enumerate(s3))),
        "s3_ell": text(s3_ell),
        "sk": {str(k): text(table) for k, table in sk.items()},
        "oracle": {str(k): text(table) for k, table in hist.items()},
    }


def main() -> int:
    golden = build()
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {wl.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
