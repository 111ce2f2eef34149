"""Batch command-line front end.

Subcommands: count (exact structure counts), table (subexponential
factor table), growth (radius, dominant singularity, growth rate),
asym (asymptotic vs exact factor at one n), verify (generating-function
identity checks), oracle (brute-force enumeration), roots (quartic
solver).  Output is text, CSV (RFC-4180-ish, header row, LF endings) or
JSON; exact counts are always serialized as decimal strings, never as
floating point.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 budget
refusal, and 141 (128 + SIGPIPE) from the process entry point,
crossing_count.__main__.run, when the reader closed stdout early
(after --help too).
Ranges are checked where the library takes its arguments; the
ValueError it raises is reported as a usage error.  A persistent count
cache of structure counts (CSV: kind,k,n,ell,value, kind always S) can be
given via --cache or the CROSSING_COUNT_CACHE environment variable; it
is append-only, validated on load, and ignored with a warning when
corrupt or unwritable, since every entry is re-derivable.

Each command imports the modules it runs when it runs (count loads only
counting and structures, roots only asymptotics), and csv and json only
for their --format or the cache, so a command does not pay the start-up
cost of the layers it skips.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import BudgetExceededError

CACHE_ENV_VAR = "CROSSING_COUNT_CACHE"
CACHE_HEADER = ["kind", "k", "n", "ell", "value"]
CACHE_KIND = "S"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141


class CountCache:
    """Append-only CSV store of exact counts S_{k,3}(n), keyed (k, n, ell)."""

    def __init__(self, path: str):
        self.path = path
        self.entries: dict[tuple[int, int, int | None], int] = {}
        self._needs_rewrite = False
        self._writable = True
        self._load()

    def _load(self) -> None:
        import csv

        if not os.path.exists(self.path):
            return
        try:
            with open(self.path, newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header != CACHE_HEADER:
                    raise ValueError(f"bad header {header!r}")
                for row in reader:
                    kind, k, n, ell, value = row
                    if kind != CACHE_KIND:
                        raise ValueError(f"unknown kind {kind!r}")
                    self.entries[(int(k), int(n), int(ell) if ell else None)] = int(value)
        except (OSError, ValueError, csv.Error) as exc:
            print(
                f"warning: ignoring corrupt cache {self.path}: {exc}",
                file=sys.stderr,
            )
            self.entries = {}
            self._needs_rewrite = True

    def get(self, k: int, n: int, ell: int | None = None) -> int | None:
        return self.entries.get((k, n, ell))

    def put(self, k: int, n: int, ell: int | None, value: int) -> None:
        """Record a count; a cache file that cannot be written is warned
        about once and then left alone, since the count itself is fine."""
        import csv

        key = (k, n, ell)
        if key in self.entries:
            return
        self.entries[key] = value
        if not self._writable:
            return
        rewrite = self._needs_rewrite or not os.path.exists(self.path)
        rows = [(key, value)]
        if rewrite:
            rows = sorted(self.entries.items(), key=lambda item: str(item[0]))
        try:
            with open(self.path, "w" if rewrite else "a", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                if rewrite:
                    writer.writerow(CACHE_HEADER)
                writer.writerows([CACHE_KIND, kk, nn, el, val] for (kk, nn, el), val in rows)
        except OSError as exc:
            print(f"warning: not writing cache {self.path}: {exc}", file=sys.stderr)
            self._writable = False
            return
        self._needs_rewrite = False


def _open_cache(args) -> CountCache | None:
    path = args.cache or os.environ.get(CACHE_ENV_VAR)
    return CountCache(path) if path else None


def _structure_count(k: int, n: int, ell: int | None, cache: CountCache | None) -> int:
    from . import structures

    value = None if cache is None else cache.get(k, n, ell)
    if value is None:
        value = structures.s_k3(k, n) if ell is None else structures.s_k3_by_isolated(k, n, ell)
        if cache is not None:
            cache.put(k, n, ell, value)
    return value


def _base(args) -> float:
    """The --base value (default: the paper's growth rate for k = 3), or the
    computed growth rate 1/rho_3 under --computed-base.

    --base must be finite and positive even when --computed-base replaces it.
    """
    from . import asymptotics

    base = asymptotics.GROWTH_RATE_K3 if args.base is None else args.base
    if not (math.isfinite(base) and base > 0):
        raise ValueError(f"--base must be finite and positive, got {base}")
    if args.computed_base:
        return asymptotics.compute_rho(3).growth_rate
    return base


def _emit(fmt: str, payload: dict, records: list[dict], text: list[str]) -> None:
    """Write one result: JSON is the payload, CSV the records under a header
    of the first record's keys (None as an empty field), text the lines."""
    if fmt == "json":
        import json

        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(records[0])
        writer.writerows(record.values() for record in records)
    else:
        sys.stdout.write("".join(line + "\n" for line in text))


def _sci(x: float, digits: int) -> str:
    return f"{x:.{digits - 1}e}"


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


# ---------------------------------------------------------------- count

def cmd_count(args) -> int:
    value = _structure_count(args.k, args.n, args.ell, _open_cache(args))
    payload = {"k": args.k, "n": args.n, "ell": args.ell, "count": str(value)}
    _emit(args.format, payload, [payload], [str(value)])
    return EXIT_OK


# ---------------------------------------------------------------- table

def cmd_table(args) -> int:
    if args.step < 1 or args.n_max < args.step:
        return _fail_usage(f"need n_max >= step >= 1, got n_max={args.n_max}, step={args.step}")
    if args.digits < 1:
        return _fail_usage(f"table needs --digits >= 1, got {args.digits}")
    from . import asymptotics

    base = _base(args)
    cache = _open_cache(args)
    records, text = [], [f"base = {base:.10g}", f"{'n':>6}  {'exact':>14}  {'asymptotic':>14}"]
    ns = range(args.step, args.n_max + 1, args.step)
    # largest n first: a row past a table's bound is refused before any is computed or cached
    counts = {n: _structure_count(3, n, None, cache) for n in reversed(ns)}
    for n in ns:
        exact = asymptotics.scaled_count(counts[n], base, n)
        asym = asymptotics.subexp_factor(n) if n >= 5 else None
        records.append(
            {
                "n": n,
                "exact_factor": _sci(exact, 6),
                "asymptotic_factor": None if asym is None else _sci(asym, 6),
            }
        )
        right = "-" if asym is None else _sci(asym, args.digits)
        text.append(f"{n:>6}  {_sci(exact, args.digits):>14}  {right:>14}")
    _emit(args.format, {"base": f"{base:.10g}", "rows": records}, records, text)
    return EXIT_OK


# ---------------------------------------------------------------- growth

def cmd_growth(args) -> int:
    from . import asymptotics

    report = asymptotics.compute_rho(args.k)
    sing = asymptotics.singularities_for_radius(report.radius, report.rho)
    payload = {
        "k": args.k,
        "r_k": report.radius,
        "r_k_exact": True,
        "r_k_error": 0.0,
        "rho": report.rho,
        "growth_rate": report.growth_rate,
        "residual": report.residual,
        "singularities": [{"re": z.real, "im": z.imag} for z in sing],
    }
    records = [
        {"quantity": "r_k", "value_re": f"{report.radius:.12g}", "value_im": ""},
        {"quantity": "rho", "value_re": f"{report.rho:.12g}", "value_im": ""},
        {"quantity": "growth_rate", "value_re": f"{report.growth_rate:.12g}", "value_im": ""},
        {"quantity": "residual", "value_re": f"{report.residual:.3e}", "value_im": ""},
    ] + [
        {"quantity": f"singularity_{i}", "value_re": f"{z.real:.12g}", "value_im": f"{z.imag:.12g}"}
        for i, z in enumerate(sing, 1)
    ]
    text = [
        f"k = {args.k}",
        f"r_k = {report.radius:.10g} (exact)",
        f"rho_k = {report.rho:.10f}",
        f"growth rate 1/rho_k = {report.growth_rate:.10f}",
        f"residual |theta(rho)-r_k| = {report.residual:.3e}",
        "induced singularities:",
    ] + [
        f"  {z.real:+.6f} {z.imag:+.6f}i"
        for z in sorted(sing, key=lambda w: (round(w.real, 9), w.imag))
    ]
    _emit(args.format, payload, records, text)
    return EXIT_OK


# ---------------------------------------------------------------- asym

def cmd_asym(args) -> int:
    from . import asymptotics

    base = _base(args)
    # the larger n first: a row past a table's bound is refused before any is computed
    report = None
    if args.n_max is not None and args.n_max > args.n:
        report = asymptotics.estimate_kprime(args.n_max)
    count = _structure_count(3, args.n, None, _open_cache(args))
    exact = asymptotics.scaled_count(count, base, args.n)
    asym = asymptotics.subexp_factor(args.n) if args.n >= 5 else None
    payload = {
        "n": args.n,
        "base": f"{base:.10g}",
        "count": str(count),
        "exact_factor": _sci(exact, 6),
        "asymptotic_factor": None if asym is None else _sci(asym, 6),
        # log-scaled, since asym * base^n overflows floats long before n is large
        "asymptotic_count_log10": (
            None if asym is None else f"{math.log10(asym) + args.n * math.log10(base):.6f}"
        ),
        "ratio": None if asym is None else f"{exact / asym:.6f}",
    }
    if args.n_max is not None:
        if report is None:
            report = asymptotics.estimate_kprime(args.n_max)
        payload["kprime_raw"] = f"{report.raw_last:.6f}"
        payload["kprime_estimate"] = f"{report.estimate:.6f}"
        payload["kprime_limit"] = f"{asymptotics.singular_constants_check().kprime_limit:.6f}"
        payload["kprime_n_max"] = args.n_max
    text = [f"{key} = {'-' if value is None else value}" for key, value in payload.items()]
    _emit(args.format, payload, [payload], text)
    return EXIT_OK


# ---------------------------------------------------------------- verify

def _verification_reports(which: str, k: int, order: int | None):
    from . import powerseries

    default_order = 30 if k == 3 else 20
    bessel_order = 16 if k == 3 else 12
    # the Bessel check runs first, so its bound on k refuses before any other
    # check grows a table; its report still comes last
    bessel = []
    if which in ("bessel", "all"):
        bessel.append(powerseries.verify_bessel_egf(k, order or bessel_order))
    reports = []
    if which in ("laplace", "all"):
        reports.append(powerseries.verify_laplace_identity(k, order or default_order))
    if which in ("functional", "all"):
        reports.append(powerseries.verify_functional_equation(k, order or default_order))
    if which in ("phi", "all"):
        for n in range(6):
            reports.append(powerseries.verify_phi_identity(n, order or 15))
    return reports + bessel


def cmd_verify(args) -> int:
    if args.k < 3:
        return _fail_usage(f"verify needs --k >= 3, got {args.k}")
    if args.order is not None and args.order < 1:
        return _fail_usage(f"verify needs --order >= 1, got {args.order}")
    reports = _verification_reports(args.which, args.k, args.order)
    ok = all(r.ok for r in reports)
    checks = [
        {"name": r.name, "order": r.order, "ok": r.ok, "first_mismatch": r.first_mismatch}
        for r in reports
    ]
    _emit(args.format, {"ok": ok, "checks": checks}, checks, [r.describe() for r in reports])
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------- oracle

def cmd_oracle(args) -> int:
    from . import oracle

    spec = oracle.EnumSpec(
        n=args.n,
        max_crossing=args.k,
        min_arc_length=args.min_arc,
        by_isolated=args.by_isolated,
        budget=oracle.DEFAULT_BUDGET if args.budget is None else args.budget,
    )
    rng = None
    if args.shuffle_seed is not None:
        import random

        rng = random.Random(args.shuffle_seed)
    result = oracle.enumerate_count(spec, branch_rng=rng)
    payload = {"n": args.n, "k": args.k, "min_arc_length": args.min_arc}
    if args.by_isolated:
        items = sorted(result.items())
        payload["histogram"] = {str(ell): str(cnt) for ell, cnt in items}
        payload["total"] = str(sum(result.values()))
        records = [{"ell": ell, "count": cnt} for ell, cnt in items]
        text = [f"{ell} {cnt}" for ell, cnt in items]
    else:
        payload["count"] = str(result)
        records, text = [payload], [str(result)]
    _emit(args.format, payload, records, text)
    return EXIT_OK


# ---------------------------------------------------------------- roots

def cmd_roots(args) -> int:
    from . import asymptotics

    problem = asymptotics.QuarticProblem(*args.coeffs)
    roots = sorted(
        asymptotics.solve_quartic(problem), key=lambda z: (round(z.real, 12), z.imag)
    )
    payload = {
        "coefficients": list(args.coeffs),
        "roots": [{"re": z.real, "im": z.imag, "residual": problem.residual(z)} for z in roots],
    }
    records = [
        {"re": f"{z.real:.15g}", "im": f"{z.imag:.15g}", "residual": f"{problem.residual(z):.3e}"}
        for z in roots
    ]
    text = [
        f"{z.real:+.12f} {z.imag:+.12f}i   residual {problem.residual(z):.3e}" for z in roots
    ]
    _emit(args.format, payload, records, text)
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _add_common(parser: argparse.ArgumentParser, cache: bool = False) -> None:
    parser.add_argument(
        "--format", choices=("text", "csv", "json"), default="text", help="output format"
    )
    if cache:
        parser.add_argument(
            "--cache",
            default=None,
            help=f"persistent count cache path (default: ${CACHE_ENV_VAR})",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossing-count",
        description="Exact counts and growth constants of k-noncrossing "
        "structures with minimum arc length 3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact structure count S_{k,3}(n)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, default=None, help="fix the number of isolated vertices")
    _add_common(p, cache=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", help="subexponential factor table for k = 3")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--step", type=int, default=10)
    p.add_argument("--base", type=float, default=None, help="default: the paper's 1/rho_3")
    p.add_argument(
        "--computed-base",
        action="store_true",
        help="use the computed growth rate 1/rho_3 instead of --base",
    )
    p.add_argument("--digits", type=int, default=4, help="significant digits in text output")
    _add_common(p, cache=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("growth", help="radius, dominant singularity and growth rate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--n-max", type=int, default=None, help="ignored: r_k = 1/(2(k-1)) is exact for every k"
    )
    _add_common(p)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("asym", help="asymptotic vs exact subexponential factor at n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--base", type=float, default=None, help="default: the paper's 1/rho_3")
    p.add_argument("--computed-base", action="store_true")
    p.add_argument(
        "--n-max", type=int, default=None, help="also estimate the prefactor limit up to n-max"
    )
    _add_common(p, cache=True)
    p.set_defaults(func=cmd_asym)

    p = sub.add_parser("verify", help="check the generating-function identities")
    p.add_argument(
        "--which",
        choices=("laplace", "functional", "phi", "bessel", "all"),
        default="all",
    )
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--order", type=int, default=None, help="truncation order override")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force enumeration cross-check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="forbidden crossing number")
    p.add_argument("--min-arc", type=int, default=3)
    p.add_argument("--by-isolated", action="store_true")
    p.add_argument(
        "--budget", type=int, default=None, help="bound on the search states (0 refuses every search)"
    )
    p.add_argument("--shuffle-seed", type=int, default=None, help="shuffle branch order")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("roots", help="solve a quartic A x^4 + B x^3 + C x^2 + D x + E")
    p.add_argument("coeffs", type=float, nargs=5, metavar="COEFF", help="A, B, C, D and E")
    _add_common(p)
    p.set_defaults(func=cmd_roots)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
