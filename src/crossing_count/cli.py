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

This module holds the parser, main, the exit codes, the count cache and
the output helpers the commands share.  Each subcommand's handler is its
own module, crossing_count.commands.<name>, with run(args) -> int, and
main imports only the one the parsed command names.  That module imports
the layers it runs (count loads only counting and structures, roots only
asymptotics), and csv and json load only for their --format or the
cache, so a command compiles and imports neither the other handlers nor
the layers it skips.
"""

from __future__ import annotations

import argparse
import importlib
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


def open_cache(args) -> CountCache | None:
    path = args.cache or os.environ.get(CACHE_ENV_VAR)
    return CountCache(path) if path else None


def structure_count(k: int, n: int, ell: int | None, cache: CountCache | None) -> int:
    from . import structures

    value = None if cache is None else cache.get(k, n, ell)
    if value is None:
        value = structures.s_k3(k, n) if ell is None else structures.s_k3_by_isolated(k, n, ell)
        if cache is not None:
            cache.put(k, n, ell, value)
    return value


def base(args) -> float:
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


def emit(fmt: str, payload: dict, records: list[dict], text: list[str]) -> None:
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


def sci(x: float, digits: int) -> str:
    return f"{x:.{digits - 1}e}"


def fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


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

    p = sub.add_parser("growth", help="radius, dominant singularity and growth rate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--n-max", type=int, default=None, help="ignored: r_k = 1/(2(k-1)) is exact for every k"
    )
    _add_common(p)

    p = sub.add_parser("asym", help="asymptotic vs exact subexponential factor at n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--base", type=float, default=None, help="default: the paper's 1/rho_3")
    p.add_argument("--computed-base", action="store_true")
    p.add_argument(
        "--n-max", type=int, default=None, help="also estimate the prefactor limit up to n-max"
    )
    _add_common(p, cache=True)

    p = sub.add_parser("verify", help="check the generating-function identities")
    p.add_argument(
        "--which",
        choices=("laplace", "functional", "phi", "bessel", "all"),
        default="all",
    )
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--order", type=int, default=None, help="truncation order override")
    _add_common(p)

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

    p = sub.add_parser("roots", help="solve a quartic A x^4 + B x^3 + C x^2 + D x + E")
    p.add_argument("coeffs", type=float, nargs=5, metavar="COEFF", help="A, B, C, D and E")
    _add_common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = importlib.import_module(f".commands.{args.command}", __package__)
    try:
        return command.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
