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
Ranges are checked where a handler or the library takes its arguments,
and every ValueError raised there is a usage error.  A persistent count
cache of structure counts (CSV: kind,k,n,ell,value, kind always S) can be
given via --cache or the CROSSING_COUNT_CACHE environment variable; it
is validated on load and takes one append per command that computed a
count; since every entry is re-derivable, one that is corrupt or cannot
be read is ignored with a warning and rewritten, and one that cannot be
written is warned about once.

This module holds main, the command table, the exit codes, the count
cache and the helpers the commands share, among them the shared options
FORMAT and CACHE.  Each subcommand's handler is its own module,
crossing_count.commands.<name>, with OPTIONS, a table of (name,
add_argument keywords), and run(args) -> int.  When argv[0] names a
command, main imports that one module and passes its OPTIONS to
commands.read, which parses a well-formed argv without importing
argparse.  Only when read declines (--help, a usage error, a positional,
or a form only argparse accepts, such as --k=3) does main import
argparse and add the same table to a parser of its own, so help, error
messages and exit codes are argparse's.  Any other argv goes to the
top-level parser of build_parser(), which knows the command names alone
and only prints help or a usage error.  The handler imports the layers
it runs (count loads only counting and structures, roots only
asymptotics), and csv and json load only for their --format or the
cache, so a command compiles and imports neither the other handlers'
code nor the layers it skips, and a well-formed command line imports no
argparse.
"""

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
        import csv

        self.path = path
        self.entries: dict[tuple[int, int, int | None], int] = {}
        self._mode = "w"  # put appends only under a header read here
        try:
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header != CACHE_HEADER:
                    raise ValueError(f"bad header {header!r}")
                for kind, k, n, ell, value in reader:
                    if kind != CACHE_KIND:
                        raise ValueError(f"unknown kind {kind!r}")
                    self.entries[(int(k), int(n), int(ell) if ell else None)] = int(value)
        except FileNotFoundError:
            pass
        except OSError as exc:
            print(f"warning: not reading cache {path}: {exc}", file=sys.stderr)
        except (ValueError, csv.Error) as exc:
            print(f"warning: ignoring corrupt cache {path}: {exc}", file=sys.stderr)
            self.entries = {}
        else:
            self._mode = "a"

    def get(self, k: int, n: int, ell: int | None = None) -> int | None:
        return self.entries.get((k, n, ell))

    def put(self, k: int, ell: int | None, counts: dict[int, int]) -> None:
        """Record a command's new counts S_{k,3}(n) = counts[n] in one write, an
        append or a fresh file under its header; a path that cannot be written is
        warned about and left alone, since the counts themselves are fine."""
        import csv

        try:
            with open(self.path, self._mode, newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                if self._mode == "w":
                    writer.writerow(CACHE_HEADER)
                writer.writerows([CACHE_KIND, k, n, ell, value] for n, value in counts.items())
        except OSError as exc:
            print(f"warning: not writing cache {self.path}: {exc}", file=sys.stderr)


def open_cache(args) -> CountCache | None:
    path = args.cache or os.environ.get(CACHE_ENV_VAR)
    return CountCache(path) if path else None


def structure_counts(k: int, ns, ell: int | None, cache: CountCache | None) -> dict:
    """S_{k,3}(n), or with ell isolated vertices, at each n of ns: cached, else
    one pass for the missing ones, recorded in one write."""
    counts = {} if cache is None else {n: cache.get(k, n, ell) for n in ns}
    missing = [n for n in ns if counts.get(n) is None]
    if missing:
        from . import structures

        computed = dict(zip(missing, structures.s_k3_at(k, missing, ell)))
        counts.update(computed)
        if cache is not None:
            cache.put(k, ell, computed)
    return counts


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


# ---------------------------------------------------------------- parser

COMMANDS = {
    "count": "exact structure count S_{k,3}(n)",
    "table": "subexponential factor table for k = 3",
    "growth": "radius, dominant singularity and growth rate",
    "asym": "asymptotic vs exact subexponential factor at n",
    "verify": "check the generating-function identities",
    "oracle": "brute-force enumeration cross-check",
    "roots": "solve a quartic A x^4 + B x^3 + C x^2 + D x + E",
}

# the options that commands share, as entries of their OPTIONS tables
FORMAT = ("--format", dict(choices=("text", "csv", "json"), default="text", help="output format"))
CACHE = (
    "--cache",
    dict(default=None, help=f"persistent count cache path (default: ${CACHE_ENV_VAR})"),
)


def build_parser():
    """The top-level argparse parser: the command table, for help and usage
    errors only."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="crossing-count",
        description="Exact counts and growth constants of k-noncrossing "
        "structures with minimum arc length 3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in COMMANDS.items():
        sub.add_parser(name, help=summary)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in COMMANDS:
        parser = build_parser()
        parser.parse_args(argv)  # prints help or a usage error, and exits
        parser.error("expected a command")
    name = argv[0]
    command = importlib.import_module(f".commands.{name}", __package__)
    from .commands import read

    args = read(command.OPTIONS, argv[1:])
    if args is None:  # help, a usage error, a positional, or a form only argparse reads
        import argparse

        parser = argparse.ArgumentParser(prog=f"crossing-count {name}")
        for option, kw in command.OPTIONS:
            parser.add_argument(option, **kw)
        args = parser.parse_args(argv[1:])
    try:
        return command.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
