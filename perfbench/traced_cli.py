"""Run one crossing-count command with a span around each layer's calls.

    PYTHONPATH=src python3 perfbench/traced_cli.py OUT COMMAND_ID ARG...

Wraps the public functions listed below, calls cli.main(ARGS), and
writes the spans once, after the command returns, to OUT.bin and OUT.json
(see spans.py).  It prints nothing itself, so stdout is the command's own
and must match an untraced run byte for byte.
"""

from __future__ import annotations

import importlib
import sys

from spans import Recorder

# Functions that get a span; each one's self time is a per-layer metric.
SPANNED = (
    "cli.main",
    "cli.CountCache.__init__",
    "cli.CountCache.put",
    "counting.fk_perfect",
    "counting.tk_total",
    "counting.fk_partial",
    "structures.lambda_weight",
    "structures.s_k3",
    "structures.s_k3_by_isolated",
    "powerseries.verify_laplace_identity",
    "powerseries.verify_functional_equation",
    "powerseries.verify_phi_identity",
    "powerseries.verify_bessel_egf",
    "powerseries.TruncatedSeries.compose",
    "powerseries.determinant",
    "asymptotics.estimate_rk",
    "asymptotics.estimate_kprime",
    "asymptotics.compute_rho",
    "asymptotics.singularities_for_radius",
    "oracle.enumerate_count",
)
# Functions whose calls are only counted, so their time stays with the
# caller: series products are the work inside compose and the identities.
COUNTED = ("powerseries.TruncatedSeries.__mul__", "asymptotics.solve_quartic")
# Spanned functions whose distinct arguments are kept, for a repeat ratio.
DISTINCT_ARGS = ("counting.tk_total", "structures.s_k3")


def diagrams(result) -> int:
    """Diagrams enumerate_count found: its count, or its histogram's total."""
    return sum(result.values()) if isinstance(result, dict) else result


TALLIES = {"oracle.enumerate_count": diagrams}


def install(recorder: Recorder) -> None:
    """Replace each listed function by its recording wrapper."""
    for name in SPANNED + COUNTED:
        module, *path = name.split(".")
        owner = importlib.import_module(f"crossing_count.{module}")
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        fn = getattr(owner, path[-1])
        if name in COUNTED:
            wrapped = recorder.count(name, fn)
        else:
            wrapped = recorder.span(name, fn, name in DISTINCT_ARGS, TALLIES.get(name))
        setattr(owner, path[-1], wrapped)


def main() -> int:
    out, command_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    recorder = Recorder()
    install(recorder)
    from crossing_count import cli

    try:
        return cli.main(argv)
    finally:
        recorder.dump(out, command_id)


if __name__ == "__main__":
    sys.exit(main())
