"""Byte-for-byte CLI regression: stdout and exit code of every golden case.

tests/cli_golden.json was captured from the CLI before its output code
was merged into one emitter; it covers every subcommand in every format,
each usage error (exit 2) and an oracle budget refusal (exit 3).
Only the growth entries for k > 3 were recaptured since, when r_k became
exact for every k; the usage errors for a --base that is not finite and
positive and for table --digits below 1 were added later, as were the
verify cases at the benchmark's orders, one Bessel check at k = 12, and
the unwritable --cache, non-finite roots coefficient and --budget -5 / 0
cases, one asym case with --n-max, the refusal of a count past the
short-arc weight table's row bound, the refusal of a verify order past
the series bound, two k = 8 walk requests (one refused, one odd) and the
refusal of a Bessel check past its bound on k.  The growth cases for
k = 3 and k = 5 were recaptured when rho_k came to be correctly rounded,
and six growth cases for k = 3, 4, 5 when 1/rho_k came to be correctly
rounded and the singularity list to print the certified rho_k (see the
file's "about" note).  Four roots cases with finite but widely spread
coefficients (exit 2) were added when solve_quartic came to refuse them,
an asym and a table case whose --base scales the count past float
range (exit 2) when scaled_count came to refuse that, and an asym and a
table case whose --base scales it below the normal floats (exit 2) when
scaled_count came to refuse that too.  The top-level and per-command
--help pages and one unrecognised argument (exit 2) were added before
each command came to build only its own parser; help wraps to the
terminal width, so every case runs with COLUMNS=80, the width they were
captured at.  Two asym cases whose ratio of exact to asymptotic factor
has no digit at 6 decimals (below 5e-7, and inf), each in text and json
(exit 2), were added when asym came to refuse such a ratio.  An '='
form, an abbreviation, a repeated option, a negative value and a bad
choice, all but the repeated option read by argparse alone, and
'table --digits 17' were captured before a well-formed argv came to be
read without argparse;
'table --digits 18' (exit 2) was added when table came to refuse more
significant digits than a double carries, and 'growth --k 10000000'
(exit 2) when rho_k came to be bisected exactly: the float quartic solver
still dropped that root from the singularity list.  Four roots cases (a
quadruple root, double roots at 0 and 1, a biquadratic and a near-triple
cluster) were captured before Aberth-Ehrlich iteration on integer
coefficients replaced the closed form, and 23 cases were recaptured at
that change: every growth case for k = 3, 4 and 5, the roots cases of the
two k = 3 quartics, the near-triple cluster, 'growth --k 10000000' and
two roots cases with coefficients up to 1e160, the last three (exit 2)
now solved with exit 0 (see the "about" note).  20 cases were recaptured
when a root within 4 ulp of the real axis, where the polynomial changes
sign exactly, came to print as real: the twelve growth cases for k = 3, 4
and 5, 'growth --k 4 --n-max 9', 'growth --k 10000000' and the six roots
cases of the two k = 3 quartics; only imaginary parts ('-0.000000i' to
'+0.000000i', crumbs below 1e-30 to 0.0) and rho_3's residual (1.926e-58
to 0) moved.  'roots 1e-300 1 0 0 0' and 'roots 1e-100 1 1 0 0' (exit 2)
were added when the float-range rule came to be judged on the degree of
the quartic as given rather than of its squarefree factor.
"""

import json
from pathlib import Path

import pytest

from crossing_count import cli

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())["cases"]


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[" ".join(case["argv"]) or "(no arguments)" for case in GOLDEN]
)
def test_cli_matches_golden(case, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in case["argv"]]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejections
        code = exc.code
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])
