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
file's "about" note).
"""

import json
from pathlib import Path

import pytest

from crossing_count import cli

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())["cases"]


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[" ".join(case["argv"]) or "(no arguments)" for case in GOLDEN]
)
def test_cli_matches_golden(case, tmp_path, capsys):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in case["argv"]]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejections
        code = exc.code
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])
