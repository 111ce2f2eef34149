"""Byte-for-byte CLI regression: stdout and exit code of every golden case.

tests/cli_golden.json was captured from the CLI before its output code
was merged into one emitter; it covers every subcommand in every format,
each usage error (exit 2) and an oracle budget refusal (exit 3).
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
