"""Byte-for-byte CLI regression: stdout and exit code of every golden case.

Each case in tests/cli_golden.json runs through cli.main in process, with
COLUMNS=80 (the terminal width the --help pages were captured at) and
'{tmp}' in its argv replaced by a fresh temporary directory; its stdout
and exit code (a SystemExit code for argparse rejections) must equal the
recorded ones.  scripts/replay_golden.py replays the same cases through
the process entry point.  The file's "about" note records when each case
was captured or recaptured, and why.
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
