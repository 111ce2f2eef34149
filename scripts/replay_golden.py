"""Replay every tests/cli_golden.json case through `python -m crossing_count`.

    PYTHONPATH=src python3 scripts/replay_golden.py

tests/test_cli_golden.py calls cli.main in process, so it never runs the
process entry point in crossing_count/__main__.py.  This script runs each
case as its own child interpreter, with '{tmp}' replaced by a fresh
temporary directory and COLUMNS=80 (the terminal width the --help cases
were captured at), and exits 1 if any stdout or exit code differs, or
if a child reports an exception it could not raise ("Exception ignored
in ..." on stderr, such as an unclosed file under PYTHONDEVMODE=1 with
PYTHONWARNINGS=error).  For each case that differs it prints, on stderr,
the argv, both exit codes and the first stdout line that differs,
expected and got.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "cli_golden.json"


def main() -> int:
    cases = json.loads(GOLDEN.read_text())["cases"]
    env = dict(os.environ, COLUMNS="80")
    failures = 0
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            argv = [arg.replace("{tmp}", tmp) for arg in case["argv"]]
            proc = subprocess.run(
                [sys.executable, "-m", "crossing_count", *argv],
                capture_output=True,
                text=True,
                env=env,
            )
        ignored = "Exception ignored" in proc.stderr
        if ignored or (proc.returncode, proc.stdout) != (case["exit"], case["stdout"]):
            failures += 1
            command = " ".join(case["argv"])
            codes = f"exit {case['exit']} expected, {proc.returncode} got"
            print(f"differs: {command} ({codes})", file=sys.stderr)
            lines = itertools.zip_longest(case["stdout"].splitlines(), proc.stdout.splitlines())
            for number, (want, got) in enumerate(lines, 1):
                if want != got:  # a missing line reads None
                    print(f"  line {number} expected: {want!r}", file=sys.stderr)
                    print(f"  line {number}      got: {got!r}", file=sys.stderr)
                    break
            if ignored:
                print(proc.stderr, end="", file=sys.stderr)
    print(f"{len(cases) - failures} of {len(cases)} golden cases match through python -m crossing_count")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
