"""Replay every tests/cli_golden.json case through `python -m crossing_count`.

    PYTHONPATH=src python3 scripts/replay_golden.py

tests/test_cli_golden.py calls cli.main in process, so it never runs the
process entry point in crossing_count/__main__.py.  This script runs each
case as its own child interpreter, with '{tmp}' replaced by a fresh
temporary directory, and exits 1 if any stdout or exit code differs.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "cli_golden.json"


def main() -> int:
    cases = json.loads(GOLDEN.read_text())["cases"]
    failures = 0
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            argv = [arg.replace("{tmp}", tmp) for arg in case["argv"]]
            proc = subprocess.run(
                [sys.executable, "-m", "crossing_count", *argv], capture_output=True, text=True
            )
        if (proc.returncode, proc.stdout) != (case["exit"], case["stdout"]):
            failures += 1
            print(f"differs: {' '.join(case['argv'])} (exit {proc.returncode})", file=sys.stderr)
    print(f"{len(cases) - failures} of {len(cases)} golden cases match through python -m crossing_count")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
